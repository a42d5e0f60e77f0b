//! Inclusion dependencies — the third database instance the paper names
//! ("finding keys or inclusion dependencies from relation instances
//! \[17\]", Section 1), easily representable as sets.
//!
//! Setting: two relation instances `r` and `s` over the same attribute
//! schema (e.g. this month's and last month's snapshot of a table). For
//! `X ⊆ R`, the (aligned) inclusion dependency `r[X] ⊆ s[X]` holds iff
//! every `X`-projection of an `r`-row appears among the `X`-projections
//! of `s`-rows. Shrinking `X` only makes inclusion easier, so
//! *interesting = the IND holds* is monotone, the theory is the set of
//! included attribute sets, `MTh` is the **maximal satisfied INDs**, and
//! the whole framework applies with the identity representation.

use dualminer_bitset::AttrSet;
use dualminer_core::dualize_advance::dualize_advance;
use dualminer_core::levelwise::levelwise;
use dualminer_core::oracle::{CountingOracle, InterestOracle};
use dualminer_hypergraph::TrAlgorithm;

use crate::Relation;

/// The IND `Is-interesting` oracle: interesting iff `r[X] ⊆ s[X]`.
#[derive(Clone, Debug)]
pub struct InclusionOracle<'a> {
    r: &'a Relation,
    s: &'a Relation,
}

impl<'a> InclusionOracle<'a> {
    /// Builds the oracle for `r[X] ⊆ s[X]` queries.
    ///
    /// # Panics
    /// Panics if the relations have different schemas (attribute counts).
    pub fn new(r: &'a Relation, s: &'a Relation) -> Self {
        assert_eq!(
            r.n_attrs(),
            s.n_attrs(),
            "aligned INDs need a common schema"
        );
        InclusionOracle { r, s }
    }

    /// Direct test of `r[X] ⊆ s[X]`.
    pub fn ind_holds(&self, x: &AttrSet) -> bool {
        let project = |rows: &[Vec<u32>]| -> std::collections::HashSet<Vec<u32>> {
            rows.iter()
                .map(|row| x.iter().map(|a| row[a]).collect())
                .collect()
        };
        let s_proj = project(self.s.rows());
        self.r
            .rows()
            .iter()
            .all(|row| s_proj.contains(&x.iter().map(|a| row[a]).collect::<Vec<u32>>()))
    }
}

impl InterestOracle for InclusionOracle<'_> {
    fn universe_size(&self) -> usize {
        self.r.n_attrs()
    }

    fn is_interesting(&self, x: &AttrSet) -> bool {
        self.ind_holds(x)
    }
}

/// Output of IND discovery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndDiscovery {
    /// Maximal attribute sets with `r[X] ⊆ s[X]`, card-lex sorted.
    pub maximal_inds: Vec<AttrSet>,
    /// Minimal violated sets — the certificate (`Bd⁻`).
    pub minimal_violations: Vec<AttrSet>,
    /// Distinct `Is-interesting` queries.
    pub queries: u64,
}

/// Discovers the maximal satisfied INDs with Dualize & Advance.
pub fn maximal_inds_dualize_advance(r: &Relation, s: &Relation, algo: TrAlgorithm) -> IndDiscovery {
    let oracle = CountingOracle::new(InclusionOracle::new(r, s));
    let run = dualize_advance(&oracle, algo);
    IndDiscovery {
        maximal_inds: run.maximal,
        minimal_violations: run.negative_border,
        queries: oracle.distinct_queries(),
    }
}

/// Discovers the maximal satisfied INDs with the levelwise algorithm.
pub fn maximal_inds_levelwise(r: &Relation, s: &Relation) -> IndDiscovery {
    let oracle = CountingOracle::new(InclusionOracle::new(r, s));
    let run = levelwise(&oracle);
    IndDiscovery {
        maximal_inds: run.positive_border,
        minimal_violations: run.negative_border,
        queries: oracle.distinct_queries(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// s: the "old" snapshot; r: the "new" one with one drifted column.
    fn pair() -> (Relation, Relation) {
        let s = Relation::new(
            3,
            vec![vec![1, 10, 100], vec![2, 20, 200], vec![3, 30, 300]],
        );
        // r's rows exist in s on attributes {0,1}, but attribute 2 drifted
        // on the second row.
        let r = Relation::new(3, vec![vec![1, 10, 100], vec![2, 20, 999]]);
        (r, s)
    }

    #[test]
    fn direct_ind_tests() {
        let (r, s) = pair();
        let o = InclusionOracle::new(&r, &s);
        assert!(o.ind_holds(&AttrSet::from_indices(3, [0, 1])));
        assert!(!o.ind_holds(&AttrSet::from_indices(3, [2])));
        assert!(o.ind_holds(&AttrSet::empty(3)));
    }

    #[test]
    fn discovery_both_algorithms_agree() {
        let (r, s) = pair();
        let da = maximal_inds_dualize_advance(&r, &s, TrAlgorithm::Berge);
        let lw = maximal_inds_levelwise(&r, &s);
        assert_eq!(da.maximal_inds, lw.maximal_inds);
        assert_eq!(da.minimal_violations, lw.minimal_violations);
        // Maximal satisfied IND is exactly {0,1}; the minimal violation
        // is {2}.
        assert_eq!(da.maximal_inds, vec![AttrSet::from_indices(3, [0, 1])]);
        assert_eq!(da.minimal_violations, vec![AttrSet::from_indices(3, [2])]);
    }

    #[test]
    fn identical_relations_have_full_ind() {
        let s = Relation::new(2, vec![vec![1, 2], vec![3, 4]]);
        let da = maximal_inds_dualize_advance(&s, &s, TrAlgorithm::Berge);
        assert_eq!(da.maximal_inds, vec![AttrSet::full(2)]);
        assert!(da.minimal_violations.is_empty());
    }

    #[test]
    fn disjoint_relations_only_empty_ind() {
        let r = Relation::new(2, vec![vec![1, 1]]);
        let s = Relation::new(2, vec![vec![2, 2]]);
        let da = maximal_inds_dualize_advance(&r, &s, TrAlgorithm::Berge);
        // ∅ always holds (empty projection of nonempty r is the empty
        // tuple, present in nonempty s); singletons fail.
        assert_eq!(da.maximal_inds, vec![AttrSet::empty(2)]);
        assert_eq!(da.minimal_violations.len(), 2);
    }

    #[test]
    fn empty_r_gives_full_ind() {
        let r = Relation::new(2, vec![]);
        let s = Relation::new(2, vec![vec![1, 2]]);
        let da = maximal_inds_dualize_advance(&r, &s, TrAlgorithm::Berge);
        assert_eq!(da.maximal_inds, vec![AttrSet::full(2)]);
    }

    #[test]
    fn monotonicity_spot_check() {
        let (r, s) = pair();
        let o = InclusionOracle::new(&r, &s);
        let samples: Vec<AttrSet> = (0..8usize)
            .map(|b| AttrSet::from_indices(3, (0..3).filter(|i| b >> i & 1 == 1)))
            .collect();
        assert_eq!(dualminer_core::oracle::check_monotone(&o, &samples), None);
    }

    #[test]
    #[should_panic(expected = "common schema")]
    fn schema_mismatch_rejected() {
        let r = Relation::new(2, vec![]);
        let s = Relation::new(3, vec![]);
        InclusionOracle::new(&r, &s);
    }
}
