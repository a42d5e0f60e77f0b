//! Functional dependencies with a fixed right-hand side.
//!
//! For a target attribute `A`, the language is `P(R \ {A})` and `X` is
//! **interesting iff `X → A` does not hold** in the instance — monotone,
//! since shrinking `X` merges more rows. Then:
//!
//! * `MTh` = the maximal LHSs not determining `A`: the maximal sets among
//!   `ag(t, u) \ {A}` over row pairs that *disagree* on `A`;
//! * `Bd⁻(MTh)` = the minimal LHSs with `X → A`: the discovered minimal
//!   FDs.
//!
//! Because the language lives on `R \ {A}`, the representation as sets
//! (Definition 6) is *not* the identity: [`FdLhsRepresentation`] maps the
//! reduced `n−1`-attribute lattice to real attribute sets, exercising the
//! `f`/`f⁻¹` machinery of Theorem 7 end to end.

use dualminer_bitset::AttrSet;
use dualminer_core::dualize_advance::dualize_advance;
use dualminer_core::lang::SetRepresentation;
use dualminer_core::oracle::{CountingOracle, InterestOracle};
use dualminer_hypergraph::{maximize_family, transversals_with, Hypergraph, TrAlgorithm};

use crate::agree::agree_set;
use crate::Relation;

/// Definition 6 for fixed-RHS FDs: a bijection between `P(R \ {A})`
/// (reduced universe of size `n − 1`) and LHS attribute sets over `R`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FdLhsRepresentation {
    n: usize,
    target: usize,
}

impl FdLhsRepresentation {
    /// Representation for FDs `X → target` over `n` attributes.
    ///
    /// # Panics
    /// Panics if `target >= n`.
    pub fn new(n: usize, target: usize) -> Self {
        assert!(target < n, "target attribute outside universe");
        FdLhsRepresentation { n, target }
    }

    /// Reduced index of a real attribute (`None` for the target).
    pub fn to_reduced(&self, attr: usize) -> Option<usize> {
        match attr.cmp(&self.target) {
            std::cmp::Ordering::Less => Some(attr),
            std::cmp::Ordering::Equal => None,
            std::cmp::Ordering::Greater => Some(attr - 1),
        }
    }

    /// Real attribute of a reduced index.
    pub fn to_full(&self, reduced: usize) -> usize {
        if reduced < self.target {
            reduced
        } else {
            reduced + 1
        }
    }
}

impl SetRepresentation for FdLhsRepresentation {
    /// An LHS as a set over the *full* attribute universe (never contains
    /// the target).
    type Sentence = AttrSet;

    fn universe_size(&self) -> usize {
        self.n - 1
    }

    fn encode(&self, sentence: &AttrSet) -> AttrSet {
        assert_eq!(sentence.universe_size(), self.n);
        assert!(
            !sentence.contains(self.target),
            "LHS must not contain the target"
        );
        AttrSet::from_indices(
            self.n - 1,
            sentence
                .iter()
                .map(|a| self.to_reduced(a).expect("not target")),
        )
    }

    fn decode(&self, set: &AttrSet) -> AttrSet {
        assert_eq!(set.universe_size(), self.n - 1);
        AttrSet::from_indices(self.n, set.iter().map(|r| self.to_full(r)))
    }
}

/// The `Is-interesting` oracle over the reduced universe: interesting iff
/// the decoded LHS does **not** determine the target.
#[derive(Clone, Debug)]
pub struct NonDeterminingOracle<'a> {
    rel: &'a Relation,
    repr: FdLhsRepresentation,
}

impl<'a> NonDeterminingOracle<'a> {
    /// Oracle for FDs `X → target` on `rel`.
    pub fn new(rel: &'a Relation, target: usize) -> Self {
        NonDeterminingOracle {
            rel,
            repr: FdLhsRepresentation::new(rel.n_attrs(), target),
        }
    }
}

impl InterestOracle for NonDeterminingOracle<'_> {
    fn universe_size(&self) -> usize {
        self.repr.universe_size()
    }

    fn is_interesting(&self, x: &AttrSet) -> bool {
        !self.rel.fd_holds(&self.repr.decode(x), self.repr.target)
    }
}

/// Output of fixed-RHS FD discovery. All sets are over the **full**
/// attribute universe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FdDiscovery {
    /// The target attribute `A`.
    pub target: usize,
    /// Minimal LHSs with `X → A`, card-lex sorted. Contains `∅` iff the
    /// `A`-column is constant; empty iff two rows agree everywhere but on
    /// `A`… (then no LHS works).
    pub minimal_lhs: Vec<AttrSet>,
    /// Maximal LHSs with `X ↛ A`.
    pub maximal_non_determining: Vec<AttrSet>,
    /// Distinct oracle queries (0 for the direct path).
    pub queries: u64,
}

/// Direct path: agree sets of `A`-disagreeing pairs + one HTR run
/// (the fixed-RHS analogue of the Section 5 key remark).
pub fn minimal_fd_lhs_via_agree_sets(
    rel: &Relation,
    target: usize,
    algo: TrAlgorithm,
) -> FdDiscovery {
    let repr = FdLhsRepresentation::new(rel.n_attrs(), target);
    // Maximal non-determining sets: maximal ag(t,u) \ {A} over pairs with
    // t[A] ≠ u[A].
    let mut witnesses = Vec::new();
    for t in 0..rel.n_rows() {
        for u in t + 1..rel.n_rows() {
            if rel.rows()[t][target] != rel.rows()[u][target] {
                let mut ag = agree_set(rel, t, u);
                ag.remove(target);
                witnesses.push(ag);
            }
        }
    }
    let mut maximal = maximize_family(witnesses);
    maximal.sort_by(|a, b| a.cmp_card_lex(b));

    // Transversals in the reduced universe, decoded back (Theorem 7's f⁻¹).
    let reduced_complements = Hypergraph::from_edges(
        rel.n_attrs() - 1,
        maximal
            .iter()
            .map(|m| repr.encode(m).complement())
            .collect(),
    )
    .expect("reduced sets in reduced universe");
    let tr = transversals_with(&reduced_complements, algo);
    let minimal_lhs: Vec<AttrSet> = tr.edges().iter().map(|t| repr.decode(t)).collect();

    FdDiscovery {
        target,
        minimal_lhs,
        maximal_non_determining: maximal,
        queries: 0,
    }
}

/// Restricted-access path: Dualize & Advance through the representation.
pub fn minimal_fd_lhs_dualize_advance(
    rel: &Relation,
    target: usize,
    algo: TrAlgorithm,
) -> FdDiscovery {
    let repr = FdLhsRepresentation::new(rel.n_attrs(), target);
    let oracle = CountingOracle::new(NonDeterminingOracle::new(rel, target));
    let run = dualize_advance(&oracle, algo);
    FdDiscovery {
        target,
        minimal_lhs: run.negative_border.iter().map(|s| repr.decode(s)).collect(),
        maximal_non_determining: run.maximal.iter().map(|s| repr.decode(s)).collect(),
        queries: oracle.distinct_queries(),
    }
}

/// Discovers minimal FDs for **every** right-hand side: the full
/// dependency inference task of refs \[17, 18\].
pub fn all_minimal_fds(rel: &Relation, algo: TrAlgorithm) -> Vec<FdDiscovery> {
    (0..rel.n_attrs())
        .map(|a| minimal_fd_lhs_via_agree_sets(rel, a, algo))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualminer_bitset::Universe;

    fn toy() -> Relation {
        Relation::new(3, vec![vec![0, 0, 0], vec![0, 1, 1], vec![1, 1, 0]])
    }

    #[test]
    fn representation_round_trip() {
        let repr = FdLhsRepresentation::new(5, 2);
        let lhs = AttrSet::from_indices(5, [0, 3, 4]);
        let reduced = repr.encode(&lhs);
        assert_eq!(reduced.to_vec(), vec![0, 2, 3]);
        assert_eq!(repr.decode(&reduced), lhs);
        assert_eq!(repr.to_reduced(2), None);
        assert_eq!(repr.to_full(2), 3);
    }

    #[test]
    #[should_panic(expected = "must not contain the target")]
    fn representation_rejects_target_in_lhs() {
        let repr = FdLhsRepresentation::new(3, 1);
        repr.encode(&AttrSet::from_indices(3, [1]));
    }

    #[test]
    fn both_paths_agree_on_toy() {
        let r = toy();
        for target in 0..3 {
            let direct = minimal_fd_lhs_via_agree_sets(&r, target, TrAlgorithm::Berge);
            let da = minimal_fd_lhs_dualize_advance(&r, target, TrAlgorithm::Berge);
            assert_eq!(direct.minimal_lhs, da.minimal_lhs, "target={target}");
            assert_eq!(
                direct.maximal_non_determining, da.maximal_non_determining,
                "target={target}"
            );
        }
    }

    #[test]
    fn discovered_fds_hold_and_are_minimal() {
        let r = toy();
        for target in 0..3 {
            let d = minimal_fd_lhs_via_agree_sets(&r, target, TrAlgorithm::Berge);
            for lhs in &d.minimal_lhs {
                assert!(r.fd_holds(lhs, target), "X={lhs:?} → {target}");
                assert!(!lhs.contains(target));
                for sub in dualminer_bitset::ImmediateSubsets::new(lhs) {
                    assert!(!r.fd_holds(&sub, target), "{lhs:?} not minimal");
                }
            }
        }
    }

    #[test]
    fn toy_fd_values() {
        // Toy relation: rows 000, 011, 110.
        let r = toy();
        let u = Universe::letters(3);
        // target C: BC? — minimal LHS determining C: AB (key) and … A?
        // A→C: rows 0,1 agree on A, C differs → no. B→C: rows 1,2 agree on
        // B, C differs → no. AB→C holds (key).
        let d = minimal_fd_lhs_via_agree_sets(&r, 2, TrAlgorithm::Berge);
        assert_eq!(u.display_family(d.minimal_lhs.iter()), "{AB}");
    }

    #[test]
    fn constant_column_determined_by_empty_set() {
        let r = Relation::new(2, vec![vec![0, 7], vec![1, 7]]);
        let d = minimal_fd_lhs_via_agree_sets(&r, 1, TrAlgorithm::Berge);
        assert_eq!(d.minimal_lhs, vec![AttrSet::from_indices(2, [])]);
        let da = minimal_fd_lhs_dualize_advance(&r, 1, TrAlgorithm::Berge);
        assert_eq!(da.minimal_lhs, d.minimal_lhs);
    }

    #[test]
    fn undeterminable_target_has_no_fds() {
        // Two rows equal except on B: nothing (without B) determines B.
        let r = Relation::new(2, vec![vec![0, 0], vec![0, 1]]);
        let d = minimal_fd_lhs_via_agree_sets(&r, 1, TrAlgorithm::Berge);
        assert!(d.minimal_lhs.is_empty());
        let da = minimal_fd_lhs_dualize_advance(&r, 1, TrAlgorithm::Berge);
        assert!(da.minimal_lhs.is_empty());
    }

    #[test]
    fn all_fds_shape() {
        let r = toy();
        let all = all_minimal_fds(&r, TrAlgorithm::Berge);
        assert_eq!(all.len(), 3);
        assert!(all.iter().enumerate().all(|(i, d)| d.target == i));
    }
}
