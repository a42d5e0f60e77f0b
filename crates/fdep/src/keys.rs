//! Minimal-key discovery three ways.
//!
//! 1. [`minimal_keys_via_agree_sets`] — the Section 5 remark: compute
//!    `Bd⁺(MTh)` (the maximal agree sets) directly from the data, then one
//!    transversal run. Unrestricted data access; the cheapest path.
//! 2. [`minimal_keys_dualize_advance`] — Algorithm 16 under the restricted
//!    `Is-interesting` model: the oracle answers only "is `X` a
//!    non-superkey?". The paper stresses Theorem 21 *"holds even if the
//!    access to the database is restricted to Is-interesting queries"*.
//! 3. [`minimal_keys_levelwise`] — Algorithm 9 under the same model;
//!    minimal keys appear as the negative border.
//!
//! All three must return the same keys — experiment E12 compares their
//! query/time bills.

use dualminer_bitset::AttrSet;
use dualminer_core::dualize_advance::dualize_advance;
use dualminer_core::levelwise::levelwise;
use dualminer_core::oracle::{CountingOracle, InterestOracle};
use dualminer_hypergraph::{maximize_family, transversals_with, Hypergraph, TrAlgorithm};

use crate::agree::agree_sets;
use crate::Relation;

/// The key-discovery `Is-interesting` oracle: interesting = **not** a
/// superkey. Monotone because projecting onto fewer attributes merges more
/// rows.
#[derive(Clone, Debug)]
pub struct NonSuperkeyOracle<'a> {
    rel: &'a Relation,
}

impl<'a> NonSuperkeyOracle<'a> {
    /// Wraps a relation.
    pub fn new(rel: &'a Relation) -> Self {
        NonSuperkeyOracle { rel }
    }
}

impl InterestOracle for NonSuperkeyOracle<'_> {
    fn universe_size(&self) -> usize {
        self.rel.n_attrs()
    }

    fn is_interesting(&self, x: &AttrSet) -> bool {
        !self.rel.is_superkey(x)
    }
}

/// Output of a key-discovery run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyDiscovery {
    /// The minimal keys, card-lex sorted. Empty iff the relation has two
    /// identical rows (then not even `R` is a key).
    pub minimal_keys: Vec<AttrSet>,
    /// The maximal non-superkeys (= maximal agree sets), card-lex sorted.
    pub maximal_non_superkeys: Vec<AttrSet>,
    /// Distinct `Is-interesting` queries (0 for the direct agree-set path,
    /// which never uses the oracle).
    pub queries: u64,
}

/// Section 5 remark: agree sets + one HTR run. No oracle queries.
pub fn minimal_keys_via_agree_sets(rel: &Relation, algo: TrAlgorithm) -> KeyDiscovery {
    minimal_keys_from_agree_sets(&agree_sets(rel), rel.n_attrs(), algo)
}

/// [`minimal_keys_via_agree_sets`] from an already computed agree-set
/// family of an `n`-attribute relation, so one pairwise pass can also
/// serve [`all_minimal_fds`](crate::fd::all_minimal_fds).
pub fn minimal_keys_from_agree_sets(
    agree: &[AttrSet],
    n: usize,
    algo: TrAlgorithm,
) -> KeyDiscovery {
    let mut max_ag = maximize_family(agree.to_vec());
    max_ag.sort_by(|a, b| a.cmp_card_lex(b));
    let complements = Hypergraph::from_edges(n, max_ag.iter().map(AttrSet::complement).collect())
        .expect("complements stay in universe");
    let keys = transversals_with(&complements, algo);
    KeyDiscovery {
        minimal_keys: keys.edges().to_vec(),
        maximal_non_superkeys: max_ag,
        queries: 0,
    }
}

/// Dualize & Advance on the non-superkey oracle: `MTh` = maximal agree
/// sets, `Bd⁻` = minimal keys.
pub fn minimal_keys_dualize_advance(rel: &Relation, algo: TrAlgorithm) -> KeyDiscovery {
    let oracle = CountingOracle::new(NonSuperkeyOracle::new(rel));
    let run = dualize_advance(&oracle, algo);
    KeyDiscovery {
        minimal_keys: run.negative_border,
        maximal_non_superkeys: run.maximal,
        queries: oracle.distinct_queries(),
    }
}

/// Levelwise on the non-superkey oracle. Pays for the whole theory (all
/// non-superkeys), so it is only competitive when agree sets are small.
pub fn minimal_keys_levelwise(rel: &Relation) -> KeyDiscovery {
    let oracle = CountingOracle::new(NonSuperkeyOracle::new(rel));
    let run = levelwise(&oracle);
    KeyDiscovery {
        minimal_keys: run.negative_border,
        maximal_non_superkeys: run.positive_border,
        queries: oracle.distinct_queries(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualminer_bitset::Universe;

    fn toy() -> Relation {
        Relation::new(3, vec![vec![0, 0, 0], vec![0, 1, 1], vec![1, 1, 0]])
    }

    #[test]
    fn three_paths_agree_on_toy() {
        let r = toy();
        let direct = minimal_keys_via_agree_sets(&r, TrAlgorithm::Berge);
        let da = minimal_keys_dualize_advance(&r, TrAlgorithm::Berge);
        let lw = minimal_keys_levelwise(&r);
        assert_eq!(direct.minimal_keys, da.minimal_keys);
        assert_eq!(direct.minimal_keys, lw.minimal_keys);
        assert_eq!(direct.maximal_non_superkeys, da.maximal_non_superkeys);
        assert_eq!(direct.maximal_non_superkeys, lw.maximal_non_superkeys);
        // Toy: agree sets {A},{B},{C}; keys = transversals of {BC},{AC},{AB}
        // = all pairs.
        let u = Universe::letters(3);
        assert_eq!(u.display_family(direct.minimal_keys.iter()), "{AB, AC, BC}");
        // Only the direct path is query-free.
        assert_eq!(direct.queries, 0);
        assert!(da.queries > 0 && lw.queries > 0);
    }

    #[test]
    fn keys_are_minimal_superkeys() {
        let r = toy();
        let keys = minimal_keys_via_agree_sets(&r, TrAlgorithm::Berge).minimal_keys;
        for k in &keys {
            assert!(r.is_superkey(k));
            for sub in dualminer_bitset::ImmediateSubsets::new(k) {
                assert!(!r.is_superkey(&sub), "{k:?} not minimal");
            }
        }
    }

    #[test]
    fn identical_rows_no_keys() {
        let r = Relation::new(2, vec![vec![1, 2], vec![1, 2]]);
        let direct = minimal_keys_via_agree_sets(&r, TrAlgorithm::Berge);
        assert!(direct.minimal_keys.is_empty());
        let da = minimal_keys_dualize_advance(&r, TrAlgorithm::Berge);
        assert!(da.minimal_keys.is_empty());
        assert_eq!(da.maximal_non_superkeys, vec![AttrSet::full(2)]);
    }

    #[test]
    fn single_row_empty_key() {
        let r = Relation::new(3, vec![vec![1, 2, 3]]);
        // ∅ is a superkey: the theory is empty, the only "key" is ∅.
        let da = minimal_keys_dualize_advance(&r, TrAlgorithm::Berge);
        assert_eq!(da.minimal_keys, vec![AttrSet::empty(3)]);
        assert!(da.maximal_non_superkeys.is_empty());
        let direct = minimal_keys_via_agree_sets(&r, TrAlgorithm::Berge);
        assert_eq!(direct.minimal_keys, vec![AttrSet::empty(3)]);
    }

    #[test]
    fn armstrong_keys_are_planted_transversals() {
        let plants = vec![
            AttrSet::from_indices(5, [0, 1, 2]),
            AttrSet::from_indices(5, [2, 3]),
            AttrSet::from_indices(5, [1, 4]),
        ];
        let r = Relation::armstrong(5, &plants);
        let direct = minimal_keys_via_agree_sets(&r, TrAlgorithm::Berge);
        let mut expected_maxth = plants.clone();
        expected_maxth.sort_by(|a, b| a.cmp_card_lex(b));
        assert_eq!(direct.maximal_non_superkeys, expected_maxth);
        let expected = dualminer_hypergraph::berge::transversals(
            &Hypergraph::from_edges(5, plants.iter().map(AttrSet::complement).collect()).unwrap(),
        );
        assert_eq!(direct.minimal_keys, expected.edges().to_vec());
        // Restricted-access algorithms agree.
        let da = minimal_keys_dualize_advance(&r, TrAlgorithm::FkJointGeneration);
        assert_eq!(da.minimal_keys, direct.minimal_keys);
    }
}

/// The inverse translation of Section 3's Armstrong-relation remark
/// (Mannila–Räihä, refs \[16, 18\]): construct a relation whose **minimal
/// keys are exactly** the given antichain.
///
/// Derivation: minimal keys `K = Tr({R∖ag : ag maximal agree set})`, so by
/// the transversal involution the maximal agree sets are the complements
/// of `Tr(K)` — one dualization, then the Armstrong construction. This is
/// the direction the paper calls "at least as hard as" the HTR problem,
/// and indeed the only non-trivial work is the `Tr` computation.
///
/// # Panics
/// Panics if `keys` is empty or contains ∅ together with other members
/// (∅ a key means every set is one; pass `&[AttrSet::empty(n)]` alone for
/// the single-row relation).
pub fn armstrong_for_keys(n: usize, keys: &[AttrSet], algo: TrAlgorithm) -> Relation {
    assert!(!keys.is_empty(), "need at least one key");
    if keys.len() == 1 && keys[0].is_empty() {
        // ∅ is a key ⟺ at most one row.
        return Relation::new(n, vec![vec![0; n]]);
    }
    assert!(
        keys.iter().all(|k| !k.is_empty()),
        "∅ cannot be a minimal key alongside others"
    );
    let key_graph = Hypergraph::from_edges(n, keys.to_vec()).expect("keys in universe");
    let anti_keys = transversals_with(&key_graph, algo); // Tr(K)
    let max_agree: Vec<AttrSet> = anti_keys.edges().iter().map(AttrSet::complement).collect();
    Relation::armstrong(n, &max_agree)
}

#[cfg(test)]
mod armstrong_tests {
    use super::*;

    #[test]
    fn realizes_requested_keys() {
        let n = 5;
        let keys = vec![
            AttrSet::from_indices(n, [0, 1]),
            AttrSet::from_indices(n, [1, 2]),
            AttrSet::from_indices(n, [3, 4]),
        ];
        // The requested family must be an antichain of minimal keys; it is.
        let rel = armstrong_for_keys(n, &keys, TrAlgorithm::Berge);
        let got = minimal_keys_via_agree_sets(&rel, TrAlgorithm::Berge).minimal_keys;
        let mut expected = keys.clone();
        expected.sort_by(|a, b| a.cmp_card_lex(b));
        assert_eq!(got, expected);
    }

    #[test]
    fn single_attribute_key() {
        let rel = armstrong_for_keys(3, &[AttrSet::from_indices(3, [1])], TrAlgorithm::Berge);
        let got = minimal_keys_via_agree_sets(&rel, TrAlgorithm::Berge).minimal_keys;
        assert_eq!(got, vec![AttrSet::from_indices(3, [1])]);
    }

    #[test]
    fn empty_key_single_row() {
        let rel = armstrong_for_keys(3, &[AttrSet::empty(3)], TrAlgorithm::Berge);
        assert_eq!(rel.n_rows(), 1);
        assert!(rel.is_superkey(&AttrSet::empty(3)));
    }

    #[test]
    fn random_antichains_round_trip() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..10 {
            let n = 7;
            let keys = dualminer_hypergraph::maximize_family(
                (0..4)
                    .map(|_| {
                        use rand::Rng;
                        let k = rng.gen_range(1..=3);
                        AttrSet::from_indices(n, (0..k).map(|_| rng.gen_range(0..n)))
                    })
                    .collect(),
            );
            // maximize_family keeps an antichain; these are legitimate
            // candidate minimal-key families.
            let rel = armstrong_for_keys(n, &keys, TrAlgorithm::Berge);
            let got = minimal_keys_via_agree_sets(&rel, TrAlgorithm::Berge).minimal_keys;
            let mut expected = keys.clone();
            expected.sort_by(|a, b| a.cmp_card_lex(b));
            assert_eq!(got, expected, "keys={keys:?}");
        }
    }
}
