//! Property tests: the three key-discovery paths agree on random
//! relations, discovered keys/FDs are sound and minimal, and the Armstrong
//! construction realizes planted agree-set antichains.

use dualminer_bitset::AttrSet;
use dualminer_fdep::agree::{agree_set, agree_sets};
use dualminer_fdep::fd::{
    all_minimal_fds, minimal_fd_lhs_dualize_advance, minimal_fd_lhs_via_agree_sets,
};
use dualminer_fdep::keys::{
    minimal_keys_dualize_advance, minimal_keys_levelwise, minimal_keys_via_agree_sets,
};
use dualminer_fdep::Relation;
use dualminer_hypergraph::TrAlgorithm;
use proptest::prelude::*;

const N: usize = 5;

fn arb_relation() -> impl Strategy<Value = Relation> {
    proptest::collection::vec(proptest::collection::vec(0u32..3, N), 0..8)
        .prop_map(|rows| Relation::new(N, rows))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn key_paths_agree(rel in arb_relation()) {
        let direct = minimal_keys_via_agree_sets(&rel, TrAlgorithm::Berge);
        let da = minimal_keys_dualize_advance(&rel, TrAlgorithm::FkJointGeneration);
        let lw = minimal_keys_levelwise(&rel);
        prop_assert_eq!(&direct.minimal_keys, &da.minimal_keys);
        prop_assert_eq!(&direct.minimal_keys, &lw.minimal_keys);
        prop_assert_eq!(&direct.maximal_non_superkeys, &da.maximal_non_superkeys);
        prop_assert_eq!(&direct.maximal_non_superkeys, &lw.maximal_non_superkeys);
    }

    #[test]
    fn keys_sound_and_minimal(rel in arb_relation()) {
        let keys = minimal_keys_via_agree_sets(&rel, TrAlgorithm::Berge).minimal_keys;
        for k in &keys {
            prop_assert!(rel.is_superkey(k));
            for sub in dualminer_bitset::ImmediateSubsets::new(k) {
                prop_assert!(!rel.is_superkey(&sub));
            }
        }
        // Completeness: every minimal superkey is listed (brute force).
        for bits in 0..(1usize << N) {
            let x = AttrSet::from_indices(N, (0..N).filter(|i| bits >> i & 1 == 1));
            let minimal_superkey = rel.is_superkey(&x)
                && dualminer_bitset::ImmediateSubsets::new(&x)
                    .all(|s| !rel.is_superkey(&s));
            prop_assert_eq!(minimal_superkey, keys.contains(&x), "{:?}", x);
        }
    }

    #[test]
    fn fd_paths_agree_and_are_sound(rel in arb_relation(), target in 0usize..N) {
        let direct = minimal_fd_lhs_via_agree_sets(
            &agree_sets(&rel), N, target, TrAlgorithm::Berge,
        );
        let da = minimal_fd_lhs_dualize_advance(&rel, target, TrAlgorithm::Berge);
        prop_assert_eq!(&direct.minimal_lhs, &da.minimal_lhs);
        for lhs in &direct.minimal_lhs {
            prop_assert!(!lhs.contains(target));
            prop_assert!(rel.fd_holds(lhs, target));
            for sub in dualminer_bitset::ImmediateSubsets::new(lhs) {
                prop_assert!(!rel.fd_holds(&sub, target));
            }
        }
    }

    #[test]
    fn armstrong_realizes_antichains(
        raw in proptest::collection::vec(proptest::collection::vec(0..N, 1..N), 1..4)
    ) {
        let sets: Vec<AttrSet> = raw
            .into_iter()
            .map(|v| AttrSet::from_indices(N, v))
            .filter(|s| s.len() < N)
            .collect();
        prop_assume!(!sets.is_empty());
        let mut plants = dualminer_hypergraph::maximize_family(sets);
        plants.sort_by(|a, b| a.cmp_card_lex(b));
        let rel = Relation::armstrong(N, &plants);
        let got = dualminer_fdep::agree::maximal_agree_sets(&rel);
        prop_assert_eq!(got, plants);
    }

    #[test]
    fn keys_transversal_duality(rel in arb_relation()) {
        // The minimal keys and the complements of the maximal agree sets
        // must be a dual pair (Theorem 7 at the FD instance).
        let d = minimal_keys_via_agree_sets(&rel, TrAlgorithm::Berge);
        let complements = dualminer_hypergraph::Hypergraph::from_edges(
            N,
            d.maximal_non_superkeys.iter().map(AttrSet::complement).collect(),
        ).unwrap();
        let keys = dualminer_hypergraph::Hypergraph::from_edges(
            N, d.minimal_keys.clone(),
        ).unwrap();
        prop_assert!(dualminer_hypergraph::fk::are_dual(&complements, &keys));
    }
}

/// Widths around the one-word and inline/spilled `AttrSet` boundaries.
const WIDTHS: [usize; 7] = [0, 1, 13, 63, 64, 65, 130];

/// A random relation of width `n` with duplicate rows and constant
/// columns mixed in: cells from a small domain, a few columns pinned to
/// one value, and some rows copied.
fn planted_relation(n: usize, rows: usize, seed: u64) -> Relation {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let domain = rng.gen_range(1..4u32);
    let constant: Vec<bool> = (0..n).map(|_| rng.gen_range(0..4) == 0).collect();
    let mut data: Vec<Vec<u32>> = Vec::with_capacity(rows);
    for _ in 0..rows {
        if !data.is_empty() && rng.gen_range(0..4) == 0 {
            let copy = data[rng.gen_range(0..data.len())].clone();
            data.push(copy);
            continue;
        }
        let row = (0..n)
            .map(|a| {
                if constant[a] {
                    7
                } else {
                    rng.gen_range(0..domain)
                }
            })
            .collect();
        data.push(row);
    }
    Relation::new(n, data)
}

/// The per-pair specification: every `agree_set`, deduplicated,
/// card-lex sorted.
fn pairwise_agree_sets(rel: &Relation) -> Vec<AttrSet> {
    let mut all = Vec::new();
    for t in 0..rel.n_rows() {
        for u in t + 1..rel.n_rows() {
            all.push(agree_set(rel, t, u));
        }
    }
    all.sort_by(|a, b| a.cmp_card_lex(b));
    all.dedup();
    all
}

#[test]
fn agree_sets_match_the_pairwise_spec_at_every_width() {
    for n in WIDTHS {
        for rows in [0, 1, 2, 3, 9, 24] {
            for seed in 0..4 {
                let rel = planted_relation(n, rows, seed);
                assert_eq!(
                    agree_sets(&rel),
                    pairwise_agree_sets(&rel),
                    "n={n} rows={rows} seed={seed}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn keys_and_fds_are_engine_independent(rows in 0usize..40, seed in any::<u64>()) {
        let rel = planted_relation(13, rows, seed);
        let berge = minimal_keys_via_agree_sets(&rel, TrAlgorithm::Berge);
        let auto = minimal_keys_via_agree_sets(&rel, TrAlgorithm::Auto);
        prop_assert_eq!(berge, auto);
        let agree = agree_sets(&rel);
        prop_assert_eq!(
            all_minimal_fds(&agree, 13, TrAlgorithm::Berge),
            all_minimal_fds(&agree, 13, TrAlgorithm::Auto)
        );
    }
}
