//! Property tests: Apriori against brute force on random databases, and
//! rule statistics against direct recomputation.

use dualminer_bitset::{AttrSet, SubsetsOfSize};
use dualminer_hypergraph::TrAlgorithm;
use dualminer_mining::apriori::{apriori, apriori_par_ctl};
use dualminer_mining::maximal::{maximal_frequent_sets, MaximalStrategy};
use dualminer_mining::rules::association_rules;
use dualminer_mining::TransactionDb;
use dualminer_obs::{Meter, NoopObserver, RunCtl};
use proptest::prelude::*;

const N: usize = 6;

fn arb_db() -> impl Strategy<Value = TransactionDb> {
    proptest::collection::vec(proptest::collection::vec(0..N, 0..N), 0..12)
        .prop_map(|rows| TransactionDb::from_index_rows(N, rows))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn apriori_matches_brute_force(db in arb_db(), sigma in 1usize..4) {
        let fs = apriori(&db, sigma);
        let mut expected: Vec<(AttrSet, usize)> = Vec::new();
        for k in 0..=N {
            for s in SubsetsOfSize::new(N, k) {
                let supp = db.support_horizontal(&s);
                if supp >= sigma {
                    expected.push((s, supp));
                }
            }
        }
        prop_assert_eq!(fs.itemsets(), expected);
    }

    #[test]
    fn parallel_apriori_is_bit_identical(db in arb_db(), sigma in 1usize..4) {
        // Work-stealing determinism contract at every thread count.
        let seq = apriori(&db, sigma);
        for threads in [1usize, 2, 4, 8] {
            let meter = Meter::unlimited();
            let par = apriori_par_ctl(&db, sigma, threads, &RunCtl::new(&meter, &NoopObserver))
                .expect_complete();
            prop_assert_eq!(par.itemsets(), seq.itemsets(), "threads={}", threads);
            prop_assert_eq!(par.maximal.clone(), seq.maximal.clone(), "threads={}", threads);
            prop_assert_eq!(par.negative_border.clone(), seq.negative_border.clone(), "threads={}", threads);
            prop_assert_eq!(par.candidates_per_level.clone(), seq.candidates_per_level.clone(), "threads={}", threads);
            prop_assert_eq!(par.queries(), seq.queries(), "threads={}", threads);
        }
    }

    #[test]
    fn vertical_equals_horizontal_support(db in arb_db(), items in proptest::collection::vec(0..N, 0..N)) {
        let x = AttrSet::from_indices(N, items);
        prop_assert_eq!(db.support(&x), db.support_horizontal(&x));
        prop_assert_eq!(db.tidset(&x).len(), db.support(&x));
    }

    #[test]
    fn maximal_strategies_agree(db in arb_db(), sigma in 1usize..4) {
        let reference = maximal_frequent_sets(&db, sigma, MaximalStrategy::Levelwise);
        for algo in [TrAlgorithm::Berge, TrAlgorithm::FkJointGeneration] {
            let run = maximal_frequent_sets(&db, sigma, MaximalStrategy::DualizeAdvance(algo));
            prop_assert_eq!(run.maximal, reference.maximal.clone());
            prop_assert_eq!(run.negative_border, reference.negative_border.clone());
        }
    }

    #[test]
    fn maximal_sets_are_frequent_antichain(db in arb_db(), sigma in 1usize..4) {
        let run = maximal_frequent_sets(&db, sigma, MaximalStrategy::Levelwise);
        for (i, m) in run.maximal.iter().enumerate() {
            prop_assert!(db.support_horizontal(m) >= sigma);
            for other in &run.maximal[i + 1..] {
                prop_assert!(!m.is_subset(other) && !other.is_subset(m));
            }
        }
        for b in &run.negative_border {
            prop_assert!(db.support_horizontal(b) < sigma);
            for sub in dualminer_bitset::ImmediateSubsets::new(b) {
                prop_assert!(db.support_horizontal(&sub) >= sigma);
            }
        }
    }

    #[test]
    fn rule_statistics_recompute(db in arb_db(), sigma in 1usize..3) {
        let fs = apriori(&db, sigma);
        for rule in association_rules(&fs, 0.0) {
            let mut z = rule.antecedent.clone();
            z.insert(rule.consequent);
            prop_assert_eq!(rule.support, db.support_horizontal(&z));
            let denom = db.support_horizontal(&rule.antecedent);
            prop_assert!((rule.confidence - rule.support as f64 / denom as f64).abs() < 1e-12);
            prop_assert!(rule.confidence > 0.0 && rule.confidence <= 1.0);
        }
    }

    #[test]
    fn sample_then_certify_complete(db in arb_db(), sigma in 1usize..3, seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let reference = maximal_frequent_sets(&db, sigma, MaximalStrategy::Levelwise);
        // Restarts 0 leave nothing sampled, so the driver seeds itself.
        for algo in [TrAlgorithm::Berge, TrAlgorithm::FkJointGeneration, TrAlgorithm::MuMmcs] {
            for restarts in [0, 3] {
                let run = dualminer_mining::maximal::sample_then_certify(
                    &db, sigma, restarts, algo, &mut rng,
                );
                prop_assert_eq!(&run.maximal, &reference.maximal, "{:?} restarts {}", algo, restarts);
                prop_assert_eq!(
                    &run.negative_border, &reference.negative_border,
                    "{:?} restarts {}", algo, restarts
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn closed_sets_reconstruct_all_supports(db in arb_db(), sigma in 1usize..3) {
        use dualminer_mining::closed::{closed_sets, closure, support_from_closed};
        let fs = dualminer_mining::apriori::apriori(&db, sigma);
        let closed = closed_sets(&fs);
        for (set, support) in fs.itemsets() {
            prop_assert_eq!(support_from_closed(&closed, set), Some(*support));
        }
        for c in &closed {
            prop_assert_eq!(closure(&db, &c.set), c.set.clone());
        }
        prop_assert!(closed.len() <= fs.itemsets().len());
    }

    #[test]
    fn sampling_always_exact(db in arb_db(), sigma in 1usize..3, seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let exact = dualminer_mining::apriori::apriori(&db, sigma);
        let sampled = dualminer_mining::sampling::sample_then_verify(&db, sigma, 4, 0.7, &mut rng);
        prop_assert_eq!(sampled.itemsets, exact.itemsets());
    }

    #[test]
    fn incremental_matches_scratch(
        db in arb_db(),
        extra in proptest::collection::vec(proptest::collection::vec(0..N, 0..N), 0..6),
        sigma in 1usize..3,
    ) {
        use dualminer_bitset::AttrSet;
        let old = dualminer_mining::apriori::apriori(&db, sigma);
        let extra_rows: Vec<AttrSet> = extra
            .into_iter()
            .map(|r| AttrSet::from_indices(N, r))
            .collect();
        let update = dualminer_mining::incremental::append_rows(&db, &old, extra_rows);
        let fresh = dualminer_mining::apriori::apriori(&update.db, sigma);
        prop_assert_eq!(update.frequent.itemsets(), fresh.itemsets());
        prop_assert_eq!(update.frequent.maximal, fresh.maximal);
        prop_assert_eq!(update.frequent.negative_border, fresh.negative_border);
    }
}

/// The pre-PR-4 candidate generator, kept verbatim as a reference: for
/// each level member, try every extension above its maximum and keep
/// the candidate iff all immediate subsets (other than the parent
/// itself) are level members. Emission order is parents in level order,
/// extensions ascending — the order [`prefix_join_units`] must match
/// bit for bit.
fn naive_units(n: usize, card: usize, level: &[Vec<usize>]) -> Vec<(usize, usize, Vec<usize>)> {
    use std::collections::HashMap;
    let members: HashMap<&[usize], usize> = level
        .iter()
        .enumerate()
        .map(|(i, v)| (v.as_slice(), i))
        .collect();
    let mut units = Vec::new();
    for (pi, x) in level.iter().enumerate() {
        let lo = x.last().map_or(0, |&m| m + 1);
        'ext: for a in lo..n {
            let mut cand = x.clone();
            cand.push(a);
            if card >= 2 {
                for drop in 0..cand.len() - 1 {
                    let sub: Vec<usize> = cand
                        .iter()
                        .enumerate()
                        .filter_map(|(i, &v)| (i != drop).then_some(v))
                        .collect();
                    if !members.contains_key(sub.as_slice()) {
                        continue 'ext;
                    }
                }
            }
            // The join partner: the candidate minus its second-largest
            // element — a level member whenever the candidate survived
            // (it is the `drop == card − 2` subset above; ∅'s singleton
            // extensions have no partner and reuse the parent index).
            let partner = if card >= 2 {
                let mut key = x[..card - 2].to_vec();
                key.push(a);
                members[key.as_slice()]
            } else {
                pi
            };
            units.push((pi, partner, cand));
        }
    }
    units
}

/// Replay every level of a finished mining run through both candidate
/// generators and assert the unit sequences — parent indices, candidate
/// sets, and order — are identical.
fn assert_candidate_sequences_match(db: &TransactionDb, sigma: usize) {
    let n = db.n_items();
    let fs = apriori(db, sigma);
    let max_card = fs
        .itemsets()
        .iter()
        .map(|(s, _)| s.len())
        .max()
        .unwrap_or(0);
    for card in 1..=max_card + 1 {
        let level: Vec<Vec<usize>> = fs
            .itemsets()
            .iter()
            .filter(|(s, _)| s.len() == card - 1)
            .map(|(s, _)| s.to_vec())
            .collect();
        let new = dualminer_core::candidates::prefix_join_units(n, card, &level, Vec::as_slice);
        assert_eq!(new, naive_units(n, card, &level), "card {card}");
    }
}

#[test]
fn candidate_sequences_bit_identical_on_seeded_quest() {
    use dualminer_mining::gen::{quest, QuestParams};
    use rand::{rngs::StdRng, SeedableRng};
    let params = QuestParams {
        n_items: 24,
        n_transactions: 300,
        avg_transaction_size: 8,
        avg_pattern_size: 4,
        n_patterns: 8,
        corruption: 0.3,
    };
    for seed in [7u64, 42, 20260806] {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = quest(&params, &mut rng);
        for sigma in [20, 45, 90] {
            assert_candidate_sequences_match(&db, sigma);
        }
    }
}

#[test]
fn candidate_sequences_bit_identical_on_planted() {
    use dualminer_mining::gen::planted;
    let n = 16;
    let plants = vec![
        AttrSet::from_indices(n, [0, 1, 2, 3, 4]),
        AttrSet::from_indices(n, [3, 4, 5, 6]),
        AttrSet::from_indices(n, [6, 7, 8, 9, 10]),
        AttrSet::from_indices(n, [0, 10, 11, 12]),
        AttrSet::from_indices(n, [13, 14, 15]),
    ];
    let db = planted(n, &plants, 4);
    for sigma in [1, 2, 4, 5] {
        assert_candidate_sequences_match(&db, sigma);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The prefix-join engine agrees with the reference generator on
    /// arbitrary small databases too, not just the seeded workloads.
    #[test]
    fn candidate_sequences_bit_identical_on_random_dbs(db in arb_db(), sigma in 1usize..4) {
        assert_candidate_sequences_match(&db, sigma);
    }
}
