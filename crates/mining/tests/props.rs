//! Property tests: Apriori against brute force on random databases, and
//! rule statistics against direct recomputation.

use std::sync::Mutex;

use dualminer_bitset::{AttrSet, SubsetsOfSize};
use dualminer_hypergraph::TrAlgorithm;
use dualminer_mining::apriori::{apriori, apriori_par_ctl, FrequentSets};
use dualminer_mining::incremental::{append_rows, append_rows_ctl};
use dualminer_mining::maximal::{maximal_frequent_sets, MaximalStrategy};
use dualminer_mining::rules::association_rules;
use dualminer_mining::TransactionDb;
use dualminer_obs::{Budget, Meter, MiningObserver, NoopObserver, RunCtl};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const N: usize = 6;

fn arb_db() -> impl Strategy<Value = TransactionDb> {
    proptest::collection::vec(proptest::collection::vec(0..N, 0..N), 0..12)
        .prop_map(|rows| TransactionDb::from_index_rows(N, rows))
}

/// A batch of up to five appended rows.
fn arb_rows() -> impl Strategy<Value = Vec<AttrSet>> {
    proptest::collection::vec(proptest::collection::vec(0..N, 0..N), 0..6).prop_map(|rows| {
        rows.into_iter()
            .map(|r| AttrSet::from_indices(N, r))
            .collect()
    })
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
        // Scheduler determinism contract at every thread count.
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
        extra in arb_rows(),
        sigma in 1usize..3,
    ) {
        let old = apriori(&db, sigma);
        let update = append_rows(&db, &old, extra.clone());
        let fresh = apriori(&update.db, sigma);
        prop_assert_eq!(update.frequent.itemsets(), fresh.itemsets());
        prop_assert_eq!(&update.frequent.maximal, &fresh.maximal);
        prop_assert_eq!(&update.frequent.negative_border, &fresh.negative_border);
        prop_assert_eq!(
            &update.frequent.candidates_per_level,
            &fresh.candidates_per_level
        );
        prop_assert_eq!(update.frequent.queries(), fresh.queries());
        let (settled, counted) = update_work(&old, &extra, &fresh);
        prop_assert_eq!(update.delta_evaluations, settled);
        prop_assert_eq!(update.merged_evaluations, counted);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An append equals a cold one-thread mine of the merged rows, complete
    /// and under every `max_queries` (see [`append_is_cold_walk`]).
    #[test]
    fn budgeted_incremental_equals_budgeted_scratch(
        db in arb_db(),
        extra in arb_rows(),
        sigma in 1usize..3,
    ) {
        append_is_cold_walk(&db, sigma, &extra)?;
    }

    /// Appended rows that promote a `Bd⁻` set `B` and grow its supersets
    /// over two more levels (`σ` copies of `B ∪ {a, b}`, beside random
    /// rows): the update still equals the cold walk in every field.
    #[test]
    fn append_promotes_border_over_growth_levels(
        db in arb_db(),
        noise in arb_rows(),
        sigma in 1usize..4,
        pick in 0usize..1000,
    ) {
        let old = apriori(&db, sigma);
        let borders: Vec<&AttrSet> =
            old.negative_border.iter().filter(|b| b.len() + 2 <= N).collect();
        prop_assume!(!borders.is_empty());
        let b = borders[pick % borders.len()].clone();
        let out: Vec<usize> = (0..N).filter(|&i| !b.contains(i)).collect();
        let mut one = b.clone();
        one.insert(out[pick % out.len()]);
        let mut two = one.clone();
        two.insert(out[(pick + 1) % out.len()]);
        let mut extra = vec![two.clone(); sigma];
        extra.extend(noise);
        let update = append_rows(&db, &old, extra.clone());
        // Not vacuous: B is promoted, and B ∪ {a} and B ∪ {a, b} are new
        // frequent sets on two growth levels above it.
        for set in [&b, &one, &two] {
            prop_assert!(old.support_of(set).is_none());
            prop_assert!(update.frequent.support_of(set).is_some(), "{:?} not frequent", set);
        }
        let fresh = apriori(&update.db, sigma);
        prop_assert_eq!(update_work(&old, &extra, &fresh), (update.delta_evaluations, update.merged_evaluations));
        append_is_cold_walk(&db, sigma, &extra)?;
    }
}

/// The work an append of `extra` to the database `old` was mined on must
/// do, from the cold run `fresh` on the merged rows: the old sets
/// (frequent or `Bd⁻`) inside some appended row are settled from the
/// delta; the merged run's other candidates inside some appended row —
/// the touched `Bd⁻` and the growth — are counted on the merged rows.
fn update_work(old: &FrequentSets, extra: &[AttrSet], fresh: &FrequentSets) -> (usize, usize) {
    let inside = |x: &AttrSet| extra.iter().any(|r| x.is_subset(r));
    let sets = |fs: &FrequentSets| -> Vec<AttrSet> {
        fs.itemsets()
            .iter()
            .map(|(x, _)| x.clone())
            .chain(fs.negative_border.iter().cloned())
            .collect()
    };
    let settled = sets(old).iter().filter(|x| inside(x)).count();
    let counted = sets(fresh)
        .iter()
        .filter(|x| inside(x) && old.support_of(x).is_none())
        .count();
    (settled, counted)
}

/// Records every `on_level` event.
#[derive(Default)]
struct LevelLog(Mutex<Vec<(usize, usize, usize)>>);

impl MiningObserver for LevelLog {
    fn on_level(&self, level: usize, candidates: usize, interesting: usize) {
        self.0
            .lock()
            .unwrap()
            .push((level, candidates, interesting));
    }
}

/// An append of `extra` to `db` against a cold one-thread mine of the
/// merged rows, complete and under every `max_queries` from 0 up to the
/// merged run's count: every field of the result, the trip reason, the
/// `on_level` events and the metered queries agree.
fn append_is_cold_walk(
    db: &TransactionDb,
    sigma: usize,
    extra: &[AttrSet],
) -> Result<(), TestCaseError> {
    let old = apriori(db, sigma);
    let merged = append_rows(db, &old, extra.to_vec()).db;
    let count = apriori(&merged, sigma).queries();
    for cap in (0..=count).map(Some).chain([None]) {
        let run = |incremental: bool| {
            let meter = Budget {
                max_queries: cap,
                ..Budget::UNLIMITED
            }
            .start();
            let log = LevelLog::default();
            let ctl = RunCtl::new(&meter, &log);
            let (fs, reason) = if incremental {
                let (update, reason) = append_rows_ctl(db, &old, extra.to_vec(), &ctl).into_parts();
                (update.frequent, reason)
            } else {
                apriori_par_ctl(&merged, sigma, 1, &ctl).into_parts()
            };
            (
                fs.itemsets().to_vec(),
                fs.maximal,
                fs.negative_border,
                fs.candidates_per_level,
                reason,
                log.0.into_inner().unwrap(),
                meter.queries(),
            )
        };
        let incremental = run(true);
        prop_assert_eq!(
            incremental.4.is_none(),
            cap.map_or(true, |k| k == count),
            "cap={:?}",
            cap
        );
        prop_assert_eq!(incremental, run(false), "cap={:?}", cap);
    }
    Ok(())
}

/// The pre-PR-4 candidate generator, kept verbatim as a reference: for
/// each level member, try every extension above its maximum and keep
/// the candidate iff all immediate subsets (other than the parent
/// itself) are level members. Emission order is parents in level order,
/// extensions ascending — the order `CandidateBatch::join` must match
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
        let batch = dualminer_bitset::candidates::CandidateBatch::from_members(
            n,
            card - 1,
            level.iter().map(Vec::as_slice),
        )
        .join();
        let new: Vec<(usize, usize, Vec<usize>)> = (0..batch.len())
            .map(|i| {
                let (parent, partner) = batch.pair(i);
                (parent, partner, batch.cand(i).to_vec())
            })
            .collect();
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
