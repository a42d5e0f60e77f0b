//! Whole-pipeline integration on realistic synthetic workloads: generate →
//! mine → derive rules → verify the maximal collection → cross-check with
//! the learning view.

use dualminer::bitset::AttrSet;
use dualminer::core::border::verify_maxth;
use dualminer::core::oracle::CountingOracle;
use dualminer::hypergraph::TrAlgorithm;
use dualminer::mining::apriori::apriori;
use dualminer::mining::gen::{dense_uniform, quest, QuestParams};
use dualminer::mining::maximal::{maximal_frequent_sets, sample_then_certify, MaximalStrategy};
use dualminer::mining::rules::association_rules;
use dualminer::mining::{FrequencyOracle, TransactionDb};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn quest_db(seed: u64) -> TransactionDb {
    let mut rng = StdRng::seed_from_u64(seed);
    quest(
        &QuestParams {
            n_items: 16,
            n_transactions: 300,
            avg_transaction_size: 6,
            avg_pattern_size: 3,
            n_patterns: 8,
            corruption: 0.3,
        },
        &mut rng,
    )
}

#[test]
fn quest_pipeline_mine_rules_verify() {
    let db = quest_db(42);
    let sigma = 60; // 20 % of 300 rows
    let fs = apriori(&db, sigma);
    assert!(!fs.itemsets().is_empty(), "workload too sparse");

    // Rules: statistics recomputed from the raw database.
    let rules = association_rules(&fs, 0.8);
    for rule in &rules {
        let mut z = rule.antecedent.clone();
        z.insert(rule.consequent);
        assert_eq!(rule.support, db.support_horizontal(&z));
        assert!(rule.confidence >= 0.8);
    }

    // Maximal collection verifies with exactly |Bd(S)| queries (Cor 4).
    let oracle = CountingOracle::new(FrequencyOracle::new(&db, sigma));
    let out = verify_maxth(&oracle, &fs.maximal, TrAlgorithm::Berge);
    assert!(out.is_maxth);
    assert_eq!(
        out.queries,
        (fs.maximal.len() + fs.negative_border.len()) as u64
    );
}

#[test]
fn quest_all_maximal_strategies_agree() {
    let db = quest_db(7);
    let sigma = 75;
    let reference = maximal_frequent_sets(&db, sigma, MaximalStrategy::Levelwise);
    for algo in [TrAlgorithm::Berge, TrAlgorithm::FkJointGeneration] {
        let run = maximal_frequent_sets(&db, sigma, MaximalStrategy::DualizeAdvance(algo));
        assert_eq!(run.maximal, reference.maximal, "{algo:?}");
        assert_eq!(run.negative_border, reference.negative_border, "{algo:?}");
    }
    let mut rng = StdRng::seed_from_u64(0);
    let hybrid = sample_then_certify(&db, sigma, 10, TrAlgorithm::Berge, &mut rng);
    assert_eq!(hybrid.maximal, reference.maximal);
}

#[test]
fn dense_noise_pipeline() {
    let mut rng = StdRng::seed_from_u64(3);
    let db = dense_uniform(16, 400, 0.4, &mut rng);
    let sigma = 100;
    let fs = apriori(&db, sigma);

    // Every frequent set really is frequent; every border set is not and
    // is minimal.
    for (s, supp) in fs.itemsets() {
        assert!(*supp >= sigma);
        assert_eq!(*supp, db.support_horizontal(s));
    }
    for b in &fs.negative_border {
        assert!(db.support_horizontal(b) < sigma);
        for sub in dualminer::bitset::ImmediateSubsets::new(b) {
            assert!(db.support_horizontal(&sub) >= sigma);
        }
    }

    // Theorem 2 lower bound: any algorithm needs ≥ |Bd⁺|+|Bd⁻| queries;
    // D&A respects it and stays under Theorem 21's upper bound.
    let oracle = CountingOracle::new(FrequencyOracle::new(&db, sigma));
    let run =
        dualminer::core::dualize_advance::dualize_advance(&oracle, TrAlgorithm::FkJointGeneration);
    let lower = (run.maximal.len() + run.negative_border.len()) as u64;
    assert!(oracle.distinct_queries() >= lower);
    let rank = run
        .maximal
        .iter()
        .map(AttrSet::len)
        .max()
        .unwrap_or(0)
        .max(1);
    let upper = dualminer::core::bounds::theorem21_bound(
        run.maximal.len(),
        run.negative_border.len(),
        rank,
        16,
    );
    assert!((oracle.distinct_queries() as u128) <= upper + 1);
}

#[test]
fn levelwise_vs_dualize_advance_query_crossover() {
    // Long planted itemsets: levelwise pays ~2^k per maximal set, D&A does
    // not — the paper's central claim about when each algorithm wins.
    let n = 16;
    let k = 10;
    let plants = vec![
        AttrSet::from_indices(n, 0..k),
        AttrSet::from_indices(n, 3..3 + k),
    ];
    let db = dualminer::mining::gen::planted(n, &plants, 2);

    let lw = maximal_frequent_sets(&db, 2, MaximalStrategy::Levelwise);
    let da = maximal_frequent_sets(
        &db,
        2,
        MaximalStrategy::DualizeAdvance(TrAlgorithm::FkJointGeneration),
    );
    assert_eq!(lw.maximal, da.maximal);
    assert!(
        da.queries * 10 < lw.queries,
        "expected ≥10× query gap, got D&A {} vs levelwise {}",
        da.queries,
        lw.queries
    );
}
