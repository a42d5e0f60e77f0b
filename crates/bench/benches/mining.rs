//! Mining benchmarks: support counting (vertical vs horizontal — the
//! DESIGN.md §5 layout ablation), Apriori end-to-end on Quest workloads,
//! the levelwise walk with the Apriori evaluator vs a frequency oracle
//! (the tidset-caching ablation), and the levelwise vs Dualize & Advance
//! timing in both k regimes (experiment E8's wall-clock companion).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dualminer_bitset::AttrSet;
use dualminer_core::levelwise::levelwise;
use dualminer_hypergraph::TrAlgorithm;
use dualminer_mining::apriori::apriori;
use dualminer_mining::gen::{planted, quest, QuestParams};
use dualminer_mining::maximal::{maximal_frequent_sets, MaximalStrategy};
use dualminer_mining::{FrequencyOracle, TransactionDb};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn quest_db(items: usize, rows: usize) -> TransactionDb {
    let mut rng = StdRng::seed_from_u64(8);
    quest(
        &QuestParams {
            n_items: items,
            n_transactions: rows,
            avg_transaction_size: 8,
            avg_pattern_size: 4,
            n_patterns: 12,
            corruption: 0.3,
        },
        &mut rng,
    )
}

fn bench_support_counting(c: &mut Criterion) {
    let mut group = c.benchmark_group("support_counting");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let db = quest_db(40, 10_000);
    let x = AttrSet::from_indices(40, [1, 5, 9]);
    group.bench_function("vertical_bitmap", |b| b.iter(|| db.support(black_box(&x))));
    group.bench_function("horizontal_scan", |b| {
        b.iter(|| db.support_horizontal(black_box(&x)))
    });
    group.finish();
}

fn bench_apriori(c: &mut Criterion) {
    let mut group = c.benchmark_group("apriori");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    for (items, rows, sigma) in [(20usize, 2000usize, 300usize), (30, 5000, 750)] {
        let db = quest_db(items, rows);
        group.bench_with_input(
            BenchmarkId::new("specialized_tidsets", format!("i{items}_r{rows}")),
            &db,
            |b, db| b.iter(|| apriori(db, sigma)),
        );
        group.bench_with_input(
            BenchmarkId::new("generic_oracle", format!("i{items}_r{rows}")),
            &db,
            |b, db| {
                b.iter(|| {
                    let oracle = FrequencyOracle::new(db, sigma);
                    levelwise(&oracle)
                })
            },
        );
    }
    group.finish();
}

fn bench_maximal_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("maximal_mining");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);

    // Short-k regime: levelwise's home turf.
    let short = quest_db(20, 1000);
    // Long-k regime: D&A's home turf (3 planted 12-sets over 24 items).
    let long = planted(
        24,
        &[
            AttrSet::from_indices(24, 0..12),
            AttrSet::from_indices(24, 4..16),
            AttrSet::from_indices(24, 8..20),
        ],
        2,
    );

    for (regime, db, sigma) in [("short_k", &short, 150usize), ("long_k", &long, 2)] {
        group.bench_with_input(
            BenchmarkId::new("levelwise", regime),
            &(db, sigma),
            |b, (db, sigma)| {
                b.iter(|| maximal_frequent_sets(db, *sigma, MaximalStrategy::Levelwise))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("dualize_advance_berge", regime),
            &(db, sigma),
            |b, (db, sigma)| {
                b.iter(|| {
                    maximal_frequent_sets(
                        db,
                        *sigma,
                        MaximalStrategy::DualizeAdvance(TrAlgorithm::Berge),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("dualize_advance_fk", regime),
            &(db, sigma),
            |b, (db, sigma)| {
                b.iter(|| {
                    maximal_frequent_sets(
                        db,
                        *sigma,
                        MaximalStrategy::DualizeAdvance(TrAlgorithm::FkJointGeneration),
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_support_counting,
    bench_apriori,
    bench_maximal_strategies
);
criterion_main!(benches);
