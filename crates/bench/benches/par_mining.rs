//! Thread-scaling benchmarks for the parallel mining hot paths: Apriori
//! support counting (`apriori_par_ctl`) and the levelwise walk over a
//! frequency oracle (`levelwise_ctl`) on Quest workloads, sweeping the
//! worker-thread count.
//! Results are bit-identical across the sweep; only wall-clock changes.
//! `BENCH_baseline.json` records a reference run of this file.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dualminer_core::checkpoint::FaultCtl;
use dualminer_core::levelwise::levelwise_ctl;
use dualminer_mining::apriori::apriori_par_ctl;
use dualminer_mining::gen::{quest, QuestParams};
use dualminer_mining::{FrequencyOracle, TransactionDb};
use dualminer_obs::{Meter, NoopObserver, RunCtl};
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

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

fn bench_apriori_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("par_apriori");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    let (items, rows, sigma) = (30usize, 5000usize, 500usize);
    let db = quest_db(items, rows);
    for threads in THREAD_SWEEP {
        group.bench_with_input(
            BenchmarkId::new(format!("i{items}_r{rows}"), threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let meter = Meter::unlimited();
                    apriori_par_ctl(&db, sigma, threads, &RunCtl::new(&meter, &NoopObserver))
                        .expect_complete()
                })
            },
        );
    }
    group.finish();
}

fn bench_levelwise_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("par_levelwise");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    let (items, rows, sigma) = (24usize, 2000usize, 200usize);
    let db = quest_db(items, rows);
    for threads in THREAD_SWEEP {
        group.bench_with_input(
            BenchmarkId::new(format!("i{items}_r{rows}"), threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let oracle = FrequencyOracle::new(&db, sigma);
                    let meter = Meter::unlimited();
                    let ctl = RunCtl::new(&meter, &NoopObserver);
                    levelwise_ctl(&oracle, threads, &ctl, &FaultCtl::none(), None)
                        .expect("infallible oracle")
                        .expect_complete()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_apriori_threads, bench_levelwise_threads);
criterion_main!(benches);
