//! Vertical-store benchmarks: streaming support kernels on dense and
//! sparse columns, and the segment-size sweep of the full miner. Output
//! is bit-identical across every configuration; only wall-clock and
//! memory change.
//!
//! This binary installs the byte-counting allocator, so its
//! `CRITERION_JSON` lines carry real `alloc_bytes` per iteration (and the
//! process `peak_rss_kb`) alongside the timings.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dualminer_bitset::AttrSet;
use dualminer_mining::apriori::apriori_par_ctl;
use dualminer_mining::gen::{quest, QuestParams};
use dualminer_mining::TransactionDb;
use dualminer_obs::{Meter, NoopObserver, RunCtl};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOCATOR: criterion::alloc_track::TrackingAllocator =
    criterion::alloc_track::TrackingAllocator;

fn quest_db(items: usize, rows: usize, avg_size: usize, segment_rows: usize) -> TransactionDb {
    let mut rng = StdRng::seed_from_u64(8);
    let db = quest(
        &QuestParams {
            n_items: items,
            n_transactions: rows,
            avg_transaction_size: avg_size,
            avg_pattern_size: 4,
            n_patterns: 12,
            corruption: 0.3,
        },
        &mut rng,
    );
    TransactionDb::with_segment_rows(db.n_items(), db.rows().to_vec(), segment_rows)
}

/// Streaming `support` over candidate arities 2..5 — the per-query kernel
/// the miner's inner loop is made of — on a dense and a sparse database.
fn bench_support_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("vstore");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    for (label, avg_size) in [("support_dense", 16usize), ("support_sparse", 4)] {
        let db = quest_db(30, 5000, avg_size, 1024);
        let candidates: Vec<AttrSet> = (0..26)
            .map(|i| AttrSet::from_indices(30, [i, (i + 3) % 30, (i + 11) % 30, (i + 17) % 30]))
            .collect();
        group.bench_function(label, |b| {
            b.iter(|| candidates.iter().map(|x| db.support(x)).sum::<usize>())
        });
    }
    group.finish();
}

/// Segment-size sweep of the miner: how the row-segment cap of the
/// vertical store changes the wall-clock of a full mine (the default
/// 1024 is the cache-blocked choice).
fn bench_segment_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("vstore");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    let sigma = 500usize;
    for segment_rows in [64usize, 256, 1024, 4096] {
        let db = quest_db(30, 5000, 8, segment_rows);
        group.bench_with_input(
            BenchmarkId::new("mine_segment_rows", segment_rows),
            &segment_rows,
            |b, _| {
                b.iter(|| {
                    let meter = Meter::unlimited();
                    apriori_par_ctl(&db, sigma, 1, &RunCtl::new(&meter, &NoopObserver))
                        .expect_complete()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_support_kernels, bench_segment_sweep);
criterion_main!(benches);
