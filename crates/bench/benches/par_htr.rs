//! Thread-scaling benchmarks for the parallel transversal hot paths:
//! Berge per-edge multiplication and the FK duality check's fork-join
//! recursion, each swept over worker-thread counts.
//! Results are bit-identical across the sweep; only wall-clock changes.
//! `BENCH_baseline.json` records a reference run of this file.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dualminer_bench::dualize_with;
use dualminer_hypergraph::{berge, fk, generators, TrAlgorithm};

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Stamps the work-stealing steal count into each JSON line, so baseline
/// artifacts show how much actual stealing each sweep point did.
fn scheduler_steals() -> u64 {
    dualminer_parallel::scheduler_stats().steals
}

fn bench_berge_threads(c: &mut Criterion) {
    criterion::steal_track::set_steal_counter(scheduler_steals);
    let mut group = c.benchmark_group("par_berge");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    // Example 19 matching: 2^(n/2) transversals — wide intermediate
    // families, the regime where the per-edge split pays off.
    let h = generators::matching(20);
    for threads in THREAD_SWEEP {
        group.bench_with_input(
            BenchmarkId::new("matching_n20", threads),
            &threads,
            |b, &t| b.iter(|| dualize_with(&h, TrAlgorithm::Berge, t)),
        );
    }
    group.finish();
}

fn bench_fk_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("par_fk");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    // A genuinely dual pair: F = matching, G = Tr(F) (2^(n/2) edges), so
    // the check must explore the full recursion — the worst case FK's
    // quasi-polynomial bound is about, and the widest fork tree.
    let f = generators::matching(18);
    let g = berge::transversals(&f);
    for threads in THREAD_SWEEP {
        group.bench_with_input(
            BenchmarkId::new("matching_n18_dual", threads),
            &threads,
            |b, &t| {
                b.iter(|| {
                    let (w, _) = fk::duality_witness_counted_par(&f, &g, t);
                    assert!(w.is_none());
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_berge_threads, bench_fk_threads);
criterion_main!(benches);
