//! Thread-scaling benchmark for Berge's per-edge multiplication, swept
//! over worker-thread counts. Results are bit-identical across the
//! sweep; only wall-clock changes. `BENCH_baseline.json` records a
//! reference run of this file.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dualminer_bench::dualize_with;
use dualminer_hypergraph::{generators, TrAlgorithm};

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn bench_berge_threads(c: &mut Criterion) {
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

criterion_group!(benches, bench_berge_threads);
criterion_main!(benches);
