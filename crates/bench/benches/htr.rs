//! Head-to-head timing of the minimal-transversal algorithms on the
//! paper's three instance regimes (the DESIGN.md §5 HTR-strategy
//! ablation): matchings (exponential output, Example 19), co-sparse
//! large-edge hypergraphs (Corollary 15 territory), and random mid-density
//! instances.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dualminer_hypergraph::{berge, generators, joint_gen, levelwise_tr, Hypergraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_instance(c: &mut Criterion, group_name: &str, instances: Vec<(String, Hypergraph)>) {
    let mut group = c.benchmark_group(group_name);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    for (label, h) in instances {
        group.bench_with_input(BenchmarkId::new("berge", &label), &h, |b, h| {
            b.iter(|| berge::transversals(h))
        });
        group.bench_with_input(BenchmarkId::new("fk_joint", &label), &h, |b, h| {
            b.iter(|| joint_gen::transversals(h))
        });
        group.bench_with_input(BenchmarkId::new("levelwise", &label), &h, |b, h| {
            b.iter(|| levelwise_tr::transversals_large_edges(h))
        });
    }
    group.finish();
}

fn bench_matching(c: &mut Criterion) {
    let instances = [8usize, 12, 16]
        .iter()
        .map(|&n| (format!("n{n}"), generators::matching(n)))
        .collect();
    bench_instance(c, "htr_matching", instances);
}

fn bench_co_sparse(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let instances = [16usize, 32, 48]
        .iter()
        .map(|&n| (format!("n{n}"), generators::co_sparse(n, 3, 10, &mut rng)))
        .collect();
    bench_instance(c, "htr_large_edges", instances);
}

fn bench_random(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let instances = [10usize, 14]
        .iter()
        .map(|&n| {
            (
                format!("n{n}"),
                generators::random_uniform(n, 8, 2..=4, &mut rng).minimized(),
            )
        })
        .collect();
    bench_instance(c, "htr_random", instances);
}

fn bench_edge_order(c: &mut Criterion) {
    // The Berge edge-ordering ablation (DESIGN.md §5): same answers,
    // different intermediate family sizes.
    use dualminer_hypergraph::berge::{transversals_with_order, EdgeOrder};
    let mut group = c.benchmark_group("htr_edge_order");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(4);
    let h = dualminer_hypergraph::generators::random_uniform(18, 12, 2..=6, &mut rng).minimized();
    for (label, order) in [
        ("largest_first", EdgeOrder::LargestFirst),
        ("smallest_first", EdgeOrder::SmallestFirst),
        ("as_stored", EdgeOrder::AsStored),
    ] {
        group.bench_with_input(BenchmarkId::new(label, "random_n18"), &h, |b, h| {
            b.iter(|| transversals_with_order(h, order))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_matching,
    bench_co_sparse,
    bench_random,
    bench_edge_order
);
criterion_main!(benches);
