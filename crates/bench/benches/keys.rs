//! Key-discovery benchmarks: the three paths of experiment E12 on
//! Armstrong-planted relations, the direct path under both the planner
//! (`auto`, the production route) and forced Berge, and the agree-set pass
//! alone on a 400 × 13 relation shaped like the daemon benchmark's.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dualminer_fdep::agree::agree_sets;
use dualminer_fdep::keys::{
    minimal_keys_dualize_advance, minimal_keys_levelwise, minimal_keys_via_agree_sets,
};
use dualminer_fdep::Relation;
use dualminer_hypergraph::TrAlgorithm;
use dualminer_mining::gen::random_antichain;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_key_discovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("key_discovery");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(14);

    for n in [10usize, 14] {
        let plants = random_antichain(n, 6, n - 3, &mut rng);
        let rel = Relation::armstrong(n, &plants);
        for (name, algo) in [("auto", TrAlgorithm::Auto), ("berge", TrAlgorithm::Berge)] {
            let id = BenchmarkId::new(format!("agree_sets_htr/{name}"), n);
            group.bench_with_input(id, &rel, |b, rel| {
                b.iter(|| minimal_keys_via_agree_sets(rel, algo))
            });
        }
        group.bench_with_input(BenchmarkId::new("dualize_advance", n), &rel, |b, rel| {
            b.iter(|| minimal_keys_dualize_advance(rel, TrAlgorithm::Berge))
        });
        if n <= 12 {
            group.bench_with_input(BenchmarkId::new("levelwise", n), &rel, |b, rel| {
                b.iter(|| minimal_keys_levelwise(rel))
            });
        }
    }

    // 400 rows × 13 columns, column `a` drawing from `4 + a % 3` values.
    let rows = (0..400)
        .map(|_| (0..13).map(|a| rng.gen_range(0..4 + a % 3)).collect())
        .collect();
    let rel = Relation::new(13, rows);
    group.bench_with_input(BenchmarkId::new("agree_sets", "400x13"), &rel, |b, rel| {
        b.iter(|| agree_sets(rel))
    });
    group.finish();
}

criterion_group!(benches, bench_key_discovery);
criterion_main!(benches);
