//! The hybrid-dualization bench matrix: every auto-selectable backend ×
//! every generator class the planner distinguishes (DESIGN.md §14).
//!
//! Each class is one deterministic instance chosen so its regime is
//! unambiguous, and each backend runs on every class where a single
//! iteration stays in the milliseconds (cells that take seconds per
//! iteration — levelwise off its co-sparse class, FK off the smallest
//! co-sparse class — are gated out; they would make the suite minutes-long
//! without changing any verdict). The `auto` row stamps the planner's
//! decision into the bench id (e.g. `auto[mu-mmcs]`) so the recorded JSON
//! lines show which engine actually ran.
//!
//! Expected winners per class, from the recorded medians (BENCH_pr8.json):
//! matching → berge, cosparse40 → mu-mmcs (45.7 µs, ahead of levelwise
//! at 50.6 µs), cosparse96 → levelwise, dense28/hub28 → mu-mmcs,
//! threshold14 → egm. BENCH_pr8.json also keeps the cells of the
//! list-based MMCS engine that MU-MMCS replaced.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dualminer_hypergraph::{
    berge, egm, generators, joint_gen, levelwise_tr, mu_mmcs, plan, Hypergraph,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Cell {
    class: &'static str,
    h: Hypergraph,
    /// Engines gated *out* of this class (too slow per iteration).
    skip: &'static [&'static str],
}

fn cells() -> Vec<Cell> {
    vec![
        Cell {
            class: "matching20",
            h: generators::matching(20),
            // Levelwise needs seconds per iteration here; FK pays a
            // duality check per emitted transversal (2^10 of them).
            skip: &["levelwise", "fk"],
        },
        Cell {
            class: "cosparse40",
            h: generators::co_sparse(40, 4, 12, &mut StdRng::seed_from_u64(0xC05)),
            skip: &[],
        },
        Cell {
            class: "cosparse96",
            h: generators::co_sparse(96, 2, 14, &mut StdRng::seed_from_u64(0xC06)),
            // FK is ~500 ms/iteration at this universe size; it already
            // has its reference cell on cosparse40.
            skip: &["fk"],
        },
        Cell {
            class: "dense28",
            h: generators::random_uniform(28, 150, 3..=5, &mut StdRng::seed_from_u64(0xDE))
                .minimized(),
            skip: &["berge", "levelwise", "fk"],
        },
        Cell {
            class: "hub28",
            h: generators::hub(28, 2, 80, 3, &mut StdRng::seed_from_u64(0x4B)).minimized(),
            skip: &["berge", "levelwise", "fk"],
        },
        Cell {
            class: "threshold14",
            h: generators::threshold(14, 6),
            skip: &["berge", "levelwise", "fk"],
        },
    ]
}

fn bench_dualize_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("dualize_matrix");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    for cell in cells() {
        let h = &cell.h;
        let gated = |name: &str| cell.skip.contains(&name);
        if !gated("berge") {
            group.bench_with_input(BenchmarkId::new(cell.class, "berge"), h, |b, h| {
                b.iter(|| berge::transversals(h))
            });
        }
        if !gated("fk") {
            group.bench_with_input(BenchmarkId::new(cell.class, "fk"), h, |b, h| {
                b.iter(|| joint_gen::transversals(h))
            });
        }
        if !gated("levelwise") {
            group.bench_with_input(BenchmarkId::new(cell.class, "levelwise"), h, |b, h| {
                b.iter(|| levelwise_tr::transversals_large_edges(h))
            });
        }
        group.bench_with_input(BenchmarkId::new(cell.class, "mu-mmcs"), h, |b, h| {
            b.iter(|| mu_mmcs::transversals(h))
        });
        group.bench_with_input(BenchmarkId::new(cell.class, "egm"), h, |b, h| {
            b.iter(|| egm::transversals(h))
        });
        // Stamp the planner's choice into the id: the JSON line for this
        // bench then records which backend `auto` resolved to.
        let chosen = format!("auto[{}]", plan::plan(&h.minimized()).backend_name());
        group.bench_with_input(BenchmarkId::new(cell.class, chosen), h, |b, h| {
            b.iter(|| plan::dualize(h))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dualize_matrix);
criterion_main!(benches);
