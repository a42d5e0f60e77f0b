//! Instance-shape planner: one `dualize()` entry point that inspects the
//! input and picks the transversal backend expected to win.
//!
//! The repo carries five interchangeable engines, each with a regime
//! where it dominates (DESIGN.md §14):
//!
//! * **Berge** — tiny edge counts and matching-like inputs, where the
//!   per-edge multiplication touches almost nothing.
//! * **Levelwise** (Corollary 15) — co-sparse inputs, every edge of size
//!   ≥ n − O(log n), where the levelwise special case is input-polynomial.
//! * **MU-MMCS** — the general-purpose dense workhorse (including
//!   hub-dominated profiles, where its degree ordering branches on the
//!   hub first and simulates the decomposition with less overhead).
//! * **EGM** — massive skewed families: thousands of edges with a vertex
//!   in ≥ 40% of them, where one split sheds enough edge mass on both
//!   sides to pay for the recombination.
//! * **FK joint generation** — never auto-selected (its quasi-polynomial
//!   guarantee is for *duality checking*; as an enumerator it is dominated
//!   on every measured class) but remains selectable explicitly.
//!
//! The decision uses only O(‖H‖) shape features — edge count, rank,
//! min/max degree, degree skew — so planning is effectively free next to
//! any dualization. Every backend returns the identical canonical
//! hypergraph, so the choice never changes results, only running time.
//!
//! [`dualize_ctl_report`] is the one dispatcher behind [`dualize`],
//! `transversals_with`, and each backend's `transversals`, and the only
//! place on those routes that minimizes: planning, the levelwise
//! precondition and its fallback, and the engine all see the same
//! `min(H)`, and no engine minimizes again.

use dualminer_obs::{Outcome, RunCtl};

use crate::{berge, egm, joint_gen, levelwise_tr, mu_mmcs, Hypergraph, TrAlgorithm};

/// Shape features the planner extracts from an instance (all O(‖H‖)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Shape {
    /// Universe size.
    pub n: usize,
    /// Edge count after minimization.
    pub m: usize,
    /// Largest edge size (the hypergraph's rank); 0 when edgeless.
    pub rank: usize,
    /// Smallest edge size; 0 when edgeless.
    pub min_edge: usize,
    /// Largest vertex degree.
    pub max_degree: usize,
    /// Degeneracy proxy: the largest `d` such that at least `d` vertices
    /// have degree ≥ `d` (an h-index over the degree sequence — cheap, and
    /// tracks how "core-heavy" the instance is).
    pub degeneracy: usize,
}

/// A planner verdict: the concrete backend plus the rule that fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanDecision {
    /// The backend to run (never [`TrAlgorithm::Auto`]).
    pub backend: TrAlgorithm,
    /// Short machine-readable name of the rule that fired (stable; the
    /// stats JSON `planner_choice` value).
    pub rule: &'static str,
    /// The features the decision was based on.
    pub shape: Shape,
}

/// Extracts the planner's shape features from a minimized edge family.
fn shape_of(h: &Hypergraph) -> Shape {
    let n = h.universe_size();
    let m = h.len();
    let rank = h.max_edge_size().unwrap_or(0);
    let min_edge = h.min_edge_size().unwrap_or(0);
    let mut degrees = h.degrees();
    let max_degree = degrees.iter().copied().max().unwrap_or(0);
    degrees.sort_unstable_by(|a, b| b.cmp(a));
    let degeneracy = degrees
        .iter()
        .enumerate()
        .take_while(|&(i, &d)| d > i)
        .count();
    Shape {
        n,
        m,
        rank,
        min_edge,
        max_degree,
        degeneracy,
    }
}

/// Edge-count threshold below which Berge's multiplication wins outright.
const SMALL_EDGE_COUNT: usize = 12;

/// Minimum edge count before the EGM decomposition is considered. The
/// split must amortize two sub-dualizations plus a re-minimization, and
/// measured break-even against MU-MMCS sits in the thousands-of-edges
/// regime (threshold(14,6) with m = 3003 splits 1.6× faster; small hub
/// families below ~1k edges consistently lose to direct MU-MMCS).
const EGM_MIN_EDGES: usize = 2048;

/// Degree-skew threshold for EGM: the top vertex must sit in at least this
/// fraction of the edges for the `H_v̄` branch to shrink meaningfully.
const EGM_DEGREE_FRACTION: f64 = 0.4;

/// Whether every edge has size ≥ n − O(log n) (Corollary 15's regime), so
/// the levelwise special case is input-polynomial. Vacuous when edgeless.
fn co_sparse(shape: &Shape) -> bool {
    let log2n = usize::BITS as usize - shape.n.max(1).leading_zeros() as usize;
    shape.m == 0 || shape.n - shape.min_edge <= log2n + 2
}

/// Picks a backend for the instance. The input should already be
/// minimized ([`dualize_ctl_report`] minimizes first); the decision is
/// deterministic in the instance alone.
pub fn plan(h: &Hypergraph) -> PlanDecision {
    decide(shape_of(h))
}

/// The planner's ordered rules over an instance's shape features.
fn decide(shape: Shape) -> PlanDecision {
    let decide = |backend, rule| PlanDecision {
        backend,
        rule,
        shape,
    };
    // Constants and near-empty families: any engine is instant; Berge
    // avoids even building a search state.
    if shape.m == 0 || shape.min_edge == 0 {
        return decide(TrAlgorithm::Berge, "trivial");
    }
    // Corollary 15 regime: all complements of size O(log n). The same
    // test gates a forced levelwise run, so the special case genuinely
    // runs (no silent fallback).
    if co_sparse(&shape) {
        return decide(TrAlgorithm::LevelwiseLargeEdges, "co-sparse");
    }
    // Few edges: the product of a dozen small families stays tiny and
    // Berge's re-minimization never blows up.
    if shape.m <= SMALL_EDGE_COUNT {
        return decide(TrAlgorithm::Berge, "few-edges");
    }
    // Matching-like: rank ≤ 2 with every vertex in at most one edge means
    // the product is a free cross-product — Berge emits it directly,
    // where a DFS engine would still walk the full 2^m tree node by node.
    if shape.rank <= 2 && shape.max_degree <= 1 {
        return decide(TrAlgorithm::Berge, "matching");
    }
    // Massive skewed families: one split sheds a large fraction of the
    // edge mass on both sides, and at this size that outweighs the
    // recombination cost.
    if shape.m >= EGM_MIN_EDGES
        && shape.max_degree < shape.m
        && (shape.max_degree as f64) >= EGM_DEGREE_FRACTION * shape.m as f64
    {
        return decide(TrAlgorithm::Egm, "mass-skew");
    }
    decide(TrAlgorithm::MuMmcs, "dense-default")
}

/// Aggregate report for one planned dualization, for the stats surfaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanReport {
    /// The decision that was executed.
    pub decision: PlanDecision,
    /// MU-MMCS search counters, populated when the executed backend was
    /// MU-MMCS or EGM (EGM aggregates its leaves' counters).
    pub mu: Option<mu_mmcs::MuStats>,
    /// EGM decomposition counters, populated when the backend was EGM.
    pub egm: Option<egm::EgmStats>,
}

impl PlanDecision {
    /// Stable lowercase name of the chosen backend (CLI `--algo` spelling).
    pub fn backend_name(&self) -> &'static str {
        algo_name(self.backend)
    }
}

/// Every strategy with its CLI `--algo` / protocol `"algo"` spelling, in
/// declaration order: the one table behind [`algo_name`], `--algo`
/// parsing, and the accepted-names list in its error message.
pub const ALGO_NAMES: [(TrAlgorithm, &str); 6] = [
    (TrAlgorithm::Auto, "auto"),
    (TrAlgorithm::Berge, "berge"),
    (TrAlgorithm::FkJointGeneration, "fk"),
    (TrAlgorithm::LevelwiseLargeEdges, "levelwise"),
    (TrAlgorithm::MuMmcs, "mu-mmcs"),
    (TrAlgorithm::Egm, "egm"),
];

/// The CLI `--algo` spelling of each strategy.
pub fn algo_name(algo: TrAlgorithm) -> &'static str {
    ALGO_NAMES[algo as usize].1
}

/// Computes `Tr(H)` with the planner-selected backend.
///
/// This is the preferred general entry point: identical output to every
/// explicit backend (canonical edge order, same minimal-transversal set),
/// with the engine chosen from the instance's shape.
pub fn dualize(h: &Hypergraph) -> Hypergraph {
    crate::transversals_with(h, TrAlgorithm::Auto)
}

/// Runs `algo` on `min(H)` with `threads` workers (`0` = available
/// parallelism) under `ctl`'s budget and observer, and reports what ran:
/// the planner decision (for a forced backend, the rule is `"forced"`)
/// plus engine counters where the backend collects them.
///
/// [`TrAlgorithm::Auto`] resolves through [`plan`]. A forced levelwise run
/// whose Corollary 15 precondition fails falls back to the planner's
/// choice. Every engine records its node/candidate evaluations as oracle
/// queries and each emitted minimal transversal as a transversal event,
/// so `max_queries`, `max_transversals`, and the deadline bound any
/// strategy. On a trip the
/// partial result is a genuine subset of `Tr(H)` for MU-MMCS, joint
/// generation, and levelwise; for Berge it is `Tr` of the processed edge
/// prefix, and for EGM the minimized union of the completed sub-results.
/// Outputs are bit-identical across backends and thread counts.
pub fn dualize_ctl_report(
    h: &Hypergraph,
    algo: TrAlgorithm,
    threads: usize,
    ctl: &RunCtl<'_>,
) -> (Outcome<Hypergraph>, PlanReport) {
    let hm = h.minimized();
    let shape = shape_of(&hm);
    let forced = |backend| PlanDecision {
        backend,
        rule: "forced",
        shape,
    };
    let decision = match algo {
        TrAlgorithm::Auto => decide(shape),
        // Outside its regime the planner never picks levelwise, so the
        // fallback is always another backend.
        TrAlgorithm::LevelwiseLargeEdges if !co_sparse(&shape) => forced(decide(shape).backend),
        algo => forced(algo),
    };
    let mut report = PlanReport {
        decision,
        mu: None,
        egm: None,
    };
    let out = match decision.backend {
        TrAlgorithm::Auto => unreachable!("decide() returns a concrete backend"),
        TrAlgorithm::Berge => berge::run(&hm, berge::EdgeOrder::LargestFirst, threads, ctl),
        TrAlgorithm::FkJointGeneration => joint_gen::run(&hm, threads, ctl),
        TrAlgorithm::LevelwiseLargeEdges => levelwise_tr::run(&hm, ctl).map(|(tr, _)| tr),
        TrAlgorithm::MuMmcs => {
            let (out, mu) = mu_mmcs::run(&hm, threads, ctl);
            report.mu = Some(mu);
            out
        }
        TrAlgorithm::Egm => {
            let (out, eg) = egm::run(&hm, threads, ctl);
            report.mu = Some(eg.leaf);
            report.egm = Some(eg);
            out
        }
    };
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use dualminer_obs::{Meter, NoopObserver};
    use rand::{rngs::StdRng, SeedableRng};

    fn tr_threads(h: &Hypergraph, algo: TrAlgorithm, threads: usize) -> Hypergraph {
        let meter = Meter::unlimited();
        let ctl = RunCtl::new(&meter, &NoopObserver);
        dualize_ctl_report(h, algo, threads, &ctl)
            .0
            .expect_complete()
    }

    #[test]
    fn trivial_and_constants() {
        assert_eq!(plan(&Hypergraph::empty(5)).rule, "trivial");
        let falsum = Hypergraph::from_index_edges(3, [Vec::<usize>::new()]);
        assert_eq!(plan(&falsum).rule, "trivial");
        assert_eq!(dualize(&Hypergraph::empty(5)).len(), 1);
        assert!(dualize(&falsum).is_empty());
    }

    #[test]
    fn rules_fire_on_their_classes() {
        let mut rng = StdRng::seed_from_u64(17);
        let co = generators::co_sparse(16, 2, 8, &mut rng);
        assert_eq!(plan(&co).backend, TrAlgorithm::LevelwiseLargeEdges);

        let matching = generators::matching(40);
        assert_eq!(plan(&matching).backend, TrAlgorithm::Berge);
        assert_eq!(plan(&matching).rule, "matching");

        let hub = generators::hub(24, 1, 30, 3, &mut rng);
        let d = plan(&hub);
        assert!(
            matches!(d.backend, TrAlgorithm::Egm | TrAlgorithm::MuMmcs),
            "{d:?}"
        );

        let dense = generators::random_uniform(20, 40, 3..=5, &mut rng);
        assert_eq!(plan(&dense).backend, TrAlgorithm::MuMmcs);
    }

    #[test]
    fn auto_matches_berge_across_classes() {
        let mut rng = StdRng::seed_from_u64(23);
        let instances = vec![
            generators::matching(16),
            generators::threshold(7, 3),
            generators::cycle(9),
            generators::co_sparse(12, 2, 6, &mut rng),
            generators::hub(16, 2, 20, 3, &mut rng),
            generators::planted_transversal(14, 3, 18, 3, &mut rng),
            generators::random_uniform(12, 16, 2..=4, &mut rng),
        ];
        for h in instances {
            assert_eq!(dualize(&h), berge::transversals(&h), "{h:?}");
            for threads in [2, 8] {
                assert_eq!(
                    tr_threads(&h, TrAlgorithm::Auto, threads),
                    berge::transversals(&h)
                );
            }
        }
    }

    #[test]
    fn forced_levelwise_falls_back_through_planner() {
        // Dense, small edges: levelwise precondition fails; the fallback
        // must agree with Berge and report a concrete executed backend.
        let mut rng = StdRng::seed_from_u64(29);
        let h = generators::random_uniform(16, 20, 2..=4, &mut rng);
        let meter = Meter::unlimited();
        let ctl = RunCtl::new(&meter, &NoopObserver);
        let (out, report) = dualize_ctl_report(&h, TrAlgorithm::LevelwiseLargeEdges, 1, &ctl);
        assert_eq!(out.expect_complete(), berge::transversals(&h));
        assert_ne!(report.decision.backend, TrAlgorithm::LevelwiseLargeEdges);
    }

    #[test]
    fn forced_and_auto_report_the_minimized_shape() {
        // {A, AB, C}: AB contains A, so min(H) = {A, C} has two edges.
        let h = Hypergraph::from_index_edges(3, [vec![0], vec![0, 1], vec![2]]);
        let meter = Meter::unlimited();
        let ctl = RunCtl::new(&meter, &NoopObserver);
        let (_, auto) = dualize_ctl_report(&h, TrAlgorithm::Auto, 1, &ctl);
        for (algo, _) in ALGO_NAMES {
            let (out, forced) = dualize_ctl_report(&h, algo, 1, &ctl);
            assert_eq!(out.expect_complete(), berge::transversals(&h), "{algo:?}");
            assert_eq!(forced.decision.shape, auto.decision.shape, "{algo:?}");
        }
        assert_eq!(auto.decision.shape.m, 2);
    }

    #[test]
    fn algo_names_follow_declaration_order() {
        // `algo_name` indexes the table by discriminant.
        for (i, &(algo, name)) in ALGO_NAMES.iter().enumerate() {
            assert_eq!(algo as usize, i, "{name}");
            assert_eq!(algo_name(algo), name);
        }
    }

    #[test]
    fn shape_degeneracy_h_index() {
        // Triangle: 3 vertices of degree 2 → h-index 2.
        let t = Hypergraph::from_index_edges(3, [vec![0, 1], vec![1, 2], vec![0, 2]]);
        assert_eq!(shape_of(&t).degeneracy, 2);
    }
}
