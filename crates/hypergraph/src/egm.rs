//! EGM-style decomposition (Eiter–Gottlob–Makino, arXiv cs/0204009, *New
//! results on monotone dualization and generating hypergraph transversals*).
//!
//! Their structural theme: split the dualization on a carefully chosen
//! vertex, solve the two smaller instances, and recombine. For a vertex `v`
//! the exact identity (both inclusions are elementary) is
//!
//! ```text
//! Tr(H) = min( Tr(H′)  ∪  { T ∪ {v} : T ∈ Tr(H_v̄) } )
//!   H′  = { E ∖ {v} : E ∈ H }      (transversals avoiding v must hit these)
//!   H_v̄ = { E ∈ H : v ∉ E }        (transversals through v must still hit these)
//! ```
//!
//! If some edge is exactly `{v}`, `H′` contains the empty edge and the
//! v-avoiding branch contributes nothing; if `v` lies in every edge,
//! `H_v̄ = ∅` and the v-branch contributes `{v}` itself. Splitting on the
//! **highest-degree** vertex makes `H_v̄` as small as possible — on skewed,
//! hub-dominated instances the two sub-problems are each far smaller than
//! `H`, which is exactly the class where the depth-first engines churn.
//!
//! The recursion splits while the instance is both large and skewed
//! (see [`SPLIT_MIN_EDGES`]/[`SPLIT_MIN_DEGREE_FRACTION`]), bottoming out
//! in the MU-MMCS engine; sub-results are recombined with
//! [`crate::minimize_family`], whose card-lex canonical order makes the
//! final result bit-identical to every other backend.

use dualminer_bitset::AttrSet;
use dualminer_obs::{Outcome, RunCtl};

use crate::{minimize_family, mu_mmcs, Hypergraph, TrAlgorithm};

/// Only split instances with at least this many edges; below it the
/// decomposition overhead (two sub-runs plus a re-minimization) outweighs
/// any pruning it buys.
const SPLIT_MIN_EDGES: usize = 12;

/// Only split when the maximum vertex degree is at least this fraction of
/// the edge count — the hub must actually dominate for `H_v̄` to shrink.
const SPLIT_MIN_DEGREE_FRACTION: f64 = 0.4;

/// Cap on the split recursion depth; past it the leaves go straight to
/// MU-MMCS regardless of shape.
const MAX_SPLIT_DEPTH: usize = 6;

/// Counters for one EGM run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EgmStats {
    /// Vertex splits performed.
    pub splits: u64,
    /// Leaf sub-instances handed to MU-MMCS.
    pub leaves: u64,
    /// Aggregated MU-MMCS counters across all leaves.
    pub leaf: mu_mmcs::MuStats,
}

/// Computes `Tr(H)` by EGM decomposition.
pub fn transversals(h: &Hypergraph) -> Hypergraph {
    crate::transversals_with(h, TrAlgorithm::Egm)
}

/// The EGM engine over a minimized hypergraph `hm`, reporting the run's
/// [`EgmStats`]. Leaf sub-searches run MU-MMCS on up to `threads` scoped
/// worker threads (`0` = available parallelism); the decomposition tree
/// itself is walked sequentially — determinism comes for free and the
/// leaves carry virtually all the work.
///
/// Each split records one oracle query on `ctl.meter`; leaves account like
/// [`mu_mmcs::run`]. **Partial-result caveat** (same class as Berge): when
/// the budget trips mid-decomposition the returned family is the minimized
/// union of whatever sub-results completed — its members need not be
/// transversals of `H`, so treat it as a diagnostic, not a prefix of
/// `Tr(H)`.
pub(crate) fn run(
    hm: &Hypergraph,
    threads: usize,
    ctl: &RunCtl<'_>,
) -> (Outcome<Hypergraph>, EgmStats) {
    debug_assert!(hm.is_minimized());
    let n = hm.universe_size();
    let mut stats = EgmStats::default();
    let mut tripped = false;
    let edges = recurse(
        n,
        hm.edges().to_vec(),
        0,
        threads,
        ctl,
        &mut stats,
        &mut tripped,
    );
    let result = Hypergraph::from_edges(n, edges).expect("in universe");
    if tripped {
        (
            Outcome::BudgetExceeded {
                partial: result,
                reason: ctl
                    .meter
                    .exceeded()
                    .unwrap_or(dualminer_obs::BudgetReason::Cancelled),
            },
            stats,
        )
    } else {
        (Outcome::Complete(result), stats)
    }
}

/// Whether this (already minimized) edge family should be split rather than
/// handed to the leaf engine.
fn should_split(n: usize, edges: &[AttrSet], depth: usize) -> Option<usize> {
    if depth >= MAX_SPLIT_DEPTH || edges.len() < SPLIT_MIN_EDGES {
        return None;
    }
    let mut deg = vec![0usize; n];
    for e in edges {
        for v in e.iter() {
            deg[v] += 1;
        }
    }
    let (v, &best) = deg
        .iter()
        .enumerate()
        .max_by_key(|&(v, &d)| (d, std::cmp::Reverse(v)))?;
    // A hub in *every* edge splits into (H′ minus nothing useful, ∅): the
    // v-branch is trivial and H′ barely shrinks, so only the degree window
    // (dominant but not universal) is worth the recombination cost.
    if best == edges.len() {
        return None;
    }
    if (best as f64) < SPLIT_MIN_DEGREE_FRACTION * edges.len() as f64 {
        return None;
    }
    Some(v)
}

fn recurse(
    n: usize,
    edges: Vec<AttrSet>,
    depth: usize,
    threads: usize,
    ctl: &RunCtl<'_>,
    stats: &mut EgmStats,
    tripped: &mut bool,
) -> Vec<AttrSet> {
    if *tripped {
        return Vec::new();
    }
    let Some(v) = should_split(n, &edges, depth) else {
        stats.leaves += 1;
        // Every sub-family is an antichain already: the root is min(H),
        // the v̄-branch is re-minimized below, and the v-branch keeps a
        // subset of an antichain.
        let leaf = Hypergraph::from_edges(n, edges).expect("in universe");
        let (out, leaf_stats) = mu_mmcs::run(&leaf, threads, ctl);
        stats.leaf.nodes += leaf_stats.nodes;
        stats.leaf.emitted += leaf_stats.emitted;
        stats.leaf.minimality_prunes += leaf_stats.minimality_prunes;
        stats.leaf.dead_branches += leaf_stats.dead_branches;
        stats.leaf.crit_removals += leaf_stats.crit_removals;
        stats.leaf.crit_restores += leaf_stats.crit_restores;
        return match out {
            Outcome::Complete(tr) => tr.edges().to_vec(),
            Outcome::BudgetExceeded { partial, .. } => {
                *tripped = true;
                partial.edges().to_vec()
            }
        };
    };

    if ctl.meter.exceeded().is_some() {
        *tripped = true;
        return Vec::new();
    }
    ctl.meter.record_query();
    ctl.observer.on_nodes(1);
    stats.splits += 1;

    // Branch 1: transversals avoiding v hit every E ∖ {v}. An edge equal
    // to {v} leaves an empty edge behind — that branch has no transversals.
    let mut without_v: Vec<AttrSet> = Vec::with_capacity(edges.len());
    let mut v_branch_alive = true;
    for e in &edges {
        let mut r = e.clone();
        r.remove(v);
        if r.is_empty() {
            v_branch_alive = false;
            break;
        }
        without_v.push(r);
    }
    let mut combined: Vec<AttrSet> = Vec::new();
    if v_branch_alive {
        let sub = minimize_family(without_v);
        combined.extend(recurse(n, sub, depth + 1, threads, ctl, stats, tripped));
    }

    // Branch 2: transversals through v still hit the edges missing v
    // (Tr(∅) = {∅} when v covers everything, contributing {v} itself).
    let avoiding: Vec<AttrSet> = edges.iter().filter(|e| !e.contains(v)).cloned().collect();
    if avoiding.is_empty() {
        combined.push(AttrSet::singleton(n, v));
    } else {
        for mut t in recurse(n, avoiding, depth + 1, threads, ctl, stats, tripped) {
            t.insert(v);
            combined.push(t);
        }
    }

    minimize_family(combined)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::dualize_ctl_report;
    use crate::{berge, generators, naive};
    use dualminer_obs::{Meter, NoopObserver};

    #[test]
    fn constants() {
        let tr = transversals(&Hypergraph::empty(3));
        assert_eq!(tr.len(), 1);
        assert!(tr.edges()[0].is_empty());
        let falsum = Hypergraph::from_index_edges(3, [Vec::<usize>::new()]);
        assert!(transversals(&falsum).is_empty());
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(808);
        for _ in 0..60 {
            let n = rng.gen_range(3..9);
            let m = rng.gen_range(0..7);
            let edges: Vec<Vec<usize>> = (0..m)
                .map(|_| {
                    let k = rng.gen_range(1..=n.min(4));
                    (0..k).map(|_| rng.gen_range(0..n)).collect()
                })
                .collect();
            let h = Hypergraph::from_index_edges(n, edges);
            assert_eq!(transversals(&h), naive::transversals(&h), "{h:?}");
        }
    }

    #[test]
    fn splits_on_hub_instances_and_agrees() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let h = generators::hub(20, 2, 24, 3, &mut rng);
        let meter = Meter::unlimited();
        let ctl = RunCtl::new(&meter, &NoopObserver);
        let (out, report) = dualize_ctl_report(&h, TrAlgorithm::Egm, 1, &ctl);
        let stats = report.egm.expect("EGM reports its counters");
        assert_eq!(out.expect_complete(), berge::transversals(&h));
        assert!(stats.splits > 0, "hub instance must trigger a split");
        assert!(stats.leaves > stats.splits);
    }

    #[test]
    fn parallel_matches_sequential() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(6);
        let h = generators::hub(18, 3, 20, 3, &mut rng);
        let seq = transversals(&h);
        for threads in [0, 2, 8] {
            let meter = Meter::unlimited();
            let ctl = RunCtl::new(&meter, &NoopObserver);
            let par = dualize_ctl_report(&h, TrAlgorithm::Egm, threads, &ctl).0;
            assert_eq!(par.expect_complete(), seq, "threads={threads}");
        }
    }

    #[test]
    fn threshold_vertex_in_every_edge() {
        // threshold(5, 1): every edge is a singleton — degenerate shapes.
        let h = generators::threshold(5, 2);
        assert_eq!(transversals(&h), berge::transversals(&h));
    }
}
