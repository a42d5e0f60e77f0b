//! MU-MMCS: MMCS depth-first minimal-hitting-set enumeration with the
//! Murakami–Uno refinements (arXiv 1102.3813, *Efficient algorithms for
//! dualizing large-scale hypergraphs*).
//!
//! MMCS grows a partial hitting set `S` one vertex at a time: branch on
//! the vertices of one uncovered edge, keep a branch only while every
//! `w ∈ S` still has a *critical* edge (one hit by `w` alone), and emit
//! `S` when nothing is uncovered. The per-node bookkeeping is organized
//! the way Murakami & Uno describe so the minimality check
//! costs `O(‖F‖)` *amortized* — proportional to the edges whose critical
//! status actually changes, not to `|S|` times anything:
//!
//! * **Edge-index bitsets.** `uncov` (edges not yet hit) and `crit_any`
//!   (edges critical for *some* `w ∈ S`) are bitsets over the edge universe
//!   `{0, …, m−1}`. With `vert_edges[v]` = the precomputed bitset of edges
//!   containing `v`, tentatively adding `v` is word-parallel arithmetic:
//!   `crit(v) = uncov ∩ vert_edges[v]`, `uncov′ = uncov ∖ vert_edges[v]`,
//!   and the edges leaving criticality are exactly `crit_any ∩
//!   vert_edges[v]`.
//! * **Critical-owner array.** A critical edge has exactly one `S`-member;
//!   `owner[ei]` records it. Processing a removal is then a constant-time
//!   counter decrement — `crit_count[owner[ei]] -= 1`, with an emptied
//!   count being the Murakami–Uno minimality prune — and the undo log is a
//!   flat list of `(edge, owner)` index pairs. No per-`w` scan, no
//!   materialized per-`w` bitsets.
//! * **Vertex ordering.** Vertices are renamed in descending degree before
//!   the search (their ordering rule): high-degree vertices come first in
//!   every branch list, so the deepest subtrees are entered with the most
//!   edges already covered.
//! * **Edge pruning.** The branch edge is the uncovered edge with the
//!   fewest remaining candidates (fail-first, stopping the scan early at
//!   ≤ 1 — nothing can beat a forced or dead edge), and a branch whose
//!   candidate intersection is empty is cut immediately; both counters are
//!   reported in [`MuStats`].
//! * **Allocation-free hot loop.** A depth-indexed pool of `Frame`s
//!   (DESIGN.md §9), sized up front, holds one set of buffers per DFS depth
//!   (uncovered split, hit set, new critical set, undo pairs) — the
//!   recursion itself performs no heap allocation once warmed up (for
//!   `m ≤ 128` the edge bitsets are inline and allocation-free by
//!   construction).
//!
//! The search is one depth-first recursion on the calling thread, so the
//! emission order, the counters and a budgeted run's partial result are
//! the same at every thread count. Outputs are bit-identical to every
//! other engine: the emitted family is canonicalized by
//! [`Hypergraph::from_edges`], so the degree renaming never shows in the
//! result.

use dualminer_bitset::AttrSet;
use dualminer_obs::{BudgetReason, Outcome, RunCtl};

use crate::{Hypergraph, TrAlgorithm};

/// Search counters for one MU-MMCS run, for stats surfaces and planner
/// diagnostics. The search runs on the calling thread, so every counter
/// is the same at every thread count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MuStats {
    /// DFS nodes entered (= oracle queries recorded on the meter).
    pub nodes: u64,
    /// Minimal transversals emitted.
    pub emitted: u64,
    /// Branch vertices rejected because some `crit(w)` emptied — the
    /// Murakami–Uno minimality prune.
    pub minimality_prunes: u64,
    /// Nodes abandoned because the picked uncovered edge had no remaining
    /// candidate vertex.
    pub dead_branches: u64,
    /// Critical edges moved out of some `crit(w)` while descending.
    pub crit_removals: u64,
    /// Critical edges restored while unwinding. Every removal is undone,
    /// so this equals `crit_removals`.
    pub crit_restores: u64,
}

/// Computes `Tr(H)` with MU-MMCS.
pub fn transversals(h: &Hypergraph) -> Hypergraph {
    crate::transversals_with(h, TrAlgorithm::MuMmcs)
}

/// The MU-MMCS engine over a minimized hypergraph `hm`, reporting the
/// run's [`MuStats`].
///
/// One query is recorded per DFS node and one transversal per emission,
/// with the budget polled at every node; a tripped run's partial result
/// is the depth-first prefix of the emissions, a genuine subset of
/// `Tr(H)`.
pub(crate) fn run(hm: &Hypergraph, ctl: &RunCtl<'_>) -> (Outcome<Hypergraph>, MuStats) {
    debug_assert!(hm.is_minimized());
    let n = hm.universe_size();
    if hm.is_empty() {
        return (
            Outcome::Complete(
                Hypergraph::from_edges(n, vec![AttrSet::empty(n)]).expect("in universe"),
            ),
            MuStats::default(),
        );
    }
    if hm.edges().iter().any(|e| e.is_empty()) {
        return (Outcome::Complete(Hypergraph::empty(n)), MuStats::default());
    }

    // Murakami–Uno vertex ordering: rename vertices so that index 0 is the
    // highest-degree vertex. The search runs entirely in renamed space;
    // emissions are mapped back through `perm` before canonicalization.
    let degrees = hm.degrees();
    let mut perm: Vec<usize> = (0..n).collect();
    perm.sort_by_key(|&v| (std::cmp::Reverse(degrees[v]), v));
    let mut rank = vec![0usize; n];
    for (new, &old) in perm.iter().enumerate() {
        rank[old] = new;
    }
    let edges: Vec<AttrSet> = hm
        .edges()
        .iter()
        .map(|e| AttrSet::from_indices(n, e.iter().map(|v| rank[v])))
        .collect();
    let m = edges.len();
    let mut vert_edges = vec![AttrSet::empty(m); n];
    let mut cand = AttrSet::empty(n);
    for (ei, e) in edges.iter().enumerate() {
        cand.union_with(e);
        for v in e.iter() {
            vert_edges[v].insert(ei);
        }
    }

    let mut search = Search {
        edges,
        vert_edges,
        ctl: *ctl,
        s: AttrSet::empty(n),
        out: Vec::new(),
        stats: MuStats::default(),
        tripped: false,
    };
    // One frame per DFS depth, sized up front: every branching level
    // grows `s` by one vertex, so `n + 1` frames always suffice and the
    // recursion itself never allocates (DESIGN.md §9).
    let mut frames: Vec<Frame> = (0..=n).map(|_| Frame::fresh(m)).collect();
    search.recurse(
        cand,
        &AttrSet::full(m),
        &mut AttrSet::empty(m),
        &mut vec![0usize; m],
        &mut vec![0u32; n],
        &mut frames,
    );

    // Map renamed vertices back to the caller's numbering.
    let out = search
        .out
        .iter()
        .map(|s| AttrSet::from_indices(n, s.iter().map(|v| perm[v])))
        .collect();
    let result = Hypergraph::from_edges(n, out).expect("in universe");
    let outcome = if search.tripped {
        Outcome::BudgetExceeded {
            partial: result,
            reason: ctl.meter.exceeded().unwrap_or(BudgetReason::Cancelled),
        }
    } else {
        Outcome::Complete(result)
    };
    (outcome, search.stats)
}

/// The search's fixed instance (renamed edges and their vertex index) and
/// its running state: the partial hitting set `S`, the emissions so far,
/// the counters and whether the budget tripped.
struct Search<'a> {
    edges: Vec<AttrSet>,
    /// `vert_edges[v]` = bitset of edge indices containing `v`.
    vert_edges: Vec<AttrSet>,
    ctl: RunCtl<'a>,
    s: AttrSet,
    out: Vec<AttrSet>,
    stats: MuStats,
    tripped: bool,
}

/// One depth's worth of reusable buffers: the uncovered-edge split, the
/// hit set (edges leaving criticality), the new critical set of the branch
/// vertex, and the flat `(edge, owner)` undo log.
struct Frame {
    new_uncov: AttrSet,
    hit: AttrSet,
    new_crit: AttrSet,
    pairs: Vec<(usize, usize)>,
}

impl Frame {
    fn fresh(m: usize) -> Frame {
        Frame {
            new_uncov: AttrSet::empty(m),
            hit: AttrSet::empty(m),
            new_crit: AttrSet::empty(m),
            pairs: Vec::new(),
        }
    }
}

impl Search<'_> {
    /// Accounts one DFS node (query + observer event); `false` when the
    /// budget has tripped and the search should unwind.
    fn enter_node(&mut self) -> bool {
        if self.ctl.meter.exceeded().is_some() {
            self.tripped = true;
            return false;
        }
        self.ctl.meter.record_query();
        self.ctl.observer.on_nodes(1);
        self.stats.nodes += 1;
        true
    }

    /// Picks the uncovered edge with the fewest remaining candidates
    /// (fail-first edge selection). Stops scanning at a width of ≤ 1:
    /// a dead edge (0) or a forced vertex (1) cannot be improved on.
    fn pick_edge(&self, uncov: &AttrSet, cand: &AttrSet) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None;
        for ei in uncov.iter() {
            let w = self.edges[ei].intersection_len(cand);
            match best {
                Some((bw, _)) if bw <= w => {}
                _ => best = Some((w, ei)),
            }
            if w <= 1 {
                break;
            }
        }
        best.map(|(_, ei)| ei)
    }

    /// One DFS node: `crit_any` holds the edges critical for some
    /// `w ∈ S`, `owner[ei]` names the unique `S`-member hitting a
    /// critical edge `ei`, and `crit_count[w] = |crit(w)|` for `w ∈ S`.
    /// All three are restored before returning.
    fn recurse(
        &mut self,
        mut cand: AttrSet,
        uncov: &AttrSet,
        crit_any: &mut AttrSet,
        owner: &mut [usize],
        crit_count: &mut [u32],
        frames: &mut [Frame],
    ) {
        if !self.enter_node() {
            return;
        }
        let Some(pick) = self.pick_edge(uncov, &cand) else {
            self.out.push(self.s.clone());
            self.ctl.meter.record_transversal();
            self.ctl.observer.on_transversals(1);
            self.stats.emitted += 1;
            return;
        };
        let branch = self.edges[pick].intersection(&cand);
        if branch.is_empty() {
            self.stats.dead_branches += 1;
            return;
        }
        cand.difference_with(&branch);

        // This depth's frame splits off the pool; deeper levels use the
        // rest of the slice, so the frame's buffers survive the recursive
        // call untouched and nothing is ever moved or reallocated.
        let (frame, deeper) = frames
            .split_first_mut()
            .expect("frame pool sized to max branching depth");
        for v in branch.iter() {
            let ve = &self.vert_edges[v];
            // Edges leaving criticality are exactly crit_any ∩ ve; each is
            // a constant-time counter decrement through its owner, logged
            // as an index pair for the O(‖F‖)-amortized undo.
            crit_any.intersection_into(ve, &mut frame.hit);
            let mut still_minimal = true;
            for ei in frame.hit.iter() {
                self.stats.crit_removals += 1;
                let w = owner[ei];
                frame.pairs.push((ei, w));
                crit_count[w] -= 1;
                if crit_count[w] == 0 {
                    still_minimal = false;
                    break;
                }
            }

            if still_minimal {
                // Commit v: crit(v) = uncov ∩ ve seeds owners and count,
                // uncov′ = uncov ∖ ve, crit_any swaps hit for crit(v).
                uncov.intersection_into(ve, &mut frame.new_crit);
                for ei in frame.new_crit.iter() {
                    owner[ei] = v;
                }
                crit_count[v] = frame.new_crit.len() as u32;
                crit_any.difference_with(ve);
                crit_any.union_with(&frame.new_crit);
                uncov.difference_into(ve, &mut frame.new_uncov);
                self.s.insert(v);
                self.recurse(
                    cand.clone(),
                    &frame.new_uncov,
                    crit_any,
                    owner,
                    crit_count,
                    deeper,
                );
                self.s.remove(v);
                // Undo the commit. Owners of restored edges are intact:
                // an edge in the undo log is covered ≥ 2 below v, so no
                // deeper level ever re-owned it.
                crit_any.difference_with(&frame.new_crit);
                crit_count[v] = 0;
                for (ei, w) in frame.pairs.drain(..) {
                    self.stats.crit_restores += 1;
                    crit_any.insert(ei);
                    crit_count[w] += 1;
                }
            } else {
                self.stats.minimality_prunes += 1;
                // Only counters were touched; hand the decrements back.
                for (_, w) in frame.pairs.drain(..) {
                    self.stats.crit_restores += 1;
                    crit_count[w] += 1;
                }
            }
            // v becomes available again for deeper levels of later
            // siblings (the MMCS re-insertion step).
            cand.insert(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn paper_example_8() {
        let h = Hypergraph::from_index_edges(4, [vec![3], vec![0, 2]]);
        assert_eq!(transversals(&h), berge::transversals(&h));
    }

    #[test]
    fn matching_triangle_threshold() {
        let m = generators::matching(12);
        assert_eq!(transversals(&m).len(), 64);
        let t = Hypergraph::from_index_edges(3, [vec![0, 1], vec![1, 2], vec![0, 2]]);
        assert_eq!(transversals(&t), t);
        let th = generators::threshold(7, 3);
        assert_eq!(transversals(&th), berge::transversals(&th));
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4242);
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
    fn matches_berge_past_inline_edge_universe() {
        // m > 128 forces spilled edge bitsets: exercise the pooled path.
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let h = generators::random_uniform(24, 150, 3..=5, &mut rng);
        assert_eq!(transversals(&h), berge::transversals(&h));
    }

    #[test]
    fn stats_balance_on_sequential_runs() {
        // Through the dispatcher at several thread counts: the search runs
        // on the calling thread, so the counters are identical and every
        // critical-edge removal is undone.
        let h = generators::threshold(8, 4);
        let expected = berge::transversals(&h);
        let run_at = |threads: usize| {
            let meter = Meter::unlimited();
            let ctl = RunCtl::new(&meter, &NoopObserver);
            let (out, report) =
                crate::plan::dualize_ctl_report(&h, TrAlgorithm::MuMmcs, threads, &ctl);
            assert_eq!(out.expect_complete(), expected, "threads={threads}");
            report.mu.expect("MU-MMCS reports its counters")
        };
        let stats = run_at(1);
        assert!(stats.nodes > 0);
        assert_eq!(stats.emitted as usize, expected.len());
        assert_eq!(stats.crit_removals, stats.crit_restores);
        for threads in [2, 4] {
            assert_eq!(run_at(threads), stats, "threads={threads}");
        }
    }

    #[test]
    fn budget_trips_to_partial_subset() {
        let h = generators::matching(16);
        let meter = dualminer_obs::Budget {
            max_queries: Some(40),
            ..Default::default()
        }
        .start();
        let ctl = RunCtl::new(&meter, &NoopObserver);
        match run(&h, &ctl).0 {
            Outcome::BudgetExceeded { partial, .. } => {
                let full = berge::transversals(&h);
                for t in partial.edges() {
                    assert!(full.contains_edge(t));
                }
            }
            Outcome::Complete(_) => panic!("40-query budget should trip on matching(16)"),
        }
    }
}
