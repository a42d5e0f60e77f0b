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
//!   (uncovered split, hit set, new critical set, undo pairs), and search
//!   counters accumulate in plain locals flushed to the shared cells once
//!   per task — the recursion itself performs no heap allocation and no
//!   atomic traffic once warmed up (for `m ≤ 128` the edge bitsets are
//!   inline and allocation-free by construction).
//!
//! Outputs are bit-identical to every other engine: the emitted family is
//! canonicalized by [`Hypergraph::from_edges`], so the degree renaming and
//! the parallel frontier order never show in the result.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use dualminer_bitset::AttrSet;
use dualminer_obs::{BudgetReason, Outcome, RunCtl};

use crate::{Hypergraph, TrAlgorithm};

/// Search counters for one MU-MMCS run, for stats surfaces and planner
/// diagnostics. All counters are schedule-invariant on complete runs: the
/// set of visited nodes does not depend on the thread count.
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
    /// Critical edges restored while unwinding (equals `crit_removals`
    /// on complete sequential runs; frontier hand-off skips some undos).
    pub crit_restores: u64,
}

/// Computes `Tr(H)` with MU-MMCS.
pub fn transversals(h: &Hypergraph) -> Hypergraph {
    crate::transversals_with(h, TrAlgorithm::MuMmcs)
}

/// The MU-MMCS engine over a minimized hypergraph `hm`, reporting the
/// run's [`MuStats`].
///
/// With `threads > 1` (`0` = available parallelism) the top of the branch
/// tree is expanded into a frontier of owned subtrees explored on scoped
/// worker threads; outputs concatenate in frontier (= DFS) order, so the
/// result is bit-identical for every thread count. One query is recorded
/// per DFS node and one transversal per emission, with the budget polled
/// at every node; a tripped run's partial result is a genuine subset of
/// `Tr(H)`.
pub(crate) fn run(
    hm: &Hypergraph,
    threads: usize,
    ctl: &RunCtl<'_>,
) -> (Outcome<Hypergraph>, MuStats) {
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
    for (ei, e) in edges.iter().enumerate() {
        for v in e.iter() {
            vert_edges[v].insert(ei);
        }
    }

    let state = Search {
        edges,
        vert_edges,
        n,
        m,
        ctl: *ctl,
        tripped: AtomicBool::new(false),
        stats: CounterCells::default(),
    };
    let root = Node {
        s: AttrSet::empty(n),
        cand: state.relevant_vertices(),
        uncov: AttrSet::full(m),
        crit_any: AttrSet::empty(m),
        owner: vec![0usize; m],
        crit_count: vec![0u32; n],
    };

    let threads = dualminer_parallel::effective_threads(threads);
    let out: Vec<AttrSet> = if threads <= 1 {
        let mut out = Vec::new();
        state.run_from(root, &mut out);
        out
    } else {
        // Frontier expansion: expand leftmost until every worker can be
        // fed, workers run the sequential recursion on owned subtrees,
        // outputs concatenate in frontier (= DFS) order.
        let target = threads * 4;
        let mut budget = target * 8;
        let mut frontier: Vec<Task> = vec![Task::Explore(root)];
        loop {
            let explore_count = frontier
                .iter()
                .filter(|t| matches!(t, Task::Explore(_)))
                .count();
            if explore_count == 0 || explore_count >= target || budget == 0 {
                break;
            }
            budget -= 1;
            let Some(pos) = frontier.iter().position(|t| matches!(t, Task::Explore(_))) else {
                break;
            };
            let Task::Explore(node) = frontier.remove(pos) else {
                unreachable!("position() matched an Explore task");
            };
            let children = state.expand(node);
            frontier.splice(pos..pos, children);
        }
        dualminer_parallel::par_map(threads, &frontier, |_, task| match task {
            Task::Emit(t) => {
                let mut local = LocalStats::default();
                self_emit(&state, &mut local);
                state.stats.add(&local);
                vec![t.clone()]
            }
            Task::Explore(node) => {
                let mut local = Vec::new();
                state.run_from(node.clone(), &mut local);
                local
            }
        })
        .concat()
    };

    // Map renamed vertices back to the caller's numbering.
    let out = out
        .into_iter()
        .map(|s| AttrSet::from_indices(n, s.iter().map(|v| perm[v])))
        .collect();
    let stats = state.stats.snapshot();
    (
        state.outcome(Hypergraph::from_edges(n, out).expect("in universe")),
        stats,
    )
}

/// Emission accounting shared by the worker closure (free function so the
/// closure does not capture a second `&Search` borrow path).
fn self_emit(state: &Search<'_>, local: &mut LocalStats) {
    state.ctl.meter.record_transversal();
    state.ctl.observer.on_transversals(1);
    local.emitted += 1;
}

/// One independent unit of work for the parallel frontier.
enum Task {
    Emit(AttrSet),
    Explore(Node),
}

/// A self-contained DFS node in renamed vertex space. `uncov` and
/// `crit_any` are bitsets over the edge universe `{0, …, m−1}`;
/// `owner[ei]` names the unique `S`-member hitting edge `ei` while
/// `ei ∈ crit_any`, and `crit_count[w] = |crit(w)|` for `w ∈ S`.
#[derive(Clone)]
struct Node {
    s: AttrSet,
    cand: AttrSet,
    uncov: AttrSet,
    crit_any: AttrSet,
    owner: Vec<usize>,
    crit_count: Vec<u32>,
}

/// Shared atomic counter cells. Workers accumulate in plain
/// [`LocalStats`] and flush once per task, so the DFS hot loop performs no
/// atomic traffic; totals are schedule-invariant because the visited node
/// set is.
#[derive(Default)]
struct CounterCells {
    nodes: AtomicU64,
    emitted: AtomicU64,
    minimality_prunes: AtomicU64,
    dead_branches: AtomicU64,
    crit_removals: AtomicU64,
    crit_restores: AtomicU64,
}

/// Per-task plain counters (no atomics in the recursion).
#[derive(Default)]
struct LocalStats {
    nodes: u64,
    emitted: u64,
    minimality_prunes: u64,
    dead_branches: u64,
    crit_removals: u64,
    crit_restores: u64,
}

impl CounterCells {
    fn add(&self, l: &LocalStats) {
        self.nodes.fetch_add(l.nodes, Ordering::Relaxed);
        self.emitted.fetch_add(l.emitted, Ordering::Relaxed);
        self.minimality_prunes
            .fetch_add(l.minimality_prunes, Ordering::Relaxed);
        self.dead_branches
            .fetch_add(l.dead_branches, Ordering::Relaxed);
        self.crit_removals
            .fetch_add(l.crit_removals, Ordering::Relaxed);
        self.crit_restores
            .fetch_add(l.crit_restores, Ordering::Relaxed);
    }

    fn snapshot(&self) -> MuStats {
        MuStats {
            nodes: self.nodes.load(Ordering::Relaxed),
            emitted: self.emitted.load(Ordering::Relaxed),
            minimality_prunes: self.minimality_prunes.load(Ordering::Relaxed),
            dead_branches: self.dead_branches.load(Ordering::Relaxed),
            crit_removals: self.crit_removals.load(Ordering::Relaxed),
            crit_restores: self.crit_restores.load(Ordering::Relaxed),
        }
    }
}

struct Search<'a> {
    edges: Vec<AttrSet>,
    /// `vert_edges[v]` = bitset of edge indices containing `v`.
    vert_edges: Vec<AttrSet>,
    n: usize,
    m: usize,
    ctl: RunCtl<'a>,
    tripped: AtomicBool,
    stats: CounterCells,
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
    fn enter_node(&self, local: &mut LocalStats) -> bool {
        if self.ctl.meter.exceeded().is_some() {
            self.tripped.store(true, Ordering::Relaxed);
            return false;
        }
        self.ctl.meter.record_query();
        self.ctl.observer.on_nodes(1);
        local.nodes += 1;
        true
    }

    fn outcome(&self, h: Hypergraph) -> Outcome<Hypergraph> {
        if self.tripped.load(Ordering::Relaxed) {
            Outcome::BudgetExceeded {
                partial: h,
                reason: self.ctl.meter.exceeded().unwrap_or(BudgetReason::Cancelled),
            }
        } else {
            Outcome::Complete(h)
        }
    }

    fn relevant_vertices(&self) -> AttrSet {
        let mut v = AttrSet::empty(self.n);
        for e in &self.edges {
            v.union_with(e);
        }
        v
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

    /// Runs the sequential recursion from an owned node state.
    fn run_from(&self, node: Node, out: &mut Vec<AttrSet>) {
        let Node {
            mut s,
            cand,
            uncov,
            mut crit_any,
            mut owner,
            mut crit_count,
        } = node;
        // One frame per DFS depth, sized up front: every branching level
        // grows `s` by one vertex, so `n + 1` frames always suffice and
        // the recursion itself never allocates (DESIGN.md §9).
        let mut frames: Vec<Frame> = (0..=self.n).map(|_| Frame::fresh(self.m)).collect();
        let mut local = LocalStats::default();
        self.recurse(
            &mut s,
            cand,
            &uncov,
            &mut crit_any,
            &mut owner,
            &mut crit_count,
            &mut frames,
            out,
            &mut local,
        );
        self.stats.add(&local);
    }

    /// Expands one node into its ordered children — the same branching step
    /// as [`Search::recurse`] but producing owned child states; child order
    /// equals the recursion's visit order.
    fn expand(&self, node: Node) -> Vec<Task> {
        let mut local = LocalStats::default();
        let entered = self.enter_node(&mut local);
        if !entered {
            self.stats.add(&local);
            return Vec::new();
        }
        let Node {
            s,
            mut cand,
            uncov,
            crit_any,
            owner,
            crit_count,
        } = node;
        let Some(pick) = self.pick_edge(&uncov, &cand) else {
            self.stats.add(&local);
            return vec![Task::Emit(s)];
        };
        let branch = self.edges[pick].intersection(&cand);
        if branch.is_empty() {
            local.dead_branches += 1;
            self.stats.add(&local);
            return Vec::new();
        }
        cand.difference_with(&branch);

        let mut children: Vec<Task> = Vec::new();
        for v in branch.iter() {
            let ve = &self.vert_edges[v];
            let hit = crit_any.intersection(ve);
            let mut child_count = crit_count.clone();
            let mut still_minimal = true;
            for ei in hit.iter() {
                local.crit_removals += 1;
                let w = owner[ei];
                child_count[w] -= 1;
                if child_count[w] == 0 {
                    still_minimal = false;
                    break;
                }
            }
            if still_minimal {
                let mut child_s = s.clone();
                child_s.insert(v);
                let new_crit = uncov.intersection(ve);
                let mut child_owner = owner.clone();
                for ei in new_crit.iter() {
                    child_owner[ei] = v;
                }
                child_count[v] = new_crit.len() as u32;
                let mut child_any = crit_any.difference(ve);
                child_any.union_with(&new_crit);
                children.push(Task::Explore(Node {
                    s: child_s,
                    cand: cand.clone(),
                    uncov: uncov.difference(ve),
                    crit_any: child_any,
                    owner: child_owner,
                    crit_count: child_count,
                }));
            } else {
                local.minimality_prunes += 1;
            }
            // v becomes available again for deeper levels of later
            // siblings (the MMCS re-insertion step).
            cand.insert(v);
        }
        self.stats.add(&local);
        children
    }

    #[allow(clippy::too_many_arguments)]
    fn recurse(
        &self,
        s: &mut AttrSet,
        mut cand: AttrSet,
        uncov: &AttrSet,
        crit_any: &mut AttrSet,
        owner: &mut [usize],
        crit_count: &mut [u32],
        frames: &mut [Frame],
        out: &mut Vec<AttrSet>,
        local: &mut LocalStats,
    ) {
        if !self.enter_node(local) {
            return;
        }
        let Some(pick) = self.pick_edge(uncov, &cand) else {
            out.push(s.clone());
            self.ctl.meter.record_transversal();
            self.ctl.observer.on_transversals(1);
            local.emitted += 1;
            return;
        };
        let branch = self.edges[pick].intersection(&cand);
        if branch.is_empty() {
            local.dead_branches += 1;
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
                local.crit_removals += 1;
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
                s.insert(v);
                self.recurse(
                    s,
                    cand.clone(),
                    &frame.new_uncov,
                    crit_any,
                    owner,
                    crit_count,
                    deeper,
                    out,
                    local,
                );
                s.remove(v);
                // Undo the commit. Owners of restored edges are intact:
                // an edge in the undo log is covered ≥ 2 below v, so no
                // deeper level ever re-owned it.
                crit_any.difference_with(&frame.new_crit);
                crit_count[v] = 0;
                for (ei, w) in frame.pairs.drain(..) {
                    local.crit_restores += 1;
                    crit_any.insert(ei);
                    crit_count[w] += 1;
                }
            } else {
                local.minimality_prunes += 1;
                // Only counters were touched; hand the decrements back.
                for (ei, w) in frame.pairs.drain(..) {
                    let _ = ei;
                    local.crit_restores += 1;
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
    fn parallel_matches_sequential() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(321);
        for _ in 0..25 {
            let n: usize = rng.gen_range(3..10);
            let m = rng.gen_range(0..8);
            let edges: Vec<Vec<usize>> = (0..m)
                .map(|_| {
                    let k = rng.gen_range(1..=n.min(4));
                    (0..k).map(|_| rng.gen_range(0..n)).collect()
                })
                .collect();
            let h = Hypergraph::from_index_edges(n, edges);
            let hm = h.minimized();
            let seq = transversals(&h);
            for threads in [0, 2, 3, 8] {
                let meter = Meter::unlimited();
                let ctl = RunCtl::new(&meter, &NoopObserver);
                assert_eq!(
                    run(&hm, threads, &ctl).0.expect_complete(),
                    seq,
                    "{h:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn stats_balance_on_sequential_runs() {
        let h = generators::threshold(8, 4);
        let meter = Meter::unlimited();
        let ctl = RunCtl::new(&meter, &NoopObserver);
        let (out, stats) = run(&h, 1, &ctl);
        assert_eq!(out.expect_complete(), berge::transversals(&h));
        assert!(stats.nodes > 0);
        assert_eq!(stats.emitted as usize, berge::transversals(&h).len());
        assert_eq!(stats.crit_removals, stats.crit_restores);
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
        match run(&h, 1, &ctl).0 {
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
