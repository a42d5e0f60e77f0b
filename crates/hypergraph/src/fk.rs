//! The Fredman–Khachiyan duality check (algorithm A).
//!
//! Fredman and Khachiyan, *On the complexity of dualization of monotone
//! disjunctive normal forms*, J. Algorithms 21 (1996) — reference \[10\] of
//! the PODS'97 paper. Given two simple hypergraphs `F` and `G` over the
//! same vertex set, decide whether `G = Tr(F)`; equivalently, whether the
//! monotone Boolean functions `f(x) = [x ⊇ some E ∈ F]` and
//! `g(x) = [x ⊇ some T ∈ G]` are **dual**: `g(x) = ¬f(x̄)` for every
//! assignment `x`. When they are not, the algorithm exhibits a **witness**
//! `w` with `f(w) = g(w̄)` — the certificate Dualize-and-Advance converts
//! into a new maximal interesting sentence (see `dualminer-core`).
//!
//! Structure of the check (the paper's algorithm A):
//!
//! 1. Base cases: either side constant, or both sides a single edge.
//! 2. Pairwise intersection: every `T ∈ G` must hit every `E ∈ F`.
//! 3. Probability bound: duality forces `Σ_F 2^{−|E|} + Σ_G 2^{−|T|} ≥ 1`;
//!    when the sum is smaller a witness is extracted deterministically by
//!    the method of conditional expectations.
//! 4. Otherwise some variable occurs with frequency ≥ 1/log(|F|+|G|) on
//!    one side; split on it and recurse on the two derived pairs
//!    `(f₁, g₀)` and `(f₀, g₁)` — duality holds iff it holds for both.
//!
//! The recursion eliminates one variable per level, so it always
//! terminates; with the frequency-based split the running time is
//! `(|F|+|G|)^{O(log²(|F|+|G|))}` — the quasi-polynomial bound the paper's
//! Corollaries 22 and 29 quote as `t(n) = n^{o(log n)}`-class behaviour.

use std::sync::atomic::{AtomicBool, Ordering};

use dualminer_bitset::AttrSet;
use dualminer_obs::{BudgetReason, Meter, NoopObserver, Outcome, RunCtl};

use crate::{minimize_family, Hypergraph};

/// Statistics from one duality check, for the scaling experiments (E11).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FkStats {
    /// Number of recursive self-calls (including the root).
    pub calls: u64,
    /// Deepest recursion level reached (root = 1).
    pub max_depth: u32,
}

/// Checks whether `g = Tr(f)` (equivalently, the associated monotone
/// functions are dual). Returns `None` when dual, otherwise a witness `w`
/// with `f(w) = g(complement(w))`.
///
/// Inputs are minimized internally, so non-antichain families are accepted.
///
/// # Panics
/// Panics if the two hypergraphs have different universe sizes.
pub fn duality_witness(f: &Hypergraph, g: &Hypergraph) -> Option<AttrSet> {
    duality_witness_counted_par(f, g, 1).0
}

/// Minimum combined family size (`|F| + |G|`) of a frequency split before
/// its two recursive sub-problems are evaluated on separate threads.
/// Below it, spawn overhead dwarfs the sub-problem cost.
pub const FK_PAR_CUTOFF: usize = 16;

/// [`duality_witness`] plus recursion statistics, with the two
/// sub-problems of each frequency split evaluated on separate scoped
/// threads while a thread budget remains (`threads` ≥ 2 halves down the
/// recursion; `0` = available parallelism; `1` = sequential) and the
/// split is big enough ([`FK_PAR_CUTOFF`]).
///
/// Both the *witness* and the [`FkStats`] are bit-identical to the
/// sequential check for every input and thread count (DESIGN §6). The
/// second branch of a fork runs speculatively; when the first branch
/// yields a witness the sibling is cancelled cooperatively and its
/// counters are discarded, reproducing the sequential short-circuit
/// exactly — a cancelled subtree's statistics are only ever merged into
/// totals that are themselves discarded.
pub fn duality_witness_counted_par(
    f: &Hypergraph,
    g: &Hypergraph,
    threads: usize,
) -> (Option<AttrSet>, FkStats) {
    let meter = Meter::unlimited();
    duality_witness_counted_par_ctl(f, g, threads, &RunCtl::new(&meter, &NoopObserver))
        .expect_complete()
}

/// [`duality_witness_counted_par`] under a budget and an observer.
///
/// Each recursive call records one oracle query on `ctl.meter` and one
/// [`dualminer_obs::MiningObserver::on_fk_calls`] event; the budget is
/// polled at every call entry, so a tripped deadline/query limit aborts
/// the recursion cooperatively. On a trip the verdict is *undetermined*:
/// the partial value carries `None` for the witness and the statistics
/// accumulated so far, under [`Outcome::BudgetExceeded`] so it cannot be
/// mistaken for a completed "dual" verdict. Observer `on_fk_calls`
/// events count *all* work performed, including speculatively evaluated
/// sibling branches; the returned [`FkStats`] remain
/// sequential-equivalent.
pub fn duality_witness_counted_par_ctl(
    f: &Hypergraph,
    g: &Hypergraph,
    threads: usize,
    ctl: &RunCtl<'_>,
) -> Outcome<(Option<AttrSet>, FkStats)> {
    assert_eq!(
        f.universe_size(),
        g.universe_size(),
        "duality check requires a common universe"
    );
    let mut stats = FkStats::default();
    let tripped = AtomicBool::new(false);
    let ctx = Ctx {
        ctl,
        tripped: &tripped,
    };
    let w = check(
        f.universe_size(),
        f.minimized().edges().to_vec(),
        g.minimized().edges().to_vec(),
        1,
        dualminer_parallel::effective_threads(threads),
        &mut stats,
        &ctx,
        None,
    );
    if tripped.load(Ordering::Relaxed) {
        let reason = ctl.meter.exceeded().unwrap_or(BudgetReason::Cancelled);
        return Outcome::BudgetExceeded {
            partial: (w, stats),
            reason,
        };
    }
    if let Some(ref w) = w {
        debug_assert!(
            eval(f.minimized().edges(), w) == eval(g.minimized().edges(), &w.complement()),
            "FK produced an invalid witness"
        );
    }
    Outcome::Complete((w, stats))
}

/// Convenience wrapper: `true` iff `g = Tr(f)`.
pub fn are_dual(f: &Hypergraph, g: &Hypergraph) -> bool {
    duality_witness(f, g).is_none()
}

/// Whether `h` is self-dual: `Tr(h) = min(h)`.
pub fn is_self_dual(h: &Hypergraph) -> bool {
    let m = h.minimized();
    are_dual(&m, &m)
}

/// `f(x)` for the monotone function of an edge family: does `x` contain an
/// edge?
#[inline]
fn eval(edges: &[AttrSet], x: &AttrSet) -> bool {
    edges.iter().any(|e| e.is_subset(x))
}

/// Shared recursion context: the run control handle plus the sticky
/// "budget tripped somewhere in the tree" flag.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    ctl: &'a RunCtl<'a>,
    tripped: &'a AtomicBool,
}

/// Cooperative cancellation chain for speculative sibling branches. Each
/// fork gives its second branch a fresh flag linked to the enclosing
/// chain, so a subtree observes both its own sibling's win and any
/// ancestor's: the flag of *every* enclosing fork whose first branch
/// found a witness.
struct SiblingCancel<'a> {
    flag: &'a AtomicBool,
    parent: Option<&'a SiblingCancel<'a>>,
}

impl SiblingCancel<'_> {
    fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.parent.is_some_and(|p| p.is_cancelled())
    }
}

/// Core recursion. `f` and `g` are minimal antichains over universe `n`;
/// `threads` is the remaining fork budget (1 = fully sequential).
/// Returns `None` iff the pair is dual.
///
/// Early exits (a cancelled speculative sibling, or a tripped budget)
/// return `None` *before* counting the call, so the counters a caller
/// keeps are exactly the sequential ones: a sibling is only cancelled
/// when the first branch's witness makes the fork discard the sibling's
/// counters anyway, and a budget trip downgrades the whole run to
/// [`Outcome::BudgetExceeded`], which makes no determinism claim.
#[allow(clippy::too_many_arguments)]
fn check(
    n: usize,
    f: Vec<AttrSet>,
    g: Vec<AttrSet>,
    depth: u32,
    threads: usize,
    stats: &mut FkStats,
    ctx: &Ctx<'_>,
    cancel: Option<&SiblingCancel<'_>>,
) -> Option<AttrSet> {
    if cancel.is_some_and(|c| c.is_cancelled()) {
        // Speculative branch whose result the winning sibling discards.
        return None;
    }
    if ctx.ctl.meter.exceeded().is_some() {
        ctx.tripped.store(true, Ordering::Relaxed);
        return None;
    }
    ctx.ctl.meter.record_query();
    ctx.ctl.observer.on_fk_calls(1);
    stats.calls += 1;
    stats.max_depth = stats.max_depth.max(depth);

    // --- constant sides ---------------------------------------------------
    if f.is_empty() {
        // f ≡ 0; dual iff g ≡ 1, i.e. G = {∅}.
        if g.len() == 1 && g[0].is_empty() {
            return None;
        }
        // Find y with g(y) = 0 and return w = ȳ (then f(w) = 0 = g(w̄)).
        let y = unsatisfying_assignment(n, &g);
        return Some(y.complement());
    }
    if f.len() == 1 && f[0].is_empty() {
        // f ≡ 1; dual iff g ≡ 0.
        if g.is_empty() {
            return None;
        }
        // w = complement of any G-edge: f(w) = 1, g(w̄) = g(T) = 1.
        return Some(g[0].complement());
    }
    if g.is_empty() {
        // g ≡ 0; dual iff f ≡ 1 — already excluded, so not dual.
        // Find w with f(w) = 0: then f(w) = 0 = g(w̄).
        return Some(unsatisfying_assignment(n, &f));
    }
    if g.len() == 1 && g[0].is_empty() {
        // g ≡ 1; dual iff f ≡ 0 — already excluded, so not dual.
        // w = any F-edge: f(w) = 1 = g(w̄).
        return Some(f[0].clone());
    }

    // --- pairwise intersection --------------------------------------------
    // Duality forces every transversal candidate to hit every edge; a
    // disjoint pair (E, T) yields the witness w = E: f(E) = 1 and
    // T ⊆ complement(E) gives g(Ē) = 1.
    for e in &f {
        for t in &g {
            if e.is_disjoint(t) {
                return Some(e.clone());
            }
        }
    }

    // --- single-edge pair --------------------------------------------------
    if f.len() == 1 && g.len() == 1 {
        let (e, t) = (&f[0], &g[0]);
        // Tr({E}) is the set of singletons of E, so duality needs
        // E = T = {v}. All witnesses below satisfy f(w) = 0 = g(w̄).
        return if !e.is_subset(t) {
            // v ∈ E \ T: w = E \ {v} misses E, and T ∩ w ⊇ T ∩ E ≠ ∅.
            let v = e.difference(t).first().expect("nonempty difference");
            let mut w = e.clone();
            w.remove(v);
            Some(w)
        } else if e.is_proper_subset(t) {
            // t ∈ T \ E: w = {t} misses E (E ∩ (T\E) = ∅) and hits T.
            let v = t.difference(e).first().expect("proper superset");
            Some(AttrSet::singleton(n, v))
        } else if e.len() == 1 {
            None // E = T = {v}: dual.
        } else {
            // E = T, |E| ≥ 2: w = {v} misses E and hits T.
            Some(AttrSet::singleton(n, e.first().expect("nonempty edge")))
        };
    }

    // --- probability bound -------------------------------------------------
    let s: f64 = f
        .iter()
        .map(|e| 0.5f64.powi(e.len() as i32))
        .chain(g.iter().map(|t| 0.5f64.powi(t.len() as i32)))
        .sum();
    if s < 1.0 {
        return Some(conditional_expectation_witness(n, &f, &g));
    }

    // --- frequency split ---------------------------------------------------
    let v = most_frequent_variable(n, &f, &g);
    let f0: Vec<AttrSet> = f.iter().filter(|e| !e.contains(v)).cloned().collect();
    let g0: Vec<AttrSet> = g.iter().filter(|t| !t.contains(v)).cloned().collect();
    let f1 = contract(&f, v);
    let g1 = contract(&g, v);

    // dual(f, g) ⟺ dual(f₁, g₀) ∧ dual(f₀, g₁); witnesses lift by fixing v.
    if threads >= 2 && f.len() + g.len() >= FK_PAR_CUTOFF {
        // Fork: the first branch runs authoritatively on the current
        // thread; the second runs speculatively on a worker. When the
        // first branch yields a witness it raises `cancel_b`, the
        // speculative sibling drains cooperatively, and its counters are
        // discarded — exactly what the sequential short-circuit does.
        // The first branch is never cancelled by the second (sequential
        // evaluation always completes it), only by enclosing forks via
        // the inherited `cancel` chain.
        let (ta, tb) = (threads - threads / 2, threads / 2);
        let cancel_b = AtomicBool::new(false);
        let ((wa, sa), (wb, sb)) = dualminer_parallel::join(
            true,
            || {
                let mut s = FkStats::default();
                let w = check(n, f1, g0, depth + 1, ta, &mut s, ctx, cancel);
                if w.is_some() {
                    cancel_b.store(true, Ordering::Relaxed);
                }
                (w, s)
            },
            || {
                let chain = SiblingCancel {
                    flag: &cancel_b,
                    parent: cancel,
                };
                let mut s = FkStats::default();
                let w = check(n, f0, g1, depth + 1, tb, &mut s, ctx, Some(&chain));
                (w, s)
            },
        );
        // Sequential-equivalent counters: the sequential check evaluates
        // the second branch only when the first found no witness.
        stats.calls += sa.calls;
        stats.max_depth = stats.max_depth.max(sa.max_depth);
        if wa.is_none() {
            stats.calls += sb.calls;
            stats.max_depth = stats.max_depth.max(sb.max_depth);
        }
        if let Some(mut w) = wa {
            w.insert(v);
            return Some(w);
        }
        if let Some(mut w) = wb {
            w.remove(v);
            return Some(w);
        }
        return None;
    }
    if let Some(mut w) = check(n, f1, g0, depth + 1, threads, stats, ctx, cancel) {
        w.insert(v);
        return Some(w);
    }
    if let Some(mut w) = check(n, f0, g1, depth + 1, threads, stats, ctx, cancel) {
        w.remove(v);
        return Some(w);
    }
    None
}

/// The restriction `x_v := 1`: drop `v` from every edge, re-minimize.
fn contract(edges: &[AttrSet], v: usize) -> Vec<AttrSet> {
    let stripped = edges
        .iter()
        .map(|e| {
            let mut e = e.clone();
            e.remove(v);
            e
        })
        .collect();
    minimize_family(stripped)
}

/// Builds `y` with no edge of `edges` contained in `y`, assuming no edge is
/// empty: start from the full set and puncture each still-contained edge.
fn unsatisfying_assignment(n: usize, edges: &[AttrSet]) -> AttrSet {
    let mut y = AttrSet::full(n);
    for e in edges {
        if e.is_subset(&y) {
            let v = e.first().expect("constant-true edge handled earlier");
            y.remove(v);
        }
    }
    debug_assert!(!eval(edges, &y));
    y
}

/// The variable with the highest one-sided frequency; FK's analysis
/// guarantees ≥ 1/log(|F|+|G|) when the probability bound holds.
fn most_frequent_variable(n: usize, f: &[AttrSet], g: &[AttrSet]) -> usize {
    let mut count_f = vec![0usize; n];
    let mut count_g = vec![0usize; n];
    for e in f {
        for v in e {
            count_f[v] += 1;
        }
    }
    for t in g {
        for v in t {
            count_g[v] += 1;
        }
    }
    let (flen, glen) = (f.len() as f64, g.len() as f64);
    (0..n)
        .map(|v| {
            let freq = (count_f[v] as f64 / flen).max(count_g[v] as f64 / glen);
            (v, freq)
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(v, _)| v)
        .expect("nonempty universe: both families have nonempty edges")
}

/// Derandomized witness when `Σ 2^{−|E|} + Σ 2^{−|T|} < 1`: the method of
/// conditional expectations finds `x` with no `E ⊆ x` and no `T ⊆ x̄`, so
/// `f(x) = 0 = g(x̄)`.
fn conditional_expectation_witness(n: usize, f: &[AttrSet], g: &[AttrSet]) -> AttrSet {
    // Per-edge state: alive + number of unassigned variables remaining.
    struct EdgeState {
        alive: bool,
        remaining: u32,
    }
    let mut fs: Vec<EdgeState> = f
        .iter()
        .map(|e| EdgeState {
            alive: true,
            remaining: e.len() as u32,
        })
        .collect();
    let mut gs: Vec<EdgeState> = g
        .iter()
        .map(|t| EdgeState {
            alive: true,
            remaining: t.len() as u32,
        })
        .collect();

    let mut relevant = AttrSet::empty(n);
    for e in f.iter().chain(g.iter()) {
        relevant.union_with(e);
    }

    let weight = |st: &EdgeState, delta: i32| -> f64 {
        if st.alive {
            0.5f64.powi(st.remaining as i32 + delta)
        } else {
            0.0
        }
    };

    let mut x = AttrSet::empty(n);
    for v in relevant.iter() {
        // Expected violations if x_v = 1: F-edges with v get closer to
        // being contained in x; G-edges with v die (can't be ⊆ x̄).
        let mut if_one = 0.0f64;
        let mut if_zero = 0.0f64;
        for (st, e) in fs.iter().zip(f) {
            if e.contains(v) {
                if_one += weight(st, -1);
                // x_v = 0 kills E.
            } else {
                if_one += weight(st, 0);
                if_zero += weight(st, 0);
            }
        }
        for (st, t) in gs.iter().zip(g) {
            if t.contains(v) {
                if_zero += weight(st, -1);
                // x_v = 1 kills T.
            } else {
                if_one += weight(st, 0);
                if_zero += weight(st, 0);
            }
        }
        let set_one = if_one <= if_zero;
        if set_one {
            x.insert(v);
        }
        for (st, e) in fs.iter_mut().zip(f) {
            if e.contains(v) {
                if set_one {
                    // A live edge never reaches remaining = 0: it would
                    // contribute a full violation (weight 1) to an
                    // expectation the greedy keeps below 1.
                    st.remaining -= 1;
                } else {
                    st.alive = false;
                }
            }
        }
        for (st, t) in gs.iter_mut().zip(g) {
            if t.contains(v) {
                if set_one {
                    st.alive = false;
                } else {
                    st.remaining -= 1;
                }
            }
        }
    }
    assert!(
        !eval(f, &x) && !eval(g, &x.complement()),
        "conditional expectation failed — probability precondition violated"
    );
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::berge;

    fn h(n: usize, edges: &[&[usize]]) -> Hypergraph {
        Hypergraph::from_index_edges(n, edges.iter().map(|e| e.to_vec()))
    }

    #[test]
    fn constants() {
        let zero = Hypergraph::empty(3);
        let one = h(3, &[&[]]);
        assert!(are_dual(&zero, &one));
        assert!(are_dual(&one, &zero));
        assert!(!are_dual(&zero, &zero));
        assert!(!are_dual(&one, &one));
    }

    #[test]
    fn singleton_pair() {
        let f = h(3, &[&[1]]);
        assert!(are_dual(&f, &f));
        let g = h(3, &[&[0]]);
        assert!(!are_dual(&f, &g));
    }

    #[test]
    fn paper_example_8_duality() {
        // Tr({D, AC}) = {AD, CD} over ABCD.
        let f = h(4, &[&[3], &[0, 2]]);
        let g = h(4, &[&[0, 3], &[2, 3]]);
        assert!(are_dual(&f, &g));
        assert!(are_dual(&g, &f));
    }

    #[test]
    fn triangle_self_dual() {
        let t = h(3, &[&[0, 1], &[1, 2], &[0, 2]]);
        assert!(is_self_dual(&t));
    }

    #[test]
    fn witness_on_incomplete_g() {
        let f = h(4, &[&[3], &[0, 2]]);
        // G missing the transversal CD.
        let g = h(4, &[&[0, 3]]);
        let w = duality_witness(&f, &g).expect("not dual");
        let fv = eval(f.edges(), &w);
        let gv = eval(g.edges(), &w.complement());
        assert_eq!(fv, gv);
    }

    #[test]
    fn witness_on_overfull_g() {
        let f = h(4, &[&[3], &[0, 2]]);
        // G with a non-transversal extra edge.
        let g = h(4, &[&[0, 3], &[2, 3], &[1, 2]]);
        let w = duality_witness(&f, &g).expect("not dual");
        assert_eq!(eval(f.edges(), &w), eval(g.edges(), &w.complement()));
    }

    #[test]
    fn agrees_with_berge_on_random_instances() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..60 {
            let n = rng.gen_range(3..9);
            let m = rng.gen_range(1..6);
            let edges: Vec<Vec<usize>> = (0..m)
                .map(|_| {
                    let k = rng.gen_range(1..=n.min(4));
                    (0..k).map(|_| rng.gen_range(0..n)).collect()
                })
                .collect();
            let hg = Hypergraph::from_index_edges(n, edges).minimized();
            let tr = berge::transversals(&hg);
            assert!(are_dual(&hg, &tr), "true dual rejected: {hg:?} {tr:?}");
            // Perturbed pair must be rejected with a valid witness.
            if !tr.is_empty() {
                let mut broken = tr.edges().to_vec();
                broken.pop();
                let gb = Hypergraph::from_edges(n, broken).unwrap();
                if let Some(w) = duality_witness(&hg, &gb) {
                    assert_eq!(
                        eval(hg.edges(), &w),
                        eval(gb.edges(), &w.complement()),
                        "invalid witness for {hg:?} vs {gb:?}"
                    );
                } else {
                    // Removing one transversal may still leave a dual pair
                    // only if Tr was a singleton covering... it cannot:
                    panic!("broken pair accepted as dual");
                }
            }
        }
    }

    #[test]
    fn stats_count_calls() {
        let f = h(6, &[&[0, 1], &[2, 3], &[4, 5]]);
        let tr = berge::transversals(&f);
        let (w, stats) = duality_witness_counted_par(&f, &tr, 1);
        assert!(w.is_none());
        assert!(stats.calls >= 1);
        assert!(stats.max_depth >= 1);
    }

    #[test]
    fn parallel_matches_sequential() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(55);
        for _ in 0..30 {
            let n: usize = rng.gen_range(3..10);
            let m = rng.gen_range(1..8);
            let edges: Vec<Vec<usize>> = (0..m)
                .map(|_| {
                    let k = rng.gen_range(1..=n.min(4));
                    (0..k).map(|_| rng.gen_range(0..n)).collect()
                })
                .collect();
            let hg = Hypergraph::from_index_edges(n, edges).minimized();
            let tr = berge::transversals(&hg);
            for threads in [0, 2, 4] {
                // Dual pair: same verdict AND same stats.
                let (w_seq, s_seq) = duality_witness_counted_par(&hg, &tr, 1);
                let (w_par, s_par) = duality_witness_counted_par(&hg, &tr, threads);
                assert_eq!(w_seq, w_par, "{hg:?} threads={threads}");
                assert_eq!(s_seq, s_par, "{hg:?} threads={threads}");
                // Broken (non-dual) pair: identical witness AND identical
                // stats — the speculative sibling's counters are dropped
                // whenever the sequential check would have short-circuited
                // it (DESIGN §6 determinism invariant).
                if !tr.is_empty() {
                    let mut broken = tr.edges().to_vec();
                    broken.pop();
                    let gb = Hypergraph::from_edges(n, broken).unwrap();
                    assert_eq!(
                        duality_witness_counted_par(&hg, &gb, 1),
                        duality_witness_counted_par(&hg, &gb, threads),
                        "{hg:?} vs {gb:?} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_on_wide_self_dual_instance() {
        // A matching is big enough to cross FK_PAR_CUTOFF: Tr has 2^(n/2)
        // edges, so |F| + |G| = k + 2^k with k pairs.
        let k = 5;
        let f = Hypergraph::from_index_edges(2 * k, (0..k).map(|i| vec![2 * i, 2 * i + 1]));
        let tr = berge::transversals(&f);
        assert!(f.len() + tr.len() >= FK_PAR_CUTOFF);
        for threads in [1, 2, 4, 8] {
            let (w, _) = duality_witness_counted_par(&f, &tr, threads);
            assert!(w.is_none(), "threads={threads}");
        }
        let mut broken = tr.edges().to_vec();
        broken.pop();
        let gb = Hypergraph::from_edges(2 * k, broken).unwrap();
        let seq = duality_witness_counted_par(&f, &gb, 1);
        for threads in [2, 4, 8] {
            assert_eq!(
                seq,
                duality_witness_counted_par(&f, &gb, threads),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn budget_trips_and_reports_undetermined() {
        use dualminer_obs::{Budget, BudgetReason, Outcome, RunCtl, StatsCollector};
        // A matching instance big enough that the recursion needs far
        // more than 2 calls.
        let k = 6;
        let f = Hypergraph::from_index_edges(2 * k, (0..k).map(|i| vec![2 * i, 2 * i + 1]));
        let tr = berge::transversals(&f);
        let budget = Budget {
            max_queries: Some(2),
            ..Budget::default()
        };
        let meter = budget.start();
        let collector = StatsCollector::new();
        let ctl = RunCtl::new(&meter, &collector);
        match duality_witness_counted_par_ctl(&f, &tr, 1, &ctl) {
            Outcome::BudgetExceeded { partial, reason } => {
                assert_eq!(reason, BudgetReason::MaxQueries);
                assert!(partial.1.calls <= 2, "stopped early: {:?}", partial.1);
            }
            Outcome::Complete(_) => panic!("2-query budget cannot complete this instance"),
        }
        assert!(meter.queries() >= 2);
        assert!(collector.fk_calls() >= 1);
    }

    #[test]
    fn unlimited_ctl_matches_plain_run() {
        use dualminer_obs::{Meter, NoopObserver, RunCtl};
        let f = h(6, &[&[0, 1], &[2, 3], &[4, 5]]);
        let tr = berge::transversals(&f);
        let meter = Meter::unlimited();
        let ctl = RunCtl::new(&meter, &NoopObserver);
        let out = duality_witness_counted_par_ctl(&f, &tr, 2, &ctl).expect_complete();
        assert_eq!(out, duality_witness_counted_par(&f, &tr, 1));
        // Every recursive call is metered as one oracle query.
        assert_eq!(meter.queries(), out.1.calls);
    }

    #[test]
    fn disjoint_pair_witness() {
        let f = h(4, &[&[0]]);
        let g = h(4, &[&[1], &[0]]);
        let w = duality_witness(&f, &g).expect("not dual");
        assert_eq!(eval(f.edges(), &w), eval(g.edges(), &w.complement()));
    }
}
