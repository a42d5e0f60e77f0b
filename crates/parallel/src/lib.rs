//! # dualminer-parallel
//!
//! Deterministic claim-cursor scheduler for the workspace's one parallel
//! hot path: the levelwise walk's support counting ([`par_map`] over a
//! level's candidates, [`par_fill`] over its tid slab). Every
//! transversal engine runs on the calling thread.
//!
//! Design constraints (DESIGN.md §6/§13: std threads suffice — no external
//! dependencies, `forbid(unsafe_code)`):
//!
//! * **Determinism.** Every combinator returns results in the *input
//!   order* of the work items, regardless of which worker ran which item.
//!   Callers that merge per-item outputs by simple concatenation therefore
//!   produce output bit-identical to the sequential loop at every thread
//!   count.
//! * **Zero-cost opt-out.** `threads == 1` (or fewer than two work items)
//!   runs the plain sequential loop on the calling thread — no spawns —
//!   so sequential entry points can delegate to the parallel ones without
//!   a performance tax.
//! * **`threads == 0` means auto:** [`effective_threads`] resolves 0 to
//!   [`std::thread::available_parallelism`].
//!
//! Scheduling is one shared `AtomicUsize` **claim cursor**: each of
//! `threads` workers — the calling thread and `threads − 1` scoped
//! threads, since a spawn costs more on a small VM than the caller's
//! share of the work — repeatedly claims the next
//! `max(1, len / (threads * 8))` items until the cursor passes the end.
//! About eight claims per worker let fast workers take over the share of
//! a worker stuck on expensive items (a candidate's cost follows the tid
//! lists it intersects, and a worker can be descheduled) without a cost
//! model. Each claim returns its
//! start index with its results, and the roughly `threads * 8` claims are
//! sorted by start and concatenated into exactly the sequential order.
//!
//! The scheduler keeps a process-global claim counter
//! ([`scheduler_stats`]) which the CLI surfaces in its `--stats json`
//! artifact and the bench harness stamps into its JSON lines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// A cooperative early-exit signal shared by the workers of one parallel
/// batch: when one worker hits a terminal condition (e.g. a permanent
/// oracle fault in the levelwise walk), it raises the
/// flag and siblings skip their remaining items instead of burning work
/// — and, under injected latency, wall-clock — on a doomed level.
///
/// This is purely an optimization signal: results for items evaluated
/// before the raise are still returned in item order, so callers that
/// resolve conflicts in *sequential* order (first error wins) stay
/// deterministic regardless of which worker raised first.
#[derive(Debug, Default)]
pub struct AbortFlag {
    raised: AtomicBool,
}

impl AbortFlag {
    /// A lowered flag.
    pub fn new() -> AbortFlag {
        AbortFlag::default()
    }

    /// Signals siblings to stop picking up new items.
    #[inline]
    pub fn raise(&self) {
        self.raised.store(true, Ordering::Relaxed);
    }

    /// Whether some worker has raised the flag.
    #[inline]
    pub fn is_set(&self) -> bool {
        self.raised.load(Ordering::Relaxed)
    }
}

/// Resolves a `threads` knob: `0` becomes the machine's available
/// parallelism (at least 1), any other value is used as given.
pub fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

// ---------------------------------------------------------------------------
// Scheduler statistics
// ---------------------------------------------------------------------------

static TOTAL_TASKS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-global scheduler counters: claims executed.
/// Counters are cumulative since process start or the last
/// [`reset_scheduler_stats`]; they are observability only and never
/// influence scheduling decisions or output.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Claims executed: one per claimed range at threads > 1, one per
    /// non-empty batch on the sequential path.
    pub tasks: u64,
    /// Always 0: the claim cursor never steals. Kept so readers of the
    /// old work-stealing counter still compile.
    pub steals: u64,
}

/// Snapshots the global scheduler counters.
pub fn scheduler_stats() -> SchedStats {
    SchedStats {
        tasks: TOTAL_TASKS.load(Ordering::Relaxed),
        steals: 0,
    }
}

/// Zeroes the global scheduler counters (benchmarks isolate runs with
/// this).
pub fn reset_scheduler_stats() {
    TOTAL_TASKS.store(0, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// The claim cursor
// ---------------------------------------------------------------------------

/// Items per claim: about eight claims per worker, at least one item.
fn claim_len(len: usize, threads: usize) -> usize {
    (len / (threads * 8)).max(1)
}

/// Maps `f` over `items` on up to `threads` workers, returning the
/// results **in item order**.
///
/// `f` receives `(item_index, &item)`. Workers claim contiguous ranges
/// of `max(1, len / (threads * 8))` items from one shared cursor;
/// determinism comes from re-assembling the claims by start index, not
/// from the schedule. With `threads <= 1` or fewer than two items this is
/// a plain sequential `map` on the calling thread.
pub fn par_map<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let threads = effective_threads(threads).min(items.len());
    if threads <= 1 {
        if !items.is_empty() {
            TOTAL_TASKS.fetch_add(1, Ordering::Relaxed);
        }
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let len = items.len();
    let claim = claim_len(len, threads);
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut claims: Vec<(usize, Vec<R>)> = Vec::new();
        loop {
            let start = cursor.fetch_add(claim, Ordering::Relaxed);
            if start >= len {
                break;
            }
            let stop = (start + claim).min(len);
            let out = items[start..stop]
                .iter()
                .enumerate()
                .map(|(i, item)| f(start + i, item))
                .collect();
            claims.push((start, out));
        }
        TOTAL_TASKS.fetch_add(claims.len() as u64, Ordering::Relaxed);
        claims
    };
    let mut claims: Vec<(usize, Vec<R>)> = thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
        let mut claims = worker();
        for h in handles {
            claims.extend(h.join().expect("parallel worker panicked"));
        }
        claims
    });
    // Claims partition `0..len`, so ordering them by start reproduces the
    // sequential order exactly — the determinism contract every caller
    // builds on.
    claims.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(len);
    for (_, mut run) in claims {
        out.append(&mut run);
    }
    debug_assert_eq!(out.len(), len);
    out
}

/// Writes `out` in place, `stride` items at a time, on up to `threads`
/// workers: `f(k, slice)` fills `out[k * stride..(k + 1) *
/// stride]`. Workers claim contiguous ranges of `max(1, len / (threads *
/// 8))` slices, as [`par_map`] does; the slices are disjoint, so the
/// result is the sequential loop's whatever the schedule. A zero
/// `stride` writes nothing.
pub fn par_fill<T: Send>(
    threads: usize,
    out: &mut [T],
    stride: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    if stride == 0 || out.is_empty() {
        return;
    }
    let len = out.len() / stride;
    let fill = |first: usize, chunk: &mut [T]| {
        for (k, slice) in chunk.chunks_mut(stride).enumerate() {
            f(first + k, slice);
        }
    };
    let threads = effective_threads(threads).min(len);
    if threads <= 1 {
        TOTAL_TASKS.fetch_add(1, Ordering::Relaxed);
        fill(0, out);
        return;
    }
    let claim = claim_len(len, threads);
    let claims = Mutex::new(out.chunks_mut(claim * stride).enumerate());
    let worker = || {
        let mut done = 0;
        loop {
            let next = claims.lock().expect("claim cursor poisoned").next();
            let Some((c, chunk)) = next else { break };
            fill(c * claim, chunk);
            done += 1;
        }
        TOTAL_TASKS.fetch_add(done, Ordering::Relaxed);
    };
    thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(worker);
        }
        worker();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn effective_threads_resolves_zero() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..997).collect();
        for threads in [1, 2, 3, 8] {
            let out = par_map(threads, &items, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_order_crosses_claim_boundaries() {
        // Lengths straddle the claim size `len / (threads * 8)` and the
        // one-item-per-claim floor; every result must match the
        // sequential map.
        for len in [0, 1, 2, 15, 16, 17, 63, 64, 65, 997] {
            let items: Vec<usize> = (0..len).collect();
            let expected: Vec<usize> = items.iter().map(|x| x * 7 + 1).collect();
            for threads in [2, 3, 8] {
                let out = par_map(threads, &items, |i, &x| {
                    assert_eq!(i, x);
                    x * 7 + 1
                });
                assert_eq!(out, expected, "len={len} threads={threads}");
            }
        }
    }

    #[test]
    fn par_map_runs_on_multiple_threads() {
        let items: Vec<usize> = (0..64).collect();
        let seen = Mutex::new(HashSet::new());
        par_map(4, &items, |_, _| {
            // Slow the items down a little so the scheduler actually
            // spreads them; thread-id collection proves multi-threading
            // (on a single-core box all four workers still exist).
            std::thread::sleep(std::time::Duration::from_micros(100));
            seen.lock().unwrap().insert(std::thread::current().id());
        });
        assert!(seen.lock().unwrap().len() >= 2);
    }

    #[test]
    fn par_map_empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(4, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn skewed_item_stays_ordered() {
        // One giant item among many tiny ones — the adversarial shape for
        // static splitting. The worker that claims item 0 stalls; the
        // others claim the rest, and the merge must still be in item
        // order.
        let items: Vec<usize> = (0..256).collect();
        let out = par_map(4, &items, |i, &x| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x + 1
        });
        assert_eq!(out, (1..=256).collect::<Vec<_>>());
    }

    #[test]
    fn scheduler_counters_accumulate() {
        // Sibling tests run concurrently and also bump the global
        // counters, so every assertion here is a monotone lower bound.
        reset_scheduler_stats();
        let items: Vec<usize> = (0..512).collect();
        let _ = par_map(4, &items, |_, &x| x);
        let stats = scheduler_stats();
        // 512 items at 4 threads claim 16 at a time: 32 claims.
        let claim = claim_len(items.len(), 4);
        assert_eq!(claim, 16);
        let claims = items.len().div_ceil(claim) as u64;
        assert!(stats.tasks >= claims, "tasks={}", stats.tasks);
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn par_fill_matches_sequential() {
        for (len, stride) in [(0usize, 3usize), (1, 3), (17, 1), (65, 4), (997, 2), (5, 0)] {
            let want: Vec<usize> = (0..len * stride)
                .map(|j| j / stride.max(1) * 10 + j % stride.max(1))
                .collect();
            for threads in [1, 2, 3, 8] {
                let mut out = vec![usize::MAX; len * stride];
                par_fill(threads, &mut out, stride, |k, slice| {
                    assert_eq!(slice.len(), stride);
                    for (d, x) in slice.iter_mut().enumerate() {
                        *x = k * 10 + d;
                    }
                });
                assert_eq!(out, want, "len={len} stride={stride} threads={threads}");
            }
        }
    }

    #[test]
    fn abort_flag_is_sticky_and_shareable() {
        let flag = AbortFlag::new();
        assert!(!flag.is_set());
        let items: Vec<usize> = (0..64).collect();
        let seen = par_map(4, &items, |_, &i| {
            if i == 7 {
                flag.raise();
            }
            flag.is_set()
        });
        assert_eq!(seen.len(), 64);
        assert!(flag.is_set());
        flag.raise(); // idempotent
        assert!(flag.is_set());
    }
}
