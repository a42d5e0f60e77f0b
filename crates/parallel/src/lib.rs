//! # dualminer-parallel
//!
//! Deterministic work-stealing scheduler for the workspace's hot paths:
//! levelwise support counting, minimal-transversal branch exploration, and
//! the Fredman–Khachiyan duality-check recursion.
//!
//! Design constraints (DESIGN.md §6/§13: std threads suffice — no external
//! dependencies, `forbid(unsafe_code)`):
//!
//! * **Determinism.** Every combinator returns results in the *input
//!   order* of the work items, regardless of which worker ran which item,
//!   which tasks were stolen, and how ranges were split. Callers that
//!   merge per-item outputs by simple concatenation therefore produce
//!   output bit-identical to the sequential loop at every thread count
//!   and every grain size.
//! * **Zero-cost opt-out.** `threads == 1` (or fewer than two work items)
//!   runs the plain sequential loop on the calling thread — no spawns, no
//!   deques — so sequential entry points can delegate to the parallel
//!   ones without a performance tax.
//! * **`threads == 0` means auto:** [`effective_threads`] resolves 0 to
//!   [`std::thread::available_parallelism`].
//!
//! Scheduling is **work stealing** over per-worker deques of contiguous
//! index ranges (safe Rust: `Mutex<VecDeque>` per worker plus one
//! `Condvar` parker — no Chase-Lev unsafe). Each worker is seeded with one
//! contiguous slice of the items; owners pop from the *back* of their own
//! deque and split oversized ranges in half down to a tunable grain
//! ([`set_default_grain`]), pushing the far halves back where thieves can
//! take them; idle workers steal from the *front* of a victim's deque —
//! the oldest and therefore largest range. Skewed workloads (one giant
//! transversal subtree among many trivial ones) thus rebalance without a
//! cost model, while results re-assemble by item index into exactly the
//! sequential order.
//!
//! The scheduler keeps process-global task/steal/split counters
//! ([`scheduler_stats`]) which the CLI surfaces in its `--stats json`
//! artifact and the bench harness stamps into its JSON lines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// A cooperative early-exit signal shared by the workers of one parallel
/// batch: when one worker hits a terminal condition (e.g. a permanent
/// oracle fault in the fault-tolerant levelwise driver), it raises the
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
// Grain knob
// ---------------------------------------------------------------------------

/// Process-global default task grain: `0` = auto (`len / (threads * 8)`,
/// at least 1). See [`set_default_grain`].
static DEFAULT_GRAIN: AtomicUsize = AtomicUsize::new(0);

/// Sets the scheduler's task grain: ranges are split until at most this
/// many items remain per task. `0` restores the automatic heuristic
/// (`len / (threads * 8)`, clamped to ≥ 1), which keeps roughly eight
/// stealable tasks per worker. The grain is a pure scheduling knob —
/// output is bit-identical for every value (the CLI exposes it as
/// `--grain`).
pub fn set_default_grain(grain: usize) {
    DEFAULT_GRAIN.store(grain, Ordering::Relaxed);
}

/// The current default grain (`0` = auto).
pub fn default_grain() -> usize {
    DEFAULT_GRAIN.load(Ordering::Relaxed)
}

fn resolve_grain(len: usize, threads: usize) -> usize {
    match DEFAULT_GRAIN.load(Ordering::Relaxed) {
        0 => (len / (threads * 8).max(1)).max(1),
        g => g,
    }
}

// ---------------------------------------------------------------------------
// Scheduler statistics
// ---------------------------------------------------------------------------

static TOTAL_TASKS: AtomicU64 = AtomicU64::new(0);
static TOTAL_STEALS: AtomicU64 = AtomicU64::new(0);
static TOTAL_SPLITS: AtomicU64 = AtomicU64::new(0);
static TOTAL_JOINS: AtomicU64 = AtomicU64::new(0);
/// Per-worker-slot `(tasks, steals)` accumulated across every scheduled
/// batch since the last [`reset_scheduler_stats`].
static PER_WORKER: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());

/// A snapshot of the process-global scheduler counters: total leaf tasks
/// executed, successful steals, range splits, fork-join pairs, and the
/// per-worker-slot `(tasks, steals)` breakdown. Counters are cumulative
/// since process start or the last [`reset_scheduler_stats`]; they are
/// observability only and never influence scheduling decisions or output.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Leaf tasks executed (after splitting down to the grain).
    pub tasks: u64,
    /// Successful steals from a sibling's deque.
    pub steals: u64,
    /// Range splits performed while narrowing to the grain.
    pub splits: u64,
    /// Two-way fork-join invocations ([`join`] with `parallel == true`).
    pub joins: u64,
    /// `(tasks, steals)` per worker slot (slot 0 is the seeding worker).
    pub per_worker: Vec<(u64, u64)>,
}

/// Snapshots the global scheduler counters.
pub fn scheduler_stats() -> SchedStats {
    SchedStats {
        tasks: TOTAL_TASKS.load(Ordering::Relaxed),
        steals: TOTAL_STEALS.load(Ordering::Relaxed),
        splits: TOTAL_SPLITS.load(Ordering::Relaxed),
        joins: TOTAL_JOINS.load(Ordering::Relaxed),
        per_worker: PER_WORKER.lock().expect("scheduler stats poisoned").clone(),
    }
}

/// Zeroes the global scheduler counters (benchmarks isolate runs with
/// this).
pub fn reset_scheduler_stats() {
    TOTAL_TASKS.store(0, Ordering::Relaxed);
    TOTAL_STEALS.store(0, Ordering::Relaxed);
    TOTAL_SPLITS.store(0, Ordering::Relaxed);
    TOTAL_JOINS.store(0, Ordering::Relaxed);
    PER_WORKER.lock().expect("scheduler stats poisoned").clear();
}

fn record_worker(slot: usize, tasks: u64, steals: u64, splits: u64) {
    TOTAL_TASKS.fetch_add(tasks, Ordering::Relaxed);
    TOTAL_STEALS.fetch_add(steals, Ordering::Relaxed);
    TOTAL_SPLITS.fetch_add(splits, Ordering::Relaxed);
    let mut per = PER_WORKER.lock().expect("scheduler stats poisoned");
    if per.len() <= slot {
        per.resize(slot + 1, (0, 0));
    }
    per[slot].0 += tasks;
    per[slot].1 += steals;
}

// ---------------------------------------------------------------------------
// The work-stealing core
// ---------------------------------------------------------------------------

/// Shared state of one scheduled batch: per-worker range deques, the
/// count of not-yet-processed items (the termination condition), and a
/// parker so idle thieves block instead of spinning.
struct WsCore {
    deques: Vec<Mutex<VecDeque<(usize, usize)>>>,
    remaining: AtomicUsize,
    parker_lock: Mutex<()>,
    parker: Condvar,
}

impl WsCore {
    /// Seeds `len` items across `threads` deques as balanced contiguous
    /// ranges — range order equals item order, so worker `w`'s seed is
    /// the `w`-th slice of the sequential iteration.
    fn seed(len: usize, threads: usize) -> WsCore {
        let base = len / threads;
        let rem = len % threads;
        let deques = (0..threads)
            .map(|w| {
                let start = w * base + w.min(rem);
                let stop = start + base + usize::from(w < rem);
                let mut q = VecDeque::new();
                if start < stop {
                    q.push_back((start, stop));
                }
                Mutex::new(q)
            })
            .collect();
        WsCore {
            deques,
            remaining: AtomicUsize::new(len),
            parker_lock: Mutex::new(()),
            parker: Condvar::new(),
        }
    }

    fn notify(&self) {
        // Touch the parker lock so a worker between its `remaining` check
        // and its wait cannot miss the wake-up.
        drop(self.parker_lock.lock().expect("parker poisoned"));
        self.parker.notify_all();
    }

    /// One worker's scheduling loop: pop own back → steal victim front →
    /// park. Popped ranges are split in half down to `grain`, far halves
    /// pushed back for thieves; each leaf range is handed to `process`
    /// exactly once. `process(worker, start, stop)` must handle items
    /// `start..stop`.
    fn run_worker(&self, w: usize, grain: usize, process: &(impl Fn(usize, usize, usize) + Sync)) {
        let threads = self.deques.len();
        let mut tasks = 0u64;
        let mut steals = 0u64;
        let mut splits = 0u64;
        loop {
            // Own deque first (LIFO: the most recently split-off half is
            // adjacent to what this worker just processed).
            let mut task = self.deques[w]
                .lock()
                .expect("worker deque poisoned")
                .pop_back();
            if task.is_none() {
                // Steal the oldest (largest) range from the first victim
                // that has one; a contended victim lock is skipped, not
                // waited on.
                for k in 1..threads {
                    let v = (w + k) % threads;
                    if let Ok(mut q) = self.deques[v].try_lock() {
                        if let Some(r) = q.pop_front() {
                            task = Some(r);
                            steals += 1;
                            break;
                        }
                    }
                }
            }
            match task {
                Some((start, mut stop)) => {
                    // Split in half down to the grain, keeping the near
                    // half and publishing the far half for thieves.
                    while stop - start > grain {
                        let mid = start + (stop - start).div_ceil(2);
                        self.deques[w]
                            .lock()
                            .expect("worker deque poisoned")
                            .push_back((mid, stop));
                        splits += 1;
                        stop = mid;
                        self.notify();
                    }
                    process(w, start, stop);
                    tasks += 1;
                    if self.remaining.fetch_sub(stop - start, Ordering::SeqCst) == stop - start {
                        // Last items done: wake every parked worker so the
                        // batch can retire.
                        self.notify();
                    }
                }
                None => {
                    if self.remaining.load(Ordering::SeqCst) == 0 {
                        break;
                    }
                    // Nothing stealable right now but work is still in
                    // flight (a sibling holds an unsplit range): park
                    // until a split publishes more, with a timeout as a
                    // liveness backstop.
                    let guard = self.parker_lock.lock().expect("parker poisoned");
                    if self.remaining.load(Ordering::SeqCst) != 0 {
                        let _ = self
                            .parker
                            .wait_timeout(guard, Duration::from_micros(200))
                            .expect("parker poisoned");
                    }
                }
            }
        }
        record_worker(w, tasks, steals, splits);
    }
}

/// Runs `process` over the index space `0..len` on `threads` workers via
/// the work-stealing core. `process(worker, start, stop)` receives each
/// leaf range exactly once; ranges partition `0..len`.
fn ws_run(threads: usize, len: usize, grain: usize, process: impl Fn(usize, usize, usize) + Sync) {
    debug_assert!(threads >= 2 && len >= 2);
    let core = WsCore::seed(len, threads);
    let core = &core;
    let process = &process;
    thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| scope.spawn(move || core.run_worker(w, grain, process)))
            .collect();
        for h in handles {
            h.join().expect("parallel worker panicked");
        }
    });
    debug_assert_eq!(core.remaining.load(Ordering::SeqCst), 0);
}

/// Maps `f` over `items` on up to `threads` work-stealing workers,
/// returning the results **in item order**.
///
/// `f` receives `(item_index, &item)`. Work is distributed by the
/// stealing scheduler (contiguous seed ranges, split-on-demand down to
/// the [grain](set_default_grain)); determinism comes from re-assembling
/// results by item index, not from the schedule. With `threads <= 1` or
/// fewer than two items this is a plain sequential `map` on the calling
/// thread.
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
    let grain = resolve_grain(items.len(), threads);
    let buckets: Vec<Mutex<Vec<(usize, R)>>> =
        (0..threads).map(|_| Mutex::new(Vec::new())).collect();
    ws_run(threads, items.len(), grain, |w, start, stop| {
        // Evaluate the leaf range outside the bucket lock (only this
        // worker ever locks bucket `w`, but keep the critical section to
        // the push anyway).
        let mut out: Vec<(usize, R)> = Vec::with_capacity(stop - start);
        for (i, item) in items[start..stop].iter().enumerate() {
            out.push((start + i, f(start + i, item)));
        }
        buckets[w]
            .lock()
            .expect("result bucket poisoned")
            .append(&mut out);
    });
    // Ordered merge: leaf ranges partition the index space, so sorting
    // the concatenation by item index reproduces the sequential order
    // exactly — the determinism contract every caller builds on.
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(items.len());
    for bucket in buckets {
        indexed.append(&mut bucket.into_inner().expect("result bucket poisoned"));
    }
    indexed.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(indexed.len(), items.len());
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Decides the chunk geometry of [`par_chunks`]: at most `threads * max(oversubscribe, 1)`
/// contiguous chunks of equal ceiling length. Note the *actual* chunk
/// count `ceil(len / chunk_len)` can undershoot the requested `n_chunks`
/// (e.g. `len = 6`, `n_chunks = 4` → `chunk_len = 2` → 3 chunks); every
/// chunk except possibly the last has exactly `chunk_len` items and no
/// chunk is ever empty, so `chunk_index * chunk_len` is always the
/// chunk's global offset. `oversubscribe = 0` is treated as 1.
fn chunk_len(threads: usize, oversubscribe: usize, len: usize) -> usize {
    let n_chunks = (threads * oversubscribe.max(1)).min(len);
    len.div_ceil(n_chunks)
}

/// [`par_map`] over contiguous chunks: splits `items` into at most
/// `threads * oversubscribe` contiguous chunks, maps `f` over each chunk
/// on the work-stealing workers, and returns the per-chunk results **in
/// chunk order** (so `Vec::concat` of per-chunk output vectors reproduces
/// the sequential iteration order exactly).
///
/// Use this when per-item work is small — chunking amortizes the
/// scheduling overhead — or when the caller's merge step wants
/// slice-granular results (e.g. one output buffer per prefix group).
pub fn par_chunks<T: Sync, R: Send>(
    threads: usize,
    oversubscribe: usize,
    items: &[T],
    f: impl Fn(&[T]) -> R + Sync,
) -> Vec<R> {
    let threads = effective_threads(threads).min(items.len());
    if threads <= 1 {
        if items.is_empty() {
            return Vec::new();
        }
        TOTAL_TASKS.fetch_add(1, Ordering::Relaxed);
        return vec![f(items)];
    }
    let chunks: Vec<&[T]> = items
        .chunks(chunk_len(threads, oversubscribe, items.len()))
        .collect();
    par_map(threads, &chunks, |_, chunk| f(chunk))
}

/// Runs two closures, on two scoped threads when `parallel` is true, and
/// returns both results. The FK duality check uses this for its two
/// recursive sub-problems (heterogeneous result types keep it off the
/// homogeneous range deques; it shares the scheduler's stats layer via
/// the `joins` counter). `parallel == false` degenerates to plain
/// sequential calls on the current thread.
pub fn join<RA: Send, RB: Send>(
    parallel: bool,
    a: impl FnOnce() -> RA + Send,
    b: impl FnOnce() -> RB + Send,
) -> (RA, RB) {
    if !parallel {
        return (a(), b());
    }
    TOTAL_JOINS.fetch_add(1, Ordering::Relaxed);
    thread::scope(|scope| {
        let hb = scope.spawn(b);
        let ra = a();
        (ra, hb.join().expect("parallel worker panicked"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

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

    /// Serializes the tests that mutate the process-global grain (cargo
    /// runs tests concurrently; the grain is a scheduling knob shared by
    /// every batch in the process).
    static GRAIN_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn par_map_order_is_grain_invariant() {
        let _g = GRAIN_LOCK.lock().unwrap();
        let items: Vec<usize> = (0..500).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 7 + 1).collect();
        for grain in [1, 2, 3, 17, 250, 10_000] {
            set_default_grain(grain);
            for threads in [2, 4, 8] {
                let out = par_map(threads, &items, |_, &x| x * 7 + 1);
                assert_eq!(out, expected, "grain={grain} threads={threads}");
            }
        }
        set_default_grain(0);
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
    fn steal_heavy_skew_stays_ordered() {
        // One giant item among many tiny ones — the adversarial shape for
        // static splitting. The worker that draws item 0 stalls; the
        // others must steal the rest of its seeded range, and the merge
        // must still be in item order.
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
        let _g = GRAIN_LOCK.lock().unwrap();
        reset_scheduler_stats();
        set_default_grain(8);
        let items: Vec<usize> = (0..512).collect();
        let _ = par_map(4, &items, |_, &x| x);
        set_default_grain(0);
        let stats = scheduler_stats();
        // 512 items at grain 8 make at least 64 leaves.
        assert!(stats.tasks >= 64, "tasks={}", stats.tasks);
        assert!(stats.splits > 0, "splits={}", stats.splits);
        assert!(!stats.per_worker.is_empty());
        let per_total: u64 = stats.per_worker.iter().map(|&(t, _)| t).sum();
        assert!(per_total >= 64, "per-worker tasks={per_total}");

        let before = stats.joins;
        let _ = join(true, || 1, || 2);
        assert!(scheduler_stats().joins > before);
    }

    #[test]
    fn par_chunks_concat_matches_sequential() {
        let items: Vec<u32> = (0..1000).collect();
        for threads in [1, 2, 5] {
            let chunked = par_chunks(threads, 4, &items, |chunk| {
                chunk.iter().map(|x| x + 1).collect::<Vec<_>>()
            });
            let flat: Vec<u32> = chunked.concat();
            assert_eq!(flat, items.iter().map(|x| x + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_chunks_empty() {
        let empty: Vec<u32> = vec![];
        assert!(par_chunks(4, 4, &empty, |c| c.len()).is_empty());
    }

    /// Satellite audit (ISSUE 7): pin the chunk-boundary arithmetic for
    /// the off-by-one shapes — `oversubscribe = 0`, `len < threads`, and
    /// the undershoot case where `ceil(len / chunk_len)` yields fewer
    /// chunks than requested.
    #[test]
    fn par_chunks_boundary_arithmetic() {
        // oversubscribe = 0 behaves as 1: `threads` chunks.
        let items: Vec<u32> = (0..8).collect();
        let sizes = par_chunks(2, 0, &items, |c| c.len());
        assert_eq!(sizes, vec![4, 4]);

        // len = 6, threads = 2, oversubscribe = 2 → n_chunks = 4,
        // chunk_len = 2 → only 3 actual chunks, none empty.
        let items: Vec<u32> = (0..6).collect();
        let chunks = par_chunks(2, 2, &items, |c| c.to_vec());
        assert_eq!(chunks, vec![vec![0, 1], vec![2, 3], vec![4, 5]]);

        // len = 5 < threads * oversubscribe: n_chunks clamps to len=5?
        // threads clamps to len first (5), then n_chunks = min(5*1, 5).
        let items: Vec<u32> = (0..5).collect();
        let sizes = par_chunks(8, 1, &items, |c| c.len());
        assert_eq!(sizes.iter().sum::<usize>(), 5);
        assert!(sizes.iter().all(|&s| s >= 1));

        // len = 7, threads = 3, oversubscribe = 1 → chunk_len = 3 →
        // chunks of 3, 3, 1.
        let items: Vec<u32> = (0..7).collect();
        let chunks = par_chunks(3, 1, &items, |c| c.to_vec());
        assert_eq!(chunks, vec![vec![0, 1, 2], vec![3, 4, 5], vec![6]]);
    }

    #[test]
    fn join_returns_both() {
        for parallel in [false, true] {
            let (a, b) = join(parallel, || 1 + 1, || "x".to_string());
            assert_eq!(a, 2);
            assert_eq!(b, "x");
        }
    }

    #[test]
    fn join_borrows_environment() {
        let data = [1, 2, 3];
        let (s, l) = join(true, || data.iter().sum::<i32>(), || data.len());
        assert_eq!((s, l), (6, 3));
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
