//! # dualminer-obs
//!
//! Observability and resource governance for the long-running algorithms.
//!
//! The paper's own Example 19 shows the core computations can blow up
//! (`2^{n/2}` intermediate transversals), and the follow-up literature
//! (Eiter–Gottlob–Makino, *New Results on Monotone Dualization*) measures
//! dualization cost entirely in enumerated-output and oracle-call counts.
//! This crate supplies the two primitives every entry point in `core`,
//! `mining`, and `hypergraph` threads through:
//!
//! * **Budgets** — a [`Budget`] (wall-clock deadline, max oracle queries,
//!   max enumerated transversals) is started into a [`Meter`]: shared,
//!   thread-safe counters plus a cooperative cancellation flag. Algorithms
//!   call [`Meter::record_query`] / [`Meter::record_transversal`] as they
//!   work and poll [`Meter::exceeded`] at their loop heads; on a hit they
//!   stop early and return [`Outcome::BudgetExceeded`] carrying a **typed
//!   partial result** instead of running forever.
//! * **Observers** — a [`MiningObserver`] receives progress events
//!   (per-level candidate/theory counts for levelwise/apriori,
//!   per-iteration transversal and counterexample events for
//!   Dualize&Advance, recursion events for Fredman–Khachiyan, node batches
//!   for MMCS/Berge). [`NoopObserver`] is the zero-cost default;
//!   [`StatsCollector`] accumulates everything and renders the standard
//!   machine-readable JSON artifact (`--stats json` on the CLI).
//!
//! The crate is dependency-free (std only) and sits below every other
//! workspace crate, so `hypergraph`, `core`, and `mining` can all share
//! one [`RunCtl`] handle without layering cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub mod checkpoint;
pub mod error;
pub mod fault;
pub mod fingerprint;
pub mod json;

pub use checkpoint::{
    CheckpointError, CheckpointSink, Envelope, FileCheckpoint, MemoryCheckpoints,
};
pub use error::{ErrorClass, OracleError, RetryPolicy, RunError};
pub use fault::{fnv1a64, FaultPlan, FaultSpec};
pub use fingerprint::{FnvStream, RowFingerprint};
pub use json::{Json, JsonError};

// ---------------------------------------------------------------------------
// Budgets
// ---------------------------------------------------------------------------

/// Resource limits for one run. `Default` is unlimited on every axis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock limit, measured from [`Budget::start`].
    pub timeout: Option<Duration>,
    /// Maximum number of oracle queries / candidate evaluations.
    pub max_queries: Option<u64>,
    /// Maximum number of enumerated (minimal) transversals.
    pub max_transversals: Option<u64>,
}

impl Budget {
    /// An unlimited budget.
    pub const UNLIMITED: Budget = Budget {
        timeout: None,
        max_queries: None,
        max_transversals: None,
    };

    /// Whether no limit is set on any axis.
    pub fn is_unlimited(&self) -> bool {
        self.timeout.is_none() && self.max_queries.is_none() && self.max_transversals.is_none()
    }

    /// Applies a server-side deadline policy: a budget with no timeout
    /// inherits `default`, and any timeout (including an inherited one)
    /// is capped at `max`. Returns the adjusted budget and whether the
    /// policy changed anything — callers that prove bit-identity only
    /// for unbudgeted runs (incremental re-mining) must treat a clamped
    /// budget exactly like a client-requested one.
    pub fn clamp_timeout(self, default: Option<Duration>, max: Option<Duration>) -> (Budget, bool) {
        let mut timeout = self.timeout.or(default);
        if let (Some(t), Some(cap)) = (timeout, max) {
            timeout = Some(t.min(cap));
        }
        let clamped = timeout != self.timeout;
        (Budget { timeout, ..self }, clamped)
    }

    /// Starts the clock: converts the declarative budget into a live
    /// [`Meter`] whose deadline is `now + timeout`.
    pub fn start(&self) -> Meter {
        Meter {
            deadline: self.timeout.map(|t| Instant::now() + t),
            max_queries: self.max_queries,
            max_transversals: self.max_transversals,
            queries: AtomicU64::new(0),
            transversals: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            cancelled: AtomicBool::new(false),
        }
    }
}

/// Why a run stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The oracle-query / candidate-evaluation limit was reached.
    MaxQueries,
    /// The enumerated-transversal limit was reached.
    MaxTransversals,
    /// [`Meter::cancel`] was called (external cancellation).
    Cancelled,
}

impl BudgetReason {
    /// Stable lower-case identifier, used in the JSON stats artifact.
    pub fn as_str(&self) -> &'static str {
        match self {
            BudgetReason::Deadline => "deadline",
            BudgetReason::MaxQueries => "max_queries",
            BudgetReason::MaxTransversals => "max_transversals",
            BudgetReason::Cancelled => "cancelled",
        }
    }
}

impl std::fmt::Display for BudgetReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A started budget: shared, thread-safe counters plus a cooperative
/// cancellation flag. One `Meter` is shared across nested calls (e.g.
/// Dualize&Advance passes its meter into the transversal subroutine), so
/// limits govern the run as a whole, not each stage separately.
#[derive(Debug)]
pub struct Meter {
    deadline: Option<Instant>,
    max_queries: Option<u64>,
    max_transversals: Option<u64>,
    queries: AtomicU64,
    transversals: AtomicU64,
    retries: AtomicU64,
    faults: AtomicU64,
    cancelled: AtomicBool,
}

impl Default for Meter {
    fn default() -> Self {
        Budget::UNLIMITED.start()
    }
}

impl Meter {
    /// An unlimited meter (still counts, never trips).
    pub fn unlimited() -> Meter {
        Budget::UNLIMITED.start()
    }

    /// Records one oracle query / candidate evaluation.
    #[inline]
    pub fn record_query(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` oracle queries at once (batch counting from parallel
    /// workers keeps the hot path to one atomic add per chunk).
    #[inline]
    pub fn record_queries(&self, n: u64) {
        if n > 0 {
            self.queries.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records one enumerated transversal.
    #[inline]
    pub fn record_transversal(&self) {
        self.transversals.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` enumerated transversals at once.
    #[inline]
    pub fn record_transversals(&self, n: u64) {
        if n > 0 {
            self.transversals.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Total queries recorded so far.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Total transversals recorded so far.
    pub fn transversals(&self) -> u64 {
        self.transversals.load(Ordering::Relaxed)
    }

    /// Records one oracle retry. Retries are metered *separately* from
    /// [`Meter::record_query`] so the Theorem-10/21 query accounting —
    /// one count per **logical** query — is unchanged by fault recovery.
    #[inline]
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one observed oracle fault (transient or permanent).
    #[inline]
    pub fn record_fault(&self) {
        self.faults.fetch_add(1, Ordering::Relaxed);
    }

    /// Total oracle retries recorded so far.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Total oracle faults recorded so far.
    pub fn faults(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// Requests cooperative cancellation; the next [`Meter::exceeded`]
    /// poll returns [`BudgetReason::Cancelled`].
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Polls the budget. Returns the first tripped limit, or `None` while
    /// the run may continue. With no limits set this never reads the
    /// clock, so the unlimited path adds only two relaxed atomic loads.
    #[inline]
    pub fn exceeded(&self) -> Option<BudgetReason> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Some(BudgetReason::Cancelled);
        }
        if let Some(max) = self.max_queries {
            if self.queries.load(Ordering::Relaxed) >= max {
                return Some(BudgetReason::MaxQueries);
            }
        }
        if let Some(max) = self.max_transversals {
            if self.transversals.load(Ordering::Relaxed) >= max {
                return Some(BudgetReason::MaxTransversals);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(BudgetReason::Deadline);
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Outcomes
// ---------------------------------------------------------------------------

/// Result of a budget-governed run: either the complete answer, or the
/// partial answer accumulated up to the point the budget tripped. What
/// "partial" means is documented per algorithm (e.g. a prefix of `MTh`
/// for Dualize&Advance, a prefix of `Tr(H)` for MMCS / joint generation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome<T> {
    /// The run finished; the value is the same as the unbudgeted result.
    Complete(T),
    /// The budget tripped; `partial` is the typed intermediate result.
    BudgetExceeded {
        /// The partial result accumulated before stopping.
        partial: T,
        /// Which limit tripped.
        reason: BudgetReason,
    },
}

impl<T> Outcome<T> {
    /// Whether the run finished.
    pub fn is_complete(&self) -> bool {
        matches!(self, Outcome::Complete(_))
    }

    /// The trip reason, if any.
    pub fn reason(&self) -> Option<BudgetReason> {
        match self {
            Outcome::Complete(_) => None,
            Outcome::BudgetExceeded { reason, .. } => Some(*reason),
        }
    }

    /// The carried value (complete or partial), by reference.
    pub fn value(&self) -> &T {
        match self {
            Outcome::Complete(v) | Outcome::BudgetExceeded { partial: v, .. } => v,
        }
    }

    /// The carried value (complete or partial), by move.
    pub fn into_value(self) -> T {
        match self {
            Outcome::Complete(v) | Outcome::BudgetExceeded { partial: v, .. } => v,
        }
    }

    /// Splits into `(value, Option<reason>)`.
    pub fn into_parts(self) -> (T, Option<BudgetReason>) {
        match self {
            Outcome::Complete(v) => (v, None),
            Outcome::BudgetExceeded { partial, reason } => (partial, Some(reason)),
        }
    }

    /// Maps the carried value, preserving completeness.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Outcome<U> {
        match self {
            Outcome::Complete(v) => Outcome::Complete(f(v)),
            Outcome::BudgetExceeded { partial, reason } => Outcome::BudgetExceeded {
                partial: f(partial),
                reason,
            },
        }
    }

    /// Unwraps a `Complete` value; panics on `BudgetExceeded`. Intended
    /// for unbudgeted wrappers, where the unlimited meter cannot trip.
    #[track_caller]
    pub fn expect_complete(self) -> T {
        match self {
            Outcome::Complete(v) => v,
            Outcome::BudgetExceeded { reason, .. } => {
                panic!("budget unexpectedly exceeded: {reason}")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Observers
// ---------------------------------------------------------------------------

/// Progress events from a run. All methods have empty defaults, so an
/// observer implements only what it cares about; the `Sync` bound lets
/// parallel workers share one observer reference.
///
/// Event granularity is chosen so observation stays cheap: per level, per
/// iteration, per FK recursion *batch*, and per search-node *batch* —
/// never per bit operation.
pub trait MiningObserver: Sync {
    /// A named phase began (e.g. `"mine"`, `"dualize"`, `"minimize"`).
    fn on_phase_start(&self, _name: &str) {}
    /// The matching phase ended.
    fn on_phase_end(&self, _name: &str) {}
    /// A levelwise/apriori level completed: `candidates` evaluated, of
    /// which `interesting` entered the theory.
    fn on_level(&self, _level: usize, _candidates: usize, _interesting: usize) {}
    /// A Dualize&Advance iteration completed: `transversals_tested`
    /// negative-border candidates were probed; `counterexample` says
    /// whether one was interesting (and so seeded a new maximal set).
    fn on_iteration(&self, _iteration: usize, _transversals_tested: usize, _counterexample: bool) {}
    /// `count` Fredman–Khachiyan recursive calls were performed
    /// (reported in batches from the recursion).
    fn on_fk_calls(&self, _count: u64) {}
    /// `count` minimal transversals were emitted.
    fn on_transversals(&self, _count: u64) {}
    /// `count` search nodes (MMCS recursion nodes, Berge edge-merge
    /// products, levelwise-Tr candidates) were expanded.
    fn on_nodes(&self, _count: u64) {}
    /// A transient oracle fault triggered retry `attempt` (1-based) of a
    /// logical query; `will_retry` is false when the retry budget is
    /// exhausted and the run is about to abort.
    fn on_retry(&self, _attempt: u32, _will_retry: bool) {}
    /// A checkpoint was written at a safe point.
    fn on_checkpoint(&self, _queries_so_far: u64) {}
}

/// The do-nothing observer.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl MiningObserver for NoopObserver {}

/// Shared per-run control handle: the live [`Meter`] plus the observer.
/// Every `_ctl` entry point takes one of these by reference; nested calls
/// pass it along unchanged so the whole run shares one budget.
#[derive(Clone, Copy)]
pub struct RunCtl<'a> {
    /// The live budget meter.
    pub meter: &'a Meter,
    /// The event sink.
    pub observer: &'a dyn MiningObserver,
}

impl<'a> RunCtl<'a> {
    /// Bundles a meter and an observer.
    pub fn new(meter: &'a Meter, observer: &'a dyn MiningObserver) -> Self {
        RunCtl { meter, observer }
    }

    /// A control handle with the given meter and no observer.
    pub fn with_meter(meter: &'a Meter) -> Self {
        RunCtl {
            meter,
            observer: &NoopObserver,
        }
    }
}

impl std::fmt::Debug for RunCtl<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunCtl").field("meter", self.meter).finish()
    }
}

// ---------------------------------------------------------------------------
// StatsCollector
// ---------------------------------------------------------------------------

/// Everything the collector knows about one completed (or truncated) run.
#[derive(Clone, Debug, Default, PartialEq)]
struct StatsInner {
    levels: Vec<(usize, usize)>,
    iterations: usize,
    transversals_tested: usize,
    counterexamples: usize,
    phases: Vec<(String, Option<Duration>, Instant)>,
    /// Work-stealing scheduler counters, injected by the frontend at run
    /// end (this crate sits below the scheduler and cannot read them
    /// itself). `None` until [`StatsCollector::set_scheduler`] is called.
    scheduler: Option<SchedCounters>,
    /// Dualization-planner decision and engine counters, injected by the
    /// frontend (this crate sits below the hypergraph engines). `None`
    /// until [`StatsCollector::set_dualize`] is called.
    dualize: Option<DualizeStats>,
}

/// Planner decision and per-backend search counters for one transversal
/// run, injected via [`StatsCollector::set_dualize`]. The numeric fields
/// are `None` for backends that do not collect the corresponding counter
/// (only MU-MMCS and EGM do), and the matching JSON keys are then omitted.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DualizeStats {
    /// Backend that actually ran (CLI `--algo` spelling, e.g. `"mu-mmcs"`).
    pub backend: String,
    /// Planner rule that selected it (`"forced"` for an explicit `--algo`).
    pub rule: String,
    /// DFS nodes entered.
    pub nodes: Option<u64>,
    /// Minimal transversals emitted by the search.
    pub emitted: Option<u64>,
    /// Murakami–Uno minimality prunes (an emptied `crit[w]`).
    pub minimality_prunes: Option<u64>,
    /// Branches abandoned because the picked edge had no candidates left.
    pub dead_branches: Option<u64>,
    /// Critical-edge bits removed while descending.
    pub crit_removals: Option<u64>,
    /// Critical-edge bits restored while unwinding.
    pub crit_restores: Option<u64>,
    /// EGM vertex splits performed.
    pub egm_splits: Option<u64>,
    /// EGM leaf sub-instances handed to MU-MMCS.
    pub egm_leaves: Option<u64>,
}

/// Run-total work-stealing scheduler counters plus the per-worker
/// `(tasks, steals)` table, as injected via
/// [`StatsCollector::set_scheduler`].
#[derive(Clone, Debug, Default, PartialEq)]
struct SchedCounters {
    tasks: u64,
    steals: u64,
    splits: u64,
    joins: u64,
    per_worker: Vec<(u64, u64)>,
}

/// A [`MiningObserver`] that accumulates every event and renders the
/// standard JSON stats artifact. Thread-safe: counter events use atomics,
/// structured events take a short mutex.
#[derive(Debug)]
pub struct StatsCollector {
    started: Instant,
    fk_calls: AtomicU64,
    transversals: AtomicU64,
    nodes: AtomicU64,
    checkpoints: AtomicU64,
    threads: AtomicU64,
    inner: Mutex<StatsInner>,
}

impl Default for StatsCollector {
    fn default() -> Self {
        StatsCollector::new()
    }
}

impl StatsCollector {
    /// A fresh collector; the run clock starts now.
    pub fn new() -> Self {
        StatsCollector {
            started: Instant::now(),
            fk_calls: AtomicU64::new(0),
            transversals: AtomicU64::new(0),
            nodes: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            threads: AtomicU64::new(1),
            inner: Mutex::new(StatsInner::default()),
        }
    }

    /// Records the worker-thread count for the JSON artifact.
    pub fn set_threads(&self, threads: usize) {
        self.threads.store(threads as u64, Ordering::Relaxed);
    }

    /// Records the work-stealing scheduler counters for the JSON
    /// artifact: run totals plus per-worker `(tasks, steals)` pairs. The
    /// frontend snapshots the scheduler at run end and injects the
    /// numbers here; until then the artifact omits the `ws_*` keys so
    /// sequential runs keep their exact historical schema.
    pub fn set_scheduler(
        &self,
        tasks: u64,
        steals: u64,
        splits: u64,
        joins: u64,
        per_worker: Vec<(u64, u64)>,
    ) {
        let mut inner = self.inner.lock().expect("stats mutex poisoned");
        inner.scheduler = Some(SchedCounters {
            tasks,
            steals,
            splits,
            joins,
            per_worker,
        });
    }

    /// Records the dualization planner's decision and the executed
    /// backend's search counters for the JSON artifact. The frontend
    /// injects these after a transversal run (like the scheduler counters,
    /// they originate above this crate); until then the artifact omits the
    /// `planner_*`/`tr_*` keys so other run kinds keep their exact
    /// historical schema.
    pub fn set_dualize(&self, stats: DualizeStats) {
        let mut inner = self.inner.lock().expect("stats mutex poisoned");
        inner.dualize = Some(stats);
    }

    /// Total transversal events observed.
    pub fn transversals(&self) -> u64 {
        self.transversals.load(Ordering::Relaxed)
    }

    /// Total FK recursive calls observed.
    pub fn fk_calls(&self) -> u64 {
        self.fk_calls.load(Ordering::Relaxed)
    }

    /// Total search-node events observed.
    pub fn nodes(&self) -> u64 {
        self.nodes.load(Ordering::Relaxed)
    }

    /// Renders the JSON stats artifact. `meter` supplies the
    /// authoritative query/transversal totals; `outcome` is `None` for a
    /// complete run or the trip reason for a truncated one.
    ///
    /// Shape (one object, stable keys):
    /// `{"outcome", "queries", "candidates", "transversals", "fk_calls",
    ///   "nodes", "iterations", "levels": [{"level","candidates","interesting"}],
    ///   "phases": [{"name","ms"}], "threads", "cpus", "wall_ms"}`
    ///
    /// When [`StatsCollector::set_scheduler`] was called, the object
    /// additionally carries `"ws_tasks"`, `"ws_steals"`, `"ws_splits"`,
    /// `"ws_joins"` and `"ws_workers": [{"worker","tasks","steals"}]`
    /// between `"phases"` and `"threads"`. When
    /// [`StatsCollector::set_dualize`] was called, `"planner_choice"`,
    /// `"planner_rule"`, and whichever `"tr_*"` counters the executed
    /// backend collects follow the `ws_*` block.
    pub fn to_json(&self, meter: &Meter, outcome: Option<BudgetReason>) -> String {
        let inner = self.inner.lock().expect("stats mutex poisoned");
        let mut out = String::with_capacity(512);
        out.push('{');
        push_str_field(
            &mut out,
            "outcome",
            outcome.map_or("complete", |r| r.as_str()),
        );
        push_u64_field(&mut out, "queries", meter.queries());
        let candidates: usize = inner.levels.iter().map(|&(c, _)| c).sum();
        push_u64_field(&mut out, "candidates", candidates as u64);
        push_u64_field(&mut out, "transversals", meter.transversals());
        push_u64_field(&mut out, "retries", meter.retries());
        push_u64_field(&mut out, "faults", meter.faults());
        push_u64_field(
            &mut out,
            "checkpoints",
            self.checkpoints.load(Ordering::Relaxed),
        );
        push_u64_field(&mut out, "fk_calls", self.fk_calls.load(Ordering::Relaxed));
        push_u64_field(&mut out, "nodes", self.nodes.load(Ordering::Relaxed));
        push_u64_field(&mut out, "iterations", inner.iterations as u64);
        push_u64_field(
            &mut out,
            "transversals_tested",
            inner.transversals_tested as u64,
        );
        push_u64_field(&mut out, "counterexamples", inner.counterexamples as u64);
        out.push_str("\"levels\":[");
        for (i, &(cands, interesting)) in inner.levels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"level\":{i},\"candidates\":{cands},\"interesting\":{interesting}}}"
            ));
        }
        out.push_str("],");
        out.push_str("\"phases\":[");
        for (i, (name, elapsed, started)) in inner.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ms = elapsed.unwrap_or_else(|| started.elapsed()).as_secs_f64() * 1e3;
            out.push_str("{\"name\":\"");
            json::escape_into(&mut out, name);
            out.push_str(&format!("\",\"ms\":{ms:.3}}}"));
        }
        out.push_str("],");
        if let Some(sched) = &inner.scheduler {
            push_u64_field(&mut out, "ws_tasks", sched.tasks);
            push_u64_field(&mut out, "ws_steals", sched.steals);
            push_u64_field(&mut out, "ws_splits", sched.splits);
            push_u64_field(&mut out, "ws_joins", sched.joins);
            out.push_str("\"ws_workers\":[");
            for (i, &(t, s)) in sched.per_worker.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"worker\":{i},\"tasks\":{t},\"steals\":{s}}}"));
            }
            out.push_str("],");
        }
        if let Some(d) = &inner.dualize {
            push_str_field(&mut out, "planner_choice", &d.backend);
            push_str_field(&mut out, "planner_rule", &d.rule);
            for (key, val) in [
                ("tr_nodes", d.nodes),
                ("tr_emitted", d.emitted),
                ("tr_minimality_prunes", d.minimality_prunes),
                ("tr_dead_branches", d.dead_branches),
                ("tr_crit_removals", d.crit_removals),
                ("tr_crit_restores", d.crit_restores),
                ("tr_egm_splits", d.egm_splits),
                ("tr_egm_leaves", d.egm_leaves),
            ] {
                if let Some(v) = val {
                    push_u64_field(&mut out, key, v);
                }
            }
        }
        push_u64_field(&mut out, "threads", self.threads.load(Ordering::Relaxed));
        push_u64_field(&mut out, "cpus", available_cpus() as u64);
        let wall_ms = self.started.elapsed().as_secs_f64() * 1e3;
        out.push_str(&format!("\"wall_ms\":{wall_ms:.3}"));
        out.push('}');
        out
    }
}

impl MiningObserver for StatsCollector {
    fn on_phase_start(&self, name: &str) {
        let mut inner = self.inner.lock().expect("stats mutex poisoned");
        inner.phases.push((name.to_string(), None, Instant::now()));
    }

    fn on_phase_end(&self, name: &str) {
        let mut inner = self.inner.lock().expect("stats mutex poisoned");
        if let Some((_, elapsed, started)) = inner
            .phases
            .iter_mut()
            .rev()
            .find(|(n, elapsed, _)| n == name && elapsed.is_none())
        {
            *elapsed = Some(started.elapsed());
        }
    }

    fn on_level(&self, level: usize, candidates: usize, interesting: usize) {
        let mut inner = self.inner.lock().expect("stats mutex poisoned");
        if inner.levels.len() <= level {
            inner.levels.resize(level + 1, (0, 0));
        }
        inner.levels[level] = (candidates, interesting);
    }

    fn on_iteration(&self, _iteration: usize, transversals_tested: usize, counterexample: bool) {
        let mut inner = self.inner.lock().expect("stats mutex poisoned");
        inner.iterations += 1;
        inner.transversals_tested += transversals_tested;
        inner.counterexamples += usize::from(counterexample);
    }

    fn on_fk_calls(&self, count: u64) {
        self.fk_calls.fetch_add(count, Ordering::Relaxed);
    }

    fn on_transversals(&self, count: u64) {
        self.transversals.fetch_add(count, Ordering::Relaxed);
    }

    fn on_nodes(&self, count: u64) {
        self.nodes.fetch_add(count, Ordering::Relaxed);
    }

    fn on_checkpoint(&self, _queries_so_far: u64) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
    }
}

/// The machine's available parallelism (1 when undetectable).
pub fn available_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    json::escape_into(out, value);
    out.push_str("\",");
}

fn push_u64_field(out: &mut String, key: &str, value: u64) {
    out.push_str(&format!("\"{key}\":{value},"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_meter_never_trips() {
        let meter = Meter::unlimited();
        for _ in 0..1000 {
            meter.record_query();
            meter.record_transversal();
        }
        assert_eq!(meter.exceeded(), None);
        assert_eq!(meter.queries(), 1000);
        assert_eq!(meter.transversals(), 1000);
    }

    #[test]
    fn clamp_timeout_defaults_and_caps() {
        let ms = Duration::from_millis;
        // No policy: nothing changes.
        assert_eq!(
            Budget::UNLIMITED.clamp_timeout(None, None),
            (Budget::UNLIMITED, false)
        );
        // A default fills in a missing timeout.
        let (b, clamped) = Budget::UNLIMITED.clamp_timeout(Some(ms(50)), None);
        assert_eq!((b.timeout, clamped), (Some(ms(50)), true));
        // A client timeout under the cap is untouched.
        let client = Budget {
            timeout: Some(ms(20)),
            ..Budget::UNLIMITED
        };
        assert_eq!(
            client.clamp_timeout(Some(ms(50)), Some(ms(100))),
            (client, false)
        );
        // A client timeout over the cap is clamped down.
        let greedy = Budget {
            timeout: Some(ms(500)),
            max_queries: Some(9),
            ..Budget::UNLIMITED
        };
        let (b, clamped) = greedy.clamp_timeout(None, Some(ms(100)));
        assert_eq!((b.timeout, clamped), (Some(ms(100)), true));
        assert_eq!(b.max_queries, Some(9), "other axes pass through");
        // The default itself is subject to the cap.
        let (b, clamped) = Budget::UNLIMITED.clamp_timeout(Some(ms(500)), Some(ms(100)));
        assert_eq!((b.timeout, clamped), (Some(ms(100)), true));
    }

    #[test]
    fn query_limit_trips_at_threshold() {
        let meter = Budget {
            max_queries: Some(3),
            ..Budget::default()
        }
        .start();
        meter.record_queries(2);
        assert_eq!(meter.exceeded(), None);
        meter.record_query();
        assert_eq!(meter.exceeded(), Some(BudgetReason::MaxQueries));
    }

    #[test]
    fn transversal_limit_trips_at_threshold() {
        let meter = Budget {
            max_transversals: Some(2),
            ..Budget::default()
        }
        .start();
        meter.record_transversal();
        assert_eq!(meter.exceeded(), None);
        meter.record_transversal();
        assert_eq!(meter.exceeded(), Some(BudgetReason::MaxTransversals));
    }

    #[test]
    fn zero_timeout_trips_immediately() {
        let meter = Budget {
            timeout: Some(Duration::ZERO),
            ..Budget::default()
        }
        .start();
        assert_eq!(meter.exceeded(), Some(BudgetReason::Deadline));
    }

    #[test]
    fn cancellation_wins() {
        let meter = Meter::unlimited();
        assert_eq!(meter.exceeded(), None);
        meter.cancel();
        assert_eq!(meter.exceeded(), Some(BudgetReason::Cancelled));
    }

    #[test]
    fn outcome_accessors() {
        let c: Outcome<u32> = Outcome::Complete(7);
        assert!(c.is_complete());
        assert_eq!(c.reason(), None);
        assert_eq!(*c.value(), 7);
        assert_eq!(c.clone().into_parts(), (7, None));
        assert_eq!(c.map(|x| x + 1).expect_complete(), 8);

        let p: Outcome<u32> = Outcome::BudgetExceeded {
            partial: 3,
            reason: BudgetReason::Deadline,
        };
        assert!(!p.is_complete());
        assert_eq!(p.reason(), Some(BudgetReason::Deadline));
        assert_eq!(p.clone().into_value(), 3);
        assert_eq!(p.into_parts(), (3, Some(BudgetReason::Deadline)));
    }

    #[test]
    #[should_panic(expected = "budget unexpectedly exceeded")]
    fn expect_complete_panics_on_partial() {
        let p: Outcome<u32> = Outcome::BudgetExceeded {
            partial: 0,
            reason: BudgetReason::MaxQueries,
        };
        p.expect_complete();
    }

    #[test]
    fn collector_accumulates_and_renders_json() {
        let collector = StatsCollector::new();
        collector.set_threads(4);
        collector.on_phase_start("mine");
        collector.on_level(0, 1, 1);
        collector.on_level(1, 5, 3);
        collector.on_iteration(0, 4, true);
        collector.on_fk_calls(10);
        collector.on_transversals(6);
        collector.on_nodes(42);
        collector.on_phase_end("mine");

        let meter = Meter::unlimited();
        meter.record_queries(9);
        meter.record_transversals(6);

        let json = collector.to_json(&meter, None);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"outcome\":\"complete\""));
        assert!(json.contains("\"queries\":9"));
        assert!(json.contains("\"candidates\":6"));
        assert!(json.contains("\"transversals\":6"));
        assert!(json.contains("\"fk_calls\":10"));
        assert!(json.contains("\"nodes\":42"));
        assert!(json.contains("\"iterations\":1"));
        assert!(json.contains("\"counterexamples\":1"));
        assert!(json.contains("{\"level\":1,\"candidates\":5,\"interesting\":3}"));
        assert!(json.contains("\"name\":\"mine\""));
        assert!(json.contains("\"threads\":4"));
        assert!(json.contains("\"cpus\":"));
        assert!(json.contains("\"wall_ms\":"));

        let truncated = collector.to_json(&meter, Some(BudgetReason::Deadline));
        assert!(truncated.contains("\"outcome\":\"deadline\""));
    }

    #[test]
    fn dualize_stats_keys_appear_only_when_set() {
        let collector = StatsCollector::new();
        let meter = Meter::unlimited();
        let without = collector.to_json(&meter, None);
        assert!(!without.contains("planner_choice"));
        assert!(!without.contains("tr_nodes"));

        collector.set_dualize(DualizeStats {
            backend: "mu-mmcs".to_string(),
            rule: "dense-default".to_string(),
            nodes: Some(12),
            emitted: Some(5),
            minimality_prunes: Some(3),
            dead_branches: None,
            crit_removals: Some(7),
            crit_restores: Some(7),
            egm_splits: None,
            egm_leaves: None,
        });
        let with = collector.to_json(&meter, None);
        assert!(with.contains("\"planner_choice\":\"mu-mmcs\""));
        assert!(with.contains("\"planner_rule\":\"dense-default\""));
        assert!(with.contains("\"tr_nodes\":12"));
        assert!(with.contains("\"tr_minimality_prunes\":3"));
        assert!(with.contains("\"tr_crit_restores\":7"));
        assert!(!with.contains("tr_dead_branches"));
        assert!(!with.contains("tr_egm_splits"));
    }

    #[test]
    fn json_escaping() {
        let mut out = String::new();
        push_str_field(&mut out, "k", "a\"b\\c\nd");
        assert_eq!(out, "\"k\":\"a\\\"b\\\\c\\nd\",");
    }

    #[test]
    fn observer_object_is_sync_shareable() {
        let collector = StatsCollector::new();
        let meter = Meter::unlimited();
        let ctl = RunCtl::new(&meter, &collector);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    ctl.observer.on_nodes(1);
                    ctl.meter.record_query();
                });
            }
        });
        assert_eq!(collector.nodes(), 4);
        assert_eq!(meter.queries(), 4);
    }
}
