//! # dualminer-bench
//!
//! The experiment harness regenerating every reproducible artifact of the
//! PODS'97 paper: Figure 1 and the worked examples (E1), the query-count
//! identities and bounds of Theorems 2/10/12/21 and Corollaries 4/13/14/22
//! (E2–E4, E7–E9), the Corollary 15 polynomial HTR special case (E5), the
//! Example 19 blowup (E6), the learning corollaries 26–30 (E10–E11), and
//! the Section 5 key-discovery remark (E12).
//!
//! Run everything:
//!
//! ```text
//! cargo run -p dualminer-bench --release --bin experiments
//! ```
//!
//! or a subset: `… --bin experiments -- e5 e6`. The measured outputs are
//! recorded in the repository's `EXPERIMENTS.md`.
//!
//! Criterion micro-benchmarks live in `benches/` (one per ablation of
//! DESIGN.md §5 plus per-table timing benches).

pub mod exp;
pub mod table;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use dualminer_hypergraph::{plan, Hypergraph, TrAlgorithm};
use dualminer_obs::{Budget, Meter, NoopObserver, RunCtl};

/// Worker-thread budget the experiments pass to the parallel hot paths
/// (`0` = available parallelism, `1` = sequential). Results are identical
/// for every value; only wall-clock time changes.
static THREADS: AtomicUsize = AtomicUsize::new(1);

/// Sets the thread budget for subsequent experiments (`--threads` flag).
pub fn set_threads(threads: usize) {
    THREADS.store(threads, Ordering::Relaxed);
}

/// The thread budget experiments should pass to parallel entry points.
pub fn threads() -> usize {
    THREADS.load(Ordering::Relaxed)
}

/// `Tr(H)` with `algo` on `threads` workers, unbudgeted: the dispatcher
/// call the experiments and thread-sweep benches share.
pub fn dualize_with(h: &Hypergraph, algo: TrAlgorithm, threads: usize) -> Hypergraph {
    let meter = Meter::unlimited();
    let ctl = RunCtl::new(&meter, &NoopObserver);
    plan::dualize_ctl_report(h, algo, threads, &ctl)
        .0
        .expect_complete()
}

/// The harness-wide resource budget (`--timeout` / `--max-queries` /
/// `--max-transversals` flags). Unlimited unless [`set_budget`] ran first.
static METER: OnceLock<Meter> = OnceLock::new();

/// Starts the harness budget. Call once, before any experiment; later
/// calls are ignored (the meter is already ticking).
pub fn set_budget(budget: Budget) {
    let _ = METER.set(budget.start());
}

/// The started meter the harness checks between experiments. Experiments
/// that thread it into `*_ctl` entry points also charge their queries and
/// transversal emissions against it.
pub fn meter() -> &'static Meter {
    METER.get_or_init(Meter::unlimited)
}

/// All experiment ids, in presentation order.
pub const ALL_EXPERIMENTS: [&str; 14] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14",
];

/// Dispatches one experiment by id; returns `false` for unknown ids.
pub fn run_experiment(id: &str) -> bool {
    match id {
        "e1" => exp::e1::run(),
        "e2" => exp::e2::run(),
        "e3" => exp::e3::run(),
        "e4" => exp::e4::run(),
        "e5" => exp::e5::run(),
        "e6" => exp::e6::run(),
        "e7" => exp::e7::run(),
        "e8" => exp::e8::run(),
        "e9" => exp::e9::run(),
        "e10" => exp::e10::run(),
        "e11" => exp::e11::run(),
        "e12" => exp::e12::run(),
        "e13" => exp::e13::run(),
        "e14" => exp::e14::run(),
        _ => return false,
    }
    true
}
