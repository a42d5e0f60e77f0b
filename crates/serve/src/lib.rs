//! # dualminer-serve
//!
//! The mining-as-a-service runtime behind `dualminer serve`: everything a
//! long-lived daemon needs that a one-shot CLI run does not, split out of
//! the CLI so both frontends execute jobs through the *same* code and
//! therefore produce byte-identical results.
//!
//! The layering, bottom-up:
//!
//! * [`formats`] — the input-file parsers (baskets, CSV relations,
//!   hypergraphs, events), moved here from the CLI so both frontends
//!   share one parse.
//! * [`job`] — the job vocabulary: [`job::RunOpts`] (budgets, fault
//!   tolerance, checkpointing), [`job::Support`], and the flag-value
//!   parsers (`--timeout` durations, `--algo` spellings, support
//!   thresholds) reused by the CLI parser and the wire protocol.
//! * [`exec`] — the job runner both frontends call: read an input,
//!   pre-flight the budget, and run an op on its parsed input (engine
//!   routing, budget handling, checkpoint resume, output formatting),
//!   returning the rendered output with its exit code. The CLI prints
//!   it; the daemon caches and ships it.
//! * [`canon`] — the daemon's one parse: each input parsed into the value
//!   the runner takes, with its canonical fingerprint on top of
//!   [`dualminer_obs::fingerprint`]: whitespace/comment-equivalent
//!   inputs hash equal, and basket inputs record per-row prefix digests
//!   so appended-rows near-misses are recognized.
//! * [`cache`] — the bounded, sharded, LRU result cache keyed by
//!   (params fingerprint, content fingerprint), holding rendered bodies,
//!   stats artifacts, and the mined collections that power incremental
//!   re-mining.
//! * [`persist`] — crash-safe cache snapshots: the warm cache written
//!   through the checkpoint crate's atomic envelope on shutdown (and
//!   periodically) and restored on boot, so a restart keeps its hits.
//! * [`proto`] — the line-oriented JSON wire protocol: request parsing
//!   and response-event builders.
//! * [`server`] — the daemon: listeners, the bounded worker pool,
//!   admission control and load shedding, server-side deadlines,
//!   in-flight deduplication, cancellation, and clean shutdown.
//! * [`client`] — a small blocking client used by `dualminer request`,
//!   the integration tests, and the benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod canon;
pub mod client;
pub mod exec;
pub mod formats;
pub mod job;
pub mod persist;
pub mod proto;
pub mod server;
