//! Hand-rolled argument parsing (no external dependencies).
//!
//! The option *values* — run options, support thresholds, durations,
//! algorithm spellings — are shared with the daemon's wire protocol via
//! [`dualminer_serve::job`], so a flag and the corresponding JSON field
//! accept exactly the same syntax.

use std::time::Duration;

use dualminer_hypergraph::TrAlgorithm;
use dualminer_serve::job::{parse_algo, parse_duration, parse_support, validate_run};

pub use dualminer_serve::job::{RunOpts, Support};

/// Usage text shown on parse errors and `--help`.
pub const USAGE: &str = "\
dualminer — data mining, hypergraph transversals, and machine learning (PODS 1997)

USAGE:
    dualminer mine <baskets.txt> --min-support <N|0.x> [--rules <conf>] [--maximal]
                   [--threads <T>] [--segment-rows <N>] [RUN OPTIONS]
    dualminer keys <relation.csv> [--fds] [RUN OPTIONS]
    dualminer transversals <hypergraph.txt>
                   [--algo auto|berge|fk|levelwise|mu-mmcs|egm]
                   [--threads <T>] [RUN OPTIONS]
    dualminer verify-dual <f.txt> <g.txt>
    dualminer episodes <events.txt> --window <W> --min-freq <0.x> [--serial|--parallel]
                   [RUN OPTIONS]
    dualminer serve [--listen <host:port>] [--unix <path>] [--workers <N>]
                   [--cache-entries <N>] [--max-queue <N>]
                   [--max-inflight-per-conn <N>] [--default-timeout <D>]
                   [--max-timeout <D>] [--max-frame-bytes <N>]
                   [--max-rows <N>] [--max-items <N>] [--write-timeout <D>]
                   [--cache-persist <path>] [--cache-snapshot-every <N>]
    dualminer request <addr> (--json <line> | --json-file <path>) [--stats] [--quiet]
                   [--timeout <D>] [--retries <N>] [--retry-backoff-ms <N>]
    dualminer --help

SUBCOMMANDS:
    mine          frequent itemsets (and optionally association rules /
                  the maximal sets with their negative-border certificate)
    keys          minimal keys of a CSV relation, via agree sets + one
                  transversal computation; --fds adds minimal functional
                  dependencies for every right-hand side
    transversals  the minimal-transversal hypergraph Tr(H)
    verify-dual   decide whether g = Tr(f) without enumerating: prints
                  \"dual\" (exit 0) or \"not dual\" (exit 1)
    episodes      frequent serial/parallel episodes over sliding windows
    serve         long-running mining daemon: concurrent jobs over a
                  line-oriented JSON protocol (TCP and/or unix socket),
                  content-fingerprint result cache, incremental re-mining
                  of appended rows, in-flight request deduplication
    request       send one protocol line to a running daemon; prints the
                  result body to stdout (byte-identical to the one-shot
                  subcommand) and progress/notes to stderr

OPTIONS:
    --algo <A>     (transversals) engine selection; default auto, which
                   inspects the instance shape (edge count, rank, degrees)
                   and picks the expected winner: berge (few edges /
                   matchings), levelwise (co-sparse, Corollary 15),
                   mu-mmcs (dense default), egm (massive skewed families);
                   fk (Fredman–Khachiyan joint generation) runs only when
                   named. Every engine prints the identical canonical
                   output.
    --threads <T>  worker threads for the parallel hot paths (support
                   counting / transversal search); 0 = all available cores;
                   default 1 (sequential). Output is identical for every T.
    --segment-rows <N>  (mine) cap vertical-store row segments at N rows
                   (default 1024). A cache-blocking knob: the whole store
                   stays in memory and checkpoints still land at level
                   boundaries; output is identical for every N.
    --grain <G>    smallest index range a work-stealing task is split down
                   to (default 0 = adaptive: len/(threads*8)). Smaller
                   grains improve load balance on skewed workloads at the
                   cost of scheduling overhead; output is identical for
                   every G.

SERVE OPTIONS:
    --listen <host:port>  TCP listen address (port 0 = ephemeral; the
                          bound address is printed on startup). Default
                          127.0.0.1:0 when --unix is absent.
    --unix <path>         also (or only) listen on a unix socket
    --workers <N>         job worker pool size (0 = available cores)
    --cache-entries <N>   result-cache capacity in entries (default 256)
    --max-queue <N>       bound on queued jobs; past it new jobs are shed
                          with a typed `overloaded` error carrying a
                          retry_after_ms hint (default 1024)
    --max-inflight-per-conn <N>  bound on queued+running jobs from one
                          connection (default 64)
    --default-timeout <D> timeout applied to jobs that request none; the
                          deadline runs from admission, so queue time
                          counts (default: unlimited)
    --max-timeout <D>     upper clamp on any job timeout, requested or
                          defaulted (default: unlimited)
    --max-frame-bytes <N> bound on one request frame in bytes; an
                          oversized frame gets a typed `too_large` error
                          and the connection is closed (default 8 MiB)
    --max-rows <N>        reject inputs with more than N data rows with a
                          typed `too_large` error (default: unlimited)
    --max-items <N>       reject inputs with more than N distinct items
                          likewise (default: unlimited)
    --write-timeout <D>   per-connection write deadline; a client that
                          stops reading this long is disconnected rather
                          than wedging event emission (default 30s)
    --cache-persist <path>  snapshot the result cache to <path> on
                          shutdown (atomic tmp+fsync+rename, checksummed)
                          and restore it on boot; a corrupt snapshot
                          cold-starts with a warning
    --cache-snapshot-every <N>  additionally snapshot after every N
                          completed computations (0 = shutdown only)

REQUEST OPTIONS:
    --json <line>         the request: one JSON object (see DESIGN.md §15)
    --json-file <path>    read the request line from a file instead
    --stats               print the result's stats JSON as a final stdout
                          line (like --stats json on the one-shot CLI)
    --quiet               suppress streamed progress/note lines on stderr
    --timeout <D>         client-side read timeout per event wait; expiry
                          is a typed timeout error, exit 7 (default 2m)
    --retries <N>         on a typed `overloaded` error, reconnect and
                          retry up to N times, sleeping the larger of the
                          server's retry_after_ms hint and the local
                          backoff (default 0 = fail immediately)
    --retry-backoff-ms <N>  base of the deterministic exponential local
                          backoff used with --retries (default 100)

RUN OPTIONS (budget and observability, accepted by every subcommand):
    --timeout <D>           wall-clock budget, e.g. 500ms, 2s, 1m (bare
                            number = seconds). On expiry the run stops
                            cooperatively and reports its partial result.
    --max-queries <N>       stop after N oracle queries / candidate
                            evaluations
    --max-transversals <N>  stop after N enumerated minimal transversals
    --progress              print per-level / per-iteration progress to
                            stderr while the run advances
    --stats json            print one machine-readable JSON stats line
                            (queries, candidates, transversals, retries,
                            faults, checkpoints, per-phase wall time,
                            thread count) as the final line of stdout

FAULT TOLERANCE (accepted by every subcommand; any of these routes the run
through the fallible engines — `episodes` warns and ignores them):
    --retry <N>             retry a transiently failing oracle query up to
                            N times (deterministic, jitter-free backoff);
                            retries are metered separately and never count
                            against the Theorem 10/21 query totals
    --checkpoint <path>     save crash-safe progress snapshots to <path>
                            (atomic tmp-file + rename); resuming a killed
                            run reproduces the from-scratch result
                            bit-identically, query accounting included
    --checkpoint-every <N>  save at the first safe point after every N
                            queries (default 64)
    --resume                load <path> and continue from the last safe
                            point (requires --checkpoint; a missing file
                            starts from scratch)
    --fault-inject <spec>   seeded deterministic fault harness for testing,
                            e.g. seed=7,transient=0.1,burst=3@0,
                            permanent=42,latency=1ms

EXIT CODES:
    0 success   1 verify-dual: not dual   2 usage   3 input parse
    4 I/O or bad checkpoint   5 oracle fault survived the retry budget
    6 budget exceeded   7 connection or protocol failure (serve/request)

FILE FORMATS:
    baskets.txt     one transaction per line, whitespace-separated items
    relation.csv    header row of attribute names, then comma-separated rows
    hypergraph.txt  one edge per line, whitespace-separated vertex names
    events.txt      one event per line: <time> <type-name>";

/// A parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `mine` subcommand.
    Mine {
        /// Input basket file.
        path: String,
        /// Absolute (`≥ 1`) or relative (`(0,1)`) support threshold.
        min_support: Support,
        /// Minimum confidence for rule output (absent = no rules).
        rules: Option<f64>,
        /// Also print the maximal sets + negative border.
        maximal: bool,
        /// Worker threads for support counting (0 = auto, 1 = sequential).
        threads: usize,
        /// Vertical-store segment row cap (`--segment-rows`, default 1024).
        segment_rows: Option<usize>,
        /// Budget / observability options.
        run: RunOpts,
    },
    /// `keys` subcommand.
    Keys {
        /// Input CSV relation.
        path: String,
        /// Also derive minimal FDs per attribute.
        fds: bool,
        /// Budget / observability options.
        run: RunOpts,
    },
    /// `transversals` subcommand.
    Transversals {
        /// Input hypergraph file.
        path: String,
        /// Engine selection.
        algo: TrAlgorithm,
        /// Worker threads for the search (0 = auto, 1 = sequential).
        threads: usize,
        /// Budget / observability options.
        run: RunOpts,
    },
    /// `verify-dual` subcommand.
    VerifyDual {
        /// First hypergraph file.
        f_path: String,
        /// Second hypergraph file (checked to be `Tr` of the first).
        g_path: String,
    },
    /// `episodes` subcommand.
    Episodes {
        /// Input events file.
        path: String,
        /// Window width.
        window: u64,
        /// Minimum window frequency in (0, 1].
        min_freq: f64,
        /// Mine serial (ordered) episodes instead of parallel ones.
        serial: bool,
        /// Budget / observability options.
        run: RunOpts,
    },
    /// `serve` subcommand: the mining daemon.
    Serve {
        /// TCP listen address (`--listen`; default 127.0.0.1:0 when no
        /// unix socket is given).
        listen: Option<String>,
        /// Unix socket path (`--unix`).
        unix: Option<String>,
        /// Worker-pool size (`--workers`, 0 = available cores).
        workers: usize,
        /// Result-cache capacity (`--cache-entries`, 0 = default 256).
        cache_entries: usize,
        /// Queued-job bound (`--max-queue`, 0 = default 1024).
        max_queue: usize,
        /// Per-connection in-flight bound (`--max-inflight-per-conn`,
        /// 0 = default 64).
        max_inflight_per_conn: usize,
        /// Timeout for jobs that request none (`--default-timeout`).
        default_timeout: Option<Duration>,
        /// Upper clamp on any job timeout (`--max-timeout`).
        max_timeout: Option<Duration>,
        /// Request-frame byte bound (`--max-frame-bytes`, 0 = 8 MiB).
        max_frame_bytes: usize,
        /// Input row bound (`--max-rows`, 0 = unlimited).
        max_rows: u64,
        /// Distinct-item bound (`--max-items`, 0 = unlimited).
        max_items: u64,
        /// Per-connection write deadline (`--write-timeout`).
        write_timeout: Option<Duration>,
        /// Cache snapshot path (`--cache-persist`).
        cache_persist: Option<String>,
        /// Periodic snapshot cadence (`--cache-snapshot-every`,
        /// 0 = shutdown only).
        cache_snapshot_every: u64,
    },
    /// `request` subcommand: one protocol round trip against a daemon.
    Request {
        /// Server address: `host:port`, a socket path, or `unix:<path>`.
        addr: String,
        /// The request line (`--json`).
        json: Option<String>,
        /// Read the request line from this file (`--json-file`).
        json_file: Option<String>,
        /// Print the result's stats JSON as a final stdout line.
        stats: bool,
        /// Suppress streamed progress/note lines on stderr.
        quiet: bool,
        /// Client-side read timeout (`--timeout`; default 2 minutes).
        timeout: Option<Duration>,
        /// Retries on a typed `overloaded` error (`--retries`).
        retries: u32,
        /// Base of the local exponential backoff (`--retry-backoff-ms`,
        /// default 100).
        retry_backoff_ms: u64,
    },
    /// `--help`.
    Help,
}

impl Command {
    /// The shared run options, for every subcommand that carries them.
    pub fn run_opts(&self) -> Option<&RunOpts> {
        match self {
            Command::Mine { run, .. }
            | Command::Keys { run, .. }
            | Command::Transversals { run, .. }
            | Command::Episodes { run, .. } => Some(run),
            Command::VerifyDual { .. }
            | Command::Serve { .. }
            | Command::Request { .. }
            | Command::Help => None,
        }
    }
}

fn parse_threads(s: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .map_err(|_| format!("invalid --threads value {s:?} (want integer ≥ 0; 0 = auto)"))
}

/// Tries to consume one of the shared RUN OPTIONS flags. Returns
/// `Ok(true)` when `flag` was one of them (its value, if any, has been
/// consumed from `it`), `Ok(false)` when the caller should handle it.
fn parse_run_flag<'a, I: Iterator<Item = &'a String>>(
    flag: &str,
    it: &mut I,
    run: &mut RunOpts,
) -> Result<bool, String> {
    match flag {
        "--timeout" => {
            let v = it.next().ok_or("--timeout needs a duration")?;
            run.timeout = Some(parse_duration(v)?);
        }
        "--max-queries" => {
            let v = it.next().ok_or("--max-queries needs a value")?;
            run.max_queries = Some(
                v.parse::<u64>()
                    .map_err(|_| format!("invalid --max-queries value {v:?}"))?,
            );
        }
        "--max-transversals" => {
            let v = it.next().ok_or("--max-transversals needs a value")?;
            run.max_transversals = Some(
                v.parse::<u64>()
                    .map_err(|_| format!("invalid --max-transversals value {v:?}"))?,
            );
        }
        "--progress" => run.progress = true,
        "--stats" => {
            let v = it.next().ok_or("--stats needs a format (json)")?;
            if v != "json" {
                return Err(format!("unknown --stats format {v:?} (only json)"));
            }
            run.stats_json = true;
        }
        "--fault-inject" => {
            let v = it
                .next()
                .ok_or("--fault-inject needs a spec (e.g. seed=7,transient=0.1)")?;
            run.fault_inject = Some(dualminer_obs::FaultSpec::parse(v)?);
        }
        "--retry" => {
            let v = it.next().ok_or("--retry needs a count")?;
            run.retry = v
                .parse::<u32>()
                .map_err(|_| format!("invalid --retry value {v:?} (want integer ≥ 0)"))?;
        }
        "--checkpoint" => {
            let v = it.next().ok_or("--checkpoint needs a file path")?;
            run.checkpoint = Some(v.clone());
        }
        "--checkpoint-every" => {
            let v = it.next().ok_or("--checkpoint-every needs a value")?;
            let every = v
                .parse::<u64>()
                .map_err(|_| format!("invalid --checkpoint-every value {v:?}"))?;
            if every == 0 {
                return Err("--checkpoint-every must be ≥ 1".into());
            }
            run.checkpoint_every = Some(every);
        }
        "--grain" => {
            let v = it.next().ok_or("--grain needs a value")?;
            run.grain = Some(v.parse::<usize>().map_err(|_| {
                format!("invalid --grain value {v:?} (want integer ≥ 0; 0 = auto)")
            })?);
        }
        "--resume" => run.resume = true,
        _ => return Ok(false),
    }
    Ok(true)
}

/// Parses an argument vector (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let cmd = parse_inner(argv)?;
    if let Some(run) = cmd.run_opts() {
        validate_run(run)?;
    }
    Ok(cmd)
}

fn parse_inner(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter().peekable();
    let sub = it.next().ok_or("missing subcommand")?;
    if sub == "--help" || sub == "-h" || sub == "help" {
        return Ok(Command::Help);
    }
    match sub.as_str() {
        "mine" => {
            let path = it.next().ok_or("mine: missing input file")?.clone();
            let mut min_support = None;
            let mut rules = None;
            let mut maximal = false;
            let mut threads = 1;
            let mut segment_rows = None;
            let mut run = RunOpts::default();
            while let Some(flag) = it.next() {
                if parse_run_flag(flag, &mut it, &mut run)? {
                    continue;
                }
                match flag.as_str() {
                    "--min-support" => {
                        let v = it.next().ok_or("--min-support needs a value")?;
                        min_support = Some(parse_support(v)?);
                    }
                    "--threads" => {
                        let v = it.next().ok_or("--threads needs a value")?;
                        threads = parse_threads(v)?;
                    }
                    "--segment-rows" => {
                        let v = it.next().ok_or("--segment-rows needs a value")?;
                        let rows = v.parse::<usize>().map_err(|_| {
                            format!("invalid --segment-rows value {v:?} (want integer ≥ 1)")
                        })?;
                        if rows == 0 {
                            return Err("--segment-rows must be ≥ 1".into());
                        }
                        segment_rows = Some(rows);
                    }
                    "--rules" => {
                        let v = it.next().ok_or("--rules needs a confidence value")?;
                        let c: f64 = v.parse().map_err(|_| format!("invalid confidence {v:?}"))?;
                        if !(0.0..=1.0).contains(&c) {
                            return Err("confidence must be in [0, 1]".into());
                        }
                        rules = Some(c);
                    }
                    "--maximal" => maximal = true,
                    other => return Err(format!("mine: unknown flag {other:?}")),
                }
            }
            Ok(Command::Mine {
                path,
                min_support: min_support.ok_or("mine: --min-support is required")?,
                rules,
                maximal,
                threads,
                segment_rows,
                run,
            })
        }
        "keys" => {
            let path = it.next().ok_or("keys: missing input file")?.clone();
            let mut fds = false;
            let mut run = RunOpts::default();
            while let Some(flag) = it.next() {
                if parse_run_flag(flag, &mut it, &mut run)? {
                    continue;
                }
                match flag.as_str() {
                    "--fds" => fds = true,
                    other => return Err(format!("keys: unknown flag {other:?}")),
                }
            }
            Ok(Command::Keys { path, fds, run })
        }
        "transversals" => {
            let path = it.next().ok_or("transversals: missing input file")?.clone();
            let mut algo = TrAlgorithm::Auto;
            let mut threads = 1;
            let mut run = RunOpts::default();
            while let Some(flag) = it.next() {
                if parse_run_flag(flag, &mut it, &mut run)? {
                    continue;
                }
                match flag.as_str() {
                    "--threads" => {
                        let v = it.next().ok_or("--threads needs a value")?;
                        threads = parse_threads(v)?;
                    }
                    "--algo" => {
                        let v = it.next().ok_or("--algo needs a value")?;
                        algo = parse_algo(v)?;
                    }
                    other => return Err(format!("transversals: unknown flag {other:?}")),
                }
            }
            Ok(Command::Transversals {
                path,
                algo,
                threads,
                run,
            })
        }
        "verify-dual" => {
            let f_path = it.next().ok_or("verify-dual: missing first file")?.clone();
            let g_path = it.next().ok_or("verify-dual: missing second file")?.clone();
            if let Some(extra) = it.next() {
                return Err(format!("verify-dual: unexpected argument {extra:?}"));
            }
            Ok(Command::VerifyDual { f_path, g_path })
        }
        "episodes" => {
            let path = it.next().ok_or("episodes: missing input file")?.clone();
            let mut window = None;
            let mut min_freq = None;
            let mut serial = false;
            let mut run = RunOpts::default();
            while let Some(flag) = it.next() {
                if parse_run_flag(flag, &mut it, &mut run)? {
                    continue;
                }
                match flag.as_str() {
                    "--window" => {
                        let v = it.next().ok_or("--window needs a value")?;
                        let w: u64 = v.parse().map_err(|_| format!("invalid window {v:?}"))?;
                        if w == 0 {
                            return Err("--window must be positive".into());
                        }
                        window = Some(w);
                    }
                    "--min-freq" => {
                        let v = it.next().ok_or("--min-freq needs a value")?;
                        let f: f64 = v.parse().map_err(|_| format!("invalid frequency {v:?}"))?;
                        if !(f > 0.0 && f <= 1.0) {
                            return Err("--min-freq must be in (0, 1]".into());
                        }
                        min_freq = Some(f);
                    }
                    "--serial" => serial = true,
                    "--parallel" => serial = false,
                    other => return Err(format!("episodes: unknown flag {other:?}")),
                }
            }
            Ok(Command::Episodes {
                path,
                window: window.ok_or("episodes: --window is required")?,
                min_freq: min_freq.ok_or("episodes: --min-freq is required")?,
                serial,
                run,
            })
        }
        "serve" => {
            let mut listen = None;
            let mut unix = None;
            let mut workers = 0;
            let mut cache_entries = 0;
            let mut max_queue = 0;
            let mut max_inflight_per_conn = 0;
            let mut default_timeout = None;
            let mut max_timeout = None;
            let mut max_frame_bytes = 0;
            let mut max_rows = 0;
            let mut max_items = 0;
            let mut write_timeout = None;
            let mut cache_persist = None;
            let mut cache_snapshot_every = 0;
            // Counted flags where 0 would disable the protection entirely
            // are rejected; "unlimited" is expressed by omitting the flag.
            let positive = |flag: &str, v: &str| -> Result<usize, String> {
                let n = v
                    .parse::<usize>()
                    .map_err(|_| format!("invalid {flag} value {v:?} (want integer ≥ 1)"))?;
                if n == 0 {
                    return Err(format!("{flag} must be ≥ 1"));
                }
                Ok(n)
            };
            let duration = |flag: &str, v: &str| -> Result<Duration, String> {
                let d = parse_duration(v).map_err(|e| format!("{flag}: {e}"))?;
                if d.is_zero() {
                    return Err(format!("{flag} must be nonzero"));
                }
                Ok(d)
            };
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--listen" => {
                        listen = Some(it.next().ok_or("--listen needs an address")?.clone());
                    }
                    "--unix" => {
                        unix = Some(it.next().ok_or("--unix needs a socket path")?.clone());
                    }
                    "--workers" => {
                        let v = it.next().ok_or("--workers needs a value")?;
                        workers = v.parse::<usize>().map_err(|_| {
                            format!("invalid --workers value {v:?} (want integer ≥ 0; 0 = auto)")
                        })?;
                    }
                    "--cache-entries" => {
                        let v = it.next().ok_or("--cache-entries needs a value")?;
                        cache_entries = positive("--cache-entries", v)?;
                    }
                    "--max-queue" => {
                        let v = it.next().ok_or("--max-queue needs a value")?;
                        max_queue = positive("--max-queue", v)?;
                    }
                    "--max-inflight-per-conn" => {
                        let v = it.next().ok_or("--max-inflight-per-conn needs a value")?;
                        max_inflight_per_conn = positive("--max-inflight-per-conn", v)?;
                    }
                    "--default-timeout" => {
                        let v = it.next().ok_or("--default-timeout needs a duration")?;
                        default_timeout = Some(duration("--default-timeout", v)?);
                    }
                    "--max-timeout" => {
                        let v = it.next().ok_or("--max-timeout needs a duration")?;
                        max_timeout = Some(duration("--max-timeout", v)?);
                    }
                    "--max-frame-bytes" => {
                        let v = it.next().ok_or("--max-frame-bytes needs a value")?;
                        max_frame_bytes = positive("--max-frame-bytes", v)?;
                    }
                    "--max-rows" => {
                        let v = it.next().ok_or("--max-rows needs a value")?;
                        max_rows = positive("--max-rows", v)? as u64;
                    }
                    "--max-items" => {
                        let v = it.next().ok_or("--max-items needs a value")?;
                        max_items = positive("--max-items", v)? as u64;
                    }
                    "--write-timeout" => {
                        let v = it.next().ok_or("--write-timeout needs a duration")?;
                        write_timeout = Some(duration("--write-timeout", v)?);
                    }
                    "--cache-persist" => {
                        cache_persist =
                            Some(it.next().ok_or("--cache-persist needs a path")?.clone());
                    }
                    "--cache-snapshot-every" => {
                        let v = it.next().ok_or("--cache-snapshot-every needs a value")?;
                        cache_snapshot_every = v.parse::<u64>().map_err(|_| {
                            format!(
                                "invalid --cache-snapshot-every value {v:?} \
                                 (want integer ≥ 0; 0 = shutdown only)"
                            )
                        })?;
                    }
                    other => return Err(format!("serve: unknown flag {other:?}")),
                }
            }
            if cache_snapshot_every > 0 && cache_persist.is_none() {
                return Err("--cache-snapshot-every requires --cache-persist".into());
            }
            Ok(Command::Serve {
                listen,
                unix,
                workers,
                cache_entries,
                max_queue,
                max_inflight_per_conn,
                default_timeout,
                max_timeout,
                max_frame_bytes,
                max_rows,
                max_items,
                write_timeout,
                cache_persist,
                cache_snapshot_every,
            })
        }
        "request" => {
            let addr = it.next().ok_or("request: missing server address")?.clone();
            let mut json = None;
            let mut json_file = None;
            let mut stats = false;
            let mut quiet = false;
            let mut timeout = None;
            let mut retries = 0;
            let mut retry_backoff_ms = 100;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--json" => {
                        json = Some(it.next().ok_or("--json needs a request line")?.clone());
                    }
                    "--json-file" => {
                        json_file = Some(it.next().ok_or("--json-file needs a path")?.clone());
                    }
                    "--stats" => stats = true,
                    "--quiet" => quiet = true,
                    "--timeout" => {
                        let v = it.next().ok_or("--timeout needs a duration")?;
                        let d = parse_duration(v).map_err(|e| format!("--timeout: {e}"))?;
                        if d.is_zero() {
                            return Err("--timeout must be nonzero".into());
                        }
                        timeout = Some(d);
                    }
                    "--retries" => {
                        let v = it.next().ok_or("--retries needs a value")?;
                        retries = v.parse::<u32>().map_err(|_| {
                            format!("invalid --retries value {v:?} (want integer ≥ 0)")
                        })?;
                    }
                    "--retry-backoff-ms" => {
                        let v = it.next().ok_or("--retry-backoff-ms needs a value")?;
                        retry_backoff_ms = v.parse::<u64>().map_err(|_| {
                            format!("invalid --retry-backoff-ms value {v:?} (want integer ≥ 0)")
                        })?;
                    }
                    other => return Err(format!("request: unknown flag {other:?}")),
                }
            }
            if json.is_some() == json_file.is_some() {
                return Err("request: exactly one of --json or --json-file is required".into());
            }
            Ok(Command::Request {
                addr,
                json,
                json_file,
                stats,
                quiet,
                timeout,
                retries,
                retry_backoff_ms,
            })
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_mine_full() {
        let cmd = parse(&v(&[
            "mine",
            "b.txt",
            "--min-support",
            "0.1",
            "--rules",
            "0.8",
            "--maximal",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Mine {
                path: "b.txt".into(),
                min_support: Support::Relative(0.1),
                rules: Some(0.8),
                maximal: true,
                threads: 1,
                segment_rows: None,
                run: RunOpts::default(),
            }
        );
    }

    #[test]
    fn parse_run_options_on_every_subcommand() {
        let run = RunOpts {
            timeout: Some(Duration::from_millis(500)),
            max_queries: Some(1000),
            max_transversals: Some(64),
            progress: true,
            stats_json: true,
            ..RunOpts::default()
        };
        let shared = [
            "--timeout",
            "500ms",
            "--max-queries",
            "1000",
            "--max-transversals",
            "64",
            "--progress",
            "--stats",
            "json",
        ];
        let mut mine = v(&["mine", "b.txt", "--min-support", "2"]);
        mine.extend(shared.iter().map(|s| s.to_string()));
        assert!(matches!(parse(&mine).unwrap(), Command::Mine { run: r, .. } if r == run));
        let mut keys = v(&["keys", "r.csv"]);
        keys.extend(shared.iter().map(|s| s.to_string()));
        assert!(matches!(parse(&keys).unwrap(), Command::Keys { run: r, .. } if r == run));
        let mut tr = v(&["transversals", "h.txt"]);
        tr.extend(shared.iter().map(|s| s.to_string()));
        assert!(matches!(parse(&tr).unwrap(), Command::Transversals { run: r, .. } if r == run));
        let mut ep = v(&["episodes", "e.txt", "--window", "5", "--min-freq", "0.2"]);
        ep.extend(shared.iter().map(|s| s.to_string()));
        assert!(matches!(parse(&ep).unwrap(), Command::Episodes { run: r, .. } if r == run));
    }

    #[test]
    fn durations() {
        assert_eq!(parse_duration("500ms").unwrap(), Duration::from_millis(500));
        assert_eq!(parse_duration("2s").unwrap(), Duration::from_secs(2));
        assert_eq!(parse_duration("3").unwrap(), Duration::from_secs(3));
        assert_eq!(parse_duration("1m").unwrap(), Duration::from_secs(60));
        assert_eq!(parse_duration("250us").unwrap(), Duration::from_micros(250));
        assert_eq!(parse_duration("0").unwrap(), Duration::ZERO);
        assert_eq!(parse_duration("1.5s").unwrap(), Duration::from_millis(1500));
        assert!(parse_duration("abc").is_err());
        assert!(parse_duration("5h").is_err());
        assert!(parse(&v(&["keys", "r.csv", "--timeout", "xx"])).is_err());
        assert!(parse(&v(&["keys", "r.csv", "--stats", "xml"])).is_err());
        assert!(parse(&v(&["keys", "r.csv", "--stats"])).is_err());
    }

    #[test]
    fn parse_mine_absolute_support() {
        let cmd = parse(&v(&["mine", "b.txt", "--min-support", "5"])).unwrap();
        match cmd {
            Command::Mine {
                min_support,
                rules,
                maximal,
                threads,
                ..
            } => {
                assert_eq!(min_support, Support::Absolute(5));
                assert_eq!(rules, None);
                assert!(!maximal);
                assert_eq!(threads, 1);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parse_threads_flag() {
        let cmd = parse(&v(&[
            "mine",
            "b.txt",
            "--min-support",
            "2",
            "--threads",
            "4",
        ]))
        .unwrap();
        assert!(matches!(cmd, Command::Mine { threads: 4, .. }));
        let cmd = parse(&v(&["transversals", "h.txt", "--threads", "0"])).unwrap();
        assert!(matches!(cmd, Command::Transversals { threads: 0, .. }));
        let cmd = parse(&v(&[
            "mine",
            "b.txt",
            "--min-support",
            "2",
            "--segment-rows",
            "128",
        ]))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Mine {
                segment_rows: Some(128),
                ..
            }
        ));
        assert!(parse(&v(&[
            "mine",
            "b.txt",
            "--min-support",
            "2",
            "--segment-rows",
            "0"
        ]))
        .is_err());
        assert!(parse(&v(&[
            "mine",
            "b.txt",
            "--min-support",
            "2",
            "--segment-rows",
            "x"
        ]))
        .is_err());
        assert!(parse(&v(&["mine", "b.txt", "--min-support", "2", "--threads"])).is_err());
        assert!(parse(&v(&["transversals", "h.txt", "--threads", "x"])).is_err());
    }

    #[test]
    fn segment_rows_zero_is_a_usage_error() {
        // Degenerate segmentation must die at the flag parser (exit 2 in
        // main), never deep inside the vertical store.
        let err = parse(&v(&[
            "mine",
            "b.txt",
            "--min-support",
            "2",
            "--segment-rows",
            "0",
        ]))
        .unwrap_err();
        assert!(err.contains("--segment-rows"), "unhelpful error: {err}");
    }

    #[test]
    fn parse_grain_flag() {
        let cmd = parse(&v(&[
            "mine",
            "b.txt",
            "--min-support",
            "2",
            "--grain",
            "16",
        ]))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Mine {
                run: RunOpts {
                    grain: Some(16),
                    ..
                },
                ..
            }
        ));
        // 0 is the explicit "adaptive auto" request, distinct from unset.
        let cmd = parse(&v(&["transversals", "h.txt", "--grain", "0"])).unwrap();
        assert!(matches!(
            cmd,
            Command::Transversals {
                run: RunOpts { grain: Some(0), .. },
                ..
            }
        ));
        let cmd = parse(&v(&["keys", "r.csv"])).unwrap();
        assert!(matches!(
            cmd,
            Command::Keys {
                run: RunOpts { grain: None, .. },
                ..
            }
        ));
        assert!(parse(&v(&["keys", "r.csv", "--grain"])).is_err());
        assert!(parse(&v(&["keys", "r.csv", "--grain", "-1"])).is_err());
        assert!(parse(&v(&["keys", "r.csv", "--grain", "x"])).is_err());
    }

    #[test]
    fn mine_requires_support() {
        assert!(parse(&v(&["mine", "b.txt"])).is_err());
        assert!(parse(&v(&["mine", "b.txt", "--min-support", "0"])).is_err());
        assert!(parse(&v(&["mine", "b.txt", "--min-support", "1.5"])).is_err());
    }

    #[test]
    fn parse_keys_and_transversals() {
        assert_eq!(
            parse(&v(&["keys", "r.csv", "--fds"])).unwrap(),
            Command::Keys {
                path: "r.csv".into(),
                fds: true,
                run: RunOpts::default(),
            }
        );
        assert_eq!(
            parse(&v(&["transversals", "h.txt", "--algo", "mu-mmcs"])).unwrap(),
            Command::Transversals {
                path: "h.txt".into(),
                algo: TrAlgorithm::MuMmcs,
                threads: 1,
                run: RunOpts::default(),
            }
        );
        assert!(parse(&v(&["transversals", "h.txt", "--algo", "zzz"])).is_err());
    }

    #[test]
    fn transversals_algo_spellings() {
        // The default is the planner.
        let cmd = parse(&v(&["transversals", "h.txt"])).unwrap();
        assert!(matches!(
            cmd,
            Command::Transversals {
                algo: TrAlgorithm::Auto,
                ..
            }
        ));
        for (name, algo) in [
            ("auto", TrAlgorithm::Auto),
            ("berge", TrAlgorithm::Berge),
            ("fk", TrAlgorithm::FkJointGeneration),
            ("levelwise", TrAlgorithm::LevelwiseLargeEdges),
            ("mu-mmcs", TrAlgorithm::MuMmcs),
            ("egm", TrAlgorithm::Egm),
        ] {
            let cmd = parse(&v(&["transversals", "h.txt", "--algo", name])).unwrap();
            assert!(
                matches!(cmd, Command::Transversals { algo: a, .. } if a == algo),
                "{name}"
            );
        }
        // "mmcs" named the list-based engine MU-MMCS replaced; no alias.
        for bogus in ["bogus", "mmcs"] {
            let err = parse(&v(&["transversals", "h.txt", "--algo", bogus])).unwrap_err();
            assert!(err.contains("unknown --algo"), "unhelpful: {err}");
            assert!(err.contains("mu-mmcs"), "should list spellings: {err}");
        }
    }

    #[test]
    fn parse_verify_dual() {
        assert_eq!(
            parse(&v(&["verify-dual", "f.txt", "g.txt"])).unwrap(),
            Command::VerifyDual {
                f_path: "f.txt".into(),
                g_path: "g.txt".into(),
            }
        );
        assert!(parse(&v(&["verify-dual", "f.txt"])).is_err());
        assert!(parse(&v(&["verify-dual", "f.txt", "g.txt", "h.txt"])).is_err());
    }

    #[test]
    fn parse_episodes() {
        let cmd = parse(&v(&[
            "episodes",
            "e.txt",
            "--window",
            "5",
            "--min-freq",
            "0.2",
            "--serial",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Episodes {
                path: "e.txt".into(),
                window: 5,
                min_freq: 0.2,
                serial: true,
                run: RunOpts::default(),
            }
        );
        assert!(parse(&v(&["episodes", "e.txt", "--window", "5"])).is_err());
        assert!(parse(&v(&[
            "episodes",
            "e.txt",
            "--window",
            "0",
            "--min-freq",
            "0.2"
        ]))
        .is_err());
        assert!(parse(&v(&[
            "episodes",
            "e.txt",
            "--window",
            "5",
            "--min-freq",
            "2"
        ]))
        .is_err());
    }

    #[test]
    fn parse_serve() {
        assert_eq!(
            parse(&v(&["serve"])).unwrap(),
            Command::Serve {
                listen: None,
                unix: None,
                workers: 0,
                cache_entries: 0,
                max_queue: 0,
                max_inflight_per_conn: 0,
                default_timeout: None,
                max_timeout: None,
                max_frame_bytes: 0,
                max_rows: 0,
                max_items: 0,
                write_timeout: None,
                cache_persist: None,
                cache_snapshot_every: 0,
            }
        );
        assert_eq!(
            parse(&v(&[
                "serve",
                "--listen",
                "127.0.0.1:7878",
                "--unix",
                "/tmp/dm.sock",
                "--workers",
                "4",
                "--cache-entries",
                "128",
                "--max-queue",
                "32",
                "--max-inflight-per-conn",
                "8",
                "--default-timeout",
                "2s",
                "--max-timeout",
                "1m",
                "--max-frame-bytes",
                "65536",
                "--max-rows",
                "10000",
                "--max-items",
                "500",
                "--write-timeout",
                "250ms",
                "--cache-persist",
                "/tmp/dm.cache",
                "--cache-snapshot-every",
                "16",
            ]))
            .unwrap(),
            Command::Serve {
                listen: Some("127.0.0.1:7878".into()),
                unix: Some("/tmp/dm.sock".into()),
                workers: 4,
                cache_entries: 128,
                max_queue: 32,
                max_inflight_per_conn: 8,
                default_timeout: Some(Duration::from_secs(2)),
                max_timeout: Some(Duration::from_secs(60)),
                max_frame_bytes: 65536,
                max_rows: 10000,
                max_items: 500,
                write_timeout: Some(Duration::from_millis(250)),
                cache_persist: Some("/tmp/dm.cache".into()),
                cache_snapshot_every: 16,
            }
        );
        assert!(parse(&v(&["serve", "--listen"])).is_err());
        assert!(parse(&v(&["serve", "--workers", "x"])).is_err());
        assert!(parse(&v(&["serve", "--cache-entries", "0"])).is_err());
        assert!(parse(&v(&["serve", "--bogus"])).is_err());
        // Zero would disable the protection; require omission instead.
        assert!(parse(&v(&["serve", "--max-queue", "0"])).is_err());
        assert!(parse(&v(&["serve", "--max-inflight-per-conn", "0"])).is_err());
        assert!(parse(&v(&["serve", "--max-frame-bytes", "0"])).is_err());
        assert!(parse(&v(&["serve", "--max-rows", "0"])).is_err());
        assert!(parse(&v(&["serve", "--default-timeout", "0"])).is_err());
        assert!(parse(&v(&["serve", "--write-timeout", "0"])).is_err());
        assert!(parse(&v(&["serve", "--max-timeout", "nope"])).is_err());
        // Periodic snapshots without a snapshot path make no sense.
        assert!(parse(&v(&["serve", "--cache-snapshot-every", "4"])).is_err());
    }

    #[test]
    fn parse_request_subcommand() {
        assert_eq!(
            parse(&v(&["request", "127.0.0.1:7878", "--json", "{}"])).unwrap(),
            Command::Request {
                addr: "127.0.0.1:7878".into(),
                json: Some("{}".into()),
                json_file: None,
                stats: false,
                quiet: false,
                timeout: None,
                retries: 0,
                retry_backoff_ms: 100,
            }
        );
        assert_eq!(
            parse(&v(&[
                "request",
                "unix:/tmp/dm.sock",
                "--json-file",
                "req.json",
                "--stats",
                "--quiet",
                "--timeout",
                "5s",
                "--retries",
                "3",
                "--retry-backoff-ms",
                "50",
            ]))
            .unwrap(),
            Command::Request {
                addr: "unix:/tmp/dm.sock".into(),
                json: None,
                json_file: Some("req.json".into()),
                stats: true,
                quiet: true,
                timeout: Some(Duration::from_secs(5)),
                retries: 3,
                retry_backoff_ms: 50,
            }
        );
        // Exactly one request source.
        assert!(parse(&v(&["request", "a:1"])).is_err());
        assert!(parse(&v(&["request", "a:1", "--json", "{}", "--json-file", "f"])).is_err());
        assert!(parse(&v(&["request"])).is_err());
        assert!(parse(&v(&["request", "a:1", "--json", "{}", "--timeout", "0"])).is_err());
        assert!(parse(&v(&["request", "a:1", "--json", "{}", "--retries", "x"])).is_err());
    }

    #[test]
    fn parse_fault_tolerance_flags() {
        let cmd = parse(&v(&[
            "mine",
            "b.txt",
            "--min-support",
            "2",
            "--retry",
            "3",
            "--checkpoint",
            "run.ckpt",
            "--checkpoint-every",
            "5",
            "--resume",
            "--fault-inject",
            "seed=7,transient=0.1",
        ]))
        .unwrap();
        let Command::Mine { run, .. } = cmd else {
            panic!("wrong command");
        };
        assert!(run.fault_tolerant());
        assert_eq!(run.retry, 3);
        assert_eq!(run.retry_policy().max_retries, 3);
        assert_eq!(run.checkpoint.as_deref(), Some("run.ckpt"));
        assert_eq!(run.checkpoint_cadence(), 5);
        assert!(run.resume);
        let spec = run.fault_inject.unwrap();
        assert_eq!(spec.seed, 7);
        assert!((spec.transient_prob - 0.1).abs() < 1e-12);

        // Defaults: not fault-tolerant, cadence 64.
        let plain = RunOpts::default();
        assert!(!plain.fault_tolerant());
        assert_eq!(plain.checkpoint_cadence(), 64);
        assert_eq!(plain.retry_policy().max_retries, 0);
    }

    #[test]
    fn fault_tolerance_flags_on_every_subcommand() {
        let shared = ["--retry", "2", "--checkpoint", "c.ckpt"];
        for base in [
            v(&["mine", "b.txt", "--min-support", "2"]),
            v(&["keys", "r.csv"]),
            v(&["transversals", "h.txt"]),
            v(&["episodes", "e.txt", "--window", "5", "--min-freq", "0.2"]),
        ] {
            let mut argv = base;
            argv.extend(shared.iter().map(|s| s.to_string()));
            let cmd = parse(&argv).unwrap();
            let run = cmd.run_opts().unwrap();
            assert!(run.fault_tolerant());
            assert_eq!(run.retry, 2);
        }
    }

    #[test]
    fn fault_tolerance_flag_errors() {
        assert!(parse(&v(&["keys", "r.csv", "--retry", "x"])).is_err());
        assert!(parse(&v(&["keys", "r.csv", "--retry"])).is_err());
        assert!(parse(&v(&["keys", "r.csv", "--fault-inject", "seed=zz"])).is_err());
        assert!(parse(&v(&[
            "keys",
            "r.csv",
            "--checkpoint-every",
            "0",
            "--checkpoint",
            "c"
        ]))
        .is_err());
        // --resume / --checkpoint-every without --checkpoint are usage errors.
        assert!(parse(&v(&["keys", "r.csv", "--resume"])).is_err());
        assert!(parse(&v(&["keys", "r.csv", "--checkpoint-every", "4"])).is_err());
    }

    #[test]
    fn help_and_unknown() {
        assert_eq!(parse(&v(&["--help"])).unwrap(), Command::Help);
        assert!(parse(&v(&["frobnicate"])).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn support_resolution() {
        assert_eq!(Support::Absolute(7).resolve(100), 7);
        assert_eq!(Support::Relative(0.1).resolve(100), 10);
        assert_eq!(Support::Relative(0.101).resolve(100), 11); // ceil
        assert_eq!(Support::Relative(0.001).resolve(10), 1); // min 1
    }
}
