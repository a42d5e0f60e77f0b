//! Hand-rolled argument parsing (no external dependencies).
//!
//! The option *values* — run options, support thresholds, durations,
//! algorithm spellings — are shared with the daemon's wire protocol via
//! [`dualminer_serve::job`], so a flag and the corresponding JSON field
//! accept exactly the same syntax.

use std::time::Duration;

use dualminer_hypergraph::TrAlgorithm;
use dualminer_serve::job::{
    parse_algo, parse_confidence, parse_duration, parse_support, validate_run,
};
use dualminer_serve::proto::{CacheMode, Input, JobRequest, OpKind, INERT_ROW_CAP};
use dualminer_serve::server::ServeConfig;

pub use dualminer_serve::job::RunOpts;

/// Usage text shown on parse errors and `--help`.
pub const USAGE: &str = "\
dualminer — data mining, hypergraph transversals, and machine learning (PODS 1997)

USAGE:
    dualminer mine <baskets.txt> --min-support <N|0.x> [--rules <conf>] [--maximal]
                   [--threads <T>] [RUN OPTIONS]
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
    --threads <T>  (mine) worker threads for support counting; 0 = all
                   available cores; default 1 (sequential). Accepted on
                   transversals, where every engine runs on the calling
                   thread. Output is identical for every T.

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

FAULT TOLERANCE (accepted by every subcommand; any of these routes keys and
transversals through Dualize & Advance — `episodes` warns and ignores them):
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
    /// `mine`, `keys`, `transversals` or `verify-dual`: one job, in the
    /// daemon's request shape with `Input::Path` inputs. Its `threads` is
    /// `--threads` (default 1; 0 = all available CPUs).
    Job(JobRequest),
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
    Serve(ServeConfig),
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

/// A job command over the input file `path` (and verify-dual's second
/// file).
fn job(op: OpKind, path: String, path2: Option<String>, threads: usize, run: RunOpts) -> Command {
    Command::Job(JobRequest {
        id: 0,
        op,
        input: Input::Path(path),
        input2: path2.map(Input::Path),
        threads,
        progress: run.progress,
        run,
        cache_mode: CacheMode::Normal,
    })
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
        "--resume" => run.resume = true,
        _ => return Ok(false),
    }
    Ok(true)
}

/// Parses an argument vector (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let cmd = parse_inner(argv)?;
    if let Command::Job(JobRequest { run, .. }) | Command::Episodes { run, .. } = &cmd {
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
                    "--rules" => {
                        let v = it.next().ok_or("--rules needs a confidence value")?;
                        rules = Some(parse_confidence(v)?);
                    }
                    "--maximal" => maximal = true,
                    other => return Err(format!("mine: unknown flag {other:?}")),
                }
            }
            let op = OpKind::Mine {
                min_support: min_support.ok_or("mine: --min-support is required")?,
                rules,
                maximal,
                segment_rows: INERT_ROW_CAP,
            };
            Ok(job(op, path, None, threads, run))
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
            Ok(job(OpKind::Keys { fds }, path, None, 1, run))
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
            Ok(job(OpKind::Transversals { algo }, path, None, threads, run))
        }
        "verify-dual" => {
            let f_path = it.next().ok_or("verify-dual: missing first file")?.clone();
            let g_path = it.next().ok_or("verify-dual: missing second file")?.clone();
            if let Some(extra) = it.next() {
                return Err(format!("verify-dual: unexpected argument {extra:?}"));
            }
            let run = RunOpts::default();
            Ok(job(OpKind::VerifyDual, f_path, Some(g_path), 1, run))
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
            let mut config = ServeConfig::default();
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
                        config.tcp = Some(it.next().ok_or("--listen needs an address")?.clone());
                    }
                    "--unix" => {
                        config.unix = Some(it.next().ok_or("--unix needs a socket path")?.clone());
                    }
                    "--workers" => {
                        let v = it.next().ok_or("--workers needs a value")?;
                        config.workers = v.parse::<usize>().map_err(|_| {
                            format!("invalid --workers value {v:?} (want integer ≥ 0; 0 = auto)")
                        })?;
                    }
                    "--cache-entries" => {
                        let v = it.next().ok_or("--cache-entries needs a value")?;
                        config.cache_entries = positive("--cache-entries", v)?;
                    }
                    "--max-queue" => {
                        let v = it.next().ok_or("--max-queue needs a value")?;
                        config.max_queue = positive("--max-queue", v)?;
                    }
                    "--max-inflight-per-conn" => {
                        let v = it.next().ok_or("--max-inflight-per-conn needs a value")?;
                        config.max_inflight_per_conn = positive("--max-inflight-per-conn", v)?;
                    }
                    "--default-timeout" => {
                        let v = it.next().ok_or("--default-timeout needs a duration")?;
                        config.default_timeout = Some(duration("--default-timeout", v)?);
                    }
                    "--max-timeout" => {
                        let v = it.next().ok_or("--max-timeout needs a duration")?;
                        config.max_timeout = Some(duration("--max-timeout", v)?);
                    }
                    "--max-frame-bytes" => {
                        let v = it.next().ok_or("--max-frame-bytes needs a value")?;
                        config.max_frame_bytes = positive("--max-frame-bytes", v)?;
                    }
                    "--max-rows" => {
                        let v = it.next().ok_or("--max-rows needs a value")?;
                        config.max_rows = positive("--max-rows", v)? as u64;
                    }
                    "--max-items" => {
                        let v = it.next().ok_or("--max-items needs a value")?;
                        config.max_items = positive("--max-items", v)? as u64;
                    }
                    "--write-timeout" => {
                        let v = it.next().ok_or("--write-timeout needs a duration")?;
                        config.write_timeout = Some(duration("--write-timeout", v)?);
                    }
                    "--cache-persist" => {
                        config.cache_persist =
                            Some(it.next().ok_or("--cache-persist needs a path")?.clone());
                    }
                    "--cache-snapshot-every" => {
                        let v = it.next().ok_or("--cache-snapshot-every needs a value")?;
                        config.cache_snapshot_every = v.parse::<u64>().map_err(|_| {
                            format!(
                                "invalid --cache-snapshot-every value {v:?} \
                                 (want integer ≥ 0; 0 = shutdown only)"
                            )
                        })?;
                    }
                    other => return Err(format!("serve: unknown flag {other:?}")),
                }
            }
            if config.cache_snapshot_every > 0 && config.cache_persist.is_none() {
                return Err("--cache-snapshot-every requires --cache-persist".into());
            }
            Ok(Command::Serve(config))
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
    use dualminer_serve::job::Support;
    use std::time::Duration;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// The job a job subcommand parses to.
    fn parse_job(args: &[&str]) -> JobRequest {
        match parse(&v(args)).unwrap() {
            Command::Job(req) => req,
            other => panic!("not a job: {other:?}"),
        }
    }

    fn mine_op(min_support: Support, rules: Option<f64>, maximal: bool) -> OpKind {
        OpKind::Mine {
            min_support,
            rules,
            maximal,
            segment_rows: INERT_ROW_CAP,
        }
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
            Command::Job(JobRequest {
                id: 0,
                op: mine_op(Support::Relative(0.1), Some(0.8), true),
                input: Input::Path("b.txt".into()),
                input2: None,
                threads: 1,
                run: RunOpts::default(),
                progress: false,
                cache_mode: CacheMode::Normal,
            })
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
        for base in [
            &["mine", "b.txt", "--min-support", "2"][..],
            &["keys", "r.csv"],
            &["transversals", "h.txt"],
        ] {
            let req = parse_job(&[base, &shared[..]].concat());
            assert_eq!(req.run, run, "{base:?}");
            assert!(req.progress, "{base:?}");
        }
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
        let req = parse_job(&["mine", "b.txt", "--min-support", "5"]);
        assert_eq!(req.op, mine_op(Support::Absolute(5), None, false));
        assert_eq!(req.threads, 1);
    }

    #[test]
    fn rules_confidence_range() {
        let rules = |c: &str| parse(&v(&["mine", "b.txt", "--min-support", "2", "--rules", c]));
        for (c, want) in [("0", 0.0), ("0.6", 0.6), ("1", 1.0)] {
            let Command::Job(req) = rules(c).unwrap() else {
                panic!("{c}: not a job");
            };
            assert_eq!(
                req.op,
                mine_op(Support::Absolute(2), Some(want), false),
                "{c}"
            );
        }
        for c in ["1.5", "-0.1", "NaN", "x"] {
            assert_eq!(
                rules(c).unwrap_err(),
                parse_confidence(c).unwrap_err(),
                "{c}"
            );
        }
    }

    #[test]
    fn parse_threads_flag() {
        let req = parse_job(&["mine", "b.txt", "--min-support", "2", "--threads", "4"]);
        assert_eq!(req.threads, 4);
        let req = parse_job(&["transversals", "h.txt", "--threads", "0"]);
        assert_eq!(req.threads, 0);
        assert!(parse(&v(&["mine", "b.txt", "--min-support", "2", "--threads"])).is_err());
        assert!(parse(&v(&["transversals", "h.txt", "--threads", "x"])).is_err());
    }

    #[test]
    fn mine_requires_support() {
        assert!(parse(&v(&["mine", "b.txt"])).is_err());
        assert!(parse(&v(&["mine", "b.txt", "--min-support", "0"])).is_err());
        assert!(parse(&v(&["mine", "b.txt", "--min-support", "1.5"])).is_err());
    }

    #[test]
    fn parse_keys_and_transversals() {
        let keys = parse_job(&["keys", "r.csv", "--fds"]);
        assert_eq!(keys.op, OpKind::Keys { fds: true });
        assert_eq!(keys.input, Input::Path("r.csv".into()));
        assert_eq!((keys.threads, &keys.run), (1, &RunOpts::default()));
        let tr = parse_job(&["transversals", "h.txt", "--algo", "mu-mmcs"]);
        assert_eq!(
            tr.op,
            OpKind::Transversals {
                algo: TrAlgorithm::MuMmcs
            }
        );
        assert_eq!(tr.input, Input::Path("h.txt".into()));
        assert_eq!((tr.threads, &tr.run), (1, &RunOpts::default()));
        assert!(parse(&v(&["transversals", "h.txt", "--algo", "zzz"])).is_err());
    }

    #[test]
    fn transversals_algo_spellings() {
        // The default is the planner.
        let req = parse_job(&["transversals", "h.txt"]);
        assert_eq!(
            req.op,
            OpKind::Transversals {
                algo: TrAlgorithm::Auto
            }
        );
        for (name, algo) in [
            ("auto", TrAlgorithm::Auto),
            ("berge", TrAlgorithm::Berge),
            ("fk", TrAlgorithm::FkJointGeneration),
            ("levelwise", TrAlgorithm::LevelwiseLargeEdges),
            ("mu-mmcs", TrAlgorithm::MuMmcs),
            ("egm", TrAlgorithm::Egm),
        ] {
            let req = parse_job(&["transversals", "h.txt", "--algo", name]);
            assert_eq!(req.op, OpKind::Transversals { algo }, "{name}");
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
        let req = parse_job(&["verify-dual", "f.txt", "g.txt"]);
        assert_eq!(req.op, OpKind::VerifyDual);
        assert_eq!(req.input, Input::Path("f.txt".into()));
        assert_eq!(req.input2, Some(Input::Path("g.txt".into())));
        assert_eq!((req.threads, &req.run), (1, &RunOpts::default()));
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
            Command::Serve(ServeConfig::default())
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
            Command::Serve(ServeConfig {
                tcp: Some("127.0.0.1:7878".into()),
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
            })
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
        let Command::Job(JobRequest { run, .. }) = cmd else {
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
            let (Command::Job(JobRequest { run, .. }) | Command::Episodes { run, .. }) =
                parse(&argv).unwrap()
            else {
                panic!("no run options: {argv:?}");
            };
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
