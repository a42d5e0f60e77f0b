//! Command implementations: thin frontends over [`dualminer_serve`].
//!
//! A job subcommand (`mine`, `keys`, `transversals`, `verify-dual`) is a
//! [`JobRequest`] with file inputs. This module reads and parses its
//! files (baskets and CSV relations stream from the file), then makes the
//! two calls the daemon makes — [`exec::preflight`] and [`exec::run`] —
//! and prints the body, so `dualminer <op>` and `dualminer request`
//! print the same bytes and exit with the same code. What stays here is
//! CLI-specific: the process session (meter, observer, and the stats line
//! with the scheduler counters), stdout/stderr routing, the `episodes`
//! subcommand, and the `serve`/`request` frontends.

use std::fmt;
use std::fs::File;
use std::io::BufReader;

use dualminer_obs::{
    available_cpus, BudgetReason, Meter, MiningObserver, RetryPolicy, StatsCollector,
};
use dualminer_serve::exec::{self, ExecCtx, JobError, JobObserver, JobOutput, Parsed};
use dualminer_serve::formats::{self, FormatError, ReadError};
use dualminer_serve::job::RunOpts;
use dualminer_serve::proto::{Input, JobRequest, OpKind};
use dualminer_serve::{canon, client, proto, server};

use crate::args::{Command, USAGE};

/// A command failure, carrying its process exit code so scripts can tell
/// the failure classes apart (`main` maps usage errors to 2).
#[derive(Clone, Debug, PartialEq)]
pub enum CliError {
    /// A job ended with a nonzero exit, run here or by a daemon (which
    /// ships the same codes): 1 "not dual" (the verdict itself, already
    /// on stdout), 3 parse, 4 I/O or checkpoint, 5 oracle fault, 6 budget
    /// exceeded (stdout holds the partial prefix).
    Job {
        /// The exit code.
        code: u8,
        /// What to print on stderr.
        message: String,
    },
    /// `request`/`serve`: the connection or the protocol itself failed —
    /// unreachable server, dropped connection, malformed request or event
    /// line (exit 7).
    Protocol(String),
}

impl CliError {
    /// The process exit code for this failure class.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Job { code, .. } => *code,
            CliError::Protocol(_) => 7,
        }
    }

    /// Whether `main` should print this as an `error:` line on stderr.
    /// The "not dual" verdict is already on stdout; repeating it as an
    /// error would misread a negative answer as a malfunction.
    pub fn is_silent(&self) -> bool {
        matches!(self, CliError::Job { code: 1, .. })
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Job { message, .. } | CliError::Protocol(message) => {
                write!(f, "{message}")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// A job failure as a command failure.
fn failed(e: JobError) -> CliError {
    CliError::Job {
        code: e.code(),
        message: e.to_string(),
    }
}

/// A finished job's exit as a command result; `budget` is the reason a
/// run stopped early.
fn finished(exit: u8, budget: Option<&str>) -> Result<(), CliError> {
    let message = match (exit, budget) {
        (0, _) => return Ok(()),
        (_, Some(reason)) => format!("budget exceeded ({reason}); output is the partial prefix"),
        (1, None) => "not dual".to_string(),
        (code, None) => format!("job failed with exit {code}"),
    };
    Err(CliError::Job {
        code: exit,
        message,
    })
}

/// One budgeted run: the started meter plus the collecting observer.
struct Session {
    meter: Meter,
    /// Feeds the stats artifact; with `--progress`, narrates on stderr
    /// so stdout stays machine-parsable.
    observer: JobObserver<'static>,
    stats_json: bool,
    /// Resolved thread count; scheduler counters are only stamped into
    /// the stats artifact when the run was actually parallel, so
    /// sequential runs keep the historical JSON schema.
    threads: usize,
}

impl Session {
    fn new(run: &RunOpts, threads: usize) -> Session {
        let meter = run.budget().start();
        let observer = JobObserver {
            stats: StatsCollector::new(),
            progress: run.progress.then_some(&note_stderr),
        };
        let threads = if threads == 0 {
            available_cpus()
        } else {
            threads
        };
        observer.stats.set_threads(threads);
        // Scheduler counters are process-global; zero them so the stats
        // artifact reflects this run only.
        dualminer_parallel::reset_scheduler_stats();
        Session {
            meter,
            observer,
            stats_json: run.stats_json,
            threads,
        }
    }

    /// The shared execution context, borrowing this session's meter,
    /// observer, and stats sink. Notes (engine choice, checkpoint-resume
    /// narration) go to stderr, keeping stdout machine-parsable.
    fn cx(&self) -> ExecCtx<'_> {
        ExecCtx {
            meter: &self.meter,
            observer: &self.observer,
            stats: &self.observer.stats,
            note: &note_stderr,
            threads: self.threads,
        }
    }

    /// Prints a job's body and the stats line; the job's exit becomes the
    /// command's result.
    fn report(&self, out: JobOutput) -> Result<(), CliError> {
        print!("{}", out.body);
        self.finish(out.reason);
        finished(out.exit, out.reason.map(|r| r.as_str()))
    }

    /// Prints the JSON stats artifact as the final stdout line.
    fn finish(&self, reason: Option<BudgetReason>) {
        if self.stats_json {
            let sched = dualminer_parallel::scheduler_stats();
            if self.threads > 1 && sched.tasks > 0 {
                self.observer.stats.set_scheduler(sched.tasks);
            }
            println!("{}", self.observer.stats.to_json(&self.meter, reason));
        }
    }
}

fn note_stderr(text: &str) {
    eprintln!("{text}");
}

/// Reads and parses a job's input files: baskets and CSV relations
/// stream from the file; a hypergraph pair parses over one merged vertex
/// dictionary.
fn load(req: &JobRequest) -> Result<Parsed, JobError> {
    let path = req.input.label();
    let io = |e: std::io::Error| JobError::Io(format!("cannot read {path:?}: {e}"));
    let open = || File::open(path).map(BufReader::new).map_err(io);
    let in_file = |e: FormatError| JobError::Format(e.in_file(path));
    // A source that fails mid-read, such as a directory, is an I/O error
    // wherever it fails; malformed text is a parse error.
    let read = |e: ReadError| match e {
        ReadError::Io(e) => io(e),
        ReadError::Format(e) => in_file(e),
    };
    Ok(match &req.op {
        OpKind::Mine { .. } => {
            let (universe, db) = formats::parse_baskets_reader(open()?).map_err(read)?;
            Parsed::Baskets(universe, db)
        }
        OpKind::Keys { .. } => {
            let (universe, rel) = formats::parse_relation_reader(open()?).map_err(read)?;
            Parsed::Relation(universe, rel)
        }
        OpKind::Transversals { .. } => {
            let text = exec::read_input(&req.input)?;
            let (universe, h) = formats::parse_hypergraph(&text).map_err(in_file)?;
            Parsed::Hypergraph(universe, h)
        }
        OpKind::VerifyDual => {
            let input2 = req.input2.as_ref().expect("verify-dual has two inputs");
            let (f_text, g_text) = (exec::read_input(&req.input)?, exec::read_input(input2)?);
            let (f, g, _) = canon::canon_dual_pair(&f_text, &g_text, path, input2.label())
                .map_err(JobError::Format)?;
            Parsed::DualPair(f, g)
        }
    })
}

/// Runs one job the way the daemon's cold path does: parse, pre-flight,
/// run; then prints the body and the stats line.
fn run_job(req: &JobRequest) -> Result<(), CliError> {
    let session = Session::new(&req.run, req.threads);
    let input = load(req).map_err(failed)?;
    let out = match exec::preflight(&session.meter) {
        Some(out) => out,
        None => match exec::run(&req.op, &input, &req.run, &session.cx()) {
            Ok((out, _)) => out,
            Err(e) => {
                session.finish(None);
                return Err(failed(e));
            }
        },
    };
    session.report(out)
}

/// Executes a parsed command.
pub fn run(cmd: Command) -> Result<(), CliError> {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Job(req) => run_job(&req),
        Command::Episodes {
            path,
            window,
            min_freq,
            serial,
            run,
        } => {
            if run.fault_tolerant() {
                eprintln!(
                    "warning: fault-tolerance options (--retry/--checkpoint/--resume/--fault-inject) \
                     are ignored by `episodes` (in-memory sliding-window miner)"
                );
            }
            let session = Session::new(&run, 1);
            let text = exec::read_input(&Input::Path(path.clone())).map_err(failed)?;
            let (names, seq) = formats::parse_events(&text)
                .map_err(|e| failed(JobError::Format(e.in_file(&path))))?;
            if let Some(out) = exec::preflight(&session.meter) {
                return session.report(out);
            }
            let class = if serial {
                dualminer_episodes::mine::EpisodeClass::Serial
            } else {
                dualminer_episodes::mine::EpisodeClass::Parallel
            };
            println!(
                "{} events, {} types; windows of width {window}, min frequency {min_freq}",
                seq.len(),
                seq.alphabet()
            );
            session.observer.on_phase_start("episodes");
            let episodes_run =
                dualminer_episodes::mine::mine_episodes(&seq, class, window, min_freq);
            session.observer.on_phase_end("episodes");
            let render = |e: &dualminer_episodes::Episode| -> String {
                match e {
                    dualminer_episodes::Episode::Parallel(v) => format!(
                        "{{{}}}",
                        v.iter()
                            .map(|k| names[*k].as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                    dualminer_episodes::Episode::Serial(v) => v
                        .iter()
                        .map(|k| names[*k].as_str())
                        .collect::<Vec<_>>()
                        .join(" → "),
                }
            };
            println!("\n{} frequent episodes:", episodes_run.frequent.len());
            for (e, f) in &episodes_run.frequent {
                if e.rank() == 0 {
                    continue;
                }
                println!("  {:<40} {:.1}%", render(e), 100.0 * f);
            }
            println!("\nMaximal frequent episodes:");
            for e in &episodes_run.maximal {
                println!("  {}", render(e));
            }
            session.finish(None);
            Ok(())
        }
        Command::Serve(config) => {
            let handle = server::start(&config)
                .map_err(|e| CliError::Protocol(format!("cannot start server: {e}")))?;
            // The bound addresses go to stdout (port 0 is resolved here),
            // flushed eagerly so wrappers scraping the port see it before
            // the first job finishes.
            if let Some(addr) = handle.tcp_addr {
                println!("serve: listening on {addr}");
            }
            if let Some(path) = &handle.unix_path {
                println!("serve: listening on unix:{}", path.display());
            }
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            handle.join();
            Ok(())
        }
        Command::Request {
            addr,
            json,
            json_file,
            stats,
            quiet,
            timeout,
            retries,
            retry_backoff_ms,
        } => {
            let line = match (json, json_file) {
                (Some(line), None) => line,
                (None, Some(path)) => exec::read_input(&Input::Path(path))
                    .map_err(failed)?
                    .trim_end()
                    .to_string(),
                // parse() enforces exactly-one; defend without panicking.
                _ => return Err(CliError::Protocol("no request line".into())),
            };
            // Validate locally first: a malformed request never leaves the
            // client, and gets the same exit (7) a server rejection would.
            let request = proto::parse_request(&line)
                .map_err(|e| CliError::Protocol(format!("invalid request: {e}")))?;
            let id = match &request {
                proto::Request::Job(job) => job.id,
                proto::Request::Cancel { id, .. }
                | proto::Request::ServerStats { id }
                | proto::Request::Shutdown { id } => *id,
            };
            // Deterministic exponential backoff for shed requests, the
            // same shape retried oracle queries use (§11). The per-sleep
            // floor is the server's retry_after_ms hint.
            let policy = RetryPolicy {
                max_retries: retries,
                base_backoff: std::time::Duration::from_millis(retry_backoff_ms),
                max_backoff: std::time::Duration::from_millis(retry_backoff_ms.saturating_mul(16)),
            };
            let mut attempt: u32 = 0;
            'attempts: loop {
                let mut conn = client::Conn::connect(&addr)
                    .map_err(|e| CliError::Protocol(format!("cannot connect to {addr}: {e}")))?;
                if let Some(timeout) = timeout {
                    conn.set_read_timeout(timeout)
                        .map_err(|e| CliError::Protocol(format!("cannot set timeout: {e}")))?;
                }
                conn.send_line(&line)
                    .map_err(|e| CliError::Protocol(format!("cannot send request: {e}")))?;
                loop {
                    let event = conn
                        .next_event()
                        .map_err(|e| CliError::Protocol(e.to_string()))?
                        .ok_or_else(|| {
                            CliError::Protocol(
                                "server closed the connection before a terminal event".into(),
                            )
                        })?;
                    if event.id != id {
                        continue;
                    }
                    match event.kind.as_str() {
                        "accepted" => {}
                        "progress" | "note" => {
                            if !quiet {
                                eprintln!("{}", event.str_field("text").unwrap_or(""));
                            }
                        }
                        "result" => {
                            if !quiet {
                                eprintln!(
                                    "note: cache {}",
                                    event.str_field("cache").unwrap_or("miss")
                                );
                            }
                            print!("{}", event.str_field("body").unwrap_or(""));
                            if stats {
                                println!("{}", event.str_field("stats").unwrap_or("{}"));
                            }
                            let exit = event.int_field("exit").unwrap_or(0);
                            let outcome = event.str_field("outcome").unwrap_or("");
                            return finished(
                                u8::try_from(exit).unwrap_or(7),
                                outcome.strip_prefix("budget:"),
                            );
                        }
                        "error" => {
                            let code = event.int_field("code").unwrap_or(7);
                            let message = event
                                .str_field("message")
                                .unwrap_or("job failed")
                                .to_string();
                            if event.str_field("kind") == Some("overloaded") && attempt < retries {
                                attempt += 1;
                                let hint = event
                                    .int_field("retry_after_ms")
                                    .and_then(|ms| u64::try_from(ms).ok())
                                    .unwrap_or(0);
                                let sleep = policy
                                    .backoff(attempt)
                                    .max(std::time::Duration::from_millis(hint));
                                if !quiet {
                                    eprintln!(
                                        "note: server overloaded, retry {attempt}/{retries} \
                                         in {}ms",
                                        sleep.as_millis()
                                    );
                                }
                                std::thread::sleep(sleep);
                                continue 'attempts;
                            }
                            return Err(CliError::Job {
                                code: u8::try_from(code).unwrap_or(7),
                                message,
                            });
                        }
                        // Acknowledgements of control requests: the raw
                        // event line is the result.
                        "cancelled" | "server-stats" | "shutdown" => {
                            println!("{}", event.fields.serialize());
                            return Ok(());
                        }
                        other => {
                            return Err(CliError::Protocol(format!(
                                "unexpected server event {other:?}"
                            )));
                        }
                    }
                }
            }
        }
    }
}
