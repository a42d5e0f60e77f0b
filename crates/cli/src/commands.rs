//! Command implementations.
//!
//! Job execution (engine routing, budget handling, checkpoint resume,
//! output rendering) lives in [`dualminer_serve::exec`], shared with the
//! daemon so `dualminer mine …` and a served `mine` job produce
//! byte-identical bodies. This module owns what is CLI-specific: the
//! process session (meter, observer, stats line), stdout/stderr routing,
//! exit codes, and the `serve`/`request` frontends.

use std::fmt;

use dualminer_obs::{
    available_cpus, BudgetReason, Meter, MiningObserver, RetryPolicy, StatsCollector,
};
use dualminer_serve::exec::{self, ExecCtx, JobError, JobObserver, MineOpts};
use dualminer_serve::formats::{self, FormatError};
use dualminer_serve::job::RunOpts;
use dualminer_serve::{client, proto, server};

use crate::args::{Command, USAGE};

/// A command failure, carrying its process exit code so scripts can tell
/// the failure classes apart (`main` maps usage errors to 2; these start
/// at 3).
#[derive(Clone, Debug, PartialEq)]
pub enum CliError {
    /// `verify-dual` decided the pair is not dual (exit 1). Not a failure
    /// of the tool — the verdict itself, in grep-able exit-code form.
    NotDual,
    /// An input file could not be parsed (exit 3).
    Format(FormatError),
    /// File or checkpoint I/O failure, including corrupt or mismatched
    /// checkpoints (exit 4).
    Io(String),
    /// An oracle fault survived the retry budget (exit 5).
    Fault(String),
    /// The run tripped its budget; printed results are the partial prefix
    /// (exit 6).
    Budget(BudgetReason),
    /// `request`/`serve`: the connection or the protocol itself failed —
    /// unreachable server, dropped connection, malformed request or event
    /// line (exit 7).
    Protocol(String),
    /// `request`: the *server* reported a job failure. The daemon ships
    /// the one-shot CLI exit code over the wire; the client process exits
    /// with that same code so scripts cannot tell the frontends apart.
    Remote {
        /// The exit code the equivalent one-shot run would have used.
        code: u8,
        /// The server's error message (or budget verdict).
        message: String,
    },
}

impl CliError {
    /// The process exit code for this failure class.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::NotDual => 1,
            CliError::Format(_) => 3,
            CliError::Io(_) => 4,
            CliError::Fault(_) => 5,
            CliError::Budget(_) => 6,
            CliError::Protocol(_) => 7,
            CliError::Remote { code, .. } => *code,
        }
    }

    /// Whether `main` should print this as an `error:` line on stderr.
    /// The `NotDual` verdict is already on stdout; repeating it as an
    /// error would misread a negative answer as a malfunction.
    pub fn is_silent(&self) -> bool {
        matches!(self, CliError::NotDual)
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::NotDual => write!(f, "not dual"),
            CliError::Format(e) => write!(f, "{e}"),
            CliError::Io(msg) | CliError::Fault(msg) | CliError::Protocol(msg) => {
                write!(f, "{msg}")
            }
            CliError::Remote { message, .. } => write!(f, "{message}"),
            CliError::Budget(reason) => {
                write!(
                    f,
                    "budget exceeded ({reason}); output is the partial prefix"
                )
            }
        }
    }
}

impl std::error::Error for CliError {}

impl From<JobError> for CliError {
    fn from(e: JobError) -> CliError {
        match e {
            JobError::Format(e) => CliError::Format(e),
            JobError::Io(msg) => CliError::Io(msg),
            JobError::Fault(msg) => CliError::Fault(msg),
        }
    }
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
    fn cx<'a>(&'a self, note: &'a dyn Fn(&str)) -> ExecCtx<'a> {
        ExecCtx {
            meter: &self.meter,
            observer: &self.observer,
            stats: &self.observer.stats,
            note,
            threads: self.threads,
        }
    }

    /// Uniform pre-flight: with `--timeout 0` (or an already-spent
    /// budget), every subcommand reports cleanly before doing any work.
    fn preflight(&self) -> Result<(), CliError> {
        match self.meter.exceeded() {
            Some(reason) => {
                println!("budget exceeded ({reason}) before any work was performed");
                self.finish(Some(reason));
                Err(CliError::Budget(reason))
            }
            None => Ok(()),
        }
    }

    /// Prints the JSON stats artifact as the final stdout line.
    fn finish(&self, reason: Option<BudgetReason>) {
        if self.stats_json {
            let sched = dualminer_parallel::scheduler_stats();
            if self.threads > 1 && sched.tasks > 0 {
                self.observer.stats.set_scheduler(sched.tasks, sched.joins);
            }
            println!("{}", self.observer.stats.to_json(&self.meter, reason));
        }
    }

    /// Stats line, then the budget verdict: a tripped budget is a distinct
    /// nonzero exit (6) so scripts can tell partial output from complete.
    fn close(&self, reason: Option<BudgetReason>) -> Result<(), CliError> {
        self.finish(reason);
        match reason {
            Some(r) => Err(CliError::Budget(r)),
            None => Ok(()),
        }
    }
}

fn note_stderr(text: &str) {
    eprintln!("{text}");
}

/// Executes a parsed command.
pub fn run(cmd: Command) -> Result<(), CliError> {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Mine {
            path,
            min_support,
            rules,
            maximal,
            threads,
            run,
        } => {
            let session = Session::new(&run, threads);
            session.preflight()?;
            let file = open(&path)?;
            let (universe, db) = formats::parse_baskets_reader(std::io::BufReader::new(file))
                .map_err(|e| CliError::Format(e.in_file(&path)))?;
            let sigma = min_support.resolve(db.n_rows());
            let opts = MineOpts { rules, maximal };
            match exec::mine(
                &universe,
                &db,
                sigma,
                &opts,
                &run,
                &session.cx(&note_stderr),
            ) {
                Ok((out, _)) => {
                    print!("{}", out.body);
                    session.close(out.reason)
                }
                Err(e) => {
                    session.finish(None);
                    Err(e.into())
                }
            }
        }
        Command::Keys { path, fds, run } => {
            let session = Session::new(&run, 1);
            session.preflight()?;
            let file = open(&path)?;
            let (universe, rel) = formats::parse_relation_reader(std::io::BufReader::new(file))
                .map_err(|e| CliError::Format(e.in_file(&path)))?;
            match exec::keys(&universe, &rel, fds, &run, &session.cx(&note_stderr)) {
                Ok(out) => {
                    print!("{}", out.body);
                    session.close(out.reason)
                }
                Err(e) => {
                    session.finish(None);
                    Err(e.into())
                }
            }
        }
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
            session.preflight()?;
            let text = read(&path)?;
            let (names, seq) =
                formats::parse_events(&text).map_err(|e| CliError::Format(e.in_file(&path)))?;
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
            session.close(None)
        }
        Command::Transversals {
            path,
            algo,
            threads,
            run,
        } => {
            let session = Session::new(&run, threads);
            session.preflight()?;
            let text = read(&path)?;
            let (universe, h) =
                formats::parse_hypergraph(&text).map_err(|e| CliError::Format(e.in_file(&path)))?;
            match exec::transversals(&universe, &h, algo, &run, &session.cx(&note_stderr)) {
                Ok(out) => {
                    print!("{}", out.body);
                    session.close(out.reason)
                }
                Err(e) => {
                    session.finish(None);
                    Err(e.into())
                }
            }
        }
        Command::VerifyDual { f_path, g_path } => {
            let f_text = read(&f_path)?;
            let g_text = read(&g_path)?;
            let out = exec::verify_dual_pair(&f_text, &g_text, &f_path, &g_path)?;
            print!("{}", out.body);
            if out.not_dual {
                Err(CliError::NotDual)
            } else {
                Ok(())
            }
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
                (None, Some(path)) => read(&path)?.trim_end().to_string(),
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
                            return match exit {
                                0 => Ok(()),
                                1 => Err(CliError::NotDual),
                                code => {
                                    let outcome = event.str_field("outcome").unwrap_or("");
                                    let message = match outcome.strip_prefix("budget:") {
                                        Some(reason) => format!(
                                            "budget exceeded ({reason}); output is the \
                                             partial prefix"
                                        ),
                                        None => format!("job failed with exit {code}"),
                                    };
                                    Err(CliError::Remote {
                                        code: u8::try_from(code).unwrap_or(7),
                                        message,
                                    })
                                }
                            };
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
                            return Err(CliError::Remote {
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

fn read(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("cannot read {path:?}: {e}")))
}

fn open(path: &str) -> Result<std::fs::File, CliError> {
    std::fs::File::open(path).map_err(|e| CliError::Io(format!("cannot read {path:?}: {e}")))
}
