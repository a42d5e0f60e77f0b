//! The `dualminer serve` daemon.
//!
//! A long-lived process accepting concurrent clients over TCP and/or a
//! unix socket, speaking the line-oriented JSON protocol of
//! [`crate::proto`]. Each connection gets a reader thread; jobs are
//! multiplexed onto a bounded worker pool (the engines underneath fan
//! out further through the deterministic claim-cursor scheduler, so the
//! pool bounds *jobs*, not parallelism).
//!
//! The perf core is the flow in `serve_job`:
//!
//! 1. one parse of the input, with its canonical content fingerprint
//!    (input equivalence, not bytes), then the budget pre-flight,
//! 2. exact-key cache lookup — warm hits answer in O(1) with the stored
//!    body and stats, no engine or oracle work; the body is stored in
//!    wire form, so the hit's `result` event is the frame's head, those
//!    cached bytes and its tail in one vectored write, with no encoding,
//! 3. appended-rows probe — a mine request extending a cached input
//!    re-mines incrementally from the cached collection,
//! 4. in-flight dedup — N identical concurrent requests run the engine
//!    once; the rest wait on the flight and share its result,
//! 5. a fresh computation through [`crate::exec::run`] otherwise, whose
//!    body is escaped to wire form once, for the cache, its coalesced
//!    waiters and its own reply alike.
//!
//! Jobs are cancellable (`cancel` trips the job's budget meter, so the
//! engines stop at their next safe point exactly as a `--timeout` would)
//! and resumable across daemon restarts via the same checkpoint
//! envelopes the CLI uses. Shutdown drains: the queue closes, workers
//! finish what they hold, every connection and listener thread joins.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener};
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dualminer_bitset::Universe;
use dualminer_obs::{available_cpus, Budget, BudgetReason, Meter, StatsCollector};

use crate::cache::{Entry, MineArtifacts, ResultCache};
use crate::canon::{self, Canon};
use crate::exec::{self, ExecCtx, JobError, JobObserver, MineOpts, Parsed};
use crate::formats;
use crate::job::Support;
use crate::persist;
use crate::proto::{self, CacheTag, JobRequest, OpKind, Request, ServerCounters};

/// How long blocking reads and accept polls wait before re-checking the
/// shutdown flag. Bounds shutdown latency without busy-spinning.
const POLL: Duration = Duration::from_millis(100);

/// Default bound on queued jobs (`--max-queue 0` keeps it).
const DEFAULT_MAX_QUEUE: usize = 1024;

/// Default per-connection in-flight job bound.
const DEFAULT_MAX_INFLIGHT_PER_CONN: usize = 64;

/// Default request-frame size bound (8 MiB — inline inputs are legal,
/// unbounded buffering for a client that never sends a newline is not).
const DEFAULT_MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

/// Default per-connection write deadline: a client that stops reading
/// for this long forfeits its event stream instead of wedging a worker.
const DEFAULT_WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Server configuration (the `serve` subcommand's flags).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeConfig {
    /// TCP listen address (e.g. `"127.0.0.1:0"`). When both this and
    /// `unix` are `None`, defaults to an ephemeral localhost TCP port.
    pub tcp: Option<String>,
    /// Unix socket path to listen on.
    pub unix: Option<String>,
    /// Worker-pool size (0 = available CPUs).
    pub workers: usize,
    /// Result-cache capacity in entries (0 = default 256).
    pub cache_entries: usize,
    /// Bound on queued jobs; past it new jobs are shed with a typed
    /// `overloaded` error (0 = default 1024).
    pub max_queue: usize,
    /// Bound on queued+running jobs per connection (0 = default 64).
    pub max_inflight_per_conn: usize,
    /// Timeout applied to jobs that request none (None = unlimited).
    pub default_timeout: Option<Duration>,
    /// Upper clamp on any job timeout, requested or defaulted.
    pub max_timeout: Option<Duration>,
    /// Bound on one request frame in bytes (0 = default 8 MiB).
    pub max_frame_bytes: usize,
    /// Bound on admitted input rows (0 = unlimited).
    pub max_rows: u64,
    /// Bound on distinct admitted input items (0 = unlimited).
    pub max_items: u64,
    /// Snapshot the result cache to this path on shutdown (and
    /// periodically, see `cache_snapshot_every`); restore it on boot.
    pub cache_persist: Option<String>,
    /// Additionally snapshot after every N completed computations
    /// (0 = shutdown only). Only meaningful with `cache_persist`.
    pub cache_snapshot_every: u64,
    /// Per-connection write deadline (None = default 30 s).
    pub write_timeout: Option<Duration>,
}

/// The resolved admission-control limits (config defaults applied once,
/// at startup).
#[derive(Clone, Copy, Debug)]
struct Limits {
    max_queue: usize,
    max_inflight_per_conn: usize,
    default_timeout: Option<Duration>,
    max_timeout: Option<Duration>,
    max_frame_bytes: usize,
    max_rows: u64,
    max_items: u64,
    write_timeout: Duration,
}

impl Limits {
    fn from_config(config: &ServeConfig) -> Limits {
        Limits {
            max_queue: if config.max_queue == 0 {
                DEFAULT_MAX_QUEUE
            } else {
                config.max_queue
            },
            max_inflight_per_conn: if config.max_inflight_per_conn == 0 {
                DEFAULT_MAX_INFLIGHT_PER_CONN
            } else {
                config.max_inflight_per_conn
            },
            default_timeout: config.default_timeout,
            max_timeout: config.max_timeout,
            max_frame_bytes: if config.max_frame_bytes == 0 {
                DEFAULT_MAX_FRAME_BYTES
            } else {
                config.max_frame_bytes
            },
            max_rows: config.max_rows,
            max_items: config.max_items,
            // set_write_timeout rejects a zero duration; floor it.
            write_timeout: config
                .write_timeout
                .unwrap_or(DEFAULT_WRITE_TIMEOUT)
                .max(Duration::from_millis(1)),
        }
    }
}

/// Deterministic `retry_after_ms` hint for a shed job: scaled to the
/// backlog per worker, bounded so clients neither hammer nor stall.
fn retry_hint_ms(backlog: u64, workers: u64) -> u64 {
    (25 * (backlog / workers.max(1) + 1)).clamp(25, 5_000)
}

// ---------------------------------------------------------------------------
// Connection plumbing
// ---------------------------------------------------------------------------

/// The write half of one connection. Workers and the reader thread both
/// emit events here; the mutex makes each line atomic, and each line goes
/// out through one vectored write ([`proto::write_line`]). A failed write
/// marks the connection dead and later sends become no-ops — a client
/// that disconnected (or, with the socket write deadline, stopped
/// reading) mid-job just loses its events, the job itself completes (and
/// populates the cache) regardless.
struct ConnSink {
    writer: Mutex<Box<dyn Write + Send>>,
    alive: AtomicBool,
    counters: Arc<Counters>,
}

impl ConnSink {
    fn new(writer: Box<dyn Write + Send>, counters: Arc<Counters>) -> ConnSink {
        ConnSink {
            writer: Mutex::new(writer),
            alive: AtomicBool::new(true),
            counters,
        }
    }

    fn send(&self, line: &str) {
        self.send_parts(&[line.as_bytes()]);
    }

    /// Sends one line made of `parts` back to back: a `result` event is
    /// its frame's head, the cached wire body and the tail.
    fn send_parts(&self, parts: &[&[u8]]) {
        if !self.alive.load(Ordering::Relaxed) {
            return;
        }
        let mut w = self.writer.lock().unwrap();
        if let Err(e) = proto::write_line(&mut *w, parts) {
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) {
                // A stalled reader hit the write deadline; it is
                // disconnected like any other dead peer.
                self.counters.write_timeouts.fetch_add(1, Ordering::Relaxed);
            }
            self.alive.store(false, Ordering::Relaxed);
        }
    }
}

/// One read step from a [`LineReader`].
enum Frame {
    /// A complete request line.
    Line(String),
    /// The peer exceeded the per-frame byte bound before sending a
    /// newline. The buffer cannot be resynchronized, so the connection
    /// must be closed after reporting the rejection.
    TooLong,
    /// EOF, hard error, or shutdown.
    Closed,
}

/// The read room a connection starts with, and the most a full buffer
/// grows by at once. Between the two the room grows with the buffered
/// input, so a small request touches a few KiB, a large frame arrives in
/// large reads, and zero-filling the room stays linear in the frame.
const READ_MIN: usize = 8 * 1024;
const READ_MAX: usize = 1024 * 1024;

/// Buffered line reading over a raw stream with a read timeout. Unlike
/// `BufReader::read_line`, a timeout between chunks never discards the
/// partial line already buffered — it just re-checks the shutdown flag
/// and keeps reading. Frames are bounded: a peer that streams more than
/// `max_frame` bytes without a newline gets [`Frame::TooLong`] instead of
/// growing the buffer without limit. Each byte is scanned for the newline
/// once, however many reads a frame takes, so a frame near the bound is
/// read in time linear in its size.
struct LineReader<R: Read> {
    inner: R,
    /// `buf[start..filled]` is buffered input not yet returned; the rest
    /// past `filled` is zeroed room the next read fills in place.
    buf: Vec<u8>,
    start: usize,
    filled: usize,
    /// `buf[start..scanned]` holds no newline.
    scanned: usize,
    max_frame: usize,
}

impl<R: Read> LineReader<R> {
    fn new(inner: R, max_frame: usize) -> LineReader<R> {
        LineReader {
            inner,
            buf: Vec::new(),
            start: 0,
            filled: 0,
            scanned: 0,
            max_frame,
        }
    }

    /// The next complete line, a frame-too-long rejection, or `Closed` on
    /// EOF, hard error, or shutdown.
    fn next_line(&mut self, shutdown: &AtomicBool) -> Frame {
        loop {
            let new = &self.buf[self.scanned..self.filled];
            if let Some(at) = new.iter().position(|&b| b == b'\n') {
                let end = self.scanned + at;
                let mut line = &self.buf[self.start..end];
                if line.len() > self.max_frame {
                    return Frame::TooLong;
                }
                if let Some(rest) = line.strip_suffix(b"\r") {
                    line = rest;
                }
                let line = String::from_utf8_lossy(line).into_owned();
                self.start = end + 1;
                self.scanned = self.start;
                return Frame::Line(line);
            }
            self.scanned = self.filled;
            if self.filled - self.start > self.max_frame {
                return Frame::TooLong;
            }
            if shutdown.load(Ordering::SeqCst) {
                return Frame::Closed;
            }
            // The partial line moves to the front once per read, not once
            // per line returned, so pipelined lines cost their own bytes.
            self.buf.copy_within(self.start..self.filled, 0);
            self.filled -= self.start;
            self.scanned = self.filled;
            self.start = 0;
            if self.buf.len() == self.filled {
                let room = self.filled.clamp(READ_MIN, READ_MAX);
                self.buf.resize(self.filled + room, 0);
            }
            match self.inner.read(&mut self.buf[self.filled..]) {
                Ok(0) => return Frame::Closed,
                Ok(n) => self.filled += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
                Err(_) => return Frame::Closed,
            }
        }
    }
}

/// Per-job cancellation handle, registered when the request is read so a
/// `cancel` can reach a job that is still queued. Cancelling trips the
/// budget meter once the job has one; before that, the flag makes the
/// worker cancel the meter the moment it is created.
struct JobCtl {
    cancel: AtomicBool,
    meter: Mutex<Option<Arc<Meter>>>,
}

impl JobCtl {
    fn new() -> JobCtl {
        JobCtl {
            cancel: AtomicBool::new(false),
            meter: Mutex::new(None),
        }
    }

    fn cancel(&self) {
        self.cancel.store(true, Ordering::SeqCst);
        if let Some(meter) = self.meter.lock().unwrap().as_ref() {
            meter.cancel();
        }
    }
}

struct QueuedJob {
    sink: Arc<ConnSink>,
    conn_id: u64,
    ctl: Arc<JobCtl>,
    req: JobRequest,
    /// The job's budget after the server's timeout policy was applied.
    budget: Budget,
    /// Absolute deadline fixed at admission: time spent queued counts
    /// against the budget, so a job that aged out in the queue is shed
    /// instead of computed for a client that already gave up on it.
    deadline: Option<Instant>,
}

// ---------------------------------------------------------------------------
// In-flight deduplication
// ---------------------------------------------------------------------------

/// What a finished computation publishes to its coalesced waiters; the
/// body is in wire form, shared with the cache entry.
#[derive(Clone)]
enum FlightResult {
    Done {
        body: Arc<str>,
        stats: Arc<str>,
        exit: i32,
        reason: Option<BudgetReason>,
    },
    Failed {
        code: i32,
        message: String,
    },
}

struct Flight {
    done: Mutex<Option<FlightResult>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn publish(&self, result: FlightResult) {
        *self.done.lock().unwrap() = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> FlightResult {
        let mut done = self.done.lock().unwrap();
        loop {
            if let Some(result) = done.as_ref() {
                return result.clone();
            }
            done = self.cv.wait(done).unwrap();
        }
    }
}

// ---------------------------------------------------------------------------
// Shared server state
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Counters {
    jobs: AtomicU64,
    computations: AtomicU64,
    hits: AtomicU64,
    coalesced: AtomicU64,
    incremental: AtomicU64,
    errors: AtomicU64,
    busy_workers: AtomicU64,
    open_conns: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_conn_limit: AtomicU64,
    shed_deadline: AtomicU64,
    deadline_clamped: AtomicU64,
    too_large: AtomicU64,
    write_timeouts: AtomicU64,
    persist_saves: AtomicU64,
    persist_restored: AtomicU64,
    persist_errors: AtomicU64,
}

/// Cache-snapshot state, present when `--cache-persist` is configured.
struct PersistState {
    path: PathBuf,
    /// Snapshot after this many completed computations (0 = shutdown
    /// only).
    every: u64,
    /// Computations completed since the last periodic snapshot.
    pending: AtomicU64,
    /// Serializes snapshot writes; the atomic tmp+rename envelope makes
    /// each write crash-safe, this keeps concurrent workers from racing
    /// two writes to the same tmp path.
    write_lock: Mutex<()>,
}

struct Shared {
    cache: ResultCache,
    inflight: Mutex<HashMap<(u64, u64), Arc<Flight>>>,
    queue: Mutex<VecDeque<QueuedJob>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    running: Mutex<HashMap<(u64, u64), Arc<JobCtl>>>,
    conns: Mutex<Vec<JoinHandle<()>>>,
    counters: Arc<Counters>,
    workers: u64,
    next_conn: AtomicU64,
    limits: Limits,
    persist: Option<PersistState>,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
    }

    /// Writes a cache snapshot if persistence is configured. Failures are
    /// counted and logged, never fatal — the in-memory cache stays
    /// authoritative.
    fn snapshot_cache(&self) {
        let Some(persist) = &self.persist else {
            return;
        };
        let _guard = persist.write_lock.lock().unwrap();
        match persist::save_snapshot(&self.cache, &persist.path) {
            Ok(_) => {
                self.counters.persist_saves.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                self.counters.persist_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "serve: warning: cache snapshot to {:?} failed: {e}",
                    persist.path
                );
            }
        }
    }

    /// Called after each completed computation: advances the periodic
    /// snapshot counter and snapshots when it reaches the cadence.
    fn note_computation(&self) {
        let Some(persist) = &self.persist else {
            return;
        };
        if persist.every == 0 {
            return;
        }
        if persist.pending.fetch_add(1, Ordering::Relaxed) + 1 >= persist.every {
            persist.pending.store(0, Ordering::Relaxed);
            self.snapshot_cache();
        }
    }

    fn server_counters(&self) -> ServerCounters {
        let cache = self.cache.counters();
        ServerCounters {
            jobs: self.counters.jobs.load(Ordering::Relaxed),
            computations: self.counters.computations.load(Ordering::Relaxed),
            hits: self.counters.hits.load(Ordering::Relaxed),
            coalesced: self.counters.coalesced.load(Ordering::Relaxed),
            incremental: self.counters.incremental.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            workers: self.workers,
            busy_workers: self.counters.busy_workers.load(Ordering::Relaxed),
            open_conns: self.counters.open_conns.load(Ordering::Relaxed),
            shed_queue_full: self.counters.shed_queue_full.load(Ordering::Relaxed),
            shed_conn_limit: self.counters.shed_conn_limit.load(Ordering::Relaxed),
            shed_deadline: self.counters.shed_deadline.load(Ordering::Relaxed),
            deadline_clamped: self.counters.deadline_clamped.load(Ordering::Relaxed),
            too_large: self.counters.too_large.load(Ordering::Relaxed),
            write_timeouts: self.counters.write_timeouts.load(Ordering::Relaxed),
            persist_saves: self.counters.persist_saves.load(Ordering::Relaxed),
            persist_restored: self.counters.persist_restored.load(Ordering::Relaxed),
            persist_errors: self.counters.persist_errors.load(Ordering::Relaxed),
            cache_entries: cache.entries,
            cache_evictions: cache.evictions,
        }
    }
}

// ---------------------------------------------------------------------------
// Job execution
// ---------------------------------------------------------------------------

/// A job's outcome, ready to serialize as its `result` event. `body` is
/// in wire form ([`proto::wire_body`]), as the cache holds it.
struct Served {
    tag: CacheTag,
    body: Arc<str>,
    stats: Arc<str>,
    exit: i32,
    reason: Option<BudgetReason>,
    fingerprint: String,
}

/// A job-level failure, carried to the connection as a terminal `error`
/// event. `kind` is the machine-readable tag for typed rejections
/// (`"too_large"`); untyped failures keep the historical event shape.
struct JobFailure {
    code: i32,
    kind: Option<&'static str>,
    message: String,
}

impl JobFailure {
    fn new(code: i32, message: impl Into<String>) -> JobFailure {
        JobFailure {
            code,
            kind: None,
            message: message.into(),
        }
    }

    fn too_large(message: impl Into<String>) -> JobFailure {
        JobFailure {
            code: 3,
            kind: Some("too_large"),
            message: message.into(),
        }
    }
}

impl From<JobError> for JobFailure {
    fn from(e: JobError) -> JobFailure {
        JobFailure::new(i32::from(e.code()), e.to_string())
    }
}

/// Input-size admission: counts non-empty, non-comment lines (rows) and
/// distinct whitespace/comma-separated tokens (items) against the
/// configured bounds, before any canonicalization or parsing touches the
/// text. A cheap linear scan — the point is to reject a 10M-row input
/// with a typed `too_large` error instead of parsing it first. With
/// `header` the text is a CSV relation: the first such line is its
/// header, not a data row, and is not counted, and comments follow the
/// CSV rule (only a whole line is one; `#` inside a cell is data).
fn check_input_size(
    limits: &Limits,
    label: &str,
    text: &str,
    header: bool,
) -> Result<(), JobFailure> {
    if limits.max_rows == 0 && limits.max_items == 0 {
        return Ok(());
    }
    let mut rows = 0u64;
    let mut items: HashSet<&str> = HashSet::new();
    let lines = text
        .lines()
        .map(|line| {
            if header {
                formats::strip_whole_line_comment(line)
            } else {
                formats::strip_comment(line)
            }
            .trim()
        })
        .filter(|line| !line.is_empty());
    for line in lines.skip(usize::from(header)) {
        rows += 1;
        if limits.max_rows != 0 && rows > limits.max_rows {
            return Err(JobFailure::too_large(format!(
                "{label}: input has more than {} rows (max-rows)",
                limits.max_rows
            )));
        }
        if limits.max_items != 0 {
            for token in line.split(|c: char| c.is_whitespace() || c == ',') {
                if token.is_empty() {
                    continue;
                }
                items.insert(token);
                if items.len() as u64 > limits.max_items {
                    return Err(JobFailure::too_large(format!(
                        "{label}: input has more than {} distinct items (max-items)",
                        limits.max_items
                    )));
                }
            }
        }
    }
    Ok(())
}

/// Whether a complete result of this request may be stored: plain runs
/// only. Fault injection, retries, and checkpoint/resume runs are kept
/// out of the cache — their outputs depend on state beyond the content
/// fingerprint (checkpoint files on disk) or are exercises whose point is
/// to run the engine.
fn storeable(req: &JobRequest) -> bool {
    req.cache_mode == proto::CacheMode::Normal
        && req.run.fault_inject.is_none()
        && req.run.retry == 0
        && req.run.checkpoint.is_none()
        && !req.run.resume
}

/// Whether a mine request may be served by incremental re-mining on top
/// of a cached base: a plain run over a fixed absolute threshold. A
/// relative threshold resolves differently on the extended row count, so
/// it falls back to a cold run. A budget does not: the update meters each
/// level as the cold walk does, so a trip leaves the same prefix a cold
/// run leaves under the same budget.
fn incremental_ok(req: &JobRequest) -> bool {
    storeable(req)
        && matches!(
            req.op,
            OpKind::Mine {
                min_support: Support::Absolute(_),
                ..
            }
        )
}

/// Runs one job end to end; the caller turns the return value into the
/// terminal event. This is the cache/dedup flow described in the module
/// docs.
fn serve_job(
    shared: &Shared,
    req: &JobRequest,
    meter: &Arc<Meter>,
    sink: &Arc<ConnSink>,
) -> Result<Served, JobFailure> {
    let id = req.id;

    // Read, parse and fingerprint the input, once: the parsed value (for
    // mine, the canonical rows the appended-rows probe also reads) goes on
    // to the runner. Size bounds are enforced on the raw text, before any
    // parsing.
    let text = exec::read_input(&req.input)?;
    let header = matches!(req.op, OpKind::Keys { .. });
    check_input_size(&shared.limits, req.input.label(), &text, header)?;
    let text2 = match &req.input2 {
        Some(input2) => {
            let g_text = exec::read_input(input2)?;
            check_input_size(&shared.limits, input2.label(), &g_text, false)?;
            Some((g_text, input2.label()))
        }
        None => None,
    };
    let second = text2
        .as_ref()
        .map(|(g_text, label)| (g_text.as_str(), *label));
    let (input, content) =
        canon::canon_input(&req.op, &text, req.input.label(), second).map_err(JobError::Format)?;
    // Past the parse only the parsed value is needed.
    drop((text, text2));
    let params = req.params_fingerprint();
    let fingerprint = proto::fingerprint_str(params, content);
    sink.send(&proto::ev_accepted(id, &fingerprint));

    // Pre-flight, at the CLI's point: an already-spent (or
    // already-cancelled) budget reports before any work.
    if let Some(out) = exec::preflight(meter) {
        let stats = StatsCollector::new();
        stats.set_threads(job_threads(req.threads));
        return Ok(Served {
            tag: CacheTag::Miss,
            stats: stats.to_json(meter, out.reason).into(),
            exit: i32::from(out.exit),
            reason: out.reason,
            body: proto::wire_body(&out.body).into(),
            fingerprint,
        });
    }

    // Warm hit: O(1), no engine, no oracle queries.
    if req.cache_mode != proto::CacheMode::Bypass {
        if let Some(entry) = shared.cache.lookup(params, content) {
            shared.counters.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Served {
                tag: CacheTag::Hit,
                body: Arc::clone(&entry.body),
                stats: Arc::clone(&entry.stats),
                exit: entry.exit,
                reason: None,
                fingerprint,
            });
        }
    }

    // In-flight dedup: identical concurrent requests run once.
    let flight = if req.cache_mode == proto::CacheMode::Normal {
        let mut inflight = shared.inflight.lock().unwrap();
        match inflight.get(&(params, content)) {
            Some(flight) => {
                let flight = Arc::clone(flight);
                drop(inflight);
                shared.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                return match flight.wait() {
                    FlightResult::Done {
                        body,
                        stats,
                        exit,
                        reason,
                    } => Ok(Served {
                        tag: CacheTag::Coalesced,
                        body,
                        stats,
                        exit,
                        reason,
                        fingerprint,
                    }),
                    FlightResult::Failed { code, message } => Err(JobFailure::new(code, message)),
                };
            }
            None => {
                let flight = Arc::new(Flight::new());
                inflight.insert((params, content), Arc::clone(&flight));
                Some(flight)
            }
        }
    } else {
        None
    };

    let outcome = compute_fresh(shared, req, meter, sink, input, params, content);

    // Publish to waiters and clear the flight — on every path, including
    // failure, or coalesced requests would hang.
    if let Some(flight) = flight {
        flight.publish(match &outcome {
            Ok(served) => FlightResult::Done {
                body: Arc::clone(&served.body),
                stats: Arc::clone(&served.stats),
                exit: served.exit,
                reason: served.reason,
            },
            Err(f) => FlightResult::Failed {
                code: f.code,
                message: f.message.clone(),
            },
        });
        shared.inflight.lock().unwrap().remove(&(params, content));
    }
    outcome
}

/// The worker threads a job runs on: its `"threads"` (0 or absent means
/// 1), capped at the machine's CPUs. The field is unchecked client input,
/// and each parallel level spawns up to this many OS threads.
fn job_threads(requested: usize) -> usize {
    requested.clamp(1, available_cpus())
}

/// Runs the engines for a job that neither the cache nor an in-flight
/// twin could answer: the incremental route when a cached base covers a
/// prefix of the input, the shared runner ([`exec::run`]) otherwise.
/// Complete results of plain runs are stored for the next request.
fn compute_fresh(
    shared: &Shared,
    req: &JobRequest,
    meter: &Arc<Meter>,
    sink: &Arc<ConnSink>,
    input: Canon,
    params: u64,
    content: u64,
) -> Result<Served, JobFailure> {
    let id = req.id;
    shared.counters.computations.fetch_add(1, Ordering::Relaxed);

    let threads = job_threads(req.threads);
    let progress = |text: &str| sink.send(&proto::ev_progress(id, text));
    let observer = JobObserver {
        stats: StatsCollector::new(),
        progress: req.progress.then_some(&progress as _),
    };
    observer.stats.set_threads(threads);
    let note = |text: &str| sink.send(&proto::ev_note(id, text));
    let cx = ExecCtx {
        meter,
        observer: &observer,
        stats: &observer.stats,
        note: &note,
        threads,
    };

    let mut tag = CacheTag::Miss;
    let (out, mine) = match input {
        Canon::Baskets(canon) => {
            let base = incremental_ok(req)
                .then(|| {
                    shared
                        .cache
                        .find_mine_base(req.base_params_fingerprint(), &canon)
                })
                .flatten();
            let rows = canon.rows.len() as u64;
            if let (Some((entry, base_rows)), OpKind::Mine { rules, maximal, .. }) = (base, &req.op)
            {
                // Incremental re-mining from the cached prefix.
                tag = CacheTag::Incremental;
                shared.counters.incremental.fetch_add(1, Ordering::Relaxed);
                note(&format!(
                    "note: incremental base covers {base_rows} of {rows} rows"
                ));
                let artifacts = entry.mine.as_ref().expect("mine base carries artifacts");
                let universe = Universe::new(canon.names.clone());
                let opts = MineOpts {
                    rules: *rules,
                    maximal: *maximal,
                };
                let (out, update) = exec::mine_incremental(
                    &universe,
                    &artifacts.db,
                    &artifacts.sets,
                    canon.rows_from(base_rows),
                    &opts,
                    &cx,
                );
                let artifacts = MineArtifacts {
                    db: update.db,
                    sets: update.frequent,
                };
                (out, Some((artifacts, rows)))
            } else {
                let (universe, db) = canon.build(0);
                let input = Parsed::Baskets(universe, db);
                let (out, sets) = exec::run(&req.op, &input, &req.run, &cx)?;
                let (Parsed::Baskets(_, db), Some(sets)) = (input, sets) else {
                    unreachable!("a mine run returns its mined collection")
                };
                (out, Some((MineArtifacts { db, sets }, rows)))
            }
        }
        Canon::Parsed(input) => (exec::run(&req.op, &input, &req.run, &cx)?.0, None),
    };

    let exit = i32::from(out.exit);
    let stats: Arc<str> = observer.stats.to_json(meter, out.reason).into();
    // The one escape of this body: the cache, coalesced waiters and this
    // reply all send these bytes. The raw body goes before the shared copy
    // is made, so no more than two body-sized buffers are live at once.
    let wire = proto::wire_body(&out.body);
    drop(out.body);
    let body: Arc<str> = wire.into();
    if storeable(req) && out.reason.is_none() {
        let (mine, rows) = match mine {
            Some((artifacts, rows)) => (Some(Arc::new(artifacts)), rows),
            None => (None, 0),
        };
        shared.cache.insert(Entry {
            params,
            content,
            rows,
            body: Arc::clone(&body),
            stats: Arc::clone(&stats),
            exit,
            mine,
        });
        shared.note_computation();
    }
    Ok(Served {
        tag,
        body,
        stats,
        exit,
        reason: out.reason,
        fingerprint: proto::fingerprint_str(params, content),
    })
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.queue_cv.wait(queue).unwrap();
            }
        };
        run_job(&shared, job);
    }
}

fn run_job(shared: &Shared, job: QueuedJob) {
    let QueuedJob {
        sink,
        conn_id,
        ctl,
        req,
        budget,
        deadline,
    } = job;
    let id = req.id;
    shared.counters.busy_workers.fetch_add(1, Ordering::Relaxed);

    // The deadline is absolute from admission: time spent queued counts
    // against the job's budget. A job that aged out while waiting starts
    // with zero remaining budget, so the pre-flight check in `serve_job`
    // sheds it (typed `budget:deadline` result) without running an
    // engine for a client that already gave up on it.
    let mut budget = budget;
    if let Some(deadline) = deadline {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() && budget.timeout.is_some_and(|t| !t.is_zero()) {
            shared
                .counters
                .shed_deadline
                .fetch_add(1, Ordering::Relaxed);
        }
        budget.timeout = Some(remaining);
    }
    let meter = Arc::new(budget.start());
    *ctl.meter.lock().unwrap() = Some(Arc::clone(&meter));
    if ctl.cancel.load(Ordering::SeqCst) {
        meter.cancel();
    }

    let outcome = serve_job(shared, &req, &meter, &sink);

    // Deregister (only if this registration is still ours — a reused job
    // id re-registers and must not be unregistered by the older job).
    let mut running = shared.running.lock().unwrap();
    if running
        .get(&(conn_id, id))
        .is_some_and(|cur| Arc::ptr_eq(cur, &ctl))
    {
        running.remove(&(conn_id, id));
    }
    drop(running);

    match outcome {
        Ok(served) => {
            let (head, tail) = proto::result_frame(
                id,
                served.tag,
                served.reason,
                served.exit,
                &served.fingerprint,
                &served.stats,
            );
            sink.send_parts(&[head.as_bytes(), served.body.as_bytes(), tail.as_bytes()]);
        }
        Err(f) => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            if f.kind == Some("too_large") {
                shared.counters.too_large.fetch_add(1, Ordering::Relaxed);
            }
            sink.send(&proto::ev_error_typed(id, f.code, f.kind, None, &f.message));
        }
    }
    shared.counters.busy_workers.fetch_sub(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Listeners and connections
// ---------------------------------------------------------------------------

fn handle_conn(shared: Arc<Shared>, reader: Box<dyn Read + Send>, writer: Box<dyn Write + Send>) {
    let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    shared.counters.open_conns.fetch_add(1, Ordering::Relaxed);
    let sink = Arc::new(ConnSink::new(writer, Arc::clone(&shared.counters)));
    let mut lines = LineReader::new(reader, shared.limits.max_frame_bytes);
    loop {
        let line = match lines.next_line(&shared.shutdown) {
            Frame::Line(line) => line,
            Frame::TooLong => {
                // The oversized frame has no parseable id and the stream
                // cannot be resynchronized; reject and disconnect.
                shared.counters.too_large.fetch_add(1, Ordering::Relaxed);
                shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                sink.send(&proto::ev_too_large(
                    0,
                    &format!(
                        "request frame exceeds {} bytes (max-frame-bytes)",
                        shared.limits.max_frame_bytes
                    ),
                ));
                break;
            }
            Frame::Closed => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        match proto::parse_request(&line) {
            Err(e) => {
                shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                sink.send(&proto::ev_error(0, 7, &e.message));
            }
            Ok(Request::Job(req)) => {
                let req = *req;
                // Admission control, cheapest check first. A shed job is
                // never counted in `jobs`, registered, or queued — the
                // typed `overloaded` error is its entire lifecycle.
                let inflight = shared
                    .running
                    .lock()
                    .unwrap()
                    .keys()
                    .filter(|(conn, _)| *conn == conn_id)
                    .count();
                if inflight >= shared.limits.max_inflight_per_conn {
                    shared
                        .counters
                        .shed_conn_limit
                        .fetch_add(1, Ordering::Relaxed);
                    sink.send(&proto::ev_overloaded(
                        req.id,
                        retry_hint_ms(inflight as u64, shared.workers),
                        &format!(
                            "connection already has {inflight} jobs in flight \
                             (max-inflight-per-conn {})",
                            shared.limits.max_inflight_per_conn
                        ),
                    ));
                    continue;
                }
                let (budget, clamped) = req
                    .run
                    .budget()
                    .clamp_timeout(shared.limits.default_timeout, shared.limits.max_timeout);
                let mut queue = shared.queue.lock().unwrap();
                if queue.len() >= shared.limits.max_queue {
                    let backlog = queue.len() as u64;
                    drop(queue);
                    shared
                        .counters
                        .shed_queue_full
                        .fetch_add(1, Ordering::Relaxed);
                    sink.send(&proto::ev_overloaded(
                        req.id,
                        retry_hint_ms(backlog, shared.workers),
                        &format!(
                            "queue full ({backlog} jobs waiting, max-queue {})",
                            shared.limits.max_queue
                        ),
                    ));
                    continue;
                }
                shared.counters.jobs.fetch_add(1, Ordering::Relaxed);
                if clamped {
                    shared
                        .counters
                        .deadline_clamped
                        .fetch_add(1, Ordering::Relaxed);
                }
                let ctl = Arc::new(JobCtl::new());
                shared
                    .running
                    .lock()
                    .unwrap()
                    .insert((conn_id, req.id), Arc::clone(&ctl));
                let deadline = budget.timeout.map(|t| Instant::now() + t);
                queue.push_back(QueuedJob {
                    sink: Arc::clone(&sink),
                    conn_id,
                    ctl,
                    req,
                    budget,
                    deadline,
                });
                drop(queue);
                shared.queue_cv.notify_one();
            }
            Ok(Request::Cancel { id, job }) => {
                let found = {
                    let running = shared.running.lock().unwrap();
                    running.get(&(conn_id, job)).map(Arc::clone)
                };
                if let Some(ctl) = &found {
                    ctl.cancel();
                }
                sink.send(&proto::ev_cancelled(id, job, found.is_some()));
            }
            Ok(Request::ServerStats { id }) => {
                sink.send(&proto::ev_server_stats(id, &shared.server_counters()));
            }
            Ok(Request::Shutdown { id }) => {
                sink.send(&proto::ev_shutdown(id));
                shared.begin_shutdown();
                break;
            }
        }
    }
    // Client gone (or shutting down): cancel this connection's jobs so
    // workers are not held by output nobody will read.
    let running = shared.running.lock().unwrap();
    for ((conn, _), ctl) in running.iter() {
        if *conn == conn_id {
            ctl.cancel();
        }
    }
    drop(running);
    shared.counters.open_conns.fetch_sub(1, Ordering::Relaxed);
}

/// A connection's read and write halves, ready for [`handle_conn`].
type Halves = (Box<dyn Read + Send>, Box<dyn Write + Send>);

/// The accept loop of one listener, polled until shutdown. `nonblocking`
/// is the listener's switch to nonblocking accepts: a listener that
/// cannot make it would wedge shutdown, so it is disabled rather than
/// panicking the accept thread. `accept` takes the next pending
/// connection: `Err` when none is pending (or accept failed), `Ok(Err)`
/// when its socket could not take its deadlines.
fn accept_loop(
    shared: Arc<Shared>,
    kind: &str,
    nonblocking: io::Result<()>,
    accept: impl Fn() -> io::Result<io::Result<Halves>>,
) {
    if let Err(e) = nonblocking {
        eprintln!("serve: warning: {kind} listener disabled (set_nonblocking: {e})");
        return;
    }
    while !shared.shutdown.load(Ordering::SeqCst) {
        match accept() {
            Ok(Ok((reader, writer))) => {
                let shared2 = Arc::clone(&shared);
                let handle = std::thread::spawn(move || handle_conn(shared2, reader, writer));
                shared.conns.lock().unwrap().push(handle);
            }
            // A socket that cannot take its deadlines is dropped: running
            // it without timeouts would reintroduce the unbounded-stall
            // failure modes the deadlines exist for.
            Ok(Err(e)) => eprintln!("serve: warning: dropping connection (socket setup: {e})"),
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// A running server. Dropping the handle does *not* stop the server; call
/// [`shutdown`](ServerHandle::shutdown) (or send the `shutdown` op) and
/// then [`join`](ServerHandle::join).
pub struct ServerHandle {
    shared: Arc<Shared>,
    /// The bound TCP address (with the real port when `:0` was requested).
    pub tcp_addr: Option<SocketAddr>,
    /// The unix socket path, if one was configured.
    pub unix_path: Option<PathBuf>,
    accepters: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// Begins a drain: no new connections or queue pops block; workers
    /// finish the jobs they hold and exit.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Waits for the drain to finish: listeners, workers, and every
    /// connection thread join; a final cache snapshot is written when
    /// persistence is configured; the unix socket file is removed.
    /// Blocks until [`shutdown`](ServerHandle::shutdown) (or a client
    /// `shutdown` op) has been issued.
    pub fn join(self) {
        for h in self.accepters {
            let _ = h.join();
        }
        for h in self.workers {
            let _ = h.join();
        }
        // Workers are done, so the cache is final: snapshot it now.
        self.shared.snapshot_cache();
        let conns = std::mem::take(&mut *self.shared.conns.lock().unwrap());
        for h in conns {
            let _ = h.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Current server counters (for tests and the CLI banner).
    pub fn counters(&self) -> ServerCounters {
        self.shared.server_counters()
    }
}

/// Binds the listeners and starts the worker pool.
pub fn start(config: &ServeConfig) -> io::Result<ServerHandle> {
    let workers = if config.workers == 0 {
        available_cpus()
    } else {
        config.workers
    };
    let cache_entries = if config.cache_entries == 0 {
        256
    } else {
        config.cache_entries
    };
    let limits = Limits::from_config(config);
    let cache = ResultCache::new(cache_entries);
    let counters = Arc::new(Counters::default());
    let persist = config.cache_persist.as_ref().map(|path| {
        let path = PathBuf::from(path);
        // Restore the previous snapshot; a torn or corrupted file is a
        // warning and a cold start, never a failed boot.
        match persist::load_snapshot(&cache, &path) {
            Ok(n) => counters.persist_restored.store(n, Ordering::Relaxed),
            Err(e) => {
                counters.persist_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("serve: warning: cache snapshot {path:?} unusable, cold-starting: {e}");
            }
        }
        PersistState {
            path,
            every: config.cache_snapshot_every,
            pending: AtomicU64::new(0),
            write_lock: Mutex::new(()),
        }
    });
    let shared = Arc::new(Shared {
        cache,
        inflight: Mutex::new(HashMap::new()),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        running: Mutex::new(HashMap::new()),
        conns: Mutex::new(Vec::new()),
        counters,
        workers: workers as u64,
        next_conn: AtomicU64::new(1),
        limits,
        persist,
    });

    let mut accepters = Vec::new();
    let mut tcp_addr = None;
    let default_tcp;
    let tcp = match (&config.tcp, &config.unix) {
        (Some(addr), _) => Some(addr.as_str()),
        (None, None) => {
            default_tcp = "127.0.0.1:0".to_string();
            Some(default_tcp.as_str())
        }
        (None, Some(_)) => None,
    };
    if let Some(addr) = tcp {
        let listener = TcpListener::bind(addr)?;
        tcp_addr = Some(listener.local_addr()?);
        let shared2 = Arc::clone(&shared);
        accepters.push(std::thread::spawn(move || {
            let nonblocking = listener.set_nonblocking(true);
            accept_loop(shared2, "TCP", nonblocking, || {
                let (stream, _) = listener.accept()?;
                let _ = stream.set_nodelay(true);
                Ok(stream
                    .set_read_timeout(Some(POLL))
                    .and_then(|()| stream.set_write_timeout(Some(limits.write_timeout)))
                    .and_then(|()| stream.try_clone())
                    .map(|writer| -> Halves { (Box::new(stream), Box::new(writer)) }))
            })
        }));
    }
    let mut unix_path = None;
    if let Some(path) = &config.unix {
        #[cfg(unix)]
        {
            // A stale socket file from a killed daemon blocks the bind;
            // remove it (connecting to it would have failed anyway).
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            unix_path = Some(PathBuf::from(path));
            let shared2 = Arc::clone(&shared);
            accepters.push(std::thread::spawn(move || {
                let nonblocking = listener.set_nonblocking(true);
                accept_loop(shared2, "unix", nonblocking, || {
                    let (stream, _) = listener.accept()?;
                    Ok(stream
                        .set_read_timeout(Some(POLL))
                        .and_then(|()| stream.set_write_timeout(Some(limits.write_timeout)))
                        .and_then(|()| stream.try_clone())
                        .map(|writer| -> Halves { (Box::new(stream), Box::new(writer)) }))
                })
            }));
        }
        #[cfg(not(unix))]
        {
            let _ = path;
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are not supported on this platform",
            ));
        }
    }

    let worker_handles = (0..workers)
        .map(|_| {
            let shared2 = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(shared2))
        })
        .collect();

    Ok(ServerHandle {
        shared,
        tcp_addr,
        unix_path,
        accepters,
        workers: worker_handles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits(max_rows: u64, max_items: u64) -> Limits {
        Limits {
            max_rows,
            max_items,
            ..Limits::from_config(&ServeConfig::default())
        }
    }

    #[test]
    fn max_items_counts_hash_cells_of_a_relation_as_data() {
        // Four distinct cells, each holding a `#`: over a bound of 3.
        let csv = "a,b\nx#1,y#2\nx#3,y#4\n";
        let err = check_input_size(&limits(0, 3), "r.csv", csv, true).unwrap_err();
        assert_eq!(err.kind, Some("too_large"));
        assert!(err.message.contains("max-items"), "{}", err.message);
        // A whole-line comment is still not data, and the bound holds.
        let csv = "a,b\n# x#1,y#2,z#3,w#4\nx,y\n";
        assert!(check_input_size(&limits(0, 3), "r.csv", csv, true).is_ok());
        // In a whitespace format `#` starts an inline comment.
        let baskets = "x y # z w v\n";
        assert!(check_input_size(&limits(0, 2), "b.txt", baskets, false).is_ok());
    }

    #[test]
    fn job_threads_defaults_to_one_and_caps_at_the_cpus() {
        let cpus = available_cpus();
        assert_eq!(job_threads(0), 1);
        assert_eq!(job_threads(1), 1);
        assert_eq!(job_threads(usize::MAX), cpus);
    }

    #[test]
    fn line_reader_splits_and_survives_partial_reads() {
        // A reader that yields one byte at a time with interleaved
        // timeouts, as a socket with a read timeout would.
        struct Trickle {
            data: Vec<u8>,
            pos: usize,
            tick: bool,
        }
        impl Read for Trickle {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.tick = !self.tick;
                if self.tick {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "poll"));
                }
                if self.pos >= self.data.len() {
                    return Ok(0);
                }
                buf[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let shutdown = AtomicBool::new(false);
        let mut lines = LineReader::new(
            Trickle {
                data: b"alpha\r\nbeta\ngamma".to_vec(),
                pos: 0,
                tick: false,
            },
            DEFAULT_MAX_FRAME_BYTES,
        );
        let next = |lines: &mut LineReader<Trickle>| match lines.next_line(&shutdown) {
            Frame::Line(line) => Some(line),
            Frame::TooLong => panic!("unexpected TooLong"),
            Frame::Closed => None,
        };
        assert_eq!(next(&mut lines).as_deref(), Some("alpha"));
        assert_eq!(next(&mut lines).as_deref(), Some("beta"));
        // Trailing data without a newline is dropped at EOF (a client
        // that dies mid-line never sent a complete request).
        assert_eq!(next(&mut lines), None);
    }

    #[test]
    fn line_reader_bounds_frame_size() {
        let shutdown = AtomicBool::new(false);
        // An unterminated flood past the cap is rejected without waiting
        // for a newline that may never come.
        let mut lines = LineReader::new(io::Cursor::new(vec![b'x'; 64]), 16);
        assert!(matches!(lines.next_line(&shutdown), Frame::TooLong));
        // A terminated line past the cap is rejected too.
        let mut data = vec![b'y'; 32];
        data.push(b'\n');
        let mut lines = LineReader::new(io::Cursor::new(data), 16);
        assert!(matches!(lines.next_line(&shutdown), Frame::TooLong));
        // At or under the cap passes.
        let mut lines = LineReader::new(io::Cursor::new(b"ok\n".to_vec()), 16);
        assert!(matches!(lines.next_line(&shutdown), Frame::Line(l) if l == "ok"));
    }

    #[test]
    fn line_reader_reads_frames_near_the_bound_in_linear_time() {
        // A socket hands a large frame over a few KiB per read; each read
        // must cost its own bytes, not a rescan of the whole buffer.
        struct Chunked(io::Cursor<Vec<u8>>);
        impl Read for Chunked {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let n = buf.len().min(4096);
                self.0.read(&mut buf[..n])
            }
        }
        let reader = |data: Vec<u8>| {
            LineReader::new(Chunked(io::Cursor::new(data)), DEFAULT_MAX_FRAME_BYTES)
        };
        let shutdown = AtomicBool::new(false);
        let start = Instant::now();
        let len = DEFAULT_MAX_FRAME_BYTES - 1024;
        let mut frame = vec![b'x'; len];
        frame.extend_from_slice(b"\nnext\n");
        let mut lines = reader(frame);
        assert!(matches!(lines.next_line(&shutdown), Frame::Line(l) if l.len() == len));
        assert!(matches!(lines.next_line(&shutdown), Frame::Line(l) if l == "next"));
        // Over the bound, with or without a newline, is still rejected.
        let flood = vec![b'y'; DEFAULT_MAX_FRAME_BYTES + 4096];
        assert!(matches!(
            reader(flood.clone()).next_line(&shutdown),
            Frame::TooLong
        ));
        let mut long_line = flood;
        long_line.push(b'\n');
        assert!(matches!(
            reader(long_line).next_line(&shutdown),
            Frame::TooLong
        ));
        // Small lines pipelined behind a large frame arrive in one large
        // read; returning each must not move the rest of the buffer.
        let mut data = vec![b'z'; 4 << 20];
        data.push(b'\n');
        data.extend(b"ok\n".repeat(200_000));
        let mut lines = LineReader::new(io::Cursor::new(data), DEFAULT_MAX_FRAME_BYTES);
        assert!(matches!(lines.next_line(&shutdown), Frame::Line(l) if l.len() == 4 << 20));
        for _ in 0..200_000 {
            assert!(matches!(lines.next_line(&shutdown), Frame::Line(l) if l == "ok"));
        }
        assert!(matches!(lines.next_line(&shutdown), Frame::Closed));
        // Generous bound: linear reading takes well under a second even in
        // debug builds; rescanning the buffer after every read took tens
        // of seconds.
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "frame reading is superlinear again: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn job_ctl_cancel_trips_the_meter() {
        let ctl = JobCtl::new();
        let meter = Arc::new(dualminer_obs::Budget::default().start());
        *ctl.meter.lock().unwrap() = Some(Arc::clone(&meter));
        assert!(meter.exceeded().is_none());
        ctl.cancel();
        assert_eq!(meter.exceeded(), Some(BudgetReason::Cancelled));
    }

    #[test]
    fn limits_apply_defaults_and_floors() {
        let limits = Limits::from_config(&ServeConfig::default());
        assert_eq!(limits.max_queue, DEFAULT_MAX_QUEUE);
        assert_eq!(limits.max_inflight_per_conn, DEFAULT_MAX_INFLIGHT_PER_CONN);
        assert_eq!(limits.max_frame_bytes, DEFAULT_MAX_FRAME_BYTES);
        assert_eq!(limits.write_timeout, DEFAULT_WRITE_TIMEOUT);
        assert_eq!((limits.max_rows, limits.max_items), (0, 0));
        let limits = Limits::from_config(&ServeConfig {
            max_queue: 3,
            max_inflight_per_conn: 2,
            max_frame_bytes: 128,
            write_timeout: Some(Duration::ZERO),
            ..ServeConfig::default()
        });
        assert_eq!(limits.max_queue, 3);
        assert_eq!(limits.max_inflight_per_conn, 2);
        assert_eq!(limits.max_frame_bytes, 128);
        // Zero write timeouts are invalid at the socket layer; floored.
        assert_eq!(limits.write_timeout, Duration::from_millis(1));
    }

    #[test]
    fn retry_hints_scale_with_backlog_and_stay_bounded() {
        assert_eq!(retry_hint_ms(0, 4), 25);
        assert_eq!(retry_hint_ms(8, 4), 75);
        assert_eq!(retry_hint_ms(1_000_000, 1), 5_000);
        // A zero worker count (impossible, but cheap to defend) does not
        // divide by zero.
        assert_eq!(retry_hint_ms(10, 0), 275);
    }

    #[test]
    fn input_size_checks_reject_typed() {
        let limits = Limits {
            max_rows: 2,
            max_items: 3,
            ..Limits::from_config(&ServeConfig::default())
        };
        assert!(check_input_size(&limits, "in", "a b\n# comment\na c\n", false).is_ok());
        let err = check_input_size(&limits, "in", "a\nb\nc\n", false).unwrap_err();
        assert_eq!((err.code, err.kind), (3, Some("too_large")));
        assert!(err.message.contains("max-rows"));
        let err = check_input_size(&limits, "in", "a,b\nc,d\n", false).unwrap_err();
        assert_eq!((err.code, err.kind), (3, Some("too_large")));
        assert!(err.message.contains("max-items"));
        // Repeated items are distinct-counted, not occurrence-counted.
        assert!(check_input_size(&limits, "in", "a b c\na b c\n", false).is_ok());
        // A CSV header is not a data row: two rows under it pass, three
        // do not; a leading comment does not make the header a row.
        let csv = "# relation\nx,y\n1,2\n1,3\n";
        assert!(check_input_size(&limits, "in", csv, true).is_ok());
        let err = check_input_size(&limits, "in", &format!("{csv}2,2\n"), true).unwrap_err();
        assert!(err.message.contains("max-rows"));
        // Unlimited by default.
        let unlimited = Limits::from_config(&ServeConfig::default());
        assert!(check_input_size(&unlimited, "in", "a\nb\nc\nd\ne\n", false).is_ok());
    }
}
