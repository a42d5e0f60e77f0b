//! The line-oriented JSON wire protocol of `dualminer serve`.
//!
//! One JSON object per line in each direction. Clients send requests;
//! the server answers every request with one terminal event (`result`,
//! `error`, `server-stats`, `shutdown`, or `cancelled` acknowledgement)
//! and, for jobs with `"progress": true`, any number of `progress` /
//! `note` events before it. Events carry the request's `id` so one
//! connection can keep several jobs in flight.
//!
//! The JSON dialect is the integer-only [`Json`] the checkpoint format
//! also uses — no floats on the wire; ids and counters are exact `u64`.
//! Quantities that are naturally
//! fractional (support fractions, rule confidence, timeouts) travel as
//! *strings* in the CLI's own flag syntax (`"0.5"`, `"250ms"`) and parse
//! through the same [`crate::job`] parsers as the command line, so the
//! wire accepts exactly what the flags accept. The stats artifact — whose
//! own format has floats and is produced by the write-only
//! `StatsCollector` — is embedded as an escaped JSON string field, not as
//! a nested object.

use dualminer_hypergraph::{plan, TrAlgorithm};
use dualminer_obs::{BudgetReason, FaultSpec, Json};

use crate::job::{self, RunOpts, Support};

/// A protocol-level failure: the line was not a valid request. Maps to
/// exit code 7 on the CLI.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError {
    /// What was wrong with the request.
    pub message: String,
}

impl ProtoError {
    fn new(message: impl Into<String>) -> ProtoError {
        ProtoError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ProtoError {}

/// A job input: a path the *server* reads, or the content inline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Input {
    /// Read this file server-side.
    Path(String),
    /// The input text itself.
    Inline(String),
}

impl Input {
    /// A short label for error locations: the path, or `"<inline>"`.
    pub fn label(&self) -> &str {
        match self {
            Input::Path(p) => p,
            Input::Inline(_) => "<inline>",
        }
    }
}

/// Client control over the result cache for one job.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CacheMode {
    /// Look up, and store a complete result.
    #[default]
    Normal,
    /// Neither look up nor store (benchmark cold runs).
    Bypass,
    /// Look up, but do not store.
    NoStore,
}

impl CacheMode {
    fn parse(s: &str) -> Result<CacheMode, ProtoError> {
        match s {
            "normal" => Ok(CacheMode::Normal),
            "bypass" => Ok(CacheMode::Bypass),
            "no-store" => Ok(CacheMode::NoStore),
            other => Err(ProtoError::new(format!(
                "unknown cache mode {other:?} (want normal, bypass, or no-store)"
            ))),
        }
    }
}

/// The operation a job performs, with its op-specific knobs.
#[derive(Clone, Debug, PartialEq)]
pub enum OpKind {
    /// Frequent-set mining (`dualminer mine`).
    Mine {
        /// Support threshold.
        min_support: Support,
        /// Association-rule confidence, if rules were requested.
        rules: Option<f64>,
        /// Emit the maximal sets + negative border block.
        maximal: bool,
        /// Inert: always 1024. It was the row cap of a
        /// segmented store layout that no longer exists; the parser no
        /// longer reads it, and it stays only because existing callers
        /// destructure it.
        segment_rows: usize,
    },
    /// Minimal-transversal enumeration (`dualminer transversals`).
    Transversals {
        /// Algorithm selection (`--algo`).
        algo: TrAlgorithm,
    },
    /// Key / FD discovery (`dualminer keys`).
    Keys {
        /// Also derive minimal functional dependencies.
        fds: bool,
    },
    /// Duality verification (`dualminer verify-dual`).
    VerifyDual,
}

impl OpKind {
    /// The op name as it appears on the wire.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Mine { .. } => "mine",
            OpKind::Transversals { .. } => "transversals",
            OpKind::Keys { .. } => "keys",
            OpKind::VerifyDual => "verify-dual",
        }
    }
}

/// One job request.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRequest {
    /// Client-chosen id, echoed on every event for this job.
    pub id: u64,
    /// What to compute.
    pub op: OpKind,
    /// The input (second input for `verify-dual` in `input2`).
    pub input: Input,
    /// `verify-dual`'s second family.
    pub input2: Option<Input>,
    /// Worker threads for this job. The daemon runs 0 as 1 and caps every
    /// count at its CPUs; the CLI runs 0 as all available CPUs.
    pub threads: usize,
    /// Budgets, fault tolerance, checkpointing.
    pub run: RunOpts,
    /// Stream `progress` events while the job runs.
    pub progress: bool,
    /// Result-cache behavior.
    pub cache_mode: CacheMode,
}

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Run a job.
    Job(Box<JobRequest>),
    /// Cancel a running job submitted on this connection.
    Cancel {
        /// Request id for the acknowledgement.
        id: u64,
        /// The id of the job to cancel.
        job: u64,
    },
    /// Report server counters (jobs, cache traffic, workers).
    ServerStats {
        /// Request id for the reply.
        id: u64,
    },
    /// Drain and stop the server.
    Shutdown {
        /// Request id for the acknowledgement.
        id: u64,
    },
}

fn str_field<'a>(obj: &'a Json, key: &str) -> Result<Option<&'a str>, ProtoError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s)),
        Some(other) => Err(ProtoError::new(format!(
            "field {key:?} must be a string, got {other}"
        ))),
    }
}

fn uint_field(obj: &Json, key: &str) -> Result<Option<u64>, ProtoError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_uint().map(Some).ok_or_else(|| {
            ProtoError::new(format!("field {key:?} must be a non-negative integer"))
        }),
    }
}

fn bool_field(obj: &Json, key: &str) -> Result<bool, ProtoError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(false),
        Some(Json::Bool(b)) => Ok(*b),
        Some(other) => Err(ProtoError::new(format!(
            "field {key:?} must be a boolean, got {other}"
        ))),
    }
}

fn input_field(obj: &Json, key: &str) -> Result<Option<Input>, ProtoError> {
    let Some(value) = obj.get(key) else {
        return Ok(None);
    };
    let bad = || {
        ProtoError::new(format!(
            "field {key:?} must be {{\"path\": …}} or {{\"inline\": …}}"
        ))
    };
    let (path, inline) = (
        str_field(value, "path").map_err(|_| bad())?,
        str_field(value, "inline").map_err(|_| bad())?,
    );
    match (path, inline, value) {
        (Some(p), None, Json::Obj(_)) => Ok(Some(Input::Path(p.to_string()))),
        (None, Some(t), Json::Obj(_)) => Ok(Some(Input::Inline(t.to_string()))),
        _ => Err(bad()),
    }
}

fn parse_run(obj: &Json) -> Result<RunOpts, ProtoError> {
    let run = match obj.get("run") {
        None | Some(Json::Null) => return Ok(RunOpts::default()),
        Some(run @ Json::Obj(_)) => run,
        Some(_) => return Err(ProtoError::new("field \"run\" must be an object")),
    };
    let mut opts = RunOpts {
        timeout: str_field(run, "timeout")?
            .map(job::parse_duration)
            .transpose()
            .map_err(ProtoError::new)?,
        max_queries: uint_field(run, "max_queries")?,
        max_transversals: uint_field(run, "max_transversals")?,
        fault_inject: str_field(run, "fault_inject")?
            .map(FaultSpec::parse)
            .transpose()
            .map_err(ProtoError::new)?,
        retry: uint_field(run, "retry")?.unwrap_or(0) as u32,
        checkpoint: str_field(run, "checkpoint")?.map(str::to_string),
        checkpoint_every: uint_field(run, "checkpoint_every")?,
        resume: bool_field(run, "resume")?,
        ..RunOpts::default()
    };
    // progress/stats_json are connection-level concerns on the wire, not
    // run options: the server always collects stats, and progress is the
    // top-level "progress" flag.
    opts.progress = false;
    opts.stats_json = false;
    job::validate_run(&opts).map_err(ProtoError::new)?;
    Ok(opts)
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let obj = Json::parse(line).map_err(|e| ProtoError::new(format!("invalid JSON: {e}")))?;
    let op = str_field(&obj, "op")?.ok_or_else(|| ProtoError::new("missing \"op\""))?;
    let id = uint_field(&obj, "id")?.ok_or_else(|| ProtoError::new("missing \"id\""))?;
    match op {
        "cancel" => {
            let job = uint_field(&obj, "job")?.ok_or_else(|| ProtoError::new("missing \"job\""))?;
            return Ok(Request::Cancel { id, job });
        }
        "server-stats" => return Ok(Request::ServerStats { id }),
        "shutdown" => return Ok(Request::Shutdown { id }),
        _ => {}
    }
    let op = match op {
        "mine" => OpKind::Mine {
            min_support: str_field(&obj, "min_support")?
                .ok_or_else(|| ProtoError::new("mine requires \"min_support\""))
                .and_then(|s| job::parse_support(s).map_err(ProtoError::new))?,
            rules: str_field(&obj, "rules")?
                .map(job::parse_confidence)
                .transpose()
                .map_err(ProtoError::new)?,
            maximal: bool_field(&obj, "maximal")?,
            segment_rows: INERT_ROW_CAP,
        },
        "transversals" => OpKind::Transversals {
            algo: str_field(&obj, "algo")?
                .map(job::parse_algo)
                .transpose()
                .map_err(ProtoError::new)?
                .unwrap_or(TrAlgorithm::Auto),
        },
        "keys" => OpKind::Keys {
            fds: bool_field(&obj, "fds")?,
        },
        "verify-dual" => OpKind::VerifyDual,
        other => return Err(ProtoError::new(format!("unknown op {other:?}"))),
    };
    let input = input_field(&obj, "input")?.ok_or_else(|| ProtoError::new("missing \"input\""))?;
    let input2 = input_field(&obj, "input2")?;
    match (&op, &input2) {
        (OpKind::VerifyDual, None) => {
            return Err(ProtoError::new("verify-dual requires \"input2\""))
        }
        (OpKind::VerifyDual, Some(_)) => {}
        (_, Some(_)) => return Err(ProtoError::new("\"input2\" is only valid for verify-dual")),
        (_, None) => {}
    }
    Ok(Request::Job(Box::new(JobRequest {
        id,
        op,
        input,
        input2,
        threads: uint_field(&obj, "threads")?
            .map(|n| n as usize)
            .unwrap_or(0),
        run: parse_run(&obj)?,
        progress: bool_field(&obj, "progress")?,
        cache_mode: str_field(&obj, "cache")?
            .map(CacheMode::parse)
            .transpose()?
            .unwrap_or_default(),
    })))
}

// ---------------------------------------------------------------------------
// Params fingerprint
// ---------------------------------------------------------------------------

/// What every mine params digest hashes where it once hashed the
/// request's row-segment cap: that cap's old default. Digests of requests
/// that never named the field — and the persisted cache keys built from
/// them — are therefore unchanged. A frontend that builds a mine
/// [`OpKind`] itself fills its `segment_rows` with this.
pub const INERT_ROW_CAP: usize = 1024;

/// What every params digest hashes where it once hashed the request's
/// scheduler grain: the "unset" value. A `"grain"` field is now ignored
/// like any unknown field, so requests with and without it share a key,
/// and the keys of requests that never named it are unchanged.
const INERT_GRAIN: u64 = u64::MAX;

impl JobRequest {
    /// The params fingerprint: a digest of every request field that can
    /// influence the rendered body or the replayed stats artifact — the
    /// operation and its knobs, the thread count, and the full run tier.
    /// Deliberately *excludes* the input (that is the content
    /// fingerprint's half of the key), the client id, and the delivery
    /// flags (`progress`, `cache`), which change what is streamed but
    /// never what is computed.
    pub fn params_fingerprint(&self) -> u64 {
        self.fingerprint_with(&self.run)
    }

    /// The params fingerprint of this request with its budget cleared:
    /// the key a cached incremental base is looked up under. A budget
    /// decides only where a run stops, never what a complete run answers,
    /// so one complete base serves the request at every budget.
    pub(crate) fn base_params_fingerprint(&self) -> u64 {
        self.fingerprint_with(&RunOpts {
            timeout: None,
            max_queries: None,
            max_transversals: None,
            ..self.run.clone()
        })
    }

    /// [`params_fingerprint`](Self::params_fingerprint) with `run` in
    /// place of the request's run tier.
    fn fingerprint_with(&self, run: &RunOpts) -> u64 {
        let mut h = dualminer_obs::FnvStream::new();
        let tag = |h: &mut dualminer_obs::FnvStream, s: &str| {
            h.update_u64(s.len() as u64);
            h.update(s.as_bytes());
        };
        tag(&mut h, self.op.name());
        match &self.op {
            OpKind::Mine {
                min_support,
                rules,
                maximal,
                ..
            } => {
                match min_support {
                    Support::Absolute(n) => {
                        h.update(b"abs");
                        h.update_u64(*n as u64);
                    }
                    Support::Relative(f) => {
                        h.update(b"rel");
                        h.update_u64(f.to_bits());
                    }
                }
                match rules {
                    Some(c) => {
                        h.update(b"rules");
                        h.update_u64(c.to_bits());
                    }
                    None => h.update(b"norules"),
                }
                h.update(&[u8::from(*maximal)]);
                h.update_u64(INERT_ROW_CAP as u64);
            }
            OpKind::Transversals { algo } => tag(&mut h, plan::algo_name(*algo)),
            OpKind::Keys { fds } => h.update(&[u8::from(*fds)]),
            OpKind::VerifyDual => {}
        }
        h.update_u64(self.threads as u64);
        h.update_u64(run.timeout.map_or(u64::MAX, |d| d.as_nanos() as u64));
        h.update_u64(run.max_queries.unwrap_or(u64::MAX));
        h.update_u64(run.max_transversals.unwrap_or(u64::MAX));
        match &run.fault_inject {
            Some(spec) => tag(&mut h, &format!("{spec:?}")),
            None => h.update(b"nofault"),
        }
        h.update_u64(u64::from(run.retry));
        match &run.checkpoint {
            Some(path) => tag(&mut h, path),
            None => h.update(b"nockpt"),
        }
        h.update_u64(run.checkpoint_every.unwrap_or(0));
        h.update(&[u8::from(run.resume)]);
        h.update_u64(INERT_GRAIN);
        h.digest()
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Renders the composite fingerprint stamped on `accepted`/`result`
/// events: `"{params:016x}-{content:016x}"`.
pub fn fingerprint_str(params: u64, content: u64) -> String {
    format!("{params:016x}-{content:016x}")
}

fn event(kind: &str, id: u64) -> Vec<(String, Json)> {
    vec![
        ("event".into(), Json::str(kind)),
        ("id".into(), Json::uint(id)),
    ]
}

/// `accepted`: the job was admitted, with its composite fingerprint.
pub fn ev_accepted(id: u64, fingerprint: &str) -> String {
    let mut f = event("accepted", id);
    f.push(("fingerprint".into(), Json::str(fingerprint)));
    Json::Obj(f).serialize()
}

/// `progress`: one observer narration line (same text the CLI prints to
/// stderr under `--progress`).
pub fn ev_progress(id: u64, text: &str) -> String {
    let mut f = event("progress", id);
    f.push(("text".into(), Json::str(text)));
    Json::Obj(f).serialize()
}

/// `note`: out-of-band narration (engine choice, checkpoint-resume notes)
/// the CLI prints as `note: …` on stderr.
pub fn ev_note(id: u64, text: &str) -> String {
    let mut f = event("note", id);
    f.push(("text".into(), Json::str(text)));
    Json::Obj(f).serialize()
}

/// How a result was obtained, stamped on every `result` event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheTag {
    /// Computed fresh (cache missed or was bypassed).
    Miss,
    /// Served from the cache without running any engine.
    Hit,
    /// Re-mined incrementally on top of a cached prefix.
    Incremental,
    /// Another in-flight job with the same fingerprint computed it; this
    /// request waited and shared the result.
    Coalesced,
}

impl CacheTag {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheTag::Miss => "miss",
            CacheTag::Hit => "hit",
            CacheTag::Incremental => "incremental",
            CacheTag::Coalesced => "coalesced",
        }
    }
}

/// `result`: the terminal success event. `outcome` is `"complete"` or
/// `"budget:<reason>"`; `exit` is the code the one-shot CLI would have
/// exited with (0, 1 for not-dual, 6 for budget-tripped); `body` is the
/// byte-exact stdout of the equivalent one-shot run and `stats` its
/// stats-JSON artifact, both as embedded strings.
#[allow(clippy::too_many_arguments)]
pub fn ev_result(
    id: u64,
    cache: CacheTag,
    reason: Option<BudgetReason>,
    exit: i32,
    fingerprint: &str,
    body: &str,
    stats: &str,
) -> String {
    let mut f = event("result", id);
    f.push(("cache".into(), Json::str(cache.as_str())));
    let outcome = match reason {
        None => "complete".to_string(),
        Some(r) => format!("budget:{}", r.as_str()),
    };
    f.push(("outcome".into(), Json::str(outcome)));
    f.push(("exit".into(), Json::Int(i64::from(exit))));
    f.push(("fingerprint".into(), Json::str(fingerprint)));
    f.push(("body".into(), Json::str(body)));
    f.push(("stats".into(), Json::str(stats)));
    Json::Obj(f).serialize()
}

/// `error`: the terminal failure event, carrying the CLI exit code
/// (2 usage, 3 parse, 4 I/O, 5 fault, 7 protocol).
pub fn ev_error(id: u64, code: i32, message: &str) -> String {
    ev_error_typed(id, code, None, None, message)
}

/// `error` with an optional machine-readable `kind` discriminator
/// (`"overloaded"`, `"too_large"`) and, for `overloaded`, the server's
/// `retry_after_ms` backoff hint. Plain errors omit both fields, so the
/// wire shape of pre-existing errors is unchanged.
pub fn ev_error_typed(
    id: u64,
    code: i32,
    kind: Option<&str>,
    retry_after_ms: Option<u64>,
    message: &str,
) -> String {
    let mut f = event("error", id);
    f.push(("code".into(), Json::Int(i64::from(code))));
    if let Some(kind) = kind {
        f.push(("kind".into(), Json::str(kind)));
    }
    if let Some(ms) = retry_after_ms {
        f.push(("retry_after_ms".into(), Json::uint(ms)));
    }
    f.push(("message".into(), Json::str(message)));
    Json::Obj(f).serialize()
}

/// `error` of kind `overloaded`: the job was shed at admission (queue or
/// per-connection limit). Exit code 7 — the service, not the job, failed
/// — with a deterministic `retry_after_ms` hint sized to the backlog.
pub fn ev_overloaded(id: u64, retry_after_ms: u64, message: &str) -> String {
    ev_error_typed(id, 7, Some("overloaded"), Some(retry_after_ms), message)
}

/// `error` of kind `too_large`: the frame or input exceeded an admission
/// limit. Exit code 3 (the input was rejected, like a parse failure),
/// emitted before any canonicalization work.
pub fn ev_too_large(id: u64, message: &str) -> String {
    ev_error_typed(id, 3, Some("too_large"), None, message)
}

/// `cancelled`: acknowledgement of a `cancel` request. `found` says
/// whether the job was still running on this connection.
pub fn ev_cancelled(id: u64, job: u64, found: bool) -> String {
    let mut f = event("cancelled", id);
    f.push(("job".into(), Json::uint(job)));
    f.push(("found".into(), Json::Bool(found)));
    Json::Obj(f).serialize()
}

/// `shutdown`: acknowledgement that the server is draining and will close.
pub fn ev_shutdown(id: u64) -> String {
    Json::Obj(event("shutdown", id)).serialize()
}

/// Server-level counters reported by `server-stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Jobs accepted.
    pub jobs: u64,
    /// Jobs that ran an engine (misses + incremental).
    pub computations: u64,
    /// Results served from the cache.
    pub hits: u64,
    /// Requests coalesced onto an identical in-flight job.
    pub coalesced: u64,
    /// Jobs served via incremental re-mining.
    pub incremental: u64,
    /// Jobs that ended in an `error` event.
    pub errors: u64,
    /// Worker threads in the pool.
    pub workers: u64,
    /// Workers currently running a job (gauge; 0 when idle).
    pub busy_workers: u64,
    /// Connections currently open (gauge).
    pub open_conns: u64,
    /// Jobs shed at admission because the queue was full.
    pub shed_queue_full: u64,
    /// Jobs shed at admission by the per-connection in-flight limit.
    pub shed_conn_limit: u64,
    /// Jobs whose deadline expired while queued (dropped before any
    /// engine work).
    pub shed_deadline: u64,
    /// Jobs whose budget was adjusted by `--default-timeout` /
    /// `--max-timeout`.
    pub deadline_clamped: u64,
    /// Frames or inputs rejected by an admission size limit.
    pub too_large: u64,
    /// Event writes abandoned because a client stalled past the write
    /// deadline.
    pub write_timeouts: u64,
    /// Cache snapshots written successfully.
    pub persist_saves: u64,
    /// Cache entries restored from a snapshot at boot.
    pub persist_restored: u64,
    /// Snapshot save/load failures (corrupt file, I/O).
    pub persist_errors: u64,
    /// Cache entries resident.
    pub cache_entries: u64,
    /// Cache evictions so far.
    pub cache_evictions: u64,
}

/// `server-stats`: the counters reply.
pub fn ev_server_stats(id: u64, c: &ServerCounters) -> String {
    let mut f = event("server-stats", id);
    for (key, value) in [
        ("jobs", c.jobs),
        ("computations", c.computations),
        ("cache_hits", c.hits),
        ("coalesced", c.coalesced),
        ("incremental", c.incremental),
        ("errors", c.errors),
        ("workers", c.workers),
        ("busy_workers", c.busy_workers),
        ("open_conns", c.open_conns),
        ("shed_queue_full", c.shed_queue_full),
        ("shed_conn_limit", c.shed_conn_limit),
        ("shed_deadline", c.shed_deadline),
        ("deadline_clamped", c.deadline_clamped),
        ("too_large", c.too_large),
        ("write_timeouts", c.write_timeouts),
        ("persist_saves", c.persist_saves),
        ("persist_restored", c.persist_restored),
        ("persist_errors", c.persist_errors),
        ("cache_entries", c.cache_entries),
        ("cache_evictions", c.cache_evictions),
    ] {
        f.push((key.into(), Json::uint(value)));
    }
    Json::Obj(f).serialize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn parses_a_minimal_mine_request() {
        let req = parse_request(
            r#"{"op":"mine","id":1,"input":{"inline":"a b\nb c\n"},"min_support":"2"}"#,
        )
        .unwrap();
        let Request::Job(job) = req else {
            panic!("expected job")
        };
        assert_eq!(job.id, 1);
        assert_eq!(job.input, Input::Inline("a b\nb c\n".into()));
        assert_eq!(job.cache_mode, CacheMode::Normal);
        assert!(!job.progress);
        let OpKind::Mine {
            min_support,
            rules,
            maximal,
            ..
        } = job.op
        else {
            panic!("expected mine")
        };
        assert_eq!(min_support, Support::Absolute(2));
        assert_eq!(rules, None);
        assert!(!maximal);
    }

    #[test]
    fn parses_run_options_and_control_ops() {
        let req = parse_request(
            r#"{"op":"transversals","id":9,"input":{"path":"h.txt"},"algo":"mu-mmcs",
                "threads":2,"progress":true,"cache":"bypass",
                "run":{"timeout":"250ms","max_transversals":10}}"#,
        )
        .unwrap();
        let Request::Job(job) = req else {
            panic!("expected job")
        };
        assert_eq!(job.threads, 2);
        assert!(job.progress);
        assert_eq!(job.cache_mode, CacheMode::Bypass);
        assert_eq!(job.run.timeout, Some(Duration::from_millis(250)));
        assert_eq!(job.run.max_transversals, Some(10));
        assert_eq!(
            job.op,
            OpKind::Transversals {
                algo: TrAlgorithm::MuMmcs
            }
        );

        assert_eq!(
            parse_request(r#"{"op":"cancel","id":3,"job":1}"#).unwrap(),
            Request::Cancel { id: 3, job: 1 }
        );
        assert_eq!(
            parse_request(r#"{"op":"server-stats","id":4}"#).unwrap(),
            Request::ServerStats { id: 4 }
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown","id":5}"#).unwrap(),
            Request::Shutdown { id: 5 }
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for (line, want) in [
            ("nonsense", "invalid JSON"),
            (r#"{"id":1}"#, "missing \"op\""),
            (r#"{"op":"mine","input":{"path":"x"}}"#, "missing \"id\""),
            (
                r#"{"op":"mine","id":1,"min_support":"2"}"#,
                "missing \"input\"",
            ),
            (
                r#"{"op":"mine","id":1,"input":{"path":"x"}}"#,
                "min_support",
            ),
            (r#"{"op":"warp","id":1,"input":{"path":"x"}}"#, "unknown op"),
            (
                r#"{"op":"verify-dual","id":1,"input":{"path":"f"}}"#,
                "input2",
            ),
            (
                r#"{"op":"keys","id":1,"input":{"path":"r"},"input2":{"path":"g"}}"#,
                "only valid for verify-dual",
            ),
            (
                r#"{"op":"mine","id":1,"input":{"path":"x"},"min_support":"2","cache":"warm"}"#,
                "unknown cache mode",
            ),
            (
                r#"{"op":"mine","id":1,"input":{"path":"x"},"min_support":"2","run":{"resume":true}}"#,
                "--resume requires --checkpoint",
            ),
            (
                r#"{"op":"mine","id":1,"input":"x","min_support":"2"}"#,
                "\"path\"",
            ),
            (
                r#"{"op":"transversals","id":1,"input":{"path":"h"},"algo":"mmcs"}"#,
                "unknown --algo value \"mmcs\"",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.message.contains(want), "{line} → {err}");
        }
    }

    #[test]
    fn rules_confidence_is_the_flag_parser() {
        // The wire accepts exactly what `--rules` accepts: [0, 1].
        let line = |c: &str| {
            format!(
                r#"{{"op":"mine","id":1,"input":{{"path":"x"}},"min_support":"2","rules":"{c}"}}"#
            )
        };
        for (c, want) in [("0", 0.0), ("0.6", 0.6), ("1", 1.0)] {
            let Ok(Request::Job(job)) = parse_request(&line(c)) else {
                panic!("{c} rejected")
            };
            assert!(
                matches!(job.op, OpKind::Mine { rules: Some(r), .. } if r == want),
                "{c}"
            );
        }
        for c in ["1.5", "-0.1", "NaN", "x"] {
            let err = parse_request(&line(c)).unwrap_err();
            assert_eq!(err.message, job::parse_confidence(c).unwrap_err(), "{c}");
        }
    }

    #[test]
    fn base_params_ignore_only_the_budget() {
        let job = |run: &str| {
            let line =
                format!(r#"{{"op":"mine","id":1,"input":{{"path":"x"}},"min_support":"2"{run}}}"#);
            let Ok(Request::Job(job)) = parse_request(&line) else {
                panic!("{line}")
            };
            job
        };
        let plain = job("").params_fingerprint();
        assert_eq!(job("").base_params_fingerprint(), plain);
        for run in [
            r#","run":{"max_queries":7}"#,
            r#","run":{"timeout":"2s","max_transversals":3}"#,
        ] {
            assert_ne!(job(run).params_fingerprint(), plain, "{run}");
            assert_eq!(job(run).base_params_fingerprint(), plain, "{run}");
        }
        assert_ne!(
            job(r#","run":{"max_queries":7,"retry":1}"#).base_params_fingerprint(),
            plain
        );
    }

    #[test]
    fn params_fingerprints_separate_job_shapes() {
        let base =
            parse_request(r#"{"op":"mine","id":1,"input":{"inline":"a b\n"},"min_support":"2"}"#)
                .unwrap();
        let Request::Job(base) = base else { panic!() };
        let fp = |line: &str| {
            let Request::Job(j) = parse_request(line).unwrap() else {
                panic!()
            };
            j.params_fingerprint()
        };
        let base_fp = base.params_fingerprint();
        // Same shape, different id / input / delivery flags: equal.
        assert_eq!(
            base_fp,
            fp(
                r#"{"op":"mine","id":77,"input":{"inline":"zz\n"},"min_support":"2","progress":true,"cache":"no-store"}"#
            )
        );
        // Any output-relevant knob: different.
        for other in [
            r#"{"op":"mine","id":1,"input":{"inline":"a b\n"},"min_support":"3"}"#,
            r#"{"op":"mine","id":1,"input":{"inline":"a b\n"},"min_support":"0.5"}"#,
            r#"{"op":"mine","id":1,"input":{"inline":"a b\n"},"min_support":"2","maximal":true}"#,
            r#"{"op":"mine","id":1,"input":{"inline":"a b\n"},"min_support":"2","rules":"0.5"}"#,
            r#"{"op":"mine","id":1,"input":{"inline":"a b\n"},"min_support":"2","threads":2}"#,
            r#"{"op":"mine","id":1,"input":{"inline":"a b\n"},"min_support":"2","run":{"max_queries":5}}"#,
            r#"{"op":"transversals","id":1,"input":{"inline":"a b\n"}}"#,
        ] {
            assert_ne!(base_fp, fp(other), "{other}");
        }
        // Absolute 1 vs relative 1.0 are different specs even when they
        // resolve identically on some databases.
        assert_ne!(
            fp(r#"{"op":"mine","id":1,"input":{"inline":"a\n"},"min_support":"1"}"#),
            fp(r#"{"op":"mine","id":1,"input":{"inline":"a\n"},"min_support":"1.0"}"#)
        );
    }

    #[test]
    fn mine_params_fingerprints_are_pinned() {
        // Persisted cache snapshots key entries by this digest. The values
        // predate the unsegmented store: a request that names the old
        // `segment_rows` field or the old `run.grain`, at any value, shares
        // the omitted-field key because its answer is the same.
        let base = r#""op":"mine","id":1,"input":{"inline":"a b\n"}"#;
        for (extra, want) in [
            (r#","min_support":"2""#, 0x8710_a3c8_0eb6_a2ae_u64),
            (
                r#","min_support":"2","segment_rows":1024"#,
                0x8710_a3c8_0eb6_a2ae,
            ),
            (
                r#","min_support":"2","segment_rows":512"#,
                0x8710_a3c8_0eb6_a2ae,
            ),
            (r#","min_support":"0.05""#, 0x291d_bc0b_4043_59c2),
            (
                r#","min_support":"2","maximal":true"#,
                0xb24b_70ae_e2ca_ab8d,
            ),
            (r#","min_support":"2","rules":"0.5""#, 0x1155_67a6_2d45_6ee6),
            // The old scheduler `grain` is ignored at every value,
            // including the 0 that once meant "auto" explicitly.
            (
                r#","min_support":"2","run":{"grain":1}"#,
                0x8710_a3c8_0eb6_a2ae,
            ),
            (
                r#","min_support":"2","run":{"grain":0}"#,
                0x8710_a3c8_0eb6_a2ae,
            ),
        ] {
            let line = format!("{{{base}{extra}}}");
            let Request::Job(job) = parse_request(&line).unwrap() else {
                panic!("expected job")
            };
            assert_eq!(job.params_fingerprint(), want, "{line}");
        }
    }

    #[test]
    fn transversals_params_fingerprints_are_pinned() {
        // Persisted cache snapshots key entries by this digest: a change
        // here turns every restored `transversals` entry into a cold miss.
        for (algo, want) in [
            (None, 0xbaef_6459_76f1_7cd8_u64),
            (Some("auto"), 0xbaef_6459_76f1_7cd8),
            (Some("berge"), 0xa597_b645_e480_7aa3),
            (Some("fk"), 0xa2d0_66a5_0c4a_2192),
            (Some("levelwise"), 0x0b11_dd9b_a75e_c144),
            (Some("mu-mmcs"), 0xbd2e_f2b3_ac4e_eec9),
            (Some("egm"), 0x615f_5b74_0e56_358f),
        ] {
            let field = algo.map_or(String::new(), |a| format!(r#","algo":"{a}""#));
            let line =
                format!(r#"{{"op":"transversals","id":1,"input":{{"inline":"a b\n"}}{field}}}"#);
            let Request::Job(job) = parse_request(&line).unwrap() else {
                panic!("expected job")
            };
            assert_eq!(job.params_fingerprint(), want, "{line}");
        }
    }

    #[test]
    fn events_render_and_round_trip() {
        let line = ev_result(
            4,
            CacheTag::Hit,
            None,
            0,
            "00ff-aa11",
            "body line\n",
            r#"{"queries":3}"#,
        );
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("event").and_then(Json::as_str), Some("result"));
        assert_eq!(parsed.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(
            parsed.get("outcome").and_then(Json::as_str),
            Some("complete")
        );
        assert_eq!(
            parsed.get("body").and_then(Json::as_str),
            Some("body line\n")
        );
        // The embedded stats string parses as JSON itself.
        let stats = parsed.get("stats").and_then(Json::as_str).unwrap();
        assert!(Json::parse(stats).is_ok());

        let line = ev_result(
            5,
            CacheTag::Miss,
            Some(BudgetReason::MaxQueries),
            6,
            "00-00",
            "",
            "{}",
        );
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(
            parsed.get("outcome").and_then(Json::as_str),
            Some("budget:max_queries")
        );
        assert_eq!(parsed.get("exit").and_then(Json::as_int), Some(6));

        let err = Json::parse(&ev_error(1, 7, "bad line")).unwrap();
        assert_eq!(err.get("code").and_then(Json::as_int), Some(7));
        let acc = Json::parse(&ev_accepted(2, &fingerprint_str(1, 2))).unwrap();
        assert_eq!(
            acc.get("fingerprint").and_then(Json::as_str),
            Some("0000000000000001-0000000000000002")
        );
        let st = Json::parse(&ev_server_stats(3, &ServerCounters::default())).unwrap();
        assert_eq!(st.get("jobs").and_then(Json::as_uint), Some(0));
        assert_eq!(st.get("shed_queue_full").and_then(Json::as_uint), Some(0));
        assert_eq!(st.get("persist_restored").and_then(Json::as_uint), Some(0));
    }

    #[test]
    fn typed_errors_carry_kind_and_hint() {
        let ov = Json::parse(&ev_overloaded(9, 125, "queue full")).unwrap();
        assert_eq!(ov.get("event").and_then(Json::as_str), Some("error"));
        assert_eq!(ov.get("code").and_then(Json::as_int), Some(7));
        assert_eq!(ov.get("kind").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(ov.get("retry_after_ms").and_then(Json::as_uint), Some(125));

        let tl = Json::parse(&ev_too_large(4, "too many rows")).unwrap();
        assert_eq!(tl.get("code").and_then(Json::as_int), Some(3));
        assert_eq!(tl.get("kind").and_then(Json::as_str), Some("too_large"));
        assert!(tl.get("retry_after_ms").is_none());

        // Plain errors keep the historical shape: no kind, no hint.
        let plain = Json::parse(&ev_error(1, 7, "bad line")).unwrap();
        assert!(plain.get("kind").is_none());
        assert!(plain.get("retry_after_ms").is_none());
    }
}
