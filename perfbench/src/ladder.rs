//! The traced run: the per-layer ladder.
//!
//! For each workload the first requests of every connection are replayed
//! one at a time. Each request is first executed in-process by calling, in
//! pipeline order, the same public functions `server::serve_job` calls —
//! every call timed from outside as one span — and then sent to the daemon
//! as a round trip of its own, so the two never overlap. A replay
//! `ResultCache` fed the same sequence as the daemon's cache makes the
//! in-process path take the same route (hit, append or miss).
//!
//! Engine layers are timed by calling them again separately (children of
//! the `exec` span); `exec.render_ms` is `exec` minus those engine calls.
//! `server.self_ms` of a request class is its mean round trip minus the
//! mean sum of its pipeline spans: what the daemon spends outside the
//! replayed calls (accept, queueing, the `accepted` event, socket reads).
//! Means are used throughout so spans and self time add up exactly to the
//! round trip.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use dualminer_bitset::Universe;
use dualminer_core::border::verify_maxth;
use dualminer_core::oracle::CountingOracle;
use dualminer_fdep::agree::agree_sets;
use dualminer_fdep::keys::minimal_keys_via_agree_sets;
use dualminer_hypergraph::{plan, verify_dual, TrAlgorithm};
use dualminer_mining::apriori::apriori_par_ctl;
use dualminer_mining::incremental::append_rows_ctl;
use dualminer_mining::FrequencyOracle;
use dualminer_obs::{fnv1a64, Json, Meter, NoopObserver, RunCtl};
use dualminer_serve::cache::{CacheCounters, Entry, MineArtifacts, ResultCache};
use dualminer_serve::client::Conn;
use dualminer_serve::exec::{self, MineOpts};
use dualminer_serve::proto::{self, CacheTag, OpKind};
use dualminer_serve::{canon, formats};

use crate::daemon::Daemon;
use crate::load::{send, with_cx};
use crate::stats::{mean, Metric};
use crate::workload::{Class, Op, Request, Workload};

/// The pipeline spans, in the order `serve_job` runs them.
const PIPELINE: [&str; 11] = [
    "proto.decode",
    "input.read",
    "canon",
    "cache.lookup",
    "cache.find_base",
    "formats.build",
    "exec",
    "cache.insert",
    "proto.encode",
    "transport.write",
    "client.decode",
];

/// Result-cache capacity of a default daemon.
const CACHE_ENTRIES: usize = 256;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A loopback TCP pair: the peer thread reads each newline-terminated
/// frame completely and acknowledges it with one byte, so a send is timed
/// until the peer has read the whole frame.
struct Loopback {
    writer: TcpStream,
    peer: Option<JoinHandle<()>>,
}

impl Loopback {
    fn new() -> io::Result<Loopback> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let writer = TcpStream::connect(listener.local_addr()?)?;
        let (peer, _) = listener.accept()?;
        writer.set_nodelay(true)?;
        peer.set_nodelay(true)?;
        let mut ack = peer.try_clone()?;
        let peer = std::thread::spawn(move || {
            let mut frames = BufReader::new(peer);
            let mut frame = Vec::new();
            loop {
                frame.clear();
                match frames.read_until(b'\n', &mut frame) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {
                        if ack.write_all(b"k").is_err() {
                            return;
                        }
                    }
                }
            }
        });
        Ok(Loopback {
            writer,
            peer: Some(peer),
        })
    }

    /// Writes `frame` the way the daemon's connection sink does and waits
    /// for the peer's acknowledgement; returns the elapsed milliseconds.
    fn send(&mut self, frame: &str) -> io::Result<f64> {
        let t = Instant::now();
        writeln!(self.writer, "{frame}")?;
        self.writer.flush()?;
        let mut ack = [0u8; 1];
        self.writer.read_exact(&mut ack)?;
        Ok(ms_since(t))
    }
}

impl Drop for Loopback {
    fn drop(&mut self) {
        let _ = self.writer.shutdown(Shutdown::Both);
        if let Some(peer) = self.peer.take() {
            let _ = peer.join();
        }
    }
}

/// Named samples of one workload's replay.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    fn sum(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }
}

/// One replayed request: its pipeline spans (ms) and the daemon round trip.
struct Traced {
    class: Class,
    op: &'static str,
    spans: Vec<(&'static str, f64)>,
    rt_ms: f64,
}

/// The in-process half of the replay for one workload.
struct Replay<'a> {
    wl: &'a Workload,
    dir: &'a Path,
    cache: ResultCache,
    loopback: Loopback,
    samples: Samples,
}

/// What the in-process path produced for one request.
struct Local {
    spans: Vec<(&'static str, f64)>,
    body: Arc<str>,
    tag: CacheTag,
}

impl Replay<'_> {
    /// Runs `req` through the daemon's pipeline in-process, span by span.
    fn run(&mut self, req: &Request, id: u64) -> Result<Local, String> {
        let mut spans = Vec::new();
        let line = req.line(id, self.wl, self.dir);

        let t = Instant::now();
        let parsed = proto::parse_request(&line).map_err(|e| e.to_string())?;
        spans.push(("proto.decode", ms_since(t)));
        let proto::Request::Job(job) = parsed else {
            return Err("benchmark request is not a job".into());
        };
        let params = job.params_fingerprint();
        let path = self.dir.join(&self.wl.inputs[req.input].file);

        let t = Instant::now();
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        spans.push(("input.read", ms_since(t)));

        let t = Instant::now();
        let (content, mine_canon) = match req.op {
            Op::Mine { .. } => {
                let canon = canon::canon_baskets(&text).map_err(|e| e.to_string())?;
                (canon.fingerprint, Some(canon))
            }
            Op::Transversals => (
                canon::fingerprint_hypergraph(&text).map_err(|e| e.to_string())?,
                None,
            ),
            Op::Keys => (
                canon::fingerprint_relation(&text).map_err(|e| e.to_string())?,
                None,
            ),
        };
        let canon_ms = ms_since(t);
        spans.push(("canon", canon_ms));
        self.samples.push("canon.bytes", text.len() as f64);

        let normal = req.cache == "normal";
        let hit = if normal {
            let t = Instant::now();
            let hit = self.cache.lookup(params, content);
            spans.push(("cache.lookup", ms_since(t)));
            hit
        } else {
            None
        };

        let (tag, body, stats) = match hit {
            Some(entry) => (
                CacheTag::Hit,
                Arc::clone(&entry.body),
                Arc::clone(&entry.stats),
            ),
            None => {
                let (tag, body, stats, mine) =
                    self.compute(req, &job.op, &text, mine_canon.as_ref(), params, &mut spans)?;
                let body: Arc<str> = body.into();
                let stats: Arc<str> = stats.into();
                if normal {
                    let rows = mine_canon.as_ref().map_or(0, |c| c.rows.len() as u64);
                    let t = Instant::now();
                    self.cache.insert(Entry {
                        params,
                        content,
                        rows,
                        body: Arc::clone(&body),
                        stats: Arc::clone(&stats),
                        exit: 0,
                        mine: mine.map(Arc::new),
                    });
                    spans.push(("cache.insert", ms_since(t)));
                }
                (tag, body, stats)
            }
        };

        let t = Instant::now();
        let fingerprint = proto::fingerprint_str(params, content);
        let frame = proto::ev_result(id, tag, None, 0, &fingerprint, &body, &stats);
        spans.push(("proto.encode", ms_since(t)));
        self.samples.push("proto.frame_bytes", frame.len() as f64);

        let write_ms = self.loopback.send(&frame).map_err(|e| e.to_string())?;
        spans.push(("transport.write", write_ms));

        let t = Instant::now();
        let decoded = Json::parse(&frame).map_err(|e| e.to_string())?;
        spans.push(("client.decode", ms_since(t)));
        if decoded.get("body").and_then(Json::as_str) != Some(&*body) {
            return Err("result frame does not round-trip its body".into());
        }
        Ok(Local { spans, body, tag })
    }

    /// The miss and append routes of `compute_fresh`: build, exec, and the
    /// engine calls timed again on their own.
    #[allow(clippy::type_complexity)]
    fn compute(
        &mut self,
        req: &Request,
        op: &OpKind,
        text: &str,
        mine_canon: Option<&canon::CanonBaskets>,
        params: u64,
        spans: &mut Vec<(&'static str, f64)>,
    ) -> Result<(CacheTag, String, String, Option<MineArtifacts>), String> {
        let meter = Meter::unlimited();
        let ctl = RunCtl::new(&meter, &NoopObserver);
        let threads = req.threads.max(1);
        match (req.op, op) {
            (Op::Mine { sigma, maximal }, OpKind::Mine { segment_rows, .. }) => {
                let canon = mine_canon.expect("mine requests are canonicalized");
                let opts = MineOpts {
                    rules: None,
                    maximal,
                };
                if req.cache == "normal" {
                    let t = Instant::now();
                    let base = self.cache.find_mine_base(params, canon);
                    spans.push(("cache.find_base", ms_since(t)));
                    if let Some((entry, base_rows)) = base {
                        let artifacts = entry.mine.as_ref().expect("mine base carries artifacts");
                        let t = Instant::now();
                        let universe = Universe::new(canon.names.clone());
                        let new_rows = canon.rows_from(base_rows);
                        spans.push(("formats.build", ms_since(t)));
                        let engine_rows = new_rows.clone();
                        let t = Instant::now();
                        let (out, update, stats) = with_cx(threads, |cx| {
                            let (out, update) = exec::mine_incremental(
                                &universe,
                                &artifacts.db,
                                &artifacts.sets,
                                new_rows,
                                &opts,
                                cx,
                            );
                            (out, update, cx.stats.to_json(cx.meter, None))
                        });
                        let exec_ms = ms_since(t);
                        spans.push(("exec", exec_ms));
                        let t = Instant::now();
                        let engine =
                            append_rows_ctl(&artifacts.db, &artifacts.sets, engine_rows, &ctl)
                                .expect_complete();
                        let engine_ms = ms_since(t);
                        std::hint::black_box(engine);
                        self.samples.push("mining.incremental_ms", engine_ms);
                        self.samples.push("exec.render_ms", exec_ms - engine_ms);
                        let artifacts = MineArtifacts {
                            db: update.db,
                            sets: update.frequent,
                        };
                        return Ok((CacheTag::Incremental, out.body, stats, Some(artifacts)));
                    }
                }
                let t = Instant::now();
                let (universe, db) = canon.build(*segment_rows);
                spans.push(("formats.build", ms_since(t)));
                let t = Instant::now();
                let (out, sets, stats) = with_cx(threads, |cx| {
                    exec::mine(&universe, &db, sigma, &opts, &Default::default(), cx)
                        .map(|(out, sets)| (out, sets, cx.stats.to_json(cx.meter, None)))
                })
                .map_err(|e| e.to_string())?;
                let exec_ms = ms_since(t);
                spans.push(("exec", exec_ms));

                let before = dualminer_parallel::scheduler_stats();
                let t = Instant::now();
                let fs = apriori_par_ctl(&db, sigma, threads, &ctl).expect_complete();
                let apriori_ms = ms_since(t);
                let after = dualminer_parallel::scheduler_stats();
                let mut engine_ms = apriori_ms;
                if maximal {
                    let t = Instant::now();
                    let mut oracle = CountingOracle::new(FrequencyOracle::new(&db, sigma));
                    let verdict = verify_maxth(&mut oracle, &fs.maximal, TrAlgorithm::Berge);
                    let verify_ms = ms_since(t);
                    if !verdict.is_maxth || !out.body.contains("Verified: true") {
                        return Err("maximal mine is not Verified: true".into());
                    }
                    self.samples.push("border.verify_maxth_ms", verify_ms);
                    engine_ms += verify_ms;
                } else {
                    self.samples.push("mining.apriori_ms", apriori_ms);
                    self.samples.push("mining.queries", fs.queries() as f64);
                    self.samples
                        .push("parallel.tasks", (after.tasks - before.tasks) as f64);
                    self.samples
                        .push("parallel.steals", (after.steals - before.steals) as f64);
                    let t = Instant::now();
                    std::hint::black_box(apriori_par_ctl(&db, sigma, 1, &ctl).expect_complete());
                    self.samples.push("apriori1_ms", ms_since(t));
                    // Support counting over Th ∪ Bd⁻, one query per set.
                    let queries: Vec<_> = fs
                        .itemsets()
                        .iter()
                        .map(|(set, _)| set)
                        .chain(&fs.negative_border)
                        .collect();
                    let t = Instant::now();
                    for set in &queries {
                        std::hint::black_box(db.support(std::hint::black_box(set)));
                    }
                    self.samples
                        .push("support.ns", t.elapsed().as_nanos() as f64);
                    self.samples.push("support.queries", queries.len() as f64);
                    let bytes: usize = queries.iter().map(|s| s.len()).sum::<usize>() * db.n_rows();
                    self.samples.push("support.bytes", bytes as f64 / 8.0);
                }
                self.samples.push("exec.render_ms", exec_ms - engine_ms);
                let artifacts = MineArtifacts { db, sets };
                Ok((CacheTag::Miss, out.body, stats, Some(artifacts)))
            }
            (Op::Transversals, _) => {
                let t = Instant::now();
                let (universe, h) = formats::parse_hypergraph(text).map_err(|e| e.to_string())?;
                spans.push(("formats.build", ms_since(t)));
                let t = Instant::now();
                let (out, stats) = with_cx(threads, |cx| {
                    exec::transversals(&universe, &h, TrAlgorithm::Auto, &Default::default(), cx)
                        .map(|out| (out, cx.stats.to_json(cx.meter, None)))
                })
                .map_err(|e| e.to_string())?;
                let exec_ms = ms_since(t);
                spans.push(("exec", exec_ms));

                let t = Instant::now();
                let decision = plan::plan(&h.minimized());
                self.samples.push("plan.plan_us", ms_since(t) * 1e3);
                let t = Instant::now();
                let (tr, report) = plan::dualize_ctl_report(&h, TrAlgorithm::Auto, threads, &ctl);
                let auto_ms = ms_since(t);
                let t = Instant::now();
                let forced = plan::dualize_ctl_report(&h, decision.backend, threads, &ctl);
                let forced_ms = ms_since(t);
                std::hint::black_box(forced);
                let tr = tr.expect_complete();
                if !verify_dual(&h, &tr) {
                    return Err("Tr(H) fails verify_dual".into());
                }
                self.samples.push("plan.dualize_ms", auto_ms);
                self.samples.push("plan.forced_ms", forced_ms);
                self.samples
                    .push("plan.auto_overhead_ms", auto_ms - forced_ms);
                let mu = report.mu.unwrap_or_default();
                self.samples.push("mu_mmcs.nodes", mu.nodes as f64);
                self.samples
                    .push("mu_mmcs.minimality_prunes", mu.minimality_prunes as f64);
                self.samples
                    .push("egm.splits", report.egm.map_or(0, |e| e.splits) as f64);
                self.samples.push("exec.render_ms", exec_ms - auto_ms);
                Ok((CacheTag::Miss, out.body, stats, None))
            }
            (Op::Keys, _) => {
                let t = Instant::now();
                let (universe, rel) = formats::parse_relation(text).map_err(|e| e.to_string())?;
                spans.push(("formats.build", ms_since(t)));
                let t = Instant::now();
                let (out, stats) = with_cx(threads, |cx| {
                    exec::keys(&universe, &rel, false, &Default::default(), cx)
                        .map(|out| (out, cx.stats.to_json(cx.meter, None)))
                })
                .map_err(|e| e.to_string())?;
                let exec_ms = ms_since(t);
                spans.push(("exec", exec_ms));
                let t = Instant::now();
                std::hint::black_box(agree_sets(&rel));
                self.samples.push("fdep.agree_ms", ms_since(t));
                let t = Instant::now();
                std::hint::black_box(minimal_keys_via_agree_sets(&rel, TrAlgorithm::Berge));
                let keys_ms = ms_since(t);
                self.samples.push("fdep.keys_ms", keys_ms);
                self.samples.push("exec.render_ms", exec_ms - keys_ms);
                Ok((CacheTag::Miss, out.body, stats, None))
            }
            (Op::Mine { .. }, _) => Err("mine request parsed as another op".into()),
        }
    }
}

/// Runs the one-shot CLI on `req` and returns its wall time and stdout
/// digest.
fn cli_process(bin: &Path, req: &Request, path: &Path) -> Result<(f64, u64), String> {
    let mut cmd = Command::new(bin);
    let threads = req.threads.to_string();
    match req.op {
        Op::Mine { sigma, maximal } => {
            cmd.arg("mine").arg(path);
            cmd.args(["--min-support", &sigma.to_string(), "--threads", &threads]);
            if maximal {
                cmd.arg("--maximal");
            }
        }
        Op::Transversals => {
            cmd.arg("transversals").arg(path);
            cmd.args(["--algo", "auto", "--threads", &threads]);
        }
        Op::Keys => {
            cmd.arg("keys").arg(path);
        }
    }
    let t = Instant::now();
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run the CLI: {e}"))?;
    let elapsed = ms_since(t);
    if !out.status.success() {
        return Err(format!("CLI exited with {}", out.status));
    }
    Ok((elapsed, fnv1a64(&out.stdout)))
}

/// The outcome of one workload's ladder.
pub struct Ladder {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failures: Vec<String>,
}

/// Replays workload `wl` against a fresh daemon and in-process.
pub fn run(bin: &Path, wl: &Workload, dir: &Path) -> Result<Ladder, String> {
    let daemon = Daemon::spawn(bin).map_err(|e| format!("spawn daemon: {e}"))?;
    let mut replay = Replay {
        wl,
        dir,
        cache: ResultCache::new(CACHE_ENTRIES),
        loopback: Loopback::new().map_err(|e| format!("loopback: {e}"))?,
        samples: Samples::default(),
    };
    let mut conns = Vec::new();
    for _ in &wl.conns {
        conns.push(Conn::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?);
    }
    let mut failures = Vec::new();
    let mut ids = vec![0u64; conns.len()];

    // Set-up: both caches see the priming requests.
    for req in &wl.setup {
        ids[0] += 1;
        if req.cache == "normal" {
            replay.run(req, ids[0])?;
        }
        if let Err(e) = send(&mut conns[0], &req.line(ids[0], wl, dir), ids[0]) {
            failures.push(format!("set-up request: {e}"));
        }
    }
    replay.samples = Samples::default();
    let cache0 = replay.cache.counters();
    let stats0 = daemon
        .server_stats()
        .map_err(|e| format!("server-stats: {e}"))?;

    let mut traces = Vec::new();
    let sequence = wl.interleaved(wl.trace_per_conn);
    for (j, req) in sequence.iter().enumerate() {
        let c = j % conns.len();
        ids[c] += 1;
        let id = ids[c];
        let local = replay.run(req, id)?;
        let line = req.line(id, wl, dir);
        let t = Instant::now();
        let reply = send(&mut conns[c], &line, id);
        let rt_ms = ms_since(t);
        let digest = fnv1a64(local.body.as_bytes());
        match reply {
            Err(e) => failures.push(e),
            Ok(r) if r.digest != digest => failures.push(format!(
                "{} on {}: daemon body differs from the in-process body",
                req.op_name(),
                wl.inputs[req.input].file
            )),
            Ok(r) if r.tag != req.class.tag() || local.tag.as_str() != req.class.tag() => failures
                .push(format!(
                    "{}: daemon answered {:?}, replay {:?}, expected {:?}",
                    wl.inputs[req.input].file,
                    r.tag,
                    local.tag.as_str(),
                    req.class.tag()
                )),
            Ok(_) => {}
        }
        if req.class == Class::Miss && j % 4 == 0 {
            match cli_process(bin, req, &dir.join(&wl.inputs[req.input].file)) {
                Ok((ms, d)) if d == digest => replay.samples.push("cli.process_ms", ms),
                Ok(_) => failures.push("one-shot CLI output differs from the daemon's".into()),
                Err(e) => failures.push(e),
            }
        }
        traces.push(Traced {
            class: req.class,
            op: req.op_name(),
            spans: local.spans,
            rt_ms,
        });
    }

    let stats1 = daemon
        .server_stats()
        .map_err(|e| format!("server-stats: {e}"))?;
    drop(conns);
    daemon
        .shutdown()
        .map_err(|e| format!("daemon shutdown: {e}"))?;

    let mut metrics = Vec::new();
    report(wl.name, &traces, &replay, cache0, &mut metrics);
    for (key, name) in [
        ("computations", "server.computations"),
        ("cache_hits", "server.cache_hits"),
        ("incremental", "server.incremental"),
        ("coalesced", "server.coalesced"),
    ] {
        let count = |s: &Json| s.get(key).and_then(Json::as_uint).unwrap_or(0);
        metrics.push(Metric {
            name: format!("{}.{name}", wl.name),
            unit: "count",
            value: (count(&stats1) - count(&stats0)) as f64,
            samples: traces.len(),
        });
    }
    Ok(Ladder {
        metrics,
        attempted: wl.setup.len() + sequence.len(),
        failures,
    })
}

/// Prints the ladder of every request class and collects the per-layer
/// metrics of workload `name`.
fn report(
    name: &str,
    traces: &[Traced],
    replay: &Replay<'_>,
    cache0: CacheCounters,
    out: &mut Vec<Metric>,
) {
    let mut metric = |metric: &str, unit: &'static str, value: f64, samples: usize| {
        if samples > 0 && value.is_finite() {
            out.push(Metric {
                name: format!("{name}.{metric}"),
                unit,
                value,
                samples,
            });
        }
    };

    // Pipeline spans over every replayed request.
    let span = |span: &str| -> Vec<f64> {
        traces
            .iter()
            .flat_map(|t| t.spans.iter().filter(|(n, _)| *n == span).map(|(_, v)| *v))
            .collect()
    };
    for (span_name, metric_name, unit, scale) in [
        ("proto.decode", "proto.decode_us", "us", 1e3),
        ("input.read", "input.read_ms", "ms", 1.0),
        ("canon", "canon.ms", "ms", 1.0),
        ("cache.lookup", "cache.lookup_us", "us", 1e3),
        ("cache.find_base", "cache.find_base_us", "us", 1e3),
        ("formats.build", "formats.build_ms", "ms", 1.0),
        ("exec", "exec.ms", "ms", 1.0),
        ("cache.insert", "cache.insert_us", "us", 1e3),
        ("proto.encode", "proto.encode_ms", "ms", 1.0),
        ("transport.write", "transport.write_ms", "ms", 1.0),
        ("client.decode", "client.decode_ms", "ms", 1.0),
    ] {
        let v = span(span_name);
        metric(metric_name, unit, mean(&v) * scale, v.len());
    }
    let s = &replay.samples;
    let canon_ms: f64 = span("canon").iter().sum();
    metric(
        "canon.input_mb_s",
        "MB/s",
        s.sum("canon.bytes") / 1e6 / (canon_ms / 1e3),
        s.get("canon.bytes").len(),
    );
    let frames = s.get("proto.frame_bytes");
    metric("proto.frame_bytes", "bytes", mean(frames), frames.len());

    // The replay cache's counters over the replayed sequence.
    let cache = replay.cache.counters();
    let (hits, misses) = (cache.hits - cache0.hits, cache.misses - cache0.misses);
    if name != "dualize-mix" {
        let evictions = cache.evictions - cache0.evictions;
        metric("cache.evictions", "count", evictions as f64, traces.len());
    }
    if hits > 0 {
        let ratio = hits as f64 / (hits + misses) as f64;
        metric(
            "cache.hit_ratio",
            "fraction",
            ratio,
            (hits + misses) as usize,
        );
    }

    // Engine layers.
    for (key, unit) in [
        ("mining.apriori_ms", "ms"),
        ("mining.incremental_ms", "ms"),
        ("plan.plan_us", "us"),
        ("plan.dualize_ms", "ms"),
        ("plan.forced_ms", "ms"),
        ("plan.auto_overhead_ms", "ms"),
        ("border.verify_maxth_ms", "ms"),
        ("fdep.agree_ms", "ms"),
        ("fdep.keys_ms", "ms"),
        ("exec.render_ms", "ms"),
        ("cli.process_ms", "ms"),
    ] {
        let v = s.get(key);
        metric(key, unit, mean(v), v.len());
    }
    for key in [
        "mining.queries",
        "parallel.tasks",
        "parallel.steals",
        "mu_mmcs.nodes",
        "mu_mmcs.minimality_prunes",
        "egm.splits",
    ] {
        metric(key, "count", s.sum(key), s.get(key).len());
    }
    let queries = s.sum("support.queries");
    let n = s.get("support.queries").len();
    metric("bitset.support_ns", "ns", s.sum("support.ns") / queries, n);
    metric(
        "bitset.bytes_per_query",
        "bytes",
        s.sum("support.bytes") / queries,
        n,
    );
    metric(
        "parallel.speedup",
        "ratio",
        s.sum("apriori1_ms") / s.sum("mining.apriori_ms"),
        s.get("apriori1_ms").len(),
    );

    // Per request class: spans in pipeline order, their sum, the round
    // trip and the daemon's self time.
    for class in [Class::Hit, Class::Append, Class::Miss] {
        let group: Vec<&Traced> = traces.iter().filter(|t| t.class == class).collect();
        if group.is_empty() {
            continue;
        }
        let n = group.len() as f64;
        let rt = group.iter().map(|t| t.rt_ms).sum::<f64>() / n;
        let mut ops: Vec<&str> = group.iter().map(|t| t.op).collect();
        ops.sort_unstable();
        ops.dedup();
        println!(
            "ladder {name} / {} ({} requests: {}), mean per request:",
            class.name(),
            group.len(),
            ops.join(", ")
        );
        let mut total = 0.0;
        for span_name in PIPELINE {
            let v: Vec<f64> = group
                .iter()
                .flat_map(|t| t.spans.iter().filter(|(n, _)| *n == span_name))
                .map(|(_, v)| *v)
                .collect();
            if v.is_empty() {
                continue;
            }
            let per_request = v.iter().sum::<f64>() / n;
            total += per_request;
            println!(
                "  {span_name:<18} {per_request:>10.4} ms {:>6.1}%",
                100.0 * per_request / rt
            );
        }
        let own = rt - total;
        println!(
            "  {:<18} {total:>10.4} ms {:>6.1}%",
            "sum of spans",
            100.0 * total / rt
        );
        println!(
            "  {:<18} {own:>10.4} ms {:>6.1}%",
            "server.self",
            100.0 * own / rt
        );
        println!("  {:<18} {rt:>10.4} ms {:>6.1}%", "round trip", 100.0);
        metric(
            &format!("roundtrip_ms.{}", class.name()),
            "ms",
            rt,
            group.len(),
        );
        metric(
            &format!("server.self_ms.{}", class.name()),
            "ms",
            own,
            group.len(),
        );
    }
    let overhead = s.get("plan.auto_overhead_ms");
    if !overhead.is_empty() {
        println!(
            "ladder {name}: plan.dualize_ms - plan.forced_ms = {:.4} ms per transversals request (auto overhead, n={})",
            mean(overhead),
            overhead.len()
        );
    }
}
