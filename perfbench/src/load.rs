//! Closed-loop load against the daemon, and answer checking.
//!
//! Each connection runs its fixed request sequence in a closed loop: the
//! next request line goes out only after the previous terminal event has
//! been parsed, which is how a `dualminer request` caller behaves. Bodies
//! are reduced to digests on arrival and checked afterwards against
//! references computed in-process through `exec::*`, outside every timed
//! interval.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use dualminer_bitset::Universe;
use dualminer_hypergraph::{plan, verify_dual, TrAlgorithm};
use dualminer_obs::{fnv1a64, Meter, StatsCollector};
use dualminer_serve::client::Conn;
use dualminer_serve::exec::{self, ExecCtx, MineOpts};
use dualminer_serve::formats;
use dualminer_serve::job::RunOpts;

use crate::daemon::Daemon;
use crate::workload::{Op, Request, Workload};

/// A successful `result` event, reduced to what the checks need.
pub struct Reply {
    pub digest: u64,
    pub tag: String,
}

/// Sends one request and waits for its terminal event. Anything but a
/// complete `result` with exit 0 is a failure.
pub fn send(conn: &mut Conn, line: &str, id: u64) -> Result<Reply, String> {
    let events = conn
        .roundtrip(line, id)
        .map_err(|e| format!("connection failed: {e}"))?;
    let last = events.last().ok_or("no terminal event")?;
    if last.kind != "result" {
        return Err(format!(
            "{} event: {}",
            last.kind,
            last.str_field("message").unwrap_or("")
        ));
    }
    if last.int_field("exit") != Some(0) || last.str_field("outcome") != Some("complete") {
        return Err(format!(
            "incomplete result: exit {:?}, outcome {:?}",
            last.int_field("exit"),
            last.str_field("outcome")
        ));
    }
    let body = last.str_field("body").ok_or("result without a body")?;
    Ok(Reply {
        digest: fnv1a64(body.as_bytes()),
        tag: last.str_field("cache").unwrap_or("").to_string(),
    })
}

/// One completed request of the timed window.
pub struct Sample {
    pub req: Request,
    pub latency_ms: f64,
    pub outcome: Result<Reply, String>,
}

/// The result of one timed window.
pub struct LoadRun {
    pub samples: Vec<Sample>,
    /// From the common start to the last terminal event.
    pub window_s: f64,
    /// Daemon CPU seconds spent over the window.
    pub cpu_s: f64,
}

/// Runs every connection's sequence in a closed loop for `seconds`: a
/// connection sends no new request after the deadline, and the window ends
/// when the last in-flight request completes.
pub fn closed_loop(
    daemon: &Daemon,
    wl: &Workload,
    dir: &Path,
    seconds: f64,
) -> Result<LoadRun, String> {
    let mut conns = Vec::new();
    for _ in &wl.conns {
        conns.push(Conn::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?);
    }
    let barrier = Barrier::new(wl.conns.len() + 1);
    let budget = Duration::from_secs_f64(seconds);
    let (start, cpu0, per_conn) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(&wl.conns)
            .map(|(mut conn, seq)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let mut samples = Vec::new();
                    for (i, req) in seq.iter().enumerate() {
                        if start.elapsed() >= budget {
                            break;
                        }
                        let id = i as u64 + 1;
                        let line = req.line(id, wl, dir);
                        let t = Instant::now();
                        let outcome = send(&mut conn, &line, id);
                        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                        let dead = outcome
                            .as_ref()
                            .is_err_and(|e| e.starts_with("connection failed"));
                        samples.push(Sample {
                            req: *req,
                            latency_ms,
                            outcome,
                        });
                        if dead {
                            break;
                        }
                    }
                    if samples.len() == seq.len() && start.elapsed() < budget {
                        eprintln!(
                            "perfbench: {}: a connection ran out of requests before the deadline",
                            wl.name
                        );
                    }
                    (samples, Instant::now())
                })
            })
            .collect();
        let cpu0 = daemon.cpu_seconds();
        barrier.wait();
        let start = Instant::now();
        let per_conn: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        (start, cpu0, per_conn)
    });
    let cpu1 = daemon
        .cpu_seconds()
        .map_err(|e| format!("daemon stat: {e}"))?;
    let cpu0 = cpu0.map_err(|e| format!("daemon stat: {e}"))?;
    let end = per_conn.iter().map(|(_, end)| *end).max().unwrap_or(start);
    Ok(LoadRun {
        samples: per_conn.into_iter().flat_map(|(s, _)| s).collect(),
        window_s: end.duration_since(start).as_secs_f64(),
        cpu_s: cpu1 - cpu0,
    })
}

/// Runs `f` with an unbudgeted execution context at `threads` threads, the
/// way a one-shot CLI run does.
pub fn with_cx<T>(threads: usize, f: impl FnOnce(&ExecCtx<'_>) -> T) -> T {
    let meter = Meter::unlimited();
    let stats = StatsCollector::new();
    stats.set_threads(threads);
    let note = |_: &str| {};
    f(&ExecCtx {
        meter: &meter,
        observer: &stats,
        stats: &stats,
        note: &note,
        threads,
    })
}

/// The reference body of `req`, computed in-process on one thread through
/// `exec::*` from the CLI's parsers. Transversal references must also pass
/// `verify_dual(H, Tr(H))`, maximal mines must print `Verified: true`.
pub fn reference_body(wl: &Workload, req: &Request) -> Result<String, String> {
    let text = &wl.inputs[req.input].text;
    let run = RunOpts::default();
    match req.op {
        Op::Mine { sigma, maximal } => {
            let (universe, db) = formats::parse_baskets(text).map_err(|e| e.to_string())?;
            let opts = MineOpts {
                rules: None,
                maximal,
            };
            let (out, _) = with_cx(1, |cx| exec::mine(&universe, &db, sigma, &opts, &run, cx))
                .map_err(|e| e.to_string())?;
            if maximal && !out.body.contains("Verified: true") {
                return Err("maximal mine reference is not Verified: true".into());
            }
            Ok(out.body)
        }
        Op::Transversals => {
            let (universe, h) = formats::parse_hypergraph(text).map_err(|e| e.to_string())?;
            let out = with_cx(1, |cx| {
                exec::transversals(&universe, &h, TrAlgorithm::Auto, &run, cx)
            })
            .map_err(|e| e.to_string())?;
            let tr = plan::dualize(&h);
            if !verify_dual(&h, &tr) {
                return Err("transversals reference fails verify_dual".into());
            }
            let header = format!("Tr(H): {} minimal transversals:", tr.len());
            if !out.body.contains(&header) {
                return Err("transversals reference disagrees with plan::dualize".into());
            }
            Ok(out.body)
        }
        Op::Keys => {
            let (universe, rel): (Universe, _) =
                formats::parse_relation(text).map_err(|e| e.to_string())?;
            let out = with_cx(1, |cx| exec::keys(&universe, &rel, false, &run, cx))
                .map_err(|e| e.to_string())?;
            Ok(out.body)
        }
    }
}

/// Reference digests for every distinct answer among `reqs`, computed on
/// two threads (the daemon is stopped by then, so both cores are free).
pub fn references(wl: &Workload, reqs: &[Request]) -> HashMap<(usize, Op), Result<u64, String>> {
    let mut distinct: Vec<Request> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for req in reqs {
        if seen.insert(req.answer_key()) {
            distinct.push(*req);
        }
    }
    let halves: Vec<Vec<_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|part| {
                let distinct = &distinct;
                scope.spawn(move || {
                    distinct
                        .iter()
                        .skip(part)
                        .step_by(2)
                        .map(|req| {
                            let digest =
                                reference_body(wl, req).map(|body| fnv1a64(body.as_bytes()));
                            (req.answer_key(), digest)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    halves.into_iter().flatten().collect()
}

/// Checks every sample against its reference and expected cache route;
/// returns the number of failures and the first few reasons.
pub fn check(wl: &Workload, samples: &[Sample]) -> (usize, Vec<String>) {
    let reqs: Vec<Request> = samples
        .iter()
        .filter(|s| s.outcome.is_ok())
        .map(|s| s.req)
        .collect();
    let refs = references(wl, &reqs);
    let mut failed = 0;
    let mut reasons = Vec::new();
    for s in samples {
        let verdict = match &s.outcome {
            Err(e) => Err(e.clone()),
            Ok(reply) => match &refs[&s.req.answer_key()] {
                Err(e) => Err(format!("reference failed: {e}")),
                Ok(digest) if *digest != reply.digest => Err(format!(
                    "{} body on {} differs from the reference",
                    s.req.op_name(),
                    wl.inputs[s.req.input].file
                )),
                Ok(_) if reply.tag != s.req.class.tag() => Err(format!(
                    "{} answered as {:?}, expected {:?}",
                    wl.inputs[s.req.input].file,
                    reply.tag,
                    s.req.class.tag()
                )),
                Ok(_) => Ok(()),
            },
        };
        if let Err(reason) = verdict {
            failed += 1;
            if reasons.len() < 5 {
                reasons.push(reason);
            }
        }
    }
    (failed, reasons)
}
