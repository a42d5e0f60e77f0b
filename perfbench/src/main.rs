//! perfbench — the dualminer daemon benchmark.
//!
//! Starts the release `dualminer serve` daemon as a child process and
//! drives it through `dualminer_serve::client::Conn` on one of three
//! traffic mixes (see `workload.rs`), checking every answer against an
//! in-process reference. `--trace 1` instead replays every workload's
//! request prefix in-process, layer by layer, next to the daemon's round
//! trips (see `ladder.rs`). Run it through `python3 perfbench/run.py`,
//! which builds the daemon and this binary first:
//!
//! ```text
//! python3 perfbench/run.py --workload mine-cold --seed 1 --seconds 10 --trace 0
//! python3 perfbench/run.py --smoke
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod daemon;
mod ladder;
mod load;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use dualminer_serve::client::Conn;

use crate::daemon::Daemon;
use crate::load::{check, closed_loop, send, Sample};
use crate::stats::{print_metric, quantile, result_line, Metric};
use crate::workload::{Workload, NAMES};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

#[derive(Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    root: PathBuf,
    daemon: PathBuf,
    work: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <mine-cold|dualize-mix|serve-warm> --seed <n> \
--seconds <s> --trace <0|1> --root <repo> --daemon <dualminer binary> --work <dir>
       perfbench --smoke --root <repo> --daemon <dualminer binary> --work <dir>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        root: PathBuf::from("."),
        daemon: PathBuf::new(),
        work: PathBuf::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--root" => args.root = value.into(),
            "--daemon" => args.daemon = value.into(),
            "--work" => args.work = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.daemon.as_os_str().is_empty() || args.work.as_os_str().is_empty() {
        return Err("--daemon and --work are required".into());
    }
    if !args.smoke && !NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// What one run reports.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
}

/// Spawns the daemon and sends the workload's set-up requests, `SETUPS`
/// times; every daemon but the last is shut down again. Returns the last
/// daemon, the set-up times, and the set-up replies for checking.
fn set_up(
    bin: &Path,
    wl: &Workload,
    dir: &Path,
) -> Result<(Daemon, Vec<f64>, Vec<Sample>), String> {
    let mut times = Vec::new();
    let mut replies = Vec::new();
    loop {
        let t = Instant::now();
        let daemon = Daemon::spawn(bin).map_err(|e| format!("spawn daemon: {e}"))?;
        let mut conn = Conn::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
        for (i, req) in wl.setup.iter().enumerate() {
            let id = i as u64 + 1;
            let outcome = send(&mut conn, &req.line(id, wl, dir), id);
            replies.push(Sample {
                req: *req,
                latency_ms: 0.0,
                outcome,
            });
        }
        drop(conn);
        times.push(t.elapsed().as_secs_f64());
        if times.len() == SETUPS {
            return Ok((daemon, times, replies));
        }
        daemon
            .shutdown()
            .map_err(|e| format!("daemon shutdown: {e}"))?;
    }
}

/// One untraced run: set-up, the timed closed-loop window, then the
/// answer checks.
fn measure(args: &Args, wl: &Workload, dir: &Path) -> Result<Outcome, String> {
    let (daemon, setups, setup_replies) = set_up(&args.daemon, wl, dir)?;
    let run = closed_loop(&daemon, wl, dir, args.seconds)?;
    let peak_rss_mb = daemon
        .peak_rss_mb()
        .map_err(|e| format!("daemon status: {e}"))?;
    daemon
        .shutdown()
        .map_err(|e| format!("daemon shutdown: {e}"))?;

    let (window_failed, reasons) = check(wl, &run.samples);
    let (setup_failed, setup_reasons) = check(wl, &setup_replies);
    for reason in reasons.iter().chain(&setup_reasons) {
        eprintln!("perfbench: {}: {reason}", wl.name);
    }
    let n = run.samples.len();
    let ok = n - window_failed;
    let latencies: Vec<f64> = run.samples.iter().map(|s| s.latency_ms).collect();
    let metric = |name: &str, unit, value, samples| Metric {
        name: name.into(),
        unit,
        value,
        samples,
    };
    let metrics = vec![
        metric("setup_s", "s", quantile(&setups, 0.5), setups.len()),
        metric("throughput_jobs_s", "jobs/s", ok as f64 / run.window_s, ok),
        metric("latency_p50_ms", "ms", quantile(&latencies, 0.5), n),
        metric("latency_p90_ms", "ms", quantile(&latencies, 0.9), n),
        metric("cpu_ms_per_job", "ms", run.cpu_s * 1e3 / ok as f64, ok),
        metric("peak_rss_mb", "MB", peak_rss_mb, 1),
    ];
    println!(
        "workload {} seed {}: {} connection(s), closed loop, {:.3} s window, {} requests",
        wl.name,
        args.seed,
        wl.conns.len(),
        run.window_s,
        n
    );
    for m in &metrics {
        print_metric(m);
    }
    print_metric(&metric(
        "error_rate",
        "fraction",
        window_failed as f64 / n.max(1) as f64,
        n,
    ));
    if n < 100 {
        eprintln!(
            "perfbench: {}: only {n} requests completed in the window",
            wl.name
        );
    }
    Ok(Outcome {
        metrics,
        attempted: n + setup_replies.len(),
        failed: window_failed + setup_failed,
    })
}

/// The traced run: every workload's ladder, so every per-layer metric is
/// reported whichever workload was named.
fn trace(args: &Args, seed: u64, per_conn: Option<usize>) -> Result<Outcome, String> {
    let mut out = Outcome {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    for name in NAMES {
        let mut wl = workload::generate(name, seed).expect("known workload");
        if let Some(k) = per_conn {
            wl.trace_per_conn = k;
        }
        let dir = args.work.join(name);
        wl.write_inputs(&dir)
            .map_err(|e| format!("write inputs: {e}"))?;
        let ladder = ladder::run(&args.daemon, &wl, &dir)?;
        let _ = std::fs::remove_dir_all(&dir);
        for reason in ladder.failures.iter().take(5) {
            eprintln!("perfbench: {name} ladder: {reason}");
        }
        for m in &ladder.metrics {
            print_metric(m);
        }
        out.attempted += ladder.attempted;
        out.failed += ladder.failures.len();
        out.metrics.extend(ladder.metrics);
    }
    Ok(out)
}

/// A short run of everything: the determinism self-test, then a brief
/// untraced and traced run of every workload. Prints one result line per
/// run; fails on any wrong answer, nonzero error rate, missing metric, or
/// a ladder whose spans overshoot the round trip.
fn smoke(args: &Args) -> Result<(), String> {
    workload::self_test()?;
    println!("self-test: seeded inputs are deterministic");
    for name in NAMES {
        let wl = workload::generate(name, 1).expect("known workload");
        let dir = args.work.join(name);
        wl.write_inputs(&dir)
            .map_err(|e| format!("write inputs: {e}"))?;
        let short = Args {
            seconds: 0.3,
            seed: 1,
            workload: name.into(),
            ..args.clone()
        };
        let out = measure(&short, &wl, &dir)?;
        let _ = std::fs::remove_dir_all(&dir);
        if out.failed > 0 {
            return Err(format!("{name}: {} wrong or failed answers", out.failed));
        }
        println!(
            "{}",
            result_line(true, out.attempted, out.failed, &out.metrics)
        );
    }
    let out = trace(args, 1, Some(4))?;
    if out.failed > 0 {
        return Err(format!("ladder: {} wrong or failed answers", out.failed));
    }
    for m in &out.metrics {
        if let Some(class) = m.name.split(".server.self_ms.").nth(1) {
            let prefix = m.name.split(".server.").next().unwrap_or("");
            let rt = out
                .metrics
                .iter()
                .find(|r| r.name == format!("{prefix}.roundtrip_ms.{class}"))
                .ok_or(format!("{}: no round trip", m.name))?;
            // Spans plus self time are the round trip by construction; the
            // replay is faithful only if the spans do not overshoot it.
            if m.value < -0.25 * rt.value {
                return Err(format!(
                    "{}: spans exceed the round trip ({:.3} ms self of {:.3} ms)",
                    m.name, m.value, rt.value
                ));
            }
        }
    }
    println!(
        "{}",
        result_line(true, out.attempted, out.failed, &out.metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = daemon::check_fresh(&args.daemon, &args.root) {
        eprintln!("perfbench: refusing to run: {e}");
        return ExitCode::from(2);
    }
    let result = if args.smoke {
        smoke(&args).map(|()| None)
    } else if args.trace {
        trace(&args, args.seed, None).map(Some)
    } else {
        let wl = workload::generate(&args.workload, args.seed).expect("validated name");
        let dir = args.work.join(wl.name);
        wl.write_inputs(&dir)
            .map_err(|e| format!("write inputs: {e}"))
            .and_then(|()| measure(&args, &wl, &dir))
            .map(Some)
    };
    let _ = std::fs::remove_dir_all(&args.work);
    match result {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some(out)) => {
            let correct = out.failed == 0;
            println!(
                "{}",
                result_line(correct, out.attempted, out.failed, &out.metrics)
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
