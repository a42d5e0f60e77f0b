//! End-to-end budget behaviour of the `dualminer` binary: `--timeout 0`
//! must exit with the dedicated budget code (6) on every subcommand after
//! printing its partial output, and budgeted runs must emit the JSON stats
//! artifact with a typed outcome.

/// The exit code for a tripped budget (`CliError::Budget`).
const EXIT_BUDGET: i32 = 6;

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dualminer"))
}

/// Writes a uniquely named temp input file and returns its path.
fn temp_file(name: &str, contents: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dualminer-cli-{}-{name}", std::process::id()));
    fs::write(&p, contents).expect("write temp input");
    p
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("spawn dualminer binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn last_line(out: &Output) -> String {
    stdout(out)
        .trim_end()
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

const BASKETS: &str = "milk bread\nbread butter\nmilk butter bread\nmilk\n";
const RELATION: &str = "dept,role\nsales,mgr\nsales,ic\neng,ic\n";
const EVENTS: &str = "0 login\n1 search\n2 login\n3 buy\n";

/// An Example 19 matching instance: n/2 disjoint pair edges, so
/// |Tr(H)| = 2^(n/2) — large enough that a small budget must trip.
fn matching_file(pairs: usize) -> PathBuf {
    let mut text = String::new();
    for i in 0..pairs {
        text.push_str(&format!("a{i} b{i}\n"));
    }
    temp_file(&format!("matching-{pairs}.txt"), &text)
}

#[test]
fn timeout_zero_exits_cleanly_on_every_subcommand() {
    let baskets = temp_file("baskets.txt", BASKETS);
    let relation = temp_file("relation.csv", RELATION);
    let events = temp_file("events.txt", EVENTS);
    let graph = matching_file(3);
    let cases: Vec<Vec<String>> = vec![
        vec![
            "mine".into(),
            baskets.display().to_string(),
            "--min-support".into(),
            "2".into(),
        ],
        vec!["keys".into(), relation.display().to_string()],
        vec!["transversals".into(), graph.display().to_string()],
        vec![
            "episodes".into(),
            events.display().to_string(),
            "--window".into(),
            "2".into(),
            "--min-freq".into(),
            "0.1".into(),
        ],
    ];
    for mut args in cases {
        let sub = args[0].clone();
        args.extend([
            "--timeout".into(),
            "0".into(),
            "--stats".into(),
            "json".into(),
        ]);
        let out = bin().args(&args).output().expect("spawn dualminer binary");
        assert_eq!(
            out.status.code(),
            Some(EXIT_BUDGET),
            "{sub}: wrong exit code: {out:?}"
        );
        let text = stdout(&out);
        assert!(
            text.contains("budget exceeded (deadline)"),
            "{sub}: missing early-exit note in {text:?}"
        );
        let json = last_line(&out);
        assert!(
            json.starts_with('{') && json.ends_with('}'),
            "{sub}: last line is not JSON: {json:?}"
        );
        assert!(json.contains("\"outcome\":\"deadline\""), "{sub}: {json:?}");
    }
}

#[test]
fn mine_with_tiny_timeout_emits_valid_stats_json() {
    let baskets = temp_file("mine-baskets.txt", BASKETS);
    let out = run(&[
        "mine",
        &baskets.display().to_string(),
        "--min-support",
        "2",
        "--timeout",
        "1ms",
        "--stats",
        "json",
    ]);
    let json = last_line(&out);
    assert!(json.starts_with('{') && json.ends_with('}'), "{json:?}");
    // The run either completed inside the millisecond (exit 0) or reports
    // the deadline (exit 6) — both are typed outcomes with the full stats
    // schema, and the exit code must match the reported outcome.
    if out.status.success() {
        assert!(json.contains("\"outcome\":\"complete\""), "{json:?}");
    } else {
        assert_eq!(out.status.code(), Some(EXIT_BUDGET), "{out:?}");
        assert!(json.contains("\"outcome\":\"deadline\""), "{json:?}");
    }
    for key in [
        "\"queries\":",
        "\"candidates\":",
        "\"threads\":",
        "\"wall_ms\":",
        "\"phases\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json:?}");
    }
}

#[test]
fn transversals_max_queries_trips_with_partial_prefix() {
    let graph = matching_file(12); // |Tr| = 4096 — far beyond the budget
    let out = run(&[
        "transversals",
        &graph.display().to_string(),
        "--algo",
        "berge",
        "--max-queries",
        "50",
        "--stats",
        "json",
    ]);
    assert_eq!(out.status.code(), Some(EXIT_BUDGET), "{out:?}");
    let text = stdout(&out);
    assert!(
        text.contains("budget exceeded (max_queries)"),
        "missing partial-result note in {text:?}"
    );
    let json = last_line(&out);
    assert!(json.contains("\"outcome\":\"max_queries\""), "{json:?}");
}

#[test]
fn transversals_max_transversals_trips_with_partial_prefix() {
    let graph = matching_file(12);
    let out = run(&[
        "transversals",
        &graph.display().to_string(),
        "--algo",
        "mu-mmcs",
        "--max-transversals",
        "7",
        "--stats",
        "json",
    ]);
    assert_eq!(out.status.code(), Some(EXIT_BUDGET), "{out:?}");
    let text = stdout(&out);
    assert!(
        text.contains("budget exceeded (max_transversals)"),
        "missing partial-result note in {text:?}"
    );
    // The partial prefix is nonempty: at least the budgeted number of
    // minimal transversals were enumerated and printed.
    assert!(
        text.lines().filter(|l| l.starts_with("  {")).count() >= 7,
        "expected ≥ 7 printed transversals in {text:?}"
    );
    let json = last_line(&out);
    assert!(
        json.contains("\"outcome\":\"max_transversals\""),
        "{json:?}"
    );
    assert!(json.contains("\"transversals\":"), "{json:?}");
}

/// Parallel runs stamp work-stealing scheduler counters into the stats
/// JSON; sequential runs keep the historical schema (no `ws_*` keys).
#[test]
fn parallel_stats_json_carries_scheduler_counters() {
    let baskets = temp_file("ws-baskets.txt", BASKETS);
    let input = baskets.display().to_string();

    let par = run(&[
        "mine",
        &input,
        "--min-support",
        "2",
        "--threads",
        "4",
        "--grain",
        "1",
        "--stats",
        "json",
    ]);
    assert!(par.status.success(), "{par:?}");
    let json = last_line(&par);
    for key in [
        "\"ws_tasks\":",
        "\"ws_steals\":",
        "\"ws_splits\":",
        "\"ws_joins\":",
        "\"ws_workers\":[",
    ] {
        assert!(json.contains(key), "missing {key} in {json:?}");
    }

    let seq = run(&["mine", &input, "--min-support", "2", "--stats", "json"]);
    assert!(seq.status.success(), "{seq:?}");
    let json = last_line(&seq);
    assert!(
        !json.contains("\"ws_tasks\""),
        "sequential run must not report scheduler counters: {json:?}"
    );
}

#[test]
fn unlimited_run_reports_complete_outcome() {
    let graph = matching_file(4); // |Tr| = 16, instant
    let out = run(&[
        "transversals",
        &graph.display().to_string(),
        "--algo",
        "berge",
        "--stats",
        "json",
    ]);
    assert!(out.status.success(), "{out:?}");
    let json = last_line(&out);
    assert!(json.contains("\"outcome\":\"complete\""), "{json:?}");
}
