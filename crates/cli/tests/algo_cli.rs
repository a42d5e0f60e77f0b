//! End-to-end behaviour of the hybrid dualization surface: `--algo`
//! spelling acceptance (including the `auto` planner default), the usage
//! exit for unknown algorithm names, the `verify-dual` exit-code contract
//! (0 dual / 1 not dual), and the planner keys in the stats JSON artifact.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

const EXIT_NOT_DUAL: i32 = 1;
const EXIT_USAGE: i32 = 2;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dualminer"))
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("spawn dualminer binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Writes a uniquely named temp input file and returns its path.
fn temp_file(name: &str, contents: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dualminer-algo-{}-{name}", std::process::id()));
    fs::write(&p, contents).expect("write temp input");
    p
}

/// A triangle: Tr = {{a,b},{b,c},{a,c}} (self-dual up to naming).
const TRIANGLE: &str = "a b\nb c\na c\n";

#[test]
fn unknown_algo_is_a_usage_error() {
    let graph = temp_file("g-unknown.txt", TRIANGLE);
    // "mmcs" named the list-based engine MU-MMCS replaced; no alias.
    for algo in ["bogus", "mmcs"] {
        let out = run(&["transversals", &graph.display().to_string(), "--algo", algo]);
        assert_eq!(out.status.code(), Some(EXIT_USAGE), "{algo}: {out:?}");
        let err = stderr(&out);
        assert!(err.contains("unknown --algo value"), "{err}");
        assert!(err.contains("USAGE"), "usage text missing: {err}");
    }
}

#[test]
fn every_algo_spelling_gives_identical_transversals() {
    let graph = temp_file("g-spellings.txt", TRIANGLE);
    let input = graph.display().to_string();
    let mut outputs = Vec::new();
    for algo in ["auto", "berge", "fk", "levelwise", "mu-mmcs", "egm"] {
        let out = run(&["transversals", &input, "--algo", algo]);
        assert!(out.status.success(), "--algo {algo}: {out:?}");
        // Compare only the transversal lines: identical sets in identical
        // canonical order, whatever engine ran.
        let body: Vec<String> = stdout(&out)
            .lines()
            .filter(|l| l.starts_with("  {"))
            .map(str::to_string)
            .collect();
        assert!(!body.is_empty(), "--algo {algo} printed no transversals");
        outputs.push((algo, body));
    }
    let (_, reference) = &outputs[0];
    for (algo, body) in &outputs {
        assert_eq!(body, reference, "--algo {algo} diverged");
    }
}

#[test]
fn default_run_reports_planner_choice_in_stats_json() {
    let graph = temp_file("g-stats.txt", TRIANGLE);
    let out = run(&[
        "transversals",
        &graph.display().to_string(),
        "--stats",
        "json",
    ]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    let json = text.trim_end().lines().last().unwrap_or_default();
    assert!(json.contains("\"planner_choice\":"), "{json}");
    assert!(json.contains("\"planner_rule\":"), "{json}");
    // The engine narration goes to stderr so stdout stays engine-invariant.
    assert!(stderr(&out).contains("note: engine"), "{out:?}");
}

#[test]
fn forced_mu_mmcs_reports_crit_counters_in_stats_json() {
    let graph = temp_file("g-mu-stats.txt", TRIANGLE);
    let out = run(&[
        "transversals",
        &graph.display().to_string(),
        "--algo",
        "mu-mmcs",
        "--stats",
        "json",
    ]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    let json = text.trim_end().lines().last().unwrap_or_default();
    assert!(json.contains("\"planner_choice\":\"mu-mmcs\""), "{json}");
    assert!(json.contains("\"tr_nodes\":"), "{json}");
    assert!(json.contains("\"tr_crit_removals\":"), "{json}");
}

#[test]
fn verify_dual_exit_codes() {
    let f = temp_file("vd-f.txt", TRIANGLE);
    // Tr of the triangle: the three 2-element transversals.
    let g = temp_file("vd-g.txt", "a b\nb c\na c\n");
    let not_g = temp_file("vd-not-g.txt", "a b\nb c\n");

    let dual = run(&[
        "verify-dual",
        &f.display().to_string(),
        &g.display().to_string(),
    ]);
    assert!(dual.status.success(), "{dual:?}");
    assert_eq!(stdout(&dual).trim(), "dual");

    let not_dual = run(&[
        "verify-dual",
        &f.display().to_string(),
        &not_g.display().to_string(),
    ]);
    assert_eq!(not_dual.status.code(), Some(EXIT_NOT_DUAL), "{not_dual:?}");
    assert_eq!(stdout(&not_dual).trim(), "not dual");
    // The verdict is an answer, not a malfunction: no error line.
    assert!(!stderr(&not_dual).contains("error:"), "{not_dual:?}");
}

#[test]
fn verify_dual_merges_vertex_dictionaries() {
    // g mentions the vertices in a different order / with extras absent
    // from f's lines; the merged-universe parse must still line them up.
    let f = temp_file("vd2-f.txt", "x y\ny z\n");
    let g = temp_file("vd2-g.txt", "y\nx z\n");
    let out = run(&[
        "verify-dual",
        &f.display().to_string(),
        &g.display().to_string(),
    ]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(stdout(&out).trim(), "dual");
}
