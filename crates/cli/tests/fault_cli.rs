//! End-to-end fault tolerance of the `dualminer` binary: seeded fault
//! injection, the distinct exit-code taxonomy, and kill → `--resume`
//! producing output bit-identical to an undisturbed run.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

use dualminer_obs::{CheckpointSink, FileCheckpoint, Json};

const EXIT_USAGE: i32 = 2;
const EXIT_PARSE: i32 = 3;
const EXIT_IO: i32 = 4;
const EXIT_FAULT: i32 = 5;
const EXIT_BUDGET: i32 = 6;

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

/// Replaces wall-clock durations (`... in 126.51µs:`) with a placeholder
/// so bit-identity checks compare results, not timings.
fn normalize(s: &str) -> String {
    s.lines()
        .map(|l| match l.find(" in ") {
            Some(i) => {
                let rest = &l[i + 4..];
                match rest.find(':') {
                    Some(j) if rest.chars().next().is_some_and(|c| c.is_ascii_digit()) => {
                        format!("{} in <t>:{}", &l[..i], &rest[j + 1..])
                    }
                    _ => l.to_string(),
                }
            }
            None => l.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Writes a uniquely named temp file and returns its path.
fn temp_file(name: &str, contents: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dualminer-fault-{}-{name}", std::process::id()));
    fs::write(&p, contents).expect("write temp file");
    p
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dualminer-fault-{}-{name}", std::process::id()));
    let _ = fs::remove_file(&p);
    p
}

const BASKETS: &str = "milk bread\nbread butter\nmilk butter bread\nmilk\nbread eggs\n";
const RELATION: &str = "dept,role,site\nsales,mgr,hq\nsales,ic,hq\neng,ic,lab\neng,mgr,lab\n";
const GRAPH: &str = "a0 b0\na1 b1\na2 b2\n";

#[test]
fn transient_faults_absorbed_by_retries_leave_output_unchanged() {
    let baskets = temp_file("t-baskets.txt", BASKETS);
    let input = baskets.display().to_string();
    let plain = run(&["mine", &input, "--min-support", "2"]);
    assert!(plain.status.success(), "{plain:?}");

    let faulty = run(&[
        "mine",
        &input,
        "--min-support",
        "2",
        "--fault-inject",
        "seed=7,transient=0.3",
        "--retry",
        "3",
        "--stats",
        "json",
    ]);
    assert!(faulty.status.success(), "{faulty:?}");
    let text = stdout(&faulty);
    let (body, json) = text
        .rsplit_once('\n')
        .map_or((text.as_str(), ""), |(b, j)| {
            if j.starts_with('{') {
                (b, j)
            } else {
                (text.as_str(), "")
            }
        });
    // Strip the stats line: the mined theory must be bit-identical.
    let json = if json.is_empty() {
        let mut lines: Vec<&str> = text.trim_end().lines().collect();
        let j = lines.pop().unwrap_or_default();
        assert_eq!(
            normalize(&lines.join("\n")),
            normalize(stdout(&plain).trim_end()),
            "theory differs"
        );
        j.to_string()
    } else {
        assert_eq!(
            normalize(body.trim_end()),
            normalize(stdout(&plain).trim_end()),
            "theory differs"
        );
        json.to_string()
    };
    assert!(json.contains("\"retries\":"), "{json:?}");
    assert!(json.contains("\"faults\":"), "{json:?}");
}

/// Kill via an injected permanent fault, then `--resume`: the combined run
/// must exit 0 and print exactly what an undisturbed run prints.
#[test]
fn mine_kill_and_resume_matches_undisturbed_run() {
    let baskets = temp_file("k-baskets.txt", BASKETS);
    let input = baskets.display().to_string();
    let plain = run(&["mine", &input, "--min-support", "2"]);
    assert!(plain.status.success(), "{plain:?}");

    // The undisturbed run makes 7 logical queries (4 singletons + 3
    // pairs), so these kill points span early / mid / final query.
    for kill_at in [2u64, 5, 6] {
        let ckpt = temp_path(&format!("mine-{kill_at}.ckpt"));
        let ckpt_s = ckpt.display().to_string();
        let spec = format!("permanent={kill_at}");
        let killed = run(&[
            "mine",
            &input,
            "--min-support",
            "2",
            "--fault-inject",
            &spec,
            "--checkpoint",
            &ckpt_s,
            "--checkpoint-every",
            "1",
        ]);
        assert_eq!(
            killed.status.code(),
            Some(EXIT_FAULT),
            "kill_at={kill_at}: {killed:?}"
        );
        let err = stderr(&killed);
        assert!(
            err.contains("--resume"),
            "kill_at={kill_at}: missing resume hint in {err:?}"
        );

        let resumed = run(&[
            "mine",
            &input,
            "--min-support",
            "2",
            "--checkpoint",
            &ckpt_s,
            "--resume",
        ]);
        assert!(resumed.status.success(), "kill_at={kill_at}: {resumed:?}");
        assert_eq!(
            normalize(&stdout(&resumed)),
            normalize(&stdout(&plain)),
            "kill_at={kill_at}: resumed output differs"
        );
        let _ = fs::remove_file(&ckpt);
    }
}

#[test]
fn keys_kill_and_resume_matches_undisturbed_run() {
    let relation = temp_file("k-relation.csv", RELATION);
    let input = relation.display().to_string();
    let plain = run(&["keys", &input]);
    assert!(plain.status.success(), "{plain:?}");

    let ckpt = temp_path("keys.ckpt");
    let ckpt_s = ckpt.display().to_string();
    let killed = run(&[
        "keys",
        &input,
        "--fault-inject",
        "permanent=4",
        "--checkpoint",
        &ckpt_s,
        "--checkpoint-every",
        "1",
    ]);
    assert_eq!(killed.status.code(), Some(EXIT_FAULT), "{killed:?}");

    let resumed = run(&["keys", &input, "--checkpoint", &ckpt_s, "--resume"]);
    assert!(resumed.status.success(), "{resumed:?}");
    assert_eq!(normalize(&stdout(&resumed)), normalize(&stdout(&plain)));
    let _ = fs::remove_file(&ckpt);
}

#[test]
fn transversals_kill_and_resume_matches_undisturbed_run() {
    let graph = temp_file("k-graph.txt", GRAPH);
    let input = graph.display().to_string();
    // The default engine materializes each round's border; `fk` reaches
    // the incremental joint-generation step.
    for algo in ["auto", "fk"] {
        let plain = run(&["transversals", &input, "--algo", algo]);
        assert!(plain.status.success(), "{algo}: {plain:?}");

        let ckpt = temp_path(&format!("tr-{algo}.ckpt"));
        let ckpt_s = ckpt.display().to_string();
        let killed = run(&[
            "transversals",
            &input,
            "--algo",
            algo,
            "--fault-inject",
            "permanent=6",
            "--checkpoint",
            &ckpt_s,
            "--checkpoint-every",
            "1",
        ]);
        assert_eq!(killed.status.code(), Some(EXIT_FAULT), "{algo}: {killed:?}");

        let resumed = run(&[
            "transversals",
            &input,
            "--algo",
            algo,
            "--checkpoint",
            &ckpt_s,
            "--resume",
        ]);
        assert!(resumed.status.success(), "{algo}: {resumed:?}");
        assert_eq!(
            normalize(&stdout(&resumed)),
            normalize(&stdout(&plain)),
            "{algo}"
        );
        let _ = fs::remove_file(&ckpt);
    }
}

#[test]
fn fault_surviving_retries_without_checkpoint_exits_5() {
    let baskets = temp_file("f-baskets.txt", BASKETS);
    let out = run(&[
        "mine",
        &baskets.display().to_string(),
        "--min-support",
        "2",
        "--fault-inject",
        "permanent=3",
    ]);
    assert_eq!(out.status.code(), Some(EXIT_FAULT), "{out:?}");
    // No checkpoint was configured, so no resume hint is offered.
    assert!(!stderr(&out).contains("--resume"), "{out:?}");
}

#[test]
fn exit_code_taxonomy() {
    // 2: usage.
    let out = run(&["mine"]);
    assert_eq!(out.status.code(), Some(EXIT_USAGE), "{out:?}");
    let out = run(&["mine", "x.txt", "--min-support", "2", "--resume"]);
    assert_eq!(
        out.status.code(),
        Some(EXIT_USAGE),
        "--resume sans --checkpoint: {out:?}"
    );
    // The removed row-segment flag is a usage error that names it.
    let out = run(&["mine", "x.txt", "--min-support", "2", "--segment-rows", "0"]);
    assert_eq!(
        out.status.code(),
        Some(EXIT_USAGE),
        "--segment-rows 0: {out:?}"
    );
    assert!(
        stderr(&out).contains("--segment-rows"),
        "unhelpful message: {out:?}"
    );

    // 3: input parse, with file:line location.
    let bad = temp_file("ragged.csv", "a,b\n# note\nonly-one-cell\n");
    let out = run(&["keys", &bad.display().to_string()]);
    assert_eq!(out.status.code(), Some(EXIT_PARSE), "{out:?}");
    let err = stderr(&out);
    assert!(err.contains("ragged.csv:3"), "missing location in {err:?}");

    // 4: missing input file.
    let out = run(&["mine", "/nonexistent/missing.txt", "--min-support", "2"]);
    assert_eq!(out.status.code(), Some(EXIT_IO), "{out:?}");

    // 4: corrupt checkpoint on --resume.
    let baskets = temp_file("c-baskets.txt", BASKETS);
    let ckpt = temp_file("corrupt.ckpt", "not a checkpoint");
    let out = run(&[
        "mine",
        &baskets.display().to_string(),
        "--min-support",
        "2",
        "--checkpoint",
        &ckpt.display().to_string(),
        "--resume",
    ]);
    assert_eq!(out.status.code(), Some(EXIT_IO), "{out:?}");
    assert!(stderr(&out).contains("corrupt checkpoint"), "{out:?}");
}

/// `--resume` with a checkpoint path that does not exist yet is a fresh
/// start, not an error — the documented "idempotent relaunch" contract.
#[test]
fn resume_without_checkpoint_file_starts_fresh() {
    let baskets = temp_file("r-baskets.txt", BASKETS);
    let input = baskets.display().to_string();
    let plain = run(&["mine", &input, "--min-support", "2"]);
    let ckpt = temp_path("fresh.ckpt");
    let out = run(&[
        "mine",
        &input,
        "--min-support",
        "2",
        "--checkpoint",
        &ckpt.display().to_string(),
        "--resume",
    ]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(normalize(&stdout(&out)), normalize(&stdout(&plain)));
    let _ = fs::remove_file(&ckpt);
}

/// A checkpointed mine honours `--max-queries` exactly: it stops at the
/// cap and prints the same partial prefix as the uncheckpointed run.
/// Six items make level 1 wider than the cap, so the trip lands
/// mid-level.
#[test]
fn checkpointed_mine_stops_at_the_query_cap() {
    let baskets = temp_file(
        "q-baskets.txt",
        "a b c\nb c d\na c e\nd e f\na b f\nc d e f\n",
    );
    let input = baskets.display().to_string();
    let ckpt = temp_path("cap.ckpt");
    let ckpt_s = ckpt.display().to_string();
    let base = ["mine", &input, "--min-support", "2", "--max-queries", "5"];
    let stats = ["--stats", "json"];
    let plain = run(&[&base[..], &stats[..]].concat());
    let checkpointed = run(&[&base[..], &["--checkpoint", &ckpt_s], &stats[..]].concat());
    for out in [&plain, &checkpointed] {
        assert_eq!(out.status.code(), Some(EXIT_BUDGET), "{out:?}");
    }
    let (text, plain_text) = (stdout(&checkpointed), stdout(&plain));
    let (body, json) = text.trim_end().rsplit_once('\n').expect("body + stats");
    let (plain_body, _) = plain_text
        .trim_end()
        .rsplit_once('\n')
        .expect("body + stats");
    assert!(json.contains("\"queries\":5,"), "{json:?}");
    assert_eq!(body, plain_body);
    let _ = fs::remove_file(&ckpt);
}

/// An `apriori-seg` checkpoint (the kind earlier versions' segment-major
/// Apriori engine wrote) is refused with a typed I/O error that names
/// its kind — never resumed, never silently discarded.
#[test]
fn old_segment_engine_checkpoint_is_refused_by_kind() {
    let baskets = temp_file("o-baskets.txt", BASKETS);
    let ckpt = temp_path("seg.ckpt");
    FileCheckpoint::new(&ckpt)
        .save("apriori-seg", &Json::Obj(vec![]))
        .expect("write checkpoint");
    let out = run(&[
        "mine",
        &baskets.display().to_string(),
        "--min-support",
        "2",
        "--checkpoint",
        &ckpt.display().to_string(),
        "--resume",
    ]);
    assert_eq!(out.status.code(), Some(EXIT_IO), "{out:?}");
    assert!(stderr(&out).contains("apriori-seg"), "{out:?}");
    let _ = fs::remove_file(&ckpt);
}

/// `mine --progress` prints on stderr exactly the `[progress] …` texts the
/// daemon streams as `progress` events for the same job — phases and
/// levels on the plain route; retries and checkpoints on the
/// fault-tolerant one.
#[test]
fn cli_progress_lines_equal_daemon_progress_events() {
    use dualminer_serve::client::Conn;
    use dualminer_serve::server::{start, ServeConfig};

    let baskets = temp_file("p-baskets.txt", BASKETS);
    let path = baskets.display().to_string();
    let handle = start(&ServeConfig {
        tcp: Some("127.0.0.1:0".into()),
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port");
    let mut conn = Conn::connect(&handle.tcp_addr.unwrap().to_string()).unwrap();
    let (cli_ckpt, daemon_ckpt) = (temp_path("p-cli.ckpt"), temp_path("p-daemon.ckpt"));
    let fault = "seed=3,transient=0.4";
    for (id, tolerant) in [(1u64, false), (2, true)] {
        let mut args = vec!["mine", &path, "--min-support", "2", "--progress"];
        let mut run_json = String::new();
        let cli_ckpt = cli_ckpt.display().to_string();
        if tolerant {
            args.extend(["--fault-inject", fault, "--retry", "3"]);
            args.extend(["--checkpoint", &cli_ckpt, "--checkpoint-every", "1"]);
            run_json = format!(
                r#","run":{{"fault_inject":"{fault}","retry":3,"checkpoint":"{}","checkpoint_every":1}}"#,
                daemon_ckpt.display()
            );
        }
        let out = run(&args);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        let cli: Vec<String> = stderr(&out)
            .lines()
            .filter(|l| l.starts_with("[progress]"))
            .map(str::to_string)
            .collect();
        let line = format!(
            r#"{{"op":"mine","id":{id},"input":{{"path":"{path}"}},"min_support":"2","progress":true{run_json}}}"#
        );
        let daemon: Vec<String> = conn
            .roundtrip(&line, id)
            .unwrap()
            .iter()
            .filter(|e| e.kind == "progress")
            .map(|e| e.str_field("text").unwrap().to_string())
            .collect();
        assert!(cli.iter().any(|l| l.contains("level")), "{cli:?}");
        if tolerant {
            assert!(cli.iter().any(|l| l.contains("oracle fault")), "{cli:?}");
            assert!(
                cli.iter().any(|l| l.contains("checkpoint saved")),
                "{cli:?}"
            );
        }
        assert_eq!(cli, daemon, "tolerant={tolerant}");
    }
    handle.shutdown();
    handle.join();
    let _ = fs::remove_file(&cli_ckpt);
    let _ = fs::remove_file(&daemon_ckpt);
}
