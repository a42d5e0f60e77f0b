//! The two frontends of one job: `dualminer <op> …` and `dualminer
//! request` against a daemon must print the same stdout bytes and exit
//! with the same code — success, verdict, budget trip and failure alike.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

use dualminer_serve::server::{start, ServeConfig};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dualminer"))
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("spawn dualminer binary")
}

/// Writes a uniquely named temp input file and returns its path.
fn temp_file(name: &str, contents: &[u8]) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("dualminer-parity-{}-{name}", std::process::id()));
    fs::write(&p, contents).expect("write temp input");
    p.display().to_string()
}

/// One job, spelled for both frontends, and the exit code both must give.
struct Case {
    name: &'static str,
    argv: Vec<String>,
    /// The request line's op-specific fields, after `"id"`.
    fields: String,
    exit: i32,
}

fn case(name: &'static str, argv: &[&str], fields: String, exit: i32) -> Case {
    Case {
        name,
        argv: argv.iter().map(|s| s.to_string()).collect(),
        fields,
        exit,
    }
}

#[test]
fn cli_and_request_print_the_same_bytes_and_exit_codes() {
    let baskets = temp_file(
        "baskets.txt",
        b"milk bread\nbread butter\nmilk butter bread\nmilk\nbread eggs\n",
    );
    let relation = temp_file(
        "staff.csv",
        b"name,dept,room,phone\nann,db,101,11\nbob,db,101,12\ncid,ml,202,13\ndan,ml,203,13\n",
    );
    let graph = temp_file("h.txt", b"a0 b0\na1 b1\na2 b2\na3 b3\na4 b4\n");
    let tri = temp_file("tri.txt", b"a b\nb c\na c\n");
    let pair = temp_file("pair.txt", b"a\nb\n");
    let ragged = temp_file("ragged.csv", b"a,b\n# note\nonly-one-cell\n");
    let bad_baskets = temp_file("bad-baskets.txt", b"milk bread\nbr\xffead milk\n");
    let bad_csv = temp_file("bad.csv", b"a,b\nx,\xfe\n");
    let bad_graph = temp_file("bad-h.txt", b"a b\n\xc3\n");
    let missing = std::env::temp_dir()
        .join(format!(
            "dualminer-parity-{}-missing.txt",
            std::process::id()
        ))
        .display()
        .to_string();
    let dir = std::env::temp_dir().display().to_string();
    let input = |path: &str| format!(r#""input":{{"path":"{path}"}}"#);
    let mine = |path: &str, extra: &str| {
        format!(r#""op":"mine",{},"min_support":"2"{extra}"#, input(path))
    };

    let cases = [
        case(
            "mine",
            &["mine", &baskets, "--min-support", "2"],
            mine(&baskets, ""),
            0,
        ),
        case(
            "mine --maximal",
            &["mine", &baskets, "--min-support", "2", "--maximal"],
            mine(&baskets, r#","maximal":true"#),
            0,
        ),
        case(
            "mine --max-queries",
            &["mine", &baskets, "--min-support", "2", "--max-queries", "5"],
            mine(&baskets, r#","run":{"max_queries":5}"#),
            6,
        ),
        case(
            "mine --timeout 0",
            &["mine", &baskets, "--min-support", "2", "--timeout", "0"],
            mine(&baskets, r#","run":{"timeout":"0"}"#),
            6,
        ),
        case(
            "mine --timeout 0, missing file",
            &["mine", &missing, "--min-support", "2", "--timeout", "0"],
            mine(&missing, r#","run":{"timeout":"0"}"#),
            4,
        ),
        case(
            "mine, missing file",
            &["mine", &missing, "--min-support", "2"],
            mine(&missing, ""),
            4,
        ),
        case(
            "mine, a directory",
            &["mine", &dir, "--min-support", "2"],
            mine(&dir, ""),
            4,
        ),
        case(
            "mine, invalid UTF-8",
            &["mine", &bad_baskets, "--min-support", "2"],
            mine(&bad_baskets, ""),
            3,
        ),
        case(
            "keys",
            &["keys", &relation],
            format!(r#""op":"keys",{}"#, input(&relation)),
            0,
        ),
        case(
            "keys --fds",
            &["keys", &relation, "--fds"],
            format!(r#""op":"keys",{},"fds":true"#, input(&relation)),
            0,
        ),
        case(
            "keys, ragged CSV",
            &["keys", &ragged],
            format!(r#""op":"keys",{}"#, input(&ragged)),
            3,
        ),
        case(
            "keys, invalid UTF-8",
            &["keys", &bad_csv],
            format!(r#""op":"keys",{}"#, input(&bad_csv)),
            3,
        ),
        case(
            "transversals",
            &["transversals", &graph],
            format!(r#""op":"transversals",{}"#, input(&graph)),
            0,
        ),
        case(
            "transversals --max-queries",
            &[
                "transversals",
                &graph,
                "--algo",
                "berge",
                "--max-queries",
                "7",
            ],
            format!(
                r#""op":"transversals",{},"algo":"berge","run":{{"max_queries":7}}"#,
                input(&graph)
            ),
            6,
        ),
        case(
            "transversals, invalid UTF-8",
            &["transversals", &bad_graph],
            format!(r#""op":"transversals",{}"#, input(&bad_graph)),
            3,
        ),
        case(
            "verify-dual, dual",
            &["verify-dual", &tri, &tri],
            format!(
                r#""op":"verify-dual",{},"input2":{{"path":"{tri}"}}"#,
                input(&tri)
            ),
            0,
        ),
        case(
            "verify-dual, not dual",
            &["verify-dual", &tri, &pair],
            format!(
                r#""op":"verify-dual",{},"input2":{{"path":"{pair}"}}"#,
                input(&tri)
            ),
            1,
        ),
    ];

    let handle = start(&ServeConfig {
        tcp: Some("127.0.0.1:0".into()),
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port");
    let addr = handle.tcp_addr.unwrap().to_string();
    for (id, case) in cases.iter().enumerate() {
        let argv: Vec<&str> = case.argv.iter().map(String::as_str).collect();
        let cli = run(&argv);
        let line = format!(r#"{{"id":{id},{}}}"#, case.fields);
        let served = run(&["request", &addr, "--json", &line]);
        let name = case.name;
        assert!(
            cli.stdout == served.stdout,
            "{name}: stdout differs\nCLI:\n{}\nrequest:\n{}",
            String::from_utf8_lossy(&cli.stdout),
            String::from_utf8_lossy(&served.stdout)
        );
        assert_eq!(
            (cli.status.code(), served.status.code()),
            (Some(case.exit), Some(case.exit)),
            "{name}: exit codes (CLI, request); CLI {cli:?}; request {served:?}"
        );
    }
    handle.shutdown();
    handle.join();
    for path in [
        &baskets,
        &relation,
        &graph,
        &tri,
        &pair,
        &ragged,
        &bad_baskets,
        &bad_csv,
        &bad_graph,
    ] {
        let _ = fs::remove_file(PathBuf::from(path));
    }
}
