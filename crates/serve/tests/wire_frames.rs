//! Result frames on the wire, byte for byte. A raw socket client reads
//! each `result` line as the daemon wrote it — no event parser in
//! between — and every route (miss, hit, coalesced waiter, hit restored
//! from a snapshot, budget pre-flight) must send exactly
//! `proto::ev_result` of the body an in-process cold run renders. Item
//! names carry `"`, `\`, a control byte and multibyte characters, so the
//! body exercises every escape the wire form holds.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dualminer_obs::{BudgetReason, Json, Meter, NoopObserver, StatsCollector};
use dualminer_serve::exec::{self, ExecCtx, Parsed};
use dualminer_serve::formats;
use dualminer_serve::proto::{self, CacheTag, Request};
use dualminer_serve::server::{start, ServeConfig, ServerHandle};

/// Basket rows over names that need every kind of escape.
const BASKETS: &str = "q\"1 b\\s c\u{1}x\nq\"1 b\\s\nq\"1 c\u{1}x dé 𝄞\nb\\s dé\nq\"1 b\\s dé 𝄞\n";

fn serve(cache_persist: Option<String>) -> (ServerHandle, String) {
    let handle = start(&ServeConfig {
        tcp: Some("127.0.0.1:0".into()),
        workers: 2,
        cache_entries: 64,
        cache_persist,
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port");
    let addr = handle.tcp_addr.expect("tcp listener").to_string();
    (handle, addr)
}

/// A job line over inline input; `extra` holds further top-level fields.
fn job_line(op: &str, id: u64, input: &str, extra: Vec<(String, Json)>) -> String {
    let mut fields = vec![
        ("op".into(), Json::str(op)),
        ("id".into(), Json::uint(id)),
        (
            "input".into(),
            Json::Obj(vec![("inline".into(), Json::str(input))]),
        ),
    ];
    fields.extend(extra);
    Json::Obj(fields).serialize()
}

fn mine_line(id: u64, extra: Vec<(String, Json)>) -> String {
    let mut fields = vec![("min_support".into(), Json::str("2"))];
    fields.extend(extra);
    job_line("mine", id, BASKETS, fields)
}

/// `k` disjoint pairs over escaped names: 2^k transversals, slow enough
/// that a duplicate can join the first request's flight.
fn pairs(k: usize) -> String {
    (0..k).map(|i| format!("a\"{i} b\\{i}\u{1}é\n")).collect()
}

/// The body an in-process cold run of `line` renders.
fn cold_body(line: &str, input: &str) -> String {
    let Ok(Request::Job(req)) = proto::parse_request(line) else {
        panic!("not a job line: {line}")
    };
    let parsed = match req.op.name() {
        "mine" => {
            let (universe, db) = formats::parse_baskets(input).unwrap();
            Parsed::Baskets(universe, db)
        }
        "transversals" => {
            let (universe, h) = formats::parse_hypergraph(input).unwrap();
            Parsed::Hypergraph(universe, h)
        }
        op => panic!("unexpected op {op}"),
    };
    let meter = Meter::unlimited();
    let stats = StatsCollector::new();
    let note = |_: &str| {};
    let cx = ExecCtx {
        meter: &meter,
        observer: &NoopObserver,
        stats: &stats,
        note: &note,
        threads: 1,
    };
    exec::run(&req.op, &parsed, &req.run, &cx).unwrap().0.body
}

/// A client that sees the daemon's lines as written.
struct Raw {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Raw {
    fn connect(addr: &str) -> Raw {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        let writer = stream.try_clone().unwrap();
        Raw {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
    }

    /// The next terminal line for `id`, without its newline.
    fn terminal(&mut self, id: u64) -> String {
        loop {
            let mut line = String::new();
            assert!(self.reader.read_line(&mut line).unwrap() > 0, "closed");
            let line = line.strip_suffix('\n').expect("a whole line").to_string();
            let ev = Json::parse(&line).unwrap();
            if ev.get("id").and_then(Json::as_uint) != Some(id) {
                continue;
            }
            match ev.get("event").and_then(Json::as_str) {
                Some("result") => return line,
                Some("error") => panic!("job {id} failed: {line}"),
                _ => {}
            }
        }
    }

    fn counter(&mut self, name: &str) -> u64 {
        self.send(r#"{"op":"server-stats","id":9000}"#);
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        let ev = Json::parse(line.trim_end()).unwrap();
        ev.get(name).and_then(Json::as_uint).expect("a counter")
    }
}

/// Asserts `line` is `proto::ev_result` of `body` with the line's own id,
/// tag, outcome, exit, fingerprint and stats, and that its tag is `tag`.
fn assert_frame(line: &str, body: &str, tag: CacheTag) {
    let ev = Json::parse(line).unwrap();
    let field = |key: &str| ev.get(key).and_then(Json::as_str).expect(key);
    assert_eq!(field("cache"), tag.as_str(), "{line:.200}");
    let reason = match field("outcome") {
        "complete" => None,
        "budget:deadline" => Some(BudgetReason::Deadline),
        other => panic!("unexpected outcome {other}"),
    };
    let exit = ev.get("exit").and_then(Json::as_int).unwrap() as i32;
    let id = ev.get("id").and_then(Json::as_uint).unwrap();
    let want = proto::ev_result(
        id,
        tag,
        reason,
        exit,
        field("fingerprint"),
        body,
        field("stats"),
    );
    assert!(
        line == want,
        "frame differs:\n got {line:.300}\nwant {want:.300}"
    );
}

#[test]
fn every_route_sends_the_encoded_cold_body() {
    let snap =
        std::env::temp_dir().join(format!("dualminer_wire_frames_{}.snap", std::process::id()));
    let _ = std::fs::remove_file(&snap);
    let persist = Some(snap.to_string_lossy().into_owned());
    let mine = cold_body(&mine_line(0, vec![]), BASKETS);
    assert!(mine.contains("q\"1") && mine.contains("c\u{1}x") && mine.contains("𝄞"));

    let (handle, addr) = serve(persist.clone());
    let mut conn = Raw::connect(&addr);
    // Miss, then hit.
    conn.send(&mine_line(1, vec![]));
    assert_frame(&conn.terminal(1), &mine, CacheTag::Miss);
    conn.send(&mine_line(2, vec![]));
    assert_frame(&conn.terminal(2), &mine, CacheTag::Hit);

    // A spent budget answers at the pre-flight, before the cache.
    let run = vec![(
        "run".into(),
        Json::Obj(vec![("timeout".into(), Json::str("0"))]),
    )];
    let preflight = exec::preflight(
        &dualminer_obs::Budget {
            timeout: Some(Duration::ZERO),
            ..Default::default()
        }
        .start(),
    )
    .expect("a zero timeout is spent")
    .body;
    conn.send(&mine_line(3, run));
    assert_frame(&conn.terminal(3), &preflight, CacheTag::Miss);

    // A duplicate sent while the first request computes waits on its
    // flight and shares its body.
    let slow = pairs(14);
    let line = |id| job_line("transversals", id, &slow, vec![]);
    let tr = cold_body(&line(0), &slow);
    let before = conn.counter("computations");
    let mut first = Raw::connect(&addr);
    first.send(&line(4));
    let waited = Instant::now();
    while conn.counter("computations") == before {
        assert!(waited.elapsed() < Duration::from_secs(30), "never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut twin = Raw::connect(&addr);
    twin.send(&line(5));
    assert_frame(&first.terminal(4), &tr, CacheTag::Miss);
    assert_frame(&twin.terminal(5), &tr, CacheTag::Coalesced);
    handle.shutdown();
    drop((conn, first, twin));
    handle.join();

    // A restart restores the snapshot; its hit sends the same frame.
    let (handle, addr) = serve(persist);
    let mut conn = Raw::connect(&addr);
    conn.send(&mine_line(6, vec![]));
    assert_frame(&conn.terminal(6), &mine, CacheTag::Hit);
    conn.send(&job_line("transversals", 7, &slow, vec![]));
    assert_frame(&conn.terminal(7), &tr, CacheTag::Hit);
    handle.shutdown();
    drop(conn);
    handle.join();
    let _ = std::fs::remove_file(&snap);
}
