//! End-to-end daemon tests: a real server on an ephemeral TCP port, real
//! client connections, and the full protocol — cache bit-identity,
//! in-flight deduplication under concurrent clients, incremental
//! re-mining, cancellation, checkpoint resume over the wire, and the
//! error-code contract.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use dualminer_serve::client::{Conn, Event};
use dualminer_serve::server::{start, ServeConfig, ServerHandle};

const BASKETS: &str = "milk bread\nbread butter\nmilk butter bread\nmilk\nbread eggs\n";
const RELATION: &str = "a,b,c\n1,2,3\n1,2,4\n5,2,3\n";
// f = {{a,b},{c}} has Tr(f) = {{a,c},{b,c}}.
const DUAL_F: &str = "a b\nc\n";
const DUAL_G: &str = "a c\nb c\n";

fn serve(workers: usize) -> (ServerHandle, String) {
    let handle = start(&ServeConfig {
        tcp: Some("127.0.0.1:0".into()),
        unix: None,
        workers,
        cache_entries: 64,
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port");
    let addr = handle.tcp_addr.expect("tcp listener").to_string();
    (handle, addr)
}

/// Escapes a text payload for embedding as a JSON string value.
fn jesc(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// A `mine` job line over inline input.
fn mine_line(id: u64, input: &str, extra: &str) -> String {
    format!(
        r#"{{"op":"mine","id":{id},"input":{{"inline":"{}"}},"min_support":"2"{extra}}}"#,
        jesc(input)
    )
}

fn terminal(events: &[Event]) -> &Event {
    events.last().expect("at least one event")
}

fn field<'a>(ev: &'a Event, key: &str) -> &'a str {
    ev.str_field(key).unwrap_or_else(|| panic!("{key} missing"))
}

/// A hypergraph of `k` disjoint pairs; |Tr| = 2^k.
fn pairs_hypergraph(k: usize) -> String {
    (0..k).map(|i| format!("a{i} b{i}\n")).collect()
}

#[test]
fn cached_repeat_is_bit_identical_for_every_op() {
    let (handle, addr) = serve(2);
    let mut conn = Conn::connect(&addr).unwrap();
    let jobs: Vec<(&str, String)> = vec![
        ("mine", mine_line(0, BASKETS, "")),
        (
            "transversals",
            format!(
                r#"{{"op":"transversals","id":0,"input":{{"inline":"{}"}}}}"#,
                jesc(&pairs_hypergraph(3))
            ),
        ),
        (
            "keys",
            format!(
                r#"{{"op":"keys","id":0,"input":{{"inline":"{}"}},"fds":true}}"#,
                jesc(RELATION)
            ),
        ),
        (
            "verify-dual",
            format!(
                r#"{{"op":"verify-dual","id":0,"input":{{"inline":"{}"}},"input2":{{"inline":"{}"}}}}"#,
                jesc(DUAL_F),
                jesc(DUAL_G)
            ),
        ),
    ];
    let next_id = AtomicU64::new(1);
    let mut send = |line: &str, cache: Option<&str>| -> Vec<Event> {
        let id = next_id.fetch_add(1, Ordering::Relaxed);
        let mut line = line.replace(r#""id":0"#, &format!(r#""id":{id}"#));
        if let Some(mode) = cache {
            let patched = line.replacen('{', &format!(r#"{{"cache":"{mode}","#), 1);
            line = patched;
        }
        conn.roundtrip(&line, id).unwrap()
    };
    for (op, line) in &jobs {
        let cold = send(line, None);
        let warm = send(line, None);
        let fresh = send(line, Some("bypass"));
        let (cold, warm, fresh) = (terminal(&cold), terminal(&warm), terminal(&fresh));
        for ev in [cold, warm, fresh] {
            assert_eq!(ev.kind, "result", "{op}: {:?}", ev.fields);
        }
        assert_eq!(field(cold, "cache"), "miss", "{op}");
        assert_eq!(field(warm, "cache"), "hit", "{op}");
        assert_eq!(field(fresh, "cache"), "miss", "{op}: bypass recomputes");
        // The cached body and stats artifact are the stored strings —
        // byte-identical — and a forced fresh run reproduces the body.
        assert_eq!(field(cold, "body"), field(warm, "body"), "{op}");
        assert_eq!(field(cold, "stats"), field(warm, "stats"), "{op}");
        assert_eq!(field(cold, "body"), field(fresh, "body"), "{op}");
        assert_eq!(cold.int_field("exit"), warm.int_field("exit"), "{op}");
        assert_eq!(
            field(cold, "fingerprint"),
            field(warm, "fingerprint"),
            "{op}"
        );
        assert!(!field(cold, "body").is_empty(), "{op}");
    }
    // 4 ops × (cold + bypass) computed, 4 warm hits, nothing else.
    let id = next_id.fetch_add(1, Ordering::Relaxed);
    let stats = conn
        .roundtrip(&format!(r#"{{"op":"server-stats","id":{id}}}"#), id)
        .unwrap();
    let stats = terminal(&stats);
    assert_eq!(stats.int_field("computations"), Some(8));
    assert_eq!(stats.int_field("cache_hits"), Some(4));
    assert_eq!(stats.int_field("errors"), Some(0));
    handle.shutdown();
    handle.join();
}

#[test]
fn warm_hit_runs_no_engine_and_streams_no_progress() {
    let (handle, addr) = serve(1);
    let mut conn = Conn::connect(&addr).unwrap();
    let line = mine_line(1, BASKETS, r#","progress":true"#);
    let cold = conn.roundtrip(&line, 1).unwrap();
    assert!(
        cold.iter().any(|e| e.kind == "progress"),
        "cold run narrates levels"
    );
    let line = mine_line(2, BASKETS, r#","progress":true"#);
    let warm = conn.roundtrip(&line, 2).unwrap();
    assert_eq!(field(terminal(&warm), "cache"), "hit");
    assert!(
        warm.iter().all(|e| e.kind != "progress"),
        "a warm hit runs no engine, so nothing narrates"
    );
    let stats = conn
        .roundtrip(r#"{"op":"server-stats","id":3}"#, 3)
        .unwrap();
    assert_eq!(
        terminal(&stats).int_field("computations"),
        Some(1),
        "the warm hit performed no oracle queries"
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn request_ids_above_i64_max_are_echoed_exactly() {
    // Ids are u64 on the wire: 2^63 + 1 must not saturate or be rejected
    // as invalid JSON, and every event of the job echoes it digit for digit.
    let id = (1u64 << 63) + 1;
    let (handle, addr) = serve(1);
    let mut conn = Conn::connect(&addr).unwrap();
    let events = conn.roundtrip(&mine_line(id, BASKETS, ""), id).unwrap();
    let result = terminal(&events);
    assert_eq!(result.kind, "result");
    assert_eq!(result.int_field("exit"), Some(0));
    assert!(events.iter().all(|e| e.id == id));
    assert_eq!(result.fields.get("id").and_then(|v| v.as_uint()), Some(id));
    assert!(result
        .fields
        .to_string()
        .starts_with(r#"{"event":"result","id":9223372036854775809,"#));
    handle.shutdown();
    handle.join();
}

#[test]
fn incremental_append_reuses_the_cached_base() {
    let (handle, addr) = serve(1);
    let mut conn = Conn::connect(&addr).unwrap();
    let appended = format!("{BASKETS}milk eggs\nbread milk\n");

    let base = conn.roundtrip(&mine_line(1, BASKETS, ""), 1).unwrap();
    assert_eq!(field(terminal(&base), "cache"), "miss");

    let inc = conn.roundtrip(&mine_line(2, &appended, ""), 2).unwrap();
    let inc_result = terminal(&inc);
    assert_eq!(field(inc_result, "cache"), "incremental");
    assert!(
        inc.iter().any(|e| e.kind == "note"
            && e.str_field("text")
                .is_some_and(|t| t.contains("incremental base covers 5 of 7 rows"))),
        "the note narrates the reused base: {inc:?}"
    );

    // Byte-identical to a from-scratch run on the appended input.
    let fresh = conn
        .roundtrip(&mine_line(3, &appended, r#","cache":"bypass""#), 3)
        .unwrap();
    let fresh = terminal(&fresh);
    assert_eq!(field(fresh, "cache"), "miss");
    assert_eq!(field(inc_result, "body"), field(fresh, "body"));

    // And the incremental result was re-cached under the new fingerprint.
    let warm = conn.roundtrip(&mine_line(4, &appended, ""), 4).unwrap();
    assert_eq!(field(terminal(&warm), "cache"), "hit");
    assert_eq!(field(terminal(&warm), "body"), field(fresh, "body"));

    let stats = conn
        .roundtrip(r#"{"op":"server-stats","id":5}"#, 5)
        .unwrap();
    assert_eq!(terminal(&stats).int_field("incremental"), Some(1));
    handle.shutdown();
    handle.join();
}

#[test]
fn relative_support_and_budgeted_runs_fall_back_to_cold_mining() {
    // Neither route may use the FUP update: a relative threshold resolves
    // differently on the appended row count, and a budget could interrupt
    // the update at a state that is not bit-identical to from-scratch.
    let (handle, addr) = serve(1);
    let mut conn = Conn::connect(&addr).unwrap();
    let appended = format!("{BASKETS}milk eggs\n");
    let base = format!(
        r#"{{"op":"mine","id":1,"input":{{"inline":"{}"}},"min_support":"0.4"}}"#,
        jesc(BASKETS)
    );
    assert_eq!(
        field(terminal(&conn.roundtrip(&base, 1).unwrap()), "cache"),
        "miss"
    );
    let rel = format!(
        r#"{{"op":"mine","id":2,"input":{{"inline":"{}"}},"min_support":"0.4"}}"#,
        jesc(&appended)
    );
    assert_eq!(
        field(terminal(&conn.roundtrip(&rel, 2).unwrap()), "cache"),
        "miss",
        "relative support is never served incrementally"
    );
    let budgeted = mine_line(3, &appended, r#","run":{"max_queries":100000}"#);
    assert_eq!(
        field(terminal(&conn.roundtrip(&budgeted, 3).unwrap()), "cache"),
        "miss",
        "a budgeted run is never served incrementally"
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn concurrent_clients_run_identical_jobs_once() {
    let (handle, addr) = serve(4);
    // One slow job shape (2^14 transversals) shared by three clients, and
    // three quick distinct jobs — four computations total, ever.
    let big = pairs_hypergraph(14);
    let slow_line = |id: u64| {
        format!(
            r#"{{"op":"transversals","id":{id},"input":{{"inline":"{}"}}}}"#,
            jesc(&big)
        )
    };
    let quick_line = |id: u64, k: usize| {
        format!(
            r#"{{"op":"transversals","id":{id},"input":{{"inline":"{}"}}}}"#,
            jesc(&pairs_hypergraph(k))
        )
    };

    // Seed the slow job, give it a head start into the engine, then pile
    // on duplicates and distinct work from five more clients.
    let first = std::thread::spawn({
        let addr = addr.clone();
        let line = slow_line(101);
        move || {
            let mut conn = Conn::connect(&addr).unwrap();
            conn.roundtrip(&line, 101).unwrap()
        }
    });
    std::thread::sleep(Duration::from_millis(60));
    let mut others = Vec::new();
    for (id, line) in [
        (102, slow_line(102)),
        (103, slow_line(103)),
        (201, quick_line(201, 3)),
        (202, quick_line(202, 4)),
        (203, quick_line(203, 5)),
    ] {
        others.push(std::thread::spawn({
            let addr = addr.clone();
            move || {
                let mut conn = Conn::connect(&addr).unwrap();
                let mut events = Vec::new();
                conn.send_line(&line).unwrap();
                loop {
                    let ev = conn.next_event().unwrap().expect("server stays up");
                    // Per-client streams: a connection only ever sees its
                    // own job's events.
                    assert_eq!(ev.id, id, "cross-talk on {id}: {:?}", ev.fields);
                    let done = ev.kind == "result" || ev.kind == "error";
                    events.push(ev);
                    if done {
                        return events;
                    }
                }
            }
        }));
    }
    let slow_ref = first.join().unwrap();
    let slow_ref = terminal(&slow_ref);
    assert_eq!(slow_ref.kind, "result");
    let results: Vec<Vec<Event>> = others.into_iter().map(|t| t.join().unwrap()).collect();
    for events in &results[..2] {
        let dup = terminal(events);
        assert_eq!(dup.kind, "result");
        // Whichever way the race went, the duplicate was not recomputed…
        assert!(
            matches!(field(dup, "cache"), "hit" | "coalesced"),
            "duplicate recomputed: {:?}",
            dup.fields
        );
        // …and shares the original's bytes.
        assert_eq!(field(dup, "body"), field(slow_ref, "body"));
        assert_eq!(field(dup, "stats"), field(slow_ref, "stats"));
    }
    for (events, k) in results[2..].iter().zip([3usize, 4, 5]) {
        let ev = terminal(events);
        assert_eq!(ev.kind, "result");
        assert_eq!(field(ev, "cache"), "miss");
        assert!(
            field(ev, "body").contains(&format!("Tr(H): {} minimal transversals", 1usize << k)),
            "wrong body for k={k}"
        );
    }

    let mut conn = Conn::connect(&addr).unwrap();
    let stats = conn
        .roundtrip(r#"{"op":"server-stats","id":900}"#, 900)
        .unwrap();
    let stats = terminal(&stats);
    assert_eq!(
        stats.int_field("computations"),
        Some(4),
        "six jobs, four fingerprints, four computations: {:?}",
        stats.fields
    );
    assert_eq!(stats.int_field("jobs"), Some(6));

    // Clean shutdown over the protocol: the acknowledgement arrives, and
    // join() returns — no orphaned worker or connection threads.
    let down = conn
        .roundtrip(r#"{"op":"shutdown","id":901}"#, 901)
        .unwrap();
    assert_eq!(terminal(&down).kind, "shutdown");
    handle.join();
}

#[test]
fn cancel_stops_a_running_job() {
    let (handle, addr) = serve(1);
    let mut conn = Conn::connect(&addr).unwrap();
    // 2^22 transversals: far more work than a test should wait for, so
    // only cancellation can finish this quickly.
    let line = format!(
        r#"{{"op":"transversals","id":1,"input":{{"inline":"{}"}},"progress":true}}"#,
        jesc(&pairs_hypergraph(22))
    );
    conn.send_line(&line).unwrap();
    // Wait until the job is demonstrably inside the engine.
    loop {
        let ev = conn.next_event().unwrap().expect("server stays up");
        if ev.kind == "progress"
            && ev
                .str_field("text")
                .is_some_and(|t| t.contains("phase transversals started"))
        {
            break;
        }
        assert_ne!(ev.kind, "result", "job finished before cancel");
    }
    conn.send_line(r#"{"op":"cancel","id":2,"job":1}"#).unwrap();
    let (mut saw_ack, mut saw_result) = (false, false);
    while !(saw_ack && saw_result) {
        let ev = conn.next_event().unwrap().expect("server stays up");
        match (ev.kind.as_str(), ev.id) {
            ("cancelled", 2) => {
                assert_eq!(ev.fields.get("found").and_then(|v| v.as_bool()), Some(true));
                saw_ack = true;
            }
            ("result", 1) => {
                assert_eq!(field(&ev, "outcome"), "budget:cancelled");
                assert_eq!(ev.int_field("exit"), Some(6));
                saw_result = true;
            }
            _ => {}
        }
    }
    // A cancelled (partial) run must not poison the cache: rerunning the
    // same fingerprint computes fresh.
    let stats = conn
        .roundtrip(r#"{"op":"server-stats","id":3}"#, 3)
        .unwrap();
    assert_eq!(terminal(&stats).int_field("cache_entries"), Some(0));
    handle.shutdown();
    handle.join();
}

#[test]
fn resume_over_the_daemon_reproduces_the_from_scratch_result() {
    let dir = std::env::temp_dir().join(format!("dualminer-daemon-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("mine.ckpt");
    let ckpt = ckpt.to_str().unwrap();

    let (handle, addr) = serve(1);
    let mut conn = Conn::connect(&addr).unwrap();

    // Reference: a plain from-scratch run.
    let reference = conn.roundtrip(&mine_line(1, BASKETS, ""), 1).unwrap();
    let reference = terminal(&reference);
    assert_eq!(reference.kind, "result");

    // A budget-killed checkpointing run: exit 6, safe point on disk.
    let cut = mine_line(
        2,
        BASKETS,
        &format!(
            r#","run":{{"checkpoint":"{}","checkpoint_every":1,"max_queries":3}}"#,
            jesc(ckpt)
        ),
    );
    let cut = conn.roundtrip(&cut, 2).unwrap();
    let cut = terminal(&cut);
    assert_eq!(cut.kind, "result", "{:?}", cut.fields);
    assert_eq!(cut.int_field("exit"), Some(6));
    assert!(field(cut, "outcome").starts_with("budget:"));
    assert!(std::path::Path::new(ckpt).exists(), "safe point persisted");

    // Resume over the daemon: completes, and the body is byte-identical
    // to the undisturbed run (checkpoint accounting included).
    let resumed = mine_line(
        3,
        BASKETS,
        &format!(r#","run":{{"checkpoint":"{}","resume":true}}"#, jesc(ckpt)),
    );
    let resumed = conn.roundtrip(&resumed, 3).unwrap();
    assert!(
        resumed.iter().any(
            |e| e.kind == "note" && e.str_field("text").is_some_and(|t| t.contains("resuming"))
        ),
        "{resumed:?}"
    );
    let resumed = terminal(&resumed);
    assert_eq!(resumed.int_field("exit"), Some(0));
    assert_eq!(field(resumed, "body"), field(reference, "body"));

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn protocol_and_input_errors_carry_their_exit_codes() {
    let (handle, addr) = serve(1);
    let mut conn = Conn::connect(&addr).unwrap();

    // Garbage line: protocol error (7), id 0 (no id was parseable).
    conn.send_line("this is not json").unwrap();
    let ev = conn.next_event().unwrap().unwrap();
    assert_eq!((ev.kind.as_str(), ev.id), ("error", 0));
    assert_eq!(ev.int_field("code"), Some(7));

    // Well-formed JSON missing required fields: still 7.
    conn.send_line(r#"{"op":"mine","id":9}"#).unwrap();
    let ev = conn.next_event().unwrap().unwrap();
    assert_eq!(ev.int_field("code"), Some(7));

    // A path the server cannot read: I/O (4).
    conn.send_line(
        r#"{"op":"mine","id":10,"input":{"path":"/nonexistent/x.txt"},"min_support":"2"}"#,
    )
    .unwrap();
    let events = {
        let mut v = Vec::new();
        loop {
            let ev = conn.next_event().unwrap().unwrap();
            let done = ev.kind == "error";
            v.push(ev);
            if done {
                break;
            }
        }
        v
    };
    let ev = terminal(&events);
    assert_eq!((ev.id, ev.int_field("code")), (10, Some(4)));
    assert!(field(ev, "message").contains("cannot read"));

    // Malformed inline input: parse error (3), attributed to <inline>.
    conn.send_line(&format!(
        r#"{{"op":"keys","id":11,"input":{{"inline":"{}"}}}}"#,
        jesc("a,b\n1\n")
    ))
    .unwrap();
    let ev = loop {
        let ev = conn.next_event().unwrap().unwrap();
        if ev.kind == "error" {
            break ev;
        }
    };
    assert_eq!((ev.id, ev.int_field("code")), (11, Some(3)));
    assert!(field(&ev, "message").contains("<inline>"));

    // The connection survives every error; errors are counted.
    let stats = conn
        .roundtrip(r#"{"op":"server-stats","id":12}"#, 12)
        .unwrap();
    assert_eq!(terminal(&stats).int_field("errors"), Some(4));
    handle.shutdown();
    handle.join();
}
