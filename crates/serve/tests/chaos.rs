//! Socket-level chaos harness: seeded, deterministic hostile-client
//! scenarios against a real server — partial writes, mid-frame
//! disconnects, stalled readers, garbage bytes, burst storms — plus the
//! overload-safety contracts (admission control, deadlines, input
//! limits) and crash-safe cache persistence.
//!
//! Every scenario asserts three invariants: the server never panics, the
//! worker/connection gauges return to idle afterward (no leaks), and the
//! requests that *are* answered stay bit-identical to an unloaded run.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use dualminer_serve::client::{Conn, Event};
use dualminer_serve::server::{start, ServeConfig, ServerHandle};

const BASKETS: &str = "milk bread\nbread butter\nmilk butter bread\nmilk\nbread eggs\n";

// ---------------------------------------------------------------------------
// Harness plumbing
// ---------------------------------------------------------------------------

/// Hand-rolled xorshift64* — the chaos schedule (chunk sizes, garbage
/// bytes) must be reproducible from a fixed seed, and the test crate has
/// no RNG dependency.
struct ChaosRng(u64);

impl ChaosRng {
    fn new(seed: u64) -> ChaosRng {
        ChaosRng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, span: u64) -> u64 {
        self.next() % span.max(1)
    }
}

/// A hostile client's write half: sends bytes in seeded random chunks
/// with a flush after each, so the server sees every partial-frame
/// boundary the kernel will give us.
struct ChaosStream {
    inner: TcpStream,
    rng: ChaosRng,
}

impl ChaosStream {
    fn connect(addr: &str, seed: u64) -> ChaosStream {
        let inner = TcpStream::connect(addr).expect("connect chaos stream");
        let _ = inner.set_nodelay(true);
        ChaosStream {
            inner,
            rng: ChaosRng::new(seed),
        }
    }

    /// Writes `data` in chunks of 1..=7 bytes, flushing between chunks.
    fn send_chunked(&mut self, data: &[u8]) {
        let mut at = 0;
        while at < data.len() {
            let n = (1 + self.rng.below(7) as usize).min(data.len() - at);
            self.inner.write_all(&data[at..at + n]).expect("chunk");
            self.inner.flush().expect("flush");
            at += n;
        }
    }

    /// A line of seeded garbage (no newline characters) plus terminator.
    fn send_garbage_line(&mut self, len: usize) {
        let mut line = Vec::with_capacity(len + 1);
        for _ in 0..len {
            // Printable-ish garbage with JSON punctuation mixed in.
            let b = match self.rng.below(6) {
                0 => b'{',
                1 => b'"',
                2 => b':',
                3 => b'\\',
                _ => (32 + self.rng.below(94)) as u8,
            };
            line.push(b);
        }
        line.push(b'\n');
        self.send_chunked(&line);
    }
}

fn serve(config: ServeConfig) -> (ServerHandle, String) {
    let handle = start(&ServeConfig {
        tcp: Some("127.0.0.1:0".into()),
        ..config
    })
    .expect("bind an ephemeral port");
    let addr = handle.tcp_addr.expect("tcp listener").to_string();
    (handle, addr)
}

fn jesc(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn mine_line(id: u64, input: &str, extra: &str) -> String {
    format!(
        r#"{{"op":"mine","id":{id},"input":{{"inline":"{}"}},"min_support":"2"{extra}}}"#,
        jesc(input)
    )
}

/// A hypergraph of `k` disjoint pairs; |Tr| = 2^k. Used both as a slow
/// job (large k enumerates forever) and as a huge-output job.
fn pairs_hypergraph(k: usize) -> String {
    (0..k).map(|i| format!("a{i} b{i}\n")).collect()
}

fn transversals_line(id: u64, input: &str, extra: &str) -> String {
    format!(
        r#"{{"op":"transversals","id":{id},"input":{{"inline":"{}"}}{extra}}}"#,
        jesc(input)
    )
}

fn terminal(events: &[Event]) -> &Event {
    events.last().expect("at least one event")
}

fn stat(ev: &Event, key: &str) -> i64 {
    ev.int_field(key)
        .unwrap_or_else(|| panic!("{key} missing from server-stats"))
}

fn server_stats(conn: &mut Conn, id: u64) -> Event {
    let events = conn
        .roundtrip(&format!(r#"{{"op":"server-stats","id":{id}}}"#), id)
        .expect("server-stats");
    terminal(&events).clone()
}

/// Polls server-stats until `pred` holds or ~10 s elapse. Keeps the
/// chaos suite deterministic without hard sleeps: every scenario ends by
/// waiting for the gauges to prove the server drained.
fn wait_stats(conn: &mut Conn, mut pred: impl FnMut(&Event) -> bool) -> Event {
    let mut last = server_stats(conn, 900_000);
    for i in 0..200 {
        if pred(&last) {
            return last;
        }
        std::thread::sleep(Duration::from_millis(50));
        last = server_stats(conn, 900_001 + i);
    }
    panic!("server never reached the expected state; last stats: {last:?}");
}

// ---------------------------------------------------------------------------
// Hostile-client scenarios
// ---------------------------------------------------------------------------

/// Garbage lines, byte-dribbled frames, and a mid-frame disconnect, all
/// interleaved with legitimate requests: the legit answers must be
/// bit-identical to an unloaded server's, and the gauges must return to
/// idle.
#[test]
fn chaos_partial_writes_garbage_and_disconnects_leave_answers_intact() {
    // Reference run on a quiet server.
    let (clean_handle, clean_addr) = serve(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let mut clean = Conn::connect(&clean_addr).expect("connect clean");
    let reference = clean
        .roundtrip(&mine_line(1, BASKETS, ""), 1)
        .expect("clean mine");
    let reference_body = terminal(&reference).str_field("body").unwrap().to_string();
    clean_handle.shutdown();
    drop(clean);
    clean_handle.join();

    // Chaotic server: 4 misbehaving writers + 1 honest client.
    let (handle, addr) = serve(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    for seed in 1..=4u64 {
        let mut chaos = ChaosStream::connect(&addr, seed);
        chaos.send_garbage_line(40 + (seed as usize) * 17);
        // A valid frame dribbled a few bytes at a time must still parse.
        chaos.send_chunked(mine_line(seed, BASKETS, "").as_bytes());
        // Mid-frame disconnect: a partial line with no newline, dropped.
        chaos
            .inner
            .write_all(br#"{"op":"mine","id":9,"input":{"inl"#)
            .expect("partial frame");
        drop(chaos);
    }
    let mut honest = Conn::connect(&addr).expect("connect honest");
    let events = honest
        .roundtrip(&mine_line(7, BASKETS, ""), 7)
        .expect("honest mine");
    let last = terminal(&events);
    assert_eq!(last.kind, "result");
    assert_eq!(
        last.str_field("body").unwrap(),
        reference_body,
        "chaos must not change answered bytes"
    );

    // All chaos connections closed, workers idle, nothing leaked. The
    // honest connection itself is still open (hence == 1).
    let stats = wait_stats(&mut honest, |s| {
        stat(s, "busy_workers") == 0 && stat(s, "open_conns") == 1
    });
    assert_eq!(stat(&stats, "busy_workers"), 0);
    handle.shutdown();
    drop(honest);
    handle.join();
}

/// A client that sends a huge-output job and then never reads: the write
/// deadline must disconnect it, release the worker, and count the stall.
#[test]
fn chaos_stalled_reader_is_disconnected_not_wedged() {
    let (handle, addr) = serve(ServeConfig {
        workers: 1,
        write_timeout: Some(Duration::from_millis(200)),
        ..ServeConfig::default()
    });
    // 2^17 transversals ≈ tens of MB of body: far past any kernel
    // buffering, so the server's writes must eventually block.
    let stalled = TcpStream::connect(&addr).expect("connect stalled");
    let mut w = stalled.try_clone().expect("clone");
    writeln!(w, "{}", transversals_line(1, &pairs_hypergraph(17), "")).expect("send");
    w.flush().expect("flush");
    // Never read from `stalled`. A second, honest connection watches the
    // worker come back.
    let mut watcher = Conn::connect(&addr).expect("connect watcher");
    let stats = wait_stats(&mut watcher, |s| {
        stat(s, "busy_workers") == 0 && stat(s, "write_timeouts") >= 1
    });
    assert!(stat(&stats, "write_timeouts") >= 1);
    drop(stalled);
    handle.shutdown();
    drop(watcher);
    handle.join();
}

/// A burst storm: many connections firing the same job at once. Everything
/// is answered (dedup handles the identical bursts), nothing leaks.
#[test]
fn chaos_burst_storm_drains_cleanly() {
    let (handle, addr) = serve(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let addr2 = addr.clone();
    let clients: Vec<_> = (0..8u64)
        .map(|i| {
            let addr = addr2.clone();
            std::thread::spawn(move || {
                let mut conn = Conn::connect(&addr).expect("connect storm");
                let events = conn
                    .roundtrip(&mine_line(i + 1, BASKETS, ""), i + 1)
                    .expect("storm job");
                terminal(&events).str_field("body").unwrap().to_string()
            })
        })
        .collect();
    let bodies: Vec<String> = clients.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(bodies.windows(2).all(|w| w[0] == w[1]), "divergent answers");

    let mut conn = Conn::connect(&addr).expect("connect");
    let stats = wait_stats(&mut conn, |s| {
        stat(s, "busy_workers") == 0 && stat(s, "open_conns") == 1
    });
    // The whole storm hit one fingerprint: exactly one computation.
    assert_eq!(stat(&stats, "computations"), 1);
    handle.shutdown();
    drop(conn);
    handle.join();
}

// ---------------------------------------------------------------------------
// Admission control and deadlines
// ---------------------------------------------------------------------------

/// With one worker pinned and the queue full, further jobs shed with a
/// typed `overloaded` error and a retry hint — deterministically, one
/// shed per excess job.
#[test]
fn overload_sheds_deterministically_with_retry_hint() {
    let (handle, addr) = serve(ServeConfig {
        workers: 1,
        max_queue: 1,
        ..ServeConfig::default()
    });
    // Pin the worker: an effectively-endless enumeration (2^20 minimal
    // transversals), cancelled at the end of the test.
    let slow = pairs_hypergraph(20);
    let mut pinner = Conn::connect(&addr).expect("connect pinner");
    pinner
        .send_line(&transversals_line(1, &slow, ""))
        .expect("send slow 1");
    let mut watcher = Conn::connect(&addr).expect("connect watcher");
    wait_stats(&mut watcher, |s| stat(s, "busy_workers") == 1);
    // Fill the queue (len 1 == max_queue).
    pinner
        .send_line(&transversals_line(2, &slow, ""))
        .expect("send slow 2");
    wait_stats(&mut watcher, |s| stat(s, "jobs") == 2);

    // Every further job is shed, in under the acceptance bound.
    let mut requester = Conn::connect(&addr).expect("connect requester");
    for id in 10..13u64 {
        let t0 = std::time::Instant::now();
        let events = requester
            .roundtrip(&mine_line(id, BASKETS, ""), id)
            .expect("shed roundtrip");
        let shed_in = t0.elapsed();
        let last = terminal(&events);
        assert_eq!(last.kind, "error");
        assert_eq!(last.int_field("code"), Some(7));
        assert_eq!(last.str_field("kind"), Some("overloaded"));
        let hint = last.int_field("retry_after_ms").expect("retry hint");
        assert!(hint >= 25, "hint {hint} below floor");
        assert!(
            shed_in < Duration::from_millis(500),
            "shed took {shed_in:?}"
        );
    }
    let stats = server_stats(&mut watcher, 500);
    assert_eq!(
        stat(&stats, "shed_queue_full"),
        3,
        "one shed per excess job"
    );
    // Shed jobs are not admitted: still only the two slow ones.
    assert_eq!(stat(&stats, "jobs"), 2);

    // Cancel the pinned jobs so shutdown drains promptly.
    for job in [1u64, 2] {
        pinner
            .roundtrip(
                &format!(r#"{{"op":"cancel","id":{},"job":{job}}}"#, 90 + job),
                90 + job,
            )
            .expect("cancel");
    }
    handle.shutdown();
    drop((pinner, watcher, requester));
    handle.join();
}

/// The per-connection in-flight bound sheds the excess job on that
/// connection while other connections stay unaffected.
#[test]
fn per_connection_inflight_limit_sheds_typed() {
    let (handle, addr) = serve(ServeConfig {
        workers: 1,
        max_inflight_per_conn: 1,
        ..ServeConfig::default()
    });
    let slow = pairs_hypergraph(20);
    let mut conn = Conn::connect(&addr).expect("connect");
    conn.send_line(&transversals_line(1, &slow, ""))
        .expect("send slow");
    // The reader thread registers jobs in order, so by the time it reads
    // this second line, job 1 is in flight: deterministic shed.
    let events = conn
        .roundtrip(&mine_line(2, BASKETS, ""), 2)
        .expect("second job");
    let last = terminal(&events);
    assert_eq!(last.kind, "error");
    assert_eq!(last.str_field("kind"), Some("overloaded"));
    assert!(last.int_field("retry_after_ms").is_some());

    // Another connection is not affected by this connection's limit.
    let mut other = Conn::connect(&addr).expect("connect other");
    let stats = server_stats(&mut other, 50);
    assert_eq!(stat(&stats, "shed_conn_limit"), 1);

    conn.roundtrip(r#"{"op":"cancel","id":9,"job":1}"#, 9)
        .expect("cancel");
    handle.shutdown();
    drop((conn, other));
    handle.join();
}

/// `--default-timeout` gives a deadline to jobs that request none; the
/// deadline runs from admission, and an aged-out job returns the typed
/// partial-result contract (exit 6, `budget:deadline`) instead of
/// running.
#[test]
fn server_deadline_clamps_unbudgeted_jobs() {
    let (handle, addr) = serve(ServeConfig {
        workers: 1,
        // So short every job has aged out by the time a worker picks it
        // up: the shed-before-compute path, deterministically.
        default_timeout: Some(Duration::from_nanos(1)),
        ..ServeConfig::default()
    });
    let mut conn = Conn::connect(&addr).expect("connect");
    let events = conn
        .roundtrip(&transversals_line(1, &pairs_hypergraph(12), ""), 1)
        .expect("clamped job");
    let last = terminal(&events);
    assert_eq!(last.kind, "result");
    assert_eq!(last.int_field("exit"), Some(6));
    assert_eq!(last.str_field("outcome"), Some("budget:deadline"));
    assert!(last
        .str_field("body")
        .unwrap()
        .contains("budget exceeded (deadline)"));
    let stats = server_stats(&mut conn, 2);
    assert_eq!(stat(&stats, "deadline_clamped"), 1);
    assert_eq!(stat(&stats, "shed_deadline"), 1);
    handle.shutdown();
    drop(conn);
    handle.join();
}

/// `--max-timeout` caps a requested timeout the same way.
#[test]
fn server_max_timeout_caps_requested_budgets() {
    let (handle, addr) = serve(ServeConfig {
        workers: 1,
        max_timeout: Some(Duration::from_nanos(1)),
        ..ServeConfig::default()
    });
    let mut conn = Conn::connect(&addr).expect("connect");
    let events = conn
        .roundtrip(
            &transversals_line(1, &pairs_hypergraph(12), r#","run":{"timeout":"5m"}"#),
            1,
        )
        .expect("capped job");
    let last = terminal(&events);
    assert_eq!(last.int_field("exit"), Some(6));
    assert_eq!(last.str_field("outcome"), Some("budget:deadline"));
    let stats = server_stats(&mut conn, 2);
    assert_eq!(stat(&stats, "deadline_clamped"), 1);
    handle.shutdown();
    drop(conn);
    handle.join();
}

// ---------------------------------------------------------------------------
// Input hardening
// ---------------------------------------------------------------------------

/// Row/item bounds reject with a typed `too_large` error before any
/// parsing; within-bounds inputs still succeed on the same server.
#[test]
fn input_size_limits_reject_typed() {
    let (handle, addr) = serve(ServeConfig {
        workers: 1,
        max_rows: 4,
        max_items: 10,
        ..ServeConfig::default()
    });
    let mut conn = Conn::connect(&addr).expect("connect");
    // 5 rows > 4.
    let events = conn
        .roundtrip(&mine_line(1, BASKETS, ""), 1)
        .expect("too many rows");
    let last = terminal(&events);
    assert_eq!(last.kind, "error");
    assert_eq!(last.int_field("code"), Some(3));
    assert_eq!(last.str_field("kind"), Some("too_large"));
    assert!(last.str_field("message").unwrap().contains("max-rows"));
    // A within-bounds input on the same connection still works.
    let events = conn
        .roundtrip(&mine_line(2, "a b\na b\n", ""), 2)
        .expect("small job");
    assert_eq!(terminal(&events).kind, "result");
    let stats = server_stats(&mut conn, 3);
    assert_eq!(stat(&stats, "too_large"), 1);
    handle.shutdown();
    drop(conn);
    handle.join();
}

/// `--max-rows N` counts data rows: a `keys` relation's CSV header is not
/// one, so exactly N rows under it are served and N + 1 are rejected.
#[test]
fn max_rows_does_not_count_a_csv_header() {
    let (handle, addr) = serve(ServeConfig {
        workers: 1,
        max_rows: 3,
        ..ServeConfig::default()
    });
    let keys_line = |id: u64, rows: &str| {
        format!(
            r#"{{"op":"keys","id":{id},"input":{{"inline":"{}"}}}}"#,
            jesc(&format!("A,B,C\n{rows}"))
        )
    };
    let mut conn = Conn::connect(&addr).expect("connect");
    let events = conn
        .roundtrip(&keys_line(1, "1,2,3\n1,5,6\n4,2,6\n"), 1)
        .expect("three data rows");
    assert_eq!(terminal(&events).kind, "result");
    let events = conn
        .roundtrip(&keys_line(2, "1,2,3\n1,5,6\n4,2,6\n4,5,3\n"), 2)
        .expect("four data rows");
    let last = terminal(&events);
    assert_eq!(last.str_field("kind"), Some("too_large"));
    assert!(last.str_field("message").unwrap().contains("max-rows"));
    handle.shutdown();
    drop(conn);
    handle.join();
}

/// An oversized frame gets a typed `too_large` error and the connection
/// is closed (the stream cannot be resynchronized mid-frame).
#[test]
fn oversized_frames_are_rejected_and_disconnected() {
    let (handle, addr) = serve(ServeConfig {
        workers: 1,
        max_frame_bytes: 256,
        ..ServeConfig::default()
    });
    let mut conn = Conn::connect(&addr).expect("connect");
    let huge = mine_line(1, &"x y\n".repeat(200), "");
    assert!(huge.len() > 256);
    conn.send_line(&huge).expect("send oversized");
    let event = conn
        .next_event()
        .expect("read rejection")
        .expect("rejection event");
    assert_eq!(event.kind, "error");
    assert_eq!(event.int_field("code"), Some(3));
    assert_eq!(event.str_field("kind"), Some("too_large"));
    // Server closes the connection afterward.
    assert!(conn.next_event().expect("eof").is_none());
    // The server itself is fine.
    let mut other = Conn::connect(&addr).expect("connect other");
    let events = other
        .roundtrip(&mine_line(5, "a b\na b\n", ""), 5)
        .expect("normal job");
    assert_eq!(terminal(&events).kind, "result");
    handle.shutdown();
    drop(other);
    handle.join();
}

// ---------------------------------------------------------------------------
// Crash-safe cache persistence
// ---------------------------------------------------------------------------

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dualminer_chaos_{}_{name}", std::process::id()))
}

/// Shutdown snapshot + boot restore: a second server instance answers a
/// previously-cached mine as a warm hit with zero computations. A
/// corrupted snapshot cold-starts with an error counted, not a failed
/// boot.
#[test]
fn cache_persistence_survives_restart_and_detects_corruption() {
    let snap = tmp("restart");
    let _ = std::fs::remove_file(&snap);
    let persist = Some(snap.to_string_lossy().into_owned());

    // First life: compute once, snapshot on shutdown.
    let (handle, addr) = serve(ServeConfig {
        workers: 1,
        cache_persist: persist.clone(),
        ..ServeConfig::default()
    });
    let mut conn = Conn::connect(&addr).expect("connect");
    let events = conn.roundtrip(&mine_line(1, BASKETS, ""), 1).expect("mine");
    let body = terminal(&events).str_field("body").unwrap().to_string();
    handle.shutdown();
    drop(conn);
    handle.join();
    assert!(snap.exists(), "shutdown must write the snapshot");

    // Second life: the hit must come from the restored cache.
    let (handle, addr) = serve(ServeConfig {
        workers: 1,
        cache_persist: persist.clone(),
        ..ServeConfig::default()
    });
    let mut conn = Conn::connect(&addr).expect("connect");
    let stats = server_stats(&mut conn, 40);
    assert!(stat(&stats, "persist_restored") >= 1, "nothing restored");
    let events = conn
        .roundtrip(&mine_line(2, BASKETS, ""), 2)
        .expect("warm mine");
    let last = terminal(&events);
    assert_eq!(last.str_field("cache"), Some("hit"));
    assert_eq!(last.str_field("body"), Some(body.as_str()));
    let stats = server_stats(&mut conn, 41);
    assert_eq!(stat(&stats, "computations"), 0, "warm hit must not compute");
    assert_eq!(stat(&stats, "cache_hits"), 1);
    handle.shutdown();
    drop(conn);
    handle.join();

    // Corrupt the snapshot: boot cold with the error counted, and the
    // job computes fresh — byte-identically.
    std::fs::write(&snap, "definitely not a checkpoint").expect("corrupt");
    let (handle, addr) = serve(ServeConfig {
        workers: 1,
        cache_persist: persist,
        ..ServeConfig::default()
    });
    let mut conn = Conn::connect(&addr).expect("connect");
    let stats = server_stats(&mut conn, 60);
    assert_eq!(stat(&stats, "persist_restored"), 0);
    assert!(stat(&stats, "persist_errors") >= 1);
    let events = conn
        .roundtrip(&mine_line(3, BASKETS, ""), 3)
        .expect("cold mine");
    let last = terminal(&events);
    assert_eq!(last.str_field("cache"), Some("miss"));
    assert_eq!(last.str_field("body"), Some(body.as_str()));
    handle.shutdown();
    drop(conn);
    handle.join();
    let _ = std::fs::remove_file(&snap);
}

/// `--cache-snapshot-every 1` snapshots after each computation, so even
/// without a clean shutdown (simulating SIGKILL) the warm cache
/// survives.
#[test]
fn periodic_snapshots_survive_unclean_death() {
    let snap = tmp("periodic");
    let _ = std::fs::remove_file(&snap);
    let persist = Some(snap.to_string_lossy().into_owned());

    let (handle, addr) = serve(ServeConfig {
        workers: 1,
        cache_persist: persist.clone(),
        cache_snapshot_every: 1,
        ..ServeConfig::default()
    });
    let mut conn = Conn::connect(&addr).expect("connect");
    conn.roundtrip(&mine_line(1, BASKETS, ""), 1).expect("mine");
    let stats = server_stats(&mut conn, 2);
    assert!(
        stat(&stats, "persist_saves") >= 1,
        "periodic snapshot missing"
    );
    assert!(snap.exists());
    // Simulate SIGKILL: abandon the server without shutdown/join. The
    // snapshot already on disk must be complete and loadable.
    drop(conn);
    std::mem::forget(handle);

    let (handle2, addr2) = serve(ServeConfig {
        workers: 1,
        cache_persist: persist,
        ..ServeConfig::default()
    });
    let mut conn = Conn::connect(&addr2).expect("connect restarted");
    let events = conn
        .roundtrip(&mine_line(2, BASKETS, ""), 2)
        .expect("warm mine");
    assert_eq!(terminal(&events).str_field("cache"), Some("hit"));
    handle2.shutdown();
    drop(conn);
    handle2.join();
    let _ = std::fs::remove_file(&snap);
}
