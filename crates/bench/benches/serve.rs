//! Daemon benchmarks (DESIGN.md §15): request round-trip latency against
//! a live in-process `dualminer serve` — cold compute vs warm cache hit
//! on a deep-lattice mine, incremental re-mining over appended rows vs
//! from-scratch, and batch completion time at 1/4/16 concurrent clients.
//! The `frame` group times the result-frame codec alone on that mine's
//! ~1 MB body: `encode` is `proto::ev_result` (escaping the body into a
//! fresh frame), `hit` what the daemon does for a cached body (the
//! frame's head and tail around the stored wire form, written with one
//! vectored write), `decode` the client's `Json::parse`.
//!
//! Every measurement is a full protocol round trip (request line out,
//! event stream back to the terminal `result`), so the numbers include
//! the canonicalize-and-fingerprint pass over the input file and the
//! localhost TCP transport — exactly what a client observes. On a
//! single-core box the 4/16-client rows measure dispatch and coalescing
//! overhead, not parallel speedup; see DESIGN.md §15.

use std::fs;
use std::path::PathBuf;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dualminer_mining::gen::{quest, QuestParams};
use dualminer_obs::Json;
use dualminer_serve::client::{Conn, Event};
use dualminer_serve::proto::{ev_result, result_frame, wire_body, write_line, CacheTag};
use dualminer_serve::server::{start, ServeConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Starts an in-process daemon on an ephemeral localhost port with a
/// cache deep enough that no benchmark loop triggers eviction.
fn serve(workers: usize) -> (ServerHandle, String) {
    serve_cfg(ServeConfig {
        workers,
        ..ServeConfig::default()
    })
}

/// Starts a daemon with full control over the overload knobs.
fn serve_cfg(config: ServeConfig) -> (ServerHandle, String) {
    let handle = start(&ServeConfig {
        tcp: Some("127.0.0.1:0".into()),
        cache_entries: 8192,
        ..config
    })
    .expect("bind an ephemeral port");
    let addr = handle.tcp_addr.expect("tcp listener").to_string();
    (handle, addr)
}

/// A scratch directory for the generated basket files.
fn bench_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dualminer_serve_bench_{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create bench scratch dir");
    dir
}

/// Renders a seeded Quest workload as basket text (`it<N>` item names,
/// one transaction per line).
fn quest_text(items: usize, rows: usize, avg_size: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = quest(
        &QuestParams {
            n_items: items,
            n_transactions: rows,
            avg_transaction_size: avg_size,
            avg_pattern_size: 4,
            n_patterns: 12,
            corruption: 0.3,
        },
        &mut rng,
    );
    let mut text = String::new();
    for row in db.rows() {
        let mut first = true;
        for i in row.iter() {
            if !first {
                text.push(' ');
            }
            text.push_str("it");
            text.push_str(&i.to_string());
            first = false;
        }
        if first {
            text.push_str("it0");
        }
        text.push('\n');
    }
    text
}

/// A mine request line over a basket file path. `maximal` additionally
/// runs the borders + Corollary 4 verification — real work a warm hit
/// legitimately skips, but a fixed cost that would mask the incremental
/// route's advantage in the append arms.
fn mine_line(id: u64, path: &str, sigma: usize, maximal: bool, cache: &str) -> String {
    format!(
        r#"{{"op":"mine","id":{id},"input":{{"path":"{path}"}},"min_support":"{sigma}","maximal":{maximal},"cache":"{cache}"}}"#
    )
}

/// Asserts the round trip ended in a successful `result` carrying the
/// expected cache tag, keeping every timed iteration honest.
fn expect_result(events: &[Event], tag: &str) {
    let last = events.last().expect("terminal event");
    assert_eq!(last.kind, "result", "terminal event kind");
    assert_eq!(last.int_field("exit"), Some(0), "job exit code");
    assert_eq!(last.str_field("cache"), Some(tag), "cache tag");
}

/// One row of basket text whose item subset encodes `n` in binary —
/// distinct content (hence a distinct fingerprint) for every `n`, using
/// only items the base database already has.
fn unique_row(n: u64) -> String {
    let mut row = String::new();
    for bit in 0..24 {
        if (n + 1) & (1 << bit) != 0 {
            if !row.is_empty() {
                row.push(' ');
            }
            row.push_str("it");
            row.push_str(&bit.to_string());
        }
    }
    row.push('\n');
    row
}

/// Cold compute vs warm cache hit on a deep-lattice mine: the cold arm
/// bypasses the cache and runs the engine every iteration; the warm arm
/// repeats a cached request, so each round trip is input fingerprinting
/// plus an O(1) lookup.
fn bench_cold_vs_warm(c: &mut Criterion) {
    let dir = bench_dir();
    let path_buf = dir.join("deep.txt");
    fs::write(&path_buf, quest_text(26, 400, 13, 21)).expect("write deep baskets");
    let path = path_buf.to_str().expect("utf-8 temp path");
    let sigma = 40;

    let (handle, addr) = serve(1);
    let mut conn = Conn::connect(&addr).expect("connect");
    let warmup = conn
        .roundtrip(&mine_line(1, path, sigma, true, "normal"), 1)
        .expect("prewarm roundtrip");
    expect_result(&warmup, "miss");

    let mut group = c.benchmark_group("serve");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    group.bench_function("mine_cold", |b| {
        b.iter(|| {
            let events = conn
                .roundtrip(&mine_line(2, path, sigma, true, "bypass"), 2)
                .expect("cold roundtrip");
            expect_result(&events, "miss");
        })
    });
    group.bench_function("mine_warm_hit", |b| {
        b.iter(|| {
            let events = conn
                .roundtrip(&mine_line(3, path, sigma, true, "normal"), 3)
                .expect("warm roundtrip");
            expect_result(&events, "hit");
        })
    });
    group.finish();

    drop(conn);
    handle.shutdown();
    handle.join();
}

/// The result-frame codec on a warm hit's body: the deep-lattice database
/// of [`bench_cold_vs_warm`] mined at σ = 72 (a ~1.1 MB body, the size
/// the daemon benchmark's warm hits serve), fetched once from a live
/// daemon, then encoded with `proto::ev_result` as a hit frame and decoded
/// with `Json::parse` — the two string passes a frame encoded from the raw
/// body pays — and assembled from the cached wire form as a hit is, into
/// a buffer standing in for the socket.
fn bench_frame_codec(c: &mut Criterion) {
    let dir = bench_dir();
    let path_buf = dir.join("deep_frame.txt");
    fs::write(&path_buf, quest_text(26, 400, 13, 21)).expect("write deep baskets");
    let path = path_buf.to_str().expect("utf-8 temp path");

    let (handle, addr) = serve(1);
    let mut conn = Conn::connect(&addr).expect("connect");
    let events = conn
        .roundtrip(&mine_line(1, path, 72, false, "bypass"), 1)
        .expect("mine roundtrip");
    expect_result(&events, "miss");
    drop(conn);
    handle.shutdown();
    handle.join();

    let result = events.last().expect("terminal event");
    let field = |key: &str| result.str_field(key).expect("result field").to_string();
    let (fingerprint, body, stats) = (field("fingerprint"), field("body"), field("stats"));
    let frame = ev_result(3, CacheTag::Hit, None, 0, &fingerprint, &body, &stats);
    assert_eq!(
        Json::parse(&frame)
            .expect("frame parses")
            .get("body")
            .and_then(Json::as_str),
        Some(&*body),
        "the frame round-trips its body"
    );

    let mut group = c.benchmark_group("frame");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    group.bench_function("encode", |b| {
        b.iter(|| ev_result(3, CacheTag::Hit, None, 0, &fingerprint, &body, &stats))
    });
    let wire = wire_body(&body);
    let mut sent: Vec<u8> = Vec::with_capacity(frame.len() + 1);
    let send_hit = |sent: &mut Vec<u8>| {
        sent.clear();
        let (head, tail) = result_frame(3, CacheTag::Hit, None, 0, &fingerprint, &stats);
        write_line(sent, &[head.as_bytes(), wire.as_bytes(), tail.as_bytes()])
            .expect("a Vec takes every byte");
    };
    send_hit(&mut sent);
    assert_eq!(
        sent,
        format!("{frame}\n").into_bytes(),
        "the hit frame is the encoded frame"
    );
    group.bench_function("hit", |b| b.iter(|| send_hit(&mut sent)));
    group.bench_function("decode", |b| {
        b.iter(|| Json::parse(&frame).expect("frame parses"))
    });
    group.finish();
}

/// Appended-rows re-mining: both arms mine `base + one fresh row`, the
/// from-scratch arm with the cache bypassed, the incremental arm routed
/// through the cached base via the FUP-style update. Every iteration
/// appends a row no prior iteration used, so the incremental arm never
/// degenerates into exact-key hits.
fn bench_incremental_append(c: &mut Criterion) {
    let dir = bench_dir();
    let base_buf = dir.join("base.txt");
    // One full-vocabulary row at the end: the incremental route requires
    // the appended rows to introduce no new items, and a seeded Quest
    // draw is not guaranteed to use every item in `unique_row`'s range.
    let all_items: Vec<String> = (0..26).map(|i| format!("it{i}")).collect();
    let base_text = format!("{}{}\n", quest_text(26, 20000, 12, 22), all_items.join(" "));
    fs::write(&base_buf, &base_text).expect("write base baskets");
    let base_path = base_buf.to_str().expect("utf-8 temp path");
    let sigma = 1200;

    let (handle, addr) = serve(1);
    let mut conn = Conn::connect(&addr).expect("connect");
    let warmup = conn
        .roundtrip(&mine_line(10, base_path, sigma, false, "normal"), 10)
        .expect("cache the base");
    expect_result(&warmup, "miss");

    let appended_buf = dir.join("appended.txt");
    let appended_path = appended_buf.to_str().expect("utf-8 temp path");

    let mut group = c.benchmark_group("serve");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    let mut n = 0u64;
    group.bench_function("append_from_scratch", |b| {
        b.iter(|| {
            fs::write(&appended_buf, format!("{base_text}{}", unique_row(n))).expect("append");
            n += 1;
            let events = conn
                .roundtrip(&mine_line(11, appended_path, sigma, false, "bypass"), 11)
                .expect("from-scratch roundtrip");
            expect_result(&events, "miss");
        })
    });
    group.bench_function("append_incremental", |b| {
        b.iter(|| {
            fs::write(&appended_buf, format!("{base_text}{}", unique_row(n))).expect("append");
            n += 1;
            let events = conn
                .roundtrip(&mine_line(12, appended_path, sigma, false, "normal"), 12)
                .expect("incremental roundtrip");
            expect_result(&events, "incremental");
        })
    });
    group.finish();

    drop(conn);
    handle.shutdown();
    handle.join();
}

/// Batch completion time with 1, 4, and 16 concurrent clients, each
/// holding its own connection and running a cache-bypassed mine — so
/// every request in the batch is real engine work and the row measures
/// how the daemon's accept/dispatch/worker pipeline scales with fan-in.
fn bench_concurrent_clients(c: &mut Criterion) {
    let dir = bench_dir();
    let path_buf = dir.join("small.txt");
    fs::write(&path_buf, quest_text(20, 500, 6, 23)).expect("write small baskets");
    let path = path_buf.to_str().expect("utf-8 temp path");
    let sigma = 50;

    let (handle, addr) = serve(16);
    let mut group = c.benchmark_group("serve");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    for clients in [1usize, 4, 16] {
        let mut conns: Vec<Conn> = (0..clients)
            .map(|_| Conn::connect(&addr).expect("connect"))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("clients_bypass_mine", clients),
            &clients,
            |b, _| {
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for (k, conn) in conns.iter_mut().enumerate() {
                            let id = 100 + k as u64;
                            let line = mine_line(id, path, sigma, false, "bypass");
                            scope.spawn(move || {
                                let events =
                                    conn.roundtrip(&line, id).expect("concurrent roundtrip");
                                expect_result(&events, "miss");
                            });
                        }
                    })
                })
            },
        );
    }
    group.finish();

    handle.shutdown();
    handle.join();
}

/// Overload-path latencies (DESIGN.md §16): how fast a saturated daemon
/// says *no*, and what the admission-control checks cost a request that
/// passes them all.
///
/// `shed_reply` pins the single worker and fills the one-slot queue with
/// jobs whose clients never read (the write deadline is set long enough
/// to outlast the measurement), then times a full round trip that ends
/// in the typed `overloaded` error — the acceptance bound is well under
/// 10 ms, since shedding touches no engine and no queue mutation.
/// `warm_hit_all_limits` repeats a cached mine on a server with every
/// limit configured but none triggering, so the delta against the plain
/// `serve/mine_warm_hit` row is the per-request admission overhead.
fn bench_overload(c: &mut Criterion) {
    let dir = bench_dir();

    // --- shed_reply ------------------------------------------------------
    let (handle, addr) = serve_cfg(ServeConfig {
        workers: 1,
        max_queue: 1,
        // Long enough that the stalled pin jobs below outlast the
        // measurement window instead of being disconnected mid-bench.
        write_timeout: Some(std::time::Duration::from_secs(600)),
        ..ServeConfig::default()
    });
    // Two connections each send a huge-output job and never read: the
    // first wedges the worker on a blocked write, the second occupies
    // the queue slot. Deterministic saturation with no compute racing.
    let pin_input: String = (0..17).map(|i| format!("a{i} b{i}\\n")).collect();
    let pin_line = |id: u64| {
        format!(r#"{{"op":"transversals","id":{id},"input":{{"inline":"{pin_input}"}}}}"#)
    };
    let send_pin = |id: u64| {
        use std::io::Write as _;
        let mut s = std::net::TcpStream::connect(&addr).expect("connect pin");
        writeln!(s, "{}", pin_line(id)).expect("send pin job");
        s.flush().expect("flush pin job");
        s
    };
    let small_buf = dir.join("shed.txt");
    fs::write(&small_buf, quest_text(20, 500, 6, 24)).expect("write shed baskets");
    let small = small_buf.to_str().expect("utf-8 temp path");
    let mut conn = Conn::connect(&addr).expect("connect");
    let mut wait_stats = |probe_base: u64, pred: &dyn Fn(&Event) -> bool| {
        for probe in 0..200u64 {
            let id = probe_base + probe;
            let events = conn
                .roundtrip(&format!(r#"{{"op":"server-stats","id":{id}}}"#), id)
                .expect("stats probe");
            if pred(events.last().expect("stats event")) {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        panic!("server never saturated for the shed benchmark");
    };
    // Sequence the pins so the second cannot race the worker's pop of
    // the first (which would shed it and leave the queue slot empty).
    let pin1 = send_pin(1);
    wait_stats(900, &|s| s.int_field("busy_workers") == Some(1));
    let pin2 = send_pin(2);
    wait_stats(1900, &|s| s.int_field("jobs") == Some(2));

    let mut group = c.benchmark_group("serve_overload");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    group.bench_function("shed_reply", |b| {
        b.iter(|| {
            let events = conn
                .roundtrip(&mine_line(50, small, 50, false, "normal"), 50)
                .expect("shed roundtrip");
            let last = events.last().expect("terminal event");
            assert_eq!(last.kind, "error", "saturated server must shed");
            assert_eq!(last.str_field("kind"), Some("overloaded"));
        })
    });
    group.finish();
    drop(conn);
    drop((pin1, pin2));
    handle.shutdown();
    handle.join();

    // --- warm_hit_all_limits --------------------------------------------
    let snap = dir.join("bench_cache.snap");
    let (handle, addr) = serve_cfg(ServeConfig {
        workers: 1,
        max_queue: 1024,
        max_inflight_per_conn: 64,
        max_frame_bytes: 8 * 1024 * 1024,
        max_rows: 1_000_000,
        max_items: 1_000_000,
        default_timeout: Some(std::time::Duration::from_secs(600)),
        max_timeout: Some(std::time::Duration::from_secs(3600)),
        cache_persist: Some(snap.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    });
    let deep_buf = dir.join("deep_limits.txt");
    fs::write(&deep_buf, quest_text(26, 400, 13, 21)).expect("write deep baskets");
    let deep = deep_buf.to_str().expect("utf-8 temp path");
    let mut conn = Conn::connect(&addr).expect("connect");
    let warmup = conn
        .roundtrip(&mine_line(60, deep, 40, true, "normal"), 60)
        .expect("prewarm roundtrip");
    expect_result(&warmup, "miss");

    let mut group = c.benchmark_group("serve_overload");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    group.bench_function("warm_hit_all_limits", |b| {
        b.iter(|| {
            let events = conn
                .roundtrip(&mine_line(61, deep, 40, true, "normal"), 61)
                .expect("warm roundtrip");
            expect_result(&events, "hit");
        })
    });
    group.finish();
    drop(conn);
    handle.shutdown();
    handle.join();
    let _ = fs::remove_file(&snap);
}

criterion_group!(
    benches,
    bench_cold_vs_warm,
    bench_frame_codec,
    bench_incremental_append,
    bench_concurrent_clients,
    bench_overload
);
criterion_main!(benches);
