//! Pinned answer bodies: `keys` (with and without FDs) on a fixed
//! 13-attribute relation, and the maximal block of a fixed
//! `maximal: true` mine, including the Corollary 4 `Verified:` query
//! count. The files under `tests/golden/` are the bodies the Berge-only
//! dualization sites printed; any engine the planner routes these sites
//! to must reproduce them byte for byte, in-process through `exec::*` and
//! over a daemon round trip.

use std::sync::atomic::{AtomicUsize, Ordering};

use dualminer_obs::{Meter, MiningObserver, StatsCollector};
use dualminer_serve::client::{Conn, Event};
use dualminer_serve::exec::{self, ExecCtx, MineOpts};
use dualminer_serve::formats;
use dualminer_serve::job::RunOpts;
use dualminer_serve::server::{start, ServeConfig};

const RELATION: &str = include_str!("golden/relation13.csv");
const KEYS: &str = include_str!("golden/keys.txt");
const KEYS_FDS: &str = include_str!("golden/keys_fds.txt");
const BASKETS: &str = include_str!("golden/baskets.txt");
const MINE_SIGMA: usize = 4;
const MINE_MAXIMAL_BLOCK: &str = include_str!("golden/mine_maximal_block.txt");

/// Counts the `agree-sets` phases a job opens: one per pairwise pass.
#[derive(Default)]
struct PassCounter(AtomicUsize);

impl MiningObserver for PassCounter {
    fn on_phase_start(&self, name: &str) {
        if name == "agree-sets" {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn with_cx<T>(observer: &dyn MiningObserver, f: impl FnOnce(&ExecCtx<'_>) -> T) -> T {
    let meter = Meter::unlimited();
    let stats = StatsCollector::new();
    let note = |_: &str| {};
    f(&ExecCtx {
        meter: &meter,
        observer,
        stats: &stats,
        note: &note,
        threads: 1,
    })
}

fn exec_keys(fds: bool) -> (String, usize) {
    let (universe, rel) = formats::parse_relation(RELATION).unwrap();
    let passes = PassCounter::default();
    let out = with_cx(&passes, |cx| {
        exec::keys(&universe, &rel, fds, &RunOpts::default(), cx).unwrap()
    });
    (out.body, passes.0.into_inner())
}

fn exec_mine_maximal() -> String {
    let (universe, db) = formats::parse_baskets(BASKETS).unwrap();
    let opts = MineOpts {
        rules: None,
        maximal: true,
    };
    let stats = StatsCollector::new();
    let (out, _) = with_cx(&stats, |cx| {
        exec::mine(&universe, &db, MINE_SIGMA, &opts, &RunOpts::default(), cx).unwrap()
    });
    out.body
}

/// The `Maximal frequent sets` … `Verified:` tail of a mine body.
fn maximal_block(body: &str) -> &str {
    let at = body
        .find("Maximal frequent sets")
        .expect("maximal block present");
    &body[at..]
}

fn jesc(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn body_of(events: &[Event]) -> String {
    let ev = events.last().expect("a terminal event");
    assert_eq!(ev.kind, "result", "{:?}", ev.fields);
    ev.str_field("body").expect("result body").to_string()
}

#[test]
fn keys_bodies_match_the_pinned_files() {
    assert_eq!(exec_keys(false).0, KEYS);
    assert_eq!(exec_keys(true).0, KEYS_FDS);
    assert!(KEYS_FDS.contains("  {c} → a\n"));
}

#[test]
fn keys_with_fds_makes_one_pairwise_pass() {
    // The FD routines take the agree-set family, not the relation, so
    // the job's only pass is the one it opens a phase for: one for the
    // keys and all 13 FD targets together.
    assert_eq!(exec_keys(true).1, 1);
    assert_eq!(exec_keys(false).1, 1);
}

#[test]
fn maximal_mine_block_matches_the_pinned_file() {
    let body = exec_mine_maximal();
    assert_eq!(maximal_block(&body), MINE_MAXIMAL_BLOCK);
    assert!(MINE_MAXIMAL_BLOCK.ends_with("Verified: true (70 oracle queries = |Bd⁺|+|Bd⁻|)\n"));
}

#[test]
fn daemon_round_trips_reproduce_the_pinned_bodies() {
    let handle = start(&ServeConfig {
        tcp: Some("127.0.0.1:0".into()),
        unix: None,
        workers: 1,
        cache_entries: 16,
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port");
    let addr = handle.tcp_addr.expect("tcp listener").to_string();
    let mut conn = Conn::connect(&addr).unwrap();
    let rel = jesc(RELATION);
    let keys = format!(r#"{{"op":"keys","id":1,"input":{{"inline":"{rel}"}}}}"#);
    assert_eq!(body_of(&conn.roundtrip(&keys, 1).unwrap()), KEYS);
    let fds = format!(r#"{{"op":"keys","id":2,"input":{{"inline":"{rel}"}},"fds":true}}"#);
    assert_eq!(body_of(&conn.roundtrip(&fds, 2).unwrap()), KEYS_FDS);
    let mine = format!(
        r#"{{"op":"mine","id":3,"input":{{"inline":"{}"}},"min_support":"{MINE_SIGMA}","maximal":true}}"#,
        jesc(BASKETS)
    );
    let body = body_of(&conn.roundtrip(&mine, 3).unwrap());
    assert_eq!(maximal_block(&body), MINE_MAXIMAL_BLOCK);
    assert_eq!(body, exec_mine_maximal());
    handle.shutdown();
    handle.join();
}
