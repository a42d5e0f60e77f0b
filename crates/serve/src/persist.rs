//! Crash-safe persistence for the result cache.
//!
//! The daemon's warm-hit win (BENCH_pr9: 171× over a cold compute) lives
//! entirely in process memory, so a restart — planned or SIGKILL — used
//! to start cold. This module snapshots the sharded LRU to disk through
//! the same atomic envelope the checkpoint crate uses for engine state
//! (tmp file + fsync + rename, FNV-checksummed payload), and restores it
//! on boot. A torn or corrupted snapshot never fails boot: the caller
//! logs a warning and cold-starts, exactly as if no snapshot existed.
//!
//! What is persisted per entry: the cache key (`params`/`content`
//! fingerprints as zero-padded hex, the form snapshots have always used,
//! kept so existing snapshot files stay byte-identical), the row count,
//! exit code, rendered body, and stats artifact. The cache holds each
//! body in wire form ([`crate::proto::wire_body`]); the snapshot holds the
//! body itself as a JSON string, whose bytes in the file are those same
//! wire bytes, so the file format is unchanged by the cache's form. A save
//! writes the cached bytes as they are and a load escapes each body once.
//! The in-memory [`MineArtifacts`](crate::cache::MineArtifacts) (mined
//! collection + database) are deliberately *not* serialized: restored
//! entries answer exact-key warm hits byte-identically but sit out the
//! incremental appended-rows probe until re-mined once. Snapshot size stays
//! proportional to rendered output, not to the mined databases.

use std::path::Path;
use std::sync::Arc;

use dualminer_obs::checkpoint::{CheckpointError, FileCheckpoint};
use dualminer_obs::Json;

use crate::cache::{Entry, ResultCache};
use crate::proto;

/// The envelope `kind` discriminator for cache snapshots.
pub const SNAPSHOT_KIND: &str = "serve-cache";

/// Snapshot payload schema version, bumped when the entry fields change.
/// Distinct from the envelope's own version: the envelope validates the
/// container, this validates the contents.
pub const SNAPSHOT_VERSION: i64 = 1;

fn hex_u64(n: u64) -> String {
    format!("{n:016x}")
}

fn parse_hex_u64(s: &str) -> Result<u64, CheckpointError> {
    u64::from_str_radix(s, 16)
        .map_err(|_| CheckpointError::Corrupt(format!("invalid fingerprint {s:?}")))
}

/// Writes a snapshot of every resident cache entry to `path`, atomically
/// replacing any previous snapshot. Returns the number of entries saved.
/// Each entry is its fields as one JSON object; the cached wire body is
/// spliced in as the `"body"` string's bytes, so no body is decoded or
/// escaped again.
pub fn save_snapshot(cache: &ResultCache, path: &Path) -> Result<u64, CheckpointError> {
    let entries = cache.export();
    let mut payload = Json::Obj(vec![
        ("snapshot_version".into(), Json::Int(SNAPSHOT_VERSION)),
        ("entries".into(), Json::Arr(Vec::new())),
    ])
    .serialize();
    // Reopen the entries array: `]}` closes it again below.
    payload.truncate(payload.len() - 2);
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            payload.push(',');
        }
        let head = Json::Obj(vec![
            ("params".into(), Json::Str(hex_u64(e.params))),
            ("content".into(), Json::Str(hex_u64(e.content))),
            ("rows".into(), Json::uint(e.rows)),
            ("exit".into(), Json::Int(i64::from(e.exit))),
        ])
        .serialize();
        payload.push_str(&head[..head.len() - 1]);
        payload.push_str(r#","body":""#);
        payload.push_str(&e.body);
        payload.push_str(r#"","stats":"#);
        payload.push_str(&Json::str(e.stats.as_ref()).serialize());
        payload.push('}');
    }
    payload.push_str("]}");
    FileCheckpoint::new(path).save_text(SNAPSHOT_KIND, &payload)?;
    Ok(entries.len() as u64)
}

/// Loads a snapshot from `path` into `cache`. Returns the number of
/// entries restored; `Ok(0)` when no snapshot file exists (a fresh
/// deployment). Any structural problem — wrong envelope kind, unknown
/// snapshot version, malformed entries — is `Corrupt`, so the caller can
/// warn and cold-start rather than trust a half-readable file.
pub fn load_snapshot(cache: &ResultCache, path: &Path) -> Result<u64, CheckpointError> {
    let Some(envelope) = FileCheckpoint::new(path).load()? else {
        return Ok(0);
    };
    if envelope.kind != SNAPSHOT_KIND {
        return Err(CheckpointError::Corrupt(format!(
            "not a cache snapshot (kind {:?})",
            envelope.kind
        )));
    }
    let version = envelope
        .payload
        .get("snapshot_version")
        .and_then(Json::as_int);
    if version != Some(SNAPSHOT_VERSION) {
        return Err(CheckpointError::Corrupt(format!(
            "unsupported snapshot version {version:?} (expected {SNAPSHOT_VERSION})"
        )));
    }
    let entries = envelope
        .payload
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or_else(|| CheckpointError::Corrupt("missing entries array".into()))?;
    let field = |e: &Json, key: &str| -> Result<String, CheckpointError> {
        e.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| CheckpointError::Corrupt(format!("entry missing {key:?}")))
    };
    let mut restored = 0u64;
    for e in entries {
        let params = parse_hex_u64(&field(e, "params")?)?;
        let content = parse_hex_u64(&field(e, "content")?)?;
        let rows = e
            .get("rows")
            .and_then(Json::as_uint)
            .ok_or_else(|| CheckpointError::Corrupt("entry missing \"rows\"".into()))?;
        let exit = e
            .get("exit")
            .and_then(Json::as_int)
            .and_then(|n| i32::try_from(n).ok())
            .ok_or_else(|| CheckpointError::Corrupt("entry missing \"exit\"".into()))?;
        cache.insert(Entry {
            params,
            content,
            rows,
            body: proto::wire_body(&field(e, "body")?).into(),
            stats: Arc::from(field(e, "stats")?.as_str()),
            exit,
            // Mined artifacts are not persisted; the restored entry
            // serves exact-key hits and is ineligible as an incremental
            // base (find_mine_base skips entries without artifacts).
            mine: None,
        });
        restored += 1;
    }
    Ok(restored)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An entry holding `body` as the cache does, in wire form.
    fn entry(params: u64, content: u64, body: &str) -> Entry {
        Entry {
            params,
            content,
            rows: 3,
            body: proto::wire_body(body).into(),
            stats: r#"{"queries":7}"#.into(),
            exit: 0,
            mine: None,
        }
    }

    /// A snapshot written by the writer as it was while the cache held raw
    /// bodies, for the entries of [`v1_entries`].
    const V1_SNAPSHOT: &str = include_str!("../tests/fixtures/cache_snapshot_v1.json");

    /// `(params, content, rows, exit, raw body, stats)`: bodies with
    /// quotes, backslashes, control bytes and multibyte characters, an
    /// empty body, and keys above `i64::MAX`.
    #[allow(clippy::type_complexity)]
    fn v1_entries() -> [(u64, u64, u64, i32, &'static str, &'static str); 3] {
        [
            (
                u64::MAX - 1,
                42,
                3,
                0,
                "Frequent sets (σ ≥ 2):\n  {a\"b, c\\d} 3\n  {e\u{1}f, ü𝄞} 2\n",
                r#"{"queries":7,"outcome":"complete"}"#,
            ),
            (7, u64::MAX, 0, 1, "not dual\twitness: {x}\r\n", "{}"),
            (7, 9, 12, 0, "", r#"{"note":"tab\there"}"#),
        ]
    }

    #[test]
    fn saves_are_byte_identical_to_the_raw_body_writer() {
        let path = tmp("v1_save");
        let cache = ResultCache::new(64);
        for (params, content, rows, exit, body, stats) in v1_entries() {
            cache.insert(Entry {
                rows,
                exit,
                stats: stats.into(),
                ..entry(params, content, body)
            });
        }
        assert_eq!(save_snapshot(&cache, &path).unwrap(), 3);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), V1_SNAPSHOT);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_raw_body_snapshot_restores_and_resaves_byte_identically() {
        let (path, resaved) = (tmp("v1_load"), tmp("v1_resave"));
        std::fs::write(&path, V1_SNAPSHOT).unwrap();
        let cache = ResultCache::new(64);
        assert_eq!(load_snapshot(&cache, &path).unwrap(), 3);
        for (params, content, rows, exit, body, stats) in v1_entries() {
            let e = cache.lookup(params, content).expect("restored entry");
            assert_eq!(e.body.as_ref(), proto::wire_body(body), "wire form");
            assert_eq!((e.rows, e.exit, e.stats.as_ref()), (rows, exit, stats));
        }
        save_snapshot(&cache, &resaved).unwrap();
        assert_eq!(std::fs::read_to_string(&resaved).unwrap(), V1_SNAPSHOT);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&resaved);
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dualminer_persist_{}_{name}", std::process::id()))
    }

    #[test]
    fn snapshot_round_trips_entries() {
        let path = tmp("roundtrip");
        let cache = ResultCache::new(64);
        // A key above i64::MAX exercises the hex encoding.
        cache.insert(entry(u64::MAX - 1, 42, "body one\n"));
        cache.insert(entry(7, u64::MAX, "body two\n"));
        assert_eq!(save_snapshot(&cache, &path).unwrap(), 2);

        let restored = ResultCache::new(64);
        assert_eq!(load_snapshot(&restored, &path).unwrap(), 2);
        let e = restored.lookup(u64::MAX - 1, 42).expect("restored entry");
        let raw = Json::parse(&format!("\"{}\"", e.body)).unwrap();
        assert_eq!(
            raw.as_str(),
            Some("body one\n"),
            "raw body in, raw body out"
        );
        assert_eq!(e.stats.as_ref(), r#"{"queries":7}"#);
        assert_eq!((e.rows, e.exit), (3, 0));
        assert!(e.mine.is_none(), "artifacts are not persisted");
        assert!(restored.lookup(7, u64::MAX).is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_snapshot_is_a_cold_start() {
        let cache = ResultCache::new(8);
        assert_eq!(load_snapshot(&cache, &tmp("nonexistent")).unwrap(), 0);
        assert_eq!(cache.counters().entries, 0);
    }

    #[test]
    fn corruption_is_detected_not_trusted() {
        let path = tmp("corrupt");
        let cache = ResultCache::new(8);
        cache.insert(entry(1, 2, "body\n"));
        save_snapshot(&cache, &path).unwrap();

        // Flip one byte inside the payload: the FNV checksum catches it.
        let mut text = std::fs::read_to_string(&path).unwrap();
        let at = text.find("body").unwrap();
        text.replace_range(at..at + 1, "x");
        std::fs::write(&path, &text).unwrap();
        let restored = ResultCache::new(8);
        assert!(matches!(
            load_snapshot(&restored, &path),
            Err(CheckpointError::Corrupt(_))
        ));
        assert_eq!(restored.counters().entries, 0);

        // Garbage that is not even JSON.
        std::fs::write(&path, "not a snapshot").unwrap();
        assert!(matches!(
            load_snapshot(&restored, &path),
            Err(CheckpointError::Corrupt(_))
        ));

        // A valid envelope of the wrong kind is rejected too.
        let other = dualminer_obs::checkpoint::encode("levelwise", &Json::Obj(vec![]));
        std::fs::write(&path, other).unwrap();
        assert!(matches!(
            load_snapshot(&restored, &path),
            Err(CheckpointError::Corrupt(_))
        ));
        let _ = std::fs::remove_file(&path);
    }
}
