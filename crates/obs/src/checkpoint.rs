//! The crash-safe checkpoint envelope: versioned, checksummed, written
//! atomically.
//!
//! A checkpoint file is one JSON object:
//!
//! ```json
//! {"format":"dualminer-checkpoint","version":1,"kind":"levelwise",
//!  "payload_len":123,"checksum":"a1b2c3d4e5f60718","payload":{...}}
//! ```
//!
//! * `format`/`version` — refuse files from other tools or future
//!   incompatible revisions instead of misreading them.
//! * `kind` — which driver's state the payload is (`"levelwise"` or
//!   `"dualize-advance"`); resuming the wrong driver is an error, not a
//!   garbled run.
//! * `payload_len`/`checksum` — length and FNV-1a 64 hash of the
//!   payload's canonical serialization. A torn or bit-flipped file fails
//!   verification and the resume aborts with [`CheckpointError::Corrupt`]
//!   rather than continuing from wrong state. (Truncation usually already
//!   fails the JSON parse; the checksum catches corruption *within* a
//!   well-formed file.)
//!
//! Writes go through [`FileCheckpoint`]: serialize to `<path>.tmp`, fsync,
//! then rename over `<path>`. On POSIX the rename is atomic, so at every
//! instant the checkpoint path holds either the previous complete
//! checkpoint or the new one — never a partial write. The driver-state
//! payloads themselves are defined in `dualminer-core::checkpoint`; this
//! module is only the envelope and the I/O discipline.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::fault::fnv1a64;
use crate::json::Json;

/// The `format` field every checkpoint carries.
pub const CHECKPOINT_FORMAT: &str = "dualminer-checkpoint";
/// The current (and only) checkpoint format version.
pub const CHECKPOINT_VERSION: i64 = 1;

/// A decoded checkpoint: which driver it belongs to plus its state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Driver discriminator (`"levelwise"` or `"dualize-advance"`).
    pub kind: String,
    /// The driver-defined state document.
    pub payload: Json,
}

/// Why a checkpoint could not be written or read back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure (open, write, fsync, rename, read).
    Io(String),
    /// The file exists but is not a valid checkpoint: malformed JSON,
    /// wrong format marker, unsupported version, or a checksum/length
    /// mismatch (torn or corrupted write).
    Corrupt(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Serializes a checkpoint envelope around `payload`.
pub fn encode(kind: &str, payload: &Json) -> String {
    encode_text(kind, &payload.to_string())
}

/// The envelope around a payload already serialized as compact JSON:
/// the bytes [`encode`] writes for the value that text is. The payload is
/// serialized once, for its checksum and its place in the file alike.
fn encode_text(kind: &str, payload: &str) -> String {
    let mut text = Json::Obj(vec![
        ("format".into(), Json::str(CHECKPOINT_FORMAT)),
        ("version".into(), Json::Int(CHECKPOINT_VERSION)),
        ("kind".into(), Json::str(kind)),
        ("payload_len".into(), Json::uint(payload.len() as u64)),
        (
            "checksum".into(),
            Json::Str(format!("{:016x}", fnv1a64(payload.as_bytes()))),
        ),
    ])
    .to_string();
    // Reopen the object: the payload is its last field.
    text.pop();
    text.push_str(",\"payload\":");
    text.push_str(payload);
    text.push('}');
    text
}

/// Parses and verifies a checkpoint envelope.
pub fn decode(text: &str) -> Result<Envelope, CheckpointError> {
    let doc =
        Json::parse(text).map_err(|e| CheckpointError::Corrupt(format!("invalid JSON: {e}")))?;
    let format = doc.get("format").and_then(Json::as_str).unwrap_or("");
    if format != CHECKPOINT_FORMAT {
        return Err(CheckpointError::Corrupt(format!(
            "not a checkpoint file (format {format:?})"
        )));
    }
    let version = doc.get("version").and_then(Json::as_int);
    if version != Some(CHECKPOINT_VERSION) {
        return Err(CheckpointError::Corrupt(format!(
            "unsupported checkpoint version {version:?} (expected {CHECKPOINT_VERSION})"
        )));
    }
    let kind = doc
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| CheckpointError::Corrupt("missing kind".into()))?
        .to_string();
    let payload = doc
        .get("payload")
        .ok_or_else(|| CheckpointError::Corrupt("missing payload".into()))?
        .clone();
    // Verify against the payload's canonical re-serialization: the writer
    // is deterministic and objects preserve key order, so an intact file
    // round-trips to byte-identical payload text.
    let body = payload.to_string();
    let expected_len = doc.get("payload_len").and_then(Json::as_uint);
    if expected_len != Some(body.len() as u64) {
        return Err(CheckpointError::Corrupt(format!(
            "payload length mismatch (header {expected_len:?}, actual {})",
            body.len()
        )));
    }
    let expected_sum = doc.get("checksum").and_then(Json::as_str).unwrap_or("");
    let actual_sum = format!("{:016x}", fnv1a64(body.as_bytes()));
    if expected_sum != actual_sum {
        return Err(CheckpointError::Corrupt(format!(
            "checksum mismatch (header {expected_sum:?}, actual {actual_sum:?})"
        )));
    }
    Ok(Envelope { kind, payload })
}

/// Where checkpoints go. One sink serves a whole run; drivers call
/// [`CheckpointSink::save`] at safe points per their cadence.
pub trait CheckpointSink: Sync {
    /// Persists one checkpoint, replacing any previous one.
    fn save(&self, kind: &str, payload: &Json) -> Result<(), CheckpointError>;
}

/// The production sink: one file, replaced atomically on every save
/// (write to `<path>.tmp`, fsync, rename over `<path>`).
#[derive(Clone, Debug)]
pub struct FileCheckpoint {
    path: PathBuf,
}

impl FileCheckpoint {
    /// A sink writing to (and loading from) `path`.
    pub fn new(path: impl Into<PathBuf>) -> FileCheckpoint {
        FileCheckpoint { path: path.into() }
    }

    /// The checkpoint path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Loads and verifies the checkpoint. `Ok(None)` when no file exists
    /// yet (a fresh run); errors when the file exists but cannot be read
    /// or fails verification.
    pub fn load(&self) -> Result<Option<Envelope>, CheckpointError> {
        let text = match std::fs::read_to_string(&self.path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(CheckpointError::Io(format!(
                    "cannot read {:?}: {e}",
                    self.path
                )))
            }
        };
        decode(&text).map(Some)
    }

    /// Persists a checkpoint whose payload is already serialized as
    /// compact JSON, replacing any previous one: [`CheckpointSink::save`]
    /// for a caller that writes the payload text itself.
    pub fn save_text(&self, kind: &str, payload: &str) -> Result<(), CheckpointError> {
        let text = encode_text(kind, payload);
        let tmp = self.path.with_extension("tmp");
        let io_err = |what: &str, e: std::io::Error| {
            CheckpointError::Io(format!("cannot {what} {:?}: {e}", tmp))
        };
        let mut file = std::fs::File::create(&tmp).map_err(|e| io_err("create", e))?;
        file.write_all(text.as_bytes())
            .map_err(|e| io_err("write", e))?;
        file.sync_all().map_err(|e| io_err("sync", e))?;
        drop(file);
        std::fs::rename(&tmp, &self.path).map_err(|e| {
            CheckpointError::Io(format!("cannot rename {:?} to {:?}: {e}", tmp, self.path))
        })?;
        Ok(())
    }
}

impl CheckpointSink for FileCheckpoint {
    fn save(&self, kind: &str, payload: &Json) -> Result<(), CheckpointError> {
        self.save_text(kind, &payload.to_string())
    }
}

/// A test sink that records **every** checkpoint ever saved (a file sink
/// keeps only the last). The resume-equivalence suite saves through one
/// of these, then replays the run from each recorded boundary.
#[derive(Debug, Default)]
pub struct MemoryCheckpoints {
    saved: Mutex<Vec<Envelope>>,
}

impl MemoryCheckpoints {
    /// An empty sink.
    pub fn new() -> MemoryCheckpoints {
        MemoryCheckpoints::default()
    }

    /// All checkpoints saved so far, in order.
    pub fn all(&self) -> Vec<Envelope> {
        self.saved
            .lock()
            .expect("checkpoint mutex poisoned")
            .clone()
    }

    /// Number of checkpoints saved.
    pub fn len(&self) -> usize {
        self.saved.lock().expect("checkpoint mutex poisoned").len()
    }

    /// Whether nothing was saved.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl CheckpointSink for MemoryCheckpoints {
    fn save(&self, kind: &str, payload: &Json) -> Result<(), CheckpointError> {
        // Round-trip through the wire format so tests exercise exactly
        // what a file would hold.
        let envelope = decode(&encode(kind, payload))?;
        self.saved
            .lock()
            .expect("checkpoint mutex poisoned")
            .push(envelope);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_payload() -> Json {
        Json::Obj(vec![
            ("level".into(), Json::Int(3)),
            (
                "theory".into(),
                Json::Arr(vec![
                    Json::Arr(vec![Json::Int(0), Json::Int(2)]),
                    Json::Arr(vec![Json::Int(1)]),
                ]),
            ),
            ("queries".into(), Json::uint(97)),
        ])
    }

    #[test]
    fn encode_decode_round_trips() {
        let payload = sample_payload();
        let text = encode("levelwise", &payload);
        let envelope = decode(&text).unwrap();
        assert_eq!(envelope.kind, "levelwise");
        assert_eq!(envelope.payload, payload);
        assert!(text.contains("\"format\":\"dualminer-checkpoint\""));
        assert!(text.contains("\"version\":1"));
    }

    #[test]
    fn decode_rejects_corruption() {
        let good = encode("levelwise", &sample_payload());

        // Truncation → JSON parse failure.
        let truncated = &good[..good.len() / 2];
        assert!(matches!(
            decode(truncated),
            Err(CheckpointError::Corrupt(_))
        ));

        // Bit flip inside the payload → checksum mismatch.
        let flipped = good.replace("\"queries\":97", "\"queries\":98");
        assert_ne!(flipped, good);
        let err = decode(&flipped).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(ref m) if m.contains("checksum")));

        // Wrong format marker and wrong version.
        let other = good.replace(CHECKPOINT_FORMAT, "someone-elses-format");
        assert!(matches!(decode(&other), Err(CheckpointError::Corrupt(_))));
        let future = good.replace("\"version\":1", "\"version\":2");
        assert!(matches!(decode(&future), Err(CheckpointError::Corrupt(_))));

        // Not JSON at all.
        assert!(matches!(decode("hello"), Err(CheckpointError::Corrupt(_))));
    }

    #[test]
    fn file_sink_saves_atomically_and_loads() {
        let dir = std::env::temp_dir().join(format!("dualminer-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let sink = FileCheckpoint::new(&path);

        assert_eq!(sink.load().unwrap(), None);

        sink.save("levelwise", &sample_payload()).unwrap();
        let loaded = sink.load().unwrap().unwrap();
        assert_eq!(loaded.kind, "levelwise");
        assert_eq!(loaded.payload, sample_payload());
        // No tmp file left behind.
        assert!(!path.with_extension("tmp").exists());

        // A second save replaces the first.
        sink.save("dualize-advance", &Json::Obj(vec![])).unwrap();
        assert_eq!(sink.load().unwrap().unwrap().kind, "dualize-advance");

        // A corrupted file is rejected on load.
        std::fs::write(&path, "garbage").unwrap();
        assert!(matches!(sink.load(), Err(CheckpointError::Corrupt(_))));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_sink_records_every_save() {
        let sink = MemoryCheckpoints::new();
        assert!(sink.is_empty());
        sink.save("levelwise", &Json::Int(1)).unwrap();
        sink.save("levelwise", &Json::Int(2)).unwrap();
        let all = sink.all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].payload, Json::Int(1));
        assert_eq!(all[1].payload, Json::Int(2));
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn error_display() {
        assert!(CheckpointError::Io("x".into()).to_string().contains("I/O"));
        assert!(CheckpointError::Corrupt("y".into())
            .to_string()
            .contains("corrupt"));
    }
}
