//! Driver checkpoint states: what levelwise and Dualize-and-Advance
//! persist at safe points, how a resumed run picks it back up, and the
//! one checkpoint policy both drivers follow.
//!
//! The envelope (versioning, checksums, atomic file replacement) lives in
//! `dualminer-obs::checkpoint`; this module defines the two payloads and
//! the [`FaultCtl`] bundle the full drivers
//! ([`crate::levelwise::levelwise_ctl`],
//! [`crate::dualize_advance::dualize_advance_ctl`]) take.
//!
//! **Safe points.** State is only ever captured where the driver's
//! in-memory invariants close:
//!
//! * levelwise — at *level boundaries*. The candidate frontier is not
//!   serialized: it is exactly the theory members of the last completed
//!   cardinality, recoverable from `theory` + `candidates_per_level`.
//! * Dualize-and-Advance — after each transversal verified uninteresting
//!   (the `round_certificate` cursor advances) and at iteration
//!   boundaries (`round_certificate` resets after a new maximal set is
//!   installed). The greedy extension (step 9) is atomic: a fault inside
//!   it rolls back to the last safe point and the resumed run re-issues
//!   the counterexample's query and the extension from scratch.
//!
//! **The policy.** One crate-private type, `Checkpointer`, decides for
//! both drivers: a safe point saves when `every` queries have passed
//! since the last save; a failed save aborts the run; an oracle abort
//! saves the last safe point's state as a best effort and hands it back
//! in [`Aborted::resume`]; a resume from a different universe size is
//! refused. A driver only says where its safe points are and how to
//! build its [`ResumeState`] there, which it does only when a save is due
//! or the run aborts.
//!
//! Because every safe point is also a point the *from-scratch* run passes
//! through with exactly the same `(collections, queries)` pair, a resumed
//! run replays the remaining suffix verbatim: `Th`/`MTh`/`Bd⁻`,
//! `candidates_per_level` and the Theorem-10/21 query totals come out
//! bit-identical to an uninterrupted run.

use dualminer_bitset::AttrSet;
use dualminer_obs::checkpoint::{CheckpointError, CheckpointSink, Envelope};
use dualminer_obs::{FaultPlan, Json, OracleError, RetryPolicy, RunCtl, RunError};

/// Envelope `kind` for levelwise checkpoints.
pub const LEVELWISE_KIND: &str = "levelwise";
/// Envelope `kind` for Dualize-and-Advance checkpoints.
pub const DUALIZE_ADVANCE_KIND: &str = "dualize-advance";

fn set_to_json(s: &AttrSet) -> Json {
    Json::Arr(s.iter().map(|i| Json::uint(i as u64)).collect())
}

fn set_from_json(v: &Json, n: usize) -> Result<AttrSet, CheckpointError> {
    let items = v
        .as_arr()
        .ok_or_else(|| CheckpointError::Corrupt("set is not an array".into()))?;
    let mut indices = Vec::with_capacity(items.len());
    for item in items {
        let i = item
            .as_uint()
            .ok_or_else(|| CheckpointError::Corrupt("set element is not a count".into()))?
            as usize;
        if i >= n {
            return Err(CheckpointError::Corrupt(format!(
                "attribute {i} outside universe of size {n}"
            )));
        }
        indices.push(i);
    }
    Ok(AttrSet::from_indices(n, indices))
}

fn family_to_json(family: &[AttrSet]) -> Json {
    Json::Arr(family.iter().map(set_to_json).collect())
}

fn family_from_json(v: &Json, n: usize) -> Result<Vec<AttrSet>, CheckpointError> {
    v.as_arr()
        .ok_or_else(|| CheckpointError::Corrupt("family is not an array".into()))?
        .iter()
        .map(|s| set_from_json(s, n))
        .collect()
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, CheckpointError> {
    doc.get(key)
        .ok_or_else(|| CheckpointError::Corrupt(format!("missing field {key:?}")))
}

fn uint_field(doc: &Json, key: &str) -> Result<u64, CheckpointError> {
    field(doc, key)?
        .as_uint()
        .ok_or_else(|| CheckpointError::Corrupt(format!("field {key:?} is not a count")))
}

/// A count field absent from checkpoints written before the field
/// existed: missing (or non-count) decodes as `0` = unrecorded.
fn opt_uint_field(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_uint).unwrap_or(0)
}

/// Levelwise state at a level boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LevelwiseState {
    /// Universe size the run was started with (resume refuses an oracle
    /// of a different size).
    pub n: usize,
    /// `Th` so far, in discovery order (∅ first, then by level).
    pub theory: Vec<AttrSet>,
    /// `Bd⁻` members found so far, in discovery order.
    pub negative: Vec<AttrSet>,
    /// Candidates evaluated per completed level; its length − 1 is the
    /// cardinality of the last completed level.
    pub candidates_per_level: Vec<usize>,
    /// Logical queries issued up to this boundary.
    pub queries: u64,
    /// Worker threads of the saving run (`0` = unrecorded, pre-PR-7
    /// checkpoint). Informational: the ordered-merge contract makes a
    /// resume bit-identical at **any** thread count, so a mismatch is
    /// never an error — the field exists so operators can audit which
    /// configuration produced a checkpoint.
    pub threads: u64,
}

impl LevelwiseState {
    /// Serializes to the checkpoint payload.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("n".into(), Json::uint(self.n as u64)),
            ("theory".into(), family_to_json(&self.theory)),
            ("negative".into(), family_to_json(&self.negative)),
            (
                "candidates_per_level".into(),
                Json::Arr(
                    self.candidates_per_level
                        .iter()
                        .map(|&c| Json::uint(c as u64))
                        .collect(),
                ),
            ),
            ("queries".into(), Json::uint(self.queries)),
            ("threads".into(), Json::uint(self.threads)),
        ])
    }

    /// Deserializes a checkpoint payload.
    pub fn from_json(doc: &Json) -> Result<LevelwiseState, CheckpointError> {
        let n = uint_field(doc, "n")? as usize;
        let candidates_per_level = field(doc, "candidates_per_level")?
            .as_arr()
            .ok_or_else(|| CheckpointError::Corrupt("candidates_per_level not an array".into()))?
            .iter()
            .map(|v| {
                v.as_uint().map(|c| c as usize).ok_or_else(|| {
                    CheckpointError::Corrupt("candidate count is not a count".into())
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(LevelwiseState {
            n,
            theory: family_from_json(field(doc, "theory")?, n)?,
            negative: family_from_json(field(doc, "negative")?, n)?,
            candidates_per_level,
            queries: uint_field(doc, "queries")?,
            threads: opt_uint_field(doc, "threads"),
        })
    }

    /// The candidate frontier at this boundary: theory members of the
    /// last completed cardinality, in discovery order, as sorted index
    /// vectors (the prefix-join input shape).
    pub fn frontier(&self) -> Vec<Vec<usize>> {
        let card = self.candidates_per_level.len().saturating_sub(1);
        self.theory
            .iter()
            .filter(|t| t.len() == card)
            .map(|t| t.iter().collect())
            .collect()
    }
}

/// Dualize-and-Advance state at a safe point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DaState {
    /// Universe size the run was started with.
    pub n: usize,
    /// Verified maximal sets in **discovery order** (the complements
    /// hypergraph must be rebuilt in this order for the transversal
    /// enumeration to replay identically; sorting happens only at the
    /// end of the run).
    pub maximal: Vec<AttrSet>,
    /// Transversals of the current round verified uninteresting so far,
    /// in enumeration order — the enumerated-transversal cursor.
    pub round_certificate: Vec<AttrSet>,
    /// Logical queries issued up to this safe point.
    pub queries: u64,
    /// Worker threads of the saving run (`0` = unrecorded). The driver
    /// runs on the calling thread, so it records `1`. Same informational
    /// contract as [`LevelwiseState::threads`].
    pub threads: u64,
}

impl DaState {
    /// Serializes to the checkpoint payload.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("n".into(), Json::uint(self.n as u64)),
            ("maximal".into(), family_to_json(&self.maximal)),
            (
                "round_certificate".into(),
                family_to_json(&self.round_certificate),
            ),
            ("queries".into(), Json::uint(self.queries)),
            ("threads".into(), Json::uint(self.threads)),
        ])
    }

    /// Deserializes a checkpoint payload.
    pub fn from_json(doc: &Json) -> Result<DaState, CheckpointError> {
        let n = uint_field(doc, "n")? as usize;
        Ok(DaState {
            n,
            maximal: family_from_json(field(doc, "maximal")?, n)?,
            round_certificate: family_from_json(field(doc, "round_certificate")?, n)?,
            queries: uint_field(doc, "queries")?,
            threads: opt_uint_field(doc, "threads"),
        })
    }
}

/// A decoded driver state of either kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResumeState {
    /// A levelwise checkpoint.
    Levelwise(LevelwiseState),
    /// A Dualize-and-Advance checkpoint.
    DualizeAdvance(DaState),
}

impl ResumeState {
    /// The envelope `kind` for this state.
    pub fn kind(&self) -> &'static str {
        match self {
            ResumeState::Levelwise(_) => LEVELWISE_KIND,
            ResumeState::DualizeAdvance(_) => DUALIZE_ADVANCE_KIND,
        }
    }

    /// The checkpoint payload.
    pub fn to_json(&self) -> Json {
        match self {
            ResumeState::Levelwise(s) => s.to_json(),
            ResumeState::DualizeAdvance(s) => s.to_json(),
        }
    }

    /// Decodes a loaded envelope back into a driver state.
    pub fn from_envelope(envelope: &Envelope) -> Result<ResumeState, CheckpointError> {
        match envelope.kind.as_str() {
            LEVELWISE_KIND => {
                LevelwiseState::from_json(&envelope.payload).map(ResumeState::Levelwise)
            }
            DUALIZE_ADVANCE_KIND => {
                DaState::from_json(&envelope.payload).map(ResumeState::DualizeAdvance)
            }
            other => Err(CheckpointError::Corrupt(format!(
                "unknown checkpoint kind {other:?}"
            ))),
        }
    }
}

/// Checkpoint configuration for one run: where to save and how often.
#[derive(Clone, Copy)]
pub struct CheckpointCfg<'a> {
    /// Destination for saved states.
    pub sink: &'a dyn CheckpointSink,
    /// Cadence: write when at least this many logical queries have been
    /// issued since the last save. `1` saves at every safe point.
    pub every: u64,
}

impl std::fmt::Debug for CheckpointCfg<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointCfg")
            .field("every", &self.every)
            .finish()
    }
}

/// Fault-tolerance knobs for one run: the injected fault schedule, the
/// retry policy, and optional checkpointing. [`FaultCtl::none`] (the
/// `Default`) is the fault-free configuration the plain wrappers use.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultCtl<'a> {
    /// The seeded fault schedule every query consults before it reaches
    /// the oracle (see [`crate::fallible::query_with_retry`]); `None`
    /// injects nothing.
    pub plan: Option<&'a FaultPlan>,
    /// Retry policy for transient oracle errors.
    pub retry: RetryPolicy,
    /// Checkpointing, if enabled.
    pub checkpoint: Option<CheckpointCfg<'a>>,
}

impl<'a> FaultCtl<'a> {
    /// No faults, no retries, no checkpoints.
    pub const fn none() -> FaultCtl<'static> {
        FaultCtl {
            plan: None,
            retry: RetryPolicy::none(),
            checkpoint: None,
        }
    }

    /// Retries only.
    pub const fn with_retry(retry: RetryPolicy) -> FaultCtl<'static> {
        FaultCtl {
            plan: None,
            retry,
            checkpoint: None,
        }
    }

    /// Retries plus checkpointing through `sink` every `every` queries.
    pub fn checkpointed(
        retry: RetryPolicy,
        sink: &'a dyn CheckpointSink,
        every: u64,
    ) -> FaultCtl<'a> {
        FaultCtl {
            plan: None,
            retry,
            checkpoint: Some(CheckpointCfg {
                sink,
                every: every.max(1),
            }),
        }
    }
}

/// The checkpoint policy of one driver run: the cadence, the save that
/// aborts on failure, the best-effort save of an oracle abort, and the
/// universe-size check of a resume. The driver hands it a closure that
/// builds its [`ResumeState`], called only when that state is needed.
pub(crate) struct Checkpointer<'a> {
    cfg: Option<CheckpointCfg<'a>>,
    /// Universe size of the run.
    n: usize,
    /// Queries issued at the last safe point.
    safe: u64,
    /// Queries issued at the last save.
    saved: u64,
}

impl<'a> Checkpointer<'a> {
    /// The policy of a run over `n` attributes under `fault`.
    pub(crate) fn new(fault: &FaultCtl<'a>, n: usize) -> Checkpointer<'a> {
        Checkpointer {
            cfg: fault.checkpoint,
            n,
            safe: 0,
            saved: 0,
        }
    }

    /// Picks the run up at a state saved over `saved_n` attributes after
    /// `queries` queries: that is the last safe point and the last save.
    /// A different universe size is refused.
    pub(crate) fn resume(&mut self, saved_n: usize, queries: u64) -> Result<(), Aborted> {
        if saved_n != self.n {
            return Err(Aborted {
                error: RunError::Checkpoint(format!(
                    "checkpoint universe size {saved_n} does not match oracle universe size {}",
                    self.n
                )),
                resume: None,
            });
        }
        self.safe = queries;
        self.saved = queries;
        Ok(())
    }

    /// Marks a safe point reached after `queries` queries and saves
    /// `state()` when at least `every` queries have passed since the last
    /// save. A failed save aborts the run: continuing un-checkpointed
    /// would silently void the crash safety the caller asked for.
    pub(crate) fn safe_point(
        &mut self,
        queries: u64,
        ctl: &RunCtl<'_>,
        state: impl FnOnce() -> ResumeState,
    ) -> Result<(), Aborted> {
        self.safe = queries;
        let Some(cfg) = self.cfg else {
            return Ok(());
        };
        if queries.saturating_sub(self.saved) < cfg.every {
            return Ok(());
        }
        let state = state();
        if let Err(e) = cfg.sink.save(state.kind(), &state.to_json()) {
            return Err(Aborted {
                error: RunError::Checkpoint(e.to_string()),
                resume: Some(Box::new(state)),
            });
        }
        ctl.observer.on_checkpoint(queries);
        self.saved = queries;
        Ok(())
    }

    /// The abort value for an oracle failure. `state(queries)` builds the
    /// state of the last safe point, reached after `queries` queries
    /// (`None` before the first); it is saved as a best effort, since the
    /// oracle error stays the one reported.
    pub(crate) fn abort(
        &self,
        error: OracleError,
        state: impl FnOnce(u64) -> Option<ResumeState>,
    ) -> Aborted {
        let resume = state(self.safe);
        if let (Some(cfg), Some(state)) = (self.cfg, &resume) {
            let _ = cfg.sink.save(state.kind(), &state.to_json());
        }
        Aborted {
            error: RunError::Oracle(error),
            resume: resume.map(Box::new),
        }
    }
}

/// An aborted fault-tolerant run: the error, plus the state at the last
/// safe point so the caller (or a later process, via the sink) can
/// resume without redoing completed work.
#[derive(Clone, Debug)]
pub struct Aborted {
    /// What killed the run.
    pub error: RunError,
    /// State at the last safe point — `None` only when the run aborted
    /// before reaching the first one. Boxed to keep the `Err` variant of
    /// `Result<_, Aborted>` small on the hot paths that thread it.
    pub resume: Option<Box<ResumeState>>,
}

impl std::fmt::Display for Aborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "run aborted: {}", self.error)?;
        if self.resume.is_some() {
            write!(f, " (resumable from last safe point)")?;
        }
        Ok(())
    }
}

impl std::error::Error for Aborted {}

#[cfg(test)]
mod tests {
    use super::*;
    use dualminer_obs::checkpoint::{decode, encode, MemoryCheckpoints};

    fn sample_levelwise() -> LevelwiseState {
        LevelwiseState {
            n: 4,
            theory: vec![
                AttrSet::empty(4),
                AttrSet::from_indices(4, [0]),
                AttrSet::from_indices(4, [1]),
                AttrSet::from_indices(4, [0, 1]),
            ],
            negative: vec![AttrSet::from_indices(4, [2])],
            candidates_per_level: vec![1, 4, 1],
            queries: 6,
            threads: 4,
        }
    }

    #[test]
    fn levelwise_state_round_trips_through_envelope() {
        let state = sample_levelwise();
        let text = encode(LEVELWISE_KIND, &state.to_json());
        let envelope = decode(&text).unwrap();
        let back = ResumeState::from_envelope(&envelope).unwrap();
        assert_eq!(back, ResumeState::Levelwise(state));
    }

    #[test]
    fn da_state_round_trips_through_envelope() {
        let state = DaState {
            n: 5,
            maximal: vec![
                AttrSet::from_indices(5, [0, 1, 2]),
                AttrSet::from_indices(5, [1, 4]),
            ],
            round_certificate: vec![AttrSet::from_indices(5, [3])],
            queries: 11,
            threads: 2,
        };
        let text = encode(DUALIZE_ADVANCE_KIND, &state.to_json());
        let back = ResumeState::from_envelope(&decode(&text).unwrap()).unwrap();
        assert_eq!(back, ResumeState::DualizeAdvance(state));
    }

    #[test]
    fn missing_threads_field_decodes_as_unrecorded() {
        // A checkpoint written before the `threads` field existed.
        let mut state = sample_levelwise();
        let Json::Obj(fields) = state.to_json() else {
            panic!("payload must be an object");
        };
        let legacy = Json::Obj(fields.into_iter().filter(|(k, _)| k != "threads").collect());
        let back = LevelwiseState::from_json(&legacy).unwrap();
        state.threads = 0;
        assert_eq!(back, state);
    }

    #[test]
    fn frontier_recovers_last_level_members() {
        let state = sample_levelwise();
        // Last completed level has cardinality 2: frontier = {0,1}.
        assert_eq!(state.frontier(), vec![vec![0, 1]]);
    }

    #[test]
    fn from_envelope_rejects_wrong_kind_and_bad_payload() {
        let envelope = decode(&encode("martian", &Json::Obj(vec![]))).unwrap();
        assert!(ResumeState::from_envelope(&envelope).is_err());

        // Structurally wrong payload for a known kind.
        let envelope = decode(&encode(LEVELWISE_KIND, &Json::Obj(vec![]))).unwrap();
        assert!(ResumeState::from_envelope(&envelope).is_err());

        // Attribute outside the declared universe.
        let bad = Json::Obj(vec![
            ("n".into(), Json::Int(2)),
            (
                "theory".into(),
                Json::Arr(vec![Json::Arr(vec![Json::Int(7)])]),
            ),
            ("negative".into(), Json::Arr(vec![])),
            ("candidates_per_level".into(), Json::Arr(vec![])),
            ("queries".into(), Json::Int(0)),
        ]);
        let envelope = decode(&encode(LEVELWISE_KIND, &bad)).unwrap();
        assert!(ResumeState::from_envelope(&envelope).is_err());
    }

    #[test]
    fn fault_ctl_constructors() {
        let none = FaultCtl::none();
        assert!(none.plan.is_none());
        assert!(none.checkpoint.is_none());
        assert_eq!(none.retry, RetryPolicy::none());

        let sink = MemoryCheckpoints::new();
        let ckpt = FaultCtl::checkpointed(RetryPolicy::retries(2), &sink, 0);
        assert_eq!(ckpt.checkpoint.unwrap().every, 1); // clamped to ≥ 1
        assert_eq!(
            format!("{:?}", ckpt.checkpoint.unwrap()),
            "CheckpointCfg { every: 1 }"
        );
    }
}
