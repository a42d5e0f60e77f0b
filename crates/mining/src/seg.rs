//! The segment-major checkpointed Apriori engine.
//!
//! The plain miner ([`crate::apriori::apriori_par_ctl`]) walks
//! *candidate-major*: each candidate's support is one streaming pass over
//! every row segment, and the only safe points are level boundaries. This
//! engine transposes the loop to *segment-major*: for the whole candidate
//! batch of a level it accumulates `|t(c) ∩ segment_s|` one segment `s`
//! at a time, which creates a safe point **after every segment** — on a
//! database whose row count dwarfs its level widths (the out-of-core
//! regime `--segment-rows` targets), a crash loses at most one segment
//! pass instead of a whole level.
//!
//! **Representation-free state.** The checkpoint payload stores only
//! candidate-level facts: the theory with supports, the negative border,
//! per-level candidate counts, the query total, and (mid-level) the
//! per-candidate partial counts with the segment cursor. Tidset/diffset
//! choices are deliberately *not* recorded: per-segment counts are defined
//! as `|t(c) ∩ segment|` (see
//! [`VStore::count_pair_seg`](crate::vstore::VStore::count_pair_seg)),
//! which both representations compute exactly, so a resumed run may
//! rebuild its frontier as plain tidsets
//! ([`VStore::tidset_node`](crate::vstore::VStore::tidset_node)) and
//! continue the accumulation byte-for-byte.
//!
//! Because every safe point is a state the from-scratch run passes through
//! with the same `(collections, partial counts, queries)`, a resumed run
//! replays the remaining suffix verbatim: `Th`/`MTh`/`Bd⁻`,
//! `candidates_per_level`, supports, and the Theorem 10 query totals come
//! out bit-identical to an uninterrupted run — for every segment size,
//! thread count, and [`EclatCfg`] (asserted by the tests below).

use dualminer_bitset::AttrSet;
use dualminer_core::candidates::prefix_join_batch;
use dualminer_core::checkpoint::CheckpointCfg;
use dualminer_obs::checkpoint::CheckpointError;
use dualminer_obs::{Json, Outcome, RunCtl, RunError};

use crate::apriori::{finish_sets, FrequentSets};
use crate::vstore::{EclatCfg, EclatNode};
use crate::TransactionDb;

/// Envelope `kind` for segment-major Apriori checkpoints.
pub const APRIORI_SEG_KIND: &str = "apriori-seg";

/// Mid-level progress: the segment cursor plus per-candidate partial
/// counts of the level currently being counted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegPartial {
    /// Cardinality of the level being counted (= the number of completed
    /// levels, since level 0 is cardinality 0).
    pub card: usize,
    /// Segments fully accumulated into `counts`.
    pub segs_done: usize,
    /// `|t(candidate) ∩ segments[..segs_done]|` per candidate, in the
    /// deterministic prefix-join emission order.
    pub counts: Vec<u64>,
}

/// Segment-major Apriori state at a safe point (a segment or level
/// boundary).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AprioriSegState {
    /// Universe size the run was started with.
    pub n: usize,
    /// Rows of the database (resume refuses a database of another shape).
    pub n_rows: usize,
    /// Absolute support threshold of the run.
    pub min_support: usize,
    /// `Th` so far with exact supports, in discovery order.
    pub itemsets: Vec<(AttrSet, usize)>,
    /// `Bd⁻` members found so far, in discovery order.
    pub negative: Vec<AttrSet>,
    /// Candidates evaluated per completed level.
    pub candidates_per_level: Vec<usize>,
    /// Logical queries issued up to this safe point.
    pub queries: u64,
    /// Mid-level cursor, absent at level boundaries.
    pub partial: Option<SegPartial>,
    /// Worker threads of the saving run (`0` = unrecorded, pre-PR-7
    /// checkpoint). Informational only: per-segment counts merge in
    /// deterministic candidate order, so a resume is bit-identical at
    /// any thread count.
    pub threads: u64,
}

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

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, CheckpointError> {
    doc.get(key)
        .ok_or_else(|| CheckpointError::Corrupt(format!("missing field {key:?}")))
}

fn uint_field(doc: &Json, key: &str) -> Result<u64, CheckpointError> {
    field(doc, key)?
        .as_uint()
        .ok_or_else(|| CheckpointError::Corrupt(format!("field {key:?} is not a count")))
}

fn uints_field(doc: &Json, key: &str) -> Result<Vec<u64>, CheckpointError> {
    field(doc, key)?
        .as_arr()
        .ok_or_else(|| CheckpointError::Corrupt(format!("field {key:?} is not an array")))?
        .iter()
        .map(|v| {
            v.as_uint()
                .ok_or_else(|| CheckpointError::Corrupt(format!("{key} element is not a count")))
        })
        .collect()
}

impl AprioriSegState {
    /// Serializes to the checkpoint payload.
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("n".into(), Json::uint(self.n as u64)),
            ("n_rows".into(), Json::uint(self.n_rows as u64)),
            ("min_support".into(), Json::uint(self.min_support as u64)),
            (
                "itemsets".into(),
                Json::Arr(
                    self.itemsets
                        .iter()
                        .map(|(s, supp)| Json::Arr(vec![set_to_json(s), Json::uint(*supp as u64)]))
                        .collect(),
                ),
            ),
            (
                "negative".into(),
                Json::Arr(self.negative.iter().map(set_to_json).collect()),
            ),
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
        ];
        if let Some(p) = &self.partial {
            obj.push((
                "partial".into(),
                Json::Obj(vec![
                    ("card".into(), Json::uint(p.card as u64)),
                    ("segs_done".into(), Json::uint(p.segs_done as u64)),
                    (
                        "counts".into(),
                        Json::Arr(p.counts.iter().map(|&c| Json::uint(c)).collect()),
                    ),
                ]),
            ));
        }
        Json::Obj(obj)
    }

    /// Deserializes a checkpoint payload.
    pub fn from_json(doc: &Json) -> Result<AprioriSegState, CheckpointError> {
        let n = uint_field(doc, "n")? as usize;
        let itemsets = field(doc, "itemsets")?
            .as_arr()
            .ok_or_else(|| CheckpointError::Corrupt("itemsets is not an array".into()))?
            .iter()
            .map(|entry| {
                let pair = entry
                    .as_arr()
                    .filter(|a| a.len() == 2)
                    .ok_or_else(|| CheckpointError::Corrupt("itemset is not a pair".into()))?;
                let set = set_from_json(&pair[0], n)?;
                let supp = pair[1]
                    .as_uint()
                    .ok_or_else(|| CheckpointError::Corrupt("support is not a count".into()))?;
                Ok((set, supp as usize))
            })
            .collect::<Result<Vec<_>, CheckpointError>>()?;
        let negative = field(doc, "negative")?
            .as_arr()
            .ok_or_else(|| CheckpointError::Corrupt("negative is not an array".into()))?
            .iter()
            .map(|s| set_from_json(s, n))
            .collect::<Result<Vec<_>, _>>()?;
        let partial = match doc.get("partial") {
            None | Some(Json::Null) => None,
            Some(p) => Some(SegPartial {
                card: uint_field(p, "card")? as usize,
                segs_done: uint_field(p, "segs_done")? as usize,
                counts: uints_field(p, "counts")?,
            }),
        };
        Ok(AprioriSegState {
            n,
            n_rows: uint_field(doc, "n_rows")? as usize,
            min_support: uint_field(doc, "min_support")? as usize,
            itemsets,
            negative,
            candidates_per_level: uints_field(doc, "candidates_per_level")?
                .into_iter()
                .map(|c| c as usize)
                .collect(),
            queries: uint_field(doc, "queries")?,
            partial,
            // Absent from checkpoints written before the field existed.
            threads: doc.get("threads").and_then(Json::as_uint).unwrap_or(0),
        })
    }
}

/// Mirrors the checkpoint-save bookkeeping of the core drivers: saves go
/// through the sink when at least `every` progress units accumulated
/// since the last save. Progress here is counted in **candidate-segment
/// passes** (one unit per candidate per segment accumulated) plus one
/// unit per emitted query, so `--checkpoint-every 1` saves at every
/// segment boundary, and larger cadences scale with actual work done
/// rather than with query counts alone (which only advance at level
/// boundaries in this engine).
struct SegCkpt {
    progress: u64,
    last_saved: u64,
}

impl SegCkpt {
    fn save_due(
        &mut self,
        cfg: Option<&CheckpointCfg<'_>>,
        ctl: &RunCtl<'_>,
        state: &AprioriSegState,
    ) -> Result<(), RunError> {
        let Some(cfg) = cfg else { return Ok(()) };
        if self.progress.saturating_sub(self.last_saved) < cfg.every {
            return Ok(());
        }
        cfg.sink
            .save(APRIORI_SEG_KIND, &state.to_json())
            .map_err(|e| RunError::Checkpoint(e.to_string()))?;
        ctl.observer.on_checkpoint(state.queries);
        self.last_saved = self.progress;
        Ok(())
    }
}

/// [`crate::apriori::apriori_par_ctl`] with segment-boundary
/// checkpointing and resume.
///
/// * `ckpt` — optional sink + cadence; safe points are every completed
///   segment of every level plus every level boundary.
/// * `resume` — a previously decoded [`AprioriSegState`]; the run
///   continues from that safe point and produces output bit-identical to
///   an uninterrupted run (for any segment size, thread count, and
///   [`EclatCfg`]).
///
/// Errors only on checkpoint I/O ([`RunError::Checkpoint`]) or a resume
/// state that does not match the database/threshold; support counting
/// itself is infallible (the fault-injected oracle path lives in the
/// generic levelwise driver instead).
///
/// On a tripped budget the partial result is the *completed levels*
/// prefix (this engine never emits a half-counted level), and when a sink
/// is configured the last safe point has already been saved, so a
/// `--resume` rerun finishes the mine without redoing completed segments.
///
/// # Panics
/// Panics if `min_support` is 0.
pub fn apriori_par_seg_ctl(
    db: &TransactionDb,
    min_support: usize,
    threads: usize,
    ctl: &RunCtl<'_>,
    ckpt: Option<&CheckpointCfg<'_>>,
    resume: Option<AprioriSegState>,
    cfg: &EclatCfg,
) -> Result<Outcome<FrequentSets>, RunError> {
    assert!(min_support > 0, "min_support must be positive");
    let n = db.n_items();
    let vstore = db.vstore();
    let n_segs = vstore.n_segments();

    let mut itemsets: Vec<(AttrSet, usize)>;
    let mut negative: Vec<AttrSet>;
    let mut candidates_per_level: Vec<usize>;
    let mut queries: u64;
    let mut resume_partial: Option<SegPartial>;
    match resume {
        Some(st) => {
            if st.n != n || st.n_rows != db.n_rows() || st.min_support != min_support {
                return Err(RunError::Checkpoint(format!(
                    "checkpoint shape ({} items, {} rows, σ={}) does not match the run \
                     ({n} items, {} rows, σ={min_support})",
                    st.n,
                    st.n_rows,
                    st.min_support,
                    db.n_rows()
                )));
            }
            if st.candidates_per_level.is_empty() {
                return Err(RunError::Checkpoint(
                    "checkpoint has no completed levels".into(),
                ));
            }
            itemsets = st.itemsets;
            negative = st.negative;
            candidates_per_level = st.candidates_per_level;
            queries = st.queries;
            resume_partial = st.partial;
        }
        None => {
            itemsets = Vec::new();
            negative = Vec::new();
            candidates_per_level = Vec::new();
            queries = 0;
            resume_partial = None;
        }
    }

    let mut ckpt_state = SegCkpt {
        progress: 0,
        last_saved: 0,
    };
    let state_at = |itemsets: &Vec<(AttrSet, usize)>,
                    negative: &Vec<AttrSet>,
                    candidates_per_level: &Vec<usize>,
                    queries: u64,
                    partial: Option<SegPartial>| AprioriSegState {
        n,
        n_rows: db.n_rows(),
        min_support,
        itemsets: itemsets.clone(),
        negative: negative.clone(),
        candidates_per_level: candidates_per_level.clone(),
        queries,
        partial,
        threads: dualminer_parallel::effective_threads(threads) as u64,
    };

    // Level 0 (∅), only when starting from scratch — a resumable
    // checkpoint always has it completed.
    if candidates_per_level.is_empty() {
        if let Some(reason) = ctl.meter.exceeded() {
            return Ok(Outcome::BudgetExceeded {
                partial: finish_sets(db, min_support, itemsets, negative, candidates_per_level),
                reason,
            });
        }
        candidates_per_level.push(1);
        ctl.meter.record_query();
        queries += 1;
        ckpt_state.progress += 1;
        let empty_support = db.n_rows();
        let empty_frequent = empty_support >= min_support;
        ctl.observer.on_level(0, 1, usize::from(empty_frequent));
        if !empty_frequent {
            negative.push(AttrSet::empty(n));
            return Ok(Outcome::Complete(finish_sets(
                db,
                min_support,
                itemsets,
                negative,
                candidates_per_level,
            )));
        }
        itemsets.push((AttrSet::empty(n), empty_support));
        ckpt_state.save_due(
            ckpt,
            ctl,
            &state_at(&itemsets, &negative, &candidates_per_level, queries, None),
        )?;
    }

    // Rebuild the frontier of the last completed level as plain tidset
    // nodes (on a fresh run this is just the ∅ placeholder).
    let mut card = candidates_per_level.len() - 1;
    let mut level: Vec<(Vec<usize>, Option<EclatNode>)> = itemsets
        .iter()
        .filter(|(s, _)| s.len() == card)
        .map(|(s, supp)| {
            let indices: Vec<usize> = s.iter().collect();
            let node = (card > 0).then(|| vstore.tidset_node(&indices, *supp, cfg));
            (indices, node)
        })
        .collect();

    while !level.is_empty() && card < n {
        card += 1;
        if let Some(reason) = ctl.meter.exceeded() {
            return Ok(Outcome::BudgetExceeded {
                partial: finish_sets(db, min_support, itemsets, negative, candidates_per_level),
                reason,
            });
        }
        let batch = prefix_join_batch(n, card, &level, |(v, _)| v.as_slice());

        // Partial counts: resumed mid-level, or zeroed.
        let (mut counts, seg_start) = match resume_partial.take() {
            Some(p) => {
                if p.card != card || p.counts.len() != batch.len() || p.segs_done > n_segs {
                    return Err(RunError::Checkpoint(format!(
                        "partial-level cursor (card {}, {} candidates, {} segments) does not \
                         match the rebuilt frontier (card {card}, {} candidates, {n_segs} \
                         segments)",
                        p.card,
                        p.counts.len(),
                        p.segs_done,
                        batch.len()
                    )));
                }
                (p.counts, p.segs_done)
            }
            None => (vec![0u64; batch.len()], 0),
        };

        // Segment-major accumulation: one pass per segment over the whole
        // candidate batch, workers writing disjoint chunks of `counts` in
        // place. Safe point after every segment.
        let level_ref = &level;
        let batch_ref = &batch;
        for s in seg_start..n_segs {
            dualminer_parallel::par_chunks_zip_mut(
                threads,
                4,
                batch.pairs(),
                &mut counts,
                |offset, chunk, out| {
                    for (k, (&(p, q), cnt)) in chunk.iter().zip(out.iter_mut()).enumerate() {
                        let c = if card == 1 {
                            vstore.item_seg_count(batch_ref.cand(offset + k)[0], s)
                        } else {
                            let x = level_ref[p as usize]
                                .1
                                .as_ref()
                                .expect("level ≥ 1 has nodes");
                            let y = level_ref[q as usize]
                                .1
                                .as_ref()
                                .expect("level ≥ 1 has nodes");
                            vstore.count_pair_seg(x, y, s)
                        };
                        *cnt += c as u64;
                    }
                },
            );
            ckpt_state.progress += batch.len() as u64;
            ckpt_state.save_due(
                ckpt,
                ctl,
                &state_at(
                    &itemsets,
                    &negative,
                    &candidates_per_level,
                    queries,
                    Some(SegPartial {
                        card,
                        segs_done: s + 1,
                        counts: counts.clone(),
                    }),
                ),
            )?;
            if let Some(reason) = ctl.meter.exceeded() {
                return Ok(Outcome::BudgetExceeded {
                    partial: finish_sets(db, min_support, itemsets, negative, candidates_per_level),
                    reason,
                });
            }
        }

        // Emission, in the deterministic unit order: record queries,
        // threshold, and materialize next-level nodes for the survivors.
        let mut next: Vec<(Vec<usize>, Option<EclatNode>)> = Vec::new();
        let mut frequent_count = 0usize;
        for (idx, &cnt) in counts.iter().enumerate() {
            let cand = batch.cand(idx);
            ctl.meter.record_query();
            queries += 1;
            ckpt_state.progress += 1;
            let support = cnt as usize;
            let cand_set = AttrSet::from_indices(n, cand.iter().copied());
            if support >= min_support {
                frequent_count += 1;
                itemsets.push((cand_set, support));
                let node = if card == 1 {
                    vstore.item_node(cand[0], support, cfg)
                } else {
                    let (p, q) = batch.pair(idx);
                    let x = level_ref[p].1.as_ref().expect("level ≥ 1 has nodes");
                    let y = level_ref[q].1.as_ref().expect("level ≥ 1 has nodes");
                    vstore.make_child(x, y, support, cfg)
                };
                next.push((cand.to_vec(), Some(node)));
            } else {
                negative.push(cand_set);
            }
        }
        if !batch.is_empty() {
            candidates_per_level.push(batch.len());
        }
        ctl.observer.on_level(card, batch.len(), frequent_count);
        level = next;
        ckpt_state.save_due(
            ckpt,
            ctl,
            &state_at(&itemsets, &negative, &candidates_per_level, queries, None),
        )?;
    }

    Ok(Outcome::Complete(finish_sets(
        db,
        min_support,
        itemsets,
        negative,
        candidates_per_level,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::apriori_par_ctl_cfg;
    use dualminer_obs::checkpoint::MemoryCheckpoints;
    use dualminer_obs::{Budget, Meter, NoopObserver};

    fn quest_db(segment_rows: usize) -> TransactionDb {
        use crate::gen::{quest, QuestParams};
        use dualminer_bitset::AttrSet;
        use rand::{rngs::StdRng, SeedableRng};
        let params = QuestParams {
            n_items: 16,
            n_transactions: 90,
            avg_transaction_size: 6,
            avg_pattern_size: 4,
            n_patterns: 5,
            corruption: 0.3,
        };
        let mut rng = StdRng::seed_from_u64(11);
        let db = quest(&params, &mut rng);
        let rows: Vec<AttrSet> = db.rows().to_vec();
        TransactionDb::with_segment_rows(db.n_items(), rows, segment_rows)
    }

    fn assert_same(a: &FrequentSets, b: &FrequentSets, ctx: &str) {
        assert_eq!(a.itemsets(), b.itemsets(), "{ctx}");
        assert_eq!(a.maximal, b.maximal, "{ctx}");
        assert_eq!(a.negative_border, b.negative_border, "{ctx}");
        assert_eq!(a.candidates_per_level, b.candidates_per_level, "{ctx}");
        assert_eq!(a.queries(), b.queries(), "{ctx}");
    }

    fn run_plain(db: &TransactionDb, sigma: usize) -> FrequentSets {
        let meter = Meter::unlimited();
        apriori_par_ctl_cfg(
            db,
            sigma,
            1,
            &RunCtl::new(&meter, &NoopObserver),
            &EclatCfg::default(),
        )
        .expect_complete()
    }

    #[test]
    fn seg_engine_is_bit_identical_to_apriori() {
        for seg in [7, 16, 90, 1024] {
            let db = quest_db(seg);
            for sigma in [5, 15, 40] {
                let reference = run_plain(&db, sigma);
                for threads in [1, 3] {
                    for cfg in [
                        EclatCfg::default(),
                        EclatCfg::tidset_only(),
                        EclatCfg::diffset_always(),
                    ] {
                        let meter = Meter::unlimited();
                        let out = apriori_par_seg_ctl(
                            &db,
                            sigma,
                            threads,
                            &RunCtl::new(&meter, &NoopObserver),
                            None,
                            None,
                            &cfg,
                        )
                        .unwrap()
                        .expect_complete();
                        assert_same(
                            &out,
                            &reference,
                            &format!("seg={seg} σ={sigma} threads={threads}"),
                        );
                        assert_eq!(meter.queries(), reference.queries());
                    }
                }
            }
        }
    }

    #[test]
    fn resume_from_every_safe_point_is_bit_identical() {
        let db = quest_db(16); // 90 rows → 6 segments: plenty of safe points
        let sigma = 12;
        let reference = run_plain(&db, sigma);

        let sink = MemoryCheckpoints::new();
        let meter = Meter::unlimited();
        let cfg = CheckpointCfg {
            sink: &sink,
            every: 1,
        };
        apriori_par_seg_ctl(
            &db,
            sigma,
            2,
            &RunCtl::new(&meter, &NoopObserver),
            Some(&cfg),
            None,
            &EclatCfg::default(),
        )
        .unwrap()
        .expect_complete();
        let saved = sink.all();
        assert!(
            saved.len() > db.vstore().n_segments(),
            "expected per-segment safe points, got {}",
            saved.len()
        );
        let mut mid_level = 0;
        for (i, envelope) in saved.iter().enumerate() {
            assert_eq!(envelope.kind, APRIORI_SEG_KIND);
            let state = AprioriSegState::from_json(&envelope.payload).unwrap();
            // Round trip through the wire format.
            assert_eq!(AprioriSegState::from_json(&state.to_json()).unwrap(), state);
            if state.partial.is_some() {
                mid_level += 1;
            }
            let meter = Meter::unlimited();
            let resumed = apriori_par_seg_ctl(
                &db,
                sigma,
                1,
                &RunCtl::new(&meter, &NoopObserver),
                None,
                Some(state),
                &EclatCfg::default(),
            )
            .unwrap()
            .expect_complete();
            assert_same(&resumed, &reference, &format!("safe point {i}"));
        }
        assert!(mid_level > 0, "no mid-level (per-segment) safe points seen");
    }

    #[test]
    fn budget_trip_leaves_resumable_checkpoint() {
        let db = quest_db(16);
        let sigma = 12;
        let reference = run_plain(&db, sigma);

        let sink = MemoryCheckpoints::new();
        let budget = Budget {
            max_queries: Some(20),
            ..Budget::UNLIMITED
        };
        let meter = budget.start();
        let ckpt = CheckpointCfg {
            sink: &sink,
            every: 1,
        };
        let out = apriori_par_seg_ctl(
            &db,
            sigma,
            1,
            &RunCtl::new(&meter, &NoopObserver),
            Some(&ckpt),
            None,
            &EclatCfg::default(),
        )
        .unwrap();
        assert!(!out.is_complete());
        // The tripped run's partial output is a whole-levels prefix.
        let partial = out.into_value();
        for (set, supp) in partial.itemsets() {
            assert_eq!(reference.support_of(set), Some(*supp));
        }

        // Resume from the last saved state, unbudgeted → full result.
        let last = sink.all().pop().expect("checkpoints were saved");
        let state = AprioriSegState::from_json(&last.payload).unwrap();
        let meter = Meter::unlimited();
        let resumed = apriori_par_seg_ctl(
            &db,
            sigma,
            1,
            &RunCtl::new(&meter, &NoopObserver),
            None,
            Some(state),
            &EclatCfg::default(),
        )
        .unwrap()
        .expect_complete();
        assert_same(&resumed, &reference, "resume after budget trip");
    }

    #[test]
    fn mismatched_resume_state_is_rejected() {
        let db = quest_db(16);
        let meter = Meter::unlimited();
        let state = AprioriSegState {
            n: db.n_items() + 1,
            n_rows: db.n_rows(),
            min_support: 2,
            itemsets: vec![],
            negative: vec![],
            candidates_per_level: vec![1],
            queries: 1,
            partial: None,
            threads: 1,
        };
        let err = apriori_par_seg_ctl(
            &db,
            2,
            1,
            &RunCtl::new(&meter, &NoopObserver),
            None,
            Some(state),
            &EclatCfg::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RunError::Checkpoint(_)));

        // A shape-matching state with a nonsense partial cursor is also
        // refused rather than silently miscounted.
        let bad_partial = AprioriSegState {
            n: db.n_items(),
            n_rows: db.n_rows(),
            min_support: 2,
            itemsets: vec![(AttrSet::empty(db.n_items()), db.n_rows())],
            negative: vec![],
            candidates_per_level: vec![1],
            queries: 1,
            partial: Some(SegPartial {
                card: 1,
                segs_done: 0,
                counts: vec![0; 3], // wrong width: level 1 has n_items units
            }),
            threads: 1,
        };
        let meter = Meter::unlimited();
        let err = apriori_par_seg_ctl(
            &db,
            2,
            1,
            &RunCtl::new(&meter, &NoopObserver),
            None,
            Some(bad_partial),
            &EclatCfg::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RunError::Checkpoint(_)));
    }

    #[test]
    fn infrequent_empty_set_short_circuits() {
        let db = TransactionDb::new(3, vec![]);
        let meter = Meter::unlimited();
        let out = apriori_par_seg_ctl(
            &db,
            1,
            1,
            &RunCtl::new(&meter, &NoopObserver),
            None,
            None,
            &EclatCfg::default(),
        )
        .unwrap()
        .expect_complete();
        assert!(out.itemsets().is_empty());
        assert_eq!(out.negative_border, vec![AttrSet::empty(3)]);
    }

    #[test]
    fn state_json_rejects_corruption() {
        let state = AprioriSegState {
            n: 4,
            n_rows: 10,
            min_support: 2,
            itemsets: vec![(AttrSet::from_indices(4, [0, 2]), 5)],
            negative: vec![AttrSet::from_indices(4, [3])],
            candidates_per_level: vec![1, 4],
            queries: 5,
            partial: Some(SegPartial {
                card: 2,
                segs_done: 1,
                counts: vec![3, 0, 7],
            }),
            threads: 2,
        };
        let doc = state.to_json();
        assert_eq!(AprioriSegState::from_json(&doc).unwrap(), state);

        assert!(AprioriSegState::from_json(&Json::Obj(vec![])).is_err());
        // Attribute outside the universe.
        let bad = Json::Obj(vec![
            ("n".into(), Json::Int(2)),
            ("n_rows".into(), Json::Int(3)),
            ("min_support".into(), Json::Int(1)),
            (
                "itemsets".into(),
                Json::Arr(vec![Json::Arr(vec![
                    Json::Arr(vec![Json::Int(9)]),
                    Json::Int(1),
                ])]),
            ),
            ("negative".into(), Json::Arr(vec![])),
            ("candidates_per_level".into(), Json::Arr(vec![])),
            ("queries".into(), Json::Int(0)),
        ]);
        assert!(AprioriSegState::from_json(&bad).is_err());
    }
}
