//! The levelwise algorithm (Algorithm 9) — Apriori generalized.
//!
//! Walk the subset lattice bottom-up one level at a time, alternating
//! *candidate generation* (no database access: a candidate is kept only if
//! all of its immediate generalizations were interesting) and *evaluation*
//! (one `Is-interesting` query per candidate). The paper proves:
//!
//! * **Theorem 10** — the query count is exactly
//!   `|Th(L,r,q) ∪ Bd⁻(Th(L,r,q))|`: every interesting sentence and every
//!   negative-border sentence is evaluated once, nothing else ever becomes
//!   a candidate.
//! * **Theorem 12** — at most `dc(k) · width(L,⪯) · |MTh|` queries, where
//!   `k` is the maximal rank of an interesting sentence; for frequent sets
//!   this is `2ᵏ · n · |MTh|` (Corollary 13).
//!
//! There is one walk, [`walk`], generic over its per-candidate evaluator:
//! [`levelwise_ctl`] runs it with an [`InterestOracle`], and
//! `dualminer-mining`'s Apriori runs it with a support counter that hands
//! each frequent set's dEclat tid structure down to its extensions. Both
//! therefore share every query, budget trip, event and checkpoint.
//!
//! Level boundaries are the walk's safe points: the checkpoint cadence,
//! the save failure that aborts and the best-effort save of an oracle
//! abort are [`crate::checkpoint`]'s one policy, shared with Dualize &
//! Advance; the walk only builds its state there.
//!
//! One convention is ours: the lattice bottom `∅` is a sentence (the
//! paper's Example 11 starts at singletons, leaving ∅ implicit). Level 0
//! therefore evaluates ∅ — one extra query — and an empty theory is
//! representable (`MTh = ∅`, `Bd⁻ = {∅}`). Experiment E1 reports the count
//! both ways.

use std::sync::{Mutex, PoisonError};

use dualminer_bitset::candidates::CandidateBatch;
use dualminer_bitset::{AttrSet, ImmediateSubsets};
use dualminer_obs::{BudgetReason, Meter, NoopObserver, OracleError, Outcome, RunCtl, RunError};

use crate::checkpoint::{Aborted, Checkpointer, FaultCtl, LevelwiseState, ResumeState};
use crate::fallible::query_with_retry;
use crate::oracle::InterestOracle;

/// Complete output of one levelwise run.
#[derive(Clone, Debug)]
pub struct LevelwiseRun<T = AttrSet> {
    /// The whole theory `Th(L, r, q)`: every interesting sentence, sorted
    /// by cardinality then lexicographically. [`walk`] pairs each with
    /// the value its evaluator recorded (Apriori: the support).
    pub theory: Vec<T>,
    /// `Bd⁺(Th) = MTh`: the maximal interesting sentences.
    pub positive_border: Vec<AttrSet>,
    /// `Bd⁻(Th)`: the minimal uninteresting sentences — exactly the
    /// candidates that failed evaluation (Example 11's observation).
    pub negative_border: Vec<AttrSet>,
    /// Candidates evaluated at each level (level = index = cardinality).
    pub candidates_per_level: Vec<usize>,
    /// Total `Is-interesting` evaluations issued by this run.
    pub queries: u64,
}

impl<T> LevelwiseRun<T> {
    /// `|Th ∪ Bd⁻(Th)|` — the Theorem 10 identity this run's `queries`
    /// must equal (the two families are disjoint, so it is a plain sum).
    pub fn theorem10_count(&self) -> u64 {
        (self.theory.len() + self.negative_border.len()) as u64
    }
}

/// Runs Algorithm 9 against the oracle.
///
/// Candidate generation uses the standard prefix-join: a level-`(i+1)`
/// candidate is produced from its level-`i` subset lacking the largest
/// element, then pruned unless *all* its immediate subsets were interesting
/// — exactly the paper's step 5,
/// `C_{i+1} := Bd⁻(∪_{j≤i} L_j) \ ∪_{j≤i} C_j`, restricted to the next
/// level (lower-level members of the border were already candidates at
/// their own level).
pub fn levelwise<O: InterestOracle>(oracle: &O) -> LevelwiseRun {
    let meter = Meter::unlimited();
    let ctl = RunCtl::new(&meter, &NoopObserver);
    match levelwise_ctl(oracle, 1, &ctl, &FaultCtl::none(), None) {
        Ok(outcome) => outcome.expect_complete(),
        Err(aborted) => unreachable!("no faults injected and no checkpoint: {aborted}"),
    }
}

/// [`levelwise`] with every knob: a thread count, a budget and an
/// observer, fault tolerance, and resume — [`walk`] with the oracle as
/// its evaluator.
pub fn levelwise_ctl<O: InterestOracle>(
    oracle: &O,
    threads: usize,
    ctl: &RunCtl<'_>,
    fault: &FaultCtl<'_>,
    resume: Option<LevelwiseState>,
) -> Result<Outcome<LevelwiseRun>, Aborted> {
    let outcome = walk(
        oracle.universe_size(),
        0,
        |x: &AttrSet, _: &[usize], _| oracle.is_interesting(x).then_some(((), ())),
        |_, _, _, _| {},
        |_| (),
        threads,
        ctl,
        fault,
        resume,
    )?;
    Ok(outcome.map(|run| LevelwiseRun {
        theory: run.theory.into_iter().map(|(t, ())| t).collect(),
        positive_border: run.positive_border,
        negative_border: run.negative_border,
        candidates_per_level: run.candidates_per_level,
        queries: run.queries,
    }))
}

/// Assembles a [`LevelwiseRun`] from the accumulated theory and negative
/// border: `Bd⁺` is every theory member no interesting immediate superset
/// marked (no database access), and `Bd⁻` is card-lex sorted. Also
/// correct on a truncated (budget-tripped) theory prefix: the positive
/// border is then the border *of the prefix*.
fn finish_run<V>(
    theory: Vec<(AttrSet, V)>,
    marked: &[bool],
    mut negative: Vec<AttrSet>,
    candidates_per_level: Vec<usize>,
    queries: u64,
) -> LevelwiseRun<(AttrSet, V)> {
    // Candidate pruning keeps every theory prefix closed under immediate
    // subsets, so "no marked immediate superset" and "no proper superset
    // in the theory" coincide.
    let positive_border: Vec<AttrSet> = theory
        .iter()
        .zip(marked)
        .filter(|(_, &m)| !m)
        .map(|((t, _), _)| t.clone())
        .collect();
    debug_assert_eq!(
        positive_border,
        crate::border::positive_border(&theory.iter().map(|(t, _)| t.clone()).collect::<Vec<_>>()),
        "subset marking must agree with the maximal-family scan"
    );
    negative.sort_by(|a, b| a.cmp_card_lex(b));
    LevelwiseRun {
        theory,
        positive_border,
        negative_border: negative,
        candidates_per_level,
        queries,
    }
}

/// The subset marks of a restored theory (complete levels, card-lex
/// sorted): a member is marked iff some member one level up contains it.
fn restored_marks(theory: &[AttrSet]) -> Vec<bool> {
    let mut marked = vec![false; theory.len()];
    for t in theory {
        for sub in ImmediateSubsets::new(t) {
            if let Ok(i) = theory.binary_search_by(|s| s.cmp_card_lex(&sub)) {
                marked[i] = true;
            }
        }
    }
    marked
}

/// No slab slot: the member's words are not read.
const NO_SLOT: u32 = u32::MAX;

/// Slabs kept between walks: the two largest a finished walk returned.
/// Without them a walk grows its slabs from pages the heap handed back to
/// the system when the previous walk freed its own, and pays a minor
/// fault per page (DESIGN §9).
static KEPT_SLABS: Mutex<Vec<Vec<u64>>> = Mutex::new(Vec::new());

/// A walk's two level slabs: `cur` holds the level's words, `spare`
/// receives the next level's. Taken from [`KEPT_SLABS`] (unless the walk
/// has no words) and given back when the walk ends, however it ends.
#[derive(Default)]
struct Slabs {
    cur: Vec<u64>,
    spare: Vec<u64>,
}

impl Slabs {
    fn take(stride: usize) -> Slabs {
        if stride == 0 {
            return Slabs::default();
        }
        // A pool of plain buffers is valid in any state a panic left.
        let mut kept = KEPT_SLABS.lock().unwrap_or_else(PoisonError::into_inner);
        Slabs {
            cur: kept.pop().unwrap_or_default(),
            spare: kept.pop().unwrap_or_default(),
        }
    }
}

impl Drop for Slabs {
    fn drop(&mut self) {
        let slabs = [
            std::mem::take(&mut self.cur),
            std::mem::take(&mut self.spare),
        ];
        if slabs.iter().all(|slab| slab.capacity() == 0) {
            return;
        }
        let mut kept = KEPT_SLABS.lock().unwrap_or_else(PoisonError::into_inner);
        kept.extend(slabs);
        kept.sort_unstable_by_key(Vec::capacity);
        let surplus = kept.len().saturating_sub(2);
        kept.drain(..surplus);
    }
}

/// The node handed to an evaluator: a level member's value-side state and
/// its slice of the level slab (empty where no member was evaluated).
pub type Node<'a, N> = (&'a N, &'a [u64]);

/// The one level-wise walk over the subset lattice, generic over its
/// per-candidate evaluator.
///
/// **Evaluation.** `evaluate(x, indices, pair)` answers the
/// `Is-interesting` query for candidate `x` (its ascending attribute
/// `indices` alongside) and, when `x` is interesting, returns the value
/// recorded with it in [`LevelwiseRun::theory`] and the node its
/// extensions receive. `pair` holds the [`Node`]s of the candidate's join
/// pair — the two level members whose union it is (`x` minus its
/// largest, and minus its second-largest element). The singletons
/// receive ∅'s node twice, with no words; the first level after a resume
/// receives default nodes with no words. `restore(x)` rebuilds the value
/// of a theory member read back from a checkpoint.
///
/// **Nodes and the level slab.** A node is the evaluator's `N` plus
/// `stride` words. Counting is read-only: `evaluate` only reads its
/// pair's words. Once the level's verdicts are merged, the interesting
/// candidates form the next level and are joined into the next batch;
/// then a second pass calls `materialize(indices, pair, node, words)` for
/// each member some next candidate pairs with — no other member's words
/// are ever read — and it must write all `stride` words of its slice (a
/// slice starts with stale contents). The slices lie in member order in
/// one slab per level; the walk keeps two slabs, swaps them at each level
/// boundary and leaves them to the next walk when it ends, so a run
/// allocates at most per level, never per node. An evaluator with no
/// per-node words passes `stride = 0` and takes no slabs.
///
/// **Threads.** Each level's candidates are evaluated, and its nodes
/// materialized, on up to `threads` workers, the calling thread among
/// them (`0` = available parallelism). Candidate *generation* ([`CandidateBatch::join`]) stays
/// sequential (pure lattice bookkeeping, no database access); only the
/// evaluations — the paper's unit of cost — and the writes fan out.
/// Results merge in candidate order, so the run — theory with values,
/// borders, per-level candidate counts, `queries` — is bit-identical for
/// every thread count. At `threads = 1` the walk issues its queries
/// strictly in sequential order, fault arrivals included.
///
/// **Budget and observer.** Each candidate evaluation records one oracle
/// query; each completed level fires `on_level` with its candidate and
/// interesting counts. Before a level is dispatched, the query cap admits
/// the prefix of it that still fits ([`Meter::admit`]); a shorter prefix
/// is the trip, so a `max_queries` partial is the same at every thread
/// count. The deadline and cancel flag are polled before every
/// evaluation, so either stops the walk mid-level: a worker that sees the
/// trip skips its remaining candidates, and the merged verdicts are
/// truncated at the first skipped candidate in sequential order. The
/// partial result is a *genuine prefix* of the levelwise enumeration: the
/// theory and negative border restricted to the sentences evaluated so
/// far, with `positive_border` derived from that prefix (a valid `Bd⁺` of
/// the truncated theory, not of `Th`).
///
/// **Faults.** Every evaluation goes through [`query_with_retry`], which
/// injects `fault.plan`'s faults before the evaluator runs and retries
/// transient ones per `fault.retry`. A query that still fails raises a
/// shared [`dualminer_parallel::AbortFlag`] so sibling workers stop
/// early; the merge then picks the **first error in sequential candidate
/// order**, and the run aborts with the state of the last completed
/// level, persisted through the checkpoint sink when one is configured
/// and returned in [`Aborted::resume`]. Retries and faults are
/// metered on [`Meter::retries`] / [`Meter::faults`]; `record_query`
/// still fires exactly once per logical query, keeping the Theorem 10
/// identity intact.
///
/// **Checkpoints and resume.** With checkpointing on, state is saved at
/// level boundaries whenever at least `every` logical queries accumulated
/// since the last save, under the policy of [`crate::checkpoint`]; the
/// walk builds a [`LevelwiseState`] only when a save is due or it aborts.
/// Passing `resume` continues a prior run (saved at
/// any thread count): the walk restarts at the first unfinished level and
/// replays exactly the suffix a from-scratch run would execute, so the
/// result is bit-identical to an uninterrupted run.
#[allow(clippy::too_many_arguments)]
pub fn walk<V, N>(
    n: usize,
    stride: usize,
    evaluate: impl Fn(&AttrSet, &[usize], (Node<'_, N>, Node<'_, N>)) -> Option<(V, N)> + Sync,
    materialize: impl Fn(&[usize], (Node<'_, N>, Node<'_, N>), &N, &mut [u64]) + Sync,
    restore: impl Fn(&AttrSet) -> V,
    threads: usize,
    ctl: &RunCtl<'_>,
    fault: &FaultCtl<'_>,
    resume: Option<LevelwiseState>,
) -> Result<Outcome<LevelwiseRun<(AttrSet, V)>>, Aborted>
where
    V: Send,
    N: Default + Send + Sync,
{
    let mut theory: Vec<(AttrSet, V)> = Vec::new();
    // `marked[i]`: an interesting immediate superset of `theory[i]` was
    // found, so it is not maximal.
    let mut marked: Vec<bool> = Vec::new();
    let mut negative: Vec<AttrSet> = Vec::new();
    let mut candidates_per_level: Vec<usize> = Vec::new();
    let mut queries: u64;
    let mut ckpt = Checkpointer::new(fault, n);
    let saving_threads = dualminer_parallel::effective_threads(threads) as u64;
    // The checkpoint state at a level boundary, built only when a save is
    // due or the run aborts.
    let boundary = |theory: &[(AttrSet, V)], negative: &[AttrSet], levels: &[usize], queries| {
        ResumeState::Levelwise(LevelwiseState {
            n,
            theory: theory.iter().map(|(t, _)| t.clone()).collect(),
            negative: negative.to_vec(),
            candidates_per_level: levels.to_vec(),
            queries,
            threads: saving_threads,
        })
    };

    if let Some(reason) = ctl.meter.exceeded() {
        return Ok(Outcome::BudgetExceeded {
            partial: finish_run(theory, &marked, negative, candidates_per_level, 0),
            reason,
        });
    }

    // The last completed level: its members, their nodes, and the theory
    // index of its first member. A member the next level reads has its
    // words at `slot[m]` (in units of `stride`) of `slabs.cur`;
    // `slabs.spare` is the slab the next level's words go into.
    let mut level: CandidateBatch;
    let mut nodes: Vec<N>;
    let mut slot: Vec<u32> = Vec::new();
    let mut slabs = Slabs::take(stride);
    let mut level_start: usize;
    let mut card: usize;
    if let Some(state) = resume {
        ckpt.resume(state.n, state.queries)?;
        if state.candidates_per_level.is_empty() {
            return Err(Aborted {
                error: RunError::Checkpoint("checkpoint has no completed levels".into()),
                resume: None,
            });
        }
        card = state.candidates_per_level.len() - 1;
        let frontier = state.frontier();
        level = CandidateBatch::from_members(n, card, frontier.iter().map(Vec::as_slice));
        nodes = (0..level.len()).map(|_| N::default()).collect();
        level_start = state.theory.len() - level.len();
        marked = restored_marks(&state.theory);
        let values: Vec<V> = state.theory.iter().map(restore).collect();
        theory = state.theory.into_iter().zip(values).collect();
        negative = state.negative;
        candidates_per_level = state.candidates_per_level;
        queries = state.queries;
    } else {
        // Level 0: the single most general sentence, ∅.
        let empty = AttrSet::empty(n);
        candidates_per_level.push(1);
        queries = 1;
        ctl.meter.record_query();
        let none = N::default();
        let no_pair = ((&none, &[][..]), (&none, &[][..]));
        let got = query_with_retry(&empty, fault, ctl, || evaluate(&empty, &[], no_pair))
            .map_err(|e| ckpt.abort(e, |_| None))?;
        ctl.observer.on_level(0, 1, usize::from(got.is_some()));
        let Some((value, node)) = got else {
            return Ok(Outcome::Complete(LevelwiseRun {
                theory,
                positive_border: vec![],
                negative_border: vec![empty],
                candidates_per_level,
                queries,
            }));
        };
        theory.push((empty, value));
        marked.push(false);
        nodes = vec![node];
        level = CandidateBatch::from_members(n, 0, [&[][..]]);
        level_start = 0;
        card = 0;
    }

    // The candidates of the level after `level`. Each pass starts at a
    // level boundary, the walk's one safe point.
    let mut batch = level.join();
    loop {
        ckpt.safe_point(queries, ctl, || {
            boundary(&theory, &negative, &candidates_per_level, queries)
        })?;
        if level.is_empty() || card >= n {
            break;
        }
        card += 1;
        // A member's node: ∅ and a resumed level's members have no words.
        let node = |m: usize| {
            let words = match slot.get(m) {
                Some(&k) if k != NO_SLOT => &slabs.cur[k as usize * stride..][..stride],
                _ => &[][..],
            };
            (&nodes[m], words)
        };
        // The flat batch carries, per candidate, its join pair's level
        // indices (the evaluator's `pair`) and the level indices of its
        // remaining immediate subsets (the maximal-family marking below).
        let pair = |batch: &CandidateBatch, i: usize| {
            let (p, q) = batch.pair(i);
            (node(p), node(q))
        };

        // Evaluate the admitted prefix of the level in parallel; the
        // ordered merge reproduces the sequential evaluation order
        // exactly. The query cap is settled here, before dispatch, so it
        // truncates the level at the same candidate at every thread
        // count. The deadline, cancel and abort polls sit before every
        // candidate: once one fires, a worker answers `None` for the rest
        // of its candidates, so the merged verdicts truncate at a prefix
        // of the sequential enumeration. (`par_map` maps over one unit
        // per admitted candidate; a `Vec` of `()` allocates nothing.)
        let admitted = vec![(); ctl.meter.admit(batch.len())];
        let abort = dualminer_parallel::AbortFlag::new();
        // The first failed query in candidate order, if any.
        let first_fault: Mutex<Option<(usize, OracleError)>> = Mutex::new(None);
        let verdicts = dualminer_parallel::par_map(threads, &admitted, |i, ()| {
            if abort.is_set() || ctl.meter.exceeded().is_some() {
                return None;
            }
            ctl.meter.record_query();
            let cand = batch.cand(i);
            let set = AttrSet::from_indices(n, cand.iter().copied());
            match query_with_retry(&set, fault, ctl, || evaluate(&set, cand, pair(&batch, i))) {
                Ok(got) => Some((set, got)),
                Err(e) => {
                    abort.raise();
                    let mut first = first_fault.lock().expect("fault slot poisoned");
                    if first.as_ref().map_or(true, |(j, _)| i < *j) {
                        *first = Some((i, e));
                    }
                    None
                }
            }
        });

        // A fault anywhere in the level aborts it wholesale — the first
        // error in sequential order wins, independent of which worker
        // hit it first on the clock. No verdict is merged yet, so the
        // collections still hold the last boundary's state.
        if let Some((_, e)) = first_fault.into_inner().expect("fault slot poisoned") {
            return Err(ckpt.abort(e, |queries| {
                Some(boundary(&theory, &negative, &candidates_per_level, queries))
            }));
        }

        let next_start = theory.len();
        // The interesting candidates: their batch indices and nodes.
        let mut kept: Vec<usize> = Vec::new();
        let mut next_nodes: Vec<N> = Vec::new();
        let mut tested = 0usize;
        for (i, verdict) in verdicts.into_iter().enumerate() {
            let Some((set, got)) = verdict else {
                break;
            };
            tested += 1;
            match got {
                Some((value, node)) => {
                    // An interesting candidate makes every immediate
                    // subset non-maximal — and the batch carries all of
                    // their level indices: the join pair and the
                    // prefix-dropping subsets the prune step located.
                    let (p, q) = batch.pair(i);
                    marked[level_start + p] = true;
                    marked[level_start + q] = true;
                    for &m in batch.drop_subsets(i) {
                        marked[level_start + m as usize] = true;
                    }
                    theory.push((set, value));
                    marked.push(false);
                    kept.push(i);
                    next_nodes.push(node);
                }
                None => negative.push(set),
            }
        }
        queries += tested as u64;
        if tested > 0 {
            candidates_per_level.push(tested);
        }
        ctl.observer.on_level(card, tested, kept.len());
        if tested < batch.len() {
            let reason = ctl.meter.exceeded().unwrap_or(BudgetReason::Cancelled);
            return Ok(Outcome::BudgetExceeded {
                partial: finish_run(theory, &marked, negative, candidates_per_level, queries),
                reason,
            });
        }

        // The interesting candidates are the new level, and its join the
        // next batch. Only the members some next candidate pairs with get
        // words: an exclusive scan over them gives each its slot, and one
        // parallel pass writes the slots into the spare slab, which then
        // becomes the level's.
        batch.retain(|i| kept.binary_search(&i).is_ok());
        let next = batch.join();
        let mut next_slot = vec![NO_SLOT; batch.len()];
        for c in 0..next.len() {
            let (p, q) = next.pair(c);
            next_slot[p] = 0;
            next_slot[q] = 0;
        }
        let mut readers: Vec<usize> = Vec::new();
        for (m, k) in next_slot.iter_mut().enumerate() {
            if *k != NO_SLOT {
                *k = readers.len() as u32;
                readers.push(m);
            }
        }
        // Its stale words are all overwritten. Growing it keeps the pages
        // it already touched: the allocator remaps a large block rather
        // than copying it, where a fresh block faults every page anew.
        slabs.spare.resize(readers.len() * stride, 0);
        dualminer_parallel::par_fill(threads, &mut slabs.spare, stride, |k, words| {
            let m = readers[k];
            materialize(batch.cand(m), pair(&batch, m), &next_nodes[m], words)
        });
        std::mem::swap(&mut slabs.cur, &mut slabs.spare);
        slot = next_slot;
        nodes = next_nodes;
        level = std::mem::replace(&mut batch, next);
        level_start = next_start;
    }

    Ok(Outcome::Complete(finish_run(
        theory,
        &marked,
        negative,
        candidates_per_level,
        queries,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{CountingOracle, FamilyOracle, FnOracle};
    use dualminer_bitset::Universe;
    use dualminer_obs::Budget;

    fn fig1_oracle() -> CountingOracle<FamilyOracle> {
        let u = Universe::letters(4);
        CountingOracle::new(FamilyOracle::new(
            4,
            vec![u.parse("ABC").unwrap(), u.parse("BD").unwrap()],
        ))
    }

    /// Complete levelwise run on `threads` workers.
    fn levelwise_threads<O: InterestOracle>(oracle: &O, threads: usize) -> LevelwiseRun {
        let meter = Meter::unlimited();
        let ctl = RunCtl::new(&meter, &NoopObserver);
        levelwise_ctl(oracle, threads, &ctl, &FaultCtl::none(), None)
            .expect("infallible oracle")
            .expect_complete()
    }

    #[test]
    fn example_11_trace() {
        let u = Universe::letters(4);
        let run = levelwise(&fig1_oracle());

        // Theory: ∅ + {A,B,C,D} + {AB,AC,BC,BD} + {ABC} = 10 sentences.
        assert_eq!(run.theory.len(), 10);
        assert_eq!(u.display_family(run.positive_border.iter()), "{BD, ABC}");
        // "the negative border corresponds exactly to the sets found not
        //  interesting along the way, that is the sets AD and CD."
        assert_eq!(u.display_family(run.negative_border.iter()), "{AD, CD}");
        // Candidates: ∅; 4 singletons; all 6 pairs (paper: "in this case
        // all attribute pairs"); 1 triple ABC; no quadruple (ABCD pruned:
        // ABD ∉ L3).
        assert_eq!(run.candidates_per_level, vec![1, 4, 6, 1]);
    }

    #[test]
    fn theorem10_exact_count() {
        let oracle = fig1_oracle();
        let run = levelwise(&oracle);
        assert_eq!(run.queries, run.theorem10_count());
        assert_eq!(oracle.distinct_queries(), run.queries);
        // Levelwise never repeats a query even without memoization.
        assert_eq!(oracle.raw_queries(), run.queries);
    }

    #[test]
    fn empty_and_full_theories() {
        for threads in [1, 3] {
            let run = levelwise_threads(&FnOracle::new(4, |_: &AttrSet| false), threads);
            assert!(run.theory.is_empty());
            assert!(run.positive_border.is_empty());
            assert_eq!(run.negative_border, vec![AttrSet::empty(4)]);
            assert_eq!(run.queries, 1);

            let run = levelwise_threads(&FnOracle::new(3, |_: &AttrSet| true), threads);
            assert_eq!(run.theory.len(), 8);
            assert_eq!(run.positive_border, vec![AttrSet::full(3)]);
            assert!(run.negative_border.is_empty());
            assert_eq!(run.queries, 8);
        }
    }

    #[test]
    fn only_empty_set_interesting() {
        let run = levelwise(&FnOracle::new(3, |x: &AttrSet| x.is_empty()));
        assert_eq!(run.theory, vec![AttrSet::empty(3)]);
        assert_eq!(run.positive_border, vec![AttrSet::empty(3)]);
        assert_eq!(run.negative_border.len(), 3); // all singletons
        assert_eq!(run.queries, 4);
    }

    #[test]
    fn negative_border_matches_theorem7() {
        let run = levelwise(&fig1_oracle());
        let via_tr = crate::border::negative_border_via_transversals(
            4,
            &run.positive_border,
            dualminer_hypergraph::TrAlgorithm::Berge,
        );
        assert_eq!(run.negative_border, via_tr);
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        let u = Universe::letters(4);
        let family = FamilyOracle::new(4, vec![u.parse("ABC").unwrap(), u.parse("BD").unwrap()]);
        let seq = levelwise(&family);
        let check = |par: &LevelwiseRun, context: &str| {
            assert_eq!(par.theory, seq.theory, "{context}");
            assert_eq!(par.positive_border, seq.positive_border, "{context}");
            assert_eq!(par.negative_border, seq.negative_border, "{context}");
            assert_eq!(par.candidates_per_level, seq.candidates_per_level);
            assert_eq!(par.queries, seq.queries, "{context}");
        };
        for threads in [0, 1, 2, 3, 8] {
            check(
                &levelwise_threads(&family, threads),
                &format!("threads={threads}"),
            );
        }
        // A counting oracle shared by four workers still sees every
        // candidate exactly once.
        let counting = fig1_oracle();
        let par = levelwise_threads(&counting, 4);
        check(&par, "counting oracle, threads=4");
        assert_eq!(counting.distinct_queries(), par.theorem10_count());
        assert_eq!(counting.raw_queries(), par.theorem10_count());
    }

    #[test]
    fn size_threshold_oracle() {
        // Interesting = |x| ≤ 2 over n = 5: MTh = all 10 pairs,
        // Bd⁻ = all 10 triples.
        let oracle = CountingOracle::new(FnOracle::new(5, |x: &AttrSet| x.len() <= 2));
        let run = levelwise(&oracle);
        assert_eq!(run.theory.len(), 1 + 5 + 10);
        assert_eq!(run.positive_border.len(), 10);
        assert_eq!(run.negative_border.len(), 10);
        assert_eq!(run.queries, 26);
        assert!(run.negative_border.iter().all(|s| s.len() == 3));
    }

    /// Every `max_queries = k` short of the Theorem 10 count stops the
    /// walk with a genuine prefix of the complete run; at every thread
    /// count the meter records exactly `k` queries and the partial equals
    /// the one-thread partial.
    fn check_budget_prefixes<O: InterestOracle>(oracle: &O) {
        let full = levelwise(oracle);
        let count = full.theorem10_count();
        let mut sequential = Vec::new();
        for threads in [1usize, 2, 4] {
            for k in 1..=count {
                let meter = Budget {
                    max_queries: Some(k),
                    ..Budget::UNLIMITED
                }
                .start();
                let ctl = RunCtl::new(&meter, &NoopObserver);
                let outcome = levelwise_ctl(oracle, threads, &ctl, &FaultCtl::none(), None)
                    .expect("infallible oracle");
                let context = format!("threads={threads}, k={k}");
                assert_eq!(outcome.is_complete(), k == count, "{context}");
                let run = outcome.into_value();
                assert!(
                    run.theory.iter().all(|t| full.theory.contains(t)),
                    "{context}: theory"
                );
                assert!(
                    run.negative_border
                        .iter()
                        .all(|t| full.negative_border.contains(t)),
                    "{context}: negative border"
                );
                assert_eq!(run.queries, run.theorem10_count(), "{context}");
                assert_eq!(meter.queries(), k, "{context}: metered queries");
                assert_eq!(run.queries, k, "{context}: run queries");
                let parts = (
                    run.theory,
                    run.positive_border,
                    run.negative_border,
                    run.candidates_per_level,
                );
                if threads == 1 {
                    sequential.push(parts);
                } else {
                    assert_eq!(parts, sequential[k as usize - 1], "{context}: partial");
                }
            }
        }
    }

    #[test]
    fn budgeted_levelwise_stops_at_a_genuine_prefix() {
        check_budget_prefixes(&fig1_oracle());
        check_budget_prefixes(&FnOracle::new(5, |x: &AttrSet| x.len() <= 2));
    }
}
