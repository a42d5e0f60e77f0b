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
//! One convention is ours: the lattice bottom `∅` is a sentence (the
//! paper's Example 11 starts at singletons, leaving ∅ implicit). Level 0
//! therefore evaluates ∅ — one extra query — and an empty theory is
//! representable (`MTh = ∅`, `Bd⁻ = {∅}`). Experiment E1 reports the count
//! both ways.

use dualminer_bitset::{AttrSet, SetTrie};
use dualminer_obs::{Meter, NoopObserver, OracleError, Outcome, RunCtl, RunError};

use crate::candidates::prefix_join_units;
use crate::checkpoint::{Aborted, FaultCtl, LevelwiseState, ResumeState, LEVELWISE_KIND};
use crate::fallible::{query_with_retry, TryInterestOracle};
use crate::oracle::InterestOracle;

/// Complete output of one levelwise run.
#[derive(Clone, Debug)]
pub struct LevelwiseRun {
    /// The whole theory `Th(L, r, q)`: every interesting sentence, sorted
    /// by cardinality then lexicographically.
    pub theory: Vec<AttrSet>,
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

impl LevelwiseRun {
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
    match levelwise_ctl(&oracle, 1, &ctl, &FaultCtl::none(), None) {
        Ok(outcome) => outcome.expect_complete(),
        Err(aborted) => unreachable!("infallible oracle cannot abort: {aborted}"),
    }
}

/// Assembles a [`LevelwiseRun`] from the accumulated theory and negative
/// border: derives `Bd⁺` from the theory alone (no database access) and
/// card-lex-sorts `Bd⁻`. Also correct on a truncated (budget-tripped)
/// theory prefix: the positive border is then the border *of the prefix*.
fn finish_run(
    theory: Vec<AttrSet>,
    mut negative: Vec<AttrSet>,
    candidates_per_level: Vec<usize>,
    queries: u64,
) -> LevelwiseRun {
    // A theory member is maximal iff the theory holds no proper superset
    // of it. Candidate pruning keeps every theory prefix closed under
    // immediate subsets, so "some proper superset is a member" and "some
    // *immediate* superset is a member" coincide — one pruned trie query
    // per member instead of materializing and hashing n supersets.
    let mut member_trie = SetTrie::new();
    for t in &theory {
        member_trie.insert(t);
    }
    let positive_border: Vec<AttrSet> = theory
        .iter()
        .filter(|t| !member_trie.has_proper_superset_of(t))
        .cloned()
        .collect();
    negative.sort_by(|a, b| a.cmp_card_lex(b));
    LevelwiseRun {
        theory,
        positive_border,
        negative_border: negative,
        candidates_per_level,
        queries,
    }
}

/// Checkpoint bookkeeping of the levelwise driver: the state at the last
/// level boundary (the trim point for abort-time
/// checkpoints) plus the save cadence.
struct LevelwiseCkpt {
    boundary_theory: usize,
    boundary_negative: usize,
    boundary_levels: usize,
    boundary_queries: u64,
    last_saved: u64,
    /// Worker threads of this run, recorded into saved states.
    threads: u64,
}

impl LevelwiseCkpt {
    fn fresh(threads: u64) -> LevelwiseCkpt {
        LevelwiseCkpt {
            boundary_theory: 0,
            boundary_negative: 0,
            boundary_levels: 0,
            boundary_queries: 0,
            last_saved: 0,
            threads,
        }
    }

    /// State trimmed to the last completed level boundary.
    fn state(
        &self,
        n: usize,
        theory: &[AttrSet],
        negative: &[AttrSet],
        candidates_per_level: &[usize],
    ) -> LevelwiseState {
        LevelwiseState {
            n,
            theory: theory[..self.boundary_theory].to_vec(),
            negative: negative[..self.boundary_negative].to_vec(),
            candidates_per_level: candidates_per_level[..self.boundary_levels].to_vec(),
            queries: self.boundary_queries,
            threads: self.threads,
        }
    }

    /// Marks a level boundary and, if a sink is configured and the
    /// cadence is due, persists the state. A failed save aborts the run
    /// (continuing un-checkpointed would silently void the crash-safety
    /// contract the caller asked for).
    #[allow(clippy::too_many_arguments)]
    fn at_boundary(
        &mut self,
        n: usize,
        theory: &[AttrSet],
        negative: &[AttrSet],
        candidates_per_level: &[usize],
        queries: u64,
        ctl: &RunCtl<'_>,
        fault: &FaultCtl<'_>,
    ) -> Result<(), Aborted> {
        self.boundary_theory = theory.len();
        self.boundary_negative = negative.len();
        self.boundary_levels = candidates_per_level.len();
        self.boundary_queries = queries;
        let Some(cfg) = fault.checkpoint else {
            return Ok(());
        };
        if queries.saturating_sub(self.last_saved) < cfg.every {
            return Ok(());
        }
        let state = self.state(n, theory, negative, candidates_per_level);
        if let Err(e) = cfg.sink.save(LEVELWISE_KIND, &state.to_json()) {
            return Err(Aborted {
                error: RunError::Checkpoint(e.to_string()),
                resume: Some(Box::new(ResumeState::Levelwise(state))),
            });
        }
        ctl.observer.on_checkpoint(queries);
        self.last_saved = queries;
        Ok(())
    }

    /// Builds the abort value for a mid-level oracle failure: persists
    /// the trimmed boundary state (best effort — the oracle error stays
    /// primary) and hands it back in memory.
    fn abort(
        &self,
        error: OracleError,
        n: usize,
        theory: &[AttrSet],
        negative: &[AttrSet],
        candidates_per_level: &[usize],
        fault: &FaultCtl<'_>,
    ) -> Aborted {
        let state = self.state(n, theory, negative, candidates_per_level);
        let resume = if state.candidates_per_level.is_empty() {
            None // aborted before the first boundary: nothing to resume
        } else {
            if let Some(cfg) = fault.checkpoint {
                let _ = cfg.sink.save(LEVELWISE_KIND, &state.to_json());
            }
            Some(Box::new(ResumeState::Levelwise(state)))
        };
        Aborted {
            error: RunError::Oracle(error),
            resume,
        }
    }
}

/// Validates a resume state against the oracle and unpacks it into the
/// driver's working variables `(theory, negative, candidates_per_level,
/// queries, frontier, card)`.
type LevelwiseVars = (
    Vec<AttrSet>,
    Vec<AttrSet>,
    Vec<usize>,
    u64,
    Vec<Vec<usize>>,
    usize,
);

fn unpack_resume(state: LevelwiseState, n: usize) -> Result<LevelwiseVars, Aborted> {
    let corrupt = |msg: String| Aborted {
        error: RunError::Checkpoint(msg),
        resume: None,
    };
    if state.n != n {
        return Err(corrupt(format!(
            "checkpoint universe size {} does not match oracle universe size {n}",
            state.n
        )));
    }
    if state.candidates_per_level.is_empty() {
        return Err(corrupt("checkpoint has no completed levels".into()));
    }
    let frontier = state.frontier();
    let card = state.candidates_per_level.len() - 1;
    Ok((
        state.theory,
        state.negative,
        state.candidates_per_level,
        state.queries,
        frontier,
        card,
    ))
}

/// [`levelwise`] with every knob: a thread count, a budget and an
/// observer, fault tolerance, and resume.
///
/// **Threads.** Each level's candidates are evaluated on up to `threads`
/// scoped workers (`0` = available parallelism). Candidate *generation*
/// stays sequential (pure lattice bookkeeping, no database access); only
/// the `Is-interesting` evaluations — the paper's unit of cost — fan out.
/// Candidates are generated in sequential order, split into contiguous
/// chunks, and the per-chunk verdicts are concatenated in chunk order, so
/// the result — theory, borders, per-level candidate counts, `queries` —
/// is bit-identical for every thread count. At `threads = 1` the whole
/// level is one chunk and the walk issues its queries strictly in
/// sequential order, fault arrivals included.
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
/// **Faults.** Transient oracle errors are retried per `fault.retry`
/// (infallible oracles enter through the blanket [`TryInterestOracle`]
/// impl on `&O` and never fail). A query that still fails raises a shared
/// [`dualminer_parallel::AbortFlag`] so sibling chunks stop early; the
/// merge then picks the **first error in sequential candidate order**,
/// and the run aborts with the state trimmed to the last completed level,
/// persisted through the checkpoint sink when one is configured and
/// returned in [`Aborted::resume`]. Retries and faults are metered on
/// [`Meter::retries`] / [`Meter::faults`]; `record_query` still fires
/// exactly once per logical query, keeping the Theorem 10 identity intact.
///
/// **Checkpoints and resume.** With checkpointing on, state is saved at
/// level boundaries whenever at least `every` logical queries accumulated
/// since the last save. Passing `resume` continues a prior run (saved at
/// any thread count): the walk restarts at the first unfinished level and
/// replays exactly the suffix a from-scratch run would execute, so the
/// result is bit-identical to an uninterrupted run.
pub fn levelwise_ctl<O: TryInterestOracle>(
    oracle: &O,
    threads: usize,
    ctl: &RunCtl<'_>,
    fault: &FaultCtl<'_>,
    resume: Option<LevelwiseState>,
) -> Result<Outcome<LevelwiseRun>, Aborted> {
    let n = oracle.universe_size();
    let mut theory: Vec<AttrSet>;
    let mut negative: Vec<AttrSet>;
    let mut candidates_per_level: Vec<usize>;
    let mut queries: u64;
    let mut level: Vec<Vec<usize>>;
    let mut card: usize;
    let mut ckpt = LevelwiseCkpt::fresh(dualminer_parallel::effective_threads(threads) as u64);

    if let Some(reason) = ctl.meter.exceeded() {
        return Ok(Outcome::BudgetExceeded {
            partial: finish_run(Vec::new(), Vec::new(), Vec::new(), 0),
            reason,
        });
    }

    if let Some(state) = resume {
        (theory, negative, candidates_per_level, queries, level, card) = unpack_resume(state, n)?;
        ckpt.boundary_theory = theory.len();
        ckpt.boundary_negative = negative.len();
        ckpt.boundary_levels = candidates_per_level.len();
        ckpt.boundary_queries = queries;
        ckpt.last_saved = queries;
    } else {
        theory = Vec::new();
        negative = Vec::new();
        candidates_per_level = Vec::new();

        // Level 0: the single most general sentence, ∅.
        let empty = AttrSet::empty(n);
        candidates_per_level.push(1);
        queries = 1;
        ctl.meter.record_query();
        let empty_interesting = match query_with_retry(oracle, &empty, &fault.retry, ctl) {
            Ok(v) => v,
            Err(e) => {
                return Err(Aborted {
                    error: RunError::Oracle(e),
                    resume: None,
                })
            }
        };
        ctl.observer.on_level(0, 1, usize::from(empty_interesting));
        if !empty_interesting {
            return Ok(Outcome::Complete(LevelwiseRun {
                theory,
                positive_border: vec![],
                negative_border: vec![empty],
                candidates_per_level,
                queries,
            }));
        }
        theory.push(empty);
        level = vec![vec![]];
        card = 0;
        ckpt.at_boundary(
            n,
            &theory,
            &negative,
            &candidates_per_level,
            queries,
            ctl,
            fault,
        )?;
    }

    while !level.is_empty() && card < n {
        card += 1;
        let units = prefix_join_units(n, card, &level, Vec::as_slice);

        // Evaluate the admitted prefix of the level in parallel;
        // chunk-order concatenation reproduces the sequential evaluation
        // order exactly. The query cap is settled here, before dispatch,
        // so it truncates the level at the same candidate at every thread
        // count. The deadline, cancel and abort polls sit before every
        // candidate: once one fires, a chunk answers `None` for the rest
        // of its candidates, so the merged verdicts truncate at a prefix
        // of the sequential enumeration.
        let prefix = &units[..ctl.meter.admit(units.len())];
        let abort = dualminer_parallel::AbortFlag::new();
        type Verdict = Option<(AttrSet, Result<bool, OracleError>)>;
        let verdicts: Vec<Verdict> = dualminer_parallel::par_chunks(threads, 4, prefix, |chunk| {
            chunk
                .iter()
                .map(|(_, _, cand)| {
                    if abort.is_set() || ctl.meter.exceeded().is_some() {
                        return None;
                    }
                    ctl.meter.record_query();
                    let set = AttrSet::from_indices(n, cand.iter().copied());
                    let got = query_with_retry(oracle, &set, &fault.retry, ctl);
                    if got.is_err() {
                        abort.raise();
                    }
                    Some((set, got))
                })
                .collect::<Vec<_>>()
        })
        .concat();

        // A fault anywhere in the level aborts it wholesale — the first
        // error in sequential order wins, independent of which worker
        // hit it first on the clock.
        if let Some(e) = verdicts
            .iter()
            .flatten()
            .find_map(|(_, r)| r.as_ref().err())
        {
            return Err(ckpt.abort(
                e.clone(),
                n,
                &theory,
                &negative,
                &candidates_per_level,
                fault,
            ));
        }

        let mut next: Vec<Vec<usize>> = Vec::new();
        let mut tested = 0usize;
        let mut interesting_count = 0usize;
        let level_len = units.len();
        for ((_, _, cand), verdict) in units.into_iter().zip(verdicts) {
            let Some((set, got)) = verdict else {
                break;
            };
            let interesting = got.expect("errors were handled above");
            tested += 1;
            queries += 1;
            if interesting {
                interesting_count += 1;
                theory.push(set);
                next.push(cand);
            } else {
                negative.push(set);
            }
        }
        if tested > 0 {
            candidates_per_level.push(tested);
        }
        ctl.observer.on_level(card, tested, interesting_count);
        if tested < level_len {
            let reason = ctl
                .meter
                .exceeded()
                .unwrap_or(dualminer_obs::BudgetReason::Cancelled);
            return Ok(Outcome::BudgetExceeded {
                partial: finish_run(theory, negative, candidates_per_level, queries),
                reason,
            });
        }
        level = next;
        ckpt.at_boundary(
            n,
            &theory,
            &negative,
            &candidates_per_level,
            queries,
            ctl,
            fault,
        )?;
    }

    Ok(Outcome::Complete(finish_run(
        theory,
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
        levelwise_ctl(&oracle, threads, &ctl, &FaultCtl::none(), None)
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
    fn empty_theory() {
        let run = levelwise(&FnOracle::new(4, |_: &AttrSet| false));
        assert!(run.theory.is_empty());
        assert!(run.positive_border.is_empty());
        assert_eq!(run.negative_border, vec![AttrSet::empty(4)]);
        assert_eq!(run.queries, 1);
    }

    #[test]
    fn full_theory() {
        let run = levelwise(&FnOracle::new(3, |_: &AttrSet| true));
        assert_eq!(run.theory.len(), 8);
        assert_eq!(run.positive_border, vec![AttrSet::full(3)]);
        assert!(run.negative_border.is_empty());
        assert_eq!(run.queries, 8);
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
    fn parallel_empty_and_full_theories() {
        let empty = levelwise_threads(&FnOracle::new(4, |_: &AttrSet| false), 3);
        assert!(empty.theory.is_empty());
        assert_eq!(empty.negative_border, vec![AttrSet::empty(4)]);
        assert_eq!(empty.queries, 1);

        let full = levelwise_threads(&FnOracle::new(3, |_: &AttrSet| true), 3);
        assert_eq!(full.theory.len(), 8);
        assert_eq!(full.positive_border, vec![AttrSet::full(3)]);
        assert_eq!(full.queries, 8);
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
                let outcome = levelwise_ctl(&oracle, threads, &ctl, &FaultCtl::none(), None)
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
