//! The Dualize and Advance algorithm (Algorithm 16).
//!
//! Levelwise pays for every interesting sentence; when maximal sentences
//! are long that cost is exponential (`dc(k) = 2ᵏ` in Theorem 12). Dualize
//! and Advance instead *jumps* between maximal sentences:
//!
//! 1. Maintain a collection `Cᵢ` of verified maximal interesting sets.
//! 2. **Dualize**: compute the minimal transversals of the complements of
//!    `Cᵢ` — by Theorem 7 that is `Bd⁻(Cᵢ)`, the minimal sets not under
//!    any found-so-far maximal set.
//! 3. Query each transversal. If none is interesting, `Cᵢ = MTh` and the
//!    transversals are `Bd⁻(MTh)` (Lemma 18). Otherwise an interesting
//!    transversal is a **counterexample**…
//! 4. **Advance**: extend it greedily, one attribute at a time, to a new
//!    maximal interesting set (step 9).
//!
//! Lemma 20 bounds step 3: at most `|Bd⁻(MTh)|` transversals are tested
//! before a counterexample appears — every tested set either *is* a member
//! of the final `Bd⁻(MTh)` or is interesting (a counterexample), even
//! though intermediate transversal hypergraphs can be exponentially larger
//! (Example 19). Theorem 21 then gives the total query bound
//! `|MTh| · (|Bd⁻(MTh)| + rank(MTh)·width(L,⪯))`, and with the
//! Fredman–Khachiyan subroutine the total time is sub-exponential in
//! `|MTh| + |Bd⁻(MTh)|` (Corollary 22).
//!
//! One deviation from the paper's listing: the first maximal set is found
//! by greedily extending `∅` directly, which is what the first iteration
//! amounts to (from `C₁ = {∅}`, `Tr({R})` is the singletons, and either
//! some singleton is interesting or `∅` itself is maximal). This also
//! makes the degenerate theories (`∅` uninteresting, or only `∅`
//! interesting) come out right.
//!
//! Both enumerations, incremental FK and the materializing engines, test
//! each transversal in one shared step: the query, the certificate push
//! that is a safe point, and the abort. Saves follow
//! [`crate::checkpoint`]'s one policy, shared with the levelwise walk.

use dualminer_bitset::AttrSet;
use dualminer_hypergraph::{joint_gen, plan, Hypergraph, TrAlgorithm};
use dualminer_obs::{BudgetReason, Meter, NoopObserver, OracleError, Outcome, RunCtl, RunError};

use crate::checkpoint::{Aborted, Checkpointer, DaState, FaultCtl, ResumeState};
use crate::fallible::query_with_retry;
use crate::oracle::InterestOracle;

/// Trace of one outer iteration (one new maximal set, or the final
/// certificate round).
#[derive(Clone, Debug)]
pub struct DualizeAdvanceIteration {
    /// Minimal transversals of the complement family tested this round —
    /// the quantity Lemma 20 bounds by `|Bd⁻(MTh)|`.
    pub transversals_tested: usize,
    /// The interesting transversal that triggered the advance (absent in
    /// the final round).
    pub counterexample: Option<AttrSet>,
    /// The maximal set the counterexample grew into.
    pub maximal_found: Option<AttrSet>,
    /// Queries spent by the greedy extension (step 9).
    pub extension_queries: u64,
}

/// Complete output of one Dualize-and-Advance run.
#[derive(Clone, Debug)]
pub struct DualizeAdvanceRun {
    /// `MTh(L, r, q)`, sorted card-lex.
    pub maximal: Vec<AttrSet>,
    /// `Bd⁻(MTh)`: the final round's transversals, all verified
    /// uninteresting — the algorithm delivers the whole border for free
    /// (Example 17's closing remark).
    pub negative_border: Vec<AttrSet>,
    /// Per-iteration trace; `iterations.len() == maximal.len() + 1`.
    pub iterations: Vec<DualizeAdvanceIteration>,
    /// Total `Is-interesting` queries.
    pub queries: u64,
}

impl DualizeAdvanceRun {
    /// Measured left side of the Theorem 21 inequality.
    pub fn total_queries(&self) -> u64 {
        self.queries
    }

    /// The largest number of transversals tested in any iteration.
    /// Lemma 20: a non-final iteration tests at most `|Bd⁻(MTh)|`
    /// uninteresting sets before its counterexample (≤ `|Bd⁻(MTh)| + 1`
    /// tested in total); the final iteration tests exactly `|Bd⁻(MTh)|`.
    pub fn max_transversals_tested(&self) -> usize {
        self.iterations
            .iter()
            .map(|i| i.transversals_tested)
            .max()
            .unwrap_or(0)
    }
}

/// The attribute order the step-9 greedy extension tries — correctness is
/// order-independent (any order reaches *a* maximal set), but the order
/// decides *which* maximal set each advance lands on and therefore the
/// iteration trajectory (the DESIGN.md §5 ablation).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum ExtensionOrder {
    /// Ascending attribute indices (the default).
    #[default]
    Ascending,
    /// Descending attribute indices.
    Descending,
    /// A caller-provided order: its entries first, in order (repeats
    /// skipped), then the attributes it omits, ascending — so a partial
    /// order still tries every attribute once and reaches a maximal set.
    Custom(Vec<usize>),
}

impl ExtensionOrder {
    fn materialize(&self, n: usize) -> Vec<usize> {
        match self {
            ExtensionOrder::Ascending => (0..n).collect(),
            ExtensionOrder::Descending => (0..n).rev().collect(),
            ExtensionOrder::Custom(v) => {
                let mut tried = vec![false; n];
                let mut order: Vec<usize> = v
                    .iter()
                    .copied()
                    .filter(|&i| !std::mem::replace(&mut tried[i], true))
                    .collect();
                order.extend((0..n).filter(|&i| !tried[i]));
                order
            }
        }
    }
}

/// Tunables of a Dualize & Advance run.
#[derive(Clone, Debug, Default)]
pub struct DualizeAdvanceConfig {
    /// Greedy-extension attribute order (step 9).
    pub extension_order: ExtensionOrder,
}

/// Runs Dualize and Advance with the given transversal strategy.
///
/// With [`TrAlgorithm::FkJointGeneration`] the dualization is *incremental*:
/// transversals are queried as the joint-generation loop emits them, and
/// enumeration stops at the first counterexample — the regime Theorem 21
/// assumes. The other strategies materialize the full transversal
/// hypergraph per iteration first (cheaper on small borders, exponentially
/// worse on instances like Example 19).
pub fn dualize_advance<O: InterestOracle>(oracle: &O, algo: TrAlgorithm) -> DualizeAdvanceRun {
    let meter = Meter::unlimited();
    let ctl = RunCtl::new(&meter, &NoopObserver);
    let config = DualizeAdvanceConfig::default();
    match dualize_advance_ctl(oracle, algo, &config, &ctl, &FaultCtl::none(), None) {
        Ok(outcome) => outcome.expect_complete(),
        Err(aborted) => unreachable!("no faults injected and no checkpoint: {aborted}"),
    }
}

/// Sorts the partial collections so budget-exceeded results are as
/// presentable as complete ones.
fn partial_run(
    mut maximal: Vec<AttrSet>,
    mut certificate: Vec<AttrSet>,
    iterations: Vec<DualizeAdvanceIteration>,
    queries: u64,
) -> DualizeAdvanceRun {
    maximal.sort_by(|a, b| a.cmp_card_lex(b));
    certificate.sort_by(|a, b| a.cmp_card_lex(b));
    DualizeAdvanceRun {
        maximal,
        negative_border: certificate,
        iterations,
        queries,
    }
}

/// Closes a round the budget stopped before any counterexample: the trace
/// gains the round with its `tested` count, and the partial result keeps
/// `certificate`, the round's transversals verified uninteresting.
fn tripped_round(
    maximal: Vec<AttrSet>,
    certificate: Vec<AttrSet>,
    mut iterations: Vec<DualizeAdvanceIteration>,
    tested: usize,
    queries: u64,
    reason: BudgetReason,
    ctl: &RunCtl<'_>,
) -> Outcome<DualizeAdvanceRun> {
    iterations.push(DualizeAdvanceIteration {
        transversals_tested: tested,
        counterexample: None,
        maximal_found: None,
        extension_queries: 0,
    });
    ctl.observer.on_iteration(iterations.len(), tested, false);
    Outcome::BudgetExceeded {
        partial: partial_run(maximal, certificate, iterations, queries),
        reason,
    }
}

/// The checkpoint state of a safe point: the verified-maximal sets in
/// discovery order, the round's certificate and the query count. Both
/// collections change only at safe points (the greedy extension is
/// atomic), so at an abort they, with the last safe point's query count,
/// are that point's state. The driver runs on the calling thread, so the
/// state records one thread.
fn da_state(n: usize, maximal: &[AttrSet], certificate: &[AttrSet], queries: u64) -> ResumeState {
    ResumeState::DualizeAdvance(DaState {
        n,
        maximal: maximal.to_vec(),
        round_certificate: certificate.to_vec(),
        queries,
        threads: 1,
    })
}

/// [`dualize_advance`] with every knob: tunables, a budget and an
/// observer, fault tolerance, and resume. The driver and its transversal
/// subroutine run on the calling thread.
///
/// **Budget and observer.** Every `Is-interesting` query records one
/// metered query (so does each inner FK recursive call when `algo` is
/// [`TrAlgorithm::FkJointGeneration`]), each enumerated transversal
/// records one transversal event, and each outer round fires
/// `on_iteration`. On a budget trip the partial result holds a *genuine
/// subset of `MTh`* — only verified-maximal sets are ever added — and
/// `negative_border` holds the transversals verified uninteresting in the
/// interrupted round (members of `Bd⁻(Cᵢ)`, not necessarily of the final
/// `Bd⁻(MTh)`).
///
/// **Faults.** Every query goes through [`query_with_retry`]: faults
/// from `fault.plan` are injected before the oracle runs and transient
/// ones are retried per `fault.retry`; an error that survives aborts the
/// run with the state of the last safe point.
///
/// **Checkpoints and resume.** Safe points are (a) after each enumerated
/// transversal is verified uninteresting — the `round_certificate` cursor
/// the checkpoint serializes — and (b) each iteration boundary, after a
/// counterexample's greedy extension installs a new verified-maximal set.
/// Saves follow the policy of [`crate::checkpoint`]. A fault inside an
/// extension rolls back to the last safe point; the resumed run re-issues
/// the counterexample query and the extension from scratch, so its query
/// total matches an uninterrupted run exactly.
///
/// On resume, the complement hypergraph is rebuilt from `maximal` in
/// discovery order and the round's transversal enumeration replays
/// deterministically: the materializing strategies skip (and verify)
/// the first `round_certificate.len()` transversals; the incremental FK
/// strategy seeds its growing hypergraph `g` with the certificate and
/// continues emitting where it left off. A resumed run's `maximal`,
/// `negative_border` and `queries` are bit-identical to an uninterrupted
/// run; only the `iterations` trace restarts at the resume point (the
/// `iterations.len() == maximal.len() + 1` invariant holds for
/// un-resumed runs only). A resume state need not come from a
/// checkpoint: distinct verified-maximal sets with an empty round
/// certificate are a valid safe point, which is how
/// `mining::maximal::sample_then_certify` seeds the driver with its
/// random-walk samples.
pub fn dualize_advance_ctl<O: InterestOracle>(
    oracle: &O,
    algo: TrAlgorithm,
    config: &DualizeAdvanceConfig,
    ctl: &RunCtl<'_>,
    fault: &FaultCtl<'_>,
    resume: Option<DaState>,
) -> Result<Outcome<DualizeAdvanceRun>, Aborted> {
    let n = oracle.universe_size();
    let ext_order = config.extension_order.materialize(n);
    let mut maximal: Vec<AttrSet> = Vec::new();
    let mut iterations: Vec<DualizeAdvanceIteration> = Vec::new();
    let mut queries = 0u64;
    // Certificate carried into the first (resumed) round; later rounds
    // start empty.
    let mut pending_certificate: Vec<AttrSet> = Vec::new();
    let mut ckpt = Checkpointer::new(fault, n);

    if let Some(reason) = ctl.meter.exceeded() {
        return Ok(Outcome::BudgetExceeded {
            partial: partial_run(maximal, Vec::new(), iterations, queries),
            reason,
        });
    }

    if let Some(state) = resume {
        ckpt.resume(state.n, state.queries)?;
        maximal = state.maximal;
        pending_certificate = state.round_certificate;
        queries = state.queries;
    }

    if maximal.is_empty() {
        // Seed: is anything interesting at all?
        queries += 1;
        ctl.meter.record_query();
        // A fault before the first maximal set leaves nothing to resume.
        let empty = AttrSet::empty(n);
        let empty_interesting =
            query_with_retry(&empty, fault, ctl, || oracle.is_interesting(&empty))
                .map_err(|e| ckpt.abort(e, |_| None))?;
        if !empty_interesting {
            return Ok(Outcome::Complete(DualizeAdvanceRun {
                maximal,
                negative_border: vec![empty],
                iterations,
                queries,
            }));
        }
        let (first, ext_q, tripped) = greedy_extend(oracle, empty, &ext_order, ctl, fault)
            .map_err(|e| ckpt.abort(e, |_| None))?;
        queries += ext_q;
        if let Some(reason) = tripped {
            // The extension was interrupted, so `first` is interesting but
            // not verified maximal — it is NOT part of the MTh prefix.
            return Ok(Outcome::BudgetExceeded {
                partial: partial_run(maximal, Vec::new(), iterations, queries),
                reason,
            });
        }
        iterations.push(DualizeAdvanceIteration {
            transversals_tested: 0,
            counterexample: Some(AttrSet::empty(n)),
            maximal_found: Some(first.clone()),
            extension_queries: ext_q,
        });
        ctl.observer.on_iteration(iterations.len(), 0, true);
        maximal.push(first);
        ckpt.safe_point(queries, ctl, || da_state(n, &maximal, &[], queries))?;
    }

    loop {
        // Dualize: E = complements of Cᵢ; Tr(E) = Bd⁻(Cᵢ) by Theorem 7.
        // Discovery order, never sorted mid-run: a resumed run must
        // rebuild the identical hypergraph for the identical enumeration.
        let complements =
            Hypergraph::from_edges(n, maximal.iter().map(AttrSet::complement).collect())
                .expect("complements stay in universe");

        let mut certificate: Vec<AttrSet> = std::mem::take(&mut pending_certificate);
        let mut tested = certificate.len();
        // The step both enumerations share: query transversal `t`; an
        // uninteresting one joins the round certificate, a safe point,
        // and an interesting one is the counterexample (`Ok(true)`).
        let mut test = |t: &AttrSet, certificate: &mut Vec<AttrSet>| {
            tested += 1;
            queries += 1;
            ctl.meter.record_query();
            match query_with_retry(t, fault, ctl, || oracle.is_interesting(t)) {
                Ok(true) => Ok(true),
                Ok(false) => {
                    certificate.push(t.clone());
                    ckpt.safe_point(queries, ctl, || da_state(n, &maximal, certificate, queries))?;
                    Ok(false)
                }
                Err(e) => Err(ckpt.abort(e, |queries| {
                    Some(da_state(n, &maximal, certificate, queries))
                })),
            }
        };

        let counterexample = match algo {
            TrAlgorithm::FkJointGeneration => {
                // Incremental enumeration with early exit: each transversal
                // the joint-generation step emits is queried at once. On
                // resume, seeding `g` with the certificate continues the
                // enumeration where it stopped. The step wants a minimized
                // hypergraph, and `complements` is one: the complements of
                // an antichain are an antichain.
                let mut g = Hypergraph::empty(n);
                for t in &certificate {
                    g.add_edge(t.clone());
                }
                loop {
                    let t = match joint_gen::next_transversal(&complements, &g, ctl) {
                        Ok(Some(t)) => t,
                        Ok(None) => break None,
                        Err(reason) => {
                            return Ok(tripped_round(
                                maximal,
                                certificate,
                                iterations,
                                tested,
                                queries,
                                reason,
                                ctl,
                            ))
                        }
                    };
                    ctl.meter.record_transversal();
                    ctl.observer.on_transversals(1);
                    if test(&t, &mut certificate)? {
                        break Some(t);
                    }
                    g.add_edge(t);
                }
            }
            TrAlgorithm::Auto
            | TrAlgorithm::Berge
            | TrAlgorithm::LevelwiseLargeEdges
            | TrAlgorithm::MuMmcs
            | TrAlgorithm::Egm => {
                let tr = match plan::dualize_ctl_report(&complements, algo, 1, ctl).0 {
                    Outcome::Complete(tr) => tr,
                    Outcome::BudgetExceeded { reason, .. } => {
                        // The materialized border is incomplete (and for
                        // Berge not even a set of transversals), so the
                        // round is abandoned untested.
                        return Ok(tripped_round(
                            maximal,
                            Vec::new(),
                            iterations,
                            0,
                            queries,
                            reason,
                            ctl,
                        ));
                    }
                };
                // On resume, the first `certificate.len()` transversals
                // were already verified uninteresting: skip them, but
                // check they really are the ones the checkpoint recorded —
                // a mismatch means the checkpoint belongs to a different
                // input and resuming would corrupt the run.
                let edges = tr.edges();
                if let Some(i) = edges.iter().zip(&certificate).position(|(t, c)| t != c) {
                    return Err(Aborted {
                        error: RunError::Checkpoint(format!(
                            "checkpoint cursor mismatch at transversal {i}: \
                             the checkpoint does not match this input"
                        )),
                        resume: None,
                    });
                }
                let mut found = None;
                for t in edges.iter().skip(certificate.len()) {
                    if let Some(reason) = ctl.meter.exceeded() {
                        return Ok(tripped_round(
                            maximal,
                            certificate,
                            iterations,
                            tested,
                            queries,
                            reason,
                            ctl,
                        ));
                    }
                    if test(t, &mut certificate)? {
                        found = Some(t.clone());
                        break;
                    }
                }
                found
            }
        };

        match counterexample {
            None => {
                // All of Bd⁻(Cᵢ) uninteresting: Cᵢ = MTh (Lemma 18).
                iterations.push(DualizeAdvanceIteration {
                    transversals_tested: tested,
                    counterexample: None,
                    maximal_found: None,
                    extension_queries: 0,
                });
                ctl.observer.on_iteration(iterations.len(), tested, false);
                maximal.sort_by(|a, b| a.cmp_card_lex(b));
                certificate.sort_by(|a, b| a.cmp_card_lex(b));
                return Ok(Outcome::Complete(DualizeAdvanceRun {
                    maximal,
                    negative_border: certificate,
                    iterations,
                    queries,
                }));
            }
            Some(x) => {
                // A fault in the extension rolls back to the last safe
                // point: the counterexample query and any extension
                // queries are re-issued on resume.
                let (y, ext_q, tripped) = greedy_extend(oracle, x.clone(), &ext_order, ctl, fault)
                    .map_err(|e| {
                        ckpt.abort(e, |queries| {
                            Some(da_state(n, &maximal, &certificate, queries))
                        })
                    })?;
                queries += ext_q;
                if let Some(reason) = tripped {
                    iterations.push(DualizeAdvanceIteration {
                        transversals_tested: tested,
                        counterexample: Some(x),
                        maximal_found: None,
                        extension_queries: ext_q,
                    });
                    ctl.observer.on_iteration(iterations.len(), tested, true);
                    return Ok(Outcome::BudgetExceeded {
                        partial: partial_run(maximal, certificate, iterations, queries),
                        reason,
                    });
                }
                debug_assert!(!maximal.contains(&y));
                iterations.push(DualizeAdvanceIteration {
                    transversals_tested: tested,
                    counterexample: Some(x),
                    maximal_found: Some(y.clone()),
                    extension_queries: ext_q,
                });
                ctl.observer.on_iteration(iterations.len(), tested, true);
                maximal.push(y);
                ckpt.safe_point(queries, ctl, || da_state(n, &maximal, &[], queries))?;
            }
        }
    }
}

/// Step 9: grow an interesting set to a maximal interesting set, one
/// attribute at a time, trying attributes in `order` (ascending indices
/// when `None`). A single pass suffices: a rejected extension stays
/// rejected as the set grows (monotonicity), so the result is maximal.
/// Uses at most `width = n − |x|` queries — within the paper's
/// `rank(MTh) · width` allowance. The order changes which maximal set is
/// reached, never maximality — the DESIGN.md §5 ablation knob.
pub fn greedy_maximize<O: InterestOracle>(
    oracle: &O,
    x: AttrSet,
    order: Option<&[usize]>,
) -> (AttrSet, u64) {
    let ascending: Vec<usize> = (0..oracle.universe_size()).collect();
    let meter = Meter::unlimited();
    let ctl = RunCtl::new(&meter, &NoopObserver);
    let order = order.unwrap_or(&ascending);
    match greedy_extend(oracle, x, order, &ctl, &FaultCtl::none()) {
        Ok((y, queries, _)) => (y, queries),
        Err(e) => unreachable!("no faults injected: {e}"),
    }
}

/// Budget-aware greedy extension under the run's faults: polls the meter
/// before every query and bails with the trip reason; the returned set is
/// then interesting but not verified maximal, so callers must not add it
/// to the MTh prefix. The extension is *atomic* with respect to
/// checkpointing: an oracle error (after retries) discards the whole
/// extension and the caller rolls back to its last safe point — partial
/// extensions are never persisted.
fn greedy_extend<O: InterestOracle>(
    oracle: &O,
    mut x: AttrSet,
    order: &[usize],
    ctl: &RunCtl<'_>,
    fault: &FaultCtl<'_>,
) -> Result<(AttrSet, u64, Option<BudgetReason>), OracleError> {
    let mut queries = 0u64;
    for &v in order {
        if x.contains(v) {
            continue;
        }
        if let Some(reason) = ctl.meter.exceeded() {
            return Ok((x, queries, Some(reason)));
        }
        x.insert(v);
        queries += 1;
        ctl.meter.record_query();
        if !query_with_retry(&x, fault, ctl, || oracle.is_interesting(&x))? {
            x.remove(v);
        }
    }
    Ok((x, queries, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{CountingOracle, FamilyOracle, FnOracle};
    use dualminer_bitset::Universe;

    fn fig1_oracle() -> CountingOracle<FamilyOracle> {
        let u = Universe::letters(4);
        CountingOracle::new(FamilyOracle::new(
            4,
            vec![u.parse("ABC").unwrap(), u.parse("BD").unwrap()],
        ))
    }

    #[test]
    fn example_17_trace() {
        let u = Universe::letters(4);
        let oracle = fig1_oracle();
        let run = dualize_advance(&oracle, TrAlgorithm::Berge);
        assert_eq!(u.display_family(run.maximal.iter()), "{BD, ABC}");
        assert_eq!(u.display_family(run.negative_border.iter()), "{AD, CD}");
        // Iterations: seed-extend to ABC, advance to BD, certify.
        assert_eq!(run.iterations.len(), 3);
        assert_eq!(
            run.iterations[0].maximal_found,
            Some(u.parse("ABC").unwrap())
        );
        assert_eq!(
            run.iterations[1].maximal_found,
            Some(u.parse("BD").unwrap())
        );
        assert!(run.iterations[2].counterexample.is_none());
        assert_eq!(run.iterations[2].transversals_tested, 2);
    }

    #[test]
    fn all_strategies_agree() {
        for algo in [
            TrAlgorithm::Auto,
            TrAlgorithm::Berge,
            TrAlgorithm::FkJointGeneration,
            TrAlgorithm::LevelwiseLargeEdges,
            TrAlgorithm::MuMmcs,
            TrAlgorithm::Egm,
        ] {
            let oracle = fig1_oracle();
            let run = dualize_advance(&oracle, algo);
            let u = Universe::letters(4);
            assert_eq!(
                u.display_family(run.maximal.iter()),
                "{BD, ABC}",
                "{algo:?}"
            );
            assert_eq!(
                u.display_family(run.negative_border.iter()),
                "{AD, CD}",
                "{algo:?}"
            );
        }
    }

    #[test]
    fn empty_theory() {
        let oracle = FnOracle::new(4, |_: &AttrSet| false);
        let run = dualize_advance(&oracle, TrAlgorithm::Berge);
        assert!(run.maximal.is_empty());
        assert_eq!(run.negative_border, vec![AttrSet::empty(4)]);
        assert_eq!(run.queries, 1);
    }

    #[test]
    fn only_empty_interesting() {
        let oracle = FnOracle::new(3, |x: &AttrSet| x.is_empty());
        let run = dualize_advance(&oracle, TrAlgorithm::Berge);
        assert_eq!(run.maximal, vec![AttrSet::empty(3)]);
        assert_eq!(run.negative_border.len(), 3); // the singletons
    }

    #[test]
    fn full_theory() {
        let oracle = FnOracle::new(5, |_: &AttrSet| true);
        let run = dualize_advance(&oracle, TrAlgorithm::Berge);
        assert_eq!(run.maximal, vec![AttrSet::full(5)]);
        assert!(run.negative_border.is_empty());
        // 1 (seed) + 5 (extension) + 0 (no transversals of empty
        // complement... complements = {∅} → Tr = ∅).
        assert_eq!(run.queries, 6);
    }

    #[test]
    fn matches_levelwise_on_random_oracles() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..25 {
            let n = rng.gen_range(3..8);
            let m = rng.gen_range(1..4);
            let family: Vec<AttrSet> = (0..m)
                .map(|_| {
                    let k = rng.gen_range(1..=n);
                    AttrSet::from_indices(n, (0..k).map(|_| rng.gen_range(0..n)))
                })
                .collect();
            let o1 = FamilyOracle::new(n, family.clone());
            let lw = crate::levelwise::levelwise(&o1);
            for algo in [TrAlgorithm::Berge, TrAlgorithm::FkJointGeneration] {
                let o2 = FamilyOracle::new(n, family.clone());
                let da = dualize_advance(&o2, algo);
                assert_eq!(da.maximal, lw.positive_border, "family={family:?}");
                assert_eq!(da.negative_border, lw.negative_border, "family={family:?}");
            }
        }
    }

    #[test]
    fn greedy_maximize_is_maximal() {
        let oracle = fig1_oracle();
        let (y, q) = greedy_maximize(&oracle, AttrSet::empty(4), None);
        let u = Universe::letters(4);
        assert_eq!(y, u.parse("ABC").unwrap());
        assert_eq!(q, 4); // one query per attribute
                          // Reverse order reaches the other maximal set.
        let (y2, _) = greedy_maximize(&oracle, AttrSet::empty(4), Some(&[3, 2, 1, 0]));
        assert_eq!(y2, u.parse("BD").unwrap());
    }

    #[test]
    fn lemma20_on_example() {
        let oracle = fig1_oracle();
        let run = dualize_advance(&oracle, TrAlgorithm::Berge);
        let bd_minus = run.negative_border.len();
        for it in &run.iterations {
            assert!(it.transversals_tested <= bd_minus);
        }
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;
    use crate::oracle::FamilyOracle;
    use dualminer_bitset::Universe;

    fn run_with_order(oracle: &FamilyOracle, order: ExtensionOrder) -> DualizeAdvanceRun {
        let meter = Meter::unlimited();
        let ctl = RunCtl::new(&meter, &NoopObserver);
        let config = DualizeAdvanceConfig {
            extension_order: order,
        };
        dualize_advance_ctl(
            oracle,
            TrAlgorithm::Berge,
            &config,
            &ctl,
            &FaultCtl::none(),
            None,
        )
        .expect("infallible oracle")
        .expect_complete()
    }

    #[test]
    fn extension_order_changes_trajectory_not_answer() {
        let u = Universe::letters(4);
        let maxth = vec![u.parse("ABC").unwrap(), u.parse("BD").unwrap()];
        let mut runs = Vec::new();
        for order in [ExtensionOrder::Ascending, ExtensionOrder::Descending] {
            runs.push(run_with_order(&FamilyOracle::new(4, maxth.clone()), order));
        }
        // Same MTh and Bd⁻…
        assert_eq!(runs[0].maximal, runs[1].maximal);
        assert_eq!(runs[0].negative_border, runs[1].negative_border);
        // …but the first maximal set found differs (ABC vs BD).
        assert_ne!(
            runs[0].iterations[0].maximal_found,
            runs[1].iterations[0].maximal_found
        );
    }

    #[test]
    fn custom_order_is_respected() {
        let u = Universe::letters(4);
        let maxth = vec![u.parse("ABC").unwrap(), u.parse("BD").unwrap()];
        let run = run_with_order(
            &FamilyOracle::new(4, maxth),
            ExtensionOrder::Custom(vec![3, 1, 2, 0]),
        );
        // Trying D first reaches BD before ABC.
        assert_eq!(
            run.iterations[0].maximal_found,
            Some(u.parse("BD").unwrap())
        );
    }

    #[test]
    fn partial_custom_order_still_reaches_maximal_sets() {
        // Every subset of {0, 1} is interesting. An order naming only
        // attribute 0 must still try attribute 1, or the seed extension
        // stops at {0} and a non-maximal set enters MTh.
        let oracle = FamilyOracle::new(2, vec![AttrSet::full(2)]);
        let default = run_with_order(&oracle, ExtensionOrder::Ascending);
        let partial = run_with_order(&oracle, ExtensionOrder::Custom(vec![0]));
        assert_eq!(partial.maximal, vec![AttrSet::full(2)]);
        assert_eq!(partial.maximal, default.maximal);
        assert_eq!(partial.negative_border, default.negative_border);
    }

    #[test]
    fn custom_order_skips_repeats_and_appends_omitted_attributes() {
        let order = ExtensionOrder::Custom(vec![3, 1, 3, 1]);
        assert_eq!(order.materialize(5), vec![3, 1, 0, 2, 4]);
    }
}
