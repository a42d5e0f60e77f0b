//! Fault-tolerance integration tests: deterministic retry, crash-safe
//! checkpoint/resume equivalence, and the seeded fault-injection harness.
//!
//! The contract under test: for every checkpoint a run passes through, a
//! run resumed from that checkpoint produces **bit-identical** results —
//! theory, borders, per-level candidate counts, and total logical query
//! accounting — at every thread count; and a transient-fault schedule
//! absorbed by retries changes nothing but the separately metered
//! retry/fault counters.

use dualminer_bitset::AttrSet;
use dualminer_core::checkpoint::{FaultCtl, ResumeState};
use dualminer_core::dualize_advance::{
    dualize_advance_ctl, DualizeAdvanceConfig, DualizeAdvanceRun,
};
use dualminer_core::levelwise::{levelwise_ctl, LevelwiseRun};
use dualminer_core::oracle::FamilyOracle;
use dualminer_hypergraph::TrAlgorithm;
use dualminer_obs::{
    Budget, CheckpointError, CheckpointSink, FaultPlan, FaultSpec, FnvStream, Json,
    MemoryCheckpoints, Meter, NoopObserver, RetryPolicy, RunCtl, RunError,
};

/// A planted monotone predicate over 7 attributes with overlapping maximal
/// sets — small enough to enumerate, irregular enough to exercise several
/// levels and a non-trivial negative border.
fn planted() -> FamilyOracle {
    let n = 7;
    FamilyOracle::new(
        n,
        vec![
            AttrSet::from_indices(n, [0, 1, 2]),
            AttrSet::from_indices(n, [2, 3]),
            AttrSet::from_indices(n, [1, 4, 5]),
            AttrSet::from_indices(n, [5, 6]),
        ],
    )
}

/// Example 19's matching instance as a family oracle: interesting = misses
/// some edge of the perfect matching, so `Bd⁻ = Tr(H)` with `2^pairs`
/// members — the Dualize-and-Advance stress shape.
fn matching(pairs: usize) -> FamilyOracle {
    let n = 2 * pairs;
    FamilyOracle::new(
        n,
        (0..pairs)
            .map(|i| AttrSet::from_indices(n, [2 * i, 2 * i + 1]).complement())
            .collect(),
    )
}

/// `base` with `plan`'s faults injected before every query.
fn injecting<'a>(plan: &'a FaultPlan, base: FaultCtl<'a>) -> FaultCtl<'a> {
    FaultCtl {
        plan: Some(plan),
        ..base
    }
}

fn lw_scratch(oracle: &FamilyOracle) -> LevelwiseRun {
    let meter = Meter::unlimited();
    let ctl = RunCtl::new(&meter, &NoopObserver);
    levelwise_ctl(oracle, 1, &ctl, &FaultCtl::none(), None)
        .expect("infallible")
        .expect_complete()
}

fn da_scratch(oracle: &FamilyOracle, algo: TrAlgorithm) -> DualizeAdvanceRun {
    let meter = Meter::unlimited();
    let ctl = RunCtl::new(&meter, &NoopObserver);
    dualize_advance_ctl(
        oracle,
        algo,
        &DualizeAdvanceConfig::default(),
        &ctl,
        &FaultCtl::none(),
        None,
    )
    .expect("infallible")
    .expect_complete()
}

fn assert_lw_eq(got: &LevelwiseRun, want: &LevelwiseRun, context: &str) {
    assert_eq!(got.theory, want.theory, "{context}: theory");
    assert_eq!(
        got.positive_border, want.positive_border,
        "{context}: positive border"
    );
    assert_eq!(
        got.negative_border, want.negative_border,
        "{context}: negative border"
    );
    assert_eq!(
        got.candidates_per_level, want.candidates_per_level,
        "{context}: candidates per level"
    );
    assert_eq!(got.queries, want.queries, "{context}: queries");
}

fn assert_da_eq(got: &DualizeAdvanceRun, want: &DualizeAdvanceRun, context: &str) {
    assert_eq!(got.maximal, want.maximal, "{context}: maximal");
    assert_eq!(
        got.negative_border, want.negative_border,
        "{context}: negative border"
    );
    assert_eq!(got.queries, want.queries, "{context}: queries");
}

/// A run saving at every safe point, at one thread or two, records its
/// thread count, and a resume from each checkpoint at any thread count is
/// bit-identical to scratch (the ordered-merge contract), never an error.
#[test]
fn levelwise_resume_matches_scratch_from_every_checkpoint() {
    let scratch = lw_scratch(&planted());
    for saving_threads in [1u64, 2] {
        let sink = MemoryCheckpoints::new();
        let meter = Meter::unlimited();
        let ctl = RunCtl::new(&meter, &NoopObserver);
        let fault = FaultCtl::checkpointed(RetryPolicy::none(), &sink, 1);
        let run = levelwise_ctl(&planted(), saving_threads as usize, &ctl, &fault, None)
            .expect("no faults injected")
            .expect_complete();
        assert_lw_eq(&run, &scratch, "checkpointing run");
        let saved = sink.all();
        assert!(saved.len() >= 3, "expected one save per level boundary");

        for (i, envelope) in saved.iter().enumerate() {
            let ResumeState::Levelwise(state) =
                ResumeState::from_envelope(envelope).expect("decodable checkpoint")
            else {
                panic!("wrong checkpoint kind");
            };
            assert_eq!(state.threads, saving_threads, "checkpoint {i}");
            for threads in [1usize, 2, 4, 8] {
                let resumed = levelwise_ctl(
                    &planted(),
                    threads,
                    &ctl,
                    &FaultCtl::none(),
                    Some(state.clone()),
                )
                .expect("no faults injected")
                .expect_complete();
                let context =
                    format!("saved at {saving_threads}, checkpoint {i}, threads {threads}");
                assert_lw_eq(&resumed, &scratch, &context);
            }
        }
    }
}

#[test]
fn dualize_advance_resume_matches_scratch_from_every_checkpoint() {
    for algo in [TrAlgorithm::Berge, TrAlgorithm::FkJointGeneration] {
        let scratch = da_scratch(&matching(3), algo);

        let sink = MemoryCheckpoints::new();
        {
            let meter = Meter::unlimited();
            let ctl = RunCtl::new(&meter, &NoopObserver);
            let fault = FaultCtl::checkpointed(RetryPolicy::none(), &sink, 1);
            let oracle = matching(3);
            let run = dualize_advance_ctl(
                &oracle,
                algo,
                &DualizeAdvanceConfig::default(),
                &ctl,
                &fault,
                None,
            )
            .expect("no faults injected")
            .expect_complete();
            assert_da_eq(&run, &scratch, &format!("{algo:?}: checkpointing run"));
        }
        let saved = sink.all();
        assert!(saved.len() >= 3, "{algo:?}: expected several safe points");

        for (i, envelope) in saved.iter().enumerate() {
            let ResumeState::DualizeAdvance(state) =
                ResumeState::from_envelope(envelope).expect("decodable checkpoint")
            else {
                panic!("wrong checkpoint kind");
            };
            let meter = Meter::unlimited();
            let ctl = RunCtl::new(&meter, &NoopObserver);
            let oracle = matching(3);
            let resumed = dualize_advance_ctl(
                &oracle,
                algo,
                &DualizeAdvanceConfig::default(),
                &ctl,
                &FaultCtl::none(),
                Some(state.clone()),
            )
            .expect("no faults injected")
            .expect_complete();
            assert_da_eq(&resumed, &scratch, &format!("{algo:?}: checkpoint {i}"));
        }
    }
}

#[test]
fn levelwise_killed_at_every_query_resumes_identically() {
    let scratch = lw_scratch(&planted());
    let mut aborts = 0u32;
    for k in 0..scratch.queries {
        let sink = MemoryCheckpoints::new();
        let spec = FaultSpec {
            permanent_at: vec![k],
            ..FaultSpec::default()
        };
        let meter = Meter::unlimited();
        let ctl = RunCtl::new(&meter, &NoopObserver);
        let plan = spec.plan();
        let fault = injecting(&plan, FaultCtl::checkpointed(RetryPolicy::none(), &sink, 1));
        let oracle = planted();
        let aborted =
            levelwise_ctl(&oracle, 1, &ctl, &fault, None).expect_err("permanent fault must abort");
        assert!(matches!(aborted.error, RunError::Oracle(ref e) if !e.is_transient()));
        aborts += 1;

        // Resume from the aborted run's own safe point (None before the
        // first boundary = start from scratch) with a healthy oracle.
        let resume = aborted.resume.map(|state| match *state {
            ResumeState::Levelwise(s) => s,
            other => panic!("wrong kind {}", other.kind()),
        });
        let meter = Meter::unlimited();
        let ctl = RunCtl::new(&meter, &NoopObserver);
        let oracle = planted();
        let resumed = levelwise_ctl(&oracle, 1, &ctl, &FaultCtl::none(), resume)
            .expect("healthy oracle")
            .expect_complete();
        assert_lw_eq(&resumed, &scratch, &format!("killed at query {k}"));
    }
    assert_eq!(u64::from(aborts), scratch.queries);
}

#[test]
fn dualize_advance_killed_at_every_query_resumes_identically() {
    let algo = TrAlgorithm::FkJointGeneration;
    let scratch = da_scratch(&matching(3), algo);
    for k in 0..scratch.queries {
        let sink = MemoryCheckpoints::new();
        let spec = FaultSpec {
            permanent_at: vec![k],
            ..FaultSpec::default()
        };
        let meter = Meter::unlimited();
        let ctl = RunCtl::new(&meter, &NoopObserver);
        let plan = spec.plan();
        let fault = injecting(&plan, FaultCtl::checkpointed(RetryPolicy::none(), &sink, 1));
        let oracle = matching(3);
        let aborted = dualize_advance_ctl(
            &oracle,
            algo,
            &DualizeAdvanceConfig::default(),
            &ctl,
            &fault,
            None,
        )
        .expect_err("permanent fault must abort");
        let resume = aborted.resume.map(|state| match *state {
            ResumeState::DualizeAdvance(s) => s,
            other => panic!("wrong kind {}", other.kind()),
        });
        let meter = Meter::unlimited();
        let ctl = RunCtl::new(&meter, &NoopObserver);
        let oracle = matching(3);
        let resumed = dualize_advance_ctl(
            &oracle,
            algo,
            &DualizeAdvanceConfig::default(),
            &ctl,
            &FaultCtl::none(),
            resume,
        )
        .expect("healthy oracle")
        .expect_complete();
        assert_da_eq(&resumed, &scratch, &format!("killed at query {k}"));
    }
}

#[test]
fn transient_schedule_completes_identically_across_thread_counts() {
    let scratch = lw_scratch(&planted());
    let spec = FaultSpec::parse("seed=42,transient=0.5").expect("valid spec");
    let mut retry_totals = Vec::new();
    for threads in [1usize, 4] {
        let oracle = planted();
        let meter = Meter::unlimited();
        let ctl = RunCtl::new(&meter, &NoopObserver);
        let plan = spec.plan();
        let fault = injecting(&plan, FaultCtl::with_retry(RetryPolicy::retries(3)));
        let run = levelwise_ctl(&oracle, threads, &ctl, &fault, None)
            .expect("transients absorbed by retries")
            .expect_complete();
        assert_lw_eq(&run, &scratch, &format!("threads {threads}"));
        // One logical query per candidate, regardless of retries.
        assert_eq!(meter.queries(), scratch.queries, "threads {threads}");
        assert!(meter.retries() > 0, "seeded schedule must inject something");
        assert_eq!(
            meter.retries(),
            meter.faults(),
            "every transient fault is followed by exactly one (successful) retry"
        );
        retry_totals.push(meter.retries());
    }
    // Content-keyed faults: the injected schedule — and so the retry
    // bill — is identical at every thread count.
    assert_eq!(retry_totals[0], retry_totals[1]);
}

#[test]
fn transient_schedule_on_dualize_advance_completes_identically() {
    let spec = FaultSpec::parse("seed=9,transient=0.4").expect("valid spec");
    for algo in [TrAlgorithm::Berge, TrAlgorithm::FkJointGeneration] {
        let scratch = da_scratch(&matching(3), algo);
        // The run's `queries` field is the Theorem-21 border accounting;
        // the meter additionally records greedy-extension queries, so the
        // fault-free meter reading is the baseline for "no extra logical
        // queries under retries".
        let scratch_meter = {
            let meter = Meter::unlimited();
            let ctl = RunCtl::new(&meter, &NoopObserver);
            let oracle = matching(3);
            dualize_advance_ctl(
                &oracle,
                algo,
                &DualizeAdvanceConfig::default(),
                &ctl,
                &FaultCtl::none(),
                None,
            )
            .expect("infallible")
            .expect_complete();
            meter.queries()
        };
        let meter = Meter::unlimited();
        let ctl = RunCtl::new(&meter, &NoopObserver);
        let plan = spec.plan();
        let fault = injecting(&plan, FaultCtl::with_retry(RetryPolicy::retries(3)));
        let oracle = matching(3);
        let run = dualize_advance_ctl(
            &oracle,
            algo,
            &DualizeAdvanceConfig::default(),
            &ctl,
            &fault,
            None,
        )
        .expect("transients absorbed by retries")
        .expect_complete();
        assert_da_eq(&run, &scratch, &format!("{algo:?}"));
        assert_eq!(meter.queries(), scratch_meter, "{algo:?}");
        assert!(meter.retries() > 0, "{algo:?}");
    }
}

#[test]
fn steal_heavy_skew_with_seeded_faults_matches_sequential() {
    // Adversarial scheduler workload: one giant maximal set — a deep,
    // wide subtree of interesting candidates — among tiny ones, so the
    // worker that claims the giant range holds nearly all the work and
    // the others must take the rest. Under a seeded content-keyed
    // transient fault schedule absorbed by retries, output AND
    // fault/retry totals must match the sequential run at every thread
    // count.
    let n = 14;
    let family = vec![
        AttrSet::from_indices(n, 0..10),
        AttrSet::from_indices(n, [10]),
        AttrSet::from_indices(n, [11]),
        AttrSet::from_indices(n, [12, 13]),
    ];
    let spec = FaultSpec::parse("seed=7,transient=0.05").unwrap();
    let retry = RetryPolicy::retries(1);

    let seq_meter = Meter::unlimited();
    let ctl = RunCtl::new(&seq_meter, &NoopObserver);
    let oracle = FamilyOracle::new(n, family.clone());
    let plan = spec.plan();
    let fault = injecting(&plan, FaultCtl::with_retry(retry));
    let scratch = levelwise_ctl(&oracle, 1, &ctl, &fault, None)
        .expect("transients absorbed by retries")
        .expect_complete();
    assert!(seq_meter.faults() > 0, "fault schedule must fire");

    for threads in [2usize, 8] {
        let meter = Meter::unlimited();
        let ctl = RunCtl::new(&meter, &NoopObserver);
        let oracle = FamilyOracle::new(n, family.clone());
        let plan = spec.plan();
        let fault = injecting(&plan, FaultCtl::with_retry(retry));
        let run = levelwise_ctl(&oracle, threads, &ctl, &fault, None)
            .expect("transients absorbed by retries")
            .expect_complete();
        assert_lw_eq(
            &run,
            &scratch,
            &format!("steal-heavy skew, threads {threads}"),
        );
        assert_eq!(meter.faults(), seq_meter.faults(), "threads {threads}");
        assert_eq!(meter.retries(), seq_meter.retries(), "threads {threads}");
    }
}

#[test]
fn retry_exhaustion_aborts_with_resumable_state() {
    // A burst longer than the retry budget at a call past the first safe
    // point: the run must abort with a transient error and offer resume.
    let spec = FaultSpec {
        burst: Some((5, 10)),
        ..FaultSpec::default()
    };
    let sink = MemoryCheckpoints::new();
    let meter = Meter::unlimited();
    let ctl = RunCtl::new(&meter, &NoopObserver);
    let plan = spec.plan();
    let fault = injecting(
        &plan,
        FaultCtl::checkpointed(RetryPolicy::retries(2), &sink, 1),
    );
    let oracle = planted();
    let aborted =
        levelwise_ctl(&oracle, 1, &ctl, &fault, None).expect_err("burst outlives retries");
    assert!(matches!(aborted.error, RunError::Oracle(ref e) if e.is_transient()));
    assert!(aborted.resume.is_some(), "past the first boundary");
    assert_eq!(meter.retries(), 2, "retry budget fully spent");

    let resume = aborted.resume.map(|state| match *state {
        ResumeState::Levelwise(s) => s,
        other => panic!("wrong kind {}", other.kind()),
    });
    let meter = Meter::unlimited();
    let ctl = RunCtl::new(&meter, &NoopObserver);
    let oracle = planted();
    let resumed = levelwise_ctl(&oracle, 1, &ctl, &FaultCtl::none(), resume)
        .expect("healthy oracle")
        .expect_complete();
    assert_lw_eq(&resumed, &lw_scratch(&planted()), "after burst abort");
}

/// A sink whose saves always fail — the crash-safety contract says the run
/// must abort (continuing would silently break the resume guarantee).
struct FailingSink;

impl CheckpointSink for FailingSink {
    fn save(&self, _kind: &str, _payload: &Json) -> Result<(), CheckpointError> {
        Err(CheckpointError::Io("disk full".into()))
    }
}

#[test]
fn failed_checkpoint_save_aborts_the_run() {
    let sink = FailingSink;
    let meter = Meter::unlimited();
    let ctl = RunCtl::new(&meter, &NoopObserver);
    let fault = FaultCtl::checkpointed(RetryPolicy::none(), &sink, 1);
    let oracle = planted();
    let aborted =
        levelwise_ctl(&oracle, 1, &ctl, &fault, None).expect_err("failed save must abort");
    assert!(matches!(aborted.error, RunError::Checkpoint(_)));

    // The same policy on Dualize & Advance: its first safe point's save
    // fails, and the abort hands back the state it could not persist.
    for algo in [TrAlgorithm::Berge, TrAlgorithm::FkJointGeneration] {
        let aborted = dualize_advance_ctl(
            &matching(3),
            algo,
            &DualizeAdvanceConfig::default(),
            &ctl,
            &fault,
            None,
        )
        .expect_err("failed save must abort");
        assert!(matches!(aborted.error, RunError::Checkpoint(_)), "{algo:?}");
        assert!(
            matches!(
                aborted.resume.as_deref(),
                Some(ResumeState::DualizeAdvance(_))
            ),
            "{algo:?}"
        );
    }
}

#[test]
fn checkpoint_cadence_batches_saves() {
    // every=1 saves at each boundary; a huge cadence saves (at most) once
    // after the query counter finally clears it.
    let count_saves = |every: u64| {
        let sink = MemoryCheckpoints::new();
        let meter = Meter::unlimited();
        let ctl = RunCtl::new(&meter, &NoopObserver);
        let fault = FaultCtl::checkpointed(RetryPolicy::none(), &sink, every);
        let oracle = planted();
        levelwise_ctl(&oracle, 1, &ctl, &fault, None)
            .expect("no faults")
            .expect_complete();
        sink.len()
    };
    let dense = count_saves(1);
    let sparse = count_saves(1_000_000);
    assert!(dense > sparse, "dense {dense} vs sparse {sparse}");

    // The same cadence on Dualize & Advance, both enumerations: each save
    // lands at least `every` queries after the one before it.
    for algo in [TrAlgorithm::Berge, TrAlgorithm::FkJointGeneration] {
        let saved_queries = |every: u64| {
            let sink = MemoryCheckpoints::new();
            let meter = Meter::unlimited();
            let ctl = RunCtl::new(&meter, &NoopObserver);
            let fault = FaultCtl::checkpointed(RetryPolicy::none(), &sink, every);
            dualize_advance_ctl(
                &matching(3),
                algo,
                &DualizeAdvanceConfig::default(),
                &ctl,
                &fault,
                None,
            )
            .expect("no faults")
            .expect_complete();
            sink.all()
                .iter()
                .map(|envelope| match ResumeState::from_envelope(envelope) {
                    Ok(ResumeState::DualizeAdvance(state)) => state.queries,
                    other => panic!("{algo:?}: not a D&A state: {other:?}"),
                })
                .collect::<Vec<u64>>()
        };
        let dense = saved_queries(1);
        let batched = saved_queries(4);
        let sparse = saved_queries(1_000_000);
        assert!(
            dense.len() > batched.len() && batched.len() > sparse.len(),
            "{algo:?}: {dense:?} / {batched:?} / {sparse:?}"
        );
        assert!(
            batched.windows(2).all(|w| w[1] - w[0] >= 4),
            "{algo:?}: {batched:?}"
        );
    }
}

/// Canonical text of one joint-generation D&A run under `budget`, saving
/// every safe point: the partial answer, its counters, the meter's query
/// and transversal counts, and every saved `DaState`.
fn fk_run_record(oracle: &FamilyOracle, budget: Budget) -> String {
    let sink = MemoryCheckpoints::new();
    let meter = budget.start();
    let ctl = RunCtl::new(&meter, &NoopObserver);
    let fault = FaultCtl::checkpointed(RetryPolicy::none(), &sink, 1);
    let (run, reason) = dualize_advance_ctl(
        oracle,
        TrAlgorithm::FkJointGeneration,
        &DualizeAdvanceConfig::default(),
        &ctl,
        &fault,
        None,
    )
    .expect("infallible")
    .into_parts();
    let family = |f: &[AttrSet]| {
        f.iter()
            .map(|s| format!("{:?}", s.iter().collect::<Vec<_>>()))
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut record = format!(
        "{reason:?} maximal={} border={} queries={} iterations={} meter={}/{}",
        family(&run.maximal),
        family(&run.negative_border),
        run.queries,
        run.iterations.len(),
        meter.queries(),
        meter.transversals()
    );
    for envelope in sink.all() {
        let ResumeState::DualizeAdvance(state) =
            ResumeState::from_envelope(&envelope).expect("decodable checkpoint")
        else {
            panic!("wrong checkpoint kind");
        };
        record += &format!(" | {}", state.to_json());
    }
    record
}

/// Pins where budgets stop the joint-generation driver and what it saves:
/// for every `max_queries` K up to the complete run's meter count and
/// every `max_transversals` K up to `|Bd⁻|`, the partial `maximal`,
/// `negative_border`, `queries`, `iterations.len()`, the meter's counts
/// and each `DaState` saved with `every = 1` are folded into one digest
/// per sweep. The digests were recorded from a known-good build; moving
/// any trip point, counter, event or checkpoint cursor changes them.
#[test]
fn fk_budget_trips_and_saved_states_are_pinned() {
    // (name, oracle, complete meter queries, |Bd⁻|, digests of the
    // complete record, the max_queries sweep, the max_transversals sweep)
    let cases = [
        (
            "planted",
            planted(),
            336u64,
            13u64,
            [
                9870321862887456365u64,
                4114201784529027253,
                4044201120972613195,
            ],
        ),
        (
            "matching(4)",
            matching(4),
            164,
            16,
            [
                1515353171076714140,
                12709484412612487784,
                12631546742533674288,
            ],
        ),
    ];
    for (name, oracle, queries, border, pinned) in cases {
        let full = da_scratch(&oracle, TrAlgorithm::FkJointGeneration);
        assert_eq!(full.negative_border.len() as u64, border, "{name}");
        let record = fk_run_record(&oracle, Budget::default());
        assert!(
            record.contains(&format!("meter={queries}/")),
            "{name}: {record}"
        );
        let digest = |records: Vec<String>| {
            let mut h = FnvStream::new();
            for r in records {
                h.update(r.as_bytes());
                h.update(b"\n");
            }
            h.digest()
        };
        let max_queries = |k| Budget {
            max_queries: Some(k),
            ..Budget::default()
        };
        let max_transversals = |k| Budget {
            max_transversals: Some(k),
            ..Budget::default()
        };
        let got = [
            digest(vec![record]),
            digest(
                (1..=queries)
                    .map(|k| fk_run_record(&oracle, max_queries(k)))
                    .collect(),
            ),
            digest(
                (1..=border)
                    .map(|k| fk_run_record(&oracle, max_transversals(k)))
                    .collect(),
            ),
        ];
        assert_eq!(got, pinned, "{name}");
    }
}
