//! The query step: one logical `Is-interesting` query under fault
//! injection and retries.
//!
//! The paper's model of computation assumes the oracle always answers; a
//! production deployment reaches the database over I/O that can time out
//! or break mid-run. Every driver issues its queries through
//! [`query_with_retry`], the one place faults enter a run: before each
//! attempt it consults the run's seeded fault schedule
//! ([`FaultCtl::plan`], the harness behind `--fault-inject`), and only an
//! attempt the schedule lets through reaches the (infallible) evaluation.
//! An injected failure therefore never corrupts oracle state, and a
//! retried attempt reaches the oracle exactly like a first attempt would.
//!
//! Recovery is bounded and deterministic (jitter-free) per
//! [`RetryPolicy`]. One **logical** query is still one
//! [`Meter::record_query`](dualminer_obs::Meter::record_query) no matter
//! how many attempts it takes — the Theorem-10/21 accounting never sees
//! faults; retries and faults are metered on their own counters.

use dualminer_bitset::AttrSet;
use dualminer_obs::{fnv1a64, FaultPlan, OracleError, RetryPolicy, RunCtl};

use crate::checkpoint::FaultCtl;

/// The content key of a query: a stable hash of the queried set's
/// indices. The fault schedule keys its content-based decisions on this,
/// so which queries fault depends only on the fault seed and the query
/// itself — never on thread scheduling or arrival order.
fn query_key(x: &AttrSet) -> u64 {
    let mut bytes = Vec::with_capacity(4 * x.len() + 4);
    bytes.extend_from_slice(&(x.universe_size() as u32).to_le_bytes());
    for i in x.iter() {
        bytes.extend_from_slice(&(i as u32).to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Drives one logical query on `x` to completion: each attempt first
/// sleeps the schedule's injected latency and registers one arrival with
/// `fault.plan` (when a schedule is set); transient faults are retried
/// (with the policy's deterministic backoff) up to `fault.retry`'s
/// budget, and permanent faults or an exhausted budget return `Err`. The
/// first attempt the schedule lets through runs `evaluate`. The caller
/// records the single logical query on the meter; this helper records
/// only the fault/retry side-channel counters.
///
/// Inlined so that a run without a schedule pays one branch per query:
/// the retry loop lives out of line in `admit`.
#[inline]
pub fn query_with_retry<T>(
    x: &AttrSet,
    fault: &FaultCtl<'_>,
    ctl: &RunCtl<'_>,
    evaluate: impl FnOnce() -> T,
) -> Result<T, OracleError> {
    if let Some(plan) = fault.plan {
        admit(plan, x, &fault.retry, ctl)?;
    }
    Ok(evaluate())
}

/// Attempts the query on `x` against `plan` until an attempt goes
/// through. Every fault is metered; a transient one is retried after the
/// policy's deterministic backoff while `retry` allows, and a permanent
/// one or an exhausted budget fails the query.
fn admit(
    plan: &FaultPlan,
    x: &AttrSet,
    retry: &RetryPolicy,
    ctl: &RunCtl<'_>,
) -> Result<(), OracleError> {
    let mut attempt = 0u32;
    loop {
        plan.inject_latency();
        let Err(e) = plan.check(query_key(x)) else {
            return Ok(());
        };
        ctl.meter.record_fault();
        if !e.is_transient() {
            return Err(e);
        }
        if attempt >= retry.max_retries {
            ctl.observer.on_retry(attempt, false);
            return Err(e);
        }
        attempt += 1;
        ctl.meter.record_retry();
        ctl.observer.on_retry(attempt, true);
        let backoff = retry.backoff(attempt);
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualminer_obs::{ErrorClass, FaultSpec, Meter, NoopObserver};

    /// Runs one logical query on ∅ over 3 attributes under `spec` and
    /// `retries`, returning its result and the number of evaluations.
    fn ask(spec: &str, retries: u32, meter: &Meter) -> (Result<bool, OracleError>, u32) {
        let ctl = RunCtl::new(meter, &NoopObserver);
        let plan = FaultSpec::parse(spec).unwrap().plan();
        let fault = FaultCtl {
            plan: Some(&plan),
            ..FaultCtl::with_retry(RetryPolicy::retries(retries))
        };
        let mut evaluations = 0;
        let got = query_with_retry(&AttrSet::empty(3), &fault, &ctl, || {
            evaluations += 1;
            true
        });
        (got, evaluations)
    }

    #[test]
    fn query_key_depends_on_content_only() {
        let a = AttrSet::from_indices(5, [0, 3]);
        let b = AttrSet::from_indices(5, [3, 0]);
        let c = AttrSet::from_indices(5, [0, 4]);
        assert_eq!(query_key(&a), query_key(&b));
        assert_ne!(query_key(&a), query_key(&c));
        // The universe size participates: ∅ over different universes is a
        // different logical query.
        assert_ne!(query_key(&AttrSet::empty(3)), query_key(&AttrSet::empty(4)));
    }

    #[test]
    fn injects_per_schedule_before_evaluating() {
        let meter = Meter::unlimited();
        let ctl = RunCtl::new(&meter, &NoopObserver);
        let plan = FaultSpec::parse("permanent=1").unwrap().plan();
        let fault = FaultCtl {
            plan: Some(&plan),
            ..FaultCtl::none()
        };
        let x = AttrSet::empty(3);
        assert_eq!(query_with_retry(&x, &fault, &ctl, || true), Ok(true));
        let err = query_with_retry(&x, &fault, &ctl, || unreachable!("faulted attempt"));
        assert_eq!(err.unwrap_err().class, ErrorClass::Permanent);
        assert_eq!(plan.calls(), 2);
        // Without a schedule the evaluation always runs.
        assert_eq!(query_with_retry(&x, &FaultCtl::none(), &ctl, || 7), Ok(7));
    }

    #[test]
    fn retry_recovers_from_transient_burst() {
        let meter = Meter::unlimited();
        // Two transient failures, then success: needs 2 retries.
        assert_eq!(ask("burst=2@0", 3, &meter), (Ok(true), 1));
        assert_eq!(meter.retries(), 2);
        assert_eq!(meter.faults(), 2);
        // Retries are NOT logical queries.
        assert_eq!(meter.queries(), 0);
    }

    #[test]
    fn retry_budget_exhaustion_fails_with_transient_error() {
        let meter = Meter::unlimited();
        let (got, evaluations) = ask("burst=5@0", 2, &meter);
        assert!(got.unwrap_err().is_transient());
        assert_eq!(evaluations, 0);
        assert_eq!(meter.retries(), 2);
        assert_eq!(meter.faults(), 3); // initial attempt + 2 retries
    }

    #[test]
    fn permanent_error_is_never_retried() {
        let meter = Meter::unlimited();
        let (got, _) = ask("permanent=0", 10, &meter);
        assert!(!got.unwrap_err().is_transient());
        assert_eq!(meter.retries(), 0);
        assert_eq!(meter.faults(), 1);
    }
}
