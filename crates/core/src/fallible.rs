//! The fallible oracle tier: `Is-interesting` queries that can fail.
//!
//! The paper's model of computation assumes the oracle always answers; a
//! production deployment reaches the database over I/O that can time out
//! or break mid-run. [`TryInterestOracle`] is the fallible mirror of
//! [`InterestOracle`] — same `universe_size`, but the query returns
//! `Result<bool, OracleError>` with a transient/permanent classification.
//!
//! **Every infallible oracle is automatically a fallible one** through
//! the blanket impl on `&O`: a driver generic over `TryInterestOracle`
//! accepts `&my_oracle` and never sees an error. The blanket lives on the
//! *reference* type rather than on `O` itself so it can never overlap
//! with the [`FaultyOracle`] impl below (a downstream crate is allowed to
//! implement `InterestOracle` for `FaultyOracle<TheirType>`, which a
//! direct `impl<O: InterestOracle> TryInterestOracle for O` would then
//! collide with).
//!
//! Recovery is centralized in [`query_with_retry`]: bounded,
//! deterministic (jitter-free) retries for transient errors per
//! [`RetryPolicy`]. One **logical** query is still one
//! [`Meter::record_query`](dualminer_obs::Meter::record_query) no matter
//! how many attempts it takes — the Theorem-10/21 accounting never sees
//! faults; retries and faults are metered on their own counters.

use dualminer_bitset::AttrSet;
use dualminer_obs::{fnv1a64, FaultPlan, FaultSpec, OracleError, RetryPolicy, RunCtl};

use crate::oracle::InterestOracle;

/// A fallible `Is-interesting` oracle, shareable across worker threads.
pub trait TryInterestOracle: Sync {
    /// Number of attributes in the universe `R`.
    fn universe_size(&self) -> usize;

    /// The `Is-interesting` query; `Err` carries the failure class.
    fn try_is_interesting(&self, x: &AttrSet) -> Result<bool, OracleError>;
}

impl<O: InterestOracle + ?Sized> TryInterestOracle for &O {
    fn universe_size(&self) -> usize {
        InterestOracle::universe_size(*self)
    }
    fn try_is_interesting(&self, x: &AttrSet) -> Result<bool, OracleError> {
        Ok((**self).is_interesting(x))
    }
}

/// The content key of a query: a stable hash of the queried set's
/// indices. The fault-injection harness keys its content-based decisions
/// on this, so which queries fault depends only on the fault seed and the
/// query itself — never on thread scheduling or arrival order.
pub fn query_key(x: &AttrSet) -> u64 {
    let mut bytes = Vec::with_capacity(4 * x.len() + 4);
    bytes.extend_from_slice(&(x.universe_size() as u32).to_le_bytes());
    for i in x.iter() {
        bytes.extend_from_slice(&(i as u32).to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Wraps any oracle with a seeded, reproducible fault schedule
/// ([`FaultSpec`]): the test harness behind `--fault-inject` and the
/// fault-tolerance suite.
///
/// Faults are decided *before* the wrapped oracle runs, so an injected
/// failure never corrupts oracle state; a retried attempt arrives at the
/// wrapped oracle exactly like a first attempt would.
#[derive(Debug)]
pub struct FaultyOracle<O> {
    inner: O,
    plan: FaultPlan,
}

impl<O> FaultyOracle<O> {
    /// Wraps `inner` with a fresh run of `spec`'s schedule.
    pub fn new(inner: O, spec: &FaultSpec) -> FaultyOracle<O> {
        FaultyOracle {
            inner,
            plan: spec.plan(),
        }
    }

    /// The live fault schedule (arrival counter etc.).
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Consumes the wrapper, returning the wrapped oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: InterestOracle> TryInterestOracle for FaultyOracle<O> {
    fn universe_size(&self) -> usize {
        self.inner.universe_size()
    }
    fn try_is_interesting(&self, x: &AttrSet) -> Result<bool, OracleError> {
        self.plan.inject_latency();
        self.plan.check(query_key(x))?;
        Ok(self.inner.is_interesting(x))
    }
}

/// Drives one logical query to completion under `retry`: transient
/// errors are retried (with the policy's deterministic backoff) up to
/// `max_retries` times; permanent errors and exhausted budgets return
/// `Err`. The caller records the single logical query on the meter;
/// this helper records only the fault/retry side-channel counters.
pub fn query_with_retry<O: TryInterestOracle + ?Sized>(
    oracle: &O,
    x: &AttrSet,
    retry: &RetryPolicy,
    ctl: &RunCtl<'_>,
) -> Result<bool, OracleError> {
    let mut attempt = 0u32;
    loop {
        match oracle.try_is_interesting(x) {
            Ok(v) => return Ok(v),
            Err(e) => {
                if let Some(e) = note_fault(e, &mut attempt, retry, ctl) {
                    return Err(e);
                }
            }
        }
    }
}

/// Fault bookkeeping: meters the fault, decides retry vs. give-up,
/// sleeps the deterministic backoff. Returns `Some(e)` when the query
/// must fail, `None` when the caller should attempt again.
fn note_fault(
    e: OracleError,
    attempt: &mut u32,
    retry: &RetryPolicy,
    ctl: &RunCtl<'_>,
) -> Option<OracleError> {
    ctl.meter.record_fault();
    if !e.is_transient() {
        return Some(e);
    }
    if *attempt >= retry.max_retries {
        ctl.observer.on_retry(*attempt, false);
        return Some(e);
    }
    *attempt += 1;
    ctl.meter.record_retry();
    ctl.observer.on_retry(*attempt, true);
    let backoff = retry.backoff(*attempt);
    if !backoff.is_zero() {
        std::thread::sleep(backoff);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{FamilyOracle, FnOracle};
    use dualminer_obs::{ErrorClass, Meter, NoopObserver};

    #[test]
    fn blanket_impl_makes_infallible_oracles_fallible() {
        let oracle = FnOracle::new(3, |x: &AttrSet| x.len() <= 1);
        let fallible = &oracle;
        assert_eq!(TryInterestOracle::universe_size(&fallible), 3);
        assert_eq!(fallible.try_is_interesting(&AttrSet::empty(3)), Ok(true));
        assert_eq!(fallible.try_is_interesting(&AttrSet::full(3)), Ok(false));
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
    fn faulty_oracle_injects_per_schedule() {
        let spec = FaultSpec::parse("permanent=1").unwrap();
        let oracle = FaultyOracle::new(FnOracle::new(3, |_: &AttrSet| true), &spec);
        assert_eq!(oracle.try_is_interesting(&AttrSet::empty(3)), Ok(true));
        let err = oracle.try_is_interesting(&AttrSet::empty(3)).unwrap_err();
        assert_eq!(err.class, ErrorClass::Permanent);
        assert_eq!(oracle.plan().calls(), 2);
        assert_eq!(InterestOracle::universe_size(&oracle.into_inner()), 3);
    }

    #[test]
    fn retry_recovers_from_transient_burst() {
        let meter = Meter::unlimited();
        let ctl = RunCtl::new(&meter, &NoopObserver);
        let spec = FaultSpec::parse("burst=2@0").unwrap();
        let oracle = FaultyOracle::new(FamilyOracle::new(3, vec![AttrSet::full(3)]), &spec);

        // Two transient failures, then success: needs 2 retries.
        let got = query_with_retry(&oracle, &AttrSet::empty(3), &RetryPolicy::retries(3), &ctl);
        assert_eq!(got, Ok(true));
        assert_eq!(meter.retries(), 2);
        assert_eq!(meter.faults(), 2);
        // Retries are NOT logical queries.
        assert_eq!(meter.queries(), 0);
    }

    #[test]
    fn retry_budget_exhaustion_fails_with_transient_error() {
        let meter = Meter::unlimited();
        let ctl = RunCtl::new(&meter, &NoopObserver);
        let spec = FaultSpec::parse("burst=5@0").unwrap();
        let oracle = FaultyOracle::new(FnOracle::new(3, |_: &AttrSet| true), &spec);
        let got = query_with_retry(&oracle, &AttrSet::empty(3), &RetryPolicy::retries(2), &ctl);
        let err = got.unwrap_err();
        assert!(err.is_transient());
        assert_eq!(meter.retries(), 2);
        assert_eq!(meter.faults(), 3); // initial attempt + 2 retries
    }

    #[test]
    fn permanent_error_is_never_retried() {
        let meter = Meter::unlimited();
        let ctl = RunCtl::new(&meter, &NoopObserver);
        let spec = FaultSpec::parse("permanent=0").unwrap();
        let oracle = FaultyOracle::new(FnOracle::new(3, |_: &AttrSet| true), &spec);
        let got = query_with_retry(&oracle, &AttrSet::empty(3), &RetryPolicy::retries(10), &ctl);
        assert!(!got.unwrap_err().is_transient());
        assert_eq!(meter.retries(), 0);
        assert_eq!(meter.faults(), 1);
    }
}
