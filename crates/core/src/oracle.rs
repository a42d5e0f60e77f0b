//! The `Is-interesting` oracle: the paper's model of computation.
//!
//! Section 3: *"Assume the only way of getting information from the
//! database is by asking questions of the form* **Is-interesting**: *is the
//! sentence φ interesting, i.e., does q(r, φ) hold?"* Every algorithm in
//! this workspace accesses data exclusively through [`InterestOracle`], so
//! the query counts the theorems bound are measured exactly, and the same
//! algorithm code serves frequent sets, keys, and monotone-function
//! learning.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use dualminer_bitset::AttrSet;

/// An interestingness predicate `q(r, ·)` over a fixed attribute universe.
///
/// Implementations must be **monotone** in the paper's sense: if `x` is
/// interesting, every subset of `x` is interesting (under representation as
/// sets the specialization order is `⊆`, with supersets more *specific*).
/// [`check_monotone`] spot-checks the property; the concrete oracles in the
/// `mining`, `fdep` and `learning` crates are monotone by construction.
///
/// Queries go through `&self` and the trait requires `Sync`, so one
/// oracle value serves the sequential drivers and every worker of the
/// parallel ones alike. Oracles that count or memoize keep that state
/// behind a lock or atomics, as [`CountingOracle`] does.
pub trait InterestOracle: Sync {
    /// Number of attributes in the universe `R`.
    fn universe_size(&self) -> usize;

    /// The `Is-interesting` query: does `q(r, x)` hold?
    fn is_interesting(&self, x: &AttrSet) -> bool;
}

/// Wraps an oracle with query counting and memoization.
///
/// The paper's theorems count *distinct* `Is-interesting` evaluations
/// against the database; [`CountingOracle::distinct_queries`] measures
/// exactly that (cache misses), while [`CountingOracle::raw_queries`]
/// counts every call. A well-behaved algorithm never repeats a query, so
/// the two coincide — the E2 ablation asserts this for levelwise.
///
/// The memo sits behind a mutex and the raw count is an atomic, so one
/// wrapper can be shared by parallel workers. The lock is released while
/// the wrapped oracle evaluates: two workers racing on the same sentence
/// may both evaluate it, but the memo stores it once, so
/// `distinct_queries` stays exact.
#[derive(Debug)]
pub struct CountingOracle<O> {
    inner: O,
    cache: Mutex<HashMap<AttrSet, bool>>,
    raw: AtomicU64,
}

impl<O: InterestOracle> CountingOracle<O> {
    /// Wraps `inner` with a fresh counter and cache.
    pub fn new(inner: O) -> Self {
        CountingOracle {
            inner,
            cache: Mutex::new(HashMap::new()),
            raw: AtomicU64::new(0),
        }
    }

    /// Number of distinct sentences evaluated against the database.
    pub fn distinct_queries(&self) -> u64 {
        self.memo().len() as u64
    }

    /// Total calls, including cache hits.
    pub fn raw_queries(&self) -> u64 {
        self.raw.load(Ordering::Relaxed)
    }

    /// Resets both counters and the cache (e.g. between experiments on the
    /// same database).
    pub fn reset(&mut self) {
        self.memo().clear();
        self.raw.store(0, Ordering::Relaxed);
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Consumes the wrapper, returning the wrapped oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }

    fn memo(&self) -> MutexGuard<'_, HashMap<AttrSet, bool>> {
        self.cache.lock().expect("oracle memo mutex poisoned")
    }
}

impl<O: InterestOracle> InterestOracle for CountingOracle<O> {
    fn universe_size(&self) -> usize {
        self.inner.universe_size()
    }

    fn is_interesting(&self, x: &AttrSet) -> bool {
        self.raw.fetch_add(1, Ordering::Relaxed);
        if let Some(&v) = self.memo().get(x) {
            return v;
        }
        let v = self.inner.is_interesting(x);
        self.memo().insert(x.clone(), v);
        v
    }
}

/// An oracle defined directly by a family of maximal interesting sets:
/// `x` is interesting iff `x ⊆ m` for some member `m`.
///
/// This is the *planted-MTh* oracle: it lets tests and experiments dictate
/// `MTh` exactly and is trivially monotone. (Any monotone predicate over a
/// finite universe has this form — the members are its `MTh`.)
#[derive(Clone, Debug)]
pub struct FamilyOracle {
    n: usize,
    maximal: Vec<AttrSet>,
}

impl FamilyOracle {
    /// Builds the oracle; `maximal` need not be an antichain (dominated
    /// members are harmless and ignored by semantics).
    ///
    /// # Panics
    /// Panics if any member lives in a different universe.
    pub fn new(n: usize, maximal: Vec<AttrSet>) -> Self {
        for m in &maximal {
            assert_eq!(m.universe_size(), n, "member outside universe");
        }
        FamilyOracle { n, maximal }
    }

    /// The defining family.
    pub fn maximal(&self) -> &[AttrSet] {
        &self.maximal
    }
}

impl InterestOracle for FamilyOracle {
    fn universe_size(&self) -> usize {
        self.n
    }

    fn is_interesting(&self, x: &AttrSet) -> bool {
        self.maximal.iter().any(|m| x.is_subset(m))
    }
}

/// An oracle wrapping a plain closure — handy in tests.
pub struct FnOracle<F> {
    n: usize,
    f: F,
}

impl<F: Fn(&AttrSet) -> bool + Sync> FnOracle<F> {
    /// Builds an oracle over `n` attributes from the closure `f`.
    ///
    /// The closure must implement a monotone predicate; this is not
    /// checked (use [`check_monotone`] in tests).
    pub fn new(n: usize, f: F) -> Self {
        FnOracle { n, f }
    }
}

impl<F: Fn(&AttrSet) -> bool + Sync> InterestOracle for FnOracle<F> {
    fn universe_size(&self) -> usize {
        self.n
    }

    fn is_interesting(&self, x: &AttrSet) -> bool {
        (self.f)(x)
    }
}

/// Spot-checks monotonicity: for every given set, every immediate subset of
/// an interesting set must be interesting. Returns the first violation.
pub fn check_monotone<O: InterestOracle>(
    oracle: &O,
    samples: &[AttrSet],
) -> Option<(AttrSet, AttrSet)> {
    for x in samples {
        if oracle.is_interesting(x) {
            for sub in dualminer_bitset::ImmediateSubsets::new(x) {
                if !oracle.is_interesting(&sub) {
                    return Some((x.clone(), sub));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[usize]) -> AttrSet {
        AttrSet::from_indices(4, v.iter().copied())
    }

    #[test]
    fn family_oracle_semantics() {
        let o = FamilyOracle::new(4, vec![s(&[0, 1, 2]), s(&[1, 3])]);
        assert!(o.is_interesting(&s(&[])));
        assert!(o.is_interesting(&s(&[0, 1])));
        assert!(o.is_interesting(&s(&[1, 3])));
        assert!(!o.is_interesting(&s(&[0, 3])));
        assert!(!o.is_interesting(&s(&[0, 1, 2, 3])));
    }

    #[test]
    fn counting_distinct_vs_raw() {
        let mut o = CountingOracle::new(FamilyOracle::new(4, vec![s(&[0, 1])]));
        assert!(o.is_interesting(&s(&[0])));
        assert!(o.is_interesting(&s(&[0])));
        assert!(!o.is_interesting(&s(&[2])));
        assert_eq!(o.distinct_queries(), 2);
        assert_eq!(o.raw_queries(), 3);
        o.reset();
        assert_eq!(o.distinct_queries(), 0);
        assert_eq!(o.raw_queries(), 0);
    }

    #[test]
    fn fn_oracle_and_monotone_check() {
        // Monotone: |x| ≤ 2.
        let good = FnOracle::new(4, |x: &AttrSet| x.len() <= 2);
        let samples: Vec<AttrSet> = vec![s(&[0, 1]), s(&[1, 2, 3]), s(&[])];
        assert_eq!(check_monotone(&good, &samples), None);

        // Non-monotone: exactly size 2.
        let bad = FnOracle::new(4, |x: &AttrSet| x.len() == 2);
        let violation = check_monotone(&bad, &samples);
        assert!(violation.is_some());
    }

    #[test]
    #[should_panic(expected = "member outside universe")]
    fn family_oracle_universe_checked() {
        FamilyOracle::new(4, vec![AttrSet::empty(5)]);
    }
}
