//! Membership-query oracles and the Theorem 24 bridge.
//!
//! Angluin's exact-learning model (reference \[3\]): the learner may ask
//! `MQ(f)` for the value `f(x)` at any point `x ∈ {0,1}ⁿ`. Theorem 24
//! identifies this with the mining model: `f(x) = ¬q(r, set(x))` — a
//! membership query *is* an `Is-interesting` query with the answer
//! flipped. [`MqAsInterest`] and [`InterestAsMq`] are the two directions
//! of that bridge, so the mining algorithms in `dualminer-core` learn
//! monotone functions unchanged.

use std::sync::Mutex;

use dualminer_bitset::AttrSet;
use dualminer_core::oracle::InterestOracle;

use crate::MonotoneDnf;

/// A membership-query oracle for a hidden Boolean function over `n`
/// variables.
pub trait MembershipOracle {
    /// Number of variables.
    fn n_vars(&self) -> usize;

    /// `MQ(f)`: the value `f(x)` on the assignment with true set `x`.
    fn query(&mut self, x: &AttrSet) -> bool;
}

impl<T: MembershipOracle + ?Sized> MembershipOracle for &mut T {
    fn n_vars(&self) -> usize {
        (**self).n_vars()
    }
    fn query(&mut self, x: &AttrSet) -> bool {
        (**self).query(x)
    }
}

/// A membership oracle hiding a concrete [`MonotoneDnf`] target.
#[derive(Clone, Debug)]
pub struct FuncMq {
    target: MonotoneDnf,
}

impl FuncMq {
    /// Hides `target` behind the oracle interface.
    pub fn new(target: MonotoneDnf) -> Self {
        FuncMq { target }
    }

    /// The hidden function (for test assertions only — a learner must not
    /// touch this).
    pub fn target(&self) -> &MonotoneDnf {
        &self.target
    }
}

impl MembershipOracle for FuncMq {
    fn n_vars(&self) -> usize {
        self.target.n_vars()
    }

    fn query(&mut self, x: &AttrSet) -> bool {
        self.target.eval(x)
    }
}

/// Counts distinct membership queries (the measure of Corollaries 27–29).
#[derive(Debug)]
pub struct CountingMq<M> {
    inner: M,
    cache: std::collections::HashMap<AttrSet, bool>,
    raw: u64,
}

impl<M: MembershipOracle> CountingMq<M> {
    /// Wraps an oracle with counting + memoization.
    pub fn new(inner: M) -> Self {
        CountingMq {
            inner,
            cache: std::collections::HashMap::new(),
            raw: 0,
        }
    }

    /// Distinct points queried.
    pub fn distinct_queries(&self) -> u64 {
        self.cache.len() as u64
    }

    /// All calls including repeats.
    pub fn raw_queries(&self) -> u64 {
        self.raw
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: MembershipOracle> MembershipOracle for CountingMq<M> {
    fn n_vars(&self) -> usize {
        self.inner.n_vars()
    }

    fn query(&mut self, x: &AttrSet) -> bool {
        self.raw += 1;
        if let Some(&v) = self.cache.get(x) {
            return v;
        }
        let v = self.inner.query(x);
        self.cache.insert(x.clone(), v);
        v
    }
}

/// Theorem 24, mining→learning direction: view a membership oracle as an
/// `Is-interesting` oracle via `q(x) = ¬f(x)`.
///
/// `f` monotone (upward closed true set) makes `q` downward closed, as the
/// framework requires. Membership queries take `&mut self`, so the
/// wrapped oracle sits behind a mutex to answer through `&self`.
#[derive(Debug)]
pub struct MqAsInterest<M>(Mutex<M>);

impl<M: MembershipOracle> MqAsInterest<M> {
    /// Views `mq` as an `Is-interesting` oracle.
    pub fn new(mq: M) -> Self {
        MqAsInterest(Mutex::new(mq))
    }
}

impl<M: MembershipOracle + Send> InterestOracle for MqAsInterest<M> {
    fn universe_size(&self) -> usize {
        self.0
            .lock()
            .expect("membership oracle mutex poisoned")
            .n_vars()
    }

    fn is_interesting(&self, x: &AttrSet) -> bool {
        !self
            .0
            .lock()
            .expect("membership oracle mutex poisoned")
            .query(x)
    }
}

/// Theorem 24, learning→mining direction: view an `Is-interesting` oracle
/// as a membership oracle for the monotone function `f = ¬q`.
#[derive(Debug)]
pub struct InterestAsMq<O>(pub O);

impl<O: InterestOracle> MembershipOracle for InterestAsMq<O> {
    fn n_vars(&self) -> usize {
        self.0.universe_size()
    }

    fn query(&mut self, x: &AttrSet) -> bool {
        !self.0.is_interesting(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualminer_core::oracle::FamilyOracle;

    fn s(v: &[usize]) -> AttrSet {
        AttrSet::from_indices(4, v.iter().copied())
    }

    #[test]
    fn func_oracle_answers() {
        let f = MonotoneDnf::new(4, vec![s(&[0, 3]), s(&[2, 3])]);
        let mut mq = FuncMq::new(f);
        assert!(mq.query(&s(&[0, 3])));
        assert!(mq.query(&s(&[0, 2, 3])));
        assert!(!mq.query(&s(&[0, 1, 2])));
        assert!(!mq.query(&s(&[])));
    }

    #[test]
    fn counting_mq() {
        let f = MonotoneDnf::new(4, vec![s(&[0])]);
        let mut mq = CountingMq::new(FuncMq::new(f));
        mq.query(&s(&[0]));
        mq.query(&s(&[0]));
        mq.query(&s(&[1]));
        assert_eq!(mq.distinct_queries(), 2);
        assert_eq!(mq.raw_queries(), 3);
    }

    #[test]
    fn bridge_round_trip() {
        // f = ¬q where q = "subset of {0,1,2} or {1,3}" (Figure 1).
        let q = FamilyOracle::new(4, vec![s(&[0, 1, 2]), s(&[1, 3])]);
        let mut f = InterestAsMq(q);
        assert!(!f.query(&s(&[0, 1])));
        assert!(f.query(&s(&[0, 3]))); // AD is not under any maximal set
                                       // And back: MqAsInterest(InterestAsMq(q)) ≡ q.
        let q2 = MqAsInterest::new(f);
        assert!(q2.is_interesting(&s(&[0, 1])));
        assert!(!q2.is_interesting(&s(&[0, 3])));
    }
}
