//! The learners (Corollaries 26–30).

use dualminer_bitset::AttrSet;
use dualminer_core::dualize_advance::dualize_advance;
use dualminer_core::levelwise::levelwise;
use dualminer_core::oracle::CountingOracle;
use dualminer_hypergraph::{Hypergraph, TrAlgorithm};

use crate::oracle::{CountingMq, MembershipOracle, MqAsInterest};
use crate::{MonotoneCnf, MonotoneDnf};

/// A learned monotone function: both unique minimum representations, plus
/// the number of membership queries spent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LearnedFunction {
    /// The minimum DNF — its terms are the minimal true points
    /// (= `Bd⁻` of the mining view).
    pub dnf: MonotoneDnf,
    /// The minimum CNF — its clauses are the complements of the maximal
    /// false points (= complements of `MTh`).
    pub cnf: MonotoneCnf,
    /// Distinct membership queries used.
    pub queries: u64,
}

impl LearnedFunction {
    /// The Corollary 27 lower bound for this function:
    /// `|DNF(f)| + |CNF(f)|`.
    pub fn corollary27_lower_bound(&self) -> u64 {
        (self.dnf.len() + self.cnf.len()) as u64
    }
}

/// Corollaries 28/29: learn a monotone function exactly with membership
/// queries via Dualize & Advance through the Theorem 24 bridge.
///
/// Queries ≤ `|CNF(f)| · (|DNF(f)| + n²)` (Corollary 29's accounting);
/// with [`TrAlgorithm::FkJointGeneration`] the running time is
/// sub-exponential in `|DNF| + |CNF|` (the paper's `t(m) = m^{o(log m)}`
/// class).
pub fn learn_monotone_dualize<M: MembershipOracle + Send>(
    mq: M,
    algo: TrAlgorithm,
) -> LearnedFunction {
    let n = mq.n_vars();
    let oracle = CountingOracle::new(MqAsInterest::new(CountingMq::new(mq)));
    let run = dualize_advance(&oracle, algo);
    let cnf = MonotoneCnf::new(n, run.maximal.iter().map(AttrSet::complement).collect());
    let dnf = MonotoneDnf::new(n, run.negative_border);
    LearnedFunction {
        dnf,
        cnf,
        queries: oracle.distinct_queries(),
    }
}

/// Corollary 26: the levelwise learner. Polynomial whenever every clause
/// of `CNF(f)` has at least `n − O(log n)` variables — equivalently, every
/// maximal false point is small — because the set of false points it
/// walks has size `n^{O(log n)}`… and for clauses of size ≥ `n − k` with
/// constant `k`, plainly polynomial.
///
/// Correct for *every* monotone target; only the running time needs the
/// clause-size promise.
pub fn learn_monotone_levelwise<M: MembershipOracle + Send>(mq: M) -> LearnedFunction {
    let n = mq.n_vars();
    let oracle = CountingOracle::new(MqAsInterest::new(CountingMq::new(mq)));
    let run = levelwise(&oracle);
    let cnf = MonotoneCnf::new(
        n,
        run.positive_border
            .iter()
            .map(AttrSet::complement)
            .collect(),
    );
    let dnf = MonotoneDnf::new(n, run.negative_border);
    LearnedFunction {
        dnf,
        cnf,
        queries: oracle.distinct_queries(),
    }
}

/// Corollary 30: a learner that produces DNF representations yields an
/// output-polynomial transversal algorithm. Given `H`, learn the monotone
/// function whose *CNF clauses are the edges of `H`* (answering membership
/// queries by evaluating that CNF); the learned DNF's terms are `Tr(H)`.
pub fn transversals_via_learner(h: &Hypergraph, algo: TrAlgorithm) -> Hypergraph {
    let n = h.universe_size();
    let cnf = MonotoneCnf::new(n, h.edges().to_vec());
    struct CnfMq {
        cnf: MonotoneCnf,
    }
    impl MembershipOracle for CnfMq {
        fn n_vars(&self) -> usize {
            self.cnf.n_vars()
        }
        fn query(&mut self, x: &AttrSet) -> bool {
            self.cnf.eval(x)
        }
    }
    let learned = learn_monotone_dualize(CnfMq { cnf }, algo);
    Hypergraph::from_edges(n, learned.dnf.terms().to_vec()).expect("terms in universe")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::FuncMq;
    use dualminer_bitset::Universe;
    use dualminer_core::bounds;

    fn s(v: &[usize]) -> AttrSet {
        AttrSet::from_indices(4, v.iter().copied())
    }

    #[test]
    fn learns_example_25() {
        let u = Universe::letters(4);
        let target = MonotoneDnf::new(4, vec![s(&[0, 3]), s(&[2, 3])]);
        for algo in [TrAlgorithm::Berge, TrAlgorithm::FkJointGeneration] {
            let learned = learn_monotone_dualize(FuncMq::new(target.clone()), algo);
            assert_eq!(learned.dnf, target, "{algo:?}");
            assert_eq!(learned.cnf.display(&u), "(D)(A ∨ C)");
            assert!(crate::func::equivalent(&learned.dnf, &learned.cnf));
        }
    }

    #[test]
    fn levelwise_learner_agrees() {
        let target = MonotoneDnf::new(4, vec![s(&[0, 3]), s(&[2, 3])]);
        let lw = learn_monotone_levelwise(FuncMq::new(target.clone()));
        assert_eq!(lw.dnf, target);
        assert_eq!(lw.cnf, target.to_cnf());
    }

    #[test]
    fn learns_constants() {
        for algo in [TrAlgorithm::Berge, TrAlgorithm::FkJointGeneration] {
            let t = learn_monotone_dualize(FuncMq::new(MonotoneDnf::constant_true(3)), algo);
            assert_eq!(t.dnf, MonotoneDnf::constant_true(3));
            assert_eq!(t.cnf, MonotoneCnf::constant_true(3));
            let f = learn_monotone_dualize(FuncMq::new(MonotoneDnf::constant_false(3)), algo);
            assert_eq!(f.dnf, MonotoneDnf::constant_false(3));
            assert_eq!(f.cnf, MonotoneCnf::constant_false(3));
        }
        let t = learn_monotone_levelwise(FuncMq::new(MonotoneDnf::constant_true(3)));
        assert_eq!(t.cnf, MonotoneCnf::constant_true(3));
    }

    #[test]
    fn corollary27_lower_bound_respected() {
        let target = MonotoneDnf::new(4, vec![s(&[0, 3]), s(&[2, 3]), s(&[1])]);
        let learned =
            learn_monotone_dualize(FuncMq::new(target.clone()), TrAlgorithm::FkJointGeneration);
        assert!(learned.queries >= learned.corollary27_lower_bound());
        let lw = learn_monotone_levelwise(FuncMq::new(target));
        assert!(lw.queries >= lw.corollary27_lower_bound());
    }

    #[test]
    fn corollary29_query_bound_respected() {
        let target = MonotoneDnf::new(4, vec![s(&[0, 1]), s(&[2, 3])]);
        let learned =
            learn_monotone_dualize(FuncMq::new(target.clone()), TrAlgorithm::FkJointGeneration);
        let bound = bounds::corollary29_query_bound(learned.cnf.len(), learned.dnf.len(), 4);
        assert!(
            (learned.queries as u128) <= bound + 1,
            "queries {} > bound {}",
            learned.queries,
            bound
        );
    }

    #[test]
    fn corollary30_transversals_via_learner() {
        let h = Hypergraph::from_index_edges(5, [vec![0, 1], vec![1, 2], vec![3, 4]]);
        let via_learner = transversals_via_learner(&h, TrAlgorithm::Berge);
        let direct = dualminer_hypergraph::berge::transversals(&h);
        assert_eq!(via_learner, direct);
    }

    #[test]
    fn random_targets_learned_exactly() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..20 {
            let n = rng.gen_range(3..7);
            let m = rng.gen_range(0..4);
            let terms: Vec<AttrSet> = (0..m)
                .map(|_| {
                    let k = rng.gen_range(1..=n);
                    AttrSet::from_indices(n, (0..k).map(|_| rng.gen_range(0..n)))
                })
                .collect();
            let target = MonotoneDnf::new(n, terms);
            let learned = learn_monotone_dualize(FuncMq::new(target.clone()), TrAlgorithm::Berge);
            assert_eq!(learned.dnf, target);
            assert_eq!(learned.cnf, target.to_cnf());
        }
    }
}
