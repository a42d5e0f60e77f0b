//! Maximal-frequent-set mining: the problem MaxTh for frequent sets.
//!
//! Three strategies, all built on `dualminer-core` and therefore all
//! covered by the paper's analysis:
//!
//! * **Levelwise** — mine everything, keep the maximal sets. Optimal when
//!   the largest frequent set is small (Corollary 13's `2ᵏ·n·|MTh|`).
//! * **Dualize & Advance** — jump between maximal sets; pays
//!   `|MTh|·(|Bd⁻|+rank·width)` queries regardless of `k` (Theorem 21),
//!   the winner when frequent sets are long.
//! * **Random walk** — reference \[11\]'s sampler; fast, incomplete, no
//!   certificate. [`sample_then_certify`] upgrades it: sample first, then
//!   run Dualize & Advance seeded with the samples — the hybrid the two
//!   papers together suggest.

use dualminer_bitset::AttrSet;
use dualminer_core::dualize_advance::{dualize_advance, dualize_advance_batch, greedy_maximize};
use dualminer_core::levelwise::levelwise;
use dualminer_core::oracle::{CountingOracle, InterestOracle};
use dualminer_core::random_walk::random_walk_maxth;
use dualminer_hypergraph::{transversals_with, Hypergraph, TrAlgorithm};
use rand::Rng;

use crate::{FrequencyOracle, TransactionDb};

/// Which engine discovers the maximal sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaximalStrategy {
    /// Full levelwise pass, maximality extracted at the end.
    Levelwise,
    /// Dualize & Advance with the given transversal subroutine.
    DualizeAdvance(TrAlgorithm),
    /// The batch variant: advance from every interesting transversal per
    /// round (at most rank+1 dualizations).
    DualizeAdvanceBatch(TrAlgorithm),
}

/// Result of a maximal-set mining run.
#[derive(Clone, Debug)]
pub struct MaximalRun {
    /// The maximal frequent sets (`MTh`), card-lex sorted.
    pub maximal: Vec<AttrSet>,
    /// `Bd⁻(MTh)` — the certificate of completeness.
    pub negative_border: Vec<AttrSet>,
    /// Distinct `Is-interesting` (support ≥ σ) evaluations.
    pub queries: u64,
}

/// Mines the maximal frequent sets of `db` at threshold `min_support`.
pub fn maximal_frequent_sets(
    db: &TransactionDb,
    min_support: usize,
    strategy: MaximalStrategy,
) -> MaximalRun {
    let mut oracle = CountingOracle::new(FrequencyOracle::new(db, min_support));
    match strategy {
        MaximalStrategy::Levelwise => {
            let run = levelwise(&mut oracle);
            MaximalRun {
                maximal: run.positive_border,
                negative_border: run.negative_border,
                queries: oracle.distinct_queries(),
            }
        }
        MaximalStrategy::DualizeAdvance(algo) => {
            let run = dualize_advance(&mut oracle, algo);
            MaximalRun {
                maximal: run.maximal,
                negative_border: run.negative_border,
                queries: oracle.distinct_queries(),
            }
        }
        MaximalStrategy::DualizeAdvanceBatch(algo) => {
            let run = dualize_advance_batch(&mut oracle, algo);
            MaximalRun {
                maximal: run.maximal,
                negative_border: run.negative_border,
                queries: oracle.distinct_queries(),
            }
        }
    }
}

/// Sample-then-certify: random restarts discover most of `MTh` cheaply,
/// then Dualize & Advance runs seeded with the samples, needing only the
/// missed sets' iterations plus one certificate round.
pub fn sample_then_certify<R: Rng + ?Sized>(
    db: &TransactionDb,
    min_support: usize,
    restarts: usize,
    algo: TrAlgorithm,
    rng: &mut R,
) -> MaximalRun {
    let mut oracle = CountingOracle::new(FrequencyOracle::new(db, min_support));
    let sampled = random_walk_maxth(&mut oracle, restarts, rng);
    let mut maximal: Vec<AttrSet> = sampled.found;
    let n = oracle.universe_size();

    if maximal.is_empty() {
        // Either the theory is empty or sampling was unlucky with 0
        // restarts; fall back to the plain algorithm.
        let run = dualize_advance(&mut oracle, algo);
        return MaximalRun {
            maximal: run.maximal,
            negative_border: run.negative_border,
            queries: oracle.distinct_queries(),
        };
    }

    // The certify/advance loop of Algorithm 16, starting from the sampled
    // collection instead of a single seed.
    loop {
        let complements =
            Hypergraph::from_edges(n, maximal.iter().map(AttrSet::complement).collect())
                .expect("complements stay in universe");
        let tr = transversals_with(&complements, algo);
        let mut counterexample = None;
        let mut certificate = Vec::new();
        for t in tr.edges() {
            if oracle.is_interesting(t) {
                counterexample = Some(t.clone());
                break;
            }
            certificate.push(t.clone());
        }
        match counterexample {
            None => {
                maximal.sort_by(|a, b| a.cmp_card_lex(b));
                certificate.sort_by(|a, b| a.cmp_card_lex(b));
                return MaximalRun {
                    maximal,
                    negative_border: certificate,
                    queries: oracle.distinct_queries(),
                };
            }
            Some(x) => {
                let (y, _) = greedy_maximize(&mut oracle, x);
                maximal.push(y);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualminer_bitset::Universe;
    use rand::{rngs::StdRng, SeedableRng};

    fn fig1_db() -> TransactionDb {
        TransactionDb::from_index_rows(4, [vec![0, 1, 2], vec![0, 1, 2, 3], vec![1, 3]])
    }

    #[test]
    fn strategies_agree_on_figure1() {
        let db = fig1_db();
        let u = Universe::letters(4);
        let reference = maximal_frequent_sets(&db, 2, MaximalStrategy::Levelwise);
        assert_eq!(u.display_family(reference.maximal.iter()), "{BD, ABC}");
        for algo in [
            TrAlgorithm::Berge,
            TrAlgorithm::FkJointGeneration,
            TrAlgorithm::LevelwiseLargeEdges,
            TrAlgorithm::MuMmcs,
        ] {
            for strat in [
                MaximalStrategy::DualizeAdvance(algo),
                MaximalStrategy::DualizeAdvanceBatch(algo),
            ] {
                let run = maximal_frequent_sets(&db, 2, strat);
                assert_eq!(run.maximal, reference.maximal, "{strat:?}");
                assert_eq!(run.negative_border, reference.negative_border, "{strat:?}");
            }
        }
    }

    #[test]
    fn sample_then_certify_is_complete() {
        let db = fig1_db();
        let reference = maximal_frequent_sets(&db, 2, MaximalStrategy::Levelwise);
        let mut rng = StdRng::seed_from_u64(9);
        for restarts in [0usize, 1, 5, 20] {
            let run = sample_then_certify(&db, 2, restarts, TrAlgorithm::Berge, &mut rng);
            assert_eq!(run.maximal, reference.maximal, "restarts={restarts}");
            assert_eq!(run.negative_border, reference.negative_border);
        }
    }

    #[test]
    fn empty_theory_all_strategies() {
        let db = fig1_db();
        for strat in [
            MaximalStrategy::Levelwise,
            MaximalStrategy::DualizeAdvance(TrAlgorithm::Berge),
        ] {
            let run = maximal_frequent_sets(&db, 10, strat);
            assert!(run.maximal.is_empty());
            assert_eq!(run.negative_border, vec![AttrSet::empty(4)]);
        }
        let mut rng = StdRng::seed_from_u64(1);
        let run = sample_then_certify(&db, 10, 5, TrAlgorithm::Berge, &mut rng);
        assert!(run.maximal.is_empty());
        assert_eq!(run.negative_border, vec![AttrSet::empty(4)]);
    }
}
