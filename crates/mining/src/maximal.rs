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
use dualminer_core::checkpoint::{DaState, FaultCtl};
use dualminer_core::dualize_advance::{dualize_advance, dualize_advance_ctl, DualizeAdvanceConfig};
use dualminer_core::levelwise::levelwise;
use dualminer_core::oracle::{CountingOracle, InterestOracle};
use dualminer_core::random_walk::random_walk_maxth;
use dualminer_hypergraph::TrAlgorithm;
use dualminer_obs::{Meter, NoopObserver, RunCtl};
use rand::Rng;

use crate::{FrequencyOracle, TransactionDb};

/// Which engine discovers the maximal sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaximalStrategy {
    /// Full levelwise pass, maximality extracted at the end.
    Levelwise,
    /// Dualize & Advance with the given transversal subroutine.
    DualizeAdvance(TrAlgorithm),
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
    let oracle = CountingOracle::new(FrequencyOracle::new(db, min_support));
    match strategy {
        MaximalStrategy::Levelwise => {
            let run = levelwise(&oracle);
            MaximalRun {
                maximal: run.positive_border,
                negative_border: run.negative_border,
                queries: oracle.distinct_queries(),
            }
        }
        MaximalStrategy::DualizeAdvance(algo) => {
            let run = dualize_advance(&oracle, algo);
            MaximalRun {
                maximal: run.maximal,
                negative_border: run.negative_border,
                queries: oracle.distinct_queries(),
            }
        }
    }
}

/// Sample-then-certify: random restarts discover most of `MTh` cheaply,
/// then Dualize & Advance resumes from the samples as if from a
/// checkpoint, needing only the missed sets' iterations plus one
/// certificate round. The samples are distinct verified-maximal sets, so
/// they are a valid safe point; an empty sample leaves the driver to seed
/// itself.
pub fn sample_then_certify<R: Rng + ?Sized>(
    db: &TransactionDb,
    min_support: usize,
    restarts: usize,
    algo: TrAlgorithm,
    rng: &mut R,
) -> MaximalRun {
    let oracle = CountingOracle::new(FrequencyOracle::new(db, min_support));
    let sampled = random_walk_maxth(&oracle, restarts, rng);
    let samples = DaState {
        n: oracle.universe_size(),
        maximal: sampled.found,
        round_certificate: Vec::new(),
        queries: 0,
        threads: 1,
    };
    let meter = Meter::unlimited();
    let ctl = RunCtl::new(&meter, &NoopObserver);
    let config = DualizeAdvanceConfig::default();
    let run = match dualize_advance_ctl(
        &oracle,
        algo,
        &config,
        &ctl,
        &FaultCtl::none(),
        Some(samples),
    ) {
        Ok(outcome) => outcome.expect_complete(),
        Err(aborted) => unreachable!("infallible oracle cannot abort: {aborted}"),
    };
    MaximalRun {
        maximal: run.maximal,
        negative_border: run.negative_border,
        queries: oracle.distinct_queries(),
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
            let strat = MaximalStrategy::DualizeAdvance(algo);
            let run = maximal_frequent_sets(&db, 2, strat);
            assert_eq!(run.maximal, reference.maximal, "{strat:?}");
            assert_eq!(run.negative_border, reference.negative_border, "{strat:?}");
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
