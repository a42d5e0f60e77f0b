//! Randomized discovery of maximal interesting sentences.
//!
//! Gunopulos, Mannila and Saluja, *Discovering all most specific sentences
//! by randomized algorithms* (ICDT 1997) — the paper's reference \[11\] and
//! the empirical study that motivated Dualize and Advance. The sampler
//! repeatedly grows `∅` along a random attribute order into a maximal
//! interesting set; distinct results accumulate into a partial `MTh`.
//!
//! Random restarts find *frequently reachable* maximal sets quickly but
//! give no stopping criterion — precisely the gap Dualize and Advance
//! closes by certifying completeness with one transversal computation.
//! Experiments use the sampler both as an ablation (how much of `MTh` do
//! `t` restarts find?) and as the seed phase of a hybrid
//! sample-then-certify miner.

use dualminer_bitset::AttrSet;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::dualize_advance::greedy_maximize;
use crate::oracle::InterestOracle;

/// Result of a random-restart sampling run.
#[derive(Clone, Debug)]
pub struct RandomWalkRun {
    /// Distinct maximal interesting sets found (an antichain, card-lex
    /// sorted) — a subset of `MTh`, not guaranteed complete.
    pub found: Vec<AttrSet>,
    /// `Is-interesting` queries spent.
    pub queries: u64,
    /// Restarts performed.
    pub restarts: usize,
}

/// Grows `∅` into one maximal interesting set along a uniformly random
/// attribute order. Returns `None` (after one query) if `∅` itself is
/// uninteresting, i.e. the theory is empty.
pub fn random_maximal<O: InterestOracle, R: Rng + ?Sized>(
    oracle: &O,
    rng: &mut R,
) -> (Option<AttrSet>, u64) {
    let n = oracle.universe_size();
    let mut queries = 1u64;
    if !oracle.is_interesting(&AttrSet::empty(n)) {
        return (None, queries);
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let (y, q) = greedy_maximize(oracle, AttrSet::empty(n), Some(&order));
    queries += q;
    (Some(y), queries)
}

/// Samples maximal sets with `restarts` random restarts.
pub fn random_walk_maxth<O: InterestOracle, R: Rng + ?Sized>(
    oracle: &O,
    restarts: usize,
    rng: &mut R,
) -> RandomWalkRun {
    let mut found: Vec<AttrSet> = Vec::new();
    let mut queries = 0u64;
    for _ in 0..restarts {
        let (y, q) = random_maximal(oracle, rng);
        queries += q;
        match y {
            None => break, // empty theory: no restarts will help
            Some(y) => {
                if !found.contains(&y) {
                    found.push(y);
                }
            }
        }
    }
    found.sort_by(|a, b| a.cmp_card_lex(b));
    RandomWalkRun {
        found,
        queries,
        restarts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{FamilyOracle, FnOracle};
    use dualminer_bitset::Universe;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn finds_both_maximal_sets_of_figure1() {
        let u = Universe::letters(4);
        let maxth = vec![u.parse("ABC").unwrap(), u.parse("BD").unwrap()];
        let oracle = FamilyOracle::new(4, maxth.clone());
        let mut rng = StdRng::seed_from_u64(1);
        let run = random_walk_maxth(&oracle, 50, &mut rng);
        assert_eq!(u.display_family(run.found.iter()), "{BD, ABC}");
        assert_eq!(run.restarts, 50);
    }

    #[test]
    fn results_are_maximal_and_interesting() {
        let u = Universe::letters(6);
        let maxth = vec![
            u.parse("ABC").unwrap(),
            u.parse("CDE").unwrap(),
            u.parse("AF").unwrap(),
        ];
        let oracle = FamilyOracle::new(6, maxth.clone());
        let mut rng = StdRng::seed_from_u64(2);
        let run = random_walk_maxth(&oracle, 30, &mut rng);
        for y in &run.found {
            assert!(maxth.contains(y), "found a non-maximal or alien set {y:?}");
        }
        assert!(!run.found.is_empty());
    }

    #[test]
    fn empty_theory_stops_immediately() {
        let oracle = FnOracle::new(4, |_: &AttrSet| false);
        let mut rng = StdRng::seed_from_u64(3);
        let run = random_walk_maxth(&oracle, 10, &mut rng);
        assert!(run.found.is_empty());
        assert_eq!(run.queries, 1);
    }
}
