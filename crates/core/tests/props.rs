//! Property tests for the framework: both mining algorithms agree with a
//! brute-force theory computation, and every theorem's identity/inequality
//! holds on random planted instances.

use dualminer_bitset::{AttrSet, SubsetsOfSize};
use dualminer_core::border::{
    downward_closure, negative_border_definition, negative_border_via_transversals,
    positive_border, verify_maxth,
};
use dualminer_core::bounds;
use dualminer_core::checkpoint::FaultCtl;
use dualminer_core::dualize_advance::dualize_advance;
use dualminer_core::lang::{rank_of_family, subset_lattice_width};
use dualminer_core::levelwise::{levelwise, levelwise_ctl};
use dualminer_core::oracle::{CountingOracle, FamilyOracle, InterestOracle};
use dualminer_hypergraph::TrAlgorithm;
use dualminer_obs::{Meter, NoopObserver, RunCtl};
use proptest::prelude::*;

const N: usize = 7;

fn arb_family() -> impl Strategy<Value = Vec<AttrSet>> {
    proptest::collection::vec(proptest::collection::vec(0..N, 0..N), 1..5).prop_map(|sets| {
        sets.into_iter()
            .map(|s| AttrSet::from_indices(N, s))
            .collect()
    })
}

/// Brute-force theory: every subset tested directly.
fn brute_theory(family: &[AttrSet]) -> Vec<AttrSet> {
    let oracle = FamilyOracle::new(N, family.to_vec());
    let mut th = Vec::new();
    for k in 0..=N {
        for s in SubsetsOfSize::new(N, k) {
            if oracle.is_interesting(&s) {
                th.push(s);
            }
        }
    }
    th
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn levelwise_computes_the_theory(family in arb_family()) {
        let oracle = FamilyOracle::new(N, family.clone());
        let run = levelwise(&oracle);
        prop_assert_eq!(run.theory, brute_theory(&family));
    }

    #[test]
    fn parallel_levelwise_is_bit_identical(family in arb_family()) {
        // Scheduler determinism contract: Th, both borders,
        // candidates_per_level and the query total are bit-identical to
        // sequential at every thread count.
        let oracle = FamilyOracle::new(N, family);
        let seq = levelwise(&oracle);
        for threads in [1usize, 2, 4, 8] {
            let meter = Meter::unlimited();
            let ctl = RunCtl::new(&meter, &NoopObserver);
            let par = levelwise_ctl(&oracle, threads, &ctl, &FaultCtl::none(), None)
                .expect("infallible oracle")
                .expect_complete();
            prop_assert_eq!(par.theory, seq.theory.clone(), "threads={}", threads);
            prop_assert_eq!(par.positive_border, seq.positive_border.clone(), "threads={}", threads);
            prop_assert_eq!(par.negative_border, seq.negative_border.clone(), "threads={}", threads);
            prop_assert_eq!(par.candidates_per_level, seq.candidates_per_level.clone(), "threads={}", threads);
            prop_assert_eq!(par.queries, seq.queries, "threads={}", threads);
        }
    }

    #[test]
    fn levelwise_borders_are_correct(family in arb_family()) {
        let oracle = FamilyOracle::new(N, family.clone());
        let run = levelwise(&oracle);
        prop_assert_eq!(run.positive_border.clone(), positive_border(&family));
        let closure = downward_closure(N, &run.positive_border);
        prop_assert_eq!(
            run.negative_border,
            negative_border_definition(N, &closure)
        );
    }

    #[test]
    fn theorem10_query_identity(family in arb_family()) {
        let oracle = CountingOracle::new(FamilyOracle::new(N, family));
        let run = levelwise(&oracle);
        prop_assert_eq!(run.queries, run.theorem10_count());
        prop_assert_eq!(oracle.distinct_queries(), run.queries);
        prop_assert_eq!(oracle.raw_queries(), run.queries);
    }

    #[test]
    fn theorem12_bound_holds(family in arb_family()) {
        let oracle = CountingOracle::new(FamilyOracle::new(N, family));
        let run = levelwise(&oracle);
        if !run.positive_border.is_empty() {
            let k = rank_of_family(&run.theory);
            let bound = bounds::theorem12_bound(
                k,
                subset_lattice_width(N),
                run.positive_border.len(),
            );
            prop_assert!(run.queries as u128 <= bound.max(1) + 1,
                "queries {} > bound {}", run.queries, bound);
        }
    }

    #[test]
    fn theorem2_lower_bound_holds_for_both_algorithms(family in arb_family()) {
        let lower = {
            let oracle = FamilyOracle::new(N, family.clone());
            let run = levelwise(&oracle);
            bounds::theorem2_lower_bound(
                run.positive_border.len(),
                run.negative_border.len(),
            )
        };
        let o1 = CountingOracle::new(FamilyOracle::new(N, family.clone()));
        levelwise(&o1);
        prop_assert!(o1.distinct_queries() as u128 >= lower);

        let o2 = CountingOracle::new(FamilyOracle::new(N, family));
        dualize_advance(&o2, TrAlgorithm::Berge);
        prop_assert!(o2.distinct_queries() as u128 >= lower);
    }

    #[test]
    fn dualize_advance_matches_levelwise(family in arb_family()) {
        let o1 = FamilyOracle::new(N, family.clone());
        let lw = levelwise(&o1);
        for algo in [TrAlgorithm::Berge, TrAlgorithm::FkJointGeneration] {
            let o2 = FamilyOracle::new(N, family.clone());
            let da = dualize_advance(&o2, algo);
            prop_assert_eq!(da.maximal, lw.positive_border.clone());
            prop_assert_eq!(da.negative_border, lw.negative_border.clone());
        }
    }

    #[test]
    fn lemma20_per_iteration_bound(family in arb_family()) {
        let oracle = FamilyOracle::new(N, family);
        let run = dualize_advance(&oracle, TrAlgorithm::FkJointGeneration);
        let bd = run.negative_border.len();
        for (i, it) in run.iterations.iter().enumerate() {
            // Lemma 20: each non-final iteration enumerates at most
            // |Bd⁻(MTh)| sets *before* its counterexample (so ≤ |Bd⁻|+1
            // tested in total); the final (certificate) iteration tests
            // exactly |Bd⁻(MTh)|.
            let cap = if it.counterexample.is_some() { bd + 1 } else { bd };
            prop_assert!(
                it.transversals_tested <= cap,
                "iteration {i}: tested {} > cap {}",
                it.transversals_tested, cap
            );
        }
    }

    #[test]
    fn theorem21_query_bound(family in arb_family()) {
        let oracle = CountingOracle::new(FamilyOracle::new(N, family));
        let run = dualize_advance(&oracle, TrAlgorithm::FkJointGeneration);
        if !run.maximal.is_empty() {
            let bound = bounds::theorem21_bound(
                run.maximal.len(),
                run.negative_border.len(),
                rank_of_family(&run.maximal).max(1),
                subset_lattice_width(N),
            );
            // +1 for our explicit ∅ seed query.
            prop_assert!(
                run.queries as u128 <= bound + 1,
                "queries {} > bound {}", run.queries, bound
            );
        }
    }

    #[test]
    fn theorem7_identity(family in arb_family()) {
        let maxth = positive_border(&family);
        let closure = downward_closure(N, &maxth);
        let by_def = negative_border_definition(N, &closure);
        for algo in [
            TrAlgorithm::Berge,
            TrAlgorithm::FkJointGeneration,
            TrAlgorithm::LevelwiseLargeEdges,
        ] {
            prop_assert_eq!(
                negative_border_via_transversals(N, &maxth, algo),
                by_def.clone()
            );
        }
    }

    #[test]
    fn verification_corollary4(family in arb_family()) {
        let maxth = positive_border(&family);
        let oracle = CountingOracle::new(FamilyOracle::new(N, family.clone()));
        let out = verify_maxth(&oracle, &maxth, TrAlgorithm::Berge);
        prop_assert!(out.is_maxth);
        let bd_minus = negative_border_via_transversals(N, &maxth, TrAlgorithm::Berge);
        prop_assert_eq!(out.queries, (maxth.len() + bd_minus.len()) as u64);

        // A perturbed candidate must be rejected.
        let mut wrong = maxth.clone();
        if wrong.len() > 1 {
            wrong.pop();
            let oracle = FamilyOracle::new(N, family);
            let out = verify_maxth(&oracle, &wrong, TrAlgorithm::Berge);
            prop_assert!(!out.is_maxth);
        }
    }
}

/// Random families over a 12-attribute universe, large enough that the
/// planner leaves Berge for MU-MMCS or the co-sparse levelwise engine.
fn arb_wide_family() -> impl Strategy<Value = Vec<AttrSet>> {
    proptest::collection::vec(proptest::collection::vec(0..12usize, 2..9), 10..40).prop_map(
        |sets| {
            sets.into_iter()
                .map(|s| AttrSet::from_indices(12, s))
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn corollary4_verdict_is_engine_independent(family in arb_wide_family(), drop in 0usize..64) {
        let maxth = positive_border(&family);
        let oracle = FamilyOracle::new(12, family.clone());
        let berge = verify_maxth(&oracle, &maxth, TrAlgorithm::Berge);
        let auto = verify_maxth(&oracle, &maxth, TrAlgorithm::Auto);
        prop_assert!(berge.is_maxth && auto.is_maxth);
        prop_assert_eq!(berge.queries, auto.queries);

        // Dropping a single set leaves it uncovered: both reject.
        let mut wrong = maxth.clone();
        wrong.remove(drop % wrong.len());
        prop_assert!(!verify_maxth(&oracle, &wrong, TrAlgorithm::Berge).is_maxth);
        prop_assert!(!verify_maxth(&oracle, &wrong, TrAlgorithm::Auto).is_maxth);
    }
}
