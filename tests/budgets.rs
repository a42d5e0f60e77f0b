//! Budget governance on the paper's Example 19 blow-up instance: a
//! matching of n/2 disjoint pair edges has 2^(n/2) minimal transversals,
//! and the corresponding "contains no full pair" theory has an MTh of the
//! same size — so any bounded budget must trip, and the typed partial
//! result has to be a genuine prefix of the answer.

use dualminer::bitset::AttrSet;
use dualminer::core::dualize_advance::dualize_advance_ctl;
use dualminer::core::oracle::FnOracle;
use dualminer::hypergraph::{generators, plan, TrAlgorithm};
use dualminer::obs::{Budget, BudgetReason, MiningObserver, NoopObserver, Outcome, RunCtl};

const PAIRS: usize = 12;
const N: usize = 2 * PAIRS;

/// Example 19 membership: exactly one vertex from every pair `{2i, 2i+1}`.
fn is_mth_member(set: &AttrSet) -> bool {
    (0..PAIRS).all(|i| set.contains(2 * i) != set.contains(2 * i + 1))
}

#[test]
fn example19_dualize_advance_max_transversals_partial_mth() {
    // Interesting ⇔ no pair fully contained; MTh = 2^12 = 4096 sets.
    let mut oracle = FnOracle::new(N, |s: &AttrSet| {
        (0..PAIRS).all(|i| !(s.contains(2 * i) && s.contains(2 * i + 1)))
    });
    let budget = Budget {
        max_transversals: Some(10),
        ..Budget::UNLIMITED
    };
    let meter = budget.start();
    let ctl = RunCtl::new(&meter, &NoopObserver);
    match dualize_advance_ctl(&mut oracle, TrAlgorithm::Berge, &ctl) {
        Outcome::Complete(run) => panic!(
            "must trip long before enumerating all 4096 maximal sets, got {}",
            run.maximal.len()
        ),
        Outcome::BudgetExceeded { partial, reason } => {
            assert_eq!(reason, BudgetReason::MaxTransversals);
            assert!(!partial.maximal.is_empty(), "partial MTh prefix is empty");
            assert!(partial.maximal.len() < 1 << PAIRS);
            // Every reported set is a *verified* member of the true MTh.
            for m in &partial.maximal {
                assert!(is_mth_member(m), "{m:?} is not maximal interesting");
            }
            assert!(meter.transversals() >= 10);
        }
    }
}

#[test]
fn example19_transversal_enumeration_max_transversals_partial_prefix() {
    let h = generators::matching(N);
    for algo in [TrAlgorithm::Berge, TrAlgorithm::MuMmcs] {
        let budget = Budget {
            max_transversals: Some(10),
            ..Budget::UNLIMITED
        };
        let meter = budget.start();
        let ctl = RunCtl::new(&meter, &NoopObserver);
        match plan::dualize_ctl_report(&h, algo, 1, &ctl).0 {
            Outcome::Complete(tr) => {
                panic!("{algo:?}: must trip, got all {} transversals", tr.len())
            }
            Outcome::BudgetExceeded { partial, reason } => {
                assert_eq!(reason, BudgetReason::MaxTransversals, "{algo:?}");
                assert!(!partial.edges().is_empty(), "{algo:?}: empty prefix");
                assert!(partial.len() < 1 << PAIRS, "{algo:?}");
                // MU-MMCS emits final minimal transversals as it goes, so
                // its prefix members are genuine; Berge's partial is its
                // current intermediate product and is checked only for
                // minimality within itself (it already guarantees that
                // invariant).
                if algo == TrAlgorithm::MuMmcs {
                    for t in partial.edges() {
                        assert!(is_mth_member(t), "{algo:?}: {t:?} not a transversal");
                    }
                }
            }
        }
    }
}

#[test]
fn example19_timeout_zero_trips_before_any_work() {
    let h = generators::matching(N);
    let budget = Budget {
        timeout: Some(std::time::Duration::ZERO),
        ..Budget::UNLIMITED
    };
    let meter = budget.start();
    let ctl = RunCtl::new(&meter, &NoopObserver);
    match plan::dualize_ctl_report(&h, TrAlgorithm::Berge, 1, &ctl).0 {
        Outcome::Complete(_) => panic!("zero deadline cannot complete"),
        Outcome::BudgetExceeded { reason, .. } => {
            assert_eq!(reason, BudgetReason::Deadline);
        }
    }
}

#[test]
fn observer_sees_transversal_events_on_budgeted_run() {
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct CountingObserver {
        transversals: AtomicU64,
    }
    impl MiningObserver for CountingObserver {
        fn on_transversals(&self, count: u64) {
            self.transversals.fetch_add(count, Ordering::Relaxed);
        }
    }

    let h = generators::matching(N);
    let budget = Budget {
        max_transversals: Some(25),
        ..Budget::UNLIMITED
    };
    let meter = budget.start();
    let observer = CountingObserver::default();
    let ctl = RunCtl::new(&meter, &observer);
    let (outcome, _) = plan::dualize_ctl_report(&h, TrAlgorithm::MuMmcs, 1, &ctl);
    assert!(!outcome.is_complete());
    let seen = observer.transversals.load(Ordering::Relaxed);
    assert_eq!(seen, meter.transversals(), "observer and meter disagree");
    assert!(seen >= 25, "budget of 25 reached but only {seen} events");
}
