//! Incremental transversal enumeration via repeated duality checks.
//!
//! This is the *joint generation* scheme (Gurvich–Khachiyan) that turns the
//! Fredman–Khachiyan duality check into the incremental `T(I, i)`-time HTR
//! subroutine required by the paper's Theorem 21 and Corollary 22: maintain
//! a partial answer `G ⊆ Tr(F)`; while `(F, G)` is not dual, the FK witness
//! `w` satisfies `f(w) = 0 = g(w̄)`, so `w̄` is a transversal of `F`
//! containing no member of `G`; greedily minimizing it yields a **new**
//! minimal transversal. Each of the `i` outputs costs one duality check on
//! a pair of size `(|F|, i)` — quasi-polynomial incremental time. Both
//! the steps and the checks run on the calling thread.

use dualminer_bitset::AttrSet;
use dualminer_obs::{BudgetReason, Outcome, RunCtl};

use crate::oracle::{is_transversal, minimize_transversal};
use crate::{fk, Hypergraph, TrAlgorithm};

/// Computes `Tr(H)` by joint generation.
pub fn transversals(h: &Hypergraph) -> Hypergraph {
    crate::transversals_with(h, TrAlgorithm::FkJointGeneration)
}

/// One joint-generation step: one Fredman–Khachiyan duality check of the
/// pair `(hm, g)` (see [`fk::duality_witness_ctl`]), then the complement
/// of its witness minimized against `hm`. Requires `hm` minimized and
/// `g ⊆ Tr(hm)` (an antichain, since its members are minimal).
///
/// Returns `Ok(Some(t))` with a minimal transversal `t ∉ g`, `Ok(None)`
/// when the pair is dual (`g = Tr(hm)`), and `Err` with the trip reason
/// when the budget stops the check. The check's recursive calls are
/// metered (one query each); the step records nothing else, so callers
/// account for the transversal they receive.
pub fn next_transversal(
    hm: &Hypergraph,
    g: &Hypergraph,
    ctl: &RunCtl<'_>,
) -> Result<Option<AttrSet>, BudgetReason> {
    let witness = match fk::antichain_witness(hm, g, ctl) {
        Outcome::Complete((witness, _)) => witness,
        Outcome::BudgetExceeded { reason, .. } => return Err(reason),
    };
    // Invariant: G ⊆ Tr(F) and pairwise intersecting, so the witness
    // always has f(w) = 0 = g(w̄): w̄ is a transversal not containing any
    // already-found minimal transversal.
    Ok(witness.map(|w| {
        let t = w.complement();
        debug_assert!(is_transversal(hm, &t));
        minimize_transversal(hm, &t).expect("FK witness complement must be a transversal")
    }))
}

/// The joint-generation engine over a minimized hypergraph `hm`: loops
/// [`next_transversal`] from an empty `g`. It takes no thread count, so
/// the emitted transversals, and a budgeted run's partial prefix, are
/// the same whatever count the dispatcher was given.
///
/// The budget is shared with the inner Fredman–Khachiyan checks (each FK
/// recursive call is one metered query), and each emitted minimal
/// transversal records one transversal event, so both `max_queries` and
/// `max_transversals` bound the enumeration. Joint generation is
/// incremental, so the partial result on a trip is a *genuine prefix of
/// the `Tr(H)` enumeration* — every member is a true minimal transversal
/// of `H`.
pub(crate) fn run(hm: &Hypergraph, ctl: &RunCtl<'_>) -> Outcome<Hypergraph> {
    let n = hm.universe_size();

    // Constant corner cases mirror `berge::transversals`.
    if hm.is_empty() {
        return Outcome::Complete(
            Hypergraph::from_edges(n, vec![AttrSet::empty(n)]).expect("in universe"),
        );
    }
    if hm.edges().iter().any(|e| e.is_empty()) {
        return Outcome::Complete(Hypergraph::empty(n));
    }

    let mut g = Hypergraph::empty(n);
    loop {
        if let Some(reason) = ctl.meter.exceeded() {
            return Outcome::BudgetExceeded { partial: g, reason };
        }
        match next_transversal(hm, &g, ctl) {
            Ok(Some(t)) => {
                ctl.meter.record_transversal();
                ctl.observer.on_transversals(1);
                let added = g.add_edge(t);
                assert!(added, "joint generation produced a duplicate transversal");
            }
            Ok(None) => return Outcome::Complete(g),
            Err(reason) => return Outcome::BudgetExceeded { partial: g, reason },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::berge;

    fn h(n: usize, edges: &[&[usize]]) -> Hypergraph {
        Hypergraph::from_index_edges(n, edges.iter().map(|e| e.to_vec()))
    }

    #[test]
    fn constants() {
        let tr = transversals(&Hypergraph::empty(3));
        assert_eq!(tr.len(), 1);
        assert!(tr.edges()[0].is_empty());
        assert!(transversals(&h(3, &[&[]])).is_empty());
    }

    #[test]
    fn paper_example_8() {
        let f = h(4, &[&[3], &[0, 2]]);
        assert_eq!(transversals(&f), berge::transversals(&f));
    }

    #[test]
    fn matches_berge_on_random_instances() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..40 {
            let n = rng.gen_range(3..9);
            let m = rng.gen_range(1..7);
            let edges: Vec<Vec<usize>> = (0..m)
                .map(|_| {
                    let k = rng.gen_range(1..=n.min(4));
                    (0..k).map(|_| rng.gen_range(0..n)).collect()
                })
                .collect();
            let hg = Hypergraph::from_index_edges(n, edges);
            assert_eq!(transversals(&hg), berge::transversals(&hg), "{hg:?}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        use dualminer_obs::{Meter, NoopObserver};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(91);
        for _ in 0..20 {
            let n = rng.gen_range(3..9);
            let m = rng.gen_range(1..7);
            let edges: Vec<Vec<usize>> = (0..m)
                .map(|_| {
                    let k = rng.gen_range(1..=n.min(4));
                    (0..k).map(|_| rng.gen_range(0..n)).collect()
                })
                .collect();
            let hg = Hypergraph::from_index_edges(n, edges);
            let seq = transversals(&hg);
            for threads in [0, 2, 3, 8] {
                let meter = Meter::unlimited();
                let ctl = RunCtl::new(&meter, &NoopObserver);
                let par = crate::plan::dualize_ctl_report(
                    &hg,
                    TrAlgorithm::FkJointGeneration,
                    threads,
                    &ctl,
                );
                assert_eq!(par.0.expect_complete(), seq, "{hg:?} threads={threads}");
            }
        }
    }

    #[test]
    fn matching_records_one_event_per_transversal() {
        // Incremental enumeration: each emitted member of Tr is recorded
        // exactly once, whatever the FK checks cost in queries.
        use dualminer_obs::{Meter, NoopObserver};
        let f = h(6, &[&[0, 1], &[2, 3], &[4, 5]]);
        let meter = Meter::unlimited();
        let ctl = RunCtl::new(&meter, &NoopObserver);
        let tr = run(&f, &ctl).expect_complete();
        assert_eq!(tr.len(), 8);
        assert_eq!(meter.transversals(), 8);
    }
}
