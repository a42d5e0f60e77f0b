//! The paper's Corollary 15: hypergraph transversals by the levelwise
//! algorithm.
//!
//! *"For k = O(log n), the problem of computing hypergraph transversals,
//! where the edges of the input graph are all of size at least n − k, is
//! solvable in input polynomial time by the levelwise algorithm."*
//!
//! The trick: declare a set `X` **interesting iff it is not a transversal**
//! of `H`. Missing an edge is inherited by subsets, so the predicate is
//! monotone, and the *negative border* of the non-transversals — the
//! minimal sets that are transversals — is exactly `Tr(H)`. When every
//! edge has size ≥ n − k, a non-transversal fits inside some edge
//! complement of size ≤ k, so the levelwise walk stops at level k + 1 and
//! visits at most `Σ_{i ≤ k+1} C(n, i)` sets — polynomial for constant k
//! and `n^{O(k)}` for `k = O(log n)`, improving on Eiter–Gottlob's
//! constant-`k` result (the improvement the paper claims in Section 4).
//!
//! The algorithm here is *correct for every hypergraph* (levelwise never
//! needs the size precondition for correctness); only its running time
//! degrades when small edges make non-transversals large. It accesses `H`
//! solely through "is `X` a transversal?" tests, matching the paper's
//! remark that the structure of the hypergraph is never used directly.

use dualminer_bitset::candidates::CandidateBatch;
use dualminer_bitset::AttrSet;
use dualminer_obs::{Meter, NoopObserver, Outcome, RunCtl};

use crate::oracle::is_transversal;
use crate::Hypergraph;

/// Per-level statistics of one run, for the E5 experiment.
#[derive(Clone, Debug, Default)]
pub struct LevelwiseTrStats {
    /// Number of candidate sets tested at each level (level = index).
    pub candidates_per_level: Vec<usize>,
    /// Total "is transversal" evaluations.
    pub evaluations: usize,
}

/// Computes `Tr(H)` with the levelwise algorithm.
pub fn transversals_large_edges(h: &Hypergraph) -> Hypergraph {
    transversals_large_edges_traced(h).0
}

/// [`transversals_large_edges`] plus per-level statistics. Unlike
/// `TrAlgorithm::LevelwiseLargeEdges` through the planner, this runs the
/// levelwise walk whatever the edge sizes.
pub fn transversals_large_edges_traced(h: &Hypergraph) -> (Hypergraph, LevelwiseTrStats) {
    let meter = Meter::unlimited();
    run(&h.minimized(), &RunCtl::new(&meter, &NoopObserver)).expect_complete()
}

/// The levelwise engine over a minimized hypergraph `hm`.
///
/// Each candidate "is transversal?" test records one oracle query; each
/// discovered minimal transversal records one transversal event; each
/// completed level fires `on_level` with its candidate/transversal
/// counts. The budget is polled once per single-item extension of a level
/// member, pruned or not, so runaway instances (small edges force deep
/// levels) stop promptly.
/// The partial result is a genuine subset of `Tr(H)`: the minimal
/// transversals found on fully or partially explored levels.
pub(crate) fn run(hm: &Hypergraph, ctl: &RunCtl<'_>) -> Outcome<(Hypergraph, LevelwiseTrStats)> {
    debug_assert!(hm.is_minimized());
    let n = hm.universe_size();
    let mut stats = LevelwiseTrStats::default();

    if hm.edges().iter().any(|e| e.is_empty()) {
        return Outcome::Complete((Hypergraph::empty(n), stats));
    }

    let mut minimal_transversals: Vec<AttrSet> = Vec::new();

    // Level 0: the empty set. It is a transversal only of the empty
    // hypergraph, in which case Tr(H) = {∅}.
    stats.candidates_per_level.push(1);
    stats.evaluations += 1;
    ctl.meter.record_query();
    ctl.observer.on_nodes(1);
    if is_transversal(hm, &AttrSet::empty(n)) {
        ctl.meter.record_transversal();
        ctl.observer.on_transversals(1);
        return Outcome::Complete((
            Hypergraph::from_edges(n, vec![AttrSet::empty(n)]).expect("in universe"),
            stats,
        ));
    }

    // `level`: the non-transversals of the current cardinality, the
    // flat level the next join reads.
    let mut level = CandidateBatch::from_members(n, 0, [&[][..]]);
    let mut card = 0usize;

    while !level.is_empty() && card < n {
        card += 1;
        // Apriori candidate generation: the prefix join of the level,
        // pruned unless every immediate subset is a non-transversal.
        let mut batch = level.join();
        // The budget is polled once per extension `x ∪ {a}` (a > max x)
        // of a level member, pruned or not. Between two candidates no
        // query runs, so the polls that matter are the one before each
        // candidate and one for any extension after the last candidate.
        let extensible = |m: usize| level.cand(m).last().map_or(0, |&l| l + 1) < n;
        let extension_after_last = match batch.len().checked_sub(1) {
            Some(last) => {
                let (parent, _) = batch.pair(last);
                batch.cand(last)[card - 1] + 1 < n || (parent + 1..level.len()).any(extensible)
            }
            None => (0..level.len()).any(extensible),
        };
        let mut non_transversal = Vec::with_capacity(batch.len());
        let mut found_this_level = 0usize;
        for i in 0..batch.len() + usize::from(extension_after_last) {
            let tested = non_transversal.len();
            if let Some(reason) = ctl.meter.exceeded() {
                stats.candidates_per_level.push(tested);
                stats.evaluations += tested;
                return Outcome::BudgetExceeded {
                    partial: (
                        Hypergraph::from_edges(n, minimal_transversals).expect("in universe"),
                        stats,
                    ),
                    reason,
                };
            }
            if i == batch.len() {
                break; // the poll for the extensions after the last candidate
            }
            ctl.meter.record_query();
            ctl.observer.on_nodes(1);
            let cand_set = AttrSet::from_indices(n, batch.cand(i).iter().copied());
            let is_tr = is_transversal(hm, &cand_set);
            if is_tr {
                // All proper subsets are non-transversals ⇒ minimal.
                minimal_transversals.push(cand_set);
                found_this_level += 1;
                ctl.meter.record_transversal();
                ctl.observer.on_transversals(1);
            }
            non_transversal.push(!is_tr);
        }
        let tested = non_transversal.len();
        stats.candidates_per_level.push(tested);
        stats.evaluations += tested;
        ctl.observer.on_level(card, tested, found_this_level);
        batch.retain(|i| non_transversal[i]);
        level = batch;
    }

    Outcome::Complete((
        Hypergraph::from_edges(n, minimal_transversals).expect("in universe"),
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{berge, generators};

    fn h(n: usize, edges: &[&[usize]]) -> Hypergraph {
        Hypergraph::from_index_edges(n, edges.iter().map(|e| e.to_vec()))
    }

    #[test]
    fn constants() {
        let tr = transversals_large_edges(&Hypergraph::empty(4));
        assert_eq!(tr.len(), 1);
        assert!(tr.edges()[0].is_empty());
        assert!(transversals_large_edges(&h(3, &[&[]])).is_empty());
    }

    #[test]
    fn paper_example_8() {
        let f = h(4, &[&[3], &[0, 2]]);
        assert_eq!(transversals_large_edges(&f), berge::transversals(&f));
    }

    #[test]
    fn large_edge_instance_stays_shallow() {
        // Edges of size n − 2 over n = 10: levels must stop by card 3.
        let n = 10;
        let edges: Vec<Vec<usize>> = (0..4)
            .map(|i| (0..n).filter(|&v| v != i && v != i + 4).collect())
            .collect();
        let hg = Hypergraph::from_index_edges(n, edges);
        let (tr, stats) = transversals_large_edges_traced(&hg);
        assert_eq!(tr, berge::transversals(&hg));
        assert!(stats.candidates_per_level.len() <= 4);
    }

    #[test]
    fn correct_even_with_small_edges() {
        // Precondition violated (small edges): still correct, just slower.
        let hg = h(6, &[&[0, 1], &[2, 3], &[4, 5]]);
        assert_eq!(transversals_large_edges(&hg), berge::transversals(&hg));
    }

    #[test]
    fn matches_berge_on_random_co_sparse() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for n in [6usize, 8, 10] {
            for k in [1usize, 2, 3] {
                let hg = generators::co_sparse(n, k, 5, &mut rng);
                assert_eq!(
                    transversals_large_edges(&hg),
                    berge::transversals(&hg),
                    "n={n} k={k}"
                );
            }
        }
    }

    /// One run's canonical text: the (partial) `Tr`, the per-level
    /// candidate counts, the evaluations, the meter's counts and every
    /// observer event in order.
    fn run_record(hm: &Hypergraph, budget: dualminer_obs::Budget) -> String {
        #[derive(Default)]
        struct Events(std::sync::Mutex<Vec<String>>);
        impl dualminer_obs::MiningObserver for Events {
            fn on_level(&self, level: usize, candidates: usize, found: usize) {
                let event = format!("L{level}/{candidates}/{found}");
                self.0.lock().unwrap().push(event);
            }
            fn on_nodes(&self, count: u64) {
                self.0.lock().unwrap().push(format!("N{count}"));
            }
            fn on_transversals(&self, count: u64) {
                self.0.lock().unwrap().push(format!("T{count}"));
            }
        }
        let (meter, events) = (budget.start(), Events::default());
        let outcome = run(hm, &RunCtl::new(&meter, &events));
        let complete = outcome.is_complete();
        let (tr, stats) = outcome.into_value();
        let sets: Vec<Vec<usize>> = tr.edges().iter().map(AttrSet::to_vec).collect();
        let (cpl, evaluations) = (stats.candidates_per_level, stats.evaluations);
        let (q, t) = (meter.queries(), meter.transversals());
        let events = events.0.lock().unwrap().join(",");
        format!("{complete} {sets:?} {cpl:?} {evaluations} q={q} t={t} ev={events}")
    }

    /// Pins answers, events and budget trip points on 48 instances: the
    /// complete run and every `max_queries` / `max_transversals` K up to
    /// one past the complete run's count. The digest was recorded from
    /// the hash-set prune this walk's prefix join replaced.
    #[test]
    fn budget_trips_and_events_are_pinned() {
        use dualminer_obs::Budget;
        use rand::{rngs::StdRng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(20261018);
        let mut instances = Vec::new();
        for n in [5usize, 6, 8, 10, 12] {
            for (k, m) in [1usize, 2, 3]
                .into_iter()
                .flat_map(|k| [2, 4, 7].map(|m| (k, m)))
            {
                instances.push(generators::co_sparse(n, k, m, &mut rng));
            }
        }
        instances.push(h(6, &[&[0, 1], &[2, 3], &[4, 5]]));
        instances.push(h(5, &[&[4], &[0, 2]]));
        instances.push(h(4, &[&[0, 1, 2, 3]]));
        let mut records = String::new();
        for hm in instances.iter().map(Hypergraph::minimized) {
            let meter = Budget::default().start();
            let _ = run(&hm, &RunCtl::new(&meter, &NoopObserver));
            let queries = (0..=meter.queries() + 1).map(|k| Budget {
                max_queries: Some(k),
                ..Budget::default()
            });
            let transversals = (0..=meter.transversals() + 1).map(|k| Budget {
                max_transversals: Some(k),
                ..Budget::default()
            });
            for budget in std::iter::once(Budget::default())
                .chain(queries)
                .chain(transversals)
            {
                records += &run_record(&hm, budget);
                records += "\n";
            }
        }
        let digest = dualminer_obs::fnv1a64(records.as_bytes());
        assert_eq!(digest, 16251750818764879438);
    }
}
