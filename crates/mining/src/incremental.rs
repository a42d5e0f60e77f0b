//! Incremental maintenance of the frequent-set theory under appended
//! rows — borders as an *update* structure.
//!
//! With an **absolute** threshold, appending rows can only increase
//! supports, so the theory can only grow: old frequent sets stay
//! frequent, and new frequent sets enter through the old negative border
//! (a new frequent set's minimal formerly-infrequent ancestor lies in
//! `Bd⁻(Th_old)`). The update is the levelwise walk
//! [`dualminer_core::levelwise::walk`] over the merged database, with an
//! evaluator that answers most candidates from the old collection:
//!
//! 1. an old frequent set's support is its old support plus the number of
//!    appended rows that contain it;
//! 2. an old border set none of the appended rows contains kept its old
//!    support, which was < σ by definition of `Bd⁻` — it stays infrequent
//!    without a database pass;
//! 3. every other candidate — a border set the delta touched, or a set
//!    above the old border — is counted on the merged database.
//!
//! This is the FUP-style argument expressed in the paper's border
//! vocabulary. The walk evaluates exactly `Th ∪ Bd⁻` of the merged
//! database (Theorem 10), which contains the old `Th ∪ Bd⁻`, so the cost
//! is `O(touched + growth)` full-database evaluations plus
//! `O(|Th ∪ Bd⁻|)` subset tests against the delta rows alone, instead of
//! `|Th ∪ Bd⁻|` full evaluations — the same reason Corollary 4 makes
//! verification cheap.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use dualminer_bitset::AttrSet;
use dualminer_core::checkpoint::FaultCtl;
use dualminer_core::levelwise::walk;
use dualminer_obs::{Meter, NoopObserver, Outcome, RunCtl};

use crate::apriori::{frequent_sets, FrequentSets};
use crate::TransactionDb;

/// Result of an incremental update.
#[derive(Clone, Debug)]
pub struct IncrementalUpdate {
    /// The merged database (old rows followed by the new ones).
    pub db: TransactionDb,
    /// The updated frequent-set collection — identical to mining the
    /// merged database from scratch, and on a budget trip the same
    /// genuine prefix a from-scratch run leaves under the same query cap.
    pub frequent: FrequentSets,
    /// Support evaluations against the **delta** rows only (refreshing the
    /// old theory's counts, and confirming untouched border sets) — each
    /// touches just the appended batch.
    pub delta_evaluations: usize,
    /// Support evaluations against the **merged** database (border
    /// re-checks and growth candidates) — the expensive passes; compare
    /// with `frequent.queries()` for the from-scratch cost.
    pub merged_evaluations: usize,
}

/// Appends `new_rows` to `db` and updates a previously mined collection.
///
/// # Panics
/// Panics if `old.min_support()` is 0 or the row universes disagree.
pub fn append_rows(
    db: &TransactionDb,
    old: &FrequentSets,
    new_rows: Vec<AttrSet>,
) -> IncrementalUpdate {
    let meter = Meter::unlimited();
    append_rows_ctl(db, old, new_rows, &RunCtl::new(&meter, &NoopObserver)).expect_complete()
}

/// [`append_rows`] under a budget and an observer.
///
/// The update is the levelwise walk on one thread, so its candidates,
/// events and budget trips are a cold run's: every evaluation — delta or
/// merged — records one metered query, and each completed level fires
/// `on_level`. A budget trip leaves a *genuine prefix* of the walk over
/// the merged database — under a `max_queries` cap, exactly the partial
/// [`crate::apriori::apriori_par_ctl`] leaves on the merged database
/// under the same cap.
pub fn append_rows_ctl(
    db: &TransactionDb,
    old: &FrequentSets,
    new_rows: Vec<AttrSet>,
    ctl: &RunCtl<'_>,
) -> Outcome<IncrementalUpdate> {
    let n = db.n_items();
    assert_eq!(old.n_items(), n, "mined collection from a different schema");
    let sigma = old.min_support();
    // Rows from the store, not `db.rows()`: `db` may be a shared cached
    // base, and its lazy transpose would stay resident there.
    let mut all_rows = db.vstore().to_rows();
    all_rows.extend(new_rows.iter().cloned());
    let merged = TransactionDb::new(n, all_rows);

    // The old theory with its supports, and the old border (`None`).
    let old_sets: HashMap<&AttrSet, Option<usize>> = old
        .itemsets
        .iter()
        .map(|(s, supp)| (s, Some(*supp)))
        .chain(old.negative_border.iter().map(|b| (b, None)))
        .collect();
    let delta_evaluations = AtomicUsize::new(0);
    let merged_evaluations = AtomicUsize::new(0);
    let evaluate = |x: &AttrSet, _: &[usize], _: (&(), &())| {
        // Direct subset tests against the appended rows: the delta is
        // typically a handful of rows, and a subset test per row beats
        // building a vertical store over them.
        let added = || new_rows.iter().filter(|r| x.is_subset(r));
        let support = match old_sets.get(x) {
            // Supports only grow, by the appended rows that contain `x`.
            Some(Some(supp)) => {
                delta_evaluations.fetch_add(1, Ordering::Relaxed);
                supp + added().count()
            }
            // An untouched border set kept its old support, < σ.
            Some(None) if added().next().is_none() => {
                delta_evaluations.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            _ => {
                merged_evaluations.fetch_add(1, Ordering::Relaxed);
                merged.support(x)
            }
        };
        (support >= sigma).then_some((support, ()))
    };
    let outcome = match walk(
        n,
        evaluate,
        |x| merged.support(x),
        1,
        ctl,
        &FaultCtl::none(),
        None,
    ) {
        Ok(outcome) => outcome,
        Err(aborted) => unreachable!("no faults injected and no checkpoint: {aborted}"),
    };
    outcome.map(|run| IncrementalUpdate {
        frequent: frequent_sets(&merged, sigma, run),
        db: merged,
        delta_evaluations: delta_evaluations.into_inner(),
        merged_evaluations: merged_evaluations.into_inner(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::apriori;
    use crate::gen::{quest, QuestParams};
    use rand::{rngs::StdRng, SeedableRng};

    fn dbs(seed: u64, rows: usize) -> TransactionDb {
        let mut rng = StdRng::seed_from_u64(seed);
        quest(
            &QuestParams {
                n_items: 12,
                n_transactions: rows,
                avg_transaction_size: 5,
                avg_pattern_size: 3,
                n_patterns: 6,
                corruption: 0.3,
            },
            &mut rng,
        )
    }

    #[test]
    fn matches_from_scratch_mining() {
        let base = dbs(1, 300);
        let extra = dbs(2, 120);
        let sigma = 50;
        let old = apriori(&base, sigma);
        let update = append_rows(&base, &old, extra.rows().to_vec());
        let fresh = apriori(&update.db, sigma);
        assert_eq!(update.frequent.itemsets, fresh.itemsets);
        assert_eq!(update.frequent.maximal, fresh.maximal);
        assert_eq!(update.frequent.negative_border, fresh.negative_border);
        // The reconstructed per-level counts must include the top,
        // border-only level, making the Theorem 10 query count agree too.
        assert_eq!(
            update.frequent.candidates_per_level,
            fresh.candidates_per_level
        );
        assert_eq!(update.frequent.queries(), fresh.queries());
    }

    #[test]
    fn empty_delta_is_identity() {
        let base = dbs(3, 200);
        let sigma = 40;
        let old = apriori(&base, sigma);
        let update = append_rows(&base, &old, vec![]);
        assert_eq!(update.frequent.itemsets, old.itemsets);
        assert_eq!(update.frequent.negative_border, old.negative_border);
    }

    #[test]
    fn update_cost_below_from_scratch_when_growth_small() {
        let base = dbs(4, 400);
        // A tiny delta cannot move many borders.
        let extra = dbs(5, 10);
        let sigma = 60;
        let old = apriori(&base, sigma);
        let update = append_rows(&base, &old, extra.rows().to_vec());
        let fresh = apriori(&update.db, sigma);
        assert_eq!(update.frequent.itemsets, fresh.itemsets);
        // Expensive (merged-database) work is only the delta-touched
        // border plus growth — far below the |Th ∪ Bd⁻| a from-scratch
        // run pays; untouched border sets cost a delta subset test each.
        assert!(
            update.merged_evaluations as u64 * 2 <= fresh.queries(),
            "incremental {} not well below scratch {}",
            update.merged_evaluations,
            fresh.queries()
        );
        assert!(update.merged_evaluations <= old.negative_border.len() + 64);
        assert!(update.delta_evaluations >= old.itemsets.len());
        assert!(update.delta_evaluations <= old.itemsets.len() + old.negative_border.len());
    }

    #[test]
    fn growth_through_border_is_found() {
        // Base: AB frequent, ABC on the border; delta pushes ABC (and
        // ABCD) over the threshold.
        let base = TransactionDb::from_index_rows(4, [vec![0, 1], vec![0, 1], vec![0, 1, 2]]);
        let old = apriori(&base, 2);
        // C and D are infrequent singletons — the whole upper lattice is
        // hidden behind them on the border.
        assert!(old.negative_border.contains(&AttrSet::from_indices(4, [2])));
        let delta = vec![
            AttrSet::from_indices(4, [0, 1, 2, 3]),
            AttrSet::from_indices(4, [0, 1, 2, 3]),
        ];
        let update = append_rows(&base, &old, delta);
        let fresh = apriori(&update.db, 2);
        assert_eq!(update.frequent.itemsets, fresh.itemsets);
        // ABCD must now be in the theory (support 2).
        assert!(update
            .frequent
            .itemsets
            .iter()
            .any(|(s, supp)| *s == AttrSet::full(4) && *supp == 2));
    }
}
