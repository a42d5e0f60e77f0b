//! Incremental maintenance of the frequent-set theory under appended
//! rows — borders as an *update* structure.
//!
//! With an **absolute** threshold, appending rows can only increase
//! supports, so the theory can only grow: old frequent sets stay
//! frequent, and new frequent sets enter through the old negative border
//! (a new frequent set's minimal formerly-infrequent ancestor lies in
//! `Bd⁻(Th_old)`). The update therefore
//!
//! 1. refreshes supports of `Th_old` with one pass over the new rows,
//! 2. re-evaluates on the merged database only the border sets the
//!    appended rows actually contain — an untouched border set kept its
//!    old sub-threshold support and stays in `Bd⁻` unqueried — and
//! 3. resumes the levelwise walk only above border sets that crossed the
//!    threshold.
//!
//! This is the FUP-style argument expressed in the paper's border
//! vocabulary, and the cost is `O(touched + growth)` full-database
//! evaluations plus `O(|Th ∪ Bd⁻|)` subset tests against the delta rows
//! alone, instead of `|Th ∪ Bd⁻|` full evaluations — the same reason
//! Corollary 4 makes verification cheap.

use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

use dualminer_bitset::AttrSet;
use dualminer_obs::{Meter, NoopObserver, Outcome, RunCtl};

use crate::apriori::FrequentSets;
use crate::TransactionDb;

/// Result of an incremental update.
#[derive(Clone, Debug)]
pub struct IncrementalUpdate {
    /// The merged database (old rows followed by the new ones).
    pub db: TransactionDb,
    /// The updated frequent-set collection — identical to mining the
    /// merged database from scratch.
    pub frequent: FrequentSets,
    /// Support evaluations against the **delta** rows only (refreshing the
    /// old theory's counts) — each touches just the appended batch.
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

/// Sorts and re-derives borders from a support map — the assembly step
/// shared by complete and budget-exceeded exits.
fn assemble(
    merged: TransactionDb,
    sigma: usize,
    supports: HashMap<AttrSet, usize>,
    negative: HashSet<AttrSet>,
    delta_evaluations: usize,
    merged_evaluations: usize,
) -> IncrementalUpdate {
    let n = merged.n_items();
    let mut itemsets: Vec<(AttrSet, usize)> = supports.into_iter().collect();
    itemsets.sort_by(|(a, _), (b, _)| a.cmp_card_lex(b));
    let members: HashSet<&AttrSet> = itemsets.iter().map(|(s, _)| s).collect();
    let mut maximal: Vec<AttrSet> = itemsets
        .iter()
        .map(|(s, _)| s)
        .filter(|s| dualminer_bitset::ImmediateSupersets::new(s).all(|t| !members.contains(&t)))
        .cloned()
        .collect();
    let mut negative: Vec<AttrSet> = negative.into_iter().collect();
    negative.sort_by(|a, b| a.cmp_card_lex(b));

    // Candidate-per-level bookkeeping is not meaningful for an
    // incremental run; recompute level sizes from the evaluated family.
    // The top level is often border-only (the border sits one level above
    // the longest frequent set), so the maximum must range over both
    // collections.
    let max_level = itemsets
        .iter()
        .map(|(s, _)| s.len())
        .chain(negative.iter().map(AttrSet::len))
        .max()
        .unwrap_or(0);
    let mut candidates_per_level = Vec::with_capacity(max_level + 1);
    for level in 0..=max_level {
        let count = itemsets.iter().filter(|(s, _)| s.len() == level).count()
            + negative.iter().filter(|s| s.len() == level).count();
        candidates_per_level.push(count);
    }

    itemsets.shrink_to_fit();
    maximal.shrink_to_fit();
    negative.shrink_to_fit();
    let frequent = FrequentSets {
        n_items: n,
        min_support: sigma,
        n_rows: merged.n_rows(),
        itemsets,
        maximal,
        negative_border: negative,
        candidates_per_level,
        support_index: OnceLock::new(),
    };
    IncrementalUpdate {
        db: merged,
        frequent,
        delta_evaluations,
        merged_evaluations,
    }
}

/// [`append_rows`] under a budget and an observer.
///
/// Every support evaluation (delta refresh, border re-check, resumed
/// walk) records one metered query; the three stages fire phase events.
/// On a trip the partial update still contains only sets whose merged
/// support was actually verified ≥ σ, but it may miss part of the theory
/// growth — unlike a complete run it is *not* guaranteed to equal a
/// from-scratch mining of the merged database.
pub fn append_rows_ctl(
    db: &TransactionDb,
    old: &FrequentSets,
    new_rows: Vec<AttrSet>,
    ctl: &RunCtl<'_>,
) -> Outcome<IncrementalUpdate> {
    let n = db.n_items();
    assert_eq!(old.n_items(), n, "mined collection from a different schema");
    let sigma = old.min_support();
    let mut all_rows = db.rows().to_vec();
    all_rows.extend(new_rows.iter().cloned());
    let merged = TransactionDb::new(n, all_rows);

    let mut merged_evaluations = 0usize;
    let mut delta_evaluations = 0usize;

    // 1. Old theory: supports only grow; add the delta support. These
    // passes touch only the appended rows.
    ctl.observer.on_phase_start("incremental-delta-refresh");
    let mut supports: HashMap<AttrSet, usize> = HashMap::with_capacity(old.itemsets.len());
    for (s, supp) in &old.itemsets {
        if let Some(reason) = ctl.meter.exceeded() {
            ctl.observer.on_phase_end("incremental-delta-refresh");
            return Outcome::BudgetExceeded {
                partial: assemble(
                    merged,
                    sigma,
                    supports,
                    HashSet::new(),
                    delta_evaluations,
                    merged_evaluations,
                ),
                reason,
            };
        }
        delta_evaluations += 1;
        ctl.meter.record_query();
        // Direct subset tests against the appended rows: the delta is
        // typically a handful of rows, and a subset test per row beats
        // building a vertical store over them and unpacking the set's
        // items for every query; this pass runs once per old frequent set.
        let add = new_rows.iter().filter(|r| s.is_subset(r)).count();
        supports.insert(s.clone(), supp + add);
    }
    ctl.observer.on_phase_end("incremental-delta-refresh");

    // 2 + 3. Promote border sets that crossed the threshold, resuming the
    // levelwise walk above them.
    ctl.observer.on_phase_start("incremental-border-recheck");
    let mut frontier: Vec<AttrSet> = Vec::new();
    let mut negative: HashSet<AttrSet> = HashSet::new();
    for b in &old.negative_border {
        if let Some(reason) = ctl.meter.exceeded() {
            ctl.observer.on_phase_end("incremental-border-recheck");
            return Outcome::BudgetExceeded {
                partial: assemble(
                    merged,
                    sigma,
                    supports,
                    negative,
                    delta_evaluations,
                    merged_evaluations,
                ),
                reason,
            };
        }
        // A border set none of the appended rows contains kept its old
        // support, which was < σ by definition of Bd⁻ — it cannot have
        // crossed the threshold, so the merged database is only queried
        // for sets the delta actually touched.
        if new_rows.iter().all(|r| !b.is_subset(r)) {
            delta_evaluations += 1;
            ctl.meter.record_query();
            negative.insert(b.clone());
            continue;
        }
        merged_evaluations += 1;
        ctl.meter.record_query();
        let supp = merged.support(b);
        if supp >= sigma {
            supports.insert(b.clone(), supp);
            frontier.push(b.clone());
        } else {
            negative.insert(b.clone());
        }
    }
    ctl.observer.on_phase_end("incremental-border-recheck");

    // Resume: extend newly frequent sets; a candidate is evaluated when
    // all its immediate subsets are (now) frequent.
    ctl.observer.on_phase_start("incremental-resume");
    while let Some(x) = frontier.pop() {
        for cand in dualminer_bitset::ImmediateSupersets::new(&x) {
            if supports.contains_key(&cand) || negative.contains(&cand) {
                continue;
            }
            let all_subs_frequent =
                dualminer_bitset::ImmediateSubsets::new(&cand).all(|s| supports.contains_key(&s));
            if !all_subs_frequent {
                continue;
            }
            if let Some(reason) = ctl.meter.exceeded() {
                ctl.observer.on_phase_end("incremental-resume");
                return Outcome::BudgetExceeded {
                    partial: assemble(
                        merged,
                        sigma,
                        supports,
                        negative,
                        delta_evaluations,
                        merged_evaluations,
                    ),
                    reason,
                };
            }
            merged_evaluations += 1;
            ctl.meter.record_query();
            let supp = merged.support(&cand);
            if supp >= sigma {
                supports.insert(cand.clone(), supp);
                frontier.push(cand);
            } else {
                negative.insert(cand);
            }
        }
    }
    ctl.observer.on_phase_end("incremental-resume");

    Outcome::Complete(assemble(
        merged,
        sigma,
        supports,
        negative,
        delta_evaluations,
        merged_evaluations,
    ))
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
