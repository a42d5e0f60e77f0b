//! Incremental maintenance of the frequent-set theory under appended
//! rows — borders as an *update* structure.
//!
//! With an **absolute** threshold σ, appended rows raise the support of
//! exactly the sets they contain. So only old frequent and old `Bd⁻` sets
//! inside an appended row can change, plus the supersets of newly
//! frequent sets (growth), which lie inside an appended row too. The
//! update costs that change, not the theory: (a) a depth-first walk over
//! each appended row's subsets bumps the old frequent sets it finds by
//! binary search in the card-lex `itemsets` (as
//! [`FrequentSets::support_of`] does) and collects the old `Bd⁻` sets it
//! touches; (b) only those, and the growth candidates inside an appended
//! row, are counted on the merged database — any other set kept its old
//! verdict; (c) each level merges the old `Th_k` and `Bd⁻_k` with these
//! sets in card-lex order. Level k's `Th′_k ∪ Bd⁻′_k` is what the cold
//! walk evaluates there (Theorem 10), so the meter, the `on_level`
//! events and every budget trip keep the cold walk's scale.

use dualminer_bitset::AttrSet;
use dualminer_core::border::positive_border;
use dualminer_core::levelwise::LevelwiseRun;
use dualminer_obs::{BudgetReason, Meter, NoopObserver, Outcome, RunCtl};

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
    /// Old sets, frequent or `Bd⁻`, that some appended row contains: the
    /// sets settled from the delta rows alone, each counted once.
    pub delta_evaluations: usize,
    /// Support counts on the **merged** database: the touched `Bd⁻` sets
    /// and the growth candidates inside some appended row. A cold run
    /// pays `frequent.queries()` such counts.
    pub merged_evaluations: usize,
}

/// Appends `new_rows` to `db` and updates a previously mined collection.
///
/// # Panics
/// Panics if `old` was mined on another schema or row count, or if a new
/// row's universe differs from the item count.
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
/// `old` must be the complete collection of `db` at its threshold. Each
/// level meters `|Th′_k ∪ Bd⁻′_k|` queries in one call and fires
/// `on_level` as a cold one-thread [`crate::apriori::apriori_par_ctl`]
/// run on the merged database does. The query cap is settled before each
/// level: a `max_queries = K` append returns the first K sets of
/// `Th′ ∪ Bd⁻′` in card-lex order, with the maximal family of that theory
/// prefix — the cold run's partial under the same cap. A deadline or
/// cancel trip returns every level below the first unsettled one, also a
/// prefix of the cold walk.
pub fn append_rows_ctl(
    db: &TransactionDb,
    old: &FrequentSets,
    new_rows: Vec<AttrSet>,
    ctl: &RunCtl<'_>,
) -> Outcome<IncrementalUpdate> {
    let n = db.n_items();
    assert_eq!(old.n_items(), n, "mined collection from a different schema");
    assert_eq!(old.n_rows(), db.n_rows(), "mined on other rows");
    let sigma = old.min_support();
    // One arena copy: `db` may be a shared cached base, and a transpose of
    // it would stay resident there.
    let merged = TransactionDb::from_vstore(db.vstore().appended(&new_rows));
    let (th, bd) = (&old.itemsets[..], &old.negative_border[..]);
    let mut theory = Vec::with_capacity(th.len() + bd.len());
    let mut negative = Vec::with_capacity(bd.len());
    let mut candidates_per_level = Vec::new();
    // Every new frequent set in card-lex order, and the last level's.
    let (mut grown, mut fresh) = (Vec::new(), Vec::<AttrSet>::new());
    let (mut delta_evaluations, mut merged_evaluations) = (0, 0);
    let mut reason = ctl.meter.exceeded();
    if reason.is_none() {
        // (a) Settle the old sets inside the appended rows.
        let mut marks = (vec![0; th.len()], vec![false; bd.len()]);
        for row in &new_rows {
            settle(old, &mut AttrSet::empty(n), &row.to_vec(), &mut marks);
        }
        let (bump, hit) = marks;
        delta_evaluations =
            bump.iter().filter(|&&b| b > 0).count() + hit.iter().filter(|&&h| h).count();
        // (b) A count on the merged database for what the delta touched.
        let mut count = |x: &AttrSet, touched: bool| {
            merged_evaluations += usize::from(touched);
            touched.then(|| merged.support(x)).filter(|&s| s >= sigma)
        };
        let inside = |x: &AttrSet| new_rows.iter().any(|r| x.is_subset(r));
        let border: Vec<Option<usize>> = bd.iter().zip(hit).map(|(x, h)| count(x, h)).collect();
        // Items a growth step adds: any at level 1, then a frequent one.
        let mut items: Vec<usize> = (0..n).collect();
        let (mut ti, mut bi) = (0, 0);
        for k in 0..=n {
            let tj = ti + th[ti..].partition_point(|(x, _)| x.len() == k);
            let bj = bi + bd[bi..].partition_point(|x| x.len() == k);
            let frequent = |w: AttrSet| {
                old.support_of(&w).is_some() || fresh.binary_search_by(|f| f.cmp_lex(&w)).is_ok()
            };
            let mut growth = Vec::new();
            for y in &fresh {
                for &i in items.iter().filter(|&&i| !y.contains(i)) {
                    let x = y.union(&AttrSet::singleton(n, i));
                    if y.iter().all(|j| frequent(without(&x, j))) {
                        growth.push(x);
                    }
                }
            }
            growth.sort_unstable_by(|a, b| a.cmp_lex(b));
            growth.dedup();
            let growth: Vec<_> = growth
                .into_iter()
                .map(|x| (count(&x, inside(&x)), x))
                .collect();
            // (c) Assemble the admitted prefix of level k.
            let old_k = || (ti..tj).map(|j| (&th[j].0, Some(th[j].1 + bump[j])));
            let border_k = || (bi..bj).map(|j| (&bd[j], border[j]));
            let growth_k = || growth.iter().map(|(v, x)| (x, *v));
            let len = (tj - ti) + (bj - bi) + growth.len();
            // The cold walk records ∅'s query unconditionally, and polls
            // the budget only on a non-empty level above it.
            let tested = match k {
                0 => len,
                _ if len == 0 || ctl.meter.exceeded().is_some() => 0,
                _ => ctl.meter.admit(len),
            };
            ctl.meter.record_queries(tested as u64);
            let start = theory.len();
            for (x, verdict) in merge(merge(old_k(), border_k()), growth_k()).take(tested) {
                match verdict {
                    Some(support) => theory.push((x.clone(), support)),
                    None => negative.push(x.clone()),
                }
            }
            let interesting = theory.len() - start;
            if tested > 0 {
                candidates_per_level.push(tested);
            }
            ctl.observer.on_level(k, tested, interesting);
            if tested < len {
                reason = Some(ctl.meter.exceeded().unwrap_or(BudgetReason::Cancelled));
                break;
            }
            fresh = merge(border_k(), growth_k())
                .filter_map(|(x, v)| v.map(|_| x.clone()))
                .collect();
            grown.extend_from_slice(&fresh);
            if interesting == 0 || k == n {
                break;
            }
            if k == 1 {
                items.retain(|&i| theory[start..].iter().any(|(x, _)| x.contains(i)));
            }
            (ti, bi) = (tj, bj);
        }
    }
    let maximal = if reason.is_some() {
        positive_border(&theory.iter().map(|(x, _)| x.clone()).collect::<Vec<_>>())
    } else {
        // An old maximal or a new set is maximal unless a new frequent
        // set is an immediate superset.
        let mut covered: Vec<AttrSet> = grown
            .iter()
            .flat_map(|z| z.iter().map(move |j| without(z, j)))
            .collect();
        covered.sort_unstable_by(|a, b| a.cmp_card_lex(b));
        merge(
            old.maximal.iter().map(|x| (x, ())),
            grown.iter().map(|x| (x, ())),
        )
        .filter(|(x, _)| covered.binary_search_by(|c| c.cmp_card_lex(x)).is_err())
        .map(|(x, _)| x.clone())
        .collect()
    };
    let run = LevelwiseRun {
        theory,
        positive_border: maximal,
        negative_border: negative,
        queries: candidates_per_level.iter().sum::<usize>() as u64,
        candidates_per_level,
    };
    let update = IncrementalUpdate {
        frequent: frequent_sets(&merged, sigma, run),
        db: merged,
        delta_evaluations,
        merged_evaluations,
    };
    match reason {
        None => Outcome::Complete(update),
        Some(reason) => Outcome::BudgetExceeded {
            partial: update,
            reason,
        },
    }
}

/// Step (a) from `x`, a subset of an appended row whose remaining items
/// are `rest`: bumps `x` and its extensions by `rest` while they are old
/// frequent sets, and marks the old `Bd⁻` sets among them. A set outside
/// the old theory ends the descent: no superset of it is frequent or on
/// the border.
fn settle(old: &FrequentSets, x: &mut AttrSet, rest: &[usize], marks: &mut Marks) {
    if let Ok(j) = old.itemsets.binary_search_by(|(s, _)| s.cmp_card_lex(x)) {
        marks.0[j] += 1;
        for (p, &i) in rest.iter().enumerate() {
            x.insert(i);
            settle(old, x, &rest[p + 1..], marks);
            x.remove(i);
        }
    } else if let Ok(j) = old.negative_border.binary_search_by(|s| s.cmp_card_lex(x)) {
        marks.1[j] = true;
    }
}

/// Per old frequent set, how many appended rows contain it; per old
/// `Bd⁻` set, whether one does.
type Marks = (Vec<usize>, Vec<bool>);

/// `x` without the item `j`.
fn without(x: &AttrSet, j: usize) -> AttrSet {
    let mut w = x.clone();
    w.remove(j);
    w
}

/// Merges two card-lex sorted streams of `(set, value)` pairs.
fn merge<'a, V>(
    a: impl Iterator<Item = (&'a AttrSet, V)>,
    b: impl Iterator<Item = (&'a AttrSet, V)>,
) -> impl Iterator<Item = (&'a AttrSet, V)> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || {
        let b_first = match (a.peek(), b.peek()) {
            (Some((x, _)), Some((y, _))) => y.cmp_card_lex(x).is_lt(),
            (next, _) => next.is_none(),
        };
        if b_first {
            b.next()
        } else {
            a.next()
        }
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
        assert_eq!(update.frequent.maximal, old.maximal);
        assert_eq!(update.frequent.negative_border, old.negative_border);
        assert_eq!(
            update.frequent.candidates_per_level,
            old.candidates_per_level
        );
        assert_eq!(
            (update.delta_evaluations, update.merged_evaluations),
            (0, 0)
        );
    }

    /// Whether some row of `rows` contains `x`.
    fn inside(x: &AttrSet, rows: &[AttrSet]) -> bool {
        rows.iter().any(|r| x.is_subset(r))
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
        // run pays.
        assert!(
            update.merged_evaluations as u64 * 2 <= fresh.queries(),
            "incremental {} not well below scratch {}",
            update.merged_evaluations,
            fresh.queries()
        );
        // Exactly the old sets inside an appended row are settled from
        // the delta; exactly the merged run's other candidates inside an
        // appended row are counted on the merged database.
        let rows = extra.rows();
        let old_sets = || {
            old.itemsets
                .iter()
                .map(|(x, _)| x)
                .chain(&old.negative_border)
        };
        let settled = old_sets().filter(|x| inside(x, rows)).count();
        let counted = (fresh.itemsets.iter().map(|(x, _)| x))
            .chain(&fresh.negative_border)
            .filter(|x| inside(x, rows) && old.support_of(x).is_none())
            .count();
        assert!(settled > 0 && counted > 0, "a vacuous delta");
        assert_eq!(update.delta_evaluations, settled);
        assert_eq!(update.merged_evaluations, counted);
    }

    #[test]
    fn pre_cancelled_meter_returns_the_empty_prefix() {
        let base = dbs(6, 100);
        let old = apriori(&base, 20);
        let meter = Meter::unlimited();
        meter.cancel();
        let (update, reason) = append_rows_ctl(
            &base,
            &old,
            dbs(7, 5).rows().to_vec(),
            &RunCtl::new(&meter, &NoopObserver),
        )
        .into_parts();
        assert_eq!(reason, Some(BudgetReason::Cancelled));
        assert_eq!(meter.queries(), 0);
        assert_eq!(update.db.n_rows(), 105);
        let fs = update.frequent;
        assert!(fs.itemsets.is_empty() && fs.maximal.is_empty() && fs.negative_border.is_empty());
        assert!(fs.candidates_per_level.is_empty());
        assert_eq!(
            (update.delta_evaluations, update.merged_evaluations),
            (0, 0)
        );
    }

    #[test]
    #[should_panic(expected = "row universe does not match item count")]
    fn appended_row_universe_checked() {
        let base = dbs(8, 50);
        let old = apriori(&base, 10);
        append_rows(&base, &old, vec![AttrSet::empty(13)]);
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
