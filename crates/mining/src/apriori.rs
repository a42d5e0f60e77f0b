//! Apriori: Algorithm 9 instantiated for frequent sets.
//!
//! Apriori (\[2, 20\] in the paper) is the levelwise walk
//! [`dualminer_core::levelwise::walk`] with a support counter as its
//! evaluator, adding the two standard systems refinements a bare
//! `Is-interesting` oracle cannot express:
//!
//! * supports are *recorded*, not just thresholded — association-rule
//!   generation needs them (Section 2's closing remark);
//! * support counting reuses the parent's tid structure (Eclat/dEclat): a
//!   level `i+1` candidate is the union of its join pair, so its support is
//!   one AND (tidsets) or ANDNOT (diffsets) pass over the pair's two tid
//!   runs, which the walk hands down with them, instead of `i+1`
//!   intersections — see [`crate::vstore`] for the representation rules.
//!
//! The query structure — candidates, budget trips, events, checkpoints —
//! is the walk's own, so every Theorem 10/12 statement about the generic
//! algorithm applies verbatim to this miner.

use dualminer_bitset::AttrSet;
use dualminer_core::checkpoint::{Aborted, FaultCtl, LevelwiseState};
use dualminer_core::levelwise::{walk, LevelwiseRun, Node};
use dualminer_obs::{Meter, NoopObserver, Outcome, RunCtl};

use crate::vstore::{EclatCfg, EclatNode};
use crate::TransactionDb;

/// A mined collection of frequent itemsets with their supports.
#[derive(Clone, Debug)]
pub struct FrequentSets {
    pub(crate) n_items: usize,
    pub(crate) min_support: usize,
    pub(crate) n_rows: usize,
    /// Frequent sets, card-lex sorted, with absolute supports. Read-only
    /// behind [`itemsets`](Self::itemsets): [`support_of`](Self::support_of)
    /// relies on the order.
    pub(crate) itemsets: Vec<(AttrSet, usize)>,
    /// The maximal frequent sets (`MTh`).
    pub maximal: Vec<AttrSet>,
    /// The negative border: infrequent candidates all of whose subsets are
    /// frequent.
    pub negative_border: Vec<AttrSet>,
    /// Candidates evaluated per level (level = cardinality).
    pub candidates_per_level: Vec<usize>,
}

impl FrequentSets {
    /// Number of items of the mined database.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// The absolute threshold used.
    pub fn min_support(&self) -> usize {
        self.min_support
    }

    /// Rows in the mined database (for confidence/frequency computations).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The frequent sets, card-lex sorted, with absolute supports.
    pub fn itemsets(&self) -> &[(AttrSet, usize)] {
        &self.itemsets
    }

    /// Support of `x`, or `None` if `x` is not frequent.
    ///
    /// Borrow-based: a binary search over the card-lex-sorted `itemsets`
    /// vector, no cloning. `O(log m)` per lookup with `m = itemsets.len()`.
    pub fn support_of(&self, x: &AttrSet) -> Option<usize> {
        self.itemsets
            .binary_search_by(|(s, _)| s.cmp_card_lex(x))
            .ok()
            .map(|i| self.itemsets[i].1)
    }

    /// Total support-counting operations performed (Theorem 10's count).
    pub fn queries(&self) -> u64 {
        (self.itemsets.len() + self.negative_border.len()) as u64
    }
}

/// Mines all frequent itemsets of `db` at absolute threshold `min_support`.
///
/// # Panics
/// Panics if `min_support` is 0 (see [`crate::FrequencyOracle::new`]).
pub fn apriori(db: &TransactionDb, min_support: usize) -> FrequentSets {
    let meter = Meter::unlimited();
    apriori_par_ctl(db, min_support, 1, &RunCtl::new(&meter, &NoopObserver)).expect_complete()
}

/// [`apriori`] with each level's support counting spread over up to
/// `threads` scoped worker threads (`0` = available parallelism), under a
/// budget and an observer — [`apriori_ctl`] without faults or
/// checkpoints.
///
/// Every candidate's support is one streaming pass over its join pair's
/// tid structures, shared read-only across workers, and results merge in
/// candidate order: a complete run's [`FrequentSets`] is bit-identical
/// for every thread count. Each support count records one metered query
/// and each completed level fires `on_level` (see
/// [`dualminer_core::levelwise::walk`]). A budget trip — at the same
/// candidate at every thread count for `max_queries` — leaves a *genuine
/// prefix* of the sequential enumeration: every reported itemset is truly
/// frequent with its exact support, and `maximal` is the maximal family
/// of that prefix.
pub fn apriori_par_ctl(
    db: &TransactionDb,
    min_support: usize,
    threads: usize,
    ctl: &RunCtl<'_>,
) -> Outcome<FrequentSets> {
    match apriori_ctl(db, min_support, threads, ctl, &FaultCtl::none(), None) {
        Ok(outcome) => outcome,
        Err(aborted) => unreachable!("no faults injected and no checkpoint: {aborted}"),
    }
}

/// [`apriori_par_ctl`] under fault tolerance: injected faults and retries
/// per `fault`, checkpoints at level boundaries, and `resume` from a
/// saved [`LevelwiseState`] — the walk's own (see
/// [`dualminer_core::levelwise::walk`]). A resumed run recounts the
/// restored itemsets' supports from the database and counts its first
/// new level from the item columns; its result is bit-identical to an
/// uninterrupted run.
///
/// # Panics
/// Panics if `min_support` is 0 (see [`crate::FrequencyOracle::new`]).
pub fn apriori_ctl(
    db: &TransactionDb,
    min_support: usize,
    threads: usize,
    ctl: &RunCtl<'_>,
    fault: &FaultCtl<'_>,
    resume: Option<LevelwiseState>,
) -> Result<Outcome<FrequentSets>, Aborted> {
    mine(
        db,
        min_support,
        threads,
        ctl,
        fault,
        resume,
        &EclatCfg::default(),
    )
}

/// [`apriori_ctl`] with an explicit tidset↔diffset switching
/// configuration. The configuration affects only the shape of the
/// intermediate tid structures — every support is exact either way, so
/// output is bit-identical across settings (the unit tests run
/// `EclatCfg::tidset_only` against `EclatCfg::diffset_always`).
fn mine(
    db: &TransactionDb,
    min_support: usize,
    threads: usize,
    ctl: &RunCtl<'_>,
    fault: &FaultCtl<'_>,
    resume: Option<LevelwiseState>,
    cfg: &EclatCfg,
) -> Result<Outcome<FrequentSets>, Aborted> {
    assert!(min_support > 0, "min_support must be positive");
    let vstore = db.vstore();
    // A frequent candidate's node is its dEclat bookkeeping (`None` for ∅,
    // which no count reads) and its tid structure in the level slab.
    // Counting is non-materializing (`count_pair` is one read-only
    // AND/ANDNOT-popcount over the pair's structures); the walk writes
    // the structures of the level's frequent candidates once all of its
    // counts are in — the ones the next level extends.
    let evaluate =
        |_: &AttrSet, cand: &[usize], pair: (Node<'_, Option<EclatNode>>, Node<'_, _>)| {
            let (support, node) = match pair {
                ((Some(x), xs), (Some(y), ys)) => {
                    let support = vstore.count_pair(x, xs, y, ys);
                    (support, vstore.child_node(x, support, cfg))
                }
                // ∅, the singletons, and the first level after a resume have
                // no evaluated pair: count from the item columns.
                _ => {
                    let support = vstore.support_items(cand);
                    (support, vstore.items_node(support, cfg))
                }
            };
            (support >= min_support).then_some((support, (!cand.is_empty()).then_some(node)))
        };
    let materialize = |cand: &[usize],
                       pair: (Node<'_, Option<EclatNode>>, Node<'_, _>),
                       node: &Option<EclatNode>,
                       out: &mut [u64]| {
        let child = node
            .as_ref()
            .expect("only ∅ lacks a tid structure, and ∅ is no pair member");
        match pair {
            ((Some(x), xs), (_, ys)) => vstore.write_child(x, xs, ys, child.support, out),
            _ => vstore.write_items(cand, out),
        }
    };
    let outcome = walk(
        db.n_items(),
        vstore.blocks(),
        evaluate,
        materialize,
        |x| db.support(x),
        threads,
        ctl,
        fault,
        resume,
    )?;
    Ok(outcome.map(|run| frequent_sets(db, min_support, run)))
}

/// Assembles the walk's result: the theory, its members paired with
/// their supports, is the itemset list. Shared with the incremental
/// update, which runs the same walk over a merged database.
pub(crate) fn frequent_sets(
    db: &TransactionDb,
    min_support: usize,
    run: LevelwiseRun<(AttrSet, usize)>,
) -> FrequentSets {
    let LevelwiseRun {
        theory: mut itemsets,
        mut positive_border,
        mut negative_border,
        candidates_per_level,
        ..
    } = run;
    // The result may be retained (the daemon caches it): drop the growth
    // slack of the level-by-level pushes.
    itemsets.shrink_to_fit();
    positive_border.shrink_to_fit();
    negative_border.shrink_to_fit();
    FrequentSets {
        n_items: db.n_items(),
        min_support,
        n_rows: db.n_rows(),
        itemsets,
        maximal: positive_border,
        negative_border,
        candidates_per_level,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrequencyOracle;
    use dualminer_bitset::Universe;
    use dualminer_core::levelwise::levelwise;

    fn fig1_db() -> TransactionDb {
        TransactionDb::from_index_rows(4, [vec![0, 1, 2], vec![0, 1, 2, 3], vec![1, 3]])
    }

    #[test]
    fn figure1_frequent_sets() {
        let db = fig1_db();
        let u = Universe::letters(4);
        let fs = apriori(&db, 2);
        assert_eq!(u.display_family(fs.maximal.iter()), "{BD, ABC}");
        assert_eq!(u.display_family(fs.negative_border.iter()), "{AD, CD}");
        // Theory: ∅,A,B,C,D,AB,AC,BC,BD,ABC = 10.
        assert_eq!(fs.itemsets.len(), 10);
        assert_eq!(fs.support_of(&u.parse("B").unwrap()), Some(3));
        assert_eq!(fs.support_of(&u.parse("ABC").unwrap()), Some(2));
        assert_eq!(fs.support_of(&u.parse("BD").unwrap()), Some(2));
        assert_eq!(fs.support_of(&u.parse("AD").unwrap()), None);
    }

    #[test]
    fn support_of_agrees_with_stored_itemsets() {
        let db = fig1_db();
        let fs = apriori(&db, 2);
        for (set, support) in &fs.itemsets {
            assert_eq!(fs.support_of(set), Some(*support), "{set:?}");
        }
        // Infrequent (support 1 < σ): not in the theory, so no lookup hit.
        assert_eq!(fs.support_of(&AttrSet::from_indices(4, [0, 1, 2, 3])), None);
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        let db = fig1_db();
        for sigma in 1..=4usize {
            let seq = apriori(&db, sigma);
            for threads in [0, 2, 3, 8] {
                let meter = Meter::unlimited();
                let par = apriori_par_ctl(&db, sigma, threads, &RunCtl::new(&meter, &NoopObserver))
                    .expect_complete();
                assert_eq!(par.itemsets, seq.itemsets, "σ={sigma} threads={threads}");
                assert_eq!(par.maximal, seq.maximal);
                assert_eq!(par.negative_border, seq.negative_border);
                assert_eq!(par.candidates_per_level, seq.candidates_per_level);
                assert_eq!(par.queries(), seq.queries());
            }
        }
    }

    /// Every `max_queries = k` up to the Theorem 10 count meters exactly
    /// `k` queries, and threads 2 and 4 return the one-thread partial.
    #[test]
    fn budgeted_partials_are_thread_invariant() {
        use crate::gen::{quest, QuestParams};
        use dualminer_obs::Budget;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let params = QuestParams {
            n_items: 12,
            n_transactions: 200,
            avg_transaction_size: 5,
            avg_pattern_size: 3,
            n_patterns: 6,
            corruption: 0.3,
        };
        let db = quest(&params, &mut StdRng::seed_from_u64(21));
        let sigma = 12;
        let count = apriori(&db, sigma).queries();
        assert!(count > 30, "the sweep needs several levels: {count}");
        for k in 1..=count {
            let mut sequential = None;
            for threads in [1usize, 2, 4] {
                let meter = Budget {
                    max_queries: Some(k),
                    ..Budget::UNLIMITED
                }
                .start();
                let outcome =
                    apriori_par_ctl(&db, sigma, threads, &RunCtl::new(&meter, &NoopObserver));
                let ctx = format!("k={k} threads={threads}");
                assert_eq!(outcome.is_complete(), k == count, "{ctx}");
                assert_eq!(meter.queries(), k, "{ctx}: metered queries");
                let (fs, reason) = outcome.into_parts();
                assert_eq!(fs.queries(), k, "{ctx}: run queries");
                let parts = (
                    fs.itemsets,
                    fs.maximal,
                    fs.negative_border,
                    fs.candidates_per_level,
                    reason,
                );
                match &sequential {
                    None => sequential = Some(parts),
                    Some(seq) => assert_eq!(&parts, seq, "{ctx}: partial"),
                }
            }
        }
    }

    /// The level slabs move where tid structures live, never an answer.
    /// Under every representation policy at threads 1, 2 and 4, a run
    /// resumed from each level boundary (its first level counted from the
    /// item columns into the slab) and the partial at every `max_queries`
    /// equal the one-thread default-policy run: itemsets with supports,
    /// `MTh`, `Bd⁻`, candidates per level and the metered queries.
    #[test]
    fn slab_runs_match_one_thread_reference() {
        use crate::gen::{quest, QuestParams};
        use dualminer_core::checkpoint::ResumeState;
        use dualminer_obs::{Budget, MemoryCheckpoints, RetryPolicy};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let params = QuestParams {
            n_items: 12,
            n_transactions: 200,
            avg_transaction_size: 5,
            avg_pattern_size: 3,
            n_patterns: 6,
            corruption: 0.3,
        };
        let db = quest(&params, &mut StdRng::seed_from_u64(28));
        let sigma = 12;
        type Parts = (
            Vec<(AttrSet, usize)>,
            Vec<AttrSet>,
            Vec<AttrSet>,
            Vec<usize>,
            u64,
        );
        let run = |cfg: &EclatCfg,
                   threads: usize,
                   budget: Budget,
                   sink: Option<&MemoryCheckpoints>,
                   resume: Option<LevelwiseState>|
         -> (Parts, u64) {
            let meter = budget.start();
            let fault = match sink {
                Some(sink) => FaultCtl::checkpointed(RetryPolicy::default(), sink, 1),
                None => FaultCtl::none(),
            };
            let ctl = RunCtl::new(&meter, &NoopObserver);
            let fs = mine(&db, sigma, threads, &ctl, &fault, resume, cfg)
                .expect("no faults injected")
                .into_value();
            let queries = fs.queries();
            let parts = (
                fs.itemsets,
                fs.maximal,
                fs.negative_border,
                fs.candidates_per_level,
                queries,
            );
            (parts, meter.queries())
        };
        let sink = MemoryCheckpoints::new();
        let (reference, count) = run(
            &EclatCfg::default(),
            1,
            Budget::default(),
            Some(&sink),
            None,
        );
        assert!(
            reference.3.len() > 4,
            "the sweep needs several levels: {count} queries"
        );
        let boundaries: Vec<LevelwiseState> = sink
            .all()
            .iter()
            .map(|envelope| match ResumeState::from_envelope(envelope) {
                Ok(ResumeState::Levelwise(state)) => state,
                other => panic!("not a levelwise state: {other:?}"),
            })
            .collect();
        assert_eq!(boundaries.len(), reference.3.len());
        let capped = |k: u64| Budget {
            max_queries: Some(k),
            ..Budget::default()
        };
        let partials: Vec<(Parts, u64)> = (1..=count)
            .map(|k| run(&EclatCfg::default(), 1, capped(k), None, None))
            .collect();
        for cfg in [
            EclatCfg::default(),
            EclatCfg::tidset_only(),
            EclatCfg::diffset_always(),
        ] {
            for threads in [1usize, 2, 4] {
                let ctx = format!("density={} threads={threads}", cfg.diffset_density);
                let whole = run(&cfg, threads, Budget::default(), None, None);
                assert_eq!(whole, (reference.clone(), count), "{ctx}");
                for state in &boundaries {
                    let done = state.queries;
                    let resumed = run(&cfg, threads, Budget::default(), None, Some(state.clone()));
                    assert_eq!(
                        resumed,
                        (reference.clone(), count - done),
                        "{ctx} resumed at {done}"
                    );
                }
                for (k, partial) in (1..=count).zip(&partials) {
                    let got = run(&cfg, threads, capped(k), None, None);
                    assert_eq!(&got, partial, "{ctx} max_queries={k}");
                    assert_eq!(got.1, k, "{ctx} max_queries={k}");
                }
            }
        }
    }

    #[test]
    fn matches_generic_levelwise() {
        let db = fig1_db();
        for sigma in 1..=3usize {
            let fs = apriori(&db, sigma);
            let oracle = FrequencyOracle::new(&db, sigma);
            let run = levelwise(&oracle);
            let theory: Vec<AttrSet> = fs.itemsets.iter().map(|(s, _)| s.clone()).collect();
            assert_eq!(theory, run.theory, "σ={sigma}");
            assert_eq!(fs.maximal, run.positive_border, "σ={sigma}");
            assert_eq!(fs.negative_border, run.negative_border, "σ={sigma}");
            assert_eq!(
                fs.candidates_per_level, run.candidates_per_level,
                "σ={sigma}"
            );
            assert_eq!(fs.queries(), run.queries, "σ={sigma}");
        }
    }

    #[test]
    fn threshold_above_rows_gives_empty_theory() {
        let db = fig1_db();
        let fs = apriori(&db, 4);
        assert!(fs.itemsets.is_empty());
        assert_eq!(fs.negative_border, vec![AttrSet::empty(4)]);
        assert!(fs.maximal.is_empty());
    }

    #[test]
    fn supports_are_exact() {
        let db = fig1_db();
        let fs = apriori(&db, 1);
        for (set, support) in &fs.itemsets {
            assert_eq!(*support, db.support_horizontal(set), "{set:?}");
        }
    }

    #[test]
    fn empty_database() {
        let db = TransactionDb::new(3, vec![]);
        let fs = apriori(&db, 1);
        assert!(fs.itemsets.is_empty());
        assert_eq!(fs.negative_border, vec![AttrSet::empty(3)]);
    }

    /// Tidset-only, diffset-always, and the density-switched default mine
    /// bit-identically on row universes straddling the u64 block
    /// boundaries (64/127/128/129) and spanning multiple blocks (200) —
    /// the support identity `support(c) = support(parent) − |diffset|`
    /// must hold exactly at every tail-masking shape.
    #[test]
    fn diffset_equals_tidset_across_row_universes() {
        let n_items = 12usize;
        for n_rows in [64usize, 127, 128, 129, 200] {
            // Deterministic quasi-random rows: dense enough that deep
            // levels exist, varied enough that diffsets and tidsets both
            // win nodes under the default density rule.
            let rows: Vec<Vec<usize>> = (0..n_rows)
                .map(|t| {
                    (0..n_items)
                        .filter(|i| (t * 7 + i * 13) % 5 != 0 && (t + i) % 3 != 2)
                        .collect()
                })
                .collect();
            let db = TransactionDb::from_index_rows(n_items, rows);
            let sigma = n_rows / 3;
            let reference = apriori(&db, sigma);
            for cfg in [
                EclatCfg::default(),
                EclatCfg::tidset_only(),
                EclatCfg::diffset_always(),
            ] {
                for threads in [1, 3] {
                    let meter = Meter::unlimited();
                    let fs = mine(
                        &db,
                        sigma,
                        threads,
                        &RunCtl::new(&meter, &NoopObserver),
                        &FaultCtl::none(),
                        None,
                        &cfg,
                    )
                    .expect("no faults injected")
                    .expect_complete();
                    let ctx = format!("rows={n_rows} threads={threads}");
                    assert_eq!(fs.itemsets, reference.itemsets, "{ctx}");
                    assert_eq!(fs.maximal, reference.maximal, "{ctx}");
                    assert_eq!(fs.negative_border, reference.negative_border, "{ctx}");
                    assert_eq!(
                        fs.candidates_per_level, reference.candidates_per_level,
                        "{ctx}"
                    );
                    assert_eq!(fs.queries(), reference.queries(), "{ctx}");
                }
            }
        }
    }
}
