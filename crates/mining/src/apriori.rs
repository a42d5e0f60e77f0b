//! Apriori: the specialized levelwise frequent-set miner.
//!
//! Algorithm 9 instantiated for frequent sets (\[2, 20\] in the paper), with
//! the two standard systems refinements the generic oracle version cannot
//! express:
//!
//! * supports are *recorded*, not just thresholded — association-rule
//!   generation needs them (Section 2's closing remark);
//! * support counting reuses the parent's tid structure (Eclat/dEclat): a
//!   level `i+1` candidate is the union of its generating parent and its
//!   join partner, so its support is one AND (tidsets) or ANDNOT
//!   (diffsets) pass over two tid runs of the vertical store instead of `i+1`
//!   intersections — see [`crate::vstore`] for the representation rules.
//!
//! The query structure is *identical* to the generic
//! [`dualminer_core::levelwise::levelwise`] run against a
//! [`crate::FrequencyOracle`] — the unit tests assert equality of theory,
//! borders, and candidate counts — so every Theorem 10/12 statement about
//! the generic algorithm applies verbatim to this miner.

use std::collections::HashMap;
use std::sync::OnceLock;

use dualminer_bitset::{AttrSet, SetTrie};
use dualminer_core::candidates::prefix_join_batch;
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
    /// behind [`itemsets`](Self::itemsets): the cached
    /// [`support_index`](Self::support_index) is derived from this vector,
    /// and public mutability would let the two silently diverge.
    pub(crate) itemsets: Vec<(AttrSet, usize)>,
    /// The maximal frequent sets (`MTh`).
    pub maximal: Vec<AttrSet>,
    /// The negative border: infrequent candidates all of whose subsets are
    /// frequent.
    pub negative_border: Vec<AttrSet>,
    /// Candidates evaluated per level (level = cardinality).
    pub candidates_per_level: Vec<usize>,
    /// Lazily built support lookup table (see
    /// [`support_index`](Self::support_index)).
    pub(crate) support_index: OnceLock<HashMap<AttrSet, usize>>,
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
    ///
    /// Read-only: [`support_index`](Self::support_index) caches a lookup
    /// table built from this vector on first use, so exposing the field
    /// mutably would allow the cache to go stale.
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

    /// Support lookup table — `O(1)` per lookup after a one-time `O(m)`
    /// build that is **cached**: repeated rule-mining passes share one
    /// table instead of re-hashing the whole theory per call.
    ///
    /// The cache keys are clones of the stored itemsets (allocation-free
    /// for universes ≤ 128 bits). The itemset collection is immutable
    /// after mining (see [`itemsets`](Self::itemsets)), so the cached
    /// table can never go stale.
    pub fn support_index(&self) -> &HashMap<AttrSet, usize> {
        self.support_index.get_or_init(|| {
            self.itemsets
                .iter()
                .map(|(s, supp)| (s.clone(), *supp))
                .collect()
        })
    }

    /// Total support-counting operations performed (Theorem 10's count).
    pub fn queries(&self) -> u64 {
        (self.itemsets.len() + self.negative_border.len()) as u64
    }

    /// Assembles a [`FrequentSets`] from a generic levelwise run over `db`,
    /// recomputing each theory member's exact support from the database.
    ///
    /// The fault-tolerant mining path drives the *generic*
    /// [`dualminer_core::levelwise`] engine (which supports retries and
    /// checkpoint/resume but knows nothing about supports) against a
    /// [`crate::FrequencyOracle`], then converts the completed run with
    /// this helper. `run.theory` is card-lex sorted — the invariant
    /// [`support_of`](Self::support_of) binary-searches on — and for a run
    /// mined from `db` at the same threshold the result is bit-identical
    /// to [`apriori`] (asserted by the unit tests).
    pub fn from_levelwise(
        db: &TransactionDb,
        min_support: usize,
        run: &dualminer_core::levelwise::LevelwiseRun,
    ) -> FrequentSets {
        let itemsets: Vec<(AttrSet, usize)> = run
            .theory
            .iter()
            .map(|s| (s.clone(), db.support(s)))
            .collect();
        FrequentSets {
            n_items: db.n_items(),
            min_support,
            n_rows: db.n_rows(),
            itemsets,
            maximal: run.positive_border.clone(),
            negative_border: run.negative_border.clone(),
            candidates_per_level: run.candidates_per_level.clone(),
            support_index: OnceLock::new(),
        }
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

/// The maximal family of a mined (downward-closed) itemset collection, by
/// proper-superset queries against a trie of the members.
fn trie_maximal(itemsets: &[(AttrSet, usize)]) -> Vec<AttrSet> {
    let mut member_trie = SetTrie::new();
    for (s, _) in itemsets {
        member_trie.insert(s);
    }
    itemsets
        .iter()
        .map(|(s, _)| s)
        .filter(|s| !member_trie.has_proper_superset_of(s))
        .cloned()
        .collect()
}

/// Sorts the negative border and assembles the result — shared by
/// complete and budget-exceeded exits, so partial results carry the
/// maximal sets *of the mined prefix*. The miner derives `maximal`
/// incrementally from its per-level subset marks; debug builds check it
/// against the trie scan.
fn finish_sets(
    db: &TransactionDb,
    min_support: usize,
    mut itemsets: Vec<(AttrSet, usize)>,
    mut maximal: Vec<AttrSet>,
    mut negative: Vec<AttrSet>,
    candidates_per_level: Vec<usize>,
) -> FrequentSets {
    debug_assert_eq!(
        maximal,
        trie_maximal(&itemsets),
        "incremental maximal marking must agree with the trie scan"
    );
    negative.sort_by(|a, b| a.cmp_card_lex(b));
    // The result may be retained (the daemon caches it): drop the growth
    // slack of the level-by-level pushes.
    itemsets.shrink_to_fit();
    maximal.shrink_to_fit();
    negative.shrink_to_fit();

    FrequentSets {
        n_items: db.n_items(),
        min_support,
        n_rows: db.n_rows(),
        itemsets,
        maximal,
        negative_border: negative,
        candidates_per_level,
        support_index: OnceLock::new(),
    }
}

/// [`apriori`] with each level's support counting spread over up to
/// `threads` scoped worker threads (`0` = available parallelism), under a
/// budget and an observer.
///
/// Work splits by candidate: every candidate's support is still one
/// streaming pass over its parent's and join partner's tid structures
/// (the Eclat/dEclat reuse is intact — level nodes are shared read-only
/// across workers). Chunks are contiguous runs of the sequential
/// candidate order and per-chunk results merge in chunk order, so a
/// complete run's [`FrequentSets`] — itemsets with supports, maximal
/// family, negative border, per-level candidate counts, and therefore
/// [`FrequentSets::queries`] — is bit-identical to the sequential miner
/// for every thread count.
///
/// Each candidate support count records one metered query (matching
/// [`FrequentSets::queries`] on a complete run), and each completed level
/// fires `on_level` with its candidate/frequent counts. The query cap
/// admits a prefix of each level before it is dispatched, so a
/// `max_queries` trip lands on the same candidate at every thread count.
/// Workers poll the deadline and cancel flag per candidate; on a trip the
/// merged verdicts are truncated at the first skipped candidate, so the
/// partial [`FrequentSets`] holds a *genuine prefix* of the sequential
/// enumeration — every reported itemset is truly frequent with its exact
/// support, and `maximal` is the maximal family of that prefix.
pub fn apriori_par_ctl(
    db: &TransactionDb,
    min_support: usize,
    threads: usize,
    ctl: &RunCtl<'_>,
) -> Outcome<FrequentSets> {
    apriori_with_cfg(db, min_support, threads, ctl, &EclatCfg::default())
}

/// [`apriori_par_ctl`] with an explicit tidset↔diffset switching
/// configuration. The configuration affects only the shape of the
/// intermediate tid structures — every support is exact either way, so
/// output is bit-identical across settings (the unit tests run
/// `EclatCfg::tidset_only` against `EclatCfg::diffset_always`).
fn apriori_with_cfg(
    db: &TransactionDb,
    min_support: usize,
    threads: usize,
    ctl: &RunCtl<'_>,
    cfg: &EclatCfg,
) -> Outcome<FrequentSets> {
    assert!(min_support > 0, "min_support must be positive");
    let n = db.n_items();
    let mut itemsets: Vec<(AttrSet, usize)> = Vec::new();
    let mut negative: Vec<AttrSet> = Vec::new();
    let mut candidates_per_level: Vec<usize> = Vec::new();

    if let Some(reason) = ctl.meter.exceeded() {
        return Outcome::BudgetExceeded {
            partial: finish_sets(
                db,
                min_support,
                itemsets,
                vec![],
                negative,
                candidates_per_level,
            ),
            reason,
        };
    }

    // Level 0: ∅ with support |r|.
    candidates_per_level.push(1);
    ctl.meter.record_query();
    let empty_support = db.n_rows();
    let empty_frequent = empty_support >= min_support;
    ctl.observer.on_level(0, 1, usize::from(empty_frequent));
    if !empty_frequent {
        return Outcome::Complete(FrequentSets {
            n_items: n,
            min_support,
            n_rows: db.n_rows(),
            itemsets,
            maximal: vec![],
            negative_border: vec![AttrSet::empty(n)],
            candidates_per_level,
            support_index: OnceLock::new(),
        });
    }
    itemsets.push((AttrSet::empty(n), empty_support));

    // Level entries carry (sorted index vector, dEclat node). A level-0
    // placeholder node is never read: cardinality-1 candidates are item
    // columns, gathered straight from the store.
    let vstore = db.vstore();
    let mut level: Vec<(Vec<usize>, Option<EclatNode>)> = vec![(vec![], None)];
    // The maximal family accrues level by level: a member is maximal iff
    // no frequent immediate superset marks it while its extensions are
    // counted (the mined family is downward closed, so immediate
    // supersets decide proper-superset-freeness). `level_start` indexes
    // the current level's first member in `itemsets` — level and itemsets
    // push in lockstep, so level[m]'s set is itemsets[level_start + m].
    let mut maximal: Vec<AttrSet> = Vec::new();
    let mut level_start = 0usize;
    let mut card = 0usize;
    while !level.is_empty() && card < n {
        card += 1;
        // Shared prefix-join engine; the flat batch carries, per
        // candidate, its `(parent, partner)` level indices (the dEclat
        // sibling reuse below) and the level indices of its remaining
        // immediate subsets (the maximal-family marking below).
        let batch = prefix_join_batch(n, card, &level, |(v, _)| v.as_slice());

        // Count supports for the batch prefix the query cap admits, in
        // parallel. Counting is non-materializing (`count_pair` is one
        // contiguous read-only AND/ANDNOT-popcount over the sibling
        // structures); a child node is materialized only for candidates
        // that pass the threshold — the ones the next level keeps. `None`
        // marks a candidate skipped because the deadline or a cancel
        // tripped.
        let level_ref = &level;
        let batch_ref = &batch;
        let pairs = batch.pairs();
        let prefix = &pairs[..ctl.meter.admit(pairs.len())];
        let counted: Vec<Option<(AttrSet, usize, Option<EclatNode>)>> =
            dualminer_parallel::par_map(threads, prefix, |idx, &(p, q)| {
                if ctl.meter.exceeded().is_some() {
                    return None;
                }
                ctl.meter.record_query();
                let cand = batch_ref.cand(idx);
                let cand_set = AttrSet::from_indices(n, cand.iter().copied());
                let (support, node) = if card == 1 {
                    let item = cand[0];
                    let support = vstore.item_support(item);
                    let node =
                        (support >= min_support).then(|| vstore.item_node(item, support, cfg));
                    (support, node)
                } else {
                    let x = level_ref[p as usize]
                        .1
                        .as_ref()
                        .expect("level ≥ 1 has nodes");
                    let y = level_ref[q as usize]
                        .1
                        .as_ref()
                        .expect("level ≥ 1 has nodes");
                    let support = vstore.count_pair(x, y);
                    let node =
                        (support >= min_support).then(|| vstore.make_child(x, y, support, cfg));
                    (support, node)
                };
                Some((cand_set, support, node))
            });

        let next_start = itemsets.len();
        let mut marks = vec![false; level.len()];
        let mut next: Vec<(Vec<usize>, Option<EclatNode>)> = Vec::new();
        let mut tested = 0usize;
        let mut frequent_count = 0usize;
        for (idx, verdict) in counted.into_iter().enumerate() {
            let Some((cand_set, support, tids)) = verdict else {
                break;
            };
            tested += 1;
            match tids {
                Some(cand_node) => {
                    frequent_count += 1;
                    // A frequent candidate makes every immediate subset
                    // non-maximal — and the batch already carries all of
                    // their level indices: parent, join partner, and the
                    // prefix-dropping subsets the prune step located.
                    let (p, q) = batch.pair(idx);
                    marks[p] = true;
                    marks[q] = true;
                    for &m in batch.drop_subsets(idx) {
                        marks[m as usize] = true;
                    }
                    itemsets.push((cand_set, support));
                    next.push((batch.cand(idx).to_vec(), Some(cand_node)));
                }
                None => negative.push(cand_set),
            }
        }
        if tested > 0 {
            candidates_per_level.push(tested);
        }
        ctl.observer.on_level(card, tested, frequent_count);
        if tested < pairs.len() {
            // The prefix's maximal family: unmarked members of the level
            // being extended, then every frequent set already emitted at
            // this level (none of *their* supersets were mined).
            for (m, &marked) in marks.iter().enumerate() {
                if !marked {
                    maximal.push(itemsets[level_start + m].0.clone());
                }
            }
            maximal.extend(itemsets[next_start..].iter().map(|(s, _)| s.clone()));
            let reason = ctl
                .meter
                .exceeded()
                .unwrap_or(dualminer_obs::BudgetReason::Cancelled);
            return Outcome::BudgetExceeded {
                partial: finish_sets(
                    db,
                    min_support,
                    itemsets,
                    maximal,
                    negative,
                    candidates_per_level,
                ),
                reason,
            };
        }
        // This level's extensions are all counted: unmarked members are
        // maximal for good.
        for (m, &marked) in marks.iter().enumerate() {
            if !marked {
                maximal.push(itemsets[level_start + m].0.clone());
            }
        }
        level = next;
        level_start = next_start;
    }

    // Members of the final level were never extended: all maximal.
    maximal.extend(itemsets[level_start..].iter().map(|(s, _)| s.clone()));
    Outcome::Complete(finish_sets(
        db,
        min_support,
        itemsets,
        maximal,
        negative,
        candidates_per_level,
    ))
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
        let index = fs.support_index();
        assert_eq!(index.len(), fs.itemsets.len());
        assert_eq!(index[&u.parse("B").unwrap()], 3);
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
    fn support_index_cannot_go_stale() {
        // Regression: `itemsets` used to be a public field, so callers
        // could mutate it after `support_index()` had cached its lookup
        // table and the two views would silently diverge. The field is
        // now read-only behind `itemsets()`; the cached table is built
        // once and always agrees with the stored itemsets.
        let db = fig1_db();
        let fs = apriori(&db, 2);
        let first: *const HashMap<AttrSet, usize> = fs.support_index();
        for (set, supp) in fs.itemsets() {
            assert_eq!(fs.support_index().get(set), Some(supp));
            assert_eq!(fs.support_of(set), Some(*supp));
        }
        assert_eq!(fs.support_index().len(), fs.itemsets().len());
        // Repeated calls return the same cached table, never a rebuild.
        assert!(std::ptr::eq(first, fs.support_index()));
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
    fn from_levelwise_matches_apriori() {
        let db = fig1_db();
        for sigma in 1..=4usize {
            let direct = apriori(&db, sigma);
            let oracle = FrequencyOracle::new(&db, sigma);
            let run = levelwise(&oracle);
            let converted = FrequentSets::from_levelwise(&db, sigma, &run);
            assert_eq!(converted.itemsets, direct.itemsets, "σ={sigma}");
            assert_eq!(converted.maximal, direct.maximal, "σ={sigma}");
            assert_eq!(
                converted.negative_border, direct.negative_border,
                "σ={sigma}"
            );
            assert_eq!(
                converted.candidates_per_level, direct.candidates_per_level,
                "σ={sigma}"
            );
            assert_eq!(converted.queries(), direct.queries(), "σ={sigma}");
            assert_eq!(converted.n_items(), direct.n_items());
            assert_eq!(converted.n_rows(), direct.n_rows());
            assert_eq!(converted.min_support(), direct.min_support());
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
                    let fs = apriori_with_cfg(
                        &db,
                        sigma,
                        threads,
                        &RunCtl::new(&meter, &NoopObserver),
                        &cfg,
                    )
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
