//! The 0/1 relation: [`TransactionDb`].

use std::fmt::Write as _;
use std::sync::OnceLock;

use dualminer_bitset::{AttrSet, Universe};

use crate::vstore::{VStore, VStoreBuilder};

/// A transaction database: a 0/1 relation whose rows are item sets.
///
/// Stored **vertically only**: a [`VStore`] holds each item's tidset as
/// one contiguous `u64` run, and `support(X)` is an `|X|`-way
/// AND-popcount over whole runs — the fast path Apriori/Eclat use. The
/// horizontal rows are *lazy*: the first row-scan caller
/// ([`rows`](Self::rows), [`support_horizontal`](Self::support_horizontal),
/// [`display`](Self::display)) transposes the store once and caches the
/// result, so mining paths that never row-scan hold a single copy of the
/// data instead of two.
#[derive(Debug)]
pub struct TransactionDb {
    n_items: usize,
    n_rows: usize,
    vstore: VStore,
    rows: OnceLock<Vec<AttrSet>>,
}

impl Clone for TransactionDb {
    fn clone(&self) -> TransactionDb {
        // Clone the store, not the lazily cached transpose — the clone
        // re-derives rows if (and only if) it ever row-scans.
        TransactionDb {
            n_items: self.n_items,
            n_rows: self.n_rows,
            vstore: self.vstore.clone(),
            rows: OnceLock::new(),
        }
    }
}

impl TransactionDb {
    /// Builds a database from horizontal rows (converted to the vertical
    /// store; the row bitsets are dropped after conversion).
    ///
    /// # Panics
    /// Panics if any row's universe differs from `n_items`.
    pub fn new(n_items: usize, rows: Vec<AttrSet>) -> Self {
        for r in &rows {
            assert_eq!(
                r.universe_size(),
                n_items,
                "row universe does not match item count"
            );
        }
        Self::from_vstore(VStore::from_rows(n_items, &rows))
    }

    /// Builds a database from slices of item indices.
    pub fn from_index_rows<I, J>(n_items: usize, rows: I) -> Self
    where
        I: IntoIterator<Item = J>,
        J: IntoIterator<Item = usize>,
    {
        let rows = rows.into_iter();
        let mut builder = VStoreBuilder::with_items(n_items, rows.size_hint().0);
        for row in rows {
            builder.push_row(row);
        }
        let vstore = builder.finish();
        assert_eq!(
            vstore.n_items(),
            n_items,
            "row item index outside the declared universe"
        );
        Self::from_vstore(vstore)
    }

    /// The vertical-only constructor: wraps a finished [`VStore`]
    /// (typically from a streaming [`VStoreBuilder`])
    /// without ever materializing horizontal rows.
    pub fn from_vstore(vstore: VStore) -> Self {
        TransactionDb {
            n_items: vstore.n_items(),
            n_rows: vstore.n_rows(),
            vstore,
            rows: OnceLock::new(),
        }
    }

    /// Number of items (attributes of the relation).
    #[inline]
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of rows (transactions).
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The vertical store.
    #[inline]
    pub fn vstore(&self) -> &VStore {
        &self.vstore
    }

    /// The horizontal rows, transposed from the store on first use and
    /// cached.
    pub fn rows(&self) -> &[AttrSet] {
        self.rows.get_or_init(|| self.vstore.to_rows())
    }

    /// The tidset of item `i`, materialized from its store runs.
    pub fn column(&self, i: usize) -> AttrSet {
        self.vstore.column(i)
    }

    /// The tidset of an itemset: rows containing **all** items of `x`.
    ///
    /// `tidset(∅)` is all rows. One streaming multi-way AND pass over the
    /// store (`O(|x| · n_rows/64)`).
    pub fn tidset(&self, x: &AttrSet) -> AttrSet {
        if x.is_empty() {
            return AttrSet::full(self.n_rows);
        }
        let items: Vec<usize> = x.iter().collect();
        let mut out = AttrSet::empty(self.n_rows);
        self.vstore.for_each_tid(&items, |tid| {
            out.insert(tid);
        });
        out
    }

    /// Absolute support: number of rows containing all of `x` (vertical
    /// counting).
    ///
    /// One AND-popcount pass over the items' runs; never materializes an
    /// accumulator, and allocation-free for every arity up to 64 (a stack
    /// buffer holds the item indices).
    pub fn support(&self, x: &AttrSet) -> usize {
        self.vstore.support(x)
    }

    /// Absolute support by a horizontal row scan — semantically identical
    /// to [`support`](Self::support); exists for the counting ablation
    /// (and forces the lazy rows).
    pub fn support_horizontal(&self, x: &AttrSet) -> usize {
        self.rows().iter().filter(|r| x.is_subset(r)).count()
    }

    /// Relative support in `\[0, 1\]`; 0 for an empty database.
    pub fn frequency(&self, x: &AttrSet) -> f64 {
        if self.n_rows == 0 {
            0.0
        } else {
            self.support(x) as f64 / self.n_rows as f64
        }
    }

    /// Renders the database with item names, one row per line.
    pub fn display(&self, universe: &Universe) -> String {
        let mut out = String::new();
        for (i, row) in self.rows().iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            let _ = write!(out, "t{i}: ");
            universe.write_set(&mut out, row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TransactionDb {
        // Items A..D; designed so MTh(σ=2) = {ABC, BD} (Figure 1).
        TransactionDb::from_index_rows(
            4,
            [
                vec![0, 1, 2],    // ABC
                vec![0, 1, 2, 3], // ABCD
                vec![1, 3],       // BD
            ],
        )
    }

    #[test]
    fn construction_and_shapes() {
        let db = small();
        assert_eq!(db.n_items(), 4);
        assert_eq!(db.n_rows(), 3);
        assert_eq!(db.column(0).to_vec(), vec![0, 1]); // A in t0, t1
        assert_eq!(db.column(3).to_vec(), vec![1, 2]); // D in t1, t2
    }

    #[test]
    fn support_vertical_equals_horizontal() {
        let db = small();
        for bits in 0..16usize {
            let x = AttrSet::from_indices(4, (0..4).filter(|i| bits >> i & 1 == 1));
            assert_eq!(db.support(&x), db.support_horizontal(&x), "{x:?}");
        }
    }

    #[test]
    fn support_values() {
        let db = small();
        assert_eq!(db.support(&AttrSet::empty(4)), 3);
        assert_eq!(db.support(&AttrSet::from_indices(4, [1])), 3); // B everywhere
        assert_eq!(db.support(&AttrSet::from_indices(4, [0, 1, 2])), 2); // ABC
        assert_eq!(db.support(&AttrSet::from_indices(4, [1, 3])), 2); // BD
        assert_eq!(db.support(&AttrSet::from_indices(4, [0, 3])), 1); // AD
        assert_eq!(db.support(&AttrSet::full(4)), 1);
    }

    #[test]
    fn frequency_and_empty_db() {
        let db = small();
        assert!((db.frequency(&AttrSet::from_indices(4, [1])) - 1.0).abs() < 1e-12);
        let empty = TransactionDb::new(4, vec![]);
        assert_eq!(empty.support(&AttrSet::empty(4)), 0);
        assert_eq!(empty.frequency(&AttrSet::empty(4)), 0.0);
    }

    #[test]
    fn tidset_of_empty_is_all_rows() {
        let db = small();
        assert_eq!(db.tidset(&AttrSet::empty(4)).len(), 3);
    }

    #[test]
    fn lazy_rows_round_trip() {
        let rows = vec![
            AttrSet::from_indices(4, [0, 1, 2]),
            AttrSet::from_indices(4, [0, 1, 2, 3]),
            AttrSet::from_indices(4, [1, 3]),
        ];
        let db = TransactionDb::new(4, rows.clone());
        assert_eq!(db.rows(), rows.as_slice());
        let cloned = db.clone();
        assert_eq!(cloned.rows(), rows.as_slice());
    }

    #[test]
    fn append_leaves_the_base_untransposed() {
        // The base of an append may be a shared cached entry: the merged
        // rows must come from its store, not its lazily cached transpose,
        // or the horizontal copy stays resident in the entry.
        let base = small();
        let old = crate::apriori::apriori(&base, 2);
        let update =
            crate::incremental::append_rows(&base, &old, vec![AttrSet::from_indices(4, [0, 3])]);
        assert!(base.rows.get().is_none());
        assert_eq!(update.db.n_rows(), 4);
        assert_eq!(update.db.rows()[..3], *small().rows());
    }

    #[test]
    #[should_panic(expected = "row universe")]
    fn row_universe_checked() {
        TransactionDb::new(4, vec![AttrSet::empty(5)]);
    }
}
