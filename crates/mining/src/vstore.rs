//! Vertical store with dEclat-style diffset nodes.
//!
//! The store holds each item's tidset as **one** run of
//! `⌈n_rows/64⌉` `u64` blocks, and the runs of all items are packed
//! item-major into a single arena. Support counting is therefore one
//! AND + popcount pass over whole runs, with no per-range bookkeeping.
//!
//! On top of the store sit the `EclatNode` structures the Apriori/Eclat
//! miner threads through its prefix tree. A node stores either its
//! **tidset** or its dEclat **diffset** `d(c) = t(parent) \ t(c)` (so
//! `support(c) = support(parent) − |d(c)|`), chosen per node by a density
//! heuristic (`EclatCfg::diffset_density`): dense children switch to
//! diffsets, which empty out as the prefix tree deepens.
//!
//! **Count, then materialize, into one slab per level.** A node's tid
//! structure has the store's run length (`VStore::blocks`), so every
//! node of a level fits one fixed-stride slab, which the levelwise walk
//! owns: it keeps two, swaps them at each level boundary and hands them
//! from one mine to the next. A level is counted first — `count_pair`
//! reads its two parents' runs and writes nothing, for every candidate —
//! and only after all of its counts are in does a second parallel pass
//! write the structures of the frequent candidates the next level reads
//! (`write_child`, or `write_items` off the item columns where no pair
//! was evaluated), each into its own slice. `EclatNode` is the
//! bookkeeping beside the slice: support, representation, and the
//! switch for its children. So a mine allocates per level, not per
//! frequent set (DESIGN §9).
//!
//! **Representation uniformity.** A node's `diff_children` flag fixes the
//! representation of *all* its children (forced to diffsets when the node
//! itself is a diffset). Since the prefix join only ever pairs siblings —
//! a candidate is `run[i] ∪ {last(run[j])}` with both ends children of
//! the same parent — every pair the miner evaluates has matching
//! representations, and the two dEclat recurrences below cover all cases:
//!
//! * tidset siblings: `t(c) = t(x) ∩ t(y)`, `d(c) = t(x) \ t(y)`;
//! * diffset siblings: `d(c) = d(y) \ d(x)`,
//!   `support(c) = support(x) − |d(y) \ d(x)|`.
//!
//! Representation choices affect only *how* a support is computed, never
//! its value, so Theorem-10 query accounting, emission order, and
//! `candidates_per_level` are independent of the heuristic's threshold.

use dualminer_bitset::kernels;
use dualminer_bitset::AttrSet;

/// The vertical store (see the module docs).
#[derive(Clone, Debug)]
pub struct VStore {
    n_items: usize,
    n_rows: usize,
    /// Blocks per item run: `n_rows.div_ceil(64)`.
    blocks: usize,
    /// `n_items · blocks` blocks, item-major.
    bits: Vec<u64>,
}

/// Incremental [`VStore`] construction: rows stream in one at a time and
/// are written straight into the item-major arena, so a reader-fed build
/// never holds a horizontal copy. The item universe may grow as rows
/// arrive (streaming input discovers items in order of first appearance);
/// an item first seen late reads as absent from every earlier row.
#[derive(Debug, Default)]
pub struct VStoreBuilder {
    n_items: usize,
    n_rows: usize,
    /// Blocks reserved per item run (0 before the first row); doubles
    /// when a row would not fit.
    stride: usize,
    /// `n_items · stride` blocks, item-major.
    bits: Vec<u64>,
}

impl VStoreBuilder {
    /// An empty builder.
    pub fn new() -> VStoreBuilder {
        VStoreBuilder::default()
    }

    /// A builder with the item universe and the expected row count known
    /// up front: the arena is allocated once at its final size, so a
    /// build that pushes exactly `n_rows` rows never moves or trims it
    /// (growth and trimming leave holes in the heap that a long-lived
    /// process holding many stores pays for in resident memory). Pushing
    /// more or fewer rows is still correct.
    pub fn with_items(n_items: usize, n_rows: usize) -> VStoreBuilder {
        let stride = n_rows.div_ceil(64);
        VStoreBuilder {
            n_items,
            n_rows: 0,
            stride,
            bits: vec![0; n_items * stride],
        }
    }

    fn grow_items(&mut self, n_items: usize) {
        if n_items > self.n_items {
            self.bits.resize(n_items * self.stride, 0);
            self.n_items = n_items;
        }
    }

    /// Doubles the run stride in place: runs move to their new offsets
    /// from the last item down (a run never lands on a lower item's
    /// unmoved run), then each run's new tail is cleared.
    fn grow_stride(&mut self) {
        let (old, new) = (self.stride, (self.stride * 2).max(1));
        self.bits.resize(self.n_items * new, 0);
        for item in (0..self.n_items).rev() {
            self.bits
                .copy_within(item * old..(item + 1) * old, item * new);
            self.bits[item * new + old..(item + 1) * new].fill(0);
        }
        self.stride = new;
    }

    /// Rows pushed so far.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Items seen so far.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Appends one row as its item indices (any order, duplicates allowed).
    pub fn push_row(&mut self, items: impl IntoIterator<Item = usize>) {
        if self.n_rows == self.stride * 64 {
            self.grow_stride();
        }
        let block = self.n_rows / 64;
        let bit = 1u64 << (self.n_rows % 64);
        for item in items {
            self.grow_items(item + 1);
            self.bits[item * self.stride + block] |= bit;
        }
        self.n_rows += 1;
    }

    /// Compacts the runs to `⌈n_rows/64⌉` blocks each, in place, and
    /// returns the finished store.
    pub fn finish(mut self) -> VStore {
        let blocks = self.n_rows.div_ceil(64);
        if blocks != self.stride {
            for item in 1..self.n_items {
                let src = item * self.stride;
                self.bits.copy_within(src..src + blocks, item * blocks);
            }
            self.bits.truncate(self.n_items * blocks);
            self.bits.shrink_to_fit();
        }
        VStore {
            n_items: self.n_items,
            n_rows: self.n_rows,
            blocks,
            bits: self.bits,
        }
    }
}

/// Knobs for the dEclat representation switch.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EclatCfg {
    /// A node's children are materialized as diffsets when
    /// `support(child) ≥ diffset_density · support(node)` (dense children
    /// have small diffsets). `0.0` forces diffsets everywhere below the
    /// first level; an infinite threshold disables them. The setting
    /// never changes mined output, only the shape of the intermediate
    /// structures.
    pub(crate) diffset_density: f64,
}

impl Default for EclatCfg {
    fn default() -> EclatCfg {
        EclatCfg {
            diffset_density: 0.5,
        }
    }
}

#[cfg(test)]
impl EclatCfg {
    /// Plain Eclat: tidsets at every level.
    pub(crate) fn tidset_only() -> EclatCfg {
        EclatCfg {
            diffset_density: f64::INFINITY,
        }
    }

    /// dEclat everywhere below the first level.
    pub(crate) fn diffset_always() -> EclatCfg {
        EclatCfg {
            diffset_density: 0.0,
        }
    }
}

/// Which tid structure an [`EclatNode`] stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TidRepr {
    /// The node's tidset.
    Tidset,
    /// The dEclat diffset `t(parent) \ t(node)`.
    Diffset,
}

/// The bookkeeping of one prefix-tree node of the Eclat/dEclat miner:
/// its support and which tid structure it stores. The structure itself,
/// one run as long as the store's item runs, is the node's slice of the
/// walk's level slab.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EclatNode {
    /// Absolute support of the node's itemset.
    pub(crate) support: usize,
    repr: TidRepr,
    /// Children of this node materialize as diffsets (forced when the
    /// node itself is one — see the module docs).
    diff_children: bool,
}

impl VStore {
    /// Builds a store over a fixed item universe from bitset rows.
    pub fn from_rows(n_items: usize, rows: &[AttrSet]) -> VStore {
        let mut b = VStoreBuilder::with_items(n_items, rows.len());
        for row in rows {
            b.push_row(row.iter());
        }
        b.finish()
    }

    /// Number of items.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The tidset run of `item`.
    #[inline]
    fn run(&self, item: usize) -> &[u64] {
        &self.bits[item * self.blocks..(item + 1) * self.blocks]
    }

    /// Support of a single item: the popcount of its column.
    pub fn item_support(&self, item: usize) -> usize {
        debug_assert!(item < self.n_items);
        kernels::popcount(self.run(item))
    }

    /// Absolute support of an itemset given as a sorted index slice: a
    /// multi-way AND-popcount over whole runs, allocation-free for any
    /// arity.
    pub fn support_items(&self, items: &[usize]) -> usize {
        match *items {
            [] => self.n_rows,
            [a] => self.item_support(a),
            [a, b] => kernels::and_len(self.run(a), self.run(b)),
            [a, b, c] => kernels::and3_len(self.run(a), self.run(b), self.run(c)),
            [a, b, c, d] => kernels::and4_len(self.run(a), self.run(b), self.run(c), self.run(d)),
            _ => {
                // Arity ≥ 5: hoist the per-item run slices out of the word
                // loop (a stack scratch up to arity 64, matching
                // [`support`](Self::support)'s index buffer) so the inner
                // loop is pure word AND — no per-word offset arithmetic.
                const STACK: usize = 64;
                if items.len() <= STACK {
                    let mut runs: [&[u64]; STACK] = [&[]; STACK];
                    self.support_multi(items, &mut runs[..items.len()])
                } else {
                    let mut runs: Vec<&[u64]> = vec![&[]; items.len()];
                    self.support_multi(items, &mut runs)
                }
            }
        }
    }

    /// Multi-way AND-popcount. `runs` is caller-provided scratch (one
    /// slot per item) filled with the items' runs.
    fn support_multi<'a>(&'a self, items: &[usize], runs: &mut [&'a [u64]]) -> usize {
        for (slot, &i) in runs.iter_mut().zip(items) {
            *slot = self.run(i);
        }
        let (first, rest) = runs.split_first().expect("arity ≥ 5");
        let mut total = 0usize;
        for (b, &w0) in first.iter().enumerate() {
            let mut w = w0;
            for run in rest.iter() {
                if w == 0 {
                    break;
                }
                w &= run[b];
            }
            total += w.count_ones() as usize;
        }
        total
    }

    /// [`support_items`](Self::support_items) for an [`AttrSet`].
    /// Allocation-free up to 64 items (a stack buffer holds the indices).
    pub fn support(&self, x: &AttrSet) -> usize {
        let k = x.len();
        // Two stack tiers so the common small arities don't pay for
        // zero-initializing the worst-case buffer on every query.
        if k <= 8 {
            let mut buf = [0usize; 8];
            for (slot, item) in buf.iter_mut().zip(x.iter()) {
                *slot = item;
            }
            self.support_items(&buf[..k])
        } else if k <= 64 {
            let mut buf = [0usize; 64];
            for (slot, item) in buf.iter_mut().zip(x.iter()) {
                *slot = item;
            }
            self.support_items(&buf[..k])
        } else {
            let items: Vec<usize> = x.iter().collect();
            self.support_items(&items)
        }
    }

    /// Calls `f` with every row id containing all of `items`, ascending.
    pub fn for_each_tid(&self, items: &[usize], mut f: impl FnMut(usize)) {
        let Some((&i0, rest)) = items.split_first() else {
            (0..self.n_rows).for_each(f);
            return;
        };
        for (b, &w0) in self.run(i0).iter().enumerate() {
            let mut w = w0;
            for &i in rest {
                if w == 0 {
                    break;
                }
                w &= self.run(i)[b];
            }
            while w != 0 {
                f(b * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
    }

    /// Materializes the column of `item` as an [`AttrSet`] over the row
    /// universe.
    pub fn column(&self, item: usize) -> AttrSet {
        let mut out = AttrSet::empty(self.n_rows);
        self.for_each_tid(&[item], |tid| {
            out.insert(tid);
        });
        out
    }

    /// This store with `rows` appended: one arena copy that moves each
    /// item's run into a run of the new length, then sets the appended
    /// rows' bits. `self` is only read, never transposed.
    ///
    /// # Panics
    /// Panics if any row's universe differs from the item count.
    pub(crate) fn appended(&self, rows: &[AttrSet]) -> VStore {
        let n_rows = self.n_rows + rows.len();
        let blocks = n_rows.div_ceil(64);
        let mut bits = vec![0; self.n_items * blocks];
        for item in 0..self.n_items {
            bits[item * blocks..][..self.blocks].copy_from_slice(self.run(item));
        }
        for (tid, row) in (self.n_rows..).zip(rows) {
            assert_eq!(
                row.universe_size(),
                self.n_items,
                "row universe does not match item count"
            );
            for item in row {
                bits[item * blocks + tid / 64] |= 1 << (tid % 64);
            }
        }
        VStore {
            n_items: self.n_items,
            n_rows,
            blocks,
            bits,
        }
    }

    /// Reconstructs the horizontal rows (the lazy-row path of
    /// `TransactionDb`).
    pub fn to_rows(&self) -> Vec<AttrSet> {
        let mut rows = vec![AttrSet::empty(self.n_items); self.n_rows];
        for item in 0..self.n_items {
            self.for_each_tid(&[item], |tid| {
                rows[tid].insert(item);
            });
        }
        rows
    }

    // ------------------------------------------------------------------
    // Eclat/dEclat node operations.
    // ------------------------------------------------------------------

    fn heuristic_diff(&self, support: usize, parent_support: usize, cfg: &EclatCfg) -> bool {
        // NaN-safe: an infinite threshold times support 0 is NaN and the
        // comparison is false, i.e. "never switch".
        support as f64 >= cfg.diffset_density * parent_support as f64
    }

    /// Blocks per node run: the stride of the walk's level slab.
    pub(crate) fn blocks(&self) -> usize {
        self.blocks
    }

    /// The tidset node of a nonempty itemset read off its item columns.
    /// Its children switch to diffsets by comparing its support against
    /// the row count.
    pub(crate) fn items_node(&self, support: usize, cfg: &EclatCfg) -> EclatNode {
        EclatNode {
            support,
            repr: TidRepr::Tidset,
            diff_children: self.heuristic_diff(support, self.n_rows, cfg),
        }
    }

    /// Writes the tidset of `items` (nonempty) into `out`: a copy of the
    /// item's run for a singleton, the AND of the runs above that.
    pub(crate) fn write_items(&self, items: &[usize], out: &mut [u64]) {
        let (&first, rest) = items.split_first().expect("a node has at least one item");
        out.copy_from_slice(self.run(first));
        for &item in rest {
            for (w, &r) in out.iter_mut().zip(self.run(item)) {
                *w &= r;
            }
        }
    }

    /// `|t(x ∪ y)|` for two sibling nodes with tid structures `xs` and
    /// `ys`: one AND/ANDNOT-popcount pass that materializes nothing — the
    /// miner takes this path for every candidate, including each that
    /// misses the threshold.
    pub(crate) fn count_pair(&self, x: &EclatNode, xs: &[u64], y: &EclatNode, ys: &[u64]) -> usize {
        debug_assert_eq!(x.repr, y.repr, "prefix-join pairs share a representation");
        match x.repr {
            TidRepr::Tidset => kernels::and_len(xs, ys),
            // support(c) = support(x) − |d(y) \ d(x)|.
            TidRepr::Diffset => x.support - kernels::andnot_len(ys, xs),
        }
    }

    /// The node of the child `x ∪ {last(y)}` of `x` with the `support`
    /// [`count_pair`](Self::count_pair) established: a diffset per
    /// `x.diff_children`, and its own children's switch decided.
    pub(crate) fn child_node(&self, x: &EclatNode, support: usize, cfg: &EclatCfg) -> EclatNode {
        let repr = if x.diff_children {
            TidRepr::Diffset
        } else {
            TidRepr::Tidset
        };
        EclatNode {
            support,
            repr,
            diff_children: repr == TidRepr::Diffset || self.heuristic_diff(support, x.support, cfg),
        }
    }

    /// Writes the tid structure of `x`'s child with `y` into `out` in one
    /// pass — called only for candidates that passed the threshold, after
    /// the level's counts, with the child's `support`.
    pub(crate) fn write_child(
        &self,
        x: &EclatNode,
        xs: &[u64],
        ys: &[u64],
        support: usize,
        out: &mut [u64],
    ) {
        let stored = if !x.diff_children {
            // Tidset child of tidset parents: t(x) ∩ t(y).
            kernels::and_into(xs, ys, out)
        } else if x.repr == TidRepr::Tidset {
            // Diffset child of tidset parents: d(c) = t(x) \ t(y).
            kernels::andnot_into(xs, ys, out)
        } else {
            // Diffset child of diffset parents: d(c) = d(y) \ d(x).
            kernels::andnot_into(ys, xs, out)
        };
        debug_assert_eq!(
            if x.diff_children {
                x.support - stored
            } else {
                stored
            },
            support
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_support(rows: &[AttrSet], x: &AttrSet) -> usize {
        rows.iter().filter(|r| x.is_subset(r)).count()
    }

    /// Row `t` of the sized reference: items first appear late (item `i`
    /// never occurs before row `i · n_rows / (n + 1)`), so run growth and
    /// universe growth interleave in the builder.
    fn late_items_row(t: usize, n_rows: usize, n: usize) -> Vec<usize> {
        (0..n)
            .filter(|&i| t * (n + 1) >= i * n_rows && (t * 7 + i * 13) % (i + 2) != 0)
            .collect()
    }

    /// Every store read — support, `for_each_tid`, `column`, `to_rows` —
    /// against the horizontal reference, at row counts around the block
    /// boundaries, with the store streamed through the builder.
    #[test]
    fn store_reads_match_horizontal_at_block_boundaries() {
        let n = 5;
        for n_rows in [0usize, 1, 63, 64, 65, 127, 128, 129, 1000] {
            let specs: Vec<Vec<usize>> =
                (0..n_rows).map(|t| late_items_row(t, n_rows, n)).collect();
            // Unsized, exactly sized, and under- and over-sized builders.
            let stores: Vec<VStore> = [None, Some(n_rows), Some(n_rows / 3), Some(2 * n_rows + 70)]
                .into_iter()
                .map(|hint| {
                    let mut b =
                        hint.map_or_else(VStoreBuilder::new, |h| VStoreBuilder::with_items(0, h));
                    for row in &specs {
                        b.push_row(row.iter().copied());
                    }
                    b.finish()
                })
                .collect();
            let vs = &stores[0];
            let seen = vs.n_items();
            let rs: Vec<AttrSet> = specs
                .iter()
                .map(|r| AttrSet::from_indices(seen, r.iter().copied()))
                .collect();
            assert_eq!(vs.n_rows(), n_rows);
            for other in &stores {
                assert_eq!(other.to_rows(), rs, "rows={n_rows}");
                assert_eq!(other.bits, vs.bits, "rows={n_rows}");
            }
            assert_eq!(VStore::from_rows(seen, &rs).to_rows(), rs, "rows={n_rows}");
            for bits in 0..(1usize << seen) {
                let items: Vec<usize> = (0..seen).filter(|i| bits >> i & 1 == 1).collect();
                let x = AttrSet::from_indices(seen, items.iter().copied());
                assert_eq!(
                    vs.support(&x),
                    naive_support(&rs, &x),
                    "rows={n_rows} {x:?}"
                );
                let mut tids = Vec::new();
                vs.for_each_tid(&items, |t| tids.push(t));
                let want: Vec<usize> = (0..n_rows).filter(|&t| x.is_subset(&rs[t])).collect();
                assert_eq!(tids, want, "rows={n_rows} {x:?}");
            }
            for i in 0..seen {
                let want: Vec<usize> = (0..n_rows).filter(|&t| rs[t].contains(i)).collect();
                assert_eq!(vs.column(i).to_vec(), want, "rows={n_rows} item={i}");
            }
        }
    }

    /// An appended store is the store of all rows, bit for bit, for base
    /// and batch sizes on both sides of a block boundary.
    #[test]
    fn appended_equals_store_of_all_rows() {
        let n = 5;
        for (base, extra) in [
            (0usize, 0usize),
            (0, 3),
            (1, 62),
            (63, 1),
            (63, 2),
            (64, 1),
            (100, 29),
        ] {
            let rows: Vec<AttrSet> = (0..base + extra)
                .map(|t| AttrSet::from_indices(n, late_items_row(t, base + extra, n)))
                .collect();
            let got = VStore::from_rows(n, &rows[..base]).appended(&rows[base..]);
            let want = VStore::from_rows(n, &rows);
            assert_eq!(
                (got.n_rows, got.blocks, &got.bits),
                (want.n_rows, want.blocks, &want.bits),
                "base={base} extra={extra}"
            );
        }
    }

    #[test]
    fn support_matches_horizontal_at_every_arity() {
        // Arity up to 70 crosses both stack tiers of `support` and the
        // heap fallback of `support_items`.
        let n = 70;
        let rs: Vec<AttrSet> = (0..200)
            .map(|t| AttrSet::from_indices(n, (0..n).filter(|i| (t + i) % 11 != 0 || t % 3 == 0)))
            .collect();
        let vs = VStore::from_rows(n, &rs);
        for k in 0..=n {
            let x = AttrSet::from_indices(n, 0..k);
            assert_eq!(vs.support(&x), naive_support(&rs, &x), "arity {k}");
        }
    }

    #[test]
    fn empty_store() {
        let vs = VStoreBuilder::new().finish();
        assert_eq!(vs.n_rows(), 0);
        assert_eq!(vs.n_items(), 0);
        assert_eq!(vs.support(&AttrSet::empty(0)), 0);
        assert!(vs.to_rows().is_empty());
        let vs = VStoreBuilder::with_items(3, 0).finish();
        assert_eq!(vs.n_items(), 3);
        assert_eq!(vs.support_items(&[0, 2]), 0);
        assert!(vs.column(1).is_empty());
    }

    /// A node with its tid structure, built the way the walk does:
    /// counted first, then written into a slab slice.
    type Owned = (EclatNode, Vec<u64>);

    fn items_owned(vs: &VStore, items: &[usize], cfg: &EclatCfg) -> Owned {
        let mut out = vec![0; vs.blocks()];
        vs.write_items(items, &mut out);
        let support = vs.support_items(items);
        assert_eq!(kernels::popcount(&out), support);
        (vs.items_node(support, cfg), out)
    }

    fn count(vs: &VStore, (x, xs): &Owned, (y, ys): &Owned) -> usize {
        vs.count_pair(x, xs, y, ys)
    }

    fn child(
        vs: &VStore,
        (x, xs): &Owned,
        (_, ys): &Owned,
        support: usize,
        cfg: &EclatCfg,
    ) -> Owned {
        let mut out = vec![u64::MAX; vs.blocks()]; // stale slab contents
        vs.write_child(x, xs, ys, support, &mut out);
        (vs.child_node(x, support, cfg), out)
    }

    /// Exhaustively mines pairs/triples through both representations and
    /// checks every support against the horizontal count.
    #[test]
    #[allow(clippy::needless_range_loop)] // triple-nested index loops read clearer here
    fn declat_recurrences_are_exact() {
        let n = 6;
        for n_rows in [1usize, 64, 150] {
            let rs: Vec<AttrSet> = (0..n_rows)
                .map(|t| {
                    AttrSet::from_indices(n, (0..n).filter(|i| (t * 7 + i * 13) % (i + 2) != 0))
                })
                .collect();
            let vs = VStore::from_rows(n, &rs);
            for cfg in [
                EclatCfg::default(),
                EclatCfg::tidset_only(),
                EclatCfg::diffset_always(),
            ] {
                let items: Vec<Owned> = (0..n).map(|i| items_owned(&vs, &[i], &cfg)).collect();
                for i in 0..n {
                    for j in (i + 1)..n {
                        let x = &items[i];
                        let y = &items[j];
                        let expect = naive_support(&rs, &AttrSet::from_indices(n, [i, j]));
                        assert_eq!(count(&vs, x, y), expect, "rows={n_rows} pair {i},{j}");
                        let c_ij = child(&vs, x, y, expect, &cfg);
                        assert_eq!(c_ij.0.support, expect);
                        // Grandchildren: siblings c_ij, c_ik share parent i.
                        for k in (j + 1)..n {
                            let support_ik = count(&vs, x, &items[k]);
                            let c_ik = child(&vs, x, &items[k], support_ik, &cfg);
                            let expect3 = naive_support(&rs, &AttrSet::from_indices(n, [i, j, k]));
                            assert_eq!(
                                count(&vs, &c_ij, &c_ik),
                                expect3,
                                "rows={n_rows} triple {i},{j},{k}"
                            );
                            // Nodes rebuilt from the item columns (a
                            // resumed walk's first level) pair the same.
                            let r_ij = items_owned(&vs, &[i, j], &cfg);
                            let r_ik = items_owned(&vs, &[i, k], &cfg);
                            assert_eq!(count(&vs, &r_ij, &r_ik), expect3);
                            let made = child(&vs, &c_ij, &c_ik, expect3, &cfg);
                            assert_eq!(made.0.support, expect3);
                        }
                    }
                }
            }
        }
    }
}
