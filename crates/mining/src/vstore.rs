//! Segmented vertical store with dEclat-style diffset nodes.
//!
//! The store holds per-item tidsets as contiguous cache-blocked `u64`
//! runs, partitioned into fixed-size **row segments**: segment `s` covers
//! rows `[s·segment_rows, (s+1)·segment_rows)`, and inside one segment
//! the runs of all items are packed item-major into a single `Vec<u64>`.
//! Support counting therefore streams — AND/ANDNOT + popcount over one
//! segment at a time, each segment small enough to stay cache-resident —
//! and merges the per-segment counts (Partition-style). Segmentation
//! never changes any count: `support(X) = Σ_s |t(X) ∩ segment_s|` for
//! every segment size, which is what keeps the miner's output
//! bit-identical across `--segment-rows` settings.
//!
//! On top of the store sit the `EclatNode` structures the Apriori/Eclat
//! miner threads through its prefix tree. A node stores either its
//! **tidset** or its dEclat **diffset** `d(c) = t(parent) \ t(c)` (so
//! `support(c) = support(parent) − |d(c)|`), chosen per node by a density
//! heuristic (`EclatCfg::diffset_density`): dense children switch to
//! diffsets, which empty out as the prefix tree deepens. Read-only
//! counting (`count_pair`) runs as one contiguous pass over the whole
//! node (the per-segment runs are packed back to back); the materializing
//! pass (`make_child`) works segment by segment, skipping segments the
//! cached per-segment popcounts prove empty without touching a single
//! block.
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

/// Default segment size in rows (16 blocks ≈ 128 B per item per segment:
/// a 64-item segment fits comfortably in L1).
pub const DEFAULT_SEGMENT_ROWS: usize = 1024;

/// One row segment: the runs of all items over a contiguous row range,
/// packed item-major into a single allocation.
#[derive(Clone, Debug)]
struct Segment {
    /// Rows covered (equals the store's `segment_rows` except possibly
    /// for the final segment).
    rows: usize,
    /// Blocks per item run: `rows.div_ceil(64)`.
    blocks_per_item: usize,
    /// Items that had appeared when this segment was sealed. Streaming
    /// input discovers items as it goes; an item first seen later has no
    /// run here, which is exactly "empty in this segment".
    n_items_stored: usize,
    /// `n_items_stored · blocks_per_item` blocks, item-major.
    bits: Vec<u64>,
}

impl Segment {
    /// The run of `item`, or the empty slice when the item was unknown at
    /// seal time (its tidset is empty in this segment).
    #[inline]
    fn item_run(&self, item: usize) -> &[u64] {
        if item < self.n_items_stored {
            &self.bits[item * self.blocks_per_item..(item + 1) * self.blocks_per_item]
        } else {
            &[]
        }
    }
}

/// The segmented vertical store (see the module docs).
#[derive(Clone, Debug)]
pub struct VStore {
    n_items: usize,
    n_rows: usize,
    segment_rows: usize,
    segments: Vec<Segment>,
    /// Prefix sums of per-segment block counts (`len = n_segments + 1`):
    /// node structures lay their per-segment blocks out by these offsets.
    block_starts: Vec<usize>,
}

/// Incremental [`VStore`] construction: rows stream in one at a time and
/// segments seal as they fill, so a reader-fed build never holds more
/// than one open segment beyond the sealed store. The item universe may
/// grow as rows arrive (streaming input discovers items in order of first
/// appearance).
#[derive(Debug)]
pub struct VStoreBuilder {
    segment_rows: usize,
    /// Blocks reserved per item in the open segment.
    cap_blocks: usize,
    n_items: usize,
    segments: Vec<Segment>,
    /// Open segment, item-major at `cap_blocks` blocks per item.
    cur: Vec<u64>,
    cur_rows: usize,
}

impl VStoreBuilder {
    /// An empty builder with the given segment row cap (≥ 1).
    pub fn new(segment_rows: usize) -> VStoreBuilder {
        assert!(segment_rows >= 1, "segment_rows must be positive");
        VStoreBuilder {
            segment_rows,
            cap_blocks: segment_rows.div_ceil(64),
            n_items: 0,
            segments: Vec::new(),
            cur: Vec::new(),
            cur_rows: 0,
        }
    }

    /// A builder with the item universe known up front.
    pub fn with_items(segment_rows: usize, n_items: usize) -> VStoreBuilder {
        let mut b = VStoreBuilder::new(segment_rows);
        b.grow_items(n_items);
        b
    }

    fn grow_items(&mut self, n_items: usize) {
        if n_items > self.n_items {
            self.cur.resize(n_items * self.cap_blocks, 0);
            self.n_items = n_items;
        }
    }

    /// Rows pushed so far.
    pub fn n_rows(&self) -> usize {
        self.segments.iter().map(|s| s.rows).sum::<usize>() + self.cur_rows
    }

    /// Items seen so far.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Appends one row as its item indices (any order, duplicates allowed).
    pub fn push_row(&mut self, items: impl IntoIterator<Item = usize>) {
        if self.cur_rows == self.segment_rows {
            self.seal();
        }
        let block = self.cur_rows / 64;
        let bit = 1u64 << (self.cur_rows % 64);
        for item in items {
            self.grow_items(item + 1);
            self.cur[item * self.cap_blocks + block] |= bit;
        }
        self.cur_rows += 1;
    }

    fn seal(&mut self) {
        if self.cur_rows == 0 {
            return;
        }
        let blocks_per_item = self.cur_rows.div_ceil(64);
        let bits = if blocks_per_item == self.cap_blocks {
            std::mem::replace(&mut self.cur, vec![0; self.n_items * self.cap_blocks])
        } else {
            // Final partial segment: compact the per-item runs.
            let mut bits = Vec::with_capacity(self.n_items * blocks_per_item);
            for item in 0..self.n_items {
                let start = item * self.cap_blocks;
                bits.extend_from_slice(&self.cur[start..start + blocks_per_item]);
            }
            bits
        };
        self.segments.push(Segment {
            rows: self.cur_rows,
            blocks_per_item,
            n_items_stored: self.n_items,
            bits,
        });
        self.cur_rows = 0;
    }

    /// Seals the open segment and returns the finished store.
    pub fn finish(mut self) -> VStore {
        self.seal();
        let n_rows = self.segments.iter().map(|s| s.rows).sum();
        let mut block_starts = Vec::with_capacity(self.segments.len() + 1);
        block_starts.push(0);
        for seg in &self.segments {
            block_starts.push(block_starts.last().unwrap() + seg.blocks_per_item);
        }
        VStore {
            n_items: self.n_items,
            n_rows,
            segment_rows: self.segment_rows,
            segments: self.segments,
            block_starts,
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

/// One prefix-tree node of the Eclat/dEclat miner: its support plus the
/// stored tid structure, segmented like the store.
#[derive(Clone, Debug)]
pub(crate) struct EclatNode {
    /// Absolute support of the node's itemset.
    pub(crate) support: usize,
    repr: TidRepr,
    /// Children of this node materialize as diffsets (forced when the
    /// node itself is one — see the module docs).
    diff_children: bool,
    /// Stored blocks, laid out by the store's `block_starts`.
    blocks: Vec<u64>,
    /// Popcount of `blocks` per segment; zero segments are skipped
    /// without reading a block.
    seg_counts: Vec<u32>,
}

impl VStore {
    /// Builds a store over a fixed item universe from bitset rows.
    pub fn from_rows(n_items: usize, rows: &[AttrSet], segment_rows: usize) -> VStore {
        let mut b = VStoreBuilder::with_items(segment_rows, n_items);
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

    /// The configured row cap per segment.
    #[inline]
    pub fn segment_rows(&self) -> usize {
        self.segment_rows
    }

    /// Total blocks of one node structure (sum of per-segment runs).
    #[inline]
    fn node_blocks(&self) -> usize {
        *self.block_starts.last().unwrap_or(&0)
    }

    /// Support of a single item: the popcount of its column.
    pub fn item_support(&self, item: usize) -> usize {
        debug_assert!(item < self.n_items);
        self.segments
            .iter()
            .map(|seg| kernels::popcount(seg.item_run(item)))
            .sum()
    }

    /// Absolute support of an itemset given as a sorted index slice: a
    /// streaming multi-way AND-popcount, one segment at a time,
    /// allocation-free for any arity.
    pub fn support_items(&self, items: &[usize]) -> usize {
        match *items {
            [] => self.n_rows,
            [a] => self.item_support(a),
            [a, b] => self
                .segments
                .iter()
                .map(|seg| {
                    let (ra, rb) = (seg.item_run(a), seg.item_run(b));
                    if ra.is_empty() || rb.is_empty() {
                        0
                    } else {
                        kernels::and_len(ra, rb)
                    }
                })
                .sum(),
            [a, b, c] => self
                .segments
                .iter()
                .map(|seg| {
                    let (ra, rb, rc) = (seg.item_run(a), seg.item_run(b), seg.item_run(c));
                    if ra.is_empty() || rb.is_empty() || rc.is_empty() {
                        0
                    } else {
                        kernels::and3_len(ra, rb, rc)
                    }
                })
                .sum(),
            [a, b, c, d] => self
                .segments
                .iter()
                .map(|seg| {
                    let (ra, rb) = (seg.item_run(a), seg.item_run(b));
                    let (rc, rd) = (seg.item_run(c), seg.item_run(d));
                    if ra.is_empty() || rb.is_empty() || rc.is_empty() || rd.is_empty() {
                        0
                    } else {
                        kernels::and4_len(ra, rb, rc, rd)
                    }
                })
                .sum(),
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

    /// Multi-way AND-popcount over one segment at a time. `runs` is
    /// caller-provided scratch (one slot per item) refilled with the
    /// items' run slices at each segment; a segment where any item's run
    /// is empty contributes nothing and is skipped without touching a
    /// word.
    fn support_multi<'a>(&'a self, items: &[usize], runs: &mut [&'a [u64]]) -> usize {
        let mut total = 0usize;
        'seg: for seg in &self.segments {
            for (slot, &i) in runs.iter_mut().zip(items) {
                let r = seg.item_run(i);
                if r.is_empty() {
                    continue 'seg;
                }
                *slot = r;
            }
            let (first, rest) = runs.split_first().expect("arity ≥ 5");
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
        let mut row0 = 0usize;
        'seg: for seg in &self.segments {
            let base = row0;
            row0 += seg.rows;
            if items.is_empty() {
                for r in 0..seg.rows {
                    f(base + r);
                }
                continue;
            }
            let first = seg.item_run(items[0]);
            if first.is_empty() {
                continue;
            }
            for &i in &items[1..] {
                if seg.item_run(i).is_empty() {
                    continue 'seg;
                }
            }
            for (b, &w0) in first.iter().enumerate() {
                let mut w = w0;
                for &i in &items[1..] {
                    if w == 0 {
                        break;
                    }
                    w &= seg.item_run(i)[b];
                }
                while w != 0 {
                    f(base + b * 64 + w.trailing_zeros() as usize);
                    w &= w - 1;
                }
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

    /// Reconstructs the horizontal rows (the lazy-row path of
    /// `TransactionDb`).
    pub fn to_rows(&self) -> Vec<AttrSet> {
        let mut rows = vec![AttrSet::empty(self.n_items); self.n_rows];
        let mut row0 = 0usize;
        for seg in &self.segments {
            for item in 0..seg.n_items_stored {
                for (b, &w0) in seg.item_run(item).iter().enumerate() {
                    let mut w = w0;
                    while w != 0 {
                        rows[row0 + b * 64 + w.trailing_zeros() as usize].insert(item);
                        w &= w - 1;
                    }
                }
            }
            row0 += seg.rows;
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

    /// A level-1 node: the tidset of one item, gathered segment by
    /// segment (an aligned copy — item runs and node runs share the
    /// segment block layout).
    pub(crate) fn item_node(&self, item: usize, support: usize, cfg: &EclatCfg) -> EclatNode {
        let mut blocks = vec![0u64; self.node_blocks()];
        let mut seg_counts = vec![0u32; self.segments.len()];
        for (s, seg) in self.segments.iter().enumerate() {
            let run = seg.item_run(item);
            if run.is_empty() {
                continue;
            }
            let range = self.block_starts[s]..self.block_starts[s + 1];
            seg_counts[s] = kernels::copy_into(run, &mut blocks[range]) as u32;
        }
        debug_assert_eq!(
            seg_counts.iter().map(|&c| c as usize).sum::<usize>(),
            support
        );
        EclatNode {
            support,
            repr: TidRepr::Tidset,
            diff_children: self.heuristic_diff(support, self.n_rows, cfg),
            blocks,
            seg_counts,
        }
    }

    /// `|t(x ∪ y)|` for two sibling nodes. Node blocks are the
    /// concatenation of their per-segment runs, so the read-only count is
    /// **one** contiguous AND/ANDNOT-popcount pass over the whole
    /// structure — no per-segment slicing on the reject path, which the
    /// miner takes for every candidate that misses the threshold. (The
    /// per-segment zero-skips live in [`make_child`](Self::make_child),
    /// where segment granularity is load-bearing.)
    pub(crate) fn count_pair(&self, x: &EclatNode, y: &EclatNode) -> usize {
        debug_assert_eq!(x.repr, y.repr, "prefix-join pairs share a representation");
        match x.repr {
            TidRepr::Tidset => kernels::and_len(&x.blocks, &y.blocks),
            // support(c) = support(x) − |d(y) \ d(x)|.
            TidRepr::Diffset => x.support - kernels::andnot_len(&y.blocks, &x.blocks),
        }
    }

    /// Materializes the child of `x ∪ {last(y)}` (tidset or diffset, per
    /// `x.diff_children`) in one streaming write pass over the segments,
    /// skipping segments the cached counts prove empty — called only for
    /// candidates that passed the threshold, with the `support` that
    /// [`count_pair`](Self::count_pair) already established.
    pub(crate) fn make_child(
        &self,
        x: &EclatNode,
        y: &EclatNode,
        support: usize,
        cfg: &EclatCfg,
    ) -> EclatNode {
        debug_assert_eq!(x.repr, y.repr);
        let mut blocks = vec![0u64; self.node_blocks()];
        let mut seg_counts = vec![0u32; self.segments.len()];
        let mut stored = 0usize;
        for (s, seg_count) in seg_counts.iter_mut().enumerate() {
            let range = self.block_starts[s]..self.block_starts[s + 1];
            let out = &mut blocks[range.clone()];
            // A skipped segment leaves the freshly zeroed run untouched.
            let count = if !x.diff_children {
                // Tidset child of tidset parents: t(x) ∩ t(y).
                if x.seg_counts[s] == 0 || y.seg_counts[s] == 0 {
                    0
                } else {
                    kernels::and_into(&x.blocks[range.clone()], &y.blocks[range], out)
                }
            } else if x.repr == TidRepr::Tidset {
                // Diffset child of tidset parents: d(c) = t(x) \ t(y).
                if x.seg_counts[s] == 0 {
                    0
                } else if y.seg_counts[s] == 0 {
                    kernels::copy_into(&x.blocks[range], out)
                } else {
                    kernels::andnot_into(&x.blocks[range.clone()], &y.blocks[range], out)
                }
            } else {
                // Diffset child of diffset parents: d(c) = d(y) \ d(x).
                if y.seg_counts[s] == 0 {
                    0
                } else if x.seg_counts[s] == 0 {
                    kernels::copy_into(&y.blocks[range], out)
                } else {
                    kernels::andnot_into(&y.blocks[range.clone()], &x.blocks[range], out)
                }
            };
            *seg_count = count as u32;
            stored += count;
        }
        debug_assert_eq!(
            if x.diff_children {
                x.support - stored
            } else {
                stored
            },
            support
        );
        let repr = if x.diff_children {
            TidRepr::Diffset
        } else {
            TidRepr::Tidset
        };
        EclatNode {
            support,
            repr,
            diff_children: repr == TidRepr::Diffset || self.heuristic_diff(support, x.support, cfg),
            blocks,
            seg_counts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n_items: usize, specs: &[&[usize]]) -> Vec<AttrSet> {
        specs
            .iter()
            .map(|r| AttrSet::from_indices(n_items, r.iter().copied()))
            .collect()
    }

    fn naive_support(rows: &[AttrSet], x: &AttrSet) -> usize {
        rows.iter().filter(|r| x.is_subset(r)).count()
    }

    #[test]
    fn support_matches_horizontal_at_every_segment_size() {
        let n = 5;
        let rs = rows(
            n,
            &[
                &[0, 1, 2],
                &[0, 1, 2, 3],
                &[1, 3],
                &[0, 2, 4],
                &[1, 2, 3, 4],
                &[0],
                &[2, 3],
            ],
        );
        for seg in [1, 2, 3, 6, 7, 64, 1024] {
            let vs = VStore::from_rows(n, &rs, seg);
            assert_eq!(vs.n_rows(), rs.len());
            for bits in 0..(1usize << n) {
                let x = AttrSet::from_indices(n, (0..n).filter(|i| bits >> i & 1 == 1));
                assert_eq!(vs.support(&x), naive_support(&rs, &x), "seg={seg} {x:?}");
            }
        }
    }

    #[test]
    fn to_rows_round_trips() {
        let n = 4;
        let rs = rows(n, &[&[0, 1, 2], &[0, 1, 2, 3], &[1, 3]]);
        for seg in [1, 2, 3, 100] {
            let vs = VStore::from_rows(n, &rs, seg);
            assert_eq!(vs.to_rows(), rs, "seg={seg}");
        }
    }

    #[test]
    fn column_and_for_each_tid() {
        let n = 3;
        let rs = rows(n, &[&[0, 2], &[1], &[0, 1, 2], &[2]]);
        let vs = VStore::from_rows(n, &rs, 2);
        assert_eq!(vs.column(2).to_vec(), vec![0, 2, 3]);
        let mut seen = Vec::new();
        vs.for_each_tid(&[0, 2], |t| seen.push(t));
        assert_eq!(seen, vec![0, 2]);
        let mut all = Vec::new();
        vs.for_each_tid(&[], |t| all.push(t));
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn builder_streams_with_growing_universe() {
        let mut b = VStoreBuilder::new(2);
        b.push_row([0usize]);
        b.push_row([0, 1]);
        b.push_row([2]); // item 2 first appears in segment 2
        b.push_row([0, 2]);
        b.push_row([2]);
        let vs = b.finish();
        assert_eq!(vs.n_items(), 3);
        assert_eq!(vs.n_rows(), 5);
        assert_eq!(vs.segments.len(), 3);
        assert_eq!(vs.item_support(0), 3);
        assert_eq!(vs.item_support(2), 3);
        assert_eq!(vs.support_items(&[0, 2]), 1);
        assert_eq!(vs.column(2).to_vec(), vec![2, 3, 4]);
    }

    #[test]
    fn empty_store() {
        let vs = VStoreBuilder::new(8).finish();
        assert_eq!(vs.n_rows(), 0);
        assert_eq!(vs.segments.len(), 0);
        assert_eq!(vs.support(&AttrSet::empty(0)), 0);
        assert!(vs.to_rows().is_empty());
    }

    /// Exhaustively mines pairs/triples through both representations and
    /// checks every support against the horizontal count.
    #[test]
    #[allow(clippy::needless_range_loop)] // triple-nested index loops read clearer here
    fn declat_recurrences_are_exact() {
        let n = 6;
        let rs: Vec<AttrSet> = (0..150)
            .map(|t| AttrSet::from_indices(n, (0..n).filter(|i| (t * 7 + i * 13) % (i + 2) != 0)))
            .collect();
        for seg in [1, 7, 64, 149, 150, 1024] {
            let vs = VStore::from_rows(n, &rs, seg);
            for cfg in [
                EclatCfg::default(),
                EclatCfg::tidset_only(),
                EclatCfg::diffset_always(),
            ] {
                let items: Vec<EclatNode> = (0..n)
                    .map(|i| vs.item_node(i, vs.item_support(i), &cfg))
                    .collect();
                for i in 0..n {
                    for j in (i + 1)..n {
                        let x = &items[i];
                        let y = &items[j];
                        let expect = naive_support(&rs, &AttrSet::from_indices(n, [i, j]));
                        assert_eq!(vs.count_pair(x, y), expect, "seg={seg} pair {i},{j}");
                        let c_ij = vs.make_child(x, y, expect, &cfg);
                        assert_eq!(c_ij.support, expect);
                        // Grandchildren: siblings c_ij, c_ik share parent i.
                        for k in (j + 1)..n {
                            let support_ik = vs.count_pair(x, &items[k]);
                            let c_ik = vs.make_child(x, &items[k], support_ik, &cfg);
                            let expect3 = naive_support(&rs, &AttrSet::from_indices(n, [i, j, k]));
                            assert_eq!(
                                vs.count_pair(&c_ij, &c_ik),
                                expect3,
                                "seg={seg} triple {i},{j},{k}"
                            );
                            let made = vs.make_child(&c_ij, &c_ik, expect3, &cfg);
                            assert_eq!(made.support, expect3);
                        }
                    }
                }
            }
        }
    }
}
