//! The [`AttrSet`] type: a subset of a fixed attribute universe.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::{blocks_for, BLOCK_BITS, INLINE_BITS, INLINE_BLOCKS};
use crate::{kernels, ops};

/// Storage for an [`AttrSet`]'s bit blocks.
///
/// Universes of at most [`INLINE_BITS`] bits keep their blocks inline —
/// constructing, cloning, and combining such sets never touches the heap.
/// Larger universes spill to a heap vector. The variant is a function of
/// the universe size alone, so two sets over the same universe always have
/// the same representation and binary operations never need a mixed path.
///
/// Invariant: every bit at position `>= nbits` is zero, *including* whole
/// inline blocks beyond `blocks_for(nbits)`. This lets the inline fast
/// paths operate on both words unconditionally.
#[derive(Clone, PartialEq, Eq)]
enum Repr {
    Inline([u64; INLINE_BLOCKS]),
    Spilled(Vec<u64>),
}

/// A set of attributes drawn from a fixed universe `{0, …, n−1}`.
///
/// The universe size `n` is part of the value: two `AttrSet`s are only
/// comparable (and combinable) when they share the same universe size, and
/// [`complement`](AttrSet::complement) is complement *within the universe*.
/// This mirrors the paper's setting, where every sentence of the language is
/// a subset of the same attribute set `R`.
///
/// Storage is a packed sequence of `u64` blocks with a hybrid layout:
/// universes of at most 128 bits are stored **inline** (no heap
/// allocation — covering every paper-scale workload), larger universes
/// spill to a heap vector. Every set operation runs in `O(n / 64)` word
/// operations either way; see DESIGN.md §9 for the layout rules.
#[derive(Clone, Eq)]
pub struct AttrSet {
    nbits: usize,
    repr: Repr,
}

/// Generates the four in-place binary block operations: the both-inline arm
/// is fully unrolled over the two words (the tail-zero invariant makes the
/// second word a no-op for sub-64-bit universes), the spilled arm delegates
/// to the slice kernel in [`crate::ops`].
macro_rules! inplace_binop {
    ($(#[$doc:meta])* $name:ident, $kernel:ident, $op:tt, $rhs:tt) => {
        $(#[$doc])*
        #[inline]
        pub fn $name(&mut self, other: &AttrSet) {
            self.check_same_universe(other);
            match (&mut self.repr, &other.repr) {
                (Repr::Inline(a), Repr::Inline(b)) => {
                    a[0] $op inplace_binop!(@rhs $rhs b[0]);
                    a[1] $op inplace_binop!(@rhs $rhs b[1]);
                }
                (Repr::Spilled(a), Repr::Spilled(b)) => ops::$kernel(a, b),
                _ => unreachable!("same universe implies same representation"),
            }
        }
    };
    (@rhs id $e:expr) => { $e };
    (@rhs not $e:expr) => { !$e };
}

impl AttrSet {
    /// The empty set over a universe of `nbits` attributes.
    ///
    /// Allocation-free for `nbits ≤ 128` (the inline representation).
    #[inline]
    pub fn empty(nbits: usize) -> Self {
        let repr = if nbits <= INLINE_BITS {
            Repr::Inline([0; INLINE_BLOCKS])
        } else {
            Repr::Spilled(vec![0; blocks_for(nbits)])
        };
        AttrSet { nbits, repr }
    }

    /// The full set `{0, …, nbits−1}`.
    pub fn full(nbits: usize) -> Self {
        let mut s = Self::empty(nbits);
        for b in s.blocks_mut() {
            *b = u64::MAX;
        }
        s.trim_tail();
        s
    }

    /// The singleton `{attr}` over a universe of `nbits` attributes.
    ///
    /// # Panics
    /// Panics if `attr >= nbits`.
    pub fn singleton(nbits: usize, attr: usize) -> Self {
        let mut s = Self::empty(nbits);
        s.insert(attr);
        s
    }

    /// Builds a set from attribute indices.
    ///
    /// # Panics
    /// Panics if any index is `>= nbits`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(nbits: usize, indices: I) -> Self {
        let mut s = Self::empty(nbits);
        for i in indices {
            s.insert(i);
        }
        s
    }

    /// The universe size this set lives in.
    #[inline]
    pub fn universe_size(&self) -> usize {
        self.nbits
    }

    /// Whether this set uses the inline (allocation-free) representation —
    /// true exactly when the universe is at most 128 bits.
    #[inline]
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline(_))
    }

    /// The logical storage blocks, `blocks_for(nbits)` of them.
    #[inline]
    fn blocks_ref(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline(a) => &a[..blocks_for(self.nbits)],
            Repr::Spilled(v) => v,
        }
    }

    /// Mutable logical storage blocks.
    #[inline]
    fn blocks_mut(&mut self) -> &mut [u64] {
        let nb = blocks_for(self.nbits);
        match &mut self.repr {
            Repr::Inline(a) => &mut a[..nb],
            Repr::Spilled(v) => v,
        }
    }

    /// Clears bits beyond `nbits` (internal invariant: trailing bits of the
    /// last logical block and any unused inline block are always zero).
    #[inline]
    fn trim_tail(&mut self) {
        let used = self.nbits % BLOCK_BITS;
        if used != 0 {
            if let Some(last) = self.blocks_mut().last_mut() {
                *last &= (1u64 << used) - 1;
            }
        }
        if let Repr::Inline(a) = &mut self.repr {
            for b in &mut a[blocks_for(self.nbits)..] {
                *b = 0;
            }
        }
    }

    #[inline]
    fn check_attr(&self, attr: usize) {
        assert!(
            attr < self.nbits,
            "attribute {attr} out of universe 0..{}",
            self.nbits
        );
    }

    #[inline]
    fn check_same_universe(&self, other: &AttrSet) {
        assert!(
            self.nbits == other.nbits,
            "universe mismatch: {} vs {}",
            self.nbits,
            other.nbits
        );
    }

    /// Inserts `attr`. Returns `true` if it was not already present.
    ///
    /// # Panics
    /// Panics if `attr` is outside the universe.
    #[inline]
    pub fn insert(&mut self, attr: usize) -> bool {
        self.check_attr(attr);
        let (b, m) = (attr / BLOCK_BITS, 1u64 << (attr % BLOCK_BITS));
        let word = &mut self.blocks_mut()[b];
        let fresh = *word & m == 0;
        *word |= m;
        fresh
    }

    /// Removes `attr`. Returns `true` if it was present.
    ///
    /// # Panics
    /// Panics if `attr` is outside the universe.
    #[inline]
    pub fn remove(&mut self, attr: usize) -> bool {
        self.check_attr(attr);
        let (b, m) = (attr / BLOCK_BITS, 1u64 << (attr % BLOCK_BITS));
        let word = &mut self.blocks_mut()[b];
        let present = *word & m != 0;
        *word &= !m;
        present
    }

    /// Whether `attr` is in the set. Attributes outside the universe are
    /// never members.
    #[inline]
    pub fn contains(&self, attr: usize) -> bool {
        attr < self.nbits
            && self.blocks_ref()[attr / BLOCK_BITS] & (1u64 << (attr % BLOCK_BITS)) != 0
    }

    /// Cardinality (number of attributes in the set).
    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline(a) => (a[0].count_ones() + a[1].count_ones()) as usize,
            Repr::Spilled(v) => v.iter().map(|b| b.count_ones() as usize).sum(),
        }
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            Repr::Inline(a) => a[0] | a[1] == 0,
            Repr::Spilled(v) => v.iter().all(|&b| b == 0),
        }
    }

    /// Whether the set equals the whole universe.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len() == self.nbits
    }

    /// The smallest attribute in the set, if any.
    pub fn first(&self) -> Option<usize> {
        for (i, &b) in self.blocks_ref().iter().enumerate() {
            if b != 0 {
                return Some(i * BLOCK_BITS + b.trailing_zeros() as usize);
            }
        }
        None
    }

    /// The largest attribute in the set, if any.
    pub fn last(&self) -> Option<usize> {
        for (i, &b) in self.blocks_ref().iter().enumerate().rev() {
            if b != 0 {
                return Some(i * BLOCK_BITS + (BLOCK_BITS - 1 - b.leading_zeros() as usize));
            }
        }
        None
    }

    /// Removes all attributes.
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Inline(a) => *a = [0; INLINE_BLOCKS],
            Repr::Spilled(v) => v.iter_mut().for_each(|b| *b = 0),
        }
    }

    // --- set algebra -----------------------------------------------------

    inplace_binop! {
        /// In-place union: `self ∪= other`.
        ///
        /// # Panics
        /// Panics on universe mismatch (also true of every binary operation
        /// below).
        union_with, union_blocks, |=, id
    }

    inplace_binop! {
        /// In-place intersection: `self ∩= other`.
        intersect_with, intersect_blocks, &=, id
    }

    inplace_binop! {
        /// In-place difference: `self \= other`.
        difference_with, difference_blocks, &=, not
    }

    inplace_binop! {
        /// In-place symmetric difference: `self Δ= other`.
        symmetric_difference_with, symmetric_difference_blocks, ^=, id
    }

    /// In-place complement within the universe.
    #[inline]
    pub fn complement_in_place(&mut self) {
        for b in self.blocks_mut() {
            *b = !*b;
        }
        self.trim_tail();
    }

    /// `self ∪ other` as a new set.
    pub fn union(&self, other: &AttrSet) -> AttrSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Writes `self ∩ other` into `out`, reusing its allocation.
    ///
    /// The borrow-based counterpart of [`intersection`](AttrSet::intersection)
    /// for hot loops that keep a scratch set per worker instead of
    /// allocating a fresh set per operation.
    ///
    /// # Panics
    /// Panics if the three sets do not share one universe.
    #[inline]
    pub fn intersection_into(&self, other: &AttrSet, out: &mut AttrSet) {
        self.check_same_universe(other);
        self.check_same_universe(out);
        for ((o, a), b) in out
            .blocks_mut()
            .iter_mut()
            .zip(self.blocks_ref())
            .zip(other.blocks_ref())
        {
            *o = a & b;
        }
    }

    /// Writes `self ∪ other` into `out`, reusing its allocation.
    ///
    /// # Panics
    /// Panics if the three sets do not share one universe.
    #[inline]
    pub fn union_into(&self, other: &AttrSet, out: &mut AttrSet) {
        self.check_same_universe(other);
        self.check_same_universe(out);
        for ((o, a), b) in out
            .blocks_mut()
            .iter_mut()
            .zip(self.blocks_ref())
            .zip(other.blocks_ref())
        {
            *o = a | b;
        }
    }

    /// Writes `self \ other` into `out`, reusing its allocation.
    ///
    /// # Panics
    /// Panics if the three sets do not share one universe.
    #[inline]
    pub fn difference_into(&self, other: &AttrSet, out: &mut AttrSet) {
        self.check_same_universe(other);
        self.check_same_universe(out);
        for ((o, a), b) in out
            .blocks_mut()
            .iter_mut()
            .zip(self.blocks_ref())
            .zip(other.blocks_ref())
        {
            *o = a & !b;
        }
    }

    /// `self ∩ other` as a new set.
    pub fn intersection(&self, other: &AttrSet) -> AttrSet {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// `self \ other` as a new set.
    pub fn difference(&self, other: &AttrSet) -> AttrSet {
        let mut s = self.clone();
        s.difference_with(other);
        s
    }

    /// `self Δ other` as a new set.
    pub fn symmetric_difference(&self, other: &AttrSet) -> AttrSet {
        let mut s = self.clone();
        s.symmetric_difference_with(other);
        s
    }

    /// `R \ self` (complement within the universe) as a new set.
    pub fn complement(&self) -> AttrSet {
        let mut s = self.clone();
        s.complement_in_place();
        s
    }

    // --- relational tests ------------------------------------------------

    /// Whether `self ⊆ other`.
    #[inline]
    pub fn is_subset(&self, other: &AttrSet) -> bool {
        self.check_same_universe(other);
        match (&self.repr, &other.repr) {
            (Repr::Inline(a), Repr::Inline(b)) => (a[0] & !b[0]) | (a[1] & !b[1]) == 0,
            (Repr::Spilled(a), Repr::Spilled(b)) => ops::is_subset_blocks(a, b),
            _ => unreachable!("same universe implies same representation"),
        }
    }

    /// Whether `self ⊇ other`.
    #[inline]
    pub fn is_superset(&self, other: &AttrSet) -> bool {
        other.is_subset(self)
    }

    /// Whether `self ⊂ other` (proper subset).
    #[inline]
    pub fn is_proper_subset(&self, other: &AttrSet) -> bool {
        self.is_subset(other) && self != other
    }

    /// Whether `self ⊃ other` (proper superset).
    #[inline]
    pub fn is_proper_superset(&self, other: &AttrSet) -> bool {
        other.is_proper_subset(self)
    }

    /// Whether the sets share at least one attribute.
    ///
    /// This is the *hitting* test of the transversal problem: `T` is a
    /// transversal of a hypergraph iff `T.intersects(E)` for every edge `E`.
    #[inline]
    pub fn intersects(&self, other: &AttrSet) -> bool {
        self.check_same_universe(other);
        match (&self.repr, &other.repr) {
            (Repr::Inline(a), Repr::Inline(b)) => (a[0] & b[0]) | (a[1] & b[1]) != 0,
            (Repr::Spilled(a), Repr::Spilled(b)) => !ops::is_disjoint_blocks(a, b),
            _ => unreachable!("same universe implies same representation"),
        }
    }

    /// Whether the sets are disjoint.
    #[inline]
    pub fn is_disjoint(&self, other: &AttrSet) -> bool {
        !self.intersects(other)
    }

    // --- non-materializing kernels ----------------------------------------
    //
    // Counting variants of the set algebra: they answer "how big would the
    // result be?" without building it, so the hot counting loops (support
    // queries, MMCS branching, FK frequency tests) do zero heap traffic.
    // The slice-level implementations live in `ops`.

    /// Cardinality of `self ∩ other` without materializing the
    /// intersection.
    #[inline]
    pub fn intersection_len(&self, other: &AttrSet) -> usize {
        self.check_same_universe(other);
        match (&self.repr, &other.repr) {
            (Repr::Inline(a), Repr::Inline(b)) => {
                ((a[0] & b[0]).count_ones() + (a[1] & b[1]).count_ones()) as usize
            }
            (Repr::Spilled(a), Repr::Spilled(b)) => kernels::and_len(a, b),
            _ => unreachable!("same universe implies same representation"),
        }
    }

    /// Cardinality of the three-way intersection `self ∩ b ∩ c` without
    /// materializing any intermediate set.
    ///
    /// # Panics
    /// Panics if the three sets do not share one universe.
    #[inline]
    pub fn intersection_len_with(&self, b: &AttrSet, c: &AttrSet) -> usize {
        self.check_same_universe(b);
        self.check_same_universe(c);
        match (&self.repr, &b.repr, &c.repr) {
            (Repr::Inline(x), Repr::Inline(y), Repr::Inline(z)) => {
                ((x[0] & y[0] & z[0]).count_ones() + (x[1] & y[1] & z[1]).count_ones()) as usize
            }
            (Repr::Spilled(x), Repr::Spilled(y), Repr::Spilled(z)) => kernels::and3_len(x, y, z),
            _ => unreachable!("same universe implies same representation"),
        }
    }

    /// Fused in-place intersection that also returns the cardinality of the
    /// result: `self ∩= other; self.len()` in a single pass.
    #[inline]
    pub fn intersect_with_returning_len(&mut self, other: &AttrSet) -> usize {
        self.check_same_universe(other);
        match (&mut self.repr, &other.repr) {
            (Repr::Inline(a), Repr::Inline(b)) => {
                a[0] &= b[0];
                a[1] &= b[1];
                (a[0].count_ones() + a[1].count_ones()) as usize
            }
            (Repr::Spilled(a), Repr::Spilled(b)) => ops::intersect_returning_len_blocks(a, b),
            _ => unreachable!("same universe implies same representation"),
        }
    }

    // --- iteration & conversion ------------------------------------------

    /// Iterates over member attributes in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        let blocks = self.blocks_ref();
        Iter {
            blocks,
            block: 0,
            bits: blocks.first().copied().unwrap_or(0),
        }
    }

    /// Collects the member attributes into a `Vec`, ascending.
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// Raw storage blocks (low attribute indices in low blocks/bits).
    pub fn blocks(&self) -> &[u64] {
        self.blocks_ref()
    }

    /// Compares two sets by cardinality first, then lexicographically by
    /// ascending attribute indices. This is the natural order for printing
    /// lattice levels and borders.
    pub fn cmp_card_lex(&self, other: &AttrSet) -> Ordering {
        self.len()
            .cmp(&other.len())
            .then_with(|| self.cmp_lex(other))
    }

    /// Compares two sets lexicographically by ascending attribute indices
    /// (`{A,B} < {A,C} < {B}`), i.e. dictionary order of the paper's
    /// shorthand strings.
    ///
    /// Runs block-wise: at the lowest differing bit `i`, the set containing
    /// `i` is lexicographically smaller unless the other set has no member
    /// above `i` at all (then it is a proper prefix, hence smaller).
    pub fn cmp_lex(&self, other: &AttrSet) -> Ordering {
        ops::cmp_lex_blocks(self.blocks_ref(), other.blocks_ref())
    }
}

/// Ascending-index iterator over an [`AttrSet`]'s members.
pub struct Iter<'a> {
    blocks: &'a [u64],
    block: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let tz = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1; // clear lowest set bit
                return Some(self.block * BLOCK_BITS + tz);
            }
            self.block += 1;
            if self.block >= self.blocks.len() {
                return None;
            }
            self.bits = self.blocks[self.block];
        }
    }
}

impl<'a> IntoIterator for &'a AttrSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl PartialEq for AttrSet {
    fn eq(&self, other: &Self) -> bool {
        if self.nbits != other.nbits {
            return false;
        }
        match (&self.repr, &other.repr) {
            (Repr::Inline(a), Repr::Inline(b)) => a == b,
            (Repr::Spilled(a), Repr::Spilled(b)) => a == b,
            _ => unreachable!("same universe implies same representation"),
        }
    }
}

impl Hash for AttrSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.nbits.hash(state);
        self.blocks_ref().hash(state);
    }
}

/// Total order on same-universe sets: block-wise numeric comparison
/// (high block first), which groups supersets of high attributes together.
/// It is an arbitrary-but-deterministic total order suitable for
/// `BTreeSet`/`BTreeMap` keys; use [`AttrSet::cmp_card_lex`] or
/// [`AttrSet::cmp_lex`] when a human-meaningful order is needed.
///
/// Sets from different universes compare by universe size first, so `Ord`
/// stays consistent with `Eq` even across universes.
impl Ord for AttrSet {
    fn cmp(&self, other: &Self) -> Ordering {
        self.nbits.cmp(&other.nbits).then_with(|| {
            match (&self.repr, &other.repr) {
                // Tail blocks are zero in both, so comparing the full
                // inline array high-word-first equals comparing the
                // logical blocks.
                (Repr::Inline(a), Repr::Inline(b)) => a[1].cmp(&b[1]).then_with(|| a[0].cmp(&b[0])),
                (Repr::Spilled(a), Repr::Spilled(b)) => a.iter().rev().cmp(b.iter().rev()),
                _ => unreachable!("same universe implies same representation"),
            }
        })
    }
}

impl PartialOrd for AttrSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for AttrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, i) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = AttrSet::empty(10);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let f = AttrSet::full(10);
        assert!(f.is_full());
        assert_eq!(f.len(), 10);
        assert_eq!(e.complement(), f);
        assert_eq!(f.complement(), e);
    }

    #[test]
    fn full_trims_tail_bits() {
        // 70 bits spans two blocks; the second block must only have 6 bits.
        let f = AttrSet::full(70);
        assert_eq!(f.len(), 70);
        assert_eq!(f.last(), Some(69));
        assert!(!f.contains(70));
    }

    #[test]
    fn inline_heap_boundary() {
        for nbits in [1usize, 63, 64, 65, 127, 128] {
            let f = AttrSet::full(nbits);
            assert!(f.is_inline(), "nbits={nbits}");
            assert_eq!(f.len(), nbits);
            assert_eq!(f.blocks().len(), crate::blocks_for(nbits));
        }
        for nbits in [129usize, 200, 1000] {
            let f = AttrSet::full(nbits);
            assert!(!f.is_inline(), "nbits={nbits}");
            assert_eq!(f.len(), nbits);
            assert_eq!(f.blocks().len(), crate::blocks_for(nbits));
        }
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = AttrSet::empty(100);
        assert!(s.insert(3));
        assert!(s.insert(99));
        assert!(!s.insert(3));
        assert!(s.contains(3));
        assert!(s.contains(99));
        assert!(!s.contains(4));
        assert_eq!(s.len(), 2);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert_eq!(s.to_vec(), vec![99]);
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn insert_out_of_range_panics() {
        AttrSet::empty(5).insert(5);
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn cross_universe_union_panics() {
        let mut a = AttrSet::empty(5);
        a.union_with(&AttrSet::empty(6));
    }

    #[test]
    fn algebra_small() {
        let a = AttrSet::from_indices(8, [0, 1, 2]);
        let b = AttrSet::from_indices(8, [1, 3]);
        assert_eq!(a.union(&b).to_vec(), vec![0, 1, 2, 3]);
        assert_eq!(a.intersection(&b).to_vec(), vec![1]);
        assert_eq!(a.difference(&b).to_vec(), vec![0, 2]);
        assert_eq!(a.symmetric_difference(&b).to_vec(), vec![0, 2, 3]);
        assert_eq!(a.complement().to_vec(), vec![3, 4, 5, 6, 7]);
    }

    #[test]
    fn subset_superset() {
        let a = AttrSet::from_indices(8, [0, 1, 2]);
        let b = AttrSet::from_indices(8, [1, 2]);
        assert!(b.is_subset(&a));
        assert!(b.is_proper_subset(&a));
        assert!(a.is_superset(&b));
        assert!(a.is_subset(&a));
        assert!(!a.is_proper_subset(&a));
    }

    #[test]
    fn intersects_and_disjoint() {
        let a = AttrSet::from_indices(128, [0, 127]);
        let b = AttrSet::from_indices(128, [127]);
        let c = AttrSet::from_indices(128, [64]);
        assert!(a.intersects(&b));
        assert!(a.is_disjoint(&c));
        assert_eq!(a.intersection_len(&b), 1);
        assert_eq!(a.intersection_len(&c), 0);
    }

    #[test]
    fn counting_kernels_match_materialized() {
        for n in [60usize, 128, 200] {
            let a = AttrSet::from_indices(n, (0..n).step_by(2));
            let b = AttrSet::from_indices(n, (0..n).step_by(3));
            let c = AttrSet::from_indices(n, (0..n).step_by(5));
            assert_eq!(a.intersection_len(&b), a.intersection(&b).len());
            assert_eq!(
                a.intersection_len_with(&b, &c),
                a.intersection(&b).intersection(&c).len()
            );
            let mut fused = a.clone();
            let len = fused.intersect_with_returning_len(&b);
            assert_eq!(fused, a.intersection(&b));
            assert_eq!(len, fused.len());
        }
    }

    #[test]
    fn first_last() {
        let s = AttrSet::from_indices(200, [5, 77, 191]);
        assert_eq!(s.first(), Some(5));
        assert_eq!(s.last(), Some(191));
        assert_eq!(AttrSet::empty(200).first(), None);
        assert_eq!(AttrSet::empty(200).last(), None);
    }

    #[test]
    fn iter_crosses_blocks() {
        let v = vec![0, 63, 64, 65, 129];
        let s = AttrSet::from_indices(130, v.clone());
        assert_eq!(s.to_vec(), v);
    }

    #[test]
    fn lex_orders() {
        let u = 4;
        let ab = AttrSet::from_indices(u, [0, 1]);
        let ac = AttrSet::from_indices(u, [0, 2]);
        let b = AttrSet::from_indices(u, [1]);
        assert_eq!(ab.cmp_lex(&ac), Ordering::Less);
        assert_eq!(ac.cmp_lex(&b), Ordering::Less);
        assert_eq!(b.cmp_card_lex(&ab), Ordering::Less); // smaller first
        assert_eq!(ab.cmp_lex(&ab), Ordering::Equal);
    }

    #[test]
    fn cmp_lex_prefix_is_smaller() {
        // {0} < {0,1}: a proper lexicographic prefix sorts first.
        let a = AttrSet::from_indices(130, [0]);
        let b = AttrSet::from_indices(130, [0, 1]);
        assert_eq!(a.cmp_lex(&b), Ordering::Less);
        assert_eq!(b.cmp_lex(&a), Ordering::Greater);
        // Across blocks: {5} vs {5, 100}.
        let c = AttrSet::from_indices(130, [5]);
        let d = AttrSet::from_indices(130, [5, 100]);
        assert_eq!(c.cmp_lex(&d), Ordering::Less);
    }

    #[test]
    fn ord_consistent_with_eq() {
        let a = AttrSet::from_indices(8, [1, 2]);
        let b = AttrSet::from_indices(8, [1, 2]);
        assert_eq!(a.cmp(&b), Ordering::Equal);
        assert_eq!(a, b);
    }

    #[test]
    fn debug_format() {
        let s = AttrSet::from_indices(8, [1, 5]);
        assert_eq!(format!("{s:?}"), "{1,5}");
    }

    #[test]
    fn clear_resets() {
        let mut s = AttrSet::full(65);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.universe_size(), 65);
    }

    #[test]
    fn borrowed_kernels_match_allocating_ops() {
        let a = AttrSet::from_indices(130, [0, 63, 64, 129]);
        let b = AttrSet::from_indices(130, [63, 64, 100]);
        let mut out = AttrSet::empty(130);
        a.intersection_into(&b, &mut out);
        assert_eq!(out, a.intersection(&b));
        a.union_into(&b, &mut out);
        assert_eq!(out, a.union(&b));
        a.difference_into(&b, &mut out);
        assert_eq!(out, a.difference(&b));
        // `out` may alias an operand's value after prior writes: the loop
        // reads operands only, so reusing the same scratch is sound.
        let mut scratch = a.clone();
        a.intersection_into(&b, &mut scratch);
        assert_eq!(scratch, a.intersection(&b));
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn borrowed_kernel_checks_out_universe() {
        let a = AttrSet::empty(5);
        let mut out = AttrSet::empty(6);
        a.intersection_into(&a.clone(), &mut out);
    }

    #[test]
    fn attr_set_is_send_and_sync() {
        // Compile-time assertion that the parallel layer can share and move
        // AttrSets across scoped worker threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AttrSet>();
        assert_send_sync::<Vec<AttrSet>>();
    }
}
