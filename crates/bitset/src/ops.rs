//! Block-level kernels and operator-trait sugar for [`AttrSet`].
//!
//! # Kernels
//!
//! The slice-level inner loops every multi-block (spilled) set operation
//! compiles down to. They are deliberately *non-materializing* where
//! possible: [`is_disjoint_blocks`] and [`is_subset_blocks`] answer
//! questions about a combination of sets without ever building it (the
//! intersection popcounts are [`crate::kernels::and_len`] and
//! [`crate::kernels::and3_len`]), and
//! [`intersect_returning_len_blocks`] fuses the write and the popcount into
//! one pass. `AttrSet`'s public methods dispatch here for heap-backed sets
//! and use fully unrolled two-word arms for inline sets (see
//! `attr_set.rs`); DESIGN.md §9 has the inventory and the rules for adding
//! new kernels.
//!
//! All kernels assume same-length slices — `AttrSet` guarantees this for
//! same-universe operands — and simply ignore any excess tail on the longer
//! operand (`zip` semantics), which only [`cmp_lex_blocks`] must handle
//! explicitly because it accepts operands from different universes.
//!
//! # Operators
//!
//! `&a | &b`, `&a & &b`, `&a - &b`, `&a ^ &b`, and `!&a` (complement in the
//! universe). All operators panic on universe mismatch, like the named
//! methods they delegate to.

use std::cmp::Ordering;
use std::ops::{BitAnd, BitOr, BitXor, Not, Sub};

use crate::AttrSet;

/// In-place union over block slices: `a |= b`.
#[inline]
pub(crate) fn union_blocks(a: &mut [u64], b: &[u64]) {
    for (x, y) in a.iter_mut().zip(b) {
        *x |= *y;
    }
}

/// In-place intersection over block slices: `a &= b`.
#[inline]
pub(crate) fn intersect_blocks(a: &mut [u64], b: &[u64]) {
    for (x, y) in a.iter_mut().zip(b) {
        *x &= *y;
    }
}

/// In-place difference over block slices: `a &= !b`.
#[inline]
pub(crate) fn difference_blocks(a: &mut [u64], b: &[u64]) {
    for (x, y) in a.iter_mut().zip(b) {
        *x &= !*y;
    }
}

/// In-place symmetric difference over block slices: `a ^= b`.
#[inline]
pub(crate) fn symmetric_difference_blocks(a: &mut [u64], b: &[u64]) {
    for (x, y) in a.iter_mut().zip(b) {
        *x ^= *y;
    }
}

/// Whether `a ∩ b = ∅`, short-circuiting on the first shared block.
#[inline]
pub(crate) fn is_disjoint_blocks(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & y == 0)
}

/// Whether `a ⊆ b`, short-circuiting on the first excess block.
#[inline]
pub(crate) fn is_subset_blocks(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & !y == 0)
}

/// Fused `a &= b` returning the popcount of the result — one pass instead
/// of an intersection pass followed by a count pass.
#[inline]
pub(crate) fn intersect_returning_len_blocks(a: &mut [u64], b: &[u64]) -> usize {
    let mut len = 0usize;
    for (x, y) in a.iter_mut().zip(b) {
        *x &= *y;
        len += x.count_ones() as usize;
    }
    len
}

/// Lexicographic comparison by ascending attribute indices, block-wise.
///
/// At the lowest differing bit `i` (both sets agree below `i`), the set
/// containing `i` places attribute `i` where the other set's next member is
/// larger — so the owner is smaller — *unless* the other set has no member
/// above `i` at all, making it a strict prefix, hence smaller. This is the
/// branch-free replacement for walking both iterators bit by bit.
///
/// Operands may come from different universes (the iterator semantics never
/// checked), so differing slice lengths are handled by treating missing
/// blocks as zero.
pub(crate) fn cmp_lex_blocks(a: &[u64], b: &[u64]) -> Ordering {
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        if x == y {
            continue;
        }
        let low = (x ^ y).trailing_zeros();
        // Bits of x and y below `low` are identical; decide by who owns
        // `low` and whether the non-owner still has members above it.
        let (owner_is_a, non_owner_rest) = if x >> low & 1 == 1 {
            (true, (y >> low) >> 1 != 0 || tail_nonzero(b, i + 1))
        } else {
            (false, (x >> low) >> 1 != 0 || tail_nonzero(a, i + 1))
        };
        let owner_order = if non_owner_rest {
            Ordering::Less
        } else {
            Ordering::Greater
        };
        return if owner_is_a {
            owner_order
        } else {
            owner_order.reverse()
        };
    }
    Ordering::Equal
}

/// Whether any block of `s` from `from` onward is nonzero.
#[inline]
fn tail_nonzero(s: &[u64], from: usize) -> bool {
    s.get(from..).is_some_and(|t| t.iter().any(|&w| w != 0))
}

impl BitOr for &AttrSet {
    type Output = AttrSet;
    fn bitor(self, rhs: &AttrSet) -> AttrSet {
        self.union(rhs)
    }
}

impl BitAnd for &AttrSet {
    type Output = AttrSet;
    fn bitand(self, rhs: &AttrSet) -> AttrSet {
        self.intersection(rhs)
    }
}

impl Sub for &AttrSet {
    type Output = AttrSet;
    fn sub(self, rhs: &AttrSet) -> AttrSet {
        self.difference(rhs)
    }
}

impl BitXor for &AttrSet {
    type Output = AttrSet;
    fn bitxor(self, rhs: &AttrSet) -> AttrSet {
        self.symmetric_difference(rhs)
    }
}

impl Not for &AttrSet {
    type Output = AttrSet;
    fn not(self) -> AttrSet {
        self.complement()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttrSet;

    fn s(v: &[usize]) -> AttrSet {
        AttrSet::from_indices(6, v.iter().copied())
    }

    #[test]
    fn operators_match_methods() {
        let a = s(&[0, 1, 2]);
        let b = s(&[1, 3]);
        assert_eq!(&a | &b, a.union(&b));
        assert_eq!(&a & &b, a.intersection(&b));
        assert_eq!(&a - &b, a.difference(&b));
        assert_eq!(&a ^ &b, a.symmetric_difference(&b));
        assert_eq!(!&a, a.complement());
    }

    #[test]
    fn de_morgan_via_operators() {
        let a = s(&[0, 4]);
        let b = s(&[4, 5]);
        assert_eq!(!&(&a | &b), &(!&a) & &(!&b));
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn operators_check_universe() {
        let _ = &s(&[0]) | &AttrSet::empty(7);
    }

    /// Reference implementation of lexicographic order: walk both member
    /// iterators (the pre-kernel `cmp_lex`).
    fn cmp_lex_reference(a: &AttrSet, b: &AttrSet) -> Ordering {
        let mut x = a.iter();
        let mut y = b.iter();
        loop {
            match (x.next(), y.next()) {
                (None, None) => return Ordering::Equal,
                (None, Some(_)) => return Ordering::Less,
                (Some(_), None) => return Ordering::Greater,
                (Some(p), Some(q)) => match p.cmp(&q) {
                    Ordering::Equal => continue,
                    ord => return ord,
                },
            }
        }
    }

    #[test]
    fn cmp_lex_blocks_matches_iterator_walk() {
        // Exhaustive over a 10-bit universe: every pair of subsets.
        let n = 10usize;
        let sets: Vec<AttrSet> = (0u32..1 << n)
            .map(|bits| AttrSet::from_indices(n, (0..n).filter(|i| bits >> i & 1 == 1)))
            .collect();
        for a in sets.iter().step_by(7) {
            for b in sets.iter().step_by(5) {
                assert_eq!(a.cmp_lex(b), cmp_lex_reference(a, b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn cmp_lex_blocks_cross_universe_lengths() {
        // cmp_lex never required equal universes; differing block counts
        // must behave as if padded with zeros.
        let a = AttrSet::from_indices(40, [3, 38]);
        let b = AttrSet::from_indices(400, [3, 38]);
        assert_eq!(a.cmp_lex(&b), Ordering::Equal);
        let c = AttrSet::from_indices(400, [3, 38, 290]);
        assert_eq!(a.cmp_lex(&c), Ordering::Less);
        assert_eq!(c.cmp_lex(&a), Ordering::Greater);
        let d = AttrSet::from_indices(400, [2]);
        assert_eq!(d.cmp_lex(&a), Ordering::Less);
    }
}
