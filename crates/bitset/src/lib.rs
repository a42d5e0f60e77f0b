//! # dualminer-bitset
//!
//! Fixed-universe bitsets — the substrate every other `dualminer` crate is
//! built on.
//!
//! The framework of Gunopulos, Khardon, Mannila and Toivonen (PODS 1997)
//! works with languages *representable as sets* (Definition 6 of the paper):
//! every sentence is a subset of a finite attribute universe
//! `R = {0, 1, …, n−1}`. This crate provides:
//!
//! * [`AttrSet`] — a set of attributes, stored as packed `u64` blocks, with
//!   the full set algebra (union, intersection, difference, complement
//!   within the universe), subset/superset tests, and ascending-index
//!   iteration. All binary operations require both operands to share the
//!   same universe size and panic otherwise; this catches cross-lattice
//!   mixups early.
//! * [`Universe`] — the attribute universe with optional human-readable
//!   names, used for parsing and displaying sets in the paper's shorthand
//!   (`ABC` for `{A, B, C}`).
//! * Enumeration helpers — [`SubsetsOfSize`], immediate subsets/supersets —
//!   that the levelwise and Dualize-and-Advance algorithms use to walk the
//!   subset lattice one level at a time.
//! * [`candidates`] — prefix-join candidate generation, the
//!   database-free step of every level-wise walk over the lattice.
//! * [`SetTrie`] — a prefix tree over ascending-index set representations
//!   answering subset/superset existence queries in output-sensitive time:
//!   the index behind antichain minimization and border derivation.
//!
//! # Example
//!
//! ```
//! use dualminer_bitset::{AttrSet, Universe};
//!
//! let u = Universe::letters(4); // attributes A, B, C, D
//! let abc = u.parse("ABC").unwrap();
//! let bd = u.parse("BD").unwrap();
//!
//! assert_eq!(abc.intersection(&bd), u.parse("B").unwrap());
//! assert!(u.parse("AB").unwrap().is_subset(&abc));
//! assert_eq!(u.display(&abc.complement()), "D");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attr_set;
pub mod candidates;
mod enumerate;
pub mod kernels;
mod ops;
mod set_trie;
mod universe;

pub use attr_set::AttrSet;
pub use enumerate::{ImmediateSubsets, ImmediateSupersets, SubsetsOfSize};
pub use set_trie::{NodeId, SetTrie};
pub use universe::{ParseSetError, Universe};

/// Number of bits in one storage block of an [`AttrSet`].
pub(crate) const BLOCK_BITS: usize = 64;

/// Number of blocks an [`AttrSet`] stores inline (without heap allocation).
pub(crate) const INLINE_BLOCKS: usize = 2;

/// Largest universe size (in bits) that [`AttrSet`] stores inline: sets
/// over at most this many attributes are created, cloned, and combined
/// with **zero heap allocations**. Larger universes spill to a heap
/// vector with identical semantics.
pub const INLINE_BITS: usize = INLINE_BLOCKS * BLOCK_BITS;

/// Number of `u64` blocks needed to store `nbits` bits.
#[inline]
pub(crate) fn blocks_for(nbits: usize) -> usize {
    nbits.div_ceil(BLOCK_BITS)
}
