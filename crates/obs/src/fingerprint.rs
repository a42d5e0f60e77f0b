//! Canonical input fingerprinting: a streaming FNV-1a-64 hasher plus a
//! row-event builder for content-addressed result caching.
//!
//! The `serve` daemon keys its result cache by a fingerprint of the
//! *parsed, canonicalized* input — the sequence of first-appearance
//! symbol interns, item indices, and row boundaries — never the raw
//! bytes. Two files that differ only in whitespace, comments, or blank
//! lines therefore hash identically and hit the same cache entry, while
//! any change to the data itself (a renamed item, a reordered row, an
//! extra transaction) changes the digest.
//!
//! [`FnvStream`] is the incremental form of the one-shot
//! [`fault::fnv1a64`](crate::fault::fnv1a64) already used for checkpoint
//! checksums and fault keying — same basis, same prime, byte-for-byte the
//! same result on the same byte stream. [`RowFingerprint`] layers the
//! canonical event encoding on top and additionally exposes the digest
//! *after every row*, which is what lets the cache recognize a request
//! whose input extends a cached one by appended rows only (the
//! incremental re-mining fast path): the old input's fingerprint equals
//! the new input's prefix digest at the old row count.
//!
//! Every event is tagged and length-prefixed, so streams cannot collide
//! by re-bracketing (`"ab"` then `"c"` never hashes like `"a"` then
//! `"bc"`, an item index never masquerades as a symbol byte).

use std::fmt;

/// FNV-1a-64 offset basis (the hash of the empty input).
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a-64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// `FNV_PRIME_POW[k]` is `FNV_PRIME^k`: an FNV-1a step on a zero byte is
/// one multiply by the prime, so `k` zero bytes fold into one multiply.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// Incremental FNV-1a-64: feed bytes in any number of chunks; the digest
/// equals [`fault::fnv1a64`](crate::fault::fnv1a64) of their
/// concatenation.
#[derive(Clone, Debug)]
pub struct FnvStream {
    state: u64,
}

impl FnvStream {
    /// A fresh stream (digest of nothing = the FNV offset basis).
    pub fn new() -> FnvStream {
        FnvStream { state: FNV_BASIS }
    }

    /// Feeds a chunk of bytes.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.state = h;
    }

    /// Feeds one `u64` as its 8 little-endian bytes. The high zero bytes
    /// of a small value (every item index) fold into the multiply of the
    /// last nonzero byte, so a value below 256 costs one multiply.
    #[inline]
    pub fn update_u64(&mut self, value: u64) {
        let live = 8 - value.leading_zeros() as usize / 8;
        let Some(last) = live.checked_sub(1) else {
            self.state = self.state.wrapping_mul(FNV_PRIME_POW[8]);
            return;
        };
        let bytes = value.to_le_bytes();
        self.update(&bytes[..last]);
        self.state = (self.state ^ u64::from(bytes[last])).wrapping_mul(FNV_PRIME_POW[8 - last]);
    }

    /// The digest of everything fed so far. Non-consuming: the stream can
    /// keep accepting bytes afterwards, which is how per-row prefix
    /// digests are taken.
    #[inline]
    pub fn digest(&self) -> u64 {
        self.state
    }
}

impl Default for FnvStream {
    fn default() -> Self {
        FnvStream::new()
    }
}

// Event tags. Distinct, and every event's payload is either
// length-prefixed (symbols) or fixed-width (indices), so the encoding is
// prefix-free within a stream.
const TAG_SYMBOL: u8 = 0x53; // 'S'
const TAG_ITEM: u8 = 0x49; // 'I'
const TAG_ROW_END: u8 = 0x52; // 'R'

/// Canonical row-event fingerprint builder.
///
/// Callers replay the parse as a stream of events:
///
/// * [`push_symbol`](RowFingerprint::push_symbol) — a *new* symbol was
///   interned (an item name, an attribute header, a dictionary-coded cell
///   value on first appearance). Fed exactly once per symbol, in
///   first-appearance order, so files agree iff their dictionaries agree.
/// * [`push_item`](RowFingerprint::push_item) — one resolved index
///   (item, vertex, or cell code) in the current row.
/// * [`end_row`](RowFingerprint::end_row) — the current row (transaction,
///   edge, CSV record) is complete.
///
/// The digest after `end_row` number *k* is the fingerprint of the
/// k-row prefix — identical to fingerprinting a file containing only
/// those k rows.
#[derive(Clone, Debug, Default)]
pub struct RowFingerprint {
    stream: FnvStream,
    rows: u64,
}

impl RowFingerprint {
    /// A fresh builder.
    pub fn new() -> RowFingerprint {
        RowFingerprint::default()
    }

    /// Records the interning of a new symbol (length-prefixed, so symbol
    /// boundaries are unambiguous).
    #[inline]
    pub fn push_symbol(&mut self, symbol: &str) {
        self.stream.update(&[TAG_SYMBOL]);
        self.stream.update_u64(symbol.len() as u64);
        self.stream.update(symbol.as_bytes());
    }

    /// Records one resolved index in the current row. An index below
    /// 256 is the tag byte, its own byte and seven zero bytes: two
    /// multiplies in straight-line code.
    #[inline]
    pub fn push_item(&mut self, index: usize) {
        let h = (self.stream.state ^ u64::from(TAG_ITEM)).wrapping_mul(FNV_PRIME);
        if index < 256 {
            self.stream.state = (h ^ index as u64).wrapping_mul(FNV_PRIME_POW[8]);
        } else {
            self.stream.state = h;
            self.stream.update_u64(index as u64);
        }
    }

    /// Closes the current row.
    #[inline]
    pub fn end_row(&mut self) {
        self.stream.update(&[TAG_ROW_END]);
        self.rows += 1;
    }

    /// The digest of every event so far. Taken right after an
    /// [`end_row`](RowFingerprint::end_row), this is the prefix
    /// fingerprint at the current row count.
    #[inline]
    pub fn digest(&self) -> u64 {
        self.stream.digest()
    }

    /// Rows closed so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }
}

impl fmt::Display for RowFingerprint {
    /// The digest as the fixed-width hex used in protocol events.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.digest())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::fnv1a64;

    #[test]
    fn stream_matches_one_shot_fnv() {
        for input in [
            &b""[..],
            b"a",
            b"hello, world",
            b"\x00\xff\x7f",
            b"the quick brown fox jumps over the lazy dog",
        ] {
            let mut s = FnvStream::new();
            s.update(input);
            assert_eq!(s.digest(), fnv1a64(input), "input {input:?}");
        }
    }

    #[test]
    fn chunking_is_invisible() {
        let bytes = b"segmented vertical store";
        let mut whole = FnvStream::new();
        whole.update(bytes);
        for split in 0..=bytes.len() {
            let mut parts = FnvStream::new();
            parts.update(&bytes[..split]);
            parts.update(&bytes[split..]);
            assert_eq!(parts.digest(), whole.digest(), "split {split}");
        }
    }

    fn bytewise_u64(value: u64) -> u64 {
        let mut s = FnvStream::new();
        s.update(b"prefix");
        s.update(&value.to_le_bytes());
        s.digest()
    }

    fn folded_u64(value: u64) -> u64 {
        let mut s = FnvStream::new();
        s.update(b"prefix");
        s.update_u64(value);
        s.digest()
    }

    #[test]
    fn update_u64_edge_values_match_bytewise() {
        for value in [0, 1, 255, 256, 65_535, 1 << 32, u64::MAX >> 8, u64::MAX] {
            assert_eq!(folded_u64(value), bytewise_u64(value), "value {value:#x}");
        }
    }

    proptest::proptest! {
        /// Folding the high zero bytes into one multiply is exact: every
        /// width of value (the shift spreads the live byte count over 0..=8)
        /// hashes like its 8 little-endian bytes.
        #[test]
        fn update_u64_matches_bytewise(
            value in proptest::prelude::any::<u64>(),
            shift in 0u32..64,
        ) {
            let value = value >> shift;
            proptest::prop_assert_eq!(folded_u64(value), bytewise_u64(value));
        }
    }

    #[test]
    fn push_item_hashes_its_event_bytes() {
        for index in [0, 1, 0x49, 255, 256, 65_535, 1 << 40, usize::MAX] {
            let mut fp = RowFingerprint::new();
            fp.push_item(index);
            let mut bytes = vec![TAG_ITEM];
            bytes.extend_from_slice(&(index as u64).to_le_bytes());
            assert_eq!(fp.digest(), fnv1a64(&bytes), "index {index:#x}");
        }
    }

    /// Replays a (symbols-per-row, items-per-row) script.
    fn replay(rows: &[(&[&str], &[usize])]) -> RowFingerprint {
        let mut fp = RowFingerprint::new();
        for (symbols, items) in rows {
            for s in *symbols {
                fp.push_symbol(s);
            }
            for &i in *items {
                fp.push_item(i);
            }
            fp.end_row();
        }
        fp
    }

    #[test]
    fn identical_event_streams_hash_equal() {
        let a = replay(&[(&["milk", "bread"], &[0, 1]), (&[], &[1, 0])]);
        let b = replay(&[(&["milk", "bread"], &[0, 1]), (&[], &[1, 0])]);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.rows(), 2);
        assert_eq!(format!("{a}"), format!("{:016x}", b.digest()));
    }

    #[test]
    fn different_data_hashes_differ() {
        let base = replay(&[(&["a", "b"], &[0, 1])]);
        // Renamed symbol.
        let renamed = replay(&[(&["a", "c"], &[0, 1])]);
        // Different row content.
        let reordered = replay(&[(&["a", "b"], &[1, 0])]);
        // Extra row.
        let longer = replay(&[(&["a", "b"], &[0, 1]), (&[], &[0])]);
        assert_ne!(base.digest(), renamed.digest());
        assert_ne!(base.digest(), reordered.digest());
        assert_ne!(base.digest(), longer.digest());
    }

    #[test]
    fn symbol_boundaries_cannot_rebracket() {
        // Length-prefixing keeps {"ab"} and {"a","b"} apart even though
        // the concatenated bytes agree.
        let joined = replay(&[(&["ab"], &[0])]);
        let split = replay(&[(&["a", "b"], &[0])]);
        assert_ne!(joined.digest(), split.digest());
    }

    #[test]
    fn items_and_symbols_are_domain_separated() {
        // A symbol whose bytes spell an item-index encoding must not
        // collide with the index event itself.
        let mut as_symbol = RowFingerprint::new();
        as_symbol.push_symbol("\u{1}\0\0\0\0\0\0\0");
        as_symbol.end_row();
        let mut as_item = RowFingerprint::new();
        as_item.push_item(1);
        as_item.end_row();
        assert_ne!(as_symbol.digest(), as_item.digest());
    }

    #[test]
    fn prefix_digest_equals_prefix_input() {
        // The digest after k rows of the long stream equals the digest of
        // a stream containing only those k rows — the property the
        // appended-rows cache probe relies on.
        let rows: &[(&[&str], &[usize])] = &[
            (&["x", "y"], &[0, 1]),
            (&["z"], &[1, 2]),
            (&[], &[0, 2]),
            (&[], &[2]),
        ];
        let mut long = RowFingerprint::new();
        let mut prefix_digests = Vec::new();
        for (symbols, items) in rows {
            for s in *symbols {
                long.push_symbol(s);
            }
            for &i in *items {
                long.push_item(i);
            }
            long.end_row();
            prefix_digests.push(long.digest());
        }
        for k in 1..=rows.len() {
            let short = replay(&rows[..k]);
            assert_eq!(short.digest(), prefix_digests[k - 1], "prefix {k}");
            assert_eq!(short.rows(), k as u64);
        }
    }
}
