//! Public block-level kernels for vertical stores.
//!
//! The vertical store (`dualminer-mining`'s `vstore`) keeps per-item
//! tidsets and per-node diffsets as bare `u64` runs, *outside* any
//! [`crate::AttrSet`] — the runs of all items are packed item-major into
//! one arena. These kernels are the inner loops of its AND/ANDNOT +
//! popcount passes: same-length slices in, count (and optionally the
//! materialized result) out, no allocation, no branching beyond the block
//! loop.
//!
//! [`crate::AttrSet`]'s spilled arms use [`and_len`] and [`and3_len`] for
//! their intersection popcounts; its other block kernels in `ops.rs` stay
//! `pub(crate)`, and this module is the deliberately small *public*
//! slice-level surface the store builds on. All functions assume `a.len() == b.len()` (and
//! `out.len() == a.len()` for the materializing variants) — the store
//! guarantees this because every run has the same block count — and
//! `debug_assert!` it.

/// Popcount of a block run.
#[inline]
pub fn popcount(a: &[u64]) -> usize {
    a.iter().map(|w| w.count_ones() as usize).sum()
}

/// `|a ∩ b|` without materializing the intersection.
#[inline]
pub fn and_len(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

/// `|a ∩ b ∩ c|` without materializing anything — the three-way
/// popcount the arity-3 support fast path is made of.
#[inline]
pub fn and3_len(a: &[u64], b: &[u64], c: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), c.len());
    a.iter()
        .zip(b)
        .zip(c)
        .map(|((x, y), z)| (x & y & z).count_ones() as usize)
        .sum()
}

/// `|a ∩ b ∩ c ∩ d|` without materializing anything.
#[inline]
pub fn and4_len(a: &[u64], b: &[u64], c: &[u64], d: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), c.len());
    debug_assert_eq!(a.len(), d.len());
    a.iter()
        .zip(b)
        .zip(c.iter().zip(d))
        .map(|((x, y), (z, w))| (x & y & z & w).count_ones() as usize)
        .sum()
}

/// `|a \ b|` without materializing the difference.
#[inline]
pub fn andnot_len(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & !y).count_ones() as usize)
        .sum()
}

/// Writes `a ∩ b` into `out` and returns its popcount — the fused
/// count-and-materialize pass for tidset children.
#[inline]
pub fn and_into(a: &[u64], b: &[u64], out: &mut [u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    let mut count = 0usize;
    for ((x, y), o) in a.iter().zip(b).zip(out.iter_mut()) {
        let w = x & y;
        *o = w;
        count += w.count_ones() as usize;
    }
    count
}

/// Writes `a \ b` into `out` and returns its popcount — the fused pass
/// for diffset children (`diff(parent, child)` is an ANDNOT either of two
/// tidsets or of two sibling diffsets).
#[inline]
pub fn andnot_into(a: &[u64], b: &[u64], out: &mut [u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    let mut count = 0usize;
    for ((x, y), o) in a.iter().zip(b).zip(out.iter_mut()) {
        let w = x & !y;
        *o = w;
        count += w.count_ones() as usize;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(bits: &[usize], blocks: usize) -> Vec<u64> {
        let mut v = vec![0u64; blocks];
        for &b in bits {
            v[b / 64] |= 1u64 << (b % 64);
        }
        v
    }

    #[test]
    fn count_kernels_agree_with_set_semantics() {
        let a = words(&[0, 3, 64, 65, 190], 3);
        let b = words(&[3, 64, 100, 191], 3);
        assert_eq!(popcount(&a), 5);
        assert_eq!(and_len(&a, &b), 2); // {3, 64}
        assert_eq!(andnot_len(&a, &b), 3); // {0, 65, 190}
        assert_eq!(andnot_len(&b, &a), 2); // {100, 191}
    }

    #[test]
    fn fused_kernels_match_count_only() {
        let a = words(&[1, 2, 63, 64, 127, 128], 3);
        let b = words(&[2, 64, 128, 129], 3);
        let mut out = vec![0u64; 3];
        assert_eq!(and_into(&a, &b, &mut out), and_len(&a, &b));
        assert_eq!(popcount(&out), and_len(&a, &b));
        assert_eq!(andnot_into(&a, &b, &mut out), andnot_len(&a, &b));
        assert_eq!(popcount(&out), andnot_len(&a, &b));
    }

    #[test]
    fn empty_runs() {
        assert_eq!(popcount(&[]), 0);
        assert_eq!(and_len(&[], &[]), 0);
        assert_eq!(andnot_len(&[], &[]), 0);
    }
}
