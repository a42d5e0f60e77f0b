//! Agree sets: the `Bd⁺` of the key-discovery theory, computed directly
//! from the data.
//!
//! `ag(t, u) = {A ∈ R : t[A] = u[A]}` for a row pair. A set `X` fails to
//! be a superkey iff `X ⊆ ag(t, u)` for some pair, so the maximal agree
//! sets are exactly the maximal non-superkeys — `MTh` of the key-discovery
//! instance, which the paper's Section 5 remark says can be read off the
//! database without `Is-interesting` queries.

use std::collections::HashSet;

use dualminer_bitset::AttrSet;
use dualminer_hypergraph::maximize_family;

use crate::Relation;

/// The agree set of one row pair.
pub fn agree_set(rel: &Relation, t: usize, u: usize) -> AttrSet {
    let n = rel.n_attrs();
    let (rt, ru) = (&rel.rows()[t], &rel.rows()[u]);
    AttrSet::from_indices(n, (0..n).filter(|&a| rt[a] == ru[a]))
}

/// All distinct pairwise agree sets (`O(rows² · n)`), card-lex sorted.
///
/// One word-parallel pass. For each anchor row `t`, the agree masks of
/// every later row `u` are built column by column: bit `a` of `u`'s mask
/// is set iff `col[a][u] == col[a][t]`, so the inner loop is a branch-free
/// compare over a contiguous column slice. A mask is `⌈n/64⌉` words,
/// stored word-major (word `w` of every row, then word `w+1`), so the same
/// loop serves every width. Masks are deduplicated on their words and an
/// [`AttrSet`] is built only for a set's first appearance. The result
/// equals deduplicating [`agree_set`] over all pairs.
pub fn agree_sets(rel: &Relation) -> Vec<AttrSet> {
    let (n, rows) = (rel.n_attrs(), rel.n_rows());
    let words = n.div_ceil(64);
    let cols: Vec<Vec<u32>> = (0..n)
        .map(|a| rel.rows().iter().map(|row| row[a]).collect())
        .collect();
    // masks[w * rows + u]: word `w` of row `u`'s mask against the anchor.
    let mut masks = vec![0u64; words * rows];
    let mut key = vec![0u64; words];
    let mut seen: HashSet<Vec<u64>> = HashSet::new();
    let mut out = Vec::new();
    for t in 0..rows {
        for word in masks.chunks_exact_mut(rows) {
            word[t + 1..].fill(0);
        }
        for (a, col) in cols.iter().enumerate() {
            let (anchor, shift) = (col[t], a % 64);
            let word = &mut masks[(a / 64) * rows..][..rows];
            for (m, &v) in word[t + 1..].iter_mut().zip(&col[t + 1..]) {
                *m |= u64::from(v == anchor) << shift;
            }
        }
        for u in t + 1..rows {
            for (w, k) in key.iter_mut().enumerate() {
                *k = masks[w * rows + u];
            }
            if seen.contains(key.as_slice()) {
                continue;
            }
            let mut ag = AttrSet::empty(n);
            for (w, &word) in key.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    ag.insert(w * 64 + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            }
            out.push(ag);
            seen.insert(key.clone());
        }
    }
    out.sort_unstable_by(|a, b| a.cmp_card_lex(b));
    out
}

/// The ⊆-maximal agree sets — `Bd⁺(Th)` of the key-discovery instance,
/// card-lex sorted.
pub fn maximal_agree_sets(rel: &Relation) -> Vec<AttrSet> {
    let mut m = maximize_family(agree_sets(rel));
    m.sort_by(|a, b| a.cmp_card_lex(b));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Relation {
        Relation::new(3, vec![vec![0, 0, 0], vec![0, 1, 1], vec![1, 1, 0]])
    }

    #[test]
    fn pairwise_agree_sets() {
        let r = toy();
        assert_eq!(agree_set(&r, 0, 1).to_vec(), vec![0]); // agree on A
        assert_eq!(agree_set(&r, 0, 2).to_vec(), vec![2]); // agree on C
        assert_eq!(agree_set(&r, 1, 2).to_vec(), vec![1]); // agree on B
    }

    #[test]
    fn all_and_maximal() {
        let r = toy();
        let all = agree_sets(&r);
        assert_eq!(all.len(), 3);
        assert_eq!(maximal_agree_sets(&r), all); // singletons, an antichain
    }

    #[test]
    fn agreement_characterizes_non_superkeys() {
        let r = toy();
        let max_ag = maximal_agree_sets(&r);
        for bits in 0..8usize {
            let x = AttrSet::from_indices(3, (0..3).filter(|i| bits >> i & 1 == 1));
            let non_superkey = max_ag.iter().any(|ag| x.is_subset(ag));
            assert_eq!(!r.is_superkey(&x), non_superkey, "{x:?}");
        }
    }

    #[test]
    fn identical_rows_agree_everywhere() {
        let r = Relation::new(2, vec![vec![1, 2], vec![1, 2]]);
        assert_eq!(agree_set(&r, 0, 1), AttrSet::full(2));
        // No superkey exists at all — even R is not a key.
        assert!(!r.is_superkey(&AttrSet::full(2)));
    }

    #[test]
    fn single_row_has_no_agree_sets() {
        let r = Relation::new(3, vec![vec![1, 2, 3]]);
        assert!(agree_sets(&r).is_empty());
        assert!(maximal_agree_sets(&r).is_empty());
    }
}
