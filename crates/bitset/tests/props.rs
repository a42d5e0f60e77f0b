//! Property-based tests for the `AttrSet` algebra: the Boolean-lattice laws
//! every downstream algorithm silently relies on.

use dualminer_bitset::{
    AttrSet, ImmediateSubsets, ImmediateSupersets, SetTrie, SubsetsOfSize, Universe,
};
use proptest::prelude::*;

const UNIVERSE: usize = 130; // spans three u64 blocks

fn arb_set() -> impl Strategy<Value = AttrSet> {
    proptest::collection::vec(0..UNIVERSE, 0..40).prop_map(|v| AttrSet::from_indices(UNIVERSE, v))
}

proptest! {
    #[test]
    fn union_commutes(a in arb_set(), b in arb_set()) {
        prop_assert_eq!(a.union(&b), b.union(&a));
    }

    #[test]
    fn intersection_commutes(a in arb_set(), b in arb_set()) {
        prop_assert_eq!(a.intersection(&b), b.intersection(&a));
    }

    #[test]
    fn union_associates(a in arb_set(), b in arb_set(), c in arb_set()) {
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
    }

    #[test]
    fn distributivity(a in arb_set(), b in arb_set(), c in arb_set()) {
        prop_assert_eq!(
            a.intersection(&b.union(&c)),
            a.intersection(&b).union(&a.intersection(&c))
        );
    }

    #[test]
    fn de_morgan(a in arb_set(), b in arb_set()) {
        prop_assert_eq!(
            a.union(&b).complement(),
            a.complement().intersection(&b.complement())
        );
    }

    #[test]
    fn double_complement(a in arb_set()) {
        prop_assert_eq!(a.complement().complement(), a);
    }

    #[test]
    fn difference_is_intersect_complement(a in arb_set(), b in arb_set()) {
        prop_assert_eq!(a.difference(&b), a.intersection(&b.complement()));
    }

    #[test]
    fn subset_iff_union_absorbs(a in arb_set(), b in arb_set()) {
        prop_assert_eq!(a.is_subset(&b), a.union(&b) == b);
    }

    #[test]
    fn intersects_iff_nonempty_intersection(a in arb_set(), b in arb_set()) {
        prop_assert_eq!(a.intersects(&b), !a.intersection(&b).is_empty());
        prop_assert_eq!(a.intersection_len(&b), a.intersection(&b).len());
    }

    #[test]
    fn len_inclusion_exclusion(a in arb_set(), b in arb_set()) {
        prop_assert_eq!(
            a.union(&b).len() + a.intersection(&b).len(),
            a.len() + b.len()
        );
    }

    #[test]
    fn iter_ascending_and_consistent(a in arb_set()) {
        let v = a.to_vec();
        prop_assert_eq!(v.len(), a.len());
        prop_assert!(v.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(AttrSet::from_indices(UNIVERSE, v), a);
    }

    #[test]
    fn immediate_neighbours(a in arb_set()) {
        for sub in ImmediateSubsets::new(&a) {
            prop_assert!(sub.is_proper_subset(&a));
            prop_assert_eq!(sub.len() + 1, a.len());
        }
        for sup in ImmediateSupersets::new(&a) {
            prop_assert!(sup.is_proper_superset(&a));
            prop_assert_eq!(sup.len(), a.len() + 1);
        }
        prop_assert_eq!(ImmediateSubsets::new(&a).count(), a.len());
        prop_assert_eq!(
            ImmediateSupersets::new(&a).count(),
            UNIVERSE - a.len()
        );
    }

    #[test]
    fn display_parse_round_trip(a in arb_set()) {
        let u = Universe::letters(UNIVERSE);
        let text = u.display(&a);
        if a.is_empty() {
            prop_assert_eq!(text, "∅");
        } else {
            // Multi-char names past index 25 force the comma-separated form.
            prop_assert_eq!(u.parse(&text).unwrap(), a);
        }
    }

    #[test]
    fn subsets_of_size_sound(k in 0usize..4) {
        // On a small universe, enumerate and cross-check with a filter.
        let n = 7;
        let listed: Vec<AttrSet> = SubsetsOfSize::new(n, k).collect();
        prop_assert!(listed.iter().all(|s| s.len() == k));
        let mut uniq = listed.clone();
        uniq.sort();
        uniq.dedup();
        prop_assert_eq!(uniq.len(), listed.len());
    }

    #[test]
    fn ord_total_and_eq_consistent(a in arb_set(), b in arb_set()) {
        use std::cmp::Ordering;
        match a.cmp(&b) {
            Ordering::Equal => prop_assert_eq!(&a, &b),
            Ordering::Less => prop_assert_eq!(b.cmp(&a), Ordering::Greater),
            Ordering::Greater => prop_assert_eq!(b.cmp(&a), Ordering::Less),
        }
    }
}

/// Universe sizes straddling the inline/heap boundary ([`INLINE_BITS`] =
/// 128): both inline variants, the exact boundary, and spilled sizes.
const SIZES: [usize; 5] = [64, 127, 128, 129, 200];

/// Three index pools plus a universe size chosen from [`SIZES`]; indices
/// are folded into the universe by `% n`.
fn arb_sized_triple() -> impl Strategy<Value = (usize, Vec<usize>, Vec<usize>, Vec<usize>)> {
    let pool = || proptest::collection::vec(0usize..200, 0..40);
    (0usize..SIZES.len(), pool(), pool(), pool()).prop_map(|(i, a, b, c)| (SIZES[i], a, b, c))
}

fn fold(n: usize, raw: &[usize]) -> AttrSet {
    AttrSet::from_indices(n, raw.iter().map(|i| i % n))
}

proptest! {
    /// The non-materializing counting kernels answer exactly what the
    /// materialized set algebra answers, on both sides of the inline/heap
    /// boundary.
    #[test]
    fn counting_kernels_equal_materialized((n, ra, rb, rc) in arb_sized_triple()) {
        let a = fold(n, &ra);
        let b = fold(n, &rb);
        let c = fold(n, &rc);
        prop_assert_eq!(a.is_inline(), n <= dualminer_bitset::INLINE_BITS);

        prop_assert_eq!(a.intersection_len(&b), a.intersection(&b).len());
        prop_assert_eq!(
            a.intersection_len_with(&b, &c),
            a.intersection(&b).intersection(&c).len()
        );
        prop_assert_eq!(a.is_disjoint(&b), a.intersection(&b).is_empty());
        prop_assert_eq!(a.is_disjoint(&b), !a.intersects(&b));

        let mut fused = a.clone();
        let len = fused.intersect_with_returning_len(&b);
        let reference = a.intersection(&b);
        prop_assert_eq!(len, reference.len());
        prop_assert_eq!(fused, reference);
    }

    /// The same logical sets built over an inline universe (≤ 128 bits) and
    /// a spilled one behave identically: same members, same algebra, same
    /// orderings, equal cross-universe cmp_lex.
    #[test]
    fn inline_and_spilled_agree((n, ra, rb, _) in arb_sized_triple()) {
        const SPILLED: usize = 500;
        let small_a = fold(n, &ra);
        let small_b = fold(n, &rb);
        let big_a = AttrSet::from_indices(SPILLED, small_a.iter());
        let big_b = AttrSet::from_indices(SPILLED, small_b.iter());
        prop_assert!(!big_a.is_inline());

        prop_assert_eq!(
            small_a.union(&small_b).to_vec(),
            big_a.union(&big_b).to_vec()
        );
        prop_assert_eq!(
            small_a.intersection(&small_b).to_vec(),
            big_a.intersection(&big_b).to_vec()
        );
        prop_assert_eq!(
            small_a.difference(&small_b).to_vec(),
            big_a.difference(&big_b).to_vec()
        );
        prop_assert_eq!(
            small_a.symmetric_difference(&small_b).to_vec(),
            big_a.symmetric_difference(&big_b).to_vec()
        );
        prop_assert_eq!(small_a.is_subset(&small_b), big_a.is_subset(&big_b));
        prop_assert_eq!(small_a.intersects(&small_b), big_a.intersects(&big_b));
        prop_assert_eq!(
            small_a.intersection_len(&small_b),
            big_a.intersection_len(&big_b)
        );
        prop_assert_eq!(small_a.len(), big_a.len());
        prop_assert_eq!(small_a.first(), big_a.first());

        // Orderings agree between representations; cmp_lex also works
        // *across* them (it never required equal universes).
        prop_assert_eq!(
            small_a.cmp_lex(&small_b),
            big_a.cmp_lex(&big_b)
        );
        prop_assert_eq!(
            small_a.cmp_card_lex(&small_b),
            big_a.cmp_card_lex(&big_b)
        );
        prop_assert_eq!(small_a.cmp_lex(&big_a), std::cmp::Ordering::Equal);
        prop_assert_eq!(small_a.cmp_lex(&big_b), big_a.cmp_lex(&small_b));
    }
}

/// A universe size from [`SIZES`], a family of index pools, and three
/// query pools — the raw material for the set-trie reference checks.
fn arb_sized_family() -> impl Strategy<Value = (usize, Vec<Vec<usize>>, Vec<Vec<usize>>)> {
    let pool = || proptest::collection::vec(0usize..200, 0..12);
    (
        0usize..SIZES.len(),
        proptest::collection::vec(pool(), 0..20),
        proptest::collection::vec(pool(), 3),
    )
        .prop_map(|(i, fam, qs)| (SIZES[i], fam, qs))
}

proptest! {
    /// Every [`SetTrie`] query answers exactly what the naive pairwise
    /// scan over the family answers, on both sides of the inline/heap
    /// `AttrSet` boundary. Family members double as queries so the
    /// equal-set edge cases (`contains` vs `has_subset_of` vs
    /// `has_proper_superset_of`) are always exercised.
    #[test]
    fn set_trie_matches_naive_reference((n, fam, qs) in arb_sized_family()) {
        let family: Vec<AttrSet> = fam.iter().map(|p| fold(n, p)).collect();
        let mut trie = SetTrie::new();
        for s in &family {
            trie.insert(s);
        }
        let mut distinct = family.clone();
        distinct.sort_by(|a, b| a.cmp_lex(b));
        distinct.dedup();
        prop_assert_eq!(trie.len(), distinct.len());

        let queries: Vec<AttrSet> =
            qs.iter().map(|p| fold(n, p)).chain(family.iter().cloned()).collect();
        for q in &queries {
            prop_assert_eq!(trie.contains(q), family.contains(q));
            prop_assert_eq!(
                trie.has_subset_of(q),
                family.iter().any(|s| s.is_subset(q)),
                "has_subset_of {:?}", q
            );
            prop_assert_eq!(
                trie.has_superset_of(q),
                family.iter().any(|s| q.is_subset(s)),
                "has_superset_of {:?}", q
            );
            prop_assert_eq!(
                trie.has_proper_superset_of(q),
                family.iter().any(|s| q.is_proper_subset(s)),
                "has_proper_superset_of {:?}", q
            );
        }
    }
}
