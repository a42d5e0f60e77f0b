//! Prefix-join candidate generation — the database-free prune step of
//! Algorithm 9, shared by every level-wise walk over a subset lattice:
//! `dualminer-core`'s levelwise walk (with Apriori as one of its
//! evaluators) and the Corollary 15 transversal walk of
//! `dualminer-hypergraph`.
//!
//! The naive formulation tries all `n` single-item extensions of every
//! level member and rejects an extension unless *each* of its immediate
//! subsets is a member — `O(n)` attempts per member, each rebuilding and
//! hashing `O(card)` dropped-element slices. The classical refinement
//! (Agrawal–Srikant's `apriori-gen`) observes that one of those immediate
//! subsets — the candidate minus its second-largest element — is itself a
//! level member sharing the candidate's `(card − 2)`-prefix. So instead of
//! guessing extensions, **join** the level with itself on common prefixes:
//! members with equal `(card − 2)`-prefix form a contiguous run of the
//! (lex-sorted) level, and every surviving candidate is `run[i] ∪
//! {last(run[j])}` for some `i < j` within one run.
//!
//! The remaining `card − 2` prefix-dropping subset checks are answered by
//! **sorted-run merging**, not a trie: the members whose `(card −
//! 2)`-prefix equals the candidate's `p`-drop target form another
//! contiguous run of the level (two binary searches per parent locate it),
//! and within a parent the partner's last items ascend — so one monotone
//! cursor per drop position resolves every extension of the parent by a
//! linear merge. No per-level trie build, no per-candidate allocation, and
//! the matched cursor positions are exactly the level indices of the
//! candidate's immediate subsets — which the walk's maximal-family
//! marking wants anyway ([`CandidateBatch::drop_subsets`]).
//!
//! **The emitted sequence is bit-identical to the naive generator's**:
//! parents in level order, extensions by ascending item, pruned by the
//! same all-immediate-subsets condition. (Within a run, `j > i` ranges
//! exactly over the members `x[..card−2] + [a]` with `a > last(x)`, in
//! ascending `a` — the extensions of `x = run[i]` that pass the
//! second-largest-drop check; an empty drop-target run kills every
//! extension of the parent at once, the same verdict the naive generator
//! reaches one extension at a time.) Theorem 10's query accounting —
//! every theory and negative-border sentence evaluated exactly once, in
//! the documented order — therefore holds verbatim.

/// One level's candidates in flat stride-indexed storage: no
/// per-candidate `Vec`, and every candidate carries the level indices of
/// **all** its immediate subsets — parent, join partner, and the `card −
/// 2` prefix-dropping subsets the prune step located anyway.
///
/// Candidate `i` is `cand(i)` (ascending item indices, stride
/// [`card`](Self::card)); its generator indices are
/// [`pair(i)`](Self::pair) and its remaining immediate-subset level
/// indices are [`drop_subsets(i)`](Self::drop_subsets) (stride `card −
/// 2`, empty below cardinality 3). Order is the documented sequential
/// evaluation order.
#[derive(Debug, Default)]
pub struct CandidateBatch {
    card: usize,
    len: usize,
    /// Flat candidate item indices, stride `card`.
    indices: Vec<usize>,
    /// `(parent, partner)` level indices per candidate.
    pairs: Vec<(u32, u32)>,
    /// Level indices of the prefix-dropping immediate subsets, stride
    /// `card − 2` (empty storage for cards ≤ 2).
    subs: Vec<u32>,
}

impl CandidateBatch {
    /// Cardinality of the generated candidates.
    pub fn card(&self) -> usize {
        self.card
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Candidate `i` as its ascending item-index slice.
    #[inline]
    pub fn cand(&self, i: usize) -> &[usize] {
        &self.indices[i * self.card..(i + 1) * self.card]
    }

    /// `(parent, partner)` level indices of candidate `i`.
    #[inline]
    pub fn pair(&self, i: usize) -> (usize, usize) {
        let (p, q) = self.pairs[i];
        (p as usize, q as usize)
    }

    /// The per-candidate `(parent, partner)` slice — one entry per
    /// candidate, in candidate order. Exposed so batch consumers can
    /// drive slice-splitting parallel combinators over the candidates.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }

    /// Level indices of candidate `i`'s prefix-dropping immediate subsets
    /// (the ones that are neither the parent nor the join partner):
    /// position `p` of the slice is the level index of the candidate
    /// minus its `p`-th item. Empty below cardinality 3.
    #[inline]
    pub fn drop_subsets(&self, i: usize) -> &[u32] {
        let stride = self.card.saturating_sub(2);
        &self.subs[i * stride..(i + 1) * stride]
    }
}

/// Generates the level-`card` candidates by prefix join, in the exact
/// order the sequential algorithms evaluate them: parents in level order,
/// extensions by ascending item, pruned unless every immediate subset is
/// a level member.
///
/// `level` holds the previous level's members as ascending index vectors
/// (each of cardinality `card − 1`), in ascending lex order; `key`
/// projects a level entry to its index vector, letting the walk pass its
/// `(indices, tidset)` entries without copying.
pub fn prefix_join_batch<T, F>(n: usize, card: usize, level: &[T], key: F) -> CandidateBatch
where
    F: Fn(&T) -> &[usize],
{
    debug_assert!(level.iter().all(|x| key(x).len() + 1 == card));
    debug_assert!(level.windows(2).all(|w| key(&w[0]) < key(&w[1])));

    let sub_stride = card.saturating_sub(2);
    let mut batch = CandidateBatch {
        card,
        ..CandidateBatch::default()
    };
    if card == 1 {
        // Level 0 is the single parent ∅; every singleton is a candidate
        // (an empty-prefix "join" cannot produce them).
        if !level.is_empty() {
            debug_assert_eq!(level.len(), 1);
            batch.indices.extend(0..n);
            batch.pairs.resize(n, (0, 0));
            batch.len = n;
        }
        return batch;
    }
    assert!(
        u32::try_from(level.len()).is_ok(),
        "level size exceeds the u32 index space of CandidateBatch"
    );

    // Flatten the level's keys into one contiguous stride-w array: the
    // binary searches and cursor merges below then touch a single dense
    // buffer instead of pointer-chasing per-member vectors.
    let w = card - 1;
    let mut flat: Vec<usize> = Vec::with_capacity(level.len() * w);
    for x in level {
        flat.extend_from_slice(key(x));
    }
    let kf = |i: usize| -> &[usize] { &flat[i * w..(i + 1) * w] };
    // First index in [lo, hi) whose (card−2)-prefix is not `Less` than
    // (`strict`) / is `Greater` than (`!strict`) the target.
    let bound = |mut lo: usize, mut hi: usize, t: &[usize], strict: bool| -> usize {
        use std::cmp::Ordering::*;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let below = match flat[mid * w..mid * w + t.len()].cmp(t) {
                Less => true,
                Equal => !strict,
                Greater => false,
            };
            if below {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    };

    // Scratch reused across parents: the p-drop target prefix, the
    // per-drop cursor/end bounds of its run in the level, and the
    // per-drop search floor. The floor exploits a second monotonicity:
    // within an outer run the target `x minus x[p]` ends with `last(x)`,
    // which strictly increases with the parent — so each drop's target
    // run begins at or after the previous parent's, and the binary
    // searches narrow to the remaining tail of the level.
    let mut target: Vec<usize> = vec![0; sub_stride];
    let mut cur: Vec<usize> = vec![0; sub_stride];
    let mut end: Vec<usize> = vec![0; sub_stride];
    let mut floor: Vec<usize> = vec![0; sub_stride];

    let mut run_start = 0usize;
    while run_start < level.len() {
        // The run of members sharing level[run_start]'s (card−2)-prefix —
        // contiguous because the level is sorted.
        let mut run_end = run_start + 1;
        while run_end < level.len()
            && flat[run_end * w..run_end * w + w - 1] == flat[run_start * w..run_start * w + w - 1]
        {
            run_end += 1;
        }

        floor[..].fill(0);
        'parent: for i in run_start..run_end {
            if i + 1 == run_end {
                // No join partner shares this parent's prefix — on
                // sparse levels most runs are singletons, so skipping
                // the drop-run searches here is the common case.
                continue;
            }
            let x = kf(i);
            // Locate, for each prefix position p, the contiguous run of
            // members whose (card−2)-prefix is x minus x[p] — the run
            // that must contain the p-drop subset of every extension of
            // x. An empty run means *no* extension of x survives the
            // p-drop check: skip the parent outright.
            for p in 0..sub_stride {
                target[..p].copy_from_slice(&x[..p]);
                target[p..].copy_from_slice(&x[p + 1..w]);
                let lo = bound(floor[p], level.len(), &target, true);
                let hi = bound(lo, level.len(), &target, false);
                floor[p] = hi;
                if lo == hi {
                    continue 'parent;
                }
                cur[p] = lo;
                end[p] = hi;
            }
            // Partners' last items ascend with j, and each drop run's
            // last items ascend with its index: one monotone cursor per
            // drop position merges the two sequences.
            'partner: for j in i + 1..run_end {
                let a = flat[j * w + w - 1];
                for p in 0..sub_stride {
                    while cur[p] < end[p] && flat[cur[p] * w + w - 1] < a {
                        cur[p] += 1;
                    }
                    if cur[p] == end[p] {
                        // Drop run exhausted: this and every later
                        // (larger) extension fails the p-drop check.
                        continue 'parent;
                    }
                    if flat[cur[p] * w + w - 1] != a {
                        continue 'partner;
                    }
                }
                batch.indices.extend_from_slice(x);
                batch.indices.push(a);
                batch.pairs.push((i as u32, j as u32));
                batch.subs.extend(cur.iter().map(|&m| m as u32));
                batch.len += 1;
            }
        }
        run_start = run_end;
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The naive generator: every single-item extension of every member,
    /// kept iff all immediate subsets are members.
    fn naive(n: usize, card: usize, level: &[Vec<usize>]) -> Vec<Vec<usize>> {
        if card == 1 {
            return if level.is_empty() {
                vec![]
            } else {
                (0..n).map(|a| vec![a]).collect()
            };
        }
        let mut out = Vec::new();
        for x in level {
            for a in x.last().map_or(0, |l| l + 1)..n {
                let mut cand = x.clone();
                cand.push(a);
                let all_subsets_present = (0..card).all(|p| {
                    let mut sub = cand.clone();
                    sub.remove(p);
                    level.binary_search(&sub).is_ok()
                });
                if all_subsets_present {
                    out.push(cand);
                }
            }
        }
        out
    }

    /// A pseudo-random downward-closed-ish level: arbitrary sorted
    /// (card−1)-subsets of `0..n`, deduplicated and sorted. (The
    /// generator does not require downward closure of lower levels —
    /// only lex order — so arbitrary families are valid inputs.)
    fn random_level(seed: u64, n: usize, card: usize, count: usize) -> Vec<Vec<usize>> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut level: Vec<Vec<usize>> = (0..count)
            .map(|_| {
                let mut s: Vec<usize> = (0..card - 1).map(|_| next() % n).collect();
                s.sort_unstable();
                s.dedup();
                while s.len() < card - 1 {
                    let mut v = next() % n;
                    while s.contains(&v) {
                        v = (v + 1) % n;
                    }
                    s.push(v);
                    s.sort_unstable();
                }
                s
            })
            .collect();
        level.sort();
        level.dedup();
        level
    }

    #[test]
    fn batch_matches_naive_generator() {
        for seed in 0..6u64 {
            for (n, card, count) in [(8, 2, 6), (10, 3, 20), (12, 4, 40), (9, 5, 30)] {
                let level = random_level(seed, n, card, count);
                let batch = prefix_join_batch(n, card, &level, |v| v.as_slice());
                let got: Vec<Vec<usize>> =
                    (0..batch.len()).map(|i| batch.cand(i).to_vec()).collect();
                assert_eq!(got, naive(n, card, &level), "seed={seed} n={n} card={card}");
            }
        }
    }

    #[test]
    fn batch_indices_identify_all_immediate_subsets() {
        for seed in 0..6u64 {
            for (n, card, count) in [(10, 3, 25), (12, 4, 40), (9, 5, 30)] {
                let level = random_level(seed, n, card, count);
                let batch = prefix_join_batch(n, card, &level, |v| v.as_slice());
                for i in 0..batch.len() {
                    let cand = batch.cand(i);
                    let (p, q) = batch.pair(i);
                    assert_eq!(level[p].as_slice(), &cand[..card - 1], "parent");
                    assert_eq!(
                        level[q][..card - 2],
                        cand[..card - 2],
                        "partner shares the prefix"
                    );
                    assert_eq!(level[q][card - 2], cand[card - 1], "partner's last");
                    let subs = batch.drop_subsets(i);
                    assert_eq!(subs.len(), card - 2);
                    for (d, &m) in subs.iter().enumerate() {
                        let mut expect = cand.to_vec();
                        expect.remove(d);
                        assert_eq!(level[m as usize], expect, "drop-{d} subset");
                    }
                }
            }
        }
    }

    #[test]
    fn singleton_level() {
        let batch = prefix_join_batch(5, 1, &[Vec::<usize>::new()], |v| v.as_slice());
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.card(), 1);
        for a in 0..5 {
            assert_eq!(batch.cand(a), &[a]);
            assert_eq!(batch.pair(a), (0, 0));
            assert!(batch.drop_subsets(a).is_empty());
        }
        let empty = prefix_join_batch(5, 1, &[] as &[Vec<usize>], |v| v.as_slice());
        assert!(empty.is_empty());
    }
}
