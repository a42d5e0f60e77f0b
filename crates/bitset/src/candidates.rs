//! Candidate generation by extension masks — the database-free prune
//! step of Algorithm 9, shared by `dualminer-core`'s levelwise walk (with
//! Apriori as one of its evaluators) and the Corollary 15 transversal
//! walk of `dualminer-hypergraph`.
//!
//! A level is one [`CandidateBatch`]: its members' items in one
//! stride-`card` array, lex-sorted, and beside them the indices of every
//! member's immediate subsets in the level below. The walk keeps the
//! members that passed evaluation ([`CandidateBatch::retain`]) and joins
//! them into the next level's candidates ([`CandidateBatch::join`]).
//!
//! **The join.** A candidate is `x ∪ {a}` for a member `x` and an item
//! `a > last(x)`; its immediate subsets are `x` (the parent), the member
//! with `x`'s `(card − 2)`-prefix and last item `a` (the join partner),
//! and for each `p < card − 2` the member with prefix `x ∖ x[p]` and last
//! item `a`. Members sharing a prefix form a contiguous *run*, and each
//! run gets an **extension mask**, its members' last items in machine
//! words (one `u64` while `n ≤ 64`; above that only the words between its
//! first and last member's items). A parent's extensions are one AND of
//! its own run's mask above `last(x)` with its drop-target runs' masks,
//! and a subset's level index is its run's start plus a popcount. The
//! runs need no search: a run's prefix and every drop target `x ∖ x[p]`
//! are subsets of `x` whose level-below indices the join that produced
//! `x` recorded, so runs are the groups of equal parent and one array
//! over the level below maps a target to its run. A level no join
//! produced ([`CandidateBatch::from_members`]) numbers its prefixes with
//! one binary search per member and position instead.
//!
//! **The emitted sequence is bit-identical to the naive generator's**:
//! parents in level order, extensions by ascending item, pruned by the
//! same all-immediate-subsets condition. Theorem 10's query accounting —
//! every theory and negative-border sentence evaluated exactly once, in
//! the documented order — therefore holds verbatim.

/// No run: a drop target with no members in the level.
const NONE: u32 = u32::MAX;

/// One level of a walk, or the candidates of the next one, in flat
/// stride-indexed storage. Member `i` is `cand(i)`; the level indices of
/// its immediate subsets in the level it was joined from are
/// [`pair(i)`](Self::pair) — the parent and the join partner — and
/// [`drop_subsets(i)`](Self::drop_subsets). Order is the documented
/// sequential evaluation order.
#[derive(Debug, Default)]
pub struct CandidateBatch {
    n: usize,
    card: usize,
    len: usize,
    /// Length of the level below: the range of `subs`.
    below: usize,
    /// Flat member item indices, stride `card`.
    indices: Vec<usize>,
    /// Stride `card`: entry `q` of member `i` is the level-below index of
    /// `cand(i)` minus its `q`-th item (drop subsets, partner, parent); in
    /// a level built by `from_members`, the number of that prefix's run,
    /// or `NONE`.
    subs: Vec<u32>,
}

impl CandidateBatch {
    /// A level of `card`-sets over `n` items, given as ascending index
    /// slices in ascending lex order — a level no join produced (`{∅}` is
    /// `card = 0` with one empty member).
    pub fn from_members<'a>(
        n: usize,
        card: usize,
        members: impl IntoIterator<Item = &'a [usize]>,
    ) -> CandidateBatch {
        let mut level = CandidateBatch {
            n,
            card,
            ..CandidateBatch::default()
        };
        for x in members {
            debug_assert_eq!(x.len(), card);
            level.indices.extend_from_slice(x);
            level.len += 1;
        }
        debug_assert!((1..level.len).all(|i| level.cand(i - 1) < level.cand(i)));
        if card == 0 {
            return level;
        }
        let prefix = |i: usize| &level.indices[i * card..(i + 1) * card - 1];
        let firsts: Vec<usize> = (0..level.len)
            .filter(|&i| i == 0 || prefix(i) != prefix(i - 1))
            .collect();
        // Entry q of member i: the run whose prefix is cand(i) minus item q.
        level.subs = (0..level.len * card)
            .map(|j| {
                let (x, q) = (level.cand(j / card), j % card);
                let target = x[..q].iter().chain(&x[q + 1..]);
                let found = firsts.binary_search_by(|&f| prefix(f).iter().cmp(target.clone()));
                found.map_or(NONE, |r| r as u32)
            })
            .collect();
        level.below = firsts.len();
        level
    }

    /// Cardinality of the members.
    pub fn card(&self) -> usize {
        self.card
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Member `i` as its ascending item-index slice.
    #[inline]
    pub fn cand(&self, i: usize) -> &[usize] {
        &self.indices[i * self.card..(i + 1) * self.card]
    }

    /// `(parent, partner)` level indices of candidate `i`: the candidate
    /// minus its largest, and minus its second-largest item (both the
    /// root `0` for a singleton).
    #[inline]
    pub fn pair(&self, i: usize) -> (usize, usize) {
        let (c, s) = (self.card, &self.subs[i * self.card..]);
        (s[c - 1] as usize, s[c.saturating_sub(2)] as usize)
    }

    /// Level indices of candidate `i`'s other immediate subsets: position
    /// `p` is the level index of the candidate minus its `p`-th item.
    /// Empty below cardinality 3.
    #[inline]
    pub fn drop_subsets(&self, i: usize) -> &[u32] {
        &self.subs[i * self.card..][..self.card.saturating_sub(2)]
    }

    /// Keeps the members `keep` accepts, in order — the walk's next level.
    pub fn retain(&mut self, keep: impl Fn(usize) -> bool) {
        let c = self.card;
        let mut kept = 0;
        for i in 0..self.len {
            if keep(i) {
                self.indices.copy_within(i * c..(i + 1) * c, kept * c);
                self.subs.copy_within(i * c..(i + 1) * c, kept * c);
                kept += 1;
            }
        }
        self.len = kept;
        self.indices.truncate(kept * c);
        self.subs.truncate(kept * c);
    }

    /// The next level's candidates, in the exact order the sequential
    /// algorithms evaluate them: parents in level order, extensions by
    /// ascending item, pruned unless every immediate subset is a member
    /// of this level.
    pub fn join(&self) -> CandidateBatch {
        let w = self.card;
        let mut out = CandidateBatch {
            n: self.n,
            card: w + 1,
            below: self.len,
            ..CandidateBatch::default()
        };
        if w == 0 {
            // {∅} joins to every singleton, with ∅ (index 0) its only subset.
            out.len = if self.is_empty() { 0 } else { self.n };
            out.indices.extend(0..out.len);
            out.subs.resize(out.len, 0);
            return out;
        }
        assert!(
            u32::try_from(self.len).is_ok(),
            "level size exceeds the u32 index space of CandidateBatch"
        );
        let last = |i: usize| self.indices[i * w + w - 1];
        let parent = |i: usize| self.subs[i * w + w - 1] as usize;

        // Runs: the groups of members with equal parent, i.e. equal
        // (card−2)-prefix. `run_of` maps a level-below index to its run.
        let mut starts: Vec<usize> = Vec::new();
        let mut run_of = vec![NONE; self.below];
        for i in 0..self.len {
            if i == 0 || parent(i) != parent(i - 1) {
                run_of[parent(i)] = starts.len() as u32;
                starts.push(i);
            }
        }
        starts.push(self.len);
        // Run r's mask is `words[off[r]..off[r + 1]]`, word `lo[r]` first:
        // the words from its first to its last member's last item.
        let runs = starts.len() - 1;
        let lo: Vec<usize> = (0..runs).map(|r| last(starts[r]) / 64).collect();
        let mut off = vec![0];
        let mut words = Vec::new();
        for r in 0..runs {
            words.resize(off[r] + last(starts[r + 1] - 1) / 64 + 1 - lo[r], 0u64);
            off.push(words.len());
            for i in starts[r]..starts[r + 1] {
                words[off[r] + last(i) / 64 - lo[r]] |= 1 << (last(i) % 64);
            }
        }
        let word = |r: usize, k: usize| match k.checked_sub(lo[r]) {
            Some(d) if d < off[r + 1] - off[r] => words[off[r] + d],
            _ => 0,
        };
        // The level index of run r's member with last item a.
        let member = |r: usize, a: usize| {
            let mask = &words[off[r]..=off[r] + a / 64 - lo[r]];
            let (&top, below) = mask.split_last().expect("a is in run r");
            let rank = below.iter().map(|m| m.count_ones()).sum::<u32>()
                + (top & ((1u64 << (a % 64)) - 1)).count_ones();
            (starts[r] + rank as usize) as u32
        };

        let mut targets: Vec<usize> = vec![0; w - 1];
        for r in 0..runs {
            // A run's last member has no partner: on sparse levels most
            // runs are singletons, so they cost nothing.
            'parent: for i in starts[r]..starts[r + 1] - 1 {
                for (p, t) in targets.iter_mut().enumerate() {
                    match run_of.get(self.subs[i * w + p] as usize) {
                        Some(&run) if run != NONE => *t = run as usize,
                        _ => continue 'parent,
                    }
                }
                let l = last(i);
                for k in l / 64..off[r + 1] - off[r] + lo[r] {
                    let mut ext = word(r, k);
                    if k == l / 64 {
                        ext &= !(2u64 << (l % 64)).wrapping_sub(1);
                    }
                    for &t in &targets {
                        ext &= word(t, k);
                    }
                    while ext != 0 {
                        let a = k * 64 + ext.trailing_zeros() as usize;
                        ext &= ext - 1;
                        out.indices.extend_from_slice(self.cand(i));
                        out.indices.push(a);
                        out.subs.extend(targets.iter().map(|&t| member(t, a)));
                        out.subs.push(member(r, a));
                        out.subs.push(i as u32);
                        out.len += 1;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The old batch layout: flat candidates, `(parent, partner)` pairs
    /// and the drop subsets at stride `card − 2`.
    #[derive(Debug, Default)]
    pub(crate) struct RefBatch {
        card: usize,
        len: usize,
        indices: Vec<usize>,
        pairs: Vec<(u32, u32)>,
        subs: Vec<u32>,
    }

    impl RefBatch {
        fn cand(&self, i: usize) -> &[usize] {
            &self.indices[i * self.card..(i + 1) * self.card]
        }

        fn pair(&self, i: usize) -> (usize, usize) {
            let (p, q) = self.pairs[i];
            (p as usize, q as usize)
        }

        fn drop_subsets(&self, i: usize) -> &[u32] {
            let stride = self.card.saturating_sub(2);
            &self.subs[i * stride..(i + 1) * stride]
        }
    }

    /// The sorted-run-merge generator the mask join replaced, kept verbatim
    /// as the reference (its output is the old batch layout, [`RefBatch`]):
    /// generates the level-`card` candidates by prefix join, in the exact
    /// order the sequential algorithms evaluate them: parents in level order,
    /// extensions by ascending item, pruned unless every immediate subset is
    /// a level member.
    ///
    /// `level` holds the previous level's members as ascending index vectors
    /// (each of cardinality `card − 1`), in ascending lex order; `key`
    /// projects a level entry to its index vector, letting the walk pass its
    /// `(indices, tidset)` entries without copying.
    pub(crate) fn prefix_join_batch<T, F>(n: usize, card: usize, level: &[T], key: F) -> RefBatch
    where
        F: Fn(&T) -> &[usize],
    {
        debug_assert!(level.iter().all(|x| key(x).len() + 1 == card));
        debug_assert!(level.windows(2).all(|w| key(&w[0]) < key(&w[1])));

        let sub_stride = card.saturating_sub(2);
        let mut batch = RefBatch {
            card,
            ..RefBatch::default()
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
                && flat[run_end * w..run_end * w + w - 1]
                    == flat[run_start * w..run_start * w + w - 1]
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

    /// The candidates of the level after `level` (members of cardinality
    /// `card − 1`), by the mask join.
    fn join(n: usize, card: usize, level: &[Vec<usize>]) -> CandidateBatch {
        CandidateBatch::from_members(n, card - 1, level.iter().map(Vec::as_slice)).join()
    }

    /// A pseudo-random number stream.
    fn lcg(seed: u64) -> impl FnMut() -> usize {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        }
    }

    /// A pseudo-random downward-closed-ish level: arbitrary sorted
    /// (card−1)-subsets of `0..n`, deduplicated and sorted. (The
    /// generator does not require downward closure of lower levels —
    /// only lex order — so arbitrary families are valid inputs.)
    fn random_level(seed: u64, n: usize, card: usize, count: usize) -> Vec<Vec<usize>> {
        let mut next = lcg(seed);
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

    /// Every `w`-subset of `items` (ascending), each kept with
    /// probability 7/8: many multi-member runs, with items spread over
    /// the whole universe so masks cross word boundaries.
    fn dense_level(seed: u64, n: usize, card: usize) -> Vec<Vec<usize>> {
        let mut next = lcg(seed);
        let w = card - 1;
        let mut items: Vec<usize> = (0..9).map(|_| next() % n).collect();
        items.sort_unstable();
        items.dedup();
        let mut level = Vec::new();
        for mask in 0u32..1 << items.len() {
            if mask.count_ones() as usize == w && next() % 8 != 0 {
                level.push(
                    (0..items.len())
                        .filter(|b| mask >> b & 1 == 1)
                        .map(|b| items[b])
                        .collect(),
                );
            }
        }
        level.sort();
        level
    }

    /// One run: a fixed low prefix of `card − 2` items and random last
    /// items above it.
    fn single_run_level(seed: u64, n: usize, card: usize) -> Vec<Vec<usize>> {
        let mut next = lcg(seed);
        let w = card - 1;
        let prefix: Vec<usize> = (0..w.saturating_sub(1)).collect();
        let mut lasts: Vec<usize> = (0..40)
            .map(|_| prefix.len() + next() % (n - prefix.len()))
            .collect();
        lasts.sort_unstable();
        lasts.dedup();
        if w == 0 {
            return vec![vec![]];
        }
        lasts
            .into_iter()
            .map(|a| prefix.iter().copied().chain([a]).collect())
            .collect()
    }

    /// `batch` equals the reference generator's output on `level`:
    /// candidates, pairs, drop subsets and order.
    fn assert_matches_reference(
        n: usize,
        card: usize,
        level: &[Vec<usize>],
        batch: &CandidateBatch,
    ) {
        let reference = prefix_join_batch(n, card, level, Vec::as_slice);
        assert_eq!(batch.card(), card);
        assert_eq!(batch.len(), reference.len, "n={n} card={card}");
        for i in 0..batch.len() {
            let ctx = format!("n={n} card={card} candidate {i}");
            assert_eq!(batch.cand(i), reference.cand(i), "{ctx}");
            assert_eq!(batch.pair(i), reference.pair(i), "{ctx}");
            assert_eq!(batch.drop_subsets(i), reference.drop_subsets(i), "{ctx}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The mask join against the sorted-run-merge reference, on
        /// levels read back by `from_members` and on levels a join
        /// produced and `retain` thinned (the lookup-free run finding),
        /// at universe sizes on both sides of one and two words.
        #[test]
        fn mask_join_matches_reference(
            seed in any::<u64>(),
            ni in 0..7usize,
            card in 1..7usize,
            shape in 0..3usize,
        ) {
            let n = [63, 64, 65, 127, 128, 129, 200][ni];
            let level = match (shape, card) {
                (_, 1) => vec![vec![]],
                (0, _) => random_level(seed, n, card, 60),
                (1, _) => dense_level(seed, n, card),
                _ => single_run_level(seed, n, card),
            };
            let batch = join(n, card, &level);
            assert_matches_reference(n, card, &level, &batch);
            // Keep a pseudo-random part of the candidates and join again
            // from the batch's own subset indices.
            let mut next = lcg(seed ^ 0x5eed);
            let keep: Vec<bool> = (0..batch.len()).map(|_| next() % 4 != 0).collect();
            let mut kept = batch;
            kept.retain(|i| keep[i]);
            let members: Vec<Vec<usize>> = (0..kept.len()).map(|i| kept.cand(i).to_vec()).collect();
            if card < n {
                assert_matches_reference(n, card + 1, &members, &kept.join());
            }
        }
    }

    #[test]
    fn batch_matches_naive_generator() {
        for seed in 0..6u64 {
            for (n, card, count) in [(8, 2, 6), (10, 3, 20), (12, 4, 40), (9, 5, 30)] {
                let level = random_level(seed, n, card, count);
                let batch = join(n, card, &level);
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
                let batch = join(n, card, &level);
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
        let batch = CandidateBatch::from_members(5, 0, [&[][..]]).join();
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.card(), 1);
        for a in 0..5 {
            assert_eq!(batch.cand(a), &[a]);
            assert_eq!(batch.pair(a), (0, 0));
            assert!(batch.drop_subsets(a).is_empty());
        }
        let empty = CandidateBatch::from_members(5, 0, []).join();
        assert!(empty.is_empty());
    }
}
