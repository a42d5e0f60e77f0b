//! Set-trie benchmarks for the family-level operations PR 4 rewrote:
//! `minimize_family` on mixed-cardinality families (trie descent vs the
//! pre-PR-4 pairwise kept-prefix scan) and levelwise candidate
//! generation on a sparse large-universe level (today the extension-mask
//! join, under its historical `/trie` id, vs the try-every-extension
//! reference). Both baselines are the previous implementations copied
//! verbatim.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dualminer_bitset::candidates::CandidateBatch;
use dualminer_bitset::AttrSet;
use dualminer_hypergraph::minimize_family;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// The pre-PR-4 `minimize_family`: card-lex sort, then each candidate
/// scanned against the kept prefix of strictly smaller sets.
fn minimize_family_pairwise(mut sets: Vec<AttrSet>) -> Vec<AttrSet> {
    sets.sort_by(|a, b| a.cmp_card_lex(b));
    sets.dedup();
    let mut kept: Vec<AttrSet> = Vec::with_capacity(sets.len());
    let mut card = 0usize;
    let mut smaller_end = 0usize; // kept[..smaller_end] have len() < card
    'outer: for s in sets {
        if s.len() > card {
            card = s.len();
            smaller_end = kept.len();
        }
        for k in &kept[..smaller_end] {
            if k.is_subset(&s) {
                continue 'outer;
            }
        }
        kept.push(s);
    }
    kept
}

/// The pre-PR-4 candidate generator: every extension above the parent's
/// maximum, pruned by hashing each immediate subset against the level.
fn naive_units(n: usize, card: usize, level: &[Vec<usize>]) -> Vec<(usize, Vec<usize>)> {
    let members: HashSet<&[usize]> = level.iter().map(Vec::as_slice).collect();
    let mut units = Vec::new();
    for (pi, x) in level.iter().enumerate() {
        let lo = x.last().map_or(0, |&m| m + 1);
        'ext: for a in lo..n {
            let mut cand = x.clone();
            cand.push(a);
            if card >= 2 {
                let mut sub = Vec::with_capacity(card - 1);
                for drop in 0..cand.len() - 1 {
                    sub.clear();
                    sub.extend(
                        cand.iter()
                            .enumerate()
                            .filter_map(|(i, &v)| (i != drop).then_some(v)),
                    );
                    if !members.contains(sub.as_slice()) {
                        continue 'ext;
                    }
                }
            }
            units.push((pi, cand));
        }
    }
    units
}

/// A seeded family of `m` sets over `n = 512` attributes with mixed
/// cardinalities 2..8 — the regime where the pairwise scan degenerates
/// to its quadratic worst case: sparse sets over a wide universe rarely
/// contain one another, so nearly every kept-prefix comparison runs to
/// completion over the full 8-word bitset, while the trie's work is
/// proportional to set cardinality and independent of the universe.
fn mixed_family(m: usize) -> Vec<AttrSet> {
    const N: usize = 512;
    let mut rng = StdRng::seed_from_u64(0x5e77_21e0 ^ m as u64);
    (0..m)
        .map(|_| {
            let card = rng.gen_range(2..8usize);
            AttrSet::from_indices(N, (0..card).map(|_| rng.gen_range(0..N)))
        })
        .collect()
}

/// A sparse level of distinct ascending 3-sets over `n = 200`, lex
/// sorted — the shape `prefix_join_batch` sees when mining wide, sparse
/// databases, where trying all `n` extensions per parent is wasteful.
fn sparse_level(m: usize) -> (usize, Vec<Vec<usize>>) {
    const N: usize = 200;
    let mut rng = StdRng::seed_from_u64(0xca4d_1da7);
    let mut seen = HashSet::new();
    while seen.len() < m {
        let mut v: Vec<usize> = (0..3).map(|_| rng.gen_range(0..N)).collect();
        v.sort_unstable();
        v.dedup();
        if v.len() == 3 {
            seen.insert(v);
        }
    }
    let mut level: Vec<Vec<usize>> = seen.into_iter().collect();
    level.sort();
    (N, level)
}

fn bench_minimize_family(c: &mut Criterion) {
    let mut group = c.benchmark_group("settrie");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    for m in [250usize, 1000, 4000] {
        let family = mixed_family(m);
        assert_eq!(
            minimize_family(family.clone()),
            minimize_family_pairwise(family.clone()),
            "trie and pairwise minimization must agree before timing them"
        );
        group.bench_with_input(
            BenchmarkId::new("minimize_family/trie", m),
            &family,
            |b, family| b.iter(|| minimize_family(family.clone())),
        );
        group.bench_with_input(
            BenchmarkId::new("minimize_family/pairwise", m),
            &family,
            |b, family| b.iter(|| minimize_family_pairwise(family.clone())),
        );
    }
    group.finish();
}

fn bench_candidate_gen(c: &mut Criterion) {
    let mut group = c.benchmark_group("settrie");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    let (n, level) = sparse_level(2000);
    let flat = CandidateBatch::from_members(n, 3, level.iter().map(Vec::as_slice));
    let batch = flat.join();
    assert_eq!(
        (0..batch.len())
            .map(|i| (batch.pair(i).0, batch.cand(i).to_vec()))
            .collect::<Vec<_>>(),
        naive_units(n, 4, &level),
        "the mask join and naive generation must agree before timing them"
    );
    group.bench_with_input(
        BenchmarkId::new("candidate_gen/trie", level.len()),
        &flat,
        |b, flat| b.iter(|| flat.join()),
    );
    group.bench_with_input(
        BenchmarkId::new("candidate_gen/naive", level.len()),
        &level,
        |b, level| b.iter(|| naive_units(n, 4, level)),
    );
    group.finish();
}

criterion_group!(benches, bench_minimize_family, bench_candidate_gen);
criterion_main!(benches);
