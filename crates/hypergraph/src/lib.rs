//! # dualminer-hypergraph
//!
//! Simple hypergraphs and minimal-transversal (hypergraph dualization)
//! algorithms — the combinatorial engine behind the PODS 1997 paper
//! *"Data mining, Hypergraph Transversals, and Machine Learning"*.
//!
//! A collection `H` of subsets of a vertex set `R` is a **simple
//! hypergraph** if no edge is empty and no edge contains another (the
//! paper's Section 3 definition). A **transversal** (hitting set) of `H` is
//! a set `T ⊆ R` intersecting every edge; `Tr(H)` denotes the hypergraph of
//! *minimal* transversals. Computing `Tr(H)` is the **HTR problem**
//! (Problem 5), whose exact complexity is open; the best known bound is the
//! quasi-polynomial algorithm of Fredman and Khachiyan (1996), which the
//! paper's Corollaries 22 and 29 rely on.
//!
//! This crate implements, from scratch:
//!
//! * [`Hypergraph`] — the edge-set type with simplicity/minimization.
//! * [`berge::transversals`] — Berge's sequential-multiplication baseline.
//! * [`fk::duality_witness`] — the Fredman–Khachiyan recursive duality
//!   check (algorithm A), returning a witness assignment when the input
//!   pair is not dual.
//! * [`joint_gen::transversals`] — incremental enumeration of `Tr(H)` by
//!   repeated duality checks (one new minimal transversal per check), the
//!   `T(I, i)`-incremental subroutine Theorem 21 asks for.
//! * [`levelwise_tr::transversals_large_edges`] — the paper's **new**
//!   polynomial special case (Corollary 15): when every edge has size at
//!   least `n − k` with `k = O(log n)`, the levelwise algorithm computes
//!   `Tr(H)` in input-polynomial time.
//! * [`mu_mmcs::transversals`] — MMCS depth-first enumeration with the
//!   Murakami–Uno refinements: incremental critical-vertex bitsets, degree
//!   ordering, and edge pruning (the dense-instance workhorse, and the
//!   modern baseline the 1997-era machinery is measured against).
//! * [`egm::transversals`] — Eiter–Gottlob–Makino-style decomposition:
//!   split on a high-degree vertex, recombine via [`minimize_family`].
//! * [`dualize`] — the planner entry point ([`plan`]): picks a backend
//!   from the instance's shape; `--algo auto` on the CLI. It, together
//!   with [`transversals_with`] and each backend's `transversals`, is a
//!   thin call into one dispatcher, [`plan::dualize_ctl_report`] (threads,
//!   budget, observer), which minimizes the input once and hands `min(H)`
//!   to the engine.
//! * [`verify_dual`] — independent duality verification (Gottlob's
//!   quadratic-logspace self-reduction), the cross-check oracle for all
//!   of the above.
//! * [`naive::transversals`] — exponential brute force, used as the test
//!   referee.
//! * [`generators`] — random and adversarial instances, including the
//!   Example 19 matching whose transversal hypergraph has `2^{n/2}` edges.
//!
//! # Example
//!
//! ```
//! use dualminer_bitset::Universe;
//! use dualminer_hypergraph::{berge, Hypergraph};
//!
//! // Example 8 of the paper: H(S) = {D, AC} over R = {A,B,C,D}.
//! let u = Universe::letters(4);
//! let h = Hypergraph::from_edges(4, vec![
//!     u.parse("D").unwrap(),
//!     u.parse("AC").unwrap(),
//! ]).unwrap();
//! let tr = berge::transversals(&h);
//! assert_eq!(u.display_family(tr.edges()), "{AD, CD}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod berge;
pub mod egm;
pub mod fk;
pub mod generators;
mod graph;
pub mod joint_gen;
pub mod levelwise_tr;
pub mod mu_mmcs;
pub mod naive;
pub mod oracle;
pub mod plan;
pub mod verify;

pub use graph::{EdgeError, Hypergraph};
pub use plan::dualize;
pub use verify::verify_dual;

use dualminer_bitset::{AttrSet, SetTrie};

/// The transversal-computation strategies offered by this crate, so callers
/// (notably Dualize-and-Advance in `dualminer-core`) can select a subroutine
/// at run time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum TrAlgorithm {
    /// Planner-selected backend ([`plan::plan`]): inspects the instance's
    /// shape and picks whichever concrete strategy below is expected to
    /// win. The CLI default.
    #[default]
    Auto,
    /// Berge sequential multiplication — simple, exact, exponential in the
    /// worst case but very fast on small borders.
    Berge,
    /// Fredman–Khachiyan joint generation — quasi-polynomial incremental
    /// enumeration (the subroutine behind the paper's Corollary 22).
    FkJointGeneration,
    /// The paper's Corollary 15 levelwise special case — input-polynomial
    /// when all edges have size ≥ n − O(log n); falls back to the planner
    /// choice when the precondition does not hold.
    LevelwiseLargeEdges,
    /// MU-MMCS: MMCS depth-first branch-and-bound (Murakami–Uno) with
    /// critical-vertex bookkeeping on edge-index bitsets, degree vertex
    /// ordering, and edge pruning.
    MuMmcs,
    /// EGM-style decomposition: split on a high-degree vertex, solve the
    /// two sub-instances, recombine via [`minimize_family`].
    Egm,
}

/// Computes `Tr(H)` with the chosen strategy, sequentially and without a
/// budget; [`plan::dualize_ctl_report`] is the same dispatcher with a
/// thread count, a budget, and an observer.
///
/// All strategies return the same minimal-transversal hypergraph; they
/// differ only in running time.
pub fn transversals_with(h: &Hypergraph, algo: TrAlgorithm) -> Hypergraph {
    let meter = dualminer_obs::Meter::unlimited();
    let ctl = dualminer_obs::RunCtl::new(&meter, &dualminer_obs::NoopObserver);
    plan::dualize_ctl_report(h, algo, 1, &ctl)
        .0
        .expect_complete()
}

/// Removes non-minimal sets from a family: returns the ⊆-minimal antichain.
///
/// Trie-backed: after the card-lex sort and dedup, a set is kept iff the
/// [`SetTrie`] of *strictly smaller* kept sets holds no subset of it (two
/// distinct sets of equal cardinality cannot contain one another, so
/// same-card siblings never need checking — they are flushed into the trie
/// only when a larger cardinality begins). Each `has_subset_of` is a
/// pruned depth-first search that only descends edges labelled by the
/// query's own members, so minimization is near-linear in family size
/// instead of the pairwise `O(m²)` scan — the Example 19 blowup inside
/// Berge's per-edge re-minimization. A family concentrated on a single
/// cardinality (matching transversals, Berge extension batches) never
/// touches the trie at all.
pub fn minimize_family(mut sets: Vec<AttrSet>) -> Vec<AttrSet> {
    sets.sort_by(|a, b| a.cmp_card_lex(b));
    sets.dedup();
    let mut trie = SetTrie::new();
    let mut kept: Vec<AttrSet> = Vec::with_capacity(sets.len());
    let mut card = 0usize;
    let mut flushed = 0usize; // kept[..flushed] are in the trie
    for s in sets {
        if s.len() > card {
            card = s.len();
            for k in &kept[flushed..] {
                trie.insert(k);
            }
            flushed = kept.len();
        }
        if !trie.has_subset_of(&s) {
            kept.push(s);
        }
    }
    kept
}

/// Removes non-maximal sets from a family: returns the ⊆-maximal antichain.
///
/// Mirror of [`minimize_family`]: descending cardinality, each candidate
/// checked via `has_superset_of` against the trie of strictly larger kept
/// sets.
pub fn maximize_family(mut sets: Vec<AttrSet>) -> Vec<AttrSet> {
    sets.sort_by(|a, b| b.cmp_card_lex(a));
    sets.dedup();
    let mut trie = SetTrie::new();
    let mut kept: Vec<AttrSet> = Vec::with_capacity(sets.len());
    let mut card = usize::MAX;
    let mut flushed = 0usize; // kept[..flushed] are in the trie
    for s in sets {
        if s.len() < card {
            card = s.len();
            for k in &kept[flushed..] {
                trie.insert(k);
            }
            flushed = kept.len();
        }
        if !trie.has_superset_of(&s) {
            kept.push(s);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimize_family_keeps_antichain() {
        let n = 5;
        let sets = vec![
            AttrSet::from_indices(n, [0, 1]),
            AttrSet::from_indices(n, [0, 1, 2]),
            AttrSet::from_indices(n, [3]),
            AttrSet::from_indices(n, [3, 4]),
            AttrSet::from_indices(n, [0, 1]),
        ];
        let min = minimize_family(sets);
        assert_eq!(
            min,
            vec![
                AttrSet::from_indices(n, [3]),
                AttrSet::from_indices(n, [0, 1]),
            ]
        );
    }

    #[test]
    fn maximize_family_keeps_antichain() {
        let n = 5;
        let sets = vec![
            AttrSet::from_indices(n, [0, 1]),
            AttrSet::from_indices(n, [0, 1, 2]),
            AttrSet::from_indices(n, [3]),
            AttrSet::from_indices(n, [3, 4]),
        ];
        let max = maximize_family(sets);
        assert_eq!(max.len(), 2);
        assert!(max.contains(&AttrSet::from_indices(n, [0, 1, 2])));
        assert!(max.contains(&AttrSet::from_indices(n, [3, 4])));
    }

    #[test]
    fn minimize_family_empty_set_dominates() {
        let n = 3;
        let min = minimize_family(vec![AttrSet::from_indices(n, [0]), AttrSet::empty(n)]);
        assert_eq!(min, vec![AttrSet::empty(n)]);
    }

    #[test]
    fn families_of_one() {
        let n = 4;
        let s = vec![AttrSet::from_indices(n, [1, 2])];
        assert_eq!(minimize_family(s.clone()), s);
        assert_eq!(maximize_family(s.clone()), s);
        assert!(minimize_family(vec![]).is_empty());
        assert!(maximize_family(vec![]).is_empty());
    }
}
