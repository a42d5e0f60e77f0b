//! Berge's sequential-multiplication algorithm for `Tr(H)`.
//!
//! The classical baseline (Berge, *Hypergraphs*, 1973 — reference \[4\] of the
//! paper): process edges one at a time, maintaining the minimal transversals
//! of the prefix. For a new edge `E`, a minimal transversal `T` of the
//! prefix either already hits `E` (kept as-is) or must be extended by one
//! vertex of `E` (all extensions generated, then the family re-minimized).
//!
//! The intermediate families can be exponentially larger than both input
//! and output — the paper's Example 19 is exactly such an instance and is
//! regenerated by experiment E6 — which is why the paper turns to
//! Fredman–Khachiyan for its Theorem 21/Corollary 22 bounds. On instances
//! with small borders, however, Berge is hard to beat, and the planner
//! picks it for few-edge and matching-like inputs. Each step consumes the
//! previous family, so the engine runs on the calling thread.

use dualminer_bitset::{AttrSet, SetTrie};
use dualminer_obs::{Meter, NoopObserver, Outcome, RunCtl};

use crate::{minimize_family, Hypergraph, TrAlgorithm};

/// The order in which Berge multiplication consumes edges — correctness
/// is order-independent, but intermediate family sizes (and thus running
/// time) are not. The DESIGN.md §5 ablation; `htr_edge_order` benches it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EdgeOrder {
    /// Largest edges first (the default): big edges are hit by more
    /// existing transversals, so fewer extensions are generated early.
    #[default]
    LargestFirst,
    /// Smallest edges first.
    SmallestFirst,
    /// The hypergraph's stored (card-lex) order.
    AsStored,
}

/// Computes the minimal-transversal hypergraph `Tr(H)` by sequential
/// multiplication with the default largest-first edge order.
///
/// `Tr` of the empty hypergraph is `{∅}`; if `H` has an empty edge nothing
/// can hit it and the result has no edges.
pub fn transversals(h: &Hypergraph) -> Hypergraph {
    crate::transversals_with(h, TrAlgorithm::Berge)
}

/// [`transversals`] with an explicit edge-processing order.
pub fn transversals_with_order(h: &Hypergraph, order: EdgeOrder) -> Hypergraph {
    let meter = Meter::unlimited();
    run(&h.minimized(), order, &RunCtl::new(&meter, &NoopObserver)).expect_complete()
}

/// The Berge engine over a minimized hypergraph `hm`, on the calling
/// thread: each step consumes the previous family, so the family after
/// every step (and hence the result, budgeted or not) is the same at
/// every thread count.
///
/// The budget is polled before each edge-multiplication step (the unit
/// of progress in Berge's algorithm). Per step, one oracle query is
/// recorded per classified transversal of the current family and one
/// transversal event per *newly created* minimal transversal, so
/// `max_transversals` bounds the cumulative intermediate blowup — the
/// failure mode of the paper's Example 19. On a trip the partial result
/// is `Tr` of the *processed edge prefix* (in the chosen order): a
/// complete minimal-transversal family of a sub-hypergraph, not a subset
/// of `Tr(H)`.
pub(crate) fn run(hm: &Hypergraph, order: EdgeOrder, ctl: &RunCtl<'_>) -> Outcome<Hypergraph> {
    debug_assert!(hm.is_minimized());
    let n = hm.universe_size();
    if hm.edges().iter().any(|e| e.is_empty()) {
        return Outcome::Complete(Hypergraph::empty(n));
    }

    let mut edges: Vec<&AttrSet> = hm.edges().iter().collect();
    match order {
        EdgeOrder::LargestFirst => edges.sort_by_key(|e| std::cmp::Reverse(e.len())),
        EdgeOrder::SmallestFirst => edges.sort_by_key(|e| e.len()),
        EdgeOrder::AsStored => {}
    }

    let mut tr: Vec<AttrSet> = vec![AttrSet::empty(n)];
    ctl.meter.record_transversal();
    ctl.observer.on_transversals(1);
    for edge in edges {
        if let Some(reason) = ctl.meter.exceeded() {
            return Outcome::BudgetExceeded {
                partial: Hypergraph::from_edges(n, tr).expect("transversals stay in universe"),
                reason,
            };
        }
        ctl.meter.record_queries(tr.len() as u64);
        ctl.observer.on_nodes(tr.len() as u64);
        let mut next: Vec<AttrSet> = Vec::with_capacity(tr.len());
        let mut extended: Vec<AttrSet> = Vec::new();
        // Kept transversals move into the next family without cloning.
        for t in tr {
            if t.intersects(edge) {
                next.push(t);
            } else {
                for v in edge {
                    let mut ext = t.clone();
                    ext.insert(v);
                    extended.push(ext);
                }
            }
        }
        // Kept transversals are already a minimal antichain among
        // themselves; only the extensions need checking against everything.
        if !extended.is_empty() {
            extended = minimize_family(extended);
            // Strip extensions dominated by a kept transversal. The trie
            // turns the pairwise scan into one pruned subset query per
            // extension; below the crossover the scan's smaller constant
            // wins (both orders keep the exact same sets).
            if extended.len() * next.len() <= 2048 {
                extended.retain(|x| !next.iter().any(|k| k.is_subset(x)));
            } else {
                let mut kept_trie = SetTrie::new();
                for k in &next {
                    kept_trie.insert(k);
                }
                extended.retain(|x| !kept_trie.has_subset_of(x));
            }
            ctl.meter.record_transversals(extended.len() as u64);
            ctl.observer.on_transversals(extended.len() as u64);
            next.extend(extended);
        }
        tr = next;
    }

    Outcome::Complete(Hypergraph::from_edges(n, tr).expect("transversals stay in universe"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::is_minimal_transversal;

    #[test]
    fn empty_hypergraph() {
        let tr = transversals(&Hypergraph::empty(4));
        assert_eq!(tr.len(), 1);
        assert!(tr.edges()[0].is_empty());
    }

    #[test]
    fn empty_edge_kills_all() {
        let h = Hypergraph::from_index_edges(3, [Vec::<usize>::new(), vec![0]]);
        assert!(transversals(&h).is_empty());
    }

    #[test]
    fn single_edge() {
        let h = Hypergraph::from_index_edges(4, [vec![1, 3]]);
        let tr = transversals(&h);
        assert_eq!(tr, Hypergraph::from_index_edges(4, [vec![1], vec![3]]));
    }

    #[test]
    fn paper_example_8() {
        // Tr({D, AC}) = {AD, CD}.
        let h = Hypergraph::from_index_edges(4, [vec![3], vec![0, 2]]);
        let tr = transversals(&h);
        assert_eq!(
            tr,
            Hypergraph::from_index_edges(4, [vec![0, 3], vec![2, 3]])
        );
    }

    #[test]
    fn triangle_is_self_dual() {
        let h = Hypergraph::from_index_edges(3, [vec![0, 1], vec![1, 2], vec![0, 2]]);
        assert_eq!(transversals(&h), h);
    }

    #[test]
    fn matching_blows_up() {
        // Example 19 shape: {01, 23, 45} → 2^3 = 8 transversals.
        let h = Hypergraph::from_index_edges(6, [vec![0, 1], vec![2, 3], vec![4, 5]]);
        let tr = transversals(&h);
        assert_eq!(tr.len(), 8);
        assert!(tr.edges().iter().all(|t| t.len() == 3));
        assert!(tr.edges().iter().all(|t| is_minimal_transversal(&h, t)));
    }

    #[test]
    fn involution_on_small_simple_graph() {
        let h = Hypergraph::from_index_edges(5, [vec![0, 1, 2], vec![2, 3], vec![1, 4]]);
        let hm = h.minimized();
        assert_eq!(transversals(&transversals(&hm)), hm);
    }

    #[test]
    fn all_edge_orders_agree() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..25 {
            let n = rng.gen_range(3..9);
            let m = rng.gen_range(0..7);
            let edges: Vec<Vec<usize>> = (0..m)
                .map(|_| {
                    let k = rng.gen_range(1..=n.min(4));
                    (0..k).map(|_| rng.gen_range(0..n)).collect()
                })
                .collect();
            let h = Hypergraph::from_index_edges(n, edges);
            let reference = transversals_with_order(&h, EdgeOrder::LargestFirst);
            for order in [EdgeOrder::SmallestFirst, EdgeOrder::AsStored] {
                assert_eq!(
                    transversals_with_order(&h, order),
                    reference,
                    "{h:?} {order:?}"
                );
            }
        }
    }

    fn berge_at(h: &Hypergraph, threads: usize) -> Hypergraph {
        let meter = Meter::unlimited();
        let ctl = RunCtl::new(&meter, &NoopObserver);
        crate::plan::dualize_ctl_report(h, TrAlgorithm::Berge, threads, &ctl)
            .0
            .expect_complete()
    }

    #[test]
    fn constants_and_blowup_at_any_thread_count() {
        let tr = berge_at(&Hypergraph::empty(4), 4);
        assert_eq!(tr.len(), 1);
        let falsum = Hypergraph::from_index_edges(3, [Vec::<usize>::new(), vec![0]]);
        assert!(berge_at(&falsum, 4).is_empty());
        let h = Hypergraph::from_index_edges(6, [vec![0, 1], vec![2, 3], vec![4, 5]]);
        assert_eq!(berge_at(&h, 3), transversals(&h));
    }

    #[test]
    fn non_simple_input_minimized_first() {
        let nested = Hypergraph::from_index_edges(4, [vec![0], vec![0, 1]]);
        let simple = Hypergraph::from_index_edges(4, [vec![0]]);
        assert_eq!(transversals(&nested), transversals(&simple));
    }
}
