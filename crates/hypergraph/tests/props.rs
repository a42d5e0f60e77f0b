//! Property tests: the transversal algorithms agree with brute force,
//! and the classical dualization identities hold.

use dualminer_bitset::AttrSet;
use dualminer_hypergraph::oracle::{is_minimal_transversal, is_transversal};
use dualminer_hypergraph::{
    berge, fk, joint_gen, levelwise_tr, mu_mmcs, naive, plan, Hypergraph, TrAlgorithm,
};
use dualminer_obs::{Meter, NoopObserver, RunCtl};
use proptest::prelude::*;

const N: usize = 8;

/// `Tr(H)` through the dispatcher with `algo` on `threads` workers.
fn tr_threads(h: &Hypergraph, algo: TrAlgorithm, threads: usize) -> Hypergraph {
    let meter = Meter::unlimited();
    let ctl = RunCtl::new(&meter, &NoopObserver);
    plan::dualize_ctl_report(h, algo, threads, &ctl)
        .0
        .expect_complete()
}

fn arb_hypergraph() -> impl Strategy<Value = Hypergraph> {
    proptest::collection::vec(proptest::collection::vec(0..N, 1..5), 0..7)
        .prop_map(|edges| Hypergraph::from_index_edges(N, edges))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn all_algorithms_agree_with_brute_force(h in arb_hypergraph()) {
        let reference = naive::transversals(&h);
        prop_assert_eq!(berge::transversals(&h), reference.clone());
        prop_assert_eq!(joint_gen::transversals(&h), reference.clone());
        prop_assert_eq!(levelwise_tr::transversals_large_edges(&h), reference.clone());
        prop_assert_eq!(mu_mmcs::transversals(&h), reference);
    }

    #[test]
    fn parallel_algorithms_are_bit_identical(h in arb_hypergraph()) {
        // The work-stealing scheduler's determinism contract: output is
        // bit-identical to sequential at every thread count.
        let seq_mu = mu_mmcs::transversals(&h);
        let seq_berge = berge::transversals(&h);
        let seq_joint = joint_gen::transversals(&h);
        for threads in [1usize, 2, 4, 8] {
            prop_assert_eq!(
                tr_threads(&h, TrAlgorithm::MuMmcs, threads), seq_mu.clone(),
                "mu-mmcs, threads={}", threads
            );
            prop_assert_eq!(
                tr_threads(&h, TrAlgorithm::Berge, threads), seq_berge.clone(),
                "berge, threads={}", threads
            );
            prop_assert_eq!(
                tr_threads(&h, TrAlgorithm::FkJointGeneration, threads), seq_joint.clone(),
                "joint_gen, threads={}", threads
            );
        }
    }

    #[test]
    fn parallel_fk_agrees(h in arb_hypergraph()) {
        let hm = h.minimized();
        let tr = berge::transversals(&hm);
        let broken = (tr.len() >= 2).then(|| {
            let mut edges = tr.edges().to_vec();
            edges.pop();
            Hypergraph::from_edges(N, edges).unwrap()
        });
        for threads in [1usize, 2, 4, 8] {
            prop_assert!(
                fk::duality_witness_counted_par(&hm, &tr, threads).0.is_none(),
                "threads={}", threads
            );
            if let Some(broken) = &broken {
                prop_assert_eq!(
                    fk::duality_witness_counted_par(&hm, broken, threads).0,
                    fk::duality_witness(&hm, broken),
                    "threads={}", threads
                );
            }
        }
    }

    #[test]
    fn parallel_fk_stats_sequential_equivalent_on_non_dual(h in arb_hypergraph()) {
        // DESIGN §6 determinism invariant: on non-dual inputs the parallel
        // FK check must report the same witness AND the same call counters
        // as the sequential short-circuiting check, for every thread count.
        let hm = h.minimized();
        let tr = berge::transversals(&hm);
        if tr.len() >= 2 {
            let mut edges = tr.edges().to_vec();
            edges.pop();
            let broken = Hypergraph::from_edges(N, edges).unwrap();
            let (w_seq, s_seq) = fk::duality_witness_counted_par(&hm, &broken, 1);
            prop_assert!(w_seq.is_some(), "strict sub-family of Tr cannot be dual");
            for threads in [1usize, 2, 4, 8] {
                let (w_par, s_par) = fk::duality_witness_counted_par(&hm, &broken, threads);
                prop_assert_eq!(w_seq.clone(), w_par, "witness, threads={}", threads);
                prop_assert_eq!(s_seq, s_par, "stats, threads={}", threads);
            }
        }
    }

    #[test]
    fn outputs_are_minimal_transversals(h in arb_hypergraph()) {
        let tr = berge::transversals(&h);
        prop_assert!(tr.is_simple() || tr.is_empty() || tr.edges() == [AttrSet::empty(N)]);
        for t in tr.edges() {
            prop_assert!(is_transversal(&h, t));
            prop_assert!(is_minimal_transversal(&h.minimized(), t));
        }
    }

    #[test]
    fn transversal_involution(h in arb_hypergraph()) {
        // Tr(Tr(H)) = min(H) for hypergraphs without an empty edge;
        // with one, Tr(H) = ∅ and Tr(∅) = {∅} = min(H) as well since
        // minimization keeps only the empty edge.
        let hm = h.minimized();
        let tr2 = berge::transversals(&berge::transversals(&hm));
        prop_assert_eq!(tr2, hm);
    }

    #[test]
    fn fk_accepts_true_duals(h in arb_hypergraph()) {
        let hm = h.minimized();
        let tr = berge::transversals(&hm);
        prop_assert!(fk::are_dual(&hm, &tr));
        prop_assert!(fk::are_dual(&tr, &hm));
    }

    #[test]
    fn fk_rejects_perturbed_duals_with_valid_witness(h in arb_hypergraph()) {
        let hm = h.minimized();
        let tr = berge::transversals(&hm);
        if tr.len() >= 2 {
            let mut edges = tr.edges().to_vec();
            edges.pop();
            let broken = Hypergraph::from_edges(N, edges).unwrap();
            let w = fk::duality_witness(&hm, &broken);
            let w = w.expect("strict sub-family of Tr cannot be dual");
            let fw = hm.edges().iter().any(|e| e.is_subset(&w));
            let gw = broken.edges().iter().any(|t| t.is_subset(&w.complement()));
            prop_assert_eq!(fw, gw, "witness must equate f(w) and g(w̄)");
        }
    }

    #[test]
    fn minimize_transversal_yields_minimal(h in arb_hypergraph()) {
        let full = AttrSet::full(N);
        if let Some(t) = dualminer_hypergraph::oracle::minimize_transversal(&h, &full) {
            prop_assert!(is_minimal_transversal(&h.minimized(), &t));
        } else {
            // Only possible when an edge is empty.
            prop_assert!(h.edges().iter().any(|e| e.is_empty()));
        }
    }

    #[test]
    fn minimized_preserves_transversals(h in arb_hypergraph(), x in proptest::collection::vec(0..N, 0..N)) {
        let xs = AttrSet::from_indices(N, x);
        prop_assert_eq!(is_transversal(&h, &xs), is_transversal(&h.minimized(), &xs));
    }
}

/// Pairwise O(m²) reference for [`minimize_family`]: keep a set iff no
/// *other distinct* set is a subset of it.
fn naive_minimize(sets: &[AttrSet]) -> Vec<AttrSet> {
    let mut kept: Vec<AttrSet> = sets
        .iter()
        .filter(|x| !sets.iter().any(|s| s != *x && s.is_subset(x)))
        .cloned()
        .collect();
    kept.sort_by(|a, b| a.cmp_card_lex(b));
    kept.dedup();
    kept
}

/// Pairwise reference for [`maximize_family`], mirrored (descending
/// card-lex order, matching the production function).
fn naive_maximize(sets: &[AttrSet]) -> Vec<AttrSet> {
    let mut kept: Vec<AttrSet> = sets
        .iter()
        .filter(|x| !sets.iter().any(|s| s != *x && x.is_subset(s)))
        .cloned()
        .collect();
    kept.sort_by(|a, b| b.cmp_card_lex(a));
    kept.dedup();
    kept
}

/// Families over universes straddling the inline/heap `AttrSet`
/// boundary, including larger universes than the transversal tests use.
/// Raw indices are folded into the chosen universe by `% n`.
fn arb_family() -> impl Strategy<Value = Vec<AttrSet>> {
    const SIZES: [usize; 5] = [64, 127, 128, 129, 200];
    (
        0usize..SIZES.len(),
        proptest::collection::vec(proptest::collection::vec(0usize..200, 0..6), 0..16),
    )
        .prop_map(|(i, fam)| {
            let n = SIZES[i];
            fam.into_iter()
                .map(|v| AttrSet::from_indices(n, v.into_iter().map(|x| x % n)))
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The trie-backed family minimization/maximization returns exactly
    /// the pairwise-scan reference: same members, same `cmp_card_lex`
    /// order, duplicates collapsed.
    #[test]
    fn family_minimize_maximize_match_naive(fam in arb_family()) {
        let min = dualminer_hypergraph::minimize_family(fam.clone());
        prop_assert_eq!(min.clone(), naive_minimize(&fam));
        for (i, m) in min.iter().enumerate() {
            for other in &min[i + 1..] {
                prop_assert!(!m.is_subset(other) && !other.is_subset(m));
            }
        }

        let max = dualminer_hypergraph::maximize_family(fam.clone());
        prop_assert_eq!(max, naive_maximize(&fam));
    }
}
