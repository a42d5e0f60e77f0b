//! Backend-equivalence matrix for the hybrid dualization engine: the new
//! backends (MU-MMCS, EGM, the `auto` planner) must agree bit-for-bit
//! with Berge — and with brute force where brute force is feasible — over
//! the ISSUE's generator classes (matchings, threshold graphs, planted
//! transversals, random antichains), large scattered universes
//! {64, 127, 128, 129, 200} straddling the inline-bitset boundary, and
//! thread counts {1, 2, 4, 8}. [`verify_dual`] rides along as an
//! *independent* cross-check oracle on every pair.

use dualminer_bitset::AttrSet;
use dualminer_hypergraph::{
    berge, dualize, egm, generators, minimize_family, mu_mmcs, naive, plan, transversals_with,
    verify_dual, Hypergraph, TrAlgorithm,
};
use dualminer_obs::{Meter, NoopObserver, RunCtl};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

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
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn new_backends_agree_with_brute_force(h in arb_hypergraph()) {
        let reference = naive::transversals(&h);
        prop_assert_eq!(mu_mmcs::transversals(&h), reference.clone());
        prop_assert_eq!(egm::transversals(&h), reference.clone());
        prop_assert_eq!(dualize(&h), reference);
    }

    #[test]
    fn every_backend_output_passes_verify_dual(h in arb_hypergraph()) {
        // verify_dual shares no code with any enumeration backend, so
        // each (input, output) pair it accepts is independent evidence.
        for algo in [
            TrAlgorithm::Auto,
            TrAlgorithm::Berge,
            TrAlgorithm::FkJointGeneration,
            TrAlgorithm::LevelwiseLargeEdges,
            TrAlgorithm::MuMmcs,
            TrAlgorithm::Egm,
        ] {
            let tr = transversals_with(&h, algo);
            prop_assert!(verify_dual(&h, &tr), "{:?}", algo);
            prop_assert!(verify_dual(&tr, &h), "{:?} (symmetric)", algo);
        }
    }

    #[test]
    fn planner_and_new_backends_bit_identical_across_threads(h in arb_hypergraph()) {
        let seq_mu = mu_mmcs::transversals(&h);
        let seq_egm = egm::transversals(&h);
        let seq_auto = dualize(&h);
        for threads in [2usize, 4, 8] {
            prop_assert_eq!(
                tr_threads(&h, TrAlgorithm::MuMmcs, threads), seq_mu.clone(),
                "mu-mmcs, threads={}", threads
            );
            prop_assert_eq!(
                tr_threads(&h, TrAlgorithm::Egm, threads), seq_egm.clone(),
                "egm, threads={}", threads
            );
            prop_assert_eq!(
                tr_threads(&h, TrAlgorithm::Auto, threads), seq_auto.clone(),
                "auto, threads={}", threads
            );
        }
    }
}

/// Re-embeds a small instance into a universe of `n` vertices, scattering
/// the active vertices over random positions: exercises the spilled-bitset
/// paths (127/128/129/200) without inflating the combinatorics, which stay
/// those of the small instance.
fn embed(h: &Hypergraph, n: usize, rng: &mut StdRng) -> Hypergraph {
    let k = h.universe_size();
    assert!(k <= n);
    let mut pos: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        pos.swap(i, j);
    }
    let edges = h
        .edges()
        .iter()
        .map(|e| AttrSet::from_indices(n, e.iter().map(|v| pos[v])))
        .collect();
    Hypergraph::from_edges(n, edges).unwrap()
}

/// A random ⊆-antichain: random small sets, kept minimal.
fn random_antichain(n: usize, m: usize, rng: &mut StdRng) -> Hypergraph {
    let sets: Vec<AttrSet> = (0..m)
        .map(|_| {
            let k = rng.gen_range(2..=4usize);
            AttrSet::from_indices(n, (0..k).map(|_| rng.gen_range(0..n)))
        })
        .collect();
    Hypergraph::from_edges(n, minimize_family(sets)).unwrap()
}

/// The full deterministic matrix: 4 generator classes × 5 universes ×
/// {MU-MMCS, EGM, auto} × 4 thread counts, Berge as the referee (brute
/// force is exponential in `n`, infeasible at these universe sizes), with
/// levelwise/FK forced through the dispatcher where cheap enough.
#[test]
fn backend_matrix_across_universes_and_threads() {
    let mut rng = StdRng::seed_from_u64(4242);
    for &n in &[64usize, 127, 128, 129, 200] {
        let instances = vec![
            ("matching", embed(&generators::matching(8), n, &mut rng)),
            (
                "threshold",
                embed(&generators::threshold(7, 3), n, &mut rng),
            ),
            (
                "planted",
                embed(
                    &generators::planted_transversal(14, 3, 18, 3, &mut rng),
                    n,
                    &mut rng,
                ),
            ),
            (
                "antichain",
                embed(&random_antichain(16, 20, &mut rng), n, &mut rng),
            ),
        ];
        for (name, h) in instances {
            let reference = berge::transversals(&h);
            assert!(
                verify_dual(&h, &reference),
                "verify_dual referee: {name} n={n}"
            );
            for threads in [1usize, 2, 4, 8] {
                for algo in [TrAlgorithm::MuMmcs, TrAlgorithm::Egm, TrAlgorithm::Auto] {
                    assert_eq!(
                        tr_threads(&h, algo, threads),
                        reference,
                        "{algo:?}: {name} n={n} threads={threads}"
                    );
                }
            }
            assert_eq!(
                transversals_with(&h, TrAlgorithm::LevelwiseLargeEdges),
                reference,
                "levelwise: {name} n={n}"
            );
            // FK pays a duality check per emitted transversal; keep it to
            // the instances with small Tr so the matrix stays fast.
            if reference.len() <= 64 {
                assert_eq!(
                    transversals_with(&h, TrAlgorithm::FkJointGeneration),
                    reference,
                    "fk: {name} n={n}"
                );
            }
        }
    }
}
