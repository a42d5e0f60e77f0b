//! **E5 — Corollary 15**: hypergraph transversals with all edges of size
//! ≥ n − k, k = O(log n), in input-polynomial time via the levelwise
//! algorithm — the paper's improvement over Eiter–Gottlob's constant-k
//! result. The table shows the levelwise candidate count staying under the
//! polynomial `Σ_{i≤k+1} C(n,i)` while n doubles, with Berge and FK joint
//! generation as baselines on the same instances.

use std::time::Instant;

use dualminer_core::bounds::binomial_sum;
use dualminer_hypergraph::{generators, levelwise_tr, TrAlgorithm};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::table::{fmt_duration, Table};

/// Runs E5.
pub fn run() {
    println!("== E5: Corollary 15 — HTR with edges ≥ n−k via levelwise ==\n");
    let mut rng = StdRng::seed_from_u64(5);
    let mut table = Table::new([
        "n",
        "k",
        "|H|",
        "|Tr(H)|",
        "lvl candidates",
        "poly bound",
        "t levelwise",
        "t berge",
        "t fk-joint",
    ]);
    for n in [16usize, 24, 32, 48, 64] {
        let k = ((n as f64).log2().floor() as usize).clamp(2, 4);
        let h = generators::co_sparse(n, k, 14, &mut rng);

        let t0 = Instant::now();
        let (tr_l, stats) = levelwise_tr::transversals_large_edges_traced(&h);
        let t_level = t0.elapsed();

        let t0 = Instant::now();
        let tr_b = crate::dualize_with(&h, TrAlgorithm::Berge, crate::threads());
        let t_berge = t0.elapsed();

        let t0 = Instant::now();
        let tr_j = crate::dualize_with(&h, TrAlgorithm::FkJointGeneration, crate::threads());
        let t_joint = t0.elapsed();

        assert_eq!(tr_l, tr_b);
        assert_eq!(tr_l, tr_j);
        let candidates: usize = stats.candidates_per_level.iter().sum();
        let bound = binomial_sum(n, k + 1);
        assert!((candidates as u128) <= bound);

        table.row([
            n.to_string(),
            k.to_string(),
            h.len().to_string(),
            tr_l.len().to_string(),
            candidates.to_string(),
            bound.to_string(),
            fmt_duration(t_level),
            fmt_duration(t_berge),
            fmt_duration(t_joint),
        ]);
    }
    table.print();
    println!(
        "\nThe levelwise candidate count (its total work) stays under the\n\
         Σ_(i≤k+1) C(n,i) polynomial on every instance — input-polynomial\n\
         transversal computation in the large-edge regime, as Corollary 15\n\
         claims; all three algorithms return identical Tr(H).\n"
    );
}
