//! Explore the hypergraph-transversal engines on instructive instances:
//! the four algorithms, their agreement, the Example 19 blowup, and the
//! Corollary 15 polynomial special case.
//!
//! Run with: `cargo run --release --example transversal_explorer`

use std::time::Instant;

use dualminer::bitset::Universe;
use dualminer::hypergraph::{berge, fk, generators, joint_gen, levelwise_tr, mu_mmcs, Hypergraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn race(name: &str, h: &Hypergraph) {
    println!("{name}: n = {}, |H| = {}", h.universe_size(), h.len());
    let t = Instant::now();
    let b = berge::transversals(h);
    let t_berge = t.elapsed();
    let t = Instant::now();
    let j = joint_gen::transversals(h);
    let t_joint = t.elapsed();
    let t = Instant::now();
    let l = levelwise_tr::transversals_large_edges(h);
    let t_level = t.elapsed();
    let t = Instant::now();
    let m = mu_mmcs::transversals(h);
    let t_mu = t.elapsed();
    assert_eq!(b, j);
    assert_eq!(b, l);
    assert_eq!(b, m);
    println!(
        "  |Tr(H)| = {:<6} berge {:>10.1?}  fk-joint {:>10.1?}  levelwise {:>10.1?}  mu-mmcs {:>10.1?}",
        b.len(),
        t_berge,
        t_joint,
        t_level,
        t_mu
    );
}

fn main() {
    // The paper's own example: Tr({D, AC}) = {AD, CD}.
    let u = Universe::letters(4);
    let h = Hypergraph::parse(&u, "{D, AC}").unwrap();
    println!(
        "Example 8: Tr({}) = {}",
        h.display(&u),
        berge::transversals(&h).display(&u)
    );
    println!(
        "Duality check (Fredman–Khachiyan): {}\n",
        fk::are_dual(&h, &berge::transversals(&h))
    );

    // Example 19: the matching — output is exponential, every algorithm
    // must pay for it, but the *per-transversal* cost stays flat.
    println!("Example 19 matching (output has 2^(n/2) transversals):");
    for n in [8usize, 12, 16, 20] {
        race(&format!("  matching n={n}"), &generators::matching(n));
    }

    // Corollary 15 territory: all edges of size ≥ n − 3 — the levelwise
    // special case runs in input-polynomial time.
    println!("\nCorollary 15 instances (all edges ≥ n − 3):");
    let mut rng = StdRng::seed_from_u64(1);
    for n in [20usize, 30, 40] {
        race(
            &format!("  co-sparse n={n}"),
            &generators::co_sparse(n, 3, 12, &mut rng),
        );
    }

    // Self-dual structures.
    println!("\nSelf-duality:");
    let tri = Hypergraph::from_index_edges(3, [vec![0, 1], vec![1, 2], vec![0, 2]]);
    println!("  triangle self-dual: {}", fk::is_self_dual(&tri));
    let c5 = generators::cycle(5);
    println!("  C5 self-dual: {}", fk::is_self_dual(&c5));

    // Threshold hypergraphs have closed-form duals: Tr(Hₙᵗ) = Hₙ^{n−t+1}.
    println!("\nThreshold duals:");
    for (n, t) in [(7usize, 3usize), (8, 4)] {
        let h = generators::threshold(n, t);
        let tr = berge::transversals(&h);
        let expected = generators::threshold(n, n - t + 1);
        println!(
            "  Tr(H_{n}^{t}) = H_{n}^{} : {} ({} edges)",
            n - t + 1,
            tr == expected,
            tr.len()
        );
    }
}
