//! **E11 — Fredman–Khachiyan scaling + Corollary 30**. (a) The duality
//! check's recursion-call count on true dual pairs, against the
//! quasi-polynomial envelope `m^(log₂ m)` (`m = |F|+|G|`) — the paper's
//! `t(m) = m^{o(log m)}`-class subroutine. (b) Corollary 30: a DNF learner
//! *is* a transversal algorithm — outputs must match direct HTR.

use std::time::Instant;

use dualminer_hypergraph::{berge, fk, generators, Hypergraph};
use dualminer_learning::learn::transversals_via_learner;
use dualminer_obs::{Meter, NoopObserver, RunCtl};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::table::{fmt_duration, Table};

/// Runs E11.
pub fn run() {
    println!("== E11: Fredman–Khachiyan scaling + Corollary 30 ==\n");

    println!("(a) duality-check effort on true dual pairs (calls = FK recursion count):");
    let mut table = Table::new([
        "instance",
        "m=|F|+|G|",
        "FK calls",
        "depth",
        "log(calls)/(log₂m)²",
        "time",
    ]);
    let mut check = |name: String, f: &Hypergraph| {
        let g = berge::transversals(f);
        let m = (f.len() + g.len()) as f64;
        let t0 = Instant::now();
        let meter = Meter::unlimited();
        let (w, stats) =
            fk::duality_witness_ctl(f, &g, &RunCtl::new(&meter, &NoopObserver)).expect_complete();
        let elapsed = t0.elapsed();
        assert!(w.is_none());
        // Normalized exponent: FK-A guarantees calls ≤ m^(c·log₂ m), so
        // log(calls)/(log₂ m)² should stay bounded by a small constant.
        let norm = if m > 2.0 {
            (stats.calls as f64).ln() / (m.log2() * m.log2() * std::f64::consts::LN_2)
        } else {
            0.0
        };
        table.row([
            name,
            format!("{m:.0}"),
            stats.calls.to_string(),
            stats.max_depth.to_string(),
            format!("{norm:.3}"),
            fmt_duration(elapsed),
        ]);
        norm
    };

    let mut worst: f64 = 0.0;
    for n in [8usize, 12, 16] {
        worst = worst.max(check(format!("matching n={n}"), &generators::matching(n)));
    }
    for (n, t) in [(6usize, 2usize), (7, 3), (8, 3), (9, 4)] {
        worst = worst.max(check(
            format!("threshold n={n} t={t}"),
            &generators::threshold(n, t),
        ));
    }
    let mut rng = StdRng::seed_from_u64(11);
    for n in [10usize, 14, 18] {
        worst = worst.max(check(
            format!("random n={n}"),
            &generators::random_uniform(n, 8, 2..=4, &mut rng).minimized(),
        ));
    }
    // Self-dual instances: self-duality testing is the canonical hard
    // case for duality checkers.
    for base_n in [8usize, 12, 16] {
        let sd = generators::self_dualize(&generators::matching(base_n));
        worst = worst.max(check(format!("self-dual(matching {base_n})"), &sd));
    }
    table.print();
    println!(
        "\nThe normalized exponent stays bounded ({worst:.3} max) — effort grows\n\
         quasi-polynomially in m, the Fredman–Khachiyan regime Corollaries 22\n\
         and 29 build on.\n"
    );

    println!("(b) Corollary 30 — transversals through the learner:");
    let mut table = Table::new(["instance", "|H|", "|Tr|", "learner = direct"]);
    for (name, h) in [
        (
            "triangle",
            Hypergraph::from_index_edges(3, [vec![0, 1], vec![1, 2], vec![0, 2]]),
        ),
        ("cycle C7", generators::cycle(7)),
        ("matching n=10", generators::matching(10)),
        (
            "random n=10",
            generators::random_uniform(10, 6, 2..=4, &mut rng).minimized(),
        ),
    ] {
        let via = transversals_via_learner(&h, TrAlgorithm::Berge);
        let direct = berge::transversals(&h);
        let same = via == direct;
        assert!(same);
        table.row([
            name.to_string(),
            h.len().to_string(),
            direct.len().to_string(),
            if same { "✓" } else { "✗" }.to_string(),
        ]);
    }
    table.print();
    println!();
}

use dualminer_hypergraph::TrAlgorithm;
