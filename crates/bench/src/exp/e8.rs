//! **E8 — the levelwise ↔ Dualize & Advance crossover** (Corollary 22's
//! narrative): levelwise queries grow like `2ᵏ` with the length of the
//! maximal sets while Dualize & Advance stays flat, so D&A takes over once
//! maximal sets are long; total work is sub-exponential in
//! `|MTh| + |Bd⁻|` throughout.

use std::time::Instant;

use dualminer_bitset::AttrSet;
use dualminer_core::dualize_advance::dualize_advance;
use dualminer_core::levelwise::levelwise;
use dualminer_core::oracle::{CountingOracle, FamilyOracle};
use dualminer_hypergraph::TrAlgorithm;

use crate::table::{fmt_duration, Table};

/// Runs E8.
pub fn run() {
    println!("== E8: levelwise vs Dualize & Advance — the k crossover ==\n");
    let n = 24;
    let mut table = Table::new([
        "k",
        "|MTh|",
        "|Bd⁻|",
        "lw queries",
        "da queries",
        "winner",
        "lw time",
        "da time",
    ]);
    let mut crossover: Option<usize> = None;
    for k in [3usize, 4, 5, 6, 8, 10, 12, 14, 16] {
        // Three overlapping maximal sets of size k over 24 attributes.
        let plants = vec![
            AttrSet::from_indices(n, 0..k),
            AttrSet::from_indices(n, 4..4 + k),
            AttrSet::from_indices(n, 8..8 + k),
        ];

        let o1 = CountingOracle::new(FamilyOracle::new(n, plants.clone()));
        let t0 = Instant::now();
        let lw = levelwise(&o1);
        let t_lw = t0.elapsed();

        let o2 = CountingOracle::new(FamilyOracle::new(n, plants));
        let t0 = Instant::now();
        let da = dualize_advance(&o2, TrAlgorithm::Berge);
        let t_da = t0.elapsed();

        assert_eq!(lw.positive_border, da.maximal);
        let (lq, dq) = (o1.distinct_queries(), o2.distinct_queries());
        let winner = if lq <= dq {
            "levelwise"
        } else {
            "dualize&advance"
        };
        if crossover.is_none() && dq < lq {
            crossover = Some(k);
        }
        table.row([
            k.to_string(),
            da.maximal.len().to_string(),
            da.negative_border.len().to_string(),
            lq.to_string(),
            dq.to_string(),
            winner.to_string(),
            fmt_duration(t_lw),
            fmt_duration(t_da),
        ]);
    }
    table.print();
    match crossover {
        Some(k) => println!(
            "\nCrossover at k = {k}: below it the levelwise algorithm is optimal (the\n\
             paper's explanation of its empirical success, Theorem 12 with small\n\
             dc(k)); above it Dualize & Advance wins by an exponentially growing\n\
             factor, because its Theorem 21 bill never sees 2ᵏ.\n"
        ),
        None => println!("\nNo crossover in range — unexpected; see table.\n"),
    }
    assert!(crossover.is_some());
}
