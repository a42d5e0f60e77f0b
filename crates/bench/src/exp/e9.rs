//! **E9 — Theorem 2 / Corollary 4 / Corollary 27**: the border is the
//! information-theoretic floor. Verification spends *exactly*
//! `|Bd⁺| + |Bd⁻|` queries; every computation run (either algorithm)
//! spends at least that; through the learning bridge the same number is
//! `|DNF(f)| + |CNF(f)|`.

use dualminer_core::border::verify_maxth;
use dualminer_core::dualize_advance::dualize_advance;
use dualminer_core::levelwise::levelwise;
use dualminer_core::oracle::{CountingOracle, FamilyOracle};
use dualminer_hypergraph::TrAlgorithm;
use dualminer_learning::gen::random_dnf;
use dualminer_learning::learn::learn_monotone_dualize;
use dualminer_learning::{CountingMq, FuncMq};
use dualminer_mining::gen::random_antichain;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::table::Table;

/// Runs E9.
pub fn run() {
    println!("== E9: Theorem 2 / Corollary 4 / Corollary 27 — the border floor ==\n");
    let mut rng = StdRng::seed_from_u64(9);

    println!("(a) verification spends exactly |Bd⁺|+|Bd⁻| (Corollary 4):");
    let mut table = Table::new(["n", "|Bd⁺|", "|Bd⁻|", "verify queries", "exact"]);
    for n in [10usize, 16, 22] {
        for (mth, k) in [(4usize, 4usize), (10, 6)] {
            let plants = random_antichain(n, mth, k, &mut rng);
            let oracle = CountingOracle::new(FamilyOracle::new(n, plants.clone()));
            // The planted family of equal-size sets is an antichain = MTh.
            let lw = levelwise(&FamilyOracle::new(n, plants.clone()));
            let out = verify_maxth(&oracle, &lw.positive_border, TrAlgorithm::Berge);
            assert!(out.is_maxth);
            let expected = (lw.positive_border.len() + lw.negative_border.len()) as u64;
            assert_eq!(out.queries, expected);
            table.row([
                n.to_string(),
                lw.positive_border.len().to_string(),
                lw.negative_border.len().to_string(),
                out.queries.to_string(),
                "✓".to_string(),
            ]);
        }
    }
    table.print();

    println!("\n(b) computation runs never beat the floor (Theorem 2):");
    let mut table = Table::new([
        "algorithm",
        "n",
        "floor |Bd⁺|+|Bd⁻|",
        "queries",
        "queries/floor",
    ]);
    for n in [12usize, 18] {
        let plants = random_antichain(n, 8, 5, &mut rng);
        let o1 = CountingOracle::new(FamilyOracle::new(n, plants.clone()));
        let lw = levelwise(&o1);
        let floor = (lw.positive_border.len() + lw.negative_border.len()) as u64;
        assert!(o1.distinct_queries() >= floor);
        table.row([
            "levelwise".to_string(),
            n.to_string(),
            floor.to_string(),
            o1.distinct_queries().to_string(),
            format!("{:.2}", o1.distinct_queries() as f64 / floor as f64),
        ]);
        let o2 = CountingOracle::new(FamilyOracle::new(n, plants));
        dualize_advance(&o2, TrAlgorithm::FkJointGeneration);
        assert!(o2.distinct_queries() >= floor);
        table.row([
            "dualize&advance".to_string(),
            n.to_string(),
            floor.to_string(),
            o2.distinct_queries().to_string(),
            format!("{:.2}", o2.distinct_queries() as f64 / floor as f64),
        ]);
    }
    table.print();

    println!("\n(c) the same floor in learning terms (Corollary 27): queries ≥ |DNF|+|CNF|:");
    let mut table = Table::new(["n", "|DNF|", "|CNF|", "MQ queries", "≥ floor"]);
    for n in [10usize, 12, 14] {
        let target = random_dnf(n, 5, 4, &mut rng);
        let mq = CountingMq::new(FuncMq::new(target));
        let learned = learn_monotone_dualize(mq, TrAlgorithm::FkJointGeneration);
        let ok = learned.queries >= learned.corollary27_lower_bound();
        assert!(ok);
        table.row([
            n.to_string(),
            learned.dnf.len().to_string(),
            learned.cnf.len().to_string(),
            learned.queries.to_string(),
            if ok { "✓" } else { "✗" }.to_string(),
        ]);
    }
    table.print();
    println!();
}
