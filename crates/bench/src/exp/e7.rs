//! **E7 — Lemma 20 + Theorem 21**: per-iteration and total query bounds of
//! Dualize & Advance. Every iteration tests at most `|Bd⁻(MTh)|` sets
//! before its counterexample, and the total `Is-interesting` bill stays
//! under `|MTh| · (|Bd⁻(MTh)| + rank(MTh)·width)`.

use dualminer_core::bounds::theorem21_bound;
use dualminer_core::dualize_advance::dualize_advance;
use dualminer_core::lang::rank_of_family;
use dualminer_core::oracle::{CountingOracle, FamilyOracle};
use dualminer_hypergraph::TrAlgorithm;
use dualminer_mining::gen::{quest, random_antichain, QuestParams};
use dualminer_mining::FrequencyOracle;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::table::Table;

/// Runs E7.
pub fn run() {
    println!("== E7: Lemma 20 + Theorem 21 — Dualize & Advance query bounds ==\n");
    let mut rng = StdRng::seed_from_u64(7);
    let mut table = Table::new([
        "workload",
        "n",
        "|MTh|",
        "|Bd⁻|",
        "max tested/iter",
        "cap |Bd⁻|+1",
        "queries",
        "Thm 21 bound",
        "ratio",
    ]);
    let mut worst: f64 = 0.0;

    let record = |name: String,
                  n: usize,
                  run: dualminer_core::dualize_advance::DualizeAdvanceRun,
                  queries: u64,
                  table: &mut Table| {
        let bd = run.negative_border.len();
        let max_tested = run.max_transversals_tested();
        assert!(max_tested <= bd + 1, "{name}: Lemma 20 violated");
        let rank = rank_of_family(&run.maximal).max(1);
        let bound = theorem21_bound(run.maximal.len().max(1), bd, rank, n);
        let ratio = queries as f64 / bound as f64;
        assert!(queries as u128 <= bound + 1, "{name}: Theorem 21 violated");
        table.row([
            name,
            n.to_string(),
            run.maximal.len().to_string(),
            bd.to_string(),
            max_tested.to_string(),
            (bd + 1).to_string(),
            queries.to_string(),
            bound.to_string(),
            format!("{ratio:.4}"),
        ]);
        ratio
    };

    for n in [12usize, 18, 24] {
        for (mth, k) in [(4usize, 6usize), (10, 8), (16, 5)] {
            let plants = random_antichain(n, mth, k, &mut rng);
            let oracle = CountingOracle::new(FamilyOracle::new(n, plants));
            let run = dualize_advance(&oracle, TrAlgorithm::FkJointGeneration);
            let r = record(
                format!("planted k={k}"),
                n,
                run,
                oracle.distinct_queries(),
                &mut table,
            );
            worst = worst.max(r);
        }
    }

    for (seed, sigma) in [(11u64, 90usize), (12, 70)] {
        let mut qrng = StdRng::seed_from_u64(seed);
        let db = quest(
            &QuestParams {
                n_items: 16,
                n_transactions: 300,
                avg_transaction_size: 6,
                avg_pattern_size: 3,
                n_patterns: 8,
                corruption: 0.3,
            },
            &mut qrng,
        );
        let oracle = CountingOracle::new(FrequencyOracle::new(&db, sigma));
        let run = dualize_advance(&oracle, TrAlgorithm::FkJointGeneration);
        let r = record(
            format!("quest σ={sigma}"),
            16,
            run,
            oracle.distinct_queries(),
            &mut table,
        );
        worst = worst.max(r);
    }

    table.print();
    println!(
        "\nLemma 20's per-iteration cap and Theorem 21's total bound hold on every\n\
         run (worst total-bound ratio {worst:.4}).\n"
    );
}
