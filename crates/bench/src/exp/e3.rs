//! **E3 — Theorem 12 / Corollary 13**: the levelwise query count is
//! bounded by `dc(k)·width·|MTh| = 2ᵏ·n·|MTh|`; the table reports the
//! measured/bound tightness ratio across planted and Quest workloads.

use dualminer_core::bounds::corollary13_bound;
use dualminer_core::lang::rank_of_family;
use dualminer_core::levelwise::levelwise;
use dualminer_core::oracle::{CountingOracle, FamilyOracle};
use dualminer_mining::gen::{quest, random_antichain, QuestParams};
use dualminer_mining::FrequencyOracle;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::table::Table;

/// Runs E3.
pub fn run() {
    println!("== E3: Theorem 12 / Corollary 13 — queries ≤ 2ᵏ·n·|MTh| ==\n");
    let mut rng = StdRng::seed_from_u64(3);
    let mut table = Table::new([
        "workload",
        "n",
        "k",
        "|MTh|",
        "queries",
        "bound 2ᵏ·n·|MTh|",
        "ratio",
    ]);
    let mut worst: f64 = 0.0;

    for n in [12usize, 18, 24] {
        for k in [3usize, 5, 7] {
            for mth in [4usize, 12] {
                let plants = random_antichain(n, mth, k, &mut rng);
                let oracle = CountingOracle::new(FamilyOracle::new(n, plants.clone()));
                let run = levelwise(&oracle);
                let kk = rank_of_family(&run.theory);
                let bound = corollary13_bound(kk, n, run.positive_border.len());
                let ratio = run.queries as f64 / bound as f64;
                worst = worst.max(ratio);
                table.row([
                    "planted".into(),
                    n.to_string(),
                    kk.to_string(),
                    run.positive_border.len().to_string(),
                    run.queries.to_string(),
                    bound.to_string(),
                    format!("{ratio:.4}"),
                ]);
            }
        }
    }

    for (seed, sigma) in [(1u64, 120usize), (2, 80), (3, 60)] {
        let mut qrng = StdRng::seed_from_u64(seed);
        let db = quest(
            &QuestParams {
                n_items: 18,
                n_transactions: 400,
                avg_transaction_size: 6,
                avg_pattern_size: 3,
                n_patterns: 8,
                corruption: 0.3,
            },
            &mut qrng,
        );
        let oracle = CountingOracle::new(FrequencyOracle::new(&db, sigma));
        let run = levelwise(&oracle);
        let kk = rank_of_family(&run.theory);
        let bound = corollary13_bound(kk, 18, run.positive_border.len().max(1));
        let ratio = run.queries as f64 / bound as f64;
        worst = worst.max(ratio);
        table.row([
            format!("quest σ={sigma}"),
            "18".into(),
            kk.to_string(),
            run.positive_border.len().to_string(),
            run.queries.to_string(),
            bound.to_string(),
            format!("{ratio:.4}"),
        ]);
    }

    table.print();
    println!(
        "\nBound holds on every instance (worst ratio {worst:.4} ≤ 1). The slack is\n\
         the theorem's union bound over maximal sets: shared subsets are counted\n\
         once by the algorithm but |MTh| times by the bound.\n"
    );
    assert!(worst <= 1.0);
}
