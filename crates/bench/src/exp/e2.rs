//! **E2 — Theorem 10**: the levelwise algorithm's query count equals
//! `|Th ∪ Bd⁻(Th)|` *exactly*, on planted workloads sweeping the
//! parameters the theorem quantifies over. Also the memoization ablation:
//! raw calls equal distinct calls (levelwise never repeats a query).

use dualminer_core::levelwise::levelwise;
use dualminer_core::oracle::{CountingOracle, FamilyOracle};
use dualminer_mining::gen::random_antichain;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::table::Table;

/// Runs E2.
pub fn run() {
    println!("== E2: Theorem 10 — queries = |Th ∪ Bd⁻(Th)| exactly ==\n");
    let mut rng = StdRng::seed_from_u64(2);
    let mut table = Table::new([
        "n",
        "k",
        "|MTh|",
        "|Th|",
        "|Bd⁻|",
        "queries",
        "|Th|+|Bd⁻|",
        "equal",
        "raw=distinct",
    ]);
    let mut all_equal = true;
    for n in [10usize, 15, 20, 25] {
        for k in [2usize, 4, 6] {
            for mth in [2usize, 8, 16] {
                let plants = random_antichain(n, mth, k, &mut rng);
                let oracle = CountingOracle::new(FamilyOracle::new(n, plants));
                let run = levelwise(&oracle);
                let identity = run.theory.len() + run.negative_border.len();
                let equal = run.queries == identity as u64;
                let no_repeats = oracle.raw_queries() == oracle.distinct_queries();
                all_equal &= equal && no_repeats;
                table.row([
                    n.to_string(),
                    k.to_string(),
                    run.positive_border.len().to_string(),
                    run.theory.len().to_string(),
                    run.negative_border.len().to_string(),
                    run.queries.to_string(),
                    identity.to_string(),
                    if equal { "✓" } else { "✗" }.to_string(),
                    if no_repeats { "✓" } else { "✗" }.to_string(),
                ]);
            }
        }
    }
    table.print();
    println!(
        "\nTheorem 10 identity {} on every instance.\n",
        if all_equal {
            "holds with equality"
        } else {
            "FAILED"
        }
    );
    assert!(all_equal);
}
