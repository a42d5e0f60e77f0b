//! Quickstart: mine frequent itemsets and association rules from a tiny
//! basket database, then inspect the theory's borders — the paper's
//! Figure 1 situation, end to end.
//!
//! Run with: `cargo run --release --example quickstart`

use dualminer::bitset::Universe;
use dualminer::core::border::verify_maxth;
use dualminer::core::oracle::CountingOracle;
use dualminer::hypergraph::TrAlgorithm;
use dualminer::mining::apriori::apriori;
use dualminer::mining::rules::association_rules;
use dualminer::mining::{FrequencyOracle, TransactionDb};

fn main() {
    // Four products, three baskets (the database behind Figure 1 of the
    // paper: maximal frequent sets at σ = 2 are ABC and BD).
    let universe = Universe::letters(4);
    let db = TransactionDb::from_index_rows(
        4,
        [
            vec![0, 1, 2],    // basket 1: A, B, C
            vec![0, 1, 2, 3], // basket 2: A, B, C, D
            vec![1, 3],       // basket 3: B, D
        ],
    );
    println!(
        "Database ({} rows):\n{}\n",
        db.n_rows(),
        db.display(&universe)
    );

    // 1. Mine all frequent itemsets at absolute support 2.
    let frequent = apriori(&db, 2);
    println!("Frequent itemsets (support ≥ 2):");
    for (set, support) in frequent.itemsets() {
        println!("  {:<5} support {}", universe.display(set), support);
    }

    // 2. The borders: MTh (positive) and Bd⁻ (negative).
    println!(
        "\nMaximal frequent sets (MTh):   {}",
        universe.display_family(frequent.maximal.iter())
    );
    println!(
        "Negative border (Bd⁻):         {}",
        universe.display_family(frequent.negative_border.iter())
    );

    // 3. Association rules with confidence ≥ 0.75.
    println!("\nAssociation rules (confidence ≥ 0.75):");
    for rule in association_rules(&frequent, 0.75) {
        println!("  {}", rule.display(&universe));
    }

    // 4. Verify the result with exactly |Bd⁺| + |Bd⁻| queries
    //    (Corollary 4 of the paper).
    let oracle = CountingOracle::new(FrequencyOracle::new(&db, 2));
    let outcome = verify_maxth(&oracle, &frequent.maximal, TrAlgorithm::Berge);
    println!(
        "\nVerification: S = MTh? {} ({} oracle queries — exactly |Bd⁺|+|Bd⁻| = {})",
        outcome.is_maxth,
        outcome.queries,
        frequent.maximal.len() + frequent.negative_border.len()
    );
}
