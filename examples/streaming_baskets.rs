//! Streaming baskets: keep an exact frequent-set theory alive while the
//! database grows — borders as a maintenance structure.
//!
//! Two border applications working together on the same stream:
//!
//! * **sampling** (Toivonen): bootstrap the theory from a sample, certify
//!   exactness against the full data via the negative border;
//! * **incremental update**: as batches of baskets arrive, refresh the
//!   theory by touching only the old theory and its border, not the
//!   whole lattice.
//!
//! Run with: `cargo run --release --example streaming_baskets`

use dualminer::bitset::Universe;
use dualminer::mining::apriori::apriori;
use dualminer::mining::gen::{quest, QuestParams};
use dualminer::mining::incremental::append_rows;
use dualminer::mining::sampling::sample_then_verify;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2026);
    let params = QuestParams {
        n_items: 16,
        n_transactions: 2000,
        avg_transaction_size: 6,
        avg_pattern_size: 3,
        n_patterns: 8,
        corruption: 0.25,
    };
    let sigma = 300;
    let universe = Universe::letters(params.n_items);

    // Day 0: the initial database, mined by sampling.
    let day0 = quest(&params, &mut rng);
    let boot = sample_then_verify(&day0, sigma, 400, 0.8, &mut rng);
    println!(
        "Day 0: {} baskets → {} frequent sets via sampling \
         ({} full-data evaluations, {} round(s))",
        day0.n_rows(),
        boot.itemsets.len(),
        boot.full_data_evaluations,
        boot.rounds
    );
    let exact0 = apriori(&day0, sigma);
    assert_eq!(boot.itemsets, exact0.itemsets());
    println!(
        "        certified exact: would have cost {} evaluations from scratch",
        exact0.queries()
    );

    // Days 1–3: batches arrive; update incrementally.
    let mut db = day0;
    let mut fs = exact0;
    for day in 1..=3 {
        // Small batches: the theory barely moves, so the incremental
        // update touches far fewer sets than a fresh mining run would.
        let batch = quest(
            &QuestParams {
                n_transactions: 60,
                ..params
            },
            &mut rng,
        );
        let update = append_rows(&db, &fs, batch.rows().to_vec());
        let scratch = apriori(&update.db, sigma);
        assert_eq!(update.frequent.itemsets(), scratch.itemsets());
        println!(
            "Day {day}: +{} baskets → {} frequent sets; incremental cost: {} \
             full-database counts (plus {} old sets settled from the new \
             baskets alone) vs {} full-database counts from scratch",
            batch.n_rows(),
            update.frequent.itemsets().len(),
            update.merged_evaluations,
            update.delta_evaluations,
            scratch.queries(),
        );
        db = update.db;
        fs = update.frequent;
    }

    println!("\nFinal maximal frequent sets:");
    for m in &fs.maximal {
        println!("  {}", universe.display(m));
    }
    println!(
        "\nEvery update was verified against a from-scratch run — the border\n\
         bookkeeping (Theorem 7 country) is what makes both the bootstrap\n\
         certificate and the cheap updates possible."
    );
}
