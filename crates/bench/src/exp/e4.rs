//! **E4 — Corollary 14**: the negative border stays polynomial when the
//! largest frequent set is small: `|Bd⁻(Th)| ≤ Σ_{i≤k+1} C(n,i)` (every
//! border set has rank ≤ k+1), polynomial in `n` for fixed `k` and
//! `n^{O(k)}·|MTh|`-bounded for `k = O(log n)`. The fitted growth exponent
//! of the measured border confirms the polynomial shape.

use dualminer_core::bounds::corollary14_bound;
use dualminer_core::levelwise::levelwise;
use dualminer_core::oracle::{CountingOracle, FamilyOracle};
use dualminer_mining::gen::random_antichain;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::table::Table;

/// Runs E4.
pub fn run() {
    println!("== E4: Corollary 14 — |Bd⁻| ≤ Σ_(i≤k+1) C(n,i) ==\n");
    let mut rng = StdRng::seed_from_u64(4);

    println!("(i) fixed k = 3, growing n — polynomial border:");
    let mut table = Table::new([
        "n",
        "|MTh|",
        "|Bd⁻| measured",
        "bound C(n,≤4)",
        "max border rank",
    ]);
    let mut measured: Vec<(usize, usize)> = Vec::new();
    for n in [10usize, 15, 20, 25, 30, 40] {
        let plants = random_antichain(n, 8, 3, &mut rng);
        let oracle = CountingOracle::new(FamilyOracle::new(n, plants));
        let run = levelwise(&oracle);
        let bound = corollary14_bound(3, n);
        let max_rank = run
            .negative_border
            .iter()
            .map(|s| s.len())
            .max()
            .unwrap_or(0);
        assert!((run.negative_border.len() as u128) <= bound);
        assert!(max_rank <= 4);
        measured.push((n, run.negative_border.len()));
        table.row([
            n.to_string(),
            run.positive_border.len().to_string(),
            run.negative_border.len().to_string(),
            bound.to_string(),
            max_rank.to_string(),
        ]);
    }
    table.print();

    // Fit |Bd⁻| ~ n^e between the first and last points.
    let (n0, b0) = measured[0];
    let (n1, b1) = *measured.last().unwrap();
    let exponent = ((b1 as f64 / b0 as f64).ln()) / ((n1 as f64 / n0 as f64).ln());
    println!("\nFitted growth exponent e in |Bd⁻| ~ n^e: {exponent:.2} (≤ k + 1 = 4 expected)\n");
    assert!(exponent <= 4.1);

    println!("(ii) k = ⌈log₂ n⌉ — the n^O(k) regime:");
    let mut table = Table::new([
        "n",
        "k=⌈log₂n⌉",
        "|MTh|",
        "|Bd⁻|",
        "bound C(n,≤k+1)",
        "within",
    ]);
    for n in [8usize, 12, 16, 24] {
        let k = (n as f64).log2().ceil() as usize;
        let plants = random_antichain(n, 6, k, &mut rng);
        let oracle = CountingOracle::new(FamilyOracle::new(n, plants));
        let run = levelwise(&oracle);
        let bound = corollary14_bound(k, n);
        let ok = (run.negative_border.len() as u128) <= bound;
        assert!(ok);
        table.row([
            n.to_string(),
            k.to_string(),
            run.positive_border.len().to_string(),
            run.negative_border.len().to_string(),
            bound.to_string(),
            if ok { "✓" } else { "✗" }.to_string(),
        ]);
    }
    table.print();
    println!();
}
