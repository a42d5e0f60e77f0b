//! **E1 — Figure 1 and the worked examples** (Examples 8, 11, 17, 25).
//!
//! Reproduces the paper's single figure exactly: the 4-attribute lattice
//! with `S = {ABC, BD}`, its borders, the levelwise trace, the Dualize &
//! Advance trace, and the learning-theory view of the same problem.

use dualminer_bitset::{AttrSet, Universe};
use dualminer_core::border::negative_border_via_transversals;
use dualminer_core::dualize_advance::dualize_advance;
use dualminer_core::levelwise::levelwise;
use dualminer_core::oracle::CountingOracle;
use dualminer_hypergraph::{berge, Hypergraph, TrAlgorithm};
use dualminer_learning::learn::learn_monotone_dualize;
use dualminer_learning::{FuncMq, MonotoneDnf};
use dualminer_mining::apriori::apriori_par;
use dualminer_mining::{FrequencyOracle, TransactionDb};

/// Runs E1 and prints the traces.
pub fn run() {
    println!("== E1: Figure 1 / Examples 8, 11, 17, 25 ==\n");
    let u = Universe::letters(4);
    let db = TransactionDb::from_index_rows(4, [vec![0, 1, 2], vec![0, 1, 2, 3], vec![1, 3]]);
    println!("Concrete database realizing Figure 1 (σ = 2):");
    println!("{}\n", db.display(&u));

    // --- Example 8: the transversal identity --------------------------
    let s = vec![u.parse("ABC").unwrap(), u.parse("BD").unwrap()];
    let h = Hypergraph::from_edges(4, s.iter().map(AttrSet::complement).collect()).unwrap();
    let tr = berge::transversals(&h);
    println!("Example 8:  S        = {}", u.display_family(s.iter()));
    println!(
        "            H(S)     = {}   (paper: {{D, AC}})",
        h.display(&u)
    );
    println!(
        "            Tr(H(S)) = {}   (paper: {{AD, CD}})",
        tr.display(&u)
    );
    assert_eq!(tr.display(&u), "{AD, CD}");
    assert_eq!(
        negative_border_via_transversals(4, &s, TrAlgorithm::Berge),
        tr.edges().to_vec()
    );
    println!("            Theorem 7 identity Bd⁻(S) = f⁻¹(Tr(H(S))) verified ✓\n");

    // --- Example 11: the levelwise trace ------------------------------
    let oracle = CountingOracle::new(FrequencyOracle::new(&db, 2));
    let run = levelwise(&oracle);
    println!("Example 11 (levelwise):");
    println!(
        "            candidates per level: {:?} (∅; A,B,C,D; all 6 pairs; ABC)",
        run.candidates_per_level
    );
    println!("            Th  = {}", u.display_family(run.theory.iter()));
    println!(
        "            MTh = {}   (paper: {{ABC, BD}})",
        u.display_family(run.positive_border.iter())
    );
    println!(
        "            Bd⁻ = {}   (paper: {{AD, CD}})",
        u.display_family(run.negative_border.iter())
    );
    println!(
        "            queries = {} = |Th ∪ Bd⁻| = {} (Theorem 10; paper counts {} without the ∅ level)",
        run.queries,
        run.theorem10_count(),
        run.queries - 1
    );
    assert_eq!(run.queries, run.theorem10_count());

    // --- Example 17: the Dualize & Advance trace -----------------------
    let oracle = CountingOracle::new(FrequencyOracle::new(&db, 2));
    let da = dualize_advance(&oracle, TrAlgorithm::Berge);
    println!("\nExample 17 (dualize & advance):");
    for (i, it) in da.iterations.iter().enumerate() {
        match (&it.counterexample, &it.maximal_found) {
            (Some(x), Some(y)) => println!(
                "            iteration {}: counterexample {} → extended to maximal {}",
                i + 1,
                u.display(x),
                u.display(y)
            ),
            _ => println!(
                "            iteration {}: all {} transversals uninteresting → C = MTh ✓",
                i + 1,
                it.transversals_tested
            ),
        }
    }
    println!(
        "            MTh = {}, Bd⁻(MTh) = {}",
        u.display_family(da.maximal.iter()),
        u.display_family(da.negative_border.iter())
    );
    assert_eq!(da.maximal, run.positive_border);

    // --- Example 25: the learning view ---------------------------------
    let target = MonotoneDnf::new(4, vec![u.parse("AD").unwrap(), u.parse("CD").unwrap()]);
    let learned = learn_monotone_dualize(FuncMq::new(target.clone()), TrAlgorithm::Berge);
    println!("\nExample 25 (learning view):");
    println!(
        "            f (DNF) = {}   (paper: AD ∨ CD — the Bd⁻ elements)",
        learned.dnf.display(&u)
    );
    println!(
        "            f (CNF) = {}  (paper: (A ∨ C)(D) — complements of MTh)",
        learned.cnf.display(&u)
    );
    assert_eq!(learned.dnf, target);

    // Cross-check against mining output.
    let fs = apriori_par(&db, 2, crate::threads());
    assert_eq!(learned.dnf.terms(), fs.negative_border.as_slice());
    println!("\nAll Figure 1 artifacts reproduced exactly. ✓\n");
}
