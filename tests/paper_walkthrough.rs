//! End-to-end reproduction of every worked example in the paper, spanning
//! all crates. Each test cites the example it reproduces.

use dualminer::bitset::{AttrSet, Universe};
use dualminer::core::border::{negative_border_via_transversals, verify_maxth};
use dualminer::core::dualize_advance::dualize_advance;
use dualminer::core::levelwise::levelwise;
use dualminer::core::oracle::CountingOracle;
use dualminer::hypergraph::{berge, generators, Hypergraph, TrAlgorithm};
use dualminer::learning::learn::learn_monotone_dualize;
use dualminer::learning::{FuncMq, MonotoneDnf};
use dualminer::mining::apriori::apriori;
use dualminer::mining::{FrequencyOracle, TransactionDb};

/// The Figure 1 situation as a concrete database: σ = 2,
/// MTh = {ABC, BD}.
fn figure1_db() -> TransactionDb {
    TransactionDb::from_index_rows(4, [vec![0, 1, 2], vec![0, 1, 2, 3], vec![1, 3]])
}

#[test]
fn example_8_transversal_identity() {
    // S = {ABC, BD}; H(S) = {D, AC}; Tr(H(S)) = {AD, CD} = Bd⁻(S).
    let u = Universe::letters(4);
    let s = vec![u.parse("ABC").unwrap(), u.parse("BD").unwrap()];
    let h = Hypergraph::from_edges(4, s.iter().map(AttrSet::complement).collect()).unwrap();
    assert_eq!(h.display(&u), "{D, AC}");
    let tr = berge::transversals(&h);
    assert_eq!(tr.display(&u), "{AD, CD}");
    assert_eq!(
        negative_border_via_transversals(4, &s, TrAlgorithm::Berge),
        tr.edges().to_vec()
    );
}

#[test]
fn example_11_levelwise_on_real_database() {
    let db = figure1_db();
    let u = Universe::letters(4);
    let oracle = CountingOracle::new(FrequencyOracle::new(&db, 2));
    let run = levelwise(&oracle);
    // "It starts by evaluating the singletons A, B, C, and D; all of these
    //  are frequent" — plus our explicit ∅ level.
    assert_eq!(run.candidates_per_level, vec![1, 4, 6, 1]);
    assert_eq!(u.display_family(run.positive_border.iter()), "{BD, ABC}");
    assert_eq!(u.display_family(run.negative_border.iter()), "{AD, CD}");
    // Theorem 10: queries = |Th ∪ Bd⁻|.
    assert_eq!(run.queries, (run.theory.len() + 2) as u64);
    assert_eq!(oracle.distinct_queries(), run.queries);
}

#[test]
fn example_17_dualize_and_advance_on_real_database() {
    let db = figure1_db();
    let u = Universe::letters(4);
    let oracle = CountingOracle::new(FrequencyOracle::new(&db, 2));
    let run = dualize_advance(&oracle, TrAlgorithm::Berge);
    assert_eq!(u.display_family(run.maximal.iter()), "{BD, ABC}");
    // "C₃ is exactly MTh and Tr(D̄) is Bd⁻(MTh)."
    assert_eq!(u.display_family(run.negative_border.iter()), "{AD, CD}");
}

#[test]
fn example_19_exponential_intermediate_border() {
    // E = {{x1,x2}, {x3,x4}, ...}: |Tr| = 2^{n/2} although Bd⁻(MTh) of the
    // surrounding mining problem is small.
    for half in 2..=6usize {
        let h = generators::matching(2 * half);
        assert_eq!(berge::transversals(&h).len(), 1 << half);
    }
}

#[test]
fn example_25_learning_view_of_figure1() {
    // The mining problem of Figure 1 maps to learning f = AD ∨ CD with
    // CNF (D)(A ∨ C): DNF terms = Bd⁻, CNF clauses = complements of MTh.
    let u = Universe::letters(4);
    let target = MonotoneDnf::new(4, vec![u.parse("AD").unwrap(), u.parse("CD").unwrap()]);
    let learned = learn_monotone_dualize(FuncMq::new(target.clone()), TrAlgorithm::Berge);
    assert_eq!(learned.dnf.display(&u), "AD ∨ CD");
    assert_eq!(learned.cnf.display(&u), "(D)(A ∨ C)");

    // Cross-check against the mining side.
    let db = figure1_db();
    let fs = apriori(&db, 2);
    assert_eq!(learned.dnf.terms(), fs.negative_border.as_slice());
    let clause_complements: Vec<AttrSet> = learned
        .cnf
        .clauses()
        .iter()
        .map(AttrSet::complement)
        .collect();
    let mut expected = fs.maximal.clone();
    expected.sort_by(|a, b| a.cmp_card_lex(b));
    let mut got = clause_complements;
    got.sort_by(|a, b| a.cmp_card_lex(b));
    assert_eq!(got, expected);
}

#[test]
fn corollary_4_verification_on_real_database() {
    let db = figure1_db();
    let u = Universe::letters(4);
    let maxth = vec![u.parse("ABC").unwrap(), u.parse("BD").unwrap()];
    let oracle = CountingOracle::new(FrequencyOracle::new(&db, 2));
    let out = verify_maxth(&oracle, &maxth, TrAlgorithm::Berge);
    assert!(out.is_maxth);
    assert_eq!(out.queries, 4); // |Bd⁺| + |Bd⁻| = 2 + 2
}

#[test]
fn figure1_all_engines_one_database() {
    // Apriori, generic levelwise, D&A×3 strategies, and the learner bridge
    // all describe the same theory of the same physical database.
    let db = figure1_db();
    let fs = apriori(&db, 2);
    for algo in [
        TrAlgorithm::Berge,
        TrAlgorithm::FkJointGeneration,
        TrAlgorithm::LevelwiseLargeEdges,
    ] {
        let oracle = FrequencyOracle::new(&db, 2);
        let run = dualize_advance(&oracle, algo);
        assert_eq!(run.maximal, fs.maximal, "{algo:?}");
        assert_eq!(run.negative_border, fs.negative_border, "{algo:?}");
    }
}
