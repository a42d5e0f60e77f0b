//! One planted antichain, three instantiations: the same `MTh` expressed
//! as a transaction database, as an Armstrong relation, and as a monotone
//! Boolean function must produce corresponding outputs through the
//! paper's mappings (Sections 2, 5, 6).

use dualminer::bitset::AttrSet;
use dualminer::fdep::keys::minimal_keys_via_agree_sets;
use dualminer::fdep::Relation;
use dualminer::hypergraph::{maximize_family, TrAlgorithm};
use dualminer::learning::learn::learn_monotone_dualize;
use dualminer::learning::{FuncMq, MonotoneCnf};
use dualminer::mining::gen::{planted, random_antichain};
use dualminer::mining::maximal::{maximal_frequent_sets, MaximalStrategy};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 8;

fn planted_antichain(seed: u64) -> Vec<AttrSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plants = random_antichain(N, 4, 4, &mut rng);
    plants = maximize_family(plants);
    plants.sort_by(|a, b| a.cmp_card_lex(b));
    plants
}

#[test]
fn mining_and_fdep_instances_correspond() {
    for seed in 0..5u64 {
        let plants = planted_antichain(seed);

        // Mining view: MTh = plants, Bd⁻ = minimal infrequent sets.
        let db = planted(N, &plants, 2);
        let mining = maximal_frequent_sets(&db, 2, MaximalStrategy::Levelwise);
        assert_eq!(mining.maximal, plants, "seed={seed}");

        // FD view: maximal agree sets = plants, minimal keys = Bd⁻.
        let rel = Relation::armstrong(N, &plants);
        let keys = minimal_keys_via_agree_sets(&rel, TrAlgorithm::Berge);
        assert_eq!(keys.maximal_non_superkeys, plants, "seed={seed}");
        assert_eq!(keys.minimal_keys, mining.negative_border, "seed={seed}");
    }
}

#[test]
fn mining_and_learning_instances_correspond() {
    for seed in 5..10u64 {
        let plants = planted_antichain(seed);
        let db = planted(N, &plants, 2);
        let mining = maximal_frequent_sets(&db, 2, MaximalStrategy::Levelwise);

        // Learning view (Theorem 24): f = ¬q has CNF clauses = complements
        // of MTh and DNF terms = Bd⁻.
        let cnf = MonotoneCnf::new(N, plants.iter().map(AttrSet::complement).collect());
        let target = cnf.to_dnf();
        let learned =
            learn_monotone_dualize(FuncMq::new(target.clone()), TrAlgorithm::FkJointGeneration);
        assert_eq!(learned.dnf.terms(), mining.negative_border.as_slice());
        let mut clause_complements: Vec<AttrSet> = learned
            .cnf
            .clauses()
            .iter()
            .map(AttrSet::complement)
            .collect();
        clause_complements.sort_by(|a, b| a.cmp_card_lex(b));
        assert_eq!(clause_complements, mining.maximal, "seed={seed}");
    }
}

#[test]
fn query_counts_transfer_across_instances() {
    // The abstract query-count identities (Theorem 10) hold in every
    // instantiation because all of them route through the same oracle
    // machinery.
    use dualminer::core::levelwise::levelwise;
    use dualminer::core::oracle::CountingOracle;
    use dualminer::fdep::keys::NonSuperkeyOracle;
    use dualminer::mining::FrequencyOracle;

    for seed in 10..13u64 {
        let plants = planted_antichain(seed);

        let db = planted(N, &plants, 2);
        let mq = CountingOracle::new(FrequencyOracle::new(&db, 2));
        let run_m = levelwise(&mq);
        assert_eq!(run_m.queries, run_m.theorem10_count());

        let rel = Relation::armstrong(N, &plants);
        let kq = CountingOracle::new(NonSuperkeyOracle::new(&rel));
        let run_k = levelwise(&kq);
        assert_eq!(run_k.queries, run_k.theorem10_count());

        // Same planted MTh ⇒ identical theories ⇒ identical query bills.
        assert_eq!(run_m.queries, run_k.queries, "seed={seed}");
        assert_eq!(run_m.theory, run_k.theory, "seed={seed}");
    }
}
