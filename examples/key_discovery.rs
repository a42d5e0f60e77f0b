//! Key and functional-dependency discovery from a relation instance — the
//! paper's database-design instance (Sections 1 and 5; Mannila–Räihä
//! \[16, 17\]).
//!
//! Shows the same minimal keys computed three ways: directly from agree
//! sets plus one hypergraph-transversal run (the Section 5 remark), and
//! under the restricted `Is-interesting` access model with Dualize &
//! Advance and with the levelwise algorithm — plus fixed-RHS FD discovery.
//!
//! Run with: `cargo run --release --example key_discovery`

use dualminer::bitset::Universe;
use dualminer::fdep::agree::{agree_sets, maximal_agree_sets};
use dualminer::fdep::fd::all_minimal_fds;
use dualminer::fdep::keys::{
    minimal_keys_dualize_advance, minimal_keys_levelwise, minimal_keys_via_agree_sets,
};
use dualminer::fdep::Relation;
use dualminer::hypergraph::TrAlgorithm;

fn main() {
    // A small "employees" relation:
    //   dept, role, room, phone, badge
    let universe = Universe::new(["dept", "role", "room", "phone", "badge"]);
    let rel = Relation::new(
        5,
        vec![
            //    dept role room phone badge
            vec![0, 0, 100, 10, 1],
            vec![0, 1, 100, 11, 2],
            vec![1, 0, 200, 10, 3],
            vec![1, 1, 201, 12, 4],
            vec![0, 2, 101, 13, 5],
        ],
    );
    println!(
        "Relation: {} attributes × {} rows\n",
        rel.n_attrs(),
        rel.n_rows()
    );

    // The maximal agree sets = the maximal non-superkeys = MTh.
    let max_ag = maximal_agree_sets(&rel);
    println!("Maximal agree sets (Bd⁺ of the key-discovery theory):");
    for ag in &max_ag {
        println!("  {}", universe.display(ag));
    }

    // Minimal keys, three ways.
    let direct = minimal_keys_via_agree_sets(&rel, TrAlgorithm::Berge);
    let da = minimal_keys_dualize_advance(&rel, TrAlgorithm::FkJointGeneration);
    let lw = minimal_keys_levelwise(&rel);
    assert_eq!(direct.minimal_keys, da.minimal_keys);
    assert_eq!(direct.minimal_keys, lw.minimal_keys);

    println!("\nMinimal keys (= Tr of the agree-set complements):");
    for k in &direct.minimal_keys {
        println!("  {{{}}}", universe.display(k).replace(',', ", "));
    }
    println!("\nIs-interesting queries spent:");
    println!(
        "  agree sets + one HTR run (full data access): {}",
        direct.queries
    );
    println!(
        "  dualize & advance (oracle access only):      {}",
        da.queries
    );
    println!(
        "  levelwise (oracle access only):              {}",
        lw.queries
    );

    // FDs with fixed right-hand sides, every target from one agree-set
    // pass.
    println!("\nMinimal functional dependencies:");
    for d in all_minimal_fds(&agree_sets(&rel), rel.n_attrs(), TrAlgorithm::Auto) {
        for lhs in &d.minimal_lhs {
            println!(
                "  {{{}}} → {}",
                universe.display(lhs).replace(',', ", "),
                universe.name(d.target)
            );
        }
    }
}
