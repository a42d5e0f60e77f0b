//! # dualminer
//!
//! A from-scratch Rust reproduction of
//!
//! > D. Gunopulos, R. Khardon, H. Mannila, H. Toivonen.
//! > *Data mining, Hypergraph Transversals, and Machine Learning.*
//! > PODS 1997, pp. 209–216.
//!
//! This facade crate re-exports the whole workspace so downstream users
//! need a single dependency:
//!
//! * [`bitset`] — fixed-universe attribute bitsets ([`bitset::AttrSet`],
//!   [`bitset::Universe`]).
//! * [`hypergraph`] — simple hypergraphs and minimal-transversal engines
//!   (Berge, Fredman–Khachiyan duality + joint generation, the paper's
//!   Corollary 15 levelwise special case, MU-MMCS, EGM decomposition)
//!   behind one planner-fronted dispatcher, plus brute force.
//! * [`core`] — the paper's framework: `Is-interesting` oracles, borders
//!   `Bd⁺`/`Bd⁻` with the Theorem 7 transversal identity, the levelwise
//!   algorithm (Algorithm 9), Dualize & Advance (Algorithm 16), the
//!   Corollary 4 verifier, and closed forms of every bound.
//! * [`mining`] — frequent itemsets, maximal-frequent-set mining,
//!   association rules, workload generators.
//! * [`fdep`] — key and functional-dependency discovery via agree sets.
//! * [`episodes`] — frequent-episode discovery in event sequences: the
//!   paper's example of a language **not** representable as sets.
//! * [`learning`] — exact learning of monotone Boolean functions with
//!   membership queries (Section 6's equivalence).
//! * [`obs`] — observability and resource governance: [`obs::Budget`]
//!   (wall-clock / query / transversal limits), [`obs::MiningObserver`]
//!   event hooks, and the [`obs::Outcome`] typed partial result every
//!   budgeted `*_ctl` entry point returns.
//!
//! ## Quickstart
//!
//! ```
//! use dualminer::bitset::Universe;
//! use dualminer::mining::apriori::apriori;
//! use dualminer::mining::rules::association_rules;
//! use dualminer::mining::TransactionDb;
//!
//! // The Figure 1 database: maximal frequent sets at σ=2 are ABC and BD.
//! let db = TransactionDb::from_index_rows(
//!     4,
//!     [vec![0, 1, 2], vec![0, 1, 2, 3], vec![1, 3]],
//! );
//! let frequent = apriori(&db, 2);
//! let u = Universe::letters(4);
//! assert_eq!(u.display_family(frequent.maximal.iter()), "{BD, ABC}");
//!
//! let rules = association_rules(&frequent, 0.9);
//! assert!(!rules.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dualminer_bitset as bitset;
pub use dualminer_core as core;
pub use dualminer_episodes as episodes;
pub use dualminer_fdep as fdep;
pub use dualminer_hypergraph as hypergraph;
pub use dualminer_learning as learning;
pub use dualminer_mining as mining;
pub use dualminer_obs as obs;
