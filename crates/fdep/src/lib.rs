//! # dualminer-fdep
//!
//! Key and functional-dependency discovery from relation instances — the
//! paper's database-theory instance of the MaxTh framework (Sections 1, 2
//! and the Section 5 closing remark).
//!
//! The mapping: declare `X ⊆ R` **interesting iff X is not a superkey**
//! (two rows agree on all of `X`). The predicate is monotone — shrinking
//! `X` only merges more rows — and:
//!
//! * `MTh` = the maximal non-superkeys = the **maximal agree sets** of the
//!   relation;
//! * `Bd⁻(MTh)` = the minimal sets that *are* superkeys = the **minimal
//!   keys**, which by Theorem 7 are the minimal transversals of the
//!   complements of the maximal agree sets (Mannila–Räihä, refs \[16, 17\]).
//!
//! The Section 5 remark — *"for functional dependencies with fixed right
//! hand side, and for keys, even simpler algorithms can be used … one can
//! access the database and directly compute `Bd⁺(MTh)`"* — is
//! [`keys::minimal_keys_via_agree_sets`]: one pass over row pairs computes
//! the agree sets, then a single HTR run yields all minimal keys. The
//! oracle-only algorithms (levelwise, Dualize & Advance) solve the same
//! problem under the restricted `Is-interesting` access model; experiment
//! E12 compares their query bills.
//!
//! FDs with a fixed right-hand side `A` (module [`fd`]) work the same way
//! over the reduced universe `R \ {A}` — a genuinely non-identity
//! representation-as-sets (Definition 6), implemented as
//! [`fd::FdLhsRepresentation`]. Aligned inclusion dependencies — the third
//! instance the paper names — live in [`ind`]: `r[X] ⊆ s[X]` is monotone
//! in `X`, so the maximal satisfied INDs are another `MTh`.

//! # Example
//!
//! ```
//! use dualminer_fdep::keys::minimal_keys_via_agree_sets;
//! use dualminer_fdep::Relation;
//! use dualminer_hypergraph::TrAlgorithm;
//!
//! let rel = Relation::new(3, vec![
//!     vec![0, 0, 0],
//!     vec![0, 1, 1],
//!     vec![1, 1, 0],
//! ]);
//! let keys = minimal_keys_via_agree_sets(&rel, TrAlgorithm::Auto);
//! // Agree sets are the singletons, so every pair is a minimal key.
//! assert_eq!(keys.minimal_keys.len(), 3);
//! assert_eq!(keys.queries, 0); // no Is-interesting queries needed
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agree;
pub mod fd;
pub mod ind;
pub mod keys;
mod relation;

pub use relation::Relation;
