//! # dualminer-mining
//!
//! The frequent-set instantiation of the PODS'97 framework: 0/1 relations
//! (transaction databases), support counting, frequent and maximal-frequent
//! itemset mining, association rules, and synthetic workload generators.
//!
//! Section 2 of the paper: given a 0/1 relation `r` over attributes `R` and
//! a support threshold `σ`, the language is `P(R)`, `q(r, X)` holds iff the
//! fraction of rows containing all of `X` is at least `σ`, and the theory
//! is the family of **frequent sets** — the essential stage of association
//! rule mining (Agrawal–Imieliński–Swami 1993). Frequent sets are the
//! paper's running example and the identity case of representation as sets
//! (`f(X) = X`, Example 8).
//!
//! * [`TransactionDb`] — a segmented vertical store ([`vstore`]) of
//!   per-item tidsets with lazily transposed horizontal rows, held whole
//!   in memory; support counting is a streaming AND + popcount over one
//!   row segment at a time.
//! * [`FrequencyOracle`] — the `Is-interesting` adapter: *frequent =
//!   interesting*, monotone by construction.
//! * [`apriori`] — the specialized levelwise miner that also records
//!   supports (Eclat/dEclat tid structures along the prefix tree), with
//!   two entry points: [`apriori::apriori`] and the parallel, budgeted
//!   [`apriori::apriori_par_ctl`]. Checkpointed and fault-tolerant runs
//!   drive the generic `dualminer_core::levelwise::levelwise_ctl` over a
//!   [`FrequencyOracle`] instead, whose safe points are level
//!   boundaries.
//! * [`maximal`] — maximal-frequent-set mining by levelwise, by Dualize &
//!   Advance, or by random restarts, all through the `dualminer-core`
//!   machinery.
//! * [`rules`] — association rules `X ⇒ A` with support and confidence
//!   from a mined frequent-set collection (the paper's closing remark of
//!   Section 2).
//! * [`gen`] — planted-`MTh` databases (exact control of the theorem
//!   parameters), IBM-Quest-style baskets, dense matrices, and the
//!   Example 19 regime.

//! # Example
//!
//! ```
//! use dualminer_bitset::Universe;
//! use dualminer_mining::apriori::apriori;
//! use dualminer_mining::TransactionDb;
//!
//! let db = TransactionDb::from_index_rows(
//!     4,
//!     [vec![0, 1, 2], vec![0, 1, 2, 3], vec![1, 3]],
//! );
//! let fs = apriori(&db, 2);
//! let u = Universe::letters(4);
//! assert_eq!(u.display_family(fs.maximal.iter()), "{BD, ABC}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apriori;
pub mod closed;
pub mod freq;
pub mod gen;
pub mod incremental;
pub mod maximal;
pub mod rules;
pub mod sampling;
mod tdb;
pub mod vstore;

pub use freq::FrequencyOracle;
pub use tdb::TransactionDb;
pub use vstore::{VStore, VStoreBuilder, DEFAULT_SEGMENT_ROWS};
