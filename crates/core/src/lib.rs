//! # dualminer-core
//!
//! The data-mining framework of Gunopulos, Khardon, Mannila and Toivonen,
//! *"Data mining, Hypergraph Transversals, and Machine Learning"*
//! (PODS 1997): finding all maximally specific interesting sentences.
//!
//! ## The model
//!
//! A data mining task is a triple `(L, r, q)`: a language `L` of sentences,
//! a database `r`, and an interestingness predicate `q`. The **theory**
//! `Th(L, r, q)` is the set of interesting sentences; under a monotone
//! specialization relation its maximal elements `MTh(L, r, q)` represent it
//! compactly (Problem **MaxTh**, Problem 1 of the paper). For languages
//! *representable as sets* (Definition 6) the lattice is a subset lattice
//! over an attribute universe, which is the setting this crate implements:
//! sentences are [`AttrSet`]s, and the database is hidden behind an
//! [`oracle::InterestOracle`] answering only `Is-interesting` queries — the
//! paper's model of computation (Section 3).
//!
//! ## What lives here
//!
//! * [`oracle`] — the oracle trait, query counting and memoization.
//! * [`fallible`] — the drivers' one query step: seeded fault injection
//!   and bounded retries around every `Is-interesting` query.
//! * [`checkpoint`] — what the full drivers persist at safe points and
//!   how a resumed run picks it back up.
//! * [`border`] — positive/negative borders `Bd⁺`/`Bd⁻`, the Theorem 7
//!   identity `Bd⁻(S) = f⁻¹(Tr(H(S)))`, and the Corollary 4 verifier that
//!   decides `S = MTh` with exactly `|Bd(S)|` queries.
//! * [`levelwise`] — Algorithm 9, the generalized Apriori; its query count
//!   is exactly `|Th ∪ Bd⁻(Th)|` (Theorem 10) and bounded by
//!   `dc(k) · width · |MTh|` (Theorem 12).
//! * [`dualize_advance`] — Algorithm 16: jump between maximal sentences by
//!   dualizing the current collection (a minimal-transversal computation)
//!   and advancing from any interesting transversal found on the negative
//!   border; at most `|Bd⁻(MTh)|` candidates per iteration (Lemma 20) and
//!   `|MTh| · (|Bd⁻(MTh)| + rank·width)` queries overall (Theorem 21).
//! * [`random_walk`] — the randomized maximal-sentence discovery of
//!   Gunopulos–Mannila–Saluja (ICDT 1997), the empirical precursor the
//!   paper cites as reference \[11\].
//! * [`bounds`] — closed forms of every bound in the paper, so experiments
//!   can report `measured / bound` tightness.
//! * [`lang`] — the representation-as-sets vocabulary: `rank`, `width`,
//!   `dc(k)`, and the encoding trait used by the FD and learning crates.
//!
//! ## Quick example (the paper's Figure 1 database)
//!
//! ```
//! use dualminer_bitset::Universe;
//! use dualminer_core::levelwise::levelwise;
//! use dualminer_core::oracle::{CountingOracle, FamilyOracle};
//!
//! // Interesting = subset of ABC or of BD (Figure 1 / Example 8).
//! let u = Universe::letters(4);
//! let maxth = vec![u.parse("ABC").unwrap(), u.parse("BD").unwrap()];
//! let oracle = CountingOracle::new(FamilyOracle::new(4, maxth.clone()));
//! let run = levelwise(&oracle);
//!
//! assert_eq!(u.display_family(run.positive_border.iter()), "{BD, ABC}");
//! assert_eq!(u.display_family(run.negative_border.iter()), "{AD, CD}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod border;
pub mod bounds;
pub mod checkpoint;
pub mod dualize_advance;
pub mod fallible;
pub mod lang;
pub mod levelwise;
pub mod oracle;
pub mod random_walk;

pub use dualminer_bitset::AttrSet;
