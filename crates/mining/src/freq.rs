//! The frequency predicate as an `Is-interesting` oracle.

use dualminer_bitset::AttrSet;
use dualminer_core::oracle::InterestOracle;

use crate::TransactionDb;

/// `q(r, X)` for frequent sets: `support(X) ≥ min_support` (absolute row
/// count). Monotone because a superset is contained in a subset of the
/// rows — the paper's canonical instance.
#[derive(Clone, Debug)]
pub struct FrequencyOracle<'a> {
    db: &'a TransactionDb,
    min_support: usize,
}

impl<'a> FrequencyOracle<'a> {
    /// Builds the oracle with an absolute support threshold.
    ///
    /// # Panics
    /// Panics if `min_support` is 0 — every set would be interesting
    /// including the full one, which is legal but almost always a caller
    /// bug (use `min_support = 1` for "appears at all").
    pub fn new(db: &'a TransactionDb, min_support: usize) -> Self {
        assert!(min_support > 0, "min_support must be positive");
        FrequencyOracle { db, min_support }
    }

    /// Builds the oracle with a relative threshold `σ ∈ (0, 1]`, rounding
    /// the row count up (a set is frequent iff `support ≥ ⌈σ·|r|⌉`).
    pub fn with_relative(db: &'a TransactionDb, sigma: f64) -> Self {
        assert!(sigma > 0.0 && sigma <= 1.0, "σ must be in (0, 1]");
        let min_support = ((sigma * db.n_rows() as f64).ceil() as usize).max(1);
        Self::new(db, min_support)
    }

    /// The absolute threshold in effect.
    pub fn min_support(&self) -> usize {
        self.min_support
    }

    /// The underlying database.
    pub fn db(&self) -> &TransactionDb {
        self.db
    }
}

/// Stateless over an immutable database, so one value can be shared by
/// every worker of the parallel levelwise driver.
impl InterestOracle for FrequencyOracle<'_> {
    fn universe_size(&self) -> usize {
        self.db.n_items()
    }

    fn is_interesting(&self, x: &AttrSet) -> bool {
        self.db.support(x) >= self.min_support
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualminer_core::oracle::check_monotone;

    fn fig1_db() -> TransactionDb {
        TransactionDb::from_index_rows(4, [vec![0, 1, 2], vec![0, 1, 2, 3], vec![1, 3]])
    }

    #[test]
    fn oracle_thresholds() {
        let db = fig1_db();
        let o = FrequencyOracle::new(&db, 2);
        assert!(o.is_interesting(&AttrSet::from_indices(4, [0, 1, 2])));
        assert!(!o.is_interesting(&AttrSet::from_indices(4, [0, 3])));
        assert!(o.is_interesting(&AttrSet::empty(4)));
    }

    #[test]
    fn relative_threshold_rounds_up() {
        let db = fig1_db();
        let o = FrequencyOracle::with_relative(&db, 0.5);
        assert_eq!(o.min_support(), 2); // ⌈0.5·3⌉
        let o = FrequencyOracle::with_relative(&db, 1.0);
        assert_eq!(o.min_support(), 3);
    }

    #[test]
    fn monotone() {
        let db = fig1_db();
        let o = FrequencyOracle::new(&db, 2);
        let samples: Vec<AttrSet> = (0..16usize)
            .map(|b| AttrSet::from_indices(4, (0..4).filter(|i| b >> i & 1 == 1)))
            .collect();
        assert_eq!(check_monotone(&o, &samples), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_support_rejected() {
        let db = fig1_db();
        FrequencyOracle::new(&db, 0);
    }
}
