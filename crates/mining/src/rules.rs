//! Association rules from mined frequent sets.
//!
//! Section 2 of the paper: *"Once the frequent sets are found the problem
//! of computing association rules from them is straightforward. For each
//! frequent set Z, and for each A ∈ Z one can test the confidence of the
//! rule Z \ A ⇒ A."* This module is exactly that loop: no further database
//! access is needed, because every support involved (`Z` and `Z \ A`) is
//! already in the mined collection (frequent sets are downward closed).

use std::fmt::{self, Write as _};

use dualminer_bitset::{AttrSet, Universe};

use crate::apriori::FrequentSets;

/// An association rule `antecedent ⇒ consequent` with its statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct AssociationRule {
    /// The left-hand side `X = Z \ A`.
    pub antecedent: AttrSet,
    /// The single right-hand-side attribute `A`.
    pub consequent: usize,
    /// Absolute support of `Z = X ∪ {A}`.
    pub support: usize,
    /// `support(Z) / support(X)` ∈ (0, 1].
    pub confidence: f64,
}

impl AssociationRule {
    /// Relative support given the database row count.
    pub fn frequency(&self, n_rows: usize) -> f64 {
        if n_rows == 0 {
            0.0
        } else {
            self.support as f64 / n_rows as f64
        }
    }

    /// Renders the rule with item names, e.g. `AB ⇒ C (supp 2, conf 1.00)`.
    pub fn display(&self, universe: &Universe) -> String {
        let mut out = String::new();
        self.write(&mut out, universe);
        out
    }

    /// Appends [`display`](Self::display)'s rendering to `out`.
    pub fn write(&self, out: &mut String, universe: &Universe) {
        universe.write_set(out, &self.antecedent);
        let _ = write!(
            out,
            " ⇒ {} (supp {}, conf {:.2})",
            universe.name(self.consequent),
            self.support,
            self.confidence
        );
    }
}

/// Without a universe, `Display` falls back to index notation.
impl fmt::Display for AssociationRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} ⇒ {} (supp {}, conf {:.2})",
            self.antecedent, self.consequent, self.support, self.confidence
        )
    }
}

/// Derives all association rules `Z \ A ⇒ A` with
/// `confidence ≥ min_confidence` from a mined frequent-set collection.
///
/// Rules are sorted by descending confidence, then descending support,
/// then antecedent order, for stable output.
pub fn association_rules(frequent: &FrequentSets, min_confidence: f64) -> Vec<AssociationRule> {
    assert!(
        (0.0..=1.0).contains(&min_confidence),
        "confidence threshold must be in [0, 1]"
    );
    let supports = frequent.support_index();
    let mut rules = Vec::new();
    for (z, support) in &frequent.itemsets {
        let support = *support;
        if z.is_empty() {
            continue;
        }
        for a in z {
            let mut x = z.clone();
            x.remove(a);
            let x_support = supports[&x]; // present: theory is closed down
            let confidence = support as f64 / x_support as f64;
            if confidence >= min_confidence {
                rules.push(AssociationRule {
                    antecedent: x,
                    consequent: a,
                    support,
                    confidence,
                });
            }
        }
    }
    rules.sort_by(|a, b| {
        b.confidence
            .total_cmp(&a.confidence)
            .then(b.support.cmp(&a.support))
            .then(a.antecedent.cmp_card_lex(&b.antecedent))
            .then(a.consequent.cmp(&b.consequent))
    });
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::apriori;
    use crate::TransactionDb;

    fn fig1_mined() -> FrequentSets {
        let db = TransactionDb::from_index_rows(4, [vec![0, 1, 2], vec![0, 1, 2, 3], vec![1, 3]]);
        apriori(&db, 2)
    }

    #[test]
    fn rules_have_correct_statistics() {
        let fs = fig1_mined();
        let rules = association_rules(&fs, 0.0);
        let u = Universe::letters(4);
        // A ⇒ B: supp(AB)=2, supp(A)=2 → conf 1.0.
        let ab = rules
            .iter()
            .find(|r| r.antecedent == u.parse("A").unwrap() && r.consequent == 1)
            .expect("rule A ⇒ B");
        assert_eq!(ab.support, 2);
        assert!((ab.confidence - 1.0).abs() < 1e-12);
        // B ⇒ D: supp(BD)=2, supp(B)=3 → conf 2/3.
        let bd = rules
            .iter()
            .find(|r| r.antecedent == u.parse("B").unwrap() && r.consequent == 3)
            .expect("rule B ⇒ D");
        assert!((bd.confidence - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn confidence_threshold_filters() {
        let fs = fig1_mined();
        let all = association_rules(&fs, 0.0);
        let confident = association_rules(&fs, 0.9);
        assert!(confident.len() < all.len());
        assert!(confident.iter().all(|r| r.confidence >= 0.9));
    }

    #[test]
    fn rule_count_matches_enumeration() {
        // Every (frequent Z, A ∈ Z) pair yields exactly one candidate rule.
        let fs = fig1_mined();
        let expected: usize = fs.itemsets.iter().map(|(z, _)| z.len()).sum();
        assert_eq!(association_rules(&fs, 0.0).len(), expected);
    }

    #[test]
    fn sorted_by_confidence() {
        let fs = fig1_mined();
        let rules = association_rules(&fs, 0.0);
        for w in rules.windows(2) {
            assert!(w[0].confidence >= w[1].confidence);
        }
    }

    #[test]
    fn display_is_readable() {
        let fs = fig1_mined();
        let u = Universe::letters(4);
        let rules = association_rules(&fs, 1.0);
        assert!(rules
            .iter()
            .any(|r| r.display(&u) == "A ⇒ B (supp 2, conf 1.00)"));
    }

    #[test]
    fn empty_antecedent_rules_exist() {
        // Z = {B}: rule ∅ ⇒ B with conf supp(B)/supp(∅) = 1.0.
        let fs = fig1_mined();
        let rules = association_rules(&fs, 0.0);
        assert!(rules
            .iter()
            .any(|r| r.antecedent.is_empty() && r.consequent == 1));
    }
}
