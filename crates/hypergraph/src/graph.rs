//! The [`Hypergraph`] type.

use std::fmt;

use dualminer_bitset::{AttrSet, Universe};

use crate::{maximize_family, minimize_family};

/// Error building a [`Hypergraph`] from edges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EdgeError {
    /// An edge's universe size differs from the hypergraph's.
    UniverseMismatch {
        /// Universe size the hypergraph was declared with.
        expected: usize,
        /// Universe size of the offending edge.
        found: usize,
    },
}

impl fmt::Display for EdgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeError::UniverseMismatch { expected, found } => {
                write!(
                    f,
                    "edge universe {found} does not match hypergraph universe {expected}"
                )
            }
        }
    }
}

impl std::error::Error for EdgeError {}

/// A hypergraph: a finite family of edges over the vertex universe
/// `{0, …, n−1}`.
///
/// Edges are kept sorted (cardinality, then lexicographic) and de-duplicated,
/// so equal hypergraphs are structurally equal. The *simple* hypergraphs of
/// the paper — no empty edge, no edge containing another — are obtained with
/// [`Hypergraph::minimized`]; [`Hypergraph::is_simple`] tests the property.
///
/// An edge family that is *not* an antichain is still representable, because
/// several intermediate computations (e.g. the family of complements of a
/// candidate border) pass through non-simple states before minimization.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Hypergraph {
    n: usize,
    edges: Vec<AttrSet>,
}

impl Hypergraph {
    /// The hypergraph with no edges over `n` vertices.
    ///
    /// As a monotone Boolean function this is the constant `false`; every
    /// set (even ∅) is vacuously a transversal, so `Tr(∅) = {∅}`.
    pub fn empty(n: usize) -> Self {
        Hypergraph { n, edges: vec![] }
    }

    /// Builds a hypergraph from edges, sorting and de-duplicating.
    ///
    /// Returns an error if any edge lives in a different universe.
    pub fn from_edges(n: usize, edges: Vec<AttrSet>) -> Result<Self, EdgeError> {
        for e in &edges {
            if e.universe_size() != n {
                return Err(EdgeError::UniverseMismatch {
                    expected: n,
                    found: e.universe_size(),
                });
            }
        }
        let mut h = Hypergraph { n, edges };
        h.normalize();
        Ok(h)
    }

    /// Builds a hypergraph from slices of vertex indices (test/constructor
    /// convenience).
    ///
    /// # Panics
    /// Panics if any vertex index is `>= n`.
    pub fn from_index_edges<I, J>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = J>,
        J: IntoIterator<Item = usize>,
    {
        let edges = edges
            .into_iter()
            .map(|e| AttrSet::from_indices(n, e))
            .collect();
        Self::from_edges(n, edges).expect("indices construct sets in universe n")
    }

    /// Parses a hypergraph from the paper's shorthand, e.g. `"{D, AC}"` or
    /// `"D AC"`.
    pub fn parse(universe: &Universe, text: &str) -> Result<Self, String> {
        let inner = text.trim().trim_start_matches('{').trim_end_matches('}');
        let mut edges = Vec::new();
        for tok in inner.split([',', ' ']).filter(|t| !t.is_empty()) {
            edges.push(universe.parse(tok).map_err(|e| e.to_string())?);
        }
        Self::from_edges(universe.size(), edges).map_err(|e| e.to_string())
    }

    fn normalize(&mut self) {
        self.edges.sort_by(|a, b| a.cmp_card_lex(b));
        self.edges.dedup();
    }

    /// Number of vertices in the universe.
    #[inline]
    pub fn universe_size(&self) -> usize {
        self.n
    }

    /// The edges, sorted by cardinality then lexicographically.
    #[inline]
    pub fn edges(&self) -> &[AttrSet] {
        &self.edges
    }

    /// Number of edges.
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the hypergraph has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Adds an edge, keeping edges sorted and distinct. Returns `true` if
    /// the edge was new.
    ///
    /// # Panics
    /// Panics if the edge's universe differs.
    pub fn add_edge(&mut self, edge: AttrSet) -> bool {
        assert_eq!(
            edge.universe_size(),
            self.n,
            "edge universe does not match hypergraph universe"
        );
        match self.edges.binary_search_by(|e| e.cmp_card_lex(&edge)) {
            Ok(_) => false,
            Err(pos) => {
                self.edges.insert(pos, edge);
                true
            }
        }
    }

    /// Whether `edge` is an edge of the hypergraph.
    pub fn contains_edge(&self, edge: &AttrSet) -> bool {
        self.edges
            .binary_search_by(|e| e.cmp_card_lex(edge))
            .is_ok()
    }

    /// Whether the hypergraph is *simple*: no empty edge and no edge
    /// contains another (paper, Section 3).
    pub fn is_simple(&self) -> bool {
        self.edges.iter().all(|e| !e.is_empty()) && self.is_minimized()
    }

    /// Whether the edges already form the ⊆-antichain `min(H)` (the empty
    /// edge is allowed, but only alone). Edges are card-lex sorted and
    /// distinct, so a later edge can never be a subset of an earlier one
    /// and one direction of the pairwise test suffices.
    pub(crate) fn is_minimized(&self) -> bool {
        self.edges
            .iter()
            .enumerate()
            .all(|(i, a)| self.edges[i + 1..].iter().all(|b| !a.is_subset(b)))
    }

    /// The ⊆-minimal antichain `min(H)`: drops every edge that contains
    /// another edge. `min(H)` has the same transversals as `H`.
    pub fn minimized(&self) -> Hypergraph {
        Hypergraph {
            n: self.n,
            edges: minimize_family(self.edges.clone()),
        }
    }

    /// The ⊆-maximal antichain `max(H)`: drops every edge contained in
    /// another edge.
    pub fn maximized(&self) -> Hypergraph {
        let mut edges = maximize_family(self.edges.clone());
        edges.sort_by(|a, b| a.cmp_card_lex(b));
        Hypergraph { n: self.n, edges }
    }

    /// The hypergraph of edge complements `{R \ E : E ∈ H}` — the paper's
    /// `H(S)` construction from Theorem 7 maps a positive border through
    /// this.
    pub fn complement_edges(&self) -> Hypergraph {
        let edges = self.edges.iter().map(AttrSet::complement).collect();
        Hypergraph::from_edges(self.n, edges).expect("complements stay in universe")
    }

    /// Set of vertices appearing in at least one edge.
    pub fn support(&self) -> AttrSet {
        let mut s = AttrSet::empty(self.n);
        for e in &self.edges {
            s.union_with(e);
        }
        s
    }

    /// Per-vertex edge counts: `degree(v) = |{E ∈ H : v ∈ E}|`.
    pub fn degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.n];
        for e in &self.edges {
            for v in e {
                deg[v] += 1;
            }
        }
        deg
    }

    /// Size of the smallest edge, if any.
    pub fn min_edge_size(&self) -> Option<usize> {
        self.edges.iter().map(AttrSet::len).min()
    }

    /// Size of the largest edge, if any.
    pub fn max_edge_size(&self) -> Option<usize> {
        self.edges.iter().map(AttrSet::len).max()
    }

    /// Renders the hypergraph with the given universe's attribute names.
    pub fn display(&self, universe: &Universe) -> String {
        universe.display_family(self.edges.iter())
    }
}

impl fmt::Debug for Hypergraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hypergraph(n={}, edges=[", self.n)?;
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e:?}")?;
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_sorts_and_dedups() {
        let h = Hypergraph::from_index_edges(4, [vec![3], vec![0, 2], vec![3]]);
        assert_eq!(h.len(), 2);
        assert_eq!(h.edges()[0], AttrSet::from_indices(4, [3]));
        assert_eq!(h.edges()[1], AttrSet::from_indices(4, [0, 2]));
    }

    #[test]
    fn universe_mismatch_rejected() {
        let e = AttrSet::empty(5);
        let err = Hypergraph::from_edges(4, vec![e]).unwrap_err();
        assert_eq!(
            err,
            EdgeError::UniverseMismatch {
                expected: 4,
                found: 5
            }
        );
    }

    #[test]
    fn parse_paper_shorthand() {
        let u = Universe::letters(4);
        let h = Hypergraph::parse(&u, "{D, AC}").unwrap();
        assert_eq!(h.display(&u), "{D, AC}");
        assert!(Hypergraph::parse(&u, "{QQ}").is_err());
    }

    #[test]
    fn simplicity() {
        let simple = Hypergraph::from_index_edges(4, [vec![0, 1], vec![1, 2]]);
        assert!(simple.is_simple());
        let nested = Hypergraph::from_index_edges(4, [vec![0, 1], vec![0, 1, 2]]);
        assert!(!nested.is_simple());
        let with_empty = Hypergraph::from_index_edges(4, [Vec::<usize>::new()]);
        assert!(!with_empty.is_simple());
        assert!(Hypergraph::empty(4).is_simple());
        assert!(with_empty.is_minimized());
        assert!(!nested.is_minimized());
        assert!(nested.minimized().is_minimized());
    }

    #[test]
    fn minimized_and_maximized() {
        let h = Hypergraph::from_index_edges(4, [vec![0, 1], vec![0, 1, 2], vec![3]]);
        assert_eq!(
            h.minimized(),
            Hypergraph::from_index_edges(4, [vec![0, 1], vec![3]])
        );
        assert_eq!(
            h.maximized(),
            Hypergraph::from_index_edges(4, [vec![0, 1, 2], vec![3]])
        );
    }

    #[test]
    fn complement_edges_example8() {
        // Bd+(S) = {ABC, BD} over ABCD; H(S) = complements = {D, AC}.
        let u = Universe::letters(4);
        let bd_plus = Hypergraph::parse(&u, "{ABC, BD}").unwrap();
        assert_eq!(bd_plus.complement_edges().display(&u), "{D, AC}");
    }

    #[test]
    fn add_and_contains() {
        let mut h = Hypergraph::empty(4);
        assert!(h.add_edge(AttrSet::from_indices(4, [1, 2])));
        assert!(!h.add_edge(AttrSet::from_indices(4, [1, 2])));
        assert!(h.contains_edge(&AttrSet::from_indices(4, [1, 2])));
        assert!(!h.contains_edge(&AttrSet::from_indices(4, [1])));
    }

    #[test]
    fn support_and_degrees() {
        let h = Hypergraph::from_index_edges(5, [vec![0, 1], vec![1, 4]]);
        assert_eq!(h.support().to_vec(), vec![0, 1, 4]);
        assert_eq!(h.degrees(), vec![1, 2, 0, 0, 1]);
        assert_eq!(h.min_edge_size(), Some(2));
        assert_eq!(h.max_edge_size(), Some(2));
        assert_eq!(Hypergraph::empty(3).min_edge_size(), None);
    }
}
