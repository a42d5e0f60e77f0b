//! A set-trie: a prefix tree over ascending-index set representations.
//!
//! Families of sets — levels of the subset lattice, antichains of minimal
//! transversals, theories — keep asking the same two questions: *does the
//! family contain a subset of `x`?* and *does it contain a superset of
//! `x`?* Answering them by pairwise scan is `O(m)` subset tests per query,
//! the quadratic bottleneck of antichain minimization (Berge's per-edge
//! re-minimization, FK's irredundancy stripping) and of border derivation.
//!
//! The set-trie (Savnik's structure; the same idea powers the
//! Rymon-tree candidate indexes of frequent-set miners) stores each set as
//! the path of its members in ascending order. Because paths are sorted,
//! subset and superset queries become *pruned* depth-first searches:
//!
//! * `has_subset_of(x)` only ever descends edges labelled by members of
//!   `x` — the search space is the lattice of subsets of `x` that appear
//!   as trie paths, not the whole family;
//! * `has_superset_of(x)` must match the members of `x` in order and may
//!   skip over any other labels, stopping early because labels on any
//!   root-to-leaf path are strictly increasing.
//!
//! Both run in output-sensitive time: on sparse families they touch a
//! handful of nodes, and they never allocate. This module is the index
//! behind `minimize_family`/`maximize_family`, the prefix-join candidate
//! generator, and maximal-set/border derivation.

use crate::AttrSet;

/// Handle to a node of a [`SetTrie`] — exposed so lattice walkers (the
/// levelwise candidate generator) can reuse partial descents instead of
/// re-walking shared prefixes. Handles are only meaningful for the trie
/// that produced them and are invalidated by [`SetTrie::clear`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeId(u32);

#[derive(Clone, Debug)]
struct Node {
    /// Children as `(item, node)` pairs, sorted by item. Items along any
    /// root-to-leaf path are strictly increasing.
    children: Vec<(u32, u32)>,
    /// Whether the path ending here is a stored set.
    terminal: bool,
}

impl Node {
    fn new() -> Self {
        Node {
            children: Vec::new(),
            terminal: false,
        }
    }

    #[inline]
    fn child(&self, item: u32) -> Option<u32> {
        // Small fan-outs dominate in practice; binary search still wins on
        // the wide root of large-universe families.
        self.children
            .binary_search_by_key(&item, |&(v, _)| v)
            .ok()
            .map(|i| self.children[i].1)
    }
}

/// A prefix tree over ascending-index set representations with
/// subset/superset existence queries.
///
/// Sets are identified by their member *indices*; universes never enter
/// the structure, so sets from differently-sized universes can be mixed
/// freely (membership is index-based, exactly like
/// [`AttrSet::cmp_lex`] across universes).
///
/// # Example
///
/// ```
/// use dualminer_bitset::{AttrSet, SetTrie};
///
/// let mut trie = SetTrie::new();
/// trie.insert(&AttrSet::from_indices(8, [1, 3]));
/// trie.insert(&AttrSet::from_indices(8, [2, 5, 6]));
///
/// let x = AttrSet::from_indices(8, [1, 3, 7]);
/// assert!(trie.has_subset_of(&x)); // {1,3} ⊆ {1,3,7}
/// assert!(!trie.has_superset_of(&x));
/// assert!(trie.has_superset_of(&AttrSet::from_indices(8, [2, 6])));
/// ```
#[derive(Clone, Debug)]
pub struct SetTrie {
    /// Arena of nodes; index 0 is the root (the empty prefix).
    nodes: Vec<Node>,
    /// Number of stored (distinct) sets.
    len: usize,
}

impl Default for SetTrie {
    fn default() -> Self {
        SetTrie::new()
    }
}

impl SetTrie {
    /// An empty trie.
    pub fn new() -> Self {
        SetTrie {
            nodes: vec![Node::new()],
            len: 0,
        }
    }

    /// Number of distinct sets stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no set is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every stored set (the arena is reused).
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.nodes.push(Node::new());
        self.len = 0;
    }

    /// The root node: the empty prefix.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Whether the path ending at `node` is a stored set.
    pub fn is_terminal(&self, node: NodeId) -> bool {
        self.nodes[node.0 as usize].terminal
    }

    /// Follows the edge labelled `item` out of `node`, if present.
    pub fn descend(&self, node: NodeId, item: usize) -> Option<NodeId> {
        self.nodes[node.0 as usize].child(item as u32).map(NodeId)
    }

    /// Follows the edges labelled by `items` (which must be strictly
    /// ascending and all larger than the labels on the path to `node`).
    pub fn descend_slice(&self, node: NodeId, items: &[usize]) -> Option<NodeId> {
        let mut at = node;
        for &item in items {
            at = self.descend(at, item)?;
        }
        Some(at)
    }

    /// Inserts the set with the given strictly ascending member indices.
    /// Returns `true` if it was not already stored.
    pub fn insert_ascending<I: IntoIterator<Item = usize>>(&mut self, items: I) -> bool {
        let mut at = 0usize;
        let mut prev: Option<usize> = None;
        for item in items {
            debug_assert!(
                prev.map_or(true, |p| p < item),
                "insert_ascending requires strictly ascending indices"
            );
            prev = Some(item);
            let item = u32::try_from(item).expect("attribute index fits in u32");
            at = match self.nodes[at].child(item) {
                Some(c) => c as usize,
                None => {
                    let fresh = self.nodes.len();
                    let fresh_id = u32::try_from(fresh).expect("trie node count fits in u32");
                    self.nodes.push(Node::new());
                    let pos = self.nodes[at]
                        .children
                        .binary_search_by_key(&item, |&(v, _)| v)
                        .expect_err("child was just found absent");
                    self.nodes[at].children.insert(pos, (item, fresh_id));
                    fresh
                }
            };
        }
        let fresh = !self.nodes[at].terminal;
        self.nodes[at].terminal = true;
        self.len += usize::from(fresh);
        fresh
    }

    /// Inserts `s`. Returns `true` if it was not already stored.
    pub fn insert(&mut self, s: &AttrSet) -> bool {
        self.insert_ascending(s.iter())
    }

    /// Whether the set with the given strictly ascending member indices is
    /// stored.
    pub fn contains_ascending<I: IntoIterator<Item = usize>>(&self, items: I) -> bool {
        let mut at = self.root();
        for item in items {
            match self.descend(at, item) {
                Some(c) => at = c,
                None => return false,
            }
        }
        self.is_terminal(at)
    }

    /// Whether `s` is stored.
    pub fn contains(&self, s: &AttrSet) -> bool {
        self.contains_ascending(s.iter())
    }

    /// Whether some stored set is a subset of `x` (`∃ S ∈ trie: S ⊆ x`,
    /// including `S = x`).
    ///
    /// The search descends only edges labelled by members of `x`, so it
    /// explores the stored subsets of `x`'s power set — never the whole
    /// family.
    pub fn has_subset_of(&self, x: &AttrSet) -> bool {
        self.subset_rec(0, x)
    }

    fn subset_rec(&self, node: usize, x: &AttrSet) -> bool {
        let nd = &self.nodes[node];
        if nd.terminal {
            return true;
        }
        nd.children
            .iter()
            .any(|&(v, c)| x.contains(v as usize) && self.subset_rec(c as usize, x))
    }

    /// Whether some stored set is a superset of `x` (`∃ S ∈ trie: S ⊇ x`,
    /// including `S = x`).
    pub fn has_superset_of(&self, x: &AttrSet) -> bool {
        if self.len == 0 {
            return false;
        }
        let items: Vec<u32> = x.iter().map(|i| i as u32).collect();
        self.superset_rec(0, &items)
    }

    fn superset_rec(&self, node: usize, items: &[u32]) -> bool {
        // Every node lies on the path of at least one stored set (nodes are
        // only created by insertions and never removed), so once all of
        // `x`'s members are matched any reachable node suffices.
        let Some(&want) = items.first() else {
            return true;
        };
        for &(v, c) in &self.nodes[node].children {
            if v > want {
                // Labels below only grow; `want` can no longer be matched.
                return false;
            }
            let rest = if v == want { &items[1..] } else { items };
            if self.superset_rec(c as usize, rest) {
                return true;
            }
        }
        false
    }

    /// Whether some stored set is a **proper** superset of `x`
    /// (`∃ S ∈ trie: S ⊃ x, S ≠ x`).
    ///
    /// This is the maximality test of border derivation: a theory member is
    /// maximal iff the theory holds no proper superset of it.
    pub fn has_proper_superset_of(&self, x: &AttrSet) -> bool {
        if self.len == 0 {
            return false;
        }
        let items: Vec<u32> = x.iter().map(|i| i as u32).collect();
        self.proper_superset_rec(0, &items, false)
    }

    fn proper_superset_rec(&self, node: usize, items: &[u32], skipped: bool) -> bool {
        let Some(&want) = items.first() else {
            if skipped {
                // Already strictly larger than x; any stored set below
                // (and one exists, see `superset_rec`) is a witness.
                return true;
            }
            // The path so far spells exactly x: a witness must continue
            // strictly below this node. Any child's subtree stores a set.
            return !self.nodes[node].children.is_empty();
        };
        for &(v, c) in &self.nodes[node].children {
            if v > want {
                return false;
            }
            let (rest, skip) = if v == want {
                (&items[1..], skipped)
            } else {
                (items, true)
            };
            if self.proper_superset_rec(c as usize, rest, skip) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: impl IntoIterator<Item = usize>) -> AttrSet {
        AttrSet::from_indices(16, items)
    }

    #[test]
    fn empty_trie_answers_no() {
        let trie = SetTrie::new();
        assert!(trie.is_empty());
        assert!(!trie.contains(&set([])));
        assert!(!trie.has_subset_of(&set([0, 1, 2])));
        assert!(!trie.has_superset_of(&set([])));
        assert!(!trie.has_proper_superset_of(&set([])));
    }

    #[test]
    fn insert_contains_dedup() {
        let mut trie = SetTrie::new();
        assert!(trie.insert(&set([1, 3, 5])));
        assert!(!trie.insert(&set([1, 3, 5])));
        assert!(trie.insert(&set([1, 3])));
        assert!(trie.insert(&set([])));
        assert_eq!(trie.len(), 3);
        assert!(trie.contains(&set([1, 3, 5])));
        assert!(trie.contains(&set([1, 3])));
        assert!(trie.contains(&set([])));
        assert!(!trie.contains(&set([1])));
        assert!(!trie.contains(&set([1, 3, 5, 7])));
    }

    #[test]
    fn empty_set_is_subset_of_everything() {
        let mut trie = SetTrie::new();
        trie.insert(&set([]));
        assert!(trie.has_subset_of(&set([])));
        assert!(trie.has_subset_of(&set([4, 9])));
        assert!(trie.has_superset_of(&set([])));
        assert!(!trie.has_proper_superset_of(&set([])));
    }

    #[test]
    fn subset_and_superset_queries() {
        let mut trie = SetTrie::new();
        trie.insert(&set([0, 2]));
        trie.insert(&set([1, 2, 3]));
        trie.insert(&set([5]));

        assert!(trie.has_subset_of(&set([0, 2, 7])));
        assert!(trie.has_subset_of(&set([0, 2])));
        assert!(!trie.has_subset_of(&set([0, 1, 3])));
        assert!(trie.has_subset_of(&set([5, 6])));

        assert!(trie.has_superset_of(&set([1, 3])));
        assert!(trie.has_superset_of(&set([2])));
        assert!(trie.has_superset_of(&set([5])));
        assert!(!trie.has_superset_of(&set([0, 1])));
        assert!(!trie.has_superset_of(&set([6])));
    }

    #[test]
    fn proper_superset_excludes_the_set_itself() {
        let mut trie = SetTrie::new();
        trie.insert(&set([0, 2]));
        assert!(trie.has_superset_of(&set([0, 2])));
        assert!(!trie.has_proper_superset_of(&set([0, 2])));
        trie.insert(&set([0, 2, 4]));
        assert!(trie.has_proper_superset_of(&set([0, 2])));
        assert!(trie.has_proper_superset_of(&set([0, 4])));
        assert!(!trie.has_proper_superset_of(&set([0, 2, 4])));
        // A same-cardinality non-member is not a proper superset.
        assert!(!trie.has_proper_superset_of(&set([0, 3, 4])));
    }

    #[test]
    fn prefix_of_stored_set_is_not_contained() {
        let mut trie = SetTrie::new();
        trie.insert(&set([2, 4, 6]));
        assert!(!trie.contains(&set([2, 4])));
        assert!(!trie.has_subset_of(&set([2, 4])));
        assert!(trie.has_superset_of(&set([2, 4])));
        assert!(trie.has_proper_superset_of(&set([2, 4])));
    }

    #[test]
    fn descend_and_terminal_navigation() {
        let mut trie = SetTrie::new();
        trie.insert(&set([1, 4]));
        let root = trie.root();
        let n1 = trie.descend(root, 1).unwrap();
        assert!(!trie.is_terminal(n1));
        let n14 = trie.descend(n1, 4).unwrap();
        assert!(trie.is_terminal(n14));
        assert!(trie.descend(root, 2).is_none());
        assert_eq!(trie.descend_slice(root, &[1, 4]), Some(n14));
        assert_eq!(trie.descend_slice(root, &[1, 5]), None);
    }

    #[test]
    fn clear_resets() {
        let mut trie = SetTrie::new();
        trie.insert(&set([1, 2]));
        trie.clear();
        assert!(trie.is_empty());
        assert!(!trie.has_subset_of(&set([1, 2, 3])));
        assert!(trie.insert(&set([1, 2])));
    }

    #[test]
    fn cross_universe_queries_are_index_based() {
        let mut trie = SetTrie::new();
        trie.insert(&AttrSet::from_indices(300, [1, 200]));
        assert!(trie.has_superset_of(&AttrSet::from_indices(8, [1])));
        assert!(!trie.has_subset_of(&AttrSet::from_indices(8, [1])));
        assert!(trie.has_subset_of(&AttrSet::from_indices(256, [1, 200, 255])));
    }
}
