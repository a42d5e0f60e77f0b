//! Duality verification (after Gottlob, *Deciding monotone duality and
//! identifying frequent itemsets in quadratic logspace*, arXiv 1212.1881).
//!
//! [`verify_dual`] decides whether two hypergraphs are dual — `G = Tr(F)`
//! — *without enumerating anything*: it walks the classical
//! variable-restriction self-reduction
//!
//! ```text
//! F, G dual  ⟺  F₍ᵥ₌₁₎ dual G₍ᵥ₌₀₎  and  F₍ᵥ₌₀₎ dual G₍ᵥ₌₁₎
//!   F₍ᵥ₌₁₎ = min{ E ∖ {v} : E ∈ F }      F₍ᵥ₌₀₎ = { E ∈ F : v ∉ E }
//! ```
//!
//! splitting on a maximum-frequency variable, with the quadratic
//! all-pairs cross-intersection test (every edge of `F` must meet every
//! edge of `G`) applied at each node. That per-node test is the
//! "quadratic" in Gottlob's bound; the logspace part of his result bounds
//! the *bookkeeping* of the self-reduction — each level of the recursion
//! needs only the split variable and branch bit, `O(log² n)` bits overall.
//! We keep the restricted families materialized (this is a practical
//! checker, not a space-optimal machine), so the worst case is not
//! polynomial; on the dual pairs the test suites feed it, the
//! max-frequency split empties one side within a few levels. A node
//! budget backstops adversarial shapes by falling back to
//! Fredman–Khachiyan's quasi-polynomial duality test
//! ([`crate::fk::duality_witness`]), which decides without enumerating.
//!
//! The point of the module is **independence**: below the budget it
//! shares no code with [`crate::fk`] (different recursion, different base
//! cases, no witness machinery) or any enumeration backend, so it serves
//! as a cross-check oracle for every backend — `verify_dual(h, engine(h))`
//! must hold for each engine.

use dualminer_bitset::AttrSet;
use dualminer_obs::{Meter, NoopObserver, RunCtl};

use crate::{minimize_family, Hypergraph};

/// Recursion-node budget before falling back to the FK duality test.
const NODE_BUDGET: usize = 200_000;

/// Decides whether `g = Tr(f)` (equivalently `f = Tr(g)`; duality is
/// symmetric for simple hypergraphs).
///
/// Inputs need not be simple: both families are minimized first, because
/// duality is a property of the underlying monotone functions. Hypergraphs
/// over different universes are never dual (`false`), matching the
/// convention of [`Hypergraph::from_edges`] rather than panicking like
/// [`crate::fk::duality_witness`].
pub fn verify_dual(f: &Hypergraph, g: &Hypergraph) -> bool {
    verify_dual_within(f, g, NODE_BUDGET)
}

/// [`verify_dual`] with the self-reduction cut at `budget` nodes.
fn verify_dual_within(f: &Hypergraph, g: &Hypergraph, budget: usize) -> bool {
    if f.universe_size() != g.universe_size() {
        return false;
    }
    let fm = f.minimized();
    let gm = g.minimized();
    let mut nodes = budget;
    match dual_rec(fm.edges(), gm.edges(), &mut nodes) {
        Some(v) => v,
        // Node budget exhausted: FK decides without enumerating. Still
        // exact — just no longer the cheap path.
        None => {
            let meter = Meter::unlimited();
            let ctl = RunCtl::new(&meter, &NoopObserver);
            let (witness, _) = crate::fk::antichain_witness(&fm, &gm, &ctl).expect_complete();
            witness.is_none()
        }
    }
}

/// `None` = node budget exhausted; otherwise the exact verdict. `nodes`
/// is the budget left.
fn dual_rec(f: &[AttrSet], g: &[AttrSet], nodes: &mut usize) -> Option<bool> {
    *nodes = nodes.checked_sub(1)?;
    // Constant base cases (families are minimized, so "contains ∅" means
    // the family is exactly {∅}): Tr(∅) = {∅} and Tr({∅}) = ∅.
    if f.is_empty() {
        return Some(g.len() == 1 && g[0].is_empty());
    }
    if f.len() == 1 && f[0].is_empty() {
        return Some(g.is_empty());
    }
    if g.is_empty() || (g.len() == 1 && g[0].is_empty()) {
        // f is non-constant here, so it cannot be dual to a constant.
        return Some(false);
    }

    // Quadratic cross-intersection test: each T ∈ G must be a transversal
    // of F (and symmetrically). Any disjoint pair refutes duality at once.
    for e in f {
        for t in g {
            if e.is_disjoint(t) {
                return Some(false);
            }
        }
    }

    // Small-side base case: Tr of ≤ 2 edges in closed form, then compare.
    if f.len() <= 2 {
        return Some(families_equal(&tr_of_two(f), g));
    }
    if g.len() <= 2 {
        return Some(families_equal(&tr_of_two(g), f));
    }

    // Split on a maximum-frequency variable (ties to the lowest index so
    // the walk is deterministic).
    let n = f[0].universe_size();
    let mut freq = vec![0usize; n];
    for e in f.iter().chain(g.iter()) {
        for v in e.iter() {
            freq[v] += 1;
        }
    }
    let v = (0..n).max_by_key(|&v| freq[v]).expect("non-empty universe");
    debug_assert!(freq[v] > 0, "non-constant families have occupied vertices");

    let assign_one = |fam: &[AttrSet]| -> Vec<AttrSet> {
        minimize_family(
            fam.iter()
                .map(|e| {
                    let mut r = e.clone();
                    r.remove(v);
                    r
                })
                .collect(),
        )
    };
    let assign_zero = |fam: &[AttrSet]| -> Vec<AttrSet> {
        fam.iter().filter(|e| !e.contains(v)).cloned().collect()
    };

    let f1 = assign_one(f);
    let g0 = assign_zero(g);
    if !dual_rec(&f1, &g0, nodes)? {
        return Some(false);
    }
    let f0 = assign_zero(f);
    let g1 = assign_one(g);
    dual_rec(&f0, &g1, nodes)
}

/// `Tr` of a family of at most two non-empty edges, in card-lex order:
/// one edge → its singletons; two edges → the shared singletons plus the
/// disjoint-part pairs, minimized.
fn tr_of_two(f: &[AttrSet]) -> Vec<AttrSet> {
    let n = f[0].universe_size();
    match f {
        [e] => e.iter().map(|v| AttrSet::singleton(n, v)).collect(),
        [a, b] => {
            let mut out: Vec<AttrSet> = a
                .intersection(b)
                .iter()
                .map(|v| AttrSet::singleton(n, v))
                .collect();
            for x in a.difference(b).iter() {
                for y in b.difference(a).iter() {
                    out.push(AttrSet::from_indices(n, [x, y]));
                }
            }
            minimize_family(out)
        }
        _ => unreachable!("caller guarantees 1 ≤ |f| ≤ 2"),
    }
}

/// Set equality of two canonicalized (card-lex sorted, deduped) families.
/// `tr_of_two` and `minimize_family` emit canonical order; `g` comes from
/// a minimized `Hypergraph` or a recursive restriction, so sort the
/// restriction-born side before comparing.
fn families_equal(a: &[AttrSet], b: &[AttrSet]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut bs: Vec<AttrSet> = b.to_vec();
    bs.sort_by(|x, y| x.cmp_card_lex(y));
    let mut asorted: Vec<AttrSet> = a.to_vec();
    asorted.sort_by(|x, y| x.cmp_card_lex(y));
    asorted == bs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{berge, generators};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn constants() {
        let empty = Hypergraph::empty(4);
        let top = Hypergraph::from_index_edges(4, [Vec::<usize>::new()]);
        let tr_empty = Hypergraph::from_edges(4, vec![AttrSet::empty(4)]).unwrap();
        assert!(verify_dual(&empty, &tr_empty));
        assert!(verify_dual(&top, &Hypergraph::empty(4)));
        assert!(!verify_dual(&empty, &Hypergraph::empty(4)));
        assert!(!verify_dual(
            &empty,
            &Hypergraph::from_index_edges(4, [vec![1]])
        ));
    }

    /// Past the node budget the verdict comes from FK; with a budget of
    /// 0 or 1 node every non-trivial pair takes that route, and the
    /// verdict must still be the enumerated one.
    #[test]
    fn budget_fallback_agrees_with_enumeration() {
        let mut rng = StdRng::seed_from_u64(1123);
        for _ in 0..60 {
            let n = rng.gen_range(3..8);
            let m = rng.gen_range(1..7);
            let edges: Vec<Vec<usize>> = (0..m)
                .map(|_| {
                    let k = rng.gen_range(1..=n.min(4));
                    (0..k).map(|_| rng.gen_range(0..n)).collect()
                })
                .collect();
            let h = Hypergraph::from_index_edges(n, edges);
            let tr = crate::naive::transversals(&h);
            let mut broken = tr.edges().to_vec();
            broken.pop();
            let broken = Hypergraph::from_edges(n, broken).unwrap();
            // `broken` misses one minimal transversal: never dual.
            for budget in [0, 1] {
                assert!(verify_dual_within(&h, &tr, budget), "{h:?}");
                assert!(verify_dual_within(&tr, &h, budget), "{h:?}");
                assert!(!verify_dual_within(&h, &broken, budget), "{h:?}");
            }
        }
        // A threshold pair and a non-dual pair too big for the closed
        // forms, whose first node alone is past a budget of 0.
        let (h, d) = (generators::threshold(6, 3), generators::threshold(6, 4));
        assert!(verify_dual_within(&h, &d, 0));
        assert!(!verify_dual_within(&h, &h, 0));
    }

    #[test]
    fn universe_mismatch_is_not_dual() {
        let f = Hypergraph::from_index_edges(3, [vec![0]]);
        let g = Hypergraph::from_index_edges(4, [vec![0]]);
        assert!(!verify_dual(&f, &g));
    }

    #[test]
    fn threshold_pairs_are_dual() {
        for n in 3..=7usize {
            for t in 1..=n {
                let h = generators::threshold(n, t);
                let d = generators::threshold(n, n - t + 1);
                assert!(verify_dual(&h, &d), "n={n} t={t}");
                if t != n - t + 1 {
                    assert!(!verify_dual(&h, &h), "n={n} t={t}");
                }
            }
        }
    }

    #[test]
    fn self_dual_instances() {
        let base = generators::cycle(5);
        let sd = generators::self_dualize(&base);
        assert!(verify_dual(&sd, &sd));
    }

    #[test]
    fn agrees_with_enumeration_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(1881);
        for _ in 0..80 {
            let n = rng.gen_range(3..9);
            let m = rng.gen_range(0..7);
            let edges: Vec<Vec<usize>> = (0..m)
                .map(|_| {
                    let k = rng.gen_range(1..=n.min(4));
                    (0..k).map(|_| rng.gen_range(0..n)).collect()
                })
                .collect();
            let h = Hypergraph::from_index_edges(n, edges);
            let tr = berge::transversals(&h);
            assert!(verify_dual(&h, &tr), "{h:?}");
            assert!(verify_dual(&tr, &h), "{h:?}");
            // Perturb: drop one transversal, or add a spurious vertex set.
            if !tr.is_empty() {
                let mut broken = tr.edges().to_vec();
                broken.pop();
                let broken = Hypergraph::from_edges(n, broken).unwrap();
                assert!(!verify_dual(&h, &broken), "{h:?}");
            }
        }
    }

    #[test]
    fn non_simple_inputs_are_minimized_first() {
        // {AB, ABC} has the same dual as {AB}.
        let f = Hypergraph::from_index_edges(3, [vec![0, 1], vec![0, 1, 2]]);
        let g = Hypergraph::from_index_edges(3, [vec![0], vec![1]]);
        assert!(verify_dual(&f, &g));
    }

    #[test]
    fn larger_universe_dual_pair() {
        // Matching over 24 vertices, Tr confined by construction.
        let h = generators::matching(12);
        let tr = berge::transversals(&h);
        assert!(verify_dual(&h, &tr));
        assert!(!verify_dual(
            &h,
            &Hypergraph::from_index_edges(12, [vec![0]])
        ));
    }
}
