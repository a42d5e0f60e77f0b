//! Canonical input fingerprints: content addressing for the result cache.
//!
//! Every cacheable input format gets a fingerprint of its *parsed,
//! canonicalized* form — the first-appearance dictionary interleaved with
//! resolved indices and row boundaries, replayed through
//! [`RowFingerprint`] — never of the raw bytes. The fingerprint therefore
//! identifies exactly the information the engines (and the rendered
//! output) can observe: two files that differ only in whitespace,
//! comments, blank lines, or (for formats whose value spellings are
//! dictionary-coded away) cell spellings hash equal, and anything the
//! output could depend on changes the digest.
//!
//! For baskets the canonical form also keeps the per-row *prefix* digests
//! ([`CanonBaskets::prefix`]): a request whose input extends a cached one
//! by appended rows only is recognized because the cached content digest
//! appears verbatim in the new input's prefix ladder, which is what routes
//! the job through incremental re-mining instead of a cold run.

use dualminer_bitset::{AttrSet, Universe};
use dualminer_mining::{TransactionDb, VStoreBuilder};
use dualminer_obs::RowFingerprint;

use crate::formats::{self, FormatError, Interner, Token};

/// One rung of the basket prefix ladder: the content digest after row
/// `k`, plus how many item symbols had been interned by then.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowMark {
    /// Fingerprint of the first `k` rows (identical to fingerprinting a
    /// file holding only those rows).
    pub digest: u64,
    /// Symbols interned within the first `k` rows. An appended-rows base
    /// is usable for incremental re-mining only when this equals the item
    /// count of the *extended* input: the FUP-style border update works
    /// over a fixed item universe, so appended rows that introduce new
    /// items fall back to a cold run.
    pub n_items: u32,
}

/// Item-index rows stored flat: one buffer of every row's items, plus
/// the end offset of each row in it.
#[derive(Clone, Debug, Default)]
pub struct Rows {
    items: Vec<usize>,
    ends: Vec<usize>,
}

impl Rows {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Row `k`'s item indices.
    fn row(&self, k: usize) -> &[usize] {
        let start = k.checked_sub(1).map_or(0, |j| self.ends[j]);
        &self.items[start..self.ends[k]]
    }

    /// Every row, in input order.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> + '_ {
        (0..self.len()).map(|k| self.row(k))
    }
}

/// A basket file in canonical form: the first-appearance item dictionary,
/// the index rows, and the prefix-digest ladder.
#[derive(Clone, Debug)]
pub struct CanonBaskets {
    /// Item names in first-appearance order.
    pub names: Vec<String>,
    /// Transactions as item-index rows (empty rows already dropped).
    pub rows: Rows,
    /// Prefix digest after each row; `prefix[k-1]` covers rows `0..k`.
    pub prefix: Vec<RowMark>,
    /// The whole-input content digest (`prefix.last().digest`).
    pub fingerprint: u64,
}

impl CanonBaskets {
    /// Materializes the universe and database, equal to what
    /// [`formats::parse_baskets_reader`] builds from the same input.
    ///
    /// The argument is inert: it was the row cap of a segmented store
    /// layout that no longer exists, and stays only because existing
    /// callers pass it.
    pub fn build(&self, _segment_rows: usize) -> (Universe, TransactionDb) {
        let universe = Universe::new(self.names.clone());
        let mut builder = VStoreBuilder::with_items(self.names.len(), self.rows.len());
        for row in self.rows.iter() {
            builder.push_row(row.iter().copied());
        }
        (universe, TransactionDb::from_vstore(builder.finish()))
    }

    /// Rows `from..` as [`AttrSet`]s over this input's item universe —
    /// the `new_rows` argument of
    /// [`append_rows_ctl`](dualminer_mining::incremental::append_rows_ctl).
    pub fn rows_from(&self, from: usize) -> Vec<AttrSet> {
        let n = self.names.len();
        (from..self.rows.len())
            .map(|k| AttrSet::from_indices(n, self.rows.row(k).iter().copied()))
            .collect()
    }

    /// Finds the prefix row count whose digest is `digest`, if any — the
    /// probe behind the appended-rows cache route. Only a *proper* prefix
    /// qualifies (an exact match is a warm hit, not an append), and the
    /// prefix must already have interned every item of the full input
    /// (see [`RowMark::n_items`]).
    pub fn append_base(&self, digest: u64) -> Option<usize> {
        let total_items = self.names.len() as u32;
        self.prefix[..self.prefix.len().saturating_sub(1)]
            .iter()
            .position(|mark| mark.digest == digest && mark.n_items == total_items)
            .map(|i| i + 1)
    }
}

/// Parses a basket file into canonical form. Same grammar and dictionary
/// semantics as [`formats::parse_baskets`]: whitespace-separated item
/// names, `#` comments, blank/empty lines skipped, indices assigned in
/// first-appearance order, empty input rejected.
///
/// Only an item's first appearance allocates: a repeated token is a
/// borrowed dictionary lookup, and every row lands in one flat buffer.
pub fn canon_baskets(text: &str) -> Result<CanonBaskets, FormatError> {
    let mut items = Interner::new();
    let mut rows = Rows::default();
    let mut prefix: Vec<RowMark> = Vec::new();
    let mut fp = RowFingerprint::new();
    let mut row_start = 0;
    formats::basket_tokens(text, |token| match token {
        Token::Item(item, packed) => {
            let fresh = items.len();
            let id = items.intern_packed(item, packed);
            if id == fresh {
                fp.push_symbol(item);
            }
            fp.push_item(id);
            rows.items.push(id);
        }
        Token::LineEnd => {
            if rows.items.len() == row_start {
                return;
            }
            row_start = rows.items.len();
            rows.ends.push(row_start);
            fp.end_row();
            prefix.push(RowMark {
                digest: fp.digest(),
                n_items: items.len() as u32,
            });
        }
    });
    if rows.is_empty() {
        return Err(FormatError::new("no transactions found"));
    }
    let fingerprint = fp.digest();
    Ok(CanonBaskets {
        names: items.into_names(),
        rows,
        prefix,
        fingerprint,
    })
}

/// Replays already-parsed shared-dictionary edges (from
/// [`formats::parse_hypergraph_raw`]) through a [`RowFingerprint`].
///
/// Symbol-interning events are reconstructed from the first-appearance
/// invariant: within one dictionary, index `i` is first used on the edge
/// where `i` equals the number of symbols seen so far. `seen` carries the
/// intern count across calls so a merged-vocabulary pair replays exactly
/// like its parse did. Without `names` the symbol spellings are
/// canonically irrelevant (nothing downstream prints them) and only the
/// intern *events* are recorded.
fn replay_edges(
    fp: &mut RowFingerprint,
    edges: &[Vec<usize>],
    names: Option<&[String]>,
    seen: &mut usize,
) {
    for edge in edges {
        for &v in edge {
            while *seen <= v {
                fp.push_symbol(names.map_or("", |names| &names[*seen]));
                *seen += 1;
            }
            fp.push_item(v);
        }
        fp.end_row();
    }
}

/// Canonical fingerprint of a `transversals` input: the parsed
/// hypergraph's dictionary and edge list. Vertex names are *included* —
/// they appear in the rendered transversals.
pub fn fingerprint_hypergraph(text: &str) -> Result<u64, FormatError> {
    let mut vertices = Interner::new();
    let raw = formats::parse_hypergraph_raw(text, &mut vertices)?;
    let mut fp = RowFingerprint::new();
    let mut seen = 0;
    replay_edges(&mut fp, &raw, Some(&vertices.into_names()), &mut seen);
    Ok(fp.digest())
}

/// Canonical fingerprint of a `verify-dual` input pair: both families'
/// edges over the merged first-appearance vocabulary, separated by a
/// sentinel symbol no parse can produce (the empty string — vertex tokens
/// come from `split_whitespace`). Vertex *spellings* are canonically
/// irrelevant here: the verdict depends only on the two index families,
/// and no name is ever printed.
pub fn fingerprint_dual_pair(f_text: &str, g_text: &str) -> Result<u64, FormatError> {
    let mut vertices = Interner::new();
    let f_raw = formats::parse_hypergraph_raw(f_text, &mut vertices)?;
    let g_raw = formats::parse_hypergraph_raw(g_text, &mut vertices)?;
    let mut fp = RowFingerprint::new();
    let mut seen = 0;
    replay_edges(&mut fp, &f_raw, None, &mut seen);
    fp.push_symbol("");
    fp.end_row();
    replay_edges(&mut fp, &g_raw, None, &mut seen);
    Ok(fp.digest())
}

/// Canonical fingerprint of a `keys` input: the header names (they are
/// printed in every key and FD) plus the dictionary-coded rows. Cell
/// *spellings* are canonically irrelevant — the relation's agree-set
/// structure, and therefore every key, FD, and agree set, depends only on
/// which cells within a column are equal, which is exactly what the
/// per-column first-appearance codes record.
pub fn fingerprint_relation(text: &str) -> Result<u64, FormatError> {
    let (universe, rel) = formats::parse_relation(text)?;
    let mut fp = RowFingerprint::new();
    for i in 0..universe.size() {
        fp.push_symbol(universe.name(i));
    }
    fp.end_row();
    for row in rel.rows() {
        for &code in row {
            fp.push_item(code as usize);
        }
        fp.end_row();
    }
    Ok(fp.digest())
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = "milk bread\nbread butter\nmilk\n";

    /// Content digests are cache keys persisted in snapshots: these values
    /// must never change.
    #[test]
    fn content_fingerprints_are_pinned() {
        let canon = canon_baskets("milk bread\nbread butter # breakfast\n\nmilk\n").unwrap();
        assert_eq!(canon.fingerprint, 0x7e35_e7e3_036b_0ba3);
        let ladder: Vec<(u64, u32)> = canon.prefix.iter().map(|m| (m.digest, m.n_items)).collect();
        assert_eq!(
            ladder,
            [
                (0x5975_9e85_80ed_f482, 2),
                (0x7450_7eb7_78b2_3e18, 3),
                (0x7e35_e7e3_036b_0ba3, 3),
            ]
        );

        let canon = canon_baskets("a\x0bb\u{a0}c\r\nc  d\u{2003}e # x\nπ σ\n").unwrap();
        assert_eq!(canon.fingerprint, 0x1405_eb0d_9a98_8f8a);
        assert_eq!(canon.names, ["a", "b", "c", "d", "e", "π", "σ"]);
        let rows: Vec<&[usize]> = canon.rows.iter().collect();
        assert_eq!(rows, [&[0, 1, 2][..], &[2, 3, 4], &[5, 6]]);

        assert_eq!(
            fingerprint_hypergraph("x y\ny z # e\n\nx z w\n").unwrap(),
            0x6fdf_56ca_9993_ad7b
        );
        assert_eq!(
            fingerprint_relation("dept,role\nsales,mgr\nsales,ic\neng,ic\n").unwrap(),
            0xcc92_cf00_4d8a_5707
        );
        assert_eq!(
            fingerprint_dual_pair("x y\ny z\n", "y\nx z\n").unwrap(),
            0x2bfa_309c_b3ee_4fe1
        );
    }

    #[test]
    fn equivalent_spellings_hash_equal() {
        // Comments, blank lines, and whitespace are not content.
        let noisy = "# breakfast data\nmilk   bread\n\nbread butter # inline\n   milk\n";
        assert_eq!(
            canon_baskets(BASE).unwrap().fingerprint,
            canon_baskets(noisy).unwrap().fingerprint
        );
    }

    #[test]
    fn data_changes_change_the_digest() {
        let base = canon_baskets(BASE).unwrap().fingerprint;
        for variant in [
            "milk bread\nbread butter\nmilk butter\n", // changed row
            "milk bread\nmilk\nbread butter\n",        // reordered rows
            "milk bread\nbread butter\nmilk\neggs\n",  // appended row
            "milk loaf\nloaf butter\nmilk\n",          // renamed item
        ] {
            assert_ne!(
                base,
                canon_baskets(variant).unwrap().fingerprint,
                "{variant}"
            );
        }
    }

    #[test]
    fn append_base_is_recognized() {
        let extended =
            canon_baskets("milk bread\nbread butter\nmilk\nbread milk\nbutter\n").unwrap();
        let base = canon_baskets(BASE).unwrap();
        // The 3-row base is a recognized proper prefix of the 5-row input.
        assert_eq!(extended.append_base(base.fingerprint), Some(3));
        // An exact match is not an append base.
        assert_eq!(extended.append_base(extended.fingerprint), None);
        // Nor is an unrelated digest.
        assert_eq!(extended.append_base(0xdead_beef), None);
        // The appended tail as AttrSets, over the shared universe.
        let tail = extended.rows_from(3);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].len(), 2);
    }

    #[test]
    fn append_with_new_items_is_not_a_base() {
        // `eggs` first appears in the appended tail: the prefix marks top
        // out below the final item count, so incremental (fixed-universe)
        // re-mining is correctly refused.
        let extended = canon_baskets("milk bread\nbread butter\nmilk\neggs milk\n").unwrap();
        let base = canon_baskets(BASE).unwrap();
        assert_eq!(extended.append_base(base.fingerprint), None);
    }

    #[test]
    fn hypergraph_fingerprints() {
        let a = fingerprint_hypergraph("x y\ny z\nx z\n").unwrap();
        let b = fingerprint_hypergraph("# H\nx   y\n\ny z # e2\nx z\n").unwrap();
        let c = fingerprint_hypergraph("x y\nx z\ny z\n").unwrap();
        let renamed = fingerprint_hypergraph("p y\ny z\np z\n").unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Names are content here: they appear in the output.
        assert_ne!(a, renamed);
    }

    #[test]
    fn dual_pair_fingerprints() {
        let a = fingerprint_dual_pair("x y\ny z\n", "y\nx z\n").unwrap();
        // Renaming vertices consistently does not change the verdict and
        // does not change the fingerprint.
        let b = fingerprint_dual_pair("p q\nq r\n", "q\np r\n").unwrap();
        assert_eq!(a, b);
        // Swapping the families does.
        let c = fingerprint_dual_pair("y\nx z\n", "x y\ny z\n").unwrap();
        assert_ne!(a, c);
        // Moving an edge across the separator does.
        let d = fingerprint_dual_pair("x y\n", "y z\ny\nx z\n").unwrap();
        assert_ne!(a, d);
    }

    #[test]
    fn relation_fingerprints() {
        let base = fingerprint_relation("dept,role\nsales,mgr\nsales,ic\neng,ic\n").unwrap();
        // Respelled cell values with the same equality structure: equal.
        let respelled = fingerprint_relation("dept,role\nS,boss\nS,w\nE,w\n").unwrap();
        assert_eq!(base, respelled);
        // Renamed header: different (headers are printed).
        let renamed = fingerprint_relation("team,role\nsales,mgr\nsales,ic\neng,ic\n").unwrap();
        assert_ne!(base, renamed);
        // Different equality structure: different.
        let other = fingerprint_relation("dept,role\nsales,mgr\nsales,ic\nsales,ic\n").unwrap();
        assert_ne!(base, other);
    }
}

/// The canonicalizer before the byte-level tokenizer: `str::lines`,
/// `split_whitespace` and a std `HashMap` dictionary. The differential
/// tests pin [`canon_baskets`] to it.
#[cfg(test)]
fn reference_canon_baskets(text: &str) -> Result<CanonBaskets, FormatError> {
    use std::collections::HashMap;
    let mut names: Vec<String> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut rows = Rows::default();
    let mut prefix: Vec<RowMark> = Vec::new();
    let mut fp = RowFingerprint::new();
    for line in text.lines() {
        let start = rows.items.len();
        for item in formats::strip_comment(line).split_whitespace() {
            let id = match index.get(item) {
                Some(&id) => id,
                None => {
                    names.push(item.to_string());
                    index.insert(item.to_string(), names.len() - 1);
                    fp.push_symbol(item);
                    names.len() - 1
                }
            };
            fp.push_item(id);
            rows.items.push(id);
        }
        if rows.items.len() == start {
            continue;
        }
        rows.ends.push(rows.items.len());
        fp.end_row();
        prefix.push(RowMark {
            digest: fp.digest(),
            n_items: names.len() as u32,
        });
    }
    if rows.is_empty() {
        return Err(FormatError::new("no transactions found"));
    }
    let fingerprint = fp.digest();
    Ok(CanonBaskets {
        names,
        rows,
        prefix,
        fingerprint,
    })
}

#[cfg(test)]
mod props {
    use super::*;
    use crate::formats::parse_baskets;
    use crate::formats::props::arb_tokenizer_text;
    use proptest::prelude::*;

    /// Basket texts built from names (ASCII and not), every separator the
    /// grammar accepts (tab, VT, FF, a lone CR, U+00A0, U+2003), LF and
    /// CRLF line ends, `#` comments, and blank lines.
    fn arb_baskets() -> impl Strategy<Value = String> {
        const PIECES: &[&str] = &[
            "milk",
            "bread",
            "a",
            "b",
            "π",
            "σ",
            "Ünï",
            "x1",
            " ",
            " ",
            "\t",
            "\x0b",
            "\x0c",
            "\r",
            "\u{a0}",
            "\u{2003}",
            "\n",
            "\n",
            "\r\n",
            "# note milk\n",
            "#",
            "\n\n",
        ];
        proptest::collection::vec(0..PIECES.len(), 0..60)
            .prop_map(|picks| picks.into_iter().map(|i| PIECES[i]).collect())
    }

    /// The canonical event stream spelled out byte by byte, as the
    /// fingerprint format defines it, and hashed in one shot.
    fn spec_digest(names: &[String], rows: &Rows) -> u64 {
        let mut bytes = Vec::new();
        let mut seen = 0;
        for row in rows.iter() {
            for &id in row {
                if id == seen {
                    bytes.push(b'S');
                    bytes.extend_from_slice(&(names[id].len() as u64).to_le_bytes());
                    bytes.extend_from_slice(names[id].as_bytes());
                    seen += 1;
                }
                bytes.push(b'I');
                bytes.extend_from_slice(&(id as u64).to_le_bytes());
            }
            bytes.push(b'R');
        }
        dualminer_obs::fnv1a64(&bytes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The byte-level tokenizer and packed interner canonicalize
        /// exactly like the reference: same names, rows, prefix marks,
        /// fingerprint, and error.
        #[test]
        fn canon_matches_reference(text in arb_tokenizer_text()) {
            match (canon_baskets(&text), reference_canon_baskets(&text)) {
                (Ok(got), Ok(want)) => {
                    prop_assert_eq!(&got.names, &want.names);
                    prop_assert!(got.rows.iter().eq(want.rows.iter()));
                    prop_assert_eq!(&got.prefix, &want.prefix);
                    prop_assert_eq!(got.fingerprint, want.fingerprint);
                }
                (Err(got), Err(want)) => prop_assert_eq!(got, want),
                (got, want) => prop_assert!(
                    false,
                    "canon {:?} vs reference {:?}",
                    got.map(|c| c.fingerprint),
                    want.map(|c| c.fingerprint)
                ),
            }
        }

        /// Canonicalization parses exactly like `parse_baskets`, its digest
        /// follows the event-stream spec, and every prefix digest equals
        /// the digest of those rows canonicalized alone.
        #[test]
        fn canon_matches_parser(text in arb_baskets()) {
            let Ok((u_ref, db_ref)) = parse_baskets(&text) else {
                prop_assert!(canon_baskets(&text).is_err());
                return Ok(());
            };
            let canon = canon_baskets(&text).unwrap();
            let names: Vec<&str> = (0..u_ref.size()).map(|i| u_ref.name(i)).collect();
            prop_assert_eq!(&canon.names, &names);
            let (_, db) = canon.build(0);
            prop_assert_eq!(db.rows(), db_ref.rows());
            prop_assert_eq!(canon.prefix.len(), canon.rows.len());
            prop_assert_eq!(canon.fingerprint, spec_digest(&canon.names, &canon.rows));

            let mut lines = String::new();
            for (k, row) in canon.rows.iter().enumerate() {
                let row: Vec<&str> = row.iter().map(|&i| canon.names[i].as_str()).collect();
                lines.push_str(&row.join(" "));
                lines.push('\n');
                let alone = canon_baskets(&lines).unwrap();
                prop_assert_eq!(canon.prefix[k].digest, alone.fingerprint);
                prop_assert_eq!(canon.prefix[k].n_items as usize, alone.names.len());
            }
        }
    }
}
