//! Input-file parsers: baskets, CSV relations, hypergraphs.
//!
//! The high-volume formats (baskets, CSV relations) parse from any
//! [`BufRead`] source one line at a time — basket rows stream straight
//! into a [`VStoreBuilder`], so a database larger than memory
//! would ever hold as text materializes only its compact vertical form.
//! The `&str` entry points are thin [`Cursor`] wrappers kept for tests
//! and small inputs.

use std::collections::HashMap;
use std::fmt;
use std::io::{BufRead, Cursor};

use dualminer_bitset::{AttrSet, Universe};
use dualminer_episodes::EventSequence;
use dualminer_fdep::Relation;
use dualminer_hypergraph::Hypergraph;
use dualminer_mining::{TransactionDb, VStoreBuilder};

/// A typed input-file parse error: what went wrong and where.
///
/// The parsers see only text, so `file` starts empty and the CLI layer
/// attaches it with [`FormatError::in_file`]. Line numbers count *physical*
/// lines of the input (1-based), comments and blanks included, so the
/// reported location matches what an editor shows. Renders as the
/// conventional `file:line:column: message`, dropping whichever location
/// parts are unknown.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FormatError {
    /// Input file, once attached by the caller.
    pub file: Option<String>,
    /// 1-based physical line of the offending input, when known.
    pub line: Option<usize>,
    /// 1-based column of the offending token, when known.
    pub column: Option<usize>,
    /// What went wrong.
    pub message: String,
}

impl FormatError {
    pub(crate) fn new(message: impl Into<String>) -> FormatError {
        FormatError {
            file: None,
            line: None,
            column: None,
            message: message.into(),
        }
    }

    fn at_line(line: usize, message: impl Into<String>) -> FormatError {
        FormatError {
            line: Some(line),
            ..FormatError::new(message)
        }
    }

    fn at(line: usize, column: usize, message: impl Into<String>) -> FormatError {
        FormatError {
            line: Some(line),
            column: Some(column),
            ..FormatError::new(message)
        }
    }

    /// Attaches the source file name for `file:line:column` rendering.
    #[must_use]
    pub fn in_file(mut self, path: &str) -> FormatError {
        self.file = Some(path.to_string());
        self
    }
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(file) = &self.file {
            write!(f, "{file}:")?;
        }
        if let Some(line) = self.line {
            write!(f, "{line}:")?;
            if let Some(column) = self.column {
                write!(f, "{column}:")?;
            }
        }
        if self.file.is_some() || self.line.is_some() {
            write!(f, " ")?;
        }
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for FormatError {}

/// A first-appearance dictionary: names in the order they were first
/// seen, plus a name → index map. Every parser's dictionary (basket
/// items, hypergraph vertices, CSV cell values, event types) is one.
///
/// A lookup borrows the token; only a name's first appearance allocates.
/// The map keeps std's randomly keyed SipHash: names come from
/// client-supplied files.
#[derive(Clone, Debug, Default)]
pub struct Interner {
    names: Vec<String>,
    index: HashMap<String, usize>,
}

impl Interner {
    /// An empty dictionary.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// The index of `name`. A name not seen before gets the next index,
    /// [`len`](Self::len) before the call.
    pub fn intern(&mut self, name: &str) -> usize {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len();
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }

    /// Names interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The names, in first-appearance (index) order.
    pub fn into_names(self) -> Vec<String> {
        self.names
    }
}

/// Parses a basket file: one transaction per line, whitespace-separated
/// item names; `#` starts a comment; blank lines are empty transactions
/// and are skipped. Item indices are assigned in order of first
/// appearance.
///
/// Thin wrapper over [`parse_baskets_reader`]. The CLI itself always
/// streams from the file; the daemon parses in-memory request payloads
/// through here.
pub fn parse_baskets(text: &str) -> Result<(Universe, TransactionDb), FormatError> {
    parse_baskets_reader(Cursor::new(text))
}

/// Streaming [`parse_baskets`]: reads transactions line by line from any
/// [`BufRead`] source, pushing each row into a [`VStoreBuilder`]. Only
/// the dictionary and the vertical store are ever resident — neither the
/// input text nor an index-row copy of the database is materialized.
///
/// I/O failures (including invalid UTF-8) surface as a [`FormatError`] at
/// the offending physical line.
pub fn parse_baskets_reader(
    reader: impl BufRead,
) -> Result<(Universe, TransactionDb), FormatError> {
    let mut items = Interner::new();
    let mut builder = VStoreBuilder::new();
    let mut row: Vec<usize> = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line =
            line.map_err(|e| FormatError::at_line(lineno + 1, format!("read error: {e}")))?;
        row.clear();
        row.extend(
            strip_comment(&line)
                .split_whitespace()
                .map(|item| items.intern(item)),
        );
        if row.is_empty() {
            continue;
        }
        builder.push_row(row.iter().copied());
    }
    if builder.n_rows() == 0 {
        return Err(FormatError::new("no transactions found"));
    }
    let universe = Universe::new(items.into_names());
    let db = TransactionDb::from_vstore(builder.finish());
    Ok((universe, db))
}

/// Parses a CSV relation: first line is the header of attribute names,
/// remaining lines are comma-separated values (treated as opaque strings,
/// dictionary-coded per column). Unlike the whitespace formats, `#` only
/// introduces a comment when it starts a line — data cells may
/// legitimately contain `#` (part numbers, anchors, …), so inline
/// stripping would silently corrupt them.
pub fn parse_relation(text: &str) -> Result<(Universe, Relation), FormatError> {
    parse_relation_reader(Cursor::new(text))
}

/// Streaming [`parse_relation`]: reads the CSV from any [`BufRead`]
/// source one line at a time, dictionary-coding cells as they arrive, so
/// only the coded rows and per-column dictionaries are resident. I/O
/// failures (including invalid UTF-8) surface as a [`FormatError`] at the
/// offending physical line.
pub fn parse_relation_reader(reader: impl BufRead) -> Result<(Universe, Relation), FormatError> {
    let mut names: Vec<String> = Vec::new();
    let mut dictionaries: Vec<Interner> = Vec::new();
    let mut rows: Vec<Vec<u32>> = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.map_err(|e| FormatError::at_line(lineno, format!("read error: {e}")))?;
        let line = strip_whole_line_comment(&line);
        if line.trim().is_empty() {
            continue;
        }
        if names.is_empty() {
            // First data line is the header.
            names = line.split(',').map(|s| s.trim().to_string()).collect();
            if names.iter().any(String::is_empty) {
                return Err(FormatError::at_line(lineno, "invalid header row"));
            }
            dictionaries = vec![Interner::new(); names.len()];
            continue;
        }
        let n = names.len();
        let cells: Vec<&str> = line.split(',').map(str::trim).collect();
        if cells.len() != n {
            return Err(FormatError::at_line(
                lineno,
                format!("row has {} cells, expected {}", cells.len(), n),
            ));
        }
        let row = cells
            .iter()
            .enumerate()
            .map(|(col, cell)| dictionaries[col].intern(cell) as u32)
            .collect();
        rows.push(row);
    }
    if names.is_empty() {
        return Err(FormatError::new("empty relation file"));
    }
    let n = names.len();
    Ok((Universe::new(names), Relation::new(n, rows)))
}

/// Parses a hypergraph file: one edge per line, whitespace-separated
/// vertex names; vertex indices assigned in order of first appearance.
pub fn parse_hypergraph(text: &str) -> Result<(Universe, Hypergraph), FormatError> {
    let mut vertices = Interner::new();
    let raw_edges = parse_hypergraph_raw(text, &mut vertices)?;
    let n = vertices.len();
    let universe = Universe::new(vertices.into_names());
    let h = hypergraph_from_raw(n, raw_edges)?;
    Ok((universe, h))
}

/// Streams one hypergraph file's edges into a *shared* vertex dictionary.
///
/// Building block for `verify-dual`, which must compare two files over one
/// merged universe: call this once per file with the same `vertices`
/// dictionary, then materialize each edge list with
/// [`hypergraph_from_raw`] at the final dictionary size. Indices are
/// assigned in order of first appearance across all calls.
pub fn parse_hypergraph_raw(
    text: &str,
    vertices: &mut Interner,
) -> Result<Vec<Vec<usize>>, FormatError> {
    let mut raw_edges: Vec<Vec<usize>> = Vec::new();
    for line in text.lines() {
        let edge: Vec<usize> = strip_comment(line)
            .split_whitespace()
            .map(|v| vertices.intern(v))
            .collect();
        if !edge.is_empty() {
            raw_edges.push(edge);
        }
    }
    if raw_edges.is_empty() {
        return Err(FormatError::new("no edges found"));
    }
    Ok(raw_edges)
}

/// Materializes raw index edges (from [`parse_hypergraph_raw`]) as a
/// [`Hypergraph`] over a universe of `n` vertices.
pub fn hypergraph_from_raw(
    n: usize,
    raw_edges: Vec<Vec<usize>>,
) -> Result<Hypergraph, FormatError> {
    let edges = raw_edges
        .into_iter()
        .map(|e| AttrSet::from_indices(n, e))
        .collect();
    Hypergraph::from_edges(n, edges).map_err(|e| FormatError::new(e.to_string()))
}

/// Parses an event file: one event per line as `<time> <type-name>`;
/// comments/blank lines as elsewhere. Event-type indices are assigned in
/// order of first appearance.
pub fn parse_events(text: &str) -> Result<(Vec<String>, EventSequence), FormatError> {
    let mut kinds = Interner::new();
    let mut pairs: Vec<(u64, usize)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = strip_comment(line);
        let mut parts = line.split_whitespace();
        let Some(time) = parts.next() else { continue };
        let kind = parts
            .next()
            .ok_or_else(|| FormatError::at_line(lineno, "expected `<time> <type>`"))?;
        if parts.next().is_some() {
            return Err(FormatError::at_line(lineno, "too many fields"));
        }
        // The time token is the first on the line, so its column is the
        // leading whitespace width plus one.
        let column = line.len() - line.trim_start().len() + 1;
        let time: u64 = time
            .parse()
            .map_err(|_| FormatError::at(lineno, column, format!("invalid time {time:?}")))?;
        pairs.push((time, kinds.intern(kind)));
    }
    if pairs.is_empty() {
        return Err(FormatError::new("no events found"));
    }
    let alphabet = kinds.len();
    Ok((
        kinds.into_names(),
        EventSequence::from_pairs(alphabet, pairs),
    ))
}

pub(crate) fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Blanks the line only when its first non-whitespace character is `#`;
/// used by CSV parsing, where `#` inside a cell is data.
fn strip_whole_line_comment(line: &str) -> &str {
    if line.trim_start().starts_with('#') {
        ""
    } else {
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baskets_basic() {
        let (u, db) = parse_baskets("milk bread\nbread butter # breakfast\n\nmilk\n").unwrap();
        assert_eq!(u.size(), 3);
        assert_eq!(db.n_rows(), 3);
        assert_eq!(u.index_of("butter"), Some(2));
        assert_eq!(db.support(&AttrSet::from_indices(3, [1])), 2); // bread
    }

    #[test]
    fn baskets_empty_file_rejected() {
        assert!(parse_baskets("# only comments\n").is_err());
    }

    #[test]
    fn baskets_reader_streams_items_first_seen_late() {
        let text = "milk bread\nbread butter # breakfast\n\nmilk\nbutter eggs milk\n";
        let (u, db) = parse_baskets_reader(Cursor::new(text)).unwrap();
        let names: Vec<&str> = (0..u.size()).map(|i| u.name(i)).collect();
        assert_eq!(names, ["milk", "bread", "butter", "eggs"]);
        let want: Vec<AttrSet> = [&[0, 1][..], &[1, 2], &[0], &[2, 3, 0]]
            .iter()
            .map(|r| AttrSet::from_indices(4, r.iter().copied()))
            .collect();
        assert_eq!(db.rows(), want.as_slice());
    }

    #[test]
    fn reader_io_errors_are_format_errors() {
        // Invalid UTF-8 on physical line 2 surfaces as a located
        // FormatError, not a panic or a silent truncation.
        let bytes: &[u8] = b"milk bread\n\xff\xfe\n";
        let err = parse_baskets_reader(Cursor::new(bytes)).unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.message.contains("read error"), "{err}");

        let csv: &[u8] = b"a,b\n\xff,2\n";
        let err = parse_relation_reader(Cursor::new(csv)).unwrap_err();
        assert_eq!(err.line, Some(2));
    }

    #[test]
    fn relation_reader_matches_text() {
        let csv = "dept,role\nsales,mgr\n# note\nsales,ic\neng,ic\n";
        let (u_ref, rel_ref) = parse_relation(csv).unwrap();
        let (u, rel) = parse_relation_reader(Cursor::new(csv)).unwrap();
        assert_eq!(u.size(), u_ref.size());
        for i in 0..u.size() {
            assert_eq!(u.name(i), u_ref.name(i));
        }
        assert_eq!(rel.rows(), rel_ref.rows());
    }

    #[test]
    fn relation_basic() {
        let csv = "dept,role\nsales,mgr\nsales,ic\neng,ic\n";
        let (u, rel) = parse_relation(csv).unwrap();
        assert_eq!(u.size(), 2);
        assert_eq!(rel.n_rows(), 3);
        // dept column: sales=0, eng=1.
        assert_eq!(rel.rows()[0][0], rel.rows()[1][0]);
        assert_ne!(rel.rows()[0][0], rel.rows()[2][0]);
    }

    #[test]
    fn relation_hash_in_cell_is_data() {
        // Regression: a `#` inside a CSV cell used to be treated as an
        // inline comment, truncating the row to a ragged (or silently
        // wrong) record. Only a line-leading `#` marks a comment now.
        let csv = "part,bin\nA#1,top\nA#2,bin#4\n# a whole-line comment\nA#1,top\n";
        let (u, rel) = parse_relation(csv).unwrap();
        assert_eq!(u.size(), 2);
        assert_eq!(rel.n_rows(), 3);
        // `A#1` rows dictionary-code identically; `A#2` differs.
        assert_eq!(rel.rows()[0][0], rel.rows()[2][0]);
        assert_ne!(rel.rows()[0][0], rel.rows()[1][0]);
        // `bin#4` survives intact as a distinct value in column 1.
        assert_ne!(rel.rows()[1][1], rel.rows()[0][1]);
    }

    #[test]
    fn relation_ragged_rejected() {
        assert!(parse_relation("a,b\n1\n").is_err());
        assert!(parse_relation("").is_err());
    }

    #[test]
    fn hypergraph_basic() {
        let (u, h) = parse_hypergraph("x y\ny z\n# comment\nx z\n").unwrap();
        assert_eq!(u.size(), 3);
        assert_eq!(h.len(), 3);
        assert!(h.is_simple());
    }

    #[test]
    fn events_basic() {
        let (names, seq) = parse_events("0 login\n1 search\n2 login # again\n").unwrap();
        assert_eq!(names, vec!["login", "search"]);
        assert_eq!(seq.len(), 3);
        assert_eq!(seq.alphabet(), 2);
    }

    #[test]
    fn events_errors() {
        assert!(parse_events("").is_err());
        assert!(parse_events("x login\n").is_err());
        assert!(parse_events("1 a b\n").is_err());
        assert!(parse_events("1\n").is_err());
    }

    #[test]
    fn errors_carry_locations() {
        // Ragged CSV row: physical line number, comments/blanks included.
        let err = parse_relation("a,b\n# note\n\n1,2\n3\n").unwrap_err();
        assert_eq!(err.line, Some(5));
        assert_eq!(err.column, None);
        assert_eq!(err.to_string(), "5: row has 1 cells, expected 2");
        assert_eq!(
            err.in_file("r.csv").to_string(),
            "r.csv:5: row has 1 cells, expected 2"
        );

        // Bad event time: line and column of the offending token.
        let err = parse_events("0 login\n  zz search\n").unwrap_err();
        assert_eq!((err.line, err.column), (Some(2), Some(3)));
        assert_eq!(
            err.clone().in_file("e.txt").to_string(),
            "e.txt:2:3: invalid time \"zz\""
        );

        // Whole-file errors render with no location prefix.
        let err = parse_baskets("# empty\n").unwrap_err();
        assert_eq!((err.line, err.column), (None, None));
        assert_eq!(err.to_string(), "no transactions found");
    }

    #[test]
    fn comment_stripping() {
        assert_eq!(strip_comment("a b # c"), "a b ");
        assert_eq!(strip_comment("plain"), "plain");
    }
}

/// Never-panic property tests: every parser must return `Ok` or a typed
/// [`FormatError`] on *arbitrary* input — panics are format bugs.
#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    /// Arbitrary text biased toward the parsers' own structure: format
    /// delimiters, comments, digits, and a sprinkling of arbitrary
    /// codepoints (including NUL and multi-byte characters).
    fn arb_text() -> impl Strategy<Value = String> {
        proptest::collection::vec(0u32..4096, 0..160).prop_map(|codes| {
            const PALETTE: &[char] = &[
                ' ', '\t', '\n', ',', '#', '0', '1', '9', '.', '-', 'a', 'Z', '_', '"',
            ];
            codes
                .into_iter()
                .map(|c| {
                    if (c as usize) < 4 * PALETTE.len() {
                        PALETTE[c as usize % PALETTE.len()]
                    } else {
                        char::from_u32(c).unwrap_or('\u{fffd}')
                    }
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn parse_baskets_never_panics(text in arb_text()) {
            let _ = parse_baskets(&text);
        }

        #[test]
        fn parse_relation_never_panics(text in arb_text()) {
            let _ = parse_relation(&text);
        }

        #[test]
        fn parse_relation_reader_never_panics_and_equals_text(text in arb_text()) {
            let by_text = parse_relation(&text);
            let by_reader = parse_relation_reader(Cursor::new(text.as_str()));
            match (by_text, by_reader) {
                (Ok((u1, r1)), Ok((u2, r2))) => {
                    prop_assert_eq!(u1.size(), u2.size());
                    for i in 0..u1.size() {
                        prop_assert_eq!(u1.name(i), u2.name(i));
                    }
                    prop_assert_eq!(r1.rows(), r2.rows());
                }
                (Err(e1), Err(e2)) => prop_assert_eq!(e1, e2),
                (a, b) => {
                    prop_assert!(false, "text {:?} vs reader {:?}",
                        a.map(|_| ()), b.map(|_| ()));
                }
            }
        }

        #[test]
        fn parse_hypergraph_never_panics(text in arb_text()) {
            let _ = parse_hypergraph(&text);
        }

        #[test]
        fn parse_events_never_panics(text in arb_text()) {
            if let Err(e) = parse_events(&text) {
                // Locations, when present, are 1-based.
                prop_assert!(e.line.is_none_or(|l| l >= 1));
                prop_assert!(e.column.is_none_or(|c| c >= 1));
            }
        }
    }
}
