//! Input-file parsers: baskets, CSV relations, hypergraphs.
//!
//! The high-volume formats (baskets, CSV relations) parse from any
//! [`BufRead`] source one line at a time — basket rows stream straight
//! into a [`VStoreBuilder`], so a database larger than memory
//! would ever hold as text materializes only its compact vertical form.
//! The `&str` entry points are thin [`Cursor`] wrappers kept for tests
//! and small inputs.
//!
//! The whitespace formats (baskets, hypergraphs) share one tokenizer,
//! `basket_tokens`: one pass over the bytes that costs one word load per
//! ASCII token and reports each name as a byte slice with its packed
//! interner key. It inlines into its callers, so the daemon's interning,
//! fingerprinting and row push run inside the loop (DESIGN §15, "The
//! basket tokenizer").

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::io::{BufRead, Cursor};
use std::sync::OnceLock;

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

/// Why a streaming reader stopped: its source failed, or what it read is
/// malformed. Frontends report the first as an I/O error and the second
/// as a parse error, wherever in the stream either happens.
#[derive(Debug)]
pub enum ReadError {
    /// The source failed mid-stream.
    Io(std::io::Error),
    /// The text read so far is malformed, or not UTF-8.
    Format(FormatError),
}

impl From<FormatError> for ReadError {
    fn from(e: FormatError) -> ReadError {
        ReadError::Format(e)
    }
}

/// A reader's result over in-memory text, whose source cannot fail.
fn from_text<T>(read: Result<T, ReadError>) -> Result<T, FormatError> {
    read.map_err(|e| match e {
        ReadError::Format(e) => e,
        ReadError::Io(e) => unreachable!("reading a Cursor over a str failed: {e}"),
    })
}

/// The next physical line of `reader` into `line`, without its `\n` or
/// `\r\n` (the split of [`BufRead::lines`]); `None` at the end.
fn next_line<'a>(
    reader: &mut impl BufRead,
    line: &'a mut Vec<u8>,
    lineno: usize,
) -> Result<Option<&'a str>, ReadError> {
    line.clear();
    if reader.read_until(b'\n', line).map_err(ReadError::Io)? == 0 {
        return Ok(None);
    }
    // The wording of `BufRead::lines`.
    let text = std::str::from_utf8(line).map_err(|_| {
        FormatError::at_line(lineno, "read error: stream did not contain valid UTF-8")
    })?;
    Ok(Some(match text.strip_suffix('\n') {
        Some(line) => line.strip_suffix('\r').unwrap_or(line),
        None => text,
    }))
}

/// A first-appearance dictionary: names in the order they were first
/// seen, plus a name → index map. Every parser's dictionary (basket
/// items, hypergraph vertices, CSV cell values, event types) is one.
///
/// A lookup borrows the token; only a name's first appearance allocates.
/// Names come from client-supplied files, so every lookup hashes under
/// per-process random keys:
/// - a name of 1–8 bytes (not ending in NUL) is packed into one `u64` and
///   looked up in an open-addressed table of whole `u64` keys, whose
///   multiply-shift hash is keyed by two words drawn once per process
///   from std's `RandomState`;
/// - any other name goes to a std `HashMap`, whose SipHash is randomly
///   keyed per map.
#[derive(Clone, Debug, Default)]
pub struct Interner {
    names: Vec<String>,
    short: KeyedMap,
    long: HashMap<String, usize>,
}

impl Interner {
    /// An empty dictionary.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// The index of `name`. A name not seen before gets the next index,
    /// [`len`](Self::len) before the call.
    pub fn intern(&mut self, name: &str) -> usize {
        self.intern_packed(name.as_bytes(), 0)
    }

    /// [`intern`](Self::intern) for a token the tokenizer already packed:
    /// `packed` is `name`'s packed key, or 0 to have it derived here. A
    /// name seen before costs one lookup; the rest is out of line.
    #[inline]
    pub(crate) fn intern_packed(&mut self, name: &[u8], packed: u64) -> usize {
        let key = if packed != 0 { packed } else { short_key(name) };
        // No stored key is 0, so a name the table does not take misses.
        match self.short.get(key) {
            Some(id) => id as usize,
            None => self.intern_miss(name, key),
        }
    }

    /// A name the packed table does not hold: new, or (`key` 0) one it
    /// does not take.
    fn intern_miss(&mut self, name: &[u8], key: u64) -> usize {
        let name = std::str::from_utf8(name).expect("names are cut from a str at ASCII bytes");
        let id = self.names.len();
        if key != 0 {
            self.short.insert(key, id as u64);
        } else if let Some(&id) = self.long.get(name) {
            return id;
        } else {
            self.long.insert(name.to_string(), id);
        }
        self.names.push(name.to_string());
        id
    }

    /// The name of index `id`.
    pub(crate) fn name(&self, id: usize) -> &str {
        &self.names[id]
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

/// The packed key of a name: its 1–8 bytes as one little-endian `u64`,
/// zero-padded, or 0 for a name the packed table does not take. Zero
/// bytes pad the key, so a name ending in NUL would pack like the name
/// without that NUL; such names, the empty name and names longer than 8
/// bytes go to the long map. Reads two overlapping words instead of
/// copying byte by byte.
fn short_key(bytes: &[u8]) -> u64 {
    let n = bytes.len();
    if n == 0 || n > 8 || bytes[n - 1] == 0 {
        0
    } else if n >= 4 {
        let lo = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        let hi = u32::from_le_bytes([bytes[n - 4], bytes[n - 3], bytes[n - 2], bytes[n - 1]]);
        u64::from(lo) | u64::from(hi) << (8 * (n - 4))
    } else {
        u64::from(bytes[0])
            | u64::from(bytes[n / 2]) << (8 * (n / 2))
            | u64::from(bytes[n - 1]) << (8 * (n - 1))
    }
}

/// An odd constant (MurmurHash3's finalizer multiplier).
const PREMIX: u64 = 0xff51_afd7_ed55_8ccd;

/// An open-addressed map from nonzero `u64` keys to `u64` values:
/// linear probing over a power-of-two table kept at most a quarter full,
/// with whole-key compares. A key past its home slot costs the lookup a
/// mispredicted branch: at half full, those made a mine-cold input's
/// canonicalization up to a quarter slower.
///
/// The hash is multiply-shift, `(a·x + b) >> (64 − log₂ capacity)`, over
/// a fixed bijective premix `x` of the key, with `a` (odd) and `b` drawn
/// once per process from std's `RandomState`, so clients cannot aim keys
/// at one probe run.
#[derive(Clone, Debug)]
struct KeyedMap {
    /// `(key, value)`; key 0 marks an empty slot.
    slots: Vec<(u64, u64)>,
    len: usize,
    shift: u32,
    mul: u64,
    add: u64,
}

impl Default for KeyedMap {
    fn default() -> Self {
        static KEYS: OnceLock<(u64, u64)> = OnceLock::new();
        let &(mul, add) = KEYS.get_or_init(|| {
            let state = RandomState::new();
            let draw = |i: u64| {
                let mut h = state.build_hasher();
                h.write_u64(i);
                h.finish()
            };
            (draw(0) | 1, draw(1))
        });
        KeyedMap {
            slots: Vec::new(),
            len: 0,
            shift: 0,
            mul,
            add,
        }
    }
}

impl KeyedMap {
    #[inline]
    fn home(&self, key: u64) -> usize {
        // A fixed bijection first: on its own, multiply-shift maps keys in
        // arithmetic progression (`it0`, `it1`, … packed) to evenly strided
        // homes, and for some key draws linear probing then walks long
        // runs. The bijection keeps distinct keys distinct, so the keyed
        // step's collision bound still holds.
        let x = key.wrapping_mul(PREMIX);
        let x = x ^ (x >> 32);
        (x.wrapping_mul(self.mul).wrapping_add(self.add) >> self.shift) as usize
    }

    /// The value under `key`, if any. An empty table has no slot at any
    /// index, so every lookup misses.
    #[inline]
    fn get(&self, key: u64) -> Option<u64> {
        let mask = self.slots.len().wrapping_sub(1);
        let mut i = self.home(key);
        loop {
            let &(k, v) = self.slots.get(i)?;
            if k == 0 {
                return None;
            }
            if k == key {
                return Some(v);
            }
            i = (i + 1) & mask;
        }
    }

    /// Stores `value` under `key`, which is nonzero and not in the table.
    fn insert(&mut self, key: u64, value: u64) {
        if 4 * self.len >= self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        while self.slots[i].0 != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = (key, value);
        self.len += 1;
    }

    fn grow(&mut self) {
        let capacity = (2 * self.slots.len()).max(16);
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); capacity]);
        self.shift = 64 - capacity.trailing_zeros();
        let mask = capacity - 1;
        for (k, v) in old.into_iter().filter(|&(k, _)| k != 0) {
            let mut i = self.home(k);
            while self.slots[i].0 != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = (k, v);
        }
    }
}

/// One step of the basket grammar, as [`basket_tokens`] reports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Token<'a> {
    /// An item name, and its packed key for
    /// [`Interner::intern_packed`] (0 when the tokenizer did not pack it).
    /// The name is a slice of the text cut at ASCII bytes, so it is UTF-8;
    /// bytes spare the loop the `str` slice's char-boundary checks.
    Item(&'a [u8], u64),
    /// The end of a physical line.
    LineEnd,
}

/// `0x01` in every byte of a word.
const ONES: u64 = 0x0101_0101_0101_0101;
/// `0x80` in every byte of a word.
const HIGHS: u64 = 0x8080_8080_8080_8080;

/// Flags (sets the high bit of) the bytes of `w` below `n <= 0x80`. A
/// borrow can also flag a byte above a true hit, never below the lowest
/// one, so only the lowest flag is exact (the masks of
/// `dualminer_obs`'s JSON codec).
#[inline]
fn below(w: u64, n: u8) -> u64 {
    w.wrapping_sub(ONES * u64::from(n)) & !w & HIGHS
}

/// Flags the bytes of `w` that may end a token: ≤ 0x20, `#` or ≥ 0x80.
/// Only the lowest flag is exact.
#[inline]
fn specials(w: u64) -> u64 {
    below(w, 0x21) | below(w ^ (ONES * u64::from(b'#')), 1) | (w & HIGHS)
}

/// Whether `b` is ASCII whitespace: a separator or `\n`.
#[inline]
fn is_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// Whether a byte that [`specials`] flags ends a token. The rest of the
/// flagged bytes, the controls other than `\t \n \x0B \x0C \r`, are part
/// of a name.
#[inline]
fn ends_token(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ' | b'#' | 0x80..)
}

/// The word of the 8 bytes at `i`, little-endian. Bytes past the end of
/// the input read as spaces, so a token that runs to the end of the
/// input ends at a separator like any other.
#[inline]
fn word_at(bytes: &[u8], i: usize) -> u64 {
    match bytes.get(i..i + 8) {
        Some(chunk) => u64::from_le_bytes(chunk.try_into().expect("8 bytes")),
        None => {
            let mut word = [b' '; 8];
            let rest = &bytes[i.min(bytes.len())..];
            word[..rest.len()].copy_from_slice(rest);
            u64::from_le_bytes(word)
        }
    }
}

/// The tokenizer of the whitespace formats (baskets and hypergraphs):
/// passes every item token of `text`, and the end of every physical
/// line, to `emit` in order.
///
/// Lines end at `\n`; the last line need not. `#` ends a line's content.
/// Tokens are separated by whitespace. On ASCII a token costs one word:
/// the lowest byte of the 8 at its start that is ≤ 0x20, `#` or ≥ 0x80
/// ends it, that byte is read from the same word, and a separator there
/// is consumed in the same step. A token that ends inside that word
/// comes with its packed key. Control bytes other than whitespace
/// (`\x00`, `\x1C` …) are part of a name and send the token on a slower
/// scan, as does a name longer than 7 bytes. From the first token that
/// holds a byte ≥ 0x80, the rest of the line goes through
/// `split_whitespace`, so every Unicode `White_Space` character stays a
/// separator.
///
/// Inlined, so a caller's `emit` (interning, fingerprinting, the row
/// push) compiles into the loop.
#[inline]
pub(crate) fn basket_tokens<'a>(text: &'a str, mut emit: impl FnMut(Token<'a>)) {
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let w = word_at(bytes, i);
        let k = specials(w).trailing_zeros() as usize / 8;
        // The token `i..end`, its packed key, and the byte that ends it
        // (a space past the end of the input).
        let (mut end, mut packed, mut stop) = if k.wrapping_sub(1) < 7 {
            // The key holds no byte below 0x21, so it does not end in NUL.
            (i + k, w & ((1 << (8 * k)) - 1), (w >> (8 * k)) as u8)
        } else if k == 8 {
            let end = word_end(bytes, i + 8);
            let packed = if end == i + 8 { w } else { 0 };
            (end, packed, byte_or_space(bytes, end))
        } else {
            // No name starts at `i`, unless with a control byte.
            match w as u8 {
                b'\n' => {
                    emit(Token::LineEnd);
                    i += 1;
                    continue;
                }
                b'#' => {
                    i = line_end(bytes, i);
                    continue;
                }
                0x80.. => (i, 0, 0x80),
                b if ends_token(b) => {
                    i += 1;
                    continue;
                }
                b => (i, 0, b),
            }
        };
        if !is_space(stop) {
            while !ends_token(stop) {
                // A control byte inside the name.
                end = word_end(bytes, end + 1);
                packed = 0;
                stop = byte_or_space(bytes, end);
            }
            if stop >= 0x80 {
                // `i` follows an ASCII byte, so it is a char boundary.
                let line = line_end(bytes, i);
                strip_comment(&text[i..line])
                    .split_whitespace()
                    .for_each(|item| emit(Token::Item(item.as_bytes(), 0)));
                i = line;
                continue;
            }
        }
        emit(Token::Item(&bytes[i..end], packed));
        i = end + 1;
        if stop == b'\n' {
            emit(Token::LineEnd);
        } else if stop == b'#' {
            i = line_end(bytes, end);
        }
    }
    if !text.is_empty() && !text.ends_with('\n') {
        emit(Token::LineEnd);
    }
}

/// The byte at `i`, or a space past the end.
#[inline]
fn byte_or_space(bytes: &[u8], i: usize) -> u8 {
    bytes.get(i).copied().unwrap_or(b' ')
}

/// The index of the first byte at or after `i` that ends a token, or the
/// length.
fn word_end(bytes: &[u8], mut i: usize) -> usize {
    loop {
        let flags = specials(word_at(bytes, i));
        if flags == 0 {
            i += 8;
            continue;
        }
        i += flags.trailing_zeros() as usize / 8;
        match bytes.get(i) {
            Some(&b) if !ends_token(b) => i += 1,
            _ => return i.min(bytes.len()),
        }
    }
}

/// The index of the `\n` that ends the line holding `i`, or the length.
fn line_end(bytes: &[u8], i: usize) -> usize {
    bytes[i..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(bytes.len(), |k| i + k)
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
    from_text(parse_baskets_reader(Cursor::new(text)))
}

/// Streaming [`parse_baskets`]: reads transactions line by line from any
/// [`BufRead`] source, pushing each row into a [`VStoreBuilder`]. Only
/// the dictionary and the vertical store are ever resident — neither the
/// input text nor an index-row copy of the database is materialized.
///
/// A failing source is [`ReadError::Io`]; invalid UTF-8 is a
/// [`FormatError`] at the offending physical line.
pub fn parse_baskets_reader(
    mut reader: impl BufRead,
) -> Result<(Universe, TransactionDb), ReadError> {
    let mut items = Interner::new();
    let mut builder = VStoreBuilder::new();
    let mut row: Vec<usize> = Vec::new();
    let mut line: Vec<u8> = Vec::new();
    for lineno in 1.. {
        let Some(text) = next_line(&mut reader, &mut line, lineno)? else {
            break;
        };
        row.clear();
        basket_tokens(text, |token| {
            if let Token::Item(item, packed) = token {
                row.push(items.intern_packed(item, packed));
            }
        });
        if row.is_empty() {
            continue;
        }
        builder.push_row(row.iter().copied());
    }
    if builder.n_rows() == 0 {
        return Err(FormatError::new("no transactions found").into());
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
    from_text(parse_relation_reader(Cursor::new(text)))
}

/// Streaming [`parse_relation`]: reads the CSV from any [`BufRead`]
/// source one line at a time, dictionary-coding cells as they arrive, so
/// only the coded rows and per-column dictionaries are resident. A
/// failing source is [`ReadError::Io`]; invalid UTF-8 is a
/// [`FormatError`] at the offending physical line.
pub fn parse_relation_reader(mut reader: impl BufRead) -> Result<(Universe, Relation), ReadError> {
    let mut names: Vec<String> = Vec::new();
    let mut dictionaries: Vec<Interner> = Vec::new();
    let mut rows: Vec<Vec<u32>> = Vec::new();
    let mut buf: Vec<u8> = Vec::new();
    for lineno in 1.. {
        let Some(line) = next_line(&mut reader, &mut buf, lineno)? else {
            break;
        };
        let line = strip_whole_line_comment(line);
        if line.trim().is_empty() {
            continue;
        }
        if names.is_empty() {
            // First data line is the header.
            names = line.split(',').map(|s| s.trim().to_string()).collect();
            if names.iter().any(String::is_empty) {
                return Err(FormatError::at_line(lineno, "invalid header row").into());
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
            )
            .into());
        }
        let row = cells
            .iter()
            .enumerate()
            .map(|(col, cell)| dictionaries[col].intern(cell) as u32)
            .collect();
        rows.push(row);
    }
    if names.is_empty() {
        return Err(FormatError::new("empty relation file").into());
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
pub(crate) fn parse_hypergraph_raw(
    text: &str,
    vertices: &mut Interner,
) -> Result<Vec<Vec<usize>>, FormatError> {
    let mut raw_edges: Vec<Vec<usize>> = Vec::new();
    let mut edge: Vec<usize> = Vec::new();
    basket_tokens(text, |token| match token {
        Token::Item(v, packed) => edge.push(vertices.intern_packed(v, packed)),
        Token::LineEnd if !edge.is_empty() => raw_edges.push(std::mem::take(&mut edge)),
        Token::LineEnd => {}
    });
    if raw_edges.is_empty() {
        return Err(FormatError::new("no edges found"));
    }
    Ok(raw_edges)
}

/// Materializes raw index edges (from [`parse_hypergraph_raw`]) as a
/// [`Hypergraph`] over a universe of `n` vertices.
pub(crate) fn hypergraph_from_raw(
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
pub(crate) fn strip_whole_line_comment(line: &str) -> &str {
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
    fn reader_utf8_errors_are_format_errors() {
        // Invalid UTF-8 on physical line 2 surfaces as a located
        // FormatError, not a panic or a silent truncation.
        let bytes: &[u8] = b"milk bread\n\xff\xfe\n";
        let err = from_text(parse_baskets_reader(Cursor::new(bytes))).unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.message.contains("read error"), "{err}");

        let csv: &[u8] = b"a,b\n\xff,2\n";
        let err = from_text(parse_relation_reader(Cursor::new(csv))).unwrap_err();
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
    fn tokens_lines_and_packed_keys() {
        let text = "ab cd\n\nabcdefgh x\tabcdefghi # c\ny";
        let mut got = Vec::new();
        basket_tokens(text, |t| got.push(t));
        let want = [
            Token::Item(b"ab", 0x6261),
            Token::Item(b"cd", 0x6463),
            Token::LineEnd,
            Token::LineEnd,
            Token::Item(b"abcdefgh", u64::from_le_bytes(*b"abcdefgh")),
            Token::Item(b"x", 0x78),
            Token::Item(b"abcdefghi", 0),
            Token::LineEnd,
            // The last line is shorter than a word: read space-padded.
            Token::Item(b"y", 0x79),
            Token::LineEnd,
        ];
        assert_eq!(got, want);
        for name in ["ab", "abcdefgh", "x", "y"] {
            let packed = short_key(name.as_bytes());
            assert!(
                want.contains(&Token::Item(name.as_bytes(), packed)),
                "{name}"
            );
        }
    }

    #[test]
    fn interner_keeps_names_that_differ_by_trailing_nul_apart() {
        let mut dict = Interner::new();
        let names = ["ab", "ab\0", "ab\0\0", "", "\0", "abcdefg\0", "abcdefg"];
        for (id, name) in names.iter().enumerate() {
            assert_eq!(dict.intern(name), id, "{name:?}");
        }
        for (id, name) in names.iter().enumerate() {
            assert_eq!(dict.intern(name), id, "{name:?}");
        }
    }

    #[test]
    fn interner_ids_are_first_appearance_across_growth() {
        // 100k distinct names of 1–16 bytes, some ending in NUL: the
        // packed table and the long map both grow many times.
        let names: Vec<String> = (0..100_000usize)
            .map(|i| {
                let mut name = format!("{i:x}");
                while name.len() < 1 + i * 7 % 16 {
                    name.push('-');
                }
                if i % 13 == 0 {
                    name.push('\0');
                }
                name
            })
            .collect();
        let mut dict = Interner::new();
        for (id, name) in names.iter().enumerate() {
            assert_eq!(dict.intern(name), id, "{name:?}");
        }
        for (id, name) in names.iter().enumerate().rev() {
            assert_eq!(dict.intern(name), id, "{name:?}");
        }
        assert_eq!(dict.len(), names.len());
        assert_eq!(dict.into_names(), names);
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
pub(crate) mod props {
    use super::*;
    use proptest::prelude::*;

    /// Every Unicode `White_Space` character.
    pub(crate) const WHITE_SPACE: [char; 25] = [
        '\t', '\n', '\x0B', '\x0C', '\r', ' ', '\u{85}', '\u{A0}', '\u{1680}', '\u{2000}',
        '\u{2001}', '\u{2002}', '\u{2003}', '\u{2004}', '\u{2005}', '\u{2006}', '\u{2007}',
        '\u{2008}', '\u{2009}', '\u{200A}', '\u{2028}', '\u{2029}', '\u{202F}', '\u{205F}',
        '\u{3000}',
    ];

    /// Name and structure pieces for the tokenizer's differential tests:
    /// non-whitespace controls inside tokens (`\x00`, `\x1C`–`\x1F`,
    /// `\x7F`), names ending in NUL, `#` mid-token, multibyte names, names
    /// of exactly 8 bytes (ASCII and multibyte) and of 9+ bytes, CRLF, a
    /// lone CR, comments and blank lines.
    const PIECES: &[&str] = &[
        "a",
        "b",
        "it7",
        "it42",
        "milk",
        "abcdefgh",
        "abcdefghi",
        "a_much_longer_item_name",
        "ππππ",
        "π",
        "Ünï",
        "日本語",
        "x\0y",
        "ab\0",
        "\0",
        "a\x1Cb",
        "\x1F",
        "c\x1D\x1E",
        "d\x7F",
        "e#f",
        "#",
        "# comment π milk\n",
        "\r\n",
        "\r",
        "\n",
        "\n\n",
    ];

    /// Basket texts over [`PIECES`] and [`WHITE_SPACE`], empty included.
    pub(crate) fn arb_tokenizer_text() -> impl Strategy<Value = String> {
        let n = PIECES.len() + WHITE_SPACE.len();
        proptest::collection::vec(0..n, 0..60).prop_map(|picks| {
            let mut text = String::new();
            for i in picks {
                match PIECES.get(i) {
                    Some(piece) => text.push_str(piece),
                    None => text.push(WHITE_SPACE[i - PIECES.len()]),
                }
            }
            text
        })
    }

    /// [`arb_tokenizer_text`] as bytes, with invalid UTF-8 spliced in.
    fn arb_tokenizer_bytes() -> impl Strategy<Value = Vec<u8>> {
        const INVALID: &[&[u8]] = &[b"\xff", b"\xc3", b"\x80", b"\xe6\x97"];
        (
            arb_tokenizer_text(),
            proptest::collection::vec((0usize..64, 0..INVALID.len()), 0..2),
        )
            .prop_map(|(text, splices)| {
                let mut bytes = text.into_bytes();
                for (at, which) in splices {
                    let at = at.min(bytes.len());
                    bytes.splice(at..at, INVALID[which].iter().copied());
                }
                bytes
            })
    }

    /// Index rows as the parsers split them before the byte-level
    /// tokenizer: `strip_comment` and `split_whitespace` per line, names
    /// in a std `HashMap` dictionary, empty rows dropped.
    fn reference_rows(
        lines: impl Iterator<Item = Result<String, FormatError>>,
    ) -> Result<(Vec<String>, Vec<Vec<usize>>), FormatError> {
        let mut names: Vec<String> = Vec::new();
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut rows: Vec<Vec<usize>> = Vec::new();
        for line in lines {
            let row: Vec<usize> = strip_comment(&line?)
                .split_whitespace()
                .map(|item| {
                    *index.entry(item.to_string()).or_insert_with(|| {
                        names.push(item.to_string());
                        names.len() - 1
                    })
                })
                .collect();
            if !row.is_empty() {
                rows.push(row);
            }
        }
        Ok((names, rows))
    }

    /// The streaming basket parser before the byte-level tokenizer.
    fn reference_parse_baskets_reader(
        reader: impl BufRead,
    ) -> Result<(Vec<String>, Vec<AttrSet>), FormatError> {
        let lines = reader.lines().enumerate().map(|(lineno, line)| {
            line.map_err(|e| FormatError::at_line(lineno + 1, format!("read error: {e}")))
        });
        let (names, rows) = reference_rows(lines)?;
        if rows.is_empty() {
            return Err(FormatError::new("no transactions found"));
        }
        let n = names.len();
        let rows = rows
            .into_iter()
            .map(|r| AttrSet::from_indices(n, r))
            .collect();
        Ok((names, rows))
    }

    fn parsed(
        result: Result<(Universe, TransactionDb), ReadError>,
    ) -> Result<(Vec<String>, Vec<AttrSet>), FormatError> {
        from_text(result).map(|(u, db)| {
            let names = (0..u.size()).map(|i| u.name(i).to_string()).collect();
            (names, db.rows().to_vec())
        })
    }

    #[test]
    fn every_white_space_char_separates_tokens() {
        for c in WHITE_SPACE {
            let text = format!("a{c}b{c}{c}abcdefghi{c}a\n");
            let (u, db) = parse_baskets(&text).unwrap();
            let names: Vec<&str> = (0..u.size()).map(|i| u.name(i)).collect();
            assert_eq!(names, ["a", "b", "abcdefghi"], "{c:?}");
            assert_eq!(db.n_rows(), if c == '\n' { 4 } else { 1 }, "{c:?}");
        }
    }

    /// A source that fails after some bytes — past a line, mid-line,
    /// past the reader's first buffer, or at once — is an I/O error for
    /// both readers, never a parse error.
    #[test]
    fn reader_source_failures_are_io_errors() {
        /// Yields `data`, then fails.
        struct Failing<'a>(&'a [u8]);
        impl std::io::Read for Failing<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Err(std::io::Error::other("disk on fire"));
                }
                let n = buf.len().min(self.0.len());
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let long = "a,b\n1,2\n".repeat(2048);
        for data in [&b"a,b\n1,2\n3"[..], b"a,b\n", b"", long.as_bytes()] {
            for capacity in [4, 8192] {
                let reader = || std::io::BufReader::with_capacity(capacity, Failing(data));
                let is_io = |e: ReadError| match e {
                    ReadError::Io(e) => e.to_string() == "disk on fire",
                    ReadError::Format(_) => false,
                };
                assert!(
                    is_io(parse_baskets_reader(reader()).unwrap_err()),
                    "{data:?}"
                );
                assert!(
                    is_io(parse_relation_reader(reader()).unwrap_err()),
                    "{data:?}"
                );
            }
        }
    }

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

        /// The byte-level basket parser builds what the reference does,
        /// and fails with the same error at the same line.
        #[test]
        fn parse_baskets_reader_matches_reference(bytes in arb_tokenizer_bytes()) {
            let got = parsed(parse_baskets_reader(Cursor::new(&bytes)));
            let want = reference_parse_baskets_reader(Cursor::new(&bytes));
            prop_assert_eq!(got, want);
        }

        /// The tokenizer's items are the reference line split's, every
        /// line ends once, and every packed key is the interner's own.
        #[test]
        fn tokens_match_the_line_split(text in arb_tokenizer_text()) {
            let mut items = Vec::new();
            let mut ends = 0;
            basket_tokens(&text, |token| match token {
                Token::Item(item, packed) => items.push((std::str::from_utf8(item).unwrap(), packed)),
                Token::LineEnd => ends += 1,
            });
            let want: Vec<&str> = text
                .lines()
                .flat_map(|line| strip_comment(line).split_whitespace())
                .collect();
            prop_assert_eq!(items.iter().map(|&(item, _)| item).collect::<Vec<_>>(), want);
            prop_assert_eq!(ends, text.lines().count());
            for (item, packed) in items {
                prop_assert!(packed == 0 || packed == short_key(item.as_bytes()), "{:?}", item);
            }
        }

        /// Hypergraph files share the tokenizer: same vertices and edges
        /// as the reference line split.
        #[test]
        fn parse_hypergraph_raw_matches_reference(text in arb_tokenizer_text()) {
            let mut vertices = Interner::new();
            let got = parse_hypergraph_raw(&text, &mut vertices);
            let (names, edges) = reference_rows(text.lines().map(|l| Ok(l.to_string()))).unwrap();
            match got {
                Ok(got) => {
                    prop_assert_eq!(got, edges);
                    prop_assert_eq!(vertices.into_names(), names);
                }
                Err(_) => prop_assert!(edges.is_empty()),
            }
        }

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
            let by_reader = from_text(parse_relation_reader(Cursor::new(text.as_str())));
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
