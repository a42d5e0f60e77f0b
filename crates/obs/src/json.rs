//! A minimal, dependency-free JSON value: writer plus strict parser.
//!
//! This is the codec of checkpoints ([`crate::checkpoint`]), daemon cache
//! snapshots and every daemon protocol frame; its string escaper also
//! writes the `--stats json` artifact. A result frame carries its whole
//! body — often a megabyte — as one embedded string, so the string codec
//! scans a 64-bit word at a time and copies clean runs in one step each.
//!
//! It stays deliberately small: numbers are integers only, from `i64::MIN`
//! to `u64::MAX` (every quantity is a count, an index, an id or an exit
//! code; floats would drag in precision questions no format here needs),
//! object keys keep insertion order, and the parser rejects trailing
//! garbage so a truncated-then-concatenated file cannot silently parse.

use std::fmt::Write as _;

/// A JSON value with integer-only numbers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer number that fits in `i64`.
    Int(i64),
    /// An integer above `i64::MAX`. [`Json::uint`] and [`Json::parse`]
    /// produce `Int` for every value that fits, so equal numbers compare
    /// equal.
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order (stable output for checksums).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds an integer value from any unsigned count, exactly: `Int` up
    /// to `i64::MAX`, `UInt` above it.
    pub fn uint(n: u64) -> Json {
        i64::try_from(n).map_or(Json::UInt(n), Json::Int)
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer value, if this is an integer that fits in `i64`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::UInt(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The integer value as a non-negative count.
    pub fn as_uint(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool value, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes to compact JSON (no whitespace; stable field order).
    /// `Display` (and so `.to_string()`) produces the same bytes.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(out, key);
                    out.push_str("\":");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document; rejects trailing non-whitespace.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Parser::new(text).document()
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.serialize())
    }
}

/// A JSON parse failure, with the byte offset at which it occurred.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

// ---------------------------------------------------------------------------
// The string codec: SWAR scans (bit tricks on one little-endian u64 holding
// eight input bytes). Each mask sets the high bit of the bytes it flags. A
// borrow can also flag a byte *above* a true hit, never below the lowest
// one, so the lowest flag of a mask — or of an OR of masks — is exact, and
// the scans use only that.
// ---------------------------------------------------------------------------

/// `0x01` in every byte.
const ONES: u64 = 0x0101_0101_0101_0101;
/// `0x80` in every byte.
const HIGHS: u64 = 0x8080_8080_8080_8080;

/// Flags the bytes of `w` below `n` (`n <= 0x80`).
#[inline(always)]
fn below(w: u64, n: u8) -> u64 {
    w.wrapping_sub(ONES * u64::from(n)) & !w & HIGHS
}

/// Flags the bytes of `w` equal to `b`.
#[inline(always)]
fn equal(w: u64, b: u8) -> u64 {
    below(w ^ (ONES * u64::from(b)), 1)
}

/// The index of the first byte at or after `from` that `hit` accepts.
/// `flags` is `hit` on a whole word: its lowest flag must mark the first
/// byte `hit` accepts.
#[inline(always)]
fn scan(
    bytes: &[u8],
    from: usize,
    flags: impl Fn(u64) -> u64,
    hit: impl Fn(u8) -> bool,
) -> Option<usize> {
    let mut i = from;
    while let Some(word) = bytes.get(i..i + 8) {
        let m = flags(u64::from_le_bytes(
            word.try_into().expect("an 8-byte slice"),
        ));
        if m != 0 {
            return Some(i + (m.trailing_zeros() / 8) as usize);
        }
        i += 8;
    }
    let tail = bytes.get(i..)?;
    tail.iter().position(|&b| hit(b)).map(|p| i + p)
}

/// The first byte at or after `from` that a JSON string must escape: `"`,
/// `\`, or a control byte below 0x20. Flipping bit 1 maps `"` (0x22) to
/// 0x20 and keeps 0x00..=0x1f below 0x20 while every other byte lands at
/// 0x21 or above, so one range test covers the quote and the controls.
fn find_escapable(bytes: &[u8], from: usize) -> Option<usize> {
    scan(
        bytes,
        from,
        |w| below(w ^ (ONES * 0x02), 0x21) | equal(w, b'\\'),
        |b| b == b'"' || b == b'\\' || b < 0x20,
    )
}

/// The first `"` or `\` at or after `from`.
fn find_quote_or_backslash(bytes: &[u8], from: usize) -> Option<usize> {
    scan(
        bytes,
        from,
        |w| equal(w, b'"') | equal(w, b'\\'),
        |b| b == b'"' || b == b'\\',
    )
}

/// Appends `s` to `out` as the inside of a JSON string literal: `"`, `\`,
/// newline, tab and carriage return get their two-byte escapes, other
/// control bytes `\u00XX` (lowercase hex), everything else is copied in
/// clean runs. Every escaped byte is ASCII, so runs end on char boundaries.
/// The writer escapes every string this way, so a string escaped once can
/// be spliced into a document where [`Json::serialize`] would write it.
pub fn escape_into(out: &mut String, s: &str) {
    let bytes = s.as_bytes();
    // Room for one escape per 8 bytes: a result body (a newline every ~50
    // bytes) then escapes without regrowing and copying the frame.
    out.reserve(bytes.len() + bytes.len() / 8);
    let mut start = 0;
    while let Some(i) = find_escapable(bytes, start) {
        out.push_str(&s[start..i]);
        match bytes[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            b => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Decode strings with the byte-at-a-time reference scanner that the
    /// differential tests hold the word-at-a-time one to.
    #[cfg(test)]
    reference: bool,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            #[cfg(test)]
            reference: false,
        }
    }

    fn document(mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        let value = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("non-integer numbers are not supported"));
        }
        let text = &self.text[start..self.pos];
        match text.parse::<i64>() {
            Ok(n) => Ok(Json::Int(n)),
            Err(_) => text
                .parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| self.err("invalid integer")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        #[cfg(test)]
        if self.reference {
            return self.reference_string();
        }
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(i) = find_quote_or_backslash(self.bytes, self.pos) else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            // Both delimiters are ASCII, so the run ends on a char boundary.
            out.push_str(&self.text[self.pos..i]);
            self.pos = i + 1;
            if self.bytes[i] == b'"' {
                return Ok(out);
            }
            self.escape(&mut out)?;
        }
    }

    /// Decodes the escape whose backslash sits just before `pos`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b't') => out.push('\t'),
            Some(b'r') => out.push('\r'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let hex = self
                    .bytes
                    .get(self.pos + 1..self.pos + 5)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                let code =
                    u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
                // The writer emits `\u` only for control bytes; BMP
                // scalars are enough, surrogates are rejected.
                let c = char::from_u32(code).ok_or_else(|| self.err("invalid \\u code point"))?;
                out.push(c);
                self.pos += 4;
            }
            _ => return Err(self.err("invalid escape")),
        }
        self.pos += 1;
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time escaper the word-at-a-time one replaced: the
    /// reference for the differential tests.
    fn reference_escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        let bytes = s.as_bytes();
        let mut start = 0;
        for (i, &b) in bytes.iter().enumerate() {
            if b != b'"' && b != b'\\' && b >= 0x20 {
                continue;
            }
            out.push_str(&s[start..i]);
            match b {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                b'\n' => out.push_str("\\n"),
                b'\t' => out.push_str("\\t"),
                b'\r' => out.push_str("\\r"),
                _ => out.push_str(&format!("\\u{:04x}", b)),
            }
            start = i + 1;
        }
        out.push_str(&s[start..]);
        out
    }

    impl Parser<'_> {
        /// The byte-at-a-time run scanner the word-at-a-time `string`
        /// replaced: the reference for the differential tests.
        pub(super) fn reference_string(&mut self) -> Result<String, JsonError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        self.escape(&mut out)?;
                    }
                    Some(_) => {
                        let start = self.pos;
                        while let Some(&b) = self.bytes.get(self.pos) {
                            if b == b'"' || b == b'\\' {
                                break;
                            }
                            self.pos += 1;
                        }
                        let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?;
                        out.push_str(chunk);
                    }
                }
            }
        }
    }

    fn reference_parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser::new(text);
        p.reference = true;
        p.document()
    }

    fn escape(s: &str) -> String {
        let mut out = String::new();
        escape_into(&mut out, s);
        out
    }

    /// One representative of every byte class the codec treats apart:
    /// plain ASCII, 0x7f, each control byte with its own escape and some
    /// without, the two delimiters, and 2- to 4-byte UTF-8 (whose bytes
    /// are all ≥ 0x80, the inputs that could trip a borrow-based mask).
    const PIECES: &[&str] = &[
        "a",
        "Z",
        " ",
        "~",
        "/",
        "0123456789",
        "\u{7f}",
        "\0",
        "\u{1}",
        "\u{8}",
        "\u{c}",
        "\u{1f}",
        "\n",
        "\t",
        "\r",
        "\"",
        "\\",
        "é",
        "\u{80}",
        "\u{ff}",
        "σ",
        "≥",
        "€",
        "\u{ffff}",
        "𝄞",
        "😀",
    ];

    /// The special bytes (escaped on write, or delimiting on read).
    const SPECIALS: &[&str] = &["\"", "\\", "\n", "\0", "\u{1f}", "\u{8}"];

    fn mixed_string() -> impl Strategy<Value = String> {
        collection::vec(0..PIECES.len(), 0..48)
            .prop_map(|ix| ix.iter().map(|&i| PIECES[i]).collect())
    }

    fn assert_codec_matches_reference(s: &str) {
        let escaped = escape(s);
        assert_eq!(escaped, reference_escape(s), "escape of {s:?}");
        let doc = Json::str(s).serialize();
        assert_eq!(doc, format!("\"{escaped}\""));
        let parsed = Json::parse(&doc);
        assert_eq!(parsed, reference_parse(&doc), "parse of {doc:?}");
        assert_eq!(parsed, Ok(Json::str(s)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Escape and parse agree byte for byte with the reference codec on
        /// strings mixing every byte class.
        #[test]
        fn codec_matches_reference_on_mixed_strings(s in mixed_string()) {
            assert_codec_matches_reference(&s);
        }

        /// Raw string literals with arbitrary escapes — valid, invalid,
        /// truncated, unterminated — parse to the reference's exact value
        /// or exact error (message and offset).
        #[test]
        fn parse_matches_reference_on_raw_literals(
            ix in collection::vec(0usize..18, 0..24),
            close in any::<bool>(),
        ) {
            const RAW: &[&str] = &[
                "a", "bcdefgh", "é", "😀", "\\n", "\\\"", "\\\\", "\\/", "\\u0041", "\\u00e9",
                "\\uD800", "\\u12", "\\u+123", "\\q", "\\", "\\u", "\\b\\f", "\\u00",
            ];
            let mut doc = String::from("\"");
            for &i in &ix {
                doc.push_str(RAW[i]);
            }
            if close {
                doc.push('"');
            }
            prop_assert_eq!(Json::parse(&doc), reference_parse(&doc));
        }
    }

    #[test]
    fn codec_matches_reference_at_every_word_position() {
        // Lengths 0..=40 behind every start offset mod 8, with one special
        // byte at word positions 7, 8 and 9 (the last byte of a word, the
        // first of the next, and the one after), each next to a
        // multi-byte char so a borrow false positive would show.
        for offset in 0..8 {
            for len in 0..=40 {
                for special in SPECIALS {
                    for at in [7, 8, 9] {
                        let mut s = "x".repeat(offset);
                        let mut body: Vec<&str> = vec!["a"; len];
                        if at < len {
                            body[at] = special;
                            if at + 1 < len {
                                body[at + 1] = "é";
                            }
                        }
                        s.extend(body);
                        assert_codec_matches_reference(&s);
                    }
                }
            }
        }
    }

    #[test]
    fn unterminated_strings_fail_like_the_reference_at_every_word_offset() {
        for len in 0..=24 {
            for tail in ["", "\\", "\\u", "\\u00", "\\\"", "é"] {
                let doc = format!("\"{}{tail}", "a".repeat(len));
                let err = Json::parse(&doc).unwrap_err();
                assert_eq!(Err(err.clone()), reference_parse(&doc), "{doc:?}");
                // Protocol errors quote these offsets.
                let message = if tail == "\\" {
                    "invalid escape"
                } else if tail.starts_with("\\u") {
                    "truncated \\u escape"
                } else {
                    "unterminated string"
                };
                assert_eq!(err.message, message, "{doc:?}");
            }
            let doc = format!("{{\"k\":\"{}", "b".repeat(len));
            let err = Json::parse(&doc).unwrap_err();
            assert_eq!(Err(err.clone()), reference_parse(&doc));
            assert_eq!(err.offset, doc.len());
        }
    }

    #[test]
    fn round_trips_nested_values() {
        let value = Json::Obj(vec![
            ("name".into(), Json::str("level\"wise\n")),
            ("count".into(), Json::Int(-42)),
            ("big".into(), Json::uint(u64::MAX)),
            ("flag".into(), Json::Bool(true)),
            ("nothing".into(), Json::Null),
            (
                "sets".into(),
                Json::Arr(vec![
                    Json::Arr(vec![Json::Int(0), Json::Int(3)]),
                    Json::Arr(vec![]),
                ]),
            ),
        ]);
        let text = value.to_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, value);
        assert_eq!(parsed.get("count").and_then(Json::as_int), Some(-42));
        assert_eq!(parsed.get("big").and_then(Json::as_uint), Some(u64::MAX));
        assert_eq!(parsed.get("flag").and_then(Json::as_bool), Some(true));
        assert_eq!(
            parsed.get("name").and_then(Json::as_str),
            Some("level\"wise\n")
        );
        assert_eq!(
            parsed.get("sets").and_then(Json::as_arr).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(parsed.get("missing"), None);
        assert_eq!(Json::Int(7).as_uint(), Some(7));
        assert_eq!(Json::Int(-1).as_uint(), None);
    }

    #[test]
    fn u64_round_trips_exactly_at_the_boundaries() {
        let top = i64::MAX as u64;
        for n in [0, 1, top - 1, top, top + 1, top + 2, u64::MAX - 1, u64::MAX] {
            let text = Json::uint(n).serialize();
            assert_eq!(text, n.to_string());
            let parsed = Json::parse(&text).unwrap();
            assert_eq!(parsed, Json::uint(n));
            assert_eq!(parsed.as_uint(), Some(n));
            assert_eq!(parsed.as_int(), i64::try_from(n).ok());
        }
        // Values that fit keep the i64 form, so existing bytes and
        // equality are unchanged.
        assert_eq!(Json::uint(top), Json::Int(i64::MAX));
        assert_eq!(Json::parse("-9223372036854775808"), Ok(Json::Int(i64::MIN)));
        for bad in [
            "18446744073709551616",
            "-9223372036854775809",
            "99999999999999999999",
            "-",
            "9223372036854775808.0",
            "18446744073709551615e0",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
            assert_eq!(Json::parse(bad), reference_parse(bad));
        }
    }

    proptest! {
        /// Every u64 round-trips through `uint`, `serialize`, `parse` and
        /// `as_uint`, with dense coverage around `i64::MAX` and `u64::MAX`.
        #[test]
        fn u64_round_trips(n in any::<u64>(), near in 0u64..4096, pick in 0u8..3) {
            let n = match pick {
                0 => n,
                1 => (i64::MAX as u64 - 2048).wrapping_add(near),
                _ => u64::MAX - near,
            };
            let parsed = Json::parse(&Json::uint(n).serialize()).unwrap();
            prop_assert_eq!(parsed.as_uint(), Some(n));
            prop_assert_eq!(parsed.as_int(), i64::try_from(n).ok());
        }
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let parsed = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : \"\\u0041\\t\" } ").unwrap();
        assert_eq!(
            parsed.get("a").and_then(Json::as_arr),
            Some(&[Json::Int(1), Json::Int(2)][..])
        );
        assert_eq!(parsed.get("b").and_then(Json::as_str), Some("A\t"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Daemon result bodies travel as one megabyte-scale embedded
        // string; the chunked scan must round-trip mixed plain runs,
        // escapes, and multi-byte UTF-8 without quadratic re-validation.
        let payload = "Tr(H): σ ≥ 2 \"quoted\"\n".repeat(50_000);
        let doc = Json::Obj(vec![("body".into(), Json::str(&payload))]).serialize();
        let start = std::time::Instant::now();
        let parsed = Json::parse(&doc).unwrap();
        assert_eq!(parsed.get("body").and_then(Json::as_str), Some(&*payload));
        // Generous bound: linear parsing takes milliseconds even in debug
        // builds; the old per-character validation took tens of seconds.
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "string parsing is superlinear again: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1.5",
            "1e3",
            "{} trailing",
            "[1 2]",
            "{\"a\" 1}",
            "\"bad \\q escape\"",
            "\"\\u12\"",
            "99999999999999999999",
            "{\"a\":\"b",
            "[\"x\\",
            "\"\\uDFFF\"",
            "{\"k\\u00\":1}",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert_eq!(
                Err(err),
                reference_parse(bad),
                "message and offset of {bad:?}"
            );
        }
        let err = Json::parse("[1,}").unwrap_err();
        assert!(err.to_string().contains("at byte"));
    }
}
