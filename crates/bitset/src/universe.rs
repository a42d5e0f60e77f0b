//! The [`Universe`] type: a named attribute universe.

use std::fmt;

use crate::AttrSet;

/// An attribute universe `R = {0, …, n−1}` with optional human-readable
/// attribute names.
///
/// The PODS'97 paper writes small sets in a shorthand — `ABC` for
/// `{A, B, C}` — and all of its worked examples (Figure 1, Examples 8, 11,
/// 17, 25) use single-letter attributes. [`Universe::letters`] builds such a
/// universe and [`Universe::parse`]/[`Universe::display`] round-trip the
/// shorthand, which keeps tests and example programs legible against the
/// paper text.
///
/// The rendering facts that depend only on the names — the shorthand's
/// separator and each name's width in chars — are computed once, at
/// construction, so writing a set never rescans the universe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Universe {
    names: Vec<String>,
    /// Width of each name in chars (what `{:<w}` padding counts).
    widths: Vec<usize>,
    /// `""` when every name is one char, `","` otherwise.
    sep: &'static str,
}

/// Error returned by [`Universe::parse`] when a token is not an attribute
/// name of the universe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseSetError {
    token: String,
}

impl fmt::Display for ParseSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown attribute {:?}", self.token)
    }
}

impl std::error::Error for ParseSetError {}

impl Universe {
    /// A universe of `n` attributes named by the caller.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(names: I) -> Self {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        let widths: Vec<usize> = names.iter().map(|n| n.chars().count()).collect();
        let sep = if widths.iter().all(|&w| w == 1) {
            ""
        } else {
            ","
        };
        Universe { names, widths, sep }
    }

    /// A universe of `n` attributes named `A, B, C, …` (then `A1, B1, …`
    /// past 26, so names stay unique for any `n`).
    pub fn letters(n: usize) -> Self {
        Universe::new((0..n).map(|i| {
            let letter = (b'A' + (i % 26) as u8) as char;
            if i < 26 {
                letter.to_string()
            } else {
                format!("{letter}{}", i / 26)
            }
        }))
    }

    /// A universe of `n` attributes named `x1, …, xn` (the paper's Section 6
    /// variable convention).
    pub fn variables(n: usize) -> Self {
        Universe::new((1..=n).map(|i| format!("x{i}")))
    }

    /// Number of attributes in the universe.
    pub fn size(&self) -> usize {
        self.names.len()
    }

    /// The name of attribute `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// The index of the attribute named `name`, if any.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// The empty set over this universe.
    pub fn empty_set(&self) -> AttrSet {
        AttrSet::empty(self.size())
    }

    /// The full set over this universe.
    pub fn full_set(&self) -> AttrSet {
        AttrSet::full(self.size())
    }

    /// Parses the paper's shorthand into a set.
    ///
    /// Single-character attribute names may be concatenated (`"ABD"`);
    /// multi-character names must be separated by spaces or commas
    /// (`"x1 x3"`, `"x1,x3"`). The empty string parses to the empty set.
    pub fn parse(&self, text: &str) -> Result<AttrSet, ParseSetError> {
        let mut set = self.empty_set();
        let tokens: Vec<String> = if text.contains([' ', ',']) || !self.sep.is_empty() {
            text.split([' ', ','])
                .filter(|t| !t.is_empty())
                .map(str::to_owned)
                .collect()
        } else {
            text.chars().map(|c| c.to_string()).collect()
        };
        for tok in tokens {
            match self.index_of(&tok) {
                Some(i) => {
                    set.insert(i);
                }
                None => return Err(ParseSetError { token: tok }),
            }
        }
        Ok(set)
    }

    /// Renders a set in the paper's shorthand: concatenated names when all
    /// names are single characters, comma-separated otherwise. The empty
    /// set renders as `"∅"`.
    pub fn display(&self, set: &AttrSet) -> String {
        let mut out = String::new();
        self.write_set(&mut out, set);
        out
    }

    /// Appends [`display`](Self::display)'s rendering of `set` to `out`
    /// and returns its width in chars, from the widths computed at
    /// construction.
    ///
    /// # Panics
    /// Panics if `set` is over a different universe size.
    pub fn write_set(&self, out: &mut String, set: &AttrSet) -> usize {
        assert_eq!(
            set.universe_size(),
            self.size(),
            "set universe does not match this Universe"
        );
        if set.is_empty() {
            out.push('∅');
            return 1;
        }
        let mut width = self.sep.len() * (set.len() - 1);
        for (k, i) in set.iter().enumerate() {
            if k > 0 {
                out.push_str(self.sep);
            }
            out.push_str(&self.names[i]);
            width += self.widths[i];
        }
        width
    }

    /// Appends the names of `set`'s members to `out`, joined by `sep` (the
    /// empty set appends nothing).
    pub fn write_names(&self, out: &mut String, set: &AttrSet, sep: &str) {
        for (k, i) in set.iter().enumerate() {
            if k > 0 {
                out.push_str(sep);
            }
            out.push_str(&self.names[i]);
        }
    }

    /// Renders a family of sets as `{ABC, BD}` sorted by cardinality then
    /// lexicographically — the order the paper lists borders in.
    pub fn display_family<'a, I: IntoIterator<Item = &'a AttrSet>>(&self, family: I) -> String {
        let mut sets: Vec<&AttrSet> = family.into_iter().collect();
        sets.sort_by(|a, b| a.cmp_card_lex(b));
        let mut out = String::from("{");
        for (k, set) in sets.into_iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            self.write_set(&mut out, set);
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn letters_names() {
        let u = Universe::letters(4);
        assert_eq!(u.size(), 4);
        assert_eq!(u.name(0), "A");
        assert_eq!(u.name(3), "D");
        assert_eq!(u.index_of("C"), Some(2));
        assert_eq!(u.index_of("Z"), None);
    }

    #[test]
    fn letters_past_26_are_unique() {
        let u = Universe::letters(30);
        assert_eq!(u.name(26), "A1");
        assert_eq!(u.index_of("A"), Some(0));
        assert_eq!(u.index_of("A1"), Some(26));
    }

    #[test]
    fn parse_shorthand() {
        let u = Universe::letters(4);
        let abc = u.parse("ABC").unwrap();
        assert_eq!(abc.to_vec(), vec![0, 1, 2]);
        assert_eq!(u.parse("").unwrap(), u.empty_set());
        assert!(u.parse("AX").is_err());
    }

    #[test]
    fn parse_multichar() {
        let u = Universe::variables(3);
        let s = u.parse("x1,x3").unwrap();
        assert_eq!(s.to_vec(), vec![0, 2]);
        let s2 = u.parse("x1 x3").unwrap();
        assert_eq!(s, s2);
    }

    #[test]
    fn display_round_trip() {
        let u = Universe::letters(4);
        let bd = u.parse("BD").unwrap();
        assert_eq!(u.display(&bd), "BD");
        assert_eq!(u.display(&u.empty_set()), "∅");
    }

    #[test]
    fn display_family_sorted() {
        let u = Universe::letters(4);
        let fam = [
            u.parse("BD").unwrap(),
            u.parse("ABC").unwrap(),
            u.parse("D").unwrap(),
        ];
        assert_eq!(u.display_family(fam.iter()), "{D, BD, ABC}");
    }

    #[test]
    fn variables_names() {
        let u = Universe::variables(2);
        assert_eq!(u.name(0), "x1");
        assert_eq!(u.display(&u.full_set()), "x1,x2");
    }
}
