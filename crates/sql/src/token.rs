//! Lexical tokens for the SQL dialect understood by `qrec`.
//!
//! The dialect covers the query shapes observed in the SDSS and SQLShare
//! workloads the paper studies: `SELECT` queries with joins, subqueries,
//! set operations, aggregation, `TOP`/`LIMIT`, `CASE`, `CAST`, and the usual
//! predicate zoo (`LIKE`, `BETWEEN`, `IN`, `EXISTS`, `IS NULL`).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A source span in byte offsets, used for error reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Byte offset of the first character of the token.
    pub start: usize,
    /// Byte offset one past the last character of the token.
    pub end: usize,
}

impl Span {
    /// Create a new span. `start <= end` is expected but not enforced.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// A zero-width span at the given offset.
    pub fn point(at: usize) -> Self {
        Span { start: at, end: at }
    }
}

/// SQL keywords recognised by the lexer.
///
/// Identifiers are matched case-insensitively against this list; anything not
/// listed lexes as [`Token::Ident`]. Function names such as `COUNT` are *not*
/// keywords — they are ordinary identifiers resolved by the parser when
/// followed by `(`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Keyword {
    Select,
    Distinct,
    Top,
    From,
    Where,
    Group,
    By,
    Having,
    Order,
    Asc,
    Desc,
    Limit,
    Offset,
    As,
    On,
    Join,
    Inner,
    Left,
    Right,
    Full,
    Outer,
    Cross,
    Union,
    All,
    Except,
    Intersect,
    And,
    Or,
    Not,
    In,
    Exists,
    Between,
    Like,
    Is,
    Null,
    Case,
    When,
    Then,
    Else,
    End,
    Cast,
    True,
    False,
    With,
}

/// Length of the longest keyword, `INTERSECT`.
const MAX_KEYWORD_LEN: usize = Keyword::Intersect.as_str().len();

impl Keyword {
    /// Parse a keyword from an identifier-shaped word, case-insensitively.
    pub fn from_word(word: &str) -> Option<Keyword> {
        // Keywords are short: a longer word is an identifier, a shorter
        // one is uppercased into a stack buffer, so matching allocates
        // nothing.
        let word = word.as_bytes();
        if word.len() > MAX_KEYWORD_LEN {
            return None;
        }
        let mut buf = [0u8; MAX_KEYWORD_LEN];
        let upper = &mut buf[..word.len()];
        upper.copy_from_slice(word);
        upper.make_ascii_uppercase();
        Some(match &*upper {
            b"SELECT" => Keyword::Select,
            b"DISTINCT" => Keyword::Distinct,
            b"TOP" => Keyword::Top,
            b"FROM" => Keyword::From,
            b"WHERE" => Keyword::Where,
            b"GROUP" => Keyword::Group,
            b"BY" => Keyword::By,
            b"HAVING" => Keyword::Having,
            b"ORDER" => Keyword::Order,
            b"ASC" => Keyword::Asc,
            b"DESC" => Keyword::Desc,
            b"LIMIT" => Keyword::Limit,
            b"OFFSET" => Keyword::Offset,
            b"AS" => Keyword::As,
            b"ON" => Keyword::On,
            b"JOIN" => Keyword::Join,
            b"INNER" => Keyword::Inner,
            b"LEFT" => Keyword::Left,
            b"RIGHT" => Keyword::Right,
            b"FULL" => Keyword::Full,
            b"OUTER" => Keyword::Outer,
            b"CROSS" => Keyword::Cross,
            b"UNION" => Keyword::Union,
            b"ALL" => Keyword::All,
            b"EXCEPT" => Keyword::Except,
            b"INTERSECT" => Keyword::Intersect,
            b"AND" => Keyword::And,
            b"OR" => Keyword::Or,
            b"NOT" => Keyword::Not,
            b"IN" => Keyword::In,
            b"EXISTS" => Keyword::Exists,
            b"BETWEEN" => Keyword::Between,
            b"LIKE" => Keyword::Like,
            b"IS" => Keyword::Is,
            b"NULL" => Keyword::Null,
            b"CASE" => Keyword::Case,
            b"WHEN" => Keyword::When,
            b"THEN" => Keyword::Then,
            b"ELSE" => Keyword::Else,
            b"END" => Keyword::End,
            b"CAST" => Keyword::Cast,
            b"TRUE" => Keyword::True,
            b"FALSE" => Keyword::False,
            b"WITH" => Keyword::With,
            _ => return None,
        })
    }

    /// Canonical upper-case spelling.
    pub const fn as_str(&self) -> &'static str {
        match self {
            Keyword::Select => "SELECT",
            Keyword::Distinct => "DISTINCT",
            Keyword::Top => "TOP",
            Keyword::From => "FROM",
            Keyword::Where => "WHERE",
            Keyword::Group => "GROUP",
            Keyword::By => "BY",
            Keyword::Having => "HAVING",
            Keyword::Order => "ORDER",
            Keyword::Asc => "ASC",
            Keyword::Desc => "DESC",
            Keyword::Limit => "LIMIT",
            Keyword::Offset => "OFFSET",
            Keyword::As => "AS",
            Keyword::On => "ON",
            Keyword::Join => "JOIN",
            Keyword::Inner => "INNER",
            Keyword::Left => "LEFT",
            Keyword::Right => "RIGHT",
            Keyword::Full => "FULL",
            Keyword::Outer => "OUTER",
            Keyword::Cross => "CROSS",
            Keyword::Union => "UNION",
            Keyword::All => "ALL",
            Keyword::Except => "EXCEPT",
            Keyword::Intersect => "INTERSECT",
            Keyword::And => "AND",
            Keyword::Or => "OR",
            Keyword::Not => "NOT",
            Keyword::In => "IN",
            Keyword::Exists => "EXISTS",
            Keyword::Between => "BETWEEN",
            Keyword::Like => "LIKE",
            Keyword::Is => "IS",
            Keyword::Null => "NULL",
            Keyword::Case => "CASE",
            Keyword::When => "WHEN",
            Keyword::Then => "THEN",
            Keyword::Else => "ELSE",
            Keyword::End => "END",
            Keyword::Cast => "CAST",
            Keyword::True => "TRUE",
            Keyword::False => "FALSE",
            Keyword::With => "WITH",
        }
    }
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Token {
    /// A reserved keyword (see [`Keyword`]).
    Keyword(Keyword),
    /// An unquoted identifier (table, column, function, type name …).
    Ident(String),
    /// A quoted identifier: `"name"` or `[name]`. Quotes are stripped.
    QuotedIdent(String),
    /// A numeric literal, kept verbatim (e.g. `3`, `0.5`, `1e-4`).
    Number(String),
    /// A string literal; the value has quotes stripped and `''` unescaped.
    StringLit(String),
    /// `=`
    Eq,
    /// `<>` or `!=` (normalised to `<>`)
    Neq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*` (multiplication or wildcard; disambiguated by the parser)
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `||` string concatenation
    Concat,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
}

impl Token {
    /// Identifier text, if this token is a (possibly quoted) identifier.
    pub fn ident(&self) -> Option<&str> {
        match self {
            Token::Ident(s) | Token::QuotedIdent(s) => Some(s),
            _ => None,
        }
    }
}

impl Token {
    /// The token's text without quotes: a keyword or operator in its
    /// canonical spelling, an identifier's name, a number as written, a
    /// string literal's value.
    pub fn text(&self) -> &str {
        match self {
            Token::Keyword(k) => k.as_str(),
            Token::Ident(s) | Token::QuotedIdent(s) | Token::Number(s) | Token::StringLit(s) => s,
            Token::Eq => "=",
            Token::Neq => "<>",
            Token::Lt => "<",
            Token::LtEq => "<=",
            Token::Gt => ">",
            Token::GtEq => ">=",
            Token::Plus => "+",
            Token::Minus => "-",
            Token::Star => "*",
            Token::Slash => "/",
            Token::Percent => "%",
            Token::Concat => "||",
            Token::LParen => "(",
            Token::RParen => ")",
            Token::Comma => ",",
            Token::Dot => ".",
            Token::Semicolon => ";",
        }
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::QuotedIdent(s) => write!(f, "\"{s}\""),
            Token::StringLit(s) => write!(f, "'{}'", s.replace('\'', "''")),
            other => f.write_str(other.text()),
        }
    }
}

/// A token paired with its source span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpannedToken {
    /// The token.
    pub token: Token,
    /// Where it came from in the input.
    pub span: Span,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_roundtrip() {
        for kw in [
            Keyword::Select,
            Keyword::From,
            Keyword::Where,
            Keyword::Between,
            Keyword::Intersect,
            Keyword::Cast,
            Keyword::False,
        ] {
            assert_eq!(Keyword::from_word(kw.as_str()), Some(kw));
            assert_eq!(Keyword::from_word(&kw.as_str().to_lowercase()), Some(kw));
        }
    }

    #[test]
    fn every_keyword_fits_the_match_buffer() {
        let all = [
            Keyword::Select,
            Keyword::Distinct,
            Keyword::Top,
            Keyword::From,
            Keyword::Where,
            Keyword::Group,
            Keyword::By,
            Keyword::Having,
            Keyword::Order,
            Keyword::Asc,
            Keyword::Desc,
            Keyword::Limit,
            Keyword::Offset,
            Keyword::As,
            Keyword::On,
            Keyword::Join,
            Keyword::Inner,
            Keyword::Left,
            Keyword::Right,
            Keyword::Full,
            Keyword::Outer,
            Keyword::Cross,
            Keyword::Union,
            Keyword::All,
            Keyword::Except,
            Keyword::Intersect,
            Keyword::And,
            Keyword::Or,
            Keyword::Not,
            Keyword::In,
            Keyword::Exists,
            Keyword::Between,
            Keyword::Like,
            Keyword::Is,
            Keyword::Null,
            Keyword::Case,
            Keyword::When,
            Keyword::Then,
            Keyword::Else,
            Keyword::End,
            Keyword::Cast,
            Keyword::True,
            Keyword::False,
            Keyword::With,
        ];
        for kw in all {
            let word = kw.as_str();
            assert!(word.len() <= MAX_KEYWORD_LEN, "{word} outgrows the buffer");
            assert_eq!(Keyword::from_word(word), Some(kw));
            assert_eq!(Keyword::from_word(&word.to_lowercase()), Some(kw));
            let mixed: String = word
                .chars()
                .enumerate()
                .map(|(i, c)| {
                    if i % 2 == 0 {
                        c.to_ascii_lowercase()
                    } else {
                        c
                    }
                })
                .collect();
            assert_eq!(Keyword::from_word(&mixed), Some(kw));
            // One byte past the keyword is an identifier.
            assert_eq!(Keyword::from_word(&format!("{word}S")), None);
        }
        assert_eq!(Keyword::from_word("INTERSECTION"), None);
        assert_eq!(Keyword::from_word("a_very_long_identifier_name"), None);
        assert_eq!(Keyword::from_word("sélect"), None);
    }

    #[test]
    fn token_text_is_the_display_without_quotes() {
        assert_eq!(Token::Keyword(Keyword::Select).text(), "SELECT");
        assert_eq!(Token::Neq.text(), "<>");
        assert_eq!(Token::Concat.to_string(), "||");
        assert_eq!(Token::QuotedIdent("a b".into()).text(), "a b");
        assert_eq!(Token::QuotedIdent("a b".into()).to_string(), "\"a b\"");
        assert_eq!(Token::StringLit("o'b".into()).text(), "o'b");
    }

    #[test]
    fn keyword_rejects_identifiers() {
        assert_eq!(Keyword::from_word("PhotoObj"), None);
        assert_eq!(Keyword::from_word("count"), None);
        assert_eq!(Keyword::from_word(""), None);
    }

    #[test]
    fn token_display_escapes_strings() {
        let t = Token::StringLit("o'brien".into());
        assert_eq!(t.to_string(), "'o''brien'");
    }

    #[test]
    fn token_ident_accessor() {
        assert_eq!(Token::Ident("t".into()).ident(), Some("t"));
        assert_eq!(Token::QuotedIdent("t x".into()).ident(), Some("t x"));
        assert_eq!(Token::Star.ident(), None);
    }
}
