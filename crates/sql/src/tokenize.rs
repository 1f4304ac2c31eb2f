//! Word-token sequences for the sequence models.
//!
//! The paper models query statements as sequences of word tokens
//! (Definition 1). [`query_tokens`] produces the canonical token sequence
//! of a query: keywords and operators in canonical spelling, identifiers
//! verbatim, numeric literals collapsed to `<NUM>` (Section 5.4.1), and
//! string literals kept as single quoted tokens (they are literal
//! fragments the models must predict).

use crate::ast::Query;
use crate::error::ParseError;
use crate::fragments::NUM_TOKEN;
use crate::lexer::lex;
use crate::token::Token;

/// Tokenise a query AST into the model vocabulary.
///
/// Operates on the canonical printed form so structurally equal queries
/// yield identical sequences regardless of input whitespace or quoting.
pub fn query_tokens(query: &Query) -> Vec<String> {
    canonical_tokens(&query.to_string())
}

/// Tokenise a query's canonical print (`query.to_string()`) into the
/// model vocabulary — [`query_tokens`] for a caller that keeps the print.
pub fn canonical_tokens(canonical: &str) -> Vec<String> {
    // Canonical print then lex: the printer is the single source of
    // canonical spelling, so we never have two token spellings for one AST.
    // qrec-lint: allow(no-panic-in-hot-path) -- print-then-lex roundtrip is property-tested (parse ∘ print = id); a failure here is a printer bug
    sql_tokens(canonical).expect("canonical print always lexes")
}

/// Tokenise raw SQL text into the model vocabulary.
///
/// # Errors
///
/// Returns [`ParseError`] if the text does not lex.
pub fn sql_tokens(sql: &str) -> Result<Vec<String>, ParseError> {
    let tokens = lex(sql)?;
    // A fresh, exact-size vector: collecting the lexer's would reuse its
    // allocation, sized for its larger items and a guessed count, and a
    // live session keeps this one for as long as the query is in its
    // window.
    let mut out = Vec::with_capacity(tokens.len());
    out.extend(tokens.into_iter().map(|t| model_token(t.token)));
    Ok(out)
}

/// The model spelling of one lexical token. Words and quoted
/// identifiers move their text; keywords and operators copy a static
/// spelling.
fn model_token(t: Token) -> String {
    match t {
        Token::Number(_) => NUM_TOKEN.to_string(),
        Token::StringLit(s) => {
            let mut quoted = String::with_capacity(s.len() + 2);
            quoted.push('\'');
            quoted.push_str(&s);
            quoted.push('\'');
            quoted
        }
        Token::Ident(s) | Token::QuotedIdent(s) => s,
        other => other.text().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn toks(sql: &str) -> Vec<String> {
        query_tokens(&parse(sql).unwrap())
    }

    #[test]
    fn definition_1_example() {
        assert_eq!(
            toks("SELECT * FROM PhotoTag"),
            ["SELECT", "*", "FROM", "PhotoTag"]
        );
    }

    #[test]
    fn numbers_collapse() {
        assert_eq!(
            toks("SELECT a FROM t WHERE a > 17"),
            ["SELECT", "a", "FROM", "t", "WHERE", "a", ">", "<NUM>"]
        );
    }

    #[test]
    fn strings_stay_single_tokens() {
        let t = toks("SELECT a FROM t WHERE b LIKE '%QUERY%'");
        assert!(t.contains(&"'%QUERY%'".to_string()));
    }

    #[test]
    fn whitespace_invariance() {
        assert_eq!(toks("SELECT a FROM t"), toks("select   a\n\tFROM t"));
    }

    #[test]
    fn keywords_canonicalised_upper() {
        let t = toks("select distinct a from t order by a desc");
        assert_eq!(t[0], "SELECT");
        assert_eq!(t[1], "DISTINCT");
        assert!(t.contains(&"ORDER".to_string()) && t.contains(&"DESC".to_string()));
    }

    #[test]
    fn punctuation_tokens_present() {
        let t = toks("SELECT COUNT(*), b FROM t");
        assert_eq!(t, ["SELECT", "COUNT", "(", "*", ")", ",", "b", "FROM", "t"]);
    }

    #[test]
    fn quoted_idents_lose_quotes() {
        let t = toks("SELECT [my col] FROM [tbl.csv]");
        assert!(t.contains(&"my col".to_string()));
        assert!(t.contains(&"tbl.csv".to_string()));
    }

    #[test]
    fn sql_tokens_propagates_lex_errors() {
        assert!(sql_tokens("SELECT 'unterminated").is_err());
    }
}
