//! A statement as serving reads it.
//!
//! A server pushing a statement into a live session keeps its model
//! tokens and reports its template id to the workload telemetry; it
//! reads nothing else of it. [`prepare`] derives exactly those two, from
//! one parse: the canonical print is made once (for the tokens), the
//! template is placeholder-ised in the owned AST and hashed as it prints
//! ([`template_id`]), and neither the canonical text, the fragment sets,
//! a copy of the AST nor the template statement is built. Its fields
//! equal `QueryRecord::new`'s `tokens` and `template.id()` bit for bit
//! (qrec-workload's `serving_parse` tests), since both are made by the
//! same pieces: [`parse_resolved`] and
//! [`canonical_tokens`](crate::tokenize::canonical_tokens).

use crate::ast::Query;
use crate::error::ParseError;
use crate::normalize::resolve_aliases_in_place;
use crate::parser::parse;
use crate::template::template_id;
use crate::tokenize::query_tokens;

/// What serving reads of a statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prepared {
    /// Model token sequence (Definition 1, numbers collapsed to `<NUM>`).
    pub tokens: Vec<String>,
    /// [`Template::id`](crate::Template::id) of the statement's template.
    pub template_id: u64,
}

/// Parse `sql` and resolve its aliases (Section 5.4.1): the query every
/// derived artefact — tokens, template, fragments — is read from.
///
/// # Errors
///
/// Returns the parse error if the statement is not valid in the dialect.
pub fn parse_resolved(sql: &str) -> Result<Query, ParseError> {
    let mut query = parse(sql)?;
    resolve_aliases_in_place(&mut query);
    Ok(query)
}

/// Parse `sql` into its model tokens and template id, and nothing else.
///
/// # Errors
///
/// Returns the parse error if the statement is not valid in the dialect.
pub fn prepare(sql: &str) -> Result<Prepared, ParseError> {
    let query = parse_resolved(sql)?;
    let tokens = query_tokens(&query);
    Ok(Prepared {
        tokens,
        template_id: template_id(query),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::template;

    #[test]
    fn prepare_reads_tokens_and_template_of_the_resolved_query() {
        let sql = "SELECT j.target FROM Jobs j WHERE j.queue = 'FULL' AND j.n > 3";
        let p = prepare(sql).unwrap();
        let resolved = parse_resolved(sql).unwrap();
        assert_eq!(p.tokens, query_tokens(&resolved));
        assert_eq!(p.template_id, template(&resolved).id());
        assert!(p.tokens.contains(&"Jobs".to_string()));
        assert!(!p.tokens.contains(&"j".to_string()));
    }

    #[test]
    fn prepare_returns_the_parse_error() {
        assert_eq!(prepare("SELEC a"), Err(parse("SELEC a").unwrap_err()));
    }
}
