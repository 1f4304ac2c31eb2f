//! Online session context for interactive recommendation.
//!
//! Definitions 6 and 7 allow predictions from the whole current session
//! `S* = (Q'_1 … Q'_i)`; the paper's solution uses only `Q'_i` but notes
//! that seq2seq inputs extend naturally by concatenating the preceding
//! queries into one sequence (Section 2). [`SessionContext`] implements
//! that: it exposes either the last query or a windowed concatenation as
//! model input.
//!
//! A context holds its *window*, not its history: the model never reads
//! past the last `window` queries, nor anything of a query but its
//! tokens, so that is what is kept — the token sequences of the last
//! `window` queries and a count of all of them. A session's memory is
//! therefore bounded by its window however long it lives; a server
//! keeping every parsed statement of every session (template, fragment
//! sets and both spellings of the SQL included) grew by kilobytes per
//! request for nothing.

use crate::predict::PerKind;
use crate::recommender::Recommender;
use qrec_nn::Strategy;
use qrec_sql::ParseError;
use qrec_workload::QueryRecord;
use std::collections::VecDeque;
use std::sync::Arc;

/// Separator token placed between concatenated queries. Out-of-vocabulary
/// by construction, so it encodes as `<UNK>` — a consistent boundary
/// marker for the model.
pub const SEP_TOKEN: &str = "<SEP>";

/// A live user session: the token sequences of the last `window`
/// queries, oldest first, and a count of every query seen. A sequence
/// is shared, not owned: sessions that ran the same statement may hold
/// one array between them.
#[derive(Debug, Clone)]
pub struct SessionContext {
    /// At most `window` token sequences.
    recent: VecDeque<Arc<[String]>>,
    /// Queries recorded over the session's life, dropped ones included.
    seen: usize,
    window: usize,
}

impl SessionContext {
    /// A context that feeds models the last `window` queries
    /// (`window = 1` reproduces the paper's configuration).
    pub fn new(window: usize) -> Self {
        let window = window.max(1);
        SessionContext {
            recent: VecDeque::with_capacity(window),
            seen: 0,
            window,
        }
    }

    /// Record the next query the user ran.
    ///
    /// # Errors
    ///
    /// Returns the parse error if the statement is not valid SQL in the
    /// `qrec` dialect (the session is left unchanged).
    pub fn push_sql(&mut self, sql: &str) -> Result<(), ParseError> {
        self.push_tokens(qrec_sql::prepare(sql)?.tokens);
        Ok(())
    }

    /// Record an already-parsed query: [`SessionContext::push_tokens`]
    /// of its tokens.
    pub fn push(&mut self, record: QueryRecord) {
        self.push_tokens(record.tokens);
    }

    /// Record the model tokens of the next query: they enter the
    /// window, the query that falls out of the window is dropped.
    /// Pushing an `Arc` shares it; a `Vec` is moved into a new one.
    pub fn push_tokens(&mut self, tokens: impl Into<Arc<[String]>>) {
        if self.recent.len() == self.window {
            self.recent.pop_front();
        }
        self.recent.push_back(tokens.into());
        self.seen += 1;
    }

    /// Number of queries recorded, including those no longer held.
    pub fn len(&self) -> usize {
        self.seen
    }

    /// True if the session has no queries yet.
    pub fn is_empty(&self) -> bool {
        self.seen == 0
    }

    /// The model input, borrowed: the tokens of the last `window`
    /// queries with a [`SEP_TOKEN`] between consecutive queries (just the
    /// last query's tokens when `window = 1`).
    pub fn window_tokens(&self) -> impl Iterator<Item = &str> {
        self.recent.iter().enumerate().flat_map(|(i, tokens)| {
            let sep = (i > 0).then_some(SEP_TOKEN);
            sep.into_iter().chain(tokens.iter().map(String::as_str))
        })
    }

    /// [`SessionContext::window_tokens`], owned.
    pub fn input_tokens(&self) -> Vec<String> {
        self.window_tokens().map(str::to_string).collect()
    }

    /// Recommend up to `n` fragments per kind for the next query, using
    /// the windowed context. Returns `None` when the session is empty.
    #[must_use]
    pub fn recommend_fragments(
        &self,
        rec: &mut Recommender,
        n: usize,
        strategy: Strategy,
    ) -> Option<PerKind<Vec<String>>> {
        if self.is_empty() {
            return None;
        }
        let tokens = self.input_tokens();
        let ranked = rec.ranked_fragments(&tokens, strategy);
        Some(ranked.map(|_, r| r.iter().take(n).cloned().collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_window() {
        let mut ctx = SessionContext::new(2);
        assert!(ctx.is_empty());
        ctx.push_sql("SELECT a FROM t").unwrap();
        ctx.push_sql("SELECT b FROM t").unwrap();
        ctx.push_sql("SELECT c FROM t").unwrap();
        assert_eq!(ctx.len(), 3);
        let toks = ctx.input_tokens();
        // Window 2: queries b and c with one separator.
        assert_eq!(toks.iter().filter(|t| *t == SEP_TOKEN).count(), 1);
        assert!(toks.contains(&"b".to_string()));
        assert!(toks.contains(&"c".to_string()));
        assert!(!toks.contains(&"a".to_string()));
    }

    #[test]
    fn window_one_is_last_query_only() {
        let mut ctx = SessionContext::new(1);
        ctx.push_sql("SELECT a FROM t").unwrap();
        ctx.push_sql("SELECT b FROM u").unwrap();
        let toks = ctx.input_tokens();
        assert!(!toks.contains(&SEP_TOKEN.to_string()));
        assert_eq!(toks, QueryRecord::new("SELECT b FROM u").unwrap().tokens);
    }

    #[test]
    fn invalid_sql_leaves_session_unchanged() {
        let mut ctx = SessionContext::new(1);
        ctx.push_sql("SELECT a FROM t").unwrap();
        assert!(ctx.push_sql("NOT SQL").is_err());
        assert_eq!(ctx.len(), 1);
    }

    /// The model input of the implementation that kept every record:
    /// the last `window` of all of them, `SEP_TOKEN`-joined.
    fn unbounded_input_tokens(all: &[QueryRecord], window: usize) -> Vec<String> {
        let mut out = Vec::new();
        for (i, q) in all[all.len().saturating_sub(window)..].iter().enumerate() {
            if i > 0 {
                out.push(SEP_TOKEN.to_string());
            }
            out.extend(q.tokens.iter().cloned());
        }
        out
    }

    #[test]
    fn a_long_session_holds_its_window_and_counts_the_rest() {
        for window in 1..=3 {
            let mut ctx = SessionContext::new(window);
            let mut all = Vec::new();
            for i in 0..1000 {
                let sql = format!("SELECT c{} FROM t{} WHERE x < {i}", i % 7, i % 5);
                all.push(QueryRecord::new(&sql).unwrap());
                ctx.push_sql(&sql).unwrap();
                assert!(
                    ctx.recent.len() <= window,
                    "push {i} holds {}",
                    ctx.recent.len()
                );
                assert_eq!(ctx.input_tokens(), unbounded_input_tokens(&all, window));
            }
            assert_eq!(ctx.len(), 1000);
            assert_eq!(ctx.recent.len(), window);
        }
    }

    #[test]
    fn zero_window_clamps_to_one() {
        let ctx = SessionContext::new(0);
        assert_eq!(ctx.window, 1);
    }
}
