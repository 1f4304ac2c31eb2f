//! Core workload data types: queries, sessions, pairs, workloads
//! (Definitions 1 and 3 of the paper).

use qrec_sql::{
    canonical_tokens, extract_fragments, parse_resolved, template, FragmentSet, Template,
};
use serde::{Deserialize, Serialize};

/// A single query occurrence in a workload, with every derived artefact
/// the pipeline needs pre-computed once.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryRecord {
    /// The raw SQL statement as issued.
    pub sql: String,
    /// Canonical statement (parse → print).
    pub canonical: String,
    /// Model token sequence (Definition 1, numbers collapsed to `<NUM>`).
    pub tokens: Vec<String>,
    /// The query template (Definition 5).
    pub template: Template,
    /// The fragment sets (Definition 4).
    pub fragments: FragmentSet,
}

impl QueryRecord {
    /// Parse and derive all artefacts of one SQL statement.
    ///
    /// # Errors
    ///
    /// Returns the parse error if the statement is not valid in the `qrec`
    /// dialect; workload loaders skip such records, mirroring the paper's
    /// pre-processing which drops unparseable statements.
    ///
    /// The tokens and template are made by the same pieces as
    /// [`qrec_sql::prepare`], the serving parse, so its fields equal
    /// this record's `tokens` and `template.id()`.
    pub fn new(sql: &str) -> Result<Self, qrec_sql::ParseError> {
        // Resolve aliases first (Section 5.4.1) so templates, fragments,
        // and token sequences all see real table names.
        let resolved = parse_resolved(sql)?;
        let canonical = resolved.to_string();
        Ok(QueryRecord {
            sql: sql.to_string(),
            tokens: canonical_tokens(&canonical),
            canonical,
            template: template(&resolved),
            fragments: extract_fragments(&resolved),
        })
    }
}

/// A user session: an ordered sequence of queries (Definition 3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Session {
    /// Opaque session identifier.
    pub id: u64,
    /// Which dataset/schema the session operates on (SQLShare has 64,
    /// SDSS has 1).
    pub dataset: u32,
    /// Queries in issue order.
    pub queries: Vec<QueryRecord>,
}

impl Session {
    /// Consecutive query pairs `(Q_i, Q_{i+1})` of this session.
    pub fn pairs(&self) -> impl Iterator<Item = QueryPair<'_>> {
        self.queries.windows(2).map(|w| QueryPair {
            current: &w[0],
            next: &w[1],
        })
    }

    /// Number of consecutive pairs (`len - 1`, saturating).
    pub fn pair_count(&self) -> usize {
        self.queries.len().saturating_sub(1)
    }
}

/// A borrowed consecutive query pair within a session.
#[derive(Debug, Clone, Copy)]
pub struct QueryPair<'a> {
    /// `Q_i` — the preceding query.
    pub current: &'a QueryRecord,
    /// `Q_{i+1}` — the next query.
    pub next: &'a QueryRecord,
}

/// An owned query pair, the unit of the train/validation/test splits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OwnedPair {
    /// `Q_i`.
    pub current: QueryRecord,
    /// `Q_{i+1}`.
    pub next: QueryRecord,
    /// Session the pair came from.
    pub session_id: u64,
    /// Dataset the session operates on.
    pub dataset: u32,
}

/// A query workload: a set of sessions (Definition 3).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Human-readable name, e.g. `"sdss-synthetic"`.
    pub name: String,
    /// All sessions.
    pub sessions: Vec<Session>,
}

impl Workload {
    /// Create an empty workload with a name.
    pub fn new(name: impl Into<String>) -> Self {
        Workload {
            name: name.into(),
            sessions: Vec::new(),
        }
    }

    /// Total number of queries across sessions.
    pub fn query_count(&self) -> usize {
        self.sessions.iter().map(|s| s.queries.len()).sum()
    }

    /// Total number of consecutive pairs across sessions.
    pub fn pair_count(&self) -> usize {
        self.sessions.iter().map(|s| s.pair_count()).sum()
    }

    /// Materialise every consecutive pair as an [`OwnedPair`].
    pub fn pairs(&self) -> Vec<OwnedPair> {
        let mut out = Vec::with_capacity(self.pair_count());
        for s in &self.sessions {
            for w in s.queries.windows(2) {
                out.push(OwnedPair {
                    current: w[0].clone(),
                    next: w[1].clone(),
                    session_id: s.id,
                    dataset: s.dataset,
                });
            }
        }
        out
    }

    /// Number of distinct datasets the sessions touch.
    pub fn dataset_count(&self) -> usize {
        let mut ds: Vec<u32> = self.sessions.iter().map(|s| s.dataset).collect();
        ds.sort_unstable();
        ds.dedup();
        ds.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(sql: &str) -> QueryRecord {
        QueryRecord::new(sql).unwrap()
    }

    #[test]
    fn query_record_derives_artifacts() {
        let r = rec("SELECT j.target FROM Jobs j WHERE j.queue = 'FULL'");
        assert_eq!(
            r.canonical,
            "SELECT Jobs.target FROM Jobs WHERE Jobs.queue = 'FULL'"
        );
        assert_eq!(
            r.template.statement(),
            "SELECT Column FROM Table WHERE Column = Literal"
        );
        assert!(r.fragments.tables.contains("Jobs"));
        assert!(r.tokens.contains(&"Jobs".to_string()));
    }

    #[test]
    fn query_record_rejects_invalid_sql() {
        assert!(QueryRecord::new("SELEC * FRM t").is_err());
        assert!(QueryRecord::new("").is_err());
    }

    #[test]
    fn session_pairs_are_consecutive() {
        let s = Session {
            id: 1,
            dataset: 0,
            queries: vec![
                rec("SELECT a FROM t"),
                rec("SELECT b FROM t"),
                rec("SELECT c FROM t"),
            ],
        };
        let pairs: Vec<_> = s.pairs().collect();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].current.sql, "SELECT a FROM t");
        assert_eq!(pairs[0].next.sql, "SELECT b FROM t");
        assert_eq!(pairs[1].current.sql, "SELECT b FROM t");
        assert_eq!(s.pair_count(), 2);
    }

    #[test]
    fn single_query_session_has_no_pairs() {
        let s = Session {
            id: 1,
            dataset: 0,
            queries: vec![rec("SELECT a FROM t")],
        };
        assert_eq!(s.pair_count(), 0);
        assert_eq!(s.pairs().count(), 0);
    }

    #[test]
    fn workload_counts() {
        let mut w = Workload::new("test");
        w.sessions.push(Session {
            id: 1,
            dataset: 0,
            queries: vec![rec("SELECT a FROM t"), rec("SELECT b FROM t")],
        });
        w.sessions.push(Session {
            id: 2,
            dataset: 3,
            queries: vec![rec("SELECT c FROM u")],
        });
        assert_eq!(w.query_count(), 3);
        assert_eq!(w.pair_count(), 1);
        assert_eq!(w.pairs().len(), 1);
        assert_eq!(w.dataset_count(), 2);
        assert_eq!(w.pairs()[0].session_id, 1);
    }
}
