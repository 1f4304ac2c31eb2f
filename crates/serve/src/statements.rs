//! The statement table: a warm push looks its statement up instead of
//! parsing it again.
//!
//! Real workloads recur — scripted pipelines re-run the same statements
//! under fresh session ids — and the serving parse
//! ([`qrec_sql::prepare`]) is a pure function of the statement text. So
//! a bounded map from the exact text to what `prepare` returned for it
//! answers a repeated statement with the parse's own answer, and the
//! sessions that ran it share one token array instead of holding copies.
//!
//! * **Keys are the exact text.** Masking literals would merge more
//!   statements, but a numeric literal is not always a value: the type
//!   parameter of `CAST(x AS DECIMAL(10, 2))` is printed verbatim into
//!   the template, so a masked key would change template ids.
//! * **Admission on second sighting.** A statement is stored only when
//!   its FNV-1a fingerprint is already in a direct-mapped filter of
//!   [`FILTER_SLOTS`] `u64`s; otherwise the fingerprint is written to its
//!   slot. A stream that never repeats a statement leaves the table
//!   empty, so one-off statements do not outlive their session windows.
//! * **Bounded, without a setting.** A statement longer than
//!   [`LOOP_PARSE_MAX_BYTES`] or one that fails to parse is never stored
//!   (an invalid one is parsed again each time, to the same error). The
//!   table holds at most [`STATEMENT_TABLE_BYTES`] of counted bytes: per
//!   entry its key's text, its tokens' bytes and `String` headers, its
//!   map slot and its token array's reference counts. An insert that
//!   would pass that clears the table wholesale first, and counts it.
//!   Not counted: the allocator's rounding of each of those blocks and
//!   the map's spare capacity, so the memory held is somewhat more.
//!
//! The one lock is taken around the lookup and around the insert —
//! never while parsing, and never by a caller holding a session shard.
//! The counts are kept under it, per table; the process-wide counters
//! and gauge in the obs registry (`DUMP`) add up every table's.

use parking_lot::Mutex;
use qrec_obs::{Counter, Gauge};
use qrec_sql::ParseError;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::eventloop::LOOP_PARSE_MAX_BYTES;
use crate::session_store::fnv1a;

/// Counted bytes the table may hold (see the module docs).
pub const STATEMENT_TABLE_BYTES: usize = 4 << 20;

/// Slots of the admission filter (128 KiB of fingerprints).
const FILTER_SLOTS: usize = 16 * 1024;

/// What serving reads of one statement: exactly what
/// [`qrec_sql::prepare`] returns for its text, with shared tokens.
#[derive(Debug, Clone)]
pub(crate) struct Statement {
    pub(crate) tokens: Arc<[String]>,
    pub(crate) template_id: u64,
}

/// A reading of a statement table ([`crate::SessionStore::statement_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatementStats {
    /// Statements stored.
    pub entries: usize,
    /// Their counted bytes against [`STATEMENT_TABLE_BYTES`].
    pub bytes: usize,
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that parsed, invalid and over-long statements included.
    pub misses: u64,
    /// Statements stored on their second sighting.
    pub admitted: u64,
    /// Times the table was cleared to stay within its budget.
    pub cleared: u64,
}

/// The registry's view of every table in the process, registered once
/// like the crate's other metrics. The gauge reads the bytes of the table
/// that changed last: a server has one.
struct Registered {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    admitted: Arc<Counter>,
    cleared: Arc<Counter>,
    bytes: Arc<Gauge>,
}

fn registered() -> &'static Registered {
    static R: OnceLock<Registered> = OnceLock::new();
    R.get_or_init(|| {
        let reg = qrec_obs::global();
        Registered {
            hits: reg.counter("serve.statements.hits"),
            misses: reg.counter("serve.statements.misses"),
            admitted: reg.counter("serve.statements.admitted"),
            cleared: reg.counter("serve.statements.cleared"),
            bytes: reg.gauge("serve.statements.bytes"),
        }
    })
}

struct Entries {
    map: HashMap<Box<str>, Statement>,
    /// Fingerprints of statements seen once, by `fingerprint % FILTER_SLOTS`.
    filter: Box<[u64]>,
    /// The reading, `entries` aside, kept under the lock it describes.
    stats: StatementStats,
}

/// The bounded statement table a [`crate::SessionStore`] parses through.
pub(crate) struct StatementTable {
    entries: Mutex<Entries>,
}

/// A statement's counted bytes: the key's text, the token array's
/// strings, the map slot and the array's two reference counts. Its text
/// is at most [`LOOP_PARSE_MAX_BYTES`], so one entry always fits an
/// empty table.
fn cost(sql: &str, tokens: &[String]) -> usize {
    let token_bytes: usize = tokens
        .iter()
        .map(|t| t.len() + std::mem::size_of::<String>())
        .sum();
    let per_entry = std::mem::size_of::<(Box<str>, Statement)>() + 2 * std::mem::size_of::<usize>();
    sql.len() + token_bytes + per_entry
}

impl StatementTable {
    pub(crate) fn new() -> Self {
        StatementTable {
            entries: Mutex::new(Entries {
                map: HashMap::new(),
                filter: vec![0; FILTER_SLOTS].into_boxed_slice(),
                stats: StatementStats::default(),
            }),
        }
    }

    /// [`qrec_sql::prepare`] of `sql`: from the table when it holds the
    /// text, else parsed (outside the lock) and offered for admission.
    pub(crate) fn prepare(&self, sql: &str) -> Result<Statement, ParseError> {
        {
            let mut entries = self.entries.lock();
            if let Some(hit) = entries.map.get(sql).cloned() {
                entries.stats.hits += 1;
                registered().hits.inc();
                return Ok(hit);
            }
            entries.stats.misses += 1;
        }
        registered().misses.inc();
        let prepared = qrec_sql::prepare(sql)?;
        let statement = Statement {
            tokens: prepared.tokens.into(),
            template_id: prepared.template_id,
        };
        if sql.len() <= LOOP_PARSE_MAX_BYTES {
            self.offer(sql, &statement);
        }
        Ok(statement)
    }

    /// Store `statement` if its text was seen before, else remember the
    /// text's fingerprint.
    fn offer(&self, sql: &str, statement: &Statement) {
        let fingerprint = fnv1a(sql);
        let cost = cost(sql, &statement.tokens);
        let mut entries = self.entries.lock();
        let slot = &mut entries.filter[(fingerprint % FILTER_SLOTS as u64) as usize];
        if *slot != fingerprint {
            *slot = fingerprint;
            return;
        }
        // Another thread may have stored the text since our lookup.
        if entries.map.contains_key(sql) {
            return;
        }
        if entries.stats.bytes + cost > STATEMENT_TABLE_BYTES {
            entries.map.clear();
            entries.stats.bytes = 0;
            entries.stats.cleared += 1;
            registered().cleared.inc();
        }
        entries.map.insert(sql.into(), statement.clone());
        entries.stats.bytes += cost;
        entries.stats.admitted += 1;
        registered().admitted.inc();
        registered().bytes.set(entries.stats.bytes as u64);
    }

    /// The table's size and its counts.
    pub(crate) fn stats(&self) -> StatementStats {
        let entries = self.entries.lock();
        StatementStats {
            entries: entries.map.len(),
            ..entries.stats
        }
    }
}
