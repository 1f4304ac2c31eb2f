//! The session store's statement table answers a push exactly as the
//! serving parse would, and stays within its bounds.
//!
//! A push looks its statement text up in a table of statements seen
//! twice before it parses. A hit must be the parse's own answer: the
//! window tokens and the template id the sink sees are those of
//! [`qrec_sql::prepare`], for every statement of generated sessions,
//! their literal-only variants and token salads — before and after the
//! table is cleared. Invalid statements are parsed again each time, to
//! the same error, and never stored. One-off statements are never
//! stored at all, and a repeating stream larger than the budget clears
//! the table rather than outgrow it.

use qrec_serve::{ServeError, SessionStore, StatementStats, STATEMENT_TABLE_BYTES};
use qrec_workload::gen::{generate, WorkloadProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A memory-only window-1 store whose sink records the last template id.
fn store() -> (SessionStore, Arc<AtomicU64>) {
    let store = SessionStore::new(4, 1, Duration::from_secs(600));
    let seen = Arc::new(AtomicU64::new(0));
    let sink = Arc::clone(&seen);
    store.set_template_sink(move |id| sink.store(id, Ordering::Relaxed));
    (store, seen)
}

/// `sql` with every string literal's text and every number changed:
/// the same statement shape with other literals (a `DECIMAL(10, 2)`
/// type parameter changes too, and with it the template).
fn literal_variant(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len() + 8);
    let mut in_string = false;
    let mut prev = ' ';
    let mut chars = sql.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '\'' {
            out.push(c);
            in_string = !in_string;
            if in_string {
                out.push('v');
            }
        } else if !in_string && c.is_ascii_digit() && !(prev.is_alphanumeric() || prev == '_') {
            let mut digits = String::from(c);
            while let Some(d) = chars.next_if(char::is_ascii_digit) {
                digits.push(d);
            }
            let n: u64 = digits.parse().unwrap_or(0);
            out.push_str(&(n % 1_000_000 + 7).to_string());
            prev = '0';
            continue;
        } else {
            out.push(c);
        }
        prev = c;
    }
    out
}

/// Tokens of the dialect, as `qrec-workload`'s serving-parse salads use
/// them: salads of these parse sometimes and fail otherwise.
const SALAD: &[&str] = &[
    "SELECT", "select", "DISTINCT", "TOP", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
    "ASC", "desc", "LIMIT", "OFFSET", "AS", "ON", "JOIN", "LEFT", "OUTER", "UNION", "ALL", "AND",
    "or", "NOT", "IN", "EXISTS", "BETWEEN", "LIKE", "IS", "NULL", "CASE", "WHEN", "THEN", "ELSE",
    "END", "CAST", "TRUE", "WITH", "a", "t", "t1", "x.y", "[b c]", "\"d\"", "COUNT", "tmp#1", "1",
    "2.5", ".5", "1e-4", "1.", "'s'", "'o''b'", "'é∑'", "*", "(", ")", ",", ".", ";", "=", "<>",
    "!=", "<", "<=", ">", ">=", "+", "-", "/", "%", "||", "?", "--c\n", "/*c*/",
];

/// Every statement of generated `sdss()` and `sqlshare()` sessions with
/// its literal-only variant, a few hand-written ones, and token salads.
fn corpus() -> Vec<String> {
    let mut sdss = WorkloadProfile::sdss();
    sdss.sessions = 120;
    let mut sqlshare = WorkloadProfile::sqlshare();
    sqlshare.sessions = 60;
    let mut out = Vec::new();
    for profile in [&sdss, &sqlshare] {
        for seed in [1, 11] {
            let (workload, _) = generate(profile, seed);
            for query in workload.sessions.iter().flat_map(|s| &s.queries) {
                out.push(literal_variant(&query.sql));
                out.push(query.sql.clone());
            }
        }
    }
    out.extend(
        [
            "SELECT CAST(x AS DECIMAL(10, 2)) FROM t",
            "SELECT CAST(x AS DECIMAL(12, 4)) FROM t",
            "SELECT j.target FROM Jobs j WHERE j.queue = 'FULL'",
            "SELECT a FROM t WHERE b = 'o''brien' AND c = 'x''\u{1f}ELSE\u{1f}''y'",
            "",
            "SELEC * FRM t",
            "SELECT 'unterminated",
            "DELETE FROM t",
        ]
        .map(String::from),
    );
    let mut rng = StdRng::seed_from_u64(34);
    for _ in 0..2000 {
        let len = rng.gen_range(1..14);
        let words: Vec<&str> = (0..len)
            .map(|_| SALAD[rng.gen_range(0..SALAD.len())])
            .collect();
        out.push(words.join(" "));
    }
    out
}

/// Push every statement three times into one window-1 session — the
/// second sighting admits a valid statement, the third is a table hit —
/// and hold each answer to `qrec_sql::prepare`'s. Returns the number of
/// valid statements.
fn assert_pushes_read_as_parsed(
    store: &SessionStore,
    seen: &AtomicU64,
    corpus: &[String],
) -> usize {
    let mut valid = 0;
    for sql in corpus {
        match qrec_sql::prepare(sql) {
            Ok(prepared) => {
                valid += 1;
                for push in 0..3 {
                    let hits = store.statement_stats().hits;
                    seen.store(0, Ordering::Relaxed);
                    let window = store.push_sql("s", sql).unwrap();
                    assert_eq!(window, prepared.tokens, "push {push} of {sql:?}");
                    assert_eq!(
                        seen.load(Ordering::Relaxed),
                        prepared.template_id,
                        "push {push} of {sql:?}"
                    );
                    if push == 2 {
                        assert_eq!(store.statement_stats().hits, hits + 1, "{sql:?} not a hit");
                    }
                }
            }
            Err(e) => {
                let before = store.statement_stats();
                for _ in 0..3 {
                    assert_eq!(
                        store.push_sql("s", sql).unwrap_err(),
                        ServeError::Sql(e.to_string()),
                        "{sql:?}"
                    );
                }
                let after = store.statement_stats();
                assert_eq!(after.entries, before.entries, "{sql:?} was stored");
                assert_eq!(after.admitted, before.admitted, "{sql:?} was admitted");
                assert_eq!(after.misses, before.misses + 3, "{sql:?} was not parsed");
            }
        }
    }
    valid
}

/// The bytes a statement is counted for by what it holds: its text and
/// its tokens' bytes and `String` headers. The table adds a fixed cost
/// per entry for its map slot and the token array's reference counts.
fn held(sql: &str) -> usize {
    let tokens = qrec_sql::prepare(sql).unwrap().tokens;
    sql.len()
        + tokens
            .iter()
            .map(|t| t.len() + std::mem::size_of::<String>())
            .sum::<usize>()
}

/// A valid statement of about 2 KiB, distinct for each `i`.
fn wide(i: usize) -> String {
    let pad = "x".repeat(1800);
    format!("SELECT c{i}, '{pad}' FROM t{} WHERE k = {i}", i % 13)
}

#[test]
fn pushes_through_the_table_read_as_the_parse() {
    let corpus = corpus();
    let (store, seen) = store();
    let valid = assert_pushes_read_as_parsed(&store, &seen, &corpus);
    assert!(valid > 1000, "only {valid} valid statements");
    assert!(valid < corpus.len(), "no invalid statements");
    assert!(store.statement_stats().entries > 0);
    // Why keys are the exact text: a digit can be part of the template.
    let decimal = |p: &str| qrec_sql::prepare(&format!("SELECT CAST(x AS DECIMAL({p})) FROM t"));
    assert_ne!(
        decimal("10, 2").unwrap().template_id,
        decimal("12, 4").unwrap().template_id
    );

    // Force a clear: wide statements, each seen twice, until one is
    // admitted past the budget. Then every answer holds again.
    let cleared = store.statement_stats().cleared;
    let mut i = 0;
    while store.statement_stats().cleared == cleared {
        assert!(
            i < 10_000,
            "4 MiB of wide statements never cleared the table"
        );
        store.push_sql("filler", &wide(i)).unwrap();
        store.push_sql("filler", &wide(i)).unwrap();
        i += 1;
    }
    assert_eq!(store.statement_stats().entries, 1, "cleared, then admitted");
    assert_pushes_read_as_parsed(&store, &seen, &corpus);
}

#[test]
fn unique_statements_are_never_stored() {
    let (store, _) = store();
    for i in 0..50_000 {
        let sql = format!("SELECT c{}, d FROM t{} WHERE k = {i}", i % 50, i % 7);
        store.push_sql(&format!("s{}", i % 64), &sql).unwrap();
    }
    let stats = store.statement_stats();
    assert_eq!(
        stats,
        StatementStats {
            misses: 50_000,
            ..StatementStats::default()
        }
    );
}

#[test]
fn a_repeating_stream_larger_than_the_budget_clears_instead_of_growing() {
    let (store, _) = store();
    let statements: Vec<String> = (0..3000).map(wide).collect();
    let costs: Vec<usize> = statements.iter().map(|s| held(s)).collect();
    assert!(costs.iter().sum::<usize>() > STATEMENT_TABLE_BYTES);
    // The table's held bytes and entries since its last clear, as
    // counted here from what it reports it admitted; the fixed cost per
    // entry is read off the first admission.
    let (mut bytes, mut entries) = (0, 0);
    let mut per_entry = None;
    let mut last = store.statement_stats();
    for round in 0..3 {
        for (sql, &c) in statements.iter().zip(&costs) {
            store.push_sql("s", sql).unwrap();
            let now = store.statement_stats();
            if now.cleared > last.cleared {
                assert_eq!(now.cleared, last.cleared + 1);
                (bytes, entries) = (0, 0);
            }
            if now.admitted > last.admitted {
                bytes += c;
                entries += 1;
            }
            let fixed = match entries {
                0 => 0,
                _ => *per_entry.get_or_insert(now.bytes - bytes),
            };
            assert!(now.bytes <= STATEMENT_TABLE_BYTES, "round {round}: {now:?}");
            assert_eq!(
                (now.bytes, now.entries),
                (bytes + entries * fixed, entries),
                "round {round}"
            );
            last = now;
        }
    }
    // A map slot of a boxed key and a statement (40 bytes on a 64-bit
    // target) and two counts.
    let fixed = per_entry.unwrap();
    assert!((48..=128).contains(&fixed), "{fixed} bytes per entry");
    assert!(last.cleared >= 2, "{last:?}");
    assert_eq!(last.hits + last.misses, 9000);
}
