//! The serving parse is `QueryRecord::new`, bit for bit.
//!
//! A server pushes statements through [`qrec_sql::prepare`], which
//! derives only the model tokens and the template id; training,
//! evaluation and the workload tooling read [`QueryRecord::new`]. The
//! window a session feeds the model, the cache key built from it and the
//! template histogram of the workload telemetry are only right if the
//! two agree on every statement: equal tokens, equal `template.id()`, and
//! for text that does not parse, the same error.

use proptest::prelude::*;
use qrec_sql::prepare;
use qrec_workload::gen::{generate, WorkloadProfile};
use qrec_workload::QueryRecord;

/// Where the serving parse of `sql` and its record differ — tokens,
/// template id, or the error both must reject it with — or `None`.
fn disagreement(sql: &str) -> Option<String> {
    match (prepare(sql), QueryRecord::new(sql)) {
        (Ok(p), Ok(r)) if p.tokens == r.tokens && p.template_id == r.template.id() => None,
        (Err(a), Err(b)) if a == b => None,
        (p, r) => Some(format!("{sql:?}: prepare {p:?}, QueryRecord::new {r:?}")),
    }
}

fn assert_agrees(sql: &str) {
    if let Some(d) = disagreement(sql) {
        panic!("{d}");
    }
}

/// `sdss()` scaled as the session-replay benchmark scales it.
fn bench_profile() -> WorkloadProfile {
    let mut p = WorkloadProfile::sdss();
    p.name = "bench_e2e".into();
    p.sessions = 240;
    p.tables_per_dataset = (24, 24);
    p.columns_per_table = (8, 16);
    p.function_pool = 12;
    p.literal_pool = 40;
    p
}

#[test]
fn generated_sessions_agree() {
    let mut sdss = WorkloadProfile::sdss();
    sdss.sessions = 240;
    let mut sqlshare = WorkloadProfile::sqlshare();
    sqlshare.sessions = 120;
    let profiles = [sdss, sqlshare, WorkloadProfile::tiny(), bench_profile()];
    let mut statements = 0;
    for profile in &profiles {
        for seed in [1, 7, 11] {
            let (workload, _) = generate(profile, seed);
            for session in &workload.sessions {
                for query in &session.queries {
                    assert_agrees(&query.sql);
                    statements += 1;
                }
            }
        }
    }
    assert!(statements > 1000, "only {statements} statements generated");
}

#[test]
fn hand_corpus_agrees() {
    let corpus = [
        // Aliases, self-joins, correlated subqueries.
        "SELECT j.target FROM Jobs j WHERE j.queue = 'FULL'",
        "SELECT a.x, b.x FROM t a JOIN t b ON a.id = b.parent WHERE a.x > b.x",
        "SELECT p.objid FROM PhotoObj AS p WHERE EXISTS \
         (SELECT 1 FROM SpecObj s WHERE s.bestobjid = p.objid)",
        "SELECT d.n FROM (SELECT COUNT(*) AS n FROM t GROUP BY k) d WHERE d.n > 2",
        "SELECT t.* , u.* FROM t LEFT OUTER JOIN u ON t.a = u.a CROSS JOIN v",
        // CTEs and set operations.
        "WITH hot AS (SELECT objid FROM SpecObj WHERE z > 0.3) SELECT h.objid FROM hot h",
        "SELECT a FROM t UNION ALL SELECT b FROM u EXCEPT SELECT c FROM v ORDER BY 1",
        // Quoted identifiers of both styles.
        "SELECT [my col], \"other col\" FROM [dbo.table name] WHERE [x y] = 1",
        "SELECT \"select\" FROM \"from\"",
        // String escapes, non-ASCII and control characters in literals.
        "SELECT a FROM t WHERE b = 'o''brien' AND c = ''''",
        "SELECT a FROM t WHERE b LIKE '%héllo ∑ 🦀%' AND c = 'tab\there'",
        "SELECT a FROM t WHERE b = 'nl\nand\rcr\u{7}\u{1f}\u{7f}\u{2028}'",
        "SELECT CASE WHEN a = 1 THEN 'x''\u{1f}ELSE\u{1f}''y' END FROM t",
        // Number shapes.
        "SELECT 1e-4, .5, 1., 2.5E+3, 0.000, 17 FROM t WHERE x BETWEEN -1 AND +2.",
        "SELECT t1.x FROM t1 WHERE t1.y > 1.5e10",
        // Comments.
        "SELECT a -- trailing\n FROM /* block\n comment */ t",
        // Keywords in mixed case; words longer than any keyword.
        "sElEcT DiStInCt a FrOm t wHeRe b iS nOt NuLl OrDeR bY a DeSc",
        "select top 5 intersection, intersects, selected, a_very_long_identifier_name \
         from t where not (a in (1, 2)) and b not like 'x%'",
        "SELECT CAST(a AS VARCHAR), COUNT(DISTINCT b), SUM(c) / 2 FROM t \
         GROUP BY a HAVING COUNT(*) > 1 LIMIT 10 OFFSET 5",
        "SELECT a || b, -c, NOT d FROM t WHERE e <> 1 AND f != 2 AND g <= 3 AND h >= 4;",
        // Not statements, or not in the dialect.
        "",
        "SELEC * FRM t",
        "SELECT 'unterminated",
        "SELECT [unterminated",
        "SELECT a FROM t /* unterminated",
        "SELECT ? FROM t",
        "SELECT a FROM t WHERE",
        "DELETE FROM t",
    ];
    for sql in corpus {
        assert_agrees(sql);
    }
}

/// Whole tokens of the dialect, in every shape the lexer knows, plus a
/// few it does not: salads of these parse sometimes and fail otherwise.
const SALAD: &[&str] = &[
    "SELECT", "select", "DISTINCT", "TOP", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
    "ASC", "desc", "LIMIT", "OFFSET", "AS", "ON", "JOIN", "LEFT", "OUTER", "UNION", "ALL", "AND",
    "or", "NOT", "IN", "EXISTS", "BETWEEN", "LIKE", "IS", "NULL", "CASE", "WHEN", "THEN", "ELSE",
    "END", "CAST", "TRUE", "WITH", "a", "t", "t1", "x.y", "[b c]", "\"d\"", "COUNT", "tmp#1", "1",
    "2.5", ".5", "1e-4", "1.", "'s'", "'o''b'", "'é∑'", "*", "(", ")", ",", ".", ";", "=", "<>",
    "!=", "<", "<=", ">", ">=", "+", "-", "/", "%", "||", "?", "--c\n", "/*c*/",
];

const PROJECTIONS: &[&str] = &[
    "*",
    "a",
    "p.ra, p.dec",
    "DISTINCT x.a",
    "TOP 3 [b c], COUNT(*)",
    "CAST(a AS VARCHAR) AS v",
    "CASE WHEN a = 1 THEN 'x' ELSE 'y' END",
    "t.*",
];
const SOURCES: &[&str] = &[
    "t",
    "PhotoObj p",
    "t x JOIN u y ON x.id = y.id",
    "(SELECT a FROM t) d",
    "[dbo table] AS b",
];
const PREDICATES: &[&str] = &[
    "a = 1",
    "p.ra BETWEEN .5 AND 1e-4",
    "x.a LIKE 'o''b%'",
    "a IN (1, 2, 3) AND b IS NOT NULL",
    "EXISTS (SELECT 1 FROM u WHERE u.k = a)",
    "NOT a <> 'é∑'",
];
const TAILS: &[&str] = &[
    "",
    "GROUP BY a HAVING COUNT(*) > 1",
    "ORDER BY a DESC LIMIT 10",
    "UNION SELECT b FROM u",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn token_salads_agree(picks in proptest::collection::vec(0usize..SALAD.len(), 1..14)) {
        let sql = picks.iter().map(|&i| SALAD[i]).collect::<Vec<_>>().join(" ");
        let d = disagreement(&sql);
        prop_assert!(d.is_none(), "{}", d.unwrap_or_default());
    }

    #[test]
    fn clause_salads_agree(
        clauses in (
            0usize..PROJECTIONS.len(),
            0usize..SOURCES.len(),
            0usize..PREDICATES.len(),
            0usize..TAILS.len(),
        ),
        junk in proptest::option::of((0usize..SALAD.len(), 0usize..8)),
    ) {
        // Statements assembled from valid clauses parse; one stray
        // token spliced in somewhere mostly makes them fail, at any
        // depth of the parser.
        let (proj, src, pred, tail) = clauses;
        let text = format!(
            "SELECT {} FROM {} WHERE {} {}",
            PROJECTIONS[proj], SOURCES[src], PREDICATES[pred], TAILS[tail]
        );
        let mut words: Vec<&str> = text.split(' ').filter(|w| !w.is_empty()).collect();
        if let Some((token, at)) = junk {
            let at = at.min(words.len());
            words.insert(at, SALAD[token]);
        }
        let sql = words.join(" ");
        let d = disagreement(&sql);
        prop_assert!(d.is_none(), "{}", d.unwrap_or_default());
    }
}
