//! The JSON-lines wire protocol.
//!
//! Each request and each response is one JSON object per line over a
//! plain TCP stream — trivially scriptable (`nc`, `jq`) and framed by
//! `\n`, so no length prefixes or binary codecs are needed.
//!
//! Verbs:
//!
//! | verb        | fields                 | effect                                  |
//! |-------------|------------------------|-----------------------------------------|
//! | `RECOMMEND` | `session`, `sql`, `n`  | record the query, return top-n fragments |
//! | `STATS`     | —                      | metrics + store/cache/registry snapshot |
//! | `TRACE`     | `n`                    | last-n flight records + slowest reservoir |
//! | `DUMP`      | —                      | Prometheus-style text exposition        |
//! | `HISTORY`   | `n`                    | last-n sealed telemetry windows         |
//! | `WATCH`     | —                      | ack, then stream one line per sealed window (event-loop front end) |
//! | `PROF`      | `n`                    | top-n folded profiler stacks            |
//! | `PING`      | —                      | liveness check                          |
//! | `SHUTDOWN`  | —                      | acknowledge, then stop the server       |

use qrec_core::predict::PerKind;
use qrec_obs::{FlightRecord, ProfReport};
use serde::{Deserialize, Serialize};
use std::fmt::Write;

use crate::error::ServeError;
use crate::metrics::MetricsSnapshot;
use crate::telemetry::WindowFrame;

/// Default number of fragments per kind when a request omits `n`.
pub const DEFAULT_N: usize = 5;

/// Default number of recent flight records a `TRACE` request returns.
pub const DEFAULT_TRACE_N: usize = 16;

/// Default number of folded stacks a `PROF` request returns.
pub const DEFAULT_PROF_N: usize = 32;

/// A client request: one JSON object per line.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// `RECOMMEND`, `STATS`, `TRACE`, `DUMP`, `HISTORY`, `WATCH`,
    /// `PROF`, `PING`, or `SHUTDOWN` (case-insensitive).
    pub verb: String,
    /// Session id (`RECOMMEND` only).
    pub session: Option<String>,
    /// The SQL statement the user just ran (`RECOMMEND` only).
    pub sql: Option<String>,
    /// Fragments per kind to return (`RECOMMEND`, defaults to
    /// [`DEFAULT_N`]), recent flight records to return (`TRACE`,
    /// defaults to [`DEFAULT_TRACE_N`]), telemetry windows to return
    /// (`HISTORY`, defaults to all), or folded stacks to return
    /// (`PROF`, defaults to [`DEFAULT_PROF_N`]).
    pub n: Option<u64>,
}

impl Request {
    /// A `RECOMMEND` request.
    pub fn recommend(session: &str, sql: &str, n: usize) -> Self {
        Request {
            verb: "RECOMMEND".into(),
            session: Some(session.to_string()),
            sql: Some(sql.to_string()),
            n: Some(n as u64),
        }
    }

    /// A bare request carrying only a verb.
    pub fn bare(verb: &str) -> Self {
        Request {
            verb: verb.into(),
            ..Request::default()
        }
    }
}

/// A server response: one JSON object per line, `ok` discriminating
/// success from failure.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// True on success.
    pub ok: bool,
    /// Machine-readable error code (see [`ServeError::code`]).
    pub code: Option<String>,
    /// Human-readable error message.
    pub error: Option<String>,
    /// Ranked fragments per kind (`RECOMMEND`).
    pub fragments: Option<PerKind<Vec<String>>>,
    /// Model epoch that served the recommendation (`RECOMMEND`).
    pub epoch: Option<u64>,
    /// True when the recommendation came from the cache (`RECOMMEND`).
    pub cached: Option<bool>,
    /// Serving statistics (`STATS`).
    pub stats: Option<StatsReply>,
    /// Flight-recorder traces (`TRACE`); absent in responses from older
    /// servers.
    #[serde(default)]
    pub trace: Option<TraceReply>,
    /// Prometheus-style exposition text (`DUMP`); absent in responses
    /// from older servers.
    #[serde(default)]
    pub dump: Option<String>,
    /// Sealed telemetry windows (`HISTORY`); absent in responses from
    /// older servers.
    #[serde(default)]
    pub history: Option<HistoryReply>,
    /// One streamed telemetry window (`WATCH` stream lines); absent in
    /// responses from older servers.
    #[serde(default)]
    pub watch: Option<WindowFrame>,
    /// Folded profiler report (`PROF`); absent in responses from older
    /// servers.
    #[serde(default)]
    pub prof: Option<ProfReport>,
}

impl Response {
    /// A bare success (PING, SHUTDOWN acknowledgements).
    pub fn ok() -> Self {
        Response {
            ok: true,
            ..Response::default()
        }
    }

    /// A failure carrying the error's wire code and message.
    pub fn err(e: &ServeError) -> Self {
        Response {
            ok: false,
            code: Some(e.code().to_string()),
            error: Some(e.to_string()),
            ..Response::default()
        }
    }

    /// A successful recommendation.
    pub fn recommendation(fragments: PerKind<Vec<String>>, epoch: u64, cached: bool) -> Self {
        Response {
            ok: true,
            fragments: Some(fragments),
            epoch: Some(epoch),
            cached: Some(cached),
            ..Response::default()
        }
    }

    /// A successful `TRACE` response.
    pub fn traces(recent: Vec<FlightRecord>, slowest: Vec<FlightRecord>) -> Self {
        Response {
            ok: true,
            trace: Some(TraceReply { recent, slowest }),
            ..Response::default()
        }
    }

    /// A successful `DUMP` response.
    pub fn dump(text: String) -> Self {
        Response {
            ok: true,
            dump: Some(text),
            ..Response::default()
        }
    }

    /// A successful `HISTORY` response.
    pub fn history(windows: Vec<WindowFrame>) -> Self {
        Response {
            ok: true,
            history: Some(HistoryReply { windows }),
            ..Response::default()
        }
    }

    /// One `WATCH` stream line carrying a freshly sealed window.
    pub fn watch(frame: WindowFrame) -> Self {
        Response {
            ok: true,
            watch: Some(frame),
            ..Response::default()
        }
    }

    /// A successful `PROF` response.
    pub fn prof(report: ProfReport) -> Self {
        Response {
            ok: true,
            prof: Some(report),
            ..Response::default()
        }
    }

    /// Serialise to one JSON line (no trailing newline): the bytes of
    /// `serde_json::to_string(self)`. A recommendation — the reply to
    /// nearly every request — is written straight from its fields;
    /// every other shape goes through `serde_json`. A `Response` always
    /// serialises; the fallback is a hand-written error line for that
    /// impossibility.
    pub fn to_json_line(&self) -> String {
        if let Some(line) = self.recommendation_line() {
            return line;
        }
        serde_json::to_string(self)
            .unwrap_or_else(|_| r#"{"ok":false,"code":"io_error","error":"serialize"}"#.to_string())
    }

    /// The JSON line of a [`Response::recommendation`], or `None` for any
    /// other shape. `serde_json` prints every field in declaration order,
    /// an absent one as `null`; so does this, without building the value
    /// tree or copying a fragment.
    fn recommendation_line(&self) -> Option<String> {
        let Response {
            ok: true,
            code: None,
            error: None,
            fragments: Some(fragments),
            epoch: Some(epoch),
            cached: Some(cached),
            stats: None,
            trace: None,
            dump: None,
            history: None,
            watch: None,
            prof: None,
        } = self
        else {
            return None;
        };
        let PerKind {
            table,
            column,
            function,
            literal,
        } = fragments;
        let mut out = String::with_capacity(192);
        out.push_str(r#"{"ok":true,"code":null,"error":null,"fragments":{"table":"#);
        write_json_array(&mut out, table.iter().map(String::as_str));
        out.push_str(r#","column":"#);
        write_json_array(&mut out, column.iter().map(String::as_str));
        out.push_str(r#","function":"#);
        write_json_array(&mut out, function.iter().map(String::as_str));
        out.push_str(r#","literal":"#);
        write_json_array(&mut out, literal.iter().map(String::as_str));
        out.push_str(r#"},"epoch":"#);
        // Writing to a `String` cannot fail.
        let _ = write!(out, "{epoch}");
        out.push_str(if *cached {
            r#","cached":true"#
        } else {
            r#","cached":false"#
        });
        out.push_str(
            r#","stats":null,"trace":null,"dump":null,"history":null,"watch":null,"prof":null}"#,
        );
        Some(out)
    }

    /// Convert a wire response back into a typed result (client side).
    pub fn into_result(self) -> Result<Response, ServeError> {
        if self.ok {
            Ok(self)
        } else {
            let code = self.code.unwrap_or_default();
            let msg = self.error.unwrap_or_default();
            Err(ServeError::from_wire(&code, msg))
        }
    }
}

/// Append `items` as a JSON array of strings: the bytes `serde_json`
/// prints for a `Vec<String>` of them.
pub(crate) fn write_json_array<'a>(out: &mut String, items: impl IntoIterator<Item = &'a str>) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_str(out, item);
    }
    out.push(']');
}

/// Append `s` as a JSON string with `serde_json`'s escapes: `"` and `\`
/// backslashed, `\n \r \t \b \f` by name, any other control character
/// below U+0020 as `\u00xx`, everything else — U+007F, U+2028 and all
/// non-ASCII text included — as is. Runs between escapes are copied
/// whole.
pub(crate) fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let named = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x08 => Some("\\b"),
            0x0c => Some("\\f"),
            0x00..=0x1f => None,
            _ => continue,
        };
        // Every escaped byte is ASCII, so `run..i` and `i + 1..` fall on
        // char boundaries.
        out.push_str(&s[run..i]);
        run = i + 1;
        match named {
            Some(escape) => out.push_str(escape),
            None => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Payload of a `STATS` response.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Counter and histogram snapshot.
    pub metrics: MetricsSnapshot,
    /// Live sessions in the store.
    pub sessions: u64,
    /// Entries in the recommendation cache.
    pub cache_entries: u64,
    /// Current model epoch.
    pub model_epoch: u64,
    /// True when the serving model carries an int8 quantization sidecar
    /// (absent in replies from older servers — defaults to false).
    #[serde(default)]
    pub model_quantized: bool,
}

/// Payload of a `TRACE` response.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceReply {
    /// Most recent completed request traces, newest first.
    pub recent: Vec<FlightRecord>,
    /// Slowest requests seen since process start, slowest first.
    pub slowest: Vec<FlightRecord>,
}

/// Payload of a `HISTORY` response.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistoryReply {
    /// Sealed telemetry windows, oldest first.
    pub windows: Vec<WindowFrame>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_json() {
        let req = Request::recommend("alice", "SELECT a FROM t", 3);
        let line = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&line).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn omitted_fields_default_to_none() {
        let back: Request = serde_json::from_str(r#"{"verb":"PING"}"#).unwrap();
        assert_eq!(back.verb, "PING");
        assert!(back.session.is_none() && back.sql.is_none() && back.n.is_none());
    }

    #[test]
    fn error_response_converts_to_typed_error() {
        let resp = Response::err(&ServeError::Overloaded);
        let line = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        match back.into_result() {
            Err(ServeError::Overloaded) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }

    #[test]
    fn responses_without_trace_fields_still_parse() {
        // Responses from servers that predate TRACE/DUMP omit both
        // fields; the serde defaults keep the client compatible.
        let back: Response = serde_json::from_str(r#"{"ok":true}"#).unwrap();
        assert!(back.ok && back.trace.is_none() && back.dump.is_none());
    }

    #[test]
    fn responses_without_telemetry_fields_still_parse() {
        // Responses from servers that predate HISTORY/WATCH/PROF omit
        // all three fields; the serde defaults keep the client
        // compatible.
        let back: Response = serde_json::from_str(r#"{"ok":true}"#).unwrap();
        assert!(back.history.is_none() && back.watch.is_none() && back.prof.is_none());
    }

    #[test]
    fn history_and_watch_responses_round_trip() {
        let frame = WindowFrame::default();
        let resp = Response::history(vec![frame.clone()]);
        let line = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back.history.expect("history payload").windows.len(), 1);

        let resp = Response::watch(frame);
        let line = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert!(back.watch.is_some());
    }

    #[test]
    fn trace_response_round_trips() {
        let rec = FlightRecord {
            request_id: 9,
            total_us: 1200,
            strategy: "beam".to_string(),
            ..FlightRecord::default()
        };
        let resp = Response::traces(vec![rec.clone()], vec![rec]);
        let line = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        let reply = back.trace.expect("trace payload");
        assert_eq!(reply.recent.len(), 1);
        assert_eq!(reply.recent[0].request_id, 9);
        assert_eq!(reply.slowest[0].strategy, "beam");
    }

    #[test]
    fn recommendation_response_round_trips() {
        let fragments = PerKind {
            table: vec!["t".to_string()],
            column: vec!["a".to_string(), "b".to_string()],
            function: vec![],
            literal: vec![],
        };
        let resp = Response::recommendation(fragments.clone(), 2, true);
        let line = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back.fragments.as_ref(), Some(&fragments));
        assert_eq!(back.epoch, Some(2));
        assert_eq!(back.cached, Some(true));
    }

    #[test]
    fn only_a_recommendation_is_written_directly() {
        let rec = Response::recommendation(PerKind::default(), 3, false);
        assert!(rec.recommendation_line().is_some());
        let carrying_more = Response {
            stats: Some(StatsReply::default()),
            ..rec.clone()
        };
        for other in [
            Response::ok(),
            carrying_more,
            Response::err(&ServeError::Overloaded),
        ] {
            assert!(other.recommendation_line().is_none(), "{other:?}");
        }
    }
}
