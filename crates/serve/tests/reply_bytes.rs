//! A recommendation reply is written straight to bytes, and those bytes
//! are `serde_json`'s.
//!
//! `Response::to_json_line` writes the recommendation shape — the reply
//! to nearly every request — from its fields instead of through the
//! `serde_json` value tree. Clients compare reply lines byte for byte
//! (a line equal to one already checked is not parsed again), so the
//! writer must print exactly what `serde_json::to_string` prints, for any
//! fragment text; and every other shape must still take the serde path.

use qrec_core::predict::PerKind;
use qrec_serve::{Response, ServeError, StatsReply};

fn strings(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

/// The line is `serde_json`'s and reads back as the same response.
fn assert_serde_bytes(resp: &Response) {
    let line = resp.to_json_line();
    assert_eq!(line, serde_json::to_string(resp).unwrap());
    let back: Response = serde_json::from_str(&line).unwrap();
    assert_eq!(&back, resp);
}

#[test]
fn every_control_character_and_escape() {
    let mut awkward: Vec<String> = (0u32..0x20)
        .filter_map(char::from_u32)
        .map(|c| format!("a{c}b"))
        .collect();
    awkward.extend(strings(&[
        "\"",
        "\\",
        "\\\"",
        "'q''",
        "\u{7f}",
        "\u{2028}",
        "\u{2029}",
        "é∑🦀",
        "\u{1f}",
        "",
        "plain",
        "\u{0}\u{1}\n\r\t\u{8}\u{c}",
    ]));
    for (i, text) in awkward.iter().enumerate() {
        let fragments = PerKind {
            table: vec![text.clone()],
            column: awkward[..i].to_vec(),
            function: vec![format!("{text}{text}")],
            literal: vec![format!("'{text}'"), text.clone()],
        };
        assert_serde_bytes(&Response::recommendation(fragments, i as u64, i % 2 == 0));
    }
}

#[test]
fn empty_kinds_epochs_and_both_cached_flags() {
    let empty = PerKind::<Vec<String>>::default();
    let some = PerKind {
        table: strings(&["PhotoObj"]),
        column: strings(&["ra", "dec"]),
        function: vec![],
        literal: strings(&["'STAR'", "<NUM>"]),
    };
    for fragments in [empty, some] {
        for epoch in [0, 1, 9, 10, 4_294_967_296, u64::MAX - 1, u64::MAX] {
            for cached in [true, false] {
                assert_serde_bytes(&Response::recommendation(fragments.clone(), epoch, cached));
            }
        }
    }
}

#[test]
fn other_shapes_take_the_serde_path() {
    let err = Response::err(&ServeError::Sql("unexpected \"x\"\n".into()));
    let ok = Response::ok();
    let stats = Response {
        ok: true,
        stats: Some(StatsReply {
            sessions: 3,
            cache_entries: 7,
            model_epoch: 2,
            ..StatsReply::default()
        }),
        ..Response::default()
    };
    // A recommendation carrying any other field is not the shape the
    // direct writer knows.
    let mixed = Response {
        dump: Some("x".into()),
        ..Response::recommendation(PerKind::default(), 1, true)
    };
    for resp in [err, ok, stats, mixed] {
        assert_serde_bytes(&resp);
    }
}
