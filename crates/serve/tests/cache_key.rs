//! The recommendation cache key is injective in the token window.
//!
//! A cache hit serves the ranking stored under the key, so two windows
//! sharing a key would serve one the other's answer. Tokens are
//! arbitrary text — a string literal may hold any character, the old
//! U+001F separator included — so the key must tell every two distinct
//! token vectors apart, and [`CacheKey::new`] and
//! [`CacheKey::from_window`] must build the same key for one window.

use proptest::prelude::*;
use qrec_serve::CacheKey;
use std::collections::HashMap;

/// The texts tokens are drawn from: short, and made of the characters a
/// separator or a length prefix would be written with.
const PIECES: &[&str] = &[
    "", "a", "\u{1f}", ":", "1", "12", "1:", "a\u{1f}", ":a", "\u{1f}1",
];

#[test]
fn every_small_window_has_its_own_key() {
    // Every window of up to three tokens over the pieces.
    let mut windows: Vec<Vec<String>> = vec![vec![]];
    let mut last = windows.clone();
    for _ in 0..3 {
        last = last
            .iter()
            .flat_map(|w| {
                PIECES.iter().map(move |p| {
                    let mut w = w.clone();
                    w.push(p.to_string());
                    w
                })
            })
            .collect();
        windows.extend(last.iter().cloned());
    }
    let mut seen: HashMap<CacheKey, &Vec<String>> = HashMap::new();
    for w in &windows {
        let key = CacheKey::new(3, w);
        assert_eq!(key, CacheKey::from_window(3, w.iter().map(String::as_str)));
        if let Some(other) = seen.insert(key, w) {
            panic!("{other:?} and {w:?} share a key");
        }
    }
    assert_eq!(seen.len(), 1 + 10 + 100 + 1000);
}

fn window() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..PIECES.len()).prop_map(|i| PIECES[i].to_string()),
            "[a:1\u{1f}]{0,3}",
            ".{0,5}",
        ],
        0..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn distinct_windows_have_distinct_keys(a in window(), b in window(), epoch in 0u64..3) {
        let (ka, kb) = (CacheKey::new(epoch, &a), CacheKey::new(epoch, &b));
        prop_assert_eq!(a == b, ka == kb, "{:?} vs {:?}", a, b);
        prop_assert_eq!(&ka, &CacheKey::from_window(epoch, a.iter().map(String::as_str)));
        prop_assert!(CacheKey::new(epoch + 1, &a) != ka, "the epoch is part of the key");
    }
}
