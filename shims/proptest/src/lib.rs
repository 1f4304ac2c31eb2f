//! Offline stand-in for `proptest`.
//!
//! Implements the subset of the proptest API this workspace uses: the
//! `proptest!` macro, `prop_assert!`/`prop_assert_eq!`, `prop_oneof!`,
//! `Just`, `any`, range and regex-literal strategies, `prop_map`,
//! `proptest::collection::vec` and `proptest::option::of`.
//!
//! Differences from the real crate: case generation is deterministic per
//! test (seeded from the test name), there is no shrinking, and failure
//! persistence files (`*.proptest-regressions`) are ignored. Failures
//! panic with the assertion message and the case number.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// RNG used to generate test cases.
pub type TestRng = StdRng;

// ---------------------------------------------------------------------------
// Errors and config
// ---------------------------------------------------------------------------

/// Opaque test-case failure carrying a message.
#[derive(Debug, Clone)]
pub struct TestCaseError {
    msg: String,
}

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError { msg: msg.into() }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

pub type TestCaseResult = Result<(), TestCaseError>;

/// Runner configuration; only `cases` is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

// ---------------------------------------------------------------------------
// Strategy trait and combinators
// ---------------------------------------------------------------------------

/// A generator of values of type `Self::Value`.
///
/// Unlike the real proptest there is no value tree and no shrinking: a
/// strategy simply draws a fresh value from the RNG.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// Result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy that always yields a clone of the given value.
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// Numeric range strategies: anything rand can sample from works.
impl<T> Strategy for std::ops::Range<T>
where
    std::ops::Range<T>: rand::SampleRange<T> + Clone,
{
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        rng.gen_range(self.clone())
    }
}

impl<T> Strategy for std::ops::RangeInclusive<T>
where
    std::ops::RangeInclusive<T>: rand::SampleRange<T> + Clone,
{
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        rng.gen_range(self.clone())
    }
}

// String literals act as regex-ish strategies producing Strings.
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        regex::generate(self, rng)
    }
}

impl Strategy for String {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        regex::generate(self, rng)
    }
}

macro_rules! impl_tuple_strategy {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A.0);
impl_tuple_strategy!(A.0, B.1);
impl_tuple_strategy!(A.0, B.1, C.2);
impl_tuple_strategy!(A.0, B.1, C.2, D.3);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9, K.10);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9, K.10, L.11);

// ---------------------------------------------------------------------------
// `any::<T>()`
// ---------------------------------------------------------------------------

/// Types with a canonical full-domain strategy.
pub trait ArbitraryValue {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_via_gen {
    ($($t:ty),+) => {
        $(impl ArbitraryValue for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.gen()
            }
        })+
    };
}

impl_arbitrary_via_gen!(bool, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

/// Strategy returned by [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: ArbitraryValue> Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Full-domain strategy for `T`, e.g. `any::<bool>()`.
pub fn any<T: ArbitraryValue>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

// ---------------------------------------------------------------------------
// Unions (prop_oneof!)
// ---------------------------------------------------------------------------

pub mod strategy {
    use super::TestRng;
    pub use super::{Just, Map, Strategy};

    /// Object-safe view of [`Strategy`] so heterogeneous strategies with a
    /// shared value type can live in one `Union`.
    pub trait DynStrategy<V> {
        fn generate_dyn(&self, rng: &mut TestRng) -> V;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    pub type BoxedStrategy<V> = Box<dyn DynStrategy<V>>;

    pub fn boxed_strategy<S>(s: S) -> BoxedStrategy<S::Value>
    where
        S: Strategy + 'static,
    {
        Box::new(s)
    }

    /// Uniform choice between alternatives (the `prop_oneof!` backend).
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;

        fn generate(&self, rng: &mut TestRng) -> V {
            use rand::Rng;
            let i = rng.gen_range(0..self.options.len());
            self.options[i].generate_dyn(rng)
        }
    }
}

// ---------------------------------------------------------------------------
// Collections and Option
// ---------------------------------------------------------------------------

pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Length specification for [`vec()`]: an exact `usize` or a `Range`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_exclusive: *r.end() + 1,
            }
        }
    }

    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec(strategy, len)`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..self.size.hi_exclusive);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod option {
    use super::{Strategy, TestRng};
    use rand::Rng;

    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `proptest::option::of(strategy)`: `None` about a quarter of the time.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.gen_bool(0.25) {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tiny regex-subset generator for string-literal strategies
// ---------------------------------------------------------------------------

mod regex {
    use super::TestRng;
    use rand::Rng;

    enum Atom {
        Any,
        Class(Vec<(char, char)>),
        Literal(char),
    }

    struct Piece {
        atom: Atom,
        lo: usize,
        hi: usize, // inclusive
    }

    /// Generate a string matching a small regex subset: literal chars,
    /// `.`, `[a-z0-9_]`-style classes, and the quantifiers `{n}`,
    /// `{lo,hi}`, `*`, `+`, `?`. Unsupported syntax panics so misuse is
    /// loud rather than silently wrong.
    pub fn generate(pattern: &str, rng: &mut TestRng) -> String {
        let pieces = parse(pattern);
        let mut out = String::new();
        for p in &pieces {
            let n = if p.lo == p.hi {
                p.lo
            } else {
                rng.gen_range(p.lo..=p.hi)
            };
            for _ in 0..n {
                out.push(gen_char(&p.atom, rng));
            }
        }
        out
    }

    fn gen_char(atom: &Atom, rng: &mut TestRng) -> char {
        match atom {
            Atom::Literal(c) => *c,
            Atom::Any => {
                // Mostly printable ASCII, sometimes controls or arbitrary
                // unicode scalars, to exercise robustness paths.
                let roll: f64 = rng.gen();
                if roll < 0.75 {
                    char::from_u32(rng.gen_range(0x20u32..0x7f)).unwrap()
                } else if roll < 0.85 {
                    ['\n', '\t', '\r', '\u{0}', '\u{7f}'][rng.gen_range(0..5usize)]
                } else {
                    loop {
                        let c = rng.gen_range(0x80u32..0x11_0000);
                        if let Some(c) = char::from_u32(c) {
                            return c;
                        }
                    }
                }
            }
            Atom::Class(ranges) => {
                let (lo, hi) = ranges[rng.gen_range(0..ranges.len())];
                char::from_u32(rng.gen_range(lo as u32..=hi as u32))
                    .expect("class range holds valid chars")
            }
        }
    }

    fn parse(pattern: &str) -> Vec<Piece> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut i = 0;
        let mut pieces = Vec::new();
        while i < chars.len() {
            let atom = match chars[i] {
                '.' => {
                    i += 1;
                    Atom::Any
                }
                '[' => {
                    i += 1;
                    let mut ranges = Vec::new();
                    while i < chars.len() && chars[i] != ']' {
                        let lo = if chars[i] == '\\' {
                            i += 1;
                            chars[i]
                        } else {
                            chars[i]
                        };
                        i += 1;
                        if i + 1 < chars.len() && chars[i] == '-' && chars[i + 1] != ']' {
                            let hi = chars[i + 1];
                            i += 2;
                            ranges.push((lo, hi));
                        } else {
                            ranges.push((lo, lo));
                        }
                    }
                    assert!(
                        i < chars.len(),
                        "unterminated character class in `{pattern}`"
                    );
                    i += 1; // consume ']'
                    Atom::Class(ranges)
                }
                '\\' => {
                    i += 1;
                    assert!(i < chars.len(), "dangling escape in `{pattern}`");
                    let c = match chars[i] {
                        'n' => '\n',
                        't' => '\t',
                        'r' => '\r',
                        other => other,
                    };
                    i += 1;
                    Atom::Literal(c)
                }
                c if "(){}|^$*+?".contains(c) => {
                    panic!("unsupported regex syntax `{c}` in `{pattern}`")
                }
                c => {
                    i += 1;
                    Atom::Literal(c)
                }
            };
            let (lo, hi) = if i < chars.len() {
                match chars[i] {
                    '{' => {
                        let close = chars[i..]
                            .iter()
                            .position(|&c| c == '}')
                            .map(|p| i + p)
                            .unwrap_or_else(|| panic!("unterminated `{{` in `{pattern}`"));
                        let body: String = chars[i + 1..close].iter().collect();
                        i = close + 1;
                        if let Some((a, b)) = body.split_once(',') {
                            (
                                a.trim().parse().expect("bad repeat lower bound"),
                                b.trim().parse().expect("bad repeat upper bound"),
                            )
                        } else {
                            let n: usize = body.trim().parse().expect("bad repeat count");
                            (n, n)
                        }
                    }
                    '*' => {
                        i += 1;
                        (0, 8)
                    }
                    '+' => {
                        i += 1;
                        (1, 8)
                    }
                    '?' => {
                        i += 1;
                        (0, 1)
                    }
                    _ => (1, 1),
                }
            } else {
                (1, 1)
            };
            pieces.push(Piece { atom, lo, hi });
        }
        pieces
    }
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Drive one property: generate `config.cases` values and run the body on
/// each. Called by the `proptest!` macro; not public API.
pub fn run_proptest<S, F>(name: &str, config: ProptestConfig, strat: S, mut body: F)
where
    S: Strategy,
    F: FnMut(S::Value) -> TestCaseResult,
{
    // Deterministic per-test seed so failures are reproducible.
    let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        seed ^= b as u64;
        seed = seed.wrapping_mul(0x100_0000_01b3);
    }
    let mut rng = TestRng::seed_from_u64(seed);
    for case in 0..config.cases {
        let value = strat.generate(&mut rng);
        if let Err(e) = body(value) {
            panic!(
                "proptest `{name}` failed at case {case}/{}: {e}",
                config.cases
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Declare property tests. Supports an optional leading
/// `#![proptest_config(...)]` and any number of test functions whose
/// arguments use `name in strategy` syntax.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $config;
                let __strat = ($($strat,)+);
                $crate::run_proptest(stringify!($name), __config, __strat, |($($arg,)+)| {
                    $body
                    ::std::result::Result::Ok(())
                });
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($arg in $strat),+) $body
            )*
        }
    };
}

/// Assert a condition inside a property, returning a test-case failure
/// instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let __left = $left;
        let __right = $right;
        if !(__left == __right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {}",
                stringify!($left),
                stringify!($right)
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let __left = $left;
        let __right = $right;
        if !(__left == __right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let __left = $left;
        let __right = $right;
        if __left == __right {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} != {}",
                stringify!($left),
                stringify!($right)
            )));
        }
    }};
}

/// Uniform choice between strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($option:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::boxed_strategy($option)),+
        ])
    };
}

pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just,
        ProptestConfig, TestCaseError, TestCaseResult,
    };
}

/// Test-only access to the regex generator.
#[doc(hidden)]
pub fn regex_generate_for_tests(pattern: &str, rng: &mut TestRng) -> String {
    regex::generate(pattern, rng)
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn small() -> impl Strategy<Value = u32> {
        1u32..5
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Ranges stay in bounds, options and vecs compose.
        #[test]
        fn composed_strategies_stay_in_bounds(
            x in small(),
            flag in any::<bool>(),
            xs in crate::collection::vec(0usize..10, 1..6),
            maybe in crate::option::of(2i32..4),
            word in "[a-z]{1,6}",
            pick in prop_oneof![Just(7u8), Just(9u8)],
        ) {
            prop_assert!((1..5).contains(&x));
            prop_assert_ne!(flag, !flag);
            prop_assert!(!xs.is_empty() && xs.len() <= 5);
            prop_assert!(xs.iter().all(|&v| v < 10));
            if let Some(m) = maybe {
                prop_assert!((2..4).contains(&m));
            }
            prop_assert!((1..=6).contains(&word.len()));
            prop_assert!(word.chars().all(|c| c.is_ascii_lowercase()));
            prop_assert!(pick == 7 || pick == 9);
        }

        #[test]
        fn prop_map_applies(y in (0u32..3).prop_map(|v| v * 10)) {
            prop_assert!(y == 0 || y == 10 || y == 20);
            prop_assert_eq!(y % 10, 0);
        }
    }

    #[test]
    fn dot_quantifier_bounds() {
        use rand::SeedableRng;
        let mut rng = crate::TestRng::seed_from_u64(7);
        for _ in 0..50 {
            let s = crate::regex_generate_for_tests(".{0,200}", &mut rng);
            assert!(s.chars().count() <= 200);
        }
    }

    #[test]
    #[should_panic]
    fn failing_property_panics() {
        crate::run_proptest(
            "always_fails",
            ProptestConfig::with_cases(1),
            0u32..1,
            |_| Err(TestCaseError::fail("boom")),
        );
    }
}
