//! In-repo shim for the `proptest` API subset the workspace uses.
//!
//! The build environment is offline, so the real crate cannot be fetched.
//! This provides the `proptest!` macro, `prop_assert!`/`prop_assert_eq!`,
//! `any`, integer-range / regex-pattern / tuple strategies,
//! `collection::vec`, `option::of`, and `ProptestConfig::with_cases`.
//!
//! Differences from crates.io proptest: no shrinking (a failing case
//! reports its generated inputs verbatim), no persistence of regression
//! seeds (`*.proptest-regressions` files are ignored), and the regex
//! strategy supports only the subset actually used by the test suites:
//! literals, `\`-escapes, `.`, `[...]` classes with ranges, `(...)`
//! groups with `|` alternation, and `{m}` / `{m,n}` / `?` / `*` / `+`
//! quantifiers. Case generation is deterministic per test name.

/// Deterministic test-case RNG and failure plumbing.
pub mod test_runner {
    use std::fmt;

    /// Per-test-case random source (splitmix64).
    #[derive(Debug, Clone)]
    pub struct TestRng(u64);

    impl TestRng {
        /// Deterministic RNG for case `case` of the test named `name`.
        pub fn for_case(name: &str, case: u32) -> Self {
            // FNV-1a over the name, mixed with the case index.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng(h ^ ((case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        }

        /// Next 64 uniform bits.
        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; `n > 0`.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            ((self.next_u64() as u128 * n as u128) >> 64) as u64
        }

        /// Uniform value in `[lo, hi]`.
        pub fn in_range(&mut self, lo: u64, hi: u64) -> u64 {
            debug_assert!(lo <= hi);
            lo + self.below(hi - lo + 1)
        }

        /// Bernoulli draw: true with probability `num/denom`.
        pub fn chance(&mut self, num: u64, denom: u64) -> bool {
            self.below(denom) < num
        }
    }

    /// Failure raised by `prop_assert!` / `prop_assert_eq!`.
    #[derive(Debug)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Builds a failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Result type of a single generated test case.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Runner knobs; only `cases` is honoured.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` generated inputs.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Extracts a human-readable message from a panic payload.
    pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
        if let Some(s) = payload.downcast_ref::<&str>() {
            s
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s
        } else {
            "<non-string panic payload>"
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::fmt::Debug;
    use std::marker::PhantomData;
    use std::ops::Range;

    /// A reusable generator of values for one test argument.
    pub trait Strategy {
        /// The generated type.
        type Value: Debug;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<R: Debug, F: Fn(Self::Value) -> R>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Builds a dependent strategy from each generated value.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }
    }

    /// Constant strategy: always yields a clone of the wrapped value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone + Debug>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Strategy produced by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, R: Debug, F: Fn(S::Value) -> R> Strategy for Map<S, F> {
        type Value = R;
        fn generate(&self, rng: &mut TestRng) -> R {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Strategy produced by [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            let intermediate = self.inner.generate(rng);
            (self.f)(intermediate).generate(rng)
        }
    }

    /// Types with a canonical default strategy (see [`crate::any`]).
    pub trait Arbitrary: Debug + Sized {
        /// Draws an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_uint {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_tuple {
        ($($name:ident),+) => {
            impl<$($name: Arbitrary),+> Arbitrary for ($($name,)+) {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    ($($name::arbitrary(rng),)+)
                }
            }
        };
    }
    impl_arbitrary_tuple!(A, B);
    impl_arbitrary_tuple!(A, B, C);
    impl_arbitrary_tuple!(A, B, C, D);
    impl_arbitrary_tuple!(A, B, C, D, E);

    /// Strategy produced by [`crate::any`].
    pub struct AnyStrategy<T>(pub(crate) PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! impl_strategy_int_range {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u64) - (self.start as u64);
                    self.start + rng.below(span) as $t
                }
            }
        )*};
    }
    impl_strategy_int_range!(u8, u16, u32, u64, usize);

    macro_rules! impl_strategy_tuple {
        ($($name:ident: $idx:tt),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }
    impl_strategy_tuple!(A: 0);
    impl_strategy_tuple!(A: 0, B: 1);
    impl_strategy_tuple!(A: 0, B: 1, C: 2);
    impl_strategy_tuple!(A: 0, B: 1, C: 2, D: 3);
    impl_strategy_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
}

/// `&'static str` regex-subset strategies (`"[a-z]{1,5}"` etc.).
mod pattern {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    enum Atom {
        Dot,
        Lit(char),
        Class(Vec<(char, char)>),
        Group(Vec<Vec<Element>>),
    }

    struct Element {
        atom: Atom,
        min: u32,
        max: u32,
    }

    struct Parser<'a> {
        src: &'a str,
        chars: std::iter::Peekable<std::str::Chars<'a>>,
    }

    impl<'a> Parser<'a> {
        fn new(src: &'a str) -> Self {
            Parser {
                src,
                chars: src.chars().peekable(),
            }
        }

        fn err(&self, msg: &str) -> ! {
            panic!("unsupported pattern strategy {:?}: {msg}", self.src)
        }

        // Parses a `|`-separated alternation until `stop` (')' or end).
        fn alternation(&mut self, stop: Option<char>) -> Vec<Vec<Element>> {
            let mut branches = vec![Vec::new()];
            loop {
                match self.chars.peek().copied() {
                    None => {
                        if stop.is_some() {
                            self.err("unterminated group");
                        }
                        return branches;
                    }
                    Some(c) if Some(c) == stop => {
                        self.chars.next();
                        return branches;
                    }
                    Some('|') => {
                        self.chars.next();
                        branches.push(Vec::new());
                    }
                    Some(_) => {
                        let e = self.element();
                        branches.last_mut().unwrap().push(e);
                    }
                }
            }
        }

        fn element(&mut self) -> Element {
            let atom = match self.chars.next().unwrap() {
                '.' => Atom::Dot,
                '\\' => match self.chars.next() {
                    Some(c) => Atom::Lit(c),
                    None => self.err("dangling escape"),
                },
                '[' => Atom::Class(self.class()),
                '(' => Atom::Group(self.alternation(Some(')'))),
                c @ (')' | '|' | '?' | '*' | '+' | '{' | '}') => {
                    self.err(&format!("unexpected {c:?}"))
                }
                c => Atom::Lit(c),
            };
            let (min, max) = self.quantifier();
            Element { atom, min, max }
        }

        fn class(&mut self) -> Vec<(char, char)> {
            let mut ranges = Vec::new();
            loop {
                let c = match self.chars.next() {
                    Some(']') => return ranges,
                    Some('\\') => self
                        .chars
                        .next()
                        .unwrap_or_else(|| self.err("dangling escape in class")),
                    Some(c) => c,
                    None => self.err("unterminated class"),
                };
                // `c-d` is a range unless `-` is the final char before `]`.
                if self.chars.peek() == Some(&'-') {
                    let mut ahead = self.chars.clone();
                    ahead.next();
                    if ahead.peek() != Some(&']') {
                        self.chars.next();
                        let end = self
                            .chars
                            .next()
                            .unwrap_or_else(|| self.err("unterminated range"));
                        if end < c {
                            self.err("inverted class range");
                        }
                        ranges.push((c, end));
                        continue;
                    }
                }
                ranges.push((c, c));
            }
        }

        fn quantifier(&mut self) -> (u32, u32) {
            match self.chars.peek().copied() {
                Some('?') => {
                    self.chars.next();
                    (0, 1)
                }
                Some('*') => {
                    self.chars.next();
                    (0, 8)
                }
                Some('+') => {
                    self.chars.next();
                    (1, 8)
                }
                Some('{') => {
                    self.chars.next();
                    let mut min = String::new();
                    let mut max = String::new();
                    let mut in_max = false;
                    loop {
                        match self.chars.next() {
                            Some('}') => break,
                            Some(',') => in_max = true,
                            Some(d) if d.is_ascii_digit() => {
                                if in_max { &mut max } else { &mut min }.push(d)
                            }
                            _ => self.err("malformed {m,n} quantifier"),
                        }
                    }
                    let lo: u32 = min.parse().unwrap_or_else(|_| self.err("bad bound"));
                    let hi: u32 = if !in_max {
                        lo
                    } else if max.is_empty() {
                        lo + 8
                    } else {
                        max.parse().unwrap_or_else(|_| self.err("bad bound"))
                    };
                    if hi < lo {
                        self.err("inverted {m,n} quantifier");
                    }
                    (lo, hi)
                }
                _ => (1, 1),
            }
        }
    }

    // Mostly printable ASCII; occasionally multi-byte to exercise UTF-8
    // handling in interner and TSV round trips.
    const EXOTIC: &[char] = &['é', 'ß', '中', '☃', '🦀'];

    fn sample_seq(seq: &[Element], rng: &mut TestRng, out: &mut String) {
        for e in seq {
            let reps = rng.in_range(e.min as u64, e.max as u64);
            for _ in 0..reps {
                match &e.atom {
                    Atom::Lit(c) => out.push(*c),
                    Atom::Dot => {
                        if rng.chance(1, 16) {
                            out.push(EXOTIC[rng.below(EXOTIC.len() as u64) as usize]);
                        } else {
                            out.push((0x20 + rng.below(0x5F) as u8) as char);
                        }
                    }
                    Atom::Class(ranges) => {
                        let total: u64 = ranges
                            .iter()
                            .map(|&(a, b)| (b as u64) - (a as u64) + 1)
                            .sum();
                        let mut pick = rng.below(total);
                        for &(a, b) in ranges {
                            let span = (b as u64) - (a as u64) + 1;
                            if pick < span {
                                out.push(
                                    char::from_u32(a as u32 + pick as u32)
                                        .expect("class range stays in scalar values"),
                                );
                                break;
                            }
                            pick -= span;
                        }
                    }
                    Atom::Group(branches) => {
                        let b = rng.below(branches.len() as u64) as usize;
                        sample_seq(&branches[b], rng, out);
                    }
                }
            }
        }
    }

    impl Strategy for &'static str {
        type Value = String;

        fn generate(&self, rng: &mut TestRng) -> String {
            let mut p = Parser::new(self);
            let branches = p.alternation(None);
            let mut out = String::new();
            let b = rng.below(branches.len() as u64) as usize;
            sample_seq(&branches[b], rng, &mut out);
            out
        }
    }
}

/// Collection strategies (subset: `vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Number-of-elements specification accepted by [`vec`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy generating `Vec`s of `element`-generated values.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy with the given element strategy and length range.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = rng.in_range(self.size.lo as u64, self.size.hi as u64) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// `Option` strategies (subset: `of`).
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy generating `Option`s of `inner`-generated values.
    pub struct OptionStrategy<S>(S);

    /// `Some` with probability 3/4, `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.chance(1, 4) {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

/// Canonical strategy for `T` (`any::<(u8, u8, u8)>()` etc.).
pub fn any<T: strategy::Arbitrary>() -> strategy::AnyStrategy<T> {
    strategy::AnyStrategy(std::marker::PhantomData)
}

/// Everything the test suites import with `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{Arbitrary, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{any, prop_assert, prop_assert_eq, proptest};
}

/// Fails the current case unless `cond` holds; optional format message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `left == right`\n  left: {:?}\n right: {:?}",
                left, right
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `left == right` ({})\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), left, right
            )));
        }
    }};
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `config.cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Internal expansion of [`proptest!`]; not part of the public surface.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let strategy = ($($strat,)+);
            for case in 0..config.cases {
                let mut rng =
                    $crate::test_runner::TestRng::for_case(stringify!($name), case);
                let ($($arg,)+) =
                    $crate::strategy::Strategy::generate(&strategy, &mut rng);
                let inputs = format!(
                    concat!($(stringify!($arg), " = {:?}; "),+),
                    $(&$arg),+
                );
                let outcome = std::panic::catch_unwind(
                    std::panic::AssertUnwindSafe(
                        move || -> $crate::test_runner::TestCaseResult {
                            $body
                            #[allow(unreachable_code)]
                            Ok(())
                        },
                    ),
                );
                match outcome {
                    Ok(Ok(())) => {}
                    Ok(Err(err)) => panic!(
                        "proptest case {case} failed: {err}\n  inputs: {inputs}"
                    ),
                    Err(payload) => panic!(
                        "proptest case {case} panicked: {}\n  inputs: {inputs}",
                        $crate::test_runner::panic_message(payload.as_ref())
                    ),
                }
            }
        }
        $crate::__proptest_impl!(($cfg) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn pattern_strategies_match_their_shapes() {
        let mut rng = TestRng::for_case("pattern_shapes", 0);
        for case in 0..500u32 {
            let mut rng2 = TestRng::for_case("pattern_shapes", case);
            let s = Strategy::generate(&"[a-z]{1,5}", &mut rng2);
            assert!((1..=5).contains(&s.chars().count()), "{s:?}");
            assert!(s.chars().all(|c| c.is_ascii_lowercase()), "{s:?}");

            let host = Strategy::generate(&"[a-z]{1,8}(\\.[a-z]{2,3})?", &mut rng);
            let parts: Vec<&str> = host.split('.').collect();
            assert!(parts.len() <= 2, "{host:?}");
            assert!((1..=8).contains(&parts[0].len()), "{host:?}");
            if parts.len() == 2 {
                assert!((2..=3).contains(&parts[1].len()), "{host:?}");
            }

            let free = Strategy::generate(&".{0,24}", &mut rng);
            assert!(free.chars().count() <= 24);

            let printable = Strategy::generate(&"[ -~]{1,12}", &mut rng);
            assert!((1..=12).contains(&printable.len()));
            assert!(printable.bytes().all(|b| (0x20..=0x7E).contains(&b)));

            let ident = Strategy::generate(&"[a-z0-9_-]{1,6}", &mut rng);
            assert!(ident
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-'));
        }
    }

    #[test]
    fn vec_and_option_strategies_respect_bounds() {
        let mut rng = TestRng::for_case("vec_bounds", 0);
        let vs = crate::collection::vec(0u8..3, 0..60);
        let fixed = crate::collection::vec(crate::option::of(0u8..3), 4);
        let mut saw_none = false;
        for _ in 0..300 {
            let v = Strategy::generate(&vs, &mut rng);
            assert!(v.len() < 60);
            assert!(v.iter().all(|&x| x < 3));
            let f = Strategy::generate(&fixed, &mut rng);
            assert_eq!(f.len(), 4);
            saw_none |= f.iter().any(|o| o.is_none());
        }
        assert!(saw_none, "option::of never produced None in 300 draws");
    }

    #[test]
    fn any_tuples_and_ranges_generate() {
        let mut rng = TestRng::for_case("any_tuples", 0);
        let t = Strategy::generate(&any::<(u8, u8, u8, bool)>(), &mut rng);
        let _: (u8, u8, u8, bool) = t;
        let q = Strategy::generate(&(0u8..8), &mut rng);
        assert!(q < 8);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: multiple args, trailing comma, doc attr.
        fn macro_end_to_end(
            xs in crate::collection::vec(any::<(u8, u8)>(), 0..20),
            k in 0u8..5,
        ) {
            prop_assert!(xs.len() < 20);
            prop_assert_eq!(k as usize + xs.len(), xs.len() + k as usize);
            for (a, _b) in &xs {
                prop_assert!(*a as u32 <= 255, "a = {}", a);
            }
        }
    }
}
