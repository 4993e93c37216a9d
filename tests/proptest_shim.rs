//! Contract of the in-repo `proptest` shim that every property test in the
//! workspace runs on: deterministic per-case inputs, the strategies' ranges
//! and shapes, failure messages, and a `proptest!` macro that runs each
//! property's configured cases once per call and passes the property's own
//! attributes through without adding a `#[test]` of its own. The shim is not
//! a default workspace member, so its contract is checked here, where a
//! bare `cargo test` runs it.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

#[test]
fn rng_streams_are_deterministic_per_name_and_case() {
    let draw = |name: &str, case: u32| {
        let mut rng = TestRng::for_case(name, case);
        (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
    };
    assert_eq!(draw("alpha", 3), draw("alpha", 3));
    assert_ne!(draw("alpha", 3), draw("alpha", 4), "cases differ");
    assert_ne!(draw("alpha", 3), draw("alphb", 3), "names differ");
    let stream = draw("alpha", 0);
    let distinct: BTreeSet<_> = stream.iter().collect();
    assert_eq!(distinct.len(), stream.len(), "no repeats in a stream");
}

#[test]
fn below_in_range_and_chance_respect_their_bounds() {
    let mut rng = TestRng::for_case("bounds", 0);
    let mut seen = [false; 5];
    for _ in 0..2_000 {
        assert_eq!(rng.below(1), 0);
        assert_eq!(rng.in_range(7, 7), 7);
        let v = rng.in_range(10, 14);
        assert!((10..=14).contains(&v), "{v}");
        seen[(v - 10) as usize] = true;
        assert!(rng.below(u64::MAX) < u64::MAX);
        assert!(!rng.chance(0, 5));
        assert!(rng.chance(5, 5));
    }
    assert!(seen.iter().all(|&s| s), "both ends reached: {seen:?}");
}

#[test]
fn int_range_strategies_cover_exactly_the_half_open_range() {
    let mut rng = TestRng::for_case("int_ranges", 0);
    let mut hits = [0u32; 4];
    for _ in 0..1_000 {
        hits[Strategy::generate(&(0u8..4), &mut rng) as usize] += 1;
        let top = Strategy::generate(&((u64::MAX - 3)..u64::MAX), &mut rng);
        assert!((u64::MAX - 3..u64::MAX).contains(&top), "{top}");
        assert_eq!(Strategy::generate(&(9usize..10), &mut rng), 9);
    }
    assert!(hits.iter().all(|&h| h > 150), "roughly uniform: {hits:?}");
}

#[test]
#[should_panic(expected = "empty range strategy")]
fn empty_int_range_strategy_panics() {
    let mut rng = TestRng::for_case("empty_range", 0);
    #[allow(clippy::reversed_empty_ranges)]
    let empty = 5u32..5;
    Strategy::generate(&empty, &mut rng);
}

#[test]
fn vec_sizes_accept_exact_half_open_and_inclusive_lengths() {
    let mut rng = TestRng::for_case("vec_sizes", 0);
    let exact = proptest::collection::vec(Just(1u8), 3);
    let inclusive = proptest::collection::vec(Just(1u8), 2..=4);
    let half_open = proptest::collection::vec(Just(1u8), 2..4);
    let mut inclusive_lens = BTreeSet::new();
    let mut half_open_lens = BTreeSet::new();
    for _ in 0..300 {
        assert_eq!(Strategy::generate(&exact, &mut rng), vec![1, 1, 1]);
        inclusive_lens.insert(Strategy::generate(&inclusive, &mut rng).len());
        half_open_lens.insert(Strategy::generate(&half_open, &mut rng).len());
    }
    assert_eq!(inclusive_lens.into_iter().collect::<Vec<_>>(), [2, 3, 4]);
    assert_eq!(half_open_lens.into_iter().collect::<Vec<_>>(), [2, 3]);
}

#[test]
fn just_map_and_flat_map_compose() {
    let mut rng = TestRng::for_case("compose", 0);
    assert_eq!(Strategy::generate(&Just("k"), &mut rng), "k");
    let doubled = (0u32..50).prop_map(|x| x * 2);
    // The inner length depends on the outer draw.
    let dependent = (1usize..6).prop_flat_map(|n| proptest::collection::vec(Just(n), n));
    for _ in 0..200 {
        assert_eq!(Strategy::generate(&doubled, &mut rng) % 2, 0);
        let v = Strategy::generate(&dependent, &mut rng);
        assert!((1..6).contains(&v.len()));
        assert!(v.iter().all(|&x| x == v.len()), "{v:?}");
    }
}

#[test]
fn option_of_yields_some_three_times_in_four() {
    let mut rng = TestRng::for_case("option_rate", 0);
    let strat = proptest::option::of(Just(()));
    let somes = (0..4_000)
        .filter(|_| Strategy::generate(&strat, &mut rng).is_some())
        .count();
    assert!((2_800..=3_200).contains(&somes), "{somes} of 4000");
}

#[test]
fn any_bools_and_signed_ints_take_every_sign() {
    let mut rng = TestRng::for_case("any_signs", 0);
    let (mut t, mut f, mut neg, mut pos) = (false, false, false, false);
    for _ in 0..200 {
        let b = Strategy::generate(&any::<bool>(), &mut rng);
        t |= b;
        f |= !b;
        let x = Strategy::generate(&any::<i32>(), &mut rng);
        neg |= x < 0;
        pos |= x > 0;
    }
    assert!(t && f && neg && pos, "{t} {f} {neg} {pos}");
}

#[test]
fn pattern_alternation_escapes_and_open_quantifiers() {
    let mut rng = TestRng::for_case("pattern_ops", 0);
    let mut branches = BTreeSet::new();
    for _ in 0..300 {
        branches.insert(Strategy::generate(&"(ab|cd)", &mut rng));
        assert_eq!(Strategy::generate(&"\\.x\\(", &mut rng), ".x(");
        let star = Strategy::generate(&"a*", &mut rng);
        assert!(
            star.len() <= 8 && star.chars().all(|c| c == 'a'),
            "{star:?}"
        );
        let plus = Strategy::generate(&"b+", &mut rng);
        assert!((1..=8).contains(&plus.len()), "{plus:?}");
        let open = Strategy::generate(&"c{2,}", &mut rng);
        assert!((2..=10).contains(&open.len()), "{open:?}");
        let opt = Strategy::generate(&"d?e", &mut rng);
        assert!(opt == "e" || opt == "de", "{opt:?}");
        // A `-` just before `]` is a literal, not a range.
        let dash = Strategy::generate(&"[a-]", &mut rng);
        assert!(dash == "a" || dash == "-", "{dash:?}");
    }
    assert_eq!(branches.into_iter().collect::<Vec<_>>(), ["ab", "cd"]);
}

#[test]
fn dot_draws_printable_ascii_and_some_multibyte_chars() {
    let mut rng = TestRng::for_case("dot", 0);
    let mut multibyte = 0;
    for _ in 0..2_000 {
        let c = Strategy::generate(&".", &mut rng);
        assert_eq!(c.chars().count(), 1, "{c:?}");
        let ch = c.chars().next().unwrap();
        if ch.is_ascii() {
            assert!((' '..='~').contains(&ch), "{ch:?}");
        } else {
            multibyte += 1;
        }
    }
    assert!(
        (60..=200).contains(&multibyte),
        "about 1 in 16: {multibyte}"
    );
}

#[test]
fn unsupported_patterns_panic_naming_the_pattern() {
    for (pattern, why) in [
        ("[z-a]", "inverted class range"),
        ("(ab", "unterminated group"),
        ("[ab", "unterminated class"),
        ("a{3,1}", "inverted {m,n} quantifier"),
        ("a{x}", "malformed {m,n} quantifier"),
        ("*a", "unexpected '*'"),
        ("ab\\", "dangling escape"),
    ] {
        let payload = std::panic::catch_unwind(|| {
            let mut rng = TestRng::for_case("bad_pattern", 0);
            Strategy::generate(&pattern, &mut rng)
        })
        .expect_err(pattern);
        let msg = proptest::test_runner::panic_message(payload.as_ref());
        assert!(
            msg.contains(&format!("{pattern:?}")) && msg.contains(why),
            "{pattern}: {msg}"
        );
    }
}

#[test]
fn panic_message_reads_str_and_string_payloads() {
    use proptest::test_runner::panic_message;
    let s: Box<dyn std::any::Any + Send> = Box::new("static");
    let owned: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
    let other: Box<dyn std::any::Any + Send> = Box::new(7u8);
    assert_eq!(panic_message(s.as_ref()), "static");
    assert_eq!(panic_message(owned.as_ref()), "owned");
    assert_eq!(panic_message(other.as_ref()), "<non-string panic payload>");
}

#[test]
fn prop_assert_macros_report_their_messages() {
    fn plain(x: u32) -> TestCaseResult {
        prop_assert!(x < 3);
        Ok(())
    }
    fn formatted(x: u32) -> TestCaseResult {
        prop_assert!(x < 3, "x = {} too big", x);
        Ok(())
    }
    fn equal(x: u32) -> TestCaseResult {
        prop_assert_eq!(x, 1u32);
        Ok(())
    }
    fn equal_with_context(x: u32) -> TestCaseResult {
        prop_assert_eq!(x, 1u32, "at step {}", 9);
        Ok(())
    }
    assert!(plain(2).is_ok() && equal(1).is_ok() && equal_with_context(1).is_ok());
    assert_eq!(plain(5).unwrap_err().to_string(), "assertion failed: x < 3");
    assert_eq!(formatted(5).unwrap_err().to_string(), "x = 5 too big");
    assert_eq!(
        equal(4).unwrap_err().to_string(),
        "assertion failed: `left == right`\n  left: 4\n right: 1"
    );
    assert_eq!(
        equal_with_context(4).unwrap_err().to_string(),
        "assertion failed: `left == right` (at step 9)\n  left: 4\n right: 1"
    );
}

static CONFIGURED_CASES: AtomicU32 = AtomicU32::new(0);
static DEFAULT_CASES: AtomicU32 = AtomicU32::new(0);
static REPLAYED: Mutex<Vec<(u32, String)>> = Mutex::new(Vec::new());

// Properties declared without `#[test]`: the macro adds no attribute of
// its own, so these are plain functions that the tests below call.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(7))]

    fn counts_configured_cases(_x in 0u8..2) {
        CONFIGURED_CASES.fetch_add(1, Ordering::SeqCst);
    }

    fn records_inputs(x in 0u32..1_000_000, s in "[a-z]{1,4}") {
        REPLAYED.lock().unwrap().push((x, s));
    }

    fn fails_at_case_three(x in 0u8..1) {
        let case = CONFIGURED_CASES.load(Ordering::SeqCst);
        prop_assert!(case != 3, "x = {} at the fourth case", x);
        CONFIGURED_CASES.fetch_add(1, Ordering::SeqCst);
    }

    fn panics_in_its_body(_x in Just(42u8)) {
        panic!("boom from the body");
    }
}

proptest! {
    fn counts_default_cases(_x in any::<bool>()) {
        DEFAULT_CASES.fetch_add(1, Ordering::SeqCst);
    }
}

/// Serialises the tests that share `CONFIGURED_CASES`.
static CASE_COUNTER: Mutex<()> = Mutex::new(());

#[test]
fn a_property_runs_its_configured_number_of_cases_once_per_call() {
    let _lock = CASE_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    CONFIGURED_CASES.store(0, Ordering::SeqCst);
    counts_configured_cases();
    assert_eq!(CONFIGURED_CASES.load(Ordering::SeqCst), 7);
    counts_default_cases();
    assert_eq!(DEFAULT_CASES.load(Ordering::SeqCst), 256);
}

#[test]
fn every_call_replays_the_inputs_of_the_per_case_rng() {
    records_inputs();
    records_inputs();
    let seen = std::mem::take(&mut *REPLAYED.lock().unwrap());
    let expected: Vec<(u32, String)> = (0..7)
        .map(|case| {
            let mut rng = TestRng::for_case("records_inputs", case);
            Strategy::generate(&(0u32..1_000_000, "[a-z]{1,4}"), &mut rng)
        })
        .collect();
    assert_eq!(seen[..7], expected[..]);
    assert_eq!(seen[7..], expected[..]);
}

#[test]
fn a_failing_case_panics_with_its_index_and_inputs() {
    let _lock = CASE_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    CONFIGURED_CASES.store(0, Ordering::SeqCst);
    let payload = std::panic::catch_unwind(fails_at_case_three).unwrap_err();
    let msg = proptest::test_runner::panic_message(payload.as_ref());
    assert_eq!(
        msg,
        "proptest case 3 failed: x = 0 at the fourth case\n  inputs: x = 0; "
    );
    assert_eq!(CONFIGURED_CASES.load(Ordering::SeqCst), 3);
}

#[test]
fn a_panicking_body_reports_the_payload_and_inputs() {
    let payload = std::panic::catch_unwind(panics_in_its_body).unwrap_err();
    let msg = proptest::test_runner::panic_message(payload.as_ref());
    assert_eq!(
        msg,
        "proptest case 0 panicked: boom from the body\n  inputs: _x = 42; "
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The property's own attributes reach the test harness unchanged.
    #[test]
    #[should_panic(expected = "proptest case 0 failed")]
    fn own_attributes_pass_through(x in 0u8..1) {
        prop_assert_eq!(x, 1u8);
    }
}
