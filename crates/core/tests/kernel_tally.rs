//! Every block kernel tallies its calls and words into its own
//! `kernel.<op>.{calls,words}` pair, exactly, in a test binary of its own
//! with a single test, so that nothing else adds to the counters.

use midas_core::extent::kernels;
use midas_core::telemetry;

const OPS: [&str; 8] = [
    "and_into",
    "or_into",
    "andnot_into",
    "and_assign",
    "or_assign",
    "count",
    "is_subset",
    "union_into",
];

/// `(calls, words)` of every kernel, in [`OPS`] order.
fn tallies() -> Vec<(u64, u64)> {
    let snap = telemetry::snapshot();
    OPS.iter()
        .map(|op| {
            (
                snap.counter(&format!("kernel.{op}.calls")),
                snap.counter(&format!("kernel.{op}.words")),
            )
        })
        .collect()
}

/// Runs `f` and asserts it moved only kernel `op`'s pair, by `calls` and
/// `words`.
fn assert_tallied(op: &str, calls: u64, words: u64, f: impl FnOnce()) {
    let before = tallies();
    f();
    let after = tallies();
    for (i, name) in OPS.iter().enumerate() {
        let moved = (after[i].0 - before[i].0, after[i].1 - before[i].1);
        let want = if *name == op { (calls, words) } else { (0, 0) };
        assert_eq!(moved, want, "kernel.{name} after calling {op}");
    }
}

#[test]
fn each_kernel_tallies_its_own_calls_and_words() {
    telemetry::enable();
    let a = vec![0x00ff_00ff_00ff_00ffu64; 13];
    let b = vec![0x0f0f_0f0f_0f0f_0f0fu64; 13];
    let mut out = vec![0u64; 13];

    assert_tallied("and_into", 1, 13, || {
        kernels::and_into(&mut out, &a, &b);
    });
    assert_tallied("or_into", 2, 26, || {
        kernels::or_into(&mut out, &a, &b);
        kernels::or_into(&mut out, &a, &b);
    });
    assert_tallied("andnot_into", 1, 5, || {
        kernels::andnot_into(&mut out[..5], &a[..5], &b[..5]);
    });
    assert_tallied("and_assign", 1, 13, || {
        kernels::and_assign(&mut out, &a);
    });
    assert_tallied("or_assign", 1, 4, || {
        kernels::or_assign(&mut out[..4], &b[..4]);
    });
    assert_tallied("count", 3, 13 + 1, || {
        kernels::count(&a);
        kernels::count(&a[..1]);
        kernels::count(&[]);
    });
    assert_tallied("is_subset", 1, 13, || {
        kernels::is_subset(&a, &b);
    });
    // A union is tallied by the words it reads: every source's, or the
    // accumulator's once when there is no source.
    assert_tallied("union_into", 2, 3 * 13 + 13, || {
        kernels::union_into(&mut out, &[&a, &b, &a]);
        kernels::union_into(&mut out, &[]);
    });
}
