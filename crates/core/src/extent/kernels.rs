//! Block kernels for the dense extent path.
//!
//! Every dense-bitmap loop in the engine — intersection, union, subset
//! probes, popcounts, and the batched multi-way union — funnels through
//! the free functions in this module. There is one implementation: 4×`u64`
//! unrolled loops over `chunks_exact(4)` plus a scalar remainder. The
//! fixed-width chunks give the compiler straight-line bodies it can keep
//! in registers and auto-vectorise, which the iterator-chained forms do
//! not reliably achieve.
//!
//! There is no hand-written SIMD path because the blocks are tiny: an
//! extent is evaluated within one source, and a source holds few
//! entities. Traced benchmark passes average about one word per call on
//! the kvault and nell corpora and under five on the dense lattice, so a
//! wider kernel has nothing to widen (DESIGN.md, "Block kernels").
//!
//! Each entry point tallies its call and word volume into the
//! `kernel.<op>.{calls,words}` counters; `tests/kernel_differential.rs`
//! checks every one against a word-loop reference.

/// Telemetry for the kernel layer: call and word volumes per entry point.
/// The entry points tally through [`tally`] — one enabled check, then a
/// thread-local batch bump — so the disabled path costs a single
/// predictable branch per kernel call.
mod metrics {
    crate::counter!(pub AND_INTO_CALLS, "kernel.and_into.calls");
    crate::counter!(pub AND_INTO_WORDS, "kernel.and_into.words");
    crate::counter!(pub OR_INTO_CALLS, "kernel.or_into.calls");
    crate::counter!(pub OR_INTO_WORDS, "kernel.or_into.words");
    crate::counter!(pub ANDNOT_INTO_CALLS, "kernel.andnot_into.calls");
    crate::counter!(pub ANDNOT_INTO_WORDS, "kernel.andnot_into.words");
    crate::counter!(pub AND_ASSIGN_CALLS, "kernel.and_assign.calls");
    crate::counter!(pub AND_ASSIGN_WORDS, "kernel.and_assign.words");
    crate::counter!(pub OR_ASSIGN_CALLS, "kernel.or_assign.calls");
    crate::counter!(pub OR_ASSIGN_WORDS, "kernel.or_assign.words");
    crate::counter!(pub COUNT_CALLS, "kernel.count.calls");
    crate::counter!(pub COUNT_WORDS, "kernel.count.words");
    crate::counter!(pub IS_SUBSET_CALLS, "kernel.is_subset.calls");
    crate::counter!(pub IS_SUBSET_WORDS, "kernel.is_subset.words");
    crate::counter!(pub UNION_INTO_CALLS, "kernel.union_into.calls");
    crate::counter!(pub UNION_INTO_WORDS, "kernel.union_into.words");
}

/// Row indices into the thread-local kernel tally, one per public op.
const OP_AND_INTO: usize = 0;
const OP_OR_INTO: usize = 1;
const OP_ANDNOT_INTO: usize = 2;
const OP_AND_ASSIGN: usize = 3;
const OP_OR_ASSIGN: usize = 4;
const OP_COUNT: usize = 5;
const OP_IS_SUBSET: usize = 6;
const OP_UNION_INTO: usize = 7;
const NUM_OPS: usize = 8;

/// The shared counters behind the tally: row `2·op` counts the calls of
/// `op`, row `2·op + 1` the words it touched.
static OP_SINKS: [&crate::telemetry::Counter; 2 * NUM_OPS] = [
    &metrics::AND_INTO_CALLS,
    &metrics::AND_INTO_WORDS,
    &metrics::OR_INTO_CALLS,
    &metrics::OR_INTO_WORDS,
    &metrics::ANDNOT_INTO_CALLS,
    &metrics::ANDNOT_INTO_WORDS,
    &metrics::AND_ASSIGN_CALLS,
    &metrics::AND_ASSIGN_WORDS,
    &metrics::OR_ASSIGN_CALLS,
    &metrics::OR_ASSIGN_WORDS,
    &metrics::COUNT_CALLS,
    &metrics::COUNT_WORDS,
    &metrics::IS_SUBSET_CALLS,
    &metrics::IS_SUBSET_WORDS,
    &metrics::UNION_INTO_CALLS,
    &metrics::UNION_INTO_WORDS,
];

// Kernel calls are the innermost hot path (often one cache line of work),
// so paying two atomic RMWs per call costs double-digit percent on small
// extents. Batching into a thread-local tally keeps the enabled path at a
// TLS bump and amortises the atomics to noise.
thread_local! {
    static TALLY: crate::telemetry::LocalTally<{ 2 * NUM_OPS }> =
        crate::telemetry::LocalTally::new(&OP_SINKS);
}

/// Drains this thread's batched kernel counts (run by
/// [`crate::telemetry::snapshot`]).
pub(crate) fn flush_tally() {
    let _ = TALLY.try_with(|t| t.flush());
}

#[inline]
fn tally(op: usize, n: usize) {
    if crate::telemetry::enabled() {
        tally_enabled(op, n);
    }
}

#[cold]
#[inline(never)]
fn tally_enabled(op: usize, n: usize) {
    let _ = TALLY.try_with(|t| {
        t.add(2 * op, 1);
        t.add(2 * op + 1, n as u64);
        t.end_event();
    });
}

/// `out[i] = op(a[i], b[i])` in 4-word groups plus a remainder; returns
/// the popcount of `out`.
#[inline]
fn zip_into(out: &mut [u64], a: &[u64], b: &[u64], op: impl Fn(u64, u64) -> u64) -> u32 {
    let mut count = 0u32;
    let mut co = out.chunks_exact_mut(4);
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for ((o, x), y) in (&mut co).zip(&mut ca).zip(&mut cb) {
        let w0 = op(x[0], y[0]);
        let w1 = op(x[1], y[1]);
        let w2 = op(x[2], y[2]);
        let w3 = op(x[3], y[3]);
        o[0] = w0;
        o[1] = w1;
        o[2] = w2;
        o[3] = w3;
        count += w0.count_ones() + w1.count_ones() + w2.count_ones() + w3.count_ones();
    }
    for ((o, x), y) in co
        .into_remainder()
        .iter_mut()
        .zip(ca.remainder())
        .zip(cb.remainder())
    {
        let w = op(*x, *y);
        *o = w;
        count += w.count_ones();
    }
    count
}

/// `a[i] = op(a[i], b[i])` in place, grouped like [`zip_into`]; returns
/// the popcount of `a`.
#[inline]
fn zip_assign(a: &mut [u64], b: &[u64], op: impl Fn(u64, u64) -> u64) -> u32 {
    let mut count = 0u32;
    let mut ca = a.chunks_exact_mut(4);
    let mut cb = b.chunks_exact(4);
    for (x, y) in (&mut ca).zip(&mut cb) {
        let w0 = op(x[0], y[0]);
        let w1 = op(x[1], y[1]);
        let w2 = op(x[2], y[2]);
        let w3 = op(x[3], y[3]);
        x[0] = w0;
        x[1] = w1;
        x[2] = w2;
        x[3] = w3;
        count += w0.count_ones() + w1.count_ones() + w2.count_ones() + w3.count_ones();
    }
    for (x, y) in ca.into_remainder().iter_mut().zip(cb.remainder()) {
        *x = op(*x, *y);
        count += x.count_ones();
    }
    count
}

/// `out = a & b`; returns the popcount of the result.
#[inline]
pub fn and_into(out: &mut [u64], a: &[u64], b: &[u64]) -> u32 {
    debug_assert!(out.len() == a.len() && a.len() == b.len());
    tally(OP_AND_INTO, out.len());
    zip_into(out, a, b, |x, y| x & y)
}

/// `out = a | b`; returns the popcount of the result.
#[inline]
pub fn or_into(out: &mut [u64], a: &[u64], b: &[u64]) -> u32 {
    debug_assert!(out.len() == a.len() && a.len() == b.len());
    tally(OP_OR_INTO, out.len());
    zip_into(out, a, b, |x, y| x | y)
}

/// `out = a & !b`; returns the popcount of the result.
#[inline]
pub fn andnot_into(out: &mut [u64], a: &[u64], b: &[u64]) -> u32 {
    debug_assert!(out.len() == a.len() && a.len() == b.len());
    tally(OP_ANDNOT_INTO, out.len());
    zip_into(out, a, b, |x, y| x & !y)
}

/// `a &= b` in place; returns the popcount of the result.
#[inline]
pub fn and_assign(a: &mut [u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    tally(OP_AND_ASSIGN, a.len());
    zip_assign(a, b, |x, y| x & y)
}

/// `a |= b` in place; returns the popcount of the result.
#[inline]
pub fn or_assign(a: &mut [u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    tally(OP_OR_ASSIGN, a.len());
    zip_assign(a, b, |x, y| x | y)
}

/// Popcount over all blocks.
#[inline]
pub fn count(blocks: &[u64]) -> u32 {
    tally(OP_COUNT, blocks.len());
    let mut c = 0u32;
    let chunks = blocks.chunks_exact(4);
    let rem = chunks.remainder();
    for w in chunks {
        c += w[0].count_ones() + w[1].count_ones() + w[2].count_ones() + w[3].count_ones();
    }
    for w in rem {
        c += w.count_ones();
    }
    c
}

/// Whether every set bit of `a` is also set in `b`.
#[inline]
pub fn is_subset(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    tally(OP_IS_SUBSET, a.len());
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (x, y) in ca.zip(cb) {
        let stray = (x[0] & !y[0]) | (x[1] & !y[1]) | (x[2] & !y[2]) | (x[3] & !y[3]);
        if stray != 0 {
            return false;
        }
    }
    ra.iter().zip(rb).all(|(x, y)| x & !y == 0)
}

/// `acc |= src` for every source in one pass; returns the popcount of
/// the final `acc`. All sources are read once per 4-word group so the
/// accumulator words stay in registers across the whole group.
#[inline]
pub fn union_into(acc: &mut [u64], srcs: &[&[u64]]) -> u32 {
    for s in srcs {
        debug_assert_eq!(s.len(), acc.len());
    }
    tally(OP_UNION_INTO, acc.len() * srcs.len().max(1));
    let n = acc.len();
    let mut count = 0u32;
    let mut i = 0usize;
    while i + 4 <= n {
        let mut w0 = acc[i];
        let mut w1 = acc[i + 1];
        let mut w2 = acc[i + 2];
        let mut w3 = acc[i + 3];
        for s in srcs {
            w0 |= s[i];
            w1 |= s[i + 1];
            w2 |= s[i + 2];
            w3 |= s[i + 3];
        }
        acc[i] = w0;
        acc[i + 1] = w1;
        acc[i + 2] = w2;
        acc[i + 3] = w3;
        count += w0.count_ones() + w1.count_ones() + w2.count_ones() + w3.count_ones();
        i += 4;
    }
    while i < n {
        let mut w = acc[i];
        for s in srcs {
            w |= s[i];
        }
        acc[i] = w;
        count += w.count_ones();
        i += 1;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* blocks; seeds spread patterns across
    /// dense, sparse, empty and all-ones words.
    fn blocks(seed: u64, len: usize) -> Vec<u64> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                match i % 7 {
                    0 => 0,
                    1 => u64::MAX,
                    _ => s.wrapping_mul(0x2545_f491_4f6c_dd1d),
                }
            })
            .collect()
    }

    fn ref_count(blocks: &[u64]) -> u32 {
        blocks.iter().map(|w| w.count_ones()).sum()
    }

    /// Exercises every entry point against a straight-line reference at
    /// the given length (covers 4-word groups, remainder tails, and the
    /// empty slice).
    fn check_at(len: usize) {
        let a = blocks(len as u64 + 1, len);
        let b = blocks(len as u64 + 1000, len);
        let c = blocks(len as u64 + 2000, len);

        let want_and: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & y).collect();
        let mut out = vec![0u64; len];
        assert_eq!(and_into(&mut out, &a, &b), ref_count(&want_and));
        assert_eq!(out, want_and, "and_into blocks");

        let want_or: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x | y).collect();
        let mut out = vec![0u64; len];
        assert_eq!(or_into(&mut out, &a, &b), ref_count(&want_or));
        assert_eq!(out, want_or, "or_into blocks");

        let want_andnot: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & !y).collect();
        let mut out = vec![0u64; len];
        assert_eq!(andnot_into(&mut out, &a, &b), ref_count(&want_andnot));
        assert_eq!(out, want_andnot, "andnot_into blocks");

        let mut acc = a.clone();
        assert_eq!(and_assign(&mut acc, &b), ref_count(&want_and));
        assert_eq!(acc, want_and, "and_assign blocks");

        let mut acc = a.clone();
        assert_eq!(or_assign(&mut acc, &b), ref_count(&want_or));
        assert_eq!(acc, want_or, "or_assign blocks");

        assert_eq!(count(&a), ref_count(&a), "count");

        assert!(is_subset(&want_and, &a), "and ⊆ a");
        assert!(is_subset(&want_and, &b), "and ⊆ b");
        if ref_count(&want_andnot) > 0 {
            assert!(!is_subset(&a, &b), "a ⊄ b");
        }

        let mut acc = a.clone();
        let srcs: Vec<&[u64]> = vec![&b, &c, &want_and];
        let want_union: Vec<u64> = (0..len).map(|i| a[i] | b[i] | c[i]).collect();
        assert_eq!(union_into(&mut acc, &srcs), ref_count(&want_union));
        assert_eq!(acc, want_union, "union_into blocks");
        // Zero sources: a pure popcount of the untouched accumulator.
        let mut acc = a.clone();
        assert_eq!(union_into(&mut acc, &[]), ref_count(&a));
        assert_eq!(acc, a, "union_into with no sources");
    }

    #[test]
    fn scalar_kernels_match_reference_across_widths() {
        for len in [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 31, 64, 100] {
            check_at(len);
        }
    }

    /// The popcount each kernel returns is the popcount of what it wrote,
    /// and the in-place forms write what their `*_into` forms do.
    #[test]
    fn returned_popcounts_agree_with_count() {
        for len in [1, 4, 29, 64] {
            let a = blocks(7, len);
            let b = blocks(11, len);
            let mut and = vec![0u64; len];
            let n = and_into(&mut and, &a, &b);
            assert_eq!(n, count(&and), "and_into len {len}");
            let mut aa = a.clone();
            assert_eq!(and_assign(&mut aa, &b), n, "and_assign len {len}");
            assert_eq!(aa, and, "and_assign blocks len {len}");

            let mut or = vec![0u64; len];
            let n = or_into(&mut or, &a, &b);
            assert_eq!(n, count(&or), "or_into len {len}");
            let mut oa = a.clone();
            assert_eq!(or_assign(&mut oa, &b), n, "or_assign len {len}");
            assert_eq!(oa, or, "or_assign blocks len {len}");

            let mut an = vec![0u64; len];
            assert_eq!(
                andnot_into(&mut an, &a, &b),
                count(&an),
                "andnot_into len {len}"
            );

            let mut u = vec![0u64; len];
            assert_eq!(
                union_into(&mut u, &[&a, &b]),
                count(&u),
                "union_into len {len}"
            );
            assert_eq!(u, or, "two-way union is or len {len}");
        }
    }

    /// The `*_into` kernels overwrite every output word: stale contents of
    /// `out`, here all ones, never leak into the result or its popcount.
    #[test]
    fn into_kernels_overwrite_stale_output() {
        for len in [0, 1, 3, 4, 5, 8, 13] {
            let a = blocks(3, len);
            let b = blocks(5, len);
            type IntoKernel = fn(&mut [u64], &[u64], &[u64]) -> u32;
            type WordOp = fn(u64, u64) -> u64;
            let ops: [(&str, IntoKernel, WordOp); 3] = [
                ("and_into", and_into, |x, y| x & y),
                ("or_into", or_into, |x, y| x | y),
                ("andnot_into", andnot_into, |x, y| x & !y),
            ];
            for (name, op, word) in ops {
                let want: Vec<u64> = a.iter().zip(&b).map(|(x, y)| word(*x, *y)).collect();
                let mut out = vec![u64::MAX; len];
                assert_eq!(op(&mut out, &a, &b), ref_count(&want), "{name} len {len}");
                assert_eq!(out, want, "{name} blocks len {len}");
            }
        }
    }

    /// `is_subset` sees a single stray bit wherever it sits: in any word of
    /// a 4-word group or of the remainder tail, at either end of the word.
    #[test]
    fn is_subset_catches_a_stray_bit_at_every_position() {
        for len in 1..=13usize {
            for word in 0..len {
                for bit in [0u32, 31, 63] {
                    let mut a = vec![0u64; len];
                    a[word] = 1u64 << bit;
                    let mut b = vec![u64::MAX; len];
                    assert!(is_subset(&a, &b), "len {len} word {word} bit {bit}");
                    b[word] &= !(1u64 << bit);
                    assert!(!is_subset(&a, &b), "len {len} word {word} bit {bit}");
                }
            }
        }
    }
}
