//! Runtime-dispatched block kernels for the dense extent path.
//!
//! Every dense-bitmap loop in the engine — intersection, union, subset
//! probes, popcounts, and the batched multi-way union — funnels through
//! the free functions in this module. Each forwards through a per-process
//! [`KernelOps`] table selected exactly once (a `OnceLock`): the portable
//! 4×`u64` unrolled scalar kernels everywhere, or AVX2 implementations
//! (`std::arch` intrinsics behind `is_x86_feature_detected!`) when the
//! host supports them.
//!
//! Selection honours the `MIDAS_KERNEL` environment variable:
//!
//! * `auto` (or unset) — AVX2 when detected, scalar otherwise;
//! * `scalar` — force the portable kernels (used by the differential
//!   suites and the `check.sh` kernel lane);
//! * `avx2` — force AVX2, panicking if the host lacks it (so a CI lane
//!   that believes it runs on AVX2 hardware fails loudly instead of
//!   silently benchmarking scalar code).
//!
//! **Bit-identity contract:** every implementation of an entry point must
//! return exactly the same bytes and counts as the scalar kernel for the
//! same inputs. The SIMD kernels only reassociate popcount additions over
//! `u64` lane counts, which is exact; there is no floating point anywhere
//! in this layer. `tests/kernel_differential.rs` enforces the contract on
//! randomized inputs, and the streaming/incremental equivalence suites
//! re-run end-to-end under `MIDAS_KERNEL=scalar` to pin report
//! byte-identity.
//!
//! **Safety argument** for the AVX2 path: the intrinsics bodies are
//! `#[target_feature(enable = "avx2")] unsafe fn`s, sound only on hosts
//! with AVX2. They are reachable solely through the safe shims in
//! `avx2_entry`, which are referenced solely by the `AVX2` ops table,
//! which is handed out solely by [`avx2_ops`] — and `avx2_ops` returns
//! `Some` only after `is_x86_feature_detected!("avx2")` confirms the
//! host executes every instruction the bodies use. No other path reaches
//! the `unsafe` code, so the detection check is the single gate.

use std::sync::OnceLock;

/// A resolved kernel implementation: one function pointer per dense-block
/// entry point. Tables are `'static` and selected once per process; see
/// [`active`].
pub struct KernelOps {
    /// Implementation name as reported by diagnostics and benches
    /// (`"scalar"` or `"avx2"`).
    pub name: &'static str,
    /// `out = a & b`; returns the popcount of the result.
    pub and_into: fn(&mut [u64], &[u64], &[u64]) -> u32,
    /// `out = a | b`; returns the popcount of the result.
    pub or_into: fn(&mut [u64], &[u64], &[u64]) -> u32,
    /// `out = a & !b`; returns the popcount of the result.
    pub andnot_into: fn(&mut [u64], &[u64], &[u64]) -> u32,
    /// `a &= b` in place; returns the popcount of the result.
    pub and_assign: fn(&mut [u64], &[u64]) -> u32,
    /// `a |= b` in place; returns the popcount of the result.
    pub or_assign: fn(&mut [u64], &[u64]) -> u32,
    /// Popcount over all blocks.
    pub count: fn(&[u64]) -> u32,
    /// Whether every set bit of `a` is also set in `b`.
    pub is_subset: fn(&[u64], &[u64]) -> bool,
    /// `acc |= src` for every source in one pass over memory; returns the
    /// popcount of the final `acc`.
    pub union_into: fn(&mut [u64], &[&[u64]]) -> u32,
}

/// Portable 4×`u64` unrolled kernels over `chunks_exact(4)` plus a scalar
/// remainder. The fixed-width chunks give the compiler straight-line
/// bodies it can keep in registers and auto-vectorise (two 128-bit or one
/// 256-bit op per chunk), which the iterator-chained forms do not
/// reliably achieve.
mod scalar {
    /// `out = a & b`; returns the popcount of the result.
    pub fn and_into(out: &mut [u64], a: &[u64], b: &[u64]) -> u32 {
        debug_assert!(out.len() == a.len() && a.len() == b.len());
        let mut count = 0u32;
        let mut co = out.chunks_exact_mut(4);
        let mut ca = a.chunks_exact(4);
        let mut cb = b.chunks_exact(4);
        for ((o, x), y) in (&mut co).zip(&mut ca).zip(&mut cb) {
            let w0 = x[0] & y[0];
            let w1 = x[1] & y[1];
            let w2 = x[2] & y[2];
            let w3 = x[3] & y[3];
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
            let w = x & y;
            *o = w;
            count += w.count_ones();
        }
        count
    }

    /// `out = a | b`; returns the popcount of the result.
    pub fn or_into(out: &mut [u64], a: &[u64], b: &[u64]) -> u32 {
        debug_assert!(out.len() == a.len() && a.len() == b.len());
        let mut count = 0u32;
        let mut co = out.chunks_exact_mut(4);
        let mut ca = a.chunks_exact(4);
        let mut cb = b.chunks_exact(4);
        for ((o, x), y) in (&mut co).zip(&mut ca).zip(&mut cb) {
            let w0 = x[0] | y[0];
            let w1 = x[1] | y[1];
            let w2 = x[2] | y[2];
            let w3 = x[3] | y[3];
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
            let w = x | y;
            *o = w;
            count += w.count_ones();
        }
        count
    }

    /// `out = a & !b`; returns the popcount of the result.
    pub fn andnot_into(out: &mut [u64], a: &[u64], b: &[u64]) -> u32 {
        debug_assert!(out.len() == a.len() && a.len() == b.len());
        let mut count = 0u32;
        let mut co = out.chunks_exact_mut(4);
        let mut ca = a.chunks_exact(4);
        let mut cb = b.chunks_exact(4);
        for ((o, x), y) in (&mut co).zip(&mut ca).zip(&mut cb) {
            let w0 = x[0] & !y[0];
            let w1 = x[1] & !y[1];
            let w2 = x[2] & !y[2];
            let w3 = x[3] & !y[3];
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
            let w = x & !y;
            *o = w;
            count += w.count_ones();
        }
        count
    }

    /// `a &= b` in place; returns the popcount of the result.
    pub fn and_assign(a: &mut [u64], b: &[u64]) -> u32 {
        debug_assert_eq!(a.len(), b.len());
        let mut count = 0u32;
        let mut ca = a.chunks_exact_mut(4);
        let mut cb = b.chunks_exact(4);
        for (x, y) in (&mut ca).zip(&mut cb) {
            let w0 = x[0] & y[0];
            let w1 = x[1] & y[1];
            let w2 = x[2] & y[2];
            let w3 = x[3] & y[3];
            x[0] = w0;
            x[1] = w1;
            x[2] = w2;
            x[3] = w3;
            count += w0.count_ones() + w1.count_ones() + w2.count_ones() + w3.count_ones();
        }
        for (x, y) in ca.into_remainder().iter_mut().zip(cb.remainder()) {
            *x &= y;
            count += x.count_ones();
        }
        count
    }

    /// `a |= b` in place; returns the popcount of the result.
    pub fn or_assign(a: &mut [u64], b: &[u64]) -> u32 {
        debug_assert_eq!(a.len(), b.len());
        let mut count = 0u32;
        let mut ca = a.chunks_exact_mut(4);
        let mut cb = b.chunks_exact(4);
        for (x, y) in (&mut ca).zip(&mut cb) {
            let w0 = x[0] | y[0];
            let w1 = x[1] | y[1];
            let w2 = x[2] | y[2];
            let w3 = x[3] | y[3];
            x[0] = w0;
            x[1] = w1;
            x[2] = w2;
            x[3] = w3;
            count += w0.count_ones() + w1.count_ones() + w2.count_ones() + w3.count_ones();
        }
        for (x, y) in ca.into_remainder().iter_mut().zip(cb.remainder()) {
            *x |= y;
            count += x.count_ones();
        }
        count
    }

    /// Popcount over all blocks.
    pub fn count(blocks: &[u64]) -> u32 {
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
    pub fn is_subset(a: &[u64], b: &[u64]) -> bool {
        debug_assert_eq!(a.len(), b.len());
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
    pub fn union_into(acc: &mut [u64], srcs: &[&[u64]]) -> u32 {
        for s in srcs {
            debug_assert_eq!(s.len(), acc.len());
        }
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
}

/// AVX2 kernels: 256-bit lanes cover 4 `u64` blocks per op, popcounts via
/// the nibble-LUT (`_mm256_shuffle_epi8` + `_mm256_sad_epu8`) reduction,
/// subset probes via `_mm256_testc_si256`, plus the same scalar remainder
/// tails as the portable kernels so counts stay bit-identical at every
/// length. All loads/stores are unaligned (`loadu`/`storeu`): extent
/// blocks live in `Vec<u64>`/mmap'd columns with 8-byte alignment only.
///
/// Every fn here is `unsafe` + `#[target_feature(enable = "avx2")]`; the
/// module-level safety argument (single detection gate in [`avx2_ops`])
/// is in the crate docs above.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// Per-64-bit-lane popcount of `v`, added into `acc`. Classic nibble
    /// LUT: split each byte into nibbles, look both up in a per-lane
    /// 16-entry table via `shuffle_epi8`, then `sad_epu8` horizontally
    /// sums the 8 byte-counts of each 64-bit lane into that lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn popcount_accum(v: __m256i, acc: __m256i) -> __m256i {
        #[rustfmt::skip]
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi32::<4>(v), low_mask);
        let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, _mm256_setzero_si256()))
    }

    /// Horizontal sum of the four 64-bit lanes of a popcount accumulator.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum(v: __m256i) -> u64 {
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v);
        lanes[0] + lanes[1] + lanes[2] + lanes[3]
    }

    /// `out = a & b`; returns the popcount of the result.
    #[target_feature(enable = "avx2")]
    pub unsafe fn and_into(out: &mut [u64], a: &[u64], b: &[u64]) -> u32 {
        let n = out.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 4 <= n {
            let x = _mm256_loadu_si256(a.as_ptr().add(i).cast());
            let y = _mm256_loadu_si256(b.as_ptr().add(i).cast());
            let w = _mm256_and_si256(x, y);
            _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), w);
            acc = popcount_accum(w, acc);
            i += 4;
        }
        let mut count = hsum(acc) as u32;
        while i < n {
            let w = a[i] & b[i];
            out[i] = w;
            count += w.count_ones();
            i += 1;
        }
        count
    }

    /// `out = a | b`; returns the popcount of the result.
    #[target_feature(enable = "avx2")]
    pub unsafe fn or_into(out: &mut [u64], a: &[u64], b: &[u64]) -> u32 {
        let n = out.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 4 <= n {
            let x = _mm256_loadu_si256(a.as_ptr().add(i).cast());
            let y = _mm256_loadu_si256(b.as_ptr().add(i).cast());
            let w = _mm256_or_si256(x, y);
            _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), w);
            acc = popcount_accum(w, acc);
            i += 4;
        }
        let mut count = hsum(acc) as u32;
        while i < n {
            let w = a[i] | b[i];
            out[i] = w;
            count += w.count_ones();
            i += 1;
        }
        count
    }

    /// `out = a & !b`; returns the popcount of the result.
    #[target_feature(enable = "avx2")]
    pub unsafe fn andnot_into(out: &mut [u64], a: &[u64], b: &[u64]) -> u32 {
        let n = out.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 4 <= n {
            let x = _mm256_loadu_si256(a.as_ptr().add(i).cast());
            let y = _mm256_loadu_si256(b.as_ptr().add(i).cast());
            // andnot(y, x) computes !y & x, i.e. x & !y.
            let w = _mm256_andnot_si256(y, x);
            _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), w);
            acc = popcount_accum(w, acc);
            i += 4;
        }
        let mut count = hsum(acc) as u32;
        while i < n {
            let w = a[i] & !b[i];
            out[i] = w;
            count += w.count_ones();
            i += 1;
        }
        count
    }

    /// `a &= b` in place; returns the popcount of the result.
    #[target_feature(enable = "avx2")]
    pub unsafe fn and_assign(a: &mut [u64], b: &[u64]) -> u32 {
        let n = a.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 4 <= n {
            let x = _mm256_loadu_si256(a.as_ptr().add(i).cast());
            let y = _mm256_loadu_si256(b.as_ptr().add(i).cast());
            let w = _mm256_and_si256(x, y);
            _mm256_storeu_si256(a.as_mut_ptr().add(i).cast(), w);
            acc = popcount_accum(w, acc);
            i += 4;
        }
        let mut count = hsum(acc) as u32;
        while i < n {
            let w = a[i] & b[i];
            a[i] = w;
            count += w.count_ones();
            i += 1;
        }
        count
    }

    /// `a |= b` in place; returns the popcount of the result.
    #[target_feature(enable = "avx2")]
    pub unsafe fn or_assign(a: &mut [u64], b: &[u64]) -> u32 {
        let n = a.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 4 <= n {
            let x = _mm256_loadu_si256(a.as_ptr().add(i).cast());
            let y = _mm256_loadu_si256(b.as_ptr().add(i).cast());
            let w = _mm256_or_si256(x, y);
            _mm256_storeu_si256(a.as_mut_ptr().add(i).cast(), w);
            acc = popcount_accum(w, acc);
            i += 4;
        }
        let mut count = hsum(acc) as u32;
        while i < n {
            let w = a[i] | b[i];
            a[i] = w;
            count += w.count_ones();
            i += 1;
        }
        count
    }

    /// Popcount over all blocks.
    #[target_feature(enable = "avx2")]
    pub unsafe fn count(blocks: &[u64]) -> u32 {
        let n = blocks.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 4 <= n {
            let v = _mm256_loadu_si256(blocks.as_ptr().add(i).cast());
            acc = popcount_accum(v, acc);
            i += 4;
        }
        let mut c = hsum(acc) as u32;
        while i < n {
            c += blocks[i].count_ones();
            i += 1;
        }
        c
    }

    /// Whether every set bit of `a` is also set in `b`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn is_subset(a: &[u64], b: &[u64]) -> bool {
        let n = a.len();
        let mut i = 0usize;
        while i + 4 <= n {
            let x = _mm256_loadu_si256(a.as_ptr().add(i).cast());
            let y = _mm256_loadu_si256(b.as_ptr().add(i).cast());
            // testc(y, x) sets CF iff (!y & x) == 0, i.e. x ⊆ y.
            if _mm256_testc_si256(y, x) == 0 {
                return false;
            }
            i += 4;
        }
        while i < n {
            if a[i] & !b[i] != 0 {
                return false;
            }
            i += 1;
        }
        true
    }

    /// `acc |= src` for every source in one pass; returns the popcount of
    /// the final `acc`. The 256-bit accumulator stays in a register while
    /// every source contributes its 4-word group, so N-way unions read
    /// and write `acc` once instead of N times.
    #[target_feature(enable = "avx2")]
    pub unsafe fn union_into(acc: &mut [u64], srcs: &[&[u64]]) -> u32 {
        let n = acc.len();
        let mut pc = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 4 <= n {
            let mut w = _mm256_loadu_si256(acc.as_ptr().add(i).cast());
            for s in srcs {
                w = _mm256_or_si256(w, _mm256_loadu_si256(s.as_ptr().add(i).cast()));
            }
            _mm256_storeu_si256(acc.as_mut_ptr().add(i).cast(), w);
            pc = popcount_accum(w, pc);
            i += 4;
        }
        let mut count = hsum(pc) as u32;
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
}

/// Safe, fn-pointer-compatible shims over the AVX2 implementations.
///
/// SAFETY: these shims are referenced only by the `AVX2` ops table, which
/// is handed out only by [`avx2_ops`] after `is_x86_feature_detected!`
/// confirms the host supports AVX2 — the single gate described in the
/// module docs. Lengths are validated by the public wrappers' debug
/// asserts and by the kernels' own remainder handling.
#[cfg(target_arch = "x86_64")]
mod avx2_entry {
    use super::avx2;

    pub fn and_into(out: &mut [u64], a: &[u64], b: &[u64]) -> u32 {
        // SAFETY: reachable only via the detection-gated `AVX2` table.
        unsafe { avx2::and_into(out, a, b) }
    }

    pub fn or_into(out: &mut [u64], a: &[u64], b: &[u64]) -> u32 {
        // SAFETY: reachable only via the detection-gated `AVX2` table.
        unsafe { avx2::or_into(out, a, b) }
    }

    pub fn andnot_into(out: &mut [u64], a: &[u64], b: &[u64]) -> u32 {
        // SAFETY: reachable only via the detection-gated `AVX2` table.
        unsafe { avx2::andnot_into(out, a, b) }
    }

    pub fn and_assign(a: &mut [u64], b: &[u64]) -> u32 {
        // SAFETY: reachable only via the detection-gated `AVX2` table.
        unsafe { avx2::and_assign(a, b) }
    }

    pub fn or_assign(a: &mut [u64], b: &[u64]) -> u32 {
        // SAFETY: reachable only via the detection-gated `AVX2` table.
        unsafe { avx2::or_assign(a, b) }
    }

    pub fn count(blocks: &[u64]) -> u32 {
        // SAFETY: reachable only via the detection-gated `AVX2` table.
        unsafe { avx2::count(blocks) }
    }

    pub fn is_subset(a: &[u64], b: &[u64]) -> bool {
        // SAFETY: reachable only via the detection-gated `AVX2` table.
        unsafe { avx2::is_subset(a, b) }
    }

    pub fn union_into(acc: &mut [u64], srcs: &[&[u64]]) -> u32 {
        // SAFETY: reachable only via the detection-gated `AVX2` table.
        unsafe { avx2::union_into(acc, srcs) }
    }
}

static SCALAR: KernelOps = KernelOps {
    name: "scalar",
    and_into: scalar::and_into,
    or_into: scalar::or_into,
    andnot_into: scalar::andnot_into,
    and_assign: scalar::and_assign,
    or_assign: scalar::or_assign,
    count: scalar::count,
    is_subset: scalar::is_subset,
    union_into: scalar::union_into,
};

#[cfg(target_arch = "x86_64")]
static AVX2: KernelOps = KernelOps {
    name: "avx2",
    and_into: avx2_entry::and_into,
    or_into: avx2_entry::or_into,
    andnot_into: avx2_entry::andnot_into,
    and_assign: avx2_entry::and_assign,
    or_assign: avx2_entry::or_assign,
    count: avx2_entry::count,
    is_subset: avx2_entry::is_subset,
    union_into: avx2_entry::union_into,
};

/// The portable scalar ops table (always available).
pub fn scalar_ops() -> &'static KernelOps {
    &SCALAR
}

/// The AVX2 ops table, or `None` when the host CPU (or target arch)
/// lacks AVX2. This detection check is the single safety gate for every
/// `unsafe` kernel body — see the module docs.
#[cfg(target_arch = "x86_64")]
pub fn avx2_ops() -> Option<&'static KernelOps> {
    if is_x86_feature_detected!("avx2") {
        Some(&AVX2)
    } else {
        None
    }
}

/// The AVX2 ops table, or `None` when the host CPU (or target arch)
/// lacks AVX2.
#[cfg(not(target_arch = "x86_64"))]
pub fn avx2_ops() -> Option<&'static KernelOps> {
    None
}

/// Telemetry for the kernel layer: which table won dispatch, and call /
/// word volumes per entry point. The wrappers tally through [`tally`] —
/// one enabled check, then a thread-local batch bump — so the disabled
/// path costs a single predictable branch per kernel call.
mod metrics {
    crate::counter!(pub DISPATCH_SCALAR, "kernel.dispatch.scalar");
    crate::counter!(pub DISPATCH_AVX2, "kernel.dispatch.avx2");
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

static ACTIVE: OnceLock<&'static KernelOps> = OnceLock::new();

/// The process-wide kernel table, selected on first use from the
/// `MIDAS_KERNEL` environment variable and CPU feature detection via
/// [`try_active`]. Panics where `try_active` would error — a forced
/// selection that silently fell back would invalidate whatever the
/// caller was pinning.
pub fn active() -> &'static KernelOps {
    match try_active() {
        Ok(ops) => ops,
        Err(e) => panic!("{e}"),
    }
}

/// Selects and pins the process-wide kernel table from the
/// `MIDAS_KERNEL` environment variable (`auto`/unset, `scalar`,
/// `avx2`) and CPU feature detection, reporting misconfiguration as an
/// error instead of panicking: an unknown value, or `MIDAS_KERNEL=avx2`
/// on a host without AVX2.
///
/// Front-ends should call this once on the main thread before spawning
/// work — the first kernel use otherwise happens inside a panic-isolated
/// detection worker, where the panic from [`active`] would be quarantined
/// as a per-source fault rather than surfaced as the configuration error
/// it is.
pub fn try_active() -> Result<&'static KernelOps, String> {
    if let Some(ops) = ACTIVE.get() {
        return Ok(ops);
    }
    let ops = match std::env::var("MIDAS_KERNEL") {
        Err(_) => avx2_ops().unwrap_or_else(scalar_ops),
        Ok(v) => match v.as_str() {
            "" | "auto" => avx2_ops().unwrap_or_else(scalar_ops),
            "scalar" => scalar_ops(),
            "avx2" => avx2_ops()
                .ok_or_else(|| "MIDAS_KERNEL=avx2 but the host CPU lacks AVX2".to_string())?,
            other => {
                return Err(format!(
                    "unknown MIDAS_KERNEL value {other:?} (expected auto, scalar, or avx2)"
                ))
            }
        },
    };
    Ok(ACTIVE.get_or_init(|| {
        // Dispatch choice is recorded unconditionally (it is one event per
        // process) so a later-enabled snapshot still reports it.
        match ops.name {
            "avx2" => metrics::DISPATCH_AVX2.add_always(1),
            _ => metrics::DISPATCH_SCALAR.add_always(1),
        }
        ops
    }))
}

/// `out = a & b` through the active kernel; returns the result popcount.
#[inline]
pub fn and_into(out: &mut [u64], a: &[u64], b: &[u64]) -> u32 {
    debug_assert!(out.len() == a.len() && a.len() == b.len());
    tally(OP_AND_INTO, out.len());
    (active().and_into)(out, a, b)
}

/// `out = a | b` through the active kernel; returns the result popcount.
#[inline]
pub fn or_into(out: &mut [u64], a: &[u64], b: &[u64]) -> u32 {
    debug_assert!(out.len() == a.len() && a.len() == b.len());
    tally(OP_OR_INTO, out.len());
    (active().or_into)(out, a, b)
}

/// `out = a & !b` through the active kernel; returns the result popcount.
#[inline]
pub fn andnot_into(out: &mut [u64], a: &[u64], b: &[u64]) -> u32 {
    debug_assert!(out.len() == a.len() && a.len() == b.len());
    tally(OP_ANDNOT_INTO, out.len());
    (active().andnot_into)(out, a, b)
}

/// `a &= b` through the active kernel; returns the result popcount.
#[inline]
pub fn and_assign(a: &mut [u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    tally(OP_AND_ASSIGN, a.len());
    (active().and_assign)(a, b)
}

/// `a |= b` through the active kernel; returns the result popcount.
#[inline]
pub fn or_assign(a: &mut [u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    tally(OP_OR_ASSIGN, a.len());
    (active().or_assign)(a, b)
}

/// Popcount over all blocks through the active kernel.
#[inline]
pub fn count(blocks: &[u64]) -> u32 {
    tally(OP_COUNT, blocks.len());
    (active().count)(blocks)
}

/// Whether every set bit of `a` is also set in `b`, through the active
/// kernel.
#[inline]
pub fn is_subset(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    tally(OP_IS_SUBSET, a.len());
    (active().is_subset)(a, b)
}

/// `acc |= src` for every source in one pass through the active kernel;
/// returns the popcount of the final `acc`.
#[inline]
pub fn union_into(acc: &mut [u64], srcs: &[&[u64]]) -> u32 {
    for s in srcs {
        debug_assert_eq!(s.len(), acc.len());
    }
    tally(OP_UNION_INTO, acc.len() * srcs.len().max(1));
    (active().union_into)(acc, srcs)
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

    /// Exercises every entry point of `ops` against a straight-line
    /// reference at the given length (covers 4-word groups, remainder
    /// tails, and the empty slice).
    fn check_ops_at(ops: &KernelOps, len: usize) {
        let a = blocks(len as u64 + 1, len);
        let b = blocks(len as u64 + 1000, len);
        let c = blocks(len as u64 + 2000, len);

        let want_and: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & y).collect();
        let mut out = vec![0u64; len];
        assert_eq!((ops.and_into)(&mut out, &a, &b), ref_count(&want_and));
        assert_eq!(out, want_and, "and_into blocks ({})", ops.name);

        let want_or: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x | y).collect();
        let mut out = vec![0u64; len];
        assert_eq!((ops.or_into)(&mut out, &a, &b), ref_count(&want_or));
        assert_eq!(out, want_or, "or_into blocks ({})", ops.name);

        let want_andnot: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & !y).collect();
        let mut out = vec![0u64; len];
        assert_eq!((ops.andnot_into)(&mut out, &a, &b), ref_count(&want_andnot));
        assert_eq!(out, want_andnot, "andnot_into blocks ({})", ops.name);

        let mut acc = a.clone();
        assert_eq!((ops.and_assign)(&mut acc, &b), ref_count(&want_and));
        assert_eq!(acc, want_and, "and_assign blocks ({})", ops.name);

        let mut acc = a.clone();
        assert_eq!((ops.or_assign)(&mut acc, &b), ref_count(&want_or));
        assert_eq!(acc, want_or, "or_assign blocks ({})", ops.name);

        assert_eq!((ops.count)(&a), ref_count(&a), "count ({})", ops.name);

        assert!((ops.is_subset)(&want_and, &a), "and ⊆ a ({})", ops.name);
        assert!((ops.is_subset)(&want_and, &b), "and ⊆ b ({})", ops.name);
        if ref_count(&want_andnot) > 0 {
            assert!(!(ops.is_subset)(&a, &b), "a ⊄ b ({})", ops.name);
        }

        let mut acc = a.clone();
        let srcs: Vec<&[u64]> = vec![&b, &c, &want_and];
        let want_union: Vec<u64> = (0..len).map(|i| a[i] | b[i] | c[i]).collect();
        assert_eq!((ops.union_into)(&mut acc, &srcs), ref_count(&want_union));
        assert_eq!(acc, want_union, "union_into blocks ({})", ops.name);
        // Zero sources: a pure popcount of the untouched accumulator.
        let mut acc = a.clone();
        assert_eq!((ops.union_into)(&mut acc, &[]), ref_count(&a));
        assert_eq!(acc, a, "union_into with no sources ({})", ops.name);
    }

    #[test]
    fn scalar_kernels_match_reference_across_widths() {
        for len in [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 31, 64, 100] {
            check_ops_at(scalar_ops(), len);
        }
    }

    #[test]
    fn avx2_kernels_match_reference_across_widths() {
        let Some(ops) = avx2_ops() else {
            eprintln!("avx2 unavailable on this host; skipping");
            return;
        };
        for len in [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 31, 64, 100] {
            check_ops_at(ops, len);
        }
    }

    #[test]
    fn active_table_matches_scalar_table() {
        // Whatever `MIDAS_KERNEL` selected, the dispatched results must be
        // bit-identical to scalar.
        let ops = active();
        for len in [0, 3, 8, 13, 64, 257] {
            check_ops_at(ops, len);
        }
    }

    #[test]
    fn wrappers_route_through_active_table() {
        let a = blocks(7, 29);
        let b = blocks(11, 29);
        let mut out = vec![0u64; 29];
        let n = and_into(&mut out, &a, &b);
        assert_eq!(n, scalar::count(&out));
        let mut acc = out.clone();
        assert_eq!(or_assign(&mut acc, &a), count(&acc));
        assert!(is_subset(&out, &a));
        let mut u = vec![0u64; 29];
        let total = union_into(&mut u, &[&a, &b]);
        assert_eq!(
            total,
            (a.iter().zip(&b).map(|(x, y)| x | y))
                .map(|w| w.count_ones())
                .sum::<u32>()
        );
        let mut an = vec![0u64; 29];
        assert_eq!(andnot_into(&mut an, &a, &b), count(&an));
        let mut aa = a.clone();
        assert_eq!(and_assign(&mut aa, &b), n);
        assert_eq!(aa, out);
    }
}
