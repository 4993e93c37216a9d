//! Randomized differential suite for the extent block kernels.
//!
//! Every kernel entry point — `and_into`, `or_into`, `andnot_into`,
//! `and_assign`, `or_assign`, `count`, `is_subset`, `union_into` — is run
//! against a straight-line word-loop reference, over inputs that cover the
//! shapes the 4-word unrolled loops special-case: lengths straddling the
//! 4-word group (0, 1, 3, 4, 5, …), remainder tails, all-empty and
//! all-full blocks, and dense random fills. The kernels must agree with
//! the reference *bit for bit* — outputs and returned popcounts both.
//! A second oracle checks the set identities the kernels implement.

use midas::core::extent::kernels;

/// xorshift64* word stream; every 7th word forced empty or full so the
/// boundary patterns appear at every length.
fn blocks(mut seed: u64, len: usize) -> Vec<u64> {
    seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15).max(1);
    (0..len)
        .map(|i| match i % 7 {
            0 => 0,
            1 => u64::MAX,
            _ => {
                seed ^= seed >> 12;
                seed ^= seed << 25;
                seed ^= seed >> 27;
                seed.wrapping_mul(0x2545_f491_4f6c_dd1d)
            }
        })
        .collect()
}

fn ref_count(xs: &[u64]) -> u32 {
    xs.iter().map(|w| w.count_ones()).sum()
}

/// Lengths covering empty input, widths under one 4-word group, the group
/// boundary, tails of every residue, and multi-group spans.
const LENS: [usize; 18] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 17, 31, 64, 127, 200,
];

#[test]
fn binary_kernels_match_word_loop_reference() {
    for &len in &LENS {
        for seed in 0..6u64 {
            let a = blocks(seed * 2 + 1, len);
            let b = blocks(seed * 2 + 2, len);
            let and_ref: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & y).collect();
            let or_ref: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x | y).collect();
            let andnot_ref: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & !y).collect();

            let mut out = vec![0u64; len];
            let n = kernels::and_into(&mut out, &a, &b);
            assert_eq!(out, and_ref, "and_into len {len} seed {seed}");
            assert_eq!(n, ref_count(&and_ref), "and_into count");

            let n = kernels::or_into(&mut out, &a, &b);
            assert_eq!(out, or_ref, "or_into len {len} seed {seed}");
            assert_eq!(n, ref_count(&or_ref), "or_into count");

            let n = kernels::andnot_into(&mut out, &a, &b);
            assert_eq!(out, andnot_ref, "andnot_into len {len} seed {seed}");
            assert_eq!(n, ref_count(&andnot_ref), "andnot_into count");

            let mut acc = a.clone();
            let n = kernels::and_assign(&mut acc, &b);
            assert_eq!(acc, and_ref, "and_assign len {len} seed {seed}");
            assert_eq!(n, ref_count(&and_ref), "and_assign count");

            let mut acc = a.clone();
            let n = kernels::or_assign(&mut acc, &b);
            assert_eq!(acc, or_ref, "or_assign len {len} seed {seed}");
            assert_eq!(n, ref_count(&or_ref), "or_assign count");
        }
    }
}

#[test]
fn count_and_subset_match_reference() {
    for &len in &LENS {
        for seed in 0..6u64 {
            let a = blocks(seed * 3 + 1, len);
            let b = blocks(seed * 3 + 2, len);
            assert_eq!(kernels::count(&a), ref_count(&a), "count len {len}");

            let subset_ref = a.iter().zip(&b).all(|(x, y)| x & !y == 0);
            assert_eq!(
                kernels::is_subset(&a, &b),
                subset_ref,
                "is_subset len {len} seed {seed}"
            );
            // A set is always a subset of itself and of all-ones.
            assert!(kernels::is_subset(&a, &a), "reflexive len {len}");
            assert!(
                kernels::is_subset(&a, &vec![u64::MAX; len]),
                "subset of full len {len}"
            );
            // And a strict superset is never a subset (when non-equal).
            let grown: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x | y).collect();
            if grown != a {
                assert!(!kernels::is_subset(&grown, &a), "strict len {len}");
            }
        }
    }
}

#[test]
fn union_into_matches_sequential_or_for_any_fanin() {
    for &len in &LENS {
        for fanin in [0usize, 1, 2, 3, 7, 8, 9] {
            let srcs: Vec<Vec<u64>> = (0..fanin).map(|i| blocks(41 * i as u64 + 5, len)).collect();
            let refs: Vec<&[u64]> = srcs.iter().map(|s| s.as_slice()).collect();

            // Reference: fold sequential word-wise ORs over a non-zero
            // starting accumulator (union_into ORs into `acc`, it does
            // not clear it).
            let start = blocks(977, len);
            let mut expect = start.clone();
            for s in &srcs {
                for (w, x) in expect.iter_mut().zip(s) {
                    *w |= x;
                }
            }

            let mut acc = start.clone();
            let n = kernels::union_into(&mut acc, &refs);
            assert_eq!(acc, expect, "union_into len {len} fanin {fanin}");
            assert_eq!(n, ref_count(&expect), "union_into count");
        }
    }
}

/// A second oracle that needs no reference loop: the kernels' outputs and
/// popcounts obey the set identities they implement.
#[test]
fn kernels_obey_set_identities() {
    for &len in &LENS {
        for seed in 0..4u64 {
            let a = blocks(seed * 5 + 1, len);
            let b = blocks(seed * 5 + 2, len);
            let mut and = vec![0u64; len];
            let mut or = vec![0u64; len];
            let mut diff = vec![0u64; len];
            let n_and = kernels::and_into(&mut and, &a, &b);
            let n_or = kernels::or_into(&mut or, &a, &b);
            let n_diff = kernels::andnot_into(&mut diff, &a, &b);
            let (n_a, n_b) = (kernels::count(&a), kernels::count(&b));

            // |a ∪ b| + |a ∩ b| = |a| + |b|, and a = (a ∖ b) ⊔ (a ∩ b).
            assert_eq!(n_or + n_and, n_a + n_b, "inclusion-exclusion len {len}");
            assert_eq!(n_diff + n_and, n_a, "partition count len {len}");
            let mut rebuilt = diff.clone();
            kernels::or_assign(&mut rebuilt, &and);
            assert_eq!(rebuilt, a, "partition blocks len {len}");

            // a ∩ b ⊆ a ⊆ a ∪ b, and a ∖ b is disjoint from b.
            assert!(kernels::is_subset(&and, &a), "and ⊆ a len {len}");
            assert!(kernels::is_subset(&a, &or), "a ⊆ or len {len}");
            let mut overlap = vec![0u64; len];
            assert_eq!(kernels::and_into(&mut overlap, &diff, &b), 0, "len {len}");

            // a ∖ a is empty, a ∩ a and a ∪ a are a.
            let mut same = vec![0u64; len];
            assert_eq!(
                kernels::andnot_into(&mut same, &a, &a),
                0,
                "a ∖ a len {len}"
            );
            let mut aa = a.clone();
            assert_eq!(kernels::and_assign(&mut aa, &a), n_a, "a ∩ a len {len}");
            assert_eq!(kernels::or_assign(&mut aa, &a), n_a, "a ∪ a len {len}");
            assert_eq!(aa, a, "idempotent len {len}");
        }
    }
}

/// The multi-way union does not depend on the order of its sources, and a
/// source given twice (or the accumulator's own contents) adds nothing.
#[test]
fn union_into_ignores_source_order_and_repeats() {
    for &len in &LENS {
        let srcs: Vec<Vec<u64>> = (0..5).map(|i| blocks(71 * i + 3, len)).collect();
        let forward: Vec<&[u64]> = srcs.iter().map(|s| s.as_slice()).collect();
        let backward: Vec<&[u64]> = forward.iter().rev().copied().collect();
        let repeated: Vec<&[u64]> = forward.iter().chain(&forward).copied().collect();

        let run = |refs: &[&[u64]]| {
            let mut acc = vec![0u64; len];
            let n = kernels::union_into(&mut acc, refs);
            (acc, n)
        };
        let want = run(&forward);
        assert_eq!(run(&backward), want, "reversed sources len {len}");
        assert_eq!(run(&repeated), want, "repeated sources len {len}");

        // Unioning the result into itself changes nothing.
        let mut acc = want.0.clone();
        let again = want.0.clone();
        assert_eq!(
            kernels::union_into(&mut acc, &[&again]),
            want.1,
            "len {len}"
        );
        assert_eq!(acc, want.0, "self-union len {len}");
    }
}

/// The kernels assume nothing about where a block slice starts: run on a
/// window at any word offset into a longer buffer, they give what they
/// give on a copy of that window.
#[test]
fn kernels_agree_on_offset_windows() {
    let a_buf = blocks(101, 220);
    let b_buf = blocks(202, 220);
    for &len in &LENS {
        for off in 0..4usize {
            let (a, b) = (&a_buf[off..off + len], &b_buf[off..off + len]);
            let (a_own, b_own) = (a.to_vec(), b.to_vec());

            let mut out_buf = vec![0u64; len + off];
            let mut out_own = vec![0u64; len];
            let n = kernels::and_into(&mut out_buf[off..], a, b);
            assert_eq!(n, kernels::and_into(&mut out_own, &a_own, &b_own));
            assert_eq!(out_buf[off..], out_own[..], "and_into len {len} off {off}");

            let n = kernels::andnot_into(&mut out_buf[off..], a, b);
            assert_eq!(n, kernels::andnot_into(&mut out_own, &a_own, &b_own));
            assert_eq!(
                out_buf[off..],
                out_own[..],
                "andnot_into len {len} off {off}"
            );

            let n = kernels::or_assign(&mut out_buf[off..], a);
            assert_eq!(n, kernels::or_assign(&mut out_own, &a_own));
            assert_eq!(out_buf[off..], out_own[..], "or_assign len {len} off {off}");

            assert_eq!(kernels::count(a), kernels::count(&a_own), "count len {len}");
            assert_eq!(
                kernels::is_subset(a, b),
                kernels::is_subset(&a_own, &b_own),
                "is_subset len {len} off {off}"
            );

            let mut acc_buf = vec![0u64; len + off];
            let mut acc_own = vec![0u64; len];
            let n = kernels::union_into(&mut acc_buf[off..], &[a, b]);
            assert_eq!(n, kernels::union_into(&mut acc_own, &[&a_own, &b_own]));
            assert_eq!(
                acc_buf[off..],
                acc_own[..],
                "union_into len {len} off {off}"
            );
        }
    }
}
