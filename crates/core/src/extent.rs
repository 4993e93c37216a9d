//! The extent engine: hybrid sparse/dense entity sets.
//!
//! Every profit evaluation in MIDAS reduces to set algebra over entity
//! extents (Definition 5): intersections while deriving slice extents from
//! the property inverted lists, unions while maintaining the `SLB` subtree
//! sets, and membership tests against the covered-entity map of Algorithm 1.
//! [`ExtentSet`] stores an extent either as a sorted `Vec<EntityId>`
//! (sparse) or as a `u64`-block bitset (dense), picking the representation
//! from the set's density relative to the source's entity universe.
//!
//! The crossover is the set's *density divisor*: a set is dense iff
//! `len · divisor ≥ universe` (and non-empty). At the default
//! [`DENSITY_DIVISOR`] of 32 the switch is memory-neutral or better — the
//! bitset's `universe/8` bytes never exceed the sparse form's `4·len` bytes
//! once `len ≥ universe/32` — while intersections and unions between dense
//! sets collapse to word-wise `AND`/`OR` plus popcounts, which beat the
//! sparse two-pointer merge down to densities of a few percent — the
//! operation hierarchy construction performs millions of times on large
//! sources. The divisor is *calibrated per fact table* from the observed
//! universe/extent-length distribution ([`calibrate_divisor`]): small
//! universes and top-heavy length distributions tolerate a larger divisor,
//! shifting more sets onto the word-parallel dense path at bounded memory
//! cost. The divisor only ever selects the representation — never the
//! contents — so calibrated and fixed-divisor runs are result-identical.
//!
//! The representation is a pure function of `(universe, divisor, contents)`;
//! equality compares contents, so `==` is set equality across both
//! representations and across divisors.
//!
//! Backing storage is [`Column`]: sparse id lists and dense blocks either
//! own their buffers or borrow zero-copy from an mmap'd snapshot, copying
//! on first mutation.

use crate::fact_table::EntityId;
use crate::scratch;
use midas_kb::Column;

/// Default density crossover: a set is stored dense iff
/// `len * divisor >= universe` and the set is non-empty.
pub const DENSITY_DIVISOR: u32 = 32;

/// Largest calibrated divisor (see [`calibrate_divisor`]).
pub const MAX_DENSITY_DIVISOR: u32 = 256;

/// Picks a density divisor for a fact table whose extents range over
/// `universe` entities and have the given lengths.
///
/// The walk starts at [`DENSITY_DIVISOR`] (the memory break-even point) and
/// doubles while the step stays cheap, up to a universe-dependent cap:
///
/// * universes of ≤ 2048 entities jump straight to
///   [`MAX_DENSITY_DIVISOR`] — their whole bitset is ≤ 256 bytes, a few
///   cache lines, so dense ops win at any density worth storing;
/// * otherwise a doubling is accepted while the bitset bytes of the extents
///   it *flips* to dense stay within 2× the sparse bytes they replace —
///   a bounded memory premium for the word-parallel fast path, judged
///   against the table's actual length distribution.
///
/// Deterministic in its inputs, so snapshots can persist the result and
/// rebuilds agree bit-for-bit.
pub fn calibrate_divisor(universe: u32, lens: &[u32]) -> u32 {
    if universe <= 2048 {
        return MAX_DENSITY_DIVISOR;
    }
    let cap = if universe <= 16_384 {
        128
    } else if universe <= 131_072 {
        64
    } else {
        return DENSITY_DIVISOR;
    };
    let dense_bytes = (universe as u64).div_ceil(64) * 8;
    let mut divisor = DENSITY_DIVISOR;
    while divisor < cap {
        let next = divisor * 2;
        let mut flips = 0u64;
        let mut sparse_bytes = 0u64;
        for &len in lens {
            if prefers_dense(universe, len, next) && !prefers_dense(universe, len, divisor) {
                flips += 1;
                sparse_bytes += 4 * u64::from(len);
            }
        }
        if flips * dense_bytes > 2 * sparse_bytes {
            break;
        }
        divisor = next;
    }
    divisor
}

/// Skew crossover for the sparse-sparse intersection: when one side is more
/// than `GALLOP_RATIO` times longer than the other, the linear two-pointer
/// merge degrades to a scan of the long side and galloping (exponential)
/// search wins — each probe of the short side costs `O(log gap)` instead of
/// `O(gap)`.
pub const GALLOP_RATIO: usize = 16;

/// A set of entities of one fact table, stored sparse or dense by density.
#[derive(Clone)]
pub struct ExtentSet {
    universe: u32,
    /// Density crossover for this set; [`DENSITY_DIVISOR`] by default,
    /// calibrated per fact table. Binary ops propagate the larger divisor.
    divisor: u32,
    repr: Repr,
}

/// Equality is *set* equality: divisor and representation are storage
/// choices, not part of the value.
impl PartialEq for ExtentSet {
    fn eq(&self, other: &Self) -> bool {
        self.universe == other.universe
            && self.len() == other.len()
            && match (&self.repr, &other.repr) {
                (Repr::Sparse(a), Repr::Sparse(b)) => a == b,
                (Repr::Dense { blocks: a, .. }, Repr::Dense { blocks: b, .. }) => a == b,
                _ => self.iter().eq(other.iter()),
            }
    }
}

impl Eq for ExtentSet {}

#[derive(Clone, PartialEq, Eq)]
enum Repr {
    /// Sorted, deduplicated entity ids.
    Sparse(Column<EntityId>),
    /// Bitset over `0..universe`; `len` caches the popcount.
    Dense { blocks: Column<u64>, len: u32 },
}

#[inline]
fn prefers_dense(universe: u32, len: u32, divisor: u32) -> bool {
    len > 0 && u64::from(len) * u64::from(divisor) >= u64::from(universe)
}

#[inline]
fn block_count(universe: u32) -> usize {
    (universe as usize).div_ceil(64)
}

impl ExtentSet {
    /// The empty set over a universe of `universe` entities.
    pub fn empty(universe: u32) -> Self {
        ExtentSet {
            universe,
            divisor: DENSITY_DIVISOR,
            repr: Repr::Sparse(Column::new()),
        }
    }

    /// The full set `{0, …, universe−1}`.
    pub fn full(universe: u32) -> Self {
        if universe == 0 {
            return Self::empty(0);
        }
        let mut blocks = vec![u64::MAX; block_count(universe)];
        let tail = universe % 64;
        if tail != 0 {
            *blocks.last_mut().expect("non-empty blocks") = (1u64 << tail) - 1;
        }
        debug_assert_eq!(kernels::count(&blocks), universe, "cached len invariant");
        ExtentSet {
            universe,
            divisor: DENSITY_DIVISOR,
            repr: Repr::Dense {
                blocks: blocks.into(),
                len: universe,
            },
        }
        .normalized()
    }

    /// Builds a set from a sorted, deduplicated id list with ids `< universe`.
    pub fn from_sorted(universe: u32, ids: Vec<EntityId>) -> Self {
        Self::from_sorted_with_divisor(universe, DENSITY_DIVISOR, ids)
    }

    /// [`Self::from_sorted`] with an explicit (calibrated) density divisor.
    pub fn from_sorted_with_divisor(universe: u32, divisor: u32, ids: Vec<EntityId>) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids sorted + distinct");
        debug_assert!(ids.last().is_none_or(|&e| e < universe), "ids in universe");
        debug_assert!(
            divisor >= DENSITY_DIVISOR,
            "calibration only raises the divisor"
        );
        ExtentSet {
            universe,
            divisor,
            repr: Repr::Sparse(ids.into()),
        }
        .normalized()
    }

    /// Builds a set from an arbitrary id list (sorted and deduplicated here).
    pub fn from_unsorted(universe: u32, mut ids: Vec<EntityId>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        Self::from_sorted(universe, ids)
    }

    /// Reconstructs a sparse set from snapshot storage. The column must be
    /// sorted, deduplicated, in-universe, and *sparse-preferred* under
    /// `divisor` — snapshots persist the normalized representation, so the
    /// loader never needs to re-normalize (which would copy the column).
    pub(crate) fn from_raw_sparse(universe: u32, divisor: u32, ids: Column<EntityId>) -> Self {
        debug_assert!(!prefers_dense(universe, ids.len() as u32, divisor));
        ExtentSet {
            universe,
            divisor,
            repr: Repr::Sparse(ids),
        }
    }

    /// Reconstructs a dense set from snapshot storage (see
    /// [`Self::from_raw_sparse`] for the normalization contract).
    pub(crate) fn from_raw_dense(
        universe: u32,
        divisor: u32,
        blocks: Column<u64>,
        len: u32,
    ) -> Self {
        debug_assert_eq!(blocks.len(), block_count(universe));
        debug_assert_eq!(kernels::count(&blocks), len);
        debug_assert!(prefers_dense(universe, len, divisor));
        ExtentSet {
            universe,
            divisor,
            repr: Repr::Dense { blocks, len },
        }
    }

    /// The size of the entity universe this set ranges over.
    pub fn universe(&self) -> u32 {
        self.universe
    }

    /// The density divisor steering this set's representation choice.
    pub fn divisor(&self) -> u32 {
        self.divisor
    }

    /// Re-targets the density divisor and flips the representation if the
    /// new crossover prefers the other one. Contents are untouched — the
    /// divisor only ever selects storage — so this is invisible to every
    /// observer except memory/speed profiles. Used when a fact table
    /// re-calibrates after augmentation rounds grow the KB.
    pub(crate) fn set_divisor(&mut self, divisor: u32) {
        debug_assert!(
            divisor >= DENSITY_DIVISOR,
            "calibration only raises the divisor"
        );
        if self.divisor != divisor {
            self.divisor = divisor;
            self.renormalize();
        }
    }

    /// Number of entities in the set.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Sparse(v) => v.len(),
            Repr::Dense { len, .. } => *len as usize,
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the set currently uses the dense (bitset) representation.
    pub fn is_dense(&self) -> bool {
        matches!(self.repr, Repr::Dense { .. })
    }

    /// Membership test.
    pub fn contains(&self, e: EntityId) -> bool {
        match &self.repr {
            Repr::Sparse(v) => v.binary_search(&e).is_ok(),
            Repr::Dense { blocks, .. } => {
                e < self.universe && blocks[(e / 64) as usize] & (1u64 << (e % 64)) != 0
            }
        }
    }

    /// Iterates the entities in ascending order (by value).
    pub fn iter(&self) -> ExtentIter<'_> {
        ExtentIter {
            kind: match &self.repr {
                Repr::Sparse(v) => IterKind::Sparse(v.iter()),
                Repr::Dense { blocks, .. } => IterKind::Dense {
                    blocks,
                    next_block: 0,
                    word: 0,
                    base: 0,
                },
            },
        }
    }

    /// The sorted id slice when the set is stored sparse, `None` when dense.
    /// Together with [`Self::dense_blocks`] this lets hot consumers (the
    /// profit summations) walk the raw representation without the iterator's
    /// per-element dispatch.
    pub fn sparse_ids(&self) -> Option<&[EntityId]> {
        match &self.repr {
            Repr::Sparse(v) => Some(v.as_slice()),
            Repr::Dense { .. } => None,
        }
    }

    /// The `u64` bit blocks when the set is stored dense, `None` when
    /// sparse. Bits at positions `>= universe` are always zero.
    pub fn dense_blocks(&self) -> Option<&[u64]> {
        match &self.repr {
            Repr::Sparse(_) => None,
            Repr::Dense { blocks, .. } => Some(blocks.as_slice()),
        }
    }

    /// The sorted id list of the set.
    pub fn to_vec(&self) -> Vec<EntityId> {
        match &self.repr {
            Repr::Sparse(v) => v.as_slice().to_vec(),
            Repr::Dense { .. } => self.iter().collect(),
        }
    }

    /// Whether either backing buffer still borrows from a snapshot mapping.
    pub fn is_mapped(&self) -> bool {
        match &self.repr {
            Repr::Sparse(v) => v.is_mapped(),
            Repr::Dense { blocks, .. } => blocks.is_mapped(),
        }
    }

    /// Whether every member of `self` is also in `other`.
    pub fn is_subset_of(&self, other: &ExtentSet) -> bool {
        debug_assert_eq!(self.universe, other.universe, "universe mismatch");
        match (&self.repr, &other.repr) {
            (Repr::Dense { blocks: a, .. }, Repr::Dense { blocks: b, .. }) => {
                kernels::is_subset(a, b)
            }
            _ => self.iter().all(|e| other.contains(e)),
        }
    }

    /// `self ∩ other` as a new set.
    pub fn intersect(&self, other: &ExtentSet) -> ExtentSet {
        debug_assert_eq!(self.universe, other.universe, "universe mismatch");
        let universe = self.universe;
        let divisor = self.divisor.max(other.divisor);
        let repr = match (&self.repr, &other.repr) {
            (Repr::Sparse(a), Repr::Sparse(b)) => Repr::Sparse(intersect_vec(a, b).into()),
            (Repr::Dense { blocks: a, .. }, Repr::Dense { blocks: b, .. }) => {
                let mut blocks = scratch::take_blocks(a.len());
                let len = kernels::and_into(&mut blocks, a, b);
                blocks_or_empty(&mut blocks, len);
                Repr::Dense {
                    blocks: blocks.into(),
                    len,
                }
            }
            (Repr::Sparse(a), Repr::Dense { .. }) => {
                let mut out = scratch::take_ids();
                out.extend(a.iter().copied().filter(|&e| other.contains(e)));
                Repr::Sparse(out.into())
            }
            (Repr::Dense { .. }, Repr::Sparse(b)) => {
                let mut out = scratch::take_ids();
                out.extend(b.iter().copied().filter(|&e| self.contains(e)));
                Repr::Sparse(out.into())
            }
        };
        ExtentSet {
            universe,
            divisor,
            repr,
        }
        .normalized()
    }

    /// `self ∪ other` as a new set.
    pub fn union(&self, other: &ExtentSet) -> ExtentSet {
        debug_assert_eq!(self.universe, other.universe, "universe mismatch");
        let universe = self.universe;
        let divisor = self.divisor.max(other.divisor);
        let repr = match (&self.repr, &other.repr) {
            (Repr::Sparse(a), Repr::Sparse(b)) => Repr::Sparse(union_vec(a, b).into()),
            (Repr::Dense { blocks: a, .. }, Repr::Dense { blocks: b, .. }) => {
                let mut blocks = scratch::take_blocks(a.len());
                let len = kernels::or_into(&mut blocks, a, b);
                Repr::Dense {
                    blocks: blocks.into(),
                    len,
                }
            }
            (Repr::Sparse(a), Repr::Dense { blocks, len }) => dense_with(blocks, *len, a),
            (Repr::Dense { blocks, len }, Repr::Sparse(b)) => dense_with(blocks, *len, b),
        };
        ExtentSet {
            universe,
            divisor,
            repr,
        }
        .normalized()
    }

    /// In-place `self ∩= other`; avoids allocation when both sides are dense.
    pub fn intersect_with(&mut self, other: &ExtentSet) {
        debug_assert_eq!(self.universe, other.universe, "universe mismatch");
        self.divisor = self.divisor.max(other.divisor);
        match (&mut self.repr, &other.repr) {
            (Repr::Dense { blocks, len }, Repr::Dense { blocks: b, .. }) => {
                *len = kernels::and_assign(blocks.make_mut(), b);
            }
            (Repr::Sparse(a), Repr::Sparse(b)) if skewed(a.len(), b.len()) => {
                // Pathological skew: gallop into a pooled buffer and swap it
                // in — still allocation-free in the steady state.
                let mut out = scratch::take_ids();
                gallop_intersect_into(a, b, &mut out);
                if let Some(old) = std::mem::replace(a, out.into()).take_owned() {
                    scratch::put_ids(old);
                }
            }
            (Repr::Sparse(a), Repr::Sparse(b)) => {
                // In-place two-pointer merge — `retain` + `binary_search`
                // would cost O(|a|·log|b|) and dominates `extent_of`.
                let a = a.make_mut();
                let mut j = 0;
                let mut k = 0;
                for i in 0..a.len() {
                    let e = a[i];
                    while j < b.len() && b[j] < e {
                        j += 1;
                    }
                    if j < b.len() && b[j] == e {
                        a[k] = e;
                        k += 1;
                        j += 1;
                    }
                }
                a.truncate(k);
            }
            (Repr::Sparse(a), Repr::Dense { .. }) => a.make_mut().retain(|&e| other.contains(e)),
            _ => {
                *self = self.intersect(other);
                return;
            }
        }
        self.renormalize();
    }

    /// In-place `self ∪= other`; avoids allocation when `self` is dense.
    pub fn union_with(&mut self, other: &ExtentSet) {
        debug_assert_eq!(self.universe, other.universe, "universe mismatch");
        self.divisor = self.divisor.max(other.divisor);
        match (&mut self.repr, &other.repr) {
            (Repr::Dense { blocks, len }, Repr::Dense { blocks: b, .. }) => {
                *len = kernels::or_assign(blocks.make_mut(), b);
            }
            (Repr::Dense { blocks, len }, Repr::Sparse(b)) => {
                let blocks = blocks.make_mut();
                for &e in b {
                    let w = &mut blocks[(e / 64) as usize];
                    let bit = 1u64 << (e % 64);
                    if *w & bit == 0 {
                        *w |= bit;
                        *len += 1;
                    }
                }
            }
            _ => {
                *self = self.union(other);
                return;
            }
        }
        self.renormalize();
    }

    /// Sets the bit of every member in `bits` (a `u64`-block bitmap over the
    /// same universe). Used by the profit accumulator's covered map.
    pub fn mark_into(&self, bits: &mut [u64]) {
        match &self.repr {
            Repr::Sparse(v) => {
                for &e in v {
                    bits[(e / 64) as usize] |= 1u64 << (e % 64);
                }
            }
            Repr::Dense { blocks, .. } => {
                for (x, y) in bits.iter_mut().zip(blocks) {
                    *x |= y;
                }
            }
        }
    }

    /// Calls `f` for every member of `self` whose bit is *not* set in
    /// `bits` — the uncovered entities of a candidate slice. For dense sets
    /// this skips fully-covered words without touching their entities.
    pub fn for_each_missing_from(&self, bits: &[u64], mut f: impl FnMut(EntityId)) {
        match &self.repr {
            Repr::Sparse(v) => {
                for &e in v {
                    if bits[(e / 64) as usize] & (1u64 << (e % 64)) == 0 {
                        f(e);
                    }
                }
            }
            Repr::Dense { blocks, .. } => {
                for (i, (&x, &y)) in blocks.iter().zip(bits).enumerate() {
                    let mut word = x & !y;
                    let base = (i as u32) * 64;
                    while word != 0 {
                        f(base + word.trailing_zeros());
                        word &= word - 1;
                    }
                }
            }
        }
    }

    /// Converts to the density-preferred representation (consuming form).
    fn normalized(mut self) -> Self {
        self.renormalize();
        self
    }

    /// Converts to the density-preferred representation in place.
    fn renormalize(&mut self) {
        let len = self.len() as u32;
        let want_dense = prefers_dense(self.universe, len, self.divisor);
        match (&self.repr, want_dense) {
            (Repr::Sparse(_), true) => {
                let Repr::Sparse(mut v) =
                    std::mem::replace(&mut self.repr, Repr::Sparse(Column::new()))
                else {
                    unreachable!()
                };
                let mut blocks = scratch::take_blocks(block_count(self.universe));
                for &e in &v {
                    blocks[(e / 64) as usize] |= 1u64 << (e % 64);
                }
                if let Some(old) = v.take_owned() {
                    scratch::put_ids(old);
                }
                self.repr = Repr::Dense {
                    blocks: blocks.into(),
                    len,
                };
            }
            (Repr::Dense { .. }, false) => {
                let mut ids = scratch::take_ids();
                ids.extend(self.iter());
                let Repr::Dense { mut blocks, .. } =
                    std::mem::replace(&mut self.repr, Repr::Sparse(ids.into()))
                else {
                    unreachable!()
                };
                if let Some(old) = blocks.take_owned() {
                    scratch::put_blocks(old);
                }
            }
            _ => {}
        }
    }

    /// Consumes the set, returning its backing buffer to the scratch pool so
    /// the next shard can reuse the capacity. Purely an optimisation —
    /// dropping the set instead is always correct; mapped (snapshot-backed)
    /// buffers belong to the mapping and are simply dropped.
    pub fn recycle(self) {
        match self.repr {
            Repr::Sparse(mut v) => {
                if let Some(old) = v.take_owned() {
                    scratch::put_ids(old);
                }
            }
            Repr::Dense { mut blocks, .. } => {
                if let Some(old) = blocks.take_owned() {
                    scratch::put_blocks(old);
                }
            }
        }
    }
}

/// Keeps the empty dense case allocation-free on the normalize path.
#[inline]
fn blocks_or_empty(blocks: &mut Vec<u64>, len: u32) {
    if len == 0 {
        blocks.clear();
    }
}

pub mod kernels;

/// Marks every member of every set into `bits` (a `u64`-block bitmap over
/// the sets' shared universe) — the batched multi-way form of
/// [`ExtentSet::mark_into`]. Dense sets are grouped and fed to the
/// [`kernels::union_into`] kernel in bounded batches, so the
/// bitmap is read and written once per group instead of once per set;
/// sparse sets fall back to per-entity bit sets.
pub fn union_mark_into(sets: &[&ExtentSet], bits: &mut [u64]) {
    /// Dense sources per kernel call: enough that the accumulator
    /// read/write amortises across the group, small enough to sit on the
    /// stack and keep source pointers in registers.
    const GROUP: usize = 8;
    let mut group: [&[u64]; GROUP] = [&[]; GROUP];
    let mut n = 0usize;
    for set in sets {
        match &set.repr {
            Repr::Sparse(v) => {
                for &e in v {
                    bits[(e / 64) as usize] |= 1u64 << (e % 64);
                }
            }
            Repr::Dense { blocks, .. } => {
                debug_assert_eq!(blocks.len(), bits.len(), "universe mismatch");
                group[n] = blocks;
                n += 1;
                if n == GROUP {
                    kernels::union_into(bits, &group);
                    n = 0;
                }
            }
        }
    }
    if n > 0 {
        kernels::union_into(bits, &group[..n]);
    }
}

/// Dense blocks plus a sparse list, as a dense repr.
fn dense_with(blocks: &Column<u64>, len: u32, extra: &Column<EntityId>) -> Repr {
    let mut out = scratch::take_blocks(blocks.len());
    out.copy_from_slice(blocks);
    let mut blocks = out;
    let mut len = len;
    for &e in extra {
        let w = &mut blocks[(e / 64) as usize];
        let bit = 1u64 << (e % 64);
        if *w & bit == 0 {
            *w |= bit;
            len += 1;
        }
    }
    Repr::Dense {
        blocks: blocks.into(),
        len,
    }
}

/// Whether a sparse-sparse pair is skewed enough for galloping to beat the
/// linear merge.
#[inline]
fn skewed(a: usize, b: usize) -> bool {
    a.saturating_mul(GALLOP_RATIO) < b || b.saturating_mul(GALLOP_RATIO) < a
}

fn intersect_vec(a: &[EntityId], b: &[EntityId]) -> Vec<EntityId> {
    if skewed(a.len(), b.len()) {
        let mut out = scratch::take_ids();
        gallop_intersect_into(a, b, &mut out);
        return out;
    }
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Galloping (exponential-search) intersection of two sorted id lists with
/// pathological length skew. Walks the shorter list element-wise and locates
/// each id in the longer one by doubling probes from a moving base, then a
/// binary search inside the bracketed window — `O(s · log(l/s))` instead of
/// the merge's `O(s + l)`.
fn gallop_intersect_into(a: &[EntityId], b: &[EntityId], out: &mut Vec<EntityId>) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut base = 0usize;
    for &e in small {
        if base >= large.len() {
            break;
        }
        if large[base] > e {
            continue;
        }
        // Double the probe distance until we bracket `e` …
        let mut offset = 1usize;
        while base + offset < large.len() && large[base + offset] < e {
            offset <<= 1;
        }
        // … then binary-search the last un-probed window. `window_start`
        // holds a value ≤ e (the previous probe, or `base` itself).
        let window_start = base + offset / 2;
        let window_end = (base + offset).min(large.len());
        let idx = window_start + large[window_start..window_end].partition_point(|&x| x < e);
        if idx < large.len() && large[idx] == e {
            out.push(e);
            base = idx + 1;
        } else {
            base = idx;
        }
    }
}

fn union_vec(a: &[EntityId], b: &[EntityId]) -> Vec<EntityId> {
    let mut out = scratch::take_ids();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl std::fmt::Debug for ExtentSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ExtentSet[{}/{} {}]{:?}",
            self.len(),
            self.universe,
            if self.is_dense() { "dense" } else { "sparse" },
            self.to_vec()
        )
    }
}

/// Ascending iterator over an [`ExtentSet`], yielding ids by value.
pub struct ExtentIter<'a> {
    kind: IterKind<'a>,
}

enum IterKind<'a> {
    Sparse(std::slice::Iter<'a, EntityId>),
    Dense {
        blocks: &'a [u64],
        next_block: usize,
        word: u64,
        base: u32,
    },
}

impl Iterator for ExtentIter<'_> {
    type Item = EntityId;

    fn next(&mut self) -> Option<EntityId> {
        match &mut self.kind {
            IterKind::Sparse(it) => it.next().copied(),
            IterKind::Dense {
                blocks,
                next_block,
                word,
                base,
            } => loop {
                if *word != 0 {
                    let e = *base + word.trailing_zeros();
                    *word &= *word - 1;
                    return Some(e);
                }
                if *next_block >= blocks.len() {
                    return None;
                }
                *word = blocks[*next_block];
                *base = (*next_block as u32) * 64;
                *next_block += 1;
            },
        }
    }
}

impl<'a> IntoIterator for &'a ExtentSet {
    type Item = EntityId;
    type IntoIter = ExtentIter<'a>;

    fn into_iter(self) -> ExtentIter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(universe: u32, ids: &[EntityId]) -> ExtentSet {
        ExtentSet::from_sorted(universe, ids.to_vec())
    }

    #[test]
    fn representation_follows_density() {
        // 3 of 1000 — sparse; 100 of 1000 — dense (100·32 ≥ 1000).
        assert!(!set(1000, &[1, 500, 999]).is_dense());
        let dense = ExtentSet::from_sorted(1000, (0..100).collect());
        assert!(dense.is_dense());
        // Exactly at the boundary: len·32 == universe is dense.
        let boundary = ExtentSet::from_sorted(3200, (0..100).collect());
        assert!(boundary.is_dense());
        let below = ExtentSet::from_sorted(3201, (0..100).collect());
        assert!(!below.is_dense());
        // Empty is always sparse; full is always dense (universe > 0).
        assert!(!ExtentSet::empty(1000).is_dense());
        assert!(ExtentSet::full(1000).is_dense());
    }

    #[test]
    fn equality_is_set_equality_across_the_boundary() {
        // The same contents always normalize to the same repr.
        let a = ExtentSet::from_sorted(160, (0..10).collect());
        let b = ExtentSet::from_unsorted(160, (0..10).rev().collect());
        assert_eq!(a, b);
        assert_eq!(a.is_dense(), b.is_dense());
    }

    #[test]
    fn full_and_empty() {
        let f = ExtentSet::full(130);
        assert_eq!(f.len(), 130);
        assert_eq!(f.iter().collect::<Vec<_>>(), (0..130).collect::<Vec<_>>());
        assert!(f.contains(129));
        assert!(!f.contains(130));
        let e = ExtentSet::empty(130);
        assert_eq!(e.len(), 0);
        assert!(e.is_empty());
        assert!(ExtentSet::full(0).is_empty());
    }

    #[test]
    fn contains_and_iter_agree_in_both_reprs() {
        for ids in [vec![0, 3, 64, 65, 127], (0..90).collect::<Vec<_>>()] {
            let s = ExtentSet::from_sorted(128, ids.clone());
            assert_eq!(s.iter().collect::<Vec<_>>(), ids);
            assert_eq!(s.to_vec(), ids);
            for e in 0..128 {
                assert_eq!(s.contains(e), ids.contains(&e), "entity {e}");
            }
        }
    }

    #[test]
    fn intersect_union_across_all_repr_pairs() {
        let u = 256;
        let sparse_a = set(u, &[1, 5, 100, 200]);
        let sparse_b = set(u, &[5, 100, 201]);
        let dense_a = ExtentSet::from_sorted(u, (0..128).collect());
        let dense_b = ExtentSet::from_sorted(u, (64..192).collect());
        for (a, b, inter, uni) in [
            (
                &sparse_a,
                &sparse_b,
                vec![5, 100],
                vec![1, 5, 100, 200, 201],
            ),
            (&dense_a, &dense_b, (64..128).collect(), (0..192).collect()),
            (&sparse_a, &dense_b, vec![100], {
                let mut v: Vec<u32> = (64..192).collect();
                v.splice(0..0, [1, 5]);
                v.push(200);
                v
            }),
        ] {
            assert_eq!(a.intersect(b).to_vec(), inter);
            assert_eq!(b.intersect(a).to_vec(), inter);
            assert_eq!(a.union(b).to_vec(), uni);
            assert_eq!(b.union(a).to_vec(), uni);
        }
    }

    #[test]
    fn in_place_ops_match_pure_ops() {
        let u = 512;
        let cases = [
            set(u, &[1, 2, 3, 400]),
            ExtentSet::from_sorted(u, (0..256).collect()),
            ExtentSet::from_sorted(u, (100..300).collect()),
            ExtentSet::empty(u),
        ];
        for a in &cases {
            for b in &cases {
                let mut x = a.clone();
                x.intersect_with(b);
                assert_eq!(x, a.intersect(b));
                let mut y = a.clone();
                y.union_with(b);
                assert_eq!(y, a.union(b));
            }
        }
    }

    #[test]
    fn mark_and_missing() {
        let u = 200;
        let s = ExtentSet::from_sorted(u, (0..40).collect());
        let mut bits = vec![0u64; 4];
        set(u, &[0, 1, 2, 3, 39, 150]).mark_into(&mut bits);
        let mut missing = Vec::new();
        s.for_each_missing_from(&bits, |e| missing.push(e));
        assert_eq!(missing, (4..39).collect::<Vec<_>>());
        s.mark_into(&mut bits);
        let mut none = Vec::new();
        s.for_each_missing_from(&bits, |e| none.push(e));
        assert!(none.is_empty());
    }

    #[test]
    fn subset_checks() {
        let u = 300;
        let small = set(u, &[10, 20]);
        let big = ExtentSet::from_sorted(u, (0..100).collect());
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(ExtentSet::empty(u).is_subset_of(&small));
        assert!(big.is_subset_of(&ExtentSet::full(u)));
    }

    /// Reference intersection by membership filtering.
    fn naive_intersect(a: &[EntityId], b: &[EntityId]) -> Vec<EntityId> {
        a.iter().copied().filter(|e| b.contains(e)).collect()
    }

    #[test]
    fn galloping_matches_merge_on_pathological_skew() {
        // Long side far over GALLOP_RATIO× the short side; universe huge so
        // both stay sparse and the gallop path is actually exercised.
        let u = 4_000_000;
        let large: Vec<EntityId> = (0..100_000).map(|i| i * 3).collect();
        for small in [
            vec![],                               // empty short side
            vec![0],                              // first element
            vec![299_997],                        // last element
            vec![299_999],                        // past the end, absent
            vec![1, 2, 4, 5],                     // all absent, clustered at front
            vec![0, 3, 150_000, 299_997],         // hits spread over the whole range
            (0..64).map(|i| i * 4_001).collect(), // large gaps force deep gallops
            (250_000..250_064).collect(),         // dense cluster far from base
        ] {
            let s = ExtentSet::from_sorted(u, small.clone());
            let l = ExtentSet::from_sorted(u, large.clone());
            assert!(!s.is_dense() && !l.is_dense());
            let expect = naive_intersect(&small, &large);
            assert_eq!(s.intersect(&l).to_vec(), expect, "small={small:?}");
            assert_eq!(l.intersect(&s).to_vec(), expect, "flipped small={small:?}");
            let mut in_place = s.clone();
            in_place.intersect_with(&l);
            assert_eq!(in_place.to_vec(), expect, "in-place small={small:?}");
            let mut flipped = l.clone();
            flipped.intersect_with(&s);
            assert_eq!(flipped.to_vec(), expect, "in-place flipped small={small:?}");
        }
    }

    #[test]
    fn gallop_crossover_boundary_is_consistent() {
        // Just below and just above the GALLOP_RATIO crossover must agree
        // with the naive reference — the heuristic may change the algorithm,
        // never the result.
        let u = 4_000_000;
        for short_len in [7usize, 8, 9] {
            let small: Vec<EntityId> = (0..short_len as u32).map(|i| i * 17_000).collect();
            for factor in [GALLOP_RATIO - 1, GALLOP_RATIO, GALLOP_RATIO + 1] {
                let large: Vec<EntityId> = (0..(short_len * factor) as u32)
                    .map(|i| i * 1_000)
                    .collect();
                let s = ExtentSet::from_sorted(u, small.clone());
                let l = ExtentSet::from_sorted(u, large.clone());
                assert!(!s.is_dense() && !l.is_dense());
                assert_eq!(
                    s.intersect(&l).to_vec(),
                    naive_intersect(&small, &large),
                    "short_len={short_len} factor={factor}"
                );
            }
        }
    }

    #[test]
    fn gallop_helper_direct_cases() {
        let large: Vec<EntityId> = (0..1000).map(|i| i * 2).collect(); // evens < 2000
        let mut out = Vec::new();
        gallop_intersect_into(&[1, 3, 5], &large, &mut out);
        assert!(out.is_empty(), "odd probes hit nothing");
        out.clear();
        gallop_intersect_into(&[0, 2, 1998, 5000], &large, &mut out);
        assert_eq!(out, vec![0, 2, 1998]);
        out.clear();
        // Long-then-short argument order takes the same path.
        gallop_intersect_into(&large, &[1998], &mut out);
        assert_eq!(out, vec![1998]);
    }

    #[test]
    fn chunked_kernels_match_reference_across_widths() {
        // Universes straddling the 4-word chunk boundary: 3..=9 words covers
        // full chunks, the empty remainder, and 1–3 word remainders.
        for words in 3usize..=9 {
            let u = (words * 64) as u32;
            let a_ids: Vec<EntityId> = (0..u).filter(|e| e % 3 == 0).collect();
            let b_ids: Vec<EntityId> = (0..u).filter(|e| e % 5 != 0).collect();
            let a = ExtentSet::from_sorted(u, a_ids.clone());
            let b = ExtentSet::from_sorted(u, b_ids.clone());
            assert!(a.is_dense() && b.is_dense(), "u={u}");
            let inter: Vec<EntityId> = naive_intersect(&a_ids, &b_ids);
            let mut uni: Vec<EntityId> = a_ids.iter().chain(&b_ids).copied().collect();
            uni.sort_unstable();
            uni.dedup();
            assert_eq!(a.intersect(&b).to_vec(), inter, "u={u}");
            assert_eq!(a.union(&b).to_vec(), uni, "u={u}");
            let mut x = a.clone();
            x.intersect_with(&b);
            assert_eq!(x.to_vec(), inter, "u={u}");
            let mut y = a.clone();
            y.union_with(&b);
            assert_eq!(y.to_vec(), uni, "u={u}");
            assert!(a.intersect(&b).is_subset_of(&a));
            assert!(a.is_subset_of(&a.union(&b)));
            assert!(!a.is_subset_of(&b), "a has multiples of 15 that b lacks");
        }
    }

    #[test]
    fn recycle_roundtrip_keeps_sets_correct() {
        // Recycling returns buffers to the pool; later sets built from the
        // pool must be unaffected by the old contents.
        let u = 10_000;
        ExtentSet::from_sorted(u, (0..5000).collect()).recycle();
        ExtentSet::from_sorted(u, vec![1, 2, 3]).recycle();
        let fresh = ExtentSet::from_sorted(u, (0..1000).map(|i| i * 10).collect());
        assert_eq!(fresh.len(), 1000);
        assert_eq!(
            fresh.to_vec(),
            (0..1000).map(|i| i * 10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn calibrated_divisor_is_deterministic_and_bounded() {
        // Tiny universes densify aggressively regardless of distribution.
        assert_eq!(calibrate_divisor(100, &[1, 2, 3]), MAX_DENSITY_DIVISOR);
        assert_eq!(calibrate_divisor(2048, &[]), MAX_DENSITY_DIVISOR);
        // Huge universes stay at the memory break-even default.
        assert_eq!(calibrate_divisor(1_000_000, &[10, 5000]), DENSITY_DIVISOR);
        // Mid-size universes: top-heavy distributions (lengths just under
        // the current crossover) accept the doubling; bottom-heavy ones
        // (mass just over universe/next) stop at the memory gate.
        let u = 10_000;
        let top_heavy: Vec<u32> = vec![u / 33; 64];
        let d = calibrate_divisor(u, &top_heavy);
        assert!(d > DENSITY_DIVISOR, "top-heavy distribution densifies");
        assert!(d <= 128, "capped by universe size");
        // Lengths just above universe/128 flip at the 64→128 doubling and
        // cost ~4× their sparse bytes as bitsets — the memory gate refuses.
        let bottom_heavy: Vec<u32> = vec![u / 128 + 2; 64];
        assert_eq!(calibrate_divisor(u, &bottom_heavy), 64);
        // Determinism: same inputs, same answer.
        assert_eq!(calibrate_divisor(u, &top_heavy), d);
    }

    #[test]
    fn calibrated_divisor_changes_repr_but_never_contents() {
        // Equivalence against the fixed divisor: for a sweep of densities,
        // the calibrated set has identical contents and identical results
        // under every operation, even where the representation differs.
        let u = 2000; // calibrates to MAX_DENSITY_DIVISOR
        let d = calibrate_divisor(u, &[]);
        assert_eq!(d, MAX_DENSITY_DIVISOR);
        let other = ExtentSet::from_sorted(u, (0..u).filter(|e| e % 7 == 0).collect());
        for step in [1u32, 9, 40, 100, 300] {
            let ids: Vec<EntityId> = (0..u).step_by(step as usize).collect();
            let fixed = ExtentSet::from_sorted(u, ids.clone());
            let calibrated = ExtentSet::from_sorted_with_divisor(u, d, ids.clone());
            assert_eq!(calibrated.divisor(), d);
            assert_eq!(fixed, calibrated, "set equality across divisors");
            assert_eq!(fixed.to_vec(), calibrated.to_vec());
            if prefers_dense(u, fixed.len() as u32, d)
                && !prefers_dense(u, fixed.len() as u32, DENSITY_DIVISOR)
            {
                assert!(calibrated.is_dense() && !fixed.is_dense());
            }
            assert_eq!(
                fixed.intersect(&other).to_vec(),
                calibrated.intersect(&other).to_vec(),
                "step={step}"
            );
            assert_eq!(
                fixed.union(&other).to_vec(),
                calibrated.union(&other).to_vec(),
                "step={step}"
            );
            let mut a = fixed.clone();
            a.intersect_with(&other);
            let mut b = calibrated.clone();
            b.intersect_with(&other);
            assert_eq!(a.to_vec(), b.to_vec());
            let mut a = fixed.clone();
            a.union_with(&other);
            let mut b = calibrated.clone();
            b.union_with(&other);
            assert_eq!(a.to_vec(), b.to_vec());
            assert_eq!(fixed.is_subset_of(&other), calibrated.is_subset_of(&other));
        }
    }

    #[test]
    fn binary_ops_propagate_the_larger_divisor() {
        let u = 2000;
        let a = ExtentSet::from_sorted_with_divisor(u, 256, vec![1, 2, 3]);
        let b = ExtentSet::from_sorted(u, vec![2, 3, 4]);
        assert_eq!(a.intersect(&b).divisor(), 256);
        assert_eq!(b.union(&a).divisor(), 256);
        let mut c = b.clone();
        c.intersect_with(&a);
        assert_eq!(c.divisor(), 256);
    }

    #[test]
    fn debug_is_readable() {
        let s = set(100, &[1, 2]);
        let d = format!("{s:?}");
        assert!(d.contains("2/100"));
        assert!(d.contains("sparse"));
    }
}
