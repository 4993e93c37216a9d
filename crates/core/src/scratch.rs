//! Worker-local scratch pools for the streaming pipeline.
//!
//! The streaming round driver (see `framework.rs`) pushes many short-lived
//! shards through a small set of workers. Each shard builds a [`crate::FactTable`],
//! a slice hierarchy, and thousands of [`crate::ExtentSet`] values — and then
//! throws them away. Reallocating those buffers per shard dominates allocator
//! time and inflates peak RSS; instead, finished buffers are *recycled* here
//! and handed back to the next shard that asks.
//!
//! Two pools are kept, matching the two buffer shapes the hot path uses:
//!
//! * **id buffers** (`Vec<u32>`) — sparse extent id lists, inverted-index
//!   rows, and per-entity property lists (`EntityId` and `PropertyId` are
//!   both `u32`);
//! * **block buffers** (`Vec<u64>`) — dense extent bitsets, covered-entity
//!   bitmaps, and packed per-entity fact counts.
//!
//! Ownership rules:
//!
//! * `take_*` transfers ownership to the caller; the buffer is logically
//!   fresh (cleared or zeroed) but keeps its previous capacity.
//! * `put_*` transfers ownership back. Callers must not retain any view of
//!   the buffer afterwards — it may be handed to another shard immediately.
//! * Buffers are pooled per **thread** first (no locking on the hot path)
//!   and drain into a process-global pool when a worker thread exits, so
//!   capacity survives the scoped thread pools that live only for one
//!   parallel round.
//!
//! The pools are bounded ([`MAX_VECS_PER_KIND`], [`MAX_POOLED_SETS`],
//! [`MAX_RETAINED_CAPACITY`]); oversized or surplus buffers are dropped so
//! the pool itself cannot become the memory hog it exists to prevent.

use std::cell::RefCell;
use std::sync::Mutex;

/// Pool traffic counters. A warm and a cold run over the same inputs must
/// report identical take/put balances per kind — the telemetry that caught
/// the missing `put_flags` on the cold-rebuild fallback path.
///
/// Take/put happen millions of times per run (once per node evaluation on
/// the hot paths), so the counts batch in a thread-local
/// [`LocalTally`](crate::telemetry::LocalTally).
mod metrics {
    crate::counter!(pub TAKE_IDS, "scratch.take.ids");
    crate::counter!(pub PUT_IDS, "scratch.put.ids");
    crate::counter!(pub TAKE_BLOCKS, "scratch.take.blocks");
    crate::counter!(pub PUT_BLOCKS, "scratch.put.blocks");
    crate::counter!(pub TAKE_FLAGS, "scratch.take.flags");
    crate::counter!(pub PUT_FLAGS, "scratch.put.flags");
}

const KIND_TAKE_IDS: usize = 0;
const KIND_PUT_IDS: usize = 1;
const KIND_TAKE_BLOCKS: usize = 2;
const KIND_PUT_BLOCKS: usize = 3;
const KIND_TAKE_FLAGS: usize = 4;
const KIND_PUT_FLAGS: usize = 5;
const NUM_KINDS: usize = 6;

static KIND_SINKS: [&crate::telemetry::Counter; NUM_KINDS] = [
    &metrics::TAKE_IDS,
    &metrics::PUT_IDS,
    &metrics::TAKE_BLOCKS,
    &metrics::PUT_BLOCKS,
    &metrics::TAKE_FLAGS,
    &metrics::PUT_FLAGS,
];

thread_local! {
    static TALLY: crate::telemetry::LocalTally<NUM_KINDS> =
        crate::telemetry::LocalTally::new(&KIND_SINKS);
}

/// Drains this thread's batched pool counts (run by
/// [`crate::telemetry::snapshot`]).
pub(crate) fn flush_tally() {
    let _ = TALLY.try_with(|t| t.flush());
}

#[inline]
fn tally(kind: usize) {
    if crate::telemetry::enabled() {
        tally_enabled(kind);
    }
}

#[cold]
#[inline(never)]
fn tally_enabled(kind: usize) {
    let _ = TALLY.try_with(|t| {
        t.add(kind, 1);
        t.end_event();
    });
}

/// Maximum buffers of one kind retained per pooled set.
pub const MAX_VECS_PER_KIND: usize = 32;

/// Maximum thread-local buffer sets parked in the global pool.
pub const MAX_POOLED_SETS: usize = 32;

/// Buffers with more capacity than this (in elements) are dropped on `put`
/// rather than pooled, so one giant shard cannot pin its high-water mark.
pub const MAX_RETAINED_CAPACITY: usize = 1 << 22;

#[derive(Default)]
struct Buffers {
    ids: Vec<Vec<u32>>,
    blocks: Vec<Vec<u64>>,
    flags: Vec<Vec<bool>>,
}

static POOL: Mutex<Vec<Buffers>> = Mutex::new(Vec::new());

struct LocalSlot(Option<Buffers>);

impl Drop for LocalSlot {
    fn drop(&mut self) {
        // Thread exit: park the buffers for the next worker generation.
        if let Some(bufs) = self.0.take() {
            if let Ok(mut pool) = POOL.lock() {
                if pool.len() < MAX_POOLED_SETS {
                    pool.push(bufs);
                }
            }
        }
    }
}

thread_local! {
    static LOCAL: RefCell<LocalSlot> = const { RefCell::new(LocalSlot(None)) };
}

fn with_buffers<R>(f: impl FnOnce(&mut Buffers) -> R) -> R {
    let mut f = Some(f);
    LOCAL
        .try_with(|slot| {
            let mut slot = slot.borrow_mut();
            let bufs = slot.0.get_or_insert_with(|| {
                POOL.lock()
                    .ok()
                    .and_then(|mut pool| pool.pop())
                    .unwrap_or_default()
            });
            (f.take().expect("with_buffers closure runs once"))(&mut *bufs)
        })
        // TLS already torn down (thread exit path): fall back to fresh
        // allocations / dropping the returned buffer.
        .unwrap_or_else(|_| {
            (f.take().expect("TLS path did not consume the closure"))(&mut Buffers::default())
        })
}

/// Takes an id buffer (`Vec<u32>`), cleared but with recycled capacity.
pub fn take_ids() -> Vec<u32> {
    tally(KIND_TAKE_IDS);
    let mut v = with_buffers(|b| b.ids.pop()).unwrap_or_default();
    v.clear();
    v
}

/// Returns an id buffer to the pool.
pub fn put_ids(buf: Vec<u32>) {
    tally(KIND_PUT_IDS);
    if buf.capacity() == 0 || buf.capacity() > MAX_RETAINED_CAPACITY {
        return;
    }
    with_buffers(|b| {
        if b.ids.len() < MAX_VECS_PER_KIND {
            b.ids.push(buf);
        }
    });
}

/// Takes a zeroed block buffer (`Vec<u64>`) of exactly `len` words, with
/// recycled capacity.
pub fn take_blocks(len: usize) -> Vec<u64> {
    tally(KIND_TAKE_BLOCKS);
    let mut v = with_buffers(|b| b.blocks.pop()).unwrap_or_default();
    v.clear();
    v.resize(len, 0);
    v
}

/// Returns a block buffer to the pool.
pub fn put_blocks(buf: Vec<u64>) {
    tally(KIND_PUT_BLOCKS);
    if buf.capacity() == 0 || buf.capacity() > MAX_RETAINED_CAPACITY {
        return;
    }
    with_buffers(|b| {
        if b.blocks.len() < MAX_VECS_PER_KIND {
            b.blocks.push(buf);
        }
    });
}

/// Takes a `false`-filled flag buffer (`Vec<bool>`) of exactly `len`
/// entries, with recycled capacity. Flag buffers back the per-node marker
/// maps that are rebuilt on every hierarchy pass but sized by the whole
/// hierarchy (traversal coverage, warm-patch dirtiness), so pooling them
/// keeps those maps allocation-free across augmentation rounds.
pub fn take_flags(len: usize) -> Vec<bool> {
    tally(KIND_TAKE_FLAGS);
    let mut v = with_buffers(|b| b.flags.pop()).unwrap_or_default();
    v.clear();
    v.resize(len, false);
    v
}

/// Returns a flag buffer to the pool.
pub fn put_flags(buf: Vec<bool>) {
    tally(KIND_PUT_FLAGS);
    if buf.capacity() == 0 || buf.capacity() > MAX_RETAINED_CAPACITY {
        return;
    }
    with_buffers(|b| {
        if b.flags.len() < MAX_VECS_PER_KIND {
            b.flags.push(buf);
        }
    });
}

/// How many more id and block buffers this thread's pool keeps: further
/// [`put_ids`]/[`put_blocks`] calls drop their buffer.
pub(crate) fn room() -> (usize, usize) {
    with_buffers(|b| {
        (
            MAX_VECS_PER_KIND - b.ids.len(),
            MAX_VECS_PER_KIND - b.blocks.len(),
        )
    })
}

/// Runs `f` against a zeroed `words`-long bitmap borrowed from the pool.
///
/// The buffer is taken before `f` and returned after, so `f` may itself call
/// `take_*`/`put_*` freely (no reentrancy hazard).
pub fn with_bitmap<R>(words: usize, f: impl FnOnce(&mut [u64]) -> R) -> R {
    let mut buf = take_blocks(words);
    let out = f(&mut buf);
    put_blocks(buf);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_roundtrip_preserves_capacity() {
        let mut v = take_ids();
        v.extend(0..100u32);
        let cap = v.capacity();
        put_ids(v);
        // The pool is thread-local LIFO, so the very next take on this
        // thread must hand the same buffer back: cleared, capacity intact.
        let v2 = take_ids();
        assert!(v2.is_empty());
        assert_eq!(v2.capacity(), cap);
    }

    #[test]
    fn blocks_come_back_zeroed() {
        let mut b = take_blocks(8);
        b.iter_mut().for_each(|w| *w = u64::MAX);
        put_blocks(b);
        let b2 = take_blocks(16);
        assert_eq!(b2.len(), 16);
        assert!(b2.iter().all(|&w| w == 0));
    }

    #[test]
    fn bitmap_is_zeroed_and_reentrant() {
        let sum = with_bitmap(4, |bits| {
            assert!(bits.iter().all(|&w| w == 0));
            bits[0] = 3;
            // Nested take while a bitmap is out must not panic.
            let inner = take_blocks(2);
            assert_eq!(inner.len(), 2);
            put_blocks(inner);
            bits[0]
        });
        assert_eq!(sum, 3);
    }

    #[test]
    fn flags_come_back_false() {
        let mut f = take_flags(4);
        f.iter_mut().for_each(|b| *b = true);
        put_flags(f);
        let f2 = take_flags(8);
        assert_eq!(f2.len(), 8);
        assert!(f2.iter().all(|&b| !b));
    }

    #[test]
    fn oversized_buffers_are_not_pooled() {
        let huge = Vec::with_capacity(MAX_RETAINED_CAPACITY + 1);
        put_ids(huge); // must simply drop, not panic or pool
        let zero_cap = Vec::new();
        put_blocks(zero_cap);
    }
}
