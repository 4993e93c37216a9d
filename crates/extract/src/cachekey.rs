//! Content-addressed cache keys for corpus snapshots.
//!
//! A snapshot is only valid for the exact inputs and configuration it was
//! extracted from. The key is a 64-bit FNV-style hash over *labelled* parts —
//! each part is fed as `label \0 length \0 bytes`, so reordering parts,
//! moving bytes between parts, or concatenation ambiguities all change the
//! key. The snapshot format version is mixed in first: a format bump
//! invalidates every existing cache entry without any migration logic.
//!
//! Input corpora run to tens of megabytes and the key is recomputed on
//! every warm start, so the bulk of each part is consumed eight bytes at a
//! time (little-endian words with a multiply-xorshift round each); only the
//! sub-word tail falls back to byte-at-a-time FNV-1a.
//!
//! An input file need not be held in memory to be hashed. A part can be fed
//! in pieces ([`CacheKey::stream_part`]): its length, known up front from
//! the file's metadata, is mixed in first as for [`CacheKey::part`], and a
//! carry of at most seven bytes keeps the word rounds aligned across
//! pieces, so any split of the bytes gives the one-shot key. Finishing a
//! part whose fed bytes do not add up to its stated length is a
//! [`LengthMismatch`].
//!
//! ```
//! use midas_extract::cachekey::CacheKey;
//! let key = CacheKey::new()
//!     .part("facts", b"http://a.com/x\te\tp\tv\n")
//!     .part("config", b"lenient=false")
//!     .finish();
//! assert_ne!(key, CacheKey::new().finish());
//! ```

use midas_kb::SNAPSHOT_VERSION;
use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Odd 64-bit constant (golden-ratio based) for the word-at-a-time rounds.
const MIX_PRIME: u64 = 0x9e37_79b9_7f4a_7c15;

/// Incremental builder for a snapshot cache key.
#[derive(Debug, Clone, Copy)]
pub struct CacheKey {
    h: u64,
}

impl CacheKey {
    /// Starts a key seeded with the snapshot format version.
    #[allow(clippy::new_without_default)]
    pub fn new() -> CacheKey {
        CacheKey { h: FNV_OFFSET }.part("format", &SNAPSHOT_VERSION.to_le_bytes())
    }

    fn word(&mut self, w: [u8; 8]) {
        self.h = (self.h ^ u64::from_le_bytes(w)).wrapping_mul(MIX_PRIME);
        self.h ^= self.h >> 32;
    }

    fn byte(&mut self, b: u8) {
        self.h ^= u64::from(b);
        self.h = self.h.wrapping_mul(FNV_PRIME);
    }

    /// Mixes in the whole words of `bytes` and returns the sub-word tail.
    fn words<'b>(&mut self, bytes: &'b [u8]) -> &'b [u8] {
        let mut words = bytes.chunks_exact(8);
        for c in &mut words {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            self.word(w);
        }
        words.remainder()
    }

    fn eat(mut self, bytes: &[u8]) -> CacheKey {
        for &b in self.words(bytes) {
            self.byte(b);
        }
        self
    }

    /// Mixes in one labelled part. Order is significant.
    pub fn part(self, label: &str, bytes: &[u8]) -> CacheKey {
        self.eat(label.as_bytes())
            .eat(&[0])
            .eat(&(bytes.len() as u64).to_le_bytes())
            .eat(&[0])
            .eat(bytes)
    }

    /// Starts a labelled part of `len` bytes that arrive in pieces
    /// ([`PartStream::feed`]). The key it finishes is [`CacheKey::part`]'s
    /// for the same bytes, however they are split.
    pub fn stream_part(self, label: &str, len: u64) -> PartStream {
        PartStream {
            key: self
                .eat(label.as_bytes())
                .eat(&[0])
                .eat(&len.to_le_bytes())
                .eat(&[0]),
            stated: len,
            fed: 0,
            carry: [0; 8],
            carried: 0,
        }
    }

    /// Finishes the key with an avalanche mix, so single-bit input changes
    /// diffuse into the high bits as well.
    pub fn finish(self) -> u64 {
        let mut h = self.h;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        h
    }
}

/// A part being fed in pieces (see [`CacheKey::stream_part`]).
#[derive(Debug, Clone)]
pub struct PartStream {
    key: CacheKey,
    stated: u64,
    fed: u64,
    /// The bytes of an unfinished word, waiting for the next piece.
    carry: [u8; 8],
    carried: usize,
}

impl PartStream {
    /// Mixes in the next piece of the part's bytes.
    pub fn feed(&mut self, mut bytes: &[u8]) {
        self.fed += bytes.len() as u64;
        if self.carried > 0 {
            let take = (8 - self.carried).min(bytes.len());
            self.carry[self.carried..self.carried + take].copy_from_slice(&bytes[..take]);
            self.carried += take;
            bytes = &bytes[take..];
            if self.carried < 8 {
                return;
            }
            self.key.word(self.carry);
            self.carried = 0;
        }
        let tail = self.key.words(bytes);
        self.carry[..tail.len()].copy_from_slice(tail);
        self.carried = tail.len();
    }

    /// The number of bytes fed so far.
    pub fn fed(&self) -> u64 {
        self.fed
    }

    /// Ends the part. Fails when the bytes fed do not add up to the length
    /// stated when the part began: the key would name bytes that were not
    /// hashed.
    pub fn finish(self) -> Result<CacheKey, LengthMismatch> {
        if self.fed != self.stated {
            return Err(LengthMismatch {
                stated: self.stated,
                fed: self.fed,
            });
        }
        Ok(self.close())
    }

    /// Mixes in the sub-word tail byte by byte, as [`CacheKey::part`] ends
    /// a part given whole.
    fn close(self) -> CacheKey {
        let mut key = self.key;
        for &b in &self.carry[..self.carried] {
            key.byte(b);
        }
        key
    }
}

/// A streamed part whose fed bytes differ from its stated length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LengthMismatch {
    /// The length mixed into the key when the part began.
    pub stated: u64,
    /// The bytes actually fed.
    pub fed: u64,
}

impl fmt::Display for LengthMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "read {} bytes of a stated {}", self.fed, self.stated)
    }
}

impl std::error::Error for LengthMismatch {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_parts_produce_identical_keys() {
        let a = CacheKey::new()
            .part("facts", b"abc")
            .part("kb", b"")
            .finish();
        let b = CacheKey::new()
            .part("facts", b"abc")
            .part("kb", b"")
            .finish();
        assert_eq!(a, b);
    }

    #[test]
    fn any_input_change_changes_the_key() {
        let base = CacheKey::new()
            .part("facts", b"abc")
            .part("kb", b"x")
            .finish();
        let byte_flip = CacheKey::new()
            .part("facts", b"abd")
            .part("kb", b"x")
            .finish();
        let moved = CacheKey::new()
            .part("facts", b"abcx")
            .part("kb", b"")
            .finish();
        let relabel = CacheKey::new()
            .part("kb", b"abc")
            .part("facts", b"x")
            .finish();
        assert_ne!(base, byte_flip);
        assert_ne!(base, moved, "bytes cannot migrate between parts");
        assert_ne!(base, relabel, "labels are part of the key");
    }

    #[test]
    fn empty_parts_still_count() {
        let none = CacheKey::new().finish();
        let empty = CacheKey::new().part("facts", b"").finish();
        assert_ne!(none, empty);
    }

    /// The key of a fixed input is pinned: a change that silently alters
    /// every key (and with it every snapshot, slice and checkpoint file
    /// name) fails here.
    #[test]
    fn key_of_a_fixed_input_is_pinned() {
        let key = CacheKey::new()
            .part(
                "facts",
                b"http://a.com/x\te1\tp\tv1\nhttp://b.com\te2\tq\tv2\n",
            )
            .part("kb", b"e1\tp\tv1\n")
            .part("config", b"strict")
            .finish();
        assert_eq!(key, GOLDEN_KEY, "{key:#018x}");
    }

    const GOLDEN_KEY: u64 = 0x9233_f250_6dc2_d6b3;

    #[test]
    fn a_short_part_is_refused() {
        let mut part = CacheKey::new().stream_part("facts", 10);
        part.feed(b"1234567");
        assert_eq!(part.fed(), 7);
        assert_eq!(
            part.finish().unwrap_err(),
            LengthMismatch { stated: 10, fed: 7 }
        );
        let mut part = CacheKey::new().stream_part("facts", 2);
        part.feed(b"123");
        assert!(part.finish().is_err(), "a longer part is refused too");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any split of a part into pieces gives the one-shot key: pieces
        /// of every length, multiples of eight or not, and empty ones.
        #[test]
        fn any_split_gives_the_one_shot_key(
            bytes in proptest::collection::vec(any::<u8>(), 0..80),
            cuts in proptest::collection::vec(0u8..90, 0..8),
        ) {
            let whole = CacheKey::new().part("facts", &bytes).part("kb", b"x").finish();
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| (c as usize).min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut part = CacheKey::new().stream_part("facts", bytes.len() as u64);
            let mut from = 0;
            for cut in cuts {
                part.feed(&bytes[from..cut]);
                from = cut;
            }
            part.feed(&bytes[from..]);
            let streamed = part.finish().unwrap().part("kb", b"x").finish();
            prop_assert_eq!(streamed, whole);
        }
    }
}
