//! The `MSNP` snapshot container: a versioned, little-endian, section-based
//! binary format designed for zero-copy loading via [`Mmap`].
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic      4 bytes   b"MSNP"
//! version    u32       SNAPSHOT_VERSION
//! cache_key  u64       content hash of the inputs that produced this file
//! sections   u32       number of directory entries
//! (pad)      u32       zero
//! directory  sections × { tag: u32, pad: u32, offset: u64, len: u64 }
//! payloads   each section 8-byte aligned, zero-padded between sections
//! checksum   u64       word-mixed hash of every byte before it
//! ```
//!
//! Section payloads are opaque byte ranges; higher layers read them through
//! [`SectionReader`], which hands out zero-copy [`Column`]s after bounds
//! and alignment checks. The trailing checksum makes truncation, bit flips
//! and appended garbage all fail closed.

use crate::column::{Column, Pod};
use crate::mmap::Mmap;
use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

/// Magic bytes identifying a snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"MSNP";

/// Container format version; bumped on any layout change. Participates in
/// cache keys so stale-format snapshots are never even opened as hits.
pub const SNAPSHOT_VERSION: u32 = 2;

const HEADER_LEN: usize = 4 + 4 + 8 + 4 + 4;
const DIR_ENTRY_LEN: usize = 4 + 4 + 8 + 8;
const CHECKSUM_LEN: usize = 8;

/// Errors from opening or reading a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The file failed structural validation; the message says where.
    Corrupt(String),
    /// The file is sound but keyed to different inputs.
    KeyMismatch {
        /// The key the caller derived from the current inputs.
        expected: u64,
        /// The key stored in the snapshot header.
        found: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
            SnapshotError::KeyMismatch { expected, found } => write!(
                f,
                "snapshot cache-key mismatch: expected {expected:016x}, found {found:016x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

fn corrupt(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(msg.into())
}

/// Word-mixed checksum over `bytes`: 8 bytes at a time through an
/// FNV-style multiply-xor with a final avalanche. Roughly 8× faster than
/// byte-at-a-time FNV, which matters at tens of megabytes per snapshot.
pub fn checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ (bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().unwrap_or([0; 8]));
        h = (h ^ w).wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(PRIME);
    }
    // Final avalanche (xorshift-multiply) so short inputs still diffuse.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h
}

/// Assembles a snapshot in memory: sections are appended, then [`finish`]
/// lays them out 8-byte aligned behind the directory and seals the file
/// with the trailing checksum.
///
/// [`finish`]: SnapshotBuilder::finish
pub struct SnapshotBuilder {
    cache_key: u64,
    sections: Vec<(u32, Vec<u8>)>,
}

impl SnapshotBuilder {
    /// Starts a snapshot keyed by `cache_key`.
    pub fn new(cache_key: u64) -> SnapshotBuilder {
        SnapshotBuilder {
            cache_key,
            sections: Vec::new(),
        }
    }

    /// Appends a section and returns a writer for its payload.
    pub fn section(&mut self, tag: u32) -> SectionWriter<'_> {
        self.sections.push((tag, Vec::new()));
        let buf = &mut self
            .sections
            .last_mut()
            .unwrap_or_else(|| unreachable!("just pushed"))
            .1;
        SectionWriter { buf }
    }

    /// Serialises the container to bytes.
    pub fn finish(self) -> Vec<u8> {
        let dir_len = self.sections.len() * DIR_ENTRY_LEN;
        let mut payload_off = HEADER_LEN + dir_len;
        let mut out = Vec::with_capacity(
            payload_off
                + self
                    .sections
                    .iter()
                    .map(|(_, p)| p.len() + 8)
                    .sum::<usize>()
                + CHECKSUM_LEN,
        );
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.cache_key.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        // Directory: offsets are 8-byte aligned payload positions.
        let mut entries = Vec::with_capacity(self.sections.len());
        for (tag, payload) in &self.sections {
            payload_off = payload_off.div_ceil(8) * 8;
            entries.push((*tag, payload_off as u64, payload.len() as u64));
            payload_off += payload.len();
        }
        for (tag, off, len) in &entries {
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&0u32.to_le_bytes());
            out.extend_from_slice(&off.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
        }
        for ((_, payload), (_, off, _)) in self.sections.iter().zip(&entries) {
            out.resize(*off as usize, 0);
            out.extend_from_slice(payload);
        }
        let sum = checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Writes the container atomically: to `<path>.tmp.<pid>`, then rename,
    /// so concurrent readers only ever observe complete snapshots. Crash
    /// sites carry the `"snap"` prefix; see [`write_atomic_labeled`] to
    /// write under a different site prefix.
    ///
    /// [`write_atomic_labeled`]: SnapshotBuilder::write_atomic_labeled
    pub fn write_atomic(self, path: &Path) -> io::Result<()> {
        self.write_atomic_labeled(path, "snap")
    }

    /// Like [`write_atomic`], with the crash-site prefix named by the
    /// caller, so different artifacts sharing the container format (corpus
    /// snapshots, slice reports, augmentation checkpoints) expose distinct
    /// crash sites to the kill-anywhere harness.
    ///
    /// [`write_atomic`]: SnapshotBuilder::write_atomic
    pub fn write_atomic_labeled(self, path: &Path, site: &str) -> io::Result<()> {
        let bytes = self.finish();
        write_bytes_atomic(path, &bytes, site)
    }
}

/// Crash-site stages of [`write_bytes_atomic`], in execution order. The
/// kill-anywhere harness iterates this list (crossed with every site
/// prefix) to kill a forked CLI at each instant of the write path:
///
/// * `tmp.partial` — the temp file exists and is half-written (torn);
/// * `tmp.synced`  — the temp file is complete and fsynced, not yet visible;
/// * `renamed`     — the final name is in place, directory not yet fsynced;
/// * `dir.synced`  — everything durable (the trivial site).
pub const WRITE_CRASH_STAGES: [&str; 4] = ["tmp.partial", "tmp.synced", "renamed", "dir.synced"];

/// Crash-consistent atomic file write: `bytes` go to `<path>.tmp.<pid>`,
/// are flushed with `sync_all`, renamed over `path`, and the parent
/// directory is fsynced so the rename itself is durable. A crash at any
/// point leaves either the old file or the new one — never a torn mix —
/// plus at most an orphaned temp file that no reader ever trusts (readers
/// open `path` only). Each stage is a named [`crate::crashpoint`] site
/// `<site>.<stage>` (see [`WRITE_CRASH_STAGES`]).
pub fn write_bytes_atomic(path: &Path, bytes: &[u8], site: &str) -> io::Result<()> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        // Split the payload so the `tmp.partial` site really is a torn
        // temp file, not an empty or complete one.
        let mid = bytes.len() / 2;
        f.write_all(&bytes[..mid])?;
        crate::crashpoint::hit(site, "tmp.partial");
        f.write_all(&bytes[mid..])?;
        f.sync_all()?;
        drop(f);
        crate::crashpoint::hit(site, "tmp.synced");
        std::fs::rename(&tmp, path)?;
        crate::crashpoint::hit(site, "renamed");
        sync_parent_dir(path)?;
        crate::crashpoint::hit(site, "dir.synced");
        Ok(())
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// Fsyncs the directory containing `path`, making a just-renamed entry
/// durable. On Unix a directory opens read-only like a file and `fsync`
/// flushes its entries; elsewhere this is a no-op (rename atomicity is all
/// the platform offers).
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        std::fs::File::open(parent)?.sync_all()?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// Appends typed little-endian values to one section's payload.
pub struct SectionWriter<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> SectionWriter<'a> {
    /// Wraps a caller-owned buffer, so section payloads can be staged
    /// outside a [`SnapshotBuilder`] (e.g. cached and re-emitted later via
    /// [`SectionWriter::put_bytes`]) while sharing the same encoding
    /// primitives.
    pub fn over(buf: &'a mut Vec<u8>) -> SectionWriter<'a> {
        SectionWriter { buf }
    }
}

impl SectionWriter<'_> {
    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes (alignment is the caller's concern).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u32` length prefix followed by the string's UTF-8 bytes.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.put_bytes(s.as_bytes());
    }

    /// Appends a `[T]` column's raw bytes (no length prefix — callers
    /// record element counts themselves).
    pub fn put_column<T: Pod>(&mut self, values: &[T]) {
        // SAFETY: T: Pod has no padding, so its bytes are fully initialised.
        let bytes = unsafe {
            std::slice::from_raw_parts(values.as_ptr() as *const u8, std::mem::size_of_val(values))
        };
        self.buf.extend_from_slice(bytes);
    }

    /// Zero-pads to the next 4-byte boundary within the section.
    pub fn align4(&mut self) {
        while !self.buf.len().is_multiple_of(4) {
            self.buf.push(0);
        }
    }

    /// Zero-pads to the next 8-byte boundary within the section. Section
    /// payloads start 8-aligned in the file, so in-section alignment equals
    /// file alignment.
    pub fn align8(&mut self) {
        while !self.buf.len().is_multiple_of(8) {
            self.buf.push(0);
        }
    }
}

/// A validated, mmap-backed snapshot ready for zero-copy section reads.
pub struct Snapshot {
    map: Arc<Mmap>,
    cache_key: u64,
    /// `(tag, byte range within the mapping)` in directory order.
    directory: Vec<(u32, std::ops::Range<usize>)>,
}

impl Snapshot {
    /// Opens and validates the snapshot at `path`.
    pub fn open(path: &Path) -> Result<Snapshot, SnapshotError> {
        Self::from_mmap(Arc::new(Mmap::open(path)?))
    }

    /// Validates an in-memory container (tests, non-Unix fallback).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Snapshot, SnapshotError> {
        Self::from_mmap(Arc::new(Mmap::from_vec(bytes)))
    }

    fn from_mmap(map: Arc<Mmap>) -> Result<Snapshot, SnapshotError> {
        assert_eq!(
            u32::from_le_bytes(1u32.to_le_bytes()),
            1,
            "snapshots are little-endian only"
        );
        let bytes = map.as_bytes();
        if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
            return Err(corrupt(format!(
                "file too short for header: {} bytes",
                bytes.len()
            )));
        }
        if bytes[..4] != SNAPSHOT_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let read_u32 =
            |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap_or([0; 4]));
        let read_u64 =
            |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap_or([0; 8]));
        let version = read_u32(4);
        if version != SNAPSHOT_VERSION {
            return Err(corrupt(format!(
                "format version mismatch: file has v{version}, reader expects v{SNAPSHOT_VERSION}"
            )));
        }
        let cache_key = read_u64(8);
        let n_sections = read_u32(16) as usize;
        let payload_end = bytes.len() - CHECKSUM_LEN;
        let stored_sum = read_u64(payload_end);
        let actual_sum = checksum(&bytes[..payload_end]);
        if stored_sum != actual_sum {
            return Err(corrupt(format!(
                "checksum mismatch: stored {stored_sum:016x}, computed {actual_sum:016x}"
            )));
        }
        let dir_end = HEADER_LEN
            .checked_add(
                n_sections
                    .checked_mul(DIR_ENTRY_LEN)
                    .ok_or_else(|| corrupt(format!("section count overflows: {n_sections}")))?,
            )
            .ok_or_else(|| corrupt("directory length overflows"))?;
        if dir_end > payload_end {
            return Err(corrupt(format!(
                "directory of {n_sections} section(s) exceeds file"
            )));
        }
        let mut directory = Vec::with_capacity(n_sections);
        for i in 0..n_sections {
            let entry = HEADER_LEN + i * DIR_ENTRY_LEN;
            let tag = read_u32(entry);
            // `try_from`, not `as`: on 32-bit targets an `as usize` cast
            // wraps 64-bit offsets, and a wrapped offset can alias a
            // different (in-bounds) section instead of failing validation.
            let off = usize::try_from(read_u64(entry + 8)).map_err(|_| {
                corrupt(format!(
                    "section {tag:#x} offset exceeds the addressable range"
                ))
            })?;
            let len = usize::try_from(read_u64(entry + 16)).map_err(|_| {
                corrupt(format!(
                    "section {tag:#x} length exceeds the addressable range"
                ))
            })?;
            let end = off
                .checked_add(len)
                .ok_or_else(|| corrupt(format!("section {tag:#x} length overflows")))?;
            if off < dir_end || end > payload_end {
                return Err(corrupt(format!(
                    "section {tag:#x} out of bounds: {off}..{end} not within {dir_end}..{payload_end}"
                )));
            }
            if !off.is_multiple_of(8) {
                return Err(corrupt(format!(
                    "section {tag:#x} payload misaligned at offset {off}"
                )));
            }
            directory.push((tag, off..end));
        }
        Ok(Snapshot {
            map,
            cache_key,
            directory,
        })
    }

    /// The cache key recorded in the header.
    pub fn cache_key(&self) -> u64 {
        self.cache_key
    }

    /// Tags present, in directory order.
    pub fn tags(&self) -> impl Iterator<Item = u32> + '_ {
        self.directory.iter().map(|(t, _)| *t)
    }

    /// A reader positioned at the start of the first section tagged `tag`.
    pub fn section(&self, tag: u32) -> Result<SectionReader<'_>, SnapshotError> {
        let (_, range) = self
            .directory
            .iter()
            .find(|(t, _)| *t == tag)
            .ok_or_else(|| corrupt(format!("missing section {tag:#x}")))?;
        Ok(SectionReader {
            map: &self.map,
            start: range.start,
            end: range.end,
            pos: range.start,
        })
    }
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Snapshot")
            .field("cache_key", &format_args!("{:016x}", self.cache_key))
            .field("sections", &self.directory.len())
            .field("bytes", &self.map.len())
            .finish()
    }
}

/// Sequential typed reader over one section's payload. Every accessor
/// bounds-checks against the section range before it reads.
pub struct SectionReader<'a> {
    map: &'a Arc<Mmap>,
    start: usize,
    end: usize,
    pos: usize,
}

impl<'a> SectionReader<'a> {
    fn need(&self, n: usize, what: &str) -> Result<(), SnapshotError> {
        if self.pos.checked_add(n).is_none_or(|end| end > self.end) {
            return Err(corrupt(format!(
                "section truncated reading {what}: need {n} byte(s) at offset {}, {} remain",
                self.pos - self.start,
                self.end - self.pos
            )));
        }
        Ok(())
    }

    /// Bytes left in the section.
    pub fn remaining(&self) -> usize {
        self.end - self.pos
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self, what: &str) -> Result<u32, SnapshotError> {
        self.need(4, what)?;
        let b = &self.map.as_bytes()[self.pos..self.pos + 4];
        self.pos += 4;
        Ok(u32::from_le_bytes(b.try_into().unwrap_or([0; 4])))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self, what: &str) -> Result<u64, SnapshotError> {
        self.need(8, what)?;
        let b = &self.map.as_bytes()[self.pos..self.pos + 8];
        self.pos += 8;
        Ok(u64::from_le_bytes(b.try_into().unwrap_or([0; 8])))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self, what: &str) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64(what)?))
    }

    /// Reads a `u32` length-prefixed UTF-8 string as an owned `String`.
    pub fn get_str(&mut self, what: &str) -> Result<String, SnapshotError> {
        self.get_str_ref(what).map(str::to_owned)
    }

    /// Reads a `u32` length-prefixed UTF-8 string borrowed straight from
    /// the mapping — no allocation. Bulk string tables (the interner dump
    /// runs to hundreds of thousands of entries) re-intern through this
    /// path so each term is copied exactly once, into the interner.
    pub fn get_str_ref(&mut self, what: &str) -> Result<&'a str, SnapshotError> {
        let len = self.get_u32(what)? as usize;
        self.need(len, what)?;
        let b = &self.map.as_bytes()[self.pos..self.pos + len];
        self.pos += len;
        std::str::from_utf8(b).map_err(|_| corrupt(format!("invalid UTF-8 in {what}")))
    }

    /// Borrows `len` elements of `T` zero-copy from the mapping, advancing
    /// past them. Fails on misalignment or truncation.
    pub fn get_column<T: Pod>(
        &mut self,
        len: usize,
        what: &str,
    ) -> Result<Column<T>, SnapshotError> {
        let bytes = len
            .checked_mul(std::mem::size_of::<T>())
            .ok_or_else(|| corrupt(format!("{what}: column length overflows")))?;
        self.need(bytes, what)?;
        let col = Column::mapped(Arc::clone(self.map), self.pos, len).ok_or_else(|| {
            corrupt(format!(
                "{what}: column misaligned at file offset {}",
                self.pos
            ))
        })?;
        self.pos += bytes;
        Ok(col)
    }

    /// Skips zero padding to the next 4-byte file boundary.
    pub fn align4(&mut self) -> Result<(), SnapshotError> {
        while !self.pos.is_multiple_of(4) {
            self.need(1, "alignment padding")?;
            self.pos += 1;
        }
        Ok(())
    }

    /// Skips zero padding to the next 8-byte file boundary.
    pub fn align8(&mut self) -> Result<(), SnapshotError> {
        while !self.pos.is_multiple_of(8) {
            self.need(1, "alignment padding")?;
            self.pos += 1;
        }
        Ok(())
    }

    /// Asserts the section has been fully consumed — trailing bytes inside
    /// a section mean the writer and reader disagree about the layout.
    pub fn expect_end(&self, what: &str) -> Result<(), SnapshotError> {
        if self.pos != self.end {
            return Err(corrupt(format!(
                "{} trailing byte(s) after {what}",
                self.end - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut b = SnapshotBuilder::new(0xdead_beef_1234_5678);
        let mut s = b.section(0x10);
        s.put_u32(3);
        s.put_column::<u32>(&[7, 8, 9]);
        let mut s = b.section(0x20);
        s.put_str("hello");
        s.align8();
        s.put_column::<u64>(&[u64::MAX, 42]);
        b.finish()
    }

    #[test]
    fn round_trips_sections_and_key() {
        let snap = Snapshot::from_bytes(sample()).unwrap();
        assert_eq!(snap.cache_key(), 0xdead_beef_1234_5678);
        assert_eq!(snap.tags().collect::<Vec<_>>(), vec![0x10, 0x20]);

        let mut s = snap.section(0x10).unwrap();
        let n = s.get_u32("count").unwrap() as usize;
        let col = s.get_column::<u32>(n, "values").unwrap();
        assert!(col.is_mapped());
        assert_eq!(&*col, &[7, 8, 9]);
        s.expect_end("section 0x10").unwrap();

        let mut s = snap.section(0x20).unwrap();
        assert_eq!(s.get_str("greeting").unwrap(), "hello");
        s.align8().unwrap();
        let col = s.get_column::<u64>(2, "words").unwrap();
        assert_eq!(&*col, &[u64::MAX, 42]);
        s.expect_end("section 0x20").unwrap();
    }

    #[test]
    fn rejects_truncation_at_every_prefix() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            assert!(
                Snapshot::from_bytes(bytes[..cut].to_vec()).is_err(),
                "prefix of {cut} bytes must be rejected"
            );
        }
    }

    #[test]
    fn rejects_any_single_bit_flip() {
        let bytes = sample();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                Snapshot::from_bytes(bad).is_err(),
                "bit flip at byte {i} must be rejected"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = sample();
        bytes.extend_from_slice(b"extra");
        assert!(Snapshot::from_bytes(bytes).is_err());
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bad = sample();
        bad[0] = b'X';
        assert!(matches!(
            Snapshot::from_bytes(bad),
            Err(SnapshotError::Corrupt(m)) if m.contains("magic")
        ));

        // A version bump must re-seal the checksum to reach the version
        // check — proving validation order (checksum already covers it).
        let mut b = SnapshotBuilder::new(1).finish();
        b[4] = SNAPSHOT_VERSION as u8 + 1;
        let sum = checksum(&b[..b.len() - 8]).to_le_bytes();
        let n = b.len();
        b[n - 8..].copy_from_slice(&sum);
        assert!(matches!(
            Snapshot::from_bytes(b),
            Err(SnapshotError::Corrupt(m)) if m.contains("version")
        ));
    }

    #[test]
    fn rejects_a_legacy_mkb1_file() {
        // A knowledge base in the retired MKB1 layout: magic, string
        // table, fact table. It must fail closed, never be misread.
        let mut old = b"MKB1".to_vec();
        old.extend_from_slice(&1u32.to_le_bytes());
        old.extend_from_slice(&4u32.to_le_bytes());
        old.extend_from_slice(b"NASA");
        old.extend_from_slice(&1u32.to_le_bytes());
        old.extend_from_slice(&[0u8; 12]);
        assert!(matches!(
            Snapshot::from_bytes(old),
            Err(SnapshotError::Corrupt(m)) if m.contains("magic")
        ));
    }

    #[test]
    fn missing_section_and_over_read_fail() {
        let snap = Snapshot::from_bytes(sample()).unwrap();
        assert!(snap.section(0x99).is_err());
        let mut s = snap.section(0x10).unwrap();
        assert!(s.get_column::<u32>(64, "too many").is_err());
    }

    #[test]
    fn out_of_range_directory_entry_fails_closed() {
        // Force the second directory entry's length to u64::MAX and re-seal
        // the checksum so validation reaches the bounds logic. On 64-bit
        // hosts the huge length overflows `off + len`; on 32-bit hosts the
        // `try_from` narrowing refuses it first. Either way the file must
        // surface as `Corrupt` (the quarantine-and-heal route), never as a
        // silently-aliased section.
        let mut bytes = sample();
        let entry = HEADER_LEN + DIR_ENTRY_LEN; // second section's entry
        bytes[entry + 16..entry + 24].copy_from_slice(&u64::MAX.to_le_bytes());
        let sum = checksum(&bytes[..bytes.len() - CHECKSUM_LEN]).to_le_bytes();
        let n = bytes.len();
        bytes[n - CHECKSUM_LEN..].copy_from_slice(&sum);
        assert!(matches!(
            Snapshot::from_bytes(bytes),
            Err(SnapshotError::Corrupt(m))
                if m.contains("section") && (m.contains("overflow") || m.contains("addressable"))
        ));
    }

    #[test]
    fn checksum_differentiates_lengths_and_contents() {
        assert_ne!(checksum(b""), checksum(b"\0"));
        assert_ne!(checksum(b"\0\0"), checksum(b"\0"));
        assert_ne!(checksum(b"abcdefgh"), checksum(b"abcdefgi"));
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = Snapshot::from_bytes(SnapshotBuilder::new(7).finish()).unwrap();
        assert_eq!(snap.cache_key(), 7);
        assert_eq!(snap.tags().count(), 0);
    }

    #[test]
    fn write_atomic_then_open() {
        let path = std::env::temp_dir().join(format!("midas-snap-{}.snap", std::process::id()));
        let mut b = SnapshotBuilder::new(11);
        b.section(1).put_u32(99);
        b.write_atomic(&path).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        assert_eq!(snap.cache_key(), 11);
        let mut s = snap.section(1).unwrap();
        assert_eq!(s.get_u32("v").unwrap(), 99);
        std::fs::remove_file(&path).ok();
    }
}
