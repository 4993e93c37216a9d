//! `--snapshot-cache`: content-addressed corpus snapshots for the CLI.
//!
//! The cache key hashes the raw facts and kb file bytes together with the
//! snapshot format version ([`midas_extract::cachekey`]), so any edit to
//! either input, or a format bump, addresses a different snapshot file. The
//! key pass reads each input with positioned reads through one bounded
//! buffer; no input is mapped, so what a run holds resident does not grow
//! with its input files. A hit memory-maps the snapshot and skips TSV
//! parsing, sorting, and fact-table construction entirely; a miss parses
//! the same open files again, builds as usual, then writes the snapshot for
//! the next run. A stale or damaged snapshot is never trusted: it is moved
//! into the cache's `quarantine/` subdirectory with a reason file
//! ([`crate::cache_dir::CacheDir::quarantine`]) and the run falls back to
//! cold extraction (mirroring the quarantine philosophy — degrade loudly,
//! never abort, never corrupt results).
//!
//! The directory is safe to share between concurrent processes: all access
//! goes through [`CacheDir`]'s advisory locks (shared to read, exclusive to
//! write/evict/quarantine), and every file is written via the
//! crash-consistent rename path. An entry evicted while another process has
//! it mapped stays valid — the unlink removes the name, the inode lives on
//! under the mapping.
//!
//! Lenient ingestion and armed fault-injection plans bypass the cache: both
//! can drop records or whole sources at parse time, and a snapshot of a
//! partial corpus keyed only by input bytes would replay those drops into
//! runs that did not ask for them.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::args::CliError;
use crate::cache_dir::CacheDir;
use crate::facts_io::{self, Ingest, Input};
use midas_core::telemetry;
use midas_core::{
    faultinject, snapshot, CostModel, DiscoveredSlice, FactTable, SourceFacts, SourceFault,
};
use midas_extract::CacheKey;
use midas_kb::{Interner, KnowledgeBase};
use midas_weburl::SourceUrl;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Read};

/// Cache traffic counters. Byte volumes are sampled from file metadata and
/// only when telemetry is enabled (the extra stat is not free); the event
/// counters mirror the human-readable notes one-for-one, so a metrics
/// snapshot reconciles with the note trailer of the same run. One span
/// each times the key pass, the snapshot lookup, and the slice-report read
/// and write.
mod metrics {
    midas_core::histogram!(pub KEY_NS, "snapshot_cache.key_ns");
    midas_core::histogram!(pub READ_NS, "snapshot_cache.read_ns");
    midas_core::histogram!(pub SLICE_READ_NS, "slice_cache.read_ns");
    midas_core::histogram!(pub SLICE_WRITE_NS, "slice_cache.write_ns");
    midas_core::counter!(pub HITS, "snapshot_cache.hits");
    midas_core::counter!(pub MISSES, "snapshot_cache.misses");
    midas_core::counter!(pub STALE, "snapshot_cache.stale");
    midas_core::counter!(pub HEALS, "snapshot_cache.heals");
    midas_core::counter!(pub EVICTIONS, "snapshot_cache.evictions");
    midas_core::counter!(pub BYPASSES, "snapshot_cache.bypasses");
    midas_core::counter!(pub SLICE_HITS, "snapshot_cache.slice_hits");
    midas_core::counter!(pub SLICE_WRITES, "snapshot_cache.slice_writes");
    midas_core::counter!(pub BYTES_READ, "snapshot_cache.bytes_read");
    midas_core::counter!(pub BYTES_WRITTEN, "snapshot_cache.bytes_written");
}

/// Records the on-disk size of `path` into `sink` (telemetry-enabled runs
/// only; the stat call is skipped otherwise).
fn record_entry_bytes(path: &std::path::Path, sink: &'static midas_core::telemetry::Counter) {
    if telemetry::enabled() {
        if let Ok(meta) = std::fs::metadata(path) {
            sink.add(meta.len());
        }
    }
}

/// An open snapshot-cache directory plus the corpus key of the current run:
/// everything later stages (slice caching, augmentation checkpoints) need
/// to address and maintain their own entries.
pub struct CacheSession {
    /// The locked-access directory handle.
    pub dir: CacheDir,
    /// Cache key of this run's corpus (facts + kb bytes + format version).
    pub corpus_key: u64,
    /// `--snapshot-cache-max-bytes`: total `.snap` size cap, if any.
    pub max_bytes: Option<u64>,
}

impl CacheSession {
    /// Enforces the size cap (if configured), never evicting `keep`.
    /// Eviction failure degrades to a note — an over-full cache is not a
    /// reason to fail a run that already has its results.
    pub fn enforce_cap(&self, keep: &str, notes: &mut Vec<String>) {
        let Some(max) = self.max_bytes else { return };
        match self.dir.evict(max, keep) {
            Ok(evicted) if evicted.is_empty() => {}
            Ok(evicted) => {
                metrics::EVICTIONS.add(evicted.len() as u64);
                notes.push(format!(
                    "snapshot cache: evicted {} (cap {max} bytes)",
                    evicted.join(", ")
                ));
            }
            Err(e) => notes.push(format!("snapshot cache: eviction failed: {e}")),
        }
    }
}

/// Everything a run needs, plus (on the cached path) prebuilt round-0 fact
/// tables and human-readable notes about cache activity.
pub struct LoadedInputs {
    /// The shared interner.
    pub terms: Interner,
    /// Per-source fact sets.
    pub sources: Vec<SourceFacts>,
    /// The knowledge base to augment.
    pub kb: KnowledgeBase,
    /// Faults quarantined while reading (lenient mode only).
    pub read_faults: Vec<SourceFault>,
    /// Prebuilt fact tables keyed by source URL, when the snapshot path was
    /// taken (hit or freshly written miss). `None` on the plain cold path.
    pub tables: Option<BTreeMap<SourceUrl, FactTable>>,
    /// Cache activity notes for the operator (hits, bypasses, fallbacks).
    pub notes: Vec<String>,
    /// The open cache directory, when the snapshot path was taken. Carries
    /// the corpus key forward for slice caching and checkpoints.
    pub session: Option<CacheSession>,
}

/// The snapshot file name addressing a corpus cache key.
pub fn snapshot_name(key: u64) -> String {
    format!("midas-{key:016x}.snap")
}

/// Derives the key addressing a cached slice report: the corpus plus every
/// knob that changes which slices the algorithm reports. Rendering flags
/// (`--top`, `--csv`, `--explain`) and the schedule knob (`--threads`) are
/// excluded — they do not affect the slice set.
pub fn slices_key(corpus_key: u64, algorithm: &str, cost: &CostModel) -> u64 {
    CacheKey::new()
        .part("corpus", &corpus_key.to_le_bytes())
        .part("algorithm", algorithm.as_bytes())
        .part("fp", &cost.fp.to_bits().to_le_bytes())
        .part("fc", &cost.fc.to_bits().to_le_bytes())
        .part("fd", &cost.fd.to_bits().to_le_bytes())
        .part("fv", &cost.fv.to_bits().to_le_bytes())
        .part("kind", b"slices")
        .finish()
}

/// The slice-report file name addressing a slices cache key.
pub fn slices_name(key: u64) -> String {
    format!("midas-{key:016x}-slices.snap")
}

/// Loads a cached slice report, or `None` on miss. A damaged or stale-keyed
/// report is quarantined (with a note) and treated as a miss.
pub fn load_cached_slices(
    session: &CacheSession,
    key: u64,
    terms: &mut Interner,
    notes: &mut Vec<String>,
) -> Option<Vec<DiscoveredSlice>> {
    let _span = telemetry::span("slice_cache.read", &metrics::SLICE_READ_NS);
    let name = slices_name(key);
    let path = session.dir.entry_path(&name);
    let failure;
    {
        let _read = session.dir.shared().ok()?;
        if !path.exists() {
            return None;
        }
        match snapshot::load_slices(&path, key, terms) {
            Ok(slices) => {
                drop(_read);
                if let Ok(_write) = session.dir.exclusive() {
                    if let Err(e) = session.dir.touch(&name) {
                        notes.push(format!("snapshot cache: manifest update failed: {e}"));
                    }
                }
                metrics::SLICE_HITS.inc();
                record_entry_bytes(&path, &metrics::BYTES_READ);
                notes.push(format!("slice cache hit: {}", path.display()));
                return Some(slices);
            }
            Err(e) => failure = Some(e.to_string()),
        }
    }
    if let Some(reason) = failure {
        quarantine_entry(&session.dir, &name, &reason, notes);
    }
    None
}

/// Persists a slice report for future identical runs, then enforces the
/// size cap. Failures degrade to notes.
pub fn store_slices(
    session: &CacheSession,
    key: u64,
    terms: &Interner,
    slices: &[DiscoveredSlice],
    notes: &mut Vec<String>,
) {
    let _span = telemetry::span("slice_cache.write", &metrics::SLICE_WRITE_NS);
    let name = slices_name(key);
    let path = session.dir.entry_path(&name);
    let Ok(_write) = session.dir.exclusive() else {
        notes.push("snapshot cache: could not lock for slice write".to_owned());
        return;
    };
    if let Err(e) = snapshot::save_slices(&path, key, terms, slices) {
        notes.push(format!(
            "snapshot cache: failed to write {}: {e}",
            path.display()
        ));
        return;
    }
    if let Err(e) = session.dir.touch(&name) {
        notes.push(format!("snapshot cache: manifest update failed: {e}"));
    }
    metrics::SLICE_WRITES.inc();
    record_entry_bytes(&path, &metrics::BYTES_WRITTEN);
    notes.push(format!("slice cache write: {}", path.display()));
    session.enforce_cap(&name, notes);
}

/// Quarantines a damaged cache entry under the exclusive lock, noting the
/// outcome either way.
fn quarantine_entry(cache: &CacheDir, name: &str, reason: &str, notes: &mut Vec<String>) {
    metrics::STALE.inc();
    let quarantined = cache
        .exclusive()
        .and_then(|_write| cache.quarantine(name, reason));
    match quarantined {
        Ok(dest) => notes.push(format!(
            "snapshot cache: quarantined {} ({reason}); re-extracting",
            dest.display()
        )),
        Err(e) => notes.push(format!(
            "snapshot cache: ignoring {name} ({reason}); quarantine failed: {e}"
        )),
    }
}

/// Loads facts + kb on one thread: [`load_inputs`] at `threads = 1`.
///
/// Kept only because the benchmark's traced replay (`perfbench/tracer`)
/// compiles against this signature; it goes when ROADMAP item 3 retires
/// the replay.
pub fn load_inputs_cached(
    facts_path: &str,
    kb_path: Option<&str>,
    lenient: bool,
    cache_dir: Option<&str>,
    max_bytes: Option<u64>,
) -> Result<LoadedInputs, CliError> {
    load_inputs(facts_path, kb_path, lenient, cache_dir, max_bytes, 1)
}

/// Loads facts + kb, going through the snapshot cache when `cache_dir` is
/// set and the run is strict (no lenient ingestion, no armed fault plan).
/// Parsing runs on `threads` pool workers (see [`facts_io`]); the result
/// is the same at every thread count.
///
/// The files are parsed one at a time — facts, then kb — each read in
/// bounded chunks ([`facts_io`]), so a load never holds an input file in
/// memory. A cached run opens each input once: the key pass hashes it with
/// positioned reads through one buffer of 1 MiB, and on a miss ingest
/// reads the same open file, so a rename that replaces an input between
/// the two passes cannot mix two inputs. An input that is not a regular
/// file (a pipe) is read to the end once, and both passes read that
/// buffer.
///
/// This is the one entry point the CLI uses; [`load_inputs_cached`],
/// [`facts_io::read_facts`] and [`facts_io::read_kb`] are one-thread
/// wrappers over the same path, kept for the benchmark's traced replay
/// until ROADMAP item 3 retires it.
pub fn load_inputs(
    facts_path: &str,
    kb_path: Option<&str>,
    lenient: bool,
    cache_dir: Option<&str>,
    max_bytes: Option<u64>,
    threads: usize,
) -> Result<LoadedInputs, CliError> {
    let cold = |notes| load_cold(facts_path, kb_path, lenient, threads, notes);
    let Some(dir) = cache_dir else {
        return cold(Vec::new());
    };
    if lenient {
        metrics::BYPASSES.inc();
        return cold(vec![
            "snapshot cache bypassed: --lenient runs are not cacheable".to_owned(),
        ]);
    }
    if faultinject::armed() {
        metrics::BYPASSES.inc();
        return cold(vec![
            "snapshot cache bypassed: fault-injection plan armed".to_owned()
        ]);
    }
    let cache = match CacheDir::open(dir) {
        Ok(cache) => cache,
        Err(e) => {
            return cold(vec![format!("snapshot cache unavailable ({dir}): {e}")]);
        }
    };
    let mut notes = Vec::new();

    // Opportunistic hygiene: clear temp files of writers that died before
    // their rename. Never blocks the run.
    if let Ok(_write) = cache.exclusive() {
        match cache.sweep_orphans() {
            Ok(swept) if !swept.is_empty() => {
                notes.push(format!(
                    "snapshot cache: swept orphans {}",
                    swept.join(", ")
                ));
            }
            _ => {}
        }
    }

    let mut facts = Input::open(facts_path)?;
    let mut kb_input = kb_path.map(Input::open).transpose()?;
    let key = {
        let _span = telemetry::span("snapshot_cache.key", &metrics::KEY_NS);
        let mut buf = vec![0; KEY_BUFFER_BYTES];
        let key = hash_input(CacheKey::new(), "facts", &mut facts, &mut buf)?;
        let key = match &mut kb_input {
            Some(kb) => hash_input(key, "kb", kb, &mut buf)?,
            None => key.part("kb", &[]),
        };
        key.part("config", b"strict").finish()
    };
    let name = snapshot_name(key);
    let path = cache.entry_path(&name);

    let mut hit = None;
    let mut failure = None;
    if let Ok(_read) = cache.shared() {
        let _span = telemetry::span("snapshot_cache.read", &metrics::READ_NS);
        if path.exists() {
            match snapshot::load_corpus(&path, key) {
                Ok(corpus) => hit = Some(corpus),
                Err(e) => failure = Some(e.to_string()),
            }
        }
    }
    let healing = failure.is_some();
    if let Some(reason) = failure {
        quarantine_entry(&cache, &name, &reason, &mut notes);
    }
    let session = CacheSession {
        dir: cache,
        corpus_key: key,
        max_bytes,
    };
    if let Some(corpus) = hit {
        metrics::HITS.inc();
        record_entry_bytes(&path, &metrics::BYTES_READ);
        if let Ok(_write) = session.dir.exclusive() {
            if let Err(e) = session.dir.touch(&name) {
                notes.push(format!("snapshot cache: manifest update failed: {e}"));
            }
            session.enforce_cap(&name, &mut notes);
        }
        let tables = corpus
            .sources
            .iter()
            .map(|s| s.url.clone())
            .zip(corpus.tables)
            .collect();
        notes.push(format!("snapshot cache hit: {}", path.display()));
        return Ok(LoadedInputs {
            terms: corpus.terms,
            sources: corpus.sources,
            kb: corpus.kb,
            read_faults: Vec::new(),
            tables: Some(tables),
            notes,
            session: Some(session),
        });
    }

    // Miss (or quarantined snapshot): parse the inputs the key pass hashed,
    // build the round-0 tables once, and persist them for the next run. The
    // tables feed straight into the run, so the build is not extra work.
    metrics::MISSES.inc();
    let mut terms = Interner::new();
    let (sources, _) = facts_io::parse_facts(facts.reader()?, &mut terms, Ingest::Strict, threads)?;
    drop(facts);
    let kb = match kb_input {
        Some(input) => facts_io::parse_kb(input.reader()?, &mut terms, threads)?,
        None => KnowledgeBase::new(),
    };
    let tables: Vec<FactTable> = sources.iter().map(|s| FactTable::build(s, &kb)).collect();
    {
        let lock = session.dir.exclusive();
        match lock {
            Ok(_write) => {
                if let Err(e) = snapshot::save_corpus(&path, key, &terms, &sources, &kb, &tables) {
                    notes.push(format!(
                        "snapshot cache: failed to write {}: {e}",
                        path.display()
                    ));
                } else {
                    if healing {
                        metrics::HEALS.inc();
                    }
                    record_entry_bytes(&path, &metrics::BYTES_WRITTEN);
                    if let Err(e) = session.dir.touch(&name) {
                        notes.push(format!("snapshot cache: manifest update failed: {e}"));
                    }
                    notes.push(format!("snapshot cache write: {}", path.display()));
                    session.enforce_cap(&name, &mut notes);
                }
            }
            Err(e) => notes.push(format!("snapshot cache: could not lock for write: {e}")),
        }
    }
    let tables = sources.iter().map(|s| s.url.clone()).zip(tables).collect();
    Ok(LoadedInputs {
        terms,
        sources,
        kb,
        read_faults: Vec::new(),
        tables: Some(tables),
        notes,
        session: Some(session),
    })
}

/// The read buffer of the key pass: one buffer, whatever the inputs' size.
const KEY_BUFFER_BYTES: usize = 1 << 20;

/// Mixes `input` into `key` as part `label`. A regular file is hashed with
/// positioned reads through `buf`, against the length it had when opened.
/// A stream can be read only once, so it is read to the end here and the
/// buffer replaces it, for ingest to read the hashed bytes again.
fn hash_input(
    key: CacheKey,
    label: &str,
    input: &mut Input,
    buf: &mut [u8],
) -> Result<CacheKey, CliError> {
    match input {
        Input::File { file, len } => {
            hash_part(key, label, *len, buf, |buf, at| read_at(file, buf, at))
        }
        Input::Bytes(bytes) => Ok(key.part(label, bytes)),
        Input::Stream(file) => {
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)?;
            let key = key.part(label, &bytes);
            *input = Input::Bytes(bytes);
            Ok(key)
        }
    }
}

/// Hashes the `len` bytes that `read_at` returns as part `label`, one
/// buffer at a time. A source that holds fewer or more bytes than `len` —
/// a file that changed since its length was taken — is an error, so no
/// key names bytes that were not hashed.
fn hash_part(
    key: CacheKey,
    label: &str,
    len: u64,
    buf: &mut [u8],
    mut read_at: impl FnMut(&mut [u8], u64) -> io::Result<usize>,
) -> Result<CacheKey, CliError> {
    let mut part = key.stream_part(label, len);
    while part.fed() <= len {
        match read_at(buf, part.fed()) {
            Ok(0) => break,
            Ok(n) => part.feed(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    part.finish().map_err(|e| {
        CliError::Io(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("the {label} input changed while the cache key was read: {e}"),
        ))
    })
}

#[cfg(unix)]
fn read_at(file: &File, buf: &mut [u8], at: u64) -> io::Result<usize> {
    std::os::unix::fs::FileExt::read_at(file, buf, at)
}

#[cfg(not(unix))]
fn read_at(mut file: &File, buf: &mut [u8], at: u64) -> io::Result<usize> {
    use std::io::{Seek, SeekFrom};
    file.seek(SeekFrom::Start(at))?;
    file.read(buf)
}

fn load_cold(
    facts_path: &str,
    kb_path: Option<&str>,
    lenient: bool,
    threads: usize,
    notes: Vec<String>,
) -> Result<LoadedInputs, CliError> {
    let mut terms = Interner::new();
    let ingest = if lenient {
        Ingest::Lenient { file: facts_path }
    } else {
        Ingest::Strict
    };
    let (sources, read_faults) = facts_io::load_facts(facts_path, &mut terms, ingest, threads)?;
    let kb = match kb_path {
        Some(p) => facts_io::load_kb(p, &mut terms, threads)?,
        None => KnowledgeBase::new(),
    };
    Ok(LoadedInputs {
        terms,
        sources,
        kb,
        read_faults,
        tables: None,
        notes,
        session: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache_dir::QUARANTINE_DIR;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("midas_snapcache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_corpus(dir: &std::path::Path) -> (String, String) {
        let facts = dir.join("facts.tsv");
        let kb = dir.join("kb.tsv");
        std::fs::write(
            &facts,
            "http://a.com/x\te1\tp\tv1\nhttp://a.com/y\te2\tp\tv2\nhttp://b.com\te3\tq\tv3\n",
        )
        .unwrap();
        std::fs::write(&kb, "e1\tp\tv1\n").unwrap();
        (
            facts.to_str().unwrap().to_owned(),
            kb.to_str().unwrap().to_owned(),
        )
    }

    fn load(facts: &str, kb: &str, lenient: bool, cache: &str) -> LoadedInputs {
        load_inputs(facts, Some(kb), lenient, Some(cache), None, 1).unwrap()
    }

    #[test]
    fn miss_writes_then_hit_maps_the_same_corpus() {
        let dir = tmpdir("misshit");
        let cache = dir.join("cache");
        let cache_s = cache.to_str().unwrap();
        let (facts, kb) = write_corpus(&dir);

        let cold = load(&facts, &kb, false, cache_s);
        assert!(
            cold.notes.iter().any(|n| n.contains("write")),
            "{:?}",
            cold.notes
        );
        assert!(cold.tables.is_some());
        let session = cold.session.as_ref().unwrap();
        assert_eq!(session.dir.root(), cache.as_path());
        assert_eq!(
            session.dir.read_manifest().len(),
            1,
            "the write is recorded in the manifest"
        );

        let warm = load(&facts, &kb, false, cache_s);
        assert!(
            warm.notes.iter().any(|n| n.contains("hit")),
            "{:?}",
            warm.notes
        );
        let tables = warm.tables.as_ref().unwrap();
        assert_eq!(tables.len(), 3);
        assert!(tables.values().all(FactTable::is_mapped));
        assert_eq!(warm.sources.len(), cold.sources.len());
        for (a, b) in warm.sources.iter().zip(&cold.sources) {
            assert_eq!(a.url, b.url);
            assert_eq!(&a.facts[..], &b.facts[..]);
        }
        assert_eq!(warm.kb.len(), cold.kb.len());
        assert_eq!(warm.terms.len(), cold.terms.len());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn editing_an_input_addresses_a_new_snapshot() {
        let dir = tmpdir("invalidate");
        let cache = dir.join("cache");
        let cache_s = cache.to_str().unwrap();
        let (facts, kb) = write_corpus(&dir);

        load(&facts, &kb, false, cache_s);
        let count_snaps = |cache: &std::path::Path| {
            std::fs::read_dir(cache)
                .unwrap()
                .filter(|e| {
                    e.as_ref()
                        .unwrap()
                        .file_name()
                        .to_string_lossy()
                        .ends_with(".snap")
                })
                .count()
        };
        assert_eq!(count_snaps(&cache), 1);

        // Appending a fact changes the key: the next run misses and writes
        // a second snapshot; the edited corpus is what gets loaded.
        let mut contents = std::fs::read_to_string(&facts).unwrap();
        contents.push_str("http://b.com\te4\tq\tv4\n");
        std::fs::write(&facts, contents).unwrap();
        let after = load(&facts, &kb, false, cache_s);
        assert!(
            after.notes.iter().any(|n| n.contains("write")),
            "{:?}",
            after.notes
        );
        assert_eq!(count_snaps(&cache), 2);
        assert_eq!(
            after.sources.iter().map(|s| s.len()).sum::<usize>(),
            4,
            "the edited corpus is served, not the stale snapshot"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_is_quarantined_with_a_reason_and_healed() {
        let dir = tmpdir("corrupt");
        let cache = dir.join("cache");
        let cache_s = cache.to_str().unwrap();
        let (facts, kb) = write_corpus(&dir);

        load(&facts, &kb, false, cache_s);
        let snap = std::fs::read_dir(&cache)
            .unwrap()
            .map(|e| e.unwrap())
            .find(|e| e.file_name().to_string_lossy().ends_with(".snap"))
            .unwrap();
        let snap_name = snap.file_name().to_string_lossy().into_owned();
        let mut bytes = std::fs::read(snap.path()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(snap.path(), &bytes).unwrap();

        let healed = load(&facts, &kb, false, cache_s);
        assert!(
            healed.notes.iter().any(|n| n.contains("quarantined")),
            "fallback is noted: {:?}",
            healed.notes
        );
        assert!(
            healed.notes.iter().any(|n| n.contains("write")),
            "snapshot is rewritten: {:?}",
            healed.notes
        );
        assert_eq!(healed.sources.len(), 3);

        // The torn bytes and the reason are preserved as evidence.
        let qdir = cache.join(QUARANTINE_DIR);
        assert_eq!(std::fs::read(qdir.join(&snap_name)).unwrap(), bytes);
        let reason = std::fs::read_to_string(qdir.join(format!("{snap_name}.reason"))).unwrap();
        assert!(!reason.trim().is_empty());

        // And the heal produced a loadable replacement.
        let again = load(&facts, &kb, false, cache_s);
        assert!(again.notes.iter().any(|n| n.contains("hit")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lenient_runs_bypass_with_a_note() {
        let dir = tmpdir("lenient");
        let cache = dir.join("cache");
        let cache_s = cache.to_str().unwrap();
        let (facts, kb) = write_corpus(&dir);
        let loaded = load(&facts, &kb, true, cache_s);
        assert!(loaded.tables.is_none());
        assert!(loaded.session.is_none());
        assert!(
            loaded.notes.iter().any(|n| n.contains("bypassed")),
            "{:?}",
            loaded.notes
        );
        assert!(!cache.exists(), "no snapshot is written on the bypass path");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn size_cap_evicts_older_snapshots() {
        let dir = tmpdir("cap");
        let cache = dir.join("cache");
        let cache_s = cache.to_str().unwrap();
        let (facts, kb) = write_corpus(&dir);

        load(&facts, &kb, false, cache_s);
        std::thread::sleep(std::time::Duration::from_millis(3));
        let mut contents = std::fs::read_to_string(&facts).unwrap();
        contents.push_str("http://b.com\te4\tq\tv4\n");
        std::fs::write(&facts, contents).unwrap();

        // Cap of 1 byte: writing the second snapshot must evict the first
        // (LRU) while keeping the entry the run just produced.
        let capped = load_inputs(&facts, Some(&kb), false, Some(cache_s), Some(1), 1).unwrap();
        assert!(
            capped.notes.iter().any(|n| n.contains("evicted")),
            "{:?}",
            capped.notes
        );
        let snaps: Vec<String> = std::fs::read_dir(&cache)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".snap"))
            .collect();
        assert_eq!(snaps.len(), 1, "only the just-written snapshot survives");
        let session = capped.session.as_ref().unwrap();
        assert_eq!(snaps[0], snapshot_name(session.corpus_key));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slice_reports_round_trip_through_the_cache() {
        let dir = tmpdir("slices");
        let cache = dir.join("cache");
        let cache_s = cache.to_str().unwrap();
        let (facts, kb) = write_corpus(&dir);
        let mut loaded = load(&facts, &kb, false, cache_s);
        let session = loaded.session.as_ref().unwrap();
        let cost = CostModel::default();
        let key = slices_key(session.corpus_key, "midas", &cost);
        assert_ne!(
            key,
            slices_key(session.corpus_key, "greedy", &cost),
            "algorithm is part of the key"
        );

        let mut notes = Vec::new();
        assert!(
            load_cached_slices(session, key, &mut loaded.terms, &mut notes).is_none(),
            "cold: no report yet"
        );
        let slices = vec![DiscoveredSlice {
            source: SourceUrl::parse("http://a.com").unwrap(),
            properties: vec![(loaded.terms.intern("p"), loaded.terms.intern("v1"))],
            entities: vec![loaded.terms.intern("e1")],
            num_facts: 2,
            num_new_facts: 1,
            profit: 1.5,
        }];
        store_slices(session, key, &loaded.terms, &slices, &mut notes);
        assert!(notes.iter().any(|n| n.contains("slice cache write")));

        let cached = load_cached_slices(session, key, &mut loaded.terms, &mut notes)
            .expect("warm: report served");
        assert_eq!(cached, slices);
        assert!(notes.iter().any(|n| n.contains("slice cache hit")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The key pass hashes a part one small buffer at a time into the
    /// one-shot key, and refuses a source holding fewer or more bytes than
    /// its stated length with a typed error.
    #[test]
    fn the_key_pass_refuses_a_source_of_another_length() {
        let bytes = b"http://a.com/x\te1\tp\tv1\nhttp://b.com\te3\tq\tv3\n";
        let read_at = |buf: &mut [u8], at: u64| {
            let rest = bytes.get(at as usize..).unwrap_or(&[]);
            let n = rest.len().min(buf.len());
            buf[..n].copy_from_slice(&rest[..n]);
            Ok(n)
        };
        let mut buf = [0u8; 5];
        let len = bytes.len() as u64;
        let key = hash_part(CacheKey::new(), "facts", len, &mut buf, read_at).unwrap();
        assert_eq!(key.finish(), CacheKey::new().part("facts", bytes).finish());
        for stated in [len + 3, len - 3] {
            match hash_part(CacheKey::new(), "facts", stated, &mut buf, read_at) {
                Err(CliError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}"),
                other => panic!("stated {stated}: {:?}", other.map(CacheKey::finish)),
            }
        }
    }
}
