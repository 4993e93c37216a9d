//! Corpus snapshots: the parsed-and-built state of an extraction corpus —
//! interner, per-source fact columns, knowledge base, and per-source
//! [`FactTable`]s — serialised into one `MSNP` container (see
//! [`midas_kb::snapshot`]) and loaded back zero-copy via mmap.
//!
//! A cold run pays TSV parsing, URL parsing, sorting, deduplication, and
//! fact-table construction (hashing, extent building) for every source. A
//! warm run maps the snapshot and borrows every bulk column — fact rows,
//! offsets, property lists, counts, extent id lists and bitsets — straight
//! from the page cache; only the small hash indexes (interner map, subject
//! and property lookup tables) and the knowledge-base tree are rebuilt.
//!
//! The interner's strings are stored in insertion order, so re-interning
//! them assigns every symbol its original index and all stored columns remain
//! valid; terms interned *after* a load (gold labels, report strings) receive
//! the same fresh symbols a cold run would hand out. This is what makes warm
//! and cold runs bit-identical.
//!
//! Section tags are ASCII mnemonics. The container's checksum already
//! fails closed on truncation and bit flips; loaders here additionally
//! validate cross-section invariants (counts, offsets, symbol ranges) so a
//! structurally sound but inconsistent file surfaces as
//! [`SnapshotError::Corrupt`], never as a wrong answer.

use midas_kb::snapshot::MIN_STR_BYTES;
use midas_kb::{
    Column, Fact, Interner, KnowledgeBase, SectionWriter, Snapshot, SnapshotBuilder, SnapshotError,
    Symbol,
};
use midas_weburl::SourceUrl;
use std::io;
use std::path::Path;

use crate::extent::ExtentSet;
use crate::fact_table::{FactTable, PropertyCatalog, PropertyId};
use crate::slice::DiscoveredSlice;
use crate::source::SourceFacts;

/// Corpus-level metadata (counts).
pub const TAG_META: u32 = u32::from_le_bytes(*b"META");
/// Interner strings, insertion order.
pub const TAG_STRINGS: u32 = u32::from_le_bytes(*b"STRS");
/// Per-source URLs and fact counts.
pub const TAG_SOURCES: u32 = u32::from_le_bytes(*b"SRCS");
/// All source fact columns, concatenated in source order.
pub const TAG_FACTS: u32 = u32::from_le_bytes(*b"FCTS");
/// Knowledge-base triples, sorted.
pub const TAG_KB: u32 = u32::from_le_bytes(*b"KBTR");
/// Per-source fact tables (columns + extent directory).
pub const TAG_TABLES: u32 = u32::from_le_bytes(*b"TBLS");
/// Discovered slice reports.
pub const TAG_SLICES: u32 = u32::from_le_bytes(*b"SLCS");

const EXTENT_SPARSE: u32 = 0;
const EXTENT_DENSE: u32 = 1;

/// Smallest encodings of the records whose counts the loaders decode (see
/// [`midas_kb::SectionReader::fit_count`]). A source: its url and its `u64`
/// fact count.
const MIN_SOURCE: usize = MIN_STR_BYTES + 8;
/// A slice: source url, property and entity counts, two `u64` fact counts
/// and the `f64` profit.
const MIN_SLICE: usize = MIN_STR_BYTES + 4 + 4 + 8 + 8 + 8;
/// A slice property: predicate and value strings.
const MIN_PROPERTY: usize = 2 * MIN_STR_BYTES;

fn corrupt(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(msg.into())
}

/// A corpus reassembled from a snapshot: everything a detection run needs,
/// with bulk storage still borrowing from the mapping.
#[derive(Debug)]
pub struct Corpus {
    /// The shared term interner, symbols identical to the saving run.
    pub terms: Interner,
    /// Per-source working sets, fact columns mapped.
    pub sources: Vec<SourceFacts>,
    /// The knowledge base to augment.
    pub kb: KnowledgeBase,
    /// Prebuilt fact tables, parallel to `sources`.
    pub tables: Vec<FactTable>,
}

/// Writes the corpus snapshot atomically to `path`, keyed by `cache_key`.
///
/// `tables` must be parallel to `sources` (one prebuilt table per source,
/// built against `kb`).
pub fn save_corpus(
    path: &Path,
    cache_key: u64,
    terms: &Interner,
    sources: &[SourceFacts],
    kb: &KnowledgeBase,
    tables: &[FactTable],
) -> io::Result<()> {
    assert_eq!(sources.len(), tables.len(), "one prebuilt table per source");
    let kb_facts: Vec<Fact> = kb.iter().collect();
    write_corpus(path, cache_key, terms, sources, &kb_facts, |w| {
        put_tables(w, tables)
    })
}

/// [`save_corpus`] with the KB section given as a raw column (SPO order
/// when it comes from a [`KnowledgeBase`]) and the tables section written
/// by `tables`; tests pass hostile columns and sections.
fn write_corpus(
    path: &Path,
    cache_key: u64,
    terms: &Interner,
    sources: &[SourceFacts],
    kb_facts: &[Fact],
    tables: impl FnOnce(&mut SectionWriter<'_>),
) -> io::Result<()> {
    let mut b = SnapshotBuilder::new(cache_key);

    let mut w = b.section(TAG_META);
    w.put_u32(sources.len() as u32);
    w.put_u32(terms.len() as u32);
    w.put_u64(kb_facts.len() as u64);

    let mut w = b.section(TAG_STRINGS);
    for (_, s) in terms.iter() {
        w.put_str(s);
    }

    let mut w = b.section(TAG_SOURCES);
    for src in sources {
        w.put_str(src.url.as_str());
        w.put_u64(src.facts.len() as u64);
    }

    // Fact columns back-to-back: a `Fact` is 12 bytes (align 4) and section
    // payloads start 8-aligned, so consecutive columns stay 4-aligned.
    let mut w = b.section(TAG_FACTS);
    for src in sources {
        w.put_column::<Fact>(&src.facts);
    }

    let mut w = b.section(TAG_KB);
    w.put_column::<Fact>(kb_facts);

    tables(&mut b.section(TAG_TABLES));

    b.write_atomic_labeled(path, "snap")
}

/// Writes the tables section: one record per source, in source order.
fn put_tables(w: &mut SectionWriter<'_>, tables: &[FactTable]) {
    for t in tables {
        let n = t.num_entities();
        w.align8();
        w.put_u32(n as u32);
        w.put_u32(t.catalog.props.len() as u32);
        w.put_u64(t.total_facts as u64);
        w.put_u64(t.distinct_sp_pairs as u64);
        w.put_u32(t.divisor);
        w.put_u32(t.entity_props_flat.len() as u32);
        w.put_column::<Symbol>(&t.subjects);
        w.put_column::<u32>(&t.row_offsets);
        w.put_column::<u32>(&t.entity_props_offsets);
        w.put_column::<PropertyId>(&t.entity_props_flat);
        w.put_column::<u32>(&t.facts_count);
        w.put_column::<u32>(&t.new_count);
        for &(p, v) in &t.catalog.props {
            w.put_column::<Symbol>(&[p, v]);
        }
        for ext in &t.catalog.extents {
            w.put_u32(if ext.is_dense() {
                EXTENT_DENSE
            } else {
                EXTENT_SPARSE
            });
            w.put_u32(ext.len() as u32);
            if let Some(blocks) = ext.dense_blocks() {
                w.align8();
                w.put_column::<u64>(blocks);
            } else if let Some(ids) = ext.sparse_ids() {
                w.align4();
                w.put_column::<u32>(ids);
            }
        }
    }
}

/// Opens the snapshot at `path`, verifies it was produced from inputs
/// hashing to `expected_key`, and reassembles the corpus.
///
/// Fails with [`SnapshotError::KeyMismatch`] when the file is sound but
/// stale (inputs or extraction config changed), and
/// [`SnapshotError::Corrupt`] on any structural or consistency violation.
pub fn load_corpus(path: &Path, expected_key: u64) -> Result<Corpus, SnapshotError> {
    let snap = Snapshot::open(path)?;
    if snap.cache_key() != expected_key {
        return Err(SnapshotError::KeyMismatch {
            expected: expected_key,
            found: snap.cache_key(),
        });
    }

    let mut r = snap.section(TAG_META)?;
    let n_sources = r.get_u32("source count")? as usize;
    let n_strings = r.get_u32("string count")? as usize;
    let kb_len = r.get_u64("kb fact count")? as usize;
    r.expect_end("meta")?;

    // The dump was written from an interner, so the strings are distinct
    // and in insertion order; adopt them wholesale and let the lookup map
    // sync lazily on the first post-load intern. Runs that only resolve
    // symbols never index the table at all.
    let mut r = snap.section(TAG_STRINGS)?;
    let n_strings = r.fit_count(n_strings, MIN_STR_BYTES, "string count")?;
    let mut dump: Vec<&str> = Vec::with_capacity(n_strings);
    for _ in 0..n_strings {
        dump.push(r.get_str_ref("interner string")?);
    }
    let terms = Interner::from_dump(&dump);
    r.expect_end("strings")?;
    let in_range = |sym: Symbol| -> bool { sym.index() < n_strings };

    let mut r = snap.section(TAG_SOURCES)?;
    let n_sources = r.fit_count(n_sources, MIN_SOURCE, "source count")?;
    let mut heads: Vec<(SourceUrl, usize)> = Vec::with_capacity(n_sources);
    for _ in 0..n_sources {
        let url = r.get_str("source url")?;
        let url = SourceUrl::parse(&url)
            .map_err(|e| corrupt(format!("invalid source url {url:?}: {e}")))?;
        let len = r.get_u64("source fact count")? as usize;
        heads.push((url, len));
    }
    r.expect_end("sources")?;
    // Detection pairs each source with its table by URL, so two sources
    // sharing one would merge and run against only one half's table.
    let mut urls: Vec<&SourceUrl> = heads.iter().map(|(url, _)| url).collect();
    urls.sort_unstable();
    if let Some(w) = urls.windows(2).find(|w| w[0] == w[1]) {
        return Err(corrupt(format!("source url {} listed twice", w[0])));
    }

    let mut r = snap.section(TAG_FACTS)?;
    let mut sources: Vec<SourceFacts> = Vec::with_capacity(n_sources);
    for (url, len) in heads {
        let facts: Column<Fact> = r.get_column(len, "source facts")?;
        // One sequential pass re-establishes the invariants everything
        // downstream relies on: sorted, deduplicated, symbols in range.
        let sorted = facts.windows(2).all(|w| w[0] < w[1]);
        let bounded = facts
            .iter()
            .all(|f| in_range(f.subject) && in_range(f.predicate) && in_range(f.object));
        if !sorted || !bounded {
            return Err(corrupt(format!(
                "source {url} facts unsorted or out of range"
            )));
        }
        sources.push(SourceFacts::from_sorted_column(url, facts));
    }
    r.expect_end("facts")?;

    let mut r = snap.section(TAG_KB)?;
    let kb_facts: Column<Fact> = r.get_column(kb_len, "kb facts")?;
    // The writer emits the KB in strictly increasing SPO order; anything
    // else (shuffled, duplicated) is damage, not a different KB.
    if !kb_facts.windows(2).all(|w| w[0] < w[1]) {
        return Err(corrupt("kb facts not in strictly increasing order"));
    }
    if !kb_facts
        .iter()
        .all(|f| in_range(f.subject) && in_range(f.predicate) && in_range(f.object))
    {
        return Err(corrupt("kb fact symbol out of range"));
    }
    let kb = KnowledgeBase::from_facts(&kb_facts);
    r.expect_end("kb")?;

    let mut r = snap.section(TAG_TABLES)?;
    let mut tables: Vec<FactTable> = Vec::with_capacity(n_sources);
    for src in &sources {
        r.align8()?;
        let n = r.get_u32("entity count")? as usize;
        let n_props = r.get_u32("property count")? as usize;
        let total_facts = r.get_u64("table fact count")? as usize;
        let distinct_sp_pairs = r.get_u64("distinct sp pairs")? as usize;
        let divisor = r.get_u32("density divisor")?;
        let props_flat_len = r.get_u32("flattened property count")? as usize;
        let subjects: Column<Symbol> = r.get_column(n, "subjects")?;
        let row_offsets: Column<u32> = r.get_column(n + 1, "row offsets")?;
        let props_offsets: Column<u32> = r.get_column(n + 1, "property offsets")?;
        let props_flat: Column<PropertyId> = r.get_column(props_flat_len, "properties")?;
        let facts_count: Column<u32> = r.get_column(n, "fact counts")?;
        let new_count: Column<u32> = r.get_column(n, "new counts")?;
        if total_facts != src.facts.len()
            || row_offsets.last() != Some(&(total_facts as u32))
            || props_offsets.last() != Some(&(props_flat_len as u32))
            || !subjects.iter().all(|&s| in_range(s))
        {
            return Err(corrupt(format!("table for {} inconsistent", src.url)));
        }
        // The writer stores each pair as its own two-symbol column; they
        // sit back to back, so one column read covers them all.
        let pairs: Column<Symbol> = r.get_column(2 * n_props, "property pairs")?;
        if !pairs.iter().all(|&sym| in_range(sym)) {
            return Err(corrupt("property symbol out of range"));
        }
        let props: Vec<(Symbol, Symbol)> = pairs.chunks_exact(2).map(|p| (p[0], p[1])).collect();
        let universe = n as u32;
        let mut extents: Vec<ExtentSet> = Vec::with_capacity(n_props);
        for _ in 0..n_props {
            let kind = r.get_u32("extent kind")?;
            let len = r.get_u32("extent length")?;
            if len as usize > n {
                return Err(corrupt("extent larger than entity universe"));
            }
            match kind {
                EXTENT_SPARSE => {
                    r.align4()?;
                    let ids: Column<u32> = r.get_column(len as usize, "extent ids")?;
                    if ids.last().is_some_and(|&e| e >= universe) {
                        return Err(corrupt("extent id out of universe"));
                    }
                    extents.push(ExtentSet::from_raw_sparse(universe, divisor, ids));
                }
                EXTENT_DENSE => {
                    r.align8()?;
                    let blocks: Column<u64> = r.get_column((n).div_ceil(64), "extent blocks")?;
                    extents.push(ExtentSet::from_raw_dense(universe, divisor, blocks, len));
                }
                k => return Err(corrupt(format!("unknown extent kind {k}"))),
            }
        }
        tables.push(FactTable::from_parts(
            subjects,
            src.facts.clone(),
            row_offsets,
            props_flat,
            props_offsets,
            facts_count,
            new_count,
            PropertyCatalog::from_parts(props, extents),
            total_facts,
            distinct_sp_pairs,
            divisor,
        ));
    }
    r.expect_end("tables")?;

    Ok(Corpus {
        terms,
        sources,
        kb,
        tables,
    })
}

/// Writes a discovered slice report atomically to `path`, keyed by
/// `cache_key`. Slices are stored with resolved strings, so the file is
/// self-contained and can be reloaded into any interner.
pub fn save_slices(
    path: &Path,
    cache_key: u64,
    terms: &Interner,
    slices: &[DiscoveredSlice],
) -> io::Result<()> {
    let mut b = SnapshotBuilder::new(cache_key);
    let mut w = b.section(TAG_SLICES);
    w.put_u32(slices.len() as u32);
    for s in slices {
        w.put_str(s.source.as_str());
        w.put_u32(s.properties.len() as u32);
        for &(p, v) in &s.properties {
            w.put_str(terms.resolve(p));
            w.put_str(terms.resolve(v));
        }
        w.put_u32(s.entities.len() as u32);
        for &e in &s.entities {
            w.put_str(terms.resolve(e));
        }
        w.put_u64(s.num_facts as u64);
        w.put_u64(s.num_new_facts as u64);
        w.put_f64(s.profit);
    }
    b.write_atomic_labeled(path, "slices")
}

/// Loads a slice report saved by [`save_slices`], re-interning its strings.
pub fn load_slices(
    path: &Path,
    expected_key: u64,
    terms: &mut Interner,
) -> Result<Vec<DiscoveredSlice>, SnapshotError> {
    let snap = Snapshot::open(path)?;
    if snap.cache_key() != expected_key {
        return Err(SnapshotError::KeyMismatch {
            expected: expected_key,
            found: snap.cache_key(),
        });
    }
    let mut r = snap.section(TAG_SLICES)?;
    let count = r.get_u32("slice count")? as usize;
    let count = r.fit_count(count, MIN_SLICE, "slice count")?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let url = r.get_str("slice source")?;
        let source = SourceUrl::parse(&url)
            .map_err(|e| corrupt(format!("invalid slice source {url:?}: {e}")))?;
        let n_props = r.get_u32("slice property count")? as usize;
        let n_props = r.fit_count(n_props, MIN_PROPERTY, "slice property count")?;
        let mut properties = Vec::with_capacity(n_props);
        for _ in 0..n_props {
            let p = terms.intern(&r.get_str("slice predicate")?);
            let v = terms.intern(&r.get_str("slice value")?);
            properties.push((p, v));
        }
        let n_entities = r.get_u32("slice entity count")? as usize;
        let n_entities = r.fit_count(n_entities, MIN_STR_BYTES, "slice entity count")?;
        let mut entities = Vec::with_capacity(n_entities);
        for _ in 0..n_entities {
            entities.push(terms.intern(&r.get_str("slice entity")?));
        }
        let num_facts = r.get_u64("slice fact count")? as usize;
        let num_new_facts = r.get_u64("slice new-fact count")? as usize;
        let profit = r.get_f64("slice profit")?;
        out.push(DiscoveredSlice {
            source,
            properties,
            entities,
            num_facts,
            num_new_facts,
            profit,
        });
    }
    r.expect_end("slices")?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::skyrocket;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("midas-corpus-{}-{name}.snap", std::process::id()))
    }

    fn sample_corpus() -> (Interner, Vec<SourceFacts>, KnowledgeBase, Vec<FactTable>) {
        let mut terms = Interner::new();
        let (src, kb) = skyrocket(&mut terms);
        let second = SourceFacts::new(
            SourceUrl::parse("http://other.example.org/page").unwrap(),
            vec![
                Fact::intern(&mut terms, "Voskhod", "sponsor", "ÜSSR ✓"),
                Fact::intern(&mut terms, "Voskhod", "category", "space_program"),
            ],
        );
        let tables = vec![FactTable::build(&src, &kb), FactTable::build(&second, &kb)];
        (terms, vec![src, second], kb, tables)
    }

    #[test]
    fn corpus_round_trips_and_borrows_from_the_mapping() {
        let (terms, sources, kb, tables) = sample_corpus();
        let path = tmp("roundtrip");
        save_corpus(&path, 42, &terms, &sources, &kb, &tables).unwrap();
        let corpus = load_corpus(&path, 42).unwrap();
        std::fs::remove_file(&path).ok();

        // Interner: identical symbol assignment.
        assert_eq!(corpus.terms.len(), terms.len());
        for (sym, s) in terms.iter() {
            assert_eq!(corpus.terms.get(s), Some(sym));
        }

        // Sources: same urls and facts, columns mapped (zero-copy engaged).
        assert_eq!(corpus.sources.len(), sources.len());
        for (a, b) in corpus.sources.iter().zip(&sources) {
            assert_eq!(a.url, b.url);
            assert_eq!(&a.facts[..], &b.facts[..]);
            assert!(a.facts.is_mapped(), "source facts must borrow the mmap");
        }

        // Knowledge base: same contents.
        assert_eq!(corpus.kb.len(), kb.len());
        for f in kb.iter() {
            assert!(corpus.kb.contains(&f));
        }

        // Tables: identical structure and counts, mapped bulk columns.
        for (a, b) in corpus.tables.iter().zip(&tables) {
            assert!(a.is_mapped(), "table rows must borrow the mmap");
            assert_eq!(a.num_entities(), b.num_entities());
            assert_eq!(a.total_facts(), b.total_facts());
            assert_eq!(
                a.distinct_subject_predicate_pairs(),
                b.distinct_subject_predicate_pairs()
            );
            assert_eq!(a.divisor(), b.divisor());
            assert_eq!(a.catalog().len(), b.catalog().len());
            for e in 0..a.num_entities() as u32 {
                assert_eq!(a.subject(e), b.subject(e));
                assert_eq!(a.row(e), b.row(e));
                assert_eq!(a.entity_properties(e), b.entity_properties(e));
                assert_eq!(a.facts_of(e), b.facts_of(e));
                assert_eq!(a.new_of(e), b.new_of(e));
            }
            for p in 0..a.catalog().len() as u32 {
                assert_eq!(a.catalog().pair(p), b.catalog().pair(p));
                assert_eq!(a.catalog().extent(p), b.catalog().extent(p));
            }
            let full = ExtentSet::full(a.num_entities() as u32);
            assert_eq!(a.fact_counts(&full), b.fact_counts(&full));
        }
    }

    #[test]
    fn key_mismatch_is_reported_not_loaded() {
        let (terms, sources, kb, tables) = sample_corpus();
        let path = tmp("keymismatch");
        save_corpus(&path, 7, &terms, &sources, &kb, &tables).unwrap();
        let err = load_corpus(&path, 8).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            err,
            SnapshotError::KeyMismatch {
                expected: 8,
                found: 7
            }
        ));
    }

    #[test]
    fn corrupted_corpus_fails_closed() {
        let (terms, sources, kb, tables) = sample_corpus();
        let path = tmp("corrupt");
        save_corpus(&path, 1, &terms, &sources, &kb, &tables).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_corpus(&path, 1).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, SnapshotError::Corrupt(_)));
    }

    #[test]
    fn truncated_corpus_fails_closed() {
        let (terms, sources, kb, tables) = sample_corpus();
        let path = tmp("truncated");
        save_corpus(&path, 1, &terms, &sources, &kb, &tables).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = load_corpus(&path, 1).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, SnapshotError::Corrupt(_)));
    }

    #[test]
    fn kb_section_out_of_order_fails_closed() {
        // Checksum-valid files whose KB column the writer would never
        // emit: shuffled, and with a repeated fact. Both must be typed
        // corruption, not a silently rebuilt KB.
        let (terms, sources, kb, tables) = sample_corpus();
        let sorted: Vec<Fact> = kb.iter().collect();
        assert!(sorted.len() >= 2, "fixture KB has facts to reorder");
        let mut shuffled = sorted.clone();
        shuffled.reverse();
        let mut duplicated = sorted.clone();
        duplicated.insert(1, sorted[0]);
        for (name, column) in [("kb-shuffled", shuffled), ("kb-duplicated", duplicated)] {
            let path = tmp(name);
            write_corpus(&path, 9, &terms, &sources, &column, |w| {
                put_tables(w, &tables)
            })
            .unwrap();
            let err = load_corpus(&path, 9).unwrap_err();
            std::fs::remove_file(&path).ok();
            assert!(
                matches!(&err, SnapshotError::Corrupt(m) if m.contains("strictly increasing")),
                "{name}: {err}"
            );
        }
        let path = tmp("kb-sorted");
        write_corpus(&path, 9, &terms, &sources, &sorted, |w| {
            put_tables(w, &tables)
        })
        .unwrap();
        let corpus = load_corpus(&path, 9).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(corpus.kb.iter().collect::<Vec<_>>(), sorted);
    }

    #[test]
    fn repeated_source_url_fails_closed() {
        // The running-example source split into two halves under one URL:
        // each half is well-formed on its own, but a run would merge them
        // and pair the merged source with one half's table.
        let (terms, sources, kb, _) = sample_corpus();
        let src = &sources[0];
        let mid = src.facts.len() / 2;
        let halves = vec![
            SourceFacts::new(src.url.clone(), src.facts[..mid].to_vec()),
            SourceFacts::new(src.url.clone(), src.facts[mid..].to_vec()),
        ];
        let tables: Vec<FactTable> = halves.iter().map(|h| FactTable::build(h, &kb)).collect();
        let path = tmp("repeated-url");
        save_corpus(&path, 5, &terms, &halves, &kb, &tables).unwrap();
        let err = load_corpus(&path, 5).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(&err, SnapshotError::Corrupt(m) if m.contains("listed twice")),
            "{err}"
        );
    }

    #[test]
    fn loaded_corpus_supports_kb_refresh() {
        // The incremental path mutates count columns in place; on a mapped
        // table this must copy-on-write, leaving rows and extents mapped.
        let (terms, sources, kb, tables) = sample_corpus();
        let path = tmp("refresh");
        save_corpus(&path, 3, &terms, &sources, &kb, &tables).unwrap();
        let mut corpus = load_corpus(&path, 3).unwrap();
        std::fs::remove_file(&path).ok();

        let (subject, fact) = {
            let table = &corpus.tables[0];
            (0..table.num_entities() as u32)
                .flat_map(|e| table.row(e).iter().map(move |&f| (table.subject(e), f)))
                .find(|(_, f)| corpus.kb.is_new(f))
                .expect("fixture source contributes at least one new fact")
        };
        corpus.kb.insert(fact);
        let table = &mut corpus.tables[0];
        let changed = table.refresh_new_counts(&corpus.kb, [subject]);
        assert_eq!(changed.len(), 1);
        assert!(table.is_mapped(), "rows stay mapped after the refresh");
    }

    #[test]
    fn slices_round_trip_with_unicode() {
        let mut terms = Interner::new();
        let slices = vec![DiscoveredSlice {
            source: SourceUrl::parse("http://a.com/x").unwrap(),
            properties: vec![(terms.intern("catégorie"), terms.intern("fusée ✓"))],
            entities: vec![terms.intern("Ariane"), terms.intern("Союз")],
            num_facts: 9,
            num_new_facts: 4,
            profit: 2.5,
        }];
        let path = tmp("slices");
        save_slices(&path, 99, &terms, &slices).unwrap();

        // Reload into a *fresh* interner: strings re-intern to new symbols
        // but resolve to the same terms.
        let mut fresh = Interner::new();
        let loaded = load_slices(&path, 99, &mut fresh).unwrap();
        assert!(matches!(
            load_slices(&path, 100, &mut fresh),
            Err(SnapshotError::KeyMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].source, slices[0].source);
        assert_eq!(fresh.resolve(loaded[0].properties[0].1), "fusée ✓");
        assert_eq!(fresh.resolve(loaded[0].entities[1]), "Союз");
        assert_eq!(loaded[0].num_facts, 9);
        assert_eq!(loaded[0].profit.to_bits(), slices[0].profit.to_bits());
    }

    fn assert_corrupt(err: &SnapshotError, needle: &str) {
        assert!(
            matches!(err, SnapshotError::Corrupt(m) if m.contains(needle)),
            "expected corruption mentioning {needle:?}, got: {err}"
        );
    }

    /// Writes a corpus through [`write_corpus`] and returns why it fails
    /// to load.
    fn corpus_error(
        name: &str,
        terms: &Interner,
        sources: &[SourceFacts],
        kb_facts: &[Fact],
        tables: impl FnOnce(&mut SectionWriter<'_>),
    ) -> SnapshotError {
        let path = tmp(name);
        write_corpus(&path, 4, terms, sources, kb_facts, tables).unwrap();
        let err = load_corpus(&path, 4).unwrap_err();
        std::fs::remove_file(&path).ok();
        err
    }

    /// Writes a hand-built container and returns why it fails to load as
    /// a corpus.
    fn built_corpus_error(name: &str, b: SnapshotBuilder) -> SnapshotError {
        let path = tmp(name);
        b.write_atomic(&path).unwrap();
        let err = load_corpus(&path, 4).unwrap_err();
        std::fs::remove_file(&path).ok();
        err
    }

    /// A corpus of one source holding one fact, so its table has one
    /// entity and one property; the property's extent record is the raw
    /// words `extent` (kind, length, ids).
    fn one_fact_extent_error(name: &str, extent: &[u32]) -> SnapshotError {
        let mut terms = Interner::new();
        let f = Fact::intern(&mut terms, "Atlas", "sponsor", "NASA");
        let src = SourceFacts::new(SourceUrl::parse("http://a.com/x").unwrap(), vec![f]);
        corpus_error(name, &terms, &[src], &[], |w| {
            w.put_u32(1); // entities
            w.put_u32(1); // properties
            w.put_u64(1); // facts
            w.put_u64(1); // distinct (subject, predicate) pairs
            w.put_u32(1); // density divisor
            w.put_u32(1); // flattened properties
            w.put_column::<Symbol>(&[f.subject]);
            w.put_column::<u32>(&[0, 1]); // row offsets
            w.put_column::<u32>(&[0, 1]); // property offsets
            w.put_column::<PropertyId>(&[0]);
            w.put_column::<u32>(&[1]); // fact counts
            w.put_column::<u32>(&[1]); // new counts
            w.put_column::<Symbol>(&[f.predicate, f.object]);
            w.put_column::<u32>(extent);
        })
    }

    /// Writes a slice report whose section `body` writes, followed by
    /// enough zero padding that a count of one record fits, and returns
    /// why it fails to load.
    fn slices_error(name: &str, body: impl FnOnce(&mut SectionWriter<'_>)) -> SnapshotError {
        let path = tmp(name);
        let mut b = SnapshotBuilder::new(6);
        let mut w = b.section(TAG_SLICES);
        body(&mut w);
        w.put_bytes(&[0; 64]);
        b.write_atomic(&path).unwrap();
        let err = load_slices(&path, 6, &mut Interner::new()).unwrap_err();
        std::fs::remove_file(&path).ok();
        err
    }

    #[test]
    fn hostile_string_count_fails_closed() {
        let mut b = SnapshotBuilder::new(4);
        let mut w = b.section(TAG_META);
        w.put_u32(0);
        w.put_u32(u32::MAX);
        w.put_u64(0);
        b.section(TAG_STRINGS);
        assert_corrupt(&built_corpus_error("n-strings", b), "string count");
    }

    #[test]
    fn hostile_source_count_fails_closed() {
        let mut b = SnapshotBuilder::new(4);
        let mut w = b.section(TAG_META);
        w.put_u32(u32::MAX);
        w.put_u32(0);
        w.put_u64(0);
        b.section(TAG_STRINGS);
        b.section(TAG_SOURCES);
        assert_corrupt(&built_corpus_error("n-sources", b), "source count");
    }

    #[test]
    fn invalid_source_url_fails_closed() {
        // Rewrite the second source's url in place to one without a
        // scheme separator, then re-seal the checksum.
        let (terms, sources, kb, tables) = sample_corpus();
        let path = tmp("bad-url");
        save_corpus(&path, 4, &terms, &sources, &kb, &tables).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let url = sources[1].url.as_str().as_bytes();
        let at: Vec<usize> = (0..bytes.len() - url.len())
            .filter(|&i| &bytes[i..i + url.len()] == url)
            .collect();
        assert_eq!(at.len(), 1, "the url is stored once");
        bytes[at[0] + 5] = b'_';
        let body = bytes.len() - 8;
        let sum = midas_kb::snapshot::checksum(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = load_corpus(&path, 4).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_corrupt(&err, "invalid source url");
    }

    #[test]
    fn source_fact_out_of_range_fails_closed() {
        let (terms, mut sources, kb, tables) = sample_corpus();
        let beyond = Symbol::from_index(terms.len());
        let f = sources[1].facts[0];
        sources[1] = SourceFacts::new(
            sources[1].url.clone(),
            vec![Fact::new(f.subject, f.predicate, beyond)],
        );
        let kb_facts: Vec<Fact> = kb.iter().collect();
        let err = corpus_error("source-range", &terms, &sources, &kb_facts, |w| {
            put_tables(w, &tables)
        });
        assert_corrupt(&err, "facts unsorted or out of range");
    }

    #[test]
    fn kb_fact_out_of_range_fails_closed() {
        let (terms, sources, kb, tables) = sample_corpus();
        let beyond = Symbol::from_index(terms.len());
        let mut kb_facts: Vec<Fact> = kb.iter().collect();
        kb_facts.push(Fact::new(beyond, beyond, beyond));
        let err = corpus_error("kb-range", &terms, &sources, &kb_facts, |w| {
            put_tables(w, &tables)
        });
        assert_corrupt(&err, "kb fact symbol out of range");
    }

    #[test]
    fn inconsistent_table_fails_closed() {
        let (terms, sources, kb, mut tables) = sample_corpus();
        tables[0].total_facts += 1;
        let kb_facts: Vec<Fact> = kb.iter().collect();
        let err = corpus_error("table", &terms, &sources, &kb_facts, |w| {
            put_tables(w, &tables)
        });
        assert_corrupt(&err, "inconsistent");
    }

    #[test]
    fn property_symbol_out_of_range_fails_closed() {
        let (terms, sources, kb, mut tables) = sample_corpus();
        tables[0].catalog.props[0].1 = Symbol::from_index(terms.len());
        let kb_facts: Vec<Fact> = kb.iter().collect();
        let err = corpus_error("property-range", &terms, &sources, &kb_facts, |w| {
            put_tables(w, &tables)
        });
        assert_corrupt(&err, "property symbol out of range");
    }

    #[test]
    fn extent_larger_than_universe_fails_closed() {
        let err = one_fact_extent_error("extent-len", &[EXTENT_SPARSE, 2]);
        assert_corrupt(&err, "extent larger than entity universe");
    }

    #[test]
    fn extent_id_out_of_universe_fails_closed() {
        let err = one_fact_extent_error("extent-id", &[EXTENT_SPARSE, 1, 1]);
        assert_corrupt(&err, "extent id out of universe");
    }

    #[test]
    fn unknown_extent_kind_fails_closed() {
        let err = one_fact_extent_error("extent-kind", &[7, 1]);
        assert_corrupt(&err, "unknown extent kind 7");
    }

    #[test]
    fn hostile_slice_count_fails_closed() {
        let err = slices_error("n-slices", |w| w.put_u32(u32::MAX));
        assert_corrupt(&err, "slice count");
    }

    #[test]
    fn hostile_slice_property_count_fails_closed() {
        let err = slices_error("n-slice-props", |w| {
            w.put_u32(1);
            w.put_str("http://a.com/x");
            w.put_u32(u32::MAX);
        });
        assert_corrupt(&err, "slice property count");
    }

    #[test]
    fn hostile_slice_entity_count_fails_closed() {
        let err = slices_error("n-slice-entities", |w| {
            w.put_u32(1);
            w.put_str("http://a.com/x");
            w.put_u32(0);
            w.put_u32(u32::MAX);
        });
        assert_corrupt(&err, "slice entity count");
    }

    #[test]
    fn invalid_slice_source_fails_closed() {
        let err = slices_error("slice-url", |w| {
            w.put_u32(1);
            w.put_str("not a url");
        });
        assert_corrupt(&err, "invalid slice source");
    }
}
