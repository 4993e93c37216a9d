//! Reading and writing the CLI's TSV file formats.
//!
//! * facts: `url \t subject \t predicate \t object`
//! * kb: `subject \t predicate \t object` (records parsed by `midas_kb::io`)
//! * gold: `url \t slice_id \t entity`
//!
//! **One ingest path.** A facts or KB file, a pipe and an in-memory `&[u8]`
//! all go through one reader ([`midas_kb::tokenize::ChunkReader`]): the
//! calling thread reads the input sequentially into owned, line-aligned
//! chunks of a fixed size, carrying each chunk's partial last line over to
//! the next. The chunks are parsed on the worker pool with the run's
//! `--threads` ([`parallel::par_map_streamed`]), which pulls the next chunk
//! only when its window of `2 × threads` has room, so at most that many
//! chunks (plus the one being read) are in memory, whatever the file's
//! size. Each chunk yields a chunk-local dictionary that owns its terms, in
//! first-occurrence order, `[u32; 3]` id triples, the runs of consecutive
//! records that share a URL, and its faults; the worker then frees the raw
//! bytes. The calling thread merges the chunks in file order as they
//! arrive, interning each dictionary in order, so every term gets the
//! symbol of its first occurrence in the file — the ids a line-by-line
//! reader assigns — at every thread count.
//!
//! A regular file is read up to the length it had when it was opened
//! (`Input`); a file that shrinks meanwhile is an I/O error, not a
//! shorter corpus.
//!
//! A malformed record — a wrong field count, a bad URL, bytes that are not
//! UTF-8 — is a fault at its file line. [`Ingest::Strict`] fails on the
//! first fault in file order; [`Ingest::Lenient`] quarantines each faulty
//! line as a [`SourceFault`] and keeps the rest of the file.
//!
//! [`read_facts`] and [`read_kb`] take a reader and run the same path on
//! one thread. The gold reader keeps its own field syntax but shares the
//! chunk reader and the line layer ([`midas_kb::tokenize::Lines`]).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::args::CliError;
use midas_core::{faultinject, parallel, telemetry};
use midas_core::{FaultCause, SourceFacts, SourceFault, Stage};
use midas_extract::GoldSlice;
use midas_kb::io::{parse_tsv_chunk, TsvMerge};
use midas_kb::tokenize::{ChunkReader, Dict, Lines, CHUNK_BYTES};
use midas_kb::{Fact, Interner, KnowledgeBase, Symbol};
use midas_weburl::SourceUrl;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Take, Write};

/// Ingest timings: one span per parsed chunk (on the pool), one per merged
/// chunk (on the calling thread), and one around the KB's bulk build.
mod metrics {
    midas_core::histogram!(pub PARSE_NS, "ingest.parse_ns");
    midas_core::histogram!(pub MERGE_NS, "ingest.merge_ns");
    midas_core::histogram!(pub KB_BUILD_NS, "kb.build_ns");
}

/// How a parse treats malformed records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest<'a> {
    /// Fail on the first malformed record in file order.
    Strict,
    /// Quarantine malformed records and keep going; each fault names
    /// `file` and the record's line.
    Lenient {
        /// The file name faults are attributed to.
        file: &'a str,
    },
}

/// An input file, opened once for every pass a run makes over it.
pub(crate) enum Input {
    /// A regular file, with its length when it was opened. Every pass
    /// reads that many bytes from the start of the same open file, so a
    /// rename that replaces the path meanwhile cannot mix two files.
    File {
        /// The open file.
        file: File,
        /// Its length when it was opened.
        len: u64,
    },
    /// Anything else (a pipe, a character device): no length, and only one
    /// pass can read it.
    Stream(File),
    /// A stream read to the end, so that more than one pass can read it.
    Bytes(Vec<u8>),
}

impl Input {
    /// Opens `path`.
    pub(crate) fn open(path: &str) -> io::Result<Input> {
        let file = File::open(path)?;
        let meta = file.metadata()?;
        Ok(if meta.is_file() {
            Input::File {
                len: meta.len(),
                file,
            }
        } else {
            Input::Stream(file)
        })
    }

    /// A reader over the whole input, from its start.
    pub(crate) fn reader(&self) -> io::Result<Box<dyn Read + '_>> {
        Ok(match self {
            Input::File { file, len } => {
                // Off Unix the key pass's positioned reads move the cursor.
                let mut file = file;
                file.seek(SeekFrom::Start(0))?;
                Box::new(Exact(file.take(*len)))
            }
            Input::Stream(file) => Box::new(file),
            Input::Bytes(bytes) => Box::new(&bytes[..]),
        })
    }
}

/// Reads exactly the bytes `Take` allows: running out before the limit
/// means the file shrank while it was read, which is an error.
struct Exact<R>(Take<R>);

impl<R: Read> Read for Exact<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.0.read(buf)?;
        if n == 0 && !buf.is_empty() && self.0.limit() > 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "an input file ended {} bytes short of the length it had when opened; \
                     it changed during the run",
                    self.0.limit()
                ),
            ));
        }
        Ok(n)
    }
}

/// Reads `input` in chunks, parses them on the pool and hands each parsed
/// chunk to `merge` on the calling thread, in file order. Merging stops at
/// the first error, which is returned; a read error comes after any merge
/// error, as it ended the input later in the file.
fn parse_chunked<R: Read, C: Send>(
    input: R,
    chunk_bytes: usize,
    threads: usize,
    parse: impl Fn(&[u8]) -> C + Sync,
    mut merge: impl FnMut(C) -> Result<(), CliError>,
) -> Result<(), CliError> {
    let threads = threads.max(1);
    let mut chunks = ChunkReader::new(input, chunk_bytes);
    let mut result = Ok(());
    parallel::par_map_streamed(
        threads,
        2 * threads,
        chunks.by_ref(),
        |chunk| {
            let _span = telemetry::span("ingest.parse", &metrics::PARSE_NS);
            parse(&chunk)
        },
        |_, parsed| {
            if result.is_err() {
                return;
            }
            result = match parsed {
                Ok(chunk) => {
                    let _span = telemetry::span("ingest.merge", &metrics::MERGE_NS);
                    merge(chunk)
                }
                Err(fault) => Err(CliError::Data(format!(
                    "parse task failed: {}",
                    fault.cause
                ))),
            };
        },
    );
    result?;
    chunks.finish()?;
    Ok(())
}

const FIELD_COUNT: &str = "expected 4 tab-separated fields (url, subject, predicate, object)";

/// Consecutive records of one chunk that share a raw URL string.
#[derive(Debug)]
struct UrlRun {
    url: SourceUrl,
    /// Chunk-relative line of the run's first record.
    line: usize,
    /// Number of records (id triples) in the run.
    len: usize,
}

/// A malformed facts record.
#[derive(Debug)]
struct LineFault {
    /// Chunk-relative line number.
    line: usize,
    /// The raw URL text when the URL failed to parse; the file otherwise.
    source: Option<String>,
    message: Cow<'static, str>,
}

/// One parsed chunk of a facts file. It owns everything it holds, so the
/// chunk's raw bytes can be freed once it is parsed.
#[derive(Debug)]
struct FactsChunk {
    dict: Dict,
    triples: Vec<[u32; 3]>,
    runs: Vec<UrlRun>,
    faults: Vec<LineFault>,
    /// Lines in the chunk (data, blank and comment).
    lines: usize,
}

fn parse_facts_chunk(chunk: &[u8]) -> FactsChunk {
    let mut dict = Dict::default();
    let mut triples = Vec::new();
    let mut runs: Vec<UrlRun> = Vec::new();
    let mut faults = Vec::new();
    let mut lines = Lines::new(chunk);
    // The raw URL of the current run. Pages are contiguous in extraction
    // output, so most lines repeat it and skip both the URL parse and the
    // source lookup; distinct raw strings that normalise to one URL still
    // meet in the merge's map.
    let mut run_raw: Option<&str> = None;
    for (line, text) in lines.by_ref() {
        let mut fault = |source: Option<&str>, message: Cow<'static, str>| {
            faults.push(LineFault {
                line,
                source: source.map(str::to_owned),
                message,
            })
        };
        let text = match text {
            Ok(text) => text,
            Err(e) => {
                fault(None, e.to_string().into());
                continue;
            }
        };
        let mut fields = text.split('\t');
        let (url, s, p, o) = match (
            fields.next(),
            fields.next(),
            fields.next(),
            fields.next(),
            fields.next(),
        ) {
            (Some(u), Some(s), Some(p), Some(o), None) => (u, s, p, o),
            _ => {
                fault(None, FIELD_COUNT.into());
                continue;
            }
        };
        if run_raw != Some(url) {
            match SourceUrl::parse(url) {
                Ok(parsed) => {
                    runs.push(UrlRun {
                        url: parsed,
                        line,
                        len: 0,
                    });
                    run_raw = Some(url);
                }
                Err(e) => {
                    fault(Some(url), e.to_string().into());
                    continue;
                }
            }
        }
        if let Some(run) = runs.last_mut() {
            run.len += 1;
        }
        triples.push([dict.id(s), dict.id(p), dict.id(o)]);
    }
    FactsChunk {
        dict,
        triples,
        runs,
        faults,
        lines: lines.consumed(),
    }
}

/// Folds parsed facts chunks, in file order, into per-source fact sets.
struct FactsMerge<'f> {
    ingest: Ingest<'f>,
    /// Per source: the file line it first appeared on, plus its facts.
    by_url: BTreeMap<SourceUrl, (u64, Vec<Fact>)>,
    faults: Vec<SourceFault>,
    /// Lines in the chunks merged so far.
    lines: usize,
}

impl<'f> FactsMerge<'f> {
    fn new(ingest: Ingest<'f>) -> Self {
        FactsMerge {
            ingest,
            by_url: BTreeMap::new(),
            faults: Vec::new(),
            lines: 0,
        }
    }

    fn push(&mut self, chunk: FactsChunk, terms: &mut Interner) -> Result<(), CliError> {
        let offset = self.lines;
        self.lines += chunk.lines;
        for fault in chunk.faults {
            let line = offset + fault.line;
            let Ingest::Lenient { file } = self.ingest else {
                return Err(CliError::Data(format!("line {line}: {}", fault.message)));
            };
            self.faults.push(SourceFault {
                source: fault.source.unwrap_or_else(|| file.to_owned()),
                stage: Stage::Read,
                cause: FaultCause::Parse {
                    file: file.to_owned(),
                    line: line as u64,
                    message: fault.message.into_owned(),
                },
                facts_seen: 0,
            });
        }
        let symbols = chunk.dict.intern_into(terms);
        let mut triples = chunk.triples.iter();
        for run in chunk.runs {
            let (_, facts) = self
                .by_url
                .entry(run.url)
                .or_insert_with(|| ((offset + run.line) as u64, Vec::new()));
            facts.extend(triples.by_ref().take(run.len).map(|&[s, p, o]| {
                Fact::new(
                    symbols[s as usize],
                    symbols[p as usize],
                    symbols[o as usize],
                )
            }));
        }
        Ok(())
    }

    /// The sources in URL order, plus the faults. A lenient merge consults
    /// the installed fault-injection plan (if any) once per source in that
    /// order: a targeted source is dropped whole as an injected parse fault
    /// whose `file:line` points at the source's first record, so when
    /// several sources fault in one round each summary line still names
    /// where *that* source came from.
    fn finish(self) -> (Vec<SourceFacts>, Vec<SourceFault>) {
        let mut faults = self.faults;
        let mut sources = Vec::with_capacity(self.by_url.len());
        for (index, (url, (first_line, facts))) in self.by_url.into_iter().enumerate() {
            if let Ingest::Lenient { file } = self.ingest {
                if faultinject::should_fail_parse(url.as_str(), index) {
                    faults.push(SourceFault {
                        source: url.as_str().to_owned(),
                        stage: Stage::Read,
                        cause: FaultCause::Parse {
                            file: file.to_owned(),
                            line: first_line,
                            message: "injected parse failure".to_owned(),
                        },
                        facts_seen: facts.len(),
                    });
                    continue;
                }
            }
            sources.push(SourceFacts::new(url, facts));
        }
        (sources, faults)
    }
}

/// Parses a 4-column facts file read from `input` into per-source fact
/// sets, with `threads` pool workers (see the module docs). The faults are
/// empty on a strict parse.
pub fn parse_facts<R: Read>(
    input: R,
    terms: &mut Interner,
    ingest: Ingest<'_>,
    threads: usize,
) -> Result<(Vec<SourceFacts>, Vec<SourceFault>), CliError> {
    parse_facts_chunked(input, terms, ingest, threads, CHUNK_BYTES)
}

/// [`parse_facts`] with an explicit chunk size (tests vary it to show the
/// result does not depend on it).
pub(crate) fn parse_facts_chunked<R: Read>(
    input: R,
    terms: &mut Interner,
    ingest: Ingest<'_>,
    threads: usize,
    chunk_bytes: usize,
) -> Result<(Vec<SourceFacts>, Vec<SourceFault>), CliError> {
    let mut merge = FactsMerge::new(ingest);
    parse_chunked(input, chunk_bytes, threads, parse_facts_chunk, |chunk| {
        merge.push(chunk, terms)
    })?;
    Ok(merge.finish())
}

/// Parses a 3-column KB file read from `input` with `threads` pool workers
/// and builds the knowledge base in bulk.
pub fn parse_kb<R: Read>(
    input: R,
    terms: &mut Interner,
    threads: usize,
) -> Result<KnowledgeBase, CliError> {
    parse_kb_chunked(input, terms, threads, CHUNK_BYTES)
}

/// [`parse_kb`] with an explicit chunk size (tests vary it).
pub(crate) fn parse_kb_chunked<R: Read>(
    input: R,
    terms: &mut Interner,
    threads: usize,
    chunk_bytes: usize,
) -> Result<KnowledgeBase, CliError> {
    let mut merge = TsvMerge::default();
    parse_chunked(input, chunk_bytes, threads, parse_tsv_chunk, |chunk| {
        merge
            .push(chunk, terms)
            .map_err(|e| CliError::Data(e.to_string()))
    })?;
    let facts = merge.finish();
    let _span = telemetry::span("kb.build", &metrics::KB_BUILD_NS);
    Ok(KnowledgeBase::from_facts(&facts))
}

/// Opens and parses the facts file at `path` (see [`parse_facts`]).
pub fn load_facts(
    path: &str,
    terms: &mut Interner,
    ingest: Ingest<'_>,
    threads: usize,
) -> Result<(Vec<SourceFacts>, Vec<SourceFault>), CliError> {
    parse_facts(Input::open(path)?.reader()?, terms, ingest, threads)
}

/// Opens and parses the KB file at `path` (see [`parse_kb`]).
pub fn load_kb(
    path: &str,
    terms: &mut Interner,
    threads: usize,
) -> Result<KnowledgeBase, CliError> {
    parse_kb(Input::open(path)?.reader()?, terms, threads)
}

/// Reads a 4-column facts file strictly, on one thread. Kept for the
/// benchmark's traced replay (see [`crate::snapshot_cache::load_inputs`]).
pub fn read_facts<R: Read>(r: R, terms: &mut Interner) -> Result<Vec<SourceFacts>, CliError> {
    Ok(parse_facts(r, terms, Ingest::Strict, 1)?.0)
}

/// Writes per-source facts as a 4-column TSV.
pub fn write_facts<W: Write>(
    mut w: W,
    terms: &Interner,
    sources: &[SourceFacts],
) -> Result<(), CliError> {
    for src in sources {
        for f in &src.facts {
            writeln!(
                w,
                "{}\t{}\t{}\t{}",
                src.url,
                terms.resolve(f.subject),
                terms.resolve(f.predicate),
                terms.resolve(f.object)
            )?;
        }
    }
    Ok(())
}

/// Reads a 3-column knowledge-base TSV on one thread. Kept for the
/// benchmark's traced replay (see [`crate::snapshot_cache::load_inputs`]).
pub fn read_kb<R: Read>(r: R, terms: &mut Interner) -> Result<KnowledgeBase, CliError> {
    parse_kb(r, terms, 1)
}

/// Writes a knowledge base as 3-column TSV.
pub fn write_kb<W: Write>(w: W, terms: &Interner, kb: &KnowledgeBase) -> Result<(), CliError> {
    midas_kb::io::write_tsv(w, terms, kb.iter()).map_err(|e| CliError::Data(e.to_string()))
}

/// Reads a 3-column gold file (`url \t slice_id \t entity`): each distinct
/// `(url, slice_id)` pair forms one gold slice whose entity extent is the
/// set of entities listed under it. Several slices may share a URL.
pub fn read_gold<R: Read>(r: R, terms: &mut Interner) -> Result<Vec<GoldSlice>, CliError> {
    let mut groups: BTreeMap<(SourceUrl, String), Vec<Symbol>> = BTreeMap::new();
    let mut chunks = ChunkReader::new(r, CHUNK_BYTES);
    let mut offset = 0;
    for chunk in chunks.by_ref() {
        let mut lines = Lines::new(&chunk);
        for (line, text) in lines.by_ref() {
            let lineno = offset + line;
            let text = text.map_err(|e| CliError::Data(format!("line {lineno}: {e}")))?;
            let mut fields = text.split('\t');
            let (url, slice_id, entity) =
                match (fields.next(), fields.next(), fields.next(), fields.next()) {
                    (Some(u), Some(s), Some(e), None) => (u, s, e),
                    _ => {
                        return Err(CliError::Data(format!(
                            "line {lineno}: expected 3 tab-separated fields (url, slice_id, entity)"
                        )))
                    }
                };
            let url =
                SourceUrl::parse(url).map_err(|e| CliError::Data(format!("line {lineno}: {e}")))?;
            groups
                .entry((url, slice_id.to_owned()))
                .or_default()
                .push(terms.intern(entity));
        }
        offset += lines.consumed();
    }
    chunks.finish()?;
    Ok(groups
        .into_iter()
        .map(|((source, slice_id), mut entities)| {
            entities.sort_unstable();
            entities.dedup();
            GoldSlice {
                description: format!("gold slice {slice_id} at {source}"),
                source,
                properties: vec![],
                entities,
            }
        })
        .collect())
}

/// Writes gold slices in the 3-column layout (`url \t slice_id \t entity`).
pub fn write_gold<W: Write>(
    mut w: W,
    terms: &Interner,
    gold: &[GoldSlice],
) -> Result<(), CliError> {
    for (i, g) in gold.iter().enumerate() {
        for &e in &g.entities {
            writeln!(w, "{}\tgold_{i}\t{}", g.source, terms.resolve(e))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const LENIENT: Ingest<'static> = Ingest::Lenient { file: "facts.tsv" };

    #[test]
    fn facts_round_trip() {
        let input =
            "http://a.com/x\te1\tp\tv1\nhttp://a.com/x\te2\tp\tv2\nhttp://b.com\te3\tq\tv3\n";
        let mut terms = Interner::new();
        let sources = read_facts(input.as_bytes(), &mut terms).unwrap();
        assert_eq!(sources.len(), 2);
        let mut out = Vec::new();
        write_facts(&mut out, &terms, &sources).unwrap();
        let mut terms2 = Interner::new();
        let back = read_facts(&out[..], &mut terms2).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.iter().map(|s| s.len()).sum::<usize>(), 3);
    }

    #[test]
    fn facts_reject_bad_lines() {
        let mut terms = Interner::new();
        assert!(read_facts(&b"only\tthree\tfields\n"[..], &mut terms).is_err());
        assert!(read_facts(&b"not-a-url\ts\tp\to\n"[..], &mut terms).is_err());
    }

    #[test]
    fn lenient_read_quarantines_bad_lines_and_keeps_good_ones() {
        // Line 2 has too few fields, line 4 has a bad URL; lines 1/3/5 are
        // good. Both bad lines would abort the strict reader.
        let input = "http://a.com/x\te1\tp\tv1\n\
                     only\tthree\tfields\n\
                     http://a.com/x\te2\tp\tv2\n\
                     not-a-url\ts\tp\to\n\
                     http://b.com\te3\tq\tv3\n";
        let mut terms = Interner::new();
        assert!(read_facts(input.as_bytes(), &mut terms).is_err());
        let (sources, faults) = parse_facts(input.as_bytes(), &mut terms, LENIENT, 1).unwrap();
        assert_eq!(sources.len(), 2);
        assert_eq!(sources.iter().map(|s| s.len()).sum::<usize>(), 3);
        assert_eq!(faults.len(), 2);
        for fault in &faults {
            assert_eq!(fault.stage, Stage::Read);
            assert_eq!(fault.cause.tag(), "parse");
        }
        match &faults[0].cause {
            FaultCause::Parse { file, line, .. } => {
                assert_eq!(file, "facts.tsv");
                assert_eq!(*line, 2);
            }
            other => panic!("unexpected cause {other:?}"),
        }
        assert_eq!(
            faults[0].source, "facts.tsv",
            "field-count fault has no URL"
        );
        assert_eq!(
            faults[1].source, "not-a-url",
            "URL fault names the raw text"
        );
    }

    #[test]
    fn injected_faults_keep_per_source_line_context() {
        // Two sources injected to fail in the same round must each carry the
        // line their own first record sits on — not a shared context-free
        // entry (the old behavior recorded line 0 for every injected fault).
        let input = "http://a.com/x\te1\tp\tv1\n\
                     http://b.com/y\te2\tp\tv2\n\
                     http://c.com/z\te3\tp\tv3\n";
        let plan = midas_core::FaultPlan::parse("parse@a.com/x,parse@c.com/z").unwrap();
        let mut terms = Interner::new();
        faultinject::install(plan);
        let result = parse_facts(input.as_bytes(), &mut terms, LENIENT, 1);
        faultinject::clear();
        let (sources, faults) = result.unwrap();
        assert_eq!(sources.len(), 1);
        assert_eq!(faults.len(), 2);
        let lines: Vec<u64> = faults
            .iter()
            .map(|f| match &f.cause {
                FaultCause::Parse { file, line, .. } => {
                    assert_eq!(file, "facts.tsv");
                    *line
                }
                other => panic!("unexpected cause {other:?}"),
            })
            .collect();
        assert_eq!(lines, [1, 3], "each fault names its own source's line");
    }

    #[test]
    fn lenient_read_of_clean_input_matches_strict() {
        let input = "http://a.com/x\te1\tp\tv1\nhttp://b.com\te2\tq\tv2\n";
        let mut terms = Interner::new();
        let strict = read_facts(input.as_bytes(), &mut terms).unwrap();
        let mut terms2 = Interner::new();
        let (lenient, faults) = parse_facts(input.as_bytes(), &mut terms2, LENIENT, 1).unwrap();
        assert!(faults.is_empty());
        assert_eq!(strict.len(), lenient.len());
        for (a, b) in strict.iter().zip(&lenient) {
            assert_eq!(a.url, b.url);
            assert_eq!(a.len(), b.len());
        }
    }

    /// 50 good lines, then one with a `0xFF` byte on line 51, then one more.
    fn facts_with_bad_byte_on_line_51() -> Vec<u8> {
        let mut input = Vec::new();
        for i in 0..50 {
            input.extend_from_slice(format!("http://a.com/p{}\te{i}\tp\tv\n", i % 5).as_bytes());
        }
        input.extend_from_slice(b"http://a.com/p0\te\xff\tp\tv\n");
        input.extend_from_slice(b"http://b.com\tlast\tp\tv\n");
        input
    }

    #[test]
    fn invalid_utf8_fails_strict_with_its_line() {
        let input = facts_with_bad_byte_on_line_51();
        let mut terms = Interner::new();
        let err = read_facts(&input[..], &mut terms).unwrap_err();
        assert_eq!(err.to_string(), "data error: line 51: invalid UTF-8");
    }

    #[test]
    fn invalid_utf8_is_quarantined_leniently() {
        let input = facts_with_bad_byte_on_line_51();
        let mut terms = Interner::new();
        let (sources, faults) = parse_facts(&input[..], &mut terms, LENIENT, 1).unwrap();
        assert_eq!(sources.len(), 6, "every other line survives");
        assert_eq!(sources.iter().map(|s| s.len()).sum::<usize>(), 51);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].source, "facts.tsv");
        assert_eq!(
            faults[0].cause,
            FaultCause::Parse {
                file: "facts.tsv".into(),
                line: 51,
                message: "invalid UTF-8".into(),
            }
        );
    }

    #[test]
    fn chunking_and_threads_do_not_change_the_result() {
        // Two raw spellings of one page, split by another page, under every
        // chunk size: one source, in first-occurrence symbol order.
        let input = b"http://A.com/x\te1\tp\tv\r\nhttp://b.com\te2\tp\tw\n\
                      # note\nhttp://a.com/x/\te3\tq\tv\n";
        let mut reference = None;
        for chunk_bytes in [1, 7, 64, usize::MAX] {
            for threads in [1, 3] {
                let mut terms = Interner::new();
                let (sources, faults) = parse_facts_chunked(
                    &input[..],
                    &mut terms,
                    Ingest::Strict,
                    threads,
                    chunk_bytes,
                )
                .unwrap();
                assert!(faults.is_empty());
                let dump: Vec<String> = terms.iter().map(|(_, t)| t.to_owned()).collect();
                let shape: Vec<(String, usize)> = sources
                    .iter()
                    .map(|s| (s.url.as_str().to_owned(), s.len()))
                    .collect();
                let got = (dump, shape);
                match &reference {
                    None => reference = Some(got),
                    Some(r) => assert_eq!(r, &got, "chunk {chunk_bytes}, threads {threads}"),
                }
            }
        }
        let (dump, shape) = reference.unwrap();
        assert_eq!(dump, ["e1", "p", "v", "e2", "w", "e3", "q"]);
        assert_eq!(
            shape,
            [
                ("http://a.com/x".to_owned(), 2),
                ("http://b.com".to_owned(), 1)
            ]
        );
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let input = "# comment\n\nhttp://a.com/x\te\tp\tv\n";
        let mut terms = Interner::new();
        let sources = read_facts(input.as_bytes(), &mut terms).unwrap();
        assert_eq!(sources.len(), 1);
    }

    #[test]
    fn gold_groups_by_url_and_slice_id() {
        let input = "http://a.com/x\tg0\te1\nhttp://a.com/x\tg0\te2\nhttp://a.com/x\tg1\te3\nhttp://b.com\tg0\te4\n";
        let mut terms = Interner::new();
        let gold = read_gold(input.as_bytes(), &mut terms).unwrap();
        assert_eq!(gold.len(), 3, "two slices at a.com/x, one at b.com");
        assert_eq!(gold[0].entities.len(), 2);
    }

    #[test]
    fn gold_round_trip() {
        let mut terms = Interner::new();
        let gold = vec![GoldSlice {
            source: SourceUrl::parse("http://a.com/x").unwrap(),
            properties: vec![],
            entities: vec![terms.intern("e1"), terms.intern("e2")],
            description: "g".into(),
        }];
        let mut buf = Vec::new();
        write_gold(&mut buf, &terms, &gold).unwrap();
        let mut terms2 = Interner::new();
        let back = read_gold(&buf[..], &mut terms2).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].entities.len(), 2);
    }

    #[test]
    fn kb_round_trip() {
        let mut terms = Interner::new();
        let kb: KnowledgeBase = vec![
            Fact::intern(&mut terms, "a", "p", "1"),
            Fact::intern(&mut terms, "b", "q", "2"),
        ]
        .into_iter()
        .collect();
        let mut out = Vec::new();
        write_kb(&mut out, &terms, &kb).unwrap();
        let mut terms2 = Interner::new();
        let back = read_kb(&out[..], &mut terms2).unwrap();
        assert_eq!(back.len(), 2);
    }

    /// A reader over `bytes` that counts what it has handed out.
    struct Counting<'a> {
        bytes: &'a [u8],
        read: &'a std::cell::Cell<usize>,
    }

    impl Read for Counting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.bytes.read(buf)?;
            self.read.set(self.read.get() + n);
            Ok(n)
        }
    }

    /// However long the input, no more than `2 × threads + 1` chunks are
    /// in memory at once: whenever a chunk is merged, the bytes read but
    /// not yet merged fit in that many chunks. Each chunk is the target
    /// plus the rest of one line, and the reader's look-ahead is within
    /// one chunk.
    #[test]
    fn at_most_two_chunks_per_thread_plus_one_are_alive() {
        const TARGET: usize = 16 << 10;
        const LINE: usize = 64;
        let mut input = Vec::new();
        let mut i = 0;
        while input.len() < 60 * TARGET {
            let line = format!("http://a.com/p{}\te{i}\tp\tv{}\n", i % 7, i % 13);
            assert!(line.len() <= LINE);
            input.extend_from_slice(line.as_bytes());
            i += 1;
        }
        for threads in [1, 2, 4] {
            let read = std::cell::Cell::new(0);
            let mut merged = 0;
            let mut chunks = 0;
            parse_chunked(
                Counting {
                    bytes: &input,
                    read: &read,
                },
                TARGET,
                threads,
                |chunk| chunk.len(),
                |len| {
                    let alive = read.get() - merged;
                    assert!(
                        alive <= (2 * threads + 1) * (TARGET + LINE),
                        "threads {threads}: {alive} bytes read and not merged"
                    );
                    merged += len;
                    chunks += 1;
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(merged, input.len());
            assert!(chunks >= 60, "threads {threads}: {chunks} chunks");
        }
    }

    /// A regular file is read up to the length it had when opened: one cut
    /// short in the meantime is an I/O error, not a shorter corpus.
    #[test]
    fn a_file_truncated_after_it_was_opened_is_an_error() {
        let path = std::env::temp_dir().join(format!("midas_truncated_{}.tsv", std::process::id()));
        let body = "http://a.com/x\te1\tp\tv1\n".repeat(100);
        std::fs::write(&path, &body).unwrap();
        let input = Input::open(path.to_str().unwrap()).unwrap();
        std::fs::write(&path, &body[..body.len() / 2]).unwrap();
        let mut terms = Interner::new();
        let err = parse_facts(input.reader().unwrap(), &mut terms, Ingest::Strict, 1).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        match err {
            CliError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "{e}"),
            other => panic!("unexpected error {other:?}"),
        }
    }
}
