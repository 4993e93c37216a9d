//! Reading and writing triple files.
//!
//! Two line-oriented formats are supported:
//!
//! * **TSV** — `subject \t predicate \t object` with backslash escapes for
//!   tab, newline, and backslash inside terms. This is the working format of
//!   the harness (fast, diff-friendly).
//! * **N-Triples-like** — `<subject> <predicate> <object> .` with `%`-style
//!   escapes for `<`, `>`, and `%` inside terms. Close enough to RDF
//!   N-Triples to interoperate with simple tooling, without pulling in an
//!   RDF dependency.
//!
//! Both readers take the whole input as bytes and walk it with the shared
//! line layer ([`crate::tokenize::Lines`]): blank lines and `#` comments
//! are skipped, and a malformed line — a non-UTF-8 one included — is
//! reported as [`KbError::Parse`] with its line number. Terms are interned
//! into a caller-supplied [`Interner`] in first-occurrence order.
//!
//! The TSV reader is chunked: [`parse_tsv_chunk`] parses one line-aligned
//! chunk into a chunk-local dictionary and id triples, touching no shared
//! state, and [`TsvMerge`] folds chunks in order into facts. [`read_tsv`]
//! runs the two back to back on one thread; the CLI runs the parse on its
//! worker pool and merges the same way, so both produce the same symbols.
//! A field is unescaped only when it holds a backslash; every other term
//! borrows from the input until it is interned.

use crate::error::KbError;
use crate::fact::Fact;
use crate::interner::Interner;
use crate::tokenize::{self, Dict, Lines};
use std::borrow::Cow;
use std::io::{Read, Write};

fn escape_tsv(term: &str, out: &mut String) {
    // A subject beginning with '#' would read back as a comment line.
    if let Some(rest) = term.strip_prefix('#') {
        out.push_str("\\#");
        escape_tsv_rest(rest, out);
    } else {
        escape_tsv_rest(term, out);
    }
}

fn escape_tsv_rest(term: &str, out: &mut String) {
    for ch in term.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Unescapes one TSV field. Only fields that hold a `\` are rewritten;
/// the rest borrow from the input.
fn unescape_tsv(field: &str) -> Result<Cow<'_, str>, String> {
    if !field.contains('\\') {
        return Ok(Cow::Borrowed(field));
    }
    let mut out = String::with_capacity(field.len());
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('#') => out.push('#'),
            other => {
                return Err(format!(
                    "invalid escape sequence \\{}",
                    other.unwrap_or(' ')
                ))
            }
        }
    }
    Ok(Cow::Owned(out))
}

/// Writes facts as TSV lines.
pub fn write_tsv<W: Write>(
    mut w: W,
    terms: &Interner,
    facts: impl IntoIterator<Item = Fact>,
) -> Result<(), KbError> {
    let mut buf = String::new();
    for f in facts {
        buf.clear();
        escape_tsv(terms.resolve(f.subject), &mut buf);
        buf.push('\t');
        escape_tsv(terms.resolve(f.predicate), &mut buf);
        buf.push('\t');
        escape_tsv(terms.resolve(f.object), &mut buf);
        buf.push('\n');
        w.write_all(buf.as_bytes())?;
    }
    Ok(())
}

/// One parsed chunk of a TSV triple file: its dictionary, its records as
/// chunk-local id triples, and the first malformed line, if any.
#[derive(Debug)]
pub struct TsvChunk<'a> {
    dict: Dict<'a>,
    triples: Vec<[u32; 3]>,
    /// Lines in the chunk (data, blank and comment).
    lines: usize,
    /// The first malformed line: chunk-relative number and message.
    fault: Option<(usize, String)>,
}

/// Parses one line-aligned chunk of a TSV triple file (see
/// [`tokenize::chunks`]). Parsing stops at the chunk's first malformed
/// line, which [`TsvMerge::push`] reports.
pub fn parse_tsv_chunk(chunk: &[u8]) -> TsvChunk<'_> {
    let mut dict = Dict::default();
    let mut triples = Vec::new();
    let mut lines = Lines::new(chunk);
    let mut fault = None;
    for (number, text) in lines.by_ref() {
        match parse_tsv_line(text, &mut dict) {
            Ok(triple) => triples.push(triple),
            Err(message) => {
                fault = Some((number, message));
                break;
            }
        }
    }
    TsvChunk {
        dict,
        triples,
        lines: lines.consumed(),
        fault,
    }
}

fn parse_tsv_line<'a>(
    text: Result<&'a str, tokenize::InvalidUtf8>,
    dict: &mut Dict<'a>,
) -> Result<[u32; 3], String> {
    let text = text.map_err(|e| e.to_string())?;
    let mut fields = text.split('\t');
    let (s, p, o) = match (fields.next(), fields.next(), fields.next(), fields.next()) {
        (Some(s), Some(p), Some(o), None) => (s, p, o),
        _ => return Err("expected exactly three tab-separated fields".into()),
    };
    let (s, p, o) = (unescape_tsv(s)?, unescape_tsv(p)?, unescape_tsv(o)?);
    Ok([dict.id(s), dict.id(p), dict.id(o)])
}

/// Folds parsed TSV chunks, in file order, into facts.
#[derive(Debug, Default)]
pub struct TsvMerge {
    facts: Vec<Fact>,
    lines: usize,
}

impl TsvMerge {
    /// Merges the next chunk: interns its dictionary and appends its facts.
    /// A malformed line fails the merge with its file line number; since
    /// chunks arrive in order, that is the file's first malformed line.
    pub fn push(&mut self, chunk: TsvChunk<'_>, terms: &mut Interner) -> Result<(), KbError> {
        if let Some((line, message)) = chunk.fault {
            return Err(KbError::Parse {
                line: self.lines + line,
                message,
            });
        }
        self.lines += chunk.lines;
        let symbols = chunk.dict.intern_into(terms);
        self.facts.extend(chunk.triples.iter().map(|&[s, p, o]| {
            Fact::new(
                symbols[s as usize],
                symbols[p as usize],
                symbols[o as usize],
            )
        }));
        Ok(())
    }

    /// The merged facts, in file order (duplicates kept).
    pub fn finish(self) -> Vec<Fact> {
        self.facts
    }
}

/// Reads TSV facts, interning terms into `terms`. Facts come back in file
/// order, duplicates kept.
pub fn read_tsv<R: Read>(mut r: R, terms: &mut Interner) -> Result<Vec<Fact>, KbError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    let mut merge = TsvMerge::default();
    for chunk in tokenize::chunks(&bytes, tokenize::CHUNK_BYTES) {
        merge.push(parse_tsv_chunk(chunk), terms)?;
    }
    Ok(merge.finish())
}

fn escape_nt(term: &str, out: &mut String) {
    for ch in term.chars() {
        match ch {
            '%' => out.push_str("%25"),
            '<' => out.push_str("%3C"),
            '>' => out.push_str("%3E"),
            // The format is line-oriented, so line breaks must not survive
            // into the output verbatim.
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            c => out.push(c),
        }
    }
}

fn unescape_nt(term: &str, line: usize) -> Result<String, KbError> {
    let mut out = String::with_capacity(term.len());
    let bytes = term.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if i + 2 >= bytes.len() {
                return Err(KbError::Parse {
                    line,
                    message: "truncated %-escape".into(),
                });
            }
            let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).map_err(|_| KbError::Parse {
                line,
                message: "non-UTF8 %-escape".into(),
            })?;
            let byte = u8::from_str_radix(hex, 16).map_err(|_| KbError::Parse {
                line,
                message: format!("invalid %-escape %{hex}"),
            })?;
            out.push(byte as char);
            i += 3;
        } else {
            // Safe: we advance on char boundaries of the original string.
            let ch = term[i..].chars().next().expect("in-bounds char");
            out.push(ch);
            i += ch.len_utf8();
        }
    }
    Ok(out)
}

/// Writes facts in the N-Triples-like `<s> <p> <o> .` format.
pub fn write_ntriples<W: Write>(
    mut w: W,
    terms: &Interner,
    facts: impl IntoIterator<Item = Fact>,
) -> Result<(), KbError> {
    let mut buf = String::new();
    for f in facts {
        buf.clear();
        buf.push('<');
        escape_nt(terms.resolve(f.subject), &mut buf);
        buf.push_str("> <");
        escape_nt(terms.resolve(f.predicate), &mut buf);
        buf.push_str("> <");
        escape_nt(terms.resolve(f.object), &mut buf);
        buf.push_str("> .\n");
        w.write_all(buf.as_bytes())?;
    }
    Ok(())
}

/// Reads N-Triples-like facts, interning terms into `terms`.
pub fn read_ntriples<R: Read>(mut r: R, terms: &mut Interner) -> Result<Vec<Fact>, KbError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    let mut out = Vec::new();
    for (lineno, text) in Lines::new(&bytes) {
        let parse_error = |message: &str| KbError::Parse {
            line: lineno,
            message: message.into(),
        };
        let trimmed = text.map_err(|e| parse_error(&e.to_string()))?.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let body = trimmed
            .strip_suffix('.')
            .map(str::trim_end)
            .ok_or_else(|| parse_error("missing terminating '.'"))?;
        let mut fields = Vec::with_capacity(3);
        let mut rest = body;
        for _ in 0..3 {
            rest = rest.trim_start();
            let inner = rest
                .strip_prefix('<')
                .ok_or_else(|| parse_error("expected '<'-delimited term"))?;
            let end = inner
                .find('>')
                .ok_or_else(|| parse_error("unterminated term (no '>')"))?;
            fields.push(&inner[..end]);
            rest = &inner[end + 1..];
        }
        if !rest.trim().is_empty() {
            return Err(parse_error("trailing content after object term"));
        }
        let s = unescape_nt(fields[0], lineno)?;
        let p = unescape_nt(fields[1], lineno)?;
        let o = unescape_nt(fields[2], lineno)?;
        out.push(Fact::intern(terms, &s, &p, &o));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_facts(terms: &mut Interner) -> Vec<Fact> {
        vec![
            Fact::intern(terms, "Project Mercury", "category", "space_program"),
            Fact::intern(terms, "Atlas", "started", "1957"),
            Fact::intern(terms, "weird\tterm", "has\nnewline", "back\\slash"),
            Fact::intern(terms, "angle<bracket>", "percent%", "plain"),
            Fact::intern(terms, "#leading-hash", "p", "#also-hash"),
        ]
    }

    #[test]
    fn tsv_round_trip_preserves_terms() {
        let mut terms = Interner::new();
        let facts = sample_facts(&mut terms);
        let mut buf = Vec::new();
        write_tsv(&mut buf, &terms, facts.iter().copied()).unwrap();
        let mut terms2 = Interner::new();
        let back = read_tsv(&buf[..], &mut terms2).unwrap();
        assert_eq!(back.len(), facts.len());
        for (a, b) in facts.iter().zip(&back) {
            assert_eq!(terms.resolve(a.subject), terms2.resolve(b.subject));
            assert_eq!(terms.resolve(a.predicate), terms2.resolve(b.predicate));
            assert_eq!(terms.resolve(a.object), terms2.resolve(b.object));
        }
    }

    #[test]
    fn ntriples_round_trip_preserves_terms() {
        let mut terms = Interner::new();
        let facts = sample_facts(&mut terms);
        let mut buf = Vec::new();
        write_ntriples(&mut buf, &terms, facts.iter().copied()).unwrap();
        let mut terms2 = Interner::new();
        let back = read_ntriples(&buf[..], &mut terms2).unwrap();
        assert_eq!(back.len(), facts.len());
        for (a, b) in facts.iter().zip(&back) {
            assert_eq!(terms.resolve(a.subject), terms2.resolve(b.subject));
            assert_eq!(terms.resolve(a.predicate), terms2.resolve(b.predicate));
            assert_eq!(terms.resolve(a.object), terms2.resolve(b.object));
        }
    }

    #[test]
    fn tsv_skips_comments_and_blanks() {
        let input = b"# header\n\na\tp\t1\n";
        let mut terms = Interner::new();
        let facts = read_tsv(&input[..], &mut terms).unwrap();
        assert_eq!(facts.len(), 1);
    }

    #[test]
    fn tsv_rejects_wrong_field_count() {
        let input = b"a\tb\n";
        let mut terms = Interner::new();
        let err = read_tsv(&input[..], &mut terms).unwrap_err();
        assert!(matches!(err, KbError::Parse { line: 1, .. }));
    }

    #[test]
    fn tsv_reports_invalid_utf8_with_its_line() {
        let input = b"a\tp\t1\n# ok\nb\t\xff\t2\n";
        let mut terms = Interner::new();
        match read_tsv(&input[..], &mut terms).unwrap_err() {
            KbError::Parse { line, message } => {
                assert_eq!(line, 3);
                assert_eq!(message, "invalid UTF-8");
            }
            other => panic!("unexpected error {other:?}"),
        }
        let input = b"<a> <b> <c> .\n<\xfe> <b> <c> .\n";
        assert!(matches!(
            read_ntriples(&input[..], &mut terms),
            Err(KbError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn tsv_chunks_merge_to_the_whole_file_read() {
        let input = b"a\tp\t1\r\n\\#x\tp\\tq\t1\n\nb\tp\t2";
        let mut whole = Interner::new();
        let expected = read_tsv(&input[..], &mut whole).unwrap();
        for target in [1, 5, 64] {
            let mut terms = Interner::new();
            let mut merge = TsvMerge::default();
            for chunk in tokenize::chunks(input, target) {
                merge.push(parse_tsv_chunk(chunk), &mut terms).unwrap();
            }
            assert_eq!(merge.finish(), expected, "chunk target {target}");
            assert!(terms.iter().eq(whole.iter()), "chunk target {target}");
        }
        assert_eq!(whole.resolve(expected[1].subject), "#x");
        assert_eq!(whole.resolve(expected[1].predicate), "p\tq");
        let mut merge = TsvMerge::default();
        let mut terms = Interner::new();
        let mut chunks = tokenize::chunks(b"a\tb\tc\nbad line\n", 1).into_iter();
        merge
            .push(parse_tsv_chunk(chunks.next().unwrap()), &mut terms)
            .unwrap();
        let err = merge.push(parse_tsv_chunk(chunks.next().unwrap()), &mut terms);
        assert!(
            matches!(err, Err(KbError::Parse { line: 2, .. })),
            "line numbers continue across chunks: {err:?}"
        );
    }

    #[test]
    fn tsv_rejects_bad_escape() {
        let input = b"a\\q\tb\tc\n";
        let mut terms = Interner::new();
        assert!(read_tsv(&input[..], &mut terms).is_err());
    }

    #[test]
    fn ntriples_rejects_missing_dot() {
        let input = b"<a> <b> <c>\n";
        let mut terms = Interner::new();
        assert!(read_ntriples(&input[..], &mut terms).is_err());
    }

    #[test]
    fn ntriples_rejects_trailing_garbage() {
        let input = b"<a> <b> <c> <d> .\n";
        let mut terms = Interner::new();
        assert!(read_ntriples(&input[..], &mut terms).is_err());
    }

    #[test]
    fn ntriples_handles_crlf_and_comments() {
        let input = b"# c\r\n<a> <b> <c> .\r\n";
        let mut terms = Interner::new();
        let facts = read_ntriples(&input[..], &mut terms).unwrap();
        assert_eq!(facts.len(), 1);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let input = b"<a> <b> <c> .\nbroken line\n";
        let mut terms = Interner::new();
        match read_ntriples(&input[..], &mut terms).unwrap_err() {
            KbError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }
}
