//! The byte-level line layer every text reader in the workspace shares.
//!
//! A reader never allocates a `String` per line. It reads its input into
//! owned, line-aligned chunks of a fixed target size ([`ChunkReader`]),
//! carrying a partial last line over to the next chunk, so only a bounded
//! number of chunks is ever in memory, whatever the input's size; the
//! chunk boundaries are those [`chunks`] cuts from the same bytes held in
//! one slice. [`Lines`] walks each chunk's data lines and owns the rules
//! every format agrees on: 1-based line numbers, trailing `\r` trimming,
//! skipping blank lines and `#` comments, and the UTF-8 check.
//!
//! Terms are collected per chunk into a [`Dict`], in first-occurrence order,
//! and records refer to them by chunk-local `u32` ids. The dictionary copies
//! each distinct term once into its own string arena, so a parsed chunk
//! does not borrow its raw bytes, and those can be freed as soon as the
//! chunk is parsed. Chunks can therefore be parsed independently (on a
//! worker pool) and merged afterwards, in chunk order, by
//! [`Dict::intern_into`]: a term interned while merging chunk `k` is new
//! to the interner exactly when it did not occur in chunks `0..k`, and
//! within chunk `k` the dictionary lists terms in the order they first
//! occur. So every term receives the symbol of its first occurrence in the
//! file — the id a line-by-line reader hands out — at every chunk size and
//! thread count.

use crate::interner::{term_hash, Interner, PreHashed, Symbol};
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;
use std::io::{self, Read};

/// Target size of one parse chunk, in bytes. Fixed, so chunk boundaries —
/// and with them the number of pool tasks a parse issues — depend only on
/// the input bytes, never on the thread count.
pub const CHUNK_BYTES: usize = 1 << 20;

/// Cuts `bytes` into line-aligned chunks of about `target` bytes each.
///
/// Every chunk but the last ends with a `\n` (a chunk runs on past
/// `target` to the end of the line it reached), so no line is split and
/// the chunks concatenate back to `bytes`. `target` is clamped to at least
/// 1, which yields one chunk per line. This is the partition
/// [`ChunkReader`] reads from a stream, stated over a slice.
pub fn chunks(bytes: &[u8], target: usize) -> Vec<&[u8]> {
    let target = target.max(1);
    let mut out = Vec::with_capacity(bytes.len() / target + 1);
    let mut rest = bytes;
    while rest.len() > target {
        let end = match find_newline(&rest[target - 1..]) {
            Some(i) => target + i,
            None => rest.len(),
        };
        let (head, tail) = rest.split_at(end);
        out.push(head);
        rest = tail;
    }
    if !rest.is_empty() {
        out.push(rest);
    }
    out
}

fn find_newline(bytes: &[u8]) -> Option<usize> {
    bytes.iter().position(|&b| b == b'\n')
}

/// How far past the target a chunk's first read goes, to find the end of
/// the line the target falls in without a second read. What follows that
/// line's end is carried over to the next chunk.
const LINE_SLACK: usize = 4096;

/// The most a fill reserves ahead of reading: a chunk target larger than
/// [`CHUNK_BYTES`] (tests read a whole input as one chunk) grows its
/// buffer as the bytes arrive instead.
const MAX_RESERVE: usize = CHUNK_BYTES + LINE_SLACK;

/// Reads a stream into owned, line-aligned chunks: the partition [`chunks`]
/// cuts from the same bytes, one chunk at a time.
///
/// Each chunk is a fresh buffer the caller owns and may send to another
/// thread. Only the bytes read past the end of the last chunk (at most
/// 4 KiB of them, or the rest of one long line) are held between chunks. A read error ends the iteration early; [`ChunkReader::finish`]
/// returns it.
#[derive(Debug)]
pub struct ChunkReader<R> {
    inner: R,
    target: usize,
    /// Bytes read past the end of the last chunk.
    carry: Vec<u8>,
    /// The stream has reported its end.
    eof: bool,
    error: Option<io::Error>,
}

impl<R: Read> ChunkReader<R> {
    /// Reads `inner` in chunks of about `target` bytes (clamped to at
    /// least 1, as in [`chunks`]).
    pub fn new(inner: R, target: usize) -> Self {
        ChunkReader {
            inner,
            target: target.max(1),
            carry: Vec::new(),
            eof: false,
            error: None,
        }
    }

    /// The read error that ended the iteration, if one did.
    pub fn finish(self) -> io::Result<()> {
        self.error.map_or(Ok(()), Err)
    }

    /// Reads into `buf` until it holds `want` bytes or the stream ends.
    fn fill(&mut self, buf: &mut Vec<u8>, want: usize) -> io::Result<()> {
        if self.eof || buf.len() >= want {
            return Ok(());
        }
        let need = want - buf.len();
        buf.reserve(need.min(MAX_RESERVE));
        let got = self.inner.by_ref().take(need as u64).read_to_end(buf)?;
        self.eof = got < need;
        Ok(())
    }

    fn next_chunk(&mut self) -> io::Result<Option<Vec<u8>>> {
        let target = self.target;
        let want = target.saturating_add(LINE_SLACK);
        let mut buf = Vec::with_capacity(want.min(MAX_RESERVE).max(self.carry.len()));
        buf.extend_from_slice(&self.carry);
        self.carry.clear();
        self.fill(&mut buf, want)?;
        if buf.len() <= target {
            // The stream ended within the target: the rest is the last chunk.
            return Ok((!buf.is_empty()).then_some(buf));
        }
        // The chunk ends with the line holding its target-th byte.
        let mut from = target - 1;
        loop {
            if let Some(i) = find_newline(&buf[from..]) {
                let end = from + i + 1;
                self.carry.extend_from_slice(&buf[end..]);
                buf.truncate(end);
                return Ok(Some(buf));
            }
            if self.eof {
                return Ok(Some(buf));
            }
            from = buf.len();
            self.fill(&mut buf, from.saturating_mul(2))?;
        }
    }
}

impl<R: Read> Iterator for ChunkReader<R> {
    type Item = Vec<u8>;

    fn next(&mut self) -> Option<Vec<u8>> {
        if self.error.is_some() {
            return None;
        }
        self.next_chunk().unwrap_or_else(|e| {
            self.error = Some(e);
            None
        })
    }
}

/// A line that is not valid UTF-8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidUtf8;

impl fmt::Display for InvalidUtf8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid UTF-8")
    }
}

impl std::error::Error for InvalidUtf8 {}

/// The data lines of one chunk: `(line number, text)` pairs, numbered from
/// 1 at the chunk's first line.
///
/// Lines end at `\n`; trailing `\r`s are trimmed (so CRLF files read like
/// LF files); a final line without a newline counts. Blank lines and lines
/// starting with `#` are skipped but still numbered. A line that is not
/// valid UTF-8 — comment or not — is yielded as `Err(InvalidUtf8)`, so a
/// reader can fail on it or quarantine it and carry on.
#[derive(Debug, Clone)]
pub struct Lines<'a> {
    rest: Rest<'a>,
    number: usize,
}

#[derive(Debug, Clone)]
enum Rest<'a> {
    /// The chunk validated as UTF-8 in one pass: lines need no check.
    Text(&'a str),
    /// The chunk holds invalid bytes somewhere: each line is checked.
    Bytes(&'a [u8]),
}

impl<'a> Lines<'a> {
    /// Walks the lines of `chunk`.
    pub fn new(chunk: &'a [u8]) -> Self {
        let rest = match std::str::from_utf8(chunk) {
            Ok(text) => Rest::Text(text),
            Err(_) => Rest::Bytes(chunk),
        };
        Lines { rest, number: 0 }
    }

    /// How many lines (data, blank and comment) have been consumed so far.
    /// Once the iterator is exhausted this is the chunk's line count, the
    /// offset the next chunk's line numbers start from.
    pub fn consumed(&self) -> usize {
        self.number
    }

    fn next_line(&mut self) -> Option<Result<&'a str, InvalidUtf8>> {
        match &mut self.rest {
            Rest::Text(text) if !text.is_empty() => {
                let (line, tail) = text.split_once('\n').unwrap_or((text, ""));
                *text = tail;
                Some(Ok(line.trim_end_matches('\r')))
            }
            Rest::Bytes(bytes) if !bytes.is_empty() => {
                let (line, tail) = match find_newline(bytes) {
                    Some(i) => (&bytes[..i], &bytes[i + 1..]),
                    None => (&bytes[..], &[][..]),
                };
                *bytes = tail;
                let end = line.iter().rposition(|&b| b != b'\r').map_or(0, |i| i + 1);
                Some(std::str::from_utf8(&line[..end]).map_err(|_| InvalidUtf8))
            }
            _ => None,
        }
    }
}

impl<'a> Iterator for Lines<'a> {
    type Item = (usize, Result<&'a str, InvalidUtf8>);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let line = self.next_line()?;
            self.number += 1;
            match line {
                Ok(text) if text.is_empty() || text.starts_with('#') => continue,
                line => return Some((self.number, line)),
            }
        }
    }
}

/// A chunk's term dictionary: each distinct term once, with chunk-local ids
/// `0, 1, 2, …` in first-occurrence order. The terms are copied back to
/// back into one string arena, so the dictionary owns them and outlives
/// the chunk's bytes. Each term's [`term_hash`] is computed once, here on
/// the parse worker, and handed to the interner at merge time, so the merge
/// never hashes a string.
#[derive(Debug, Default)]
pub struct Dict {
    /// Hash → the first id with that hash.
    ids: HashMap<u64, u32, BuildHasherDefault<PreHashed>>,
    /// Ids whose hash an earlier, different term already holds.
    collided: Vec<u32>,
    /// Every distinct term, back to back in id order.
    arena: String,
    /// Per id: the end of its term in `arena`, and its hash.
    terms: Vec<(usize, u64)>,
}

impl Dict {
    /// The term with chunk-local id `id`.
    fn term(&self, id: u32) -> &str {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.terms[id - 1].0 };
        &self.arena[start..self.terms[id].0]
    }

    /// The chunk-local id of `term`, assigning the next id on first sight.
    pub fn id(&mut self, term: &str) -> u32 {
        let h = term_hash(term);
        let collided = match self.ids.get(&h) {
            Some(&id) if self.term(id) == term => return id,
            Some(_) => match self.collided.iter().find(|&&id| self.term(id) == term) {
                Some(&id) => return id,
                None => true,
            },
            None => false,
        };
        let id = u32::try_from(self.terms.len()).expect("chunk dictionary overflow");
        self.arena.push_str(term);
        self.terms.push((self.arena.len(), h));
        if collided {
            self.collided.push(id);
        } else {
            self.ids.insert(h, id);
        }
        id
    }

    /// Interns the terms into `terms` in id order and returns the symbol of
    /// each local id. Called once per chunk, in chunk order (see the module
    /// docs for why that reproduces first-occurrence symbol ids).
    pub fn intern_into(&self, terms: &mut Interner) -> Vec<Symbol> {
        (0..self.terms.len())
            .map(|id| terms.intern_hashed(self.term(id as u32), self.terms[id].1))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_lines(bytes: &[u8]) -> Vec<(usize, Result<&str, InvalidUtf8>)> {
        Lines::new(bytes).collect()
    }

    #[test]
    fn chunks_are_line_aligned_and_cover_the_input() {
        let input = b"aa\nbbbb\nc\n\ndddddd";
        for target in [0, 1, 2, 3, 7, 64] {
            let parts = chunks(input, target);
            assert_eq!(parts.concat(), input, "target {target}");
            for part in &parts[..parts.len() - 1] {
                assert_eq!(part.last(), Some(&b'\n'), "target {target}");
            }
        }
        assert_eq!(chunks(input, 1).len(), 5, "one chunk per line");
        assert_eq!(chunks(input, 64).len(), 1);
        assert!(chunks(b"", 4).is_empty());
    }

    #[test]
    fn lines_number_trim_and_skip() {
        let input = b"# c\r\nx\ty\r\r\n\n\r\nlast";
        assert_eq!(data_lines(input), vec![(2, Ok("x\ty")), (5, Ok("last"))]);
        let mut lines = Lines::new(input);
        lines.by_ref().for_each(drop);
        assert_eq!(lines.consumed(), 5);
        let mut lines = Lines::new(b"a\n\n");
        lines.by_ref().for_each(drop);
        assert_eq!(lines.consumed(), 2, "a final newline ends the last line");
    }

    #[test]
    fn invalid_utf8_is_reported_per_line() {
        let input = b"ok\n\xff\tbad\n#\xfe\nfine\r\n";
        assert_eq!(
            data_lines(input),
            vec![
                (1, Ok("ok")),
                (2, Err(InvalidUtf8)),
                (3, Err(InvalidUtf8)),
                (4, Ok("fine")),
            ]
        );
    }

    #[test]
    fn dictionary_keeps_first_occurrence_order() {
        let mut dict = Dict::default();
        let ids: Vec<u32> = ["b", "a", "b", "c", "a"]
            .into_iter()
            .map(|t| dict.id(t))
            .collect();
        assert_eq!(ids, [0, 1, 0, 2, 1]);
        let copy = String::from("c");
        assert_eq!(
            dict.id(&copy),
            2,
            "an equal term held elsewhere keeps its id"
        );
        let mut terms = Interner::new();
        terms.intern("a");
        let symbols = dict.intern_into(&mut terms);
        let names: Vec<&str> = symbols.iter().map(|&s| terms.resolve(s)).collect();
        assert_eq!(names, ["b", "a", "c"]);
        assert_eq!(
            symbols[1].index(),
            0,
            "a term already interned keeps its symbol"
        );
    }

    /// A reader that hands out at most `step` bytes per call, so the chunk
    /// reader's fills take several reads.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.step).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    fn read_chunks(bytes: &[u8], target: usize, step: usize) -> Vec<Vec<u8>> {
        let mut reader = ChunkReader::new(Trickle { bytes, step }, target);
        let out: Vec<Vec<u8>> = reader.by_ref().collect();
        reader.finish().unwrap();
        out
    }

    #[test]
    fn chunk_reader_handles_the_edge_cases() {
        assert!(
            read_chunks(b"", 4, 3).is_empty(),
            "an empty input has no chunks"
        );
        let long = [b"x".repeat(3 * LINE_SLACK), b"\nab\r\ncd".to_vec()].concat();
        for (input, target) in [(&long[..], 2), (&long[..], 1), (b"a\r\nb\r\n", 3)] {
            let expected: Vec<&[u8]> = chunks(input, target);
            assert_eq!(read_chunks(input, target, 1000), expected);
        }
    }

    #[test]
    fn chunk_reader_surfaces_a_read_error() {
        struct Failing(usize);
        impl Read for Failing {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.0 == 0 {
                    return Err(io::Error::other("disk gone"));
                }
                let n = buf.len().min(self.0);
                buf[..n].fill(b'\n');
                self.0 -= n;
                Ok(n)
            }
        }
        let mut reader = ChunkReader::new(Failing(10), 4);
        let got: Vec<Vec<u8>> = reader.by_ref().collect();
        assert!(got.is_empty(), "the chunk the error cut short is dropped");
        assert_eq!(reader.finish().unwrap_err().to_string(), "disk gone");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The owned reader yields exactly the partition of [`chunks`] on
        /// random inputs: lines longer than the target, CRLF endings, a
        /// missing final newline, empty lines and an empty input.
        #[test]
        fn chunk_reader_yields_the_slice_partition(
            lines in proptest::collection::vec((0u8..40, proptest::prelude::any::<bool>()), 0..30),
            final_newline in proptest::prelude::any::<bool>(),
            target in 1usize..48,
            step in 1usize..64,
        ) {
            let mut input = Vec::new();
            for (i, &(len, crlf)) in lines.iter().enumerate() {
                input.extend(std::iter::repeat_n(b'a' + (i % 26) as u8, len as usize));
                if crlf {
                    input.push(b'\r');
                }
                if i + 1 < lines.len() || final_newline {
                    input.push(b'\n');
                }
            }
            let expected: Vec<&[u8]> = chunks(&input, target);
            let got = read_chunks(&input, target, step);
            proptest::prop_assert_eq!(got.len(), expected.len());
            for (g, e) in got.iter().zip(&expected) {
                proptest::prop_assert_eq!(&g[..], *e);
            }
        }
    }
}
