//! The byte-level line layer every text reader in the workspace shares.
//!
//! A reader holds its whole file as one byte slice and never allocates a
//! `String` per line. It cuts the bytes into line-aligned chunks
//! ([`chunks`]) and walks each chunk's data lines with [`Lines`], which owns
//! the rules every format agrees on: 1-based line numbers, trailing `\r`
//! trimming, skipping blank lines and `#` comments, and the UTF-8 check.
//!
//! Terms are collected per chunk into a [`Dict`], in first-occurrence order,
//! and records refer to them by chunk-local `u32` ids. Chunks can therefore
//! be parsed independently (on a worker pool) and merged afterwards, in
//! chunk order, by [`Dict::intern_into`]: a term interned while merging
//! chunk `k` is new to the interner exactly when it did not occur in chunks
//! `0..k`, and within chunk `k` the dictionary lists terms in the order
//! they first occur. So every term receives the symbol of its first
//! occurrence in the file — the id a line-by-line reader hands out — at
//! every chunk size and thread count.

use crate::interner::{term_hash, Interner, PreHashed, Symbol};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;

/// Target size of one parse chunk, in bytes. Fixed, so chunk boundaries —
/// and with them the number of pool tasks a parse issues — depend only on
/// the input bytes, never on the thread count.
pub const CHUNK_BYTES: usize = 1 << 20;

/// Cuts `bytes` into line-aligned chunks of about `target` bytes each.
///
/// Every chunk but the last ends with a `\n` (a chunk runs on past
/// `target` to the end of the line it reached), so no line is split and
/// the chunks concatenate back to `bytes`. `target` is clamped to at least
/// 1, which yields one chunk per line.
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
/// `0, 1, 2, …` in first-occurrence order. Terms borrow from the chunk's
/// bytes unless a reader had to rewrite them (unescaping). Each term's
/// [`term_hash`] is computed once, here on the parse worker, and handed to
/// the interner at merge time, so the merge never hashes a string.
#[derive(Debug, Default)]
pub struct Dict<'a> {
    /// Hash → the first id with that hash.
    ids: HashMap<u64, u32, BuildHasherDefault<PreHashed>>,
    /// Ids whose hash an earlier, different term already holds.
    collided: Vec<u32>,
    terms: Vec<(Cow<'a, str>, u64)>,
}

impl<'a> Dict<'a> {
    /// The chunk-local id of `term`, assigning the next id on first sight.
    pub fn id(&mut self, term: Cow<'a, str>) -> u32 {
        let h = term_hash(&term);
        let collided = match self.ids.get(&h) {
            Some(&id) if self.terms[id as usize].0 == term => return id,
            Some(_) => {
                let terms = &self.terms;
                match self
                    .collided
                    .iter()
                    .find(|&&id| terms[id as usize].0 == term)
                {
                    Some(&id) => return id,
                    None => true,
                }
            }
            None => false,
        };
        let id = u32::try_from(self.terms.len()).expect("chunk dictionary overflow");
        self.terms.push((term, h));
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
        self.terms
            .iter()
            .map(|(t, h)| terms.intern_hashed(t, *h))
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
            .map(|t| dict.id(Cow::Borrowed(t)))
            .collect();
        assert_eq!(ids, [0, 1, 0, 2, 1]);
        assert_eq!(dict.id(Cow::Owned("c".to_owned())), 2);
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
}
