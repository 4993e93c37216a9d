//! The chunked ingest path against an oracle: the line-by-line readers it
//! replaced, kept here verbatim in structure (one `String` per line,
//! `BufRead` split on `\n`, terms interned as each line is read). The only
//! change is the UTF-8 rule both paths now share: a line that is not UTF-8
//! is a fault at its line, not an I/O error for the whole file.
//!
//! A proptest feeds both paths random facts and KB bodies — CRLF endings,
//! comments, blank lines, a missing final newline, backslash escapes, wrong
//! field counts, bad URLs, non-UTF-8 lines, one page under differently
//! spelled URLs and pages that recur after others — and requires the same
//! interner dump, sources, KB, strict error text and lenient fault list at
//! every chunk size and thread count.

use crate::args::CliError;
use crate::facts_io::{parse_facts_chunked, parse_kb_chunked, Ingest};
use midas_core::{FaultCause, SourceFacts, SourceFault, Stage};
use midas_kb::{Fact, Interner, KnowledgeBase};
use midas_weburl::SourceUrl;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::BufRead;

/// Each line of `bytes` with its 1-based number, read through `BufRead`
/// one owned buffer at a time: CR-trimmed, blank and `#` lines dropped,
/// `Err(())` where the line is not UTF-8.
fn oracle_lines(bytes: &[u8]) -> Vec<(usize, Result<String, ()>)> {
    let mut out = Vec::new();
    for (i, line) in BufRead::split(bytes, b'\n').enumerate() {
        let lineno = i + 1;
        let Ok(line) = String::from_utf8(line.expect("in-memory read")) else {
            out.push((lineno, Err(())));
            continue;
        };
        let trimmed = line.trim_end_matches('\r');
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        out.push((lineno, Ok(trimmed.to_owned())));
    }
    out
}

/// The old facts reader. `lenient: Some(file)` quarantines; `None` fails.
fn oracle_facts(
    bytes: &[u8],
    terms: &mut Interner,
    lenient: Option<&str>,
) -> Result<(Vec<SourceFacts>, Vec<SourceFault>), String> {
    let mut by_url: BTreeMap<SourceUrl, Vec<Fact>> = BTreeMap::new();
    let mut faults = Vec::new();
    for (lineno, line) in oracle_lines(bytes) {
        let fault = |source: Option<&str>, message: String| match lenient {
            None => Err(format!("data error: line {lineno}: {message}")),
            Some(file) => Ok(SourceFault {
                source: source.unwrap_or(file).to_owned(),
                stage: Stage::Read,
                cause: FaultCause::Parse {
                    file: file.to_owned(),
                    line: lineno as u64,
                    message,
                },
                facts_seen: 0,
            }),
        };
        let Ok(line) = line else {
            faults.push(fault(None, "invalid UTF-8".into())?);
            continue;
        };
        let fields: Vec<&str> = line.split('\t').collect();
        let [url, s, p, o] = fields[..] else {
            let msg = "expected 4 tab-separated fields (url, subject, predicate, object)";
            faults.push(fault(None, msg.into())?);
            continue;
        };
        match SourceUrl::parse(url) {
            Ok(url) => by_url
                .entry(url)
                .or_default()
                .push(Fact::intern(terms, s, p, o)),
            Err(e) => faults.push(fault(Some(url), e.to_string())?),
        }
    }
    let sources = by_url
        .into_iter()
        .map(|(url, facts)| SourceFacts::new(url, facts))
        .collect();
    Ok((sources, faults))
}

/// The old KB reader, with its allocate-always unescape.
fn oracle_kb(bytes: &[u8], terms: &mut Interner) -> Result<Vec<Fact>, String> {
    let fail = |line: usize, message: &str| {
        Err(format!("data error: parse error at line {line}: {message}"))
    };
    let mut out = Vec::new();
    for (lineno, line) in oracle_lines(bytes) {
        let Ok(line) = line else {
            return fail(lineno, "invalid UTF-8");
        };
        let fields: Vec<&str> = line.split('\t').collect();
        let [s, p, o] = fields[..] else {
            return fail(lineno, "expected exactly three tab-separated fields");
        };
        let mut unescaped = Vec::new();
        for field in [s, p, o] {
            let mut term = String::new();
            let mut chars = field.chars();
            while let Some(c) = chars.next() {
                if c != '\\' {
                    term.push(c);
                    continue;
                }
                match chars.next() {
                    Some('\\') => term.push('\\'),
                    Some('t') => term.push('\t'),
                    Some('n') => term.push('\n'),
                    Some('#') => term.push('#'),
                    other => {
                        let msg = format!("invalid escape sequence \\{}", other.unwrap_or(' '));
                        return fail(lineno, &msg);
                    }
                }
            }
            unescaped.push(term);
        }
        out.push(Fact::intern(
            terms,
            &unescaped[0],
            &unescaped[1],
            &unescaped[2],
        ));
    }
    Ok(out)
}

fn dump(terms: &Interner) -> Vec<String> {
    terms.iter().map(|(_, t)| t.to_owned()).collect()
}

fn shape(sources: &[SourceFacts]) -> Vec<(String, Vec<Fact>)> {
    sources
        .iter()
        .map(|s| (s.url.as_str().to_owned(), s.facts.to_vec()))
        .collect()
}

type FactsOutcome = Result<(Vec<String>, Vec<(String, Vec<Fact>)>, Vec<SourceFault>), String>;

fn run_chunked(bytes: &[u8], ingest: Ingest<'_>, threads: usize, chunk: usize) -> FactsOutcome {
    let mut terms = Interner::new();
    let (sources, faults) = parse_facts_chunked(bytes, &mut terms, ingest, threads, chunk)
        .map_err(|e: CliError| e.to_string())?;
    Ok((dump(&terms), shape(&sources), faults))
}

fn run_oracle(bytes: &[u8], lenient: Option<&str>) -> FactsOutcome {
    let mut terms = Interner::new();
    let (sources, faults) = oracle_facts(bytes, &mut terms, lenient)?;
    Ok((dump(&terms), shape(&sources), faults))
}

/// Chunk sizes: one line per chunk, a few bytes, a few lines, whole file.
const CHUNK_SIZES: [usize; 4] = [1, 7, 64, usize::MAX];

fn check_facts(bytes: &[u8]) -> TestCaseResult {
    for (ingest, lenient) in [
        (Ingest::Strict, None),
        (Ingest::Lenient { file: "f.tsv" }, Some("f.tsv")),
    ] {
        let expected = run_oracle(bytes, lenient);
        for chunk in CHUNK_SIZES {
            for threads in [1, 3] {
                let got = run_chunked(bytes, ingest, threads, chunk);
                prop_assert_eq!(
                    &got,
                    &expected,
                    "{:?} chunk {} threads {}",
                    ingest,
                    chunk,
                    threads
                );
            }
        }
    }
    Ok(())
}

fn check_kb(bytes: &[u8]) -> TestCaseResult {
    let mut oracle_terms = Interner::new();
    let expected = oracle_kb(bytes, &mut oracle_terms)
        .map(|facts| (dump(&oracle_terms), KnowledgeBase::from_iter(facts)));
    for chunk in CHUNK_SIZES {
        for threads in [1, 3] {
            let mut terms = Interner::new();
            let got = parse_kb_chunked(bytes, &mut terms, threads, chunk)
                .map(|kb| (dump(&terms), kb))
                .map_err(|e| e.to_string());
            match (&got, &expected) {
                (Ok((d1, kb1)), Ok((d2, kb2))) => {
                    prop_assert_eq!(d1, d2, "chunk {} threads {}", chunk, threads);
                    prop_assert!(kb1.iter().eq(kb2.iter()), "chunk {chunk} threads {threads}");
                }
                (Err(e1), Err(e2)) => prop_assert_eq!(e1, e2),
                _ => prop_assert!(false, "chunk {chunk}: {got:?} vs {expected:?}"),
            }
        }
    }
    // The kb crate's own one-thread reader keeps file order and duplicates.
    let mut terms = Interner::new();
    let mut oracle_terms = Interner::new();
    let sequential = midas_kb::io::read_tsv(bytes, &mut terms).map_err(|e| e.to_string());
    let oracle = oracle_kb(bytes, &mut oracle_terms);
    match (sequential, oracle) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
        (Err(a), Err(b)) => prop_assert_eq!(format!("data error: {a}"), b),
        (a, b) => prop_assert!(false, "{a:?} vs {b:?}"),
    }
    Ok(())
}

/// Joins generated lines with `\n` or `\r\n`, with or without a final one.
fn body(lines: &[(Vec<u8>, bool)], final_newline: bool) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, (line, crlf)) in lines.iter().enumerate() {
        out.extend_from_slice(line);
        if i + 1 < lines.len() || final_newline {
            out.extend_from_slice(if *crlf { b"\r\n" } else { b"\n" });
        }
    }
    out
}

/// One facts line of kind `kind` (weighted towards good records).
fn facts_line(kind: u8, url: u8, s: u8, p: u8, o: u8) -> Vec<u8> {
    // Page 0 under three spellings that normalise to one URL.
    const URLS: [&str; 6] = [
        "http://a.com/x",
        "http://A.com/x",
        "http://a.com/x/",
        "http://b.com/y",
        "http://b.com/y/z",
        "https://c.org",
    ];
    const TERMS: [&str; 5] = ["e", "Über", "p", "#v", "v w"];
    let url = URLS[url as usize % URLS.len()];
    let term = |i: u8, tag: &str| format!("{}{tag}{}", TERMS[i as usize % TERMS.len()], i % 3);
    let good = format!(
        "{url}\t{}\t{}\t{}",
        term(s, "s"),
        term(p, "p"),
        term(o, "o")
    );
    match kind % 12 {
        0 => b"# a comment".to_vec(),
        1 => Vec::new(),
        2 => format!("{url}\tonly\tthree").into_bytes(),
        3 => format!("not-a-url\t{}\tp\to", term(s, "s")).into_bytes(),
        4 => {
            let mut bytes = good.into_bytes();
            bytes.insert(bytes.len() / 2, 0xff);
            bytes
        }
        5 => format!("{good}\textra").into_bytes(),
        _ => good.into_bytes(),
    }
}

/// One KB line of kind `kind` (weighted towards good records).
fn kb_line(kind: u8, s: u8, p: u8, o: u8) -> Vec<u8> {
    const TERMS: [&str; 6] = ["a", "b\\\\c", "\\#h", "t\\tab", "Ωm", "n\\nl"];
    let term = |i: u8| TERMS[i as usize % TERMS.len()].to_owned() + &(i % 4).to_string();
    let good = format!("{}\t{}\t{}", term(s), term(p), term(o));
    match kind % 12 {
        0 => b"# comment".to_vec(),
        1 => Vec::new(),
        2 => format!("{}\t{}", term(s), term(p)).into_bytes(),
        3 => format!("{}\\q\t{}\t{}", term(s), term(p), term(o)).into_bytes(),
        4 => vec![b'a', b'\t', 0xfe, b'\t', b'c'],
        _ => good.into_bytes(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn chunked_facts_parse_matches_the_line_reader(
        lines in proptest::collection::vec(any::<((u8, u8), (u8, u8, u8), bool)>(), 0..40),
        final_newline in any::<bool>(),
        clean in any::<bool>(),
    ) {
        // Half the cases are clean, so the strict path gets past line one.
        let lines: Vec<(Vec<u8>, bool)> = lines
            .iter()
            .map(|&((kind, url), (s, p, o), crlf)| {
                let kind = if clean { 6 + kind % 6 } else { kind };
                (facts_line(kind, url, s, p, o), crlf)
            })
            .collect();
        check_facts(&body(&lines, final_newline))?;
    }

    #[test]
    fn chunked_kb_parse_matches_the_line_reader(
        lines in proptest::collection::vec(any::<(u8, u8, u8, u8, bool)>(), 0..40),
        final_newline in any::<bool>(),
        clean in any::<bool>(),
    ) {
        let lines: Vec<(Vec<u8>, bool)> = lines
            .iter()
            .map(|&(kind, s, p, o, crlf)| {
                let kind = if clean { 5 + kind % 7 } else { kind };
                (kb_line(kind, s, p, o), crlf)
            })
            .collect();
        check_kb(&body(&lines, final_newline))?;
    }
}
