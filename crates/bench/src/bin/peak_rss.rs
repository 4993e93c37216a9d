//! Peak-RSS probe for the streaming shard pipeline.
//!
//! Runs the full framework over a ≥200-source synthetic corpus at a given
//! `--threads` and prints one JSON line carrying wall time and the
//! process's peak resident set size (`VmHWM`). The kernel's high-water mark
//! is process-wide and monotone, so thread counts must be compared across
//! *separate processes* — `scripts/bench_smoke.sh` invokes this binary once
//! per configuration.
//!
//! Each worker holds one shard's transient state (fact table and hierarchy
//! extents) at a time and drops it before taking the next. The corpus is
//! shaped so that per-worker state dominates the resident corpus itself:
//! peak memory then visibly grows with the worker count.

use criterion::peak_rss_kb;
use midas_core::{Framework, MidasAlg, MidasConfig, SourceFacts};
use midas_kb::{Fact, Interner, KnowledgeBase};
use midas_weburl::SourceUrl;
use std::time::Instant;

/// 12 domains × 20 pages = 240 sources; each page carries `entities`
/// entities with 5 shared dimensions plus one unique serial fact, so every
/// page builds a non-trivial hierarchy over a dense extent universe.
fn corpus(t: &mut Interner, entities: usize) -> Vec<SourceFacts> {
    let mut sources = Vec::new();
    for d in 0..12 {
        for p in 0..20 {
            let mut facts = Vec::with_capacity(entities * 6);
            for e in 0..entities {
                let name = format!("e{d}_{p}_{e}");
                facts.push(Fact::intern(t, &name, "kind", &format!("vertical{d}")));
                facts.push(Fact::intern(t, &name, "site", &format!("dir{d}")));
                facts.push(Fact::intern(t, &name, "group", &format!("g{}", e % 4)));
                facts.push(Fact::intern(t, &name, "band", &format!("b{}", e % 8)));
                facts.push(Fact::intern(t, &name, "tier", &format!("t{}", e % 16)));
                facts.push(Fact::intern(t, &name, "serial", &format!("s{d}_{p}_{e}")));
            }
            let url = SourceUrl::parse(&format!("http://domain{d}.example.org/dir/page{p}.html"))
                .expect("static url");
            sources.push(SourceFacts::new(url, facts));
        }
    }
    sources
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut threads = 16usize;
    let mut entities = 250usize;
    while let Some(a) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match a.as_str() {
            "--threads" => threads = value("--threads").parse().expect("thread count"),
            "--entities" => entities = value("--entities").parse().expect("entity count"),
            other => panic!(
                "unknown argument {other:?} \
                 (usage: peak_rss [--threads N] [--entities N])"
            ),
        }
    }

    let mut terms = Interner::new();
    let sources = corpus(&mut terms, entities);
    let num_sources = sources.len();
    assert!(
        num_sources >= 200,
        "corpus too small for a meaningful RSS comparison: {num_sources} sources"
    );

    let config = MidasConfig::running_example().with_threads(threads);
    let alg = MidasAlg::new(config.clone());
    let fw = Framework::new(&alg, config.cost).with_threads(threads);
    let start = Instant::now();
    let report = fw.run(sources, &KnowledgeBase::new());
    let elapsed_ms = start.elapsed().as_millis();

    println!(
        "{{\"bench\":\"peak_rss/threads_{threads}\",\"sources\":{},\"slices\":{},\"threads\":{threads},\"elapsed_ms\":{},\"peak_rss_kb\":{}}}",
        num_sources,
        report.slices.len(),
        elapsed_ms,
        peak_rss_kb(),
    );
}
