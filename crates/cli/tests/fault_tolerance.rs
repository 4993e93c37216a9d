//! CLI acceptance test for the fault-isolated pipeline: a 20-source corpus
//! with 3 injected faults (one parse error, one worker panic, one budget
//! exhaustion) completes, quarantines exactly those 3 sources, and emits
//! slices bit-identical to a clean run over the surviving 17 sources — at
//! every `--threads` value.
//!
//! The fault-injection plan and the `MIDAS_FAULTINJECT` variable are
//! process-global, so every test here serialises on [`PLAN_LOCK`].

use midas_cli::commands::{run_algorithm, run_algorithm_budgeted};
use midas_cli::{facts_io, run, CliError};
use midas_core::{faultinject, FaultPlan, SourceBudget};
use midas_kb::{Interner, KnowledgeBase};
use std::io::BufReader;
use std::sync::{Mutex, MutexGuard};

static PLAN_LOCK: Mutex<()> = Mutex::new(());

struct PlanSession(#[allow(dead_code)] MutexGuard<'static, ()>);

fn plan_session() -> PlanSession {
    PlanSession(PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner()))
}

impl Drop for PlanSession {
    fn drop(&mut self) {
        std::env::remove_var("MIDAS_FAULTINJECT");
        faultinject::clear();
    }
}

const PARSE_VICTIM: &str = "domain0.example.org/dir/page2";
const PANIC_VICTIM: &str = "domain2.example.org/dir/page0";
const BUDGET_VICTIM: &str = "domain4.example.org/dir/page3";

fn fault_spec() -> String {
    format!("parse@{PARSE_VICTIM},panic@{PANIC_VICTIM},budget@{BUDGET_VICTIM}")
}

/// The 20-source corpus as TSV: 5 domains × 4 pages, each page 4 entities
/// with 3 facts (one vertical per domain). `skip_victims` omits the three
/// fault targets, yielding the 17-source clean corpus.
fn corpus_tsv(skip_victims: bool) -> String {
    let mut out = String::new();
    for d in 0..5 {
        for p in 0..4 {
            let url = format!("http://domain{d}.example.org/dir/page{p}.html");
            if skip_victims
                && [PARSE_VICTIM, PANIC_VICTIM, BUDGET_VICTIM]
                    .iter()
                    .any(|v| url.contains(v))
            {
                continue;
            }
            for e in 0..4 {
                let name = format!("stem{d}_{p}_{e}");
                out.push_str(&format!("{url}\t{name}\tkind\tstem{d}\n"));
                out.push_str(&format!("{url}\t{name}\tsite\tstem{d}_dir\n"));
                out.push_str(&format!("{url}\t{name}\tserial\tstem{d}{p}{e}\n"));
            }
        }
    }
    out
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("midas_fault_tol_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_owned).collect()
}

/// Bit-identical slices: the faulted 20-source run equals the clean
/// 17-source run, value for value, at every thread count.
#[test]
fn three_fault_run_is_bit_identical_to_clean_seventeen_source_run() {
    let _session = plan_session();
    let plan = FaultPlan::parse(&fault_spec()).unwrap();

    // Clean corpus, strict reader, no plan.
    let mut clean_terms = Interner::new();
    let clean_sources = facts_io::read_facts(
        BufReader::new(corpus_tsv(true).as_bytes()),
        &mut clean_terms,
    )
    .unwrap();
    assert_eq!(clean_sources.len(), 17);

    for threads in [1, 2, 4, 8] {
        // Faulted corpus: the lenient reader drops the parse victim, the
        // framework quarantines the panic and budget victims.
        faultinject::install(plan.clone());
        let mut terms = Interner::new();
        let (sources, read_faults) = facts_io::parse_facts(
            corpus_tsv(false).as_bytes(),
            &mut terms,
            facts_io::Ingest::Lenient { file: "facts.tsv" },
            threads,
        )
        .unwrap();
        assert_eq!(sources.len(), 19, "parse victim dropped at read time");
        assert_eq!(read_faults.len(), 1);
        assert!(read_faults[0].source.contains(PARSE_VICTIM));

        let kb = KnowledgeBase::new();
        let (slices, quarantine) = run_algorithm_budgeted(
            Default::default(),
            midas_core::CostModel::default(),
            &sources,
            &kb,
            threads,
            SourceBudget::unlimited(),
            None,
            None,
        );
        faultinject::clear();
        assert_eq!(quarantine.len(), 2, "panic + budget victims");
        assert!(quarantine
            .iter()
            .any(|f| f.source.contains(PANIC_VICTIM) && f.cause.tag() == "panic"));
        assert!(quarantine
            .iter()
            .any(|f| f.source.contains(BUDGET_VICTIM) && f.cause.tag() == "budget"));

        let clean_slices = run_algorithm(
            Default::default(),
            midas_core::CostModel::default(),
            &clean_sources,
            &kb,
            threads,
        );
        assert_eq!(slices.len(), clean_slices.len(), "threads={threads}");
        for (a, b) in slices.iter().zip(&clean_slices) {
            assert_eq!(a.source, b.source);
            assert_eq!(a.num_facts, b.num_facts);
            assert_eq!(a.num_new_facts, b.num_new_facts);
            assert_eq!(a.entities.len(), b.entities.len());
            assert_eq!(
                a.profit.to_bits(),
                b.profit.to_bits(),
                "threads={threads}: profits not bit-identical"
            );
        }
    }
}

/// The same scenario through the full CLI: `discover --lenient --csv` with
/// `MIDAS_FAULTINJECT` set completes, lists exactly the 3 victims as CSV
/// comments, and its data rows match the clean run's byte for byte.
#[test]
fn cli_discover_quarantines_three_and_matches_clean_output() {
    let _session = plan_session();
    let dir = tmpdir("cli");
    let faulted = dir.join("facts.tsv");
    let clean = dir.join("clean.tsv");
    std::fs::write(&faulted, corpus_tsv(false)).unwrap();
    std::fs::write(&clean, corpus_tsv(true)).unwrap();

    for threads in [1, 4] {
        std::env::set_var("MIDAS_FAULTINJECT", fault_spec());
        let mut out = Vec::new();
        run(
            &argv(&format!(
                "discover --facts {} --lenient --csv --threads {threads}",
                faulted.to_str().unwrap()
            )),
            &mut out,
        )
        .unwrap();
        std::env::remove_var("MIDAS_FAULTINJECT");
        faultinject::clear();
        let faulted_text = String::from_utf8(out).unwrap();

        let mut out = Vec::new();
        run(
            &argv(&format!(
                "discover --facts {} --csv --threads {threads}",
                clean.to_str().unwrap()
            )),
            &mut out,
        )
        .unwrap();
        let clean_text = String::from_utf8(out).unwrap();

        let data = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| !l.starts_with('#') || l.starts_with("#,"))
                .map(str::to_owned)
                .collect()
        };
        assert_eq!(
            data(&faulted_text),
            data(&clean_text),
            "threads={threads}: CSV data rows must match the clean run"
        );
        assert!(
            faulted_text.contains("# quarantined 3 source(s):"),
            "threads={threads}:\n{faulted_text}"
        );
        for victim in [PARSE_VICTIM, PANIC_VICTIM, BUDGET_VICTIM] {
            assert!(
                faulted_text.contains(victim),
                "threads={threads}: {victim} missing:\n{faulted_text}"
            );
        }
        assert!(
            !clean_text.contains("quarantined"),
            "clean run quarantines nothing"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// When multiple sources fault in one round, the trailing summary keeps
/// each fault's own originating `file:line` (regression: injected parse
/// faults used to collapse to a context-free `file:0` entry, making the
/// victims indistinguishable in the summary).
#[test]
fn multi_fault_summary_keeps_per_source_file_line() {
    let _session = plan_session();
    let dir = tmpdir("multifault");
    let facts = dir.join("facts.tsv");
    std::fs::write(&facts, corpus_tsv(false)).unwrap();
    // Two parse victims: domain0/page2's first record is line 25 (pages are
    // 12 lines each), domain1/page1's is line 61.
    std::env::set_var(
        "MIDAS_FAULTINJECT",
        "parse@domain0.example.org/dir/page2,parse@domain1.example.org/dir/page1",
    );
    let mut out = Vec::new();
    run(
        &argv(&format!(
            "discover --facts {} --lenient",
            facts.to_str().unwrap()
        )),
        &mut out,
    )
    .unwrap();
    std::env::remove_var("MIDAS_FAULTINJECT");
    faultinject::clear();
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("quarantined 2 source(s):"), "{text}");
    assert!(
        text.contains("facts.tsv:25"),
        "first victim keeps its own line context:\n{text}"
    );
    assert!(
        text.contains("facts.tsv:61"),
        "second victim keeps its own line context:\n{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A malformed `MIDAS_FAULTINJECT` spec is a usage error, not a panic or a
/// silently ignored plan.
#[test]
fn malformed_faultinject_spec_is_a_usage_error() {
    let _session = plan_session();
    let dir = tmpdir("badspec");
    let facts = dir.join("facts.tsv");
    std::fs::write(&facts, "http://a.com/x\te\tp\tv\n").unwrap();
    std::env::set_var("MIDAS_FAULTINJECT", "explode@#1");
    let mut out = Vec::new();
    let err = run(
        &argv(&format!("discover --facts {}", facts.to_str().unwrap())),
        &mut out,
    )
    .unwrap_err();
    std::env::remove_var("MIDAS_FAULTINJECT");
    assert!(matches!(err, CliError::Usage(_)), "{err}");
    assert!(err.to_string().contains("MIDAS_FAULTINJECT"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--max-source-nodes N` counts canonical slices: a source whose initial
/// slices have more than N closed sets is quarantined, while a wide source
/// with one 8-property initial slice passes — its Apriori subset lattice
/// had 2^8 − 1 nodes, but its only canonical slice is that initial one.
#[test]
fn max_source_nodes_counts_canonical_slices() {
    let _session = plan_session();
    let dir = tmpdir("nodecap");
    let facts = dir.join("facts.tsv");
    let mut tsv = String::new();
    let wide = "http://wide.example.org/all.html";
    for e in 0..3 {
        for p in 0..8 {
            tsv.push_str(&format!("{wide}\twide{e}\tattr{p}\tvalue{p}\n"));
        }
    }
    // Entity i carries every flag but flag i: the closed sets are the 31
    // non-empty intersections of the five flag sets, each with `kind`.
    let branchy = "http://branchy.example.org/all.html";
    for e in 0..5 {
        tsv.push_str(&format!("{branchy}\tbranchy{e}\tkind\tthing\n"));
        for f in (0..5).filter(|&f| f != e) {
            tsv.push_str(&format!("{branchy}\tbranchy{e}\tflag{f}\tyes\n"));
        }
    }
    std::fs::write(&facts, tsv).unwrap();
    let mut out = Vec::new();
    run(
        &argv(&format!(
            "discover --facts {} --max-source-nodes 10",
            facts.to_str().unwrap()
        )),
        &mut out,
    )
    .unwrap();
    let text = String::from_utf8(out).unwrap();
    let (results, quarantine) = text
        .split_once("quarantined 1 source(s):")
        .unwrap_or_else(|| panic!("exactly one source quarantined:\n{text}"));
    assert!(quarantine.contains("branchy.example.org"), "{text}");
    assert!(!quarantine.contains("wide.example.org"), "{text}");
    assert!(results.contains("wide.example.org"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}
