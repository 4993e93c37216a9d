//! Subcommand implementations.

use crate::args::{Algorithm, CliError, Command, ParsedArgs, RunLimits};
use crate::checkpoint;
use crate::facts_io;
use crate::snapshot_cache;
use midas_baselines::{AggCluster, Greedy, Naive};
use midas_core::telemetry;
use midas_core::{
    faultinject, Augmenter, CostModel, DiscoveredSlice, FactTable, FaultPlan, MidasConfig,
    ProfitCtx, Quarantine, SourceBudget, SourceFacts,
};
use midas_eval::runner::{
    continue_augmentation, merge_by_domain, run_augmentation, run_detector_per_source_budgeted,
    run_midas_framework, run_midas_framework_with_tables, AugmentationRound,
};
use midas_eval::{bootstrap_prf, match_to_gold, Table};
use midas_kb::{DatasetStats, Interner, KnowledgeBase};
use midas_weburl::{SourceUrl, UrlPattern};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

/// Span histograms of the augmentation loop's CLI-side work.
mod metrics {
    midas_core::histogram!(pub CHECKPOINT_NS, "augment.checkpoint_ns");
}

/// Runs a parsed command, writing human output to `out`.
///
/// Telemetry is strictly additive: when `--metrics-json`/`--verbose-stats`
/// are absent (and `MIDAS_TRACE` is unset) the command's output bytes are
/// identical to a build without this layer. When present, the metrics table
/// and JSON snapshot are emitted *after* the command's normal output (and
/// after its trailing quarantine/notes blocks), as `#` comments in CSV mode.
pub fn dispatch(parsed: ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    install_fault_plan_from_env()?;
    let telemetry_args = parsed.telemetry;
    if telemetry_args.any() {
        telemetry::enable();
    }
    let csv_mode = matches!(parsed.command, Command::Discover { csv: true, .. });
    run_command(parsed.command, out)?;
    if telemetry_args.verbose_stats {
        let table = telemetry::render_table(&telemetry::snapshot());
        if csv_mode {
            for line in table.lines() {
                writeln!(out, "# {line}")?;
            }
        } else {
            write!(out, "\n{table}")?;
        }
    }
    if let Some(path) = &telemetry_args.metrics_json {
        telemetry::write_json(path).map_err(CliError::Io)?;
    }
    telemetry::flush_trace();
    Ok(())
}

fn run_command(command: Command, out: &mut dyn Write) -> Result<(), CliError> {
    match command {
        Command::Discover {
            facts,
            kb,
            algorithm,
            threads,
            top,
            cost,
            csv,
            explain,
            snapshot_cache,
            snapshot_cache_max_bytes,
            limits,
        } => discover(
            &facts,
            kb.as_deref(),
            algorithm,
            threads,
            top,
            cost,
            csv,
            explain,
            CacheOptions {
                dir: snapshot_cache.as_deref(),
                max_bytes: snapshot_cache_max_bytes,
            },
            limits,
            out,
        ),
        Command::Augment {
            facts,
            kb,
            rounds,
            threads,
            cost,
            snapshot_cache,
            snapshot_cache_max_bytes,
            resume,
            limits,
        } => augment(
            &facts,
            kb.as_deref(),
            rounds,
            threads,
            cost,
            CacheOptions {
                dir: snapshot_cache.as_deref(),
                max_bytes: snapshot_cache_max_bytes,
            },
            resume,
            limits,
            out,
        ),
        Command::Stats { facts } => stats(&facts, out),
        Command::Generate {
            dataset,
            scale,
            seed,
            out: dir,
        } => generate(&dataset, scale, seed, &dir, out),
        Command::Eval {
            facts,
            gold,
            kb,
            algorithm,
            threads,
            snapshot_cache,
            snapshot_cache_max_bytes,
            limits,
        } => eval(
            &facts,
            &gold,
            kb.as_deref(),
            algorithm,
            threads,
            CacheOptions {
                dir: snapshot_cache.as_deref(),
                max_bytes: snapshot_cache_max_bytes,
            },
            limits,
            out,
        ),
    }
}

/// Installs the fault-injection plan named by the `MIDAS_FAULTINJECT`
/// environment variable, if set. Leaves any programmatically installed plan
/// alone when the variable is absent (so in-process tests keep control).
fn install_fault_plan_from_env() -> Result<(), CliError> {
    if let Ok(spec) = std::env::var("MIDAS_FAULTINJECT") {
        let plan = FaultPlan::parse(&spec)
            .map_err(|e| CliError::Usage(format!("MIDAS_FAULTINJECT: {e}")))?;
        faultinject::install(plan);
    }
    Ok(())
}

/// Stable algorithm name for cache keys (matches the `--algorithm` value).
fn algorithm_name(a: Algorithm) -> &'static str {
    match a {
        Algorithm::Midas => "midas",
        Algorithm::Greedy => "greedy",
        Algorithm::AggCluster => "aggcluster",
        Algorithm::Naive => "naive",
    }
}

/// `--snapshot-cache` options bundled for plumbing through the commands.
pub struct CacheOptions<'a> {
    /// Cache directory (`--snapshot-cache`), if caching was requested.
    pub dir: Option<&'a str>,
    /// Total `.snap` size cap (`--snapshot-cache-max-bytes`).
    pub max_bytes: Option<u64>,
}

/// Translates CLI limits into the core per-source budget.
fn budget_from(limits: RunLimits) -> SourceBudget {
    let mut budget = SourceBudget::unlimited();
    if let Some(n) = limits.max_source_facts {
        budget = budget.with_max_facts(n);
    }
    if let Some(n) = limits.max_source_nodes {
        budget = budget.with_max_nodes(n);
    }
    if let Some(ms) = limits.source_deadline_ms {
        budget = budget.with_deadline(std::time::Duration::from_millis(ms));
    }
    budget
}

/// Writes snapshot-cache activity notes: `#`-comment lines in CSV mode,
/// plain trailing lines otherwise. Notes always come after the result
/// tables, so cached and uncached runs differ only in this trailer.
fn write_notes(out: &mut dyn Write, notes: &[String], csv: bool) -> Result<(), CliError> {
    for n in notes {
        if csv {
            writeln!(out, "# {n}")?;
        } else {
            writeln!(out, "{n}")?;
        }
    }
    Ok(())
}

/// Writes the quarantine summary: as a trailing block in human mode, as
/// `#`-comment lines in CSV mode (so the CSV body stays machine-parseable).
fn write_quarantine(
    out: &mut dyn Write,
    quarantine: &Quarantine,
    csv: bool,
) -> Result<(), CliError> {
    if quarantine.is_empty() {
        return Ok(());
    }
    let rendered = quarantine.render();
    if csv {
        for line in rendered.lines() {
            writeln!(out, "# {line}")?;
        }
    } else {
        write!(out, "\n{rendered}")?;
    }
    Ok(())
}

/// Runs the selected algorithm over a corpus, returning ranked slices.
/// Equivalent to [`run_algorithm_budgeted`] with an unlimited budget,
/// discarding the (then necessarily empty, bar panics) quarantine.
pub fn run_algorithm(
    algorithm: Algorithm,
    cost: CostModel,
    sources: &[SourceFacts],
    kb: &KnowledgeBase,
    threads: usize,
) -> Vec<DiscoveredSlice> {
    run_algorithm_budgeted(
        algorithm,
        cost,
        sources,
        kb,
        threads,
        SourceBudget::unlimited(),
        None,
    )
    .0
}

/// Runs the selected algorithm under a per-source budget, returning ranked
/// slices plus the quarantine of sources dropped during the run.
/// `threads` bounds how many sources a framework round holds in memory at
/// once; it never changes the result. `tables` carries prebuilt round-0
/// fact tables from a snapshot cache; only the MIDAS framework consumes
/// them (the baselines re-merge sources by domain, so per-page tables
/// cannot be reused).
pub fn run_algorithm_budgeted(
    algorithm: Algorithm,
    cost: CostModel,
    sources: &[SourceFacts],
    kb: &KnowledgeBase,
    threads: usize,
    budget: SourceBudget,
    tables: Option<&BTreeMap<SourceUrl, FactTable>>,
) -> (Vec<DiscoveredSlice>, Quarantine) {
    match algorithm {
        Algorithm::Midas => {
            // `--threads` drives both layers: source-level framework rounds
            // and level-wise hierarchy construction inside each detect call.
            let cfg = MidasConfig::default()
                .with_cost(cost)
                .with_threads(threads)
                .with_budget(budget);
            let run = match tables {
                Some(t) => run_midas_framework_with_tables(&cfg, sources.to_vec(), kb, threads, t),
                None => run_midas_framework(&cfg, sources.to_vec(), kb, threads),
            };
            (run.slices, run.quarantine)
        }
        Algorithm::Greedy => {
            let merged = merge_by_domain(sources);
            let run = run_detector_per_source_budgeted(&Greedy::new(cost), &merged, kb, budget);
            (run.slices, run.quarantine)
        }
        Algorithm::AggCluster => {
            let merged = merge_by_domain(sources);
            let run = run_detector_per_source_budgeted(&AggCluster::new(cost), &merged, kb, budget);
            (run.slices, run.quarantine)
        }
        Algorithm::Naive => {
            let merged = merge_by_domain(sources);
            let mut run = run_detector_per_source_budgeted(&Naive::new(cost), &merged, kb, budget);
            run.slices
                .sort_by_key(|s| std::cmp::Reverse(s.num_new_facts));
            (run.slices, run.quarantine)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn discover(
    facts_path: &str,
    kb_path: Option<&str>,
    algorithm: Algorithm,
    threads: usize,
    top: usize,
    (fp, fc, fd, fv): (f64, f64, f64, f64),
    csv: bool,
    explain: bool,
    cache: CacheOptions<'_>,
    limits: RunLimits,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let loaded = snapshot_cache::load_inputs(
        facts_path,
        kb_path,
        limits.lenient,
        cache.dir,
        cache.max_bytes,
        threads,
    )?;
    let (mut terms, sources, kb, read_faults) =
        (loaded.terms, loaded.sources, loaded.kb, loaded.read_faults);
    let mut notes = loaded.notes;
    let cost = CostModel { fp, fc, fd, fv };

    // The slice report itself is cacheable when nothing can drop a source:
    // budget limits quarantine, and a report saved from a budgeted run would
    // replay those drops into unbudgeted runs (and vice versa).
    let unbudgeted = limits.max_source_facts.is_none()
        && limits.max_source_nodes.is_none()
        && limits.source_deadline_ms.is_none();
    let slice_key = loaded.session.as_ref().filter(|_| unbudgeted).map(|s| {
        (
            snapshot_cache::slices_key(s.corpus_key, algorithm_name(algorithm), &cost),
            s,
        )
    });
    let cached_slices = slice_key.as_ref().and_then(|(key, session)| {
        snapshot_cache::load_cached_slices(session, *key, &mut terms, &mut notes)
    });

    let (slices, run_quarantine) = match cached_slices {
        Some(slices) => (slices, Quarantine::new()),
        None => {
            let (slices, run_quarantine) = run_algorithm_budgeted(
                algorithm,
                cost,
                &sources,
                &kb,
                threads,
                budget_from(limits),
                loaded.tables.as_ref(),
            );
            if let Some((key, session)) = &slice_key {
                // Only a complete report is worth replaying: a quarantined
                // source means slices are missing that a healthy rerun
                // would find.
                if run_quarantine.is_empty() {
                    snapshot_cache::store_slices(session, *key, &terms, &slices, &mut notes);
                }
            }
            (slices, run_quarantine)
        }
    };
    let mut quarantine = Quarantine::new();
    for fault in read_faults {
        quarantine.push(fault);
    }
    quarantine.merge(run_quarantine);

    let mut table = Table::new(
        "Discovered web source slices",
        &[
            "#",
            "slice",
            "source",
            "pattern",
            "entities",
            "new/total",
            "profit",
        ],
    );
    for (i, s) in slices.iter().take(top).enumerate() {
        let pages: Vec<_> = sources
            .iter()
            .filter(|src| {
                s.source.contains(&src.url)
                    && src
                        .facts
                        .iter()
                        .any(|f| s.entities.binary_search(&f.subject).is_ok())
            })
            .map(|src| src.url.clone())
            .collect();
        let pattern = UrlPattern::summarise(&pages)
            .map(|p| p.to_string())
            .unwrap_or_else(|| "-".to_owned());
        let desc = s.describe(&terms);
        let desc = desc.split(" @ ").next().unwrap_or_default().to_owned();
        table.row(&[
            (i + 1).to_string(),
            desc,
            s.source.to_string(),
            pattern,
            s.entities.len().to_string(),
            format!("{}/{}", s.num_new_facts, s.num_facts),
            format!("{:.3}", s.profit),
        ]);
    }
    if csv {
        write!(out, "{}", table.to_csv())?;
    } else {
        write!(out, "{}", table.render())?;
    }

    if explain {
        writeln!(out, "\nProfit breakdowns:")?;
        for (i, s) in slices.iter().take(top).enumerate() {
            // Rebuild the slice's context against its own source scope.
            let scope = sources.iter().filter(|src| s.source.contains(&src.url));
            let merged = SourceFacts::merge(s.source.clone(), scope);
            let table_w = FactTable::build(&merged, &kb);
            let ctx = ProfitCtx::new(&table_w, cost);
            let ids: Vec<u32> = s
                .entities
                .iter()
                .filter_map(|&e| table_w.entity(e))
                .collect();
            let extent = midas_core::ExtentSet::from_unsorted(table_w.num_entities() as u32, ids);
            writeln!(out, "  #{}: {}", i + 1, ctx.breakdown(&extent))?;
        }
    }
    write_quarantine(out, &quarantine, csv)?;
    write_notes(out, &notes, csv)?;
    Ok(())
}

/// Drives the incremental augmentation loop over the corpus and prints one
/// row per round: what was accepted, what it added, and how much of the
/// round's detection work was replayed from the warm cache.
/// Replays a checkpointed round trace into a fresh [`Augmenter`] and
/// continues the loop, checkpointing each newly completed round. Returns
/// the full trace (replayed prefix + new rounds).
///
/// Replay applies the recorded accepts for all but the last replayed round,
/// then re-runs the last round's suggest — a single full recompute that the
/// incremental engine's cold-restart equivalence guarantees matches the
/// original round, and that leaves the round cache in exactly the state the
/// uninterrupted run had. Continuing rounds therefore reuse cached tasks
/// identically, making the resumed report bit-identical (modulo wall-clock
/// timings; see `MIDAS_FIXED_TIMING`). Any divergence between checkpoint
/// and replay fails closed: the checkpoint is quarantined and the run
/// restarts cold.
#[allow(clippy::too_many_arguments)]
fn augment_with_checkpoints(
    session: &snapshot_cache::CacheSession,
    resume: bool,
    config: &MidasConfig,
    sources: Vec<SourceFacts>,
    kb: KnowledgeBase,
    threads: usize,
    rounds: usize,
    terms: &mut Interner,
    notes: &mut Vec<String>,
) -> Result<(Vec<AugmentationRound>, Augmenter), CliError> {
    let key = checkpoint::checkpoint_key(session.corpus_key, &config.cost, &config.budget);
    let name = checkpoint::checkpoint_name(key);
    let path = session.dir.entry_path(&name);

    let mut replayed: Vec<AugmentationRound> = Vec::new();
    if resume {
        let mut failure = None;
        if let Ok(_read) = session.dir.shared() {
            if path.exists() {
                match checkpoint::load_rounds(&path, key, terms) {
                    Ok(trace) => replayed = trace,
                    Err(e) => failure = Some(e.to_string()),
                }
            } else {
                notes.push("resume: no checkpoint found; starting from round 1".to_owned());
            }
        }
        if let Some(reason) = failure {
            let quarantined = session
                .dir
                .exclusive()
                .and_then(|_write| session.dir.quarantine(&name, &reason));
            match quarantined {
                Ok(dest) => notes.push(format!(
                    "resume: quarantined checkpoint {} ({reason}); starting from round 1",
                    dest.display()
                )),
                Err(e) => notes.push(format!(
                    "resume: ignoring checkpoint {name} ({reason}); quarantine failed: {e}"
                )),
            }
        }
        replayed.truncate(rounds);
        // Each round records the per-source deadline it ran under. A resume
        // under a different --source-deadline-ms must not replay: deadline
        // quarantines are wall-clock-dependent, so the recorded rounds only
        // reproduce under the budget that produced them. The checkpoint is
        // not at fault — leave it in place and restart cold (a later resume
        // with the original budget can still use it).
        let current_ms = config.budget.deadline.map(|d| d.as_millis() as u64);
        if replayed.iter().any(|r| r.budget_ms != current_ms) {
            notes.push(
                "resume: checkpoint was recorded under a different --source-deadline-ms; \
                 restarting cold"
                    .to_owned(),
            );
            replayed.clear();
        }
    }

    // Replay, keeping the inputs for a cold restart should the checkpoint
    // turn out not to match this corpus (a divergence is a bug or tampered
    // file — fail closed, never trust its rounds).
    let spare = (!replayed.is_empty()).then(|| (sources.clone(), kb.clone()));
    let mut aug = Augmenter::new(config.clone(), sources, kb).with_threads(threads);
    let mut diverged = None;
    let finished = match replayed.last() {
        None => false,
        Some(last) => {
            replayed.len() >= rounds
                || last.accepted.is_none()
                || matches!(&last.accepted, Some(s) if s.facts_added == 0)
        }
    };
    for (i, r) in replayed.iter().enumerate() {
        let Some(step) = &r.accepted else { break };
        let is_last = i + 1 == replayed.len();
        if is_last && !finished {
            // Re-run the last round's suggest so the round cache ends up in
            // the state the original round left it in (and verify it still
            // picks the recorded slice).
            let report = aug.suggest_report();
            match report.slices.iter().find(|s| s.profit > 0.0) {
                Some(best) if *best == step.slice => {}
                _ => {
                    diverged = Some(format!(
                        "round {}: replayed suggest no longer picks the recorded slice",
                        r.round
                    ));
                    break;
                }
            }
        }
        let applied = aug.accept(&step.slice);
        if applied.facts_added != step.facts_added || applied.kb_size != step.kb_size {
            diverged = Some(format!(
                "round {}: recorded +{} facts (kb {}), replay produced +{} (kb {})",
                r.round, step.facts_added, step.kb_size, applied.facts_added, applied.kb_size
            ));
            break;
        }
    }
    if let Some(reason) = diverged {
        let _ = session
            .dir
            .exclusive()
            .and_then(|_write| session.dir.quarantine(&name, &reason));
        notes.push(format!(
            "resume: checkpoint diverged ({reason}); quarantined, restarting cold"
        ));
        replayed.clear();
        let (sources, kb) = spare.unwrap_or_default();
        aug = Augmenter::new(config.clone(), sources, kb).with_threads(threads);
    }
    if !replayed.is_empty() {
        notes.push(format!(
            "resume: replayed {} checkpointed round(s)",
            replayed.len()
        ));
    }

    let mut trace = replayed;
    if !finished || trace.is_empty() {
        let start_round = trace.len() + 1;
        let mut ckpt_errors: Vec<String> = Vec::new();
        // The replayed prefix is compacted into the log's base once here;
        // each new round appends only its own encoding before the atomic
        // save, so checkpoint writes stay O(1) per round.
        let mut log = checkpoint::RoundLog::from_rounds(terms, &trace);
        // The manifest row is written after the first committed round and
        // again after the loop, not every round: `.ckpt` files are never
        // eviction candidates and eviction never reads the `bytes` column,
        // so a per-round rewrite (two fsyncs each) would buy nothing.
        let mut listed = false;
        let continued = {
            let trace_so_far = &mut trace;
            let errors = &mut ckpt_errors;
            let log = &mut log;
            let listed = &mut listed;
            continue_augmentation(&mut aug, start_round, rounds, |r| {
                let _span = telemetry::span("augment.checkpoint", &metrics::CHECKPOINT_NS);
                trace_so_far.push(r.clone());
                log.append(terms, r);
                let saved = session.dir.exclusive().and_then(|_write| {
                    log.save(&path, key)?;
                    if !*listed {
                        session.dir.touch(&name)?;
                        *listed = true;
                    }
                    Ok(())
                });
                if let Err(e) = saved {
                    errors.push(format!("checkpoint write failed: {e}"));
                }
            })
        };
        drop(continued); // rounds were accumulated via the callback
        if listed {
            let touched = session
                .dir
                .exclusive()
                .and_then(|_write| session.dir.touch(&name));
            if let Err(e) = touched {
                ckpt_errors.push(format!("checkpoint write failed: {e}"));
            }
        }
        notes.extend(ckpt_errors);
    }
    Ok((trace, aug))
}

#[allow(clippy::too_many_arguments)]
fn augment(
    facts_path: &str,
    kb_path: Option<&str>,
    rounds: usize,
    threads: usize,
    (fp, fc, fd, fv): (f64, f64, f64, f64),
    cache: CacheOptions<'_>,
    resume: bool,
    limits: RunLimits,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    // The augmentation loop memoises its own per-round tables; the snapshot
    // cache still removes the cold-start parse on every warm invocation.
    let loaded = snapshot_cache::load_inputs(
        facts_path,
        kb_path,
        limits.lenient,
        cache.dir,
        cache.max_bytes,
        threads,
    )?;
    let (mut terms, sources, kb, read_faults) =
        (loaded.terms, loaded.sources, loaded.kb, loaded.read_faults);
    let mut notes = loaded.notes;
    let config = MidasConfig::default()
        .with_cost(CostModel { fp, fc, fd, fv })
        .with_threads(threads)
        .with_budget(budget_from(limits));
    let initial_kb = kb.len();

    // Checkpointing needs a cache session. Deadline-budgeted runs are
    // checkpointed too: each round records the budget it ran under, and a
    // resume replays only when the recorded budget matches the current one
    // (otherwise it restarts cold — see `augment_with_checkpoints`).
    let checkpointing = loaded.session.is_some();
    let (trace, aug) = match (&loaded.session, checkpointing) {
        (Some(session), true) => augment_with_checkpoints(
            session, resume, &config, sources, kb, threads, rounds, &mut terms, &mut notes,
        )?,
        _ => {
            if resume {
                notes.push("resume unavailable: no usable snapshot cache; running cold".to_owned());
            }
            run_augmentation(&config, sources, kb, threads, rounds)
        }
    };
    // Wall-clock columns can never reproduce across runs; MIDAS_FIXED_TIMING
    // pins them so resume-vs-rerun comparisons are pure byte equality.
    let fixed_timing = std::env::var_os("MIDAS_FIXED_TIMING").is_some();

    let mut table = Table::new(
        "Augmentation rounds",
        &[
            "round",
            "accepted slice",
            "source",
            "+facts",
            "kb size",
            "suggest ms",
            "detects",
            "reused",
        ],
    );
    for r in &trace {
        let (desc, source, added) = match &r.accepted {
            Some(step) => {
                let desc = step.slice.describe(&terms);
                let desc = desc.split(" @ ").next().unwrap_or_default().to_owned();
                (
                    desc,
                    step.slice.source.to_string(),
                    step.facts_added.to_string(),
                )
            }
            None => ("(saturated)".to_owned(), "-".to_owned(), "-".to_owned()),
        };
        table.row(&[
            r.round.to_string(),
            desc,
            source,
            added,
            r.kb_size.to_string(),
            if fixed_timing {
                "0.0".to_owned()
            } else {
                format!("{:.1}", r.suggest_time.as_secs_f64() * 1e3)
            },
            r.detect_calls.to_string(),
            r.reused_tasks.to_string(),
        ]);
    }
    write!(out, "{}", table.render())?;
    writeln!(
        out,
        "\naccepted {} slices over {} rounds; knowledge base grew {} -> {} facts",
        aug.history().len(),
        trace.len(),
        initial_kb,
        aug.kb().len()
    )?;

    // Quarantined sources re-fault every round (injection and budgets are
    // deterministic), so the last round's quarantine is the loop's steady
    // state; earlier rounds' entries would only repeat it.
    let mut quarantine = Quarantine::new();
    for fault in read_faults {
        quarantine.push(fault);
    }
    if let Some(last) = trace.last() {
        quarantine.merge(last.quarantine.clone());
    }
    write_quarantine(out, &quarantine, false)?;
    write_notes(out, &notes, false)?;
    Ok(())
}

fn stats(facts_path: &str, out: &mut dyn Write) -> Result<(), CliError> {
    let mut terms = Interner::new();
    let (sources, _) = facts_io::load_facts(facts_path, &mut terms, facts_io::Ingest::Strict, 1)?;
    let stats = DatasetStats::compute(sources.iter().flat_map(|s| {
        let url = s.url.as_str();
        s.facts.iter().map(move |&f| (f, url))
    }));
    let mut domains: Vec<String> = sources
        .iter()
        .map(|s| s.url.domain().as_str().to_owned())
        .collect();
    domains.sort();
    domains.dedup();
    writeln!(out, "facts:      {}", stats.num_facts)?;
    writeln!(out, "predicates: {}", stats.num_predicates)?;
    writeln!(out, "subjects:   {}", stats.num_subjects)?;
    writeln!(out, "pages:      {}", stats.num_urls)?;
    writeln!(out, "domains:    {}", domains.len())?;
    Ok(())
}

fn generate(
    dataset: &str,
    scale: f64,
    seed: u64,
    dir: &str,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    use midas_extract::{kvault, slim, synthetic};
    let ds = match dataset {
        "synthetic" => synthetic::generate(&synthetic::SyntheticConfig {
            seed,
            ..synthetic::SyntheticConfig::default()
        }),
        "reverb-slim" => slim::generate(&slim::SlimConfig::reverb(seed).with_scale(scale)),
        "nell-slim" => slim::generate(&slim::SlimConfig::nell(seed).with_scale(scale)),
        "kvault" => kvault::generate(&kvault::KVaultConfig { scale, seed }),
        other => {
            return Err(CliError::Usage(format!(
                "unknown dataset {other:?} (expected synthetic|reverb-slim|nell-slim|kvault)"
            )))
        }
    };
    std::fs::create_dir_all(dir)?;
    let path = |name: &str| Path::new(dir).join(name);
    facts_io::write_facts(
        BufWriter::new(File::create(path("facts.tsv"))?),
        &ds.terms,
        &ds.sources,
    )?;
    facts_io::write_kb(
        BufWriter::new(File::create(path("kb.tsv"))?),
        &ds.terms,
        &ds.kb,
    )?;
    facts_io::write_gold(
        BufWriter::new(File::create(path("gold.tsv"))?),
        &ds.terms,
        &ds.truth.gold,
    )?;
    writeln!(
        out,
        "wrote {} facts across {} sources, {} KB facts, {} gold slices to {dir}",
        ds.total_facts(),
        ds.sources.len(),
        ds.kb.len(),
        ds.truth.gold.len()
    )?;
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn eval(
    facts_path: &str,
    gold_path: &str,
    kb_path: Option<&str>,
    algorithm: Algorithm,
    threads: usize,
    cache: CacheOptions<'_>,
    limits: RunLimits,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    // Gold labels are interned *after* the corpus: entities present in the
    // facts resolve to their corpus symbols either way, so matching is
    // unaffected, and the snapshot stays a pure function of facts + kb.
    let loaded = snapshot_cache::load_inputs(
        facts_path,
        kb_path,
        limits.lenient,
        cache.dir,
        cache.max_bytes,
        threads,
    )?;
    let (mut terms, sources, kb, read_faults) =
        (loaded.terms, loaded.sources, loaded.kb, loaded.read_faults);
    let gold = facts_io::read_gold(BufReader::new(File::open(gold_path)?), &mut terms)?;
    let (ranked, run_quarantine) = run_algorithm_budgeted(
        algorithm,
        CostModel::default(),
        &sources,
        &kb,
        threads,
        budget_from(limits),
        loaded.tables.as_ref(),
    );
    let mut quarantine = Quarantine::new();
    for fault in read_faults {
        quarantine.push(fault);
    }
    quarantine.merge(run_quarantine);
    let slices: Vec<DiscoveredSlice> = ranked
        .into_iter()
        .filter(|s| s.profit > 0.0 || matches!(algorithm, Algorithm::Naive))
        .collect();
    let prf = match_to_gold(&slices, &gold);
    let (p_ci, r_ci, f_ci) = bootstrap_prf(&slices, &gold, 500, 0.95, 42);
    writeln!(out, "returned slices: {}", slices.len())?;
    writeln!(out, "gold slices:     {}", gold.len())?;
    writeln!(out, "quarantined:     {}", quarantine.len())?;
    writeln!(
        out,
        "precision: {:.3}  [{:.3}, {:.3}]",
        prf.precision, p_ci.lower, p_ci.upper
    )?;
    writeln!(
        out,
        "recall:    {:.3}  [{:.3}, {:.3}]",
        prf.recall, r_ci.lower, r_ci.upper
    )?;
    writeln!(
        out,
        "f-measure: {:.3}  [{:.3}, {:.3}]",
        prf.f_measure, f_ci.lower, f_ci.upper
    )?;
    write_quarantine(out, &quarantine, false)?;
    write_notes(out, &loaded.notes, false)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("midas_cli_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn generate_then_discover_then_eval() {
        let dir = tmpdir("full");
        let dir_s = dir.to_str().unwrap();

        let mut out = Vec::new();
        run(
            &argv(&format!(
                "generate --dataset synthetic --seed 5 --out {dir_s}"
            )),
            &mut out,
        )
        .unwrap();
        assert!(String::from_utf8_lossy(&out).contains("gold slices"));

        let mut out = Vec::new();
        run(
            &argv(&format!(
                "discover --facts {dir_s}/facts.tsv --kb {dir_s}/kb.tsv --top 5 --explain"
            )),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("Discovered web source slices"));
        assert!(text.contains("Profit breakdowns"));
        assert!(
            text.contains("pred_"),
            "slice descriptions present:\n{text}"
        );

        let mut out = Vec::new();
        run(
            &argv(&format!(
                "eval --facts {dir_s}/facts.tsv --gold {dir_s}/gold.tsv --kb {dir_s}/kb.tsv"
            )),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("precision: 1.000"), "eval output:\n{text}");
        assert!(text.contains("recall:    1.000"), "eval output:\n{text}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_command_counts() {
        let dir = tmpdir("stats");
        let facts = dir.join("facts.tsv");
        std::fs::write(
            &facts,
            "http://a.com/x\te1\tp\tv\nhttp://a.com/y\te2\tq\tw\n",
        )
        .unwrap();
        let mut out = Vec::new();
        run(
            &argv(&format!("stats --facts {}", facts.to_str().unwrap())),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("facts:      2"));
        assert!(text.contains("domains:    1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn discover_csv_output() {
        let dir = tmpdir("csv");
        let facts = dir.join("facts.tsv");
        let mut content = String::new();
        for i in 0..8 {
            content.push_str(&format!("http://a.com/d/p{i}\tent{i}\ttype\tgolf\n"));
            content.push_str(&format!("http://a.com/d/p{i}\tent{i}\tholes\th{i}\n"));
        }
        std::fs::write(&facts, content).unwrap();
        let mut out = Vec::new();
        run(
            &argv(&format!(
                "discover --facts {} --fp 1 --csv",
                facts.to_str().unwrap()
            )),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.starts_with("#,slice,source"), "csv header:\n{text}");
        assert!(text.contains("type = golf"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn augment_runs_to_saturation() {
        let dir = tmpdir("augment");
        let facts = dir.join("facts.tsv");
        let mut content = String::new();
        for i in 0..8 {
            content.push_str(&format!("http://a.com/d/p{i}\tent{i}\ttype\tgolf\n"));
            content.push_str(&format!("http://a.com/d/p{i}\tent{i}\tholes\th{i}\n"));
        }
        std::fs::write(&facts, content).unwrap();
        let mut out = Vec::new();
        run(
            &argv(&format!(
                "augment --facts {} --fp 1 --rounds 5 --threads 2",
                facts.to_str().unwrap()
            )),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("Augmentation rounds"), "output:\n{text}");
        assert!(text.contains("type = golf"), "round 1 accepts the slice");
        assert!(text.contains("(saturated)"), "loop reaches saturation");
        assert!(
            text.contains("accepted 1 slices over 2 rounds"),
            "output:\n{text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn augment_resume_accepts_matching_deadline_budget() {
        let dir = tmpdir("augment_resume_deadline");
        let cache = dir.join("cache");
        let facts = dir.join("facts.tsv");
        let mut content = String::new();
        for i in 0..8 {
            content.push_str(&format!("http://a.com/d/p{i}\tent{i}\ttype\tgolf\n"));
            content.push_str(&format!("http://a.com/d/p{i}\tent{i}\tholes\th{i}\n"));
        }
        std::fs::write(&facts, content).unwrap();
        let base = format!(
            "augment --facts {} --fp 1 --rounds 5 --snapshot-cache {}",
            facts.to_str().unwrap(),
            cache.to_str().unwrap()
        );

        // A generous deadline quarantines nothing; the run must checkpoint.
        let mut out = Vec::new();
        run(
            &argv(&format!("{base} --source-deadline-ms 60000")),
            &mut out,
        )
        .unwrap();

        // Resuming under the same deadline replays the recorded rounds.
        let mut out = Vec::new();
        run(
            &argv(&format!("{base} --source-deadline-ms 60000 --resume")),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(
            text.contains("resume: replayed"),
            "matching budget must replay:\n{text}"
        );

        // Resuming under a different deadline restarts cold instead.
        let mut out = Vec::new();
        run(
            &argv(&format!("{base} --source-deadline-ms 120000 --resume")),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(
            text.contains("different --source-deadline-ms"),
            "budget mismatch must restart cold:\n{text}"
        );
        assert!(!text.contains("resume: replayed"), "output:\n{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_io_error() {
        let mut out = Vec::new();
        let err = run(&argv("stats --facts /nonexistent/file.tsv"), &mut out).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }

    #[test]
    fn lenient_discover_quarantines_bad_lines() {
        let dir = tmpdir("lenient");
        let facts = dir.join("facts.tsv");
        std::fs::write(
            &facts,
            "http://a.com/x\te1\tp\tv\nbroken line without tabs\nhttp://a.com/y\te2\tq\tw\n",
        )
        .unwrap();
        let facts_s = facts.to_str().unwrap();

        // Strict mode aborts on the malformed line.
        let mut out = Vec::new();
        let err = run(&argv(&format!("discover --facts {facts_s}")), &mut out).unwrap_err();
        assert!(matches!(err, CliError::Data(_)), "strict mode fails: {err}");

        // Lenient mode completes and reports the quarantined record.
        let mut out = Vec::new();
        run(
            &argv(&format!("discover --facts {facts_s} --lenient")),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("Discovered web source slices"));
        assert!(text.contains("quarantined 1 source(s)"), "output:\n{text}");
        assert!(text.contains("parse error"), "output:\n{text}");
        assert!(text.contains(":2"), "fault points at line 2:\n{text}");

        // CSV mode turns the summary into comment lines.
        let mut out = Vec::new();
        run(
            &argv(&format!("discover --facts {facts_s} --lenient --csv")),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(
            text.lines()
                .any(|l| l.starts_with("# quarantined 1 source(s)")),
            "csv output:\n{text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lenient_discover_quarantines_a_non_utf8_line() {
        let dir = tmpdir("lenient_utf8");
        let facts = dir.join("facts.tsv");
        let mut bytes = Vec::new();
        for i in 0..50 {
            bytes.extend_from_slice(format!("http://a.com/p{i}\te{i}\tp\tv\n").as_bytes());
        }
        bytes.extend_from_slice(b"http://a.com/p0\te\xff\tp\tv\n");
        bytes.extend_from_slice(b"http://a.com/p1\te51\tq\tw\n");
        std::fs::write(&facts, bytes).unwrap();
        let facts_s = facts.to_str().unwrap();

        // Strict mode names the line instead of failing the whole read.
        let mut out = Vec::new();
        let err = run(&argv(&format!("discover --facts {facts_s}")), &mut out).unwrap_err();
        assert_eq!(err.to_string(), "data error: line 51: invalid UTF-8");

        // Lenient mode quarantines that one line and reports the rest.
        let mut out = Vec::new();
        run(
            &argv(&format!("discover --facts {facts_s} --lenient")),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("Discovered web source slices"));
        assert!(text.contains("quarantined 1 source(s)"), "output:\n{text}");
        assert!(text.contains(&format!("{facts_s}:51")), "output:\n{text}");
        assert!(text.contains("invalid UTF-8"), "output:\n{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_flag_quarantines_oversized_sources() {
        let dir = tmpdir("budget");
        let facts = dir.join("facts.tsv");
        let mut content = String::from("http://small.com/x\te0\tp\tv\n");
        for i in 0..6 {
            content.push_str(&format!("http://big.com/page\tent{i}\ttype\tthing\n"));
        }
        std::fs::write(&facts, content).unwrap();
        let mut out = Vec::new();
        run(
            &argv(&format!(
                "discover --facts {} --max-source-facts 3",
                facts.to_str().unwrap()
            )),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("quarantined"), "output:\n{text}");
        assert!(
            text.contains("big.com"),
            "the 6-fact source breaches the cap:\n{text}"
        );
        assert!(
            !text.contains("small.com/x —"),
            "the small source survives:\n{text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eval_reports_quarantine_count() {
        let dir = tmpdir("evalq");
        let facts = dir.join("facts.tsv");
        let gold = dir.join("gold.tsv");
        std::fs::write(&facts, "http://a.com/x\te1\tp\tv\nnot a valid line\n").unwrap();
        std::fs::write(&gold, "http://a.com/x\tg0\te1\n").unwrap();
        let mut out = Vec::new();
        run(
            &argv(&format!(
                "eval --facts {} --gold {} --lenient",
                facts.to_str().unwrap(),
                gold.to_str().unwrap()
            )),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("quarantined:     1"), "output:\n{text}");
        assert!(text.contains("quarantined 1 source(s)"), "output:\n{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_cached_discover_matches_uncached_bit_for_bit() {
        let dir = tmpdir("snapcache");
        let dir_s = dir.to_str().unwrap();
        let mut out = Vec::new();
        run(
            &argv(&format!(
                "generate --dataset synthetic --seed 11 --out {dir_s}"
            )),
            &mut out,
        )
        .unwrap();

        let discover =
            format!("discover --facts {dir_s}/facts.tsv --kb {dir_s}/kb.tsv --top 10 --explain");
        // Everything before the snapshot-cache trailer must be identical
        // across uncached, cache-miss, and cache-hit runs.
        let body = |bytes: &[u8]| -> String {
            String::from_utf8(bytes.to_vec())
                .unwrap()
                .lines()
                .filter(|l| !l.starts_with("snapshot cache") && !l.starts_with("slice cache"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let mut uncached = Vec::new();
        run(&argv(&discover), &mut uncached).unwrap();

        let mut miss = Vec::new();
        run(
            &argv(&format!("{discover} --snapshot-cache {dir_s}/cache")),
            &mut miss,
        )
        .unwrap();
        let miss_text = String::from_utf8_lossy(&miss).to_string();
        assert!(miss_text.contains("snapshot cache write"), "{miss_text}");
        assert!(miss_text.contains("slice cache write"), "{miss_text}");

        let mut hit = Vec::new();
        run(
            &argv(&format!("{discover} --snapshot-cache {dir_s}/cache")),
            &mut hit,
        )
        .unwrap();
        let hit_text = String::from_utf8_lossy(&hit).to_string();
        assert!(hit_text.contains("snapshot cache hit"), "{hit_text}");
        assert!(
            hit_text.contains("slice cache hit"),
            "second run should skip detection entirely: {hit_text}"
        );

        assert_eq!(body(&uncached), body(&miss), "cache miss changes results");
        assert_eq!(body(&uncached), body(&hit), "cache hit changes results");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_json_and_verbose_stats_are_opt_in_trailers() {
        let dir = tmpdir("telemetry");
        let facts = dir.join("facts.tsv");
        let mut content = String::new();
        for i in 0..8 {
            content.push_str(&format!("http://a.com/d/p{i}\tent{i}\ttype\tgolf\n"));
            content.push_str(&format!("http://a.com/d/p{i}\tent{i}\tholes\th{i}\n"));
        }
        std::fs::write(&facts, content).unwrap();
        let facts_s = facts.to_str().unwrap();
        let metrics = dir.join("metrics.json");
        let metrics_s = metrics.to_str().unwrap();

        // Baseline run without telemetry flags.
        let mut plain = Vec::new();
        run(
            &argv(&format!("discover --facts {facts_s} --fp 1")),
            &mut plain,
        )
        .unwrap();
        let plain_text = String::from_utf8_lossy(&plain).to_string();
        assert!(!plain_text.contains("framework."), "no stats uninvited");

        // --verbose-stats appends the table after the unchanged output.
        let mut out = Vec::new();
        run(
            &argv(&format!(
                "discover --facts {facts_s} --fp 1 --verbose-stats --metrics-json {metrics_s}"
            )),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out).to_string();
        assert!(
            text.starts_with(&plain_text),
            "normal output is a prefix; telemetry is purely additive:\n{text}"
        );
        assert!(text.contains("framework.detect_calls"), "{text}");
        assert!(text.contains("pool.task.exec_ns"), "{text}");

        // The JSON snapshot parses and reconciles with the run just done.
        let json = std::fs::read_to_string(&metrics).unwrap();
        let snap = telemetry::Snapshot::from_json(&json).unwrap();
        assert!(snap.counter("framework.rounds") >= 1);
        assert!(snap.counter("framework.detect_calls") >= 1);

        // CSV mode: every telemetry line is a `#` comment.
        let mut out = Vec::new();
        run(
            &argv(&format!(
                "discover --facts {facts_s} --fp 1 --csv --verbose-stats"
            )),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out).to_string();
        let stats_line = text
            .lines()
            .find(|l| l.contains("framework.detect_calls"))
            .expect("stats table present in csv mode");
        assert!(stats_line.starts_with("# "), "{stats_line}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn naive_algorithm_runs() {
        let dir = tmpdir("naive");
        let facts = dir.join("facts.tsv");
        std::fs::write(&facts, "http://a.com/x\te\tp\tv\n").unwrap();
        let mut out = Vec::new();
        run(
            &argv(&format!(
                "discover --facts {} --algorithm naive",
                facts.to_str().unwrap()
            )),
            &mut out,
        )
        .unwrap();
        assert!(String::from_utf8_lossy(&out).contains("(entire source)"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
