//! `midas-trace` — the traced pass of the MIDAS end-to-end benchmark.
//!
//! Replays one `midas discover` or `midas augment` invocation by calling each
//! layer's public functions in the order the command calls them, with a span
//! recorded by this file around every call. The command's stdout is
//! reproduced byte for byte (bar the augment timing column), so `run.py`
//! can check the replay against an untraced run of the real binary.
//!
//! ```text
//! midas-trace discover --facts F [--kb K] [--snapshot-cache DIR] [--threads N]
//!                      [--fp X] --summary OUT.json --spans OUT.jsonl
//! midas-trace augment  --facts F [--kb K] --snapshot-cache DIR --rounds N
//!                      [--threads N] --summary OUT.json --spans OUT.jsonl
//! ```
//!
//! The summary is one flat JSON object of numbers: span aggregates
//! (`span.<name>.{count,total_ns,self_ns}`), the program's own telemetry
//! (`counter.<name>`, `hist.<name>.{count,sum}`), and the replay's own call
//! counts. The spans file holds one JSON object per span.

mod spans;

use midas_cli::{checkpoint, facts_io, snapshot_cache};
use midas_core::telemetry;
use midas_core::traversal::traverse;
use midas_core::{
    Augmenter, CostModel, DetectInput, DiscoveredSlice, FactTable, Framework, MidasConfig,
    ProfitCtx, PropertyId, Quarantine, SliceDetector, SliceHierarchy, SourceBudget,
};
use midas_eval::runner::AugmentationRound;
use midas_eval::Table;
use midas_kb::{Interner, KnowledgeBase, Symbol};
use midas_weburl::UrlPattern;
use spans::span;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Parsed command line.
struct Args {
    command: String,
    facts: String,
    kb: Option<String>,
    cache: Option<String>,
    threads: usize,
    /// Required by `augment`, unused by `discover`.
    rounds: Option<usize>,
    cost: CostModel,
    summary: String,
    spans: String,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing command (discover|augment)")?;
    let known = [
        "--facts",
        "--kb",
        "--snapshot-cache",
        "--threads",
        "--rounds",
        "--fp",
        "--summary",
        "--spans",
    ];
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    while let Some(flag) = argv.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown flag {flag}"));
        }
        let value = argv.next().ok_or(format!("{flag} requires a value"))?;
        flags.insert(flag, value);
    }
    let path = |name: &str| flags.get(name).cloned();
    Ok(Args {
        facts: path("--facts").ok_or("--facts is required")?,
        kb: path("--kb"),
        cache: path("--snapshot-cache"),
        threads: number(&flags, "--threads", "1")?,
        rounds: flags
            .get("--rounds")
            .map(|v| v.parse().map_err(|_| format!("--rounds: not a number: {v:?}")))
            .transpose()?,
        // The CLI's defaults; only `--fp` is swept by the benchmark.
        cost: CostModel {
            fp: number(&flags, "--fp", "10")?,
            fc: 0.001,
            fd: 0.01,
            fv: 0.1,
        },
        summary: path("--summary").ok_or("--summary is required")?,
        spans: path("--spans").ok_or("--spans is required")?,
        command,
    })
}

fn number<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    name: &str,
    default: &str,
) -> Result<T, String> {
    let v = flags.get(name).map_or(default, String::as_str);
    v.parse()
        .map_err(|_| format!("{name}: not a number: {v:?}"))
}

/// Rows of the `discover` report: the CLI's `--top` default, which the
/// benchmark never overrides.
const TOP: usize = 20;

/// The replay's own numbers, merged into the summary next to the spans and
/// the program's telemetry.
type Facts = BTreeMap<&'static str, f64>;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("midas-trace: {e}");
            return ExitCode::from(2);
        }
    };
    // The program's counters and phase histograms record only when enabled.
    telemetry::enable();
    spans::init();
    let start = Instant::now();
    let mut stdout = Vec::new();
    let result = match args.command.as_str() {
        "discover" => discover(&args, &mut stdout),
        "augment" => augment(&args, &mut stdout),
        other => Err(format!("unknown command {other:?}")),
    };
    let mut facts = match result {
        Ok(f) => f,
        Err(e) => {
            eprintln!("midas-trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wall_ns = start.elapsed().as_nanos() as f64;
    facts.insert("replay.wall_ns", wall_ns);
    if let Err(e) = std::io::stdout().write_all(&stdout) {
        eprintln!("midas-trace: writing stdout: {e}");
        return ExitCode::FAILURE;
    }
    match write_outputs(&args, &facts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("midas-trace: writing trace files: {e}");
            ExitCode::FAILURE
        }
    }
}

fn write_outputs(args: &Args, facts: &Facts) -> std::io::Result<()> {
    let mut summary: BTreeMap<String, f64> =
        facts.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect();
    let snap = telemetry::snapshot();
    for (name, v) in &snap.counters {
        summary.insert(format!("counter.{name}"), *v as f64);
    }
    for (name, h) in &snap.histograms {
        summary.insert(format!("hist.{name}.count"), h.count as f64);
        summary.insert(format!("hist.{name}.sum"), h.sum as f64);
    }
    let recorded = spans::take();
    summary.insert(
        "spans.top_level_ns".to_owned(),
        spans::top_level_ns(&recorded) as f64,
    );
    for (name, agg) in spans::aggregate(&recorded) {
        summary.insert(format!("span.{name}.count"), agg.count as f64);
        summary.insert(format!("span.{name}.total_ns"), agg.total_ns as f64);
        summary.insert(format!("span.{name}.self_ns"), agg.self_ns as f64);
    }
    let mut json = String::from("{");
    for (i, (k, v)) in summary.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!("\n  \"{k}\": {v}"));
    }
    json.push_str("\n}\n");
    std::fs::write(&args.summary, json)?;
    spans::write_jsonl(&recorded, &args.spans)
}

// ---------------------------------------------------------------------------
// The detector: MIDASalg, one public call per layer, each inside a span
// ---------------------------------------------------------------------------

/// MIDASalg split into its layers — fact-table build, hierarchy build, and
/// traversal — with a span around each. Produces the slices that
/// [`midas_core::MidasAlg`]'s own detector produces; `run.py` checks that
/// by comparing the rendered report with the real binary's.
struct TracedDetector {
    config: MidasConfig,
    leaf_detects: AtomicU64,
    seeded_detects: AtomicU64,
    table_detects: AtomicU64,
    selected: AtomicU64,
}

impl TracedDetector {
    fn new(config: MidasConfig) -> Self {
        TracedDetector {
            config,
            leaf_detects: AtomicU64::new(0),
            seeded_detects: AtomicU64::new(0),
            table_detects: AtomicU64::new(0),
            selected: AtomicU64::new(0),
        }
    }

    fn detect_over(&self, table: &FactTable, input: &DetectInput<'_>) -> Vec<DiscoveredSlice> {
        let ctx = ProfitCtx::new(table, self.config.cost);
        let hierarchy = span("hierarchy.build", || {
            if input.seeds.is_empty() {
                SliceHierarchy::build(table, &ctx, &self.config)
            } else {
                SliceHierarchy::build_seeded(
                    table,
                    &ctx,
                    &self.config,
                    &translate(table, input.seeds),
                )
            }
        });
        let slices = span("traversal", || {
            materialise(
                table,
                input,
                &ctx,
                &hierarchy,
                self.config.always_report_best,
            )
        });
        self.selected.fetch_add(slices.len() as u64, Relaxed);
        hierarchy.recycle();
        slices
    }
}

impl SliceDetector for TracedDetector {
    fn name(&self) -> &'static str {
        "midas"
    }

    fn detect(&self, input: DetectInput<'_>) -> Vec<DiscoveredSlice> {
        let name = if input.seeds.is_empty() {
            self.leaf_detects.fetch_add(1, Relaxed);
            "fact_table.build"
        } else {
            self.seeded_detects.fetch_add(1, Relaxed);
            "fact_table.merge_build"
        };
        if input.source.is_empty() {
            return Vec::new();
        }
        let table = span(name, || FactTable::build(input.source, input.kb));
        let slices = self.detect_over(&table, &input);
        table.recycle();
        slices
    }

    fn detect_on_table(&self, table: &FactTable, input: DetectInput<'_>) -> Vec<DiscoveredSlice> {
        self.table_detects.fetch_add(1, Relaxed);
        if input.source.is_empty() {
            return Vec::new();
        }
        self.detect_over(table, &input)
    }
}

/// Children-exported `(predicate, value)` seeds as this table's property
/// ids; seeds left empty are skipped.
fn translate(table: &FactTable, seeds: &[Vec<(Symbol, Symbol)>]) -> Vec<Vec<PropertyId>> {
    seeds
        .iter()
        .filter_map(|seed| {
            let ids: Vec<PropertyId> = seed
                .iter()
                .filter_map(|&(p, v)| table.catalog().get(p, v))
                .collect();
            (!ids.is_empty()).then_some(ids)
        })
        .collect()
}

/// Top-down traversal, then the selected nodes as reported slices.
fn materialise(
    table: &FactTable,
    input: &DetectInput<'_>,
    ctx: &ProfitCtx<'_>,
    hierarchy: &SliceHierarchy,
    always_report_best: bool,
) -> Vec<DiscoveredSlice> {
    let mut picked = traverse(hierarchy, ctx);
    if picked.is_empty() && always_report_best {
        if let Some(best) = hierarchy
            .iter()
            .filter(|&id| hierarchy.node(id).canonical)
            .max_by(|&a, &b| {
                hierarchy
                    .node(a)
                    .profit
                    .total_cmp(&hierarchy.node(b).profit)
            })
        {
            picked.push(best);
        }
    }
    picked
        .into_iter()
        .map(|id| {
            let node = hierarchy.node(id);
            let mut properties: Vec<(Symbol, Symbol)> = node
                .props
                .iter()
                .map(|&p| table.catalog().pair(p))
                .collect();
            properties.sort_unstable();
            let mut entities: Vec<Symbol> = node
                .live_extent()
                .iter()
                .map(|e| table.subject(e))
                .collect();
            entities.sort_unstable();
            DiscoveredSlice {
                source: input.source.url.clone(),
                properties,
                entities,
                num_facts: table.facts_sum(node.live_extent()) as usize,
                num_new_facts: table.new_sum(node.live_extent()) as usize,
                profit: node.profit,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// `discover`
// ---------------------------------------------------------------------------

/// Loads the corpus the way the command does: through the snapshot cache
/// when one is given, otherwise by parsing both TSV files.
fn load(args: &Args, facts: &mut Facts) -> Result<snapshot_cache::LoadedInputs, String> {
    let loaded = match &args.cache {
        Some(dir) => span("snapshot_cache.load", || {
            snapshot_cache::load_inputs_cached(
                &args.facts,
                args.kb.as_deref(),
                false,
                Some(dir),
                None,
            )
        })
        .map_err(|e| e.to_string())?,
        None => {
            let mut terms = Interner::new();
            let sources = span("facts_io.read_facts", || {
                let file = File::open(&args.facts).map_err(|e| format!("{}: {e}", args.facts))?;
                facts_io::read_facts(BufReader::new(file), &mut terms).map_err(|e| e.to_string())
            })?;
            let kb = match &args.kb {
                Some(path) => span("facts_io.read_kb", || {
                    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
                    facts_io::read_kb(BufReader::new(file), &mut terms).map_err(|e| e.to_string())
                })?,
                None => KnowledgeBase::new(),
            };
            snapshot_cache::LoadedInputs {
                terms,
                sources,
                kb,
                read_faults: Vec::new(),
                tables: None,
                notes: Vec::new(),
                session: None,
            }
        }
    };
    let total: usize = loaded.sources.iter().map(|s| s.len()).sum();
    facts.insert("corpus.facts", total as f64);
    facts.insert("corpus.pages", loaded.sources.len() as f64);
    facts.insert("corpus.kb_triples", loaded.kb.len() as f64);
    facts.insert("kb.symbols", loaded.terms.len() as f64);
    facts.insert(
        "tables.mapped",
        loaded.tables.as_ref().map_or(0, BTreeMap::len) as f64,
    );
    Ok(loaded)
}

fn discover(args: &Args, out: &mut Vec<u8>) -> Result<Facts, String> {
    let mut facts = Facts::new();
    let loaded = load(args, &mut facts)?;
    let (mut terms, sources, kb) = (loaded.terms, loaded.sources, loaded.kb);
    let mut notes = loaded.notes;
    let cost = args.cost;

    let slice_key = loaded
        .session
        .as_ref()
        .map(|s| (snapshot_cache::slices_key(s.corpus_key, "midas", &cost), s));
    let cached = match &slice_key {
        Some((key, session)) => span("snapshot_cache.slice_lookup", || {
            snapshot_cache::load_cached_slices(session, *key, &mut terms, &mut notes)
        }),
        None => None,
    };
    let detector = TracedDetector::new(
        MidasConfig::default()
            .with_cost(cost)
            .with_threads(args.threads),
    );
    let (slices, quarantine) = match cached {
        Some(slices) => (slices, Quarantine::new()),
        None => {
            let report = span("framework.run", || {
                let fw = Framework::new(&detector, cost)
                    .with_threads(args.threads)
                    .with_budget(SourceBudget::unlimited())
                    .with_stream_window(None);
                match &loaded.tables {
                    Some(tables) => fw.run_with_tables(sources.to_vec(), &kb, tables),
                    None => fw.run(sources.to_vec(), &kb),
                }
            });
            if let Some((key, session)) = &slice_key {
                if report.quarantine.is_empty() {
                    span("snapshot_cache.store", || {
                        snapshot_cache::store_slices(
                            session,
                            *key,
                            &terms,
                            &report.slices,
                            &mut notes,
                        )
                    });
                }
            }
            (report.slices, report.quarantine)
        }
    };
    facts.insert(
        "calls.leaf_detects",
        detector.leaf_detects.load(Relaxed) as f64,
    );
    facts.insert(
        "calls.seeded_detects",
        detector.seeded_detects.load(Relaxed) as f64,
    );
    facts.insert(
        "calls.table_detects",
        detector.table_detects.load(Relaxed) as f64,
    );
    facts.insert("traversal.selected", detector.selected.load(Relaxed) as f64);

    // Output rendering, as the command does it; left unspanned, so it lands
    // in the residual together with process start.
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
    for (i, s) in slices.iter().take(TOP).enumerate() {
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
    out.extend_from_slice(table.render().as_bytes());
    render_tail(out, &quarantine, &notes);
    Ok(facts)
}

fn render_tail(out: &mut Vec<u8>, quarantine: &Quarantine, notes: &[String]) {
    if !quarantine.is_empty() {
        out.push(b'\n');
        out.extend_from_slice(quarantine.render().as_bytes());
    }
    for n in notes {
        out.extend_from_slice(n.as_bytes());
        out.push(b'\n');
    }
}

// ---------------------------------------------------------------------------
// `augment`
// ---------------------------------------------------------------------------

fn augment(args: &Args, out: &mut Vec<u8>) -> Result<Facts, String> {
    let mut facts = Facts::new();
    if args.cache.is_none() {
        return Err("augment replays the checkpointed path: --snapshot-cache is required".into());
    }
    let rounds = args.rounds.ok_or("augment: --rounds is required")?;
    let loaded = load(args, &mut facts)?;
    // The command leaves the snapshot's round-0 tables unused: the
    // augmenter builds and caches its own.
    facts.insert("tables.mapped", 0.0);
    let (terms, sources, kb) = (loaded.terms, loaded.sources, loaded.kb);
    let mut notes = loaded.notes;
    let session = loaded.session.ok_or("snapshot cache unavailable")?;
    let config = MidasConfig::default()
        .with_cost(args.cost)
        .with_threads(args.threads)
        .with_budget(SourceBudget::unlimited())
        .with_stream_window(None);
    let initial_kb = kb.len();

    let key = checkpoint::checkpoint_key(session.corpus_key, &config.cost, &config.budget);
    let name = checkpoint::checkpoint_name(key);
    let path = session.dir.entry_path(&name);
    let mut aug = Augmenter::new(config, sources, kb).with_threads(args.threads);
    let mut log = checkpoint::RoundLog::from_rounds(&terms, &[]);
    let mut trace: Vec<AugmentationRound> = Vec::new();
    let mut checkpoint_bytes = 0u64;
    for round in 1..=rounds {
        let name_suggest = if round == 1 {
            "incremental.suggest_cold"
        } else {
            "incremental.suggest_warm"
        };
        let start = Instant::now();
        let report = span(name_suggest, || aug.suggest_report());
        let suggest_time = start.elapsed();
        let best = report.slices.iter().find(|s| s.profit > 0.0).cloned();
        let accepted = best.map(|b| span("incremental.accept", || aug.accept(&b)));
        let saturated = accepted.is_none();
        let stalled = matches!(&accepted, Some(s) if s.facts_added == 0);
        let done = AugmentationRound {
            round,
            accepted,
            suggest_time,
            suggestions: report.slices.len(),
            detect_calls: report.detect_calls,
            reused_tasks: report.reused,
            kb_size: aug.kb().len(),
            budget_ms: None,
            quarantine: report.quarantine,
        };
        let saved = span("checkpoint.save", || {
            log.append(&terms, &done);
            session.dir.exclusive().and_then(|_write| {
                log.save(&path, key)?;
                session.dir.touch(&name)
            })
        });
        match saved {
            Ok(()) => {
                checkpoint_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
            }
            Err(e) => notes.push(format!("checkpoint write failed: {e}")),
        }
        trace.push(done);
        if saturated || stalled {
            break;
        }
    }
    let warm = &trace[trace.len().min(1)..];
    facts.insert("rounds", trace.len() as f64);
    facts.insert(
        "calls.detects",
        trace.iter().map(|r| r.detect_calls).sum::<usize>() as f64,
    );
    facts.insert(
        "warm.detect_calls",
        warm.iter().map(|r| r.detect_calls).sum::<usize>() as f64,
    );
    facts.insert(
        "warm.reused_tasks",
        warm.iter().map(|r| r.reused_tasks).sum::<usize>() as f64,
    );
    facts.insert("kb.facts_inserted", (aug.kb().len() - initial_kb) as f64);
    facts.insert("checkpoint.bytes", checkpoint_bytes as f64);

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
            format!("{:.1}", r.suggest_time.as_secs_f64() * 1e3),
            r.detect_calls.to_string(),
            r.reused_tasks.to_string(),
        ]);
    }
    out.extend_from_slice(table.render().as_bytes());
    out.extend_from_slice(
        format!(
            "\naccepted {} slices over {} rounds; knowledge base grew {} -> {} facts\n",
            aug.history().len(),
            trace.len(),
            initial_kb,
            aug.kb().len()
        )
        .as_bytes(),
    );
    let quarantine = trace
        .last()
        .map(|r| r.quarantine.clone())
        .unwrap_or_default();
    render_tail(out, &quarantine, &notes);
    Ok(facts)
}
