//! Hand-rolled argument parsing (no external dependencies).

use std::fmt;

/// CLI failure modes.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line; the message explains what and shows usage.
    Usage(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A data file failed to parse.
    Data(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}\n\n{USAGE}"),
            CliError::Io(e) => write!(f, "I/O error: {e}"),
            CliError::Data(m) => write!(f, "data error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
midas — web source slice discovery (ICDE 2019 reproduction)

USAGE:
  midas discover --facts FILE [--kb FILE] [--algorithm midas|greedy|aggcluster|naive]
                 [--threads N] [--top K] [--fp X] [--fc X] [--fd X] [--fv X]
                 [--csv] [--explain] [CACHING] [ROBUSTNESS]
  midas stats    --facts FILE
  midas generate --dataset synthetic|reverb-slim|nell-slim|kvault
                 [--scale X] [--seed N] --out DIR
  midas eval     --facts FILE --gold FILE [--kb FILE] [--algorithm NAME] [--threads N]
                 [CACHING] [ROBUSTNESS]
  midas augment  --facts FILE [--kb FILE] [--rounds N] [--threads N]
                 [--fp X] [--fc X] [--fd X] [--fv X] [--resume] [CACHING] [ROBUSTNESS]

PARALLELISM (discover, eval, augment):
  --threads N              worker threads (default 1). The pool first parses
                           the facts and kb files, cut into 1 MiB line-aligned
                           chunks and merged in file order, then runs the
                           per-source detections. Each worker holds one
                           source's state at a time, so peak memory grows
                           with N. Output is byte-identical at every N.

CACHING (discover, eval, augment):
  --snapshot-cache DIR     reuse parsed corpora across runs. The facts and kb
                           files are hashed together with the snapshot format
                           version; a hit memory-maps the matching snapshot in
                           DIR (skipping parsing and fact-table construction),
                           a miss extracts as usual and writes the snapshot.
                           Stale, truncated, or corrupt snapshots are moved to
                           DIR/quarantine (with a reason file) and rebuilt.
                           Results are bit-identical to uncached runs. Ignored
                           under --lenient (faulty corpora are not cacheable).
                           The directory is multi-process safe: writes are
                           crash-consistent (temp file + fsync + rename + dir
                           fsync) and guarded by advisory file locks, so
                           concurrent runs may share one DIR. `discover` also
                           caches its slice report, so a repeated run with
                           identical inputs and cost model skips detection
                           entirely; `augment` checkpoints each completed
                           round for --resume.
  --snapshot-cache-max-bytes N
                           cap the total size of `.snap` entries in DIR;
                           least-recently-used entries are evicted first (the
                           entry the current run uses is never evicted, and
                           augmentation checkpoints are exempt).
  --resume (augment only)  continue from the last durable checkpointed round
                           of a previous identical `augment` run (requires
                           --snapshot-cache). Completed rounds are replayed
                           from the checkpoint; output is bit-identical to an
                           uninterrupted run. Each round records the
                           --source-deadline-ms it ran under; resuming with a
                           different deadline restarts from round 1 instead
                           of replaying (wall-clock quarantines only
                           reproduce under the budget that made them).

OBSERVABILITY (all subcommands):
  --metrics-json PATH      write a versioned JSON snapshot of every internal
                           counter and histogram to PATH at exit (schema
                           `midas.metrics/v1`; check it against the tracked
                           baseline with scripts/metrics_compare.py
                           --current PATH)
  --verbose-stats          print a compact metrics table after the normal
                           output (emitted as `#` comments in --csv mode)
  The MIDAS_TRACE=spans[:PATH] environment variable streams JSONL span events
  to stderr (or PATH). None of these change any result byte.

ROBUSTNESS (discover, eval, augment):
  --lenient                quarantine malformed input lines instead of aborting
  --max-source-facts N     quarantine sources carrying more than N facts
  --max-source-nodes N     quarantine a source whose slice hierarchy has more than
                           N canonical slices
  --source-deadline-ms MS  quarantine a source still running after MS milliseconds
  Quarantined sources are dropped from the run and listed in a summary; the
  MIDAS_FAULTINJECT environment variable (e.g. `parse@#3,panic@flaky`) injects
  deterministic faults for testing.

FILES:
  facts: TSV  url <TAB> subject <TAB> predicate <TAB> object
  kb:    TSV  subject <TAB> predicate <TAB> object
  gold:  TSV  url <TAB> slice_id <TAB> entity";

/// Which algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// MIDASalg + the multi-source framework.
    #[default]
    Midas,
    /// The GREEDY baseline (per domain).
    Greedy,
    /// The AGGCLUSTER baseline (per domain).
    AggCluster,
    /// The NAIVE baseline (whole sources).
    Naive,
}

impl Algorithm {
    fn parse(s: &str) -> Result<Self, CliError> {
        match s {
            "midas" => Ok(Algorithm::Midas),
            "greedy" => Ok(Algorithm::Greedy),
            "aggcluster" => Ok(Algorithm::AggCluster),
            "naive" => Ok(Algorithm::Naive),
            other => Err(CliError::Usage(format!("unknown algorithm {other:?}"))),
        }
    }
}

/// Robustness limits shared by `discover` and `eval`: lenient ingestion and
/// the per-source execution budget. All default to off/unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunLimits {
    /// Quarantine malformed input lines instead of aborting (`--lenient`).
    pub lenient: bool,
    /// Per-source fact-count cap (`--max-source-facts`).
    pub max_source_facts: Option<usize>,
    /// Per-source hierarchy-node cap (`--max-source-nodes`).
    pub max_source_nodes: Option<usize>,
    /// Per-source wall-clock deadline in ms (`--source-deadline-ms`).
    pub source_deadline_ms: Option<u64>,
}

/// A parsed subcommand.
#[derive(Debug, PartialEq)]
pub enum Command {
    /// `midas discover`.
    Discover {
        /// Facts file path.
        facts: String,
        /// Optional knowledge-base file path.
        kb: Option<String>,
        /// Algorithm selection.
        algorithm: Algorithm,
        /// Worker threads.
        threads: usize,
        /// Report only the top-K slices.
        top: usize,
        /// Cost model overrides `(fp, fc, fd, fv)`.
        cost: (f64, f64, f64, f64),
        /// Emit CSV instead of an aligned table.
        csv: bool,
        /// Include the profit breakdown per slice.
        explain: bool,
        /// Corpus snapshot cache directory (`--snapshot-cache`).
        snapshot_cache: Option<String>,
        /// Cache size cap in bytes (`--snapshot-cache-max-bytes`).
        snapshot_cache_max_bytes: Option<u64>,
        /// Robustness limits (lenient ingestion + per-source budget).
        limits: RunLimits,
    },
    /// `midas stats`.
    Stats {
        /// Facts file path.
        facts: String,
    },
    /// `midas generate`.
    Generate {
        /// Dataset family name.
        dataset: String,
        /// Generator scale.
        scale: f64,
        /// Generator seed.
        seed: u64,
        /// Output directory.
        out: String,
    },
    /// `midas augment`: the incremental augmentation loop (suggest → accept
    /// the top positive-profit slice → re-suggest on a warm cache).
    Augment {
        /// Facts file path.
        facts: String,
        /// Optional knowledge-base file path.
        kb: Option<String>,
        /// Maximum augmentation rounds (`--rounds`).
        rounds: usize,
        /// Worker threads.
        threads: usize,
        /// Cost model overrides `(fp, fc, fd, fv)`.
        cost: (f64, f64, f64, f64),
        /// Corpus snapshot cache directory (`--snapshot-cache`).
        snapshot_cache: Option<String>,
        /// Cache size cap in bytes (`--snapshot-cache-max-bytes`).
        snapshot_cache_max_bytes: Option<u64>,
        /// Continue from the last durable checkpoint (`--resume`).
        resume: bool,
        /// Robustness limits (lenient ingestion + per-source budget).
        limits: RunLimits,
    },
    /// `midas eval`.
    Eval {
        /// Facts file path.
        facts: String,
        /// Gold file path.
        gold: String,
        /// Optional knowledge-base file path.
        kb: Option<String>,
        /// Algorithm selection.
        algorithm: Algorithm,
        /// Worker threads.
        threads: usize,
        /// Corpus snapshot cache directory (`--snapshot-cache`).
        snapshot_cache: Option<String>,
        /// Cache size cap in bytes (`--snapshot-cache-max-bytes`).
        snapshot_cache_max_bytes: Option<u64>,
        /// Robustness limits (lenient ingestion + per-source budget).
        limits: RunLimits,
    },
}

/// Cross-command observability options; accepted by every subcommand and
/// strictly additive (they never change a command's normal output bytes,
/// only append opt-in telemetry after it).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetryArgs {
    /// Write a versioned JSON metrics snapshot to this path at exit
    /// (`--metrics-json PATH`).
    pub metrics_json: Option<String>,
    /// Print a compact metrics table after the command's normal output
    /// (`--verbose-stats`).
    pub verbose_stats: bool,
}

impl TelemetryArgs {
    /// Whether any telemetry surface was requested.
    pub fn any(&self) -> bool {
        self.metrics_json.is_some() || self.verbose_stats
    }
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
pub struct ParsedArgs {
    /// The subcommand with its options.
    pub command: Command,
    /// Observability options shared by all subcommands.
    pub telemetry: TelemetryArgs,
}

struct Flags<'a> {
    argv: &'a [String],
    used: Vec<bool>,
}

impl<'a> Flags<'a> {
    fn new(argv: &'a [String]) -> Self {
        Flags {
            argv,
            used: vec![false; argv.len()],
        }
    }

    fn value(&mut self, name: &str) -> Result<Option<&'a str>, CliError> {
        for i in 0..self.argv.len() {
            if self.argv[i] == name && !self.used[i] {
                self.used[i] = true;
                let v = self
                    .argv
                    .get(i + 1)
                    .ok_or_else(|| CliError::Usage(format!("{name} requires a value")))?;
                self.used[i + 1] = true;
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    fn flag(&mut self, name: &str) -> bool {
        for i in 0..self.argv.len() {
            if self.argv[i] == name && !self.used[i] {
                self.used[i] = true;
                return true;
            }
        }
        false
    }

    fn required(&mut self, name: &str) -> Result<&'a str, CliError> {
        self.value(name)?
            .ok_or_else(|| CliError::Usage(format!("{name} is required")))
    }

    fn finish(self) -> Result<(), CliError> {
        for (i, used) in self.used.iter().enumerate() {
            if !used {
                return Err(CliError::Usage(format!(
                    "unrecognised argument {:?}",
                    self.argv[i]
                )));
            }
        }
        Ok(())
    }
}

fn parse_num<T: std::str::FromStr>(name: &str, raw: &str) -> Result<T, CliError> {
    raw.parse()
        .map_err(|_| CliError::Usage(format!("invalid value {raw:?} for {name}")))
}

fn opt_num<T: std::str::FromStr>(flags: &mut Flags<'_>, name: &str) -> Result<Option<T>, CliError> {
    match flags.value(name)? {
        Some(raw) => parse_num(name, raw).map(Some),
        None => Ok(None),
    }
}

fn parse_limits(flags: &mut Flags<'_>) -> Result<RunLimits, CliError> {
    Ok(RunLimits {
        lenient: flags.flag("--lenient"),
        max_source_facts: opt_num(flags, "--max-source-facts")?,
        max_source_nodes: opt_num(flags, "--max-source-nodes")?,
        source_deadline_ms: opt_num(flags, "--source-deadline-ms")?,
    })
}

impl ParsedArgs {
    /// Parses `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Self, CliError> {
        let (sub, rest) = argv
            .split_first()
            .ok_or_else(|| CliError::Usage("missing subcommand".into()))?;
        let mut flags = Flags::new(rest);
        // Observability flags are global: claim them before the subcommand
        // arms so `finish()` accepts them everywhere.
        let telemetry = TelemetryArgs {
            metrics_json: flags.value("--metrics-json")?.map(str::to_owned),
            verbose_stats: flags.flag("--verbose-stats"),
        };
        let command = match sub.as_str() {
            "discover" => {
                let facts = flags.required("--facts")?.to_owned();
                let kb = flags.value("--kb")?.map(str::to_owned);
                let algorithm = Algorithm::parse(flags.value("--algorithm")?.unwrap_or("midas"))?;
                let threads = parse_num("--threads", flags.value("--threads")?.unwrap_or("1"))?;
                let top = parse_num("--top", flags.value("--top")?.unwrap_or("20"))?;
                let fp = parse_num("--fp", flags.value("--fp")?.unwrap_or("10"))?;
                let fc = parse_num("--fc", flags.value("--fc")?.unwrap_or("0.001"))?;
                let fd = parse_num("--fd", flags.value("--fd")?.unwrap_or("0.01"))?;
                let fv = parse_num("--fv", flags.value("--fv")?.unwrap_or("0.1"))?;
                Command::Discover {
                    facts,
                    kb,
                    algorithm,
                    threads,
                    top,
                    cost: (fp, fc, fd, fv),
                    csv: flags.flag("--csv"),
                    explain: flags.flag("--explain"),
                    snapshot_cache: flags.value("--snapshot-cache")?.map(str::to_owned),
                    snapshot_cache_max_bytes: opt_num(&mut flags, "--snapshot-cache-max-bytes")?,
                    limits: parse_limits(&mut flags)?,
                }
            }
            "stats" => Command::Stats {
                facts: flags.required("--facts")?.to_owned(),
            },
            "generate" => Command::Generate {
                dataset: flags.required("--dataset")?.to_owned(),
                scale: parse_num("--scale", flags.value("--scale")?.unwrap_or("0.01"))?,
                seed: parse_num("--seed", flags.value("--seed")?.unwrap_or("42"))?,
                out: flags.required("--out")?.to_owned(),
            },
            "augment" => {
                let facts = flags.required("--facts")?.to_owned();
                let kb = flags.value("--kb")?.map(str::to_owned);
                let rounds = parse_num("--rounds", flags.value("--rounds")?.unwrap_or("10"))?;
                let threads = parse_num("--threads", flags.value("--threads")?.unwrap_or("1"))?;
                let fp = parse_num("--fp", flags.value("--fp")?.unwrap_or("10"))?;
                let fc = parse_num("--fc", flags.value("--fc")?.unwrap_or("0.001"))?;
                let fd = parse_num("--fd", flags.value("--fd")?.unwrap_or("0.01"))?;
                let fv = parse_num("--fv", flags.value("--fv")?.unwrap_or("0.1"))?;
                let snapshot_cache = flags.value("--snapshot-cache")?.map(str::to_owned);
                let resume = flags.flag("--resume");
                if resume && snapshot_cache.is_none() {
                    return Err(CliError::Usage(
                        "--resume requires --snapshot-cache (checkpoints live there)".into(),
                    ));
                }
                Command::Augment {
                    facts,
                    kb,
                    rounds,
                    threads,
                    cost: (fp, fc, fd, fv),
                    snapshot_cache,
                    snapshot_cache_max_bytes: opt_num(&mut flags, "--snapshot-cache-max-bytes")?,
                    resume,
                    limits: parse_limits(&mut flags)?,
                }
            }
            "eval" => Command::Eval {
                facts: flags.required("--facts")?.to_owned(),
                gold: flags.required("--gold")?.to_owned(),
                kb: flags.value("--kb")?.map(str::to_owned),
                algorithm: Algorithm::parse(flags.value("--algorithm")?.unwrap_or("midas"))?,
                threads: parse_num("--threads", flags.value("--threads")?.unwrap_or("1"))?,
                snapshot_cache: flags.value("--snapshot-cache")?.map(str::to_owned),
                snapshot_cache_max_bytes: opt_num(&mut flags, "--snapshot-cache-max-bytes")?,
                limits: parse_limits(&mut flags)?,
            },
            "help" | "--help" | "-h" => {
                return Err(CliError::Usage("".into()));
            }
            other => return Err(CliError::Usage(format!("unknown subcommand {other:?}"))),
        };
        flags.finish()?;
        Ok(ParsedArgs { command, telemetry })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn discover_defaults() {
        let p = ParsedArgs::parse(&argv("discover --facts f.tsv")).unwrap();
        match p.command {
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
            } => {
                assert_eq!(facts, "f.tsv");
                assert_eq!(kb, None);
                assert_eq!(algorithm, Algorithm::Midas);
                assert_eq!(threads, 1);
                assert_eq!(top, 20);
                assert_eq!(cost, (10.0, 0.001, 0.01, 0.1));
                assert!(!csv && !explain);
                assert_eq!(snapshot_cache, None);
                assert_eq!(snapshot_cache_max_bytes, None);
                assert_eq!(limits, RunLimits::default());
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn robustness_flags_parse_on_discover_and_eval() {
        let expected = RunLimits {
            lenient: true,
            max_source_facts: Some(5_000),
            max_source_nodes: Some(200_000),
            source_deadline_ms: Some(1_500),
        };
        let d = ParsedArgs::parse(&argv(
            "discover --facts f.tsv --lenient --max-source-facts 5000 \
             --max-source-nodes 200000 --source-deadline-ms 1500",
        ))
        .unwrap();
        match d.command {
            Command::Discover { limits, .. } => assert_eq!(limits, expected),
            other => panic!("wrong command {other:?}"),
        }
        let e = ParsedArgs::parse(&argv(
            "eval --facts f --gold g --lenient --max-source-facts 5000 \
             --max-source-nodes 200000 --source-deadline-ms 1500",
        ))
        .unwrap();
        match e.command {
            Command::Eval { limits, .. } => assert_eq!(limits, expected),
            other => panic!("wrong command {other:?}"),
        }
        let err =
            ParsedArgs::parse(&argv("discover --facts f --max-source-facts lots")).unwrap_err();
        assert!(err.to_string().contains("invalid value"));
        let err = ParsedArgs::parse(&argv("stats --facts f --lenient")).unwrap_err();
        assert!(
            err.to_string().contains("unrecognised argument"),
            "robustness flags only apply to discover/eval"
        );
    }

    #[test]
    fn discover_full_flags() {
        let p = ParsedArgs::parse(&argv(
            "discover --facts f.tsv --kb k.tsv --algorithm greedy --threads 8 --top 5 \
             --fp 1 --fc 0.002 --fd 0.02 --fv 0.2 --csv --explain",
        ))
        .unwrap();
        match p.command {
            Command::Discover {
                algorithm,
                threads,
                top,
                cost,
                csv,
                explain,
                ..
            } => {
                assert_eq!(algorithm, Algorithm::Greedy);
                assert_eq!(threads, 8);
                assert_eq!(top, 5);
                assert_eq!(cost, (1.0, 0.002, 0.02, 0.2));
                assert!(csv && explain);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn augment_defaults_and_overrides() {
        let p = ParsedArgs::parse(&argv("augment --facts f.tsv")).unwrap();
        match p.command {
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
            } => {
                assert_eq!(facts, "f.tsv");
                assert_eq!(kb, None);
                assert_eq!(rounds, 10);
                assert_eq!(threads, 1);
                assert_eq!(cost, (10.0, 0.001, 0.01, 0.1));
                assert_eq!(snapshot_cache, None);
                assert_eq!(snapshot_cache_max_bytes, None);
                assert!(!resume);
                assert_eq!(limits, RunLimits::default());
            }
            other => panic!("wrong command {other:?}"),
        }
        let p = ParsedArgs::parse(&argv(
            "augment --facts f.tsv --kb k.tsv --rounds 3 --threads 4 \
             --fp 1 --fc 0.002 --fd 0.02 --fv 0.2 --max-source-facts 2",
        ))
        .unwrap();
        match p.command {
            Command::Augment {
                kb,
                rounds,
                threads,
                cost,
                limits,
                ..
            } => {
                assert_eq!(kb.as_deref(), Some("k.tsv"));
                assert_eq!(rounds, 3);
                assert_eq!(threads, 4);
                assert_eq!(cost, (1.0, 0.002, 0.02, 0.2));
                assert_eq!(limits.max_source_facts, Some(2));
            }
            other => panic!("wrong command {other:?}"),
        }
        let err = ParsedArgs::parse(&argv("augment --facts f --top 3")).unwrap_err();
        assert!(
            err.to_string().contains("unrecognised argument"),
            "--top is discover-only"
        );
    }

    #[test]
    fn snapshot_cache_flag_parses_on_discover_eval_augment() {
        for cmdline in [
            "discover --facts f --snapshot-cache /tmp/cache",
            "eval --facts f --gold g --snapshot-cache /tmp/cache",
            "augment --facts f --snapshot-cache /tmp/cache",
        ] {
            let p = ParsedArgs::parse(&argv(cmdline)).unwrap();
            let cache = match p.command {
                Command::Discover { snapshot_cache, .. }
                | Command::Eval { snapshot_cache, .. }
                | Command::Augment { snapshot_cache, .. } => snapshot_cache,
                other => panic!("wrong command {other:?}"),
            };
            assert_eq!(cache.as_deref(), Some("/tmp/cache"), "{cmdline}");
        }
        let err = ParsedArgs::parse(&argv("stats --facts f --snapshot-cache /tmp/c")).unwrap_err();
        assert!(err.to_string().contains("unrecognised argument"));
        let err = ParsedArgs::parse(&argv("discover --facts f --snapshot-cache")).unwrap_err();
        assert!(err.to_string().contains("requires a value"));
    }

    #[test]
    fn cache_cap_and_resume_flags_parse() {
        for cmdline in [
            "discover --facts f --snapshot-cache /tmp/c --snapshot-cache-max-bytes 1048576",
            "eval --facts f --gold g --snapshot-cache /tmp/c --snapshot-cache-max-bytes 1048576",
            "augment --facts f --snapshot-cache /tmp/c --snapshot-cache-max-bytes 1048576",
        ] {
            let p = ParsedArgs::parse(&argv(cmdline)).unwrap();
            let cap = match p.command {
                Command::Discover {
                    snapshot_cache_max_bytes,
                    ..
                }
                | Command::Eval {
                    snapshot_cache_max_bytes,
                    ..
                }
                | Command::Augment {
                    snapshot_cache_max_bytes,
                    ..
                } => snapshot_cache_max_bytes,
                other => panic!("wrong command {other:?}"),
            };
            assert_eq!(cap, Some(1_048_576), "{cmdline}");
        }

        let p =
            ParsedArgs::parse(&argv("augment --facts f --snapshot-cache /tmp/c --resume")).unwrap();
        assert!(matches!(p.command, Command::Augment { resume: true, .. }));

        let err = ParsedArgs::parse(&argv("augment --facts f --resume")).unwrap_err();
        assert!(
            err.to_string()
                .contains("--resume requires --snapshot-cache"),
            "{err}"
        );
        let err = ParsedArgs::parse(&argv("discover --facts f --resume")).unwrap_err();
        assert!(
            err.to_string().contains("unrecognised argument"),
            "--resume is augment-only"
        );
    }

    #[test]
    fn telemetry_flags_parse_on_every_subcommand() {
        for cmdline in [
            "discover --facts f --metrics-json m.json --verbose-stats",
            "stats --facts f --metrics-json m.json --verbose-stats",
            "generate --dataset synthetic --out /tmp/x --metrics-json m.json --verbose-stats",
            "eval --facts f --gold g --metrics-json m.json --verbose-stats",
            "augment --facts f --metrics-json m.json --verbose-stats",
        ] {
            let p = ParsedArgs::parse(&argv(cmdline)).unwrap();
            assert_eq!(
                p.telemetry,
                TelemetryArgs {
                    metrics_json: Some("m.json".into()),
                    verbose_stats: true,
                },
                "{cmdline}"
            );
            assert!(p.telemetry.any());
        }
        let p = ParsedArgs::parse(&argv("stats --facts f")).unwrap();
        assert_eq!(p.telemetry, TelemetryArgs::default());
        assert!(!p.telemetry.any());
        let err = ParsedArgs::parse(&argv("stats --facts f --metrics-json")).unwrap_err();
        assert!(err.to_string().contains("requires a value"));
    }

    #[test]
    fn missing_required_flag_errors() {
        let err = ParsedArgs::parse(&argv("discover")).unwrap_err();
        assert!(err.to_string().contains("--facts is required"));
    }

    #[test]
    fn unknown_flag_errors() {
        for cmdline in [
            "discover --facts f --bogus 3",
            "discover --facts f --stream-window 4",
        ] {
            let err = ParsedArgs::parse(&argv(cmdline)).unwrap_err();
            assert!(
                err.to_string().contains("unrecognised argument"),
                "{cmdline}"
            );
        }
    }

    /// `--threads` is the one concurrency flag: the removed admission window
    /// is refused by every subcommand that once took it, in any position,
    /// and the usage text no longer offers it.
    #[test]
    fn removed_stream_window_is_refused_by_every_subcommand() {
        for cmdline in [
            "discover --stream-window 4 --facts f",
            "eval --facts f --gold g --stream-window 4",
            "augment --facts f --threads 2 --stream-window 1",
        ] {
            let err = ParsedArgs::parse(&argv(cmdline)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{cmdline}: {err}");
            assert!(
                err.to_string().contains("unrecognised argument"),
                "{cmdline}: {err}"
            );
        }
        assert!(!USAGE.contains("stream-window"));
        assert!(USAGE.contains("--threads N"));
    }

    #[test]
    fn unknown_subcommand_and_algorithm_error() {
        assert!(ParsedArgs::parse(&argv("frobnicate")).is_err());
        assert!(ParsedArgs::parse(&argv("discover --facts f --algorithm magic")).is_err());
    }

    #[test]
    fn value_flag_without_value_errors() {
        let err = ParsedArgs::parse(&argv("discover --facts")).unwrap_err();
        assert!(err.to_string().contains("requires a value"));
    }

    #[test]
    fn generate_and_eval_parse() {
        let g = ParsedArgs::parse(&argv(
            "generate --dataset synthetic --scale 0.5 --seed 7 --out /tmp/x",
        ))
        .unwrap();
        assert!(matches!(g.command, Command::Generate { seed: 7, .. }));
        let e = ParsedArgs::parse(&argv("eval --facts f --gold g --algorithm naive")).unwrap();
        assert!(matches!(
            e.command,
            Command::Eval {
                algorithm: Algorithm::Naive,
                ..
            }
        ));
    }

    #[test]
    fn bad_numeric_value_errors() {
        let err = ParsedArgs::parse(&argv("discover --facts f --threads abc")).unwrap_err();
        assert!(err.to_string().contains("invalid value"));
    }
}
