//! Durable augmentation checkpoints for `augment --resume`.
//!
//! After every completed round, the full round trace so far is serialised
//! into one `MSNP` container (the same crash-consistent format as corpus
//! snapshots; crash site `ckpt.*`) keyed by everything that determines the
//! run's results: the corpus cache key, the cost model, and the
//! deterministic budget caps. `augment --resume` loads the trace, replays
//! the accepted slices into a fresh [`midas_core::Augmenter`] — each accept
//! is verified against the recorded fact delta — and continues from the
//! next round. The incremental engine's cold-restart path then recomputes
//! suggestions from the combined delta, which the equivalence suite proves
//! bit-identical to the uninterrupted incremental run.
//!
//! The on-disk format is a flat trace (count + per-round records), but the
//! writer does not re-encode the whole trace every round: a [`RoundLog`]
//! keeps the already-committed rounds as pre-encoded bytes (the *compacted
//! base*) and each save appends only the newest round's encoding before one
//! atomic rename — O(1) encoding work per round instead of O(rounds). On
//! resume, the replayed prefix is folded into the base once
//! ([`RoundLog::from_rounds`]) and never re-encoded again. The bytes
//! written are identical to a full re-encode ([`save_rounds`], kept as the
//! one-shot path), so readers and crash-recovery are unchanged.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use midas_core::{
    AugmentationStep, BreachKind, BudgetBreach, CostModel, DiscoveredSlice, FaultCause, Quarantine,
    SourceBudget, SourceFault, Stage,
};
use midas_eval::runner::AugmentationRound;
use midas_extract::CacheKey;
use midas_kb::snapshot::MIN_STR_BYTES;
use midas_kb::{Interner, SectionWriter, Snapshot, SnapshotBuilder, SnapshotError};
use midas_weburl::SourceUrl;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Checkpoint traffic counters. `rounds_saved` counts rounds folded into
/// the compacted base (each is encoded exactly once); `bytes_appended` is
/// the encoded size of those rounds, i.e. the per-round O(1) write cost the
/// append-only design promises.
mod metrics {
    midas_core::counter!(pub ROUNDS_SAVED, "checkpoint.rounds_saved");
    midas_core::counter!(pub ROUNDS_REPLAYED, "checkpoint.rounds_replayed");
    midas_core::counter!(pub BYTES_APPENDED, "checkpoint.bytes_appended");
}

/// Round-trace section of a checkpoint container.
pub const TAG_CKPT: u32 = u32::from_le_bytes(*b"CKPT");
/// Crash-site prefix for checkpoint writes.
pub const CKPT_SITE: &str = "ckpt";

/// Derives the checkpoint key: the corpus key plus every knob that changes
/// what the augmentation loop computes. Thread count and `--rounds` are
/// deliberately excluded — they affect schedule and stopping point, not
/// per-round results — so a resume may change them.
pub fn checkpoint_key(corpus_key: u64, cost: &CostModel, budget: &SourceBudget) -> u64 {
    let mut k = CacheKey::new()
        .part("corpus", &corpus_key.to_le_bytes())
        .part("fp", &cost.fp.to_bits().to_le_bytes())
        .part("fc", &cost.fc.to_bits().to_le_bytes())
        .part("fd", &cost.fd.to_bits().to_le_bytes())
        .part("fv", &cost.fv.to_bits().to_le_bytes());
    let cap_bytes = |cap: Option<usize>| -> [u8; 9] {
        let mut b = [0u8; 9];
        if let Some(v) = cap {
            b[0] = 1;
            b[1..].copy_from_slice(&(v as u64).to_le_bytes());
        }
        b
    };
    k = k.part("max_facts", &cap_bytes(budget.max_facts));
    k = k.part("max_nodes", &cap_bytes(budget.max_nodes));
    k.part("kind", b"augment").finish()
}

/// The checkpoint file addressing `key` inside the cache directory.
pub fn checkpoint_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(checkpoint_name(key))
}

/// The checkpoint file name for `key` (no directory).
pub fn checkpoint_name(key: u64) -> String {
    format!("midas-{key:016x}.ckpt")
}

fn corrupt(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(msg.into())
}

/// Smallest encodings of the records whose counts [`load_rounds`] decodes
/// (see [`midas_kb::SectionReader::fit_count`]). A round with no accepted
/// slice: round number, accepted flag, five `u64` counters, budget flag
/// and quarantine count.
const MIN_ROUND: usize = 4 + 4 + 5 * 8 + 4 + 4;
/// A slice property: predicate and value strings.
const MIN_PROPERTY: usize = 2 * MIN_STR_BYTES;

/// Serialises the round trace and writes it atomically (crash site
/// `ckpt.*`). Strings are resolved through `terms` so the checkpoint is
/// self-contained — symbols are not stable across processes.
///
/// One-shot convenience over [`RoundLog`]: re-encodes every round. The
/// augmentation loop keeps a live `RoundLog` instead so committed rounds
/// are encoded exactly once.
pub fn save_rounds(
    path: &Path,
    key: u64,
    terms: &Interner,
    rounds: &[AugmentationRound],
) -> io::Result<()> {
    RoundLog::from_rounds(terms, rounds).save(path, key)
}

/// An append-only writer for the checkpoint round trace.
///
/// Committed rounds live as pre-encoded bytes (`base`), so each
/// [`append`] + [`save`] cycle encodes only the new round and streams the
/// base through [`SectionWriter::put_bytes`] — the file written is
/// byte-identical to a full re-encode of the same rounds.
///
/// [`append`]: RoundLog::append
/// [`save`]: RoundLog::save
pub struct RoundLog {
    /// Number of rounds folded into `base`.
    compacted: u32,
    /// Concatenated per-round encodings of the compacted rounds (the
    /// section payload minus its leading round count).
    base: Vec<u8>,
}

impl Default for RoundLog {
    fn default() -> Self {
        RoundLog::new()
    }
}

impl RoundLog {
    /// An empty log (fresh run, nothing replayed).
    pub fn new() -> RoundLog {
        RoundLog {
            compacted: 0,
            base: Vec::new(),
        }
    }

    /// Compacts an already-known trace (e.g. the replayed prefix on
    /// `--resume`) into the base in one pass.
    pub fn from_rounds(terms: &Interner, rounds: &[AugmentationRound]) -> RoundLog {
        let mut log = RoundLog::new();
        for r in rounds {
            log.append(terms, r);
        }
        log
    }

    /// Number of rounds in the log.
    pub fn len(&self) -> usize {
        self.compacted as usize
    }

    /// Whether the log holds no rounds.
    pub fn is_empty(&self) -> bool {
        self.compacted == 0
    }

    /// Encodes one completed round onto the base.
    pub fn append(&mut self, terms: &Interner, r: &AugmentationRound) {
        let before = self.base.len();
        let mut w = SectionWriter::over(&mut self.base);
        encode_round(&mut w, terms, r);
        self.compacted += 1;
        metrics::ROUNDS_SAVED.inc();
        metrics::BYTES_APPENDED.add((self.base.len() - before) as u64);
    }

    /// Writes the current trace atomically (crash site `ckpt.*`): one
    /// `MSNP` container whose `CKPT` section is the round count followed by
    /// the compacted base bytes.
    pub fn save(&self, path: &Path, key: u64) -> io::Result<()> {
        let mut b = SnapshotBuilder::new(key);
        let mut w = b.section(TAG_CKPT);
        w.put_u32(self.compacted);
        w.put_bytes(&self.base);
        b.write_atomic_labeled(path, CKPT_SITE)
    }
}

/// Encodes one round record; the exact inverse of the per-round block in
/// [`load_rounds`].
fn encode_round(w: &mut SectionWriter<'_>, terms: &Interner, r: &AugmentationRound) {
    w.put_u32(r.round as u32);
    match &r.accepted {
        None => w.put_u32(0),
        Some(step) => {
            w.put_u32(1);
            let s = &step.slice;
            w.put_str(s.source.as_str());
            w.put_u32(s.properties.len() as u32);
            for &(p, v) in &s.properties {
                w.put_str(terms.resolve(p));
                w.put_str(terms.resolve(v));
            }
            w.put_u32(s.entities.len() as u32);
            for &e in &s.entities {
                w.put_str(terms.resolve(e));
            }
            w.put_u64(s.num_facts as u64);
            w.put_u64(s.num_new_facts as u64);
            w.put_f64(s.profit);
            w.put_u64(step.facts_added as u64);
            w.put_u64(step.kb_size as u64);
        }
    }
    w.put_u64(r.suggest_time.as_nanos() as u64);
    w.put_u64(r.suggestions as u64);
    w.put_u64(r.detect_calls as u64);
    w.put_u64(r.reused_tasks as u64);
    w.put_u64(r.kb_size as u64);
    // Deadline budget the round ran under: presence flag + milliseconds.
    // Old (pre-budget) checkpoints lack these words and fail the trailing
    // `expect_end` on load — the caller quarantines the trace and restarts
    // cold, which is always sound.
    match r.budget_ms {
        None => w.put_u32(0),
        Some(ms) => {
            w.put_u32(1);
            w.put_u64(ms);
        }
    }
    w.put_u32(r.quarantine.len() as u32);
    for f in r.quarantine.iter() {
        w.put_str(&f.source);
        w.put_u32(match f.stage {
            Stage::Read => 0,
            Stage::Detect => 1,
            Stage::Consolidate => 2,
        });
        match &f.cause {
            FaultCause::Parse {
                file,
                line,
                message,
            } => {
                w.put_u32(0);
                w.put_str(file);
                w.put_u64(*line);
                w.put_str(message);
            }
            FaultCause::Panic { message } => {
                w.put_u32(1);
                w.put_str(message);
            }
            FaultCause::Budget(breach) => {
                w.put_u32(2);
                w.put_u32(match breach.kind {
                    BreachKind::Facts => 0,
                    BreachKind::HierarchyNodes => 1,
                    BreachKind::Deadline => 2,
                    BreachKind::Injected => 3,
                });
                w.put_u64(breach.limit);
                w.put_u64(breach.observed);
            }
        }
        w.put_u64(f.facts_seen as u64);
    }
}

/// Loads a round trace saved by [`save_rounds`], re-interning its strings
/// into `terms`. Fails with [`SnapshotError::KeyMismatch`] when the file is
/// sound but belongs to a different run configuration.
pub fn load_rounds(
    path: &Path,
    expected_key: u64,
    terms: &mut Interner,
) -> Result<Vec<AugmentationRound>, SnapshotError> {
    let snap = Snapshot::open(path)?;
    if snap.cache_key() != expected_key {
        return Err(SnapshotError::KeyMismatch {
            expected: expected_key,
            found: snap.cache_key(),
        });
    }
    let mut r = snap.section(TAG_CKPT)?;
    let n_rounds = r.get_u32("round count")? as usize;
    let n_rounds = r.fit_count(n_rounds, MIN_ROUND, "round count")?;
    let mut rounds = Vec::with_capacity(n_rounds);
    for _ in 0..n_rounds {
        let round = r.get_u32("round number")? as usize;
        let accepted = match r.get_u32("accepted flag")? {
            0 => None,
            1 => {
                let url = r.get_str("slice source url")?;
                let source = SourceUrl::parse(&url)
                    .map_err(|e| corrupt(format!("invalid slice url {url:?}: {e}")))?;
                let n_props = r.get_u32("property count")? as usize;
                let n_props = r.fit_count(n_props, MIN_PROPERTY, "property count")?;
                let mut properties = Vec::with_capacity(n_props);
                for _ in 0..n_props {
                    let p = terms.intern(&r.get_str("property predicate")?);
                    let v = terms.intern(&r.get_str("property value")?);
                    properties.push((p, v));
                }
                let n_entities = r.get_u32("entity count")? as usize;
                let n_entities = r.fit_count(n_entities, MIN_STR_BYTES, "entity count")?;
                let mut entities = Vec::with_capacity(n_entities);
                for _ in 0..n_entities {
                    entities.push(terms.intern(&r.get_str("entity")?));
                }
                let num_facts = r.get_u64("slice fact count")? as usize;
                let num_new_facts = r.get_u64("slice new-fact count")? as usize;
                let profit = r.get_f64("slice profit")?;
                let facts_added = r.get_u64("facts added")? as usize;
                let kb_size = r.get_u64("kb size after accept")? as usize;
                Some(AugmentationStep {
                    slice: DiscoveredSlice {
                        source,
                        properties,
                        entities,
                        num_facts,
                        num_new_facts,
                        profit,
                    },
                    facts_added,
                    kb_size,
                })
            }
            other => return Err(corrupt(format!("invalid accepted flag {other}"))),
        };
        let suggest_time = Duration::from_nanos(r.get_u64("suggest nanos")?);
        let suggestions = r.get_u64("suggestion count")? as usize;
        let detect_calls = r.get_u64("detect calls")? as usize;
        let reused_tasks = r.get_u64("reused tasks")? as usize;
        let kb_size = r.get_u64("kb size")? as usize;
        let budget_ms = match r.get_u32("budget flag")? {
            0 => None,
            1 => Some(r.get_u64("budget millis")?),
            other => return Err(corrupt(format!("invalid budget flag {other}"))),
        };
        let n_faults = r.get_u32("quarantine count")? as usize;
        let mut quarantine = Quarantine::new();
        for _ in 0..n_faults {
            let source = r.get_str("fault source")?;
            let stage = match r.get_u32("fault stage")? {
                0 => Stage::Read,
                1 => Stage::Detect,
                2 => Stage::Consolidate,
                other => return Err(corrupt(format!("invalid fault stage {other}"))),
            };
            let cause = match r.get_u32("fault cause tag")? {
                0 => FaultCause::Parse {
                    file: r.get_str("parse file")?,
                    line: r.get_u64("parse line")?,
                    message: r.get_str("parse message")?,
                },
                1 => FaultCause::Panic {
                    message: r.get_str("panic message")?,
                },
                2 => {
                    let kind = match r.get_u32("breach kind")? {
                        0 => BreachKind::Facts,
                        1 => BreachKind::HierarchyNodes,
                        2 => BreachKind::Deadline,
                        3 => BreachKind::Injected,
                        other => return Err(corrupt(format!("invalid breach kind {other}"))),
                    };
                    FaultCause::Budget(BudgetBreach {
                        kind,
                        limit: r.get_u64("breach limit")?,
                        observed: r.get_u64("breach observed")?,
                    })
                }
                other => return Err(corrupt(format!("invalid fault cause tag {other}"))),
            };
            let facts_seen = r.get_u64("fault facts seen")? as usize;
            quarantine.push(SourceFault {
                source,
                stage,
                cause,
                facts_seen,
            });
        }
        rounds.push(AugmentationRound {
            round,
            accepted,
            suggest_time,
            suggestions,
            detect_calls,
            reused_tasks,
            kb_size,
            budget_ms,
            quarantine,
        });
    }
    r.expect_end("checkpoint")?;
    metrics::ROUNDS_REPLAYED.add(rounds.len() as u64);
    Ok(rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_core::MidasConfig;

    fn sample_rounds(terms: &mut Interner) -> Vec<AugmentationRound> {
        let slice = DiscoveredSlice {
            source: SourceUrl::parse("http://a.com/x").unwrap(),
            properties: vec![(terms.intern("category"), terms.intern("rocket_family"))],
            entities: vec![terms.intern("Ariane"), terms.intern("Atlas")],
            num_facts: 7,
            num_new_facts: 4,
            profit: 3.25,
        };
        let mut quarantine = Quarantine::new();
        quarantine.push(SourceFault {
            source: "http://bad.com".to_string(),
            stage: Stage::Consolidate,
            cause: FaultCause::Budget(BudgetBreach {
                kind: BreachKind::HierarchyNodes,
                limit: 100,
                observed: 150,
            }),
            facts_seen: 42,
        });
        vec![
            AugmentationRound {
                round: 1,
                accepted: Some(AugmentationStep {
                    slice,
                    facts_added: 4,
                    kb_size: 14,
                }),
                suggest_time: Duration::from_nanos(123_456),
                suggestions: 3,
                detect_calls: 5,
                reused_tasks: 0,
                kb_size: 14,
                budget_ms: Some(2_500),
                quarantine,
            },
            AugmentationRound {
                round: 2,
                accepted: None,
                suggest_time: Duration::from_nanos(7_890),
                suggestions: 0,
                detect_calls: 1,
                reused_tasks: 4,
                kb_size: 14,
                budget_ms: None,
                quarantine: Quarantine::new(),
            },
        ]
    }

    #[test]
    fn round_trace_round_trips() {
        let dir = std::env::temp_dir().join(format!("midas_ckpt_rt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut terms = Interner::new();
        let rounds = sample_rounds(&mut terms);
        let path = checkpoint_path(&dir, 0xfeed);
        save_rounds(&path, 0xfeed, &terms, &rounds).unwrap();

        // A fresh interner: strings must re-intern, not assume symbol ids.
        let mut terms2 = Interner::new();
        let loaded = load_rounds(&path, 0xfeed, &mut terms2).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].round, 1);
        let step = loaded[0].accepted.as_ref().unwrap();
        assert_eq!(step.facts_added, 4);
        assert_eq!(step.slice.source.as_str(), "http://a.com/x");
        assert_eq!(step.slice.properties.len(), 1);
        let (p, v) = step.slice.properties[0];
        assert_eq!(terms2.resolve(p), "category");
        assert_eq!(terms2.resolve(v), "rocket_family");
        assert_eq!(step.slice.entities.len(), 2);
        assert_eq!(step.slice.profit, 3.25);
        assert_eq!(loaded[0].suggest_time, Duration::from_nanos(123_456));
        assert_eq!(loaded[0].quarantine.len(), 1);
        let fault = loaded[0].quarantine.iter().next().unwrap();
        assert_eq!(fault.stage, Stage::Consolidate);
        assert_eq!(fault.cause.tag(), "budget");
        assert_eq!(fault.facts_seen, 42);
        assert_eq!(loaded[0].budget_ms, Some(2_500));
        assert!(loaded[1].accepted.is_none());
        assert_eq!(loaded[1].reused_tasks, 4);
        assert_eq!(loaded[1].budget_ms, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn incremental_log_matches_full_reencode_byte_for_byte() {
        let dir = std::env::temp_dir().join(format!("midas_ckpt_log_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut terms = Interner::new();
        let rounds = sample_rounds(&mut terms);

        // Append one round at a time, saving after each — the way the
        // augmentation loop drives the log — and compare every save
        // against the one-shot full re-encode of the same prefix.
        let inc_path = checkpoint_path(&dir, 0xabcd);
        let full_path = dir.join("full.ckpt");
        let mut log = RoundLog::new();
        assert!(log.is_empty());
        for i in 0..rounds.len() {
            log.append(&terms, &rounds[i]);
            assert_eq!(log.len(), i + 1);
            log.save(&inc_path, 0xabcd).unwrap();
            save_rounds(&full_path, 0xabcd, &terms, &rounds[..=i]).unwrap();
            assert_eq!(
                std::fs::read(&inc_path).unwrap(),
                std::fs::read(&full_path).unwrap(),
                "incremental save diverged from full re-encode at round {i}"
            );
        }

        // A log seeded from a replayed prefix continues the same stream.
        let mut seeded = RoundLog::from_rounds(&terms, &rounds[..1]);
        seeded.append(&terms, &rounds[1]);
        seeded.save(&inc_path, 0xabcd).unwrap();
        assert_eq!(
            std::fs::read(&inc_path).unwrap(),
            std::fs::read(&full_path).unwrap(),
            "prefix-seeded log diverged"
        );

        // And the incremental bytes load back into the same trace.
        let mut terms2 = Interner::new();
        let loaded = load_rounds(&inc_path, 0xabcd, &mut terms2).unwrap();
        assert_eq!(loaded.len(), rounds.len());
        assert_eq!(loaded[1].round, rounds[1].round);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_mismatch_and_corruption_fail_closed() {
        let dir = std::env::temp_dir().join(format!("midas_ckpt_bad_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut terms = Interner::new();
        let rounds = sample_rounds(&mut terms);
        let path = checkpoint_path(&dir, 1);
        save_rounds(&path, 1, &terms, &rounds).unwrap();

        let mut t2 = Interner::new();
        assert!(matches!(
            load_rounds(&path, 2, &mut t2),
            Err(SnapshotError::KeyMismatch { .. })
        ));

        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_rounds(&path, 1, &mut t2).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_key_tracks_every_deterministic_knob() {
        let cost = MidasConfig::running_example().cost;
        let unlimited = SourceBudget::unlimited();
        let base = checkpoint_key(7, &cost, &unlimited);
        assert_eq!(base, checkpoint_key(7, &cost, &unlimited), "stable");
        assert_ne!(base, checkpoint_key(8, &cost, &unlimited), "corpus key");
        let mut cost2 = cost;
        cost2.fp += 1.0;
        assert_ne!(base, checkpoint_key(7, &cost2, &unlimited), "cost model");
        let capped = SourceBudget::unlimited().with_max_facts(100);
        assert_ne!(base, checkpoint_key(7, &cost, &capped), "budget caps");
    }

    /// Writes a checkpoint whose `CKPT` section `body` writes, followed by
    /// enough zero padding that a count of one round fits, and returns
    /// why it fails to load.
    fn load_error(name: &str, body: impl FnOnce(&mut SectionWriter<'_>)) -> SnapshotError {
        let path = std::env::temp_dir().join(format!(
            "midas_ckpt_hostile_{}_{name}.ckpt",
            std::process::id()
        ));
        let mut b = SnapshotBuilder::new(3);
        let mut w = b.section(TAG_CKPT);
        body(&mut w);
        w.put_bytes(&[0; 64]);
        b.write_atomic(&path).unwrap();
        let err = load_rounds(&path, 3, &mut Interner::new()).unwrap_err();
        std::fs::remove_file(&path).ok();
        err
    }

    fn assert_corrupt(err: &SnapshotError, needle: &str) {
        assert!(
            matches!(err, SnapshotError::Corrupt(m) if m.contains(needle)),
            "expected corruption mentioning {needle:?}, got: {err}"
        );
    }

    /// One round whose accepted slice record starts at its source url.
    fn accepted_round(w: &mut SectionWriter<'_>, url: &str) {
        w.put_u32(1); // rounds
        w.put_u32(1); // round number
        w.put_u32(1); // accepted
        w.put_str(url);
    }

    /// One round with no accepted slice, up to its budget flag.
    fn idle_round(w: &mut SectionWriter<'_>) {
        w.put_u32(1); // rounds
        w.put_u32(1); // round number
        w.put_u32(0); // accepted
        for _ in 0..5 {
            w.put_u64(0); // suggest nanos, suggestions, detects, reused, kb size
        }
    }

    /// [`idle_round`] with no budget and one fault, from its stage on.
    fn faulted_round(w: &mut SectionWriter<'_>) {
        idle_round(w);
        w.put_u32(0); // budget flag
        w.put_u32(1); // faults
        w.put_str("http://bad.com");
    }

    #[test]
    fn hostile_round_count_fails_closed() {
        let err = load_error("n-rounds", |w| w.put_u32(u32::MAX));
        assert_corrupt(&err, "round count");
    }

    #[test]
    fn hostile_property_count_fails_closed() {
        let err = load_error("n-props", |w| {
            accepted_round(w, "http://a.com/x");
            w.put_u32(u32::MAX);
        });
        assert_corrupt(&err, "property count");
    }

    #[test]
    fn hostile_entity_count_fails_closed() {
        let err = load_error("n-entities", |w| {
            accepted_round(w, "http://a.com/x");
            w.put_u32(0);
            w.put_u32(u32::MAX);
        });
        assert_corrupt(&err, "entity count");
    }

    #[test]
    fn invalid_slice_url_fails_closed() {
        let err = load_error("url", |w| accepted_round(w, "not a url"));
        assert_corrupt(&err, "invalid slice url");
    }

    #[test]
    fn invalid_accepted_flag_fails_closed() {
        let err = load_error("accepted", |w| {
            w.put_u32(1);
            w.put_u32(1);
            w.put_u32(2);
        });
        assert_corrupt(&err, "invalid accepted flag 2");
    }

    #[test]
    fn invalid_budget_flag_fails_closed() {
        let err = load_error("budget", |w| {
            idle_round(w);
            w.put_u32(2);
        });
        assert_corrupt(&err, "invalid budget flag 2");
    }

    #[test]
    fn invalid_fault_stage_fails_closed() {
        let err = load_error("stage", |w| {
            faulted_round(w);
            w.put_u32(3);
        });
        assert_corrupt(&err, "invalid fault stage 3");
    }

    #[test]
    fn invalid_breach_kind_fails_closed() {
        let err = load_error("breach", |w| {
            faulted_round(w);
            w.put_u32(0); // stage
            w.put_u32(2); // budget cause
            w.put_u32(4);
        });
        assert_corrupt(&err, "invalid breach kind 4");
    }

    #[test]
    fn invalid_fault_cause_tag_fails_closed() {
        let err = load_error("cause", |w| {
            faulted_round(w);
            w.put_u32(0); // stage
            w.put_u32(3);
        });
        assert_corrupt(&err, "invalid fault cause tag 3");
    }
}
