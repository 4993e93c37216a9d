//! End-to-end contract of `--snapshot-cache`: a warm (memory-mapped) run is
//! byte-identical to a cold run for every subcommand, and a damaged or
//! stale snapshot degrades to cold extraction with a note — never to a
//! wrong answer, never to an abort.
//!
//! These tests drive the real CLI (`midas_cli::run`) over a generated
//! kvault corpus, so they cover the full chain: cache-key hashing, the
//! `MSNP` container, zero-copy fact-table reassembly, and the framework
//! consuming prebuilt tables.

use midas_cli::run;
use std::path::{Path, PathBuf};

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

fn cli(parts: &[&str]) -> String {
    let mut out = Vec::new();
    run(&argv(parts), &mut out).expect("cli run succeeds");
    String::from_utf8(out).expect("cli output is UTF-8")
}

/// Output with cache-activity notes stripped: the only permitted
/// difference between cached and uncached runs.
fn body(text: &str) -> String {
    text.lines()
        .filter(|l| {
            let l = l.trim_start_matches("# ");
            !l.starts_with("snapshot cache") && !l.starts_with("slice cache")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

struct Fixture {
    dir: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        Fixture::with_seed(tag, 42)
    }

    fn with_seed(tag: &str, seed: u32) -> Fixture {
        let dir = std::env::temp_dir().join(format!("midas_snap_rt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        cli(&[
            "generate",
            "--dataset",
            "kvault",
            "--scale",
            "0.05",
            "--seed",
            &seed.to_string(),
            "--out",
            dir.to_str().unwrap(),
        ]);
        Fixture { dir }
    }

    fn path(&self, name: &str) -> String {
        self.dir.join(name).to_str().unwrap().to_owned()
    }

    fn cache(&self) -> String {
        self.path("cache")
    }

    /// The single corpus snapshot in the cache directory (the dir also
    /// holds the lock file, the manifest, and any slice-report snapshots).
    fn snapshot_file(&self) -> PathBuf {
        let mut files: Vec<PathBuf> = corpus_snapshots(&self.dir.join("cache"));
        assert_eq!(files.len(), 1, "expected exactly one snapshot: {files:?}");
        files.pop().unwrap()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Corpus (`.snap`, non-slices) snapshot files in a cache directory.
fn corpus_snapshots(cache: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_str().unwrap();
            name.ends_with(".snap") && !name.ends_with("-slices.snap")
        })
        .collect();
    files.sort();
    files
}

fn discover_args(f: &Fixture, cached: bool) -> Vec<String> {
    let mut v = argv(&[
        "discover",
        "--facts",
        &f.path("facts.tsv"),
        "--kb",
        &f.path("kb.tsv"),
        "--top",
        "8",
        "--explain",
    ]);
    if cached {
        v.extend(argv(&["--snapshot-cache", &f.cache()]));
    }
    v
}

fn run_discover(f: &Fixture, cached: bool) -> String {
    let mut out = Vec::new();
    run(&discover_args(f, cached), &mut out).expect("discover succeeds");
    String::from_utf8(out).unwrap()
}

/// Cold, miss (writes the snapshot), and warm (maps it) discover runs all
/// print the same report; eval metrics agree as well.
#[test]
fn warm_runs_are_bit_identical_to_cold_runs() {
    let f = Fixture::new("identical");

    let cold = run_discover(&f, false);
    let miss = run_discover(&f, true);
    let warm = run_discover(&f, true);

    assert!(miss.contains("snapshot cache write:"), "{miss}");
    assert!(warm.contains("snapshot cache hit:"), "{warm}");
    assert_eq!(body(&cold), body(&miss), "miss must match uncached");
    assert_eq!(body(&cold), body(&warm), "warm must match uncached");

    let eval = |cached: bool| {
        let mut v = argv(&[
            "eval",
            "--facts",
            &f.path("facts.tsv"),
            "--kb",
            &f.path("kb.tsv"),
            "--gold",
            &f.path("gold.tsv"),
        ]);
        if cached {
            v.extend(argv(&["--snapshot-cache", &f.cache()]));
        }
        let mut out = Vec::new();
        run(&v, &mut out).expect("eval succeeds");
        String::from_utf8(out).unwrap()
    };
    let cold_eval = eval(false);
    let warm_eval = eval(true);
    assert!(warm_eval.contains("snapshot cache hit:"), "{warm_eval}");
    assert_eq!(body(&cold_eval), body(&warm_eval), "eval metrics identical");
}

fn damage_then_rerun(f: &Fixture, damage: impl FnOnce(&Path)) {
    let cold = run_discover(f, false);
    let miss = run_discover(f, true);
    assert!(miss.contains("snapshot cache write:"), "{miss}");

    let snap = f.snapshot_file();
    damage(&snap);

    let fallback = run_discover(f, true);
    assert!(
        fallback.contains("snapshot cache: quarantined"),
        "damaged snapshot must be reported: {fallback}"
    );
    assert!(
        fallback.contains("snapshot cache write:"),
        "damaged snapshot must be replaced: {fallback}"
    );
    assert_eq!(body(&cold), body(&fallback), "fallback output identical");

    let healed = run_discover(f, true);
    assert!(healed.contains("snapshot cache hit:"), "{healed}");
    assert_eq!(body(&cold), body(&healed), "healed output identical");
}

/// A truncated snapshot (interrupted write, disk-full copy) is detected,
/// ignored, and rewritten in place.
#[test]
fn truncated_snapshot_falls_back_and_heals() {
    let f = Fixture::new("truncate");
    damage_then_rerun(&f, |snap| {
        let bytes = std::fs::read(snap).unwrap();
        std::fs::write(snap, &bytes[..bytes.len() / 2]).unwrap();
    });
}

/// A bit flip deep in the payload trips the container checksum.
#[test]
fn corrupted_snapshot_falls_back_and_heals() {
    let f = Fixture::new("corrupt");
    damage_then_rerun(&f, |snap| {
        let mut bytes = std::fs::read(snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(snap, bytes).unwrap();
    });
}

/// A structurally sound snapshot of *different* inputs planted at the
/// expected path fails the stored-key check (stale cache entry).
#[test]
fn stale_snapshot_with_wrong_key_falls_back_and_heals() {
    // A different seed yields different inputs, hence a different stored
    // key inside the foreign snapshot.
    let other = Fixture::with_seed("stale_other", 7);
    let _ = run_discover(&other, true);
    let foreign = std::fs::read(other.snapshot_file()).unwrap();

    let f = Fixture::new("stale_main");
    damage_then_rerun(&f, move |snap| {
        std::fs::write(snap, foreign).unwrap();
    });
}

/// Editing an input file addresses a different snapshot: the stale entry
/// is simply not consulted, and the new corpus gets its own.
#[test]
fn editing_inputs_addresses_a_new_snapshot() {
    let f = Fixture::new("invalidate");
    let first_cached = run_discover(&f, true);
    assert!(
        first_cached.contains("snapshot cache write:"),
        "{first_cached}"
    );

    let facts = f.path("facts.tsv");
    let mut tsv = std::fs::read_to_string(&facts).unwrap();
    tsv.push_str("http://late-addition.example.org/page\tnew_entity\ttype\tstraggler\n");
    std::fs::write(&facts, tsv).unwrap();

    let cold = run_discover(&f, false);
    let miss = run_discover(&f, true);
    assert!(
        miss.contains("snapshot cache write:"),
        "edited corpus is a miss: {miss}"
    );
    let warm = run_discover(&f, true);
    assert!(warm.contains("snapshot cache hit:"), "{warm}");
    assert_eq!(body(&cold), body(&miss));
    assert_eq!(body(&cold), body(&warm));
    assert_eq!(
        corpus_snapshots(&f.dir.join("cache")).len(),
        2,
        "old and new snapshots coexist"
    );
}

/// A checksum-valid slice report whose slice count claims `u32::MAX`
/// records is refused before the count sizes an allocation: the entry is
/// quarantined like any damaged one, and the run detects afresh and prints
/// the uncached report.
#[test]
fn hostile_slice_report_is_quarantined() {
    use midas::core::snapshot::TAG_SLICES;
    use midas::kb::{Snapshot, SnapshotBuilder};

    let f = Fixture::new("hostile_slices");
    let cold = run_discover(&f, false);
    let miss = run_discover(&f, true);
    assert!(miss.contains("slice cache write:"), "{miss}");

    let cache = f.dir.join("cache");
    let report = std::fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.to_str().unwrap().ends_with("-slices.snap"))
        .expect("a slice report was written");
    let key = Snapshot::open(&report).unwrap().cache_key();
    let mut hostile = SnapshotBuilder::new(key);
    hostile.section(TAG_SLICES).put_u32(u32::MAX);
    hostile.write_atomic(&report).unwrap();

    let fallback = run_discover(&f, true);
    assert!(
        fallback.contains("snapshot cache: quarantined") && fallback.contains("slice count"),
        "hostile report must be quarantined: {fallback}"
    );
    assert!(fallback.contains("slice cache write:"), "{fallback}");
    assert!(cache
        .join("quarantine")
        .join(report.file_name().unwrap())
        .exists());
    assert_eq!(body(&cold), body(&fallback), "fallback output identical");
}
