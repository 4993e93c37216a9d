//! Kill-anywhere crash harness for the durability layer.
//!
//! Forks the real `midas` binary with `MIDAS_CRASHPOINT=<site>.<stage>@<n>`
//! so the process calls `abort()` at a chosen point inside a snapshot,
//! slice-report, checkpoint, or manifest write — including *between* the
//! rename and the directory fsync — then asserts the invariants the store
//! promises:
//!
//! * a crashed write never leaves a torn file under a trusted name (only
//!   under `*.tmp.<pid>`, which the next run sweeps);
//! * the next run heals: it completes cleanly and its report is
//!   byte-identical to a run that never used the cache;
//! * an externally-torn snapshot is quarantined with a reason file — never
//!   silently trusted, never silently deleted;
//! * `augment --resume` after a mid-loop crash reproduces the
//!   uninterrupted run byte-for-byte (under `MIDAS_FIXED_TIMING`).

#![cfg(unix)]

use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Every stage of the atomic write path, in execution order. Mirrors
/// `midas_kb::snapshot::WRITE_CRASH_STAGES`; spelled out here so the
/// harness fails loudly if a stage is ever dropped from the write path.
const STAGES: [&str; 4] = ["tmp.partial", "tmp.synced", "renamed", "dir.synced"];

fn midas() -> Command {
    Command::new(env!("CARGO_BIN_EXE_midas"))
}

fn run_ok(dir: &Path, args: &[&str], envs: &[(&str, &str)]) -> String {
    let out = run_raw(dir, args, envs);
    assert!(
        out.status.success(),
        "midas {args:?} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn run_raw(dir: &Path, args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = midas();
    cmd.current_dir(dir).args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn midas")
}

/// Output with durability-layer notes stripped: the only permitted
/// difference between cold, cached, crashed-then-healed, and resumed runs.
fn body(text: &str) -> String {
    text.lines()
        .filter(|l| {
            let l = l.trim_start_matches("# ");
            !l.starts_with("snapshot cache")
                && !l.starts_with("slice cache")
                && !l.starts_with("resume")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

struct Fixture {
    dir: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let dir = std::env::temp_dir().join(format!("midas_crash_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        run_ok(
            &dir,
            &[
                "generate",
                "--dataset",
                "kvault",
                "--scale",
                "0.05",
                "--seed",
                "42",
                "--out",
                ".",
            ],
            &[],
        );
        Fixture { dir }
    }

    fn cache_files(&self, cache: &str) -> Vec<String> {
        let dir = self.dir.join(cache);
        if !dir.exists() {
            return Vec::new();
        }
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

const DISCOVER: [&str; 8] = [
    "discover",
    "--facts",
    "facts.tsv",
    "--kb",
    "kb.tsv",
    "--top",
    "8",
    "--explain",
];

const AUGMENT: [&str; 9] = [
    "augment",
    "--facts",
    "facts.tsv",
    "--kb",
    "kb.tsv",
    "--rounds",
    "4",
    "--threads",
    "2",
];

fn with_cache(base: &[&str], cache: &str) -> Vec<String> {
    let mut v: Vec<String> = base.iter().map(|s| s.to_string()).collect();
    v.push("--snapshot-cache".into());
    v.push(cache.into());
    v
}

/// Runs `args` with a crashpoint armed, asserting the process died by
/// SIGABRT (i.e. the crashpoint actually fired, rather than the run
/// finishing or failing some other way).
fn crash_at(f: &Fixture, args: &[String], point: &str) {
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let out = run_raw(
        &f.dir,
        &argv,
        &[("MIDAS_CRASHPOINT", point), ("MIDAS_FIXED_TIMING", "1")],
    );
    assert_eq!(
        out.status.signal(),
        Some(libc_sigabrt()),
        "crashpoint {point} did not abort; status {:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("crashpoint: aborting"),
        "crashpoint {point} fired without announcing itself: {stderr}"
    );
}

fn libc_sigabrt() -> i32 {
    6 // SIGABRT on every platform this harness runs on (Linux)
}

/// No file under a trusted name may be torn after a crash: torn bytes only
/// ever live under `*.tmp.<pid>`.
fn assert_no_torn_trusted_files(f: &Fixture, cache: &str) {
    for name in f.cache_files(cache) {
        assert!(
            !name.ends_with(".snap") || is_wellformed(&f.dir.join(cache).join(&name)),
            "torn snapshot under trusted name {name}"
        );
    }
}

/// A committed snapshot must carry the full container: magic at the front,
/// non-empty payload. (Checksum verification happens on open; here we only
/// care that the *file born from a crash* is either absent or complete —
/// the rename-is-atomic invariant.)
fn is_wellformed(path: &Path) -> bool {
    let bytes = std::fs::read(path).unwrap();
    bytes.len() > 8 && &bytes[..4] == b"MSNP"
}

/// Kill the CLI at every stage of every write site, then verify the next
/// run heals and matches a never-cached reference bit-for-bit.
#[test]
fn kill_anywhere_then_heal_matches_reference() {
    let f = Fixture::new("kill_anywhere");
    let reference = body(&run_ok(&f.dir, &DISCOVER, &[("MIDAS_FIXED_TIMING", "1")]));
    let augment_reference = body(&run_ok(&f.dir, &AUGMENT, &[("MIDAS_FIXED_TIMING", "1")]));

    // (site, command that exercises it, healed reference)
    let sites: [(&str, &[&str], &str); 4] = [
        ("snap", &DISCOVER, &reference),
        ("slices", &DISCOVER, &reference),
        ("manifest", &DISCOVER, &reference),
        ("ckpt", &AUGMENT, &augment_reference),
    ];

    for (site, base_args, healed_reference) in sites {
        for stage in STAGES {
            let cache = format!("cache_{site}_{}", stage.replace('.', "_"));
            let args = with_cache(base_args, &cache);
            crash_at(&f, &args, &format!("{site}.{stage}@1"));
            assert_no_torn_trusted_files(&f, &cache);

            let argv: Vec<&str> = args.iter().map(String::as_str).collect();
            let healed = run_ok(&f.dir, &argv, &[("MIDAS_FIXED_TIMING", "1")]);
            assert_eq!(
                body(&healed),
                healed_reference,
                "healed run diverges after crash at {site}.{stage}"
            );
            // The healing run swept the dead writer's temp file (if the
            // crash left one): nothing torn remains under any name.
            assert!(
                !f.cache_files(&cache).iter().any(|n| n.contains(".tmp.")),
                "temp file survived healing at {site}.{stage}: {:?}",
                f.cache_files(&cache)
            );
        }
    }
}

/// An externally torn snapshot is quarantined with its bytes and a reason
/// file — never trusted, never silently destroyed.
#[test]
fn torn_snapshot_is_quarantined_never_trusted() {
    let f = Fixture::new("torn");
    let args = with_cache(&DISCOVER, "cache");
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let reference = body(&run_ok(&f.dir, &DISCOVER, &[]));
    run_ok(&f.dir, &argv, &[]);

    let snap_name = f
        .cache_files("cache")
        .into_iter()
        .find(|n| n.ends_with(".snap") && !n.ends_with("-slices.snap"))
        .expect("committed snapshot");
    let snap = f.dir.join("cache").join(&snap_name);
    let bytes = std::fs::read(&snap).unwrap();
    std::fs::write(&snap, &bytes[..bytes.len() / 2]).unwrap();

    let healed = run_ok(&f.dir, &argv, &[]);
    assert!(
        healed.contains("snapshot cache: quarantined"),
        "torn snapshot must be reported: {healed}"
    );
    assert_eq!(body(&healed), reference, "healing run diverges");

    let qdir = f.dir.join("cache").join("quarantine");
    let quarantined = std::fs::read(qdir.join(&snap_name)).unwrap();
    assert_eq!(
        quarantined,
        &bytes[..bytes.len() / 2],
        "quarantine must preserve the torn bytes as evidence"
    );
    let reason = std::fs::read_to_string(qdir.join(format!("{snap_name}.reason"))).unwrap();
    assert!(!reason.trim().is_empty(), "reason file must say why");
}

/// Crash the augmentation loop mid-way at its checkpoint commit, then
/// `--resume`: the resumed output must be byte-identical to a run that was
/// never interrupted (wall-clock columns pinned by `MIDAS_FIXED_TIMING`).
#[test]
fn resume_after_crash_is_bit_identical_to_uninterrupted_run() {
    let f = Fixture::new("resume");
    let fixed = [("MIDAS_FIXED_TIMING", "1")];
    let reference = body(&run_ok(&f.dir, &AUGMENT, &fixed));
    assert!(
        reference.contains("over 4 rounds"),
        "corpus must sustain at least 4 rounds for the crash to land mid-loop: {reference}"
    );

    // With the clock pinned, the checkpoint itself reproduces: two fresh
    // caches end up holding byte-identical `.ckpt` files.
    let checkpoints: Vec<Vec<u8>> = ["fresh_a", "fresh_b"]
        .into_iter()
        .map(|cache| {
            let args = with_cache(&AUGMENT, cache);
            let argv: Vec<&str> = args.iter().map(String::as_str).collect();
            run_ok(&f.dir, &argv, &fixed);
            let name = f
                .cache_files(cache)
                .into_iter()
                .find(|n| n.ends_with(".ckpt"))
                .expect("augment --snapshot-cache writes a checkpoint");
            std::fs::read(f.dir.join(cache).join(name)).unwrap()
        })
        .collect();
    assert!(
        checkpoints[0] == checkpoints[1],
        "two identical fixed-timing runs wrote different checkpoints"
    );

    // Kill at the commit of round 2's checkpoint: rounds 1-2 are durable,
    // rounds 3-4 were never run.
    let args = with_cache(&AUGMENT, "cache");
    crash_at(&f, &args, "ckpt.renamed@2");

    let mut resume_args = args.clone();
    resume_args.push("--resume".into());
    let argv: Vec<&str> = resume_args.iter().map(String::as_str).collect();
    let resumed = run_ok(&f.dir, &argv, &fixed);
    assert!(
        resumed.contains("resume: replayed 2 checkpointed round(s)"),
        "resume must replay exactly the durable rounds: {resumed}"
    );
    assert_eq!(
        body(&resumed),
        reference,
        "resumed run must be byte-identical to the uninterrupted run"
    );

    // Resuming a *finished* run replays everything and runs nothing new —
    // still byte-identical.
    let resumed_again = run_ok(&f.dir, &argv, &fixed);
    assert!(
        resumed_again.contains("resume: replayed 4 checkpointed round(s)"),
        "second resume should find the completed trace: {resumed_again}"
    );
    assert_eq!(body(&resumed_again), reference);
}

/// The checkpoint key leaves the thread count out, so a run checkpointed at
/// `--threads 2` resumes at `--threads 1` and `--threads 4`: both replay
/// the durable rounds and print the uninterrupted run's report.
#[test]
fn resume_at_another_thread_count_replays_the_checkpoint() {
    let f = Fixture::new("resume_threads");
    let fixed = [("MIDAS_FIXED_TIMING", "1")];
    let reference = body(&run_ok(&f.dir, &AUGMENT, &fixed));
    let args = with_cache(&AUGMENT, "cache");
    crash_at(&f, &args, "ckpt.renamed@2");

    for threads in ["1", "4"] {
        let mut resume_args = args.clone();
        let at = resume_args.iter().position(|a| a == "--threads").unwrap();
        resume_args[at + 1] = threads.into();
        resume_args.push("--resume".into());
        let argv: Vec<&str> = resume_args.iter().map(String::as_str).collect();
        let resumed = run_ok(&f.dir, &argv, &fixed);
        assert!(
            resumed.contains("resume: replayed"),
            "--threads {threads} must reuse the checkpoint: {resumed}"
        );
        assert_eq!(
            body(&resumed),
            reference,
            "resumed at --threads {threads} must match the uninterrupted run"
        );
    }
}

/// A damaged checkpoint is quarantined and the run restarts cold rather
/// than trusting replayed rounds — and still matches the reference.
#[test]
fn damaged_checkpoint_quarantines_and_restarts_cold() {
    let f = Fixture::new("bad_ckpt");
    let fixed = [("MIDAS_FIXED_TIMING", "1")];
    let reference = body(&run_ok(&f.dir, &AUGMENT, &fixed));

    let args = with_cache(&AUGMENT, "cache");
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    run_ok(&f.dir, &argv, &fixed);

    let ckpt_name = f
        .cache_files("cache")
        .into_iter()
        .find(|n| n.ends_with(".ckpt"))
        .expect("committed checkpoint");
    let ckpt = f.dir.join("cache").join(&ckpt_name);
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&ckpt, bytes).unwrap();

    let mut resume_args = args.clone();
    resume_args.push("--resume".into());
    let argv: Vec<&str> = resume_args.iter().map(String::as_str).collect();
    let resumed = run_ok(&f.dir, &argv, &fixed);
    assert!(
        resumed.contains("resume: quarantined checkpoint"),
        "damaged checkpoint must be quarantined: {resumed}"
    );
    assert_eq!(body(&resumed), reference, "cold restart diverges");
    assert!(
        f.dir
            .join("cache")
            .join("quarantine")
            .join(&ckpt_name)
            .exists(),
        "quarantine must hold the damaged checkpoint"
    );
}
