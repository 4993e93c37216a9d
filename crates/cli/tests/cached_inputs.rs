//! A facts file fed through a pipe, and the spans of a cached run.
//!
//! A pipe has no length and can be read only once. Cold, it streams through
//! the same chunk reader as a file; with `--snapshot-cache` it is read to
//! the end once, and the key pass and ingest both read that buffer. Either
//! way the report must be the file's, byte for byte, and the cached run
//! must write the snapshot the file run writes, under the same name.
//!
//! A cached `discover` under `MIDAS_TRACE=spans` times the key pass, the
//! snapshot lookup and the slice-report read and write, one span each.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

struct Corpus {
    dir: PathBuf,
}

impl Corpus {
    fn kvault(tag: &str) -> Corpus {
        let dir = std::env::temp_dir().join(format!("midas_cached_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let corpus = Corpus { dir };
        let out = corpus
            .midas()
            .args(["generate", "--dataset", "kvault", "--scale", "0.1"])
            .args(["--seed", "3", "--out", "."])
            .output()
            .expect("spawn midas generate");
        assert!(out.status.success(), "generate failed: {out:?}");
        corpus
    }

    /// The binary, run in the corpus directory with no `MIDAS_*` variable
    /// of the test's environment.
    fn midas(&self) -> Command {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_midas"));
        cmd.current_dir(&self.dir);
        for (name, _) in std::env::vars_os() {
            if name.to_string_lossy().starts_with("MIDAS_") {
                cmd.env_remove(name);
            }
        }
        cmd
    }

    /// Runs `discover` over the corpus with `extra` arguments and returns
    /// its stdout. With `piped`, the facts reach it on stdin through a pipe.
    fn discover(&self, piped: bool, extra: &[&str]) -> String {
        let facts = if piped { "/dev/stdin" } else { "facts.tsv" };
        let mut cmd = self.midas();
        cmd.args(["discover", "--facts", facts, "--kb", "kb.tsv", "--top", "5"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .stdin(if piped { Stdio::piped() } else { Stdio::null() });
        let mut child = cmd.spawn().expect("spawn midas discover");
        let writer = piped.then(|| {
            let bytes = std::fs::read(self.dir.join("facts.tsv")).unwrap();
            let mut stdin = child.stdin.take().unwrap();
            std::thread::spawn(move || stdin.write_all(&bytes))
        });
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success(), "discover {extra:?} failed: {out:?}");
        if let Some(writer) = writer {
            writer.join().unwrap().expect("the facts reach the pipe");
        }
        String::from_utf8(out.stdout).unwrap()
    }

    /// The `.snap` files of a cache directory, by name, with their bytes.
    fn snapshots(&self, cache: &str) -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(self.dir.join(cache))
            .unwrap()
            .map(|e| e.unwrap())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
            .map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(e.path()).unwrap())
            })
            .collect()
    }
}

impl Drop for Corpus {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The report without the cache's notes, which name the cache directory.
fn report(stdout: &str) -> String {
    stdout
        .lines()
        .filter(|l| !l.starts_with("snapshot cache") && !l.starts_with("slice cache"))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn a_piped_facts_file_reports_what_the_file_reports() {
    let corpus = Corpus::kvault("pipe");
    let file = corpus.discover(false, &[]);
    assert!(file.contains("Discovered web source slices"), "{file}");
    assert_eq!(corpus.discover(true, &[]), file, "cold, piped");

    let file_cached = corpus.discover(false, &["--snapshot-cache", "cache_file"]);
    let pipe_cached = corpus.discover(true, &["--snapshot-cache", "cache_pipe"]);
    assert!(
        pipe_cached.contains("snapshot cache write:"),
        "the piped run writes a snapshot: {pipe_cached}"
    );
    assert_eq!(report(&file_cached), file, "cached, file");
    assert_eq!(report(&pipe_cached), file, "cached, piped");
    let (from_file, from_pipe) = (
        corpus.snapshots("cache_file"),
        corpus.snapshots("cache_pipe"),
    );
    assert_eq!(from_file.len(), 2, "a corpus snapshot and a slice report");
    assert!(
        from_file == from_pipe,
        "the piped run writes the file run's snapshots, under the same names: {:?} vs {:?}",
        from_file.keys(),
        from_pipe.keys()
    );
    let hit = corpus.discover(true, &["--snapshot-cache", "cache_file", "--fp", "2"]);
    assert!(
        hit.contains("snapshot cache hit:"),
        "a pipe hits the file's snapshot: {hit}"
    );
}

#[test]
fn a_cached_discover_times_each_cache_step_once() {
    let corpus = Corpus::kvault("spans");
    corpus.discover(false, &["--snapshot-cache", "cache"]);
    let trace = corpus.dir.join("trace.jsonl");
    let mut cmd = corpus.midas();
    let out = cmd
        .env("MIDAS_TRACE", format!("spans:{}", trace.display()))
        .args(["discover", "--facts", "facts.tsv", "--kb", "kb.tsv"])
        .args(["--snapshot-cache", "cache", "--fp", "2"])
        .output()
        .expect("spawn midas discover");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("snapshot cache hit:") && stdout.contains("slice cache write:"),
        "a snapshot hit and a slice-report miss: {stdout}"
    );
    let events = std::fs::read_to_string(&trace).unwrap();
    for name in [
        "snapshot_cache.key",
        "snapshot_cache.read",
        "slice_cache.read",
        "slice_cache.write",
    ] {
        let needle = format!("{{\"span\":\"{name}\",");
        assert_eq!(
            events.lines().filter(|l| l.starts_with(&needle)).count(),
            1,
            "{name} in {events}"
        );
    }
}
