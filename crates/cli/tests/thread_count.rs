//! `--threads 2` must do exactly the work of `--threads 1`.
//!
//! The pool has one level of parallelism: the framework fans the per-source
//! detections out, and every map a detection issues (the hierarchy's
//! per-level parent generation and profit evaluation) runs inline on its
//! worker. A regression that lets those inner maps open pools of their own
//! still prints the same report, but plans shared parents redundantly and
//! issues more pool tasks — so this compares the exact counters as well as
//! the report bytes.

use std::path::{Path, PathBuf};
use std::process::Command;

use midas_core::telemetry::Snapshot;

fn midas(dir: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_midas"));
    cmd.current_dir(dir);
    cmd
}

struct Corpus {
    dir: PathBuf,
}

impl Corpus {
    fn kvault(scale: &str) -> Corpus {
        let dir =
            std::env::temp_dir().join(format!("midas_threads_{}_{scale}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = midas(&dir)
            .args([
                "generate",
                "--dataset",
                "kvault",
                "--scale",
                scale,
                "--seed",
                "3",
            ])
            .args(["--out", "."])
            .output()
            .expect("spawn midas generate");
        assert!(out.status.success(), "generate failed: {out:?}");
        Corpus { dir }
    }

    /// Runs `discover` at `threads`, returning its stdout and the exact
    /// counters of its metrics snapshot.
    fn discover(&self, threads: &str) -> (Vec<u8>, Snapshot) {
        let metrics = format!("metrics_t{threads}.json");
        let out = midas(&self.dir)
            .args(["discover", "--facts", "facts.tsv", "--kb", "kb.tsv"])
            .args(["--threads", threads, "--metrics-json", &metrics])
            .output()
            .expect("spawn midas discover");
        assert!(
            out.status.success(),
            "discover --threads {threads} failed: {out:?}"
        );
        let json = std::fs::read_to_string(self.dir.join(&metrics)).unwrap();
        (out.stdout, Snapshot::from_json(&json).unwrap())
    }
}

impl Drop for Corpus {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn two_threads_do_the_work_of_one() {
    let corpus = Corpus::kvault("0.1");
    let (out1, m1) = corpus.discover("1");
    let (out2, m2) = corpus.discover("2");
    assert!(
        out1 == out2,
        "reports differ between --threads 1 and --threads 2"
    );
    // Only exact counters: `kernel.*` and `hierarchy.*` are batched per
    // thread and may miss an unflushed tail.
    for name in ["pool.tasks", "framework.detect_calls"] {
        assert!(m1.counter(name) > 0, "{name} was not recorded");
        assert_eq!(
            m1.counter(name),
            m2.counter(name),
            "{name} at --threads 1 vs 2"
        );
    }
}

/// The parse runs on the pool too: on an input of several chunks, four
/// threads must print the report one thread prints and issue the same
/// pool tasks (chunking depends only on the bytes).
#[test]
fn several_chunk_input_parses_the_same_at_one_and_four_threads() {
    let corpus = Corpus::kvault("1");
    for file in ["facts.tsv", "kb.tsv"] {
        let len = std::fs::metadata(corpus.dir.join(file)).unwrap().len();
        assert!(
            len > midas_kb::tokenize::CHUNK_BYTES as u64,
            "{file} ({len} bytes) must span several parse chunks"
        );
    }
    let (out1, m1) = corpus.discover("1");
    let (out4, m4) = corpus.discover("4");
    assert!(
        out1 == out4,
        "reports differ between --threads 1 and --threads 4"
    );
    assert_eq!(m1.counter("pool.tasks"), m4.counter("pool.tasks"));
}

/// The binary refuses the removed `--stream-window` flag as a usage error
/// (exit 1, usage text on stderr, nothing on stdout) instead of running.
#[test]
fn removed_stream_window_flag_exits_with_a_usage_error() {
    let corpus = Corpus::kvault("0.01");
    let out = midas(&corpus.dir)
        .args(["discover", "--facts", "facts.tsv", "--kb", "kb.tsv"])
        .args(["--threads", "2", "--stream-window", "4"])
        .output()
        .expect("spawn midas discover");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty(), "no report is printed: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unrecognised argument") && stderr.contains("--stream-window"),
        "{stderr}"
    );
    assert!(stderr.contains("USAGE:"), "{stderr}");
}
