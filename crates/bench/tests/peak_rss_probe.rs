//! The `peak_rss` probe's command line and output line, as
//! `scripts/bench_smoke.sh` drives and parses them.

use std::process::{Command, Output};

fn probe(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_peak_rss"))
        .args(args)
        .output()
        .expect("spawn peak_rss")
}

/// The value of `"key":<number>` in a one-line JSON object.
fn number(line: &str, key: &str) -> u64 {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag).unwrap_or_else(|| panic!("{key} in {line}")) + tag.len();
    line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{key} is a number in {line}"))
}

/// One JSON line per run, named by its thread count, carrying the peak RSS
/// the smoke gate compares; the slice count does not depend on the threads.
#[test]
fn probe_prints_one_json_line_per_thread_count() {
    let mut slices = Vec::new();
    for threads in ["1", "3"] {
        let out = probe(&["--threads", threads, "--entities", "4"]);
        assert!(out.status.success(), "{out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines.len(), 1, "{stdout}");
        let line = lines[0];
        assert!(
            line.contains(&format!("\"bench\":\"peak_rss/threads_{threads}\"")),
            "{line}"
        );
        assert_eq!(number(line, "threads").to_string(), threads);
        assert_eq!(number(line, "sources"), 240, "{line}");
        if cfg!(target_os = "linux") {
            assert!(number(line, "peak_rss_kb") > 0, "{line}");
        }
        slices.push(number(line, "slices"));
    }
    assert!(slices[0] > 0);
    assert_eq!(slices[0], slices[1], "report size at 1 vs 3 threads");
}

/// `--threads` is the probe's only concurrency flag.
#[test]
fn probe_refuses_the_removed_stream_window_flag() {
    let out = probe(&["--threads", "2", "--stream-window", "1"]);
    assert!(!out.status.success(), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown argument \"--stream-window\""),
        "{stderr}"
    );
}
