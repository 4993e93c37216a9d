#!/usr/bin/env bash
# Pre-merge check gauntlet: formatting, lints and rustdoc warnings as
# errors, and the full test suite. Entirely offline. Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

# Rustdoc lane: broken or private intra-doc links fail the check, so a
# deleted item cannot leave a dangling doc link behind.
echo "== cargo doc (-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# Telemetry lane: a live metrics registry and span trace sink must never
# change a report byte. Both equivalence suites re-run with telemetry
# forced on and every span mirrored to a JSONL file, which must then parse
# as one well-formed span event per line (the suites flush the sink).
echo "== telemetry lane (MIDAS_TELEMETRY=1, MIDAS_TRACE=spans:FILE) =="
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT
MIDAS_TELEMETRY=1 MIDAS_TRACE="spans:$TRACE_DIR/streaming.jsonl" \
    cargo test -q --offline --test streaming_equivalence
MIDAS_TELEMETRY=1 MIDAS_TRACE="spans:$TRACE_DIR/incremental.jsonl" \
    cargo test -q --offline --test incremental_equivalence
python3 - "$TRACE_DIR/streaming.jsonl" "$TRACE_DIR/incremental.jsonl" <<'EOF'
import json, sys
total = 0
for path in sys.argv[1:]:
    for line in open(path):
        evt = json.loads(line)
        assert evt["span"] and evt["end_ns"] >= evt["start_ns"], evt
        total += 1
assert total > 0, "no span events captured"
print(f"trace OK: {total} span events across {len(sys.argv) - 1} file(s)")
EOF

# Registration lane: no test binary may list the same test name twice
# (a macro that adds `#[test]` on top of the item's own one runs each case
# twice). Binaries may share names with each other, so the listing is
# split per binary on libtest's "N tests, M benchmarks" summary line, which
# `-q` would suppress.
echo "== duplicate test registrations =="
cargo test --offline -- --list 2>/dev/null | python3 -c '
import collections, re, sys
binaries, names, dupes = 0, [], []
for line in sys.stdin:
    line = line.rstrip("\n")
    if re.fullmatch(r"\d+ tests?, \d+ benchmarks?", line):
        binaries += 1
        dupes += [n for n, c in collections.Counter(names).items() if c > 1]
        names = []
    elif line.endswith(": test"):
        names.append(line[: -len(": test")])
assert binaries > 0, "no test binary listed"
assert not dupes, "registered twice in one binary: " + ", ".join(sorted(dupes))
print(f"registrations OK: {binaries} test binaries, no name listed twice")
'

echo "== cargo test =="
cargo test -q --offline

echo "All checks passed."
