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

# Kernel dispatch lane: the differential suite plus both report-equivalence
# suites under each MIDAS_KERNEL setting — swapping the kernel table must
# never change a report byte.
echo "== kernel dispatch (MIDAS_KERNEL=scalar and =auto) =="
for kernel in scalar auto; do
    echo "-- MIDAS_KERNEL=$kernel --"
    MIDAS_KERNEL="$kernel" cargo test -q --offline -p midas-core kernels
    MIDAS_KERNEL="$kernel" cargo test -q --offline --test kernel_differential
    MIDAS_KERNEL="$kernel" cargo test -q --offline --test streaming_equivalence
    MIDAS_KERNEL="$kernel" cargo test -q --offline --test incremental_equivalence
done

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

echo "== cargo test =="
cargo test -q --offline

echo "All checks passed."
