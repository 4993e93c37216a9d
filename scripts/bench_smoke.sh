#!/usr/bin/env bash
# Bench smoke runner: exercises the hot-path criterion benches at reduced
# sample counts and records one JSON line per benchmark in BENCH_PR10.json
# at the repo root (appended by the in-repo criterion shim — see
# crates/shims/criterion; every line carries peak_rss_kb and calib_ns
# fields, the latter a machine-speed reference bench_compare.py divides
# medians by so host contention never reads as a code regression).
#
# After the criterion benches it gates, in order: peak RSS at 8 vs 16
# worker threads, warm augmentation rounds against a rebuild, telemetry overhead,
# snapshot-cache warm vs cold, metrics drift, fault-injection quarantine,
# and resume-vs-rerun bit-identity. A failing gate does not stop the run:
# every gate runs, each failure is printed when it happens and again in a
# summary at the end, and the script then exits non-zero.
#
# Entirely offline: the workspace builds with `--offline` against `std`
# and the in-repo shims in crates/shims (rand, proptest, criterion); no
# registry access is required (verify with `cargo tree --offline`).
#
# Usage: scripts/bench_smoke.sh [output.json] [samples]
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_PR10.json}"
SAMPLES="${2:-10}"

# cargo runs bench binaries with the package directory as cwd, so anchor a
# relative output path to the repo root before exporting it.
case "$OUT" in
    /*) ;;
    *) OUT="$PWD/$OUT" ;;
esac

rm -f "$OUT"
export MIDAS_BENCH_JSON="$OUT"

# Failed gates, in order; reported together at the end.
FAILED=()
gate_failed() {
    echo "$1" >&2
    FAILED+=("$1")
}
export MIDAS_BENCH_SAMPLES="$SAMPLES"

for bench in hierarchy_build profit_eval interning; do
    echo "== $bench (samples=$SAMPLES) =="
    cargo bench --offline -p midas-bench --bench "$bench"
done

# Peak-RSS comparison: each worker holds one shard's fact table and
# hierarchy at a time, so halving the worker count must reduce peak
# resident memory on a ≥200-source corpus. VmHWM is process-wide and
# monotone, so each configuration runs in its own process.
echo
echo "== peak RSS: --threads 8 vs --threads 16 =="
cargo build --offline -q --release -p midas-bench --bin peak_rss
FEWER="$(./target/release/peak_rss --threads 8)"
MORE="$(./target/release/peak_rss --threads 16)"
printf '%s\n%s\n' "$FEWER" "$MORE" | tee -a "$OUT"
rss_of() { printf '%s' "$1" | sed -n 's/.*"peak_rss_kb":\([0-9]*\).*/\1/p'; }
F_KB="$(rss_of "$FEWER")"
M_KB="$(rss_of "$MORE")"
if [ "$F_KB" -ge "$M_KB" ]; then
    gate_failed "peak-RSS smoke FAILED: 8 threads ($F_KB KiB) not below 16 threads ($M_KB KiB)"
else
    echo "peak-RSS smoke OK: 8 threads = $F_KB KiB < 16 threads = $M_KB KiB"
fi

# Incremental augmentation loop: every warm round replays the clean
# subtrees from the round cache AND patches the dirty leaves' retained
# hierarchies in place. The binary asserts bit-identical results against
# the from-scratch rebuild every round; the gate requires the warm path to
# beat the rebuild by >= 12x over the warm rounds (38x measured on a
# 2-vCPU host: 10.8 ms warm vs 410 ms rebuild at --threads 4).
echo
echo "== augmentation loop: warm incremental vs rebuild =="
cargo build --offline -q --release -p midas-bench --bin augment_rounds
AUGMENT="$(./target/release/augment_rounds --threads 4)"
printf '%s\n' "$AUGMENT" | tee -a "$OUT"
ms_of() { printf '%s\n' "$AUGMENT" | grep warm_total | sed -n "s/.*\"$1_ms\":\([0-9]*\)\..*/\1/p"; }
WARM_MS="$(ms_of warm)"
FRESH_MS="$(ms_of rebuild)"
RATIO="$(printf '%s\n' "$AUGMENT" | grep warm_total \
    | sed -n 's/.*"warm_over_rebuild":\([0-9]*\)\..*/\1/p')"
if [ -z "$RATIO" ] || [ "$RATIO" -lt 12 ]; then
    gate_failed "augmentation smoke FAILED: warm path only ${RATIO:-?}x over rebuild (need >= 12x)"
else
    echo "augmentation smoke OK: warm = $WARM_MS ms, rebuild = $FRESH_MS ms; ${RATIO}x over rebuild"
fi

# Telemetry overhead gate: with the metrics registry live (counters, span
# histograms, per-round reconciliation snapshots) the augmentation loop's
# from-scratch rebuild total must stay within 3% of the disabled run, plus
# a small absolute allowance because a single rebuild total is ~1.5s and
# host scheduling jitter alone exceeds 3% on loaded machines. Runs are
# interleaved and the gate compares best-of-3 per mode so one noisy rep
# cannot fail (or mask) the comparison. The last enabled rep also writes
# the per-run metrics report consumed by metrics_compare.py below, to a
# temporary path: the tracked METRICS_PR<N>.json is the baseline it is
# compared against, never overwritten here.
echo
echo "== telemetry overhead: MIDAS_TELEMETRY=1 vs disabled (best of 3) =="
METRICS_OUT="$(mktemp "${TMPDIR:-/tmp}/midas-metrics.XXXXXX.json")"
trap 'rm -f "$METRICS_OUT"' EXIT
rebuild_total_of() { printf '%s\n' "$1" | grep warm_total | sed -n 's/.*"rebuild_ms":\([0-9]*\)\..*/\1/p'; }
BEST_OFF=""
BEST_ON=""
for rep in 1 2 3; do
    OFF_RUN="$(MIDAS_TELEMETRY=0 ./target/release/augment_rounds --threads 4)"
    ON_RUN="$(MIDAS_TELEMETRY=1 ./target/release/augment_rounds --threads 4 \
        --metrics-json "$METRICS_OUT" 2>/dev/null)"
    OFF_MS="$(rebuild_total_of "$OFF_RUN")"
    ON_MS="$(rebuild_total_of "$ON_RUN")"
    echo "  rep $rep: disabled = $OFF_MS ms, enabled = $ON_MS ms"
    if [ -z "$BEST_OFF" ] || [ "$OFF_MS" -lt "$BEST_OFF" ]; then BEST_OFF="$OFF_MS"; fi
    if [ -z "$BEST_ON" ] || [ "$ON_MS" -lt "$BEST_ON" ]; then BEST_ON="$ON_MS"; fi
done
ALLOWED=$((BEST_OFF + BEST_OFF * 3 / 100 + 50))
if [ "$BEST_ON" -gt "$ALLOWED" ]; then
    gate_failed "telemetry smoke FAILED: enabled rebuild ($BEST_ON ms) above disabled ($BEST_OFF ms) + 3% + 50 ms"
else
    echo "telemetry smoke OK: enabled = $BEST_ON ms <= disabled = $BEST_OFF ms + 3% + 50 ms; report at $METRICS_OUT"
fi

# Snapshot-cache cold vs warm: a warm `--snapshot-cache` run must reach
# its first detection round at least 5x faster than cold extraction on the
# 240-source corpus (the binary also asserts cold and warm reports are
# bit-identical before the speedup is trusted).
echo
echo "== snapshot cache: cold vs warm (240 sources) =="
cargo build --offline -q --release -p midas-bench --bin snapshot_coldwarm
COLDWARM="$(./target/release/snapshot_coldwarm --entities 250 --threads 4)"
printf '%s\n' "$COLDWARM" | tee -a "$OUT"
SPEEDUP="$(printf '%s' "$COLDWARM" | sed -n 's/.*"speedup":\([0-9]*\)\..*/\1/p')"
if [ "$SPEEDUP" -lt 5 ]; then
    gate_failed "snapshot smoke FAILED: warm run only ${SPEEDUP}x faster than cold (need >= 5x)"
else
    echo "snapshot smoke OK: warm run ${SPEEDUP}x faster than cold"
fi

# Counter drift: compare this run's report against the newest tracked
# METRICS_PR<N>.json. Work counters are machine-independent, so drift
# beyond the threshold means a code path genuinely changed how much it does.
echo
echo "== metrics_compare.py =="
if ! python3 scripts/metrics_compare.py --current "$METRICS_OUT"; then
    gate_failed "metrics drift FAILED: counters moved against the tracked baseline"
fi

echo
echo "== $OUT =="
cat "$OUT"

# Fault-injection smoke: a run with injected worker faults must complete
# cleanly and quarantine exactly the targeted sources.
echo
echo "== fault-injection smoke =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$METRICS_OUT"' EXIT
cargo run --offline -q -p midas-cli -- \
    generate --dataset kvault --scale 0.05 --out "$SMOKE_DIR"
FAULTED="$(MIDAS_FAULTINJECT='panic@#0,budget@#1' cargo run --offline -q -p midas-cli -- \
    discover --facts "$SMOKE_DIR/facts.tsv" --kb "$SMOKE_DIR/kb.tsv" \
    --lenient --threads 4 --top 5)"
printf '%s\n' "$FAULTED" | tail -n 6
if ! printf '%s\n' "$FAULTED" | grep -q "quarantined 2 source(s)"; then
    gate_failed "fault-injection smoke FAILED: expected 2 quarantined sources"
else
    echo "fault-injection smoke OK"
fi

# Resume-vs-rerun bit-identity: kill the augmentation loop at the commit
# of its second round checkpoint, `--resume`, and require the resumed
# stdout (minus cache/resume notes, wall-clock pinned by
# MIDAS_FIXED_TIMING) to be byte-identical to an uninterrupted run.
echo
echo "== resume vs rerun: bit-identity after a mid-loop kill =="
cargo build --offline -q -p midas-cli
MIDAS_BIN="./target/debug/midas"
strip_notes() { grep -v -e '^snapshot cache' -e '^slice cache' -e '^resume' "$1" > "$2"; }
AUG_ARGS=(augment --facts "$SMOKE_DIR/facts.tsv" --kb "$SMOKE_DIR/kb.tsv" --rounds 4 --threads 2)
# One gate of several steps: a failed step skips the rest of the gate.
resume_gate() {
    MIDAS_FIXED_TIMING=1 "$MIDAS_BIN" "${AUG_ARGS[@]}" > "$SMOKE_DIR/rerun.txt"
    set +e
    MIDAS_FIXED_TIMING=1 MIDAS_CRASHPOINT='ckpt.renamed@2' \
        "$MIDAS_BIN" "${AUG_ARGS[@]}" --snapshot-cache "$SMOKE_DIR/cache" \
        > /dev/null 2> "$SMOKE_DIR/crash.err"
    local crash_status=$?
    set -e
    if [ "$crash_status" -eq 0 ] || ! grep -q 'crashpoint: aborting' "$SMOKE_DIR/crash.err"; then
        gate_failed "resume smoke FAILED: crashpoint did not fire (status $crash_status)"
        return
    fi
    MIDAS_FIXED_TIMING=1 "$MIDAS_BIN" "${AUG_ARGS[@]}" \
        --snapshot-cache "$SMOKE_DIR/cache" --resume > "$SMOKE_DIR/resumed.txt"
    if ! grep -q 'resume: replayed 2 checkpointed round(s)' "$SMOKE_DIR/resumed.txt"; then
        gate_failed "resume smoke FAILED: expected 2 replayed rounds"
        return
    fi
    strip_notes "$SMOKE_DIR/rerun.txt" "$SMOKE_DIR/rerun.body"
    strip_notes "$SMOKE_DIR/resumed.txt" "$SMOKE_DIR/resumed.body"
    if ! cmp -s "$SMOKE_DIR/rerun.body" "$SMOKE_DIR/resumed.body"; then
        gate_failed "resume smoke FAILED: resumed output differs from uninterrupted run"
        diff "$SMOKE_DIR/rerun.body" "$SMOKE_DIR/resumed.body" >&2 || true
        return
    fi
    echo "resume smoke OK: resumed run byte-identical to uninterrupted run"
}
resume_gate

echo
if [ "${#FAILED[@]}" -gt 0 ]; then
    echo "== ${#FAILED[@]} gate(s) FAILED ==" >&2
    printf '  %s\n' "${FAILED[@]}" >&2
    exit 1
fi
echo "== every gate passed =="
