#!/usr/bin/env python3
"""Compare a telemetry metric report against the tracked baseline.

The baseline is the newest METRICS_PR<N>.json at the repo root; ``--current``
names the report to check, a single ``midas.metrics/v1`` document as written
by ``--metrics-json`` (the CLI) or ``augment_rounds --metrics-json`` (the
bench probe). ``scripts/bench_smoke.sh`` writes that report to a temporary
path and runs this script on it, so the tracked baseline is never
overwritten by a smoke run.

Counters are work totals, not wall-clock, so they are machine-independent:
a changed value means the code path genuinely did a different amount of
work. The comparison is therefore two-sided — a counter that *drops* to
zero usually means instrumented work silently stopped happening, which is
as much a bug as runaway growth. Histograms are compared on sample counts
only; their nanosecond sums are machine-speed dependent and are printed for
reference, never gated.

Exit status is non-zero when any counter present in both reports moved by
more than the threshold (default 25%) in either direction, or vanished
entirely. Counters appearing only on one side are informational — every PR
adds instrumentation. A change that moves counters on purpose re-records
the baseline as METRICS_PR<N>.json (replacing the previous one) and lists
the moved counters in CHANGES.md.

Usage:
    scripts/metrics_compare.py --current PATH [--threshold 0.25]

Stdlib only; no third-party imports.
"""

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "midas.metrics/v1"


def pr_number(path):
    m = re.fullmatch(r"METRICS_PR(\d+)\.json", path.name)
    return int(m.group(1)) if m else None


def load_report(path):
    """(counters dict, histograms dict) from one metrics document."""
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        sys.exit(f"{path.name}: not valid JSON: {e}")
    if doc.get("schema") != SCHEMA:
        sys.exit(f"{path.name}: schema {doc.get('schema')!r}, expected {SCHEMA!r}")
    return doc.get("counters", {}), doc.get("histograms", {})


def fmt(v):
    return f"{v:,}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--current", type=Path, required=True,
                    help="the metrics report to check against the baseline")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="max allowed counter drift, as a fraction (default 0.25)")
    args = ap.parse_args()

    tracked = sorted(
        (p for p in ROOT.glob("METRICS_PR*.json") if pr_number(p) is not None),
        key=pr_number,
    )
    if not tracked:
        sys.exit("no METRICS_PR*.json baseline at the repo root")
    prev, latest = tracked[-1], args.current
    prev_counters, prev_hists = load_report(prev)
    counters, hists = load_report(latest)

    drifted = []
    print(f"{prev.name} -> {latest.name} (threshold {args.threshold:.0%}):")
    for name in sorted(set(prev_counters) & set(counters)):
        before, after = prev_counters[name], counters[name]
        if before == after == 0:
            continue
        if before == 0:
            delta, shown = float("inf"), "new work"
        else:
            delta = abs(after - before) / before
            shown = f"{(after - before) / before:+.1%}"
        flag = ""
        if delta > args.threshold or (before > 0 and after == 0):
            drifted.append((name, shown))
            flag = "  DRIFT"
        print(f"  {name:44s} {fmt(before):>16s} -> {fmt(after):>16s}  {shown:>10s}{flag}")
    for name in sorted(set(counters) - set(prev_counters)):
        print(f"  {name:44s} {'—':>16s} -> {fmt(counters[name]):>16s}   new")
    for name in sorted(set(prev_counters) - set(counters)):
        drifted.append((name, "vanished"))
        print(f"  {name:44s} {fmt(prev_counters[name]):>16s} -> {'—':>16s}  DRIFT (vanished)")

    shared_hists = sorted(set(prev_hists) & set(hists))
    if shared_hists:
        print("histogram sample counts (informational; sums are machine-speed):")
        for name in shared_hists:
            b, a = prev_hists[name], hists[name]
            print(f"  {name:44s} {fmt(b.get('count', 0)):>16s} -> {fmt(a.get('count', 0)):>16s}"
                  f"   sum {fmt(b.get('sum', 0))} -> {fmt(a.get('sum', 0))}")

    if drifted:
        print(f"\nFAILED: {len(drifted)} counter(s) drifted beyond "
              f"{args.threshold:.0%}: {', '.join(n for n, _ in drifted)}",
              file=sys.stderr)
        return 1
    print("\nOK: no counter drift beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
