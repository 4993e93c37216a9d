#!/usr/bin/env python3
"""End-to-end benchmark of the `midas` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `midas` binary and the traced-pass binary from this checkout,
generates the workload's corpus from the seed, sets up, then drives the
real binary as a closed loop (one client, each invocation starts when the
previous one has exited) for S seconds. Every output is checked: against
the run's reference output, and by the independent checker in
`checker.py`. Wall times leave out the time the hypervisor withheld the
CPUs (see `Sample`).

With `--trace 0` the last stdout line is a JSON object carrying the
end-to-end metrics, measured with tracing off. With `--trace 1` it carries
the per-layer metrics: the same closed loop runs untraced first (for the
reference output and the overhead baseline), then the traced pass replays
the command layer by layer (see tracer/src/main.rs). The workloads and
every metric are described in perfbench/README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import corpus  # noqa: E402

SETUP_REPS = 5
MIN_SAMPLES = 3
TRACE_REPS = 2
# Snapshot caches (indices into `Workload.cache_dirs`, all primed during
# set-up) of the traced pass: one for the replay, one for the real binary,
# and neither the timed loop's.
TRACE_CACHE, REAL_CACHE = 1, 2
# Program counters the replay does not reach: the CLI's run counter and its
# kernel dispatch choice.
NOT_REPLAYED = ("eval.", "kernel.dispatch.")
# Counters each thread tallies locally and flushes every 1,024 events and at
# exit; a thread's last batch may land after the snapshot is taken.
BATCHED = ("kernel.", "hierarchy.", "scratch.")
BATCH_SLACK = 1023


# The dense sweep's cost value for invocation i. Each invocation gets its own
# `--fp`, so it misses the slice cache; the steps are tiny, so every
# invocation prunes and selects as at fp = 1 and does the same work however
# many invocations a run makes.
def dense_fp(i):
    return round(1.0 + 1e-6 * i, 6)


class Failure(Exception):
    """An invocation whose exit code or output is wrong."""


# ---------------------------------------------------------------------------
# Building and invoking
# ---------------------------------------------------------------------------

def build():
    """Builds the two binaries; returns their paths. Exits 2 if a build
    fails (as it does in a directory that holds only the benchmark)."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for manifest, extra in ((ROOT / "Cargo.toml", ["-p", "midas-cli"]),
                            (HERE / "tracer" / "Cargo.toml", [])):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", str(manifest)] + extra
        if not manifest.is_file() or subprocess.run(cmd, env=env, stdout=sys.stderr).returncode:
            print(f"build failed: {' '.join(cmd)}", file=sys.stderr)
            sys.exit(2)
    return [str(target / "release" / name) for name in ("midas", "midas-trace")]


# The program reads MIDAS_* variables (tracing, kernels, fault plans); the
# untraced loop must run with none of them set.
CLEAN_ENV = {k: v for k, v in os.environ.items() if not k.startswith("MIDAS_")}


TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
CPUS = sorted(os.sched_getaffinity(0))
NCPU = len(CPUS)
# A 1-thread invocation runs on this vCPU alone, so the time stolen from it
# is that vCPU's steal (the benchmark itself waits on another).
PIN_CPU = CPUS[-1] if NCPU > 1 else None


def stolen_s(cpu=None):
    """CPU time the hypervisor has withheld since boot: from vCPU `cpu`, or
    summed over all vCPUs when `cpu` is None. The `steal` column of
    /proc/stat, or 0 where the kernel does not report it."""
    label = "cpu" if cpu is None else f"cpu{cpu}"
    try:
        with open("/proc/stat") as f:
            for line in f:
                fields = line.split()
                if fields and fields[0] == label:
                    return int(fields[8]) * TICK_S if len(fields) > 8 else 0.0
    except OSError:
        pass
    return 0.0


class Sample:
    """One finished invocation."""

    def __init__(self, cmd, workdir, threads=1):
        err_path = workdir / "stderr.txt"
        # A 1-thread invocation is pinned to PIN_CPU and loses what is
        # stolen from it; one with more threads keeps every vCPU busy, and
        # its threads wait on each other, so a stall of any vCPU stalls it.
        pin = PIN_CPU if threads == 1 else None
        stolen = stolen_s(pin)
        start = time.perf_counter()
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=err, env=CLEAN_ENV,
                preexec_fn=None if pin is None else lambda: os.sched_setaffinity(0, {pin}))
            self.stdout = proc.stdout.read().decode("utf-8")
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        self.wall = time.perf_counter() - start
        self.stolen = stolen_s(pin) - stolen
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.sys = usage.ru_stime
        self.cpu = usage.ru_utime + usage.ru_stime
        # The wall time less the time the host withheld the vCPUs from the
        # program: an unpinned one keeps `threads` of the NCPU vCPUs busy,
        # and is stalled by that share of the steal summed over them. When
        # vCPUs are withheld at once the sum counts that time more than
        # once, so the program's CPU time spread over its threads is a floor.
        share = 1.0 if pin is not None else min(threads, NCPU) / NCPU
        self.unstolen = max(self.wall - self.stolen * share, self.cpu / min(threads, NCPU))
        self.rss_mib = usage.ru_maxrss / 1024.0
        self.ctx = usage.ru_nvcsw + usage.ru_nivcsw
        if self.code != 0:
            stderr = err_path.read_text(errors="replace")[-2000:]
            raise Failure(f"exit {self.code}: {' '.join(map(str, cmd))}\n{stderr}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """A corpus, a set-up step, and the command the closed loop repeats."""

    threads = 1

    def __init__(self, midas, workdir, seed):
        self.midas = midas
        self.work = workdir
        self.corpus_dir = workdir / "corpus"
        self.seed = seed
        self.facts = self.corpus_dir / "facts.tsv"
        self.kb = self.corpus_dir / "kb.tsv"
        self.references = {}
        self._corpus = None

    def io_args(self):
        return ["--facts", str(self.facts), "--kb", str(self.kb)]

    def oracle(self):
        if self._corpus is None:
            self._corpus = checker.Corpus.load(self.facts, self.kb)
        return self._corpus

    def verify(self, key, text, check):
        """Checks one output: the first output of each command goes to the
        independent checker and becomes that command's reference; later
        outputs must match the reference once masked."""
        masked = checker.mask(text, self.cache_dirs())
        if key in self.references:
            if masked != self.references[key]:
                raise Failure(f"{key}: output differs from the reference")
            return
        errors = check(text)
        if errors:
            raise Failure(f"{key}: independent checker: " + "; ".join(errors[:5]))
        self.references[key] = masked

    def cache_dirs(self):
        return [self.work / f"cache{r}" for r in range(SETUP_REPS)]

    def replay_args(self, rep, cache):
        """The arguments of invocation `rep`, with the snapshot cache (for
        the workloads that use one) in `cache_dirs()[cache]`; the traced
        pass gives them to both midas-trace and the real binary."""
        raise NotImplementedError

    def prime_command(self, rep):
        """Fills a fresh snapshot cache: a snapshot-miss `augment` run of
        zero rounds, which parses both TSVs, builds the round-0 fact tables
        and writes the snapshot."""
        return [self.midas, "augment", "--rounds", "0", "--threads", "1",
                "--snapshot-cache", str(self.cache_dirs()[rep])] + self.io_args()

    def check_prime(self, s):
        if "snapshot cache write:" not in s.stdout:
            raise Failure("set-up did not write a snapshot")
        self.verify("prime", s.stdout, lambda t: checker.check_augment(t, self.oracle()))


class KvaultColdT2(Workload):
    """`discover --threads 2` on kvault at scale 4, no cache."""

    name = "kvault_cold_t2"
    threads = 2

    def make_corpus(self):
        corpus.generate(self.midas, "kvault", 4, self.seed, self.corpus_dir)

    def command(self, i, threads=None):
        return [self.midas, "discover", "--threads", str(threads or self.threads)] + self.io_args()

    def check(self, i, s):
        self.verify("discover", s.stdout,
                    lambda t: checker.check_discover(t, self.oracle(), checker.Cost()))

    def prime_command(self, rep):
        """A discarded warm-up invocation with one thread: it reads the same
        files, and its report is the reference every 2-thread report must
        match byte for byte."""
        return self.command(0, threads=1)

    def check_prime(self, s):
        self.check(0, s)

    def replay_args(self, rep, cache):
        return ["discover", "--threads", str(self.threads)] + self.io_args()

    def trace_key(self, rep):
        return "discover"


class DenseSweepT1(Workload):
    """`discover --threads 1 --snapshot-cache` over the dense lattice, with
    `--fp dense_fp(i)` on invocation i."""

    name = "dense_sweep_t1"

    def make_corpus(self):
        corpus.write_dense(self.corpus_dir, self.seed)

    def command(self, i):
        return [self.midas] + self.replay_args(i, 0)

    def check(self, i, s):
        notes = [line.split(":")[0] for line in s.stdout.splitlines()
                 if line.startswith(("snapshot cache", "slice cache"))]
        if notes != ["snapshot cache hit", "slice cache write"]:
            raise Failure(f"fp {dense_fp(i)}: expected a snapshot hit and a slice miss, "
                          f"got {notes}")
        cost = checker.Cost(fp=dense_fp(i))
        self.verify(self.trace_key(i), s.stdout,
                    lambda t: checker.check_discover(t, self.oracle(), cost))

    def replay_args(self, rep, cache):
        return ["discover", "--threads", "1", "--snapshot-cache", str(self.cache_dirs()[cache]),
                "--fp", str(dense_fp(rep))] + self.io_args()

    def trace_key(self, rep):
        return f"fp={dense_fp(rep)}"


class NellAugmentT1(Workload):
    """`augment --rounds 64 --threads 1 --snapshot-cache` on nell-slim."""

    name = "nell_augment_t1"
    ROUNDS = 64

    def make_corpus(self):
        corpus.generate(self.midas, "nell-slim", 0.1, self.seed, self.corpus_dir)

    def command(self, i):
        return [self.midas] + self.replay_args(i, 0)

    def check(self, i, s):
        if "snapshot cache hit:" not in s.stdout:
            raise Failure("augment missed the primed snapshot")
        self.verify("augment", s.stdout, lambda t: checker.check_augment(t, self.oracle()))

    def replay_args(self, rep, cache):
        return ["augment", "--rounds", str(self.ROUNDS), "--threads", "1", "--snapshot-cache",
                str(self.cache_dirs()[cache])] + self.io_args()

    def trace_key(self, rep):
        return "augment"


WORKLOADS = {w.name: w for w in (KvaultColdT2, DenseSweepT1, NellAugmentT1)}


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------

class Tally:
    """Program invocations attempted and failed, with the failures' reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def fail(self, reason):
        self.failed += 1
        self.reasons.append(reason)

    def run(self, fn):
        """Counts one invocation made by `fn`; returns its result, or None
        if it failed."""
        self.attempted += 1
        try:
            return fn()
        except Failure as e:
            self.fail(str(e))
            return None

    def check(self, fn):
        """Runs the check `fn` on an invocation already counted."""
        try:
            fn()
            return True
        except Failure as e:
            self.fail(str(e))
            return False


def closed_loop(w, seconds, tally):
    """Back-to-back invocations for `seconds`: after MIN_SAMPLES, the next
    starts only if one of typical length ends in time. Returns
    `(index, sample)` for each that exited 0."""
    done, walls = [], []
    start = time.perf_counter()
    i = 0
    while i < MIN_SAMPLES or time.perf_counter() - start + median(walls) < seconds:
        begun = time.perf_counter()
        s = tally.run(lambda i=i: Sample(w.command(i), w.work, w.threads))
        walls.append(time.perf_counter() - begun)
        if s is not None:
            done.append((i, s))
        i += 1
    return done


def median(values):
    return statistics.median(values) if values else 0.0


def traced_pass(w, tracer, untraced, tally):
    """Runs each of TRACE_REPS invocations twice: the real binary with
    `--metrics-json`, then the traced replay. Returns per-layer metrics.

    The program's counters and histograms are the real binary's; the spans
    around each layer's calls are the replay's, which is trusted only as far
    as its stdout and its own copy of the counters match the real run."""
    summaries, programs, walls, unstolen = [], [], [], []
    for rep in range(TRACE_REPS):
        key = w.trace_key(rep)
        if key not in w.references:
            tally.fail(f"traced pass: no untraced reference for {key}")
            continue
        metrics_path = w.work / f"metrics{rep}.json"
        summary_path = w.work / f"trace{rep}.json"
        spans_path = w.work / f"trace{rep}.spans.jsonl"

        def real(rep=rep):
            s = Sample([w.midas] + w.replay_args(rep, REAL_CACHE) +
                       ["--metrics-json", str(metrics_path)], w.work, w.threads)
            w.verify(key, s.stdout, None)
            return json.loads(metrics_path.read_text())

        def replay(rep=rep):
            s = Sample([tracer] + w.replay_args(rep, TRACE_CACHE) +
                       ["--summary", str(summary_path), "--spans", str(spans_path)], w.work,
                       w.threads)
            w.verify(key, s.stdout, None)
            return s
        program = tally.run(real)
        s = tally.run(replay)
        if program is None or s is None:
            continue
        t = json.loads(summary_path.read_text())
        reconcile(w, t, program, tally)
        summaries.append(t)
        programs.append(program)
        walls.append(s.wall)
        unstolen.append(s.unstolen)
        keep = ROOT / ".bench_work" / "traces"
        keep.mkdir(parents=True, exist_ok=True)
        shutil.copy(spans_path, keep / f"{w.name}-seed{w.seed}-{rep}.spans.jsonl")
        shutil.copy(summary_path, keep / f"{w.name}-seed{w.seed}-{rep}.json")
        shutil.copy(metrics_path, keep / f"{w.name}-seed{w.seed}-{rep}.metrics.json")
    if not summaries:
        return {}

    def med(fn):
        return median([fn(t) for t in summaries])

    def sec(name):
        return med(lambda t: t.get(f"span.{name}.total_ns", 0) / 1e9)

    def last(key):
        return summaries[-1].get(key, 0)

    def counter(name):
        return programs[-1]["counters"].get(name, 0)

    def hist_s(name):
        return median([p["histograms"].get(name, {}).get("sum", 0) / 1e9 for p in programs])

    kernels = [k for k in programs[-1]["counters"] if k.startswith("kernel.")
               and not k.startswith("kernel.dispatch.")]
    evaluated = counter("hierarchy.nodes_evaluated")
    pruned = counter("hierarchy.nodes_pruned")
    hits, misses = counter("snapshot_cache.hits"), counter("snapshot_cache.misses")
    warm_reused, warm_detects = last("warm.reused_tasks"), last("warm.detect_calls")
    parsed = sec("facts_io.read_facts") > 0
    untraced_wall = median([s.unstolen for s in untraced])
    traced_wall = median(unstolen)
    return {
        "facts_io.busy_s": (sec("facts_io.read_facts") + sec("facts_io.read_kb"), "s"),
        "facts_io.facts": (last("corpus.facts") + last("corpus.kb_triples") if parsed else 0,
                           "count"),
        "kb.symbols": (last("kb.symbols"), "count"),
        "kb.facts_inserted": (last("kb.facts_inserted"), "count"),
        "snapshot_cache.load_s": (sec("snapshot_cache.load"), "s"),
        "snapshot_cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0, "ratio"),
        "snapshot_cache.store_s": (sec("snapshot_cache.store"), "s"),
        "fact_table.build_s": (sec("fact_table.build"), "s"),
        "fact_table.tables": (last("calls.leaf_detects") + last("tables.mapped"), "count"),
        "hierarchy.build_s": (sec("hierarchy.build"), "s"),
        "hierarchy.nodes_evaluated": (evaluated, "count"),
        "hierarchy.nodes_pruned": (pruned, "count"),
        "hierarchy.prune_ratio": (pruned / evaluated if evaluated else 0, "ratio"),
        "extent.kernel_calls": (sum(counter(k) for k in kernels if k.endswith(".calls")),
                                "count"),
        "extent.kernel_words": (sum(counter(k) for k in kernels if k.endswith(".words")),
                                "count"),
        "traversal.busy_s": (sec("traversal"), "s"),
        "traversal.selected": (last("traversal.selected"), "count"),
        "framework.run_s": (sec("framework.run") + sec("incremental.suggest_cold")
                            + sec("incremental.suggest_warm"), "s"),
        "framework.detect_s": (hist_s("framework.phase.detect_ns"), "s"),
        "framework.shard_s": (hist_s("framework.phase.shard_ns"), "s"),
        "framework.consolidate_s": (hist_s("framework.phase.consolidate_ns"), "s"),
        "framework.detect_calls": (counter("framework.detect_calls"), "count"),
        "framework.tasks_reused": (counter("framework.tasks_reused"), "count"),
        "parallel.tasks": (counter("pool.tasks"), "count"),
        "parallel.wait_s": (hist_s("pool.task.wait_ns"), "s-sampled"),
        "parallel.exec_s": (hist_s("pool.task.exec_ns"), "s-sampled"),
        "process.sys_s": (median([s.sys for s in untraced]), "s"),
        "process.ctx_switches": (median([s.ctx for s in untraced]), "count"),
        "incremental.suggest_cold_s": (sec("incremental.suggest_cold"), "s"),
        "incremental.suggest_warm_s": (sec("incremental.suggest_warm"), "s"),
        "incremental.accept_s": (sec("incremental.accept"), "s"),
        "incremental.reuse_ratio": (
            warm_reused / (warm_reused + warm_detects) if warm_reused + warm_detects else 0,
            "ratio"),
        "incremental.hierarchies_reused": (counter("framework.hierarchies_warm_reused"),
                                           "count"),
        "checkpoint.save_s": (sec("checkpoint.save"), "s"),
        "checkpoint.bytes": (last("checkpoint.bytes"), "bytes"),
        "traced.residual_frac": (
            median([1 - t["spans.top_level_ns"] / 1e9 / wall
                    for t, wall in zip(summaries, walls)]), "ratio"),
        "traced.overhead_frac": (traced_wall / untraced_wall - 1 if untraced_wall else 0, "ratio"),
    }


def reconcile(w, t, program, tally):
    """The traced pass checks itself: the replay's counters must be the
    real binary's, and its own call counts must agree with them."""
    problems = []
    for name, value in sorted(program["counters"].items()):
        if name.startswith(NOT_REPLAYED):
            continue
        ours = t.get(f"counter.{name}", 0)
        slack = BATCH_SLACK * (w.threads + 1) if name.startswith(BATCHED) else 0
        if abs(ours - value) > slack:
            problems.append(f"replay counted {name} = {ours:.0f}, the program {value}")
    detects = program["counters"].get("framework.detect_calls", 0)
    if "rounds" not in t:  # discover
        ours = t["calls.leaf_detects"] + t["calls.seeded_detects"] + t["calls.table_detects"]
        if ours != detects:
            problems.append(f"replay made {ours:.0f} detect calls, "
                            f"framework.detect_calls is {detects}")
        tables = t["calls.leaf_detects"] + t["tables.mapped"]
        if tables != t["corpus.pages"]:
            problems.append(f"{tables:.0f} fact tables for {t['corpus.pages']:.0f} pages")
    if problems:
        tally.fail("traced pass: " + "; ".join(problems[:5]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="a workload, or `all` to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if args.workload == "all":
        # One process per workload: the peak-RSS measurement needs this
        # process to stay small (see `run`).
        return max(subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)]).returncode
                   for name in sorted(WORKLOADS))
    midas, tracer = build()
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return run(args, WORKLOADS[args.workload](midas, workdir, args.seed), tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, w, tracer):
    tally = Tally()
    w.make_corpus()
    stats = corpus.stats(w.corpus_dir)
    print(f"workload {w.name} seed {args.seed}: corpus facts={stats['facts']} "
          f"pages={stats['pages']} kb_triples={stats['kb_triples']} bytes={stats['bytes']}")

    primed = []
    for r in range(SETUP_REPS):
        primed.append(tally.run(lambda r=r: Sample(w.prime_command(r), w.work)))
    # Flush what corpus generation and set-up wrote (and any earlier run
    # left dirty), so the kernel's writeback does not land on the
    # program's own fsyncs inside the timed loop.
    os.sync()
    looped = closed_loop(w, args.seconds, tally) if all(primed) else []
    # A child's ru_maxrss starts from the size of the process that forked
    # it, so every check (and the checker's corpus) waits until after the
    # loop, while this process is still small.
    own_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [s for s in primed if s and tally.check(lambda s=s: w.check_prime(s))]
    samples = [s for i, s in looped if tally.check(lambda i=i, s=s: w.check(i, s))]
    if any(s.rss_mib <= own_mib for s in samples):
        tally.fail(f"peak RSS unmeasurable: the benchmark itself reached {own_mib:.0f} MiB")
    layers = {}
    if args.trace and samples:
        layers = traced_pass(w, tracer, samples, tally)
        # The kvault set-up runs are the same command with one thread.
        t2_over_t1 = median([s.unstolen for s in samples]) / median([s.unstolen for s in setups])
        layers["parallel.t2_over_t1"] = (t2_over_t1 if w.threads == 2 else 0, "ratio")

    end_to_end = {
        "wall_s": (median([s.unstolen for s in samples]), "s"),
        "cpu_s": (median([s.cpu for s in samples]), "s"),
        "peak_rss_mib": (median([s.rss_mib for s in samples]), "MiB"),
        "setup_s": (median([s.unstolen for s in setups]), "s"),
    }
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {len(samples)} timed invocations, {len(setups)} set-ups, "
          f"{tally.attempted} program runs in all")
    for label, group in (("set-up", setups), ("timed", samples)):
        print(f"  {label} wall / stolen / cpu s: " +
              ", ".join(f"{s.wall:.3f}/{s.stolen:.2f}/{s.cpu:.3f}" for s in group))
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<32} {value:>14.6f} {unit}")
    print(f"  {'failed_frac':<32} {failed_frac:>14.6f} ratio ({tally.failed} of {tally.attempted})")
    for name, (value, unit) in sorted(layers.items()):
        print(f"  {name:<32} {value:>14.6f} {unit}")
    for reason in tally.reasons[:5]:
        print(f"  FAILED: {reason}", file=sys.stderr)

    correct = tally.failed == 0
    metrics = layers if args.trace else end_to_end
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
