"""Tests for the benchmark's own parts: the independent checker, the dense
corpus writer, the dense sweep's cost values, the traced pass's
reconciliation with the real binary and the pinning of 1-thread
invocations.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import sys
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

import checker
import corpus
import run

# Figure 2 of the paper: (subject, predicate, object, new?, page).
SITE = "http://space.skyrocket.de"
FIGURE_2 = [
    ("Project Mercury", "category", "space_program", False, "doc_sat/mercury-history.htm"),
    ("Project Mercury", "started", "1959", False, "doc_sat/mercury-history.htm"),
    ("Project Mercury", "sponsor", "NASA", False, "doc_sat/mercury-history.htm"),
    ("Project Gemini", "category", "space_program", False, "doc_sat/gemini-history.htm"),
    ("Project Gemini", "sponsor", "NASA", False, "doc_sat/gemini-history.htm"),
    ("Atlas", "category", "rocket_family", True, "doc_lau_fam/atlas.htm"),
    ("Atlas", "sponsor", "NASA", True, "doc_lau_fam/atlas.htm"),
    ("Atlas", "started", "1957", True, "doc_lau_fam/atlas.htm"),
    ("Apollo program", "category", "space_program", False, "doc_sat/apollo-history.htm"),
    ("Apollo program", "sponsor", "NASA", False, "doc_sat/apollo-history.htm"),
    ("Castor-4", "category", "rocket_family", True, "doc_lau_fam/castor-4.htm"),
    ("Castor-4", "started", "1971", True, "doc_lau_fam/castor-4.htm"),
    ("Castor-4", "sponsor", "NASA", True, "doc_lau_fam/castor-4.htm"),
]
S2 = [("category", "rocket_family"), ("started", "1957"), ("sponsor", "NASA")]
S3 = [("category", "rocket_family"), ("started", "1971"), ("sponsor", "NASA")]
S4 = [("category", "space_program"), ("sponsor", "NASA")]
S5 = [("category", "rocket_family"), ("sponsor", "NASA")]
RUNNING_EXAMPLE = checker.Cost(fp=1.0)


def skyrocket():
    facts = [(f"{SITE}/{page}", s, p, o) for s, p, o, _, page in FIGURE_2]
    kb = [(s, p, o) for s, p, o, new, _ in FIGURE_2 if not new]
    return checker.Corpus(facts, kb)


def render(title, headers, rows):
    """A table laid out as the CLI lays it out."""
    widths = [max(len(str(r[i])) for r in [headers] + rows) for i in range(len(headers))]

    def line(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths)).rstrip()
    return "\n".join([f"== {title} ==", line(headers), "-" * (sum(widths) + 2 * len(widths) - 2)]
                     + [line(r) for r in rows]) + "\n"


def discover_report(rows):
    return render("Discovered web source slices", checker.DISCOVER_HEADERS, rows)


def augment_report(rows, summary):
    return render("Augmentation rounds", checker.AUGMENT_HEADERS, rows) + f"\n{summary}\n"


def desc(conditions):
    return " ∧ ".join(f"{p} = {v}" for p, v in conditions)


class FigureFive(unittest.TestCase):
    def profit(self, conditions):
        c = skyrocket()
        _, new, total, scope = c.slice_counts(SITE, conditions)
        return f"{checker.profit(RUNNING_EXAMPLE, new, total, scope):.3f}"

    def test_profits_match_figure_5(self):
        self.assertEqual(self.profit(S5), "4.327")
        self.assertEqual(self.profit(S2), "1.657")
        self.assertEqual(self.profit(S3), "1.657")
        self.assertEqual(self.profit(S4), "-1.083")

    def test_report_of_figure_5_slices_passes(self):
        text = discover_report([
            [1, desc(S5), SITE, "-", 2, "6/6", "4.327"],
            [2, desc(S2), SITE, "-", 1, "3/3", "1.657"],
            [3, desc(S3), SITE, "-", 1, "3/3", "1.657"],
            [4, desc(S4), SITE, "-", 3, "0/7", "-1.083"],
        ])
        self.assertEqual(checker.check_discover(text, skyrocket(), RUNNING_EXAMPLE), [])


class RejectsAlteredRows(unittest.TestCase):
    GOOD = [1, desc(S5), SITE, "-", 2, "6/6", "4.327"]

    def check(self, row):
        return checker.check_discover(discover_report([row]), skyrocket(), RUNNING_EXAMPLE)

    def test_unaltered_row_passes(self):
        self.assertEqual(self.check(self.GOOD), [])

    def test_each_altered_count_is_rejected(self):
        for column, value in [(4, 3), (5, "5/6"), (5, "6/7"), (6, "4.328")]:
            row = list(self.GOOD)
            row[column] = value
            with self.subTest(column=checker.DISCOVER_HEADERS[column], value=value):
                self.assertNotEqual(self.check(row), [])

    def test_augment_replay(self):
        summary = "accepted 1 slices over 2 rounds; knowledge base grew 7 -> 13 facts"
        rows = [[1, desc(S5), SITE, 6, 13, "0.3", 5, 0],
                [2, "(saturated)", "-", "-", 13, "0.1", 1, 4]]
        self.assertEqual(checker.check_augment(augment_report(rows, summary), skyrocket()), [])
        rows[0][3] = 5
        self.assertNotEqual(checker.check_augment(augment_report(rows, summary), skyrocket()), [])

    def test_mask_hides_only_the_timing_column(self):
        summary = "accepted 0 slices over 1 rounds; knowledge base grew 7 -> 7 facts"
        a = augment_report([[1, "(saturated)", "-", "-", 7, "0.3", 5, 0]], summary)
        b = augment_report([[1, "(saturated)", "-", "-", 7, "120.25", 5, 0]], summary)
        c = augment_report([[1, "(saturated)", "-", "-", 7, "0.3", 4, 0]], summary)
        self.assertEqual(checker.mask(a), checker.mask(b))
        self.assertNotEqual(checker.mask(a), checker.mask(c))


class DenseWriter(unittest.TestCase):
    def write(self, root, name, seed):
        corpus.write_dense(Path(root) / name, seed)
        return (Path(root) / name / "facts.tsv").read_bytes()

    def test_byte_identical_per_seed_and_permuted_across_seeds(self):
        with tempfile.TemporaryDirectory() as root:
            first = self.write(root, "a", 7)
            self.assertEqual(first, self.write(root, "b", 7))
            other = self.write(root, "c", 8)
            self.assertNotEqual(first, other)
            self.assertEqual(sorted(first.splitlines()), sorted(other.splitlines()))
            stats = corpus.stats(Path(root) / "a")
            self.assertEqual(stats["facts"], 12 * 20 * 250 * 6)
            self.assertEqual(stats["pages"], 12 * 20)
            self.assertEqual(stats["kb_triples"], 0)


class DenseSweep(unittest.TestCase):
    def test_every_invocation_misses_the_slice_cache_at_the_same_cost(self):
        args = [str(run.dense_fp(i)) for i in range(100_000)]
        self.assertEqual(len(set(args)), len(args))
        self.assertEqual(len({float(a) for a in args}), len(args))
        self.assertEqual(args[0], "1.0")
        self.assertLess(float(args[-1]) - 1.0, 0.11)


class Reconcile(unittest.TestCase):
    PROGRAM = {"counters": {
        "eval.runs": 1,
        "framework.detect_calls": 264,
        "hierarchy.nodes_evaluated": 2_001_080,
        "kernel.and_assign.calls": 386_295,
        "kernel.dispatch.avx2": 1,
        "pool.tasks": 2_001_696,
    }}

    def replay(self, **changed):
        t = {f"counter.{k}": v for k, v in self.PROGRAM["counters"].items()
             if not k.startswith(run.NOT_REPLAYED)}
        t.update({"calls.leaf_detects": 0, "calls.seeded_detects": 0, "calls.table_detects": 264,
                  "tables.mapped": 240, "corpus.pages": 240})
        t.update({f"counter.{k}": v for k, v in changed.items()})
        return t

    def failures(self, t, threads=1):
        tally = run.Tally()
        run.reconcile(SimpleNamespace(threads=threads), t, self.PROGRAM, tally)
        return tally.reasons

    def test_matching_replay_passes(self):
        self.assertEqual(self.failures(self.replay()), [])

    def test_exact_counter_off_by_one_fails(self):
        for name in ("framework.detect_calls", "pool.tasks"):
            with self.subTest(name=name):
                t = self.replay(**{name: self.PROGRAM["counters"][name] + 1})
                self.assertEqual(len(self.failures(t)), 1)

    def test_batched_counter_within_flush_slack_passes(self):
        t = self.replay(**{"kernel.and_assign.calls": 386_295 - 2 * run.BATCH_SLACK})
        self.assertEqual(self.failures(t, threads=1), [])
        t = self.replay(**{"hierarchy.nodes_evaluated": 2_001_080 + 2 * run.BATCH_SLACK + 1})
        self.assertEqual(len(self.failures(t, threads=1)), 1)

    def test_missing_replay_counter_fails(self):
        t = self.replay()
        del t["counter.pool.tasks"]
        self.assertEqual(len(self.failures(t)), 1)

    def test_detector_calls_and_tables_are_checked(self):
        t = self.replay()
        t["calls.table_detects"] = 263
        self.assertEqual(len(self.failures(t)), 1)
        t = self.replay()
        t["tables.mapped"] = 239
        self.assertEqual(len(self.failures(t)), 1)


class Pinning(unittest.TestCase):
    SHOW_CPUS = [sys.executable, "-c", "import os; print(sorted(os.sched_getaffinity(0)))"]

    def cpus_of(self, threads):
        with tempfile.TemporaryDirectory() as d:
            return run.Sample(self.SHOW_CPUS, Path(d), threads).stdout.strip()

    def test_one_thread_runs_on_the_pinned_vcpu_alone(self):
        expected = run.CPUS if run.PIN_CPU is None else [run.PIN_CPU]
        self.assertEqual(self.cpus_of(1), str(expected))

    def test_more_threads_run_unpinned(self):
        self.assertEqual(self.cpus_of(2), str(run.CPUS))

    def test_one_vcpu_steal_is_part_of_the_sum(self):
        one = run.stolen_s(run.PIN_CPU)
        self.assertGreaterEqual(one, 0.0)
        self.assertLessEqual(one, run.stolen_s())


if __name__ == "__main__":
    unittest.main()
