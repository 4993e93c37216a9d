"""Independent checker for `midas discover` and `midas augment` reports.

It shares no code with the engine: no fact tables, extent sets or kernels.
It reads the raw (url, subject, predicate, object) tuples and the KB
triples, and recomputes every reported number from them:

* discover: for each row, the slice's entities are the subjects, among the
  facts of the pages under the row's source, that carry every (predicate,
  value) condition of the slice. From them it recomputes the entity count,
  the new/total fact counts, and the Definition 9 profit
  f(S) = (1 - fv) new - fd total - fp - fc |T_W| to the printed 3 decimals,
  where T_W is the deduplicated fact set of the source.
* augment: it replays the accepted slices into its own copy of the KB and
  checks each round's `+facts` and `kb size`, and the closing summary line.

Each check returns a list of mismatch descriptions; empty means correct.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Cost:
    """The cost model (the CLI's defaults)."""
    fp: float = 10.0
    fc: float = 0.001
    fd: float = 0.01
    fv: float = 0.1


def canonical_url(url):
    """scheme://host/seg/... with scheme and host lowercased, query and
    fragment dropped, and empty path segments removed."""
    url = url.strip()
    scheme, rest = url.split("://", 1)
    for sep in "?#":
        rest = rest.split(sep, 1)[0]
    host, _, path = rest.partition("/")
    segments = [s for s in path.split("/") if s]
    return "/".join([f"{scheme.lower()}://{host.lower()}"] + segments)


def _records(path, fields):
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n").rstrip("\r")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != fields:
                raise ValueError(f"{path}:{lineno}: expected {fields} fields")
            yield tuple(parts)


class Corpus:
    """Facts by page and the KB, as plain Python sets."""

    def __init__(self, facts, kb):
        self.pages = {}
        for url, s, p, o in facts:
            self.pages.setdefault(canonical_url(url), set()).add((s, p, o))
        self.kb = set(kb)
        self._scopes = {}

    @classmethod
    def load(cls, facts_path, kb_path):
        return cls(_records(facts_path, 4), _records(kb_path, 3))

    def scope(self, source):
        """Subject -> facts, over the deduplicated facts of every page under
        `source`, plus the total fact count |T_W|."""
        if source not in self._scopes:
            merged = set()
            for url, facts in self.pages.items():
                if url == source or url.startswith(source + "/"):
                    merged |= facts
            by_subject = {}
            for fact in merged:
                by_subject.setdefault(fact[0], []).append(fact)
            self._scopes[source] = (by_subject, len(merged))
        return self._scopes[source]

    def slice_facts(self, source, conditions):
        """The slice's entities and all their facts within `source`."""
        by_subject, _ = self.scope(source)
        wanted = set(conditions)
        entities = []
        facts = []
        for subject, rows in by_subject.items():
            if wanted <= {(p, o) for _, p, o in rows}:
                entities.append(subject)
                facts.extend(rows)
        return entities, facts

    def slice_counts(self, source, conditions):
        """(entities, new facts, total facts, |T_W|) of a slice."""
        entities, facts = self.slice_facts(source, conditions)
        new = sum(1 for f in facts if f not in self.kb)
        return len(entities), new, len(facts), self.scope(source)[1]


def profit(cost, new, total, scope_total):
    """Definition 9 for a single slice, in the engine's operation order."""
    return (1.0 - cost.fv) * new - cost.fd * total - cost.fp * 1 - cost.fc * scope_total


def parse_conditions(desc):
    """`p = v ∧ p2 = v2` -> [(p, v), (p2, v2)]; `(entire source)` -> []."""
    if desc == "(entire source)":
        return []
    out = []
    for cond in desc.split(" ∧ "):
        p, sep, v = cond.partition(" = ")
        if not sep:
            raise ValueError(f"malformed condition {cond!r}")
        out.append((p, v))
    return out


def parse_table(text):
    """Splits a rendered report into (title, headers, rows, other lines).

    Columns are located by the header line: each column starts where its
    header starts. A line after the rule is a row when its first cell is a
    number; every other line is returned in `other`."""
    lines = text.split("\n")
    if len(lines) < 3 or not lines[0].startswith("== "):
        raise ValueError("report does not start with a table")
    title = lines[0].strip("= ")
    header = lines[1]
    # Header cells are separated by two or more spaces.
    headers = [h.strip() for h in header.split("  ") if h.strip()]
    starts = []
    pos = 0
    for name in headers:
        pos = header.index(name, pos)
        starts.append(pos)
        pos += len(name)
    rows, other = [], []
    for line in lines[3:]:
        first = line[:starts[1]].strip() if len(starts) > 1 else line.strip()
        if first.isdigit():
            rows.append([line[a:b].strip() for a, b in zip(starts, starts[1:] + [None])])
        else:
            other.append(line)
    return title, headers, rows, other


DISCOVER_HEADERS = ["#", "slice", "source", "pattern", "entities", "new/total", "profit"]
AUGMENT_HEADERS = ["round", "accepted slice", "source", "+facts", "kb size",
                   "suggest ms", "detects", "reused"]


def check_discover(text, corpus, cost):
    """Mismatches between a discover report and the recomputed numbers."""
    errors = []
    try:
        _, headers, rows, _ = parse_table(text)
    except ValueError as e:
        return [str(e)]
    if headers != DISCOVER_HEADERS:
        return [f"unexpected columns {headers}"]
    if not rows:
        return ["no slices reported"]
    last_profit = None
    for i, row in enumerate(rows, 1):
        rank, desc, source, _, entities, new_total, printed = row
        where = f"row {rank}"
        if rank != str(i):
            errors.append(f"{where}: expected rank {i}")
        try:
            conditions = parse_conditions(desc)
            new, total = (int(x) for x in new_total.split("/"))
            want = float(printed)
        except ValueError as e:
            errors.append(f"{where}: unparsable row ({e})")
            continue
        n_ent, n_new, n_total, scope_total = corpus.slice_counts(source, conditions)
        if str(n_ent) != entities:
            errors.append(f"{where}: {entities} entities printed, {n_ent} recomputed")
        if (n_new, n_total) != (new, total):
            errors.append(f"{where}: {new_total} printed, {n_new}/{n_total} recomputed")
        f = profit(cost, n_new, n_total, scope_total)
        if f"{f:.3f}" != printed:
            errors.append(f"{where}: profit {printed} printed, {f:.3f} recomputed")
        if last_profit is not None and want > last_profit:
            errors.append(f"{where}: profit above the previous row's")
        last_profit = want
    return errors


def check_augment(text, corpus):
    """Mismatches between an augment report and a replay of its accepts."""
    errors = []
    try:
        _, headers, rows, other = parse_table(text)
    except ValueError as e:
        return [str(e)]
    if headers != AUGMENT_HEADERS:
        return [f"unexpected columns {headers}"]
    kb = set(corpus.kb)
    initial = len(kb)
    accepted = 0
    for i, row in enumerate(rows, 1):
        rnd, desc, source, added, kb_size = row[:5]
        where = f"round {rnd}"
        if rnd != str(i):
            errors.append(f"{where}: expected round {i}")
        if desc == "(saturated)":
            if added != "-" or i != len(rows):
                errors.append(f"{where}: saturated row must be last and add nothing")
        else:
            try:
                conditions = parse_conditions(desc)
            except ValueError as e:
                errors.append(f"{where}: {e}")
                continue
            _, facts = corpus.slice_facts(source, conditions)
            inserted = set(facts) - kb
            kb |= inserted
            accepted += 1
            if added != str(len(inserted)):
                errors.append(f"{where}: +{added} printed, +{len(inserted)} replayed")
        if kb_size != str(len(kb)):
            errors.append(f"{where}: kb size {kb_size} printed, {len(kb)} replayed")
    summary = (f"accepted {accepted} slices over {len(rows)} rounds; "
               f"knowledge base grew {initial} -> {len(kb)} facts")
    if summary not in other:
        errors.append(f"summary line missing or wrong (expected {summary!r})")
    return errors


def mask(text, cache_dirs=()):
    """The report with what legitimately differs between two runs of the
    same command masked: cache directory paths in notes, and the wall-clock
    `suggest ms` column of an augment table (whose width also shifts the
    padding of the columns after it)."""
    for d in cache_dirs:
        text = text.replace(str(d).rstrip("/") + "/", "<cache>/")
    try:
        title, headers, rows, other = parse_table(text)
    except ValueError:
        return text
    if "suggest ms" in headers:
        at = headers.index("suggest ms")
        rows = [r[:at] + ["*"] + r[at + 1:] for r in rows]
    return "\n".join([title, "\t".join(headers)] + ["\t".join(r) for r in rows] + other)
