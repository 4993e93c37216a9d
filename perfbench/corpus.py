"""Seeded corpora for the benchmark workloads.

kvault and nell-slim come from `midas generate --seed`; the dense lattice is
written here. Every corpus is a directory holding `facts.tsv` (url, subject,
predicate, object) and `kb.tsv` (subject, predicate, object).
"""

import random
import subprocess
from pathlib import Path

# The dense lattice: 12 domains x 20 pages x 250 entities. Each entity has
# five shared low-cardinality properties and one unique serial, so every
# page builds a non-trivial slice hierarchy over a dense extent universe.
DENSE_DOMAINS = 12
DENSE_PAGES = 20
DENSE_ENTITIES = 250


def write_dense(out_dir, seed):
    """Writes the dense lattice. The seed permutes page order and the line
    order within each page; the set of facts is the same for every seed."""
    rng = random.Random(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pages = [(d, p) for d in range(DENSE_DOMAINS) for p in range(DENSE_PAGES)]
    rng.shuffle(pages)
    with open(out / "facts.tsv", "w", encoding="utf-8", newline="\n") as f:
        for d, p in pages:
            url = f"http://domain{d}.example.org/dir/page{p}.html"
            lines = []
            for e in range(DENSE_ENTITIES):
                name = f"e{d}_{p}_{e}"
                lines += [
                    f"{url}\t{name}\tkind\tvertical{d}\n",
                    f"{url}\t{name}\tsite\tdir{d}\n",
                    f"{url}\t{name}\tgroup\tg{e % 4}\n",
                    f"{url}\t{name}\tband\tb{e % 8}\n",
                    f"{url}\t{name}\ttier\tt{e % 16}\n",
                    f"{url}\t{name}\tserial\ts{d}_{p}_{e}\n",
                ]
            rng.shuffle(lines)
            f.writelines(lines)
    (out / "kb.tsv").write_text("", encoding="utf-8")


def generate(midas, dataset, scale, seed, out_dir):
    """Runs `midas generate` into `out_dir`."""
    subprocess.run(
        [midas, "generate", "--dataset", dataset, "--scale", str(scale),
         "--seed", str(seed), "--out", str(out_dir)],
        check=True, stdout=subprocess.DEVNULL)


def stats(out_dir):
    """Facts, pages, KB triples and bytes of a corpus directory."""
    out = Path(out_dir)
    facts = 0
    pages = set()
    with open(out / "facts.tsv", encoding="utf-8") as f:
        for line in f:
            if line.strip() and not line.startswith("#"):
                facts += 1
                pages.add(line.split("\t", 1)[0])
    with open(out / "kb.tsv", encoding="utf-8") as f:
        kb = sum(1 for line in f if line.strip() and not line.startswith("#"))
    size = (out / "facts.tsv").stat().st_size + (out / "kb.tsv").stat().st_size
    return {"facts": facts, "pages": len(pages), "kb_triples": kb, "bytes": size}
