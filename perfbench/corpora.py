"""Seeded corpus generators for the benchmark workloads.

The generators depend on numpy only and write the canonical corpus layout
(``corpus.json`` plus per-poem text, scansion and compound files) themselves,
so the inputs a workload feeds the program do not change when the program's
own corpus code changes.

* ``epic_corpus(seed, scale)`` builds the criterion-8 corpus (epic-a with
  parts A/B, epic-b, unscanned saga) at ``scale`` times its 10,000 lines.  At
  seed 0 and scale 1 it is file-for-file the corpus the acceptance test
  builds.
* ``many_corpus(seed)`` builds 12 scanned 1000-line poems sharing a
  compound inventory whose tokens are spread over the poems by seeded
  weights, half even and half Dirichlet.

A poem is plain data: ``{"id", "lines", "parts"}`` where each line is
``(a_text, b_text, a_pattern, b_pattern, compounds)`` and each part is
``(name, first, last)``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

HALF_LABELS = ("A", "B", "C", "D", "E")
SKEW_PROBS = [0.3, 0.25, 0.2, 0.15, 0.1]
WORD_POOLS = {
    "epic-a": "hwstgearmdnilofu",
    "epic-b": "hwstgearmdnilobc",
    "saga": "xzyquckfjvpwtrgh",
}
ALPHABET = "abcdefghijklmnopqrstuvwxyz"
# (multiplicity, number of types) of the shared compound inventory
MANY_INVENTORY = ((1, 2300), (2, 1200), (3, 400), (5, 200))
_MASK64 = (1 << 64) - 1


def _generator(seed: int, stream: int) -> np.random.Generator:
    """Philox keyed by (seed, stream), the program's own RNG construction."""
    return np.random.Generator(np.random.Philox(key=[seed & _MASK64,
                                                     stream & _MASK64]))


def _epic_poem(poem_id, n, seed, scanned, parts=None):
    gen = _generator(seed, 5)
    pool = WORD_POOLS[poem_id]
    a_labels = gen.choice(5, size=n, p=SKEW_PROBS) if scanned else None
    b_labels = gen.choice(5, size=n, p=SKEW_PROBS) if scanned else None
    lines = []
    for i in range(1, n + 1):
        words = []
        for _ in range(6):
            length = int(gen.integers(3, 8))
            start = int(gen.integers(0, len(pool) - length))
            words.append(pool[start:start + length])
        a = " ".join(words[:3])
        b = " ".join(words[3:])
        if gen.random() < 0.3:
            a += ","
        if gen.random() < 0.15:
            a += ";"
        if gen.random() < 0.8:
            b += "."
        compounds = []
        if i % 11 == 0:
            compounds.append(f"{poem_id}hapax{i}")
        if i % 250 == 0:
            compounds.append("sharedlemma")
        lines.append((a, b,
                      HALF_LABELS[a_labels[i - 1]] if scanned else None,
                      HALF_LABELS[b_labels[i - 1]] if scanned else None,
                      compounds))
    return {"id": poem_id, "lines": lines, "parts": parts or [(poem_id, 1, n)]}


def epic_corpus(seed: int, scale: int = 1) -> list[dict]:
    """Criterion-8 corpus with every poem ``scale`` times as long."""
    a, b, s = 4000 * scale, 3500 * scale, 2500 * scale
    base = 11 + 3 * seed
    return [
        _epic_poem("epic-a", a, base, True,
                   parts=[("A", 1, a // 2), ("B", a // 2 + 1, a)]),
        _epic_poem("epic-b", b, base + 1, True),
        _epic_poem("saga", s, base + 2, False),
    ]


def many_corpus(seed: int, poems: int = 12, lines: int = 1000) -> list[dict]:
    """Many scanned poems with a compound-rich shared inventory.

    Each poem has its own word pool, punctuation rates and half-line label
    probabilities.  Every token of every compound type is placed in a poem
    drawn from poem weights (half even, half Dirichlet) and on a uniform
    line of that poem.
    """
    gen = _generator(seed, 24)
    ids = [f"poem-{p:02d}" for p in range(poems)]
    compounds = {pid: [[] for _ in range(lines)] for pid in ids}
    # half of the mass is spread evenly, so every poem keeps some hapaxes
    weights = 0.5 / poems + 0.5 * gen.dirichlet(np.full(poems, 2.0))
    for m, types in MANY_INVENTORY:
        owners = gen.choice(poems, size=(types, m), p=weights)
        where = gen.integers(0, lines, size=(types, m))
        for t in range(types):
            for j in range(m):
                compounds[ids[owners[t, j]]][where[t, j]].append(
                    f"cmp{m}x{t:04d}")
    result = []
    for pid in ids:
        pool = "".join(gen.permutation(list(ALPHABET))[:16])
        comma, semi, stop = gen.uniform((0.2, 0.05, 0.6), (0.4, 0.25, 0.9))
        probs = gen.dirichlet(np.array(SKEW_PROBS) * 40, size=2)
        labels = [gen.choice(5, size=lines, p=p) for p in probs]
        lengths = gen.integers(3, 8, size=(lines, 6))
        starts = gen.integers(0, len(pool) - lengths)
        marks = gen.random((lines, 3)) < (comma, semi, stop)
        poem_lines = []
        for i in range(lines):
            words = [pool[s:s + n] for s, n in zip(starts[i], lengths[i])]
            a = " ".join(words[:3]) + ("," if marks[i, 0] else "")
            a += ";" if marks[i, 1] else ""
            b = " ".join(words[3:]) + ("." if marks[i, 2] else "")
            poem_lines.append((a, b, HALF_LABELS[labels[0][i]],
                               HALF_LABELS[labels[1][i]], compounds[pid][i]))
        result.append({"id": pid, "lines": poem_lines,
                       "parts": [(pid, 1, lines)]})
    return result


def write_corpus(poems: list[dict], root: Path) -> None:
    """Write ``poems`` in the canonical corpus layout under ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    manifest = {"poems": []}
    for poem in poems:
        pid, lines = poem["id"], poem["lines"]
        text_name = f"{pid}.txt"
        (root / text_name).write_text(
            "".join(f"{a}\t{b}\n" for a, b, *_ in lines), encoding="utf-8")
        scansion_rows = [f"{i}\t{ap or '-'}\t{bp or '-'}\n"
                         for i, (_, _, ap, bp, _) in enumerate(lines, 1)
                         if ap or bp]
        scansion_name = f"{pid}.scansion.tsv" if scansion_rows else None
        if scansion_rows:
            (root / scansion_name).write_text(
                "line\ta\tb\n" + "".join(scansion_rows), encoding="utf-8")
        compound_rows = [f"{i}\t{lemma}\n"
                         for i, (*_, lemmas) in enumerate(lines, 1)
                         for lemma in lemmas]
        compounds_name = f"{pid}.compounds.tsv" if compound_rows else None
        if compound_rows:
            (root / compounds_name).write_text(
                "line\tlemma\n" + "".join(compound_rows), encoding="utf-8")
        manifest["poems"].append({
            "id": pid, "text": text_name, "scansion": scansion_name,
            "compounds": compounds_name,
            "parts": [{"name": name, "first": first, "last": last}
                      for name, first, last in poem["parts"]],
        })
    (root / "corpus.json").write_text(
        json.dumps(manifest, ensure_ascii=False, indent=1) + "\n",
        encoding="utf-8")
