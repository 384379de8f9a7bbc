"""Builders for synthetic poems and on-disk corpora used across test modules."""

import hashlib
import json
import math
import os
import subprocess
import sys
import unicodedata
from collections import Counter
from pathlib import Path

import numpy as np

from versemetry.cli import dispatch
from versemetry.corpus import (PUNCTUATION_GLYPHS, Corpus, PartRange, Poem, VerseLine,
                               normalize_text, rolling_windows)
from versemetry.errors import AnalysisError
from versemetry.lexicon import PairScore, _null_shared_counts
from versemetry.metre import FULL_LABELS, HALF_LABELS, Granularity, PairingLog
from versemetry.ngramcluster import (
    Dendrogram,
    DistanceMatrix,
    ProfileMatrix,
    SweepCell,
    SweepResult,
    agglomerative_complete,
    build_profiles,
    cosine_distance_matrix,
    top_two_assignment,
    window_id,
)
from versemetry.stats import RngStream, student_t_p


def build_poem(poem_id="p", n=10, parts=None, pattern_fn=None, text_fn=None,
               compounds=None):
    """Construct a Poem in memory.

    ``pattern_fn(index) -> (a, b)`` supplies scansion labels, ``text_fn(index)
    -> (a_text, b_text)`` the half-line texts, ``compounds`` a mapping of line
    index to lemma tuple.
    """
    compounds = compounds or {}
    lines = []
    for i in range(1, n + 1):
        a_text, b_text = text_fn(i) if text_fn else (f"a verse {i}", f"b verse {i}")
        a_pat, b_pat = pattern_fn(i) if pattern_fn else (None, None)
        lines.append(VerseLine(
            index=i, a_text=a_text, b_text=b_text,
            a_pattern=a_pat, b_pattern=b_pat,
            compounds=tuple(compounds.get(i, ())),
        ))
    if parts is None:
        parts = (PartRange(poem_id, 1, n),)
    return Poem(id=poem_id, lines=tuple(lines), parts=tuple(parts))


def build_corpus(*poems):
    return Corpus(poems=tuple(poems))


def write_manifest(root, poem_entries):
    (root / "corpus.json").write_text(
        json.dumps({"poems": poem_entries}), encoding="utf-8")


def iid_scansion_poem(poem_id, n, probs, seed=0, stream=0, probs_b=None):
    """Poem whose half-line labels are i.i.d. draws over HALF_LABELS.

    ``probs`` drives the a-half; the b-half uses ``probs_b`` (defaults to the
    same distribution), drawn independently.
    """
    gen = RngStream(seed, stream).generator()
    a = gen.choice(len(HALF_LABELS), size=n, p=probs)
    b = gen.choice(len(HALF_LABELS), size=n, p=probs_b if probs_b is not None else probs)
    return build_poem(
        poem_id, n,
        pattern_fn=lambda i: (HALF_LABELS[a[i - 1]], HALF_LABELS[b[i - 1]]),
    )


def drift_scansion_poem(poem_id, n, start=0.30, end=0.10):
    """Poem where the density of half-line label "A" drifts linearly.

    Occurrences of "A" are placed deterministically at the quantiles of the
    drifting density (no sampling noise); the remaining half-lines cycle
    through B-E so non-A mass also shifts smoothly.
    """
    units = 2 * n
    midpoints = (np.arange(units) + 0.5) / units
    density = start - (start - end) * midpoints
    cumulative = np.cumsum(density)
    hits = set(np.searchsorted(cumulative, np.arange(1, int(cumulative[-1]) + 1)))
    labels = [
        "A" if u in hits else HALF_LABELS[1 + u % 4]
        for u in range(units)
    ]
    return build_poem(
        poem_id, n,
        pattern_fn=lambda i: (labels[2 * (i - 1)], labels[2 * (i - 1) + 1]),
    )


def pool_text_poem(poem_id, n, pool_fn, seed=0, words_per_half=3, parts=None):
    """Poem whose line texts are random words over per-line letter pools.

    ``pool_fn(index) -> str`` picks the alphabet for each line, so disjoint
    pools produce windows with (nearly) disjoint n-gram inventories while the
    seeded generator keeps lines from repeating verbatim.
    """
    gen = RngStream(seed, 77).generator()

    def half(pool):
        words = []
        for _ in range(words_per_half):
            length = int(gen.integers(3, 8))
            words.append("".join(
                pool[int(i)] for i in gen.integers(0, len(pool), size=length)))
        return " ".join(words)

    texts = {}
    for i in range(1, n + 1):
        pool = pool_fn(i)
        texts[i] = (half(pool), half(pool))
    return build_poem(poem_id, n, parts=parts, text_fn=lambda i: texts[i])


def null_allocated_compound_corpus(multiplicities, weights, seed, stream=0):
    """Corpus whose compound annotations are drawn from the reallocation null.

    Each type's occurrences are assigned to poems by a multinomial draw with
    the given poem weights, all types in one call; tokens land on line 1
    (line placement does not affect shared-compound scoring).  Poem ids are
    p0, p1, ...
    """
    gen = RngStream(seed, stream).generator()
    counts = gen.multinomial(np.asarray(multiplicities), weights)
    types = [f"c{t:04d}" for t in range(len(multiplicities))]
    poems = [
        build_poem(f"p{p}", 2, compounds={1: tuple(
            lemma for lemma, c in zip(types, column.tolist())
            for _ in range(c))})
        for p, column in enumerate(counts.T)
    ]
    return build_corpus(*poems)


def per_type_null_allocated_compound_corpus(multiplicities, weights, seed,
                                            stream=0):
    """Reference for ``null_allocated_compound_corpus``: one multinomial
    draw per type."""
    gen = RngStream(seed, stream).generator()
    per_poem = [[] for _ in weights]
    for t, m in enumerate(multiplicities):
        counts = gen.multinomial(m, weights)
        for p, c in enumerate(counts):
            per_poem[p].extend([f"c{t:04d}"] * c)
    poems = [
        build_poem(f"p{p}", 2, compounds={1: tuple(lemmas)})
        for p, lemmas in enumerate(per_poem)
    ]
    return build_corpus(*poems)


def multinomial_null_shared_counts(multiplicities, weights, N, rng):
    """Reference shared-compound null: one multinomial draw per type.

    The kernel ``lexicon._null_shared_counts`` replaced.  Types are grouped
    by multiplicity and every group, single-occurrence types included, takes
    an (N, c) multinomial draw; presence counts come from an int64 einsum.
    Returns the (N, P(P-1)/2) shared-type counts in ``np.triu_indices(P, 1)``
    order, as the kernel does.
    """
    P = weights.size
    shared = np.zeros((N, P, P), dtype=np.int64)
    gen = rng.generator()
    for m, c in sorted(Counter(multiplicities).items()):
        draws = gen.multinomial(m, weights, size=(N, c))
        if m >= 2:
            presence = (draws > 0).astype(np.int64)
            shared += np.einsum("ncp,ncq->npq", presence, presence)
    first, second = np.triu_indices(P, 1)
    return shared[:, first, second]


def tensor_null_shared_counts(multiplicities, weights, N, rng):
    """Reference for ``lexicon._null_shared_counts`` on the same draws.

    It returns the full (N, P, P) int64 tensor, whose entry ``[t, i, j]``
    counts the types present in both poems i and j in trial t and whose
    diagonal counts the types present in each poem.  The kernel keeps only
    the pairs above the diagonal.
    """
    P = weights.size
    shared = np.zeros((N, P, P), dtype=np.int64)
    mults = sorted(m for m in multiplicities if m >= 2)
    occurrence_type = np.repeat(np.arange(len(mults)), mults)
    cumw = np.cumsum(weights)
    cumw[-1] = 1.0
    gen = rng.generator()
    for t in range(N):
        poem = np.searchsorted(cumw, gen.random((1, occurrence_type.size)),
                               side="right")[0]
        presence = np.zeros((len(mults), P), dtype=np.int64)
        presence[occurrence_type, poem] = 1
        shared[t] = presence.T @ presence
    return shared


def by_type_shared_compound_scores(corpus, poems=None, N=1000, rng=None):
    """Reference for ``lexicon.shared_compound_scores``: a per-occurrence
    index of each lemma's (poem, line) places, and Python loops over the
    lemma types for the multiplicities and the observed shared counts.
    The null draws come from the same ``lexicon._null_shared_counts``."""
    if rng is None:
        rng = RngStream(0)
    by_type = {}
    totals = {}
    for poem in corpus.poems:
        totals[poem.id] = 0
        for ln in poem.lines:
            for lemma in ln.compounds:
                by_type.setdefault(lemma, []).append((poem.id, ln.index))
                totals[poem.id] += 1
    ids = list(poems) if poems is not None else [p.id for p in corpus.poems]
    kept = [pid for pid in ids if totals[pid]]
    if len(kept) < 2:
        raise AnalysisError("need at least two poems with compounds")
    pos = {pid: i for i, pid in enumerate(kept)}
    weights = np.array([totals[pid] for pid in kept], dtype=float)
    weights /= weights.sum()
    multiplicities = []
    for places in by_type.values():
        relevant = [pid for pid, _ in places if pid in pos]
        if relevant:
            multiplicities.append(len(relevant))
    shared_null = _null_shared_counts(multiplicities, weights, N, rng)
    observed = np.zeros((len(kept), len(kept)), dtype=np.int64)
    for places in by_type.values():
        present = sorted({pos[pid] for pid, _ in places if pid in pos})
        for i_idx in range(len(present)):
            for j_idx in range(i_idx + 1, len(present)):
                observed[present[i_idx], present[j_idx]] += 1
    scores = []
    for null_ij, i, j in zip(shared_null.T, *np.triu_indices(len(kept), 1)):
        mean = float(null_ij.mean())
        sd = float(null_ij.std(ddof=1))
        obs = int(observed[i, j])
        if sd > 0:
            z = (obs - mean) / sd
        elif obs == mean:
            z = 0.0
        else:
            z = math.copysign(math.inf, obs - mean)
        tail = float(np.count_nonzero(null_ij >= obs)) / N
        scores.append(PairScore(kept[i], kept[j], obs, mean, sd, z, tail))
    return scores


def rowsum_homogeneity_stats(a, b):
    """Reference for ``stats._homogeneity_stats``: group sizes from row sums."""
    n_a = a.sum(axis=1, keepdims=True)
    n_b = b.sum(axis=1, keepdims=True)
    tot = a + b
    n = n_a + n_b
    ea = n_a * tot / n
    eb = n_b * tot / n
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(tot > 0, (a - ea) ** 2 / ea + (b - eb) ** 2 / eb, 0.0)
    return terms.sum(axis=1)


def loop_gof_stats(ref, obs):
    """Reference for ``stats._gof_stats``: the merge rule one row at a time.

    Rows whose reference leaves an observed cell empty are compacted to the
    covered cells, after their uncovered mass moves to the first of them.
    """
    n_ref = ref.sum(axis=1, keepdims=True)
    n_obs = obs.sum(axis=1, keepdims=True)
    expected = ref * (n_obs / n_ref)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(ref > 0, (obs - expected) ** 2 / expected, 0.0)
    stats = terms.sum(axis=1)
    bad_rows = np.nonzero(((ref == 0) & (obs > 0)).any(axis=1))[0]
    for i in bad_rows:
        r = ref[i].copy()
        o = obs[i].astype(float).copy()
        bad = (r == 0) & (o > 0)
        nonzero = np.nonzero(r > 0)[0]
        o[nonzero[0]] += o[bad].sum()
        o[bad] = 0.0
        keep = r > 0
        e = r[keep] / r[keep].sum() * o.sum()
        stats[i] = float((((o[keep] - e) ** 2) / e).sum())
    return stats


def loop_label_tallies(poem, first, last):
    """Reference for ``metre.pattern_counts`` and the independence table:
    half-line, full-line and (a, b) tallies over lines ``first..last``, one
    line at a time."""
    half = dict.fromkeys(HALF_LABELS, 0)
    full = {a + b: 0 for a in HALF_LABELS for b in HALF_LABELS}
    table = np.zeros((5, 5), dtype=np.int64)
    for ln in poem.lines[first - 1:last]:
        for pattern in (ln.a_pattern, ln.b_pattern):
            if pattern is not None:
                half[pattern] += 1
        if ln.a_pattern is not None and ln.b_pattern is not None:
            full[ln.a_pattern + ln.b_pattern] += 1
            table[HALF_LABELS.index(ln.a_pattern),
                  HALF_LABELS.index(ln.b_pattern)] += 1
    return tuple(half.values()), tuple(full.values()), table


def loop_pair_full_lines(poem, first, last):
    """Reference for the full-line counts of ``metre.pattern_counts`` and for
    ``metre._pairing_log``: the sequential pairing rule over lines
    ``first..last``, one line at a time."""
    patterns = []
    missing_a = missing_b = warnings = 0
    for ln in poem.lines[first - 1:last]:
        if ln.a_pattern is None:
            missing_a += 1
            warnings += 1 if ln.b_pattern is not None else 2
        elif ln.b_pattern is None:
            missing_b += 1
            warnings += 1
        else:
            patterns.append(ln.a_pattern + ln.b_pattern)
    return patterns, PairingLog(len(patterns), missing_a, missing_b, warnings)


def loop_incidence_points(poem, pattern, granularity):
    """Reference for ``metre.incidence_points``: half-line units numbered
    one half at a time, full-line units by line index."""
    if pattern not in (HALF_LABELS if granularity is Granularity.HALF_LINE
                       else FULL_LABELS):
        raise AnalysisError(
            f"unknown {granularity.value}-line pattern {pattern!r}")
    xs = []
    if granularity is Granularity.HALF_LINE:
        unit = 0
        for ln in poem.lines:
            for half in (ln.a_pattern, ln.b_pattern):
                unit += 1
                if half == pattern:
                    xs.append(unit)
    else:
        for ln in poem.lines:
            if ln.a_pattern is not None and ln.b_pattern is not None:
                if ln.a_pattern + ln.b_pattern == pattern:
                    xs.append(ln.index)
    return [(x, i + 1) for i, x in enumerate(xs)]


_CORE_GLYPHS = frozenset(".?!;:()-")
_TYPOGRAPHIC_QUOTES = frozenset("‘’“”")
_ASCII_QUOTES = frozenset("'\"")


def _loop_suppressed_dot_indices(text):
    suppressed = set()
    # maximal dot runs of length >= 2
    i = 0
    n = len(text)
    while i < n:
        if text[i] == ".":
            j = i
            while j < n and text[j] == ".":
                j += 1
            if j - i >= 2:
                suppressed.update(range(i, j))
            i = j
        else:
            i += 1
    # whitespace-delimited tokens consisting solely of dots
    start = 0
    for token in text.split():
        pos = text.index(token, start)
        start = pos + len(token)
        if set(token) == {"."}:
            suppressed.update(range(pos, pos + len(token)))
    return suppressed


def _loop_terminal_run_start(text):
    end = len(text.rstrip())
    k = end
    while k > 0 and not text[k - 1].isalnum():
        k -= 1
    return k


def loop_classify_line(line, *, strict_compat=False, ascii_quotes=False,
                       count_hyphen=True):
    """Reference for ``sensepause.classify_sense_pauses``: one verse line,
    one character at a time, as ``(glyph, line, position, suppressed)``
    tuples."""
    text = f"{line.a_text} {line.b_text}" if line.b_text else line.a_text
    if strict_compat:
        last = len(text) - 1
        return [(ch, line.index, "final" if i == last else "intraline", False)
                for i, ch in enumerate(text) if ch in _CORE_GLYPHS]
    glyphs = _CORE_GLYPHS | _TYPOGRAPHIC_QUOTES
    if ascii_quotes:
        glyphs |= _ASCII_QUOTES
    if not count_hyphen:
        glyphs -= {"-"}
    quote_glyphs = (_TYPOGRAPHIC_QUOTES | _ASCII_QUOTES) & glyphs
    text = text.replace(",", "")
    suppressed = _loop_suppressed_dot_indices(text)
    final_from = _loop_terminal_run_start(text)
    marks = []
    for i, ch in enumerate(text):
        if ch not in glyphs:
            continue
        if ch in quote_glyphs:
            embedded = (0 < i < len(text) - 1
                        and text[i - 1].isalnum() and text[i + 1].isalnum())
            if embedded:
                continue
        marks.append((ch, line.index,
                      "final" if i >= final_from else "intraline",
                      i in suppressed))
    return marks


def loop_vowel_runs(text):
    """Reference for ``sensepause.mean_syllables_per_line``: vowel runs of
    one half-line, one character at a time."""
    decomposed = unicodedata.normalize("NFD", text)
    stripped = "".join(ch for ch in decomposed
                       if not unicodedata.combining(ch))
    runs = 0
    in_run = False
    for ch in stripped.lower():
        if ch in "aeiouyæœ":
            if not in_run:
                runs += 1
                in_run = True
        else:
            in_run = False
    return runs


# rows per replicate block of the bootstrap draw stream
BOOTSTRAP_BLOCK = 256
# R's almost.1 in chisq.test(simulate.p.value = TRUE)
ALMOST_ONE = 1.0 - 64 * np.finfo(float).eps


def block_draws(probs, n_a, n_b, B, rng):
    """The bootstrap's (group a, group b) replicate rows in one plain loop:
    block i is rows 256 i onwards, group a then group b, from
    ``rng.substream(i)``."""
    a, b = [], []
    for i, start in enumerate(range(0, B, BOOTSTRAP_BLOCK)):
        rows = min(BOOTSTRAP_BLOCK, B - start)
        gen = rng.substream(i).generator()
        a.append(gen.multinomial(n_a, probs, size=rows))
        b.append(gen.multinomial(n_b, probs, size=rows))
    return np.concatenate(a), np.concatenate(b)


def two_draw_bootstrap_p(pooled_items, n_a, n_b, observed_homogeneity,
                         observed_gof, B, rng):
    """Reference for ``stats.bootstrap_null_p``, with no threads.

    Draws the replicate blocks with ``block_draws``, scores all rows at once,
    homogeneity with ``rowsum_homogeneity_stats`` and goodness of fit with
    ``loop_gof_stats``, counts a statistic at or above ``ALMOST_ONE`` times
    the observed one, and returns ``(p_hom, p_gof)``.
    """
    categories = sorted(set(pooled_items))
    index = {c: i for i, c in enumerate(categories)}
    counts = np.zeros(len(categories), dtype=np.int64)
    for item in pooled_items:
        counts[index[item]] += 1
    probs = counts / counts.sum()
    sample_a, sample_b = block_draws(probs, n_a, n_b, B, rng)
    exceed_hom = np.count_nonzero(rowsum_homogeneity_stats(sample_a, sample_b)
                                  >= ALMOST_ONE * observed_homogeneity)
    exceed_gof = np.count_nonzero(loop_gof_stats(sample_a, sample_b)
                                  >= ALMOST_ONE * observed_gof)
    return (1 + int(exceed_hom)) / (B + 1), (1 + int(exceed_gof)) / (B + 1)


def write_simple_poem_files(root, poem_id, text_lines, scansion_rows=None,
                            compound_rows=None, parts=None):
    """Write one poem's files by hand and return its manifest entry.

    ``text_lines`` are raw file lines (already TAB-joined), ``scansion_rows``
    and ``compound_rows`` raw TSV body rows without headers.
    """
    text_name = f"{poem_id}.txt"
    (root / text_name).write_text("\n".join(text_lines) + "\n", encoding="utf-8")
    entry = {"id": poem_id, "text": text_name, "scansion": None,
             "compounds": None, "parts": parts}
    if scansion_rows is not None:
        name = f"{poem_id}.scansion.tsv"
        (root / name).write_text("\n".join(scansion_rows) + "\n", encoding="utf-8")
        entry["scansion"] = name
    if compound_rows is not None:
        name = f"{poem_id}.compounds.tsv"
        (root / name).write_text("\n".join(compound_rows) + "\n", encoding="utf-8")
        entry["compounds"] = name
    return entry


def split_change_scansion_poem(poem_id, n, split, probs, probs_after_a=None,
                               seed=0, stream=0):
    """Scanned poem that is i.i.d. over HALF_LABELS, with an optional change
    in the a-half distribution after ``split``; the b-half keeps ``probs``
    throughout, so the total-variation distance of the full-line distribution
    equals that of the a-half marginals."""
    gen = RngStream(seed, stream).generator()
    after = probs_after_a if probs_after_a is not None else probs
    a = np.concatenate([gen.choice(len(HALF_LABELS), size=split, p=probs),
                        gen.choice(len(HALF_LABELS), size=n - split, p=after)])
    b = gen.choice(len(HALF_LABELS), size=n, p=probs)
    return build_poem(
        poem_id, n,
        pattern_fn=lambda i: (HALF_LABELS[a[i - 1]], HALF_LABELS[b[i - 1]]),
    )


def two_style_corpus(n=2200, switch=1200, seed=5):
    """Single poem whose character inventory switches mid-text; parts record
    the true style regions."""
    poem = pool_text_poem(
        "twins", n,
        pool_fn=lambda i: "aebimor" if i <= switch else "xzyquck",
        seed=seed,
        parts=(PartRange("A", 1, switch), PartRange("B", switch + 1, n)),
    )
    return build_corpus(poem)


def brute_force_complete(dist):
    """Naive complete linkage straight from the definition: the distance
    between clusters is the max over original leaf pairs."""
    n = len(dist.labels)
    clusters = {i: frozenset([i]) for i in range(n)}
    merges = []
    next_id = n
    while len(clusters) > 1:
        best = None
        for a in sorted(clusters):
            for b in sorted(clusters):
                if b <= a:
                    continue
                d = max(dist.values[i, j]
                        for i in clusters[a] for j in clusters[b])
                if best is None or (d, a, b) < best:
                    best = (d, a, b)
        d, a, b = best
        clusters[next_id] = clusters.pop(a) | clusters.pop(b)
        merges.append((a, b, float(d)))
        next_id += 1
    return Dendrogram(merges=tuple(merges), leaves=dist.labels)


def recursive_leaf_order(tree):
    """Left-to-right leaf order of a dendrogram by direct recursion: node_a's
    subtree, then node_b's."""
    n = len(tree.leaves)
    children = {n + i: (a, b) for i, (a, b, _) in enumerate(tree.merges)}

    def walk(node):
        if node < n:
            return [node]
        a, b = children[node]
        return walk(a) + walk(b)

    return walk(n + len(tree.merges) - 1) if tree.merges else list(range(n))


def random_dendrogram(n, seed):
    """Merge list joining ``n`` leaves in a seeded random order, with
    nondecreasing heights and node_a < node_b in every merge."""
    gen = RngStream(seed, 11).generator()
    active = list(range(n))
    merges = []
    for i in range(n - 1):
        picks = sorted(int(j) for j in gen.choice(len(active), 2, replace=False))
        a, b = sorted((active[picks[0]], active[picks[1]]))
        del active[picks[1]], active[picks[0]]
        active.append(n + i)
        merges.append((a, b, float(i + 1)))
    return Dendrogram(merges=tuple(merges),
                      leaves=tuple(f"s{i:04d}" for i in range(n)))


def _padded_counts(normalized, n):
    stream = f" {normalized} "
    return Counter(stream[i:i + n] for i in range(len(stream) - n + 1))


def counter_ngram_counts(text, n):
    """Reference gram counts over the padded normalized stream " <text> "."""
    return _padded_counts(normalize_text(text), n)


def _window_text(corpus, sample):
    poem = corpus.poem(sample.source)
    pieces = []
    for index in range(sample.first_line, sample.last_line + 1):
        line = poem.line(index)
        pieces.append(line.a_text)
        if line.b_text:
            pieces.append(line.b_text)
    return " ".join(pieces)


def per_line_stream(poem):
    """Reference for ``Poem.ngram_stream``: each line normalized on its own
    by ``per_char_normalize_text``.

    Returns the padded stream, one space followed by every non-empty
    normalized line and a space, and its line edges.
    """
    texts = [per_char_normalize_text(f"{line.a_text} {line.b_text}")
             for line in poem.lines]
    edges = [0]
    for text in texts:
        edges.append(edges[-1] + (len(text) + 1 if text else 0))
    return " " + "".join(text + " " for text in texts if text), edges


def counter_build_profiles(corpus, samples, n, k):
    """Reference ``build_profiles``: one Counter of substrings per window."""
    if not 2 <= n <= 5:
        raise AnalysisError(f"n must be in [2, 5], got {n}")
    if k < 1:
        raise AnalysisError(f"k must be at least 1, got {k}")
    per_sample = []
    for sample in samples:
        normalized = normalize_text(_window_text(corpus, sample))
        if len(normalized) < n:
            raise AnalysisError(
                f"sample {window_id(sample)}: normalized text shorter than {n}")
        per_sample.append(_padded_counts(normalized, n))
    totals = Counter()
    for counts in per_sample:
        totals.update(counts)
    features = tuple(sorted(totals, key=lambda g: (-totals[g], g))[:k])
    values = []
    for counts in per_sample:
        total = sum(counts.values())
        values.append([counts.get(g, 0) / total for g in features])
    return ProfileMatrix(samples=tuple(samples), features=features,
                         values=np.array(values).reshape(len(samples),
                                                         len(features)))


def profile_fields(profiles):
    """A ``ProfileMatrix`` as plain values that compare exactly with ``==``."""
    return profiles.samples, profiles.features, profiles.values.tolist()


def loop_split_boundary_estimate(samples, assignment):
    """Reference ``split_boundary_estimate``: counts the mismatches of every
    (cut, head) step function directly."""
    ordered = sorted(samples, key=lambda s: s.first_line)
    labels = [assignment[window_id(s)] for s in ordered]
    centers = [(s.first_line + s.last_line) / 2 for s in ordered]
    m = len(labels)
    if m < 2:
        raise AnalysisError("need at least two windows")
    best = None
    for cut in range(m + 1):
        for head in (0, 1):
            mismatches = sum(
                1 for i, lab in enumerate(labels)
                if lab != (head if i < cut else 1 - head))
            key = (mismatches, cut)
            if best is None or key < best:
                best = key
    _, cut = best
    if cut == 0:
        return float(ordered[0].first_line)
    if cut == m:
        return float(ordered[-1].last_line)
    return (centers[cut - 1] + centers[cut]) / 2


def per_char_normalize_text(text):
    """Reference normalizer: one membership test per character."""
    lowered = text.lower()
    cleaned = "".join(
        " " if ch in PUNCTUATION_GLYPHS or ch == "\t" else ch
        for ch in lowered)
    return " ".join(cleaned.split())


def per_cell_sweep(corpus, poem_id, n_values, k_values, width=300, step=100):
    """Reference robustness sweep: fresh profiles for every (n, k) cell."""
    windows = rolling_windows(corpus.poem(poem_id), width, step)
    ids = tuple(window_id(w) for w in windows)
    cells = []
    canonical_splits = []
    for n in n_values:
        for k in k_values:
            try:
                profiles = build_profiles(corpus, windows, n, k)
                assignment = top_two_assignment(agglomerative_complete(
                    cosine_distance_matrix(profiles)))
            except AnalysisError:
                cells.append(SweepCell(n=n, k=k, labels=None))
                canonical_splits.append(None)
                continue
            flat = tuple(assignment[wid] for wid in ids)
            cells.append(SweepCell(n=n, k=k, labels=flat))
            if flat and flat[0] == 1:
                flat = tuple(1 - v for v in flat)
            canonical_splits.append(flat)
    populated = [s for s in canonical_splits if s is not None]
    if populated:
        tally = Counter(populated)
        top_count = max(tally.values())
        majority = min(s for s, c in tally.items() if c == top_count)
        stability = tally[majority] / len(populated)
    else:
        stability = 0.0
    return SweepResult(poem=poem_id, window_ids=ids, cells=tuple(cells),
                       stability=stability)


def random_distance_matrix(n, seed):
    gen = RngStream(seed, 9).generator()
    raw = gen.random((n, n))
    values = (raw + raw.T) / 2
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(labels=tuple(f"s{i:02d}" for i in range(n)),
                          values=values)


# Published two-sample comparisons as printed: (t to two decimals, df, two-sided
# P to four).  Each pair was rounded from one unrounded statistic, so at the
# printed t itself the exact tail can miss the printed P by more than the print
# precision (by 0.0020 for (1.03, 9) and (0.19, 7)).
REFERENCE_TUPLES = (
    (0.94, 6, 0.3838),
    (1.03, 9, 0.3319),
    (2.07, 27, 0.0483),
    (0.19, 7, 0.8567),
)

# Half a unit in the fourth printed decimal of P.
P_PRINT_TOLERANCE = 5e-5


def print_precision_preimage(t2dp, df, p4dp):
    """Unrounded statistic t* in the rounding interval of ``t2dp`` whose exact
    two-sided tail is ``p4dp``, or None when ``p4dp`` lies outside the bracket
    [p(t2dp + 0.005), p(t2dp - 0.005)] widened by ``P_PRINT_TOLERANCE``.

    The tail is strictly decreasing in |t|, so bisection over the interval
    finds t* whenever the bracket holds it; the caller checks that
    p(t*) is within ``P_PRINT_TOLERANCE`` of ``p4dp`` and t* rounds to ``t2dp``.
    """
    lo, hi = t2dp - 0.005, t2dp + 0.005
    if not (student_t_p(hi, df) - P_PRINT_TOLERANCE <= p4dp
            <= student_t_p(lo, df) + P_PRINT_TOLERANCE):
        return None
    for _ in range(60):
        mid = (lo + hi) / 2
        if student_t_p(mid, df) > p4dp:
            lo = mid
        else:
            hi = mid
    return lo


# ------------------------------------------------------------ golden trees --

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "cli_golden.json"

# Every analysis command on the two-poem corpus of test_cli.py, keyed by case
# name; ``--corpus`` and ``--out`` are appended when a case runs.  The
# criterion-8 case (CRITERION_8_ARGV on its own corpus) is recorded alongside.
CLI_GOLDEN_CASES = {
    "sensepause": ["sensepause", "--poem-a", "alpha", "--poem-b", "beta"],
    "sensepause-strict": ["sensepause", "--poem-a", "alpha",
                          "--poem-b", "beta", "--strict-compat",
                          "--no-count-hyphen"],
    "sensepause-parts-json": ["sensepause", "--poem-a", "alpha",
                              "--poem-b", "alpha", "--part-a", "A",
                              "--part-b", "B", "--sample-len", "50",
                              "--ascii-quotes", "--format", "json"],
    "metre-rolling": ["metre", "rolling", "--poem", "alpha", "--width", "100",
                      "--step", "25", "--split-line", "350"],
    "metre-split-tests": ["metre", "split-tests", "--poem", "alpha",
                          "--split-line", "350", "--bootstrap", "1000",
                          "--seed", "3"],
    "metre-independence": ["metre", "independence", "--poem", "alpha",
                           "--first", "1", "--last", "600"],
    "metre-incidence-r": ["metre", "incidence-r", "--poem", "alpha",
                          "--pattern", "A", "--granularity", "half"],
    "hapax-fit": ["hapax", "fit", "--poem", "alpha", "--first", "20",
                  "--last", "690"],
    "hapax-segments-partition": ["hapax", "segments", "--mode", "partition",
                                 "--unit", "alpha:1-350",
                                 "--unit", "alpha:351-700"],
    "hapax-segments-merge": ["hapax", "segments", "--mode", "merge",
                             "--unit", "alpha", "--unit", "beta"],
    "shared": ["shared", "--trials", "1000", "--seed", "5"],
    "cluster-profiles": ["cluster", "profiles", "--n", "2", "--k", "80"],
    "cluster-dendrogram": ["cluster", "dendrogram", "--n", "2", "--k", "80"],
    "cluster-sweep": ["cluster", "sweep", "--poem", "alpha",
                      "--n-values", "2,3", "--k-values", "100:200:100"],
    "report": ["report", "--seed", "7", "--bootstrap", "1000",
               "--split-line", "350"],
    "report-json": ["report", "--seed", "7", "--bootstrap", "1000",
                    "--split-line", "350", "--format", "json"],
}
CRITERION_8_ARGV = ["report", "--seed", "7"]


def tree_digests(root):
    """sha256 of every file under ``root``, keyed by relative posix path."""
    return {p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_digests(argv, corpus_dir, out):
    """Run one CLI invocation into ``out`` and digest its output tree."""
    code = dispatch([*argv, "--corpus", str(corpus_dir), "--out", str(out)])
    assert code == 0, f"{argv} exited {code}"
    return tree_digests(out)


def differing_files(actual, expected):
    """Files missing, extra or with another digest, sorted by name."""
    return sorted(name for name in actual.keys() | expected.keys()
                  if actual.get(name) != expected.get(name))


# ------------------------------------------------------------ child runs ----

# The child limits its address space only after numpy has loaded BLAS and
# BLAS has run once, which starts its threads and buffers; the limit then
# bounds what the command itself allocates.
_CHILD = """\
import resource, sys
import numpy as np
from versemetry.cli import dispatch

headroom = int(sys.argv[1])
if headroom:
    np.ones((64, 64)) @ np.ones((64, 64))
    with open("/proc/self/status") as status:
        size = next(int(line.split()[1]) * 1024 for line in status
                    if line.startswith("VmSize:"))
    resource.setrlimit(resource.RLIMIT_AS, (size + headroom,) * 2)
sys.exit(dispatch(sys.argv[2:]))
"""


def run_cli_process(argv, headroom=None):
    """Run one CLI invocation in a child process.

    With ``headroom`` bytes, the child may grow its address space by only
    that much once BLAS is warm.  Returns the exit code, the stderr lines and
    the child's peak resident set in bytes (``ru_maxrss`` from ``os.wait4``).
    """
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(headroom or 0), *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    with proc.stderr:
        err = proc.stderr.read().decode()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, err.splitlines(), usage.ru_maxrss * 1024
