"""Character n-gram window profiles, cosine distances, and clustering.

Window texts are normalized before counting: lowercased, punctuation replaced
by spaces (punctuation acts as a word boundary), whitespace collapsed to a
single space, and the stream padded with one leading and trailing space so
word-boundary grams are counted.  Features are the global top-k n-grams by
total count across all samples in the analysis (ties broken lexicographically)
and profile values are relative frequencies against each sample's full n-gram
total, so a profile restricted to the top-k sums to at most 1.

Clustering is agglomerative with complete (maximum) linkage on cosine
distances.  Ties are broken by the smallest (min-id, max-id) cluster-id pair;
new clusters are numbered n_leaves, n_leaves+1, ... in merge order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Mapping, Sequence

import numpy as np

from .corpus import Corpus, SampleWindow, rolling_windows
from .errors import AnalysisError
from .sensepause import PUNCTUATION_GLYPHS

__all__ = [
    "DistanceMatrix",
    "Dendrogram",
    "NgramProfile",
    "SweepCell",
    "SweepResult",
    "agglomerative_complete",
    "build_profiles",
    "clustering_quality",
    "cosine_distance_matrix",
    "leaf_members",
    "majority_part",
    "ngram_counts",
    "normalize_text",
    "robustness_sweep",
    "split_boundary_estimate",
    "top_two_assignment",
    "window_id",
]

DEFAULT_WINDOW_WIDTH = 300
DEFAULT_WINDOW_STEP = 100
DEFAULT_N_VALUES = (2, 3, 4, 5)
DEFAULT_K_VALUES = tuple(range(100, 1001, 50))


@dataclass(frozen=True)
class NgramProfile:
    sample: SampleWindow
    features: tuple[str, ...]
    values: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    labels: tuple[str, ...]
    values: np.ndarray


@dataclass(frozen=True)
class Dendrogram:
    """Merge list in scipy-style numbering.

    Leaves are 0..n-1 in input order; the cluster created by merge i gets id
    n+i.  Each merge is (node_a, node_b, height) with node_a < node_b.
    """

    merges: tuple[tuple[int, int, float], ...]
    leaves: tuple[str, ...]


@dataclass(frozen=True)
class SweepCell:
    n: int
    k: int
    assignment: tuple[tuple[str, int], ...] | None


@dataclass(frozen=True)
class SweepResult:
    poem: str
    window_ids: tuple[str, ...]
    cells: tuple[SweepCell, ...]
    stability: float


def window_id(sample: SampleWindow) -> str:
    return f"{sample.source}:{sample.first_line}-{sample.last_line}"


def majority_part(sample: SampleWindow) -> str:
    """Majority part label of a window; composition-order first on ties."""
    best = None
    for name, count in sample.composition.items():
        if best is None or count > best[1]:
            best = (name, count)
    if best is None:
        raise AnalysisError(f"sample {window_id(sample)} has empty composition")
    return best[0]


# tabs need no entry: split() below already treats them as whitespace
_TO_SPACE = str.maketrans(dict.fromkeys(PUNCTUATION_GLYPHS, " "))


def normalize_text(text: str) -> str:
    return " ".join(text.lower().translate(_TO_SPACE).split())


def _stream_counts(normalized: str, n: int) -> Counter[str]:
    stream = f" {normalized} "
    starts = range(len(stream) - n + 1)
    return Counter(map(stream.__getitem__,
                       map(slice, starts, range(n, len(stream) + 1))))


def ngram_counts(text: str, n: int) -> Counter[str]:
    """Counts over the padded normalized stream " <text> "."""
    return _stream_counts(normalize_text(text), n)


def _window_text(corpus: Corpus, sample: SampleWindow) -> str:
    poem = corpus.poem(sample.source)
    pieces = []
    for index in range(sample.first_line, sample.last_line + 1):
        line = poem.line(index)
        pieces.append(line.a_text)
        if line.b_text:
            pieces.append(line.b_text)
    return " ".join(pieces)


def build_profiles(
    corpus: Corpus,
    samples: Sequence[SampleWindow],
    n: int,
    k: int,
) -> list[NgramProfile]:
    """Profiles over the global top-k n-grams across all given samples."""
    if not 2 <= n <= 5:
        raise AnalysisError(f"n must be in [2, 5], got {n}")
    if k < 1:
        raise AnalysisError(f"k must be at least 1, got {k}")
    per_sample: list[Counter[str]] = []
    for sample in samples:
        normalized = normalize_text(_window_text(corpus, sample))
        if len(normalized) < n:
            raise AnalysisError(
                f"sample {window_id(sample)}: normalized text shorter than {n}")
        per_sample.append(_stream_counts(normalized, n))
    totals: Counter[str] = Counter()
    for counts in per_sample:
        totals.update(counts)
    features = tuple(sorted(totals, key=lambda g: (-totals[g], g))[:k])
    profiles = []
    for sample, counts in zip(samples, per_sample):
        total = sum(counts.values())
        values = tuple(counts.get(g, 0) / total for g in features)
        profiles.append(NgramProfile(sample=sample, features=features,
                                     values=values))
    return profiles


def cosine_distance_matrix(profiles: Sequence[NgramProfile]) -> DistanceMatrix:
    """Pairwise 1 − cosine similarity; symmetric with zero diagonal."""
    if len(profiles) < 2:
        raise AnalysisError("need at least two profiles")
    labels = tuple(window_id(p.sample) for p in profiles)
    matrix = np.array([p.values for p in profiles], dtype=float)
    norms = np.linalg.norm(matrix, axis=1)
    for label, norm in zip(labels, norms):
        if norm == 0.0:
            raise AnalysisError(
                f"sample {label}: zero profile vector (no top-k grams present)")
    unit = matrix / norms[:, None]
    raw = 1.0 - unit @ unit.T
    # nonnegative vectors keep cosine in [0,1]; anything further out than
    # rounding noise means broken inputs
    assert raw.min() > -1e-9 and raw.max() < 1.0 + 1e-9
    dist = np.clip((raw + raw.T) / 2.0, 0.0, 1.0)
    np.fill_diagonal(dist, 0.0)
    assert np.array_equal(dist, dist.T)
    return DistanceMatrix(labels=labels, values=dist)


def agglomerative_complete(dist: DistanceMatrix) -> Dendrogram:
    """Complete-linkage agglomerative clustering with deterministic ties."""
    n = len(dist.labels)
    current = {i: i for i in range(n)}  # active node id -> matrix row
    work = dist.values.copy()
    merges = []
    next_id = n
    while len(current) > 1:
        best = None
        for a in sorted(current):
            for b in sorted(current):
                if b <= a:
                    continue
                d = work[current[a], current[b]]
                key = (d, a, b)
                if best is None or key < best:
                    best = key
        height, a, b = best
        row_a, row_b = current[a], current[b]
        # complete linkage: distance to the merged cluster is the max
        merged_row = np.maximum(work[row_a], work[row_b])
        work[row_a] = merged_row
        work[:, row_a] = merged_row
        del current[a], current[b]
        current[next_id] = row_a
        merges.append((a, b, float(height)))
        next_id += 1
    return Dendrogram(merges=tuple(merges), leaves=dist.labels)


def leaf_members(dendrogram: Dendrogram, node: int) -> list[int]:
    """Leaves under ``node``, left to right (node_a's subtree first)."""
    n = len(dendrogram.leaves)
    children = {n + i: (a, b) for i, (a, b, _) in enumerate(dendrogram.merges)}
    stack, members = [node], []
    while stack:
        cur = stack.pop()
        if cur < n:
            members.append(cur)
        else:
            a, b = children[cur]
            stack += (b, a)
    return members


def top_two_assignment(dendrogram: Dendrogram) -> dict[str, int]:
    """Cut at the final merge; cluster 0 holds the smallest sample id."""
    if len(dendrogram.leaves) < 2:
        raise AnalysisError("need at least two leaves")
    last_a, last_b, _ = dendrogram.merges[-1]
    side_a = [dendrogram.leaves[i] for i in leaf_members(dendrogram, last_a)]
    side_b = [dendrogram.leaves[i] for i in leaf_members(dendrogram, last_b)]
    if min(side_a) <= min(side_b):
        zero, one = side_a, side_b
    else:
        zero, one = side_b, side_a
    assignment = {leaf: 0 for leaf in zero}
    assignment.update({leaf: 1 for leaf in one})
    return assignment


def clustering_quality(
    assignment: Mapping[str, int],
    truth: Mapping[str, str],
) -> tuple[float, float]:
    """(purity, adjusted Rand index) of an assignment against part labels."""
    if set(assignment) != set(truth):
        raise AnalysisError("assignment and truth cover different samples")
    samples = sorted(assignment)
    total = len(samples)
    contingency: dict[tuple[int, str], int] = {}
    cluster_sizes: dict[int, int] = {}
    label_sizes: dict[str, int] = {}
    for s in samples:
        c, t = assignment[s], truth[s]
        contingency[(c, t)] = contingency.get((c, t), 0) + 1
        cluster_sizes[c] = cluster_sizes.get(c, 0) + 1
        label_sizes[t] = label_sizes.get(t, 0) + 1

    purity = sum(
        max(contingency.get((c, t), 0) for t in label_sizes)
        for c in cluster_sizes
    ) / total

    sum_cells = sum(comb(v, 2) for v in contingency.values())
    sum_clusters = sum(comb(v, 2) for v in cluster_sizes.values())
    sum_labels = sum(comb(v, 2) for v in label_sizes.values())
    pairs = comb(total, 2)
    expected = sum_clusters * sum_labels / pairs if pairs else 0.0
    max_index = (sum_clusters + sum_labels) / 2
    if max_index == expected:
        return purity, 1.0
    ari = (sum_cells - expected) / (max_index - expected)
    return purity, ari


def split_boundary_estimate(
    samples: Sequence[SampleWindow],
    assignment: Mapping[str, int],
) -> float:
    """Estimated style-change line from a top-two split of ordered windows.

    Fits the best step function to the window labels (fewest disagreements,
    earliest cut on ties) and returns the midpoint between the window centers
    adjacent to the cut.
    """
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


def robustness_sweep(
    corpus: Corpus,
    poem_id: str,
    n_values: Sequence[int] = DEFAULT_N_VALUES,
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    width: int = DEFAULT_WINDOW_WIDTH,
    step: int = DEFAULT_WINDOW_STEP,
) -> SweepResult:
    """Top-two assignments for every (n, k) cell over one poem's windows.

    Cells whose preconditions fail (text too short, degenerate vectors, too
    few windows) are recorded with a None assignment instead of failing the
    sweep.  Stability is the fraction of populated cells agreeing with the
    majority split up to label swap.
    """
    poem = corpus.poem(poem_id)
    windows = rolling_windows(poem, width, step)
    ids = tuple(window_id(w) for w in windows)
    cells = []
    canonical_splits: list[tuple[int, ...] | None] = []
    k_max = max(k_values, default=0)
    for n in n_values:
        # the ranking breaks ties lexicographically and values divide by each
        # window's full n-gram total, so every top-k profile is a prefix of
        # the top-k_max one
        try:
            full = build_profiles(corpus, windows, n, k_max)
        except AnalysisError:
            full = None
        for k in k_values:
            assignment = None
            if full is not None and k >= 1:
                profiles = [NgramProfile(p.sample, p.features[:k], p.values[:k])
                            for p in full]
                try:
                    assignment = top_two_assignment(agglomerative_complete(
                        cosine_distance_matrix(profiles)))
                except AnalysisError:
                    pass
            if assignment is None:
                cells.append(SweepCell(n=n, k=k, assignment=None))
                canonical_splits.append(None)
                continue
            cells.append(SweepCell(
                n=n, k=k,
                assignment=tuple((wid, assignment[wid]) for wid in ids)))
            flat = tuple(assignment[wid] for wid in ids)
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
