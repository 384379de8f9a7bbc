"""Character n-gram window profiles, cosine distances, and clustering.

Window texts are cut from each poem's ``Poem.ngram_stream``, normalized by
``corpus.normalize_text``: lowercased, punctuation replaced by spaces
(punctuation acts as a word boundary), whitespace collapsed to a single
space, and padded with one leading and trailing space so word-boundary grams
are counted.  Features are the global top-k n-grams by total count across
all samples in the analysis (ties broken lexicographically) and profile
values are relative frequencies against each sample's full n-gram total, so
a profile restricted to the top-k sums to at most 1.  A call's profiles are
one samples x features matrix, and the robustness sweep takes each k's
profiles as the first k columns of one top-k_max matrix.

Counting works on one integer gram-code array per poem.  Tokens never span
lines, so a window's padded text " <text> " is a substring of its poem's
padded stream, and each window is a [start, end) range of gram positions.
Every gram position gets one int64 code: characters are ranked in the
sorted alphabet of the streams and folded in base R, which keeps the
lexicographic order of same-length grams.  A poem's grams are totalled over
its windows by sorting the codes and weighting each position by the number
of windows covering it; the distinct grams of all poems are then merged for
the top-k.  Each poem's (features x windows) counts come from two
searchsorted calls over sorted (feature, position) keys, so overlapping
windows never recount text.

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

from .corpus import Corpus, NgramStream, Poem, SampleWindow, rolling_windows
from .errors import AnalysisError

__all__ = [
    "DistanceMatrix",
    "Dendrogram",
    "ProfileMatrix",
    "SweepCell",
    "SweepResult",
    "agglomerative_complete",
    "build_profiles",
    "clustering_quality",
    "cosine_distance_matrix",
    "leaf_members",
    "majority_part",
    "robustness_sweep",
    "split_boundary_estimate",
    "top_two_assignment",
    "window_id",
]

DEFAULT_WINDOW_WIDTH = 300
DEFAULT_WINDOW_STEP = 100
DEFAULT_N_VALUES = (2, 3, 4, 5)
DEFAULT_K_VALUES = tuple(range(100, 1001, 50))


@dataclass(frozen=True, eq=False)
class ProfileMatrix:
    """``values[i, j]``: the relative frequency of ``features[j]`` in
    ``samples[i]``, in a read-only, C-contiguous float64 array."""

    samples: tuple[SampleWindow, ...]
    features: tuple[str, ...]
    values: np.ndarray


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
    """Each window's top-two cluster, in ``SweepResult.window_ids`` order;
    None for a cell that could not be clustered."""

    n: int
    k: int
    labels: tuple[int, ...] | None


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
    if not sample.composition:
        raise AnalysisError(f"sample {window_id(sample)} has empty composition")
    return max(sample.composition, key=sample.composition.get)


def _stream_ranks(stream: str, rank: np.ndarray) -> np.ndarray:
    """``rank`` of the code point of each character of ``stream``."""
    return rank[np.frombuffer(stream.encode("utf-32-le", "surrogatepass"),
                              dtype="<u4")]


def _fold(columns: Sequence[np.ndarray], radix: int) -> np.ndarray:
    """int64 codes of grams given the character ranks of each gram column.

    Folding in base ``radix`` keeps the lexicographic order of same-length
    grams.  Codes about to pass 2**63 are first re-ranked densely among
    themselves, which keeps their order but makes them comparable only with
    codes folded in the same call.
    """
    codes = columns[0].astype(np.int64)
    for column in columns[1:]:
        if int(codes.max()) * radix + radix - 1 >= 2 ** 63:
            codes = np.unique(codes, return_inverse=True)[1]
        codes *= radix
        codes += column
    return codes


def _gram_codes(ranks: np.ndarray, n: int, radix: int) -> np.ndarray:
    """Codes of every n-gram start in one stream, given its character ranks."""
    size = ranks.size - n + 1
    return _fold([ranks[j:j + size] for j in range(n)], radix)


def _poem_grams(stream: str, rank: np.ndarray, radix: int, n: int,
                starts: np.ndarray, ends: np.ndarray):
    """One poem's distinct grams and their totals over its windows.

    Returns the grams' codes in gram order, a position of each, the ranks of
    its characters there, and each gram's count summed over the windows
    ``[starts, ends)``.
    """
    ranks = _stream_ranks(stream, rank)
    codes = _gram_codes(ranks, n, radix)
    order = np.argsort(codes)
    codes.sort()
    bounds = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    grams = codes[bounds]
    where = order[bounds]
    columns = ranks[where[:, None] + np.arange(n)]
    del ranks, codes
    # each position counts once per window that covers it
    coverage = np.zeros(order.size + 1, dtype=np.int64)
    np.add.at(coverage, starts, 1)
    np.add.at(coverage, ends, -1)
    np.cumsum(coverage, out=coverage)
    # the arrays over all positions set the memory peak, so the coverage of
    # each sorted position overwrites its index; "clip" writes in place where
    # "raise" would buffer the whole output, and every index is in range
    np.take(coverage, order, out=order, mode="clip")
    return grams, where, columns, np.add.reduceat(order, bounds)


def _poem_counts(stream: str, rank: np.ndarray, radix: int, n: int,
                 wanted: np.ndarray, feature: np.ndarray, features: int,
                 starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """(features x windows) counts in one poem of the grams with the sorted
    codes ``wanted``, whose feature ranks are ``feature``."""
    codes = _gram_codes(_stream_ranks(stream, rank), n, radix)
    size = codes.size
    # the wanted code at or after each position's code, written in place
    # (unbuffered: every index is at most wanted.size); a code is never -1,
    # so codes past the last wanted one match nothing
    nearest = np.searchsorted(wanted, codes)
    np.take(np.append(wanted, -1), nearest, out=nearest, mode="clip")
    hits = np.flatnonzero(nearest == codes)
    del nearest
    # sorted (feature, position) keys: a window's count of a feature is the
    # number of keys in one half-open range
    keys = feature[np.searchsorted(wanted, codes[hits])] * size + hits
    del codes
    keys.sort()
    base = np.arange(features)[:, None] * size
    return (np.searchsorted(keys, base + ends)
            - np.searchsorted(keys, base + starts))


def build_profiles(
    corpus: Corpus,
    samples: Sequence[SampleWindow],
    n: int,
    k: int,
) -> ProfileMatrix:
    """Profiles over the global top-k n-grams across all given samples."""
    if not 2 <= n <= 5:
        raise AnalysisError(f"n must be in [2, 5], got {n}")
    if k < 1:
        raise AnalysisError(f"k must be at least 1, got {k}")
    if not samples:
        return ProfileMatrix((), (), np.empty((0, 0)))
    # every window is a [start, end) range of gram positions in the stream
    # of its poem; poems are counted one at a time, which bounds the memory
    # of a call by its largest poem
    poems: dict[str, tuple[Poem, NgramStream, list[int]]] = {}
    starts, ends = [], []
    for index, sample in enumerate(samples):
        if sample.source not in poems:
            poem = corpus.poem(sample.source)
            poems[sample.source] = (poem, poem.ngram_stream, [])
        poem, stream, members = poems[sample.source]
        edges = stream.edges
        first, last = sample.first_line, sample.last_line
        length = 0
        if first <= last:
            # the first line a line-by-line read would fail on
            poem.line(first)
            poem.line(min(last, poem.line_count + 1))
            length = edges[last] - edges[first - 1] - 1
        if length < n:
            raise AnalysisError(
                f"sample {window_id(sample)}: normalized text shorter than {n}")
        starts.append(edges[first - 1])
        ends.append(edges[last] + 2 - n)
        members.append(index)
    starts_at, ends_at = np.array(starts), np.array(ends)
    streams = [(stream.text, members) for _, stream, members in poems.values()]
    # each code point's rank in the sorted alphabet of the streams
    alphabet = np.array(sorted(map(ord, set().union(
        *(stream.alphabet for _, stream, _ in poems.values())))))
    radix = alphabet.size
    rank = np.zeros(alphabet[-1] + 1, dtype=np.int32)
    rank[alphabet] = np.arange(radix)

    grams, where, columns, totals = zip(*(
        _poem_grams(stream, rank, radix, n, starts_at[members],
                    ends_at[members])
        for stream, members in streams))
    # the poems' distinct grams folded together are comparable across poems
    merged, first, gram_of = np.unique(
        _fold(np.concatenate(columns).T, radix),
        return_index=True, return_inverse=True)
    total = np.bincount(gram_of, weights=np.concatenate(totals))
    # grams outside every window total 0 and rank last
    top = np.lexsort((merged, -total))[:min(k, np.count_nonzero(total))]
    source = np.repeat(np.arange(len(streams)), [g.size for g in grams])
    at = np.concatenate(where)
    features = tuple(streams[source[i]][0][at[i]:at[i] + n]
                     for i in first[top].tolist())

    feature = np.full(merged.size, top.size)
    feature[top] = np.arange(top.size)
    # counts are exact in float64, so the quotients are those of the counts
    values = np.empty((len(samples), top.size))
    cuts = np.cumsum([g.size for g in grams])[:-1]
    for (stream, members), local, local_feature in zip(
            streams, grams, np.split(feature[gram_of], cuts)):
        wanted = local_feature < top.size
        values[members] = _poem_counts(
            stream, rank, radix, n, local[wanted], local_feature[wanted],
            top.size, starts_at[members], ends_at[members]).T
    values /= (ends_at - starts_at)[:, None]
    values.flags.writeable = False
    return ProfileMatrix(tuple(samples), features, values)


def _unallocatable(count: int) -> AnalysisError:
    size = 8 * count * count
    return AnalysisError(
        f"{count} windows: cannot allocate {size} bytes ({size / 2 ** 30:.1f} "
        f"GiB) for {count} x {count} distances; a larger --step or fewer "
        "--poems gives fewer windows")


def cosine_distance_matrix(profiles: ProfileMatrix) -> DistanceMatrix:
    """Pairwise 1 − cosine similarity; symmetric with zero diagonal."""
    if len(profiles.samples) < 2:
        raise AnalysisError("need at least two profiles")
    labels = tuple(map(window_id, profiles.samples))
    # a column slice, copied C-contiguous, feeds BLAS as a full matrix would
    matrix = np.array(profiles.values, dtype=float, order="C")
    norms = np.linalg.norm(matrix, axis=1)
    for label, norm in zip(labels, norms):
        if norm == 0.0:
            raise AnalysisError(
                f"sample {label}: zero profile vector (no top-k grams present)")
    matrix /= norms[:, None]
    try:
        # one n x n float array, updated in place.  numpy computes a matrix
        # times its own transpose as one BLAS syrk triangle and mirrors it, and
        # its loop without BLAS sums the same products in the same order for
        # (i, j) and (j, i), so the product is exactly symmetric
        dist = matrix @ matrix.T
        np.subtract(1.0, dist, out=dist)
        # nonnegative vectors keep cosine in [0,1]; anything further out
        # than rounding noise means broken inputs
        assert dist.min() > -1e-9 and dist.max() < 1.0 + 1e-9
        np.clip(dist, 0.0, 1.0, out=dist)
        np.fill_diagonal(dist, 0.0)
    except MemoryError:
        raise _unallocatable(len(labels)) from None
    return DistanceMatrix(labels=labels, values=dist)


def agglomerative_complete(dist: DistanceMatrix) -> Dendrogram:
    """Complete-linkage agglomerative clustering with deterministic ties.

    Each row of the work matrix caches its nearest distance and partner, the
    smallest node id at that distance; merged rows and the diagonal hold inf,
    so distances must be finite.  A merge refreshes only the merged row and
    the rows whose partner it consumed: complete linkage never lowers a
    distance and the new node has the largest id, so every other cache stays
    exact (Müllner 2011, arXiv:1109.2378).
    """
    n, values = len(dist.labels), dist.values
    # min and max read the matrix without an n x n temporary; NaN fails both
    if values.size and not (values.min() > -np.inf and values.max() < np.inf):
        raise AnalysisError("distances must be finite")
    if n < 2:
        return Dendrogram(merges=(), leaves=dist.labels)
    try:
        work = values.astype(float)
    except MemoryError:
        raise _unallocatable(n) from None
    np.fill_diagonal(work, np.inf)
    node = np.arange(n)  # node id held by each row
    row_of = np.arange(2 * n - 1)  # row holding each node id
    # node ids are still column indices: argmin gives the smallest id at a min
    nearest, partner = work.min(axis=1), work.argmin(axis=1)
    merges = []
    for next_id in range(n, 2 * n - 1):
        height = nearest.min()
        rows = np.flatnonzero(nearest == height)
        # (min id, max id) of each candidate pair as one key; ids are < 2n
        key = (np.minimum(node[rows], partner[rows]) * 2 * n
               + np.maximum(node[rows], partner[rows]))
        a, b = divmod(int(key.min()), 2 * n)
        row_a, row_b = row_of[a], row_of[b]
        # complete linkage: distance to the merged cluster is the max
        merged = np.maximum(work[row_a], work[row_b])
        merged[row_b] = np.inf
        work[row_a] = work[:, row_a] = merged
        work[row_b] = work[:, row_b] = np.inf
        nearest[row_b], partner[row_b] = np.inf, -1
        node[row_a] = next_id
        row_of[next_id] = row_a
        # refresh the merged row and the rows whose partner it consumed
        rows = np.append(np.flatnonzero((partner == a) | (partner == b)), row_a)
        block = work[rows]
        nearest[rows] = block.min(axis=1)
        partner[rows] = np.where(block == nearest[rows, None], node,
                                 2 * n).min(axis=1)
        merges.append((a, b, float(height)))
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
    sides = sorted(([dendrogram.leaves[i] for i in leaf_members(dendrogram, node)]
                    for node in dendrogram.merges[-1][:2]), key=min)
    return {leaf: cluster for cluster, side in enumerate(sides) for leaf in side}


def clustering_quality(
    assignment: Mapping[str, int],
    truth: Mapping[str, str],
) -> tuple[float, float]:
    """(purity, adjusted Rand index) of an assignment against part labels."""
    if set(assignment) != set(truth):
        raise AnalysisError("assignment and truth cover different samples")
    samples = sorted(assignment)
    total = len(samples)
    contingency = Counter((assignment[s], truth[s]) for s in samples)
    cluster_sizes = Counter(assignment[s] for s in samples)
    label_sizes = Counter(truth[s] for s in samples)

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
    # is_zero[:cut] / is_one[:cut]: labels before each cut equal to 0 / 1
    is_zero = np.concatenate(([0], np.cumsum(np.equal(labels, 0))))
    is_one = np.concatenate(([0], np.cumsum(np.equal(labels, 1))))
    cuts = np.arange(m + 1)
    # head 0 expects 0 before the cut and 1 from it on; head 1 the reverse
    head_zero = (cuts - is_zero) + (m - cuts) - (is_one[m] - is_one)
    head_one = (cuts - is_one) + (m - cuts) - (is_zero[m] - is_zero)
    # argmin takes the earliest cut among the fewest mismatches
    cut = int(np.argmin(np.minimum(head_zero, head_one)))
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
    few windows) are recorded with None labels instead of failing the sweep;
    distances too large to allocate fail it.  Stability is the fraction of
    populated cells agreeing with the majority split.  Labels need no swap
    to compare splits: cluster 0 holds the smallest window id, which is the
    first window's.
    """
    poem = corpus.poem(poem_id)
    windows = rolling_windows(poem, width, step)
    ids = tuple(window_id(w) for w in windows)
    cells = []
    populated: list[tuple[int, ...]] = []
    k_max = max(k_values, default=0)
    for n in n_values:
        # the ranking breaks ties lexicographically and values divide by each
        # window's full n-gram total, so every top-k profile is the first k
        # columns of the top-k_max one
        try:
            full = build_profiles(corpus, windows, n, k_max)
        except AnalysisError:
            full = None
        for k in k_values:
            labels = None
            # a window with none of the top-k grams has a zero vector
            if (full is not None and k >= 1 and len(ids) >= 2
                    and full.values[:, :k].any(axis=1).all()):
                assignment = top_two_assignment(agglomerative_complete(
                    cosine_distance_matrix(ProfileMatrix(
                        full.samples, full.features[:k], full.values[:, :k]))))
                labels = tuple(assignment[wid] for wid in ids)
                populated.append(labels)
            cells.append(SweepCell(n=n, k=k, labels=labels))

    stability = (max(Counter(populated).values()) / len(populated)
                 if populated else 0.0)
    return SweepResult(poem=poem_id, window_ids=ids, cells=tuple(cells),
                       stability=stability)
