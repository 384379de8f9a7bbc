"""Compound-word analytics: hapax regressions and shared-compound nulls.

Hapax status is decided corpus-wide: a lemma is a hapax compound when its
total occurrence count across every poem in the index is exactly one.  The
cumulative regressions fit the running hapax count against the line index
(every line contributes a point, not only lines with hapaxes).

The shared-compound null model reallocates each compound type's occurrences
independently across poems with probability proportional to each poem's
compound token total, then recounts shared types per poem pair.  Each
occurrence is one categorical draw over the poems.  Types with a single
occurrence can never be shared, so they set the poem weights but are not
simulated.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import Corpus, Poem, resolve_line_range
from .errors import AnalysisError, InputError
from .stats import LinearFit, RngStream, ols_fit

__all__ = [
    "CompoundIndex",
    "PairScore",
    "SegmentMode",
    "build_compound_index",
    "hapax_cumulative_fit",
    "segment_fits",
    "shared_compound_scores",
]


@dataclass(frozen=True, eq=False)
class CompoundIndex:
    """Corpus-wide compound inventory.

    ``counts[t, p]`` is the number of occurrences of lemma ``lemmas[t]`` in
    poem ``poems[p]`` (an int64 array; lemmas in first-appearance order,
    poems in corpus order).  ``totals`` and ``types`` map each poem id to its
    numbers of compound tokens and of distinct lemmas, and ``hapax_set``
    holds the lemmas that occur once in the whole corpus.
    """

    poems: tuple[str, ...]
    lemmas: tuple[str, ...]
    counts: np.ndarray
    totals: Mapping[str, int]
    types: Mapping[str, int]
    hapax_set: frozenset[str]


@dataclass(frozen=True)
class PairScore:
    """Observed vs null-model shared compound types for one poem pair.

    ``z`` is (observed − null_mean)/null_sd; with a degenerate null (sd = 0)
    it is 0 when the observation matches the null mean and signed infinity
    otherwise.  ``empirical_tail`` is the fraction of trials with a shared
    count at least as large as observed.
    """

    poem_a: str
    poem_b: str
    observed_shared: int
    null_mean: float
    null_sd: float
    z: float
    empirical_tail: float


class SegmentMode(Enum):
    PARTITION = "partition"
    MERGE = "merge"


def build_compound_index(corpus: Corpus) -> CompoundIndex:
    """Corpus-wide compound inventory with hapax determination."""
    poems = tuple(poem.id for poem in corpus.poems)
    # each token's flat cell t * P + p; a new lemma takes the next number t
    code: dict[str, int] = {}
    cells = [code.setdefault(lemma, len(code)) * len(poems) + p
             for p, poem in enumerate(corpus.poems)
             for lemma in poem.compound_tokens.lemmas]
    counts = np.bincount(np.array(cells, dtype=np.intp),
                         minlength=len(code) * len(poems)
                         ).reshape(len(code), len(poems))
    lemmas = tuple(code)
    hapaxes = np.flatnonzero(counts.sum(axis=1) == 1).tolist()
    return CompoundIndex(
        poems=poems,
        lemmas=lemmas,
        counts=counts,
        totals=dict(zip(poems, counts.sum(axis=0).tolist())),
        types=dict(zip(poems, np.count_nonzero(counts, axis=0).tolist())),
        hapax_set=frozenset(lemmas[t] for t in hapaxes),
    )


def hapax_cumulative_fit(
    poem: Poem,
    hapax_set: frozenset[str],
    first: int | None = None,
    last: int | None = None,
) -> tuple[list[tuple[int, int]], LinearFit]:
    """Running hapax-token count per line and its least-squares fit.

    The series starts at zero within the range; x coordinates keep the
    original line numbering.  Raw per-line slope is returned (multiply by 100
    for the conventional per-100-line reporting scale).
    """
    lo, hi = resolve_line_range(poem, first, last)
    tokens = poem.compound_tokens
    hapax = np.array([lemma in hapax_set for lemma in tokens.lemmas],
                     dtype=bool)
    per_line = np.bincount(tokens.lines[hapax], minlength=hi + 1)
    series = list(zip(range(lo, hi + 1),
                      np.cumsum(per_line[lo:hi + 1]).tolist()))
    if series[-1][1] == 0:
        raise AnalysisError("no hapax compounds in range")
    if lo == hi:
        raise AnalysisError(
            f"poem {poem.id}: a fit needs two lines, got line {lo}")
    return series, ols_fit([x for x, _ in series], [y for _, y in series])


def segment_fits(
    units: Sequence[tuple[Poem, int | None, int | None]],
    mode: SegmentMode,
    hapax_set: frozenset[str],
) -> tuple[list[tuple[list[tuple[int, int]], LinearFit]],
           tuple[list[tuple[int, int]], LinearFit]]:
    """Per-unit (series, fit) pairs plus the combined (series, fit) pair.

    Each unit's pair is what ``hapax_cumulative_fit`` returns for it, so the
    last point of the series carries the unit's hapax count; the combined
    series runs on from one unit's count to the next, so its last point
    carries the total.  Partition mode fits each unit independently and then
    the union series of all units.  Merge mode concatenates the units in the
    given order with contiguous line renumbering before fitting, reproducing
    the adversarial merged-text demonstrations; per-unit fits are returned
    alongside.
    """
    if len(units) < 2:
        raise AnalysisError("need at least two units")

    unit_fits: list[tuple[list[tuple[int, int]], LinearFit]] = []
    points: list[tuple[int, int]] = []
    for poem, first, last in units:
        series, fit = hapax_cumulative_fit(poem, hapax_set, first, last)
        unit_fits.append((series, fit))
        running = points[-1][1] if points else 0
        xs = (range(len(points) + 1, len(points) + len(series) + 1)
              if mode is SegmentMode.MERGE else (x for x, _ in series))
        points.extend(zip(xs, (running + y for _, y in series)))
    return unit_fits, (points, ols_fit(*zip(*points)))


# Trials simulated per block: the working arrays scale with the block, not
# with N.  The draws are laid out trial-major, so the result does not depend
# on this value.
_TRIAL_BLOCK = 16

# Cells of the lookup table that maps a uniform to its poem.  A power of two,
# so a uniform's cell, ``floor(u * _CELLS)``, is computed exactly.
_CELLS = 4096


def _poem_lookup(cumw: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Return a map from uniforms to ``searchsorted(cumw, u, side="right")``.

    The map scales its argument, an array of uniforms in [0, 1), by
    ``_CELLS`` in place and returns an intp array of poem indices.  Cell c
    covers ``[c, c + 1)`` of the scaled uniforms, and its table entry is the
    index of the cell's lower edge.  Every uniform in the cell compares
    against each ``cumw[j]`` as that edge does, except in a cell with some
    ``cumw[j]`` strictly inside it; there are at most ``cumw.size`` such
    cells, and only the uniforms in them are searched.  Scaling by a power
    of two keeps every comparison, so the indices are those of
    ``searchsorted`` itself, even where ``cumw`` is not monotone.
    """
    scaled = cumw * _CELLS
    table = np.searchsorted(scaled, np.arange(_CELLS), side="right")
    cells = np.floor(scaled)
    inside = cells[(cells != scaled) & (cells < _CELLS)].astype(np.intp)
    ambiguous = np.zeros(_CELLS, dtype=bool)
    ambiguous[inside] = True

    def lookup(u: np.ndarray) -> np.ndarray:
        u *= _CELLS
        index = u.astype(np.intp)
        fix = np.flatnonzero(ambiguous[index])
        # the cell array becomes the index array; "clip" never clips here
        # (every cell is below _CELLS) and, unlike "raise", needs no copy
        np.take(table, index, out=index, mode="clip")
        index.reshape(-1)[fix] = np.searchsorted(
            scaled, u.reshape(-1)[fix], side="right")
        return index

    return lookup


def _null_shared_counts(
    multiplicities: Sequence[int],
    weights: np.ndarray,
    N: int,
    rng: RngStream,
) -> np.ndarray:
    """Simulate the reallocation null; returns (N, P(P-1)/2) shared counts.

    Entry ``[t, k]`` counts the types present in both poems of pair k in
    trial t, pairs in ``np.triu_indices(P, 1)`` order.  Only types with two
    or more occurrences are simulated, in ascending multiplicity: each trial
    draws one uniform per occurrence, and ``_poem_lookup`` on the cumulative
    weights turns it into a poem index (a categorical draw).  A float32
    one-hot presence tensor (trial, type, poem) gives each block's shared
    counts as a batched matmul, whose sums are exact while there are fewer
    than 2**24 types.
    """
    P = weights.size
    first, second = np.triu_indices(P, 1)
    shared = np.zeros((N, first.size), dtype=np.int32)
    mults = sorted(m for m in multiplicities if m >= 2)
    types = len(mults)
    # column j of a trial's draws is an occurrence of type occurrence_type[j]
    occurrence_type = np.repeat(np.arange(types), mults)
    cumw = np.cumsum(weights)
    cumw[-1] = 1.0  # a uniform in [0, 1) never maps past the last poem
    poem_of = _poem_lookup(cumw)
    block = min(_TRIAL_BLOCK, N)
    # flat offset of each draw's (trial, type) row in a block's presence
    row_offset = (np.arange(block)[:, None] * types + occurrence_type) * P
    gen = rng.generator()
    for start in range(0, N, block):
        n = min(block, N - start)
        flat = poem_of(gen.random((n, occurrence_type.size)))
        flat += row_offset[:n]
        presence = np.zeros((n, types, P), dtype=np.float32)
        presence.reshape(-1)[flat] = 1
        both = presence.transpose(0, 2, 1) @ presence
        shared[start:start + n] = both[:, first, second]
    return shared


def shared_compound_scores(
    corpus: Corpus,
    poems: Sequence[str] | None = None,
    N: int = 1000,
    rng: RngStream | None = None,
) -> list[PairScore]:
    """Observed vs null shared-compound-type scores for every poem pair.

    Poems without compound tokens are excluded with a warning; an id that
    names no poem raises the corpus's ``CorpusError``, and one named twice
    an ``InputError``.  The result
    covers unordered pairs (a before b in the input order); the underlying
    relation is symmetric and diagonals are never reported.
    """
    if N < 1000:
        raise InputError("N must be at least 1000")
    if rng is None:
        rng = RngStream(0)
    index = build_compound_index(corpus)
    ids = list(poems) if poems is not None else [p.id for p in corpus.poems]
    kept = []
    for pid in ids:
        corpus.poem(pid)  # an id that names no poem is an error
        if ids.count(pid) > 1:
            raise InputError(f"poems names poem {pid!r} more than once")
        if index.totals[pid] == 0:
            warnings.warn(f"poem {pid} has no compound tokens; excluded")
        else:
            kept.append(pid)
    if len(kept) < 2:
        raise AnalysisError("need at least two poems with compounds")

    # the kept poems' columns of the index, in ``kept`` order
    counts = index.counts[:, [index.poems.index(pid) for pid in kept]]
    totals = counts.sum(axis=0)
    weights = totals / totals.sum()
    shared_null = _null_shared_counts(counts.sum(axis=1).tolist(), weights,
                                      N, rng)
    present = (counts > 0).astype(np.int64)
    observed = present.T @ present

    first, second = np.triu_indices(len(kept), 1)
    scores = []
    for null_ij, i, j in zip(shared_null.T, first, second):
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
        scores.append(PairScore(
            poem_a=kept[i], poem_b=kept[j], observed_shared=obs,
            null_mean=mean, null_sd=sd, z=z, empirical_tail=tail,
        ))
    return scores
