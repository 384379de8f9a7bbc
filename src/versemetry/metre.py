"""Metrical pattern tabulation and distribution-shift analyses.

Half-lines carry one of five scansion types A-E; a full line is the ordered
pair of its half-line types (25 possible patterns).  The label universe is
fixed and zero counts are retained so degrees of freedom are stable across
sections; empty categories are dropped (and flagged) inside the stats layer.

Full-line pairing follows the sequential rule: a line contributes a pattern
only when both halves are scanned.  Missing halves are skipped and logged,
never repaired, and every missing half increments a misalignment warning
counter because a gap can desynchronize naive sequential pairing.

Every tally reads the poem's ``Poem.scansion_codes``, decoded once per poem:
each line's two halves as codes 0-4 for A-E, -1 where unscanned.  A full
line is ``5 * a + b``, the index of its pattern in ``FULL_LABELS``.  Counts
over any line range are differences of one prefix-count array.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .corpus import SCANSION_LABELS, Poem, resolve_line_range
from .errors import AnalysisError, InputError
from .stats import (
    LinearFit,
    RngStream,
    TestMethod,
    TestResult,
    bootstrap_null_p,
    chi2_gof,
    chi2_homogeneity,
    chi2_independence,
    ols_fit,
)

__all__ = [
    "Granularity",
    "HALF_LABELS",
    "FULL_LABELS",
    "DEFAULT_SPLIT_LINE",
    "PatternCounts",
    "PairingLog",
    "RollingProportions",
    "SplitTestTable",
    "pattern_counts",
    "rolling_pattern_proportions",
    "incidence_points",
    "cumulative_incidence_r",
    "check_split_line",
    "split_distribution_tests",
    "halves_independence_test",
]

# in code order: a label's index here is its code in ``Poem.scansion_codes``
HALF_LABELS: tuple[str, ...] = tuple(sorted(SCANSION_LABELS))
FULL_LABELS: tuple[str, ...] = tuple(a + b for a in HALF_LABELS for b in HALF_LABELS)

# canonical split used throughout
DEFAULT_SPLIT_LINE = 2300


class Granularity(Enum):
    HALF_LINE = "half"
    FULL_LINE = "full"


@dataclass(frozen=True)
class PatternCounts:
    labels: tuple[str, ...]
    counts: tuple[int, ...]


@dataclass(frozen=True)
class PairingLog:
    """Bookkeeping for sequential full-line pairing over a line range.

    ``paired + skipped_missing_a + skipped_missing_b`` equals the number of
    lines in the range; ``misalignment_warnings`` counts missing halves (a
    line missing both halves contributes two).
    """

    paired: int
    skipped_missing_a: int
    skipped_missing_b: int
    misalignment_warnings: int


@dataclass(frozen=True)
class RollingProportions:
    width: int
    starts: tuple[int, ...]
    series: dict[str, tuple[float, ...]]


@dataclass(frozen=True)
class SplitTestTable:
    split_line: int
    half_homogeneity: TestResult
    half_gof: TestResult
    full_homogeneity: TestResult
    full_gof: TestResult
    full_homogeneity_boot: TestResult
    full_gof_boot: TestResult
    log_before: PairingLog
    log_after: PairingLog


_LABELS = {Granularity.HALF_LINE: HALF_LABELS, Granularity.FULL_LINE: FULL_LABELS}


def _scansion_codes(poem: Poem) -> np.ndarray:
    """The poem's ``scansion_codes``; raises unless some half is scanned."""
    codes = poem.scansion_codes
    if not (codes >= 0).any():
        raise AnalysisError(f"poem {poem.id} unscanned")
    return codes


def _units(codes: np.ndarray, granularity: Granularity) -> np.ndarray:
    """Label code of every unit, one row per line: both halves at half-line
    granularity; at full-line granularity one column, the index ``5 * a + b``
    of the pattern in ``FULL_LABELS``, or -1 unless both halves are scanned."""
    if granularity is Granularity.HALF_LINE:
        return codes
    a, b = codes.T
    return np.where((a >= 0) & (b >= 0), 5 * a + b, -1)[:, None]


def _prefix_counts(codes: np.ndarray, granularity: Granularity) -> np.ndarray:
    """Row i holds the label counts of lines 1..i, so lines lo..hi count
    ``prefix[hi] - prefix[lo - 1]``."""
    units = _units(codes, granularity)
    per_line = (units[:, :, None]
                == np.arange(len(_LABELS[granularity]))).sum(axis=1)
    prefix = np.zeros((len(codes) + 1, per_line.shape[1]), dtype=np.int64)
    np.cumsum(per_line, axis=0, out=prefix[1:])
    return prefix


def _pairing_log(codes: np.ndarray) -> PairingLog:
    """Pairing bookkeeping of the lines whose codes are given."""
    missing = codes < 0
    missing_a = int(np.count_nonzero(missing[:, 0]))
    missing_b = int(np.count_nonzero(missing[:, 1] & ~missing[:, 0]))
    return PairingLog(len(codes) - missing_a - missing_b, missing_a, missing_b,
                      int(np.count_nonzero(missing)))


def pattern_counts(poem: Poem, granularity: Granularity,
                   first: int | None = None, last: int | None = None) -> PatternCounts:
    """Label counts over the fixed label order, zeros retained."""
    codes = _scansion_codes(poem)
    lo, hi = resolve_line_range(poem, first, last)
    prefix = _prefix_counts(codes, granularity)
    return PatternCounts(_LABELS[granularity],
                         tuple((prefix[hi] - prefix[lo - 1]).tolist()))


def rolling_pattern_proportions(
    poem: Poem,
    granularity: Granularity,
    width: int = 200,
    step: int = 1,
) -> RollingProportions:
    """Per-label proportions over rolling windows, keyed by window start.

    Windows containing no scanned units produce no data point.
    """
    codes = _scansion_codes(poem)
    if width < 1 or step < 1:
        raise InputError("width and step must be at least 1")
    labels = _LABELS[granularity]
    prefix = _prefix_counts(codes, granularity)
    starts_all = np.arange(1, poem.line_count - width + 2, step)
    window_counts = prefix[starts_all + width - 1] - prefix[starts_all - 1]
    totals = window_counts.sum(axis=1)
    keep = totals > 0
    props = window_counts[keep] / totals[keep, None]
    starts = tuple(int(s) for s in starts_all[keep])
    series = {lab: tuple(props[:, i]) for i, lab in enumerate(labels)}
    return RollingProportions(width, starts, series)


def incidence_points(poem: Poem, pattern: str,
                     granularity: Granularity) -> list[tuple[int, int]]:
    """(unit index, occurrence number) points for one pattern.

    The n-th occurrence of the pattern contributes the point (unit index, n);
    half-line units count every half position, full-line units use the line
    index.
    """
    codes = _scansion_codes(poem)
    labels = _LABELS[granularity]
    if pattern not in labels:
        raise AnalysisError(
            f"unknown {granularity.value}-line pattern {pattern!r}")
    units = _units(codes, granularity).ravel()
    xs = np.flatnonzero(units == labels.index(pattern)) + 1
    return [(x, i) for i, x in enumerate(xs.tolist(), start=1)]


def cumulative_incidence_r(
    poem: Poem, pattern: str, granularity: Granularity,
) -> tuple[list[tuple[int, int]], LinearFit]:
    """One pattern's incidence points and the fit of occurrence number
    against unit index.

    Replicates the original cumulative-incidence metric via incidence_points.
    Both coordinates are monotone increasing by construction, which is why r
    stays near 1 even under large density drift; the fit is exposed so that
    insensitivity is demonstrable.
    """
    points = incidence_points(poem, pattern, granularity)
    if len(points) < 2:
        raise AnalysisError(
            f"pattern {pattern!r} occurs fewer than twice in {poem.id}")
    return points, ols_fit([x for x, _ in points], [y for _, y in points])


def check_split_line(poem: Poem, split_line: int) -> None:
    """Raise unless ``split_line`` leaves at least one line on each side."""
    if not 1 <= split_line < poem.line_count:
        raise AnalysisError(
            f"split line {split_line} not strictly inside poem {poem.id}")


def split_distribution_tests(
    poem: Poem,
    split_line: int = DEFAULT_SPLIT_LINE,
    B: int = 20000,
    rng: RngStream | None = None,
) -> SplitTestTable:
    """Half- and full-line distribution tests before/after ``split_line``.

    Four analytic results (homogeneity and goodness of fit at each
    granularity, before-section as the GOF reference) plus bootstrap
    empirical p-values for the two full-line tests.  The bootstrap resamples
    full-line patterns at line level; one set of replicates, drawn from
    ``rng.substream(0)``, scores both statistics.  ``rng`` defaults to
    RngStream(0).
    """
    codes = _scansion_codes(poem)
    check_split_line(poem, split_line)
    if rng is None:
        rng = RngStream(0)

    half, full = (_prefix_counts(codes, granularity)
                  for granularity in Granularity)
    half_before, full_before = half[split_line], full[split_line]
    half_after, full_after = half[-1] - half_before, full[-1] - full_before
    n_b, n_a = int(full_before.sum()), int(full_after.sum())
    if half_before.sum() == 0 or half_after.sum() == 0:
        raise AnalysisError("degenerate split: a section has no scanned halves")
    if n_b == 0 or n_a == 0:
        raise AnalysisError("degenerate split: a section has no paired lines")

    try:
        half_hom = chi2_homogeneity(half_before, half_after)
        half_gof = chi2_gof(half_after, half_before)
        full_hom = chi2_homogeneity(full_before, full_after)
        full_gof = chi2_gof(full_after, full_before)
    except AnalysisError as exc:
        raise AnalysisError(f"degenerate split: {exc}")

    # pattern codes sort as the pattern strings do, so the pooled category
    # counts, and with them the draws, are those of the pooled patterns
    p_hom, p_gof = bootstrap_null_p(full_before + full_after, n_b, n_a,
                                    full_hom.statistic, full_gof.statistic,
                                    B, rng.substream(0))
    boot_hom = TestResult(full_hom.statistic, None, p_hom,
                          TestMethod.BOOTSTRAP_EMPIRICAL, n_b + n_a)
    boot_gof = TestResult(full_gof.statistic, None, p_gof,
                          TestMethod.BOOTSTRAP_EMPIRICAL, n_b + n_a)
    return SplitTestTable(
        split_line=split_line,
        half_homogeneity=half_hom,
        half_gof=half_gof,
        full_homogeneity=full_hom,
        full_gof=full_gof,
        full_homogeneity_boot=boot_hom,
        full_gof_boot=boot_gof,
        log_before=_pairing_log(codes[:split_line]),
        log_after=_pairing_log(codes[split_line:]),
    )


def halves_independence_test(poem: Poem, first: int | None = None,
                             last: int | None = None) -> TestResult:
    """Chi-square independence of a- and b-half labels over paired lines."""
    counts = pattern_counts(poem, Granularity.FULL_LINE, first, last).counts
    return chi2_independence(np.reshape(counts, (5, 5)))
