"""Metrical pattern tabulation and distribution-shift analyses.

Half-lines carry one of five scansion types A-E; a full line is the ordered
pair of its half-line types (25 possible patterns).  The label universe is
fixed and zero counts are retained so degrees of freedom are stable across
sections; empty categories are dropped (and flagged) inside the stats layer.

Full-line pairing follows the sequential rule: a line contributes a pattern
only when both halves are scanned.  Missing halves are skipped and logged,
never repaired, and every missing half increments a misalignment warning
counter because a gap can desynchronize naive sequential pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .corpus import Poem
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
    "pair_full_lines",
    "pattern_counts",
    "rolling_pattern_proportions",
    "incidence_points",
    "cumulative_incidence_r",
    "check_split_line",
    "split_distribution_tests",
    "halves_independence_test",
]

HALF_LABELS: tuple[str, ...] = ("A", "B", "C", "D", "E")
FULL_LABELS: tuple[str, ...] = tuple(a + b for a in HALF_LABELS for b in HALF_LABELS)

# canonical split used throughout
DEFAULT_SPLIT_LINE = 2300


class Granularity(Enum):
    HALF_LINE = "half"
    FULL_LINE = "full"


@dataclass(frozen=True)
class PatternCounts:
    granularity: Granularity
    labels: tuple[str, ...]
    counts: tuple[int, ...]
    section: tuple[int, int]

    @property
    def total(self) -> int:
        return sum(self.counts)


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
    granularity: Granularity
    width: int
    step: int
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


def _require_scansion(poem: Poem) -> None:
    if not any(ln.a_pattern or ln.b_pattern for ln in poem.lines):
        raise AnalysisError(f"poem {poem.id} unscanned")


def _resolve_range(poem: Poem, first: int | None, last: int | None) -> tuple[int, int]:
    lo = 1 if first is None else first
    hi = poem.line_count if last is None else last
    if not 1 <= lo <= hi <= poem.line_count:
        raise AnalysisError(
            f"poem {poem.id}: bad line range {lo}-{hi} (poem has {poem.line_count})")
    return lo, hi


def pair_full_lines(poem: Poem, first: int | None = None,
                    last: int | None = None) -> tuple[list[str], PairingLog]:
    """Sequential full-line patterns over a range, with skip accounting."""
    _require_scansion(poem)
    lo, hi = _resolve_range(poem, first, last)
    patterns = []
    missing_a = missing_b = warnings = 0
    for ln in poem.lines[lo - 1:hi]:
        if ln.a_pattern is None:
            missing_a += 1
            warnings += 1 if ln.b_pattern is not None else 2
        elif ln.b_pattern is None:
            missing_b += 1
            warnings += 1
        else:
            patterns.append(ln.a_pattern + ln.b_pattern)
    return patterns, PairingLog(len(patterns), missing_a, missing_b, warnings)


def _per_line_label_matrix(poem: Poem, granularity: Granularity) -> np.ndarray:
    """(line_count, n_labels) matrix of label incidences per line.

    Full-line column ``5 * a + b`` counts the lines whose halves are labels
    ``a`` and ``b``, so a row sum reshaped to 5x5 is the (a, b) table.
    """
    code = {lab: i for i, lab in enumerate(HALF_LABELS)}
    a = np.fromiter((code.get(ln.a_pattern, -1) for ln in poem.lines),
                    np.int64, poem.line_count)
    b = np.fromiter((code.get(ln.b_pattern, -1) for ln in poem.lines),
                    np.int64, poem.line_count)
    rows = np.arange(poem.line_count)
    if granularity is Granularity.HALF_LINE:
        m = np.zeros((poem.line_count, len(HALF_LABELS)), dtype=np.int64)
        for half in (a, b):
            m[rows[half >= 0], half[half >= 0]] += 1
    else:
        m = np.zeros((poem.line_count, len(FULL_LABELS)), dtype=np.int64)
        both = (a >= 0) & (b >= 0)
        m[rows[both], 5 * a[both] + b[both]] = 1
    return m


def pattern_counts(poem: Poem, granularity: Granularity,
                   first: int | None = None, last: int | None = None) -> PatternCounts:
    """Label counts over the fixed label order, zeros retained."""
    _require_scansion(poem)
    lo, hi = _resolve_range(poem, first, last)
    counts = _per_line_label_matrix(poem, granularity)[lo - 1:hi].sum(axis=0)
    labels = HALF_LABELS if granularity is Granularity.HALF_LINE else FULL_LABELS
    return PatternCounts(granularity, labels, tuple(int(c) for c in counts),
                         (lo, hi))


def rolling_pattern_proportions(
    poem: Poem,
    granularity: Granularity,
    width: int = 200,
    step: int = 1,
) -> RollingProportions:
    """Per-label proportions over rolling windows, keyed by window start.

    Windows containing no scanned units produce no data point.
    """
    _require_scansion(poem)
    if width < 1 or step < 1:
        raise InputError("width and step must be at least 1")
    labels = HALF_LABELS if granularity is Granularity.HALF_LINE else FULL_LABELS
    m = _per_line_label_matrix(poem, granularity)
    if poem.line_count < width:
        return RollingProportions(granularity, width, step, (),
                                  {lab: () for lab in labels})
    prefix = np.zeros((poem.line_count + 1, m.shape[1]), dtype=np.int64)
    np.cumsum(m, axis=0, out=prefix[1:])
    starts_all = np.arange(1, poem.line_count - width + 2, step)
    window_counts = prefix[starts_all + width - 1] - prefix[starts_all - 1]
    totals = window_counts.sum(axis=1)
    keep = totals > 0
    props = window_counts[keep] / totals[keep, None]
    starts = tuple(int(s) for s in starts_all[keep])
    series = {lab: tuple(props[:, i]) for i, lab in enumerate(labels)}
    return RollingProportions(granularity, width, step, starts, series)


def incidence_points(poem: Poem, pattern: str,
                     granularity: Granularity) -> list[tuple[int, int]]:
    """(unit index, occurrence number) points for one pattern.

    The n-th occurrence of the pattern contributes the point (unit index, n);
    half-line units count every half position, full-line units use the line
    index.
    """
    _require_scansion(poem)
    xs = []
    if granularity is Granularity.HALF_LINE:
        if pattern not in HALF_LABELS:
            raise AnalysisError(f"unknown half-line pattern {pattern!r}")
        unit = 0
        for ln in poem.lines:
            for half in (ln.a_pattern, ln.b_pattern):
                unit += 1
                if half == pattern:
                    xs.append(unit)
    else:
        if pattern not in FULL_LABELS:
            raise AnalysisError(f"unknown full-line pattern {pattern!r}")
        for ln in poem.lines:
            if ln.a_pattern is not None and ln.b_pattern is not None:
                if ln.a_pattern + ln.b_pattern == pattern:
                    xs.append(ln.index)
    return [(x, i + 1) for i, x in enumerate(xs)]


def cumulative_incidence_r(poem: Poem, pattern: str,
                           granularity: Granularity) -> LinearFit:
    """Fit occurrence number against unit index for one pattern.

    Replicates the original cumulative-incidence metric via incidence_points.
    Both coordinates are monotone increasing by construction, which is why r
    stays near 1 even under large density drift; the fit is exposed so that
    insensitivity is demonstrable.
    """
    points = incidence_points(poem, pattern, granularity)
    if len(points) < 2:
        raise AnalysisError(
            f"pattern {pattern!r} occurs fewer than twice in {poem.id}")
    return ols_fit([x for x, _ in points], [y for _, y in points])


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
    _require_scansion(poem)
    check_split_line(poem, split_line)
    if rng is None:
        rng = RngStream(0)

    half, full = (_per_line_label_matrix(poem, granularity)
                  for granularity in Granularity)
    half_before, full_before = (m[:split_line].sum(axis=0) for m in (half, full))
    half_after, full_after = (m[split_line:].sum(axis=0) for m in (half, full))
    patterns_before, log_before = pair_full_lines(poem, 1, split_line)
    patterns_after, log_after = pair_full_lines(poem, split_line + 1)
    if half_before.sum() == 0 or half_after.sum() == 0:
        raise AnalysisError("degenerate split: a section has no scanned halves")
    if not patterns_before or not patterns_after:
        raise AnalysisError("degenerate split: a section has no paired lines")

    try:
        half_hom = chi2_homogeneity(half_before, half_after)
        half_gof = chi2_gof(half_after, half_before)
        full_hom = chi2_homogeneity(full_before, full_after)
        full_gof = chi2_gof(full_after, full_before)
    except AnalysisError as exc:
        raise AnalysisError(f"degenerate split: {exc}")

    pooled = patterns_before + patterns_after
    n_b, n_a = len(patterns_before), len(patterns_after)
    p_hom, p_gof = bootstrap_null_p(pooled, n_b, n_a, full_hom.statistic,
                                    full_gof.statistic, B, rng.substream(0))
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
        log_before=log_before,
        log_after=log_after,
    )


def halves_independence_test(poem: Poem, first: int | None = None,
                             last: int | None = None) -> TestResult:
    """Chi-square independence of (a_pattern, b_pattern) over paired lines."""
    counts = pattern_counts(poem, Granularity.FULL_LINE, first, last).counts
    return chi2_independence(np.reshape(counts, (5, 5)))
