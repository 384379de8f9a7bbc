"""Self-contained statistical kernel used by every analysis module.

Implements ordinary least squares with Pearson correlation, the pooled-variance
two-sample t-test, chi-square tests (homogeneity, goodness of fit,
independence), and a seeded bootstrap for empirical p-values, in which one
draw set scores both the homogeneity and the goodness-of-fit statistic.  The
bootstrap draws its replicates in 256-row blocks, each from its own
substream, on up to every CPU; its p-values do not depend on the CPU count.
The underlying tail probabilities are computed from scratch via the regularized
incomplete gamma and beta functions (series + continued-fraction expansions),
with an accuracy contract of 1e-8 relative error against high-precision oracle
tables shipped with the test suite.

All randomness flows through :class:`RngStream`, a thin wrapper over the
counter-based Philox generator keyed by ``(seed, stream_id)``, so every Monte
Carlo result is a pure function of its inputs and stream.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import AnalysisError, InputError

__all__ = [
    "TestResult",
    "LinearFit",
    "RngStream",
    "TestMethod",
    "ols_fit",
    "pooled_t_test",
    "student_t_p",
    "chi_square_p",
    "chi2_homogeneity",
    "chi2_gof",
    "chi2_independence",
    "bootstrap_null_p",
    "regularized_gamma_q",
    "regularized_beta",
]


class TestMethod(Enum):
    POOLED_T = "pooled_t"
    CHI2_HOMOGENEITY = "chi2_homogeneity"
    CHI2_GOF = "chi2_gof"
    CHI2_INDEPENDENCE = "chi2_independence"
    BOOTSTRAP_EMPIRICAL = "bootstrap_empirical"


@dataclass(frozen=True)
class TestResult:
    """Universal output of every inferential operation.

    ``min_expected`` is a diagnostic (smallest expected cell count) for the
    chi-square methods; ``dropped_categories`` counts categories removed
    because they were empty everywhere, ``merged_categories`` counts
    goodness-of-fit categories folded into a neighbour because the reference
    had no mass there.  ``df`` is None for bootstrap-empirical results.
    """

    statistic: float
    df: float | None
    p_value: float
    method: TestMethod
    n_obs: int
    min_expected: float | None = None
    dropped_categories: int = 0
    merged_categories: int = 0


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r: float
    n: int


_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream keyed by ``(seed, stream_id)``.

    Backed by the counter-based Philox bit generator, whose output for a given
    128-bit key is identical on every platform.  Parallel or repeated Monte
    Carlo sections must each take their own substream; the derivation rule is
    ``child(k) = (seed, splitmix64(stream_id XOR splitmix64(k + 1)))`` so that
    substreams are reproducible without coordination.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = [self.seed & _MASK64, self.stream_id & _MASK64]
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, index: int) -> "RngStream":
        if index < 0:
            raise ValueError("substream index must be non-negative")
        mixed = _splitmix64((self.stream_id & _MASK64) ^ _splitmix64(index + 1))
        return RngStream(self.seed, mixed)


# --------------------------------------------------------------------------
# Special functions: regularized incomplete gamma and beta.
#
# Series expansions are used where they converge fastest and Lentz's method
# for the continued fractions elsewhere; the switching thresholds below are
# the classical ones (x < a+1 for the gamma, x < (a+1)/(a+b+2) for the beta)
# which keep every branch monotone-convergent and give small results full
# relative precision.
# --------------------------------------------------------------------------

_EPS = 1e-16
_FPMIN = 1e-300
_MAX_ITER = 600


def _gamma_p_series(a: float, x: float) -> float:
    # power series for P(a,x) around x=0; requires x < a+1
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _lentz_step(an: float, bn: float, c: float,
                d: float) -> tuple[float, float]:
    # one modified-Lentz step through the term an / (bn + ...): the new c and d
    d = an * d + bn
    if abs(d) < _FPMIN:
        d = _FPMIN
    c = bn + an / c
    if abs(c) < _FPMIN:
        c = _FPMIN
    return c, 1.0 / d


def _gamma_q_contfrac(a: float, x: float) -> float:
    # Lentz evaluation of the continued fraction for Q(a,x); requires x >= a+1
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        c, d = _lentz_step(an, b, c, d)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) = Γ(a,x)/Γ(a)."""
    if a <= 0:
        raise ValueError("shape parameter must be positive")
    if x < 0:
        raise ValueError("x must be non-negative")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_contfrac(a, x)


def _beta_contfrac(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        c, d = _lentz_step(aa, 1.0, c, d)
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        c, d = _lentz_step(aa, 1.0, c, d)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def regularized_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_contfrac(a, b, x) / a
    return 1.0 - front * _beta_contfrac(b, a, 1.0 - x) / b


def student_t_p(t: float, df: float) -> float:
    """Two-sided tail probability of Student's t with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError("df must be positive")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    p = regularized_beta(df / 2.0, 0.5, x)
    return min(max(p, 0.0), 1.0)


def chi_square_p(x2: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution."""
    if x2 < 0:
        raise ValueError("statistic must be non-negative")
    if df < 1:
        raise ValueError("df must be at least 1")
    p = regularized_gamma_q(df / 2.0, x2 / 2.0)
    return min(max(p, 0.0), 1.0)


# --------------------------------------------------------------------------
# Regression and t inference
# --------------------------------------------------------------------------

def ols_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Least-squares line through (xs, ys); ``r`` is the Pearson correlation."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("xs and ys must be 1-d sequences of equal length")
    n = x.size
    if n < 2:
        raise ValueError("need at least two points")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    sxy = float(dx @ dy)
    if sxx == 0.0:
        raise AnalysisError("zero variance in predictor")
    slope = sxy / sxx
    intercept = float(y.mean()) - slope * float(x.mean())
    if syy == 0.0:
        r = 0.0
    else:
        scale = math.sqrt(sxx * syy)
        if not 0.0 < scale < math.inf:
            # the product under- or overflowed; the factors did not
            scale = math.sqrt(sxx) * math.sqrt(syy)
        r = sxy / scale
        r = min(max(r, -1.0), 1.0)
    return LinearFit(slope=slope, intercept=intercept, r=r, n=n)


def pooled_t_test(a: Sequence[float], b: Sequence[float]) -> TestResult:
    """Two-sample Student t with pooled variance; df = len(a)+len(b)-2."""
    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    n1, n2 = xa.size, xb.size
    if n1 < 2 or n2 < 2:
        raise AnalysisError("each sample needs at least two observations")
    df = n1 + n2 - 2
    m1, m2 = float(xa.mean()), float(xb.mean())
    ss1 = float(((xa - m1) ** 2).sum())
    ss2 = float(((xb - m2) ** 2).sum())
    sp2 = (ss1 + ss2) / df
    if sp2 == 0.0:
        if m1 == m2:
            return TestResult(0.0, float(df), 1.0, TestMethod.POOLED_T, n1 + n2)
        raise AnalysisError("degenerate variance")
    t = (m1 - m2) / math.sqrt(sp2 * (1.0 / n1 + 1.0 / n2))
    return TestResult(t, float(df), student_t_p(t, df), TestMethod.POOLED_T, n1 + n2)


# --------------------------------------------------------------------------
# Chi-square tests on count vectors
# --------------------------------------------------------------------------

def chi2_homogeneity(counts_a: Sequence[int], counts_b: Sequence[int]) -> TestResult:
    """Chi-square test that two count vectors come from one distribution."""
    ca = np.asarray(counts_a, dtype=float)
    cb = np.asarray(counts_b, dtype=float)
    if ca.shape != cb.shape or ca.ndim != 1:
        raise AnalysisError("count vectors must have equal length")
    if ca.size < 2:
        raise AnalysisError("need at least two categories")
    if ca.sum() <= 0 or cb.sum() <= 0:
        raise AnalysisError("both samples must contain observations")
    if np.count_nonzero(ca + cb > 0) < 2:
        raise AnalysisError("fewer than two non-empty categories")
    return replace(chi2_independence(np.vstack([ca, cb])),
                   method=TestMethod.CHI2_HOMOGENEITY)


def chi2_gof(observed: Sequence[int], reference_counts: Sequence[int]) -> TestResult:
    """Goodness of fit of ``observed`` against the proportions of a reference.

    Expected counts are reference proportions times the observed total.
    Categories empty in both vectors are dropped; categories with observed
    mass but an empty reference are folded into the smallest-index category
    the reference does cover (both adjustments flagged in the result).
    """
    obs = np.asarray(observed, dtype=float)
    ref = np.asarray(reference_counts, dtype=float)
    if obs.shape != ref.shape or obs.ndim != 1:
        raise AnalysisError("count vectors must have equal length")
    if ref.sum() <= 0:
        raise AnalysisError("reference must contain observations")
    if obs.sum() <= 0:
        raise AnalysisError("observed must contain observations")
    keep = (obs + ref) > 0
    dropped = int(obs.size - keep.sum())
    obs, ref = obs[keep], ref[keep]

    merged = 0
    bad = (ref == 0) & (obs > 0)
    if bad.any():
        target_candidates = np.nonzero(ref > 0)[0]
        if target_candidates.size == 0:
            raise AnalysisError("reference has no coverage of observed categories")
        target = int(target_candidates[0])
        obs[target] += float(obs[bad].sum())
        merged = int(bad.sum())
        keep2 = ~bad
        obs, ref = obs[keep2], ref[keep2]

    if obs.size < 2:
        raise AnalysisError("fewer than two usable categories")
    # multiply by the ratio of totals so observed == reference gives an exact 0
    expected = ref * (obs.sum() / ref.sum())
    stat = float((((obs - expected) ** 2) / expected).sum())
    df = obs.size - 1
    return TestResult(
        statistic=stat,
        df=float(df),
        p_value=chi_square_p(stat, df),
        method=TestMethod.CHI2_GOF,
        n_obs=int(obs.sum()),
        min_expected=float(expected.min()),
        dropped_categories=dropped,
        merged_categories=merged,
    )


def chi2_independence(table: Sequence[Sequence[int]]) -> TestResult:
    """Chi-square independence test on an r x c contingency table.

    All-zero rows and columns are dropped (flagged) and df adjusted to
    (r'-1)(c'-1).
    """
    t = np.asarray(table, dtype=float)
    if t.ndim != 2:
        raise AnalysisError("table must be two-dimensional")
    keep_rows = t.sum(axis=1) > 0
    keep_cols = t.sum(axis=0) > 0
    dropped = int((~keep_rows).sum() + (~keep_cols).sum())
    t = t[keep_rows][:, keep_cols]
    if t.shape[0] < 2 or t.shape[1] < 2:
        raise AnalysisError("degenerate contingency table")
    # every kept row and column holds a count, so every expected count is > 0
    n = float(t.sum())
    expected = t.sum(axis=1, keepdims=True) * t.sum(axis=0, keepdims=True) / n
    stat = float((((t - expected) ** 2) / expected).sum())
    df = (t.shape[0] - 1) * (t.shape[1] - 1)
    return TestResult(
        statistic=stat,
        df=float(df),
        p_value=chi_square_p(stat, df),
        method=TestMethod.CHI2_INDEPENDENCE,
        n_obs=int(n),
        min_expected=float(expected.min()),
        dropped_categories=dropped,
    )


# --------------------------------------------------------------------------
# Bootstrap machinery
# --------------------------------------------------------------------------

def _homogeneity_stats(a: np.ndarray, b: np.ndarray, n_a: int,
                       n_b: int) -> np.ndarray:
    # a, b: (B, k) count matrices whose rows sum to n_a and n_b; returns (B,)
    # Pearson statistics
    tot = a + b
    n = n_a + n_b
    ea = n_a * tot / n
    eb = n_b * tot / n
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(tot > 0, (a - ea) ** 2 / ea + (b - eb) ** 2 / eb, 0.0)
    return terms.sum(axis=1)


def _gof_stats(ref: np.ndarray, obs: np.ndarray, n_ref: int,
               n_obs: int) -> np.ndarray:
    """Pearson GOF statistic of each ``obs`` row against its ``ref`` row.

    Every ``ref`` row sums to ``n_ref`` and every ``obs`` row to ``n_obs``.
    Same merge rule as ``chi2_gof``: observed mass in cells the reference
    row leaves empty moves to the row's first covered cell, which keeps the
    row's total.  Every reference row holds at least one item, so that cell
    exists.
    """
    covered = ref > 0
    uncovered = np.where(covered, 0, obs).sum(axis=1)
    obs = np.where(covered, obs, 0)
    obs[np.arange(obs.shape[0]), covered.argmax(axis=1)] += uncovered
    expected = ref * (n_obs / n_ref)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(covered, (obs - expected) ** 2 / expected, 0.0)
    return terms.sum(axis=1)


# Replicate rows per block.  Block i holds rows _BLOCK * i onwards and draws
# them from rng.substream(i), so the block size is part of the draw stream.
_BLOCK = 256
# R's almost.1 (chisq.test): a replicate statistic that falls short of the
# observed one by rounding alone ties with it, and a tie counts as reaching it.
# The factor is 1 - 2**-46; summation order moves a statistic by far less.
_ALMOST_ONE = 1.0 - 64 * float(np.finfo(float).eps)


def _block_exceedances(index: int, probs: np.ndarray, n_a: int, n_b: int,
                       hom_floor: float, gof_floor: float, B: int,
                       rng: RngStream) -> tuple[int, int]:
    # replicate block ``index``: its group-a rows, then its group-b rows,
    # from its own substream; returns the two exceedance counts
    gen = rng.substream(index).generator()
    rows = min(_BLOCK, B - _BLOCK * index)
    a = gen.multinomial(n_a, probs, size=rows)
    b = gen.multinomial(n_b, probs, size=rows)
    hom = _homogeneity_stats(a, b, n_a, n_b)
    gof = _gof_stats(a, b, n_a, n_b)
    return (int(np.count_nonzero(hom >= hom_floor)),
            int(np.count_nonzero(gof >= gof_floor)))


def bootstrap_null_p(
    pooled_counts: Sequence[int],
    n_a: int,
    n_b: int,
    observed_homogeneity: float,
    observed_gof: float,
    B: int,
    rng: RngStream,
) -> tuple[float, float]:
    """Empirical homogeneity and goodness-of-fit p-values under one null.

    The null is one common source distribution.  Each replicate resamples two
    groups of sizes ``n_a`` and ``n_b`` with replacement from the pooled
    items, whose category counts are ``pooled_counts``, as multinomial draws
    over the categories that hold an item.  Empty categories are dropped
    first: numpy draws the last category as the remainder, so an empty last
    category would change the draws.  Replicate block ``i`` is rows
    ``256 * i`` to ``256 * i + 255`` (the last block may be short); it draws
    its group-a rows, then its group-b rows, from
    ``rng.substream(i).generator()``.  Both statistics are scored on the same
    replicates, homogeneity of a against b and goodness of fit of b against a
    as the reference, and each p-value is ``(1 + #{stat >= observed}) /
    (B + 1)``.  A statistic of at least ``1 - 64 * eps`` times the observed
    one (R's ``almost.1``) counts as reaching it, so a replicate whose exact
    statistic ties with the observed one counts whatever the summation order.

    The blocks are shared out among the calling thread and up to
    ``os.cpu_count() - 1`` worker threads, never more threads than blocks.
    Each block depends only on its index, so the p-values depend only on the
    arguments, not on the CPU count or the scheduling.  An exception raised
    in a block is re-raised here once every thread has stopped.
    """
    if B < 1000:
        raise InputError("B must be at least 1000")
    counts = np.asarray(pooled_counts)
    if (counts < 0).any():
        raise ValueError("pooled counts must not be negative")
    if n_a + n_b != counts.sum():
        raise ValueError("n_a + n_b must equal the pooled item count")
    if n_a < 1 or n_b < 1:
        raise ValueError("both group sizes must be positive")
    counts = counts[counts > 0]
    probs = counts / counts.sum()
    hom_floor = _ALMOST_ONE * observed_homogeneity
    gof_floor = _ALMOST_ONE * observed_gof

    blocks = -(-B // _BLOCK)
    next_block = itertools.count()
    taking = threading.Lock()
    totals: list[tuple[int, int]] = []
    errors: list[BaseException] = []

    def drain() -> None:
        hom = gof = 0
        try:
            while not errors:
                with taking:
                    index = next(next_block)
                if index >= blocks:
                    break
                h, g = _block_exceedances(index, probs, n_a, n_b, hom_floor,
                                          gof_floor, B, rng)
                hom += h
                gof += g
        except BaseException as exc:
            errors.append(exc)
        totals.append((hom, gof))

    workers: list[threading.Thread] = []
    try:
        for _ in range(min(os.cpu_count() or 1, blocks) - 1):
            worker = threading.Thread(target=drain, daemon=True)
            worker.start()
            workers.append(worker)
        drain()
    finally:
        for worker in workers:
            worker.join()
    if errors:
        raise errors[0]
    exceed_hom = sum(hom for hom, _ in totals)
    exceed_gof = sum(gof for _, gof in totals)
    return (1 + exceed_hom) / (B + 1), (1 + exceed_gof) / (B + 1)
