"""Unit and property tests for the statistical kernel."""

import itertools
import json
import math
import os
import pathlib
import sys
import threading
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    P_PRINT_TOLERANCE,
    REFERENCE_TUPLES,
    block_draws,
    loop_gof_stats,
    print_precision_preimage,
    two_draw_bootstrap_p,
)
from versemetry import stats
from versemetry.errors import AnalysisError
from versemetry.stats import (
    LinearFit,
    RngStream,
    TestMethod,
    bootstrap_null_p,
    chi2_gof,
    chi2_homogeneity,
    chi2_independence,
    chi_square_p,
    ols_fit,
    pooled_t_test,
    student_t_p,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------------------
# Tail probabilities against frozen 50-digit oracle tables
# ---------------------------------------------------------------------------

def _relative_error(got, want):
    return abs(got - want) / want if want != 0 else abs(got)


def test_chi_square_p_against_oracle_table():
    rows = json.loads((FIXTURES / "chi2_oracle.json").read_text())
    assert len(rows) > 100
    for row in rows:
        got = chi_square_p(row["x2"], row["df"])
        assert _relative_error(got, float(row["p"])) <= 1e-8


def test_student_t_p_against_oracle_table():
    rows = json.loads((FIXTURES / "t_oracle.json").read_text())
    assert len(rows) > 100
    for row in rows:
        got = student_t_p(row["t"], row["df"])
        assert _relative_error(got, float(row["p"])) <= 1e-8


def test_student_t_p_trivial_values():
    assert student_t_p(0.0, 1) == 1.0
    assert student_t_p(0.0, 237.5) == 1.0
    # symmetry in the sign of the statistic
    assert student_t_p(-2.3, 11) == pytest.approx(student_t_p(2.3, 11), abs=1e-15)


def test_chi_square_p_trivial_and_standard_values():
    assert chi_square_p(0.0, 5) == 1.0
    assert chi_square_p(3.841459, 1) == pytest.approx(0.05, abs=1e-4)
    assert 0.4 < chi_square_p(24.0, 24) < 0.5


# recorded reprs, so that a change in the last bit fails here where the
# oracle tables allow 1e-8; the arguments take each function down both of
# its branches (x < a + 1 or not for the gamma, x < (a + 1)/(a + b + 2) or
# not for the beta) and include criterion 1's (t, df)
PINNED_SPECIAL_VALUES = [
    (stats.regularized_beta, (0.5, 0.5, 0.1), "0.20483276469913328"),
    (stats.regularized_beta, (0.5, 0.5, 0.9), "0.7951672353008667"),
    (stats.regularized_beta, (2.0, 3.0, 0.2), "0.18079999999999988"),
    (stats.regularized_beta, (2.0, 3.0, 0.7), "0.9163"),
    (stats.regularized_beta, (10.0, 0.5, 0.3), "1.2205229279531734e-06"),
    (stats.regularized_beta, (10.0, 0.5, 0.95), "0.31715157546554373"),
    (stats.regularized_beta, (0.3, 7.5, 0.01), "0.4976291390471239"),
    (stats.regularized_beta, (0.3, 7.5, 0.5), "0.9993290843095567"),
    (stats.regularized_beta, (50.0, 60.0, 0.4), "0.12470685834309153"),
    (stats.regularized_beta, (50.0, 60.0, 0.5), "0.830907293901681"),
    (stats.regularized_gamma_q, (0.5, 0.2), "0.5270892568655383"),
    (stats.regularized_gamma_q, (0.5, 3.0), "0.014305878435429633"),
    (stats.regularized_gamma_q, (3.0, 1.5), "0.8088468305380582"),
    (stats.regularized_gamma_q, (3.0, 9.0), "0.006232195106377318"),
    (stats.regularized_gamma_q, (12.5, 10.0), "0.7468253060165373"),
    (stats.regularized_gamma_q, (12.5, 30.0), "0.0001045548613152645"),
    (stats.regularized_gamma_q, (100.0, 90.0), "0.8417790108135703"),
    (stats.regularized_gamma_q, (100.0, 130.0), "0.0027504083673065157"),
    (student_t_p, (0.94, 6), "0.383502205602828"),
    (student_t_p, (1.03, 9), "0.32989432802016916"),
    (student_t_p, (2.07, 27), "0.04814227006122483"),
    (student_t_p, (0.19, 7), "0.8547014880910837"),
    (student_t_p, (5.0, 3), "0.015392438073302291"),
    (student_t_p, (12.0, 40), "7.824171304255941e-15"),
    (student_t_p, (0.5, 120.5), "0.6179869299235691"),
    (chi_square_p, (0.5, 1), "0.4795001221869536"),
    (chi_square_p, (3.841459, 1), "0.049999994653195795"),
    (chi_square_p, (24.0, 24), "0.4615973330636174"),
    (chi_square_p, (40.0, 10), "1.694474393006736e-05"),
    (chi_square_p, (2.0, 30), "0.9999999999997"),
    (chi_square_p, (150.0, 100), "0.0009039320423539931"),
]


@pytest.mark.parametrize("func,args,want", PINNED_SPECIAL_VALUES)
def test_special_functions_pinned_to_the_bit(func, args, want):
    assert repr(func(*args)) == want


# The published (t, df, P) tuples were rounded from one unrounded statistic,
# so the reproducible claim is that each printed P is the exact two-sided tail
# of some t that rounds to the printed t.  Criterion 1 in the acceptance suite
# checks the same property through the same helper.
@pytest.mark.parametrize("t2dp,df,p4dp", REFERENCE_TUPLES)
def test_reference_tuples_consistent_at_print_precision(t2dp, df, p4dp):
    t_star = print_precision_preimage(t2dp, df, p4dp)
    assert t_star is not None, "published P outside the rounding-interval bracket"
    assert student_t_p(t_star, df) == pytest.approx(p4dp, abs=P_PRINT_TOLERANCE)
    assert round(t_star, 2) == t2dp


@given(
    df=st.floats(min_value=0.5, max_value=300),
    t1=st.floats(min_value=0, max_value=20),
    t2=st.floats(min_value=0, max_value=20),
)
def test_student_t_p_monotone_decreasing(df, t1, t2):
    lo, hi = sorted([t1, t2])
    assert student_t_p(hi, df) <= student_t_p(lo, df) + 1e-12


@given(
    df=st.integers(min_value=1, max_value=250),
    x1=st.floats(min_value=0, max_value=500),
    x2=st.floats(min_value=0, max_value=500),
)
def test_chi_square_p_monotone_decreasing(df, x1, x2):
    lo, hi = sorted([x1, x2])
    assert chi_square_p(hi, df) <= chi_square_p(lo, df) + 1e-12


# ---------------------------------------------------------------------------
# Least squares
# ---------------------------------------------------------------------------

def test_ols_fit_exact_line():
    fit = ols_fit([1, 2, 3], [2, 4, 6])
    assert fit == LinearFit(slope=2.0, intercept=0.0, r=1.0, n=3)


def test_ols_fit_flat_response():
    fit = ols_fit([1, 2, 3], [3, 3, 3])
    assert fit.slope == 0.0
    assert fit.r == 0.0
    assert fit.intercept == 3.0


def test_ols_fit_degenerate_predictor():
    with pytest.raises(AnalysisError, match="zero variance in predictor"):
        ols_fit([2, 2, 2], [1, 2, 3])


def test_ols_fit_negative_correlation():
    fit = ols_fit([0, 1, 2, 3], [9, 7, 5, 3])
    assert fit.slope == pytest.approx(-2.0)
    assert fit.r == pytest.approx(-1.0)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-100, max_value=100),
            st.floats(min_value=-100, max_value=100),
        ),
        min_size=2,
        max_size=40,
    )
)
# sxx * syy underflows to 0 although neither factor does
@example(points=[(0.0, 0.0), (5.3766055059734485e-86, 5.3766055059734485e-86)])
def test_ols_fit_r_bounded(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    try:
        fit = ols_fit(xs, ys)
    except AnalysisError:
        return  # predictor variance zero (or underflowed to zero)
    assert -1.0 <= fit.r <= 1.0
    assert fit.n == len(xs)


# ---------------------------------------------------------------------------
# Pooled t
# ---------------------------------------------------------------------------

def test_pooled_t_identical_samples():
    res = pooled_t_test([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    assert res.method is TestMethod.POOLED_T


def test_pooled_t_engineered_df27():
    # 23 + 6 observations, pooled variance exactly 1, |t| exactly 2.07.
    c = 1.0
    a = [c, -c] * 11 + [0.0]
    m = 2.07 * math.sqrt(1.0 / 23 + 1.0 / 6)
    d = math.sqrt(5.0 / 6.0)
    b = [m + d, m - d] * 3
    res = pooled_t_test(b, a)
    assert res.df == 27
    assert res.statistic == pytest.approx(2.07, abs=1e-12)
    assert res.p_value == pytest.approx(0.0483, abs=5e-4)


def test_pooled_t_constant_unequal_samples():
    with pytest.raises(AnalysisError, match="degenerate variance"):
        pooled_t_test([1.0, 1.0], [2.0, 2.0])


def test_pooled_t_separated_samples():
    b = [1.0 + 1e-4, 1.0 - 1e-4, 1.0 + 5e-5, 1.0 - 5e-5]
    res = pooled_t_test([0.0, 0.0, 0.0, 0.0], b)
    assert res.p_value < 0.001


@pytest.mark.parametrize("n1,n2,df", [(4, 4, 6), (4, 7, 9), (23, 6, 27), (4, 5, 7)])
def test_pooled_t_df_bookkeeping(n1, n2, df):
    rng = RngStream(2024, 5).generator()
    a = rng.normal(size=n1)
    b = rng.normal(size=n2)
    res = pooled_t_test(a, b)
    assert res.df == df
    assert res.n_obs == n1 + n2


# ---------------------------------------------------------------------------
# Chi-square tests on counts
# ---------------------------------------------------------------------------

def test_homogeneity_identical_rows():
    res = chi2_homogeneity([10, 20, 30], [10, 20, 30])
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    assert res.df == 2


def test_homogeneity_2x2_extreme():
    res = chi2_homogeneity([50, 50], [90, 10])
    # closed form n(ad-bc)^2 / ((a+b)(c+d)(a+c)(b+d))
    want = 200 * (50 * 10 - 50 * 90) ** 2 / (100 * 100 * 140 * 60)
    assert res.statistic == pytest.approx(want)
    assert res.statistic == pytest.approx(38.0952, abs=1e-4)
    assert res.p_value < 1e-8
    assert res.df == 1


def test_homogeneity_drops_empty_categories():
    res = chi2_homogeneity([5, 0, 5], [3, 0, 7])
    assert res.dropped_categories == 1
    assert res.df == 1


def test_homogeneity_min_expected_diagnostic():
    res = chi2_homogeneity([50, 2], [48, 4])
    assert res.min_expected == pytest.approx(3.0)


@given(
    st.lists(st.integers(min_value=0, max_value=200), min_size=2, max_size=8),
    st.lists(st.integers(min_value=0, max_value=200), min_size=2, max_size=8),
)
def test_homogeneity_symmetric(a, b):
    k = min(len(a), len(b))
    a, b = a[:k], b[:k]
    if sum(a) == 0 or sum(b) == 0 or sum(1 for x, y in zip(a, b) if x + y > 0) < 2:
        return
    r1 = chi2_homogeneity(a, b)
    r2 = chi2_homogeneity(b, a)
    assert r1.statistic == pytest.approx(r2.statistic, rel=1e-12, abs=1e-12)
    assert r1.p_value == pytest.approx(r2.p_value, rel=1e-12, abs=1e-12)


@given(
    st.lists(st.integers(min_value=0, max_value=200), min_size=2, max_size=8),
    st.lists(st.integers(min_value=0, max_value=200), min_size=2, max_size=8),
)
def test_homogeneity_is_independence_of_the_2xk_table(a, b):
    k = min(len(a), len(b))
    a, b = a[:k], b[:k]
    if sum(a) == 0 or sum(b) == 0 or sum(1 for x, y in zip(a, b) if x + y > 0) < 2:
        return
    hom = chi2_homogeneity(a, b)
    assert hom.method is TestMethod.CHI2_HOMOGENEITY
    assert replace(hom, method=TestMethod.CHI2_INDEPENDENCE) == (
        chi2_independence([a, b]))


def test_gof_proportional_observed():
    res = chi2_gof([10, 20, 30], [1, 2, 3])
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_gof_hand_computed_example():
    res = chi2_gof([8, 2], [5, 5])
    assert res.statistic == pytest.approx(3.6)
    assert res.p_value == pytest.approx(0.0578, abs=5e-4)
    assert res.min_expected == pytest.approx(5.0)


def test_gof_merges_uncovered_categories():
    # observed mass where the reference has none folds into index 0
    res = chi2_gof([5, 3, 2], [5, 5, 0])
    assert res.merged_categories == 1
    assert res.df == 1
    # merged observed is [7, 3] against expected [5, 5]
    assert res.statistic == pytest.approx((4 + 4) / 5)


@given(st.lists(st.integers(min_value=1, max_value=500), min_size=2, max_size=10))
def test_gof_self_reference_is_zero(x):
    res = chi2_gof(x, x)
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_independence_2x2():
    res = chi2_independence([[50, 50], [90, 10]])
    hom = chi2_homogeneity([50, 50], [90, 10])
    assert res.statistic == pytest.approx(hom.statistic)
    assert res.df == 1
    assert res.method is TestMethod.CHI2_INDEPENDENCE


def test_independence_drops_zero_lines():
    res = chi2_independence([[5, 0, 5], [0, 0, 0], [3, 0, 7]])
    assert res.dropped_categories == 2
    assert res.df == 1


def test_independence_degenerate():
    with pytest.raises(AnalysisError, match="degenerate contingency table"):
        chi2_independence([[3, 0], [7, 0]])


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------

def test_rng_stream_reproducible():
    a = RngStream(42, 7).generator().integers(0, 2**63, size=16)
    b = RngStream(42, 7).generator().integers(0, 2**63, size=16)
    assert np.array_equal(a, b)


def test_rng_stream_distinct_streams():
    a = RngStream(42, 0).generator().integers(0, 2**63, size=16)
    b = RngStream(42, 1).generator().integers(0, 2**63, size=16)
    assert not np.array_equal(a, b)


def test_rng_substreams_deterministic_and_distinct():
    parent = RngStream(9, 3)
    kids = [parent.substream(k) for k in range(4)]
    again = [parent.substream(k) for k in range(4)]
    assert kids == again
    ids = {k.stream_id for k in kids} | {parent.stream_id}
    assert len(ids) == 5


def test_rng_substream_rejects_negative_index():
    with pytest.raises(ValueError):
        RngStream(1).substream(-1)


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------

def _pooled(counts_a, counts_b):
    """Pooled category counts and the two group sizes."""
    return ([x + y for x, y in zip(counts_a, counts_b)], sum(counts_a),
            sum(counts_b))


def _items(counts):
    """One item per occurrence, named by its category's index, for the
    item-based reference."""
    return [i for i, count in enumerate(counts) for _ in range(count)]


def test_bootstrap_zero_observed_stat():
    pooled, n_a, n_b = _pooled([5, 5], [5, 5])
    assert bootstrap_null_p(pooled, n_a, n_b, 0.0, 0.0, 1000,
                            RngStream(3)) == (1.0, 1.0)


def test_bootstrap_deterministic():
    pooled, n_a, n_b = _pooled([41, 34], [34, 41])
    hom = chi2_homogeneity([41, 34], [34, 41]).statistic
    gof = chi2_gof([34, 41], [41, 34]).statistic
    p1 = bootstrap_null_p(pooled, n_a, n_b, hom, gof, 2000, RngStream(11, 2))
    p2 = bootstrap_null_p(pooled, n_a, n_b, hom, gof, 2000, RngStream(11, 2))
    assert p1 == p2


def test_bootstrap_matches_analytic_2x2():
    # large enough that the discrete atoms of the 2x2 statistic are small
    counts_a, counts_b = [386, 364], [364, 386]
    analytic = chi2_homogeneity(counts_a, counts_b)
    assert 0.24 < analytic.p_value < 0.26
    pooled, n_a, n_b = _pooled(counts_a, counts_b)
    p_hom, _ = bootstrap_null_p(pooled, n_a, n_b, analytic.statistic, 1.0,
                                20000, RngStream(5))
    assert abs(p_hom - analytic.p_value) <= 0.02


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_bootstrap_converges_to_analytic_over_seeds(seed):
    counts_a, counts_b = [120, 80, 40], [100, 90, 50]
    analytic = chi2_homogeneity(counts_a, counts_b)
    assert 0.05 < analytic.p_value < 0.95
    pooled, n_a, n_b = _pooled(counts_a, counts_b)
    p_hom, _ = bootstrap_null_p(pooled, n_a, n_b, analytic.statistic, 1.0,
                                20000, RngStream(seed))
    assert abs(p_hom - analytic.p_value) <= 0.02


def test_bootstrap_gof_statistic_runs():
    pooled, n_a, n_b = _pooled([50, 30, 20], [40, 35, 25])
    _, p_gof = bootstrap_null_p(pooled, n_a, n_b, 1.0, 1.0, 1000, RngStream(8))
    assert 0.0 < p_gof <= 1.0


@pytest.mark.parametrize("workers, B", [(0, 3001), (1, 3001), (2, 3001),
                                        (3, 3001), (15, 1000), (7, 40000)])
def test_bootstrap_p_independent_of_worker_count(workers, B, monkeypatch):
    # each block draws from its own substream, so the p-values do not depend
    # on how many threads share the blocks; a block lost or scored twice
    # would move them.  A rare category leaves some replicate rows with a
    # zero reference count, so the GOF merge rule runs inside the blocks too.
    pooled, n_a, n_b = _pooled([40, 25, 9, 1], [30, 30, 12, 0])
    want = two_draw_bootstrap_p(_items(pooled), n_a, n_b, 3.0, 3.0, B,
                                RngStream(12))
    started = []

    class Worker(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(os, "cpu_count", lambda: workers + 1)
    monkeypatch.setattr(threading, "Thread", Worker)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = bootstrap_null_p(pooled, n_a, n_b, 3.0, 3.0, B, RngStream(12))
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    # never more threads than blocks
    assert len(started) == min(workers + 1, -(-B // 256)) - 1


def test_bootstrap_block_exception_escapes_unchanged(monkeypatch):
    pooled, n_a, n_b = _pooled([40, 25, 9, 1], [30, 30, 12, 0])
    gof_stats = stats._gof_stats
    calls = itertools.count()
    raised = []

    def third_call_fails(*args):
        if next(calls) == 2:
            raised.append(ValueError("third block"))
            raise raised[0]
        return gof_stats(*args)

    monkeypatch.setattr(stats, "_gof_stats", third_call_fails)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    threads = threading.active_count()
    with pytest.raises(ValueError) as info:
        bootstrap_null_p(pooled, n_a, n_b, 3.0, 3.0, 5000, RngStream(12))
    assert info.value is raised[0]
    assert threading.active_count() == threads


@pytest.mark.parametrize("counts_a, counts_b, seed", [
    ([40, 25, 9, 1], [30, 30, 12, 0], 12),
    ([50, 30, 20], [40, 35, 25], 8),
    ([386, 364], [364, 386], 5),
], ids=["rare", "three", "two"])
def test_bootstrap_matches_two_draw_reference(counts_a, counts_b, seed):
    # one draw set must give exactly the p-values of drawing both groups
    # and scoring each statistic unblocked, GOF by the row-loop merge
    pooled, n_a, n_b = _pooled(counts_a, counts_b)
    hom = chi2_homogeneity(counts_a, counts_b).statistic
    gof = chi2_gof(counts_b, counts_a).statistic
    for rng in (RngStream(seed), RngStream(seed).substream(0)):
        want = two_draw_bootstrap_p(_items(pooled), n_a, n_b, hom, gof, 4001,
                                    rng)
        assert bootstrap_null_p(pooled, n_a, n_b, hom, gof, 4001, rng) == want


def test_bootstrap_memory_below_one_int64_draw_matrix():
    # both groups are drawn one row block at a time, so no (B, K) int64
    # matrix is ever allocated
    B, K = 100_000, 25
    pooled, n_a, n_b = _pooled(list(range(1, K + 1)), list(range(K, 0, -1)))
    tracemalloc.start()
    try:
        bootstrap_null_p(pooled, n_a, n_b, 30.0, 30.0, B, RngStream(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < B * K * np.dtype(np.int64).itemsize


def test_bootstrap_memory_one_block_per_thread(monkeypatch):
    # each thread holds one 256-row block at a time (about 0.35 MiB at
    # K = 25), so two threads stay far below the 10.9 MiB that keeping
    # group a for all B replicates took
    B, K = 100_000, 25
    pooled, n_a, n_b = _pooled(list(range(1, K + 1)), list(range(K, 0, -1)))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    tracemalloc.start()
    try:
        bootstrap_null_p(pooled, n_a, n_b, 30.0, 30.0, B, RngStream(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def _exact_gof(obs, ref):
    # chi2_gof's merge rule in rational arithmetic
    covered = [i for i, r in enumerate(ref) if r > 0]
    o = [int(obs[i]) for i in covered]
    o[0] += sum(int(x) for x, r in zip(obs, ref) if r == 0)
    n_ref, n_obs = int(sum(ref)), int(sum(obs))
    return sum(Fraction((x * n_ref - int(ref[i]) * n_obs) ** 2,
                        int(ref[i]) * n_obs * n_ref)
               for x, i in zip(o, covered))


def test_gof_exceedance_counts_exact_ties():
    # Sparse counts make replicate statistics that equal the observed one
    # exactly (1147/252 here), and floating-point sums put such a tie on
    # either side of it.  Every other replicate must fall on the side its
    # rational statistic puts it, for the vectorised merge and the row loop
    # alike, and the p-value must count the ties as reaching the observed
    # statistic.
    counts_a = [3, 0, 1, 0, 2, 9, 1, 1]
    counts_b = [2, 1, 0, 1, 3, 7, 0, 0]
    pooled, n_a, n_b = _pooled(counts_a, counts_b)
    observed = _exact_gof(counts_b, counts_a)
    gof = chi2_gof(counts_b, counts_a).statistic
    B = 4001
    probs = np.array(pooled) / sum(pooled)
    a, b = block_draws(probs, n_a, n_b, B, RngStream(7))
    exact = [_exact_gof(o, r) for r, o in zip(a, b)]
    ties = np.array([x == observed for x in exact])
    above = np.array([x > observed for x in exact])
    assert ties.sum() > 1
    kernel = stats._gof_stats(a, b, n_a, n_b) >= gof
    loop = loop_gof_stats(a, b) >= gof
    # the kernel puts some tie below the observed statistic, and the row loop
    # puts another tie there, so only the tie rule makes the kernel count
    # every tie, and count the same replicates as its reference
    assert not kernel[ties].all()
    assert not np.array_equal(kernel[ties], loop[ties])
    for exceeds in (kernel, loop):
        assert np.array_equal(exceeds[~ties], above[~ties])
    reached = int(ties.sum() + above.sum())
    _, p_gof = bootstrap_null_p(pooled, n_a, n_b, 0.0, gof, B, RngStream(7))
    assert p_gof == (1 + reached) / (B + 1)


def test_bootstrap_string_items_match_two_draw_reference():
    # counts over the 25 full-line labels, some of them zero, the last one
    # too: empty categories are dropped before drawing, as the reference,
    # which sees only the labels that occur, drops them.  numpy draws the
    # last category as the remainder, so a zero-probability last category
    # would change the draws.
    gen = RngStream(3).generator()
    labels = [a + b for a in "ABCDE" for b in "ABCDE"]
    drawn = gen.choice(25, size=600, p=_rare_probs(25))
    pooled = [labels[i] for i in drawn if i not in (7, 24)]
    counts = [pooled.count(label) for label in labels]
    assert counts[7] == counts[24] == 0
    assert 0 not in counts[:7] and counts[23] > 0
    n_b = len(pooled) - 450
    want = two_draw_bootstrap_p(pooled, 450, n_b, 20.0, 25.0, 2000,
                                RngStream(9))
    assert bootstrap_null_p(counts, 450, n_b, 20.0, 25.0, 2000,
                            RngStream(9)) == want


def test_bootstrap_rejects_small_B():
    pooled, n_a, n_b = _pooled([5, 5], [5, 5])
    with pytest.raises(ValueError):
        bootstrap_null_p(pooled, n_a, n_b, 0.0, 0.0, 999, RngStream(1))


def test_bootstrap_rejects_inconsistent_sizes():
    pooled, n_a, n_b = _pooled([5, 5], [5, 5])
    with pytest.raises(ValueError, match="must equal the pooled item count"):
        bootstrap_null_p(pooled, n_a + 1, n_b, 0.0, 0.0, 1000, RngStream(1))


def test_bootstrap_rejects_negative_counts():
    # the sizes match the counts' sum, so only the sign can reject them
    with pytest.raises(ValueError, match="must not be negative"):
        bootstrap_null_p([12, -2], 5, 5, 0.0, 0.0, 1000, RngStream(1))


# ---------------------------------------------------------------------------
# Vectorised GOF merge rule against the row loop
# ---------------------------------------------------------------------------

def _rare_probs(k):
    # a few common categories and a long tail of rare ones
    weights = np.concatenate([np.full(4, 20.0), np.geomspace(2.0, 0.02, k - 4)])
    return weights / weights.sum()


@pytest.mark.parametrize("n_ref, n_obs, seed", [
    (150, 150, 1), (60, 400, 2), (40, 40, 3), (2300, 150, 4),
])
def test_gof_stats_matches_loop_reference(n_ref, n_obs, seed):
    gen = RngStream(seed).generator()
    probs = _rare_probs(25)
    ref = gen.multinomial(n_ref, probs, size=3000)
    obs = gen.multinomial(n_obs, probs, size=3000)
    merged = ((ref == 0) & (obs > 0)).any(axis=1)
    assert merged.sum() >= 100
    got = stats._gof_stats(ref, obs, n_ref, n_obs)
    want = loop_gof_stats(ref, obs)
    assert np.array_equal(got[~merged], want[~merged])
    np.testing.assert_allclose(got[merged], want[merged], rtol=1e-13, atol=0)


def test_gof_stats_merges_into_first_covered_cell():
    # row 0: cells 0 and 3 are empty in the reference, so their 5 observed
    # items join cell 1, the first covered one
    ref = np.array([[0, 4, 2, 0], [3, 3, 3, 3]])
    obs = np.array([[2, 1, 1, 3], [1, 2, 3, 4]])
    for row in range(2):
        got = stats._gof_stats(ref[[row]], obs[[row]], ref[row].sum(),
                               obs[row].sum())
        want = chi2_gof(obs[row], ref[row]).statistic
        assert got[0] == pytest.approx(want, rel=1e-15)
