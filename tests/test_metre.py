"""Tests for pattern tabulation, rolling proportions, and split tests."""

from collections import Counter

import numpy as np
import pytest

from helpers import (
    build_poem,
    drift_scansion_poem,
    iid_scansion_poem,
    loop_incidence_points,
    loop_label_tallies,
    loop_pair_full_lines,
    split_change_scansion_poem,
    two_draw_bootstrap_p,
)
from test_acceptance import SKEW_PROBS, criterion_8_corpus
from versemetry.corpus import resolve_line_range
from versemetry.errors import AnalysisError
from versemetry.metre import (
    DEFAULT_SPLIT_LINE,
    FULL_LABELS,
    HALF_LABELS,
    Granularity,
    PairingLog,
    _pairing_log,
    cumulative_incidence_r,
    halves_independence_test,
    incidence_points,
    pattern_counts,
    rolling_pattern_proportions,
    split_distribution_tests,
)
from versemetry.stats import (
    RngStream,
    TestMethod,
    chi2_gof,
    chi2_homogeneity,
    chi2_independence,
)

UNIFORM = [0.2] * 5


def test_label_universes():
    assert HALF_LABELS == ("A", "B", "C", "D", "E")
    assert len(FULL_LABELS) == 25
    assert FULL_LABELS[0] == "AA"
    assert FULL_LABELS[-1] == "EE"
    assert list(FULL_LABELS) == sorted(FULL_LABELS)
    assert DEFAULT_SPLIT_LINE == 2300


# ---------------------------------------------------------------------------
# Pairing
# ---------------------------------------------------------------------------

def full_line_pairing(poem, first=None, last=None):
    """Full-line counts and pairing log of a line range, as ``pattern_counts``
    and the split tests' ``_pairing_log`` give them, checked against the
    line-by-line pairing rule."""
    counts = pattern_counts(poem, Granularity.FULL_LINE, first, last)
    lo, hi = resolve_line_range(poem, first, last)
    log = _pairing_log(poem.scansion_codes[lo - 1:hi])
    patterns, want_log = loop_pair_full_lines(poem, lo, hi)
    tally = Counter(patterns)
    assert counts.counts == tuple(tally[label] for label in FULL_LABELS)
    assert log == want_log
    return dict(zip(FULL_LABELS, counts.counts)), log


def test_pair_full_lines_basic():
    poem = build_poem("p", 1, pattern_fn=lambda i: ("A", "B"))
    tally, log = full_line_pairing(poem)
    assert {label: c for label, c in tally.items() if c} == {"AB": 1}
    assert log == PairingLog(1, 0, 0, 0)


def test_pair_skips_and_logs_missing_halves():
    layout = {1: ("A", "B"), 2: ("A", None), 3: (None, "C"),
              4: (None, None), 5: ("D", "E")}
    poem = build_poem("p", 5, pattern_fn=lambda i: layout[i])
    tally, log = full_line_pairing(poem)
    assert {label: c for label, c in tally.items() if c} == {"AB": 1, "DE": 1}
    assert log.paired == 2
    assert log.skipped_missing_a == 2  # lines 3 and 4
    assert log.skipped_missing_b == 1  # line 2
    assert log.paired + log.skipped_missing_a + log.skipped_missing_b == 5
    assert log.misalignment_warnings == 4  # one per missing half


def test_pair_fully_scanned_has_no_skips():
    poem = build_poem("p", 10, pattern_fn=lambda i: ("A", "A"))
    tally, log = full_line_pairing(poem)
    assert sum(tally.values()) == 10
    assert log == PairingLog(10, 0, 0, 0)


def test_pair_requires_scansion():
    with pytest.raises(AnalysisError, match="poem bare unscanned"):
        pattern_counts(build_poem("bare", 5), Granularity.FULL_LINE)


def test_pair_respects_range():
    poem = build_poem("p", 10, pattern_fn=lambda i: ("A", "B"))
    tally, log = full_line_pairing(poem, 3, 7)
    assert sum(tally.values()) == 5
    assert log == PairingLog(5, 0, 0, 0)
    with pytest.raises(AnalysisError, match="bad line range"):
        pattern_counts(poem, Granularity.FULL_LINE, 5, 11)


# ---------------------------------------------------------------------------
# Counts
# ---------------------------------------------------------------------------

def test_half_line_counts():
    layout = {1: ("A", "A"), 2: ("B", "C"), 3: ("E", None)}
    poem = build_poem("p", 3, pattern_fn=lambda i: layout[i])
    counts = pattern_counts(poem, Granularity.HALF_LINE)
    assert counts.labels == HALF_LABELS
    assert counts.counts == (2, 1, 1, 0, 1)
    assert sum(counts.counts) == 5


def test_full_line_counts():
    layout = {1: ("A", "A"), 2: ("A", "B"), 3: ("A", "B"), 4: ("E", "E")}
    poem = build_poem("p", 4, pattern_fn=lambda i: layout[i])
    counts = pattern_counts(poem, Granularity.FULL_LINE)
    tally = dict(zip(counts.labels, counts.counts))
    assert tally["AA"] == 1
    assert tally["AB"] == 2
    assert tally["EE"] == 1
    assert sum(counts.counts) == 4
    assert len(counts.counts) == 25


def test_full_counts_match_pairing_log():
    poem = iid_scansion_poem("p", 300, UNIFORM, seed=3)
    counts = pattern_counts(poem, Granularity.FULL_LINE)
    _, log = full_line_pairing(poem)
    assert sum(counts.counts) == log.paired


# ---------------------------------------------------------------------------
# Rolling proportions
# ---------------------------------------------------------------------------

def test_rolling_homogeneous_poem():
    poem = build_poem("p", 60, pattern_fn=lambda i: ("A", "A"))
    rolled = rolling_pattern_proportions(poem, Granularity.FULL_LINE, width=20, step=5)
    assert rolled.starts == tuple(range(1, 42, 5))
    assert all(v == 1.0 for v in rolled.series["AA"])
    assert all(v == 0.0 for lab in FULL_LABELS[1:] for v in rolled.series[lab])


def test_rolling_transition_is_monotone():
    switch = 120
    poem = build_poem(
        "p", 240,
        pattern_fn=lambda i: ("A", "A") if i <= switch else ("B", "B"))
    rolled = rolling_pattern_proportions(poem, Granularity.FULL_LINE, width=40, step=1)
    aa = rolled.series["AA"]
    assert aa[0] == 1.0
    assert aa[-1] == 0.0
    diffs = np.diff(aa)
    assert (diffs <= 1e-12).all()
    # exact window arithmetic inside the transition band
    start = 100  # window 100-139 holds 21 AA lines
    idx = rolled.starts.index(start)
    assert aa[idx] == pytest.approx(21 / 40)


def test_rolling_proportions_sum_to_one():
    poem = iid_scansion_poem("p", 500, [0.4, 0.3, 0.1, 0.1, 0.1], seed=9)
    rolled = rolling_pattern_proportions(poem, Granularity.HALF_LINE, width=200, step=7)
    sums = np.zeros(len(rolled.starts))
    for lab in HALF_LABELS:
        sums += np.asarray(rolled.series[lab])
    assert np.allclose(sums, 1.0, atol=1e-12)


def test_rolling_skips_windows_without_scanned_units():
    def pattern_fn(i):
        return ("A", "A") if i <= 10 or i > 30 else (None, None)

    poem = build_poem("p", 40, pattern_fn=pattern_fn)
    rolled = rolling_pattern_proportions(poem, Granularity.HALF_LINE, width=10, step=1)
    assert 11 not in rolled.starts  # window 11-20 is fully unscanned
    assert 1 in rolled.starts


def test_rolling_at_step_width_matches_partition_counts():
    poem = iid_scansion_poem("p", 437, UNIFORM, seed=21)
    width = 100
    rolled = rolling_pattern_proportions(
        poem, Granularity.HALF_LINE, width=width, step=width)
    for k, start in enumerate(rolled.starts):
        counts = pattern_counts(poem, Granularity.HALF_LINE,
                                start, start + width - 1)
        for i, lab in enumerate(HALF_LABELS):
            assert rolled.series[lab][k] == pytest.approx(
                counts.counts[i] / sum(counts.counts))


def test_rolling_width_larger_than_poem():
    poem = build_poem("p", 5, pattern_fn=lambda i: ("A", "A"))
    rolled = rolling_pattern_proportions(poem, Granularity.HALF_LINE, width=10)
    assert rolled.starts == ()


# ---------------------------------------------------------------------------
# Cumulative incidence regression
# ---------------------------------------------------------------------------

def test_incidence_every_unit():
    poem = build_poem("p", 30, pattern_fn=lambda i: ("A", "A"))
    _, fit = cumulative_incidence_r(poem, "A", Granularity.HALF_LINE)
    assert fit.slope == pytest.approx(1.0)
    assert fit.r == pytest.approx(1.0)


def test_incidence_every_other_unit():
    poem = build_poem("p", 30, pattern_fn=lambda i: ("B", "A"))
    _, fit = cumulative_incidence_r(poem, "A", Granularity.HALF_LINE)
    assert fit.slope == pytest.approx(0.5)
    assert fit.r == pytest.approx(1.0)


def test_incidence_full_line_granularity():
    poem = build_poem("p", 25, pattern_fn=lambda i: ("A", "B"))
    _, fit = cumulative_incidence_r(poem, "AB", Granularity.FULL_LINE)
    assert fit.slope == pytest.approx(1.0)
    assert fit.n == 25


def test_incidence_requires_two_occurrences():
    poem = build_poem("p", 10, pattern_fn=lambda i: ("A", "A") if i == 1 else ("B", "B"))
    with pytest.raises(AnalysisError, match="fewer than twice"):
        cumulative_incidence_r(poem, "AA", Granularity.FULL_LINE)


def test_incidence_rejects_unknown_pattern():
    poem = build_poem("p", 10, pattern_fn=lambda i: ("A", "A"))
    with pytest.raises(AnalysisError, match="unknown half-line pattern"):
        cumulative_incidence_r(poem, "F", Granularity.HALF_LINE)


@pytest.mark.parametrize("start,end", [(0.30, 0.10), (0.50, 0.35), (0.12, 0.05)])
def test_incidence_r_insensitive_to_density_drift(start, end):
    poem = drift_scansion_poem("p", 3000, start=start, end=end)
    _, fit = cumulative_incidence_r(poem, "A", Granularity.HALF_LINE)
    assert fit.r > 0.99


# ---------------------------------------------------------------------------
# Split tests
# ---------------------------------------------------------------------------

def test_split_tests_shape_and_methods():
    poem = iid_scansion_poem("p", 3000, UNIFORM, seed=5)
    table = split_distribution_tests(poem, 2300, B=1000, rng=RngStream(1))
    assert table.split_line == 2300
    assert table.half_homogeneity.method is TestMethod.CHI2_HOMOGENEITY
    assert table.half_homogeneity.df == 4
    assert table.half_gof.method is TestMethod.CHI2_GOF
    assert table.full_homogeneity.df == 24
    assert table.full_gof.df == 24
    assert table.full_homogeneity_boot.method is TestMethod.BOOTSTRAP_EMPIRICAL
    assert table.full_homogeneity_boot.df is None
    assert table.log_before.paired + table.log_after.paired == 3000
    for res in (table.half_homogeneity, table.half_gof,
                table.full_homogeneity, table.full_gof,
                table.full_homogeneity_boot, table.full_gof_boot):
        assert 0.0 <= res.p_value <= 1.0


def test_split_tests_deterministic():
    poem = iid_scansion_poem("p", 1200, UNIFORM, seed=6)
    t1 = split_distribution_tests(poem, 600, B=1000, rng=RngStream(9))
    t2 = split_distribution_tests(poem, 600, B=1000, rng=RngStream(9))
    assert t1 == t2


def test_split_gof_uses_before_as_reference():
    poem = iid_scansion_poem("p", 2000, UNIFORM, seed=7)
    table = split_distribution_tests(poem, 1400, B=1000, rng=RngStream(2))
    before = pattern_counts(poem, Granularity.FULL_LINE, 1, 1400)
    after = pattern_counts(poem, Granularity.FULL_LINE, 1401)
    want = chi2_gof(after.counts, before.counts)
    assert table.full_gof.statistic == pytest.approx(want.statistic)
    # homogeneity is direction-free, goodness of fit is not
    hom_swapped = chi2_homogeneity(after.counts, before.counts)
    assert table.full_homogeneity.statistic == pytest.approx(hom_swapped.statistic)
    gof_swapped = chi2_gof(before.counts, after.counts)
    assert gof_swapped.statistic != pytest.approx(want.statistic)


def test_split_rejects_outside_poem():
    poem = iid_scansion_poem("p", 100, UNIFORM, seed=8)
    with pytest.raises(AnalysisError, match="not strictly inside"):
        split_distribution_tests(poem, 100, B=1000, rng=RngStream(1))


def test_split_degenerate_section():
    # one line before the split cannot support a 5-category comparison
    poem = build_poem("p", 40, pattern_fn=lambda i: ("A", "A"))
    with pytest.raises(AnalysisError, match="degenerate split"):
        split_distribution_tests(poem, 1, B=1000, rng=RngStream(1))


def test_split_boot_p_close_to_analytic_on_iid_poem():
    poem = iid_scansion_poem("p", 2400, [0.3, 0.3, 0.2, 0.1, 0.1], seed=11)
    table = split_distribution_tests(poem, 1200, B=5000, rng=RngStream(4))
    assert abs(table.full_homogeneity_boot.p_value
               - table.full_homogeneity.p_value) < 0.05


def _criterion_8_poem(poem_id):
    return criterion_8_corpus().poem(poem_id)


# (poem, split line, replicates, seed) of the split tests the suite runs:
# the CLI corpus (whose rare patterns leave some replicate references with
# empty cells), the tests above, the first corpus of criteria 2 and 4,
# criterion 5 and the criterion-8 report.
SUITE_SPLITS = {
    "cli-alpha": (lambda: iid_scansion_poem(
        "alpha", 700, [0.3, 0.25, 0.2, 0.15, 0.1], seed=3), 350, 1000, 3),
    "cli-report": (lambda: iid_scansion_poem(
        "alpha", 700, [0.3, 0.25, 0.2, 0.15, 0.1], seed=3), 350, 1000, 7),
    "uniform-3000": (lambda: iid_scansion_poem("p", 3000, UNIFORM, seed=5),
                     2300, 1000, 1),
    "uniform-1200": (lambda: iid_scansion_poem("p", 1200, UNIFORM, seed=6),
                     600, 1000, 9),
    "uniform-2000": (lambda: iid_scansion_poem("p", 2000, UNIFORM, seed=7),
                     1400, 1000, 2),
    "skewed-2400": (lambda: iid_scansion_poem(
        "p", 2400, [0.3, 0.3, 0.2, 0.1, 0.1], seed=11), 1200, 5000, 4),
    "criterion-2": (lambda: iid_scansion_poem("p0", 1000, SKEW_PROBS,
                                              seed=400), 500, 20000, 500),
    "criterion-4-null": (lambda: split_change_scansion_poem(
        "n0", 2450, 2300, SKEW_PROBS, seed=1000), 2300, 5000, 0),
    "criterion-4-change": (lambda: split_change_scansion_poem(
        "a0", 2450, 2300, SKEW_PROBS, probs_after_a=[0.15, 0.25, 0.2, 0.15,
                                                     0.25], seed=7000),
        2300, 5000, 0),
    "criterion-5-drift": (lambda: drift_scansion_poem("drift", 3000),
                          2300, 5000, 0),
    "criterion-8-epic-a": (lambda: _criterion_8_poem("epic-a"),
                           2300, 20000, 7),
    "criterion-8-epic-b": (lambda: _criterion_8_poem("epic-b"),
                           2300, 20000, 7),
}


@pytest.mark.parametrize("case", list(SUITE_SPLITS))
def test_split_boot_matches_two_draw_reference(case):
    # the joint bootstrap gives the p-values of two unblocked draws scored
    # by the row-loop merge, so the vectorised merge rule exceeds the
    # chi2_gof statistic on exactly the same replicates
    make_poem, split, B, seed = SUITE_SPLITS[case]
    poem = make_poem()
    table = split_distribution_tests(poem, split, B=B, rng=RngStream(seed))
    before, _ = loop_pair_full_lines(poem, 1, split)
    after, _ = loop_pair_full_lines(poem, split + 1, poem.line_count)
    want = two_draw_bootstrap_p(
        before + after, len(before), len(after),
        table.full_homogeneity.statistic, table.full_gof.statistic, B,
        RngStream(seed).substream(0))
    assert (table.full_homogeneity_boot.p_value,
            table.full_gof_boot.p_value) == want


# ---------------------------------------------------------------------------
# Halves independence
# ---------------------------------------------------------------------------

def test_independence_detects_perfect_dependence():
    gen = RngStream(13).generator()
    labels = [HALF_LABELS[k] for k in gen.integers(0, 5, size=400)]
    poem = build_poem("p", 400, pattern_fn=lambda i: (labels[i - 1], labels[i - 1]))
    res = halves_independence_test(poem)
    assert res.p_value < 1e-12
    assert res.df == 16


def test_independence_calibrated_under_null():
    high = 0
    for seed in range(100):
        poem = iid_scansion_poem("p", 500, UNIFORM, seed=seed, stream=77)
        if halves_independence_test(poem).p_value > 0.01 :
            high += 1
    assert high >= 95


def loop_rolling_series(poem, granularity, width, step):
    """Rolling proportions, each window tallied line by line."""
    starts, rows = [], []
    for start in range(1, poem.line_count - width + 2, step):
        half, full, _ = loop_label_tallies(poem, start, start + width - 1)
        counts = half if granularity is Granularity.HALF_LINE else full
        if sum(counts):
            starts.append(start)
            rows.append([c / sum(counts) for c in counts])
    labels = HALF_LABELS if granularity is Granularity.HALF_LINE else FULL_LABELS
    return tuple(starts), {lab: tuple(row[i] for row in rows)
                           for i, lab in enumerate(labels)}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tallies_match_loop_reference(seed):
    """Half- and full-line counts, pairing, incidence points, rolling
    proportions, the independence table and the split tests' analytic
    results and logs, over ranges of a poem with missing halves, equal those
    of the line-by-line tallies."""
    gen = RngStream(seed, 5).generator()
    n = 300
    codes = gen.integers(-1, 5, size=(n, 2))
    poem = build_poem("p", n, pattern_fn=lambda i: tuple(
        HALF_LABELS[c] if c >= 0 else None for c in codes[i - 1]))
    starts = gen.integers(1, n - 30, size=5)
    ranges = [(1, n)] + [(int(a), int(gen.integers(a + 30, n + 1)))
                         for a in starts]
    for first, last in ranges:
        half, full, table = loop_label_tallies(poem, first, last)
        assert pattern_counts(poem, Granularity.HALF_LINE,
                              first, last).counts == half
        assert pattern_counts(poem, Granularity.FULL_LINE,
                              first, last).counts == full
        assert halves_independence_test(poem, first, last) == \
            chi2_independence(table)
        full_line_pairing(poem, first, last)
    for granularity, labels in ((Granularity.HALF_LINE, HALF_LABELS),
                                (Granularity.FULL_LINE, FULL_LABELS)):
        for pattern in labels + ("Z", "AAA"):
            try:
                want = loop_incidence_points(poem, pattern, granularity)
            except AnalysisError as exc:
                with pytest.raises(AnalysisError, match=f"^{exc}$"):
                    incidence_points(poem, pattern, granularity)
            else:
                assert incidence_points(poem, pattern, granularity) == want
        for width, step in ((40, 7), (100, 1), (n + 1, 1)):
            rolling = rolling_pattern_proportions(poem, granularity, width,
                                                  step)
            assert (rolling.starts, rolling.series) == \
                loop_rolling_series(poem, granularity, width, step)
    split = split_distribution_tests(poem, 150, B=1000)
    (half_b, full_b, _), (half_a, full_a, _) = (
        loop_label_tallies(poem, 1, 150), loop_label_tallies(poem, 151, n))
    assert split.half_homogeneity == chi2_homogeneity(half_b, half_a)
    assert split.half_gof == chi2_gof(half_a, half_b)
    assert split.full_homogeneity == chi2_homogeneity(full_b, full_a)
    assert split.full_gof == chi2_gof(full_a, full_b)
    assert (split.log_before, split.log_after) == (
        loop_pair_full_lines(poem, 1, 150)[1],
        loop_pair_full_lines(poem, 151, n)[1])


def test_independence_adjusts_df_for_missing_labels():
    poem = iid_scansion_poem("p", 300, [0.5, 0.5, 0, 0, 0], seed=14)
    res = halves_independence_test(poem)
    assert res.df == 1
    assert res.dropped_categories == 6  # three empty rows + three empty columns
