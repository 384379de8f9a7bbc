"""Compound index, hapax regressions, and the shared-compound null model."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from versemetry import lexicon
from versemetry.errors import AnalysisError, CorpusError, InputError
from versemetry.lexicon import (
    PairScore,
    SegmentMode,
    _CELLS,
    _null_shared_counts,
    _poem_lookup,
    build_compound_index,
    hapax_cumulative_fit,
    segment_fits,
    shared_compound_scores,
)
from versemetry.stats import RngStream, ols_fit

from helpers import (
    build_corpus,
    build_poem,
    by_type_shared_compound_scores,
    multinomial_null_shared_counts,
    null_allocated_compound_corpus,
    per_type_null_allocated_compound_corpus,
    tensor_null_shared_counts,
)

THREE_POEM_COMPOUNDS = {
    "p1": {1: ("goldwine", "beadoleoma"), 2: ("goldwine",), 4: ("heofonrice",)},
    "p2": {1: ("beadoleoma",), 2: ("sundwudu", "sundwudu"), 3: ("hronrad",)},
    "p3": {1: ("heolodcynn",), 2: ("hronrad",),
           4: ("wordhord", "banhelm", "flodweg"), 5: ("gastgehygd",)},
}


def three_poem_corpus():
    return build_corpus(*(
        build_poem(pid, 5, compounds=comp)
        for pid, comp in THREE_POEM_COMPOUNDS.items()
    ))


def unique_hapax_poem(poem_id, n, hapax_lines=None, prefix=None):
    """Poem with one fresh lemma on each listed line (all lines by default)."""
    lines = range(1, n + 1) if hapax_lines is None else hapax_lines
    prefix = prefix or poem_id
    return build_poem(
        poem_id, n,
        compounds={i: (f"{prefix}-lemma{i}",) for i in lines},
    )


class TestCompoundIndex:
    def test_hand_checked_fixture(self):
        index = build_compound_index(three_poem_corpus())
        # Brute-force recount straight from the fixture dict.
        recount = Counter(
            lemma
            for comp in THREE_POEM_COMPOUNDS.values()
            for lemmas in comp.values()
            for lemma in lemmas
        )
        assert len(recount) == 10
        assert index.hapax_set == {
            lemma for lemma, c in recount.items() if c == 1}
        assert index.hapax_set == {
            "heofonrice", "heolodcynn", "wordhord", "banhelm", "flodweg",
            "gastgehygd"}
        assert index.totals == {"p1": 4, "p2": 4, "p3": 6}
        assert index.poems == ("p1", "p2", "p3")
        # lemmas in first-appearance order, one count per poem
        assert index.lemmas == tuple(recount)
        assert index.counts.dtype == np.int64
        assert dict(zip(index.lemmas, index.counts.tolist())) == {
            "goldwine": [2, 0, 0], "beadoleoma": [1, 1, 0],
            "heofonrice": [1, 0, 0], "sundwudu": [0, 2, 0],
            "hronrad": [0, 1, 1], "heolodcynn": [0, 0, 1],
            "wordhord": [0, 0, 1], "banhelm": [0, 0, 1],
            "flodweg": [0, 0, 1], "gastgehygd": [0, 0, 1]}
        assert index.counts.sum(axis=1).tolist() == list(recount.values())

    def test_cross_poem_lemma_not_hapax(self):
        corpus = build_corpus(
            build_poem("a", 2, compounds={1: ("eorlgestreon",)}),
            build_poem("b", 2, compounds={2: ("eorlgestreon",)}),
        )
        index = build_compound_index(corpus)
        assert "eorlgestreon" not in index.hapax_set


class TestHapaxCumulativeFit:
    def test_one_hapax_per_line(self):
        poem = unique_hapax_poem("p", 30)
        index = build_compound_index(build_corpus(poem))
        series, fit = hapax_cumulative_fit(poem, index.hapax_set)
        assert series == [(i, i) for i in range(1, 31)]
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.r == pytest.approx(1.0, abs=1e-12)

    def test_range_restricts_counting(self):
        poem = unique_hapax_poem("p", 10, hapax_lines=[1, 6])
        index = build_compound_index(build_corpus(poem))
        series, _ = hapax_cumulative_fit(poem, index.hapax_set, 5, 10)
        assert series[0] == (5, 0)
        assert series[-1] == (10, 1)

    def test_no_hapax_raises(self):
        poem = unique_hapax_poem("p", 10, hapax_lines=[1])
        index = build_compound_index(build_corpus(poem))
        with pytest.raises(AnalysisError, match="no hapax compounds in range"):
            hapax_cumulative_fit(poem, index.hapax_set, 2, 10)

    def test_one_line_range_raises(self):
        poem = unique_hapax_poem("p", 10, hapax_lines=[6])
        index = build_compound_index(build_corpus(poem))
        with pytest.raises(AnalysisError, match=(
                "^poem p: a fit needs two lines, got line 6$")):
            hapax_cumulative_fit(poem, index.hapax_set, 6, 6)

    def test_bad_range_raises(self):
        poem = unique_hapax_poem("p", 10)
        with pytest.raises(AnalysisError, match="bad line range"):
            hapax_cumulative_fit(poem, frozenset(), 5, 11)

    @given(st.lists(st.booleans(), min_size=2, max_size=60).filter(any))
    def test_series_nondecreasing_final_equals_count(self, flags):
        lines = [i + 1 for i, f in enumerate(flags) if f]
        poem = unique_hapax_poem("p", len(flags), hapax_lines=lines)
        index = build_compound_index(build_corpus(poem))
        series, _ = hapax_cumulative_fit(poem, index.hapax_set)
        ys = [y for _, y in series]
        assert all(b >= a for a, b in zip(ys, ys[1:]))
        assert ys[-1] == len(lines)


class TestSegmentFits:
    def test_partition_union_equals_full_fit(self):
        poem = unique_hapax_poem("p", 40, hapax_lines=range(3, 41, 3))
        index = build_compound_index(build_corpus(poem))
        _, full = hapax_cumulative_fit(poem, index.hapax_set)
        unit_fits, (_, combined) = segment_fits(
            [(poem, 1, 20), (poem, 21, 40)], SegmentMode.PARTITION,
            index.hapax_set)
        assert len(unit_fits) == 2
        assert combined == full

    def test_unit_series_and_fits_match_single_fits(self):
        a = unique_hapax_poem("a", 30, hapax_lines=range(1, 31, 4))
        b = unique_hapax_poem("b", 12, hapax_lines=[2, 3, 11])
        index = build_compound_index(build_corpus(a, b))
        units = [(a, 5, 24), (b, None, None)]
        for mode in SegmentMode:
            unit_fits, _ = segment_fits(units, mode, index.hapax_set)
            assert unit_fits == [
                hapax_cumulative_fit(a, index.hapax_set, 5, 24),
                hapax_cumulative_fit(b, index.hapax_set)]
            assert [series[-1][1] for series, _ in unit_fits] == [5, 3]

    def test_needs_two_units(self):
        poem = unique_hapax_poem("p", 10)
        with pytest.raises(AnalysisError, match="at least two units"):
            segment_fits([(poem, None, None)], SegmentMode.MERGE, frozenset())

    def test_merge_identical_rate_looks_linear(self):
        # Two poems with the same steady hapax rate merge into a series
        # whose single fit is still nearly perfect.
        a = unique_hapax_poem("a", 100, hapax_lines=range(2, 101, 2))
        b = unique_hapax_poem("b", 100, hapax_lines=range(2, 101, 2))
        index = build_compound_index(build_corpus(a, b))
        _, (_, combined) = segment_fits(
            [(a, None, None), (b, None, None)], SegmentMode.MERGE,
            index.hapax_set)
        assert combined.r > 0.999

    def test_merge_copies_preserves_slope(self):
        # With an exactly linear cumulative series the merged fit keeps the
        # single-poem slope.
        poem = unique_hapax_poem("p", 50)
        index = build_compound_index(build_corpus(poem))
        _, single = hapax_cumulative_fit(poem, index.hapax_set)
        _, (_, merged) = segment_fits(
            [(poem, None, None)] * 3, SegmentMode.MERGE, index.hapax_set)
        assert abs(merged.slope - single.slope) < 1e-9

    def test_merge_renumbers_contiguously(self):
        a = unique_hapax_poem("a", 5, hapax_lines=[2])
        b = unique_hapax_poem("b", 4, hapax_lines=[1, 4])
        index = build_compound_index(build_corpus(a, b))
        unit_fits, (_, combined) = segment_fits(
            [(a, None, None), (b, None, None)], SegmentMode.MERGE,
            index.hapax_set)
        expected = ols_fit(range(1, 10), [0, 1, 1, 1, 1, 2, 2, 2, 3])
        assert combined == expected
        assert unit_fits[0][1] == ols_fit(range(1, 6), [0, 1, 1, 1, 1])
        assert unit_fits[1][1] == ols_fit(range(1, 5), [1, 1, 1, 2])


class TestTypeTokenRatio:
    @staticmethod
    def tokens_and_types(*poems):
        index = build_compound_index(build_corpus(*poems))
        return [(index.totals[pid], index.types[pid]) for pid in index.poems]

    def test_every_compound_unique(self):
        assert self.tokens_and_types(unique_hapax_poem("p", 8)) == [(8, 8)]

    def test_ten_tokens_one_type(self):
        poem = build_poem("p", 2, compounds={1: ("issorg",) * 10})
        # the lemma a poem shares with another counts once in each
        other = build_poem("q", 2, compounds={2: ("issorg", "hring")})
        assert self.tokens_and_types(poem, other) == [(10, 1), (2, 2)]

    def test_no_tokens_absent(self):
        assert self.tokens_and_types(build_poem("p", 3)) == [(0, 0)]


def identical_pair_corpus():
    shared = tuple(f"t{k:02d}" for k in range(12))
    return build_corpus(
        build_poem("A", 3, compounds={1: shared}),
        build_poem("B", 3, compounds={1: shared}),
        build_poem("C", 3, compounds={1: tuple(f"u{k}" for k in range(6)),
                                      2: tuple(f"u{k}" for k in range(6))}),
    )


class TestSharedCompoundScores:
    def test_identical_pair_scores_high(self):
        scores = shared_compound_scores(
            identical_pair_corpus(), N=2000, rng=RngStream(11))
        by_pair = {(s.poem_a, s.poem_b): s for s in scores}
        assert set(by_pair) == {("A", "B"), ("A", "C"), ("B", "C")}
        ab = by_pair[("A", "B")]
        assert ab.observed_shared == 12
        assert ab.z > 4
        assert ab.empirical_tail < 0.01
        assert by_pair[("A", "C")].observed_shared == 0
        assert by_pair[("A", "C")].z <= 0
        for s in scores:
            assert 0.0 <= s.empirical_tail <= 1.0

    def test_zero_compound_poem_excluded(self):
        corpus = build_corpus(
            build_poem("A", 2, compounds={1: ("t0", "t1")}),
            build_poem("B", 2, compounds={1: ("t0", "t1")}),
            build_poem("D", 2),
        )
        with pytest.warns(UserWarning, match="poem D has no compound tokens"):
            scores = shared_compound_scores(corpus, N=1000, rng=RngStream(0))
        assert {(s.poem_a, s.poem_b) for s in scores} == {("A", "B")}

    def test_unknown_poem_id_rejected(self):
        # a misspelt id must not silently shrink the analysis to the rest
        with pytest.raises(CorpusError, match="'p9'"):
            shared_compound_scores(three_poem_corpus(),
                                   poems=["p1", "p2", "p9"], N=1000)

    def test_repeated_poem_id_rejected(self):
        # a repeat would score the poem against itself and each of its pairs
        # twice, each with its own null
        with pytest.raises(InputError, match="poem 'p1' more than once"):
            shared_compound_scores(three_poem_corpus(),
                                   poems=["p1", "p2", "p1"], N=1000)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="at least 1000"):
            shared_compound_scores(identical_pair_corpus(), N=999)

    def test_needs_two_scoreable_poems(self):
        corpus = build_corpus(
            build_poem("A", 2, compounds={1: ("t0",)}),
            build_poem("B", 2),
        )
        with pytest.warns(UserWarning):
            with pytest.raises(AnalysisError, match="at least two poems"):
                shared_compound_scores(corpus, N=1000)

    def test_deterministic_for_fixed_stream(self):
        a = shared_compound_scores(
            identical_pair_corpus(), N=1000, rng=RngStream(5))
        b = shared_compound_scores(
            identical_pair_corpus(), N=1000, rng=RngStream(5))
        assert a == b

    def test_subset_restricts_pairs_and_occurrences(self):
        corpus = build_corpus(
            build_poem("A", 2, compounds={1: ("span", "t0", "t0")}),
            build_poem("B", 2, compounds={1: ("t1", "t1")}),
            build_poem("C", 2, compounds={1: ("span",)}),
        )
        scores = shared_compound_scores(
            corpus, poems=["A", "B"], N=1000, rng=RngStream(3))
        assert [(s.poem_a, s.poem_b) for s in scores] == [("A", "B")]
        # "span" has one occurrence inside the subset, so it can never be a
        # shared type there.
        assert scores[0].observed_shared == 0

    def test_all_hapax_corpus_degenerate_null(self):
        corpus = build_corpus(
            build_poem("A", 2, compounds={1: ("x0", "x1", "x2")}),
            build_poem("B", 2, compounds={1: ("y0", "y1")}),
        )
        (score,) = shared_compound_scores(corpus, N=1000, rng=RngStream(1))
        assert score.observed_shared == 0
        assert score.null_sd == 0.0
        assert score.z == 0.0
        assert score.empirical_tail == 1.0

    def test_null_model_self_consistency(self):
        # Annotations generated from the very null model the scores assume
        # should produce roughly standard-normal z values.  The fixture keeps
        # per-poem weights small and most types hapax (as in real compound
        # inventories): z calibration degrades when single poems hold a large
        # share of the reallocation mass, because the null weights are
        # estimated from the observed totals themselves.
        multiplicities = [1] * 180 + [2] * 100 + [3] * 20
        weights = [0.1] * 10
        zs = []
        for rep in range(20):
            corpus = null_allocated_compound_corpus(
                multiplicities, weights, seed=101, stream=rep)
            scores = shared_compound_scores(
                corpus, N=1000, rng=RngStream(202, rep))
            zs.extend(s.z for s in scores)
        assert len(zs) == 20 * 45
        assert abs(float(np.mean(zs))) < 0.1
        assert 0.85 < float(np.std(zs, ddof=1)) < 1.15

    @pytest.mark.parametrize("stream", [0, 1, 999])
    def test_null_corpus_matches_per_type_draws(self, stream):
        # one multinomial call over all types gives the rows of one call per
        # type, so the corpora criterion 7 scores are unchanged
        multiplicities = [1] * 180 + [2] * 100 + [3] * 20 + [7, 0]
        weights = [0.1] * 10
        assert (null_allocated_compound_corpus(
                    multiplicities, weights, seed=101, stream=stream)
                == per_type_null_allocated_compound_corpus(
                    multiplicities, weights, seed=101, stream=stream))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.integers(1, 3),
                                       st.sampled_from("abcdefg")),
                             max_size=12),
                    min_size=2, max_size=6), st.data())
    def test_matches_by_type_reference(self, tokens, data):
        # the count-matrix scorer gives the scores of the per-occurrence
        # index and its loops over types, on the same stream
        corpus = build_corpus(*(
            build_poem(f"q{p}", 3, compounds={
                line: tuple(lemma for at, lemma in poem_tokens if at == line)
                for line in (1, 2, 3)})
            for p, poem_tokens in enumerate(tokens)))
        ids = [poem.id for poem in corpus.poems]
        poems = data.draw(st.one_of(
            st.none(),
            st.permutations(ids).flatmap(
                lambda order: st.integers(0, len(order)).map(
                    lambda size: order[:size]))))
        results = []
        for scorer in (shared_compound_scores, by_type_shared_compound_scores):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    results.append(scorer(corpus, poems, 1000, RngStream(6)))
                except AnalysisError:
                    results.append("too few poems")
        assert results[0] == results[1]

    def test_pair_score_fields_round_trip(self):
        score = PairScore("a", "b", 3, 1.5, 0.5, 3.0, 0.01)
        assert score.z == (score.observed_shared - score.null_mean) / score.null_sd


def four_poem_corpus():
    # Types of multiplicity 2 and 3 spread over four poems, plus hapaxes.
    return build_corpus(
        build_poem("A", 2, compounds={1: ("beag", "brim", "eorl", "eorl"),
                                      2: ("folc", "ganot")}),
        build_poem("B", 2, compounds={1: ("beag", "cyning", "cyning"),
                                      2: ("folc", "heofon")}),
        build_poem("C", 2, compounds={1: ("brim", "cyning"),
                                      2: ("dryht", "ides")}),
        build_poem("D", 2, compounds={1: ("brim", "dryht", "folc"),
                                      2: ("lind", "mere")}),
    )


# (poem_a, poem_b, observed, null_mean, null_sd, z, tail) at RngStream(29),
# N=1000, recorded from the categorical-draw kernel.
PINNED_FOUR_POEM_SCORES = [
    ("A", "B", 2, 1.474, 1.0258539741972912, 0.5127435417029834, 0.469),
    ("A", "C", 1, 1.191, 0.9609591263120625, -0.1987597544684482, 0.742),
    ("A", "D", 2, 1.42, 1.0201179542781516, 0.5685617016812683, 0.439),
    ("B", "C", 1, 0.991, 0.8611972251817005, 0.01045056781052811, 0.681),
    ("B", "D", 1, 1.275, 0.9717609373294027, -0.28299141222506435, 0.775),
    ("C", "D", 2, 0.973, 0.9039292494925076, 1.13615086642742, 0.259),
]


class FixedUniforms:
    """Stand-in for ``RngStream`` whose generator returns one constant."""

    def __init__(self, value):
        self.value = value

    def generator(self):
        return self

    def random(self, size):
        return np.full(size, self.value)


def _normalised(raw):
    raw = np.asarray(raw, dtype=float)
    return raw / raw.sum()


def _cut_weights(cuts):
    # every cumulative weight on a cell edge; repeated cuts give zero weights
    edges = np.array(sorted(cuts) + [_CELLS], dtype=float) / _CELLS
    return np.diff(edges, prepend=0.0)


_WEIGHTS = st.one_of(
    # arbitrary weights, zeros included
    st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1e3)),
             min_size=1, max_size=64).filter(lambda w: sum(w) > 0)
    .map(_normalised),
    # one heavy poem and many 1e-6 poems: several boundaries in one cell
    st.tuples(st.integers(0, 63), st.integers(0, 63)).map(
        lambda t: _normalised(np.insert(np.full(t[0], 1e-6), min(t), 1.0))),
    # boundaries exactly on cell edges, and on quarters
    st.lists(st.integers(0, _CELLS), max_size=63).map(_cut_weights),
    st.lists(st.sampled_from([0, 1024, 2048, 3072]), max_size=8)
    .map(_cut_weights),
    # weights that sum to 1 - 2**-53
    st.sampled_from([[0.1] * 10, [0.7, 0.2, 0.1]]).map(np.array),
)


class TestPoemLookup:
    @settings(max_examples=150, deadline=None)
    @given(_WEIGHTS, st.lists(st.floats(0.0, 1.0, exclude_max=True),
                              max_size=20))
    # partial sums above the final 1.0: cumw is not monotone
    @example(_normalised([58, 51, 67, 51, 98, 75, 6, 0]), [])
    def test_indices_are_searchsorted_right(self, weights, extra):
        # the kernel's cumulative weights, and every uniform at or next to a
        # boundary or a cell edge
        cumw = np.cumsum(weights)
        cumw[-1] = 1.0
        edges = np.arange(_CELLS) / _CELLS
        near = np.concatenate([cumw, edges])
        u = np.concatenate([
            [0.0, np.nextafter(1.0, 0.0)], extra, near,
            np.nextafter(near, 0.0), np.nextafter(near, 2.0)])
        u = u[(u >= 0.0) & (u < 1.0)]
        want = np.searchsorted(cumw, u, side="right")
        got = _poem_lookup(cumw)(u.copy())
        assert got.dtype == np.intp
        assert np.array_equal(got, want)


class TestNullSharedCounts:
    MULTIPLICITIES = [1, 2, 2, 3, 5]
    WEIGHTS = np.array([0.5, 0.3, 0.2])

    @pytest.mark.parametrize("kernel", [
        _null_shared_counts, multinomial_null_shared_counts,
    ], ids=["categorical", "multinomial-reference"])
    def test_null_mean_matches_closed_form(self, kernel):
        # A type of multiplicity m is in both poems i and j with probability
        # 1 - (1-w_i)^m - (1-w_j)^m + (1-w_i-w_j)^m; a single-occurrence
        # type adds 0.
        N = 4000
        shared = kernel(self.MULTIPLICITIES, self.WEIGHTS, N, RngStream(17))
        assert shared.shape == (N, 3)
        w = self.WEIGHTS
        for k, (i, j) in enumerate(zip(*np.triu_indices(3, 1))):
            expect = sum(
                1 - (1 - w[i]) ** m - (1 - w[j]) ** m + (1 - w[i] - w[j]) ** m
                for m in self.MULTIPLICITIES)
            values = shared[:, k]
            se = values.std(ddof=1) / math.sqrt(N)
            assert se > 0
            assert abs(values.mean() - expect) < 4 * se, (i, j)

    def test_result_independent_of_trial_block(self, monkeypatch):
        multiplicities = [1] * 30 + [2] * 20 + [3] * 7 + [5] * 4
        weights = np.array([0.4, 0.25, 0.2, 0.1, 0.05])
        args = (multiplicities, weights, 1000, RngStream(8))
        default = _null_shared_counts(*args)
        assert 1000 % lexicon._TRIAL_BLOCK != 0
        for block in (1, 7, 999, 1000, 4096):
            monkeypatch.setattr(lexicon, "_TRIAL_BLOCK", block)
            assert np.array_equal(_null_shared_counts(*args), default)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_pairs_are_the_tensor_above_its_diagonal(self, seed):
        # the kernel keeps the int32 pairs of the full tensor, draw for draw
        multiplicities = [1] * 10 + [2] * 8 + [3] * 5 + [4] * 3
        weights = np.array([0.35, 0.3, 0.2, 0.1, 0.05])
        shared = _null_shared_counts(
            multiplicities, weights, 300, RngStream(seed))
        tensor = tensor_null_shared_counts(
            multiplicities, weights, 300, RngStream(seed))
        assert shared.dtype == np.int32
        first, second = np.triu_indices(5, 1)
        assert np.array_equal(shared, tensor[:, first, second])

    def test_shared_symmetric_and_bounded(self):
        # checked on the full tensor, whose pairs the kernel returns
        multiplicities = [1] * 10 + [2] * 8 + [3] * 5 + [4] * 3
        weights = np.array([0.35, 0.3, 0.2, 0.1, 0.05])
        shared = tensor_null_shared_counts(
            multiplicities, weights, 1000, RngStream(4))
        types = sum(1 for m in multiplicities if m >= 2)
        assert np.array_equal(shared, shared.transpose(0, 2, 1))
        assert shared.min() >= 0
        assert shared.max() <= types
        diag = np.diagonal(shared, axis1=1, axis2=2)
        assert np.all(shared <= diag[:, :, None])
        # every type is present in at least one poem, and in at most m
        assert np.all(diag.sum(axis=1) >= types)
        assert np.all(diag.sum(axis=1)
                      <= sum(m for m in multiplicities if m >= 2))
        first, second = np.triu_indices(5, 1)
        assert np.array_equal(
            _null_shared_counts(multiplicities, weights, 1000, RngStream(4)),
            shared[:, first, second])

    def test_diagonal_counts_types_present(self):
        # With two poems each type is in one or both, so the diagonals minus
        # the shared count give the number of simulated types exactly.
        multiplicities = [1] * 5 + [2] * 6 + [3] * 4
        weights = np.array([0.6, 0.4])
        tensor = tensor_null_shared_counts(
            multiplicities, weights, 1000, RngStream(9))
        shared = _null_shared_counts(multiplicities, weights, 1000,
                                     RngStream(9))
        assert np.all(
            tensor[:, 0, 0] + tensor[:, 1, 1] - shared[:, 0] == 10)
        # all the mass on the first poem puts every type there alone
        shared = _null_shared_counts(
            multiplicities, np.array([1.0, 0.0, 0.0]), 1000, RngStream(9))
        assert shared.shape == (1000, 3)
        assert not shared.any()

    @pytest.mark.parametrize("weights", [
        [1 / 3] * 3, [0.1] * 10, [0.7, 0.2, 0.1],
    ], ids=["thirds", "tenths", "0.7-0.2-0.1"])
    def test_largest_uniform_lands_on_last_poem(self, weights):
        # [0.1] * 10 and [0.7, 0.2, 0.1] sum to 1 - 2**-53 ([1/3] * 3 to
        # exactly 1); the largest uniform below 1 must still map to the last
        # poem, not past it, so no pair shares a type.  The reference tensor
        # shows where the types land.
        weights = np.array(weights)
        P = weights.size
        top = FixedUniforms(np.nextafter(1.0, 0.0))
        shared = _null_shared_counts([2, 2, 3], weights, 70, top)
        assert np.array_equal(shared, np.zeros((70, P * (P - 1) // 2)))
        expect = np.zeros((P, P), dtype=np.int64)
        expect[P - 1, P - 1] = 3
        tensor = tensor_null_shared_counts([2, 2, 3], weights, 70, top)
        assert np.array_equal(tensor, np.broadcast_to(expect, tensor.shape))

    def test_seeded_scores_pinned(self):
        # Every null here has a positive sd, so a change to the null's draw
        # stream shows in these values.
        scores = shared_compound_scores(
            four_poem_corpus(), N=1000, rng=RngStream(29))
        assert len(scores) == len(PINNED_FOUR_POEM_SCORES)
        for s, (a, b, obs, mean, sd, z, tail) in zip(
                scores, PINNED_FOUR_POEM_SCORES):
            assert (s.poem_a, s.poem_b, s.observed_shared) == (a, b, obs)
            assert (s.null_mean, s.null_sd, s.z) == pytest.approx(
                (mean, sd, z), rel=1e-12)
            assert s.empirical_tail == tail
