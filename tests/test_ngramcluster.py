"""N-gram profiles, cosine distances, complete-linkage clustering, sweep."""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from versemetry import ngramcluster
from versemetry.corpus import (PUNCTUATION_GLYPHS, SampleWindow, normalize_text,
                               rolling_windows)
from versemetry.errors import AnalysisError
from versemetry.ngramcluster import (
    DEFAULT_K_VALUES,
    DEFAULT_N_VALUES,
    Dendrogram,
    ProfileMatrix,
    agglomerative_complete,
    build_profiles,
    clustering_quality,
    cosine_distance_matrix,
    majority_part,
    robustness_sweep,
    split_boundary_estimate,
    top_two_assignment,
    window_id,
)
from versemetry.stats import RngStream

from helpers import (brute_force_complete, build_corpus, build_poem,
                     counter_build_profiles, counter_ngram_counts,
                     loop_split_boundary_estimate, per_cell_sweep, per_char_normalize_text, pool_text_poem,
                     profile_fields, random_distance_matrix, two_style_corpus)


def text_corpus(*texts):
    """One-line poems p0, p1, ... with the given full-line texts."""
    poems = [
        build_poem(f"p{i}", 1, text_fn=lambda _, t=t: (t, ""))
        for i, t in enumerate(texts)
    ]
    return build_corpus(*poems)


def one_line_windows(corpus):
    return [
        SampleWindow(source=p.id, first_line=1, last_line=1,
                     composition={p.id: 1})
        for p in corpus.poems
    ]


def profile_fixture(values_by_label):
    """Hand-built profiles for distance tests, bypassing text counting."""
    values = np.array(list(values_by_label.values()), dtype=float)
    return ProfileMatrix(
        samples=tuple(SampleWindow(source=label, first_line=1, last_line=1,
                                   composition={label: 1})
                      for label in values_by_label),
        features=tuple(f"f{i}" for i in range(values.shape[1])),
        values=values)


class TestNormalization:
    def test_lowercase_strip_collapse(self):
        raw = "Hwæt! We GAR-dena\tin gear-dagum,"
        assert normalize_text(raw) == "hwæt we gar dena in gear dagum"

    def test_quotes_and_editorial_dots_stripped(self):
        assert normalize_text("‘g..st’ \"ond\"") == "g st ond"

    def test_bigrams_of_aaa(self):
        counts = counter_ngram_counts("aaa", 2)
        assert counts == {" a": 1, "aa": 2, "a ": 1}
        corpus = text_corpus("aaa")
        profiles = build_profiles(corpus, one_line_windows(corpus), 2, 10)
        assert profiles.features == ("aa", " a", "a ")
        assert profiles.values.tolist() == [[2 / 4, 1 / 4, 1 / 4]]

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.sampled_from(
        sorted(PUNCTUATION_GLYPHS) + list("\t \nAbZyÆæÞþÐðǷƿĀāİßΣς–—…"))
        | st.characters(exclude_categories=("Cs",))))
    def test_matches_per_character_reference(self, text):
        assert normalize_text(text) == per_char_normalize_text(text)


class TestBuildProfiles:
    def test_relative_frequencies_are_scale_invariant(self):
        # Tripling a text (space-joined) triples every bigram count exactly,
        # so relative frequencies are unchanged.
        corpus = text_corpus("ecg banum", "ecg banum ecg banum ecg banum")
        profiles = build_profiles(corpus, one_line_windows(corpus), 2, 50)
        # both rows are over the one feature tuple
        assert profiles.values.shape == (2, len(profiles.features))
        short, long = profiles.values
        assert np.array_equal(short, long)

    def test_top_k_ties_lexicographic(self):
        corpus = text_corpus("abab")
        profiles = build_profiles(corpus, one_line_windows(corpus), 2, 4)
        assert profiles.features == ("ab", " a", "b ", "ba")

    def test_k_saturates_at_distinct_grams(self):
        corpus = text_corpus("abab")
        profiles = build_profiles(corpus, one_line_windows(corpus), 2, 10 ** 6)
        assert set(profiles.features) == {" a", "ab", "ba", "b "}

    def test_top_k_is_prefix_of_larger_k(self):
        # robustness_sweep slices one top-k_max ranking for every k
        corpus = text_corpus("seft ond swegl", "wudu ond wæter", "abab baba")
        windows = one_line_windows(corpus)
        full = build_profiles(corpus, windows, 2, 10 ** 6)
        for k in range(1, len(full.features) + 2):
            assert profile_fields(build_profiles(corpus, windows, 2, k)) == (
                full.samples, full.features[:k], full.values[:, :k].tolist())

    def test_values_sum_at_most_one(self):
        corpus = text_corpus("seft ond swegl", "wudu ond wæter")
        profiles = build_profiles(corpus, one_line_windows(corpus), 3, 5)
        for values in profiles.values.tolist():
            assert 0 < sum(values) <= 1.0 + 1e-12

    def test_values_one_read_only_c_contiguous_array(self):
        corpus = text_corpus("seft ond swegl", "wudu ond wæter", "abab baba")
        values = build_profiles(corpus, one_line_windows(corpus), 2, 9).values
        assert values.dtype == np.float64 and values.shape == (3, 9)
        assert values.flags.c_contiguous and not values.flags.writeable

    def test_too_short_sample_named(self):
        corpus = text_corpus("?!,")
        with pytest.raises(AnalysisError, match="p0:1-1.*shorter than 2"):
            build_profiles(corpus, one_line_windows(corpus), 2, 5)

    def test_n_range_enforced(self):
        corpus = text_corpus("word")
        windows = one_line_windows(corpus)
        with pytest.raises(AnalysisError, match=r"n must be in \[2, 5\]"):
            build_profiles(corpus, windows, 1, 5)
        with pytest.raises(AnalysisError, match="k must be at least 1"):
            build_profiles(corpus, windows, 2, 0)


# Half-line pieces: non-ASCII letters whose lowercase is longer (İ), stays
# put (ß) or depends on position (Σ, final at a word end), a lone surrogate,
# tabs, spaces and some punctuation; plus halves that are empty or
# punctuation only.
PIECES = ["a", "b", "ab", "ß", "İ", "Σ", "ΛΟΓΟΣ", "σ", "æ", "Þ", "\ud834",
          "\t", " ", "  ", "—", ",", "…"]
words = st.lists(st.sampled_from(PIECES), max_size=8).map("".join)
half_lines = st.one_of(
    st.just(""),
    st.lists(st.sampled_from(sorted(PUNCTUATION_GLYPHS)), min_size=1,
             max_size=3).map("".join),
    words, words, words,
    st.text(max_size=6),
)


@st.composite
def windowed_corpora(draw):
    """One to three poems and rolling windows over each, concatenated."""
    poems, windows = [], []
    for index in range(draw(st.integers(1, 3))):
        halves = draw(st.lists(st.tuples(half_lines, half_lines),
                               min_size=1, max_size=10))
        poem = build_poem(f"p{index}", len(halves),
                          text_fn=lambda i, h=halves: h[i - 1])
        width = draw(st.integers(1, len(halves)))
        step = draw(st.integers(1, width + 3))
        poems.append(poem)
        windows += rolling_windows(poem, width, step)
    return build_corpus(*poems), windows


def outcome(build, corpus, windows, n, k):
    try:
        return profile_fields(build(corpus, windows, n, k))
    except AnalysisError as exc:
        return type(exc), str(exc)


class TestBuildProfilesMatchesCounterReference:
    @settings(max_examples=300, deadline=None)
    @given(corpus_windows=windowed_corpora(), n=st.integers(2, 5),
           k=st.one_of(st.integers(1, 40), st.just(10 ** 6)))
    def test_features_values_and_errors_identical(self, corpus_windows, n, k):
        corpus, windows = corpus_windows
        assert (outcome(build_profiles, corpus, windows, n, k)
                == outcome(counter_build_profiles, corpus, windows, n, k))

    def test_first_empty_window_named(self):
        texts = {1: ("seft ond", "swegl"), 2: ("?!", ""), 3: ("\t", "…"),
                 4: ("wudu", "")}
        poem = build_poem("p", 4, text_fn=texts.get)
        windows = rolling_windows(poem, 1, 1)
        corpus = build_corpus(poem)
        expected = (AnalysisError, "sample p:2-2: normalized text shorter than 2")
        assert outcome(counter_build_profiles, corpus, windows, 2, 5) == expected
        assert outcome(build_profiles, corpus, windows, 2, 5) == expected

    @pytest.mark.parametrize("first,last", [(0, 2), (3, 9), (7, 8), (3, 2)])
    def test_bad_line_ranges_fail_like_the_reference(self, first, last):
        poem = build_poem("p", 4)
        corpus = build_corpus(poem)
        windows = [SampleWindow("p", 1, 2), SampleWindow("p", first, last)]
        with pytest.raises(Exception) as reference:
            counter_build_profiles(corpus, windows, 2, 5)
        with pytest.raises(type(reference.value),
                           match=re.escape(str(reference.value))):
            build_profiles(corpus, windows, 2, 5)

    def test_large_alphabet_re_ranks_codes(self):
        # 6300 distinct characters: 6300**5 passes 2**63, so five-gram codes
        # are re-ranked before the last fold, within each poem and again when
        # the poems' grams are merged
        chars = [chr(0x4E00 + i) for i in range(6300)]
        assert len(chars) ** 5 >= 2 ** 63
        gen = RngStream(17).generator()
        poems = []
        for index, (low, high) in enumerate([(0, 6300), (3000, 6300)]):
            halves = []
            for _ in range(60):
                words = ["".join(chars[j] for j in gen.integers(low, high, 8))
                         for _ in range(4)]
                halves.append((" ".join(words[:2]), " ".join(words[2:])))
            halves += [("".join(chars[i:i + 90]), "")
                       for i in range(low, high, 90)]
            poems.append(build_poem(f"big{index}", len(halves),
                                    text_fn=lambda i, h=halves: h[i - 1]))
        corpus = build_corpus(*poems)
        windows = [w for poem in poems for w in rolling_windows(poem, 20, 7)]
        for k in (1, 50, 10 ** 6):
            assert (profile_fields(build_profiles(corpus, windows, 5, k))
                    == profile_fields(
                        counter_build_profiles(corpus, windows, 5, k)))


def traced_peak(func, *args):
    """Peak bytes that numpy and Python allocate during ``func(*args)``."""
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_poem_grams_takes_coverage_in_place():
    # After the sort only ``order`` and ``coverage`` span every position.  A
    # buffered np.take would add a third int64 array, 24 bytes a position in
    # all, above the sort's own peak of 22: int32 ranks, int64 codes and
    # order, and two bool masks.
    size = 200_000
    gen = RngStream(3).generator()
    stream = "".join(np.array(list("abcdefghij "))[gen.integers(0, 11, size)])
    alphabet = np.array(sorted(map(ord, set(stream))))
    rank = np.zeros(alphabet[-1] + 1, dtype=np.int32)
    rank[alphabet] = np.arange(alphabet.size)
    starts = np.arange(0, size - 3000, 1000)
    args = (stream, rank, alphabet.size, 3, starts, starts + 2998)
    ngramcluster._poem_grams(*args)
    assert traced_peak(ngramcluster._poem_grams, *args) < 24 * size


def test_profiles_peak_is_a_few_arrays_of_their_size():
    # 981 windows x 600 features: the float64 matrix (8 bytes a value) and
    # at most three int64 arrays of that shape while a poem is counted (24).
    # A tuple of Python floats per window takes 32 more.
    poem = pool_text_poem("p", 1000, pool_fn=lambda i: "abcdefghijklmnop",
                          seed=5)
    corpus, windows = build_corpus(poem), rolling_windows(poem, 20, 1)
    poem.ngram_stream  # cached before the trace
    peak = traced_peak(build_profiles, corpus, windows, 3, 600)
    assert peak < 40 * len(windows) * 600


def test_linkage_peak_is_one_work_matrix():
    # the n x n work copy and O(n) caches; the first caches are read off the
    # work matrix, with no n x n block, mask or id temporaries
    dist = random_distance_matrix(1000, 0)
    assert traced_peak(agglomerative_complete, dist) < 10 * 1000 ** 2


class TestCosineDistance:
    def test_identical_vectors_zero(self):
        dist = cosine_distance_matrix(profile_fixture(
            {"a": (0.2, 0.3), "b": (0.2, 0.3)}))
        assert dist.values[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_vectors_one(self):
        dist = cosine_distance_matrix(profile_fixture(
            {"a": (1.0, 0.0), "b": (0.0, 1.0)}))
        assert dist.values[0, 1] == 1.0

    def test_hand_computed_value(self):
        dist = cosine_distance_matrix(profile_fixture(
            {"a": (1.0, 1.0), "b": (1.0, 0.0)}))
        assert dist.values[0, 1] == pytest.approx(1 - 1 / np.sqrt(2), abs=1e-12)

    def test_zero_vector_named(self):
        with pytest.raises(AnalysisError, match="sample b:1-1: zero profile"):
            cosine_distance_matrix(profile_fixture(
                {"a": (1.0, 0.0), "b": (0.0, 0.0)}))

    def test_disjoint_alphabet_windows_orthogonal(self):
        corpus = text_corpus("beorn mece hild", "wyst fugol raps")
        profiles = build_profiles(corpus, one_line_windows(corpus), 2, 1000)
        dist = cosine_distance_matrix(profiles)
        # the only shared grams would involve both alphabets at once
        assert dist.values[0, 1] == 1.0

    def test_matrix_invariants(self):
        gen = RngStream(3).generator()
        small = gen.random((8, 6)) + 0.01
        # many profiles, about a third of their features absent; the first
        # feature keeps every profile nonzero
        large = gen.random((300, 40)) * (gen.random((300, 40)) < 0.65)
        large[:, 0] += 0.01
        for values in (small, large):
            profiles = profile_fixture({
                f"s{i}": tuple(row) for i, row in enumerate(values)})
            before = profiles.values.copy()
            dist = cosine_distance_matrix(profiles)
            assert np.array_equal(dist.values, dist.values.T)
            assert np.all(np.diag(dist.values) == 0.0)
            assert dist.values.min() >= 0.0 and dist.values.max() <= 1.0
            # the profiles are normalised in a copy
            assert np.array_equal(profiles.values, before)
        # the symmetry rests on the product alone, whatever the BLAS threads
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS":
                   threads, "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            subprocess.run([sys.executable, "-c", _SYMMETRY_CHILD], env=env,
                           input=large.tobytes(), check=True)


SRC = Path(ngramcluster.__file__).parents[1]
_SYMMETRY_CHILD = """
import sys
import numpy as np
from versemetry.corpus import SampleWindow
from versemetry.ngramcluster import ProfileMatrix, cosine_distance_matrix
values = np.frombuffer(sys.stdin.buffer.read()).reshape(300, 40)
d = cosine_distance_matrix(ProfileMatrix(
    samples=tuple(SampleWindow(f"s{i}", 1, 1, {f"s{i}": 1}) for i in range(300)),
    features=tuple(map(str, range(40))), values=values)).values
assert np.array_equal(d, d.T) and np.all(np.diag(d) == 0.0)
"""


class TestAgglomerativeComplete:
    def test_forced_merge_order(self):
        from versemetry.ngramcluster import DistanceMatrix

        values = np.full((3, 3), 0.9)
        values[0, 1] = values[1, 0] = 0.1
        np.fill_diagonal(values, 0.0)
        dist = DistanceMatrix(labels=("l0", "l1", "l2"), values=values)
        tree = agglomerative_complete(dist)
        assert tree.merges == ((0, 1, 0.1), (2, 3, 0.9))

    def test_equal_distances_tie_rule(self):
        from versemetry.ngramcluster import DistanceMatrix

        values = np.full((4, 4), 0.5)
        np.fill_diagonal(values, 0.0)
        dist = DistanceMatrix(labels=("a", "b", "c", "d"), values=values)
        tree = agglomerative_complete(dist)
        assert tree.merges == ((0, 1, 0.5), (2, 3, 0.5), (4, 5, 0.5))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_oracle(self, seed):
        dist = random_distance_matrix(20, seed)
        assert agglomerative_complete(dist) == brute_force_complete(dist)

    @staticmethod
    def quantised(n, levels, seed):
        """Distances on ``levels`` evenly spaced values: most are tied."""
        from versemetry.ngramcluster import DistanceMatrix

        gen = RngStream(seed, 13).generator()
        raw = gen.integers(1, levels + 1, size=(n, n)) / levels
        values = np.maximum(raw, raw.T)
        np.fill_diagonal(values, 0.0)
        return DistanceMatrix(labels=tuple(f"s{i:02d}" for i in range(n)),
                              values=values)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), levels=st.integers(1, 4),
           seed=st.integers(0, 10 ** 6))
    def test_quantised_ties_match_brute_force(self, n, levels, seed):
        dist = self.quantised(n, levels, seed)
        assert agglomerative_complete(dist) == brute_force_complete(dist)

    @pytest.mark.parametrize("n,levels", [(5, 2), (12, 2), (25, 3), (40, 3)])
    def test_ties_between_merged_clusters(self, n, levels):
        tree = agglomerative_complete(self.quantised(n, levels, n))
        assert tree == brute_force_complete(self.quantised(n, levels, n))
        heights = [h for _, _, h in tree.merges]
        # some tied height is won or lost by a cluster made by a merge
        assert any(heights.count(h) > 1 and max(a, b) >= n
                   for a, b, h in tree.merges)

    def test_partner_is_smallest_id_not_first_row(self):
        from versemetry.ngramcluster import DistanceMatrix

        # node 5 = {0, 1} lives in row 0, before rows 2 and 3; nodes 2, 3
        # and 5 are all 0.5 apart, and the tie goes to (2, 3), not (2, 5)
        values = np.array([
            [0.0, 0.1, 0.5, 0.5, 0.9],
            [0.1, 0.0, 0.5, 0.5, 0.9],
            [0.5, 0.5, 0.0, 0.5, 0.9],
            [0.5, 0.5, 0.5, 0.0, 0.9],
            [0.9, 0.9, 0.9, 0.9, 0.0]])
        dist = DistanceMatrix(labels=tuple("abcde"), values=values)
        tree = agglomerative_complete(dist)
        assert tree == brute_force_complete(dist)
        assert tree.merges == ((0, 1, 0.1), (2, 3, 0.5), (5, 6, 0.5),
                               (4, 7, 0.9))

    def test_non_finite_distance_rejected(self):
        from versemetry.ngramcluster import DistanceMatrix

        values = np.array([[0.0, np.inf], [np.inf, 0.0]])
        with pytest.raises(AnalysisError, match="finite"):
            agglomerative_complete(DistanceMatrix(("a", "b"), values))

    def test_heights_nondecreasing_and_count(self):
        for seed in range(5):
            dist = random_distance_matrix(12, 100 + seed)
            tree = agglomerative_complete(dist)
            heights = [h for _, _, h in tree.merges]
            assert heights == sorted(heights)
            assert len(tree.merges) == len(tree.leaves) - 1


class TestTopTwoAssignment:
    def test_two_leaves(self):
        dist = random_distance_matrix(2, 1)
        tree = agglomerative_complete(dist)
        assert top_two_assignment(tree) == {"s00": 0, "s01": 1}

    def test_forced_three_point_split(self):
        from versemetry.ngramcluster import DistanceMatrix

        values = np.full((3, 3), 0.9)
        values[0, 1] = values[1, 0] = 0.1
        np.fill_diagonal(values, 0.0)
        dist = DistanceMatrix(labels=("l0", "l1", "l2"), values=values)
        assignment = top_two_assignment(agglomerative_complete(dist))
        assert assignment == {"l0": 0, "l1": 0, "l2": 1}

    def test_input_permutation_changes_nothing(self):
        from versemetry.ngramcluster import DistanceMatrix

        base = random_distance_matrix(9, 42)
        perm = RngStream(43).generator().permutation(9)
        shuffled = DistanceMatrix(
            labels=tuple(base.labels[i] for i in perm),
            values=base.values[np.ix_(perm, perm)])
        a = top_two_assignment(agglomerative_complete(base))
        b = top_two_assignment(agglomerative_complete(shuffled))
        assert a == b
        heights_a = sorted(h for _, _, h in agglomerative_complete(base).merges)
        heights_b = sorted(h for _, _, h in agglomerative_complete(shuffled).merges)
        assert heights_a == heights_b

    def test_single_leaf_rejected(self):
        with pytest.raises(AnalysisError, match="at least two leaves"):
            top_two_assignment(Dendrogram(merges=(), leaves=("only",)))


class TestClusteringQuality:
    def test_perfect_split(self):
        assignment = {"a": 0, "b": 0, "c": 1, "d": 1}
        truth = {"a": "X", "b": "X", "c": "Y", "d": "Y"}
        assert clustering_quality(assignment, truth) == (1.0, 1.0)

    def test_single_cluster(self):
        assignment = {s: 0 for s in "abcdef"}
        truth = {"a": "X", "b": "X", "c": "X", "d": "X", "e": "Y", "f": "Y"}
        purity, ari = clustering_quality(assignment, truth)
        assert purity == pytest.approx(4 / 6)
        assert ari == pytest.approx(0.0, abs=1e-12)

    def test_random_assignments_ari_near_zero(self):
        gen = RngStream(8).generator()
        samples = [f"s{i}" for i in range(40)]
        truth = {s: "XY"[i % 2] for i, s in enumerate(samples)}
        aris = []
        for _ in range(300):
            labels = gen.permutation([0] * 20 + [1] * 20)
            assignment = dict(zip(samples, (int(v) for v in labels)))
            aris.append(clustering_quality(assignment, truth)[1])
        assert abs(float(np.mean(aris))) < 0.02

    def test_mismatched_keys_rejected(self):
        with pytest.raises(AnalysisError, match="different samples"):
            clustering_quality({"a": 0}, {"b": "X"})

    def test_majority_part(self):
        w = SampleWindow(source="p", first_line=1, last_line=300,
                         composition={"A": 180, "B": 120})
        assert majority_part(w) == "A"
        tied = SampleWindow(source="p", first_line=1, last_line=300,
                            composition={"A": 150, "B": 150})
        assert majority_part(tied) == "A"


class TestTwoStyleRecovery:
    def test_split_purity_and_boundary(self):
        corpus = two_style_corpus()
        poem = corpus.poem("twins")
        windows = rolling_windows(poem, 300, 100)
        profiles = build_profiles(corpus, windows, 3, 200)
        assignment = top_two_assignment(
            agglomerative_complete(cosine_distance_matrix(profiles)))
        truth = {window_id(w): majority_part(w) for w in windows}
        purity, ari = clustering_quality(assignment, truth)
        assert purity >= 0.95
        assert ari > 0.8
        boundary = split_boundary_estimate(windows, assignment)
        assert abs(boundary - 1200) <= 100

    def test_boundary_estimator_needs_windows(self):
        corpus = two_style_corpus(n=400, switch=200)
        poem = corpus.poem("twins")
        (window,) = rolling_windows(poem, 400, 400)
        with pytest.raises(AnalysisError, match="at least two windows"):
            split_boundary_estimate([window], {window_id(window): 0})


class TestSplitBoundaryEstimate:
    @staticmethod
    def labelled_windows(labels):
        windows = [SampleWindow("p", 1 + 7 * i, 30 + 7 * i)
                   for i in range(len(labels))]
        # input order must not matter: the estimate sorts by first line
        return windows[::-1], {window_id(w): lab
                               for w, lab in zip(windows, labels)}

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=2, max_size=40))
    def test_matches_loop_reference(self, labels):
        windows, assignment = self.labelled_windows(labels)
        assert (split_boundary_estimate(windows, assignment)
                == loop_split_boundary_estimate(windows, assignment))

    @pytest.mark.parametrize("labels", [
        [0, 0], [1, 1], [0, 1], [1, 0], [0] * 9, [1] * 9, [0, 1, 0, 1, 0, 1],
    ])
    def test_edge_sequences_match_loop_reference(self, labels):
        windows, assignment = self.labelled_windows(labels)
        assert (split_boundary_estimate(windows, assignment)
                == loop_split_boundary_estimate(windows, assignment))


class TestRobustnessSweep:
    def test_two_style_poem_fully_stable(self):
        # balanced styles and k past the bigram saturation point keep every
        # window inside the shared feature space, so no cell drops out
        corpus = two_style_corpus(n=2200, switch=1100)
        result = robustness_sweep(
            corpus, "twins", n_values=[2, 3], k_values=[120, 240])
        assert len(result.cells) == 4
        assert all(cell.labels is not None for cell in result.cells)
        assert result.stability == 1.0
        for cell in result.cells:
            assert len(cell.labels) == len(result.window_ids)

    def test_single_style_poem_less_stable(self):
        poem = pool_text_poem("mono", 2200, pool_fn=lambda i: "aebimor",
                              seed=11)
        result = robustness_sweep(
            build_corpus(poem), "mono",
            n_values=[2, 3], k_values=[40, 80, 120, 160])
        assert result.stability < 1.0

    @pytest.mark.parametrize("corpus,poem_id,step", [
        (two_style_corpus(n=900, switch=300), "twins", 100),
        (build_corpus(pool_text_poem("mono", 500, pool_fn=lambda i: "aebimorstun",
                                     seed=11)), "mono", 50),
    ], ids=["two-style", "single-style"])
    def test_default_grid_matches_per_cell_reference(self, corpus, poem_id,
                                                     step):
        # the two-style poem has cells that drop out on zero vectors; the
        # single-style one changes its split with k
        result = robustness_sweep(corpus, poem_id, width=100, step=step)
        assert len(result.cells) == len(DEFAULT_N_VALUES) * len(DEFAULT_K_VALUES)
        assert result == per_cell_sweep(corpus, poem_id, DEFAULT_N_VALUES,
                                         DEFAULT_K_VALUES, 100, step)

    @pytest.mark.parametrize("k_values", [[-3, 0, 5, 10 ** 5], []])
    def test_edge_grid_matches_per_cell_reference(self, k_values):
        corpus = two_style_corpus(n=600, switch=300)
        n_values = [1, 2, 6]
        result = robustness_sweep(corpus, "twins", n_values, k_values,
                                  width=100, step=100)
        assert len(result.cells) == len(n_values) * len(k_values)
        assert result == per_cell_sweep(corpus, "twins", n_values, k_values,
                                        100, 100)

    def test_failing_cells_recorded_absent(self):
        poem = pool_text_poem("tiny", 50, pool_fn=lambda i: "aebimor", seed=2)
        result = robustness_sweep(
            build_corpus(poem), "tiny", n_values=[2], k_values=[100])
        assert result.cells == tuple(
            type(result.cells[0])(n=2, k=100, labels=None)
            for _ in range(1))
        assert result.stability == 0.0

    def test_unallocatable_distances_fail_the_sweep(self, monkeypatch):
        # every cell has the same windows, so distances too large for one
        # cell are too large for all: not a cell to record as absent
        def refused(profiles):
            raise ngramcluster._unallocatable(len(profiles.samples))

        monkeypatch.setattr(ngramcluster, "cosine_distance_matrix", refused)
        with pytest.raises(AnalysisError, match="^6 windows: cannot allocate"):
            robustness_sweep(two_style_corpus(n=600, switch=300), "twins",
                             [2], [100], width=100, step=100)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_dendrogram_monotone_heights_property(seed):
    dist = random_distance_matrix(8, seed)
    tree = agglomerative_complete(dist)
    heights = [h for _, _, h in tree.merges]
    assert heights == sorted(heights)
