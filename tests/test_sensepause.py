"""Tests for sense-pause classification, ratios, and the syllable estimator."""

import itertools
import pathlib
from statistics import fmean

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_poem, loop_classify_line, loop_vowel_runs
from versemetry import corpus, sensepause
from versemetry.corpus import PartRange, VerseLine, parse_corpus
from versemetry.errors import AnalysisError
from versemetry.sensepause import (
    MarkPosition,
    RatioReport,
    SensePauseMark,
    classify_sense_pauses,
    mean_syllables_per_line,
    sample_ratio_comparison,
    window_ratio_reports,
)
from versemetry.stats import RngStream

ERRATA = pathlib.Path(__file__).parent / "fixtures" / "errata"


def line_of(a_text, b_text="", index=1):
    return VerseLine(index=index, a_text=a_text, b_text=b_text)


def one_sample_ratio(lines, **toggles):
    """The counts and ratio of ``window_ratio_reports`` on a poem of
    ``lines`` taken as one sample."""
    poem = build_poem("u", len(lines), text_fn=lambda i: (
        lines[i - 1].a_text, lines[i - 1].b_text))
    (report,) = window_ratio_reports(poem, len(lines), **toggles)
    assert report.unit_id == f"u:1-{len(lines)}"
    return report.intraline_count, report.final_count, report.ratio


# ---------------------------------------------------------------------------
# The two historically misclassified lines
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def errata_poem():
    return parse_corpus(ERRATA).poem("errata")


def test_close_bracket_is_final_when_corrected(errata_poem):
    marks = classify_sense_pauses([errata_poem.line(1)])
    assert marks == [
        SensePauseMark("(", 1, MarkPosition.INTRALINE, False),
        SensePauseMark(")", 1, MarkPosition.FINAL, False),
    ]


def test_close_bracket_is_intraline_in_strict_mode(errata_poem):
    marks = classify_sense_pauses([errata_poem.line(1)], strict_compat=True)
    assert marks == [
        SensePauseMark("(", 1, MarkPosition.INTRALINE, False),
        SensePauseMark(")", 1, MarkPosition.INTRALINE, False),
    ]


def test_ellipsis_dots_all_suppressed_when_corrected(errata_poem):
    marks = classify_sense_pauses([errata_poem.line(2)])
    assert len(marks) == 5
    assert all(m.glyph == "." and m.suppressed_as_ellipsis for m in marks)
    assert [m for m in marks if not m.suppressed_as_ellipsis] == []


def test_ellipsis_dots_counted_in_strict_mode(errata_poem):
    marks = classify_sense_pauses([errata_poem.line(2)], strict_compat=True)
    assert len(marks) == 5
    assert all(not m.suppressed_as_ellipsis for m in marks)
    assert all(m.position is MarkPosition.INTRALINE for m in marks)


def test_errata_ratios_differ_between_modes(errata_poem):
    n = errata_poem.line_count
    corrected = window_ratio_reports(errata_poem, n)
    strict = window_ratio_reports(errata_poem, n, strict_compat=True)
    assert corrected == [RatioReport(f"errata:1-{n}", 1, 1, 0.5)]
    # strict: brackets intraline, 5 unsuppressed dots intraline, nothing final
    assert strict == [RatioReport(f"errata:1-{n}", 7, 0, 1.0)]


# ---------------------------------------------------------------------------
# Classification basics
# ---------------------------------------------------------------------------

def test_canonical_intraline_and_final():
    marks = classify_sense_pauses([line_of("abc; def.")])
    assert [(m.glyph, m.position) for m in marks] == [
        (";", MarkPosition.INTRALINE),
        (".", MarkPosition.FINAL),
    ]


def test_all_eleven_marks_recognized():
    text = "a. b? c! d; e: f(g) h - i ‘j’ k “l”"
    marks = classify_sense_pauses([line_of(text)])
    glyphs = [m.glyph for m in marks]
    assert glyphs == [".", "?", "!", ";", ":", "(", ")", "-",
                      "‘", "’", "“", "”"]


def test_comma_is_never_a_mark():
    assert classify_sense_pauses([line_of("a, b, c,")]) == []


def test_unknown_glyphs_ignored():
    assert classify_sense_pauses([line_of("«abc» ~x~ †y†")]) == []


def test_ascii_quotes_toggle():
    line = line_of('he said "stop" now')
    assert classify_sense_pauses([line]) == []
    marks = classify_sense_pauses([line], ascii_quotes=True)
    assert [m.glyph for m in marks] == ['"', '"']


def test_embedded_apostrophe_is_not_a_mark():
    line = line_of("ne'er the less", "o’er the waves")
    assert classify_sense_pauses([line], ascii_quotes=True) == []


def test_free_standing_quote_counts():
    marks = classify_sense_pauses([line_of("he said 'stop now")],
                                  ascii_quotes=True)
    assert [m.glyph for m in marks] == ["'"]


def test_hyphen_toggle():
    line = line_of("guð-rinc monig")
    assert [m.glyph for m in classify_sense_pauses([line])] == ["-"]
    assert classify_sense_pauses([line], count_hyphen=False) == []


def test_terminal_punctuation_run_is_final():
    marks = classify_sense_pauses([line_of('abc!?')])
    assert [(m.glyph, m.position) for m in marks] == [
        ("!", MarkPosition.FINAL), ("?", MarkPosition.FINAL)]


def test_final_survives_trailing_whitespace():
    marks = classify_sense_pauses([line_of("abc.   ")])
    assert [(m.glyph, m.position) for m in marks] == [(".", MarkPosition.FINAL)]


def test_caesura_is_not_line_end():
    marks = classify_sense_pauses([line_of("abc.", "def.")])
    assert [(m.glyph, m.position) for m in marks] == [
        (".", MarkPosition.INTRALINE), (".", MarkPosition.FINAL)]


def test_strict_final_requires_literal_last_character():
    assert classify_sense_pauses(
        [line_of("abc. ")], strict_compat=True
    ) == [SensePauseMark(".", 1, MarkPosition.INTRALINE, False)]
    assert classify_sense_pauses(
        [line_of("abc.")], strict_compat=True
    ) == [SensePauseMark(".", 1, MarkPosition.FINAL, False)]


def test_strict_mode_ignores_quote_glyphs():
    line = line_of("a ‘b’ c “d”.")
    marks = classify_sense_pauses([line], strict_compat=True)
    assert [m.glyph for m in marks] == ["."]


def test_single_free_standing_dot_token_is_suppressed():
    marks = classify_sense_pauses([line_of("abc . def")])
    assert len(marks) == 1
    assert marks[0].suppressed_as_ellipsis


def test_comma_separated_dots_merge_into_ellipsis():
    # comma deletion happens first, so ".,." is one dot run
    marks = classify_sense_pauses([line_of("abc.,. def")])
    assert all(m.suppressed_as_ellipsis for m in marks)


# ---------------------------------------------------------------------------
# The one-pass kernel against the per-line loops
# ---------------------------------------------------------------------------

TOGGLES = [dict(strict_compat=strict, ascii_quotes=quotes, count_hyphen=hyphen)
           for strict in (False, True) for quotes in (False, True)
           for hyphen in (False, True)]


def assert_matches_loops(lines):
    """Every toggle: the kernel's marks are the per-line loop's, and the
    syllable mean is the per-half loop's."""
    for toggles in TOGGLES:
        marks = classify_sense_pauses(lines, **toggles)
        assert [(m.glyph, m.line, m.position.value, m.suppressed_as_ellipsis)
                for m in marks] == [mark for line in lines
                                    for mark in loop_classify_line(line,
                                                                   **toggles)]
    expected = (fmean(loop_vowel_runs(ln.a_text) + loop_vowel_runs(ln.b_text)
                      for ln in lines) if lines else 0.0)
    got = mean_syllables_per_line(lines)
    assert type(got) is float and got == expected


KERNEL_HALVES = {
    "every-glyph": ("a. b? c! d; e: f(g) h - i ‘j’ k “l”", "m 'n' o \"p\"."),
    "quotes-between-alnum": ("ne'er o’er a“b c”d", "9'9 æ’ð x\"y ‘z’"),
    "quotes-at-edges": ("’tis", "o’"),
    "dots-split-by-commas": ("abc.,. def .,. g", ". , . x.,y ,.,"),
    "dot-tokens": ("a . b .. c", ". x ."),
    "dot-runs": ("a...b", "c.... d."),
    "unicode-space": ("a\u2003.\u2003b", "c\x1c.\x1cd\u00a0.\u2003"),
    "trailing-space": ("abc.\u2003", "def;\x1c\t"),
    "letters-and-digits": ("æ. ð; þ9. 12.5", "x9!"),
    "accents": ("é. e\u0301; ǣ.", "sǣ-gōd İ. ı;"),
    "combining-after-mark": ("a.\u0301 b", ";\u0301"),
    "empty-b": ("a; b.", ""),
    "empty-a": ("", "a; b."),
    "both-empty": ("", ""),
    "only-marks": ("?!", ";"),
}


@pytest.mark.parametrize("halves", list(KERNEL_HALVES.values()),
                         ids=list(KERNEL_HALVES))
def test_kernel_matches_loops_on_fixed_lines(halves):
    assert_matches_loops([line_of(*halves)])


def test_kernel_matches_loops_over_every_fixed_line_at_once():
    assert_matches_loops([line_of(*halves, index=i) for i, halves
                          in enumerate(KERNEL_HALVES.values(), start=1)])


KERNEL_TEXT = st.text(
    alphabet="ab9æðþé\u0301İ .,;:!?()-'\"‘’“”\t\u2003\x1c\u00a0…«",
    max_size=12)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(KERNEL_TEXT, KERNEL_TEXT), max_size=6))
def test_kernel_matches_loops(halves):
    assert_matches_loops([line_of(a, b, index=i)
                          for i, (a, b) in enumerate(halves, start=1)])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(KERNEL_TEXT, KERNEL_TEXT), min_size=1, max_size=12),
       st.integers(1, 5), st.sampled_from(TOGGLES))
def test_window_counts_match_loops(halves, sample_len, toggles):
    poem = build_poem("p", len(halves),
                      text_fn=lambda i: halves[i - 1])
    expected = []
    for window in range(len(halves) // sample_len):
        marks = [mark for line in poem.lines[window * sample_len:
                                             (window + 1) * sample_len]
                 for mark in loop_classify_line(line, **toggles)
                 if not mark[3]]
        expected.append((sum(m[2] == "intraline" for m in marks),
                         sum(m[2] == "final" for m in marks)))
    reports = window_ratio_reports(poem, sample_len, **toggles)
    assert [(r.intraline_count, r.final_count) for r in reports] == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(KERNEL_TEXT, KERNEL_TEXT), min_size=1, max_size=6),
       st.sampled_from(TOGGLES))
def test_ratio_counts_the_unsuppressed_marks(halves, toggles):
    lines = [line_of(a, b, index=i) for i, (a, b) in enumerate(halves, start=1)]
    counted = [mark.position for mark in classify_sense_pauses(lines, **toggles)
               if not mark.suppressed_as_ellipsis]
    intraline, final, _ = one_sample_ratio(lines, **toggles)
    assert (intraline, final) == (
        counted.count(MarkPosition.INTRALINE), counted.count(MarkPosition.FINAL))


def test_nothing_leaks_across_a_line_boundary():
    def marks(*texts):
        return classify_sense_pauses(
            [line_of(t, index=i) for i, t in enumerate(texts, start=1)])

    # a vowel at the end of one line and at the start of the next
    assert mean_syllables_per_line([line_of("ba"), line_of("ab")]) == 1.0
    assert mean_syllables_per_line([line_of("ba", "ab")]) == 2.0
    # a dot on each side of the boundary is no ellipsis
    assert marks("abc.", ".def") == [
        SensePauseMark(".", 1, MarkPosition.FINAL, False),
        SensePauseMark(".", 2, MarkPosition.INTRALINE, False)]
    # a mark is final although the next line starts with a letter
    assert marks("a;", "b") == [
        SensePauseMark(";", 1, MarkPosition.FINAL, False)]
    # a quote at a line edge is not embedded between letters
    assert marks("a’", "b") == [
        SensePauseMark("’", 1, MarkPosition.FINAL, False)]
    assert marks("a", "’b") == [
        SensePauseMark("’", 2, MarkPosition.INTRALINE, False)]
    # strict mode: the last character of each line, not of the call
    assert classify_sense_pauses([line_of("a."), line_of("b.", index=2)],
                                 strict_compat=True) == [
        SensePauseMark(".", 1, MarkPosition.FINAL, False),
        SensePauseMark(".", 2, MarkPosition.FINAL, False)]


def test_no_lines_no_marks():
    for toggles in TOGGLES:
        assert classify_sense_pauses([], **toggles) == []
    assert classify_sense_pauses([line_of(",,,")]) == []


# ---------------------------------------------------------------------------
# Ratios
# ---------------------------------------------------------------------------

def test_ratio_half_and_half():
    assert one_sample_ratio([line_of("a. b.")]) == (1, 1, 0.5)


def test_ratio_zero_when_only_final():
    lines = [line_of(f"word {i}.", index=i) for i in range(1, 4)]
    _, final, ratio = one_sample_ratio(lines)
    assert ratio == 0.0
    assert final == 3


def test_ratio_three_tenths():
    lines = [line_of("a; b; c; x.", index=1)] + [
        line_of(f"w {i}.", index=i) for i in range(2, 8)]
    intraline, final, ratio = one_sample_ratio(lines)
    assert (intraline, final) == (3, 7)
    assert ratio == pytest.approx(0.3)


def test_ratio_undefined_without_marks():
    assert one_sample_ratio([line_of("no marks here")]) == (0, 0, None)


def test_suppressed_dots_contribute_to_no_ratio():
    assert one_sample_ratio([line_of("abc... def; ghi.")]) == (1, 1, 0.5)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

WORDS = st.lists(
    st.text(alphabet="abcæðþ", min_size=1, max_size=6), min_size=1, max_size=8)
PUNCT = st.sampled_from([".", ";", "!", "?", ":", "...", ""])


@st.composite
def verse_lines(draw):
    words = draw(WORDS)
    puncts = [draw(PUNCT) for _ in words]
    text = " ".join(w + p for w, p in zip(words, puncts))
    return line_of(text)


@given(verse_lines(), st.data())
def test_comma_insertion_never_changes_counts(line, data):
    base = one_sample_ratio([line])
    text = line.a_text
    positions = sorted(
        data.draw(st.lists(st.integers(min_value=0, max_value=len(text)),
                           max_size=5)),
        reverse=True,
    )
    for pos in positions:
        text = text[:pos] + "," + text[pos:]
    assert one_sample_ratio([line_of(text)]) == base


@given(verse_lines())
def test_appending_period_never_increases_ratio(line):
    # a trailing dot would merge with the appended one into an ellipsis,
    # removing a final mark instead of adding one, so such lines are excluded
    if line.a_text.replace(",", "").rstrip().endswith("."):
        return
    _, _, before = one_sample_ratio([line])
    _, _, after = one_sample_ratio([line_of(line.a_text + ".")])
    if before is None:
        assert after in (None, 0.0)
    else:
        assert after is not None
        assert after <= before


@given(verse_lines())
def test_replacing_dots_with_commas_removes_dot_marks(line):
    replaced = line_of(line.a_text.replace(".", ","))
    marks = classify_sense_pauses([replaced])
    assert all(m.glyph != "." for m in marks)


@given(verse_lines(), st.text(alphabet=" \t", max_size=4))
def test_counts_invariant_under_trailing_whitespace(line, tail):
    base = one_sample_ratio([line])
    assert one_sample_ratio([line_of(line.a_text + tail)]) == base


# ---------------------------------------------------------------------------
# Sample comparison
# ---------------------------------------------------------------------------

def _punctuated_poem(poem_id, n, seed, parts=None):
    gen = RngStream(seed).generator()
    styles = ["w; x.", "w. x.", "w; x; y.", "w x."]
    picks = gen.integers(0, len(styles), size=n)

    def text_fn(i):
        return styles[picks[i - 1]], "tail."

    return build_poem(poem_id, n, parts=parts, text_fn=text_fn)


def test_poem_against_itself_is_null():
    poem = _punctuated_poem("p", 400, seed=1)
    ra, rb = window_ratio_reports(poem, 100), window_ratio_reports(poem, 100)
    result = sample_ratio_comparison(ra, rb)
    assert ra == rb
    assert result.statistic == 0.0
    assert result.p_value == 1.0
    assert result.df == len(ra) + len(rb) - 2


def test_comparison_df_counts_usable_samples():
    a = _punctuated_poem("a", 439, seed=2)
    b = _punctuated_poem("b", 250, seed=3)
    ra, rb = window_ratio_reports(a, 100), window_ratio_reports(b, 100)
    result = sample_ratio_comparison(ra, rb)
    assert (len(ra), len(rb)) == (4, 2)
    assert result.df == 4


def test_comparison_with_part_filter():
    parts = (PartRange("A", 1, 250), PartRange("B", 251, 600))
    poem = _punctuated_poem("p", 600, seed=4, parts=parts)
    ra = window_ratio_reports(poem, 100, part="A")
    rb = window_ratio_reports(poem, 100, part="B")
    result = sample_ratio_comparison(ra, rb)
    assert (len(ra), len(rb)) == (2, 3)
    assert ra[0].unit_id == "p/A:1-100"
    assert rb[-1].unit_id == "p/B:201-300"
    assert 0.0 <= result.p_value <= 1.0


def test_comparison_requires_two_usable_samples_per_side():
    bare = build_poem("bare", 250, text_fn=lambda i: ("no punctuation", "at all"))
    other = _punctuated_poem("o", 250, seed=5)
    with pytest.raises(AnalysisError, match="insufficient samples"):
        sample_ratio_comparison(window_ratio_reports(bare, 100),
                                window_ratio_reports(other, 100))


# ---------------------------------------------------------------------------
# Syllable estimator
# ---------------------------------------------------------------------------

def test_syllables_counts_vowel_runs():
    assert mean_syllables_per_line([line_of("se god")]) == 2.0


def test_syllables_no_vowels():
    assert mean_syllables_per_line([line_of("hwr brr")]) == 0.0


def test_syllables_handles_digraphs_and_accents():
    # æ is a vowel; a macron variant folds to its base vowel
    assert mean_syllables_per_line([line_of("sǣ")]) == 1.0
    assert mean_syllables_per_line([line_of("gōd wer")]) == 2.0
    # case folds; adjacent vowels form one run ("eo" + "o")
    assert mean_syllables_per_line([line_of("HEOFON")]) == 2.0


def test_syllables_spans_both_halves():
    assert mean_syllables_per_line([line_of("se god", "heofon rice")]) == 6.0


def test_syllables_empty_inputs():
    assert mean_syllables_per_line([]) == 0.0
    assert mean_syllables_per_line([line_of("")]) == 0.0


def test_mode_glyph_sets_and_the_comma_make_up_the_punctuation_set():
    modes = itertools.product((False, True), repeat=3)
    glyphs = frozenset().union(*(sensepause._glyph_set(*mode)
                                 for mode in modes))
    assert glyphs | {","} == corpus.PUNCTUATION_GLYPHS
