"""Sense-pause classification and intraline-to-total ratio analysis.

A sense-pause is any break in speech denoted by a punctuation mark other than
a comma.  The recognized glyph set is ``. ? ! ; : ( ) -`` plus typographic
single and double quotes (ASCII quotes optionally folded in).  Classification
runs on the full verse line (both halves joined by a single space) in three
corrected steps:

1. commas are deleted before any other analysis, so they can never shadow an
   adjacent mark;
2. ellipsis dots are suppressed: a dot inside a maximal run of two or more
   dots, or inside a whitespace-delimited token consisting solely of dots,
   is flagged and contributes to no ratio;
3. position is structural: after stripping trailing whitespace, every mark
   inside the terminal contiguous run of non-alphanumeric characters is
   Final, everything else Intraline.

``strict_compat=True`` instead reproduces the historical buggy behavior for
side-by-side comparison: only the first seven marks of the enumerated set are
recognized, no comma deletion, no ellipsis suppression, and a mark is Final
only when it is literally the last character of the line.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from statistics import fmean
from typing import Iterable, Sequence
import unicodedata

from .corpus import Poem, VerseLine, filtered_line_numbers, partition_samples
from .errors import AnalysisError
from .stats import TestResult, pooled_t_test

__all__ = [
    "MarkPosition",
    "PUNCTUATION_GLYPHS",
    "SensePauseMark",
    "RatioReport",
    "classify_sense_pauses",
    "intraline_ratio",
    "window_ratio_reports",
    "sample_ratio_comparison",
    "mean_syllables_per_line",
]

# full enumerated set; the parenthesis pair counts as a single mark, so the
# "first seven" legacy subset ends at the hyphen
_CORE_GLYPHS = frozenset(".?!;:()-")
_TYPOGRAPHIC_QUOTES = frozenset("‘’“”")
_ASCII_QUOTES = frozenset("'\"")
STRICT_GLYPHS = _CORE_GLYPHS

# everything any mode can treat as punctuation, plus the comma; text
# normalizers elsewhere share this set so "strip punctuation" means the same
# thing across analyses
PUNCTUATION_GLYPHS = _CORE_GLYPHS | _TYPOGRAPHIC_QUOTES | _ASCII_QUOTES | {","}

_VOWELS = frozenset("aeiouyæœ")


class MarkPosition(Enum):
    INTRALINE = "intraline"
    FINAL = "final"


@dataclass(frozen=True)
class SensePauseMark:
    glyph: str
    line: int
    position: MarkPosition
    suppressed_as_ellipsis: bool = False


@dataclass(frozen=True)
class RatioReport:
    """Aggregated pause counts for one unit (poem, part, or sample window).

    ``ratio`` is intraline/(intraline+final), or None when no marks exist.
    """

    unit_id: str
    intraline_count: int
    final_count: int
    ratio: float | None


def _full_text(line: VerseLine) -> str:
    if line.b_text:
        return f"{line.a_text} {line.b_text}"
    return line.a_text


def _glyph_set(ascii_quotes: bool, count_hyphen: bool) -> frozenset[str]:
    glyphs = _CORE_GLYPHS | _TYPOGRAPHIC_QUOTES
    if ascii_quotes:
        glyphs |= _ASCII_QUOTES
    if not count_hyphen:
        glyphs -= {"-"}
    return glyphs


def _suppressed_dot_indices(text: str) -> set[int]:
    suppressed: set[int] = set()
    # maximal dot runs of length >= 2
    i = 0
    n = len(text)
    while i < n:
        if text[i] == ".":
            j = i
            while j < n and text[j] == ".":
                j += 1
            if j - i >= 2:
                suppressed.update(range(i, j))
            i = j
        else:
            i += 1
    # whitespace-delimited tokens consisting solely of dots
    start = 0
    for token in text.split():
        pos = text.index(token, start)
        start = pos + len(token)
        if set(token) == {"."}:
            suppressed.update(range(pos, pos + len(token)))
    return suppressed


def _terminal_run_start(text: str) -> int:
    """Index where the terminal punctuation-and-whitespace run begins.

    Trailing whitespace is stripped first; every non-alphanumeric character
    scanning back from the stripped end belongs to the run.
    """
    end = len(text.rstrip())
    k = end
    while k > 0 and not text[k - 1].isalnum():
        k -= 1
    return k


def _classify_strict(text: str, line_index: int) -> list[SensePauseMark]:
    marks = []
    last = len(text) - 1
    for i, ch in enumerate(text):
        if ch in STRICT_GLYPHS:
            position = MarkPosition.FINAL if i == last else MarkPosition.INTRALINE
            marks.append(SensePauseMark(ch, line_index, position, False))
    return marks


def classify_sense_pauses(
    line: VerseLine,
    *,
    strict_compat: bool = False,
    ascii_quotes: bool = False,
    count_hyphen: bool = True,
) -> list[SensePauseMark]:
    """All sense-pause marks on a verse line, in text order.

    Suppressed ellipsis dots are returned with ``suppressed_as_ellipsis=True``
    so callers can report them; they contribute to no ratio.  Quote glyphs
    embedded between two alphanumeric characters (elision apostrophes) are not
    marks.  Unknown glyphs are ignored.
    """
    text = _full_text(line)
    if strict_compat:
        return _classify_strict(text, line.index)

    glyphs = _glyph_set(ascii_quotes, count_hyphen)
    quote_glyphs = (_TYPOGRAPHIC_QUOTES | _ASCII_QUOTES) & glyphs
    text = text.replace(",", "")
    suppressed = _suppressed_dot_indices(text)
    final_from = _terminal_run_start(text)

    marks = []
    for i, ch in enumerate(text):
        if ch not in glyphs:
            continue
        if ch in quote_glyphs:
            embedded = (0 < i < len(text) - 1
                        and text[i - 1].isalnum() and text[i + 1].isalnum())
            if embedded:
                continue
        marks.append(SensePauseMark(
            glyph=ch,
            line=line.index,
            position=(MarkPosition.FINAL if i >= final_from
                      else MarkPosition.INTRALINE),
            suppressed_as_ellipsis=i in suppressed,
        ))
    return marks


def intraline_ratio(
    lines: Iterable[VerseLine],
    unit_id: str = "",
    *,
    strict_compat: bool = False,
    ascii_quotes: bool = False,
    count_hyphen: bool = True,
) -> RatioReport:
    """Aggregate pause counts over ``lines``; ratio undefined with no marks."""
    intraline = final = 0
    for line in lines:
        for mark in classify_sense_pauses(
                line, strict_compat=strict_compat, ascii_quotes=ascii_quotes,
                count_hyphen=count_hyphen):
            if mark.suppressed_as_ellipsis:
                continue
            if mark.position is MarkPosition.FINAL:
                final += 1
            else:
                intraline += 1
    total = intraline + final
    ratio = intraline / total if total else None
    return RatioReport(unit_id, intraline, final, ratio)


def window_ratio_reports(poem: Poem, sample_len: int, *,
                         part: str | None = None,
                         **toggles) -> list[RatioReport]:
    """Pause counts of each ``sample_len``-line sample of a poem or part.

    ``toggles`` are the classification switches of ``intraline_ratio``.
    """
    numbers = filtered_line_numbers(poem, part)
    label = poem.id if part is None else f"{poem.id}/{part}"
    reports = []
    for window in partition_samples(poem, sample_len, line_filter=part):
        lines = [poem.lines[n - 1]
                 for n in numbers[window.first_line - 1:window.last_line]]
        reports.append(intraline_ratio(
            lines, f"{label}:{window.first_line}-{window.last_line}", **toggles))
    return reports


def sample_ratio_comparison(reports_a: Sequence[RatioReport],
                            reports_b: Sequence[RatioReport]) -> TestResult:
    """Pooled t-test of two per-sample ratio lists.

    Samples with no marks have undefined ratios and are excluded from the
    test; each side must keep at least two usable samples.
    """
    ratios_a = [r.ratio for r in reports_a if r.ratio is not None]
    ratios_b = [r.ratio for r in reports_b if r.ratio is not None]
    if len(ratios_a) < 2 or len(ratios_b) < 2:
        raise AnalysisError("insufficient samples")
    return pooled_t_test(ratios_a, ratios_b)


def _strip_accents(text: str) -> str:
    decomposed = unicodedata.normalize("NFD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def _vowel_runs(text: str) -> int:
    runs = 0
    in_run = False
    for ch in _strip_accents(text).lower():
        if ch in _VOWELS:
            if not in_run:
                runs += 1
                in_run = True
        else:
            in_run = False
    return runs


def mean_syllables_per_line(lines: Sequence[VerseLine]) -> float:
    """Mean vowel-run count per line, a rough syllable-length diagnostic."""
    if not lines:
        return 0.0
    return fmean(_vowel_runs(ln.a_text) + _vowel_runs(ln.b_text) for ln in lines)
