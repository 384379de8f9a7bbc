"""Sense-pause classification and intraline-to-total ratio analysis.

A sense-pause is any break in speech denoted by a punctuation mark other than
a comma.  The recognized glyph set is ``. ? ! ; : ( ) -`` plus typographic
single and double quotes (ASCII quotes optionally folded in).  Classification
runs on the full verse line (both halves joined by a single space).

All lines of one call are classified in a single pass over one array of
their code points, in which every position keeps the row of its line, so no
rule looks across a line boundary.  The properties of a character (glyph,
quote, alphanumeric, whitespace) are looked up once per distinct character.
The corrected rules:

1. commas are deleted before any other analysis, so they can never shadow an
   adjacent mark;
2. ellipsis dots are suppressed: a dot is flagged, and contributes to no
   ratio, when its maximal run of dots is two or more long, or when the run
   is bounded by whitespace or the line edge on both sides;
3. position is structural: a mark is Final iff no alphanumeric character
   follows it on its line, Intraline otherwise;
4. a quote glyph between two alphanumeric characters (an elision
   apostrophe) is not a mark.

``strict_compat=True`` runs the same pass under the historical buggy rules,
for side-by-side comparison: only the first seven marks of the enumerated set
are recognized, no comma deletion, no ellipsis suppression, and a mark is
Final only when it is literally the last character of the line.

``window_ratio_reports`` gives the ratio of each fixed-length sample of a
poem or part: it classifies the poem or part in one call and sums per-line
counts over each sample with prefix sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence
import unicodedata

import numpy as np

from .corpus import Poem, VerseLine, filtered_line_numbers
from .errors import AnalysisError, InputError
from .stats import TestResult, pooled_t_test

__all__ = [
    "MarkPosition",
    "SensePauseMark",
    "RatioReport",
    "classify_sense_pauses",
    "window_ratio_reports",
    "sample_ratio_comparison",
    "mean_syllables_per_line",
]

# the modes' glyph subsets, which with the comma make up corpus's
# PUNCTUATION_GLYPHS; in the full enumerated set the parenthesis pair counts
# as a single mark, so the "first seven" legacy subset ends at the hyphen
_CORE_GLYPHS = frozenset(".?!;:()-")
_TYPOGRAPHIC_QUOTES = frozenset("‘’“”")
_ASCII_QUOTES = frozenset("'\"")
_QUOTES = _TYPOGRAPHIC_QUOTES | _ASCII_QUOTES

_VOWEL_CODES = np.array(sorted(map(ord, "aeiouyæœ")))
_COMMA, _DOT = ord(","), ord(".")
# property bits of a character, looked up once per distinct character
_GLYPH, _QUOTE, _ALNUM, _SPACE = 1, 2, 4, 8


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


_POSITIONS = (MarkPosition.INTRALINE, MarkPosition.FINAL)


def _glyph_set(strict_compat: bool, ascii_quotes: bool,
               count_hyphen: bool) -> frozenset[str]:
    if strict_compat:
        return _CORE_GLYPHS
    glyphs = _CORE_GLYPHS | _TYPOGRAPHIC_QUOTES
    if ascii_quotes:
        glyphs |= _ASCII_QUOTES
    if not count_hyphen:
        glyphs -= {"-"}
    return glyphs


def _code_points(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"),
                         dtype="<u4")


def _properties(text: str, codes: np.ndarray,
                glyphs: frozenset[str]) -> np.ndarray:
    """Property bits of every position, looked up once per distinct
    character of ``text``."""
    distinct = set(text)
    table = np.zeros(max(map(ord, distinct), default=0) + 1, dtype=np.uint8)
    for ch in distinct:
        table[ord(ch)] = ((ch in glyphs) * _GLYPH
                          | (ch in glyphs and ch in _QUOTES) * _QUOTE
                          | ch.isalnum() * _ALNUM | ch.isspace() * _SPACE)
    return table[codes]


def _neighbours(mask: np.ndarray,
                joined: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``mask`` at the previous and at the next position on the same line;
    ``joined[i]`` tells whether positions i and i + 1 share a line."""
    before = np.zeros_like(mask)
    before[1:] = mask[:-1] & joined
    after = np.zeros_like(mask)
    after[:-1] = mask[1:] & joined
    return before, after


def _mark_arrays(lines: Sequence[VerseLine], strict_compat: bool,
                 glyphs: frozenset[str]):
    """Code point, line row, finality and suppression of every mark."""
    texts = [f"{ln.a_text} {ln.b_text}" if ln.b_text else ln.a_text
             for ln in lines]
    text = "".join(texts)
    codes = _code_points(text)
    row = np.repeat(np.arange(len(texts), dtype=np.int32),
                    list(map(len, texts)))
    if not strict_compat:
        keep = codes != _COMMA
        codes, row = codes[keep], row[keep]
    props = _properties(text, codes, glyphs)
    joined = row[1:] == row[:-1]
    mark = (props & _GLYPH) != 0
    if strict_compat:
        final = np.ones_like(mark)
        final[:-1] = ~joined
        suppressed = np.zeros_like(mark)
    else:
        alnum = (props & _ALNUM) != 0
        alnum_before, alnum_after = _neighbours(alnum, joined)
        mark &= ~(((props & _QUOTE) != 0) & alnum_before & alnum_after)
        # the first alphanumeric position at or after each position
        size = codes.size
        ahead = np.where(alnum, np.arange(size, dtype=np.int32), size)
        ahead = np.minimum.accumulate(ahead[::-1])[::-1]
        final = np.append(row, -1)[ahead] != row
        dot = codes == _DOT
        dot_before, dot_after = _neighbours(dot, joined)
        solid_before, solid_after = _neighbours((props & _SPACE) == 0, joined)
        suppressed = dot & (dot_before | dot_after
                            | ~(solid_before | solid_after))
    at = np.flatnonzero(mark)
    return codes[at], row[at], final[at], suppressed[at]


def classify_sense_pauses(
    lines: Sequence[VerseLine],
    *,
    strict_compat: bool = False,
    ascii_quotes: bool = False,
    count_hyphen: bool = True,
) -> list[SensePauseMark]:
    """All sense-pause marks on the verse lines, in text order.

    Each mark carries the index of its line.  Suppressed ellipsis dots are
    returned with ``suppressed_as_ellipsis=True`` so callers can report them;
    they contribute to no ratio.  Quote glyphs embedded between two
    alphanumeric characters (elision apostrophes) are not marks.  Unknown
    glyphs are ignored.
    """
    codes, rows, final, suppressed = (a.tolist() for a in _mark_arrays(
        lines, strict_compat,
        _glyph_set(strict_compat, ascii_quotes, count_hyphen)))
    return [SensePauseMark(chr(code), lines[row].index, _POSITIONS[is_final],
                           is_suppressed)
            for code, row, is_final, is_suppressed
            in zip(codes, rows, final, suppressed)]


def _report(unit_id: str, intraline: int, final: int) -> RatioReport:
    total = intraline + final
    return RatioReport(unit_id, intraline, final,
                       intraline / total if total else None)


def window_ratio_reports(poem: Poem, sample_len: int, *,
                         part: str | None = None,
                         **toggles) -> list[RatioReport]:
    """Pause counts of each ``sample_len``-line sample of a poem or part.

    The samples are consecutive and do not overlap; a trailing remainder
    shorter than ``sample_len`` is dropped.  A part's samples number its
    lines from 1, in order.  ``toggles`` are the classification switches of
    ``classify_sense_pauses``.  The poem or part is classified in one call;
    a poem's line n has index n, so each sample sums the per-line counts of
    its lines from prefix sums.  Suppressed ellipsis dots are not counted.
    """
    numbers = filtered_line_numbers(poem, part)
    if sample_len < 1:
        raise InputError("sample_len must be at least 1")
    label = poem.id if part is None else f"{poem.id}/{part}"
    starts = range(1, len(numbers) - sample_len + 2, sample_len)
    if not starts:
        return []
    # line indexes of the intraline and of the final marks that count
    counted: tuple[list[int], list[int]] = ([], [])
    for mark in classify_sense_pauses([poem.lines[n - 1] for n in numbers],
                                      **toggles):
        if not mark.suppressed_as_ellipsis:
            counted[mark.position is MarkPosition.FINAL].append(mark.line)
    intraline, final = (
        np.concatenate(([0], np.cumsum(np.bincount(
            np.array(indexes, dtype=np.intp),
            minlength=poem.line_count + 1)[numbers]))).tolist()
        for indexes in counted)
    return [_report(f"{label}:{first}-{first + sample_len - 1}",
                    intraline[first + sample_len - 1] - intraline[first - 1],
                    final[first + sample_len - 1] - final[first - 1])
            for first in starts]


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


def mean_syllables_per_line(lines: Sequence[VerseLine]) -> float:
    """Mean vowel-run count per line, a rough syllable-length diagnostic.

    Every half-line is counted from one string, the halves joined by
    newlines: NFD-normalized, stripped of combining characters and
    lower-cased.  A newline is no vowel, so no run spans two halves.
    """
    if not lines:
        return 0.0
    text = unicodedata.normalize("NFD", "\n".join(
        half for ln in lines for half in (ln.a_text, ln.b_text)))
    combining = dict.fromkeys(ord(ch) for ch in set(text)
                              if unicodedata.combining(ch))
    vowel = np.isin(_code_points(text.translate(combining).lower()),
                    _VOWEL_CODES)
    # a run starts at a vowel that follows no vowel
    runs = int(vowel[0]) + int(np.count_nonzero(vowel[1:] & ~vowel[:-1]))
    return runs / len(lines)
