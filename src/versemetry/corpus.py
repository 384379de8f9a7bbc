"""Parsing, validation, and windowing of annotated verse corpora.

This is the only module that knows the on-disk format.  A corpus directory
holds a ``corpus.json`` manifest naming each poem's text file, optional
scansion and compound annotation files, and optional part ranges.  The text
format is one verse line per file line, a-verse and b-verse separated by a
single TAB (empty b-verse allowed); a poem has at least one line.  Scansion
rows carry labels A-E or ``-`` for a missing half; compound rows carry one
lemma occurrence per row.  ``build_poem`` validates one poem from the
contents of its files; a malformed, missing or undecodable input is a
``CorpusError``.

Parsed values are immutable and safe to share across threads.  Raw half-line
text is preserved exactly as read; all classification happens downstream.
A poem's derived columns, built on first use and shared by every analysis,
are ``Poem.scansion_codes``, its labels as a read-only array;
``Poem.ngram_stream``, its text normalized by ``normalize_text`` into one
padded stream; and ``Poem.compound_tokens``, its compound tokens.  Every
``SampleWindow`` numbers the lines of its own poem; ``filtered_line_numbers``
lists the lines of one part.  A parsed ``Corpus`` names the files it was
read from, with the SHA-256 digest of the bytes that were parsed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .errors import AnalysisError, CorpusError, InputError

__all__ = [
    "PUNCTUATION_GLYPHS",
    "SCANSION_LABELS",
    "PartRange",
    "VerseLine",
    "Poem",
    "NgramStream",
    "CompoundTokens",
    "SampleWindow",
    "Corpus",
    "read_text",
    "read_json",
    "normalize_text",
    "build_poem",
    "parse_corpus",
    "write_corpus",
    "resolve_line_range",
    "rolling_windows",
]

SCANSION_LABELS = frozenset("ABCDE")

_SCANSION_HEADER = "line\ta\tb"
_COMPOUND_HEADER = "line\tlemma"
_FILE_KEYS = ("text", "scansion", "compounds")
_LABEL_CODES = {None: -1, **{label: code for code, label
                             in enumerate(sorted(SCANSION_LABELS))}}

# everything any sense-pause mode can treat as punctuation, plus the comma;
# normalize_text strips the same set
PUNCTUATION_GLYPHS = frozenset(".?!;:()-‘’“”'\",")
# tabs need no entry: split() treats them as whitespace
_TO_SPACE = str.maketrans(dict.fromkeys(PUNCTUATION_GLYPHS, " "))


def _normalized(texts: list[str]) -> list[str]:
    """``normalize_text`` of each text, translating them as one string.

    Each text is lowered on its own and before translation, since a final
    sigma depends on what follows it ("ΑΣ’Β" keeps a medial one); the
    translated string is cut at the lowered lengths, which can differ.
    """
    lowered = [text.lower() for text in texts]
    joined = "".join(lowered).translate(_TO_SPACE)
    cuts = [0, *accumulate(map(len, lowered))]
    return [" ".join(joined[a:b].split()) for a, b in zip(cuts, cuts[1:])]


def normalize_text(text: str) -> str:
    """``text`` normalized for n-gram counting: lowercased, punctuation
    replaced by spaces, whitespace collapsed to single spaces."""
    return _normalized([text])[0]


@dataclass(frozen=True)
class PartRange:
    """Named contiguous span of lines, 1-based and inclusive."""

    name: str
    first: int
    last: int


@dataclass(frozen=True)
class VerseLine:
    index: int
    a_text: str
    b_text: str
    a_pattern: str | None = None
    b_pattern: str | None = None
    compounds: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class NgramStream:
    """A poem's padded normalized text, its line edges and its alphabet.

    ``text`` is one space, then each non-empty normalized line followed by a
    space, so the padded text " <text> " of lines f..l is
    ``text[edges[f-1]:edges[l] + 1]``; ``edges`` is a read-only int64 array.
    """

    text: str
    edges: np.ndarray
    alphabet: frozenset[str]


@dataclass(frozen=True, eq=False)
class CompoundTokens:
    """A poem's compound tokens in text order: each one's line number, in a
    read-only int64 array, and its lemma."""

    lines: np.ndarray
    lemmas: tuple[str, ...]


@dataclass(frozen=True)
class Poem:
    id: str
    lines: tuple[VerseLine, ...]
    parts: tuple[PartRange, ...]

    @property
    def line_count(self) -> int:
        return len(self.lines)

    @cached_property
    def scansion_codes(self) -> np.ndarray:
        """Read-only (line_count, 2) int64 codes of each line's a and b
        halves: labels A-E are 0-4 and an unscanned half is -1."""
        codes = np.array([[_LABEL_CODES[ln.a_pattern] for ln in self.lines],
                          [_LABEL_CODES[ln.b_pattern] for ln in self.lines]],
                         dtype=np.int64).T.copy()
        codes.flags.writeable = False
        return codes

    @cached_property
    def ngram_stream(self) -> NgramStream:
        """The stream of each line's a and b halves joined by a space."""
        texts = _normalized([f"{ln.a_text} {ln.b_text}" for ln in self.lines])
        edges = np.cumsum([0] + [len(text) + 1 if text else 0
                                 for text in texts], dtype=np.int64)
        edges.flags.writeable = False
        stream = " " + "".join(text + " " for text in texts if text)
        return NgramStream(stream, edges, frozenset(stream))

    @cached_property
    def compound_tokens(self) -> CompoundTokens:
        tokens = [(ln.index, lemma) for ln in self.lines
                  for lemma in ln.compounds]
        lines = np.array([index for index, _ in tokens], dtype=np.int64)
        lines.flags.writeable = False
        return CompoundTokens(lines, tuple(lemma for _, lemma in tokens))

    def line(self, index: int) -> VerseLine:
        """Fetch a line by its 1-based editorial number."""
        if not 1 <= index <= len(self.lines):
            raise CorpusError(f"poem {self.id}: line {index} out of range")
        return self.lines[index - 1]

    def part_names(self) -> tuple[str, ...]:
        """Distinct part names in first-appearance order."""
        seen: dict[str, None] = {}
        for part in self.parts:
            seen.setdefault(part.name, None)
        return tuple(seen)


@dataclass(frozen=True)
class SampleWindow:
    """Contiguous slice of a poem's lines with provenance.

    ``first_line``/``last_line`` are 1-based inclusive line numbers of the
    poem ``source``.  ``composition`` maps part name to the number of window
    lines drawn from it.
    """

    source: str
    first_line: int
    last_line: int
    composition: Mapping[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Corpus:
    """Poems in manifest order.  ``inputs`` holds the (name relative to the
    root, ``sha256:`` digest) of each file ``parse_corpus`` read, in read
    order; a corpus built in memory has none."""

    poems: tuple[Poem, ...]
    inputs: tuple[tuple[str, str], ...] = field(default=(), compare=False)

    def poem(self, poem_id: str) -> Poem:
        for p in self.poems:
            if p.id == poem_id:
                return p
        raise CorpusError(f"no poem with id {poem_id!r}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _read(path: Path) -> tuple[bytes, str]:
    """A UTF-8 file's bytes and their text; a missing or undecodable file is
    a CorpusError.  CR and CRLF line ends are kept: every reader splits the
    text with ``str.splitlines``, and JSON takes a CR for whitespace."""
    if not path.is_file():
        raise CorpusError(f"missing file: {path}")
    data = path.read_bytes()
    try:
        return data, data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not UTF-8 text: {exc}")


def read_text(path: Path) -> str:
    """A UTF-8 file's text; a missing or undecodable file is a CorpusError."""
    return _read(path)[1]


def _json_value(path: Path, text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{path}: invalid JSON: {exc}")


def read_json(path: Path):
    """A JSON file's value; a missing, undecodable or malformed file is a
    CorpusError."""
    return _json_value(path, read_text(path))


def _verse_halves(text: str, poem_id: str) -> list[tuple[str, str]]:
    halves = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        fields = raw.split("\t")
        if len(fields) > 2:
            raise CorpusError(
                f"poem {poem_id}: line {lineno}: more than one TAB in verse line"
            )
        halves.append((fields[0], fields[1] if len(fields) == 2 else ""))
    if not halves:
        raise CorpusError(f"poem {poem_id}: no verse lines")
    return halves


def _annotation_rows(text: str, header: str, kind: str, poem_id: str,
                     line_count: int) -> Iterator[tuple[int, list[str]]]:
    """Line number and fields of each non-blank row of a scansion or
    compound file.  The header row is optional; a row has as many fields as
    the header, the last one not empty."""
    body = text.splitlines()
    if body and body[0] == header:
        body = body[1:]
    width = header.count("\t") + 1
    for raw in body:
        if not raw.strip():
            continue
        fields = raw.split("\t")
        if len(fields) != width or not fields[-1]:
            raise CorpusError(f"poem {poem_id}: bad {kind} row {raw!r}")
        try:
            lineno = int(fields[0])
        except ValueError:
            raise CorpusError(
                f"poem {poem_id}: bad {kind} line number {fields[0]!r}")
        if not 1 <= lineno <= line_count:
            raise CorpusError(
                f"poem {poem_id}: {kind} references missing line {lineno}")
        yield lineno, fields


def _parse_label(token: str, poem_id: str, lineno: int) -> str | None:
    if token == "-":
        return None
    if token in SCANSION_LABELS:
        return token
    raise CorpusError(
        f"poem {poem_id}: line {lineno}: malformed scansion label {token!r}"
    )


def _validate_parts(raw_parts, poem_id: str, line_count: int) -> tuple[PartRange, ...]:
    if not raw_parts:
        return (PartRange(poem_id, 1, line_count),)
    if not isinstance(raw_parts, list):
        raise CorpusError(f"poem {poem_id}: parts must be a list, not {raw_parts!r}")
    parts = []
    for entry in raw_parts:
        try:
            part = PartRange(str(entry["name"]), int(entry["first"]), int(entry["last"]))
        except (KeyError, TypeError, ValueError):
            raise CorpusError(f"poem {poem_id}: malformed part entry {entry!r}")
        if part.first > part.last:
            raise CorpusError(f"poem {poem_id}: empty part range {part.name}")
        parts.append(part)
    if parts[0].first != 1:
        raise CorpusError(f"poem {poem_id}: parts do not start at line 1")
    for prev, cur in zip(parts, parts[1:]):
        if cur.first <= prev.last:
            raise CorpusError(f"poem {poem_id}: overlapping part ranges")
        if cur.first != prev.last + 1:
            raise CorpusError(f"poem {poem_id}: gap between part ranges")
    if parts[-1].last != line_count:
        raise CorpusError(
            f"poem {poem_id}: parts cover lines 1-{parts[-1].last}, "
            f"poem has {line_count}"
        )
    return tuple(parts)


def build_poem(poem_id: str, text: str, scansion: str | None,
               compounds: str | None, parts) -> Poem:
    """Validate one poem from the contents of its files.

    ``text`` is the verse text, ``scansion`` and ``compounds`` the
    annotation files' text (``None`` when the poem has none) and ``parts``
    the manifest's part list (``None`` for one part spanning the poem).
    """
    halves = _verse_halves(text, poem_id)
    n = len(halves)
    patterns: dict[int, tuple[str | None, str | None]] = {}
    for lineno, (_, a, b) in _annotation_rows(
            scansion or "", _SCANSION_HEADER, "scansion", poem_id, n):
        if lineno in patterns:
            raise CorpusError(f"poem {poem_id}: duplicate scansion row for line {lineno}")
        patterns[lineno] = (_parse_label(a, poem_id, lineno),
                            _parse_label(b, poem_id, lineno))
    lemmas: dict[int, list[str]] = {}
    for lineno, (_, lemma) in _annotation_rows(
            compounds or "", _COMPOUND_HEADER, "compound", poem_id, n):
        lemmas.setdefault(lineno, []).append(lemma)
    lines = tuple([
        VerseLine(i, a_text, b_text, *patterns.get(i, (None, None)),
                  tuple(lemmas.get(i, ())))
        for i, (a_text, b_text) in enumerate(halves, 1)])
    return Poem(id=poem_id, lines=lines,
                parts=_validate_parts(parts, poem_id, n))


def _manifest_entries(root: Path,
                      text: str) -> Iterator[tuple[str, dict, object]]:
    """Each poem's id, declared file names and raw part list, in the order
    of the manifest ``text``; the file names are checked, not read."""
    manifest_path = root / "corpus.json"
    manifest = _json_value(manifest_path, text)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("poems"), list):
        raise CorpusError(f'{manifest_path}: expected an object with a "poems" list')
    seen_ids = set()
    for entry in manifest["poems"]:
        poem_id = entry.get("id") if isinstance(entry, dict) else None
        if not poem_id or not isinstance(poem_id, str):
            raise CorpusError(f"{manifest_path}: poem entry without id: {entry!r}")
        # output file names are built from the id
        if any(ch in poem_id for ch in "/\\\0"):
            raise CorpusError(f"{manifest_path}: poem id {poem_id!r} must not "
                              "contain '/', '\\' or NUL")
        if poem_id in seen_ids:
            raise CorpusError(f"duplicate poem id {poem_id!r}")
        seen_ids.add(poem_id)
        if not entry.get("text"):
            raise CorpusError(f"poem {poem_id}: no text file declared")
        files = {key: entry.get(key) or None for key in _FILE_KEYS}
        for key, name in files.items():
            if name is not None and not isinstance(name, str):
                raise CorpusError(
                    f"poem {poem_id}: {key} file name must be a string, not {name!r}")
        yield poem_id, files, entry.get("parts")


def parse_corpus(root_path: str | Path) -> Corpus:
    """Parse and validate the corpus rooted at ``root_path``, hashing each
    file as it is read."""
    root = Path(root_path)
    inputs: dict[str, str] = {}

    def read(name: str) -> str:
        data, text = _read(root / name)
        inputs[name] = "sha256:" + hashlib.sha256(data).hexdigest()
        return text

    poems = []
    for poem_id, files, parts in _manifest_entries(root, read("corpus.json")):
        text, scansion, compounds = (
            None if name is None else read(name) for name in files.values())
        poems.append(build_poem(poem_id, text, scansion, compounds, parts))
    return Corpus(poems=tuple(poems), inputs=tuple(inputs.items()))


def write_corpus(corpus: Corpus, root_path: str | Path) -> None:
    """Serialize ``corpus`` into the canonical on-disk format.

    Re-parsing the written directory yields a structurally identical Corpus.
    """
    root = Path(root_path)
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for poem in corpus.poems:
        entry = {"id": poem.id, "text": f"{poem.id}.txt"}
        (root / entry["text"]).write_text(
            "".join(f"{ln.a_text}\t{ln.b_text}\n" for ln in poem.lines),
            encoding="utf-8")
        annotations = (
            ("scansion", _SCANSION_HEADER,
             [f"{ln.index}\t{ln.a_pattern or '-'}\t{ln.b_pattern or '-'}\n"
              for ln in poem.lines if ln.a_pattern or ln.b_pattern]),
            ("compounds", _COMPOUND_HEADER,
             [f"{ln.index}\t{lemma}\n"
              for ln in poem.lines for lemma in ln.compounds]))
        for key, header, rows in annotations:
            entry[key] = f"{poem.id}.{key}.tsv" if rows else None
            if rows:
                (root / entry[key]).write_text(
                    header + "\n" + "".join(rows), encoding="utf-8")
        entry["parts"] = [{"name": p.name, "first": p.first, "last": p.last}
                          for p in poem.parts]
        entries.append(entry)
    (root / "corpus.json").write_text(
        json.dumps({"poems": entries}, ensure_ascii=False, indent=1) + "\n",
        encoding="utf-8")


# ---------------------------------------------------------------------------
# Windowing
# ---------------------------------------------------------------------------

def _composition(poem: Poem, first: int, last: int) -> dict[str, int]:
    counts: dict[str, int] = {}
    for part in poem.parts:
        overlap = min(last, part.last) - max(first, part.first) + 1
        if overlap > 0:
            counts[part.name] = counts.get(part.name, 0) + overlap
    return counts


def resolve_line_range(poem: Poem, first: int | None,
                       last: int | None) -> tuple[int, int]:
    """Inclusive 1-based bounds of a line range; ``None`` means the poem's
    first or last line.  Raises unless the range lies inside the poem."""
    lo = 1 if first is None else first
    hi = poem.line_count if last is None else last
    if not 1 <= lo <= hi <= poem.line_count:
        raise AnalysisError(
            f"poem {poem.id}: bad line range {lo}-{hi} (poem has {poem.line_count})")
    return lo, hi


def filtered_line_numbers(poem: Poem, line_filter: str | None) -> list[int]:
    """Original line numbers selected by ``line_filter``, in order.

    Maps positions of the renumbered filtered sequence (1-based) back to the
    edition numbering; with no filter this is simply 1..line_count.
    """
    if line_filter is None:
        return list(range(1, poem.line_count + 1))
    if line_filter not in poem.part_names():
        raise CorpusError(f"poem {poem.id}: no part named {line_filter!r}")
    return [n for part in poem.parts if part.name == line_filter
            for n in range(part.first, part.last + 1)]


def rolling_windows(poem: Poem, width: int, step: int) -> list[SampleWindow]:
    """Overlapping windows starting at 1, 1+step, ... while they fit."""
    if width < 1:
        raise InputError("width must be at least 1")
    if step < 1:
        raise InputError("step must be at least 1")
    return [SampleWindow(poem.id, start, start + width - 1,
                         _composition(poem, start, start + width - 1))
            for start in range(1, poem.line_count - width + 2, step)]
