"""Parsing, validation, and windowing of annotated verse corpora.

A corpus lives in a directory with a ``corpus.json`` manifest naming each
poem's text file plus optional scansion and compound annotation files.  The
text format is one verse line per file line, a-verse and b-verse separated by
a single TAB (empty b-verse allowed).  Scansion rows carry labels A-E or ``-``
for a missing half; compound rows carry one lemma occurrence per row.

Parsed values are immutable and safe to share across threads.  Raw half-line
text is preserved exactly as read; all classification happens downstream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import AnalysisError, CorpusError, InputError

__all__ = [
    "SCANSION_LABELS",
    "PartRange",
    "VerseLine",
    "Poem",
    "SampleWindow",
    "Corpus",
    "parse_corpus",
    "write_corpus",
    "partition_samples",
    "resolve_line_range",
    "rolling_windows",
]

SCANSION_LABELS = frozenset("ABCDE")

_SCANSION_HEADER = "line\ta\tb"
_COMPOUND_HEADER = "line\tlemma"


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


@dataclass(frozen=True)
class Poem:
    id: str
    lines: tuple[VerseLine, ...]
    parts: tuple[PartRange, ...]

    @property
    def line_count(self) -> int:
        return len(self.lines)

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
    """Contiguous slice of lines with provenance.

    ``first_line``/``last_line`` are 1-based inclusive.  When the window was
    cut from a part-filtered line sequence they index that renumbered
    sequence, not the original edition numbering.  ``composition`` maps part
    name to the number of window lines drawn from it.
    """

    source: str
    first_line: int
    last_line: int
    composition: Mapping[str, int] = field(default_factory=dict)

    @property
    def width(self) -> int:
        return self.last_line - self.first_line + 1


@dataclass(frozen=True)
class Corpus:
    poems: tuple[Poem, ...]

    @property
    def total_lines(self) -> int:
        return sum(p.line_count for p in self.poems)

    def poem(self, poem_id: str) -> Poem:
        for p in self.poems:
            if p.id == poem_id:
                return p
        raise CorpusError(f"no poem with id {poem_id!r}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _read_text_lines(path: Path, poem_id: str) -> list[tuple[str, str]]:
    halves = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        fields = raw.split("\t")
        if len(fields) == 1:
            halves.append((fields[0], ""))
        elif len(fields) == 2:
            halves.append((fields[0], fields[1]))
        else:
            raise CorpusError(
                f"poem {poem_id}: line {lineno}: more than one TAB in verse line"
            )
    return halves


def _parse_label(token: str, poem_id: str, lineno: int) -> str | None:
    if token == "-":
        return None
    if token in SCANSION_LABELS:
        return token
    raise CorpusError(
        f"poem {poem_id}: line {lineno}: malformed scansion label {token!r}"
    )


def _read_scansion(path: Path, poem_id: str, line_count: int
                   ) -> dict[int, tuple[str | None, str | None]]:
    rows: dict[int, tuple[str | None, str | None]] = {}
    body = path.read_text(encoding="utf-8").splitlines()
    if body and body[0] == _SCANSION_HEADER:
        body = body[1:]
    for raw in body:
        if not raw.strip():
            continue
        fields = raw.split("\t")
        if len(fields) != 3:
            raise CorpusError(f"poem {poem_id}: bad scansion row {raw!r}")
        try:
            lineno = int(fields[0])
        except ValueError:
            raise CorpusError(f"poem {poem_id}: bad scansion line number {fields[0]!r}")
        if not 1 <= lineno <= line_count:
            raise CorpusError(
                f"poem {poem_id}: scansion references missing line {lineno}"
            )
        if lineno in rows:
            raise CorpusError(f"poem {poem_id}: duplicate scansion row for line {lineno}")
        rows[lineno] = (
            _parse_label(fields[1], poem_id, lineno),
            _parse_label(fields[2], poem_id, lineno),
        )
    return rows


def _read_compounds(path: Path, poem_id: str, line_count: int) -> dict[int, list[str]]:
    rows: dict[int, list[str]] = {}
    body = path.read_text(encoding="utf-8").splitlines()
    if body and body[0] == _COMPOUND_HEADER:
        body = body[1:]
    for raw in body:
        if not raw.strip():
            continue
        fields = raw.split("\t")
        if len(fields) != 2 or not fields[1]:
            raise CorpusError(f"poem {poem_id}: bad compound row {raw!r}")
        try:
            lineno = int(fields[0])
        except ValueError:
            raise CorpusError(f"poem {poem_id}: bad compound line number {fields[0]!r}")
        if not 1 <= lineno <= line_count:
            raise CorpusError(
                f"poem {poem_id}: compound references missing line {lineno}"
            )
        rows.setdefault(lineno, []).append(fields[1])
    return rows


def _validate_parts(raw_parts, poem_id: str, line_count: int) -> tuple[PartRange, ...]:
    if not raw_parts:
        return (PartRange(poem_id, 1, line_count),)
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


def _require_file(root: Path, name: str) -> Path:
    path = root / name
    if not path.is_file():
        raise CorpusError(f"missing file: {path}")
    return path


def parse_corpus(root_path: str | Path) -> Corpus:
    """Parse and validate the corpus rooted at ``root_path``."""
    root = Path(root_path)
    manifest_path = root / "corpus.json"
    if not manifest_path.is_file():
        raise CorpusError(f"missing file: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{manifest_path}: invalid JSON: {exc}")
    if not isinstance(manifest, dict) or not isinstance(manifest.get("poems"), list):
        raise CorpusError(f'{manifest_path}: expected an object with a "poems" list')

    poems = []
    seen_ids = set()
    for entry in manifest["poems"]:
        poem_id = entry.get("id")
        if not poem_id or not isinstance(poem_id, str):
            raise CorpusError(f"{manifest_path}: poem entry without id: {entry!r}")
        if poem_id in seen_ids:
            raise CorpusError(f"duplicate poem id {poem_id!r}")
        seen_ids.add(poem_id)
        if not entry.get("text"):
            raise CorpusError(f"poem {poem_id}: no text file declared")

        halves = _read_text_lines(_require_file(root, entry["text"]), poem_id)
        n = len(halves)
        scansion: dict[int, tuple[str | None, str | None]] = {}
        if entry.get("scansion"):
            scansion = _read_scansion(_require_file(root, entry["scansion"]), poem_id, n)
        compounds: dict[int, list[str]] = {}
        if entry.get("compounds"):
            compounds = _read_compounds(
                _require_file(root, entry["compounds"]), poem_id, n)

        lines = []
        for i, (a_text, b_text) in enumerate(halves, 1):
            a_pat, b_pat = scansion.get(i, (None, None))
            lines.append(VerseLine(
                index=i,
                a_text=a_text,
                b_text=b_text,
                a_pattern=a_pat,
                b_pattern=b_pat,
                compounds=tuple(compounds.get(i, ())),
            ))
        parts = _validate_parts(entry.get("parts"), poem_id, n)
        poems.append(Poem(id=poem_id, lines=tuple(lines), parts=parts))
    return Corpus(poems=tuple(poems))


def write_corpus(corpus: Corpus, root_path: str | Path) -> None:
    """Serialize ``corpus`` into the canonical on-disk format.

    Re-parsing the written directory yields a structurally identical Corpus.
    """
    root = Path(root_path)
    root.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"poems": []}
    for poem in corpus.poems:
        text_name = f"{poem.id}.txt"
        (root / text_name).write_text(
            "".join(f"{ln.a_text}\t{ln.b_text}\n" for ln in poem.lines),
            encoding="utf-8",
        )

        scansion_name = None
        scansion_rows = [
            f"{ln.index}\t{ln.a_pattern or '-'}\t{ln.b_pattern or '-'}\n"
            for ln in poem.lines
            if ln.a_pattern or ln.b_pattern
        ]
        if scansion_rows:
            scansion_name = f"{poem.id}.scansion.tsv"
            (root / scansion_name).write_text(
                _SCANSION_HEADER + "\n" + "".join(scansion_rows), encoding="utf-8")

        compounds_name = None
        compound_rows = [
            f"{ln.index}\t{lemma}\n"
            for ln in poem.lines
            for lemma in ln.compounds
        ]
        if compound_rows:
            compounds_name = f"{poem.id}.compounds.tsv"
            (root / compounds_name).write_text(
                _COMPOUND_HEADER + "\n" + "".join(compound_rows), encoding="utf-8")

        manifest["poems"].append({
            "id": poem.id,
            "text": text_name,
            "scansion": scansion_name,
            "compounds": compounds_name,
            "parts": [
                {"name": p.name, "first": p.first, "last": p.last}
                for p in poem.parts
            ],
        })
    (root / "corpus.json").write_text(
        json.dumps(manifest, ensure_ascii=False, indent=1) + "\n", encoding="utf-8")


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


def partition_samples(poem: Poem, sample_len: int,
                      line_filter: str | None = None) -> list[SampleWindow]:
    """Cut consecutive non-overlapping windows of exactly ``sample_len`` lines.

    A trailing remainder shorter than ``sample_len`` is dropped.  With
    ``line_filter``, only lines belonging to that part are consumed, in order,
    renumbered contiguously from 1 (windows then index the filtered sequence).
    """
    if sample_len < 1:
        raise InputError("sample_len must be at least 1")
    if line_filter is None:
        total = poem.line_count
        windows = []
        for start in range(1, total - sample_len + 2, sample_len):
            end = start + sample_len - 1
            windows.append(SampleWindow(
                source=poem.id,
                first_line=start,
                last_line=end,
                composition=_composition(poem, start, end),
            ))
        return windows

    if line_filter not in poem.part_names():
        raise CorpusError(f"poem {poem.id}: no part named {line_filter!r}")
    filtered_total = sum(
        p.last - p.first + 1 for p in poem.parts if p.name == line_filter)
    windows = []
    for start in range(1, filtered_total - sample_len + 2, sample_len):
        windows.append(SampleWindow(
            source=poem.id,
            first_line=start,
            last_line=start + sample_len - 1,
            composition={line_filter: sample_len},
        ))
    return windows


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
    numbers = []
    for part in poem.parts:
        if part.name == line_filter:
            numbers.extend(range(part.first, part.last + 1))
    return numbers


def rolling_windows(poem: Poem, width: int, step: int) -> list[SampleWindow]:
    """Overlapping windows starting at 1, 1+step, ... while they fit."""
    if width < 1:
        raise InputError("width must be at least 1")
    if step < 1:
        raise InputError("step must be at least 1")
    windows = []
    start = 1
    while start + width - 1 <= poem.line_count:
        end = start + width - 1
        windows.append(SampleWindow(
            source=poem.id,
            first_line=start,
            last_line=end,
            composition=_composition(poem, start, end),
        ))
        start += step
    return windows
