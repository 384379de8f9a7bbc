"""Tests for corpus parsing, validation, serialization, and windowing."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (build_corpus, build_poem, per_line_stream, write_manifest,
                     write_simple_poem_files)
from versemetry.corpus import (
    PUNCTUATION_GLYPHS,
    Corpus,
    PartRange,
    Poem,
    filtered_line_numbers,
    parse_corpus,
    resolve_line_range,
    rolling_windows,
    write_corpus,
)
from versemetry.errors import AnalysisError, CorpusError
from versemetry.sensepause import window_ratio_reports


def _two_poem_corpus(tmp_path):
    entries = [
        write_simple_poem_files(
            tmp_path, "alpha",
            [f"alpha a {i}\talpha b {i}" for i in range(1, 11)],
            scansion_rows=[f"{i}\tA\tB" for i in range(1, 11)],
        ),
        write_simple_poem_files(
            tmp_path, "beta",
            [f"beta a {i}\tbeta b {i}" for i in range(1, 11)],
            compound_rows=["3\tguð-rinc", "3\tbeado-leoma", "7\tsæ-wudu"],
        ),
    ]
    write_manifest(tmp_path, entries)
    return tmp_path


def test_parse_two_poem_fixture(tmp_path):
    corpus = parse_corpus(_two_poem_corpus(tmp_path))
    assert len(corpus.poems) == 2
    assert [p.line_count for p in corpus.poems] == [10, 10]
    alpha = corpus.poem("alpha")
    assert alpha.line(1).a_pattern == "A"
    assert alpha.line(10).b_pattern == "B"
    beta = corpus.poem("beta")
    assert beta.line(3).compounds == ("guð-rinc", "beado-leoma")
    assert beta.line(7).compounds == ("sæ-wudu",)
    assert beta.line(1).compounds == ()


def test_parse_preserves_raw_text(tmp_path):
    entry = write_simple_poem_files(
        tmp_path, "p", ["  spaced,  (text) --\t", "no tab here"])
    write_manifest(tmp_path, [entry])
    poem = parse_corpus(tmp_path).poem("p")
    assert poem.line(1).a_text == "  spaced,  (text) --"
    assert poem.line(1).b_text == ""
    assert poem.line(2).a_text == "no tab here"
    assert poem.line(2).b_text == ""


def test_parse_three_part_structure(tmp_path):
    parts = [
        {"name": "A", "first": 1, "last": 234},
        {"name": "B", "first": 235, "last": 851},
        {"name": "A", "first": 852, "last": 2936},
    ]
    entry = write_simple_poem_files(
        tmp_path, "gen", [f"a {i}\tb {i}" for i in range(1, 2937)], parts=parts)
    write_manifest(tmp_path, [entry])
    poem = parse_corpus(tmp_path).poem("gen")
    assert [p.name for p in poem.parts] == ["A", "B", "A"]
    assert poem.part_names() == ("A", "B")


def test_parse_default_part_covers_poem(tmp_path):
    entry = write_simple_poem_files(tmp_path, "p", ["a\tb", "c\td"])
    write_manifest(tmp_path, [entry])
    poem = parse_corpus(tmp_path).poem("p")
    assert poem.parts == (PartRange("p", 1, 2),)


def test_parse_rejects_bad_scansion_label(tmp_path):
    entry = write_simple_poem_files(
        tmp_path, "p", ["a\tb", "c\td"], scansion_rows=["1\tA\tB", "2\tF\tA"])
    write_manifest(tmp_path, [entry])
    with pytest.raises(CorpusError, match=r"poem p: line 2: malformed scansion label 'F'"):
        parse_corpus(tmp_path)


def test_parse_rejects_missing_text_file(tmp_path):
    write_manifest(tmp_path, [{"id": "p", "text": "p.txt", "scansion": None,
                               "compounds": None, "parts": None}])
    with pytest.raises(CorpusError, match="missing file.*p.txt"):
        parse_corpus(tmp_path)


def test_parse_rejects_missing_manifest(tmp_path):
    with pytest.raises(CorpusError, match="missing file.*corpus.json"):
        parse_corpus(tmp_path)


def test_parse_rejects_overlapping_parts(tmp_path):
    parts = [{"name": "A", "first": 1, "last": 6},
             {"name": "B", "first": 5, "last": 10}]
    entry = write_simple_poem_files(
        tmp_path, "p", [f"a {i}\tb {i}" for i in range(1, 11)], parts=parts)
    write_manifest(tmp_path, [entry])
    with pytest.raises(CorpusError, match="overlapping part ranges"):
        parse_corpus(tmp_path)


def test_parse_rejects_part_gap(tmp_path):
    parts = [{"name": "A", "first": 1, "last": 4},
             {"name": "B", "first": 6, "last": 10}]
    entry = write_simple_poem_files(
        tmp_path, "p", [f"a {i}\tb {i}" for i in range(1, 11)], parts=parts)
    write_manifest(tmp_path, [entry])
    with pytest.raises(CorpusError, match="gap between part ranges"):
        parse_corpus(tmp_path)


def test_parse_rejects_incomplete_part_cover(tmp_path):
    parts = [{"name": "A", "first": 1, "last": 8}]
    entry = write_simple_poem_files(
        tmp_path, "p", [f"a {i}\tb {i}" for i in range(1, 11)], parts=parts)
    write_manifest(tmp_path, [entry])
    with pytest.raises(CorpusError, match="parts cover lines 1-8"):
        parse_corpus(tmp_path)


def test_parse_rejects_duplicate_poem_id(tmp_path):
    e1 = write_simple_poem_files(tmp_path, "p", ["a\tb"])
    write_manifest(tmp_path, [e1, e1])
    with pytest.raises(CorpusError, match="duplicate poem id"):
        parse_corpus(tmp_path)


def test_parse_rejects_double_tab(tmp_path):
    entry = write_simple_poem_files(tmp_path, "p", ["a\tb\tc"])
    write_manifest(tmp_path, [entry])
    with pytest.raises(CorpusError, match="more than one TAB"):
        parse_corpus(tmp_path)


def test_parse_rejects_out_of_range_annotations(tmp_path):
    entry = write_simple_poem_files(
        tmp_path, "p", ["a\tb"], scansion_rows=["2\tA\tB"])
    write_manifest(tmp_path, [entry])
    with pytest.raises(CorpusError, match="scansion references missing line 2"):
        parse_corpus(tmp_path)

    entry = write_simple_poem_files(
        tmp_path, "q", ["a\tb"], compound_rows=["9\tword-hord"])
    write_manifest(tmp_path, [entry])
    with pytest.raises(CorpusError, match="compound references missing line 9"):
        parse_corpus(tmp_path)


def test_parse_rejects_duplicate_scansion_row(tmp_path):
    entry = write_simple_poem_files(
        tmp_path, "p", ["a\tb", "c\td"], scansion_rows=["1\tA\tB", "1\tB\tA"])
    write_manifest(tmp_path, [entry])
    with pytest.raises(CorpusError, match="duplicate scansion row"):
        parse_corpus(tmp_path)


@pytest.mark.parametrize("entry,message", [
    ({"id": "p", "text": "p.txt", "scansion": ["a"]},
     r"poem p: scansion file name must be a string, not \['a'\]"),
    ({"id": "p", "text": "p.txt", "parts": ["A"]},
     "poem p: malformed part entry 'A'"),
], ids=["scansion-not-string", "part-not-object"])
def test_parse_rejects_malformed_manifest_entry(tmp_path, entry, message):
    write_simple_poem_files(tmp_path, "p", ["a\tb"])
    write_manifest(tmp_path, [entry])
    with pytest.raises(CorpusError, match=message):
        parse_corpus(tmp_path)


@pytest.mark.parametrize("content,message", [
    (b'{"poems": [', "corpus.json: invalid JSON"),
    (b'{"poems": "\xff"}', "corpus.json: not UTF-8 text"),
], ids=["bad-json", "not-utf8"])
def test_parse_rejects_unreadable_manifest(tmp_path, content, message):
    (tmp_path / "corpus.json").write_bytes(content)
    with pytest.raises(CorpusError, match=message):
        parse_corpus(tmp_path)


def test_parse_rejects_empty_poem_text(tmp_path):
    entry = write_simple_poem_files(tmp_path, "p", ["a\tb"])
    write_manifest(tmp_path, [entry])
    (tmp_path / "p.txt").write_text("", encoding="utf-8")
    with pytest.raises(CorpusError, match="^poem p: no verse lines$"):
        parse_corpus(tmp_path)


def _sha256(path):
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def test_parse_corpus_hashes_declared_files(tmp_path):
    write_manifest(tmp_path, [
        write_simple_poem_files(tmp_path, "p", ["a\tb"],
                                compound_rows=["1\tlemma"]),
        write_simple_poem_files(tmp_path, "q", ["a\tb"],
                                scansion_rows=["1\tA\tB"])])
    names = ["corpus.json", "p.txt", "p.compounds.tsv", "q.txt",
             "q.scansion.tsv"]
    assert parse_corpus(tmp_path).inputs == tuple(
        (name, _sha256(tmp_path / name)) for name in names)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_parse_keeps_crlf_and_cr_files_as_read(tmp_path, newline):
    roots = {end: tmp_path / repr(end) for end in ("\n", newline)}
    for root in roots.values():
        root.mkdir()
        write_manifest(root, [write_simple_poem_files(
            root, "p", ["a one\tb one", "a two\t", "a three\tb three"],
            scansion_rows=["line\ta\tb", "1\tA\tB", "3\t-\tC"],
            compound_rows=["2\tsæ-wudu", "3\theofon-rice"],
            parts=[{"name": "A", "first": 1, "last": 2},
                   {"name": "B", "first": 3, "last": 3}])])
    for path in roots[newline].glob("*"):
        path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
    lf, other = (parse_corpus(root) for root in roots.values())
    assert other == lf
    assert other.poems[0].lines[2].b_pattern == "C"
    assert other.inputs == tuple(
        (name, _sha256(roots[newline] / name)) for name, _ in lf.inputs)
    assert other.inputs != lf.inputs


def test_round_trip(tmp_path):
    def patterns(i):
        if i % 3 == 0:
            return (None, None)
        return ("ABCDE"[i % 5], None if i % 4 == 0 else "ABCDE"[(i + 2) % 5])

    poem1 = build_poem(
        "first", 17,
        parts=(PartRange("A", 1, 5), PartRange("B", 6, 17)),
        pattern_fn=patterns,
        compounds={2: ("heofon-rice", "middan-geard"), 11: ("sæ-wudu",)},
    )
    poem2 = build_poem("second", 4)
    corpus = build_corpus(poem1, poem2)
    write_corpus(corpus, tmp_path / "out")
    again = parse_corpus(tmp_path / "out")
    # the files a corpus was read from are not part of its value
    assert corpus.inputs == () and again.inputs
    assert again == corpus

    # a poem without lines cannot be parsed, so its copy does not re-parse
    empty = Poem(id="b", lines=(), parts=(PartRange("b", 1, 0),))
    write_corpus(Corpus(poems=(poem2, empty)), tmp_path / "empty")
    with pytest.raises(CorpusError, match="^poem b: no verse lines$"):
        parse_corpus(tmp_path / "empty")


def test_scansion_codes_are_read_only_and_decoded_once():
    def labels(i):
        return "A", None if i == 2 else "E"

    poem = build_poem("p", 3, pattern_fn=labels)
    codes = poem.scansion_codes
    assert codes is poem.scansion_codes
    assert not codes.flags.writeable
    with pytest.raises(ValueError):
        codes[0, 0] = 4
    assert codes.tolist() == [[0, 4], [0, -1], [0, 4]]
    # the cache is not a field: equality and hash still come from the fields
    again = build_poem("p", 3, pattern_fn=labels)
    assert again == poem and hash(again) == hash(poem)
    assert Poem(id="e", lines=(), parts=()).scansion_codes.shape == (0, 2)


_HALF = st.sampled_from([None, "A", "B", "C", "D", "E"])


@given(st.lists(st.tuples(_HALF, _HALF), min_size=1, max_size=40))
def test_scansion_codes_match_a_per_line_decode(halves):
    poem = build_poem("p", len(halves), pattern_fn=lambda i: halves[i - 1])
    code = {None: -1, "A": 0, "B": 1, "C": 2, "D": 3, "E": 4}
    expected = [[code[ln.a_pattern], code[ln.b_pattern]] for ln in poem.lines]
    assert poem.scansion_codes.dtype == np.int64
    assert poem.scansion_codes.tolist() == expected


def test_text_columns_are_read_only_and_built_once():
    poem = build_poem("p", 3, compounds={2: ("beag", "brim")})
    stream, tokens = poem.ngram_stream, poem.compound_tokens
    assert stream is poem.ngram_stream
    assert tokens is poem.compound_tokens
    for array in (stream.edges, tokens.lines):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1
    again = build_poem("p", 3, compounds={2: ("beag", "brim")})
    assert again == poem and hash(again) == hash(poem)
    empty = Poem(id="e", lines=(), parts=())
    assert empty.ngram_stream.text == " "
    assert empty.ngram_stream.edges.tolist() == [0]
    assert empty.compound_tokens.lines.shape == (0,)
    assert empty.compound_tokens.lemmas == ()


# letters whose lowercase is longer (İ) or depends on what follows (Σ), tabs,
# newlines and every punctuation glyph; an empty list is an empty half
_STREAM_PIECES = sorted(PUNCTUATION_GLYPHS) + [
    "\t", "\n", " ", "İ", "Σ", "ς", "Α", "Β", "a", "Z", "æ", "0", "7"]
_STREAM_HALF = st.lists(st.sampled_from(_STREAM_PIECES), max_size=6).map(
    "".join)


@example([("ΑΣ’Β", "")])
@example([("ΑΣ.Β", "ΑΣ’Β"), ("", "")])
@given(st.lists(st.tuples(_STREAM_HALF, _STREAM_HALF), min_size=1,
                max_size=12))
def test_ngram_stream_matches_a_per_line_build(halves):
    poem = build_poem("p", len(halves), text_fn=lambda i: halves[i - 1])
    text, edges = per_line_stream(poem)
    stream = poem.ngram_stream
    assert stream.text == text
    assert stream.edges.dtype == np.int64
    assert stream.edges.tolist() == edges
    assert stream.alphabet == frozenset(text)


@given(st.lists(st.lists(st.sampled_from(["beag", "brim", "sæ-wudu"]),
                         max_size=3), min_size=1, max_size=20))
def test_compound_tokens_match_a_per_line_walk(per_line):
    poem = build_poem("p", len(per_line), compounds=dict(
        enumerate(per_line, 1)))
    walk = [(ln.index, lemma) for ln in poem.lines for lemma in ln.compounds]
    tokens = poem.compound_tokens
    assert tokens.lines.dtype == np.int64
    assert list(zip(tokens.lines.tolist(), tokens.lemmas)) == walk


def test_poem_line_accessor_bounds():
    poem = build_poem("p", 3)
    with pytest.raises(CorpusError, match="line 4 out of range"):
        poem.line(4)
    with pytest.raises(CorpusError, match="line 0 out of range"):
        poem.line(0)


# ---------------------------------------------------------------------------
# Windowing
# ---------------------------------------------------------------------------

def _sample_ids(poem, sample_len, part=None):
    """Unit ids of the sense-pause samples of a poem or part."""
    return [r.unit_id for r in window_ratio_reports(poem, sample_len,
                                                    part=part)]


def test_partition_439_lines_gives_4_windows():
    assert _sample_ids(build_poem("christ1", 439), 100) == [
        "christ1:1-100", "christ1:101-200", "christ1:201-300",
        "christ1:301-400"]


def test_partition_drops_trailing_remainder():
    assert _sample_ids(build_poem("p", 250), 100) == ["p:1-100", "p:101-200"]


def test_partition_short_poem_is_empty():
    assert _sample_ids(build_poem("p", 99), 100) == []


def test_partition_with_part_filter():
    parts = (PartRange("A", 1, 234), PartRange("B", 235, 851),
             PartRange("A", 852, 2936))
    poem = build_poem("gen", 2936, parts=parts)
    ids = _sample_ids(poem, 100, part="A")
    assert len(ids) == 23
    assert ids[0] == "gen/A:1-100"
    assert ids[-1] == "gen/A:2201-2300"

    numbers = filtered_line_numbers(poem, "A")
    assert len(numbers) == 234 + (2936 - 852 + 1)
    assert numbers[233] == 234
    assert numbers[234] == 852


def test_partition_rejects_unknown_part():
    with pytest.raises(CorpusError, match="no part named 'Z'"):
        window_ratio_reports(build_poem("p", 10), 5, part="Z")


def test_partition_rejects_bad_sample_len():
    with pytest.raises(ValueError, match="sample_len must be at least 1"):
        window_ratio_reports(build_poem("p", 10), 0)
    # the part name is checked before the length
    with pytest.raises(CorpusError, match="no part named 'Z'"):
        window_ratio_reports(build_poem("p", 10), 0, part="Z")


@given(n=st.integers(min_value=1, max_value=60),
       split=st.integers(min_value=0, max_value=60),
       sample_len=st.integers(min_value=1, max_value=25))
def test_partition_filter_windows_index_the_filtered_lines(n, split,
                                                           sample_len):
    split = min(split, n - 1)
    parts = ((PartRange("A", 1, split),) if split else ()) + (
        PartRange("B", split + 1, n),)
    poem = build_poem("p", n, parts=parts)
    for name in poem.part_names():
        count = sum(p.last - p.first + 1 for p in parts if p.name == name)
        assert _sample_ids(poem, sample_len, part=name) == [
            f"p/{name}:{start}-{start + sample_len - 1}"
            for start in range(1, count - sample_len + 2, sample_len)]


def test_rolling_windows_spacing():
    poem = build_poem("p", 3182)
    windows = rolling_windows(poem, 300, 100)
    assert (windows[0].first_line, windows[0].last_line) == (1, 300)
    assert (windows[1].first_line, windows[1].last_line) == (101, 400)
    assert windows[-1].last_line <= 3182
    assert len(windows) == (3182 - 300) // 100 + 1


def test_rolling_window_exact_fit():
    windows = rolling_windows(build_poem("p", 200), 200, 1)
    assert len(windows) == 1


def test_rolling_window_composition_straddles_boundary():
    parts = (PartRange("A", 1, 120), PartRange("B", 121, 400))
    poem = build_poem("guthlac", 400, parts=parts)
    windows = rolling_windows(poem, 200, 100)
    assert windows[0].composition == {"A": 120, "B": 80}
    assert windows[1].composition == {"A": 20, "B": 180}
    assert windows[2].composition == {"B": 200}
    assert all(sum(w.composition.values()) == 200 for w in windows)


@given(n=st.integers(min_value=1, max_value=400),
       width=st.integers(min_value=1, max_value=90))
def test_rolling_with_step_equal_width_matches_partition(n, width):
    poem = build_poem("p", n)
    assert [f"p:{w.first_line}-{w.last_line}"
            for w in rolling_windows(poem, width, width)] == _sample_ids(
                poem, width)


@given(n=st.integers(min_value=1, max_value=500),
       sample_len=st.integers(min_value=1, max_value=120))
def test_partition_covers_prefix_contiguously(n, sample_len):
    bounds = [tuple(map(int, unit.removeprefix("p:").split("-")))
              for unit in _sample_ids(build_poem("p", n), sample_len)]
    covered = [i for first, last in bounds for i in range(first, last + 1)]
    assert covered == list(range(1, len(bounds) * sample_len + 1))
    assert all(last - first + 1 == sample_len for first, last in bounds)


def test_line_range_defaults_to_the_whole_poem():
    poem = build_poem("p", 10)
    assert resolve_line_range(poem, None, None) == (1, 10)
    assert resolve_line_range(poem, 3, None) == (3, 10)
    assert resolve_line_range(poem, None, 4) == (1, 4)
    for first, last in ((0, 5), (5, 11), (6, 5), (None, 0), (11, None)):
        with pytest.raises(AnalysisError, match=r"^poem p: bad line range "
                           r"\d+-\d+ \(poem has 10\)$"):
            resolve_line_range(poem, first, last)
