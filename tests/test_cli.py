"""End-to-end tests for the command-line surface."""

import argparse
import csv
import hashlib
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    CLI_GOLDEN_CASES,
    CRITERION_8_ARGV,
    GOLDEN_PATH,
    build_corpus,
    build_poem,
    differing_files,
    iid_scansion_poem,
    pool_text_poem,
    run_cli_process,
    run_digests,
    tree_digests,
)
from test_acceptance import criterion_8_corpus
from versemetry import cli, metre
from versemetry.cli import build_parser, dispatch
from versemetry.corpus import PartRange, Poem, VerseLine, parse_corpus, write_corpus
from versemetry.ngramcluster import DistanceMatrix
from versemetry.stats import RngStream


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that counts its calls."""
    calls = []
    func = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def _cli_poems():
    """Two-poem corpus exercising every analysis: scansion on one poem,
    punctuation and hapax compounds on both, one shared lemma."""
    gen = RngStream(42, 1).generator()
    letters = "hwstgearmdni"

    def alpha_text(i):
        w = letters[i % 7: i % 7 + 4]
        a = f"{w}um, sceal {w}e" if gen.random() < 0.3 else f"{w}um sceal {w}e"
        if gen.random() < 0.15:
            a += ";"
        b = f"on {w}an dagum" + ("." if gen.random() < 0.8 else "")
        return a, b

    def alpha_compounds(i):
        if i % 97 == 0:
            return ("wordhord", f"alphahapax{i}")
        if i % 12 == 0:
            return (f"alphahapax{i}",)
        return ()

    base = iid_scansion_poem("alpha", 700, [0.3, 0.25, 0.2, 0.15, 0.1], seed=3)
    lines = []
    for line in base.lines:
        a_text, b_text = alpha_text(line.index)
        lines.append(VerseLine(
            index=line.index, a_text=a_text, b_text=b_text,
            a_pattern=line.a_pattern, b_pattern=line.b_pattern,
            compounds=alpha_compounds(line.index)))
    alpha = Poem(id="alpha", lines=tuple(lines),
                 parts=(PartRange("A", 1, 350), PartRange("B", 351, 700)))

    beta_base = pool_text_poem("beta", 650, lambda i: "xzyquckfolp", seed=9)
    lines = []
    for line in beta_base.lines:
        lines.append(VerseLine(
            index=line.index,
            a_text=line.a_text + ("," if gen.random() < 0.5 else ""),
            b_text=line.b_text + ("." if gen.random() < 0.7 else ";"),
            a_pattern=None, b_pattern=None,
            compounds=("wordhord", f"betahapax{line.index}")
            if line.index % 45 == 0 else
            (f"betahapax{line.index}",) if line.index % 15 == 0 else ()))
    beta = Poem(id="beta", lines=tuple(lines),
                parts=(PartRange("beta", 1, 650),))
    return alpha, beta


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("clicorpus") / "corpus"
    write_corpus(build_corpus(*_cli_poems()), root)
    return root


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


# parser ---------------------------------------------------------------------

def _leaf_parsers(parser, words=()):
    """Each subcommand that takes no further subcommand, by its words."""
    groups = [action for action in parser._actions
              if isinstance(action, argparse._SubParsersAction)]
    if not groups:
        yield " ".join(words), parser
    for group in groups:
        for name, sub in group.choices.items():
            yield from _leaf_parsers(sub, (*words, name))


def test_parser_option_inventory():
    leaves = {name: {action.dest: action for action in sub._actions
                     if not isinstance(action, argparse._HelpAction)}
              for name, sub in _leaf_parsers(build_parser())}
    assert len(leaves) == 13
    convert = leaves.pop("convert")
    assert sorted(convert) == ["dataset", "out"]
    for name, options in leaves.items():
        assert options["corpus"].option_strings == ["--corpus"], name
        assert options["corpus"].required, name
        assert [(options[dest].option_strings, options[dest].default)
                for dest in ("seed", "out", "format")] == [
            (["--seed"], 0), (["--out"], "out"), (["--format"], "csv")], name
        assert options["format"].choices == ("csv", "json"), name


# exit codes -----------------------------------------------------------------

def test_no_arguments_is_usage_error():
    assert dispatch([]) == 2


def test_help_exits_cleanly():
    assert dispatch(["--help"]) == 0


def test_unknown_command_is_usage_error():
    assert dispatch(["frobnicate"]) == 2


def test_missing_subcommand_is_usage_error():
    assert dispatch(["metre"]) == 2


def test_missing_corpus_is_analysis_error(tmp_path, capsys):
    code = dispatch(["shared", "--corpus", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("poems", ["alpha,zzz", "alpha,beta,zzz"])
def test_shared_unknown_poem_is_one_error_line(corpus_dir, tmp_path, capsys,
                                               poems):
    code = dispatch(["shared", "--corpus", str(corpus_dir), "--poems", poems,
                     "--trials", "1000", "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "'zzz'" in err[0]
    assert not (tmp_path / "out" / "shared" / "pairs.csv").exists()


@pytest.mark.parametrize("argv,repeated", [
    (["shared", "--poems", "alpha,alpha,beta"], "alpha"),
    (["cluster", "dendrogram", "--poems", "beta,alpha,beta"], "beta"),
    (["cluster", "profiles", "--poems", "alpha,alpha"], "alpha"),
], ids=["shared", "cluster-dendrogram", "cluster-profiles"])
def test_repeated_poem_id_is_one_error_line(corpus_dir, tmp_path, capsys,
                                            argv, repeated):
    code = dispatch([*argv, "--corpus", str(corpus_dir),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: --poems names poem {repeated!r} more than once\n")
    assert not (tmp_path / "out").exists()


def _corpus_copy(corpus_dir, root):
    root.mkdir()
    for path in corpus_dir.iterdir():
        (root / path.name).write_bytes(path.read_bytes())
    return root


@pytest.mark.parametrize("edit,message", [
    (lambda root: (root / "corpus.json").write_text('{"poems": [1]}'),
     "poem entry without id: 1"),
    (lambda root: (root / "corpus.json").write_text(
        '{"poems": [{"id": "alpha", "text": 5}]}'),
     "poem alpha: text file name must be a string, not 5"),
    (lambda root: (root / "corpus.json").write_text(
        '{"poems": [{"id": "alpha", "text": "alpha.txt", "parts": 3}]}'),
     "poem alpha: parts must be a list, not 3"),
    (lambda root: (root / "beta.txt").write_bytes(b"\xe6\tb\n"),
     "beta.txt: not UTF-8 text"),
    (lambda root: (root / "beta.compounds.tsv").write_bytes(b"1\t\xe6\n"),
     "beta.compounds.tsv: not UTF-8 text"),
], ids=["entry-not-object", "text-not-string", "parts-not-list",
        "text-not-utf8", "sidecar-not-utf8"])
@pytest.mark.parametrize("argv", [
    ["shared"], ["metre", "independence", "--poem", "alpha"], ["report"]],
    ids=["shared", "metre-independence", "report"])
def test_malformed_corpus_is_one_error_line(corpus_dir, tmp_path, capsys,
                                            edit, message, argv):
    root = _corpus_copy(corpus_dir, tmp_path / "corpus")
    edit(root)
    code = dispatch([*argv, "--corpus", str(root),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and message in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("poem_id", ["x/../../../escaped", "x\\..\\escaped",
                                     "a\u0000b"],
                         ids=["slash", "backslash", "nul"])
@pytest.mark.parametrize("argv", [
    ["metre", "rolling", "--poem", None, "--width", "200", "--step", "100"],
    ["report"]], ids=["metre-rolling", "report"])
def test_poem_id_that_is_not_one_file_name_is_one_error_line(
        corpus_dir, tmp_path, capsys, poem_id, argv):
    # output file names are built from poem ids, so such an id could write
    # outside --out, or fail with a traceback after the first files
    root = _corpus_copy(corpus_dir, tmp_path / "corpus")
    manifest = json.loads((root / "corpus.json").read_text(encoding="utf-8"))
    manifest["poems"][0]["id"] = poem_id
    (root / "corpus.json").write_text(json.dumps(manifest), encoding="utf-8")
    code = dispatch([poem_id if a is None else a for a in argv]
                    + ["--corpus", str(root), "--out", str(tmp_path / "run" / "out")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "must not contain" in err[0]
    assert [p.name for p in tmp_path.iterdir()] == ["corpus"]


@pytest.mark.parametrize("split_line", ["-5", "0", "700", "701"])
def test_rolling_split_line_outside_poem(corpus_dir, tmp_path, capsys,
                                         split_line):
    # the same check and message as metre split-tests
    code = dispatch(["metre", "rolling", "--corpus", str(corpus_dir),
                     "--poem", "alpha", "--split-line", split_line,
                     "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: split line {split_line} not strictly inside "
                   "poem alpha"]
    code = dispatch(["metre", "split-tests", "--corpus", str(corpus_dir),
                     "--poem", "alpha", "--split-line", split_line,
                     "--bootstrap", "1000", "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == err


def test_unknown_poem_is_analysis_error(corpus_dir, tmp_path, capsys):
    code = dispatch(["hapax", "fit", "--corpus", str(corpus_dir),
                     "--poem", "nonesuch", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "nonesuch" in capsys.readouterr().err


def test_low_bootstrap_is_reported_not_raised(corpus_dir, tmp_path, capsys):
    code = dispatch(["metre", "split-tests", "--corpus", str(corpus_dir),
                     "--poem", "alpha", "--split-line", "350",
                     "--bootstrap", "10", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "at least 1000" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["cluster", "dendrogram", "--width", "0"], "width must be at least 1"),
    (["cluster", "sweep", "--poem", "alpha", "--k-values", "100:200:0"],
     "bad integer list '100:200:0'"),
    (["cluster", "sweep", "--poem", "alpha", "--k-values", "300:100:100"],
     "integer list '300:100:100' names no values"),
    (["cluster", "sweep", "--poem", "alpha", "--n-values", "5:1:1"],
     "integer list '5:1:1' names no values"),
], ids=["width-0", "k-step-0", "k-values-empty", "n-values-empty"])
def test_invalid_parameter_is_one_error_line(corpus_dir, tmp_path, capsys,
                                             argv, message):
    code = dispatch(argv + ["--corpus", str(corpus_dir),
                            "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and message in err[0]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the child reads its size from /proc")
def test_unallocatable_distances_are_one_error_line(tmp_path):
    # 8000 windows need 512 MB for each distance array, past the 256 MB the
    # child may grow by, while their profiles take a few MB
    root, out = tmp_path / "corpus", tmp_path / "out"
    write_corpus(build_corpus(build_poem("long", 8009)), root)
    argv = ["--corpus", str(root), "--out", str(out), "--width", "10",
            "--step", "1", "--n", "2", "--k", "20"]
    headroom = 256 * 2 ** 20
    assert run_cli_process(["cluster", "profiles", *argv], headroom)[:2] == (
        0, [])
    code, err, peak = run_cli_process(["cluster", "dendrogram", *argv],
                                      headroom)
    assert (code, err) == (1, [
        "error: 8000 windows: cannot allocate 512000000 bytes (0.5 GiB) for "
        "8000 x 8000 distances; a larger --step or fewer --poems gives fewer "
        "windows"])
    assert peak < 8 * 8000 ** 2
    assert not (out / "cluster" / "distances.csv").exists()


class Unallocatable(np.ndarray):
    """Distances whose copy fails as one the allocator refuses."""

    def astype(self, *args, **kwargs):
        raise MemoryError


def test_unallocatable_linkage_is_a_skipped_report_row(corpus_dir, tmp_path,
                                                       monkeypatch):
    distances = cli.cosine_distance_matrix

    def refused(profiles):
        dist = distances(profiles)
        return DistanceMatrix(dist.labels, dist.values.view(Unallocatable))

    monkeypatch.setattr(cli, "cosine_distance_matrix", refused)
    out = tmp_path / "out"
    assert dispatch(["report", "--split-line", "350", "--bootstrap", "1000",
                     "--corpus", str(corpus_dir), "--out", str(out)]) == 0
    assert read_csv(out / "report" / "skipped.csv") == [{
        "analysis": "cluster dendrogram", "unit": "(corpus)",
        "reason": "9 windows: cannot allocate 648 bytes (0.0 GiB) for 9 x 9 "
                  "distances; a larger --step or fewer --poems gives fewer "
                  "windows"}]
    files = tree_digests(out)
    assert "cluster/sweep.csv" in files
    assert "cluster/dendrogram.json" not in files


def test_program_error_propagates(corpus_dir, tmp_path, monkeypatch):
    # a bare ValueError is a bug, not bad input: it must reach the traceback
    def broken(*args, **kwargs):
        raise ValueError("internal inconsistency")

    monkeypatch.setattr(cli, "build_profiles", broken)
    with pytest.raises(ValueError, match="internal inconsistency"):
        dispatch(["cluster", "profiles", "--corpus", str(corpus_dir),
                  "--out", str(tmp_path / "out")])


# conversion -----------------------------------------------------------------

def make_dataset(root):
    root.mkdir()
    (root / "one.txt").write_text(
        "Hwaet we gardena\tin geardagum.\n"
        "threatum monegum / maegtha gehwaes;\n"
        "orphan verse line\n", encoding="utf-8")
    (root / "one.scansion.tsv").write_text(
        "line\ta\tb\n1\tA\tB\n3\tC\t-\n", encoding="utf-8")
    (root / "two.txt").write_text("felahror feran\ton frean waere.\n",
                                  encoding="utf-8")
    (root / "two.compounds.tsv").write_text("1\tfelahror\n", encoding="utf-8")
    (root / "parts.json").write_text(json.dumps(
        {"one": [{"name": "head", "first": 1, "last": 2},
                 {"name": "tail", "first": 3, "last": 3}]}), encoding="utf-8")


def test_convert_round_trip(tmp_path, capsys):
    dataset = tmp_path / "dataset"
    make_dataset(dataset)
    out = tmp_path / "canonical"
    assert dispatch(["convert", str(dataset), "--out", str(out)]) == 0
    assert "converted 2 poems" in capsys.readouterr().out

    corpus = parse_corpus(out)
    one = corpus.poem("one")
    assert one.line(1).a_text == "Hwaet we gardena"
    assert one.line(1).b_text == "in geardagum."
    assert one.line(2).a_text == "threatum monegum"
    assert one.line(2).b_text == "maegtha gehwaes;"
    assert one.line(3).a_text == "orphan verse line"
    assert one.line(3).b_text == ""
    assert one.line(1).a_pattern == "A" and one.line(1).b_pattern == "B"
    assert one.line(3).a_pattern == "C" and one.line(3).b_pattern is None
    assert one.part_names() == ("head", "tail")
    two = corpus.poem("two")
    assert two.line(1).compounds == ("felahror",)


def test_convert_pins_poems_and_manifest(tmp_path):
    dataset, out = tmp_path / "dataset", tmp_path / "canonical"
    make_dataset(dataset)
    assert dispatch(["convert", str(dataset), "--out", str(out)]) == 0
    one = Poem(id="one", lines=(
        VerseLine(1, "Hwaet we gardena", "in geardagum.", "A", "B"),
        VerseLine(2, "threatum monegum", "maegtha gehwaes;"),
        VerseLine(3, "orphan verse line", "", "C", None),
    ), parts=(PartRange("head", 1, 2), PartRange("tail", 3, 3)))
    two = Poem(id="two", lines=(
        VerseLine(1, "felahror feran", "on frean waere.",
                  compounds=("felahror",)),
    ), parts=(PartRange("two", 1, 1),))
    assert parse_corpus(out) == build_corpus(one, two)
    # the manifest is written by write_corpus: indent 1, parts explicit
    assert (out / "corpus.json").read_text(encoding="utf-8") == json.dumps(
        {"poems": [
            {"id": "one", "text": "one.txt", "scansion": "one.scansion.tsv",
             "compounds": None,
             "parts": [{"name": "head", "first": 1, "last": 2},
                       {"name": "tail", "first": 3, "last": 3}]},
            {"id": "two", "text": "two.txt", "scansion": None,
             "compounds": "two.compounds.tsv",
             "parts": [{"name": "two", "first": 1, "last": 1}]}]},
        indent=1) + "\n"


def _bad_dataset(root, name, content):
    make_dataset(root)
    path = root / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")


@pytest.mark.parametrize("name,content,message", [
    ("zzz.txt", "a\tb\tc\n",
     "poem zzz: line 1: more than one TAB in verse line"),
    ("zzz.txt", "", "poem zzz: no verse lines"),
    ("two.txt", b"felahror \xe6\tferan\n", "two.txt: not UTF-8 text"),
    ("one.scansion.tsv", b"1\t\xc1\tB\n", "one.scansion.tsv: not UTF-8 text"),
    ("two.compounds.tsv", "1\n", "poem two: bad compound row '1'"),
    ("parts.json", "{\"one\": [", "parts.json: invalid JSON"),
    ("parts.json", "[]", "parts.json: expected an object mapping poem ids"),
    ("parts.json", '{"two": 3}', "poem two: parts must be a list, not 3"),
], ids=["double-tab", "empty-text", "text-not-utf8", "sidecar-not-utf8",
        "compound-without-lemma", "parts-bad-json", "parts-not-object",
        "parts-not-list"])
def test_failing_convert_writes_nothing(tmp_path, capsys, name, content,
                                        message):
    dataset, out = tmp_path / "dataset", tmp_path / "canonical"
    _bad_dataset(dataset, name, content)
    assert dispatch(["convert", str(dataset), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and message in err[0]
    assert not out.exists()


def test_convert_headerless_scansion(tmp_path):
    dataset = tmp_path / "dataset"
    dataset.mkdir()
    (dataset / "p.txt").write_text("a verse\tb verse\n", encoding="utf-8")
    (dataset / "p.scansion.tsv").write_text("1\tA\tE\n", encoding="utf-8")
    out = tmp_path / "canonical"
    assert dispatch(["convert", str(dataset), "--out", str(out)]) == 0
    poem = parse_corpus(out).poem("p")
    assert (poem.line(1).a_pattern, poem.line(1).b_pattern) == ("A", "E")


def test_convert_splits_multi_lemma_compound_rows(tmp_path):
    dataset = tmp_path / "dataset"
    dataset.mkdir()
    (dataset / "p.txt").write_text("a verse\tb verse\nc verse\td verse\n",
                                   encoding="utf-8")
    (dataset / "p.compounds.tsv").write_text("1\tfela\thror\n2\tgar\n",
                                             encoding="utf-8")
    out = tmp_path / "canonical"
    assert dispatch(["convert", str(dataset), "--out", str(out)]) == 0
    poem = parse_corpus(out).poem("p")
    assert poem.line(1).compounds == ("fela", "hror")
    assert poem.line(2).compounds == ("gar",)


def test_convert_missing_dataset(tmp_path, capsys):
    code = dispatch(["convert", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_convert_rejects_malformed_text(tmp_path, capsys):
    dataset = tmp_path / "dataset"
    dataset.mkdir()
    (dataset / "bad.txt").write_text("a\tb\tc\n", encoding="utf-8")
    code = dispatch(["convert", str(dataset), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("option", [["--format", "json"], ["--seed", "3"]],
                         ids=["format", "seed"])
def test_convert_takes_no_analysis_options(tmp_path, capsys, option):
    make_dataset(tmp_path / "dataset")
    out = tmp_path / "out"
    assert dispatch(["convert", str(tmp_path / "dataset"), *option,
                     "--out", str(out)]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_convert_empty_dataset(tmp_path, capsys):
    dataset = tmp_path / "dataset"
    dataset.mkdir()
    code = dispatch(["convert", str(dataset), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "no poem text files" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["shared", "--corpus", "CORPUS"],
    ["report", "--corpus", "CORPUS", "--bootstrap", "1000"],
    ["convert", "DATASET"],
], ids=["shared", "report", "convert"])
def test_unwritable_out_is_one_error_line(corpus_dir, tmp_path, capsys, argv):
    # --out names a file, so no output directory can be made under it
    make_dataset(tmp_path / "dataset")
    blocker = tmp_path / "blocker"
    blocker.write_text("a file\n", encoding="utf-8")
    places = {"CORPUS": str(corpus_dir), "DATASET": str(tmp_path / "dataset")}
    code = dispatch([places.get(arg, arg) for arg in argv]
                    + ["--out", str(blocker)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and str(blocker) in err[0]
    assert blocker.read_text(encoding="utf-8") == "a file\n"


# table outputs --------------------------------------------------------------

def test_sensepause_outputs(corpus_dir, tmp_path):
    out = tmp_path / "out"
    assert dispatch(["sensepause", "--corpus", str(corpus_dir),
                     "--poem-a", "alpha", "--poem-b", "beta",
                     "--out", str(out)]) == 0
    ratios = read_csv(out / "sensepause" / "ratios.csv")
    assert set(ratios[0]) == {"unit", "intraline", "final", "ratio"}
    assert any(row["unit"].startswith("alpha") for row in ratios)
    assert any(row["unit"].startswith("beta") for row in ratios)
    ttest = read_csv(out / "sensepause" / "ttest.csv")
    assert len(ttest) == 1
    assert ttest[0]["method"] == "pooled_t"
    assert 0.0 <= float(ttest[0]["p_value"]) <= 1.0
    syllables = read_csv(out / "sensepause" / "syllables.csv")
    assert [row["poem"] for row in syllables] == ["alpha", "beta"]


def test_json_format(corpus_dir, tmp_path):
    out = tmp_path / "out"
    assert dispatch(["sensepause", "--corpus", str(corpus_dir),
                     "--poem-a", "alpha", "--poem-b", "beta",
                     "--format", "json", "--out", str(out)]) == 0
    rows = json.loads((out / "sensepause" / "ratios.json").read_text())
    assert isinstance(rows, list) and rows
    assert {"unit", "intraline", "final", "ratio"} == set(rows[0])
    assert not (out / "sensepause" / "ratios.csv").exists()


def test_run_manifest_contents(corpus_dir, tmp_path):
    out = tmp_path / "out"
    dispatch(["sensepause", "--corpus", str(corpus_dir),
              "--poem-a", "alpha", "--poem-b", "beta",
              "--seed", "11", "--out", str(out)])
    manifest = json.loads((out / "sensepause" / "run.json").read_text())
    assert manifest["command"] == "sensepause"
    assert manifest["seed"] == 11
    assert "out" not in manifest["parameters"]
    assert manifest["parameters"]["poem_a"] == "alpha"
    assert set(manifest["inputs"]) == {
        "corpus.json", "alpha.txt", "alpha.scansion.tsv",
        "alpha.compounds.tsv", "beta.txt", "beta.compounds.tsv"}
    assert all(v.startswith("sha256:") and len(v) == 7 + 64
               for v in manifest["inputs"].values())


@pytest.mark.parametrize("change", ["delete", "rewrite"])
def test_run_manifest_hashes_the_parsed_bytes(corpus_dir, tmp_path,
                                              monkeypatch, change):
    # a corpus file that changes once the analysis has run leaves the run
    # and its manifest as they were
    root = _corpus_copy(corpus_dir, tmp_path / "corpus")
    parsed = {path.name: "sha256:" + hashlib.sha256(path.read_bytes()
                                                    ).hexdigest()
              for path in root.iterdir()}
    compounds = root / "beta.compounds.tsv"
    cmd_shared = cli.cmd_shared

    def shared_then_change(args, corpus):
        outputs = cmd_shared(args, corpus)
        if change == "delete":
            compounds.unlink()
        else:
            compounds.write_text("1\tlemma\n", encoding="utf-8")
        return outputs

    monkeypatch.setattr(cli, "cmd_shared", shared_then_change)
    out = tmp_path / "out"
    assert dispatch(["shared", "--corpus", str(root), "--out", str(out)]) == 0
    manifest = json.loads((out / "shared" / "run.json").read_text())
    assert manifest["inputs"] == parsed


def test_split_tests_rows(corpus_dir, tmp_path):
    out = tmp_path / "out"
    assert dispatch(["metre", "split-tests", "--corpus", str(corpus_dir),
                     "--poem", "alpha", "--split-line", "350",
                     "--bootstrap", "1000", "--out", str(out)]) == 0
    rows = read_csv(out / "metre" / "split-tests-alpha.csv")
    assert [row["test"] for row in rows] == [
        "half_homogeneity", "half_gof", "full_homogeneity", "full_gof",
        "full_homogeneity_bootstrap", "full_gof_bootstrap"]
    assert all(row["split_line"] == "350" for row in rows)
    boot = [row for row in rows if row["test"].endswith("bootstrap")]
    assert all(row["method"] == "bootstrap_empirical" for row in boot)
    assert all(row["df"] == "" for row in boot)
    pairing = read_csv(out / "metre" / "pairing-alpha.csv")
    assert [row["section"] for row in pairing] == ["before", "after"]


def test_split_tests_seeded_reruns_identical(corpus_dir, tmp_path):
    trees = []
    for name in ("a", "b"):
        out = tmp_path / name
        dispatch(["metre", "split-tests", "--corpus", str(corpus_dir),
                  "--poem", "alpha", "--split-line", "350",
                  "--bootstrap", "1000", "--seed", "3", "--out", str(out)])
        trees.append(tree_bytes(out))
    assert trees[0] == trees[1]


def test_incidence_outputs(corpus_dir, tmp_path):
    out = tmp_path / "out"
    assert dispatch(["metre", "incidence-r", "--corpus", str(corpus_dir),
                     "--poem", "alpha", "--pattern", "A",
                     "--granularity", "half", "--out", str(out)]) == 0
    fit = read_csv(out / "metre" / "incidence-fit-alpha-A.csv")[0]
    assert fit["pattern"] == "A"
    assert 0.0 <= float(fit["r"]) <= 1.0
    svg = (out / "metre" / "incidence-alpha-A.svg").read_text()
    assert svg.startswith("<?xml")


def test_incidence_points_built_once(corpus_dir, tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, metre, "incidence_points")
    # the command module's own name for it, where it has one, is the same spy
    monkeypatch.setattr(cli, "incidence_points", metre.incidence_points,
                        raising=False)
    assert dispatch(["metre", "incidence-r", "--corpus", str(corpus_dir),
                     "--poem", "alpha", "--pattern", "A",
                     "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_report_builds_each_text_column_once_per_poem(tmp_path, monkeypatch):
    corpus_dir = tmp_path / "corpus"
    write_corpus(criterion_8_corpus(), corpus_dir)
    streams = count_calls(monkeypatch, Poem.__dict__["ngram_stream"], "func")
    tokens = count_calls(monkeypatch, Poem.__dict__["compound_tokens"],
                         "func")
    assert dispatch([*CRITERION_8_ARGV, "--corpus", str(corpus_dir),
                     "--out", str(tmp_path / "out")]) == 0
    built = sorted(poem.id for (poem,) in streams)
    assert built == ["epic-a", "epic-b", "saga"]
    assert sorted(poem.id for (poem,) in tokens) == built


def test_hapax_fit_outputs(corpus_dir, tmp_path):
    out = tmp_path / "out"
    assert dispatch(["hapax", "fit", "--corpus", str(corpus_dir),
                     "--poem", "alpha", "--out", str(out)]) == 0
    fit = read_csv(out / "hapax" / "fit-alpha.csv")[0]
    assert set(fit) == {"unit", "first_line", "last_line", "slope_per100",
                        "intercept", "r", "n_hapax"}
    series = read_csv(out / "hapax" / "series-alpha.csv")
    assert int(series[-1]["cumulative"]) == int(fit["n_hapax"])
    # slope is reported per hundred lines
    assert float(fit["slope_per100"]) == pytest.approx(
        100 * (float(fit["slope_per100"]) / 100))


# alpha holds a hapax on each line divisible by 12 or 97, beta on each line
# divisible by 15
SEGMENT_CASES = {
    "in-order": ("partition", ["alpha:1-350", "alpha:351-700"], [
        ("alpha:1-350", 1, 350, 32), ("alpha:351-700", 351, 700, 33),
        ("combined", 1, 700, 65)]),
    "out-of-order": ("partition", ["alpha:351-700", "alpha:1-350"], [
        ("alpha:351-700", 351, 700, 33), ("alpha:1-350", 1, 350, 32),
        ("combined", 1, 700, 65)]),
    "overlapping": ("partition", ["alpha:1-400", "alpha:301-700", "beta"], [
        ("alpha:1-400", 1, 400, 37), ("alpha:301-700", 301, 700, 37),
        ("beta:1-650", 1, 650, 43), ("combined", 1, 700, 117)]),
    "merge": ("merge", ["alpha:351-700", "beta:10-200"], [
        ("alpha:351-700", 351, 700, 33), ("beta:10-200", 10, 200, 13),
        ("combined", 1, 541, 46)]),
}


def test_hapax_segments_outputs(corpus_dir, tmp_path):
    for case, (mode, units, expected) in SEGMENT_CASES.items():
        out = tmp_path / case
        assert dispatch(["hapax", "segments", "--corpus", str(corpus_dir),
                         "--mode", mode,
                         *(arg for unit in units for arg in ("--unit", unit)),
                         "--out", str(out)]) == 0
        rows = read_csv(out / "hapax" / f"segments-{mode}.csv")
        assert [(row["unit"], int(row["first_line"]), int(row["last_line"]),
                 int(row["n_hapax"])) for row in rows] == expected, case


@pytest.mark.parametrize("argv", [
    ["hapax", "fit", "--poem", "alpha", "--first", "0"],
    ["hapax", "segments", "--mode", "partition",
     "--unit", "alpha:0-10", "--unit", "alpha:11-20"],
], ids=["fit-first-0", "segments-unit-0"])
def test_hapax_line_zero_rejected(corpus_dir, tmp_path, capsys, argv):
    code = dispatch(argv + ["--corpus", str(corpus_dir),
                            "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "bad line range" in err[0]


@pytest.mark.parametrize("argv", [
    ["hapax", "fit", "--poem", "alpha", "--first", "12", "--last", "12"],
    ["hapax", "segments", "--mode", "partition",
     "--unit", "alpha:12-12", "--unit", "beta"],
], ids=["fit", "segments"])
def test_hapax_one_line_range_is_one_error_line(corpus_dir, tmp_path, capsys,
                                                argv):
    # line 12 holds a hapax compound, but one point has no fit
    code = dispatch(argv + ["--corpus", str(corpus_dir),
                            "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: poem alpha: a fit needs two lines, got line 12\n")
    assert not (tmp_path / "out").exists()


def test_report_skips_one_line_hapax_fit(tmp_path):
    corpus_dir = tmp_path / "corpus"
    write_corpus(build_corpus(
        build_poem("tiny", 1, compounds={1: ("tinyhapax",)}),
        build_poem("other", 20, compounds={5: ("otherhapax",)})), corpus_dir)
    out = tmp_path / "out"
    assert dispatch(["report", "--corpus", str(corpus_dir),
                     "--out", str(out)]) == 0
    skipped = (out / "report" / "skipped.csv").read_text(encoding="utf-8")
    assert ('hapax fit,tiny,"poem tiny: a fit needs two lines, got line 1"\n'
            in skipped)
    assert [row["unit"] for row in read_csv(out / "hapax" / "fits.csv")] == [
        "other"]
    assert not (out / "hapax" / "series-tiny.csv").exists()


def test_bad_unit_spec(corpus_dir, tmp_path, capsys):
    code = dispatch(["hapax", "segments", "--corpus", str(corpus_dir),
                     "--mode", "merge", "--unit", "alpha:x-y",
                     "--unit", "beta", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "bad unit spec" in capsys.readouterr().err


def test_shared_outputs(corpus_dir, tmp_path):
    out = tmp_path / "out"
    assert dispatch(["shared", "--corpus", str(corpus_dir),
                     "--trials", "1000", "--seed", "5",
                     "--out", str(out)]) == 0
    rows = read_csv(out / "shared" / "pairs.csv")
    assert len(rows) == 1
    assert (rows[0]["poem_a"], rows[0]["poem_b"]) == ("alpha", "beta")
    assert int(rows[0]["observed"]) == 1  # wordhord appears in both
    assert 0.0 <= float(rows[0]["tail"]) <= 1.0


def test_cluster_outputs(corpus_dir, tmp_path):
    out = tmp_path / "out"
    assert dispatch(["cluster", "dendrogram", "--corpus", str(corpus_dir),
                     "--n", "2", "--k", "80", "--out", str(out)]) == 0
    tree = json.loads((out / "cluster" / "dendrogram.json").read_text())
    assert set(tree) == {"leaves", "merges"}
    assert len(tree["merges"]) == len(tree["leaves"]) - 1
    distances = read_csv(out / "cluster" / "distances.csv")
    assert len(distances) == len(tree["leaves"])
    assert dispatch(["cluster", "sweep", "--corpus", str(corpus_dir),
                     "--poem", "alpha", "--n-values", "2,3",
                     "--k-values", "100,200", "--out", str(out)]) == 0
    sweep = json.loads((out / "cluster" / "sweep.json").read_text())
    assert sweep["poem"] == "alpha"
    assert 0.0 <= sweep["stability"] <= 1.0
    assert len(sweep["cells"]) == 4
    rows = read_csv(out / "cluster" / "sweep.csv")
    populated = sum(1 for c in sweep["cells"] if c["populated"])
    assert len(rows) == populated * len(sweep["window_ids"])


def test_sweep_range_syntax(corpus_dir, tmp_path):
    out = tmp_path / "out"
    assert dispatch(["cluster", "sweep", "--corpus", str(corpus_dir),
                     "--poem", "alpha", "--n-values", "2,3",
                     "--k-values", "100:200:100", "--out", str(out)]) == 0
    sweep = json.loads((out / "cluster" / "sweep.json").read_text())
    assert [(c["n"], c["k"]) for c in sweep["cells"]] == [
        (2, 100), (2, 200), (3, 100), (3, 200)]


@pytest.mark.parametrize("argv", [
    ["cluster", "sweep", "--poem", "alpha", "--n-values", "2,3",
     "--k-values", "100:200:100"],
    ["report", "--seed", "7", "--bootstrap", "1000", "--split-line", "350"],
], ids=["cluster-sweep", "report"])
def test_json_sweep_keeps_assignment_table(corpus_dir, tmp_path, argv):
    """Under --format json the per-window sweep table and the sweep summary
    are two files; the table holds the rows of the CSV run's sweep.csv."""
    trees = {}
    for fmt in ("csv", "json"):
        trees[fmt] = tmp_path / fmt
        assert dispatch([*argv, "--format", fmt, "--corpus", str(corpus_dir),
                         "--out", str(trees[fmt])]) == 0
    cluster = trees["json"] / "cluster"
    summary = json.loads((cluster / "sweep.json").read_text())
    assert set(summary) == {"poem", "stability", "window_ids", "cells"}
    rows = json.loads((cluster / "sweep-table.json").read_text())
    expected = read_csv(trees["csv"] / "cluster" / "sweep.csv")
    assert expected
    assert [{k: str(v) for k, v in row.items()} for row in rows] == expected


# report ---------------------------------------------------------------------

def test_report_trees_byte_identical(corpus_dir, tmp_path):
    trees = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert dispatch(["report", "--corpus", str(corpus_dir),
                         "--seed", "7", "--bootstrap", "1000",
                         "--split-line", "350", "--out", str(out)]) == 0
        trees.append(tree_bytes(out))
    assert trees[0].keys() == trees[1].keys()
    assert trees[0] == trees[1]
    names = set(trees[0])
    assert "run.json" in names
    assert "corpus/summary.csv" in names
    assert "sensepause/ttests.csv" in names
    assert "metre/split-tests.csv" in names
    assert "hapax/fits.csv" in names
    assert "shared/pairs.csv" in names
    assert "cluster/dendrogram.svg" in names
    assert "report/skipped.csv" in names
    assert any(name.endswith(".svg") for name in names)


def test_report_skips_unsplittable_poems(corpus_dir, tmp_path):
    out = tmp_path / "out"
    assert dispatch(["report", "--corpus", str(corpus_dir),
                     "--seed", "7", "--bootstrap", "1000",
                     "--split-line", "5000", "--out", str(out)]) == 0
    skipped = read_csv(out / "report" / "skipped.csv")
    assert any(row["analysis"] == "metre split-tests" for row in skipped)


def test_report_sensepause_rows_follow_succeeding_pairs(tmp_path):
    """Ratio rows list each poem at its first pair whose t-test succeeded:
    (p0, p1) has zero variance on both sides, so p2 comes before p1."""
    def text(intraline):
        return lambda i: ("wes" + ";" * intraline(i), "hal.")

    corpus_dir = tmp_path / "corpus"
    write_corpus(build_corpus(
        build_poem("p0", 300, text_fn=text(lambda i: 1)),
        build_poem("p1", 300, text_fn=text(lambda i: 2)),
        build_poem("p2", 300,
                   text_fn=text(lambda i: int(i % (2 + i // 100) == 0))),
    ), corpus_dir)
    out = tmp_path / "out"
    assert dispatch(["report", "--corpus", str(corpus_dir),
                     "--out", str(out)]) == 0
    units = [row["unit"] for row in read_csv(out / "sensepause" / "ratios.csv")]
    assert [unit.split(":")[0] for unit in units[::3]] == ["p0", "p2", "p1"]
    assert units[:3] == ["p0:1-100", "p0:101-200", "p0:201-300"]
    skipped = read_csv(out / "report" / "skipped.csv")
    assert {"analysis": "sensepause", "unit": "p0/p1",
            "reason": "degenerate variance"} in skipped


# a failing command or a skipped report step writes none of its files --------

@pytest.fixture(scope="module")
def short_corpus_dir(tmp_path_factory):
    """A 150-line scanned poem, too short for one 200-line rolling window,
    and a 250-line one, too short for one 300-line cluster window."""
    root = tmp_path_factory.mktemp("shortcorpus") / "corpus"
    probs = [0.3, 0.25, 0.2, 0.15, 0.1]
    write_corpus(build_corpus(iid_scansion_poem("short", 150, probs, seed=1),
                              iid_scansion_poem("long", 250, probs, seed=2)),
                 root)
    return root


@pytest.mark.parametrize("argv,reason", [
    (["metre", "rolling", "--poem", "short"],
     "poem short has 150 lines, fewer than the window width 200"),
    (["cluster", "sweep", "--poem", "long"],
     "poem long has 250 lines, fewer than the window width 300"),
], ids=["metre-rolling", "cluster-sweep"])
def test_failing_command_writes_no_files(short_corpus_dir, tmp_path, capsys,
                                         argv, reason):
    out = tmp_path / "out"
    assert dispatch([*argv, "--corpus", str(short_corpus_dir),
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert tree_digests(tmp_path) == {}


def test_skipped_report_step_writes_no_files(short_corpus_dir, tmp_path):
    out = tmp_path / "out"
    assert dispatch(["report", "--corpus", str(short_corpus_dir),
                     "--out", str(out)]) == 0
    assert read_csv(out / "report" / "skipped.csv") == [
        {"analysis": analysis, "unit": unit, "reason": reason}
        for analysis, unit, reason in (
            ("sensepause", "short/long", "insufficient samples"),
            ("metre split-tests", "short",
             "split line 2300 not strictly inside poem short"),
            ("metre rolling", "short",
             "poem short has 150 lines, fewer than the window width 200"),
            ("metre split-tests", "long",
             "split line 2300 not strictly inside poem long"),
            ("hapax fit", "short", "no hapax compounds in range"),
            ("hapax fit", "long", "no hapax compounds in range"),
            ("shared", "(none)",
             "fewer than two poems with compound annotations"),
            ("cluster dendrogram", "(corpus)",
             "need at least two 300-line windows across poems "
             "['short', 'long']"),
            ("cluster sweep", "long",
             "poem long has 250 lines, fewer than the window width 300"))]
    files = tree_digests(out)
    assert "metre/rolling-long.svg" in files
    assert "metre/proportions-long.csv" in files
    assert not [name for name in files
                if name.startswith(("metre/proportions-short",
                                    "metre/rolling-short", "cluster/"))]


# golden digests -------------------------------------------------------------

@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert set(golden) == set(CLI_GOLDEN_CASES) | {"criterion-8"}


@pytest.mark.parametrize("case", sorted(CLI_GOLDEN_CASES))
def test_outputs_match_golden_digests(corpus_dir, tmp_path, golden, case):
    digests = run_digests(CLI_GOLDEN_CASES[case], corpus_dir, tmp_path / "out")
    assert differing_files(digests, golden[case]) == []


# benchmark trace harness ----------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]
TRACE_REPORT = ROOT / "perfbench" / "trace_report.py"
# the counts the trace hooks and the harness itself write for a report run
TRACE_COUNTS = {
    "corpus.lines", "stats.bootstrap.replicates", "lexicon.shared.trials",
    "lexicon.shared.pairs", "lexicon.shared.types",
    "ngramcluster.windows_counted", "ngramcluster.distinct_windows",
    "ngramcluster.linkage.max_leaves", "ngramcluster.robustness_sweep.cells",
    "figures.svg_bytes", "sensepause.classify_sense_pauses.calls"}


def test_trace_harness_finds_every_traced_function(corpus_dir, tmp_path):
    # the harness wraps functions by name and its hooks read their
    # parameters by name, so a rename must fail here, not only under
    # the benchmark
    spec = importlib.util.spec_from_file_location("trace_report",
                                                  TRACE_REPORT)
    trace_report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_report)
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(TRACE_REPORT), str(spans_path), "--", "report",
         "--corpus", str(corpus_dir), "--out", str(tmp_path / "out"),
         "--seed", "7", "--bootstrap", "1000", "--split-line", "350"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans_path.read_text(encoding="utf-8"))
    assert trace["exit"] == 0
    assert trace["missing"] == []
    spanned = {f"{module}.{name.removeprefix('cmd_')}"
               for module, names in trace_report.SPANNED.items()
               for name in names}
    assert set(trace_report.HOOKS) <= spanned
    assert spanned - {name for name, *_ in trace["spans"]} == set()
    assert TRACE_COUNTS - set(trace["counts"]) == set()


# documentation --------------------------------------------------------------

def readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    return [line.strip()
            for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
            for line in block.splitlines()
            if line.strip().startswith("versemetry ")]


def test_readme_examples_parse():
    commands = readme_commands()
    assert len(commands) >= 10
    rejected = []
    for command in commands:
        try:
            build_parser().parse_args(shlex.split(command)[1:])
        except SystemExit:
            rejected.append(command)
    assert rejected == []


# console entry point --------------------------------------------------------

def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "versemetry", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "report" in proc.stdout
