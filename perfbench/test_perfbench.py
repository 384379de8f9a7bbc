"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import subprocess
import sys

import corpora
from run import ROOT, check_outputs, span_metrics, tree_digest

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def test_10k_corpus_is_the_criterion_8_corpus(tmp_path):
    from helpers import build_corpus
    from test_acceptance import fixture_poem
    from versemetry.corpus import PartRange, write_corpus

    write_corpus(build_corpus(
        fixture_poem("epic-a", 4000, 11, True,
                     parts=(PartRange("A", 1, 2000),
                            PartRange("B", 2001, 4000))),
        fixture_poem("epic-b", 3500, 12, True),
        fixture_poem("saga", 2500, 13, False),
    ), tmp_path / "acceptance")
    corpora.write_corpus(corpora.epic_corpus(0, 1), tmp_path / "bench")

    def files(root):
        return {p.name: p.read_bytes() for p in sorted(root.iterdir())}

    assert files(tmp_path / "bench") == files(tmp_path / "acceptance")


def test_generators_repeat_per_seed_and_differ_across_seeds(tmp_path):
    digests = []
    for i, seed in enumerate((3, 3, 4)):
        corpora.write_corpus(corpora.many_corpus(seed, poems=3, lines=50),
                             tmp_path / str(i))
        digests.append(tree_digest(tmp_path / str(i)))
    assert digests[0] == digests[1] != digests[2]


def test_self_times_partition_the_invocation():
    trace = {"spans": [["python.import", 10, 20, -1],
                       ["cli.dispatch", 20, 90, -1],
                       ["cli.report", 25, 85, 1],
                       ["ngramcluster.build_profiles", 30, 40, 2],
                       ["ngramcluster.build_profiles", 50, 70, 2]]}
    metrics, problems = span_metrics(trace, 0, 100)
    assert problems == []
    assert metrics["trace.self_sum_s"] == 100 / 1e9
    assert metrics["cli.report.self_s"] == 30 / 1e9
    assert metrics["ngramcluster.build_profiles.s"] == 30 / 1e9
    assert metrics["ngramcluster.build_profiles.calls"] == 2
    assert metrics["invocation.self_s"] == 20 / 1e9

    trace["spans"].append(["figures.render_figure", 80, 95, 2])
    assert span_metrics(trace, 0, 100)[1] != []


def test_output_check_rejects_skips_missing_files_and_changed_digests():
    expected = {"skipped": [], "files": {"a.csv": "1", "run.json": None}}
    good = {"problems": [], "skipped": [], "files": {"a.csv": "1",
                                                     "run.json": None,
                                                     "new.csv": "9"}}
    assert check_outputs(good, expected, True) == []
    assert check_outputs(dict(good, skipped=[["shared", "x", "why"]]),
                         expected, False)
    assert check_outputs(dict(good, files={"run.json": None}), expected, False)
    changed = dict(good, files={"a.csv": "2", "run.json": None})
    assert check_outputs(changed, expected, False) == []
    assert check_outputs(changed, expected, True)


def _traced_run():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report-10k",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_two_traced_runs_give_identical_counts():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] not in ("s", "1/s")]
    first, second = _traced_run(), _traced_run()
    assert first["correct"] and second["correct"]
    assert first["failed"] == second["failed"] == 0
    assert {n: first["metrics"][n] for n in counts} == \
        {n: second["metrics"][n] for n in counts}
