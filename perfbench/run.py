"""Benchmark of ``versemetry report`` on two generated corpora.

Usage (from the repository root)::

    python3 perfbench/run.py --workload report-10k [--seed 0] [--seconds 45] [--trace 0]

One run generates the workload's corpus from ``--seed``, then drives
``python -m versemetry report`` in a closed loop: one client, one
single-process invocation at a time, for ``--seconds`` seconds and at least
once.  Every invocation's output tree is checked (see ``check_outputs``).

``--trace 0`` reports the end-to-end metrics: the median wall time of one
invocation, the median set-up time (import of ``versemetry.cli`` plus
``parse_corpus``, in 15 fresh processes) and the median peak resident
memory of an invocation.  ``--trace 1`` alternates untraced invocations with
invocations under ``trace_report.py`` and reports the per-layer metrics.
Metric names and units come from ``BENCHMARK.json``.  Human-readable lines
come first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

import corpora

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected.json"
DEFAULT_SEED = 0
REPORT_SEED = "7"
SETUP_REPEATS = 15
RUN_BUDGET_S = 170.0

# Why each workload exists is recorded in README.md.
WORKLOADS = {
    "report-10k": (lambda seed: corpora.epic_corpus(seed, 1), []),
    "report-many": (corpora.many_corpus,
                    ["--split-line", "500", "--bootstrap", "5000"]),
}

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import versemetry.cli
from versemetry.corpus import parse_corpus
parse_corpus(sys.argv[1])
print(repr(time.perf_counter() - t0))
"""

# Outputs whose values depend on the RNG stream.  Their digests cover every
# other column; the masked columns are checked for shape instead.
MASKED = {
    "metre/split-tests.csv": ("method", "bootstrap_empirical", ("p_value",)),
    "shared/pairs.csv": (None, None, ("null_mean", "null_sd", "z", "tail")),
}


class Invocation:
    """One child process: exit code, wall time and peak resident memory."""

    def __init__(self, argv: list[str], deadline: float, stdout=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.launch_ns = time.monotonic_ns()
        proc = subprocess.Popen([sys.executable, *argv], env=env,
                                stdout=stdout or subprocess.DEVNULL)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        self.exit_ns = time.monotonic_ns()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.wall_s = (self.exit_ns - self.launch_ns) / 1e9
        self.peak_rss_mb = usage.ru_maxrss / 1024.0


# ------------------------------------------------------------ outputs ------

def tree_digest(root: Path) -> str:
    """sha256 over the relative paths and bytes of every file under ``root``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _masked_table(data: bytes, key_column, key_value, columns) -> tuple[bytes, list]:
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    masked = []
    for row in rows:
        if key_column is None or row[key_column] == key_value:
            masked.append({c: row[c] for c in columns})
            row.update({c: "*" for c in columns})
    out = io.StringIO()
    if rows:
        writer = csv.DictWriter(out, fieldnames=list(rows[0]),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return out.getvalue().encode("utf-8"), masked


def _shape_problems(name: str, cells: list[dict]) -> list[str]:
    problems = []
    for cell in cells:
        for column, text in cell.items():
            value = float(text)
            ok = {"p_value": 0.0 < value <= 1.0,
                  "tail": 0.0 <= value <= 1.0,
                  "null_sd": value >= 0.0}.get(column, math.isfinite(value))
            if not ok:
                problems.append(f"{name}: {column}={text} out of range")
    return problems


def summarize_outputs(out: Path) -> dict:
    """Digests of an output tree, with RNG-dependent cells masked.

    ``run.json`` is listed without a digest.  Returns the per-file digests,
    a digest of the whole unmasked tree, the rows of ``report/skipped``, the
    file and byte counts and any shape problems of the masked cells.
    """
    files, problems, total_bytes = {}, [], 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        name = path.relative_to(out).as_posix()
        data = path.read_bytes()
        total_bytes += len(data)
        if name in MASKED:
            data, cells = _masked_table(data, *MASKED[name])
            problems += _shape_problems(name, cells)
        files[name] = None if name == "run.json" else \
            hashlib.sha256(data).hexdigest()
    skipped = out / "report" / "skipped.csv"
    skipped_rows = (list(csv.reader(io.StringIO(skipped.read_text("utf-8"))))[1:]
                    if skipped.is_file() else None)
    return {"files": files, "tree": tree_digest(out), "skipped": skipped_rows,
            "problems": problems, "bytes": total_bytes}


def check_outputs(summary: dict, expected: dict, at_default_seed: bool) -> list[str]:
    """Problems with one output tree, empty when it passes.

    On every seed the recorded files must exist, ``report/skipped`` must hold
    the recorded rows and the masked cells must have the right shape.  At the
    default seed every recorded digest must match as well.
    """
    problems = list(summary["problems"])
    if summary["skipped"] != expected["skipped"]:
        problems.append(f"report/skipped is {summary['skipped']}, "
                        f"recorded {expected['skipped']}")
    for name, digest in expected["files"].items():
        if name not in summary["files"]:
            problems.append(f"{name}: missing")
        elif at_default_seed and digest != summary["files"][name]:
            problems.append(f"{name}: digest differs from the recorded one")
    return problems


# -------------------------------------------------------------- trace ------

def span_metrics(trace: dict, launch_ns: int, exit_ns: int) -> tuple[dict, list]:
    """Totals, self times and calls per span name from one traced run.

    The invocation itself is the root span (launch to exit, as seen by this
    process); spans that had no parent inside the child hang from it.
    """
    spans = [["invocation", launch_ns, exit_ns, None]] + [
        [name, start, end, parent + 1] for name, start, end, parent
        in trace["spans"]]
    child_ns = [0] * len(spans)
    problems = []
    for name, start, end, parent in spans[1:]:
        _, p_start, p_end, _ = spans[parent]
        if not p_start <= start <= end <= p_end:
            problems.append(f"span {name} lies outside its parent")
        child_ns[parent] += end - start
    total_ns, self_ns, calls = Counter(), Counter(), Counter()
    for (name, start, end, _), children in zip(spans, child_ns):
        total_ns[name] += end - start
        self_ns[name] += end - start - children
        calls[name] += 1
    metrics: dict[str, float] = {"trace.spans": len(spans),
                                 "trace.self_sum_s": sum(self_ns.values()) / 1e9}
    for name in calls:
        metrics[f"{name}.s"] = total_ns[name] / 1e9
        metrics[f"{name}.self_s"] = self_ns[name] / 1e9
        metrics[f"{name}.calls"] = calls[name]
    return metrics, problems


def layer_metrics(spans: dict, counts: dict, summary: dict) -> dict:
    """Per-layer metrics of one traced invocation, times and counts."""
    m = dict(spans)
    m.update(counts)
    m["cli.report.skipped_rows"] = len(summary["skipped"] or [])
    m["cli.files_written"] = len(summary["files"])
    m["cli.bytes_written"] = summary["bytes"]

    def ratio(a, b):
        return m.get(a, 0) / m[b] if m.get(b) else 0.0

    m["sensepause.classify_per_line"] = ratio(
        "sensepause.classify_sense_pauses.calls", "corpus.lines")
    m["stats.bootstrap.replicates_per_s"] = ratio(
        "stats.bootstrap.replicates", "stats.bootstrap_null_p.s")
    m["ngramcluster.count_useful_ratio"] = ratio(
        "ngramcluster.distinct_windows", "ngramcluster.windows_counted")
    return m


# ---------------------------------------------------------------- run ------

def machine_record(workload: str, seed: int, corpus_sha: str) -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "corpus_sha256": corpus_sha,
        "nproc": os.cpu_count(), "cpu_model": model,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k, "unset") for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_start": list(os.getloadavg()),
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        work: Path) -> dict:
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    make_corpus, extra_args = WORKLOADS[workload]
    corpus_dir = work / "corpus"
    corpora.write_corpus(make_corpus(seed), corpus_dir)
    corpus_sha = tree_digest(corpus_dir)
    print(json.dumps({"record": machine_record(workload, seed, corpus_sha)}))
    expected = json.loads(EXPECTED.read_text("utf-8"))[workload]
    at_default = seed == DEFAULT_SEED
    problems = []
    if at_default and corpus_sha != expected["corpus_sha256"]:
        problems.append("generated corpus differs from the recorded one")

    # compile bytecode once, as an install would, before anything is timed
    if Invocation(["-c", "import versemetry.cli"], deadline).code != 0:
        raise SystemExit("error: cannot import versemetry from src/")

    setup = []
    if not trace:
        for _ in range(SETUP_REPEATS):
            probe = work / "setup.txt"
            with open(probe, "w") as f:
                inv = Invocation(["-c", SETUP_CODE, str(corpus_dir)],
                                 deadline, stdout=f)
            if inv.code != 0:
                problems.append(f"set-up probe exited {inv.code}")
                continue
            setup.append(float(probe.read_text()))

    walls, rss, traced = [], [], []
    attempted = failed = 0
    reference = None
    loop_start = time.monotonic()
    while attempted == 0 or time.monotonic() - loop_start < seconds:
        modes = [False]
        if trace:
            modes = [False, True] if len(traced) % 2 == 0 else [True, False]
        for with_trace in modes:
            out = work / f"out-{attempted}"
            report = ["report", "--corpus", str(corpus_dir), "--seed",
                      REPORT_SEED, "--out", str(out), *extra_args]
            spans_file = work / "spans.json"
            spans_file.unlink(missing_ok=True)
            argv = ([str(BENCH_DIR / "trace_report.py"), str(spans_file),
                     "--", *report] if with_trace
                    else ["-m", "versemetry", *report])
            inv = Invocation(argv, deadline)
            attempted += 1
            bad = [f"exit code {inv.code}"] if inv.code != 0 else []
            summary = summarize_outputs(out) if out.is_dir() else None
            if summary is None:
                bad.append("no output tree")
            elif reference is None:
                bad += check_outputs(summary, expected, at_default)
                reference = summary["tree"]
            elif summary["tree"] != reference:
                bad.append("output tree differs from the run's first one")
            if with_trace and not bad:
                data = json.loads(spans_file.read_text("utf-8"))
                spans, span_problems = span_metrics(data, inv.launch_ns,
                                                    inv.exit_ns)
                bad += span_problems + [f"not traced: {name}"
                                        for name in data["missing"]]
                traced.append((inv.wall_s,
                               layer_metrics(spans, data["counts"], summary)))
            elif not with_trace:
                walls.append(inv.wall_s)
                rss.append(inv.peak_rss_mb)
            if bad:
                failed += 1
                problems += [f"invocation {attempted}: {p}" for p in bad]
            shutil.rmtree(out, ignore_errors=True)
    return {"setup": setup, "walls": walls, "rss": rss, "traced": traced,
            "attempted": attempted, "failed": failed, "problems": problems,
            "elapsed": time.monotonic() - started}


def end_to_end(result: dict) -> dict:
    return {"wall_s": statistics.median(result["walls"]),
            "setup_s": statistics.median(result["setup"]),
            "peak_rss_mb": statistics.median(result["rss"])}


def per_layer(result: dict, problems: list) -> dict:
    """Median of each time over the traced invocations; counts must repeat."""
    first = result["traced"][0][1]
    metrics = {}
    for name in first:
        values = [m.get(name, 0) for _, m in result["traced"]]
        if name.endswith(("_s", ".s")):
            metrics[name] = statistics.median(values)
            continue
        if any(v != values[0] for v in values):
            problems.append(f"count {name} differs between traced runs: {values}")
        metrics[name] = values[0]
    metrics["trace.wall_s"] = statistics.median(w for w, _ in result["traced"])
    metrics["trace.untraced_wall_s"] = statistics.median(result["walls"])
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - metrics["trace.untraced_wall_s"])
    gap = abs(metrics["trace.wall_s"] - metrics["trace.self_sum_s"])
    if gap > abs(metrics["trace.overhead_s"]) + 1e-3:
        problems.append(f"self times miss traced wall time by {gap:.4f} s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "versemetry" / "__init__.py").is_file():
        print(f"error: no versemetry sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = result["problems"]
    values = {}
    if not result["walls"] or (args.trace and not result["traced"]) or \
            (not args.trace and not result["setup"]):
        problems.append("no successful measurement")
    else:
        values = per_layer(result, problems) if args.trace else end_to_end(result)
    for problem in problems:
        print(f"FAIL {problem}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    n_timed = len(result["traced"] if args.trace else result["walls"])
    samples = {"setup_s": len(result["setup"]),
               "trace.untraced_wall_s": len(result["walls"])}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        note = ("exact, repeated" if args.trace and unit not in ("s", "1/s") else
                f"median of {samples.get(name, n_timed)}")
        print(f"{name:<44} {values[name]:>14.6g} {unit:<6} ({note})")
    print("untraced invocation walls (s, in order): "
          + " ".join(f"{w:.3f}" for w in result["walls"]))
    print(f"{'error_rate':<44} {result['failed'] / result['attempted']:>14.6g}"
          f" ratio  ({result['failed']} of {result['attempted']} invocations"
          f" failed; run took {result['elapsed']:.1f} s)")
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
