"""Record the expected outputs of every workload at the default seed.

Usage (from the repository root)::

    python3 perfbench/record_expected.py

Runs ``report`` once per workload on the default-seed corpus and writes
``expected.json``: the corpus digest, the rows of ``report/skipped`` and the
sha256 of every output file with RNG-dependent cells masked (``run.json``
is listed without a digest).  Re-record only when an output is meant to
change, and say which in the change description.
"""

from __future__ import annotations

import json
import shutil
import time

import corpora
from run import (BENCH_DIR, DEFAULT_SEED, EXPECTED, REPORT_SEED, WORKLOADS,
                 Invocation, summarize_outputs, tree_digest)


def main() -> None:
    expected = {}
    work = BENCH_DIR / ".work" / "record"
    for workload, (make_corpus, extra_args) in WORKLOADS.items():
        shutil.rmtree(work, ignore_errors=True)
        corpora.write_corpus(make_corpus(DEFAULT_SEED), work / "corpus")
        inv = Invocation(["-m", "versemetry", "report", "--corpus",
                          str(work / "corpus"), "--seed", REPORT_SEED,
                          "--out", str(work / "out"), *extra_args],
                         time.monotonic() + 600)
        if inv.code != 0:
            raise SystemExit(f"{workload}: report exited {inv.code}")
        summary = summarize_outputs(work / "out")
        if summary["problems"]:
            raise SystemExit(f"{workload}: {summary['problems']}")
        expected[workload] = {
            "corpus_sha256": tree_digest(work / "corpus"),
            "skipped": summary["skipped"],
            "files": summary["files"],
        }
        print(f"{workload}: {len(summary['files'])} files, "
              f"{inv.wall_s:.1f} s")
    shutil.rmtree(work, ignore_errors=True)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    main()
