"""Run ``versemetry report`` with spans recorded around its layers.

Usage::

    python3 perfbench/trace_report.py SPANS.json -- REPORT_ARGS...

The program is timed from outside: each function in ``SPANNED`` is replaced,
in every ``versemetry`` module namespace that holds it, by a wrapper that
records a span (name, start, end, parent) on the monotonic clock.  Callers
inside the package look these names up at call time, so the wrappers see
every call, for example ``metre.bootstrap_null_p`` as well as
``stats.bootstrap_null_p``.  ``COUNTED`` functions are called too often for
spans and only have their calls counted.  Work counts are derived from the
arguments and results of the wrapped calls by the ``HOOKS``.  Spans stay in
memory and are written to SPANS.json when the report has finished.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter

MODULES = ("corpus", "stats", "sensepause", "metre", "lexicon",
           "ngramcluster", "figures", "cli")
SPANNED = {
    "corpus": ("parse_corpus",),
    "sensepause": ("sample_ratio_comparison", "mean_syllables_per_line"),
    "metre": ("split_distribution_tests", "rolling_pattern_proportions",
              "halves_independence_test", "cumulative_incidence_r"),
    "stats": ("bootstrap_null_p",),
    "lexicon": ("build_compound_index", "hapax_cumulative_fit",
                "shared_compound_scores"),
    "ngramcluster": ("build_profiles", "cosine_distance_matrix",
                     "agglomerative_complete", "top_two_assignment",
                     "robustness_sweep"),
    "figures": ("render_figure",),
    "cli": ("cmd_report", "write_table", "write_run_manifest"),
}
COUNTED = {"sensepause": ("classify_sense_pauses",)}


class Tracer:
    """Spans as [name, start_ns, end_ns, parent] plus work counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.windows: set[tuple] = set()

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.monotonic_ns(), 0, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.monotonic_ns()
        self.stack.pop()

    def spanned(self, name, func, hook):
        signature = inspect.signature(func)

        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(index)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        return wrapper

    def counted(self, name, func):
        counts = self.counts
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)

        return wrapper


def _parse_corpus(tracer, args, corpus):
    tracer.counts["corpus.lines"] += sum(p.line_count for p in corpus.poems)


def _bootstrap(tracer, args, p_value):
    tracer.counts["stats.bootstrap.replicates"] += args["B"]


def _shared(tracer, args, scores):
    wanted = args["poems"]
    lemmas = {lemma for poem in args["corpus"].poems
              if wanted is None or poem.id in wanted
              for line in poem.lines for lemma in line.compounds}
    tracer.counts["lexicon.shared.trials"] += args["N"]
    tracer.counts["lexicon.shared.pairs"] += len(scores)
    tracer.counts["lexicon.shared.types"] += len(lemmas)


def _profiles(tracer, args, profiles):
    n, samples = args["n"], args["samples"]
    tracer.counts["ngramcluster.windows_counted"] += len(samples)
    tracer.windows.update((s.source, s.first_line, s.last_line, n)
                          for s in samples)


def _linkage(tracer, args, tree):
    key = "ngramcluster.linkage.max_leaves"
    tracer.counts[key] = max(tracer.counts[key], len(args["dist"].labels))


def _sweep(tracer, args, result):
    tracer.counts["ngramcluster.robustness_sweep.cells"] += len(result.cells)


def _render(tracer, args, svg):
    tracer.counts["figures.svg_bytes"] += len(svg.encode("utf-8"))


HOOKS = {
    "corpus.parse_corpus": _parse_corpus,
    "stats.bootstrap_null_p": _bootstrap,
    "lexicon.shared_compound_scores": _shared,
    "ngramcluster.build_profiles": _profiles,
    "ngramcluster.agglomerative_complete": _linkage,
    "ngramcluster.robustness_sweep": _sweep,
    "figures.render_figure": _render,
}


def install(tracer: Tracer) -> list:
    """Wrap every listed function wherever a versemetry module holds it."""
    modules = [importlib.import_module("versemetry")] + [
        importlib.import_module(f"versemetry.{m}") for m in MODULES]
    home = dict(zip(MODULES, modules[1:]))
    missing = []
    for table, spans in ((SPANNED, True), (COUNTED, False)):
        for module, names in table.items():
            for name in names:
                func = getattr(home[module], name, None)
                if func is None:
                    missing.append(f"{module}.{name}")
                    continue
                span = f"{module}.{name.removeprefix('cmd_')}"
                wrapper = (tracer.spanned(span, func, HOOKS.get(span)) if spans
                           else tracer.counted(span, func))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is func:
                            setattr(mod, attr, wrapper)
    return missing


def main(argv: list[str]) -> int:
    spans_path, separator, *report_args = argv
    if separator != "--":
        raise SystemExit("usage: trace_report.py SPANS.json -- REPORT_ARGS...")
    tracer = Tracer()
    index = tracer.open("python.import")
    from versemetry import cli
    missing = install(tracer)
    tracer.close(index)
    index = tracer.open("cli.dispatch")
    code = cli.dispatch(report_args)
    tracer.close(index)
    tracer.counts["ngramcluster.distinct_windows"] = len(tracer.windows)
    with open(spans_path, "w", encoding="utf-8") as f:
        json.dump({"spans": tracer.spans, "counts": dict(tracer.counts),
                   "missing": missing, "exit": code}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
