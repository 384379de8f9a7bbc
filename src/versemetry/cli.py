"""Command-line surface: conversion, analyses, figures, reproducible runs.

Every analysis command returns its outputs, and ``dispatch`` writes them
under ``--out`` (default ``out/``) in a ``<command>/`` directory
(``out/metre/`` for every ``metre`` subcommand; ``report`` writes to
``--out`` itself) together with a ``run.json`` manifest.  A command that
fails writes no files.  The manifest records exactly the parsed options of
the command, apart from ``--corpus``, ``--out`` and ``--seed``; the seed
separately; and SHA-256 hashes of every corpus file the run parsed, so a
run can be reproduced exactly.  The output directory itself is not part of
the manifest: trees produced by identical runs into different directories
are byte-identical.

Exit codes: 0 success, 1 analysis/corpus error or unwritable output (message
on stderr), 2 usage.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import (
    Corpus,
    CorpusError,
    Poem,
    build_poem,
    filtered_line_numbers,
    parse_corpus,
    read_json,
    read_text,
    rolling_windows,
    write_corpus,
)
from .errors import AnalysisError, InputError, VersemetryError
from .figures import FigureKind, FigureSpec, render_figure
from .lexicon import (
    SegmentMode,
    build_compound_index,
    hapax_cumulative_fit,
    segment_fits,
    shared_compound_scores,
)
from .metre import (
    DEFAULT_SPLIT_LINE,
    FULL_LABELS,
    Granularity,
    HALF_LABELS,
    check_split_line,
    cumulative_incidence_r,
    halves_independence_test,
    pattern_counts,
    rolling_pattern_proportions,
    split_distribution_tests,
)
from .ngramcluster import (
    agglomerative_complete,
    build_profiles,
    clustering_quality,
    cosine_distance_matrix,
    majority_part,
    robustness_sweep,
    top_two_assignment,
    window_id,
)
from .sensepause import (
    mean_syllables_per_line,
    sample_ratio_comparison,
    window_ratio_reports,
)
from .stats import RngStream, TestResult

__all__ = ["dispatch", "main"]

TEST_COLUMNS = ("test", "method", "statistic", "df", "p_value", "n_obs",
                "min_expected", "dropped_categories", "merged_categories")
FIT_COLUMNS = ("unit", "first_line", "last_line", "slope_per100", "intercept",
               "r", "n_hapax")
PAIR_COLUMNS = ("poem_a", "poem_b", "observed", "null_mean", "null_sd", "z",
                "tail")
RATIO_COLUMNS = ("unit", "intraline", "final", "ratio")
SYLLABLE_COLUMNS = ("poem", "part", "mean_syllables")
SPLIT_COLUMNS = ("poem", "split_line") + TEST_COLUMNS
PAIRING_COLUMNS = ("poem", "section", "paired", "skipped_missing_a",
                   "skipped_missing_b", "misalignment_warnings")
INDEPENDENCE_COLUMNS = ("poem",) + TEST_COLUMNS
INCIDENCE_FIT_COLUMNS = ("poem", "pattern", "granularity", "slope",
                         "intercept", "r", "n")
# parsed options that are not run parameters: dispatch keys, locations (the
# corpus is recorded by the hashes of its files) and the seed
NOT_PARAMETERS = frozenset(
    {"func", "command", "subcommand", "out", "corpus", "seed"})


# ---------------------------------------------------------------- output ----

def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_text(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


def _write_json(path: Path, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True,
                                 ensure_ascii=False) + "\n")


def write_table(directory: Path, name: str, columns: Sequence[str],
                rows: Iterable[Sequence[object]], fmt: str) -> None:
    """Write ``rows``, each a tuple of values in ``columns`` order."""
    path = directory / f"{name}.{fmt}"
    if fmt == "json":
        _write_json(path, [dict(zip(columns, row)) for row in rows])
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(map(_cell, row) for row in rows)


def test_result_row(label: str, result: TestResult, *keys) -> tuple:
    """One row of ``keys`` naming what was tested, then TEST_COLUMNS."""
    return (*keys, label, result.method.value, result.statistic, result.df,
            result.p_value, result.n_obs, result.min_expected,
            result.dropped_categories, result.merged_categories)


def write_run_manifest(directory: Path, command: str, corpus: Corpus,
                       parameters: dict[str, object], seed: int) -> None:
    _write_json(directory / "run.json", {
        "command": command, "parameters": parameters, "seed": seed,
        "inputs": dict(corpus.inputs)})


def _rendered(outputs: Mapping[str, object]) -> dict[str, object]:
    """``outputs`` with every figure rendered to its SVG text."""
    return {name: render_figure(value) if isinstance(value, FigureSpec)
            else value for name, value in outputs.items()}


def write_outputs(directory: Path, outputs: Mapping[str, object],
                  fmt: str) -> None:
    """Write a command's outputs, keyed by file name, under ``directory``.

    A ``(columns, rows)`` value is a table whose suffix ``fmt`` picks; a
    ``FigureSpec`` or its SVG text is a figure; any other value is a JSON
    payload.  Every figure is rendered before the first file is written, so
    a figure that cannot be drawn leaves no file behind.  A JSON table whose
    name a JSON payload already has is written as ``<name>-table.json``.
    """
    for name, value in _rendered(outputs).items():
        if isinstance(value, str):
            _write_text(directory / name, value)
        elif isinstance(value, tuple):
            taken = fmt == "json" and f"{name}.json" in outputs
            write_table(directory, f"{name}-table" if taken else name,
                        *value, fmt)
        else:
            _write_json(directory / name, value)


# ------------------------------------------------------------ converters ----

def _convert_text(raw: str) -> str:
    # a line with no TAB splits at its first " / "; ``build_poem`` reads a
    # line with neither as an a-verse and an empty b-verse
    return "".join((line if "\t" in line else line.replace(" / ", "\t", 1))
                   + "\n" for line in raw.splitlines())


def _strip_header(rows: list[str], first_field: str) -> list[str]:
    if rows and rows[0].split("\t")[:1] == [first_field]:
        return rows[1:]
    return rows


def _compound_rows(rows: list[str]) -> list[str]:
    """Normalize compound rows to one lemma per row.

    Source rows may carry several lemmas after the line number; the canonical
    shape repeats the line number instead.  Rows without a recognizable lemma
    pass through unchanged: ``build_poem`` skips a blank one and rejects any
    other with a precise message.
    """
    out = []
    for raw in rows:
        fields = raw.split("\t")
        lemmas = [f for f in fields[1:] if f]
        if not lemmas:
            out.append(raw)
            continue
        out.extend(f"{fields[0]}\t{lemma}" for lemma in lemmas)
    return out


def _sidecar(path: Path, normalize=list) -> str | None:
    """A source annotation file's rows, header dropped and passed through
    ``normalize``, or ``None`` when the file is absent."""
    if not path.is_file():
        return None
    return "\n".join(normalize(
        _strip_header(read_text(path).splitlines(), "line")))


def cmd_convert(args: argparse.Namespace) -> int:
    """Convert an external dataset directory into the canonical format.

    Assumed source layout: one ``<poem>.txt`` per poem (half-lines separated
    by a TAB or by " / "), optional ``<poem>.scansion.tsv`` (line, a, b;
    header row optional), optional ``<poem>.compounds.tsv`` (line followed by
    one or more lemmas; normalized to one lemma per row), and an optional
    ``parts.json`` mapping poem id to part ranges.  Everything else about the
    source tree is ignored.  Every poem is validated before the first file
    is written, so a failed conversion writes nothing.
    """
    source = Path(args.dataset)
    if not source.is_dir():
        raise CorpusError(f"missing file: {source}")
    parts_path = source / "parts.json"
    parts_map = read_json(parts_path) if parts_path.is_file() else {}
    if not isinstance(parts_map, dict):
        raise CorpusError(
            f"{parts_path}: expected an object mapping poem ids to parts")
    text_files = sorted(source.glob("*.txt"))
    if not text_files:
        raise CorpusError(f"no poem text files found under {source}")
    poems = tuple(build_poem(
        path.stem, _convert_text(read_text(path)),
        _sidecar(source / f"{path.stem}.scansion.tsv"),
        _sidecar(source / f"{path.stem}.compounds.tsv", _compound_rows),
        parts_map.get(path.stem)) for path in text_files)
    out = Path(args.out)
    write_corpus(Corpus(poems=poems), out)
    print(f"converted {len(poems)} poems into {out}")
    return 0


# -------------------------------------------------------------- analyses ----
#
# Each analysis command runs as ``cmd_*(args, corpus) -> outputs``, keyed by
# file name (a table's name has no suffix: ``--format`` picks it).
# ``dispatch`` loads the corpus, writes the outputs through ``write_outputs``
# under the command's directory, then ``run.json``.  The row and output
# builders below serve both the subcommands and ``report``.

def _poem_ids(text: str | None) -> list[str] | None:
    if not text:
        return None
    ids = text.split(",")
    repeated = [pid for i, pid in enumerate(ids) if pid in ids[:i]]
    if repeated:
        raise InputError(f"--poems names poem {repeated[0]!r} more than once")
    return ids


def _ratio_rows(reports) -> list[tuple]:
    return [(r.unit_id, r.intraline_count, r.final_count, r.ratio)
            for r in reports]


def _syllable_row(poem: Poem, part: str | None) -> tuple:
    lines = (list(poem.lines) if part is None
             else [poem.line(i) for i in filtered_line_numbers(poem, part)])
    return poem.id, part or "", mean_syllables_per_line(lines)


def cmd_sensepause(args: argparse.Namespace, corpus: Corpus) -> dict:
    sides = ((corpus.poem(args.poem_a), args.part_a),
             (corpus.poem(args.poem_b), args.part_b))
    reports_a, reports_b = (
        window_ratio_reports(poem, args.sample_len, part=part,
                             strict_compat=args.strict_compat,
                             ascii_quotes=args.ascii_quotes,
                             count_hyphen=args.count_hyphen)
        for poem, part in sides)
    result = sample_ratio_comparison(reports_a, reports_b)
    return {
        "ratios": (RATIO_COLUMNS,
                   _ratio_rows(reports_a) + _ratio_rows(reports_b)),
        "ttest": (TEST_COLUMNS,
                  [test_result_row("intraline_ratio_t", result)]),
        "syllables": (SYLLABLE_COLUMNS,
                      [_syllable_row(poem, part) for poem, part in sides]),
    }


def _check_window_fits(poem: Poem, width: int) -> None:
    if poem.line_count < width:
        raise AnalysisError(f"poem {poem.id} has {poem.line_count} lines, "
                            f"fewer than the window width {width}")


def _rolling_outputs(poem: Poem, rolling, granularity: str,
                     split_line: int | None) -> dict:
    """Rolling pattern proportions as a table and a stacked-area figure."""
    _check_window_fits(poem, rolling.width)
    return {
        f"proportions-{poem.id}": (
            ("start",) + tuple(rolling.series),
            list(zip(rolling.starts, *rolling.series.values()))),
        f"rolling-{poem.id}.svg": FigureSpec(
            kind=FigureKind.STACKED_AREA,
            series=tuple((label, tuple(zip(rolling.starts, values)))
                         for label, values in rolling.series.items()),
            title=f"{poem.id}: rolling {granularity}-line proportions",
            x_label="window start line", y_label="proportion",
            annotations=() if split_line is None
            else ((float(split_line), f"line {split_line}"),)),
    }


def cmd_metre_rolling(args: argparse.Namespace, corpus: Corpus) -> dict:
    poem = corpus.poem(args.poem)
    if args.split_line is not None:
        check_split_line(poem, args.split_line)
    rolling = rolling_pattern_proportions(
        poem, Granularity(args.granularity), args.width, args.step)
    return _rolling_outputs(poem, rolling, args.granularity,
                            args.split_line)


def _split_outputs(table, poem_id: str, suffix: str = "") -> dict:
    """Split-test and pairing tables, named ``split-tests<suffix>`` and
    ``pairing<suffix>``."""
    tests = (("half_homogeneity", table.half_homogeneity),
             ("half_gof", table.half_gof),
             ("full_homogeneity", table.full_homogeneity),
             ("full_gof", table.full_gof),
             ("full_homogeneity_bootstrap", table.full_homogeneity_boot),
             ("full_gof_bootstrap", table.full_gof_boot))
    logs = (("before", table.log_before), ("after", table.log_after))
    return {
        f"split-tests{suffix}": (SPLIT_COLUMNS, [
            test_result_row(label, result, poem_id, table.split_line)
            for label, result in tests]),
        f"pairing{suffix}": (PAIRING_COLUMNS, [
            (poem_id, section, log.paired, log.skipped_missing_a,
             log.skipped_missing_b, log.misalignment_warnings)
            for section, log in logs]),
    }


def cmd_metre_split_tests(args: argparse.Namespace, corpus: Corpus) -> dict:
    poem = corpus.poem(args.poem)
    table = split_distribution_tests(
        poem, args.split_line, B=args.bootstrap, rng=RngStream(args.seed))
    return _split_outputs(table, poem.id, f"-{poem.id}")


def cmd_metre_independence(args: argparse.Namespace, corpus: Corpus) -> dict:
    poem = corpus.poem(args.poem)
    result = halves_independence_test(poem, args.first, args.last)
    return {f"independence-{poem.id}": (INDEPENDENCE_COLUMNS, [
        test_result_row("halves_independence", result, poem.id)])}


def _incidence_fit_row(poem_id: str, pattern: str, granularity: str,
                       fit) -> tuple:
    return (poem_id, pattern, granularity, fit.slope, fit.intercept, fit.r,
            fit.n)


def cmd_metre_incidence(args: argparse.Namespace, corpus: Corpus) -> dict:
    poem = corpus.poem(args.poem)
    granularity = Granularity(args.granularity)
    points, fit = cumulative_incidence_r(poem, args.pattern, granularity)
    name = f"{poem.id}-{args.pattern}"
    return {
        f"incidence-{name}": (("unit", "occurrence"), points),
        f"incidence-fit-{name}": (INCIDENCE_FIT_COLUMNS, [_incidence_fit_row(
            poem.id, args.pattern, args.granularity, fit)]),
        f"incidence-{name}.svg": FigureSpec(
            kind=FigureKind.SCATTER_FIT,
            series=((args.pattern, points, fit),),
            title=f"{poem.id}: cumulative incidence of {args.pattern}",
            x_label="unit index", y_label="occurrence number"),
    }


def _fit_row(unit: str, series, fit) -> tuple:
    """The FIT_COLUMNS row of a hapax (series, fit) pair: its least and
    greatest line (partition units may come in any order) and the count at
    its last point."""
    return (unit, min(series)[0], max(series)[0], fit.slope * 100.0,
            fit.intercept, fit.r, series[-1][1])


def _hapax_series_outputs(poem_id: str, series, fit) -> dict:
    """Cumulative hapax counts, one (line, count) row per line, as a table
    and a scatter figure with their fit."""
    return {
        f"series-{poem_id}": (("line", "cumulative"), series),
        f"hapax-{poem_id}.svg": FigureSpec(
            kind=FigureKind.SCATTER_FIT,
            series=((poem_id, series, fit),),
            title=f"{poem_id}: cumulative hapax compounds",
            x_label="line", y_label="cumulative hapax count"),
    }


def cmd_hapax_fit(args: argparse.Namespace, corpus: Corpus) -> dict:
    poem = corpus.poem(args.poem)
    index = build_compound_index(corpus)
    series, fit = hapax_cumulative_fit(poem, index.hapax_set, args.first,
                                       args.last)
    return {**_hapax_series_outputs(poem.id, series, fit),
            f"fit-{poem.id}": (FIT_COLUMNS, [_fit_row(poem.id, series, fit)])}


def _parse_unit(corpus: Corpus, spec: str) -> tuple[Poem, int | None, int | None]:
    poem_id, _, span = spec.partition(":")
    poem = corpus.poem(poem_id)
    if not span:
        return poem, None, None
    first_text, sep, last_text = span.partition("-")
    if not sep:
        raise AnalysisError(f"bad unit spec {spec!r}: expected POEM[:FIRST-LAST]")
    try:
        return poem, int(first_text), int(last_text)
    except ValueError:
        raise AnalysisError(f"bad unit spec {spec!r}: expected POEM[:FIRST-LAST]")


def cmd_hapax_segments(args: argparse.Namespace, corpus: Corpus) -> dict:
    index = build_compound_index(corpus)
    units = [_parse_unit(corpus, spec) for spec in args.units]
    unit_fits, combined = segment_fits(units, SegmentMode(args.mode),
                                       index.hapax_set)
    rows = [_fit_row(f"{poem.id}:{series[0][0]}-{series[-1][0]}", series, fit)
            for (poem, _, _), (series, fit) in zip(units, unit_fits)]
    rows.append(_fit_row("combined", *combined))
    return {f"segments-{args.mode}": (FIT_COLUMNS, rows)}


def _pair_rows(scores) -> list[tuple]:
    return [(s.poem_a, s.poem_b, s.observed_shared, s.null_mean, s.null_sd,
             s.z, s.empirical_tail) for s in scores]


def cmd_shared(args: argparse.Namespace, corpus: Corpus) -> dict:
    scores = shared_compound_scores(
        corpus, poems=_poem_ids(args.poems), N=args.trials,
        rng=RngStream(args.seed))
    return {"pairs": (PAIR_COLUMNS, _pair_rows(scores))}


def _cluster_windows(corpus: Corpus, poems: Sequence[str] | None,
                     width: int, step: int):
    ids = poems if poems else [p.id for p in corpus.poems]
    windows = [window for pid in ids
               for window in rolling_windows(corpus.poem(pid), width, step)]
    if len(windows) < 2:
        raise AnalysisError(
            f"need at least two {width}-line windows across poems {list(ids)}")
    return windows


def _dendrogram(corpus: Corpus, poems: Sequence[str] | None, width: int,
                step: int, n: int, k: int):
    """Windows, their cosine distances and the complete-linkage tree."""
    windows = _cluster_windows(corpus, poems, width, step)
    dist = cosine_distance_matrix(build_profiles(corpus, windows, n, k))
    return windows, dist, agglomerative_complete(dist)


def _dendrogram_outputs(windows, tree) -> dict:
    """The linkage tree as JSON and as a figure whose leaves also name their
    windows' composition."""
    parts = ("+".join(f"{name}:{count}" for name, count in w.composition.items())
             for w in windows)
    labelled = replace(tree, leaves=tuple(
        f"{leaf} [{part}]" for leaf, part in zip(tree.leaves, parts)))
    return {
        "dendrogram.json": {"leaves": list(tree.leaves),
                            "merges": [[a, b, h] for a, b, h in tree.merges]},
        "dendrogram.svg": FigureSpec(
            kind=FigureKind.DENDROGRAM,
            series=(("tree", labelled),),
            title="complete-linkage dendrogram (cosine distance)",
            y_label="cosine distance"),
    }


def _matrix_table(labels, columns, matrix) -> tuple:
    """One labelled row per matrix row, made Python floats (a numpy scalar
    would write as ``np.float64(...)``) one row at a time, as it is written."""
    return (("sample", *columns),
            ((label, *row.tolist()) for label, row in zip(labels, matrix)))


def cmd_cluster_profiles(args: argparse.Namespace, corpus: Corpus) -> dict:
    windows = _cluster_windows(corpus, _poem_ids(args.poems), args.width,
                               args.step)
    profiles = build_profiles(corpus, windows, args.n, args.k)
    return {"features": _matrix_table(map(window_id, windows),
                                      profiles.features, profiles.values)}


def cmd_cluster_dendrogram(args: argparse.Namespace, corpus: Corpus) -> dict:
    windows, dist, tree = _dendrogram(corpus, _poem_ids(args.poems),
                                      args.width, args.step, args.n, args.k)
    return {"distances": _matrix_table(dist.labels, dist.labels, dist.values),
            **_dendrogram_outputs(windows, tree)}


def _int_list(text: str) -> list[int]:
    try:
        if ":" in text:
            first, last, step = (int(v) for v in text.split(":"))
            values = list(range(first, last + 1, step))
        else:
            values = [int(v) for v in text.split(",")]
    except ValueError:
        raise InputError(f"bad integer list {text!r}: expected "
                         "FIRST:LAST:STEP with STEP != 0, or A,B,...")
    if not values:
        raise InputError(f"integer list {text!r} names no values")
    return values


def _sweep_outputs(poem: Poem, result, width: int) -> dict:
    """Per-window assignments, a summary and a strip figure of the sweep."""
    _check_window_fits(poem, width)
    rows = [(cell.n, cell.k, sample, label)
            for cell in result.cells if cell.labels is not None
            for sample, label in zip(result.window_ids, cell.labels)]
    strips = tuple((f"n={cell.n} k={cell.k}",
                    cell.labels or (None,) * len(result.window_ids))
                   for cell in result.cells)
    return {
        "sweep": (("n", "k", "sample", "cluster"), rows),
        "sweep.json": {
            "poem": result.poem, "stability": result.stability,
            "window_ids": list(result.window_ids),
            "cells": [{"n": c.n, "k": c.k,
                       "populated": c.labels is not None}
                      for c in result.cells]},
        "sweep.svg": FigureSpec(
            kind=FigureKind.SWEEP_STRIP, series=strips,
            title=f"{result.poem}: top-two cluster sweep",
            x_label="window (in line order)"),
    }


def cmd_cluster_sweep(args: argparse.Namespace, corpus: Corpus) -> dict:
    result = robustness_sweep(
        corpus, args.poem, n_values=_int_list(args.n_values),
        k_values=_int_list(args.k_values), width=args.width, step=args.step)
    return _sweep_outputs(corpus.poem(args.poem), result, args.width)


# ---------------------------------------------------------------- report ----

def _summary_row(poem: Poem) -> tuple:
    return (poem.id, poem.line_count, "+".join(p.name for p in poem.parts),
            int((poem.scansion_codes >= 0).any(axis=1).sum()),
            len(poem.compound_tokens.lemmas))


def cmd_report(args: argparse.Namespace, corpus: Corpus) -> dict:
    """Every analysis over the whole corpus, run as one list of steps.

    A step is ``(analysis, unit, thunk)``; the thunk returns the step's
    outputs, which go under the analysis's first word (``metre/``,
    ``hapax/``, ...).  Tables of the same name collect rows across steps in
    step order.  A step that raises ``AnalysisError``, in its figures too,
    becomes a row of ``report/skipped`` and writes none of its files.
    """
    index = build_compound_index(corpus)
    # corpus-wide tables: no analysis behind them can be skipped
    outputs: dict[str, object] = {
        "corpus/summary": (("poem", "lines", "parts", "scanned_lines",
                            "compound_tokens"),
                           [_summary_row(poem) for poem in corpus.poems]),
        "sensepause/syllables": (SYLLABLE_COLUMNS, [
            _syllable_row(poem, None) for poem in corpus.poems]),
        "hapax/ttr": (("poem", "tokens", "types", "ttr"), [
            (pid, tokens, index.types[pid],
             index.types[pid] / tokens if tokens else None)
            for pid, tokens in index.totals.items()]),
    }
    # sense pauses: 100-line samples classified once per poem; a poem's ratio
    # rows follow its first pair whose t-test succeeded
    reports = {poem.id: window_ratio_reports(poem, 100)
               for poem in corpus.poems}
    tested: set[str] = set()
    compound_poems = [pid for pid, tokens in index.totals.items() if tokens]
    sweep_target = max(corpus.poems, key=lambda p: (p.line_count, p.id))

    def ttest(poem_a: str, poem_b: str):
        result = sample_ratio_comparison(reports[poem_a], reports[poem_b])
        new = [pid for pid in (poem_a, poem_b) if pid not in tested]
        tested.update(new)
        rows = [row for pid in new for row in _ratio_rows(reports[pid])]
        return {"ratios": (RATIO_COLUMNS, rows),
                "ttests": (("poem_a", "poem_b") + TEST_COLUMNS, [
                    test_result_row("intraline_ratio_t", result,
                                    poem_a, poem_b)])}

    def split_tests(poem: Poem):
        return _split_outputs(split_distribution_tests(
            poem, args.split_line, B=args.bootstrap, rng=RngStream(args.seed)),
            poem.id)

    def rolling(poem: Poem):
        marker = (args.split_line if 1 <= args.split_line < poem.line_count
                  else None)
        return _rolling_outputs(poem, rolling_pattern_proportions(
            poem, Granularity.HALF_LINE, 200, 100), "half", marker)

    def independence(poem: Poem):
        result = halves_independence_test(poem, None, None)
        return {"independence": (INDEPENDENCE_COLUMNS, [
            test_result_row("halves_independence", result, poem.id)])}

    def incidence(poem: Poem):
        counts = pattern_counts(poem, Granularity.FULL_LINE)
        count, pattern = max(zip(counts.counts, counts.labels))
        if count < 2:
            return {}
        _, fit = cumulative_incidence_r(poem, pattern, Granularity.FULL_LINE)
        return {"incidence": (INCIDENCE_FIT_COLUMNS, [
            _incidence_fit_row(poem.id, pattern, "full", fit)])}

    def hapax_fit(poem: Poem):
        series, fit = hapax_cumulative_fit(poem, index.hapax_set)
        return {"fits": (FIT_COLUMNS, [_fit_row(poem.id, series, fit)]),
                **_hapax_series_outputs(poem.id, series, fit)}

    def shared():
        if len(compound_poems) < 2:
            raise AnalysisError(
                "fewer than two poems with compound annotations")
        return {"pairs": (PAIR_COLUMNS, _pair_rows(shared_compound_scores(
            corpus, poems=compound_poems, N=args.trials,
            rng=RngStream(args.seed))))}

    def dendrogram():
        windows, _, tree = _dendrogram(corpus, None, 300, 100, 3, 500)
        truth = {window_id(w): majority_part(w) for w in windows}
        purity, ari = clustering_quality(top_two_assignment(tree), truth)
        return {**_dendrogram_outputs(windows, tree),
                "quality.json": {"purity": purity, "adjusted_rand": ari}}

    def sweep():
        # trimmed grid keeps the battery fast; the sweep subcommand runs the
        # full one
        return _sweep_outputs(sweep_target, robustness_sweep(
            corpus, sweep_target.id, n_values=[2, 3],
            k_values=[100, 200, 300, 400, 500], width=300, step=100), 300)

    metre = {"split-tests": split_tests, "rolling": rolling,
             "independence": independence, "incidence-r": incidence}
    steps = [("sensepause", f"{a.id}/{b.id}", partial(ttest, a.id, b.id))
             for i, a in enumerate(corpus.poems) for b in corpus.poems[i + 1:]]
    steps += [(f"metre {name}", poem.id, partial(thunk, poem))
              for poem in corpus.poems if (poem.scansion_codes >= 0).any()
              for name, thunk in metre.items()]
    steps += [("hapax fit", poem.id, partial(hapax_fit, poem))
              for poem in corpus.poems]
    steps += [("shared", ",".join(compound_poems) or "(none)", shared),
              ("cluster dendrogram", "(corpus)", dendrogram),
              ("cluster sweep", sweep_target.id, sweep)]

    skipped: list[tuple] = []
    for analysis, unit, thunk in steps:
        try:
            step = _rendered(thunk())
        except AnalysisError as exc:
            skipped.append((analysis, unit, str(exc)))
            continue
        for name, value in step.items():
            key = f"{analysis.split()[0]}/{name}"
            if isinstance(value, tuple) and key in outputs:
                outputs[key][1].extend(value[1])
            else:
                outputs[key] = value
    outputs["report/skipped"] = (("analysis", "unit", "reason"), skipped)
    return outputs


# ---------------------------------------------------------------- parser ----

def build_parser() -> argparse.ArgumentParser:
    # the options of every analysis subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="root RNG seed (default 0)")
    common.add_argument("--out", default="out",
                        help="output directory (default out/)")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="table format (default csv)")
    common.add_argument("--corpus", required=True,
                        help="canonical corpus directory")
    parser = argparse.ArgumentParser(
        prog="versemetry",
        description="Stylometric analyses over annotated verse corpora.")
    sub = parser.add_subparsers(dest="command", required=True)

    convert = sub.add_parser("convert", help="convert an external dataset")
    convert.add_argument("dataset", help="dataset root directory")
    convert.add_argument("--out", default="out",
                         help="output directory (default out/)")
    convert.set_defaults(func=cmd_convert)

    sense = sub.add_parser("sensepause", parents=[common],
                           help="sense-pause ratios and t-test")
    sense.add_argument("--poem-a", required=True)
    sense.add_argument("--poem-b", required=True)
    sense.add_argument("--part-a", default=None)
    sense.add_argument("--part-b", default=None)
    sense.add_argument("--sample-len", type=int, default=100)
    sense.add_argument("--strict-compat", action="store_true",
                       help="reproduce the uncorrected legacy classification")
    sense.add_argument("--ascii-quotes", action="store_true")
    sense.add_argument("--no-count-hyphen", dest="count_hyphen",
                       action="store_false")
    sense.set_defaults(func=cmd_sensepause)

    metre = sub.add_parser("metre", help="metrical pattern analyses")
    metre_sub = metre.add_subparsers(dest="subcommand", required=True)

    rolling = metre_sub.add_parser("rolling", parents=[common])
    rolling.add_argument("--poem", required=True)
    rolling.add_argument("--granularity", choices=("half", "full"),
                         default="half")
    rolling.add_argument("--width", type=int, default=200)
    rolling.add_argument("--step", type=int, default=1)
    rolling.add_argument("--split-line", type=int, default=None,
                         help="draw a vertical marker at this line")
    rolling.set_defaults(func=cmd_metre_rolling)

    split = metre_sub.add_parser("split-tests", parents=[common])
    split.add_argument("--poem", required=True)
    split.add_argument("--split-line", type=int, default=DEFAULT_SPLIT_LINE)
    split.add_argument("--bootstrap", type=int, default=20000,
                       help="bootstrap replicates (default 20000)")
    split.set_defaults(func=cmd_metre_split_tests)

    indep = metre_sub.add_parser("independence", parents=[common])
    indep.add_argument("--poem", required=True)
    indep.add_argument("--first", type=int, default=None)
    indep.add_argument("--last", type=int, default=None)
    indep.set_defaults(func=cmd_metre_independence)

    incidence = metre_sub.add_parser("incidence-r", parents=[common])
    incidence.add_argument("--poem", required=True)
    incidence.add_argument("--pattern", required=True,
                           help=f"one of {'/'.join(HALF_LABELS)} or "
                                f"{FULL_LABELS[0]}-style full-line labels")
    incidence.add_argument("--granularity", choices=("half", "full"),
                           default="half")
    incidence.set_defaults(func=cmd_metre_incidence)

    hapax = sub.add_parser("hapax", help="hapax compound regressions")
    hapax_sub = hapax.add_subparsers(dest="subcommand", required=True)

    fit = hapax_sub.add_parser("fit", parents=[common])
    fit.add_argument("--poem", required=True)
    fit.add_argument("--first", type=int, default=None)
    fit.add_argument("--last", type=int, default=None)
    fit.set_defaults(func=cmd_hapax_fit)

    segments = hapax_sub.add_parser("segments", parents=[common])
    segments.add_argument("--mode", choices=("partition", "merge"),
                          required=True)
    segments.add_argument("--unit", dest="units", action="append",
                          required=True,
                          help="POEM[:FIRST-LAST]; repeat for each unit")
    segments.set_defaults(func=cmd_hapax_segments)

    shared = sub.add_parser("shared", parents=[common],
                            help="shared-compound null-model scores")
    shared.add_argument("--poems", default=None,
                        help="comma-separated poem ids (default: all)")
    shared.add_argument("--trials", type=int, default=1000)
    shared.set_defaults(func=cmd_shared)

    cluster = sub.add_parser("cluster", help="character n-gram clustering")
    cluster_sub = cluster.add_subparsers(dest="subcommand", required=True)

    def add_cluster_params(p, with_poems=True):
        if with_poems:
            p.add_argument("--poems", default=None,
                           help="comma-separated poem ids (default: all)")
        p.add_argument("--width", type=int, default=300)
        p.add_argument("--step", type=int, default=100)

    for name, func in (("profiles", cmd_cluster_profiles),
                       ("dendrogram", cmd_cluster_dendrogram)):
        profiles = cluster_sub.add_parser(name, parents=[common])
        add_cluster_params(profiles)
        profiles.add_argument("--n", type=int, default=3)
        profiles.add_argument("--k", type=int, default=500)
        profiles.set_defaults(func=func)

    sweep = cluster_sub.add_parser("sweep", parents=[common])
    sweep.add_argument("--poem", required=True)
    add_cluster_params(sweep, with_poems=False)
    sweep.add_argument("--n-values", default="2,3,4,5",
                       help="comma list or FIRST:LAST:STEP")
    sweep.add_argument("--k-values", default="100:1000:50",
                       help="comma list or FIRST:LAST:STEP")
    sweep.set_defaults(func=cmd_cluster_sweep)

    report = sub.add_parser("report", parents=[common],
                            help="run the full battery")
    report.add_argument("--split-line", type=int, default=DEFAULT_SPLIT_LINE)
    report.add_argument("--bootstrap", type=int, default=20000)
    report.add_argument("--trials", type=int, default=1000)
    report.set_defaults(func=cmd_report)

    return parser


def dispatch(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if "corpus" not in args:
            return args.func(args)
        corpus, out = parse_corpus(args.corpus), Path(args.out)
        if args.command != "report":
            out /= args.command
        write_outputs(out, args.func(args, corpus), args.format)
        options = vars(args)
        command = " ".join(options[key] for key in ("command", "subcommand")
                           if key in options)
        write_run_manifest(out, command, corpus, {
            key: value for key, value in options.items()
            if key not in NOT_PARAMETERS}, args.seed)
        return 0
    except (VersemetryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
