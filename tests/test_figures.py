"""Deterministic SVG rendering for the four figure kinds."""

import re
import xml.etree.ElementTree as ET

import pytest

from versemetry import figures
from versemetry.errors import AnalysisError
from versemetry.figures import FigureKind, FigureSpec, render_figure
from versemetry.ngramcluster import Dendrogram
from versemetry.stats import LinearFit, ols_fit

from helpers import random_dendrogram, recursive_leaf_order


def scatter_spec():
    points = tuple((float(x), float(2 * x + 1)) for x in range(10))
    fit = ols_fit([x for x, _ in points], [y for _, y in points])
    return FigureSpec(kind=FigureKind.SCATTER_FIT,
                      series=(("fit me", points, fit),),
                      title="scatter", x_label="x", y_label="y",
                      annotations=((4.0, "mark"),))


def stacked_spec(values_a=(0.4, 0.4, 0.4), values_b=(0.6, 0.6, 0.6)):
    xs = (1.0, 2.0, 3.0)
    return FigureSpec(
        kind=FigureKind.STACKED_AREA,
        series=(("a", tuple(zip(xs, values_a))),
                ("b", tuple(zip(xs, values_b)))),
        x_label="line", y_label="proportion")


def dendrogram_spec(tree=None):
    if tree is None:
        tree = Dendrogram(merges=((0, 1, 0.4),), leaves=("s0", "s1"))
    return FigureSpec(kind=FigureKind.DENDROGRAM, series=(("tree", tree),))


def sweep_spec():
    return FigureSpec(
        kind=FigureKind.SWEEP_STRIP,
        series=(("n=2 k=100", (0, 0, 1, 1)), ("n=3 k=100", (0, None, 1, 1))))


ALL_SPECS = [scatter_spec, stacked_spec, dendrogram_spec, sweep_spec]


@pytest.mark.parametrize("make_spec", ALL_SPECS)
def test_renders_well_formed_svg(make_spec):
    doc = render_figure(make_spec())
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    assert 'version="1.1"' in doc


@pytest.mark.parametrize("make_spec", ALL_SPECS)
def test_identical_specs_render_identical_bytes(make_spec):
    assert render_figure(make_spec()) == render_figure(make_spec())


@pytest.mark.parametrize("kind", list(FigureKind))
def test_empty_series_rejected(kind):
    with pytest.raises(AnalysisError, match="nothing to plot"):
        render_figure(FigureSpec(kind=kind, series=()))


def test_scatter_draws_points_fit_line_and_annotation():
    doc = render_figure(scatter_spec())
    assert doc.count("<circle") == 10
    # one of the <line> elements is dashed: the vertical annotation marker
    assert "stroke-dasharray" in doc
    assert "mark" in doc


def test_scatter_draws_the_given_fit():
    # the points rise, but the renderer draws the fit it is handed
    points = tuple((float(x), float(2 * x + 1)) for x in range(10))
    flat = LinearFit(slope=0.0, intercept=5.0, r=0.0, n=len(points))
    doc = render_figure(FigureSpec(kind=FigureKind.SCATTER_FIT,
                                   series=(("flat", points, flat),)))
    fit_lines = re.findall(r'<line x1="([\d.]+)" y1="([\d.]+)" '
                           r'x2="([\d.]+)" y2="([\d.]+)" stroke="#1f77b4"',
                           doc)
    assert len(fit_lines) == 1
    x1, y1, x2, y2 = fit_lines[0]
    assert y1 == y2
    assert (x1, x2) == ("70.00", "780.00")


def test_stacked_constant_proportions_are_rectangles():
    doc = render_figure(stacked_spec())
    paths = re.findall(r'<path d="([^"]+)"', doc)
    assert len(paths) == 2
    for d in paths:
        ys = {pair.split(",")[1] for pair in re.findall(r"[\d.]+,[\d.]+", d)}
        # a constant band has exactly two distinct y pixel values
        assert len(ys) == 2


def test_stacked_requires_shared_x_grid():
    bad = FigureSpec(
        kind=FigureKind.STACKED_AREA,
        series=(("a", ((1.0, 0.5), (2.0, 0.5))),
                ("b", ((1.0, 0.5), (3.0, 0.5)))))
    with pytest.raises(AnalysisError, match="share x values"):
        render_figure(bad)


def test_two_leaf_dendrogram_single_bracket():
    doc = render_figure(dendrogram_spec())
    paths = re.findall(r'<path d="([^"]+)"', doc)
    assert len(paths) == 1
    # bracket: down-across-down through the merge height
    coords = re.findall(r"[\d.]+,([\d.]+)", paths[0])
    assert len(coords) == 4
    assert coords[1] == coords[2]  # horizontal run at the merge height


def test_dendrogram_sublabels_rendered():
    tree = Dendrogram(merges=((0, 1, 0.4),), leaves=("s0 [A:10]", "s1 [B:20]"))
    doc = render_figure(FigureSpec(kind=FigureKind.DENDROGRAM,
                                   series=(("tree", tree),)))
    assert "s0 [A:10]" in doc
    assert "s1 [B:20]" in doc


def _leaf_labels(doc):
    return re.findall(r'rotate\(-60[^>]*>([^<]+)</text>', doc)


def test_deep_chained_dendrogram_renders():
    # each merge joins the next leaf onto the running cluster, so the tree
    # is as deep as it has leaves
    n = 3000
    merges = [(0, 1, 0.0)] + [(i, n + i - 2, i / n) for i in range(2, n)]
    tree = Dendrogram(merges=tuple(merges),
                      leaves=tuple(f"s{i:04d}" for i in range(n)))
    labels = _leaf_labels(render_figure(dendrogram_spec(tree)))
    assert labels == [f"s{i:04d}" for i in [*range(n - 1, 1, -1), 0, 1]]


@pytest.mark.parametrize("seed", range(5))
def test_dendrogram_leaf_order_matches_recursive_walk(seed):
    tree = random_dendrogram(2 + 13 * seed, seed)
    labels = _leaf_labels(render_figure(dendrogram_spec(tree)))
    assert labels == [tree.leaves[i] for i in recursive_leaf_order(tree)]


def test_sweep_strip_grid_and_absent_cells():
    doc = render_figure(sweep_spec())
    # 1 background + 2 rows x 4 columns
    assert doc.count("<rect") == 1 + 8
    assert doc.count('fill="#cccccc"') == 1


def test_sweep_strip_marks_are_canvas_rects():
    # a short strip ends in absent cells; each mark is written byte for byte
    # as _Canvas.rect writes it, at widths whose decimals do not terminate
    rows = ((0, 1, 12), (None, 1))
    doc = render_figure(FigureSpec(kind=FigureKind.SWEEP_STRIP, series=tuple(
        (f"row {r}", values) for r, values in enumerate(rows))))
    cell_w, cell_h = figures.PLOT_W / 3, figures.PLOT_H / 2
    for r, values in enumerate(rows):
        canvas = figures._Canvas()
        for c, value in enumerate(values + (None,) * (3 - len(values))):
            canvas.rect(figures.MARGIN_L + c * cell_w,
                        figures.MARGIN_T + r * cell_h, cell_w, cell_h,
                        fill=figures.ABSENT_FILL if value is None
                        else figures.PALETTE[value % len(figures.PALETTE)],
                        stroke="#ffffff")
        assert "\n".join(canvas.parts) in doc


def test_no_timestamp_like_content():
    doc = render_figure(scatter_spec())
    assert not re.search(r"\b20\d\d-\d\d-\d\d\b", doc)
