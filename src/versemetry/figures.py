"""Deterministic SVG rendering for the four publication figure kinds.

Rendering is a pure function of the FigureSpec: fixed canvas, named font
families, no timestamps or environment-dependent content, so identical specs
produce byte-identical documents.  Numbers are written with fixed two-decimal
precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .errors import AnalysisError
from .ngramcluster import Dendrogram, leaf_members

__all__ = ["FigureKind", "FigureSpec", "render_figure"]

WIDTH, HEIGHT = 800.0, 500.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70.0, 20.0, 40.0, 60.0
PLOT_W = WIDTH - MARGIN_L - MARGIN_R
PLOT_H = HEIGHT - MARGIN_T - MARGIN_B

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)
ABSENT_FILL = "#cccccc"


class FigureKind(Enum):
    SCATTER_FIT = "scatter_fit"
    STACKED_AREA = "stacked_area"
    DENDROGRAM = "dendrogram"
    SWEEP_STRIP = "sweep_strip"


@dataclass(frozen=True)
class FigureSpec:
    """A figure's kind and its series, whose entries each kind reads so:

    ``SCATTER_FIT``: ``(label, points, fit)``; the analysis's fit of the
    (x, y) points, anything with a ``slope`` and an ``intercept``, is drawn
    across their x range.  ``STACKED_AREA``: ``(label, points)``, all over
    the same x values.  ``DENDROGRAM``: ``("tree", Dendrogram)``, each leaf drawn
    under its label in ``Dendrogram.leaves``.
    ``SWEEP_STRIP``: ``(row label, values)``, a value a cluster index or
    ``None`` for an absent cell.
    """

    kind: FigureKind
    series: tuple[tuple, ...]
    title: str = ""
    x_label: str = ""
    y_label: str = ""
    annotations: tuple[tuple[float, str], ...] = field(default=())


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
                .replace(">", "&gt;").replace('"', "&quot;"))


class _Canvas:
    def __init__(self):
        self.parts: list[str] = []

    def add(self, element: str) -> None:
        self.parts.append(element)

    def text(self, x: float, y: float, content: str, size: float = 12,
             anchor: str = "start", extra: str = "") -> None:
        self.add(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
            f'font-size="{_fmt(size)}" text-anchor="{anchor}"{extra}>'
            f"{_esc(content)}</text>")

    def line(self, x1, y1, x2, y2, stroke="#000000", width=1.0,
             dash: str = "") -> None:
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.add(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}"{dash_attr}/>')

    def rect(self, x, y, w, h, fill, stroke="none") -> None:
        self.add(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" fill="{fill}" stroke="{stroke}"/>')

    def path(self, d: str, fill="none", stroke="#000000", width=1.0) -> None:
        self.add(
            f'<path d="{d}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}"/>')

    def document(self) -> str:
        body = "\n".join(self.parts)
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" '
            f'viewBox="0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}">\n'
            f'<rect x="0" y="0" width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" '
            f'fill="#ffffff"/>\n'
            f"{body}\n"
            "</svg>\n")


class _Scale:
    def __init__(self, lo: float, hi: float, pix_lo: float, pix_hi: float):
        if hi == lo:
            lo, hi = lo - 1.0, hi + 1.0
        self.lo, self.span = lo, hi - lo
        self.pix_lo, self.pix_span = pix_lo, pix_hi - pix_lo

    def __call__(self, value: float) -> float:
        return self.pix_lo + (value - self.lo) / self.span * self.pix_span

    def ticks(self, count: int = 5) -> list[float]:
        return [self.lo + i * self.span / (count - 1) for i in range(count)]


def _y_ticks(canvas: _Canvas, ys: _Scale) -> None:
    for tick in ys.ticks():
        py = ys(tick)
        canvas.line(MARGIN_L - 5, py, MARGIN_L, py)
        canvas.text(MARGIN_L - 8, py + 3, f"{tick:g}", size=10, anchor="end")


def _titles(canvas: _Canvas, spec: FigureSpec) -> None:
    """The title and axis labels that ``spec`` sets."""
    if spec.title:
        canvas.text(WIDTH / 2, MARGIN_T - 14, spec.title, size=15,
                    anchor="middle")
    if spec.x_label:
        canvas.text(MARGIN_L + PLOT_W / 2, HEIGHT - 14, spec.x_label,
                    anchor="middle")
    if spec.y_label:
        canvas.text(16, MARGIN_T + PLOT_H / 2, spec.y_label, anchor="middle",
                    extra=f' transform="rotate(-90 16 {_fmt(MARGIN_T + PLOT_H / 2)})"')


def _frame(canvas: _Canvas, spec: FigureSpec, xs: _Scale, ys: _Scale) -> None:
    canvas.line(MARGIN_L, MARGIN_T + PLOT_H, MARGIN_L + PLOT_W,
                MARGIN_T + PLOT_H)
    canvas.line(MARGIN_L, MARGIN_T, MARGIN_L, MARGIN_T + PLOT_H)
    for tick in xs.ticks():
        px = xs(tick)
        canvas.line(px, MARGIN_T + PLOT_H, px, MARGIN_T + PLOT_H + 5)
        canvas.text(px, MARGIN_T + PLOT_H + 18, f"{tick:g}", size=10,
                    anchor="middle")
    _y_ticks(canvas, ys)
    _titles(canvas, spec)


def _annotate_vertical(canvas: _Canvas, spec: FigureSpec, xs: _Scale) -> None:
    for x_value, label in spec.annotations:
        px = xs(x_value)
        canvas.line(px, MARGIN_T, px, MARGIN_T + PLOT_H, stroke="#555555",
                    dash="5,4")
        if label:
            canvas.text(px + 4, MARGIN_T + 12, label, size=10)


def _legend(canvas: _Canvas, labels: Sequence[str]) -> None:
    x = MARGIN_L + PLOT_W - 150
    y = MARGIN_T + 8
    for i, label in enumerate(labels):
        color = PALETTE[i % len(PALETTE)]
        canvas.rect(x, y + 16 * i, 10, 10, fill=color)
        canvas.text(x + 14, y + 16 * i + 9, label, size=10)


def _render_scatter_fit(canvas: _Canvas, spec: FigureSpec) -> None:
    all_points = [(float(x), float(y))
                  for _, points, _ in spec.series for x, y in points]
    if not all_points:
        raise AnalysisError("nothing to plot")
    xs_data = [p[0] for p in all_points]
    ys_data = [p[1] for p in all_points]
    xs = _Scale(min(xs_data), max(xs_data), MARGIN_L, MARGIN_L + PLOT_W)
    ys = _Scale(min(ys_data), max(ys_data), MARGIN_T + PLOT_H, MARGIN_T)
    _frame(canvas, spec, xs, ys)
    _annotate_vertical(canvas, spec, xs)
    # one mark per point, at xs(x), ys(y) computed inline in the scales'
    # order of operations
    (xl, xd, xp, xw), (yl, yd, yp, yw) = (
        (s.lo, s.span, s.pix_lo, s.pix_span) for s in (xs, ys))
    for i, (label, points, fit) in enumerate(spec.series):
        color = PALETTE[i % len(PALETTE)]
        canvas.parts += [
            f'<circle cx="{xp + (float(x) - xl) / xd * xw:.2f}" '
            f'cy="{yp + (float(y) - yl) / yd * yw:.2f}" r="3.00" '
            f'fill="{color}"/>' for x, y in points]
        x0, x1 = min(float(x) for x, _ in points), max(float(x) for x, _ in points)
        canvas.line(xs(x0), ys(fit.intercept + fit.slope * x0),
                    xs(x1), ys(fit.intercept + fit.slope * x1),
                    stroke=color, width=1.5)
    if len(spec.series) > 1:
        _legend(canvas, [label for label, _, _ in spec.series])


def _render_stacked_area(canvas: _Canvas, spec: FigureSpec) -> None:
    first_xs = tuple(float(x) for x, _ in spec.series[0][1])
    if not first_xs:
        raise AnalysisError("nothing to plot")
    layers = []
    for label, points in spec.series:
        if tuple(float(x) for x, _ in points) != first_xs:
            raise AnalysisError("stacked series must share x values")
        layers.append((label, [float(y) for _, y in points]))
    totals = [sum(layer[1][i] for layer in layers)
              for i in range(len(first_xs))]
    xs = _Scale(min(first_xs), max(first_xs), MARGIN_L, MARGIN_L + PLOT_W)
    ys = _Scale(0.0, max(totals), MARGIN_T + PLOT_H, MARGIN_T)
    _frame(canvas, spec, xs, ys)
    cumulative = [0.0] * len(first_xs)
    for i, (label, values) in enumerate(layers):
        lower = cumulative[:]
        cumulative = [c + v for c, v in zip(cumulative, values)]
        forward = [f"{_fmt(xs(x))},{_fmt(ys(c))}"
                   for x, c in zip(first_xs, cumulative)]
        backward = [f"{_fmt(xs(x))},{_fmt(ys(c))}"
                    for x, c in zip(reversed(first_xs), reversed(lower))]
        d = "M" + " L".join(forward + backward) + " Z"
        canvas.path(d, fill=PALETTE[i % len(PALETTE)], stroke="none")
    _annotate_vertical(canvas, spec, xs)
    _legend(canvas, [label for label, _ in layers])


def _render_dendrogram(canvas: _Canvas, spec: FigureSpec) -> None:
    label, tree = spec.series[0]
    if not isinstance(tree, Dendrogram) or not tree.leaves:
        raise AnalysisError("nothing to plot")
    n = len(tree.leaves)
    order = (leaf_members(tree, n + len(tree.merges) - 1) if tree.merges
             else list(range(n)))
    position = {leaf: rank for rank, leaf in enumerate(order)}
    max_height = max((h for _, _, h in tree.merges), default=1.0) or 1.0
    ys = _Scale(0.0, max_height, MARGIN_T + PLOT_H, MARGIN_T)

    def leaf_x(rank: int) -> float:
        return MARGIN_L + (rank + 0.5) * PLOT_W / n

    node_x: dict[int, float] = {
        leaf: leaf_x(position[leaf]) for leaf in range(n)}
    node_h: dict[int, float] = {leaf: 0.0 for leaf in range(n)}
    for i, (a, b, h) in enumerate(tree.merges):
        xa, xb = node_x[a], node_x[b]
        d = (f"M{_fmt(xa)},{_fmt(ys(node_h[a]))} L{_fmt(xa)},{_fmt(ys(h))} "
             f"L{_fmt(xb)},{_fmt(ys(h))} L{_fmt(xb)},{_fmt(ys(node_h[b]))}")
        canvas.path(d, stroke="#333333")
        node_x[n + i] = (xa + xb) / 2
        node_h[n + i] = h
    base_y = MARGIN_T + PLOT_H
    for rank, leaf in enumerate(order):
        x = leaf_x(rank)
        canvas.text(x, base_y + 10, tree.leaves[leaf], size=8, anchor="end",
                    extra=f' transform="rotate(-60 {_fmt(x)} {_fmt(base_y + 10)})"')
    _y_ticks(canvas, ys)
    canvas.line(MARGIN_L, MARGIN_T, MARGIN_L, base_y)
    _titles(canvas, spec)


def _render_sweep_strip(canvas: _Canvas, spec: FigureSpec) -> None:
    rows = [(label, tuple(values)) for label, values in spec.series]
    if not rows or not rows[0][1]:
        raise AnalysisError("nothing to plot")
    n_cols = max(len(values) for _, values in rows)
    cell_w = PLOT_W / n_cols
    cell_h = PLOT_H / len(rows)
    for r, (label, values) in enumerate(rows):
        y = MARGIN_T + r * cell_h
        canvas.text(MARGIN_L - 8, y + cell_h / 2 + 3, label, size=9,
                    anchor="end")
        # one mark per window, formatted as ``_Canvas.rect`` would; a short
        # strip ends in absent cells
        size = f'y="{y:.2f}" width="{cell_w:.2f}" height="{cell_h:.2f}"'
        canvas.parts += [
            f'<rect x="{MARGIN_L + c * cell_w:.2f}" {size} fill="'
            f'{ABSENT_FILL if v is None else PALETTE[int(v) % len(PALETTE)]}" '
            'stroke="#ffffff"/>'
            for c, v in enumerate(values + (None,) * (n_cols - len(values)))]
    _titles(canvas, spec)


_RENDERERS = {
    FigureKind.SCATTER_FIT: _render_scatter_fit,
    FigureKind.STACKED_AREA: _render_stacked_area,
    FigureKind.DENDROGRAM: _render_dendrogram,
    FigureKind.SWEEP_STRIP: _render_sweep_strip,
}


def render_figure(spec: FigureSpec) -> str:
    """Render a FigureSpec to a deterministic SVG 1.1 document."""
    if not spec.series:
        raise AnalysisError("nothing to plot")
    canvas = _Canvas()
    _RENDERERS[spec.kind](canvas, spec)
    return canvas.document()
