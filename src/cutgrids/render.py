"""Deterministic SVG pictures of bordisms.

The drawing shows, per direction, the shaded region between the extreme
cuts, every cut curve with a small orientation arrow toward its "above"
side, zero markers on 1D cuts, the core highlighted, and component
labels.  Identical inputs produce byte-identical output: all geometry
is derived from exact rationals through a fixed formatting routine, and
element order is fixed by the data, never by hash iteration.

CSS classes (used by the structural tests and stable across versions):
``cut-path``, ``zero-marker``, ``orientation-arrow``, ``core-marker``,
``core-segment``, ``core-region``, ``between-region``,
``component-label``, ``ambient-line``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

from .bordisms import Bordism
from .errors import ArgumentError
from .grids import Cut1D, Cut2D, extreme_slices
from .plgeom import (
    Ambient1D,
    Ambient2D,
    Arc,
    CircleCell,
    PLFunc,
    PLRegion,
    Seg,
    Slab,
    fr,
    is_finite,
    region_bbox,
    region_components,
)

_WIDTH = 480
_HEIGHT_2D = 360
_HEIGHT_1D = 160
_MARGIN = 24

_DIR_FILLS = ("#c8dcf5", "#f5d8c8", "#d8f5c8")


def _fmt(v: float) -> str:
    """Fixed numeric formatting so equal inputs give equal bytes."""
    out = f"{v:.4f}".rstrip("0").rstrip(".")
    return "0" if out in ("-0", "") else out


class _View:
    """Exact window plus the affine window -> pixel transform (y axis
    flipped)."""

    def __init__(self, x0: Fraction, x1: Fraction,
                 y0: Fraction, y1: Fraction, height: int):
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1
        self.sx = (_WIDTH - 2 * _MARGIN) / float(x1 - x0)
        self.sy = (height - 2 * _MARGIN) / float(y1 - y0)
        self.height = height

    def px(self, x) -> float:
        return _MARGIN + (float(x) - float(self.x0)) * self.sx

    def py(self, y) -> float:
        return self.height - _MARGIN - (float(y) - float(self.y0)) * self.sy

    def pt(self, x, y) -> str:
        return f"{_fmt(self.px(x))},{_fmt(self.py(y))}"

    def clamp_x(self, x) -> Fraction:
        if not is_finite(x):
            return self.x0 if x < 0 else self.x1
        return min(max(fr(x), self.x0), self.x1)

    def clamp_y(self, y) -> Fraction:
        if not is_finite(y):
            return self.y0 if y < 0 else self.y1
        return min(max(fr(y), self.y0), self.y1)


def _default_window(b: Bordism, core: PLRegion):
    xr, yr = region_bbox(core)
    if xr is None:
        raise ArgumentError(
            "the core gives no finite viewport; pass an explicit window")
    if isinstance(b.ambient, Ambient2D):
        if yr is None:
            raise ArgumentError(
                "the core gives no finite viewport; pass an explicit window")
        return (xr[0] - 1, xr[1] + 1, yr[0] - 1, yr[1] + 1)
    return (xr[0] - 1, xr[1] + 1, Fraction(-1), Fraction(1))


def _checked_window(window) -> tuple:
    """An explicit window as (x0, x1, y0, y1) in Fractions; a 1D window
    (x0, x1) gets y from -1 to 1."""
    window = tuple(fr(v) for v in window)
    if len(window) == 2:
        window = (window[0], window[1], Fraction(-1), Fraction(1))
    if len(window) != 4:
        raise ArgumentError("window must be x0,x1 or x0,x1,y0,y1")
    x0, x1, y0, y1 = window
    if x0 >= x1 or y0 >= y1:
        raise ArgumentError("window bounds out of order")
    return window


def _graph_xs(f: PLFunc, lo: Fraction, hi: Fraction) -> list[Fraction]:
    xs = [lo] + [x for x in f.breakpoints if lo < x < hi] + [hi]
    return xs


def _sheet_points(graph: PLFunc, axis: int, view: _View) -> list[str]:
    if axis == 2:
        return [view.pt(x, view.clamp_y(graph(x)))
                for x in _graph_xs(graph, view.x0, view.x1)]
    return [view.pt(view.clamp_x(graph(y)), y)
            for y in _graph_xs(graph, view.y0, view.y1)]


def _arrow(cx: float, cy: float, angle_deg: float) -> str:
    return (f'<path class="orientation-arrow" '
            f'transform="translate({_fmt(cx)},{_fmt(cy)}) '
            f'rotate({_fmt(angle_deg)})" d="M 0,-6 L 4,4 L -4,4 Z"/>')


def _slab_polygon(cell: Slab, view: _View) -> Optional[str]:
    lo = view.clamp_x(cell.x_lo)
    hi = view.clamp_x(cell.x_hi)
    if lo >= hi:
        return None

    def level(bound, x) -> Fraction:
        if isinstance(bound, PLFunc):
            return view.clamp_y(bound(x))
        return view.clamp_y(bound)

    xs = [lo, hi]
    for bound in (cell.lower, cell.upper):
        if isinstance(bound, PLFunc):
            xs.extend(x for x in bound.breakpoints if lo < x < hi)
    xs = sorted(set(xs))
    pts = [view.pt(x, level(cell.lower, x)) for x in xs]
    pts += [view.pt(x, level(cell.upper, x)) for x in reversed(xs)]
    return " ".join(pts)


def _circle_layout(ambient: Ambient1D, view: _View):
    """Deterministic centers/radii for circle components: laid out left
    to right across the window, vertically centered."""
    n = len(ambient.circles)
    spots = []
    for j, L in enumerate(ambient.circles):
        cx = view.x0 + (view.x1 - view.x0) * Fraction(j + 1, n + 1)
        r = min((view.x1 - view.x0) / (Fraction(5, 2) * n),
                (view.y1 - view.y0) / Fraction(5, 2))
        spots.append((cx, (view.y0 + view.y1) / 2, r, float(L)))
    return spots


def _circle_point(spot, theta) -> tuple[float, float]:
    cx, cy, r, L = spot
    a = 2 * math.pi * float(theta) / L
    return (float(cx) + float(r) * math.cos(a),
            float(cy) + float(r) * math.sin(a))


def _render_1d(b: Bordism, slices: list[PLRegion], core: PLRegion,
               view: _View, out: list[str]) -> None:
    amb = b.ambient
    assert isinstance(amb, Ambient1D)
    spots = _circle_layout(amb, view)
    axis_y = view.py(0)

    # ambient line components, clipped to the window
    for lo, hi in amb.intervals:
        x0, x1 = view.clamp_x(lo), view.clamp_x(hi)
        if x0 >= x1:
            continue
        out.append(f'<line class="ambient-line" x1="{_fmt(view.px(x0))}" '
                   f'y1="{_fmt(axis_y)}" x2="{_fmt(view.px(x1))}" '
                   f'y2="{_fmt(axis_y)}"/>')
    for spot in spots:
        cx, cy, r, _L = spot
        out.append(f'<circle class="ambient-line" cx="{_fmt(view.px(cx))}" '
                   f'cy="{_fmt(view.py(cy))}" r="{_fmt(float(r) * view.sx)}" '
                   f'fill="none"/>')

    # between-region of each direction, drawn as a translucent band
    for di, region in enumerate(slices):
        fill = _DIR_FILLS[di % len(_DIR_FILLS)]
        for cell in region.cells:
            if isinstance(cell, Seg):
                x0, x1 = view.clamp_x(cell.lo), view.clamp_x(cell.hi)
                if x0 > x1:
                    continue
                out.append(
                    f'<rect class="between-region" x="{_fmt(view.px(x0))}" '
                    f'y="{_fmt(axis_y - 8)}" '
                    f'width="{_fmt((view.px(x1) - view.px(x0)))}" height="16" '
                    f'fill="{fill}" opacity="0.6"/>')
            elif isinstance(cell, (Arc, CircleCell)):
                out.append(_arc_path(cell, spots, view,
                                     "between-region",
                                     f'fill="none" stroke="{fill}" '
                                     f'stroke-width="8" opacity="0.6"'))

    # cuts: zero markers with orientation arrows
    for di, tup in enumerate(b.mgrid.grid.tuples):
        for ci, cut in enumerate(tup.cuts):
            assert isinstance(cut, Cut1D)
            for k, comp in enumerate(cut.components):
                if comp.kind != "zeros":
                    continue
                on_circle = k >= len(amb.intervals)
                for pos, sign in comp.zeros:
                    if on_circle:
                        spot = spots[k - len(amb.intervals)]
                        mx, my = _circle_point(spot, pos)
                        px, py = view.px(mx), view.py(my)
                        angle = 90.0 if sign == "+" else 270.0
                    else:
                        px, py = view.px(pos), axis_y
                        angle = 90.0 if sign == "+" else 270.0
                    out.append(
                        f'<circle class="zero-marker" data-direction="{di + 1}" '
                        f'data-cut="{ci}" cx="{_fmt(px)}" cy="{_fmt(py)}" '
                        f'r="4"/>')
                    out.append(_arrow(px, py - 12, angle))

    # core, highlighted
    for comp in region_components(core):
        for cell in comp.cells:
            if isinstance(cell, Seg):
                if cell.lo == cell.hi:
                    out.append(f'<circle class="core-marker" '
                               f'cx="{_fmt(view.px(cell.lo))}" '
                               f'cy="{_fmt(axis_y)}" r="5"/>')
                else:
                    x0, x1 = view.clamp_x(cell.lo), view.clamp_x(cell.hi)
                    out.append(
                        f'<line class="core-segment" '
                        f'x1="{_fmt(view.px(x0))}" y1="{_fmt(axis_y)}" '
                        f'x2="{_fmt(view.px(x1))}" y2="{_fmt(axis_y)}"/>')
            elif isinstance(cell, (Arc, CircleCell)):
                if isinstance(cell, Arc) and cell.start == cell.end:
                    mx, my = _circle_point(spots[cell.circle], cell.start)
                    out.append(f'<circle class="core-marker" '
                               f'cx="{_fmt(view.px(mx))}" '
                               f'cy="{_fmt(view.py(my))}" r="5"/>')
                else:
                    out.append(_arc_path(cell, spots, view, "core-segment",
                                         'fill="none"'))

    # labels
    for k in range(amb.n_components()):
        kind, data = amb.component_kind(k)
        if kind == "interval":
            lo, hi = data
            x = view.clamp_x(lo if is_finite(lo) else view.x0)
            px, py = view.px(x) + 6, axis_y - 18
        else:
            spot = spots[k - len(amb.intervals)]
            px, py = view.px(spot[0]), view.py(spot[1])
        out.append(f'<text class="component-label" x="{_fmt(px)}" '
                   f'y="{_fmt(py)}">{b.mgrid.labels[k]}</text>')


def _arc_path(cell: Union[Arc, CircleCell], spots, view: _View,
              cls: str, style: str) -> str:
    if isinstance(cell, CircleCell):
        circle, start, end = cell.circle, Fraction(0), cell.circumference
    else:
        circle, start, end = cell.circle, cell.start, cell.end
        if end <= start:
            end = end + cell.circumference
    spot = spots[circle]
    n = 24
    pts = []
    for i in range(n + 1):
        theta = start + (end - start) * Fraction(i, n)
        mx, my = _circle_point(spot, theta)
        pts.append(f"{_fmt(view.px(mx))},{_fmt(view.py(my))}")
    return f'<polyline class="{cls}" points="{" ".join(pts)}" {style}/>'


def _render_2d(b: Bordism, slices: list[PLRegion], core: PLRegion,
               view: _View, out: list[str]) -> None:
    amb = b.ambient
    assert isinstance(amb, Ambient2D)
    g = b.mgrid.grid

    # shaded between-region per direction
    for di, region in enumerate(slices):
        fill = _DIR_FILLS[di % len(_DIR_FILLS)]
        for cell in region.cells:
            if not isinstance(cell, Slab):
                continue
            poly = _slab_polygon(cell, view)
            if poly:
                out.append(f'<polygon class="between-region" points="{poly}" '
                           f'fill="{fill}" opacity="0.45"/>')

    # cut curves with orientation arrows
    for di, tup in enumerate(g.tuples):
        for ci, cut in enumerate(tup.cuts):
            assert isinstance(cut, Cut2D)
            for comp in cut.components:
                if comp.kind != "sheets":
                    continue
                for sheet in comp.sheets:
                    pts = _sheet_points(sheet.graph, cut.axis, view)
                    out.append(
                        f'<polyline class="cut-path" '
                        f'data-direction="{di + 1}" data-cut="{ci}" '
                        f'points="{" ".join(pts)}" fill="none"/>')
                    mid = pts[len(pts) // 2] if len(pts) % 2 else None
                    if mid is None:
                        a = pts[len(pts) // 2 - 1].split(",")
                        bpt = pts[len(pts) // 2].split(",")
                        mx = (float(a[0]) + float(bpt[0])) / 2
                        my = (float(a[1]) + float(bpt[1])) / 2
                    else:
                        mx, my = (float(v) for v in mid.split(","))
                    if cut.axis == 2:
                        angle = 0.0 if sheet.sign == "+" else 180.0
                    else:
                        angle = 90.0 if sheet.sign == "+" else 270.0
                    out.append(_arrow(mx, my, angle))

    # core
    for comp in region_components(core):
        xr, yr = region_bbox(comp)
        if xr is not None and yr is not None and xr[0] == xr[1] and yr[0] == yr[1]:
            out.append(f'<circle class="core-marker" '
                       f'cx="{_fmt(view.px(xr[0]))}" '
                       f'cy="{_fmt(view.py(yr[0]))}" r="5"/>')
            continue
        for cell in comp.cells:
            if not isinstance(cell, Slab):
                continue
            poly = _slab_polygon(cell, view)
            if poly:
                out.append(f'<polygon class="core-region" points="{poly}"/>')

    # labels at box corners
    for k in range(amb.n_components()):
        x0, _x1, y0, _y1 = amb.component_boxes(k)[0]
        px = view.px(view.clamp_x(x0)) + 6
        py = view.py(view.clamp_y(y0)) - 6
        out.append(f'<text class="component-label" x="{_fmt(px)}" '
                   f'y="{_fmt(py)}">{b.mgrid.labels[k]}</text>')


_STYLE = (
    ".ambient-line{stroke:#808080;stroke-width:1.5;}"
    ".cut-path{stroke:#1f4e9c;stroke-width:2;}"
    ".zero-marker{fill:#1f4e9c;}"
    ".orientation-arrow{fill:#1f4e9c;}"
    ".core-marker{fill:#c02020;}"
    ".core-segment{stroke:#c02020;stroke-width:5;stroke-linecap:round;}"
    ".core-region{fill:#c02020;opacity:0.5;}"
    ".component-label{font:12px monospace;fill:#303030;}"
)


def render_svg(b: Bordism, window=None) -> str:
    """Render a bordism (d <= 2) to SVG text.

    ``window`` is (x0, x1) or (x0, x1, y0, y1) in exact rationals; when
    omitted, the core's bounding box padded by 1 is used, and an
    unbounded or empty core is an error.

    Each direction's shaded slice and the highlighted core come from one
    grids.extreme_slices call, which builds each direction's piece once
    and draws from the cells of its chain; the core has the points of
    grids.core.  An explicit window is checked before that call, so a
    malformed one costs no region work.
    """
    if window is not None:
        window = _checked_window(window)
    slices, core = extreme_slices(b.mgrid, b.ambient)
    x0, x1, y0, y1 = window or _default_window(b, core)
    is2d = isinstance(b.ambient, Ambient2D)
    height = _HEIGHT_2D if is2d else _HEIGHT_1D
    view = _View(x0, x1, y0, y1, height)
    out: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{height}" viewBox="0 0 {_WIDTH} {height}">',
        f"<style>{_STYLE}</style>",
        f'<rect x="0" y="0" width="{_WIDTH}" height="{height}" fill="#ffffff"/>',
    ]
    if is2d:
        _render_2d(b, slices, core, view, out)
    else:
        _render_1d(b, slices, core, view, out)
    out.append("</svg>")
    return "\n".join(out) + "\n"
