"""Signed cut data on 1- and 2-dimensional ambients, and grids thereof.

A *cut* splits an ambient manifold into a below / level / above partition.
On a line or circle component the level set is a finite signed set of
points; on a plane component it is a finite stack of signed piecewise
linear graphs (sheets).  Signs record which side is "below" immediately
after crossing the level set, and must alternate along any path, so the
partition is determined by the signed level data alone.

A *cut tuple* is a nonempty ordered list of cuts in one direction; a
*grid* is one tuple per direction; a *monoidal grid* additionally labels
every ambient component with a positive integer (0 marks discarded
components).  The operations below — region extraction, ordering and
transversality checks, slices, cores, compactness, a positive
distance globularity test, reindexing, relabelling, and transport along
affine embeddings — are the engine behind the bordism layer.

Cut data are frozen values, and ``==`` is the one structural comparison:
equal cuts are written the same way.  Where only what a cut does to an
ambient matters, compare sides instead: two cuts agree when
``cut_disagreement`` finds no point they classify differently, as
``bordisms.is_morphism`` asks.  On a 1D ambient the order of a tuple, where
cuts disagree and every slice and core are read from the signed zeros, with
no partition.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Literal, Optional, Sequence, Union

from .errors import (
    ArgumentError,
    UnsupportedDimensionError,
    ValidationError,
)
from .plgeom import (
    INF,
    NEG_INF,
    Ambient,
    Ambient1D,
    Ambient2D,
    Arc,
    CircleCell,
    PLFunc,
    PLRegion,
    Seg,
    Slab,
    _arc_cells,
    _line_runs,
    fr,
    interval_rep,
    is_finite,
    line_region,
    plfunc_is_positive_on,
    plfunc_range_on,
    rational_to_text,
    region_boolean,
    region_bounded,
    region_closure,
    region_disagreement,
    region_is_compact_in,
    region_sample_point,
    region_split,
    region_subset,
    ambient_region,
    component_region,
)
from .reporting import ReportEntry, ValidationReport
from .shapes import GammaMorphism, MonotoneMap, Multisimplex

_OPPOSITE: dict[str, str] = {"+": "-", "-": "+"}


def _check_sign(s: str) -> str:
    if s not in ("+", "-"):
        raise ArgumentError(f"sign must be '+' or '-', got {s!r}")
    return s


# ---------------------------------------------------------------------------
# cut data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentCut1D:
    """Signed level data of a cut on one line or circle component.

    ``kind == "zeros"``: ``zeros`` is the level set with crossing signs,
    strictly increasing positions (angles in ``[0, L)`` on a circle).
    ``kind == "whole"``: the level set misses the component and
    ``whole_sign`` says which side the component lies on.
    """

    kind: Literal["zeros", "whole"]
    zeros: tuple[tuple[Fraction, str], ...] = ()
    whole_sign: str = "below"

    def __post_init__(self) -> None:
        object.__setattr__(self, "zeros", component_levels(
            self.kind, "zeros", self.zeros, self.whole_sign, fr))


def component_levels(kind: str, level_kind: str, levels, whole_sign: str,
                     position: Optional[Callable] = None) -> tuple:
    """The level items of a component cut record once its kind, signs,
    side and item count are checked: "zeros" whose positions `position`
    reads (PL in the parameter for a family), or "sheets"."""
    if kind not in (level_kind, "whole"):
        raise ArgumentError(f"bad component cut kind {kind!r}")
    items = (tuple(levels) if position is None
             else tuple((position(p), _check_sign(s)) for p, s in levels))
    if kind == "whole":
        if items:
            raise ArgumentError(f"whole-component cut cannot carry {level_kind}")
        if whole_sign not in ("below", "above"):
            raise ArgumentError(f"bad whole_sign {whole_sign!r}")
    elif not items:
        raise ArgumentError(
            f"kind={level_kind!r} requires at least one {level_kind[:-1]}")
    return items


@dataclass(frozen=True)
class Cut1D:
    """A cut of a 1-dimensional ambient: one data record per component.

    Components are indexed as in the ambient: line intervals first (in
    ambient order), then circles.
    """

    components: tuple[ComponentCut1D, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))


@dataclass(frozen=True)
class Sheet:
    """One signed piecewise linear graph of a planar cut."""

    graph: PLFunc
    sign: str

    def __post_init__(self) -> None:
        _check_sign(self.sign)


@dataclass(frozen=True)
class ComponentCut2D:
    """Signed level data of a planar cut on one box component.

    Sheets are graphs over the coordinate axis perpendicular to the
    cut's axis, listed bottom to top; they must be pairwise disjoint
    over the component and their signs must alternate.
    """

    kind: Literal["sheets", "whole"]
    sheets: tuple[Sheet, ...] = ()
    whole_sign: str = "below"

    def __post_init__(self) -> None:
        object.__setattr__(self, "sheets", component_levels(
            self.kind, "sheets", self.sheets, self.whole_sign))


@dataclass(frozen=True)
class Cut2D:
    """A cut of a 2-dimensional ambient.

    ``axis`` names the coordinate the cut stratifies: ``axis == 2``
    means sheets are graphs ``y = f(x)`` and "below" is smaller ``y``;
    ``axis == 1`` means sheets are graphs ``x = g(y)`` and "below" is
    smaller ``x``.  All cuts of one tuple share the axis.
    """

    axis: int
    components: tuple[ComponentCut2D, ...]

    def __post_init__(self) -> None:
        if self.axis not in (1, 2):
            raise ArgumentError(f"cut axis must be 1 or 2, got {self.axis}")
        object.__setattr__(self, "components", tuple(self.components))


Cut = Union[Cut1D, Cut2D]


@dataclass(frozen=True)
class CutTuple:
    """Cuts ``C_0 <= ... <= C_m`` in a single direction."""

    cuts: tuple[Cut, ...]

    def __post_init__(self) -> None:
        cuts = tuple(self.cuts)
        if not cuts:
            raise ArgumentError("a cut tuple needs at least one cut")
        object.__setattr__(self, "cuts", cuts)

    @property
    def m(self) -> int:
        return len(self.cuts) - 1


@dataclass(frozen=True)
class CutGrid:
    """One cut tuple per direction ``1..d``."""

    tuples: tuple[CutTuple, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tuples", tuple(self.tuples))

    @property
    def d(self) -> int:
        return len(self.tuples)

    @property
    def shape(self) -> Multisimplex:
        return Multisimplex(tuple(t.m for t in self.tuples))


@dataclass(frozen=True)
class MonoidalCutGrid:
    """A cut grid plus a label in ``{0, 1, ..., ell}`` per ambient
    component; label 0 discards the component."""

    grid: CutGrid
    ell: int
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(int(x) for x in self.labels))
        if self.ell < 0:
            raise ArgumentError("ell must be nonnegative")
        for lab in self.labels:
            if not 0 <= lab <= self.ell:
                raise ArgumentError(
                    f"component label {lab} outside 0..{self.ell}"
                )

    @property
    def d(self) -> int:
        return self.grid.d

    @property
    def shape(self) -> Multisimplex:
        return self.grid.shape


# ---------------------------------------------------------------------------
# pointwise classification
# ---------------------------------------------------------------------------


def _side_of_count(first_sign: str, crossings: int) -> str:
    """Side of a point separated from the component's 'start' by
    ``crossings`` level strata, given the first stratum's sign."""
    even = crossings % 2 == 0
    if first_sign == "+":
        return "below" if even else "above"
    return "above" if even else "below"


def _gap_side(comp: ComponentCut1D, k: int) -> str:
    """The side of the open gap of a 1D component cut that ends at its zero
    k (k == len(zeros): the gap after the last zero), the one rule every 1D
    side is read by: k crossings from the first zero's sign.  A whole
    component has one gap, on its whole_sign.  On a valid circle cut the
    gaps k == 0 and k == len(zeros) are the one wrap gap, and cyclic
    alternation (an even number of zeros) makes them agree."""
    if comp.kind == "whole":
        return comp.whole_sign
    return _side_of_count(comp.zeros[0][1], k)


def _classify_on_interval(comp: ComponentCut1D, x: Fraction) -> str:
    before = 0
    for pos, _sign in comp.zeros:
        if x == pos:
            return "level"
        if pos < x:
            before += 1
    return _gap_side(comp, before)


def _classify_on_box(comp: ComponentCut2D, axis: int,
                     point: tuple[Fraction, Fraction]) -> str:
    if comp.kind == "whole":
        return comp.whole_sign
    x, y = point
    coord, arg = (y, x) if axis == 2 else (x, y)
    before = 0
    for sheet in comp.sheets:
        val = sheet.graph(arg)
        if val == coord:
            return "level"
        if val < coord:
            before += 1
    return _side_of_count(comp.sheets[0].sign, before)


def classify_point(cut: Cut, ambient: Ambient, point) -> str:
    """Side ('below' / 'level' / 'above') of a point of the ambient.

    1D points are either a rational (line) or ``("circle", idx, theta)``;
    2D points are coordinate pairs.  A 1D side is read by _gap_side from
    the zeros before the point; a circle is read as the interval [0, L) at
    theta mod L, which on a valid cut sides the wrap gap the same at both
    of its ends.
    """
    if isinstance(cut, Cut1D):
        if not isinstance(ambient, Ambient1D):
            raise ArgumentError("1D cut needs a 1D ambient")
        if isinstance(point, tuple) and point and point[0] == "circle":
            _tag, idx, theta = point
            if idx not in range(len(ambient.circles)):
                raise ArgumentError(f"no circle {idx} in the ambient")
            comp = cut.components[len(ambient.intervals) + idx]
            return _classify_on_interval(comp, fr(theta) % ambient.circles[idx])
        x = fr(point)
        ci = ambient.component_of_line_point(x)
        return _classify_on_interval(cut.components[ci], x)
    if not isinstance(ambient, Ambient2D):
        raise ArgumentError("2D cut needs a 2D ambient")
    p = (fr(point[0]), fr(point[1]))
    ci = ambient.component_of_point(p[0], p[1])
    return _classify_on_box(cut.components[ci], cut.axis, p)


# ---------------------------------------------------------------------------
# cut validation
# ---------------------------------------------------------------------------


def _validate_component_1d(comp: ComponentCut1D, on_circle: bool,
                           circumference: Optional[Fraction],
                           lo, hi, where: str) -> None:
    if comp.kind == "whole":
        return
    zs = comp.zeros
    for k in range(1, len(zs)):
        if zs[k - 1][0] >= zs[k][0]:
            raise ValidationError(
                f"{where}: level points must strictly increase")
    for k in range(1, len(zs)):
        if zs[k][1] == zs[k - 1][1]:
            raise ValidationError(f"{where}: crossing signs must alternate")
    if on_circle:
        assert circumference is not None
        if len(zs) % 2 != 0:
            raise ValidationError(
                f"{where}: a circle needs an even number of level points")
        for pos, _s in zs:
            if not (0 <= pos < circumference):
                raise ValidationError(
                    f"{where}: circle level point {pos} outside [0, L)")
        # cyclic alternation: last and first must also differ
        if len(zs) >= 2 and zs[0][1] == zs[-1][1]:
            raise ValidationError(
                f"{where}: crossing signs must alternate cyclically")
    else:
        for pos, _s in zs:
            inside = ((not is_finite(lo) or pos > lo)
                      and (not is_finite(hi) or pos < hi))
            if not inside:
                raise ValidationError(
                    f"{where}: level point {pos} outside the component")


def validate_cut(cut: Cut, ambient: Ambient) -> None:
    """Raise ValidationError if the cut is not well-formed over the
    ambient (component count, positions, alternation, sheet order)."""
    if isinstance(cut, Cut1D):
        if not isinstance(ambient, Ambient1D):
            raise ValidationError("1D cut on a non-1D ambient")
        n = len(ambient.intervals) + len(ambient.circles)
        if len(cut.components) != n:
            raise ValidationError(
                f"cut has {len(cut.components)} component records, "
                f"ambient has {n} components")
        for i, (lo, hi) in enumerate(ambient.intervals):
            _validate_component_1d(cut.components[i], False, None, lo, hi,
                                   f"component {i}")
        for j, length in enumerate(ambient.circles):
            i = len(ambient.intervals) + j
            _validate_component_1d(cut.components[i], True, length,
                                   None, None, f"component {i}")
        return
    if not isinstance(ambient, Ambient2D):
        raise ValidationError("2D cut on a non-2D ambient")
    n = ambient.n_components()
    if len(cut.components) != n:
        raise ValidationError(
            f"cut has {len(cut.components)} component records, "
            f"ambient has {n} components")
    for ci, comp in enumerate(cut.components):
        if comp.kind == "whole":
            continue
        for k in range(1, len(comp.sheets)):
            if comp.sheets[k].sign == comp.sheets[k - 1].sign:
                raise ValidationError(
                    f"component {ci}: sheet signs must alternate")
        lo, hi = _component_domain_window(ambient.component_boxes(ci),
                                          cut.axis)
        dom = line_region(Seg(lo, hi, False, False))
        for k in range(1, len(comp.sheets)):
            gap = comp.sheets[k].graph.sub(comp.sheets[k - 1].graph)
            if not plfunc_is_positive_on(gap, dom):
                raise ValidationError(
                    f"component {ci}: sheets {k - 1} and {k} are not "
                    f"strictly ordered over the component")


def _component_domain_window(boxes, axis: int):
    """Open window of the graph argument coordinate over a component's
    boxes."""
    spans = [(x0, x1) if axis == 2 else (y0, y1) for x0, x1, y0, y1 in boxes]
    return (min(lo for lo, _ in spans), max(hi for _, hi in spans))


# ---------------------------------------------------------------------------
# region extraction
# ---------------------------------------------------------------------------


def _component_parts_1d(comp: ComponentCut1D, i: int,
                        ambient: Ambient1D) -> tuple[list, list, list]:
    """(below, level, above) cells of component i of a valid 1D cut.

    The zeros are the level set, and each open gap between them lies on the
    side _gap_side gives it.  An interval is cut at its zeros from lo to hi,
    a whole one left as one gap; a circle's arcs run from each zero to the
    next, the last one through the wrap gap back to the first zero."""
    parts: dict[str, list] = {"below": [], "level": [], "above": []}
    lines = len(ambient.intervals)
    zs = [p for p, _s in comp.zeros]
    if i < lines:
        lo, hi = ambient.intervals[i]
        starts = [lo, *zs]
        for k, (start, p) in enumerate(zip(starts, zs)):
            parts[_gap_side(comp, k)].append(Seg(start, p, False, False))
            parts["level"].append(Seg(p, p, True, True))
        parts[_gap_side(comp, len(zs))].append(Seg(starts[-1], hi, False, False))
    else:
        j = i - lines
        length = ambient.circles[j]
        if comp.kind == "whole":
            parts[_gap_side(comp, 0)].append(CircleCell(j, length))
        for k, (p, q) in enumerate(zip(zs, zs[1:] + zs[:1]), start=1):
            parts[_gap_side(comp, k)].append(Arc(j, length, p, q, False, False))
            parts["level"].append(Arc(j, length, q, q, True, True))
    return parts["below"], parts["level"], parts["above"]


def _component_parts_2d(comp: ComponentCut2D,
                        axis: int) -> tuple[list, list, list]:
    """(below, level, above) cells of a planar component's cut over the
    whole plane, before `cut_regions` clips them to the component's boxes.

    The sheets are walls w_1 < ... < w_n: graphs y = w(x) on axis 2, and
    vertical lines x = w on axis 1, which supports only constant sheets.
    With -inf and +inf at the ends, the open band between w_k and w_{k+1}
    lies on the side that k crossings from the first sheet's sign give,
    and each wall is one closed level slab."""
    if axis == 2:
        def slab(lo, hi, closed: bool) -> Slab:
            return Slab(NEG_INF, INF, False, False, lo, hi, closed, closed)
    else:
        def slab(lo, hi, closed: bool) -> Slab:
            return Slab(lo, hi, closed, closed, NEG_INF, INF, False, False)
    parts: dict[str, list] = {"below": [], "level": [], "above": []}
    if comp.kind == "whole":
        parts[comp.whole_sign].append(slab(NEG_INF, INF, False))
        return parts["below"], parts["level"], parts["above"]
    walls = [sheet.graph for sheet in comp.sheets]
    if axis == 1:
        if not all(g.is_constant() for g in walls):
            raise UnsupportedDimensionError(
                "region extraction for a first-axis cut needs vertical "
                "(constant) sheets")
        walls = [g.values[0] for g in walls]
    ends = [NEG_INF, *walls, INF]
    first = comp.sheets[0].sign
    for k in range(len(ends) - 1):
        parts[_side_of_count(first, k)].append(slab(ends[k], ends[k + 1], False))
    parts["level"].extend(slab(w, w, True) for w in walls)
    return parts["below"], parts["level"], parts["above"]


@lru_cache(maxsize=64)
def cut_regions(cut: Cut, ambient: Ambient) -> tuple[PLRegion, PLRegion, PLRegion]:
    """The (below, level, above) partition of the ambient by a cut.

    Each component gives its three parts in one pass.  A 1D partition is
    read straight from the signed zeros, which is correct only for a valid
    cut, so an invalid 1D cut raises ValidationError.  A 2D component's
    parts are its bands and sheets over the whole plane, unclipped, all
    three intersected with the component's boxes by one region_split; a 2D
    cut with one record too few or too many raises ValidationError too.
    The split has the cells three separate intersections would give: a
    part that is not empty has every wall of the component among its
    bounds (graphs over the whole x-line on axis 2, x-ends on axis 1), so
    the joint refinement has the x-events of each part's own refinement
    with the boxes, and within each fibre the coalesced y-runs depend only
    on the points kept.

    The result is memoized on the value of (cut, ambient): both are frozen
    and normalized to exact rationals, and the parts are frozen regions.
    One operation asks for the same partitions many times over (compactness
    slices, cores, globularity, rendering, the order of planar cuts; the
    order of 1D cuts, where they disagree and their slices are read from
    their zeros instead), and the repeats fall within that operation.  So
    the memo is small: on the benchmark workloads (seed 7, 6 rounds) 16
    entries catch every repeat, 187 of 355 planar calls and 6 of 312 linear
    ones, as an unbounded memo does, while a larger memo holds 2D regions
    that are not asked for again.  The bound is also what keeps peak
    memory flat: a memo held on each cut instead raised the linear
    workload's peak RSS past its bound.  An exception is not memoized: an
    invalid cut raises every time."""
    parts: tuple[list, list, list] = ([], [], [])
    if isinstance(cut, Cut1D):
        if not isinstance(ambient, Ambient1D):
            raise ArgumentError("1D cut needs a 1D ambient")
        validate_cut(cut, ambient)
        for i, comp in enumerate(cut.components):
            for part, cells in zip(parts, _component_parts_1d(comp, i, ambient)):
                part.extend(cells)
        return tuple(PLRegion(1, tuple(part)) for part in parts)
    if not isinstance(ambient, Ambient2D):
        raise ArgumentError("2D cut needs a 2D ambient")
    n = ambient.n_components()
    if len(cut.components) != n:
        raise ValidationError(f"cut has {len(cut.components)} component "
                              f"records, ambient has {n} components")
    for ci in range(n):
        comp_parts = _component_parts_2d(cut.components[ci], cut.axis)
        clipped = region_split(component_region(ambient, ci),
                               [PLRegion(2, tuple(cells)) for cells in comp_parts])
        for part, region in zip(parts, clipped):
            part.extend(region.cells)
    return tuple(PLRegion(2, tuple(part)) for part in parts)


# ---------------------------------------------------------------------------
# ordering, transversality, grid validation
# ---------------------------------------------------------------------------


def _component_below_nests(lower: ComponentCut1D,
                           upper: ComponentCut1D) -> bool:
    """below(lower) within below(upper) on one component, by one merge of
    the two zero lists: on each open gap between consecutive merged zeros,
    where both sides are constant (as _gap_side reads them), lower below
    means upper below.  A zero needs no look of its own: lower is level at
    its own zeros, and at a zero of upper alone lower keeps the side of the
    gaps around it, while upper is above on one of them, since its side
    flips at each zero."""
    a, b = lower.zeros, upper.zeros
    i = k = 0
    while i < len(a) or k < len(b):
        if _gap_side(lower, i) == "below" and _gap_side(upper, k) != "below":
            return False
        if k == len(b) or (i < len(a) and a[i][0] < b[k][0]):
            i += 1  # a zero of lower alone
        elif i == len(a) or b[k][0] < a[i][0]:
            k += 1  # a zero of upper alone
        else:
            i += 1
            k += 1
    return _gap_side(lower, i) != "below" or _gap_side(upper, k) == "below"


def tuple_is_ordered(tup: CutTuple, ambient: Ambient) -> bool:
    """C_j <= C_{j+1} for all consecutive cuts (below-regions nest).

    Every cut is validated first, in cut order, also when m == 0 and on
    the plane, so an invalid cut raises validate_cut's ValidationError.  On
    a 1D ambient the order is then read from the signed zeros: each
    consecutive pair is compared on each component by one merge of their
    zero lists.  The sides of both cuts are constant on every open gap
    between consecutive merged zeros, so one look per gap, by _gap_side,
    decides the nesting exactly (see _component_below_nests for the zeros
    themselves).  On a circle the merge starts and ends in the wrap gap.
    Any other ambient compares the below-regions by region_subset."""
    for cut in tup.cuts:
        validate_cut(cut, ambient)
    if tup.m == 0:
        return True
    if isinstance(ambient, Ambient1D) and all(
            isinstance(c, Cut1D) for c in tup.cuts):
        return all(
            _component_below_nests(lo, hi)
            for lower, upper in zip(tup.cuts, tup.cuts[1:])
            for lo, hi in zip(lower.components, upper.components))
    belows = [cut_regions(c, ambient)[0] for c in tup.cuts]
    for j in range(tup.m):
        if not region_subset(belows[j], belows[j + 1]):
            return False
    return True


def _tuple_axis(tup: CutTuple) -> Optional[int]:
    axes = {c.axis for c in tup.cuts if isinstance(c, Cut2D)}
    if len(axes) > 1:
        raise ValidationError("cuts of one tuple must share their axis")
    return axes.pop() if axes else None


def _tuple_max_cross_slope(tup: CutTuple) -> Fraction:
    worst = Fraction(0)
    for cut in tup.cuts:
        if isinstance(cut, Cut2D):
            for comp in cut.components:
                for sheet in comp.sheets:
                    s = sheet.graph.max_abs_slope()
                    if s > worst:
                        worst = s
    return worst


def _tuple_has_level_data(tup: CutTuple) -> bool:
    for cut in tup.cuts:
        if isinstance(cut, Cut2D):
            if any(comp.kind == "sheets" for comp in cut.components):
                return True
        else:
            if any(comp.kind == "zeros" for comp in cut.components):
                return True
    return False


def _transversality_entry(g: CutGrid, i: int, ip: int) -> ReportEntry:
    """Positive-distance transversality surrogate for directions i < ip.

    Tuples on distinct axes pass when the product of their worst
    cross-slopes is < 1 (their level sets can then only meet at isolated
    transversal crossings and cannot share tangent directions).  Tuples
    sharing an axis are only accepted when at most one of them carries
    level data at all.
    """
    ti, tp = g.tuples[i - 1], g.tuples[ip - 1]
    name = f"transversal[{i},{ip}]"
    ai, ap = _tuple_axis(ti), _tuple_axis(tp)
    if ai is not None and ap is not None and ai != ap:
        si, sp = _tuple_max_cross_slope(ti), _tuple_max_cross_slope(tp)
        if si * sp < 1:
            return ReportEntry(name, True)
        return ReportEntry(
            name, False,
            f"cross-slope product {si} * {sp} is not < 1")
    if _tuple_has_level_data(ti) and _tuple_has_level_data(tp):
        return ReportEntry(
            name, False,
            "directions share an axis and both carry level sets")
    return ReportEntry(name, True)


def grid_check(g: CutGrid, ambient: Ambient) -> ValidationReport:
    """Well-formedness report: per-direction cut validity and ordering,
    plus pairwise transversality between directions.

    One pass over the tuples: after the shared-axis check, one
    tuple_is_ordered call per tuple validates its cuts and orders them.  A
    ValidationError or ArgumentError fails cuts-valid[i] with its text and
    skips ordered[i]; an UnsupportedDimensionError passes cuts-valid[i] and
    fails ordered[i] with its text; otherwise both come from the answer.
    The report lists every cuts-valid entry, then every ordered entry, then
    the transversality entries."""
    valid: list[ReportEntry] = []
    ordered: list[ReportEntry] = []
    for i, tup in enumerate(g.tuples, start=1):
        try:
            _tuple_axis(tup)
            ok = tuple_is_ordered(tup, ambient)
            detail = "" if ok else "below-regions do not nest"
        except (ValidationError, ArgumentError) as exc:
            valid.append(ReportEntry(f"cuts-valid[{i}]", False, str(exc)))
            ordered.append(ReportEntry(
                f"ordered[{i}]", False, "skipped: invalid cuts"))
            continue
        except UnsupportedDimensionError as exc:
            ok, detail = False, str(exc)
        valid.append(ReportEntry(f"cuts-valid[{i}]", True))
        ordered.append(ReportEntry(f"ordered[{i}]", ok, detail))
    entries = valid + ordered
    for i in range(1, g.d + 1):
        for ip in range(i + 1, g.d + 1):
            if valid[i - 1].passed and valid[ip - 1].passed:
                entries.append(_transversality_entry(g, i, ip))
            else:
                entries.append(ReportEntry(
                    f"transversal[{i},{ip}]", False, "skipped: invalid cuts"))
    return ValidationReport(tuple(entries))


# ---------------------------------------------------------------------------
# slices, core, compactness
# ---------------------------------------------------------------------------


def _slice_cuts(g: CutGrid, directions: Sequence[int], j: Sequence[int],
                jp: Sequence[int]) -> list[tuple[Cut, Cut]]:
    """(cut j_i, cut jp_i) of each chosen direction, once the directions
    are checked distinct and in range and each pair ordered within its
    tuple."""
    dirs = list(directions)
    if len(set(dirs)) != len(dirs):
        raise ArgumentError("directions must be distinct")
    if len(j) != len(dirs) or len(jp) != len(dirs):
        raise ArgumentError("index lists must match the direction list")
    pairs = []
    for i, lo, hi in zip(dirs, j, jp):
        if not 1 <= i <= g.d:
            raise ArgumentError(f"direction {i} outside 1..{g.d}")
        tup = g.tuples[i - 1]
        if not (0 <= lo <= hi <= tup.m):
            raise ArgumentError(f"bad index pair ({lo}, {hi}) for [{tup.m}]")
        pairs.append((tup.cuts[lo], tup.cuts[hi]))
    return pairs


def kept_region(mg: MonoidalCutGrid, ambient: Ambient) -> PLRegion:
    """Union of the ambient components with a nonzero label."""
    cells: list = []
    for ci, lab in enumerate(mg.labels):
        if lab != 0:
            cells.extend(component_region(ambient, ci).cells)
    return PLRegion(ambient.dim, tuple(cells))


def kept_slice(mg: MonoidalCutGrid, ambient: Ambient,
               directions: Sequence[int],
               j: Sequence[int], jp: Sequence[int]) -> PLRegion:
    """The kept points of the closed slice between cut j_i and cut jp_i of
    each chosen direction (no directions: the kept region).  In a partition
    (above u level) n (below u level) is the ambient minus (below u above),
    so the slice is the kept region minus every chosen direction's
    below(cut j_i) and above(cut jp_i).

    On a 1D ambient whose chosen cuts are all 1D, each cut is validated in
    cut order (raising validate_cut's ValidationError), and _walk_1d keeps
    the points of the kept region where no chosen lower cut is below and
    no chosen upper cut is above, with no partition and no refinement.
    Each circle is unrolled where the refinement of the kept region with
    those parts unrolls it, at its least arc end: the kept region holds
    whole circles only, and crossing signs alternate, also cyclically, so
    every zero of a lower cut ends an arc of below and every zero of an
    upper cut ends an arc of above.  The least zero is therefore the
    refinement's first cut, as in cut_disagreement, and the cells are the
    refinement's, in its order.  Otherwise the kept region and those parts
    are refined once: one region_disagreement with the parts as one
    partition."""
    pairs = _slice_cuts(mg.grid, directions, j, jp)
    cuts = [cut for pair in pairs for cut in pair]  # lower, upper, lower, ...
    if isinstance(ambient, Ambient1D) and all(isinstance(c, Cut1D) for c in cuts):
        for cut in cuts:
            validate_cut(cut, ambient)
        return _walk_1d([(cut, ambient) for cut in cuts],
                        kept_region(mg, ambient), _in_slice)
    outside: list[PLRegion] = []
    for lo_cut, hi_cut in pairs:
        outside += (cut_regions(lo_cut, ambient)[0],
                    cut_regions(hi_cut, ambient)[2])
    return region_disagreement(kept_region(mg, ambient), outside)


def core(mg: MonoidalCutGrid, ambient: Ambient) -> PLRegion:
    """The core: the closed slice between the extreme cuts of every
    direction, restricted to the kept (nonzero-label) components, as
    kept_slice builds it: on a line one merge of the extreme cuts' signed
    zeros, on the plane one refinement."""
    return kept_slice(mg, ambient, range(1, mg.grid.d + 1), [0] * mg.grid.d,
                      [t.m for t in mg.grid.tuples])


def extreme_slices(mg: MonoidalCutGrid, ambient: Ambient) -> list[PLRegion]:
    """Each direction's closed slice between its extreme cuts, as the
    chain of booleans whose cells render shades.  Direction i's piece is
    (above u level)(cut 0) n (below u level)(cut m_i) over the whole
    ambient, and its slice the ambient met with that piece.  The core is
    core's one refinement, not a meet of these slices."""
    amb = ambient_region(ambient)
    slices: list[PLRegion] = []
    for t in mg.grid.tuples:
        _, lo_l, lo_a = cut_regions(t.cuts[0], ambient)
        hi_b, hi_l, _ = cut_regions(t.cuts[-1], ambient)
        piece = region_boolean("intersect", region_boolean("union", lo_a, lo_l),
                               region_boolean("union", hi_b, hi_l))
        slices.append(region_boolean("intersect", amb, piece))
    return slices


def compactness_failures(mg: MonoidalCutGrid,
                         ambient: Ambient) -> list[str]:
    """Index pairs whose closed between-slice (on kept components) is
    not compact inside the ambient, as human-readable strings."""
    return _compactness_failures(
        mg, ambient, all(tuple_is_ordered(t, ambient) for t in mg.grid.tuples))


def _compactness_failures(mg: MonoidalCutGrid, ambient: Ambient,
                          ordered: bool) -> list[str]:
    """compactness_failures, given whether every tuple of the grid is
    ordered, as a caller that has checked it (validate) knows."""
    g = mg.grid
    if ordered:
        # Ordered cuts nest, so every between-slice sits inside the
        # widest one, the core; if that is compact, all of them are.
        if region_is_compact_in(core(mg, ambient), ambient):
            return []
    failures: list[str] = []
    pair_ranges = [
        [(j, jp) for j in range(t.m + 1) for jp in range(j, t.m + 1)]
        for t in g.tuples
    ]
    for combo in itertools.product(*pair_ranges):
        lo = [p[0] for p in combo]
        hi = [p[1] for p in combo]
        restricted = kept_slice(mg, ambient, range(1, g.d + 1), lo, hi)
        if not region_is_compact_in(restricted, ambient):
            pairs = ", ".join(
                f"direction {i}: [{a}..{b}]"
                for i, (a, b) in enumerate(combo, start=1))
            if not region_bounded(restricted):
                why = "slice is unbounded"
            else:
                why = "closure of the slice leaves the ambient"
            failures.append(f"{pairs}: {why}")
    return failures


def is_compact(mg: MonoidalCutGrid, ambient: Ambient) -> bool:
    """Every closed between-slice over kept components is compact
    with closure inside the ambient."""
    return not compactness_failures(mg, ambient)


# ---------------------------------------------------------------------------
# reindexing and relabelling
# ---------------------------------------------------------------------------


def apply_simplicial(mg: MonoidalCutGrid, direction: int,
                     alpha: MonotoneMap) -> MonoidalCutGrid:
    """Reindex one direction's tuple along a monotone map: the new
    j-th cut is the old alpha(j)-th cut."""
    g = mg.grid
    if not 1 <= direction <= g.d:
        raise ArgumentError(f"direction {direction} outside 1..{g.d}")
    tup = g.tuples[direction - 1]
    if alpha.target != tup.m:
        raise ArgumentError(
            f"map targets [{alpha.target}] but the tuple is a [{tup.m}]-tuple")
    new_cuts = tuple(tup.cuts[alpha(j)] for j in range(alpha.source + 1))
    new_tuples = list(g.tuples)
    new_tuples[direction - 1] = CutTuple(new_cuts)
    return replace(mg, grid=CutGrid(tuple(new_tuples)))


def vertex_grid(mg: MonoidalCutGrid, direction: int, j: int) -> MonoidalCutGrid:
    """Collapse one direction to the single cut C_j."""
    tup = mg.grid.tuples[direction - 1]
    return apply_simplicial(
        mg, direction, MonotoneMap(0, tup.m, (j,)))


def relabel(mg: MonoidalCutGrid, u: GammaMorphism) -> MonoidalCutGrid:
    """Post-compose the component labelling with a pointed map of
    finite pointed sets."""
    if u.source != mg.ell:
        raise ArgumentError(
            f"relabelling expects source {mg.ell}, got {u.source}")
    new_labels = tuple(u(lab) for lab in mg.labels)
    return MonoidalCutGrid(mg.grid, u.target, new_labels)


# ---------------------------------------------------------------------------
# globularity
# ---------------------------------------------------------------------------


def _zero_events(comp: ComponentCut1D, i: int) -> list[tuple]:
    """Cut i's events at the zeros of a valid component cut, for
    _sweep_1d: level at zero k, and past it the side of the gap that ends
    at zero k + 1."""
    return [(p, i, "level", _gap_side(comp, k + 1))
            for k, (p, _s) in enumerate(comp.zeros)]


def _sweep_1d(events: list[tuple], cover: int, sides: list, lo, hi,
              keep: Callable[[list], bool]) -> tuple[list[tuple], list[bool]]:
    """The line from lo to hi cut into atoms at the events' points, and
    whether each atom is kept.  Over the first gap, cover counts within's
    cells and sides holds each cut's side (None outside its ambient).  An
    event (c, i, at, past) sets cut i's side at c and past c; with i None,
    it adds at to the count at c and past to the count past c.  An atom is
    kept when within covers it and keep holds of the cuts' sides there:
    _sides_differ for cut_disagreement, _in_slice for kept_slice."""
    # sorted and grouped by exact integer keys, as _lcm_keys keys criticals
    D = math.lcm(*{e[0].denominator for e in events})
    keyed = sorted(((c.numerator * (D // c.denominator), c, *rest)
                    for c, *rest in events), key=itemgetter(0))
    atoms: list[tuple] = []
    kept: list[bool] = []
    for _key, group in itertools.groupby(keyed, itemgetter(0)):
        group = list(group)
        c = group[0][1]
        atoms.append(("iv", lo, c))
        kept.append(cover > 0 and keep(sides))
        count, on = cover, sides.copy()
        for _key, _c, i, at, past in group:
            if i is None:
                count += at
                cover += past
            else:
                on[i], sides[i] = at, past
        atoms.append(("pt", c))
        kept.append(count > 0 and keep(on))
        lo = c
    atoms.append(("iv", lo, hi))
    kept.append(cover > 0 and keep(sides))
    return atoms, kept


def _sides_differ(sides: list) -> bool:
    """cut_disagreement's keep: the cuts do not all put the point on one
    side (a cut outside its ambient among them)."""
    return None in sides or len(set(sides)) > 1


def _in_slice(sides: list) -> bool:
    """kept_slice's keep, its cuts given as (lower, upper) pairs: no lower
    cut puts the point below and no upper cut puts it above."""
    return "below" not in sides[::2] and "above" not in sides[1::2]


def _line_walk(cuts: Sequence[tuple[Cut1D, Ambient1D]], segs: list[Seg],
               keep: Callable[[list], bool]) -> list[Seg]:
    """_walk_1d on the line: within's Segs count over the gaps they span and
    at their closed ends; a cut is outside its ambient before its first
    interval, at each finite end and between intervals, and inside an
    interval sided by its zeros."""
    events: list[tuple] = []
    cover, sides = 0, []
    for s in segs:
        if is_finite(s.lo):
            events.append((s.lo, None, s.lo_closed, 1))
        else:
            cover += 1
        if is_finite(s.hi):
            events.append((s.hi, None, s.hi_closed - 1, -1))
    for i, (cut, ambient) in enumerate(cuts):
        side = None
        for (lo, hi), comp in zip(ambient.intervals, cut.components):
            if is_finite(lo):
                events.append((lo, i, None, _gap_side(comp, 0)))
            else:
                side = _gap_side(comp, 0)
            events += _zero_events(comp, i)
            if is_finite(hi):
                events.append((hi, i, None, None))
        sides.append(side)
    atoms, kept = _sweep_1d(events, cover, sides, NEG_INF, INF, keep)
    return [Seg(*run) for run in _line_runs(atoms, kept)]


def _circle_walk(cuts: Sequence[tuple[Cut1D, Ambient1D]], j: int,
                 L: Fraction, cells: list,
                 keep: Callable[[list], bool]) -> list:
    """_walk_1d on circle #j of circumference L, unrolled as the refinement
    unrolls it: from c0, the least end of within's arcs and of the cuts'
    zeros there (0 if there is none), to c0 + L.  The walk starts in the
    gap before c0, the wrap gap, which within's whole circles and its arcs
    that pass c0 cover; a cut whose ambient has no such circle is outside
    it everywhere."""
    events: list[tuple] = []
    cover, sides, ends = 0, [], []
    for c in cells:
        if isinstance(c, CircleCell):
            cover += 1
            continue
        cover += c.start > c.end
        ends += (c.start, c.end)
        events += [(c.start, None, c.start_closed, 1),
                   (c.end, None, c.end_closed - 1, -1)]
    for i, (cut, ambient) in enumerate(cuts):
        if j < len(ambient.circles) and ambient.circles[j] == L:
            comp = cut.components[len(ambient.intervals) + j]
            sides.append(_gap_side(comp, 0))
            events += _zero_events(comp, i)
            ends += (p for p, _s in comp.zeros)
        else:
            sides.append(None)
    c0 = min(ends, default=Fraction(0))
    events.append((c0, None, 0, 0))
    atoms, kept = _sweep_1d(events, cover, sides, c0 - L, c0 + L, keep)
    return _arc_cells(j, L, atoms[1:], kept[1:])  # from the point c0


def _walk_1d(cuts: Sequence[tuple[Cut1D, Ambient1D]], within: PLRegion,
             keep: Callable[[list], bool]) -> PLRegion:
    """The points of within where keep holds of the sides of valid 1D cuts,
    each over its own ambient: the line and each circle of within walked by
    one sorted merge of within's cell ends, the cuts' ambient ends and
    their zeros, where every side changes.  Gap sides are _gap_side's, as
    in _component_parts_1d.  The atoms are those of a refinement of within
    with the parts keep reads, coalesced as _rebuild coalesces them, so the
    cells are that refinement's, in its order."""
    if within.dim != 1:
        raise ArgumentError("region dimension mismatch")
    segs = [c for c in within.cells if isinstance(c, Seg)]
    circles: dict[tuple[int, Fraction], list] = {}
    for c in within.cells:
        if not isinstance(c, Seg):
            circles.setdefault((c.circle, c.circumference), []).append(c)
    cells = _line_walk(cuts, segs, keep) if segs else []
    for key in sorted(circles):
        cells += _circle_walk(cuts, *key, circles[key], keep)
    return PLRegion(1, tuple(cells))


def cut_disagreement(cuts: Sequence[tuple[Cut, Ambient]], within: PLRegion) -> PLRegion:
    """Points of `within` where the cuts, each over its own ambient, do not
    all classify alike (a point outside some cut's ambient among them);
    none with no cut.

    When every cut and ambient is 1D, each cut is validated in cut order
    (raising validate_cut's ValidationError), and _walk_1d keeps the points
    where the sides differ: the atoms of the refinement of within with
    every cut's partition, so the cells are region_disagreement's, in its
    order.  kept_slice shares the walk.  Otherwise within and every cut's
    partition are refined together once."""
    if not cuts:
        return PLRegion(within.dim, ())
    if not all(isinstance(cut, Cut1D) and isinstance(ambient, Ambient1D)
               for cut, ambient in cuts):
        return region_disagreement(
            within, *(cut_regions(cut, ambient) for cut, ambient in cuts))
    for cut, ambient in cuts:
        validate_cut(cut, ambient)
    return _walk_1d(cuts, within, _sides_differ)


def globularity_failures(mg: MonoidalCutGrid,
                         ambient: Ambient) -> list[str]:
    """For each vertex j of direction 1, direction 2's cuts must agree near
    the vertex core; as the disagreement locus is taken closed and the core
    is compact, that is 'the closed locus misses the core'.  The locus is
    the distinct later cuts' cut_disagreement within the kept region: one
    refinement with their partitions, or on a line one merge of their
    zeros.  The core (cut j's level set, the later closed slice on kept
    components) is never built: one meet query reads those parts, and the
    slice is kept_slice over the later direction alone (on a line one merge
    of the extreme cuts' zeros, on the plane one refinement).
    Its witness, the meet's first atom, is its least point in (x, y) order
    (one inside an open atom has meet points just before it): a point-set
    fact."""
    g = mg.grid
    if g.d > 2:
        raise UnsupportedDimensionError(
            "globularity test implemented for at most 2 directions")
    if g.d <= 1:
        return []
    first, later = g.tuples
    cuts = dict.fromkeys(later.cuts)  # equal cuts cannot disagree
    if len(cuts) < 2:
        return []
    kept = kept_region(mg, ambient)
    diff = cut_disagreement([(cut, ambient) for cut in cuts], kept)
    if not diff.cells:
        return []
    wobble = region_closure(diff)
    between = kept_slice(mg, ambient, (2,), (0,), (later.m,))
    failures: list[str] = []
    for j, cut in enumerate(first.cuts):
        # vertex j's slice (above u level) n (below u level) is the level
        meet = region_sample_point(wobble, cut_regions(cut, ambient)[1], between)
        if meet is not None:
            failures.append(
                f"direction 1, vertex {j}: later cuts disagree arbitrarily "
                f"close to the core (e.g. at {_point_text(meet)})")
    return failures


def _point_text(p) -> str:
    """A point from region_sample_point in exact text: x, (x, y), or a
    point on a circle."""
    if isinstance(p, tuple) and p[0] == "circle":
        return f"circle {p[1]} at {rational_to_text(p[2])}"
    if isinstance(p, tuple):
        return "(" + ", ".join(map(rational_to_text, p)) + ")"
    return rational_to_text(p)


def is_globular(mg: MonoidalCutGrid, ambient: Ambient) -> bool:
    """Later directions' cuts coincide near every earlier vertex core."""
    return not globularity_failures(mg, ambient)


# ---------------------------------------------------------------------------
# affine embeddings and transport of cut data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineMap:
    """Injective affine map of R^dim whose linear part is a signed
    permutation with rational scales: output_i = coeffs[i] *
    input[perm[i]] + shifts[i], coeffs[i] != 0."""

    dim: int
    perm: tuple[int, ...]
    coeffs: tuple[Fraction, ...]
    shifts: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ArgumentError("only dimensions 1 and 2 are supported")
        if sorted(self.perm) != list(range(self.dim)):
            raise ArgumentError(f"bad coordinate permutation {self.perm}")
        cs = tuple(fr(c) for c in self.coeffs)
        ss = tuple(fr(s) for s in self.shifts)
        if len(cs) != self.dim or len(ss) != self.dim:
            raise ArgumentError("coefficient arity mismatch")
        if any(c == 0 for c in cs):
            raise ArgumentError("scale coefficients must be nonzero")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "shifts", ss)
        object.__setattr__(self, "perm", tuple(int(p) for p in self.perm))

    @staticmethod
    def identity(dim: int) -> "AffineMap":
        return AffineMap(dim, tuple(range(dim)),
                         tuple(Fraction(1) for _ in range(dim)),
                         tuple(Fraction(0) for _ in range(dim)))

    @staticmethod
    def line(a, b) -> "AffineMap":
        """x -> a x + b on the line."""
        return AffineMap(1, (0,), (fr(a),), (fr(b),))

    def is_identity(self) -> bool:
        return (self.perm == tuple(range(self.dim))
                and all(c == 1 for c in self.coeffs)
                and all(s == 0 for s in self.shifts))

    def apply(self, point: tuple) -> tuple:
        p = tuple(fr(x) for x in point)
        return tuple(self.coeffs[i] * p[self.perm[i]] + self.shifts[i]
                     for i in range(self.dim))

    def inverse(self) -> "AffineMap":
        perm_inv = [0] * self.dim
        coeffs = [Fraction(1)] * self.dim
        shifts = [Fraction(0)] * self.dim
        for i in range(self.dim):
            j = self.perm[i]
            perm_inv[j] = i
            coeffs[j] = 1 / self.coeffs[i]
            shifts[j] = -self.shifts[i] / self.coeffs[i]
        return AffineMap(self.dim, tuple(perm_inv), tuple(coeffs),
                         tuple(shifts))

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other."""
        if self.dim != other.dim:
            raise ArgumentError("dimension mismatch in composition")
        perm = tuple(other.perm[self.perm[i]] for i in range(self.dim))
        coeffs = tuple(self.coeffs[i] * other.coeffs[self.perm[i]]
                       for i in range(self.dim))
        shifts = tuple(self.coeffs[i] * other.shifts[self.perm[i]]
                       + self.shifts[i] for i in range(self.dim))
        return AffineMap(self.dim, perm, coeffs, shifts)

    def _map_range(self, i: int, lo, hi) -> tuple:
        """Image of the open range (lo, hi) of the input coordinate that
        output coordinate i reads (ends may be inf)."""
        a, b = self.coeffs[i], self.shifts[i]
        p, q = ((a * v + b) if is_finite(v) else (v if a > 0 else -v)
                for v in (lo, hi))
        return (p, q) if a > 0 else (q, p)

    def map_interval(self, lo, hi) -> tuple:
        """Image of an open interval under a 1D map (ends may be inf)."""
        return self._map_range(0, lo, hi)

    def map_box(self, box) -> tuple:
        """Image of an open box under a 2D map."""
        ranges = (box[0:2], box[2:4])
        return (self._map_range(0, *ranges[self.perm[0]])
                + self._map_range(1, *ranges[self.perm[1]]))


@dataclass(frozen=True)
class AmbientEmbedding:
    """An affine-with-signed-permutation map between ambients (the
    identity on any circle components, which must coincide)."""

    source: Ambient
    target: Ambient
    map: AffineMap

    def __post_init__(self) -> None:
        src_dim = self.source.dim
        if self.target.dim != src_dim or self.map.dim != src_dim:
            raise ArgumentError("embedding dimensions do not agree")
        if src_dim == 1:
            assert isinstance(self.source, Ambient1D)
            assert isinstance(self.target, Ambient1D)
            if self.source.circles != self.target.circles:
                raise ArgumentError(
                    "circle components must match up to identity")

    def validate(self) -> None:
        """Check the image of the source lies inside the target.

        On a line each circle goes to itself and each open image interval
        lies inside the target interval holding its representative point
        (_interval_inside); a planar image is refined against the target."""
        img = image_ambient(self.source, self.map)
        if isinstance(img, Ambient1D):
            assert isinstance(self.target, Ambient1D)
            fits = all(_interval_inside(lo, hi, self.target)
                       for lo, hi in img.intervals)
        else:
            fits = region_subset(ambient_region(img), ambient_region(self.target))
        if not fits:
            raise ValidationError(
                "the embedding does not map the source into the target")


def _interval_inside(lo, hi, ambient: Ambient1D) -> bool:
    """Whether the open interval (lo, hi), being connected, lies inside
    one of the ambient's disjoint open intervals, by comparing ends."""
    return any(a <= lo and hi <= b for a, b in ambient.intervals)


def image_ambient(ambient: Ambient, aff: AffineMap) -> Ambient:
    """The image of an ambient under an affine map, as an ambient in its
    own right."""
    if isinstance(ambient, Ambient1D):
        return Ambient1D(tuple(aff.map_interval(lo, hi)
                               for lo, hi in ambient.intervals),
                         ambient.circles)
    return Ambient2D(tuple(aff.map_box(b) for b in ambient.boxes))


def _box_rep(box) -> tuple[Fraction, Fraction]:
    x0, x1, y0, y1 = box
    return (interval_rep(x0, x1), interval_rep(y0, y1))


def _component_images(emb: AmbientEmbedding) -> tuple[tuple, ...]:
    """(target, image) per source component: the target component whose
    label, cut data and field density it takes, and the image: an open
    interval, None for circle j (it goes to the target's circle j), or the
    image boxes.  An interval's target holds the representative point of
    its image, a planar one the image of its first box's representative
    point.  One sample point decides only because the image of a connected
    component is connected and lies inside the target, so call this on an
    embedding that ``validate()`` has accepted."""
    src, tgt, aff = emb.source, emb.target, emb.map
    if isinstance(src, Ambient1D):
        assert isinstance(tgt, Ambient1D)
        lines = (aff.map_interval(lo, hi) for lo, hi in src.intervals)
        return (tuple((tgt.component_of_line_point(interval_rep(*img)), img)
                      for img in lines)
                + tuple((len(tgt.intervals) + j, None)
                        for j in range(len(src.circles))))
    assert isinstance(tgt, Ambient2D)
    return tuple((tgt.component_of_point(*aff.apply(_box_rep(boxes[0]))),
                  tuple(aff.map_box(b) for b in boxes))
                 for boxes in map(src.component_boxes,
                                  range(src.n_components())))


def _transport_component_1d(comp: ComponentCut1D, aff: AffineMap,
                            image) -> ComponentCut1D:
    """Pull a target component's line cut data back to the source
    interval whose image under aff is the open interval image: a zero p
    inside it goes to (p - b) / a for aff: x -> a x + b, its sign flipped
    when a < 0."""
    if comp.kind == "whole":
        return comp
    img_lo, img_hi = image
    a, b = aff.coeffs[0], aff.shifts[0]
    pulled = [((pos - b) / a, _OPPOSITE[sign] if a < 0 else sign)
              for pos, sign in comp.zeros if img_lo < pos < img_hi]
    if not pulled:
        side = _classify_on_interval(comp, interval_rep(img_lo, img_hi))
        return ComponentCut1D("whole", (), side)
    pulled.sort(key=lambda z: z[0])
    return ComponentCut1D("zeros", tuple(pulled))


def _sheet_crosses_component(graph: PLFunc, axis: int, boxes) -> bool:
    """Whether the sheet meets the open boxes: the graph of an axis-1
    sheet is x = graph(y), so its boxes are transposed first.  Over an open
    window a continuous graph's values make an interval with the closed
    hull's infimum and supremum, so it meets the open box exactly when
    that range reaches into the box's open range of values."""
    if axis == 1:
        boxes = [(y0, y1, x0, x1) for x0, x1, y0, y1 in boxes]
    for a0, a1, v0, v1 in boxes:
        lo, hi = plfunc_range_on(graph, a0, a1)
        if lo < v1 and hi > v0:
            return True
    return False


def _transport_component_2d(comp: ComponentCut2D, axis: int, src_axis: int,
                            aff: AffineMap, src_boxes,
                            img_boxes) -> ComponentCut2D:
    """Pull a target component's planar cut data, stratifying the
    target's ``axis``, back to the source component made of src_boxes
    (img_boxes their images), where it stratifies ``src_axis``: each sheet
    that meets the image is rewritten by arithmetic on aff."""
    if comp.kind == "whole":
        return comp
    a, o = axis - 1, 2 - axis   # stratified and graph-argument coordinates
    flip = aff.coeffs[a] < 0
    kept: list[Sheet] = []
    for sheet in comp.sheets:
        if not _sheet_crosses_component(sheet.graph, axis, img_boxes):
            continue
        g = sheet.graph.compose_affine(aff.coeffs[o], aff.shifts[o])
        g = g.add_constant(-aff.shifts[a]).scale(1 / aff.coeffs[a])
        kept.append(Sheet(g, _OPPOSITE[sheet.sign] if flip else sheet.sign))
    if not kept:
        side = _classify_on_box(comp, axis, aff.apply(_box_rep(src_boxes[0])))
        return ComponentCut2D("whole", (), side)
    # strict disjointness over the component makes the order at any one
    # shadow point the order everywhere over it
    probe = interval_rep(*_component_domain_window(src_boxes, src_axis))
    kept.sort(key=lambda s: s.graph(probe))
    return ComponentCut2D("sheets", tuple(kept))


def _pull_cut(cut: Cut, emb: AmbientEmbedding, images: tuple) -> Cut:
    """One cut of the target rewritten on the source: source component
    ci reads the data of target component t on its image, for
    (t, image) = images[ci]; a circle keeps its data."""
    src, aff = emb.source, emb.map
    if isinstance(cut, Cut1D):
        assert isinstance(src, Ambient1D)
        return Cut1D(tuple(
            cut.components[t] if img is None
            else _transport_component_1d(cut.components[t], aff, img)
            for t, img in images))
    assert isinstance(src, Ambient2D)
    src_axis = aff.perm[cut.axis - 1] + 1
    return Cut2D(src_axis, tuple(
        _transport_component_2d(cut.components[t], cut.axis, src_axis, aff,
                                src.component_boxes(ci), img)
        for ci, (t, img) in enumerate(images)))


def pullback_along(mg: MonoidalCutGrid,
                   emb: AmbientEmbedding) -> MonoidalCutGrid:
    """Transport a monoidal grid on the embedding's target back to its
    source.  One pass, _component_images, gives each source component the
    target component holding its image, and that image: the component
    takes that target's label, and its level data restricted to the image
    and rewritten in source coordinates by arithmetic on the map."""
    emb.validate()
    images = _component_images(emb)
    tuples = tuple(CutTuple(tuple(_pull_cut(cut, emb, images)
                                  for cut in tup.cuts))
                   for tup in mg.grid.tuples)
    return MonoidalCutGrid(CutGrid(tuples), mg.ell,
                           tuple(mg.labels[t] for t, _img in images))
