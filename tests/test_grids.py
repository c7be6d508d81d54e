"""Signed cut data: classification, validity, cores, compactness,
globularity, and transport along embeddings."""

import itertools
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cutgrids.errors import (
    ArgumentError,
    ArtifactError,
    NeighborhoodError,
    UnsupportedDimensionError,
    ValidationError,
)
from cutgrids.plgeom import (
    INF,
    NEG_INF,
    Ambient1D,
    Ambient2D,
    Arc,
    CircleCell,
    PLFunc,
    PLRegion,
    Seg,
    Slab,
    _atom_rep,
    _line_atoms,
    _line_runs,
    ambient_region,
    interval_rep,
    is_finite,
    line_region,
    plfunc_zeros,
    region_boolean,
    region_closure,
    region_equal,
    region_components,
    region_is_compact_in,
    region_normalize,
    region_sample_point,
    region_subset,
)
from cutgrids.grids import (
    AffineMap,
    AmbientEmbedding,
    ComponentCut1D,
    ComponentCut2D,
    Cut1D,
    Cut2D,
    CutGrid,
    CutTuple,
    MonoidalCutGrid,
    Sheet,
    apply_simplicial,
    classify_point,
    compactness_failures,
    core,
    cut_regions,
    extreme_slices,
    grid_check,
    image_ambient,
    is_compact,
    is_globular,
    kept_slice,
    pullback_along,
    relabel,
    tuple_is_ordered,
    validate_cut,
    vertex_grid,
)
from cutgrids.shapes import GammaMorphism, MonotoneMap, compose_monotone, gamma_compose
from cutgrids import bordisms, grids, plgeom
from cutgrids.bordisms import (
    CATALOG_NAMES,
    FULL_LINE,
    FULL_PLANE,
    Bordism,
    FieldDatum,
    bordism_pullback,
    catalog,
    embedded_field,
    equivalent,
    is_morphism,
    metric_core_length,
    normalize,
    shrink_to_core,
    validate,
)
from cutgrids.render import render_svg

from oracles import (
    chain_core,
    cuts_agree_part_by_part,
    nearest_zero_ahead_side,
    pairwise_cut_disagreement,
    reference_compactness_failures,
    reference_cut_disagreement,
    reference_cut_regions,
    reference_globularity_failures,
    reference_kept_slice,
    reference_tuple_is_ordered,
    reference_vertex_core,
    refined_kept_slice,
    region_between,
    region_contains_point,
)

F = Fraction


def zeros_cut(*zs):
    return Cut1D((ComponentCut1D("zeros", tuple((F(p), s) for p, s in zs)),))


def whole_cut(side):
    return Cut1D((ComponentCut1D("whole", (), side),))


def wall(x):
    return Cut2D(1, (ComponentCut2D("sheets", (Sheet(PLFunc.constant(x), "+"),)),))


def sheet_at(f):
    return Cut2D(2, (ComponentCut2D("sheets", (Sheet(f, "+"),)),))


# ---------------------------------------------------------------------------
# strategies: random grids that are valid, compact, and globular by build
# ---------------------------------------------------------------------------

def small_fracs(lo, hi):
    return st.integers(4 * lo, 4 * hi).map(lambda n: F(n, 4))


@st.composite
def nested_line_grids(draw):
    # per component, one nondecreasing run of single-zero cuts
    n_components = draw(st.integers(1, 2))
    m = draw(st.integers(0, 3))
    windows = [(F(0), F(10)), (F(20), F(30))][:n_components]
    runs = []
    for lo, hi in windows:
        zs = sorted(draw(st.lists(small_fracs(lo + 1, hi - 1), min_size=m + 1, max_size=m + 1)))
        runs.append(zs)
    cuts = []
    for j in range(m + 1):
        comps = tuple(
            ComponentCut1D("zeros", ((runs[c][j], "+"),)) for c in range(n_components)
        )
        cuts.append(Cut1D(comps))
    ell = draw(st.integers(1, 3))
    labels = tuple(draw(st.integers(0, ell)) for _ in range(n_components))
    ambient = Ambient1D(tuple(windows))
    return MonoidalCutGrid(CutGrid((CutTuple(tuple(cuts)),)), ell, labels), ambient


def alternating(positions, first):
    """Zeros at the given positions, their signs alternating from `first`."""
    other = "-" if first == "+" else "+"
    return tuple((p, first if k % 2 == 0 else other) for k, p in enumerate(positions))


@st.composite
def line_cuts(draw, ambient=None):
    """A 1D ambient of up to two intervals (either outer end may be infinite)
    and up to two circles, unless an ambient is given, with a valid cut:
    interval components carry one to four zeros of either first sign, circle
    components an even number of cyclically alternating zeros (sometimes one
    at 0), and any component may be whole."""
    if ambient is None:
        n_lines = draw(st.integers(0, 2))
        n_circles = draw(st.integers(0 if n_lines else 1, 2))
        ends = sorted(draw(st.sets(st.integers(-12, 12), min_size=2 * n_lines,
                                   max_size=2 * n_lines)))
        intervals = [[F(a), F(b)] for a, b in zip(ends[::2], ends[1::2])]
        if intervals and draw(st.booleans()):
            intervals[0][0] = NEG_INF
        if intervals and draw(st.booleans()):
            intervals[-1][1] = INF
        circles = [F(draw(st.integers(1, 6))) for _ in range(n_circles)]
    else:
        intervals, circles = ambient.intervals, ambient.circles
    wholes = st.sampled_from(["below", "above"]).map(
        lambda side: ComponentCut1D("whole", (), side))
    comps = []
    for lo, hi in intervals:
        if draw(st.integers(0, 4)) == 3:  # one in five, not the shrink target
            comps.append(draw(wholes))
            continue
        # zeros on the quarter grid strictly inside the interval, and within
        # 10 of a finite end (or of 0) where it is infinite
        finite = [int(4 * e) for e in (lo, hi) if e not in (NEG_INF, INF)] or [0]
        zlo = int(4 * lo) + 1 if lo != NEG_INF else min(finite) - 40
        zhi = int(4 * hi) - 1 if hi != INF else max(finite) + 40
        quarters = sorted(draw(st.sets(st.integers(zlo, zhi), min_size=1, max_size=4)))
        first = draw(st.sampled_from("+-"))
        comps.append(ComponentCut1D("zeros", alternating([F(q, 4) for q in quarters], first)))
    for length in circles:
        if draw(st.integers(0, 4)) == 3:  # one in five, not the shrink target
            comps.append(draw(wholes))
            continue
        quarters = draw(st.sets(st.integers(0, int(4 * length) - 1), min_size=2, max_size=4))
        if draw(st.booleans()):
            quarters.add(0)
        quarters = sorted(quarters)
        if len(quarters) % 2:
            quarters.pop()
        first = draw(st.sampled_from("+-"))
        comps.append(ComponentCut1D("zeros", alternating([F(q, 4) for q in quarters], first)))
    if ambient is None:
        ambient = Ambient1D(tuple(map(tuple, intervals)), tuple(circles))
    return Cut1D(tuple(comps)), ambient


@st.composite
def wall_plane_grids(draw):
    m1 = draw(st.integers(0, 2))
    walls = sorted(draw(st.lists(small_fracs(-5, 5), min_size=m1 + 1, max_size=m1 + 1)))
    h = draw(small_fracs(-3, 3))
    grid = CutGrid((
        CutTuple(tuple(wall(w) for w in walls)),
        CutTuple((sheet_at(PLFunc.constant(h)),)),
    ))
    ell = draw(st.integers(1, 2))
    return MonoidalCutGrid(grid, ell, (draw(st.integers(0, ell)),)), FULL_PLANE


@st.composite
def valid_grids(draw):
    which = draw(st.integers(0, 2))
    if which == 0:
        return draw(nested_line_grids())
    if which == 1:
        return draw(wall_plane_grids())
    b = catalog("composable_pair_2d", F(draw(st.integers(1, 7)), 8))
    return b.mgrid, b.ambient


@st.composite
def operator_for(draw, mg):
    direction = draw(st.integers(1, mg.d))
    m = mg.grid.tuples[direction - 1].m
    source = draw(st.integers(0, 3))
    values = tuple(sorted(draw(st.lists(st.integers(0, m), min_size=source + 1, max_size=source + 1))))
    return direction, MonotoneMap(source, m, values)


@st.composite
def grid_with_operator(draw):
    mg, ambient = draw(valid_grids())
    direction, alpha = draw(operator_for(mg))
    return mg, ambient, direction, alpha


# ---------------------------------------------------------------------------
# pointwise classification
# ---------------------------------------------------------------------------

def test_classification_on_an_interval():
    cut = zeros_cut((0, "+"), (1, "-"))
    assert classify_point(cut, FULL_LINE, -1) == "below"
    assert classify_point(cut, FULL_LINE, 0) == "level"
    assert classify_point(cut, FULL_LINE, F(1, 2)) == "above"
    assert classify_point(cut, FULL_LINE, 1) == "level"
    assert classify_point(cut, FULL_LINE, 2) == "below"


def test_classification_on_a_circle():
    amb = Ambient1D((), (F(4),))
    cut = Cut1D((ComponentCut1D("zeros", ((F(1), "+"), (F(3), "-"))),))
    got = {th: classify_point(cut, amb, ("circle", 0, th)) for th in (0, 1, 2, 3, F(7, 2))}
    assert got == {0: "below", 1: "level", 2: "above", 3: "level", F(7, 2): "below"}


def test_classification_rejects_an_unknown_circle():
    amb = Ambient1D(((0, 10),), (F(4),))
    cut = Cut1D((ComponentCut1D("zeros", ((F(5), "+"),)),
                 ComponentCut1D("whole", (), "above")))
    assert classify_point(cut, amb, ("circle", 0, 1)) == "above"
    for idx in (-1, 1):
        with pytest.raises(ArgumentError, match=f"no circle {idx} "):
            classify_point(cut, amb, ("circle", idx, 1))


def test_classification_of_whole_component():
    assert classify_point(whole_cut("above"), FULL_LINE, 17) == "above"
    assert classify_point(whole_cut("below"), FULL_LINE, 17) == "below"


@st.composite
def circle_cuts(draw):
    """line_cuts over one to three circles and no interval."""
    circles = draw(st.lists(st.integers(1, 6).map(F), min_size=1, max_size=3))
    return draw(line_cuts(Ambient1D((), tuple(circles))))


@given(circle_cuts())
@settings(max_examples=200, deadline=None)
def test_circle_sides_are_those_of_the_nearest_zero_ahead(cut_amb):
    """classify_point on a circle, read as an interval at theta mod L,
    against the nearest zero ahead: at every zero, at one point per gap,
    at 0 and 1/8 before L in the wrap gap, and each shifted by L and -L."""
    cut, ambient = cut_amb
    for j, length in enumerate(ambient.circles):
        comp = cut.components[j]
        zs = [p for p, _s in comp.zeros]
        wrapped = zs[1:] + [zs[0] + length] if zs else []
        thetas = zs + [interval_rep(a, b) % length for a, b in zip(zs, wrapped)]
        for theta in thetas + [F(0), length - F(1, 8)]:
            want = nearest_zero_ahead_side(comp, length, theta)
            for shift in (0, length, -length):
                point = ("circle", j, theta + shift)
                assert classify_point(cut, ambient, point) == want, (comp, point)


def test_classification_on_a_box():
    b = catalog("point2d")
    horizontal = b.mgrid.grid.tuples[0].cuts[0]
    assert classify_point(horizontal, b.ambient, (3, -1)) == "below"
    assert classify_point(horizontal, b.ambient, (3, 0)) == "level"
    assert classify_point(horizontal, b.ambient, (3, 2)) == "above"


def partition_probes(cut, ambient):
    """Every zero, a point inside every gap between zeros (or of a whole
    component), and the finite ends of the intervals, which lie outside."""
    probes = []
    for i, comp in enumerate(cut.components):
        zs = [p for p, _s in comp.zeros]
        if i < len(ambient.intervals):
            lo, hi = ambient.intervals[i]
            stops = [lo, *zs, hi]
            probes += zs + [interval_rep(a, b) for a, b in zip(stops, stops[1:])]
            probes += [end for end in (lo, hi) if end not in (NEG_INF, INF)]
            continue
        j = i - len(ambient.intervals)
        length = ambient.circles[j]
        if not zs:
            probes.append(("circle", j, length / 2))
            continue
        wrapped = zs[1:] + [zs[0] + length]  # the last gap wraps past 0
        probes += [("circle", j, p) for p in zs]
        probes += [("circle", j, interval_rep(a, b) % length)
                   for a, b in zip(zs, wrapped)]
    return probes


@given(line_cuts(), st.integers(-120, 120))
def test_sides_partition_the_ambient(cut_amb, num):
    """below, level and above cover each point of the ambient exactly once,
    as classify_point sides it, and miss every point outside."""
    cut, ambient = cut_amb
    parts = cut_regions(cut, ambient)
    for point in partition_probes(cut, ambient) + [F(num, 8)]:
        memberships = [region_contains_point(r, point) for r in parts]
        if not isinstance(point, tuple):
            try:
                ambient.component_of_line_point(point)
            except ArgumentError:
                assert memberships.count(True) == 0
                continue
        assert memberships.count(True) == 1
        side = classify_point(cut, ambient, point)
        assert memberships[("below", "level", "above").index(side)]


def level_xs(g, y):
    """The x where the PL function g takes the value y, read from its
    breakpoints, values and tail slopes: each isolated solution, and the
    ends of a piece that is level at y."""
    bps, vals = g.breakpoints, g.values
    out = set()
    for (a, va), (b, vb) in zip(zip(bps, vals), zip(bps[1:], vals[1:])):
        if va == vb == y:
            out |= {a, b}
        elif min(va, vb) <= y <= max(va, vb):
            out.add(a + (y - va) * (b - a) / (vb - va))
    for end, value, slope, side in ((bps[0], vals[0], g.left_slope, -1),
                                    (bps[-1], vals[-1], g.right_slope, 1)):
        if value == y:
            out.add(end)
        elif slope and (y - value) / slope * side > 0:
            out.add(end + (y - value) / slope)
    return out


def around(values):
    """Each value, the midpoint between each two neighbours, and one point
    beyond either end: a probe of every piece of the line they cut."""
    vs = sorted(set(values)) or [F(0)]
    return vs + [(a + b) / 2 for a, b in zip(vs, vs[1:])] + [vs[0] - 1, vs[-1] + 1]


def plane_partition_probes(cut, ambient):
    """Points of the plane read from the cut data alone.  The x-events are
    the boxes' finite x-sides and, for vertical walls (axis 1), each wall,
    else each sheet's breakpoints and where a sheet meets a box's finite
    y-side; at each event, between events and beyond them, the probes are
    the boxes' finite y-sides and the sheets' values there, the midpoints
    between them and a point beyond either end.  Sheets of one component
    never cross, so each side is constant between probes."""
    box_xs = {e for box in ambient.boxes for e in box[:2] if e not in (NEG_INF, INF)}
    box_ys = {e for box in ambient.boxes for e in box[2:] if e not in (NEG_INF, INF)}
    graphs = [s.graph for comp in cut.components for s in comp.sheets]
    if cut.axis == 1:
        xs = box_xs | {g.values[0] for g in graphs}
    else:
        xs = box_xs | {b for g in graphs for b in g.breakpoints}
        xs |= {x for g in graphs for y in box_ys for x in level_xs(g, y)}
    for x in around(xs):
        heights = box_ys | ({g(x) for g in graphs} if cut.axis == 2 else set())
        for y in around(heights):
            yield x, y


@given(st.deferred(lambda: plane_cuts()))
@settings(max_examples=60, deadline=None)
def test_plane_sides_partition_the_ambient(cut_amb):
    """below, level and above cover each probe inside the ambient exactly
    once, as classify_point sides it, and miss each probe outside, with the
    probes taken from the cut data, not from the parts' cells."""
    cut, ambient = cut_amb
    parts = cut_regions(cut, ambient)
    for x, y in plane_partition_probes(cut, ambient):
        memberships = [region_contains_point(r, (x, y)) for r in parts]
        if not any(x0 < x < x1 and y0 < y < y1 for x0, x1, y0, y1 in ambient.boxes):
            assert memberships.count(True) == 0
            continue
        assert memberships.count(True) == 1
        side = classify_point(cut, ambient, (x, y))
        assert memberships[("below", "level", "above").index(side)]


# ---------------------------------------------------------------------------
# cut validation
# ---------------------------------------------------------------------------

def test_cut_validation_messages():
    with pytest.raises(ValidationError, match="strictly increase"):
        validate_cut(zeros_cut((1, "+"), (0, "-")), FULL_LINE)
    with pytest.raises(ValidationError, match="alternate"):
        validate_cut(zeros_cut((0, "+"), (1, "+")), FULL_LINE)
    with pytest.raises(ValidationError, match="component records"):
        validate_cut(Cut1D(()), FULL_LINE)
    window = Ambient1D(((0, 1),))
    with pytest.raises(ValidationError, match="outside the component"):
        validate_cut(zeros_cut((2, "+")), window)


def test_circle_cut_needs_even_cyclically_alternating_zeros():
    amb = Ambient1D((), (F(4),))
    odd = Cut1D((ComponentCut1D("zeros", ((F(1), "+"),)),))
    with pytest.raises(ValidationError, match="even number"):
        validate_cut(odd, amb)
    non_cyclic = Cut1D(
        (ComponentCut1D("zeros", ((F(0), "+"), (F(1), "-"), (F(2), "+"), (F(3), "+"))),)
    )
    with pytest.raises(ValidationError, match="alternate"):
        validate_cut(non_cyclic, amb)
    good = Cut1D((ComponentCut1D("zeros", ((F(0), "+"), (F(2), "-"))),))
    validate_cut(good, amb)


CIRCLE4 = Ambient1D((), (F(4),))


@pytest.mark.parametrize("cut, ambient, message", [
    (zeros_cut((1, "+"), (0, "-")), FULL_LINE, "strictly increase"),
    (zeros_cut((0, "+"), (1, "+")), FULL_LINE, "alternate"),
    (Cut1D(()), FULL_LINE, "component records"),
    (Cut1D(whole_cut("below").components * 2), FULL_LINE, "component records"),
    (zeros_cut((2, "+")), Ambient1D(((0, 1),)), "outside the component"),
    (zeros_cut((1, "+")), CIRCLE4, "even number"),
    (zeros_cut((0, "+"), (1, "-"), (2, "+"), (3, "+")), CIRCLE4, "alternate"),
])
def test_cut_regions_rejects_invalid_1d_cuts(cut, ambient, message):
    """The 1D partition is read from the zeros, so an invalid cut raises
    instead of giving a partition it does not define, and raises again on
    a second call, since the memo keeps no exception."""
    for _ in range(2):
        with pytest.raises(ValidationError, match=message):
            cut_regions(cut, ambient)


def test_cut_regions_memo_computes_each_partition_once(monkeypatch):
    asked = set()

    def recording(cut, ambient):
        asked.add((cut, ambient))
        return cut_regions(cut, ambient)

    monkeypatch.setattr(grids, "cut_regions", recording)
    cut_regions.cache_clear()
    bordism = catalog("composable_pair_2d")
    assert validate(bordism).passed
    info = cut_regions.cache_info()
    assert info.misses == len(asked) > 0
    assert info.hits > 0
    # a value-equal cut built apart from the first is served the same parts
    cut = bordism.mgrid.grid.tuples[0].cuts[0]
    rebuilt = Cut2D(cut.axis, tuple(
        ComponentCut2D(comp.kind, tuple(
            Sheet(PLFunc(s.graph.breakpoints, s.graph.values,
                         s.graph.left_slope, s.graph.right_slope), s.sign)
            for s in comp.sheets), comp.whole_sign)
        for comp in cut.components))
    assert rebuilt == cut and rebuilt is not cut
    parts = cut_regions(rebuilt, bordism.ambient)
    assert parts is cut_regions(cut, bordism.ambient)
    assert cut_regions.cache_info().misses == info.misses


# ---------------------------------------------------------------------------
# 2D partitions against clipped box bands
# ---------------------------------------------------------------------------

def positive_part(f):
    """max(f, 0) as a PL function."""
    xs = sorted({*f.breakpoints, F(0), *plfunc_zeros(f)})

    def tail(x, slope):
        return slope if f(x) >= 0 else 0

    return PLFunc(tuple(xs), tuple(max(f(x), 0) for x in xs),
                  tail(xs[0] - 1, f.left_slope), tail(xs[-1] + 1, f.right_slope))


def clip_below(g, c):
    """max(g, c) for a finite c."""
    return positive_part(g.add_constant(-c)).add_constant(c)


def clip_above(g, c):
    """min(g, c) for a finite c."""
    return positive_part(g.neg().add_constant(c)).neg().add_constant(c)


def cells_from_predicate(criticals, pred):
    """{x : pred(x)} as segments, pred being constant between consecutive
    critical coordinates: the predicate atomization that the clipped level
    sets were once built by."""
    atoms, _ = _line_atoms(criticals)
    included = [pred(_atom_rep(a)) for a in atoms]
    return tuple(Seg(*run) for run in _line_runs(atoms, included))


def strict_between(f, v0, v1, a0, a1):
    """{a0 < x < a1 : v0 < f(x) < v1} as line segments."""
    crit = set(f.breakpoints) | {e for e in (a0, a1) if e not in (NEG_INF, INF)}
    for v in (v0, v1):
        if v not in (NEG_INF, INF):
            crit |= set(plfunc_zeros(f.add_constant(-v)))
    return cells_from_predicate(
        crit, lambda x: a0 < x < a1 and v0 < f(x) < v1)


def box_parts(comp, axis, box):
    """(below, level, above) cells of one box, each band clipped to the box
    by pointwise max and min and each level cut to where its graph lies
    strictly inside the box."""
    x0, x1, y0, y1 = box
    ylo = PLFunc.constant(y0) if y0 != NEG_INF else NEG_INF
    yhi = PLFunc.constant(y1) if y1 != INF else INF
    parts = {"below": [], "level": [], "above": []}

    def band(lo, hi):
        return Slab(lo[0], hi[0], False, False, lo[1], hi[1], False, False)

    if comp.kind == "whole":
        parts[comp.whole_sign].append(band((x0, ylo), (x1, yhi)))
        return parts["below"], parts["level"], parts["above"]
    first, n = comp.sheets[0].sign, len(comp.sheets)

    def sign(k):
        # the band above k sheets: below under a '+' first sheet, the side
        # flipping at each sheet crossed
        return "below" if (k % 2 == 0) == (first == "+") else "above"

    if axis == 2:
        for sheet in comp.sheets:
            for seg in strict_between(sheet.graph, y0, y1, x0, x1):
                parts["level"].append(Slab(
                    seg.lo, seg.hi, seg.lo_closed, seg.hi_closed,
                    sheet.graph, sheet.graph, True, True))
        for k in range(n + 1):
            lower = ylo if k == 0 else comp.sheets[k - 1].graph
            upper = yhi if k == n else comp.sheets[k].graph
            if k and y0 != NEG_INF:
                lower = clip_below(lower, y0)
            if k < n and y1 != INF:
                upper = clip_above(upper, y1)
            parts[sign(k)].append(band((x0, lower), (x1, upper)))
    else:
        walls = [sheet.graph.values[0] for sheet in comp.sheets]
        for c in walls:
            if x0 < c < x1:
                parts["level"].append(Slab(c, c, True, True, ylo, yhi, False, False))
        for k in range(n + 1):
            lo = x0 if k == 0 else max(x0, walls[k - 1])
            hi = x1 if k == n else min(walls[k], x1)
            if lo < hi:
                parts[sign(k)].append(band((lo, ylo), (hi, yhi)))
    return parts["below"], parts["level"], parts["above"]


def clipped_cut_regions(cut, ambient):
    parts = ([], [], [])
    for ci, comp in enumerate(cut.components):
        for box in ambient.component_boxes(ci):
            for part, cells in zip(parts, box_parts(comp, cut.axis, box)):
                part.extend(cells)
    return tuple(region_normalize(PLRegion(2, tuple(p))) for p in parts)


@st.composite
def graphs(draw):
    """A PL function with up to three breakpoints on the quarter grid in
    [-4, 4] and tail slopes in [-2, 2]."""
    xs = sorted(draw(st.sets(small_fracs(-4, 4), min_size=1, max_size=3)))
    return PLFunc(tuple(xs), tuple(draw(small_fracs(-4, 4)) for _ in xs),
                  draw(small_fracs(-2, 2)), draw(small_fracs(-2, 2)))


def box_ends(draw):
    """One side pair of a box on the integers in [-4, 4], either end
    sometimes infinite."""
    lo, hi = sorted(draw(st.sets(st.integers(-4, 4), min_size=2, max_size=2)))
    return (NEG_INF if draw(st.integers(0, 3)) == 0 else F(lo),
            INF if draw(st.integers(0, 3)) == 0 else F(hi))


@st.composite
def plane_cuts(draw, ambient=None):
    """One to three boxes (overlapping ones form one component), unless an
    ambient is given, and a valid cut of either axis: per component, one in
    five whole, else one to three sheets of alternating signs, constant on
    axis 1 and any PL graphs stacked strictly upwards on axis 2."""
    if ambient is None:
        ambient = Ambient2D(tuple((*box_ends(draw), *box_ends(draw))
                                  for _ in range(draw(st.integers(1, 3)))))
    axis = draw(st.sampled_from((1, 2)))
    comps = []
    for _ in range(ambient.n_components()):
        if draw(st.integers(0, 4)) == 0:
            comps.append(ComponentCut2D(
                "whole", (), draw(st.sampled_from(("below", "above")))))
            continue
        n = draw(st.integers(1, 3))
        if axis == 1:
            walls = sorted(draw(st.sets(small_fracs(-5, 5), min_size=n, max_size=n)))
            stack = [PLFunc.constant(w) for w in walls]
        else:
            stack = [draw(graphs())]
            for _ in range(n - 1):
                gap = positive_part(draw(graphs())).add_constant(draw(small_fracs(1, 2)))
                stack.append(stack[-1].add(gap))
        first = draw(st.sampled_from("+-"))
        comps.append(ComponentCut2D("sheets", tuple(
            Sheet(g, s) for g, (_p, s) in zip(stack, alternating(stack, first)))))
    cut = Cut2D(axis, tuple(comps))
    validate_cut(cut, ambient)
    return cut, ambient


@given(plane_cuts())
@settings(max_examples=150, deadline=None)
def test_plane_parts_equal_the_clipped_box_bands(cut_amb):
    cut, ambient = cut_amb
    got = cut_regions(cut, ambient)
    for part, reference in zip(got, clipped_cut_regions(cut, ambient)):
        assert region_equal(part, reference)


@given(plane_cuts())
@settings(max_examples=150, deadline=None)
def test_one_split_per_component_gives_the_cells_of_three_intersections(cut_amb):
    # multi-box components, whole components and axis-1 walls included;
    # the cells themselves are equal, not only their points
    cut, ambient = cut_amb
    assert cut_regions.__wrapped__(cut, ambient) == reference_cut_regions(cut, ambient)


def test_a_cold_plane_partition_refines_each_component_once(monkeypatch):
    # two overlapping boxes make one component, a third box another
    ambient = Ambient2D(((0, 2, 0, 2), (1, 3, 1, 3), (5, 6, NEG_INF, INF)))
    cut = Cut2D(2, (
        ComponentCut2D("sheets", (Sheet(PLFunc.from_points([(0, 1), (3, 2)]), "+"),
                                  Sheet(PLFunc.constant(F(5, 2)), "-"))),
        ComponentCut2D("whole", (), "above")))
    calls = []
    real = plgeom._x_atoms
    monkeypatch.setattr(plgeom, "_x_atoms",
                        lambda regions: calls.append(regions) or real(regions))
    parts = cut_regions.__wrapped__(cut, ambient)
    assert len(calls) == ambient.n_components() == 2
    assert all(p.cells for p in parts)


@given(plane_cuts(), st.sampled_from((1, 2)))
@settings(max_examples=150, deadline=None)
def test_sheet_crossing_matches_the_strict_between_test(cut_amb, axis):
    cut, ambient = cut_amb
    boxes = ambient.boxes
    flipped = boxes if axis == 2 else [(y0, y1, x0, x1) for x0, x1, y0, y1 in boxes]
    for comp in cut.components:
        for sheet in comp.sheets:
            expected = any(strict_between(sheet.graph, v0, v1, a0, a1)
                           for a0, a1, v0, v1 in flipped)
            assert grids._sheet_crosses_component(sheet.graph, axis, boxes) == expected


def test_first_axis_parts_need_vertical_sheets():
    slanted = Cut2D(1, (ComponentCut2D("sheets", (Sheet(PLFunc.affine(1, 0), "+"),)),))
    with pytest.raises(UnsupportedDimensionError, match="vertical"):
        cut_regions(slanted, FULL_PLANE)


def test_sheet_stack_must_be_strictly_ordered():
    crossing = Cut2D(
        2,
        (ComponentCut2D(
            "sheets",
            (Sheet(PLFunc.affine(1, 0), "+"), Sheet(PLFunc.affine(-1, 1), "-")),
        ),),
    )
    with pytest.raises(ValidationError, match="strictly ordered"):
        validate_cut(crossing, FULL_PLANE)
    stacked = Cut2D(
        2,
        (ComponentCut2D(
            "sheets",
            (Sheet(PLFunc.constant(0), "+"), Sheet(PLFunc.constant(1), "-")),
        ),),
    )
    validate_cut(stacked, FULL_PLANE)


def test_component_cut_constructor_guards():
    with pytest.raises(ArgumentError):
        ComponentCut1D("zeros", ())
    with pytest.raises(ArgumentError):
        ComponentCut1D("whole", ((F(0), "+"),))
    with pytest.raises(ArgumentError):
        ComponentCut1D("zeros", ((F(0), "?"),))
    with pytest.raises(ArgumentError):
        CutTuple(())
    with pytest.raises(ArgumentError):
        MonoidalCutGrid(CutGrid((CutTuple((whole_cut("below"),)),)), 1, (2,))


@pytest.mark.parametrize("cls, level, item", [
    (ComponentCut1D, "zeros", (F(0), "+")),
    (bordisms.FamComponentCut1D, "zeros", (PLFunc.constant(0), "+")),
    (ComponentCut2D, "sheets", Sheet(PLFunc.constant(0), "+")),
])
def test_component_cut_records_give_one_message_per_fault(cls, level, item):
    """The three record types check kind, items, side and item count alike,
    each fault with its own message."""
    one = level[:-1]
    for args, message in (
            (("kinds", ()), "bad component cut kind 'kinds'"),
            (("whole", (item,), "below"), f"whole-component cut cannot carry {level}"),
            (("whole", (), "level"), "bad whole_sign 'level'"),
            ((level, ()), f"kind='{level}' requires at least one {one}")):
        with pytest.raises(ArgumentError) as info:
            cls(*args)
        assert str(info.value) == message
    assert cls(level, [item]).kind == level


# ---------------------------------------------------------------------------
# ordering and transversality
# ---------------------------------------------------------------------------

def test_tuple_ordering_detects_swapped_cuts():
    nested = CutTuple((zeros_cut((0, "+")), zeros_cut((1, "+"))))
    swapped = CutTuple((zeros_cut((1, "+")), zeros_cut((0, "+"))))
    assert tuple_is_ordered(nested, FULL_LINE) is True
    assert tuple_is_ordered(swapped, FULL_LINE) is False
    report = grid_check(CutGrid((swapped,)), FULL_LINE)
    (failure,) = report.failures()
    assert failure.name == "ordered[1]"
    assert failure.detail == "below-regions do not nest"


def test_steep_cross_slopes_fail_transversality():
    steep1 = Cut2D(1, (ComponentCut2D("sheets", (Sheet(PLFunc.affine(2, 0), "+"),)),))
    steep2 = Cut2D(2, (ComponentCut2D("sheets", (Sheet(PLFunc.affine(2, 5), "+"),)),))
    grid = CutGrid((CutTuple((steep1,)), CutTuple((steep2,))))
    report = grid_check(grid, FULL_PLANE)
    entry = next(e for e in report.entries if e.name == "transversal[1,2]")
    assert entry.passed is False
    assert entry.detail == "cross-slope product 2 * 2 is not < 1"


def test_shared_axis_with_two_level_sets_fails_transversality():
    grid = CutGrid((
        CutTuple((zeros_cut((0, "+")),)),
        CutTuple((zeros_cut((1, "+")),)),
    ))
    report = grid_check(grid, FULL_LINE)
    entry = next(e for e in report.entries if e.name == "transversal[1,2]")
    assert entry.passed is False
    assert entry.detail == "directions share an axis and both carry level sets"


def test_shared_axis_with_one_level_set_passes():
    grid = CutGrid((
        CutTuple((zeros_cut((0, "+")),)),
        CutTuple((whole_cut("below"),)),
    ))
    report = grid_check(grid, FULL_LINE)
    assert report.passed


def test_gentle_cross_slopes_pass():
    g1 = Cut2D(1, (ComponentCut2D("sheets", (Sheet(PLFunc.affine(F(1, 2), 0), "+"),)),))
    g2 = Cut2D(2, (ComponentCut2D("sheets", (Sheet(PLFunc.affine(F(1, 2), 5), "+"),)),))
    report = grid_check(CutGrid((CutTuple((g1,)), CutTuple((g2,)))), FULL_PLANE)
    assert report.passed


# ---------------------------------------------------------------------------
# between-regions, cores, compactness
# ---------------------------------------------------------------------------

def test_between_region_of_interval_triple():
    b = catalog("triangle_interval")
    g, amb = b.mgrid.grid, b.ambient
    outer = region_between(g, amb, (1,), (0,), (2,))
    assert region_equal(outer, line_region(Seg(-1, 1, True, True)))
    lower = region_between(g, amb, (1,), (0,), (1,))
    assert region_equal(
        lower, line_region(Seg(-1, -1, True, True), Seg(0, 1, True, True))
    )
    with pytest.raises(ArgumentError):
        region_between(g, amb, (1,), (0,), (3,))
    with pytest.raises(ArgumentError):
        region_between(g, amb, (2,), (0,), (1,))


def test_core_oracles():
    pt = catalog("point1d")
    assert region_equal(core(pt.mgrid, pt.ambient), line_region(Seg(0, 0, True, True)))
    elbow = catalog("elbow_right")
    assert region_equal(core(elbow.mgrid, elbow.ambient), line_region(Seg(0, 1, True, True)))
    dropped = MonoidalCutGrid(pt.mgrid.grid, pt.mgrid.ell, (0,))
    assert region_sample_point(core(dropped, pt.ambient)) is None


def test_unbounded_slice_is_reported():
    line_mg = MonoidalCutGrid(
        CutGrid((CutTuple((whole_cut("above"), whole_cut("below"))),)), 1, (1,)
    )
    assert compactness_failures(line_mg, FULL_LINE) == [
        "direction 1: [0..1]: slice is unbounded"
    ]
    assert is_compact(line_mg, FULL_LINE) is False


def test_escaping_closure_is_reported():
    window = Ambient1D(((0, 1),))
    grasping = MonoidalCutGrid(
        CutGrid((CutTuple((whole_cut("above"), whole_cut("below"))),)), 1, (1,)
    )
    failures = compactness_failures(grasping, window)
    assert failures == ["direction 1: [0..1]: closure of the slice leaves the ambient"]


def labels_that_may_drop():
    """A label of a two-label grid, 0 (dropped) one time in three."""
    return st.sampled_from((1, 2, 0))


@st.composite
def line_grids(draw):
    """One or two directions of one to three valid cuts each over one 1D
    ambient from line_cuts (circles included), in any order, with labels
    that may drop components."""
    _cut, ambient = draw(line_cuts())
    tuples = tuple(
        CutTuple(tuple(draw(line_cuts(ambient))[0]
                       for _ in range(draw(st.integers(1, 3)))))
        for _ in range(draw(st.integers(1, 2))))
    labels = tuple(draw(labels_that_may_drop()) for _ in range(ambient.n_components()))
    return MonoidalCutGrid(CutGrid(tuples), 2, labels), ambient


@st.composite
def one_sheet_cuts(draw, axis):
    """A cut of one box on the given axis: one in five whole, else one
    sheet of either sign, a wall on axis 1 and a graph from graphs on
    axis 2."""
    if draw(st.integers(0, 4)) == 0:
        comp = ComponentCut2D("whole", (), draw(st.sampled_from(("below", "above"))))
    else:
        graph = PLFunc.constant(draw(small_fracs(-5, 5))) if axis == 1 else draw(graphs())
        comp = ComponentCut2D("sheets", (Sheet(graph, draw(st.sampled_from("+-"))),))
    return Cut2D(axis, (comp,))


@st.composite
def plane_grids(draw):
    """One box from box_ends with one or two directions of one or two
    one-sheet cuts each, in any order, each tuple on one axis, and a label
    that may drop the box.  Deeper sheet stacks are left out: the
    reference's chained booleans multiply cells, so one three-sheet cut of
    an unbounded box gives a slice of tens of thousands of cells that takes
    half a minute to build and compare, and grids of several such cuts ran
    past 4 GB."""
    ambient = Ambient2D(((*box_ends(draw), *box_ends(draw)),))
    tuples = []
    for _ in range(draw(st.integers(1, 2))):
        cuts = one_sheet_cuts(draw(st.sampled_from((1, 2))))
        tuples.append(CutTuple(tuple(draw(cuts) for _ in range(draw(st.integers(1, 2))))))
    return MonoidalCutGrid(CutGrid(tuple(tuples)), 2, (draw(labels_that_may_drop()),)), ambient


def slice_index_lists(g):
    """Every set of directions, none among them, with every index pair
    j <= jp of each: (directions, j, jp)."""
    for k in range(g.d + 1):
        for dirs in itertools.combinations(range(1, g.d + 1), k):
            for combo in itertools.product(*(
                    [(j, jp) for j in range(g.tuples[i - 1].m + 1)
                     for jp in range(j, g.tuples[i - 1].m + 1)] for i in dirs)):
                yield dirs, [a for a, _ in combo], [b for _, b in combo]


def check_slices_match_the_chained_reference(mg, ambient):
    """For every set of directions and every index pair of each, the
    one-refinement slice has the chained slice's points; and compactness
    reports what the chained slices give."""
    for dirs, j, jp in slice_index_lists(mg.grid):
        assert region_equal(kept_slice(mg, ambient, dirs, j, jp),
                            reference_kept_slice(mg, ambient, dirs, j, jp))
    assert compactness_failures(mg, ambient) == reference_compactness_failures(
        mg, ambient)


@given(st.one_of(line_grids(), nested_line_grids()))
@settings(max_examples=80, deadline=None)
def test_line_slices_match_the_chained_reference(mg_amb):
    # nested_line_grids are ordered, so compactness takes its core shortcut
    check_slices_match_the_chained_reference(*mg_amb)


@given(st.one_of(line_grids(), nested_line_grids()))
@settings(max_examples=200, deadline=None)
def test_line_kept_slice_is_the_refined_reference_s(mg_amb):
    # the cells of the one refinement, in its order, for no direction,
    # j == jp, inner cuts and the extremes alike; circles with zeros at 0,
    # whole records, infinite ends and dropped components come from
    # line_grids
    mg, ambient = mg_amb
    for dirs, j, jp in slice_index_lists(mg.grid):
        got = kept_slice(mg, ambient, dirs, j, jp)
        assert got.cells == refined_kept_slice(mg, ambient, dirs, j, jp).cells


def broken_cut(cut: Cut1D, how: str, i: int):
    """cut made invalid over its ambient: its last component record
    dropped ("short"), or component i's last level point repeated
    ("repeat"); or a planar cut in its place ("plane")."""
    if how == "short":
        return Cut1D(cut.components[:-1])
    if how == "plane":
        return wall(0)
    comps = list(cut.components)
    zs = comps[i].zeros or ((F(0), "+"),)
    comps[i] = ComponentCut1D("zeros", zs + zs[-1:])
    return Cut1D(tuple(comps))


@st.composite
def line_grids_with_broken_cuts(draw):
    """A grid from line_grids with one or two of its cuts broken by
    broken_cut, each its own way."""
    mg, ambient = draw(line_grids())
    tuples = [list(t.cuts) for t in mg.grid.tuples]
    places = [(t, k) for t in range(len(tuples)) for k in range(len(tuples[t]))]
    n = ambient.n_components()
    for (t, k), how in zip(
            draw(st.lists(st.sampled_from(places), min_size=1, max_size=2,
                          unique=True)),
            draw(st.permutations(["short", "repeat", "plane"]))):
        tuples[t][k] = broken_cut(tuples[t][k], how, draw(st.integers(0, n - 1)))
    grid = CutGrid(tuple(CutTuple(tuple(cuts)) for cuts in tuples))
    return MonoidalCutGrid(grid, mg.ell, mg.labels), ambient


@given(line_grids_with_broken_cuts())
@settings(max_examples=150, deadline=None)
def test_line_kept_slice_raises_as_the_refined_reference_does(mg_amb):
    # the first broken cut in cut order names the failure; a planar cut
    # keeps the refinement and its error
    mg, ambient = mg_amb
    for dirs, j, jp in slice_index_lists(mg.grid):
        try:
            want = refined_kept_slice(mg, ambient, dirs, j, jp)
        except ArtifactError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                kept_slice(mg, ambient, dirs, j, jp)
        else:
            assert kept_slice(mg, ambient, dirs, j, jp).cells == want.cells


# ---------------------------------------------------------------------------
# 1D order and compactness decided at probes, with no region built
# ---------------------------------------------------------------------------

@st.composite
def line_cut_pairs(draw):
    """Two valid cuts from line_cuts over one ambient as a two-cut tuple,
    with labels that may drop components."""
    cut, ambient = draw(line_cuts())
    cuts = (cut, draw(line_cuts(ambient))[0])
    labels = tuple(draw(labels_that_may_drop()) for _ in range(ambient.n_components()))
    return MonoidalCutGrid(CutGrid((CutTuple(cuts),)), 2, labels), ambient


@st.composite
def with_a_zero_moved(draw, grids_of):
    """A grid from grids_of with one zero of one cut moved to another
    quarter point between its neighbours (within 10 of where it was), so
    the moved cut nests with its old neighbours one way or not at all; a
    tuple of a cut twice becomes the cut and its moved copy."""
    mg, ambient = draw(grids_of)
    g = mg.grid
    spots = [(t, j, i) for t, tup in enumerate(g.tuples) for j, cut in enumerate(tup.cuts)
             for i, comp in enumerate(cut.components) if comp.zeros]
    if not spots:
        return mg, ambient
    t, j, i = draw(st.sampled_from(spots))
    cut = g.tuples[t].cuts[j]
    zs = list(cut.components[i].zeros)
    k = draw(st.integers(0, len(zs) - 1))
    p, sign = zs[k]
    if i < len(ambient.intervals):
        lo, hi = ambient.intervals[i]
    else:
        lo, hi = F(-1, 4), ambient.circles[i - len(ambient.intervals)]
    left = max(zs[k - 1][0] if k else lo, p - 10)
    right = min(zs[k + 1][0] if k + 1 < len(zs) else hi, p + 10)
    moves = [F(q, 4) for q in range(int(4 * left) + 1, -int(-4 * right))
             if F(q, 4) != p and left < F(q, 4) < right]
    if not moves:
        return mg, ambient
    zs[k] = (draw(st.sampled_from(moves)), sign)
    comps = list(cut.components)
    comps[i] = ComponentCut1D("zeros", tuple(zs))
    tuples = list(g.tuples)
    cuts = list(tuples[t].cuts)
    cuts[j] = Cut1D(tuple(comps))
    tuples[t] = CutTuple(tuple(cuts))
    return replace(mg, grid=CutGrid(tuple(tuples))), ambient


@st.composite
def twin_cuts(draw):
    """A valid cut from line_cuts twice, as a two-cut tuple."""
    cut, ambient = draw(line_cuts())
    labels = tuple(draw(labels_that_may_drop()) for _ in range(ambient.n_components()))
    return MonoidalCutGrid(CutGrid((CutTuple((cut, cut)),)), 2, labels), ambient


def line_probes(cuts, ambient):
    """(component, point, end) for every zero of the cuts and one point in
    every gap between their merged zeros, component by component: on an
    interval the ambient's ends are the outer stops, on a circle the gaps
    wrap past 0.  Each cut keeps one side on each gap.  end names the
    interval end a gap reaches, "infinite" or "finite" (an infinite one
    first), and is None for zeros and inner gaps."""
    probes = []
    lines = len(ambient.intervals)
    for i in range(ambient.n_components()):
        zs = sorted({p for cut in cuts for p, _s in cut.components[i].zeros})
        if i < lines:
            lo, hi = ambient.intervals[i]
            stops = [lo, *zs, hi]
            probes += [(i, p, None) for p in zs]
            for k, (a, b) in enumerate(zip(stops, stops[1:])):
                ends = [e for e, reached in ((lo, k == 0), (hi, k == len(zs))) if reached]
                end = (None if not ends else "finite" if all(map(is_finite, ends))
                       else "infinite")
                probes.append((i, interval_rep(a, b), end))
            continue
        j = i - lines
        length = ambient.circles[j]
        gaps = zip(zs, zs[1:] + [zs[0] + length]) if zs else [(0, length)]
        probes += [(i, ("circle", j, p), None) for p in zs]
        probes += [(i, ("circle", j, interval_rep(a, b) % length), None) for a, b in gaps]
    return probes


def ordered_at_probes(cuts, ambient) -> bool:
    """Each cut's below within the next one's at every probe."""
    probes = line_probes(cuts, ambient)
    return all(classify_point(lo, ambient, p) != "below"
               or classify_point(hi, ambient, p) == "below"
               for lo, hi in zip(cuts, cuts[1:]) for _i, p, _end in probes)


def compactness_failures_at_probes(mg, ambient) -> list[str]:
    """compactness_failures from the probes: a closed slice on the kept
    components is compact exactly when it meets no gap at an interval's
    end, and unbounded when one of those ends is infinite."""
    g = mg.grid
    probes = line_probes([c for t in g.tuples for c in t.cuts], ambient)
    failures = []
    for combo in itertools.product(*(
            [(j, jp) for j in range(t.m + 1) for jp in range(j, t.m + 1)]
            for t in g.tuples)):
        reached = {end for i, p, end in probes if end and mg.labels[i] and all(
            classify_point(t.cuts[j], ambient, p) != "below"
            and classify_point(t.cuts[jp], ambient, p) != "above"
            for t, (j, jp) in zip(g.tuples, combo))}
        if reached:
            pairs = ", ".join(f"direction {i}: [{a}..{b}]"
                              for i, (a, b) in enumerate(combo, start=1))
            why = ("slice is unbounded" if "infinite" in reached
                   else "closure of the slice leaves the ambient")
            failures.append(f"{pairs}: {why}")
    return failures


@given(st.one_of(line_grids(), nested_line_grids(), line_cut_pairs(),
                 with_a_zero_moved(nested_line_grids()),
                 with_a_zero_moved(twin_cuts())))
@settings(max_examples=300, deadline=None)
def test_line_order_and_compactness_are_those_at_the_probes(mg_amb):
    mg, ambient = mg_amb
    for t in mg.grid.tuples:
        want = ordered_at_probes(t.cuts, ambient)
        assert tuple_is_ordered(t, ambient) == want
        assert reference_tuple_is_ordered(t, ambient) == want
    assert compactness_failures(mg, ambient) == compactness_failures_at_probes(
        mg, ambient)


def three_window_grid(zero_rows) -> Bordism:
    """A one-direction grid on the windows (0, 10), (20, 30), (40, 50):
    cut j has one positive zero per window, at the window's start plus
    zero_rows[j][c]."""
    windows = ((F(0), F(10)), (F(20), F(30)), (F(40), F(50)))
    cuts = tuple(Cut1D(tuple(ComponentCut1D("zeros", ((lo + F(z), "+"),))
                             for (lo, _hi), z in zip(windows, row)))
                 for row in zero_rows)
    return Bordism(Ambient1D(windows),
                   MonoidalCutGrid(CutGrid((CutTuple(cuts),)), 1, (1, 1, 1)))


def test_a_line_validate_orders_its_cuts_with_no_partition(monkeypatch):
    # the order and the core are read from the zeros, so grids compares no
    # regions, partitions no cut and refines nothing for the core
    m = 8
    b = three_window_grid([(1 + j, 1 + j // 2, 1 + j) for j in range(m + 1)])
    subsets = []
    real = plgeom.region_subset
    monkeypatch.setattr(grids, "region_subset",
                        lambda a, c: subsets.append((a, c)) or real(a, c))
    rebuilds = slice_rebuilds(monkeypatch)
    cut_regions.cache_clear()
    assert validate(b).passed
    assert subsets == []
    assert rebuilds == {"slices": 1, "_rebuild": 0}
    assert cut_regions.cache_info().misses == 0
    cuts = b.mgrid.grid.tuples[0].cuts
    cut_regions(cuts[0], b.ambient)
    cut_regions(cuts[m], b.ambient)
    assert cut_regions.cache_info().misses == 2


def slice_rebuilds(monkeypatch) -> dict:
    """Counts of grids.kept_slice calls (core's among them) and of the
    plgeom._rebuild calls made inside one, kept up to date as they run."""
    counts = {"slices": 0, "_rebuild": 0}
    inside = []
    real_slice, real_rebuild = grids.kept_slice, plgeom._rebuild

    def kept_slice(*args):
        counts["slices"] += 1
        inside.append(True)
        try:
            return real_slice(*args)
        finally:
            inside.pop()

    def rebuild(*args):
        counts["_rebuild"] += bool(inside)
        return real_rebuild(*args)
    monkeypatch.setattr(grids, "kept_slice", kept_slice)
    monkeypatch.setattr(plgeom, "_rebuild", rebuild)
    return counts


@pytest.mark.parametrize("name", ["circle_trace", "point1d", "three_window_grid"])
def test_line_slices_build_no_partition_and_no_refinement(monkeypatch, name):
    """validate, equivalent, is_morphism and metric_core_length read every
    1D slice and core from the zeros: no cut_regions partition and no
    _rebuild inside a slice."""
    if name == "three_window_grid":
        b = replace(three_window_grid([(1, 2, 3), (2, 3, 4), (4, 4, 5)]),
                    field=embedded_field(1), embedding=AffineMap.identity(1))
    else:
        b = catalog(name)
    shrunk = shrink_to_core(b, 1)
    n = b.ambient.n_components()
    metric = replace(b, field=FieldDatum("metric", (PLFunc.constant(1),) * n),
                     embedding=None)
    counts = slice_rebuilds(monkeypatch)
    partitions = []
    real = grids.cut_regions
    monkeypatch.setattr(grids, "cut_regions",
                        lambda *args: partitions.append(args) or real(*args))
    assert validate(b).passed
    assert equivalent(b, shrunk)
    assert is_morphism(AffineMap.identity(1), shrunk, b)
    if name == "three_window_grid":
        with pytest.raises(ArgumentError, match="disconnected"):
            metric_core_length(metric)
    else:  # the whole circle, and one point
        assert metric_core_length(metric) == {"circle_trace": 4, "point1d": 0}[name]
    assert counts["slices"] >= 5
    assert counts["_rebuild"] == 0
    assert partitions == []


def test_an_invalid_inner_cut_is_reported_and_raised_as_before():
    b = three_window_grid([(1, 1, 1), (2, 12, 2), (3, 3, 3), (4, 4, 14)])
    report = grid_check(b.mgrid.grid, b.ambient)
    assert [(e.name, e.passed, e.detail) for e in report.entries] == [
        ("cuts-valid[1]", False, "component 1: level point 32 outside the component"),
        ("ordered[1]", False, "skipped: invalid cuts"),
    ]
    # the first invalid cut in cut order names the failure
    for check in (lambda: tuple_is_ordered(b.mgrid.grid.tuples[0], b.ambient),
                  lambda: compactness_failures(b.mgrid, b.ambient)):
        with pytest.raises(ValidationError) as caught:
            check()
        assert str(caught.value) == "component 1: level point 32 outside the component"


def test_an_unsupported_order_passes_its_cuts_and_fails_its_order():
    # slanted first-axis sheets are valid cuts whose regions are not built
    slanted = [Cut2D(1, (ComponentCut2D("sheets", (Sheet(PLFunc.affine(F(1, 2), b), "+"),)),))
               for b in (0, 1)]
    report = grid_check(CutGrid((CutTuple(tuple(slanted)),)), FULL_PLANE)
    assert [(e.name, e.passed, e.detail) for e in report.entries] == [
        ("cuts-valid[1]", True, ""),
        ("ordered[1]", False,
         "region extraction for a first-axis cut needs vertical (constant) sheets"),
    ]


@pytest.mark.parametrize("name, calls", [
    ("triangle_interval", 5), ("elbow_right", 4), ("circle_trace", 6),
    ("composable_pair_2d", 6), ("point2d", 2),
])
def test_validate_validates_each_cut_once_and_the_core_s_cuts_again(
        monkeypatch, name, calls):
    # grid_check validates each cut once, inside tuple_is_ordered, and a
    # line core validates its two extreme cuts for its own contract
    counts = {"validate_cut": 0}
    original = grids.validate_cut

    def counting(cut, ambient):
        counts["validate_cut"] += 1
        return original(cut, ambient)

    monkeypatch.setattr(grids, "validate_cut", counting)
    grids.cut_regions.cache_clear()
    assert validate(catalog(name)).passed
    assert counts["validate_cut"] == calls


def test_the_order_raises_what_validation_raises():
    def validation_text(cut, ambient):
        with pytest.raises(ValidationError) as caught:
            validate_cut(cut, ambient)
        return str(caught.value)

    unsorted = zeros_cut((1, "+"), (0, "-"))
    line_on_plane = zeros_cut((0, "+"))
    for tup, ambient, bad in (
            (CutTuple((unsorted,)), FULL_LINE, unsorted),  # m = 0
            (CutTuple((line_on_plane, zeros_cut((1, "+")))), FULL_PLANE,
             line_on_plane)):
        with pytest.raises(ValidationError) as caught:
            tuple_is_ordered(tup, ambient)
        assert str(caught.value) == validation_text(bad, ambient)
    mg = MonoidalCutGrid(CutGrid((CutTuple((unsorted,)),)), 1, (1,))
    with pytest.raises(ValidationError) as caught:
        compactness_failures(mg, FULL_LINE)
    assert str(caught.value) == "component 0: level points must strictly increase"


@given(st.one_of(plane_grids(), wall_plane_grids()))
@settings(max_examples=100, deadline=None)
def test_plane_slices_match_the_chained_reference(mg_amb):
    # wall_plane_grids are ordered, so compactness takes its core shortcut
    check_slices_match_the_chained_reference(*mg_amb)


def test_kept_slice_checks_its_arguments_as_region_between_does():
    b = catalog("triangle_interval")
    for dirs, j, jp in [((1,), (0,), (3,)), ((2,), (0,), (1,)),
                        ((1, 1), (0, 0), (1, 1)), ((1,), (0, 0), (1,))]:
        with pytest.raises(ArgumentError):
            kept_slice(b.mgrid, b.ambient, dirs, j, jp)


def test_queries_on_a_2d_core_refine_once_each(monkeypatch):
    b = catalog("composable_pair_2d")
    pair_core = core(b.mgrid, b.ambient)
    counts = {"region_boolean": 0, "_x_atoms": 0}
    for name in counts:
        def counting(*args, name=name, real=getattr(plgeom, name)):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(plgeom, name, counting)
    comps = region_components(pair_core)
    # one refinement to normalize, one of all the cell closures together
    assert counts == {"region_boolean": 0, "_x_atoms": 2}
    assert len(comps) == 1
    assert region_equal(comps[0], pair_core)
    counts["_x_atoms"] = 0
    assert region_is_compact_in(pair_core, b.ambient)
    assert counts["_x_atoms"] == 1  # the closure's subset test alone


def test_the_closure_of_a_2d_core_builds_no_function(monkeypatch):
    b = catalog("composable_pair_2d")
    pair_core = core(b.mgrid, b.ambient)
    built = []
    real = PLFunc.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(PLFunc, "__post_init__", counting)
    closed = region_closure(pair_core)
    assert built == []
    # every slab of the core has graph bounds, so each emptiness test
    # walked a difference of two functions
    slabs = [c for c in pair_core.cells if isinstance(c, Slab)]
    assert slabs and all(isinstance(c.lower, PLFunc) and isinstance(c.upper, PLFunc)
                         for c in slabs)
    assert region_equal(closed, pair_core)  # the core is closed


@given(valid_grids())
@settings(max_examples=60, deadline=None)
def test_generated_grids_are_valid_compact_globular(mg_amb):
    mg, ambient = mg_amb
    assert grid_check(mg.grid, ambient).passed
    assert is_compact(mg, ambient)
    assert is_globular(mg, ambient)


# ---------------------------------------------------------------------------
# globularity
# ---------------------------------------------------------------------------

def perturbed_pair(tent_height=F(1, 4), half_width=F(1, 8)):
    """composable_pair_2d with a tent pushed into its outer y-sheets at
    x = 0: down into the lowest, up into the highest."""
    b = catalog("composable_pair_2d")
    tent = PLFunc.from_points(
        [(-half_width, 0), (F(0), tent_height), (half_width, 0)])
    low, mid, high = b.mgrid.grid.tuples[1].cuts

    def resheet(cut, f):
        sign = cut.components[0].sheets[0].sign
        return Cut2D(cut.axis, (ComponentCut2D("sheets", (Sheet(f, sign),)),))

    new_dir2 = CutTuple((
        resheet(low, low.components[0].sheets[0].graph.sub(tent)),
        mid,
        resheet(high, high.components[0].sheets[0].graph.add(tent)),
    ))
    grid = CutGrid((b.mgrid.grid.tuples[0], new_dir2))
    return MonoidalCutGrid(grid, b.mgrid.ell, b.mgrid.labels), b.ambient


def test_graph_disagreement_at_a_wall_breaks_globularity():
    base = catalog("composable_pair_2d")
    assert is_globular(base.mgrid, base.ambient) is True
    mg, ambient = perturbed_pair()
    assert grid_check(mg.grid, ambient).passed
    assert is_compact(mg, ambient)
    assert is_globular(mg, ambient) is False


def test_single_later_cut_is_vacuously_globular():
    grid = CutGrid((
        CutTuple((wall(-1), wall(1))),
        CutTuple((sheet_at(PLFunc.from_points([(-1, 0), (0, 1), (1, 0)])),)),
    ))
    mg = MonoidalCutGrid(grid, 1, (1,))
    assert is_globular(mg, FULL_PLANE) is True


def fuzzed_pair():
    """composable_pair_2d with its highest y-sheet's third value set from 0
    to 7, the input a fuzzer found (see tests/test_cli.py)."""
    b = catalog("composable_pair_2d")
    low, mid, high = b.mgrid.grid.tuples[1].cuts
    graph = high.components[0].sheets[0].graph
    values = graph.values[:2] + (F(7),) + graph.values[3:]
    sheet = Sheet(replace(graph, values=values), "+")
    high = Cut2D(2, (ComponentCut2D("sheets", (sheet,)),))
    grid = CutGrid((b.mgrid.grid.tuples[0], CutTuple((low, mid, high))))
    return replace(b.mgrid, grid=grid), b.ambient


GLOBULARITY_CASES = {
    **{name: (lambda name=name: (catalog(name).mgrid, catalog(name).ambient))
       for name in CATALOG_NAMES if isinstance(catalog(name), Bordism)},
    "fuzzed_pair": fuzzed_pair,
    "tent_1/2_1/4": lambda: perturbed_pair(F(1, 2), F(1, 4)),
    "tent_1/4_1/4": lambda: perturbed_pair(F(1, 4), F(1, 4)),
    "tent_1/4_1/2": lambda: perturbed_pair(F(1, 4), F(1, 2)),
}


@pytest.mark.parametrize("name", sorted(GLOBULARITY_CASES))
def test_globularity_matches_the_pairwise_reference(name):
    # one refinement per later direction and no vertex core give the same
    # failures, witnesses included, as a region per pair and per vertex
    mg, ambient = GLOBULARITY_CASES[name]()
    assert grids.globularity_failures(mg, ambient) == \
        reference_globularity_failures(mg, ambient)


def test_the_failing_globularity_cases_have_compact_vertex_cores():
    # so each witness is the least point of a compact meet
    for name in ("fuzzed_pair", "tent_1/2_1/4", "tent_1/4_1/4", "tent_1/4_1/2"):
        mg, ambient = GLOBULARITY_CASES[name]()
        assert grids.globularity_failures(mg, ambient)
        for j in range(mg.grid.tuples[0].m + 1):
            assert region_is_compact_in(
                reference_vertex_core(mg, ambient, 1, j), ambient)


# 29 with a refinement per part of each partition, 39 with chained slices,
# 74 with a core per vertex
PAIR_X_ATOM_REFINEMENTS = 17


def test_validating_the_pair_refines_no_vertex_core(monkeypatch):
    # globularity refined 27 times for three vertex cores and 12 times for
    # three pairwise disagreements; now once for the disagreement and once
    # for the later slice, and each cut's partition once per component, so
    # a return to any of them fails this pin
    b = catalog("composable_pair_2d")
    calls = []
    real = plgeom._x_atoms

    def counting(regions):
        calls.append(regions)
        return real(regions)

    monkeypatch.setattr(plgeom, "_x_atoms", counting)
    grids.cut_regions.cache_clear()  # count every partition's refinements
    assert validate(b).passed
    assert len(calls) == PAIR_X_ATOM_REFINEMENTS


def test_validating_the_pair_with_warm_partitions_builds_no_boolean(monkeypatch):
    # compactness and globularity ask their slices with one refinement each,
    # so once the cut partitions are memoized no region_boolean runs
    b = catalog("composable_pair_2d")
    assert validate(b).passed  # fills the cut_regions memo
    calls = []
    real = plgeom.region_boolean
    for module in (plgeom, grids, bordisms):
        monkeypatch.setattr(module, "region_boolean",
                            lambda *args: calls.append(args) or real(*args))
    assert validate(b).passed
    assert calls == []


def test_rendering_the_pair_builds_each_piece_once(monkeypatch):
    # with warm partitions each direction's piece takes three booleans, its
    # slice one, and the core two more on direction 1's slice and one with
    # the kept region: 10, where a region_between per slice made 17.
    # shrink_to_core reads the same chain, so it makes the same 10: it also
    # builds direction 2's slice, which it does not read
    b = catalog("composable_pair_2d")
    render_svg(b)  # fills the cut_regions memo
    calls = []
    real = plgeom.region_boolean
    for module in (plgeom, grids, bordisms):
        monkeypatch.setattr(module, "region_boolean",
                            lambda *args: calls.append(args) or real(*args))
    render_svg(b)
    assert len(calls) == 10
    calls.clear()
    shrink_to_core(b, F(1, 4))
    assert len(calls) == 10


def check_extreme_slices_are_the_chains(mg, ambient):
    """Each direction's slice has the cells of the reference region_between
    over it alone, and the core those of the chained slice of every
    direction on the kept components, whose points are those of core.
    Only the points are compared with core: its cells are one
    refinement's, and on a circle even a chain's cells depend on where
    the unrolling starts."""
    g = mg.grid
    slices, got_core = extreme_slices(mg, ambient)
    assert slices == [region_between(g, ambient, (i,), (0,), (t.m,))
                      for i, t in enumerate(g.tuples, start=1)]
    assert got_core == chain_core(mg, ambient)
    assert region_equal(core(mg, ambient), got_core)


@given(st.one_of(line_grids(), nested_line_grids()))
@settings(max_examples=60, deadline=None)
def test_line_slices_and_core_are_the_chains(mg_amb):
    check_extreme_slices_are_the_chains(*mg_amb)


@given(st.one_of(plane_grids(), wall_plane_grids()))
@settings(max_examples=60, deadline=None)
def test_plane_slices_and_core_are_the_chains(mg_amb):
    check_extreme_slices_are_the_chains(*mg_amb)


def check_disagreement_matches_the_pairwise_reference(cut_ambs):
    within = PLRegion(cut_ambs[0][1].dim, tuple(
        c for _cut, ambient in cut_ambs for c in ambient_region(ambient).cells))
    got = grids.cut_disagreement(cut_ambs, within)
    reference = PLRegion(within.dim, tuple(
        c for (ca, aa), (cb, ab) in itertools.combinations(cut_ambs, 2)
        for c in pairwise_cut_disagreement(ca, aa, cb, ab, within).cells))
    assert region_equal(got, reference)


@given(st.lists(line_cuts(), min_size=2, max_size=3))
@settings(max_examples=80, deadline=None)
def test_line_disagreement_matches_the_pairwise_reference(cut_ambs):
    # each cut over its own ambient; the union of the ambients as within
    check_disagreement_matches_the_pairwise_reference(cut_ambs)


def edited(comp: ComponentCut1D, how: str) -> ComponentCut1D:
    """comp kept, with below and above swapped ("flip"), or made whole on
    one side."""
    if how == "keep":
        return comp
    if how == "flip":
        swap = {"+": "-", "-": "+", "below": "above", "above": "below"}
        return ComponentCut1D(comp.kind, tuple((p, swap[s]) for p, s in comp.zeros),
                              swap[comp.whole_sign])
    return ComponentCut1D("whole", (), how)


@given(line_cuts(), st.data())
@settings(max_examples=80, deadline=None)
def test_cut_agreement_by_one_refinement_matches_the_part_by_part_reference(
        cut_amb, data):
    # the test is_morphism puts to each pair of cuts over one ambient
    cut, ambient = cut_amb
    hows = data.draw(st.lists(st.sampled_from(["keep", "flip", "below", "above"]),
                              min_size=len(cut.components),
                              max_size=len(cut.components)))
    other = Cut1D(tuple(map(edited, cut.components, hows)))
    disagreement = grids.cut_disagreement([(cut, ambient), (other, ambient)],
                                          ambient_region(ambient))
    assert (not disagreement.cells) == cuts_agree_part_by_part(cut, other, ambient)


@st.composite
def one_box_plane_cuts(draw):
    return draw(plane_cuts(Ambient2D(((*box_ends(draw), *box_ends(draw)),))))


@given(one_box_plane_cuts(), one_box_plane_cuts())
@settings(max_examples=40, deadline=None)
def test_plane_disagreement_matches_the_pairwise_reference(first, second):
    # Two cuts, each on a box of its own.  On several boxes, or with three
    # cuts, the reference's union of pairwise differences can run to tens
    # of thousands of cells, and comparing it takes minutes; the globularity
    # cases compare three cuts and the several-box planar outputs exactly.
    check_disagreement_matches_the_pairwise_reference([first, second])


def test_no_cuts_disagree_nowhere():
    # and one cut disagrees exactly outside its own ambient
    line = ambient_region(Ambient1D(((0, 4),), (3,)))
    assert grids.cut_disagreement([], line) == PLRegion(1, ())
    plane = ambient_region(Ambient2D(((0, 1, 0, 1),)))
    assert grids.cut_disagreement([], plane) == PLRegion(2, ())
    got = grids.cut_disagreement([(zeros_cut((1, "+")), Ambient1D(((0, 2),)))], line)
    assert got.cells == (Seg(2, 4, True, False), CircleCell(0, 3))


@st.composite
def line_cut_lists(draw):
    """Two or three cuts from line_cuts, each over an ambient of its own or
    over the first cut's."""
    first = draw(line_cuts())
    return [first] + [draw(st.one_of(line_cuts(), line_cuts(first[1])))
                      for _ in range(draw(st.integers(1, 2)))]


def check_line_disagreement_is_the_reference_s(cut_ambs):
    """The same cells as the one refinement, in the same order, within the
    union of the ambients, within the first two ambients' intersection (as
    equivalent builds it), and for the first cut alone."""
    union = PLRegion(1, tuple(c for _cut, ambient in cut_ambs
                              for c in ambient_region(ambient).cells))
    meet = region_boolean("intersect", ambient_region(cut_ambs[0][1]),
                          ambient_region(cut_ambs[1][1]))
    for cuts, within in ((cut_ambs, union), (cut_ambs, meet), (cut_ambs[:1], union)):
        got = grids.cut_disagreement(cuts, within)
        assert got.cells == reference_cut_disagreement(cuts, within).cells


@given(line_cut_lists())
@settings(max_examples=200, deadline=None)
def test_line_disagreement_is_the_reference_s(cut_ambs):
    check_line_disagreement_is_the_reference_s(cut_ambs)


def test_line_disagreement_on_circles_is_the_reference_s():
    # circle 0 has one length in both ambients and circle 1 is a's alone;
    # a whole record and zeros at 0 on circle 0, a whole circle 1
    a = Ambient1D(((0, 4),), (3, 2))
    b = Ambient1D(((2, INF),), (3,))
    cut_a = Cut1D((ComponentCut1D("zeros", alternating([F(1)], "+")),
                   ComponentCut1D("zeros", alternating([F(0), F(1)], "-")),
                   ComponentCut1D("whole", (), "above")))
    cut_b = Cut1D((ComponentCut1D("zeros", alternating([F(3)], "-")),
                   ComponentCut1D("whole", (), "below")))
    check_line_disagreement_is_the_reference_s([(cut_a, a), (cut_b, b)])
    got = grids.cut_disagreement([(cut_a, a), (cut_b, b)], ambient_region(a))
    # b is outside up to 2 and level at 3; on circle 0, b below meets a's
    # zeros and its wrap gap, which is above
    assert got.cells == (Seg(0, 2, False, True), Seg(3, 4, True, False),
                         Arc(0, 3, 1, 0, True, True), CircleCell(1, 2))


@pytest.mark.parametrize("cuts, within", [
    ([(zeros_cut((0, "+")), FULL_LINE), (zeros_cut((1, "+"), (2, "+")), FULL_LINE)],
     ambient_region(FULL_LINE)),
    ([(zeros_cut((0, "+")), Ambient1D(((0, 1),)))], ambient_region(FULL_LINE)),
    ([(zeros_cut((0, "+")), FULL_LINE), (wall(0), FULL_LINE)], ambient_region(FULL_LINE)),
    ([(zeros_cut((0, "+")), FULL_PLANE)], ambient_region(FULL_PLANE)),
    ([(zeros_cut((0, "+")), FULL_LINE)], ambient_region(FULL_PLANE)),
], ids=["signs", "outside", "2d-cut", "2d-ambient", "2d-within"])
def test_line_disagreement_raises_as_the_reference_does(cuts, within):
    with pytest.raises(ArtifactError) as want:
        reference_cut_disagreement(cuts, within)
    with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
        grids.cut_disagreement(cuts, within)


def test_line_cut_disagreement_builds_no_partition_and_no_refinement(monkeypatch):
    """equivalent and is_morphism read where two 1D cuts disagree from their
    zeros; a planar pair is still one refinement, its partitions memoized."""
    calls, inside = [], []
    counts = {"_rebuild": 0, "cut_regions": 0}
    real = grids.cut_disagreement

    def disagreement(cuts, within):
        calls.append(cuts)
        inside.append(True)
        try:
            return real(cuts, within)
        finally:
            inside.pop()

    def counted(module, name):
        original = getattr(module, name)

        def call(*args):
            counts[name] += bool(inside)
            return original(*args)
        monkeypatch.setattr(module, name, call)

    monkeypatch.setattr(bordisms, "cut_disagreement", disagreement)
    counted(plgeom, "_rebuild")
    counted(grids, "cut_regions")
    for name, phi, rebuilds in (("elbow_right", AffineMap.identity(1), 0),
                                ("composable_pair_2d", AffineMap.identity(2), 1)):
        b = catalog(name)
        shrunk = shrink_to_core(b, 1)
        for _warm in range(2):  # the second pass finds every partition memoized
            calls.clear()
            counts.update(_rebuild=0, cut_regions=0)
            assert equivalent(b, shrunk) and is_morphism(phi, shrunk, b)
        assert calls
        assert counts == {"_rebuild": rebuilds * len(calls),
                          "cut_regions": rebuilds * 2 * len(calls)}


# ---------------------------------------------------------------------------
# simplicial reindexing and relabelling (presheaf laws)
# ---------------------------------------------------------------------------

def test_face_drops_the_middle_cut():
    b = catalog("triangle_interval")
    faced = apply_simplicial(b.mgrid, 1, MonotoneMap.face(2, 1))
    assert faced.shape.entries == (1,)
    cuts = faced.grid.tuples[0].cuts
    assert cuts[0].components[0].zeros == ((F(-1), "+"),)
    assert cuts[1].components[0].zeros == ((F(1), "+"),)


def test_vertex_grid_selects_one_cut():
    b = catalog("triangle_interval")
    v = vertex_grid(b.mgrid, 1, 1)
    assert v.shape.entries == (0,)
    assert v.grid.tuples[0].cuts[0].components[0].zeros == (
        (F(-1), "+"), (F(0), "-"), (F(1), "+"))


def test_apply_simplicial_guards():
    b = catalog("triangle_interval")
    with pytest.raises(ArgumentError):
        apply_simplicial(b.mgrid, 2, MonotoneMap.identity(2))
    with pytest.raises(ArgumentError):
        apply_simplicial(b.mgrid, 1, MonotoneMap.identity(1))


@given(grid_with_operator())
@settings(max_examples=100, deadline=None)
def test_reindexing_preserves_validity(packed):
    mg, ambient, direction, alpha = packed
    out = apply_simplicial(mg, direction, alpha)
    assert grid_check(out.grid, ambient).passed
    assert is_compact(out, ambient)
    assert is_globular(out, ambient)


@given(grid_with_operator(), st.data())
@settings(max_examples=100, deadline=None)
def test_reindexing_is_contravariantly_functorial(packed, data):
    mg, ambient, direction, beta = packed
    once = apply_simplicial(mg, direction, beta)
    source = data.draw(st.integers(0, 3))
    values = tuple(sorted(
        data.draw(st.lists(st.integers(0, beta.source), min_size=source + 1, max_size=source + 1))
    ))
    alpha = MonotoneMap(source, beta.source, values)
    twice = apply_simplicial(once, direction, alpha)
    combined = apply_simplicial(mg, direction, compose_monotone(alpha, beta))
    assert twice == combined
    ident = MonotoneMap.identity(mg.grid.tuples[direction - 1].m)
    assert apply_simplicial(mg, direction, ident) == mg


@given(wall_plane_grids(), st.data())
@settings(max_examples=60, deadline=None)
def test_reindexing_commutes_across_directions(mg_amb, data):
    mg, ambient = mg_amb
    m1 = mg.grid.tuples[0].m
    j = data.draw(st.integers(0, m1))
    alpha = MonotoneMap(0, m1, (j,))
    beta = MonotoneMap(1, 0, (0, 0))
    one_then_two = apply_simplicial(apply_simplicial(mg, 1, alpha), 2, beta)
    two_then_one = apply_simplicial(apply_simplicial(mg, 2, beta), 1, alpha)
    assert one_then_two == two_then_one


@given(valid_grids(), st.data())
@settings(max_examples=80, deadline=None)
def test_faces_and_vertices_satisfy_the_simplicial_identities(mg_amb, data):
    """Vertex j is the cut C_j alone, vertex j of a face d^k is the
    vertex d^k(j), and for i < j the faces d^j then d^i reindex as d^i then
    d^(j-1), which is the composite of the two maps."""
    mg, _ambient = mg_amb
    d = data.draw(st.integers(1, mg.d))
    cuts = mg.grid.tuples[d - 1].cuts
    m = len(cuts) - 1
    for j in range(m + 1):
        assert vertex_grid(mg, d, j).grid.tuples[d - 1].cuts == (cuts[j],)
    if m >= 1:
        face = MonotoneMap.face(m, data.draw(st.integers(0, m)))
        faced = apply_simplicial(mg, d, face)
        for j in range(m):
            assert vertex_grid(faced, d, j) == vertex_grid(mg, d, face(j))
    if m >= 2:
        j = data.draw(st.integers(1, m))
        i = data.draw(st.integers(0, j - 1))
        dj, di = MonotoneMap.face(m, j), MonotoneMap.face(m - 1, i)
        dj_di = apply_simplicial(apply_simplicial(mg, d, dj), d, di)
        di_dj1 = apply_simplicial(apply_simplicial(
            mg, d, MonotoneMap.face(m, i)), d, MonotoneMap.face(m - 1, j - 1))
        assert dj_di == di_dj1
        assert dj_di == apply_simplicial(mg, d, compose_monotone(di, dj))


@given(nested_line_grids(), st.data())
@settings(max_examples=60, deadline=None)
def test_relabelling_is_functorial_and_preserves_validity(mg_amb, data):
    mg, ambient = mg_amb
    u_vals = tuple(data.draw(st.integers(0, 2)) for _ in range(mg.ell))
    u = GammaMorphism(mg.ell, 2, u_vals)
    v_vals = tuple(data.draw(st.integers(0, 3)) for _ in range(2))
    v = GammaMorphism(2, 3, v_vals)
    step = relabel(relabel(mg, u), v)
    combined = relabel(mg, gamma_compose(u, v))
    assert step == combined
    assert relabel(mg, GammaMorphism.identity(mg.ell)) == mg
    assert is_compact(step, ambient)
    assert is_globular(step, ambient)


def test_relabel_arity_guard():
    b = catalog("point1d")
    with pytest.raises(ArgumentError):
        relabel(b.mgrid, GammaMorphism(3, 1, (1, 1, 1)))


# ---------------------------------------------------------------------------
# transport along embeddings
# ---------------------------------------------------------------------------

def pushed_forward(mg, ambient, aff):
    """mg moved onto the image of ambient under aff, with that image: its
    pullback from the image along aff.inverse()."""
    img = image_ambient(ambient, aff)
    return pullback_along(mg, AmbientEmbedding(img, ambient, aff.inverse())), img


def test_pushforward_scales_and_shifts_zeros():
    b = catalog("elbow_right")  # zeros at 0 and 1
    mg, img = pushed_forward(b.mgrid, b.ambient, AffineMap.line(2, 3))
    cuts = mg.grid.tuples[0].cuts
    assert cuts[0].components[0].zeros == ((F(3), "+"), (F(5), "-"))
    assert img.intervals == ((NEG_INF, INF),)


def test_pushforward_reflection_flips_signs():
    mg0 = MonoidalCutGrid(
        CutGrid((CutTuple((zeros_cut((F(1, 2), "-")),)),)), 1, (1,))
    mg, _img = pushed_forward(mg0, FULL_LINE, AffineMap.line(-1, 0))
    assert mg.grid.tuples[0].cuts[0].components[0].zeros == ((F(-1, 2), "+"),)


def test_pushforward_axis_swap_exchanges_cut_axes():
    b = catalog("point2d")
    swap = AffineMap(2, (1, 0), (F(1), F(1)), (F(0), F(0)))
    mg, _img = pushed_forward(b.mgrid, b.ambient, swap)
    axes = [tup.cuts[0].axis for tup in mg.grid.tuples]
    assert axes == [1, 2]
    assert grid_check(mg.grid, FULL_PLANE).passed


def test_pullback_restricts_to_window():
    mg = MonoidalCutGrid(
        CutGrid((CutTuple((zeros_cut((0, "+")),)),)), 1, (1,))
    above_window = Ambient1D(((1, 2),))
    pulled = pullback_along(mg, AmbientEmbedding(above_window, FULL_LINE, AffineMap.identity(1)))
    assert pulled.grid.tuples[0].cuts[0].components[0] == ComponentCut1D("whole", (), "above")
    straddling = Ambient1D(((-1, 1),))
    pulled2 = pullback_along(mg, AmbientEmbedding(straddling, FULL_LINE, AffineMap.identity(1)))
    assert pulled2.grid.tuples[0].cuts[0].components[0].zeros == ((F(0), "+"),)


def test_a_planar_pullback_missing_every_sheet_is_a_whole_cut():
    b = catalog("point2d")  # y-sheet y = 0, then x-sheet x = 0

    def pulled_cuts(box, aff):
        emb = AmbientEmbedding(Ambient2D((box,)), FULL_PLANE, aff)
        return [tup.cuts[0] for tup in pullback_along(b.mgrid, emb).grid.tuples]

    ident = AffineMap.identity(2)
    ycut, xcut = pulled_cuts((-1, 1, 1, 2), ident)
    assert ycut == Cut2D(2, (ComponentCut2D("whole", (), "above"),))
    assert xcut.axis == 1 and xcut.components[0].kind == "sheets"
    ycut, _ = pulled_cuts((-1, 1, -3, -2), ident)
    assert ycut == Cut2D(2, (ComponentCut2D("whole", (), "below"),))
    turn = AffineMap(2, (1, 0), (1, -1), (0, 0))  # (x, y) -> (y, -x)
    ycut, xcut = pulled_cuts((-1, 1, 1, 2), turn)
    assert xcut == Cut2D(2, (ComponentCut2D("whole", (), "above"),))
    assert ycut.axis == 1 and ycut.components[0].kind == "sheets"


def test_a_line_embedding_must_map_each_interval_into_one_target_interval():
    # (1/2, 3/2) lies in the closure of (0, 1) u (1, 2) but misses 1
    target = Ambient1D(((0, 1), (1, 2)), (3,))
    for image, fits in [(((F(1, 2), F(3, 2)),), False), (((0, 1), (1, 2)), True),
                        (((F(1, 4), F(1, 2)), (F(3, 2), 2)), True),
                        (((1, 2), (2, 3)), False), (((-1, 0),), False)]:
        emb = AmbientEmbedding(Ambient1D(image, (3,)), target, AffineMap.identity(1))
        assert region_subset(ambient_region(emb.source),
                             ambient_region(target)) == fits
        if fits:
            emb.validate()
        else:
            with pytest.raises(ValidationError, match="^the embedding does not map "
                               "the source into the target$"):
                emb.validate()
    stretch = AmbientEmbedding(Ambient1D(((0, 1),)), Ambient1D(((NEG_INF, 2),)),
                               AffineMap.line(-2, 1))
    stretch.validate()  # onto (-1, 1)
    with pytest.raises(ValidationError):
        replace(stretch, map=AffineMap.line(3, 0)).validate()  # onto (0, 3)


def test_pullback_validates_the_embedding():
    mg = MonoidalCutGrid(
        CutGrid((CutTuple((zeros_cut((0, "+")),)),)), 1, (1,))
    narrow = Ambient1D(((0, 1),))
    wide = Ambient1D(((-5, 5),))
    with pytest.raises(ValidationError):
        pullback_along(mg, AmbientEmbedding(wide, narrow, AffineMap.identity(1)))


@given(nested_line_grids(), st.integers(1, 4), st.integers(-3, 3), st.booleans())
@settings(max_examples=60, deadline=None)
def test_pushforward_then_pullback_is_identity(mg_amb, num, shift, flip):
    mg, ambient = mg_amb
    a = F(-num if flip else num, 2)
    aff = AffineMap.line(a, shift)
    moved, img = pushed_forward(mg, ambient, aff)
    back = pullback_along(moved, AmbientEmbedding(ambient, img, aff))
    assert back == mg


def signed_permutations():
    """Every axis order and reflection of the plane, with non-unit scales
    and shifts."""
    for perm in ((0, 1), (1, 0)):
        for a0, a1 in ((2, F(1, 3)), (F(1, 2), 3)):
            for s0 in (1, -1):
                for s1 in (1, -1):
                    yield AffineMap(2, perm, (s0 * a0, s1 * a1), (1, -3))


@pytest.mark.parametrize("name, eps", [
    ("point2d", None), ("point2d", F(1, 2)),
    ("composable_pair_2d", None), ("composable_pair_2d", F(1, 2)),
])
def test_planar_pushforward_then_pullback_is_identity(name, eps):
    b = catalog(name)
    if eps is not None:
        b = shrink_to_core(b, eps)
    for aff in signed_permutations():
        moved = normalize(replace(b, embedding=aff))
        assert moved.ambient == image_ambient(b.ambient, aff)
        assert moved.embedding.is_identity()
        back = bordism_pullback(
            moved, AmbientEmbedding(b.ambient, moved.ambient, aff))
        assert back.mgrid == b.mgrid, aff
        assert back.ambient == b.ambient and back.embedding == aff


def test_pushforward_needs_a_map_of_the_ambient_dimension():
    # checked before the image is built, since a 1D map cannot map a box,
    # and before the identity shortcut, since an identity of the wrong
    # dimension embeds nothing either
    swap = AffineMap(2, (1, 0), (1, 1), (0, 0))
    for b, aff in ((catalog("point2d"), AffineMap.line(2, 0)),
                   (catalog("point1d"), swap),
                   (catalog("point2d"), AffineMap.identity(1)),
                   (catalog("point1d"), AffineMap.identity(2))):
        with pytest.raises(ArgumentError, match="dimensions do not agree"):
            normalize(replace(b, embedding=aff))


@given(st.integers(1, 3), st.integers(-2, 2), st.integers(1, 3), st.integers(-2, 2), st.booleans())
@settings(max_examples=60, deadline=None)
def test_pullback_composes_contravariantly(a1, b1, a2, b2, flip):
    full = FULL_LINE
    e1 = AmbientEmbedding(full, full, AffineMap.line(-a1 if flip else a1, b1))
    e2 = AmbientEmbedding(full, full, AffineMap.line(a2, b2))
    src = MonoidalCutGrid(
        CutGrid((CutTuple((zeros_cut((0, "+"), (5, "-")),)),)), 2, (1,))
    step = pullback_along(pullback_along(src, e2), e1)
    composite = AmbientEmbedding(full, full, e2.map.compose(e1.map))
    assert step == pullback_along(src, composite)
    ident = AmbientEmbedding(full, full, AffineMap.identity(1))
    assert pullback_along(src, ident) == src


@st.composite
def line_transports(draw):
    """Cuts of a 1D target (a nested line grid's, or one line_cuts cut with
    circles and infinite ends), a map x -> a x + b with a of either sign,
    and the source it embeds: the preimage of one or two windows inside
    each target interval, on the quarter grid or reaching the interval's
    ends, and the target's circles."""
    cuts, target = draw(st.one_of(
        nested_line_grids().map(lambda mg_amb: (mg_amb[0].grid.tuples[0].cuts, mg_amb[1])),
        line_cuts().map(lambda cut_amb: ((cut_amb[0],), cut_amb[1]))))
    windows = []
    for lo, hi in target.intervals:
        finite = [e for e in (lo, hi) if is_finite(e)] or [F(0)]
        qlo = int(4 * lo) if is_finite(lo) else int(4 * min(finite)) - 40
        qhi = int(4 * hi) if is_finite(hi) else int(4 * max(finite)) + 40
        ends = [F(q, 4) for q in sorted(draw(st.sets(
            st.integers(qlo + 1, qhi - 1), min_size=2, max_size=4)))]
        if len(ends) % 2:
            ends.pop()
        if draw(st.booleans()):
            ends[0] = lo
        if draw(st.booleans()):
            ends[-1] = hi
        windows += zip(ends[::2], ends[1::2])
    a = draw(st.sampled_from([F(1, 2), F(1), F(3), F(-1), F(-2), F(-1, 3)]))
    aff = AffineMap.line(a, draw(small_fracs(-3, 3)))
    inverse = aff.inverse()
    source = Ambient1D(tuple(inverse.map_interval(u, v) for u, v in windows),
                       target.circles)
    return cuts, AmbientEmbedding(source, target, aff)


def transport_line_probes(cut, ambient):
    """Every zero of the cut, a point one small step inside each finite
    interval end, and one point per gap between zeros (on a circle too)."""
    step = F(1, 64)
    ends = [e + d for lo, hi in ambient.intervals
            for e, d in ((lo, step), (hi, -step)) if is_finite(e)]
    return [p for _i, p, _end in line_probes([cut], ambient)] + ends


@given(line_transports())
@settings(max_examples=200, deadline=None)
def test_a_pulled_line_cut_sides_each_point_as_the_cut_sides_its_image(case):
    """The transport law, with classify_point as the oracle: a pulled cut
    sides a source point p as the target cut sides aff(p), at the pulled
    zeros, at the source intervals' ends and in every gap; a circle keeps
    its data."""
    cuts, emb = case
    mg = MonoidalCutGrid(CutGrid((CutTuple(cuts),)), 1, (1,) * emb.target.n_components())
    pulled = pullback_along(mg, emb).grid.tuples[0].cuts
    a, b = emb.map.coeffs[0], emb.map.shifts[0]
    for cut, back in zip(cuts, pulled):
        for p in transport_line_probes(back, emb.source):
            q = p if isinstance(p, tuple) else a * p + b
            assert classify_point(back, emb.source, p) == classify_point(cut, emb.target, q)


def plane_transport_sources(b):
    """Sources to pull b's grid back to, in b's own coordinates: its
    ambient, its shrink to the core, and a box off the core's corner."""
    shrunk = shrink_to_core(b, F(1, 2)).ambient
    return (b.ambient, shrunk, Ambient2D(((F(1, 4), F(1, 2), F(1, 4), F(1, 2)),)))


@pytest.mark.parametrize("name", ["point2d", "composable_pair_2d"])
def test_a_pulled_plane_cut_sides_each_point_as_the_cut_sides_its_image(name):
    """The transport law on the plane for every signed permutation, at
    probes read from the box sides and the sheets' breakpoints and values
    of both the target cut and the pulled one; each kept sheet meets its
    component, as the strict_between oracle finds."""
    b = catalog(name)
    for aff in signed_permutations():
        inverse = aff.inverse()
        for where in plane_transport_sources(b):
            emb = AmbientEmbedding(image_ambient(where, inverse), b.ambient, aff)
            pulled = pullback_along(b.mgrid, emb)
            for tup, back_tup in zip(b.mgrid.grid.tuples, pulled.grid.tuples):
                for cut, back in zip(tup.cuts, back_tup.cuts):
                    for ci, comp in enumerate(back.components):
                        boxes = emb.source.component_boxes(ci)
                        if back.axis == 1:
                            boxes = [(y0, y1, x0, x1) for x0, x1, y0, y1 in boxes]
                        assert all(any(strict_between(s.graph, v0, v1, a0, a1)
                                       for a0, a1, v0, v1 in boxes)
                                   for s in comp.sheets)
                    probes = set(plane_partition_probes(back, emb.source)) | {
                        inverse.apply(q) for q in plane_partition_probes(cut, b.ambient)}
                    inside = [p for p in probes if any(
                        x0 < p[0] < x1 and y0 < p[1] < y1
                        for x0, x1, y0, y1 in emb.source.boxes)]
                    assert inside
                    for p in inside:
                        assert (classify_point(back, emb.source, p)
                                == classify_point(cut, b.ambient, aff.apply(p))), (aff, p)


def test_transport_builds_no_region_and_no_inverse_map(monkeypatch):
    """A planar pullback refines once, to validate the embedding; a line
    pullback rewrites its zeros without an inverse map."""
    calls = []
    real = plgeom._x_atoms
    monkeypatch.setattr(plgeom, "_x_atoms",
                        lambda regions: calls.append(regions) or real(regions))
    inverses = []
    real_inverse = AffineMap.inverse
    monkeypatch.setattr(AffineMap, "inverse",
                        lambda aff: inverses.append(aff) or real_inverse(aff))
    b = catalog("composable_pair_2d")
    emb = AmbientEmbedding(shrink_to_core(b, 1).ambient, b.ambient, AffineMap.identity(2))
    calls.clear()
    pullback_along(b.mgrid, emb)
    assert len(calls) == 1
    line = catalog("triangle_interval")
    emb = AmbientEmbedding(shrink_to_core(line, 1).ambient, line.ambient,
                           AffineMap.identity(1))
    inverses.clear()
    pulled = pullback_along(line.mgrid, emb)
    assert inverses == []
    assert any(c.components[0].kind == "zeros" for c in pulled.grid.tuples[0].cuts)


# ---------------------------------------------------------------------------
# laws of germ-of-core equivalence over the grid strategies
# ---------------------------------------------------------------------------

def moved(b, shift):
    """b's data declared to sit shifted along the first axis."""
    dim = b.ambient.dim
    aff = AffineMap(dim, tuple(range(dim)), (1,) * dim,
                    (shift,) + (0,) * (dim - 1))
    return Bordism(b.ambient, b.mgrid, b.field, aff, b.uple)


@st.composite
def embedded_bordisms(draw):
    """A nested line grid embedded in the line at a small shift, point2d,
    or composable_pair_2d at some separation width."""
    which = draw(st.integers(0, 3))
    if which == 2:
        return catalog("point2d")
    if which == 3:
        return catalog("composable_pair_2d", F(draw(st.integers(1, 7)), 8))
    mg, ambient = draw(nested_line_grids())
    return moved(Bordism(ambient, mg, embedded_field(1),
                         AffineMap.identity(1)), draw(st.integers(-2, 2)))


@st.composite
def same_shape_variants(draw, b):
    """A bordism of b's shape that may or may not be equivalent to it: b
    itself, b moved, b relabelled, or b shrunk to its core."""
    kind = draw(st.sampled_from(["same", "moved", "relabelled", "shrunk"]))
    if kind == "moved":
        return moved(b, draw(st.sampled_from([F(-1, 2), F(1), F(3)])))
    if kind == "relabelled":
        mg = b.mgrid
        labels = tuple(draw(st.integers(0, mg.ell)) for _ in mg.labels)
        return b.with_mgrid(MonoidalCutGrid(mg.grid, mg.ell, labels))
    if kind == "shrunk":
        try:
            return shrink_to_core(b, F(draw(st.integers(1, 4)), 2))
        except NeighborhoodError:
            pass
    return b


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_equivalence_is_reflexive_and_symmetric(data):
    b = data.draw(embedded_bordisms())
    other = data.draw(same_shape_variants(b))
    assert equivalent(b, b)
    assert equivalent(b, other) is equivalent(other, b)


def relabelled(b, c, label):
    """b with the label of component c set to label."""
    mg = b.mgrid
    labels = list(mg.labels)
    labels[c] = label
    return b.with_mgrid(MonoidalCutGrid(mg.grid, mg.ell, tuple(labels)))


@st.composite
def raised_label(draw, b):
    """b with one component's label raised by one (ell wraps to 0): two
    raises in a row reach a label two steps away, through one that is a
    single step from each end."""
    mg = b.mgrid
    if not mg.labels:  # a shrink may keep no component
        return b
    c = draw(st.integers(0, len(mg.labels) - 1))
    return relabelled(b, c, (mg.labels[c] + 1) % (mg.ell + 1))


def assert_transitive(bordisms):
    eq = {(i, j): equivalent(bordisms[i], bordisms[j])
          for i, j in itertools.permutations(range(len(bordisms)), 2)}
    for i, j, k in itertools.permutations(range(len(bordisms)), 3):
        if eq[(i, j)] and eq[(j, k)]:
            assert eq[(i, k)], (i, j, k)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_equivalence_is_transitive(data):
    # a chain of four, each a variant of the one before or the one before
    # with a label raised, so that two can be equivalent through a third
    chain = [data.draw(embedded_bordisms())]
    for _ in range(3):
        chain.append(data.draw(st.one_of(same_shape_variants(chain[-1]),
                                         raised_label(chain[-1]))))
    assert_transitive(chain)


def test_equivalence_is_transitive_along_label_steps():
    # labels 0..3 on the one component, whose core [2, 5] they all label;
    # each label is one step from the next, and only equal labels agree
    cuts = tuple(Cut1D((ComponentCut1D("zeros", ((F(z), "+"),)),)) for z in (2, 5))
    b = Bordism(Ambient1D(((F(0), F(10)),)),
                MonoidalCutGrid(CutGrid((CutTuple(cuts),)), 3, (0,)),
                embedded_field(1), AffineMap.identity(1))
    chain = [relabelled(b, 0, label) for label in range(4)]
    assert equivalent(chain[1], relabelled(b, 0, 1))
    assert not equivalent(chain[0], chain[1])
    assert_transitive(chain + [shrink_to_core(chain[2], F(1))])


@given(embedded_bordisms(), st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_a_valid_bordism_is_equivalent_to_its_shrink(b, twice_eps):
    if not validate(b).passed:
        return
    try:
        shrunk = shrink_to_core(b, F(twice_eps, 2))
    except NeighborhoodError:
        return
    assert equivalent(b, shrunk)


def gap_and_zero_atoms(cuts, ambient):
    """For each component of the ambient, (index, atoms, round) with its
    atoms in order (round a circle when round is True): each zero of the
    cuts is an atom with the zero as its one probe, and each gap between
    merged zeros one with a point inside it and, where it reaches a finite
    interval end, a point a step inside that end.  On each atom every cut
    keeps one side, and an atom's closure adds only its neighbouring
    zeros."""
    out = []
    lines = len(ambient.intervals)
    for i in range(ambient.n_components()):
        zs = sorted({p for cut in cuts for p, _s in cut.components[i].zeros})
        if i < lines:
            lo, hi = ambient.intervals[i]
            stops = [lo, *zs, hi]
            atoms = []
            for k, (a, b) in enumerate(zip(stops, stops[1:])):
                gap = [interval_rep(a, b)]
                gap += [lo + F(1, 64)] if k == 0 and is_finite(lo) else []
                gap += [hi - F(1, 64)] if k == len(zs) and is_finite(hi) else []
                atoms.append(gap)
                atoms += [[b]] if k < len(zs) else []
            out.append((i, atoms, False))
            continue
        j = i - lines
        length = ambient.circles[j]
        atoms = [[("circle", j, length / 2)]] if not zs else []
        for a, b in zip(zs, zs[1:] + [z + length for z in zs[:1]]):
            atoms += [[("circle", j, a)], [("circle", j, interval_rep(a, b) % length)]]
        out.append((i, atoms, True))
    return out


def equivalent_at_probes(b1, b2) -> bool:
    """equivalent for two bordisms over one 1D ambient embedded by the
    identity, from classify_point at the probes of gap_and_zero_atoms: the
    cores hold the same probes, and no atom of core 1 is next to or on an
    atom where the labels or some pair of cuts differ."""
    ambient = b1.ambient
    g1, g2 = b1.mgrid, b2.mgrid
    cuts1 = [c for t in g1.grid.tuples for c in t.cuts]
    cuts2 = [c for t in g2.grid.tuples for c in t.cuts]

    def in_core(mg, i, p):
        return bool(mg.labels[i]) and all(
            classify_point(t.cuts[0], ambient, p) != "below"
            and classify_point(t.cuts[-1], ambient, p) != "above"
            for t in mg.grid.tuples)

    def differs(i, p):
        return g1.labels[i] != g2.labels[i] or any(
            classify_point(c1, ambient, p) != classify_point(c2, ambient, p)
            for c1, c2 in zip(cuts1, cuts2))

    for i, atoms, round_ in gap_and_zero_atoms(cuts1 + cuts2, ambient):
        for k, probes in enumerate(atoms):
            core1 = [in_core(g1, i, p) for p in probes]
            if core1 != [in_core(g2, i, p) for p in probes]:
                return False
            if not any(core1):
                continue
            near = [k - 1, k, k + 1] if len(atoms) > 1 else [k]
            near = [n % len(atoms) if round_ else n for n in near]
            if any(differs(i, p) for n in near if 0 <= n < len(atoms)
                   for p in atoms[n]):
                return False
    return True


@st.composite
def line_bordism_and_a_moved_copy(draw):
    """A grid from line_grids or nested_line_grids as an embedded bordism,
    and the bordism with one zero of one cut moved (or unchanged when no
    zero can move)."""
    mg_amb = draw(st.one_of(line_grids(), nested_line_grids()))
    other, ambient = draw(with_a_zero_moved(st.just(mg_amb)))
    b = Bordism(ambient, mg_amb[0], embedded_field(1), AffineMap.identity(1))
    return b, b.with_mgrid(other)


@given(line_bordism_and_a_moved_copy())
@settings(max_examples=300, deadline=None)
def test_line_equivalence_is_that_at_the_probes(pair):
    b1, b2 = pair
    assert equivalent(b1, b2) == equivalent_at_probes(b1, b2)
    assert equivalent(b2, b1) == equivalent_at_probes(b2, b1)
