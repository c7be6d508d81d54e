"""Exact piecewise-linear functions and region calculus."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cutgrids.errors import ArgumentError, ValidationError
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
    _bound_key,
    _refine_2d,
    _x_atoms,
    ambient_region,
    component_region,
    empty_region,
    line_region,
    plfunc_crossings,
    plfunc_integral,
    plfunc_is_positive_on,
    plfunc_max,
    plfunc_max_on_closed,
    plfunc_min,
    plfunc_min_on_closed,
    plfunc_order,
    plfunc_zeros,
    region_bbox,
    region_boolean,
    region_bounded,
    region_closure,
    region_components,
    region_contains_point,
    region_difference,
    region_equal,
    region_is_compact_in,
    region_is_empty,
    region_normalize,
    region_sample_point,
    region_subset,
    strict_between_cells,
)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

def rationals(max_num=12, max_den=4):
    return st.builds(
        Fraction, st.integers(-max_num, max_num), st.integers(1, max_den)
    )


@st.composite
def plfuncs(draw):
    xs = sorted(set(draw(st.lists(rationals(), min_size=1, max_size=4))))
    vals = tuple(draw(rationals()) for _ in xs)
    return PLFunc(tuple(xs), vals, draw(rationals(4, 2)), draw(rationals(4, 2)))


@st.composite
def segs(draw):
    a, b = sorted([draw(rationals()), draw(rationals())])
    lo = NEG_INF if draw(st.booleans()) and draw(st.booleans()) else a
    hi = INF if draw(st.booleans()) and draw(st.booleans()) else b
    lo_closed = lo is not NEG_INF and draw(st.booleans())
    hi_closed = hi is not INF and draw(st.booleans())
    if lo is not NEG_INF and hi is not INF and lo == hi:
        lo_closed = hi_closed = True
    return Seg(lo, hi, lo_closed, hi_closed)


@st.composite
def line_regions(draw):
    return PLRegion(1, tuple(draw(st.lists(segs(), max_size=3))))


@st.composite
def mixed_regions(draw):
    # segments plus up to two cells on each of a fixed pair of circles
    cells = list(draw(st.lists(segs(), max_size=2)))
    for idx, length in ((0, Fraction(3)), (1, Fraction(5))):
        for _ in range(draw(st.integers(0, 2))):
            if draw(st.integers(0, 2)) == 0:
                cells.append(CircleCell(idx, length))
                continue
            s = draw(rationals(6, 2)) % length
            e = draw(rationals(6, 2)) % length
            sc = draw(st.booleans())
            ec = draw(st.booleans())
            if s == e:
                sc = ec = True
            cells.append(Arc(idx, length, s, e, sc, ec))
    return PLRegion(1, tuple(cells))


@st.composite
def slabs(draw):
    """Any slab: infinite or single-point x-ranges, infinite bounds, and PL
    bounds with breakpoints (the upper never below the lower)."""
    a, b = sorted([draw(rationals(6, 2)), draw(rationals(6, 2))])
    if a == b or draw(st.integers(0, 4)) == 0:
        x_range = (a, a, True, True)
    else:
        lo = NEG_INF if draw(st.integers(0, 3)) == 0 else a
        hi = INF if draw(st.integers(0, 3)) == 0 else b
        x_range = (lo, hi, lo is not NEG_INF and draw(st.booleans()),
                   hi is not INF and draw(st.booleans()))
    lower = NEG_INF if draw(st.integers(0, 3)) == 0 else draw(plfuncs())
    if draw(st.integers(0, 3)) == 0:
        upper = INF
    elif lower is NEG_INF:
        upper = draw(plfuncs())
    else:
        upper = lower.add(plfunc_max(draw(plfuncs()), PLFunc.constant(0)))
    return Slab(*x_range, lower, upper,
                lower is not NEG_INF and draw(st.booleans()),
                upper is not INF and draw(st.booleans()))


@st.composite
def any_plane_regions(draw):
    return PLRegion(2, tuple(draw(st.lists(slabs(), max_size=3))))


def probe_points_1d(*regions):
    pts = {Fraction(0)}
    circle_pts = set()
    for r in regions:
        for c in r.cells:
            if isinstance(c, Seg):
                for e in (c.lo, c.hi):
                    if isinstance(e, (Fraction, int)):
                        pts.update({e - 1, e, Fraction(2 * e + 1, 2), e + 1})
            else:
                L = c.circumference
                base = [Fraction(0), L / 3]
                if isinstance(c, Arc):
                    base += [c.start, c.end, (c.start + c.end) / 2]
                circle_pts.update(("circle", c.circle, th % L) for th in base)
    return [p for p in pts] + sorted(circle_pts)


def probe_points_2d(*regions):
    xs, ys = {Fraction(0)}, {Fraction(0)}
    for r in regions:
        for c in r.cells:
            for e in (c.x_lo, c.x_hi):
                if isinstance(e, (Fraction, int)):
                    xs.update({e, Fraction(2 * e + 1, 2)})
            for f in (c.lower, c.upper):
                if isinstance(f, PLFunc):
                    for x in list(xs):
                        ys.update({f(x) - 1, f(x), f(x) + Fraction(1, 2)})
    return [(x, y) for x in xs for y in ys]


# ---------------------------------------------------------------------------
# PL functions
# ---------------------------------------------------------------------------

def test_plfunc_rejects_unsorted_breakpoints():
    with pytest.raises(ValidationError):
        PLFunc((1, 0), (0, 0), 0, 0)


@given(plfuncs(), st.data())
def test_piece_at_is_the_first_piece_containing_x(f, data):
    x = data.draw(st.one_of(rationals(), st.sampled_from(f.breakpoints)))
    first = next((m, c) for lo, hi, m, c in f.pieces() if lo <= x <= hi)
    assert f.piece_at(x) == first
    assert first[0] * x + first[1] == f(x)


def test_slab_rejects_closed_infinite_x_end():
    with pytest.raises(ValidationError):
        Slab(NEG_INF, 0, True, False, NEG_INF, INF, False, False)
    with pytest.raises(ValidationError):
        Slab(0, INF, False, True, NEG_INF, INF, False, False)


def test_plfunc_evaluation_oracle():
    tent = PLFunc.from_points([(-1, 0), (0, 2), (1, 0)])
    assert tent(Fraction(-1, 2)) == 1
    assert tent(0) == 2
    assert tent(Fraction(3, 4)) == Fraction(1, 2)
    assert tent(5) == 0 and tent(-7) == 0
    ramp = PLFunc.affine(Fraction(1, 3), 1)
    assert ramp(6) == 3


@given(plfuncs(), plfuncs(), rationals())
def test_plfunc_pointwise_arithmetic(f, g, x):
    assert f.add(g)(x) == f(x) + g(x)
    assert f.sub(g)(x) == f(x) - g(x)
    assert f.neg()(x) == -f(x)
    assert f.scale(Fraction(3, 2))(x) == Fraction(3, 2) * f(x)
    assert f.add_constant(7)(x) == f(x) + 7


@given(plfuncs(), rationals(4, 2).filter(lambda a: a != 0), rationals(), rationals())
def test_compose_affine_is_precomposition(f, a, b, x):
    assert f.compose_affine(a, b)(x) == f(a * x + b)


def test_compose_affine_rejects_constant_reparameterization():
    with pytest.raises(ArgumentError):
        PLFunc.constant(1).compose_affine(0, 3)


def test_integral_oracles():
    assert plfunc_integral(PLFunc.constant(3), 1, 5) == 12
    tent = PLFunc.from_points([(-1, 0), (0, 2), (1, 0)])
    assert plfunc_integral(tent, -1, 1) == 2
    assert plfunc_integral(tent, 0, Fraction(1, 2)) == Fraction(3, 4)
    assert plfunc_integral(tent, 3, 3) == 0
    with pytest.raises(ArgumentError):
        plfunc_integral(tent, 1, 0)


@given(plfuncs(), plfuncs(), rationals(), rationals())
def test_integral_is_linear(f, g, a, b):
    a, b = min(a, b), max(a, b)
    total = plfunc_integral(f.add(g), a, b)
    assert total == plfunc_integral(f, a, b) + plfunc_integral(g, a, b)


@given(plfuncs(), rationals(), rationals(), rationals())
def test_integral_splits_at_interior_points(f, a, m, b):
    a, m, b = sorted([a, m, b])
    assert plfunc_integral(f, a, b) == plfunc_integral(f, a, m) + plfunc_integral(f, m, b)


def test_zero_set_oracles():
    vee = PLFunc.from_points([(-1, -1), (0, 1), (1, -1)])
    assert plfunc_zeros(vee) == [Fraction(-1, 2), Fraction(1, 2)]
    assert plfunc_zeros(PLFunc.affine(2, -1)) == [Fraction(1, 2)]
    flat_middle = PLFunc.from_points([(0, 0), (1, 0)], left_slope=-1, right_slope=1)
    assert plfunc_zeros(flat_middle) == [0, 1]
    assert plfunc_zeros(PLFunc.constant(4)) == []


@given(plfuncs())
def test_zero_set_members_vanish(f):
    for x in plfunc_zeros(f):
        assert f(x) == 0


def reference_crossings(f, g):
    """plfunc_crossings as the zero events of the difference function."""
    return [] if f is g or f == g else plfunc_zeros(f.sub(g))


@st.composite
def plfunc_pairs(draw):
    """f with itself, an equal copy, f with an extra breakpoint, a constant
    shift, f plus a step-like function (parallel and coinciding pieces), or
    an unrelated function."""
    f = draw(plfuncs())
    kind = draw(st.sampled_from(
        ["same", "equal", "refined", "shifted", "parallel", "random"]))
    if kind == "same":
        return f, f
    if kind == "equal":
        return f, PLFunc(f.breakpoints, f.values, f.left_slope, f.right_slope)
    if kind == "refined":
        points = dict(zip(f.breakpoints, f.values))
        x = draw(rationals())
        points[x] = f(x)
        return f, PLFunc.from_points(points.items(), f.left_slope, f.right_slope)
    if kind == "shifted":
        return f, f.add_constant(draw(rationals()))
    if kind == "parallel":
        xs = sorted(set(draw(st.lists(rationals(), min_size=1, max_size=4))))
        step = PLFunc(tuple(xs), tuple(draw(st.sampled_from([0, 0, 1, -2]))
                                       for _ in xs), 0, 0)
        return f, f.add(step)
    return f, draw(plfuncs())


@given(plfunc_pairs())
def test_crossings_match_the_difference_function(pair):
    f, g = pair
    for a, b in ((f, g), (g, f)):
        got, want = plfunc_crossings(a, b), reference_crossings(a, b)
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]


def test_plfunc_hash_is_the_field_hash():
    ints = PLFunc((0, 1), (2, 3), 1, -1)
    fracs = PLFunc((Fraction(0), Fraction(1)), (Fraction(2), Fraction(3)),
                   Fraction(1), Fraction(-1))
    fields = (ints.breakpoints, ints.values, ints.left_slope, ints.right_slope)
    assert hash(ints) == hash(fields)
    ints.pieces()
    assert "_hash" in vars(ints) and "_pieces" in vars(ints)
    assert "_hash" not in vars(fracs) and "_pieces" not in vars(fracs)
    assert ints == fracs and hash(fracs) == hash(ints)
    assert [fl.name for fl in dataclasses.fields(PLFunc)] == [
        "breakpoints", "values", "left_slope", "right_slope"]
    assert repr(ints) == repr(fracs) and "_hash" not in repr(ints)
    assert "_pieces" not in repr(ints)


@given(plfuncs(), plfuncs(), rationals())
def test_max_min_are_pointwise(f, g, x):
    assert plfunc_max(f, g)(x) == max(f(x), g(x))
    assert plfunc_min(f, g)(x) == min(f(x), g(x))


def test_extrema_on_closed_hulls():
    vee = PLFunc.from_points([(-1, -1), (0, 1), (1, -1)])
    assert plfunc_max_on_closed(vee, -1, 1) == 1
    assert plfunc_min_on_closed(vee, Fraction(-1, 2), Fraction(1, 2)) == 0
    ramp = PLFunc.affine(1, 0)
    assert plfunc_max_on_closed(ramp, 0, INF) == INF
    assert plfunc_min_on_closed(ramp, 0, INF) == 0
    assert plfunc_min_on_closed(ramp, NEG_INF, 0) == NEG_INF
    assert plfunc_max_on_closed(PLFunc.constant(2), NEG_INF, INF) == 2
    # half-lines that miss every breakpoint: the tail alone decides
    assert plfunc_max_on_closed(ramp, NEG_INF, -10) == -10
    assert plfunc_max_on_closed(PLFunc.affine(-1, 0), 10, INF) == -10
    assert plfunc_min_on_closed(PLFunc.affine(-1, 0), NEG_INF, -10) == 10
    for end in (NEG_INF, INF):
        with pytest.raises(ArgumentError, match="empty hull"):
            plfunc_max_on_closed(ramp, end, end)
    crossed = Slab(NEG_INF, -10, False, True, PLFunc.constant(0),
                   PLFunc.affine(1, 5), True, True)
    with pytest.raises(ValidationError, match="lower bound above upper bound"):
        region_bounded(PLRegion(2, (crossed,)))


def test_order_verdicts():
    low = PLFunc.constant(0)
    high = PLFunc.constant(1)
    dom = line_region(Seg(0, 5, True, True))
    assert plfunc_order(low, high, dom).kind == "lt"
    touch = PLFunc.from_points([(0, 1), (1, 0), (2, 1)])
    verdict = plfunc_order(low, touch, dom)
    assert verdict.kind == "le"
    bad = plfunc_order(high, touch, dom)
    assert bad.kind == "incomparable"
    assert high(bad.witness) > touch(bad.witness)
    with pytest.raises(ArgumentError):
        plfunc_order(low, high, empty_region(1))


def test_positivity_on_domains():
    bump = PLFunc.from_points([(-1, 0), (0, 2), (1, 0)])
    inner = line_region(Seg(Fraction(-1, 2), Fraction(1, 2), True, True))
    line = line_region(Seg(NEG_INF, INF, False, False))
    assert plfunc_is_positive_on(bump, inner) is True
    assert plfunc_is_positive_on(bump, line) is False
    assert plfunc_is_positive_on(PLFunc.constant(1), line) is True


def test_strict_between_cells_oracle():
    ramp = PLFunc.affine(1, 0)
    window = line_region(Seg(-10, 10, True, True))
    cells = strict_between_cells(ramp, 0, 2, window)
    assert list(cells) == [Seg(0, 2, False, False)]


# ---------------------------------------------------------------------------
# regions: boolean calculus agrees with pointwise membership
# ---------------------------------------------------------------------------

@given(mixed_regions(), mixed_regions())
@settings(max_examples=80, deadline=None)
def test_boolean_ops_match_membership(a, b):
    u = region_boolean("union", a, b)
    i = region_boolean("intersect", a, b)
    d = region_difference(a, b)
    for p in probe_points_1d(a, b):
        in_a = region_contains_point(a, p)
        in_b = region_contains_point(b, p)
        assert region_contains_point(u, p) == (in_a or in_b)
        assert region_contains_point(i, p) == (in_a and in_b)
        assert region_contains_point(d, p) == (in_a and not in_b)


@given(any_plane_regions(), any_plane_regions())
@settings(max_examples=25, deadline=None)
def test_boolean_ops_match_membership_2d(a, b):
    u = region_boolean("union", a, b)
    i = region_boolean("intersect", a, b)
    d = region_difference(a, b)
    for p in probe_points_2d(a, b):
        in_a = region_contains_point(a, p)
        in_b = region_contains_point(b, p)
        assert region_contains_point(u, p) == (in_a or in_b)
        assert region_contains_point(i, p) == (in_a and in_b)
        assert region_contains_point(d, p) == (in_a and not in_b)


def _slab_covers_atom(slab, atom):
    """Reference for the sweep in _refine_2d: one slab against one x-atom."""
    if atom[0] == "pt":
        return slab.covers_x(atom[1])
    return slab.x_lo <= atom[1] and atom[2] <= slab.x_hi


@given(st.lists(any_plane_regions(), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_refine_2d_sweep_matches_all_slab_filter(regions):
    views = iter(_refine_2d(regions))
    for atom in _x_atoms(regions)[0]:
        rep = _atom_rep(atom)

        def key(bound):
            if isinstance(bound, float):
                return bound
            return _bound_key(bound, atom, rep)

        expected = [[(key(s.lower), key(s.upper), s.lower_closed, s.upper_closed)
                     for s in region.cells if _slab_covers_atom(s, atom)]
                    for region in regions]
        if not any(expected):
            continue  # no fibre over an atom that no slab covers
        view = next(views)
        assert view.atom == atom

        def by_key(index):
            return index if isinstance(index, float) else view.keys[index]

        assert [[(by_key(li), by_key(ui), loc, upc)
                 for li, ui, loc, upc in ivs]
                for ivs in view.intervals_per_region] == expected
    assert next(views, None) is None


def check_subset_and_difference_laws(a, b):
    assert region_subset(region_boolean("intersect", a, b), a)
    assert region_subset(a, region_boolean("union", a, b))
    assert region_is_empty(
        region_boolean("intersect", region_difference(a, b), b)
    )


def check_closure_is_monotone_idempotent(a):
    closed = region_closure(a)
    assert region_subset(a, closed)
    assert region_equal(region_closure(closed), closed)


def check_sample_point_is_member(a):
    p = region_sample_point(a)
    if p is None:
        # region_is_empty(a) is defined as this very test
        assert region_equal(a, empty_region(a.dim))
    else:
        assert region_contains_point(a, p)


@given(mixed_regions(), mixed_regions())
@settings(max_examples=60, deadline=None)
def test_subset_and_difference_laws(a, b):
    check_subset_and_difference_laws(a, b)


@given(mixed_regions())
@settings(max_examples=60, deadline=None)
def test_closure_is_monotone_idempotent(a):
    check_closure_is_monotone_idempotent(a)


@given(mixed_regions())
@settings(max_examples=60, deadline=None)
def test_sample_point_is_member(a):
    check_sample_point_is_member(a)


@given(any_plane_regions(), any_plane_regions())
@settings(max_examples=20, deadline=None)
def test_subset_and_difference_laws_2d(a, b):
    check_subset_and_difference_laws(a, b)


@given(any_plane_regions())
@settings(max_examples=40, deadline=None)
def test_closure_and_sample_point_laws_2d(a):
    check_closure_is_monotone_idempotent(a)
    check_sample_point_is_member(a)


@given(mixed_regions())
@settings(max_examples=40, deadline=None)
def test_components_cover_without_overlap(a):
    comps = region_components(a)
    rebuilt = empty_region(1)
    for c in comps:
        assert not region_is_empty(c)
        rebuilt = region_boolean("union", rebuilt, c)
    assert region_equal(rebuilt, a)
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            assert region_is_empty(region_boolean("intersect", comps[i], comps[j]))


def test_region_ops_reject_mixed_dimensions():
    line, plane = empty_region(1), empty_region(2)
    for op in (region_subset, region_equal, region_difference,
               lambda a, b: region_boolean("union", a, b)):
        with pytest.raises(ArgumentError, match="dimension mismatch"):
            op(line, plane)


def test_region_equal_sees_through_decomposition():
    whole = line_region(Seg(0, 2, True, True))
    split = line_region(Seg(0, 1, True, True), Seg(1, 2, True, True))
    assert region_equal(whole, split)
    two_arcs = PLRegion(1, (Arc(0, 4, 0, 2, True, True), Arc(0, 4, 2, 0, True, True)))
    assert region_equal(two_arcs, PLRegion(1, (CircleCell(0, 4),)))


def test_component_count_oracles():
    two = line_region(Seg(0, 1, True, True), Seg(2, 3, True, True))
    assert len(region_components(two)) == 2
    touching = line_region(Seg(0, 1, True, True), Seg(1, 2, True, True))
    assert len(region_components(touching)) == 1
    seg_and_circle = PLRegion(1, (Seg(0, 1, True, True), CircleCell(0, 3)))
    assert len(region_components(seg_and_circle)) == 2


def test_bbox_oracles():
    assert region_bbox(line_region(Seg(Fraction(1, 2), 3, True, True))) == (
        (Fraction(1, 2), Fraction(3)),
        None,
    )
    assert region_bbox(line_region(Seg(NEG_INF, 0, False, True))) == (None, None)
    box = PLRegion(
        2,
        (Slab(0, 2, True, True, PLFunc.constant(-1), PLFunc.constant(1), True, True),),
    )
    assert region_bbox(box) == ((Fraction(0), Fraction(2)), (Fraction(-1), Fraction(1)))
    assert region_bbox(empty_region(2)) == (None, None)


def test_circle_cells_start_after_the_first_cut():
    # Cell order fixes the order of elements in an SVG, so it is pinned.
    def arc(s, e, sc=True, ec=True):
        return Arc(0, 4, s, e, sc, ec)

    def cells(*cs):
        return PLRegion(1, cs)

    whole = cells(CircleCell(0, 4))
    # the run through the first cut 1 comes last
    assert region_normalize(cells(arc(1, 2, True, False), arc(3, Fraction(7, 2)))) == cells(
        arc(3, Fraction(7, 2)), arc(1, 2, True, False))
    # a run that wraps past the first cut is one arc
    assert region_boolean("union", cells(arc(3, 1)), cells(arc(1, 2, True, False))) == cells(
        arc(3, 2, True, False))
    # the circle minus one point splits half way round from it
    assert region_difference(whole, cells(arc(1, 1))) == cells(
        arc(1, 3, False, True), arc(3, 1, False, False))
    assert region_normalize(cells(arc(1, 2, True, False), arc(2, 1, False, True))) == cells(
        arc(2, 0, False, True), arc(0, 2, False, False))
    assert region_normalize(cells(arc(3, 3))) == cells(arc(3, 3))
    assert region_normalize(cells(arc(0, 2), arc(2, 0))) == whole
    assert region_sample_point(cells(arc(3, 1, False, False))) == ("circle", 0, 0)


def test_arc_membership_wraps():
    arc = Arc(0, 4, 3, 1, True, False)  # runs 3 -> 4=0 -> 1
    assert arc.contains(3) and arc.contains(Fraction(7, 2)) and arc.contains(0)
    assert not arc.contains(1) and not arc.contains(2)
    assert arc.contains(-1)  # -1 = 3 mod 4


def test_compactness_in_ambient():
    amb = Ambient1D(((0, 2),))
    assert region_is_compact_in(line_region(Seg(Fraction(1, 2), 1, True, True)), amb)
    assert not region_is_compact_in(line_region(Seg(0, 1, False, True)), amb)
    circle_amb = Ambient1D((), (Fraction(3),))
    assert region_is_compact_in(PLRegion(1, (CircleCell(0, 3),)), circle_amb)
    plane = Ambient2D(((NEG_INF, INF, NEG_INF, INF),))
    half = PLRegion(2, (Slab(0, INF, True, False, PLFunc.constant(0), PLFunc.constant(1), True, True),))
    assert not region_is_compact_in(half, plane)
    with pytest.raises(ArgumentError):
        region_is_compact_in(line_region(Seg(-5, 5, True, True)), amb)


# ---------------------------------------------------------------------------
# ambients
# ---------------------------------------------------------------------------

def test_ambient_intervals_sorted_and_disjoint():
    amb = Ambient1D(((3, 4), (0, 1)))
    assert amb.intervals == ((Fraction(0), Fraction(1)), (Fraction(3), Fraction(4)))
    Ambient1D(((0, 1), (1, 2)))  # touching open intervals are disjoint
    with pytest.raises(ValidationError):
        Ambient1D(((0, 2), (1, 3)))
    with pytest.raises(ValidationError):
        Ambient1D(((1, 1),))
    with pytest.raises(ValidationError):
        Ambient1D((), (0,))
    with pytest.raises(ValidationError):
        Arc(0, 0, 1, 2, True, True)
    for length in (0, -2):
        with pytest.raises(ValidationError):
            CircleCell(0, length)


def test_ambient_component_lookup():
    amb = Ambient1D(((0, 1), (2, 3)), (Fraction(5),))
    assert amb.n_components() == 3
    assert amb.component_of_line_point(Fraction(5, 2)) == 1
    assert amb.component_kind(2) == ("circle", Fraction(5))
    with pytest.raises(ArgumentError):
        amb.component_of_line_point(1)


def test_ambient_2d_overlapping_boxes_are_one_component():
    amb = Ambient2D(((0, 2, 0, 2), (1, 3, 1, 3), (10, 11, 0, 1)))
    assert amb.n_components() == 2
    assert amb.component_of_point(Fraction(3, 2), Fraction(3, 2)) == 0
    assert amb.component_of_point(Fraction(21, 2), Fraction(1, 2)) == 1
    assert not amb.contains_point(5, 5)


def test_component_region_membership():
    amb = Ambient1D(((0, 1),), (Fraction(3),))
    reg = component_region(amb, 1)
    assert region_contains_point(reg, ("circle", 0, 1))
    assert not region_contains_point(reg, Fraction(1, 2))
    assert region_subset(reg, ambient_region(amb))
