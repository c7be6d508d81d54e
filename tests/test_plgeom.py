"""Exact piecewise-linear functions and region calculus."""

import copy
import dataclasses
import itertools
import pickle
import sys
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cutgrids import plgeom
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
    _CircleFibre,
    _LineFibre,
    _YFibre,
    _atom_rep,
    _cell_closure,
    _fibres,
    _first_covers,
    _groups,
    _line_atoms,
    _line_runs,
    _rebuild,
    _refine_2d,
    _slab_is_empty,
    _two_cover,
    _x_atoms,
    ambient_region,
    component_region,
    fr,
    interval_rep,
    line_region,
    plfunc_agree_on,
    plfunc_crossings,
    plfunc_integral,
    plfunc_is_positive_on,
    plfunc_range_on,
    plfunc_zeros,
    region_bbox,
    region_boolean,
    region_bounded,
    region_closure,
    region_components,
    region_disagreement,
    region_equal,
    region_is_compact_in,
    region_normalize,
    region_sample_point,
    region_split,
    region_subset,
)

from oracles import (
    arc_contains,
    reference_cell,
    reference_line_atoms,
    region_contains_point,
    seg_contains,
    slab_covers_x,
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


def positive_part(f):
    """max(f, 0), with breakpoints at those of f, at 0 and at the zeros of
    f, so its pieces can touch 0 over an interval."""
    xs = sorted({*f.breakpoints, Fraction(0), *plfunc_zeros(f)})

    def tail(x, slope):
        return slope if f(x) >= 0 else 0

    return PLFunc(tuple(xs), tuple(max(f(x), 0) for x in xs),
                  tail(xs[0] - 1, f.left_slope), tail(xs[-1] + 1, f.right_slope))


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
        upper = lower.add(positive_part(draw(plfuncs())))
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


def reference_value(f, x):
    """PLFunc.__call__ as a search over the breakpoints and values."""
    x = Fraction(x)
    bps, vals = f.breakpoints, f.values
    if x <= bps[0]:
        return vals[0] + f.left_slope * (x - bps[0])
    if x >= bps[-1]:
        return vals[-1] + f.right_slope * (x - bps[-1])
    for i in range(len(bps) - 1):
        if bps[i] <= x <= bps[i + 1]:
            m = (vals[i + 1] - vals[i]) / (bps[i + 1] - bps[i])
            return vals[i] + m * (x - bps[i])


@given(plfuncs(), st.data())
def test_evaluation_matches_the_breakpoint_formula(f, data):
    bps = f.breakpoints
    between = [(a + b) / 2 for a, b in zip(bps, bps[1:])]
    tails = [bps[0] - 1, bps[-1] + Fraction(1, 3)]
    x = data.draw(st.one_of(st.sampled_from(bps + tuple(between) + tuple(tails)),
                            rationals(), st.integers(-20, 20)))
    got, want = f(x), reference_value(f, x)
    assert got == want and type(got) is type(want) is Fraction


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


def reference_agree_on(f, g, lo, hi):
    """f - g built as a function and evaluated at the finite ends, at its
    breakpoints between them, and one step past each infinite end: it is
    affine between consecutive points of that list, so vanishing at all of
    them is vanishing on [lo, hi]."""
    h = f.sub(g)
    points = [e for e in (lo, hi) if e not in (NEG_INF, INF)]
    points += [x for x in h.breakpoints if lo < x < hi]
    anchors = list(points)
    if lo == NEG_INF:
        points.append(min(anchors) - 1)
    if hi == INF:
        points.append(max(anchors) + 1)
    return all(h(x) == 0 for x in points)


@given(plfunc_pairs(), st.data())
def test_agreement_on_a_hull_matches_the_difference_function(pair, data):
    f, g = pair
    ends = st.one_of(rationals(), st.just(NEG_INF), st.just(INF))
    lo, hi = sorted([data.draw(ends), data.draw(ends)])
    if lo == hi and lo in (NEG_INF, INF):
        with pytest.raises(ArgumentError, match="empty hull"):
            plfunc_agree_on(f, g, lo, hi)
        return
    assert plfunc_agree_on(f, g, lo, hi) is reference_agree_on(f, g, lo, hi)
    assert plfunc_agree_on(g, f, lo, hi) is plfunc_agree_on(f, g, lo, hi)


def test_agreement_on_a_hull():
    flat = PLFunc.constant(1)
    steep = PLFunc.from_points([(0, 1), (3, 1)], 0, 3)  # 1 up to x = 3
    assert plfunc_agree_on(flat, steep, -5, 3) is True
    assert plfunc_agree_on(flat, steep, 3, 3) is True
    assert plfunc_agree_on(flat, steep, -5, Fraction(7, 2)) is False
    assert plfunc_agree_on(flat, steep, NEG_INF, 3) is True
    assert plfunc_agree_on(flat, steep, 0, INF) is False
    assert plfunc_agree_on(flat, steep, 4, 4) is False
    line, zero = PLFunc.affine(1, 0), PLFunc.constant(0)  # meet only at 0
    assert plfunc_agree_on(line, zero, 0, 0) is True
    assert plfunc_agree_on(line, zero, -1, 1) is False
    with pytest.raises(ArgumentError, match="empty hull"):
        plfunc_agree_on(flat, steep, 1, 0)


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


@given(rationals(), rationals(), rationals())
def test_affine_matches_the_one_breakpoint_constructor(m, c, x):
    got, want = PLFunc.affine(m, c), PLFunc((0,), (c,), m, m)
    # built with its pieces and its line in place, before any read
    assert "_pieces" in vars(got) and "_line" in vars(got)
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert got.pieces() == want.pieces()
    assert [tuple(map(type, p)) for p in got.pieces()] == \
        [tuple(map(type, p)) for p in want.pieces()]
    assert got.piece_at(x) == want.piece_at(x)
    assert got._line == want._line == (m, c)
    assert [fl.name for fl in dataclasses.fields(PLFunc)] == [
        "breakpoints", "values", "left_slope", "right_slope"]


def test_extrema_on_closed_hulls():
    vee = PLFunc.from_points([(-1, -1), (0, 1), (1, -1)])
    assert plfunc_range_on(vee, -1, 1)[1] == 1
    assert plfunc_range_on(vee, Fraction(-1, 2), Fraction(1, 2))[0] == 0
    ramp = PLFunc.affine(1, 0)
    assert plfunc_range_on(ramp, 0, INF) == (0, INF)
    assert plfunc_range_on(ramp, NEG_INF, 0)[0] == NEG_INF
    assert plfunc_range_on(PLFunc.constant(2), NEG_INF, INF)[1] == 2
    # half-lines that miss every breakpoint: the tail alone decides
    assert plfunc_range_on(ramp, NEG_INF, -10)[1] == -10
    assert plfunc_range_on(PLFunc.affine(-1, 0), 10, INF)[1] == -10
    assert plfunc_range_on(PLFunc.affine(-1, 0), NEG_INF, -10)[0] == 10
    for end in (NEG_INF, INF):
        with pytest.raises(ArgumentError, match="empty hull"):
            plfunc_range_on(ramp, end, end)
    crossed = Slab(NEG_INF, -10, False, True, PLFunc.constant(0),
                   PLFunc.affine(1, 5), True, True)
    with pytest.raises(ValidationError, match="lower bound above upper bound"):
        region_bounded(PLRegion(2, (crossed,)))


# Reference versions of the hull questions, each answered its own way and
# apart from the walk under test: the maximum from a candidate list, the
# minimum through f.neg(), slab emptiness through upper.sub(lower) and the
# integral by trapezoids over the breakpoints.

def reference_max_on_closed(f, lo, hi):
    """f at the finite hull ends and at its breakpoints inside the hull, or
    +inf when a tail slope rises out of an infinite end."""
    if lo > hi or (lo == hi and lo in (NEG_INF, INF)):
        raise ArgumentError("empty hull")
    cands = []
    if lo != NEG_INF:
        cands.append(f(lo))
    elif f.left_slope < 0:
        return INF
    if hi != INF:
        cands.append(f(hi))
    elif f.right_slope > 0:
        return INF
    cands.extend(f(bp) for bp in f.breakpoints if lo <= bp <= hi)
    return max(cands)


def reference_min_on_closed(f, lo, hi):
    m = reference_max_on_closed(f.neg(), lo, hi)
    return NEG_INF if m == INF else -m


def reference_slab_is_empty(s):
    if isinstance(s.lower, float) or isinstance(s.upper, float):
        return False
    dmax = reference_max_on_closed(s.upper.sub(s.lower), s.x_lo, s.x_hi)
    if dmax == INF or dmax > 0:
        return False
    if dmax < 0:
        raise ValidationError("slab with lower bound above upper bound")
    return not (s.lower_closed and s.upper_closed)


def reference_integral(f, a, b):
    if a > b:
        raise ArgumentError("integral bounds out of order")
    if a == b:
        return Fraction(0)
    xs = [a] + [bp for bp in f.breakpoints if a < bp < b] + [b]
    return sum(((f(x0) + f(x1)) * (x1 - x0) / 2 for x0, x1 in zip(xs, xs[1:])),
               Fraction(0))


@st.composite
def hulls(draw, breakpoints, infinite=True):
    """A nonempty closed hull (lo, hi): its ends are the given breakpoints,
    other rationals or, when infinite, the infinities, so breakpoints fall
    at the ends and inside; one draw in four is a one-point hull."""
    choices = [st.sampled_from(breakpoints), rationals()]
    if infinite:
        choices += [st.just(NEG_INF), st.just(INF)]
    ends = st.one_of(*choices)
    lo = draw(ends)
    lo, hi = sorted([lo, lo if draw(st.integers(0, 3)) == 0 else draw(ends)])
    assume(not (lo == hi and lo in (NEG_INF, INF)))
    return lo, hi


@given(plfuncs(), st.data())
def test_range_on_a_hull_matches_the_candidate_lists(f, data):
    lo, hi = data.draw(hulls(f.breakpoints))
    got = plfunc_range_on(f, lo, hi)
    want = (reference_min_on_closed(f, lo, hi), reference_max_on_closed(f, lo, hi))
    assert got == want and [type(v) for v in got] == [type(v) for v in want]
    if lo != hi:
        with pytest.raises(ArgumentError, match="empty hull"):
            plfunc_range_on(f, hi, lo)


@given(plfunc_pairs(), st.data())
def test_slab_emptiness_matches_the_difference_function(pair, data):
    f, g = pair
    x_lo, x_hi = data.draw(hulls(f.breakpoints + g.breakpoints))
    flags = [x_lo == x_hi or (e not in (NEG_INF, INF) and data.draw(st.booleans()))
             for e in (x_lo, x_hi)]
    rep = x_lo if x_lo == x_hi else interval_rep(x_lo, x_hi)
    copy = PLFunc(f.breakpoints, f.values, f.left_slope, f.right_slope)
    # f plus |x - rep|: meets f at the x-range's representative, above it
    # everywhere else
    touching = f.add(PLFunc((rep,), (0,), -1, 1))
    bounds = data.draw(st.sampled_from([(f, g), (g, f), (NEG_INF, g), (f, INF),
                                        (f, f), (f, copy), (f, touching),
                                        (f.add_constant(1), f)]))
    graph_flags = [isinstance(b, PLFunc) and data.draw(st.booleans()) for b in bounds]
    s = Slab(x_lo, x_hi, *flags, *bounds, *graph_flags)
    try:
        want = reference_slab_is_empty(s)
    except ValidationError:
        with pytest.raises(ValidationError, match="lower bound above upper bound"):
            _slab_is_empty(s)
        return
    assert _slab_is_empty(s) is want


@given(plfuncs(), st.data())
def test_integral_matches_the_trapezoids(f, data):
    a, b = data.draw(hulls(f.breakpoints, infinite=False))
    got, want = plfunc_integral(f, a, b), reference_integral(f, a, b)
    assert got == want and type(got) is type(want)
    if a != b:
        with pytest.raises(ArgumentError):
            plfunc_integral(f, b, a)


@pytest.mark.parametrize("ends, message", [
    ((1, 0, True, True), "endpoints out of order"),
    ((INF, NEG_INF, False, False), "endpoints out of order"),
    ((1, 1, True, False), "degenerate segment must be a closed point"),
    ((INF, INF, False, False), "degenerate segment must be a closed point"),
    ((NEG_INF, 0, True, False), "infinite endpoint cannot be closed"),
    ((0, INF, False, True), "infinite endpoint cannot be closed"),
    ((INF, INF, True, True), "infinite endpoint cannot be closed"),
    ((NEG_INF, NEG_INF, True, True), "infinite endpoint cannot be closed"),
])
def test_segment_guards(ends, message):
    with pytest.raises(ValidationError, match=message):
        Seg(*ends)


def test_segments_that_pass_the_guards():
    for ends in ((1, 1, True, True), (NEG_INF, INF, False, False),
                 (0, 1, False, True), (NEG_INF, 0, False, True)):
        assert seg_contains(Seg(*ends), ends[1]) is ends[3]


def cell_ends():
    """Any end a caller may pass: ints, Fractions and rational strings,
    malformed strings, infinities and finite floats, valid ones most."""
    return st.one_of(rationals(4, 2), st.integers(-3, 3), rationals(4, 2),
                     st.sampled_from(["1/2", "-3", "2/4", "x", "1/0"]),
                     st.sampled_from([INF, NEG_INF]),
                     st.floats(-3, 3, allow_nan=False))


def cell_bounds(infinity):
    """A graph bound, mostly a PLFunc or the given infinity, sometimes the
    other one or a finite float."""
    return st.one_of(plfuncs(), st.just(infinity), plfuncs(),
                     st.sampled_from([INF, NEG_INF]), st.floats(-3, 3))


def cell_arguments():
    """(cls, args) for Seg or Slab, valid or not; ends are drawn sorted half
    the time, so many draws get past the order check, and the fields of
    valid cells are drawn too."""
    def ordered(ends):
        try:
            return tuple(sorted(ends))
        except TypeError:  # a string end
            return ends

    def fields_of(cell):
        return type(cell), tuple(getattr(cell, f.name) for f in dataclasses.fields(cell))

    x_range = st.tuples(cell_ends(), cell_ends()).flatmap(
        lambda ends: st.sampled_from([ends, ordered(ends)]))
    flags = st.tuples(st.booleans(), st.booleans())
    seg = st.tuples(x_range, flags).map(lambda t: (Seg, (*t[0], *t[1])))
    slab = st.tuples(x_range, flags, cell_bounds(NEG_INF), cell_bounds(INF),
                     flags).map(lambda t: (Slab, (*t[0], *t[1], t[2], t[3], *t[4])))
    return st.one_of(seg, slab, segs().map(fields_of), slabs().map(fields_of))


def settled_dict_size(make) -> int:
    """sys.getsizeof of the instance dict of make(), once its class's
    shared keys have settled: CPython sizes the dicts of a class's first
    few dozen instances larger."""
    for _ in range(64):
        make()
    return sys.getsizeof(vars(make()))


PLAIN_CELLS = {cls: dataclasses.make_dataclass(
    cls.__name__, [f.name for f in dataclasses.fields(cls)], frozen=True)
    for cls in (Seg, Slab)}


@given(cell_arguments())
@settings(max_examples=300, deadline=None)
def test_cell_constructors_match_the_post_init_reference(drawn):
    cls, args = drawn
    try:
        want = reference_cell(cls, *args)
    except Exception as error:
        with pytest.raises(Exception) as raised:
            cls(*args)
        assert type(raised.value) is type(error)
        assert str(raised.value) == str(error)
        return
    cell = cls(*args)
    names = [f.name for f in dataclasses.fields(cls)]
    values = [getattr(cell, name) for name in names]
    assert [(type(v), v) for v in values] == \
        [(type(getattr(want, n)), getattr(want, n)) for n in names]
    assert cell == want and hash(cell) == hash(want) and repr(cell) == repr(want)
    for twin in (dataclasses.replace(cell), copy.deepcopy(cell),
                 pickle.loads(pickle.dumps(cell))):
        assert type(twin) is cls and twin == cell and hash(twin) == hash(cell)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cell, names[0], values[0])
    # the instance dict keeps the size of a plain frozen dataclass's, as it
    # does when the fields are set one by one in order
    assert settled_dict_size(lambda: cls(*args)) == \
        settled_dict_size(lambda: PLAIN_CELLS[cls](*values))


def test_positivity_on_domains():
    bump = PLFunc.from_points([(-1, 0), (0, 2), (1, 0)])
    inner = line_region(Seg(Fraction(-1, 2), Fraction(1, 2), True, True))
    line = line_region(Seg(NEG_INF, INF, False, False))
    assert plfunc_is_positive_on(bump, inner) is True
    assert plfunc_is_positive_on(bump, line) is False
    assert plfunc_is_positive_on(PLFunc.constant(1), line) is True
    # the gap g - f between two sheets: strictly positive, or touching 0
    low, high = PLFunc.constant(0), PLFunc.constant(1)
    touch = PLFunc.from_points([(0, 1), (1, 0), (2, 1)])
    dom = line_region(Seg(0, 5, True, True))
    assert plfunc_is_positive_on(high.sub(low), dom) is True
    assert plfunc_is_positive_on(touch.sub(low), dom) is False
    # a zero at an open end of the domain lies outside it
    assert plfunc_is_positive_on(bump, line_region(Seg(-1, 1, False, False)))
    assert not plfunc_is_positive_on(bump, line_region(Seg(-1, 1, True, False)))
    assert plfunc_is_positive_on(bump, PLRegion(1, ())) is True
    # a sign change at 1, inside a segment with no end or breakpoint there:
    # the segment's middle, 5/4, alone would read positive
    ramp = PLFunc.from_points([(0, -1), (2, 1)])
    straddle = line_region(Seg(Fraction(1, 2), 2, False, False))
    assert not plfunc_is_positive_on(ramp, straddle)
    for domain in (PLRegion(1, (CircleCell(0, 3),)), ambient_region(
            Ambient2D(((0, 1, 0, 1),)))):
        with pytest.raises(ArgumentError, match="live on the line"):
            plfunc_is_positive_on(bump, domain)


def cells_from_predicate(criticals, pred):
    """{x : pred(x)} as segments, pred being constant between consecutive
    critical coordinates: the predicate atomization that sublevel sets were
    once built by."""
    atoms, _ = _line_atoms(criticals)
    included = [pred(_atom_rep(a)) for a in atoms]
    return tuple(Seg(*run) for run in _line_runs(atoms, included))


def reference_is_positive_on(f, domain):
    """Positivity as an empty meet of the domain with the sublevel region
    {x : f(x) <= 0}, which is built in full first."""
    crit = set(plfunc_zeros(f)) | set(f.breakpoints)
    nonpos = PLRegion(1, cells_from_predicate(crit, lambda x: f(x) <= 0))
    return region_sample_point(region_boolean("intersect", nonpos, domain)) is None


@st.composite
def positivity_cases(draw):
    """A PL function, some with identically-zero pieces and some bounded
    away from 0, and a line domain of up to two segments with open, closed
    and infinite ends.  Half the segments lie around a zero of the function
    (a breakpoint if it has none), often narrowly, so that a sign change
    may fall inside one segment with no other event in it."""
    f = draw(plfuncs())
    f = draw(st.sampled_from([f, f, positive_part(f),
                              positive_part(f).add_constant(Fraction(1, 4))]))
    special = plfunc_zeros(f) or f.breakpoints
    offsets = st.sampled_from([Fraction(0), Fraction(1, 8), Fraction(1, 3), Fraction(2)])
    cells = []
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            x = draw(st.sampled_from(special))
            a, b = x - draw(offsets), x + draw(offsets)
        else:
            a, b = sorted([draw(rationals()), draw(rationals())])
        lo = NEG_INF if draw(st.integers(0, 3)) == 0 else a
        hi = INF if draw(st.integers(0, 3)) == 0 else b
        closed = (lo != NEG_INF and draw(st.booleans()),
                  hi != INF and draw(st.booleans()))
        cells.append(Seg(lo, hi, *((True, True) if lo == hi else closed)))
    return f, PLRegion(1, tuple(cells))


@given(positivity_cases())
@settings(max_examples=300, deadline=None)
def test_positivity_matches_the_sublevel_reference(case):
    f, domain = case
    assert plfunc_is_positive_on(f, domain) is reference_is_positive_on(f, domain)


# ---------------------------------------------------------------------------
# line atomization: criticals ordered and indexed as integers
# ---------------------------------------------------------------------------

def primes(n):
    """The first n primes."""
    found: list[int] = []
    k = 2
    while len(found) < n:
        if all(k % p for p in found):
            found.append(k)
        k += 1
    return found


def rewritten(c):
    """c written another way: an int as an unreduced Fraction over 2, a
    Fraction as an int when it is one, else as a new equal Fraction."""
    if isinstance(c, int):
        return Fraction(2 * c, 2)
    if c.denominator == 1:
        return c.numerator
    return Fraction(3 * c.numerator, 3 * c.denominator)


@st.composite
def critical_lists(draw):
    """Criticals as ints and as Fractions over mixed and coprime
    denominators, negatives among them, with some values written twice."""
    values = draw(st.lists(st.one_of(
        st.integers(-30, 30),
        st.builds(Fraction, st.integers(-60, 60),
                  st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 11, 12, 13]))),
        max_size=12))
    twins = [rewritten(c) for c in values if draw(st.booleans())]
    return draw(st.permutations(values + twins))


@given(critical_lists())
@example([Fraction((-1) ** i * (i + 1), p) for i, p in enumerate(primes(200))])
@example([2, Fraction(4, 2), Fraction(-1, 2), Fraction(-2, 4)])
@settings(max_examples=200, deadline=None)
def test_line_atoms_match_the_sorted_set_reference(criticals):
    atoms, position = _line_atoms(criticals)
    want, want_position = reference_line_atoms(criticals)
    assert atoms == want
    assert [position(c) for c in criticals] == [want_position(c) for c in criticals]


def test_line_refinement_neither_compares_nor_hashes_fractions(monkeypatch):
    criticals = sorted(Fraction(k) + Fraction(1, (2, 3, 5, 7)[k % 4])
                       for k in range(-50, 50))
    ranges = [(NEG_INF, criticals[0], False, True)] + [
        (lo, hi, True, False) for lo, hi in zip(criticals[1::2], criticals[2::2])]
    want = _LineFibre(criticals, [ranges])
    calls = {"__lt__": 0, "__hash__": 0}
    for name in calls:
        def counting(*args, _real=getattr(Fraction, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(Fraction, name, counting)
    fibre = _LineFibre(criticals, [ranges])
    assert calls == {"__lt__": 0, "__hash__": 0}
    assert (fibre.atoms, fibre.memberships) == (want.atoms, want.memberships)


def test_range_ends_find_their_atoms_by_value():
    third = Fraction(1, 3)
    lo, hi = Fraction(2, 6), Fraction(1, 6) + Fraction(3, 2)
    assert lo == third and lo is not third
    fibre = _LineFibre([third, Fraction(5, 3)], [[(lo, hi, True, False)]])
    assert fibre.memberships == [(False,), (True,), (True,), (False,), (False,)]


def test_wrapping_arc_cells_match_the_reference(monkeypatch):
    L = Fraction(7, 3)
    wrap = Arc(0, L, 2, Fraction(1, 2), True, False)  # runs 2 -> 7/3=0 -> 1/2
    other = Arc(0, L, Fraction(1, 3), Fraction(5, 4), False, True)
    regions = [PLRegion(1, (wrap,)), PLRegion(1, (other,))]
    fibre = _CircleFibre(0, L, [r.cells for r in regions])
    # c0 + L is built apart from the critical c0 + L, and finds it by value
    assert fibre.atoms[-1] == ("iv", 2, Fraction(8, 3))
    assert fibre.memberships[-1] == (True, False)

    def results():
        return [region_normalize(regions[0]), region_boolean("union", *regions),
                region_boolean("intersect", *regions),
                region_disagreement(regions[0], (regions[1],))]

    got = results()
    monkeypatch.setattr(plgeom, "_line_atoms", reference_line_atoms)
    assert got == results()
    assert got[0] == regions[0]


# ---------------------------------------------------------------------------
# regions: boolean calculus agrees with pointwise membership
# ---------------------------------------------------------------------------

@given(mixed_regions(), mixed_regions())
@settings(max_examples=80, deadline=None)
def test_boolean_ops_match_membership(a, b):
    u = region_boolean("union", a, b)
    i = region_boolean("intersect", a, b)
    d = region_disagreement(a, (b,))
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
    d = region_disagreement(a, (b,))
    for p in probe_points_2d(a, b):
        in_a = region_contains_point(a, p)
        in_b = region_contains_point(b, p)
        assert region_contains_point(u, p) == (in_a or in_b)
        assert region_contains_point(i, p) == (in_a and in_b)
        assert region_contains_point(d, p) == (in_a and not in_b)


def reference_x_atoms(regions):
    """_x_atoms as a loop over every pair of distinct bounds: slab x-ends,
    bound breakpoints and plfunc_crossings of each pair."""
    xs, bounds = set(), []
    for r in regions:
        for slab in r.cells:
            xs.update(e for e in (slab.x_lo, slab.x_hi) if e not in (NEG_INF, INF))
            for b in (slab.lower, slab.upper):
                if isinstance(b, PLFunc):
                    xs.update(b.breakpoints)
                    if b not in bounds:
                        bounds.append(b)
    for f, g in itertools.combinations(bounds, 2):
        xs.update(plfunc_crossings(f, g))
    return _line_atoms(xs)


def line_through(m, c, xs):
    """The line y = m x + c written with breakpoints at xs."""
    return PLFunc.from_points([(x, m * x + c) for x in xs], m, m)


@st.composite
def line_bound_regions(draw):
    """Regions bounded mostly by lines that share a few slopes, so many are
    parallel; a line may be written as PLFunc.affine, through breakpoints
    other than 0, or both ways in one refinement.  Beside them lie random
    curves, which cross the lines, and a curve that follows one line over a
    piece and bends away at its ends."""
    slopes = draw(st.lists(rationals(3, 2), min_size=1, max_size=3, unique=True))
    off_zero = rationals(6, 2).filter(lambda x: x != 0)
    bounds = []
    for _ in range(draw(st.integers(1, 6))):
        m, c = draw(st.sampled_from(slopes)), draw(rationals(6, 2))
        form = draw(st.sampled_from(["affine", "points", "both"]))
        if form in ("affine", "both"):
            bounds.append(PLFunc.affine(m, c))
        if form in ("points", "both"):
            xs = draw(st.lists(off_zero, min_size=1, max_size=3, unique=True))
            bounds.append(line_through(m, c, xs))
    for _ in range(draw(st.integers(0, 2))):
        bounds.append(draw(plfuncs()))
    if draw(st.booleans()):
        m, c = draw(st.sampled_from(slopes)), draw(rationals(6, 2))
        a = -draw(rationals(6, 2).filter(lambda x: x > 0))
        b = draw(rationals(6, 2).filter(lambda x: x > 0))
        bend = draw(rationals(3, 2).filter(lambda x: x != 0))
        bounds.append(line_through(m, c, [a, b]))
        bounds.append(PLFunc.from_points(
            [(a - 1, m * (a - 1) + c + bend), (a, m * a + c), (b, m * b + c),
             (b + 1, m * (b + 1) + c - bend)], m, -m))
    regions = [[] for _ in range(draw(st.integers(1, 3)))]
    for bound in draw(st.permutations(bounds)):
        lo, hi = sorted([draw(rationals(6, 2)), draw(rationals(6, 2))])
        slab = Slab(lo, hi, True, True, bound, INF, True, False)
        regions[draw(st.integers(0, len(regions) - 1))].append(slab)
    return [PLRegion(2, tuple(cells)) for cells in regions]


@given(line_bound_regions())
@settings(max_examples=200, deadline=None)
def test_x_atoms_match_crossing_every_pair(regions):
    got, _ = _x_atoms(regions)
    want, _ = reference_x_atoms(regions)
    assert got == want
    assert [tuple(map(type, a)) for a in got] == [tuple(map(type, a)) for a in want]


@st.composite
def pencil_regions(draw):
    """Pencils of three to five lines of distinct slopes through one point
    or two, with mixed denominators, each line written as PLFunc.affine or
    through a breakpoint, in slabs whose x-range starts at the point; and at
    each point the corner of a box, whose lower side y = y0 meets every
    line of the pencil there."""
    points = draw(st.lists(st.tuples(rationals(6, 6), rationals(6, 6)),
                           min_size=1, max_size=2, unique_by=lambda p: p[0]))
    positive = st.builds(Fraction, st.integers(1, 6), st.integers(1, 6))
    cells = []
    for x0, y0 in points:
        for m in draw(st.lists(rationals(4, 6), min_size=3, max_size=5, unique=True)):
            c = y0 - m * x0
            line = (PLFunc.affine(m, c) if draw(st.booleans())
                    else line_through(m, c, [x0 + draw(positive)]))
            x1 = x0 + draw(positive)
            cells.append(Slab(x0, x1, True, True, line, INF, True, False))
        x1, y1 = x0 + draw(positive), y0 + draw(positive)
        cells.append(Slab(x0, x1, False, False, PLFunc.constant(y0),
                          PLFunc.constant(y1), False, False))
    regions = [[] for _ in range(draw(st.integers(1, 3)))]
    for cell in draw(st.permutations(cells)):
        regions[draw(st.integers(0, len(regions) - 1))].append(cell)
    return [PLRegion(2, tuple(r)) for r in regions]


@given(pencil_regions())
@settings(max_examples=100, deadline=None)
def test_x_atoms_build_each_crossing_of_concurrent_lines_once(regions):
    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args):
            built.append(Fraction(*args))
            return built[-1]

    with mock.patch.object(plgeom, "Fraction", CountingFraction):
        got, _ = _x_atoms(regions)
    want, _ = reference_x_atoms(regions)
    assert got == want
    assert [tuple(map(type, a)) for a in got] == [tuple(map(type, a)) for a in want]
    lines = {b._line for r in regions for s in r.cells for b in (s.lower, s.upper)
             if isinstance(b, PLFunc)}
    crossings = {(c2 - c1) / (m1 - m2)
                 for (m1, c1), (m2, c2) in itertools.combinations(lines, 2) if m1 != m2}
    assert sorted(built) == sorted(crossings)


def _slab_covers_atom(slab, atom):
    """Reference for the sweep in _refine_2d: one slab against one x-atom."""
    if atom[0] == "pt":
        return slab_covers_x(slab, atom[1])
    return slab.x_lo <= atom[1] and atom[2] <= slab.x_hi


# The cover predicates the region ops pass to _refine_2d, by name.
COVERS = {"any": any, "all": all, "first": _first_covers, "two": _two_cover}


@given(st.lists(any_plane_regions(), min_size=1, max_size=3),
       st.sampled_from(sorted(COVERS)))
@settings(max_examples=60, deadline=None)
def test_refine_2d_sweep_matches_all_slab_filter(regions, cover):
    views = iter(_refine_2d(regions, COVERS[cover]))
    atoms, table = _x_atoms(regions)
    L, S = table.L, table.S
    for atom in atoms:
        rep = _atom_rep(atom)

        def key(bound):
            if isinstance(bound, float):
                return bound
            if atom[0] == "pt":
                return (Fraction(0), bound(atom[1]))
            return bound.piece_at(rep)

        def value(bound):
            return bound if isinstance(bound, float) else bound(rep)

        expected = [[(key(s.lower), key(s.upper), s.lower_closed, s.upper_closed)
                     for s in region.cells if _slab_covers_atom(s, atom)]
                    for region in regions]
        if not COVERS[cover](expected):
            continue  # no fibre over an atom the cover skips
        view = next(views)
        assert view.atom == atom
        assert Fraction(view.X, S) == rep

        def as_key(h):
            # a height y L S as the (slope, intercept) it stands for: the
            # constant y on a point atom, its piece (m L, c L) on an open one
            if isinstance(h, float):
                return h
            if atom[0] == "pt":
                return (Fraction(0), Fraction(h, L * S))
            M, C = view.pieces[h]
            return (Fraction(M, L), Fraction(C, L))

        def as_value(h):
            return h if isinstance(h, float) else Fraction(h, L * S)

        ivs = view.intervals_per_region
        assert [[(as_value(lo), as_value(hi), loc, hic) for lo, hi, loc, hic in r]
                for r in ivs] == \
            [[(value(s.lower), value(s.upper), s.lower_closed, s.upper_closed)
              for s in region.cells if _slab_covers_atom(s, atom)]
             for region in regions]
        assert [[(as_key(lo), as_key(hi), loc, hic) for lo, hi, loc, hic in r]
                for r in ivs] == expected
        # the fibre's critical points are the distinct heights in key order
        assert [a[1] for a in view.atoms if a[0] == "pt"] == sorted(view.pieces)
    assert next(views, None) is None


def every_fibre(regions):
    """A y-fibre over every x-atom of the regions' refinement, whether or
    not a slab covers it: what the ops' cover predicates skip from.  Each
    atom's scaled representative is read from the atom itself."""
    atoms, table = _x_atoms(regions)
    for atom in atoms:
        X = _atom_rep(atom) * table.S
        assert X.denominator == 1
        covering = [[table.slab(s) for s in r.cells if _slab_covers_atom(s, atom)]
                    for r in regions]
        yield _YFibre(covering, atom, X.numerator, table)


def rebuild_from_every_fibre(regions, keep):
    cells = []
    for fibre in every_fibre(regions):
        cells.extend(fibre.cells([keep(m) for m in fibre.memberships]))
    return cells


def components_from_every_fibre(a):
    cells = rebuild_from_every_fibre([a], lambda m: m[0])
    closures = [reference_closure(PLRegion(2, (c,))) for c in cells]
    meets = {pair for fibre in every_fibre(closures) for m in fibre.memberships
             for pair in itertools.combinations(
                 [i for i, inside in enumerate(m) if inside], 2)}
    return [tuple(cells[i] for i in g) for g in _groups(len(cells), sorted(meets))]


def sample_point_from_every_fibre(regions):
    for fibre in every_fibre(regions):
        for i, m in enumerate(fibre.memberships):
            if all(m):
                return fibre.point(i)
    return None


@given(any_plane_regions(), any_plane_regions())
@settings(max_examples=60, deadline=None)
def test_ops_match_a_refinement_of_every_fibre(a, b):
    # the fibres an op skips hold no point it keeps or fails on, so its
    # cells and answers are those of the refinement with every fibre built
    for op, keep in ((lambda a, b: region_boolean("intersect", a, b),
                      lambda m: m[0] and m[1]),
                     (lambda a, b: region_boolean("union", a, b),
                      lambda m: m[0] or m[1]),
                     (lambda a, b: region_disagreement(a, (b,)),
                      lambda m: m[0] and not m[1])):
        assert list(op(a, b).cells) == rebuild_from_every_fibre([a, b], keep)
    for x, y in ((a, b), (b, a)):
        assert region_subset(x, y) is all(
            not m[0] or m[1] for fibre in every_fibre([x, y])
            for m in fibre.memberships)
    assert region_equal(a, b) is all(
        m[0] == m[1] for fibre in every_fibre([a, b]) for m in fibre.memberships)
    assert region_sample_point(a, b) == sample_point_from_every_fibre([a, b])
    assert region_sample_point(a) == sample_point_from_every_fibre([a])
    for r in (a, b):
        assert [c.cells for c in region_components(r)] == \
            components_from_every_fibre(r)


def counting_keeps(keeps):
    """Each keep wrapped to count its calls per membership tuple."""
    counts = [Counter() for _ in keeps]

    def counted(keep, count):
        def wrapped(m):
            count[m] += 1
            return keep(m)
        return wrapped

    return [counted(k, c) for k, c in zip(keeps, counts)], counts


@given(any_plane_regions(), any_plane_regions())
@settings(max_examples=60, deadline=None)
def test_rebuild_asks_each_keep_once_per_membership_pattern(a, b):
    # keeps are functions of the membership tuple, so a call asks each one
    # once per distinct tuple, beside its own all-False check; two calls
    # in turn, with the keeps in either order, share no answer
    keeps = [lambda m: m[0] and m[1], lambda m: m[0] or m[1],
             lambda m: m[0] and not m[1]]
    patterns = Counter({m: 1 for fibre in _fibres([a, b])
                        for m in fibre.memberships})
    patterns[(False, False)] += 1
    for order in (keeps, keeps[::-1]):
        counted, counts = counting_keeps(order)
        got = _rebuild([a, b], counted)
        assert counts == [patterns] * len(order)
        assert [list(r.cells) for r in got] == \
            [rebuild_from_every_fibre([a, b], keep) for keep in order]


# Bounds whose slopes and intercepts have the coprime denominators 7, 11,
# 13 and 3.  LINE_C is parallel to LINE_A and below it; LINE_A and LINE_B
# cross at x = 4732/1551.  VEE has its vertex at the breakpoint 3/13, where
# FLOOR touches it, so the two closed regions on either side meet in that
# one point, over the point atom that reads VEE at its breakpoint.
LINE_A = PLFunc.affine(Fraction(2, 7), Fraction(1, 11))
LINE_B = PLFunc.affine(Fraction(-3, 13), Fraction(5, 3))
LINE_C = PLFunc.affine(Fraction(2, 7), Fraction(-4, 13))
VEE = PLFunc.from_points([(Fraction(-6, 11), Fraction(1, 3)),
                          (Fraction(3, 13), Fraction(-2, 7)),
                          (Fraction(9, 7), Fraction(4, 11))],
                         Fraction(-1, 3), Fraction(5, 7))
FLOOR = PLFunc.constant(Fraction(-2, 7))


def _plane_slab(lower, upper):
    """{lower <= y <= upper} over the whole x-line, closed on graph bounds."""
    return PLRegion(2, (Slab(NEG_INF, INF, False, False, lower, upper,
                             isinstance(lower, PLFunc), isinstance(upper, PLFunc)),))


def mixed_denominator_regions():
    """Named regions over those bounds, with x-ends of distinct
    denominators; the whole plane's refinement is one x-atom, unbounded on
    both sides."""
    F = Fraction
    return {
        "a": PLRegion(2, (Slab(F(-9, 7), F(17, 19), True, True, LINE_A, INF, True, False),
                          Slab(NEG_INF, F(-5, 3), False, False, NEG_INF, LINE_B, False, True))),
        "b": PLRegion(2, (Slab(F(-2, 5), F(13, 4), False, True, LINE_B, INF, True, False),
                          Slab(F(-11, 23), F(-2, 5), True, False, NEG_INF, VEE, False, True))),
        "band": PLRegion(2, (Slab(F(-7, 5), F(11, 17), True, False, LINE_C, LINE_A, False, True),)),
        "above_vee": _plane_slab(VEE, INF),
        "below_floor": _plane_slab(NEG_INF, FLOOR),
        "above_a": _plane_slab(LINE_A, INF),
        "below_b": _plane_slab(NEG_INF, LINE_B),
        "plane": _plane_slab(NEG_INF, INF),
        "empty": PLRegion(2, ()),
    }


def refinement_probes(*regions):
    """A point in each cell of the regions' joint refinement, read with
    plain Fractions: over the representative of each x-atom of
    reference_x_atoms, every bound's value there, the midpoints between
    those values and one beyond each end."""
    bounds = {b for r in regions for s in r.cells for b in (s.lower, s.upper)
              if isinstance(b, PLFunc)}
    probes = []
    for atom in reference_x_atoms(regions)[0]:
        x = _atom_rep(atom)
        ys = sorted({b(x) for b in bounds})
        stops = [ys[0] - 1, *ys, ys[-1] + 1] if ys else [Fraction(0)]
        mids = [(lo + hi) / 2 for lo, hi in zip(stops, stops[1:])]
        probes += [(x, y) for y in stops + mids]
    return probes


def check_table_reads_bounds_exactly(regions):
    """Each bound's piece over each x-atom is the one PLFunc.piece_at picks
    at the atom's representative (the left piece at a breakpoint), and its
    height there, divided by L S, is the bound's value."""
    atoms, table = _x_atoms(regions)
    L, S = table.L, table.S
    written = [(bound, ints) for r in regions for s in r.cells
               for bound, ints in zip((s.lower, s.upper), table.slab(s))]
    for atom, X in zip(atoms, table.reps):
        rep = _atom_rep(atom)
        assert Fraction(X, S) == rep
        for bound, ints in written:
            if isinstance(bound, float):
                assert ints == bound
                continue
            breakpoints, pieces = ints
            M, C = pieces[bisect_left(breakpoints, X)]
            m, c = bound.piece_at(rep)
            assert (Fraction(M, L), Fraction(C, L)) == (m, c)
            assert Fraction(M * X + C * S, L * S) == bound(rep)


MIXED_PAIRS = [("a", "b"), ("b", "a"), ("above_vee", "below_floor"),
               ("below_floor", "above_vee"), ("above_a", "below_b"),
               ("below_b", "above_a"), ("a", "band"), ("band", "above_vee"),
               ("b", "below_floor"), ("plane", "plane"), ("plane", "empty"),
               ("empty", "plane"), ("above_vee", "plane")]


@pytest.mark.parametrize("names", MIXED_PAIRS, ids="-".join)
def test_ops_are_exact_over_mixed_denominators(names):
    regions = mixed_denominator_regions()
    a, b = (regions[n] for n in names)
    check_table_reads_bounds_exactly([a, b])
    probes = refinement_probes(a, b)

    def inside(r, p):
        return region_contains_point(r, p)

    for op, keep in ((lambda a, b: region_boolean("intersect", a, b),
                      lambda m: m[0] and m[1]),
                     (lambda a, b: region_boolean("union", a, b),
                      lambda m: m[0] or m[1]),
                     (lambda a, b: region_disagreement(a, (b,)),
                      lambda m: m[0] and not m[1])):
        got = op(a, b)
        assert list(got.cells) == rebuild_from_every_fibre([a, b], keep)
        assert [inside(got, p) for p in probes] == \
            [keep((inside(a, p), inside(b, p))) for p in probes]
    # one probe per cell of the refinement makes these exact
    for x, y in ((a, b), (b, a)):
        assert region_subset(x, y) is all(not inside(x, p) or inside(y, p)
                                          for p in probes)
    assert region_equal(a, b) is all(inside(a, p) == inside(b, p) for p in probes)
    point = region_sample_point(a, b)
    assert point == sample_point_from_every_fibre([a, b])
    if point is None:
        assert not any(inside(a, p) and inside(b, p) for p in probes)
    else:
        assert inside(a, point) and inside(b, point)


def test_the_vee_and_its_floor_meet_in_one_point():
    regions = mixed_denominator_regions()
    vee, floor = regions["above_vee"], regions["below_floor"]
    vertex = (Fraction(3, 13), Fraction(-2, 7))
    assert region_sample_point(vee, floor) == vertex
    [cell] = region_boolean("intersect", vee, floor).cells
    assert (cell.x_lo, cell.x_hi, cell.lower(cell.x_lo), cell.upper(cell.x_lo)) == \
        (vertex[0], vertex[0], vertex[1], vertex[1])


def test_split_is_exact_over_mixed_denominators():
    regions = mixed_denominator_regions()
    for within, names in (("a", ("b", "band", "below_floor")),
                          ("plane", ("above_vee", "below_floor", "below_b")),
                          ("above_a", ("empty", "b"))):
        whole = regions[within]
        parts = [regions[n] for n in names]
        check_table_reads_bounds_exactly([whole, *parts])
        probes = refinement_probes(whole, *parts)
        for k, (got, part) in enumerate(zip(region_split(whole, parts), parts), 1):
            assert list(got.cells) == rebuild_from_every_fibre(
                [whole, *parts], lambda m, k=k: m[0] and m[k])
            assert [region_contains_point(got, p) for p in probes] == [
                region_contains_point(whole, p) and region_contains_point(part, p)
                for p in probes]


def check_subset_and_difference_laws(a, b):
    assert region_subset(region_boolean("intersect", a, b), a)
    assert region_subset(a, region_boolean("union", a, b))
    assert region_sample_point(
        region_boolean("intersect", region_disagreement(a, (b,)), b)) is None


def check_closure_is_monotone_idempotent(a):
    closed = region_closure(a)
    assert region_subset(a, closed)
    assert region_equal(region_closure(closed), closed)


def check_sample_point_is_member(a):
    p = region_sample_point(a)
    if p is None:
        assert region_equal(a, PLRegion(a.dim, ()))
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


def check_meet_query_matches_intersect_then_sample(a, b):
    meet = region_sample_point(a, b)
    built = region_sample_point(region_boolean("intersect", a, b))
    assert (meet is None) == (built is None)
    if meet is not None:
        assert region_contains_point(a, meet) and region_contains_point(b, meet)


@given(mixed_regions(), mixed_regions())
@settings(max_examples=150, deadline=None)
def test_meet_query_matches_intersect_then_sample(a, b):
    check_meet_query_matches_intersect_then_sample(a, b)


@given(any_plane_regions(), any_plane_regions())
@settings(max_examples=60, deadline=None)
def test_meet_query_matches_intersect_then_sample_2d(a, b):
    check_meet_query_matches_intersect_then_sample(a, b)


def test_meet_query_of_three_regions():
    a = line_region(Seg(0, 2, True, True))
    b = line_region(Seg(1, 3, True, True))
    assert region_sample_point(a, b, line_region(Seg(2, 4, True, True))) == 2
    # every pair meets, the three do not
    c = line_region(Seg(2, 4, False, True), Seg(-1, Fraction(1, 2), True, True))
    assert region_sample_point(a, b) is not None
    assert region_sample_point(a, c) is not None
    assert region_sample_point(b, c) is not None
    assert region_sample_point(a, b, c) is None
    with pytest.raises(ArgumentError, match="dimension mismatch"):
        region_sample_point(a, PLRegion(2, ()))


@given(mixed_regions())
@settings(max_examples=40, deadline=None)
def test_components_cover_without_overlap(a):
    comps = region_components(a)
    rebuilt = PLRegion(1, ())
    for c in comps:
        assert region_sample_point(c) is not None
        rebuilt = region_boolean("union", rebuilt, c)
    assert region_equal(rebuilt, a)
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            assert region_sample_point(comps[i], comps[j]) is None


def test_region_ops_reject_mixed_dimensions():
    line, plane = PLRegion(1, ()), PLRegion(2, ())
    for op in (region_subset, region_equal,
               lambda a, b: region_disagreement(a, (b,)),
               lambda a, b: region_boolean("union", a, b)):
        with pytest.raises(ArgumentError, match="dimension mismatch"):
            op(line, plane)


@given(mixed_regions(), mixed_regions(), mixed_regions(), mixed_regions())
@settings(max_examples=80, deadline=None)
def test_disagreement_matches_membership(w, a, b, c):
    # a point of w is kept unless some index k has it in part k of each
    # partition: here in a and b, or in b and c
    d = region_disagreement(w, (a, b), (b, c))
    for p in probe_points_1d(w, a, b, c):
        inside = [region_contains_point(r, p) for r in (w, a, b, c)]
        assert region_contains_point(d, p) == (inside[0] and not (
            inside[1] and inside[2] or inside[2] and inside[3]))


def test_disagreement_needs_partitions_of_one_size():
    a = line_region(Seg(0, 1, True, True))
    with pytest.raises(ArgumentError, match="different numbers of parts"):
        region_disagreement(a, (a, a), (a,))
    assert region_disagreement(a) == region_normalize(a)


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
    assert region_bbox(PLRegion(2, ())) == (None, None)


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
    assert region_disagreement(whole, (cells(arc(1, 1)),)) == cells(
        arc(1, 3, False, True), arc(3, 1, False, False))
    assert region_normalize(cells(arc(1, 2, True, False), arc(2, 1, False, True))) == cells(
        arc(2, 0, False, True), arc(0, 2, False, False))
    assert region_normalize(cells(arc(3, 3))) == cells(arc(3, 3))
    assert region_normalize(cells(arc(0, 2), arc(2, 0))) == whole
    assert region_sample_point(cells(arc(3, 1, False, False))) == ("circle", 0, 0)


def test_arc_membership_wraps():
    arc = Arc(0, 4, 3, 1, True, False)  # runs 3 -> 4=0 -> 1
    assert all(arc_contains(arc, t) for t in (3, Fraction(7, 2), 0))
    assert not arc_contains(arc, 1) and not arc_contains(arc, 2)
    assert arc_contains(arc, -1)  # -1 = 3 mod 4


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


# Reference versions of the derived queries: each tests slab emptiness for
# itself, and the components glue every pair of cell closures through
# region_boolean and region_sample_point.

def reference_closure(a):
    return PLRegion(a.dim, tuple(_cell_closure(c) for c in a.cells
                                 if not (isinstance(c, Slab) and reference_slab_is_empty(c))))


def reference_bounded(a):
    for c in a.cells:
        if isinstance(c, Seg):
            if isinstance(c.lo, float) or isinstance(c.hi, float):
                return False
        elif isinstance(c, Slab):
            if reference_slab_is_empty(c):
                continue
            if isinstance(c.x_lo, float) or isinstance(c.x_hi, float):
                return False
            if isinstance(c.lower, float) or isinstance(c.upper, float):
                return False
    return True


def reference_bbox(a):
    xs, ys = [], []
    unbounded_x = unbounded_y = False
    for c in a.cells:
        if isinstance(c, Seg):
            for e in (c.lo, c.hi):
                if isinstance(e, float):
                    unbounded_x = True
                else:
                    xs.append(e)
        elif isinstance(c, (Arc, CircleCell)):
            xs.extend([Fraction(0), c.circumference])
        elif not reference_slab_is_empty(c):
            if isinstance(c.x_lo, float) or isinstance(c.x_hi, float):
                unbounded_x = True
                continue
            xs.extend([c.x_lo, c.x_hi])
            for b in (c.lower, c.upper):
                if isinstance(b, PLFunc):
                    ys.extend([reference_min_on_closed(b, c.x_lo, c.x_hi),
                               reference_max_on_closed(b, c.x_lo, c.x_hi)])
                else:
                    unbounded_y = True
    xr = None if (unbounded_x or not xs) else (min(xs), max(xs))
    if a.dim == 1:
        return (xr, None)
    return (xr, None if (unbounded_y or not ys) else (min(ys), max(ys)))


def reference_is_compact_in(a, m):
    amb = ambient_region(m)
    if not region_subset(a, amb):
        raise ArgumentError("region is not contained in the ambient")
    if not reference_bounded(a):
        return False
    return region_subset(reference_closure(a), amb)


def reference_components(a):
    cells = region_normalize(a).cells
    closures = [reference_closure(PLRegion(a.dim, (c,))) for c in cells]
    parent = list(range(len(cells)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(cells)), 2):
        if find(i) != find(j) and region_sample_point(
                region_boolean("intersect", closures[i], closures[j])) is not None:
            parent[find(i)] = find(j)
    groups = {}
    for i in range(len(cells)):
        groups.setdefault(find(i), []).append(cells[i])
    return [PLRegion(a.dim, tuple(g)) for _, g in sorted(groups.items())]


def outcome(query, *args):
    try:
        return repr(query(*args))
    except (ArgumentError, ValidationError) as e:
        return type(e).__name__


AMBIENTS_1D = (Ambient1D(((NEG_INF, INF),), (Fraction(3), Fraction(5))),
               Ambient1D(((-6, 0), (0, 6)), (Fraction(3),)))
AMBIENTS_2D = (Ambient2D(((NEG_INF, INF, NEG_INF, INF),)),
               Ambient2D(((-7, 7, -60, 60),)),
               Ambient2D(((-4, 1, -5, 5), (0, 3, -20, 20))))


# The reference glues pairs of cells one region_boolean at a time; above
# this many normalized cells it takes seconds per region.
REFERENCE_CELLS = 50


def check_derived_queries_match_the_reference(a, b, ambients):
    for r in (a, region_boolean("union", a, b),
              region_boolean("intersect", a, b), region_disagreement(a, (b,))):
        if len(region_normalize(r).cells) <= REFERENCE_CELLS:
            assert repr(region_components(r)) == repr(reference_components(r))
        if outcome(reference_closure, r) == "ValidationError":
            # a slab whose lower bound lies above its upper bound, which no
            # region op emits: every query that reads the closure rejects it
            check_rejects_crossed_bounds(r, ambients)
            continue
        for new, ref in ((region_closure, reference_closure),
                         (region_bounded, reference_bounded),
                         (region_bbox, reference_bbox)):
            assert repr(new(r)) == repr(ref(r))
        for m in ambients:
            assert outcome(region_is_compact_in, r, m) == outcome(
                reference_is_compact_in, r, m)


def check_rejects_crossed_bounds(r, ambients):
    queries = [region_closure, region_bounded, region_bbox]
    queries += [lambda r, m=m: region_is_compact_in(r, m) for m in ambients]
    for query in queries:
        with pytest.raises(ValidationError, match="lower bound above upper bound"):
            query(r)


@given(mixed_regions(), mixed_regions())
@settings(max_examples=50, deadline=None)
def test_derived_queries_match_the_reference(a, b):
    check_derived_queries_match_the_reference(a, b, AMBIENTS_1D)


@given(any_plane_regions(), any_plane_regions())
@settings(max_examples=30, deadline=None)
def test_derived_queries_match_the_reference_2d(a, b):
    check_derived_queries_match_the_reference(a, b, AMBIENTS_2D)


def test_groups_come_in_the_order_of_their_final_roots():
    # 0-3 then 0-6 leaves 0's class under root 6, after the class {4, 5}
    # (root 5), though it holds the smallest index; the reverse replay
    # would leave it under root 3
    assert _groups(7, [(0, 3), (0, 6), (4, 5)]) == [[1], [2], [4, 5], [0, 3, 6]]
    assert _groups(7, [(0, 6), (0, 3), (4, 5)]) == [[1], [2], [0, 3, 6], [4, 5]]


def test_components_come_in_the_order_the_pairwise_gluing_leaves():
    # The piece of normalized cells 3, 5, 7 (the box over (5, 7)) comes
    # before the one holding cell 0: pieces are ordered by their final root,
    # which depends on the order in which the meeting pairs are joined.
    def box(x0, x1, y0, y1):
        return Slab(x0, x1, x0 == x1, x0 == x1, PLFunc.constant(y0),
                    PLFunc.constant(y1), False, False)

    r = PLRegion(2, (box(4, 6, 0, 2), box(6, 8, 2, 3), box(5, 7, 4, 5),
                     box(6, 6, 0, 1)))
    comps = region_components(r)
    assert [len(c.cells) for c in comps] == [3, 7]
    assert repr(comps) == repr(reference_components(r))


def test_crossed_bounds_are_rejected_whatever_the_cell_order():
    # The reference answered False (unbounded first) or raised ArgumentError
    # (a region outside the box) before it reached the crossed slab.
    crossed = Slab(NEG_INF, -10, False, True, PLFunc.constant(0),
                   PLFunc.affine(1, 5), True, True)
    half = Slab(0, INF, True, False, PLFunc.constant(0), PLFunc.constant(1),
                True, True)
    plane, box = AMBIENTS_2D[0], Ambient2D(((-1, 1, -1, 1),))
    first = PLRegion(2, (half, crossed))
    assert reference_bounded(first) is False
    assert outcome(reference_is_compact_in, first, plane) == "False"
    assert outcome(reference_is_compact_in, first, box) == "ArgumentError"
    for cells in ((half, crossed), (crossed, half)):
        check_rejects_crossed_bounds(PLRegion(2, cells), (plane, box))


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


def test_ambient_ends_are_exact_rationals():
    # a finite float end would pass for an infinity, and the ambient's
    # sample point would then lie outside it
    with pytest.raises(ArgumentError, match="not an exact rational"):
        Ambient1D(((0, 0.5),))
    with pytest.raises(ArgumentError, match="not an exact rational"):
        Ambient2D(((0, 0.5, 0, 0.25),))
    half = Ambient1D(((0, "1/2"),))
    assert half.intervals == ((Fraction(0), Fraction(1, 2)),)
    assert region_sample_point(ambient_region(half)) == Fraction(1, 4)
    box = Ambient2D(((0, Fraction(1, 2), NEG_INF, Fraction(1, 4)),))
    assert region_contains_point(ambient_region(box),
                                 region_sample_point(ambient_region(box)))
    assert Ambient1D(((NEG_INF, INF),)).intervals == ((NEG_INF, INF),)


def test_malformed_rationals_are_argument_errors():
    assert fr("-3/6") == Fraction(-1, 2) and fr(2) == 2
    for bad in ("x", "1/0", "", "1/", 0.5, None):
        with pytest.raises(ArgumentError, match="not an exact rational"):
            fr(bad)


def test_cell_ends_are_exact_rationals():
    # int ends used to stay ints, so interval_rep divided them into floats
    # that the engine's own point queries then rejected
    seg = Seg(0, 5, False, False)
    assert (type(seg.lo), type(seg.hi)) == (Fraction, Fraction)
    point = region_sample_point(line_region(seg))
    assert point == Fraction(5, 2) and type(point) is Fraction
    assert region_contains_point(line_region(seg), point)
    meet = region_sample_point(line_region(Seg(0, 5, False, False)),
                               line_region(Seg(1, 5, False, False)))
    assert meet == 3 and type(meet) is Fraction
    slab = Slab(0, 1, False, False, PLFunc.constant(0), PLFunc.constant(1),
                True, True)
    x, y = region_sample_point(PLRegion(2, (slab,)))
    assert (x, y) == (Fraction(1, 2), 0) and type(x) is Fraction
    assert region_contains_point(PLRegion(2, (slab,)), (x, y))
    assert Seg("1/3", 1, True, True).lo == Fraction(1, 3)
    assert Seg(NEG_INF, INF, False, False) == Seg(NEG_INF, INF, False, False)
    with pytest.raises(ArgumentError, match="not an exact rational"):
        Seg(0, 0.5, False, False)
    with pytest.raises(ArgumentError, match="not an exact rational"):
        Slab(0.5, 1, False, False, NEG_INF, INF, False, False)


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
    with pytest.raises(ArgumentError, match="outside the ambient"):
        amb.component_of_point(5, 5)


def test_component_region_membership():
    amb = Ambient1D(((0, 1),), (Fraction(3),))
    reg = component_region(amb, 1)
    assert region_contains_point(reg, ("circle", 0, 1))
    assert not region_contains_point(reg, Fraction(1, 2))
    assert region_subset(reg, ambient_region(amb))
