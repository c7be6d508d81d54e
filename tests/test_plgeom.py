"""Exact piecewise-linear functions and region calculus."""

import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

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
    _YFibre,
    _atom_rep,
    _cell_closure,
    _first_covers,
    _groups,
    _line_atoms,
    _line_runs,
    _refine_2d,
    _slab_is_empty,
    _two_cover,
    _x_atoms,
    ambient_region,
    component_region,
    empty_region,
    fr,
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
    region_difference,
    region_equal,
    region_is_compact_in,
    region_normalize,
    region_sample_point,
    region_subset,
)

from oracles import region_contains_point


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
    bounds = data.draw(st.sampled_from([(f, g), (g, f), (NEG_INF, g), (f, INF)]))
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
        assert Seg(*ends).contains(ends[1]) is ends[3]


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
    assert plfunc_is_positive_on(bump, empty_region(1)) is True
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


def _slab_covers_atom(slab, atom):
    """Reference for the sweep in _refine_2d: one slab against one x-atom."""
    if atom[0] == "pt":
        return slab.covers_x(atom[1])
    return slab.x_lo <= atom[1] and atom[2] <= slab.x_hi


# The cover predicates the region ops pass to _refine_2d, by name.
COVERS = {"any": any, "all": all, "first": _first_covers, "two": _two_cover}


@given(st.lists(any_plane_regions(), min_size=1, max_size=3),
       st.sampled_from(sorted(COVERS)))
@settings(max_examples=60, deadline=None)
def test_refine_2d_sweep_matches_all_slab_filter(regions, cover):
    views = iter(_refine_2d(regions, COVERS[cover]))
    for atom in _x_atoms(regions)[0]:
        rep = _atom_rep(atom)

        def key(bound):
            if isinstance(bound, float):
                return bound
            if atom[0] == "pt":
                return (Fraction(0), bound(atom[1]))
            return bound.piece_at(rep)

        expected = [[(key(s.lower), key(s.upper), s.lower_closed, s.upper_closed)
                     for s in region.cells if _slab_covers_atom(s, atom)]
                    for region in regions]
        if not COVERS[cover](expected):
            continue  # no fibre over an atom the cover skips
        view = next(views)
        assert view.atom == atom
        assert view.heights == [m * rep + c for m, c in view.keys]

        def by_key(index):
            return index if isinstance(index, float) else view.keys[index]

        assert [[(by_key(li), by_key(ui), loc, upc)
                 for li, ui, loc, upc in ivs]
                for ivs in view.intervals_per_region] == expected
    assert next(views, None) is None


def every_fibre(regions):
    """A y-fibre over every x-atom of the regions' refinement, whether or
    not a slab covers it: what the ops' cover predicates skip from."""
    graphs = {}
    for atom in _x_atoms(regions)[0]:
        covering = [[s for s in r.cells if _slab_covers_atom(s, atom)]
                    for r in regions]
        yield _YFibre(covering, atom, _atom_rep(atom), graphs)


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
                     (region_difference, lambda m: m[0] and not m[1])):
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


def check_subset_and_difference_laws(a, b):
    assert region_subset(region_boolean("intersect", a, b), a)
    assert region_subset(a, region_boolean("union", a, b))
    assert region_sample_point(
        region_boolean("intersect", region_difference(a, b), b)) is None


def check_closure_is_monotone_idempotent(a):
    closed = region_closure(a)
    assert region_subset(a, closed)
    assert region_equal(region_closure(closed), closed)


def check_sample_point_is_member(a):
    p = region_sample_point(a)
    if p is None:
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
        region_sample_point(a, empty_region(2))


@given(mixed_regions())
@settings(max_examples=40, deadline=None)
def test_components_cover_without_overlap(a):
    comps = region_components(a)
    rebuilt = empty_region(1)
    for c in comps:
        assert region_sample_point(c) is not None
        rebuilt = region_boolean("union", rebuilt, c)
    assert region_equal(rebuilt, a)
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            assert region_sample_point(comps[i], comps[j]) is None


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
              region_boolean("intersect", a, b), region_difference(a, b)):
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
