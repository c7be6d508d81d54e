"""Signed cut data: classification, validity, cores, compactness,
globularity, and transport along embeddings."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cutgrids.errors import ArgumentError, ValidationError
from cutgrids.plgeom import (
    INF,
    NEG_INF,
    Ambient1D,
    Ambient2D,
    PLFunc,
    Seg,
    interval_rep,
    line_region,
    region_contains_point,
    region_equal,
    region_is_empty,
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
    grid_check,
    grids_equal,
    is_compact,
    is_globular,
    pullback_along,
    pushforward_along,
    relabel,
    region_between,
    tuple_is_ordered,
    validate_cut,
    vertex_grid,
)
from cutgrids.shapes import GammaMorphism, MonotoneMap, compose_monotone, gamma_compose
from cutgrids import grids
from cutgrids.bordisms import FULL_LINE, FULL_PLANE, catalog, shrink_to_core, validate

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
def line_cuts(draw):
    """A 1D ambient of up to two intervals (either outer end may be infinite)
    and up to two circles, with a valid cut: interval components carry one
    to four zeros of either first sign, circle components an even number of
    cyclically alternating zeros (sometimes one at 0), and any component may
    be whole."""
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
    open_slice = region_between(g, amb, (1,), (0,), (2,), closed=False)
    assert region_equal(open_slice, line_region(Seg(-1, 1, False, False)))
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
    assert region_is_empty(core(dropped, pt.ambient))


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

def perturbed_pair(tent_height=F(1, 4)):
    b = catalog("composable_pair_2d")
    tent = PLFunc.from_points([(F(-1, 8), 0), (F(0), tent_height), (F(1, 8), 0)])
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
    assert grids_equal(twice, combined)
    ident = MonotoneMap.identity(mg.grid.tuples[direction - 1].m)
    assert grids_equal(apply_simplicial(mg, direction, ident), mg)


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
    assert grids_equal(one_then_two, two_then_one)


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
    assert grids_equal(step, combined)
    assert grids_equal(relabel(mg, GammaMorphism.identity(mg.ell)), mg)
    assert is_compact(step, ambient)
    assert is_globular(step, ambient)


def test_relabel_arity_guard():
    b = catalog("point1d")
    with pytest.raises(ArgumentError):
        relabel(b.mgrid, GammaMorphism(3, 1, (1, 1, 1)))


# ---------------------------------------------------------------------------
# transport along embeddings
# ---------------------------------------------------------------------------

def test_pushforward_scales_and_shifts_zeros():
    b = catalog("elbow_right")  # zeros at 0 and 1
    mg, img = pushforward_along(b.mgrid, b.ambient, AffineMap.line(2, 3))
    cuts = mg.grid.tuples[0].cuts
    assert cuts[0].components[0].zeros == ((F(3), "+"), (F(5), "-"))
    assert img.intervals == ((NEG_INF, INF),)


def test_pushforward_reflection_flips_signs():
    mg0 = MonoidalCutGrid(
        CutGrid((CutTuple((zeros_cut((F(1, 2), "-")),)),)), 1, (1,))
    mg, _img = pushforward_along(mg0, FULL_LINE, AffineMap.line(-1, 0))
    assert mg.grid.tuples[0].cuts[0].components[0].zeros == ((F(-1, 2), "+"),)


def test_pushforward_axis_swap_exchanges_cut_axes():
    b = catalog("point2d")
    swap = AffineMap(2, (1, 0), (F(1), F(1)), (F(0), F(0)))
    mg, _img = pushforward_along(b.mgrid, b.ambient, swap)
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
    moved, img = pushforward_along(mg, ambient, aff)
    back = pullback_along(moved, AmbientEmbedding(ambient, img, aff))
    assert grids_equal(back, mg)


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
        moved, img = pushforward_along(b.mgrid, b.ambient, aff)
        back = pullback_along(moved, AmbientEmbedding(b.ambient, img, aff))
        assert grids_equal(back, b.mgrid), aff


def test_pushforward_needs_a_map_of_the_ambient_dimension():
    b = catalog("point2d")
    with pytest.raises(ArgumentError, match="dimensions do not agree"):
        pushforward_along(b.mgrid, b.ambient, AffineMap.line(1, 0))
    with pytest.raises(ArgumentError, match="dimensions do not agree"):
        pushforward_along(catalog("point1d").mgrid, FULL_LINE,
                          AffineMap.identity(2))


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
    assert grids_equal(step, pullback_along(src, composite))
    ident = AmbientEmbedding(full, full, AffineMap.identity(1))
    assert grids_equal(pullback_along(src, ident), src)
