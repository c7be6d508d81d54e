"""Tests for labelled bordisms: validation, equivalence, morphisms,
composition, the monoidal product, metrics, and families."""

from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutgrids.bordisms import (
    FULL_LINE,
    FULL_PLANE,
    Bordism,
    BordismFamily,
    CATALOG_NAMES,
    FamComponentCut1D,
    FamCut1D,
    FieldDatum,
    bordism_core,
    bordism_pullback,
    catalog,
    conjoint_of_point_isotopy,
    embedded_field,
    equivalent,
    face_compose,
    family_at,
    family_checkpoints,
    is_morphism,
    metric_core_length,
    monoidal_product,
    normalize,
    pullback_metric,
    shrink_to_core,
    source_target,
    validate,
    validate_family,
)
from cutgrids.errors import (
    ArgumentError,
    NeighborhoodError,
    NotDirectlyConstructibleError,
    OverlapError,
    UnsupportedFieldError,
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
    pullback_along,
)
from cutgrids.plgeom import INF, NEG_INF, Ambient1D, Ambient2D, PLFunc, plfunc_agree_on
from cutgrids.shapes import GammaMorphism


def zeros_cut(*zs):
    return Cut1D((ComponentCut1D("zeros", tuple((F(p), s) for p, s in zs)),))


def whole_cut(side):
    return Cut1D((ComponentCut1D("whole", (), side),))


def line_bordism(cuts, ell=1, labels=(1,)):
    mgrid = MonoidalCutGrid(CutGrid((CutTuple(tuple(cuts)),)), ell, labels)
    return Bordism(FULL_LINE, mgrid, embedded_field(1), AffineMap.identity(1))


def cut_zeros(b, direction, i):
    return b.mgrid.grid.tuples[direction - 1].cuts[i].components[0].zeros


def translated(b, s):
    """The same cut data, declared to sit at a shifted position."""
    return Bordism(b.ambient, b.mgrid, b.field, AffineMap.line(1, s), b.uple)


EMPTY = Bordism(
    Ambient1D((), ()),
    MonoidalCutGrid(CutGrid((CutTuple((Cut1D(()),)),)), 0, ()),
    embedded_field(1),
    AffineMap.identity(1),
)


# ---------------------------------------------------------------------------
# the worked-example catalog
# ---------------------------------------------------------------------------

def test_catalog_examples_validate():
    for name in CATALOG_NAMES:
        made = catalog(name)
        if isinstance(made, BordismFamily):
            report = validate_family(made)
        else:
            report = validate(made)
        assert report.passed, f"{name}: {report}"


def test_catalog_rejects_unknown_names():
    with pytest.raises(ArgumentError, match="unknown catalog name"):
        catalog("snake")


def test_catalog_parameter_guards():
    with pytest.raises(ArgumentError):
        catalog("point1d", 0, "*")
    with pytest.raises(ArgumentError):
        catalog("elbow_right", 1, 1)
    with pytest.raises(ArgumentError):
        catalog("composable_pair_2d", 2)
    with pytest.raises(ArgumentError):
        catalog("point_isotopy", 0, 1, "=")


def test_catalog_rejects_extra_parameters():
    for name, params in (("point2d", (1,)), ("elbow_right", (0, 1, 2)),
                         ("metric_interval", (0, 1, 2, 3))):
        with pytest.raises(ArgumentError, match="too many"):
            catalog(name, *params)
    with pytest.raises(ArgumentError, match="not an exact rational"):
        catalog("composable_pair_2d", "x")


def test_validate_reports_field_problems():
    point = catalog("point1d")
    interval = catalog("metric_interval")

    metric_in_plane = Bordism(
        FULL_PLANE, catalog("point2d").mgrid,
        FieldDatum("metric", (PLFunc.constant(1),)))
    assert validate(metric_in_plane).failures()[0].detail == \
        "metric field needs d = 1"

    no_map = Bordism(FULL_LINE, point.mgrid, embedded_field(1))
    assert validate(no_map).failures()[0].detail == \
        "embedded field without a map"

    flat = Bordism(FULL_LINE, interval.mgrid,
                   FieldDatum("metric", (PLFunc.constant(0),)))
    assert validate(flat).failures()[0].detail == \
        "density on component 0 is not strictly positive"

    two = Bordism(FULL_LINE, interval.mgrid,
                  FieldDatum("metric",
                             (PLFunc.constant(1), PLFunc.constant(1))))
    assert validate(two).failures()[0].detail == "2 densities for 1 components"


def test_validate_counts_labels_against_components():
    mgrid = MonoidalCutGrid(
        CutGrid((CutTuple((zeros_cut((0, "+")),)),)), 1, (1, 1))
    report = validate(Bordism(FULL_LINE, mgrid))
    bad = report.failures()[0]
    assert bad.name == "labels"
    assert bad.detail == "2 labels for 1 components"


# ---------------------------------------------------------------------------
# equivalence of embedded bordisms
# ---------------------------------------------------------------------------

def test_equivalence_ignores_data_away_from_the_core():
    """Only a neighborhood of the core matters: swapping the second cut
    for one that agrees near [0, 1] but differs beyond x = 10 changes
    nothing, while a disagreement at x = 1/2 lands on the core."""
    e = catalog("elbow_right")
    far = line_bordism([zeros_cut((0, "+"), (1, "-")), zeros_cut((10, "+"))])
    near = line_bordism(
        [zeros_cut((0, "+"), (1, "-")), zeros_cut((F(1, 2), "+"))])
    assert equivalent(e, far) is True
    assert equivalent(e, near) is False


def test_equivalence_normalizes_embeddings_first():
    e = catalog("elbow_right")
    shifted_data = line_bordism(
        [zeros_cut((1, "+"), (2, "-")), whole_cut("below")])
    shifted = translated(shifted_data, -1)
    assert equivalent(e, shifted) is True


@given(st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=30, deadline=None)
def test_translates_are_equivalent_exactly_when_shifts_agree(s, t):
    e = catalog("elbow_right")
    assert equivalent(translated(e, s), translated(e, t)) is (s == t)


def test_equivalence_distinguishes_cores():
    e = catalog("elbow_right")
    assert equivalent(e, e) is True
    assert equivalent(e, catalog("elbow_right", 0, 2)) is False


def test_equivalence_sees_label_changes():
    def point_with_label(lab):
        mgrid = MonoidalCutGrid(
            CutGrid((CutTuple((zeros_cut((0, "+")),)),)), 2, (lab,))
        return Bordism(FULL_LINE, mgrid, embedded_field(1),
                       AffineMap.identity(1))

    assert equivalent(point_with_label(1), point_with_label(2)) is False


def test_equivalence_guards():
    with pytest.raises(ArgumentError, match="shape mismatch"):
        equivalent(catalog("elbow_right"), catalog("point1d"))
    with pytest.raises(UnsupportedFieldError):
        equivalent(catalog("metric_interval"), catalog("metric_interval"))


def test_normalize_pushes_cut_data_forward():
    b = translated(catalog("elbow_right"), 0)
    stretched = Bordism(FULL_LINE, b.mgrid, b.field, AffineMap.line(2, 3))
    n = normalize(stretched)
    assert cut_zeros(n, 1, 0) == ((F(3), "+"), (F(5), "-"))
    assert n.embedding.is_identity()
    already = catalog("elbow_right")
    assert normalize(already) is already


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

def test_identity_and_restriction_are_morphisms():
    e = catalog("elbow_right")
    assert is_morphism(AffineMap.identity(1), e, e) is True
    assert is_morphism(AffineMap.identity(1), shrink_to_core(e, 1), e) is True


def test_is_morphism_validates_its_embedding_once(monkeypatch):
    calls = []
    validate_embedding = AmbientEmbedding.validate

    def counted(emb):
        calls.append(emb)
        validate_embedding(emb)

    monkeypatch.setattr(AmbientEmbedding, "validate", counted)
    for name, phi in (("composable_pair_2d", AffineMap.identity(2)),
                      ("elbow_right", AffineMap.identity(1))):
        b = catalog(name)
        core = shrink_to_core(b, 1)
        calls.clear()
        assert is_morphism(phi, core, b) is True
        assert len(calls) == 1
        calls.clear()
        assert is_morphism(phi, b, core) is False  # b.ambient leaves core.ambient
        assert len(calls) == 1


def test_a_morphism_image_must_contain_the_core():
    e = catalog("elbow_right")
    window = Ambient1D(((-2, F(1, 2)),))
    emb = AmbientEmbedding(window, FULL_LINE, AffineMap.identity(1))
    small = Bordism(window, pullback_along(e.mgrid, emb),
                    embedded_field(1), AffineMap.identity(1))
    assert is_morphism(AffineMap.identity(1), small, e) is False


def test_translation_morphism_respects_embeddings():
    target = catalog("elbow_right", 5, 6)
    source = translated(catalog("elbow_right"), 5)
    assert is_morphism(AffineMap.line(1, 5), source, target) is True
    assert is_morphism(AffineMap.identity(1), catalog("point1d", 0),
                       catalog("point1d", 1)) is False


def crossed_planes(y_sheet, ambient):
    """point2d's two cuts with the y-sheet replaced, on the given ambient."""
    ycut = Cut2D(2, (ComponentCut2D("sheets", (Sheet(y_sheet, "+"),)),))
    xcut = Cut2D(1, (ComponentCut2D(
        "sheets", (Sheet(PLFunc.constant(0), "+"),)),))
    return Bordism(ambient, MonoidalCutGrid(
        CutGrid((CutTuple((ycut,)), CutTuple((xcut,)))), 1, (1,)))


def test_a_morphism_compares_sheets_only_where_the_source_lives():
    ident = AffineMap.identity(2)
    box = Ambient2D(((-1, 1, -1, 1),))
    b1 = crossed_planes(PLFunc.constant(0), box)
    # 0 up to x = 2, so it agrees with b1's sheet on the box
    bent = PLFunc.from_points([(2, 0), (3, 1)], 0, 1)
    assert is_morphism(ident, b1, crossed_planes(bent, FULL_PLANE)) is True
    lifted = crossed_planes(PLFunc.constant(F(1, 2)), box)
    assert is_morphism(ident, lifted,
                       crossed_planes(PLFunc.constant(0), FULL_PLANE)) is False
    # a cut with no component record has no partition of the box
    recordless = b1.with_mgrid(replace(b1.mgrid, grid=CutGrid((
        CutTuple((Cut2D(2, ()),)), b1.mgrid.grid.tuples[1]))))
    assert is_morphism(ident, recordless, b1) is False


def test_a_morphism_compares_densities_only_on_the_source_components():
    target = catalog("metric_interval", 0, 2, 1)
    window = Ambient1D(((F(-1, 2), F(5, 2)),))
    grid = pullback_along(target.mgrid, AmbientEmbedding(
        window, FULL_LINE, AffineMap.identity(1)))

    def with_density(w):
        return Bordism(window, grid, FieldDatum("metric", (w,)))

    # 1 on the closed window, rising with slope 3 past its right end
    steep = PLFunc.from_points([(F(-1, 2), 1), (F(5, 2), 1)], 0, 3)
    assert is_morphism(AffineMap.identity(1), with_density(steep),
                       target) is True
    rising = PLFunc.from_points([(0, 1), (1, 2)])
    assert is_morphism(AffineMap.identity(1), with_density(rising),
                       target) is False


def morphism_implies_equivalence(phi, b1, b2) -> bool:
    return not is_morphism(phi, b1, b2) or equivalent(b1, b2)


@pytest.mark.parametrize("eps", [F(1, 2), F(1), F(3)])
def test_a_restriction_to_the_core_is_a_morphism_and_an_equivalence(eps):
    for name in CATALOG_NAMES:
        b = catalog(name)
        if isinstance(b, BordismFamily) or b.field.kind != "embedded":
            continue
        shrunk = shrink_to_core(b, eps)
        phi = AffineMap.identity(b.ambient.dim)
        assert is_morphism(phi, shrunk, b) is True, name
        assert morphism_implies_equivalence(phi, shrunk, b), name


def test_a_translated_morphism_is_an_equivalence():
    target = catalog("elbow_right", 5, 6)
    source = translated(catalog("elbow_right"), 5)
    assert morphism_implies_equivalence(AffineMap.line(1, 5), source, target)
    assert morphism_implies_equivalence(
        AffineMap.identity(1), catalog("point1d", 0), catalog("point1d", 1))


def test_metric_morphism_needs_the_pulled_back_density():
    target = catalog("metric_interval", 0, 2, 1)
    halved = MonoidalCutGrid(
        CutGrid((CutTuple((zeros_cut((0, "+")), zeros_cut((1, "+")))),)),
        1, (1,))
    good = Bordism(FULL_LINE, halved,
                   FieldDatum("metric", (PLFunc.constant(2),)))
    bad = Bordism(FULL_LINE, halved,
                  FieldDatum("metric", (PLFunc.constant(1),)))
    assert is_morphism(AffineMap.line(2, 0), good, target) is True
    assert is_morphism(AffineMap.line(2, 0), bad, target) is False


def metric_on_two_intervals_and_a_circle():
    """Densities 5, 1, 2, 3 on a discarded interval, two kept intervals
    with cores [-4, -2] and [4, 6], and a circle inside the core."""
    ambient = Ambient1D(((-10, -8), (-5, 0), (0, 10)), (F(4),))

    def cut(a, b, circle_side):
        return Cut1D((ComponentCut1D("whole", (), "below"),
                      ComponentCut1D("zeros", ((F(a), "+"),)),
                      ComponentCut1D("zeros", ((F(b), "+"),)),
                      ComponentCut1D("whole", (), circle_side)))

    mgrid = MonoidalCutGrid(
        CutGrid((CutTuple((cut(-4, 4, "above"), cut(-2, 6, "below"))),)),
        1, (0, 1, 1, 1))
    return Bordism(ambient, mgrid, FieldDatum(
        "metric", tuple(PLFunc.constant(w) for w in (5, 1, 2, 3))))


def densities(b):
    return [w.values[0] for w in b.field.densities]


def test_densities_are_judged_on_their_components():
    """An interval's density only inside the open interval; a circle's on
    the closed fundamental domain [0, L], both ends included."""
    b = metric_on_two_intervals_and_a_circle()

    def with_density(k, w):
        ws = list(b.field.densities)
        ws[k] = w
        return validate(replace(b, field=FieldDatum("metric", tuple(ws))))

    to_zero_at_0 = PLFunc.affine(1, 0)  # vanishes at the end of (-5, 0)
    assert with_density(1, to_zero_at_0.neg()).passed
    assert not with_density(2, to_zero_at_0.neg()).passed
    assert with_density(3, PLFunc.affine(-1, 5)).passed  # 1 at L = 4
    for w in (PLFunc.affine(-1, 4), to_zero_at_0):  # 0 at L, 0 at 0
        report = with_density(3, w)
        assert [e.detail for e in report.failures()] == [
            "density on component 3 is not strictly positive"]


def test_shrinking_keeps_each_density_with_its_component():
    b = metric_on_two_intervals_and_a_circle()
    assert validate(b).passed
    shrunk = shrink_to_core(b, 1)
    assert shrunk.ambient.intervals == ((-5, -1), (3, 7))
    assert densities(shrunk) == [1, 2, 3]
    assert is_morphism(AffineMap.identity(1), shrunk, b) is True
    swapped = replace(shrunk, field=FieldDatum(
        "metric", tuple(PLFunc.constant(w) for w in (2, 1, 3))))
    assert is_morphism(AffineMap.identity(1), swapped, b) is False


def test_a_reflected_metric_morphism_pulls_each_density_back():
    b = metric_on_two_intervals_and_a_circle()
    phi = AffineMap.line(-2, 0)
    # (-7/2, -3/2) lands in (0, 10) and (3/4, 9/4) in (-5, 0); both images
    # hold the core there, and phi stretches lengths by 2
    source = Ambient1D(((F(-7, 2), F(-3, 2)), (F(3, 4), F(9, 4))), (F(4),))
    mgrid = pullback_along(b.mgrid, AmbientEmbedding(source, b.ambient, phi))

    def with_densities(*ws):
        return Bordism(source, mgrid, FieldDatum(
            "metric", tuple(PLFunc.constant(w) for w in ws)))

    assert is_morphism(phi, with_densities(4, 2, 3), b) is True
    assert is_morphism(phi, with_densities(2, 4, 3), b) is False
    assert is_morphism(phi, with_densities(4, 2, 6), b) is False


def test_bordism_pullback_restricts_each_field_kind():
    b = metric_on_two_intervals_and_a_circle()
    phi = AffineMap.line(-2, 0)
    source = Ambient1D(((F(-7, 2), F(-3, 2)), (F(3, 4), F(9, 4))), (F(4),))
    pulled = bordism_pullback(b, AmbientEmbedding(source, b.ambient, phi))
    assert pulled.ambient == source
    assert densities(pulled) == [4, 2, 3]  # stretched by 2; the circle's kept
    assert is_morphism(phi, pulled, b) is True

    placed = translated(catalog("elbow_right"), 5)
    stretch = AmbientEmbedding(FULL_LINE, FULL_LINE, AffineMap.line(2, 0))
    assert bordism_pullback(placed, stretch).embedding == AffineMap.line(2, 5)
    plain = replace(placed, field=FieldDatum("trivial"), embedding=None)
    pulled_plain = bordism_pullback(plain, stretch)
    assert pulled_plain.field == plain.field and pulled_plain.embedding is None
    assert cut_zeros(pulled_plain, 1, 0) == ((F(0), "+"), (F(1, 2), "-"))


def test_a_density_count_that_is_not_the_component_count_is_refused():
    b = catalog("metric_interval", 0, 1, 3)
    w = b.field.densities[0]
    for ws in ((), (w, w)):
        bad = replace(b, field=FieldDatum("metric", ws))
        message = f"{len(ws)} densities for 1 components"
        for restrict in (lambda: shrink_to_core(bad, F(1, 2)),
                         lambda: metric_core_length(bad),
                         lambda: bordism_pullback(bad, AmbientEmbedding(
                             FULL_LINE, FULL_LINE, AffineMap.identity(1)))):
            with pytest.raises(ArgumentError, match=message):
                restrict()
        assert is_morphism(AffineMap.identity(1), bad, b) is False
        assert is_morphism(AffineMap.identity(1), b, bad) is False
        far = replace(shrink_to_core(catalog("metric_interval", 4, 5), 1),
                      field=bad.field)
        with pytest.raises(ArgumentError, match=message):
            monoidal_product(shrink_to_core(b, 1), far)


# ---------------------------------------------------------------------------
# composition and boundaries
# ---------------------------------------------------------------------------

def test_circle_trace_composes_to_the_unit_endomorphism():
    """Composing both inner pairs of the circle trace leaves whole-side
    cuts only: the core grows to the full circle while both boundary
    vertices have empty cores."""
    ct = catalog("circle_trace")
    composed = face_compose(face_compose(ct, 1, 2), 1, 1)
    assert composed.shape[1].entries == (1,)
    core_cells = bordism_core(composed).cells
    assert len(core_cells) == 1 and core_cells[0].circumference == 4
    assert bordism_core(source_target(composed, 1, 0)).cells == ()
    assert bordism_core(source_target(composed, 1, 1)).cells == ()
    assert validate(composed).passed


def test_triangle_faces_and_vertices():
    tri = catalog("triangle_interval")
    inner = face_compose(tri, 1, 1)
    assert cut_zeros(inner, 1, 0) == ((F(-1), "+"),)
    assert cut_zeros(inner, 1, 1) == ((F(1), "+"),)
    src = source_target(tri, 1, 0)
    tgt = source_target(tri, 1, 2)
    assert cut_zeros(src, 1, 0) == ((F(-1), "+"),)
    assert cut_zeros(tgt, 1, 0) == ((F(1), "+"),)


def test_face_and_vertex_index_guards():
    tri = catalog("triangle_interval")
    with pytest.raises(ArgumentError, match="inner face index"):
        face_compose(tri, 1, 0)
    with pytest.raises(ArgumentError, match="inner face index"):
        face_compose(tri, 1, 2)
    with pytest.raises(ArgumentError, match="outside"):
        source_target(tri, 1, 3)
    for direction in (0, 5):
        with pytest.raises(ArgumentError, match="outside"):
            face_compose(tri, direction, 1)
        with pytest.raises(ArgumentError, match="outside"):
            source_target(tri, direction, 0)


# ---------------------------------------------------------------------------
# monoidal product
# ---------------------------------------------------------------------------

def test_monoidal_product_orders_components_along_the_line():
    left = shrink_to_core(catalog("point1d"), 1)
    right = shrink_to_core(catalog("point1d", 5, "-"), 1)
    prod = monoidal_product(left, right)
    assert prod.ambient.intervals == ((F(-1), F(1)), (F(4), F(6)))
    assert prod.mgrid.ell == 2
    assert prod.mgrid.labels == (1, 2)
    assert validate(prod).passed
    # swapping the factors swaps which summand each label comes from
    assert monoidal_product(right, left).mgrid.labels == (2, 1)
    # a discarded component stays discarded, whichever factor it is in
    discarded = right.with_mgrid(MonoidalCutGrid(right.mgrid.grid, 1, (0,)))
    assert monoidal_product(left, discarded).mgrid.labels == (1, 0)


def test_monoidal_product_relabels_through_a_merge():
    left = shrink_to_core(catalog("point1d"), 1)
    right = shrink_to_core(catalog("point1d", 5, "-"), 1)
    merged = monoidal_product(left, right, GammaMorphism(2, 1, (1, 1)))
    assert merged.mgrid.ell == 1
    assert merged.mgrid.labels == (1, 1)


def test_the_empty_bordism_is_a_product_unit():
    left = shrink_to_core(catalog("point1d"), 1)
    assert validate(EMPTY).passed
    prod = monoidal_product(left, EMPTY)
    assert equivalent(prod, left) is True


def test_monoidal_product_guards():
    with pytest.raises(OverlapError, match="shrink_to_core"):
        monoidal_product(catalog("point1d"), catalog("point1d", 5))
    metric_point = Bordism(
        FULL_LINE,
        MonoidalCutGrid(CutGrid((CutTuple((zeros_cut((5, "+")),)),)), 1, (1,)),
        FieldDatum("metric", (PLFunc.constant(1),)))
    with pytest.raises(UnsupportedFieldError, match="field kinds"):
        monoidal_product(catalog("point1d"), metric_point)
    with pytest.raises(ArgumentError, match="share their shape"):
        monoidal_product(catalog("point1d"), catalog("elbow_right"))

    def boxed(box, axis):
        cut = Cut2D(axis, (ComponentCut2D("whole", (), "below"),))
        grid = MonoidalCutGrid(CutGrid((CutTuple((cut,)),)), 1, (1,))
        return Bordism(Ambient2D((box,)), grid)

    with pytest.raises(ArgumentError, match="stratify different axes"):
        monoidal_product(boxed((-1, 1, -1, 1), 2), boxed((4, 6, -1, 1), 1))
    one_direction_2d = Bordism(
        FULL_PLANE, MonoidalCutGrid(CutGrid((CutTuple((Cut2D(2, (
            ComponentCut2D("sheets", (Sheet(PLFunc.constant(0), "+"),)),)),)),
        )), 1, (1,)), embedded_field(2), AffineMap.identity(2))
    assert one_direction_2d.shape == catalog("point1d").shape
    with pytest.raises(ArgumentError, match="share their dimension"):
        monoidal_product(catalog("point1d"), one_direction_2d)
    into_plane = replace(catalog("point1d", 5), field=embedded_field(2))
    with pytest.raises(ArgumentError, match="target different spaces"):
        monoidal_product(catalog("point1d"), into_plane)


def test_monoidal_product_in_the_plane():
    near = shrink_to_core(catalog("point2d"), 1)
    far = shrink_to_core(normalize(replace(
        catalog("point2d"), embedding=AffineMap(2, (0, 1), (1, 1), (5, 0)))),
        1)
    prod = monoidal_product(near, far)
    assert prod.ambient.boxes == (
        (F(-1), F(1), F(-1), F(1)), (F(4), F(6), F(-1), F(1)))
    assert prod.mgrid.labels == (1, 2)
    assert validate(prod).passed


def test_product_interchanges_with_composition():
    # composing a pair inside each factor, then taking the product,
    # matches taking the product first and composing afterwards
    left = shrink_to_core(catalog("triangle_interval"), F(1, 2))
    moved = normalize(translated(catalog("triangle_interval"), 10))
    right = shrink_to_core(moved, F(1, 2))
    both = face_compose(monoidal_product(left, right), 1, 1)
    each = monoidal_product(face_compose(left, 1, 1),
                            face_compose(right, 1, 1))
    assert both.mgrid == each.mgrid
    assert both.ambient == each.ambient


# ---------------------------------------------------------------------------
# shrinking to a core neighborhood
# ---------------------------------------------------------------------------

def test_shrink_keeps_the_germ():
    e = catalog("elbow_right")
    s = shrink_to_core(e, F(1, 2))
    assert s.ambient.intervals == ((F(-1, 2), F(3, 2)),)
    assert validate(s).passed
    assert equivalent(s, e) is True


def test_shrinking_twice_is_shrinking_smaller():
    e = catalog("elbow_right")
    twice = shrink_to_core(shrink_to_core(e, 1), F(1, 2))
    once = shrink_to_core(e, F(1, 2))
    assert twice.ambient == once.ambient
    assert twice.mgrid == once.mgrid


def test_shrink_guards():
    e = catalog("elbow_right")
    with pytest.raises(ArgumentError, match="positive"):
        shrink_to_core(e, 0)
    with pytest.raises(NeighborhoodError, match="leaves the ambient"):
        shrink_to_core(shrink_to_core(e, F(1, 2)), 1)
    unbounded = line_bordism([whole_cut("above"), whole_cut("below")])
    with pytest.raises(NeighborhoodError, match="unbounded"):
        shrink_to_core(unbounded, 1)
    on_circle = Bordism(
        Ambient1D((), (F(4),)),
        MonoidalCutGrid(
            CutGrid((CutTuple((zeros_cut((0, "+"), (3, "-")),)),)), 1, (1,)),
        embedded_field(1), AffineMap.identity(1))
    with pytest.raises(NeighborhoodError, match="partial arc"):
        shrink_to_core(on_circle, F(1, 4))
    boxed = replace(catalog("composable_pair_2d"),
                    ambient=Ambient2D(((-3, 3, -3, 3),)))
    with pytest.raises(NeighborhoodError, match="leaves the ambient") as info:
        shrink_to_core(boxed, 10)
    assert "box (-12, 12, -12, 12)" in str(info.value)
    assert "Fraction(" not in str(info.value)


def test_shrinking_joins_neighbourhoods_that_overlap():
    # cores [0, 1], {2} and [3, 4]: closed above the first cut, closed
    # below the second
    b = line_bordism([zeros_cut((0, "+"), (1, "-"), (2, "+"), (4, "-")),
                      zeros_cut((2, "+"), (3, "-"))])
    assert validate(b).passed
    assert shrink_to_core(b, 1).ambient.intervals == ((-1, 5),)
    assert shrink_to_core(b, F(1, 4)).ambient.intervals == (
        (F(-1, 4), F(5, 4)), (F(7, 4), F(9, 4)), (F(11, 4), F(17, 4)))


def test_shrinking_cannot_drop_a_circle():
    # the circle lies wholly below the first cut, so the core misses it
    both = Ambient1D(((NEG_INF, INF),), (F(4),))

    def cut(line, circle_side):
        return Cut1D((line, ComponentCut1D("whole", (), circle_side)))

    elbow = catalog("elbow_right").mgrid.grid.tuples[0].cuts
    mgrid = MonoidalCutGrid(CutGrid((CutTuple((
        cut(elbow[0].components[0], "below"),
        cut(elbow[1].components[0], "below"))),)), 1, (1, 1))
    b = Bordism(both, mgrid, embedded_field(1), AffineMap.identity(1))
    with pytest.raises(NeighborhoodError, match="drop a circle"):
        shrink_to_core(b, 1)


def test_shrink_restricts_metric_densities():
    m = catalog("metric_interval", 0, 1, 3)
    s = shrink_to_core(m, F(1, 2))
    assert s.field.kind == "metric"
    assert metric_core_length(s) == 3


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_metric_core_lengths():
    assert metric_core_length(catalog("metric_interval", 0, 1, 3)) == 3
    sloped = Bordism(FULL_LINE, catalog("metric_interval").mgrid,
                     FieldDatum("metric", (PLFunc.affine(1, 2),)))
    assert metric_core_length(sloped) == F(5, 2)  # integral of x+2 over [0,1]
    circle = Bordism(
        Ambient1D((), (F(4),)),
        MonoidalCutGrid(
            CutGrid((CutTuple((whole_cut("above"), whole_cut("below"))),)),
            1, (1,)),
        FieldDatum("metric", (PLFunc.constant(F(3, 2)),)))
    assert validate(circle).passed
    assert metric_core_length(circle) == 6


@pytest.mark.parametrize("zeros, arc, length", [
    (((1, "+"), (2, "-")), (2, 1), F(19, 2)),  # wraps past 0: [2, 4] + [0, 1]
    (((1, "-"), (2, "+")), (1, 2), F(5, 2)),
])
def test_metric_length_of_a_circle_arc(zeros, arc, length):
    b = Bordism(
        Ambient1D((), (F(4),)),
        MonoidalCutGrid(CutGrid((CutTuple((
            whole_cut("above"),
            Cut1D((ComponentCut1D("zeros", tuple((F(p), s) for p, s in zeros)),)),
        )),)), 1, (1,)),
        FieldDatum("metric", (PLFunc.affine(1, 1),)))  # density 1 + x
    assert validate(b).passed
    (cell,) = bordism_core(b).cells
    assert (cell.start, cell.end) == arc
    assert metric_core_length(b) == length


def test_metric_length_adds_over_a_splitting():
    def piece(s, t):
        return metric_core_length(catalog("metric_interval", s, t, 2))

    assert piece(0, 1) + piece(1, 2) == piece(0, 2)


def test_metric_length_guards():
    with pytest.raises(UnsupportedFieldError):
        metric_core_length(catalog("point1d"))
    left = shrink_to_core(catalog("metric_interval", 0, 1), F(1, 2))
    right = shrink_to_core(catalog("metric_interval", 4, 5), F(1, 2))
    split = monoidal_product(left, right, GammaMorphism(2, 1, (1, 1)))
    with pytest.raises(ArgumentError, match="disconnected"):
        metric_core_length(split)
    dropped = Bordism(
        FULL_LINE,
        MonoidalCutGrid(CutGrid((CutTuple((zeros_cut((0, "+")),)),)), 1, (0,)),
        FieldDatum("metric", (PLFunc.constant(1),)))
    with pytest.raises(ArgumentError, match="empty"):
        metric_core_length(dropped)


def test_pullback_metric_scales_by_the_stretch():
    pulled = pullback_metric(PLFunc.affine(2, 1), AffineMap.line(3, 2))
    assert [pulled(x) for x in (0, 1)] == [15, 33]
    reflected = pullback_metric(PLFunc.constant(2), AffineMap.line(-1, 0))
    assert reflected(7) == 2
    with pytest.raises(ArgumentError):
        pullback_metric(PLFunc.constant(1), AffineMap.identity(2))


@given(
    st.fractions(min_value=-3, max_value=3).filter(lambda a: a != 0),
    st.fractions(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3).filter(lambda a: a != 0),
    st.fractions(min_value=-3, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_pullback_metric_respects_composition(a1, s1, a2, s2):
    # pulling back along phi2 then phi1 equals pulling back along
    # phi2 . phi1 in one step
    density = PLFunc.from_points([(F(-1), F(1)), (F(0), F(3)), (F(2), F(1))],
                                 F(0), F(0))
    phi1, phi2 = AffineMap.line(a1, s1), AffineMap.line(a2, s2)
    stepwise = pullback_metric(pullback_metric(density, phi2), phi1)
    at_once = pullback_metric(density, phi2.compose(phi1))
    assert plfunc_agree_on(stepwise, at_once, NEG_INF, INF)


# ---------------------------------------------------------------------------
# families and isotopies
# ---------------------------------------------------------------------------

def test_family_fibers_interpolate_linearly():
    fam = catalog("triangle_family")
    positions = [cut_zeros(family_at(fam, t), 1, 1)[0][0]
                 for t in (0, F(1, 2), 1)]
    assert positions == [1, 0, -1]
    assert family_checkpoints(fam) == [0, F(1, 2), 1]
    with pytest.raises(ArgumentError, match="outside"):
        family_at(fam, 2)


def test_family_validation_localizes_failures():
    crossing = BordismFamily(
        t0=0, t1=1, intervals=((NEG_INF, INF),), circles=(),
        tuples=((
            FamCut1D((FamComponentCut1D(
                "zeros", ((PLFunc.affine(2, 0), "+"),)),)),
            FamCut1D((FamComponentCut1D(
                "zeros", ((PLFunc.constant(1), "+"),)),)),
        ),),
        ell=1, labels=(1,))
    report = validate_family(crossing)
    assert not report.passed
    bad = report.failures()[0]
    assert bad.name == "fiber[t=1]"
    assert bad.detail == "on piece [0, 1]: ordered[1]: below-regions do not nest"


def test_family_rejects_an_unknown_field_kind():
    for kind in ("bogus", 5):
        with pytest.raises(ArgumentError, match="unknown field kind"):
            replace(catalog("triangle_family"), field_kind=kind)


def test_isotopy_conjoint_takes_the_endpoint_positions():
    conjoint = conjoint_of_point_isotopy(
        catalog("point_isotopy", F(1, 4), F(3, 4)))
    assert cut_zeros(conjoint, 1, 0) == ((F(1, 4), "+"),)
    assert cut_zeros(conjoint, 1, 1) == ((F(3, 4), "+"),)
    assert validate(conjoint).passed


def test_decreasing_isotopies_are_not_directly_constructible():
    with pytest.raises(NotDirectlyConstructibleError, match="fibrant"):
        conjoint_of_point_isotopy(catalog("point_isotopy", 1, 0))


def test_uple_mode_skips_globularity():
    base = catalog("composable_pair_2d")
    tent = PLFunc.from_points(
        [(F(-1, 8), F(0)), (F(0), F(1, 4)), (F(1, 8), F(0))], F(0), F(0))
    low, mid, high = base.mgrid.grid.tuples[1].cuts

    def resheet(cut, graph):
        sign = cut.components[0].sheets[0].sign
        return Cut2D(cut.axis, (ComponentCut2D("sheets", (Sheet(graph, sign),)),))

    wobbled = CutTuple((
        resheet(low, low.components[0].sheets[0].graph.sub(tent)),
        mid,
        resheet(high, high.components[0].sheets[0].graph.add(tent)),
    ))
    mgrid = MonoidalCutGrid(
        CutGrid((base.mgrid.grid.tuples[0], wobbled)),
        base.mgrid.ell, base.mgrid.labels)
    strict = Bordism(base.ambient, mgrid, embedded_field(2),
                     AffineMap.identity(2))
    relaxed = Bordism(base.ambient, mgrid, embedded_field(2),
                      AffineMap.identity(2), uple=True)

    strict_report = validate(strict)
    assert not strict_report.passed
    assert [e.name for e in strict_report.failures()] == ["globular"]
    assert "Fraction(" not in strict_report.failures()[0].detail
    relaxed_report = validate(relaxed)
    assert relaxed_report.passed
    globular = next(e for e in relaxed_report.entries if e.name == "globular")
    assert globular.detail == "skipped (uple mode)"
