"""Embedded bordisms over a point base, their structure maps, and
one-parameter families.

A bordism is an open ambient manifold carrying a labelled cut grid plus
a field datum: nothing at all, a 1D Riemannian density, or an affine
embedding into a reference space.  Validation enforces well-formedness,
compactness, and (unless uple mode is requested) globularity of the
grid.  Embedded bordisms are classified up to germ-of-core equivalence:
two are identified when, after pushing both into the reference space,
their cores agree as point sets and all cut/label data coincides on a
neighborhood of the core.

A bordism restricts along an embedding one way, ``bordism_pullback``:
``normalize`` pulls back along the inverse map from the image,
``shrink_to_core`` along the inclusion of the shrunk ambient, and
``is_morphism`` compares b1 with b2 pulled back along phi where b1 lives:
each pair of cuts by whether some point of b1's ambient lies on different
sides of them, and each metric density on its component of b1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from inspect import signature
from typing import Literal, Optional, Sequence, Union

from .errors import (
    ArgumentError,
    NeighborhoodError,
    NotDirectlyConstructibleError,
    OverlapError,
    UnsupportedDimensionError,
    UnsupportedFieldError,
    ValidationError,
)
from .grids import (
    _compactness_failures,
    _component_images,
    AffineMap,
    AmbientEmbedding,
    Cut1D,
    Cut2D,
    ComponentCut1D,
    ComponentCut2D,
    CutGrid,
    CutTuple,
    MonoidalCutGrid,
    Sheet,
    apply_simplicial,
    component_levels,
    core,
    cut_disagreement,
    extreme_slices,
    globularity_failures,
    grid_check,
    image_ambient,
    pullback_along,
    relabel,
    vertex_grid,
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
    ambient_region,
    component_region,
    fr,
    interval_rep,
    line_region,
    plfunc_agree_on,
    plfunc_integral,
    plfunc_is_positive_on,
    rational_to_text,
    region_bbox,
    region_boolean,
    region_closure,
    region_components,
    region_equal,
    region_sample_point,
    region_subset,
)
from .reporting import ReportEntry, ValidationReport
from .shapes import GammaMorphism, MonotoneMap, Multisimplex


# ---------------------------------------------------------------------------
# field data
# ---------------------------------------------------------------------------

FIELD_KINDS = ("trivial", "metric", "embedded")


@dataclass(frozen=True)
class FieldDatum:
    """The extra structure a bordism carries.

    kind "trivial": nothing.  kind "metric": one strictly positive PL
    density per ambient component (1D only).  kind "embedded": the
    bordism's ambient is embedded in a reference space of dimension
    ``target_dim`` (the embedding itself lives on the Bordism).
    """

    kind: Literal["trivial", "metric", "embedded"]
    densities: tuple[PLFunc, ...] = ()
    target_dim: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FIELD_KINDS:
            raise ArgumentError(f"unknown field kind {self.kind!r}")
        object.__setattr__(self, "densities", tuple(self.densities))


TRIVIAL_FIELD = FieldDatum("trivial")


def embedded_field(target_dim: int) -> FieldDatum:
    return FieldDatum("embedded", (), target_dim)


# ---------------------------------------------------------------------------
# bordisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bordism:
    """An ambient manifold with a labelled cut grid and a field datum.

    ``uple`` skips the globularity requirement during validation,
    giving the d-uple (non-globular) flavor of the structure.
    """

    ambient: Ambient
    mgrid: MonoidalCutGrid
    field: FieldDatum = TRIVIAL_FIELD
    embedding: Optional[AffineMap] = None
    uple: bool = False

    @property
    def d(self) -> int:
        return self.mgrid.d

    @property
    def shape(self) -> tuple[int, Multisimplex]:
        return (self.mgrid.ell, self.mgrid.shape)

    def with_mgrid(self, mgrid: MonoidalCutGrid) -> "Bordism":
        return replace(self, mgrid=mgrid)


def _shapes_text(b1: Bordism, b2: Bordism) -> str:
    """Both shapes as plain text, such as ``ell 1, sizes [0] vs ell 1,
    sizes [0, 0]``, for the errors of operations that need one shape."""
    return " vs ".join(
        f"ell {b.mgrid.ell}, sizes [{', '.join(map(str, b.mgrid.shape.entries))}]"
        for b in (b1, b2))


def _metric_densities(b: Bordism) -> tuple[PLFunc, ...]:
    """A metric field's densities, checked to be one per component of a
    1D ambient."""
    if b.ambient.dim != 1:
        raise ArgumentError("metric field needs d = 1")
    densities, n = b.field.densities, b.ambient.n_components()
    if len(densities) != n:
        raise ArgumentError(f"{len(densities)} densities for {n} components")
    return densities


def _field_entries(b: Bordism) -> list[ReportEntry]:
    f = b.field
    if f.kind == "trivial":
        return [ReportEntry("field", True)]
    if f.kind == "metric":
        try:
            densities = _metric_densities(b)
        except ArgumentError as exc:
            return [ReportEntry("field", False, str(exc))]
        amb = b.ambient
        assert isinstance(amb, Ambient1D)
        for k, w in enumerate(densities):
            kind, data = amb.component_kind(k)
            # a circle of length L is [0, L] with its ends glued: both count
            domain = (component_region(amb, k) if kind == "interval"
                      else line_region(Seg(Fraction(0), data, True, True)))
            if not plfunc_is_positive_on(w, domain):
                return [ReportEntry(
                    "field", False,
                    f"density on component {k} is not strictly positive")]
        return [ReportEntry("field", True)]
    # embedded
    if b.embedding is None:
        return [ReportEntry("field", False, "embedded field without a map")]
    if b.embedding.dim != b.ambient.dim:
        return [ReportEntry("field", False, "embedding dimension mismatch")]
    if f.target_dim != b.embedding.dim:
        return [ReportEntry(
            "field", False,
            "affine embeddings cannot change the ambient dimension")]
    return [ReportEntry("field", True)]


def validate(b: Bordism) -> ValidationReport:
    """Full well-formedness report: grid validity, labelling,
    compactness, globularity, and field-datum checks."""
    entries: list[ReportEntry] = []
    n = b.ambient.n_components()
    if len(b.mgrid.labels) == n:
        entries.append(ReportEntry("labels", True))
    else:
        entries.append(ReportEntry(
            "labels", False,
            f"{len(b.mgrid.labels)} labels for {n} components"))
    gr = grid_check(b.mgrid.grid, b.ambient)
    entries.extend(gr.entries)
    structurally_ok = all(e.passed for e in entries)
    if structurally_ok:
        # every ordered[i] entry passed, so each tuple is ordered
        failures = _compactness_failures(b.mgrid, b.ambient, ordered=True)
        entries.append(ReportEntry(
            "compact", not failures, "; ".join(failures)))
        if b.uple:
            entries.append(ReportEntry(
                "globular", True, "skipped (uple mode)"))
        else:
            try:
                gfail = globularity_failures(b.mgrid, b.ambient)
                entries.append(ReportEntry(
                    "globular", not gfail, "; ".join(gfail)))
            except UnsupportedDimensionError as exc:
                entries.append(ReportEntry("globular", False, str(exc)))
    else:
        entries.append(ReportEntry(
            "compact", False, "skipped: grid is not well-formed"))
        entries.append(ReportEntry(
            "globular", False, "skipped: grid is not well-formed"))
    entries.extend(_field_entries(b))
    return ValidationReport(tuple(entries))


def bordism_core(b: Bordism) -> PLRegion:
    return core(b.mgrid, b.ambient)


# ---------------------------------------------------------------------------
# normalization and equivalence of embedded bordisms
# ---------------------------------------------------------------------------


def _require_embedded(b: Bordism) -> None:
    if b.field.kind != "embedded" or b.embedding is None:
        raise UnsupportedFieldError(
            "operation needs an embedded-field bordism")


def bordism_pullback(b: Bordism, emb: AmbientEmbedding) -> Bordism:
    """The restriction of b to emb.source: the grid pullback_along gives
    (which validates emb), each interval's density the pullback_metric of
    the one on the target _component_images gives it (a circle keeps its
    own), and an embedded field's map b's after emb's."""
    mgrid = pullback_along(b.mgrid, emb)
    field, embedding = b.field, b.embedding
    if field.kind == "metric":
        densities = _metric_densities(b)
        field = FieldDatum("metric", tuple(
            densities[t] if img is None
            else pullback_metric(densities[t], emb.map)
            for t, img in _component_images(emb)))
    elif field.kind == "embedded" and embedding is not None:
        embedding = embedding.compose(emb.map)
    return Bordism(emb.source, mgrid, field, embedding, b.uple)


def normalize(b: Bordism) -> Bordism:
    """Push the ambient and all data forward along the embedding, so
    the embedding becomes the inclusion of the image."""
    _require_embedded(b)
    aff = b.embedding
    assert aff is not None
    if aff.dim != b.ambient.dim:
        raise ArgumentError("embedding dimensions do not agree")
    if aff.is_identity():
        return b
    return bordism_pullback(b, AmbientEmbedding(
        image_ambient(b.ambient, aff), b.ambient, aff.inverse()))


def _labels_disagreement(b1: Bordism, b2: Bordism) -> list:
    cells: list = []
    for c1 in range(b1.ambient.n_components()):
        r1 = component_region(b1.ambient, c1)
        for c2 in range(b2.ambient.n_components()):
            if b1.mgrid.labels[c1] == b2.mgrid.labels[c2]:
                continue
            r2 = component_region(b2.ambient, c2)
            cells.extend(region_boolean("intersect", r1, r2).cells)
    return cells


def equivalent(b1: Bordism, b2: Bordism) -> bool:
    """Germ-of-core equivalence of embedded bordisms: after
    normalization the cores must be equal as point sets and every
    piece of cut or label data must agree on a neighborhood of the
    core (equivalently: the closed disagreement locus misses it).  Each
    core (grids.core) and each pair of cuts' points of the common ambient
    where they differ (cut_disagreement) is one merge of the signed zeros
    on a line and one refinement on the plane."""
    _require_embedded(b1)
    _require_embedded(b2)
    if b1.shape != b2.shape:
        raise ArgumentError(f"shape mismatch: {_shapes_text(b1, b2)}")
    if b1.field.target_dim != b2.field.target_dim:
        raise ArgumentError("embedded bordisms target different spaces")
    n1, n2 = normalize(b1), normalize(b2)
    core1 = core(n1.mgrid, n1.ambient)
    if not region_equal(core1, core(n2.mgrid, n2.ambient)):
        return False
    common = region_boolean("intersect", ambient_region(n1.ambient),
                            ambient_region(n2.ambient))
    diff_cells: list = _labels_disagreement(n1, n2)
    for t1, t2 in zip(n1.mgrid.grid.tuples, n2.mgrid.grid.tuples):
        for c1, c2 in zip(t1.cuts, t2.cuts):
            diff_cells.extend(cut_disagreement(
                [(c1, n1.ambient), (c2, n2.ambient)], common).cells)
    wobble = region_closure(PLRegion(common.dim, tuple(diff_cells)))
    return region_sample_point(wobble, core1) is None


def _component_hull(ambient: Ambient1D, k: int) -> tuple:
    """The closed hull of component k: an interval's ends, or [0, L] for a
    circle of length L."""
    kind, data = ambient.component_kind(k)
    return data if kind == "interval" else (Fraction(0), data)


def is_morphism(phi: AffineMap, b1: Bordism, b2: Bordism) -> bool:
    """Whether phi is a cut-respecting embedding from b1 into b2 whose
    image contains the core of b2 (the condition for a morphism to the
    smaller presentation b1).

    b1 is compared with b2's restriction along phi where b1 lives: ell and
    labels by value, each pair of cuts by whether they classify every point
    of b1's ambient alike (cut_disagreement), each metric density on its
    component's closed hull, and an embedded field's map by value.  What b2
    does outside the image of phi does not count.  A grid with an invalid
    cut or a density count that is not the component count answers
    False."""
    if b1.shape != b2.shape:
        raise ArgumentError(f"shape mismatch: {_shapes_text(b1, b2)}")
    amb = b1.ambient
    try:
        pulled = bordism_pullback(b2, AmbientEmbedding(amb, b2.ambient, phi))
        g1, g2 = b1.mgrid, pulled.mgrid
        f1, f2 = b1.field, pulled.field
        within = ambient_region(amb)
        if (f1.kind != f2.kind or (g1.ell, g1.labels) != (g2.ell, g2.labels)
                or any(cut_disagreement([(c1, amb), (c2, amb)], within).cells
                       for t1, t2 in zip(g1.grid.tuples, g2.grid.tuples)
                       for c1, c2 in zip(t1.cuts, t2.cuts))):
            return False
        if f1.kind == "metric" and not all(
                plfunc_agree_on(w1, w2, *_component_hull(amb, k))
                for k, (w1, w2) in enumerate(zip(_metric_densities(b1),
                                                 f2.densities))):
            return False
    except (ArgumentError, ValidationError, UnsupportedDimensionError):
        return False
    if f1.kind == "embedded" and (f1.target_dim != f2.target_dim
                                  or b1.embedding is None
                                  or pulled.embedding != b1.embedding):
        return False
    image_reg = ambient_region(image_ambient(amb, phi))
    return region_subset(core(b2.mgrid, b2.ambient), image_reg)


# ---------------------------------------------------------------------------
# simplicial structure: composition, boundaries
# ---------------------------------------------------------------------------


def _direction_m(b: Bordism, direction: int) -> int:
    if not 1 <= direction <= b.d:
        raise ArgumentError(f"direction {direction} outside 1..{b.d}")
    return b.mgrid.grid.tuples[direction - 1].m


def face_compose(b: Bordism, direction: int, k: int) -> Bordism:
    """Compose the k-th composable pair in one direction by dropping
    the inner cut k (the inner face of the simplicial structure)."""
    m = _direction_m(b, direction)
    if not 0 < k < m:
        raise ArgumentError(
            f"inner face index must satisfy 0 < k < {m}; "
            f"use source_target for outer boundaries")
    alpha = MonotoneMap(m - 1, m,
                        tuple(j for j in range(m + 1) if j != k))
    return b.with_mgrid(apply_simplicial(b.mgrid, direction, alpha))


def source_target(b: Bordism, direction: int, j: int) -> Bordism:
    """The j-th vertex boundary in one direction (j = 0 is the source,
    j = m the target)."""
    m = _direction_m(b, direction)
    if not 0 <= j <= m:
        raise ArgumentError(f"vertex index {j} outside 0..{m}")
    return b.with_mgrid(vertex_grid(b.mgrid, direction, j))


def bordism_relabel(b: Bordism, u: GammaMorphism) -> Bordism:
    return b.with_mgrid(relabel(b.mgrid, u))


# ---------------------------------------------------------------------------
# monoidal product
# ---------------------------------------------------------------------------


def monoidal_product(b1: Bordism, b2: Bordism,
                     mu: Optional[GammaMorphism] = None) -> Bordism:
    """Disjoint union of two bordisms of the same shape, with labels
    re-indexed through <l1>, <l2> -> <l1 + l2> (then merged by mu if
    given).  Ambients must be disjoint; embedded bordisms are
    normalized first so disjointness refers to their images.  Each
    component of the union comes from one component of one factor, and
    its label, cut data and density all follow that one map."""
    if b1.mgrid.shape != b2.mgrid.shape:
        raise ArgumentError(
            f"monoidal factors must share their shape: {_shapes_text(b1, b2)}")
    if b1.ambient.dim != b2.ambient.dim:
        raise ArgumentError("monoidal factors must share their dimension")
    if b1.field.kind != b2.field.kind:
        raise UnsupportedFieldError("cannot combine different field kinds")
    if b1.field.kind == "embedded":
        if b1.field.target_dim != b2.field.target_dim:
            raise ArgumentError("embedded factors target different spaces")
        b1, b2 = normalize(b1), normalize(b2)
    if region_sample_point(ambient_region(b1.ambient),
                           ambient_region(b2.ambient)) is not None:
        raise OverlapError(
            "ambients overlap; shrink_to_core the factors first")
    a1, a2 = b1.ambient, b2.ambient
    if isinstance(a1, Ambient1D):
        assert isinstance(a2, Ambient1D)
        # the union's intervals in line order, then b1's circles, b2's
        lines = sorted(((w, k) for w, a in enumerate((a1, a2))
                        for k in range(len(a.intervals))),
                       key=lambda wk: (a1, a2)[wk[0]].intervals[wk[1]][0])
        order = lines + [(w, len(a.intervals) + j) for w, a in enumerate((a1, a2))
                         for j in range(len(a.circles))]
        ambient: Ambient = Ambient1D(
            tuple((a1, a2)[w].intervals[k] for w, k in lines),
            a1.circles + a2.circles)
    else:
        assert isinstance(a2, Ambient2D)
        # disjoint ambients: the union's components are b1's then b2's
        order = [(w, k) for w, a in enumerate((a1, a2))
                 for k in range(a.n_components())]
        ambient = Ambient2D(a1.boxes + a2.boxes)
    return _product(b1, b2, ambient, order, mu)


def _product(b1: Bordism, b2: Bordism, ambient: Ambient,
             order: list[tuple[int, int]],
             mu: Optional[GammaMorphism]) -> Bordism:
    """The disjoint union on ambient, whose component n is component
    order[n] = (factor, index) of one factor: labels (b2's shifted past
    b1's), cut data and densities all follow that one map."""

    def pick(first: Sequence, second: Sequence) -> tuple:
        return tuple((first, second)[w][k] for w, k in order)

    tuples = []
    for t1, t2 in zip(b1.mgrid.grid.tuples, b2.mgrid.grid.tuples):
        cuts = []
        for c1, c2 in zip(t1.cuts, t2.cuts):
            if isinstance(c1, Cut2D) and c1.axis != c2.axis:
                raise ArgumentError(
                    "matching cuts of the factors stratify different axes")
            cuts.append(replace(c1, components=pick(c1.components,
                                                    c2.components)))
        tuples.append(CutTuple(tuple(cuts)))
    l1 = b1.mgrid.ell
    labels = tuple(lab + l1 if w == 1 and lab else lab for (w, _k), lab in
                   zip(order, pick(b1.mgrid.labels, b2.mgrid.labels)))
    mgrid = MonoidalCutGrid(CutGrid(tuple(tuples)), l1 + b2.mgrid.ell, labels)
    f1 = b1.field
    field, embedding = TRIVIAL_FIELD, None
    if f1.kind == "metric":
        field = FieldDatum("metric", pick(_metric_densities(b1),
                                          _metric_densities(b2)))
    elif f1.kind == "embedded":
        field = embedded_field(f1.target_dim)
        embedding = AffineMap.identity(f1.target_dim)
    out = Bordism(ambient, mgrid, field, embedding, b1.uple or b2.uple)
    return bordism_relabel(out, mu) if mu is not None else out


# ---------------------------------------------------------------------------
# shrinking to a neighborhood of the core
# ---------------------------------------------------------------------------


def shrink_to_core(b: Bordism, eps) -> Bordism:
    """Restrict the bordism to the box-structured eps-neighborhood of
    its core: each connected core component contributes its bounding
    box inflated by eps.  The result is equivalent to the input, and
    shrinking twice equals shrinking once with the smaller eps.  The core
    is read in the cells of the chain grids.extreme_slices builds, the
    core render draws."""
    eps = fr(eps)
    if eps <= 0:
        raise ArgumentError("eps must be positive")
    # The boxes come from the chain's cells, not from core's: a planar
    # ambient's boxes are in the order region_components finds the core's
    # components over those cells, and on the unmerged 2D form that order
    # is not a fact about the points, so core's cells could reorder them.
    components = region_components(extreme_slices(b.mgrid, b.ambient)[1])
    amb_reg = ambient_region(b.ambient)
    if isinstance(b.ambient, Ambient1D):
        new_ambient = _shrunk_ambient_1d(b.ambient, components, eps, amb_reg)
    else:
        new_ambient = _shrunk_ambient_2d(b.ambient, components, eps, amb_reg)
    return bordism_pullback(b, AmbientEmbedding(
        new_ambient, b.ambient, AffineMap.identity(b.ambient.dim)))


def _shrunk_ambient_1d(ambient: Ambient1D, components, eps,
                       amb_reg) -> Ambient1D:
    intervals: list[tuple] = []
    core_circles: set[int] = set()
    for comp in components:
        cell = comp.cells[0]
        if isinstance(cell, (Arc, CircleCell)):
            if any(isinstance(k, Arc) for k in comp.cells):
                raise NeighborhoodError(
                    "cannot restrict a circle component to a partial arc")
            core_circles.add(cell.circle)
            continue
        (xr, _yr) = region_bbox(comp)
        if xr is None:
            raise NeighborhoodError("core component is unbounded")
        lo, hi = xr[0] - eps, xr[1] + eps
        if not region_subset(
                PLRegion(1, (Seg(lo, hi, False, False),)), amb_reg):
            raise NeighborhoodError(
                f"the {eps}-neighborhood of [{xr[0]}, {xr[1]}] leaves "
                f"the ambient")
        intervals.append((lo, hi))
    if len(core_circles) != len(ambient.circles):
        raise NeighborhoodError(
            "shrinking cannot drop a circle component")
    merged = _merge_intervals(intervals, ambient)
    return Ambient1D(tuple(merged), ambient.circles)


def _merge_intervals(intervals: list[tuple], ambient: Ambient1D) -> list[tuple]:
    """The open intervals, sorted, with two joined where they overlap or
    touch at a point of the ambient; two that touch at a point outside it,
    an end where two ambient intervals meet, stay apart."""
    out: list[tuple] = []
    for lo, hi in sorted(intervals):
        if out and (lo < out[-1][1] or lo == out[-1][1] and any(
                a < lo < b for a, b in ambient.intervals)):
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def _shrunk_ambient_2d(ambient: Ambient2D, components, eps,
                       amb_reg) -> Ambient2D:
    boxes: list[tuple] = []
    for comp in components:
        xr, yr = region_bbox(comp)
        if xr is None or yr is None:
            raise NeighborhoodError("core component is unbounded")
        box = (xr[0] - eps, xr[1] + eps, yr[0] - eps, yr[1] + eps)
        box_reg = PLRegion(2, (Slab(
            box[0], box[1], False, False,
            PLFunc.constant(box[2]), PLFunc.constant(box[3]),
            False, False),))
        if not region_subset(box_reg, amb_reg):
            raise NeighborhoodError(
                f"the {rational_to_text(eps)}-neighborhood box "
                f"({', '.join(map(rational_to_text, box))}) leaves the ambient")
        boxes.append(box)
    return Ambient2D(tuple(boxes))


# ---------------------------------------------------------------------------
# metric operations
# ---------------------------------------------------------------------------


def pullback_metric(density: PLFunc, phi: AffineMap) -> PLFunc:
    """The density of the pulled-back line metric: scale the composed
    density by the absolute stretch factor."""
    if phi.dim != 1:
        raise ArgumentError("metric pullback is one-dimensional")
    a, s = phi.coeffs[0], phi.shifts[0]
    return density.compose_affine(a, s).scale(abs(a))


def metric_core_length(b: Bordism) -> Fraction:
    """Exact integral of the density over the (connected) core."""
    if b.field.kind != "metric":
        raise UnsupportedFieldError("length needs a metric field")
    if not isinstance(b.ambient, Ambient1D):
        raise ArgumentError("length needs a 1-dimensional bordism")
    densities = _metric_densities(b)
    comps = region_components(core(b.mgrid, b.ambient))
    if not comps:
        raise ArgumentError("the core is empty")
    if len(comps) > 1:
        raise ArgumentError("the core is disconnected")
    total = Fraction(0)
    for cell in comps[0].cells:
        if isinstance(cell, Seg):
            ci = b.ambient.component_of_line_point(
                interval_rep(cell.lo, cell.hi))
            total += plfunc_integral(densities[ci], cell.lo, cell.hi)
            continue
        w = densities[len(b.ambient.intervals) + cell.circle]
        if isinstance(cell, CircleCell):
            total += plfunc_integral(w, Fraction(0), cell.circumference)
        elif cell.start <= cell.end:  # an arc, or one point
            total += plfunc_integral(w, cell.start, cell.end)
        else:  # an arc through 0
            total += plfunc_integral(w, cell.start, cell.circumference)
            total += plfunc_integral(w, Fraction(0), cell.end)
    return total


# ---------------------------------------------------------------------------
# one-parameter families (1D ambients)
# ---------------------------------------------------------------------------

FamEnd = Union[PLFunc, float]


@dataclass(frozen=True)
class FamComponentCut1D:
    """Like ComponentCut1D, with zero positions PL in the parameter."""

    kind: Literal["zeros", "whole"]
    zeros: tuple[tuple[PLFunc, str], ...] = ()
    whole_sign: str = "below"

    def __post_init__(self) -> None:
        object.__setattr__(self, "zeros", component_levels(
            self.kind, "zeros", self.zeros, self.whole_sign, lambda z: z))


@dataclass(frozen=True)
class FamCut1D:
    components: tuple[FamComponentCut1D, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))


@dataclass(frozen=True)
class BordismFamily:
    """A bordism whose numeric data moves piecewise linearly with one
    rational parameter; the combinatorial shape stays constant.

    Only 1-dimensional ambients are supported; interval endpoints, cut
    zero positions, and the embedding translation may vary.
    """

    t0: Fraction
    t1: Fraction
    intervals: tuple[tuple[FamEnd, FamEnd], ...]
    circles: tuple[Fraction, ...]
    tuples: tuple[tuple[FamCut1D, ...], ...]
    ell: int
    labels: tuple[int, ...]
    field_kind: str = "embedded"
    target_dim: int = 1
    emb_scale: Fraction = Fraction(1)
    emb_shift: Optional[PLFunc] = None
    densities: tuple[PLFunc, ...] = ()
    uple: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "t0", fr(self.t0))
        object.__setattr__(self, "t1", fr(self.t1))
        if self.t0 >= self.t1:
            raise ArgumentError("parameter interval is empty")
        if self.field_kind not in FIELD_KINDS:
            raise ArgumentError(f"unknown field kind {self.field_kind!r}")
        object.__setattr__(self, "emb_scale", fr(self.emb_scale))


def _ev_end(v: FamEnd, t: Fraction):
    if isinstance(v, PLFunc):
        return v(t)
    return v


def family_at(fam: BordismFamily, t) -> Bordism:
    """The fiber of the family at one parameter value."""
    t = fr(t)
    if not fam.t0 <= t <= fam.t1:
        raise ArgumentError(
            f"parameter {t} outside [{fam.t0}, {fam.t1}]")
    ambient = Ambient1D(
        tuple((_ev_end(lo, t), _ev_end(hi, t)) for lo, hi in fam.intervals),
        fam.circles)

    def cut_at(fcut: FamCut1D) -> Cut1D:
        return Cut1D(tuple(
            ComponentCut1D(fc.kind, tuple((z(t), s) for z, s in fc.zeros),
                           fc.whole_sign) for fc in fcut.components))

    mgrid = MonoidalCutGrid(CutGrid(tuple(
        CutTuple(tuple(map(cut_at, tup))) for tup in fam.tuples)),
        fam.ell, fam.labels)
    if fam.field_kind == "embedded":
        shift = fam.emb_shift(t) if fam.emb_shift is not None else Fraction(0)
        return Bordism(ambient, mgrid, embedded_field(fam.target_dim),
                       AffineMap.line(fam.emb_scale, shift), fam.uple)
    field = (FieldDatum("metric", fam.densities)
             if fam.field_kind == "metric" else TRIVIAL_FIELD)
    return Bordism(ambient, mgrid, field, None, fam.uple)


def _family_breakpoints(fam: BordismFamily) -> list[Fraction]:
    """t0, t1, and every data breakpoint strictly between them."""
    pts = {fam.t0, fam.t1}

    def collect(f) -> None:
        if isinstance(f, PLFunc):
            pts.update(x for x in f.breakpoints if fam.t0 < x < fam.t1)

    for lo, hi in fam.intervals:
        collect(lo)
        collect(hi)
    for tup in fam.tuples:
        for fcut in tup:
            for fc in fcut.components:
                for z, _s in fc.zeros:
                    collect(z)
    collect(fam.emb_shift)
    return sorted(pts)


def family_checkpoints(fam: BordismFamily) -> list[Fraction]:
    """Subdivision endpoints plus piece midpoints — enough to decide
    the family's PL validity constraints exactly."""
    ends = _family_breakpoints(fam)
    out = []
    for a, b in zip(ends, ends[1:]):
        out.append(a)
        out.append((a + b) / 2)
    out.append(ends[-1])
    return out


def validate_family(fam: BordismFamily) -> ValidationReport:
    """Check every fiber at the joint breakpoint subdivision endpoints
    and piece midpoints (linear dependence makes these decisive)."""
    entries: list[ReportEntry] = []
    ends = _family_breakpoints(fam)
    for tk in family_checkpoints(fam):
        rep = validate(family_at(fam, tk))
        if rep.passed:
            entries.append(ReportEntry(f"fiber[t={tk}]", True))
        else:
            piece = next(
                ((a, b) for a, b in zip(ends, ends[1:]) if a <= tk <= b),
                (fam.t0, fam.t1))
            first = rep.failures()[0]
            entries.append(ReportEntry(
                f"fiber[t={tk}]", False,
                f"on piece [{piece[0]}, {piece[1]}]: "
                f"{first.name}: {first.detail}"))
    return ValidationReport(tuple(entries))


def conjoint_of_point_isotopy(fam: BordismFamily) -> Bordism:
    """Turn a nondecreasing isotopy of a single positive/negative point
    into the 1-morphism whose cuts sit at the start and end positions."""
    rep = validate_family(fam)
    if not rep.passed:
        raise ArgumentError("the family is not a valid isotopy: "
                            + str(rep.failures()[0]))
    if len(fam.tuples) != 1 or any(len(t) != 1 for t in fam.tuples):
        raise ArgumentError("an isotopy of points is a [0]-shaped family")
    moving: list[tuple[int, PLFunc, str]] = []
    for ci, fc in enumerate(fam.tuples[0][0].components):
        if fam.labels[ci] == 0:
            continue
        for z, s in fc.zeros:
            moving.append((ci, z, s))
    if len(moving) != 1:
        raise ArgumentError("the family's fibers are not single points")
    ci, pos, sign = moving[0]
    checkpoints = family_checkpoints(fam)
    values = [pos(tk) for tk in checkpoints]
    if any(b < a for a, b in zip(values, values[1:])):
        raise NotDirectlyConstructibleError(
            "decreasing point isotopies have no direct conjoint; "
            "they live in the fibrant replacement")
    start, end = pos(fam.t0), pos(fam.t1)
    fiber = family_at(fam, fam.t0)
    amb = fiber.ambient
    assert isinstance(amb, Ambient1D)

    def cut_at(x: Fraction) -> Cut1D:
        comps = list(fiber.mgrid.grid.tuples[0].cuts[0].components)
        comps[ci] = ComponentCut1D("zeros", ((x, sign),))
        return Cut1D(tuple(comps))

    mgrid = MonoidalCutGrid(
        CutGrid((CutTuple((cut_at(start), cut_at(end))),)),
        fam.ell, fam.labels)
    return Bordism(amb, mgrid, fiber.field, fiber.embedding, fam.uple)


# ---------------------------------------------------------------------------
# the worked-example catalog
# ---------------------------------------------------------------------------

FULL_LINE = Ambient1D(((NEG_INF, INF),))
FULL_PLANE = Ambient2D(((NEG_INF, INF, NEG_INF, INF),))


def _line_bordism(tuples: Sequence[CutTuple], ell: int = 1,
                  labels: tuple[int, ...] = (1,)) -> Bordism:
    mgrid = MonoidalCutGrid(CutGrid(tuple(tuples)), ell, labels)
    return Bordism(FULL_LINE, mgrid, embedded_field(1),
                   AffineMap.identity(1))


def _zeros_cut(*zs: tuple) -> Cut1D:
    return Cut1D((ComponentCut1D(
        "zeros", tuple((fr(p), s) for p, s in zs)),))


def _whole_cut(side: str) -> Cut1D:
    return Cut1D((ComponentCut1D("whole", (), side),))


def _bump(width: Fraction) -> PLFunc:
    """A symmetric tent of height 2 supported on [-width, width]."""
    return PLFunc.from_points(
        [(-width, Fraction(0)), (Fraction(0), Fraction(2)),
         (width, Fraction(0))], Fraction(0), Fraction(0))


def _pair_bumps(width: Fraction) -> PLFunc:
    """Tents centered at -1 and +1 (the separation profile of the
    composable planar pair)."""
    b = _bump(width)
    return b.compose_affine(Fraction(1), Fraction(1)).add(
        b.compose_affine(Fraction(1), Fraction(-1)))


def catalog(name: str, *params) -> Union[Bordism, BordismFamily]:
    """Construct a worked example by name.  Raises ArgumentError for
    unknown names, more parameters than the example takes, or parameters
    that break the example's preconditions."""
    builder = _CATALOG.get(name)
    if builder is None:
        raise ArgumentError(
            f"unknown catalog name {name!r}; expected one of "
            + ", ".join(sorted(_CATALOG)))
    try:
        signature(builder).bind(*params)
    except TypeError as exc:
        raise ArgumentError(f"catalog item {name!r}: {exc}") from None
    return builder(*params)


def _cat_point2d() -> Bordism:
    ycut = Cut2D(2, (ComponentCut2D(
        "sheets", (Sheet(PLFunc.constant(0), "+"),)),))
    xcut = Cut2D(1, (ComponentCut2D(
        "sheets", (Sheet(PLFunc.constant(0), "+"),)),))
    mgrid = MonoidalCutGrid(
        CutGrid((CutTuple((ycut,)), CutTuple((xcut,)))), 1, (1,))
    return Bordism(FULL_PLANE, mgrid, embedded_field(2),
                   AffineMap.identity(2))


def _cat_point1d(s=Fraction(0), sign: str = "+") -> Bordism:
    if sign not in ("+", "-"):
        raise ArgumentError("point orientation must be '+' or '-'")
    return _line_bordism([CutTuple((_zeros_cut((fr(s), sign)),))])


def _check_elbow_params(s, t) -> tuple[Fraction, Fraction]:
    s, t = fr(s), fr(t)
    if s >= t:
        raise ArgumentError("elbows need s < t")
    return s, t


def _cat_elbow_right(s=Fraction(0), t=Fraction(1)) -> Bordism:
    s, t = _check_elbow_params(s, t)
    return _line_bordism([CutTuple((
        _zeros_cut((s, "+"), (t, "-")), _whole_cut("below")))])


def _cat_elbow_left(s=Fraction(0), t=Fraction(1)) -> Bordism:
    s, t = _check_elbow_params(s, t)
    return _line_bordism([CutTuple((
        _whole_cut("above"), _zeros_cut((s, "-"), (t, "+"))))])


def _cat_composable_pair_2d(width=Fraction(3, 4)) -> Bordism:
    width = fr(width)
    if not 0 < width < 1:
        raise ArgumentError("the separation width must lie in (0, 1)")
    psi = _pair_bumps(width)
    d1 = CutTuple(tuple(
        Cut2D(1, (ComponentCut2D(
            "sheets", (Sheet(PLFunc.constant(x), "+"),)),))
        for x in (-2, 0, 2)))
    d2 = CutTuple(tuple(
        Cut2D(2, (ComponentCut2D("sheets", (Sheet(g, "+"),)),))
        for g in (psi.neg(), PLFunc.constant(0), psi)))
    mgrid = MonoidalCutGrid(CutGrid((d1, d2)), 1, (1,))
    return Bordism(FULL_PLANE, mgrid, embedded_field(2),
                   AffineMap.identity(2))


def _cat_triangle_interval() -> Bordism:
    return _line_bordism([CutTuple((
        _zeros_cut((-1, "+")),
        _zeros_cut((-1, "+"), (0, "-"), (1, "+")),
        _zeros_cut((1, "+"))))])


def _cat_triangle_family() -> BordismFamily:
    return BordismFamily(
        t0=Fraction(0), t1=Fraction(1),
        intervals=((NEG_INF, INF),), circles=(),
        tuples=((FamCut1D((FamComponentCut1D(
            "zeros", ((PLFunc.constant(-1), "+"),)),)),
            FamCut1D((FamComponentCut1D(
                "zeros", ((PLFunc.affine(-2, 1), "+"),)),))),),
        ell=1, labels=(1,))


def _cat_point_isotopy(s=Fraction(0), t=Fraction(1),
                       sign: str = "+") -> BordismFamily:
    s, t = fr(s), fr(t)
    if sign not in ("+", "-"):
        raise ArgumentError("point orientation must be '+' or '-'")
    return BordismFamily(
        t0=Fraction(0), t1=Fraction(1),
        intervals=((NEG_INF, INF),), circles=(),
        tuples=((FamCut1D((FamComponentCut1D(
            "zeros", ((PLFunc.affine(t - s, s), sign),)),)),),),
        ell=1, labels=(1,))


def _cat_circle_trace() -> Bordism:
    L = Fraction(4)
    ambient = Ambient1D((), (L,))
    c0 = Cut1D((ComponentCut1D("whole", (), "above"),))
    c1 = Cut1D((ComponentCut1D(
        "zeros", ((Fraction(0), "+"), (Fraction(3), "-"))),))
    c2 = Cut1D((ComponentCut1D(
        "zeros", ((Fraction(1), "+"), (Fraction(2), "-"))),))
    c3 = Cut1D((ComponentCut1D("whole", (), "below"),))
    mgrid = MonoidalCutGrid(
        CutGrid((CutTuple((c0, c1, c2, c3)),)), 1, (1,))
    return Bordism(ambient, mgrid, embedded_field(1), AffineMap.identity(1))


def _cat_metric_interval(s=Fraction(0), t=Fraction(1),
                         density=Fraction(1)) -> Bordism:
    s, t = _check_elbow_params(s, t)
    mgrid = MonoidalCutGrid(
        CutGrid((CutTuple((_zeros_cut((s, "+")), _zeros_cut((t, "+")))),)),
        1, (1,))
    return Bordism(FULL_LINE, mgrid,
                   FieldDatum("metric", (PLFunc.constant(fr(density)),)))


_CATALOG = {
    "point2d": _cat_point2d,
    "point1d": _cat_point1d,
    "elbow_right": _cat_elbow_right,
    "elbow_left": _cat_elbow_left,
    "composable_pair_2d": _cat_composable_pair_2d,
    "triangle_interval": _cat_triangle_interval,
    "triangle_family": _cat_triangle_family,
    "point_isotopy": _cat_point_isotopy,
    "circle_trace": _cat_circle_trace,
    "metric_interval": _cat_metric_interval,
}

CATALOG_NAMES = tuple(sorted(_CATALOG))
