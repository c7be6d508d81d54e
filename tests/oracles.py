"""Oracles the engine's tests check it against.

Line atoms: the line cut at a set of criticals sorted as Fractions, each
point atom indexed by its Fraction, the reference for plgeom._line_atoms,
which sorts and indexes integer keys.
Point membership: a point lies in a region when some cell of it contains
the point, decided per cell from its ends, bounds and flags.  Cut
agreement: two cuts agree when their (below, level, above) parts are equal
one by one, the reference for the agreement test of bordisms.is_morphism.
Globularity: the construction that built each pairwise disagreement and
each vertex core as a region of its own, kept as the reference for the
one-refinement questions of grids.globularity_failures.  Disagreement:
within refined once with every cut's partition, the reference for
grids.cut_disagreement, which reads where 1D cuts differ from their signed
zeros with no partition.
Order: the below-regions of consecutive cuts compared by region_subset,
the reference for grids.tuple_is_ordered, which reads a 1D order from the
signed zeros.
Slices: region_between, the ambient met with each chosen direction's
closed slice in turn, intersected with the kept region, the reference for
grids.kept_slice; the kept region refined once with every chosen lower
cut's below part and upper cut's above part, the reference for the cells of
grids.kept_slice, which reads a 1D slice from the signed zeros; the chained
slice between the extreme cuts, the
reference for grids.core and for the slices and core of
grids.extreme_slices; and compactness asked of the chained slice for every
index pair, the reference for grids.compactness_failures.
Plane partitions: each component's below, level and above parts
intersected with its boxes one at a time, the reference for the one split
per component of grids.cut_regions.
Circle sides: the nearest zero ahead of a point, entered from its below
side when its sign is '+', the reference for grids.classify_point on a
circle, which reads the point's side by grids._gap_side at theta mod L.
Cells: a Seg or Slab built as the dataclass-generated constructor built it,
each field set from its argument and then checked and normalized by the
rules of the former __post_init__, the reference for the one constructor
of each.
Document text: a document's JSON tree written by json.dumps with indent=2,
the reference for documents.serialize_document, which writes the same
text with its own recursive writer."""

import dataclasses
import itertools
import json

from cutgrids.documents import _document_tree
from cutgrids.errors import ValidationError
from cutgrids.grids import (
    _component_parts_2d,
    _point_text,
    _slice_cuts,
    cut_regions,
    kept_region,
    vertex_grid,
)
from cutgrids.plgeom import (
    INF,
    NEG_INF,
    Arc,
    CircleCell,
    PLFunc,
    PLRegion,
    Seg,
    Slab,
    _exact_end,
    _rebuild,
    ambient_region,
    component_region,
    fr,
    is_finite,
    region_boolean,
    region_closure,
    region_bounded,
    region_disagreement,
    region_equal,
    region_is_compact_in,
    region_sample_point,
    region_subset,
)


def reference_line_atoms(criticals):
    """The line atoms of sorted(set(criticals)) from left to right, and the
    map from a critical to the position of its point atom."""
    crit = sorted(set(criticals))
    atoms = [("iv", NEG_INF, crit[0] if crit else INF)]
    index = {}
    for i, c in enumerate(crit):
        index[c] = len(atoms)
        atoms += [("pt", c), ("iv", c, crit[i + 1] if i + 1 < len(crit) else INF)]
    return atoms, index.__getitem__


def _seg_post_init(self) -> None:
    object.__setattr__(self, "lo", _exact_end(self.lo))
    object.__setattr__(self, "hi", _exact_end(self.hi))
    if not self.lo < self.hi:
        if self.lo > self.hi:
            raise ValidationError("segment endpoints out of order")
        if not (self.lo_closed and self.hi_closed):
            raise ValidationError("a degenerate segment must be a closed point")
    if (self.lo_closed and not is_finite(self.lo)) or (
            self.hi_closed and not is_finite(self.hi)):
        raise ValidationError("infinite endpoint cannot be closed")


def _slab_post_init(self) -> None:
    object.__setattr__(self, "x_lo", _exact_end(self.x_lo))
    object.__setattr__(self, "x_hi", _exact_end(self.x_hi))
    if self.x_lo > self.x_hi:
        raise ValidationError("slab x-range out of order")
    if self.x_lo == self.x_hi and not (self.x_lo_closed and self.x_hi_closed):
        raise ValidationError("a degenerate x-range must be a closed point")
    if (self.x_lo_closed and not is_finite(self.x_lo)) or (
            self.x_hi_closed and not is_finite(self.x_hi)):
        raise ValidationError("infinite x-end cannot be closed")
    for v, closed in ((self.lower, self.lower_closed), (self.upper, self.upper_closed)):
        if isinstance(v, float) and closed:
            raise ValidationError("infinite graph bound cannot be closed")
    if isinstance(self.lower, float) and self.lower != NEG_INF:
        raise ValidationError("lower bound must be a PLFunc or -inf")
    if isinstance(self.upper, float) and self.upper != INF:
        raise ValidationError("upper bound must be a PLFunc or +inf")


def reference_cell(cls, *args):
    """cls(*args), cls Seg or Slab, as the generated constructor and the
    former __post_init__ built it: each field set from its argument in
    order, then normalized and checked on the fields."""
    cell = object.__new__(cls)
    for f, v in zip(dataclasses.fields(cls), args, strict=True):
        object.__setattr__(cell, f.name, v)
    {Seg: _seg_post_init, Slab: _slab_post_init}[cls](cell)
    return cell


def _in_range(x, lo, hi, lo_closed, hi_closed) -> bool:
    return ((lo < x or (lo == x and lo_closed))
            and (x < hi or (x == hi and hi_closed)))


def seg_contains(seg: Seg, x) -> bool:
    return _in_range(x, seg.lo, seg.hi, seg.lo_closed, seg.hi_closed)


def arc_contains(arc: Arc, theta) -> bool:
    """theta is read mod the circumference."""
    L = arc.circumference
    theta = fr(theta) % L
    if arc.start == arc.end:
        return theta == arc.start
    span = (arc.end - arc.start) % L
    delta = (theta - arc.start) % L
    if delta == 0:
        return arc.start_closed
    if delta == span:
        return arc.end_closed
    return 0 < delta < span


def slab_covers_x(slab: Slab, x) -> bool:
    return _in_range(x, slab.x_lo, slab.x_hi, slab.x_lo_closed, slab.x_hi_closed)


def slab_contains(slab: Slab, x, y) -> bool:
    if not slab_covers_x(slab, x):
        return False
    if isinstance(slab.lower, PLFunc):
        lv = slab.lower(x)
        if y < lv or (y == lv and not slab.lower_closed):
            return False
    if isinstance(slab.upper, PLFunc):
        uv = slab.upper(x)
        if y > uv or (y == uv and not slab.upper_closed):
            return False
    return True


def region_contains_point(a: PLRegion, point) -> bool:
    """point: a rational (line), ("circle", idx, theta), or an (x, y) pair."""
    if a.dim == 2:
        x, y = point
        return any(slab_contains(c, fr(x), fr(y)) for c in a.cells)
    if isinstance(point, tuple) and point and point[0] == "circle":
        _, idx, theta = point
        return any(
            not isinstance(c, Seg) and c.circle == idx
            and (isinstance(c, CircleCell) or arc_contains(c, theta))
            for c in a.cells
        )
    x = fr(point)
    return any(isinstance(c, Seg) and seg_contains(c, x) for c in a.cells)


def cuts_agree_part_by_part(cut_a, cut_b, ambient) -> bool:
    """Whether two cuts over one ambient have equal below, level and above
    parts, compared one part at a time."""
    return all(region_equal(ra, rb) for ra, rb in zip(
        cut_regions(cut_a, ambient), cut_regions(cut_b, ambient)))


def pairwise_cut_disagreement(cut_a, ambient_a, cut_b, ambient_b,
                              within: PLRegion) -> PLRegion:
    """Points of within where two cuts classify differently: within minus
    the union of the three pairwise intersections of their parts, with the
    difference rebuilt from every fibre."""
    agree_cells: list = []
    for ra, rb in zip(cut_regions(cut_a, ambient_a),
                      cut_regions(cut_b, ambient_b)):
        agree_cells.extend(region_boolean("intersect", ra, rb).cells)
    agree = PLRegion(within.dim, tuple(agree_cells))
    [out] = _rebuild([within, agree], [lambda m: m[0] and not m[1]])
    return out


def reference_cut_disagreement(cuts, within: PLRegion) -> PLRegion:
    """Points of within where the cuts, each over its own ambient, do not
    all classify alike: within and every cut's partition refined together
    once."""
    return region_disagreement(
        within, *(cut_regions(cut, ambient) for cut, ambient in cuts))


def reference_vertex_core(mg, ambient, direction: int, j: int) -> PLRegion:
    """The chained core of the grid with one direction collapsed to its
    cut j."""
    return chain_core(vertex_grid(mg, direction, j), ambient)


def reference_globularity_failures(mg, ambient) -> list[str]:
    """globularity_failures from a disagreement per pair of distinct later
    cuts and a core per vertex (at most two directions)."""
    g = mg.grid
    failures: list[str] = []
    kept = kept_region(mg, ambient)
    for i in range(1, g.d):
        diff_cells: list = []
        for t in g.tuples[i:]:
            cuts = t.cuts
            for k in range(len(cuts)):
                for l in range(k + 1, len(cuts)):
                    if cuts[k] != cuts[l]:
                        diff_cells.extend(pairwise_cut_disagreement(
                            cuts[k], ambient, cuts[l], ambient, kept).cells)
        if not diff_cells:
            continue
        wobble = region_closure(PLRegion(ambient.dim, tuple(diff_cells)))
        for j in range(g.tuples[i - 1].m + 1):
            meet = region_sample_point(
                wobble, reference_vertex_core(mg, ambient, i, j))
            if meet is not None:
                failures.append(
                    f"direction {i}, vertex {j}: later cuts disagree "
                    f"arbitrarily close to the core (e.g. at "
                    f"{_point_text(meet)})")
    return failures


def region_between(g, ambient, directions, j, jp) -> PLRegion:
    """Intersection over the chosen directions of the closed slice between
    cut j_i and cut jp_i: the ambient met in turn with each direction's
    piece, (above u level)(cut j_i) n (below u level)(cut jp_i).  No
    directions: the whole ambient."""
    out = ambient_region(ambient)
    for lo_cut, hi_cut in _slice_cuts(g, directions, j, jp):
        _, lo_l, lo_a = cut_regions(lo_cut, ambient)
        hi_b, hi_l, _ = cut_regions(hi_cut, ambient)
        out = region_boolean("intersect", out, region_boolean(
            "intersect", region_boolean("union", lo_a, lo_l),
            region_boolean("union", hi_b, hi_l)))
    return out


def reference_kept_slice(mg, ambient, directions, j, jp) -> PLRegion:
    """The chained between-region of the chosen directions, intersected
    with the kept region."""
    return region_boolean("intersect",
                          region_between(mg.grid, ambient, directions, j, jp),
                          kept_region(mg, ambient))


def refined_kept_slice(mg, ambient, directions, j, jp) -> PLRegion:
    """The kept region minus every chosen direction's below(cut j_i) and
    above(cut jp_i): one refinement with those parts as one partition."""
    outside: list[PLRegion] = []
    for lo_cut, hi_cut in _slice_cuts(mg.grid, directions, j, jp):
        outside += (cut_regions(lo_cut, ambient)[0],
                    cut_regions(hi_cut, ambient)[2])
    return region_disagreement(kept_region(mg, ambient), outside)


def chain_core(mg, ambient) -> PLRegion:
    """The chained slice between every direction's extreme cuts on the
    kept components, the reference for grids.core and for the core of
    grids.extreme_slices."""
    g = mg.grid
    return reference_kept_slice(mg, ambient, range(1, g.d + 1), [0] * g.d,
                                [t.m for t in g.tuples])


def reference_compactness_failures(mg, ambient) -> list[str]:
    """compactness_failures from the chained slice of every index pair,
    with no shortcut through the core of an ordered grid."""
    g = mg.grid
    failures: list[str] = []
    for combo in itertools.product(*(
            [(j, jp) for j in range(t.m + 1) for jp in range(j, t.m + 1)]
            for t in g.tuples)):
        sliced = reference_kept_slice(mg, ambient, range(1, g.d + 1),
                                      [a for a, _ in combo], [b for _, b in combo])
        if not region_is_compact_in(sliced, ambient):
            pairs = ", ".join(f"direction {i}: [{a}..{b}]"
                              for i, (a, b) in enumerate(combo, start=1))
            why = ("slice is unbounded" if not region_bounded(sliced)
                   else "closure of the slice leaves the ambient")
            failures.append(f"{pairs}: {why}")
    return failures


def reference_cut_regions(cut, ambient) -> tuple[PLRegion, PLRegion, PLRegion]:
    """The (below, level, above) partition of a 2D ambient, each part of
    each component intersected with the component's boxes by its own
    region_boolean."""
    parts: tuple[list, list, list] = ([], [], [])
    for ci, comp in enumerate(cut.components):
        boxes = component_region(ambient, ci)
        for part, cells in zip(parts, _component_parts_2d(comp, cut.axis)):
            part.extend(region_boolean(
                "intersect", PLRegion(2, tuple(cells)), boxes).cells)
    return tuple(PLRegion(2, tuple(part)) for part in parts)


def reference_tuple_is_ordered(tup, ambient) -> bool:
    """C_j <= C_{j+1} for all consecutive cuts: each below-region within
    the next, by region_subset of the cut_regions partitions."""
    belows = [cut_regions(c, ambient)[0] for c in tup.cuts]
    return all(region_subset(lo, hi) for lo, hi in zip(belows, belows[1:]))


def nearest_zero_ahead_side(comp, circumference, theta) -> str:
    """Side of the point theta of a circle under a valid component cut:
    level at a zero; otherwise the next zero ahead, wrapping past 0, is
    entered from its below side when its sign is '+'."""
    if comp.kind == "whole":
        return comp.whole_sign
    theta = fr(theta) % circumference
    ahead = {}
    for pos, sign in comp.zeros:
        if theta == pos:
            return "level"
        ahead[(pos - theta) % circumference] = sign
    return "below" if ahead[min(ahead)] == "+" else "above"


def reference_serialize_document(doc) -> str:
    """The text json's own encoder writes for the document's JSON tree."""
    return json.dumps(_document_tree(doc), indent=2) + "\n"
