"""Byte-exact planar outputs around the origin.

The benchmark shifts every planar input far to the right, so none of its
boxes contains x = 0, where a finite box side's constant has its
breakpoint.  These cases sit on the origin instead: the catalog items
unshifted, the composable pair on a finite box, wall planes, a cross of
two overlapping boxes, and two-component monoidal products, side by side
and stacked.  Each output is pinned by the sha256 of its text: the SVG,
the validation report, the shrunk document and the equivalence verdicts.
"""

import hashlib
from dataclasses import replace
from fractions import Fraction

import pytest

from cutgrids import bordisms, grids, plgeom
from cutgrids.bordisms import (
    FULL_PLANE,
    Bordism,
    catalog,
    embedded_field,
    equivalent,
    monoidal_product,
    shrink_to_core,
    validate,
)
from cutgrids.documents import document_for, serialize_document
from cutgrids.grids import (
    AffineMap,
    ComponentCut2D,
    Cut2D,
    CutGrid,
    CutTuple,
    MonoidalCutGrid,
    Sheet,
    core,
    globularity_failures,
)
from cutgrids.plgeom import Ambient2D, PLFunc, region_equal
from cutgrids.render import render_svg

from oracles import (
    chain_core,
    drawing_outside_core,
    reference_globularity_failures,
    reference_render_svg,
    reference_shrink_to_core,
    shrink_outcome,
)

F = Fraction


def on_box(b, *boxes):
    return replace(b, ambient=Ambient2D(boxes))


def moved(b, dx, dy):
    """b embedded by the translation (dx, dy)."""
    return replace(b, embedding=AffineMap(2, (0, 1), (1, 1), (dx, dy)))


def wall_plane(walls, height, ambient=FULL_PLANE):
    """Vertical walls x = w in direction 1, one horizontal sheet y =
    height in direction 2."""
    d1 = CutTuple(tuple(
        Cut2D(1, (ComponentCut2D("sheets", (Sheet(PLFunc.constant(w), "+"),)),))
        for w in walls))
    d2 = CutTuple((Cut2D(2, (ComponentCut2D(
        "sheets", (Sheet(PLFunc.constant(height), "+"),)),)),))
    mgrid = MonoidalCutGrid(CutGrid((d1, d2)), 1, (1,))
    return Bordism(ambient, mgrid, embedded_field(2), AffineMap.identity(2))


def pair(width=F(3, 4)):
    return catalog("composable_pair_2d", width)


def pair_box(width=F(3, 4)):
    return on_box(pair(width), (-3, 3, -3, 3))


def point_box():
    return on_box(catalog("point2d"), (-1, 1, -1, 1))


# name -> (bordism, shrink eps, bordisms to test equivalence against)
CASES = {
    "point2d": (lambda: catalog("point2d"), 1, lambda: [point_box()]),
    "point2d_box": (point_box, F(1, 2), lambda: [catalog("point2d")]),
    "point2d_cross": (
        lambda: on_box(catalog("point2d"), (-2, 2, -1, 1), (-1, 1, -2, 2)),
        1, lambda: [point_box()]),
    "pair": (pair, 1, lambda: [pair_box(), pair(F(1, 2))]),
    "pair_half": (lambda: pair(F(1, 2)), F(1, 2), lambda: [pair()]),
    "pair_box": (pair_box, 1, lambda: [pair()]),
    "walls": (lambda: wall_plane((-1, 0, 2), 0), 1,
              lambda: [wall_plane((-1, 0, 2), F(1, 2))]),
    "walls_box": (
        lambda: wall_plane((0, 1), F(1, 2), Ambient2D(((-2, 3, -1, 2),))),
        F(1, 4), lambda: [wall_plane((0, 1), F(1, 2))]),
    "pairs_side_by_side": (
        lambda: monoidal_product(pair_box(), moved(pair_box(F(1, 2)), 10, 0)),
        1, lambda: []),
    "pairs_stacked": (
        lambda: monoidal_product(pair_box(), moved(pair_box(), 0, 10)),
        1, lambda: []),
    "points_stacked": (
        lambda: monoidal_product(moved(point_box(), 0, -3), point_box()),
        F(1, 2), lambda: []),
    "walls_side_by_side": (
        lambda: monoidal_product(
            wall_plane((0, 1), 0, Ambient2D(((-2, 3, -1, 1),))),
            moved(wall_plane((-1, 0), 0, Ambient2D(((-2, 1, -1, 1),))), 5, 0)),
        F(1, 2), lambda: []),
}


def outputs(name):
    """The pinned texts of one case: render, report, shrunk document and
    the equivalence verdicts (against its own shrink, then the others)."""
    build, eps, others = CASES[name]
    b = build()
    shrunk = shrink_to_core(b, eps)
    verdicts = [equivalent(b, shrunk)] + [equivalent(b, o) for o in others()]
    return {
        "svg": render_svg(b),
        "report": str(validate(b)),
        "shrunk": serialize_document(document_for(shrunk)),
        "equivalent": repr(verdicts),
    }


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# sha256 of each output text; a change to how cut partitions are built
# must leave every one as it is.  The svg of pair_box and of
# pairs_side_by_side draws core's cells, whose core-region polygons are
# fewer than the boolean chain's (29 lines where it drew 33, 69 where 81)
# and cover the same points
PINNED = {
    "pair": {
        "svg": "a989626ac985332e298c624017fdda178fa9da1c5d8f4ba1d4aa9c18863f22fb",
        "report": "ef3cdac7dc2cb30692e9cd10143fcc0c9bb13c1793d6362b2b1470d3c9b5c442",
        "shrunk": "884eee849ac8ad84ac51200ede890a547f690f167e29313ecc16c9746ecbe56b",
        "equivalent": "4550200be28eddff407573cee15f3fa5beadfbdee0b1872551ea4ecf245eb2e1",
    },
    "pair_box": {
        "svg": "d0c6aa7136331035904e50e5e152d71257c911f835d1f84dc1fde5280cff014b",
        "report": "ef3cdac7dc2cb30692e9cd10143fcc0c9bb13c1793d6362b2b1470d3c9b5c442",
        "shrunk": "884eee849ac8ad84ac51200ede890a547f690f167e29313ecc16c9746ecbe56b",
        "equivalent": "d4a38ddf3e6fa41d4aa02aa140da3fe44f3a266c1ac57f4ad7b0af6939c85e1a",
    },
    "pair_half": {
        "svg": "cd34ac90d41e2553179fe4416d01ea75089fa0c93a8cd5664607d29afb52f333",
        "report": "ef3cdac7dc2cb30692e9cd10143fcc0c9bb13c1793d6362b2b1470d3c9b5c442",
        "shrunk": "a267e8e32750f73f070d4516dd2ff4ce0083d24356ad9c6d7db29be39e3b5194",
        "equivalent": "b8d09808ff0f48f42cabc2a1d2625346db2aeb3c1b68b063f09c58eee40b3607",
    },
    "pairs_side_by_side": {
        "svg": "4b584d727602ec8168f837f6eebc4b66065661cf6b7346e76673add868cf768c",
        "report": "ef3cdac7dc2cb30692e9cd10143fcc0c9bb13c1793d6362b2b1470d3c9b5c442",
        "shrunk": "5659c4fa9f4c4331721cb0dd94a111016b48d4114cd03badd603ed61568f9527",
        "equivalent": "b78c88a26a2b512a2964fc4160ddb4d32e2aed8b01219ab5e3666b633572b336",
    },
    "pairs_stacked": {
        "svg": "3996bced04456e632fc8ec527cc5dd6d04d2ba88b62fcdc53a9eb84efe2a19b7",
        "report": "ef3cdac7dc2cb30692e9cd10143fcc0c9bb13c1793d6362b2b1470d3c9b5c442",
        "shrunk": "5fd6ff1c969bee7c1b97588db9bc42261a71c14853ef1fe21a9bf0b5c6d84edb",
        "equivalent": "b78c88a26a2b512a2964fc4160ddb4d32e2aed8b01219ab5e3666b633572b336",
    },
    "point2d": {
        "svg": "332a54a24b348475ec5b0ce8f30352ca02023a269ff6cf8affeef7457ffdddfe",
        "report": "ef3cdac7dc2cb30692e9cd10143fcc0c9bb13c1793d6362b2b1470d3c9b5c442",
        "shrunk": "16886353c39abcaa5ca46848a5bc4edf1f8adcdd3370d2fe0af69f2e4f82ded1",
        "equivalent": "d4a38ddf3e6fa41d4aa02aa140da3fe44f3a266c1ac57f4ad7b0af6939c85e1a",
    },
    "point2d_box": {
        "svg": "332a54a24b348475ec5b0ce8f30352ca02023a269ff6cf8affeef7457ffdddfe",
        "report": "ef3cdac7dc2cb30692e9cd10143fcc0c9bb13c1793d6362b2b1470d3c9b5c442",
        "shrunk": "a57e359cba88ae302462a5fa1bba37ecd5307bd92b9b04f230827c66ea7cac01",
        "equivalent": "d4a38ddf3e6fa41d4aa02aa140da3fe44f3a266c1ac57f4ad7b0af6939c85e1a",
    },
    "point2d_cross": {
        "svg": "332a54a24b348475ec5b0ce8f30352ca02023a269ff6cf8affeef7457ffdddfe",
        "report": "ef3cdac7dc2cb30692e9cd10143fcc0c9bb13c1793d6362b2b1470d3c9b5c442",
        "shrunk": "16886353c39abcaa5ca46848a5bc4edf1f8adcdd3370d2fe0af69f2e4f82ded1",
        "equivalent": "d4a38ddf3e6fa41d4aa02aa140da3fe44f3a266c1ac57f4ad7b0af6939c85e1a",
    },
    "points_stacked": {
        "svg": "4006c8e8d1127c48765e0b245a1e3e0fce9ab1cdbb5f720c18bf0a5682930a17",
        "report": "ef3cdac7dc2cb30692e9cd10143fcc0c9bb13c1793d6362b2b1470d3c9b5c442",
        "shrunk": "1e6029b2bb668458dd3af2d0c1da0f1fdfe6801e4165cb6ab5cfa6f277b1b5ab",
        "equivalent": "b78c88a26a2b512a2964fc4160ddb4d32e2aed8b01219ab5e3666b633572b336",
    },
    "walls": {
        "svg": "7d49681a922102edd5820f3a4ff4e5fe595f311fc4b439da4c3d23143aad8223",
        "report": "ef3cdac7dc2cb30692e9cd10143fcc0c9bb13c1793d6362b2b1470d3c9b5c442",
        "shrunk": "d7755e95b19477c4fc4c820a6bdd772f4c281cd2f43ea883d885682fd8ae2234",
        "equivalent": "b8d09808ff0f48f42cabc2a1d2625346db2aeb3c1b68b063f09c58eee40b3607",
    },
    "walls_box": {
        "svg": "89c3fde7152efa1e330b3812b9e8946600f57fc8998d7a90d4dac0a55c07a26d",
        "report": "ef3cdac7dc2cb30692e9cd10143fcc0c9bb13c1793d6362b2b1470d3c9b5c442",
        "shrunk": "ea73cd5b6aa4e8c5148bfce1429ae59a0490f659ef2bff281aacffcd0beb8a54",
        "equivalent": "d4a38ddf3e6fa41d4aa02aa140da3fe44f3a266c1ac57f4ad7b0af6939c85e1a",
    },
    "walls_side_by_side": {
        "svg": "4024372bc8af866c6b90bfca72089cea6729a92ad166bfbc58e3afd2128fa7b0",
        "report": "ef3cdac7dc2cb30692e9cd10143fcc0c9bb13c1793d6362b2b1470d3c9b5c442",
        "shrunk": "6a6e4d74d450bd98cf04d09e26055273fe1ac0b4548f51c08e5f2557e2efd18b",
        "equivalent": "b78c88a26a2b512a2964fc4160ddb4d32e2aed8b01219ab5e3666b633572b336",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_planar_outputs_are_pinned(name):
    got = {kind: digest(text) for kind, text in outputs(name).items()}
    assert got == PINNED[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_globularity_matches_the_pairwise_reference(name):
    build, eps, _others = CASES[name]
    b = build()
    for c in (b, shrink_to_core(b, eps)):
        assert globularity_failures(c.mgrid, c.ambient) == \
            reference_globularity_failures(c.mgrid, c.ambient)


@pytest.mark.parametrize("name", sorted(CASES))
def test_shrinking_on_core_matches_the_chain_reference(name):
    build, eps, _others = CASES[name]
    b = build()
    for e in (F(1, 8), F(1, 4), F(1, 2), F(1), eps):
        assert shrink_outcome(shrink_to_core, b, e) == \
            shrink_outcome(reference_shrink_to_core, b, e)


@pytest.mark.parametrize("name", sorted(CASES))
def test_render_draws_what_the_chain_core_draws(name):
    b = CASES[name][0]()
    assert drawing_outside_core(render_svg, b) == \
        drawing_outside_core(reference_render_svg, b)
    assert region_equal(core(b.mgrid, b.ambient), chain_core(b.mgrid, b.ambient))


def test_equivalence_with_the_shrink_builds_one_boolean(monkeypatch):
    # with warm partitions the common ambient is the one region_boolean and
    # the points whose labels differ one region_disagreement, where a meet
    # per pair of components with different labels made 3
    build, eps, _others = CASES["pairs_side_by_side"]
    b = build()
    shrunk = shrink_to_core(b, eps)
    assert equivalent(b, shrunk)  # fills the cut_regions memo
    calls = []
    real = plgeom.region_boolean
    for module in (plgeom, grids, bordisms):
        monkeypatch.setattr(module, "region_boolean",
                            lambda *args: calls.append(args) or real(*args))
    assert equivalent(b, shrunk)
    assert len(calls) == 1
