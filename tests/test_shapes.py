"""Combinatorial index shapes: monotone maps, pointed label maps, level trees."""

import pytest
from hypothesis import given, strategies as st

from cutgrids.errors import ArgumentError
from cutgrids.shapes import (
    BASEPOINT,
    CompositionError,
    GammaMorphism,
    MonotoneMap,
    Multisimplex,
    MultisimplexOperator,
    ThetaMorphism,
    ThetaObject,
    compose_monotone,
    compose_operators,
    gamma_compose,
    hat_multisimplex,
    theta_compose,
    theta_of_multisimplex,
    vertex_operator,
)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

def monotone_maps(source, target):
    return st.lists(
        st.integers(0, target), min_size=source + 1, max_size=source + 1
    ).map(lambda vs: MonotoneMap(source, target, tuple(sorted(vs))))


@st.composite
def monotone_triples(draw):
    # three composable maps with random endpoints
    sizes = [draw(st.integers(0, 4)) for _ in range(4)]
    f = draw(monotone_maps(sizes[0], sizes[1]))
    g = draw(monotone_maps(sizes[1], sizes[2]))
    h = draw(monotone_maps(sizes[2], sizes[3]))
    return f, g, h


def gamma_morphisms(source, target):
    return st.lists(
        st.integers(0, target), min_size=source, max_size=source
    ).map(lambda vs: GammaMorphism(source, target, tuple(vs)))


@st.composite
def gamma_triples(draw):
    sizes = [draw(st.integers(0, 4)) for _ in range(4)]
    u = draw(gamma_morphisms(sizes[0], sizes[1]))
    v = draw(gamma_morphisms(sizes[1], sizes[2]))
    w = draw(gamma_morphisms(sizes[2], sizes[3]))
    return u, v, w


def level_trees(level, max_width=2):
    if level == 0:
        return st.just(ThetaObject.point())
    return st.lists(
        level_trees(level - 1, max_width), min_size=0, max_size=max_width
    ).map(lambda cs: ThetaObject(level, tuple(cs)))


@st.composite
def tree_morphisms(draw, src, tgt):
    delta = draw(monotone_maps(src.root, tgt.root))
    blocks = []
    for i in range(1, src.root + 1):
        for j in range(delta(i - 1) + 1, delta(i) + 1):
            blk = draw(tree_morphisms(src.children[i - 1], tgt.children[j - 1]))
            blocks.append(((i, j), blk))
    return ThetaMorphism(src, tgt, delta, tuple(blocks))


@st.composite
def tree_morphism_triples(draw):
    level = draw(st.integers(1, 3))
    a = draw(level_trees(level))
    b = draw(level_trees(level))
    c = draw(level_trees(level))
    d = draw(level_trees(level))
    f = draw(tree_morphisms(a, b))
    g = draw(tree_morphisms(b, c))
    h = draw(tree_morphisms(c, d))
    return f, g, h


# ---------------------------------------------------------------------------
# monotone maps
# ---------------------------------------------------------------------------

def test_monotone_map_rejects_decreasing_table():
    with pytest.raises(ValueError):
        MonotoneMap(2, 2, (0, 2, 1))


def test_monotone_map_rejects_out_of_range_value():
    with pytest.raises(ValueError):
        MonotoneMap(1, 1, (0, 2))


def test_monotone_map_rejects_wrong_table_length():
    with pytest.raises(ValueError):
        MonotoneMap(2, 2, (0, 1))


def test_face_tables():
    assert MonotoneMap.face(3, 1).values == (0, 2, 3)
    assert MonotoneMap.face(2, 0).values == (1, 2)


def test_cosimplicial_identity_faces():
    # d^j d^i = d^i d^{j-1} for i < j, checked exhaustively in low degree
    for n in range(1, 4):
        for j in range(n + 2):
            for i in range(j):
                left = compose_monotone(MonotoneMap.face(n, i), MonotoneMap.face(n + 1, j))
                right = compose_monotone(MonotoneMap.face(n, j - 1), MonotoneMap.face(n + 1, i))
                assert left == right


def test_compose_monotone_endpoint_mismatch():
    with pytest.raises(CompositionError):
        compose_monotone(MonotoneMap.identity(2), MonotoneMap.identity(3))


@given(monotone_triples())
def test_monotone_composition_is_associative(fgh):
    f, g, h = fgh
    assert compose_monotone(compose_monotone(f, g), h) == compose_monotone(
        f, compose_monotone(g, h)
    )


@given(monotone_maps(3, 2))
def test_monotone_identity_laws(f):
    assert compose_monotone(MonotoneMap.identity(f.source), f) == f
    assert compose_monotone(f, MonotoneMap.identity(f.target)) == f


# ---------------------------------------------------------------------------
# pointed label maps
# ---------------------------------------------------------------------------

def test_gamma_fixes_basepoint():
    u = GammaMorphism(3, 2, (2, 0, 1))
    assert u(BASEPOINT) == BASEPOINT
    assert u(1) == 2 and u(2) == 0 and u(3) == 1


def test_gamma_rejects_label_outside_target():
    with pytest.raises(ValueError):
        GammaMorphism(2, 1, (1, 2))


def test_gamma_compose_oracle():
    u = GammaMorphism(2, 3, (3, 1))
    v = GammaMorphism(3, 1, (1, 0, 1))
    assert gamma_compose(u, v) == GammaMorphism(2, 1, (1, 1))


@given(gamma_triples())
def test_gamma_composition_is_associative(uvw):
    u, v, w = uvw
    assert gamma_compose(gamma_compose(u, v), w) == gamma_compose(u, gamma_compose(v, w))


@given(gamma_morphisms(4, 3))
def test_gamma_identity_laws(u):
    assert gamma_compose(GammaMorphism.identity(u.source), u) == u
    assert gamma_compose(u, GammaMorphism.identity(u.target)) == u


# ---------------------------------------------------------------------------
# multisimplices and operators
# ---------------------------------------------------------------------------

def test_multisimplex_rejects_negative_entry():
    with pytest.raises(ValueError):
        Multisimplex((1, -1))


def test_multisimplex_replace():
    m = Multisimplex((2, 0, 3))
    assert m.replace(1, 5) == Multisimplex((2, 5, 3))
    assert m.d == 3 and m[2] == 3


def test_operator_source_target():
    op = MultisimplexOperator((MonotoneMap.face(2, 1), MonotoneMap.identity(3)))
    assert op.source == Multisimplex((1, 3))
    assert op.target == Multisimplex((2, 3))


def test_compose_operators_direction_count_mismatch():
    one = MultisimplexOperator.identity(Multisimplex((1,)))
    two = MultisimplexOperator.identity(Multisimplex((1, 1)))
    with pytest.raises(CompositionError):
        compose_operators(one, two)


def test_vertex_operator_shape():
    m = Multisimplex((2, 3))
    op = vertex_operator(m, 2, 1)
    assert op.source == Multisimplex((2, 0))
    assert op.target == m
    assert op.components[1].values == (1,)
    with pytest.raises(ValueError):
        vertex_operator(m, 3, 0)
    with pytest.raises(ValueError):
        vertex_operator(m, 1, 3)


def test_hat_collapses_entries_after_first_zero():
    cases = {
        (): (),
        (2,): (2,),
        (0,): (0,),
        (2, 3): (2, 3),
        (0, 3): (0, 0),
        (2, 0, 3): (2, 0, 0),
        (1, 0, 0, 2): (1, 0, 0, 0),
    }
    for entries, want in cases.items():
        hat, op = hat_multisimplex(Multisimplex(entries))
        assert hat == Multisimplex(want)
        assert op.source == Multisimplex(entries)
        assert op.target == hat


def test_hat_is_idempotent_exhaustively():
    # every multisimplex with d <= 4 and entries <= 3
    import itertools

    for d in range(5):
        for entries in itertools.product(range(4), repeat=d):
            m = Multisimplex(entries)
            hat, _ = hat_multisimplex(m)
            hat2, op2 = hat_multisimplex(hat)
            assert hat2 == hat
            assert op2.is_identity()


# ---------------------------------------------------------------------------
# level trees
# ---------------------------------------------------------------------------

def test_tree_rejects_mismatched_child_level():
    with pytest.raises(ValueError):
        ThetaObject(2, (ThetaObject.point(),))


def test_tree_of_multisimplex_hand_values():
    pt = ThetaObject.point()
    line2 = ThetaObject(1, (pt, pt))
    assert theta_of_multisimplex(Multisimplex(())) == pt
    assert theta_of_multisimplex(Multisimplex((0,))) == ThetaObject(1, ())
    assert theta_of_multisimplex(Multisimplex((2,))) == line2
    assert theta_of_multisimplex(Multisimplex((1, 2))) == ThetaObject(2, (line2,))
    assert theta_of_multisimplex(Multisimplex((2, 1))) == ThetaObject(
        2, (ThetaObject(1, (pt,)), ThetaObject(1, (pt,)))
    )
    assert theta_of_multisimplex(Multisimplex((2, 0, 1))) == ThetaObject(
        3, (ThetaObject(2, (ThetaObject(1, ()),) * 0),) * 2
    )
    assert theta_of_multisimplex(Multisimplex((1, 2, 1))) == ThetaObject(
        3, (ThetaObject(2, (ThetaObject(1, (pt,)), ThetaObject(1, (pt,)))),)
    )


def test_tree_of_multisimplex_exhaustive_small():
    # entries <= 2 and d <= 3: the tree is the suffix tree repeated over the
    # first entry, so pin level, width, and child recursion everywhere
    import itertools

    for d in range(4):
        for entries in itertools.product(range(3), repeat=d):
            m = Multisimplex(entries)
            tree = theta_of_multisimplex(m)
            assert tree.level == d
            if d == 0:
                assert tree.children == ()
                continue
            assert tree.root == entries[0]
            suffix = theta_of_multisimplex(Multisimplex(entries[1:]))
            assert all(c == suffix for c in tree.children)


def test_tree_morphism_identity_recognized():
    tree = ThetaObject(2, (ThetaObject(1, (ThetaObject.point(),)),))
    ident = ThetaMorphism.identity(tree)
    assert ident.is_identity()
    assert theta_compose(ident, ident) == ident


def test_tree_morphism_rejects_missing_block():
    pt = ThetaObject.point()
    src = ThetaObject(1, (pt,))
    tgt = ThetaObject(1, (pt,))
    with pytest.raises(ValueError):
        ThetaMorphism(src, tgt, MonotoneMap.identity(1), ())


def test_tree_morphism_block_lookup_rejects_a_missing_block():
    ident = ThetaMorphism.identity(ThetaObject(1, (ThetaObject.point(),)))
    assert ident.block(1, 1) == ThetaMorphism.identity(ThetaObject.point())
    with pytest.raises(ArgumentError, match="no block"):
        ident.block(1, 2)


@given(tree_morphism_triples())
def test_tree_composition_is_associative(fgh):
    f, g, h = fgh
    assert theta_compose(theta_compose(f, g), h) == theta_compose(f, theta_compose(g, h))


@given(st.integers(1, 3).flatmap(
    lambda lv: st.tuples(level_trees(lv), level_trees(lv))
).flatmap(lambda pair: tree_morphisms(*pair)))
def test_tree_identity_laws(f):
    assert theta_compose(ThetaMorphism.identity(f.source_obj), f) == f
    assert theta_compose(f, ThetaMorphism.identity(f.target_obj)) == f
