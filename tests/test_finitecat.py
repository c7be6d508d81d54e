"""Finite categories, nerves, presheaves, and the strict locality checkers."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cutgrids.finitecat import (
    FinCategory,
    FinFunctor,
    FinPresheaf,
    TruncSSet,
    chaotic_groupoid,
    check_completeness_nerve,
    check_globularity_presheaf,
    check_segal_delta,
    check_segal_gamma,
    constant_gamma_presheaf,
    cyclic_group_category,
    elements_category,
    external_product,
    gamma_segal_category,
    is_discrete_fibration,
    monoid_power_presheaf,
    nerve,
    pi0,
    poset_category,
)
from cutgrids import finitecat
from cutgrids.documents import document_for, serialize_document
from cutgrids.errors import ArgumentError, NotComposableError
from cutgrids.shapes import GammaMorphism, MonotoneMap, Multisimplex, gamma_compose

from fixtures import (chain_poset, constant_multisimplex_presheaf, cospan_poset,
                      discrete_category, discrete_factor, disjoint_union_category,
                      parallel_pair_category, preorder_diagnostics,
                      representable_multisimplex_presheaf, restrict, sset_factor)


# ---------------------------------------------------------------------------
# strategies: the corpus of small categories is assembled from validated
# builders (every member is a genuine category, so nerve laws must hold)
# ---------------------------------------------------------------------------

ATOMS = (
    [chain_poset(n) for n in range(3)]
    + [discrete_category(k) for k in (1, 2, 3)]
    + [cyclic_group_category(k) for k in (1, 2, 3, 4)]
    + [chaotic_groupoid(2), parallel_pair_category(), cospan_poset()]
)


@st.composite
def small_categories(draw, max_objects=4):
    cat = draw(st.sampled_from(ATOMS))
    if len(cat.objects) < max_objects and draw(st.booleans()):
        room = max_objects - len(cat.objects)
        extras = [c for c in ATOMS if len(c.objects) <= room]
        if extras:
            cat = disjoint_union_category(cat, draw(st.sampled_from(extras)))
    return cat


def representable_presheaf(cat: FinCategory, c) -> FinPresheaf:
    sets = {x: frozenset(cat.hom(x, c)) for x in cat.objects}
    actions = {
        f: {h: cat.then(f, h) for h in sets[cat.dst(f)]} for f in cat.arrows
    }
    return FinPresheaf(cat, sets, actions)


def constant_presheaf(cat: FinCategory, values) -> FinPresheaf:
    vs = frozenset(values)
    sets = {x: vs for x in cat.objects}
    actions = {f: {v: v for v in vs} for f in cat.arrows}
    return FinPresheaf(cat, sets, actions)


def coproduct_presheaf(p: FinPresheaf, q: FinPresheaf) -> FinPresheaf:
    sets = {
        x: frozenset({(0, e) for e in p.sets[x]} | {(1, e) for e in q.sets[x]})
        for x in p.base.objects
    }
    actions = {}
    for f in p.base.arrows:
        y = p.base.dst(f)
        actions[f] = {
            (i, e): (i, (p if i == 0 else q).act(f, e)) for (i, e) in sets[y]
        }
    return FinPresheaf(p.base, sets, actions)


@st.composite
def small_presheaves(draw):
    cat = draw(small_categories())
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return representable_presheaf(cat, draw(st.sampled_from(cat.objects)))
    if kind == 1:
        size = draw(st.integers(0, 3))
        return constant_presheaf(cat, range(size))
    p = representable_presheaf(cat, draw(st.sampled_from(cat.objects)))
    q = constant_presheaf(cat, range(draw(st.integers(1, 2))))
    return coproduct_presheaf(p, q)


def graph_components(cat: FinCategory) -> set:
    # plain union-find over the underlying graph of the category
    parent = {x: x for x in cat.objects}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (s, t) in cat.arrows.values():
        a, b = find(s), find(t)
        if a != b:
            parent[a] = b
    groups = {}
    for x in cat.objects:
        groups.setdefault(find(x), set()).add(x)
    return {frozenset(g) for g in groups.values()}


def brute_force_isomorphisms(cat: FinCategory) -> set:
    isos = set()
    for f, (x, y) in cat.arrows.items():
        for g in cat.hom(y, x):
            if cat.then(f, g) == cat.identity[x] and cat.then(g, f) == cat.identity[y]:
                isos.add(f)
    return isos


# ---------------------------------------------------------------------------
# categories and functors
# ---------------------------------------------------------------------------

def test_category_rejects_missing_composite():
    arrows = {"i0": (0, 0), "i1": (1, 1), "f": (0, 1)}
    identity = {0: "i0", 1: "i1"}
    with pytest.raises(ValueError, match="missing composite"):
        FinCategory((0, 1), arrows, identity, {})


def test_category_rejects_composite_with_wrong_endpoints():
    arrows = {"i0": (0, 0), "i1": (1, 1), "f": (0, 1)}
    identity = {0: "i0", 1: "i1"}
    table = {
        ("i0", "i0"): "i0",
        ("i1", "i1"): "i1",
        ("i0", "f"): "i1",  # lands at (1, 1), should be (0, 1)
        ("f", "i1"): "f",
    }
    with pytest.raises(ValueError, match="wrong endpoints"):
        FinCategory((0, 1), arrows, identity, table)


def test_category_rejects_a_composite_that_is_not_an_arrow():
    arrows = {"i0": (0, 0)}
    with pytest.raises(ArgumentError, match="composite 'nope' of 'i0';'i0' is not an arrow"):
        FinCategory((0,), arrows, {0: "i0"}, {("i0", "i0"): "nope"})


def test_category_rejects_a_composite_for_a_pair_that_names_no_arrow():
    table = {("i0", "i0"): "i0", ("x", "y"): "i0"}
    with pytest.raises(ArgumentError, match="'x';'y', which names no arrow"):
        FinCategory((0,), {"i0": (0, 0)}, {0: "i0"}, table)


def test_category_rejects_bad_identity():
    with pytest.raises(ValueError, match="identity"):
        FinCategory((0,), {"f": (0, 0)}, {0: "g"}, {})


def test_poset_category_requires_transitivity():
    rel = {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}  # missing (0, 2)
    with pytest.raises(ValueError, match="transitive"):
        poset_category((0, 1, 2), lambda x, y: (x, y) in rel)


def test_isomorphism_detection():
    cyc = cyclic_group_category(3)
    assert all(cyc.is_isomorphism(f) for f in cyc.arrows)
    chain = chain_poset(1)
    assert not chain.is_isomorphism(("le", 0, 1))
    assert chain.is_isomorphism(("le", 0, 0))


def test_tabled_then_rejects_a_pair_that_does_not_compose():
    chain = chain_poset(2)
    assert chain.then(("le", 0, 1), ("le", 1, 2)) == ("le", 0, 2)
    with pytest.raises(NotComposableError, match="does not compose"):
        chain.then(("le", 1, 2), ("le", 0, 1))


def test_functor_rejects_unpreserved_composition():
    chain = chain_poset(1)
    disc = discrete_category(2)
    with pytest.raises(ValueError):
        FinFunctor(
            chain,
            disc,
            {0: 0, 1: 1},
            {("le", 0, 0): ("id", 0), ("le", 1, 1): ("id", 1), ("le", 0, 1): ("id", 0)},
        )


def test_presheaf_rejects_broken_functoriality():
    chain = chain_poset(1)
    p = representable_presheaf(chain, 1)
    bad_actions = dict(p.actions)
    bad_actions[("le", 0, 0)] = {("le", 0, 1): ("le", 0, 0)}  # not the identity
    with pytest.raises(ValueError):
        FinPresheaf(chain, p.sets, bad_actions)


def test_presheaf_rejects_a_broken_composite():
    # identities intact, but 0 <= 2 no longer acts as (0 <= 1) then (1 <= 2)
    chain = chain_poset(2)
    p = constant_presheaf(chain, range(2))
    bad_actions = dict(p.actions)
    bad_actions[("le", 0, 2)] = {0: 1, 1: 0}
    with pytest.raises(ArgumentError, match=(
            r"contravariant functoriality fails at \('le', 0, 1\);\('le', 1, 2\)")):
        FinPresheaf(chain, p.sets, bad_actions)


def reference_presheaf_error(base: FinCategory, sets, actions):
    """The checks of FinPresheaf with functoriality tested element by
    element: the message of the first check that fails, or None."""
    for x in base.objects:
        if x not in sets:
            return f"no set assigned to object {x!r}"
    for f, (s, t) in base.arrows.items():
        act = actions.get(f)
        if act is None:
            return f"no action for arrow {f!r}"
        if set(act) != set(sets[t]) or not set(act.values()) <= set(sets[s]):
            return f"action of {f!r} is not a map F({t!r}) -> F({s!r})"
    for x in base.objects:
        ident = actions[base.identity[x]]
        if any(ident[e] != e for e in sets[x]):
            return f"identity action at {x!r} is not the identity"
    for (f, g), h in base.then_table.items():
        af, ag, ah = actions[f], actions[g], actions[h]
        for e in sets[base.dst(g)]:
            if af[ag[e]] != ah[e]:
                return f"contravariant functoriality fails at {f!r};{g!r}"
    return None


@given(small_presheaves(), st.data())
@settings(max_examples=100, deadline=None)
def test_functoriality_check_matches_the_element_loop(presheaf, data):
    base = presheaf.base
    identities = set(base.identity.values())
    movable = [f for f in base.arrows if f not in identities] or list(base.arrows)
    f = data.draw(st.sampled_from(sorted(movable, key=repr)))
    s, t = base.arrows[f]
    if presheaf.sets[t]:
        e = data.draw(st.sampled_from(sorted(presheaf.sets[t], key=repr)))
        image = data.draw(st.sampled_from(sorted(presheaf.sets[s], key=repr)))
        actions = dict(presheaf.actions)
        actions[f] = {**actions[f], e: image}
    else:
        actions = presheaf.actions
    want = reference_presheaf_error(base, presheaf.sets, actions)
    try:
        FinPresheaf(base, presheaf.sets, actions)
        got = None
    except ArgumentError as exc:
        got = str(exc)
    assert got == want


def mismapped(action: dict, how: str, outside) -> dict:
    """action with one key dropped, one key added, or one value sent
    outside the target set."""
    first = min(action, key=repr)
    if how == "missing":
        return {e: v for e, v in action.items() if e != first}
    if how == "extra":
        return {**action, outside: action[first]}
    return {**action, first: outside}


@pytest.mark.parametrize("how", ["missing", "extra", "outside"])
@pytest.mark.parametrize("presheaf", [
    constant_presheaf(chain_poset(2), range(2)),
    monoid_power_presheaf(range(2), lambda a, b: (a + b) % 2, 0, 2),
], ids=["tabled", "gamma"])
def test_an_action_that_is_not_a_map_is_refused_as_the_reference_refuses_it(
        presheaf, how):
    base = presheaf.base
    identities = set(base.identity.values())
    for f in sorted(set(base.arrows) - identities, key=repr):
        actions = dict(presheaf.actions)
        actions[f] = mismapped(actions[f], how, "nowhere")
        want = reference_presheaf_error(base, presheaf.sets, actions)
        s, t = base.arrows[f]
        assert want == f"action of {f!r} is not a map F({t!r}) -> F({s!r})"
        with pytest.raises(ArgumentError) as caught:
            FinPresheaf(base, presheaf.sets, actions)
        assert str(caught.value) == want


# ---------------------------------------------------------------------------
# nerves and truncated simplicial sets
# ---------------------------------------------------------------------------

def test_nerve_sizes_of_arrow_category():
    n = nerve(chain_poset(1), 2)
    assert len(n.simplices[0]) == 2
    assert len(n.simplices[1]) == 3
    assert len(n.simplices[2]) == 4


def test_nerve_faces_compose_inner_and_drop_outer():
    chain = chain_poset(2)
    n = nerve(chain, 2)
    two_step = (("le", 0, 1), ("le", 1, 2))
    assert n.face(2, 0, two_step) == (("le", 1, 2),)
    assert n.face(2, 2, two_step) == (("le", 0, 1),)
    assert n.face(2, 1, two_step) == (("le", 0, 2),)
    assert n.face(1, 0, (("le", 0, 2),)) == 2
    assert n.face(1, 1, (("le", 0, 2),)) == 0


def test_nerve_vertices():
    n = nerve(chain_poset(2), 2)
    x = (("le", 0, 1), ("le", 1, 2))
    assert [n.vertex(2, j, x) for j in (0, 1, 2)] == [0, 1, 2]


def test_restrict_along_degeneracy_inserts_identity():
    chain = chain_poset(1)
    n = nerve(chain, 2)
    alpha = MonotoneMap(2, 1, (0, 0, 1))
    assert restrict(n, alpha, (("le", 0, 1),)) == (("le", 0, 0), ("le", 0, 1))


def test_trunc_sset_rejects_broken_face_identity():
    n = nerve(chain_poset(1), 2)
    faces = {k: dict(v) for k, v in n.faces.items()}
    chain = (("le", 0, 1), ("le", 1, 1))
    faces[(2, 1)][chain] = (("le", 0, 0),)
    with pytest.raises(ValueError):
        TruncSSet(2, n.simplices, faces, n.degeneracies)


def triangle_boundary() -> TruncSSet:
    # all monotone vertex triples except the nondegenerate interior (0,1,2)
    verts = frozenset((i,) for i in range(3))
    edges = frozenset(
        (i, j) for i in range(3) for j in range(3) if i <= j
    )
    tris = frozenset(
        t
        for t in itertools.combinations_with_replacement(range(3), 3)
        if t != (0, 1, 2)
    )
    faces = {}
    for k, cells in ((1, edges), (2, tris)):
        for i in range(k + 1):
            faces[(k, i)] = {c: c[:i] + c[i + 1 :] for c in cells}
    degeneracies = {}
    for k, cells in ((0, verts), (1, edges)):
        for i in range(k + 1):
            degeneracies[(k, i)] = {c: c[: i + 1] + c[i:] for c in cells}
    return TruncSSet(2, (verts, edges, tris), faces, degeneracies)


def test_triangle_boundary_fails_chain_decomposition():
    bd = triangle_boundary()
    assert check_segal_delta(bd, 1, 1) is False
    assert check_segal_delta(bd, 2, 0) is True  # final vertex restriction


def test_chain_decomposition_rejects_out_of_range():
    n = nerve(chain_poset(1), 1)
    with pytest.raises(ValueError):
        check_segal_delta(n, 1, 1)
    with pytest.raises(ValueError):
        check_segal_delta(n, -1, 1)


@given(small_categories())
@settings(max_examples=60, deadline=None)
def test_nerves_satisfy_chain_decomposition(cat):
    n = nerve(cat, 3)
    for a in range(4):
        for b in range(4 - a):
            assert check_segal_delta(n, a, b) is True


def segal_by_target_set(sset, a, b):
    """Chain decomposition checked against the whole fibre product."""
    init = MonotoneMap(a, a + b, tuple(range(a + 1)))
    fin = MonotoneMap(b, a + b, tuple(range(a, a + b + 1)))
    pairs = [(restrict(sset, init, x), restrict(sset, fin, x))
             for x in sset.simplices[a + b]]
    target = {(u, v) for u in sset.simplices[a] for v in sset.simplices[b]
              if sset.vertex(a, a, u) == sset.vertex(b, 0, v)}
    return len(set(pairs)) == len(pairs) and set(pairs) == target


def twisted_pair():
    """Two 2-simplices whose first and last edges are the same edge, so the
    restrictions of each disagree at the shared vertex; the map is still
    injective and the fibre product {(f, g), (g, f)} has two pairs too."""
    faces = {(1, 0): {"f": 1, "g": 0}, (1, 1): {"f": 0, "g": 1}}
    for i in range(3):
        faces[(2, i)] = {"x": "f", "y": "g"}
    return TruncSSet(2, ({0, 1}, {"f", "g"}, {"x", "y"}), faces, {},
                     validate=False)


@st.composite
def rewired_nerves(draw):
    """A nerve up to level 3 with a few face values sent elsewhere, left
    unvalidated."""
    sset = nerve(draw(small_categories()), draw(st.integers(1, 3)))
    faces = {key: dict(m) for key, m in sset.faces.items()}
    for _ in range(draw(st.integers(0, 3))):
        k, i = draw(st.sampled_from(sorted(faces)))
        x = draw(st.sampled_from(sorted(faces[(k, i)], key=repr)))
        faces[(k, i)][x] = draw(st.sampled_from(sorted(sset.simplices[k - 1], key=repr)))
    return TruncSSet(sset.level, sset.simplices, faces, sset.degeneracies,
                     validate=False)


@given(rewired_nerves(), st.data())
@settings(max_examples=100, deadline=None)
def test_chain_decomposition_counts_as_the_target_set_does(sset, data):
    a = data.draw(st.integers(0, sset.level))
    b = data.draw(st.integers(0, sset.level - a))
    assert check_segal_delta(sset, a, b) is segal_by_target_set(sset, a, b)


def test_chain_decomposition_rejects_restrictions_that_disagree_at_the_vertex():
    twisted = twisted_pair()
    assert check_segal_delta(twisted, 1, 1) is False
    assert segal_by_target_set(twisted, 1, 1) is False
    assert check_segal_delta(triangle_boundary(), 1, 1) is segal_by_target_set(
        triangle_boundary(), 1, 1)


def reference_nerve(category: FinCategory, n: int):
    """The nerve's simplices, faces and degeneracies as nerve built them
    when each chain was tried against every arrow."""
    simplices = [frozenset(category.objects)]
    if n >= 1:
        simplices.append(frozenset((f,) for f in category.arrows))
    for k in range(2, n + 1):
        chains = set()
        for chain in simplices[k - 1]:
            for g in category.arrows:
                if category.src(g) == category.dst(chain[-1]):
                    chains.add(chain + (g,))
        simplices.append(frozenset(chains))
    faces = {}
    for k in range(1, n + 1):
        for i in range(k + 1):
            table = {}
            for chain in simplices[k]:
                if i == 0:
                    table[chain] = chain[1:] if k > 1 else category.dst(chain[0])
                elif i == k:
                    table[chain] = chain[:-1] if k > 1 else category.src(chain[0])
                else:
                    table[chain] = (chain[: i - 1]
                                    + (category.then(chain[i - 1], chain[i]),)
                                    + chain[i + 1:])
            faces[(k, i)] = table
    degeneracies = {}
    for k in range(n):
        for i in range(k + 1):
            table = {}
            for chain in simplices[k]:
                if k == 0:
                    table[chain] = (category.identity[chain],)
                else:
                    vert = category.src(chain[0]) if i == 0 else category.dst(chain[i - 1])
                    table[chain] = chain[:i] + (category.identity[vert],) + chain[i:]
            degeneracies[(k, i)] = table
    return simplices, faces, degeneracies


def listed_maps(maps: dict) -> list:
    return [(key, list(m.items())) for key, m in maps.items()]


@pytest.mark.parametrize("cat", [chain_poset(k) for k in range(4)]
                         + [cyclic_group_category(k) for k in (1, 2, 3)]
                         + [chaotic_groupoid(k) for k in (1, 2, 3)])
def test_nerve_extends_chains_as_the_all_arrows_scan_did(cat):
    # equal as lists: the same chains in the same iteration order
    for level in range(5):
        got = nerve(cat, level)
        simplices, faces, degeneracies = reference_nerve(cat, level)
        assert [list(s) for s in got.simplices] == [list(s) for s in simplices]
        assert listed_maps(got.faces) == listed_maps(faces)
        assert listed_maps(got.degeneracies) == listed_maps(degeneracies)


def checked_rebuild(sset: TruncSSet) -> TruncSSet:
    """The same sets and maps passed through the full check."""
    return TruncSSet(sset.level, sset.simplices, sset.faces, sset.degeneracies)


@pytest.mark.parametrize("cat", [chain_poset(k) for k in range(4)]
                         + [cyclic_group_category(k) for k in (2, 3)]
                         + [chaotic_groupoid(k) for k in (2, 3)])
def test_nerves_built_unchecked_pass_the_full_check(cat):
    for level in range(5):
        n = nerve(cat, level)
        assert checked_rebuild(n) == n


@given(small_categories())
@settings(max_examples=40, deadline=None)
def test_nerves_of_small_categories_pass_the_full_check(cat):
    for level in range(5):
        n = nerve(cat, level)
        assert checked_rebuild(n) == n


def test_the_validate_flag_is_not_part_of_the_value():
    n = nerve(chain_poset(1), 2)
    parts = (n.level, n.simplices, n.faces, n.degeneracies)
    assert TruncSSet(*parts, validate=False) == TruncSSet(*parts)
    assert "validate" not in repr(n)


def reference_identity_error(sset: TruncSSet):
    """The simplicial identities checked simplex by simplex, as TruncSSet
    checked them before; the message of the first failure, or None."""
    d, s = sset.faces, sset.degeneracies
    for k in range(2, sset.level + 1):
        for j in range(k + 1):
            for i in range(j):
                for x in sset.simplices[k]:
                    if d[(k - 1, i)][d[(k, j)][x]] != d[(k - 1, j - 1)][d[(k, i)][x]]:
                        return f"face identity fails at degree {k}"
    for k in range(sset.level - 1):
        for j in range(k + 1):
            for i in range(j + 1):
                for x in sset.simplices[k]:
                    if s[(k + 1, j + 1)][s[(k, i)][x]] != s[(k + 1, i)][s[(k, j)][x]]:
                        return f"degeneracy identity fails at degree {k}"
    for k in range(sset.level):
        for j in range(k + 1):
            for i in range(k + 2):
                for x in sset.simplices[k]:
                    got = d[(k + 1, i)][s[(k, j)][x]]
                    if i == j or i == j + 1:
                        want = x
                    elif i < j:
                        want = s[(k - 1, j - 1)][d[(k, i)][x]]
                    else:
                        want = s[(k - 1, j)][d[(k, i - 1)][x]]
                    if got != want:
                        return f"mixed identity fails at degree {k}"
    return None


@given(small_categories(max_objects=3), st.integers(1, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_identity_check_matches_the_per_simplex_loop(cat, level, data):
    sset = nerve(cat, level)
    maps = {"faces": {key: dict(m) for key, m in sset.faces.items()},
            "degeneracies": {key: dict(m) for key, m in sset.degeneracies.items()}}
    kind = data.draw(st.sampled_from(sorted(maps)))
    k, i = data.draw(st.sampled_from(sorted(maps[kind])))
    x = data.draw(st.sampled_from(sorted(sset.simplices[k], key=repr)))
    into = k - 1 if kind == "faces" else k + 1
    maps[kind][(k, i)][x] = data.draw(
        st.sampled_from(sorted(sset.simplices[into], key=repr)))
    rewired = TruncSSet(level, sset.simplices, maps["faces"], maps["degeneracies"],
                        validate=False)
    want = reference_identity_error(rewired)
    try:
        TruncSSet(level, sset.simplices, maps["faces"], maps["degeneracies"])
        got = None
    except ArgumentError as exc:
        got = str(exc)
    assert got == want


@pytest.mark.parametrize("j", [0, 1])
def test_identity_check_reaches_a_face_away_from_the_degeneracy(j):
    # d_2 s_0 = s_0 d_1 and d_0 s_1 = s_0 d_0 on edges are the identities
    # that break here: in the monoid {1, e} with e;e = e, sending s_j(e) to
    # the chain (e, e) keeps d_j s_j = d_{j+1} s_j = id and every other
    # identity, so no one entry of a nerve of the categories above fails
    # either alone
    arrows = {"1": ("*", "*"), "e": ("*", "*")}
    table = {("1", "1"): "1", ("1", "e"): "e", ("e", "1"): "e", ("e", "e"): "e"}
    sset = nerve(FinCategory(("*",), arrows, {"*": "1"}, table), 2)
    degeneracies = {key: dict(m) for key, m in sset.degeneracies.items()}
    degeneracies[(1, j)][("e",)] = ("e", "e")
    rewired = TruncSSet(2, sset.simplices, sset.faces, degeneracies, validate=False)
    assert reference_identity_error(rewired) == "mixed identity fails at degree 1"
    with pytest.raises(ArgumentError) as caught:
        TruncSSet(2, sset.simplices, sset.faces, degeneracies)
    assert str(caught.value) == "mixed identity fails at degree 1"


def reference_restrict(sset: TruncSSet, alpha: MonotoneMap, x):
    """X(alpha) on x, walked one simplex at a time: delete missed vertices
    top-down, then insert repeats."""
    image = sorted(set(alpha.values))
    cur, deg = x, alpha.target
    for v in sorted(set(range(alpha.target + 1)) - set(image), reverse=True):
        cur = sset.faces[(deg, v)][cur]
        deg -= 1
    for j in [j for j in range(alpha.source) if alpha.values[j] == alpha.values[j + 1]]:
        cur = sset.degeneracies[(deg, j)][cur]
        deg += 1
    return cur


@pytest.mark.parametrize("cat", [chain_poset(2), cyclic_group_category(2),
                                 chaotic_groupoid(2), parallel_pair_category()])
def test_factored_restriction_matches_the_per_simplex_walk(cat):
    sset = nerve(cat, 4)
    simplicial = sset_factor(sset)
    for a in range(5):
        for t in range(5):
            for values in itertools.combinations_with_replacement(range(t + 1), a + 1):
                alpha = MonotoneMap(a, t, values)
                want = {x: reference_restrict(sset, alpha, x) for x in sset.simplices[t]}
                assert list(simplicial.action(alpha).items()) == list(want.items())
                assert all(restrict(sset, alpha, x) == y for x, y in want.items())


def test_chain_decomposition_factors_each_restriction_once(monkeypatch):
    factored = []
    restriction_maps = TruncSSet.restriction_maps

    def counted(self, alpha):
        factored.append(alpha)
        return restriction_maps(self, alpha)

    monkeypatch.setattr(TruncSSet, "restriction_maps", counted)
    sset = nerve(chaotic_groupoid(2), 4)
    for a in range(5):
        factored.clear()
        assert check_segal_delta(sset, a, 4 - a) is True
        assert factored == [MonotoneMap(a, 4, tuple(range(a + 1))),
                            MonotoneMap(4 - a, 4, tuple(range(a, 5)))]


@given(small_categories())
@settings(max_examples=60, deadline=None)
def test_completeness_agrees_with_isomorphism_enumeration(cat):
    isos = brute_force_isomorphisms(cat)
    identities = set(cat.identity.values())
    assert check_completeness_nerve(cat) == (isos <= identities)


def test_completeness_verdicts():
    assert check_completeness_nerve(chain_poset(2)) is True
    assert check_completeness_nerve(cyclic_group_category(3)) is False
    assert check_completeness_nerve(chaotic_groupoid(2)) is False


@given(small_categories())
@settings(max_examples=60, deadline=None)
def test_pi0_of_nerve_matches_graph_components(cat):
    assert set(pi0(nerve(cat, 1))) == graph_components(cat)


def test_pi0_counts_disjoint_pieces():
    cat = disjoint_union_category(chain_poset(1), cyclic_group_category(2))
    assert len(pi0(nerve(cat, 1))) == 2


def test_preorder_diagnostics():
    assert preorder_diagnostics(chain_poset(2)) == {
        "is_preorder": True,
        "has_cospan_cones": True,
    }
    assert preorder_diagnostics(cospan_poset()) == {
        "is_preorder": True,
        "has_cospan_cones": False,
    }
    assert preorder_diagnostics(parallel_pair_category())["is_preorder"] is False


# ---------------------------------------------------------------------------
# category of elements / discrete fibrations
# ---------------------------------------------------------------------------

def test_elements_of_representable_is_slice():
    chain = chain_poset(2)
    cat, proj = elements_category(representable_presheaf(chain, 1))
    assert set(cat.objects) == {(0, ("le", 0, 1)), (1, ("le", 1, 1))}
    assert is_discrete_fibration(proj) is True


def test_collapse_functor_is_not_a_discrete_fibration():
    chain = chain_poset(1)
    point = discrete_category(1)
    collapse = FinFunctor(
        chain,
        point,
        {0: 0, 1: 0},
        {("le", 0, 0): ("id", 0), ("le", 1, 1): ("id", 0), ("le", 0, 1): ("id", 0)},
    )
    assert is_discrete_fibration(collapse) is False


@given(small_presheaves())
@settings(max_examples=60, deadline=None)
def test_elements_category_projects_as_discrete_fibration(presheaf):
    cat, proj = elements_category(presheaf)
    assert is_discrete_fibration(proj) is True
    assert len(cat.objects) == sum(len(presheaf.sets[x]) for x in presheaf.base.objects)


# ---------------------------------------------------------------------------
# pointed label diagrams
# ---------------------------------------------------------------------------

def test_gamma_base_composition_pushes_labels():
    base = gamma_segal_category(2)
    f = ("g", 1, 2, (1, 0))  # <2> -> <1>
    g = ("g", 2, 2, (2, 2))  # <2> -> <2>
    assert base.then(f, g) == ("g", 1, 2, (0, 0))


def test_label_diagrams_need_a_nonnegative_size():
    for build in (gamma_segal_category,
                  lambda n: monoid_power_presheaf((0, 1), max, 0, n),
                  lambda n: constant_gamma_presheaf({0}, n)):
        with pytest.raises(ArgumentError, match="size must be nonnegative"):
            build(-1)
    assert gamma_segal_category(0).objects == (0,)


def test_monoid_powers_split_strictly():
    p = monoid_power_presheaf(range(3), lambda a, b: (a + b) % 3, 0, 3)
    for kappa in range(4):
        for ell in range(4 - kappa):
            assert check_segal_gamma(p, kappa, ell) is True
    with pytest.raises(ValueError):
        check_segal_gamma(p, 2, 2)


def reference_gamma_then_table(base: FinCategory) -> dict:
    """Every pair of arrows, composed through gamma_compose where composable."""
    table = {}
    for f, (a, b) in base.arrows.items():
        for g, (b2, c) in base.arrows.items():
            if b == b2:
                comp = gamma_compose(GammaMorphism(c, b, g[3]), GammaMorphism(b, a, f[3]))
                table[(f, g)] = ("g", a, c, comp.action)
    return table


@pytest.mark.parametrize("n", range(4))
def test_gamma_then_table_matches_the_all_pairs_reference(n):
    base = gamma_segal_category(n)
    want = reference_gamma_then_table(base)
    keys = {f: f for f in base.arrows}
    for (f, g), h in want.items():
        got = base.then(f, g)
        assert got == h
        assert keys[got] is got
    assert list(base.then_table) == list(want)
    assert len(base.then_table) == len(want)


def generated_arrows(base: FinCategory) -> set:
    """The identities closed under composing a generator on the left."""
    reached = set(base.identity.values())
    frontier = list(reached)
    while frontier:
        g = frontier.pop()
        for s in base.generators:
            if base.dst(s) == base.src(g):
                h = base.then(s, g)
                if h not in reached:
                    reached.add(h)
                    frontier.append(h)
    return reached


@pytest.mark.parametrize("n", range(5))
def test_gamma_generators_reach_every_arrow(n):
    base = gamma_segal_category(n)
    assert set(base.generators) <= set(base.arrows)
    assert generated_arrows(base) == set(base.arrows)


def test_gamma_presheaves_at_size_five_compose_per_generator(monkeypatch):
    calls = 0
    compose = finitecat.gamma_compose_actions

    def counted(first, second):
        nonlocal calls
        calls += 1
        return compose(first, second)

    monkeypatch.setattr(finitecat, "gamma_compose_actions", counted)
    base = gamma_segal_category(5)
    assert len(base.arrows) == 15_035
    p = constant_gamma_presheaf({"a", "b"}, 5)
    assert all(check_segal_gamma(p, kappa, ell) is False
               for kappa in range(6) for ell in range(6 - kappa))
    assert 0 < calls <= len(base.arrows) * len(base.generators)


@st.composite
def gamma_presheaves(draw):
    n = draw(st.integers(1, 3))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return constant_gamma_presheaf({"a", "b"}, n)
    if kind == 1:
        return monoid_power_presheaf(range(2), lambda a, b: (a + b) % 2, 0, n)
    return monoid_power_presheaf(range(3), max, 0, n)


@given(gamma_presheaves(), st.data())
@settings(max_examples=60, deadline=None)
def test_gamma_generator_check_matches_the_all_pairs_reference(presheaf, data):
    # the reference walks the Gamma then-table, which lists every composable
    # pair and composes it through base.then
    base = presheaf.base
    identities = set(base.identity.values())
    f = data.draw(st.sampled_from(sorted(set(base.arrows) - identities, key=repr)))
    s, t = base.arrows[f]
    e = data.draw(st.sampled_from(sorted(presheaf.sets[t], key=repr)))
    image = data.draw(st.sampled_from(sorted(presheaf.sets[s], key=repr)))
    actions = dict(presheaf.actions)
    actions[f] = {**actions[f], e: image}
    want = reference_presheaf_error(base, presheaf.sets, actions)
    try:
        FinPresheaf(base, presheaf.sets, actions)
        rejected = False
    except ArgumentError:
        rejected = True
    assert rejected == (want is not None)


@pytest.mark.parametrize("n", range(3))
def test_gamma_base_reads_like_its_tabled_copy(n):
    base = gamma_segal_category(n)
    tabled = FinCategory(base.objects, base.arrows, base.identity,
                         reference_gamma_then_table(base))
    assert serialize_document(document_for(base)) == serialize_document(
        document_for(tabled))
    assert all(((f, g) in base.then_table) == ((f, g) in tabled.then_table)
               for f in base.arrows for g in base.arrows)
    if n:
        with pytest.raises(NotComposableError):
            base.then(base.identity[0], base.identity[n])
    FinFunctor(base, tabled, {x: x for x in base.objects},
               {f: f for f in base.arrows})
    FinFunctor(tabled, base, {x: x for x in base.objects},
               {f: f for f in base.arrows})
    assert nerve(base, 2).faces == nerve(tabled, 2).faces
    assert check_completeness_nerve(base) is check_completeness_nerve(tabled)
    assert preorder_diagnostics(base) == preorder_diagnostics(tabled)


def test_gamma_base_serves_the_category_readers():
    base = gamma_segal_category(2)
    assert len(nerve(base, 2).simplices[2]) == 233
    assert check_completeness_nerve(base) is False
    _, projection = elements_category(monoid_power_presheaf(range(2), max, 0, 2))
    assert is_discrete_fibration(projection) is True


def reference_monoid_actions(base: FinCategory, sets, add, zero) -> dict:
    """The restriction maps of monoid_power_presheaf, label by label, each
    over the tuples of its source in the order of ``sets``."""
    actions = {}
    for f, (a, b) in base.arrows.items():
        u = GammaMorphism(b, a, f[3])
        table = {}
        for y in sets[b]:
            out = []
            for j in range(1, a + 1):
                acc = zero
                for i in range(1, b + 1):
                    if u(i) == j:
                        acc = add(acc, y[i - 1])
                out.append(acc)
            table[y] = tuple(out)
        actions[f] = table
    return actions


def listed_actions(actions: dict) -> list:
    return [(f, list(act.items())) for f, act in actions.items()]


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("elems, add, zero", [
    (range(3), lambda a, b: (a + b) % 3, 0),
    (range(2), max, 0),
])
def test_monoid_powers_match_the_per_label_loop(n, elems, add, zero):
    # equal as lists: the same arrows, tuples and sums in the same order
    p = monoid_power_presheaf(elems, add, zero, n)
    want = reference_monoid_actions(p.base, p.sets, add, zero)
    assert listed_actions(p.actions) == listed_actions(want)


def first_nonzero(x, y):
    """A monoid on {0, 1, 2} that is not commutative: the first nonzero
    entry, so a sum shows the order in which it was added."""
    return x if x else y


@pytest.mark.parametrize("n", range(4))
def test_monoid_power_sums_add_in_position_order(n, monkeypatch):
    # the presheaf of a noncommutative monoid is not functorial, so the
    # actions are read before FinPresheaf would reject them
    monkeypatch.setattr(finitecat, "FinPresheaf", lambda base, sets, actions: (
        base, sets, actions))
    base, sets, actions = monoid_power_presheaf(range(3), first_nonzero, 0, n)
    want = reference_monoid_actions(base, sets, first_nonzero, 0)
    assert listed_actions(actions) == listed_actions(want)


@pytest.mark.parametrize("n", range(4))
def test_a_sum_outside_the_monoid_is_not_a_map(n):
    # 1 + 1 leaves {0, 1}: first at the merge <2> -> <1>
    if n < 2:
        monoid_power_presheaf(range(2), lambda a, b: a + b, 0, n)
        return
    with pytest.raises(ArgumentError) as caught:
        monoid_power_presheaf(range(2), lambda a, b: a + b, 0, n)
    assert str(caught.value) == "action of ('g', 1, 2, (1, 1)) is not a map F(2) -> F(1)"


@pytest.mark.parametrize("n, size, calls", [(4, 2, 626), (3, 3, 363), (2, 1, 5)])
def test_monoid_powers_sum_each_preimage_once_per_size(n, size, calls):
    # each size b has one column per subset of its positions, summed over
    # the |E|^b tuples: sum over b of |E|^b * b * 2^(b-1) additions
    count = 0

    def add(x, y):
        nonlocal count
        count += 1
        return (x + y) % size

    monoid_power_presheaf(range(size), add, 0, n)
    assert count == calls == sum(size ** b * b * 2 ** (b - 1) for b in range(1, n + 1))


@pytest.mark.parametrize("n", range(4))
def test_constant_gamma_presheaf_acts_trivially(n):
    c = constant_gamma_presheaf({"a", "b"}, n)
    assert c.actions == {f: {"a": "a", "b": "b"} for f in c.base.arrows}


def test_fat_basepoint_fails_label_splitting():
    p = constant_gamma_presheaf({"a", "b"}, 2)
    assert check_segal_gamma(p, 1, 1) is False


# ---------------------------------------------------------------------------
# degeneration checker on multi-direction presheaves
# ---------------------------------------------------------------------------

def test_constant_presheaf_is_degenerate_everywhere():
    p = constant_multisimplex_presheaf(2, {"x", "y"})
    for entries in itertools.product(range(3), repeat=2):
        assert check_globularity_presheaf(p, Multisimplex(entries)) is True


def test_representable_at_zero_one_fails_degeneration():
    p = representable_multisimplex_presheaf(Multisimplex((0, 1)))
    assert check_globularity_presheaf(p, Multisimplex((0, 1))) is False


def test_degeneration_depends_on_factor_order():
    n = nerve(chain_poset(1), 3)
    simplicial = sset_factor(n)
    discrete = discrete_factor({"s"})
    assert check_globularity_presheaf(
        external_product([simplicial, discrete]), Multisimplex((0, 1))
    ) is True
    assert check_globularity_presheaf(
        external_product([discrete, simplicial]), Multisimplex((0, 1))
    ) is False


def test_degeneration_direction_count_mismatch():
    p = constant_multisimplex_presheaf(2, {"x"})
    with pytest.raises(ValueError):
        check_globularity_presheaf(p, Multisimplex((1,)))
