"""Small categories and presheaves only the tests build: discrete, chain,
cospan, parallel-pair and disjoint-union categories with a preorder
diagnostic; constant and representable presheaves on multisimplices; the
discrete and the simplicial factors of an external product; the action
of a truncated simplicial set along any monotone map; documents that
nest too deeply to parse; and the composable pair with a tent pushed into
its outer sheets."""

import itertools
import json
from fractions import Fraction

from cutgrids.bordisms import catalog
from cutgrids.documents import document_for, serialize_document
from cutgrids.errors import ArgumentError
from cutgrids.finitecat import (Arrow, FinCategory, MultisimplexPresheaf, Obj,
                                OneDirectionPresheaf, TruncSSet, _images,
                                poset_category)
from cutgrids.grids import (ComponentCut2D, Cut2D, CutGrid, CutTuple,
                            MonoidalCutGrid, Sheet)
from cutgrids.plgeom import PLFunc
from cutgrids.shapes import (MonotoneMap, Multisimplex, MultisimplexOperator,
                             compose_operators)


def discrete_category(n: int) -> FinCategory:
    objs = tuple(range(n))
    arrows = {("id", x): (x, x) for x in objs}
    identity = {x: ("id", x) for x in objs}
    then_table = {((("id", x)), (("id", x))): ("id", x) for x in objs}
    return FinCategory(objs, arrows, identity, then_table)


def chain_poset(n: int) -> FinCategory:
    """The linear order 0 < 1 < ... < n."""
    return poset_category(range(n + 1), lambda x, y: x <= y)


def cospan_poset() -> FinCategory:
    """Three objects a -> c <- b with no lower bound of {a, b}."""
    rel = {("a", "a"), ("b", "b"), ("c", "c"), ("a", "c"), ("b", "c")}
    return poset_category(("a", "b", "c"), lambda x, y: (x, y) in rel)


def parallel_pair_category() -> FinCategory:
    objs = ("x", "y")
    arrows = {
        ("id", "x"): ("x", "x"),
        ("id", "y"): ("y", "y"),
        "f": ("x", "y"),
        "g": ("x", "y"),
    }
    identity = {"x": ("id", "x"), "y": ("id", "y")}
    then_table = {}
    for name, (s, t) in arrows.items():
        then_table[(("id", s), name)] = name
        then_table[(name, ("id", t))] = name
    then_table[(("id", "x"), ("id", "x"))] = ("id", "x")
    then_table[(("id", "y"), ("id", "y"))] = ("id", "y")
    return FinCategory(objs, arrows, identity, then_table)


def disjoint_union_category(c1: FinCategory, c2: FinCategory) -> FinCategory:
    objs = tuple((0, x) for x in c1.objects) + tuple((1, x) for x in c2.objects)
    arrows: dict[Arrow, tuple[Obj, Obj]] = {}
    for f, (s, t) in c1.arrows.items():
        arrows[(0, f)] = ((0, s), (0, t))
    for f, (s, t) in c2.arrows.items():
        arrows[(1, f)] = ((1, s), (1, t))
    identity = {(0, x): (0, c1.identity[x]) for x in c1.objects}
    identity.update({(1, x): (1, c2.identity[x]) for x in c2.objects})
    then_table: dict[tuple[Arrow, Arrow], Arrow] = {}
    for (f, g), h in c1.then_table.items():
        then_table[((0, f), (0, g))] = (0, h)
    for (f, g), h in c2.then_table.items():
        then_table[((1, f), (1, g))] = (1, h)
    return FinCategory(objs, arrows, identity, then_table)


def preorder_diagnostics(category: FinCategory) -> dict:
    """Hom-set sizes and cospan cones.

    ``is_preorder``: every hom-set has at most one element.
    ``has_cospan_cones``: every cospan a -> c <- b admits an object mapping to
    both legs, commuting over c.
    """
    is_preorder = all(
        len(category.hom(x, y)) <= 1
        for x in category.objects
        for y in category.objects
    )
    has_cones = True
    for f in category.arrows:
        for g in category.arrows:
            if category.dst(f) != category.dst(g):
                continue
            a, b = category.src(f), category.src(g)
            found = any(
                category.then(u, f) == category.then(v, g)
                for w in category.objects
                for u in category.hom(w, a)
                for v in category.hom(w, b)
            )
            if not found:
                has_cones = False
                break
        if not has_cones:
            break
    return {"is_preorder": is_preorder, "has_cospan_cones": has_cones}


def restrict(sset: TruncSSet, alpha: MonotoneMap, x):
    """The action of an arbitrary monotone map [a] -> [level-part]: X(alpha)
    applied to x in X_{alpha.target}."""
    return _images([x], *sset.restriction_maps(alpha))[0]


def constant_multisimplex_presheaf(d: int, value_set) -> MultisimplexPresheaf:
    vs = frozenset(value_set)
    return MultisimplexPresheaf(d, lambda m: vs, lambda op: {v: v for v in vs})


def representable_multisimplex_presheaf(c: Multisimplex) -> MultisimplexPresheaf:
    """X(m) = all operators m -> c, acting by precomposition."""

    def sets(m: Multisimplex) -> frozenset:
        if m.d != c.d:
            raise ArgumentError("direction count mismatch")
        per_direction = [
            [MonotoneMap(m[i], c[i], values) for values in
             itertools.combinations_with_replacement(range(c[i] + 1), m[i] + 1)]
            for i in range(c.d)]
        return frozenset(
            MultisimplexOperator(combo) for combo in itertools.product(*per_direction)
        )

    def action(op: MultisimplexOperator) -> dict:
        return {f: compose_operators(op, f) for f in sets(op.target)}

    return MultisimplexPresheaf(c.d, sets, action)


def discrete_factor(value_set) -> OneDirectionPresheaf:
    """The factor with one value set in every degree, acted on trivially."""
    vs = frozenset(value_set)
    return OneDirectionPresheaf(lambda k: vs, lambda alpha: {v: v for v in vs})


def sset_factor(sset: TruncSSet) -> OneDirectionPresheaf:
    """The factor a truncated simplicial set gives, with each monotone map
    factored once into faces and degeneracies."""
    def action(alpha: MonotoneMap) -> dict:
        xs = list(sset.simplices[alpha.target])
        return dict(zip(xs, _images(xs, *sset.restriction_maps(alpha))))

    return OneDirectionPresheaf(lambda k: sset.simplices[k], action)


def deeply_nested_documents() -> dict[str, str]:
    """Document texts past the recursion limit: a JSON array 200,000 deep,
    which the JSON reader cannot descend, and a finite-category document
    whose first object nests 900 deep, which the payload reader cannot."""
    obj = json.loads(serialize_document(document_for(chain_poset(1))))
    obj["payload"]["objects"][0] = "DEEP"
    return {
        "array": "[" * 200_000 + "]" * 200_000,
        "object": json.dumps(obj).replace('"DEEP"', "[" * 900 + "0" + "]" * 900),
    }


def perturbed_pair(tent_height=Fraction(1, 4), half_width=Fraction(1, 8)):
    """composable_pair_2d with a tent pushed into its outer y-sheets at
    x = 0: down into the lowest, up into the highest."""
    b = catalog("composable_pair_2d")
    tent = PLFunc.from_points(
        [(-half_width, 0), (Fraction(0), tent_height), (half_width, 0)])
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
