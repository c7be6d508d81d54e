"""Finite categories, set-valued presheaves, truncated simplicial sets, the
strict locality checkers (chain decomposition, completeness, degeneration),
and three families of example categories: preorders, cyclic groups and
chaotic groupoids.  The smaller categories and presheaves that only the tests
build live in ``tests/fixtures.py``.

Composition tables are stored in diagrammatic order: ``then_table[(f, g)]``
is the composite "f followed by g".  Validation enumerates, since every
carrier here is finite.  A category with an explicit table checks every
composable pair, and so does a presheaf on it.

A presheaf holds each restriction map as a row of positions: the elements
of each object sit in one fixed order, and the row of an arrow gives, for
each element of its target's set, the position of the image in its
source's set.  The checks compose such rows, the label-splitting check
counts pairs of positions, and the builders of label diagrams emit rows
directly, so no element dict is made for them.

The one exception is the base of label diagrams, ``gamma_segal_category``.
It composes on demand, and a presheaf on it is checked for functoriality on
generators: F(s;g) = F(s)∘F(g) for each elementary pointed map s and each
arrow g out of its target.  That is enough.  Every arrow is a composite
f = s1;…;sk of generators (an identity when k = 0), and by induction on k,
F(f;g) = F(s1)∘F(s2;…;sk;g) = F(s1)∘F(s2;…;sk)∘F(g) = F(f)∘F(g), because
composition of functions is associative.  The elementary maps are Segal's
generators of Γ, the category of finite pointed sets (G. Segal, "Categories
and cohomology theories", Topology 13, 1974).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import InitVar, dataclass
from functools import reduce
from typing import Callable, Hashable, Iterable, Mapping

from .errors import ArgumentError, NotComposableError
from .shapes import (
    MonotoneMap,
    Multisimplex,
    MultisimplexOperator,
    gamma_compose_actions,
    hat_multisimplex,
)

Arrow = Hashable
Obj = Hashable


# ---------------------------------------------------------------------------
# Finite categories and functors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinCategory:
    """A finite category given by explicit tables.

    ``arrows`` maps an arrow name to its (source, target) pair,
    ``identity`` picks the identity arrow of each object, and
    ``then_table[(f, g)]`` is the composite f-then-g for every composable
    pair.  Associativity and unitality are checked by enumeration.
    """

    objects: tuple[Obj, ...]
    arrows: Mapping[Arrow, tuple[Obj, Obj]]
    identity: Mapping[Obj, Arrow]
    then_table: Mapping[tuple[Arrow, Arrow], Arrow]

    def __post_init__(self) -> None:
        object.__setattr__(self, "arrows", dict(self.arrows))
        object.__setattr__(self, "identity", dict(self.identity))
        object.__setattr__(self, "then_table", dict(self.then_table))
        objs = set(self.objects)
        if len(self.objects) != len(objs):
            raise ArgumentError("duplicate objects")
        for name, (s, t) in self.arrows.items():
            if s not in objs or t not in objs:
                raise ArgumentError(f"arrow {name!r} has endpoints outside the category")
        for x in self.objects:
            i = self.identity.get(x)
            if i is None or self.arrows.get(i) != (x, x):
                raise ArgumentError(f"object {x!r} lacks a well-formed identity")
        for f, g in self.then_table:
            if f not in self.arrows or g not in self.arrows:
                raise ArgumentError(
                    f"composite defined for {f!r};{g!r}, which names no arrow")
        for f, (fs, ft) in self.arrows.items():
            for g, (gs, gt) in self.arrows.items():
                if ft == gs:
                    h = self.then_table.get((f, g))
                    if h is None:
                        raise ArgumentError(f"missing composite for {f!r};{g!r}")
                    if h not in self.arrows:
                        raise ArgumentError(
                            f"composite {h!r} of {f!r};{g!r} is not an arrow")
                    if self.arrows[h] != (fs, gt):
                        raise ArgumentError(f"composite {h!r} has wrong endpoints")
                elif (f, g) in self.then_table:
                    raise ArgumentError(f"composite defined for non-composable {f!r};{g!r}")
        for f, (fs, ft) in self.arrows.items():
            if self.then_table[(self.identity[fs], f)] != f:
                raise ArgumentError(f"left identity fails at {f!r}")
            if self.then_table[(f, self.identity[ft])] != f:
                raise ArgumentError(f"right identity fails at {f!r}")
        for f, (_, ft) in self.arrows.items():
            for g, (gs, gt) in self.arrows.items():
                if ft != gs:
                    continue
                for h, (hs, _) in self.arrows.items():
                    if gt != hs:
                        continue
                    if self.then_table[(self.then_table[(f, g)], h)] != self.then_table[
                        (f, self.then_table[(g, h)])
                    ]:
                        raise ArgumentError(f"associativity fails at {f!r};{g!r};{h!r}")

    def src(self, f: Arrow) -> Obj:
        return self.arrows[f][0]

    def dst(self, f: Arrow) -> Obj:
        return self.arrows[f][1]

    def then(self, f: Arrow, g: Arrow) -> Arrow:
        try:
            return self.then_table[(f, g)]
        except KeyError:
            raise NotComposableError(f"{f!r} does not compose with {g!r}") from None

    def functoriality_pairs(self) -> Iterable[tuple[tuple[Arrow, Arrow], Arrow]]:
        """The composable pairs, each with its composite, on which a
        presheaf's functoriality is checked: here every pair of the table."""
        return self.then_table.items()

    def hom(self, x: Obj, y: Obj) -> list[Arrow]:
        return [f for f, (s, t) in self.arrows.items() if s == x and t == y]

    def arrows_into(self, y: Obj) -> list[Arrow]:
        return [f for f, (_, t) in self.arrows.items() if t == y]

    def is_isomorphism(self, f: Arrow) -> bool:
        x, y = self.arrows[f]
        return any(
            self.then(f, g) == self.identity[x] and self.then(g, f) == self.identity[y]
            for g in self.hom(y, x)
        )


@dataclass(frozen=True)
class FinFunctor:
    source: FinCategory
    target: FinCategory
    on_objects: Mapping[Obj, Obj]
    on_arrows: Mapping[Arrow, Arrow]

    def __post_init__(self) -> None:
        object.__setattr__(self, "on_objects", dict(self.on_objects))
        object.__setattr__(self, "on_arrows", dict(self.on_arrows))
        for x in self.source.objects:
            if self.on_objects.get(x) not in set(self.target.objects):
                raise ArgumentError(f"object {x!r} has no valid image")
        for f, (s, t) in self.source.arrows.items():
            g = self.on_arrows.get(f)
            if g is None or self.target.arrows[g] != (
                self.on_objects[s],
                self.on_objects[t],
            ):
                raise ArgumentError(f"arrow {f!r} has no compatible image")
        for x in self.source.objects:
            if self.on_arrows[self.source.identity[x]] != self.target.identity[
                self.on_objects[x]
            ]:
                raise ArgumentError(f"identity of {x!r} not preserved")
        for (f, g), h in self.source.then_table.items():
            if self.target.then(self.on_arrows[f], self.on_arrows[g]) != self.on_arrows[h]:
                raise ArgumentError(f"composition not preserved at {f!r};{g!r}")


@dataclass(frozen=True)
class FinPresheaf:
    """A contravariant set-valued functor on a finite category.

    ``actions[f]`` for f: x -> y is the restriction map F(y) -> F(x), read
    as a mapping from element to element.  It is held as a row of
    positions: each object keeps its elements in one fixed order,
    ``tuple(sets[x])``, and the row of f lists, for each element of F(y) in
    that order, the position of its image in F(x).  ``actions`` and each
    ``actions[f]`` are read-only views of the rows, which compare, convert
    and print as the dicts they stand for.

    The constructor takes element dicts and turns each into its row; the
    label builders of this module pass rows straight in.  Either way the
    rows are checked once: each is a map F(y) -> F(x), identities act as
    identities, and functoriality holds on each pair the base supplies
    through ``functoriality_pairs``, by composing two rows.  A tabled base
    supplies every composable pair; the Γ base of ``gamma_segal_category``
    supplies its generators' pairs, which the module docstring shows is
    enough.
    """

    base: FinCategory
    sets: Mapping[Obj, frozenset]
    actions: Mapping[Arrow, Mapping]

    def __post_init__(self) -> None:
        self._hold_sets(self.sets)
        order, position = self._order, self._position
        rows = {}
        for f, (s, t) in self.base.arrows.items():
            act = self.actions.get(f)
            if act is None:
                continue
            # act is a map F(t) -> F(s) exactly when every element of F(t)
            # has an image in F(s) and act has no other key; None marks
            # one that is not
            at = position[s]
            try:
                row = [at[act[e]] for e in order[t]]
            except KeyError:
                row = None
            rows[f] = row if row is not None and len(act) == len(row) else None
        self._hold_rows(rows)

    @classmethod
    def _from_rows(cls, base: FinCategory, sets: Mapping[Obj, frozenset],
                   rows: Mapping[Arrow, list | None]) -> FinPresheaf:
        """The presheaf whose action along f: x -> y is ``rows[f]``, a list
        of positions into ``tuple(sets[x])``, one per element of
        ``tuple(sets[y])``, or None for an action that is not a map; rows
        holds the arrows in arrow order.  Checked as the constructor checks
        the rows it makes."""
        presheaf = object.__new__(cls)
        object.__setattr__(presheaf, "base", base)
        presheaf._hold_sets(sets)
        presheaf._hold_rows(rows)
        return presheaf

    def _hold_sets(self, sets: Mapping[Obj, frozenset]) -> None:
        """Freeze the sets, and fix each object's order and its elements'
        positions in it."""
        object.__setattr__(self, "sets", {x: frozenset(s) for x, s in sets.items()})
        for x in self.base.objects:
            if x not in self.sets:
                raise ArgumentError(f"no set assigned to object {x!r}")
        order = {x: tuple(self.sets[x]) for x in self.base.objects}
        position = {x: {e: i for i, e in enumerate(es)} for x, es in order.items()}
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_position", position)

    def _hold_rows(self, rows: Mapping[Arrow, list | None]) -> None:
        """Check the rows and keep them as the actions."""
        base, order = self.base, self._order
        for f, (s, t) in base.arrows.items():
            if f not in rows:
                raise ArgumentError(f"no action for arrow {f!r}")
            row = rows[f]
            if row is None or len(row) != len(order[t]) or row and not (
                    0 <= min(row) and max(row) < len(order[s])):
                raise ArgumentError(f"action of {f!r} is not a map F({t!r}) -> F({s!r})")
        for x in base.objects:
            if rows[base.identity[x]] != list(range(len(order[x]))):
                raise ArgumentError(f"identity action at {x!r} is not the identity")
        last = None
        for (f, g), h in base.functoriality_pairs():
            if f is not last:  # pairs come in runs of one f: one lookup per run
                last, at = f, rows[f].__getitem__
            if rows[h] != list(map(at, rows[g])):
                raise ArgumentError(f"contravariant functoriality fails at {f!r};{g!r}")
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "actions", _Actions(base.arrows, order, self._position, rows))

    def act(self, f: Arrow, element):
        s, t = self.base.arrows[f]
        return self._order[s][self._rows[f][self._position[t][element]]]


class _Actions(Mapping):
    """``FinPresheaf.actions``: each arrow's restriction map, in arrow order,
    as a view of its row."""

    __slots__ = ("_arrows", "_order", "_position", "_rows")

    def __init__(self, arrows, order, position, rows) -> None:
        self._arrows, self._order, self._position, self._rows = arrows, order, position, rows

    def __getitem__(self, f: Arrow) -> _Action:
        row = self._rows[f]
        s, t = self._arrows[f]
        return _Action(self._order[t], self._position[t], self._order[s], row)

    def __contains__(self, f) -> bool:
        return f in self._rows

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _Action(Mapping):
    """One restriction map F(t) -> F(s): the element at position i of F(t)
    goes to the element at position row[i] of F(s)."""

    __slots__ = ("_domain", "_position", "_codomain", "_row")

    def __init__(self, domain: tuple, position: dict, codomain: tuple, row: list) -> None:
        self._domain, self._position, self._codomain, self._row = (
            domain, position, codomain, row)

    def __getitem__(self, element):
        return self._codomain[self._row[self._position[element]]]

    def __contains__(self, element) -> bool:
        return element in self._position

    def __iter__(self):
        return iter(self._domain)

    def __len__(self) -> int:
        return len(self._row)

    def __repr__(self) -> str:
        return repr(dict(zip(self._domain, map(self._codomain.__getitem__, self._row))))


# ---------------------------------------------------------------------------
# Truncated simplicial sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruncSSet:
    """A simplicial set truncated at a finite level.

    ``faces[(k, i)]`` is d_i: X_k -> X_{k-1} and ``degeneracies[(k, i)]`` is
    s_i: X_k -> X_{k+1}; all simplicial identities that fit inside the
    truncation are enforced.  ``validate=False`` skips the map and identity
    checks, for a builder whose output passes them by construction; the
    flag is not part of the value, so it does not show in equality or repr.
    """

    level: int
    simplices: tuple[frozenset, ...]
    faces: Mapping[tuple[int, int], Mapping]
    degeneracies: Mapping[tuple[int, int], Mapping]
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        object.__setattr__(self, "simplices", tuple(frozenset(s) for s in self.simplices))
        object.__setattr__(self, "faces", {k: dict(v) for k, v in self.faces.items()})
        object.__setattr__(
            self, "degeneracies", {k: dict(v) for k, v in self.degeneracies.items()}
        )
        if len(self.simplices) != self.level + 1:
            raise ArgumentError("need one simplex set per degree 0..level")
        if not validate:
            return
        for k in range(1, self.level + 1):
            for i in range(k + 1):
                m = self.faces.get((k, i))
                if m is None or m.keys() != self.simplices[k] or not self.simplices[
                        k - 1].issuperset(m.values()):
                    raise ArgumentError(f"face ({k},{i}) is not a map X_{k} -> X_{k-1}")
        for k in range(self.level):
            for i in range(k + 1):
                m = self.degeneracies.get((k, i))
                if m is None or m.keys() != self.simplices[k] or not self.simplices[
                        k + 1].issuperset(m.values()):
                    raise ArgumentError(f"degeneracy ({k},{i}) is not a map X_{k} -> X_{k+1}")
        self._check_simplicial_identities()

    def _check_simplicial_identities(self) -> None:
        """Each identity, for each (k, j, i), compares its two sides as lists
        over X_k in one fixed order; the image of X_k under each face and
        each degeneracy is listed once and shared by the identities."""
        d, s, top = self.faces, self.degeneracies, self.level
        xs = [list(x) for x in self.simplices]
        dx = {(k, i): _images(xs[k], d[(k, i)])
              for k in range(1, top + 1) for i in range(k + 1)}
        sx = {(k, i): _images(xs[k], s[(k, i)])
              for k in range(top) for i in range(k + 1)}
        for k in range(2, top + 1):
            for j in range(k + 1):
                for i in range(j):
                    if _images(dx[(k, j)], d[(k - 1, i)]) != _images(
                            dx[(k, i)], d[(k - 1, j - 1)]):
                        raise ArgumentError(f"face identity fails at degree {k}")
        for k in range(top - 1):
            for j in range(k + 1):
                for i in range(j + 1):
                    if _images(sx[(k, i)], s[(k + 1, j + 1)]) != _images(
                            sx[(k, j)], s[(k + 1, i)]):
                        raise ArgumentError(f"degeneracy identity fails at degree {k}")
        for k in range(top):
            for j in range(k + 1):
                for i in range(k + 2):
                    if i == j or i == j + 1:
                        want = xs[k]
                    elif i < j:
                        want = _images(dx[(k, i)], s[(k - 1, j - 1)])
                    else:
                        want = _images(dx[(k, i - 1)], s[(k - 1, j)])
                    if _images(sx[(k, j)], d[(k + 1, i)]) != want:
                        raise ArgumentError(f"mixed identity fails at degree {k}")

    def face(self, k: int, i: int, x):
        return self.faces[(k, i)][x]

    def restriction_maps(self, alpha: MonotoneMap) -> list[Mapping]:
        """The face and degeneracy maps whose composite is X(alpha), for a
        monotone map alpha: [a] -> [level-part], in the order they apply to
        a simplex of X_{alpha.target}: through the epi-mono factorization,
        first a face deleting each vertex alpha misses, top-down, then a
        degeneracy repeating each vertex alpha hits twice, left to right.
        Factor alpha once here and apply the maps to as many simplices as
        needed."""
        image = set(alpha.values)
        maps = []
        deg = alpha.target
        for v in sorted(set(range(alpha.target + 1)) - image, reverse=True):
            maps.append(self.faces[(deg, v)])
            deg -= 1
        for j in range(alpha.source):
            if alpha.values[j] == alpha.values[j + 1]:
                maps.append(self.degeneracies[(deg, j)])
                deg += 1
        return maps

def _images(xs: list, *maps: Mapping) -> list:
    """The image of each element of xs under the maps, applied in turn."""
    for m in maps:
        xs = list(map(m.__getitem__, xs))
    return xs


def nerve(category: FinCategory, n: int) -> TruncSSet:
    """Chains of composable arrows: degree k holds the k-tuples
    (f_1, ..., f_k), faces drop an outer vertex or compose at an inner one,
    degeneracies insert identities.

    The result is built with ``validate=False``: degree k holds every
    composable k-chain, and dropping an end, composing a neighbouring pair
    or inserting an identity turns one into another, so each face and
    degeneracy is a map between the listed sets; the simplicial identities
    then say that composition is associative and unital, which holds in
    every FinCategory."""
    if n < 0:
        raise ArgumentError("truncation level must be nonnegative")
    simplices: list[frozenset] = [frozenset(category.objects)]
    if n >= 1:
        simplices.append(frozenset((f,) for f in category.arrows))
    out_of: dict[Obj, list[Arrow]] = {x: [] for x in category.objects}
    for g, (x, _) in category.arrows.items():
        out_of[x].append(g)
    for k in range(2, n + 1):
        # each chain grows by the arrows out of its end, in arrow order, so
        # the chains reach the set in the order a scan of all arrows met them
        simplices.append(frozenset({chain + (g,) for chain in simplices[k - 1]
                                    for g in out_of[category.dst(chain[-1])]}))

    faces: dict[tuple[int, int], dict] = {}
    for k in range(1, n + 1):
        for i in range(k + 1):
            table = {}
            for chain in simplices[k]:
                if i == 0:
                    table[chain] = chain[1:] if k > 1 else category.dst(chain[0])
                elif i == k:
                    table[chain] = chain[:-1] if k > 1 else category.src(chain[0])
                else:
                    table[chain] = (
                        chain[: i - 1]
                        + (category.then(chain[i - 1], chain[i]),)
                        + chain[i + 1 :]
                    )
            faces[(k, i)] = table
    degeneracies: dict[tuple[int, int], dict] = {}
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
    return TruncSSet(n, tuple(simplices), faces, degeneracies, validate=False)


def pi0(sset: TruncSSet) -> list[frozenset]:
    """Connected components of the vertex set, generated by the two outer
    faces of the edges."""
    if sset.level < 1:
        raise ArgumentError("need at least the edge level to form components")
    parent = {v: v for v in sset.simplices[0]}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in sset.simplices[1]:
        a, b = find(sset.faces[(1, 0)][e]), find(sset.faces[(1, 1)][e])
        if a != b:
            parent[a] = b
    groups: dict = {}
    for v in sset.simplices[0]:
        groups.setdefault(find(v), set()).add(v)
    return sorted((frozenset(g) for g in groups.values()), key=lambda g: sorted(map(repr, g)))


# ---------------------------------------------------------------------------
# Category of elements and discrete fibrations
# ---------------------------------------------------------------------------

def elements_category(presheaf: FinPresheaf) -> tuple[FinCategory, FinFunctor]:
    """Objects are pairs (c, x) with x in F(c); an arrow (c, x) -> (c', x')
    is a base arrow phi: c -> c' whose restriction sends x' back to x.
    Returns the category together with the projection functor."""
    base = presheaf.base
    objects = tuple((c, x) for c in base.objects for x in sorted(presheaf.sets[c], key=repr))
    arrows: dict[Arrow, tuple[Obj, Obj]] = {}
    for phi, (c, c2) in base.arrows.items():
        for x2 in presheaf.sets[c2]:
            arrows[(phi, x2)] = ((c, presheaf.act(phi, x2)), (c2, x2))
    identity = {(c, x): (base.identity[c], x) for (c, x) in objects}
    then_table: dict[tuple[Arrow, Arrow], Arrow] = {}
    for (phi, x2), (_, mid) in arrows.items():
        for (psi, x3), (mid2, _) in arrows.items():
            if mid2 == mid:
                then_table[((phi, x2), (psi, x3))] = (base.then(phi, psi), x3)
    cat = FinCategory(objects, arrows, identity, then_table)
    projection = FinFunctor(
        cat,
        base,
        {(c, x): c for (c, x) in objects},
        {(phi, x2): phi for (phi, x2) in arrows},
    )
    return cat, projection


def is_discrete_fibration(p: FinFunctor) -> bool:
    """True iff every arrow of the target landing on p(y) lifts uniquely to an
    arrow with codomain y."""
    for y in p.source.objects:
        py = p.on_objects[y]
        for g in p.target.arrows_into(py):
            lifts = [
                f
                for f in p.source.arrows_into(y)
                if p.on_arrows[f] == g
            ]
            if len(lifts) != 1:
                return False
    return True


# ---------------------------------------------------------------------------
# Strict locality checkers
# ---------------------------------------------------------------------------

def check_segal_delta(sset: TruncSSet, a: int, b: int) -> bool:
    """Strict chain decomposition: X_{a+b} -> X_a x_{X_0} X_b (initial-a and
    final-b restrictions, matching at the shared vertex) is a bijection.

    The map is checked injective and into the fibre product, and then onto
    it by counting: the fibre product has, for each v in X_b, as many pairs
    as there are u in X_a ending at v's first vertex.  Vertices are read for
    all of X_a and X_b at once, as restrictions along the vertex maps
    [0] -> [a] at a and [0] -> [b] at 0, and each test is one pass over the
    two lists of restrictions."""
    if a < 0 or b < 0:
        raise ArgumentError("chain lengths must be nonnegative")
    if a + b > sset.level:
        raise ArgumentError(f"level {sset.level} too low for a+b={a + b}")
    init = MonotoneMap(a, a + b, tuple(range(a + 1)))
    fin = MonotoneMap(b, a + b, tuple(range(a, a + b + 1)))
    xa, xb = list(sset.simplices[a]), list(sset.simplices[b])
    end = dict(zip(xa, _images(xa, *sset.restriction_maps(MonotoneMap(0, a, (a,))))))
    start = dict(zip(xb, _images(xb, *sset.restriction_maps(MonotoneMap(0, b, (0,))))))
    xs = list(sset.simplices[a + b])
    us = _images(xs, *sset.restriction_maps(init))
    vs = _images(xs, *sset.restriction_maps(fin))
    if not (end.keys() >= set(us) and start.keys() >= set(vs)):
        return False
    if len(set(zip(us, vs))) != len(xs) or list(map(end.__getitem__, us)) != list(
            map(start.__getitem__, vs)):
        return False
    ends = Counter(end.values())
    return len(xs) == sum(map(ends.__getitem__, start.values()))


def check_completeness_nerve(category: FinCategory) -> bool:
    """The strict completeness condition for nerves of finite categories:
    every isomorphism is an identity."""
    idents = set(category.identity.values())
    return all(
        f in idents or not category.is_isomorphism(f) for f in category.arrows
    )


# ---------------------------------------------------------------------------
# Pointed label-map diagrams and their Segal check
# ---------------------------------------------------------------------------

class _GammaBase(FinCategory):
    """The base built by ``gamma_segal_category``, composing on demand.

    ``out_of[a]`` names each arrow out of a by its action, so a composite is
    two actions composed and looked up there; ``generators`` are the
    elementary arrows that every arrow is a composite of.  The then-table is
    a read-only view of the composable pairs that composes each pair when it
    is read and stores none.
    """

    def __init__(self, objects, arrows, identity, out_of, generators) -> None:
        object.__setattr__(self, "out_of", out_of)
        object.__setattr__(self, "generators", generators)
        super().__init__(objects, arrows, identity, _ComposablePairs(self))

    def __post_init__(self) -> None:
        """Nothing to check: every arrow is built well-formed, and
        composition of functions is associative and unital."""

    def then(self, f: Arrow, g: Arrow) -> Arrow:
        if self.dst(f) != self.src(g):
            raise NotComposableError(f"{f!r} does not compose with {g!r}")
        # the label maps compose as <c> -> <b> -> <a>
        return self.out_of[f[1]][gamma_compose_actions(g[3], f[3])]

    def functoriality_pairs(self) -> Iterable[tuple[tuple[Arrow, Arrow], Arrow]]:
        """Each generator s with each arrow g out of its target, composed
        without then's composability test, which such a pair always passes."""
        for s in self.generators:
            out_of_source, action = self.out_of[s[1]], s[3]
            for g in self.out_of[s[2]].values():
                yield (s, g), out_of_source[gamma_compose_actions(g[3], action)]


class _ComposablePairs(Mapping):
    """The then-table of a ``_GammaBase``: every composable pair (f, g) in
    arrow order, composed when it is looked up."""

    def __init__(self, category: _GammaBase) -> None:
        self._category = category

    def __getitem__(self, pair: tuple[Arrow, Arrow]) -> Arrow:
        return self._category.then(*pair)

    def __iter__(self):
        c = self._category
        for f, (_, b) in c.arrows.items():
            for g in c.out_of[b].values():
                yield f, g

    def __len__(self) -> int:
        c = self._category
        return sum(len(c.out_of[b]) for _, b in c.arrows.values())

    def __eq__(self, other) -> bool:
        """Against another Gamma table by size, composing nothing."""
        if isinstance(other, _ComposablePairs):
            return self._category.objects == other._category.objects
        return super().__eq__(other)

    def __repr__(self) -> str:
        """Names the base by its size; composes nothing."""
        return f"<then-table of gamma_segal_category({self._category.objects[-1]})>"


def gamma_segal_category(n: int) -> FinCategory:
    """The base category for label diagrams up to size n: an arrow a -> b
    carries a basepointed function <b> -> <a>, so a contravariant presheaf on
    this base pushes labels forward along its restriction maps.

    Composites are computed when asked for, by composing the two actions and
    looking the result up among the arrows out of a (the action's length is
    the target), so each composite is the arrow key itself.  The then-table
    enumerates the composable pairs without storing them.

    The generators, as pointed maps, are the adjacent transpositions of <b>,
    sending the last label of <b> to the basepoint, merging the last two
    labels of <b>, and the inclusion <b> -> <b+1>.  Every pointed map
    <b> -> <a> factors through them without leaving sizes 0..n: drop the
    labels sent to the basepoint, merge labels with a common image, include
    the rest into <a> and permute, moving labels into place by
    transpositions at each step.
    """
    if n < 0:
        raise ArgumentError("label diagram size must be nonnegative")
    objects = tuple(range(n + 1))
    arrows: dict[Arrow, tuple[Obj, Obj]] = {}
    out_of: dict[Obj, dict[tuple[int, ...], Arrow]] = {a: {} for a in objects}
    for a in objects:
        for b in objects:
            # each action is a basepointed label map <b> -> <a> by build
            for action in itertools.product(range(a + 1), repeat=b):
                f = ("g", a, b, action)
                arrows[f] = (a, b)
                out_of[a][action] = f
    identity = {a: ("g", a, a, tuple(range(1, a + 1))) for a in objects}
    generators = []
    for b in objects:
        labels = tuple(range(1, b + 1))
        for i in range(b - 1):
            generators.append(("g", b, b, labels[:i] + (i + 2, i + 1) + labels[i + 2:]))
        if b >= 1:
            generators.append(("g", b - 1, b, labels[:-1] + (0,)))
        if b >= 2:
            generators.append(("g", b - 1, b, labels[:-1] + (b - 1,)))
        if b < n:
            generators.append(("g", b + 1, b, labels))
    return _GammaBase(objects, arrows, identity, out_of, tuple(generators))


def segal_projection_arrows(kappa: int, ell: int) -> tuple[Arrow, Arrow]:
    """The two arrows of gamma_segal_category realizing the splitting maps
    X<kappa+ell> -> X<kappa> and X<kappa+ell> -> X<ell>."""
    first = tuple(j if j <= kappa else 0 for j in range(1, kappa + ell + 1))
    second = tuple(0 if j <= kappa else j - kappa for j in range(1, kappa + ell + 1))
    return ("g", kappa, kappa + ell, first), ("g", ell, kappa + ell, second)


def check_segal_gamma(presheaf: FinPresheaf, kappa: int, ell: int) -> bool:
    """Strict label-splitting condition: X<kappa+ell> -> X<kappa> x X<ell> is
    a bijection and X<0> is a singleton.

    The map is read from the rows of the two splitting arrows: it is
    injective when no two elements share a pair of image positions, and
    then onto when there are as many elements as pairs."""
    if kappa < 0 or ell < 0:
        raise ArgumentError("label counts must be nonnegative")
    if kappa + ell not in presheaf.sets:
        raise ArgumentError(f"size {kappa + ell} outside the diagram")
    if len(presheaf.sets[0]) != 1:
        return False
    p1, p2 = segal_projection_arrows(kappa, ell)
    rows = presheaf._rows
    if p1 not in rows or p2 not in rows:
        raise ArgumentError("presheaf does not carry the splitting arrows")
    r1 = rows[p1]
    return len(set(zip(r1, rows[p2]))) == len(r1) == len(
        presheaf.sets[kappa]) * len(presheaf.sets[ell])


def monoid_power_presheaf(elements: Iterable, add: Callable, zero, n: int) -> FinPresheaf:
    """The label diagram X<k> = E^k of a commutative monoid (E, add, zero):
    a restriction map along a pointed function u sends a tuple to the tuple of
    sums over preimages.  Strictly splitting by construction.

    Sums are shared between arrows.  For each size b the tuples of E^b are
    listed once, and each preimage that occurs (the positions in <b> that
    some pointed function sends to one label, in increasing order) gets one
    column: for every listed tuple, the sum of its entries at those
    positions, ``reduce(add, ..., zero)`` in position order, as the
    label-by-label definition adds them.  An action zips the columns of its
    preimages into image tuples and looks up each one's position in E^a, so
    each sum is computed once per size, not once per arrow, and the
    presheaf is built from its rows.  A sum outside E leaves its action's
    row None, which the check reports as not a map."""
    elems = tuple(elements)
    base = gamma_segal_category(n)
    sets = {k: frozenset(itertools.product(elems, repeat=k)) for k in base.objects}
    listed = {k: tuple(s) for k, s in sets.items()}
    position = {k: {y: i for i, y in enumerate(ys)} for k, ys in listed.items()}
    columns: dict[int, dict[tuple[int, ...], list]] = {k: {} for k in base.objects}
    rows: dict[Arrow, list | None] = {}
    for f, (a, b) in base.arrows.items():
        ys, column = listed[b], columns[b]
        if a == 0:
            rows[f] = [0] * len(ys)
            continue
        preimages: list[list[int]] = [[] for _ in range(a + 1)]
        for i, image in enumerate(f[3]):
            preimages[image].append(i)
        picked = []
        for pre in map(tuple, preimages[1:]):
            if pre not in column:
                column[pre] = [reduce(add, map(y.__getitem__, pre), zero) for y in ys]
            picked.append(column[pre])
        try:
            rows[f] = list(map(position[a].__getitem__, zip(*picked)))
        except KeyError:
            rows[f] = None
    return FinPresheaf._from_rows(base, sets, rows)


def constant_gamma_presheaf(value_set: Iterable, n: int) -> FinPresheaf:
    """The label diagram with one value set at every size, every arrow
    acting as the identity: one identity row shared by all arrows."""
    base = gamma_segal_category(n)
    vs = frozenset(value_set)
    identity = list(range(len(vs)))
    return FinPresheaf._from_rows(base, dict.fromkeys(base.objects, vs),
                                  dict.fromkeys(base.arrows, identity))


# ---------------------------------------------------------------------------
# Multi-direction presheaves and the degeneration checker
# ---------------------------------------------------------------------------

class MultisimplexPresheaf:
    """A set-valued presheaf on multisimplices, given functionally: ``sets(m)``
    returns the value set and ``action(op)`` the restriction map X(target) ->
    X(source-composed)... i.e. for op: m -> n it returns a dict X(n) -> X(m).

    The degeneration checker only evaluates single canonical operators, so no
    global base category is materialized.
    """

    def __init__(self, d: int, sets: Callable[[Multisimplex], frozenset],
                 action: Callable[[MultisimplexOperator], Mapping]) -> None:
        self.d = d
        self._sets = sets
        self._action = action

    def sets(self, m: Multisimplex) -> frozenset:
        return frozenset(self._sets(m))

    def action(self, op: MultisimplexOperator) -> Mapping:
        return dict(self._action(op))


class OneDirectionPresheaf:
    """A simplicial-direction factor for external products: value sets per
    ordinal plus an action for arbitrary monotone maps."""

    def __init__(self, sets: Callable[[int], frozenset],
                 action: Callable[[MonotoneMap], Mapping]) -> None:
        self.sets = sets
        self.action = action


def external_product(factors: list[OneDirectionPresheaf]) -> MultisimplexPresheaf:
    d = len(factors)

    def sets(m: Multisimplex) -> frozenset:
        return frozenset(
            itertools.product(*(factors[i].sets(m[i]) for i in range(d)))
        )

    def action(op: MultisimplexOperator) -> dict:
        tables = [factors[i].action(op.components[i]) for i in range(d)]
        return {
            x: tuple(tables[i][x[i]] for i in range(d))
            for x in sets(op.target)
        }

    return MultisimplexPresheaf(d, sets, action)


def check_globularity_presheaf(presheaf: MultisimplexPresheaf, m: Multisimplex) -> bool:
    """True iff restriction along the canonical collapse operator m -> m-hat
    is a bijection X(m-hat) -> X(m)."""
    if m.d != presheaf.d:
        raise ArgumentError("direction count mismatch")
    hat, op = hat_multisimplex(m)
    table = presheaf.action(op)
    source_set = presheaf.sets(hat)
    target_set = presheaf.sets(m)
    if set(table.keys()) != set(source_set):
        raise ArgumentError("restriction table does not cover X(m-hat)")
    values = list(table.values())
    return len(set(values)) == len(values) == len(target_set) and set(values) == set(
        target_set
    )


# ---------------------------------------------------------------------------
# Example categories: preorders, cyclic groups and chaotic groupoids
# ---------------------------------------------------------------------------

def poset_category(elements: Iterable, leq: Callable) -> FinCategory:
    """The category of a preorder: one arrow x -> y whenever leq(x, y)."""
    objs = tuple(elements)
    arrows = {("le", x, y): (x, y) for x in objs for y in objs if leq(x, y)}
    for x in objs:
        if ("le", x, x) not in arrows:
            raise ArgumentError("relation must be reflexive")
    identity = {x: ("le", x, x) for x in objs}
    then_table = {}
    for (_, x, y) in list(arrows):
        for (_, y2, z) in list(arrows):
            if y == y2:
                if ("le", x, z) not in arrows:
                    raise ArgumentError("relation must be transitive")
                then_table[(("le", x, y), ("le", y2, z))] = ("le", x, z)
    return FinCategory(objs, arrows, identity, then_table)


def cyclic_group_category(k: int) -> FinCategory:
    """One object, arrows the integers mod k under addition."""
    objs = ("*",)
    arrows = {("z", r): ("*", "*") for r in range(k)}
    identity = {"*": ("z", 0)}
    then_table = {
        ((("z", a)), (("z", b))): ("z", (a + b) % k) for a in range(k) for b in range(k)
    }
    return FinCategory(objs, arrows, identity, then_table)


def chaotic_groupoid(n: int) -> FinCategory:
    """Exactly one arrow between every ordered pair of n objects."""
    objs = tuple(range(n))
    arrows = {("u", x, y): (x, y) for x in objs for y in objs}
    identity = {x: ("u", x, x) for x in objs}
    then_table = {
        ((("u", x, y)), (("u", y, z))): ("u", x, z)
        for x in objs
        for y in objs
        for z in objs
    }
    return FinCategory(objs, arrows, identity, then_table)
