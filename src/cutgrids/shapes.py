"""Combinatorics of the four indexing shapes: monotone maps of finite ordinals,
basepointed label maps, multisimplices, and level trees.

Everything in this module is immutable and purely combinatorial; no geometry.
Monotone maps are stored as full value tables (composition and equality are
then plain tuple operations), label maps are stored in the direction in which
they act on component labels, and level trees are stored as nested objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ArgumentError


class CompositionError(ArgumentError):
    """Endpoint mismatch when composing maps."""


# ---------------------------------------------------------------------------
# Monotone maps between finite ordinals [m] = {0, ..., m}
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotoneMap:
    """An order-preserving map [source] -> [target], stored as a value table.

    ``values[j]`` is the image of j; the table must be nondecreasing and
    land in {0, ..., target}.
    """

    source: int
    target: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.source < 0 or self.target < 0:
            raise ArgumentError("ordinal sizes must be nonnegative")
        if len(self.values) != self.source + 1:
            raise ArgumentError(
                f"value table has {len(self.values)} entries, expected {self.source + 1}"
            )
        for v in self.values:
            if not (0 <= v <= self.target):
                raise ArgumentError(f"value {v} outside [0, {self.target}]")
        for a, b in zip(self.values, self.values[1:]):
            if a > b:
                raise ArgumentError(f"values not nondecreasing: {self.values}")

    def __call__(self, j: int) -> int:
        return self.values[j]

    @classmethod
    def identity(cls, n: int) -> "MonotoneMap":
        return cls(n, n, tuple(range(n + 1)))

    @classmethod
    def constant(cls, source: int, target: int, value: int) -> "MonotoneMap":
        return cls(source, target, (value,) * (source + 1))

    @classmethod
    def face(cls, n: int, i: int) -> "MonotoneMap":
        """The injection [n-1] -> [n] skipping i (coface d^i)."""
        if not (0 <= i <= n):
            raise ArgumentError(f"face index {i} outside [0, {n}]")
        return cls(n - 1, n, tuple(j if j < i else j + 1 for j in range(n)))

    def is_identity(self) -> bool:
        return self.source == self.target and self.values == tuple(range(self.source + 1))


def compose_monotone(f: MonotoneMap, g: MonotoneMap) -> MonotoneMap:
    """The composite g∘f (apply f first)."""
    if f.target != g.source:
        raise CompositionError(
            f"cannot compose: f lands in [{f.target}] but g starts at [{g.source}]"
        )
    return MonotoneMap(f.source, g.target, tuple(g.values[v] for v in f.values))


# ---------------------------------------------------------------------------
# Basepointed label maps
# ---------------------------------------------------------------------------

BASEPOINT = 0  # labels are 1..n; 0 encodes the basepoint (trash bin)


@dataclass(frozen=True)
class GammaMorphism:
    """A basepoint-preserving map of pointed label sets <source> -> <target>.

    ``action[k-1]`` is the image of label k (1-based); 0 encodes the
    basepoint on both sides.  The basepoint itself is always fixed, so only
    the non-basepoint labels are tabulated.  The map is stored in the
    direction in which it acts on component labels.
    """

    source: int
    target: int
    action: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.source < 0 or self.target < 0:
            raise ArgumentError("label set sizes must be nonnegative")
        if len(self.action) != self.source:
            raise ArgumentError(
                f"action table has {len(self.action)} entries, expected {self.source}"
            )
        for v in self.action:
            if not (0 <= v <= self.target):
                raise ArgumentError(f"label image {v} outside [0, {self.target}]")

    def __call__(self, k: int) -> int:
        if k == BASEPOINT:
            return BASEPOINT
        if not (1 <= k <= self.source):
            raise ArgumentError(f"label {k} outside <{self.source}>")
        return self.action[k - 1]

    @classmethod
    def identity(cls, n: int) -> "GammaMorphism":
        return cls(n, n, tuple(range(1, n + 1)))


def gamma_compose(u: GammaMorphism, v: GammaMorphism) -> GammaMorphism:
    """The composite acting by x -> v(u(x))."""
    if u.target != v.source:
        raise CompositionError(
            f"cannot compose label maps: <{u.target}> vs <{v.source}>"
        )
    return GammaMorphism(u.source, v.target, gamma_compose_actions(u.action, v.action))


def gamma_compose_actions(first: tuple[int, ...], second: tuple[int, ...]) -> tuple[int, ...]:
    """The action table of x -> second(first(x)), read off a copy of second
    padded by the basepoint.  Each image in first must be a label of second's
    source or the basepoint; callers that have not validated this use
    ``gamma_compose``."""
    padded = (BASEPOINT,) + second
    return tuple([padded[x] for x in first])


# ---------------------------------------------------------------------------
# Multisimplices and operators between them
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Multisimplex:
    """A d-tuple of ordinal sizes ([m_1], ..., [m_d])."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        for m in self.entries:
            if m < 0:
                raise ArgumentError("multisimplex entries must be nonnegative")

    @property
    def d(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def replace(self, i: int, value: int) -> "Multisimplex":
        parts = list(self.entries)
        parts[i] = value
        return Multisimplex(tuple(parts))


@dataclass(frozen=True)
class MultisimplexOperator:
    """A morphism of multisimplices: one monotone map per direction."""

    components: tuple[MonotoneMap, ...]

    @property
    def source(self) -> Multisimplex:
        return Multisimplex(tuple(c.source for c in self.components))

    @property
    def target(self) -> Multisimplex:
        return Multisimplex(tuple(c.target for c in self.components))

    @classmethod
    def identity(cls, m: Multisimplex) -> "MultisimplexOperator":
        return cls(tuple(MonotoneMap.identity(k) for k in m.entries))

    def is_identity(self) -> bool:
        return all(c.is_identity() for c in self.components)


def compose_operators(f: MultisimplexOperator, g: MultisimplexOperator) -> MultisimplexOperator:
    """Componentwise composite g∘f."""
    if len(f.components) != len(g.components):
        raise CompositionError("operators live over different direction counts")
    return MultisimplexOperator(
        tuple(compose_monotone(a, b) for a, b in zip(f.components, g.components))
    )


def hat_multisimplex(m: Multisimplex) -> tuple[Multisimplex, MultisimplexOperator]:
    """Collapse every entry that follows a zero entry.

    Returns the collapsed multisimplex together with the canonical operator
    m -> m-hat, whose components are identities on untouched entries and
    terminal maps [m_j] -> [0] on collapsed ones.
    """
    hat_entries = []
    seen_zero = False
    for entry in m.entries:
        hat_entries.append(0 if seen_zero else entry)
        if entry == 0:
            seen_zero = True
    hat = Multisimplex(tuple(hat_entries))
    comps = []
    for orig, new in zip(m.entries, hat.entries):
        if new == orig:
            comps.append(MonotoneMap.identity(orig))
        else:
            comps.append(MonotoneMap.constant(orig, 0, 0))
    return hat, MultisimplexOperator(tuple(comps))


def vertex_operator(m: Multisimplex, i: int, j: int) -> MultisimplexOperator:
    """The operator selecting vertex j in direction i (1-based direction).

    Its i-th component is the constant map [0] -> [m_i] at j; all other
    components are identities.  Source is m with the i-th entry zeroed.
    """
    if not (1 <= i <= m.d):
        raise ArgumentError(f"direction {i} outside 1..{m.d}")
    if not (0 <= j <= m[i - 1]):
        raise ArgumentError(f"vertex {j} outside [0, {m[i - 1]}]")
    comps = []
    for k, mk in enumerate(m.entries):
        if k == i - 1:
            comps.append(MonotoneMap.constant(0, mk, j))
        else:
            comps.append(MonotoneMap.identity(mk))
    return MultisimplexOperator(tuple(comps))


# ---------------------------------------------------------------------------
# Level trees (the cell shapes of the d-fold wreath construction)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThetaObject:
    """A level tree: at level d, an ordinal [m] with a level-(d-1) tree over
    each of its m edges.  Level 0 is the trivial tree."""

    level: int
    children: tuple["ThetaObject", ...] = ()

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ArgumentError("level must be nonnegative")
        if self.level == 0:
            if self.children:
                raise ArgumentError("a level-0 tree has no children")
        for c in self.children:
            if c.level != self.level - 1:
                raise ArgumentError(
                    f"child level {c.level} under a level-{self.level} tree"
                )

    @property
    def root(self) -> int:
        return len(self.children)

    @classmethod
    def point(cls) -> "ThetaObject":
        return cls(0, ())


def theta_of_multisimplex(m: Multisimplex) -> ThetaObject:
    """The level tree of a multisimplex: [m_1] with the tree of
    ([m_2], ..., [m_d]) repeated m_1 times over its edges."""
    if m.d == 0:
        return ThetaObject.point()
    rest = theta_of_multisimplex(Multisimplex(m.entries[1:]))
    return ThetaObject(m.d, (rest,) * m.entries[0])


@dataclass(frozen=True)
class ThetaMorphism:
    """A morphism of level trees: a monotone map delta between the roots plus
    one block morphism c_i -> d_j of the next level down for every pair
    (i, j) with delta(i-1) < j <= delta(i).

    Blocks are stored as a sorted tuple of ((i, j), morphism) pairs so that
    equality and hashing are structural.
    """

    source_obj: ThetaObject
    target_obj: ThetaObject
    delta: MonotoneMap
    blocks: tuple[tuple[tuple[int, int], "ThetaMorphism"], ...] = ()

    def __post_init__(self) -> None:
        src, tgt = self.source_obj, self.target_obj
        if src.level != tgt.level:
            raise ArgumentError("source and target trees have different levels")
        if self.delta.source != src.root or self.delta.target != tgt.root:
            raise ArgumentError("delta endpoints do not match the tree roots")
        object.__setattr__(self, "blocks", tuple(sorted(self.blocks)))
        expected = set()
        for i in range(1, src.root + 1):
            for j in range(self.delta(i - 1) + 1, self.delta(i) + 1):
                expected.add((i, j))
        got = {key for key, _ in self.blocks}
        if got != expected:
            raise ArgumentError(
                f"block index set {sorted(got)} differs from required {sorted(expected)}"
            )
        for (i, j), blk in self.blocks:
            if blk.source_obj != src.children[i - 1]:
                raise ArgumentError(f"block ({i},{j}) has the wrong source tree")
            if blk.target_obj != tgt.children[j - 1]:
                raise ArgumentError(f"block ({i},{j}) has the wrong target tree")

    def block(self, i: int, j: int) -> "ThetaMorphism":
        for key, blk in self.blocks:
            if key == (i, j):
                return blk
        raise ArgumentError(f"no block ({i}, {j})")

    @classmethod
    def identity(cls, c: ThetaObject) -> "ThetaMorphism":
        if c.level == 0:
            return cls(c, c, MonotoneMap.identity(0), ())
        blocks = tuple(
            (((i, i), cls.identity(c.children[i - 1]))) for i in range(1, c.root + 1)
        )
        return cls(c, c, MonotoneMap.identity(c.root), blocks)

    def is_identity(self) -> bool:
        return (
            self.source_obj == self.target_obj
            and self.delta.is_identity()
            and all(blk.is_identity() for _, blk in self.blocks)
        )


def theta_compose(f: ThetaMorphism, g: ThetaMorphism) -> ThetaMorphism:
    """Composite level-tree morphism: delta composes pointwise and the block
    over (i, k) is g's block out of the unique intermediate index j composed
    with f's block into it."""
    if f.target_obj != g.source_obj:
        raise CompositionError("tree morphisms do not share a middle object")
    delta = compose_monotone(f.delta, g.delta)
    blocks = []
    for i in range(1, f.source_obj.root + 1):
        for k in range(delta(i - 1) + 1, delta(i) + 1):
            # unique j with g.delta(j-1) < k <= g.delta(j); monotonicity of
            # g.delta places it in (f.delta(i-1), f.delta(i)]
            j = next(
                jj
                for jj in range(f.delta(i - 1) + 1, f.delta(i) + 1)
                if g.delta(jj - 1) < k <= g.delta(jj)
            )
            blocks.append(((i, k), theta_compose(f.block(i, j), g.block(j, k))))
    return ThetaMorphism(f.source_obj, g.target_obj, delta, tuple(blocks))
