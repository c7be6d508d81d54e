"""Seeded workloads: their inputs, operations and known answers.

A workload is a list of fixed operations, run once at the start of a run,
followed by rounds, run until the time is up.  Round ``r`` is built from
``(seed, r)`` alone, so two runs on one seed perform the same operations in
the same order whatever their length.  A block of rounds holds every
operation kind of its workload over a fixed set of sizes; the seed picks
placements and parameters that change the cost little, so the work in a
block varies little between seeds.

Three module-level caches in the package
(``grids._compactness_failures_cached``,
``grids._globularity_failures_cached``, ``plgeom._crossings_cached``) key on
value equality.  Every operation therefore gets inputs of its own: each
bordism is translated by an offset unique to it within the run, so no two
inputs of a run are equal as values, and derived objects (shrunk bordisms,
composites, parsed documents, presheaves, nerves) are built inside the timed
operation that uses them.  ``Op.inputs`` lists the raw inputs so the smoke
check can confirm this.

Each workload builds its first ``PREPARED_ROUNDS`` rounds during set-up, and
the run reads its peak memory once they have run, so that figure does not
depend on how many rounds fit into the time.  A run stops only after a whole
``BLOCK`` of rounds, the unit over which a workload's mix of work repeats.

Workloads and why they were chosen:

* ``planar`` -- 2D embedded bordisms.  Nearly all time goes to 2D region
  refinement in ``plgeom`` and to globularity and compactness in ``grids``.
* ``linear`` -- the same bordism, grid, document, render and cli layers over
  1D ``plgeom`` only, with a sweep over the number of cuts m and a larger
  share of document and cli operations.  A change to the 2D engine should
  leave it unchanged.
* ``segal`` -- only ``finitecat`` and ``shapes``; it touches no ``plgeom`` or
  ``grids`` code.  Exactly one Gamma build at n = 4 per run marks the growth
  point.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction as F
from pathlib import Path
from typing import Any, Callable, Optional

from cutgrids import bordisms as B
from cutgrids import cli as CLI
from cutgrids import documents as D
from cutgrids import finitecat as FC
from cutgrids import render as R
from cutgrids.grids import (
    AffineMap, ComponentCut1D, ComponentCut2D, Cut1D, Cut2D, CutGrid,
    CutTuple, MonoidalCutGrid, Sheet)
from cutgrids.plgeom import INF, NEG_INF, Ambient1D, Ambient2D, PLFunc

# Package functions are looked up through their modules at call time, so a
# tracer installed after this import sees every call.


@dataclass
class Op:
    """One timed call: ``run`` is timed, ``expect`` checks its result
    against the known answer, ``text`` gives the document or SVG whose
    digest the run records."""

    kind: str
    size: str
    run: Callable[[], Any]
    expect: Callable[[Any], bool]
    text: Optional[Callable[[Any], str]] = None
    inputs: tuple = ()


class Cell:
    """Hands the result of one operation to the next one, which takes it,
    so the run holds no derived object longer than a user would."""

    value: Any = None

    def put(self, value):
        self.value = value
        return value

    def take(self):
        value, self.value = self.value, None
        return value


def passes(report) -> bool:
    return report.passed


def is_true(value) -> bool:
    return value is True


def is_false(value) -> bool:
    return value is False


def all_true(values) -> bool:
    return bool(values) and all(v is True for v in values)


def all_false(values) -> bool:
    return bool(values) and all(v is False for v in values)


def is_svg(text) -> bool:
    return text.startswith("<svg") and text.rstrip().endswith("</svg>")


def same_text(pair) -> bool:
    return pair[0] == pair[1]


def exit_code(code: int) -> Callable[[Any], bool]:
    return lambda result: result[0] == code


def svg_exit(result) -> bool:
    return result[0] == 0 and is_svg(result[1])


# ---------------------------------------------------------------------------
# input construction
# ---------------------------------------------------------------------------


def shift_2d(b, dx: F, dy: F):
    """Translate a planar bordism with sheet cuts by (dx, dy)."""

    def sheet(s: Sheet, axis: int) -> Sheet:
        # axis-1 sheets are graphs x = g(y), axis-2 sheets graphs y = g(x)
        along, across = (dy, dx) if axis == 1 else (dx, dy)
        return Sheet(s.graph.compose_affine(1, -along).add_constant(across),
                     s.sign)

    def cut(c: Cut2D) -> Cut2D:
        return Cut2D(c.axis, tuple(
            ComponentCut2D(comp.kind, tuple(sheet(s, c.axis)
                                            for s in comp.sheets),
                           comp.whole_sign)
            for comp in c.components))

    def end(v, d):
        return v if v in (INF, NEG_INF) else v + d

    boxes = tuple((end(x0, dx), end(x1, dx), end(y0, dy), end(y1, dy))
                  for x0, x1, y0, y1 in b.ambient.boxes)
    grid = CutGrid(tuple(CutTuple(tuple(cut(c) for c in t.cuts))
                         for t in b.mgrid.grid.tuples))
    return replace(b, ambient=Ambient2D(boxes),
                   mgrid=replace(b.mgrid, grid=grid))


def shift_1d(b, dx: F):
    """Translate a bordism on line intervals by dx."""

    def end(v):
        return v if v in (INF, NEG_INF) else v + dx

    def comp(c: ComponentCut1D) -> ComponentCut1D:
        return ComponentCut1D(c.kind, tuple((p + dx, s) for p, s in c.zeros),
                              c.whole_sign)

    grid = CutGrid(tuple(
        CutTuple(tuple(Cut1D(tuple(comp(c) for c in cut.components))
                       for cut in t.cuts))
        for t in b.mgrid.grid.tuples))
    ambient = Ambient1D(tuple((end(lo), end(hi))
                              for lo, hi in b.ambient.intervals))
    return replace(b, ambient=ambient, mgrid=replace(b.mgrid, grid=grid))


def embedded(ambient, tuples, labels=(1,), ell=1, uple=False):
    mgrid = MonoidalCutGrid(CutGrid(tuple(tuples)), ell, tuple(labels))
    dim = ambient.dim
    return B.Bordism(ambient, mgrid, B.embedded_field(dim),
                     AffineMap.identity(dim), uple)


def pair_2d(width: F, dx: F):
    return shift_2d(B.catalog("composable_pair_2d", width), dx, F(0))


def pair_on_box(width: F, dx: F):
    """The composable pair on a finite box around its core: equivalent to
    ``pair_2d(width, dx)`` without being built by ``shrink_to_core``."""
    b = B.catalog("composable_pair_2d", width)
    b = replace(b, ambient=Ambient2D(((-3, 3, -3, 3),)))
    return shift_2d(b, dx, F(0))


def wobbled_pair(height: F, half_width: F, dx: F, uple: bool):
    """The composable pair with a tent pushed into its outer y-sheets at
    x = 0, which breaks globularity there (uple mode skips that check)."""
    base = B.catalog("composable_pair_2d")
    tent = PLFunc.from_points(
        [(-half_width, 0), (0, height), (half_width, 0)], 0, 0)
    low, mid, high = base.mgrid.grid.tuples[1].cuts

    def resheet(c: Cut2D, graph: PLFunc) -> Cut2D:
        sign = c.components[0].sheets[0].sign
        return Cut2D(c.axis,
                     (ComponentCut2D("sheets", (Sheet(graph, sign),)),))

    wobbled = CutTuple((
        resheet(low, low.components[0].sheets[0].graph.sub(tent)),
        mid,
        resheet(high, high.components[0].sheets[0].graph.add(tent))))
    b = embedded(base.ambient, (base.mgrid.grid.tuples[0], wobbled),
                 uple=uple)
    return shift_2d(b, dx, F(0))


def wall_plane(walls, height: F, dx: F):
    """Vertical walls x = w_j in direction 1 and one horizontal sheet in
    direction 2: its core is a segment, so it is compact and globular."""
    d1 = CutTuple(tuple(
        Cut2D(1, (ComponentCut2D(
            "sheets", (Sheet(PLFunc.constant(w), "+"),)),))
        for w in walls))
    d2 = CutTuple((Cut2D(2, (ComponentCut2D(
        "sheets", (Sheet(PLFunc.constant(height), "+"),)),)),))
    return shift_2d(embedded(B.FULL_PLANE, (d1, d2)), dx, F(0))


def point_2d(dx: F, dy: F, box: bool = False):
    b = B.catalog("point2d")
    if box:
        b = replace(b, ambient=Ambient2D(((-1, 1, -1, 1),)))
    return shift_2d(b, dx, dy)


def line_grid(positions, windows, labels):
    """Nested single-zero cuts: cut j has one positive zero at
    positions[c][j] on window c."""
    m = len(positions[0]) - 1
    cuts = tuple(
        Cut1D(tuple(ComponentCut1D("zeros", ((positions[c][j], "+"),))
                    for c in range(len(windows))))
        for j in range(m + 1))
    return embedded(Ambient1D(tuple(windows)), (CutTuple(cuts),),
                    labels=labels, ell=max(labels))


def circle_trace(length: F, a: F, b: F, c: F, d: F):
    """Like the catalog circle trace, with zeros a < b < c < d on the circle:
    a cup, a cap and the two whole cuts around them."""
    cuts = (
        Cut1D((ComponentCut1D("whole", (), "above"),)),
        Cut1D((ComponentCut1D("zeros", ((a, "+"), (d, "-"))),)),
        Cut1D((ComponentCut1D("zeros", ((b, "+"), (c, "-"))),)),
        Cut1D((ComponentCut1D("whole", (), "below"),)))
    return embedded(Ambient1D((), (length,)), (CutTuple(cuts),))


def shift_family(fam, dx: F):
    """Translate a family on the full line by dx at every parameter."""

    def comp(fc):
        return B.FamComponentCut1D(
            fc.kind, tuple((z.add_constant(dx), s) for z, s in fc.zeros),
            fc.whole_sign)

    tuples = tuple(tuple(B.FamCut1D(tuple(comp(fc) for fc in fcut.components))
                         for fcut in tup)
                   for tup in fam.tuples)
    return replace(fam, tuples=tuples)


def segal_arrow_count(n: int) -> int:
    """Arrows of gamma_segal_category(n): pointed maps <b> -> <a>."""
    return sum((a + 1) ** b for a in range(n + 1) for b in range(n + 1))


# ---------------------------------------------------------------------------
# operations shared by the bordism workloads
# ---------------------------------------------------------------------------


class BordismWorkload:
    """Writes the documents the cli operations read and builds the ops."""

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        workdir.mkdir(parents=True, exist_ok=True)
        self._files = 0

    def rng(self, r) -> random.Random:
        return random.Random(f"{type(self).__name__}:{self.seed}:{r}")

    def write(self, payload) -> str:
        self._files += 1
        path = self.workdir / f"doc{self._files}.json"
        path.write_text(D.serialize_document(D.document_for(payload)),
                        encoding="utf-8")
        return str(path)

    @staticmethod
    def cli(argv) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = CLI.main(argv)
        return code, out.getvalue()

    def cli_validate(self, size: str, b, code: int = 0) -> Op:
        path = self.write(b)
        return Op("cli", size, lambda: self.cli(["validate", path]),
                  exit_code(code), inputs=(b,))

    def cli_render(self, size: str, b) -> Op:
        path = self.write(b)
        return Op("cli", size, lambda: self.cli(["render", path]), svg_exit,
                  text=lambda r: r[1], inputs=(b,))

    def cli_classify(self, size: str, b1, b2, answer: bool) -> Op:
        path1, path2 = self.write(b1), self.write(b2)
        return Op("cli", size, lambda: self.cli(["classify", path1, path2]),
                  exit_code(0 if answer else 1), inputs=(b1, b2))

    @staticmethod
    def validate(size, b) -> Op:
        return Op("validate", size, lambda: B.validate(b), passes, inputs=(b,))

    @staticmethod
    def classify_shrunk(size, b, eps) -> Op:
        return Op("classify", size,
                  lambda: B.equivalent(b, B.shrink_to_core(b, eps)),
                  is_true, inputs=(b,))

    @staticmethod
    def classify(size, b1, b2, answer: bool) -> Op:
        return Op("classify", size, lambda: B.equivalent(b1, b2),
                  is_true if answer else is_false, inputs=(b1, b2))

    @staticmethod
    def shrink(size, b, eps) -> Op:
        def bounded(s) -> bool:
            return s.shape == b.shape and _bounded_ambient(s.ambient)
        return Op("shrink", size, lambda: B.shrink_to_core(b, eps), bounded,
                  inputs=(b,))

    @staticmethod
    def render(size, b) -> Op:
        return Op("render", size, lambda: R.render_svg(b), is_svg,
                  text=lambda s: s, inputs=(b,))

    @staticmethod
    def document(size, payload) -> Op:
        def round_trip():
            text = D.serialize_document(D.document_for(payload))
            again = D.serialize_document(D.parse_document(text, check=True))
            return text, again
        return Op("document", size, round_trip, same_text,
                  text=lambda r: r[0], inputs=(payload,))

    def compose_then_validate(self, size, b, direction, k) -> list[Op]:
        """Inner face k in one direction; the composite is validated by
        the next op."""
        cell = Cell()
        m = b.mgrid.grid.tuples[direction - 1].m

        def shorter(c) -> bool:
            return c.mgrid.grid.tuples[direction - 1].m == m - 1
        return [
            Op("compose", size,
               lambda: cell.put(B.face_compose(b, direction, k)), shorter,
               inputs=(b,)),
            Op("validate", size, lambda: B.validate(cell.take()), passes),
        ]

    @staticmethod
    def boundary(size, b, direction, j) -> Op:
        def vertex(c) -> bool:
            return c.mgrid.grid.tuples[direction - 1].m == 0
        return Op("compose", size, lambda: B.source_target(b, direction, j),
                  vertex, inputs=(b,))


def _bounded_ambient(ambient) -> bool:
    if isinstance(ambient, Ambient2D):
        return all(v not in (INF, NEG_INF) for box in ambient.boxes
                   for v in box)
    return all(v not in (INF, NEG_INF) for iv in ambient.intervals
               for v in iv)


# ---------------------------------------------------------------------------
# planar
# ---------------------------------------------------------------------------


class Planar(BordismWorkload):
    """A round is one operation on a composable pair and six cheap
    operations; every fifth round adds a wobbled pair in uple mode.  Ten
    rounds make a block in which every pair operation occurs once, and
    across three blocks each pair operation meets each width once.  The
    order is fixed and the seed only rotates which width comes first, and
    a run stops only at the end of a block, so every run does the same mix
    of work whatever the seed and the speed of the machine."""

    WIDTHS = (F(3, 16), F(7, 16), F(12, 16))
    PAIR_OPS = ("validate", "classify", "classify_other", "shrink", "compose",
                "render", "cli_validate", "cli_render", "cli_classify",
                "cli_classify_other")
    CHEAP_OPS = ("point_validate", "point_classify", "point_classify_other",
                 "point_render", "point_document", "walls_validate",
                 "walls_render", "walls_shrink", "walls_classify",
                 "walls_document", "walls_boundary", "walls_compose")
    CHEAP_PER_ROUND = 6
    UPLE_EVERY = 5
    BLOCK = len(PAIR_OPS)
    # (tent height, tent half-width): both take about the same time to
    # fail strict validation; larger tents take 10-50 times longer.
    TENTS = ((F(1, 2), F(1, 4)), (F(1, 4), F(1, 4)))
    EPS = F(1, 4)
    PREPARED_ROUNDS = 20

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        super().__init__(seed, workdir, smoke)
        self.band_shift = self.rng("widths").randrange(len(self.WIDTHS))

    def fixed(self) -> list[Op]:
        rng = self.rng("fixed")
        height, half = rng.choice(self.TENTS)
        strict = wobbled_pair(height, half, F(-16), uple=False)

        def only_globular(report) -> bool:
            return [e.name for e in report.failures()] == ["globular"]
        ops = [Op("validate", "wobbled", lambda: B.validate(strict),
                  only_globular, inputs=(strict,))]
        if not self.smoke:
            other = wobbled_pair(height, half, F(-32), uple=False)
            ops.append(self.cli_validate("wobbled", other, code=1))
        return ops

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        base = F(1024 * (r + 1))        # every input gets its own offset
        step = itertools.count(1)

        def dx() -> F:
            return base + next(step) * 8 + rng.randrange(8)

        block, pos = divmod(r, len(self.PAIR_OPS))
        band = (block + pos + self.band_shift) % len(self.WIDTHS)
        ops = self.pair_op(self.PAIR_OPS[pos], band, dx)
        if self.smoke:   # one round that meets every operation
            for other in self.PAIR_OPS[:pos] + self.PAIR_OPS[pos + 1:]:
                ops.extend(self.pair_op(other, band, dx))
            cheap = range(len(self.CHEAP_OPS))
        else:
            cheap = range(r * self.CHEAP_PER_ROUND,
                          (r + 1) * self.CHEAP_PER_ROUND)
        for q in cheap:
            ops.extend(self.cheap_op(q, dx, rng))
        if self.smoke or r % self.UPLE_EVERY == self.UPLE_EVERY - 1:
            height, half = rng.choice(self.TENTS)
            ops.append(self.validate(
                "wobbled", wobbled_pair(height, half, dx(), uple=True)))
        return ops

    def pair_op(self, which: str, band: int, dx) -> list[Op]:
        w = self.WIDTHS[band]
        size = f"w={w}"
        eps = self.EPS
        if which == "validate":
            return [self.validate(size, pair_2d(w, dx()))]
        if which == "classify":
            return [self.classify_shrunk(size, pair_2d(w, dx()), eps)]
        if which == "shrink":
            return [self.shrink(size, pair_2d(w, dx()), eps)]
        if which == "compose":
            return self.compose_then_validate(size, pair_2d(w, dx()), 2, 1)
        if which == "render":
            return [self.render(size, pair_2d(w, dx()))]
        if which == "cli_validate":
            return [self.cli_validate(size, pair_2d(w, dx()))]
        if which == "cli_render":
            return [self.cli_render(size, pair_2d(w, dx()))]
        shift = dx()
        other = self.WIDTHS[(band + 1) % len(self.WIDTHS)]
        if which == "classify_other":
            return [self.classify(size, pair_2d(w, shift),
                                  pair_2d(other, shift), False)]
        if which == "cli_classify":
            return [self.cli_classify(size, pair_2d(w, shift),
                                      pair_on_box(w, shift), True)]
        assert which == "cli_classify_other"
        return [self.cli_classify(size, pair_2d(w, shift),
                                  pair_2d(other, shift), False)]

    def cheap_op(self, q: int, dx, rng) -> list[Op]:
        which = self.CHEAP_OPS[q % len(self.CHEAP_OPS)]
        eps = self.EPS
        # whole-number placements: a finer grid costs more in Fraction
        # arithmetic and would make one seed slower than another
        lift = F(rng.randrange(-2, 3))
        if which.startswith("point"):
            shift = dx()
            if which == "point_validate":
                return [self.validate("point", point_2d(shift, lift))]
            if which == "point_classify":
                return [self.classify("point", point_2d(shift, lift),
                                      point_2d(shift, lift, box=True), True)]
            if which == "point_classify_other":
                return [self.classify("point", point_2d(shift, lift),
                                      point_2d(shift, lift + 1), False)]
            if which == "point_render":
                return [self.render("point", point_2d(shift, lift))]
            return [self.document("point", point_2d(shift, lift))]
        # wall-plane grids with 1, 2 or 3 gaps between walls
        m1 = 1 + (q // len(self.CHEAP_OPS)) % 3
        size = f"walls={m1}"
        ws = sorted(rng.sample(range(-12, 13), m1 + 1))
        walls = wall_plane([F(v) for v in ws], lift, dx())
        if which == "walls_validate":
            return [self.validate(size, walls)]
        if which == "walls_render":
            return [self.render(size, walls)]
        if which == "walls_shrink":
            return [self.shrink(size, walls, eps)]
        if which == "walls_classify":
            return [self.classify_shrunk(size, walls, eps)]
        if which == "walls_document":
            return [self.document(size, walls)]
        if which == "walls_boundary":
            return [self.boundary(size, walls, 1, rng.randrange(m1 + 1))]
        assert which == "walls_compose"
        if m1 == 1:   # no inner face to compose along
            return [self.boundary(size, walls, 1, 0)]
        return self.compose_then_validate(size, walls, 1,
                                          rng.randrange(1, m1))


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------


class Linear(BordismWorkload):
    """Every round runs every operation on line grids of every m."""

    MS = (1, 2, 4, 8, 16, 32)
    BLOCK = 1
    EPS = (F(1, 4), F(1, 2))
    PREPARED_ROUNDS = 12

    def fixed(self) -> list[Op]:
        return []

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        base = F(100000 * (r + 1))      # every input gets its own offset
        step = itertools.count(1)

        def dx() -> F:
            return base + next(step) * 1000

        def grid(m: int, n_comp: int, offset: F):
            windows, positions = [], []
            for c in range(n_comp):
                lo = offset + 100 * c
                windows.append((lo, lo + 80))
                # zeros at least 2 from the ends, so every shrink fits
                zs = sorted(rng.sample(range(8, 78 * 4), m + 1))
                positions.append([lo + F(z, 4) for z in zs])
            labels = tuple(1 + rng.randrange(2) for _ in range(n_comp))
            return line_grid(positions, windows, labels)

        ops: list[Op] = []
        for i, m in enumerate(self.MS):
            size = f"m={m}"
            n_comp = 1 + (r + i) % 3

            def g():
                return grid(m, n_comp, dx())
            ops.append(self.validate(size, g()))
            ops.append(self.classify_shrunk(size, g(), rng.choice(self.EPS)))
            ops.append(self.shrink(size, g(), rng.choice(self.EPS)))
            ops.append(self.render(size, g()))
            ops.append(self.document(size, g()))
            ops.append(self.boundary(size, g(), 1, rng.randrange(m + 1)))
            if m >= 2:
                ops.extend(self.compose_then_validate(
                    size, g(), 1, rng.randrange(1, m)))
            ops.append(self.cli_validate(size, g()))
            ops.append(self.cli_render(size, g()))
            same = g()
            wider = replace(same, ambient=Ambient1D(tuple(
                (lo - 10, hi + 10) for lo, hi in same.ambient.intervals)))
            ops.append(self.cli_classify(size, same, wider, True))

        # catalog shapes, each moved to its own place
        a, b, c, d = sorted(F(v, 8) for v in rng.sample(range(1, 64), 4))
        circles = [circle_trace(F(64 + 4 * r + j), a, b, c, d)
                   for j in range(4)]
        ops.append(self.validate("circle", circles[0]))
        ops.append(self.render("circle", circles[1]))
        ops.append(self.document("circle", circles[2]))
        ops.extend(self.compose_then_validate("circle", circles[3], 1, 2))
        s = F(rng.randrange(0, 32), 8)
        t = s + F(rng.randrange(1, 32), 8)
        for name in ("elbow_right", "elbow_left"):
            ops.append(self.validate("elbow",
                                     shift_1d(B.catalog(name, s, t), dx())))
        ops.extend(self.compose_then_validate(
            "triangle", shift_1d(B.catalog("triangle_interval"), dx()), 1, 1))
        ops.append(self.validate(
            "triangle", shift_1d(B.catalog("triangle_interval"), dx())))
        shift = dx()
        ops.append(self.classify("point", B.catalog("point1d", shift + s),
                                 B.catalog("point1d", shift + t), False))
        ops.append(self.classify_shrunk(
            "point", B.catalog("point1d", dx() + s), rng.choice(self.EPS)))
        rho = F(rng.randrange(1, 16), 4)
        ms, mt = dx() + s, dx() + t
        metric = B.catalog("metric_interval", ms, mt, rho)
        ops.append(Op("length", "metric", lambda: B.metric_core_length(metric),
                      lambda v: v == rho * (mt - ms), inputs=(metric,)))
        ops.append(self.validate("metric", B.catalog("metric_interval",
                                                     dx() + s, dx() + t, rho)))
        ops.extend(self.families(rng, dx, s, t))
        ops.append(self.product(dx(), rng))
        shift = dx()
        ops.append(self.cli_classify("point", B.catalog("point1d", shift + s),
                                     B.catalog("point1d", shift + t), False))
        return ops

    def families(self, rng, dx, s, t) -> list[Op]:
        ops = []
        iso = B.catalog("point_isotopy", dx() + s, dx() + t)
        ops.append(Op("validate", "family", lambda: B.validate_family(iso),
                      passes, inputs=(iso,)))
        start, end = dx() + s, dx() + t
        iso = B.catalog("point_isotopy", start, end)
        tau = F(rng.randrange(0, 9), 8)
        where = start + (end - start) * tau

        def at(b) -> bool:
            return b.mgrid.grid.tuples[0].cuts[0].components[0].zeros == \
                ((where, "+"),)
        ops.append(Op("compose", "family", lambda: B.family_at(iso, tau), at,
                      inputs=(iso,)))
        tri = shift_family(B.catalog("triangle_family"), dx())
        ops.append(Op("validate", "family", lambda: B.validate_family(tri),
                      passes, inputs=(tri,)))
        ops.append(self.document("family", shift_family(
            B.catalog("triangle_family"), dx())))
        return ops

    def product(self, offset: F, rng) -> Op:
        def one(lo: F):
            zs = sorted(rng.sample(range(1, 40), 3))
            return line_grid([[lo + z for z in zs]], [(lo, lo + 40)], (1,))
        left, right = one(offset), one(offset + 50)

        def joined(b) -> bool:
            return b.ambient.n_components() == 2 and b.mgrid.ell == 2
        return Op("compose", "product",
                  lambda: B.monoidal_product(left, right), joined,
                  inputs=(left, right))


# ---------------------------------------------------------------------------
# segal
# ---------------------------------------------------------------------------


def cyclic_monoid(k: int, offset: int):
    """Z/k under addition, on the labels offset .. offset + k - 1."""
    elements = range(offset, offset + k)

    def add(a, b):
        return (a - offset + b - offset) % k + offset
    return elements, add, offset


def max_monoid(k: int, offset: int):
    """{0, ..., k-1} under max, on shifted labels."""
    return range(offset, offset + k), max, offset


class Segal:
    """Every round builds and checks presheaves at n = 2 and 3 and nerves
    at levels 3 and 4."""

    PREPARED_ROUNDS = 30
    BLOCK = 1

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke

    def rng(self, r) -> random.Random:
        return random.Random(f"Segal:{self.seed}:{r}")

    def fixed(self) -> list[Op]:
        # one Gamma build at n = 4 per run, the growth point
        n = 3 if self.smoke else 4
        rng = self.rng("fixed")
        monoid = rng.choice((cyclic_monoid, max_monoid))(2, rng.randrange(100))
        return self.monoid_ops(f"n={n}", monoid, n)

    @staticmethod
    def presheaf_ops(size, build, n, inputs, splits: bool) -> list[Op]:
        """Build a label presheaf up to size n, then check the Segal
        splitting on every kappa + ell <= n."""
        cell = Cell()

        def built(p) -> bool:
            return len(p.base.arrows) == segal_arrow_count(n)

        def checks():
            p = cell.take()
            return [FC.check_segal_gamma(p, k, l)
                    for k in range(n + 1) for l in range(n + 1 - k)]
        return [
            Op("build", size, lambda: cell.put(build()), built, inputs=inputs),
            Op("check", size, checks, all_true if splits else all_false),
        ]

    def monoid_ops(self, size, monoid, n) -> list[Op]:
        elements, add, zero = monoid
        return self.presheaf_ops(
            size, lambda: FC.monoid_power_presheaf(elements, add, zero, n), n,
            (tuple(elements), n), splits=True)

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        offset = 1000 * (r + 1)
        ops: list[Op] = []
        for i, n in enumerate((2, 2, 3, 3)):
            make = (cyclic_monoid, max_monoid)[(r + i) % 2]
            ops.extend(self.monoid_ops(
                f"n={n}", make(2 + (r + i) % 2, offset + 10 * i), n))
        for n in (2, 3):
            # two or more values, so X<0> is not a point and no split holds
            values = range(offset + 50, offset + 52 + rng.randrange(3))
            ops.extend(self.presheaf_ops(
                f"n={n}",
                lambda n=n, values=values: FC.constant_gamma_presheaf(values, n),
                n, (tuple(values), n), splits=False))
            ops.append(Op("build", f"n={n}",
                          lambda n=n: FC.gamma_segal_category(n),
                          lambda c, n=n: len(c.arrows) == segal_arrow_count(n),
                          inputs=(n,)))
        for level in (3, 4):
            k = 2 + (r + level) % 2
            ops.extend(self.nerve_ops(f"L={level}", "cyclic", level,
                                      lambda k=k: FC.cyclic_group_category(k),
                                      complete=False))
            lo = offset + 100 * level
            ops.extend(self.nerve_ops(
                f"L={level}", "chain", level,
                lambda k=k, lo=lo: FC.poset_category(
                    range(lo, lo + k + 1), lambda x, y: x <= y),
                complete=True))
            ops.extend(self.nerve_ops(f"L={level}", "chaotic", level,
                                      lambda k=k: FC.chaotic_groupoid(k),
                                      complete=False))
        return ops

    @staticmethod
    def nerve_ops(size, what, level, category, complete: bool) -> list[Op]:
        """Build a category and its nerve, then check the Segal condition
        on every split of the top level and strict completeness."""
        cell = Cell()

        def build():
            c = category()
            return cell.put((c, FC.nerve(c, level)))

        def segal():
            nerve = cell.value[1]
            return [FC.check_segal_delta(nerve, a, level - a)
                    for a in range(level + 1)]
        return [
            Op("build", size, build,
               lambda cn: cn[1].level == level, inputs=(what, level)),
            Op("check", size, segal, all_true),
            Op("check", size,
               lambda: FC.check_completeness_nerve(cell.take()[0]),
               is_true if complete else is_false),
        ]


WORKLOADS = {"planar": Planar, "linear": Linear, "segal": Segal}
