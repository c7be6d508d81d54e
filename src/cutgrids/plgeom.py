"""Exact rational piecewise-linear substrate.

Everything here is computed over `fractions.Fraction`; the only floats in play
are the IEEE infinities, used purely as order sentinels for unbounded interval
endpoints (they are compared against rationals but never enter arithmetic).

The region algebra works by joint refinement: the real line (or each circle,
or the x-axis under a family of slabs) is chopped at every "event" coordinate
— cell endpoints, PL breakpoints, graph crossings — into atoms on which
membership in every region under consideration is constant.  Every
fibre of the refinement is a line fibre: the line itself, each circle
unrolled onto the line at its first cut, and the vertical line over one
x-atom.  All are atomized by the same code, and the region operations loop
over fibres without regard to the dimension.  That code orders and indexes a
fibre's coordinates as exact integer keys, so it sorts and dedupes ints
rather than Fractions.  Only the line, the circles and the x-axis have
Fraction coordinates to key, each one's numerator over the lcm of their
denominators, and their atoms keep the Fractions; a y-fibre's coordinates
are ints already, and each is its own key.

A 2D refinement works on one integer scale, built once for it: every bound
piece y = m x + c is written as the ints (m L, c L), L the lcm of their
denominators, and every x-atom's representative as an int over 2D, D that
of the x-events.  Graphs that are one line are crossed by slope group, each
crossing one Fraction of two ints, and only a pair with a bent graph walks
both graphs' pieces.  Each y-fibre then takes its bounds' heights as exact
ints, y L 2D, and sorts, dedupes and indexes them as they are, with no
keying pass; a Fraction is built only for a graph or a point that a result
holds.  The per-region slab lists of an x-atom are made only where a slab
lies, and an op's keep, a function of the membership tuple, is asked once
per distinct tuple of the call.

Only the ops that return regions (region_boolean, region_split,
region_disagreement, region_normalize) build cells from a refinement;
region_split builds one region per part from a single refinement of the
whole and every part.  The yes/no and one-point
queries (region_subset, region_equal, region_sample_point,
plfunc_is_positive_on) read the atoms' memberships and build none.
Likewise a PL function's range, integral or agreement with another on a
closed hull read one walk over the pieces of the function (or of a
difference f - g, from f's and g's) clipped to the hull, `_pieces_on`, and
build no PLFunc.  A slab's emptiness reads the cheapest exact fact first:
one bound object on both sides, or the upper bound above the lower at one
point of the x-range, decides it without that walk.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Collection, Iterable, NamedTuple, Sequence, Union

from .errors import ArgumentError, ValidationError

INF = float("inf")
NEG_INF = float("-inf")

End = Union[Fraction, float]  # a rational endpoint or an infinity sentinel


def fr(x) -> Fraction:
    """Coerce ints/strings/Fractions to Fraction; anything else, a
    malformed string or a zero denominator raises ArgumentError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ArgumentError(f"not an exact rational: {x!r}")


def _exact_end(v) -> End:
    """An end of a segment, slab or ambient: a Fraction as it is (one type
    test, as cells are built often), an infinity as it is, any other end as
    an exact rational (a finite float raises ArgumentError)."""
    if isinstance(v, Fraction):
        return v
    return v if v in (INF, NEG_INF) else fr(v)


def is_finite(v: End) -> bool:
    # Every End is a Fraction, an int or a float infinity; the concrete type
    # test avoids the slow ABC check that isinstance(v, Fraction) makes.
    return not isinstance(v, float)


def rational_to_text(x: End) -> str:
    """Exact text of a rational ("p/q", or "p" when integral) or of an
    infinity ("+inf"/"-inf"), as documents and failure details write it."""
    if not is_finite(x):
        return "+inf" if x > 0 else "-inf"
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# PL functions of one variable
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PLFunc:
    """A continuous piecewise-linear function on the whole line, given by its
    breakpoints, the values there, and the two tail slopes."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    left_slope: Fraction
    right_slope: Fraction

    def __post_init__(self) -> None:
        bps = tuple(fr(b) for b in self.breakpoints)
        vals = tuple(fr(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "left_slope", fr(self.left_slope))
        object.__setattr__(self, "right_slope", fr(self.right_slope))
        if not bps:
            raise ValidationError("a PL function needs at least one breakpoint")
        if len(bps) != len(vals):
            raise ValidationError("breakpoint/value length mismatch")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise ValidationError("breakpoints must be strictly increasing")

    @classmethod
    def constant(cls, c) -> "PLFunc":
        return cls((Fraction(0),), (fr(c),), Fraction(0), Fraction(0))

    @classmethod
    def affine(cls, slope, intercept) -> "PLFunc":
        """The line y = slope x + intercept, written with one breakpoint at
        0.  Its two pieces and its line are stored as it is built, where
        _pieces and _line would cache them, so no reader derives them."""
        m, c = fr(slope), fr(intercept)
        f = cls((Fraction(0),), (c,), m, m)
        f.__dict__.update(_pieces=((NEG_INF, f.breakpoints[0], m, c),
                                   (f.breakpoints[0], INF, m, c)),
                          _line=(m, c))
        return f

    @classmethod
    def from_points(cls, points: Sequence[tuple], left_slope=0, right_slope=0) -> "PLFunc":
        pts = sorted((fr(x), fr(y)) for x, y in points)
        return cls(
            tuple(p[0] for p in pts),
            tuple(p[1] for p in pts),
            fr(left_slope),
            fr(right_slope),
        )

    def __call__(self, x) -> Fraction:
        x = fr(x)
        m, c = self.piece_at(x)
        return m * x + c

    @cached_property
    def _hash(self) -> int:
        # The hash the dataclass would give, computed once: cut and region
        # keys hash every graph they hold, often.
        return hash((self.breakpoints, self.values, self.left_slope, self.right_slope))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _pieces(self) -> tuple[tuple[End, End, Fraction, Fraction], ...]:
        # Kept in the instance dict, outside the dataclass fields, as _hash
        # is, so equality, repr and hashing still see only the four fields.
        bps, vals = self.breakpoints, self.values
        out: list[tuple[End, End, Fraction, Fraction]] = []
        out.append((NEG_INF, bps[0], self.left_slope, vals[0] - self.left_slope * bps[0]))
        for i in range(len(bps) - 1):
            m = (vals[i + 1] - vals[i]) / (bps[i + 1] - bps[i])
            out.append((bps[i], bps[i + 1], m, vals[i] - m * bps[i]))
        out.append((bps[-1], INF, self.right_slope, vals[-1] - self.right_slope * bps[-1]))
        return tuple(out)

    @cached_property
    def _line(self) -> Union[tuple[Fraction, Fraction], None]:
        # (slope, intercept) when every piece is the same line, else None;
        # outside the dataclass fields, as _pieces is.
        _, _, m, c = self._pieces[0]
        return (m, c) if all(p[2:] == (m, c) for p in self._pieces) else None

    def pieces(self) -> tuple[tuple[End, End, Fraction, Fraction], ...]:
        """Affine pieces as (lo, hi, slope, intercept) with f(x) = slope*x + intercept,
        left to right; computed once per function."""
        return self._pieces

    def piece_at(self, x) -> tuple[Fraction, Fraction]:
        """(slope, intercept) of the first piece whose closed hull contains x:
        at a breakpoint that is the piece to its left (both agree there)."""
        _, _, m, c = self._pieces[bisect_left(self.breakpoints, fr(x))]
        return (m, c)

    def is_constant(self) -> bool:
        return (
            self.left_slope == 0
            and self.right_slope == 0
            and all(v == self.values[0] for v in self.values)
        )

    def add(self, other: "PLFunc") -> "PLFunc":
        xs = sorted(set(self.breakpoints) | set(other.breakpoints))
        return PLFunc(
            tuple(xs),
            tuple(self(x) + other(x) for x in xs),
            self.left_slope + other.left_slope,
            self.right_slope + other.right_slope,
        )

    def neg(self) -> "PLFunc":
        return PLFunc(
            self.breakpoints,
            tuple(-v for v in self.values),
            -self.left_slope,
            -self.right_slope,
        )

    def sub(self, other: "PLFunc") -> "PLFunc":
        return self.add(other.neg())

    def scale(self, c) -> "PLFunc":
        c = fr(c)
        return PLFunc(
            self.breakpoints,
            tuple(c * v for v in self.values),
            c * self.left_slope,
            c * self.right_slope,
        )

    def add_constant(self, c) -> "PLFunc":
        c = fr(c)
        return PLFunc(
            self.breakpoints,
            tuple(v + c for v in self.values),
            self.left_slope,
            self.right_slope,
        )

    def compose_affine(self, a, b) -> "PLFunc":
        """The function x -> f(a*x + b), a != 0."""
        a, b = fr(a), fr(b)
        if a == 0:
            raise ArgumentError("affine reparameterization must be invertible")
        new_bps = [(bp - b) / a for bp in self.breakpoints]
        pairs = sorted(zip(new_bps, self.values))
        ls, rs = a * self.left_slope, a * self.right_slope
        if a < 0:
            ls, rs = a * self.right_slope, a * self.left_slope
        return PLFunc(
            tuple(p[0] for p in pairs), tuple(p[1] for p in pairs), ls, rs
        )

    def max_abs_slope(self) -> Fraction:
        return max(abs(m) for _, _, m, _ in self.pieces())


def _zeros_of_pieces(pieces: Iterable[tuple[End, End, Fraction, Fraction]]) -> list[Fraction]:
    """Zero events of consecutive affine pieces (lo, hi, slope, intercept),
    left to right: each piece's isolated zero in its closed hull, or its
    finite ends when it vanishes identically.  Every event lies in its
    piece's hull, so they come sorted and only a shared end can repeat."""
    out: list[Fraction] = []
    for lo, hi, m, c in pieces:
        if m:
            x0 = -c / m
            xs = (x0,) if lo <= x0 <= hi else ()
        elif c:
            continue
        else:
            xs = tuple(e for e in (lo, hi) if is_finite(e))
        for x in xs:
            if not out or x != out[-1]:
                out.append(x)
    return out


def plfunc_zeros(f: PLFunc) -> list[Fraction]:
    """Event coordinates of the zero set: isolated zeros plus the finite
    endpoints of identically-zero pieces (a refinement superset)."""
    return _zeros_of_pieces(f.pieces())


def _difference_pieces(f: PLFunc, g: PLFunc):
    """The affine pieces of f - g over the merged breakpoints, left to
    right, as (lo, hi, slope, intercept)."""
    fp, gp = f.pieces(), g.pieces()
    i = j = 0
    while True:
        f_lo, f_hi, f_m, f_c = fp[i]
        g_lo, g_hi, g_m, g_c = gp[j]
        hi = min(f_hi, g_hi)
        yield (max(f_lo, g_lo), hi, f_m - g_m, f_c - g_c)
        if not is_finite(hi):
            return
        i += f_hi == hi
        j += g_hi == hi


def _pieces_on(pieces: Iterable[tuple[End, End, Fraction, Fraction]],
               lo: End, hi: End):
    """The consecutive pieces (lo, hi, slope, intercept) that meet the closed
    hull [lo, hi] (ends may be infinite; lo == hi is one point), each cut to
    it, left to right.  ArgumentError for an empty hull."""
    lo, hi = _exact_end(lo), _exact_end(hi)
    if lo > hi or (lo == hi and not is_finite(lo)):
        raise ArgumentError("empty hull")
    for p_lo, p_hi, m, c in pieces:
        if p_hi < lo:
            continue
        yield max(p_lo, lo), min(p_hi, hi), m, c
        if p_hi >= hi:
            return


def _value_at(m: Fraction, c: Fraction, x: End) -> End:
    """m*x + c at x, or its limit at an infinite x."""
    if is_finite(x):
        return m * x + c
    if not m:
        return c
    return INF if (m > 0) == (x > 0) else NEG_INF


def _range_of(pieces, lo: End, hi: End) -> tuple[End, End]:
    # each clipped piece is affine, so its ends bound its values
    values = [_value_at(m, c, x) for a, b, m, c in _pieces_on(pieces, lo, hi)
              for x in (a, b)]
    return min(values), max(values)


def plfunc_range_on(f: PLFunc, lo: End, hi: End) -> tuple[End, End]:
    """(infimum, supremum) of f over the closed hull [lo, hi] (ends may be
    infinite; lo == hi is one point), -inf or +inf where f is unbounded
    there.  ArgumentError for an empty hull."""
    return _range_of(f.pieces(), lo, hi)


def plfunc_agree_on(f: PLFunc, g: PLFunc, lo: End, hi: End) -> bool:
    """Whether f and g take the same values on the closed hull [lo, hi]
    (ends may be infinite; lo == hi is one point), however each is written:
    whether the range of f - g there is (0, 0)."""
    return _range_of(_difference_pieces(f, g), lo, hi) == (0, 0)


def plfunc_integral(f: PLFunc, a, b) -> Fraction:
    """Exact integral of f over [a, b], a <= b finite, piece by piece."""
    return sum(((y - x) * (m * (x + y) / 2 + c)
                for x, y, m, c in _pieces_on(f.pieces(), fr(a), fr(b))),
               Fraction(0))


def plfunc_crossings(f: PLFunc, g: PLFunc) -> list[Fraction]:
    """The zero events of f - g, as plfunc_zeros(f.sub(g)) gives them, and
    none when f and g are the same function written the same way.

    Walks the two functions' cached pieces over their merged breakpoints and
    subtracts slopes and intercepts, so no difference function is built."""
    if f is g or f == g:
        return []
    return _zeros_of_pieces(_difference_pieces(f, g))


# ---------------------------------------------------------------------------
# Region cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False)
class Seg:
    """A line interval with per-endpoint inclusion flags; lo == hi (both
    closed) is a point; infinite ends are open.  Finite ends are kept as
    Fractions: an int or string end is converted, and a finite float end
    raises ArgumentError.

    One hand-written constructor normalizes the ends, checks them on its
    locals and then sets each field once, so a cell is validated without
    reading its fields back; its fields, equality, hash and repr are the
    dataclass's."""

    lo: End
    hi: End
    lo_closed: bool
    hi_closed: bool

    def __init__(self, lo: End, hi: End, lo_closed: bool, hi_closed: bool) -> None:
        lo, hi = _exact_end(lo), _exact_end(hi)
        if not lo < hi:
            if lo > hi:
                raise ValidationError("segment endpoints out of order")
            if not (lo_closed and hi_closed):
                raise ValidationError("a degenerate segment must be a closed point")
        if (lo_closed and isinstance(lo, float)) or (hi_closed and isinstance(hi, float)):
            raise ValidationError("infinite endpoint cannot be closed")
        set_field = object.__setattr__  # the fields are frozen
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)
        set_field(self, "lo_closed", lo_closed)
        set_field(self, "hi_closed", hi_closed)


@dataclass(frozen=True)
class Arc:
    """An arc on circle #circle of the given circumference, running in the
    positive direction from start to end (coordinates mod circumference);
    start == end (both closed) is a single point."""

    circle: int
    circumference: Fraction
    start: Fraction
    end: Fraction
    start_closed: bool
    end_closed: bool

    def __post_init__(self) -> None:
        L = fr(self.circumference)
        if L <= 0:
            raise ValidationError("circumference must be positive")
        object.__setattr__(self, "circumference", L)
        object.__setattr__(self, "start", fr(self.start) % L)
        object.__setattr__(self, "end", fr(self.end) % L)
        if self.start == self.end and not (self.start_closed and self.end_closed):
            raise ValidationError("a degenerate arc must be a closed point")


@dataclass(frozen=True)
class CircleCell:
    circle: int
    circumference: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "circumference", fr(self.circumference))
        if self.circumference <= 0:
            raise ValidationError("circumference must be positive")


@dataclass(frozen=True, init=False)
class Slab:
    """A 2D cell {x in the x-range, lower(x) <= y <= upper(x)} with inclusion
    flags on all four sides; lower/upper are PLFunc graphs or infinities.
    Finite x-ends are kept as Fractions, as a Seg's ends are, and like a
    Seg it is checked and set by one constructor."""

    x_lo: End
    x_hi: End
    x_lo_closed: bool
    x_hi_closed: bool
    lower: Union[PLFunc, float]
    upper: Union[PLFunc, float]
    lower_closed: bool
    upper_closed: bool

    def __init__(self, x_lo: End, x_hi: End, x_lo_closed: bool, x_hi_closed: bool,
                 lower: Union[PLFunc, float], upper: Union[PLFunc, float],
                 lower_closed: bool, upper_closed: bool) -> None:
        x_lo, x_hi = _exact_end(x_lo), _exact_end(x_hi)
        if x_lo > x_hi:
            raise ValidationError("slab x-range out of order")
        if x_lo == x_hi and not (x_lo_closed and x_hi_closed):
            raise ValidationError("a degenerate x-range must be a closed point")
        if (x_lo_closed and isinstance(x_lo, float)) or (
                x_hi_closed and isinstance(x_hi, float)):
            raise ValidationError("infinite x-end cannot be closed")
        lower_inf, upper_inf = isinstance(lower, float), isinstance(upper, float)
        if (lower_inf and lower_closed) or (upper_inf and upper_closed):
            raise ValidationError("infinite graph bound cannot be closed")
        if lower_inf and lower != NEG_INF:
            raise ValidationError("lower bound must be a PLFunc or -inf")
        if upper_inf and upper != INF:
            raise ValidationError("upper bound must be a PLFunc or +inf")
        set_field = object.__setattr__  # the fields are frozen
        set_field(self, "x_lo", x_lo)
        set_field(self, "x_hi", x_hi)
        set_field(self, "x_lo_closed", x_lo_closed)
        set_field(self, "x_hi_closed", x_hi_closed)
        set_field(self, "lower", lower)
        set_field(self, "upper", upper)
        set_field(self, "lower_closed", lower_closed)
        set_field(self, "upper_closed", upper_closed)


Cell = Union[Seg, Arc, CircleCell, Slab]


@dataclass(frozen=True)
class PLRegion:
    dim: int
    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(self.cells))
        for c in self.cells:
            if self.dim == 1 and isinstance(c, Slab):
                raise ValidationError("slab cell in a 1D region")
            if self.dim == 2 and not isinstance(c, Slab):
                raise ValidationError("non-slab cell in a 2D region")


def line_region(*segs: Seg) -> PLRegion:
    return PLRegion(1, tuple(segs))


# ---------------------------------------------------------------------------
# Line atomization
# ---------------------------------------------------------------------------

def _keyed_atoms(by_key: dict[int, object]) -> tuple[list[tuple], dict[int, int]]:
    """The line cut at the critical coordinates, given as a dict from each
    one's integer key to the critical: the atoms from left to right, and
    the index from a key to the position of its point atom.

    A key orders as its critical does, and equal criticals share one, so
    the dict has already deduped them and the atoms are built in key order,
    ints sorting and hashing in C where Fractions do in Python.  The atoms
    hold the criticals themselves.  A y-fibre's heights are ints and their
    own keys; Fraction criticals are keyed by _lcm_keys."""
    lo, atoms, index = NEG_INF, [], {}
    for k in sorted(by_key):
        c = by_key[k]
        atoms.append(("iv", lo, c))
        index[k] = len(atoms)
        atoms.append(("pt", c))
        lo = c
    atoms.append(("iv", lo, INF))
    return atoms, index


def _lcm_keys(criticals: Collection[Fraction]) -> tuple[dict[int, Fraction], int]:
    """The criticals keyed for _keyed_atoms, and D, the lcm of their
    denominators: c is keyed by c.numerator * (D // c.denominator), which
    orders as c does and is one key however c is written."""
    D = math.lcm(*{c.denominator for c in criticals})
    return {c.numerator * (D // c.denominator): c for c in criticals}, D


def _position(index: dict[int, int], D: int) -> Callable[[Fraction], int]:
    """The map from a critical's value to the position of its point atom,
    given _keyed_atoms' index and D from _lcm_keys.  When D is 1 a
    critical's key is its value, so the map is the index's own lookup, and
    an integral Fraction end is found by its hash."""
    if D == 1:
        return index.__getitem__
    return lambda c: index[c.numerator * (D // c.denominator)]


def _line_atoms(criticals: Collection) -> tuple[list[tuple], Callable[[Fraction], int]]:
    """The line cut at the critical coordinates, as atoms from left to
    right, and the map from a critical coordinate's value to the position
    of its point atom; the criticals are keyed by _lcm_keys, so they are
    deduped, ordered and indexed as exact integers (see _keyed_atoms)."""
    by_key, D = _lcm_keys(criticals)
    atoms, index = _keyed_atoms(by_key)
    return atoms, _position(index, D)


def interval_rep(lo: End, hi: End) -> Fraction:
    """A rational point strictly inside the open interval (lo, hi)."""
    if is_finite(lo) and is_finite(hi):
        return (lo + hi) / 2
    if is_finite(lo):
        return lo + 1
    if is_finite(hi):
        return hi - 1
    return Fraction(0)


def _atom_rep(atom: tuple) -> Fraction:
    return atom[1] if atom[0] == "pt" else interval_rep(atom[1], atom[2])


def _atom_run(position: Callable[[Fraction], int], last: int, lo: End,
              hi: End, lo_closed: bool, hi_closed: bool) -> range:
    """The positions of the line atoms that the range from lo to hi covers.

    Atoms alternate open intervals and critical points, and both finite ends
    are critical, so the run goes from the lo point (or the interval after
    it) to the hi point (or the interval before it); an infinite end, the
    one float an end can be, runs to the first or the last atom.  position
    (from _line_atoms, or a y-fibre's index) finds a finite end's point
    atom by its value, so an end equal to a critical but built apart from
    it, as a circle's c0 + L is, finds the same atom."""
    start = 0 if isinstance(lo, float) else position(lo) + (0 if lo_closed else 1)
    end = last if isinstance(hi, float) else position(hi) - (0 if hi_closed else 1)
    return range(start, end + 1)


def _mark_runs(atoms: list[tuple], position: Callable[[Fraction], int],
               ranges_per_region: Sequence[Sequence[tuple]]) -> list[tuple]:
    """For each atom, its membership in each region, a region being given as
    ranges (lo, hi, lo_closed, hi_closed) whose finite ends are critical."""
    last = len(atoms) - 1
    rows = []
    for ranges in ranges_per_region:
        row = [False] * len(atoms)
        for r in ranges:
            for a in _atom_run(position, last, *r):
                row[a] = True
        rows.append(row)
    return list(zip(*rows))


def _line_runs(atoms: list[tuple], included: list[bool]) -> list[tuple]:
    """Each maximal run of included atoms as (lo, hi, lo_closed, hi_closed)."""
    runs: list[tuple] = []
    n, i = len(atoms), 0
    while i < n:
        j = i  # the run is atoms[i:j]
        while j < n and included[j]:
            j += 1
        if j > i:
            first, last = atoms[i], atoms[j - 1]
            hi = last[1] if last[0] == "pt" else last[2]
            runs.append((first[1], hi, first[0] == "pt", last[0] == "pt"))
        i = j + 1
    return runs


# ---------------------------------------------------------------------------
# Joint refinement of regions
# ---------------------------------------------------------------------------

class _LineFibre:
    """A line cut into atoms at its critical coordinates, given each region
    as ranges (lo, hi, lo_closed, hi_closed) whose finite ends are critical.

    Every fibre of a joint refinement is one: the real line, each circle
    unrolled at its first cut (_CircleFibre), and the vertical line over
    one x-atom (_YFibre).  memberships[i] holds atom i's membership in each
    region, point(i) is a point of atom i, and cells(included) coalesces
    the included atoms into cells."""

    def __init__(self, criticals: Collection,
                 ranges_per_region: Sequence[Sequence[tuple]]):
        self.atoms, position = _line_atoms(criticals)
        self.memberships = _mark_runs(self.atoms, position, ranges_per_region)

    def point(self, i: int):
        return _atom_rep(self.atoms[i])

    def cells(self, included: list[bool]) -> list[Cell]:
        return [Seg(*run) for run in _line_runs(self.atoms, included)]


class _CircleFibre(_LineFibre):
    """Circle #circle of circumference L, unrolled onto the line from its
    first cut c0 (the smallest arc end, or 0) to c0 + L.

    Every arc end lies in [c0, L), so it maps to itself, and the line atoms
    from the point c0 to the gap before c0 + L are the circle's atoms; an
    arc that passes c0 becomes the range up to c0 + L and the one from c0."""

    def __init__(self, circle: int, L: Fraction,
                 cells_per_region: Sequence[Sequence[Cell]]):
        self.circle, self.L = circle, L
        ends = {e for cells in cells_per_region for c in cells
                if isinstance(c, Arc) for e in (c.start, c.end)}
        c0 = min(ends, default=Fraction(0))
        ranges_per_region = []
        for cells in cells_per_region:
            ranges = []
            for c in cells:
                if isinstance(c, CircleCell):
                    ranges.append((c0, c0 + L, True, False))
                elif c.start <= c.end:
                    ranges.append((c.start, c.end, c.start_closed, c.end_closed))
                else:  # wraps past c0; an open end at c0 adds no atom
                    ranges += [(c.start, c0 + L, c.start_closed, False),
                               (c0, c.end, True, c.end_closed)]
            ranges_per_region.append(ranges)
        super().__init__(ends | {c0, c0 + L}, ranges_per_region)
        self.atoms, self.memberships = self.atoms[1:-2], self.memberships[1:-2]

    def point(self, i: int):
        return ("circle", self.circle, super().point(i) % self.L)

    def cells(self, included: list[bool]) -> list[Cell]:
        return _arc_cells(self.circle, self.L, self.atoms, included)


def _arc_cells(j: int, L: Fraction, atoms: list[tuple],
               included: list[bool]) -> list[Cell]:
    """The included atoms of circle #j of circumference L, unrolled from c0
    (atoms from the point c0 to the gap before c0 + L), as cells: each
    maximal arc, the run through c0 last, or the whole circle."""
    if all(included):
        return [CircleCell(j, L)]
    runs = _line_runs(atoms, included)
    if included[0]:  # the run from c0 comes last, joined to one ending at c0 + L
        first = runs.pop(0)
        if included[-1]:
            a, _, ac, _ = runs.pop()
            first = (a, first[1], ac, first[3])
        runs.append(first)
    cells: list[Cell] = []
    for a, b, ac, bc in runs:
        if (b - a) % L == 0 and not (ac and bc):
            # The circle minus one point: an arc with equal open ends
            # is not representable, so split it in two.
            m = a + L / 2
            cells += [Arc(j, L, a, m, ac, True), Arc(j, L, m, b, False, bc)]
        else:
            cells.append(Arc(j, L, a, b, ac, bc))
    return cells


def _refine_1d(regions: Sequence[PLRegion]):
    """The fibres of 1D regions: the line, then each circle in key order."""
    lines = [[(c.lo, c.hi, c.lo_closed, c.hi_closed)
              for c in r.cells if isinstance(c, Seg)] for r in regions]
    circles: list[dict[tuple[int, Fraction], list[Cell]]] = [{} for _ in regions]
    for r, circ in zip(regions, circles):
        for c in r.cells:
            if not isinstance(c, Seg):
                circ.setdefault((c.circle, c.circumference), []).append(c)
    ends = [e for line in lines for s in line for e in s[:2] if is_finite(e)]
    yield _LineFibre(ends, lines)
    for key in sorted({k for circ in circles for k in circ}):
        yield _CircleFibre(*key, [circ.get(key, []) for circ in circles])


class _XTable(NamedTuple):
    """The one integer scale of a 2D refinement, which _x_atoms builds.

    L is the lcm of the denominators of every bound piece's slope and
    intercept, D that of the x-events, and S = 2D.  reps[a] is x-atom a's
    representative (its point, its midpoint, or an end -/+ 1, as
    interval_rep picks it) times S, an int.  bounds maps the id of each
    bound object of the regions to its breakpoints times S and its pieces
    as the ints (M, C) = (m L, c L); a line has no breakpoint there and
    one piece.  Over x-atom a, a bound's piece is then
    pieces[bisect_left(breakpoints, reps[a])], the one PLFunc.piece_at
    picks at the representative, and its height there, M reps[a] + C S,
    is exactly y L S.  position maps an x-event to its point atom, as
    _line_atoms' map does, and graphs holds the graph of each key a cell
    of the refinement is bounded by (_YFibre.cells).

    Keying by id compares no PLFunc, however many equal ones the regions
    hold; the table is read only while the regions it was built from are
    alive, so each id stays its object's."""

    position: Callable[[Fraction], int]
    reps: list[int]
    bounds: dict
    L: int
    S: int
    graphs: dict[tuple[int, int], PLFunc]

    def slab(self, s: Slab) -> tuple:
        """s as _YFibre reads it: (lower, upper, lower_closed, upper_closed)
        with each bound as bounds writes it."""
        lo, hi = s.lower, s.upper
        return (self.bounds[id(lo)] if isinstance(lo, PLFunc) else lo,
                self.bounds[id(hi)] if isinstance(hi, PLFunc) else hi,
                s.lower_closed, s.upper_closed)


class _YFibre(_LineFibre):
    """The vertical line over one x-atom of a 2D refinement, at X / S (X
    the atom's entry in table.reps; table is the refinement's _XTable),
    given for each region the slabs that cover the atom as table.slab
    writes them.

    Its critical coordinates are the heights of the bounds on the atom, as
    the ints y L S at the representative, and intervals_per_region holds
    each slab's range in heights, an infinite bound as -inf or +inf.  A
    height is its own integer key, so the heights go to _keyed_atoms as
    they are and a slab end's point atom is the index's own lookup: a
    y-fibre builds no denominator, lcm or key product.  Bounds that meet
    on a point atom share a height there, and bounds of different heights
    on an open atom differ all over it (a crossing inside it would have
    been an x-event), so a height stands for one bound: pieces maps it to
    the bound's piece (M, C) there.  cells() and point() build Fractions,
    and only for what they return."""

    def __init__(self, covering: Sequence[Sequence[tuple]], atom: tuple,
                 X: int, table: _XTable):
        self.atom, self.X, self.table = atom, X, table
        S, pieces = table.S, {}  # height -> piece

        def height(bound):
            if isinstance(bound, float):
                return bound
            breakpoints, bound_pieces = bound
            M, C = piece = bound_pieces[bisect_left(breakpoints, X)]
            h = M * X + C * S
            pieces[h] = piece
            return h

        self.intervals_per_region = [
            [(height(lo), height(hi), loc, hic) for lo, hi, loc, hic in slabs]
            for slabs in covering]
        self.pieces = pieces
        self.atoms, index = _keyed_atoms({h: h for h in pieces})
        self.memberships = _mark_runs(self.atoms, index.__getitem__,
                                      self.intervals_per_region)

    def _y(self, e: End) -> End:
        return Fraction(e, self.table.L * self.table.S) if is_finite(e) else e

    def point(self, i: int):
        kind, *ends = self.atoms[i]
        return (Fraction(self.X, self.table.S), _atom_rep((kind, *map(self._y, ends))))

    def cells(self, included: list[bool]) -> list[Cell]:
        [x_range] = _line_runs([self.atom], [True])  # the x-atom as a run
        L, S, graphs = self.table.L, self.table.S, self.table.graphs
        on_point = self.atom[0] == "pt"

        def bound(h):
            if not is_finite(h):
                return h
            # the graph of slope a / L and intercept b / (L S) for the key
            # (a, b): on a point atom the constant (0, h), on an open atom
            # the piece (M, C) as (M, C S), so one horizontal line's graph
            # has one key on either
            if on_point:
                key = (0, h)
            else:
                M, C = self.pieces[h]
                key = (M, C * S)
            graph = graphs.get(key)
            if graph is None:
                graph = graphs[key] = PLFunc.affine(Fraction(key[0], L),
                                                    Fraction(key[1], L * S))
            return graph

        return [Slab(*x_range, bound(lo), bound(hi), loc, hic)
                for lo, hi, loc, hic in _line_runs(self.atoms, included)]


def _x_atoms(regions: Sequence[PLRegion]) -> tuple[list[tuple], _XTable]:
    """The x-atoms of 2D regions' joint refinement, as _line_atoms gives
    them: cut at slab x-ends, bound breakpoints and crossings of bounds;
    and the refinement's integer table (_XTable).

    Each bound object is collected once, and its pieces written as ints
    over L.  Lines are taken once per (M, C) and grouped by integer slope:
    two lines of different slope cross once, at (C2 - C1) / (M1 - M2), one
    Fraction, and lines of one slope never cross (two ways of writing one
    line meet on whole pieces, whose ends are their breakpoints, events
    already).  Each crossing is reduced to lowest terms as a pair of ints
    first, and one Fraction is built per distinct pair, so lines through one
    point (box sides and the sheets at a corner) build one there, not one
    per pair.  A pair with a bound that is not one line is crossed by
    plfunc_crossings on the bounds as written: where the curve follows the
    line over a piece, the line's own breakpoints are events of that pair,
    and so are those of any other way of writing it.  The x-events are
    collected in a list, which _lcm_keys dedupes by their integer keys, so
    no Fraction is hashed."""
    xs: list[Fraction] = []
    objects: dict[int, PLFunc] = {}  # id -> each bound object
    for r in regions:
        for slab in r.cells:
            if is_finite(slab.x_lo):
                xs.append(slab.x_lo)
            if is_finite(slab.x_hi):
                xs.append(slab.x_hi)
            for b in (slab.lower, slab.upper):
                if isinstance(b, PLFunc) and id(b) not in objects:
                    objects[id(b)] = b
                    xs += b.breakpoints
    pieces = {i: [b._line] if b._line else [p[2:] for p in b._pieces]
              for i, b in objects.items()}
    L = math.lcm(*{v.denominator for ps in pieces.values() for p in ps for v in p})
    ints = {i: tuple((m.numerator * (L // m.denominator),
                      c.numerator * (L // c.denominator)) for m, c in ps)
            for i, ps in pieces.items()}
    lines: dict[tuple[int, int], PLFunc] = {}  # (M, C) -> a bound that is that line
    curves: dict[PLFunc, None] = {}  # the distinct bounds that are not one line
    for i, b in objects.items():
        if b._line:
            lines.setdefault(ints[i][0], b)
        else:
            curves[b] = None
    slopes: dict[int, list[int]] = {}  # M -> Cs
    for M, C in lines:
        slopes.setdefault(M, []).append(C)
    crossings: set[tuple[int, int]] = set()  # (p, q) in lowest terms, q > 0
    for (M1, Cs1), (M2, Cs2) in itertools.combinations(slopes.items(), 2):
        sign = 1 if M1 > M2 else -1
        q = sign * (M1 - M2)
        for C1 in Cs1:
            for C2 in Cs2:
                p = sign * (C2 - C1)
                g = math.gcd(p, q)
                crossings.add((p // g, q // g))
    xs += [Fraction(p, q) for p, q in crossings]
    bent = list(curves)
    for i, f in enumerate(bent):
        for g in itertools.chain(bent[i + 1:], lines.values()):
            xs += plfunc_crossings(f, g)
    by_key, D = _lcm_keys(xs)
    atoms, index = _keyed_atoms(by_key)
    S = 2 * D
    reps: list[int] = []
    lo = None  # the key of the last point atom
    for k in index:
        reps += (2 * (k - D) if lo is None else lo + k, 2 * k)
        lo = k
    reps.append(0 if lo is None else 2 * (lo + D))
    bounds = {i: (() if objects[i]._line else tuple(
        x.numerator * (S // x.denominator) for x in objects[i].breakpoints), ps)
        for i, ps in ints.items()}
    return atoms, _XTable(_position(index, D), reps, bounds, L, S, {})


Cover = Callable[[Sequence[Sequence[tuple]]], bool]


def _refine_2d(regions: Sequence[PLRegion], cover: Cover):
    """The y-fibres of 2D regions, from left to right, one over each x-atom
    where cover holds of the slabs over it (one list per region, empty where
    the region has none), all on the one integer table _x_atoms builds.
    An x-atom's lists are made when the first slab covers it; an atom no
    slab covers has none and builds no fibre, since every cover rejects
    all-empty lists.

    An op passes the cover of the atoms it can use.  Over an atom a region
    has no slab on, its membership is False throughout, so the op's cover
    must hold wherever a membership it keeps or fails on can occur: any
    suits every op, since none keeps a point in no region.
    Intersection and the meet query need every region (all), difference
    and subset the first (_first_covers), and region_components two
    closures (_two_cover), as only those atoms make pairs; union,
    region_equal and region_normalize keep any."""
    atoms, table = _x_atoms(regions)
    last = len(atoms) - 1
    covering: list = [None] * len(atoms)  # x-atom -> one list per region
    for k, r in enumerate(regions):
        for slab in r.cells:
            ints = table.slab(slab)
            for a in _atom_run(table.position, last, slab.x_lo, slab.x_hi,
                               slab.x_lo_closed, slab.x_hi_closed):
                lists = covering[a]
                if lists is None:
                    lists = covering[a] = [[] for _ in regions]
                lists[k].append(ints)
    for a, lists in enumerate(covering):
        if lists is not None and cover(lists):
            yield _YFibre(lists, atoms[a], table.reps[a], table)


def _fibres(regions: Sequence[PLRegion], cover: Cover = any):
    """The fibres of the regions' joint refinement, in cell order.  In 2D
    only the y-fibres over x-atoms where cover holds (see _refine_2d); every
    1D fibre is built."""
    dim = regions[0].dim
    if any(r.dim != dim for r in regions):
        raise ArgumentError("region dimension mismatch")
    return _refine_1d(regions) if dim == 1 else _refine_2d(regions, cover)


def _first_covers(covering: Sequence[Sequence[tuple]]) -> bool:
    return bool(covering[0])


def _two_cover(covering: Sequence[Sequence[tuple]]) -> bool:
    return sum(map(bool, covering)) >= 2


# ---------------------------------------------------------------------------
# Region operations
# ---------------------------------------------------------------------------

def _rebuild(regions: Sequence[PLRegion],
             keeps: Sequence[Callable[[Sequence[bool]], bool]],
             cover: Cover = any) -> list[PLRegion]:
    """For each keep, the points whose memberships in the regions satisfy
    it, rebuilt from one joint refinement (adjacent atoms of a fibre
    coalesce).  Each keep must reject a point in no region, and cover must
    hold wherever some keep can accept: _refine_2d builds no fibre
    elsewhere.  A keep is a function of the membership tuple alone, so it
    is asked once per distinct tuple of the call; the answers live in a
    dict per keep that dies with the call."""
    assert not any(keep((False,) * len(regions)) for keep in keeps)
    cells: list[list[Cell]] = [[] for _ in keeps]
    answers: list[dict[tuple, bool]] = [{} for _ in keeps]  # membership -> answer
    for fibre in _fibres(regions, cover):
        memberships = fibre.memberships
        for out, keep, asked in zip(cells, keeps, answers):
            included = []
            for m in memberships:
                a = asked.get(m)
                if a is None:
                    a = asked[m] = keep(m)
                included.append(a)
            out.extend(fibre.cells(included))
    return [PLRegion(regions[0].dim, tuple(c)) for c in cells]


def region_boolean(op: str, a: PLRegion, b: PLRegion) -> PLRegion:
    if op == "intersect":
        return _rebuild([a, b], [lambda m: m[0] and m[1]], all)[0]
    if op == "union":
        return _rebuild([a, b], [lambda m: m[0] or m[1]])[0]
    raise ArgumentError(f"unknown boolean op {op!r}")


def region_split(within: PLRegion, parts: Sequence[PLRegion]) -> list[PLRegion]:
    """within n part for each part, from one refinement of within with
    every part.  A result has the cells region_boolean("intersect", part,
    within) gives whenever that joint refinement has the x-events of the
    part's own refinement with within, as the parts of one component's cut
    do (see grids.cut_regions)."""
    return _rebuild([within, *parts], [
        lambda m, k=k: m[0] and m[k] for k in range(1, len(parts) + 1)],
        _first_covers)


def region_disagreement(within: PLRegion, *partitions: Sequence[PLRegion]) -> PLRegion:
    """The points of within that no k puts in part k of every partition, from
    one refinement of within with every part; with one partition (b,), within - b,
    and with one partition of many parts (b1, b2, ...), within minus their union."""
    n = len(partitions[0]) if partitions else 0
    if any(len(p) != n for p in partitions):
        raise ArgumentError("partitions have different numbers of parts")
    regions = [within, *itertools.chain(*partitions)]
    parts = [range(1 + k, len(regions), n) for k in range(n)]
    return _rebuild(regions, [lambda m: m[0] and not any(
        all(m[i] for i in part) for part in parts)], _first_covers)[0]


def region_subset(a: PLRegion, b: PLRegion) -> bool:
    return all(not m[0] or m[1]
               for fibre in _fibres([a, b], _first_covers)
               for m in fibre.memberships)


def region_equal(a: PLRegion, b: PLRegion) -> bool:
    return all(m[0] == m[1] for fibre in _fibres([a, b]) for m in fibre.memberships)


def region_normalize(a: PLRegion) -> PLRegion:
    """Re-express through the refinement (coalescing adjacent atoms)."""
    return _rebuild([a], [lambda m: m[0]])[0]


def _slab_is_empty(s: Slab) -> bool:
    """Whether s holds no point: upper - lower has maximum 0 over the closed
    x-range and a bound side is open.  A negative maximum raises
    ValidationError.  Decided from the cheapest exact fact that settles
    it: an infinite bound, one bound object on both sides (the difference
    is 0), or upper above lower at one point of the x-range (the maximum is
    then positive); only otherwise by the walk over the difference's
    pieces, which gives the same answer."""
    lower, upper = s.lower, s.upper
    if isinstance(lower, float) or isinstance(upper, float):
        return False
    if lower is upper:
        return not (s.lower_closed and s.upper_closed)
    x = s.x_lo if s.x_lo == s.x_hi else interval_rep(s.x_lo, s.x_hi)
    if upper(x) > lower(x):
        return False
    _, dmax = _range_of(_difference_pieces(upper, lower), s.x_lo, s.x_hi)
    if dmax > 0:
        return False
    if dmax < 0:
        raise ValidationError("slab with lower bound above upper bound")
    return not (s.lower_closed and s.upper_closed)


def _cell_closure(c: Cell) -> Cell:
    if isinstance(c, Seg):
        return Seg(c.lo, c.hi, is_finite(c.lo), is_finite(c.hi))
    if isinstance(c, Arc):
        return Arc(c.circle, c.circumference, c.start, c.end, True, True)
    if isinstance(c, CircleCell):
        return c
    return Slab(c.x_lo, c.x_hi, is_finite(c.x_lo), is_finite(c.x_hi), c.lower,
                c.upper, isinstance(c.lower, PLFunc), isinstance(c.upper, PLFunc))


def region_closure(a: PLRegion) -> PLRegion:
    """Each nonempty cell closed: every finite end and graph bound becomes
    closed, and no infinite one.  The one place a slab's emptiness is
    decided (_slab_is_empty, which walks the bounds' pieces only for a slab
    that no single point shows nonempty); the other derived queries read the
    cells of the closure."""
    kept = []
    for c in a.cells:
        if isinstance(c, Slab) and _slab_is_empty(c):
            continue
        kept.append(_cell_closure(c))
    return PLRegion(a.dim, tuple(kept))


def _closed_is_bounded(closed: PLRegion) -> bool:
    """Whether the cells of a closure are bounded: each has all its end
    flags closed, since closure closes exactly the finite ends."""
    for c in closed.cells:
        if isinstance(c, Seg) and not (c.lo_closed and c.hi_closed):
            return False
        if isinstance(c, Slab) and not (c.x_lo_closed and c.x_hi_closed
                                        and c.lower_closed and c.upper_closed):
            return False
    return True


def region_bounded(a: PLRegion) -> bool:
    """Whether every cell of the closure is bounded."""
    return _closed_is_bounded(region_closure(a))


def region_bbox(a: PLRegion):
    """((x0, x1), (y0, y1)) over finite data; None coordinates where the
    region is unbounded or empty in that direction.  Circle cells use the
    fundamental domain [0, L].  Read from the cells of the closure, whose
    closed ends are exactly the finite ones."""
    xs: list[Fraction] = []
    ys: list[Fraction] = []
    unbounded_x = unbounded_y = False
    for c in region_closure(a).cells:
        if isinstance(c, (Arc, CircleCell)):
            xs.extend([Fraction(0), c.circumference])
        elif isinstance(c, Seg):
            if c.lo_closed and c.hi_closed:
                xs.extend([c.lo, c.hi])
            else:
                unbounded_x = True
        elif c.x_lo_closed and c.x_hi_closed:
            xs.extend([c.x_lo, c.x_hi])
            for b in (c.lower, c.upper):
                if isinstance(b, PLFunc):
                    ys.extend(plfunc_range_on(b, c.x_lo, c.x_hi))
                else:
                    unbounded_y = True
        else:
            unbounded_x = True
    xr = None if (unbounded_x or not xs) else (min(xs), max(xs))
    if a.dim == 1:
        return (xr, None)
    yr = None if (unbounded_y or not ys) else (min(ys), max(ys))
    return (xr, yr)


def _groups(n: int, links: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The classes of 0..n-1 under union-find, each link (i, j) putting the
    root of i under the root of j in the order given: each class ascending,
    the classes in the order of their roots."""
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in links:
        parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [groups[root] for root in sorted(groups)]


def region_components(a: PLRegion) -> list[PLRegion]:
    """Split a region into connected pieces.

    Cells whose closures meet are glued; for closed regions this is exactly
    the point-set decomposition into connected components (cells are
    connected, and two closed connected sets meeting have connected union).

    The closures of the normalized cells are refined together, once; that
    refinement holds one membership entry per closure per atom, and two
    closures meet exactly when some atom lies in both.  The meeting pairs
    are joined in (i, j) order, so the pieces, their order and their cells
    are those of gluing each pair of cells in turn.
    """
    cells = region_normalize(a).cells
    if not cells:
        return []
    closures = [region_closure(PLRegion(a.dim, (c,))) for c in cells]
    meets: set[tuple[int, int]] = set()
    for m in {m for fibre in _fibres(closures, _two_cover)
              for m in fibre.memberships}:
        meets.update(itertools.combinations(
            [i for i, inside in enumerate(m) if inside], 2))
    return [PLRegion(a.dim, tuple(cells[i] for i in g))
            for g in _groups(len(cells), sorted(meets))]


def region_sample_point(a: PLRegion, *others: PLRegion):
    """A point that lies in a and in every one of the others, or None when
    they have no point in common: with a alone, a point of a, or None when
    a is empty.  So region_sample_point(a, b) is None asks whether a and b
    are disjoint, with no intersection built.

    The point is that of the first atom of the regions' joint refinement
    inside all of them; the search stops there and builds no cell.  1D
    points come back as a rational (line) or ("circle", idx, theta); 2D
    points as an (x, y) pair of rationals.
    """
    for fibre in _fibres([a, *others], all):
        for i, m in enumerate(fibre.memberships):
            if all(m):
                return fibre.point(i)
    return None


# ---------------------------------------------------------------------------
# Ambient manifolds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ambient1D:
    """A disjoint union of open intervals of the line and circles."""

    intervals: tuple[tuple[End, End], ...]
    circles: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        ivs = []
        for lo, hi in self.intervals:
            lo, hi = _exact_end(lo), _exact_end(hi)
            if lo >= hi:
                raise ValidationError("ambient interval endpoints out of order")
            ivs.append((lo, hi))
        ivs.sort(key=lambda p: p[0])
        for (a, b), (c, d) in zip(ivs, ivs[1:]):
            if b > c:
                raise ValidationError("ambient intervals must be pairwise disjoint")
        object.__setattr__(self, "intervals", tuple(ivs))
        object.__setattr__(self, "circles", tuple(fr(L) for L in self.circles))
        if any(L <= 0 for L in self.circles):
            raise ValidationError("circumferences must be positive")

    @property
    def dim(self) -> int:
        return 1

    def n_components(self) -> int:
        return len(self.intervals) + len(self.circles)

    def component_kind(self, k: int):
        if k < len(self.intervals):
            return ("interval", self.intervals[k])
        return ("circle", self.circles[k - len(self.intervals)])

    def component_of_line_point(self, x) -> int:
        x = fr(x)
        for k, (lo, hi) in enumerate(self.intervals):
            if lo < x < hi:
                return k
        raise ArgumentError(f"point {x} lies outside the ambient")


@dataclass(frozen=True)
class Ambient2D:
    """A union of open axis boxes (x0, x1) x (y0, y1); boxes may overlap, and
    overlapping boxes belong to one connected component."""

    boxes: tuple[tuple[End, End, End, End], ...]

    def __post_init__(self) -> None:
        normed = []
        for x0, x1, y0, y1 in self.boxes:
            box = tuple(map(_exact_end, (x0, x1, y0, y1)))
            if box[0] >= box[1] or box[2] >= box[3]:
                raise ValidationError("empty ambient box")
            normed.append(box)
        object.__setattr__(self, "boxes", tuple(normed))

    @property
    def dim(self) -> int:
        return 2

    def _box_components(self) -> list[list[int]]:
        def overlap(a, b) -> bool:
            return (max(a[0], b[0]) < min(a[1], b[1])
                    and max(a[2], b[2]) < min(a[3], b[3]))

        pairs = itertools.combinations(range(len(self.boxes)), 2)
        return sorted(_groups(len(self.boxes), (
            (i, j) for i, j in pairs if overlap(self.boxes[i], self.boxes[j]))))

    def n_components(self) -> int:
        return len(self._box_components())

    def component_boxes(self, k: int) -> tuple:
        return tuple(self.boxes[i] for i in self._box_components()[k])

    def component_of_point(self, x, y) -> int:
        x, y = fr(x), fr(y)
        for k, idxs in enumerate(self._box_components()):
            for i in idxs:
                x0, x1, y0, y1 = self.boxes[i]
                if x0 < x < x1 and y0 < y < y1:
                    return k
        raise ArgumentError(f"point ({x}, {y}) lies outside the ambient")


Ambient = Union[Ambient1D, Ambient2D]


def _box_slab(box) -> Slab:
    x0, x1, y0, y1 = box
    lower = NEG_INF if not is_finite(y0) else PLFunc.constant(y0)
    upper = INF if not is_finite(y1) else PLFunc.constant(y1)
    return Slab(x0, x1, False, False, lower, upper, False, False)


def ambient_region(m: Ambient) -> PLRegion:
    if isinstance(m, Ambient1D):
        cells: list[Cell] = [
            Seg(lo, hi, False, False) for lo, hi in m.intervals
        ]
        cells.extend(CircleCell(i, L) for i, L in enumerate(m.circles))
        return PLRegion(1, tuple(cells))
    return PLRegion(2, tuple(_box_slab(b) for b in m.boxes))


def component_region(m: Ambient, k: int) -> PLRegion:
    if isinstance(m, Ambient1D):
        kind, data = m.component_kind(k)
        if kind == "interval":
            return PLRegion(1, (Seg(data[0], data[1], False, False),))
        return PLRegion(1, (CircleCell(k - len(m.intervals), data),))
    return PLRegion(2, tuple(_box_slab(b) for b in m.component_boxes(k)))


def region_is_compact_in(a: PLRegion, m: Ambient) -> bool:
    """Whether a, which must lie in the ambient m, is bounded with its
    closure inside m.

    The closure is computed once.  A bounded closure inside m answers
    True with one refinement; otherwise a subset test of a itself tells a
    region outside m (ArgumentError) from one that is not compact."""
    amb = ambient_region(m)
    closed = region_closure(a)
    if _closed_is_bounded(closed) and region_subset(closed, amb):
        return True
    if not region_subset(a, amb):
        raise ArgumentError("region is not contained in the ambient")
    return False


# ---------------------------------------------------------------------------
# PL function sign over a 1D domain
# ---------------------------------------------------------------------------

def plfunc_is_positive_on(f: PLFunc, domain: PLRegion) -> bool:
    """f > 0 at every point of a 1D line domain.

    One line fibre, cut at the domain's finite ends and at f's breakpoints
    and zeros: f keeps one sign on each atom, so the point of each atom in
    the domain decides."""
    if any(not isinstance(c, Seg) for c in domain.cells):
        raise ArgumentError("positivity domains live on the line")
    ranges = [(c.lo, c.hi, c.lo_closed, c.hi_closed) for c in domain.cells]
    ends = [fr(e) for r in ranges for e in r[:2] if is_finite(e)]
    fibre = _LineFibre([*ends, *f.breakpoints, *plfunc_zeros(f)], [ranges])
    return all(f(fibre.point(i)) > 0
               for i, (inside,) in enumerate(fibre.memberships) if inside)
