"""Exact JSON document format for bordisms, families, and finite
categorical fixtures.

Rationals travel as strings ("p/q", or "p" when integral), infinities
as "+inf"/"-inf", crossing signs as "+"/"-", labels and shapes as
integer arrays.  Serialization is deterministic — equal values produce
byte-identical text — and parsing is exact: no value is ever rounded.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .bordisms import (
    FIELD_KINDS,
    Bordism,
    BordismFamily,
    FamComponentCut1D,
    FamCut1D,
    FieldDatum,
    validate,
    validate_family,
)
from .errors import (
    DocumentSyntaxError,
    DocumentValidationError,
    ValidationError,
)
from .finitecat import FinCategory, TruncSSet
from .grids import (
    AffineMap,
    ComponentCut1D,
    ComponentCut2D,
    Cut1D,
    Cut2D,
    CutGrid,
    CutTuple,
    MonoidalCutGrid,
    Sheet,
)
from .plgeom import INF, NEG_INF, Ambient1D, Ambient2D, PLFunc, rational_to_text
from .reporting import ReportEntry, ValidationReport

FORMAT_NAME = "cutgrids-document"
FORMAT_VERSION = 1

Payload = Union[Bordism, BordismFamily, FinCategory, TruncSSet]


# ---------------------------------------------------------------------------
# scalar encoding
# ---------------------------------------------------------------------------


_QUOTE_LIMIT = 40


def _quote(s: str) -> str:
    """s quoted for an error message, cut short when long."""
    if len(s) <= _QUOTE_LIMIT:
        return repr(s)
    return f"{s[:_QUOTE_LIMIT]!r}... ({len(s)} characters)"


# A rational's text: an optional "-" and ASCII digits, then optionally "/"
# and ASCII digits.  int() alone would also take "+", "_", spaces and
# non-ASCII digits, which the writer never emits.
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rational_from_text(s, where: str = "rational"):
    """The value of a rational as documents write it: "p/q" or "p" (see
    _RATIONAL), "+inf"/"-inf", or a JSON integer.  Any other text is a
    DocumentSyntaxError, as is a zero denominator and text that
    rational_to_text would write otherwise ("2/4", "3/1", "007", "-0"), so
    every rational a document holds reads back as the same text."""
    if _is_int(s):
        return Fraction(s)
    if not isinstance(s, str):
        raise DocumentSyntaxError(
            f"{where}: expected a rational string, got {type(s).__name__}")
    if s == "+inf":
        return INF
    if s == "-inf":
        return NEG_INF
    match = _RATIONAL.fullmatch(s)
    if match:
        try:
            num, den = int(match[1]), int(match[2] or 1)
        except ValueError:  # more digits than int() converts
            pass
        else:
            if den == 0:
                raise DocumentSyntaxError(
                    f"{where}: zero denominator in {_quote(s)}")
            value = Fraction(num, den)
            canonical = rational_to_text(value)
            if canonical != s:
                raise DocumentSyntaxError(
                    f"{where}: non-canonical rational {_quote(s)} "
                    f"(write {_quote(canonical)})")
            return value
    raise DocumentSyntaxError(f"{where}: malformed rational {_quote(s)}")


def _sign_from_text(s, where: str) -> str:
    if s not in ("+", "-"):
        raise DocumentSyntaxError(f"{where}: expected '+' or '-', got {s!r}")
    return s


def _object(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise DocumentSyntaxError(
            f"{where}: expected an object, got {type(obj).__name__}")
    return obj


def _is_int(v) -> bool:
    """An integer proper: JSON true/false load as bools, which are ints."""
    return isinstance(v, int) and not isinstance(v, bool)


def _ints(values, where: str) -> tuple:
    if not isinstance(values, list) or not all(map(_is_int, values)):
        raise DocumentSyntaxError(f"{where}: need an integer array")
    return tuple(values)


def _uple(obj, where: str) -> bool:
    uple = obj.get("uple", False)
    if not isinstance(uple, bool):
        raise DocumentSyntaxError(f"{where}.uple: must be true or false")
    return uple


def _plf_to_json(f: PLFunc) -> dict:
    return {
        "breakpoints": [rational_to_text(b) for b in f.breakpoints],
        "values": [rational_to_text(v) for v in f.values],
        "left_slope": rational_to_text(f.left_slope),
        "right_slope": rational_to_text(f.right_slope),
    }


def _plf_from_json(obj, where: str) -> PLFunc:
    if not isinstance(obj, dict):
        raise DocumentSyntaxError(f"{where}: expected a PL-function object")
    return PLFunc(
        tuple(rational_from_text(b, where) for b in obj.get("breakpoints", ())),
        tuple(rational_from_text(v, where) for v in obj.get("values", ())),
        rational_from_text(obj.get("left_slope", "0"), where),
        rational_from_text(obj.get("right_slope", "0"), where),
    )


def _val_to_json(v):
    """Objects/arrows/simplices of finite fixtures: strings, ints, or
    nested tuples thereof."""
    if isinstance(v, tuple):
        return [_val_to_json(x) for x in v]
    if isinstance(v, (str, int)):
        return v
    raise DocumentSyntaxError(f"value {v!r} has no document encoding")


def _val_from_json(v, where: str):
    if isinstance(v, list):
        return tuple(_val_from_json(x, where) for x in v)
    if isinstance(v, str) or _is_int(v):
        return v
    raise DocumentSyntaxError(f"{where}: unexpected value {v!r} in a finite fixture")


def _rows(rows, width: int, where: str):
    """(path, row) for each row of the array rows, every row an array of
    exactly width entries."""
    if not isinstance(rows, list):
        raise DocumentSyntaxError(f"{where}: expected an array")
    for i, row in enumerate(rows):
        at = f"{where}[{i}]"
        if not isinstance(row, list) or len(row) != width:
            raise DocumentSyntaxError(f"{at}: expected an array of {width} entries")
        yield at, row


def _rationals(row, where: str) -> tuple:
    """The rationals of the array row, each error naming its entry."""
    if not isinstance(row, list):
        raise DocumentSyntaxError(f"{where}: expected an array")
    return tuple(rational_from_text(v, f"{where}[{j}]") for j, v in enumerate(row))


# ---------------------------------------------------------------------------
# bordism payloads
# ---------------------------------------------------------------------------


def _component_to_json(c, level: list) -> dict:
    """One component of a cut (1D, 2D or family): its level data under
    its kind, or the whole-component form."""
    if c.kind == "whole":
        return {"kind": "whole", "side": c.whole_sign}
    return {"kind": c.kind, c.kind: level}


def _components_from_json(obj, where: str, cls, level_kind: str,
                          parse_level) -> tuple:
    """The components of a cut object, inverse to _component_to_json;
    parse_level(array, where) reads the array of level data."""
    comps = _object(obj, where).get("components")
    if not isinstance(comps, list):
        raise DocumentSyntaxError(f"{where}: cut needs a component list")
    out = []
    for k, comp in enumerate(comps):
        at = f"{where}.components[{k}]"
        kind = _object(comp, at).get("kind")
        if kind == level_kind:
            out.append(cls(kind, parse_level(comp.get(kind, []),
                                             f"{at}.{kind}")))
        elif kind == "whole":
            side = comp.get("side")
            if side not in ("below", "above"):
                raise DocumentSyntaxError(f"{at}: bad side {side!r}")
            out.append(cls("whole", (), side))
        else:
            raise DocumentSyntaxError(f"{at}: unknown component kind {kind!r}")
    return tuple(out)


def _zero_parser(position):
    """Reader of 1D level data: rows [position, sign]."""
    def parse(rows, where: str) -> tuple:
        return tuple((position(p, f"{at}[0]"), _sign_from_text(s, f"{at}[1]"))
                     for at, (p, s) in _rows(rows, 2, where))
    return parse


def _sheets_from_json(items, where: str) -> tuple:
    """Planar level data: an array of {graph, sign} objects."""
    if not isinstance(items, list):
        raise DocumentSyntaxError(f"{where}: expected an array")
    sheets = []
    for k, item in enumerate(items):
        at = f"{where}[{k}]"
        item = _object(item, at)
        sheets.append(Sheet(_plf_from_json(item.get("graph"), at),
                            _sign_from_text(item.get("sign"), at)))
    return tuple(sheets)


def _cut_to_json(cut) -> dict:
    if isinstance(cut, Cut1D):
        return {"components": [
            _component_to_json(c, [[rational_to_text(p), s] for p, s in c.zeros])
            for c in cut.components]}
    return {"axis": cut.axis, "components": [
        _component_to_json(c, [{"graph": _plf_to_json(s.graph), "sign": s.sign}
                               for s in c.sheets])
        for c in cut.components]}


def _cut_from_json(obj, dim: int, where: str):
    if dim == 1:
        return Cut1D(_components_from_json(
            obj, where, ComponentCut1D, "zeros", _zero_parser(rational_from_text)))
    axis = _object(obj, where).get("axis")
    if not _is_int(axis) or axis not in (1, 2):
        raise DocumentSyntaxError(f"{where}: 2D cut needs axis 1 or 2")
    return Cut2D(axis, _components_from_json(
        obj, where, ComponentCut2D, "sheets", _sheets_from_json))


def _field_to_json(f: FieldDatum) -> dict:
    if f.kind == "trivial":
        return {"kind": "trivial"}
    if f.kind == "metric":
        return {"kind": "metric",
                "densities": [_plf_to_json(w) for w in f.densities]}
    return {"kind": "embedded", "target_dim": f.target_dim}


def _field_from_json(obj, where: str) -> FieldDatum:
    kind = _object(obj, where).get("kind")
    if kind == "trivial":
        return FieldDatum("trivial")
    if kind == "metric":
        return FieldDatum("metric", tuple(
            _plf_from_json(w, where) for w in obj.get("densities", [])))
    if kind == "embedded":
        td = obj.get("target_dim")
        if not _is_int(td):
            raise DocumentSyntaxError(f"{where}: embedded field needs target_dim")
        return FieldDatum("embedded", (), td)
    raise DocumentSyntaxError(f"{where}: unknown field kind {kind!r}")


def _affine_to_json(a: AffineMap) -> dict:
    return {"perm": list(a.perm),
            "coeffs": [rational_to_text(c) for c in a.coeffs],
            "shifts": [rational_to_text(s) for s in a.shifts]}


def _affine_from_json(obj, dim: int, where: str) -> AffineMap:
    obj = _object(obj, where)
    return AffineMap(
        dim,
        _ints(obj.get("perm", []), f"{where}.perm"),
        _rationals(obj.get("coeffs", []), f"{where}.coeffs"),
        _rationals(obj.get("shifts", []), f"{where}.shifts"))


def _bordism_to_json(b: Bordism) -> dict:
    dim = b.ambient.dim
    if dim == 1:
        ambient = {
            "intervals": [[rational_to_text(lo), rational_to_text(hi)]
                          for lo, hi in b.ambient.intervals],
            "circles": [rational_to_text(L) for L in b.ambient.circles]}
    else:
        ambient = {"boxes": [[rational_to_text(v) for v in box]
                             for box in b.ambient.boxes]}
    out = {
        "dimension": dim,
        "ambient": ambient,
        "grid": [[_cut_to_json(c) for c in t.cuts]
                 for t in b.mgrid.grid.tuples],
        "ell": b.mgrid.ell,
        "labels": list(b.mgrid.labels),
        "field": _field_to_json(b.field),
        "embedding": None if b.embedding is None else _affine_to_json(b.embedding),
        "uple": b.uple,
    }
    return out


def _bordism_from_json(obj, where: str = "bordism") -> Bordism:
    dim = obj.get("dimension")
    if not _is_int(dim) or dim not in (1, 2):
        raise DocumentSyntaxError(f"{where}.dimension: must be 1 or 2")
    at = f"{where}.ambient"
    amb = _object(obj.get("ambient", {}), at)
    if dim == 1:
        ambient = Ambient1D(
            tuple(_rationals(iv, ivat) for ivat, iv in
                  _rows(amb.get("intervals", []), 2, f"{at}.intervals")),
            _rationals(amb.get("circles", []), f"{at}.circles"))
    else:
        ambient = Ambient2D(tuple(
            _rationals(box, boxat)
            for boxat, box in _rows(amb.get("boxes", []), 4, f"{at}.boxes")))
    grid = obj.get("grid")
    if not isinstance(grid, list) or not grid:
        raise DocumentSyntaxError(f"{where}: grid needs one tuple per direction")
    tuples = tuple(
        CutTuple(tuple(_cut_from_json(c, dim, f"{where}.grid[{i}][{j}]")
                       for j, c in enumerate(cuts)))
        for i, cuts in enumerate(grid))
    ell = obj.get("ell")
    if not _is_int(ell):
        raise DocumentSyntaxError(f"{where}.ell: need an integer")
    mgrid = MonoidalCutGrid(CutGrid(tuples), ell,
                            _ints(obj.get("labels"), f"{where}.labels"))
    field = _field_from_json(obj.get("field", {"kind": "trivial"}),
                             f"{where}.field")
    emb_obj = obj.get("embedding")
    embedding = (None if emb_obj is None
                 else _affine_from_json(emb_obj, dim, f"{where}.embedding"))
    return Bordism(ambient, mgrid, field, embedding, _uple(obj, where))


# ---------------------------------------------------------------------------
# family payloads
# ---------------------------------------------------------------------------


def _end_to_json(v):
    if isinstance(v, PLFunc):
        return _plf_to_json(v)
    return rational_to_text(v)


def _end_from_json(v, where: str):
    if isinstance(v, dict):
        return _plf_from_json(v, where)
    return rational_from_text(v, where)


def _family_to_json(fam: BordismFamily) -> dict:
    return {
        "t0": rational_to_text(fam.t0),
        "t1": rational_to_text(fam.t1),
        "intervals": [[_end_to_json(lo), _end_to_json(hi)]
                      for lo, hi in fam.intervals],
        "circles": [rational_to_text(L) for L in fam.circles],
        "tuples": [[{"components": [
            _component_to_json(c, [[_plf_to_json(z), s] for z, s in c.zeros])
            for c in cut.components]} for cut in tup] for tup in fam.tuples],
        "ell": fam.ell,
        "labels": list(fam.labels),
        "field_kind": fam.field_kind,
        "target_dim": fam.target_dim,
        "emb_scale": rational_to_text(fam.emb_scale),
        "emb_shift": None if fam.emb_shift is None else _plf_to_json(fam.emb_shift),
        "densities": [_plf_to_json(w) for w in fam.densities],
        "uple": fam.uple,
    }


def _family_from_json(obj, where: str = "family") -> BordismFamily:
    tuples = tuple(
        tuple(FamCut1D(_components_from_json(
            cut, f"{where}.tuples[{i}][{j}]", FamComponentCut1D, "zeros",
            _zero_parser(_plf_from_json))) for j, cut in enumerate(tup))
        for i, tup in enumerate(obj.get("tuples", [])))
    ell = obj.get("ell")
    target_dim = obj.get("target_dim", 1)
    if not _is_int(ell) or not _is_int(target_dim):
        raise DocumentSyntaxError(f"{where}: need integer ell and target_dim")
    field_kind = obj.get("field_kind", "embedded")
    if field_kind not in FIELD_KINDS:
        raise DocumentSyntaxError(
            f"{where}.field_kind: unknown field kind {field_kind!r}")
    shift_obj = obj.get("emb_shift")
    return BordismFamily(
        t0=rational_from_text(obj.get("t0", "0"), where),
        t1=rational_from_text(obj.get("t1", "1"), where),
        intervals=tuple(
            (_end_from_json(lo, f"{at}[0]"), _end_from_json(hi, f"{at}[1]"))
            for at, (lo, hi) in _rows(obj.get("intervals", []), 2,
                                       f"{where}.intervals")),
        circles=_rationals(obj.get("circles", []), f"{where}.circles"),
        tuples=tuples,
        ell=ell,
        labels=_ints(obj.get("labels"), f"{where}.labels"),
        field_kind=field_kind,
        target_dim=target_dim,
        emb_scale=rational_from_text(obj.get("emb_scale", "1"), where),
        emb_shift=None if shift_obj is None else _plf_from_json(shift_obj, where),
        densities=tuple(_plf_from_json(w, where)
                        for w in obj.get("densities", [])),
        uple=_uple(obj, where))


# ---------------------------------------------------------------------------
# finite fixtures
# ---------------------------------------------------------------------------


def _fincat_to_json(c: FinCategory) -> dict:
    return {
        "objects": [_val_to_json(x) for x in c.objects],
        "arrows": sorted(
            ([_val_to_json(f), _val_to_json(s), _val_to_json(t)]
             for f, (s, t) in c.arrows.items()),
            key=json.dumps),
        "identity": sorted(
            ([_val_to_json(x), _val_to_json(f)]
             for x, f in c.identity.items()),
            key=json.dumps),
        "then": sorted(
            ([_val_to_json(f), _val_to_json(g), _val_to_json(h)]
             for (f, g), h in c.then_table.items()),
            key=json.dumps),
    }


def _put(table: dict, key, value, at: str) -> None:
    """Enter the row at path at, which no earlier row may share a key with."""
    if key in table:
        raise DocumentSyntaxError(f"{at}: repeats the key {key!r} of an earlier row")
    table[key] = value


def _val_table(rows, width: int, where: str, keys: int = 1) -> dict:
    """The rows of the array rows as a table of fixture values, from each
    row's first keys entries to the rest (single entries unwrapped)."""
    table: dict = {}
    for at, row in _rows(rows, width, where):
        vals = tuple(_val_from_json(v, f"{at}[{j}]") for j, v in enumerate(row))
        key = vals[0] if keys == 1 else vals[:keys]
        _put(table, key, vals[keys] if width - keys == 1 else vals[keys:], at)
    return table


def _fincat_from_json(obj, where: str = "finite-category") -> FinCategory:
    objects = tuple(_val_from_json(x, f"{where}.objects[{i}]")
                    for i, x in enumerate(obj.get("objects", [])))
    arrows = _val_table(obj.get("arrows", []), 3, f"{where}.arrows")
    identity = _val_table(obj.get("identity", []), 2, f"{where}.identity")
    then = _val_table(obj.get("then", []), 3, f"{where}.then", keys=2)
    # no two rows share a pair, so the table lists the rows in order
    for n, ((f, g), h) in enumerate(then.items()):
        if f not in arrows or g not in arrows:
            raise DocumentSyntaxError(
                f"{where}.then[{n}]: the pair {f!r};{g!r} names no arrow")
        if h not in arrows:
            raise DocumentSyntaxError(
                f"{where}.then[{n}]: the composite {h!r} names no arrow")
    try:
        return FinCategory(objects, arrows, identity, then)
    except ValueError as exc:
        raise DocumentValidationError(
            f"{where}: {exc}",
            ValidationReport((ReportEntry("well-formed", False, str(exc)),)))


def _sset_to_json(x: TruncSSet) -> dict:
    return {
        "level": x.level,
        "simplices": [sorted((_val_to_json(v) for v in level), key=json.dumps)
                      for level in x.simplices],
        "faces": sorted(
            ([k, i, sorted(([_val_to_json(a), _val_to_json(b)]
                            for a, b in m.items()), key=json.dumps)]
             for (k, i), m in x.faces.items()),
            key=json.dumps),
        "degeneracies": sorted(
            ([k, i, sorted(([_val_to_json(a), _val_to_json(b)]
                            for a, b in m.items()), key=json.dumps)]
             for (k, i), m in x.degeneracies.items()),
            key=json.dumps),
    }


def _sset_maps(obj, key: str, where: str) -> dict:
    """The face or degeneracy maps: rows [k, i, [[a, b], ...]]."""
    maps: dict = {}
    for at, (k, i, m) in _rows(obj.get(key, []), 3, f"{where}.{key}"):
        if not (_is_int(k) and _is_int(i)):
            raise DocumentSyntaxError(f"{at}: degree and index must be integers")
        _put(maps, (k, i), _val_table(m, 2, f"{at}[2]"), at)
    return maps


def _sset_from_json(obj, where: str = "presheaf") -> TruncSSet:
    level = obj.get("level")
    if not _is_int(level) or level < 0:
        raise DocumentSyntaxError(f"{where}: level must be a natural number")
    simplices = tuple(
        frozenset(_val_from_json(v, f"{where}.simplices[{n}]") for v in lv)
        for n, lv in enumerate(obj.get("simplices", [])))
    faces = _sset_maps(obj, "faces", where)
    degeneracies = _sset_maps(obj, "degeneracies", where)
    try:
        return TruncSSet(level, simplices, faces, degeneracies)
    except ValueError as exc:
        raise DocumentValidationError(
            f"{where}: {exc}",
            ValidationReport((ReportEntry("well-formed", False, str(exc)),)))


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


# kind -> (payload type, writer, reader, check).  A finite fixture checks
# itself in its constructor, so a parsed one is well-formed.  The bordism
# checks are looked up by name when called, so a wrapper later set on this
# module's names (as the benchmark's tracer sets) sees every call.
_WELL_FORMED = ValidationReport((ReportEntry("well-formed", True),))
_KINDS = {
    "bordism": (Bordism, _bordism_to_json, _bordism_from_json,
                lambda b: validate(b)),
    "family": (BordismFamily, _family_to_json, _family_from_json,
               lambda fam: validate_family(fam)),
    "finite-category": (FinCategory, _fincat_to_json, _fincat_from_json,
                        lambda _: _WELL_FORMED),
    "presheaf": (TruncSSet, _sset_to_json, _sset_from_json,
                 lambda _: _WELL_FORMED),
}


@dataclass(frozen=True)
class Document:
    """A payload and an optional name.  The kind is not stored: it is read
    from the payload's type through ``_KINDS`` (with the kind's writer,
    reader and check), so every document serializes to text its parser
    accepts.  A payload of no kind is refused on construction."""

    payload: Payload
    name: Optional[str] = None

    def __post_init__(self) -> None:
        self.kind  # raises DocumentSyntaxError for a payload of no kind

    @property
    def kind(self) -> str:
        for kind, (cls, *_) in _KINDS.items():
            if isinstance(self.payload, cls):
                return kind
        raise DocumentSyntaxError(
            f"no document kind for payload of type {type(self.payload).__name__}")


def document_for(payload: Payload, name: Optional[str] = None) -> Document:
    return Document(payload, name)


def payload_report(doc: Document) -> ValidationReport:
    """The payload's own validation report, by the check of its kind."""
    return _KINDS[doc.kind][3](doc.payload)


def serialize_document(doc: Document) -> str:
    kind = doc.kind
    out = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "kind": kind}
    if doc.name is not None:
        out["name"] = doc.name
    out["payload"] = _KINDS[kind][1](doc.payload)
    return json.dumps(out, indent=2) + "\n"


def parse_document(text: str, check: bool = True) -> Document:
    """Parse and (by default) semantically validate a document.

    Raises DocumentSyntaxError (with line/column for JSON errors) on
    malformed input, including input that nests too deeply for the JSON
    reader or the payload builders to recurse through, and
    DocumentValidationError, carrying the full report, when the payload
    is well-formed JSON but invalid data.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(exc.msg, exc.lineno, exc.colno)
    except RecursionError:
        raise DocumentSyntaxError("document nests too deeply") from None
    if not isinstance(obj, dict):
        raise DocumentSyntaxError("document must be a JSON object")
    if obj.get("format") != FORMAT_NAME:
        raise DocumentSyntaxError(
            f"not a {FORMAT_NAME} file (format = {obj.get('format')!r})")
    version = obj.get("version")
    if not _is_int(version) or version != FORMAT_VERSION:
        raise DocumentSyntaxError(f"unrecognized version {version!r}")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise DocumentSyntaxError(f"unknown document kind {kind!r}")
    payload_obj = obj.get("payload")
    if not isinstance(payload_obj, dict):
        raise DocumentSyntaxError("missing payload object")
    try:
        payload = _KINDS[kind][2](payload_obj)
    except (DocumentSyntaxError, DocumentValidationError):
        raise
    except (ValidationError, ValueError, TypeError, KeyError) as exc:
        raise DocumentSyntaxError(f"malformed {kind} payload: {exc}")
    except RecursionError:
        raise DocumentSyntaxError(
            f"malformed {kind} payload: nests too deeply") from None
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise DocumentSyntaxError("name must be a string")
    doc = Document(payload, name)
    if check:
        report = payload_report(doc)
        if not report.passed:
            first = report.failures()[0]
            raise DocumentValidationError(
                f"{kind} payload failed validation: {first}", report)
    return doc
