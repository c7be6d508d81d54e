"""Round-trip and error handling tests for the JSON document format."""

import json
from dataclasses import fields
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutgrids.bordisms import CATALOG_NAMES, Bordism, catalog, embedded_field
from cutgrids.documents import (
    FORMAT_NAME,
    Document,
    _write_json,
    document_for,
    parse_document,
    rational_from_text,
    rational_to_text,
    serialize_document,
)
from cutgrids.errors import (
    DocumentEncodingError,
    DocumentSyntaxError,
    DocumentValidationError,
)
from cutgrids.finitecat import cyclic_group_category, nerve
from cutgrids.grids import (
    AffineMap,
    ComponentCut1D,
    Cut1D,
    CutGrid,
    CutTuple,
    MonoidalCutGrid,
)
from cutgrids.plgeom import INF, NEG_INF, Ambient1D

from fixtures import (
    chain_poset,
    cospan_poset,
    deeply_nested_documents,
    discrete_category,
    disjoint_union_category,
    parallel_pair_category,
)
from oracles import reference_serialize_document


def elbow_text():
    return serialize_document(document_for(catalog("elbow_right")))


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def test_round_trip_preserves_every_payload_kind():
    payloads = [
        catalog("elbow_right"),
        catalog("composable_pair_2d"),
        catalog("circle_trace"),
        catalog("metric_interval"),
        catalog("triangle_family"),
        catalog("point_isotopy"),
        chain_poset(2),
        nerve(cyclic_group_category(2), 2),
    ]
    for payload in payloads:
        text = serialize_document(document_for(payload))
        back = parse_document(text)
        assert back.payload == payload
        assert serialize_document(back) == text


def test_document_kinds_follow_the_payload_type():
    assert document_for(catalog("point1d")).kind == "bordism"
    assert document_for(catalog("point_isotopy")).kind == "family"
    assert document_for(chain_poset(1)).kind == "finite-category"
    assert document_for(nerve(chain_poset(1), 1)).kind == "presheaf"
    with pytest.raises(DocumentSyntaxError, match="no document kind"):
        document_for(42)


def test_a_document_reads_its_kind_from_its_payload():
    assert [f.name for f in fields(Document)] == ["payload", "name"]
    doc = Document(chain_poset(1), "arrow")
    assert doc.kind == "finite-category"
    text = serialize_document(doc)
    assert json.loads(text)["version"] == 1
    assert parse_document(text) == doc
    with pytest.raises(DocumentSyntaxError, match="no document kind"):
        Document(42)


@pytest.mark.parametrize("version", [True, 1.0, "1", 2])
def test_a_document_version_is_the_integer_1(version):
    obj = json.loads(elbow_text())
    obj["version"] = version
    with pytest.raises(DocumentSyntaxError, match="unrecognized version"):
        parse_document(json.dumps(obj))


def test_serialization_is_deterministic():
    a = serialize_document(document_for(catalog("composable_pair_2d"), "x"))
    b = serialize_document(document_for(catalog("composable_pair_2d"), "x"))
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a)["format"] == FORMAT_NAME


def test_names_survive_the_round_trip():
    doc = document_for(catalog("point1d"), "my favourite point")
    assert parse_document(serialize_document(doc)).name == "my favourite point"
    anonymous = document_for(catalog("point1d"))
    assert parse_document(serialize_document(anonymous)).name is None


# ---------------------------------------------------------------------------
# the writer
# ---------------------------------------------------------------------------

# names with quotes, a backslash, control characters, U+2028 and characters
# outside the BMP, each of which json escapes
AWKWARD_NAMES = ['say "cut"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f",
                 "line\u2028separator", "emoji \U0001F600 \U00010000", "é ü 中", ""]


@pytest.mark.parametrize("example", CATALOG_NAMES)
def test_catalog_documents_are_written_as_json_writes_them(example):
    payload = catalog(example)
    for name in (None, example, *AWKWARD_NAMES):
        doc = document_for(payload, name)
        assert serialize_document(doc) == reference_serialize_document(doc)


FINITE_CATEGORIES = {
    "discrete": discrete_category(3),
    "chain": chain_poset(2),
    "cospan": cospan_poset(),
    "parallel pair": parallel_pair_category(),
    "disjoint union": disjoint_union_category(chain_poset(1), cospan_poset()),
    "cyclic group": cyclic_group_category(3),
}


@pytest.mark.parametrize("fixture", FINITE_CATEGORIES)
def test_finite_fixtures_are_written_as_json_writes_them(fixture):
    category = FINITE_CATEGORIES[fixture]
    for payload in (category, nerve(category, 0), nerve(category, 2)):
        for name in (None, fixture):
            doc = document_for(payload, name)
            assert serialize_document(doc) == reference_serialize_document(doc)


def written(tree) -> str:
    parts = []
    _write_json(tree, "\n", parts.append)
    return "".join(parts)


json_leaves = (st.none() | st.booleans() | st.text()
               | st.integers() | st.integers(min_value=-10**60, max_value=10**60))
json_trees = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner,
                                                                max_size=4),
    max_leaves=30)


@given(json_trees)
@settings(max_examples=300, deadline=None)
def test_the_writer_writes_what_json_writes(tree):
    assert written(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize("tree", [
    1.5, [0, 2.0], {"a": float("inf")}, {1: "a"}, {"a": {None: 1}}, (1, 2),
    {"a": [b"bytes"]}, F(1, 2)])
def test_the_writer_refuses_what_documents_never_hold(tree):
    # floats (json would write them), keys that are not strings (json would
    # convert them) and tuples (json would write them as arrays) included
    with pytest.raises(TypeError) as caught:
        written(tree)
    assert isinstance(caught.value, DocumentEncodingError)


def linear_document(m: int) -> Document:
    """A bordism on two windows of the line with m + 1 nested cuts, each
    with one zero a window, as the linear benchmark builds them."""
    windows = ((F(0), F(80)), (F(100), F(180)))
    cuts = tuple(Cut1D(tuple(ComponentCut1D("zeros", ((lo + F(8 + 9 * j, 4), "+"),))
                             for lo, _hi in windows))
                 for j in range(m + 1))
    mgrid = MonoidalCutGrid(CutGrid((CutTuple(cuts),)), 2, (1, 2))
    return document_for(Bordism(Ambient1D(windows), mgrid, embedded_field(1),
                                AffineMap.identity(1)), f"m={m}")


@pytest.mark.parametrize("doc", [linear_document(32),
                                 document_for(catalog("composable_pair_2d"))],
                         ids=["linear m=32", "composable_pair_2d"])
def test_the_writer_runs_no_pure_python_json_encoder(monkeypatch, doc):
    # json takes _make_iterencode for any indent, once per json.dumps call
    calls = []
    make = json.encoder._make_iterencode

    def counted(*args, **kwargs):
        calls.append(1)
        return make(*args, **kwargs)

    monkeypatch.setattr(json.encoder, "_make_iterencode", counted)
    text = serialize_document(doc)
    assert len(calls) == 0
    assert parse_document(text) == doc
    reference_serialize_document(doc)
    assert len(calls) == 1


def test_rational_text_copies_no_rational(monkeypatch):
    values = [F(-3, 4), F(5), F(0), 7, -2, 10**40, F(-10**40, 3)]
    new = F.__new__
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return new(*args, **kwargs)

    monkeypatch.setattr(F, "__new__", counted)
    texts = [rational_to_text(v) for v in values]
    assert calls == []
    assert texts == ["-3/4", "5", "0", "7", "-2", str(10**40), f"-{10**40}/3"]
    F(1)
    assert calls == [1]


# ---------------------------------------------------------------------------
# rational text encoding
# ---------------------------------------------------------------------------

def test_rational_text_forms():
    assert rational_to_text(F(-3, 4)) == "-3/4"
    assert rational_to_text(F(5)) == "5"
    assert rational_to_text(F(2, 1)) == "2"
    assert rational_to_text(INF) == "+inf"
    assert rational_to_text(NEG_INF) == "-inf"
    assert rational_from_text("-3/4") == F(-3, 4)
    assert rational_from_text(7) == F(7)
    assert rational_from_text("+inf") == INF
    assert rational_from_text("-inf") == NEG_INF


def test_rational_text_rejects_malformed_input():
    with pytest.raises(DocumentSyntaxError, match="zero denominator"):
        rational_from_text("1/0")
    with pytest.raises(DocumentSyntaxError, match="malformed rational"):
        rational_from_text("a/b")
    with pytest.raises(DocumentSyntaxError, match="malformed rational"):
        rational_from_text("1/2/3")
    with pytest.raises(DocumentSyntaxError, match="expected a rational"):
        rational_from_text(1.5)
    with pytest.raises(DocumentSyntaxError, match="expected a rational"):
        rational_from_text(True)


@pytest.mark.parametrize("text", [
    "1_000", " 3 ", "+2", "1/+2", "-1/-2", "\u0663/\u0664", "1 /2", "1\n"])
def test_rational_text_outside_its_grammar_is_malformed(text):
    # int() would take each part of these, but the writer never emits them
    with pytest.raises(DocumentSyntaxError, match="malformed rational"):
        rational_from_text(text)


@pytest.mark.parametrize("text, canonical", [
    ("-0", "0"), ("007", "7"), ("2/4", "1/2"), ("3/1", "3"), ("-0/5", "0"),
    ("0/7", "0"), ("-06/4", "-3/2"), ("1/01", "1")])
def test_rational_text_the_writer_would_write_otherwise_is_rejected(text, canonical):
    # each would read back as a value whose text differs, so a document
    # holding it would not round-trip to itself
    assert rational_to_text(F(text)) == canonical
    message = f"x: non-canonical rational '{text}' (write '{canonical}')"
    with pytest.raises(DocumentSyntaxError) as raised:
        rational_from_text(text, "x")
    assert str(raised.value) == message


@given(st.fractions(min_value=-1000, max_value=1000))
@settings(max_examples=200, deadline=None)
def test_rational_text_round_trips(q):
    assert rational_from_text(rational_to_text(q)) == q


# ---------------------------------------------------------------------------
# parse errors
# ---------------------------------------------------------------------------

def test_json_errors_carry_their_position():
    broken = '{"format": "cutgrids-document",\n  "version": 1,, "kind": "b"}'
    with pytest.raises(DocumentSyntaxError) as caught:
        parse_document(broken)
    assert str(caught.value).startswith("line 2, column 16:")
    assert caught.value.line == 2
    assert caught.value.column == 16


def test_envelope_guards():
    with pytest.raises(DocumentSyntaxError, match="must be a JSON object"):
        parse_document("[1, 2]")
    with pytest.raises(DocumentSyntaxError, match="not a cutgrids-document"):
        parse_document('{"format": "something-else"}')

    obj = json.loads(elbow_text())
    obj["version"] = 9
    with pytest.raises(DocumentSyntaxError, match="unrecognized version"):
        parse_document(json.dumps(obj))

    obj = json.loads(elbow_text())
    obj["kind"] = "poem"
    with pytest.raises(DocumentSyntaxError, match="unknown document kind"):
        parse_document(json.dumps(obj))

    obj = json.loads(elbow_text())
    obj["payload"] = 3
    with pytest.raises(DocumentSyntaxError, match="missing payload"):
        parse_document(json.dumps(obj))

    obj = json.loads(elbow_text())
    obj["name"] = 3
    with pytest.raises(DocumentSyntaxError, match="name must be a string"):
        parse_document(json.dumps(obj))


def test_malformed_payload_values_are_syntax_errors():
    obj = json.loads(elbow_text())
    obj["payload"]["grid"][0][0]["components"][0]["zeros"] = [["0", "*"]]
    with pytest.raises(DocumentSyntaxError, match="expected '\\+' or '-'"):
        parse_document(json.dumps(obj))
    family = serialize_document(document_for(catalog("triangle_family")))
    for key, value in (("uple", "no"), ("labels", [True]),
                       ("field_kind", "bogus"), ("field_kind", 5)):
        obj = json.loads(family)
        obj["payload"][key] = value
        with pytest.raises(DocumentSyntaxError, match=f"family.{key}"):
            parse_document(json.dumps(obj))


@pytest.mark.parametrize("example, cuts, kind", [
    ("elbow_right", "grid", "bordism"),
    ("triangle_family", "tuples", "family"),
])
def test_a_whole_component_needs_its_side(example, cuts, kind):
    # the writer always writes a whole component's side, so the reader
    # reads no default for it
    obj = json.loads(serialize_document(document_for(catalog(example))))
    obj["payload"][cuts][0][0]["components"][0] = {"kind": "whole"}
    with pytest.raises(DocumentSyntaxError) as caught:
        parse_document(json.dumps(obj))
    assert str(caught.value) == f"{kind}.{cuts}[0][0].components[0]: bad side None"
    obj["payload"][cuts][0][0]["components"][0]["side"] = "below"
    parse_document(json.dumps(obj), check=False)


PL_FUNCTION_SITES = {
    # a PL function of each kind of payload, and the path its errors name
    "sheet graph": ("composable_pair_2d",
                    ("grid", 0, 0, "components", 0, "sheets", 0, "graph"),
                    "bordism.grid[0][0].components[0].sheets[0].graph"),
    "metric density": ("metric_interval", ("field", "densities", 0),
                       "bordism.field.densities[0]"),
    "family zero": ("triangle_family",
                    ("tuples", 0, 0, "components", 0, "zeros", 0, 0),
                    "family.tuples[0][0].components[0].zeros[0][0]"),
    "family shift": ("triangle_family", ("emb_shift",), "family.emb_shift"),
}


def pl_function_error(site, **entries):
    """The syntax error of the catalog document of a PL_FUNCTION_SITES
    site, its PL function's entries replaced by the given ones."""
    example, path, _where = PL_FUNCTION_SITES[site]
    obj = json.loads(serialize_document(document_for(catalog(example))))
    parent = obj["payload"]
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = {**(parent[path[-1]] or {}), **entries}  # a null shift too
    with pytest.raises(DocumentSyntaxError) as caught:
        parse_document(json.dumps(obj))
    return str(caught.value)


@pytest.mark.parametrize("site", PL_FUNCTION_SITES)
def test_pl_function_breakpoints_and_values_must_be_arrays(site):
    # a string is not read character by character as an array of rationals
    where = PL_FUNCTION_SITES[site][2]
    assert (pl_function_error(site, breakpoints="12", values="34")
            == f"{where}.breakpoints: expected an array")
    assert (pl_function_error(site, breakpoints=["0"], values="3")
            == f"{where}.values: expected an array")


@pytest.mark.parametrize("site", PL_FUNCTION_SITES)
def test_a_bad_pl_function_entry_names_its_path(site):
    where = PL_FUNCTION_SITES[site][2]
    assert (pl_function_error(site, breakpoints=["0", "x"], values=["1", "2"])
            == f"{where}.breakpoints[1]: malformed rational 'x'")
    assert (pl_function_error(site, breakpoints=["0", "1"], values=["1", "2/4"])
            == f"{where}.values[1]: non-canonical rational '2/4' (write '1/2')")
    assert (pl_function_error(site, left_slope="x")
            == f"{where}.left_slope: malformed rational 'x'")
    assert (pl_function_error(site, right_slope="2/4")
            == f"{where}.right_slope: non-canonical rational '2/4' (write '1/2')")


@pytest.mark.parametrize("key", ["t0", "t1", "emb_scale"])
def test_a_bad_family_rational_names_its_key(key):
    obj = json.loads(serialize_document(document_for(catalog("triangle_family"))))
    obj["payload"][key] = "x"
    with pytest.raises(DocumentSyntaxError) as caught:
        parse_document(json.dumps(obj))
    assert str(caught.value) == f"family.{key}: malformed rational 'x'"
    obj["payload"][key] = 1.5
    with pytest.raises(DocumentSyntaxError) as caught:
        parse_document(json.dumps(obj))
    assert str(caught.value) == (
        f"family.{key}: expected a rational string, got float")


ARRAY_SITES = {
    # an array of each kind of payload that is read entry by entry, and
    # the path its error names
    "metric densities": (lambda: catalog("metric_interval"),
                         ("field", "densities"), "bordism.field.densities"),
    "cuts of a direction": (lambda: catalog("elbow_right"),
                            ("grid", 0), "bordism.grid[0]"),
    "family tuples": (lambda: catalog("triangle_family"),
                      ("tuples",), "family.tuples"),
    "cuts of a family tuple": (lambda: catalog("triangle_family"),
                               ("tuples", 0), "family.tuples[0]"),
    "family densities": (lambda: catalog("triangle_family"),
                         ("densities",), "family.densities"),
    "objects": (lambda: chain_poset(2), ("objects",), "finite-category.objects"),
    "simplices": (lambda: nerve(chain_poset(1), 1),
                  ("simplices",), "presheaf.simplices"),
    "simplices of a degree": (lambda: nerve(chain_poset(1), 1),
                              ("simplices", 1), "presheaf.simplices[1]"),
}


@pytest.mark.parametrize("site", ARRAY_SITES)
@pytest.mark.parametrize("value", [{}, "", "01", {"0": "1"}])
def test_payload_arrays_must_be_arrays(site, value):
    # none is read as an empty array or character by character
    payload, path, where = ARRAY_SITES[site]
    obj = json.loads(serialize_document(document_for(payload())))
    parent = obj["payload"]
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(DocumentSyntaxError) as caught:
        parse_document(json.dumps(obj))
    assert str(caught.value) == f"{where}: expected an array"


def test_too_deep_a_document_is_a_syntax_error():
    texts = deeply_nested_documents()
    with pytest.raises(DocumentSyntaxError, match="^document nests too deeply$"):
        parse_document(texts["array"])
    with pytest.raises(DocumentSyntaxError,
                       match="^malformed finite-category payload: nests too deeply$"):
        parse_document(texts["object"])


def test_tampered_payload_fails_validation_with_a_report():
    """Well-formed JSON carrying bad data parses but fails the semantic
    check; the full report rides on the exception, and check=False
    skips the gate."""
    obj = json.loads(elbow_text())
    comp = obj["payload"]["grid"][0][0]["components"][0]
    comp["zeros"] = [["1", "+"], ["0", "-"]]
    text = json.dumps(obj)
    with pytest.raises(DocumentValidationError) as caught:
        parse_document(text)
    failed = [entry.name for entry in caught.value.report.failures()]
    assert failed[0] == "cuts-valid[1]"
    unchecked = parse_document(text, check=False)
    assert unchecked.kind == "bordism"
