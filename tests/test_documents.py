"""Round-trip and error handling tests for the JSON document format."""

import json
from dataclasses import fields
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutgrids.bordisms import catalog
from cutgrids.documents import (
    FORMAT_NAME,
    Document,
    document_for,
    parse_document,
    rational_from_text,
    rational_to_text,
    serialize_document,
)
from cutgrids.errors import DocumentSyntaxError, DocumentValidationError
from cutgrids.finitecat import cyclic_group_category, nerve
from cutgrids.plgeom import INF, NEG_INF

from fixtures import chain_poset, deeply_nested_documents


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
