"""End-to-end tests for the command line, run in-process through main()."""

import argparse
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cutgrids
from cutgrids import grids, plgeom, render
from cutgrids.bordisms import Bordism, catalog, embedded_field, shrink_to_core
from cutgrids.cli import main
from cutgrids.documents import document_for, parse_document, serialize_document
from cutgrids.errors import ArgumentError
from cutgrids.finitecat import TruncSSet, nerve
from cutgrids.grids import (AffineMap, ComponentCut1D, Cut1D, CutGrid, CutTuple,
                            MonoidalCutGrid)
from cutgrids.plgeom import Ambient1D

from fixtures import chain_poset, deeply_nested_documents, perturbed_pair


def write_doc(tmp_path, payload, stem):
    path = tmp_path / f"{stem}.json"
    path.write_text(serialize_document(document_for(payload, stem)))
    return str(path)


def triangle_boundary() -> TruncSSet:
    # all monotone vertex triples except the nondegenerate interior (0,1,2)
    verts = frozenset((i,) for i in range(3))
    edges = frozenset((i, j) for i in range(3) for j in range(3) if i <= j)
    tris = frozenset(
        t
        for t in itertools.combinations_with_replacement(range(3), 3)
        if t != (0, 1, 2)
    )
    faces = {}
    for k, cells in ((1, edges), (2, tris)):
        for i in range(k + 1):
            faces[(k, i)] = {c: c[:i] + c[i + 1:] for c in cells}
    degeneracies = {}
    for k, cells in ((0, verts), (1, edges)):
        for i in range(k + 1):
            degeneracies[(k, i)] = {c: c[: i + 1] + c[i:] for c in cells}
    return TruncSSet(2, (verts, edges, tris), faces, degeneracies)


def test_examples_reports_every_catalog_item(capsys):
    assert main(["examples"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(line.endswith(": pass") for line in lines)
    assert any(line.startswith("circle_trace:") for line in lines)


def test_examples_emits_one_item(tmp_path, capsys):
    out = tmp_path / "elbow.json"
    assert main(["examples", "elbow_right", "-o", str(out)]) == 0
    doc = parse_document(out.read_text())
    assert doc.kind == "bordism"
    assert doc.name == "elbow_right"
    assert main(["examples", "nonsense"]) == 1
    assert "unknown example" in capsys.readouterr().err


def test_validate_prints_a_report_line_per_check(tmp_path, capsys):
    f = write_doc(tmp_path, catalog("elbow_right"), "elbow")
    assert main(["validate", f]) == 0
    out = capsys.readouterr().out
    assert "[pass] labels" in out
    assert "[FAIL]" not in out


def test_validate_fails_on_bad_payload_data(tmp_path, capsys):
    f = edit_payload(tmp_path, catalog("elbow_right"), "elbow",
                     lambda p: p["grid"][0][0]["components"][0].__setitem__(
                         "zeros", [["1", "+"], ["0", "-"]]))
    assert main(["validate", f]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_parse_errors_exit_2(tmp_path, capsys):
    f = tmp_path / "broken.json"
    f.write_text('{"format": "cutgrids-document",\n  "version": 1,,}')
    assert main(["validate", str(f)]) == 2
    assert capsys.readouterr().err.startswith("error: line 2")
    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    doc = json.loads(serialize_document(document_for(catalog("elbow_right"))))
    doc["kind"] = []
    f.write_text(json.dumps(doc))
    assert main(["validate", str(f)]) == 2
    assert "unknown document kind []" in capsys.readouterr().err


def test_an_input_that_is_not_utf8_exits_2(tmp_path, capsys):
    f = tmp_path / "utf16.json"
    f.write_bytes(b"\xff\xfe{\x00}\x00")
    assert main(["validate", str(f)]) == 2
    assert capsys.readouterr().err == \
        f"error: cannot read {f}: not UTF-8 text (byte 0)\n"


@pytest.mark.parametrize("kind", ["array", "object"])
def test_too_deep_a_document_exits_2(tmp_path, capsys, kind):
    f = tmp_path / "deep.json"
    f.write_text(deeply_nested_documents()[kind])
    assert main(["validate", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.endswith("nests too deeply\n") and err.count("\n") == 1


OUTPUT_COMMANDS = {
    "compose": lambda f: ["compose", f["tri"], "--direction", "1", "--face", "1"],
    "boundary": lambda f: ["boundary", f["tri"], "--direction", "1",
                           "--vertex", "0"],
    "product": lambda f: ["product", f["near"], f["far"]],
    "family-eval": lambda f: ["family-eval", f["fam"], "--t", "1/2"],
    "examples": lambda f: ["examples", "point1d"],
    "render": lambda f: ["render", f["tri"]],
}


@pytest.mark.parametrize("target", ["empty", "missing directory", "directory"])
@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
def test_an_unwritable_output_exits_2(tmp_path, capsys, command, target):
    files = {
        "tri": write_doc(tmp_path, catalog("triangle_interval"), "tri"),
        "near": write_doc(tmp_path, shrink_to_core(catalog("point1d"), 1), "near"),
        "far": write_doc(tmp_path, shrink_to_core(catalog("point1d", 5, "-"), 1),
                         "far"),
        "fam": write_doc(tmp_path, catalog("triangle_family"), "fam"),
    }
    out, why = {"empty": ("", "No such file or directory"),
                "missing directory": (str(tmp_path / "nowhere" / "out"),
                                      "No such file or directory"),
                "directory": (str(tmp_path), "Is a directory")}[target]
    assert main(OUTPUT_COMMANDS[command](files) + ["-o", out]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out}: {why}\n"
    assert captured.out == ""


def test_usage_errors_exit_2(tmp_path):
    f = write_doc(tmp_path, catalog("triangle_interval"), "tri")
    with pytest.raises(SystemExit) as stop:
        main(["compose", f])  # --direction/--face are required
    assert stop.value.code == 2


def test_compose_writes_the_composed_document(tmp_path, capsys):
    f = write_doc(tmp_path, catalog("triangle_interval"), "tri")
    out = tmp_path / "composed.json"
    assert main(["compose", f, "--direction", "1", "--face", "1",
                 "-o", str(out)]) == 0
    composed = parse_document(out.read_text()).payload
    zs = [c.components[0].zeros for c in composed.mgrid.grid.tuples[0].cuts]
    assert zs == [((-1, "+"),), ((1, "+"),)]
    assert main(["compose", f, "--direction", "1", "--face", "0"]) == 1
    assert "inner face index" in capsys.readouterr().err


def test_boundary_extracts_a_vertex(tmp_path):
    f = write_doc(tmp_path, catalog("triangle_interval"), "tri")
    out = tmp_path / "source.json"
    assert main(["boundary", f, "--direction", "1", "--vertex", "0",
                 "-o", str(out)]) == 0
    vertex = parse_document(out.read_text()).payload
    assert vertex.mgrid.grid.tuples[0].cuts[0].components[0].zeros == \
        ((-1, "+"),)
    assert main(["boundary", f, "--direction", "5", "--vertex", "0"]) == 1
    assert main(["compose", f, "--direction", "0", "--face", "1"]) == 1


def edit_payload(tmp_path, payload, stem, edit):
    """A document of payload, changed by edit(payload object) on disk."""
    f = write_doc(tmp_path, payload, stem)
    with open(f, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc["payload"])
    with open(f, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return f


@pytest.mark.parametrize("key, value", [
    ("ambient", []),
    ("field", []),
    ("embedding", [1]),
    ("dimension", True),
    ("grid", [["not a cut"]]),
    ("uple", "no"),
    ("labels", [True]),
])
def test_validate_rejects_mistyped_payload_fields(tmp_path, capsys, key,
                                                  value):
    f = edit_payload(tmp_path, catalog("elbow_right"), "elbow",
                     lambda p: p.__setitem__(key, value))
    assert main(["validate", f]) == 2
    assert f"bordism.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("example, path, where", [
    ("point2d", ["grid", 1, 0, "axis"], "bordism.grid[1][0]"),
    ("elbow_right", ["grid", 0, 0, "components", 0, "zeros", 0, 0],
     "bordism.grid[0][0].components[0]"),
    ("elbow_right", ["ambient", "intervals", 0, 0],
     "bordism.ambient.intervals[0][0]"),
    ("circle_trace", ["ambient", "circles", 0], "bordism.ambient.circles[0]"),
    ("point2d", ["ambient", "boxes", 0, 2], "bordism.ambient.boxes[0][2]"),
    ("point2d", ["embedding", "perm", 0], "bordism.embedding.perm"),
])
def test_validate_rejects_bools_in_nested_fields(tmp_path, capsys, example,
                                                 path, where):
    def edit(node):
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = True

    f = edit_payload(tmp_path, catalog(example), example, edit)
    assert main(["validate", f]) == 2
    assert where in capsys.readouterr().err


ZEROS = ["components", 0, "zeros"]


@pytest.mark.parametrize("example, path, value, where", [
    ("point2d", ["embedding", "perm", 0], 1.0, "bordism.embedding.perm"),
    ("point2d", ["embedding", "perm", 0], "1", "bordism.embedding.perm"),
    ("point2d", ["embedding", "coeffs"], 5, "bordism.embedding.coeffs"),
    ("point1d", ["grid", 0, 0] + ZEROS, [["0"]],
     "bordism.grid[0][0].components[0].zeros[0]"),
    ("point1d", ["grid", 0, 0] + ZEROS, 5,
     "bordism.grid[0][0].components[0].zeros"),
    ("point2d", ["grid", 0, 0, "components", 0, "sheets"], 5,
     "bordism.grid[0][0].components[0].sheets"),
    ("triangle_family", ["tuples", 0, 0] + ZEROS + [0], [{}],
     "family.tuples[0][0].components[0].zeros[0]"),
    ("metric_interval", ["field", "densities"], {}, "bordism.field.densities"),
    ("triangle_family", ["tuples"], {}, "family.tuples"),
    ("triangle_family", ["densities"], "", "family.densities"),
])
def test_validate_names_mistyped_nested_fields(tmp_path, capsys, example,
                                               path, value, where):
    def edit(node):
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value

    f = edit_payload(tmp_path, catalog(example), example, edit)
    assert main(["validate", f]) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("example, kind, cuts", [
    ("elbow_right", "bordism", "grid"),
    ("triangle_family", "family", "tuples"),
])
@pytest.mark.parametrize("command", ["validate", "render"])
def test_a_component_without_zeros_fails_at_parse(tmp_path, capsys, example,
                                                  kind, cuts, command):
    # a family's cut components make the same shape checks as a bordism's
    f = edit_payload(tmp_path, catalog(example), example,
                     lambda p: p[cuts][0][0]["components"].__setitem__(
                         0, {"kind": "zeros", "zeros": []}))
    assert main([command, f, "-o", str(tmp_path / "out.svg")]
                if command == "render" else [command, f]) == 2
    assert capsys.readouterr().err == (
        f"error: malformed {kind} payload: "
        "kind='zeros' requires at least one zero\n")


@pytest.mark.parametrize("example, kind, cuts", [
    ("elbow_right", "bordism", "grid"),
    ("triangle_family", "family", "tuples"),
])
def test_a_whole_component_without_a_side_exits_2(tmp_path, capsys, example,
                                                   kind, cuts):
    f = edit_payload(tmp_path, catalog(example), example,
                     lambda p: p[cuts][0][0]["components"].__setitem__(
                         0, {"kind": "whole"}))
    assert main(["validate", f]) == 2
    assert capsys.readouterr().err == (
        f"error: {kind}.{cuts}[0][0].components[0]: bad side None\n")


@pytest.mark.parametrize("example, kind, cuts", [
    ("elbow_right", "bordism", "grid"),
    ("triangle_family", "family", "tuples"),
])
@pytest.mark.parametrize("command", ["validate", "render"])
def test_an_empty_cut_tuple_fails_at_parse_naming_its_path(tmp_path, capsys, example,
                                                         kind, cuts, command):
    # a family's empty tuple used to parse and fail the check with exit 1
    f = edit_payload(tmp_path, catalog(example), example,
                     lambda p: p[cuts].__setitem__(0, []))
    assert main([command, f, "-o", str(tmp_path / "out.svg")]
                if command == "render" else [command, f]) == 2
    assert capsys.readouterr().err == (
        f"error: {kind}.{cuts}[0]: a cut tuple needs at least one cut\n")


def test_a_sheet_graph_that_is_not_an_array_exits_2(tmp_path, capsys):
    # the strings were read as the breakpoints [1, 2] and values [3, 4]
    def edit(p):
        p["grid"][0][0]["components"][0]["sheets"][0]["graph"].update(
            breakpoints="12", values="34")
    f = edit_payload(tmp_path, catalog("composable_pair_2d"), "pair", edit)
    assert main(["validate", f]) == 2
    assert capsys.readouterr().err == (
        "error: bordism.grid[0][0].components[0].sheets[0].graph.breakpoints: "
        "expected an array\n")


@pytest.mark.parametrize("example, key, value, where", [
    ("elbow_right", "intervals", [["0"]], "bordism.ambient.intervals[0]"),
    ("elbow_right", "intervals", ["0"], "bordism.ambient.intervals[0]"),
    ("point2d", "boxes", [["0", "1", "0"]], "bordism.ambient.boxes[0]"),
    ("elbow_right", "circles", "4", "bordism.ambient.circles"),
])
def test_validate_rejects_misshapen_ambients(tmp_path, capsys, example, key,
                                             value, where):
    f = edit_payload(tmp_path, catalog(example), example,
                     lambda p: p["ambient"].__setitem__(key, value))
    assert main(["validate", f]) == 2
    assert where in capsys.readouterr().err


LE00, LE01, LE11 = ["le", 0, 0], ["le", 0, 1], ["le", 1, 1]
# the composition table of chain_poset(1), as its document lists it
CHAIN_THEN = [[LE00, LE00, LE00], [LE00, LE01, LE01], [LE01, LE11, LE01],
              [LE11, LE11, LE11]]


@pytest.mark.parametrize("payload, key, value, where", [
    (nerve(chain_poset(1), 1), "level", True, "presheaf: level"),
    (chain_poset(1), "objects", [True], "finite-category.objects[0]"),
    (chain_poset(1), "arrows", [["f", 0]], "finite-category.arrows[0]"),
    (chain_poset(1), "identity", [[0]], "finite-category.identity[0]"),
    (chain_poset(1), "then", [["f", "g"]], "finite-category.then[0]"),
    (nerve(chain_poset(1), 1), "faces", [[1, 0]], "presheaf.faces[0]"),
    (nerve(chain_poset(1), 1), "degeneracies", [[0, 0, [[[0]]]]],
     "presheaf.degeneracies[0][2][0]"),
    # a key repeated by a later row, which would silently replace the first
    (chain_poset(1), "arrows", [["f", 0, 0], ["f", 0, 1]],
     "finite-category.arrows[1]"),
    (chain_poset(1), "identity", [[0, "f"], [0, "g"]],
     "finite-category.identity[1]"),
    (chain_poset(1), "then", [[LE00, LE01, LE00]] + CHAIN_THEN,
     "finite-category.then[2]"),
    (nerve(chain_poset(1), 1), "faces", [[1, 0, []], [1, 0, []]],
     "presheaf.faces[1]"),
    (nerve(chain_poset(1), 1), "degeneracies",
     [[0, 0, [[0, [LE00]], [0, [LE00]], [1, [LE11]]]]],
     "presheaf.degeneracies[0][2][1]"),
    # a face or degeneracy degree or index that is no integer
    (nerve(chain_poset(1), 1), "faces", [[True, 0, []]], "presheaf.faces[0]"),
    (nerve(chain_poset(1), 1), "degeneracies", [[0, "0", []]],
     "presheaf.degeneracies[0]"),
    # a then row whose pair names no arrow
    (chain_poset(1), "then", CHAIN_THEN + [["x", "y", LE00]],
     "finite-category.then[4]"),
    # a then row whose composite names no arrow
    (chain_poset(1), "then", [[LE00, LE00, "nope"]] + CHAIN_THEN[1:],
     "finite-category.then[0]"),
])
def test_validate_rejects_misshapen_fixtures(tmp_path, capsys, payload, key,
                                             value, where):
    f = edit_payload(tmp_path, payload, "fixture",
                     lambda p: p.__setitem__(key, value))
    assert main(["validate", f]) == 2
    assert where in capsys.readouterr().err


def test_validate_quotes_a_long_rational_briefly(tmp_path, capsys):
    f = edit_payload(tmp_path, catalog("elbow_right"), "elbow",
                     lambda p: p["ambient"]["intervals"][0].__setitem__(
                         0, "1" * 5000))
    assert main(["validate", f]) == 2
    err = capsys.readouterr().err
    assert "malformed rational" in err and "5000 characters" in err
    assert len(err) < 200


def test_classify_distinguishes_germs(tmp_path, capsys):
    a = write_doc(tmp_path, catalog("elbow_right"), "a")
    b = write_doc(tmp_path, shrink_to_core(catalog("elbow_right"), 1), "b")
    c = write_doc(tmp_path, catalog("elbow_right", 0, 2), "c")
    assert main(["classify", a, b]) == 0
    assert capsys.readouterr().out.strip() == "equivalent"
    assert main(["classify", a, c]) == 1
    assert capsys.readouterr().out.strip() == "inequivalent"


def test_product_needs_disjoint_ambients(tmp_path, capsys):
    near = write_doc(tmp_path, shrink_to_core(catalog("point1d"), 1), "near")
    far = write_doc(
        tmp_path, shrink_to_core(catalog("point1d", 5, "-"), 1), "far")
    out = tmp_path / "product.json"
    assert main(["product", near, far, "-o", str(out)]) == 0
    prod = parse_document(out.read_text()).payload
    assert prod.mgrid.labels == (1, 2)
    whole_line = write_doc(tmp_path, catalog("point1d", 5), "whole")
    assert main(["product", near, whole_line]) == 1
    assert "shrink_to_core" in capsys.readouterr().err


def test_family_eval_takes_exact_parameters(tmp_path, capsys):
    f = write_doc(tmp_path, catalog("triangle_family"), "fam")
    out = tmp_path / "fiber.json"
    assert main(["family-eval", f, "--t", "1/2", "-o", str(out)]) == 0
    fiber = parse_document(out.read_text()).payload
    assert fiber.mgrid.grid.tuples[0].cuts[1].components[0].zeros == \
        ((0, "+"),)
    assert main(["family-eval", f, "--t", "2"]) == 1
    assert "outside" in capsys.readouterr().err
    assert main(["family-eval", f, "--t", "x"]) == 2


def test_family_eval_rejects_a_parameter_outside_the_rational_grammar(
        tmp_path, capsys):
    f = write_doc(tmp_path, catalog("triangle_family"), "fam")
    assert main(["family-eval", f, "--t", "+1"]) == 2
    assert capsys.readouterr().err == "error: --t: malformed rational '+1'\n"


def test_family_eval_rejects_a_non_canonical_parameter(tmp_path, capsys):
    f = write_doc(tmp_path, catalog("triangle_family"), "fam")
    assert main(["family-eval", f, "--t", "2/4"]) == 2
    assert capsys.readouterr().err == \
        "error: --t: non-canonical rational '2/4' (write '1/2')\n"


def test_length_prints_an_exact_rational(tmp_path, capsys):
    f = write_doc(tmp_path, catalog("metric_interval", 0, 1, "3/2"), "m")
    assert main(["length", f]) == 0
    assert capsys.readouterr().out.strip() == "3/2"
    g = write_doc(tmp_path, catalog("point1d"), "p")
    assert main(["length", g]) == 1
    assert "metric" in capsys.readouterr().err


def test_wrong_payload_kind_is_a_domain_error(tmp_path, capsys):
    f = write_doc(tmp_path, chain_poset(1), "cat")
    assert main(["length", f]) == 1
    assert "expected a bordism document" in capsys.readouterr().err


def test_segal_check_verdicts(tmp_path, capsys):
    good = write_doc(tmp_path, nerve(chain_poset(2), 2), "nerve")
    assert main(["segal-check", good, "--a", "1", "--b", "1"]) == 0
    assert capsys.readouterr().out.strip() == "segal(1,1): pass"
    bad = write_doc(tmp_path, triangle_boundary(), "boundary")
    assert main(["segal-check", bad, "--a", "1", "--b", "1"]) == 1
    assert capsys.readouterr().out.strip() == "segal(1,1): FAIL"
    assert main(["segal-check", good, "--a", "9", "--b", "1"]) == 1


def test_validate_of_a_fuzzed_pair_keeps_its_x_atoms_without_crossings(
        tmp_path, monkeypatch, capsys):
    # A fuzzer set one sheet value of composable_pair_2d from 0 to 7; the
    # 2D refinements of its validation cross nearly a million pairs of
    # bounds when every pair goes through plfunc_crossings.  Lines are
    # crossed by slope instead, with the same x-atoms and the same report.
    doc = json.loads(serialize_document(
        document_for(catalog("composable_pair_2d"), "fuzzed")))
    sheet = doc["payload"]["grid"][1][2]["components"][0]["sheets"][0]
    sheet["graph"]["values"][2] = 7
    path = tmp_path / "fuzzed.json"
    path.write_text(json.dumps(doc))
    counts = {"x_atoms": 0, "atoms": 0, "crossings": 0}
    x_atoms, crossings = plgeom._x_atoms, plgeom.plfunc_crossings

    def counting_x_atoms(regions):
        atoms, index = x_atoms(regions)
        counts["x_atoms"] += 1
        counts["atoms"] += len(atoms)
        return atoms, index

    def counting_crossings(f, g):
        counts["crossings"] += 1
        return crossings(f, g)

    monkeypatch.setattr(plgeom, "_x_atoms", counting_x_atoms)
    monkeypatch.setattr(plgeom, "plfunc_crossings", counting_crossings)
    grids.cut_regions.cache_clear()  # count every partition's refinements
    assert main(["validate", str(path)]) == 1
    failing = [line for line in capsys.readouterr().out.splitlines()
               if not line.startswith("[pass]")]
    assert len(failing) == 1
    assert failing[0].startswith("[FAIL] globular")
    assert failing[0].endswith("(e.g. at (0, 0))")
    # validate asks each tuple whether it is ordered once, in grid_check,
    # globularity refines no core per vertex and no pair of cuts, and each
    # partition refines each component once
    assert (counts["x_atoms"], counts["atoms"]) == (17, 1_835)
    assert counts["crossings"] <= 1_000


def test_render_is_deterministic(tmp_path):
    f = write_doc(tmp_path, catalog("composable_pair_2d"), "pair")
    first, second = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["render", f, "-o", str(first)]) == 0
    assert main(["render", f, "-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().startswith("<svg")


def test_render_window_accepts_the_equals_form(tmp_path, capsys):
    # leading minus signs require --window=… so argparse keeps them whole
    f = write_doc(tmp_path, catalog("elbow_right"), "elbow")
    out = tmp_path / "elbow.svg"
    assert main(["render", f, "--window=-3,3,-3,3", "-o", str(out)]) == 0
    assert out.read_text().startswith("<svg")
    assert main(["render", f, "--window=-3", "-o", str(out)]) == 2
    assert "--window" in capsys.readouterr().err
    assert main(["render", f, "--window=3,-3", "-o", str(out)]) == 1


def test_render_of_a_bordism_refuses_t(tmp_path, capsys):
    # --t evaluates a family; on a bordism it would be ignored without a word
    f = write_doc(tmp_path, catalog("composable_pair_2d"), "pair")
    out = tmp_path / "pair.svg"
    assert main(["render", f, "--t", "1/2", "-o", str(out)]) == 2
    assert "--t" in capsys.readouterr().err
    assert not out.exists()


def test_render_evaluates_families_at_t(tmp_path):
    f = write_doc(tmp_path, catalog("point_isotopy"), "iso")
    out = tmp_path / "iso.svg"
    assert main(["render", f, "--t", "1/2", "--window=-2,2",
                 "-o", str(out)]) == 0
    assert out.read_text().startswith("<svg")


def test_render_of_a_family_refuses_an_empty_t(tmp_path, capsys):
    # an empty --t is a malformed rational, as for family-eval, not t0
    f = write_doc(tmp_path, catalog("point_isotopy"), "iso")
    out = tmp_path / "iso.svg"
    assert main(["render", f, "--t", "", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: --t: malformed rational ''\n"
    assert not out.exists()


def test_a_bad_window_is_refused_before_any_region_work(tmp_path,
                                                        monkeypatch):
    calls = []
    for name in ("core", "extreme_slices"):
        real = getattr(render, name)
        monkeypatch.setattr(render, name, lambda *args, real=real:
                            calls.append(args) or real(*args))
    f = write_doc(tmp_path, catalog("elbow_right"), "elbow")
    assert main(["render", f, "--window=3,-3"]) == 1
    with pytest.raises(ArgumentError, match="x0,x1 or x0,x1,y0,y1"):
        render.render_svg(catalog("elbow_right"), (0, 1, 2))
    assert calls == []


def test_render_of_the_wobbled_pair_draws_the_core_of_one_refinement(
        tmp_path, monkeypatch):
    # the pair with a tent of height 1/4 and half-width 1/2 is valid in uple
    # mode; the boolean chain's core has 5,641 cells, too many for one
    # region_components refinement under 2 GB, and core has 145
    mg, ambient = perturbed_pair(Fraction(1, 4), Fraction(1, 2))
    f = write_doc(tmp_path, Bordism(ambient, mg, embedded_field(2),
                                    AffineMap.identity(2), True), "wobble")
    sizes = []
    real = render.region_components

    def counted(region):
        sizes.append(len(region.cells))
        assert len(region.cells) <= 145
        return real(region)

    monkeypatch.setattr(render, "region_components", counted)
    out = tmp_path / "wobble.svg"
    assert main(["validate", f]) == 0
    assert main(["render", f, "-o", str(out)]) == 0
    assert sizes == [145]
    assert out.read_text().startswith("<svg")


def render_in_a_process(*args):
    """cutgrids render run as a program: its exit code and stderr."""
    done = subprocess.run(
        [sys.executable, "-m", "cutgrids.cli", "render", *args],
        capture_output=True, text=True,
        env={**os.environ,
             "PYTHONPATH": str(Path(cutgrids.__file__).parents[1])})
    return done.returncode, done.stderr


WINDOW_BEYOND_FLOATS = (
    "error: the window cannot be drawn: floats cannot hold its ends or sides\n")


def test_render_refuses_a_default_window_beyond_floats(tmp_path):
    # the core [10**400, 10**400 + 1] padded by 1 has ends past float range
    f = write_doc(tmp_path, catalog("elbow_right", 10**400, 10**400 + 1),
                  "far")
    assert main(["validate", f]) == 0
    code, err = render_in_a_process(f)
    assert (code, err) == (1, WINDOW_BEYOND_FLOATS)
    assert "Traceback" not in err


def test_render_refuses_a_window_too_narrow_for_floats(tmp_path):
    # a side of 10**-400 is 0 as a float, so no pixel scale exists
    f = write_doc(tmp_path, catalog("elbow_right"), "elbow")
    code, err = render_in_a_process(f, "--window=0,1/1" + "0" * 400)
    assert (code, err) == (1, WINDOW_BEYOND_FLOATS)
    assert "Traceback" not in err


def test_render_refuses_a_circle_beyond_floats(tmp_path):
    # the window (0, 2) is drawable; the circle of circumference 10**400 is not
    cut = Cut1D((ComponentCut1D(
        "zeros", ((Fraction(0), "+"), (Fraction(1), "-"))),))
    b = Bordism(Ambient1D((), (Fraction(10**400),)),
                MonoidalCutGrid(CutGrid((CutTuple((cut,)),)), 1, (1,)),
                embedded_field(1), AffineMap.identity(1))
    f = write_doc(tmp_path, b, "circle")
    assert main(["validate", f]) == 0
    code, err = render_in_a_process(f, "--window=0,2")
    assert (code, err) == (
        1, "error: circle 0 cannot be drawn: floats cannot hold its "
           "circumference\n")
    assert "Traceback" not in err


def test_a_shape_mismatch_names_both_shapes(tmp_path, capsys):
    f1 = write_doc(tmp_path, catalog("point1d"), "p1")
    f2 = write_doc(tmp_path, catalog("point2d"), "p2")
    assert main(["classify", f1, f2]) == 1
    assert capsys.readouterr().err == (
        "error: shape mismatch: ell 1, sizes [0] vs ell 1, sizes [0, 0]\n")


def test_main_builds_no_parser(tmp_path, monkeypatch, capsys):
    built = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    f = write_doc(tmp_path, catalog("elbow_right"), "elbow")
    for _ in range(5):
        assert main(["validate", f]) == 0
    assert built == []


def test_a_call_parses_as_a_first_call_does(tmp_path, capsys):
    # the parser is shared by every call, so no call may leave state in it
    f = write_doc(tmp_path, catalog("elbow_right"), "elbow")
    assert main(["validate", f]) == 0
    first = capsys.readouterr().out
    for argv, code in ((["compose", f], 2), (["--help"], 0)):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == code
    assert main(["compose", f, "--direction", "1", "--face", "0"]) == 1
    capsys.readouterr()
    assert main(["validate", f]) == 0
    assert capsys.readouterr().out == first


def test_importing_the_package_builds_no_parser():
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, cutgrids; "
         "print(sorted({'cutgrids.cli', 'argparse'} & set(sys.modules)))"],
        capture_output=True, text=True, check=True,
        env={**os.environ,
             "PYTHONPATH": str(Path(cutgrids.__file__).parents[1])})
    assert loaded.stdout == "[]\n"
