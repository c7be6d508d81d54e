"""Fuzzing the command line with mutated catalog documents: whatever the
mutation, ``main()`` answers with exit code 0, 1 or 2 and never raises."""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from cutgrids.cli import main

# the 1D items and point2d: small documents whose every command is cheap
NAMES = ("point1d", "elbow_right", "elbow_left", "triangle_interval",
         "triangle_family", "point_isotopy", "circle_trace",
         "metric_interval", "point2d")


def run(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


@pytest.fixture(scope="module")
def catalog_documents(tmp_path_factory):
    """Each item as ``cutgrids examples NAME -o FILE`` writes it, and a
    folder for the mutated copies."""
    folder = tmp_path_factory.mktemp("fuzz")
    docs = {}
    for name in NAMES:
        path = folder / f"{name}.json"
        assert run("examples", name, "-o", str(path)) == 0
        docs[name] = json.loads(path.read_text(encoding="utf-8"))
    return docs, folder


def paths(node, at=()):
    """Every position in a JSON tree, the root first."""
    yield at, node
    if isinstance(node, dict):
        for key, child in node.items():
            yield from paths(child, at + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from paths(child, at + (i,))


def put(doc, at, value):
    if not at:
        return value
    parent = doc
    for step in at[:-1]:
        parent = parent[step]
    parent[at[-1]] = value
    return doc


small_ints = st.integers(-2, 4)
rational_texts = st.one_of(
    st.builds(lambda p, q: str(p) if q == 1 else f"{p}/{q}",
              st.integers(-6, 6), st.integers(1, 4)),
    st.sampled_from(["-inf", "+inf", "1/0", "x"]))
other_types = st.sampled_from([None, True, 0, "x", [], {}, 0.5])


def is_number(v) -> bool:
    """An int, or a text that reads as a rational or an infinity."""
    if isinstance(v, str):
        return v in ("-inf", "+inf") or re.fullmatch(r"-?\d+(/\d+)?", v) is not None
    return isinstance(v, int) and not isinstance(v, bool)


def mutate(data, doc):
    """One change to doc: a number, a type, a list length or a key."""
    nodes = list(paths(doc))
    places = {
        "number": [at for at, v in nodes if is_number(v)],
        "type": [at for at, _ in nodes if at],
        "length": [at for at, v in nodes if isinstance(v, list)],
        "key": [at for at, v in nodes if isinstance(v, dict) and v],
    }
    # numbers reach past the parser most often, so they are drawn most
    kinds = [k for k, ats in places.items() if ats]
    kind = data.draw(st.sampled_from(kinds + ["number"] * 2 * ("number" in kinds)))
    at = data.draw(st.sampled_from(places[kind]))
    node = dict(nodes)[at]
    if kind == "number":
        # an int stays an int, a rational text a text
        number = small_ints if isinstance(node, int) else rational_texts
        return put(doc, at, data.draw(number))
    if kind == "type":
        return put(doc, at, data.draw(other_types))
    if kind == "length":
        if node and data.draw(st.booleans()):
            node = node[:-1] if data.draw(st.booleans()) else node + node[-1:]
        else:
            node = node + [data.draw(st.one_of(small_ints, rational_texts))]
        return put(doc, at, node)
    node = dict(node)
    value = node.pop(data.draw(st.sampled_from(sorted(node))))
    if data.draw(st.booleans()):
        node["extra"] = value  # a renamed key
    return put(doc, at, node)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_documents_exit_cleanly(catalog_documents, data):
    docs, folder = catalog_documents
    doc = json.loads(json.dumps(docs[data.draw(st.sampled_from(NAMES))]))
    for _ in range(data.draw(st.integers(1, 2))):
        doc = mutate(data, doc)
    path, out = folder / "mutated.json", str(folder / "out")
    path.write_text(json.dumps(doc), encoding="utf-8")
    direction = str(data.draw(st.integers(1, 2)))
    index = str(data.draw(st.integers(0, 2)))
    for argv in (["validate", str(path)],
                 ["render", str(path), "-o", out],
                 ["boundary", str(path), "--direction", direction,
                  "--vertex", index, "-o", out],
                 ["compose", str(path), "--direction", direction,
                  "--face", index, "-o", out]):
        assert run(*argv) in (0, 1, 2), argv
