"""Command-line front end.

Exit codes: 0 when the requested check or operation succeeds, 1 when a
domain check fails (invalid data, inequivalent bordisms, failed Segal
condition, operation precondition), and 2 for usage or parse errors.

The parser is built once, when this module is imported; ``main`` only
calls ``parse_args`` on it, which reads the parser and writes a fresh
namespace, so every call parses as a first call does.  ``import
cutgrids`` does not load this module, so library callers never build it.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .bordisms import (
    CATALOG_NAMES,
    catalog,
    equivalent,
    face_compose,
    family_at,
    metric_core_length,
    monoidal_product,
    source_target,
)
from .documents import (
    Document,
    document_for,
    parse_document,
    payload_report,
    rational_from_text,
    rational_to_text,
    serialize_document,
)
from .errors import (
    ArtifactError,
    DocumentSyntaxError,
    DocumentValidationError,
)
from .finitecat import check_segal_delta
from .render import render_svg
from .reporting import ValidationReport


def _read_document(path: str, check: bool = True) -> Document:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentSyntaxError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise DocumentSyntaxError(
            f"cannot read {path}: not UTF-8 text (byte {exc.start})")
    return parse_document(text, check=check)


def _payload(doc: Document, path: str, kind: str):
    if doc.kind != kind:
        raise ArtifactError(f"{path}: expected a {kind} document, "
                            f"found kind {doc.kind!r}")
    return doc.payload


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DocumentSyntaxError(f"cannot write {out}: {exc.strerror}")


def _print_report(report: ValidationReport) -> None:
    for entry in report.entries:
        print(str(entry))


def _cmd_validate(args) -> int:
    doc = _read_document(args.file, check=False)
    report = payload_report(doc)
    _print_report(report)
    return 0 if report.passed else 1


def _cmd_compose(args) -> int:
    doc = _read_document(args.file)
    b = face_compose(_payload(doc, args.file, "bordism"),
                     args.direction, args.face)
    _emit(serialize_document(document_for(b, doc.name)), args.output)
    return 0


def _cmd_boundary(args) -> int:
    doc = _read_document(args.file)
    b = source_target(_payload(doc, args.file, "bordism"),
                      args.direction, args.vertex)
    _emit(serialize_document(document_for(b, doc.name)), args.output)
    return 0


def _cmd_classify(args) -> int:
    b1 = _payload(_read_document(args.file_a), args.file_a, "bordism")
    b2 = _payload(_read_document(args.file_b), args.file_b, "bordism")
    if equivalent(b1, b2):
        print("equivalent")
        return 0
    print("inequivalent")
    return 1


def _cmd_product(args) -> int:
    b1 = _payload(_read_document(args.file_a), args.file_a, "bordism")
    b2 = _payload(_read_document(args.file_b), args.file_b, "bordism")
    b = monoidal_product(b1, b2)
    _emit(serialize_document(document_for(b)), args.output)
    return 0


def _cmd_family_eval(args) -> int:
    doc = _read_document(args.file)
    fam = _payload(doc, args.file, "family")
    t = rational_from_text(args.t, "--t")
    b = family_at(fam, t)
    _emit(serialize_document(document_for(b, doc.name)), args.output)
    return 0


def _cmd_length(args) -> int:
    doc = _read_document(args.file)
    value = metric_core_length(_payload(doc, args.file, "bordism"))
    print(rational_to_text(value))
    return 0


def _cmd_segal_check(args) -> int:
    sset = _payload(_read_document(args.file), args.file, "presheaf")
    ok = check_segal_delta(sset, args.a, args.b)
    print(f"segal({args.a},{args.b}): {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_examples(args) -> int:
    if args.name is not None:
        if args.name not in CATALOG_NAMES:
            raise ArtifactError(
                f"unknown example {args.name!r}; choices: "
                + ", ".join(CATALOG_NAMES))
        item = catalog(args.name)
        _emit(serialize_document(document_for(item, args.name)), args.output)
        return 0
    all_ok = True
    for name in CATALOG_NAMES:
        report = payload_report(document_for(catalog(name)))
        all_ok = all_ok and report.passed
        print(f"{name}: {'pass' if report.passed else 'FAIL'}")
        if not report.passed:
            for entry in report.failures():
                print(f"  {entry}")
    return 0 if all_ok else 1


def _parse_window(text: Optional[str]):
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) not in (2, 4):
        raise DocumentSyntaxError("--window needs x0,x1 or x0,x1,y0,y1")
    return tuple(rational_from_text(p.strip(), "--window") for p in parts)


def _cmd_render(args) -> int:
    doc = _read_document(args.file)
    payload = doc.payload
    if doc.kind == "family":
        t = (payload.t0 if args.t is None
             else rational_from_text(args.t, "--t"))
        payload = family_at(payload, t)
    elif doc.kind != "bordism":
        raise ArtifactError(f"{args.file}: cannot render kind {doc.kind!r}")
    elif args.t is not None:
        raise DocumentSyntaxError(
            f"--t applies to family documents only; {args.file} is a bordism")
    svg = render_svg(payload, _parse_window(args.window))
    _emit(svg, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutgrids",
        description="Validate, compose, classify, and draw cut-grid "
                    "bordism documents.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        return p

    p = add("validate", _cmd_validate, "run all well-formedness checks")
    p.add_argument("file")

    p = add("compose", _cmd_compose,
            "compose along an inner face in one direction")
    p.add_argument("file")
    p.add_argument("--direction", type=int, required=True)
    p.add_argument("--face", type=int, required=True)
    p.add_argument("-o", "--output")

    p = add("classify", _cmd_classify,
            "decide germ-of-core equivalence of two embedded bordisms")
    p.add_argument("file_a")
    p.add_argument("file_b")

    p = add("boundary", _cmd_boundary,
            "extract a vertex boundary in one direction")
    p.add_argument("file")
    p.add_argument("--direction", type=int, required=True)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("-o", "--output")

    p = add("product", _cmd_product,
            "monoidal product of two disjoint bordisms")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("-o", "--output")

    p = add("family-eval", _cmd_family_eval,
            "evaluate a one-parameter family at a rational parameter")
    p.add_argument("file")
    p.add_argument("--t", required=True)
    p.add_argument("-o", "--output")

    p = add("length", _cmd_length,
            "exact metric length of a 1D bordism's core")
    p.add_argument("file")

    p = add("segal-check", _cmd_segal_check,
            "check the (a,b) Segal condition on a presheaf document")
    p.add_argument("file")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)

    p = add("examples", _cmd_examples,
            "validate the example catalog, or emit one item as a document")
    p.add_argument("name", nargs="?")
    p.add_argument("-o", "--output")

    p = add("render", _cmd_render, "draw a bordism as deterministic SVG")
    p.add_argument("file")
    p.add_argument("--window", help="x0,x1[,y0,y1] in exact rationals")
    p.add_argument("--t", help="family parameter (family documents only)")
    p.add_argument("-o", "--output")

    return parser


_PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except DocumentSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DocumentValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _print_report(exc.report)
        return 1
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
