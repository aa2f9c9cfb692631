"""Command-line interface.

Exit codes: 0 all requested checks pass, 1 a checked condition fails,
2 invalid input. Condition failures are results, not program errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import equations, reporting, splice
from .document import (
    document_to_graph,
    document_to_json,
    graph_to_document,
    int_text,
    load_document,
)
from .errors import (
    CongruenceFails,
    NotEndNode,
    ParseError,
    SemigroupFails,
    SpliceKitError,
    ValidationError,
)
from .fixtures import fixture_graphs
from .graph import ResolutionGraph, graph_determinant

CHECKS = (*reporting.SECTIONS, "all")


def _load_graph(path: str) -> ResolutionGraph:
    try:
        doc = load_document(path)
    except OSError as exc:  # missing, a directory, unreadable
        raise ParseError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return document_to_graph(doc)


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    """Write the payload as JSON, which is ASCII, or the text lines as UTF-8
    whatever the locale, as graph files are read: to the byte stream under
    sys.stdout, or as str to a stream without one, such as io.StringIO."""
    out = sys.stdout
    if as_json:
        out.write(reporting.render_json(payload))
        return
    text = "".join(f"{line}\n" for line in lines)
    binary = getattr(out, "buffer", None)
    if binary is None:
        out.write(text)
    else:
        out.flush()
        binary.write(text.encode())


def cmd_validate(args) -> int:
    g = _load_graph(args.file)
    payload = {"ok": True, "vertices": len(g.ids), "edges": len(g.edges)}
    _emit(payload, args.json, [f"ok: {len(g.ids)} vertices, {len(g.edges)} edges"])
    return 0


def cmd_det(args) -> int:
    g = _load_graph(args.file)
    det = graph_determinant(g)
    _emit({"determinant": det}, args.json, [int_text(det)])
    return 0


def cmd_group(args) -> int:
    g = _load_graph(args.file)
    section = reporting.group_section(g)
    lines = [] if args.json else [
        f"order: {int_text(section['order'])}",
        "invariant factors: " + ", ".join(map(int_text, section["invariant_factors"])),
        *(f"generator at {leaf}: [" + ", ".join(gen) + "]"
          for leaf, gen in section["generators"].items()),
    ]
    _emit(section, args.json, lines)
    return 0


def _weight_lines(weights: list) -> list[str]:
    return [f"weight at {at} toward {to}: {int_text(w)}" for at, to, w in weights]


def cmd_splice(args) -> int:
    g = _load_graph(args.file)
    section = reporting.splice_section(g)
    vertices = "vertices: " + " ".join(section["vertices"])
    lines = [] if args.json else [vertices, *_weight_lines(section["weights"])]
    _emit(section, args.json, lines)
    return 0


def cmd_maximal(args) -> int:
    g = _load_graph(args.file)
    section = reporting.maximal_section(g)
    _emit(section, args.json, [] if args.json else _weight_lines(section["weights"]))
    return 0


def cmd_check(args) -> int:
    g = _load_graph(args.file)
    wanted = CHECKS[:-1] if args.condition == "all" else (args.condition,)
    sections = reporting.condition_sections(g, wanted)
    ok = reporting.report_conditions_ok(sections)
    lines = []
    for name, section in sections.items():
        lines.append(f"{name}: {'pass' if section['ok'] else 'FAIL'}")
        if name == "congruence" and not section["ok"]:
            for edge in section["edges"]:
                if edge["ok"]:
                    continue
                lines.append(
                    f"  no equivariant monomial at ({edge['node']}, {edge['toward']})"
                )
                for solved in edge.get("solved", []):
                    lines.append(
                        f"    needs exponent at {solved['leaf']} = "
                        f"{solved['residue']} (mod {solved['modulus']})"
                    )
    _emit({"ok": ok, "checks": sections}, args.json, lines)
    return 0 if ok else 1


def cmd_equations(args) -> int:
    g = _load_graph(args.file)
    try:
        system = equations.build_equations(g, equivariant=args.equivariant)
    except (SemigroupFails, CongruenceFails) as exc:
        payload = {"error": type(exc).__name__, "detail": str(exc)}
        _emit(payload, args.json, [f"{type(exc).__name__}: {exc}"])
        return 1
    payload = equations.system_to_json(system)
    _emit(payload, args.json, equations.render_equations(system).splitlines())
    return 0


def cmd_reduce(args) -> int:
    g = _load_graph(args.file)
    d = splice.splice_from_resolution(g)
    mode = "raw" if args.raw else "normalized"
    det = None if args.raw else graph_determinant(g)
    result = splice.end_node_reduce(d, args.end_node, mode=mode, det=det)
    if result.problems:
        payload = {
            "error": "NonIntegralWeight",
            "problems": [
                {"at": p.at, "toward": p.toward, "raw": p.raw, "divisor": p.divisor}
                for p in result.problems
            ],
        }
        _emit(payload, args.json, [
            f"non-integral reduced weight at {p.at} toward {p.toward}: "
            + int_text(p.raw) + " not divisible by " + int_text(p.divisor)
            for p in result.problems
        ])
        return 1
    assert result.diagram is not None
    weights = reporting.weights_list(result.diagram)
    payload = {
        "mode": mode,
        "new_leaf": result.new_leaf,
        "vertices": list(result.diagram.ids),
        "edges": reporting.pairs_list(result.diagram.edges),
        "weights": weights,
    }
    lines = [f"new leaf: {result.new_leaf}", *_weight_lines(weights)]
    _emit(payload, args.json, lines)
    return 0


def cmd_report(args) -> int:
    g = _load_graph(args.file)
    name = Path(args.file).stem
    report = reporting.analysis_report(g, name=name)
    sys.stdout.write(reporting.render_json(report))  # JSON with or without --json
    return 0 if reporting.report_conditions_ok(report.get("conditions", {})) else 1


def cmd_emit_fixtures(args) -> int:
    out, graphs, files = Path(args.dir), fixture_graphs(), {}
    for name, g in graphs.items():
        files[f"{name}.json"] = document_to_json(graph_to_document(g, metadata={"name": name}))
        files[f"{name}_report.json"] = reporting.render_json(reporting.analysis_report(g, name=name))
    try:
        out.mkdir(parents=True, exist_ok=True)
        for file, text in files.items():
            (out / file).write_text(text)
    except OSError as exc:  # the target is a file, or not writable
        raise ParseError(str(exc)) from exc
    for name in graphs:
        print(f"wrote {out / (name + '.json')}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by all later calls. Parsing
    never changes it, so concurrent ``main`` calls need no coordination."""
    parser = argparse.ArgumentParser(
        prog="splicekit",
        description="Exact combinatorics of resolution graphs and splice diagrams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    add("validate", cmd_validate).add_argument("file")
    add("det", cmd_det).add_argument("file")
    add("group", cmd_group).add_argument("file")
    add("splice", cmd_splice).add_argument("file")
    add("maximal", cmd_maximal).add_argument("file")
    p = add("check", cmd_check)
    p.add_argument("condition", choices=CHECKS)
    p.add_argument("file")
    p = add("equations", cmd_equations)
    p.add_argument("file")
    p.add_argument("--equivariant", action="store_true")
    p = add("reduce", cmd_reduce)
    p.add_argument("file")
    p.add_argument("--end-node", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--raw", action="store_true")
    mode.add_argument("--normalized", action="store_true")
    add("report", cmd_report).add_argument("file")
    p = add("emit-fixtures", cmd_emit_fixtures)
    p.add_argument("--dir", default="fixtures")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ValidationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NotEndNode as exc:
        print(f"input error: not an end-node: {exc}", file=sys.stderr)
        return 2
    except SpliceKitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
