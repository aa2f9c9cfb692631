"""Command-line interface.

Each ``cmd_*`` is a function of the loaded graph and the parsed arguments
and returns ``(payload, text lines, exit code)``, the lines None where only
JSON is written (``report`` always, ``group``, ``splice`` and ``maximal``
under --json). ``main`` is the one place that reads the graph file and
writes the output. ``emit-fixtures`` reads no graph file, takes no --json
and writes its own.

``COMMANDS`` holds, in one place, the grammar of every graph command but
``reduce``: its handler, its positionals in order (``check``'s condition
with its choices) and its on/off flags. ``build_parser`` builds the
argparse tree from it, and a command line takes one of two routes. When
its first word is a table command, its positionals are that many with
every choice good, and every other token is exactly one of that command's
flags, ``parse_table_command`` returns the Namespace argparse would, and
argparse is never built. Everything else goes to argparse, which alone
prints help and usage errors and reads abbreviations (``--js``), ``--``,
``reduce`` and ``emit-fixtures``.

Exit codes: 0 all requested checks pass, 1 a checked condition fails,
2 invalid input, a usage error or a library error (such as a reduced
weight the determinant does not divide). Condition failures are results,
not program errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Callable, NamedTuple

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


def _emit(payload: dict, lines: list[str] | None) -> None:
    """Write the payload as JSON, which is ASCII, when there are no text
    lines, else the lines as UTF-8 whatever the locale, as graph files are
    read: to the byte stream under sys.stdout, or as str to a stream
    without one, such as io.StringIO."""
    out = sys.stdout
    if lines is None:
        out.write(reporting.render_json(payload))
        return
    text = "".join(f"{line}\n" for line in lines)
    binary = getattr(out, "buffer", None)
    if binary is None:
        out.write(text)
    else:
        out.flush()
        binary.write(text.encode())


# What a command returns: the JSON payload, the text lines (None for JSON
# alone) and the exit code.
Output = tuple[dict, list[str] | None, int]


def cmd_validate(g: ResolutionGraph, args) -> Output:
    payload = {"ok": True, "vertices": len(g.ids), "edges": len(g.edges)}
    return payload, [f"ok: {len(g.ids)} vertices, {len(g.edges)} edges"], 0


def cmd_det(g: ResolutionGraph, args) -> Output:
    det = graph_determinant(g)
    return {"determinant": det}, [int_text(det)], 0


def cmd_group(g: ResolutionGraph, args) -> Output:
    section = reporting.group_section(g)
    return section, None if args.json else [
        f"order: {int_text(section['order'])}",
        "invariant factors: " + ", ".join(map(int_text, section["invariant_factors"])),
        *(f"generator at {leaf}: [" + ", ".join(gen) + "]"
          for leaf, gen in section["generators"].items()),
    ], 0


def _weight_lines(weights: list) -> list[str]:
    return [f"weight at {at} toward {to}: {int_text(w)}" for at, to, w in weights]


def cmd_splice(g: ResolutionGraph, args) -> Output:
    section = reporting.splice_section(g)
    vertices = "vertices: " + " ".join(section["vertices"])
    return section, None if args.json else [vertices, *_weight_lines(section["weights"])], 0


def cmd_maximal(g: ResolutionGraph, args) -> Output:
    section = reporting.maximal_section(g)
    return section, None if args.json else _weight_lines(section["weights"]), 0


def cmd_check(g: ResolutionGraph, args) -> Output:
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
    return {"ok": ok, "checks": sections}, lines, 0 if ok else 1


def cmd_equations(g: ResolutionGraph, args) -> Output:
    try:
        system = equations.build_equations(g, equivariant=args.equivariant)
    except (SemigroupFails, CongruenceFails) as exc:
        error = type(exc).__name__
        return {"error": error, "detail": str(exc)}, [f"{error}: {exc}"], 1
    return equations.system_to_json(system), equations.render_equations(system).splitlines(), 0


def cmd_reduce(g: ResolutionGraph, args) -> Output:
    det = None if args.raw else graph_determinant(g)
    result = splice.end_node_reduce(splice.splice_from_resolution(g), args.end_node, det)
    weights = reporting.weights_list(result.diagram)
    payload = {
        "mode": "raw" if args.raw else "normalized",
        "new_leaf": result.new_leaf,
        "vertices": list(result.diagram.ids),
        "edges": reporting.pairs_list(result.diagram.edges),
        "weights": weights,
    }
    return payload, [f"new leaf: {result.new_leaf}", *_weight_lines(weights)], 0


def cmd_report(g: ResolutionGraph, args) -> Output:
    report = reporting.analysis_report(g, name=Path(args.file).stem)  # JSON with or without --json
    return report, None, 0 if reporting.report_conditions_ok(report.get("conditions", {})) else 1


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


class Command(NamedTuple):
    """The grammar of one graph command: its handler, its positionals in
    order as (name, choices or None) and its on/off flags."""

    fn: Callable[[ResolutionGraph, argparse.Namespace], Output]
    positionals: tuple[tuple[str, tuple[str, ...] | None], ...] = (("file", None),)
    flags: tuple[str, ...] = ("--json",)


# Every graph command but reduce, whose --end-node takes a value; argparse
# alone parses reduce and emit-fixtures.
COMMANDS = {
    "validate": Command(cmd_validate),
    "det": Command(cmd_det),
    "group": Command(cmd_group),
    "splice": Command(cmd_splice),
    "maximal": Command(cmd_maximal),
    "check": Command(cmd_check, (("condition", CHECKS), ("file", None))),
    "equations": Command(cmd_equations, flags=("--json", "--equivariant")),
    "report": Command(cmd_report),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by all later calls. Parsing
    never changes it, so concurrent ``main`` calls need no coordination."""
    parser = argparse.ArgumentParser(
        prog="splicekit",
        description="Exact combinatorics of resolution graphs and splice diagrams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, flags=("--json",)):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        for flag in flags:
            text = "machine-readable output" if flag == "--json" else None
            p.add_argument(flag, action="store_true", help=text)
        return p

    for name, command in COMMANDS.items():
        if name == "report":  # the usage lists reduce before report
            p = add("reduce", cmd_reduce)
            p.add_argument("file")
            p.add_argument("--end-node", required=True)
            mode = p.add_mutually_exclusive_group()
            mode.add_argument("--raw", action="store_true")
            mode.add_argument("--normalized", action="store_true")
        p = add(name, command.fn, command.flags)
        for dest, choices in command.positionals:
            p.add_argument(dest, choices=choices)
    add("emit-fixtures", cmd_emit_fixtures, ()).add_argument("--dir", default="fixtures")
    return parser


def parse_table_command(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace argparse gives for argv when argv is a table command,
    its positionals in order with every choice good, and its other tokens
    each exactly one of its flags; else None. A token that starts with "-"
    and is not such a flag (an abbreviation, -h, --, -, -5) is argparse's."""
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    values = {flag[2:].replace("-", "_"): False for flag in command.flags}
    positionals = []
    for token in argv[1:]:
        if not token.startswith("-"):
            positionals.append(token)
        elif token in command.flags:
            values[token[2:].replace("-", "_")] = True
        else:
            return None
    if len(positionals) != len(command.positionals):
        return None
    for (dest, choices), value in zip(command.positionals, positionals):
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    return argparse.Namespace(command=argv[0], **values, fn=command.fn)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """argv (sys.argv[1:] by default) parsed from the command table where
    it can be, else by argparse, which prints help and usage errors."""
    if argv is None:
        argv = sys.argv[1:]
    args = parse_table_command(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        if args.fn is cmd_emit_fixtures:
            return cmd_emit_fixtures(args)
        payload, lines, code = args.fn(_load_graph(args.file), args)
        _emit(payload, None if args.json else lines)
        return code
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
