#!/usr/bin/env python3
"""Digest what the CLI prints on the fixtures and a seeded corpus.

Every command runs in-process on graph files with fixed names in a scratch
directory, which is the working directory, so no temporary path reaches the
output. Each line holds the sha256 (first 16 hex digits) of one command's
stdout, stderr and exit code, then the exit code and the command; the last
line digests all of them. Run it at two commits and diff the outputs: a
change in anything a user sees shows up as a differing line.

Each graph gets validate, det, group, splice, maximal and ``check ideal``,
and ``reduce`` at every node of its splice diagram in both modes. The
commands that search exponent vectors (the other checks, ``equations`` and
``report``) run only where the determinant is at most DET_CAP. Three fixed
indefinite trees (INDEFINITE) get every command, the searching ones and
``reduce --end-node c`` in both modes included, so each refusal path is
digested. Each command runs with and without --json. An uncaught exception
is recorded as its type and message with exit code 1. The corpus is the default-seeded one of
``splicekit.corpus``; --trees and --two-node take a prefix of it. One more
line digests ``report --json`` on ``dominant_tree(random.Random(3), 25)``,
the one seeded input whose searches run out of budget (one semigroup and
three congruence edges are truncated).

Usage: python scripts/cli_digest.py [--trees 100] [--two-node 50]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import tempfile
from pathlib import Path

from splicekit.cli import main as cli_main
from splicekit.corpus import dominant_tree, dominant_trees, two_node_graphs
from splicekit.document import document_to_json, graph_to_document
from splicekit.fixtures import fixture_graphs
from splicekit.graph import ResolutionGraph, graph_determinant, is_negative_definite
from splicekit.splice import splice_from_resolution

DET_CAP = 10**4
CHEAP = (("validate",), ("det",), ("group",), ("splice",), ("maximal",), ("check", "ideal"))
SEARCHING = (
    ("check", "semigroup"), ("check", "congruence"), ("check", "okuma34"),
    ("check", "okuma33"), ("check", "all"), ("equations",),
    ("equations", "--equivariant"), ("report",),
)
RUNS_OUT = (3, 25)  # seed and size of the tree whose searches run out of budget
PATH = (("a", "b"), ("b", "c"))
# Each has a vertex c; the first has a zero subtree determinant at b toward a.
INDEFINITE = (
    ("indef_path", ResolutionGraph.build([("a", -2), ("b", -1), ("c", -1)], PATH)),
    ("indef_ones", ResolutionGraph.build([("a", -1), ("b", -1), ("c", -1)], PATH)),
    ("indef_star", ResolutionGraph.build(
        [("c", -1), ("x", -1), ("y", -1), ("z", -2)], [("c", "x"), ("c", "y"), ("c", "z")]
    )),
)


def run(argv: list[str]) -> str:
    """sha256 prefix of the stdout, stderr and exit code of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # noqa: BLE001  what a traceback would end with
            err.write(f"{type(exc).__name__}: {exc}\n")
            code = 1
    blob = f"{out.getvalue()}\0{err.getvalue()}\0{code}".encode()
    return f"{hashlib.sha256(blob).hexdigest()[:16]} {code}"


def commands(name: str, g):
    file = f"{name}.json"
    calls = [(*cmd, file) for cmd in CHEAP]
    if is_negative_definite(g):
        for v in splice_from_resolution(g).nodes:
            calls.append(("reduce", file, "--end-node", v))
            calls.append(("reduce", file, "--end-node", v, "--raw"))
        if graph_determinant(g) <= DET_CAP:
            calls += [(*cmd, file) for cmd in SEARCHING]
    else:  # every command refuses, so none searches
        calls += [(*cmd, file) for cmd in SEARCHING]
        calls.append(("reduce", file, "--end-node", "c"))
        calls.append(("reduce", file, "--end-node", "c", "--raw"))
    for call in calls:
        yield list(call)
        yield [*call, "--json"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trees", type=int, default=100)
    parser.add_argument("--two-node", type=int, default=50)
    args = parser.parse_args()

    graphs = list(fixture_graphs().items())
    graphs += [(f"tree{i:03d}", g) for i, g in enumerate(dominant_trees(args.trees))]
    graphs += [(f"pair{i:03d}", g) for i, g in enumerate(two_node_graphs(args.two_node))]
    graphs += INDEFINITE

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for name, g in graphs:
                Path(f"{name}.json").write_text(document_to_json(graph_to_document(g)))
            runs_out = dominant_tree(random.Random(RUNS_OUT[0]), RUNS_OUT[1])
            Path("runs_out.json").write_text(document_to_json(graph_to_document(runs_out)))
            calls = [argv for name, g in graphs for argv in commands(name, g)]
            calls.append(["report", "--json", "runs_out.json"])
            lines = [f"{run(argv)} {' '.join(argv)}" for argv in calls]
            emitted = run(["emit-fixtures", "--dir", "emitted"])
            files = b"".join(
                p.name.encode() + b"\0" + p.read_bytes() for p in sorted(Path("emitted").iterdir())
            )
            lines.append(f"{emitted} emit-fixtures {hashlib.sha256(files).hexdigest()[:16]}")
        finally:
            os.chdir(home)
    text = "".join(line + "\n" for line in lines)
    print(text, end="")
    print(f"{len(lines)} commands, digest {hashlib.sha256(text.encode()).hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
