"""Seeded inputs for the benchmark workloads.

Each workload function builds graphs from ``splicekit.corpus`` and
``splicekit.fixtures`` with the workload seed, writes them as graph
documents into a directory and returns the operations to run on them: one
CLI command on one graph file each. The program only ever sees those files.
``report_small`` keeps one fixed set of graphs and takes from the seed
only their vertex names and order, edge order and the order of
operations, so every seed times the same work; the other workloads draw
their graphs from the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from splicekit import corpus, fixtures
from splicekit.document import document_to_json, graph_to_document
from splicekit.graph import ResolutionGraph
from splicekit.splice import tree_determinant

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"
# The acceptance suite's corpus: this many seeded dominant trees and
# two-node graphs, kept when det <= SMALL_DET_CAP (38 of 150).
SMALL_TREES = 100
SMALL_TWO_NODE = 50
SMALL_DET_CAP = 10**4
SCALING_UNITS = 12
SCALING_COMMANDS = {25: ("group", "det", "splice", "maximal"), 50: ("det", "splice", "maximal")}
LARGE_DET_MIN = 10**10
LARGE_DET_SIZES = (19, 25)
LARGE_DET_COUNT = 5
# ROADMAP item 3: report on this tree says semigroup FAIL while 3.3 passes.
LARGE_DET_DEFECT = (3, 25)


@dataclass(frozen=True)
class Op:
    """One CLI call on one graph file."""

    argv: tuple[str, ...]
    command: str
    name: str
    graph: ResolutionGraph
    golden: str | None = None


@dataclass(frozen=True)
class Inputs:
    ops: tuple[Op, ...]
    sizes: dict


def _write(directory: Path, name: str, g: ResolutionGraph) -> str:
    path = directory / f"{name}.json"
    path.write_text(document_to_json(graph_to_document(g, metadata={"name": name})))
    return str(path)


def _report(directory: Path, name: str, g: ResolutionGraph, golden: str | None = None) -> Op:
    return Op(("report", "--json", _write(directory, name, g)), "report", name, g, golden)


def small_corpus() -> list[ResolutionGraph]:
    """The acceptance suite's small corpus without the fixtures: its seeded
    dominant trees and two-node graphs with det <= SMALL_DET_CAP."""
    graphs = corpus.dominant_trees(SMALL_TREES) + corpus.two_node_graphs(SMALL_TWO_NODE)
    return corpus.with_determinant_cap(graphs, SMALL_DET_CAP)


def relabelled(g: ResolutionGraph, rng: random.Random) -> ResolutionGraph:
    """An isomorphic copy of g with new vertex names, vertices and edges in a
    new order and each edge's ends in either order."""
    order = list(range(len(g.ids)))
    rng.shuffle(order)
    names = rng.sample(range(10 * len(order)), len(order))
    rename = {g.ids[i]: f"x{names[k]}" for k, i in enumerate(order)}
    edges = [(rename[a], rename[b]) if rng.random() < 0.5 else (rename[b], rename[a])
             for a, b in g.edges]
    rng.shuffle(edges)
    return ResolutionGraph.build(
        vertices=[(rename[g.ids[i]], g.weights[i]) for i in order], edges=edges)


def report_small(seed: int, directory: Path, count: int | None = None) -> Inputs:
    """The five fixtures with their golden reports, then the first `count`
    graphs of the small corpus (all by default), each relabelled from the
    seed, in seeded order."""
    rng = random.Random(seed)
    ops = []
    for name, g in fixtures.fixture_graphs().items():
        ops.append(_report(directory, name, g, (GOLDEN / f"{name}_report.json").read_text()))
    graphs = [relabelled(g, rng) for g in small_corpus()[:count]]
    rng.shuffle(graphs)
    ops.extend(_report(directory, f"c{i:03d}", g) for i, g in enumerate(graphs))
    every = [op.graph for op in ops]
    return Inputs(tuple(ops), {
        "graphs": len(every),
        "fixtures": len(ops) - len(graphs),
        "vertices_max": max(len(g.ids) for g in every),
        "det_max": max(tree_determinant(g) for g in every),
    })


def invariants_scaling(seed: int, directory: Path, count: int = SCALING_UNITS) -> Inputs:
    """`count` units of one dominant tree per size, each with its commands."""
    rng = random.Random(seed)
    ops = []
    for i in range(count):
        for n, commands in SCALING_COMMANDS.items():
            g = corpus.dominant_tree(rng, n)
            name = f"n{n}_{i:03d}"
            path = _write(directory, name, g)
            ops.extend(Op((cmd, "--json", path), cmd, name, g) for cmd in commands)
    return Inputs(tuple(ops), {
        "units": count,
        "sizes": {str(n): list(cmds) for n, cmds in SCALING_COMMANDS.items()},
    })


def report_large_det(seed: int, directory: Path, count: int = LARGE_DET_COUNT) -> Inputs:
    """The ROADMAP item 3 tree, then `count` seeded dominant trees on 19..25
    vertices with det >= 10^10."""
    graphs = [corpus.dominant_tree(random.Random(LARGE_DET_DEFECT[0]), LARGE_DET_DEFECT[1])]
    rng = random.Random(seed)
    while len(graphs) < count + 1:
        g = corpus.dominant_tree(rng, rng.randint(*LARGE_DET_SIZES))
        if tree_determinant(g) >= LARGE_DET_MIN:
            graphs.append(g)
    ops = tuple(_report(directory, f"d{i:02d}", g) for i, g in enumerate(graphs))
    return Inputs(ops, {
        "graphs": len(graphs),
        "vertices": [len(g.ids) for g in graphs],
        "det_min": min(tree_determinant(g) for g in graphs),
    })


WORKLOADS: dict[str, Callable[..., Inputs]] = {
    "report_small": report_small,
    "invariants_scaling": invariants_scaling,
    "report_large_det": report_large_det,
}
