"""Seeded random graph corpora for the property suites.

The diagonally dominant rule (weight at most -(valency+1)) forces a
negative-definite intersection form, so those trees need no filtering.
Two-node graphs are built from quasi-minimal strings with moderate
weights and filtered for definiteness, which leaves a mix of graphs that
pass and fail the splice conditions.
"""

from __future__ import annotations

import random
from typing import Iterable

from .graph import ResolutionGraph, graph_determinant, is_negative_definite

DEFAULT_SEED = 20240917


def dominant_tree(rng: random.Random, size: int) -> ResolutionGraph:
    parents = [rng.randrange(j) for j in range(1, size)]
    degree = [0] * size
    for j, p in enumerate(parents, start=1):
        degree[j] += 1
        degree[p] += 1
    vertices = [
        (f"v{i}", -(degree[i] + 1) - rng.randint(0, 2)) for i in range(size)
    ]
    edges = [(f"v{p}", f"v{j}") for j, p in enumerate(parents, start=1)]
    return ResolutionGraph.build(vertices=vertices, edges=edges)


def dominant_trees(
    count: int = 100,
    max_vertices: int = 25,
    seed: int = DEFAULT_SEED,
    min_vertices: int = 2,
) -> list[ResolutionGraph]:
    rng = random.Random(seed)
    return [
        dominant_tree(rng, rng.randint(min_vertices, max_vertices))
        for _ in range(count)
    ]


def two_node_graph(rng: random.Random) -> ResolutionGraph | None:
    """One candidate two-node graph; None when not negative definite."""
    vertices: list[tuple[str, int]] = []
    edges: list[tuple[str, str]] = []
    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return f"s{counter}"

    def add_string(anchor: str, length: int) -> str:
        prev = anchor
        for _ in range(length):
            vid = fresh()
            vertices.append((vid, -rng.randint(2, 4)))
            edges.append((prev, vid))
            prev = vid
        return prev

    vertices.append(("nL", -rng.randint(1, 4)))
    vertices.append(("nR", -rng.randint(1, 4)))
    edges.append((add_string("nL", rng.randint(0, 2)), "nR"))
    for node in ("nL", "nR"):
        for _ in range(rng.randint(2, 3)):
            add_string(node, rng.randint(1, 3))
    g = ResolutionGraph.build(vertices=vertices, edges=edges)
    return g if is_negative_definite(g) else None


def two_node_graphs(count: int = 50, seed: int = DEFAULT_SEED) -> list[ResolutionGraph]:
    rng = random.Random(seed)
    out: list[ResolutionGraph] = []
    while len(out) < count:
        g = two_node_graph(rng)
        if g is not None:
            out.append(g)
    return out


def with_determinant_cap(
    graphs: Iterable[ResolutionGraph], cap: int
) -> list[ResolutionGraph]:
    return [g for g in graphs if graph_determinant(g) <= cap]
