"""What one command derives from one graph, beyond the graph's own passes:
its reduced splice diagram, linking rows, leaf block, branch tests and
tables, congruence searches and search cap."""

from __future__ import annotations

from .graph import ResolutionGraph


class Analysis:
    __slots__ = ("graph", "_memo")

    def __init__(self, g: ResolutionGraph) -> None:
        self.graph, self._memo = g, {}

    def memo(self, build, *key):
        """build(self, *key), once per build and key; no value built is None."""
        found = self._memo.get((build, *key))
        if found is None:
            found = self._memo[(build, *key)] = build(self, *key)
        return found


def analysis_of(g: ResolutionGraph | Analysis) -> Analysis:
    """g itself when it is an analysis, else a fresh analysis of the graph g."""
    return g if isinstance(g, Analysis) else Analysis(g)


def linking_row(a: Analysis, v: str) -> tuple[int, ...]:
    """``ResolutionGraph.linking_row``, walked once as ``a.memo(linking_row, v)``."""
    return a.graph.linking_row(v)
