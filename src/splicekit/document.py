"""Graph file parsing and serialization.

The canonical format is JSON:

    {"version": 1,
     "vertices": [{"id": "v1", "weight": -2}, ...],
     "edges": [["v1", "v2"], ...],
     "metadata": {"name": "...", "source": "..."}}

A compact text front-end is also accepted: lines of the form
``v <id> <weight>`` and ``e <a> <b>``, with ``#`` comments.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Mapping, NamedTuple

from .errors import ParseError
from .graph import ResolutionGraph, validate_graph


class GraphDocument(NamedTuple):
    version: int
    vertices: tuple[tuple[str, int], ...]
    edges: tuple[tuple[str, str], ...]
    metadata: Mapping[str, str] | None = None


def _parse_json(text: str) -> GraphDocument:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past sys.get_int_max_str_digits()
        raise ParseError(str(exc).partition(";")[0]) from exc
    except RecursionError as exc:
        raise ParseError("nested too deeply") from exc
    if not isinstance(data, dict):
        raise ParseError("top level: expected an object")
    version = data.get("version")
    if not isinstance(version, int) or isinstance(version, bool) or version != 1:
        raise ParseError(f"version: expected 1, got {version!r}")
    raw_vertices = data.get("vertices")
    if not isinstance(raw_vertices, list):
        raise ParseError("vertices: expected a list")
    vertices = []  # one pass; the first bad entry is named
    for i, entry in enumerate(raw_vertices):
        if type(entry) is not dict:
            raise ParseError(f"vertices[{i}]: expected an object")
        v, w = entry.get("id"), entry.get("weight")
        if type(v) is not str:
            raise ParseError(f"vertices[{i}].id: expected a string")
        if type(w) is not int:
            raise ParseError(f"vertices[{i}].weight: expected an integer")
        vertices.append((v, w))
    raw_edges = data.get("edges")
    if not isinstance(raw_edges, list):
        raise ParseError("edges: expected a list")
    edges = [
        (e[0], e[1])
        if type(e) is list and len(e) == 2 and type(e[0]) is str and type(e[1]) is str
        else None
        for e in raw_edges
    ]
    if None in edges:
        raise ParseError(f"edges[{edges.index(None)}]: expected a pair of ids")
    metadata = data.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise ParseError("metadata: expected an object")
    return GraphDocument(
        version=1,
        vertices=tuple(vertices),
        edges=tuple(edges),
        metadata=metadata,
    )


def _parse_text(text: str) -> GraphDocument:
    vertices: list[tuple[str, int]] = []
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "v" and len(parts) == 3:
            try:
                vertices.append((parts[1], int(parts[2])))
            except ValueError:
                raise ParseError(f"line {lineno}: weight is not an integer") from None
        elif parts[0] == "e" and len(parts) == 3:
            edges.append((parts[1], parts[2]))
        else:
            raise ParseError(f"line {lineno}: expected 'v <id> <weight>' or 'e <a> <b>'")
    return GraphDocument(version=1, vertices=tuple(vertices), edges=tuple(edges))


def parse_document(text: str) -> GraphDocument:
    if text.lstrip().startswith(("{", "[")):
        return _parse_json(text)
    return _parse_text(text)


def load_document(path: str | Path) -> GraphDocument:
    """The document in a UTF-8 file, whatever the locale: the bytes are read
    and decoded once, a leading UTF-8 byte order mark skipped. Raises
    OSError, UnicodeDecodeError and ParseError."""
    with open(path, "rb") as f:
        data = f.read()
    return parse_document(data.decode("utf-8-sig"))


def document_to_graph(doc: GraphDocument) -> ResolutionGraph:
    """Validated resolution graph; raises ValidationError when the document
    is not a weighted tree with negative weights."""
    g = ResolutionGraph.build(doc.vertices, doc.edges)
    validate_graph(g)
    return g


def graph_to_document(
    g: ResolutionGraph, metadata: Mapping[str, str] | None = None
) -> GraphDocument:
    return GraphDocument(
        version=1,
        vertices=tuple(zip(g.ids, g.weights)),
        edges=g.edges,
        metadata=metadata,
    )


def document_to_json(doc: GraphDocument) -> str:
    payload: dict = {
        "version": doc.version,
        "vertices": [{"id": v, "weight": w} for v, w in doc.vertices],
        "edges": [[a, b] for a, b in doc.edges],
    }
    if doc.metadata:
        payload["metadata"] = dict(doc.metadata)
    return indented_json(payload) + "\n"


def indented_json(value: Any) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, without its
    pure-Python encoder: one recursive pass over the lists and dicts that
    appends the parts to a list, writes their str and int items in place
    and escapes strings with the C ``encode_basestring_ascii``. Takes
    dicts, lists, tuples, str, int, bool and None, with str dict keys only,
    as every payload of the program has, and raises TypeError on the rest,
    floats included, as the package builds none; unlike ``json.dumps`` it
    writes integers of any length (see ``int_text``). There is no check
    for circular references."""
    parts: list[str] = []
    _write_json(value, parts, "\n")
    return "".join(parts)


def int_text(x: int) -> str:
    """``int.__repr__(x)`` at any length. Past ``sys.get_int_max_str_digits()``
    digits, where ``int.__repr__`` refuses, x is split at a power of ten
    near half its digits and the halves are written alone; the limit, which
    protects the whole interpreter, stays as it is."""
    try:
        return int.__repr__(x)
    except ValueError:
        pass
    if x < 0:
        return "-" + int_text(-x)
    k = x.bit_length() * 3 // 20  # log10(2) is about 3/10
    high, low = divmod(x, 10**k)
    return int_text(high) + int_text(low).zfill(k)


def _write_json(value: Any, parts: list[str], newline: str) -> None:
    """Append value to parts; newline ends a line and indents to value's depth."""
    if isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            kind = type(item)
            if kind is str:
                parts.append(sep + encode_basestring_ascii(item))
            elif kind is int:
                parts.append(sep + int_text(item))
            else:
                parts.append(sep)
                _write_json(item, parts, inner)
            sep = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            head = sep + encode_basestring_ascii(key) + ": "
            kind = type(item)
            if kind is str:
                parts.append(head + encode_basestring_ascii(item))
            elif kind is int:
                parts.append(head + int_text(item))
            else:
                parts.append(head)
                _write_json(item, parts, inner)
            sep = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int_text(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
