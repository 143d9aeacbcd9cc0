"""Graph and equilibrium documents: edge lists and canonical JSON.

The JSON schema is versioned "degen-kuramoto/1". Vertices are listed by
name and edges reference their positions, so dense ids are a property of
the document. Canonical output sorts object keys, emits edges as sorted
pairs in lexicographic order, and prints floats with 17 significant
digits, making emit deterministic and parse(emit(x)) the identity.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

from .graphs import Graph

FORMAT = "degen-kuramoto/1"

__all__ = [
    "FORMAT",
    "GraphDocument",
    "parse_edge_list",
    "parse_json",
    "emit_json",
    "read_document",
    "canonical_json",
]


@dataclass(frozen=True)
class GraphDocument:
    """A graph plus optional equilibrium data, as carried by the JSON format."""

    graph: Graph
    names: tuple[str, ...]
    phases: tuple[float, ...] | None = None
    labels: tuple[int, ...] | None = None
    base: float | None = None
    frequencies: tuple[float, ...] | None = None
    coupling: float | None = None
    report: dict | None = None


def _edge_list_document(text: str) -> GraphDocument:
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: expected two vertex tokens, got {len(tokens)}")
        u, v = tokens
        if u == v:
            raise ValueError(f"line {lineno}: self-loop at {u!r}")
        pairs.append((u, v))
    distinct = {t for pair in pairs for t in pair}
    if all(t.isdigit() for t in distinct):
        names = tuple(sorted(distinct, key=lambda t: (int(t), t)))
    else:
        names = tuple(sorted(distinct))
    index = {name: i for i, name in enumerate(names)}
    return GraphDocument(Graph(len(names), [(index[u], index[v]) for u, v in pairs]), names)


def parse_edge_list(text: str) -> Graph:
    """Graph from "u v" lines; '#' starts a comment, duplicates collapse.

    Vertex tokens are sorted by (value, token) when all are nonnegative
    integers, so '01' < '1' < '2', else as strings, and mapped to dense ids.
    """
    return _edge_list_document(text).graph


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite float in document")
    if x == 0.0:
        return "0"  # fold -0.0 so emit(parse(emit(x))) stays byte-identical
    return f"{x:.17g}"


def _write(value, out: list) -> None:
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=True))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(_format_float(value))
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise TypeError("document keys must be strings")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _write(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _write(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_json(value) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""
    out: list[str] = []
    _write(value, out)
    out.append("\n")
    return "".join(out)


def emit_json(
    g: Graph,
    names=None,
    phases=None,
    labels=None,
    base: float | None = None,
    frequencies=None,
    coupling: float | None = None,
    report: dict | None = None,
) -> str:
    """Canonical JSON document for a graph with optional attachments."""
    n = g.vertex_count
    if names is None:
        names = tuple(str(k) for k in range(n))
    else:
        names = tuple(str(x) for x in names)
        if len(names) != n or len(set(names)) != n:
            raise ValueError(f"need {n} distinct vertex names")
    doc: dict = {
        "format": FORMAT,
        "vertices": list(names),
        "edges": [[u, v] for u, v in g.edges],
    }
    if phases is not None:
        phases = [float(x) for x in phases]
        if len(phases) != n:
            raise ValueError(f"need {n} phases, got {len(phases)}")
        doc["phases"] = phases
    if labels is not None:
        labels = [int(l) for l in labels]
        if len(labels) != n:
            raise ValueError(f"need {n} labels, got {len(labels)}")
        if any(not 0 <= l <= 3 for l in labels):
            raise ValueError("labels must lie in 0..3")
        doc["labels"] = labels
        doc["base"] = float(base if base is not None else 0.0)
    elif base is not None:
        raise ValueError("base requires labels")
    if frequencies is not None:
        frequencies = [float(x) for x in frequencies]
        if len(frequencies) != n:
            raise ValueError(f"need {n} frequencies, got {len(frequencies)}")
        doc["frequencies"] = frequencies
    if coupling is not None:
        coupling = float(coupling)
        if not coupling > 0:
            raise ValueError("coupling must be positive")
        doc["coupling"] = coupling
    if report is not None:
        doc["report"] = report
    return canonical_json(doc)


def _integer(value, what: str) -> int:
    """A JSON integer; integral floats pass, bools, null and strings do not."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _number(value, what: str) -> float:
    """A finite JSON number; bools, null, strings, NaN and overflow are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        abs(value) <= sys.float_info.max
    ):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def parse_json(text: str) -> GraphDocument:
    """Parse and validate a "degen-kuramoto/1" document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    if doc.get("format") != FORMAT:
        raise ValueError(f"unsupported format {doc.get('format')!r}; expected {FORMAT!r}")
    names = doc.get("vertices")
    if not isinstance(names, list) or any(not isinstance(x, str) for x in names):
        raise ValueError("vertices must be a list of names")
    n = len(names)
    if len(set(names)) != n:
        raise ValueError("vertex names must be distinct")
    edges_raw = doc.get("edges", [])
    if not isinstance(edges_raw, list):
        raise ValueError("edges must be a list of vertex-index pairs")
    edges = []
    for e in edges_raw:
        if not (isinstance(e, list) and len(e) == 2):
            raise ValueError(f"bad edge entry {e!r}")
        u, v = (_integer(x, "edge vertex index") for x in e)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {e!r} references an undeclared vertex")
        edges.append((u, v))
    g = Graph(n, edges)

    def float_tuple(key):
        if key not in doc:
            return None
        values = doc[key]
        if not isinstance(values, list) or len(values) != n:
            raise ValueError(f"{key} must list one value per vertex")
        return tuple(_number(x, key) for x in values)

    phases = float_tuple("phases")
    frequencies = float_tuple("frequencies")
    labels = None
    base = None
    if "labels" in doc:
        raw = doc["labels"]
        if not isinstance(raw, list) or len(raw) != n:
            raise ValueError("labels must list one value per vertex")
        labels = tuple(_integer(l, "label") for l in raw)
        if any(not 0 <= l <= 3 for l in labels):
            raise ValueError("labels must lie in 0..3")
        base = _number(doc.get("base", 0.0), "base")
    coupling = None
    if "coupling" in doc:
        coupling = _number(doc["coupling"], "coupling")
        if not coupling > 0:
            raise ValueError("coupling must be positive")
    report = doc.get("report")
    if report is not None and not isinstance(report, dict):
        raise ValueError("report must be an object")
    return GraphDocument(
        graph=g,
        names=tuple(names),
        phases=phases,
        labels=labels,
        base=base,
        frequencies=frequencies,
        coupling=coupling,
        report=report,
    )


def read_document(text: str) -> GraphDocument:
    """Sniff JSON vs edge-list input and return a document either way."""
    if text.lstrip().startswith("{"):
        return parse_json(text)
    return _edge_list_document(text)
