"""Graph records: the JSON document of a weighted graph and its DOT drawing.

A record is {"v": vertex count, "edges": [[a, b], ...], "externals": {label:
vertex}, "weight": "num/den"}, the weight optional.  generate writes records
(--format json) and DOT (--format dot); export reads records back and writes
either.  The engine never reads or writes a record, so only those commands
load this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .graphs import OrderedGraph, format_weight


def graph_to_dict(g: OrderedGraph, weight: Fraction | None = None) -> dict:
    doc: dict = {
        "v": g.vertex_count,
        "edges": [[a, b] for a, b in g.edges],
        "externals": {lab: vtx for lab, vtx in g.externals},
    }
    if weight is not None:
        doc["weight"] = format_weight(weight)
    return doc


def graphs_to_json(graphs: Iterable[tuple[OrderedGraph, Fraction | None]]) -> str:
    """The JSON array of graph_to_dict records, one per (graph, weight), as
    json.dumps(..., sort_keys=True, indent=2) writes it, newline-terminated.

    Written directly because json.dumps takes its pure-Python encoder when
    indent is set.  The keys come out sorted because the record's keys are
    fixed and an OrderedGraph keeps its distinct labels sorted.  Labels, the
    only strings that need escaping, are quoted by encode_basestring_ascii
    from _json, the C function json.dumps calls on a string with its default
    ensure_ascii=True, so no run imports the json package to write them.
    Each distinct edge tuple is rendered once per call.
    """
    from _json import encode_basestring_ascii

    records = []
    edge_blocks: dict[tuple, str] = {(): "[]"}  # edges -> their rendered block
    for g, w in graphs:
        edges = edge_blocks.get(g.edges)
        if edges is None:
            edges = edge_blocks[g.edges] = "[\n" + ",\n".join([
                f"      [\n        {a},\n        {b}\n      ]" for a, b in g.edges
            ]) + "\n    ]"
        if g.externals:
            ext = "{\n" + ",\n".join([
                f"      {encode_basestring_ascii(lab)}: {vtx}" for lab, vtx in g.externals
            ]) + "\n    }"
        else:
            ext = "{}"
        weight = "" if w is None else f',\n    "weight": "{format_weight(w)}"'
        records.append(f'  {{\n    "edges": {edges},\n    "externals": {ext},\n'
                       f'    "v": {g.vertex_count}{weight}\n  }}')
    if not records:
        return "[]\n"
    return "[\n" + ",\n".join(records) + "\n]\n"


def _vertex_number(x: object) -> int:
    # JSON integers only: int("2") or int(2.9) would read another graph.
    if type(x) is not int:
        raise ValueError(f"graph vertex counts and vertices must be integers, got {x!r}")
    return x


def graph_from_dict(doc: Mapping) -> tuple[OrderedGraph, Fraction | None]:
    """Inverse of graph_to_dict; a document that is not a graph record raises
    ValueError.  The vertex count, edge ends and external vertices must be
    integers and the weight a string or an integer, so no float (inexact) or
    bool is read as a number."""
    if not isinstance(doc, Mapping) or "v" not in doc:
        raise ValueError(f"graph record must be an object with a \"v\" entry, got {doc!r}")
    externals = doc.get("externals", {})
    if not isinstance(externals, Mapping):
        raise ValueError(f"graph \"externals\" must map labels to vertices, got {externals!r}")
    weight = doc.get("weight")
    if weight is not None and type(weight) not in (str, int):
        raise ValueError(f"graph \"weight\" must be a string or an integer, got {weight!r}")
    try:
        g = OrderedGraph(
            _vertex_number(doc["v"]),
            tuple((_vertex_number(a), _vertex_number(b)) for a, b in doc.get("edges", ())),
            tuple((str(lab), _vertex_number(vtx)) for lab, vtx in externals.items()),
        )
        return g, (Fraction(weight) if weight is not None else None)
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed graph record {doc!r}: {exc}") from exc


def _dot_quoted(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: OrderedGraph, weight: Fraction | None = None, name: str = "g") -> str:
    """Render as Graphviz DOT: circle vertices v1..vn, diamond external-label
    nodes whose ID is the quoted label.  A label spelled like a vertex ID
    would be that vertex's node, so its node gets a fresh ID, one that is no
    label and no vertex ID, and the label as its DOT label."""
    lines = [f"graph {name} {{"]
    if weight is not None:
        lines.append(f"  // weight {format_weight(weight)}")
    lines.append("  node [shape=circle];")
    for i in range(1, g.vertex_count + 1):
        lines.append(f"  v{i};")
    for a, b in g.edges:
        lines.append(f"  v{a} -- v{b};")
    vertex_ids = {f"v{i}" for i in range(1, g.vertex_count + 1)}
    taken = vertex_ids.union([lab for lab, _ in g.externals])
    fresh = 0
    for lab, vtx in g.externals:
        node, attributes = _dot_quoted(lab), "shape=diamond"
        if lab in vertex_ids:
            while f"ext{fresh}" in taken:
                fresh += 1
            taken.add(f"ext{fresh}")
            node, attributes = f'"ext{fresh}"', f"shape=diamond, label={node}"
        lines.append(f"  {node} [{attributes}];")
        lines.append(f"  {node} -- v{vtx};")
    lines.append("}")
    return "\n".join(lines)
