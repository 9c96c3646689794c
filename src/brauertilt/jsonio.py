"""JSON schemas of the CLI: readers for trees and coverings, writers for
trees and complexes, and DOT export of trees."""

from __future__ import annotations

import json

from .complexes import ProjComplex
from .coverings import Covering, CyclicInterval
from .trees import BrauerTree


class SchemaError(ValueError):
    """Raised on malformed input documents; carries a field path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


def _need(obj, key, path):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(path, f"missing field '{key}'")
    return obj[key]


_KINDS = {int: "an integer", list: "a list", dict: "an object"}


def _typed(value, kind, path):
    """value, refused unless it is of the JSON kind int, list or dict (a
    bool is no integer)."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SchemaError(path, f"expected {_KINDS[kind]}")
    return value


def _scalar(value, path):
    """value, refused if it is a JSON list or object (names are hashed)."""
    if isinstance(value, (list, dict)):
        raise SchemaError(path, "expected a name, not a list or object")
    return value


def tree_from_json(doc) -> BrauerTree:
    """Parse the tree schema; the star shorthand {"star": {"n":., "k":.}}
    is accepted."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected an object")
    if "star" in doc:
        star = doc["star"]
        n, k = (_typed(_need(star, key, "$.star"), int, f"$.star.{key}") for key in ("n", "k"))
        if n < 1 or k < 1:
            raise SchemaError("$.star", "n and k must be positive integers")
        return BrauerTree.star(n, k)
    vertices = _typed(_need(doc, "vertices", "$"), list, "$.vertices")
    for i, v in enumerate(vertices):
        _scalar(v, f"$.vertices[{i}]")
    edges_doc = _typed(_need(doc, "edges", "$"), list, "$.edges")
    cyclic_doc = _typed(_need(doc, "cyclic_order", "$"), dict, "$.cyclic_order")
    exceptional = _need(doc, "exceptional", "$")
    multiplicity = _typed(_need(doc, "multiplicity", "$"), int, "$.multiplicity")
    edges = {}
    for i, e in enumerate(edges_doc):
        eid = _scalar(_need(e, "id", f"$.edges[{i}]"), f"$.edges[{i}].id")
        ends = _need(e, "ends", f"$.edges[{i}]")
        if not isinstance(ends, list) or len(ends) != 2:
            raise SchemaError(f"$.edges[{i}].ends", "expected a pair of vertices")
        edges[eid] = tuple(_scalar(v, f"$.edges[{i}].ends[{j}]") for j, v in enumerate(ends))
    cyclic = {}
    for key, order in cyclic_doc.items():
        v = int(key) if isinstance(key, str) and key.lstrip("-").isdigit() else key
        if v in cyclic:
            raise SchemaError(f"$.cyclic_order[{key}]", f"a second order for vertex {v}")
        if not isinstance(order, list):
            raise SchemaError(f"$.cyclic_order[{key}]", "expected a list of edges")
        cyclic[v] = tuple(_scalar(e, f"$.cyclic_order[{key}][{j}]") for j, e in enumerate(order))
    try:
        return BrauerTree(vertices, edges, cyclic, exceptional, multiplicity)
    except ValueError as exc:
        raise SchemaError("$", str(exc))


def tree_to_json(tree: BrauerTree, edge_labels=None) -> dict:
    vmap = {v: i for i, v in enumerate(sorted(tree.vertices, key=repr))}
    doc = {
        "vertices": [vmap[v] for v in sorted(tree.vertices, key=repr)],
        "edges": [
            {"id": e, "ends": [vmap[a], vmap[b]]}
            for e, (a, b) in sorted(tree.edges.items())
        ],
        "cyclic_order": {
            str(vmap[v]): list(order) for v, order in tree.cyclic_order.items()
        },
        "exceptional": vmap[tree.exceptional],
        "multiplicity": tree.multiplicity,
    }
    if edge_labels:
        doc["edge_labels"] = {str(e): str(edge_labels[e]) for e in sorted(tree.edges)}
    return doc


def covering_from_json(doc, n=None) -> Covering:
    if isinstance(doc, str):
        doc = json.loads(doc)
    outer_doc = _typed(_need(doc, "outer", "$"), list, "$.outer")
    mode = _need(doc, "mode", "$")

    def interval(iv, path):
        return CyclicInterval(
            *(_typed(_need(iv, key, path), int, f"{path}.{key}") for key in ("start", "size"))
        )

    outer = [interval(iv, f"$.outer[{i}]") for i, iv in enumerate(outer_doc)]
    if n is None:
        n = sum(iv.size for iv in outer)
    inner_doc = _typed(doc.get("inner", {}), dict, "$.inner")
    inner = []
    for idx in range(len(outer)):
        fam = _typed(inner_doc.get(str(idx), inner_doc.get(idx, [])), list, f"$.inner[{idx}]")
        inner.append(tuple(interval(iv, f"$.inner[{idx}][{j}]") for j, iv in enumerate(fam)))
    try:
        return Covering(n, tuple(outer), tuple(inner), mode)
    except ValueError as exc:
        raise SchemaError("$", str(exc))


def complex_to_json(T: ProjComplex) -> dict:
    doc = {
        "components": {str(d): list(T.slots(d)) for d in T.degrees()},
        "summands": [l.display() for l in T.labels],
    }
    diffs = {}
    for d, mat in T.diffs.items():
        diffs[str(d)] = [
            [{repr(pc): int(c) for pc, c in entry.items()} for entry in row]
            for row in mat
        ]
    doc["differentials"] = diffs
    return doc


def tree_to_dot(tree: BrauerTree, edge_labels=None) -> str:
    """Graphviz source: circles for vertices, the exceptional one doubled,
    edges labeled by their summand (or their id)."""
    vmap = {v: i for i, v in enumerate(sorted(tree.vertices, key=repr))}
    lines = ["graph brauer_tree {", "  node [shape=circle, label=\"\"];"]
    for v in sorted(tree.vertices, key=repr):
        shape = "doublecircle" if v == tree.exceptional else "circle"
        lines.append(f"  v{vmap[v]} [shape={shape}];")
    for e in sorted(tree.edges, key=repr):
        a, b = tree.edges[e]
        label = str(edge_labels[e]) if edge_labels and e in edge_labels else str(e)
        lines.append(f'  v{vmap[a]} -- v{vmap[b]} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
