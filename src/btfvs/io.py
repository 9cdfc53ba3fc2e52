"""Canonical JSON file formats.

One instance format for tournaments (m, n, 0/1 orientation matrix, optional
budget, labels, metadata), one for mixed multigraphs.  Parsing is strict --
every malformed cell is named -- and round-trips are lossless: unknown
top-level fields ride along unchanged.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .errors import DimensionMismatch, ParseError
from .graph import BipartiteTournament, MixedMultigraph, Vertex

KNOWN_FIELDS = {"m", "n", "orient", "k", "labels", "metadata"}


class ParsedInstance(NamedTuple):
    tournament: BipartiteTournament
    k: int | None
    metadata: dict | None
    extras: dict  # unknown top-level fields, preserved on re-serialization


def parse_instance(text: str | bytes) -> ParsedInstance:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    if not isinstance(obj, dict):
        raise ParseError("instance file must hold a JSON object")
    for field in ("m", "n", "orient"):
        if field not in obj:
            raise ParseError(f"missing required field {field!r}")
    m, n = obj["m"], obj["n"]
    # type(), not isinstance(): JSON true and false parse to bools, ints too
    if type(m) is not int or type(n) is not int or m < 0 or n < 0:
        raise ParseError(f"m and n must be non-negative integers, got {m!r}, {n!r}")
    orient_raw = obj["orient"]
    if not isinstance(orient_raw, list):
        raise ParseError("orient must be an array of arrays")
    orient = []
    for i, row in enumerate(orient_raw):
        if not isinstance(row, list):
            raise ParseError(f"orient row {i} is not an array")
        cells = []
        for j, cell in enumerate(row):
            if cell not in (0, 1) or isinstance(cell, bool):
                raise ParseError(f"orient[{i}][{j}] must be 0 or 1, got {cell!r}")
            cells.append(bool(cell))
        orient.append(cells)
    k = obj.get("k")
    if k is not None and (type(k) is not int or k < 0):
        raise ParseError(f"k must be a non-negative integer, got {k!r}")
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise ParseError("labels must be an array of strings")
    metadata = obj.get("metadata")
    try:
        T = BipartiteTournament(m, n, orient, labels)
    except DimensionMismatch as exc:
        raise ParseError(str(exc)) from exc
    extras = {key: val for key, val in obj.items() if key not in KNOWN_FIELDS}
    return ParsedInstance(T, k, metadata, extras)


def serialize_instance(T: BipartiteTournament, k: int | None = None,
                       metadata: dict | None = None,
                       extras: dict | None = None) -> str:
    obj: dict = {
        "m": T.m,
        "n": T.n,
        "orient": [[1 if x else 0 for x in row] for row in T.orient],
    }
    if k is not None:
        obj["k"] = k
    if T.labels is not None:
        obj["labels"] = list(T.labels)
    if metadata is not None:
        obj["metadata"] = metadata
    if extras:
        obj.update(extras)
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def labels_of(T: BipartiteTournament, vertices) -> list[str]:
    return sorted(T.label(v) for v in vertices)


def _by_label(T: BipartiteTournament, label: str) -> Vertex:
    try:
        return T.vertex_by_label(label)
    except KeyError:
        raise ParseError(f"no vertex labelled {label!r}") from None


def resolve_labels(T: BipartiteTournament, spec: str) -> frozenset:
    """Comma-separated labels -> vertex set; an unknown label is a ParseError."""
    out = set()
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        out.add(_by_label(T, token))
    return frozenset(out)


def resolve_edge_list(T: BipartiteTournament, spec: str) -> frozenset:
    """Comma-separated 'label-label' pairs -> arc set, oriented as in T."""
    out = set()
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if "-" not in token:
            raise ParseError(f"edge {token!r} must be 'label-label'")
        left, right = token.split("-", 1)
        u = _by_label(T, left.strip())
        w = _by_label(T, right.strip())
        if T.has_arc(u, w):
            out.add((u, w))
        elif T.has_arc(w, u):
            out.add((w, u))
        else:
            raise ParseError(f"edge {token!r} joins two same-side vertices")
    return frozenset(out)


def canonical_sequence_json(T: BipartiteTournament, seq) -> dict:
    return {"sequence": [labels_of(T, layer) for layer in seq]}


def m_sequence_json(T: BipartiteTournament, seq, edges, conflicts) -> dict:
    """Blocks plus back edges; ``conflicts`` maps edge -> bool."""
    return {
        "blocks": [{"x": labels_of(T, x), "y": labels_of(T, y)}
                   for (x, y) in seq.blocks],
        "back_edges": [
            {"from": T.label(e.tail), "to": T.label(e.head),
             "kind": e.kind.value, "conflict": conflicts[(e.tail, e.head)]}
            for e in edges],
    }


def _part_label(graph: MixedMultigraph, pi: int, v: Vertex) -> str:
    part = graph.parts[pi]
    if part.labels is not None:
        return part.label(v)
    return f"p{pi}:{v.default_label()}"


def serialize_dfvc(inst) -> str:
    """Mixed multigraph instance: parts as tournament objects, undirected
    edges and forbidden vertices by label, plus the budget."""
    g = inst.graph
    parts = []
    for pi, part in enumerate(g.parts):
        labels = list(part.labels) if part.labels is not None else \
            [_part_label(g, pi, v) for v in part.vertices()]
        parts.append(json.loads(serialize_instance(
            BipartiteTournament(part.m, part.n, part.orient, labels))))
    obj = {
        "parts": parts,
        "undirected": [[_part_label(g, pi, u), _part_label(g, pj, w)]
                       for ((pi, u), (pj, w)) in g.undirected],
        "forbidden": sorted(_part_label(g, pi, v) for (pi, v) in inst.forbidden),
        "budget": inst.budget,
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def parse_dfvc(text: str | bytes):
    from .dfvc import DfvcInstance
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    if not isinstance(obj, dict) or "parts" not in obj or "budget" not in obj:
        raise ParseError("mixed multigraph file needs 'parts' and 'budget'")
    budget = obj["budget"]
    if type(budget) is not int or budget < 0:
        raise ParseError(f"budget must be a non-negative integer, got {budget!r}")
    if not isinstance(obj["parts"], list):
        raise ParseError("parts must be an array of instance objects")
    undirected_raw = obj.get("undirected", [])
    if not isinstance(undirected_raw, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)
            for e in undirected_raw):
        raise ParseError("undirected must be an array of [label, label] pairs")
    forbidden_raw = obj.get("forbidden", [])
    if not isinstance(forbidden_raw, list) or not all(isinstance(x, str) for x in forbidden_raw):
        raise ParseError("forbidden must be an array of labels")
    parts = []
    by_label: dict = {}
    for pi, part_obj in enumerate(obj["parts"]):
        parsed = parse_instance(json.dumps(part_obj))
        part = parsed.tournament
        parts.append(part)
        for v in part.vertices():
            label = part.label(v)
            if label in by_label:
                raise ParseError(f"duplicate vertex label {label!r} across parts")
            by_label[label] = (pi, v)

    def lookup(label: str):
        if label not in by_label:
            raise ParseError(f"unknown vertex label {label!r}")
        return by_label[label]

    undirected = [(lookup(x), lookup(y)) for x, y in undirected_raw]
    forbidden = frozenset(lookup(x) for x in forbidden_raw)
    graph = MixedMultigraph(parts, undirected)
    return DfvcInstance(graph, forbidden, budget)


def serialize_cfvs(inst) -> str:
    """Constrained instance dump for pipeline family inspection."""
    T = inst.T
    obj = {
        "instance": json.loads(serialize_instance(T, k=inst.k)),
        "m_set": labels_of(T, inst.M),
        "p_set": labels_of(T, inst.P),
        "f_edges": sorted([T.label(u), T.label(w)] for (u, w) in inst.F),
        "k": inst.k,
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
