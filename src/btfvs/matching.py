"""Bipartite matching and vertex-cover utilities for edge sets over the two
sides of a tournament.

Edges are (u, w) vertex pairs with endpoints on opposite sides; the side
attribute supplies the bipartition.  Everything is deterministic: inputs
are sorted before processing.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

from .errors import FamilyCapExceeded
from .graph import SIDE_A, Vertex


def _bipartition(edges: Sequence[tuple]) -> tuple[list, dict]:
    left = sorted({u if u.side == SIDE_A else w for (u, w) in edges})
    adj: dict = {l: [] for l in left}
    for (u, w) in edges:
        l, r = (u, w) if u.side == SIDE_A else (w, u)
        adj[l].append(r)
    for l in adj:
        adj[l] = sorted(set(adj[l]))
    return left, adj


def max_bipartite_matching(edges: Iterable[tuple]) -> list[tuple]:
    """Maximum matching by augmenting-path search.

    Returns matched pairs as (left, right) = (A-side, B-side) vertex pairs,
    sorted; deterministic for a given edge set.
    """
    edges = sorted(set(tuple(e) for e in edges))
    for (u, w) in edges:
        if u.side == w.side:
            raise ValueError(f"edge {u!r} -- {w!r} joins two same-side vertices")
    left, adj = _bipartition(edges)
    match_right: dict = {}

    def try_augment(l, seen: set) -> bool:
        for r in adj[l]:
            if r in seen:
                continue
            seen.add(r)
            if r not in match_right or try_augment(match_right[r], seen):
                match_right[r] = l
                return True
        return False

    for l in left:
        try_augment(l, set())
    return sorted((l, r) for r, l in match_right.items())


def enumerate_min_vertex_covers(edges: Iterable[tuple], cap: int | None = None) -> list[frozenset]:
    """All minimum vertex covers of a bipartite edge set.

    Every minimum cover picks exactly one endpoint of each maximum-matching
    edge and nothing else, so the candidates are the product of those
    choices, at most 2^(matching size) of them; candidates that leave some
    edge uncovered are dropped.  ``cap`` bounds the number of candidate
    leaves visited (a guard for callers enumerating many covers); a leaf
    past it raises FamilyCapExceeded.
    """
    edges = sorted(set(tuple(e) for e in edges))
    if not edges:
        return [frozenset()]
    covers: set = set()
    for leaves, chosen in enumerate(product(*max_bipartite_matching(edges))):
        if cap is not None and leaves > cap:
            raise FamilyCapExceeded("vertex cover enumeration", leaves, cap)
        cset = frozenset(chosen)
        if all(u in cset or w in cset for (u, w) in edges):
            covers.add(cset)
    if not covers:
        raise AssertionError("a bipartite edge set always has a minimum cover")
    return sorted(covers, key=sorted)


def min_vertex_cover(edges: Iterable[tuple], cap: int | None = None) -> frozenset:
    """One canonical minimum vertex cover (first in the enumeration order);
    ``cap`` bounds the enumeration as in :func:`enumerate_min_vertex_covers`."""
    return enumerate_min_vertex_covers(edges, cap)[0]


def x_preferred_cover(matching_edges: Iterable[tuple], x_set: Iterable[Vertex]) -> frozenset:
    """Cover of a matching that avoids ``x_set`` where it can: for an edge
    with exactly one endpoint in x_set, the other endpoint is taken;
    otherwise the tie-break is the smaller (side, index) endpoint."""
    x_set = frozenset(x_set)
    chosen = set()
    seen: set = set()
    for (u, w) in sorted(set(tuple(e) for e in matching_edges)):
        if u in seen or w in seen:
            raise ValueError("edges do not form a matching")
        seen.add(u)
        seen.add(w)
        u_in, w_in = u in x_set, w in x_set
        if u_in and not w_in:
            chosen.add(w)
        elif w_in and not u_in:
            chosen.add(u)
        else:
            chosen.add(min(u, w))
    return frozenset(chosen)


def inconsistent_vertices(T, order: Sequence[Vertex]) -> frozenset:
    """Opposite-side vertices admitting no split of ``order`` into a prefix
    of in-neighbors followed by a suffix of out-neighbors.

    ``order`` must list vertices of a single side; the scan covers every
    vertex of the other side.
    """
    order = list(order)
    if not order:
        return frozenset()
    sides = {v.side for v in order}
    if len(sides) != 1:
        raise ValueError("order mixes the two sides")
    side = sides.pop()
    others = [v for v in T.vertices() if v.side != side]
    bad = set()
    for v in others:
        if not _consistent_with(T, order, v):
            bad.add(v)
    return frozenset(bad)


def _consistent_with(T, order: Sequence[Vertex], v: Vertex) -> bool:
    for i in range(len(order) + 1):
        if all(T.has_arc(u, v) for u in order[:i]) and \
                all(T.has_arc(v, u) for u in order[i:]):
            return True
    return False


def consistent_with_mixed(T, order: Sequence[Vertex], v: Vertex) -> bool:
    """Consistency of ``v`` against a mixed-side ordering: only the
    opposite-side subsequence constrains v."""
    relevant = [u for u in order if u.side != v.side]
    return _consistent_with(T, relevant, v)
