"""Squares, acyclicity, and the canonical layering of acyclic bipartite
tournaments.

A square is a directed 4-cycle a -> b -> a' -> b' -> a.  For bipartite
tournaments, square-freeness and acyclicity coincide; the two sides of that
equivalence are implemented by independent routes here (exhaustive square
scan vs. in-degree-zero peeling) so the equivalence stays an executable
cross-check instead of a tautology.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import NotAcyclic
from .graph import SIDE_A, SIDE_B, BipartiteTournament, Vertex


class Square(NamedTuple):
    """Four vertices with arcs a -> b -> a2 -> b2 -> a."""

    a: Vertex
    b: Vertex
    a2: Vertex
    b2: Vertex

    def vertices(self) -> tuple[Vertex, Vertex, Vertex, Vertex]:
        return (self.a, self.b, self.a2, self.b2)


class CanonicalSequence(NamedTuple):
    """Ordered in-degree-zero peeling layers of an acyclic tournament.

    The sets partition V, every arc runs from an earlier set to a later one,
    and consecutive sets alternate sides.
    """

    sets: tuple[frozenset, ...]

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)


def _side_ids(T: BipartiteTournament, mask: int | None) -> tuple[list[int], list[int]]:
    """Ascending A and B indices of a gid bitmask's vertices (all when None)."""
    mask = T.full_mask if mask is None else mask
    return ([i for i in range(T.m) if mask >> i & 1],
            [j for j in range(T.n) if mask >> (T.m + j) & 1])


def find_square(T: BipartiteTournament, within_mask: int | None = None) -> Square | None:
    """First square of T[within_mask] in lexicographic (a, b, a', b') index
    order, or None; ``within_mask`` is a gid bitmask (all of V when None).

    The fixed scan order keeps branching trees reproducible.
    """
    a_set, b_set = _side_ids(T, within_mask)
    orient = T.orient
    for i in a_set:
        row_i = orient[i]
        for j in b_set:
            if not row_i[j]:
                continue  # need a_i -> b_j
            for i2 in a_set:
                if orient[i2][j]:
                    continue  # need b_j -> a_i2
                row_i2 = orient[i2]
                for j2 in b_set:
                    if row_i2[j2] and not row_i[j2]:
                        return Square(Vertex(SIDE_A, i), Vertex(SIDE_B, j),
                                      Vertex(SIDE_A, i2), Vertex(SIDE_B, j2))
    return None


def all_squares(T: BipartiteTournament, within_mask: int | None = None) -> list[int]:
    """The gid bitmask of every square of T[within_mask] (all of V when
    None), ordered by (a, a', b, b') with a < a' and b < b'.  Quadratic in
    side sizes; used by the exhaustive solvers and reduction rules.
    """
    m = T.m
    orient = T.orient
    a_ids, b_ids = _side_ids(T, within_mask)
    out: list[int] = []
    for x, i in enumerate(a_ids):
        row_i = orient[i]
        for i2 in a_ids[x + 1:]:
            row_i2 = orient[i2]
            pair = (1 << i) | (1 << i2)
            # {a_i, a_i2, b_j, b_j2} is a square iff a_i and a_i2 disagree
            # on b_j and both flip their arcs between b_j and b_j2
            for y, j in enumerate(b_ids):
                arc = row_i[j]
                if arc == row_i2[j]:
                    continue
                for j2 in b_ids[y + 1:]:
                    if row_i[j2] != arc and row_i2[j2] == arc:
                        out.append(pair | (1 << (m + j)) | (1 << (m + j2)))
    return out


def count_squares(T: BipartiteTournament, within: Iterable[Vertex] | None = None) -> int:
    mask = None if within is None else T.mask_of(within)
    return len(all_squares(T, mask))


def _peel_layers_mask(T: BipartiteTournament, alive: int) -> list[int] | None:
    """In-degree-zero peeling over a bitmask of live vertices.

    Returns the list of peeled layers, or None when peeling gets stuck
    (i.e. the live subgraph has a cycle).
    """
    inc = T.in_mask
    layers = []
    while alive:
        peel = 0
        rest = alive
        while rest:
            low = rest & -rest
            g = low.bit_length() - 1
            if inc[g] & alive == 0:
                peel |= low
            rest ^= low
        if peel == 0:
            return None
        layers.append(peel)
        alive &= ~peel
    return layers


def is_acyclic(T: BipartiteTournament, within: Iterable[Vertex] | None = None) -> bool:
    """Cycle-freeness by iterative peeling (independent of the square scan)."""
    alive = T.full_mask if within is None else T.mask_of(within)
    return _peel_layers_mask(T, alive) is not None


def canonical_sequence(T: BipartiteTournament) -> CanonicalSequence:
    """Peel the tournament into successive in-degree-zero layers.

    Raises NotAcyclic when a peel step finds no in-degree-zero vertex.
    The empty tournament yields the empty sequence.
    """
    layers = _peel_layers_mask(T, T.full_mask)
    if layers is None:
        raise NotAcyclic("tournament has a directed cycle")
    return CanonicalSequence(tuple(frozenset(T.vertices_of_mask(x)) for x in layers))


def is_topological(T: BipartiteTournament, order: Sequence[Vertex]) -> bool:
    """True iff ``order`` is a permutation of V respecting every arc."""
    vs = T.vertices()
    if len(order) != len(vs) or set(order) != set(vs):
        raise ValueError("order is not a permutation of V(T)")
    pos = {v: p for p, v in enumerate(order)}
    for i in range(T.m):
        for j in range(T.n):
            a, b = Vertex(SIDE_A, i), Vertex(SIDE_B, j)
            if T.orient[i][j]:
                if pos[a] > pos[b]:
                    return False
            elif pos[b] > pos[a]:
                return False
    return True


def some_topological_sort(T: BipartiteTournament) -> list[Vertex]:
    """Deterministic topological sort: canonical layers flattened, ascending
    index order inside each layer."""
    order = []
    for layer in canonical_sequence(T):
        order.extend(sorted(layer))
    return order
