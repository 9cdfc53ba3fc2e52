"""Squares, acyclicity, and the canonical layering of acyclic bipartite
tournaments.

A square is a directed 4-cycle a -> b -> a' -> b' -> a.  For bipartite
tournaments, square-freeness and acyclicity coincide; the two sides of that
equivalence are implemented by independent routes here (exhaustive square
scan vs. in-degree-zero peeling) so the equivalence stays an executable
cross-check instead of a tautology.  A third route, :func:`_rows_nested`,
tests square-freeness by whether the live out-rows of the A vertices form
a chain under inclusion.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

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


class _PairGroups(list):
    """The grouped A-pairs of :func:`_a_pairs`: ``(a, U0, [(a', D1, D0),
    ...])`` per group.  ``heads`` is the mask of the vertices that head a
    group; :meth:`index` keys the live out-rows and the groups by bit.
    """

    __slots__ = ("heads", "_rows", "_index")

    def index(self) -> tuple[dict, dict]:
        """``(rows, lists)``: the live out-row of each live A vertex and the
        pairs of each head, keyed by bit; built at the first call."""
        if self._index is None:
            self._index = ({a: row for a, row, _ in self._rows},
                           {a: pairs for a, _, pairs in self})
        return self._index


def _a_pairs(T: BipartiteTournament, alive: int) -> _PairGroups:
    """The pairs a < a' of A vertices of the gid bitmask ``alive`` that lie
    in a square, grouped by a in ascending order: ``(a, U0, [(a', D1, D0),
    ...])`` with a and a' as bits and the a' ascending.  Over the live B
    vertices, D1 = out(a) & ~out(a') and D0 = out(a') & ~out(a), and
    {a, a', b, b'} is a square exactly when b is in D1 and b' in D0.  U0 is
    the union of the group's D0 masks, so a group none of whose D0 vertices
    is free holds no square that misses the used vertices.

    Built by draining :func:`_a_pair_scan`, the one builder.
    """
    table = _PairGroups()
    for _ in _a_pair_scan(T, alive, table):
        pass
    return table


def _a_pair_scan(T: BipartiteTournament, alive: int, table: _PairGroups) -> Iterator[tuple]:
    """Fill the empty ``table`` with the groups of :func:`_a_pairs`, yielding
    each group as it is appended.  Once the scan is exhausted, ``table``
    (its ``heads`` too) is ``_a_pairs(T, alive)``; a reader that stops early
    leaves a prefix of it, and pays only for the groups it reached.
    """
    out = T.out_mask
    rows = [(1 << i, row := out[i] & alive, ~row) for i in range(T.m) if alive >> i & 1]
    table._rows, table._index = rows, None
    heads = 0
    for x, (a, row, off) in enumerate(rows):
        pairs = [(a2, d1, d0) for a2, row2, off2 in rows[x + 1:]
                 if (d1 := row & off2) and (d0 := row2 & off)]
        if pairs:
            union = 0
            for _, _, d0 in pairs:
                union |= d0
            group = (a, union, pairs)
            table.append(group)
            heads |= a
            yield group
    table.heads = heads


def _square_gids(T: BipartiteTournament, alive: int) -> tuple[int, int, int, int] | None:
    """The gids (a, b, a', b') of :func:`find_square`'s square of T[alive],
    or None; the branching search reads them as bits."""
    out = T.out_mask
    rest = alive & ((1 << T.m) - 1)
    while rest:
        low = rest & -rest
        rest ^= low
        i = low.bit_length() - 1
        back_i = alive & ~out[i]
        tried = 0  # a' already seen to have no b' with a' -> b' -> a_i
        bs = out[i] & alive
        while bs:
            bj = bs & -bs
            bs ^= bj
            j = bj.bit_length() - 1
            a2s = out[j] & alive & ~tried
            while a2s:
                bi2 = a2s & -a2s
                a2s ^= bi2
                i2 = bi2.bit_length() - 1
                closing = out[i2] & back_i
                if closing:
                    return i, j, i2, (closing & -closing).bit_length() - 1
                tried |= bi2
    return None


def find_square(T: BipartiteTournament, within_mask: int | None = None) -> Square | None:
    """First square of T[within_mask] in lexicographic (a, b, a', b') index
    order, or None; ``within_mask`` is a gid bitmask (all of V when None).

    The fixed scan order keeps branching trees reproducible.
    """
    gids = _square_gids(T, T.full_mask if within_mask is None else within_mask)
    return None if gids is None else Square(*map(T.vertex_of_gid, gids))


def all_squares(T: BipartiteTournament, within_mask: int | None = None) -> list[int]:
    """The gid bitmask of every square of T[within_mask] (all of V when
    None), ordered by (a, a', b, b') with a < a' and b < b'.  Used by the
    exhaustive oracle; the search and the packing bound read
    :func:`_a_pairs` directly, with no square listed.
    """
    alive = T.full_mask if within_mask is None else within_mask
    squares: list[int] = []
    for a, _, pairs in _a_pairs(T, alive):
        for a2, d1, d0 in pairs:
            pair = a | a2
            rest = d1 | d0
            while rest:
                low = rest & -rest
                rest ^= low
                other = (d0 if low & d1 else d1) & rest  # the b' > b across from b
                while other:
                    high = other & -other
                    other ^= high
                    squares.append(pair | low | high)
    return squares


def _rows_nested(T: BipartiteTournament, alive: int) -> bool:
    """Is T[alive] square-free?  Decided by whether the live out-rows
    ``out(a) & alive`` of its A vertices form a chain under inclusion (see
    :func:`solvers.verify_fvs` for the proof), with no square sought.

    A strict subset has the smaller integer value, so the rows sorted as
    ints form a chain exactly when each is a subset of the next.
    """
    out = T.out_mask
    prev = 0
    for row in sorted([out[i] & alive for i in range(T.m) if alive >> i & 1]):
        if prev & ~row:
            return False
        prev = row
    return True


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


def _closure(adj: list[int], start: int, within: int) -> int:
    """The vertices of the gid mask ``within`` that the bit ``start`` (in
    ``within``) reaches along the adjacency masks ``adj``, start included."""
    reach = frontier = start
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = step & within & ~reach
        reach |= frontier
    return reach


def _on_cycles(T: BipartiteTournament, alive: int) -> int:
    """The gid mask of the vertices of T[alive] that lie on a cycle: those
    whose strong component has more than one vertex.

    Components come lowest vertex first, each the backward closure of v
    inside its forward closure, both over the vertices not yet placed: a
    path between two vertices of one component stays inside it, so the
    components already taken out cut none.
    """
    out, inc = T.out_mask, T.in_mask
    cyclic = 0
    rest = alive
    while rest:
        v = rest & -rest
        component = _closure(inc, v, _closure(out, v, rest))
        if component != v:
            cyclic |= component
        rest &= ~component
    return cyclic


def is_acyclic(T: BipartiteTournament, within: Iterable[Vertex] | None = None) -> bool:
    """Cycle-freeness by iterative peeling (independent of the square scan)."""
    alive = T.full_mask if within is None else T.checked_mask(within)
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
