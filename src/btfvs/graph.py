"""Bipartite tournaments and mixed multigraphs.

A bipartite tournament on sides A (size m) and B (size n) is stored as an
m-by-n orientation matrix: ``orient[i][j]`` is True when the arc runs
a_i -> b_j and False when it runs b_j -> a_i.  The encoding makes
"exactly one arc per cross pair, none within a side" unrepresentable as an
error state, so only the matrix shape needs validation.

Vertices are identified by ``(side, index)``; display labels are separate
and presentation-only, so identities survive induced-subgraph mappings.
Instances are immutable after construction and safe to share between
concurrent solver branches.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionMismatch

SIDE_A = "A"
SIDE_B = "B"


class Vertex(NamedTuple):
    side: str
    index: int

    def default_label(self) -> str:
        return ("a" if self.side == SIDE_A else "b") + str(self.index)


class SubTournament(NamedTuple):
    """An induced subtournament plus the identity mapping to its host."""

    tournament: "BipartiteTournament"
    to_host: dict  # Vertex in sub -> Vertex in host
    from_host: dict  # Vertex in host -> Vertex in sub


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _bits(flags: Sequence[bool]) -> int:
    """The int whose bit j is ``flags[j]``."""
    return int(b"0" + bytes(flags[::-1]).translate(_DIGITS), 2)


class BipartiteTournament:
    """Immutable bipartite tournament with an orientation-matrix encoding.

    Empty sides (m == 0 or n == 0) are legal; such tournaments are trivially
    acyclic and serve as recursion base cases.
    """

    # ``out_mask`` and ``in_mask`` hold each vertex's out- and in-neighbour
    # gid masks, packed at construction.  ``_reduction`` is a cache, filled
    # on first use: the survivor mask of the last reduction
    # ``solvers._survivors`` made.
    __slots__ = ("m", "n", "orient", "labels", "out_mask", "in_mask", "_reduction")

    def __init__(self, m: int, n: int, orient: Sequence[Sequence[object]],
                 labels: Sequence[str] | None = None):
        if m < 0 or n < 0:
            raise DimensionMismatch(f"negative side size: m={m}, n={n}")
        if len(orient) != m:
            raise DimensionMismatch(f"expected {m} rows, got {len(orient)}")
        rows = []
        for i, row in enumerate(orient):
            row = tuple(map(bool, row))
            if len(row) != n:
                raise DimensionMismatch(f"row {i} has {len(row)} entries, expected {n}")
            rows.append(row)
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != m + n:
                raise DimensionMismatch(
                    f"expected {m + n} labels, got {len(labels)}")
            if len(set(labels)) != len(labels):
                raise DimensionMismatch("labels must be unique")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "orient", tuple(rows))
        object.__setattr__(self, "labels", labels)
        # each row of the matrix, and each column, is packed into one int at
        # C speed: its bools, last first, as the digits of a binary numeral
        a_side, b_side = (1 << m) - 1, ((1 << n) - 1) << m
        packed = [_bits(row) << m for row in rows]  # bit m + j: a_i -> b_j
        # bit i: a_i -> b_j; with m == 0 the zip yields no column at all
        cols = [_bits(col) for col in zip(*rows)] or [0] * n
        object.__setattr__(self, "out_mask", packed + [a_side ^ col for col in cols])
        object.__setattr__(self, "in_mask", [b_side ^ row for row in packed] + cols)
        object.__setattr__(self, "_reduction", None)

    def __setattr__(self, name, value):
        raise AttributeError("BipartiteTournament is immutable")

    def __reduce__(self):
        return (BipartiteTournament, (self.m, self.n, self.orient, self.labels))

    # -- identity ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, BipartiteTournament):
            return NotImplemented
        return (self.m, self.n, self.orient, self.labels) == \
            (other.m, other.n, other.orient, other.labels)

    def __hash__(self) -> int:
        return hash((self.m, self.n, self.orient, self.labels))

    def __repr__(self) -> str:
        return f"BipartiteTournament(m={self.m}, n={self.n})"

    # -- vertices ---------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.m + self.n

    def a_vertices(self) -> list[Vertex]:
        return [Vertex(SIDE_A, i) for i in range(self.m)]

    def b_vertices(self) -> list[Vertex]:
        return [Vertex(SIDE_B, j) for j in range(self.n)]

    def vertices(self) -> list[Vertex]:
        return self.a_vertices() + self.b_vertices()

    def is_vertex(self, v: Vertex) -> bool:
        if v.side == SIDE_A:
            return 0 <= v.index < self.m
        if v.side == SIDE_B:
            return 0 <= v.index < self.n
        return False

    def check_vertex(self, v: Vertex) -> None:
        if not self.is_vertex(v):
            raise ValueError(f"{v!r} is not a vertex of {self!r}")

    def label(self, v: Vertex) -> str:
        self.check_vertex(v)
        if self.labels is None:
            return v.default_label()
        return self.labels[self.gid(v)]

    def vertex_by_label(self, label: str) -> Vertex:
        for v in self.vertices():
            if self.label(v) == label:
                return v
        raise KeyError(f"no vertex labelled {label!r}")

    # -- global ids and bitmask adjacency (internal fast path) -------------

    def gid(self, v: Vertex) -> int:
        """Global id: a_i -> i, b_j -> m + j."""
        return v.index if v.side == SIDE_A else self.m + v.index

    def vertex_of_gid(self, g: int) -> Vertex:
        if g < self.m:
            return Vertex(SIDE_A, g)
        return Vertex(SIDE_B, g - self.m)

    def mask_of(self, vs: Iterable[Vertex]) -> int:
        mask = 0
        for v in vs:
            mask |= 1 << self.gid(v)
        return mask

    def checked_mask(self, vs: Iterable[Vertex]) -> int:
        """:meth:`mask_of`, raising ValueError for a vertex not of T."""
        mask = 0
        for v in vs:
            self.check_vertex(v)
            mask |= 1 << self.gid(v)
        return mask

    def vertices_of_mask(self, mask: int) -> list[Vertex]:
        """The vertices of a gid mask, ascending by gid; each is built
        inline, as :meth:`vertex_of_gid` would build it."""
        out, m, new = [], self.m, tuple.__new__
        while mask:
            low = mask & -mask
            g = low.bit_length() - 1
            out.append(new(Vertex, (SIDE_A, g) if g < m else (SIDE_B, g - m)))
            mask ^= low
        return out

    @property
    def full_mask(self) -> int:
        return (1 << self.num_vertices) - 1

    # -- arcs and neighborhoods --------------------------------------------

    def has_arc(self, u: Vertex, v: Vertex) -> bool:
        """True iff the arc u -> v exists (never for a same-side pair)."""
        self.check_vertex(u)
        self.check_vertex(v)
        if u.side == v.side:
            return False
        if u.side == SIDE_A:
            return self.orient[u.index][v.index]
        return not self.orient[v.index][u.index]

    def out_neighbors(self, v: Vertex, within: Iterable[Vertex] | None = None) -> frozenset:
        self.check_vertex(v)
        mask = self.out_mask[self.gid(v)]
        if within is not None:
            mask &= self.mask_of(within)
        return frozenset(self.vertices_of_mask(mask))

    def in_neighbors(self, v: Vertex, within: Iterable[Vertex] | None = None) -> frozenset:
        self.check_vertex(v)
        mask = self.in_mask[self.gid(v)]
        if within is not None:
            mask &= self.mask_of(within)
        return frozenset(self.vertices_of_mask(mask))

    def arcs(self) -> list[tuple[Vertex, Vertex]]:
        """All arcs, tail first, in row-major scan order."""
        out = []
        for i in range(self.m):
            for j in range(self.n):
                a, b = Vertex(SIDE_A, i), Vertex(SIDE_B, j)
                out.append((a, b) if self.orient[i][j] else (b, a))
        return out

    # -- induced subgraphs ---------------------------------------------------

    def induced(self, keep: Iterable[Vertex]) -> SubTournament:
        """Induced subtournament on ``keep``, with both identity mappings.

        Kept vertices are renumbered contiguously in ascending index order
        per side, so the mapping round-trips identities.
        """
        keep = set(keep)
        for v in keep:
            self.check_vertex(v)
        a_keep = sorted(i for (s, i) in keep if s == SIDE_A)
        b_keep = sorted(j for (s, j) in keep if s == SIDE_B)
        orient = [[self.orient[i][j] for j in b_keep] for i in a_keep]
        labels = None
        if self.labels is not None:
            labels = [self.labels[i] for i in a_keep] + \
                [self.labels[self.m + j] for j in b_keep]
        sub = BipartiteTournament(len(a_keep), len(b_keep), orient, labels)
        to_host = {}
        for new_i, old_i in enumerate(a_keep):
            to_host[Vertex(SIDE_A, new_i)] = Vertex(SIDE_A, old_i)
        for new_j, old_j in enumerate(b_keep):
            to_host[Vertex(SIDE_B, new_j)] = Vertex(SIDE_B, old_j)
        from_host = {old: new for new, old in to_host.items()}
        return SubTournament(sub, to_host, from_host)

    def remove(self, drop: Iterable[Vertex]) -> SubTournament:
        drop = set(drop)
        for v in drop:
            self.check_vertex(v)
        return self.induced(set(self.vertices()) - drop)

    # -- twins ----------------------------------------------------------------

    def false_twin_classes(self, within_mask: int | None = None) -> list[frozenset]:
        """Partition of V (of the gid bitmask ``within_mask`` when given)
        into classes of vertices with identical in/out neighborhoods inside
        it (necessarily same-side).  Deterministic order: classes sorted by
        their smallest member.
        """
        alive = self.full_mask if within_mask is None else within_mask
        return [frozenset(map(self.vertex_of_gid, gids)) for gids in self.twin_gids(alive)]

    def twin_gids(self, alive: int) -> Iterable[list[int]]:
        """The false-twin classes of the gid bitmask ``alive``, each as its
        gids ascending, ordered by smallest member: the vertices grouped by
        ``out & alive`` alone.  Within ``alive`` a vertex's in-set is the
        other side's live vertices outside its out-set, so the out-set
        decides the class.  Two vertices of opposite sides never share it:
        their out-sets lie on opposite sides, and they are not both empty,
        as one of the two beats the other.
        """
        groups: dict[int, list[int]] = {}
        out = self.out_mask
        rest = alive
        while rest:
            low = rest & -rest
            g = low.bit_length() - 1
            groups.setdefault(out[g] & alive, []).append(g)
            rest ^= low
        return groups.values()


class MixedMultigraph:
    """A multigraph whose parts induce bipartite tournaments, joined by
    undirected cross-part edges.

    ``parts`` is a list of bipartite tournaments; a vertex of the whole graph
    is addressed as ``(part_index, Vertex)``.  ``undirected`` is a multiset
    (list) of cross-part edges; edges within a part are rejected.
    """

    __slots__ = ("parts", "undirected")

    def __init__(self, parts: Sequence[BipartiteTournament],
                 undirected: Sequence[tuple[tuple[int, Vertex], tuple[int, Vertex]]]):
        parts = tuple(parts)
        edges = []
        for (pi, u), (pj, v) in undirected:
            if not (0 <= pi < len(parts) and 0 <= pj < len(parts)):
                raise ValueError(f"part index out of range in edge {((pi, u), (pj, v))!r}")
            if pi == pj:
                raise ValueError(f"undirected edge within part {pi}: {u!r} -- {v!r}")
            parts[pi].check_vertex(u)
            parts[pj].check_vertex(v)
            # store with the lower part index first, for a stable identity
            e = ((pi, u), (pj, v)) if pi < pj else ((pj, v), (pi, u))
            edges.append(e)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "undirected", tuple(edges))

    def __setattr__(self, name, value):
        raise AttributeError("MixedMultigraph is immutable")

    def __reduce__(self):
        return (MixedMultigraph, (self.parts, self.undirected))

    def __eq__(self, other):
        if not isinstance(other, MixedMultigraph):
            return NotImplemented
        return (self.parts, self.undirected) == (other.parts, other.undirected)

    def __hash__(self):
        return hash((self.parts, self.undirected))

    def vertices(self) -> list[tuple[int, Vertex]]:
        out = []
        for pi, part in enumerate(self.parts):
            out.extend((pi, v) for v in part.vertices())
        return out

    @property
    def num_vertices(self) -> int:
        return sum(p.num_vertices for p in self.parts)

    def undirected_degree(self, part_index: int) -> int:
        """Number of undirected edges incident on a part."""
        return sum(1 for (pi, _), (pj, _) in self.undirected
                   if part_index in (pi, pj))

    def is_undirected_matching(self) -> bool:
        seen = set()
        for e in self.undirected:
            for end in e:
                if end in seen:
                    return False
                seen.add(end)
        return True
