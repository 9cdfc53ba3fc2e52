"""Block structure of a bipartite tournament relative to an undeletable
vertex set M.

When every single vertex added to M keeps T[M] acyclic (M-consistency), the
canonical sequence (X'_1, X'_2, ...) of T[M] extends to a partition of all
of V(T): each vertex is either equivalent to one layer X'_i (same
M-neighborhoods as its members), in conflict with exactly one layer (it has
both an in- and an out-neighbor inside it), or universal (it can sit before
or after all of M in a topological sort).  The resulting alternating blocks
(X_i, Y_i) are the backbone of the constrained-solver pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from .errors import EmptyM, GroundSetMismatch, NotMConsistent
from .graph import SIDE_A, SIDE_B, BipartiteTournament, Vertex
from .structure import _peel_layers_mask


class ClassKind(Enum):
    EQUIVALENT = "equivalent"
    CONFLICTING = "conflicting"
    UNIVERSAL_MINUS = "universal-"
    UNIVERSAL_PLUS = "universal+"


class Classification(NamedTuple):
    """Outcome of classifying one vertex against the layers of T[M].

    ``block`` is the 0-based index into the canonical sequence of T[M] for
    the equivalent/conflicting kinds, and None for the universal kinds.
    """

    kind: ClassKind
    block: int | None = None


class BackEdgeKind(Enum):
    SHORT = "short"
    LONG = "long"


class BackEdge(NamedTuple):
    """Arc from a higher-indexed block to a strictly lower-indexed one."""

    tail: Vertex
    head: Vertex
    tail_block: int
    head_block: int

    @property
    def kind(self) -> BackEdgeKind:
        gap = self.tail_block - self.head_block
        if gap < 1:
            raise ValueError("not a back edge")
        return BackEdgeKind.SHORT if gap == 1 else BackEdgeKind.LONG


@dataclass(frozen=True)
class MSequence:
    """Alternating block partition (X_1, Y_1, ..., X_l, Y_l) of V(T).

    X_i holds the vertices equivalent to layer i of T[M]; Y_i holds the
    vertices conflicting with it, plus the universal vertices folded into
    Y_1 (can precede M) and Y_l (can follow M).  ``m_set`` records the M the
    partition was built from.
    """

    blocks: tuple[tuple[frozenset, frozenset], ...]
    m_set: frozenset

    def __len__(self) -> int:
        return len(self.blocks)

    def x(self, i: int) -> frozenset:
        return self.blocks[i][0]

    def y(self, i: int) -> frozenset:
        return self.blocks[i][1]

    def block_index_map(self) -> dict:
        out = {}
        for i, (x, y) in enumerate(self.blocks):
            for v in x:
                out[v] = i
            for v in y:
                out[v] = i
        return out

    def flatten(self) -> list[frozenset]:
        """Ordered partition (X_1, Y_1, X_2, ...) with empty sets dropped."""
        out = []
        for x, y in self.blocks:
            if x:
                out.append(x)
            if y:
                out.append(y)
        return out


def cycle_closers(T: BipartiteTournament, m_mask: int, candidates: int) -> int:
    """The gid mask of the candidates v outside M with T[M + v] cyclic; M and
    the candidates are bitmasks over global ids, and T[M] must be acyclic.

    A cyclic bipartite tournament has a square, and T[M] has none, so T[M + v]
    is cyclic exactly when a square v -> a -> b -> c -> v has a, b, c in M:
    when in(v) & M meets the two-step M-reach of some a in out(v) & M.  Each
    M-vertex's reach is computed once per call.
    """
    out = T.out_mask
    reach: dict[int, int] = {}  # M-vertex a -> ends of a -> b -> c with b in M
    closers = 0
    rest = candidates & ~m_mask
    while rest:
        low = rest & -rest
        rest ^= low
        g = low.bit_length() - 1
        back = T.in_mask[g] & m_mask
        heads = out[g] & m_mask if back else 0
        while heads:
            high = heads & -heads
            heads ^= high
            a = high.bit_length() - 1
            r = reach.get(a)
            if r is None:
                r, mids = 0, out[a] & m_mask
                while mids:
                    mid = mids & -mids
                    mids ^= mid
                    r |= out[mid.bit_length() - 1]
                reach[a] = r
            if r & back:
                closers |= low
                break
    return closers


def _consistency(T: BipartiteTournament, M: frozenset, within: Iterable[Vertex] | None
                 ) -> tuple[int, int, Vertex | None, list[int] | None]:
    """Masks of M and ``within`` (ValueError unless M lies inside it), the
    M-consistency witness (lowest-gid cycle closer) for T[within] or None,
    and the peeled layers of T[M] (None when T[M] is cyclic)."""
    m_mask = T.checked_mask(M)
    alive = T.full_mask if within is None else T.checked_mask(within)
    if m_mask & ~alive:
        raise ValueError("M is not contained in the vertex set `within`")
    peeled = _peel_layers_mask(T, m_mask)
    if peeled is None:
        return m_mask, alive, T.vertices_of_mask(m_mask)[0], None
    closers = cycle_closers(T, m_mask, alive)
    witness = T.vertex_of_gid((closers & -closers).bit_length() - 1) if closers else None
    return m_mask, alive, witness, peeled


def is_m_consistent(T: BipartiteTournament, M: Iterable[Vertex]) -> tuple[bool, Vertex | None]:
    """Does every single added vertex keep T[M] acyclic?

    Returns ``(True, None)``, or ``(False, witness)`` where the witness is
    the lowest-gid vertex v with T[M + v] cyclic (the lowest M-vertex when
    T[M] is already cyclic).
    """
    witness = _consistency(T, frozenset(M), None)[2]
    return witness is None, witness


def _layer_keys(T: BipartiteTournament, m_mask: int,
                peeled: list[int]) -> list[tuple[int, int, int]]:
    """(layer, out- and in-neighborhood in M) per peeled layer of T[M];
    members of a layer share their M-neighborhoods."""
    out, inc = T.out_mask, T.in_mask
    keys = []
    for layer in peeled:
        g = (layer & -layer).bit_length() - 1
        keys.append((layer, out[g] & m_mask, inc[g] & m_mask))
    return keys


def _layers(T: BipartiteTournament, M: frozenset, within: Iterable[Vertex] | None,
            what: str) -> tuple[int, int, list[tuple[int, int, int]]]:
    """Masks of M and ``within``, and the layer keys of T[M] (see
    :func:`_layer_keys`), once T[within] is checked M-consistent."""
    if not M:
        raise EmptyM(f"{what} needs a nonempty M")
    m_mask, alive, witness, peeled = _consistency(T, M, within)
    if witness is not None:
        raise NotMConsistent(f"witness vertex {witness!r}")
    return m_mask, alive, _layer_keys(T, m_mask, peeled)


def _classify_gid(T: BipartiteTournament, m_mask: int,
                  layers: list[tuple[int, int, int]], g: int) -> Classification:
    out_m = T.out_mask[g] & m_mask
    in_m = T.in_mask[g] & m_mask
    for i, (_, p_out, p_in) in enumerate(layers):
        if out_m == p_out and in_m == p_in:
            return Classification(ClassKind.EQUIVALENT, i)
    # Not equivalent to any layer.  A vertex with no in-neighbors in M can
    # open a topological sort of T[M + v]; one with no out-neighbors can
    # close it.  (A vertex qualifying for both would be equivalent to a
    # layer, so the minus-first order only settles a vacuous tie.)
    if not in_m:
        return Classification(ClassKind.UNIVERSAL_MINUS)
    if not out_m:
        return Classification(ClassKind.UNIVERSAL_PLUS)
    for i, (layer, _, _) in enumerate(layers):
        if out_m & layer:
            if not (in_m & layer):
                raise NotMConsistent(
                    f"{T.vertex_of_gid(g)!r} has its first out-neighbor layer {i} "
                    "free of in-neighbors yet is not equivalent; tournament is "
                    "not M-consistent")
            return Classification(ClassKind.CONFLICTING, i)
    raise AssertionError("unreachable: nonempty out_m must meet some layer")


def classify(T: BipartiteTournament, M: Iterable[Vertex], v: Vertex) -> Classification:
    """Classify ``v`` against the layers of T[M].

    Requires M nonempty and T M-consistent.  Universality is decided by the
    constructive neighborhood case analysis (first layer holding an
    out-neighbor, etc.), not by enumerating topological sorts.
    """
    m_mask, _, layers = _layers(T, frozenset(M), None, "classification")
    T.check_vertex(v)
    return _classify_gid(T, m_mask, layers, T.gid(v))


def _blocks_mask(T: BipartiteTournament, m_mask: int, keys: list[tuple[int, int, int]],
                 alive: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The (X_i, Y_i) gid masks of T[alive] relative to M, and gid -> block
    index (-1 outside ``alive``); ``keys`` are T[M]'s layer keys and
    T[alive] must be M-consistent.

    A vertex's class reads only its M-neighbourhoods, so each distinct
    (out & M, in & M) is classified once."""
    l = len(keys)
    xs = [0] * l
    ys = [0] * l
    block = [-1] * T.num_vertices
    out, inc = T.out_mask, T.in_mask
    placed: dict[tuple[int, int], tuple[bool, int]] = {}  # key -> (in X_i, i)
    rest = alive
    while rest:
        low = rest & -rest
        g = low.bit_length() - 1
        key = (out[g] & m_mask, inc[g] & m_mask)
        spot = placed.get(key)
        if spot is None:
            kind, i = _classify_gid(T, m_mask, keys, g)
            if kind is ClassKind.UNIVERSAL_MINUS:
                i = 0
            elif kind is ClassKind.UNIVERSAL_PLUS:
                i = l - 1
            spot = placed[key] = (kind is ClassKind.EQUIVALENT, i)
        in_x, i = spot
        if in_x:
            xs[i] |= low
        else:
            ys[i] |= low
        block[g] = i
        rest ^= low
    return tuple(zip(xs, ys)), tuple(block)


def m_sequence(T: BipartiteTournament, M: Iterable[Vertex],
               within: Iterable[Vertex] | None = None) -> MSequence:
    """The unique alternating block partition of T[within] relative to M
    (of all of V(T) when ``within`` is None), in T's coordinates.

    Requires M nonempty, M inside ``within`` (else ValueError) and
    T[within] M-consistent.
    """
    M = frozenset(M)
    m_mask, alive, keys = _layers(T, M, within, "the block partition")
    vs = T.vertices_of_mask
    return MSequence(tuple((frozenset(vs(x)), frozenset(vs(y)))
                           for x, y in _blocks_mask(T, m_mask, keys, alive)[0]), M)


def _back_edges(T: BipartiteTournament, block: Sequence[int]) -> list[BackEdge]:
    """Arcs from a higher-indexed block to a strictly lower one, in
    row-major arc scan order; ``block`` maps gid -> block index, -1 for a
    vertex outside the blocks."""
    m = T.m
    out = []
    for i, row in enumerate(T.orient):
        bi = block[i]
        for j, a_to_b in enumerate(row):
            bj = block[m + j]
            if a_to_b and bi > bj >= 0:
                out.append(BackEdge(Vertex(SIDE_A, i), Vertex(SIDE_B, j), bi, bj))
            elif not a_to_b and bj > bi >= 0:
                out.append(BackEdge(Vertex(SIDE_B, j), Vertex(SIDE_A, i), bj, bi))
    return out


def back_edges(T: BipartiteTournament, seq: MSequence) -> list[BackEdge]:
    """All arcs from a higher-indexed block to a strictly lower one,
    in row-major arc scan order."""
    block = [-1] * T.num_vertices
    for i, (x, y) in enumerate(seq.blocks):
        for v in x | y:
            block[T.gid(v)] = i
    return _back_edges(T, block)


def _closes_m_square(T: BipartiteTournament, m_mask: int, tail: int, head: int) -> bool:
    """Does the arc tail -> head (gids) close a square with two M-vertices:
    m1 in N^+(head) & M and m2 in N^-(tail) & M with the arc m1 -> m2?"""
    out = T.out_mask
    heads = out[head] & m_mask
    tails = T.in_mask[tail] & m_mask
    while heads:
        low = heads & -heads
        if out[low.bit_length() - 1] & tails:
            return True
        heads ^= low
    return False


def is_conflict_back_edge(T: BipartiteTournament, M: Iterable[Vertex], e: BackEdge) -> bool:
    """Does the back edge close a square with two M-vertices?

    For e = u -> w this asks for m1 in N^+(w) & M and m2 in N^-(u) & M with
    the arc m1 -> m2; long back edges always qualify.
    """
    T.check_vertex(e.tail)
    T.check_vertex(e.head)
    return _closes_m_square(T, T.mask_of(M), T.gid(e.tail), T.gid(e.head))


def is_refinement(p1: Sequence[Iterable[Vertex]], p2: Sequence[Iterable[Vertex]]) -> bool:
    """Is every set of partition p1 contained in some set of p2?

    Both arguments must partition the same ground set.
    """
    sets1 = [frozenset(s) for s in p1]
    sets2 = [frozenset(s) for s in p2]
    ground1: set = set()
    for s in sets1:
        ground1 |= s
    ground2: set = set()
    for s in sets2:
        ground2 |= s
    if ground1 != ground2:
        raise GroundSetMismatch(
            f"partitions cover different ground sets ({len(ground1)} vs {len(ground2)} vertices)")
    for s in sets1:
        if not s:
            continue
        if not any(s <= t for t in sets2):
            return False
    return True
