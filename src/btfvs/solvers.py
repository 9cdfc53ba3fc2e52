"""Feedback vertex set solvers for bipartite tournaments.

Four routes with very different trust stories:

* ``oracle_min_fvs``  -- exhaustive subset enumeration, the reference every
  other solver is tested against; capped at small instances.
* ``approx4``         -- greedy square deletion, factor-4 approximation.
* ``branch_solve``    -- budgeted branching over squares and constraint
  edges, with safe reduction, a packing lower bound read from the square
  index and a per-call table of dead ``removed`` masks.
* ``exact_min_fvs``   -- ascending-budget iteration over ``branch_solve``,
  from the square-packing lower bound up.

All solvers honor ``Constraints``: a set of undeletable vertices, a set of
vertices forced into the solution, an edge set the solution must cover, and
a size budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, NamedTuple

from .errors import InstanceTooLarge
from .graph import BipartiteTournament, Vertex
from .structure import (SquareIndex, _a_pairs, _square_gids, all_squares, find_square,
                        square_index)


class SolveStatus(Enum):
    SOLUTION = "solution"
    NO_SOLUTION = "no-solution"


class SolveStats(NamedTuple):
    nodes: int
    wall_ms: float


class SolveResult(NamedTuple):
    status: SolveStatus
    solution: frozenset | None
    stats: SolveStats

    @property
    def found(self) -> bool:
        return self.status is SolveStatus.SOLUTION


@dataclass(frozen=True)
class Constraints:
    """Side conditions for a constrained feedback vertex set.

    ``forbidden`` vertices may never be deleted, ``required_in`` vertices are
    always deleted (and count against the budget immediately), and every
    edge of ``cover_edges`` must lose at least one endpoint.
    """

    forbidden: frozenset = frozenset()
    required_in: frozenset = frozenset()
    cover_edges: frozenset = frozenset()
    budget: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "forbidden", frozenset(self.forbidden))
        object.__setattr__(self, "required_in", frozenset(self.required_in))
        object.__setattr__(self, "cover_edges",
                           frozenset(tuple(e) for e in self.cover_edges))
        if self.forbidden & self.required_in:
            raise ValueError("forbidden and required_in overlap")

    def is_free(self) -> bool:
        return not self.forbidden and not self.required_in and not self.cover_edges


def verify_fvs(T: BipartiteTournament, S: Iterable[Vertex]) -> bool:
    """Is T - S acyclic?  Decided by square-freeness of the remainder."""
    S = set(S)
    for v in S:
        T.check_vertex(v)
    return find_square(T, T.full_mask & ~T.mask_of(S)) is None


def satisfies(T: BipartiteTournament, S: Iterable[Vertex], constraints: Constraints) -> bool:
    """Full validity check of a candidate solution against the constraints."""
    S = frozenset(S)
    if constraints.forbidden & S:
        return False
    if not constraints.required_in <= S:
        return False
    if constraints.budget is not None and len(S) > constraints.budget:
        return False
    for (u, w) in constraints.cover_edges:
        if u not in S and w not in S:
            return False
    return verify_fvs(T, S)


ORACLE_DEFAULT_CAP = 16


def oracle_min_fvs(T: BipartiteTournament, constraints: Constraints | None = None,
                   cap: int = ORACLE_DEFAULT_CAP) -> SolveResult:
    """Reference solver: enumerate candidate sets in increasing size.

    Returns the lexicographically first minimum valid solution, which makes
    the outcome deterministic.  Optimal by construction; only usable up to
    ``cap`` vertices.
    """
    if T.num_vertices > cap:
        raise InstanceTooLarge(f"{T.num_vertices} vertices exceeds oracle cap {cap}")
    if constraints is None:
        constraints = Constraints()
    t0 = time.perf_counter()
    nodes = 0

    req = sorted(constraints.required_in)
    req_mask = T.mask_of(req)
    forb_mask = T.mask_of(constraints.forbidden)
    pool = sorted(set(T.vertices()) - constraints.forbidden - constraints.required_in)
    budget = constraints.budget
    max_extra = len(pool)
    if budget is not None:
        max_extra = min(max_extra, budget - len(req))
        if max_extra < 0:
            return SolveResult(SolveStatus.NO_SOLUTION, None,
                               SolveStats(0, _ms(t0)))

    squares = all_squares(T)
    # squares no candidate can hit are a certificate of infeasibility
    usable = T.full_mask & ~forb_mask
    if any(mask & usable == 0 for mask in squares):
        return SolveResult(SolveStatus.NO_SOLUTION, None, SolveStats(0, _ms(t0)))
    cover = [(1 << T.gid(u)) | (1 << T.gid(w)) for (u, w) in sorted(constraints.cover_edges)]
    if any(c & usable == 0 for c in cover):
        return SolveResult(SolveStatus.NO_SOLUTION, None, SolveStats(0, _ms(t0)))

    pool_bits = [1 << T.gid(v) for v in pool]
    for size in range(max_extra + 1):
        for combo in combinations(pool_bits, size):
            nodes += 1
            s_mask = req_mask
            for b in combo:
                s_mask |= b
            if any(c & s_mask == 0 for c in cover):
                continue
            if any(q & s_mask == 0 for q in squares):
                continue
            sol = frozenset(T.vertices_of_mask(s_mask))
            return SolveResult(SolveStatus.SOLUTION, sol, SolveStats(nodes, _ms(t0)))
    return SolveResult(SolveStatus.NO_SOLUTION, None, SolveStats(nodes, _ms(t0)))


def _ms(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


def approx4(T: BipartiteTournament, k: int,
            within_mask: int | None = None) -> frozenset | None:
    """Greedy square deletion on T[within_mask] (a gid bitmask; all of V
    when None): while a square exists, delete all four of its vertices.

    Returns a feedback vertex set of size at most 4k, or None after deleting
    more than k squares -- which certifies that no feedback vertex set of
    size at most k exists (every deleted square is vertex-disjoint from the
    others, and each needs its own deletion) -- and None for k < 0, as no
    set has negative size.
    """
    if k < 0:
        return None
    alive = start = T.full_mask if within_mask is None else within_mask
    squares = 0
    while True:
        gids = _square_gids(T, alive)
        if gids is None:
            return frozenset(T.vertices_of_mask(start & ~alive))
        squares += 1
        if squares > k:
            return None
        for g in gids:
            alive &= ~(1 << g)


def _avoiding(through: list[int], live: int, mask: int) -> int:
    """The squares of the index bitset ``live`` that miss every vertex of
    the gid mask ``mask``."""
    while mask:
        low = mask & -mask
        live &= ~through[low.bit_length() - 1]
        mask ^= low
    return live


def _pack(index: SquareIndex, live: int, cap: int) -> int:
    """Greedy vertex-disjoint packing of the squares of the index bitset
    ``live``, lowest index first: each packed square needs its own deletion,
    so the count lower-bounds the deletions left.  Stops at cap + 1.

    All squares of an A-pair share a and a', so at most one per pair is
    packed, and the first live one in grid order ({min live D1, min live
    D0}) is also the first in ``all_squares`` order: the packing is the
    greedy one over ``all_squares``."""
    through, square = index.through, index.square
    count = 0
    while live and count <= cap:
        count += 1
        a, b, a2, b2 = square((live & -live).bit_length() - 1)
        live &= ~(through[a] | through[b] | through[a2] | through[b2])
    return count


def squares_packing_lower_bound(T: BipartiteTournament, forbidden: int = 0,
                                alive: int | None = None) -> int | None:
    """Greedy vertex-disjoint square packing of T[alive] (gid masks; all of
    V when None), in ``all_squares`` order, read from T's square index; None
    when a square of T[alive] is made of ``forbidden`` vertices only, which
    certifies infeasibility."""
    index = square_index(T)
    live = (1 << index.count) - 1
    if alive is not None:
        live = _avoiding(index.through, live, T.full_mask & ~alive)
    if forbidden and _avoiding(index.through, live, T.full_mask & ~forbidden):
        return None
    return _pack(index, live, index.count)


class Reduction(NamedTuple):
    tournament: BipartiteTournament
    k: int
    to_host: dict  # Vertex in reduced -> Vertex in original


def reduce_instance(T: BipartiteTournament, k: int) -> Reduction:
    """Two safe reduction rules, applied to a fixpoint.

    R1 deletes every vertex contained in no square: such a vertex lies on no
    4-cycle, hence on no cycle at all that a minimum solution would need it
    for, and its removal changes no square.  It lists no square: the squares
    through an A-pair cover exactly the pair and its masks D1 | D0.

    R2 truncates every false-twin class to k+1 representatives: a square
    contains at most one vertex per class and twins are interchangeable in
    squares, so any budget-k solution leaves a surviving representative that
    can stand in for a truncated twin.

    The budget is unchanged; solutions of the reduced instance are solutions
    of the original verbatim (the mapping records identities).  The rules
    run on a bitmask of T's survivors, induced once (T itself if all survive).
    T caches the survivor mask (see :func:`_reduction_at`); only the mask,
    so a caller that keeps T does not keep the reduced tournament and the
    square index built on it.
    """
    alive = T.full_mask
    truncated = False
    while True:
        keep = 0
        for pair, d1, d0 in _a_pairs(T, alive):  # R1
            keep |= pair | d1 | d0
        if keep == alive:  # R2, once R1 removes nothing
            for cls in T.false_twin_classes(alive):
                keep &= ~T.mask_of(sorted(cls)[k + 1:])
            truncated = truncated or keep != alive
        if keep == alive:
            break
        alive = keep
    object.__setattr__(T, "_reduction", (k, truncated, alive))
    return _induce(T, alive, k)


def _induce(T: BipartiteTournament, alive: int, k: int) -> Reduction:
    """The reduction of T to the gid mask ``alive`` of its survivors."""
    if alive == T.full_mask:
        return Reduction(T, k, {v: v for v in T.vertices()})
    sub = T.induced(T.vertices_of_mask(alive))
    return Reduction(sub.tournament, k, sub.to_host)


def _reduction_at(T: BipartiteTournament, k: int) -> Reduction:
    """``reduce_instance(T, k)``, induced from the survivors of T's last
    reduction when those hold at budget k.  R1 does not depend on k and R2
    only caps twin classes at k + 1, so a reduction in which R2 removed
    nothing is also the reduction at every larger budget."""
    if T._reduction is not None:
        k0, truncated, alive = T._reduction
        if k == k0 or (k > k0 and not truncated):
            return _induce(T, alive, k)
    return reduce_instance(T, k)


def branch_solve(T: BipartiteTournament,
                 constraints: Constraints | None = None) -> SolveResult:
    """Budgeted branching solver, sound and complete within its budget.

    Uncovered constraint edges are resolved first by two-way branching on
    their deletable endpoints; then the first square (in the fixed scan
    order) is branched on, trying each deletable vertex in lexicographic
    order.  Required vertices are deleted up front and count against the
    budget.  A branch dies when a constraint edge has no deletable endpoint,
    or when the greedy square-packing bound exceeds the remaining budget; a
    square of forbidden vertices only, which no deletion breaks, answers no
    at the root.  Single-threaded and deterministic: the first solution in
    branch order is returned.

    Unconstrained calls search the reduction of T (:func:`reduce_instance`),
    whose survivors are reused when T caches a reduction made at this or,
    R2 permitting, a lower budget; the answer is lifted to T and checked on
    T.

    Each node carries its live squares as a bitset over the reduced
    instance's square index (:func:`structure.square_index`): the squares
    that miss ``removed``.  A child's live set is its parent's minus the
    squares through the deleted vertex, the packing bound takes live squares
    lowest index first, and a node with none left is a solution.

    Within one call a node's state is a function of its ``removed`` mask
    alone: every child deletes one vertex not yet deleted, so the budget
    left is the budget minus ``popcount(removed)``; every constraint edge
    before the node's index is covered, so the next uncovered one follows
    from ``removed``; and so do the live squares.  A mask whose subtree
    found nothing is therefore recorded as dead, and a child reaching a dead
    mask again (by another order of the same deletions) is skipped.  Only
    subtrees without a solution are skipped, so the first solution in
    branch order is the one returned without the table.
    """
    if constraints is None:
        constraints = Constraints()
    t0 = time.perf_counter()
    budget = constraints.budget if constraints.budget is not None else T.num_vertices
    work, lift = T, {}
    # Reduction rules assume plain FVS semantics; apply them only when no
    # constraint refers to specific vertices (work == T otherwise, so vertex
    # coordinates in the constraints stay valid), and only at a budget that
    # some set meets (the search answers no to a negative one at once).
    if constraints.is_free() and budget >= 0:
        red = _reduction_at(T, budget)
        work, lift = red.tournament, red.to_host
    return _search(T, work, lift, constraints, t0)


def _search(T: BipartiteTournament, work: BipartiteTournament, lift: dict,
            constraints: Constraints, t0: float) -> SolveResult:
    """:func:`branch_solve`'s search on ``work``, T itself or a reduction of
    T that ``lift`` maps back to T (a vertex it does not name is its own
    image), under constraints in ``work``'s coordinates; a solution is
    lifted to T and checked on T, and ``t0`` starts the wall clock."""
    budget = constraints.budget if constraints.budget is not None else T.num_vertices
    base: set = set(constraints.required_in)
    remaining = budget - len(base)
    if remaining < 0:
        return SolveResult(SolveStatus.NO_SOLUTION, None, SolveStats(0, _ms(t0)))

    forb_mask = work.mask_of(constraints.forbidden)
    removed0 = work.mask_of(base)
    cover = [((1 << work.gid(u)) | (1 << work.gid(w)), (work.gid(u), work.gid(w)))
             for (u, w) in sorted(constraints.cover_edges)]
    full = work.full_mask
    index = square_index(work)
    through = index.through
    every = (1 << index.count) - 1
    stuck = _avoiding(through, every, full & ~forb_mask) if forb_mask else 0
    if stuck:  # squares of forbidden vertices only, which no deletion breaks
        return SolveResult(SolveStatus.NO_SOLUTION, None, SolveStats(0, _ms(t0)))
    dead: set[int] = set()  # removed masks whose subtree holds no solution
    nodes = 0

    pack, square_gids = _pack, _square_gids  # local names: one lookup less per node

    def branch(removed: int, gids, left: int, cover_idx: int, live: int) -> int | None:
        """Try deleting each deletable vertex of ``gids`` in order."""
        for g in gids:
            b = 1 << g
            child = removed | b
            if b & forb_mask or child in dead:
                continue
            result = rec(child, left - 1, cover_idx, live & ~through[g])
            if result is not None:
                return result
            dead.add(child)
        return None

    def rec(removed: int, left: int, cover_idx: int, live: int) -> int | None:
        nonlocal nodes
        nodes += 1
        # resolve constraint edges before touching squares
        while cover_idx < len(cover):
            ends, gids = cover[cover_idx]
            if removed & ends:
                cover_idx += 1
                continue
            if left <= 0:
                return None
            return branch(removed, gids, left, cover_idx + 1, live)
        if not live:
            return removed
        if pack(index, live, left) > left:
            return None
        return branch(removed, square_gids(work, full & ~removed), left, cover_idx, live)

    answer = rec(removed0, remaining, 0, _avoiding(through, every, removed0))
    # the two closures refer to each other; unbind them so the index and the
    # dead table they hold are freed now, not at the next cycle collection
    del branch, rec
    stats = SolveStats(nodes, _ms(t0))
    if answer is None:
        return SolveResult(SolveStatus.NO_SOLUTION, None, stats)
    picked = {lift.get(v, v) for v in work.vertices_of_mask(answer)}
    solution = frozenset(picked | base)
    if not satisfies(T, solution, constraints):
        raise AssertionError("internal: invalid solution produced")
    return SolveResult(SolveStatus.SOLUTION, solution, stats)


def exact_min_fvs(T: BipartiteTournament) -> frozenset:
    """Minimum feedback vertex set by ascending-budget iteration over
    ``branch_solve``, starting at the greedy square-packing bound: no budget
    below it can succeed, so the first budget that does is the optimum."""
    for k in range(squares_packing_lower_bound(T), T.num_vertices + 1):
        res = branch_solve(T, Constraints(budget=k))
        if res.found:
            return res.solution
    raise AssertionError("unreachable: deleting everything is always a solution")
