"""Feedback vertex set solvers for bipartite tournaments.

Four routes with very different trust stories:

* ``oracle_min_fvs``  -- exhaustive subset enumeration, the reference every
  other solver is tested against; capped at small instances.
* ``approx4``         -- greedy square deletion, factor-4 approximation.
* ``branch_solve``    -- budgeted branching over squares and constraint
  edges, with safe reduction, a packing lower bound read at each node from
  one list of the A-pairs, and each failed sibling kept out of the later
  ones.
* ``exact_min_fvs``   -- ascending budgets over ``branch_solve`` from the
  square-packing lower bound up, by the one minimiser :func:`_min_fvs`.

All solvers honor ``Constraints``: a set of undeletable vertices, a set of
vertices forced into the solution, an edge set the solution must cover, and
a size budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from itertools import chain, combinations
from typing import Iterable, NamedTuple

from .errors import InstanceTooLarge
from .graph import BipartiteTournament, Vertex
from .structure import (_a_pairs, _on_cycles, _PairGroups, _rows_nested, _square_gids,
                        all_squares)
from .structure import find_square  # noqa: F401  (a lookup site perfbench's tracer wraps)


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

    def check_vertices(self, T: BipartiteTournament) -> None:
        """Raise ValueError unless every vertex named here is a vertex of T."""
        for v in chain(self.forbidden, self.required_in, *self.cover_edges):
            T.check_vertex(v)


def verify_fvs(T: BipartiteTournament, S: Iterable[Vertex]) -> bool:
    """Is T - S acyclic?  Decided by square-freeness of the remainder X,
    read from its rows (:func:`structure._rows_nested`): T[X] is square-free
    exactly when the live out-rows out(a) & X of its A vertices form a
    chain under inclusion.

    Proof: in a bipartite tournament every b not in out(a) beats a.  So
    a -> b -> a' -> b' -> a is a square of T[X] exactly when b is in
    out(a) & ~out(a') and b' in out(a') & ~out(a), both in X: when the rows
    of a and a' are incomparable, each holding a vertex the other lacks.
    Hence T[X] has no square exactly when every two rows are comparable,
    that is, when the rows form a chain; and a bipartite tournament is
    acyclic exactly when it has no square.
    """
    S = set(S)
    for v in S:
        T.check_vertex(v)
    return _rows_nested(T, T.full_mask & ~T.mask_of(S))


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
# the solver names ``bench`` runs; here so the CLI can list them without
# importing the benchmark runner
KNOWN_SOLVERS = ("oracle", "branch", "approx4", "exact", "pipeline")


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
    constraints.check_vertices(T)
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
    deleted = _approx4_mask(T, k, T.full_mask if within_mask is None else within_mask)
    return None if deleted is None else frozenset(T.vertices_of_mask(deleted))


def _approx4_mask(T: BipartiteTournament, k: int, alive: int) -> int | None:
    """:func:`approx4` on T[alive], answering with the gid mask it deletes."""
    if k < 0:
        return None
    start = alive
    squares = 0
    while True:
        gids = _square_gids(T, alive)
        if gids is None:
            return start & ~alive
        squares += 1
        if squares > k:
            return None
        for g in gids:
            alive &= ~(1 << g)


def _pair_groups(T: BipartiteTournament, alive: int, forbidden: int = 0) -> _PairGroups | None:
    """The A-pairs of T[alive] (:func:`structure._a_pairs`, gid masks),
    grouped by their lower vertex in scan order: ``(a, U0, [(a', D1, D0),
    ...])`` with a and a' as bits and U0 the union of the group's D0 masks.
    None when a square of T[alive] is made of ``forbidden`` vertices only,
    which certifies infeasibility."""
    groups = _a_pairs(T, alive)
    for a, union, pairs in groups:
        if a & forbidden and union & forbidden:
            for a2, d1, d0 in pairs:
                if a2 & forbidden and d1 & forbidden and d0 & forbidden:
                    return None
    return groups


def _packing(groups: _PairGroups, used: int, cap: int) -> int:
    """Greedy vertex-disjoint packing, in ``all_squares`` order, of the
    squares of the pair groups that miss the gid mask ``used``: each packed
    square needs its own deletion, so the count lower-bounds the deletions
    left.  Stops at cap + 1.

    All squares of an A-pair share a and a', so at most one per pair is
    packed, the first in ``all_squares`` order: {min live D1, min live D0}.
    Once one is packed, a is used and the rest of its group is skipped; so
    is a group whose D0 union U0 has no free vertex, as none of its pairs
    can pack."""
    count = 0
    free = ~used
    for a, union, pairs in groups:
        if a & used or not union & free:
            continue
        for a2, d1, d0 in pairs:
            if a2 & used:
                continue
            d1 &= free
            if d1:
                d0 &= free
                if d0:
                    count += 1
                    if count > cap:
                        return count
                    used |= a | a2 | (d1 & -d1) | (d0 & -d0)
                    free = ~used
                    break
    return count


def squares_packing_lower_bound(T: BipartiteTournament, forbidden: int = 0,
                                alive: int | None = None) -> int | None:
    """Greedy vertex-disjoint square packing of T[alive] (gid masks; all of
    V when None), in ``all_squares`` order; None when a square of T[alive]
    is made of ``forbidden`` vertices only, which certifies infeasibility.

    Read from one :func:`structure._a_pairs` scan (:func:`_pair_groups`),
    with no square listed: the packing :func:`branch_solve` makes at a node
    that has deleted nothing.
    """
    groups = _pair_groups(T, T.full_mask if alive is None else alive, forbidden)
    return None if groups is None else _packing(groups, 0, T.num_vertices)


class Reduction(NamedTuple):
    tournament: BipartiteTournament
    k: int
    to_host: dict  # Vertex in reduced -> Vertex in original


def reduce_instance(T: BipartiteTournament, k: int) -> Reduction:
    """Two safe reduction rules, applied to a fixpoint.

    R1 deletes every vertex contained in no square, which removes no square.
    It lists no square: in a bipartite tournament the vertices on a square
    are exactly those on a cycle, the vertices whose strong component has
    more than one vertex (:func:`structure._on_cycles`).  Proof: a square is
    a cycle.  Conversely, take a shortest cycle v = x0 -> x1 -> ... -> v
    through v.  If it has length 4 it is a square.  Otherwise its length is
    at least 6, and v and x3 are on opposite sides, hence adjacent.  If
    x3 -> v, then v x1 x2 x3 is a square; if v -> x3, then v -> x3 -> ... -> v
    is a shorter cycle through v.  So R1 keeps every cycle, and a second
    pass of it removes nothing.

    R2 truncates every false-twin class to k+1 representatives: a square
    contains at most one vertex per class and twins are interchangeable in
    squares, so any budget-k solution leaves a surviving representative that
    can stand in for a truncated twin.

    The budget is unchanged; solutions of the reduced instance are solutions
    of the original verbatim (the mapping records identities).  The rules
    run on a bitmask of T's survivors (:func:`_survivors`), induced once (T
    itself if all survive).
    """
    alive = _survivors(T, k)
    if alive == T.full_mask:
        return Reduction(T, k, {v: v for v in T.vertices()})
    sub = T.induced(T.vertices_of_mask(alive))
    return Reduction(sub.tournament, k, sub.to_host)


def _survivors(T: BipartiteTournament, k: int) -> int:
    """The gid mask of the vertices of T that :func:`reduce_instance`'s
    rules keep at budget k.

    T caches the mask of its last reduction, which also holds at a larger
    budget when R2 removed nothing: R1 does not depend on k, and R2 only
    caps twin classes at k + 1.  Only the mask is cached, so a caller that
    keeps T keeps no reduced tournament.
    """
    if T._reduction is not None:
        k0, truncated, alive = T._reduction
        if k == k0 or (k > k0 and not truncated):
            return alive
    alive = _on_cycles(T, T.full_mask)  # R1, which a second pass would not change
    truncated = False
    while True:
        keep = alive
        for gids in T.twin_gids(alive):  # R2
            for g in gids[k + 1:]:
                keep &= ~(1 << g)
        if keep == alive:
            break
        truncated = True
        alive = _on_cycles(T, keep)
    object.__setattr__(T, "_reduction", (k, truncated, alive))
    return alive


def branch_solve(T: BipartiteTournament, constraints: Constraints | None = None, *,
                 groups: _PairGroups | None = None) -> SolveResult:
    """Budgeted branching solver, sound and complete within its budget.

    Uncovered constraint edges are resolved first by two-way branching on
    their deletable endpoints; then the first square (in the fixed scan
    order) is branched on, trying each deletable vertex in lexicographic
    order.  Required vertices are deleted up front and count against the
    budget.  A branch dies when a constraint edge has no deletable endpoint,
    or when the greedy square-packing bound exceeds the remaining budget; a
    square of forbidden vertices only, which no deletion breaks, answers no
    at the root.  Single-threaded and deterministic: the first solution in
    branch order is returned.  A required, forbidden or cover-edge vertex
    that is not a vertex of T raises ValueError.

    Unconstrained calls search T[alive], the survivors of
    :func:`reduce_instance`'s rules (:func:`_survivors`, reused when T
    caches a reduction made at this or, R2 permitting, a lower budget), in
    T's own gids; constrained calls search all of T.  Inducing keeps each
    side's order, so the scan order and the answer are those of a search on
    the reduced tournament.  The answer is checked on T.

    The search reads one list, the A-pairs of T[alive] grouped by their
    lower vertex (:func:`_pair_groups`), built once.  A caller that has
    already built it passes it as ``groups``, which must be the list this
    call would build for its own alive and forbidden masks:
    ``_pair_groups(T, _survivors(T, budget))`` for an unconstrained call,
    ``_pair_groups(T, T.full_mask, forbidden)`` for a constrained one.
    Each node packs the list greedily from ``removed`` (:func:`_packing`):
    a count above the budget left prunes the node, and a count of 0 means
    no square misses ``removed``, which is then a solution.

    Each node also carries a forbidden gid mask ``forb``, the constraint's
    to start with.  When the child that deletes g finds nothing, no solution
    within budget contains ``removed | 1 << g`` and avoids ``forb``, so the
    later siblings forbid g too: every leaf below them that deletes g holds
    no solution.  Only subtrees without a solution are cut, in unchanged
    branch order, so the first solution is the unpruned search's.
    """
    if constraints is None:
        constraints = Constraints()
    constraints.check_vertices(T)
    t0 = time.perf_counter()
    budget = constraints.budget if constraints.budget is not None else T.num_vertices
    remaining = budget - len(constraints.required_in)
    if remaining < 0:
        return SolveResult(SolveStatus.NO_SOLUTION, None, SolveStats(0, _ms(t0)))
    # Reduction rules assume plain FVS semantics; apply them only when no
    # constraint refers to specific vertices.
    alive = _survivors(T, budget) if constraints.is_free() else T.full_mask

    forb_mask = T.mask_of(constraints.forbidden)
    removed0 = T.mask_of(constraints.required_in)
    cover = [((1 << T.gid(u)) | (1 << T.gid(w)), (T.gid(u), T.gid(w)))
             for (u, w) in sorted(constraints.cover_edges)]
    if groups is None:
        groups = _pair_groups(T, alive, forb_mask)
        if groups is None:  # a square of forbidden vertices only, which no deletion breaks
            return SolveResult(SolveStatus.NO_SOLUTION, None, SolveStats(0, _ms(t0)))
    nodes = 0

    packing, square_gids = _packing, _square_gids  # local names: one lookup less per node

    def branch(removed: int, gids, left: int, cover_idx: int, forb: int) -> int | None:
        """Try deleting each vertex of ``gids`` not in ``forb``, in order."""
        for g in gids:
            b = 1 << g
            if b & forb:
                continue
            result = rec(removed | b, left - 1, cover_idx, forb)
            if result is not None:
                return result
            forb |= b
        return None

    def rec(removed: int, left: int, cover_idx: int, forb: int) -> int | None:
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
            return branch(removed, gids, left, cover_idx + 1, forb)
        count = packing(groups, removed, left)
        if not count:
            return removed
        if count > left:
            return None
        return branch(removed, square_gids(T, alive & ~removed), left, cover_idx, forb)

    answer = rec(removed0, remaining, 0, forb_mask)
    # the two closures refer to each other; unbind them so the cycle they
    # form is freed now, not at the next cycle collection
    del branch, rec
    stats = SolveStats(nodes, _ms(t0))
    if answer is None:
        return SolveResult(SolveStatus.NO_SOLUTION, None, stats)
    solution = frozenset(T.vertices_of_mask(answer))
    if not satisfies(T, solution, constraints):
        raise AssertionError("internal: invalid solution produced")
    return SolveResult(SolveStatus.SOLUTION, solution, stats)


def exact_min_fvs(T: BipartiteTournament) -> frozenset:
    """Minimum feedback vertex set by ascending-budget iteration over
    ``branch_solve``, starting at the greedy square-packing bound: no budget
    below it can succeed, so the first budget that does is the optimum."""
    return _min_fvs(T, frozenset(), frozenset())


def _min_fvs(T: BipartiteTournament, required, forbidden) -> frozenset | None:
    """The one ascending-budget minimiser: a minimum feedback vertex set of T
    that contains ``required`` (dropped from the answer) and avoids
    ``forbidden``; None when some square cannot be broken.  Budgets start at
    the packing bound of the squares that miss ``required``, read from one
    scan of T's A-pairs with the forbidden mask.  Each restart gets the list
    ``branch_solve`` would build itself: that one under a constraint, else
    the A-pairs of T[survivors], rescanned only when the survivor mask
    changes."""
    groups = _pair_groups(T, T.full_mask, T.mask_of(forbidden))
    if groups is None:
        return None
    alive, free = T.full_mask, not required and not forbidden
    for k in range(_packing(groups, T.mask_of(required), T.num_vertices),
                   T.num_vertices - len(required) - len(forbidden) + 1):
        if free and (survivors := _survivors(T, k)) != alive:
            alive, groups = survivors, _pair_groups(T, survivors)
        res = branch_solve(T, Constraints(forbidden=forbidden, required_in=required,
                                          budget=len(required) + k), groups=groups)
        if res.found:
            return res.solution - required
    return None
