"""Feedback vertex set solvers for bipartite tournaments.

Four routes with very different trust stories:

* ``oracle_min_fvs``  -- exhaustive subset enumeration, the reference every
  other solver is tested against; capped at small instances.
* ``approx4``         -- greedy square deletion, factor-4 approximation.
* ``branch_solve``    -- budgeted branching over squares and constraint
  edges, with safe reduction, a lower bound read at each node from one list
  of the A-pairs, and each failed sibling kept out of the later ones.  The
  bound packs vertex-disjoint squares, worth one deletion each, and triangle
  pieces, worth two (:func:`_pieces`, which proves the two).
* ``exact_min_fvs``   -- ascending budgets over ``branch_solve`` from the
  packing bounds of squares and pieces up, by the one minimiser
  :func:`_minimise`, whose restarts share one record of what each decided
  at every removed set, so a set that comes back is decided without a
  packing scan.

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
    return _rows_nested(T, T.full_mask & ~T.checked_mask(S))


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


_PIECE_TRIES = 4  # third vertices a scan may try and fail before it packs squares only


def _pieces(groups: _PairGroups, used: int, cap: int, tries: int = _PIECE_TRIES) -> int:
    """Greedy vertex-disjoint packing of squares and triangle pieces that
    miss the gid mask ``used``, counting 1 per square and 2 per piece: a
    lower bound on the deletions left.  Stops once the count passes
    ``cap``; the count is 0 exactly when no square misses ``used``.

    The scan takes the pair groups in order.  All squares of an A-pair
    share a and a', so at most one per pair is packed, the first in
    ``all_squares`` order: {min free D1, min free D0}.  Once one is packed,
    a is used and the rest of its group is skipped; so is a group whose D0
    union U0 has no free vertex, as none of its pairs can pack.  With
    ``tries=0`` that is all: the greedy packing of the squares in
    ``all_squares`` order, which reads nothing but the groups, so
    ``groups`` may then be any iterable of them, such as a scan still
    being built (:func:`structure._a_pair_scan`).

    Otherwise, when group a's first packable pair is (a, a'), the scan
    looks among the pairs (a', a'') of a' for an a'' whose squares with a'
    and with a both miss ``used``, reading (a, a'')'s D masks from the live
    out-rows, and packs the three squares as one piece.  Each square takes
    its lowest free D1 and D0 vertex, preferring those the piece has taken
    already.  At most ``tries`` such a'' fail per scan, and an a' that
    heads no group is not tried: no later row is incomparable with its own
    (as when the later A vertices are its false twins), so no a'' pairs
    with it.

    A piece needs two deletions.  No vertex lies in all three of its
    squares: each A vertex lies in two, and a B vertex lies in a pair's
    square only if the pair splits on it, one vertex beating it and the
    other beaten by it, which at most two pairs of three vertices do.  So
    one deletion leaves one square of the piece whole, and the counts of
    disjoint squares and pieces add up."""
    count = 0
    free = ~used
    heads, rows = groups.heads if tries else 0, None
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
                    got = (d1 & -d1) | (d0 & -d0)
                    piece = a | a2
                    if a2 & heads and tries > 0:
                        if rows is None:
                            rows, lists = groups.index()
                        row = rows[a]
                        for a3, f1, f0 in lists[a2]:
                            if a3 & used:
                                continue
                            f1 &= free
                            if f1:
                                f0 &= free
                                if f0:
                                    row3 = rows[a3]
                                    e1 = row & ~row3 & free
                                    if e1:
                                        e0 = row3 & ~row & free
                                        if e0:
                                            e1 = (e1 & got) or e1
                                            got |= e1 & -e1
                                            e0 = (e0 & got) or e0
                                            got |= e0 & -e0
                                            f1 = (f1 & got) or f1
                                            got |= f1 & -f1
                                            f0 = (f0 & got) or f0
                                            got |= f0 & -f0
                                            piece |= a3
                                            count += 1
                                            if count > cap:
                                                return count
                                            break
                            tries -= 1
                            if not tries:
                                break
                    used |= piece | got
                    free = ~used
                    break
    return count


def squares_packing_lower_bound(T: BipartiteTournament, forbidden: int = 0,
                                alive: int | None = None) -> int | None:
    """Greedy vertex-disjoint square packing of T[alive] (gid masks; all of
    V when None), in ``all_squares`` order; None when a square of T[alive]
    is made of ``forbidden`` vertices only, which certifies infeasibility.

    Read from one :func:`structure._a_pairs` scan (:func:`_pair_groups`),
    with no square listed: :func:`_pieces` with no piece tries.
    """
    groups = _pair_groups(T, T.full_mask if alive is None else alive, forbidden)
    return None if groups is None else _pieces(groups, 0, T.num_vertices, 0)


class Reduction(NamedTuple):
    tournament: BipartiteTournament
    k: int
    to_host: dict  # Vertex in reduced -> Vertex in original


def reduce_instance(T: BipartiteTournament, k: int) -> Reduction:
    """Two safe reduction rules, R1 then R2, for a budget k >= 0; one round
    of each already reaches their joint fixpoint.

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

    One round of each is their joint fixpoint when k >= 0, as every class
    then keeps a twin.  R1 removes nothing more: a square through a dropped
    vertex maps to a square of the survivors, each dropped vertex replaced
    by a kept twin.  Twins have equal neighbourhoods, and the two vertices
    of one side in a square a -> b -> a' -> b' -> a are never twins (a beats
    b, b beats a'), so the image is again a square, and each vertex R1 kept
    still lies on one.  R2 removes nothing more: two survivors that were not
    twins are told apart by some vertex, and when that vertex was dropped a
    kept twin of it, with the same arcs, tells them apart too.  So no two
    classes merge, and each already holds at most k + 1 vertices.

    The budget is unchanged; solutions of the reduced instance are solutions
    of the original verbatim (the mapping records identities).  A negative
    budget raises ValueError: no set has negative size.  The rules
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
    rules keep at budget k >= 0: R1, then R2 once, which is their fixpoint.

    T caches the mask of its last reduction, which also holds at a larger
    budget when R2 removed nothing: R1 does not depend on k, and R2 only
    caps twin classes at k + 1.  Only the mask is cached, so a caller that
    keeps T keeps no reduced tournament.  A negative k raises ValueError.
    """
    if k < 0:
        raise ValueError(f"reduction budget must be non-negative, got {k}")
    if T._reduction is not None:
        k0, truncated, alive = T._reduction
        if k == k0 or (k > k0 and not truncated):
            return alive
    alive = _on_cycles(T, T.full_mask)  # R1
    keep = alive
    for gids in T.twin_gids(alive):  # R2
        for g in gids[k + 1:]:
            keep &= ~(1 << g)
    # one round is the fixpoint (see reduce_instance)
    object.__setattr__(T, "_reduction", (k, keep != alive, keep))
    return keep


def branch_solve(T: BipartiteTournament, constraints: Constraints | None = None, *,
                 groups: _PairGroups | None = None,
                 carry: dict | None = None) -> SolveResult:
    """Budgeted branching solver, sound and complete within its budget.

    Uncovered constraint edges are resolved first by two-way branching on
    their deletable endpoints; then the first square (in the fixed scan
    order) is branched on, trying each deletable vertex in lexicographic
    order.  Required vertices are deleted up front and count against the
    budget.  A branch dies when a constraint edge has no deletable endpoint,
    or when the greedy packing bound of squares and triangle pieces exceeds
    the remaining budget; a square of forbidden vertices only, which no
    deletion breaks, answers no at the root.  Single-threaded and
    deterministic: the first solution in branch order is returned.  A
    required, forbidden or cover-edge vertex that is not a vertex of T
    raises ValueError.

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
    Each node packs the list greedily from ``removed`` into squares and
    triangle pieces, which count two deletions each (:func:`_pieces`): a
    count above the budget left prunes the node, and a count of 0 means no
    square misses ``removed``, which is then a solution.  A node with no
    budget left stops at its first packed square.

    ``carry`` serves :func:`_minimise`'s budget restarts, each of which
    comes back to every removed set of the one before with one more
    deletion left.  It is a dict keyed by the removed gid mask, for this
    ``groups``, which each call reads and overwrites in place; without it
    nothing is read or written.  The records are exact because the count
    depends on the list and ``removed`` alone, not on the budget, and a
    scan capped at c returns ``min(count, c + 1)``.  A node that branches
    records the square it branches on, which depends only on
    ``alive & ~removed``, so a later call branches on it with no scan, as
    the count is still nonzero and within budget.  A pruned node scans with
    cap left + 1 and records the count.  The next call, with one more left,
    prunes on a record above its left and deletes the record, which would
    not be exact one level further up; any other record is the exact
    count, which is nonzero, so the node branches and records its square.

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

    memo = {} if carry is None else carry
    ahead = carry is not None  # one count above the budget, for the next call

    # local names: one lookup less per node
    pieces, square_gids, memo_get = _pieces, _square_gids, memo.get

    def rec(removed: int, left: int, cover_idx: int, forb: int) -> int | None:
        """Settle the node, then try deleting each vertex of its square or
        cover edge not in ``forb``, in order."""
        nonlocal nodes
        nodes += 1
        # resolve constraint edges before touching squares
        while cover_idx < len(cover):
            ends, gids = cover[cover_idx]
            cover_idx += 1
            if not removed & ends:
                if left <= 0:
                    return None
                break
        else:
            gids = memo_get(removed)
            if gids is None:
                count = pieces(groups, removed, left + ahead)
                if not count:
                    return removed
                if count > left:
                    if ahead:
                        memo[removed] = count
                    return None
                gids = square_gids(T, alive & ~removed)
                if ahead:
                    memo[removed] = gids
            elif type(gids) is int:  # the count of the call before, one less budget
                if gids > left:
                    del memo[removed]
                    return None
                memo[removed] = gids = square_gids(T, alive & ~removed)
        left -= 1
        for g in gids:
            b = 1 << g
            if b & forb:
                continue
            result = rec(removed | b, left, cover_idx, forb)
            if result is not None:
                return result
            forb |= b
        return None

    answer = rec(removed0, remaining, 0, forb_mask)
    # the closure refers to itself; unbind it so the cycle it forms is
    # freed now, not at the next cycle collection
    del rec
    stats = SolveStats(nodes, _ms(t0))
    if answer is None:
        return SolveResult(SolveStatus.NO_SOLUTION, None, stats)
    solution = frozenset(T.vertices_of_mask(answer))
    if not satisfies(T, solution, constraints):
        raise AssertionError("internal: invalid solution produced")
    return SolveResult(SolveStatus.SOLUTION, solution, stats)


def exact_min_fvs(T: BipartiteTournament) -> frozenset:
    """Minimum feedback vertex set by ascending-budget iteration over
    ``branch_solve``, starting at greedy packing bounds of squares and
    triangle pieces (:func:`_pieces`): no budget below them can succeed, so
    the first budget that does is the optimum."""
    return _minimise(T, frozenset(), frozenset())[0]


def _minimise(T: BipartiteTournament, required, forbidden,
              cap: int | None = None) -> tuple[frozenset | None, int]:
    """The one ascending-budget minimiser: a minimum feedback vertex set of T
    that contains ``required`` (dropped from the answer) and avoids
    ``forbidden``, or None when some square cannot be broken or when every
    such set deletes more than ``cap`` vertices besides ``required``; and
    the branch nodes its restarts spent.

    Budgets start at the larger of two greedy packings of what misses
    ``required``, both read from one scan of T's A-pairs with the forbidden
    mask: of squares and triangle pieces, the bound the search's nodes read
    (:func:`_pieces`), and of squares alone, which is sometimes the larger
    as both are greedy.  Budgets stop at ``cap``.  Every budget below the
    optimum is a proof of no, and those proofs carry the cost; their nodes
    prune on squares and triangle pieces.  Each restart gets the list
    ``branch_solve`` would build itself: that one under a constraint, else
    the A-pairs of T[survivors], rescanned only when the survivor mask
    changes.

    Iterative deepening expands each restart's nodes again in the next, so
    every restart gets the same dict as ``branch_solve``'s ``carry`` and
    reads and overwrites it in place: at every removed set the one before
    reached, the square it branched on, or the count, scanned one above its
    budget, that pruned it.  A set that comes back is then decided without a
    packing scan.  The dict starts afresh when the survivor mask, and so the
    list, changes."""
    groups = _pair_groups(T, T.full_mask, T.mask_of(forbidden))
    if groups is None:
        return None, 0
    alive, free = T.full_mask, not required and not forbidden
    top = T.num_vertices - len(required) - len(forbidden)
    if cap is not None:
        top = min(top, cap)
    used, nodes = T.mask_of(required), 0
    start = max(_pieces(groups, used, T.num_vertices), _pieces(groups, used, T.num_vertices, 0))
    memo: dict = {}
    for k in range(start, top + 1):
        if free and (survivors := _survivors(T, k)) != alive:
            alive, groups, memo = survivors, _pair_groups(T, survivors), {}
        res = branch_solve(T, Constraints(forbidden=forbidden, required_in=required,
                                          budget=len(required) + k), groups=groups,
                           carry=memo)
        nodes += res.stats.nodes
        if res.found:
            return res.solution - required, nodes
    return None, nodes
