"""Disjoint feedback vertex cover on mixed multigraphs.

The instance is a collection of bipartite-tournament parts joined by a
matching of undirected cross-part edges.  A solution must delete at least
one endpoint of every undirected edge and leave every part acyclic, while
never touching forbidden vertices.

The solver resolves the undirected matching by two-way branching (delete
one endpoint or the other); the parts are then fully independent, so each
contributes its own minimum feedback vertex set and the branch total is
their sum.  Exponentially worse than clever alternatives in theory, but
exact, simple, and fast at the scale the pipeline produces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

from .errors import NotAMatching
from .graph import BipartiteTournament, MixedMultigraph
from .solvers import (ORACLE_DEFAULT_CAP, Constraints, SolveResult, SolveStats,
                      SolveStatus, _ms, approx4, branch_solve, oracle_min_fvs,
                      squares_packing_lower_bound)

GlobalVertex = tuple  # (part_index, Vertex)


@dataclass(frozen=True)
class DfvcInstance:
    """Mixed multigraph plus undeletable vertices and a deletion budget."""

    graph: MixedMultigraph
    forbidden: frozenset
    budget: int

    def __post_init__(self):
        object.__setattr__(self, "forbidden", frozenset(self.forbidden))
        for (pi, v) in self.forbidden:
            self.graph.parts[pi].check_vertex(v)


class ClassReport(NamedTuple):
    """Outcome of checking an instance against the (d, f, t) class shape."""

    ok: bool
    violations: tuple[str, ...]


def validate_class(inst: DfvcInstance, d: int, f: int, t: int) -> ClassReport:
    """Check each part's undirected degree (<= d), feedback vertex set size
    window ([f, 4f], exact within the oracle cap, approximation bounds
    beyond it), and the part count (<= t)."""
    g = inst.graph
    violations = []
    if len(g.parts) > t:
        violations.append(f"part count {len(g.parts)} exceeds t={t}")
    for pi, part in enumerate(g.parts):
        deg = g.undirected_degree(pi)
        if deg > d:
            violations.append(f"part {pi}: undirected degree {deg} exceeds d={d}")
        if part.num_vertices <= ORACLE_DEFAULT_CAP:
            opt = len(oracle_min_fvs(part).solution)
            lo = hi = opt
        else:
            out = approx4(part, part.num_vertices)
            hi = len(out)
            lo = (hi + 3) // 4
        if hi < f:
            violations.append(f"part {pi}: feedback vertex set size {hi} below f={f}")
        if lo > 4 * f:
            violations.append(f"part {pi}: feedback vertex set size {lo} above 4f={4 * f}")
    return ClassReport(not violations, tuple(violations))


def _part_min_fvs(part: BipartiteTournament, removed: set, forbidden: set):
    """Minimum feedback vertex set of a part minus ``removed``, avoiding
    ``forbidden``; None when some square cannot be broken.

    Searched for ascending k on the part itself, with ``removed`` required
    in the solution and counted in the budget, so the part is never
    re-induced; ``removed`` is dropped from the answer.  The search starts at
    the square-packing bound of the part minus ``removed``, below which no k
    can succeed.
    """
    deletable = part.num_vertices - len(removed) - len(forbidden)
    lb = squares_packing_lower_bound(part, part.mask_of(forbidden),
                                     part.full_mask & ~part.mask_of(removed))
    if lb is None:
        return None
    for k in range(lb, deletable + 1):
        res = branch_solve(part, Constraints(forbidden=forbidden, required_in=removed,
                                             budget=len(removed) + k))
        if res.found:
            return res.solution - removed
    return None


def dfvc_solve(inst: DfvcInstance) -> SolveResult:
    """Exact solver; sound and complete.

    Returns the minimum-total deletion set when it fits the budget.  The
    reported solution is deterministic: branches are explored in sorted edge
    order and only strict improvements replace the incumbent.  A branch
    returns once its endpoint deletions alone exceed the budget or reach the
    incumbent's size: no leaf below it is a strict minimum within budget, so
    only leaves that cannot be the answer are dropped.
    """
    t0 = time.perf_counter()
    g = inst.graph
    if not g.is_undirected_matching():
        raise NotAMatching("undirected edges must form a matching")
    edges = sorted(g.undirected, key=lambda e: (e[0][0], e[0][1], e[1][0], e[1][1]))
    for (end_a, end_b) in edges:
        if end_a in inst.forbidden and end_b in inst.forbidden:
            return SolveResult(SolveStatus.NO_SOLUTION, None,
                               SolveStats(0, _ms(t0)))

    best: dict = {"size": None, "solution": None}
    nodes = 0

    def finish(deleted: frozenset):
        total: set = set(deleted)
        for pi, part in enumerate(g.parts):
            removed_here = {v for (pj, v) in deleted if pj == pi}
            forb_here = {v for (pj, v) in inst.forbidden if pj == pi}
            sol = _part_min_fvs(part, removed_here, forb_here)
            if sol is None:
                return
            total |= {(pi, v) for v in sol}
        if best["size"] is None or len(total) < best["size"]:
            best["size"] = len(total)
            best["solution"] = frozenset(total)

    def rec(i: int, deleted: frozenset):
        nonlocal nodes
        nodes += 1
        if len(deleted) > inst.budget or (best["size"] is not None
                                          and len(deleted) >= best["size"]):
            return
        if i == len(edges):
            finish(deleted)
            return
        end_a, end_b = edges[i]
        if end_a in deleted or end_b in deleted:
            rec(i + 1, deleted)
            return
        for choice in (end_a, end_b):
            if choice in inst.forbidden:
                continue
            rec(i + 1, deleted | {choice})

    rec(0, frozenset())
    stats = SolveStats(nodes, _ms(t0))
    if best["size"] is None or best["size"] > inst.budget:
        return SolveResult(SolveStatus.NO_SOLUTION, None, stats)
    return SolveResult(SolveStatus.SOLUTION, best["solution"], stats)


def verify_dfvc(inst: DfvcInstance, solution: frozenset) -> bool:
    """Full validity check: budget, forbidden, coverage, per-part acyclicity."""
    from .structure import is_acyclic
    if len(solution) > inst.budget:
        return False
    if solution & inst.forbidden:
        return False
    for (end_a, end_b) in inst.graph.undirected:
        if end_a not in solution and end_b not in solution:
            return False
    for pi, part in enumerate(inst.graph.parts):
        keep = {v for v in part.vertices() if (pi, v) not in solution}
        if not is_acyclic(part, keep):
            return False
    return True
