"""Disjoint feedback vertex cover on mixed multigraphs.

The instance is a collection of bipartite-tournament parts joined by a
matching of undirected cross-part edges.  A solution must delete at least
one endpoint of every undirected edge and leave every part acyclic, while
never touching forbidden vertices.

The solver tries every way of deleting one endpoint of each undirected
edge, as one product over the edges' choices; the parts are then fully
independent, so the leaf total is the sum of each part's minimum feedback
vertex set, from the solvers' one minimiser (:func:`solvers._minimise`).
Exponentially worse than clever alternatives in theory, but exact, simple,
and fast at the scale the pipeline produces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

from .errors import NotAMatching
from .graph import MixedMultigraph
from .solvers import (ORACLE_DEFAULT_CAP, SolveResult, SolveStats, SolveStatus, _minimise,
                      _ms, approx4, oracle_min_fvs)
from .solvers import branch_solve  # noqa: F401  (a lookup site perfbench's tracer wraps)

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


def dfvc_solve(inst: DfvcInstance) -> SolveResult:
    """Exact solver; sound and complete.

    Returns the minimum-total deletion set when it fits the budget.  The
    undirected edges form a matching, so each one loses one of its
    non-forbidden endpoints independently of the others: the leaves are the
    product of those choices, tried in sorted edge order with ``end_a``
    first, and only strict improvements replace the incumbent, so the
    reported solution is deterministic.  Every leaf deletes one endpoint per
    edge, so more edges than the budget answer no at once, and an incumbent
    of exactly that many deletions ends the loop.  Each part is minimised
    in place, with the leaf's endpoints in it required, so none is
    re-induced, and only up to the deletions the leaf may still spend: the
    budget, or one less than the incumbent, minus what the leaf has spent
    so far.  A part past that drops the leaf, as an unbreakable part does,
    so every full leaf is a strict improvement.  ``stats.nodes`` counts the
    leaves tried.
    """
    t0 = time.perf_counter()
    g = inst.graph
    if not g.is_undirected_matching():
        raise NotAMatching("undirected edges must form a matching")
    edges = sorted(g.undirected)
    choices = [[end for end in edge if end not in inst.forbidden] for edge in edges]
    if len(edges) > inst.budget or not all(choices):
        return SolveResult(SolveStatus.NO_SOLUTION, None, SolveStats(0, _ms(t0)))

    best = None
    nodes = 0
    for chosen in product(*choices):
        nodes += 1
        total = set(chosen)
        # the deletions the leaf may still spend: within the budget, and
        # below the incumbent, which only a strictly smaller total replaces
        left = (inst.budget if best is None else len(best) - 1) - len(chosen)
        for pi, part in enumerate(g.parts):
            sol = _minimise(part, {v for (pj, v) in chosen if pj == pi},
                            {v for (pj, v) in inst.forbidden if pj == pi}, left)[0]
            if sol is None:
                break
            left -= len(sol)
            total |= {(pi, v) for v in sol}
        else:
            best = frozenset(total)
            if len(best) == len(edges):
                break
    stats = SolveStats(nodes, _ms(t0))
    if best is None:
        return SolveResult(SolveStatus.NO_SOLUTION, None, stats)
    return SolveResult(SolveStatus.SOLUTION, best, stats)


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
