"""The constrained-instance reduction cascade.

A budget-k feedback vertex set question on a tournament T is expanded into
families of constrained instances (T, M, P, F, k): M is a vertex set the
solution must avoid, P a set it must contain, F an edge set it must cover.
Seeding guesses M via a t-wise independent sample space; successive stages
then branch on structural obstructions until instances are "decoupled"
enough to hand to the mixed-multigraph endgame solver.

Two properties shape the implementation:

* Soundness is unconditional.  Every stage only grows P and F in ways that
  make any child solution a parent solution, and the driver re-verifies
  every candidate before answering yes.
* Completeness is relative to the constants profile.  The published
  constants make the families astronomically large (or empty) at desk
  scale, so every constant is a named knob; when an enumeration would
  overflow its cap the stage raises instead of silently truncating, and the
  driver falls back to the branching solver so the final answer is always
  correct.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace
from functools import cache
from itertools import chain, combinations, permutations
from math import comb
from typing import Iterable, NamedTuple

from .dfvc import DfvcInstance, dfvc_solve
from .errors import FamilyCapExceeded, NotAcyclic, NotPrimePower, PreconditionViolated
from .graph import BipartiteTournament, MixedMultigraph, Vertex
from .matching import (consistent_with_mixed, enumerate_min_vertex_covers,
                       max_bipartite_matching, min_vertex_cover,
                       x_preferred_cover)
from .msequence import (BackEdge, _back_edges, _blocks_mask, _closes_m_square,
                        _layer_keys, _layers, cycle_closers)
from .msequence import m_sequence  # noqa: F401  (a lookup site perfbench's tracer wraps)
from .samplespace import prime_power_decompose, twise_space, twise_space_size
from .solvers import (Constraints, SolveStats, SolveStatus, _ms, _search, approx4,
                      reduce_instance, squares_packing_lower_bound, verify_fvs)
from .solvers import branch_solve  # noqa: F401  (a lookup site perfbench's tracer wraps)
from .structure import _peel_layers_mask


@dataclass(frozen=True)
class ConstantsProfile:
    """Named constants of the cascade.

    The ``paper`` profile (see :meth:`for_budget`) uses the published
    polylog-in-k defaults, which are astronomically large for any desk-size
    budget and make families empty or enormous.  Tests use :meth:`toy`.
    ``family_cap`` bounds every enumeration; exceeding it raises
    FamilyCapExceeded rather than truncating.
    """

    hom_window: int        # homogeneity window on each side's order
    large_ratio: int       # oversize threshold for sub-blocks
    weak_matching: int     # residual back-edge matching bound per block pair
    block_degree: int      # constraint-edge incidence bound per block
    part_fvs_f: int        # part feedback-vertex-set window seed
    part_degree_d: int     # part constraint-edge incidence window seed
    budget_slack: int      # exemption-subset size in seeding/branching stages
    sample_q: int          # sample-space alphabet (rounded up to prime power)
    family_cap: int = 50_000

    def __post_init__(self):
        for f in fields(self):
            val = getattr(self, f.name)
            if not isinstance(val, int) or isinstance(val, bool) or val < 1:
                raise ValueError(f"{f.name} must be a positive integer, got {val!r}")

    @classmethod
    def from_mapping(cls, data) -> "ConstantsProfile":
        """Profile from a knob file's JSON object naming every field
        (``family_cap`` may be left out); anything else raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("a constants profile must be a JSON object")
        try:
            return cls(**data)
        except TypeError as exc:  # a missing or unknown field
            raise ValueError(f"constants profile: {exc}") from None

    @classmethod
    def for_budget(cls, k: int) -> "ConstantsProfile":
        """The ``paper`` profile: published constants, with log read as
        ceil(log2) and floors at 1."""
        lg = max(1, math.ceil(math.log2(max(k, 2))))
        return cls(
            hom_window=10 * lg ** 3,
            large_ratio=10 * lg ** 5,
            weak_matching=201 * lg ** 8,
            block_degree=201 * lg ** 10,
            part_fvs_f=201 * lg ** 12,
            part_degree_d=201 * lg ** 12,
            budget_slack=max(1, (2 * k) // max(1, lg ** 2)),
            sample_q=max(2, lg ** 2),
        )

    @classmethod
    def toy(cls) -> "ConstantsProfile":
        """Small constants that keep every stage executable on tiny
        instances; completeness claims are relative to these knobs."""
        return cls(hom_window=2, large_ratio=3, weak_matching=2,
                   block_degree=3, part_fvs_f=1, part_degree_d=2,
                   budget_slack=1, sample_q=2, family_cap=20_000)


class BlockView(NamedTuple):
    """Block structure of T - P relative to M, in host coordinates."""

    blocks: tuple[tuple[frozenset, frozenset], ...]  # (X_i, Y_i)
    block_of: dict  # host vertex -> block index
    back: tuple[BackEdge, ...]  # row-major arc scan order
    # (tail, head) of each back edge that closes a square with two M-vertices;
    # a child keeps its parent's set, which may name arcs it no longer has
    conflict: frozenset


@dataclass(frozen=True)
class CfvsInstance:
    """One constrained question: an FVS of T of size <= k that avoids M,
    contains P, and covers F.

    ``view`` is the block structure of T - P relative to M, which every
    stage predicate reads, in host coordinates.  An instance built without
    one is validated and derives it here (NotMConsistent if it cannot).  A
    seed (see :func:`seed_instances`) is valid by construction and built
    with its view.  So is a stage child (see :func:`_child`), as stages add
    only vertices and arcs of T; it holds its parent's view minus the
    vertices it adds to P: a vertex's block depends only on T, M and itself.
    ``parts`` is the split :func:`stage_decoupled` verified for a child.
    """

    T: BipartiteTournament
    M: frozenset
    P: frozenset
    F: frozenset
    k: int
    view: BlockView | None = field(default=None, compare=False, repr=False)
    parts: tuple[frozenset, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if self.view is not None:
            return
        object.__setattr__(self, "M", frozenset(self.M))
        object.__setattr__(self, "P", frozenset(self.P))
        object.__setattr__(self, "F", frozenset(tuple(e) for e in self.F))
        if self.M & self.P:
            raise ValueError("undeletable and forced sets overlap")
        for v in self.M | self.P:
            self.T.check_vertex(v)
        for (u, w) in self.F:
            if not self.T.has_arc(u, w):
                raise ValueError(f"constraint edge {u!r}->{w!r} is not an arc")
        m_mask, alive, keys = _layers(self.T, self.M, frozenset(self.T.vertices()) - self.P,
                                      "the block partition")
        object.__setattr__(self, "view", live_structure(self.T, m_mask, keys, alive))

    def live_f(self) -> frozenset:
        """Constraint edges with both endpoints outside P (still uncovered)."""
        return frozenset((u, w) for (u, w) in self.F
                         if u not in self.P and w not in self.P)

    def constraints(self) -> Constraints:
        return Constraints(forbidden=self.M, required_in=self.P,
                           cover_edges=self.F, budget=self.k)

    def is_solution(self, H: Iterable[Vertex]) -> bool:
        from .solvers import satisfies
        return satisfies(self.T, frozenset(H), self.constraints())


def live_structure(T: BipartiteTournament, m_mask: int, keys: list[tuple[int, int, int]],
                   alive: int) -> BlockView:
    """The block view of T[alive] relative to M, on the host tournament
    itself, from gid masks and T[M]'s layer keys; T[alive] must be
    M-consistent, which is not checked here."""
    blocks, block = _blocks_mask(T, m_mask, keys, alive)
    back = tuple(_back_edges(T, block))
    vs, gid = T.vertices_of_mask, T.gid
    return BlockView(
        tuple((frozenset(vs(x)), frozenset(vs(y))) for x, y in blocks),
        {T.vertex_of_gid(g): i for g, i in enumerate(block) if i >= 0},
        back,
        frozenset((e.tail, e.head) for e in back
                  if _closes_m_square(T, m_mask, gid(e.tail), gid(e.head))))


def _child(inst: CfvsInstance, P: frozenset | None = None,
           F: frozenset | None = None) -> CfvsInstance | None:
    """``inst`` with P grown to ``P`` (a superset of inst.P) and/or F set to
    ``F``, holding its parent's view minus the added vertices; None when the
    new P meets M or exceeds k, as no solution then contains it."""
    P = inst.P if P is None else P
    if P & inst.M or len(P) > inst.k:
        return None
    gone, view = P - inst.P, inst.view
    if gone:
        view = BlockView(
            tuple((x - gone, y - gone) for (x, y) in view.blocks),
            {v: i for v, i in view.block_of.items() if v not in gone},
            tuple(e for e in view.back if e.tail not in gone and e.head not in gone),
            view.conflict)
    return CfvsInstance(inst.T, inst.M, P, inst.F if F is None else F, inst.k, view)


def _short_by_pair(inst: CfvsInstance, exclude: frozenset = frozenset()) -> list[list]:
    """Short back edges outside ``exclude`` as host arcs, one list per
    consecutive block pair."""
    by_pair: dict = {}
    for (u, w, bi, bj) in inst.view.back:
        if bi - bj == 1 and (u, w) not in exclude:
            by_pair.setdefault(bj, []).append((u, w))
    return list(by_pair.values())


def _block_incidence(inst: CfvsInstance, edges: Iterable[tuple]) -> dict:
    """Block index -> number of edge endpoints inside that block."""
    block_of = inst.view.block_of
    counts: dict = {}
    for e in edges:
        for v in e:
            if v in block_of:
                counts[block_of[v]] = counts.get(block_of[v], 0) + 1
    return counts


def _subset_count(size: int, most: int) -> int:
    """The number of subsets of at most ``most`` elements of a ``size``-set."""
    return sum(comb(size, r) for r in range(min(most, size) + 1))


def _small_subsets(pool: list, most: int, stage: str,
                   profile: ConstantsProfile) -> Iterable[tuple]:
    """Every subset of ``pool`` with at most ``most`` elements, by size and
    each size in ``combinations`` order; raises FamilyCapExceeded(stage,
    count, family_cap) up front when there are more than ``family_cap``."""
    count = _subset_count(len(pool), most)
    if count > profile.family_cap:
        raise FamilyCapExceeded(stage, count, profile.family_cap)
    return chain.from_iterable(combinations(pool, r)
                               for r in range(min(most, len(pool)) + 1))


# ---------------------------------------------------------------------------
# seeding


def next_prime_power(q: int) -> int:
    x = max(2, q)
    while True:
        try:
            prime_power_decompose(x)
            return x
        except NotPrimePower:
            x += 1


def m_family(T: BipartiteTournament, k: int, profile: ConstantsProfile) -> list[frozenset]:
    """Candidate undeletable sets: one selection per sample-space function,
    minus every exemption subset of size up to ``budget_slack``;
    deduplicated, deterministic order."""
    n = T.num_vertices
    if n == 0:
        return []
    q = next_prime_power(profile.sample_q)
    t = profile.hom_window
    space_size = twise_space_size(n, t, q)
    if space_size > profile.family_cap:
        raise FamilyCapExceeded("sample space", space_size, profile.family_cap)
    space = twise_space(n, t, q)
    verts = T.vertices()
    slack = profile.budget_slack

    selections = [frozenset(verts[i] for i in range(n) if f[i] == 1)
                  for f in space.functions]
    would_be = sum(_subset_count(len(z), slack) for z in selections)
    if would_be > profile.family_cap:
        raise FamilyCapExceeded("undeletable-set family", would_be, profile.family_cap)

    out: list[frozenset] = []
    seen: set = set()
    for z in selections:
        for combo in _small_subsets(sorted(z), slack, "undeletable-set family", profile):
            m_set = z - frozenset(combo)
            if m_set not in seen:
                seen.add(m_set)
                out.append(m_set)
    return out


def is_m_homogeneous(T: BipartiteTournament, M: Iterable[Vertex],
                     H: Iterable[Vertex], window: int) -> bool:
    """Can some topological sort of T - H put an M-vertex inside every
    ``window`` consecutive same-side positions?

    Topological sorts of an acyclic bipartite tournament permute only the
    canonical layers internally, so the decision reduces to a greedy pass
    per side: within each layer the M-vertices can cut the non-M run
    wherever we like, and minimizing the trailing run is always optimal.
    """
    if window < 1:
        raise ValueError("window must be positive")
    H = frozenset(H)
    for v in H:
        T.check_vertex(v)
    layers = _peel_layers_mask(T, T.full_mask & ~T.mask_of(H))
    if layers is None:
        raise NotAcyclic("tournament has a directed cycle")
    m_mask = T.mask_of(v for v in M if T.is_vertex(v))
    a_mask = (1 << T.m) - 1
    for side_mask in (a_mask, T.full_mask & ~a_mask):
        run = 0
        for layer in layers:  # a layer lies on one side: arcs join every cross pair
            if not layer & side_mask:
                continue
            m_i = (layer & m_mask).bit_count()
            f_i = layer.bit_count() - m_i
            if m_i == 0:
                run += f_i
            else:
                capacity = (window - 1 - run) + (m_i - 1) * (window - 1)
                run = max(0, f_i - capacity)
            if run >= window:
                return False
    return True


def derive_forced_p(T: BipartiteTournament, M: Iterable[Vertex]) -> frozenset:
    """Vertices outside M whose addition to M closes a cycle; any solution
    avoiding M must delete all of them.  When T[M] is cyclic itself, every
    vertex outside M closes that cycle."""
    m_mask = T.mask_of(M)
    if _peel_layers_mask(T, m_mask) is None:
        return frozenset(T.vertices_of_mask(T.full_mask & ~m_mask))
    return frozenset(cycle_closers(T, m_mask, T.full_mask))


def seed_instances(T: BipartiteTournament, k: int,
                   profile: ConstantsProfile) -> list[CfvsInstance]:
    """One constrained instance per viable undeletable-set guess.

    Guesses with a cyclic induced subgraph admit no avoiding solution and
    are dropped; the empty guess carries no structure and is dropped too
    (the fallback solver covers it).  A seed is valid by construction: P
    holds every cycle closer, so T - P is M-consistent, and T[M] is peeled
    once for both the acyclicity test and the seed's view.
    """
    out = []
    full = T.full_mask
    for M in m_family(T, k, profile):
        if not M:
            continue
        m_mask = T.mask_of(M)
        peeled = _peel_layers_mask(T, m_mask)
        if peeled is None:
            continue
        P = cycle_closers(T, m_mask, full)
        view = live_structure(T, m_mask, _layer_keys(T, m_mask, peeled),
                              full & ~T.mask_of(P))
        out.append(CfvsInstance(T, M, frozenset(P), frozenset(), k, view))
    return out


# ---------------------------------------------------------------------------
# oversized-block stage


def large_sets(inst: CfvsInstance, profile: ConstantsProfile) -> frozenset:
    """Union of oversized sub-blocks: X_i whose size reaches ``large_ratio``
    times its M-count, and Y_i of size at least ``large_ratio``."""
    ratio = profile.large_ratio
    picked: set = set()
    for (x, y) in inst.view.blocks:
        m_i = len(x & inst.M)
        if (m_i == 0 and len(x) >= ratio) or (m_i > 0 and len(x) >= ratio * m_i):
            picked |= x
        if len(y) >= ratio:
            picked |= y
    return frozenset(picked)


def is_regular(inst: CfvsInstance, profile: ConstantsProfile) -> bool:
    """Every big X_i keeps an M share of at least 1/large_ratio, and every
    Y_i stays below large_ratio."""
    ratio = profile.large_ratio
    for (x, y) in inst.view.blocks:
        if len(y) > ratio:
            return False
        if len(x) >= ratio:
            m_i = len(x & inst.M)
            if m_i * ratio < len(x):
                return False
    return True


def stage_regular(inst: CfvsInstance, profile: ConstantsProfile) -> list[CfvsInstance]:
    """Force all oversized-sub-block vertices into the solution except an
    exempted subset B of size up to ``budget_slack``.

    Exemptions must include every M-vertex of the oversized union: children
    with forced M-vertices would violate the instance invariant and can
    never have a solution, so they are pruned rather than emitted.
    """
    big = large_sets(inst, profile)
    mandatory = big & inst.M
    slack = profile.budget_slack
    if len(mandatory) > slack:
        return []
    out = []
    for combo in _small_subsets(sorted(big - inst.M), slack - len(mandatory),
                                "oversized-block stage", profile):
        child = _child(inst, P=inst.P | (big - mandatory - frozenset(combo)))
        if child is not None and is_regular(child, profile):
            out.append(child)
    return out


# ---------------------------------------------------------------------------
# back-edge coupling stage


def long_back(inst: CfvsInstance) -> frozenset:
    """All back edges jumping at least two blocks, as host arcs."""
    return frozenset((u, w) for (u, w, bi, bj) in inst.view.back if bi - bj >= 2)


def short_back_large(inst: CfvsInstance, profile: ConstantsProfile) -> frozenset:
    """Union of the consecutive-block back-edge sets whose matching size
    reaches ``weak_matching``, as host arcs."""
    picked: set = set()
    for edges in _short_by_pair(inst):
        if len(max_bipartite_matching(edges)) >= profile.weak_matching:
            picked.update(edges)
    return frozenset(picked)


def is_weakly_coupled(inst: CfvsInstance, profile: ConstantsProfile) -> bool:
    """F's live edges are conflict back edges, every long back edge is in F,
    and after removing F the per-pair back-edge matchings stay small.

    Edges of F already covered by P are vacuous and exempt from the back-edge
    requirement.
    """
    if not inst.live_f() <= inst.view.conflict:
        return False
    if not long_back(inst) <= inst.F:
        return False
    return all(len(max_bipartite_matching(edges)) <= profile.weak_matching
               for edges in _short_by_pair(inst, inst.F))


def stage_weak(inst: CfvsInstance, profile: ConstantsProfile) -> list[CfvsInstance]:
    """Commit to covering the heavily-matched short back edges minus an
    exempted subset B, plus every long back edge (and anything the parent
    already required)."""
    big = short_back_large(inst, profile)
    longs = long_back(inst)
    out = []
    for combo in _small_subsets(sorted(big), profile.budget_slack,
                                "back-edge coupling stage", profile):
        child = _child(inst, F=(big - frozenset(combo)) | longs | inst.F)
        if child is not None and is_weakly_coupled(child, profile):
            out.append(child)
    return out


# ---------------------------------------------------------------------------
# conflict-graph branching stage


def is_matched(inst: CfvsInstance) -> bool:
    """Do the live constraint edges form a matching?"""
    seen: set = set()
    for (u, w) in inst.live_f():
        if u in seen or w in seen:
            return False
        seen.add(u)
        seen.add(w)
    return True


def matched_branching(edges: Iterable[tuple], budget: int,
                      cap: int | None = None) -> list[frozenset]:
    """Two-way branching on vertices meeting two or more constraint edges:
    either the vertex joins the solution, or all its edge-neighbors do.

    Returns the vertex sets added along each surviving branch; a branch is
    pruned when its additions exceed the budget or when the residual edges
    (pairwise disjoint ones counted greedily) cannot fit the remainder.
    Leaves have maximum degree one, i.e. a matching of residual edges.
    The one-or-two cost split per branch keeps the number of leaves with s
    additions within the (s+2)nd Fibonacci number.
    """
    edges = sorted(set(tuple(e) for e in edges))
    leaves: list[frozenset] = []
    visited = 0

    def residual_lower_bound(es: list) -> int:
        used: set = set()
        count = 0
        for (u, w) in es:
            if u in used or w in used:
                continue
            used.update((u, w))
            count += 1
        return count

    def rec(es: list, added: frozenset, left: int):
        nonlocal visited
        visited += 1
        if cap is not None and visited > cap:
            raise FamilyCapExceeded("conflict branching", visited, cap)
        if left < 0 or residual_lower_bound(es) > left:
            return
        deg: dict = {}
        for (u, w) in es:
            deg[u] = deg.get(u, 0) + 1
            deg[w] = deg.get(w, 0) + 1
        heavy = sorted(v for v, d in deg.items() if d >= 2)
        if not heavy:
            leaves.append(added)
            return
        v = heavy[0]
        # v joins the solution
        rec([e for e in es if v not in e], added | {v}, left - 1)
        # v stays; all its edge-neighbors join
        nbrs = frozenset(u if w == v else w for (u, w) in es if v in (u, w))
        rest = [e for e in es if not (set(e) & nbrs)]
        rec(rest, added | nbrs, left - len(nbrs))

    rec(edges, frozenset(), budget)
    return leaves


def stage_matched(inst: CfvsInstance, profile: ConstantsProfile) -> list[CfvsInstance]:
    """Branch until the live constraint edges form a matching; children keep
    F and grow P by the branch additions, so every child is matched."""
    out = []
    for added in matched_branching(inst.live_f(), inst.k - len(inst.P),
                                   cap=profile.family_cap):
        child = _child(inst, P=inst.P | added)
        if child is not None and is_regular(child, profile) \
                and is_weakly_coupled(child, profile):
            out.append(child)
    return out


# ---------------------------------------------------------------------------
# block-degree cleaning stage


def is_low_block_degree(inst: CfvsInstance, profile: ConstantsProfile) -> bool:
    """Every long back edge is required by F, and each block sees at most
    ``block_degree`` constraint edges whose other endpoint was already
    forced into P."""
    if not long_back(inst) <= inst.F:
        return False
    ghost = [(u, w) for (u, w) in inst.F if u in inst.P or w in inst.P]
    return all(c <= profile.block_degree
               for c in _block_incidence(inst, ghost).values())


def stage_lowblockdegree(inst: CfvsInstance, profile: ConstantsProfile) -> list[CfvsInstance]:
    """Clean the blocks with heavy constraint-edge incidence.

    For every family of heavy blocks, every guess of the surviving fringe
    vertices M' (with its ordering), the non-surviving conflicting vertices,
    the back-edge neighbors of the fringe, a minimum cover of the remaining
    back edges, and a preferred cover of the incident constraint edges are
    all forced into P.  Children that force an M-vertex are impossible and
    pruned.
    """
    if not is_weakly_coupled(inst, profile):
        raise PreconditionViolated("weakly-coupled")
    if not is_matched(inst):
        raise PreconditionViolated("matched")
    host_blocks = inst.view.blocks
    hbe = inst.view.back
    live_f = sorted(inst.live_f())
    candidates = sorted(i for i, c in _block_incidence(inst, live_f).items()
                        if c >= profile.block_degree)
    t_cap = max(0, (2 * inst.k) // profile.block_degree)

    out = []
    seen: set = set()
    work = 0

    def bump(n=1):
        nonlocal work
        work += n
        if work > profile.family_cap:
            raise FamilyCapExceeded("block-degree stage", work, profile.family_cap)

    for fam_size in range(min(t_cap, len(candidates)) + 1):
        for fam in combinations(candidates, fam_size):
            bump()
            fam = set(fam)
            x_union: set = set()
            y_union: set = set()
            pool: set = set()
            for i in fam:
                x, y = host_blocks[i]
                x_union |= x
                y_union |= y
                pool |= (x - inst.M) | y
                for j in (i - 1, i + 1):
                    if 0 <= j < len(host_blocks):
                        pool |= host_blocks[j][0] - inst.M
            pool = sorted(pool)
            m_cap = 3 * profile.hom_window * max(1, len(fam))
            for fringe_size in range(min(m_cap, len(pool)) + 1):
                for fringe in combinations(pool, fringe_size):
                    bump()
                    fringe = frozenset(fringe)
                    p1 = set(inst.P) | (y_union - fringe)
                    # back-edge neighbors of the fringe
                    for (u, w, _, _) in hbe:
                        if u in fringe and w not in fringe:
                            p1.add(w)
                        elif w in fringe and u not in fringe:
                            p1.add(u)
                    for order in permutations(sorted(fringe)):
                        bump()
                        p2 = set(p1)
                        for v in sorted(x_union - fringe - inst.M):
                            if not consistent_with_mixed(inst.T, list(order), v):
                                p2.add(v)
                        rem_back = [(u, w) for (u, w, _, _) in hbe
                                    if (u in x_union - fringe or w in x_union - fringe)
                                    and u not in p2 and w not in p2]
                        for cover in enumerate_min_vertex_covers(rem_back,
                                                                 cap=profile.family_cap):
                            bump()
                            p3 = p2 | cover
                            q_edges = [(u, w) for (u, w) in live_f
                                       if (u in (x_union | y_union) or w in (x_union | y_union))
                                       and u not in p3 and w not in p3]
                            p4 = frozenset(p3 | x_preferred_cover(q_edges, x_union | y_union))
                            if p4 in seen:  # another guess collapsed onto it
                                continue
                            seen.add(p4)
                            child = _child(inst, P=p4)
                            if child is not None and is_low_block_degree(child, profile):
                                out.append(child)
    return out


# ---------------------------------------------------------------------------
# decoupling stage and the endgame reduction


def _split_search(inst: CfvsInstance, profile: ConstantsProfile):
    """The merged blocks X_i | Y_i, ``runs(cuts)``, the memoised
    ``windows(i, j)`` and the greedy cut mask of one instance.

    Bit i of a cut mask cuts between block i and block i + 1, and
    ``runs(cuts)`` lists the (first, last) block of each run.  ``windows``
    gives blocks i..j's 4-approximation size under budget ``part_fvs_f``
    (None past it) and the number of live constraint edges touching them.
    The greedy deletes the same squares whatever its budget, so one
    budget-``part_fvs_f`` pass per block run serves the greedy split and
    every split's window check.
    """
    blocks = [x | y for (x, y) in inst.view.blocks]
    block_of = inst.view.block_of
    live = [(block_of[u], block_of[w]) for (u, w) in inst.live_f()]

    @cache
    def windows(i: int, j: int) -> tuple[int | None, int]:
        approx = approx4(inst.T, profile.part_fvs_f,
                         inst.T.mask_of(frozenset().union(*blocks[i:j + 1])))
        deg = sum(1 for (bu, bw) in live if i <= bu <= j or i <= bw <= j)
        return None if approx is None else len(approx), deg

    def runs(cuts: int) -> list[tuple[int, int]]:
        out, first = [], 0
        for i in range(len(blocks) - 1):
            if cuts >> i & 1:
                out.append((first, i))
                first = i + 1
        return out + [(first, len(blocks) - 1)]

    greedy, first = 0, 0
    for i in range(len(blocks) - 1):
        size, deg = windows(first, i)
        if size is None or size >= profile.part_fvs_f or deg >= profile.part_degree_d:
            greedy |= 1 << i
            first = i + 1
    return blocks, runs, windows, greedy


def partition_parts(inst: CfvsInstance, profile: ConstantsProfile) -> list[frozenset]:
    """Greedy split of the blocks into consecutive runs, cutting whenever
    the run's feedback-vertex-set size (via the 4-approximation, run with
    budget ``part_fvs_f``) or its live constraint-edge incidence reaches the
    respective window.  The final run may satisfy neither window.  The stage
    predicates are not checked here; :func:`stage_decoupled` checks them."""
    blocks, runs, _, greedy = _split_search(inst, profile)
    return [frozenset().union(*blocks[i:j + 1]) for (i, j) in runs(greedy)]


def find_decoupling(inst: CfvsInstance, profile: ConstantsProfile) -> list[frozenset] | None:
    """A consecutive-block partition witnessing decoupling, or None: at most
    max(1, k // part_fvs_f) parts, no short conflict back edge outside F cut,
    and every part inside its feedback-vertex-set or constraint-edge window.

    The greedy split of :func:`partition_parts` is tried first, then every
    other split in cut-mask order; that search is skipped when 2^(blocks-1)
    exceeds the family cap, and the greedy split then decides alone.
    """
    blocks, runs, windows, greedy = _split_search(inst, profile)
    f, d = profile.part_fvs_f, profile.part_degree_d
    deg_lo = max(1, (200 * d) // 201)
    crossed = 0  # bit i: a short conflict back edge outside F joins blocks i, i + 1
    for e in inst.view.back:
        if e.tail_block - e.head_block == 1 and not crossed >> e.head_block & 1 \
                and (e.tail, e.head) not in inst.F \
                and (e.tail, e.head) in inst.view.conflict:
            crossed |= 1 << e.head_block

    def witnesses(cuts: int) -> bool:
        if cuts.bit_count() >= max(1, inst.k // f) or cuts & crossed:
            return False
        return all((size is not None and size >= f) or deg_lo <= deg <= d
                   for size, deg in (windows(i, j) for (i, j) in runs(cuts)))

    splits = 2 ** (len(blocks) - 1)
    others = range(splits) if splits <= profile.family_cap else ()
    for cuts in chain([greedy], (c for c in others if c != greedy)):
        if witnesses(cuts):
            return [frozenset().union(*blocks[i:j + 1]) for (i, j) in runs(cuts)]
    return None


def stage_decoupled(inst: CfvsInstance, profile: ConstantsProfile) -> list[CfvsInstance]:
    """Resolve cross-part back edges: guess the subset B left uncovered,
    then branch over the sides of a minimum vertex cover D of the rest
    (each subset C of D joins the solution together with the uncovered
    neighbors of D - C).  A larger P keeps the instance regular, weakly
    coupled and matched, so children are checked only for the rest."""
    for name, pred in (("regular", is_regular), ("weakly-coupled", is_weakly_coupled)):
        if not pred(inst, profile):
            raise PreconditionViolated(name)
    if not is_matched(inst):
        raise PreconditionViolated("matched")
    if not is_low_block_degree(inst, profile):
        raise PreconditionViolated("low-block-degree")
    parts = partition_parts(inst, profile)
    part_of = {v: i for i, part in enumerate(parts) for v in part}
    cross = sorted({(u, w) for (u, w, _, _) in inst.view.back
                    if part_of.get(u) != part_of.get(w)})
    cap_b = 2 * len(parts) * (2 * profile.hom_window ** 2)
    out = []
    seen: set = set()
    work = 0
    for combo in _small_subsets(cross, cap_b, "decoupling stage", profile):
        uncovered = set(combo)
        must_hit = [e for e in cross if e not in uncovered]
        cover = sorted(min_vertex_cover(must_hit, profile.family_cap))
        neigh: dict = {}
        for (u, w) in must_hit:
            neigh.setdefault(u, set()).add(w)
            neigh.setdefault(w, set()).add(u)
        work += 2 ** len(cover)
        if work > profile.family_cap:
            raise FamilyCapExceeded("decoupling stage", work, profile.family_cap)
        for csize in range(len(cover) + 1):
            for chosen in combinations(cover, csize):
                chosen = set(chosen)
                forced = set(chosen)
                for v in cover:
                    if v not in chosen:
                        forced |= neigh.get(v, set())
                new_p = inst.P | forced
                if new_p in seen:
                    continue
                seen.add(new_p)
                child = _child(inst, P=new_p)
                if child is not None and is_low_block_degree(child, profile) \
                        and (split := find_decoupling(child, profile)) is not None:
                    out.append(replace(child, parts=tuple(split)))
    return out


class DfvcReduction(NamedTuple):
    instance: DfvcInstance
    to_host: dict  # (part_index, local vertex) -> host vertex


def to_dfvc(inst: CfvsInstance, profile: ConstantsProfile) -> DfvcReduction:
    """Package a decoupled instance as a mixed multigraph: the parts keep
    their induced tournaments, the live cross-part constraint edges become
    undirected, M becomes the forbidden set, and the budget drops by |P|.

    Constraint edges already covered by P have an endpoint outside the
    graph and nothing left to enforce, so only live edges cross over.
    """
    parts = inst.parts or find_decoupling(inst, profile)
    if parts is None:
        raise PreconditionViolated("decoupled")
    part_of = {v: i for i, part in enumerate(parts) for v in part}
    tournaments = []
    from_host_maps = []
    to_host: dict = {}
    for i, part in enumerate(parts):
        sub = inst.T.induced(part)
        tournaments.append(sub.tournament)
        from_host_maps.append(sub.from_host)
        for local, host in sub.to_host.items():
            to_host[(i, local)] = host
    undirected = []
    for (u, w) in sorted(inst.live_f()):
        pi, pj = part_of.get(u), part_of.get(w)
        if pi is None or pj is None or pi == pj:
            continue
        undirected.append(((pi, from_host_maps[pi][u]), (pj, from_host_maps[pj][w])))
    forbidden = frozenset((part_of[v], from_host_maps[part_of[v]][v])
                          for v in inst.M if v in part_of)
    graph = MixedMultigraph(tournaments, undirected)
    return DfvcReduction(
        DfvcInstance(graph, forbidden, inst.k - len(inst.P)), to_host)


# ---------------------------------------------------------------------------
# driver


STAGES = ("seed", "regular", "weak", "matched", "lowblockdegree", "decoupled")


class PipelineResult(NamedTuple):
    status: SolveStatus
    solution: frozenset | None
    stats: SolveStats
    trace: tuple[tuple[str, int], ...]
    diagnostics: tuple[str, ...]
    used_fallback: bool

    @property
    def found(self) -> bool:
        return self.status is SolveStatus.SOLUTION


def run_cascade(T: BipartiteTournament, k: int, profile: ConstantsProfile,
                collect=None) -> tuple[list[CfvsInstance], list[tuple[str, int]], list[str]]:
    """Run all six stages, returning the final family, a per-stage size
    trace, and diagnostics for stages that overflowed their caps.

    ``collect(stage_name, parent, children)`` is invoked per expansion when
    given; parents whose expansion overflows are skipped (their subtree is
    lost, which only costs completeness, never soundness).
    """
    trace: list[tuple[str, int]] = []
    diagnostics: list[str] = []
    try:
        family = seed_instances(T, k, profile)
    except FamilyCapExceeded as exc:
        return [], [("seed", 0)], [str(exc)]
    if collect is not None:
        collect("seed", None, family)
    trace.append(("seed", len(family)))
    stage_fns = (("regular", stage_regular), ("weak", stage_weak),
                 ("matched", stage_matched),
                 ("lowblockdegree", stage_lowblockdegree),
                 ("decoupled", stage_decoupled))
    for name, fn in stage_fns:
        nxt: list[CfvsInstance] = []
        for parent in family:
            try:
                children = fn(parent, profile)
            except FamilyCapExceeded as exc:
                diagnostics.append(f"{name}: {exc}")
                continue
            except PreconditionViolated as exc:
                diagnostics.append(f"{name}: {exc}")
                continue
            if collect is not None:
                collect(name, parent, children)
            nxt.extend(children)
            if len(nxt) > profile.family_cap:
                diagnostics.append(
                    f"{name}: accumulated family exceeds cap {profile.family_cap}; "
                    "remaining parents skipped")
                break
        family = nxt
        trace.append((name, len(family)))
    return family, trace, diagnostics


def pipeline_solve(T: BipartiteTournament, k: int,
                   profile: ConstantsProfile | None = None,
                   workers: int = 1, collect=None) -> PipelineResult:
    """Full composition: reduce, screen, seed, cascade, endgame, verify --
    with an unconditional fallback to the branching solver.

    The screen reads the greedy square-packing bound of the reduction from
    its square index: more than k vertex-disjoint squares need more than k
    deletions, so the answer is no, with the trace ``(("screen", bound),)``,
    no diagnostics, no fallback and ``stats.nodes`` 0; nothing is seeded.

    The endgame tries the final family one child at a time, in family
    order: it builds a child's ``to_dfvc`` reduction only when it reaches
    that child and stops at the first answer that verifies.  Every candidate
    answer is re-verified against the original tournament before being
    returned, so a yes is always a real feedback vertex set of size at most
    k regardless of the profile; when the cascade produces nothing usable
    the fallback answers, so the result is always correct.  The fallback
    is ``branch_solve``'s search run on the reduction made here, with the
    square index the screen built; its answer is lifted to T and checked
    once, on T.  ``stats.nodes`` is the size of the final family when the
    cascade answers, and the fallback's node count otherwise.

    The search runs in one thread; ``workers`` must be 1 (ValueError
    otherwise).  ``collect`` is forwarded to the cascade for family
    inspection.
    """
    if workers != 1:
        raise ValueError(f"pipeline_solve runs one worker, got workers={workers}")
    if profile is None:
        profile = ConstantsProfile.for_budget(max(k, 0))
    t0 = time.perf_counter()
    if k < 0:
        return PipelineResult(SolveStatus.NO_SOLUTION, None,
                              SolveStats(0, _ms(t0)), (), (), False)
    red = reduce_instance(T, k)
    work = red.tournament
    if work.num_vertices == 0:
        # reduction removed everything: the input was square-free
        return PipelineResult(SolveStatus.SOLUTION, frozenset(),
                              SolveStats(0, _ms(t0)), (("reduce", 0),), (), False)
    bound = squares_packing_lower_bound(work)
    if bound > k:  # k + 1 vertex-disjoint squares, each needing its own deletion
        return PipelineResult(SolveStatus.NO_SOLUTION, None, SolveStats(0, _ms(t0)),
                              (("screen", bound),), (), False)
    family, trace, diagnostics = run_cascade(work, k, profile, collect=collect)

    for child in family:
        try:
            reduction = to_dfvc(child, profile)
        except (PreconditionViolated, FamilyCapExceeded) as exc:
            diagnostics.append(f"endgame: {exc}")
            continue
        res = dfvc_solve(reduction.instance)
        if not res.found:
            continue
        lifted_work = child.P | {reduction.to_host[gv] for gv in res.solution}
        lifted = frozenset(red.to_host[v] for v in lifted_work)
        if len(lifted) <= k and verify_fvs(T, lifted):
            return PipelineResult(SolveStatus.SOLUTION, lifted,
                                  SolveStats(len(family), _ms(t0)),
                                  tuple(trace), tuple(diagnostics), False)

    fb = _search(T, work, red.to_host, Constraints(budget=k), t0)
    return PipelineResult(fb.status, fb.solution,
                          SolveStats(fb.stats.nodes, _ms(t0)),
                          tuple(trace), tuple(diagnostics), True)
