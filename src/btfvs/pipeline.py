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
  overflow its cap the stage raises instead of silently truncating.
  ``pipeline_solve`` decides the question with the bounded branching search
  before the cascade runs, and answers with that search's result when the
  cascade yields nothing, so the final answer is always correct.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import chain, combinations, permutations
from math import comb
from typing import Iterable, Iterator, NamedTuple

from .dfvc import DfvcInstance, dfvc_solve
from .errors import (CapMeter, FamilyCapExceeded, NotAcyclic, NotPrimePower,
                     PreconditionViolated)
from .graph import BipartiteTournament, MixedMultigraph, Vertex
from .matching import (consistent_with_mixed, enumerate_min_vertex_covers,
                       max_bipartite_matching, min_vertex_cover,
                       x_preferred_cover)
from .msequence import (BackEdge, _back_edges, _blocks_mask, _closes_m_square,
                        _layer_keys, _layers, cycle_closers)
from .msequence import m_sequence  # noqa: F401  (a lookup site perfbench's tracer wraps)
from .samplespace import SampleSpace, prime_power_decompose, twise_space, twise_space_size
from .solvers import (Constraints, SolveStats, SolveStatus, _approx4_mask, _ms, _pieces,
                      _survivors, branch_solve, reduce_instance, verify_fvs)
from .structure import _a_pair_scan, _PairGroups, _peel_layers_mask


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
    @lru_cache(maxsize=64)
    def for_budget(cls, k: int) -> "ConstantsProfile":
        """The ``paper`` profile: published constants, with log read as
        ceil(log2) and floors at 1.  Built once per budget: a profile is
        frozen, so callers share it."""
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
    """Block structure of T - P relative to M, as gid masks of the host.

    ``block`` maps a gid to its block index (-1 for a vertex P held when
    the view was built).  A vertex's block depends only on T, M and itself,
    so one tuple serves a seed or hand-built instance and every descendant;
    a vertex its P has gained since keeps its index, and readers skip P.
    """

    m: int  # gid mask of M
    blocks: tuple[tuple[int, int], ...]  # (X_i, Y_i) of T - P
    block: tuple[int, ...]  # gid -> block index
    back: tuple[BackEdge, ...]  # row-major arc scan order
    # (tail, head) of each back edge that closes a square with two M-vertices;
    # a child keeps its parent's set, which may name arcs it no longer has
    conflict: frozenset


class _CfvsFields(NamedTuple):
    T: BipartiteTournament
    m: int  # gid mask of M
    p: int  # gid mask of P
    F: frozenset  # constraint arcs, (tail, head) Vertex pairs
    k: int
    view: BlockView
    parts: tuple[frozenset, ...]
    holds: int  # the stage predicates known to hold, bits of _REGULAR .. _LOW_DEGREE


# Bits of CfvsInstance.holds, in the order the stages check their predicates.
_REGULAR, _WEAK, _MATCHED, _LOW_DEGREE = 1, 2, 4, 8
_KEPT_BY_P = _REGULAR | _WEAK | _MATCHED  # what a child with a larger P inherits
_KEPT_BY_F = _REGULAR  # what a child with a new F inherits


class CfvsInstance(_CfvsFields):
    """One constrained question: an FVS of T of size <= k that avoids M,
    contains P, and covers F.

    M and P are held as gid masks of T, ``m`` and ``p``, which every stage
    and stage predicate reads; ``M`` and ``P`` give the same sets as
    ``Vertex`` frozensets, built when read, for readers at the boundary
    (serializers, checkers, tests).  F stays a set of ``Vertex`` arcs.

    ``view`` is the block structure of T - P relative to M, which every
    stage predicate reads, in host coordinates.  ``CfvsInstance(T, M, P, F,
    k)`` builds an instance from ``Vertex`` sets: it is validated and
    derives its view (NotMConsistent if it cannot).  A seed (see
    :func:`seed_instances`) is valid by construction and built from masks
    with its view.  So is a stage child (see :func:`_child`), as stages add
    only vertices and arcs of T; it holds its parent's view minus the
    vertices it adds to P: a vertex's block depends only on T, M and itself.
    ``parts`` is the split :func:`stage_decoupled` verified for a child,
    given when the child is built.  Instances are immutable; two are equal
    when their T, M, P, F and k are.

    ``holds`` marks the stage predicates known to hold, so a stage does not
    decide one twice (it takes no part in equality, hashing or the repr).
    A bit is set only when a stage computed its predicate as true on this
    instance, or when the instance inherited it from its parent.  A seed or
    hand-built instance starts with none.  A child inherits:

    * with a larger P: ``regular``, ``weakly-coupled`` and ``matched``.
      Blocks, back edges and live F only shrink, the view's conflict set
      is kept, and a matching of a subset is no larger;
    * with a new F: ``regular`` only, as :func:`is_regular` reads just the
      blocks and M;
    * with neither: every bit, as it is its parent.  Only then does it keep
      ``low-block-degree``, as ghost edges grow with P and F.

    The bits are relative to the profile of the stage that set them: a
    stage trusts them under any profile, so an instance taken to a profile
    with another ``large_ratio``, ``weak_matching`` or ``block_degree`` is
    rebuilt with ``CfvsInstance(T, M, P, F, k)`` first.
    """

    __slots__ = ()

    def __new__(cls, T: BipartiteTournament, M: Iterable[Vertex], P: Iterable[Vertex],
                F: Iterable[tuple], k: int) -> "CfvsInstance":
        M, P = frozenset(M), frozenset(P)
        F = frozenset(tuple(e) for e in F)
        if M & P:
            raise ValueError("undeletable and forced sets overlap")
        for v in M | P:
            T.check_vertex(v)
        for (u, w) in F:
            if not T.has_arc(u, w):
                raise ValueError(f"constraint edge {u!r}->{w!r} is not an arc")
        m_mask, alive, keys = _layers(T, M, frozenset(T.vertices()) - P, "the block partition")
        return cls._of(T, m_mask, T.mask_of(P), F, k, live_structure(T, m_mask, keys, alive))

    @classmethod
    def _of(cls, T: BipartiteTournament, m: int, p: int, F: frozenset, k: int,
            view: BlockView, parts: tuple[frozenset, ...] = (),
            holds: int = 0) -> "CfvsInstance":
        """An instance from gid masks and its view, unchecked: for seeds and
        stage children, which are valid by construction."""
        return tuple.__new__(cls, (T, m, p, F, k, view, parts, holds))

    def __reduce__(self):
        return (CfvsInstance._of, tuple(self))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CfvsInstance):
            return NotImplemented
        return self[:5] == other[:5]

    def __ne__(self, other) -> bool:
        if not isinstance(other, CfvsInstance):
            return NotImplemented
        return self[:5] != other[:5]

    def __hash__(self) -> int:
        return hash(self[:5])

    def __repr__(self) -> str:
        return (f"CfvsInstance(T={self.T!r}, M={self.M!r}, P={self.P!r}, "
                f"F={self.F!r}, k={self.k!r})")

    @property
    def M(self) -> frozenset:
        """M as ``Vertex`` objects."""
        return frozenset(self.T.vertices_of_mask(self.m))

    @property
    def P(self) -> frozenset:
        """P as ``Vertex`` objects."""
        return frozenset(self.T.vertices_of_mask(self.p))

    def live_f(self) -> frozenset:
        """Constraint edges with both endpoints outside P (still uncovered)."""
        gid, p = self.T.gid, self.p
        return frozenset((u, w) for (u, w) in self.F if not (p >> gid(u) | p >> gid(w)) & 1)

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
    gid = T.gid
    return BlockView(
        m_mask, blocks, block, back,
        frozenset((e.tail, e.head) for e in back
                  if _closes_m_square(T, m_mask, gid(e.tail), gid(e.head))))


def _child(inst: CfvsInstance, profile: ConstantsProfile, p: int | None = None,
           F: frozenset | None = None, need: int = 0, made: int = 0) -> CfvsInstance | None:
    """``inst`` with P grown to the gid mask ``p`` (a superset of inst.p)
    and/or F set to ``F``, holding its parent's view minus the added
    vertices and the ``holds`` bits it inherits, plus ``need`` and ``made``
    (the predicates the change makes true by construction).  None when the
    new P meets M or exceeds k, as no solution then contains it, or when
    the child fails a predicate of ``need`` it did not inherit."""
    holds = inst.holds
    if F is None:
        F = inst.F
    else:
        holds &= _KEPT_BY_F
    if p is None:
        p = inst.p
    elif p != inst.p:
        holds &= _KEPT_BY_P
    if p & inst.m or p.bit_count() > inst.k:
        return None
    gone, view = p & ~inst.p, inst.view
    if gone:
        keep = ~gone
        dropped = frozenset(inst.T.vertices_of_mask(gone))
        view = view._replace(
            blocks=tuple((x & keep, y & keep) for (x, y) in view.blocks),
            back=tuple(e for e in view.back
                       if e.tail not in dropped and e.head not in dropped))
    child = CfvsInstance._of(inst.T, inst.m, p, F, inst.k, view, (), holds | need | made)
    if need & ~holds and _failing(child, profile, need & ~holds) is not None:
        return None
    return child


def _failing(inst: CfvsInstance, profile: ConstantsProfile, bits: int) -> str | None:
    """The name of the first predicate of ``bits``, in stage order, that
    ``inst`` fails, or None; ``inst.holds`` is not read."""
    if bits & _REGULAR and not is_regular(inst, profile):
        return "regular"
    if bits & _WEAK and not is_weakly_coupled(inst, profile):
        return "weakly-coupled"
    if bits & _MATCHED and not is_matched(inst):
        return "matched"
    if bits & _LOW_DEGREE and not is_low_block_degree(inst, profile):
        return "low-block-degree"
    return None


def _require(inst: CfvsInstance, profile: ConstantsProfile, bits: int) -> CfvsInstance:
    """``inst`` carrying the predicates of ``bits``, checking in stage order
    only those it does not carry yet; the first that fails raises
    PreconditionViolated naming it."""
    missing = bits & ~inst.holds
    if not missing:
        return inst
    failed = _failing(inst, profile, missing)
    if failed is not None:
        raise PreconditionViolated(failed)
    return inst._replace(holds=inst.holds | missing)


def _short_by_pair(inst: CfvsInstance, exclude: frozenset = frozenset()) -> list[list]:
    """Short back edges outside ``exclude`` as host arcs, one list per
    consecutive block pair."""
    by_pair: dict = {}
    for (u, w, bi, bj) in inst.view.back:
        if bi - bj == 1 and (u, w) not in exclude:
            by_pair.setdefault(bj, []).append((u, w))
    return list(by_pair.values())


def _block_incidence(inst: CfvsInstance, edges: Iterable[tuple]) -> Counter:
    """Block index -> number of edge endpoints outside P inside that block."""
    block, gid, p = inst.view.block, inst.T.gid, inst.p
    return Counter(block[g] for e in edges for g in map(gid, e) if not p >> g & 1)


def _subset_count(size: int, most: int) -> int:
    """The number of subsets of at most ``most`` elements of a ``size``-set."""
    return sum(comb(size, r) for r in range(min(most, size) + 1))


def _small_subsets(pool: list, most: int, stage: str,
                   profile: ConstantsProfile) -> Iterable[tuple]:
    """Every subset of ``pool`` with at most ``most`` elements, by size and
    each size in ``combinations`` order; raises FamilyCapExceeded(stage,
    count, family_cap) up front when there are more than ``family_cap``."""
    CapMeter(stage, profile.family_cap).spend(_subset_count(len(pool), most))
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


SIZE_BITS = 1 << 16  # a sample space known to exceed 2 ** SIZE_BITS is not sized exactly
EXACT_Q_BITS = 32  # a sample_q this short is rounded up to a prime power in milliseconds


def _sample_space(n: int, profile: ConstantsProfile) -> tuple[int, int]:
    """The field size q and window t of :func:`_m_masks`' sample space over
    n vertices, once both its size checks pass; they read n alone.

    The space has unit ** t members, unit >= q >= sample_q.  A sample_q
    longer than EXACT_Q_BITS bits, whose prime-power search by trial
    division could take hours, is checked first by the lower bound
    sample_q ** t; an overflow then reports that bound.  Any other reports
    the exact size, or 2 ** SIZE_BITS past that."""
    t, cap = profile.hom_window, profile.family_cap
    bits = max(SIZE_BITS, cap.bit_length())  # so 2 ** bits is past the cap

    def at_least(unit: int) -> int:  # unit ** t, or 2 ** bits if that is less
        return 1 << bits if (unit.bit_length() - 1) * t > bits else unit ** t

    if profile.sample_q.bit_length() > EXACT_Q_BITS:
        CapMeter("sample space", cap).spend(at_least(profile.sample_q))
    q = next_prime_power(profile.sample_q)
    CapMeter("sample space", cap).spend(at_least(twise_space_size(n, 1, q)))
    return q, t


@lru_cache(maxsize=16)
def _selections(space: SampleSpace, slack: int) -> tuple[tuple[int, ...], int]:
    """Each function's selection as an n-bit mask, bit i set when f[i] == 1,
    and ``would_be``, the number of (selection, exemption subset of size up
    to ``slack``) pairs.  Keyed by (n, t, q, slack): a space hashes by its
    shape."""
    masks = tuple(sum(1 << i for i, v in enumerate(f) if v == 1) for f in space.functions)
    return masks, sum(_subset_count(z.bit_count(), slack) for z in masks)


@lru_cache(maxsize=16)
def _exempted(space: SampleSpace, slack: int) -> tuple[int, ...]:
    """The deduplicated family of :func:`_selections`' masks minus each
    exemption subset, in first-occurrence order: selection by selection,
    subsets by size and each size in ``combinations`` order of its bits."""
    masks, _ = _selections(space, slack)
    return tuple(dict.fromkeys(
        z & ~sum(combo)
        for z in masks
        for r in range(min(slack, z.bit_count()) + 1)
        for combo in combinations([1 << i for i in range(space.n) if z >> i & 1], r)))


def _m_masks(n: int, profile: ConstantsProfile) -> tuple[int, ...]:
    """Candidate undeletable sets over n vertices as n-bit masks: one
    selection per sample-space function, minus every exemption subset of
    size up to ``budget_slack``; deduplicated, in deterministic order.  Bit
    i is the vertex of gid i of any tournament on n vertices,
    ``T.vertices()[i]``: the family depends on T only through its vertex
    count.

    Both size checks come first, and read n alone.  A sample space of more
    than 2 ** SIZE_BITS members (and more than the cap) overflows with that
    power of two as its size, so a huge ``hom_window`` costs no huge power.
    The selections and their ``would_be`` are cached per (n, t, q, slack)
    and checked against ``family_cap`` on every call; the family itself is
    built, and cached, only once a caller's cap admits it."""
    if n == 0:
        return ()
    q, t = _sample_space(n, profile)
    space = twise_space(n, t, q)
    slack = profile.budget_slack
    _, would_be = _selections(space, slack)
    CapMeter("undeletable-set family", profile.family_cap).spend(would_be)
    return _exempted(space, slack)


def _sized_family(n: int, profile: ConstantsProfile, notes: list) -> tuple[int, ...] | None:
    """:func:`_m_masks` over n vertices, or None with its overflow added to
    ``notes`` as a seed-stage diagnostic."""
    try:
        return _m_masks(n, profile)
    except FamilyCapExceeded as exc:
        notes.append((0, str(exc)))
        return None


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
    m_mask = T.checked_mask(M)
    layers = _peel_layers_mask(T, T.full_mask & ~T.checked_mask(H))
    if layers is None:
        raise NotAcyclic("tournament has a directed cycle")
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
    m_mask = T.checked_mask(M)
    if _peel_layers_mask(T, m_mask) is None:
        return frozenset(T.vertices_of_mask(T.full_mask & ~m_mask))
    return frozenset(T.vertices_of_mask(cycle_closers(T, m_mask, T.full_mask)))


def _seeds(T: BipartiteTournament, k: int, family: Iterable[int],
           past_k: bool = True) -> Iterator[CfvsInstance | None]:
    """The seeds of :func:`seed_instances` from the guesses ``family``, gid
    masks of T, lazily, each with M and P as the gid masks it found.  Unless
    ``past_k``, a seed whose P already exceeds k is yielded as None, before
    its view or its layer keys are built."""
    full = T.full_mask
    for m_mask in family:
        if not m_mask:
            continue
        peeled = _peel_layers_mask(T, m_mask)
        if peeled is None:
            continue
        closers = cycle_closers(T, m_mask, full)
        if not past_k and closers.bit_count() > k:
            yield None
            continue
        view = live_structure(T, m_mask, _layer_keys(T, m_mask, peeled), full & ~closers)
        yield CfvsInstance._of(T, m_mask, closers, frozenset(), k, view)


def seed_instances(T: BipartiteTournament, k: int,
                   profile: ConstantsProfile) -> list[CfvsInstance]:
    """One constrained instance per viable undeletable-set guess.

    Guesses with a cyclic induced subgraph admit no avoiding solution and
    are dropped; the empty guess carries no structure and is dropped too
    (the fallback solver covers it).  A seed is valid by construction: P
    holds every cycle closer, so T - P is M-consistent, and T[M] is peeled
    once for both the acyclicity test and the seed's view.
    """
    return list(_seeds(T, k, _m_masks(T.num_vertices, profile)))


# ---------------------------------------------------------------------------
# oversized-block stage


def large_sets(inst: CfvsInstance, profile: ConstantsProfile) -> int:
    """Union of oversized sub-blocks, as a gid mask: X_i whose size reaches
    ``large_ratio`` times its M-count, and Y_i of size at least
    ``large_ratio``."""
    ratio, m = profile.large_ratio, inst.view.m
    picked = 0
    for (x, y) in inst.view.blocks:
        if x.bit_count() >= ratio * max(1, (x & m).bit_count()):
            picked |= x
        if y.bit_count() >= ratio:
            picked |= y
    return picked


def is_regular(inst: CfvsInstance, profile: ConstantsProfile) -> bool:
    """Every big X_i keeps an M share of at least 1/large_ratio, and every
    Y_i stays below large_ratio."""
    ratio, m = profile.large_ratio, inst.view.m
    for (x, y) in inst.view.blocks:
        if y.bit_count() > ratio:
            return False
        size = x.bit_count()
        if size >= ratio and (x & m).bit_count() * ratio < size:
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
    free = big & ~inst.m
    slack = profile.budget_slack - (big & inst.m).bit_count()
    if slack < 0:
        return []
    pool = [1 << g for g in range(free.bit_length()) if free >> g & 1]  # ascending gid
    out = []
    for combo in _small_subsets(pool, slack, "oversized-block stage", profile):
        child = _child(inst, profile, p=inst.p | (free & ~sum(combo)), need=_REGULAR)
        if child is not None:
            out.append(child)
    return out


# ---------------------------------------------------------------------------
# back-edge coupling stage


def long_back(inst: CfvsInstance) -> frozenset:
    """All back edges jumping at least two blocks, as host arcs."""
    return frozenset((u, w) for (u, w, bi, bj) in inst.view.back if bi - bj >= 2)


def _matching_bound(edges: list[tuple]) -> int:
    """An upper bound on the size of a maximum matching of the arcs
    ``edges``: a matching uses each tail, and each head, at most once."""
    return min(len({u for (u, _) in edges}), len({w for (_, w) in edges}))


def short_back_large(inst: CfvsInstance, profile: ConstantsProfile) -> frozenset:
    """Union of the consecutive-block back-edge sets whose matching size
    reaches ``weak_matching``, as host arcs; a set with fewer tails or
    heads than that is not matched."""
    picked: set = set()
    wm = profile.weak_matching
    for edges in _short_by_pair(inst):
        if _matching_bound(edges) >= wm and len(max_bipartite_matching(edges)) >= wm:
            picked.update(edges)
    return frozenset(picked)


def is_weakly_coupled(inst: CfvsInstance, profile: ConstantsProfile) -> bool:
    """F's live edges are conflict back edges, every long back edge is in F,
    and after removing F the per-pair back-edge matchings stay small.

    Edges of F already covered by P are vacuous and exempt from the back-edge
    requirement.  A pair with at most ``weak_matching`` tails or heads is
    not matched.
    """
    if not inst.live_f() <= inst.view.conflict:
        return False
    if not long_back(inst) <= inst.F:
        return False
    wm = profile.weak_matching
    return all(_matching_bound(edges) <= wm or len(max_bipartite_matching(edges)) <= wm
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
        child = _child(inst, profile, F=(big - frozenset(combo)) | longs | inst.F, need=_WEAK)
        if child is not None:
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
    additions within the (s+2)nd Fibonacci number.  Branches are walked in
    pre-order on an explicit stack, so any depth fits.
    """
    edges = sorted(set(tuple(e) for e in edges))
    leaves: list[frozenset] = []
    meter = CapMeter("conflict branching", cap)
    stack = [(edges, frozenset(), budget)]
    while stack:
        es, added, left = stack.pop()
        meter.spend()
        if left < 0:
            continue
        used: set = set()  # the greedy count of pairwise disjoint edges
        disjoint = 0
        for (u, w) in es:
            if u not in used and w not in used:
                used.add(u)
                used.add(w)
                disjoint += 1
        if disjoint > left:
            continue
        heavy = [v for v, d in Counter(chain.from_iterable(es)).items() if d >= 2]
        if not heavy:
            leaves.append(added)
            continue
        v = min(heavy)
        nbrs, rest = set(), []  # v's neighbours, and the edges v does not meet
        for e in es:
            if e[0] == v:
                nbrs.add(e[1])
            elif e[1] == v:
                nbrs.add(e[0])
            else:
                rest.append(e)
        # pushed in reverse: first v joins, then v stays and its neighbors join;
        # an edge at v meets a neighbour, so the second filter can start from rest
        stack.append(([e for e in rest if e[0] not in nbrs and e[1] not in nbrs],
                      added | nbrs, left - len(nbrs)))
        stack.append((rest, added | {v}, left - 1))
    return leaves


def stage_matched(inst: CfvsInstance, profile: ConstantsProfile) -> list[CfvsInstance]:
    """Branch until the live constraint edges form a matching; children keep
    F and grow P by the branch additions, so every child is matched: its
    live edges are the branching leaf's residual edges, those that meet no
    added vertex, and a leaf has no vertex on two of them.  A child is kept
    when it is regular and weakly coupled, which it inherits from a parent
    known to be both, and it carries the matched bit."""
    out = []
    for added in matched_branching(inst.live_f(), inst.k - inst.p.bit_count(),
                                   cap=profile.family_cap):
        child = _child(inst, profile, p=inst.p | inst.T.mask_of(added),
                       need=_REGULAR | _WEAK, made=_MATCHED)
        if child is not None:
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
    gid, p = inst.T.gid, inst.p
    ghost = [(u, w) for (u, w) in inst.F if (p >> gid(u) | p >> gid(w)) & 1]
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

    The preconditions (weakly coupled, matched) are checked only where
    ``inst.holds`` does not already carry them.  With no heavy block to
    choose (or no room for one in the budget), the only family is the empty
    one, whose single guess adds nothing to P: the parent is then the only
    child, kept if it has low block degree, after the four spends the loop
    would make on that guess (family, fringe, order, cover).
    """
    inst = _require(inst, profile, _WEAK | _MATCHED)
    T, host_blocks, m = inst.T, inst.view.blocks, inst.view.m
    vs, gid = T.vertices_of_mask, T.gid
    live_f = sorted(inst.live_f())
    candidates = sorted(i for i, c in _block_incidence(inst, live_f).items()
                        if c >= profile.block_degree)
    t_cap = max(0, (2 * inst.k) // profile.block_degree)
    bump = CapMeter("block-degree stage", profile.family_cap).spend
    if t_cap == 0 or not candidates:
        for _ in range(4):
            bump()
        child = _child(inst, profile, need=_LOW_DEGREE)
        return [] if child is None else [child]
    # arcs with the gid bits of their ends
    back = [(u, w, 1 << gid(u), 1 << gid(w)) for (u, w, _, _) in inst.view.back]
    live = [(u, w, 1 << gid(u), 1 << gid(w)) for (u, w) in live_f]

    out = []
    seen: set = set()
    for fam_size in range(min(t_cap, len(candidates)) + 1):
        for fam in combinations(candidates, fam_size):
            bump()
            fam = set(fam)
            x_union = y_union = pool = 0
            for i in fam:
                x, y = host_blocks[i]
                x_union |= x
                y_union |= y
                pool |= (x & ~m) | y
                for j in (i - 1, i + 1):
                    if 0 <= j < len(host_blocks):
                        pool |= host_blocks[j][0] & ~m
            xy = x_union | y_union
            xy_set, pool = frozenset(vs(xy)), vs(pool)  # pool ascending, so each fringe is sorted
            m_cap = 3 * profile.hom_window * max(1, len(fam))
            for fringe_size in range(min(m_cap, len(pool)) + 1):
                for fringe in combinations(pool, fringe_size):
                    bump()
                    in_fringe = T.mask_of(fringe)
                    inner = x_union & ~in_fringe
                    p1 = inst.p | (y_union & ~in_fringe)
                    # back-edge neighbors of the fringe
                    for (_, _, bu, bw) in back:
                        if bu & in_fringe and not bw & in_fringe:
                            p1 |= bw
                        elif bw & in_fringe and not bu & in_fringe:
                            p1 |= bu
                    for order in permutations(fringe):
                        bump()
                        p2 = p1
                        for v in vs(inner & ~m):
                            if not consistent_with_mixed(T, list(order), v):
                                p2 |= 1 << gid(v)
                        rem_back = [(u, w) for (u, w, bu, bw) in back
                                    if (bu | bw) & inner and not (bu | bw) & p2]
                        for cover in enumerate_min_vertex_covers(rem_back,
                                                                 cap=profile.family_cap):
                            bump()
                            p3 = p2 | T.mask_of(cover)
                            q_edges = [(u, w) for (u, w, bu, bw) in live
                                       if (bu | bw) & xy and not (bu | bw) & p3]
                            p4 = p3 | T.mask_of(x_preferred_cover(q_edges, xy_set))
                            if p4 in seen:  # another guess collapsed onto it
                                continue
                            seen.add(p4)
                            child = _child(inst, profile, p=p4, need=_LOW_DEGREE)
                            if child is not None:
                                out.append(child)
    return out


# ---------------------------------------------------------------------------
# decoupling stage and the endgame reduction


def _split_search(inst: CfvsInstance, profile: ConstantsProfile):
    """``parts(cuts)``, ``runs(cuts)``, the memoised ``windows(i, j)`` and
    the greedy cut mask of one instance.

    Bit i of a cut mask cuts between block i and block i + 1, ``runs(cuts)``
    lists the (first, last) block of each run and ``parts(cuts)`` the
    vertex set of each.  ``windows`` gives blocks i..j's 4-approximation
    size under budget ``part_fvs_f`` (None past it) and the number of live
    constraint edges touching them.  The greedy deletes the same squares
    whatever its budget, so one budget-``part_fvs_f`` pass per block run
    serves the greedy split and every split's window check.
    """
    blocks = [x | y for (x, y) in inst.view.blocks]  # disjoint: a sum is a union
    block, gid, vs = inst.view.block, inst.T.gid, inst.T.vertices_of_mask
    live = [(block[gid(u)], block[gid(w)]) for (u, w) in inst.live_f()]
    memo: dict[tuple[int, int], tuple[int | None, int]] = {}

    def windows(i: int, j: int) -> tuple[int | None, int]:
        got = memo.get((i, j))
        if got is None:
            approx = _approx4_mask(inst.T, profile.part_fvs_f, sum(blocks[i:j + 1]))
            deg = sum(1 for (bu, bw) in live if i <= bu <= j or i <= bw <= j)
            got = memo[i, j] = (None if approx is None else approx.bit_count(), deg)
        return got

    def runs(cuts: int) -> list[tuple[int, int]]:
        out, first = [], 0
        for i in range(len(blocks) - 1):
            if cuts >> i & 1:
                out.append((first, i))
                first = i + 1
        return out + [(first, len(blocks) - 1)]

    def parts(cuts: int) -> list[frozenset]:
        return [frozenset(vs(sum(blocks[i:j + 1]))) for (i, j) in runs(cuts)]

    greedy, first = 0, 0
    for i in range(len(blocks) - 1):
        size, deg = windows(first, i)
        if size is None or size >= profile.part_fvs_f or deg >= profile.part_degree_d:
            greedy |= 1 << i
            first = i + 1
    return parts, runs, windows, greedy


def partition_parts(inst: CfvsInstance, profile: ConstantsProfile) -> list[frozenset]:
    """Greedy split of the blocks into consecutive runs, cutting whenever
    the run's feedback-vertex-set size (via the 4-approximation, run with
    budget ``part_fvs_f``) or its live constraint-edge incidence reaches the
    respective window.  The final run may satisfy neither window.  The stage
    predicates are not checked here; :func:`stage_decoupled` checks them."""
    parts, _, _, greedy = _split_search(inst, profile)
    return parts(greedy)


def find_decoupling(inst: CfvsInstance, profile: ConstantsProfile) -> list[frozenset] | None:
    """A consecutive-block partition witnessing decoupling, or None: at most
    max(1, k // part_fvs_f) parts, no short conflict back edge outside F cut,
    and every part inside its feedback-vertex-set or constraint-edge window.

    The greedy split of :func:`partition_parts` is tried first, then every
    other split in cut-mask order; that search is skipped when 2^(blocks-1)
    exceeds the family cap, and the greedy split then decides alone.

    That search spends nothing on a ``CapMeter``, unlike every other bounded
    enumeration.  It only looks for a witness beyond the greedy split, so
    skipping it costs completeness and nothing else; spending on a meter
    would turn each skip into a FamilyCapExceeded diagnostic, which changes
    the cascade's outputs.
    """
    return _decoupling(inst, profile, _split_search(inst, profile))


def _decoupling(inst: CfvsInstance, profile: ConstantsProfile,
                search) -> list[frozenset] | None:
    """:func:`find_decoupling` from ``search``, the :func:`_split_search`
    of ``inst`` or of an instance with the same view, live F and k."""
    parts, runs, windows, greedy = search
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

    splits = 2 ** (len(inst.view.blocks) - 1)
    others = range(splits) if splits <= profile.family_cap else ()
    for cuts in chain([greedy], (c for c in others if c != greedy)):
        if witnesses(cuts):
            return parts(cuts)
    return None


def stage_decoupled(inst: CfvsInstance, profile: ConstantsProfile) -> list[CfvsInstance]:
    """Resolve cross-part back edges: guess the subset B left uncovered,
    then branch over the sides of a minimum vertex cover D of the rest
    (each subset C of D joins the solution together with the uncovered
    neighbors of D - C).  A larger P keeps the instance regular, weakly
    coupled and matched, so children are checked only for the rest.

    The four preconditions are checked only where ``inst.holds`` does not
    already carry them.  The parent's split search gives its partition,
    and the decoupling of a child whose P is the parent's."""
    inst = _require(inst, profile, _REGULAR | _WEAK | _MATCHED | _LOW_DEGREE)
    search = _split_search(inst, profile)
    split_parts, _, _, greedy = search
    parts = split_parts(greedy)
    part_of = {v: i for i, part in enumerate(parts) for v in part}
    cross = sorted({(u, w) for (u, w, _, _) in inst.view.back
                    if part_of.get(u) != part_of.get(w)})
    cap_b = 2 * len(parts) * (2 * profile.hom_window ** 2)
    gid = inst.T.gid
    out = []
    seen: set = set()  # the P masks already tried
    meter = CapMeter("decoupling stage", profile.family_cap)
    for combo in _small_subsets(cross, cap_b, "decoupling stage", profile):
        uncovered = set(combo)
        must_hit = [e for e in cross if e not in uncovered]
        neigh: dict = {}  # vertex -> gid mask of its must_hit neighbours
        for (u, w) in must_hit:
            neigh[u] = neigh.get(u, 0) | 1 << gid(w)
            neigh[w] = neigh.get(w, 0) | 1 << gid(u)
        cover = [(1 << gid(v), neigh[v])
                 for v in sorted(min_vertex_cover(must_hit, profile.family_cap))]
        meter.spend(2 ** len(cover))
        for csize in range(len(cover) + 1):
            for chosen in combinations(cover, csize):
                picked = sum(bit for (bit, _) in chosen)
                new_p = inst.p | picked
                for (bit, nbrs) in cover:
                    if not bit & picked:
                        new_p |= nbrs
                if new_p in seen:
                    continue
                seen.add(new_p)
                child = _child(inst, profile, p=new_p, need=_LOW_DEGREE)
                if child is None:
                    continue
                split = _decoupling(child, profile, search) if new_p == inst.p \
                    else find_decoupling(child, profile)
                if split is not None:
                    out.append(child._replace(parts=tuple(split)))
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
                          for v in inst.T.vertices_of_mask(inst.m) if v in part_of)
    graph = MixedMultigraph(tournaments, undirected)
    return DfvcReduction(
        DfvcInstance(graph, forbidden, inst.k - inst.p.bit_count()), to_host)


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


def _walk(T: BipartiteTournament, k: int, profile: ConstantsProfile, family: tuple[int, ...],
          sizes: list, notes: list, records: list | None) -> Iterator[CfvsInstance]:
    """The final family in family order by a depth-first walk from the
    guesses ``family``, gid masks of T that :func:`_sized_family` admitted,
    which meets each depth of the tree in breadth-first order and builds a
    seed when it reaches it.  ``sizes`` (``[0]`` on entry) counts each
    stage's children and ``notes`` gets (stage index, diagnostic); only a
    ``records`` list, which keeps every instance alive, gets expansions.

    The walk keeps an explicit stack of child iterators, one per depth, so
    it holds no self-referring closure that would outlive it in a cycle.

    A seed whose P already exceeds k has no ``regular`` child, as
    :func:`_child` drops every child with more than k vertices in P.  When
    no records are kept and that stage cannot overflow on T, such a seed is
    only counted: its view is never built, and the trace and diagnostics
    are what expanding it would have given."""
    sizes[1:] = [0] * (len(STAGES) - 1)
    fns = (stage_regular, stage_weak, stage_matched, stage_lowblockdegree, stage_decoupled)
    # no instance of T can make the regular stage spend more than this count
    past_k = records is not None or \
        _subset_count(T.num_vertices, profile.budget_slack) > profile.family_cap
    for seed in _seeds(T, k, family, past_k):
        sizes[0] += 1
        if seed is None:
            continue
        if records is not None:
            records.append((0, "seed", None, [seed]))
        stack = [iter((seed,))]  # stack[d - 1] yields the instances at depth d
        while stack:
            inst = next(stack[-1], None)
            if inst is None:
                stack.pop()
                continue
            depth = len(stack)
            if depth == len(STAGES):
                yield inst
                continue
            try:
                children = fns[depth - 1](inst, profile)
            except (FamilyCapExceeded, PreconditionViolated) as exc:
                notes.append((depth, f"{STAGES[depth]}: {exc}"))
                continue
            sizes[depth] += len(children)
            if records is not None:
                records.append((depth, STAGES[depth], inst, children))
            stack.append(iter(children))


def _replay(sizes: list, notes: list, records: list | None, collect) -> tuple[list, list]:
    """A walk's trace and diagnostics, and its records to ``collect``, in breadth-first order."""
    for _, name, parent, children in sorted(records or (), key=lambda r: r[0]):
        collect(name, parent, children)
    return list(zip(STAGES, sizes)), [note for _, note in sorted(notes, key=lambda n: n[0])]


def run_cascade(T: BipartiteTournament, k: int, profile: ConstantsProfile,
                collect=None) -> tuple[list[CfvsInstance], list[tuple[str, int]], list[str]]:
    """Walk all six stages to the end, returning the final family, a
    per-stage size trace, and diagnostics for stages that overflowed.

    ``collect(stage_name, parent, children)`` is invoked per expansion and
    seed when given, stage by stage; parents whose expansion overflows are
    skipped (their subtree is lost, which only costs completeness).
    """
    sizes, notes, records = [0], [], None if collect is None else []
    family = _sized_family(T.num_vertices, profile, notes)
    leaves = [] if family is None else list(_walk(T, k, profile, family, sizes, notes, records))
    return (leaves, *_replay(sizes, notes, records, collect))


def pipeline_solve(T: BipartiteTournament, k: int,
                   profile: ConstantsProfile | None = None,
                   workers: int = 1, collect=None) -> PipelineResult:
    """Full composition: reduce, screen, decide, seed, cascade, endgame,
    verify.  The bounded search decides; the cascade only constructs.

    The screen packs the squares of T[survivors], the vertices the
    reduction keeps, greedily while their A-pairs are scanned, and stops at
    k + 1: more than k vertex-disjoint squares need more than k deletions,
    so the answer is no, with the trace ``(("screen", k + 1),)``, no
    diagnostics, no fallback and ``stats.nodes`` 0; the rest of the scan is
    skipped, and nothing is induced or seeded.

    An unscreened solve has scanned every A-pair, and then runs
    ``branch_solve`` on T once, on the screen's finished A-pair list.
    Hitting every square is 4-Hitting Set, which that bounded search
    decides, so its no is final: the trace is
    ``(("search", nodes),)``, with no diagnostics, no fallback and
    ``stats.nodes`` the search's nodes; nothing is induced or seeded.

    On a yes, the cascade constructs.  Seeding is sized once, before
    anything is induced: the size checks of the sample space and of the
    undeletable-set family read the survivor count alone, and the reduced
    tournament is induced only once both pass, so a solve whose seeding
    overflows induces nothing.  The endgame tries each final-family leaf as
    the depth-first walk of :func:`run_cascade` reaches it, and stops the
    walk at the first answer that verifies; the trace then counts the
    children each stage emitted before the answer, and ``stats.nodes`` is
    the number of leaves the endgame tried.  Before it reduces a leaf with
    ``to_dfvc``, it reads the leaf's packing bound off the screen's finished
    A-pair list: squares and triangle pieces of T[survivors] that miss the
    leaf's P (:func:`solvers._pieces`).  An answer contains P and hits all
    of them, so a leaf that carries its split and whose packing needs more
    than the k - |P| deletions it has left cannot answer; it is skipped
    unreduced and still counts as tried.  Every
    candidate is re-verified on T, so a yes is always a real feedback vertex
    set of size at most k whatever the profile.  When the cascade yields
    nothing usable, the search's own answer is the fallback answer, with the
    cascade's trace and diagnostics and the search's node count; the search
    does not run again.

    The search runs in one thread; ``workers`` must be 1 (ValueError
    otherwise).  ``collect`` sees the cascade's expansions as in
    :func:`run_cascade`, up to where the walk stopped.
    """
    if workers != 1:
        raise ValueError(f"pipeline_solve runs one worker, got workers={workers}")
    if profile is None:
        profile = ConstantsProfile.for_budget(max(k, 0))
    t0 = time.perf_counter()
    if k < 0:
        return PipelineResult(SolveStatus.NO_SOLUTION, None,
                              SolveStats(0, _ms(t0)), (), (), False)
    alive = _survivors(T, k)
    if not alive:
        # reduction removed everything: the input was square-free
        return PipelineResult(SolveStatus.SOLUTION, frozenset(),
                              SolveStats(0, _ms(t0)), (("reduce", 0),), (), False)
    groups = _PairGroups()
    # the greedy square packing, read while the A-pairs are scanned
    count = _pieces(_a_pair_scan(T, alive, groups), 0, k, 0)
    if count > k:  # k + 1 vertex-disjoint squares, each needing its own deletion
        return PipelineResult(SolveStatus.NO_SOLUTION, None, SolveStats(0, _ms(t0)),
                              (("screen", count),), (), False)
    # the screen reached the scan's end, so groups is _pair_groups(T, alive)
    search = branch_solve(T, Constraints(budget=k), groups=groups)
    if not search.found:
        return PipelineResult(SolveStatus.NO_SOLUTION, None,
                              SolveStats(search.stats.nodes, _ms(t0)),
                              (("search", search.stats.nodes),), (), False)
    sizes, notes, records = [0], [], None if collect is None else []
    family = _sized_family(alive.bit_count(), profile, notes)  # before anything is induced
    leaves = ()
    if family is not None:
        red = reduce_instance(T, k)
        leaves = _walk(red.tournament, k, profile, family, sizes, notes, records)
    for tried, child in enumerate(leaves, 1):
        left = k - child.p.bit_count()
        if child.parts and _pieces(groups, T.mask_of(red.to_host[v] for v in child.P), left) > left:
            continue  # the packing of T[alive] - P needs more than the deletions left
        try:
            reduction = to_dfvc(child, profile)
        except (PreconditionViolated, FamilyCapExceeded) as exc:
            notes.append((len(STAGES), f"endgame: {exc}"))
            continue
        res = dfvc_solve(reduction.instance)
        if not res.found:
            continue
        lifted_work = child.P | {reduction.to_host[gv] for gv in res.solution}
        lifted = frozenset(red.to_host[v] for v in lifted_work)
        if len(lifted) <= k and verify_fvs(T, lifted):
            trace, diagnostics = _replay(sizes, notes, records, collect)
            return PipelineResult(SolveStatus.SOLUTION, lifted, SolveStats(tried, _ms(t0)),
                                  tuple(trace), tuple(diagnostics), False)

    trace, diagnostics = _replay(sizes, notes, records, collect)
    return PipelineResult(search.status, search.solution,
                          SolveStats(search.stats.nodes, _ms(t0)),
                          tuple(trace), tuple(diagnostics), True)
