from __future__ import annotations

import collections
import dataclasses
import functools
import gc
import hashlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btfvs import msequence, pipeline, solvers, structure
from btfvs.cli import main
from btfvs.dfvc import dfvc_solve
from btfvs.errors import CapMeter, FamilyCapExceeded, NotMConsistent, PreconditionViolated
from btfvs.generators import GenKind, GenSpec, SplitMix64, generate
from btfvs.graph import BipartiteTournament
from btfvs.matching import max_bipartite_matching
from btfvs.io import serialize_cfvs, serialize_instance
from btfvs.msequence import BackEdge, back_edges, is_conflict_back_edge, m_sequence
from btfvs.pipeline import (STAGES, CfvsInstance, ConstantsProfile,
                            derive_forced_p, find_decoupling, is_low_block_degree,
                            is_m_homogeneous, is_matched, is_regular,
                            is_weakly_coupled, long_back,
                            matched_branching, partition_parts,
                            short_back_large,
                            pipeline_solve, run_cascade, seed_instances,
                            stage_decoupled, stage_regular, stage_weak,
                            to_dfvc)
from btfvs.reference import (brute_squares, dfs_has_cycle, low_block_degree_ref, matched_ref,
                             regular_ref, weakly_coupled_ref, window_property_brute)
from btfvs.samplespace import twise_space, twise_space_size
from btfvs.solvers import (Constraints, SolveResult, SolveStats, SolveStatus, branch_solve,
                           exact_min_fvs, oracle_min_fvs, verify_fvs)
from btfvs.structure import is_acyclic

from conftest import a, b, tournament

TOY = ConstantsProfile.toy()


def seeded_cfvs(seed: int, max_side=4, k=3):
    """A CFVS instance with nonempty M derived from a random tournament."""
    rng = SplitMix64(seed)
    m = 2 + rng.below(max_side - 1)
    n = 2 + rng.below(max_side - 1)
    T = generate(GenSpec(m, n, GenKind.UNIFORM_RANDOM, seed=seed))
    from btfvs.solvers import exact_min_fvs
    H = exact_min_fvs(T)
    rest = sorted(set(T.vertices()) - H)
    if not rest:
        return None
    M = frozenset(rng.sample(rest, 1 + rng.below(len(rest))))
    if not is_acyclic(T, M):
        return None
    P = derive_forced_p(T, M)
    return CfvsInstance(T, M, P, frozenset(), k)


def cfvs_solution(inst: CfvsInstance):
    res = oracle_min_fvs(inst.T, inst.constraints())
    return res.solution if res.found else None


class TestProfile:
    def test_default_constants_grow(self):
        p = ConstantsProfile.for_budget(64)
        assert p.hom_window == 10 * 6 ** 3
        assert p.large_ratio == 10 * 6 ** 5
        assert p.sample_q == 36

    def test_paper_profile_built_once_per_budget(self):
        p = ConstantsProfile.for_budget(7)
        assert ConstantsProfile.for_budget(7) is p
        lg = 3  # ceil(log2 7)
        assert p == ConstantsProfile(
            hom_window=10 * lg ** 3, large_ratio=10 * lg ** 5, weak_matching=201 * lg ** 8,
            block_degree=201 * lg ** 10, part_fvs_f=201 * lg ** 12,
            part_degree_d=201 * lg ** 12, budget_slack=max(1, 14 // lg ** 2),
            sample_q=lg ** 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.hom_window = 1

    def test_all_fields_positive(self):
        with pytest.raises(ValueError):
            ConstantsProfile.toy()._replace if False else ConstantsProfile(
                hom_window=0, large_ratio=1, weak_matching=1, block_degree=1,
                part_fvs_f=1, part_degree_d=1, budget_slack=1, sample_q=2)


def _m_family(T, profile):
    """The undeletable-set guesses of T as vertex sets, in family order."""
    return [frozenset(T.vertices_of_mask(m)) for m in pipeline._m_masks(T.num_vertices, profile)]


class TestMFamily:
    def test_no_exemptions(self):
        T = generate(GenSpec(2, 2, GenKind.UNIFORM_RANDOM, seed=4))
        prof = ConstantsProfile(hom_window=1, large_ratio=3, weak_matching=2,
                                block_degree=3, part_fvs_f=1, part_degree_d=2,
                                budget_slack=1, sample_q=2)
        fam = _m_family(T, prof)
        # slack 1 still allows the bare selections; all must be present
        space_size = twise_space_size(4, 1, 2)
        assert len(fam) <= space_size * (1 + 4)
        assert all(isinstance(s, frozenset) for s in fam)

    def test_family_size_recount(self):
        from itertools import combinations
        from btfvs.samplespace import twise_space
        T = generate(GenSpec(3, 3, GenKind.UNIFORM_RANDOM, seed=5))
        prof = ConstantsProfile(hom_window=2, large_ratio=3, weak_matching=2,
                                block_degree=3, part_fvs_f=1, part_degree_d=2,
                                budget_slack=1, sample_q=2)
        fam = _m_family(T, prof)
        space = twise_space(6, 2, 2)
        verts = T.vertices()
        expect = set()
        for f in space.functions:
            z = frozenset(verts[i] for i in range(6) if f[i] == 1)
            expect.add(z)
            for r in range(min(1, len(z)) + 1):
                for combo in combinations(sorted(z), r):
                    expect.add(z - frozenset(combo))
        assert set(fam) == expect

    def test_cap_exceeded(self):
        T = generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=6))
        prof = ConstantsProfile(hom_window=3, large_ratio=3, weak_matching=2,
                                block_degree=3, part_fvs_f=1, part_degree_d=2,
                                budget_slack=1, sample_q=2, family_cap=10)
        with pytest.raises(FamilyCapExceeded) as exc:
            pipeline._m_masks(T.num_vertices, prof)
        assert exc.value.would_be > 10

    def test_sample_space_built_once(self):
        # the space depends only on (n, t, q): every solve with the same
        # reduced size and profile shares one object
        assert twise_space(9, 2, 2) is twise_space(9, 2, 2)

    def test_deterministic(self):
        T = generate(GenSpec(3, 2, GenKind.UNIFORM_RANDOM, seed=7))
        assert _m_family(T, TOY) == _m_family(T, TOY)

    def test_order_is_first_occurrence(self):
        # selection by selection, exemption subsets by size and each size in
        # combinations order over the sorted selection, each set at its
        # first occurrence
        from itertools import combinations
        for m, n, slack in ((3, 3, 1), (4, 3, 2), (2, 4, 3)):
            T = generate(GenSpec(m, n, GenKind.UNIFORM_RANDOM, seed=m + n))
            prof = dataclasses.replace(TOY, budget_slack=slack)
            verts = T.vertices()
            expect = []
            for f in twise_space(m + n, TOY.hom_window, 2).functions:
                z = frozenset(verts[i] for i in range(m + n) if f[i] == 1)
                for r in range(min(slack, len(z)) + 1):
                    for combo in combinations(sorted(z), r):
                        if z - frozenset(combo) not in expect:
                            expect.append(z - frozenset(combo))
            assert _m_family(T, prof) == expect

    def test_cold_caches_give_the_warm_sequence(self):
        T = generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=8))
        warm = _m_family(T, TOY)
        for cached in (twise_space, pipeline._selections, pipeline._exempted):
            cached.cache_clear()
        assert _m_family(T, TOY) == warm

    def test_warm_shape_still_checks_the_callers_cap(self):
        # the selections of this shape are cached by the first call; a
        # smaller cap still raises, with the count and message it always had
        T = generate(GenSpec(3, 4, GenKind.UNIFORM_RANDOM, seed=3))
        prof = dataclasses.replace(TOY, hom_window=1)
        assert len(_m_family(T, prof)) == 9
        with pytest.raises(FamilyCapExceeded) as exc:
            pipeline._m_masks(T.num_vertices, dataclasses.replace(prof, family_cap=10))
        assert exc.value.would_be == 36
        assert str(exc.value) == "undeletable-set family: family of size >= 36 exceeds cap 10"


class TestHomogeneity:
    def test_everything_in_m(self):
        T = generate(GenSpec(3, 3, GenKind.UNIFORM_RANDOM, seed=8))
        H = next(iter([frozenset()] if is_acyclic(T) else
                      [oracle_min_fvs(T).solution]))
        M = frozenset(set(T.vertices()) - H)
        assert is_m_homogeneous(T, M, H, window=1)

    def test_empty_m_fails_small_window(self):
        T = generate(GenSpec(3, 3, GenKind.ACYCLIC, seed=9))
        assert not is_m_homogeneous(T, frozenset(), frozenset(), window=2)

    def test_agrees_with_bruteforce_over_sorts(self):
        checked = 0
        for seed in range(60):
            T = generate(GenSpec(3, 3, GenKind.UNIFORM_RANDOM, seed=seed + 30))
            res = oracle_min_fvs(T)
            H = res.solution
            if T.num_vertices - len(H) > 7:
                pass  # brute force stays cheap anyway at 3x3
            rng = SplitMix64(seed)
            rest = sorted(set(T.vertices()) - H)
            if not rest:
                continue
            M = frozenset(v for v in rest if rng.coin())
            for window in (1, 2, 3):
                got = is_m_homogeneous(T, M, H, window)
                want = window_property_brute(T, M, H, window)
                assert got == want, (seed, window)
                checked += 1
        assert checked > 100


class TestSeeding:
    def test_seeds_are_valid_instances(self):
        T = generate(GenSpec(3, 3, GenKind.UNIFORM_RANDOM, seed=11))
        for inst in seed_instances(T, 3, TOY):
            assert inst.M
            assert is_acyclic(inst.T, inst.M)
            assert not (inst.M & inst.P)
            # forced set is exactly the cycle-closers
            assert inst.P == derive_forced_p(T, inst.M)

    def test_forced_p_examples(self, square_2x2):
        M = frozenset({a(0), b(0), a(1)})
        assert derive_forced_p(square_2x2, M) == frozenset({b(1)})
        T = generate(GenSpec(3, 3, GenKind.ACYCLIC, seed=12))
        assert derive_forced_p(T, frozenset(T.vertices()[:2])) == frozenset()

    def test_forced_p_matches_per_vertex_oracle(self):
        for seed in range(30):
            T = generate(GenSpec(3, 3, GenKind.UNIFORM_RANDOM, seed=seed + 60))
            rng = SplitMix64(seed)
            M = frozenset(v for v in T.vertices() if rng.coin())
            if not is_acyclic(T, M):
                continue
            got = derive_forced_p(T, M)
            want = {v for v in T.vertices()
                    if v not in M and not is_acyclic(T, M | {v})}
            assert got == want
        # the closers come from a square test on adjacency masks, so check
        # them against plain DFS cycle detection, which neither peels nor
        # looks for squares; M keeps about 3/4 of the complement of a
        # minimum solution (so T[M] is acyclic) or of all of V (so T[M] may
        # be cyclic, and then every vertex outside M closes a cycle)
        closing = cyclic = 0
        for seed in range(80):
            rng = SplitMix64(seed + 500)
            m, n = 3 + rng.below(4), 3 + rng.below(4)
            spec = GenSpec(m, n, GenKind.UNIFORM_RANDOM, seed=seed) if seed % 2 else \
                GenSpec(m, n, GenKind.PLANTED_FVS, seed=seed, k_plant=1 + rng.below(3))
            T = generate(spec)
            pool = sorted(set(T.vertices()) - exact_min_fvs(T)) if seed % 4 < 2 \
                else T.vertices()
            M = frozenset(v for v in pool if rng.below(4))
            got = derive_forced_p(T, M)
            want = {v for v in T.vertices() if v not in M and dfs_has_cycle(T, M | {v})}
            assert got == want, (spec, sorted(M))
            closing += bool(want) and not dfs_has_cycle(T, M)
            cyclic += dfs_has_cycle(T, M)
        assert closing >= 30 and cyclic >= 10


class TestPredicates:
    def test_regular_when_m_covers_everything(self):
        for seed in range(20):
            inst = seeded_cfvs(seed)
            if inst is None:
                continue
            full = CfvsInstance(inst.T, frozenset(set(inst.T.vertices()) - inst.P),
                                inst.P, frozenset(), inst.k) \
                if is_acyclic(inst.T, set(inst.T.vertices()) - inst.P) else None
            if full is not None:
                assert is_regular(full, TOY)

    def test_regular_checker_agreement(self):
        # second implementation straight from the definition text
        for seed in range(40):
            inst = seeded_cfvs(seed)
            if inst is None:
                continue
            live = inst.T.remove(inst.P)
            m_live = frozenset(live.from_host[v] for v in inst.M)
            seq = m_sequence(live.tournament, m_live)
            ratio = TOY.large_ratio
            expected = True
            for (x, y) in seq.blocks:
                if len(x) >= ratio:
                    m_i = len(x & m_live)
                    if m_i < len(x) / ratio:
                        expected = False
                if len(y) > ratio:
                    expected = False
            assert is_regular(inst, TOY) == expected

    def test_matched_predicate(self):
        for seed in range(40):
            inst = seeded_cfvs(seed)
            if inst is None:
                continue
            live_f = inst.live_f()
            seen = set()
            ok = True
            for (u, w) in live_f:
                if u in seen or w in seen:
                    ok = False
                seen.update((u, w))
            assert is_matched(inst) == ok


class TestStageRegular:
    def test_children_are_regular_and_supersets(self):
        for seed in range(40):
            inst = seeded_cfvs(seed)
            if inst is None:
                continue
            try:
                children = stage_regular(inst, TOY)
            except FamilyCapExceeded:
                continue
            for child in children:
                assert is_regular(child, TOY)
                assert child.P >= inst.P
                assert child.M == inst.M
                assert not (child.P & child.M)

    def test_backward_direction(self):
        # any child solution solves the parent
        for seed in range(40):
            inst = seeded_cfvs(seed)
            if inst is None:
                continue
            try:
                children = stage_regular(inst, TOY)
            except FamilyCapExceeded:
                continue
            for child in children[:4]:
                sol = cfvs_solution(child)
                if sol is not None:
                    assert inst.is_solution(sol)


class TestStageWeak:
    def test_children_weakly_coupled_and_cover_parent_f(self):
        for seed in range(40):
            inst = seeded_cfvs(seed)
            if inst is None:
                continue
            try:
                regs = stage_regular(inst, TOY)
            except FamilyCapExceeded:
                continue
            for parent in regs[:3]:
                try:
                    children = stage_weak(parent, TOY)
                except FamilyCapExceeded:
                    continue
                for child in children:
                    assert is_weakly_coupled(child, TOY)
                    assert child.F >= parent.F
                    assert child.F >= long_back(parent)


def _short_pairs(inst, exclude=frozenset()):
    """The short back edges outside ``exclude``, one arc list per block pair."""
    by_pair: dict = {}
    for e in inst.view.back:
        if e.tail_block - e.head_block == 1 and (e.tail, e.head) not in exclude:
            by_pair.setdefault(e.head_block, []).append((e.tail, e.head))
    return list(by_pair.values())


class TestMatchingBound:
    """A block pair's matching is never larger than its number of tails or
    of heads, so the predicates skip the matching when that bound decides;
    on random short back-edge sets they must decide as a checker that
    always matches."""

    @pytest.mark.parametrize("wm", [1, 2, 3, 4])
    def test_bounded_predicates_decide_as_the_matching(self, wm):
        profile = dataclasses.replace(TOY, weak_matching=wm)
        T = generate(GenSpec(6, 6, GenKind.UNIFORM_RANDOM, seed=wm))
        base = CfvsInstance(T, {a(0)}, {b(0)}, (), 3)
        rng = SplitMix64(wm)
        by_bound = by_matching = 0
        for _ in range(150):
            back = []
            for j in range(3):  # the pair of blocks j + 1 -> j
                tails, heads = (T.a_vertices(), T.b_vertices()) if rng.coin() else \
                    (T.b_vertices(), T.a_vertices())
                tails = rng.sample(tails, 1 + rng.below(4))
                heads = rng.sample(heads, 1 + rng.below(4))
                back += [BackEdge(u, w, j + 1, j) for u in tails for w in heads if rng.coin()]
            if rng.coin():
                back.append(BackEdge(a(5), b(5), 3, 0))  # a long back edge
            arcs = [(e.tail, e.head) for e in back]
            F = frozenset(e for e in arcs if rng.below(4) == 0)
            inst = base._replace(F=F, view=base.view._replace(back=tuple(back),
                                                              conflict=frozenset(arcs)))
            for es in _short_pairs(inst):
                bound = min(len({u for u, _ in es}), len({w for _, w in es}))
                by_bound += bound <= wm
                by_matching += wm <= bound and len(max_bipartite_matching(es)) < bound
            want_large = frozenset(e for es in _short_pairs(inst)
                                   if len(max_bipartite_matching(es)) >= wm for e in es)
            assert short_back_large(inst, profile) == want_large
            want_weak = (inst.live_f() <= inst.view.conflict
                         and long_back(inst) <= inst.F
                         and all(len(max_bipartite_matching(es)) <= wm
                                 for es in _short_pairs(inst, inst.F)))
            assert is_weakly_coupled(inst, profile) == want_weak
        assert by_bound > 0 and by_matching > 0


class TestMatchedBranching:
    def path_edges(self, length: int):
        # alternating path a0-b0-a1-b1-...
        out = []
        for i in range(length):
            out.append((a(i // 2 + i % 2), b(i // 2)) if i % 2 else
                       (a(i // 2), b(i // 2)))
        return out

    def star_edges(self, degree: int):
        return [(a(0), b(j)) for j in range(degree)]

    def test_star_two_leaves(self):
        leaves = matched_branching(self.star_edges(4), budget=10)
        # center in, or all leaves in
        assert frozenset({a(0)}) in leaves
        assert frozenset({b(j) for j in range(4)}) in leaves
        assert len(leaves) == 2

    def test_leaves_leave_matchings(self):
        for seed in range(30):
            T = generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=seed))
            arcs = T.arcs()
            rng = SplitMix64(seed)
            edges = {arcs[rng.below(len(arcs))] for _ in range(6)}
            for added in matched_branching(list(edges), budget=8):
                residual = [e for e in edges if not (set(e) & added)]
                seen = set()
                for (u, w) in residual:
                    assert u not in seen and w not in seen
                    seen.update((u, w))

    def test_fibonacci_bound_star_path_random(self):
        def fib(n):
            x, y = 0, 1
            for _ in range(n):
                x, y = y, x + y
            return x

        cases = [self.star_edges(5), self.path_edges(8)]
        for seed in range(20):
            T = generate(GenSpec(5, 5, GenKind.UNIFORM_RANDOM, seed=seed + 100))
            arcs = T.arcs()
            rng = SplitMix64(seed)
            cases.append(list({arcs[rng.below(len(arcs))] for _ in range(8)}))
        for edges in cases:
            leaves = matched_branching(edges, budget=20)
            by_cost: dict = {}
            for added in leaves:
                by_cost[len(added)] = by_cost.get(len(added), 0) + 1
            for s, count in by_cost.items():
                assert count <= fib(s + 2), (s, count, edges)

    def test_deep_branching_meets_the_cap_not_the_stack(self):
        # a_i - b_i and b_i - a_(i+1): "v joins" fits the budget all the
        # way down, so the first branch runs about 1,200 levels deep
        edges = [e for i in range(1200) for e in ((a(i), b(i)), (b(i), a(i + 1)))]
        with pytest.raises(FamilyCapExceeded) as exc:
            matched_branching(edges, budget=1200, cap=1001)
        assert exc.value.would_be == 1002

    def test_leaves_no_cyclic_garbage(self):
        import gc
        gc.collect()
        gc.disable()
        try:
            leaves = matched_branching(self.path_edges(8), budget=20)
            assert leaves and gc.collect() == 0
        finally:
            gc.enable()

    def test_visits_as_recounting_every_degree(self):
        # the same leaves in the same order, or the same overflow, as a
        # visit that recounts every degree and sorts every heavy vertex, on
        # random arcs over 5 + 5 vertices with random budgets and caps
        rng = SplitMix64(11)
        outcomes = collections.Counter()
        for _ in range(600):
            arcs = sorted({(a(rng.below(5)), b(rng.below(5))) if rng.below(2)
                           else (b(rng.below(5)), a(rng.below(5)))
                           for _ in range(rng.below(16))})
            budget = rng.below(11) - 1
            cap = None if rng.below(3) == 0 else 1 + rng.below(40)

            def outcome(branching):
                try:
                    return branching(arcs, budget, cap)
                except FamilyCapExceeded as exc:
                    return str(exc), exc.would_be

            got = outcome(matched_branching)
            assert got == outcome(_recounting_branching), (arcs, budget, cap)
            outcomes["overflow" if isinstance(got, tuple) else "leaves" if got else "none"] += 1
        assert len(outcomes) == 3 and min(outcomes.values()) > 20, outcomes


def _recounting_branching(edges, budget, cap=None):
    """matched_branching written as a visit that counts every degree and
    sorts every vertex: the greedy bound, the degrees and each child's
    edges in passes of their own."""
    edges = sorted(set(tuple(e) for e in edges))
    leaves = []
    meter = CapMeter("conflict branching", cap)

    def residual_lower_bound(es):
        used, count = set(), 0
        for (u, w) in es:
            if u in used or w in used:
                continue
            used.update((u, w))
            count += 1
        return count

    stack = [(edges, frozenset(), budget)]
    while stack:
        es, added, left = stack.pop()
        meter.spend()
        if left < 0 or residual_lower_bound(es) > left:
            continue
        deg: dict = {}
        for (u, w) in es:
            deg[u] = deg.get(u, 0) + 1
            deg[w] = deg.get(w, 0) + 1
        heavy = sorted(v for v, d in deg.items() if d >= 2)
        if not heavy:
            leaves.append(added)
            continue
        v = heavy[0]
        nbrs = frozenset(u if w == v else w for (u, w) in es if v in (u, w))
        stack.append(([e for e in es if not (set(e) & nbrs)], added | nbrs, left - len(nbrs)))
        stack.append(([e for e in es if v not in e], added | {v}, left - 1))
    return leaves


class TestCascade:
    def test_stage_children_keep_backward_direction(self):
        # every stage: a child solution, when one exists, solves the parent
        violations = 0
        runs = 0
        for seed in range(25):
            T = generate(GenSpec(2 + seed % 3, 2 + (seed // 2) % 3,
                                 GenKind.UNIFORM_RANDOM, seed=seed + 200))
            pairs = []

            def collect(stage, parent, children):
                if parent is not None:
                    pairs.extend((stage, parent, c) for c in children)

            family, trace, diags = run_cascade(T, 3, TOY, collect=collect)
            runs += 1
            for stage, parent, child in pairs[:40]:
                sol = cfvs_solution(child)
                if sol is None:
                    continue
                if not parent.is_solution(sol):
                    violations += 1
        assert runs == 25
        assert violations == 0

    def test_seed_children_solve_the_plain_question(self):
        for seed in range(15):
            T = generate(GenSpec(3, 3, GenKind.UNIFORM_RANDOM, seed=seed + 300))
            k = 3
            for inst in seed_instances(T, k, TOY)[:20]:
                sol = cfvs_solution(inst)
                if sol is not None:
                    assert verify_fvs(T, sol) and len(sol) <= k


def _family_digests(T, k):
    """Per stage of run_cascade: (child count, digest of the sorted
    (P, F) label pairs of all children)."""
    stages: dict = {}

    def collect(stage, parent, children):
        stages.setdefault(stage, []).extend(
            (tuple(sorted(T.label(v) for v in c.P)),
             tuple(sorted((T.label(u), T.label(w)) for (u, w) in c.F)))
            for c in children)

    run_cascade(T, k, TOY, collect=collect)
    return {stage: (len(labels),
                    hashlib.sha256(repr(sorted(labels)).encode()).hexdigest()[:16])
            for stage, labels in stages.items()}


class TestFamiliesPinned:
    """The cascade's families, pinned to values recorded before the block
    structure was cached on the instance; any change to a stage's output
    shows here."""

    @pytest.mark.parametrize("spec, k, want", [
        (GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2), 2, {
            "seed": (121, "90678a20d98db436"), "regular": (107, "fde854506ebe4615"),
            "weak": (107, "802afc5093c78303"), "matched": (98, "3f545e0990148f71"),
            "lowblockdegree": (96, "2039a61871afd808"),
            "decoupled": (93, "55f3909de6627e60")}),
        (GenSpec(5, 5, GenKind.UNIFORM_RANDOM, seed=1), 2, {
            "seed": (155, "021577d2438027d0"), "regular": (73, "2705bac067b4eae7"),
            "weak": (78, "70a156abbd16b0da"), "matched": (62, "8ec78e8e9f3e4fa9"),
            "lowblockdegree": (62, "8ec78e8e9f3e4fa9"),
            "decoupled": (66, "c074c70b090860c0")}),
        (GenSpec(4, 5, GenKind.PLANTED_FVS, seed=2, k_plant=2), 2, {
            "seed": (143, "39aa2e2b227080b2"), "regular": (130, "860d48e75031eb39"),
            "weak": (142, "1fcc53f1ec0dedef"), "matched": (143, "1ad06966418cb747"),
            "lowblockdegree": (140, "b8d50695cf893a70"),
            "decoupled": (95, "63e424e5ddc67fce")}),
        (GenSpec(5, 5, GenKind.PLANTED_FVS, seed=5, k_plant=2), 1, {
            "seed": (160, "1131c69a7ab603b6"), "regular": (38, "ef9d2f6354d657a4"),
            "weak": (38, "456fd37b49715b08"), "matched": (19, "6bdfe600576f4204"),
            "lowblockdegree": (19, "6bdfe600576f4204"),
            "decoupled": (19, "7876eb22e68cecad")}),
    ])
    def test_stage_families_unchanged(self, spec, k, want):
        assert _family_digests(generate(spec), k) == want


def _endgame_digest(T, k):
    """(count, digest) of the to_dfvc reductions of run_cascade's final
    family, in family order: each part's sorted host labels, the undirected
    edges and the forbidden set in host labels, and the budget."""
    family, _, _ = run_cascade(T, k, TOY)
    records = []
    for child in family:
        red = to_dfvc(child, TOY)
        d = red.instance

        def label(gv):
            return T.label(red.to_host[gv])

        records.append((
            tuple(tuple(sorted(label((i, v)) for v in part.vertices()))
                  for i, part in enumerate(d.graph.parts)),
            tuple((label(x), label(y)) for (x, y) in d.graph.undirected),
            tuple(sorted(label(gv) for gv in d.forbidden)),
            d.budget))
    return len(records), hashlib.sha256(repr(records).encode()).hexdigest()[:16]


class TestEndgamePinned:
    """The split each final-family instance is reduced with, pinned to
    values recorded before the split search was merged; a different
    decoupling witness shows here even when the families do not change."""

    @pytest.mark.parametrize("spec, k, want", [
        (GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2), 2, (93, "faa99eb34b8a8870")),
        (GenSpec(5, 5, GenKind.UNIFORM_RANDOM, seed=1), 2, (66, "ce2e27ff80ce709d")),
        (GenSpec(4, 5, GenKind.PLANTED_FVS, seed=2, k_plant=2), 2,
         (95, "8545e639126187b5")),
        (GenSpec(5, 5, GenKind.PLANTED_FVS, seed=5, k_plant=2), 1,
         (19, "e4bb0b7ec37c0817")),
    ])
    def test_final_family_reductions_unchanged(self, spec, k, want):
        assert _endgame_digest(generate(spec), k) == want


class TestCascadePinned:
    """Every output field of pipeline_solve under the toy profile (all but
    the wall time), pinned over uniform, planted and twin-heavy instances at
    4-6 per side with k in {opt - 1, opt}, to values recorded before M and P
    became gid masks, with the search node counts re-recorded when the
    search's bound gained triangle pieces; any drift in an answer, node
    count, trace or diagnostic shows here."""

    @staticmethod
    def specs():
        for seed in range(12):
            m, n = 4 + seed % 3, 4 + (seed // 3) % 3
            yield GenSpec(m, n, GenKind.UNIFORM_RANDOM, seed=seed)
            yield GenSpec(m, n, GenKind.PLANTED_FVS, seed=seed, k_plant=2 + seed % 2)
            yield GenSpec(m, n, GenKind.TWIN_HEAVY, seed=seed, twin_a=2, twin_b=1 + seed % 2)

    def test_every_field_unchanged(self):
        rows = []
        for spec in self.specs():
            T = generate(spec)
            opt = len(exact_min_fvs(T))
            if not opt:
                continue
            for k in (opt - 1, opt):
                res = pipeline_solve(T, k, TOY)
                rows.append((res.status.name,
                             None if res.solution is None else sorted(map(T.label, res.solution)),
                             res.stats.nodes, res.trace, res.diagnostics, res.used_fallback))
        by_cascade = sum(r[0] == "SOLUTION" and r[3][0][0] == "seed" for r in rows)
        assert (len(rows), by_cascade) == (56, 28)
        assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == "ce6d9614a577d85c"


def _breadth_first(T, k, profile):
    """The cascade run stage by stage over whole families through the
    public stage functions, as an independent reference for run_cascade's
    depth-first walk: (final family, trace, diagnostics, and the
    (stage, parent, child) triples its collect calls pass)."""
    try:
        family = seed_instances(T, k, profile)
    except FamilyCapExceeded as exc:
        return [], [("seed", 0)], [str(exc)], []
    pairs = [("seed", None, seed) for seed in family]
    trace, diagnostics = [("seed", len(family))], []
    for name in STAGES[1:]:
        nxt = []
        for parent in family:
            try:
                children = getattr(pipeline, f"stage_{name}")(parent, profile)
            except (FamilyCapExceeded, PreconditionViolated) as exc:
                diagnostics.append(f"{name}: {exc}")
                continue
            pairs.extend((name, parent, child) for child in children)
            nxt.extend(children)
        family = nxt
        trace.append((name, len(family)))
    return family, trace, diagnostics, pairs


def _walked(T, k, profile):
    """run_cascade's (final family, trace, diagnostics, collected triples)."""
    pairs = []

    def collect(stage, parent, children):
        pairs.extend((stage, parent, child) for child in children)

    family, trace, diagnostics = run_cascade(T, k, profile, collect=collect)
    return family, trace, diagnostics, pairs


def _p_weight(inst):
    return sum(inst.T.gid(v) for v in inst.P)


def _ruled_out(T, k, red, leaf):
    """Does pipeline_solve's endgame rule out the final-family ``leaf`` of
    the reduction ``red`` of T at budget k: it carries its split, and the
    packing of T[survivors] minus its P, read off T's own pair table with P
    named through ``red.to_host``, needs more than the k - |P| deletions
    left?"""
    left = k - len(leaf.P)
    used = T.mask_of(red.to_host[v] for v in leaf.P)
    groups = solvers._pair_groups(T, solvers._survivors(T, k))
    return bool(leaf.parts) and solvers._pieces(groups, used, left) > left


class TestDepthFirstWalk:
    """The cascade is one depth-first walk; run to its end, it gives what a
    breadth-first run gives, and the pipeline stops it at the answer."""

    @pytest.mark.parametrize("spec, k", [
        (GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2), 2),
        (GenSpec(5, 5, GenKind.UNIFORM_RANDOM, seed=1), 2),
        (GenSpec(4, 5, GenKind.PLANTED_FVS, seed=2, k_plant=2), 2),
        (GenSpec(5, 5, GenKind.PLANTED_FVS, seed=5, k_plant=2), 1),
        (GenSpec(3, 4, GenKind.UNIFORM_RANDOM, seed=701), 1),
        (GenSpec(4, 3, GenKind.UNIFORM_RANDOM, seed=702), 3),
        (GenSpec(5, 4, GenKind.PLANTED_FVS, seed=703, k_plant=1), 1),
        (GenSpec(4, 4, GenKind.TWIN_HEAVY, seed=704, twin_a=2), 2),
    ])
    def test_matches_the_breadth_first_reference(self, spec, k):
        T = generate(spec)
        walked, reference = _walked(T, k, TOY), _breadth_first(T, k, TOY)
        assert walked == reference
        assert [c.parts for c in walked[0]] == [c.parts for c in reference[0]]
        assert walked[1][0][1] > 0

    def test_diagnostics_come_out_in_stage_order(self, monkeypatch):
        # stages that fail on some parents, chosen by the parent itself so
        # both runs fail on the same ones: the walk meets the failures
        # interleaved, yet reports them stage by stage like the reference
        for name, fails, error in (
                ("weak", lambda inst: _p_weight(inst) % 3 == 0,
                 FamilyCapExceeded("back-edge coupling stage", 1, 0)),
                ("lowblockdegree", lambda inst: _p_weight(inst) % 4 == 1,
                 PreconditionViolated("matched")),
                ("decoupled", lambda inst: _p_weight(inst) % 5 == 2,
                 FamilyCapExceeded("decoupling stage", 2, 1))):
            original = getattr(pipeline, f"stage_{name}")

            def failing(inst, profile, _original=original, _fails=fails, _error=error):
                if _fails(inst):
                    raise _error
                return _original(inst, profile)

            monkeypatch.setattr(pipeline, f"stage_{name}", failing)
        T = generate(GenSpec(4, 5, GenKind.PLANTED_FVS, seed=2, k_plant=2))
        walked, reference = _walked(T, 2, TOY), _breadth_first(T, 2, TOY)
        assert walked == reference
        stages = [d.split(":")[0] for d in walked[2]]
        assert stages == sorted(stages, key=STAGES.index)
        assert set(stages) == {"weak", "lowblockdegree", "decoupled"}

        # endgame diagnostics come after every stage's, one per leaf the
        # endgame reduces: each leaf tried but those its packing bound rules
        # out first (an instance where the bound rules out some, not all)
        def unpackable(inst, profile):
            raise PreconditionViolated("decoupled")

        monkeypatch.setattr(pipeline, "to_dfvc", unpackable)
        T = generate(GenSpec(5, 5, GenKind.UNIFORM_RANDOM, seed=25))
        res = pipeline_solve(T, 3, TOY)
        red = solvers.reduce_instance(T, 3)
        family, _, diagnostics, _ = _breadth_first(red.tournament, 3, TOY)
        reduced = [leaf for leaf in family if not _ruled_out(T, 3, red, leaf)]
        assert res.used_fallback and diagnostics and 0 < len(reduced) < len(family)
        assert list(res.diagnostics) == \
            diagnostics + ["endgame: precondition failed: decoupled"] * len(reduced)

    def test_seeding_overflow(self):
        T = generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2))
        small = dataclasses.replace(TOY, family_cap=50)
        assert _walked(T, 2, small) == _breadth_first(T, 2, small) == \
            ([], [("seed", 0)], ["sample space: family of size >= 256 exceeds cap 50"], [])

    def test_walk_stops_at_the_answer(self, monkeypatch):
        # the answering dfvc_solve is the last thing the solve runs, only
        # the seeds the walk reached built a view, and the leaves solved are
        # the leaves tried, in family order, less those the packing bound
        # rules out, which still count as tried
        T = generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2))
        red = solvers.reduce_instance(T, 2)
        seeds = seed_instances(red.tournament, 2, TOY)
        family, _, _ = run_cascade(red.tournament, 2, TOY)
        events, builds = [], []
        for name in STAGES[1:]:
            original = getattr(pipeline, f"stage_{name}")

            def stage(inst, profile, _name=name, _original=original):
                events.append(_name)
                return _original(inst, profile)

            monkeypatch.setattr(pipeline, f"stage_{name}", stage)

        def solving(instance, _original=pipeline.dfvc_solve):
            res = _original(instance)
            events.append(("dfvc_solve", res.found))
            return res

        def reducing(inst, profile, _original=pipeline.to_dfvc):
            events.append(("to_dfvc", inst))
            return _original(inst, profile)

        def building(T, m_mask, keys, alive, _original=pipeline.live_structure):
            builds.append(m_mask)
            return _original(T, m_mask, keys, alive)

        monkeypatch.setattr(pipeline, "dfvc_solve", solving)
        monkeypatch.setattr(pipeline, "to_dfvc", reducing)
        monkeypatch.setattr(pipeline, "live_structure", building)
        res = pipeline_solve(T, 2, TOY)
        monkeypatch.undo()
        assert res.found and not res.used_fallback
        assert events[-1] == ("dfvc_solve", True)
        solved = [e[1] for e in events if isinstance(e, tuple) and e[0] == "to_dfvc"]
        tried = family[:res.stats.nodes]
        assert solved == [leaf for leaf in tried if not _ruled_out(T, 2, red, leaf)]
        assert len(solved) == sum(e[0] == "dfvc_solve" for e in events if isinstance(e, tuple))
        assert 0 < len(solved) < res.stats.nodes
        assert len(builds) == dict(res.trace)["seed"] < len(seeds) == 121

    def test_walk_leaves_no_reference_cycle(self):
        # a walk stopped at the answer and one run to its end leave nothing
        # for the cycle collector: no walk function outlives its solve
        enabled, flags = gc.isenabled(), gc.get_debug()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            answered = pipeline_solve(generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2)),
                                      2, TOY)
            walked_out = pipeline_solve(generate(GenSpec(5, 5, GenKind.UNIFORM_RANDOM,
                                                         seed=25, k_plant=2)), 2, TOY)
            gc.collect()
            left = [o for o in gc.garbage if "_walk" in getattr(o, "__qualname__", "")]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert answered.found and not answered.used_fallback
        assert walked_out.found and walked_out.used_fallback
        assert left == []

    def test_emit_families_writes_the_breadth_first_files(self, tmp_path):
        # a yes-instance whose cascade answers nothing, so the walk runs to
        # its end and the fallback answers yes; the files are those a
        # breadth-first run's collect calls imply, numbered in order
        T = generate(GenSpec(5, 5, GenKind.UNIFORM_RANDOM, seed=25, k_plant=2))
        res = pipeline_solve(T, 2, TOY)
        assert res.found and res.used_fallback
        path, out = tmp_path / "inst.json", tmp_path / "families"
        path.write_text(serialize_instance(T, k=2))
        assert main(["--profile", "toy", "pipeline", str(path),
                     "--emit-families", str(out)]) == 0
        _, _, _, pairs = _breadth_first(solvers.reduce_instance(T, 2).tournament, 2, TOY)
        assert {f.name: f.read_text() for f in out.iterdir()} == \
            {f"{stage}-{i:05d}.json": serialize_cfvs(c) for i, (stage, _, c) in enumerate(pairs)}
        assert len(pairs) == 397

    def test_emit_families_writes_nothing_for_a_searched_no(self, tmp_path):
        # at k=1 the search answers no before any seeding: no file is written
        T = generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2))
        path, out = tmp_path / "inst.json", tmp_path / "families"
        path.write_text(serialize_instance(T, k=1))
        assert main(["--profile", "toy", "pipeline", str(path),
                     "--emit-families", str(out)]) == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("seed, k, found, nodes",
                             [(1, 2, False, 5), (3, 1, False, 1), (3, 2, True, 6)])
    def test_paper_profile_seeding_overflow_is_pinned(self, seed, k, found, nodes):
        # 8x8 under the paper profile: a no-instance is the search's no, in
        # its node count; on a yes-instance the up-front size check of
        # pipeline._m_masks overflows, so the walk yields nothing and the
        # search's answer is the fallback answer
        T = generate(GenSpec(8, 8, GenKind.PLANTED_FVS, seed=seed, k_plant=3))
        res = pipeline_solve(T, k)
        route = ((("seed", 0),),
                 ("sample space: family of size >= 1099511627776 exceeds cap 50000",),
                 True) if found else ((("search", nodes),), (), False)
        assert (res.found, res.stats.nodes, res.trace, res.diagnostics, res.used_fallback) == \
            (found, nodes, *route)

    def test_paper_profile_overflow_past_printable_sizes(self):
        # at k = 33 the paper profile's sample space has over 6,000 digits,
        # more than str() writes: the overflow is still the one diagnostic,
        # its size given as a power of two, and the fallback answers
        T = generate(GenSpec(30, 30, GenKind.UNIFORM_RANDOM, 1))
        res = pipeline_solve(T, 33)
        assert (res.trace, res.diagnostics, res.used_fallback) == \
            ((("seed", 0),), ("sample space: family of size >= 2**22504 exceeds cap 50000",),
             True)
        assert res.found and len(res.solution) <= 33 and verify_fvs(T, res.solution)

    def test_huge_window_is_not_sized_exactly(self):
        # a window of 10**9 would make the sample space's size a number of
        # billions of bits; it overflows past 2 ** SIZE_BITS without one
        profile = dataclasses.replace(TOY, hom_window=10 ** 9)
        T = generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=21))
        opt = len(exact_min_fvs(T))
        res = pipeline_solve(T, opt, profile)
        assert res.diagnostics == (f"sample space: family of size >= 2**{pipeline.SIZE_BITS} "
                                   f"exceeds cap {TOY.family_cap}",)
        assert res.used_fallback and res.found and len(res.solution) == opt


class TestHandBuilt:
    """An instance built without a parent is validated, and derives its
    view, when it is constructed."""

    @pytest.mark.parametrize("M, P, F, message", [
        ({a(0)}, {a(0)}, (), "overlap"),
        ({a(0)}, {a(5)}, (), "not a vertex"),
        ({b(3)}, (), (), "not a vertex"),
        ({a(0)}, (), {(b(0), a(0))}, "not an arc"),
        ({a(0)}, (), {(a(0), a(1))}, "not an arc"),
    ])
    def test_invalid_instance_rejected(self, square_2x2, M, P, F, message):
        with pytest.raises(ValueError, match=message):
            CfvsInstance(square_2x2, frozenset(M), frozenset(P), F, 1)

    def test_view_derived_at_construction(self, square_2x2):
        # a0 -> b0 -> a1 -> b1 -> a0: with b1 left in, M = {a0, b0, a1}
        # is not consistent, and construction says so
        M = frozenset({a(0), b(0), a(1)})
        with pytest.raises(NotMConsistent):
            CfvsInstance(square_2x2, M, frozenset(), frozenset(), 1)
        inst = CfvsInstance(square_2x2, M, {b(1)}, [(a(0), b(0))], 1)
        assert inst.P == {b(1)} and inst.F == {(a(0), b(0))}
        assert inst.view.m == square_2x2.mask_of(M)
        assert sum(1 << g for g, i in enumerate(inst.view.block) if i >= 0) == inst.view.m
        assert inst.parts == ()

    def test_reads_and_compares_as_vertex_sets(self):
        # M and P are held as gid masks; read back, compared and hashed,
        # the instance behaves as one built from Vertex sets
        T = generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2))
        seed = seed_instances(T, 2, TOY)[0]
        M, P = frozenset(seed.M), frozenset(seed.P)
        inst = CfvsInstance(T, list(M), set(P), [], 2)
        assert (inst.M, inst.P, inst.F, inst.k) == (M, P, frozenset(), 2)
        assert type(inst.M) is frozenset and type(inst.P) is frozenset
        assert (inst.m, inst.p) == (T.mask_of(M), T.mask_of(P))
        assert inst == seed and not inst != seed and hash(inst) == hash(seed)
        assert len({inst, seed, CfvsInstance(T, M, P, (), 2)}) == 1
        assert inst != CfvsInstance(T, M, P, (), 3) and inst != (T, M, P, frozenset(), 2)
        assert repr(inst) == (f"CfvsInstance(T={T!r}, M={M!r}, P={P!r}, "
                              f"F=frozenset(), k=2)")
        copied = pickle.loads(pickle.dumps(inst))
        assert copied == inst and copied.view == inst.view

    def test_validation_peels_m_once(self, monkeypatch):
        # the consistency check's peel of T[M] also gives the layer keys
        T = generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2))
        M = frozenset({a(0), a(1)})
        m_mask = T.mask_of(M)
        original = msequence._peel_layers_mask
        peeled = []

        def recording(tournament, alive):
            peeled.append(alive)
            return original(tournament, alive)

        monkeypatch.setattr(msequence, "_peel_layers_mask", recording)
        inst = CfvsInstance(T, M, frozenset(), frozenset(), 2)
        assert inst.view.m == m_mask and all(inst.view.block[T.gid(v)] >= 0 for v in M)
        assert peeled.count(m_mask) == 1


class TestBlockView:
    def test_view_built_at_most_once_per_instance(self, monkeypatch):
        # each seed within budget builds its view once; every stage child
        # inherits its parent's, so no other instance builds one
        builds = []
        original = pipeline.live_structure

        def counting(T, m_mask, keys, alive):
            builds.append((m_mask, alive))
            return original(T, m_mask, keys, alive)

        T = generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2))
        work = solvers.reduce_instance(T, 2).tournament
        seeds = seed_instances(work, 2, TOY)
        monkeypatch.setattr(pipeline, "live_structure", counting)
        _, trace, _ = run_cascade(work, 2, TOY)
        assert dict(trace)["decoupled"] > 0
        assert builds == [(work.mask_of(s.M), work.full_mask & ~work.mask_of(s.P))
                          for s in seeds if len(s.P) <= 2]

    def test_over_budget_seed_builds_no_view(self, monkeypatch):
        # a seed whose P already exceeds k has no regular-stage child; when
        # no records are kept and that stage cannot overflow, the walk counts
        # the seed and builds no view for it, and the trace stays the same
        built = []
        original = pipeline.live_structure

        def counting(T, m_mask, keys, alive):
            built.append((T.full_mask & ~alive).bit_count())  # |P| of the seed
            return original(T, m_mask, keys, alive)

        for spec, k in ((GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2), 2),
                        (GenSpec(5, 5, GenKind.PLANTED_FVS, seed=5, k_plant=2), 1)):
            work = solvers.reduce_instance(generate(spec), k).tournament
            seeds = seed_instances(work, k, TOY)
            over = sum(len(s.P) > k for s in seeds)
            assert over > 0
            with monkeypatch.context() as patch:
                patch.setattr(pipeline, "live_structure", counting)
                built.clear()
                _, with_records, _ = run_cascade(work, k, TOY, collect=lambda *_: None)
                assert len(built) == len(seeds)
                built.clear()
                _, trace, notes = run_cascade(work, k, TOY)
                assert all(size <= k for size in built)
                assert len(built) == len(seeds) - over
                assert (trace, notes) == (with_records, [])

    def test_over_budget_seed_keeps_its_regular_stage_overflow(self):
        # where the regular stage can overflow (11 subsets of at most one of
        # 10 vertices against a cap of 3), every seed is expanded, so a walk
        # keeping no records reports each overflow as one keeping them does
        T = solvers.reduce_instance(generate(GenSpec(5, 5, GenKind.UNIFORM_RANDOM, seed=0)),
                                    0).tournament
        family = pipeline._m_masks(T.num_vertices, TOY)
        tight = dataclasses.replace(TOY, family_cap=3)
        walks = []
        for records in (None, []):
            sizes, notes = [0], []
            list(pipeline._walk(T, 0, tight, family, sizes, notes, records))
            walks.append((sizes, notes))
        assert walks[0] == walks[1]
        assert any(note.startswith("regular: ") for _, note in walks[0][1])

    def test_seeding_scans_for_closers_once_per_seed(self, monkeypatch):
        # a seed's P holds every cycle closer, so T - P is M-consistent by
        # construction: seeding runs one closer scan per seed and never the
        # consistency check of hand-built instances
        work = solvers.reduce_instance(generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM,
                                                        seed=2)), 2).tournament
        seeds = seed_instances(work, 2, TOY)
        calls = dict.fromkeys(("cycle_closers", "_consistency"), 0)
        for name in calls:
            original = getattr(msequence, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            for mod in (msequence, pipeline):
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counting)
        _, trace, _ = run_cascade(work, 2, TOY)
        assert dict(trace)["seed"] == len(seeds) > 0
        assert calls == {"cycle_closers": len(seeds), "_consistency": 0}

    def test_view_conflict_arcs_match_the_square_test(self):
        # every view, a child's inherited one too, holds exactly the back
        # edges that is_conflict_back_edge accepts among its back edges
        family = [inst for inst in (seeded_cfvs(seed, max_side=5) for seed in range(40))
                  if inst is not None]
        for spec, k in ((GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2), 2),
                        (GenSpec(5, 5, GenKind.PLANTED_FVS, seed=5, k_plant=2), 1)):
            run_cascade(generate(spec), k, TOY,
                        collect=lambda stage, _, children: family.extend(children))
        conflicts = 0
        for inst in family:
            want = {(e.tail, e.head) for e in inst.view.back
                    if is_conflict_back_edge(inst.T, inst.M, e)}
            assert {(e.tail, e.head) for e in inst.view.back
                    if (e.tail, e.head) in inst.view.conflict} == want
            conflicts += len(want)
        assert conflicts > 0

    def test_view_matches_sub_tournament_route(self):
        # hand-built instances and every stage's instances -- seeds building
        # their own views, children inheriting theirs -- hold the partition
        # of T.remove(P), with its blocks (as host gid masks), back edges (in
        # scan order) and block indices mapped back to host vertices
        family = [("hand-built", inst) for inst in
                  (seeded_cfvs(seed, max_side=5) for seed in range(40)) if inst is not None]
        for spec, k in ((GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2), 2),
                        (GenSpec(5, 5, GenKind.PLANTED_FVS, seed=5, k_plant=2), 1),
                        (GenSpec(4, 5, GenKind.PLANTED_FVS, seed=2, k_plant=2), 2)):
            run_cascade(generate(spec), k, TOY, collect=lambda stage, _, children:
                        family.extend((stage, c) for c in children))
        checked = dict.fromkeys(("hand-built",) + STAGES, 0)
        for stage, child in family:
            T = child.T
            live = T.remove(child.P)
            seq = m_sequence(live.tournament, (live.from_host[v] for v in child.M))
            host = live.to_host
            blocks = tuple((T.mask_of(host[v] for v in x), T.mask_of(host[v] for v in y))
                           for (x, y) in seq.blocks)
            back = [(host[e.tail], host[e.head], e.tail_block, e.head_block)
                    for e in back_edges(live.tournament, seq)]
            assert child.view.m == T.mask_of(child.M)
            assert child.view.blocks == blocks
            assert [tuple(e) for e in child.view.back] == back
            assert {v: child.view.block[T.gid(v)] for v in T.vertices() if v not in child.P} \
                == {host[v]: i for i, (x, y) in enumerate(seq.blocks) for v in x | y}
            checked[stage] += 1
        assert all(checked.values()), checked


    def test_children_share_their_seeds_block_index(self):
        # a vertex's block depends only on T, M and itself, so every stage
        # child reads its seed's gid -> block tuple itself, while its own
        # blocks partition exactly the vertices outside its P
        seed_of, family = {}, []

        def collect(stage, parent, children):
            for c in children:
                seed_of[id(c)] = c if parent is None else seed_of[id(parent)]
                family.append((stage, c))

        for spec, k in ((GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2), 2),
                        (GenSpec(5, 5, GenKind.PLANTED_FVS, seed=5, k_plant=2), 1),
                        (GenSpec(4, 5, GenKind.PLANTED_FVS, seed=2, k_plant=2), 2)):
            run_cascade(generate(spec), k, TOY, collect=collect)
        checked = dict.fromkeys(STAGES, 0)
        for stage, child in family:
            assert child.view.block is seed_of[id(child)].view.block
            T, union = child.T, 0
            for x, y in child.view.blocks:
                assert not (x & y) and not (union & (x | y))
                union |= x | y
            assert union == T.full_mask & ~T.mask_of(child.P)
            checked[stage] += 1
        assert all(checked.values()), checked


class TestDecoupling:
    def _flowing_instance(self):
        for seed in range(200):
            inst = seeded_cfvs(seed, max_side=4, k=4)
            if inst is None:
                continue
            try:
                if not (is_regular(inst, TOY) and is_weakly_coupled(inst, TOY)
                        and is_matched(inst) and is_low_block_degree(inst, TOY)):
                    continue
            except Exception:
                continue
            return inst
        pytest.skip("no flowing instance found")

    def test_partition_covers_live_vertices(self):
        inst = self._flowing_instance()
        parts = partition_parts(inst, TOY)
        union = set()
        for part in parts:
            assert part
            union |= part
        assert union == set(inst.T.vertices()) - inst.P

    def test_partition_parts_are_consecutive_blocks(self):
        inst = self._flowing_instance()
        live = inst.T.remove(inst.P)
        m_live = frozenset(live.from_host[v] for v in inst.M)
        seq = m_sequence(live.tournament, m_live)
        block_of = {}
        for i, (x, y) in enumerate(seq.blocks):
            for v in x | y:
                block_of[live.to_host[v]] = i
        parts = partition_parts(inst, TOY)
        covered = []
        for part in parts:
            idxs = sorted({block_of[v] for v in part})
            assert idxs == list(range(idxs[0], idxs[-1] + 1))
            covered.extend(idxs)
        assert covered == sorted(covered)

    def test_precondition_errors_name_the_predicate(self):
        inst = None
        for seed in range(100):
            cand = seeded_cfvs(seed)
            if cand is not None and not is_regular(cand, TOY):
                inst = cand
                break
        if inst is None:
            pytest.skip("all instances regular at toy scale")
        with pytest.raises(PreconditionViolated) as exc:
            stage_decoupled(inst, TOY)
        assert exc.value.predicate == "regular"

    def test_stage_decoupled_children_pass_all_predicates(self):
        found = 0
        for seed in range(80):
            inst = seeded_cfvs(seed, max_side=4, k=4)
            if inst is None:
                continue
            try:
                if not (is_regular(inst, TOY) and is_weakly_coupled(inst, TOY)
                        and is_matched(inst) and is_low_block_degree(inst, TOY)):
                    continue
                children = stage_decoupled(inst, TOY)
            except (FamilyCapExceeded, PreconditionViolated):
                continue
            for child in children:
                found += 1
                assert is_regular(child, TOY) and is_weakly_coupled(child, TOY)
                assert is_matched(child) and is_low_block_degree(child, TOY)
                assert find_decoupling(child, TOY) is not None
        if not found:
            pytest.skip("no decoupled children at this scale")

    def test_stage_decoupled_children_carry_their_split(self, monkeypatch):
        # each child kept holds the split find_decoupling verified, and
        # to_dfvc packages it without searching again; a hand-built
        # instance carries none, so to_dfvc searches for it
        T = generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2))
        family, _, _ = run_cascade(solvers.reduce_instance(T, 2).tournament, 2, TOY)
        assert len(family) == 93
        for child in family:
            assert list(child.parts) == find_decoupling(child, TOY)
        original = pipeline.find_decoupling
        searched = []

        def counting(inst, profile):
            searched.append(inst)
            return original(inst, profile)

        monkeypatch.setattr(pipeline, "find_decoupling", counting)
        for child in family:
            to_dfvc(child, TOY)
        assert searched == []
        hand_built = CfvsInstance(family[0].T, family[0].M, family[0].P,
                                  family[0].F, family[0].k)
        assert hand_built == family[0] and hand_built.parts == ()
        assert to_dfvc(hand_built, TOY) == to_dfvc(family[0], TOY)
        assert searched == [hand_built]


@functools.lru_cache(maxsize=1)
def _expansions():
    """(stage, parent, children) of every expansion and seed run_cascade
    collects on uniform, planted and twin-heavy instances at 4 per side,
    k in {opt - 1, opt}; the instances carry the bits the walk gave them."""
    out = []
    for spec in (GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=1),
                 GenSpec(4, 4, GenKind.PLANTED_FVS, seed=2, k_plant=2),
                 GenSpec(4, 4, GenKind.TWIN_HEAVY, seed=3, twin_a=2, twin_b=1)):
        T = generate(spec)
        opt = len(exact_min_fvs(T))
        for k in (opt - 1, opt):
            run_cascade(T, k, TOY, collect=lambda *expansion: out.append(expansion))
    return tuple(out)


_BITS = (
    (pipeline._REGULAR, lambda inst: is_regular(inst, TOY), lambda inst: regular_ref(inst, TOY)),
    (pipeline._WEAK, lambda inst: is_weakly_coupled(inst, TOY),
     lambda inst: weakly_coupled_ref(inst, TOY)),
    (pipeline._MATCHED, is_matched, matched_ref),
    (pipeline._LOW_DEGREE, lambda inst: is_low_block_degree(inst, TOY),
     lambda inst: low_block_degree_ref(inst, TOY)),
)
_ALL_BITS = sum(bit for bit, _, _ in _BITS)


class TestKnownPredicates:
    """``CfvsInstance.holds`` marks the stage predicates an instance is known
    to satisfy, so a stage skips deciding them again; the bits change no
    stage's output and are not part of the instance's value."""

    @staticmethod
    def outcome(stage, inst, profile):
        try:
            return [tuple(child)[:7] for child in getattr(pipeline, f"stage_{stage}")(inst, profile)]
        except (FamilyCapExceeded, PreconditionViolated) as exc:
            return type(exc).__name__, str(exc)

    def test_bits_change_no_stage_output(self):
        # every parent the walk expands, with its bits and with none: the
        # same children (T, m, p, F, k, view, parts), or the same error, at
        # the toy cap and at caps 1-5
        profiles = [TOY] + [dataclasses.replace(TOY, family_cap=cap) for cap in range(1, 6)]
        checked = collections.Counter()
        for stage, parent, _ in _expansions():
            if parent is None or not parent.holds:  # a seed: nothing to clear
                continue
            cleared = parent._replace(holds=0)
            for profile in profiles:
                assert self.outcome(stage, parent, profile) == \
                    self.outcome(stage, cleared, profile), stage
            checked[stage] += 1
        assert set(checked) == set(STAGES[2:]) and min(checked.values()) > 100

    def test_every_bit_holds(self):
        # each bit an expanded or yielded instance carries is true by the
        # predicate on the instance built from scratch, and by the reference
        carried = {bit: {} for bit, _, _ in _BITS}  # the distinct instances with each bit
        for _, parent, children in _expansions():
            for inst in (parent, *children):
                for bit in carried:
                    if inst is not None and inst.holds & bit:
                        carried[bit].setdefault((id(inst.T), inst.m, inst.p, inst.F), inst)
        for bit, predicate, reference in _BITS:
            for inst in carried[bit].values():
                fresh = CfvsInstance(inst.T, inst.M, inst.P, inst.F, inst.k)
                assert fresh.holds == 0
                assert predicate(fresh) and reference(inst), (bit, inst)
            assert len(carried[bit]) > 50

    def test_children_inherit_what_their_change_keeps(self):
        # from a parent carrying every bit: a larger P keeps regular,
        # weakly coupled and matched, a new F keeps regular, and a child
        # equal to its parent keeps all four; each kept bit holds
        grown_keeps = pipeline._REGULAR | pipeline._WEAK | pipeline._MATCHED
        leaves = [child for stage, _, children in _expansions() if stage == "decoupled"
                  for child in children]
        made = collections.Counter()
        for leaf in leaves:
            T = leaf.T
            taken = leaf.m | leaf.p
            cases = [(pipeline._child(leaf, TOY), _ALL_BITS)]
            cases += [(pipeline._child(leaf, TOY, p=leaf.p | 1 << g), grown_keeps)
                      for g in range(T.num_vertices) if not taken >> g & 1]
            cases += [(pipeline._child(leaf, TOY, F=leaf.F | {arc}), pipeline._REGULAR)
                      for arc in T.arcs()[::5]]
            for child, keeps in cases:
                if child is None:  # a P past k
                    continue
                assert child.holds == keeps
                for bit, predicate, _ in _BITS:
                    assert not keeps & bit or predicate(child), (bit, child)
                made[keeps] += 1
        assert len(made) == 3 and min(made.values()) > 20, made

    def test_bits_are_not_part_of_the_value(self):
        leaf = next(child for stage, _, children in _expansions() if stage == "decoupled"
                    for child in children)
        assert leaf.holds == _ALL_BITS and leaf.parts
        hand_built = CfvsInstance(leaf.T, leaf.M, leaf.P, leaf.F, leaf.k)
        cleared = leaf._replace(holds=0)
        for other in (hand_built, cleared):
            assert other.holds == 0
            assert other == leaf and not other != leaf and hash(other) == hash(leaf)
            assert repr(other) == repr(leaf) and serialize_cfvs(other) == serialize_cfvs(leaf)
        copied = pickle.loads(pickle.dumps(leaf))
        assert copied == leaf and tuple(copied)[5:] == tuple(leaf)[5:]

    def test_no_heavy_block_passes_the_parent_through(self, monkeypatch):
        # a low-block-degree parent with no block of block_degree live
        # incidence has one child, itself, and no guess is built
        parents = [parent for stage, parent, _ in _expansions() if stage == "lowblockdegree"
                   and max(pipeline._block_incidence(parent, parent.live_f()).values(),
                           default=0) < TOY.block_degree]

        def unreachable(*args, **kwargs):
            raise AssertionError("a guess was built")

        monkeypatch.setattr(pipeline, "enumerate_min_vertex_covers", unreachable)
        monkeypatch.setattr(pipeline, "consistent_with_mixed", unreachable)
        for parent in parents:
            want = [tuple(parent)[:6] + ((),)] if is_low_block_degree(parent, TOY) else []
            assert self.outcome("lowblockdegree", parent, TOY) == want
        assert len(parents) > 100

    def test_one_split_search_per_decoupled_parent(self, monkeypatch):
        # the parent's search gives its partition and the decoupling of a
        # child with the parent's P; only a child with a larger P searches
        parents = [parent for stage, parent, _ in _expansions() if stage == "decoupled"]
        original = pipeline._split_search
        searched = []

        def recording(inst, profile):
            searched.append(inst.p)
            return original(inst, profile)

        monkeypatch.setattr(pipeline, "_split_search", recording)
        for parent in parents:
            searched.clear()
            stage_decoupled(parent, TOY)
            assert searched[0] == parent.p and len(set(searched)) == len(searched)
            assert all(p & parent.p == parent.p for p in searched)
        assert len(parents) > 100


class TestEndgame:
    def test_to_dfvc_shape_and_lift(self):
        exercised = 0
        for seed in range(120):
            inst = seeded_cfvs(seed, max_side=4, k=4)
            if inst is None:
                continue
            try:
                children = stage_decoupled(inst, TOY) \
                    if (is_regular(inst, TOY) and is_weakly_coupled(inst, TOY)
                        and is_matched(inst) and is_low_block_degree(inst, TOY)) else []
            except (FamilyCapExceeded, PreconditionViolated):
                continue
            for child in children[:3]:
                try:
                    red = to_dfvc(child, TOY)
                except PreconditionViolated:
                    continue
                exercised += 1
                d = red.instance
                assert d.budget == child.k - len(child.P)
                # forbidden covers M
                lifted_forbidden = {red.to_host[gv] for gv in d.forbidden}
                assert lifted_forbidden == set(child.M)
                # undirected edges are live cross-part constraint edges
                for (ga, gb) in d.graph.undirected:
                    u, w = red.to_host[ga], red.to_host[gb]
                    assert (u, w) in child.F or (w, u) in child.F
                res = dfvc_solve(d)
                if res.found:
                    lifted = child.P | {red.to_host[gv] for gv in res.solution}
                    assert len(lifted) <= child.k
                    assert not (lifted & child.M)
        if not exercised:
            pytest.skip("endgame not reached at this scale")


def _unscreened_endgame(T, k):
    """pipeline_solve's fields on T at budget k under the toy profile (all
    but the wall time) from an endgame with no packing bound, which reduces
    every leaf the walk reaches with ``to_dfvc``, solves it, lifts the
    answer and verifies it on T; and ``(leaf, answered)`` for each leaf it
    walked, in order."""
    alive = solvers._survivors(T, k)
    if not alive:
        return (SolveStatus.SOLUTION, frozenset(), 0, (("reduce", 0),), (), False), []
    if solvers.squares_packing_lower_bound(T, alive=alive) > k:
        return (SolveStatus.NO_SOLUTION, None, 0, (("screen", k + 1),), (), False), []
    search = branch_solve(T, Constraints(budget=k))
    nodes = search.stats.nodes
    if not search.found:
        return (SolveStatus.NO_SOLUTION, None, nodes, (("search", nodes),), (), False), []
    sizes, notes, walked = [0], [], []
    family = pipeline._sized_family(alive.bit_count(), TOY, notes)
    if family is not None:
        red = solvers.reduce_instance(T, k)
        leaves = pipeline._walk(red.tournament, k, TOY, family, sizes, notes, None)
        for tried, leaf in enumerate(leaves, 1):
            reduction = to_dfvc(leaf, TOY)
            answer = dfvc_solve(reduction.instance)
            lifted = None if not answer.found else frozenset(
                red.to_host[v] for v in leaf.P | {reduction.to_host[g] for g in answer.solution})
            answered = lifted is not None and len(lifted) <= k and verify_fvs(T, lifted)
            walked.append((leaf, answered))
            if answered:
                trace, diagnostics = pipeline._replay(sizes, notes, None, None)
                return (SolveStatus.SOLUTION, lifted, tried, tuple(trace), tuple(diagnostics),
                        False), walked
    trace, diagnostics = pipeline._replay(sizes, notes, None, None)
    return (search.status, search.solution, nodes, tuple(trace), tuple(diagnostics),
            True), walked


class TestEndgameScreen:
    """The endgame skips a leaf whose packing bound exceeds the deletions it
    has left; an answer must hit that packing, so skipping changes nothing."""

    def test_ruled_out_leaves_fail_the_unscreened_endgame(self, monkeypatch):
        reduced = []

        def reducing(inst, profile, _original=pipeline.to_dfvc):
            reduced.append(inst)
            return _original(inst, profile)

        monkeypatch.setattr(pipeline, "to_dfvc", reducing)
        kinds = (GenKind.UNIFORM_RANDOM, GenKind.PLANTED_FVS, GenKind.TWIN_HEAVY)
        ruled_out = answered = 0
        for seed in range(108):
            T = generate(GenSpec(4 + seed % 3, 4 + (seed // 3) % 3, kinds[seed % 3],
                                 seed=seed + 3000, k_plant=2 + seed % 2, twin_a=2,
                                 twin_b=1 + seed % 2))
            opt = len(exact_min_fvs(T))
            for k in range(max(0, opt - 1), opt + 2):
                want, walked = _unscreened_endgame(T, k)
                reduced.clear()
                res = pipeline_solve(T, k, TOY)
                assert (res.status, res.solution, res.stats.nodes, res.trace,
                        res.diagnostics, res.used_fallback) == want, (seed, k)
                kept = iter(reduced)
                nxt = next(kept, None)
                for leaf, ok in walked:
                    assert leaf.parts  # every walked leaf carries its split
                    if nxt is not None and nxt == leaf and nxt.parts == leaf.parts:
                        nxt = next(kept, None)
                        answered += ok
                    else:
                        assert not ok, (seed, k)
                        ruled_out += 1
                assert nxt is None  # the leaves reduced are walked leaves, in order
        assert ruled_out >= 300 and answered >= 150, (ruled_out, answered)


def _cell_pair_table(T, alive):
    """``(groups, heads, rows)`` of the A-pairs of T[alive], read from the
    matrix cells: per live a, the pairs (a', D1, D0) with a < a' and both D
    masks non-empty, as gid bits and masks, a group per a with a pair."""
    m, o = T.m, T.orient
    live_a = [i for i in range(m) if alive >> i & 1]
    live_b = [j for j in range(T.n) if alive >> (m + j) & 1]

    def beaten(i, i2):  # live b with i -> b and b -> i2
        return sum(1 << (m + j) for j in live_b if o[i][j] and not o[i2][j])

    rows = []
    for i in live_a:
        row = sum(1 << (m + j) for j in live_b if o[i][j])
        rows.append((1 << i, row, ~row))
    groups, heads = [], 0
    for x, i in enumerate(live_a):
        pairs = [(1 << i2, beaten(i, i2), beaten(i2, i)) for i2 in live_a[x + 1:]]
        pairs = [pair for pair in pairs if pair[1] and pair[2]]
        if pairs:
            union = 0
            for _, _, d0 in pairs:
                union |= d0
            groups.append((1 << i, union, pairs))
            heads |= 1 << i
    return groups, heads, rows


def _cell_square_packing(T, alive) -> int:
    """Greedy vertex-disjoint packing of the squares of T[alive], taken in
    (a, a', lower b, higher b) order, read from the matrix cells."""
    m, o = T.m, T.orient
    live_a = [i for i in range(m) if alive >> i & 1]
    live_b = [j for j in range(T.n) if alive >> (m + j) & 1]
    squares = sorted((i, i2, *sorted((j, j2)))
                     for i in live_a for i2 in live_a if i < i2
                     for j in live_b for j2 in live_b
                     if (o[i][j] and not o[i2][j] and o[i2][j2] and not o[i][j2]))
    used, count = set(), 0
    for i, i2, j, j2 in squares:
        square = {("A", i), ("A", i2), ("B", j), ("B", j2)}
        if not used & square:
            used |= square
            count += 1
    return count


class TestScreen:
    """The screen packs squares while T[survivors]'s A-pairs are scanned and
    stops at k + 1; when it does not answer no, the search gets the whole
    list.  Checked against tables and packings read from the cells."""

    def test_screen_stops_at_k_plus_one_or_hands_over_the_full_table(self, monkeypatch):
        handed = []

        def searching(tournament, constraints, *, groups):
            handed.append(groups)
            return SolveResult(SolveStatus.NO_SOLUTION, None, SolveStats(0, 0.0))

        monkeypatch.setattr(pipeline, "branch_solve", searching)
        kinds = (GenKind.UNIFORM_RANDOM, GenKind.PLANTED_FVS, GenKind.TWIN_HEAVY)
        screened = searched = cut_short = 0
        for seed in range(45):
            spec = GenSpec(4 + seed % 5, 4 + (seed // 5) % 5, kinds[seed % 3], seed=seed + 500,
                           k_plant=3, twin_a=3, twin_b=2)
            T = generate(spec)
            opt = len(exact_min_fvs(generate(spec)))
            for k in range(opt + 1):
                alive = solvers._survivors(T, k)
                bound = _cell_square_packing(T, alive)
                assert bound == solvers.squares_packing_lower_bound(T, alive=alive)
                handed.clear()
                res = pipeline_solve(T, k, TOY)
                if not alive:  # square-free: answered before the screen
                    assert (res.trace, handed) == ((("reduce", 0),), [])
                    continue
                if bound > k:
                    screened += 1
                    cut_short += bound > k + 1
                    assert (res.trace, handed) == ((("screen", k + 1),), [])
                    continue
                searched += 1
                [groups] = handed
                assert res.trace == (("search", 0),)
                assert (list(groups), groups.heads, groups._rows) == \
                    _cell_pair_table(T, alive)
        assert screened >= 40 and cut_short >= 10 and searched >= 40


class TestPipelineSolve:
    def test_square_budget_one(self, square_2x2):
        res = pipeline_solve(square_2x2, 1, TOY)
        assert res.found and len(res.solution) == 1
        assert verify_fvs(square_2x2, res.solution)

    def test_acyclic_budget_zero(self):
        T = generate(GenSpec(4, 4, GenKind.ACYCLIC, seed=13))
        res = pipeline_solve(T, 0, TOY)
        assert res.found and res.solution == frozenset()

    def test_negative_budget(self, square_2x2):
        assert pipeline_solve(square_2x2, -1, TOY).status is SolveStatus.NO_SOLUTION

    def test_matches_oracle_small(self):
        for seed in range(25):
            T = generate(GenSpec(2 + seed % 4, 2 + (seed // 3) % 4,
                                 GenKind.UNIFORM_RANDOM, seed=seed + 400))
            opt = len(oracle_min_fvs(T).solution)
            for k in (max(0, opt - 1), opt):
                res = pipeline_solve(T, k, TOY)
                want = k >= opt
                assert res.found == want, (seed, k, opt)
                if res.found:
                    assert verify_fvs(T, res.solution)
                    assert len(res.solution) <= k

    @given(st.builds(ConstantsProfile, *[st.integers(1, 3)] * 8,
                     family_cap=st.integers(1, 2_000)),
           st.integers(3, 4), st.integers(3, 4), st.integers(0, 2 ** 32), st.booleans())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_any_small_profile_agrees_with_the_oracle(self, profile, m, n, seed, below):
        # whatever the constants, overflows become diagnostics and the
        # fallback answers, so the result never raises and never disagrees
        T = generate(GenSpec(m, n, GenKind.UNIFORM_RANDOM, seed=seed))
        opt = len(oracle_min_fvs(T).solution)
        k = opt - 1 if below and opt > 0 else opt
        res = pipeline_solve(T, k, profile)
        assert res.found == (k == opt)
        if res.found:
            assert len(res.solution) == opt and verify_fvs(T, res.solution)

    def test_only_one_worker(self, tmp_path):
        T = generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=21))
        opt = len(oracle_min_fvs(T).solution)
        with pytest.raises(ValueError):
            pipeline_solve(T, opt, TOY, workers=2)

        def outcome(res):
            return (res.status, res.solution, res.stats.nodes, res.trace,
                    res.diagnostics, res.used_fallback)

        assert outcome(pipeline_solve(T, opt, TOY, workers=1)) == \
            outcome(pipeline_solve(T, opt, TOY))
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(T, k=opt))
        assert main(["--workers", "2", "--profile", "toy", "pipeline", str(path)]) == 2

    def test_endgame_reduces_only_the_children_it_tries(self, monkeypatch):
        # the cascade's final family has 93 children; the endgame tries them
        # one at a time, in family order, as the walk reaches them, and
        # stops at the first whose answer verifies.  It packages each leaf
        # tried but those its packing bound rules out, which still count in
        # stats.nodes
        T = generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2))
        red = solvers.reduce_instance(T, 2)
        family, _, _ = run_cascade(red.tournament, 2, TOY)
        original = pipeline.to_dfvc
        tried = []

        def recording(inst, profile):
            tried.append(inst)
            return original(inst, profile)

        monkeypatch.setattr(pipeline, "to_dfvc", recording)
        res = pipeline_solve(T, 2, TOY)
        monkeypatch.undo()
        assert res.found and not res.used_fallback
        assert len(family) == 93 and res.stats.nodes == 3

        def key(inst):
            return (inst.M, inst.P, inst.F)

        kept = [c for c in family[:3] if not _ruled_out(T, 2, red, c)]
        assert [key(c) for c in tried] == [key(c) for c in kept] and len(tried) == 1
        last = original(tried[-1], TOY)
        answer = dfvc_solve(last.instance)
        lifted = tried[-1].P | {last.to_host[gv] for gv in answer.solution}
        assert frozenset(red.to_host[v] for v in lifted) == res.solution

    @pytest.mark.parametrize("seed", [1, 3, 4])
    def test_fallback_runs_on_the_reduction(self, seed, monkeypatch):
        # under the paper profile 8x8 the search answers no at k = opt - 1;
        # at k = opt seeding overflows, so the fallback answers.  Either way
        # the answer is branch_solve's own on T, node for node, while the
        # reduction is never induced: the sample space overflows on the
        # survivor count alone (the planted instances shrink under the
        # reduction)
        T = generate(GenSpec(8, 8, GenKind.PLANTED_FVS, seed=seed, k_plant=3))
        opt = len(exact_min_fvs(T))
        original = solvers.reduce_instance
        on_T = []

        def counting(tournament, k):
            on_T.append(tournament is T)
            return original(tournament, k)

        for k in (opt - 1, opt):
            assert solvers.reduce_instance(T, k).tournament is not T
            want = branch_solve(T, Constraints(budget=k))
            monkeypatch.setattr(solvers, "reduce_instance", counting)
            monkeypatch.setattr(pipeline, "reduce_instance", counting)
            on_T.clear()
            res = pipeline_solve(T, k)  # the paper profile
            monkeypatch.undo()
            assert res.used_fallback == (k == opt)
            assert (res.status, res.solution, res.stats.nodes) == \
                (want.status, want.solution, want.stats.nodes)
            assert res.found == (k == opt)
            assert on_T == []

    def test_fallback_reduces_once_and_checks_once(self, monkeypatch):
        # the search searches the survivors pipeline_solve's screen cached,
        # with no reduced tournament induced, and checks a yes answer once,
        # on T itself; at k = opt it is the fallback answer
        T = generate(GenSpec(8, 8, GenKind.PLANTED_FVS, seed=1, k_plant=3))
        opt = len(exact_min_fvs(T))
        reduce_original = solvers.reduce_instance
        verify_original = solvers.verify_fvs
        for k in (opt - 1, opt):
            T = generate(GenSpec(8, 8, GenKind.PLANTED_FVS, seed=1, k_plant=3))
            reduced, verified = [], []

            def reducing(tournament, budget):
                reduced.append(tournament is T)
                return reduce_original(tournament, budget)

            def verifying(tournament, S):
                verified.append(tournament is T)
                return verify_original(tournament, S)

            for mod in (solvers, pipeline):
                monkeypatch.setattr(mod, "reduce_instance", reducing)
                monkeypatch.setattr(mod, "verify_fvs", verifying)
            res = pipeline_solve(T, k)  # the paper profile: the search answers
            monkeypatch.undo()
            assert res.used_fallback == res.found == (k == opt)
            assert reduced == []
            assert verified == ([True] if res.found else [])

    @pytest.mark.parametrize("seed", [1, 3, 4])
    def test_fallback_is_one_branch_solve_that_builds_the_one_index(self, seed, monkeypatch):
        # the search is branch_solve on T itself, once: its no answers at
        # k = opt - 1, and at k = opt, where seeding overflows, its yes is
        # the fallback answer
        calls = []

        def recording(tournament, constraints, **kwargs):
            calls.append((tournament is T, constraints))
            return branch_solve(tournament, constraints, **kwargs)

        opt = len(exact_min_fvs(generate(GenSpec(8, 8, GenKind.PLANTED_FVS, seed=seed,
                                                 k_plant=3))))
        monkeypatch.setattr(pipeline, "branch_solve", recording)
        for k in (opt - 1, opt):
            T = generate(GenSpec(8, 8, GenKind.PLANTED_FVS, seed=seed, k_plant=3))
            calls.clear()
            res = pipeline_solve(T, k)  # the paper profile
            assert res.used_fallback == res.found == (k == opt)
            assert calls == [(True, Constraints(budget=k))]

    def test_every_unscreened_no_is_the_search(self):
        # below the optimum the screen or the search answers no; the
        # search's no carries its node count as the one trace row, under
        # either profile
        searched = 0
        for seed in range(30):
            T = generate(GenSpec(3 + seed % 4, 3 + (seed // 4) % 4,
                                 GenKind.UNIFORM_RANDOM, seed=seed + 900))
            opt = len(exact_min_fvs(T))
            for k in range(opt):
                want = branch_solve(T, Constraints(budget=k))
                for profile in (TOY, None):
                    res = pipeline_solve(T, k, profile)
                    assert not res.found and not res.used_fallback and res.diagnostics == ()
                    if res.trace[0][0] == "screen":
                        continue
                    searched += 1
                    assert (res.trace, res.stats.nodes) == \
                        ((("search", want.stats.nodes),), want.stats.nodes)
        assert searched > 10

    @pytest.mark.parametrize("spec, k, profile, route", [
        (GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2), 1, TOY, "search"),
        (GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2), 2, TOY, "cascade"),
        (GenSpec(5, 5, GenKind.UNIFORM_RANDOM, seed=25, k_plant=2), 2, TOY, "fallback"),
        (GenSpec(8, 8, GenKind.PLANTED_FVS, seed=3, k_plant=3), 1, None, "search"),
        (GenSpec(8, 8, GenKind.PLANTED_FVS, seed=3, k_plant=3), 2, None, "fallback"),
        (GenSpec(5, 5, GenKind.PLANTED_FVS, seed=5, k_plant=2), 1, TOY, "screen"),
        (GenSpec(5, 5, GenKind.UNIFORM_RANDOM, seed=0), 2, TOY, "cascade"),
    ])
    def test_one_search_and_one_pair_scan_per_solve(self, spec, k, profile, route, monkeypatch):
        # an unscreened solve runs branch_solve once, whichever route
        # answers, and T's A-pairs are scanned once: the search reads the
        # screen's finished list, and so does the endgame's packing bound,
        # which rules out some leaf tried on every toy cascade or fallback
        # here; a screened solve scans a prefix of the groups once and
        # searches nothing
        T = generate(spec)
        searches, scans, reduced = [], [], []

        def searching(tournament, constraints, **kwargs):
            searches.append((tournament is T, constraints))
            return branch_solve(tournament, constraints, **kwargs)

        def scanning(tournament, alive, table, _original=structure._a_pair_scan):
            if tournament is T:
                scans.append((alive, table))
            return _original(tournament, alive, table)

        def reducing(inst, profile, _original=pipeline.to_dfvc):
            reduced.append(inst)
            return _original(inst, profile)

        monkeypatch.setattr(pipeline, "branch_solve", searching)
        monkeypatch.setattr(pipeline, "to_dfvc", reducing)
        for mod in (structure, pipeline):
            monkeypatch.setattr(mod, "_a_pair_scan", scanning)
        res = pipeline_solve(T, k, profile)
        monkeypatch.undo()
        name = "fallback" if res.used_fallback else "cascade" if res.found \
            else res.trace[0][0]
        assert name == route
        # a cascade answer counts the leaves tried; a fallback walked them all
        tried = res.stats.nodes if route == "cascade" else dict(res.trace).get("decoupled", 0)
        ruled_out = tried - len(reduced)
        assert ruled_out > 0 if profile is TOY and route in ("cascade", "fallback") \
            else ruled_out == 0
        assert searches == ([] if route == "screen" else [(True, Constraints(budget=k))])
        [(alive, table)] = scans
        full = structure._a_pairs(T, alive)
        if route == "screen":
            assert 0 < len(table) < len(full) and table == full[:len(table)]
        else:
            assert table == full

    def test_overflowing_seeding_induces_nothing(self, monkeypatch):
        # both seeding checks read the survivor count alone, so an overflow
        # is found before the reduction is induced, and the fallback answers
        def unreachable(self, keep):
            raise AssertionError("an overflowing seeding induces nothing")

        monkeypatch.setattr(BipartiteTournament, "induced", unreachable)
        for spec, profile, diagnostic in (
                # the paper profile's sample space overflows
                (GenSpec(8, 8, GenKind.PLANTED_FVS, seed=1, k_plant=3), None,
                 "sample space: family of size >= "),
                # the sample space fits, the undeletable-set family does not
                (GenSpec(5, 5, GenKind.PLANTED_FVS, seed=3, k_plant=2),
                 dataclasses.replace(TOY, family_cap=1000),
                 "undeletable-set family: family of size >= 1408 exceeds cap 1000")):
            T = generate(spec)
            k = len(exact_min_fvs(T))
            assert solvers._survivors(T, k) != T.full_mask
            res = pipeline_solve(T, k, profile)
            assert res.used_fallback and res.found
            assert res.trace == (("seed", 0),)
            assert len(res.diagnostics) == 1
            assert res.diagnostics[0].startswith(diagnostic)

    def test_screened_solve_induces_nothing(self, monkeypatch):
        # the screen reads T[survivors] in T's own gids; only seeding
        # induces the reduced tournament (here 9 of the 12 vertices survive)
        T = generate(GenSpec(6, 6, GenKind.PLANTED_FVS, seed=3, k_plant=2))

        def unreachable(self, keep):
            raise AssertionError("screened inputs are not induced")

        monkeypatch.setattr(BipartiteTournament, "induced", unreachable)
        assert pipeline_solve(T, 1, TOY).trace == (("screen", 2),)
        assert solvers._survivors(T, 1) != T.full_mask

    def test_packing_bound_screens_before_seeding(self, monkeypatch):
        # at k=1 the reduction packs 2 vertex-disjoint squares, so the screen
        # answers no before any seeding, stage, endgame or fallback runs
        T = generate(GenSpec(5, 5, GenKind.PLANTED_FVS, seed=5, k_plant=2))
        squares = [frozenset(sq) for sq in brute_squares(T)]
        assert any(not (s & t) for s in squares for t in squares)

        def unreachable(*args, **kwargs):
            raise AssertionError("screened inputs are not seeded")

        monkeypatch.setattr(pipeline, "_m_masks", unreachable)
        monkeypatch.setattr(pipeline, "_seeds", unreachable)
        monkeypatch.setattr(pipeline, "branch_solve", unreachable)
        res = pipeline_solve(T, 1, TOY)
        assert (res.status, res.solution, res.stats.nodes, res.trace,
                res.diagnostics, res.used_fallback) == \
            (SolveStatus.NO_SOLUTION, None, 0, (("screen", 2),), (), False)

    def test_unscreened_result_is_pinned(self):
        # the packing bound is within the budget, so the cascade runs; it
        # answers at the third leaf it tries, four seeds into the walk, and
        # the trace counts what each stage emitted up to then
        T = generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2))
        res = pipeline_solve(T, 2, TOY)
        assert (res.status, res.solution, res.stats.nodes, res.trace,
                res.diagnostics, res.used_fallback) == \
            (SolveStatus.SOLUTION, frozenset({a(3), b(3)}), 3,
             (("seed", 4), ("regular", 5), ("weak", 5), ("matched", 5),
              ("lowblockdegree", 5), ("decoupled", 6)), (), False)

    @pytest.mark.parametrize("seed", [1, 3, 4])
    def test_reduction_induced_once_per_solve(self, seed, monkeypatch):
        # under the toy profile a yes-instance starts seeding, and T is
        # induced once, for it: the screen and the search read T's survivor
        # mask, and the stages induce only their own instances'
        # tournaments; the search's no induces nothing
        T = generate(GenSpec(8, 8, GenKind.PLANTED_FVS, seed=seed, k_plant=3))
        opt = len(exact_min_fvs(T))
        original = BipartiteTournament.induced
        calls = []

        def counting(self, vertices):
            calls.append(self is T)
            return original(self, vertices)

        monkeypatch.setattr(BipartiteTournament, "induced", counting)
        for k in (opt - 1, opt):
            calls.clear()
            res = pipeline_solve(T, k, TOY)
            assert res.found == (k == opt)
            if res.found:
                assert res.trace[0][1] > 0 and calls.count(True) == 1
            else:
                assert res.trace == (("search", res.stats.nodes),) and calls == []

    def test_trace_reports_stage_sizes(self):
        T = generate(GenSpec(3, 3, GenKind.UNIFORM_RANDOM, seed=22))
        res = pipeline_solve(T, 3, TOY)
        names = [name for name, _ in res.trace]
        if names and names[0] != "reduce":
            assert names[0] == "seed"
            assert set(names) <= set(STAGES) | {"reduce"}

    @pytest.mark.parametrize("stage", STAGES[1:])
    def test_stage_overflow_is_a_diagnostic(self, stage, monkeypatch):
        # a stage that overflows its cap, on its first parent or on every
        # one, loses only those subtrees, and a diagnostic names the stage.
        # At k = opt the answer still agrees with the oracle (through the
        # fallback when nothing is left).  At k = opt - 1 the search answers
        # no before any stage runs; run_cascade walks that instance anyway
        T = generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2))
        opt = len(oracle_min_fvs(T).solution)
        original = getattr(pipeline, f"stage_{stage}")
        message = f"{stage}: {stage} stage: family of size >= 1 exceeds cap 0"
        below = solvers.reduce_instance(T, opt - 1).tournament
        for every in (False, True):
            calls = []

            def overflowing(inst, profile):
                calls.append(inst)
                if every or len(calls) == 1:
                    raise FamilyCapExceeded(f"{stage} stage", 1, 0)
                return original(inst, profile)

            monkeypatch.setattr(pipeline, f"stage_{stage}", overflowing)
            res = pipeline_solve(T, opt, TOY)
            assert calls, stage
            assert res.found and len(res.solution) <= opt and verify_fvs(T, res.solution)
            assert message in res.diagnostics
            if every:
                assert res.used_fallback
                assert dict(res.trace)[stage] == 0
            calls.clear()
            res = pipeline_solve(T, opt - 1, TOY)
            assert not calls and not res.found
            assert res.trace == (("search", res.stats.nodes),)
            family, trace, diagnostics = run_cascade(below, opt - 1, TOY)
            monkeypatch.undo()
            assert calls, stage
            assert message in diagnostics
            if every:
                assert family == [] and dict(trace)[stage] == 0

    def test_stage_caps_overflow_for_real(self):
        # each stage's own cap checks, driven by the parents a run_cascade
        # meets: per stage, the child counts of the parents before the first
        # that overflows at cap 1, which no cap changes, then that parent's
        # outcome at each cap, its child count or its exact message
        caps = (1, 2, 3, 5, 8, 13, 40)

        def over(where, *sizes):  # the messages at the first len(sizes) caps
            return [f"{where}: family of size >= {size} exceeds cap {cap}"
                    for size, cap in zip(sizes, caps)]

        pinned = {
            "regular": ([1], over("oversized-block stage", 4, 4, 4) + [3] * 4),
            "weak": ([1] * 24, over("back-edge coupling stage", 4, 4, 4) + [1] * 4),
            "matched": ([1] * 5, over("conflict branching", 2, 3) + [1] * 5),
            "lowblockdegree": ([], over("block-degree stage", 2, 3, 4) + [1] * 4),
            "decoupled": ([0, 1, 0, 1], over("decoupling stage", 4, 4, 4, 6) + [4] * 3),
        }
        T = generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2))
        parents = {}
        run_cascade(solvers.reduce_instance(T, 2).tournament, 2, TOY,
                    collect=lambda stage, parent, _: parents.setdefault(stage, []).append(parent))

        def outcome(stage, parent, cap):
            try:
                return len(getattr(pipeline, f"stage_{stage}")(
                    parent, dataclasses.replace(TOY, family_cap=cap)))
            except FamilyCapExceeded as exc:
                return str(exc)

        for stage, (before, last) in pinned.items():
            got = [[outcome(stage, parent, cap) for cap in caps]
                   for parent in parents[stage][:len(before) + 1]]
            assert got == [[n] * len(caps) for n in before] + [last], stage
