from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btfvs import msequence, pipeline, solvers
from btfvs.cli import main
from btfvs.dfvc import dfvc_solve
from btfvs.errors import FamilyCapExceeded, NotMConsistent, PreconditionViolated
from btfvs.generators import GenKind, GenSpec, SplitMix64, generate
from btfvs.graph import BipartiteTournament
from btfvs.io import serialize_instance
from btfvs.msequence import back_edges, is_conflict_back_edge, m_sequence
from btfvs.pipeline import (STAGES, CfvsInstance, ConstantsProfile,
                            derive_forced_p, find_decoupling, is_low_block_degree,
                            is_m_homogeneous, is_matched, is_regular,
                            is_weakly_coupled, long_back,
                            m_family, matched_branching, partition_parts,
                            pipeline_solve, run_cascade, seed_instances,
                            stage_decoupled, stage_regular, stage_weak,
                            to_dfvc)
from btfvs.reference import brute_squares, dfs_has_cycle, window_property_brute
from btfvs.samplespace import twise_space, twise_space_size
from btfvs.solvers import (Constraints, SolveStatus, branch_solve, exact_min_fvs,
                           oracle_min_fvs, verify_fvs)
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

    def test_all_fields_positive(self):
        with pytest.raises(ValueError):
            ConstantsProfile.toy()._replace if False else ConstantsProfile(
                hom_window=0, large_ratio=1, weak_matching=1, block_degree=1,
                part_fvs_f=1, part_degree_d=1, budget_slack=1, sample_q=2)


class TestMFamily:
    def test_no_exemptions(self):
        T = generate(GenSpec(2, 2, GenKind.UNIFORM_RANDOM, seed=4))
        prof = ConstantsProfile(hom_window=1, large_ratio=3, weak_matching=2,
                                block_degree=3, part_fvs_f=1, part_degree_d=2,
                                budget_slack=1, sample_q=2)
        fam = m_family(T, 2, prof)
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
        fam = m_family(T, 2, prof)
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
            m_family(T, 2, prof)
        assert exc.value.would_be > 10

    def test_sample_space_built_once(self):
        # the space depends only on (n, t, q): every solve with the same
        # reduced size and profile shares one object
        assert twise_space(9, 2, 2) is twise_space(9, 2, 2)

    def test_deterministic(self):
        T = generate(GenSpec(3, 2, GenKind.UNIFORM_RANDOM, seed=7))
        assert m_family(T, 2, TOY) == m_family(T, 2, TOY)


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
        assert set(inst.view.block_of) == M
        assert inst.parts == ()

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
        assert set(inst.view.block_of) >= M
        assert peeled.count(m_mask) == 1


class TestBlockView:
    def test_view_built_at_most_once_per_instance(self, monkeypatch):
        # each seed builds its view once; every stage child inherits its
        # parent's, so no other instance builds one
        builds = []
        original = pipeline.live_structure

        def counting(T, m_mask, keys, alive):
            builds.append((m_mask, alive))
            return original(T, m_mask, keys, alive)

        T = generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2))
        work = solvers.reduce_instance(T, 2).tournament
        seeds = seed_instances(work, 2, TOY)
        monkeypatch.setattr(pipeline, "live_structure", counting)
        res = pipeline_solve(T, 2, TOY)
        assert dict(res.trace).get("decoupled", 0) > 0
        assert builds == [(work.mask_of(s.M), work.full_mask & ~work.mask_of(s.P))
                          for s in seeds]

    def test_seeding_scans_for_closers_once_per_seed(self, monkeypatch):
        # a seed's P holds every cycle closer, so T - P is M-consistent by
        # construction: seeding runs one closer scan per seed and never the
        # consistency check of hand-built instances
        T = generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2))
        seeds = seed_instances(solvers.reduce_instance(T, 2).tournament, 2, TOY)
        calls = dict.fromkeys(("cycle_closers", "_consistency"), 0)
        for name in calls:
            original = getattr(msequence, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            for mod in (msequence, pipeline):
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counting)
        res = pipeline_solve(T, 2, TOY)
        assert dict(res.trace)["seed"] == len(seeds) > 0
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
        # of T.remove(P), with its blocks and back edges (in scan order)
        # mapped back to host vertices
        family = [("hand-built", inst) for inst in
                  (seeded_cfvs(seed, max_side=5) for seed in range(40)) if inst is not None]
        for spec, k in ((GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2), 2),
                        (GenSpec(5, 5, GenKind.PLANTED_FVS, seed=5, k_plant=2), 1),
                        (GenSpec(4, 5, GenKind.PLANTED_FVS, seed=2, k_plant=2), 2)):
            run_cascade(generate(spec), k, TOY, collect=lambda stage, _, children:
                        family.extend((stage, c) for c in children))
        checked = dict.fromkeys(("hand-built",) + STAGES, 0)
        for stage, child in family:
            live = child.T.remove(child.P)
            seq = m_sequence(live.tournament, (live.from_host[v] for v in child.M))
            host = live.to_host
            blocks = tuple((frozenset(host[v] for v in x), frozenset(host[v] for v in y))
                           for (x, y) in seq.blocks)
            back = [(host[e.tail], host[e.head], e.tail_block, e.head_block)
                    for e in back_edges(live.tournament, seq)]
            assert child.view.blocks == blocks
            assert [tuple(e) for e in child.view.back] == back
            assert child.view.block_of == {
                v: i for i, (x, y) in enumerate(blocks) for v in x | y}
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
        # the cascade answers from a 93-child final family; the endgame
        # packages the children one at a time, in family order, and stops
        # at the first whose answer verifies
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
        assert res.stats.nodes == len(family) == 93

        def key(inst):
            return (inst.M, inst.P, inst.F)

        assert [key(c) for c in tried] == [key(c) for c in family[:3]]
        last = original(tried[-1], TOY)
        answer = dfvc_solve(last.instance)
        lifted = tried[-1].P | {last.to_host[gv] for gv in answer.solution}
        assert frozenset(red.to_host[v] for v in lifted) == res.solution

    @pytest.mark.parametrize("seed", [1, 3, 4])
    def test_fallback_runs_on_the_reduction(self, seed, monkeypatch):
        # under the paper profile 8x8 seeding overflows, so the fallback
        # answers; it must give branch_solve's own answer on T, node for
        # node, while T is reduced only once (the planted instances shrink
        # under the reduction)
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
            assert res.used_fallback
            assert (res.status, res.solution, res.stats.nodes) == \
                (want.status, want.solution, want.stats.nodes)
            assert res.found == (k == opt)
            assert on_T.count(True) == 1

    def test_fallback_reduces_once_and_checks_once(self, monkeypatch):
        # the fallback searches the reduction pipeline_solve already made,
        # and checks a yes answer once, on T itself
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
            res = pipeline_solve(T, k)  # the paper profile: the fallback answers
            monkeypatch.undo()
            assert res.used_fallback and res.found == (k == opt)
            assert reduced == [True]
            assert verified == ([True] if res.found else [])

    def test_packing_bound_screens_before_seeding(self, monkeypatch):
        # at k=1 the reduction packs 2 vertex-disjoint squares, so the screen
        # answers no before any seeding, stage, endgame or fallback runs
        T = generate(GenSpec(5, 5, GenKind.PLANTED_FVS, seed=5, k_plant=2))
        squares = [frozenset(sq) for sq in brute_squares(T)]
        assert any(not (s & t) for s in squares for t in squares)

        def unreachable(*args, **kwargs):
            raise AssertionError("screened inputs are not seeded")

        monkeypatch.setattr(pipeline, "m_family", unreachable)
        monkeypatch.setattr(pipeline, "seed_instances", unreachable)
        monkeypatch.setattr(pipeline, "_search", unreachable)
        res = pipeline_solve(T, 1, TOY)
        assert (res.status, res.solution, res.stats.nodes, res.trace,
                res.diagnostics, res.used_fallback) == \
            (SolveStatus.NO_SOLUTION, None, 0, (("screen", 2),), (), False)

    def test_unscreened_result_is_pinned(self):
        # the packing bound is within the budget, so the cascade runs and
        # answers from its 93-child final family, as before the screen
        T = generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2))
        res = pipeline_solve(T, 2, TOY)
        assert (res.status, res.solution, res.stats.nodes, res.trace,
                res.diagnostics, res.used_fallback) == \
            (SolveStatus.SOLUTION, frozenset({a(3), b(3)}), 93,
             (("seed", 121), ("regular", 107), ("weak", 107), ("matched", 98),
              ("lowblockdegree", 96), ("decoupled", 93)), (), False)

    @pytest.mark.parametrize("seed", [1, 3, 4])
    def test_reduction_induced_once_per_solve(self, seed, monkeypatch):
        # the screen and the fallback read the one reduced tournament that
        # reduce_instance induced; nothing induces it again
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
            res = pipeline_solve(T, k)  # the paper profile
            assert res.found == (k == opt)
            assert calls == [True]

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
        # one, loses only those subtrees: the answer still agrees with the
        # oracle (through the fallback when nothing is left) and a
        # diagnostic names the stage
        T = generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=2))
        opt = len(oracle_min_fvs(T).solution)
        original = getattr(pipeline, f"stage_{stage}")
        for every in (False, True):
            for k in (opt - 1, opt):
                calls = []

                def overflowing(inst, profile):
                    calls.append(inst)
                    if every or len(calls) == 1:
                        raise FamilyCapExceeded(f"{stage} stage", 1, 0)
                    return original(inst, profile)

                monkeypatch.setattr(pipeline, f"stage_{stage}", overflowing)
                res = pipeline_solve(T, k, TOY)
                monkeypatch.undo()
                assert calls, (stage, k)
                assert res.found == (k >= opt), (stage, every, k)
                if res.found:
                    assert len(res.solution) <= k and verify_fvs(T, res.solution)
                assert f"{stage}: {stage} stage: family of size >= 1 exceeds cap 0" \
                    in res.diagnostics
                if every:
                    assert res.used_fallback
                    assert dict(res.trace)[stage] == 0
