from __future__ import annotations

import time

import pytest

from btfvs import dfvc
from btfvs.dfvc import (DfvcInstance, _part_min_fvs, dfvc_solve, validate_class,
                        verify_dfvc)
from btfvs.errors import NotAMatching
from btfvs.generators import GenKind, GenSpec, SplitMix64, generate
from btfvs.graph import MixedMultigraph
from btfvs.reference import dfvc_oracle
from btfvs.solvers import Constraints, SolveStatus, branch_solve

from conftest import a, b, tournament


def square_part():
    return tournament([[True, False], [False, True]])


def acyclic_part(seed=0):
    return generate(GenSpec(2, 2, GenKind.ACYCLIC, seed=seed))


def matched_acyclic_parts(edges: int) -> MixedMultigraph:
    """Two acyclic parts of ``edges`` x 1 vertices joined by the matching
    a_i -- a_i of ``edges`` undirected edges."""
    part = tournament([[True]] * edges)
    return MixedMultigraph([part, part], [((0, a(i)), (1, a(i))) for i in range(edges)])


def random_mixed(seed: int, max_parts=3, max_side=2, max_edges=3):
    rng = SplitMix64(seed)
    nparts = 2 + rng.below(max_parts - 1)
    parts = [generate(GenSpec(1 + rng.below(max_side), 1 + rng.below(max_side),
                              GenKind.UNIFORM_RANDOM, seed=seed * 31 + i))
             for i in range(nparts)]
    used = set()
    edges = []
    for _ in range(rng.below(max_edges + 1)):
        pi = rng.below(nparts)
        pj = rng.below(nparts)
        if pi == pj:
            continue
        u = parts[pi].vertices()[rng.below(parts[pi].num_vertices)]
        w = parts[pj].vertices()[rng.below(parts[pj].num_vertices)]
        if (pi, u) in used or (pj, w) in used:
            continue
        used.update({(pi, u), (pj, w)})
        edges.append(((pi, u), (pj, w)))
    return MixedMultigraph(parts, edges)


class TestValidateClass:
    def test_square_part_in_window(self):
        g = MixedMultigraph([square_part()], [])
        report = validate_class(DfvcInstance(g, frozenset(), 1), d=0, f=1, t=1)
        assert report.ok

    def test_acyclic_part_below_window(self):
        g = MixedMultigraph([acyclic_part()], [])
        report = validate_class(DfvcInstance(g, frozenset(), 1), d=0, f=1, t=1)
        assert not report.ok
        assert any("below" in v for v in report.violations)

    def test_report_matches_recount(self):
        for seed in range(20):
            g = random_mixed(seed)
            inst = DfvcInstance(g, frozenset(), 3)
            report = validate_class(inst, d=1, f=1, t=2)
            from btfvs.solvers import oracle_min_fvs
            expect = []
            if len(g.parts) > 2:
                expect.append("part count")
            for pi, part in enumerate(g.parts):
                if g.undirected_degree(pi) > 1:
                    expect.append(f"part {pi}: undirected degree")
                opt = len(oracle_min_fvs(part).solution)
                if opt < 1:
                    expect.append(f"part {pi}: feedback vertex set size {opt} below")
                elif opt > 4:
                    expect.append(f"part {pi}: feedback vertex set size {opt} above")
            assert len(report.violations) == len(expect)
            for prefix, got in zip(sorted(expect), sorted(report.violations)):
                assert got.startswith(prefix.split(" exceeds")[0][:20]) or prefix in got


class TestDfvcSolve:
    def test_single_square_part(self):
        g = MixedMultigraph([square_part()], [])
        res = dfvc_solve(DfvcInstance(g, frozenset(), 1))
        assert res.found and len(res.solution) == 1

    def test_one_edge_between_acyclic_parts(self):
        g = MixedMultigraph([acyclic_part(1), acyclic_part(2)],
                            [((0, a(0)), (1, b(0)))])
        res = dfvc_solve(DfvcInstance(g, frozenset(), 1))
        assert res.found
        assert res.solution in ({(0, a(0))}, {(1, b(0))})

    def test_budget_zero_with_edge(self):
        g = MixedMultigraph([acyclic_part(1), acyclic_part(2)],
                            [((0, a(0)), (1, b(0)))])
        res = dfvc_solve(DfvcInstance(g, frozenset(), 0))
        assert res.status is SolveStatus.NO_SOLUTION

    def test_forbidden_endpoint_forces_other(self):
        g = MixedMultigraph([acyclic_part(1), acyclic_part(2)],
                            [((0, a(0)), (1, b(0)))])
        res = dfvc_solve(DfvcInstance(g, frozenset({(0, a(0))}), 1))
        assert res.found and res.solution == {(1, b(0))}

    def test_both_endpoints_forbidden(self):
        g = MixedMultigraph([acyclic_part(1), acyclic_part(2)],
                            [((0, a(0)), (1, b(0)))])
        res = dfvc_solve(DfvcInstance(g, frozenset({(0, a(0)), (1, b(0))}), 5))
        assert res.status is SolveStatus.NO_SOLUTION

    def test_budget_prunes_a_matching_it_cannot_cover(self):
        # 16 matched edges need 16 deletions: at budget 0 no leaf is tried
        inst = DfvcInstance(matched_acyclic_parts(16), frozenset(), 0)
        t0 = time.perf_counter()
        res = dfvc_solve(inst)
        assert time.perf_counter() - t0 < 0.1
        assert res.status is SolveStatus.NO_SOLUTION and res.stats.nodes == 0

    def test_incumbent_prunes_leaves_that_cannot_improve(self, monkeypatch):
        # every leaf deletes one endpoint per edge, 4 in all, and the parts
        # are acyclic: the first leaf is the answer, and every later one
        # ties it, so only the first leaf's parts are solved
        inst = DfvcInstance(matched_acyclic_parts(4), frozenset(), 4)
        solved = []

        def solving(part, removed, forbidden, _original=dfvc._part_min_fvs):
            solved.append(part)
            return _original(part, removed, forbidden)

        monkeypatch.setattr(dfvc, "_part_min_fvs", solving)
        res = dfvc_solve(inst)
        assert res.found and res.solution == {(0, a(i)) for i in range(4)}
        assert len(solved) == 2 and res.stats.nodes == 1
        # the same at 20 edges and budget 20: none of the 2^20 - 1 tying
        # leaves is tried
        inst = DfvcInstance(matched_acyclic_parts(20), frozenset(), 20)
        t0 = time.perf_counter()
        res = dfvc_solve(inst)
        assert time.perf_counter() - t0 < 0.1
        assert res.found and res.solution == {(0, a(i)) for i in range(20)}
        assert res.stats.nodes == 1

    def test_non_matching_rejected(self):
        g = MixedMultigraph(
            [acyclic_part(1), acyclic_part(2)],
            [((0, a(0)), (1, b(0))), ((0, a(0)), (1, a(0)))])
        with pytest.raises(NotAMatching):
            dfvc_solve(DfvcInstance(g, frozenset(), 3))

    def test_matches_subset_oracle(self):
        checked = 0
        for seed in range(120):
            g = random_mixed(seed)
            if g.num_vertices > 12 or not g.is_undirected_matching():
                continue
            rng = SplitMix64(seed + 999)
            forbidden = frozenset(gv for gv in g.vertices() if rng.below(8) == 0)
            budget = rng.below(5)
            inst = DfvcInstance(g, forbidden, budget)
            want_size, _ = dfvc_oracle(g, set(forbidden), budget)
            got = dfvc_solve(inst)
            if want_size is None:
                assert got.status is SolveStatus.NO_SOLUTION
            else:
                assert got.found and len(got.solution) == want_size
                assert verify_dfvc(inst, got.solution)
            checked += 1
        assert checked >= 80

    def test_independence_of_parts(self):
        # once edges are resolved, the total equals the sum of part minima
        for seed in range(30):
            g = random_mixed(seed, max_edges=0)
            inst = DfvcInstance(g, frozenset(), 12)
            res = dfvc_solve(inst)
            from btfvs.solvers import oracle_min_fvs
            expected = sum(len(oracle_min_fvs(p).solution) for p in g.parts)
            assert res.found and len(res.solution) == expected


def _part_min_fvs_on_remainder(part, removed, forbidden):
    """The route through the part minus ``removed``: ascending k over
    ``branch_solve`` on the induced remainder, mapped back to the part."""
    sub = part.remove(removed)
    forb = frozenset(sub.from_host[v] for v in forbidden)
    for k in range(sub.tournament.num_vertices - len(forb) + 1):
        res = branch_solve(sub.tournament, Constraints(forbidden=forb, budget=k))
        if res.found:
            return frozenset(sub.to_host[v] for v in res.solution)
    return None


class TestPartMinFvs:
    def test_matches_search_on_the_remainder(self):
        # with no forbidden vertex the remainder route also runs the
        # reduction rules, which the in-place search (removed required)
        # skips; the answer must not depend on it
        kinds = (GenKind.UNIFORM_RANDOM, GenKind.TWIN_HEAVY, GenKind.PLANTED_FVS)
        reduced_only_there = 0
        for seed in range(200):
            rng = SplitMix64(seed + 900)
            part = generate(GenSpec(3 + rng.below(4), 3 + rng.below(4), kinds[seed % 3],
                                    seed=seed, k_plant=2))
            verts = part.vertices()
            removed = {v for v in verts if rng.below(6) == 0}
            forbidden = set()
            if seed % 4:
                forbidden = {v for v in verts if v not in removed and rng.below(4) == 0}
            reduced_only_there += bool(removed) and not forbidden
            assert _part_min_fvs(part, removed, forbidden) == \
                _part_min_fvs_on_remainder(part, removed, forbidden), seed
        assert reduced_only_there >= 30
