from __future__ import annotations

import gc
import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from btfvs import solvers
from btfvs.errors import InstanceTooLarge
from btfvs.generators import GenKind, GenSpec, SplitMix64, generate
from btfvs.graph import BipartiteTournament
from btfvs.reference import brute_squares, dfs_has_cycle
from btfvs.solvers import (Constraints, SolveStatus, approx4, branch_solve,
                           exact_min_fvs, oracle_min_fvs, reduce_instance,
                           satisfies, squares_packing_lower_bound, verify_fvs)
from btfvs.structure import _a_pairs, _on_cycles, _rows_nested, all_squares, find_square

from conftest import a, b, tournament


def two_disjoint_squares():
    """4x4 instance whose only cycles are two vertex-disjoint squares."""
    orient = [
        [True, False, True, True],
        [False, True, True, True],
        [False, False, True, False],
        [False, False, False, True],
    ]
    return tournament(orient)


def random_constraints(T, rng: SplitMix64) -> Constraints:
    vs = sorted(T.vertices())
    forbidden = set()
    required = set()
    for v in vs:
        r = rng.below(10)
        if r == 0:
            forbidden.add(v)
        elif r == 1:
            required.add(v)
    arcs = T.arcs()
    cover = set()
    if arcs:
        for _ in range(rng.below(3)):
            cover.add(arcs[rng.below(len(arcs))])
    return Constraints(frozenset(forbidden), frozenset(required),
                       frozenset(cover), budget=rng.below(6))


class TestVerify:
    def test_square_one_deletion(self, square_2x2):
        assert verify_fvs(square_2x2, {a(0)})
        assert not verify_fvs(square_2x2, set())

    def test_oracle_output_verifies(self):
        for seed in range(20):
            T = generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=seed))
            res = oracle_min_fvs(T)
            assert res.found and verify_fvs(T, res.solution)


class TestOracle:
    def test_square(self, square_2x2):
        res = oracle_min_fvs(square_2x2)
        assert res.found and len(res.solution) == 1

    def test_acyclic_empty(self):
        for seed in range(5):
            T = generate(GenSpec(4, 4, GenKind.ACYCLIC, seed=seed))
            assert oracle_min_fvs(T).solution == frozenset()

    def test_two_disjoint_squares_need_two(self):
        T = two_disjoint_squares()
        res = oracle_min_fvs(T)
        assert len(res.solution) == 2

    def test_cap(self):
        T = generate(GenSpec(9, 9, GenKind.ACYCLIC, seed=1))
        with pytest.raises(InstanceTooLarge):
            oracle_min_fvs(T)

    def test_deterministic_lex_first(self, square_2x2):
        res = oracle_min_fvs(square_2x2)
        assert res.solution == frozenset({a(0)})

    def test_respects_constraints(self):
        for seed in range(40):
            T = generate(GenSpec(4, 3, GenKind.UNIFORM_RANDOM, seed=seed))
            cons = random_constraints(T, SplitMix64(seed * 3 + 1))
            res = oracle_min_fvs(T, cons)
            if res.found:
                assert satisfies(T, res.solution, cons)

    def test_forbidden_square_is_infeasible(self, square_2x2):
        cons = Constraints(forbidden=frozenset(square_2x2.vertices()), budget=4)
        assert oracle_min_fvs(square_2x2, cons).status is SolveStatus.NO_SOLUTION


class TestApprox4:
    def test_square_ratio_exactly_four(self, square_2x2):
        out = approx4(square_2x2, 1)
        assert out is not None and len(out) == 4
        assert len(oracle_min_fvs(square_2x2).solution) == 1

    def test_acyclic(self):
        T = generate(GenSpec(5, 5, GenKind.ACYCLIC, seed=3))
        assert approx4(T, 0) == frozenset()

    def test_too_big_when_budget_tight(self):
        T = two_disjoint_squares()
        assert approx4(T, 1) is None  # two disjoint squares: opt = 2 > 1
        assert oracle_min_fvs(T).found

    def test_ratio_and_validity_on_random(self):
        for seed in range(60):
            T = generate(GenSpec(1 + seed % 6, 1 + (seed // 3) % 6,
                                 GenKind.UNIFORM_RANDOM, seed=seed))
            opt = len(oracle_min_fvs(T).solution)
            out = approx4(T, T.num_vertices)
            assert out is not None
            assert verify_fvs(T, out)
            assert len(out) <= 4 * opt


class TestPackingBound:
    def test_examples(self, square_2x2):
        T = generate(GenSpec(4, 4, GenKind.ACYCLIC, seed=2))
        assert squares_packing_lower_bound(T) == 0
        assert squares_packing_lower_bound(square_2x2) == 1
        assert squares_packing_lower_bound(two_disjoint_squares()) == 2

    def test_lower_bounds_optimum(self):
        for seed in range(40):
            T = generate(GenSpec(5, 4, GenKind.UNIFORM_RANDOM, seed=seed))
            assert squares_packing_lower_bound(T) <= len(oracle_min_fvs(T).solution)


def _index_cases(count: int):
    """(T, alive, forbidden) over seeded tournaments up to 8 per side, with
    random gid masks: alive drops about one vertex in six, forbidden takes
    about one in three."""
    kinds = (GenKind.UNIFORM_RANDOM, GenKind.TWIN_HEAVY, GenKind.PLANTED_FVS)
    for seed in range(count):
        rng = SplitMix64(seed + 7000)
        T = generate(GenSpec(1 + rng.below(8), 1 + rng.below(8), kinds[seed % 3],
                             seed=seed, k_plant=2, twin_a=2, twin_b=2))
        alive = forbidden = 0
        for g in range(T.num_vertices):
            alive |= (rng.below(6) != 0) << g
            forbidden |= (rng.below(3) == 0) << g
        yield T, alive, forbidden


def _greedy_packing(masks: list[int]) -> int:
    used = count = 0
    for mask in masks:
        if not mask & used:
            used |= mask
            count += 1
    return count


class TestSquareIndex:
    def test_packing_bound_is_the_list_greedy(self):
        # the bound, and the packing with no piece tries of the grouped
        # A-pairs from a removed mask: the greedy over the squares that miss
        # it, stopped at cap + 1
        outcomes, packed = set(), set()
        for seed, (T, alive, forbidden) in enumerate(_index_cases(300)):
            for within in (None, alive):
                masks = all_squares(T, within)
                stuck = any(mask & ~forbidden == 0 for mask in masks)
                got = squares_packing_lower_bound(T, forbidden, within)
                assert got == (None if stuck else _greedy_packing(masks))
                outcomes.add((stuck, bool(masks)))
            rng = SplitMix64(seed + 9000)
            groups = solvers._pair_groups(T, alive)
            for _ in range(4):
                removed = 0
                for g in range(T.num_vertices):
                    removed |= (rng.below(5) == 0) << g
                cap = rng.below(4)
                want = _greedy_packing([q for q in all_squares(T, alive) if not q & removed])
                assert solvers._pieces(groups, removed, cap, 0) == min(want, cap + 1)
                packed.add((want == 0, want > cap))
        assert outcomes == {(False, False), (False, True), (True, True)}
        assert packed == {(True, False), (False, False), (False, True)}

    def test_all_forbidden_square_has_no_solution(self):
        checked = 0
        for T, _, forbidden in _index_cases(150):
            masks = all_squares(T)
            if not masks:
                continue
            forbidden |= masks[len(masks) // 2]
            cons = Constraints(forbidden=frozenset(T.vertices_of_mask(forbidden)),
                               budget=T.num_vertices)
            assert branch_solve(T, cons).status is SolveStatus.NO_SOLUTION
            checked += 1
        assert checked > 50


def _piece_cases(count: int):
    """(T, removed, forbidden) on seeded uniform, planted and twin-heavy
    tournaments of at most 16 vertices, with disjoint random gid masks:
    removed takes about one vertex in twelve, forbidden one in four."""
    kinds = (GenKind.UNIFORM_RANDOM, GenKind.PLANTED_FVS, GenKind.TWIN_HEAVY)
    for seed in range(count):
        rng = SplitMix64(seed + 12000)
        m = 2 + rng.below(7)
        T = generate(GenSpec(m, 2 + rng.below(15 - m), kinds[seed % 3], seed=seed,
                             k_plant=3, twin_a=2, twin_b=2))
        removed = forbidden = 0
        for g in range(T.num_vertices):
            r = rng.below(12)
            removed |= (r < 1) << g
            forbidden |= (1 <= r < 4) << g
        yield T, removed, forbidden


class TestPieceBound:
    def test_pieces_lower_bound_the_remainder(self):
        # the squares and triangle pieces packed from a removed mask never
        # count more than the deletions the remainder needs under the
        # forbidden mask, count 0 exactly when the remainder is square-free,
        # and a cap stops the count at one above it: min(count, cap + 1),
        # which budget restarts read back from one to the next
        solved = above = 0
        for T, removed, forbidden in _piece_cases(240):
            groups = solvers._pair_groups(T, T.full_mask)
            count = solvers._pieces(groups, removed, T.num_vertices)
            assert (count == 0) == _rows_nested(T, T.full_mask & ~removed)
            for cap in range(count + 2):
                assert solvers._pieces(groups, removed, cap) == min(count, cap + 1)
            cons = Constraints(forbidden=frozenset(T.vertices_of_mask(forbidden)),
                               required_in=frozenset(T.vertices_of_mask(removed)))
            res = oracle_min_fvs(T, cons)
            if res.found:
                assert count <= len(res.solution) - removed.bit_count()
                solved += 1
            above += count > solvers._pieces(groups, removed, T.num_vertices, 0)
        assert solved >= 150 and above >= 20


@st.composite
def twinned_tournaments(draw, max_side: int = 7):
    """Tournaments whose rows and columns are drawn from a small base matrix,
    so false twins are common, with gid masks ``alive`` and ``forbidden``."""
    rows, cols = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    base = draw(st.lists(st.lists(st.booleans(), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    a_rows = draw(st.lists(st.integers(0, rows - 1), max_size=max_side))
    b_cols = draw(st.lists(st.integers(0, cols - 1), max_size=max_side))
    T = tournament([[base[r][c] for c in b_cols] for r in a_rows]) if a_rows else \
        BipartiteTournament(0, len(b_cols), [])
    masks = st.integers(0, T.full_mask)
    return T, draw(masks), draw(masks)


def _pair_scan_survivors(T, k: int) -> int:
    """The reduction's fixpoint as the A-pairs give it: R1 keeps the pairs
    and their D1 | D0 until nothing changes, then R2 truncates twin classes."""
    alive = T.full_mask
    while True:
        keep = 0
        for a, _, pairs in _a_pairs(T, alive):
            for a2, d1, d0 in pairs:
                keep |= a | a2 | d1 | d0
        if keep == alive:
            for cls in T.false_twin_classes(alive):
                keep &= ~T.mask_of(sorted(cls)[k + 1:])
        if keep == alive:
            return alive
        alive = keep


class TestStrongComponentEquivalences:
    @given(twinned_tournaments())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_on_cycles_is_the_union_of_squares(self, case):
        T, alive, _ = case
        union = 0
        for mask in all_squares(T, alive):
            union |= mask
        assert _on_cycles(T, alive) == union

    @given(twinned_tournaments(), st.integers(0, 3))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_survivors_are_the_pair_scan_fixpoint(self, case, k):
        T, _, _ = case
        assert solvers._survivors(T, k) == _pair_scan_survivors(T, k)
        # a second budget reads T's cached reduction, or redoes it
        assert solvers._survivors(T, k + 1) == _pair_scan_survivors(T, k + 1)


def _cell_fixpoint(T, k: int) -> tuple[int, bool]:
    """The reduction rules repeated until neither removes a vertex, read from
    the matrix cells: R1 keeps the vertices of the live squares
    a -> b -> a2 -> b2 -> a, R2 the k + 1 lowest of each class of live
    same-side vertices with equal live out- and in-sets.  Returns the gid
    mask of the survivors and whether R2 ever removed a vertex."""
    m, o = T.m, T.orient
    live_a, live_b = set(range(m)), set(range(T.n))
    truncated = False
    while True:
        on_a, on_b = set(), set()
        for i in live_a:
            for i2 in live_a:
                d1 = {j for j in live_b if o[i][j] and not o[i2][j]}
                d0 = {j for j in live_b if o[i2][j] and not o[i][j]}
                if d1 and d0:
                    on_a |= {i, i2}
                    on_b |= d1 | d0
        classes: dict = {}
        for i in sorted(on_a):
            key = ("A", frozenset(j for j in on_b if o[i][j]),
                   frozenset(j for j in on_b if not o[i][j]))
            classes.setdefault(key, []).append(i)
        for j in sorted(on_b):
            key = ("B", frozenset(i for i in on_a if not o[i][j]),
                   frozenset(i for i in on_a if o[i][j]))
            classes.setdefault(key, []).append(j)
        kept_a, kept_b = set(on_a), set(on_b)
        for (side, _, _), members in classes.items():
            (kept_a if side == "A" else kept_b).difference_update(members[k + 1:])
        truncated |= (kept_a, kept_b) != (on_a, on_b)
        if (kept_a, kept_b) == (live_a, live_b):
            return sum(1 << i for i in live_a) + sum(1 << (m + j) for j in live_b), truncated
        live_a, live_b = kept_a, kept_b


class TestOneReductionRound:
    def test_survivors_are_the_cell_fixpoint(self):
        # one round of R1 then R2 is the fixpoint of the two, at every
        # budget from 0 to opt + 1, computed afresh or read from T's cache
        kinds = (GenKind.UNIFORM_RANDOM, GenKind.PLANTED_FVS, GenKind.TWIN_HEAVY)
        truncated = 0
        for seed in range(45):
            spec = GenSpec(3 + seed % 5, 3 + (seed // 5) % 5, kinds[seed % 3], seed=seed + 300,
                           k_plant=3, twin_a=3, twin_b=2)
            cached = generate(spec)
            opt = len(exact_min_fvs(generate(spec)))
            for k in range(opt + 2):
                want, cut = _cell_fixpoint(cached, k)
                truncated += cut
                assert solvers._survivors(generate(spec), k) == want, (seed, k)
                assert solvers._survivors(cached, k) == want, (seed, k)
        assert truncated >= 20


_EMPTY_SIDED = [(BipartiteTournament(0, 3, []), 0b101, 0),
                (tournament([[], [], []]), 0b011, 0b100),
                (BipartiteTournament(0, 0, []), 0, 0)]


class TestRowKernels:
    """The nested-row check and the pair table's packing, against routes
    that share nothing with them."""

    @given(twinned_tournaments())
    @example(_EMPTY_SIDED[0])
    @example(_EMPTY_SIDED[1])
    @example(_EMPTY_SIDED[2])
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_verify_is_the_dfs_and_the_square_scan(self, case):
        T, s_mask, _ = case
        S = T.vertices_of_mask(s_mask)
        rest = T.full_mask & ~s_mask
        got = verify_fvs(T, S)
        assert got == (not dfs_has_cycle(T, set(T.vertices()) - set(S)))
        assert got == (find_square(T, rest) is None)

    @given(twinned_tournaments(), st.integers(0, 2 ** 32), st.integers(0, 4))
    @example(_EMPTY_SIDED[0], 0, 0)
    @example(_EMPTY_SIDED[1], 1, 2)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_packing_is_the_list_greedy_under_constraints(self, case, seed, cap):
        # the free list, one built with a forbidden mask and one whose
        # forbidden mask holds a whole square, each packed from removed
        # masks that use about one vertex in three, against the greedy over
        # all_squares' list
        T, alive, forbidden = case
        masks = all_squares(T, alive)
        rng = SplitMix64(seed)
        forbs = [0, forbidden]
        if masks:
            forbs.append(forbidden | masks[seed % len(masks)])
        for forb in forbs:
            groups = solvers._pair_groups(T, alive, forb)
            if any(q & ~forb == 0 for q in masks):
                assert groups is None
                continue
            for _ in range(3):
                removed = 0
                for g in range(T.num_vertices):
                    removed |= (rng.below(3) == 0) << g
                want = _greedy_packing([q for q in masks if not q & removed])
                assert solvers._pieces(groups, removed, cap, 0) == min(want, cap + 1)


class TestReduce:
    def test_acyclic_reduces_to_empty(self):
        T = generate(GenSpec(5, 5, GenKind.ACYCLIC, seed=7))
        red = reduce_instance(T, 3)
        assert red.tournament.num_vertices == 0

    def test_square_plus_spectator(self):
        # b2 beaten by both a-vertices joins no square and is dropped
        T = tournament([[True, False, True], [False, True, True]])
        red = reduce_instance(T, 1)
        kept = {red.to_host[v] for v in red.tournament.vertices()}
        assert b(2) not in kept
        assert len(kept) == 4

    def test_keeps_exactly_the_union_of_squares(self):
        # with k >= |V| no twin class is truncated, so only R1 acts
        for seed in range(40):
            kind = (GenKind.UNIFORM_RANDOM, GenKind.TWIN_HEAVY)[seed % 2]
            T = generate(GenSpec(2 + seed % 6, 2 + (seed // 2) % 6, kind, seed=seed,
                                 twin_a=2, twin_b=2))
            red = reduce_instance(T, T.num_vertices)
            kept = {red.to_host[v] for v in red.tournament.vertices()}
            assert kept == {v for sq in brute_squares(T) for v in sq}

    def test_twin_truncation(self):
        k = 1
        T = generate(GenSpec(8, 8, GenKind.TWIN_HEAVY, seed=11, twin_a=4, twin_b=4))
        red = reduce_instance(T, k)
        for cls in red.tournament.false_twin_classes():
            assert len(cls) <= k + 1

    def test_answer_preserved(self):
        for seed in range(60):
            kinds = [GenKind.UNIFORM_RANDOM, GenKind.TWIN_HEAVY]
            T = generate(GenSpec(2 + seed % 6, 2 + (seed // 2) % 6,
                                 kinds[seed % 2], seed=seed,
                                 twin_a=1 + seed % 3, twin_b=1 + (seed + 1) % 3))
            for k in (0, 1, 2, 3):
                red = reduce_instance(T, k)
                before = oracle_min_fvs(T, Constraints(budget=k)).found
                after = oracle_min_fvs(red.tournament, Constraints(budget=k)).found
                assert before == after, f"seed {seed} k {k}"

    def test_cached_reduction_holds_at_higher_budgets(self):
        # branch_solve reuses T's last reduction at a higher budget when R2
        # removed nothing; it must equal a fresh reduction at that budget
        reused = 0
        for seed in range(60):
            kind = (GenKind.UNIFORM_RANDOM, GenKind.TWIN_HEAVY)[seed % 2]
            T = generate(GenSpec(2 + seed % 7, 2 + (seed // 3) % 7, kind, seed=seed,
                                 twin_a=3, twin_b=2))
            for k in range(4):
                for k2 in (k, k + 1, k + 3):
                    reduce_instance(T, k)
                    got = reduce_instance(T, k2)
                    fresh = reduce_instance(BipartiteTournament(T.m, T.n, T.orient), k2)
                    assert got.k == k2
                    assert sorted(got.to_host.values()) == sorted(fresh.to_host.values())
                    assert got.tournament == fresh.tournament
                    reused += k2 > k and T._reduction[0] == k
        assert reused > 0

    def test_negative_budget_rejected(self):
        # R2 keeps k + 1 twins of each class, which means nothing for k < 0;
        # the cached survivor mask of an earlier call is not handed out either
        T = generate(GenSpec(6, 6, GenKind.TWIN_HEAVY, seed=4, twin_a=3, twin_b=2))
        for k in (-3, -1):
            with pytest.raises(ValueError, match="non-negative"):
                reduce_instance(T, k)
        reduce_instance(T, 0)
        with pytest.raises(ValueError, match="non-negative"):
            reduce_instance(T, -1)
        assert reduce_instance(T, 0).tournament.num_vertices == 4

    def test_lifted_solutions_stay_valid(self):
        for seed in range(30):
            T = generate(GenSpec(5, 5, GenKind.UNIFORM_RANDOM, seed=seed))
            opt = len(oracle_min_fvs(T).solution)
            red = reduce_instance(T, opt)
            res = oracle_min_fvs(red.tournament, Constraints(budget=opt))
            assert res.found
            lifted = {red.to_host[v] for v in res.solution}
            assert verify_fvs(T, lifted)


class TestBranchSolve:
    def test_square_budget_one(self, square_2x2):
        res = branch_solve(square_2x2, Constraints(budget=1))
        assert res.found and len(res.solution) == 1

    def test_fully_forbidden_square(self, square_2x2):
        cons = Constraints(forbidden=frozenset(square_2x2.vertices()), budget=4)
        assert branch_solve(square_2x2, cons).status is SolveStatus.NO_SOLUTION

    def test_matches_oracle_unconstrained(self):
        for seed in range(60):
            T = generate(GenSpec(1 + seed % 6, 1 + (seed // 4) % 6,
                                 GenKind.UNIFORM_RANDOM, seed=seed + 500))
            opt = len(oracle_min_fvs(T).solution)
            assert branch_solve(T, Constraints(budget=opt)).found
            if opt > 0:
                res = branch_solve(T, Constraints(budget=opt - 1))
                assert res.status is SolveStatus.NO_SOLUTION

    def test_matches_oracle_constrained(self):
        for seed in range(80):
            T = generate(GenSpec(1 + seed % 5, 1 + (seed // 5) % 5,
                                 GenKind.UNIFORM_RANDOM, seed=seed + 900))
            cons = random_constraints(T, SplitMix64(seed))
            want = oracle_min_fvs(T, cons)
            got = branch_solve(T, cons)
            assert want.status == got.status
            if got.found:
                assert satisfies(T, got.solution, cons)

    @pytest.mark.parametrize("solver", [branch_solve, oracle_min_fvs])
    @pytest.mark.parametrize("field", ["forbidden", "required_in", "cover_edges"])
    def test_constraint_vertex_outside_t_raises(self, square_2x2, solver, field):
        stray = b(99)
        named = {"cover_edges": {(a(0), stray)}}.get(field, {stray})
        with pytest.raises(ValueError, match="not a vertex"):
            solver(square_2x2, Constraints(**{field: named}, budget=3))

    def test_required_counts_against_budget(self, square_2x2):
        cons = Constraints(required_in=frozenset({a(0), b(0)}), budget=1)
        assert branch_solve(square_2x2, cons).status is SolveStatus.NO_SOLUTION
        cons2 = Constraints(required_in=frozenset({a(0), b(0)}), budget=2)
        res = branch_solve(square_2x2, cons2)
        assert res.found and res.solution == {a(0), b(0)}

    def test_pruning_keeps_the_first_solution(self, monkeypatch):
        # the piece bound and the failed-sibling exclusion only cut subtrees
        # without a solution, so the unpruned search in the same order finds
        # the same first one; cover edges branch with the exclusion too.  The
        # uniform instances have 2-5 vertices per side, the uniform, planted
        # and twin-heavy ones after them 6-9, where triangle pieces prune
        # nodes that the square packing alone would keep
        pieces, piece_prunes = solvers._pieces, [0]

        def watching(groups, used, cap, tries=solvers._PIECE_TRIES):
            count = pieces(groups, used, cap, tries)
            piece_prunes[0] += count > cap >= pieces(groups, used, cap, 0)
            return count

        monkeypatch.setattr(solvers, "_pieces", watching)
        kinds = (GenKind.UNIFORM_RANDOM, GenKind.PLANTED_FVS, GenKind.TWIN_HEAVY)
        specs = [GenSpec(2 + seed % 4, 2 + (seed // 4) % 4, GenKind.UNIFORM_RANDOM,
                         seed=seed + 3000) for seed in range(200)]
        specs += [GenSpec(6 + seed % 4, 6 + (seed // 4) % 4, kinds[seed % 3], seed=seed + 5000,
                          k_plant=2 + seed % 3, twin_a=2, twin_b=2) for seed in range(60)]
        outcomes = set()
        for spec in specs:
            T = generate(spec)
            cons = random_constraints(T, SplitMix64(spec.seed))
            for c in (cons, Constraints(budget=cons.budget)):
                want = _unpruned_branch(T, c)
                got = branch_solve(T, c)
                assert got.solution == want, f"{spec}, {c}"
                outcomes.add((bool(c.cover_edges), got.found))
        assert outcomes == {(False, False), (False, True), (True, False), (True, True)}
        assert piece_prunes[0] > 0

    @pytest.mark.parametrize("size, seed", [(9, 11), (10, 12), (10, 13), (11, 14)])
    def test_failed_siblings_stay_out(self, size, seed, monkeypatch):
        # at opt - 1 every branch fails, so no node below a sibling deletes
        # a vertex that an earlier sibling of it deleted
        T = generate(GenSpec(size, size, GenKind.UNIFORM_RANDOM, seed=seed))
        k = len(exact_min_fvs(T)) - 1
        alive = solvers._survivors(T, k)
        square_gids = solvers._square_gids
        log = []  # (removed, gids of the square branched on) per branching node

        def recording(T, mask):
            gids = square_gids(T, mask)
            log.append((alive & ~mask, gids))
            return gids

        monkeypatch.setattr(solvers, "_square_gids", recording)
        assert not branch_solve(T, Constraints(budget=k)).found
        assert log[0][0] == 0
        # a node's parent is the latest earlier node one deletion short of it
        banned = [0]  # per node: the vertices its and its ancestors' earlier siblings deleted
        for i in range(1, len(log)):
            removed = log[i][0]
            p = next(j for j in range(i - 1, -1, -1)
                     if log[j][0] & ~removed == 0 and (removed ^ log[j][0]).bit_count() == 1)
            g = (removed ^ log[p][0]).bit_length() - 1
            earlier = log[p][1][:log[p][1].index(g)]
            banned.append(banned[p] | sum(1 << h for h in earlier))
            assert removed & banned[i] == 0, f"node {i} deletes a failed sibling"
        assert any(banned), "no node had an earlier sibling"

    def test_cover_edges_enforced(self, chain_2x2):
        edge = (a(0), b(1))
        cons = Constraints(cover_edges=frozenset({edge}), budget=1)
        res = branch_solve(chain_2x2, cons)
        assert res.found
        assert a(0) in res.solution or b(1) in res.solution

    def test_descent_of_500_deletions_answers(self):
        # the first descent deletes 499 vertices, one stack frame each
        T = generate(GenSpec(500, 500, GenKind.UNIFORM_RANDOM, 1))
        res = branch_solve(T, Constraints(budget=1000))
        assert res.found and verify_fvs(T, res.solution)

    def test_search_leaves_no_reference_cycle(self):
        # the search's closure refers to itself; unbound at the end of each
        # call, it leaves nothing for the cycle collector
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            T = generate(GenSpec(9, 9, GenKind.UNIFORM_RANDOM, 2))
            assert not branch_solve(T, Constraints(budget=3)).found
            assert gc.collect() == 0
            assert exact_min_fvs(T)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


def _unpruned_branch(T, cons):
    """branch_solve's search with neither the packing bound nor the
    failed-sibling exclusion: on the same ``work`` (reduced only when
    ``cons`` is free), cover edges in sorted order first, then the deletable
    vertices of find_square's square.  Returns the first solution in that
    order, or None."""
    base = cons.required_in
    left = cons.budget - len(base)
    if left < 0:
        return None
    work, lift = T, {}
    if cons.is_free():
        red = reduce_instance(T, cons.budget)
        work, lift = red.tournament, red.to_host
    forb = work.mask_of(cons.forbidden)
    cover = [(1 << work.gid(u), 1 << work.gid(w)) for (u, w) in sorted(cons.cover_edges)]

    def rec(removed, left):
        bits = next(((bu, bw) for bu, bw in cover if not removed & (bu | bw)), None)
        if bits is None:
            sq = find_square(work, work.full_mask & ~removed)
            if sq is None:
                return removed
            bits = [1 << work.gid(v) for v in sq.vertices()]
        if left <= 0:
            return None
        for bit in bits:
            if not bit & forb:
                found = rec(removed | bit, left - 1)
                if found is not None:
                    return found
        return None

    found = rec(work.mask_of(base), left)
    if found is None:
        return None
    return frozenset({lift.get(v, v) for v in work.vertices_of_mask(found)} | base)


class TestExact:
    def test_basics(self, square_2x2):
        assert exact_min_fvs(square_2x2) == frozenset({a(0)})
        T = generate(GenSpec(4, 4, GenKind.ACYCLIC, seed=9))
        assert exact_min_fvs(T) == frozenset()

    def test_matches_oracle(self):
        for seed in range(30):
            T = generate(GenSpec(1 + seed % 7, 1 + (seed // 2) % 7,
                                 GenKind.UNIFORM_RANDOM, seed=seed + 77))
            sol = exact_min_fvs(T)
            assert verify_fvs(T, sol)
            assert len(sol) == len(oracle_min_fvs(T).solution)

    def test_planted_bound_holds(self):
        for seed in range(20):
            spec = GenSpec(5, 5, GenKind.PLANTED_FVS, seed=seed, k_plant=3)
            T = generate(spec)
            assert len(exact_min_fvs(T)) <= 3

    def test_pairs_rescanned_only_when_the_survivors_change(self, monkeypatch):
        # one A-pair scan for the bound, then one per restart whose survivor
        # mask differs from the one the last list was built for (all of T
        # for the bound's list); every other restart reuses the list
        scans, masks = [0], []

        def counting_scan(*args, _original=solvers._a_pairs):
            scans[0] += 1
            return _original(*args)

        def recording(T, constraints=None, groups=None, **kwargs):
            masks.append(solvers._survivors(T, constraints.budget))
            return branch_solve(T, constraints, groups=groups, **kwargs)

        monkeypatch.setattr(solvers, "_a_pairs", counting_scan)
        monkeypatch.setattr(solvers, "branch_solve", recording)
        kinds = (GenKind.UNIFORM_RANDOM, GenKind.TWIN_HEAVY, GenKind.PLANTED_FVS)
        rebuilt = reused = 0
        for seed in range(60):
            T = generate(GenSpec(4 + seed % 4, 4 + (seed // 3) % 4, kinds[seed % 3],
                                 seed=seed, k_plant=3, twin_a=3, twin_b=3))
            scans[0], masks[:] = 0, []
            exact_min_fvs(T)
            changes = sum(m != last for last, m in zip([T.full_mask] + masks, masks))
            assert scans[0] == 1 + changes, seed
            rebuilt += changes
            reused += len(masks) - changes
        assert rebuilt >= 20 and reused >= 20

    def test_carried_restarts_match_fresh_searches(self, monkeypatch):
        # every restart of _minimise reads and overwrites one dict of what
        # the restarts before decided at each removed set; its budgets,
        # per-restart nodes and answers equal those of a fresh branch_solve
        # at each budget, on uniform, planted and twin-heavy instances,
        # free, with a required and a forbidden vertex, and under a cap, and
        # on instances whose survivor mask grows between budgets: the corpus
        # of the rescan test, and a class of seven false twins made by
        # copying one row of a uniform tournament.  A restart that fails
        # leaves at most one record per node it visited.
        runs, overfull = [], []
        tally = {"read": 0, "failed": 0, "changed": 0, "capped": 0}

        def recording(T, constraints=None, **kwargs):
            memo = kwargs["carry"]
            tally["read"] += bool(memo)
            res = branch_solve(T, constraints, **kwargs)
            runs.append((constraints.budget, res.solution, res.stats.nodes))
            if not res.found:
                tally["failed"] += 1
                if len(memo) > res.stats.nodes:
                    overfull.append((constraints.budget, len(memo), res.stats.nodes))
            return res

        def three_ways(T, seed):
            verts = T.vertices()
            return [(T, set(), set(), None),
                    (T, {verts[seed % len(verts)]}, {verts[(seed + 3) % len(verts)]}, None),
                    (T, set(), set(), 2 + seed % 3)]

        monkeypatch.setattr(solvers, "branch_solve", recording)
        kinds = (GenKind.UNIFORM_RANDOM, GenKind.TWIN_HEAVY, GenKind.PLANTED_FVS)
        cases = []
        for seed in range(60):
            cases += three_ways(generate(GenSpec(4 + seed % 4, 4 + (seed // 3) % 4,
                                                 kinds[seed % 3], seed=seed, k_plant=3,
                                                 twin_a=3, twin_b=3)), seed)
            rows = generate(GenSpec(9, 9, GenKind.UNIFORM_RANDOM, seed=seed)).orient
            cases.append((tournament([rows[seed % 9]] * 6 + list(rows)), set(), set(), None))
        for seed in range(30):
            cases += three_ways(generate(GenSpec(10 + seed % 3, 10 + seed % 2,
                                                 GenKind.UNIFORM_RANDOM, seed=seed)), seed)
        for T, required, forbidden, cap in cases:
            runs[:] = []
            answer, nodes = solvers._minimise(T, required, forbidden, cap)
            top = T.num_vertices - len(required) - len(forbidden)
            top = top if cap is None else min(top, cap)
            fresh = []
            for k in range(runs[0][0] - len(required) if runs else top + 1, top + 1):
                res = branch_solve(T, Constraints(forbidden=forbidden, required_in=required,
                                                  budget=len(required) + k))
                fresh.append((len(required) + k, res.solution, res.stats.nodes))
                if res.found:
                    break
            assert runs == fresh
            assert not overfull, overfull
            assert nodes == sum(run[2] for run in runs)
            assert answer == (None if not runs or runs[-1][1] is None
                              else runs[-1][1] - required)
            if not required and not forbidden:
                survivors = [solvers._survivors(T, run[0]) for run in runs]
                tally["changed"] += survivors[:-1] != survivors[1:]
            tally["capped"] += answer is None and bool(runs)
        assert tally["read"] >= 120 and tally["failed"] >= 200 and tally["changed"] >= 40 \
            and tally["capped"] >= 10, tally


def _labels(T, vs):
    return None if vs is None else sorted(T.label(v) for v in vs)


def _square_layer_answers(spec):
    """(opt, square count, digest, branch nodes) on the generated instance.
    The digest covers every square-layer answer: the all_squares mask list
    in order, find_square, approx4 and reduce_instance (kept host labels) at
    opt, the packing bound, the status and solution of branch_solve at
    opt - 1, at opt and under seeded constraints, and exact_min_fvs.  The
    node counts of those three branch_solve calls are returned apart, since
    pruning may lower them without changing an answer."""
    T = generate(spec)
    opt = len(exact_min_fvs(T))
    masks = all_squares(T)
    red = reduce_instance(T, opt)
    runs = [branch_solve(T, Constraints(budget=opt - 1)),
            branch_solve(T, Constraints(budget=opt)),
            branch_solve(T, random_constraints(T, SplitMix64(spec.seed)))]
    records = [
        masks,
        find_square(T),
        _labels(T, approx4(T, opt)),
        squares_packing_lower_bound(T),
        _labels(T, red.to_host.values()),
        *[(res.status.value, _labels(T, res.solution)) for res in runs],
        _labels(T, exact_min_fvs(T)),
    ]
    digest = hashlib.sha256(repr(records).encode()).hexdigest()[:16]
    return opt, len(masks), digest, tuple(res.stats.nodes for res in runs)


PINNED_SPECS = [
    GenSpec(5, 5, GenKind.UNIFORM_RANDOM, seed=1),
    GenSpec(7, 7, GenKind.UNIFORM_RANDOM, seed=3),
    GenSpec(9, 9, GenKind.UNIFORM_RANDOM, seed=7),
    GenSpec(6, 7, GenKind.PLANTED_FVS, seed=2, k_plant=3),
    GenSpec(7, 7, GenKind.TWIN_HEAVY, seed=4, twin_a=2, twin_b=2),
    GenSpec(5, 5, GenKind.ACYCLIC, seed=5),
]


class TestSquareLayerPinned:
    """The square layer's answers, pinned to values recorded before the
    branching search gained its live square lists and its pruning; a
    change of scan order or branch order shows here.  Node counts are
    pinned apart, in ``test_node_counts``."""

    @pytest.mark.parametrize("spec, want", list(zip(PINNED_SPECS, [
        (2, 13, "a20bb1805d90d2c2"),
        (5, 56, "a4a0f142fdc1a913"),
        (6, 141, "6f08f4666eb07710"),
        (2, 14, "e9eff941e7cb055f"),
        (3, 36, "b36e45e71b722c24"),
        (0, 0, "200ccb44e2ec7983"),
    ])))
    def test_answers_unchanged(self, spec, want):
        assert _square_layer_answers(spec)[:3] == want

    @pytest.mark.parametrize("spec, nodes", list(zip(PINNED_SPECS, [
        (1, 6, 5),
        (42, 8, 1),
        (34, 82, 13),
        (1, 5, 1),
        (1, 6, 3),
        (0, 1, 1),
    ])))
    def test_node_counts(self, spec, nodes):
        # branch_solve nodes at opt - 1, at opt and under seeded constraints
        assert _square_layer_answers(spec)[3] == nodes

    @pytest.mark.parametrize("spec, start", list(zip(PINNED_SPECS, [2, 4, 4, 2, 3, 0])),
                             ids=[f"spec{i}" for i in range(len(PINNED_SPECS))])
    def test_exact_starts_at_packing_bound(self, spec, start, monkeypatch):
        # exact_min_fvs tries budgets from the root's packing bound of
        # squares and triangle pieces up to the optimum; it is never below
        # the squares-only bound, the start before pieces counted
        budgets = []

        def recording(T, constraints=None, groups=None, **kwargs):
            budgets.append(constraints.budget)
            return branch_solve(T, constraints, groups=groups, **kwargs)

        monkeypatch.setattr(solvers, "branch_solve", recording)
        T = generate(spec)
        opt = len(exact_min_fvs(T))
        assert budgets == list(range(start, opt + 1))
        assert start >= squares_packing_lower_bound(T)

    def test_search_induces_nothing(self, monkeypatch):
        # exact_min_fvs and free branch_solve search T[survivors] in T's own
        # gids, so no tournament is induced, however much the rules remove
        kinds = (GenKind.UNIFORM_RANDOM, GenKind.TWIN_HEAVY, GenKind.PLANTED_FVS)
        cases = [generate(GenSpec(3 + seed % 5, 3 + (seed // 2) % 5, kinds[seed % 3],
                                  seed=seed, k_plant=2, twin_a=3, twin_b=2))
                 for seed in range(30)]

        def unreachable(self, keep):
            raise AssertionError("the search induced a tournament")

        monkeypatch.setattr(BipartiteTournament, "induced", unreachable)
        shrunk = 0
        for T in cases:
            opt = len(exact_min_fvs(T))
            for k in (opt - 1, opt):
                assert solvers.branch_solve(T, Constraints(budget=k)).found == (k == opt)
            shrunk += solvers._survivors(T, opt) != T.full_mask
        assert shrunk > 10

    def test_mask_inputs_match_induced_route(self):
        # approx4 and false_twin_classes on a vertex mask of T equal the same
        # calls on the induced sub-tournament, mapped back to T's vertices
        checked = 0
        for seed in range(40):
            kind = (GenKind.UNIFORM_RANDOM, GenKind.TWIN_HEAVY)[seed % 2]
            T = generate(GenSpec(2 + seed % 5, 2 + (seed // 3) % 5, kind, seed=seed,
                                 twin_a=2, twin_b=2))
            rng = SplitMix64(seed)
            keep = [v for v in T.vertices() if rng.below(4)]
            sub = T.induced(keep)
            mask = T.mask_of(keep)
            for k in (0, 1, 2, T.num_vertices):
                want = approx4(sub.tournament, k)
                got = approx4(T, k, mask)
                assert got == (None if want is None else
                               frozenset(sub.to_host[v] for v in want))
                checked += got is not None and len(got) > 0
            assert T.false_twin_classes(mask) == [
                frozenset(sub.to_host[v] for v in cls)
                for cls in sub.tournament.false_twin_classes()]
        assert checked > 0
