from __future__ import annotations

from itertools import product

import pytest

from btfvs.errors import NotAcyclic
from btfvs.generators import GenKind, GenSpec, SplitMix64, generate
from btfvs.graph import BipartiteTournament
from btfvs.msequence import m_sequence
from btfvs.pipeline import derive_forced_p, is_m_homogeneous
from btfvs.reference import brute_squares, dfs_has_cycle
from btfvs.structure import (all_squares, canonical_sequence, find_square,
                             is_acyclic, is_topological, some_topological_sort)

from conftest import a, b, tournament


def all_orientations(m, n):
    for bits in product([False, True], repeat=m * n):
        yield BipartiteTournament(
            m, n, [list(bits[i * n:(i + 1) * n]) for i in range(m)])


class TestFindSquare:
    def test_the_square(self, square_2x2):
        sq = find_square(square_2x2)
        assert sq == (a(0), b(0), a(1), b(1))

    def test_acyclic_has_none(self, chain_2x2):
        assert find_square(chain_2x2) is None

    def test_within_restriction(self, square_2x2):
        assert find_square(square_2x2, square_2x2.mask_of({a(0), b(0), a(1)})) is None

    def test_agrees_with_bruteforce_on_random(self):
        for seed in range(30):
            T = generate(GenSpec(5, 5, GenKind.UNIFORM_RANDOM, seed=seed))
            brute = brute_squares(T)
            found = find_square(T)
            if brute:
                assert found is not None
                assert (found.a, found.b, found.a2, found.b2) in brute
            else:
                assert found is None

    def test_all_squares_matches_bruteforce(self):
        for seed in range(20):
            T = generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=seed))
            # brute enumerates each square twice, once from each a-start
            assert set(all_squares(T)) == {T.mask_of(sq) for sq in brute_squares(T)}
            assert len(all_squares(T)) * 2 == len(brute_squares(T))

    def test_vertex_masks_match_bruteforce(self):
        # find_square and all_squares on a random vertex mask of T equal the
        # reference enumeration restricted to the same vertices
        checked = 0
        for seed in range(60):
            kind = (GenKind.UNIFORM_RANDOM, GenKind.TWIN_HEAVY)[seed % 2]
            T = generate(GenSpec(2 + seed % 6, 2 + (seed // 2) % 6, kind, seed=seed,
                                 twin_a=2, twin_b=2))
            rng = SplitMix64(seed)
            within = {v for v in T.vertices() if rng.below(4)}
            mask = T.mask_of(within)
            brute = brute_squares(T, within)
            assert find_square(T, mask) == (min(brute) if brute else None)
            assert set(all_squares(T, mask)) == {T.mask_of(sq) for sq in brute}
            checked += bool(brute)
        assert checked > 0


class TestIsAcyclic:
    def test_square_cyclic(self, square_2x2):
        assert not is_acyclic(square_2x2)

    def test_empty(self):
        assert is_acyclic(tournament([]))

    def test_exhaustive_small_vs_dfs_oracle(self):
        for m in range(4):
            for n in range(4):
                for T in all_orientations(m, n):
                    assert is_acyclic(T) == (not dfs_has_cycle(T))

    def test_square_equivalence_exhaustive(self):
        # both directions of the square/cycle equivalence, all m,n <= 3
        for m in range(4):
            for n in range(4):
                for T in all_orientations(m, n):
                    assert is_acyclic(T) == (find_square(T) is None)


class TestCanonicalSequence:
    def test_forced_peeling(self):
        # a0 -> b0, a0 -> b1, b0 -> a1, a1 -> b1
        T = tournament([[True, True], [False, True]])
        seq = canonical_sequence(T)
        assert [set(s) for s in seq] == [{a(0)}, {b(0)}, {a(1)}, {b(1)}]

    def test_single_arc(self):
        T = tournament([[True]])
        seq = canonical_sequence(T)
        assert [set(s) for s in seq] == [{a(0)}, {b(0)}]

    def test_cyclic_raises(self, square_2x2):
        with pytest.raises(NotAcyclic):
            canonical_sequence(square_2x2)

    def test_empty(self):
        assert len(canonical_sequence(tournament([]))) == 0

    def test_layer_properties_on_generated(self):
        for seed in range(50):
            T = generate(GenSpec(1 + seed % 6, 1 + (seed // 2) % 6,
                                 GenKind.ACYCLIC, seed=seed))
            seq = canonical_sequence(T)
            # partition
            union = set()
            total = 0
            for layer in seq:
                assert layer
                union |= layer
                total += len(layer)
            assert union == set(T.vertices()) and total == T.num_vertices
            # arcs go forward
            idx = {v: i for i, layer in enumerate(seq) for v in layer}
            for (u, w) in T.arcs():
                assert idx[u] < idx[w]
            # sides alternate
            for i, layer in enumerate(seq):
                sides = {v.side for v in layer}
                assert len(sides) == 1
                if i + 1 < len(seq):
                    assert sides != {v.side for v in seq.sets[i + 1]}


class TestTopological:
    def test_chain_order(self):
        T = tournament([[True, True], [False, True]])
        assert is_topological(T, [a(0), b(0), a(1), b(1)])
        assert not is_topological(T, [b(1), a(1), b(0), a(0)])

    def test_no_topological_sort_of_cycle(self, square_2x2):
        from itertools import permutations
        for perm in permutations(square_2x2.vertices()):
            assert not is_topological(square_2x2, list(perm))

    def test_some_topological_sort(self):
        for seed in range(30):
            T = generate(GenSpec(1 + seed % 5, 1 + (seed // 3) % 5,
                                 GenKind.ACYCLIC, seed=seed))
            assert is_topological(T, some_topological_sort(T))

    def test_flatten_any_order_is_topological(self):
        import random as pyrandom
        rnd = pyrandom.Random(7)
        for seed in range(20):
            T = generate(GenSpec(4, 4, GenKind.ACYCLIC, seed=seed))
            order = []
            for layer in canonical_sequence(T):
                layer = list(layer)
                rnd.shuffle(layer)
                order.extend(layer)
            assert is_topological(T, order)

    def test_cyclic_raises(self, square_2x2):
        with pytest.raises(NotAcyclic):
            some_topological_sort(square_2x2)


_GHOST = a(99)  # a vertex no 3x3 tournament has


@pytest.mark.parametrize("call", [
    lambda T: is_acyclic(T, set(T.vertices()) | {_GHOST}),
    lambda T: m_sequence(T, {a(0)}, set(T.vertices()) | {_GHOST}),
    lambda T: derive_forced_p(T, {_GHOST}),
    lambda T: is_m_homogeneous(T, {_GHOST}, set(), 2),
    lambda T: is_m_homogeneous(T, {a(0)}, {_GHOST}, 2),
], ids=["is_acyclic", "m_sequence", "derive_forced_p", "is_m_homogeneous-M",
        "is_m_homogeneous-H"])
def test_vertex_of_another_tournament_raises(call):
    T = generate(GenSpec(3, 3, GenKind.ACYCLIC, seed=1))
    with pytest.raises(ValueError, match="not a vertex"):
        call(T)
