from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btfvs.errors import FamilyCapExceeded
from btfvs.generators import GenKind, GenSpec, generate
from btfvs.matching import (consistent_with_mixed, enumerate_min_vertex_covers,
                            inconsistent_vertices, max_bipartite_matching,
                            min_vertex_cover, x_preferred_cover)
from btfvs.reference import max_matching_size_brute, min_vertex_covers_brute

from conftest import a, b, tournament


def edge_sets(max_l=4, max_r=4, max_edges=8):
    pairs = [(a(i), b(j)) for i in range(max_l) for j in range(max_r)]
    return st.lists(st.sampled_from(pairs), max_size=max_edges, unique=True)


class TestMatching:
    def test_simple(self):
        edges = [(a(0), b(0)), (a(0), b(1)), (a(1), b(0))]
        m = max_bipartite_matching(edges)
        assert len(m) == 2

    def test_empty(self):
        assert max_bipartite_matching([]) == []

    def test_rejects_same_side(self):
        with pytest.raises(ValueError):
            max_bipartite_matching([(a(0), a(1))])

    @given(edge_sets())
    @settings(max_examples=120, deadline=None)
    def test_size_matches_bruteforce(self, edges):
        got = max_bipartite_matching(edges)
        # it is a matching over the given edges
        seen = set()
        for (l, r) in got:
            assert (l, r) in edges or (r, l) in edges
            assert l not in seen and r not in seen
            seen.update((l, r))
        assert len(got) == max_matching_size_brute(edges)

    def test_deterministic(self):
        edges = [(a(i), b((i * 3 + 1) % 4)) for i in range(4)] + [(a(0), b(2))]
        assert max_bipartite_matching(edges) == max_bipartite_matching(list(reversed(edges)))


class TestMinVertexCovers:
    @given(edge_sets(3, 3, 6))
    @settings(max_examples=80, deadline=None)
    def test_matches_bruteforce(self, edges):
        got = set(enumerate_min_vertex_covers(edges))
        want = set(min_vertex_covers_brute(edges))
        assert got == want

    @given(edge_sets())
    @settings(max_examples=60, deadline=None)
    def test_counts_and_konig(self, edges):
        covers = enumerate_min_vertex_covers(edges)
        mu = len(max_bipartite_matching(edges))
        assert len(covers) <= 2 ** mu
        for c in covers:
            assert len(c) == mu  # König: min cover = max matching

    def test_min_cover_is_minimum(self):
        edges = [(a(0), b(0)), (a(1), b(0)), (a(1), b(1))]
        c = min_vertex_cover(edges)
        assert len(c) == len(max_bipartite_matching(edges))
        assert all(u in c or w in c for (u, w) in edges)

    def test_cap_overflow_raises_family_cap_exceeded(self):
        edges = [(a(0), b(0)), (a(1), b(1)), (a(2), b(2))]
        with pytest.raises(FamilyCapExceeded) as exc:
            enumerate_min_vertex_covers(edges, cap=2)
        assert exc.value.where == "vertex cover enumeration"
        assert exc.value.cap == 2

    def test_cap_counts_leaves_before_it_overflows(self):
        # 3 disjoint edges give 8 candidate leaves: a cap of 7 lets all of
        # them through, a cap of 6 stops at the eighth, having seen 7
        edges = [(a(0), b(0)), (a(1), b(1)), (a(2), b(2))]
        assert len(enumerate_min_vertex_covers(edges, cap=7)) == 8
        with pytest.raises(FamilyCapExceeded) as exc:
            enumerate_min_vertex_covers(edges, cap=6)
        assert exc.value.would_be == 7
        assert str(exc.value) == ("vertex cover enumeration: family of size >= 7 "
                                  "exceeds cap 6")

    def test_min_cover_forwards_cap(self):
        edges = [(a(0), b(0)), (a(1), b(1)), (a(2), b(2))]
        with pytest.raises(FamilyCapExceeded):
            min_vertex_cover(edges, cap=2)
        assert min_vertex_cover(edges, cap=8) == min_vertex_cover(edges)


class TestPreferredCover:
    def test_prefers_outside_x(self):
        q = [(a(0), b(0)), (a(1), b(1))]
        c = x_preferred_cover(q, {a(0), b(1)})
        assert c == frozenset({b(0), a(1)})

    def test_tie_break_lower_vertex(self):
        q = [(a(0), b(0))]
        assert x_preferred_cover(q, set()) == frozenset({a(0)})
        assert x_preferred_cover(q, {a(0), b(0)}) == frozenset({a(0)})

    def test_rejects_non_matching(self):
        with pytest.raises(ValueError):
            x_preferred_cover([(a(0), b(0)), (a(0), b(1))], set())


class TestInconsistency:
    def test_single_in_neighbor_consistent(self):
        T = tournament([[False]])  # b0 -> a0... order over B side
        assert inconsistent_vertices(T, [b(0)]) == frozenset()

    def test_out_before_in_inconsistent(self):
        # order (b0, b1); a0 -> b0 and b1 -> a0: out first, then in
        T = tournament([[True, False]])
        assert inconsistent_vertices(T, [b(0), b(1)]) == frozenset({a(0)})

    def test_matches_bruteforce_split_scan(self):
        for seed in range(30):
            T = generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=seed))
            order = sorted(T.b_vertices())[:3]
            got = inconsistent_vertices(T, order)
            for v in T.a_vertices():
                splits_ok = any(
                    all(T.has_arc(u, v) for u in order[:i])
                    and all(T.has_arc(v, u) for u in order[i:])
                    for i in range(len(order) + 1))
                assert (v in got) == (not splits_ok)

    def test_mixed_consistency_uses_opposite_side_only(self):
        T = tournament([[True, False], [True, True]])
        # a0 -> b0, b1 -> a0: the in-neighbor must precede the out-neighbor
        assert consistent_with_mixed(T, [b(1), b(0)], a(0))
        assert not consistent_with_mixed(T, [b(0), b(1)], a(0))
        # interleaved same-side vertices are ignored
        assert consistent_with_mixed(T, [b(1), a(1), b(0)], a(0))
        assert not consistent_with_mixed(T, [b(0), a(1), b(1)], a(0))
