from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btfvs.errors import FamilyCapExceeded
from btfvs.generators import GenKind, GenSpec, generate
from btfvs.matching import (consistent_with_mixed, enumerate_min_vertex_covers,
                            max_bipartite_matching, min_vertex_cover, x_preferred_cover)
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

    def test_long_search_depth(self):
        # left vertices go in order a_0, a_1, ...; a_i first tries b_i, held
        # by a_(i-1), whose search tries b_(i-1), held by a_(i-2), and so on
        # down to a_0, before a_i comes back to its free b_(i+1): searches
        # up to 1,200 deep, which a recursive search cannot take
        edges = [(a(i), b(i + 1)) for i in range(1200)]
        edges += [(a(i), b(i)) for i in range(1, 1201)] + [(a(1200), b(0))]
        assert max_bipartite_matching(edges) == \
            sorted([(a(i), b(i + 1)) for i in range(1200)] + [(a(1200), b(0))])

    def test_matches_recursive_search_on_random_edge_sets(self):
        rng = random.Random(11)
        for _ in range(300):
            pairs = [(a(i), b(j)) for i in range(6) for j in range(6)]
            edges = rng.sample(pairs, rng.randrange(len(pairs) + 1))
            edges = [(w, u) if rng.random() < 0.5 else (u, w) for (u, w) in edges]
            assert max_bipartite_matching(edges) == _recursive_matching(edges), edges


def _recursive_matching(edges):
    """The augmenting-path search written recursively, as a reference for
    the explicit-stack one: the same visit order and the same ``seen`` set
    per search, so the same matching."""
    edges = sorted(set(tuple(e) for e in edges))
    left = sorted({u if u.side == "A" else w for (u, w) in edges})
    adj = {l: sorted({w if u == l else u for (u, w) in edges if l in (u, w)}) for l in left}
    match_right = {}

    def try_augment(l, seen):
        for r in adj[l]:
            if r in seen:
                continue
            seen.add(r)
            if r not in match_right or try_augment(match_right[r], seen):
                match_right[r] = l
                return True
        return False

    for l in left:
        try_augment(l, set())
    return sorted((l, r) for r, l in match_right.items())


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
    def test_matches_bruteforce_split_scan(self):
        # on mixed-side orders, v is consistent exactly when some cut of the
        # whole order puts only in-neighbors of v before it and only
        # out-neighbors after it, among the vertices on v's other side
        outcomes = set()
        for seed in range(30):
            T = generate(GenSpec(4, 4, GenKind.UNIFORM_RANDOM, seed=seed))
            order = random.Random(seed).sample(T.vertices(), 3 + seed % 4)
            for v in T.vertices():
                splits_ok = any(
                    all(T.has_arc(u, v) for u in order[:i] if u.side != v.side)
                    and all(T.has_arc(v, u) for u in order[i:] if u.side != v.side)
                    for i in range(len(order) + 1))
                assert consistent_with_mixed(T, order, v) == splits_ok
                outcomes.add((len({u.side for u in order}), splits_ok))
        assert outcomes == {(1, False), (1, True), (2, False), (2, True)}

    def test_mixed_consistency_uses_opposite_side_only(self):
        T = tournament([[True, False], [True, True]])
        # a0 -> b0, b1 -> a0: the in-neighbor must precede the out-neighbor
        assert consistent_with_mixed(T, [b(1), b(0)], a(0))
        assert not consistent_with_mixed(T, [b(0), b(1)], a(0))
        # interleaved same-side vertices are ignored
        assert consistent_with_mixed(T, [b(1), a(1), b(0)], a(0))
        assert not consistent_with_mixed(T, [b(0), a(1), b(1)], a(0))
