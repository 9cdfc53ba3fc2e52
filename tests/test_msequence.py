from __future__ import annotations

import pytest

from btfvs.errors import EmptyM, GroundSetMismatch, NotMConsistent
from btfvs.generators import GenKind, GenSpec, SplitMix64, generate
from btfvs.msequence import (BackEdgeKind, ClassKind, back_edges, classify,
                             is_conflict_back_edge, is_m_consistent, is_refinement,
                             m_sequence)
from btfvs.reference import brute_blocks, classify_brute
from btfvs.structure import canonical_sequence, is_acyclic

from conftest import a, b, tournament


def m_consistent_host(seed: int, max_side=5):
    """Random (T, M, X) with M nonempty and T - X M-consistent: draw a
    random tournament, sample M from the complement of a feedback vertex
    set, and let X be the vertices whose addition to M closes a cycle."""
    rng = SplitMix64(seed)
    m = 1 + rng.below(max_side)
    n = 1 + rng.below(max_side)
    T = generate(GenSpec(m, n, GenKind.UNIFORM_RANDOM, seed=seed))
    from btfvs.solvers import exact_min_fvs
    H = exact_min_fvs(T)
    acyclic_part = sorted(set(T.vertices()) - H)
    if not acyclic_part:
        return None
    want = 1 + rng.below(len(acyclic_part))
    M = frozenset(rng.sample(acyclic_part, want))
    X = {v for v in T.vertices() if v not in M and not is_acyclic(T, M | {v})}
    return T, M, X


def m_consistent_pair(seed: int, max_side=5):
    """Random (T, M) with T M-consistent and M nonempty: the host of
    :func:`m_consistent_host` with X removed."""
    host = m_consistent_host(seed, max_side)
    if host is None:
        return None
    T0, M0, X = host
    sub = T0.remove(X)
    return sub.tournament, frozenset(sub.from_host[v] for v in M0)


def in_host(sub, blocks):
    """Blocks of a sub-tournament mapped back to host vertices."""
    return tuple((frozenset(sub.to_host[u] for u in x),
                  frozenset(sub.to_host[u] for u in y)) for (x, y) in blocks)


def chain_with_satellites():
    """T[M] is the 4-layer chain a0,b0,a1,b1; a2 copies layer a1, b2 copies
    layer b0, and the arc a2 -> b2 runs one block backwards."""
    orient = [
        [True, True, True],    # a0 -> b0, b1, b2
        [False, True, False],  # b0 -> a1, a1 -> b1, b2 -> a1
        [False, True, True],   # b0 -> a2, a2 -> b1, a2 -> b2
    ]
    T = tournament(orient)
    M = frozenset({a(0), b(0), a(1), b(1)})
    return T, M


class TestMConsistency:
    def test_square_missing_one(self, square_2x2):
        ok, witness = is_m_consistent(square_2x2, {a(0), b(0), a(1)})
        assert not ok and witness == b(1)

    def test_empty_m(self, square_2x2):
        assert is_m_consistent(square_2x2, frozenset()) == (True, None)

    def test_acyclic_always(self):
        for seed in range(20):
            T = generate(GenSpec(4, 4, GenKind.ACYCLIC, seed=seed))
            rng = SplitMix64(seed)
            M = {v for v in T.vertices() if rng.coin()}
            assert is_m_consistent(T, M) == (True, None)

    def test_cyclic_m_reports_witness_in_m(self, square_2x2):
        ok, witness = is_m_consistent(square_2x2, square_2x2.vertices())
        assert not ok and witness in set(square_2x2.vertices())

    def test_within_ignores_outside_vertices(self, square_2x2):
        # the witness is the lowest cycle-closing vertex; m_sequence over
        # V - X ignores the closers it would otherwise report
        M = {a(0), b(0), a(1)}
        with pytest.raises(NotMConsistent):
            m_sequence(square_2x2, M)
        assert m_sequence(square_2x2, M, within=M).m_set == M
        checked = 0
        for seed in range(120):
            host = m_consistent_host(seed)
            if host is None:
                continue
            T, M, X = host
            if not X:
                assert is_m_consistent(T, M) == (True, None)
                continue
            assert is_m_consistent(T, M) == (False, min(X))
            with pytest.raises(NotMConsistent):
                m_sequence(T, M)
            assert m_sequence(T, M, within=set(T.vertices()) - X).m_set == M
            checked += 1
        assert checked > 10

    def test_m_outside_within_raises(self, square_2x2):
        with pytest.raises(ValueError):
            m_sequence(square_2x2, {a(0), b(0)}, within={a(0)})


class TestClassify:
    def test_equivalent_first_layer(self):
        # M = {a0, b0} with a0 -> b0; a1 -> b0 matches a0
        T = tournament([[True, True], [True, False]])
        c = classify(T, {a(0), b(0)}, a(1))
        assert c.kind is ClassKind.EQUIVALENT and c.block == 0

    def test_equivalent_second_layer(self):
        # b1 with a0 -> b1 matches b0
        T = tournament([[True, True]])
        c = classify(T, {a(0), b(0)}, b(1))
        assert c.kind is ClassKind.EQUIVALENT and c.block == 1

    def test_conflicting(self):
        # M = {a0, a1}, single layer; b0 between them
        T = tournament([[True], [False]])
        c = classify(T, {a(0), a(1)}, b(0))
        assert c.kind is ClassKind.CONFLICTING and c.block == 0

    def test_universal_plus(self):
        # M = {a0, b0} with a0 -> b0; a1 with b0 -> a1 can close the sort
        T = tournament([[True], [False]])
        c = classify(T, {a(0), b(0)}, a(1))
        assert c.kind is ClassKind.UNIVERSAL_PLUS

    def test_universal_minus(self):
        # M = {b0, a1} with b0 -> a1; a0 -> b0 lets a0 open the sort
        T = tournament([[True], [False]])
        c = classify(T, {b(0), a(1)}, a(0))
        assert c.kind is ClassKind.UNIVERSAL_MINUS

    def test_errors(self, square_2x2):
        with pytest.raises(EmptyM):
            classify(square_2x2, frozenset(), a(0))
        with pytest.raises(NotMConsistent):
            classify(square_2x2, {a(0), b(0), a(1)}, b(1))

    def test_totality_and_uniqueness_vs_bruteforce(self):
        checked = 0
        for seed in range(120):
            pair = m_consistent_pair(seed)
            if pair is None:
                continue
            T, M = pair
            for v in T.vertices():
                mine = classify(T, M, v)
                tags = classify_brute(T, M, v)
                assert len(tags) == 1, f"seed {seed}: {v} got {tags}"
                assert mine == tags[0]
                checked += 1
        assert checked > 200


class TestMSequence:
    def test_assembled_from_equivalents(self):
        # a1 copies a0, b1 copies b0 around the arc a0 -> b0
        T = tournament([[True, True], [True, True]])
        seq = m_sequence(T, {a(0), b(0)})
        assert seq.blocks == (
            (frozenset({a(0), a(1)}), frozenset()),
            (frozenset({b(0), b(1)}), frozenset()),
        )

    def test_universal_plus_lands_in_last_y(self):
        T = tournament([[True], [False]])
        seq = m_sequence(T, {a(0), b(0)})
        assert seq.blocks == (
            (frozenset({a(0)}), frozenset()),
            (frozenset({b(0)}), frozenset({a(1)})),
        )

    def test_full_m_reproduces_canonical(self):
        for seed in range(20):
            T = generate(GenSpec(4, 3, GenKind.ACYCLIC, seed=seed))
            seq = m_sequence(T, T.vertices())
            canon = canonical_sequence(T)
            assert len(seq) == len(canon)
            for i, layer in enumerate(canon):
                assert seq.x(i) == layer
                assert seq.y(i) == frozenset()

    def test_block_partition_properties(self):
        # partition of ``within``, canonical containment, Y misses M,
        # alternation; on M-consistent pairs and on hosts restricted to V - X
        for seed in range(120):
            host = m_consistent_host(seed)
            if host is None:
                continue
            T0, M0, X = host
            rem = T0.remove(X)
            rem_M = frozenset(rem.from_host[v] for v in M0)
            for T, M, within in ((rem.tournament, rem_M, None),
                                 (T0, M0, set(T0.vertices()) - X)):
                seq = m_sequence(T, M, within=within)
                live = set(T.vertices()) if within is None else within
                sub = T.induced(M)
                canon = [frozenset(sub.to_host[u] for u in layer)
                         for layer in canonical_sequence(sub.tournament)]
                total = 0
                union = set()
                for i, (x, y) in enumerate(seq.blocks):
                    total += len(x) + len(y)
                    union |= x | y
                    assert canon[i] <= x
                    assert not (y & M)
                    x_sides = {v.side for v in x}
                    assert len(x_sides) == 1
                    assert not any(v.side in x_sides for v in y)
                    if i + 1 < len(seq):
                        assert {v.side for v in seq.x(i + 1)} != x_sides
                assert union == live and total == len(live)
                if within is not None:
                    # the host over V - X gives the brute-force partition
                    # of T - X, in host coordinates
                    assert seq.blocks == in_host(
                        rem, brute_blocks(rem.tournament, rem_M))
                    assert seq.m_set == M

    def test_insertion_splits_one_layer(self):
        # for each conflicting vertex, the canonical sequence of T[M + v]
        # splits exactly its layer into two nonempty halves around v
        found = 0
        for seed in range(150):
            pair = m_consistent_pair(seed)
            if pair is None:
                continue
            T, M = pair
            sub = T.induced(M)
            canon = [frozenset(sub.to_host[u] for u in layer)
                     for layer in canonical_sequence(sub.tournament)]
            for v in T.vertices():
                c = classify(T, M, v)
                if c.kind is not ClassKind.CONFLICTING:
                    continue
                found += 1
                ext = T.induced(M | {v})
                got = [frozenset(ext.to_host[u] for u in layer)
                       for layer in canonical_sequence(ext.tournament)]
                assert len(got) == len(canon) + 2
                i = c.block
                assert got[:i] == canon[:i]
                assert got[i + 1] == frozenset({v})
                assert got[i] and got[i + 2]
                assert got[i] | got[i + 2] == canon[i]
                assert got[i + 3:] == canon[i + 1:]
        assert found > 20

    def test_refinement_of_canonical(self):
        for seed in range(80):
            T = generate(GenSpec(1 + seed % 5, 1 + (seed // 2) % 5,
                                 GenKind.ACYCLIC, seed=seed))
            rng = SplitMix64(seed * 13 + 1)
            vs = T.vertices()
            M = {v for v in vs if rng.coin()}
            if not M:
                M = {vs[0]}
            seq = m_sequence(T, M)
            assert is_refinement(list(canonical_sequence(T)), seq.flatten())

    def test_adjustment_single_subblock(self):
        # removing one vertex from an M-consistent tournament shifts the
        # block partition by that vertex only
        checked = 0
        for seed in range(120):
            pair = m_consistent_pair(seed)
            if pair is None:
                continue
            T, M = pair
            seq_big = m_sequence(T, M)
            for v in T.vertices():
                if v in M:
                    continue
                sub = T.remove({v})
                M_sub = frozenset(sub.from_host[u] for u in M)
                seq_small = m_sequence(sub.tournament, M_sub)
                small_blocks = in_host(sub, seq_small.blocks)
                assert len(small_blocks) == len(seq_big.blocks)
                diffs = []
                for i, ((xs, ys), (xb, yb)) in enumerate(zip(small_blocks, seq_big.blocks)):
                    if xs != xb:
                        diffs.append(("x", i, xb - xs))
                    if ys != yb:
                        diffs.append(("y", i, yb - ys))
                assert len(diffs) == 1
                assert diffs[0][2] == {v}
                checked += 1
        assert checked > 50


class TestBackEdges:
    def test_acyclic_full_m_none(self):
        for seed in range(10):
            T = generate(GenSpec(4, 4, GenKind.ACYCLIC, seed=seed))
            seq = m_sequence(T, T.vertices())
            assert back_edges(T, seq) == []

    def test_short_back_edge(self):
        T, M = chain_with_satellites()
        seq = m_sequence(T, M)
        edges = back_edges(T, seq)
        assert len(edges) == 1
        e = edges[0]
        assert (e.tail, e.head) == (a(2), b(2))
        assert e.kind is BackEdgeKind.SHORT

    def test_long_back_edge(self):
        # extend the satellite construction with a block-0 copy a3 and a
        # block-3 copy b3, wired backwards
        orient = [
            [True, True, True, True],     # a0
            [False, True, False, True],   # a1 (b0->a1, a1->b1, b2->a1, a1->b3)
            [False, True, True, True],    # a2 (satellite of layer a1)
            [True, True, False, False],   # a3: a3->b0, a3->b1, b2->a3, b3->a3
        ]
        T = tournament(orient)
        M = frozenset({a(0), b(0), a(1), b(1)})
        seq = m_sequence(T, M)
        by_pair = {(e.tail, e.head): e for e in back_edges(T, seq)}
        assert (b(3), a(3)) in by_pair
        assert by_pair[(b(3), a(3))].kind is BackEdgeKind.LONG

    def test_matches_bruteforce_block_comparison(self):
        for seed in range(60):
            pair = m_consistent_pair(seed)
            if pair is None:
                continue
            T, M = pair
            seq = m_sequence(T, M)
            idx = seq.block_index_map()
            expected = {(u, w) for (u, w) in T.arcs() if idx[u] > idx[w]}
            got = {(e.tail, e.head) for e in back_edges(T, seq)}
            assert got == expected
            for e in back_edges(T, seq):
                gap = e.tail_block - e.head_block
                assert e.kind is (BackEdgeKind.SHORT if gap == 1 else BackEdgeKind.LONG)

    def test_back_edges_never_touch_m(self):
        for seed in range(60):
            pair = m_consistent_pair(seed)
            if pair is None:
                continue
            T, M = pair
            seq = m_sequence(T, M)
            for e in back_edges(T, seq):
                assert e.tail not in M and e.head not in M


class TestConflictBackEdges:
    def test_long_always_conflict(self):
        for seed in range(80):
            pair = m_consistent_pair(seed, max_side=6)
            if pair is None:
                continue
            T, M = pair
            seq = m_sequence(T, M)
            for e in back_edges(T, seq):
                if e.kind is BackEdgeKind.LONG:
                    assert is_conflict_back_edge(T, M, e)

    def test_matches_exhaustive_square_search(self):
        for seed in range(60):
            pair = m_consistent_pair(seed)
            if pair is None:
                continue
            T, M = pair
            seq = m_sequence(T, M)
            for e in back_edges(T, seq):
                expected = any(
                    T.has_arc(e.tail, e.head) and T.has_arc(e.head, m1)
                    and T.has_arc(m1, m2) and T.has_arc(m2, e.tail)
                    for m1 in M for m2 in M)
                assert is_conflict_back_edge(T, M, e) == expected

    def test_simple_short_back_edge(self):
        # the satellite construction's short back edge closes no square
        # with two chain vertices
        T, M = chain_with_satellites()
        seq = m_sequence(T, M)
        e = back_edges(T, seq)[0]
        assert not is_conflict_back_edge(T, M, e)


class TestRefinementPredicate:
    def test_singletons_refine_anything(self):
        p1 = [{a(0)}, {a(1)}, {b(0)}]
        p2 = [{a(0), a(1)}, {b(0)}]
        assert is_refinement(p1, p2)

    def test_reflexive(self):
        p = [{a(0), a(1)}, {b(0)}]
        assert is_refinement(p, p)

    def test_coarser_fails(self):
        assert not is_refinement([{a(0), a(1)}], [{a(0)}, {a(1)}])

    def test_ground_set_mismatch(self):
        with pytest.raises(GroundSetMismatch):
            is_refinement([{a(0)}], [{a(0), a(1)}])
