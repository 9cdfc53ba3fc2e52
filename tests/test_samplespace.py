from __future__ import annotations

import hashlib
from itertools import combinations, product

import pytest

from btfvs.errors import NotPrimePower
from btfvs.samplespace import (FiniteField, _add_table, _times_table,
                               prime_power_decompose, twise_space, twise_space_size)


def exhaustive_independence_check(space):
    """Every t-subset of positions, every value tuple: frequency must be
    exactly |space| / q^t."""
    expect, rem = divmod(len(space), space.q ** space.t)
    assert rem == 0
    for positions in combinations(range(space.n), space.t):
        counts: dict = {}
        for f in space.functions:
            key = tuple(f[p] for p in positions)
            counts[key] = counts.get(key, 0) + 1
        for alpha in product(range(space.q), repeat=space.t):
            assert counts.get(alpha, 0) == expect, (positions, alpha)


class TestPrimePower:
    def test_decompositions(self):
        assert prime_power_decompose(2) == (2, 1)
        assert prime_power_decompose(4) == (2, 2)
        assert prime_power_decompose(8) == (2, 3)
        assert prime_power_decompose(9) == (3, 2)
        assert prime_power_decompose(7) == (7, 1)
        assert prime_power_decompose(49) == (7, 2)

    def test_rejections(self):
        for bad in (0, 1, 6, 10, 12, 100):
            with pytest.raises(NotPrimePower):
                prime_power_decompose(bad)


class TestFiniteField:
    def test_f4_is_a_field(self):
        f = FiniteField(2, 2)
        nonzero = [1, 2, 3]
        # every nonzero element has an inverse: its row of products hits 1
        for x in nonzero:
            assert 1 in {f.mul(x, y) for y in nonzero}
        # no zero divisors
        for x in nonzero:
            for y in nonzero:
                assert f.mul(x, y) != 0

    def test_associativity_distributivity_f9(self):
        f = FiniteField(3, 2)
        els = range(9)
        for x in els:
            for y in els:
                assert f.add(x, y) == f.add(y, x)
                assert f.mul(x, y) == f.mul(y, x)
        for x in (2, 5, 7):
            for y in (1, 4, 8):
                for z in (3, 6, 2):
                    assert f.mul(x, f.mul(y, z)) == f.mul(f.mul(x, y), z)
                    assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))

    def test_multiplicative_order(self):
        # the nonzero elements form a cyclic group of size p^e - 1
        f = FiniteField(2, 3)
        for x in range(1, 8):
            acc = 1
            for _ in range(7):
                acc = f.mul(acc, x)
            assert acc == 1

    def test_tables_match_field_arithmetic(self):
        for p, e in ((2, 1), (2, 3), (3, 2), (5, 2), (2, 5), (3, 3), (7, 1)):
            f = FiniteField(p, e)
            els = range(f.order)
            add = _add_table(p, e)
            assert add == [[f.add(x, y) for y in els] for x in els]
            for x in els:
                assert _times_table(f, add, x) == [f.mul(v, x) for v in els]


class TestTwiseSpace:
    def test_size_matches_field_power(self):
        # n=2, t=2, q=2: the two positions need nonzero points, so the field
        # grows to order 4 and the family has 4^2 = 16 functions
        space = twise_space(2, 2, 2)
        assert len(space) == 16
        assert twise_space_size(2, 2, 2) == 16

    def test_pairwise_exactness_small(self):
        space = twise_space(2, 2, 2)
        exhaustive_independence_check(space)

    def test_one_wise_uniform(self):
        for q in (2, 3):
            for n in (1, 3, 5):
                space = twise_space(n, 1, q)
                exhaustive_independence_check(space)

    def test_pairwise_q3(self):
        space = twise_space(3, 2, 3)
        exhaustive_independence_check(space)

    def test_full_grid_exactness(self):
        for q in (2, 3):
            for t in (1, 2):
                for n in (1, 2, 3, 4, 5):
                    exhaustive_independence_check(twise_space(n, t, q))

    def test_q4_prime_power_alphabet(self):
        space = twise_space(3, 2, 4)
        assert space.q == 4
        exhaustive_independence_check(space)

    def test_rejects_non_prime_power(self):
        with pytest.raises(NotPrimePower):
            twise_space(3, 2, 6)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            twise_space(0, 1, 2)
        with pytest.raises(ValueError):
            twise_space(1, 0, 2)

    # sha256 of repr(functions), first 16 hex digits, recorded from the
    # Horner evaluation over digit-tuple field arithmetic that the tables
    # replaced
    PINNED = {
        (1, 1, 2): "7b0d574730ade655",
        (5, 1, 3): "868f9b8a591d08ab",
        (7, 1, 4): "a7c1fd149d75ad8e",
        (1, 2, 2): "d8b7405955eee864",
        (6, 2, 2): "85f0aeb3e6b3ceb6",
        (9, 2, 2): "1f03c1418850eef9",
        (12, 2, 2): "bcef8d7fe6e65064",
        (16, 2, 2): "715f75769e9c8722",
        (12, 2, 3): "3599a5bc58611596",
        (3, 2, 4): "036c582c02a78410",
        (4, 3, 3): "5690badeac346835",
        (12, 3, 2): "40166d3d80c42260",
    }

    @pytest.mark.parametrize("shape", sorted(PINNED))
    def test_functions_pinned(self, shape):
        functions = twise_space(*shape).functions
        assert len(functions) == twise_space_size(*shape)
        assert hashlib.sha256(repr(functions).encode()).hexdigest()[:16] == self.PINNED[shape]

    def test_space_compares_by_shape(self):
        # the shape determines the functions: a fresh build equals the
        # cached one, and hashing reads three ints
        space, fresh = twise_space(3, 2, 2), twise_space.__wrapped__(3, 2, 2)
        assert space is not fresh
        assert space == fresh and hash(space) == hash(fresh)
