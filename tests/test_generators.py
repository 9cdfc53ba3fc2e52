from __future__ import annotations

import hashlib

import pytest

from btfvs.generators import GenKind, GenSpec, SplitMix64, generate
from btfvs.solvers import exact_min_fvs
from btfvs.structure import is_acyclic


class TestSplitMix64:
    def test_known_vector(self):
        # published splitmix64 outputs for seed 0
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_below_range_and_determinism(self):
        rng1, rng2 = SplitMix64(42), SplitMix64(42)
        vals1 = [rng1.below(7) for _ in range(200)]
        vals2 = [rng2.below(7) for _ in range(200)]
        assert vals1 == vals2
        assert set(vals1) <= set(range(7))

    @pytest.mark.parametrize("seed, count", [(0, 0), (1, 1), (7, 65), (2 ** 64 - 1, 300)])
    def test_bulk_coins_are_repeated_coin_flips(self, seed, count):
        bulk, single = SplitMix64(seed), SplitMix64(seed)
        assert bulk.coins(count) == [single.coin() for _ in range(count)]
        assert bulk.state == single.state
        assert bulk.next_u64() == single.next_u64()

    def test_split_streams_diverge(self):
        base = SplitMix64(1)
        s1 = base.split(1).next_u64()
        s2 = base.split(2).next_u64()
        assert s1 != s2


U, A, P, W = (GenKind.UNIFORM_RANDOM, GenKind.ACYCLIC, GenKind.PLANTED_FVS,
              GenKind.TWIN_HEAVY)


def orient_digest(T) -> str:
    bits = "".join("1" if x else "0" for row in T.orient for x in row)
    return hashlib.sha256(f"{T.m}x{T.n}:{bits}".encode()).hexdigest()[:16]


class TestGenerate:
    @pytest.mark.parametrize("spec, pinned", [
        (GenSpec(0, 4, U, 1), "bca14c461463ef2e"),
        (GenSpec(5, 0, A, 2), "6edbeb19a325268a"),
        (GenSpec(7, 5, U, 3), "6ade1ac28878b40a"),
        (GenSpec(40, 40, U, 9), "64055b6de0794f9b"),
        (GenSpec(9, 11, A, 4), "a25ebe68ad509b65"),
        (GenSpec(30, 30, A, 0), "4503a82fff14e03c"),
        (GenSpec(6, 6, P, 3, k_plant=0), "c81c4cf3c09a763c"),
        (GenSpec(6, 6, P, 3, k_plant=2), "31a5282333e6a8dc"),
        (GenSpec(8, 5, P, 7, k_plant=5), "2cff9b9fb580259a"),
        (GenSpec(12, 12, P, 1, k_plant=20), "616c85267051e10f"),
        (GenSpec(6, 6, W, 3, twin_a=3, twin_b=2), "0f2589b401b81a39"),
        (GenSpec(13, 7, W, 5, twin_a=2, twin_b=4), "ad6115494c44a666"),
    ])
    def test_instances_pinned(self, spec, pinned):
        # digests recorded from the one-coin-per-cell generator
        assert orient_digest(generate(spec)) == pinned

    def test_deterministic(self):
        spec = GenSpec(5, 4, GenKind.UNIFORM_RANDOM, seed=77)
        assert generate(spec) == generate(spec)

    def test_acyclic_always(self):
        for seed in range(50):
            T = generate(GenSpec(1 + seed % 7, 1 + (seed // 3) % 7,
                                 GenKind.ACYCLIC, seed=seed))
            assert is_acyclic(T)

    def test_planted_bound(self):
        for seed in range(30):
            spec = GenSpec(5, 4, GenKind.PLANTED_FVS, seed=seed, k_plant=2)
            assert len(exact_min_fvs(generate(spec))) <= 2

    def test_twin_heavy_has_twin_classes(self):
        T = generate(GenSpec(6, 6, GenKind.TWIN_HEAVY, seed=3, twin_a=3, twin_b=2))
        sizes = sorted(len(c) for c in T.false_twin_classes())
        assert sizes[-1] >= 3  # duplicated rows collapse into one class

    def test_sides_respected(self):
        for kind in GenKind:
            T = generate(GenSpec(3, 5, kind, seed=11, k_plant=1))
            assert (T.m, T.n) == (3, 5)

    @pytest.mark.parametrize("change", [
        {"k_plant": -3}, {"twin_a": 0}, {"twin_b": -1},
    ])
    def test_spec_rejects_what_it_cannot_generate(self, change):
        # a negative sample size would plant m + n - 3 vertices from the end
        with pytest.raises(ValueError):
            GenSpec(5, 5, GenKind.PLANTED_FVS, seed=1, **change)

    def test_empty_sides(self):
        for kind in (GenKind.UNIFORM_RANDOM, GenKind.ACYCLIC):
            T = generate(GenSpec(0, 4, kind, seed=1))
            assert T.num_vertices == 4
