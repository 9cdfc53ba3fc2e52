"""Deterministic instance generators.

Randomness comes from SplitMix64, a tiny published 64-bit generator chosen
for bit-exact portability: the same GenSpec yields the same instance on any
platform or Python version.  Each instance derives its own stream by mixing
the GenSpec fields into the seed, so corpora can be generated out of order
or in parallel without coordination.

A matrix's random cells are drawn in one :meth:`SplitMix64.coins` call, the
same stream as one :meth:`SplitMix64.coin` per cell in row-major order, and
the rest of the matrix is built from whole rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice

from .graph import BipartiteTournament


class SplitMix64:
    """splitmix64: state advances by the golden-gamma constant, outputs are
    finalized with two xor-shift multiplies."""

    MASK = (1 << 64) - 1
    GAMMA = 0x9E3779B97F4A7C15
    MIX1 = 0xBF58476D1CE4E5B9
    MIX2 = 0x94D049BB133111EB

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + self.GAMMA) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * self.MIX1) & self.MASK
        z = ((z ^ (z >> 27)) * self.MIX2) & self.MASK
        return z ^ (z >> 31)

    def coin(self) -> bool:
        return bool(self.next_u64() & 1)

    def coins(self, count: int) -> list[bool]:
        """``count`` successive :meth:`coin` flips, leaving the same final
        ``state``: one loop over locals instead of two calls per flip."""
        mask, gamma, mix1, mix2 = self.MASK, self.GAMMA, self.MIX1, self.MIX2
        state, out = self.state, []
        append = out.append
        for _ in range(count):
            state = (state + gamma) & mask
            z = ((state ^ (state >> 30)) * mix1) & mask
            z = ((z ^ (z >> 27)) * mix2) & mask
            append((z ^ (z >> 31)) & 1 == 1)
        self.state = state
        return out

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        span = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < span:
                return x % n

    def shuffle(self, items: list) -> list:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def sample(self, items: list, count: int) -> list:
        pool = list(items)
        self.shuffle(pool)
        return pool[:count]

    def split(self, *tags: int) -> "SplitMix64":
        """Child stream keyed by integer tags; streams are independent for
        distinct tag tuples."""
        child = SplitMix64(self.state)
        for t in tags:
            child.state = (child.state ^ (t & self.MASK)) & self.MASK
            child.next_u64()
        return child


class GenKind(Enum):
    UNIFORM_RANDOM = "uniform"
    ACYCLIC = "acyclic"
    PLANTED_FVS = "planted"
    TWIN_HEAVY = "twinheavy"


@dataclass(frozen=True)
class GenSpec:
    """Deterministic recipe for one instance.

    ``k_plant`` applies to PLANTED_FVS; ``twin_a``/``twin_b`` are the
    row/column duplication factors of TWIN_HEAVY.  A negative ``k_plant``
    or a factor below 1 raises ValueError.
    """

    m: int
    n: int
    kind: GenKind
    seed: int
    k_plant: int = 0
    twin_a: int = 1
    twin_b: int = 1

    def __post_init__(self):
        if self.k_plant < 0:
            raise ValueError(f"k_plant must be non-negative, got {self.k_plant}")
        if self.twin_a < 1 or self.twin_b < 1:
            raise ValueError(f"twin factors must be at least 1, got {self.twin_a}, {self.twin_b}")

    def stream(self) -> SplitMix64:
        base = SplitMix64(self.seed)
        tag = {GenKind.UNIFORM_RANDOM: 1, GenKind.ACYCLIC: 2,
               GenKind.PLANTED_FVS: 3, GenKind.TWIN_HEAVY: 4}[self.kind]
        return base.split(tag, self.m, self.n, self.k_plant,
                          self.twin_a, self.twin_b)

    def file_stem(self) -> str:
        return f"{self.kind.value}-{self.m}x{self.n}-{self.seed}"


def _rows(cells: list, m: int, n: int) -> list[list]:
    """``cells`` cut into ``m`` rows of ``n``, in row-major order."""
    return [cells[i * n:(i + 1) * n] for i in range(m)]


def _acyclic_orient(m: int, n: int, rng: SplitMix64) -> list[list[bool]]:
    """Random interleaving of the two sides realized as an orientation:
    a_i -> b_j exactly when a_i precedes b_j in the interleaving.  The
    b_j are in interleaving order, so row i is False for the ``p - i`` of
    them placed before a_i (at slot p) and True for the rest."""
    slots = ["A"] * m + ["B"] * n
    rng.shuffle(slots)
    a_slots = [p for p, s in enumerate(slots) if s == "A"]
    return [[False] * (p - i) + [True] * (n - p + i) for i, p in enumerate(a_slots)]


def generate(spec: GenSpec) -> BipartiteTournament:
    """Materialize the instance described by ``spec``; bit-identical across
    runs for a fixed spec."""
    rng = spec.stream()
    m, n = spec.m, spec.n
    if spec.kind is GenKind.UNIFORM_RANDOM:
        orient = _rows(rng.coins(m * n), m, n)
    elif spec.kind is GenKind.ACYCLIC:
        orient = _acyclic_orient(m, n, rng)
    elif spec.kind is GenKind.PLANTED_FVS:
        orient = _acyclic_orient(m, n, rng)
        # gids, as BipartiteTournament.vertices() lists them: a_i is i, b_j is m + j
        planted = rng.sample(range(m + n), min(spec.k_plant, m + n))
        planted_rows = {g for g in planted if g < m}
        planted_cols = sorted(g - m for g in planted if g >= m)
        # redraw every cell of a planted row or column, in row-major order
        flips = iter(rng.coins(len(planted_rows) * n
                               + (m - len(planted_rows)) * len(planted_cols)))
        for i, row in enumerate(orient):
            if i in planted_rows:
                row[:] = islice(flips, n)
            else:
                for j in planted_cols:
                    row[j] = next(flips)
    elif spec.kind is GenKind.TWIN_HEAVY:
        ta, tb = spec.twin_a, spec.twin_b
        core_m = (m + ta - 1) // ta if m else 0
        core_n = (n + tb - 1) // tb if n else 0
        core = _rows(rng.coins(core_m * core_n), core_m, core_n)
        # a_i copies core row i // ta, b_j core column j // tb
        picks = [j // tb for j in range(n)]
        wide = [list(map(row.__getitem__, picks)) for row in core]
        orient = [wide[i // ta] for i in range(m)]
    else:  # pragma: no cover
        raise ValueError(f"unknown kind {spec.kind!r}")
    return BipartiteTournament(m, n, orient)
