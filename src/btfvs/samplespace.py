"""Explicit t-wise independent function families.

The classic polynomial construction: evaluate every polynomial of degree
less than t over a finite field at n fixed distinct points, then project
each value onto the base-q alphabet.  Any t evaluations of a random such
polynomial are exactly uniform, so the projected family is exactly (not
approximately) t-wise independent.

The field has order q^m for the smallest m with q^m >= n + 1; positions
1..n map to the nonzero field elements 1..n, which keeps the evaluation
points distinct and gives the family its exact size q^(m*t).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import NotPrimePower


def prime_power_decompose(q: int) -> tuple[int, int]:
    """q = p^e with p prime, or NotPrimePower."""
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    p = None
    x = q
    for cand in range(2, q + 1):
        if cand * cand > x and p is None:
            p = x
            break
        if x % cand == 0:
            p = cand
            break
    e = 0
    while x > 1:
        if x % p:
            raise NotPrimePower(f"{q} is not a prime power")
        x //= p
        e += 1
    return p, e


def _poly_mul_mod(a: tuple, b: tuple, mod: tuple, p: int) -> tuple:
    """Product of coefficient tuples, reduced modulo the monic ``mod``."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return tuple(_poly_remainder(out, mod, p))


def _poly_remainder(num: list, den: tuple, p: int) -> list:
    """Remainder of num / den over F_p; den is monic."""
    num = list(num)
    dd = len(den) - 1
    for top in range(len(num) - 1, dd - 1, -1):
        c = num[top]
        if c:
            shift = top - dd
            for i, di in enumerate(den):
                num[shift + i] = (num[shift + i] - c * di) % p
    return num[:dd]


def _find_irreducible(p: int, e: int) -> tuple:
    """Lexicographically first monic irreducible polynomial of degree e over
    F_p, by trial division against every monic polynomial of degree up to
    e // 2.  Coefficient tuples are constant-term first."""
    if e == 1:
        return (0, 1)
    for tail in product(range(p), repeat=e):
        cand = tail + (1,)
        if cand[0] == 0:
            continue  # divisible by x
        reducible = any(
            not any(_poly_remainder(list(cand), dtail + (1,), p))
            for d in range(1, e // 2 + 1)
            for dtail in product(range(p), repeat=d))
        if not reducible:
            return cand
    raise AssertionError("no irreducible polynomial found")  # pragma: no cover


class FiniteField:
    """F_{p^e} as polynomials over F_p modulo a fixed irreducible.

    Elements are integers 0..p^e-1, read as base-p digit vectors.
    """

    def __init__(self, p: int, e: int):
        self.p = p
        self.e = e
        self.order = p ** e
        self.modulus = _find_irreducible(p, e)

    def _digits(self, x: int) -> tuple:
        out = []
        for _ in range(self.e):
            out.append(x % self.p)
            x //= self.p
        return tuple(out)

    def _undigits(self, digits: tuple) -> int:
        val = 0
        for d in reversed(digits):
            val = val * self.p + d
        return val

    def add(self, x: int, y: int) -> int:
        dx, dy = self._digits(x), self._digits(y)
        return self._undigits(tuple((a + b) % self.p for a, b in zip(dx, dy)))

    def mul(self, x: int, y: int) -> int:
        if self.e == 1:
            return (x * y) % self.p
        prod = _poly_mul_mod(self._digits(x), self._digits(y), self.modulus, self.p)
        return self._undigits(prod)


@dataclass(frozen=True)
class SampleSpace:
    """Explicit family of functions [n] -> [q]; ``functions[f][i]`` is the
    value of function f at 1-based position i+1."""

    n: int
    t: int
    q: int
    functions: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.functions)


def _extension_degree(n: int, q: int) -> int:
    """The smallest m with q^m >= n + 1."""
    m = 1
    while q ** m < n + 1:
        m += 1
    return m


def twise_space_size(n: int, t: int, q: int) -> int:
    """Size the construction will produce, without materializing it."""
    prime_power_decompose(q)
    return q ** (_extension_degree(n, q) * t)


@lru_cache(maxsize=16)
def twise_space(n: int, t: int, q: int) -> SampleSpace:
    """Construct the full family; exact t-wise independence by evaluation of
    all degree-(t-1) polynomials, projected onto the base-q alphabet.  The
    space is immutable, so repeated calls share one cached object."""
    if n < 1 or t < 1:
        raise ValueError("need n >= 1 and t >= 1")
    p, e = prime_power_decompose(q)
    field = FiniteField(p, e * _extension_degree(n, q))
    points = list(range(1, n + 1))
    functions = []
    # coefficient tuples in lexicographic order, constant term last so the
    # all-zero polynomial comes first
    for coeffs in product(range(field.order), repeat=t):
        values = []
        for x in points:
            acc = 0
            for c in coeffs:  # Horner: acc = acc*x + c
                acc = field.add(field.mul(acc, x), c)
            values.append(acc % q)  # first e base-p digits = base-q symbol
        functions.append(tuple(values))
    return SampleSpace(n, t, q, tuple(functions))
