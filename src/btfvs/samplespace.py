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

from dataclasses import dataclass, field
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
    value of function f at 1-based position i+1.  The shape (n, t, q)
    determines the functions, so a space compares and hashes by its shape
    alone, in constant time."""

    n: int
    t: int
    q: int
    functions: tuple[tuple[int, ...], ...] = field(compare=False)

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


def _add_table(p: int, e: int) -> list[list[int]]:
    """``add[x][y]`` = x + y in F_{p^e}: base-p digits add mod p, so the
    table for p^(j+1) elements extends the one for p^j by digit j."""
    add = [[0]]
    for j in range(e):
        low = p ** j
        add = [[add[x % low][y % low] + (x // low + y // low) % p * low
                for y in range(low * p)] for x in range(low * p)]
    return add


def _times_table(gf: FiniteField, add: list[list[int]], x: int) -> list[int]:
    """``row[v]`` = v * x in ``gf``, from one field product per digit:
    multiplying by x is linear, so d * X^j + r maps to d * (X^j * x) + r * x."""
    row = [0]
    for j in range(gf.e):
        step = gf.mul(gf.p ** j, x)
        multiples = [0]
        for _ in range(gf.p - 1):
            multiples.append(add[multiples[-1]][step])
        row = [add[m][r] for m in multiples for r in row]
    return row


@lru_cache(maxsize=16)
def twise_space(n: int, t: int, q: int) -> SampleSpace:
    """Construct the full family; exact t-wise independence by evaluation of
    all degree-(t-1) polynomials, projected onto the base-q alphabet.  The
    space is immutable, so repeated calls share one cached object.

    Coefficient tuples come in lexicographic order, leading coefficient
    first, so the all-zero polynomial comes first.  Evaluation is Horner's
    rule read from tables, prefix by prefix: the values of a prefix at every
    point are shared by all its extensions, and one more coefficient c maps
    each value v at point x to v * x + c through a multiply-by-x table and an
    add table.  For t = 1 every polynomial is a constant c, valued c % q; for
    t >= 2 the add table has order^2 <= order^t entries, no more than the
    space has members."""
    if n < 1 or t < 1:
        raise ValueError("need n >= 1 and t >= 1")
    p, e = prime_power_decompose(q)
    gf = FiniteField(p, e * _extension_degree(n, q))
    order = gf.order
    # the first e base-p digits of a field element are its base-q symbol
    level = [(c % q if t == 1 else c,) * n for c in range(order)]
    if t > 1:
        add = _add_table(gf.p, gf.e)
        times = [_times_table(gf, add, x) for x in range(1, n + 1)]
        for depth in range(1, t):
            rows = add if depth < t - 1 else [[v % q for v in row] for row in add]
            nxt = []
            for values in level:
                shifted = [tx[v] for tx, v in zip(times, values)]
                nxt.extend(tuple(map(row.__getitem__, shifted)) for row in rows)
            level = nxt
    return SampleSpace(n, t, q, tuple(level))
