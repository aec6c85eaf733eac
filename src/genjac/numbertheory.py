"""Integer helpers shared across the package: primality, factoring, CRT.

It also holds the two loops that the field, curve, group and solver
layers share, written against a bare addition function: the
double-and-add ladder and the search for an element's exact order from a
factored multiple of it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

# Deterministic Miller-Rabin witnesses, valid far beyond the 2^61 field bound but only below
# MR_BOUND, the least composite that passes all twelve (Sorenson and Webster, Math. Comp. 2017).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_BOUND = 318665857834031151167461

# Trial division gives up past this; a prime cofactor is still accepted.
_TRIAL_LIMIT = 1 << 26


@functools.lru_cache(maxsize=1024)  # a factorization's few primes are re-proved on every merge and divisor
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for word-sized integers."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def quoted(n: int) -> str:
    """n for an error line: its digits, or their count when there are more than 40."""
    return str(n) if len(str(n)) <= 40 else f"<{len(str(n))} digits>"


def factorize(n: int) -> list[tuple[int, int]]:
    """Factor n into (prime, multiplicity) pairs, ascending.

    Trial division up to 2^26, then a primality test on whatever is left.
    A composite cofactor past that bound is out of desk-scale reach and
    raises ValueError rather than stalling.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    if n > 1 and is_prime(n):
        return [(n, 1)]
    factors: list[tuple[int, int]] = []
    rest = n
    d = 2
    while d * d <= rest and d <= _TRIAL_LIMIT:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            factors.append((d, e))
            # a prime cofactor ends the scan; saves the full sweep to the
            # trial limit when n has one large prime factor
            if rest > 1 and is_prime(rest):
                break
        d += 1 if d == 2 else 2
    if rest > 1:
        if not is_prime(rest):
            raise ValueError(
                f"{n} has composite cofactor {rest} beyond desk-scale trial division"
            )
        factors.append((rest, 1))
    return factors


def crt(residues: list[tuple[int, int]]) -> tuple[int, int]:
    """Combine (residue, modulus) pairs with pairwise coprime moduli.

    Returns (x, M) with x = r_i mod m_i for every pair and M the product.
    """
    x, m = 0, 1
    for r, n in residues:
        if math.gcd(m, n) != 1:
            raise ValueError(f"moduli {m} and {n} are not coprime")
        # the correction term is a multiple of m, so it leaves x mod m untouched
        x = (x + (r - x) * pow(m, -1, n) % n * m) % (m * n)
        m *= n
    return x, m


class NotAMultipleError(ValueError):
    """A claimed multiple of an element's order is not one; the message names it."""


def double_and_add(add, x, n: int):
    """n * x for n >= 1, left to right; `add` is the group law written additively."""
    acc = x
    for bit in bin(n)[3:]:
        acc = add(acc, acc)
        if bit == "1":
            acc = add(acc, x)
    return acc


def order_parts(add, identity, x, multiple: Factorization) -> list[tuple]:
    """(l, e, f, gamma, y0) per prime power l^e of a factored multiple n of ord(x).

    y0 = (n / l^e) * x generates the l-part of <x>; then y times l from y0
    until the identity: l^f is the l-part of ord(x) and gamma, the last y
    before the identity, has order l (None when f = 0).  l^e * y0 = n * x,
    so the last y also tests n.

    The cofactor multiples come from halving the list of prime powers, as
    in the divide-and-conquer order algorithms of A. V. Sutherland, *Order
    Computations in Generic Groups* (MIT PhD thesis, 2007, ch. 7): about
    log n * ceil(log2 k) group operations for k primes, not k * log n.
    """
    n, y, parts = multiple.n, x, []
    powers = [l**e for l, e in multiple.factors]
    for (l, e), y0 in zip(multiple.factors, _cofactor_multiples(add, x, powers)):
        y, f, gamma = y0, 0, None
        while y != identity and f < e:
            gamma, y, f = y, double_and_add(add, y, l), f + 1
        parts.append((l, e, f, gamma, y0))
    if y != identity:
        raise NotAMultipleError(f"{n} is not a multiple of the element's order")
    return parts


def _cofactor_multiples(add, z, powers: list[int]) -> list:
    """(prod(powers) / q) * z for each q in powers; each half starts from z times the other's product."""
    if len(powers) < 2:
        return [z] * len(powers)
    left, right = powers[: len(powers) // 2], powers[len(powers) // 2 :]
    return (_cofactor_multiples(add, double_and_add(add, z, math.prod(right)), left)
            + _cofactor_multiples(add, double_and_add(add, z, math.prod(left)), right))


@dataclass(frozen=True)
class Factorization:
    """A positive integer together with its verified prime factorization."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        # one entry per prime, ascending: order finders take each p^e as the whole p-part;
        # sizes are bounded before any power or primality test, so no claim runs long
        n, prod, last = self.n, 1, 1
        for p, e in self.factors:
            if not (0 < e <= n.bit_length() and last < p <= n and p < MR_BOUND) or not is_prime(p):
                raise ValueError(f"bad factor {quoted(p)}^{quoted(e)} in factorization of {quoted(n)}")
            prod, last = prod * p**e, p
            if prod > n:
                raise ValueError(f"factors multiply to more than {quoted(n)}")
        if prod != n:
            raise ValueError(f"factors multiply to {prod}, not {quoted(n)}")

    @classmethod
    def from_int(cls, n: int) -> "Factorization":
        return cls(n, tuple(factorize(n)))

    def merge(self, other: "Factorization") -> "Factorization":
        """Factorization of the product n * other.n."""
        exps: dict[int, int] = {}
        for p, e in self.factors + other.factors:
            exps[p] = exps.get(p, 0) + e
        return Factorization(self.n * other.n, tuple(sorted(exps.items())))

    def divisor(self, d: int) -> "Factorization":
        """Factorization of a divisor d of n, read off n's primes; nothing is factored."""
        if d < 1 or self.n % d:
            raise ValueError(f"{d} does not divide {self.n}")
        # the exponent of p in d counts the i in 1..e with p^i | d
        exps = ((p, sum(d % p**i == 0 for i in range(1, e + 1))) for p, e in self.factors)
        return Factorization(d, tuple((p, k) for p, k in exps if k))

    def __str__(self) -> str:
        if not self.factors:
            return "1 = 1"
        parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors]
        return f"{self.n} = " + " * ".join(parts)

    @classmethod
    def parse(cls, text: str) -> "Factorization":
        """Inverse of str(): e.g. '12 = 2^2 * 3'."""
        left, _, right = text.partition("=")
        n = int(left.strip())
        right = right.strip()
        if n == 1 and right in ("1", ""):
            return cls(1, ())
        factors = []
        for chunk in right.split("*"):
            base, _, exp = chunk.strip().partition("^")
            factors.append((int(base), int(exp) if exp else 1))
        return cls(n, tuple(factors))
