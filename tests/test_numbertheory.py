import math
import random

import pytest

from genjac.curve import Curve
from genjac.field import PrimeField
from genjac.groups import CyclicGroup
from genjac.numbertheory import Factorization, crt, double_and_add, factorize, is_prime, order_parts


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-2, 50):
        assert is_prime(n) == (n in primes)


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)
    assert not is_prime(1729)
    assert not is_prime(3215031751)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


def test_factorize_basics():
    assert factorize(1) == []
    assert factorize(2) == [(2, 1)]
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(17280) == [(2, 7), (3, 3), (5, 1)]
    assert factorize(97) == [(97, 1)]


def test_factorize_large_prime_fast():
    # a single Fermat-test call, not sixty-seven million trial divisions
    assert factorize(2**61 - 1) == [(2**61 - 1, 1)]
    assert factorize(6 * (2**61 - 1)) == [(2, 1), (3, 1), (2**61 - 1, 1)]


def test_factorize_rejects_hard_composites():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError, match="composite cofactor"):
        factorize((2**61 - 1) * (2**89 - 1))


def test_crt():
    x, m = crt([(2, 3), (3, 5), (2, 7)])
    assert (x, m) == (23, 105)
    assert crt([]) == (0, 1)
    with pytest.raises(ValueError, match="4 and 6 are not coprime"):
        crt([(1, 4), (2, 6)])


def test_factorization_roundtrip_and_str():
    f = Factorization.from_int(17280)
    assert f.n == 17280
    assert str(f) == "17280 = 2^7 * 3^3 * 5"
    assert Factorization.parse(str(f)) == f
    assert str(Factorization.from_int(1)) == "1 = 1"
    assert Factorization.parse("1 = 1").n == 1


def test_factorization_validates():
    with pytest.raises(ValueError):
        Factorization(12, ((2, 1), (3, 1)))  # product is 6, not 12
    with pytest.raises(ValueError):
        Factorization(16, ((4, 2),))  # 4 is not prime
    # each prime once, ascending, so that p^e is the whole p-part of n
    for factors in (((2, 1), (2, 1)), ((3, 1), (2, 1))):
        with pytest.raises(ValueError):
            Factorization(math.prod(p**e for p, e in factors), factors)
    with pytest.raises(ValueError):
        Factorization.parse("12 = 2 * 2 * 3")


def test_factorization_merge_and_primes():
    a = Factorization.from_int(144)
    b = Factorization.from_int(120)
    merged = a.merge(b)
    assert merged.n == 144 * 120
    assert merged.factors == ((2, 7), (3, 3), (5, 1))
    assert a.factors == ((2, 4), (3, 2))


def test_factorization_divisor():
    f = Factorization.from_int(2**7 * 3**4 * 139**2 * 5003)
    assert f.divisor(1) == Factorization(1, ())
    assert f.divisor(f.n) == f
    assert f.divisor(2**3 * 139**2) == Factorization(2**3 * 139**2, ((2, 3), (139, 2)))
    for d in (5, 2**8, 0):
        with pytest.raises(ValueError, match="does not divide"):
            f.divisor(d)


def _order_parts_oracle(add, identity, x, multiple):
    # one full-length ladder per prime: y0 = (n / l^e) * x, then the l-loop
    parts = []
    for l, e in multiple.factors:
        y0 = double_and_add(add, x, multiple.n // l**e)
        y, f, gamma = y0, 0, None
        while y != identity and f < e:
            gamma, y, f = y, double_and_add(add, y, l), f + 1
        parts.append((l, e, f, gamma, y0))
    return parts


def _counting(add):
    calls = [0]

    def counted(x, y):
        calls[0] += 1
        return add(x, y)

    return counted, calls


def _check_against_oracle(group, elements, multiple):
    k = len(multiple.factors)
    for x in elements:
        add, calls = _counting(group.add)
        parts = order_parts(add, group.identity, x, multiple)
        oracle_add, oracle_calls = _counting(group.add)
        assert parts == _order_parts_oracle(oracle_add, group.identity, x, multiple)
        assert calls[0] < oracle_calls[0] if k >= 3 else calls[0] == oracle_calls[0]
        # drop each prime of ord(x) in turn: the rest is no multiple of the order
        for l, e, f, _, _ in parts:
            if f:
                rest = multiple.divisor(multiple.n // l**e)
                with pytest.raises(ValueError, match="not a multiple"):
                    order_parts(group.add, group.identity, x, rest)


@pytest.mark.parametrize("n", [1, 8, 72, 360, 2520])
def test_order_parts_matches_per_prime_oracle_cyclic(n):
    # 2520 = 2^3 * 3^2 * 5 * 7; the smaller n cover k = 0 to 3 primes
    group = CyclicGroup(n)
    _check_against_oracle(group, group.elements(), Factorization.from_int(n))


def test_order_parts_matches_per_prime_oracle_curve():
    # |J| = 2^7 * 3^4 * 139^2 * 5003 at p = 10007, a multiple of every order in E(F_p)
    p = 10007
    E = Curve(PrimeField(p), 1, 0)
    rng = random.Random(1)
    points = [E.random_point(rng) for _ in range(20)]
    multiple = Factorization.from_int((p + 1) ** 2 * (p - 1))
    assert multiple.factors == ((2, 7), (3, 4), (139, 2), (5003, 1))
    _check_against_oracle(E, points, multiple)
