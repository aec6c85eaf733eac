import hashlib
import operator
import random

import pytest

from genjac.cli import main
from genjac.field import (
    ExtField,
    FieldElement,
    PrimeField,
    coeffs_to_record,
    count_mults,
)
from genjac.jacobian import make_toy_params, params_to_text
from genjac.numbertheory import double_and_add
from subjects import KERNEL_CURVES


@pytest.fixture(scope="module")
def F():
    return PrimeField(11)


@pytest.fixture(scope="module")
def K(F):
    return ExtField(F, (1, 0, 1))


def test_prime_field_construction():
    F = PrimeField(11)
    assert F.p == 11 and F.degree == 1 and F.order == 11
    assert F.name == "F_11"
    with pytest.raises(ValueError):
        PrimeField(12)
    with pytest.raises(ValueError):
        PrimeField(1 << 62)


def test_quadratic_extension_construction(F):
    K = ExtField(F, (1, 0, 1))
    assert K.degree == 2 and K.order == 121
    assert K.poly == (1, 0, 1)  # u^2 + 1, irreducible since 11 = 3 mod 4
    assert K.name == "F_11^2"
    with pytest.raises(ValueError, match="reducible over F_13"):
        ExtField(PrimeField(13), (1, 0, 1))  # -1 is a square mod 13
    with pytest.raises(ValueError):
        ExtField(F, (2, 0, 1))  # x^2 + 2 = (x+3)(x+8) mod 11


def test_extension_rejects_other_degrees_and_p2(F):
    with pytest.raises(ValueError, match="degree must be 2, got 3"):
        ExtField(F, (1, 1, 0, 1))
    with pytest.raises(ValueError, match="degree must be 2, got 1"):
        ExtField(F, (1, 1))
    with pytest.raises(ValueError, match="p = 2"):
        ExtField(PrimeField(2), (1, 1, 1))
    with pytest.raises(ValueError, match="monic"):
        ExtField(F, (1, 0, 2))


@pytest.mark.parametrize("p", [7, 11])
def test_irreducible_quadratic_count(p):
    # a monic quadratic is irreducible iff it has no root in F_p; counting
    # roots by brute force gives the independent answer (p^2 - p) / 2
    base = PrimeField(p)
    accepted = set()
    for t in range(p):
        for s in range(p):
            try:
                ExtField(base, (t, s, 1))
            except ValueError:
                continue
            accepted.add((t, s))
    rootless = {(t, s) for t in range(p) for s in range(p)
                if all((x * x + s * x + t) % p for x in range(p))}
    assert accepted == rootless
    assert len(accepted) == (p * p - p) // 2


def test_general_quadratic_arithmetic(F):
    # u^2 + u + 1 is irreducible mod 11 (discriminant -3 = 8 is a non-square)
    t, s = 1, 1
    K = ExtField(F, (t, s, 1))
    u = K([0, 1])
    assert u * u == -K(s) * u - K(t)
    els = [K(c) for c in K.all_coeffs()]
    for x in els:
        for y in els[::7]:
            # schoolbook product, reduced with u^2 = -s*u - t
            (a0, a1), (b0, b1) = x.coeffs, y.coeffs
            c0, c1, c2 = a0 * b0, a0 * b1 + a1 * b0, a1 * b1
            assert x * y == K([c0 - t * c2, c1 - s * c2])
        if not x.is_zero():
            assert x * x.inverse() == K.one
    roots = 0
    for x in els:
        r = x.sqrt()
        if r is not None:
            assert r * r == x
            roots += 1
    assert roots == 61


def test_sqrt_cost_independent_of_p():
    K = ExtField(PrimeField(10007), (1, 0, 1))
    x = K([3, 5]) * K([3, 5])
    with count_mults() as c:
        r = x.sqrt()
    assert r * r == x
    assert c.muls < 1000


def test_sqrt_nonresidue_searched_once_per_field():
    # the first root pays for the non-residue search; later roots reuse it.
    # The field is interned, so forget what an earlier test may have found.
    K = ExtField(PrimeField(10007), (1, 0, 1))
    K._nonresidue_t = None
    first, second = K([3, 5]) * K([3, 5]), K([7, 2]) * K([7, 2])
    with count_mults() as c:
        r = first.sqrt()
    assert r * r == first and c.muls >= 150
    with count_mults() as c:
        r = second.sqrt()
    assert r * r == second
    assert c.muls < 150


def test_sqrt_ends_on_broken_arithmetic(monkeypatch):
    # with one = u no power of b is ever "one", so the squaring loop must stop
    # at i = m: every call ends within a few exponentiations, never spins
    K = ExtField(PrimeField(10007), (1, 0, 1))
    values = [K(c) * K(c) for c in ((3, 5), (7, 2), (0, 1))] + [K((0, 1)), K((5, 0))]
    monkeypatch.setattr(K, "one_coeffs", (0, 1))
    monkeypatch.setattr(K, "_nonresidue_t", None)  # whatever it finds is forgotten after the test
    for x in values:
        with count_mults() as c:
            x.sqrt()
        assert c.muls <= 4 * K.order.bit_length(), x


def test_sqrt_nonresidue_search_ends_at_the_field_order(monkeypatch):
    # every candidate reads as a square: the search refuses after q - 1 of them
    K = ExtField(PrimeField(11), (1, 0, 1))
    monkeypatch.setattr(K, "_nonresidue_t", None)
    monkeypatch.setattr(ExtField, "_at", lambda field, index: field.one)
    with pytest.raises(ArithmeticError, match="^no non-square in F_11\\^2$"):
        for c in K.all_coeffs():
            K(c).sqrt()


# SHA-256 of every root, with the multiplications each took, over the five
# fields of test_sqrt_roots_and_counts_pinned; taken while the square root
# still ran on FieldElement objects, so the kernel loop must match it
SQRT_ROOTS_SHA256 = "84a41aaf7018966076acaadf71da851e39561a6c7509de91ce91333bb25a7962"


def test_sqrt_roots_and_counts_pinned():
    lines = []
    for field in (PrimeField(11), PrimeField(17), ExtField(PrimeField(11), (1, 0, 1)),
                  ExtField(PrimeField(103), (1, 0, 1)), ExtField(PrimeField(17), (14, 0, 1))):
        field._nonresidue_t = None  # interned: the first root pays for the search again
        for x in (field(c) for c in field.all_coeffs()):
            with count_mults() as c:
                r = x.sqrt()
            lines.append(f"{x.serialize()}:{'-' if r is None else r.serialize()}:{c.muls}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SQRT_ROOTS_SHA256


def test_pow_matches_the_operator_ladder(K):
    # pow_coeffs, and x**n through it, give the same value and the same counted
    # multiplications as the ladder on elements: on the KERNEL_CURVES fields, whose
    # s != 0 and t != 1 reach every term of the pair products, and at word size
    fields = [K, ExtField(PrimeField(103), (1, 0, 1)), PrimeField(10007), PrimeField(2**61 - 1),
              ExtField(PrimeField(10007), (1, 0, 1))]
    fields += [PrimeField(p) if poly is None else ExtField(PrimeField(p), poly)
               for p, poly, _, _ in KERNEL_CURVES.values()]
    for field in fields:
        q = field.order
        for x in (field._at(q // 3 + 3), field._at(q - 2), field.one, field(0)):
            for n in (1, 2, 3, 2**20, 2**20 + 1, 331, (q - 1) // 2, 2**61 + 1):
                with count_mults() as expected:
                    value = double_and_add(operator.mul, x, n)
                with count_mults() as c:
                    assert field.pow_coeffs(x.coeffs, n) == value.coeffs, (field, x, n)
                assert c.by_degree == expected.by_degree, (field, x, n)
                with count_mults() as c:
                    assert x**n == value
                assert c.by_degree == expected.by_degree, (field, x, n)
        assert field.one**0 == field._at(q - 2)**0 == field.one
        with pytest.raises(ArithmeticError):
            field(0) ** 0


def test_coercion_and_mismatch(F, K):
    assert F(4) == F(15)
    assert F(F(4)) == F(4)
    assert K(3) == K([3, 0])
    with pytest.raises(ValueError, match="mismatched field parameters"):
        K(F(3))
    with pytest.raises(ValueError, match="mismatched field parameters"):
        F(K([1, 2]))
    assert PrimeField(11) is F  # an equal field is the same object
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for x, y in [(F(3), PrimeField(7)(3)), (F(3), K(3)), (K(3), F(3)), (K(1), 3), (F(1), 3)]:
            with pytest.raises(ValueError, match="mismatched field parameters"):
                op(x, y)
    with pytest.raises(ZeroDivisionError):
        F(3) / F(0)
    with pytest.raises(ZeroDivisionError):
        K([1, 2]) / K(0)


@pytest.mark.parametrize("p, poly", [(11, None), (11, (1, 0, 1)), (7, (3, 1, 1))])
def test_arithmetic_exhaustive_against_oracle(p, poly):
    # F_11, F_11[u]/(u^2 + 1) and F_7[u]/(u^2 + u + 3): every pair of
    # elements against schoolbook arithmetic on plain ints
    K = PrimeField(p) if poly is None else ExtField(PrimeField(p), poly)
    els = [K(c) for c in K.all_coeffs()]
    zero, one = K(0).coeffs, K.one.coeffs

    def add(a, b):
        if poly is None:
            return (a + b) % p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(a, b):
        if poly is None:
            return (a - b) % p
        return tuple((x - y) % p for x, y in zip(a, b))

    def mul(a, b):
        if poly is None:
            return a * b % p
        (t, s, _), (a0, a1), (b0, b1) = poly, a, b
        c0, c1, c2 = a0 * b0, a0 * b1 + a1 * b0, a1 * b1
        return (c0 - t * c2) % p, (c1 - s * c2) % p  # u^2 = -s*u - t

    # inverses by search, independent of the norm formula
    inv = {a.coeffs: b.coeffs for a in els for b in els if mul(a.coeffs, b.coeffs) == one}
    assert len(inv) == len(els) - 1
    with count_mults() as c:
        for x in els:
            assert x.is_zero() == (x.coeffs == zero)
            assert (-x).coeffs == sub(zero, x.coeffs)
            if not x.is_zero():
                assert x.inverse().coeffs == inv[x.coeffs]
            for y in els:
                assert (x + y).coeffs == add(x.coeffs, y.coeffs)
                assert (x - y).coeffs == sub(x.coeffs, y.coeffs)
    assert c.muls == 0
    pairs = [(x, y) for x in els for y in els]
    with count_mults() as c:
        for x, y in pairs:
            assert (x * y).coeffs == mul(x.coeffs, y.coeffs)
    assert c.by_degree == {K.degree: len(pairs)}
    divisions = [(x, y) for x, y in pairs if not y.is_zero()]
    with count_mults() as c:
        for x, y in divisions:
            assert (x / y).coeffs == mul(x.coeffs, inv[y.coeffs])
    assert c.by_degree == {K.degree: len(divisions)}


def test_prime_arithmetic_pinned(F):
    assert (F(3) / F(2)).coeffs == 7
    assert F(2).inverse() == F(6)
    assert F(7) + F(8) == F(4)
    assert F(7) - F(8) == F(10)
    assert -F(4) == F(7)
    assert F(3) * F(5) == F(4)


def test_quadratic_arithmetic_pinned(K):
    u = K([0, 1])
    assert u * u == K(-1)
    a = K([2, 3])
    b = K([5, 7])
    # (2+3u)(5+7u) = 10 + 14u + 15u + 21u^2 = (10-21) + 29u = -11 + 29u = 0 + 7u
    assert a * b == K([0, 7])
    assert a * a.inverse() == K.one
    assert (a / b) * b == a


def test_fermat_and_pow(F, K):
    for c in range(1, 11):
        assert F(c) ** 10 == F.one
    for seed in range(5):
        x = K.sample(random.Random(seed))
        if not x.is_zero():
            assert x ** 120 == K.one
    assert F(3) ** 0 == F.one
    with pytest.raises(ValueError):
        F(3) ** -1
    with pytest.raises(ArithmeticError):
        F(0) ** 0
    with pytest.raises(ZeroDivisionError):
        F(0).inverse()
    with pytest.raises(ZeroDivisionError):
        K(0).inverse()


@pytest.mark.parametrize(
    "p, poly",
    [(11, None), (13, None), (17, None), (11, (1, 0, 1)), (7, (3, 1, 1)), (17, (14, 0, 1))],
    ids=["F_11", "F_13", "F_17", "F_11^2", "F_7^2-u^2+u+3", "F_17^2-u^2+14"],
)
def test_sqrt(p, poly):
    # every element against Euler's criterion; q - 1 = 2^s * t with t = 1
    # in F_17 and s = 5 in F_17[u]/(u^2+14), and F_13 and F_17 are prime
    # fields with p = 1 mod 4
    field = PrimeField(p) if poly is None else ExtField(PrimeField(p), poly)
    half = (field.order - 1) // 2
    for x in (field(c) for c in field.all_coeffs()):
        r = x.sqrt()
        if x.is_zero() or x**half == field.one:
            assert r is not None and r * r == x
        else:
            assert r is None


def test_elements_enumeration(F, K):
    assert len([F(c) for c in F.all_coeffs()]) == 11
    els = [K(c) for c in K.all_coeffs()]
    assert len(els) == 121
    assert len(set(els)) == 121


def test_sample_deterministic(K):
    a = K.sample(random.Random(42))
    b = K.sample(random.Random(42))
    assert a == b


def test_serialize_parse_roundtrip(F, K):
    x = K([10, 3])
    assert x.serialize() == "10,3"
    assert K.from_record(x.serialize()) == x
    assert coeffs_to_record((10, 3)) == "10,3"
    assert F(7).serialize() == "7"
    assert repr(x) == "(10,3) in F_11^2" and repr(F(7)) == "7 (mod 11)"


def test_hash_consistency(F, K):
    assert hash(F(4)) == hash(F(15))
    d = {K([1, 2]): "a"}
    assert d[K([1, 2])] == "a"


def test_counter_semantics(F, K):
    with count_mults() as c:
        F(3) * F(5)
        F(3) * F(5)
        K([1, 2]) * K([3, 4])
    assert c.muls == 3
    assert c.by_degree == {1: 2, 2: 1}

    # division is inverse-then-multiply and counts exactly once
    with count_mults() as c:
        F(3) / F(5)
    assert c.muls == 1 and c.inversions == {1: 1}

    # the kernels are the counter: one per mul_coeffs call at its degree,
    # none for add_coeffs or sub_coeffs
    with count_mults() as c:
        F.mul_coeffs(3, 5)
    assert c.by_degree == {1: 1}
    with count_mults() as c:
        K.mul_coeffs((1, 2), (3, 4))
    assert c.by_degree == {2: 1}
    with count_mults() as c:
        F.add_coeffs(3, 5), F.sub_coeffs(3, 5)
        K.add_coeffs((1, 2), (3, 4)), K.sub_coeffs((1, 2), (3, 4))
    assert c.muls == 0 and c.by_degree == {} and c.inversions == {}

    # inversion itself is free of counted multiplications and is counted
    # apart, by degree; read inside its block, the count is the running one
    with count_mults() as c:
        K([1, 2]).inverse()
        assert c.inversions == {2: 1}
    assert c.muls == 0 and c.inversions == {2: 1}

    # pow(x, 10): 10 = 0b1010, three squarings plus one multiply
    with count_mults() as c:
        F(3) ** 10
    assert c.muls == 4


def test_counter_nesting(F):
    with count_mults() as outer:
        F(2) * F(3)
        with count_mults() as inner:
            F(2) * F(3)
            # read inside its block, a counter gives the running count
            assert inner.muls == 1 and outer.muls == 2
            F(2) * F(3)
        F(2) * F(3)
    F(2) * F(3)
    # multiplications after a block leave its counter unchanged
    assert inner.muls == 2
    # outer keeps counting while inner is active
    assert outer.muls == 4


def test_cli_counts_by_degree_p103(tmp_path):
    # pinned counts of one verify pass and one attack at p = 103, seed 1; a
    # line fraction with no add behind it also makes y(P+Q)'s product, a
    # pairing check orders P once, and the attack runs n_A * g, k * g and each
    # factor's order search once, the group remembering them
    params = make_toy_params(103, seed=1)
    path = tmp_path / "p103.txt"
    path.write_text(params_to_text(params))
    for command, by_degree in (("verify", {1: 1437, 2: 38556}), ("attack", {1: 687, 2: 363})):
        # fields are interned: forget the square-root non-residue an earlier run found
        params.curve.field._nonresidue_t = params.ext_curve.field._nonresidue_t = None
        with count_mults() as c:
            assert main([command, "--params", str(path), "--seed", "1"]) == 0
        assert c.by_degree == by_degree


def test_cli_attack_counts_by_degree_at_the_largest_prime(tmp_path, capsys):
    # pinned counts of one attack at p = 2^61 - 1, seed 1, where every F_p
    # chord runs on word-size ints; p + 1 = 2^61 and p - 1 is smooth, and
    # n_A * g, k * g and each factor's order search run once each
    params = make_toy_params(2**61 - 1, seed=1)
    path = tmp_path / "p61.txt"
    path.write_text(params_to_text(params))
    params.curve.field._nonresidue_t = params.ext_curve.field._nonresidue_t = None
    capsys.readouterr()
    with count_mults() as c:
        assert main(["attack", "--params", str(path), "--seed", "1"]) == 0
    assert "verified: true" in capsys.readouterr().out.splitlines()
    assert c.by_degree == {1: 17258, 2: 9852}


def test_fields_are_interned(F, K):
    assert PrimeField(11) is F
    assert ExtField(F, (1, 0, 1)) is K
    assert ExtField(F, (12, 11, 1)) is K  # coefficients are reduced mod p
    assert ExtField(F, (1, 1, 1)) is not K
    # bad input is never registered, so every call rejects it
    for _ in range(2):
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(12)
        with pytest.raises(ValueError, match="reducible"):
            ExtField(F, (2, 0, 1))


def test_field_equality_and_from_record(F, K):
    assert PrimeField(11) == F
    assert ExtField(PrimeField(11), (1, 0, 1)) == K
    assert PrimeField(11) != PrimeField(7)
    y = K.from_record("4,9")
    assert y == K([4, 9])
