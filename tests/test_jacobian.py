import random
import re
from pathlib import Path

import pytest

from genjac import jacobian
from genjac.curve import ENUM_BOUND, Curve, SupportCollisionError
from genjac.field import ExtField, FieldElement, PrimeField, count_mults
from genjac.groups import ExtElement, element_order
from genjac.jacobian import (
    Modulus,
    curve_orders,
    load_params,
    make_toy_params,
    pairing_order,
    params_from_text,
    params_to_text,
    reduce_pairing_value,
    tate_by_miller,
    tate_from_group_law,
)
from genjac.numbertheory import Factorization, is_prime
from subjects import enumerate_by_definition

# the exact parameter file for p=11, seed=7; every pinned value below
# depends on this modulus
PARAMS_TEXT = """\
# genjac parameters
prng = mt19937
seed = 7
p = 11
curve.a = 1
curve.b = 0
ext.degree = 2
ext.poly = 1,0,1
modulus.M = 8,3;4,3
modulus.N = 6,4;10,1
order.curve = 12 = 2^2 * 3
order.curve_ext = 144 = 2^4 * 3^2
order.units = 120 = 2^3 * 3 * 5
"""

# raw and reduced pairing values for every point of E(F_11), all at
# pairing order 12, cross-checked against the independent accumulator
TATE_TABLE = {
    "inf": ("1,0", "1,0"),
    "0;0": ("4,0", "1,0"),
    "5;3": ("10,5", "5,8"),
    "5;8": ("2,10", "5,3"),
    "7;3": ("5,10", "6,8"),
    "7;8": ("3,5", "6,3"),
    "8;5": ("6,10", "6,3"),
    "8;6": ("7,3", "6,8"),
    "9;1": ("10,6", "5,3"),
    "9;10": ("1,6", "5,8"),
    "10;3": ("0,6", "10,0"),
    "10;8": ("0,4", "10,0"),
}


def test_params_text_is_stable(toy, readme):
    assert params_to_text(toy) == PARAMS_TEXT
    assert ("$ genjac gen-params --p 11 --seed 7 --out params.txt\nwrote params.txt\n"
            f"$ cat params.txt\n{PARAMS_TEXT}") in readme


def test_params_roundtrip(toy):
    parsed = params_from_text(PARAMS_TEXT)
    assert params_to_text(parsed) == PARAMS_TEXT
    assert parsed.modulus.M == toy.modulus.M
    assert parsed.modulus.N == toy.modulus.N
    assert parsed.curve_order.n == 12
    assert parsed.ext_curve_order.n == 144
    assert parsed.unit_order.n == 120


def test_params_roundtrip_at_largest_prime():
    # 2^61 - 1 = 3 mod 4 is the largest prime under the 2^61 bound; every
    # square root in F_{p^2} must avoid a search linear in p.  In the other
    # three, p - 1 and p + 1 each have a prime factor above the 2^26 trial
    # division bound, so (p+1)^2 and p^2 - 1 factor only through p +- 1
    for p in (2**61 - 1, 751470104887, 645287597312663, 1119299203706606807):
        params = make_toy_params(p, seed=1)
        text = params_to_text(params)
        assert params_to_text(params_from_text(text)) == text


def test_params_parse_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown"):
        params_from_text(PARAMS_TEXT + "extra.key = 1\n")
    with pytest.raises(ValueError, match="duplicate"):
        params_from_text(PARAMS_TEXT + "p = 11\n")
    with pytest.raises(ValueError, match="missing"):
        params_from_text(PARAMS_TEXT.replace("modulus.N = 6,4;10,1\n", ""))
    with pytest.raises(ValueError):
        params_from_text(PARAMS_TEXT.replace("order.units = 120 = 2^3 * 3 * 5",
                                             "order.units = 60 = 2^2 * 3 * 5"))


@pytest.mark.parametrize("line, spelled, lineno", [
    ("seed = 1", "01", 3),
    ("p = 103", "0103", 4),
    ("ext.degree = 2", "02", 7),
    ("ext.poly = 1,0,1", "1, 0, 1", 8),
    ("curve.b = 0", "+0", 6),
    ("curve.b = 0", "00", 6),
    ("order.curve = 104 = 2^3 * 13", "104=2^3*13", 11),
])
def test_params_parse_rejects_values_spelled_unlike_the_writer(line, spelled, lineno):
    # each spelling names the same value, so it would load and then be rewritten differently
    text = params_to_text(make_toy_params(103, seed=1))
    key, written = line.split(" = ", 1)
    assert f"\n{line}\n" in text
    message = f"line {lineno}: {key}: write '{written}', not '{spelled}'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        params_from_text(text.replace(f"\n{line}\n", f"\n{key} = {spelled}\n"))


def test_modulus_validation(toy):
    EK = toy.ext_curve
    M, N = toy.modulus.M, toy.modulus.N
    with pytest.raises(ValueError):
        Modulus(M, M)  # points must be distinct
    with pytest.raises(ValueError):
        Modulus(M, EK.identity)  # and affine
    with pytest.raises(ValueError, match="N != -M"):
        Modulus(M, EK.neg(M))
    with pytest.raises(ValueError, match="outside the base field"):
        Modulus(EK.parse_point("5;3"), N)
    with pytest.raises(ValueError, match="outside the base field"):
        Modulus(toy.curve.parse_point("5;3"), toy.curve.parse_point("7;8"))  # a curve over F_p
    assert EK.sub(M, N) == EK.add(M, EK.neg(N))


def test_toy_params_validation():
    with pytest.raises(ValueError):
        make_toy_params(13, seed=0)  # 13 = 1 mod 4
    with pytest.raises(ValueError):
        make_toy_params(15, seed=0)  # not prime
    # same seed, same modulus; the parameters are fully reproducible
    a = make_toy_params(11, seed=3)
    b = make_toy_params(11, seed=3)
    assert params_to_text(a) == params_to_text(b)
    c = make_toy_params(11, seed=4)
    assert c.modulus.M != a.modulus.M or c.modulus.N != a.modulus.N


def test_lying_ext_order_rejected_at_p10007():
    # p(p+1) is a multiple of the exponent p+1 of E(F_{p^2}) inside the
    # Hasse interval, so no n*P = O check can tell it from (p+1)^2
    p = 10007
    text = params_to_text(make_toy_params(p, seed=1))
    true_line = f"order.curve_ext = {Factorization.from_int((p + 1) ** 2)}"
    lie = Factorization.from_int(p * (p + 1))
    assert true_line in text
    with pytest.raises(ValueError, match=f"^curve order is 100160064, claimed {lie.n}$"):
        params_from_text(text.replace(true_line, f"order.curve_ext = {lie}"))


@pytest.mark.parametrize("line, spelled, lineno", [
    ("prng = mt19937", "pcg64", 2),
    ("seed = 1", "01", 3),
])
def test_misspelt_file_refused_before_the_curve_count(monkeypatch, line, spelled, lineno):
    # the O(p) count comes after every cheap check, so a bad spelling never reaches it
    text = params_to_text(make_toy_params(10007, seed=1))
    key, written = line.split(" = ", 1)
    assert f"\n{line}\n" in text

    def uncalled(E):
        raise AssertionError("curve_orders ran before the spelling check")

    monkeypatch.setattr(jacobian, "curve_orders", uncalled)
    message = f"line {lineno}: {key}: write '{written}', not '{spelled}'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        params_from_text(text.replace(f"\n{line}\n", f"\n{key} = {spelled}\n"))


def _general_quadratic(base):
    # u^2 + u + t for the first t that makes it irreducible
    for t in range(base.p):
        try:
            return ExtField(base, (t, 1, 1))
        except ValueError:
            continue


def test_curve_orders_match_enumeration():
    # the Weil relation against counting E(F_p^2) point by point, on
    # ordinary and supersingular curves and a non-default ext.poly
    traces = set()
    for p in (7, 11, 13, 19, 23):
        base = PrimeField(p)
        K = _general_quadratic(base)
        for a, b in ((1, 0), (1, 1), (2, 3), (0, 1), (3, 5)):
            try:
                E = Curve(base, a, b)
            except ValueError:
                continue  # singular
            n, n_ext = curve_orders(E)
            assert n == len(enumerate_by_definition(E))
            assert n_ext == len(enumerate_by_definition(E.extend(K)))
            traces.add(p + 1 - n)
    assert 0 in traces and len(traces) > 5


def test_curve_orders_above_enumeration_bound():
    p = 2**61 - 1  # = 3 mod 4
    base = PrimeField(p)
    assert curve_orders(Curve(base, 1, 0)) == (p + 1, (p + 1) ** 2)
    with pytest.raises(ValueError, match=r"only y\^2 = x\^3 \+ ax"):
        curve_orders(Curve(base, 1, 1))  # not supersingular by this argument
    q = next(q for q in range(ENUM_BOUND + 1, ENUM_BOUND + 1000, 4) if is_prime(q))  # = 1 mod 4
    with pytest.raises(ValueError, match="only y"):
        curve_orders(Curve(PrimeField(q), 1, 0))
    with pytest.raises(ValueError, match="prime field"):
        curve_orders(Curve(base, 1, 0).extend(ExtField(base, (1, 0, 1))))


def test_load_params_cost_is_linear_in_p(tmp_path):
    # counting E(F_p) costs 4 products per field element, and the two modulus
    # points' on-curve checks 4 each; enumerating E(F_{p^2}) would cost 4p^2
    for p in (11, 103, 1019, 10007):
        path = tmp_path / f"p{p}.txt"
        path.write_text(params_to_text(make_toy_params(p, seed=1)))
        with count_mults() as counter:
            load_params(str(path))
        assert counter.by_degree == {1: 4 * p, 2: 8}


def test_modulus_points_have_irrational_x(toy):
    # the sampling rule behind collision-free base-curve arithmetic: x lies
    # outside F_11 exactly when Frobenius moves it
    K = toy.ext_curve.field
    for X in (toy.modulus.M, toy.modulus.N):
        assert K(X.x) ** 11 != K(X.x)


def test_cocycle_pinned_values(toy):
    c = toy.modulus_cocycle()
    E = toy.curve
    P = E.parse_point("5;3")
    P2 = E.parse_point("5;8")
    assert c(P, P) == (4, 4)
    assert c(P, P2) == (10, 6)


def test_cocycle_normalization_and_symmetry(toy, rng):
    c = toy.modulus_cocycle()
    E = toy.curve
    K = toy.ext_curve.field
    for _ in range(10):
        P = E.random_point(rng)
        Q = E.random_point(rng)
        assert c(E.identity, P) == K.one_coeffs
        assert c(P, E.identity) == K.one_coeffs
        assert c(P, Q) == c(Q, P)
    assert c(E.identity, E.identity) == K.one_coeffs


def test_extension_law_matches_display_formula(toy, rng):
    jac = toy.jacobian()
    c = toy.modulus_cocycle()
    E = toy.curve
    U = toy.units()
    K = U.field
    for _ in range(30):
        x = ExtElement(E.random_point(rng), U.sample(rng))
        y = ExtElement(E.random_point(rng), U.sample(rng))
        got = jac.add(x, y)
        assert got.a_part == E.add(x.a_part, y.a_part)
        assert got.b_part == (K(x.b_part) * K(y.b_part) * K(c(x.a_part, y.a_part))).coeffs


def test_pinned_double_of_embedded_point(toy):
    jac = toy.jacobian()
    P = toy.curve.parse_point("5;3")
    one = toy.ext_curve.field.one_coeffs
    s = jac.add(ExtElement(P, one), ExtElement(P, one))
    assert jac.serialize(s) == "5;8|4,4"


def test_inverse_absorbs_cocycle(toy, rng):
    jac = toy.jacobian()
    E = toy.curve
    U = toy.units()
    for _ in range(30):
        x = ExtElement(E.random_point(rng), U.sample(rng))
        assert jac.add(x, jac.neg(x)) == jac.identity


def test_pairing_order_is_lcm(toy):
    E = toy.curve
    EK = toy.ext_curve
    d = element_order(EK, EK.sub(toy.modulus.M, toy.modulus.N), toy.ext_curve_order)
    for P in E.enumerate_points():
        m = pairing_order(P, toy)
        if P.is_infinity:
            assert m == d
            continue
        r = element_order(E, P, toy.curve_order)
        assert m % r == 0 and m % d == 0
        assert m == (r * d) // __import__("math").gcd(r, d)


@pytest.mark.parametrize("p, seed", [(11, 7), (103, 1)])
def test_modulus_order_by_repeated_addition(p, seed):
    params = make_toy_params(p, seed)
    EK = params.ext_curve
    D = EK.sub(params.modulus.M, params.modulus.N)
    acc, k = D, 1
    while not acc.is_infinity and k <= params.ext_curve_order.n:  # a wrong law fails, not hangs
        acc, k = EK.add(acc, D), k + 1
    assert params.modulus_order == k


def test_modulus_order_is_found_once(tmp_path, monkeypatch):
    calls = []
    counted = jacobian.element_order

    def counting(P, group_order):
        calls.append(P)
        return counted(P, group_order)

    monkeypatch.setattr(jacobian, "element_order", counting)
    path = tmp_path / "p103.txt"
    path.write_text(params_to_text(make_toy_params(103, seed=1)))
    params = load_params(str(path))
    assert calls == []
    P = params.curve.random_point(random.Random(1))
    first = pairing_order(P, params)
    assert len(calls) == 2
    assert pairing_order(P, params) == first
    assert len(calls) == 3


def test_tate_table(toy):
    E = toy.curve
    M, N = toy.modulus.M, toy.modulus.N
    for P in E.enumerate_points():
        m = pairing_order(P, toy)
        assert m == 12
        raw_expect, reduced_expect = TATE_TABLE[P.serialize()]
        raw = tate_from_group_law(P, toy)
        assert raw.serialize() == raw_expect
        assert tate_by_miller(P, M, N, m).serialize() == raw_expect
        reduced = reduce_pairing_value(raw, m, toy.unit_order.n)
        assert reduced.serialize() == reduced_expect


def test_miller_does_not_use_the_group_law(toy, monkeypatch):
    # the Miller loop is the oracle for the group-law route, so it must
    # reach TATE_TABLE with the fields' chord kernels, the line kernel and
    # Curve.add unavailable
    points = toy.curve.enumerate_points()
    M, N = toy.modulus.M, toy.modulus.N

    def refuse(*args, **kwargs):
        raise AssertionError("the Miller loop called the group law")

    monkeypatch.setattr(Curve, "add", refuse)
    for field in (PrimeField, ExtField):
        monkeypatch.setattr(field, "chord_sum_coeffs", refuse)
    monkeypatch.setattr(ExtField, "line_coeffs", refuse)
    for P in points:
        assert tate_by_miller(P, M, N, 12).serialize() == TATE_TABLE[P.serialize()][0]


def test_group_law_extraction_kills_curve_component(toy):
    jac = toy.jacobian()
    one = toy.ext_curve.field.one_coeffs
    for P in toy.curve.enumerate_points():
        m = pairing_order(P, toy)
        total = jac.scalar_mul(m, ExtElement(P, one))
        assert total.a_part.is_infinity


def test_group_law_extraction_refuses_a_surviving_curve_part(toy, monkeypatch):
    # a pairing order that does not kill P leaves an affine curve part
    monkeypatch.setattr(jacobian, "pairing_order", lambda P, params: 1)
    with pytest.raises(ArithmeticError, match="failed to kill the curve component"):
        tate_from_group_law(toy.curve.point(0, 0), toy)


def test_group_law_extraction_takes_the_callers_pairing_order(toy, monkeypatch):
    # with m given, no pairing order is searched and TATE_TABLE still reads the
    # same; an m that does not kill P is refused as before
    given = [(P, pairing_order(P, toy)) for P in toy.curve.enumerate_points()]

    def refuse(P, params):
        raise AssertionError("searched the pairing order the caller gave")

    monkeypatch.setattr(jacobian, "pairing_order", refuse)
    for P, m in given:
        assert tate_from_group_law(P, toy, m).serialize() == TATE_TABLE[P.serialize()][0]
    with pytest.raises(ArithmeticError, match="failed to kill the curve component"):
        tate_from_group_law(toy.curve.point(0, 0), toy, 1)


def test_reduced_bilinearity(toy, rng):
    E = toy.curve
    pts = [p for p in E.enumerate_points() if not p.is_infinity]
    q = toy.unit_order.n
    for _ in range(100):
        P = rng.choice(pts)
        a = rng.randrange(0, 40)
        t_P = reduce_pairing_value(tate_from_group_law(P, toy), pairing_order(P, toy), q)
        Q = toy.curve.scalar_mul(a, P)
        t_Q = reduce_pairing_value(tate_from_group_law(Q, toy), pairing_order(Q, toy), q)
        assert t_Q == t_P ** a


def test_reduced_values_are_roots_of_unity(toy):
    K = toy.ext_curve.field
    for raw, reduced in TATE_TABLE.values():
        v = K.from_record(reduced)
        assert v ** 12 == K.one


def test_pairing_nondegenerate(toy):
    # ten of the twelve points pair nontrivially with this modulus
    nontrivial = [s for s, (_, red) in TATE_TABLE.items() if red != "1,0"]
    assert len(nontrivial) == 10


def test_reduce_pairing_value_requires_divisibility(toy):
    K = toy.ext_curve.field
    with pytest.raises(ValueError):
        reduce_pairing_value(K(2), 7, 120)  # 7 does not divide 120


def test_miller_rejects_wrong_order(toy):
    P = toy.curve.parse_point("5;3")  # order 3
    M, N = toy.modulus.M, toy.modulus.N
    for m in (1, 2, 4, 5):
        with pytest.raises(ValueError, match=r"m\*P must be the identity"):
            tate_by_miller(P, M, N, m)
    with pytest.raises(ValueError):
        tate_by_miller(P, M, N, 0)
    assert tate_by_miller(toy.curve.identity, M, N, 1) == toy.ext_curve.field.one


def test_miller_refuses_evaluation_points_on_its_lines(toy):
    EK, N = toy.ext_curve, toy.modulus.N
    # 0;0 has order 2, so its doubling line is the vertical x = 0 through M
    P = toy.curve.parse_point("0;0")
    with pytest.raises(SupportCollisionError, match="sits on a Miller line"):
        tate_by_miller(P, EK.point(P.x, P.y), N, 2)
    # 7;3 has order 12: the tangent at P and the chord through 2P and P
    # pass through M = P, and no vertical does, since 6P = 0;0
    P = toy.curve.parse_point("7;3")
    with pytest.raises(SupportCollisionError, match="sits on a Miller line"):
        tate_by_miller(P, EK.point(P.x, P.y), N, 12)


def test_tate_chain_never_collides_for_base_points(toy):
    # the modulus sampling rule guarantees this; exercise every point
    for P in toy.curve.enumerate_points():
        try:
            tate_from_group_law(P, toy)
        except SupportCollisionError as exc:  # pragma: no cover
            pytest.fail(f"collision for {P.serialize()}: {exc}")


def test_pairing_compatible_across_orders(toy):
    # reduced value of P computed at order m equals the value computed
    # at any multiple m' of m that still divides the unit group order:
    # t^(q/m) with t at m matches the m' computation of the same point
    E = toy.curve
    M, N = toy.modulus.M, toy.modulus.N
    q = toy.unit_order.n
    P = E.parse_point("5;3")  # order 3
    for m in (3, 6, 12):
        raw = tate_by_miller(P, M, N, m)
        assert reduce_pairing_value(raw, m, q).serialize() == "5,8"


def _fused_cases(params, ext: bool, rng):
    """(P, Q) pairs on the cocycle's curve: every special shape, then random pairs."""
    A = params.modulus_cocycle(ext).a_group
    P, Q = A.random_point(rng), A.random_point(rng)
    T = A.parse_point("0;0")  # 2-torsion on y^2 = x^3 + x
    cases = [(P, A.identity), (A.identity, P), (P, A.neg(P)), (T, T), (P, P), (P, Q)]
    if ext:  # operand pairs whose support holds a modulus point
        M = params.modulus.M
        cases += [(M, P), (P, A.sub(M, P)), (P, A.sub(A.neg(M), P))]
    return cases + [(A.random_point(rng), A.random_point(rng)) for _ in range(100)]


def _outcome(compute):
    try:
        return compute()
    except SupportCollisionError:
        return "collision"


@pytest.mark.parametrize("p, ext", [(11, False), (11, True), (103, False), (103, True)])
def test_sum_and_value_matches_add_and_line_fraction(p, ext):
    params, rng = make_toy_params(p, seed=7), random.Random(p)
    cocycle = params.modulus_cocycle(ext)
    A, M, N = cocycle.a_group, params.modulus.M, params.modulus.N
    collisions = 0
    for P, Q in _fused_cases(params, ext, rng):
        fused = _outcome(lambda: cocycle.sum_and_value(P, Q))
        unfused = _outcome(lambda: (A.add(P, Q), jacobian.eval_line_fraction(P, Q, M, N)))
        assert fused == unfused, (P, Q)
        collisions += fused == "collision"
    # base-curve operands never collide; the three forced extended-curve ones do
    assert collisions == 0 if not ext else collisions >= 3


@pytest.mark.parametrize("ext", [False, True])
def test_extension_add_gap_over_curve_add_and_two_unit_muls(toy, ext):
    # the cocycle reuses the add's chord: 5 multiplications on top for a
    # chord or a tangent, 1 for a vertical, none with an identity operand
    jac, A = toy.jacobian(ext), toy.modulus_cocycle(ext).a_group
    P, Q = A.parse_point("5;3"), A.parse_point("7;8")
    b = toy.units().field.from_record("2,7").coeffs
    for (p, q), gap in [((P, Q), 5), ((P, P), 5), ((P, A.neg(P)), 1), ((P, A.identity), 0)]:
        with count_mults() as ext_add:
            jac.add(ExtElement(p, b), ExtElement(q, b))
        with count_mults() as curve_add:
            A.add(p, q)
        assert ext_add.muls - curve_add.muls - 2 == gap, (p, q)


# the price of one add by kind: (products, inversions), each by field degree;
# an extension add is the curve add, two unit products and the line fraction's
# 4 products, one division product and one F_p^2 inversion (1 and 1 for a
# vertical); its chord slope and x(P+Q) stay in the curve's field
PRICE_TABLE = {
    "E(F_p)": {"chord": ({1: 3}, {1: 1}), "tangent": ({1: 4}, {1: 1}), "vertical": ({}, {}), "identity": ({}, {})},
    "E(F_p^2)": {"chord": ({2: 3}, {2: 1}), "tangent": ({2: 4}, {2: 1}), "vertical": ({}, {}), "identity": ({}, {})},
    "jacobian()": {"chord": ({1: 3, 2: 7}, {1: 1, 2: 1}), "tangent": ({1: 4, 2: 7}, {1: 1, 2: 1}),
                   "vertical": ({2: 3}, {2: 1}), "identity": ({2: 2}, {})},
    "jacobian(ext=True)": {"chord": ({2: 10}, {2: 2}), "tangent": ({2: 11}, {2: 2}),
                           "vertical": ({2: 3}, {2: 1}), "identity": ({2: 2}, {})},
}


@pytest.mark.parametrize("source", ["p103", "p10007", "ordinary-p103"])
def test_price_table_by_add_kind(source):
    # every add of 60 random points with a random point, itself, its negative
    # and the identity, both ways round, costs exactly its kind's products and
    # inversions; an extension add that meets the modulus' support is skipped
    if source == "ordinary-p103":
        params = load_params(str(Path(__file__).parent / "data" / "ordinary-p103.txt"))
    else:
        params = make_toy_params(int(source[1:]), 1)
    rows = {"E(F_p)": params.curve, "E(F_p^2)": params.ext_curve,
            "jacobian()": params.jacobian(), "jacobian(ext=True)": params.jacobian(ext=True)}
    rng = random.Random(5)
    for name, G in rows.items():
        A = G if isinstance(G, Curve) else G.a_group
        seen = set()
        for _ in range(60):
            P = A.random_point(rng)
            for Q in (A.random_point(rng), P, A.neg(P), A.identity):
                for x, y in ((P, Q), (Q, P)):
                    kind = ("identity" if x.is_infinity or y.is_infinity else "vertical" if y == A.neg(x)
                            else "tangent" if x == y else "chord")
                    if G is not A:
                        x, y = ExtElement(x, G.b_group.sample(rng)), ExtElement(y, G.b_group.sample(rng))
                    try:
                        with count_mults() as counter:
                            G.add(x, y)
                    except SupportCollisionError:
                        continue
                    assert (counter.by_degree, counter.inversions) == PRICE_TABLE[name][kind], (name, kind, x, y)
                    seen.add(kind)
        assert seen == PRICE_TABLE[name].keys(), name


def test_extension_add_calls_the_traced_cocycle_once(monkeypatch):
    # perfbench's tracer wraps ExtensionGroup.add, ModulusCocycle.__call__, jacobian's
    # eval_line_fraction and FieldElement.inverse, and the bench tests' ledger counts
    # the cocycle inside __call__, so along a whole ladder on make_toy_params(103, 1)
    # every extension add enters the first three once each and divides once unless an
    # operand is the identity; a chord, tangent or vertical add, on the extension ladder
    # or the curve ladder beneath it, makes one chord-kernel call, and an identity add
    # none.  The scalar's leading bits are ord(P), so a ladder reaches O by a vertical
    # add and then adds to the identity.
    params = make_toy_params(103, 1)
    calls = dict.fromkeys(("ext_add", "cocycle", "line_fraction", "inverse", "kernel"), 0)

    def count(owner, name, key):
        honest = getattr(owner, name)

        def counted(*args):
            calls[key] += 1
            return honest(*args)
        monkeypatch.setattr(owner, name, counted)

    count(jacobian.ModulusCocycle, "__call__", "cocycle")
    count(jacobian, "eval_line_fraction", "line_fraction")
    count(FieldElement, "inverse", "inverse")
    for field in (PrimeField, ExtField):
        count(field, "chord_sum_coeffs", "kernel")
    count(jacobian.ExtensionGroup, "add", "ext_add")
    rng = random.Random(103)
    for ext in (False, True):
        jac = params.jacobian(ext)
        A = jac.a_group
        for G in (jac, A):
            honest_add, per_add = type(G).add, []

            def add(self, x, y):
                Q, R = (x.a_part, y.a_part) if G is jac else (x, y)
                kind = "identity" if Q.is_infinity or R.is_infinity else "vertical" if Q == A.neg(R) else "chord"
                before = dict(calls)
                total = honest_add(self, x, y)
                per_add.append((kind, {key: calls[key] - before[key] for key in calls}))
                return total
            while True:  # operands whose ladder meets no support collision
                P = A.random_point(rng)
                n = element_order(A, P, params.ext_curve_order if ext else params.curve_order) << 8 | rng.randrange(256)
                g = ExtElement(P, params.units().sample(rng)) if G is jac else P
                per_add.clear()
                monkeypatch.setattr(type(G), "add", add)
                try:
                    G.scalar_mul(n, g)
                    break
                except SupportCollisionError:
                    continue
                finally:
                    monkeypatch.setattr(type(G), "add", honest_add)
            assert {kind for kind, _ in per_add} == {"chord", "vertical", "identity"}, (ext, G)
            for kind, made in per_add:
                expected = {"ext_add": 0, "cocycle": 0, "line_fraction": 0, "inverse": 0,
                            "kernel": int(kind != "identity")}
                if G is jac:
                    expected.update(ext_add=1, cocycle=1, line_fraction=1, inverse=int(kind != "identity"))
                assert made == expected, (ext, G, kind)


def test_extension_add_inverts_only_through_field_element_inverse(monkeypatch):
    # the tracer's field.inverse wraps FieldElement.inverse: a non-vertical add
    # inverts the chord's denominator inline, on E(F_p^2) as on E(F_p), and the
    # line fraction's through FieldElement.inverse, so the tracer sees one call
    # per add; the ledger counts both, the chord's in the curve's field
    params = make_toy_params(103, 1)
    calls = []
    honest = FieldElement.inverse
    monkeypatch.setattr(FieldElement, "inverse", lambda x: calls.append(x) or honest(x))
    rng = random.Random(1)
    for ext, ledger in ((True, {2: 2}), (False, {1: 1, 2: 1})):
        jac, kinds = params.jacobian(ext), set()
        while kinds != {"chord", "tangent"}:
            x = jac.sample(rng)
            y = jac.sample(rng) if "chord" not in kinds else x
            P, Q = x.a_part, y.a_part
            k = P.curve.field
            if P.is_infinity or Q.is_infinity or (k(P.x) == k(Q.x) and (P != Q or k(P.y).is_zero())):
                continue  # no chord: the identity or a vertical
            calls.clear()
            try:
                with count_mults() as counter:
                    jac.add(x, y)
            except SupportCollisionError:
                continue
            assert len(calls) == 1 and counter.inversions == ledger, (ext, x, y)
            kinds.add("tangent" if P == Q else "chord")
