import gc
import random
from pathlib import Path

import pytest

from genjac.curve import Curve, SupportCollisionError, element_order, eval_line_fraction
from genjac.field import ExtField, FieldElement, PrimeField, count_mults
from genjac.groups import ExtElement, MultiplicativeGroup, ZeroCocycle
from genjac.jacobian import load_params, make_toy_params, tate_by_miller
from genjac.numbertheory import Factorization
from subjects import KERNEL_CURVES, enumerate_by_definition, random_point_by_definition


@pytest.fixture(scope="module")
def E():
    F = PrimeField(11)
    return Curve(F, F(1), F(0))  # y^2 = x^3 + x


@pytest.fixture(scope="module")
def EK(E):
    return E.extend(ExtField(E.field, (1, 0, 1)))


ORDER_12 = Factorization.from_int(12)
ORDER_144 = Factorization.from_int(144)


def xy(P):
    """P's coordinates as field elements, None for O: the oracles read a point through
    FieldElement arithmetic, so they share no code with the coefficient kernels."""
    k = P.curve.field
    return None if P.is_infinity else (k(P.x), k(P.y))


def _lift(EK, P):
    """P on EK, the same equation over an extension of P's field: EK.point checks
    it again in FieldElement arithmetic, where an F_p coefficient c lifts to (c, 0)."""
    return EK.identity if P.is_infinity else EK.point(P.x, P.y)


def test_curve_construction_errors():
    F = PrimeField(11)
    with pytest.raises(ValueError):
        Curve(F, F(0), F(0))  # singular: discriminant zero
    with pytest.raises(ValueError):
        Curve(PrimeField(3), PrimeField(3)(1), PrimeField(3)(0))
    with pytest.raises(ValueError):
        Curve(PrimeField(2), PrimeField(2)(1), PrimeField(2)(1))


def test_point_validation(E):
    F = E.field
    P = E.point(F(5), F(3))
    assert not P.is_infinity
    with pytest.raises(ValueError):
        E.point(F(5), F(4))  # not on the curve
    with pytest.raises(ValueError):
        E.point(ExtField(F, (1, 0, 1))([5, 0]), ExtField(F, (1, 0, 1))([3, 0]))


def test_enumeration_counts(E, EK):
    pts = E.enumerate_points()
    assert len(pts) == 12
    assert len(set(pts)) == 12
    assert all(p.curve is E for p in pts)
    assert len(EK.enumerate_points()) == 144


def test_enumeration_kernel_matches_the_oracle():
    # point for point, in order, at the same count; over F_p^2 under the default
    # u^2 + 1 and under u^2 + u + t, whose s = 1 reaches the kernel's s terms
    for p in (7, 11, 19, 103, 1019):
        base = PrimeField(p)
        t = next(t for t in range(p) if pow(1 - 4 * t, (p - 1) // 2, p) == p - 1)
        for a, b in ((1, 0), (1, 1), (2, 3), (0, 1), (3, 5)):
            try:
                E = Curve(base, a, b)
            except ValueError:
                continue  # singular
            curves = [E]
            if p < 100:
                curves += [E.extend(ExtField(base, (1, 0, 1))), E.extend(ExtField(base, (t, 1, 1)))]
            for curve in curves:
                with count_mults() as kernel:
                    points = curve.enumerate_points()
                with count_mults() as oracle:
                    expected = enumerate_by_definition(curve)
                assert [(P.x, P.y) for P in points] == [(P.x, P.y) for P in expected], curve
                assert points == expected and kernel.by_degree == oracle.by_degree, curve


@pytest.mark.parametrize("broken", [False, True], ids=["whole", "kernel-raises"])
@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
def test_enumeration_pauses_the_collector_and_restores_it(E, monkeypatch, collecting, broken):
    # the collector is off while the Points are built and back in the caller's
    # state afterwards, also when the kernel raises part-way through
    kernel, seen = PrimeField.curve_points_coeffs, []

    def watched(field, a, b):
        for i, xy in enumerate(kernel(field, a, b)):
            seen.append(gc.isenabled())
            if broken and i == 3:
                raise RuntimeError("kernel broke")
            yield xy

    monkeypatch.setattr(PrimeField, "curve_points_coeffs", watched)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if broken:
            with pytest.raises(RuntimeError, match="kernel broke"):
                E.enumerate_points()
        else:
            assert len(E.enumerate_points()) == 12
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert len(seen) == (4 if broken else 11) and not any(seen)


def test_known_points_and_doubling(E):
    F = E.field
    P = E.point(F(5), F(3))
    assert E.add(P, P) == E.point(F(5), F(8))
    assert E.add(E.add(P, P), P) == E.identity
    assert element_order(P, ORDER_12) == 3


def test_order_profile(E):
    profile = sorted(element_order(p, ORDER_12) for p in E.enumerate_points())
    assert profile == [1, 2, 3, 3, 4, 4, 6, 6, 12, 12, 12, 12]


def test_extension_exponent(EK):
    # E(F_121) = Z/12 x Z/12: everything dies at 12, nothing at 4 or 6 everywhere
    pts = EK.enumerate_points()
    assert all(EK.scalar_mul(12, p).is_infinity for p in pts)
    orders = {element_order(p, ORDER_144) for p in pts}
    assert max(orders) == 12


def test_group_law_edge_cases(E):
    F = E.field
    O = E.identity
    P = E.point(F(5), F(3))
    T = E.point(F(0), F(0))  # the 2-torsion point
    assert E.add(O, O) == O
    assert E.add(P, O) == P and E.add(O, P) == P
    assert E.add(P, E.neg(P)) == O
    assert E.add(T, T) == O
    assert E.neg(O) == O
    assert E.scalar_mul(0, P) == O and E.scalar_mul(1, P) == P
    assert E.scalar_mul(-1, P) == E.neg(P)
    assert E.scalar_mul(14, P) == E.scalar_mul(2, P)  # order 3


def test_scalar_mul_matches_repeated_addition(E, rng):
    for _ in range(20):
        P = E.random_point(rng)
        n = rng.randrange(0, 25)
        acc = E.identity
        for _ in range(n):
            acc = E.add(acc, P)
        assert E.scalar_mul(n, P) == acc


def test_serialize_parse_roundtrip(E, EK):
    for p in E.enumerate_points():
        assert E.parse_point(p.serialize()) == p
    assert E.parse_point("inf").is_infinity
    q = EK.enumerate_points()[7]
    assert EK.parse_point(q.serialize()) == q
    with pytest.raises(ValueError):
        E.parse_point("5;4")
    with pytest.raises(ValueError):
        E.parse_point("nonsense")


def test_random_point_on_curve(E, EK, rng):
    for _ in range(30):
        x, y = xy(E.random_point(rng))
        assert y * y == x * x * x + E.a * x + E.b
    q = EK.random_point(rng)
    assert q.curve is EK


def test_random_point_gives_up_after_its_draw_budget(E):
    class StuckRng:
        def randrange(self, n):
            return 2  # x = 2: x^3 + x = 10 is a non-square mod 11

    with pytest.raises(RuntimeError, match="no curve point found"):
        E.random_point(StuckRng())


def _ordinary_p103(ext):
    params = load_params(str(Path(__file__).parent / "data" / "ordinary-p103.txt"))
    return params.ext_curve if ext else params.curve


def _kernel_curve(name):
    p, poly, a, b = KERNEL_CURVES[name]
    return Curve(ExtField(PrimeField(p), poly), a, b)


# y^2 = x^3 + x over F_p and F_p^2, whose x = 0 has a zero right-hand side; the
# ordinary curve a = 2, b = 3, where the a*x and b terms count; and the two
# extensions with s != 0 of KERNEL_CURVES
RANDOM_POINT_CURVES = {
    **{f"y^2=x^3+x over F_{p}": lambda p=p: Curve(PrimeField(p), 1, 0) for p in (11, 103, 10007)},
    **{f"y^2=x^3+x over F_{p}^2": lambda p=p: Curve(ExtField(PrimeField(p), (1, 0, 1)), 1, 0)
       for p in (11, 103, 10007)},
    "ordinary-p103": lambda: _ordinary_p103(False),
    "ordinary-p103 over F_p^2": lambda: _ordinary_p103(True),
    **{name: lambda name=name: _kernel_curve(name) for name, (_, poly, _, _) in KERNEL_CURVES.items() if poly},
}


@pytest.mark.parametrize("name", RANDOM_POINT_CURVES)
def test_random_point_matches_the_definition(name):
    # the same 200 points, the same products and inversions, and the same draws
    E = RANDOM_POINT_CURVES[name]()
    fast, slow = random.Random(name), random.Random(name)
    E.field._nonresidue_t = None  # interned: each run pays for the non-residue search
    with count_mults() as kernel:
        got = [E.random_point(fast) for _ in range(200)]
    E.field._nonresidue_t = None
    with count_mults() as oracle:
        expected = [random_point_by_definition(E, slow) for _ in range(200)]
    assert [(P.x, P.y) for P in got] == [(P.x, P.y) for P in expected]
    assert got == expected and fast.getstate() == slow.getstate()
    assert (kernel.by_degree, kernel.inversions) == (oracle.by_degree, oracle.inversions)
    if name.startswith("y^2=x^3+x over F_11"):  # x = 0 drawn: the point (0, 0)
        assert E.point(0, 0) in got


def test_element_order_rejects_non_multiple(E):
    P = E.point(E.field(5), E.field(3))  # order 3
    with pytest.raises(ValueError):
        element_order(P, Factorization.from_int(8))


def _schoolbook(P, Q):
    """(lambda, P + Q) for affine P, Q by chord and tangent, or (None, O).

    Written out in FieldElement arithmetic from the textbook formulas, so it
    shares no code with Curve.add or eval_line_fraction; the sum is
    validated by Curve.point.
    """
    E, k = P.curve, P.curve.field
    (xP, yP), (xQ, yQ) = xy(P), xy(Q)
    if xP == xQ and yP == -yQ:
        return None, E.identity
    if xP == xQ:
        lam = (k(3) * xP * xP + E.a) / (k(2) * yP)
    else:
        lam = (yQ - yP) / (xQ - xP)
    x3 = lam * lam - xP - xQ
    return lam, E.point(x3, lam * (xP - x3) - yP)


def _schoolbook_add(P, Q):
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    return _schoolbook(P, Q)[1]


def _chord_values(P, Q, X):
    """Straight re-derivation of the vertical and the chord at X.

    Independent of eval_line_fraction's internals and of Curve.add:
    recompute the slope, the sum, the line, and the vertical from raw
    coordinates of the lifted points.  Returns (v(X), l(X)); X must be
    affine.
    """
    k = X.curve.field
    if P.is_infinity or Q.is_infinity:
        return k.one, k.one
    lam, S = _schoolbook(P, Q)
    (xP, yP), (xX, yX) = xy(P), xy(X)
    if lam is None:
        return k.one, xX - xP
    line = (yX - yP) - lam * (xX - xP)
    vertical = xX - xy(S)[0]
    return vertical, line


def _oracle(P, Q, M, N):
    """(v/l)(M) / (v/l)(N) by definition, as coefficients, or None when M or N is in the support."""
    EK = M.curve
    if P.curve != EK:
        P, Q = _lift(EK, P), _lift(EK, Q)
    if P.is_infinity or Q.is_infinity:
        return EK.field.one_coeffs
    S = _schoolbook(P, Q)[1]
    support = {EK.identity, P, Q, S, EK.neg(S)}
    if M in support or N in support:
        return None
    (v_m, l_m), (v_n, l_n) = _chord_values(P, Q, M), _chord_values(P, Q, N)
    return ((v_m / l_m) / (v_n / l_n)).coeffs


def _fused_or_none(P, Q, M, N):
    try:
        return eval_line_fraction(P, Q, M, N)
    except SupportCollisionError:
        return None


def test_line_fraction_matches_divisor(E, EK):
    """The value is v/l at (X) - (Y) and its zero/pole set is the declared divisor.

    For f = vertical/chord built from (P, Q) the divisor is
    (P+Q) + (O) - (P) - (Q): pairing every point X of E(F_121) with a
    fixed Y outside the support must give the finite nonzero ratio
    f(X)/f(Y) in either order, and each support point must be refused.
    """
    F = E.field
    cases = [
        (E.point(F(5), F(3)), E.point(F(7), F(8))),   # generic chord
        (E.point(F(5), F(3)), E.point(F(5), F(3))),   # tangent
        (E.point(F(9), F(1)), E.point(F(10), F(8))),  # another chord
    ]
    lifted_all = EK.enumerate_points()
    for P, Q in cases:
        S = _schoolbook(P, Q)[1]
        support = {EK.identity} | {_lift(EK, T) for T in (P, Q, S, E.neg(S))}
        Y = next(X for X in lifted_all if X not in support)
        v_y, l_y = _chord_values(_lift(EK, P), _lift(EK, Q), Y)
        checked = 0
        for X in lifted_all:
            if X in support:
                for M, N in ((X, Y), (Y, X)):
                    with pytest.raises(SupportCollisionError):
                        eval_line_fraction(P, Q, M, N)
                continue
            v, l = _chord_values(_lift(EK, P), _lift(EK, Q), X)
            got = eval_line_fraction(P, Q, X, Y)
            assert not EK.field(got).is_zero()
            assert got == ((v / l) / (v_y / l_y)).coeffs
            assert eval_line_fraction(P, Q, Y, X) == EK.field(got).inverse().coeffs
            checked += 1
        assert checked >= 139  # 144 minus at most 5 support points


def test_line_fraction_symmetry(E, EK, rng):
    # the chord through P and Q does not depend on their order, and
    # neither does the collision verdict
    for _ in range(25):
        P, Q = E.random_point(rng), E.random_point(rng)
        M, N = EK.random_point(rng), EK.random_point(rng)
        assert _fused_or_none(P, Q, M, N) == _fused_or_none(Q, P, M, N)


def test_line_fraction_identity_operand(E, EK):
    F = E.field
    P = E.point(F(5), F(3))
    M, N = EK.enumerate_points()[5:7]
    assert eval_line_fraction(P, E.identity, M, N) == EK.field.one_coeffs
    assert eval_line_fraction(E.identity, P, M, N) == EK.field.one_coeffs
    # the constant 1 has empty support, even at the identity
    assert eval_line_fraction(P, E.identity, EK.identity, N) == EK.field.one_coeffs


def test_line_fraction_vertical_case(E, EK):
    # P + Q = O: the function degenerates to 1/(x - x_P)
    F = E.field
    P = E.point(F(5), F(3))
    Q = E.neg(P)
    x_p = EK.field(P.x)
    M, N = [p for p in EK.enumerate_points() if not p.is_infinity and xy(p)[0] != x_p][:2]
    got = eval_line_fraction(P, Q, M, N)
    assert got == ((xy(N)[0] - x_p) / (xy(M)[0] - x_p)).coeffs
    with pytest.raises(SupportCollisionError):
        eval_line_fraction(P, Q, _lift(EK, P), N)
    with pytest.raises(SupportCollisionError):
        eval_line_fraction(P, Q, M, _lift(EK, Q))


def test_lift_consistency(E, EK, rng):
    # evaluating base points against extension M, N equals evaluating
    # their lifts: the lifting inside eval_line_fraction is transparent
    for _ in range(10):
        P, Q = E.random_point(rng), E.random_point(rng)
        M, N = EK.random_point(rng), EK.random_point(rng)
        lifted = (_lift(EK, P), _lift(EK, Q), M, N)
        assert _fused_or_none(P, Q, M, N) == _fused_or_none(*lifted)


def test_line_fraction_exhaustive_against_oracle(toy):
    # every pair in E(F_121)^2 and every base pair in E(F_11)^2 at the toy
    # modulus: same value, and the same collision set as point membership
    M, N = toy.modulus.M, toy.modulus.N
    collisions = 0
    for points in (toy.ext_curve.enumerate_points(), toy.curve.enumerate_points()):
        for P in points:
            for Q in points:
                expected = _oracle(P, Q, M, N)
                assert _fused_or_none(P, Q, M, N) == expected, (P, Q)
                collisions += expected is None
    assert collisions > 0


def test_curves_are_interned(toy):
    E, EK = toy.curve, toy.ext_curve
    K = EK.field
    assert Curve(E.field, 1, 0) is E
    # built directly, the curve over F_121 still knows its base curve
    direct = Curve(K, 1, 0)
    assert direct is E.extend(K) is EK
    assert direct.base_curve is E and E.base_curve is None
    M = direct.parse_point(toy.modulus.M.serialize())
    N = direct.parse_point(toy.modulus.N.serialize())
    P, Q = E.parse_point("5;3"), E.parse_point("7;8")
    assert eval_line_fraction(P, Q, M, N) == eval_line_fraction(P, Q, toy.modulus.M, toy.modulus.N)
    assert tate_by_miller(P, M, N, 3) == tate_by_miller(P, toy.modulus.M, toy.modulus.N, 3)
    # bad input is never registered, so every call rejects it
    for _ in range(2):
        with pytest.raises(ValueError, match="singular"):
            Curve(E.field, 0, 0)


def test_point_hash_and_eq(E, EK):
    F = E.field
    a = E.point(F(5), F(3))
    b = E.point(F(5), F(3))
    assert a == b and hash(a) == hash(b)
    assert a != E.point(F(5), F(8))
    assert E.identity == E.identity
    # the identity against an affine point either way round, another
    # curve's point with the same coefficients, and a non-point
    assert a != E.identity and E.identity != a
    assert _lift(EK, a) != a and EK.identity != E.identity
    assert a != a.serialize()
    assert repr(a) == "Point(5; 3)" and repr(E.identity) == "Point(inf)"


# (p, reduction polynomial or None for F_p, a, b); the last field has s != 0
# and t != 1, and its curve has a coefficient outside F_7
LAW_CURVES = {
    "E(F_11)": (11, None, 1, 0),
    "E(F_11[u]/(u^2+1))": (11, (1, 0, 1), 1, 0),
    "E(F_7[u]/(u^2+u+3))": (7, (3, 1, 1), [0, 1], 1),
}


@pytest.mark.parametrize("name", LAW_CURVES)
def test_add_matches_schoolbook_with_exact_counts(name):
    # every pair of points: the same sum as the textbook formulas, and one
    # counted multiplication per product or division (slope, lambda^2 and
    # the y product, plus x^2 for a tangent), none without a slope
    p, poly, a, b = LAW_CURVES[name]
    field = PrimeField(p) if poly is None else ExtField(PrimeField(p), poly)
    E = Curve(field, a, b)
    points = E.enumerate_points()
    tangents = 0
    for P in points:
        for Q in points:
            expected = _schoolbook_add(P, Q)
            with count_mults() as counter:
                got = E.add(P, Q)
            assert got.curve is E and xy(got) == xy(expected), (P, Q)
            if P.is_infinity or Q.is_infinity or expected.is_infinity:
                muls = 0
            else:
                tangent = xy(P)[0] == xy(Q)[0]
                muls = 4 if tangent else 3
                tangents += tangent
            assert counter.by_degree == ({field.degree: muls} if muls else {}), (P, Q)
            assert counter.muls == muls
    assert tangents > 0


@pytest.mark.parametrize("name", KERNEL_CURVES)
def test_kernels_match_field_element_arithmetic(name):
    # every pair of affine points, and over F_{p^2} at each chord and tangent
    # the line fraction at an evaluation pair (M, N) that walks the points:
    # the chord kernel returns None with nothing counted exactly when
    # P + Q = O, the y = 0 tangents included, and otherwise the same values as
    # FieldElement arithmetic and one count per product (3 per chord, 4 per
    # tangent) and one inversion; the line kernel gives None exactly when l or
    # v vanishes at M or N, and counts 2 products before its zero test and 2
    # after it; F_p has no line kernel, since every modulus lives over F_{p^2}
    p, poly, a, b = KERNEL_CURVES[name]
    field = PrimeField(p) if poly is None else ExtField(PrimeField(p), poly)
    E, d = Curve(field, a, b), field.degree
    points = [P for P in E.enumerate_points() if not P.is_infinity]
    seen = set()
    for i, P in enumerate(points):
        for j, Q in enumerate(points):
            (xP, yP), (xQ, yQ) = xy(P), xy(Q)
            tangent = xP == xQ
            with count_mults() as counter:
                got = field.chord_sum_coeffs(P.x, P.y, Q.x, Q.y, E.a.coeffs)
            if tangent and (yP != yQ or yP.is_zero()):
                assert got is None, (P, Q)
                assert (counter.by_degree, counter.inversions) == ({}, {}), (P, Q)
                seen.add("y = 0" if yP.is_zero() else "vertical")
                continue
            if tangent:
                lam = (field(3) * xP * xP + E.a) / (field(2) * yP)
            else:
                lam = (yQ - yP) / (xQ - xP)
            xS = lam * lam - xP - xQ
            yS = lam * (xP - xS) - yP
            assert got == (lam.coeffs, xS.coeffs, yS.coeffs), (P, Q)
            assert (counter.by_degree, counter.inversions) == ({d: 4 if tangent else 3}, {d: 1}), (P, Q)
            kind = "tangent" if tangent else "chord"
            if d == 1:
                seen.add(kind)
                continue
            M, N = points[(i + j) % len(points)], points[(i + 2 * j + 1) % len(points)]
            (xM, yM), (xN, yN) = xy(M), xy(N)
            l_m, l_n = (yM - yP) - lam * (xM - xP), (yN - yP) - lam * (xN - xP)
            v_m, v_n = xM - xS, xN - xS
            collides = any(z.is_zero() for z in (l_m, l_n, v_m, v_n))
            expected = None if collides else ((v_m * l_n).coeffs, (l_m * v_n).coeffs)
            with count_mults() as counter:
                got = field.line_coeffs(lam.coeffs, P.x, P.y, xS.coeffs, M.x, M.y, N.x, N.y)
            assert got == expected, (P, Q, M, N)
            assert counter.by_degree == {d: 2 if collides else 4}, (P, Q, M, N)
            seen.add((kind, "collision" if collides else "value"))
    kinds = {"chord", "tangent"} if d == 1 else {(k, v) for k in ("chord", "tangent") for v in ("collision", "value")}
    halves = {"y = 0"} if any(xy(P)[1].is_zero() for P in points) else set()  # points of order 2
    assert seen == kinds | {"vertical"} | halves


@pytest.mark.parametrize("p", [10007, 2**61 - 1])
def test_add_at_word_size_matches_schoolbook(p):
    # the F_p chord runs on plain ints: 200 random chords, a tangent,
    # P + (-P) and the doubling of (0, 0), a point of order 2, give the
    # textbook sum with the pinned counts; every coordinate must be an int
    # in [0, p), since Point equality compares coefficients
    F = PrimeField(p)
    E = Curve(F, 1, 0)
    rng = random.Random(p)
    R = E.random_point(rng)
    pairs = [(E.random_point(rng), E.random_point(rng)) for _ in range(200)]
    pairs += [(R, R), (R, E.neg(R)), (E.point(0, 0), E.point(0, 0))]
    seen = set()
    for P, Q in pairs:
        expected = _schoolbook_add(P, Q)
        with count_mults() as counter:
            got = E.add(P, Q)
        assert got == expected, (P, Q)
        if expected.is_infinity:
            kind, by_degree = "identity", {}
        else:
            assert all(type(c) is int and 0 <= c < p for c in (got.x, got.y)), got
            kind, by_degree = ("tangent", {1: 4}) if xy(P)[0] == xy(Q)[0] else ("chord", {1: 3})
        assert counter.by_degree == by_degree, (P, Q)
        seen.add(kind)
    assert seen == {"chord", "tangent", "identity"}


def test_coefficients_are_an_int_in_F_p_and_a_pair_in_F_p2(E, EK, toy):
    # one format per field on every path that makes a value, a point or a
    # unit: a stray (c,) or FieldElement would compare unequal to c, so Point
    # and ExtElement equality and hashing would disagree and a BSGS lookup
    # would miss
    rng = random.Random(1)

    def values(curve, record):
        k = curve.field
        x, y = k.from_record(record), k(3)
        made = [x, y, k([4]), k.sample(rng), k(0), k.one, *(k(c) for c in k.all_coeffs())]
        made += [x + y, x - y, -x, x * y, x / y, x.inverse(), x ** 5, (x * x).sqrt()]
        return [value.coeffs for value in made] + [k.zero_coeffs, k.one_coeffs, *k.all_coeffs()]

    def units(field):
        # every MultiplicativeGroup constructor: identity, add, neg, sample and elements
        U = MultiplicativeGroup(field)
        a, b = U.sample(rng), U.sample(rng)
        return [U.identity, U.add(a, b), U.neg(a), a, b, *U.elements()]

    def coordinates(curve):
        # every Point constructor: point, parse_point, random_point,
        # enumerate_points, add by chord and by tangent, and neg
        P = curve.random_point(rng)
        while P.y == curve.field.zero_coeffs:
            P = curve.random_point(rng)
        affine = [R for R in curve.enumerate_points() if not R.is_infinity]
        Q = curve.parse_point(next(R for R in affine if R.x != P.x).serialize())
        made = [P, Q, curve.point(P.x, P.y), curve.add(P, Q), curve.add(P, P), curve.neg(P), *affine]
        identities = [curve.identity, curve.add(P, curve.neg(P))]  # the second by a vertical
        assert not any(R.is_infinity for R in made)
        assert all((O.x, O.y) == (None, None) for O in identities)
        return [c for R in made for c in (R.x, R.y)]

    def fiber_values():
        # every cocycle value, at a chord, a tangent, a vertical and an identity
        # operand, and the b_part of every extension operation, on the base
        # curve and on its extension
        made = []
        for ext in (False, True):
            jac = toy.jacobian(ext)
            A, c = jac.a_group, jac.cocycle
            P, Q = A.parse_point("5;3"), A.parse_point("7;8")
            made += [c(P, Q), c(P, P), c(P, A.neg(P)), c(P, A.identity), ZeroCocycle(A, jac.b_group)(P, Q)]
            x, y = ExtElement(P, jac.b_group.sample(rng)), ExtElement(Q, jac.b_group.sample(rng))
            made += [z.b_part for z in (jac.add(x, y), jac.neg(x), jac.scalar_mul(5, x), jac.identity)]
        return made

    F, K = E.field, EK.field
    assert toy.ext_curve is EK
    for c in values(E, "5") + units(F) + coordinates(E):
        assert type(c) is int and 0 <= c < F.p, c
    for c in values(EK, "5,2") + [K(F(3).coeffs).coeffs] + units(K) + coordinates(EK) + fiber_values():
        assert type(c) is tuple and len(c) == 2 and all(type(a) is int and 0 <= a < K.p for a in c), c


@pytest.mark.parametrize("group, chord, vertical, identity", [
    ("E(F_103)", 0, 0, 0),
    ("E(F_103^2)", 0, 0, 0),
    ("jacobian()", 2, 2, 0),
    ("jacobian(ext=True)", 2, 2, 0),
])
def test_ladder_builds_field_elements_only_for_the_fraction(monkeypatch, group, chord, vertical, identity):
    # a point and a unit are their coefficients: FieldElements built per add of
    # a ladder on make_toy_params(103, 1), split as chord or tangent / vertical
    # / identity operand.  A curve ladder builds none, since both chords invert
    # inline; an extension add builds two for the line fraction's inverse, its
    # operand and its result, a vertical the same two, and nothing outside the
    # adds builds any.  The scalar's leading bits are ord(P), so the ladder
    # reaches O by a vertical add and then adds to the identity.
    params = make_toy_params(103, 1)
    G = {"E(F_103)": params.curve, "E(F_103^2)": params.ext_curve,
         "jacobian()": params.jacobian(), "jacobian(ext=True)": params.jacobian(ext=True)}[group]
    A = G if isinstance(G, Curve) else G.a_group
    rng = random.Random(103)
    P = A.random_point(rng)
    g = P if G is A else ExtElement(P, params.units().sample(rng))
    order = element_order(P, params.ext_curve_order if A is params.ext_curve else params.curve_order)
    n = order << 20 | rng.randrange(1 << 20)
    built, per_kind = [], {"chord": [], "vertical": [], "identity": []}
    honest_init, honest_add = FieldElement.__init__, type(G).add

    def add(self, y, z):
        Q, R = (y, z) if G is A else (y.a_part, z.a_part)
        kind = "identity" if Q.is_infinity or R.is_infinity else "vertical" if Q == A.neg(R) else "chord"
        start = len(built)
        total = honest_add(self, y, z)
        per_kind[kind].append(len(built) - start)
        return total

    monkeypatch.setattr(FieldElement, "__init__", lambda x, *args: built.append(args) or honest_init(x, *args))
    monkeypatch.setattr(type(G), "add", add)
    G.scalar_mul(n, g)
    monkeypatch.undo()
    assert len(per_kind["chord"]) > 20
    assert {kind: set(counts) for kind, counts in per_kind.items()} == {
        "chord": {chord}, "vertical": {vertical}, "identity": {identity}}
    assert len(built) == sum(map(sum, per_kind.values()))


def test_line_fraction_exact_counts(E, EK):
    # by_degree per evaluation: with no add behind it the line fraction asks
    # the chord kernel, which also makes y(P+Q)'s product; a lifted chord
    # costs F_p products, and a collision records every product made before
    # its zero test
    F = E.field
    P, Q = E.point(F(5), F(3)), E.point(F(7), F(8))
    S, lift = E.add(P, Q), lambda T: _lift(EK, T)
    M, N = [X for X in EK.enumerate_points() if not X.is_infinity and X.x[1]][:2]
    cases = [
        ((lift(P), lift(Q), M, N), {2: 8}),  # unlifted chord
        ((lift(P), lift(P), M, N), {2: 9}),  # unlifted tangent
        ((P, Q, M, N), {1: 3, 2: 5}),  # lifted chord
        ((P, P, M, N), {1: 4, 2: 5}),  # lifted tangent
        ((P, E.neg(P), M, N), {2: 1}),  # vertical
        ((P, E.identity, M, N), {}),  # identity operand
    ]
    for args, by_degree in cases:
        with count_mults() as counter:
            eval_line_fraction(*args)
        assert counter.by_degree == by_degree, args
    collisions = [
        ((P, Q, lift(P), N), {1: 3, 2: 2}),  # M on the chord
        ((P, Q, M, lift(S)), {1: 3, 2: 2}),  # N on the vertical through P+Q
        ((lift(P), lift(P), M, lift(P)), {2: 6}),  # N on the tangent
        ((P, E.neg(P), lift(P), N), {}),  # M at the pole of the vertical
        ((P, Q, EK.identity, N), {}),  # the identity
    ]
    for args, by_degree in collisions:
        with count_mults() as counter, pytest.raises(SupportCollisionError):
            eval_line_fraction(*args)
        assert counter.by_degree == by_degree, args
