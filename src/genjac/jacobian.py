"""Generalized Jacobians of elliptic curves, presented by a modulus cocycle.

For a modulus built from two distinct affine points M, N of E(K), the
cocycle sends a pair of curve points to f(M)/f(N), where f = v/l is the
chord-vertical quotient with divisor (P+Q) + (O) - (P) - (Q).  Feeding
that cocycle to the generic extension machinery yields the group that
extends the curve by the multiplicative group of K, its values and fiber
parts being K's coefficients.  Scalar multiplication of (P, 1) by a
suitable order recovers the Tate pairing of P against M - N, which this
module also computes independently with a textbook Miller loop on pairs
of field elements, away from the curve's kernels, so the two routes
share only the field and compare exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

from .curve import ENUM_BOUND, Curve, Point, SupportCollisionError, element_order, eval_line_fraction
from .field import Coeffs, ExtField, FieldElement, PrimeField, coeffs_to_record
from .groups import Cocycle, ExtElement, ExtensionGroup, MultiplicativeGroup
from .numbertheory import Factorization

PRNG_NAME = "mt19937"  # random.Random: the Mersenne Twister


@dataclass(frozen=True)
class Modulus:
    """Two affine points of the extended curve, x outside F_p, N != +-M."""

    M: Point
    N: Point

    def __post_init__(self) -> None:
        if self.M.curve is not self.N.curve:
            raise ValueError("modulus points live on different curves")
        if self.M.is_infinity or self.N.is_infinity:
            raise ValueError("modulus points must be affine")
        if self.N in (self.M, self.curve.neg(self.M)):
            raise ValueError("modulus points must satisfy N != M and N != -M")
        if not (self.curve.field.degree == 2 and self.M.x[1] and self.N.x[1]):
            raise ValueError("modulus points need x outside the base field")

    @property
    def curve(self) -> Curve:
        return self.M.curve


class ModulusCocycle(Cocycle):
    """c(P, Q) = f_{P,Q}(M) / f_{P,Q}(N) into the units of the big field."""

    def __init__(self, a_group: Curve, b_group: MultiplicativeGroup, modulus: Modulus) -> None:
        if modulus.curve.field is not b_group.field:
            raise ValueError("modulus points must live over the unit group's field")
        if a_group is not modulus.curve and a_group is not modulus.curve.base_curve:
            raise ValueError("curve group must be the modulus curve or its base curve")
        super().__init__(a_group, b_group)
        self.modulus = modulus
        self.M, self.N = modulus.M, modulus.N  # read on every call

    def __call__(self, p: Point, q: Point, chord=None) -> Coeffs:
        return eval_line_fraction(p, q, self.M, self.N, chord)

    def sum_and_value(self, p: Point, q: Point) -> tuple[Point, Coeffs]:
        """P + Q and c(P, Q) from one `chord_sum_coeffs` call, whose None is P + Q = O, counted as
        `Curve.add` plus the cocycle; c still comes from `__call__`, which perfbench's tracer times
        and the bench tests' cost ledger wraps, handed the kernel's result (() for None)."""
        A = self.a_group
        if p.x is None or q.x is None or p.curve is not A or q.curve is not A:
            return super().sum_and_value(p, q)
        if (chord := A.field.chord_sum_coeffs(p.x, p.y, q.x, q.y, A.a.coeffs)) is None:
            return A.identity, self.__call__(p, q, ())
        return Point(A, chord[1], chord[2]), self.__call__(p, q, chord)

    def describe(self) -> str:
        return f"generalized-jacobian({self.modulus.M.serialize()} ; {self.modulus.N.serialize()})"


@dataclass(frozen=True)
class GenJacParams:
    """Modulus and verified group orders; the modulus fixes both curves."""

    modulus: Modulus
    curve_order: Factorization
    ext_curve_order: Factorization
    unit_order: Factorization
    seed: int | None = None

    @property
    def ext_curve(self) -> Curve:
        return self.modulus.curve

    @property
    def curve(self) -> Curve:
        return self.ext_curve.base_curve

    def units(self) -> MultiplicativeGroup:
        return MultiplicativeGroup(self.ext_curve.field)

    def modulus_cocycle(self, ext: bool = False) -> ModulusCocycle:
        return ModulusCocycle(self.ext_curve if ext else self.curve, self.units(), self.modulus)

    def jacobian(self, ext: bool = False) -> ExtensionGroup:
        return ExtensionGroup(self.modulus_cocycle(ext), (self.ext_curve_order if ext else self.curve_order).n)

    def jacobian_order(self) -> Factorization:
        return self.curve_order.merge(self.unit_order)

    @cached_property
    def modulus_order(self) -> int:
        """Order of M - N in E(K), found on first use and kept with these parameters."""
        return element_order(self.ext_curve.sub(self.modulus.M, self.modulus.N), self.ext_curve_order)


def make_toy_params(p: int, seed: int) -> GenJacParams:
    """Pairing-friendly toy family: y^2 = x^3 + x over F_p with p = 3 mod 4.

    Supersingular: p+1 points over F_p, (p+1)^2 over F_{p^2} with the whole
    (p+1)-torsion rational there, so every order comes from the factors of
    p - 1 and p + 1.  Modulus points have x outside F_p, which keeps every
    base-curve operation clear of support collisions.
    """
    if p % 4 != 3:
        raise ValueError("the toy family needs p = 3 mod 4")
    base = PrimeField(p)
    EK = Curve(base, 1, 0).extend(ExtField(base, (1, 0, 1)))

    curve_order, minus = Factorization.from_int(p + 1), Factorization.from_int(p - 1)
    ext_curve_order, unit_order = curve_order.merge(curve_order), minus.merge(curve_order)

    rng = random.Random(seed)
    M = _sample_modulus_point(EK, rng)
    while True:
        N = _sample_modulus_point(EK, rng)
        if N != M and N != EK.neg(M):
            break
    return GenJacParams(Modulus(M, N), curve_order, ext_curve_order, unit_order, seed=seed)


def _sample_modulus_point(EK: Curve, rng) -> Point:
    # x outside the base field: its second coefficient must be nonzero
    while True:
        P = EK.random_point(rng)
        if P.x[1] != 0:
            return P


def curve_orders(E: Curve) -> tuple[int, int]:
    """Exact (#E(F_p), #E(F_p^2)) from the Frobenius trace t of E over F_p.

    t = p + 1 - #E(F_p) by enumeration up to ENUM_BOUND.  Above it only
    y^2 = x^3 + ax with p = 3 mod 4 is accepted, where t = 0: x -> -x
    flips the sign of x^3 + ax and -1 is a non-square, so each pair of
    nonzero x carries two points.  The Weil relation t_2 = t^2 - 2p
    (Washington, Elliptic Curves, ch. 4) gives #E(F_p^2) = (p+1)^2 - t^2.
    """
    if E.field.degree != 1:
        raise ValueError("curve_orders needs a curve over a prime field")
    p = E.field.p
    if p <= ENUM_BOUND:
        t = p + 1 - len(E.enumerate_points())
    elif E.b.is_zero() and p % 4 == 3:
        t = 0
    else:
        raise ValueError(f"above p = {ENUM_BOUND} only y^2 = x^3 + ax with p = 3 mod 4 can be counted")
    return p + 1 - t, (p + 1) ** 2 - t * t


def pairing_order(P: Point, params: GenJacParams) -> int:
    """lcm of the orders of P in E(k) and of M - N in E(K)."""
    if P.curve is not params.curve:
        raise ValueError("P must lie on the base curve")
    return math.lcm(element_order(P, params.curve_order), params.modulus_order)


def tate_from_group_law(P: Point, params: GenJacParams) -> FieldElement:
    """Tate pairing of P against M - N, read off the generalized Jacobian.

    Computes m*(P, 1) for m = pairing_order(P, params); the curve part
    lands on the identity and the fiber part is the inverse of the
    unreduced pairing value, which is returned.
    """
    jac, K = params.jacobian(), params.ext_curve.field
    m = pairing_order(P, params)
    total = jac.scalar_mul(m, ExtElement(P, K.one_coeffs))
    if not total.a_part.is_infinity:
        raise ArithmeticError("pairing order failed to kill the curve component")
    return FieldElement(K, total.b_part).inverse()


def tate_by_miller(P: Point, M: Point, N: Point, m: int) -> FieldElement:
    """Unreduced Tate pairing value f_{m,P}((M) - (N)) by a plain Miller loop.

    Written against the line equations directly, with no use of the
    cocycle machinery, `Curve.add` or a kernel: T runs over (x, y) pairs of
    field elements, None for O, and each step finds T + Q from its own slope,
    so it cross-checks tate_from_group_law.  Requires m*P = O, m >= 1 and
    affine M, N.
    """
    if M.curve is not N.curve:
        raise ValueError("evaluation points live on different curves")
    curve = M.curve
    if P.curve is not curve and P.curve is not curve.base_curve:
        raise ValueError("P must lie on the evaluation curve or its base curve")
    if m < 1:
        raise ValueError("the pairing order must be positive")
    if M.x is None or N.x is None:
        raise SupportCollisionError("the identity is in the support")
    K = curve.field  # an F_p coefficient of a base-curve P lifts to (c, 0)
    P, M, N = (None if X.x is None else (K(X.x), K(X.y)) for X in (P, M, N))
    # f((M) - (N)) as one fraction, so the loop divides once at the end
    num = den = K.one
    T = P
    for bit in bin(m)[3:]:
        step_num, step_den, T = _miller_step(T, T, M, N, curve.a)
        num = num * num * step_num
        den = den * den * step_den
        if bit == "1":
            step_num, step_den, T = _miller_step(T, P, M, N, curve.a)
            num = num * step_num
            den = den * step_den
    if T is not None:
        raise ValueError("m*P must be the identity")
    return num / den


def _miller_step(T, Q, M, N, a: FieldElement):
    """l(M)*v(N), l(N)*v(M) and T+Q, for l through T, Q and v vertical at T+Q; points are (x, y) or None."""
    if T is None or Q is None:
        # adding the identity contributes the constant function 1; this
        # happens when P is the identity or the pairing order is a proper
        # multiple of ord(P)
        one = a.field.one
        return one, one, Q if T is None else T
    (xT, yT), (xQ, yQ), (xM, yM), (xN, yN) = T, Q, M, N
    if xT == xQ and (yT != yQ or yT.is_zero()):
        # T + Q = O: l is the vertical through T; v is the constant 1
        l_m, l_n = xM - xT, xN - xT
        if l_m.is_zero() or l_n.is_zero():
            raise SupportCollisionError("evaluation point sits on a Miller line")
        return l_m, l_n, None
    if xT == xQ:
        x2 = xT * xT
        lam = (x2 + x2 + x2 + a) / (yT + yT)
    else:
        lam = (yQ - yT) / (xQ - xT)
    x_s = lam * lam - xT - xQ
    S = (x_s, lam * (xT - x_s) - yT)
    l_m = (yM - yT) - lam * (xM - xT)
    l_n = (yN - yT) - lam * (xN - xT)
    v_m, v_n = xM - x_s, xN - x_s
    if l_m.is_zero() or l_n.is_zero() or v_m.is_zero() or v_n.is_zero():
        raise SupportCollisionError("evaluation point sits on a Miller line")
    return l_m * v_n, l_n * v_m, S


def reduce_pairing_value(value: FieldElement, m: int, unit_order: int) -> FieldElement:
    """Canonical pairing representative: raise to |K*| / m."""
    if m < 1 or unit_order % m:
        raise ValueError(f"pairing order {m} does not divide the unit group order {unit_order}")
    return value ** (unit_order // m)


# -- parameter files: line-oriented `key = value` text ----------------------

_PARAM_KEYS = (
    "prng",
    "seed",
    "p",
    "curve.a",
    "curve.b",
    "ext.degree",
    "ext.poly",
    "modulus.M",
    "modulus.N",
    "order.curve",
    "order.curve_ext",
    "order.units",
)
_SEED_KEYS = ("prng", "seed")  # present exactly when the parameters carry a seed


def params_to_text(params: GenJacParams) -> str:
    E, K, modulus = params.curve, params.ext_curve.field, params.modulus
    values = {
        "prng": PRNG_NAME, "seed": params.seed, "p": K.p,
        "curve.a": E.a.serialize(), "curve.b": E.b.serialize(),
        "ext.degree": K.degree, "ext.poly": coeffs_to_record(K.poly),
        "modulus.M": modulus.M.serialize(), "modulus.N": modulus.N.serialize(),
        "order.curve": params.curve_order, "order.curve_ext": params.ext_curve_order,
        "order.units": params.unit_order,
    }
    keys = [k for k in _PARAM_KEYS if params.seed is not None or k not in _SEED_KEYS]
    return "\n".join(["# genjac parameters", *(f"{k} = {values[k]}" for k in keys)]) + "\n"


def params_from_text(text: str) -> GenJacParams:
    entries: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if key not in _PARAM_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (lineno, value.strip())
    seeded = any(k in entries for k in _SEED_KEYS)  # prng and seed come together or not at all
    missing = [k for k in _PARAM_KEYS if k not in entries and (seeded or k not in _SEED_KEYS)]
    if missing:
        raise ValueError(f"missing parameter keys: {', '.join(missing)}")

    def parsed(key: str, parse):
        lineno, value = entries[key]
        try:
            return parse(value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None

    base = parsed("p", lambda value: PrimeField(int(value)))
    K = ExtField(base, parsed("ext.poly", base.record_coeffs))
    E = Curve(base, parsed("curve.a", base.from_record), parsed("curve.b", base.from_record))
    EK = E.extend(K)
    modulus = Modulus(parsed("modulus.M", EK.parse_point), parsed("modulus.N", EK.parse_point))

    curve_order = parsed("order.curve", Factorization.parse)
    ext_curve_order = parsed("order.curve_ext", Factorization.parse)
    unit_order = parsed("order.units", Factorization.parse)
    if unit_order.n != K.order - 1:
        raise ValueError(f"unit group order must be {K.order - 1}, file says {unit_order.n}")

    seed = parsed("seed", int) if seeded else None
    params = GenJacParams(modulus, curve_order, ext_curve_order, unit_order, seed=seed)
    # each value as the writer spells it, so a loaded file is its own rewrite and a prng
    # other than mt19937 or a degree other than 2 is refused; only then is the curve counted
    written = dict(line.split(" = ", 1) for line in params_to_text(params).splitlines()[1:])
    for key, (lineno, value) in entries.items():
        if value != written[key]:
            raise ValueError(f"line {lineno}: {key}: write {written[key]!r}, not {value!r}")
    for claimed, counted in zip((curve_order, ext_curve_order), curve_orders(E)):
        if claimed.n != counted:
            raise ValueError(f"curve order is {counted}, claimed {claimed.n}")
    return params


def load_params(path: str) -> GenJacParams:
    with open(path, "r", encoding="ascii") as fp:
        return params_from_text(fp.read())
