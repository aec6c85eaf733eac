"""Affine short-Weierstrass curves y^2 = x^3 + ax + b over exact finite fields.

Besides the chord-and-tangent group law this module evaluates the rational
function v/l attached to a pair of points P, Q: l is the line through P and
Q (tangent at P when P = Q, vertical when Q = -P) and v is the vertical line
through P + Q.  The quotient has divisor (P+Q) + (O) - (P) - (Q), which is
exactly the shape a modulus cocycle needs; it is evaluated at a degree-zero
divisor (M) - (N) in one pass.  An evaluation point in that support is found
by a zero test on l or v and is a hard error rather than a silent wrong
value.  A point is its coordinates' field coefficients (an int in F_p, a
pair in F_{p^2}, None for the identity), so the group law, the line fraction
and point enumeration run on them through the field kernels, counting each
product and inversion: `enumerate_points` makes a `Point` per (x, y) that
its field's `curve_points_coeffs` yields, with no list of pairs in between;
`Curve.point` and `random_point` check a point in `FieldElement` arithmetic
and keep its coefficients.  One vertical-line test comes first; then
`Curve.add` is one call of its field's `chord_sum_coeffs` kernel, which
inverts inline and builds no `FieldElement` on either field, and a caller
that needs P + Q and the line fraction hands that call's slope and x(P+Q)
on to the line fraction, which otherwise asks `chord_coeffs`.  The line
fraction, at M, N over F_{p^2} only, takes v(M)*l(N) and l(M)*v(N) from the
`line_coeffs` kernel, or the collision it reports, and divides them by one
`FieldElement.inverse` into coefficients, the unit group's format.  The
Miller loop in `jacobian` uses no helper, no kernel of the group law and not
`Curve.add`: it stays in `FieldElement` arithmetic with its own slope, as
the cocycle's independent oracle.  Curves are interned like fields, so two
curves are equal exactly when they are the same object, and a curve over
F_{p^2} with coefficients in F_p has the same equation over F_p as its base
curve.  A curve is a `groups.Group` under chord-and-tangent: `identity` is
the point at infinity, and scalar multiplication and subtraction are the
generic ones.
"""

from __future__ import annotations

from typing import Iterator

from .field import Coeffs, ExtField, FieldElement, _Field, coeffs_to_record
from .groups import Group, SupportCollisionError, element_order as _group_element_order
from .numbertheory import Factorization

# Point enumeration walks the whole field; keep it desk-scale.
ENUM_BOUND = 1 << 22
POINT_DRAWS = 10000  # x-coordinates random_point tries before it gives up


class Curve(Group):
    """y^2 = x^3 + ax + b over a field of characteristic at least 5; one object per equation."""

    __slots__ = ("field", "a", "b", "base_curve", "identity")
    _registry: dict[tuple, "Curve"] = {}

    def __new__(cls, field: _Field, a, b) -> "Curve":
        if field.p in (2, 3):
            raise ValueError("short Weierstrass form needs characteristic >= 5")
        a, b = field(a), field(b)
        key = (field, a.coeffs, b.coeffs)
        if (curve := cls._registry.get(key)) is None:
            if (field(4) * a * a * a + field(27) * b * b).is_zero():
                raise ValueError("singular curve: 4a^3 + 27b^2 = 0")
            curve = super().__new__(cls)
            curve.field, curve.a, curve.b = field, a, b
            rational = field.degree == 2 and not a.coeffs[1] and not b.coeffs[1]
            curve.base_curve = Curve(field.base, a.coeffs[0], b.coeffs[0]) if rational else None
            curve.identity = Point(curve, None, None)
            curve = cls._registry.setdefault(key, curve)
        return curve

    def point(self, x, y) -> "Point":
        x, y = self.field(x), self.field(y)
        if y * y != x * x * x + self.a * x + self.b:
            raise ValueError(f"({x!r}, {y!r}) is not on {self!r}")
        return Point(self, x.coeffs, y.coeffs)

    def parse_point(self, record: str) -> "Point":
        """Inverse of Point.serialize(): 'inf' or 'x;y' coefficient lists."""
        record = record.strip()
        if record == "inf":
            return self.identity
        xs, _, ys = record.partition(";")
        if not ys or ";" in ys:
            raise ValueError(f"bad point record {record!r}")
        return self.point(self.field.from_record(xs), self.field.from_record(ys))

    def extend(self, ext_field: ExtField) -> "Curve":
        """The same equation over an extension of this curve's field."""
        if ext_field.base is not self.field:
            raise ValueError("extension field does not contain the curve's field")
        return Curve(ext_field, self.a.coeffs, self.b.coeffs)

    def add(self, P: "Point", Q: "Point") -> "Point":
        if P.curve is not self or Q.curve is not self:
            raise ValueError("points on mismatched curves")
        if P.x is None:  # the identity, tested without the is_infinity property call
            return Q
        if Q.x is None:
            return P
        if _vertical(P, Q):
            return self.identity
        _, x3, y3 = self.field.chord_sum_coeffs(P.x, P.y, Q.x, Q.y, self.a.coeffs)
        return Point(self, x3, y3)

    def neg(self, P: "Point") -> "Point":
        if P.curve is not self:
            raise ValueError("points on mismatched curves")
        if P.x is None:
            return P
        return Point(self, P.x, self.field.sub_coeffs(self.field.zero_coeffs, P.y))

    def elements(self) -> Iterator["Point"]:
        return iter(self.enumerate_points())

    def sample(self, rng) -> "Point":
        return self.random_point(rng)

    def describe(self) -> str:
        return f"E({self.field.name})"

    def enumerate_points(self) -> list["Point"]:
        """All rational points, the identity first, in `curve_points_coeffs` order; desk-scale only."""
        f = self.field
        if f.order > ENUM_BOUND:
            raise ValueError(f"field of order {f.order} exceeds enumeration bound {ENUM_BOUND}")
        points = [self.identity]
        points += (Point(self, x, y) for x, y in f.curve_points_coeffs(self.a.coeffs, self.b.coeffs))
        return points

    def random_point(self, rng) -> "Point":
        """A uniform-ish random affine point, via random x and a square-root attempt."""
        f = self.field
        for _ in range(POINT_DRAWS):
            x = f.sample(rng)
            rhs = x * x * x + self.a * x + self.b
            if rhs.is_zero():
                return Point(self, x.coeffs, f.zero_coeffs)
            y = rhs.sqrt()
            if y is None:
                continue
            if rng.randrange(2):
                y = -y
            return Point(self, x.coeffs, y.coeffs)
        raise RuntimeError("no curve point found; curve suspiciously small")

    def __repr__(self) -> str:
        return f"Curve(y^2 = x^3 + {self.a.serialize()}*x + {self.b.serialize()} over {self.field.name})"


class Point:
    """Affine curve point by its coordinates' field coefficients, or the identity when both are None."""

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve: Curve, x: Coeffs | None, y: Coeffs | None) -> None:
        self.curve = curve
        self.x = x
        self.y = y

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __eq__(self, other) -> bool:
        return isinstance(other, Point) and (other.curve, other.x, other.y) == (self.curve, self.x, self.y)

    def __hash__(self) -> int:
        return hash((self.curve, self.x, self.y))

    def serialize(self) -> str:
        if self.is_infinity:
            return "inf"
        return f"{coeffs_to_record(self.x)};{coeffs_to_record(self.y)}"

    def __repr__(self) -> str:
        return f"Point({self.serialize().replace(';', '; ')})"


def element_order(P: Point, group_order: Factorization) -> int:
    """Exact order of P given a factored multiple of it: `groups.element_order` on P's curve."""
    return _group_element_order(P.curve, P, group_order)


def _vertical(P: Point, Q: Point) -> bool:
    """Whether P + Q = O for affine P, Q on one curve: the line through them is vertical."""
    return P.x == Q.x and (P.y != Q.y or P.y == P.curve.field.zero_coeffs)


def eval_line_fraction(P: Point, Q: Point, M: Point, N: Point, chord=None) -> Coeffs:
    """Evaluate v/l at the degree-zero divisor (M) - (N): (v/l)(M) / (v/l)(N), as coefficients.

    P and Q may live on the base curve while M and N live on an extension
    of it; the slope and x(P+Q) are then computed in the base field and
    only they and P's coordinates are lifted; `chord`, when given, is the
    (lambda, x(P+Q)) the caller's kernel found.  M and N must lie over F_{p^2}.
    When P or Q is the identity the function is the constant 1.  Otherwise
    M and N must avoid the support {O, P, Q, P+Q, -(P+Q)}.  On the curve l vanishes exactly at P,
    Q and -(P+Q), and v exactly at +-(P+Q), so an affine evaluation point
    lies in the support exactly when l or v is zero there.
    """
    curve = M.curve
    field = curve.field
    if N.curve is not curve:
        raise ValueError("M and N must live on the same curve")
    if field.degree != 2:
        raise ValueError("M and N must live over F_p^2")
    lift = P.curve is not curve or Q.curve is not curve
    if lift and not (P.curve is curve.base_curve and Q.curve is curve.base_curve):
        raise ValueError("M and N must live on the points' curve or an extension of it")
    if P.x is None or Q.x is None:
        return field.one_coeffs
    if M.x is None or N.x is None:
        raise SupportCollisionError("the identity is in the support")
    sub, mul, zero = field.sub_coeffs, field.mul_coeffs, field.zero_coeffs
    xP, yP, xM, xN = P.x, P.y, M.x, N.x
    if lift:
        xP, yP = (xP, 0), (yP, 0)
    if chord is None and not _vertical(P, Q):  # on P's curve, before any lift
        chord = P.curve.field.chord_coeffs(P.x, P.y, Q.x, Q.y, P.curve.a.coeffs)
    if chord is None:
        # P + Q = O: l is the vertical through P and v is the constant 1
        l_m, l_n = sub(xM, xP), sub(xN, xP)
        if zero in (l_m, l_n):
            raise SupportCollisionError("M or N is a pole of the line fraction")
        return mul(l_n, FieldElement(field, l_m).inverse().coeffs)
    lam, xS = chord
    if lift:
        lam, xS = (lam, 0), (xS, 0)
    if (fraction := field.line_coeffs(lam, xP, yP, xS, xM, M.y, xN, N.y)) is None:
        raise SupportCollisionError("M or N lies in the support of the line fraction")
    num, den = fraction
    return mul(num, FieldElement(field, den).inverse().coeffs)
