"""Test subjects and oracles: groups, cocycles and solvers that only the tests use.

`CyclicGroup` is Z/n, the cheap backend for checking generic code.
`CoboundaryCocycle` is a random split extension, a valid cocycle whose
extension is isomorphic to the direct product.  `brute_force_dlp` is the
linear-scan oracle that the discrete-log solvers are checked against.
`enumerate_by_definition` lists E(F_q) through the field's `mul_coeffs`
and `add_coeffs`, the oracle for the enumeration kernels, and
`random_point_by_definition` draws a point of E in `FieldElement`
arithmetic, the oracle for `Curve.random_point`.  `KERNEL_CURVES` are the
curves the field kernels are checked on.
"""

from typing import Any, Iterator

from genjac.curve import POINT_DRAWS, Curve, Point
from genjac.dlp import DlpSolution, NoSolutionError, Step
from genjac.field import Coeffs
from genjac.groups import Cocycle, Group

BRUTE_FORCE_BOUND = 10**6

# the kernels on F_p and on two F_{p^2} whose reduction polynomial u^2 + s*u + t
# has s != 0 and t != 1, so every s- and t-term of the pair products is exercised;
# each entry is (p, poly or None for F_p, a, b)
KERNEL_CURVES = {
    "E(F_11)": (11, None, 1, 3),
    "E(F_7[u]/(u^2+u+3))": (7, (3, 1, 1), [0, 1], 1),
    "E(F_11[u]/(u^2+3u+6))": (11, (6, 3, 1), [2, 1], [0, 3]),
}


class CyclicGroup(Group):
    """Z/n with elements 0..n-1; the cheap test backend."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("modulus must be positive")
        self.n = n

    @property
    def identity(self) -> int:
        return 0

    def add(self, x: int, y: int) -> int:
        return (x + y) % self.n

    def neg(self, x: int) -> int:
        return -x % self.n

    def serialize(self, x: int) -> str:
        return str(x)

    def elements(self) -> Iterator[int]:
        return iter(range(self.n))

    def sample(self, rng) -> int:
        return rng.randrange(self.n)

    def describe(self) -> str:
        return f"Z/{self.n}"


class CoboundaryCocycle(Cocycle):
    """c(p, q) = g(p) + g(q) - g(p+q) for a table-backed g with g(0) = 0.

    Always a valid cocycle, and the resulting extension is isomorphic to
    the direct product, which makes these good randomized test subjects.
    Requires an enumerable A so the table can be checked for coverage.
    """

    def __init__(self, a_group: Group, b_group: Group, table: dict) -> None:
        super().__init__(a_group, b_group)
        if table.get(a_group.identity) != b_group.identity:
            raise ValueError("coboundary table must send 0 to 0")
        for a in a_group.elements():
            if a not in table:
                raise ValueError(f"coboundary table misses {a_group.serialize(a)}")
        self.table = table

    @classmethod
    def random(cls, a_group: Group, b_group: Group, rng) -> "CoboundaryCocycle":
        table = {a: b_group.sample(rng) for a in a_group.elements()}
        table[a_group.identity] = b_group.identity
        return cls(a_group, b_group, table)

    def __call__(self, p, q):
        return self.sum_and_value(p, q)[1]

    def sum_and_value(self, p, q):
        B, pq = self.b_group, self.a_group.add(p, q)
        return pq, B.sub(B.add(self.table[p], self.table[q]), self.table[pq])

    def describe(self) -> str:
        return f"coboundary(|A|={len(self.table)})"


def brute_force_dlp(group: Group, generator: Any, target: Any, order: int) -> DlpSolution:
    """Linear scan through the subgroup.  Only for tiny orders and cross-checks."""
    if not 0 < order <= BRUTE_FORCE_BOUND:
        raise ValueError(f"order {order} out of range for a linear scan")
    acc = group.identity
    for k in range(order):
        if acc == target:
            return DlpSolution(k, order, (Step("brute-force", f"order {order}"),))
        acc = group.add(acc, generator)
    raise NoSolutionError("target is not in the subgroup generated by the generator")


def enumerate_by_definition(E: Curve) -> list[Point]:
    """All points of E, the identity first: a table of y^2 over every y, then each x's
    x^3 + ax + b looked up in it, every product through the field's `mul_coeffs`."""
    f = E.field
    add, mul, a, b = f.add_coeffs, f.mul_coeffs, E.a.coeffs, E.b.coeffs
    roots: dict[Coeffs, list[Coeffs]] = {}
    for y in f.all_coeffs():
        roots.setdefault(mul(y, y), []).append(y)
    points = [E.identity]
    for x in f.all_coeffs():
        ys = roots.get(add(add(mul(mul(x, x), x), mul(a, x)), b), ())
        points += (Point(E, x, y) for y in ys)
    return points


def random_point_by_definition(E: Curve, rng) -> Point:
    """A random affine point of E, drawn as `Curve.random_point` draws it: a random x until
    x^3 + ax + b is zero or a square, then one draw for the sign of y, in `FieldElement` arithmetic."""
    f = E.field
    for _ in range(POINT_DRAWS):
        x = f.sample(rng)
        rhs = x * x * x + E.a * x + E.b
        if rhs.is_zero():
            return Point(E, x.coeffs, f.zero_coeffs)
        y = rhs.sqrt()
        if y is None:
            continue
        if rng.randrange(2):
            y = -y
        return Point(E, x.coeffs, y.coeffs)
    raise RuntimeError("no curve point found; curve suspiciously small")
