"""Exact arithmetic in F_p and F_{p^2}, with always-on multiplication and inversion tallies.

F_{p^2} = F_p[u]/(u^2 + s*u + t) for an odd prime p and any monic
irreducible quadratic.  An element's coefficients are an int in F_p and a
pair (a0, a1) meaning a0 + a1*u in F_{p^2}, the field's zero and one being
`zero_coeffs` and `one_coeffs`.  Each field has straight-line kernels on
them (`add_coeffs`, `sub_coeffs`, `mul_coeffs`), and `FieldElement`
arithmetic is their checked wrapper: one field method, `coeffs_of`, checks
every operand and coercion and is the only place that raises on a
mismatch; `K(c)` lifts an F_p coefficient c into F_{p^2} as (c, 0).
Powers and the Tonelli-Shanks square root run on the kernels too.  A
curve point stores its coordinates, and a unit itself, in the same
format, so the group law never wraps them.  Its kernels are straight
line on ints or int pairs and tick their products in bulk:
`chord_coeffs`, on each field, gives the slope and x(P+Q), and
`chord_sum_coeffs` calls it and adds y(P+Q) for one product; `line_coeffs`,
on F_{p^2} only, where every modulus lives, the two products of a line
fraction v/l at (M) - (N), or None on a zero of l or v; and
`curve_points_coeffs`, on each field, every (x, y) on a curve, each x's
x^3 + ax + b looked up in a table of the squares y^2 and their roots,
4 products per field element.  Both chords invert inline, F_p's with
`pow(den, -1, p)` and F_{p^2}'s as the conjugate over the norm (Devegili,
O hEigeartaigh, Scott and Dahab, "Multiplication and squaring on
pairing-friendly fields", ePrint 2006/471); every other inverse is
`FieldElement.inverse`, which keeps its own copy of that formula as the
kernel tests' independent oracle.  Each product a kernel makes adds one to
a process-wide tally for its field's degree, whether an operator or a
kernel caller asked for it, each inversion, a chord's or `inverse`'s, one
to a second tally, and `count_mults` reads both by difference over a
`with` block; addition, subtraction and negation count nothing, so the
counts compare the work different group laws ask of the field.  Fields
are interned by one rule, `_Field._intern`, one object per parameter set,
so two fields are equal exactly when they are the same object.  Records
are read as written: `from_record` takes only coefficients in [0, p) and
reduces none of them, and `coeffs_to_record` writes either format.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .numbertheory import double_and_add, is_prime, quoted

# Characteristic stays word-sized; exact Python ints do the rest.
PRIME_BOUND = 1 << 61
Coeffs = int | tuple[int, int]  # an element's coefficients, by its field's degree


# field multiplications and inversions made so far in this process, indexed by extension
# degree; only the kernels and `FieldElement.inverse` add to them, a list being the cheapest increment
_tally = [0, 0, 0]
_inversions = [0, 0, 0]


class count_mults:
    """Count the field multiplications made in a `with` block, and apart from them the inversions
    (`inversions`), each split by extension degree; blocks nest, and counts are process-wide."""

    __slots__ = ("_start", "_stop")

    def __enter__(self) -> "count_mults":
        self._start, self._stop = (_tally[:], _inversions[:]), None
        return self

    def __exit__(self, *exc) -> None:
        self._stop = (_tally[:], _inversions[:])

    def _delta(self, ledger: int) -> dict[int, int]:
        stop, start = (self._stop or (_tally, _inversions))[ledger], self._start[ledger]  # running inside the block
        return {d: stop[d] - start[d] for d in (1, 2) if stop[d] != start[d]}

    @property
    def by_degree(self) -> dict[int, int]:
        return self._delta(0)

    @property
    def inversions(self) -> dict[int, int]:
        return self._delta(1)

    @property
    def muls(self) -> int:
        return sum(self.by_degree.values())


class _Field:
    """Shared behavior of the prime field and its extensions."""

    p: int
    degree: int
    order: int

    def __call__(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            return FieldElement(self, self.coeffs_of(value))
        if isinstance(value, int):
            value = (value,)
        elif not isinstance(value, Sequence):
            raise TypeError(f"cannot coerce {value!r} into {self}")
        if len(value) > self.degree:
            raise ValueError(f"too many coefficients for degree-{self.degree} field")
        coeffs = [c % self.p for c in value] + [0] * (self.degree - len(value))
        return FieldElement(self, coeffs[0] if self.degree == 1 else tuple(coeffs))

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, self.one_coeffs)

    def coeffs_of(self, x) -> Coeffs:
        """The coefficients of x, which must be an element of this field."""
        if not (isinstance(x, FieldElement) and x.field is self):
            raise ValueError("mismatched field parameters")
        return x.coeffs

    @classmethod
    def _intern(cls, key, **slots) -> "_Field":
        """The one field registered under key, built from slots on first use."""
        if (field := cls._registry.get(key)) is None:
            field = object.__new__(cls)
            for name, value in slots.items():
                setattr(field, name, value)
            field = cls._registry.setdefault(key, field)
        return field

    def _at(self, index: int) -> "FieldElement":
        # base-p digits of index, constant coefficient first
        return FieldElement(self, index % self.p if self.degree == 1 else (index % self.p, index // self.p))

    def all_coeffs(self) -> Iterator[Coeffs]:
        """Coefficients of all field elements, in a fixed base-p little-endian order."""
        digits = range(self.p)
        return iter(digits) if self.degree == 1 else ((lo, hi) for hi in digits for lo in digits)

    def sample(self, rng) -> "FieldElement":
        return self._at(rng.randrange(self.order))

    def record_coeffs(self, text: str) -> list[int]:
        """Parse 'c0,c1,...' (constant first), refusing an empty record or a coefficient outside [0, p)."""
        text = text.strip()
        if not text:
            raise ValueError("empty coefficient record")
        coeffs = [int(chunk) for chunk in text.split(",")]
        if not all(0 <= c < self.p for c in coeffs):
            raise ValueError(f"coefficients must lie in [0, {self.p}), got {text!r}")
        return coeffs

    def from_record(self, text: str) -> "FieldElement":
        return self(self.record_coeffs(text))


class PrimeField(_Field):
    """F_p for a word-sized prime p; one object per p."""

    __slots__ = ("p", "degree", "order", "zero_coeffs", "one_coeffs", "_nonresidue_t")
    _registry: dict[int, "PrimeField"] = {}

    def __new__(cls, p: int) -> "PrimeField":
        if not isinstance(p, int) or p < PRIME_BOUND and not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p >= PRIME_BOUND:  # refused before any primality test, whatever its size
            raise ValueError(f"prime {quoted(p)} exceeds the 2^61 bound")
        return cls._intern(p, p=p, degree=1, order=p, zero_coeffs=0, one_coeffs=1, _nonresidue_t=None)

    @property
    def name(self) -> str:
        return f"F_{self.p}"

    def add_coeffs(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub_coeffs(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul_coeffs(self, a: int, b: int) -> int:
        _tally[1] += 1
        return a * b % self.p

    def chord_coeffs(self, x1: int, y1: int, x2: int, y2: int, a: int) -> tuple[int, int]:
        """(lambda, x(P+Q)) for affine P + Q != O on a curve with x-coefficient a, straight-line."""
        p = self.p
        _inversions[1] += 1
        if x1 == x2:
            _tally[1] += 3  # x^2, lambda and lambda^2
            lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
        else:
            _tally[1] += 2  # lambda and lambda^2
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        return lam, (lam * lam - x1 - x2) % p

    def chord_sum_coeffs(self, x1: int, y1: int, x2: int, y2: int, a: int) -> tuple[int, int, int]:
        """(lambda, x(P+Q), y(P+Q)) for affine P + Q != O: `chord_coeffs`, then one product for y."""
        lam, x3 = self.chord_coeffs(x1, y1, x2, y2, a)
        _tally[1] += 1
        return lam, x3, (lam * (x1 - x3) - y1) % self.p

    def curve_points_coeffs(self, a: int, b: int) -> Iterator[tuple[int, int]]:
        """(x, y) on y^2 = x^3 + ax + b, by x and then by y in all_coeffs() order, straight-line."""
        p = self.p
        _tally[1] += 4 * p  # y^2 for every y, then x^2, x^3 and a*x for every x
        roots = {0: (0,)}  # a nonzero square's roots y < p - y, in that order
        for y in range(1, (p + 1) // 2):
            roots[y * y % p] = (y, p - y)
        for x in range(p):
            for y in roots.get(((x * x + a) * x + b) % p, ()):
                yield x, y

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


class ExtField(_Field):
    """F_{p^2} = F_p[u]/(u^2 + s*u + t), poly = (t, s, 1) monic irreducible; one object per poly."""

    __slots__ = ("base", "p", "degree", "order", "poly", "zero_coeffs", "one_coeffs", "_nonresidue_t")
    _registry: dict[tuple[int, tuple[int, ...]], "ExtField"] = {}

    def __new__(cls, base: PrimeField, poly: Sequence[int]) -> "ExtField":
        if not isinstance(base, PrimeField):
            raise ValueError("extension must sit over a PrimeField")
        if len(poly) != 3:
            raise ValueError(f"extension degree must be 2, got {len(poly) - 1}")
        p = base.p
        if p == 2:
            raise ValueError("quadratic extensions need an odd characteristic, got p = 2")
        poly = tuple(c % p for c in poly)
        t, s, lead = poly
        if lead != 1:
            raise ValueError("reduction polynomial must be monic")
        # irreducible iff the discriminant is a non-square (Euler's criterion)
        if pow(s * s - 4 * t, (p - 1) // 2, p) != p - 1:
            raise ValueError(f"reduction polynomial {list(poly)} is reducible over F_{p}")
        return cls._intern((p, poly), base=base, p=p, degree=2, order=p * p, poly=poly,
                           zero_coeffs=(0, 0), one_coeffs=(1, 0), _nonresidue_t=None)

    @property
    def name(self) -> str:
        return f"F_{self.p}^2"

    def add_coeffs(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        return ((a[0] + b[0]) % self.p, (a[1] + b[1]) % self.p)

    def sub_coeffs(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        return ((a[0] - b[0]) % self.p, (a[1] - b[1]) % self.p)

    def mul_coeffs(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        _tally[2] += 1
        (a0, a1), (b0, b1), (t, s, _), p = a, b, self.poly, self.p
        hi = a1 * b1  # times u^2 = -s*u - t
        return ((a0 * b0 - t * hi) % p, (a0 * b1 + a1 * b0 - s * hi) % p)

    def chord_coeffs(self, xP, yP, xQ, yQ, a) -> tuple[tuple[int, int], tuple[int, int]]:
        """(lambda, x(P+Q)) for affine P + Q != O on a curve with x-coefficient a, straight-line
        on the pairs; the denominator d0 + d1*u is inverted inline, its conjugate (d0 - s*d1) - d1*u
        over its norm d0^2 - s*d0*d1 + t*d1^2 by one `pow`, as `FieldElement.inverse` does."""
        (x1, x1u), (x2, x2u), (t, s, _), p = xP, xQ, self.poly, self.p
        _inversions[2] += 1
        if xP == xQ:
            _tally[2] += 3  # x^2, lambda and lambda^2
            hi = x1u * x1u
            n0, n1 = 3 * (x1 * x1 - t * hi) + a[0], 3 * (2 * x1 * x1u - s * hi) + a[1]
            d0, d1 = 2 * yP[0], 2 * yP[1]
        else:
            _tally[2] += 2  # lambda and lambda^2
            n0, n1 = yQ[0] - yP[0], yQ[1] - yP[1]
            d0, d1 = x2 - x1, x2u - x1u
        inv = pow(d0 * d0 - s * d0 * d1 + t * d1 * d1, -1, p)
        d0, d1 = (d0 - s * d1) * inv % p, -d1 * inv % p
        hi = n1 * d1
        l0, l1 = (n0 * d0 - t * hi) % p, (n0 * d1 + n1 * d0 - s * hi) % p
        hi = l1 * l1
        return (l0, l1), ((l0 * l0 - t * hi - x1 - x2) % p, (2 * l0 * l1 - s * hi - x1u - x2u) % p)

    def chord_sum_coeffs(self, xP, yP, xQ, yQ, a):
        """(lambda, x(P+Q), y(P+Q)) for affine P + Q != O: `chord_coeffs`, then one product for y."""
        lam, x3 = self.chord_coeffs(xP, yP, xQ, yQ, a)
        (l0, l1), (t, s, _), p = lam, self.poly, self.p
        _tally[2] += 1
        d0, d1 = xP[0] - x3[0], xP[1] - x3[1]
        hi = l1 * d1
        return lam, x3, ((l0 * d0 - t * hi - yP[0]) % p, (l0 * d1 + l1 * d0 - s * hi - yP[1]) % p)

    def line_coeffs(self, lam, xP, yP, xS, xM, yM, xN, yN):
        """(v(M)*l(N), l(M)*v(N)) for l of slope lam through P and v at x = xS; None on a zero."""
        (l0, l1), (p0, p1), (t, s, _), p = lam, xP, self.poly, self.p
        _tally[2] += 2  # lambda times x(M) - x(P) and x(N) - x(P)
        d0, d1 = xM[0] - p0, xM[1] - p1
        hi = l1 * d1
        lm0, lm1 = (yM[0] - yP[0] - l0 * d0 + t * hi) % p, (yM[1] - yP[1] - l0 * d1 - l1 * d0 + s * hi) % p
        d0, d1 = xN[0] - p0, xN[1] - p1
        hi = l1 * d1
        ln0, ln1 = (yN[0] - yP[0] - l0 * d0 + t * hi) % p, (yN[1] - yP[1] - l0 * d1 - l1 * d0 + s * hi) % p
        vm0, vm1 = (xM[0] - xS[0]) % p, (xM[1] - xS[1]) % p
        vn0, vn1 = (xN[0] - xS[0]) % p, (xN[1] - xS[1]) % p
        if not ((lm0 or lm1) and (ln0 or ln1) and (vm0 or vm1) and (vn0 or vn1)):
            return None
        _tally[2] += 2
        hi, lo = vm1 * ln1, lm1 * vn1
        return (((vm0 * ln0 - t * hi) % p, (vm0 * ln1 + vm1 * ln0 - s * hi) % p),
                ((lm0 * vn0 - t * lo) % p, (lm0 * vn1 + lm1 * vn0 - s * lo) % p))

    def curve_points_coeffs(self, a, b) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
        """(x, y) on y^2 = x^3 + ax + b, by x and then by y in all_coeffs() order, on the pairs."""
        (t, s, _), p, (a0, a1), (b0, b1) = self.poly, self.p, a, b
        _tally[2] += 4 * p * p  # y^2 for every y, then x^2, x^3 and a*x for every x
        # a nonzero square's roots y, -y in that order: y1 < p - y1, or y1 = 0 and y0 < p - y0
        roots = {(0, 0): ((0, 0),)}
        for y1 in range((p + 1) // 2):
            hi = y1 * y1
            for y0 in range(p) if y1 else range(1, (p + 1) // 2):
                roots[(y0 * y0 - t * hi) % p, (2 * y0 * y1 - s * hi) % p] = ((y0, y1), (-y0 % p, -y1 % p))
        for x1 in range(p):
            hi = x1 * x1
            for x0 in range(p):
                c0, c1 = x0 * x0 - t * hi + a0, 2 * x0 * x1 - s * hi + a1  # x^2 + a, times x below
                d = x1 * c1
                for y in roots.get(((x0 * c0 - t * d + b0) % p, (x0 * c1 + x1 * c0 - s * d + b1) % p), ()):
                    yield (x0, x1), y

    def __repr__(self) -> str:
        return f"ExtField(p={self.p}, degree=2, poly={list(self.poly)})"


class FieldElement:
    """Immutable element of a PrimeField or ExtField."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: _Field, coeffs: Coeffs) -> None:
        self.field = field
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return self.coeffs == self.field.zero_coeffs

    def __add__(self, other: "FieldElement") -> "FieldElement":
        f = self.field
        return FieldElement(f, f.add_coeffs(self.coeffs, f.coeffs_of(other)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        f = self.field
        return FieldElement(f, f.sub_coeffs(self.coeffs, f.coeffs_of(other)))

    def __neg__(self) -> "FieldElement":
        f = self.field
        return FieldElement(f, f.sub_coeffs(f.zero_coeffs, self.coeffs))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        f = self.field
        return FieldElement(f, f.mul_coeffs(self.coeffs, f.coeffs_of(other)))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        # inverse-and-multiply, so one counted multiplication and inversion per division
        f = self.field
        f.coeffs_of(other)
        return FieldElement(f, f.mul_coeffs(self.coeffs, other.inverse().coeffs))

    def inverse(self) -> "FieldElement":
        f, a = self.field, self.coeffs
        if a == f.zero_coeffs:
            raise ZeroDivisionError(f"division by zero in {f!r}")
        _inversions[f.degree] += 1
        if f.degree == 1:
            return FieldElement(f, pow(a, -1, f.p))
        (a0, a1), (t, s, _), p = a, f.poly, f.p
        # conjugate (a0 - s*a1) - a1*u over the norm a0^2 - s*a0*a1 + t*a1^2
        inv = pow(a0 * a0 - s * a0 * a1 + t * a1 * a1, -1, p)
        return FieldElement(f, ((a0 - s * a1) * inv % p, -a1 * inv % p))

    def __pow__(self, n: int) -> "FieldElement":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        if n == 0:
            if self.is_zero():
                raise ArithmeticError("0**0 is undefined")
            return self.field.one
        f = self.field
        return FieldElement(f, double_and_add(f.mul_coeffs, self.coeffs, n))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and other.field is self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def serialize(self) -> str:
        """Comma-separated coefficients, little-endian by degree."""
        return coeffs_to_record(self.coeffs)

    def sqrt(self) -> "FieldElement | None":
        """A square root if one exists, else None, by one Tonelli-Shanks loop.

        q - 1 = 2^m * t, t odd; x = a^((t+1)/2) and b = a^t, so x^2 = a*b (Cohen,
        GTM 138, Alg. 1.5.1).  b of order 2^m means a is a non-square; otherwise
        a power of c = z^t, z a fixed non-square whose z^t coefficients the field
        keeps, fixes x and lowers b's order.  The loop runs on coefficients
        through `mul_coeffs`; only the root is built as an element.
        """
        f, a = self.field, self.coeffs
        if self.is_zero():
            return self
        mul, one = f.mul_coeffs, f.one_coeffs
        m, t = 0, f.order - 1
        while t % 2 == 0:
            t //= 2
            m += 1
        w = double_and_add(mul, a, t // 2) if t > 1 else one
        x = mul(a, w)
        b = mul(x, w)
        c = f._nonresidue_t
        while b != one:
            i, probe = 1, mul(b, b)
            while probe != one and i < m:  # b^(2^m) = 1 always, so the bound only ends broken arithmetic
                probe = mul(probe, probe)
                i += 1
            if i == m:
                return None
            if c is None:
                # the first non-square in all_coeffs() order, once per field; all
                # of F_p is square in F_{p^2}, so there the search starts at u
                index = f.p if f.degree == 2 else 1
                while double_and_add(mul, z := f._at(index).coeffs, (f.order - 1) // 2) == one:
                    index += 1
                    if index == f.order:
                        raise ArithmeticError(f"no non-square in {f.name}")
                c = f._nonresidue_t = double_and_add(mul, z, t)
            e = double_and_add(mul, c, 1 << (m - i - 1))
            x = mul(x, e)
            c = mul(e, e)
            b = mul(b, c)
            m = i
        return FieldElement(f, x)

    def __repr__(self) -> str:
        if self.field.degree == 1:
            return f"{self.coeffs} (mod {self.field.p})"
        return f"({self.serialize()}) in {self.field.name}"


def coeffs_to_record(coeffs: int | Sequence[int]) -> str:
    """An int, or a sequence's entries comma-separated, as a record writes them."""
    return str(coeffs) if isinstance(coeffs, int) else ",".join(str(c) for c in coeffs)
