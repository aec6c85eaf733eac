"""Commutative group backends and extensions presented by symmetric 2-cocycles.

A normalized symmetric 2-cocycle c: A x A -> B twists the product set
A x B into a commutative group:

    (a1, b1) + (a2, b2) = (a1 + a2, b1 + b2 + c(a1, a2))

with identity (0, 0) and inverse (-a, -(b + c(a, -a))).  Embedding B as
{(0, b)} and projecting to A makes 0 -> B -> C -> A -> 0 exact; that
exactness is what the discrete-log reduction in dlp.py exploits.  All
backends write their law additively, including the multiplicative group
of a field, whose units are their field coefficients (its add is
`mul_coeffs`), so the same extension machinery covers every case.  An
extension add asks its cocycle for a + a' and c(a, a') in one call, so a
cocycle that needs the sum anyway computes it once; the cocycle relation
check takes p + q and q + r from the cocycle the same way.  The
curve backend is `curve.Curve` itself, a `Group` subclass, so this module
imports nothing from the curve layer; `SupportCollisionError` lives here
because the samplers skip the draws that raise it.  A sampler evaluates
every relation on a draw to find those collisions and hands the outcomes
back with its triples, so `verify_*` on the same subject evaluates none twice.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Iterator, NamedTuple

from .field import Coeffs, FieldElement, _Field, coeffs_to_record
from .numbertheory import Factorization, NotAMultipleError, double_and_add, order_parts


class SupportCollisionError(Exception):
    """Evaluation point lies in the zero/pole support of the requested function."""


class Group(ABC):
    """Commutative group written additively; every backend also gives `elements`, `sample` and `describe`."""

    __slots__ = ()

    @property
    @abstractmethod
    def identity(self):
        ...

    @abstractmethod
    def add(self, x, y):
        ...

    @abstractmethod
    def neg(self, x):
        ...

    def serialize(self, x) -> str:
        return x.serialize()

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def scalar_mul(self, n: int, x):
        if n < 0:
            n, x = -n, self.neg(x)
        return double_and_add(self.add, x, n) if n else self.identity


class MultiplicativeGroup(Group):
    """Nonzero field elements as coefficients: add is `mul_coeffs`, neg one `FieldElement.inverse`."""

    def __init__(self, field: _Field) -> None:
        self.field = field

    @property
    def identity(self) -> Coeffs:
        return self.field.one_coeffs

    def add(self, x: Coeffs, y: Coeffs) -> Coeffs:
        return self.field.mul_coeffs(x, y)

    def neg(self, x: Coeffs) -> Coeffs:
        return FieldElement(self.field, x).inverse().coeffs

    def serialize(self, x: Coeffs) -> str:
        return coeffs_to_record(x)

    def elements(self) -> Iterator[Coeffs]:
        return (x for x in self.field.all_coeffs() if x != self.field.zero_coeffs)

    def sample(self, rng) -> Coeffs:
        while True:
            x = self.field.sample(rng)
            if not x.is_zero():
                return x.coeffs

    def describe(self) -> str:
        return f"Gm({self.field.name})"


class ExtElement(NamedTuple):
    """Element of an extension group: a base-group part and a fiber part."""

    a_part: Any
    b_part: Any


class Cocycle(ABC):
    """Symmetric normalized 2-cocycle c: A x A -> B bound to its two groups.

    Normalized means c(x, 0) = c(0, x) = 0 in B, so (0, 0) really is the
    extension's identity.
    """

    tag: str

    def __init__(self, a_group: Group, b_group: Group) -> None:
        self.a_group = a_group
        self.b_group = b_group

    @abstractmethod
    def __call__(self, p, q):
        ...

    def sum_and_value(self, p, q):
        """(p + q, c(p, q)); a cocycle that finds both from shared work overrides it."""
        return self.a_group.add(p, q), self(p, q)

    def describe(self) -> str:
        return self.tag


class ZeroCocycle(Cocycle):
    """Identically zero; the extension is the direct product A x B."""

    tag = "zero"

    def __call__(self, p, q):
        return self.b_group.identity


class ExtensionGroup(Group):
    """The group on A x B determined by a symmetric 2-cocycle; `a_order` is None or a multiple of |A|."""

    def __init__(self, cocycle: Cocycle, a_order: int | None = None) -> None:
        self.cocycle = cocycle
        self.a_group = cocycle.a_group
        self.b_group = cocycle.b_group
        self.a_order = a_order

    def a_multiple(self, n: Factorization) -> Factorization:
        """A factored multiple n of an element's order cut to gcd(n, a_order) by `Factorization.divisor`."""
        return n if self.a_order is None else n.divisor(math.gcd(n.n, self.a_order))

    @property
    def identity(self) -> ExtElement:
        return ExtElement(self.a_group.identity, self.b_group.identity)

    def add(self, x: ExtElement, y: ExtElement) -> ExtElement:
        (a1, b1), (a2, b2), B = x, y, self.b_group
        a_sum, c = self.cocycle.sum_and_value(a1, a2)
        return tuple.__new__(ExtElement, (a_sum, B.add(B.add(b1, b2), c)))  # skips NamedTuple's Python __new__

    def neg(self, x: ExtElement) -> ExtElement:
        A, B = self.a_group, self.b_group
        a_neg = A.neg(x.a_part)
        return ExtElement(a_neg, B.neg(B.add(x.b_part, self.cocycle(x.a_part, a_neg))))

    def serialize(self, x: ExtElement) -> str:
        return f"{self.a_group.serialize(x.a_part)}|{self.b_group.serialize(x.b_part)}"

    def elements(self) -> Iterator[ExtElement]:
        for a in self.a_group.elements():
            for b in self.b_group.elements():
                yield ExtElement(a, b)

    def sample(self, rng) -> ExtElement:
        return ExtElement(self.a_group.sample(rng), self.b_group.sample(rng))

    def describe(self) -> str:
        return (
            f"extension of {self.a_group.describe()} by {self.b_group.describe()}"
            f" [{self.cocycle.describe()}]"
        )


def element_order(group: Group, x, order_multiple: Factorization) -> int:
    """Exact order of x given a factored multiple n of it, by `order_parts`.

    In an extension it is n_A * ord(t), with n_A = ord(x.a_part) found in A
    against `a_multiple(n)`, gcd(n, |A|), and n_A * x = (0, t) from one ladder,
    as a normalized cocycle makes {(0, b)} a copy of B; ord(t) is found in B
    against n / n_A.  Both searches test that n is a multiple of ord(x), a
    wrong `a_order` failing only the first, and a failure names n.
    """
    if isinstance(group, ExtensionGroup):
        n, B = order_multiple.n, group.b_group
        try:
            n_a = element_order(group.a_group, x.a_part, group.a_multiple(order_multiple))
            t = group.scalar_mul(n_a, x).b_part
            return n_a * element_order(B, t, order_multiple.divisor(n // n_a))
        except NotAMultipleError:
            raise NotAMultipleError(f"{n} is not a multiple of the element's order") from None
    parts = order_parts(group.add, group.identity, x, order_multiple)
    return math.prod(l**f for l, _, f, _, _ in parts)


@dataclass
class CheckReport:
    """Outcome of a batch of relation checks, with labeled failures."""

    checks: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, label: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(label)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return f"{self.checks} checks, {len(self.failures)} failures"


def _cocycle_relations(cocycle: Cocycle, p, q, r) -> list[tuple[bool, str]]:
    """(holds, name) for each cocycle relation on one A-triple, written additively in B:

        c(p, q) = c(q, p)
        c(p, q) + c(p+q, r) = c(q, r) + c(p, q+r)

    p + q and q + r come from `sum_and_value`, with c(p, q) and c(q, r).
    """
    B = cocycle.b_group
    pq, c_pq = cocycle.sum_and_value(p, q)
    qr, c_qr = cocycle.sum_and_value(q, r)
    lhs = B.add(c_pq, cocycle(pq, r))
    rhs = B.add(c_qr, cocycle(p, qr))
    return [(c_pq == cocycle(q, p), "symmetry"), (lhs == rhs, "cocycle relation")]


def _axiom_relations(group: Group, x, y, z) -> list[tuple[bool, str]]:
    """(holds, name) for commutativity, associativity, identity and inverse on one triple."""
    e, xy = group.identity, group.add(x, y)
    return [
        (xy == group.add(y, x), "commutativity"),
        (group.add(xy, z) == group.add(x, group.add(y, z)), "associativity"),
        (group.add(x, e) == x, "identity"),
        (group.add(x, group.neg(x)) == e, "inverse"),
    ]


class Sample(tuple):
    """A sampler's triples, immutable, with the `report` of the relations it evaluated on
    them and the `subject` and `relations` (the relation set) they were drawn for."""

    subject = relations = report = None  # a Sample the sampler did not build is never reused


def _report(group: Group, triples, outcomes) -> CheckReport:
    report = CheckReport()
    for triple, results in zip(triples, outcomes):
        label = None  # serialized only when a relation on this triple fails
        for holds, name in results:
            if not holds and label is None:
                label = "(" + ", ".join(group.serialize(x) for x in triple) + ")"
            report.record(holds, "" if holds else f"{name} on {label}")
    return report


def _verify(group: Group, subject, relations, triples) -> CheckReport:
    # a sample drawn for this very subject and relation set already holds the outcomes
    if isinstance(triples, Sample) and triples.subject is subject and triples.relations is relations:
        return CheckReport(triples.report.checks, triples.report.failures[:])
    return _report(group, triples, (relations(subject, *triple) for triple in triples))


def verify_cocycle(cocycle: Cocycle, triples: list[tuple]) -> CheckReport:
    """Check symmetry and the cocycle relation on each supplied A-triple; a `Sample`
    drawn for this cocycle is not evaluated again, its report is copied."""
    return _verify(cocycle.a_group, cocycle, _cocycle_relations, triples)


def verify_group_axioms(group: Group, triples: list[tuple]) -> CheckReport:
    """Commutativity, associativity, identity, and inverse on each triple; a `Sample`
    drawn for this group is not evaluated again, its report is copied."""
    return _verify(group, group, _axiom_relations, triples)


# draws a sampler makes, admissible or not, before it gives up
SAMPLE_DRAWS = 100000


def _sample_triples(group: Group, subject, relations, count: int, rng, kind: str):
    # a draw is kept when every relation evaluates without a support collision
    out, outcomes, skipped = [], [], 0
    while len(out) < count:
        if len(out) + skipped == SAMPLE_DRAWS:
            raise RuntimeError(f"could not find {count} {kind} triples in {SAMPLE_DRAWS} draws")
        triple = group.sample(rng), group.sample(rng), group.sample(rng)
        try:
            outcomes.append(relations(subject, *triple))
        except SupportCollisionError:
            skipped += 1
            continue
        out.append(triple)
    sample = Sample(out)
    sample.subject, sample.relations, sample.report = subject, relations, _report(group, out, outcomes)
    return sample, skipped


def sample_admissible_triples(cocycle: Cocycle, count: int, rng):
    """Random A-triples on which both cocycle relations evaluate cleanly.

    Modulus cocycles refuse to evaluate when an argument pair's support
    hits the modulus; such draws are skipped.  Returns (`Sample`, skipped).
    """
    return _sample_triples(cocycle.a_group, cocycle, _cocycle_relations, count, rng, "admissible")


def sample_operable_triples(group: Group, count: int, rng):
    """Random element triples on which all four axiom checks evaluate cleanly: (`Sample`, skipped)."""
    return _sample_triples(group, group, _axiom_relations, count, rng, "operable")
