"""Discrete logarithm solvers, including the reduction for extension groups.

The generic solvers (`bsgs`, `pohlig_hellman`) work in any `Group`.  For a
group built from a symmetric 2-cocycle the interesting solver is
`solve_extension_dlp`, which is exactly two Pohlig-Hellman runs with bsgs
leaves.  The first solves the discrete log of the generator's projection in
the base group A, and the modulus it returns is n_A, the projection's order.
The second solves in the fiber B for the value t that n_A * g = (O, t)
carries.  The extension itself is never searched and pays only for a few
scalar multiplications: an extension group remembers its last ladders and
searches, so n_A * g and both searches run once, and k * g splits into a
ladder below n_A and one power in B, which the solver reads back.
`pohlig_hellman` reads the generator's exact order, l-parts and digit
generators off `order_parts` against any factored multiple n' of that order,
its own or remembered, projects by n', and its digit ladders stay below l^f.
`bsgs` keys its table by the elements and reuses its last baby step.

Every solver verifies its candidate exponent against the target before
returning and raises `NoSolutionError` otherwise, so a returned solution is
always correct even on inconsistent inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, prod
from typing import Any, Callable

from .groups import ExtensionGroup, Group
from .numbertheory import Factorization, NotAMultipleError, crt, order_parts

# Largest subgroup order bsgs will accept.  The baby-step table for an order
# at this bound holds 2^20 elements, at most about 0.4 GB: at p ~ 2^60 an entry
# takes 240 B (unit) or 384 B (curve point), by tracemalloc on CPython 3.11.
BSGS_ORDER_BOUND = 1 << 40


class NoSolutionError(Exception):
    """The target is not a power of the generator."""


@dataclass(frozen=True)
class Step:
    """One transcript entry.  `method` is a stable tag, `detail` is free text."""

    method: str
    detail: str


@dataclass(frozen=True)
class DlpSolution:
    """An exponent, the modulus it is determined by, and how it was found."""

    exponent: int
    order: int
    steps: tuple[Step, ...]

    def methods(self) -> tuple[str, ...]:
        return tuple(step.method for step in self.steps)


LeafSolver = Callable[[Group, Any, Any, int], DlpSolution]


def bsgs(group: Group, generator: Any, target: Any, order: int) -> DlpSolution:
    """Shanks' baby-step giant-step.

    The table keys each baby step j * g, the element itself, by j; the loop
    ends at m * g, whose negative is the giant stride, so the one ladder is
    the candidate's check.  Returns the smallest non-negative exponent: on
    colliding baby steps the table keeps the smallest index, and giant steps
    are tried in increasing order, so the first hit minimizes i*m + j.
    """
    if not 0 < order <= BSGS_ORDER_BOUND:
        raise ValueError(f"order {order} out of range for a baby-step table")
    m = isqrt(order - 1) + 1
    table: dict[Any, int] = {}
    baby = group.identity
    for j in range(m):
        table.setdefault(baby, j)
        baby = group.add(baby, generator)
    stride = group.neg(baby)  # the loop left baby at m * generator
    giant = target
    for i in range(m):
        j = table.get(giant)
        if j is not None:
            exponent = i * m + j
            if group.scalar_mul(exponent, generator) != target:
                raise RuntimeError("baby-step hit misses the target; add, neg and scalar_mul disagree")
            return DlpSolution(
                exponent, order, (Step("bsgs", f"order {order}, {m} baby steps"),)
            )
        giant = group.add(giant, stride)
    raise NoSolutionError("target is not in the subgroup generated by the generator")


def pohlig_hellman(
    group: Group,
    generator: Any,
    target: Any,
    order: Factorization,
    leaf_solver: LeafSolver = bsgs,
    *, parts: list | None = None,
) -> DlpSolution:
    """Solve digit by digit in each prime-power part, then recombine by CRT.

    `order` must be a factored multiple n of the generator's order.  For l^e
    in n, `order_parts` finds l^f, the l-part of the exact order, the l-part
    generator y0 = (n / l^e) * g and the digit generator gamma of order l
    that the leaf solver gets once per digit; swapping the leaf solver out
    is how the extension-group attack reuses this scaffold.  The target is
    projected once, h = ((n / l^e) mod exact) * target, and digit j is
    log_gamma of l^(f-1-j) * (h - partial * y0): digit ladders stay below
    l^f.  The reduction mod the exact order, the modulus returned, is sound
    only inside <g>; any other target fails the final check.  `parts`, an
    earlier `order_parts` against some n', skip the search: h then comes from
    (n' / l^e) mod exact, like y0, and n must still be a multiple of exact.
    """
    parts = order_parts(group.add, group.identity, generator, order) if parts is None else parts
    searched, exact = prod(l**e for l, e, _, _, _ in parts), prod(l**f for l, _, f, _, _ in parts)
    if order.n % exact:
        raise NotAMultipleError(f"{order.n} is not a multiple of the element's order")
    steps: list[Step] = []
    residues: list[tuple[int, int]] = []
    for prime, exponent, f, gamma, y0 in parts:
        if f == 0:
            continue
        projected = group.scalar_mul(searched // prime**exponent % exact, target)
        partial = 0
        for j in range(f):
            shifted = group.sub(projected, group.scalar_mul(partial, y0))
            digit_target = group.scalar_mul(prime ** (f - 1 - j), shifted)
            leaf = leaf_solver(group, gamma, digit_target, prime)
            steps.extend(leaf.steps)
            partial += leaf.exponent * prime**j
        residues.append((partial, prime**f))
        steps.append(
            Step(
                f"pohlig-hellman-prime({prime},{f})",
                f"residue {partial} mod {prime ** f}",
            )
        )
    combined, modulus = crt(residues)
    if group.scalar_mul(combined, generator) != target:
        raise NoSolutionError("digit solutions are inconsistent with the target")
    steps.append(Step("crt", f"exponent {combined} mod {modulus}"))
    return DlpSolution(combined, modulus, tuple(steps))


def _factor_log(group: Group, base, target, order: Factorization, tag: str, parts) -> DlpSolution:
    """Pohlig-Hellman in one factor group against a multiple of the base's order, leaves tagged, given any parts."""
    if base == group.identity:
        return DlpSolution(0, 1, ())

    def leaf(factor: Group, gamma: Any, digit_target: Any, prime: int) -> DlpSolution:
        found = bsgs(factor, gamma, digit_target, prime)
        return DlpSolution(found.exponent, prime, (Step(tag, f"prime {prime}"),) + found.steps)

    return pohlig_hellman(group, base, target, order, leaf, parts=parts)


def solve_extension_dlp(
    group: ExtensionGroup, generator: Any, target: Any, order: Factorization
) -> DlpSolution:
    """One discrete log in each factor group; the extension is never searched.

    For g = (P, b), k0 = log_P of target's base part comes from Pohlig-Hellman
    in A against `a_multiple(n)`, gcd(n, |A|), whose modulus is n_A = ord(P);
    a wrong `a_order` can only make it refuse n.  Then n_A * g = (O, t) lies
    in the fiber, and j = log_t of the fiber part of target - k0 * g comes
    from Pohlig-Hellman in B against n / n_A, whose order search refuses n
    unless t^(n / n_A) = 1.  The exponent is k0 + j * n_A.
    """
    if not isinstance(group, ExtensionGroup):
        raise TypeError("solve_extension_dlp only applies to extension groups")
    A, B, n = group.a_group, group.b_group, order.n
    a_parts, b_parts, _, t = group.searches.get(generator, (None, None, None, None))
    try:
        base_log = _factor_log(
            A, generator.a_part, target.a_part, group.a_multiple(order), "projected-to-A", a_parts
        )
        n_a = base_log.order
        t = group.scalar_mul(n_a, generator).b_part if t is None else t
        rest = group.sub(target, group.scalar_mul(base_log.exponent, generator))
        fiber_log = _factor_log(B, t, rest.b_part, order.divisor(n // n_a), "pulled-back-to-B", b_parts)
    except NotAMultipleError:
        raise NotAMultipleError(f"{n} is not a multiple of the element's order") from None
    # k0 < n_A and j < ord(t), so the exponent is already reduced mod n_A * ord(t)
    exponent, modulus = base_log.exponent + fiber_log.exponent * n_a, n_a * fiber_log.order
    if group.scalar_mul(exponent, generator) != target:
        raise NoSolutionError("factor solutions do not lift to the extension")
    steps = base_log.steps + fiber_log.steps + (Step("crt", f"exponent {exponent} mod {modulus}"),)
    return DlpSolution(exponent, modulus, steps)
