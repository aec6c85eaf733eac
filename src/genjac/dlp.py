"""Discrete logarithm solvers, including the reduction for extension groups.

The generic solvers (`brute_force_dlp`, `bsgs`, `pohlig_hellman`) work in any
`Group`.  For a group built from a symmetric 2-cocycle the interesting solver
is `solve_extension_dlp`: it runs Pohlig-Hellman but hands every prime-order
leaf to `reduce_prime_subgroup`, which never searches the extension itself.
Each leaf subgroup either projects isomorphically onto the base factor or
lies inside the embedded fiber, so the search always happens in one of the
two factor groups.

Every solver verifies its candidate exponent against the target before
returning and raises `NoSolutionError` otherwise, so a returned solution is
always correct even on inconsistent inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Any, Callable

from .groups import ExtensionGroup, Group
from .numbertheory import Factorization, crt

# Largest subgroup order bsgs will accept.  The baby-step table for an order
# at this bound holds 2^20 serialized elements, which is desk-scale memory.
BSGS_ORDER_BOUND = 1 << 40

BRUTE_FORCE_BOUND = 10**6


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


def bsgs(group: Group, generator: Any, target: Any, order: int) -> DlpSolution:
    """Shanks' baby-step giant-step.

    Returns the smallest non-negative exponent: on colliding baby steps the
    table keeps the smallest index, and giant steps are tried in increasing
    order, so the first hit minimizes i*m + j.
    """
    if not 0 < order <= BSGS_ORDER_BOUND:
        raise ValueError(f"order {order} out of range for a baby-step table")
    m = isqrt(order - 1) + 1
    table: dict[str, int] = {}
    baby = group.identity
    for j in range(m):
        table.setdefault(group.serialize(baby), j)
        baby = group.add(baby, generator)
    stride = group.neg(group.scalar_mul(m, generator))
    giant = target
    for i in range(m):
        j = table.get(group.serialize(giant))
        if j is not None:
            exponent = i * m + j
            if group.scalar_mul(exponent, generator) != target:
                raise RuntimeError("baby-step table is inconsistent; serialization is not injective")
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
) -> DlpSolution:
    """Solve digit by digit in each prime-power part, then recombine by CRT.

    `order` must be a factored multiple of the generator's order.  The leaf
    solver is called once per digit with a generator of prime order; swapping
    it out is how the extension-group attack reuses this scaffold.
    """
    n = order.n
    if group.scalar_mul(n, generator) != group.identity:
        raise ValueError(f"{n} is not a multiple of the generator's order")
    steps: list[Step] = []
    residues: list[tuple[int, int]] = []
    for prime, exponent in order.factors:
        gamma = group.scalar_mul(n // prime, generator)
        partial = 0
        for j in range(exponent):
            shifted = group.sub(target, group.scalar_mul(partial, generator))
            digit_target = group.scalar_mul(n // prime ** (j + 1), shifted)
            leaf = leaf_solver(group, gamma, digit_target, prime)
            steps.extend(leaf.steps)
            partial += leaf.exponent * prime**j
        residues.append((partial, prime**exponent))
        steps.append(
            Step(
                f"pohlig-hellman-prime({prime},{exponent})",
                f"residue {partial} mod {prime ** exponent}",
            )
        )
    combined, modulus = crt(residues)
    if group.scalar_mul(combined, generator) != target:
        raise NoSolutionError("digit solutions are inconsistent with the target")
    steps.append(Step("crt", f"exponent {combined} mod {modulus}"))
    return DlpSolution(combined, modulus, tuple(steps))


def reduce_prime_subgroup(
    group: Group, generator: Any, target: Any, order: int
) -> DlpSolution:
    """Leaf solver for extension groups that never searches the extension.

    The generator spans a subgroup of prime order, so exactly one of two
    things is true: it projects isomorphically onto the base factor, or it
    lies inside the embedded fiber.  Either way the discrete log transfers
    to a plain group of the same order and comes back unchanged.
    """
    if not isinstance(group, ExtensionGroup):
        raise TypeError("reduce_prime_subgroup only applies to extension groups")
    if generator.a_part == group.a_group.identity:
        if target.a_part != group.a_group.identity:
            raise NoSolutionError("target is outside the fiber spanned by the generator")
        leaf = bsgs(group.b_group, generator.b_part, target.b_part, order)
        steps = (Step("pulled-back-to-B", f"prime {order}"),) + leaf.steps
    else:
        leaf = bsgs(group.a_group, generator.a_part, target.a_part, order)
        steps = (Step("projected-to-A", f"prime {order}"),) + leaf.steps
    if group.scalar_mul(leaf.exponent, generator) != target:
        raise NoSolutionError("factor solution does not lift to the extension")
    return DlpSolution(leaf.exponent, order, steps)


def solve_extension_dlp(
    group: ExtensionGroup, generator: Any, target: Any, order: Factorization
) -> DlpSolution:
    """Pohlig-Hellman where every leaf is solved in a factor group."""
    return pohlig_hellman(group, generator, target, order, leaf_solver=reduce_prime_subgroup)

