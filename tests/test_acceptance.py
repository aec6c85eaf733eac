"""Acceptance gate: one test and one printed verdict line per criterion.

Every check uses exact equality; the arithmetic is exact throughout, so
there are no tolerances anywhere.  Criteria 1 and 3 carry wall-clock
budgets; the other criteria are bounded by construction.

Criterion 2 note: checking associativity literally on all triples of a
subgroup is cubic in its order, so the largest subgroups get a complete
addition-table check instead (g^i + g^j = g^(i+j) for all pairs), which
entails associativity, commutativity, identity, and inverses over the
subgroup; a smaller subgroup is still exhausted triple by triple.  The
table runs use the `memoized_extension` fixture of conftest.py: identical
cocycle values, computed once per argument pair.
"""

import itertools
import math
import random
import time

from genjac.curve import SupportCollisionError
from genjac.dlp import bsgs, pohlig_hellman, solve_extension_dlp
from genjac.groups import (
    ExtElement,
    ExtensionGroup,
    ZeroCocycle,
    element_order,
    sample_admissible_triples,
    verify_cocycle,
)
from genjac.field import count_mults
from genjac.jacobian import pairing_order, reduce_pairing_value, tate_by_miller
from genjac.numbertheory import Factorization, is_prime

from subjects import CoboundaryCocycle, CyclicGroup, brute_force_dlp


def _cyclic_subgroup(group, gen):
    elements = [group.identity]
    cur = gen
    while cur != group.identity:
        elements.append(cur)
        cur = group.add(cur, gen)
    return elements


def test_criterion_1_cocycle_validity(toy):
    """1000 admissible random triples, both relations, exact, under 10 s."""
    start = time.monotonic()
    rng = random.Random(2026)
    cocycle = toy.modulus_cocycle(ext=True)
    triples, skipped = sample_admissible_triples(cocycle, 1000, rng)
    report = verify_cocycle(cocycle, triples)
    elapsed = time.monotonic() - start
    assert len(triples) == 1000
    assert report.checks == 2000
    assert report.ok, report.failures[:5]
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1 cocycle-validity: PASS "
          f"(1000 triples, 2000 checks, 0 failures, {skipped} draws skipped, "
          f"{elapsed:.1f}s)")


def test_criterion_2_group_axioms(toy, memoized_extension):
    """Exhaustive axioms over extension subgroups and small cocycles."""
    jac = memoized_extension(toy.modulus_cocycle(ext=True))
    EK = toy.ext_curve
    K = EK.field

    # order-30 subgroup: every triple, literally
    g30 = ExtElement(EK.parse_point("0,0;0,0"), K.from_record("0,7").coeffs)
    els = _cyclic_subgroup(jac, g30)
    assert len(els) == 30
    identity = jac.identity
    for x in els:
        assert jac.add(x, identity) == x
        assert jac.add(x, jac.neg(x)) == identity
    for x, y in itertools.product(els, repeat=2):
        assert jac.add(x, y) == jac.add(y, x)
    triple_checks = 0
    for x, y, z in itertools.product(els, repeat=3):
        assert jac.add(jac.add(x, y), z) == jac.add(x, jac.add(y, z))
        triple_checks += 1
    assert triple_checks == 27000

    # order-720 subgroup: complete addition table against the cyclic model,
    # which entails all four axioms over the subgroup
    g720 = ExtElement(EK.parse_point("6,8;5,3"), K.from_record("2,7").coeffs)
    els = _cyclic_subgroup(jac, g720)
    n = len(els)
    assert n == 720
    for i, x in enumerate(els):
        assert jac.neg(x) == els[-i % n]
        for j, y in enumerate(els):
            assert jac.add(x, y) == els[(i + j) % n]

    # zero cocycle and ten random coboundaries, groups small enough to
    # exhaust every triple
    rng = random.Random(720)
    cocycles = [ZeroCocycle(CyclicGroup(6), CyclicGroup(8))]
    for _ in range(10):
        a = rng.randrange(2, 11)
        b = rng.randrange(2, max(3, 50 // a + 1))
        cocycles.append(CoboundaryCocycle.random(CyclicGroup(a), CyclicGroup(b), rng))
    small_triples = 0
    for cocycle in cocycles:
        C = ExtensionGroup(cocycle)
        els = list(C.elements())
        assert len(els) <= 50
        e = C.identity
        for x in els:
            assert C.add(x, e) == x
            assert C.add(x, C.neg(x)) == e
        for x, y, z in itertools.product(els, repeat=3):
            assert C.add(C.add(x, y), z) == C.add(x, C.add(y, z))
            small_triples += 1
        for x, y in itertools.product(els, repeat=2):
            assert C.add(x, y) == C.add(y, x)
    print(f"ACCEPTANCE 2 group-axioms: PASS "
          f"(order-30 cube 27000 triples, order-720 table 518400 pairs, "
          f"11 small cocycles {small_triples} triples, 0 failures)")


def test_criterion_3_dlp_reduction(toy):
    """Extension solver vs brute force on 100 instances, under 30 s."""
    start = time.monotonic()
    rng = random.Random(33)
    jac = toy.jacobian()
    order_multiple = toy.jacobian_order()
    leaf_tags = {"projected-to-A", "pulled-back-to-B"}
    solved = 0
    branch_seen = set()
    while solved < 100:
        gen = ExtElement(toy.curve.random_point(rng), toy.units().sample(rng))
        n = element_order(jac, gen, order_multiple)
        assert n <= 10**4
        secret = rng.randrange(n)
        target = jac.scalar_mul(secret, gen)
        fast = solve_extension_dlp(jac, gen, target, Factorization.from_int(n))
        slow = brute_force_dlp(jac, gen, target, n)
        assert fast.exponent == slow.exponent == secret
        for i, step in enumerate(fast.steps):
            if step.method == "bsgs":
                tag = fast.steps[i - 1].method
                assert tag in leaf_tags, f"leaf solved outside a factor: {tag}"
                branch_seen.add(tag)
            else:
                assert step.method == "crt" or step.method in leaf_tags \
                    or step.method.startswith("pohlig-hellman-prime(")
        solved += 1
    elapsed = time.monotonic() - start
    assert branch_seen == leaf_tags  # both reductions exercised across the run
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE 3 dlp-reduction: PASS "
          f"(100 instances, 100 brute-force agreements, leaves only in "
          f"factor groups, {elapsed:.1f}s)")


def test_criterion_4_pairing_extraction(toy):
    """Scalar multiplication exposes the pairing; bilinear after reduction."""
    rng = random.Random(44)
    jac = toy.jacobian()
    K = toy.ext_curve.field
    one = K.one_coeffs
    M, N = toy.modulus.M, toy.modulus.N
    q = toy.unit_order.n
    for _ in range(50):
        P = toy.curve.random_point(rng)
        m = pairing_order(P, toy)
        total = jac.scalar_mul(m, ExtElement(P, one))
        assert total.a_part.is_infinity
        assert K(total.b_part).inverse() == tate_by_miller(P, M, N, m)
    bilinear_checks = 0
    for _ in range(20):
        P = toy.curve.random_point(rng)
        a = rng.randrange(0, 40)
        m_P = pairing_order(P, toy)
        t_P = K(jac.scalar_mul(m_P, ExtElement(P, one)).b_part).inverse()
        Q = toy.curve.scalar_mul(a, P)
        m_Q = pairing_order(Q, toy)
        t_Q = K(jac.scalar_mul(m_Q, ExtElement(Q, one)).b_part).inverse()
        lhs = reduce_pairing_value(t_Q, m_Q, q)
        rhs = reduce_pairing_value(t_P, m_P, q) ** a
        assert lhs == rhs
        bilinear_checks += 1
    print(f"ACCEPTANCE 4 pairing-extraction: PASS "
          f"(50 extractions match the accumulator, "
          f"{bilinear_checks} bilinearity checks, 0 failures)")


def test_criterion_5_cost_inequality(toy):
    """Each extension add costs at least a curve add plus a unit multiply."""
    rng = random.Random(55)
    jac = toy.jacobian(ext=True)
    prod = ExtensionGroup(ZeroCocycle(toy.ext_curve, toy.units()))
    units = toy.units()
    trials = 0
    skipped = 0
    while trials < 1000:
        x = ExtElement(toy.ext_curve.random_point(rng), units.sample(rng))
        y = ExtElement(toy.ext_curve.random_point(rng), units.sample(rng))
        try:
            with count_mults() as jac_count:
                jac.add(x, y)
        except SupportCollisionError:
            skipped += 1
            continue
        with count_mults() as curve_count:
            toy.ext_curve.add(x.a_part, y.a_part)
        with count_mults() as unit_count:
            units.add(x.b_part, y.b_part)
        assert jac_count.muls >= curve_count.muls + unit_count.muls
        assert len(jac.serialize(x)) == len(prod.serialize(x))
        trials += 1
    print(f"ACCEPTANCE 5 cost-inequality: PASS "
          f"(1000 adds, 0 violations, sizes equal, {skipped} draws skipped)")


def test_criterion_6_solver_cross_validation():
    """bsgs, pohlig_hellman, brute force: 1000 agreements, none apart."""
    rng = random.Random(66)
    primes = [p for p in range(100, 10000, 7) if is_prime(p)]
    trials = 0
    prime_orders = 0
    while trials < 1000:
        if trials % 4 == 0:
            n = rng.choice(primes)
        else:
            n = rng.randrange(2, 10**4)
        G = CyclicGroup(n)
        g = rng.randrange(1, n)
        order = n // math.gcd(g, n)
        if is_prime(order):
            prime_orders += 1
        x = rng.randrange(order)
        target = G.scalar_mul(x, g)
        a = bsgs(G, g, target, order).exponent
        b = pohlig_hellman(G, g, target, Factorization.from_int(order)).exponent
        c = brute_force_dlp(G, g, target, order).exponent
        assert a == b == c == x
        trials += 1
    assert prime_orders >= 100  # the mix genuinely includes prime orders
    print(f"ACCEPTANCE 6 solver-cross-validation: PASS "
          f"(1000 instances, {prime_orders} prime orders, 0 disagreements)")
