import math
import random
from pathlib import Path

import pytest

from genjac import dlp, groups, load_params, make_toy_params
from genjac.dlp import (
    NoSolutionError,
    bsgs,
    pohlig_hellman,
    solve_extension_dlp,
)
from genjac.groups import ExtElement, ExtensionGroup, element_order
from genjac.field import count_mults
from genjac.numbertheory import Factorization, NotAMultipleError, order_parts

from subjects import CyclicGroup, brute_force_dlp


@pytest.fixture(scope="module")
def base_jac(toy):
    return toy.jacobian()


@pytest.fixture(scope="module")
def pinned_generator(toy, base_jac):
    """Point (0,0) with unit 7u: order 30 = 2 * 3 * 5, fiber part 15.

    The prime 2 leaf projects to the curve while 3 and 5 pull back to the
    units, so one instance exercises both reduction branches.
    """
    P = toy.curve.parse_point("0;0")
    u = toy.ext_curve.field([0, 7]).coeffs
    g = ExtElement(P, u)
    assert element_order(base_jac, g, toy.jacobian_order()) == 30
    return g


def test_brute_force_and_bsgs_agree_cyclic(rng):
    G = CyclicGroup(360)
    for _ in range(40):
        g = rng.randrange(1, 360)
        order = 360 // math.gcd(g, 360)
        x = rng.randrange(order)
        t = G.scalar_mul(x, g)
        assert brute_force_dlp(G, g, t, order).exponent == x
        assert bsgs(G, g, t, order).exponent == x


def test_smallest_exponent_tie_break():
    # generator 4 has order 3 in Z/12; with the over-multiple order 12
    # both solvers still give the smallest representative
    G = CyclicGroup(12)
    assert bsgs(G, 4, 8, 12).exponent == 2
    assert brute_force_dlp(G, 4, 8, 12).exponent == 2


def test_identity_generator():
    G = CyclicGroup(12)
    assert bsgs(G, 0, 0, 1).exponent == 0
    assert brute_force_dlp(G, 0, 0, 3).exponent == 0
    with pytest.raises(NoSolutionError):
        bsgs(G, 0, 5, 3)


def test_solver_bounds():
    G = CyclicGroup(12)
    with pytest.raises(ValueError):
        bsgs(G, 1, 5, (1 << 40) + 1)
    with pytest.raises(ValueError):
        brute_force_dlp(G, 1, 5, 10**6 + 1)
    with pytest.raises(ValueError):
        bsgs(G, 1, 5, 0)


def test_no_solution_outside_subgroup():
    G = CyclicGroup(12)
    # <4> = {0, 4, 8}; 6 is not in it
    with pytest.raises(NoSolutionError):
        bsgs(G, 4, 6, 3)
    with pytest.raises(NoSolutionError):
        brute_force_dlp(G, 4, 6, 3)
    with pytest.raises(NoSolutionError):
        pohlig_hellman(G, 4, 6, Factorization.from_int(3))


def test_pohlig_hellman_cyclic(rng):
    G = CyclicGroup(7200)
    order = Factorization.from_int(7200)
    for _ in range(25):
        x = rng.randrange(7200)
        t = G.scalar_mul(x, 1)
        sol = pohlig_hellman(G, 1, t, order)
        assert sol.exponent == x
        assert sol.order == 7200
    methods = sol.methods()
    assert "crt" in methods
    assert any(m.startswith("pohlig-hellman-prime(2,") for m in methods)


def test_pohlig_hellman_requires_order_multiple():
    G = CyclicGroup(12)
    with pytest.raises(ValueError):
        pohlig_hellman(G, 1, 5, Factorization.from_int(8))


@pytest.mark.parametrize("multiple", [12, 24, 72, 60])
def test_pohlig_hellman_accepts_proper_multiple(multiple):
    # g = 2 has order 6 in Z/12: every multiple overstates its 2-part, 72 its
    # 3-part too, and 60 has a prime the order lacks, which is skipped
    G = CyclicGroup(12)
    for k in range(12):
        sol = pohlig_hellman(G, 2, G.scalar_mul(k, 2), Factorization.from_int(multiple))
        assert (sol.exponent, sol.order) == (k % 6, 6)
        primes = [m for m in sol.methods() if m.startswith("pohlig-hellman-prime")]
        assert primes == ["pohlig-hellman-prime(2,1)", "pohlig-hellman-prime(3,1)"]


class _ScalarRecordingCyclic(CyclicGroup):
    def __init__(self, n: int) -> None:
        super().__init__(n)
        self.scalars: list[int] = []

    def scalar_mul(self, n: int, x: int) -> int:
        self.scalars.append(n)
        return super().scalar_mul(n, x)


def test_pohlig_hellman_ladders_stay_below_the_exact_order():
    # 6 has order 120 in Z/720: the cofactors of the multiple 720 are
    # reduced mod 120 before any digit ladder runs
    G = _ScalarRecordingCyclic(720)
    for k in range(120):
        sol = pohlig_hellman(G, 6, 6 * k, Factorization.from_int(720))
        assert (sol.exponent, sol.order) == (k, 120)
    assert max(G.scalars) < 120


@pytest.mark.parametrize("multiple", [7200, 43200])
def test_pohlig_hellman_digit_ladders_stay_in_the_prime_parts(multiple):
    # 6 has order 1200 = 2^4 * 3 * 5^2 in Z/7200, so l^f is at most 25: per
    # solve only the three projections and the final check may reach 25
    G = _ScalarRecordingCyclic(7200)
    for k in range(1200):
        G.scalars.clear()
        sol = pohlig_hellman(G, 6, 6 * k, Factorization.from_int(multiple))
        assert (sol.exponent, sol.order) == (k, 1200)
        assert sum(scalar >= 25 for scalar in G.scalars) <= 4


@pytest.mark.parametrize("generator, multiple, message", [
    (6, 7200, None),
    (6, 43200, None),
    # 9 has order 800 = 2^5 * 5^2, and both cofactors, 225 and 288 mod 800,
    # kill the 3-part: every leaf solves, and only the final check is left
    (9, 7200, "inconsistent with the target"),
])
def test_pohlig_hellman_rejects_targets_outside_the_subgroup(generator, multiple, message):
    # the projections are reduced mod the exact order, which is sound only
    # inside <g>; with f >= 2 digits at a live prime, no target outside may pass
    G = CyclicGroup(7200)
    for target in range(7200):
        if target % generator:
            with pytest.raises(NoSolutionError, match=message):
                pohlig_hellman(G, generator, target, Factorization.from_int(multiple))


class _OpaqueCyclic(CyclicGroup):
    def serialize(self, x: int) -> str:
        return "x"


def test_bsgs_does_not_key_by_serialization():
    G = _OpaqueCyclic(360)
    for target in range(360):
        assert bsgs(G, 7, target, 360).exponent == target * 103 % 360  # 7 * 103 = 1 mod 360
    # 40 has order 9: its 19 baby steps collide, and the element keys keep the smallest index
    for k in range(9):
        assert bsgs(G, 40, 40 * k % 360, 360).exponent == k


def test_bsgs_runs_one_ladder_per_call():
    # the giant stride comes from the baby loop; the only ladder checks the candidate
    G = _ScalarRecordingCyclic(360)
    for order in (1, 2, 9, 72, 360):
        for target in range(0, 360, 360 // order):
            G.scalars.clear()
            bsgs(G, 360 // order, target, order)
            assert len(G.scalars) == 1


def test_pohlig_hellman_on_curve(toy, rng):
    E = toy.curve
    gen = E.parse_point("7;3")
    assert element_order(E, gen, toy.curve_order) == 12
    for _ in range(20):
        x = rng.randrange(12)
        t = E.scalar_mul(x, gen)
        sol = pohlig_hellman(E, gen, t, Factorization.from_int(12))
        assert sol.exponent == x


def test_extension_attack_pinned_generator(toy, base_jac, pinned_generator, rng):
    order = Factorization.from_int(30)
    for _ in range(15):
        secret = rng.randrange(30)
        target = base_jac.scalar_mul(secret, pinned_generator)
        sol = solve_extension_dlp(base_jac, pinned_generator, target, order)
        assert sol.exponent == secret
        assert sol.order == 30
    methods = set(sol.methods())
    assert "projected-to-A" in methods
    assert "pulled-back-to-B" in methods


def test_attack_transcript_shape(base_jac, pinned_generator):
    target = base_jac.scalar_mul(17, pinned_generator)
    sol = solve_extension_dlp(base_jac, pinned_generator, target,
                              Factorization.from_int(30))
    assert sol.exponent == 17
    steps = sol.steps
    # every leaf search is preceded by a reduction into a factor group
    for i, step in enumerate(steps):
        if step.method == "bsgs":
            assert steps[i - 1].method in ("projected-to-A", "pulled-back-to-B")
    assert steps[-1].method == "crt"


def test_attack_never_searches_extension(base_jac, pinned_generator):
    # the only allowed tags: reductions, factor-group searches, bookkeeping
    target = base_jac.scalar_mul(23, pinned_generator)
    sol = solve_extension_dlp(base_jac, pinned_generator, target,
                              Factorization.from_int(30))
    allowed_exact = {"projected-to-A", "pulled-back-to-B", "bsgs", "crt"}
    for step in sol.steps:
        assert step.method in allowed_exact or step.method.startswith(
            "pohlig-hellman-prime("
        )


def test_attack_agrees_with_brute_force(toy, base_jac, rng):
    order_multiple = toy.jacobian_order()
    for _ in range(10):
        gen = ExtElement(toy.curve.random_point(rng), toy.units().sample(rng))
        n = element_order(base_jac, gen, order_multiple)
        secret = rng.randrange(n)
        target = base_jac.scalar_mul(secret, gen)
        fast = solve_extension_dlp(base_jac, gen, target, Factorization.from_int(n))
        slow = brute_force_dlp(base_jac, gen, target, n)
        assert fast.exponent == slow.exponent == secret


def test_fiber_only_generator(toy, base_jac):
    u = toy.ext_curve.field([0, 1]).coeffs  # order 4 unit: u^2 = -1
    gen = ExtElement(toy.curve.identity, u)
    n = element_order(base_jac, gen, toy.jacobian_order())
    assert n == 4
    target = base_jac.scalar_mul(3, gen)
    sol = solve_extension_dlp(base_jac, gen, target, Factorization.from_int(4))
    assert sol.exponent == 3
    assert "projected-to-A" not in sol.methods()
    assert "pulled-back-to-B" in sol.methods()


def test_no_solution_in_extension(toy, base_jac, pinned_generator):
    # curve part outside the subgroup spanned by the generator
    Q = toy.curve.parse_point("9;1")
    bad = ExtElement(Q, toy.ext_curve.field([0, 7]).coeffs)
    with pytest.raises(NoSolutionError):
        solve_extension_dlp(base_jac, pinned_generator, bad,
                            Factorization.from_int(30))


def test_bsgs_refuses_a_hit_that_scalar_mul_disagrees_with():
    class SkewedScalars(CyclicGroup):
        def scalar_mul(self, n, x):
            return (n * x + 1) % self.n

    with pytest.raises(RuntimeError, match="add, neg and scalar_mul disagree"):
        bsgs(SkewedScalars(12), 1, 5, 12)


def test_no_solution_fiber_mismatch(toy, base_jac):
    # generator inside the fiber, target outside it
    K = toy.ext_curve.field
    gen = ExtElement(toy.curve.identity, K([0, 1]).coeffs)
    bad = ExtElement(toy.curve.parse_point("9;1"), K([0, 1]).coeffs)
    with pytest.raises(NoSolutionError, match="do not lift"):
        solve_extension_dlp(base_jac, gen, bad, Factorization.from_int(4))


def test_no_false_positive_on_corrupted_target(toy, base_jac, pinned_generator):
    # a target whose curve part solves but whose unit part is wrong must
    # be rejected, not silently mis-solved
    good = base_jac.scalar_mul(7, pinned_generator)
    K = toy.ext_curve.field
    corrupted = ExtElement(good.a_part, (K(good.b_part) * K([3, 5])).coeffs)
    order = Factorization.from_int(30)
    with pytest.raises(NoSolutionError):
        solve_extension_dlp(base_jac, pinned_generator, corrupted, order)


def test_factor_solver_requires_extension():
    with pytest.raises(TypeError):
        solve_extension_dlp(CyclicGroup(5), 1, 2, Factorization.from_int(5))


@pytest.mark.parametrize("seed", [1, 2])
def test_factor_solver_agrees_with_brute_force_p103(seed, memoized_extension):
    params = make_toy_params(103, seed)
    jac = params.jacobian()
    # the same group law with memoized cocycle values, so the linear scans stay fast
    scan_group = memoized_extension(params.modulus_cocycle())
    rng = random.Random(seed)
    solved = 0
    while solved < 4:
        gen = ExtElement(params.curve.random_point(rng), params.units().sample(rng))
        n = element_order(jac, gen, params.jacobian_order())
        if n > 2 * 10**5:
            continue
        secret = rng.randrange(n)
        target = jac.scalar_mul(secret, gen)
        fast = solve_extension_dlp(jac, gen, target, Factorization.from_int(n))
        slow = brute_force_dlp(scan_group, gen, target, n)
        assert fast.exponent == slow.exponent == secret
        assert fast.order == n
        solved += 1


def test_factor_solver_accepts_order_multiple(toy, base_jac):
    # most generators have an order below |J|, so n / n_A overstates ord(t)
    multiple = toy.jacobian_order()
    rng = random.Random(3)
    for _ in range(50):
        gen = ExtElement(toy.curve.random_point(rng), toy.units().sample(rng))
        n = element_order(base_jac, gen, multiple)
        target = base_jac.scalar_mul(rng.randrange(n), gen)
        fast = solve_extension_dlp(base_jac, gen, target, multiple)
        slow = brute_force_dlp(base_jac, gen, target, n)
        assert (fast.exponent, fast.order) == (slow.exponent, n)


def test_factor_solver_recovers_secret_p1019():
    params = make_toy_params(1019, 1)
    jac = params.jacobian()
    rng = random.Random(1019)
    for _ in range(10):
        gen = ExtElement(params.curve.random_point(rng), params.units().sample(rng))
        n = element_order(jac, gen, params.jacobian_order())
        secret = rng.randrange(n)
        target = jac.scalar_mul(secret, gen)
        sol = solve_extension_dlp(jac, gen, target, Factorization.from_int(n))
        assert (sol.exponent, sol.order) == (secret, n)
        assert sol.steps[-1].detail == f"exponent {secret} mod {n}"


def test_generator_with_trivial_fiber_value(toy, base_jac):
    # (0,0) has order 2, and for this unit 2 * g = (O, 1): nothing to pull back
    P = toy.curve.parse_point("0;0")
    gen = ExtElement(P, toy.ext_curve.field([6, 1]).coeffs)
    assert base_jac.scalar_mul(2, gen) == base_jac.identity
    for order in (Factorization.from_int(2), toy.jacobian_order()):
        for secret in (0, 1):
            target = base_jac.scalar_mul(secret, gen)
            sol = solve_extension_dlp(base_jac, gen, target, order)
            assert base_jac.scalar_mul(sol.exponent, gen) == target
            assert sol.exponent % 2 == secret
    sol = solve_extension_dlp(base_jac, gen, gen, Factorization.from_int(2))
    assert sol.methods() == ("projected-to-A", "bsgs", "pohlig-hellman-prime(2,1)", "crt", "crt")


@pytest.mark.parametrize("ext", [False, True])
def test_a_order_never_changes_a_transcript(ext):
    # the curve-side run against gcd(n, #E) finds the same digits, so the
    # transcript is the one without a_order, against ord(g) and against |J|
    params = make_toy_params(103, 1)
    jac, plain = params.jacobian(ext), ExtensionGroup(params.modulus_cocycle(ext))
    multiple = (params.ext_curve_order if ext else params.curve_order).merge(params.unit_order)
    rng = random.Random(103)
    for _ in range(30):
        gen = jac.sample(rng)
        n = element_order(jac, gen, multiple)
        target = jac.scalar_mul(rng.randrange(n), gen)
        for order in (multiple.divisor(n), multiple):
            assert solve_extension_dlp(jac, gen, target, order) == solve_extension_dlp(plain, gen, target, order)


def test_factor_solver_rejects_non_multiple_order(base_jac, pinned_generator):
    target = base_jac.scalar_mul(7, pinned_generator)
    # 15 misses the order 2 of the curve part; 10 and 2 miss the order 15 of
    # the fiber value 2 * g = (O, t), and 2 leaves no fiber log to solve
    for n in (15, 10, 2):
        with pytest.raises(ValueError, match=f"^{n} is not a multiple of the element's order$"):
            solve_extension_dlp(base_jac, pinned_generator, target, Factorization.from_int(n))


def _split_instance(params, rng):
    """(g, n_A, t, ord(g), k, k * g) for a g = (P, u) drawn from rng with ord(P) > 1 and t != 1."""
    units = params.units()
    while True:
        gen = ExtElement(params.curve.random_point(rng), units.sample(rng))
        n_a = element_order(params.curve, gen.a_part, params.curve_order)
        t = params.jacobian().scalar_mul(n_a, gen).b_part
        if n_a > 1 and t != units.identity:
            break
    n = element_order(params.jacobian(), gen, params.jacobian_order())
    secret = rng.randrange(n)
    return gen, n_a, t, n, secret, params.jacobian().scalar_mul(secret, gen)


@pytest.fixture
def searched(monkeypatch):
    """The elements `order_parts` searches while the test runs."""
    found = []

    def counting(add, identity, x, multiple):
        found.append(x)
        return order_parts(add, identity, x, multiple)

    monkeypatch.setattr(groups, "order_parts", counting)
    monkeypatch.setattr(dlp, "order_parts", counting)
    return found


def test_extension_dlp_makes_one_order_search_per_factor(searched):
    # on a group that has not ordered g, n_A is the modulus of the curve-side
    # Pohlig-Hellman and t is checked by the fiber side's own order search: no third
    params = make_toy_params(10007, 1)
    gen, _, t, n, secret, target = _split_instance(params, random.Random(1))
    searched.clear()
    sol = solve_extension_dlp(params.jacobian(), gen, target, params.jacobian_order().divisor(n))
    assert (sol.exponent, sol.order) == (secret, n)
    assert searched == [gen.a_part, t]


def test_extension_dlp_reads_the_order_search_of_its_group(searched):
    # after element_order on the same group, as in the attack flow, the solver
    # searches nothing and finds what it finds on a group that never ordered g
    params = make_toy_params(10007, 1)
    gen, _, t, n, secret, target = _split_instance(params, random.Random(1))
    order = params.jacobian_order().divisor(n)
    cold = solve_extension_dlp(params.jacobian(), gen, target, order)
    jac = params.jacobian()
    searched.clear()
    assert element_order(jac, gen, params.jacobian_order()) == n
    assert searched == [gen.a_part, t]
    searched.clear()
    assert solve_extension_dlp(jac, gen, target, order) == cold
    assert searched == []
    assert cold.exponent == secret


def _attack_flow(params, seed):
    # what `genjac attack` does, on a group of its own, with its products, inversions and solution
    rng = random.Random(seed)
    with count_mults() as counted:
        jac = params.jacobian()
        gen = ExtElement(params.curve.random_point(rng), params.units().sample(rng))
        n = element_order(jac, gen, params.jacobian_order())
        target = jac.scalar_mul(rng.randrange(n), gen)
        solution = solve_extension_dlp(jac, gen, target, params.jacobian_order().divisor(n))
    return counted.by_degree, counted.inversions, solution


def test_no_order_search_leaks_between_groups():
    # a search is remembered by the group that ran it, never by the curve, the
    # field or the process: the same flow on a new group pays the same again
    params = make_toy_params(10007, 1)
    first = _attack_flow(params, 1)
    assert first == _attack_flow(params, 1)
    assert first[0][1] > 0 and first[2].order > 1


@pytest.mark.parametrize("side", ["A", "B"])
def test_a_remembered_search_still_refuses_a_non_multiple(side, monkeypatch):
    # n / l misses ord(P) when l divides n_A but not ord(t), and then the curve
    # side refuses; it misses ord(t) when l divides ord(t), and the fiber side does
    params = make_toy_params(10007, 1)
    rng = random.Random(1)
    while True:
        gen, n_a, _, n, _, target = _split_instance(params, rng)
        n_t = n // n_a
        primes = [l for l, _ in Factorization.from_int(n_a if side == "A" else n_t).factors
                  if side == "B" or n_t % l]
        if primes:
            break
    short = Factorization.from_int(n // primes[0])
    refused_in = []
    honest = dlp.pohlig_hellman

    def recording(group, *args, **kwargs):
        refused_in.append(group)
        return honest(group, *args, **kwargs)

    monkeypatch.setattr(dlp, "pohlig_hellman", recording)
    texts = []
    for warm in (False, True):
        jac = params.jacobian()
        if warm:
            element_order(jac, gen, params.jacobian_order())
        refused_in.clear()
        with pytest.raises(NotAMultipleError) as refused:
            solve_extension_dlp(jac, gen, target, short)
        assert refused_in[-1] is (jac.a_group if side == "A" else jac.b_group)
        texts.append(str(refused.value))
    assert texts == [f"{short.n} is not a multiple of the element's order"] * 2


def _ladder_adds(n: int) -> int:
    # the adds of double_and_add's n * x: one per bit after the first and one per further set bit
    return n.bit_length() + n.bit_count() - 2 if n > 1 else 0


@pytest.mark.parametrize("source", ["p103", "p10007", "ordinary-p101", "ordinary-p103"])
def test_extension_dlp_adds_only_to_make_the_split(source, monkeypatch):
    # claim 2 as a count: on a fresh group the solver runs n_A * g, k0 * g, one
    # subtraction and the lift check k * g; in the attack flow the order search has
    # run n_A * g on the same group, so the caller's k * g is the ladder k0 * g,
    # k0 = k mod n_A, and one fiber power, and the solver only subtracts (warm
    # identity L(k0) + 1 adds before the split)
    if source.startswith("ordinary"):
        params = load_params(Path(__file__).parent / "data" / f"{source}.txt")
    else:
        params = make_toy_params(int(source[1:]), 1)
    made = {"add": 0, "neg": 0}

    def count(name):
        honest = getattr(ExtensionGroup, name)

        def counted(*args):
            made[name] += 1
            return honest(*args)
        monkeypatch.setattr(ExtensionGroup, name, counted)

    count("add")
    count("neg")
    rng = random.Random(1)
    split = shortened = 0
    for _ in range(20):
        warm = params.jacobian()
        gen = ExtElement(params.curve.random_point(rng), params.units().sample(rng))
        n = element_order(warm, gen, params.jacobian_order())
        order, secret = params.jacobian_order().divisor(n), rng.randrange(n)
        n_a = element_order(params.curve, gen.a_part, params.curve_order)
        k0 = secret % n_a
        made.update(add=0, neg=0)
        target = warm.scalar_mul(secret, gen)
        assert made == {"add": _ladder_adds(k0), "neg": 0}, (n_a, k0, secret)
        split += _ladder_adds(n_a) + _ladder_adds(k0) + _ladder_adds(secret) > 0
        shortened += _ladder_adds(k0) != _ladder_adds(secret)
        for jac, adds in (
            (params.jacobian(), _ladder_adds(n_a) + _ladder_adds(k0) + 1 + _ladder_adds(secret)),
            (warm, 1),
        ):
            made.update(add=0, neg=0)
            assert solve_extension_dlp(jac, gen, target, order).exponent == secret
            assert made == {"add": adds, "neg": 1}, (jac is warm, n_a, k0, secret)
    # on every instance the cold and warm counts differ, and so do k * g's split and full ladder
    assert split == shortened == 20
