import ast
import random
from collections import Counter
from pathlib import Path

import pytest

from genjac import groups, make_toy_params
from genjac.curve import Curve, SupportCollisionError, element_order as point_order
from genjac.field import ExtField, FieldElement, PrimeField, count_mults
from genjac.groups import (
    Cocycle,
    ExtElement,
    ExtensionGroup,
    Group,
    MultiplicativeGroup,
    ZeroCocycle,
    element_order,
    sample_admissible_triples,
    sample_operable_triples,
    verify_cocycle,
    verify_group_axioms,
)
from genjac.dlp import pohlig_hellman, solve_extension_dlp
from genjac.jacobian import ModulusCocycle
from genjac.numbertheory import Factorization, NotAMultipleError, order_parts

from subjects import CoboundaryCocycle, CyclicGroup


def test_cyclic_group_basics():
    G = CyclicGroup(12)
    assert G.identity == 0
    assert G.add(7, 8) == 3
    assert G.neg(5) == 7
    assert G.sub(3, 7) == 8
    assert G.scalar_mul(5, 7) == 11
    assert G.scalar_mul(-1, 7) == 5
    assert G.scalar_mul(0, 7) == 0
    assert list(G.elements()) == list(range(12))
    assert G.describe() == "Z/12"


def test_curve_and_unit_groups(toy):
    E = toy.curve
    assert E.identity.is_infinity
    P = E.parse_point("5;3")
    assert E.add(P, P) == E.parse_point("5;8")
    assert E.sub(P, P) is E.identity
    assert E.sub(E.identity, P) == E.parse_point("5;8")  # P has order 3
    assert E.serialize(P) == "5;3"
    assert E.describe() == "E(F_11)"
    assert toy.ext_curve.describe() == "E(F_11^2)"
    assert list(E.elements()) == E.enumerate_points()
    # sampling is random_point: the same draws from the same seed
    a, b = random.Random(5), random.Random(5)
    for C in (E, toy.ext_curve):
        assert [C.sample(a) for _ in range(20)] == [C.random_point(b) for _ in range(20)]

    U = MultiplicativeGroup(toy.ext_curve.field)
    K = toy.ext_curve.field
    assert U.identity == K.one.coeffs
    assert U.add((2, 3), (5, 7)) == (K([2, 3]) * K([5, 7])).coeffs
    assert U.neg((2, 0)) == K(2).inverse().coeffs
    assert U.serialize((2, 3)) == K([2, 3]).serialize()
    assert U.describe() == "Gm(F_11^2)"
    assert list(U.elements()) == [x.coeffs for x in (K(c) for c in K.all_coeffs()) if not x.is_zero()]
    assert len(list(U.elements())) == 120
    # a unit draw is a field draw, zeros redrawn
    a, b = random.Random(5), random.Random(5)
    draws = [U.sample(a) for _ in range(200)]
    expected = []
    while len(expected) < 200:
        x = K.sample(b)
        if not x.is_zero():
            expected.append(x.coeffs)
    assert draws == expected


# README's layout table lists the modules in this order, each importing only those above it
LAYERS = ["numbertheory", "field", "groups", "curve", "jacobian", "dlp", "bench", "cli"]


@pytest.mark.parametrize("index", range(len(LAYERS)), ids=LAYERS)
def test_module_imports_no_higher_layer(index):
    modules = set()
    source = Path(groups.__file__).with_name(f"{LAYERS[index]}.py")
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            modules.add(base)
            if not base:  # from . import name
                modules.update(alias.name for alias in node.names)
    layers = {part for module in modules for part in module.split(".")}
    assert not layers & set(LAYERS[index:]), sorted(modules)
    # the tests' directory is on the path only under pytest, never in an installed package
    assert not layers & {"tests", "subjects"}, sorted(modules)


def test_unit_group_sample_never_zero(toy, rng):
    U = MultiplicativeGroup(toy.ext_curve.field)
    for _ in range(200):
        assert not U.field(U.sample(rng)).is_zero()


def test_scalar_mul_generic(rng):
    G = CyclicGroup(97)
    for _ in range(30):
        x = G.sample(rng)
        n = rng.randrange(-200, 200)
        assert G.scalar_mul(n, x) == (n * x) % 97


@pytest.mark.parametrize("field", [PrimeField(11), ExtField(PrimeField(11), (1, 0, 1)),
                                   ExtField(PrimeField(10007), (1, 0, 1))], ids=lambda f: f.name)
def test_unit_scalar_mul_is_the_ladder_in_one_power_call(field):
    # one pow_coeffs call gives the generic ladder's value, products and
    # inversions; n < 0 inverts once, n = 0 is the identity
    U, rng = MultiplicativeGroup(field), random.Random(field.order)
    p = field.p
    for n in [-3, -1, 0, 1, 2] + [rng.randrange(p * p) for _ in range(20)]:
        x = U.sample(rng)
        with count_mults() as ladder:
            expected = Group.scalar_mul(U, n, x)
        with count_mults() as power:
            assert U.scalar_mul(n, x) == expected, n
        assert (power.by_degree, power.inversions) == (ladder.by_degree, ladder.inversions), n
        if -3 <= n <= 2:  # repeated addition stays the oracle
            step = x if n >= 0 else U.neg(x)
            total = U.identity
            for _ in range(abs(n)):
                total = U.add(total, step)
            assert expected == total, n


def test_zero_cocycle_extension_is_componentwise():
    A, B = CyclicGroup(6), CyclicGroup(8)
    C = ExtensionGroup(ZeroCocycle(A, B))
    x = ExtElement(2, 3)
    y = ExtElement(5, 7)
    assert C.add(x, y) == ExtElement(1, 2)
    assert C.neg(x) == ExtElement(4, 5)
    assert C.identity == ExtElement(0, 0)
    assert C.serialize(x) == "2|3"


def test_coboundary_cocycle_formula(rng):
    A, B = CyclicGroup(6), CyclicGroup(8)
    c = CoboundaryCocycle.random(A, B, rng)
    assert c.table[A.identity] == B.identity
    for p in A.elements():
        for q in A.elements():
            expected = B.sub(B.add(c.table[p], c.table[q]), c.table[A.add(p, q)])
            assert c(p, q) == expected


def test_coboundary_extension_isomorphic_to_product(rng):
    # (a, b) -> (a, b + g(a)) turns the twisted law into the plain one
    A, B = CyclicGroup(10), CyclicGroup(4)
    c = CoboundaryCocycle.random(A, B, rng)
    C = ExtensionGroup(c)
    P = ExtensionGroup(ZeroCocycle(A, B))

    def iso(x):
        return ExtElement(x.a_part, B.add(x.b_part, c.table[x.a_part]))

    for _ in range(100):
        x, y = C.sample(rng), C.sample(rng)
        assert iso(C.add(x, y)) == P.add(iso(x), iso(y))
    assert iso(C.identity) == P.identity


def test_verify_cocycle_positive(rng):
    A, B = CyclicGroup(9), CyclicGroup(5)
    triples = [tuple(A.sample(rng) for _ in range(3)) for _ in range(50)]
    for c in (ZeroCocycle(A, B), CoboundaryCocycle.random(A, B, rng)):
        report = verify_cocycle(c, triples)
        assert report.ok
        assert report.checks == 100


def test_verify_cocycle_negative_control(rng):
    # c(p, q) = p*q mod 5 into Z/5 breaks the cocycle relation for Z/9
    A, B = CyclicGroup(9), CyclicGroup(5)

    class Broken(ZeroCocycle):
        def __call__(self, p, q):
            return (p * q) % 5

    triples = [tuple(A.sample(rng) for _ in range(3)) for _ in range(50)]
    report = verify_cocycle(Broken(A, B), triples)
    assert not report.ok
    assert report.failures


@pytest.mark.parametrize("law, relations", [
    (lambda p, q: (p + q + (p < q)) % 9, {"symmetry", "cocycle relation"}),
    (lambda p, q: (p * q + 1) % 9, {"cocycle relation"}),
], ids=["not-commutative", "not-associative"])
def test_verify_cocycle_checks_the_sums(law, relations):
    # every value is zero, so only the sums that `sum_and_value` hands back can
    # break a relation: p + q = q + p belongs to symmetry, (p + q) + r = p + (q + r)
    # to the cocycle relation
    A, B = CyclicGroup(9), CyclicGroup(5)

    class WrongSum(ZeroCocycle):
        def sum_and_value(self, p, q):
            return law(p, q), self.b_group.identity

    triples = [(p, q, r) for p in range(9) for q in range(9) for r in range(9)]
    report = verify_cocycle(WrongSum(A, B), triples)
    assert {failure.split(" on ")[0] for failure in report.failures} == relations


def test_verify_group_axioms_positive(toy, rng):
    jac = toy.jacobian(ext=True)
    triples, skipped = sample_operable_triples(jac, 40, rng)
    report = verify_group_axioms(jac, triples)
    assert report.ok
    assert report.checks == 160
    assert skipped >= 0


def test_verify_group_axioms_negative_control(rng):
    class NotAGroup(CyclicGroup):
        def add(self, x, y):
            return (x - y) % self.n  # not commutative, not associative

    broken = NotAGroup(12)
    triples = [(1, 2, 3), (4, 5, 6), (7, 8, 9)]
    report = verify_group_axioms(broken, triples)
    assert not report.ok


def test_extension_group_inverse_law(toy, rng):
    # inverse must absorb the cocycle correction: (a,b) + -(a,b) = identity
    jac = toy.jacobian(ext=True)
    checked = 0
    while checked < 30:
        x = jac.sample(rng)
        try:
            total = jac.add(x, jac.neg(x))
        except SupportCollisionError:
            continue
        assert total == jac.identity
        checked += 1


def test_extension_elements_and_sample(rng):
    A, B = CyclicGroup(3), CyclicGroup(4)
    C = ExtensionGroup(ZeroCocycle(A, B))
    els = list(C.elements())
    assert len(els) == 12
    assert len(set(els)) == 12
    assert C.sample(rng) in set(els)


def test_element_order():
    G = CyclicGroup(12)
    assert element_order(G, 0, Factorization.from_int(12)) == 1
    assert element_order(G, 1, Factorization.from_int(12)) == 12
    assert element_order(G, 4, Factorization.from_int(12)) == 3
    assert element_order(G, 6, Factorization.from_int(12)) == 2
    with pytest.raises(ValueError):
        element_order(G, 1, Factorization.from_int(8))


def _order_by_addition(group, x):
    """The definition: the smallest k > 0 with k * x = 0, by repeated addition."""
    k, acc = 1, x
    while acc != group.identity:
        acc = group.add(acc, x)
        k += 1
    return k


def _assert_order_search(group, x, multiple, expected):
    """Every order search against the order by definition, and each part's generators' orders."""
    assert element_order(group, x, multiple) == expected
    solution = pohlig_hellman(group, x, x, multiple)
    assert (solution.exponent, solution.order) == (1 % expected, expected)
    for l, _, f, gamma, y0 in order_parts(group.add, group.identity, x, multiple):
        assert gamma is None if f == 0 else _order_by_addition(group, gamma) == l
        assert _order_by_addition(group, y0) == l**f


def test_element_order_against_definition_cyclic():
    over_multiple = Factorization.from_int(2**7 * 3**4 * 5**2)
    A, B = CyclicGroup(12), CyclicGroup(8)
    twisted = ExtensionGroup(CoboundaryCocycle.random(A, B, random.Random(12)))
    for G in (CyclicGroup(720), ExtensionGroup(ZeroCocycle(A, B)), twisted):
        for x in G.elements():
            _assert_order_search(G, x, over_multiple, _order_by_addition(G, x))


def test_element_order_against_definition_curve(toy):
    E = toy.curve
    points = list(E.elements())
    assert len(points) == 12
    for P in points:
        expected = _order_by_addition(E, P)
        for multiple in (toy.curve_order, toy.jacobian_order()):
            _assert_order_search(E, P, multiple, expected)
            assert point_order(P, multiple) == expected


def test_element_order_against_definition_extension_subgroup(toy, memoized_extension):
    # the order-720 subgroup of acceptance criterion 2, over F_121
    jac = memoized_extension(toy.modulus_cocycle(ext=True))
    EK, K = toy.ext_curve, toy.ext_curve.field
    g = ExtElement(EK.parse_point("6,8;5,3"), K.from_record("2,7").coeffs)
    multiple = toy.ext_curve_order.merge(toy.unit_order)
    x, seen = jac.identity, 0
    while True:
        assert element_order(jac, x, multiple) == _order_by_addition(jac, x)
        seen += 1
        x = jac.add(x, g)
        if x == jac.identity:
            break
    assert seen == 720


def test_element_order_rejects_non_multiples(toy):
    G = CyclicGroup(720)
    for n in (2**7 * 3**4, 2**3 * 3**2 * 5, 1):
        with pytest.raises(ValueError):
            element_order(G, 1, Factorization.from_int(n))
    assert element_order(G, 0, Factorization.from_int(1)) == 1
    P = toy.curve.parse_point("7;3")  # order 12
    for n in (8, 6, 1):
        with pytest.raises(ValueError):
            element_order(toy.curve, P, Factorization.from_int(n))
        with pytest.raises(ValueError):
            point_order(P, Factorization.from_int(n))
    # order 30 with curve part of order 2 and 2 * g = (O, t), t of order 15: 15
    # misses the curve part's order, 10 and 2 miss t's
    g = ExtElement(toy.curve.parse_point("0;0"), toy.ext_curve.field([0, 7]).coeffs)
    for n in (15, 10, 2):
        with pytest.raises(ValueError, match=f"^{n} is not a multiple of the element's order$"):
            element_order(toy.jacobian(), g, Factorization.from_int(n))


@pytest.mark.parametrize("ext", [False, True])
def test_a_order_never_changes_an_element_order(toy, ext):
    # the params' group searches the curve part against #E: every element at
    # p = 11 and 200 seeded ones at p = 103 keep the order found without it
    big = make_toy_params(103, 1)
    rng = random.Random(103)
    for params in (toy, big):
        jac, plain = params.jacobian(ext), ExtensionGroup(params.modulus_cocycle(ext))
        assert jac.a_order == (params.ext_curve_order if ext else params.curve_order).n
        assert plain.a_order is None
        elements = jac.elements() if params is toy else [jac.sample(rng) for _ in range(200)]
        multiple = (params.ext_curve_order if ext else params.curve_order).merge(params.unit_order)
        for x in elements:
            assert _order_or_collision(jac, x, multiple) == _order_or_collision(plain, x, multiple), x


def _order_or_collision(group, x, multiple):
    # over F_p^2 the ladder n_A * x can meet the modulus, with or without a_order
    try:
        return element_order(group, x, multiple)
    except SupportCollisionError:
        return None


def test_wrong_a_order_refuses_and_never_misleads(toy):
    # a_order 5 or 6 misses ord(P) = 12 and refuses n, a true multiple, by
    # name; 24 and 84 are wrong too but multiples of 12, so nothing changes
    honest = toy.jacobian()
    g = ExtElement(toy.curve.parse_point("7;3"), toy.ext_curve.field([2, 7]).coeffs)
    n = toy.jacobian_order()
    target = honest.scalar_mul(1000, g)
    order, solution = element_order(honest, g, n), solve_extension_dlp(honest, g, target, n)
    for a_order in (1, 5, 6, 24, 84):
        jac = ExtensionGroup(toy.modulus_cocycle(), a_order)
        if a_order % 12:
            for search in (lambda: element_order(jac, g, n), lambda: solve_extension_dlp(jac, g, target, n)):
                with pytest.raises(ValueError, match=f"^{n.n} is not a multiple of the element's order$"):
                    search()
        else:
            assert element_order(jac, g, n) == order
            assert solve_extension_dlp(jac, g, target, n) == solution


class _CountingExtension(ExtensionGroup):
    adds = 0

    def add(self, x, y):
        self.adds += 1
        return super().add(x, y)


def test_extension_element_order_takes_one_extension_ladder():
    params = make_toy_params(1019, 1)
    jac = _CountingExtension(params.modulus_cocycle())
    rng = random.Random(1019)
    for _ in range(5):
        g = ExtElement(params.curve.random_point(rng), params.units().sample(rng))
        n_a = element_order(params.curve, g.a_part, params.curve_order)
        jac.adds = 0
        n = element_order(jac, g, params.jacobian_order())
        assert jac.adds <= 2 * n_a.bit_length()
        assert n % n_a == 0 and jac.scalar_mul(n, g) == jac.identity


def _products(ladder) -> int:
    with count_mults() as counter:
        ladder()
    return counter.muls


@pytest.mark.parametrize("ext", [False, True])
def test_remembered_ladders_equal_a_fresh_groups(ext):
    # an extension group keeps its last LADDER_MEMO ladders by (n, x); whatever it
    # answers equals what a group that never ran a ladder computes, and a repeat
    # of a remembered ladder makes no product
    params = make_toy_params(103, 1)
    jac, rng = params.jacobian(ext), random.Random(103)

    def fresh(n, x):
        return params.jacobian(ext).scalar_mul(n, x)

    x, y = jac.sample(rng), jac.sample(rng)
    same_x = ExtElement(type(x.a_part)(x.a_part.curve, x.a_part.x, x.a_part.y), x.b_part)
    assert same_x == x and same_x is not x and same_x.a_part is not x.a_part
    for n, z in ((1000, x), (1000, y), (0, x), (-1000, x), (-1000, y), (1, y), (999, x)):
        assert jac.scalar_mul(n, z) == fresh(n, z), (n, z)
        assert _products(lambda: jac.scalar_mul(n, z)) == 0, (n, z)
    # an equal element is the same key, whichever object carries it
    assert _products(lambda: jac.scalar_mul(999, same_x)) == 0
    assert jac.scalar_mul(999, same_x) == fresh(999, same_x)
    assert jac.scalar_mul(0, x) == jac.identity
    assert jac.scalar_mul(-1000, x) == jac.neg(fresh(1000, x))
    assert _products(lambda: fresh(1000, x)) > 0


@pytest.mark.parametrize("ext", [False, True])
def test_remembered_ladders_are_bounded_and_the_oldest_goes_first(ext):
    params = make_toy_params(103, 1)
    jac, x = params.jacobian(ext), params.jacobian(ext).sample(random.Random(103))
    scalars = range(1000, 1000 + 3 * groups.LADDER_MEMO)
    for n in scalars:
        jac.scalar_mul(n, x)
        assert len(jac._ladders) <= groups.LADDER_MEMO
    kept = scalars[-groups.LADDER_MEMO:]
    assert [_products(lambda: jac.scalar_mul(n, x)) for n in kept] == [0] * groups.LADDER_MEMO
    assert _products(lambda: jac.scalar_mul(scalars[0], x)) > 0


@pytest.mark.parametrize("ext", [False, True])
def test_two_groups_over_one_cocycle_share_no_ladder(ext):
    params = make_toy_params(103, 1)
    cocycle = params.modulus_cocycle(ext)
    first, second = ExtensionGroup(cocycle), ExtensionGroup(cocycle)
    x = first.sample(random.Random(103))
    first.scalar_mul(1000, x)
    assert _products(lambda: first.scalar_mul(1000, x)) == 0
    assert _products(lambda: second.scalar_mul(1000, x)) > 0
    assert first._ladders is not second._ladders


def test_a_ladder_that_raises_is_not_remembered():
    # over E(F_p^2) the modulus point M is an element whose doubling meets the
    # support; over E(F_p) no ladder can, as M is not F_p-rational
    params = make_toy_params(103, 1)
    jac = params.jacobian(ext=True)
    x = ExtElement(params.modulus.M, params.units().identity)
    for _ in range(2):
        with pytest.raises(SupportCollisionError):
            jac.scalar_mul(2, x)
    assert not jac._ladders


def test_remembered_searches_are_bounded_and_a_refused_search_is_not_kept():
    # element_order keeps the factor searches of its last LADDER_MEMO elements,
    # oldest dropped first, and ordering a kept element again searches nothing
    params = make_toy_params(103, 1)
    jac, rng, multiple = params.jacobian(), random.Random(103), params.jacobian_order()
    xs = [jac.sample(rng) for _ in range(groups.LADDER_MEMO + 1)]
    orders = [element_order(jac, x, multiple) for x in xs]
    assert list(jac.searches) == xs[1:] and min(orders) > 1
    assert _products(lambda: element_order(jac, xs[-1], multiple)) == 0
    assert _products(lambda: element_order(jac, xs[0], multiple)) > 0
    # a kept element is still refused a multiple of all but one prime of its
    # order, as on a fresh group, and a refused search is not kept
    x, n, fresh = xs[-1], orders[-1], params.jacobian()
    short = Factorization.from_int(n // Factorization.from_int(n).factors[0][0])
    for group in (jac, fresh):
        with pytest.raises(NotAMultipleError, match=f"^{short.n} is not a multiple of the element's order$"):
            element_order(group, x, short)
    assert element_order(jac, x, Factorization.from_int(n)) == n
    assert not fresh.searches


def test_sample_admissible_triples_counts(toy, rng):
    cocycle = toy.modulus_cocycle(ext=True)
    triples, skipped = sample_admissible_triples(cocycle, 30, rng)
    assert len(triples) == 30
    assert skipped >= 0
    report = verify_cocycle(cocycle, triples)
    assert report.ok


def _count_calls(monkeypatch, calls, owner, name):
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _same_report(a, b):
    return a.checks == b.checks and a.failures == b.failures


def test_verify_reuses_the_samplers_outcomes(monkeypatch):
    # sampling then verifying evaluates exactly what sampling alone does
    params = make_toy_params(103, 1)
    calls = Counter()
    _count_calls(monkeypatch, calls, ModulusCocycle, "__call__")
    _count_calls(monkeypatch, calls, ExtensionGroup, "add")
    rng = random.Random(1)
    for sampler, verify, subject in (
        (sample_admissible_triples, verify_cocycle, params.modulus_cocycle(ext=True)),
        (sample_operable_triples, verify_group_axioms, params.jacobian(ext=True)),
    ):
        triples, _ = sampler(subject, 20, rng)
        sampled = calls.copy()
        report = verify(subject, triples)
        assert calls == sampled and report.ok
        # each verify gets its own copy of the sampler's report
        report.record(False, "tampered")
        assert _same_report(verify(subject, triples), triples.report)
        # a plain list of the same triples is evaluated again, with the same outcome
        fresh = verify(subject, list(triples))
        assert calls["__call__"] > sampled["__call__"]
        assert _same_report(verify(subject, triples), fresh)


def test_cocycle_relations_take_the_sums_from_the_cocycle(monkeypatch):
    # all five values of a triple come with their sums from `sum_and_value`, one
    # chord each, so no Curve.add runs and `ModulusCocycle.__call__` is never
    # entered without the chord it would compute again; the same holds for the
    # c(a, -a) of `ExtensionGroup.neg`. The ledger counts every inversion, the
    # chords' inline ones too; only the line fractions' go through FieldElement.inverse
    params = make_toy_params(103, 1)
    cocycle = params.modulus_cocycle(ext=True)
    calls, chordless = Counter(), Counter()
    _count_calls(monkeypatch, calls, Curve, "add")
    _count_calls(monkeypatch, calls, FieldElement, "inverse")
    honest = ModulusCocycle.__call__

    def counted(self, p, q, chord=None):
        chordless["__call__"] += chord is None
        return honest(self, p, q, chord)

    monkeypatch.setattr(ModulusCocycle, "__call__", counted)
    with count_mults() as counter:
        sample_admissible_triples(cocycle, 20, random.Random(1))
    assert calls == {"inverse": 100}
    assert counter.inversions == {2: 201}
    assert chordless == {"__call__": 0}
    # seed 1 would draw the modulus points M and N themselves, the parameters' seed
    jac, rng = params.jacobian(ext=True), random.Random(2)
    for _ in range(20):
        jac.neg(jac.sample(rng))
    assert chordless == {"__call__": 0}


def test_reused_report_names_the_same_failures(toy, skewed_cocycle):
    rng = random.Random(5)
    for sampler, verify, subject in (
        (sample_admissible_triples, verify_cocycle, toy.modulus_cocycle(ext=True)),
        (sample_operable_triples, verify_group_axioms, toy.jacobian(ext=True)),
    ):
        triples, _ = sampler(subject, 30, rng)
        report = verify(subject, triples)
        assert report.failures and _same_report(report, verify(subject, list(triples)))


@pytest.mark.parametrize("skewed", [False, True])
def test_labels_are_built_only_for_failing_triples(toy, monkeypatch, request, skewed):
    # a failure's label serializes its triple: every element of each failing
    # triple once, however many of its relations fail, and nothing for a
    # triple whose relations all hold, in the sampler's report and in verify's
    if skewed:
        request.getfixturevalue("skewed_cocycle")
    serialized = []

    def spy(owner):
        honest = owner.serialize
        monkeypatch.setattr(owner, "serialize", lambda self, x: serialized.append((self, x)) or honest(self, x))

    spy(Curve)
    spy(ExtensionGroup)
    rng = random.Random(5)
    jac = toy.jacobian(ext=True)
    for sampler, verify, relations, subject, group in (
        (sample_admissible_triples, verify_cocycle, groups._cocycle_relations, jac.cocycle, jac.a_group),
        (sample_operable_triples, verify_group_axioms, groups._axiom_relations, jac, jac),
    ):
        serialized.clear()
        triples, _ = sampler(subject, 30, rng)
        failing = [t for t in triples if not all(holds for holds, _ in relations(subject, *t))]
        assert bool(failing) == skewed
        expected = [x for t in failing for x in t]
        assert [x for g, x in serialized if g is group] == expected
        serialized.clear()
        report = verify(subject, list(triples))
        assert [x for g, x in serialized if g is group] == expected
        assert len(report.failures) >= len(failing)


def test_a_sample_is_reused_only_by_its_own_subject_and_relations(rng):
    A, B = CyclicGroup(9), CyclicGroup(5)

    class Broken(ZeroCocycle):
        def __call__(self, p, q):
            return (p * q) % 5

    # the zero cocycle's sample, checked against another cocycle on the same groups
    triples, _ = sample_admissible_triples(ZeroCocycle(A, B), 50, rng)
    assert verify_cocycle(ZeroCocycle(A, B), triples).ok
    assert not verify_cocycle(Broken(A, B), triples).ok

    # one object that is both a group and (a broken) cocycle on itself: a sample
    # drawn for one relation set is evaluated again under the other
    class GroupAndCocycle(CyclicGroup, Cocycle):
        def __init__(self, n):
            super().__init__(n)
            self.a_group, self.b_group = self, B

        def __call__(self, p, q):
            return (p * q) % 5

    both = GroupAndCocycle(9)
    triples, _ = sample_operable_triples(both, 50, rng)
    report = verify_cocycle(both, triples)
    assert report.checks == 100 and not report.ok
    triples, _ = sample_admissible_triples(both, 50, rng)
    assert verify_cocycle(both, triples).checks == 100
    report = verify_group_axioms(both, triples)
    assert report.checks == 200 and report.ok


def test_sampled_triples_are_immutable(rng):
    triples, _ = sample_operable_triples(CyclicGroup(9), 3, rng)
    assert isinstance(triples, tuple) and len(triples) == 3
    with pytest.raises(TypeError):
        triples[0] = (0, 0, 0)
    with pytest.raises(AttributeError):
        triples.append((0, 0, 0))


@pytest.mark.parametrize(
    "sampler, subject",
    [
        (sample_admissible_triples, ZeroCocycle(CyclicGroup(9), CyclicGroup(5))),
        (sample_operable_triples, CyclicGroup(9)),
    ],
    ids=["admissible", "operable"],
)
def test_sampler_draw_budget(sampler, subject, rng, monkeypatch):
    # the count may fill on the last draw the budget allows
    monkeypatch.setattr(groups, "SAMPLE_DRAWS", 3)
    triples, skipped = sampler(subject, 3, rng)
    assert len(triples) == 3 and skipped == 0
    with pytest.raises(RuntimeError, match="in 3 draws"):
        sampler(subject, 4, rng)


def test_describe_strings(toy):
    jac = toy.jacobian()
    assert jac.describe().startswith("extension of E(F_11) by Gm(F_11^2)")
    prod = ExtensionGroup(ZeroCocycle(toy.curve, toy.units()))
    assert "[zero]" in prod.describe()
