import re
import statistics

import pytest

from genjac import bench
from genjac.bench import CSV_HEADER, MAX_RESAMPLE_FACTOR, BenchInvariantError, run_benchmark
from genjac.curve import Curve
from genjac.field import count_mults
from genjac.groups import ExtElement, ExtensionGroup, MultiplicativeGroup, SupportCollisionError
from genjac.jacobian import ModulusCocycle, make_toy_params

# frozen run: seed 2, 6 trials, 6-bit scalars, toy params seed 7
PINNED_CSV = """\
label,group,trials,skipped,scalar_bits,muls_median,muls_min,muls_max,elem_chars_median,ms_median
jacobian,extension of E(F_11^2) by Gm(F_11^2) [generalized-jacobian(8;3;4;3 ; 6;4;10;1)],6,0,6,43,16,85,11.5,
product,E(F_11^2) x Gm(F_11^2),6,0,6,18.5,7,37,12,
curve,E(F_11^2),6,0,6,10.5,0,29,7.5,
units,Gm(F_11^2),6,0,6,7.5,7,9,3.5,"""


def test_pinned_csv(toy, readme):
    report = run_benchmark(toy, trials=6, scalar_bits=6, seed=2)
    assert report.csv() == PINNED_CSV
    assert f"$ genjac bench --params params.txt --seed 2 --trials 6 --bits 6\n{PINNED_CSV}\n" in readme


def test_csv_deterministic_for_fixed_seed(toy):
    a = run_benchmark(toy, trials=5, scalar_bits=5, seed=9)
    b = run_benchmark(toy, trials=5, scalar_bits=5, seed=9)
    assert a.csv() == b.csv()
    assert a.csv(include_time=True) != ""


def test_time_column_only_difference(toy):
    report = run_benchmark(toy, trials=5, scalar_bits=5, seed=9)
    plain = report.csv().splitlines()
    timed = report.csv(include_time=True).splitlines()
    assert plain[0] == timed[0] == CSV_HEADER
    for p, t in zip(plain[1:], timed[1:]):
        assert p.endswith(",")
        assert t.rsplit(",", 1)[0] == p.rsplit(",", 1)[0]
        assert float(t.rsplit(",", 1)[1]) >= 0.0
        assert re.fullmatch(r"\d+\.\d{3}", t.rsplit(",", 1)[1])  # milliseconds to three decimals


def test_row_structure(toy):
    report = run_benchmark(toy, trials=5, scalar_bits=6, seed=4)
    labels = [row.label for row in report.rows]
    assert labels == ["jacobian", "product", "curve", "units"]
    for row in report.rows:
        assert row.trials == 5
        assert row.scalar_bits == 6
        assert row.muls_min <= row.muls_median <= row.muls_max
        assert "," not in row.group  # descriptions are CSV-safe


def _bench_with_ledger(params, **kwargs):
    """run_benchmark plus, per kept trial, (jacobian, C, curve, units) multiplications.

    C counts the multiplications made inside `ModulusCocycle.__call__`
    during the trial's jacobian chain.
    """
    honest_call, honest_measure = ModulusCocycle.__call__, bench._measure
    cocycle_muls, measured = [0], []

    def call(self, p, q, chord=None):
        with count_mults() as counter:
            try:
                return honest_call(self, p, q, chord)
            finally:
                cocycle_muls[0] += counter.muls

    def measure(group, n, x):
        cocycle_muls[0] = 0
        sample = honest_measure(group, n, x)
        measured.append((sample[0], cocycle_muls[0]))
        return sample

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ModulusCocycle, "__call__", call)
        patch.setattr(bench, "_measure", measure)
        report = run_benchmark(params, **kwargs)
    # a collided jacobian chain records nothing, so the kept trials are
    # consecutive (jacobian, curve, units) triples
    trials = [
        (jac, cocycle, curve, units)
        for (jac, cocycle), (curve, _), (units, _) in zip(*[iter(measured)] * 3)
    ]
    assert len(trials) == report.trials
    return report, trials


def _assert_exact_accounting(trials) -> None:
    # an extension add is one curve add, two unit multiplies and the cocycle
    for jac, cocycle, curve, units in trials:
        assert cocycle > 0
        assert jac == curve + 2 * units + cocycle


@pytest.mark.parametrize("p", [11, 103, 10007])
def test_jacobian_cost_is_curve_plus_twice_units_plus_cocycle(p):
    params = make_toy_params(p, seed=1)
    for seed in (1, 2, 3):
        _, trials = _bench_with_ledger(params, trials=5, scalar_bits=12, seed=seed)
        _assert_exact_accounting(trials)


def _add_one_more_mul(self, x, y):
    # times the unit group's identity: the same element, one more multiplication
    B = self.b_group
    a_sum, c = self.cocycle.sum_and_value(x.a_part, y.a_part)
    return ExtElement(a_sum, B.add(B.add(B.add(x.b_part, y.b_part), c), B.identity))


def _add_one_unit_mul_dropped(self, x, y):
    a_sum, c = self.cocycle.sum_and_value(x.a_part, y.a_part)
    return ExtElement(a_sum, self.b_group.add(x.b_part, c))


@pytest.mark.parametrize(
    "changed_add", [_add_one_more_mul, _add_one_unit_mul_dropped], ids=["one-more-mul", "unit-mul-dropped"]
)
def test_exact_accounting_catches_a_changed_add_cost(toy, monkeypatch, changed_add):
    # an extension add that makes one counted multiplication more, outside
    # the cocycle, or one unit multiply fewer breaks the identity either way
    monkeypatch.setattr(ExtensionGroup, "add", changed_add)
    _, trials = _bench_with_ledger(toy, trials=5, scalar_bits=6, seed=1, strict=False)
    with pytest.raises(AssertionError):
        _assert_exact_accounting(trials)


def test_cost_ordering_across_seeds(toy):
    # medians do not add, so the ordering is checked per trial: the product
    # is exactly curve + units, and the jacobian costs exactly one more unit
    # multiply per add plus its cocycle work, which is never free
    for seed in (0, 1, 2):
        report, trials = _bench_with_ledger(toy, trials=6, scalar_bits=7, seed=seed)
        _assert_exact_accounting(trials)
        by_label = {row.label: row for row in report.rows}
        sums = [curve + units for _, _, curve, units in trials]
        assert by_label["product"].muls_median == statistics.median(sums)
        # the extension element carries both components
        assert by_label["jacobian"].elem_chars_median > by_label["curve"].elem_chars_median
        assert by_label["jacobian"].elem_chars_median > by_label["units"].elem_chars_median


def test_argument_validation(toy):
    with pytest.raises(ValueError):
        run_benchmark(toy, trials=4)
    with pytest.raises(ValueError):
        run_benchmark(toy, scalar_bits=1)


def _count_collisions(monkeypatch, always: bool) -> dict:
    # wrap the modulus cocycle; with always=True every evaluation collides
    honest = ModulusCocycle.__call__
    seen = {"collisions": 0}

    def cocycle(self, p, q, chord=None):
        try:
            if always:
                raise SupportCollisionError("forced collision")
            return honest(self, p, q, chord)
        except SupportCollisionError:
            seen["collisions"] += 1
            raise

    monkeypatch.setattr(ModulusCocycle, "__call__", cocycle)
    return seen


def test_collisions_skip_jacobian_trials_only(toy, monkeypatch):
    # seed 20 walks two jacobian chains through the modulus support
    seen = _count_collisions(monkeypatch, always=False)
    report = run_benchmark(toy, trials=5, scalar_bits=4, seed=20)
    assert seen["collisions"] == 2
    assert [row.skipped for row in report.rows] == [2, 0, 0, 0]
    assert report.trials == 5 and all(row.trials == 5 for row in report.rows)


def test_collisions_exhaust_the_retry_budget(toy, monkeypatch):
    seen = _count_collisions(monkeypatch, always=True)
    with pytest.raises(RuntimeError, match="exhausted the retry budget"):
        run_benchmark(toy, trials=5, scalar_bits=4, seed=0)
    assert seen["collisions"] == MAX_RESAMPLE_FACTOR * 5


def test_invariant_error_is_exported():
    assert issubclass(BenchInvariantError, Exception)


@pytest.mark.parametrize("target, distort, message", [
    (Curve, lambda m, r, g: (m, g.identity), "curve components disagree"),
    (ExtensionGroup, lambda m, r, g: (-1, r), "extension cost -1 fell below"),
    (MultiplicativeGroup, lambda m, r, g: (m + 10**6, r), "fell below the factor costs"),
])
def test_strict_mode_checks_every_trial(toy, monkeypatch, target, distort, message):
    # distort one group's measurement (of the extensions, the jacobian's);
    # strict mode must name the broken fact
    honest = bench._measure

    def measure(group, n, x):
        muls, chars, ms, result = honest(group, n, x)
        if isinstance(group, target):
            muls, result = distort(muls, result, group)
        return muls, chars, ms, result

    monkeypatch.setattr(bench, "_measure", measure)
    with pytest.raises(BenchInvariantError, match=message):
        run_benchmark(toy, trials=5, scalar_bits=5, seed=1)
    assert run_benchmark(toy, trials=5, scalar_bits=5, seed=1, strict=False).trials == 5
