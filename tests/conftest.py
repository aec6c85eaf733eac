import functools
import random
import signal
from pathlib import Path

import pytest

from genjac import ModulusCocycle, make_toy_params
from genjac.groups import Cocycle, ExtensionGroup

# wall-clock bound on each phase of a test: setup, which builds the session
# fixtures the test is the first to use, call and teardown; the slowest test
# takes about 6 s, so a phase that reaches the bound is stuck in a loop
TEST_SECONDS = 60


def _expired(signum, frame):
    pytest.fail(f"test ran past its {TEST_SECONDS} s bound")


def _time_bound(item):
    """Fail a test phase that runs past TEST_SECONDS instead of letting it hang the suite."""
    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# hooks rather than an autouse fixture: a fixture runs after the session
# fixtures, so a hang in building `toy` would escape it
pytest_runtest_setup = pytest_runtest_call = pytest_runtest_teardown = pytest.hookimpl(wrapper=True)(_time_bound)


@pytest.fixture(scope="session")
def toy():
    """The standard small instance: p=11, seeded modulus.

    Session-scoped so that every test shares one instance; every pinned
    value in the suite assumes this exact seed.
    """
    return make_toy_params(11, seed=7)


@pytest.fixture(scope="session")
def readme():
    """README.md's text: each pinned transcript must appear there verbatim, after its command."""
    return (Path(__file__).parent.parent / "README.md").read_text()


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture(scope="session")
def params_file(toy, tmp_path_factory):
    from genjac import params_to_text

    path = tmp_path_factory.mktemp("params") / "toy.txt"
    path.write_text(params_to_text(toy))
    return str(path)


@pytest.fixture
def skewed_cocycle(monkeypatch):
    """Break the modulus cocycle's symmetry: c(P, Q) doubles when P sorts first.

    Every relation check that compares c(P, Q) with c(Q, P) then fails on
    some triples, so the tests that use it see which failures get named.
    """
    honest = ModulusCocycle.__call__

    def skewed(self, p, q, chord=None):
        value = honest(self, p, q, chord)
        return self.b_group.field.add_coeffs(value, value) if p.serialize() < q.serialize() else value

    monkeypatch.setattr(ModulusCocycle, "__call__", skewed)


class _MemoizedCocycle(Cocycle):
    """Another cocycle's values and sums, each argument pair computed once."""

    tag = "memoized"

    def __init__(self, inner: Cocycle) -> None:
        super().__init__(inner.a_group, inner.b_group)
        self._call = functools.cache(inner)
        self._sum_and_value = functools.cache(inner.sum_and_value)

    def __call__(self, p, q):
        return self._call(p, q)

    def sum_and_value(self, p, q):
        return self._sum_and_value(p, q)


@pytest.fixture(scope="session")
def memoized_extension():
    """Build the extension group of a cocycle with its values and sums memoized.

    Oracles that add tens of thousands of times over a small base group use
    it; the group law and every value are the same as the plain extension's.
    """
    return lambda cocycle: ExtensionGroup(_MemoizedCocycle(cocycle))
