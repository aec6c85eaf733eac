import random

import pytest

from genjac import make_toy_params


@pytest.fixture(scope="session")
def toy():
    """The standard small instance: p=11, seeded modulus.

    Session-scoped so that every test shares one instance; every pinned
    value in the suite assumes this exact seed.
    """
    return make_toy_params(11, seed=7)


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture(scope="session")
def params_file(toy, tmp_path_factory):
    from genjac import params_to_text

    path = tmp_path_factory.mktemp("params") / "toy.txt"
    path.write_text(params_to_text(toy))
    return str(path)
