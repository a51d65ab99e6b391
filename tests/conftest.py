import pytest
from hypothesis import settings

from mop_trees.angelesco import angelesco_system
from mop_trees.measures import uniform
from mop_trees.nikishin import nikishin_system

# the same examples on every run, and no example database on disk
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def ang_u():
    """Two unit-mass uniform intervals with a gap: the workhorse pair."""
    return angelesco_system(uniform(-2, -1), uniform(1, 2))


@pytest.fixture(scope="session")
def ang_sys(ang_u):
    return ang_u.sys


@pytest.fixture(scope="session")
def nik_u():
    """Uniform base on [2, 3] weighted by the Markov function of uniform [0, 1]."""
    return nikishin_system(uniform(2, 3), uniform(0, 1))


@pytest.fixture(scope="session")
def nik_sys(nik_u):
    return nik_u.sys
