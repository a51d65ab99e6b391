"""The exact route of the engine: systems whose moments are exact rationals
(uniform pieces and atoms) are solved by fraction-free elimination, and every
coefficient is the exact rational rounded once.

The oracle is ``oracles.UniformPairOracle``: Fraction moments and Fraction
Gaussian elimination, rounded here by ``libmp.from_rational``.
"""

import functools
from fractions import Fraction

import pytest
from mpmath.libmp import from_rational, round_nearest

from mop_trees.errors import NormalityError
from mop_trees.measures import Measure, Piece, uniform
from mop_trees.mop_engine import MopSystem
from mop_trees.nikishin import nikishin_system

from oracles import UniformPairOracle


class _CachedOracle(UniformPairOracle):
    """The oracle with each solve done once (h, a, b and A0 re-read them)."""

    @functools.cache
    def type2(self, n):
        return super().type2(n)

    @functools.cache
    def type1(self, n):
        return super().type1(n)


# name -> (measures, oracle, largest |n| checked)
CASES = {
    "ang_u": (lambda: (uniform(-2, -1), uniform(1, 2)), _CachedOracle(), 12),
    "dyadic_with_atom": (
        lambda: (Measure(atoms=((3, 0.25),), pieces=(Piece(-2.5, -1.25),)), uniform(1.125, 2)),
        _CachedOracle((-2.5, -1.25), (1.125, 2), atoms=(((3, 0.25),), ())),
        8,
    ),
}


def indices(nmax):
    return [(n1, d - n1) for d in range(nmax + 1) for n1 in range(d, -1, -1)]


def rounded(q: Fraction, prec: int):
    return from_rational(q.numerator, q.denominator, prec, round_nearest)


@pytest.mark.parametrize("prec", [53, 256])
@pytest.mark.parametrize("name", sorted(CASES))
def test_records_are_the_exact_rationals_rounded_once(name, prec):
    measures, oracle, nmax = CASES[name]
    sys = MopSystem(measures(), prec)
    for n in indices(nmax):
        rec = sys.record(n)
        assert [x._mpf_ for x in rec.P] == [rounded(q, prec) for q in oracle.type2(n)], n
        assert [x._mpf_ for x in rec.h] == [rounded(oracle.h(n, j), prec) for j in (1, 2)], n
        if sum(n):
            rec = sys.type1_record(n)
            for got, want in zip((*rec.A, rec.A0), (*oracle.type1(n), oracle.a0(n))):
                assert [x._mpf_ for x in got] == [rounded(q, prec) for q in want], n
        # a and b too: each is read off the exact rationals of three records
        want = [oracle.a(n, 1), oracle.a(n, 2), oracle.b(n, 1), oracle.b(n, 2)]
        assert [x._mpf_ for x in sys.recurrence(n)] == [rounded(q, prec) for q in want], n


def test_engine_takes_the_exact_route_only_for_short_rational_rows():
    ang = MopSystem((uniform(-2, -1), uniform(1, 2)))
    assert ang._integer_rows((10, 10)) is not None
    assert ang._integer_rows((25, 25)) is None  # 179 bits: past the gate, the mp LU
    for bits in (512, 1024):  # one bound at every precision: past it the LU is the faster
        wide = MopSystem((uniform(-2, -1), uniform(1, 2)), bits)
        assert wide._integer_rows((16, 16)) is not None and wide._integer_rows((20, 20)) is None  # 115, 145 bits
    skew = MopSystem((uniform(-2.791, -2.54), uniform(-2.301, -0.975)))
    assert skew._integer_rows((0, 0)) is not None  # the masses alone
    assert all(skew._integer_rows(n) is None for n in indices(6)[1:])  # 53-bit doubles: wide rows
    assert nikishin_system(uniform(2, 3), uniform(0, 1)).sys._integer_rows((1, 1)) is None  # rule-based moments


def test_a_zero_determinant_raises_normality_error_on_the_exact_route():
    twin = MopSystem((uniform(0, 1), uniform(0, 1)), 128)
    assert twin._integer_rows((1, 1)) is not None
    with pytest.raises(NormalityError, match=r"type II moment matrix singular at n=\(1, 1\)"):
        twin.type2((1, 1))
