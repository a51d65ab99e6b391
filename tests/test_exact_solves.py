"""The lattice fill of the engine: systems whose moments are exact rationals
(uniform pieces and atoms) are filled level by level from the recurrence in
exact arithmetic, and every value is the exact rational rounded once.

The oracle is ``oracles.UniformPairOracle``: Fraction moments and exact solves
of the moment systems, rounded here by ``libmp.from_rational``.
"""

import functools
from fractions import Fraction

import pytest
from mpmath.libmp import from_rational, round_nearest

from mop_trees.errors import NormalityError
from mop_trees.measures import Measure, Piece, uniform
from mop_trees.mop_engine import MopSystem

from oracles import UniformPairOracle


class _CachedOracle(UniformPairOracle):
    """The oracle with each moment and solve done once (h, a, b and A0 re-read them)."""

    @functools.cache
    def mom(self, j, k):
        return super().mom(j, k)

    @functools.cache
    def type2(self, n):
        return super().type2(n)

    @functools.cache
    def type1(self, n):
        return super().type1(n)


ANG_U = _CachedOracle()

# name -> (measures, oracle, largest |n| checked)
CASES = {
    "ang_u": (lambda: (uniform(-2, -1), uniform(1, 2)), ANG_U, 12),
    "dyadic_with_atom": (
        lambda: (Measure(atoms=((3, 0.25),), pieces=(Piece(-2.5, -1.25),)), uniform(1.125, 2)),
        _CachedOracle((-2.5, -1.25), (1.125, 2), atoms=(((3, 0.25),), ())),
        8,
    ),
    # 53-bit endpoints: before the fill, their wide integer rows went to the mp LU
    "skew_pair": (
        lambda: (uniform(-2.791, -2.54), uniform(-2.301, -0.975)),
        _CachedOracle((-2.791, -2.54), (-2.301, -0.975)),
        12,
    ),
}


def indices(nmax):
    return [(n1, d - n1) for d in range(nmax + 1) for n1 in range(d, -1, -1)]


def rounded(q: Fraction, prec: int):
    return from_rational(q.numerator, q.denominator, prec, round_nearest)


def assert_row_is_the_oracle(sys, oracle, n):
    """P, h and the recurrence row at n are the oracle's rationals rounded once."""
    prec, rec = sys.precision_bits, sys.record(n)
    assert [x._mpf_ for x in rec.P] == [rounded(q, prec) for q in oracle.type2(n)], n
    assert [x._mpf_ for x in rec.h] == [rounded(oracle.h(n, j), prec) for j in (1, 2)], n
    # a and b too: each is read off the exact rationals of three records
    want = [oracle.a(n, 1), oracle.a(n, 2), oracle.b(n, 1), oracle.b(n, 2)]
    assert [x._mpf_ for x in sys.recurrence(n)] == [rounded(q, prec) for q in want], n


@pytest.mark.parametrize("prec", [53, 256])
@pytest.mark.parametrize("name", sorted(CASES))
def test_records_are_the_exact_rationals_rounded_once(name, prec):
    measures, oracle, nmax = CASES[name]
    sys = MopSystem(measures(), prec)
    for n in indices(nmax):
        assert_row_is_the_oracle(sys, oracle, n)
        if sum(n):
            rec = sys.type1_record(n)
            for got, want in zip((*rec.A, rec.A0), (*oracle.type1(n), oracle.a0(n))):
                assert [x._mpf_ for x in got] == [rounded(q, prec) for q in want], n


def test_the_fill_reaches_order_forty_on_ang_u():
    # the mp LU ran short of digits here at 256 bits from (0, 28) and (28, 0); the fill
    # is exact, so every value is still the oracle's rational rounded once
    points = [(0, 28), (0, 29), (28, 0), (20, 20)] + [n for k in range(41) for n in ((0, k), (k, 0))]
    for prec in (53, 256):
        sys = MopSystem((uniform(-2, -1), uniform(1, 2)), prec)
        for n in points:
            assert_row_is_the_oracle(sys, ANG_U, n)


def test_a_zero_determinant_raises_normality_error_on_the_exact_route():
    # P_(0,1) = x - 1/2 has h_{(0,1),1} = 0, so the fill cannot build P_(1,1)
    twin = MopSystem((uniform(0, 1), uniform(0, 1)), 128)
    with pytest.raises(NormalityError, match=r"vanishing h at n=\(0, 1\), j=1, needed at n=\(1, 1\)"):
        twin.type2((1, 1))
    assert len(twin.type2((1, 0))) == 2  # the index below is still normal


def test_a_rank_two_atom_measure_stops_the_fill_where_h_vanishes():
    # two atoms have moments of rank 2: P_(2,0) = x^2 - x and h_{(2,0),1} = 0
    sys = MopSystem((Measure(atoms=((0, 0.5), (1, 0.5))), uniform(2, 3)), 128)
    with pytest.raises(NormalityError, match=r"vanishing h at n=\(2, 0\), j=1, needed at n=\(3, 0\)"):
        sys.type2((3, 0))
    assert [float(c) for c in sys.type2((2, 0))] == [0.0, -1.0, 1.0]
