import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf, workprec
from mpmath.libmp import from_man_exp, to_rational

from mop_trees import _poly as P
from mop_trees import mop_engine
from mop_trees.errors import ConvergenceError, NormalityError, PrecisionError
from mop_trees.measures import DensitySpec, Measure, Piece, cauchy, uniform
from mop_trees.mop_engine import (
    MopSystem,
    SecondKind,
    add,
    consistency_residual,
    consistency_residual_from,
    interlacing_check,
    real_zeros,
    second_kind,
    second_kind_boundary,
    second_kind_boundary_mp,
    sign_lambda_check,
    sub,
    type1_interlacing_check,
    type1_recursion_residual,
)
from mop_trees.nikishin import nikishin_system

from oracles import UniformPairOracle

ORACLE = UniformPairOracle()


def jacobi_pair():
    """Weights (x - a)(b - x) on [-2, -1] and [1, 2]: integer exponents, but rule-based
    moments, so the mp LU solves the pair."""
    weight = DensitySpec("jacobi_weight", p=1, q=1)
    return tuple(Measure(pieces=(Piece(a, b, weight),)) for a, b in ((-2, -1), (1, 2)))


def as_floats(coeffs):
    return [float(c) for c in coeffs]


class TestType2:
    def test_empty_index(self, ang_sys):
        assert as_floats(ang_sys.type2((0, 0))) == [1.0]

    def test_degree_one_is_shifted_mean(self, ang_sys):
        assert as_floats(ang_sys.type2((1, 0))) == pytest.approx([1.5, 1.0], abs=1e-30)

    def test_one_one_against_rational_oracle(self, ang_sys):
        # oracle: exact Fraction solve of the 2x2 moment system -> x^2 - 7/3
        expected = [float(c) for c in ORACLE.type2((1, 1))]
        assert expected == [-7 / 3, 0.0, 1.0]
        assert as_floats(ang_sys.type2((1, 1))) == pytest.approx(expected, abs=1e-30)

    def test_deep_index_against_rational_oracle(self, ang_sys):
        expected = [float(c) for c in ORACLE.type2((3, 2))]
        assert as_floats(ang_sys.type2((3, 2))) == pytest.approx(expected, rel=1e-25)

    def test_normality_error_on_degenerate_pair(self):
        twin = MopSystem((uniform(0, 1), uniform(0, 1)), 128)
        with pytest.raises(NormalityError):
            twin.type2((1, 1))


class TestType1:
    def test_one_one_constants(self, ang_sys):
        A1, A2, A0 = ang_sys.type1((1, 1))
        assert as_floats(A1) == pytest.approx([-1 / 3], abs=1e-30)
        assert as_floats(A2) == pytest.approx([1 / 3], abs=1e-30)
        assert A0 == ()

    def test_single_condition(self, ang_sys):
        A1, A2, _ = ang_sys.type1((1, 0))
        assert as_floats(A1) == pytest.approx([1.0], abs=1e-30)  # 1/mass
        assert A2 == ()

    def test_two_one_against_rational_oracle(self, ang_sys):
        a1o, a2o = ORACLE.type1((2, 1))
        A1, A2, _ = ang_sys.type1((2, 1))
        assert as_floats(A1) == pytest.approx([float(c) for c in a1o], rel=1e-25)
        assert as_floats(A2) == pytest.approx([float(c) for c in a2o], rel=1e-25)

    def test_normalization_integral(self, ang_sys):
        # int x^{|n|-1} (A1 dmu1 + A2 dmu2) = 1
        n = (2, 2)
        A1, A2, _ = ang_sys.type1(n)
        with workprec(256):
            m1 = ang_sys.measures[0].moments_mp(6, 256)
            m2 = ang_sys.measures[1].moments_mp(6, 256)
            val = sum(c * m1[3 + i] for i, c in enumerate(A1))
            val += sum(c * m2[3 + i] for i, c in enumerate(A2))
        assert float(val) == pytest.approx(1.0, abs=1e-40)


class TestRecurrence:
    def test_means_at_origin(self, ang_sys):
        a1, a2, b1, b2 = ang_sys.recurrence((0, 0))
        assert (float(b1), float(b2)) == pytest.approx((-1.5, 1.5), abs=1e-30)

    def test_rescaled_legendre(self, ang_sys):
        # classical a1 = 1/3 on [-1, 1], scaled by (half-length)^2 = 1/4 -> 1/12,
        # confirmed by the Fraction oracle
        assert ORACLE.a((1, 0), 1) == Fraction(1, 12)
        assert float(ang_sys.recurrence((1, 0))[0]) == pytest.approx(1 / 12, abs=1e-30)

    def test_marginal_zero_convention(self, ang_sys):
        assert float(ang_sys.recurrence((0, 3))[0]) == 0.0
        assert float(ang_sys.recurrence((3, 0))[1]) == 0.0

    def test_against_rational_oracle_grid(self, ang_sys):
        for n in [(1, 1), (2, 1), (2, 2), (3, 2)]:
            a1, a2, b1, b2 = (float(v) for v in ang_sys.recurrence(n))
            assert a1 == pytest.approx(float(ORACLE.a(n, 1)), rel=1e-25)
            assert a2 == pytest.approx(float(ORACLE.a(n, 2)), rel=1e-25)
            assert b1 == pytest.approx(float(ORACLE.b(n, 1)), rel=1e-25)
            assert b2 == pytest.approx(float(ORACLE.b(n, 2)), rel=1e-25)

    def test_a_routes_agree(self, ang_sys):
        # route 1: h-ratios; route 2: solve the polynomial identity
        # x P_n - P_{n+e_i} - b_i P_n = a1 P_{n-e1} + a2 P_{n-e2} coefficientwise
        n = (2, 2)
        with workprec(256):
            a1, a2, b1, b2 = ang_sys.recurrence(n)
            pn = ang_sys.record(n).P
            lhs = P.pxshift(pn)
            lhs = P.padd(lhs, P.pscale(ang_sys.record(add(n, ang_sys.units[0])).P, -1))
            lhs = P.padd(lhs, P.pscale(pn, -b1))
            p1 = ang_sys.record(sub(n, ang_sys.units[0])).P
            p2 = ang_sys.record(sub(n, ang_sys.units[1])).P
            # both P_{n-e} are monic of one lower degree; split by evaluation
            # at a zero of the second one
            z2 = real_zeros(p2)[0]
            a1_poly = P.pval(lhs, z2) / P.pval(p1, z2)
            a2_poly = lhs[len(pn) - 2] - a1_poly  # top coefficient is a1 + a2
            assert abs(float(a1_poly - a1)) < 1e-25
            assert abs(float(a2_poly - a2)) < 1e-25

    def test_h_values_signed(self, ang_sys):
        h1, h2 = ang_sys.h_values((1, 1))
        assert float(h1) == pytest.approx(float(ORACLE.h((1, 1), 1)), rel=1e-28)
        assert float(ORACLE.h((1, 1), 1)) == -0.25  # signed, not a square norm

    @pytest.mark.parametrize("n", [(0, 0), (1, 0), (2, 1), (3, 3)])
    def test_h_is_the_residual_at_n_k(self, nik_sys, n):
        # on the mp LU route (rule-based moments) h_{n,k} = int P_n x^{n_k} dmu_k is the
        # residual one past the last that the orthogonality check bounds, mp.fsum of the
        # mpf products at the system's precision; the lattice fill's h is in test_exact_solves.py
        assert nik_sys.record(n).exact is None
        p = nik_sys.type2(n)
        with workprec(nik_sys.precision_bits):
            expected = tuple(mp.fsum(c * x for c, x in zip(p, nik_sys.moments(k, nk + sum(n))[nk:]))
                             for k, nk in enumerate(n, 1))
        assert nik_sys.h_values(n) == expected
        if n == (0, 0):
            assert expected == (nik_sys.mass(1), nik_sys.mass(2))

    @pytest.mark.parametrize("system", ["nik_u", "jacobi"])
    def test_one_formula_is_the_mpf_formula_on_lu_records(self, nik_sys, system):
        # the exact-source formula rounds the exact difference and quotient once; on
        # LU records, whose values are dyadic, that is the mpf subtraction and division
        sys = nik_sys if system == "nik_u" else MopSystem(jacobi_pair())
        with workprec(sys.precision_bits):
            for n in [(n1, d - n1) for d in range(7) for n1 in range(d + 1)]:
                rec, ups = sys.record(n), [sys.record(add(n, e)) for e in sys.units]
                assert rec.exact is None and all(up.exact is None for up in ups)
                lead = rec.P[-2] if sum(n) else mpf(0)
                b = [lead - up.P[sum(n)] for up in ups]
                lows = [sys.record(sub(n, e)) if nj else None for nj, e in zip(n, sys.units)]
                a = [mpf(0) if low is None else rec.h[j] / low.h[j] for j, low in enumerate(lows)]
                assert [c._mpf_ for c in sys.recurrence(n)] == [c._mpf_ for c in (*a, *b)], n


class TestConsistency:
    def test_residuals_tiny(self, ang_sys):
        r = consistency_residual(ang_sys, (1, 1))
        assert max(float(x) for x in r) < 1e-30

    def test_symmetric_first_relation(self, ang_sys):
        r1, _, _ = consistency_residual(ang_sys, (1, 1))
        assert float(r1) < 1e-40

    def test_perturbation_detected(self, ang_sys):
        base = {
            n: tuple(float(v) for v in ang_sys.recurrence(n))
            for n in [
                (1, 1), (2, 1), (1, 2), (0, 1), (1, 0), (0, 0), (2, 2), (0, 2), (2, 0),
            ]
        }

        def perturbed(n):
            a1, a2, b1, b2 = base[n]
            if n == (2, 1):
                a1 += 0.1
            return a1, a2, b1, b2

        r = consistency_residual_from(perturbed, (1, 1))
        assert r[1] > 0.01

    def test_type1_recursion_identity(self, ang_sys):
        for n in [(1, 1), (2, 2), (2, 1)]:
            for i in (1, 2):
                for j in (1, 2):
                    assert float(type1_recursion_residual(ang_sys, n, i, j)) < 1e-45


class TestSecondKind:
    def test_normalization_at_infinity(self, ang_sys):
        z = mpf(10) ** 8
        L = second_kind(ang_sys, (1, 0), z)
        assert complex(z * L).real == pytest.approx(1.0, rel=1e-7)

    def test_value_against_quadrature_oracle(self, ang_sys):
        # oracle: Q_{(1,1)} has constant densities -1/3 and 1/3; integrate directly
        xs1 = np.linspace(-2, -1, 400001)
        xs2 = np.linspace(1, 2, 400001)
        oracle = np.trapezoid((-1 / 3) / (5 - xs1), xs1) + np.trapezoid((1 / 3) / (5 - xs2), xs2)
        L = second_kind(ang_sys, (1, 1), 5.0)
        assert complex(L).real == pytest.approx(oracle, abs=1e-10)

    def test_r_leading_order_decay(self, ang_sys):
        # R_{n,1}(z) = int P_n dmu1 / (z - t) = h z^{-n_1-1} (1 + O(1/z)):
        # the deviation decays like 1/z
        n = (1, 1)
        h1, _ = ang_sys.h_values(n)
        devs = []
        for z in (1e4, 1e6):
            R1 = cauchy(ang_sys.measures[0], z, ang_sys.record(n).P, prec=ang_sys.precision_bits)
            devs.append(abs(complex(R1) * z ** (n[0] + 1) / float(h1) - 1))
        assert devs[0] < 10 / 1e4 and devs[1] < 10 / 1e6
        assert devs[1] < devs[0] / 50

    @pytest.mark.parametrize("z", [1e18, 1e30, 1e35, 1e80, 1e30j])
    def test_a_cancelled_value_raises_naming_the_bits(self, ang_sys, z):
        # sum_k A_k markov_k - A0 cancels to L_(2,1) = O(z^-3): at |z| = 1e18 it keeps 74 of
        # the 85 bits needed at 256 bits; at 1e80 it rounds to 0
        with pytest.raises(PrecisionError, match=r"n=\(2, 1\), z=.* fewer than 85 bits at 256 bits"):
            second_kind(ang_sys, (2, 1), z)

    @pytest.mark.parametrize("z", [1e12, 1e15, 1e15j])
    def test_a_kept_value_is_the_leading_order(self, ang_sys, z):
        # L_n(z) = z^-|n| (1 + O(1/z)) by the normalization int x^{|n|-1} Q_n = 1
        assert complex(second_kind(ang_sys, (2, 1), z) * mpc(z) ** 3) == pytest.approx(1, rel=1e-11)

    def test_prepared_family_gives_the_same_bits(self, ang_sys):
        z = complex(0.3, 1.7)
        family = SecondKind(ang_sys, z)
        for n in ((1, 0), (0, 1), (3, 2), (4, 4)):
            assert second_kind(ang_sys, n, family)._mpc_ == second_kind(ang_sys, n, z)._mpc_
        other = MopSystem(ang_sys.measures)
        with pytest.raises(ValueError):
            second_kind(other, (1, 1), family)

    def test_boundary_routes_agree(self, ang_sys):
        x = -1.4
        a = second_kind_boundary(ang_sys, (2, 2), x, "+")
        b = complex(second_kind_boundary_mp(ang_sys, (2, 2), x, "+"))
        assert a == pytest.approx(b, abs=1e-11)

    def test_boundary_conjugate(self, ang_sys):
        x = 1.5
        a = second_kind_boundary(ang_sys, (2, 1), x, "+")
        b = second_kind_boundary(ang_sys, (2, 1), x, "-")
        assert a == pytest.approx(np.conj(b))


def _from_roots(roots, prec=256):
    """Ascending mp coefficients of prod (x - r)."""
    with workprec(prec):
        c = [mpf(1)]
        for r in roots:
            c = [(c[i - 1] if i else 0) - mpf(r) * (c[i] if i < len(c) else 0) for i in range(len(c) + 1)]
    return tuple(c)


class TestZeros:
    def test_quadratic(self):
        zs = real_zeros((-1.0, 0.0, 1.0))
        assert [float(z) for z in zs] == pytest.approx([-1.0, 1.0], abs=1e-30)

    @pytest.mark.parametrize(
        "coeffs, expected",
        [
            ((-6.0, 1.0, -5.0, 1.0, 1.0), [-3.0, 2.0]),  # (x^2 + 1)(x - 2)(x + 3)
            ((2.5,), []),
            ((3.0, 0.0), []),  # a zero top coefficient is dropped
        ],
    )
    def test_complex_pairs_and_constants(self, coeffs, expected):
        zs = real_zeros(coeffs)
        assert [float(z) for z in zs] == pytest.approx(expected, abs=1e-30)

    @pytest.mark.parametrize("coeffs", [(), (0.0,), (0.0, 0.0, 0.0)])
    def test_zero_polynomial_rejected(self, coeffs):
        with pytest.raises(ValueError):
            real_zeros(coeffs)

    def test_separated_clusters(self, monkeypatch):
        # 18 dyadic roots in three clusters; the first companion matrix finds
        # only some of them, the deflated quotient the rest.  The roots lie on
        # the grid, so each is its own nearest grid point.
        roots = sorted(c + j / 64 for c in (-3, 0.25, 4) for j in range(6))
        orig = mop_engine._shifted_seeds
        for prec in (256, 53):
            seeded = []
            monkeypatch.setattr(mop_engine, "_shifted_seeds", lambda c: seeded.append(c) or orig(c))
            assert real_zeros(_from_roots(roots), prec) == [mpf(r) for r in roots]
            assert len(seeded) >= 2 and len(seeded[-1]) < len(seeded[0])  # a quotient was seeded

    @pytest.mark.parametrize("which", ["P(3,2)", "A1(2,8)", "A2(4,5)", "clusters"])
    def test_power_of_two_scales_give_the_same_bits(self, ang_sys, which):
        # A1 at (2, 8) has degree 1 and a leading coefficient near 2^-9
        coeffs = {
            "P(3,2)": lambda: ang_sys.type2((3, 2)),
            "A1(2,8)": lambda: ang_sys.type1((2, 8))[0],
            "A2(4,5)": lambda: ang_sys.type1((4, 5))[1],
            "clusters": lambda: _from_roots(sorted(c + j / 64 for c in (-3, 0.25, 4) for j in range(6))),
        }[which]()
        zs = real_zeros(coeffs)
        assert len(zs) == len(coeffs) - 1
        for k in (-600, -40, 40, 600):
            assert real_zeros([mp.ldexp(c, k) for c in coeffs]) == zs

    def test_a_zero_halfway_between_grid_points_takes_the_upper_one(self):
        # the grid of x - r at 256 bits has the step 2^-270 near 1, so 1 + 2^-271 is a midpoint
        with workprec(400):
            for r, up in ((1 + mpf(2) ** -271, 1 + mpf(2) ** -270), (-1 - mpf(2) ** -271, mpf(-1))):
                assert real_zeros((-r, 1)) == [up]

    @pytest.mark.parametrize("roots", [(1, 1), (1, 1, 1), (1, 1, -2)])
    def test_exact_multiple_zeros_raise(self, roots):
        with pytest.raises(ConvergenceError):
            real_zeros(_from_roots(roots))

    def test_degree_one(self, ang_sys):
        zs = real_zeros(ang_sys.type2((1, 0)))
        assert [float(z) for z in zs] == pytest.approx([-1.5], abs=1e-30)

    def test_one_in_each_interval(self, ang_sys):
        # bracketing oracle: sign changes of the polynomial on a fine grid
        coeffs = np.asarray([float(c) for c in ang_sys.type2((1, 1))])
        grid = np.linspace(-2.5, 2.5, 10001)
        vals = np.polynomial.polynomial.polyval(grid, coeffs)
        brackets = grid[:-1][np.sign(vals[:-1]) * np.sign(vals[1:]) < 0]
        assert len(brackets) == 2
        zs = [float(z) for z in real_zeros(ang_sys.type2((1, 1)))]
        assert -2 <= zs[0] <= -1 and 1 <= zs[1] <= 2
        for b, z in zip(brackets, zs):
            assert abs(b - z) < 1e-3

    def test_all_zeros_in_hulls(self, ang_sys):
        for n in [(2, 2), (3, 1), (2, 4)]:
            for z in real_zeros(ang_sys.record(n).P):
                x = float(z)
                assert -2 <= x <= -1 or 1 <= x <= 2


def _fraction(x) -> Fraction:
    return Fraction(*to_rational(x._mpf_))


def _record_polynomials(sys, nmax):
    """(n, k, coefficients) of every P_n (k = 0) and A_n^{(k)} of degree >= 1 with 1 <= |n| <= nmax."""
    for d in range(1, nmax + 1):
        for n in ((n1, d - n1) for n1 in range(d + 1)):
            rec = sys.type1_record(n)
            yield from ((n, k, c) for k, c in enumerate((rec.P, *rec.A)) if len(c) > 1)


class TestZeroCertificates:
    @pytest.mark.parametrize("system, nmax", [("ang_sys", 12), ("nik_sys", 6)])
    def test_each_zero_is_the_nearest_point_of_its_grid(self, request, system, nmax):
        # the grid step h = 2^(E - prec - 16), 2^E bounding the zeros; the signs at
        # z -+ h/2 are formed here in Fractions, apart from the library's integer
        # Horner.  On ang_u every P_n and A_n^{(k)} has deg real zeros.
        sys = request.getfixturevalue(system)
        prec, count = sys.precision_bits, 0
        for n, k, c in _record_polynomials(sys, nmax):
            zs = [_fraction(z) for z in sys.zeros(n, k)]
            if not zs:
                continue  # some Nikishin A_n^{(k)} have no real zero
            h = Fraction(2) ** (mop_engine._radius_exponent(mop_engine._integers(c, prec)) - prec - 16)
            assert max(map(abs, zs)) < h * 2 ** (prec + 16) and h * 2**prec <= max(map(abs, zs))
            cf = [_fraction(x) for x in c]
            for z in zs:
                lo, hi = (sum(ck * t**i for i, ck in enumerate(cf)) for t in (z - h / 2, z + h / 2))
                assert (z / h).denominator == 1 and lo * hi < 0, (n, k, float(z))
                count += 1
        assert count == {"ang_sys": 1300, "nik_sys": 168}[system]

    @pytest.mark.parametrize("system, nmax", [("ang_sys", 12), ("nik_sys", 6)])
    def test_the_ambient_precision_changes_no_bit(self, request, system, nmax):
        sys = request.getfixturevalue(system)
        for n, k, c in _record_polynomials(sys, nmax):
            for bits in (24, 1024):
                with workprec(bits):
                    assert real_zeros(c, sys.precision_bits) == list(sys.zeros(n, k)), (n, k, bits)


class TestZerosOnRecords:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        orig = mop_engine.real_zeros
        monkeypatch.setattr(mop_engine, "real_zeros", lambda c, prec=256: seen.append(c) or orig(c, prec))
        return seen

    def test_interlacing_reads_record_zeros(self, calls):
        sys = MopSystem((uniform(-2, -1), uniform(1, 2)))
        assert interlacing_check(sys, (3, 2), 1)
        assert interlacing_check(sys, (3, 2), 2)
        assert len(calls) == 3  # P_(3,2), P_(4,2), P_(3,3): P_(3,2) only once

    def test_type1_check_repeats_without_new_searches(self, calls):
        sys = MopSystem((uniform(-2, -1), uniform(1, 2)))
        assert type1_interlacing_check(sys, (2, 2), 2, 1)
        first = len(calls)
        assert type1_interlacing_check(sys, (2, 2), 2, 1)
        assert first > 0 and len(calls) == first

    def test_record_zeros_match_direct_search(self, ang_sys):
        for n, k in [((3, 2), 0), ((3, 2), 1), ((3, 2), 2), ((0, 3), 1), ((1, 1), 2)]:
            rec = ang_sys.type1_record(n)  # with P_n: record(n) alone leaves A unset
            c = (rec.P, *rec.A)[k]
            assert ang_sys.zeros(n, k) == (tuple(real_zeros(c)) if len(c) > 1 else ())

    def test_type1_values_match_horner(self, ang_sys):
        z = mpf("1.25")
        rec = ang_sys.type1_record((3, 2))
        with workprec(256):
            expected = tuple(P.pval(c, z) for c in (rec.A0, *rec.A))
        assert ang_sys.type1_values((3, 2), z) == expected
        assert ang_sys.type1_values((0, 1), z)[1] == 0  # A1 = 0 when n1 = 0


class TestInterlacing:
    def test_basic(self, ang_sys):
        assert interlacing_check(ang_sys, (1, 1), 1)

    def test_vacuous(self, ang_sys):
        assert interlacing_check(ang_sys, (0, 0), 2)

    def test_negative_control(self):
        from mop_trees.mop_engine import _strict_interlace

        assert not _strict_interlace([0.5, 2.5], [0.0, 1.0, 2.0])

    def test_type1_patterns(self, ang_sys):
        assert type1_interlacing_check(ang_sys, (2, 2), 2, 1)
        assert type1_interlacing_check(ang_sys, (3, 2), 1, 2)
        assert type1_interlacing_check(ang_sys, (1, 1), 1, 2)  # vacuous
        assert type1_interlacing_check(ang_sys, (2, 2), 1, 1)
        assert type1_interlacing_check(ang_sys, (2, 3), 2, 2)


class TestSignLambda:
    def test_one_one(self, ang_sys):
        A1, _, _ = ang_sys.type1((1, 1))
        assert float(A1[0]) < 0
        assert sign_lambda_check(ang_sys, (1, 1))

    def test_two_two_positive_lead(self, ang_sys):
        A1, _, _ = ang_sys.type1((2, 2))
        assert float(A1[-1]) > 0
        assert sign_lambda_check(ang_sys, (2, 2))

    def test_grid(self, ang_sys):
        for n1 in range(1, 5):
            for n2 in range(1, 5):
                assert sign_lambda_check(ang_sys, (n1, n2))


@pytest.mark.parametrize("bits", [0, -8])
def test_nonpositive_precision_rejected(bits):
    mu = uniform(-1, 1)
    with pytest.raises(ValueError):
        MopSystem((mu, mu), bits)


class TestNormalityInvariant:
    def test_degrees_exact_small_grid(self, ang_sys):
        for n1 in range(0, 5):
            for n2 in range(0, 5):
                p = ang_sys.type2((n1, n2))
                assert len(p) == n1 + n2 + 1
                assert float(p[-1]) == 1.0

    def test_orthogonality_residuals(self, ang_sys):
        n = (3, 2)
        p = ang_sys.record(n).P
        with workprec(256):
            m1 = ang_sys.measures[0].moments_mp(10, 256)
            m2 = ang_sys.measures[1].moments_mp(10, 256)
            worst = mpf(0)
            for mom, nk in ((m1, 3), (m2, 2)):
                for m in range(nk):
                    worst = max(worst, abs(sum(c * mom[m + i] for i, c in enumerate(p))))
        assert float(worst) < 1e-51  # 1e-(0.2 * 256)


def _nudged(coeffs):
    """The coefficients with the largest one moved by 2^-40 relative."""
    i = max(range(len(coeffs)), key=lambda j: abs(coeffs[j]))
    with workprec(256):
        return coeffs[:i] + (coeffs[i] * (1 + mpf(2) ** -40),) + coeffs[i + 1 :]


def _neighbours(sys, n):
    """The records at n, n + e_i and n - e_j (None where n_j = 0), which recurrence(n) passes to its check."""
    lows = [sys.record(sub(n, e)) if nj else None for nj, e in zip(n, sys.units)]
    return sys.record(n), [sys.record(add(n, e)) for e in sys.units], lows


@pytest.mark.parametrize("n", [(1, 1), (3, 2), (5, 4)])
class TestEngineChecksRaise:
    def test_orthogonality_check(self, ang_sys, nik_sys, n):
        # ang_u takes the exact route, nik_u (rule-based moments) the mp LU
        for sys, lu in ((ang_sys, False), (nik_sys, True)):
            assert (sys.record(n).exact is None) == lu
            d = n[0] + n[1]
            p, moms = sys.record(n).P, (sys.moments(1, n[0] + d), sys.moments(2, n[1] + d))
            with workprec(256):
                sys._check_orthogonality(p, n, moms)  # the record passes; its h: test_h_is_the_residual_at_n_k
                with pytest.raises(NormalityError, match="orthogonality residual too large"):
                    sys._check_orthogonality(_nudged(p), n, moms)

    def test_recurrence_check(self, n):
        sys = MopSystem((uniform(-2, -1), uniform(1, 2)))  # its record at n is nudged below
        coef = sys.recurrence(n)
        with workprec(256):
            sys._check_recurrence(*_neighbours(sys, n), coef[:2], coef[2:])
            rec = sys.record(n)
            rec.P = _nudged(rec.P)
            with pytest.raises(PrecisionError, match="nearest-neighbor recurrence fails"):
                sys._check_recurrence(*_neighbours(sys, n), coef[:2], coef[2:])


def _fractions(xs) -> list:
    return [_fraction(x) for x in xs]


def _exact_recurrence_excess(sys, n, a, b):
    """max over i of (max|r_i| - limit_i), with the recurrence residual r_i and its
    limit formed in Fractions by the polynomial operators: the reference for the check."""
    pn, a, tol, worst = _fractions(sys.record(n).P), _fractions(a), _fraction(sys.tolerance), None
    for bi, e in zip(_fractions(b), sys.units):
        r = P.pxshift(pn)
        r = P.padd(r, P.pscale(_fractions(sys.record(add(n, e)).P), -1))
        r = P.padd(r, P.pscale(pn, -bi))
        for aj, ej in zip(a, sys.units):
            if aj != 0:
                r = P.padd(r, P.pscale(_fractions(sys.record(sub(n, ej)).P), -aj))
        scale = max(abs(c) for c in pn) + abs(bi) + sum(abs(aj) for aj in a)
        excess = max(abs(c) for c in r) - tol * max(scale, 1)
        worst = excess if worst is None else max(worst, excess)
    return worst


def _exact_orthogonality_excess(sys, coeffs, n, moms):
    """max over the checked rows of |residual| - bound * top, in Fractions."""
    c = _fractions(coeffs)
    bound, d, worst = _fraction(sys.tolerance) * max(abs(x) for x in c), len(c) - 1, None
    for nk, mom in zip(n, moms):
        mom = _fractions(mom)
        top = max([abs(x) for x in mom[:d]], default=0)
        for m in range(nk):
            top = max(top, abs(mom[m + d]))
            excess = abs(sum(x * y for x, y in zip(c, mom[m:]))) - bound * top
            worst = excess if worst is None else max(worst, excess)
    return worst


def _exact_type1_excess(sys, coeffs, rows):
    """max over the type I rows of |residual| - bound * top, in Fractions."""
    c = _fractions(coeffs)
    bound, top, worst = _fraction(sys.tolerance) * max(abs(x) for x in c), 0, None
    for m, row in enumerate(rows):
        row = _fractions(row)
        top = max([top, *(abs(x) for x in row)])
        excess = abs(sum(x * y for x, y in zip(c, row)) - (m == len(rows) - 1)) - bound * top
        worst = excess if worst is None else max(worst, excess)
    return worst


def _edge(fails):
    """(lo, hi), exact mpf with fails(lo) false and fails(hi) true, 2^-200 apart relative:
    a bisection on the grid 2^-400 below 2^-40."""
    def t(k):
        return mp.make_mpf(from_man_exp(k, -400))

    lo, hi = 0, 1 << 360
    assert not fails(t(lo)) and fails(t(hi))
    while (hi - lo) << 200 > hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fails(t(mid)) else (mid, hi)
    return t(lo), t(hi)


def _decides_at_the_edge(check, lo, hi, error):
    """``check(lo)`` passes and ``check(hi)`` raises ``error``, under every ambient precision."""
    for ambient in (24, 53, 1024):
        with workprec(ambient):
            check(lo)
            with pytest.raises(error):
                check(hi)


def _grown(c, t):
    """c (1 + t), exactly."""
    return mp.fmul(c, mp.fadd(1, t, exact=True), exact=True)


@pytest.mark.parametrize("route, n", [("exact", (3, 2)), ("exact", (6, 5)), ("lu", (3, 2)), ("lu", (4, 4))])
class TestChecksDecideOnExactResiduals:
    """The checks decide exactly as the residuals and bounds formed in Fractions, also
    at the edge: b_1 (or the largest coefficient of P) moved, exactly, just inside and
    just past the bound, 2^-200 apart relative; under any ambient precision."""

    def test_recurrence_check(self, ang_sys, nik_sys, route, n):
        sys = ang_sys if route == "exact" else nik_sys
        row = sys.recurrence(n)
        a, b1, b2 = row[:2], row[2], row[3]

        def moved(t):
            return (mp.fadd(b1, t, exact=True), b2)

        lo, hi = _edge(lambda t: _exact_recurrence_excess(sys, n, a, moved(t)) > 0)
        _decides_at_the_edge(lambda t: sys._check_recurrence(*_neighbours(sys, n), a, moved(t)), lo, hi, PrecisionError)

    def test_orthogonality_check(self, ang_sys, nik_sys, route, n):
        sys = ang_sys if route == "exact" else nik_sys
        d = sum(n)
        p, moms = sys.record(n).P, tuple(sys.moments(k, nk + d) for k, nk in enumerate(n, 1))
        i = max(range(len(p)), key=lambda j: abs(p[j]))

        def moved(t):
            return p[:i] + (_grown(p[i], t),) + p[i + 1 :]

        lo, hi = _edge(lambda t: _exact_orthogonality_excess(sys, moved(t), n, moms) > 0)
        _decides_at_the_edge(lambda t: sys._check_orthogonality(moved(t), n, moms), lo, hi, NormalityError)


@pytest.mark.parametrize("value", [mpf("inf"), mpf("-inf"), mpf("nan")])
def test_exact_integers_refuse_inf_and_nan(value):
    with pytest.raises(ValueError, match="finite"):
        mop_engine._dyadic((mpf(1), value))
    with pytest.raises(ValueError, match="finite"):
        real_zeros([mpf(1), value])


class TestType1Check:
    """Type I records of the mp LU are checked against their rows
    ``int x^m Q_n = delta_{m,|n|-1}``, m < |n|; records of the lattice fill are exact."""

    @pytest.mark.parametrize("n", [(3, 2), (4, 4)])
    def test_decides_on_the_exact_residual_at_the_edge(self, nik_sys, n):
        # the largest coefficient of A moved, exactly, just inside and just past the bound
        c = [x for ak in nik_sys.type1_record(n).A for x in ak]
        rows = list(zip(*nik_sys._moment_rows(n, nik_sys._moments_at(n))))
        i = max(range(len(c)), key=lambda j: abs(c[j]))

        def moved(t):
            return c[:i] + [_grown(c[i], t)] + c[i + 1 :]

        lo, hi = _edge(lambda t: _exact_type1_excess(nik_sys, moved(t), rows) > 0)
        _decides_at_the_edge(lambda t: nik_sys._check_type1(moved(t), rows, n), lo, hi, PrecisionError)
        with pytest.raises(PrecisionError, match=rf"type I moments fail at n=\({n[0]}, {n[1]}\) at 256 bits"):
            nik_sys._check_type1(moved(hi), rows, n)

    def test_a_type1_solve_off_in_a_coefficient_raises_naming_the_bits(self, monkeypatch):
        solve = MopSystem._solve

        def nudged(self, rows, rhs, n, kind):
            x = solve(self, rows, rhs, n, kind)
            if kind == "I":
                x[0] *= 1 + mpf(2) ** -60
            return x

        monkeypatch.setattr(MopSystem, "_solve", nudged)
        sys = nikishin_system(uniform(2, 3), uniform(0, 1)).sys
        with pytest.raises(PrecisionError, match=r"type I moments fail at n=\(3, 2\) at 256 bits"):
            sys.type1_record((3, 2))

    def test_the_lattice_fill_runs_no_type1_check(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the fill's type I is exact")

        monkeypatch.setattr(MopSystem, "_check_type1", refuse)
        sys = MopSystem((uniform(-2, -1), uniform(1, 2)))
        assert [len(a) for a in sys.type1_record((3, 2)).A] == [3, 2]


class TestPrecisionScaledRecurrenceCheck:
    """The recurrence check's bound is 2^(-prec/3), as the orthogonality check's."""

    @pytest.mark.parametrize("bits", [53, 64])
    def test_low_precision_solves_three_three(self, bits):
        low = MopSystem((uniform(-2, -1), uniform(1, 2)), bits).recurrence((3, 3))
        ref = MopSystem((uniform(-2, -1), uniform(1, 2)), 512).recurrence((3, 3))
        assert max(abs(float(g) - float(r)) for g, r in zip(low, ref)) < 1e-10

    def test_precision_error_names_the_bits(self):
        # rule-based moments go through the mp LU, which runs short of digits at 53 bits
        jacobi = MopSystem(jacobi_pair(), 53)
        with pytest.raises(PrecisionError, match="at 53 bits"):
            jacobi.recurrence((7, 0))
        assert jacobi.record((7, 0)).exact is None

    @pytest.mark.parametrize("bits", [53, 64])
    def test_exact_route_solves_ang_u_to_order_twelve(self, bits):
        # the exact route is right at any precision: every |n| <= 12 passes both checks
        low = MopSystem((uniform(-2, -1), uniform(1, 2)), bits)
        ref = MopSystem((uniform(-2, -1), uniform(1, 2)), 512)
        indices = [(n1, d - n1) for d in range(13) for n1 in range(d + 1)]
        assert len(indices) == 91
        for n in indices:
            assert max(abs(float(g) - float(r)) for g, r in zip(low.recurrence(n), ref.recurrence(n))) < 1e-10, n


class TestMultiIndex:
    """A multi-index has one nonnegative integer component per measure."""

    @pytest.mark.parametrize(
        "method, n",
        [("recurrence", (1, 2, 3)), ("recurrence_float", (1, 2, 7)), ("recurrence", (1.7, 2)), ("record", (1,))],
    )
    def test_malformed_index_raises(self, ang_sys, method, n):
        with pytest.raises(ValueError):
            getattr(ang_sys, method)(n)

    def test_numpy_components_key_the_same_record(self, ang_sys):
        assert ang_sys.record(np.array([2, 1])) is ang_sys.record((2, 1))

    def test_three_measure_identities(self):
        sys = MopSystem((uniform(-3, -2), uniform(-0.5, 0.5), uniform(2, 3)))
        for n in [(1, 1, 1), (2, 1, 1), (1, 2, 3)]:
            assert max(float(r) for r in consistency_residual(sys, n)) < 1e-60
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    assert float(type1_recursion_residual(sys, n, i, j)) < 1e-60

    def test_one_measure_gives_the_legendre_recurrence(self):
        sys = MopSystem((uniform(-1, 1),))
        with workprec(256):
            for n in range(21):
                a, b = sys.recurrence((n,))
                assert abs(b) < mpf(10) ** -60
                assert abs(a - mpf(n * n) / (4 * n * n - 1)) < mpf(10) ** -60


class TestLabels:
    """A measure's label is 1..d (0..d for zeros, where 0 names P_n); another value
    used to alias a measure through negative indexing, or to raise IndexError."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: interlacing_check(s, (2, 2), 0),
            lambda s: interlacing_check(s, (2, 2), 3),
            lambda s: s.zeros((3, 2), -1),
            lambda s: s.zeros((3, 2), 3),
            lambda s: s.moments(0, 4),
            lambda s: s.mass(3),
            lambda s: type1_recursion_residual(s, (2, 2), 0, 1),
            lambda s: type1_recursion_residual(s, (2, 2), 1, -1),
            lambda s: type1_interlacing_check(s, (3, 2), 0, 1),
            lambda s: type1_interlacing_check(s, (3, 2), 1, 3),
        ],
    )
    def test_label_out_of_range_raises(self, ang_sys, call):
        with pytest.raises(ValueError, match=r"label -?\d+ is not an integer in [01]\.\.2"):
            call(ang_sys)
        assert set(ang_sys.record((3, 2)).zeros) <= {0, 1, 2}  # nothing cached under another key

    def test_label_must_be_an_integer(self, ang_sys):
        with pytest.raises(ValueError, match="not an integer"):
            ang_sys.zeros((3, 2), 1.0)
        assert ang_sys.zeros((3, 2), np.int64(1)) == ang_sys.zeros((3, 2), 1)


class TestRecordExport:
    def test_json_fields(self, ang_sys):
        doc = ang_sys.record_json((1, 1))
        assert doc["n"] == [1, 1]
        assert doc["P"] == pytest.approx([-7 / 3, 0.0, 1.0])
        assert doc["a"] == pytest.approx([1 / 12, 1 / 12])
        assert set(doc) == {"n", "P", "A1", "A2", "a", "b", "h"}


exponent = st.floats(min_value=-0.5, max_value=2)
width = st.floats(min_value=0.2, max_value=2)


class TestJacobiWeightPairs:
    """Random Angelesco pairs: (x-a)^p (b-x)^q on two disjoint intervals."""

    @staticmethod
    def system(a1, w1, gap, w2, p1, q1, p2, q2):
        def measure(a, b, p, q):
            return Measure(pieces=(Piece(a, b, DensitySpec("jacobi_weight", p=p, q=q)),))

        b1, a2 = a1 + w1, a1 + w1 + gap
        return MopSystem((measure(a1, b1, p1, q1), measure(a2, a2 + w2, p2, q2)))

    @given(
        a1=st.floats(min_value=-3, max_value=0), w1=width, gap=st.floats(min_value=0.1, max_value=2), w2=width,
        p1=exponent, q1=exponent, p2=exponent, q2=exponent,
    )
    @settings(max_examples=20, deadline=None)
    def test_consistency_and_interlacing(self, a1, w1, gap, w2, p1, q1, p2, q2):
        sysm = self.system(a1, w1, gap, w2, p1, q1, p2, q2)
        for n1 in range(1, 5):
            for n2 in range(1, 6 - n1):
                assert max(float(r) for r in consistency_residual(sysm, (n1, n2))) < 1e-25
        for n1 in range(5):
            for n2 in range(5 - n1):
                for i in (1, 2):
                    assert interlacing_check(sysm, (n1, n2), i), f"fails at {(n1, n2)}, i={i}"
