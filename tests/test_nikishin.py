import json
import math
from pathlib import Path

import numpy as np
import pytest

from mop_trees import cli
from mop_trees.errors import OverlapError, SeriesError
from mop_trees.measures import DensitySpec, Measure, Piece, uniform
from mop_trees.mop_engine import MopSystem
from mop_trees.nikishin import (
    diagonal_blowup_scan,
    dual_hankel_min_eig,
    dual_moments,
    h_sign_check,
    nikishin_system,
    second_kind_tau_integral,
    sign_pattern_check,
)


class TestConstruction:
    def test_weight_is_log_ratio(self, nik_u):
        # markov of uniform [0,1] at x is log(x/(x-1))
        x = 2.5
        assert nik_u.mu2.density_at(x) == pytest.approx(math.log(x / (x - 1)), rel=1e-12)

    def test_weight_positive_on_host(self, nik_u):
        for x in np.linspace(2.01, 2.99, 20):
            assert nik_u.mu2.density_at(float(x)) > 0

    def test_order_violation_rejected(self):
        with pytest.raises(OverlapError):
            nikishin_system(uniform(0, 1), uniform(2, 3))


class TestDualMoments:
    def test_negative_mass_rejected(self):
        tau = Measure(pieces=(Piece(0.0, 1.0, DensitySpec("jacobi_weight", poly=(-1.0,))),))
        with pytest.raises(SeriesError, match="tau must have positive mass"):
            dual_moments(tau, 3)

    def test_atom_gives_zero_measure(self):
        moms = dual_moments(Measure(atoms=((0.0, 1.0),)), 5)
        assert moms == pytest.approx([0.0] * 5, abs=1e-40)

    def test_uniform_mass_is_variance(self):
        # expansion identity: m0(dual) = m2/m0 - (m1/m0)^2 = 1/12 for uniform [0,1]
        moms = dual_moments(uniform(0, 1), 6)
        assert moms[0] == pytest.approx(1 / 12, abs=1e-15)

    def test_hankel_psd(self):
        assert dual_hankel_min_eig(uniform(0, 1), 3) > 0
        assert dual_hankel_min_eig(uniform(0, 1), 5) > -1e-15

    def test_dual_markov_identity_numerically(self):
        # 1/markov(z) - z/m0 + m1/m0^2 = -(markov of the dual) at a far point
        tau = uniform(0, 1)
        moms = dual_moments(tau, 25)
        z = 6.0
        m0, m1 = (tau.integrate(lambda x: x**k) for k in range(2))
        lhs = 1 / tau.markov(z).real - z / m0 + m1 / m0**2
        rhs = -sum(m * z ** (-l - 1) for l, m in enumerate(moms))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_shifted_interval(self):
        # dual mass is the variance of the normalized measure over the mass
        tau = uniform(3, 5)
        moms = dual_moments(tau, 3)
        m0, m1, m2 = (tau.integrate(lambda x: x**k) for k in range(3))
        assert moms[0] == pytest.approx((m2 / m0 - (m1 / m0) ** 2) / m0, rel=1e-12)


class TestSignPatterns:
    def test_small_grid_passes(self, nik_u):
        rep = sign_pattern_check(nik_u, 3)
        assert rep["passed"] and rep["violations"] == []

    def test_specific_entries(self, nik_u):
        a1, a2 = rep = nik_u.sys.recurrence((2, 1))[:2]
        assert float(a1) > 0 and float(a2) < 0  # below the diagonal: +, -
        a1, a2 = nik_u.sys.recurrence((1, 2))[:2]
        assert float(a1) < 0 and float(a2) > 0  # above the diagonal: -, +

    def test_marginals_positive(self, nik_u):
        for n in range(1, 5):
            assert float(nik_u.sys.recurrence((n, 0))[0]) > 0
            assert float(nik_u.sys.recurrence((0, n))[1]) > 0

    def test_h_signs_small_grid(self, nik_u):
        rep = h_sign_check(nik_u, 3)
        assert rep["passed"]

    def test_h_specific(self, nik_u):
        assert float(nik_u.sys.h_values((2, 2))[0]) > 0          # n2 <= n1+1
        assert float(nik_u.sys.h_values((1, 3))[0]) < 0          # sign (-1)^{|n|+1} = -1
        assert float(nik_u.sys.h_values((3, 1))[1]) > 0          # sign (-1)^{|n|} = +1


class TestFailVerdict:
    """One flipped a_{(1,2),1} and one flipped h_{(2,2),2}: each check names its entry,
    and ``nikishin signs`` prints FAIL and exits 2."""

    NIK_U = str(Path(__file__).resolve().parents[1] / "demos" / "systems" / "nik_u.json")

    @pytest.fixture
    def flipped(self, monkeypatch):
        nsys = nikishin_system(uniform(2, 3), uniform(0, 1))  # the system of nik_u.json
        a, h = float(nsys.sys.recurrence((1, 2))[0]), float(nsys.sys.h_values((2, 2))[1])
        recurrence, h_values = MopSystem.recurrence, MopSystem.h_values

        def flip_a(sys, n):
            row = recurrence(sys, n)
            return (-row[0], *row[1:]) if tuple(n) == (1, 2) else row

        def flip_h(sys, n):
            hs = h_values(sys, n)
            return (hs[0], -hs[1]) if tuple(n) == (2, 2) else hs

        monkeypatch.setattr(MopSystem, "recurrence", flip_a)
        monkeypatch.setattr(MopSystem, "h_values", flip_h)
        return nsys, [{"n": [1, 2], "j": 1, "a": -a}], [{"n": [2, 2], "j": 2, "h": -h}]

    def test_checks_name_the_flipped_entries(self, flipped):
        nsys, a_violations, h_violations = flipped
        rep, hrep = sign_pattern_check(nsys, 2), h_sign_check(nsys, 2)
        assert a_violations[0]["a"] > 0 and h_violations[0]["h"] < 0
        assert rep["violations"] == a_violations and not rep["passed"]
        assert hrep["violations"] == h_violations and not hrep["passed"]

    def test_cli_exits_two(self, flipped, capsys):
        _, a_violations, h_violations = flipped
        code = cli.main(["nikishin", "signs", "--system", self.NIK_U, "--nmax", "2"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2 and doc["verdict"] == "FAIL"
        assert doc["sign_pattern"] == {"passed": False, "violations": a_violations}
        assert doc["h_signs"] == {"passed": False, "violations": h_violations}


class TestBlowup:
    def test_monotone_diagonal_trend(self, nik_u):
        scan = diagonal_blowup_scan(nik_u, 4, region_order=9)
        a2 = [d["a2"] for d in scan["diagonal"]]
        a1 = [d["a1"] for d in scan["diagonal"]]
        assert all(x < y for x, y in zip(a2[:-1], a2[1:]))
        assert all(x > y for x, y in zip(a1[:-1], a1[1:]))
        assert all(r["r2"] > 1 for r in scan["growth_ratios"])

    def test_offdiagonal_bounded(self, nik_u):
        scan = diagonal_blowup_scan(nik_u, 3, region_order=9)
        by_order = scan["offdiag_max_by_order"]
        assert max(by_order.values()) < 1.0
        # flat in the order: later maxima do not exceed a small multiple of earlier ones
        assert by_order[9] < 5 * by_order[5]

    def test_b_coefficients_bounded(self, nik_u):
        vals = []
        for n1 in range(0, 8):
            for n2 in range(0, 8 - n1):
                _, _, b1, b2 = nik_u.sys.recurrence((n1, n2))
                vals.extend([abs(float(b1)), abs(float(b2))])
        assert max(vals) < 4.0  # inside the hull scale, uniformly in n


class TestSecondKindOrthogonality:
    @pytest.mark.parametrize("n", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_vanishing_range(self, nik_u, n):
        for k in range(min(n[0], n[1] - 1) + 1):
            assert abs(second_kind_tau_integral(nik_u, n, k)) < 1e-8

    def test_equality_case_off_by_one_diagonal(self, nik_u):
        # |tau| h1 - h2 equals the first non-vanishing integral when n2 = n1 + 1
        for n in [(1, 2), (2, 3)]:
            h1, h2 = (float(v) for v in nik_u.sys.h_values(n))
            lhs = nik_u.tau.integrate(np.ones_like) * h1 - h2
            rhs = second_kind_tau_integral(nik_u, n, n[1])
            assert lhs == pytest.approx(rhs, abs=1e-8)
