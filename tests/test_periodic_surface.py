import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import oracles
import pytest
import scipy.linalg

from mop_trees import periodic_surface
from mop_trees.errors import BranchError, ConvergenceError, DomainError, InvalidSurfaceError
from mop_trees.periodic_surface import (
    assemble_Lc,
    chi0,
    chi_plus,
    dos,
    dos_total_mass,
    from_params,
    green_o,
    green_path,
    l2_norm_sq,
    l2_norm_sq_direct,
    m_function,
    m_plus,
    off_cut_subunit,
    on_cuts,
    ray_limit_estimate,
    sheet_products,
    truncated_green_o,
    unit_identity_residual,
    zmap,
)

SYM = from_params(0.25, 0.25, -1.0, 1.0)
ASYM = from_params(0.3, 0.1, 0.0, 2.0)
# symmetric, asymmetric, a narrow left cut, and a wide left cut
SURFACES = [SYM, ASYM, from_params(0.05, 0.4, -2.0, 1.5), from_params(1.0, 0.2, -3.0, 0.5)]


def _bits(fn, surf, x):
    """The exact bits of fn(surf, x), or the error it raises."""
    try:
        v = fn(surf, x)
    except (BranchError, DomainError) as exc:
        return type(exc).__name__, str(exc)
    return v.real.hex(), v.imag.hex()


def _counted(monkeypatch, name) -> list:
    """Replace periodic_surface.<name> by a wrapper that logs one entry per call."""
    calls = []
    inner = getattr(periodic_surface, name)
    monkeypatch.setattr(periodic_surface, name, lambda *args: calls.append(args) or inner(*args))
    return calls


class TestFromParams:
    def test_symmetric_cuts_mirror(self):
        (a1, b1), (a2, b2) = SYM.cuts
        assert (a1, b1) == pytest.approx((-b2, -a2), abs=1e-12)

    def test_shrinking_cuts_as_couplings_vanish(self):
        tiny = from_params(1e-5, 1e-5, -1.0, 1.0)
        (a1, b1), (a2, b2) = tiny.cuts
        assert abs(b1 - a1) < 0.02 and abs(a1 + 1) < 0.01
        assert abs(b2 - a2) < 0.02 and abs(b2 - 1) < 0.01

    def test_asymmetric_against_quartic_oracle(self):
        # oracle: roots of the explicit quartic via the companion matrix
        A1, A2, B1, B2 = 0.3, 0.1, 0.0, 2.0
        import numpy.polynomial.polynomial as npp

        p1 = npp.polypow([-B1, 1.0], 2)
        p2 = npp.polypow([-B2, 1.0], 2)
        quartic = npp.polysub(npp.polysub(npp.polymul(p1, p2), A1 * p2), A2 * p1)
        roots = sorted(np.roots(quartic[::-1]).real)
        assert list(ASYM.critical_points) == pytest.approx(roots, abs=1e-11)

    def test_invalid_rejected(self):
        with pytest.raises(InvalidSurfaceError):
            from_params(-0.1, 0.25, -1, 1)
        with pytest.raises(InvalidSurfaceError):
            from_params(0.25, 0.25, 1, 1)
        with pytest.raises(InvalidSurfaceError):
            from_params(5.0, 5.0, -0.1, 0.1)  # cuts would overlap

    @pytest.mark.parametrize("params", [(0.25, math.inf, -1, 1), (0.25, 0.25, -1, math.nan), (math.nan, 0.25, -1, 1)])
    def test_non_finite_rejected(self, params):
        # these reached numpy's root finder, which raised a ValueError naming no parameter
        with pytest.raises(InvalidSurfaceError, match="finite"):
            from_params(*params)


class TestBranchTracking:
    def test_zmap_arithmetic(self):
        assert zmap(SYM, 2.0) == pytest.approx(2 + 0.25 / 3 + 0.25 / 1)

    def test_roundtrip_point(self):
        assert chi0(SYM, zmap(SYM, 2.0)) == pytest.approx(2.0, abs=1e-13)

    def test_asymptotic_series(self):
        # chi0(z) = z - (A1 + A2)/z + O(1/z^2)
        for z in (10.0, 50.0):
            assert chi0(SYM, z).real == pytest.approx(z - 0.5 / z, abs=5 / z**2)

    def test_roundtrip_sample(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        count = 0
        while count < 1000:
            z = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
            if min(abs(z - b) for b in SYM.branch_points) < 1e-5:
                continue
            if z.imag == 0:
                continue
            worst = max(worst, abs(zmap(SYM, chi0(SYM, z)) - z))
            count += 1
        assert worst < 1e-12

    def test_conjugate_symmetry(self):
        z = 0.3 + 0.8j
        assert chi0(SYM, np.conj(z)) == pytest.approx(np.conj(chi0(SYM, z)))

    def test_branch_guard(self):
        with pytest.raises(BranchError):
            chi0(SYM, SYM.branch_points[0] + 1e-10)

    def test_fiber_completeness(self):
        from mop_trees.periodic_surface import _fiber

        for z in (0.3 + 0.8j, 2.5, -3.1 + 0.1j):
            for c in _fiber(SYM, complex(z)):
                assert zmap(SYM, c) == pytest.approx(complex(z), abs=1e-12)

    def test_upper_half_plane_maps_up(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            z = complex(rng.uniform(-3, 3), rng.uniform(1e-3, 2))
            assert chi0(SYM, z).imag > 0


class TestBoundaryLadder:
    @pytest.mark.parametrize("surf", SURFACES)
    def test_chi_plus_matches_oracle_bits(self, surf):
        # the batched ladder against the one-np.roots-per-level loop it replaced
        rng = np.random.default_rng(17)
        (a1, b1), (a2, b2) = surf.cuts
        xs = [*rng.uniform(a1, b1, 100), *rng.uniform(a2, b2, 100), *rng.uniform(a1 - 1, b2 + 1, 40)]
        for e in surf.branch_points:
            xs += [*(e + rng.uniform(-1e-8, 1e-8, 5)), *(e + rng.uniform(-1e-6, 1e-6, 5))]
        seen = set()
        for x in map(float, xs):
            got = _bits(chi_plus, surf, x)
            assert got == _bits(oracles.chi_plus, surf, x), x
            seen.add("BranchError" if got[0] == "BranchError" else "cut" if on_cuts(surf, x) else "off")
        assert seen == {"BranchError", "cut", "off"}

    def test_fiber_matches_oracle_bits(self):
        for surf in SURFACES:
            for z in (0.3 + 0.8j, 2.5 + 0j, -3.1 - 0.1j, 1e-12j):
                got = periodic_surface._fiber(surf, z)
                assert [c.hex() for r in got for c in (r.real, r.imag)] == [
                    c.hex() for r in oracles._fiber(surf, z) for c in (r.real, r.imag)
                ]


class TestOneFiberSolvePerCall:
    @pytest.mark.parametrize("z", [5.0, 0.5 + 2j])
    @pytest.mark.parametrize(
        "fn",
        [lambda s, z: l2_norm_sq(s, 1, z), lambda s, z: l2_norm_sq_direct(s, 2, z, 4), off_cut_subunit],
        ids=["l2_norm_sq", "l2_norm_sq_direct", "off_cut_subunit"],
    )
    def test_m_pair_from_one_solve(self, fn, z, monkeypatch):
        solves = _counted(monkeypatch, "_fiber")
        chi0(SYM, z)
        one = len(solves)
        solves.clear()
        fn(SYM, z)
        assert len(solves) == one

    @pytest.mark.parametrize("z", [5.0, 0.5 + 2j])
    def test_green_path_one_solve(self, z, monkeypatch):
        solves = _counted(monkeypatch, "_fiber")
        chi0(SYM, z)
        one = len(solves)
        solves.clear()
        green_path(SYM, 1, (1, 2, 1), z)
        assert len(solves) == one  # 1 at 0.5+2j, 2 at real z (the probe above the axis)

    def test_unit_identity_one_ladder(self, monkeypatch):
        x = 0.5 * sum(SYM.cuts[1])
        ladders = _counted(monkeypatch, "chi_plus")
        unit_identity_residual(SYM, x)
        assert len(ladders) == 1

    def test_values_unchanged(self):
        # the shared solve gives the bits of one m_function/m_plus call per l
        z, x = 0.5 + 2j, 0.5 * sum(ASYM.cuts[1])
        m1, m2 = (abs(m_function(ASYM, l, z)) ** 2 for l in (1, 2))
        assert off_cut_subunit(ASYM, z) == ASYM.A1 * m1 + ASYM.A2 * m2
        assert l2_norm_sq(ASYM, 2, z) == m2 / (1 - (ASYM.A1 * m1 + ASYM.A2 * m2))
        g1, g2 = (abs(m_plus(ASYM, l, x)) ** 2 for l in (1, 2))
        assert unit_identity_residual(ASYM, x) == abs(ASYM.A1 * g1 + ASYM.A2 * g2 - 1.0)
        for zz in (z, 5.0):
            path = m_function(ASYM, 2, zz)
            for t in (1, 2, 1):
                path *= -math.sqrt(ASYM.a_of(t)) * m_function(ASYM, t, zz)
            assert green_path(ASYM, 2, (1, 2, 1), zz) == path


class TestMFunctions:
    def test_resolvent_asymptote(self):
        # G z = -1 + O(B/z): the deviation is bounded by 2/|z| and decays linearly
        devs = []
        for T in (1e6, 1e8):
            z = complex(0, T)
            dev = abs(green_o(SYM, 1, z) * z + 1.0)
            assert dev < 2 / T
            devs.append(dev)
        assert devs[1] < devs[0] / 50

    def test_herglotz(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            z = complex(rng.uniform(-3, 3), rng.uniform(1e-2, 2))
            assert m_function(SYM, 1, z).imag > 0
            assert m_function(ASYM, 2, z).imag > 0

    def test_against_truncated_resolvent(self):
        for surf in (SYM, ASYM):
            for l in (1, 2):
                g = green_o(surf, l, 5.0)
                t = truncated_green_o(surf, l, 5.0, 30)
                assert abs(g - t) < 1e-8 * abs(g)

    def test_sheet_product_identity(self):
        for surf in (SYM, ASYM):
            for l in (1, 2):
                expected = (-1) ** l / (surf.a_of(l) * (surf.B2 - surf.B1))
                val = sheet_products(surf, l, 0.4 + 0.9j)
                assert abs(val - expected) < 1e-10


class TestGreenPaths:
    def test_root_is_m(self):
        assert green_path(SYM, 1, (), 5.0) == green_o(SYM, 1, 5.0)

    def test_single_step(self):
        m1 = m_function(SYM, 1, 5.0)
        ml = m_function(SYM, 2, 5.0)
        assert green_path(SYM, 2, (1,), 5.0) == pytest.approx(-math.sqrt(0.25) * m1 * ml)

    def test_l2_closed_vs_direct(self):
        for surf in (SYM, ASYM):
            for l in (1, 2):
                closed = l2_norm_sq(surf, l, 5.0)
                direct = l2_norm_sq_direct(surf, l, 5.0, 30)
                assert abs(closed - direct) < 1e-8 * closed

    def test_path_sum_matches_norm(self):
        # explicit 2-generation enumeration agrees with the generation DP
        z = 4.0 + 1.0j
        total = abs(green_path(SYM, 1, (), z)) ** 2
        for w1 in (1, 2):
            total += abs(green_path(SYM, 1, (w1,), z)) ** 2
            for w2 in (1, 2):
                total += abs(green_path(SYM, 1, (w1, w2), z)) ** 2
        assert total == pytest.approx(l2_norm_sq_direct(SYM, 1, z, 2), rel=1e-12)


class TestUnitIdentityAndDos:
    def test_identity_on_cuts(self):
        (a1, b1), (a2, b2) = SYM.cuts
        x = 0.5 * (a2 + b2)
        assert unit_identity_residual(SYM, x) < 1e-10

    def test_identity_sampled(self):
        for surf in (SYM, ASYM):
            for a, b in surf.cuts:
                for x in np.linspace(a + 1e-4, b - 1e-4, 25):
                    assert unit_identity_residual(surf, float(x)) < 1e-10

    def test_strictly_subunit_off_cuts(self):
        for z in (2.5, 1j, -4.0, 0.5 + 2j):
            if not any(a <= np.real(z) <= b and np.imag(z) == 0 for a, b in SYM.cuts):
                assert off_cut_subunit(SYM, z) < 1.0

    def test_dos_positive_and_normalized(self):
        for l in (1, 2):
            assert dos_total_mass(SYM, l) == pytest.approx(1.0, abs=1e-8)
        (a2, b2) = SYM.cuts[1]
        for x in np.linspace(a2 + 1e-3, b2 - 1e-3, 20):
            assert dos(SYM, 1, float(x)) >= 0

    @pytest.mark.parametrize("surf", SURFACES)
    def test_dos_total_mass_theta_rule(self, surf, monkeypatch):
        calls = _counted(monkeypatch, "dos")
        for l in (1, 2):
            calls.clear()
            assert abs(dos_total_mass(surf, l) - 1.0) < 1e-12
            for a, b in surf.cuts:
                on_cut = [x for _, _, x in calls if a <= x <= b]
                assert 0 < len(on_cut) <= 70
                assert a < min(on_cut) and max(on_cut) < b  # interior nodes only

    def test_dos_total_mass_unsettled_raises(self, monkeypatch):
        rng = np.random.default_rng(5)
        monkeypatch.setattr(periodic_surface, "dos", lambda surf, l, x: rng.uniform())
        with pytest.raises(ConvergenceError):
            dos_total_mass(SYM, 1)

    def test_dos_total_mass_loads_no_scipy(self):
        code = (
            "import sys; from mop_trees import periodic_surface as ps\n"
            "assert abs(ps.dos_total_mass(ps.from_params(0.3, 0.1, 0.0, 2.0), 2) - 1) < 1e-12\n"
            "sys.exit(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy') or None)"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0

    def test_dos_off_cuts_rejected(self):
        with pytest.raises(DomainError):
            dos(SYM, 1, 5.0)

    def test_square_root_edge_exponent(self):
        # density ~ C (x - a)^rho near a branch point with rho ~ 1/2
        a = SYM.cuts[1][0]
        hs = np.geomspace(1e-6, 1e-3, 8)
        vals = np.array([dos(SYM, 1, float(a + h)) for h in hs])
        rho, _ = np.polyfit(np.log(hs), np.log(vals), 1)
        assert 0.4 <= rho <= 0.6


class TestAssembleLc:
    def test_depth_zero(self):
        op = assemble_Lc(SYM, 1, 0)
        assert np.allclose(op.dense(), [[-1.0]])

    def test_spectrum_inside_cuts_envelope(self):
        op = assemble_Lc(SYM, 1, 10)
        w = scipy.linalg.eigvalsh(op.dense())
        lo = SYM.cuts[0][0]
        hi = SYM.cuts[1][1]
        eps = 0.05
        assert w.min() > lo - eps and w.max() < hi + eps

    def test_resolvent_matches_green(self):
        import scipy.sparse
        import scipy.sparse.linalg

        op = assemble_Lc(SYM, 1, 14)
        z = 5.0
        n = op.n_vertices
        A = op.sparse().astype(complex) - z * scipy.sparse.identity(n, format="csr")
        rhs = np.zeros(n, dtype=complex)
        rhs[0] = 1.0
        sol = scipy.sparse.linalg.spsolve(A.tocsc(), rhs)
        assert abs(sol[0] - green_o(SYM, 1, z)) < 1e-8

    def test_constant_coefficient_operator(self):
        # the root of type l reads B_l; no system and no kappa behind the periodic operator
        for l in (1, 2):
            op = assemble_Lc(SYM, l, 4)
            assert op.V[0] == SYM.b_of(l) and op.W[0] == 1.0
            assert not op.sigma.any() and op.sys is None and op.kappa is None

    def test_type_labels_alternate(self):
        op = assemble_Lc(SYM, 2, 3)
        t = op.tree
        for v in range(1, op.n_vertices):
            assert op.V[v] == SYM.b_of(t.iota[v])
            assert op.W[v] == SYM.a_of(t.iota[v])


class TestLabels:
    # every value other than 1 used to read as 2: assemble_Lc(SYM, 5, 2) built the l = 2 operator
    @pytest.mark.parametrize("bad", [0, 3, 5, -1])
    @pytest.mark.parametrize(
        "call",
        [
            lambda l: m_function(ASYM, l, 1j),
            lambda l: m_plus(ASYM, l, ASYM.cuts[0][0] + 0.01),
            lambda l: green_o(ASYM, l, 5.0),
            lambda l: dos(ASYM, l, ASYM.cuts[1][0] + 0.01),
            lambda l: green_path(ASYM, l, (1, 2), 1j),
            lambda l: green_path(ASYM, 1, (1, l), 1j),
            lambda l: l2_norm_sq(ASYM, l, 5.0),
            lambda l: l2_norm_sq_direct(ASYM, l, 5.0, 3),
            lambda l: truncated_green_o(ASYM, l, 5.0, 3),
            lambda l: sheet_products(ASYM, l, 1j),
            lambda l: assemble_Lc(ASYM, l, 2),
        ],
    )
    def test_label_out_of_range_raises(self, call, bad):
        with pytest.raises(ValueError, match=f"label {bad} is not an integer in 1..2"):
            call(bad)


class TestRayLimits:
    def test_symmetric_estimates(self, ang_u):
        rep = ray_limit_estimate(ang_u, 0.5, 8)
        assert rep.A_hat[0] == pytest.approx(rep.A_hat[1], abs=1e-20)
        assert rep.B_hat[0] == pytest.approx(-rep.B_hat[1], abs=1e-20)

    def test_differences_shrink(self, ang_u):
        rep = ray_limit_estimate(ang_u, 0.5, 8)
        d1 = [d[1] for d in rep.diagonal_diffs]
        assert all(x > y for x, y in zip(d1[:-1], d1[1:]))

    def test_fitted_cuts_near_hulls(self, ang_u):
        rep = ray_limit_estimate(ang_u, 0.5, 8)
        (a1, b1), (a2, b2) = rep.fitted_cuts
        assert -2.05 < a1 < b1 < -0.95
        assert 0.95 < a2 < b2 < 2.05

    def test_c_bounds(self, ang_u):
        with pytest.raises(DomainError):
            ray_limit_estimate(ang_u, 0.0, 4)

    @pytest.mark.parametrize("nmax", [0, -3])
    def test_nmax_below_one_raises(self, ang_u, nmax):
        # the ray used to stop at (1, 1) and report its coefficients as the limits
        with pytest.raises(ValueError, match=f"nmax must be at least 1, not {nmax}"):
            ray_limit_estimate(ang_u, 0.5, nmax)
