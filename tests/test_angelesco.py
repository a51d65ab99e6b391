from fractions import Fraction

import numpy as np
import pytest
from mpmath import workprec

from mop_trees import angelesco, mop_engine
from mop_trees.angelesco import (
    angelesco_system,
    d_n_xi,
    dual_pole_weight_residual,
    find_e_kappa,
    green,
    nu_ne_mass,
    psi_o,
    psi_tilde,
    psi_x,
    reference_measure,
    reference_measure_via_dual,
    rho_o,
    rho_sub,
    s_x,
    spectrum_envelope_check,
    type1_zero_set,
)
from mop_trees.errors import DomainError, EndpointError, OverlapError
from mop_trees.measures import DensitySpec, Measure, Piece, uniform
from mop_trees.mop_engine import KappaForm, second_kind_boundary, second_kind_boundary_mp
from mop_trees.tree_jacobi import assemble_subtree, assemble_truncated, lattice_values

from oracles import UniformPairOracle, find_e_kappa_sweep


class TestConstruction:
    def test_xi_is_gap_between_means(self, ang_u):
        assert ang_u.xi_mass == pytest.approx(3.0, abs=1e-12)

    @staticmethod
    def _xi_exact(d1, d2) -> float:
        # the gap between the means of two uniform pieces, correctly rounded
        return float(Fraction(d2[0]) / 2 + Fraction(d2[1]) / 2 - Fraction(d1[0]) / 2 - Fraction(d1[1]) / 2)

    def test_xi_is_correctly_rounded(self):
        # the double moment quotients gave 1.0275 here
        d1, d2 = (-2.791, -2.54), (-2.301, -0.975)
        assert angelesco_system(uniform(*d1), uniform(*d2)).xi_mass == self._xi_exact(d1, d2) == 1.0274999999999999

    def test_xi_is_correctly_rounded_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            a1, b1, a2, b2 = np.sort(np.round(rng.uniform(-3, 3, 4), 3)).tolist()
            asys = angelesco_system(uniform(a1, b1), uniform(a2, b2))
            assert asys.xi_mass == self._xi_exact((a1, b1), (a2, b2)), (a1, b1, a2, b2)

    def test_overlap_rejected(self):
        with pytest.raises(OverlapError):
            angelesco_system(uniform(0, 1), uniform(0.5, 2))

    def test_order_normalized(self):
        asys = angelesco_system(uniform(1, 2), uniform(-2, -1))
        assert asys.delta1 == (-2, -1)

    def test_all_edge_coefficients_positive(self, ang_u):
        op = assemble_truncated(ang_u.sys, (0.5, 0.5), 4)
        assert int(op.sigma.sum()) == 0


class TestKappaForm:
    def test_pure_kappa_has_no_zero(self, ang_u):
        assert find_e_kappa(ang_u, (1, 0)) is None
        assert find_e_kappa(ang_u, (0, 1)) is None

    def test_symmetric_zero_at_origin(self, ang_u):
        E = find_e_kappa(ang_u, (0.5, 0.5))
        assert E == pytest.approx(0.0, abs=1e-12)

    def test_signed_kappa_zero_confirmed_by_refined_quadrature(self, ang_u):
        E = find_e_kappa(ang_u, (2, -1))
        assert E is not None
        # oracle: 1e6-node trapezoid evaluation of the kappa form at E
        xs1 = np.linspace(-2, -1, 1_000_001)
        xs2 = np.linspace(1, 2, 1_000_001)
        val = -np.trapezoid(1 / (E - xs1), xs1) + 2 * np.trapezoid(1 / (E - xs2), xs2)
        assert abs(val) < 1e-9

    def test_kappa_form_swaps_components(self, ang_u):
        # kappa = e1 attaches the order-one form of the second measure
        z = 5.0
        direct = ang_u.sys.measures[1].markov(z) / ang_u.sys.measures[1].integrate(np.ones_like)
        assert KappaForm(ang_u.sys, (1, 0))(z) == pytest.approx(direct)

    @pytest.mark.parametrize("kappa", [(0.5, 0.5), (0.3, 0.7), (1, 0), (2, -1), (-0.5, 1.5)])
    def test_search_matches_reference_sweep(self, ang_u, kappa):
        assert find_e_kappa(ang_u, kappa) == find_e_kappa_sweep(ang_u, kappa)

    @pytest.mark.parametrize("kappa", [(0.5, 0.5), (2, -1)])
    def test_search_matches_reference_sweep_jacobi_weights(self, kappa):
        asys = angelesco_system(
            Measure(pieces=(Piece(-2, -0.5, DensitySpec("jacobi_weight", p=0.5, q=-0.5)),)),
            Measure(pieces=(Piece(1, 2.5, DensitySpec("jacobi_weight", p=1.5, q=0.5)),)),
        )
        E = find_e_kappa(asys, kappa)
        assert E is not None
        assert E == find_e_kappa_sweep(asys, kappa)

    def test_search_evaluates_form_at_most_70_times(self, monkeypatch):
        # a fresh system: the session pair may already hold the zero for kappa
        asys = angelesco_system(uniform(-2, -1), uniform(1, 2))
        points = []
        call = mop_engine.KappaForm.__call__
        monkeypatch.setattr(mop_engine.KappaForm, "__call__", lambda self, z, *a: points.append(z) or call(self, z, *a))
        for kappa in ((0.5, 0.5), (0.3, 0.7), (1.0, 0.0), (2.0, -1.0), (-0.5, 1.5)):
            points.clear()
            find_e_kappa(asys, kappa)
            assert 0 < len(points) <= 70, kappa

    def test_zero_search_runs_once_per_kappa(self, monkeypatch):
        asys = angelesco_system(uniform(-2, -1), uniform(1, 2))
        searches = []
        search = angelesco._search_e_kappa
        monkeypatch.setattr(angelesco, "_search_e_kappa", lambda a, k: searches.append(k) or search(a, k))
        rho_o(asys, (0.3, 0.7))
        psi_o(asys, (0.3, 0.7), 1.5, 3)
        green(asys, (0.3, 0.7), (1,), (), 5.0, depth=3)  # real z: the distance to the zero
        assert find_e_kappa(asys, [0.3, 0.7]) == find_e_kappa_sweep(asys, (0.3, 0.7))
        assert searches == [(0.3, 0.7)]

    def test_boundary_form_takes_host_boundary_value(self, ang_u):
        # with side, the measure holding x gives its boundary value, the other its plain transform
        x = 1.3
        w1, w2 = 0.7 / ang_u.sys.measures[0].integrate(np.ones_like), 0.3 / ang_u.sys.measures[1].integrate(np.ones_like)
        expected = w1 * ang_u.sys.measures[0].markov(x) + w2 * ang_u.sys.measures[1].markov_boundary(x, "-")
        assert KappaForm(ang_u.sys, (0.3, 0.7))(x, "-") == pytest.approx(expected, rel=1e-14)
        with pytest.raises(DomainError):
            KappaForm(ang_u.sys, (0.3, 0.7))(0.0, "+")

    def test_precisions_agree(self, ang_u):
        for z, side in ((3.5, None), (0.2 + 0.7j, None), (-1.4, "+")):
            mp_value = complex(KappaForm(ang_u.sys, (0.3, 0.7), 128)(z, side))
            assert mp_value == pytest.approx(KappaForm(ang_u.sys, (0.3, 0.7))(z, side), rel=1e-13)


class TestRhoO:
    def test_unit_mass_pure_kappa(self, ang_u):
        rep = rho_o(ang_u, (1, 0))
        assert rep.point_masses == []
        assert rep.total_mass() == pytest.approx(1.0, abs=1e-8)

    def test_unit_mass_with_point_mass(self, ang_u):
        rep = rho_o(ang_u, (0.5, 0.5))
        assert len(rep.point_masses) == 1
        E, mass = rep.point_masses[0]
        assert E == pytest.approx(0.0, abs=1e-10)
        assert 0 < mass < 1
        assert rep.total_mass() == pytest.approx(1.0, abs=1e-8)

    def test_kappa_must_sum_to_one(self, ang_u):
        # the measure has unit mass by construction; a kappa off the simplex
        # used to return a measure of mass 0.186
        with pytest.raises(ValueError):
            rho_o(ang_u, (2, 3))

    def test_first_moment_is_root_potential(self, ang_u):
        for kappa in ((1.0, 0.0), (0.5, 0.5)):
            rep = rho_o(ang_u, kappa)
            op = assemble_truncated(ang_u.sys, kappa, 1)
            assert rep.first_moment() == pytest.approx(op.V[0], abs=1e-8)

    def test_density_positive_and_guarded(self, ang_u):
        rep = rho_o(ang_u, (1, 0))
        assert rep(-1.5) > 0
        # the weight -(markov of mu2)/(Xi m1 m2) is positive left of the gap
        s_o = -(ang_u.sys.measures[1].markov(-1.5).real) / 3.0
        assert s_o > 0
        with pytest.raises(DomainError):
            rep(0.0)
        with pytest.raises(EndpointError):
            rep(-1.0 - 1e-9)

    def test_generalized_eigenfunction_residual(self, ang_u):
        x0 = -1.4
        vec = psi_o(ang_u, (0.5, 0.5), x0, 6)
        op = assemble_truncated(ang_u.sys, (0.5, 0.5), 6)
        resid = op.sparse() @ vec - x0 * vec
        interior = [v for v in range(op.n_vertices) if op.tree.children[v]]
        assert np.max(np.abs(resid[interior])) < 1e-8

    def test_point_mass_eigenfunction_is_square_summable_direction(self, ang_u):
        # at the gap eigenvalue the second-kind family is the eigenvector
        E = find_e_kappa(ang_u, (0.5, 0.5))
        vec = psi_o(ang_u, (0.5, 0.5), E, 6)
        op = assemble_truncated(ang_u.sys, (0.5, 0.5), 6)
        resid = op.sparse() @ vec - E * vec
        interior = [v for v in range(op.n_vertices) if op.tree.children[v]]
        assert np.max(np.abs(resid[interior])) < 1e-8
        assert vec[0] == 1.0  # normalized at the root, as on the intervals


class TestRootEigenfunction:
    @pytest.mark.parametrize("x", [-1.3, 1.6])
    @pytest.mark.parametrize("kappa", [(0.3, 0.7), (0.5, 0.5), (1.0, 0.0), (0.0, 1.0)])
    def test_expands_the_root_column_of_the_resolvent(self, ang_u, kappa, x):
        # psi_o(Y, x) = Im G(Y, o; x+i0) / Im G(o, o; x+i0) with
        # G(Y, o; z) = -(1/m_Y) L_Y(z) / L_kappa(z); the boundary values are taken
        # directly, so no offset from the axis enters.  The row identities alone
        # fix only the sum over the root's children, not this vector.
        sysm, prec = ang_u.sys, ang_u.sys.precision_bits
        op = assemble_truncated(sysm, kappa, 3)
        L_kappa = KappaForm(sysm, kappa, prec)(x, "+")
        with workprec(prec):
            ratio = lattice_values(
                lambda n: complex(second_kind_boundary_mp(sysm, n, x, "+") / L_kappa).imag, op.tree.points
            )
        expected = ratio / ratio[0] / op.m_weights()
        vec = psi_o(ang_u, kappa, x, 3)
        assert vec[0] == 1.0
        assert np.max(np.abs(vec - expected) / np.abs(expected)) < 1e-10

    def test_eigenfunctions_ignore_ambient_precision(self, ang_u):
        E = find_e_kappa(ang_u, (0.5, 0.5))
        seen = set()
        for ambient in (24, 53, 1024):
            with workprec(ambient):
                vecs = [psi_o(ang_u, (0.5, 0.5), x, 3) for x in (-1.45, 1.3, E)]
                vecs += [psi_x(ang_u, X, x, 3) for X in ((1,), (2, 1)) for x in (-1.45, 1.3)]
            seen.add(b"".join(v.tobytes() for v in vecs))
        assert len(seen) == 1


class TestGreen:
    def test_root_formula_vs_resolvent(self, ang_u):
        f, r = green(ang_u, (1, 0), (), (), 5.0, depth=12)
        assert abs(f - r) / abs(f) < 1e-6

    def test_depth_convergence(self, ang_u):
        f, r8 = green(ang_u, (1, 0), (), (), 5.0, depth=8)
        _, r12 = green(ang_u, (1, 0), (), (), 5.0, depth=12)
        assert abs(f - r12) <= abs(f - r8) + 1e-15

    def test_off_root_pair(self, ang_u):
        f, r = green(ang_u, (0.5, 0.5), (1, 2, 1), (1,), 5.0, depth=10)
        assert abs(f - r) / abs(f) < 1e-6

    def test_herglotz_sign(self, ang_u):
        z = 1.5 + 0.5j
        f, _ = green(ang_u, (1, 0), (1,), (1,), z, depth=4)
        assert f.imag * z.imag > 0

    def test_kappa_off_simplex_rejected_off_root(self, ang_u):
        with pytest.raises(ValueError):
            green(ang_u, (2, 3), (1, 2), (1,), 5.0)

    def test_y_outside_subtree_rejected(self, ang_u):
        with pytest.raises(DomainError):
            green(ang_u, (1, 0), (2,), (1,), 5.0)

    @pytest.mark.parametrize("word", [(3,), (1, 0), (2, -1)])
    def test_invalid_child_label_rejected(self, ang_u, word):
        # labels other than 1 and 2 used to be read as 2
        with pytest.raises(DomainError):
            green(ang_u, (1, 0), word, word, 5.0, depth=4)
        with pytest.raises(DomainError):
            s_x(ang_u, word, 1.5)
        with pytest.raises(DomainError):
            rho_sub(ang_u, word)

    def test_rho_sub_rejects_the_root(self, ang_u):
        # the root has no subtree factor: rho_sub(()) used to fail at its first value with a TypeError
        with pytest.raises(DomainError, match="root"):
            rho_sub(ang_u, ())

    def test_real_z_guard(self, ang_u):
        # real z must keep 0.1 from both intervals and, at the root only, from E_kappa
        kappa = (0.3, 0.7)
        E = find_e_kappa(ang_u, kappa)
        assert E == pytest.approx(0.5460060839898404, abs=1e-12)
        for z in (-1.5, 2.05, E + 0.05):
            with pytest.raises(DomainError):
                green(ang_u, kappa, (), (), z, depth=3)
        for z in (2.11, E + 0.2):
            green(ang_u, kappa, (), (), z, depth=3)
        for z in (E + 0.05, 0.85):
            green(ang_u, kappa, (1,), (1,), z, depth=3)
        with pytest.raises(DomainError):
            green(ang_u, kappa, (1,), (1,), 0.95, depth=3)

    def test_boundary_ratio_trend(self, ang_u):
        # Im G(Y,X)/Im G(X,X) at x + i*eps approaches the eigenfunction value
        X, Y = (1,), (1, 1)
        x0 = -1.45
        psi = psi_x(ang_u, X, x0, 4)
        yid = 1  # vertex (1,) below X in the subtree enumeration
        errs = []
        for eps in (1e-3, 1e-4):
            z = complex(x0, eps)
            gy = green(ang_u, (1, 0), Y, X, z, depth=14)[0]
            gx = green(ang_u, (1, 0), X, X, z, depth=14)[0]
            errs.append(abs(gy.imag / gx.imag - psi[yid]))
        assert errs[1] < errs[0]


class TestAtomsRejected:
    """Spectral measures do not derive the point masses that atoms induce, so
    they refuse measures with atoms instead of returning less than unit mass."""

    @pytest.fixture(scope="class")
    def atomic(self):
        mu2 = Measure(atoms=((3.0, 0.2),), pieces=(Piece(0.5, 2.0),))
        return angelesco_system(uniform(-2, -1), mu2)

    def test_rho_sub(self, atomic):
        for X in ((1,), (2,)):
            with pytest.raises(DomainError):
                rho_sub(atomic, X)

    def test_rho_o(self, atomic):
        with pytest.raises(DomainError):
            rho_o(atomic, (0.5, 0.5))


class TestHolesRejected:
    """A gap between two pieces is a hole in the support, as an atom is: the
    denominator of the spectral measure vanishes there, and the mass at that
    zero is not derived.  Without the guard this pair returned rho_o masses
    0.97856, 0.94891, 0.99439 and rho_sub masses 0.99446, 0.52647, 0.54260."""

    @pytest.fixture(scope="class")
    def holed(self):
        return angelesco_system(uniform(-2, -1), Measure(pieces=(Piece(1.0, 1.4), Piece(1.6, 2.0))))

    @pytest.mark.parametrize("kappa", [(0.5, 0.5), (0.3, 0.7), (1, 0)])
    def test_rho_o(self, holed, kappa):
        with pytest.raises(DomainError, match="mu2"):
            rho_o(holed, kappa)

    @pytest.mark.parametrize("X", [(1,), (2,), (1, 2)])
    def test_rho_sub(self, holed, X):
        with pytest.raises(DomainError, match="mu2"):
            rho_sub(holed, X)

    def test_first_measure_checked(self):
        asys = angelesco_system(Measure(pieces=(Piece(-2.0, -1.6), Piece(-1.4, -1.0))), uniform(1, 2))
        with pytest.raises(DomainError, match="mu1"):
            rho_o(asys, (0.5, 0.5))


class TestSubtreeSpectralData:
    def test_normalization_at_x(self, ang_u):
        vec = psi_x(ang_u, (1,), -1.3, 5)
        assert vec[0] == pytest.approx(1.0, abs=1e-14)

    def test_connection_factor_routes_agree(self, ang_u):
        # commutator route (extended precision) vs sign-definite quadrature route
        for X in ((1,), (2,), (1, 2)):
            for x in (-1.6, 1.37):
                _, _, direct = psi_tilde(ang_u, X, x, 1)
                assert s_x(ang_u, X, x) == pytest.approx(direct, rel=1e-9)

    def test_positive_on_grid(self, ang_u):
        words = [(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]
        for X in words:
            for x in np.linspace(-1.95, -1.05, 25):
                assert s_x(ang_u, X, float(x)) > 0
            for x in np.linspace(1.05, 1.95, 25):
                assert s_x(ang_u, X, float(x)) > 0

    def test_shared_measure_keeps_systems_apart(self):
        shared = uniform(-2, -1)
        a = angelesco_system(shared, uniform(0, 1))
        b = angelesco_system(shared, uniform(0, 2))
        s_x(a, (1,), -1.5)
        fresh = s_x(angelesco_system(uniform(-2, -1), uniform(0, 2)), (1,), -1.5)
        assert fresh == pytest.approx(24 / 13, rel=1e-12)
        assert s_x(b, (1,), -1.5) == fresh

    def test_subtree_measure_unit_mass(self, ang_u):
        rep = rho_sub(ang_u, (1,))
        assert rep.total_mass() == pytest.approx(1.0, abs=1e-8)

    def test_subtree_eigenfunction_residual(self, ang_u):
        x0 = 1.37
        vec = psi_x(ang_u, (2, 1), x0, 6)
        op = assemble_subtree(ang_u.sys, (2, 2), 1, 6)
        resid = op.sparse() @ vec - x0 * vec
        interior = [v for v in range(op.n_vertices) if op.tree.children[v]]
        assert np.max(np.abs(resid[interior])) < 1e-8


_CLOSURE_ZS = np.array([0.4 + 1.3j, -1.5 + 0.2j, 3 + 1j])

# point_mass_at takes L_kappa'(E) by a central difference with h = 1e-6; on the
# skew pair E lies 0.023 and 1.9e-4 from mu2's left end, and the masses come out
# 4.9e-10 and 9.3e-6 (relative) from the residue of G at E
_POINT_MASS_H = pytest.mark.xfail(raises=AssertionError, strict=True, reason="O(h^2) error of point_mass_at near an endpoint")


@pytest.fixture(scope="module")
def ang_skew():
    """An asymmetric single-piece uniform pair (the pinned pair of the Xi tests)."""
    return angelesco_system(uniform(-2.791, -2.54), uniform(-2.301, -0.975))


def _stieltjes(rep, zs):
    """``int drho(t)/(t - z) + sum m/(E - z)`` at each z; the density by scipy's tanh-sinh rule.

    The rule takes one batched density call per level.  It stops 1e-13 of the
    length short of each endpoint, where the boundary values are not defined;
    the dropped tail is below 1e-13 of the mass.
    """
    from scipy.integrate import tanhsinh

    zz = np.concatenate([zs, zs])
    real = np.arange(len(zz)) < len(zs)

    def f(x, z, real):
        v = rep.density(x.ravel()).reshape(x.shape) / (x - z)
        return np.where(real, v.real, v.imag)

    total = np.array([sum(m / (E - z) for E, m in rep.point_masses) for z in zs], dtype=complex)
    for a, b in rep.intervals:
        cut = 1e-13 * (b - a)
        res = tanhsinh(f, a + cut, b - cut, args=(zz, real), rtol=1e-13, atol=0)
        assert res.success.all()
        total += res.integral[: len(zs)] + 1j * res.integral[len(zs) :]
    return total


class TestClosure:
    """The Stieltjes transforms of rho_o and rho_sub are the closed-form G(o,o; z)
    and G(X,X; z) of ``green`` (its convention: ``int drho(t)/(t - z)``).  At the
    root this checks Xi's place in the scale of rho_o, which the unit-mass tests
    see only as z -> infinity."""

    @pytest.mark.parametrize(
        "pair, kappa",
        [
            ("ang_u", (0.5, 0.5)),
            ("ang_u", (0.3, 0.7)),
            ("ang_u", (1, 0)),
            pytest.param("ang_skew", (0.5, 0.5), marks=_POINT_MASS_H),
            pytest.param("ang_skew", (0.3, 0.7), marks=_POINT_MASS_H),
            ("ang_skew", (1, 0)),
        ],
    )
    def test_root(self, request, pair, kappa):
        asys = request.getfixturevalue(pair)
        expected = [green(asys, kappa, (), (), z, depth=1)[0] for z in _CLOSURE_ZS]
        assert _stieltjes(rho_o(asys, kappa), _CLOSURE_ZS) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("pair", ["ang_u", "ang_skew"])
    @pytest.mark.parametrize("X", [(1,), (2,), (1, 2)])
    def test_subtree(self, request, pair, X):
        asys = request.getfixturevalue(pair)
        # below the root kappa does not enter G(X,X; z)
        expected = [green(asys, (0.5, 0.5), X, X, z, depth=1)[0] for z in _CLOSURE_ZS]
        assert _stieltjes(rho_sub(asys, X), _CLOSURE_ZS) == pytest.approx(expected, rel=1e-10)


class TestReferenceMeasure:
    def test_nonnegative(self, ang_u):
        for x in (-1.8, -1.2, 1.3, 1.9):
            assert reference_measure(ang_u, (2, 2), x) >= 0

    def test_xi_independence(self, ang_u):
        for x in (-1.55, 1.44):
            a = reference_measure_via_dual(ang_u, (2, 2), x, -0.3)
            b = reference_measure_via_dual(ang_u, (2, 2), x, 0.4)
            assert abs(a - b) < 1e-9

    def test_dual_route_matches_direct(self, ang_u):
        for x in (-1.55, 1.44):
            a = reference_measure_via_dual(ang_u, (2, 2), x, 0.1)
            d = reference_measure(ang_u, (2, 2), x)
            assert a == pytest.approx(d, rel=1e-8)

    def test_dual_route_evaluates_the_type_i_polynomials_once(self, ang_u, monkeypatch):
        # S_{n,xi} reads (A0, A1, A2) once; D_{n,xi} is its own mp polynomial
        calls = []
        values = ang_u.sys.type1_values
        monkeypatch.setattr(ang_u.sys, "type1_values", lambda n, z: calls.append(z) or values(n, z))
        reference_measure_via_dual(ang_u, (2, 2), 1.44, 0.1)
        assert calls == [1.44]

    def test_d_n_xi_polynomial_is_formed_once(self, monkeypatch):
        asys = angelesco_system(uniform(-2, -1), uniform(1, 2))
        asys.sys.type1_record((3, 2))
        products = []
        pmul = angelesco.P.pmul
        monkeypatch.setattr(angelesco.P, "pmul", lambda a, b: products.append(1) or pmul(a, b))
        values = {d_n_xi(asys, (3, 2), 0.2, x) for x in [-1.5] * 20}
        assert len(values) == 1 and len(products) == 2  # A1 A2, then (x - xi)

    @pytest.mark.parametrize("pair, xis", [("ang_u", (-0.3, 0.4)), ("ang_skew", (-2.5, -2.4))])
    def test_d_n_xi_is_correctly_rounded(self, pair, xis, request):
        # one mp polynomial rounded once; the product of the rounded A_n^{(1)}(x),
        # A_n^{(2)}(x) and x - xi missed the last bits of about half of these values
        asys = request.getfixturevalue(pair)
        oracle = UniformPairOracle(asys.delta1, asys.delta2)
        xs = [float(x) for a, b in (asys.delta1, asys.delta2) for x in np.linspace(a, b, 11)[1:-1]]
        for n in [(2, 2), (3, 2), (4, 4), (6, 5)]:
            A1, A2 = oracle.type1(n)
            for xi in xis:
                exact = []
                for x in map(Fraction, xs):
                    a1, a2 = (sum(c * x**k for k, c in enumerate(A)) for A in (A1, A2))
                    exact.append(float((-1) ** n[1] * (x - Fraction(xi)) * a1 * a2))
                assert [d_n_xi(asys, n, xi, x) for x in xs] == exact, (n, xi)

    def test_xi_outside_gap_rejected(self, ang_u):
        with pytest.raises(DomainError):
            reference_measure_via_dual(ang_u, (2, 2), -1.5, 1.5)

    def test_pole_weight_identity(self, ang_u):
        zs = type1_zero_set(ang_u, (2, 2))
        assert len(zs) == 2
        for E in zs:
            assert dual_pole_weight_residual(ang_u, (2, 2), E, 0.1) < 1e-8

    def test_nu_mass_positive(self, ang_u):
        for E in type1_zero_set(ang_u, (2, 2)):
            assert nu_ne_mass(ang_u, (2, 2), E, 0.1) > 0

    def test_dual_route_ignores_ambient_precision(self, ang_u):
        zeros = type1_zero_set(ang_u, (2, 2))
        points = [(x, xi) for x in (-1.55, 1.44) for xi in (-0.3, 0.4)]
        seen = set()
        for ambient in (24, 53, 1024):
            with workprec(ambient):
                dual = [reference_measure_via_dual(ang_u, (2, 2), x, xi) for x, xi in points]
                seen.add(tuple(dual + [nu_ne_mass(ang_u, (2, 2), E, 0.1) for E in zeros]))
        assert len(seen) == 1

    def test_form_nonvanishing_on_real_line(self, ang_u):
        # |L_n| stays away from zero on a grid crossing both intervals and the gap
        for n in [(1, 1), (2, 2)]:
            vals = []
            for x in np.linspace(-2.5, 2.5, 101):
                x = float(x)
                inside = -2 < x < -1 or 1 < x < 2
                if inside:
                    vals.append(abs(second_kind_boundary(ang_u.sys, n, x, "+")))
                elif not (-2.05 < x < -0.95 or 0.95 < x < 2.05):
                    from mop_trees.mop_engine import second_kind

                    vals.append(abs(complex(second_kind(ang_u.sys, n, x))))
            assert min(vals) > 1e-4

    def test_sign_constancy_on_outer_rays(self, ang_u):
        # the gap-shifted multiplier times the form keeps one sign per ray
        from mop_trees.angelesco import d_n_xi
        from mop_trees.mop_engine import second_kind

        n = (2, 2)
        left = [
            d_n_xi(ang_u, n, 0.1, x) * complex(second_kind(ang_u.sys, n, x)).real
            for x in np.linspace(-4, -2.2, 12)
        ]
        right = [
            d_n_xi(ang_u, n, 0.1, x) * complex(second_kind(ang_u.sys, n, x)).real
            for x in np.linspace(2.2, 4, 12)
        ]
        assert all(v < 0 for v in left)
        assert all(v > 0 for v in right)


class TestEnvelope:
    def test_distances_shrink(self, ang_u):
        rep = spectrum_envelope_check(ang_u, (1, 0), [4, 6, 8])
        fills = [d["fill_distance"] for d in rep["depths"]]
        assert fills[0] > fills[1] > fills[2]
        assert all(d["max_outside"] < 1e-9 for d in rep["depths"])

    def test_gap_zero_attracts_eigenvalue(self, ang_u):
        rep = spectrum_envelope_check(ang_u, (0.5, 0.5), [6])
        E = rep["kappa_zero"]
        op = assemble_truncated(ang_u.sys, (0.5, 0.5), 6)
        w = np.linalg.eigvalsh(op.dense())
        assert np.min(np.abs(w - E)) < 0.05

    def test_range_bound(self, ang_u):
        op = assemble_truncated(ang_u.sys, (1, 0), 8)
        w = np.linalg.eigvalsh(op.dense())
        assert w.min() > -2 - 0.5 and w.max() < 2 + 0.5
