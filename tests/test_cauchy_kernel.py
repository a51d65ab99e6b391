"""The prepared Cauchy kernel returns the bits of the per-call kernel it replaced.

``oracles.cauchy`` is that per-call kernel, kept verbatim: every call resolves
its node tables, weights and pieces again, and its mp sums run through
``mp.fsum`` on mpf objects.  Doubles are compared by ``hex()``, mp values by
their raw ``_mpf_``/``_mpc_`` tuples.
"""

import math

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf, workprec

from mop_trees import angelesco, measures
from mop_trees.angelesco import _bridge_weights, _path_data, angelesco_system, green, psi_o, rho_o, rho_sub
from mop_trees.errors import DomainError
from mop_trees.measures import DensitySpec, Measure, Piece, cauchy, kernel, uniform
from mop_trees.nikishin import nikishin_system
from mop_trees.tree_jacobi import assemble_truncated, eigenfunction_residual


def bits(v):
    if hasattr(v, "_mpc_"):
        return v._mpc_
    if hasattr(v, "_mpf_"):
        return v._mpf_
    v = complex(v)
    return v.real.hex(), v.imag.hex()


def same(mu, z, **kw):
    assert bits(cauchy(mu, z, **kw)) == bits(oracles.cauchy(mu, z, **kw))


NIK = nikishin_system(uniform(2, 3), uniform(0, 1))
JACOBI = Measure(pieces=(Piece(-1.0, 0.5, DensitySpec("jacobi_weight", p=0.5, q=-0.3, poly=(1.0, 0.4))),))
ATOMS = Measure(atoms=((3.0, 0.25),), pieces=(Piece(-1.0, 1.0),))
MEASURES = {"uniform": uniform(-2, -1), "jacobi": JACOBI, "markov_weighted": NIK.mu2, "atoms": ATOMS}
# an mp weight (a type II polynomial) and a float one
WEIGHTS = {"none": (), "mp": NIK.sys.record((2, 3)).P, "float": (0.5, -1.25, 2.0)}
# near uniform(-2, -1) with both legs of the distance nonzero: numpy's hypot of
# them differs from math.hypot, and the distance sets the panel cuts
TWO_LEG = complex(-0.9980429111914063, 0.0018460682099364551)


def two_leg(p):
    """TWO_LEG shifted from the right end of uniform(-2, -1) to the right end of piece p."""
    return complex(p.b + (TWO_LEG.real + 1.0), TWO_LEG.imag)


@pytest.mark.parametrize("weight", list(WEIGHTS), ids=list(WEIGHTS))
@pytest.mark.parametrize("name", list(MEASURES), ids=list(MEASURES))
class TestDoubleBits:
    def test_real_off_support(self, name, weight):
        mu = MEASURES[name]
        lo, hi = mu.hull()
        for z in (lo - 2.5, hi + 0.7, hi + 40.0):
            same(mu, z, weight=WEIGHTS[weight])

    def test_complex(self, name, weight):
        lo, hi = MEASURES[name].hull()
        for z in (complex(0.5 * (lo + hi), 0.8), complex(lo - 1, -0.3), complex(hi, 2.0)):
            same(MEASURES[name], z, weight=WEIGHTS[weight])

    def test_boundary(self, name, weight):
        p = MEASURES[name].pieces[0]
        for t, side in ((0.3, "+"), (0.61, "-"), (0.999, "+")):
            same(MEASURES[name], p.a + t * (p.b - p.a), weight=WEIGHTS[weight], side=side)

    def test_near_panels(self, name, weight):
        p = MEASURES[name].pieces[0]
        for z in (p.b + 1e-9, p.a - 3e-4, complex(0.5 * (p.a + p.b), 1e-5), two_leg(p)):
            same(MEASURES[name], z, weight=WEIGHTS[weight])


# measures whose mp Markov function (g = 1) off the support is the closed
# form of its uniform pieces, not the oracle's node sums (TestUniformClosedForm)
CLOSED = ("uniform", "atoms")


@pytest.mark.parametrize("prec", [53, 256])
@pytest.mark.parametrize("name", list(MEASURES), ids=list(MEASURES))
class TestMpBits:
    def test_real(self, name, prec):
        lo, hi = MEASURES[name].hull()
        for z in (lo - 2.5, mpf(hi) + mpf(2) ** -20, hi + 1e-7):
            if name not in CLOSED:
                same(MEASURES[name], z, prec=prec)
            same(MEASURES[name], z, weight=WEIGHTS["mp"], prec=prec)

    def test_complex(self, name, prec):
        lo, hi = MEASURES[name].hull()
        for z in (complex(0.5 * (lo + hi), 0.8), mpc(lo - 1, -0.3), two_leg(MEASURES[name].pieces[0])):
            if name not in CLOSED:
                same(MEASURES[name], z, prec=prec)
            same(MEASURES[name], z, weight=WEIGHTS["mp"], prec=prec)

    def test_boundary(self, name, prec):
        # the host piece keeps its bits at g = 1 too: the log at prec plus a node sum that is exactly 0
        p = MEASURES[name].pieces[0]
        for t, side in ((0.3, "+"), (0.61, "-")):
            same(MEASURES[name], p.a + t * (p.b - p.a), side=side, prec=prec)
            same(MEASURES[name], mpf(p.a + t * (p.b - p.a)), side=side, weight=WEIGHTS["mp"], prec=prec)


def ulps(got, ref, prec):
    """|got - ref| per real part, in units of the last place of ``prec``-bit got."""
    parts = [(got.real, ref.real), (got.imag, ref.imag)] if hasattr(got, "_mpc_") else [(got, ref)]
    out = []
    for g, r in parts:
        _, _, exp, bc = g._mpf_
        with workprec(1200):
            out.append(float(abs(g - r) / mpf(2) ** (exp + bc - prec)))
    return out


class TestUniformClosedForm:
    """The mp Markov function of uniform pieces and atoms, each piece as
    log((z - a)/(z - b)) at prec + 16 bits, lands within 1 ulp of the exact
    value; the 200-node sums and order-32 panels it replaced lost up to 34
    of 77 digits near the support at 256 bits."""

    MU = Measure(atoms=((3.5, 0.25),), pieces=(Piece(-2.0, -1.0), Piece(1.0, 2.0)))
    # the last two are far: there the quotient (z - a)/(z - b) is 1 + 1e-6, and its log needs log1p
    POINTS = (2 + 1e-7, mpf(2) + mpf(2) ** -20, 1 - 1e-9, -2.5, 5.0, 0.3 + 0.8j, 1.5 + 1e-5j, -3 - 0.3j, 1e6, 3e5 - 4e5j)

    @pytest.mark.parametrize("prec", [53, 256])
    def test_within_one_ulp_of_the_exact_value(self, prec):
        for z in self.POINTS:
            got = self.MU.markov_mp(z, prec)
            with workprec(1100):  # z is a double, exact at prec: the reference at that z
                zq = mpc(z) if isinstance(z, complex) else mpf(z)
                ref = mpf(0.25) / (zq - mpf(3.5)) + mp.log((zq + 2) / (zq + 1)) + mp.log((zq - 1) / (zq - 2))
            assert type(got) is (mpc if isinstance(z, complex) else mpf)
            assert max(ulps(got, ref, prec)) <= 1, z

    def test_no_mp_rule_is_built(self, monkeypatch):
        built = []
        monkeypatch.setattr(measures, "map_rule_mp", lambda *a: built.append(a) or oracles.map_rule_mp(*a))
        mu = Measure(atoms=self.MU.atoms, pieces=self.MU.pieces)
        for z in self.POINTS + (0.6,):
            mu.markov_mp(z, 256)
        mu.markov_boundary_mp(1.25, "+", 256)
        assert built == []


def test_markov_weighted_table_is_the_scalar_loop():
    # the double density column of a Nikishin mu2 takes the Markov values of
    # tau through one array call, with the per-call oracle's bits at each node
    p = NIK.mu2.pieces[0]
    xs, _ = measures.map_rule(p.a, p.b, 200)
    expected = np.array([oracles.cauchy(NIK.tau, float(t)).real for t in xs])
    assert [v.hex() for v in p.density(xs, p.a, p.b)] == [v.hex() for v in expected]


def parts_oracle(mu, z, weight):
    """``oracles.cauchy`` summed over the atoms and then each piece of mu, each
    as a measure of its own: the kernel panels a piece by its own distance to
    z, the oracle by the distance to the whole support (near an atom of
    ``MEASURES["atoms"]`` it would panel the far piece)."""
    parts = [Measure(atoms=mu.atoms)] if mu.atoms else []
    parts += [Measure(pieces=(p,), quad_order=mu.quad_order) for p in mu.pieces]
    return sum([oracles.cauchy(part, z, weight) for part in parts])


class TestArrayZ:
    @given(
        zs=st.lists(
            st.tuples(st.floats(-6, 6), st.sampled_from([0.0, 1e-6, 0.3, -2.0])), min_size=1, max_size=40
        ),
        name=st.sampled_from(["uniform", "jacobi", "atoms"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_scalar_calls(self, zs, name):
        mu = MEASURES[name]
        z = np.array([complex(x, y) for x, y in zs if mu.support_distance(complex(x, y)) > 1e-9])
        if not len(z):
            return
        rows = cauchy(mu, z, WEIGHTS["float"])
        assert [bits(r) for r in rows] == [bits(parts_oracle(mu, complex(v), WEIGHTS["float"])) for v in z]

    def test_real_array_rows(self):
        z = np.linspace(-6, -2.2, 57)
        rows = cauchy(MEASURES["uniform"], z)
        assert rows.dtype == complex and not rows.imag.any()
        assert [bits(r) for r in rows] == [bits(oracles.cauchy(MEASURES["uniform"], float(v))) for v in z]

    def test_array_needs_double_and_real_points_for_side(self):
        with pytest.raises(ValueError):
            cauchy(uniform(0, 1), np.array([2.0]), prec=64)
        with pytest.raises(ValueError):
            cauchy(uniform(0, 1), np.array([0.5 + 0j]), side="+")
        with pytest.raises(ValueError):
            cauchy(uniform(0, 1), np.array([[2.0]]))

    def test_real_array_boundary_rows(self):
        z = np.linspace(-0.99, 0.49, 57)
        for side in "+-":
            rows = cauchy(MEASURES["jacobi"], z, WEIGHTS["float"], side=side)
            scalar = [oracles.cauchy(MEASURES["jacobi"], float(v), WEIGHTS["float"], side=side) for v in z]
            assert [bits(r) for r in rows] == [bits(v) for v in scalar]

    def test_real_array_errors_match_scalar_calls(self):
        mu = MEASURES["atoms"]
        with pytest.raises(DomainError, match="on the support"):
            cauchy(mu, np.array([-5.0, mu.pieces[0].a]))
        with pytest.raises(DomainError, match="strictly inside"):
            cauchy(mu, np.array([mu.pieces[0].a]), side="+")
        with pytest.raises(ValueError, match="side must be"):
            cauchy(mu, np.array([0.5]), side="up")


class TestNonFiniteZ:
    """A NaN or infinite z is a DomainError in both precisions, at a point or in an array."""

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, complex(math.nan, 1.0), complex(2.0, math.inf)])
    def test_point(self, z):
        with pytest.raises(DomainError, match="finite"):
            cauchy(uniform(0, 1), z)

    def test_array_row(self):
        # the NaN row used to come back as 0.0
        with pytest.raises(DomainError, match="finite"):
            cauchy(uniform(0, 1), np.array([2.0, math.nan]))
        with pytest.raises(DomainError, match="finite"):
            cauchy(uniform(0, 1), np.array([2.0 + 1j, complex(math.inf, 0.0)]))

    def test_boundary(self):
        with pytest.raises(DomainError, match="finite"):
            cauchy(uniform(0, 1), math.nan, side="+")

    def test_mp(self):
        with pytest.raises(DomainError, match="finite"):
            cauchy(uniform(0, 1), math.nan, prec=64)
        with pytest.raises(DomainError, match="finite"):
            cauchy(uniform(0, 1), mpf("inf"), prec=64)


class TestFarPieces:
    """A piece other than the host is panelled only when it is near z."""

    def test_boundary_skips_panels_for_a_far_piece(self, monkeypatch):
        mu = Measure(pieces=(Piece(0, 1), Piece(2, 3)))
        made = []
        monkeypatch.setattr(measures, "graded_panels", lambda *a: made.append(a) or oracles.graded_panels(*a))
        val = cauchy(mu, 0.5, side="+")
        assert made == []
        closed = math.log(0.5 / 0.5) + math.log((2 - 0.5) / (3 - 0.5))
        assert abs(val.real - closed) < 1e-14
        assert val.imag == -math.pi

    def test_off_support_near_piece_does_not_panel_the_far_one(self, monkeypatch):
        mu = Measure(pieces=(Piece(0, 1), Piece(2, 3)))
        made = []
        monkeypatch.setattr(measures, "graded_panels", lambda *a: made.append(a[:2]) or oracles.graded_panels(*a))
        val = cauchy(mu, 1.0 + 1e-6)
        assert made == [(0, 1)]
        closed = math.log((1 + 1e-6) / 1e-6) + math.log((2 - 1 - 1e-6) / (3 - 1 - 1e-6))
        assert abs(val.real - closed) < 1e-10  # the panels 1e-6 from the pole set the error


# ---------------------------------------------------------------------------
# the spectral densities, at the nodes quad visits
# ---------------------------------------------------------------------------


def _density_at(mu, x):
    return next((float(p.density(x, p.a, p.b)) for p in mu.pieces if p.a <= x <= p.b), 0.0)


def _sides(sys, x):
    return tuple("+" if any(p.a < x < p.b for p in mu.pieces) else None for mu in sys.measures)


def rho_o_density(asys, kappa, x):
    """The root density as it was computed: the kappa-form and s_o_value, each on the per-call kernel."""
    dens = _density_at(asys.mustar, x)
    if dens == 0.0:
        return 0.0
    sys = asys.sys
    w1, w2 = kappa[1] / float(sys.mass(1)), kappa[0] / float(sys.mass(2))
    s1, s2 = _sides(sys, x)
    lk = w1 * oracles.cauchy(sys.measures[0], x, side=s1) + w2 * oracles.cauchy(sys.measures[1], x, side=s2)
    scale = 1.0 / (asys.xi_mass * float(sys.mass(1)) * float(sys.mass(2)))
    k = asys.side_of(x)
    s_o = scale * (-oracles.cauchy(sys.measures[1], x).real) if k == 1 else scale * oracles.cauchy(sys.measures[0], x).real
    return s_o * dens / abs(lk) ** 2


def rho_sub_density(asys, X, x):
    """The subtree density as it was computed: second_kind_boundary and the bridge quadrature."""
    dens = _density_at(asys.mustar, x)
    if dens == 0.0:
        return 0.0
    _, _, n, l = _path_data(asys, X)
    sys, rec = asys.sys, asys.sys.type1_record(n)
    parts = zip(sys.measures, rec.A, _sides(sys, x))
    L = sum([oracles.cauchy(mu, x, c, s) for mu, c, s in parts if c])
    k = asys.side_of(x)
    zs_other, weight = _bridge_weights(asys, n, l)[k]
    integral = oracles.cauchy(sys.measures[2 - k], x, weight).real
    tmx = np.prod([x - r for r in zs_other]) if zs_other else 1.0
    return float((-1.0) ** k * integral / tmx) * dens / abs(L) ** 2


def _quad_nodes(rep, moment):
    """The (x, density) pairs the integrator reads while computing a moment."""
    seen, inner = [], rep.density

    def recorded(x):
        values = inner(x)
        seen.extend(zip(x.tolist(), values.tolist()))
        return values

    rep.density = recorded
    moment()
    rep.density = inner
    return seen


JW_PAIR = angelesco_system(
    Measure(pieces=(Piece(-2.0, -0.5, DensitySpec("jacobi_weight", p=1.0, q=2.0, poly=(1.0, 0.3))),)),
    uniform(0.5, 2.5),
)


class TestDensityBits:
    @pytest.mark.parametrize("kappa", [(0.3, 0.7), (1.0, 0.0)])
    def test_rho_o_at_quad_nodes(self, ang_u, kappa):
        for asys in (ang_u, JW_PAIR):
            rep = rho_o(asys, kappa)
            seen = _quad_nodes(rep, rep.first_moment)
            assert len(seen) > 400
            assert [v.hex() for _, v in seen] == [rho_o_density(asys, kappa, x).hex() for x, _ in seen]

    @pytest.mark.parametrize("X", [(1,), (2, 1)])
    def test_rho_sub_at_quad_nodes(self, ang_u, X):
        for asys in (ang_u, JW_PAIR):
            rep = rho_sub(asys, X)
            seen = _quad_nodes(rep, rep.total_mass)
            assert len(seen) > 400
            assert [v.hex() for _, v in seen] == [rho_sub_density(asys, X, x).hex() for x, _ in seen]


# ---------------------------------------------------------------------------
# how often the kernels are built and applied
# ---------------------------------------------------------------------------


@pytest.fixture
def counts(monkeypatch):
    made, applied = [], []
    init, call = measures._Kernel.__init__, measures._Kernel.__call__

    def counted_init(self, mu, weight, prec):
        made.append((id(mu), weight, prec))
        init(self, mu, weight, prec)

    def counted_call(self, z, side=None):
        applied.append(z)
        return call(self, z, side)

    monkeypatch.setattr(measures._Kernel, "__init__", counted_init)
    monkeypatch.setattr(measures._Kernel, "__call__", counted_call)
    return made, applied


def fresh_pair():
    return angelesco_system(uniform(-2, -1), uniform(1, 2))


def mp_points(applied):
    """The points of the mp kernel applications (the double ones take float z)."""
    return [z for z in applied if isinstance(z, (mpf, mpc))]


class TestKernelCounts:
    def test_rho_o_value_applies_two_kernels(self, counts):
        rep = rho_o(fresh_pair(), (0.4, 0.6))
        made, applied = counts
        for x in (-1.3, 1.7):
            applied.clear()
            rep.density(x)
            assert len(applied) == 2  # the other measure's value serves S_O and the form

    def test_rho_o_prepares_each_kernel_once(self, counts):
        asys = fresh_pair()
        made, _ = counts
        rep = rho_o(asys, (0.4, 0.6))
        rep.total_mass()
        rep.first_moment()
        mu1, mu2 = map(id, asys.sys.measures)
        assert len(made) == len(set(made))
        assert {(mu1, (), None), (mu2, (), None)} <= set(made)  # plus mp ones for a point mass
        made.clear()
        second = rho_o(asys, (0.7, 0.3))
        second.total_mass()
        assert made == []

    def test_rho_sub_prepares_each_kernel_once(self, counts):
        asys = fresh_pair()
        made, applied = counts
        rep = rho_sub(asys, (1, 2))
        assert made == []  # nothing is solved until the first value
        rep.total_mass()
        assert len(made) == len(set(made)) == 4  # A1 on mu1, A2 on mu2, a bridge weight on each
        made.clear()
        applied.clear()
        again = rho_sub(asys, (1, 2))
        again.density(-1.4)
        assert made == [] and len(applied) == 3

    @pytest.mark.parametrize("X, Y", [((), (1, 2)), ((1,), (1, 2)), ((2, 1), (2, 1))])
    def test_green_applies_the_mp_markov_kernels_twice(self, counts, X, Y):
        asys = fresh_pair()
        _, applied = counts
        green(asys, (0.4, 0.6), Y, X, complex(0.3, 2.0), depth=3)
        assert len(mp_points(applied)) == 2  # L_Y and the denominator read one Markov pair

    def test_second_kind_rows_apply_the_mp_markov_kernels_twice(self, counts):
        op = assemble_truncated(fresh_pair().sys, (1, 0), 5)
        _, applied = counts
        eigenfunction_residual(op, "l", 5.0)
        assert len(mp_points(applied)) == 2  # not twice per lattice point

    def test_psi_o_at_the_point_mass_applies_the_mp_markov_kernels_twice(self, counts):
        asys = fresh_pair()
        E = angelesco.find_e_kappa(asys, (0.5, 0.5))
        _, applied = counts
        psi_o(asys, (0.5, 0.5), E, 4)
        assert len(mp_points(applied)) == 2

    def test_find_e_kappa_reuses_the_rep_kernels(self, counts):
        asys = fresh_pair()
        made, _ = counts
        angelesco.find_e_kappa(asys, (0.2, 0.8))
        assert len(made) == 2
        rho_o(asys, (0.9, 0.1)).density(-1.5)
        assert [prec for _, _, prec in made[2:]] == [256, 256]  # only the point mass's mp pair is new


def test_kernel_is_cached_per_weight_and_precision():
    mu = uniform(0, 1)
    assert kernel(mu) is kernel(mu, ())
    assert kernel(mu, (1.0, 2.0)) is kernel(mu, [1.0, 2.0])
    assert kernel(mu, (1.0, 2.0)) is not kernel(mu, (1.0, 2.0), 64)
    assert kernel(mu, (mpf(1),), 64) is kernel(mu, (mpf(1),), 64)
