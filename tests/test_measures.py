import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mop_trees.errors import DomainError, EndpointError, OverlapError
from mop_trees.measures import (
    DensitySpec,
    Measure,
    Piece,
    _piece_table,
    concat,
    measure_from_json,
    uniform,
)
from mop_trees.nikishin import nikishin_system

from oracles import refine_cauchy, refine_markov_log


class TestMoments:
    def test_uniform_cube(self):
        assert uniform(0, 1).integrate(lambda x: x**3) == pytest.approx(0.25, abs=1e-13)

    def test_atom_square(self):
        m = Measure(atoms=((2.0, 1.0),))
        assert m.integrate(lambda x: x**2) == 4.0

    def test_center_of_mass(self):
        assert uniform(-2, -1).integrate(lambda x: x) == pytest.approx(-1.5, abs=1e-13)

    def test_moment_deterministic(self):
        m = uniform(0, 1)
        assert m.integrate(lambda x: x**7) == m.integrate(lambda x: x**7)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            uniform(0, 1).moments_mp(-1, 64)

    def test_integrand_sees_float_arrays(self):
        # one call for the atoms, one per piece, each on a 1-D float array of its points
        m = Measure(atoms=((0.0, 1.0), (5.0, 2.0)), pieces=(Piece(1.0, 2.0), Piece(3.0, 4.0)), quad_order=7)
        seen = []
        m.integrate(lambda x: seen.append(x) or np.ones_like(x))
        assert [(type(x), x.dtype, x.shape) for x in seen] == [(np.ndarray, np.float64, (2,)), *[(np.ndarray, np.float64, (7,))] * 2]
        assert seen[0].tolist() == [0.0, 5.0]

    def test_mp_moments_match_double(self):
        m = uniform(-2, -1)
        table = m.moments_mp(6, 256)
        for k in range(7):
            assert float(table[k]) == pytest.approx(m.integrate(lambda x: x**k), rel=1e-12)


class TestIntegrate:
    def test_atoms_and_uniform_pieces(self):
        m = Measure(atoms=((0.5, 0.25), (3.0, 2.0)), pieces=(Piece(-2.0, -1.0), Piece(1.0, 2.0)))
        for k in range(6):
            exact = 0.25 * 0.5**k + 2.0 * 3.0**k + (2.0 ** (k + 1) - 1) * (1 + (-1) ** k) / (k + 1)
            assert m.integrate(lambda x: x**k) == pytest.approx(exact, rel=1e-14)

    def test_integer_jacobi_weight_is_exact(self):
        # (x - 1)^2 (3 - x) (1 + x) = 3 - 4x - 2x^2 + 4x^3 - x^4; against x^k, degree <= 14,
        # which the 200-node rule integrates exactly
        m = Measure(pieces=(Piece(1.0, 3.0, DensitySpec("jacobi_weight", p=2, q=1, poly=(1.0, 1.0))),))
        for k in range(11):
            exact = sum(c * Fraction(3 ** (j + k + 1) - 1, j + k + 1) for j, c in enumerate((3, -4, -2, 4, -1)))
            assert m.integrate(lambda x: x**k) == pytest.approx(float(exact), rel=1e-14)

    def test_markov_weighted_matches_moments_mp(self):
        m = Measure(pieces=(Piece(2.0, 3.0, DensitySpec("markov_weighted", base=DensitySpec("uniform"), weight_measure=uniform(0, 1))),))
        table = m.moments_mp(8, 256)
        for k in range(9):
            assert m.integrate(lambda x: x**k) == pytest.approx(float(table[k]), rel=1e-14)


class TestMarkov:
    def test_atom_pole(self):
        m = Measure(atoms=((0.0, 1.0),))
        assert m.markov(2.0) == pytest.approx(0.5)

    def test_uniform_log(self):
        assert uniform(0, 1).markov(2.0).real == pytest.approx(math.log(2), abs=1e-13)

    def test_complex_point_vs_refined_quadrature(self):
        # frozen from refine_cauchy(0, 1, 1+1j) on 2e6 nodes: 0.5*ln2 - i*pi/4
        val = uniform(0, 1).markov(1 + 1j)
        frozen = 0.34657359027995155 - 0.7853981633974377j
        assert val == pytest.approx(frozen, abs=5e-12)
        assert refine_cauchy(0, 1, 1 + 1j) == pytest.approx(frozen, abs=1e-12)

    def test_conjugate_symmetry(self):
        m = uniform(0, 1)
        z = 0.3 + 0.7j
        assert m.markov(np.conj(z)) == pytest.approx(np.conj(m.markov(z)))

    def test_on_support_rejected(self):
        with pytest.raises(DomainError):
            uniform(0, 1).markov(0.5)

    def test_near_support_graded_panels(self):
        z = 0.5 + 1e-4j
        assert uniform(0, 1).markov(z) == pytest.approx(refine_cauchy(0, 1, z), abs=1e-11)

    def test_far_asymptote(self):
        m = Measure(
            atoms=((0.25, 0.5),),
            pieces=(Piece(1.0, 2.0, DensitySpec("uniform")),),
        )
        z = 1e6
        lead = m.integrate(np.ones_like) / z + m.integrate(lambda x: x) / z**2
        assert abs(m.markov(z) - lead) < 1e-9 * abs(lead)


class TestBoundary:
    def test_symmetric_point(self):
        v = uniform(0, 1).markov_boundary(0.5, "+")
        assert v == pytest.approx(-1j * math.pi, abs=1e-13)

    def test_quarter_point_closed_form(self):
        # pv of the unit density is log((x-a)/(b-x)): log(1/3) at x = 1/4
        v = uniform(0, 1).markov_boundary(0.25, "+")
        assert v.real == pytest.approx(refine_markov_log(0, 1, 0.25), abs=1e-12)
        assert v.imag == pytest.approx(-math.pi, abs=1e-13)

    def test_sides_conjugate(self):
        m = uniform(0, 1)
        assert m.markov_boundary(0.25, "-") == pytest.approx(
            np.conj(m.markov_boundary(0.25, "+"))
        )

    def test_imag_is_minus_pi_density(self):
        m = Measure(pieces=(Piece(0, 1, DensitySpec("jacobi_weight", p=1, q=1, poly=(6.0,))),))
        x = 0.3
        dens = m.density_at(x)
        assert m.markov_boundary(x, "+").imag == pytest.approx(-math.pi * dens, rel=1e-12)

    def test_endpoint_rejected(self):
        with pytest.raises(DomainError):
            uniform(0, 1).markov_boundary(1.0, "+")

    def test_atom_at_x_rejected(self):
        m = Measure(atoms=((0.5, 1.0),), pieces=(Piece(0, 1),))
        with pytest.raises(DomainError):
            m.markov_boundary(0.5, "+")

    def test_mp_route_agrees(self):
        m = uniform(-2, -1)
        a = m.markov_boundary(-1.3, "+")
        b = complex(m.markov_boundary_mp(-1.3, "+", 256))
        assert a == pytest.approx(b, abs=1e-13)

    def test_nearby_piece_both_precisions(self):
        # x sits 1.5e-4 from the second piece, which both routes must panel
        m = Measure(pieces=(Piece(0, 1), Piece(1.0001, 2)))
        x = 0.99995
        closed = math.log(x / (1 - x)) + math.log((1.0001 - x) / (2 - x))
        assert m.markov_boundary(x, "+").real == pytest.approx(closed, abs=1e-10)
        assert float(m.markov_boundary_mp(x, "+", 256).real) == pytest.approx(closed, abs=1e-10)


class TestDensityBits:
    @pytest.mark.parametrize("p, q", [(-0.499, -0.122), (0.35, -0.369)])
    def test_jacobi_node_table_is_per_point_pow(self, p, q):
        # numpy's array ** rounded 17 and 15 of these 200 nodes differently from pow
        m = Measure(pieces=(Piece(1.0, 2.0, DensitySpec("jacobi_weight", p=p, q=q)),))
        xs, _, dens = _piece_table(m, 0, None)
        assert [d.hex() for d in dens.tolist()] == [(1.0 * (x - 1.0) ** p * (2.0 - x) ** q).hex() for x in xs.tolist()]

    @pytest.mark.parametrize(
        "density",
        [
            DensitySpec("uniform"),
            DensitySpec("jacobi_weight", p=-0.499, q=0.35, poly=(0.7, -0.3, 1.1)),
            DensitySpec("markov_weighted", base=DensitySpec("jacobi_weight", p=0.35, q=-0.369), weight_measure=uniform(0, 0.5)),
        ],
        ids=lambda d: d.kind,
    )
    def test_density_at_rows_equal_point_calls(self, density):
        m = Measure(pieces=(Piece(1.0, 2.0, density), Piece(2.5, 3.0)))
        rng = np.random.default_rng(5)
        xs = np.concatenate([[0.5, 2.2, 3.5], rng.uniform(1.0, 2.0, 60), rng.uniform(2.5, 3.0, 10)])
        rows = m.density_at(xs)
        assert [v.hex() for v in rows.tolist()] == [m.density_at(float(x)).hex() for x in xs]
        assert (rows[:3] == 0).all() and (rows[3:] > 0).all()

    @pytest.mark.parametrize("x", [1.0, np.array([1.0, 1.5])], ids=["point", "array"])
    def test_negative_exponent_at_endpoint(self, x):
        # density_at accepts the closed piece, so x = a reaches the (x - a)^p factor
        m = Measure(pieces=(Piece(1.0, 2.0, DensitySpec("jacobi_weight", p=-0.5)),))
        with pytest.raises(EndpointError, match=r"\[1\.0, 2\.0\] has exponent -0\.5 at its endpoint 1\.0"):
            m.density_at(x)
        flipped = Measure(pieces=(Piece(1.0, 2.0, DensitySpec("jacobi_weight", p=0.5, q=-0.5)),))
        assert flipped.density_at(1.0) == 0.0
        with pytest.raises(EndpointError, match="endpoint 2.0"):
            flipped.density_at(np.array([1.5, 2.0]))


class TestConcat:
    def test_two_pieces(self):
        c = concat(uniform(-2, -1), uniform(1, 2))
        assert len(c.pieces) == 2
        assert c.integrate(np.ones_like) == pytest.approx(2.0, abs=1e-12)

    def test_atoms_union(self):
        c = concat(Measure(atoms=((0.0, 1.0),)), Measure(atoms=((2.0, 3.0),)))
        assert c.atoms == ((0.0, 1.0), (2.0, 3.0))

    def test_overlap_rejected(self):
        with pytest.raises(OverlapError):
            concat(uniform(0, 1), uniform(0.5, 2))


class TestConstructionAndJson:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Measure()

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError):
            Measure(atoms=((0.0, -1.0),))

    def test_overlapping_pieces_rejected(self):
        with pytest.raises(ValueError):
            Measure(pieces=(Piece(0, 1), Piece(0.5, 2)))

    def test_roundtrip(self):
        m = Measure(
            atoms=((0.5, 0.25),),
            pieces=(Piece(1.0, 2.0, DensitySpec("jacobi_weight", p=0.5, q=0.5, poly=(1.0, 0.1))),),
            quad_order=120,
        )
        m2 = measure_from_json(json.dumps(m.to_json()))
        assert m2.to_json() == m.to_json()
        assert m2.integrate(lambda x: x**2) == pytest.approx(m.integrate(lambda x: x**2))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: uniform(1, 2),
            lambda: nikishin_system(uniform(2, 3), uniform(0, 1)).mu2,
            lambda: Measure(
                atoms=((0.5, 0.25),),
                pieces=(Piece(1.0, 2.0, DensitySpec("jacobi_weight", p=0.5, q=-0.5, poly=(1.0, 0.1))),),
            ),
        ],
        ids=["uniform", "markov_weighted", "jacobi_weight-and-atom"],
    )
    def test_literal_round_trip_each_density_kind(self, build):
        mu = build()
        doc = json.loads(json.dumps(mu.to_json()))
        back = measure_from_json(doc)
        assert back == mu
        assert back.to_json() == doc

    def test_markov_weighted_literal(self):
        doc = {
            "pieces": [
                {
                    "a": 2.0,
                    "b": 3.0,
                    "density": {
                        "kind": "markov_weighted",
                        "base": {"kind": "uniform"},
                        "weight_measure": {"pieces": [{"a": 0.0, "b": 1.0, "density": {"kind": "uniform"}}]},
                    },
                }
            ]
        }
        m = measure_from_json(doc)
        # density at x is log(x/(x-1)) for the uniform weight on [0, 1]
        assert m.density_at(2.5) == pytest.approx(math.log(2.5 / 1.5), rel=1e-12)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Piece(0.0, math.inf),
            lambda: Piece(-math.inf, 0.0),
            lambda: Measure(atoms=((math.nan, 1.0),)),
            lambda: Measure(atoms=((0.0, math.inf),)),
            lambda: Measure(atoms=((0.0, math.nan),)),
            lambda: DensitySpec("jacobi_weight", p=math.nan),
            lambda: DensitySpec("jacobi_weight", q=math.inf),
            lambda: DensitySpec("jacobi_weight", poly=(1.0, math.nan)),
        ],
        ids=["piece-b-inf", "piece-a-inf", "atom-x-nan", "atom-mass-inf", "atom-mass-nan", "p-nan", "q-inf", "poly-nan"],
    )
    def test_non_finite_rejected(self, build):
        # each of these was accepted and failed later in the engine, or not at all
        with pytest.raises(ValueError, match="finite"):
            build()

    def test_markov_weighted_overlap_rejected(self):
        with pytest.raises(OverlapError):
            Measure(
                pieces=(
                    Piece(
                        0.5,
                        1.5,
                        DensitySpec(
                            "markov_weighted",
                            base=DensitySpec("uniform"),
                            weight_measure=uniform(0, 1),
                        ),
                    ),
                )
            )


bounded = st.floats(min_value=-5, max_value=5, allow_nan=False, allow_infinity=False)


class TestProperties:
    @given(
        a=bounded,
        width=st.floats(min_value=0.1, max_value=3),
        k=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_zeroth_moment_is_mass(self, a, width, k):
        m = uniform(a, a + width)
        assert m.integrate(np.ones_like) == pytest.approx(width, rel=1e-11)
        # and the k-th moment matches the closed form
        closed = ((a + width) ** (k + 1) - a ** (k + 1)) / (k + 1)
        assert m.integrate(lambda x: x**k) == pytest.approx(closed, rel=1e-10, abs=1e-12)

    @given(a=bounded, width=st.floats(min_value=0.1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_markov_asymptote(self, a, width):
        m = uniform(a, a + width)
        z = 1e6
        lead = m.integrate(np.ones_like) / z
        assert abs(m.markov(z) - lead - m.integrate(lambda x: x) / z**2) <= 1e-9 * abs(lead)
