"""The spectral densities on arrays and their moments by ``quadrature.qags``.

Both are pinned bit for bit against the routes they replaced, kept in
``tests/oracles.py``: one scalar kernel call per point, and
``scipy.integrate.quad`` asking for one density value per call.
"""

import numpy as np
import oracles
import pytest

from mop_trees import measures
from mop_trees.angelesco import SpectralMeasureRep, angelesco_system, interval_grids, rho_o, rho_sub
from mop_trees.errors import IntegrationWarning
from mop_trees.measures import DensitySpec, Measure, Piece, uniform

KAPPAS = [(0.5, 0.5), (1.0, 0.0), (0.0, 1.0), (0.3, 0.7)]
WORDS = [(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2), (2, 2, 1)]
JW_PAIR = angelesco_system(
    Measure(pieces=(Piece(-2.0, -0.5, DensitySpec("jacobi_weight", p=0.5, q=-0.3, poly=(1.0, 0.3))),)),
    Measure(pieces=(Piece(1.0, 2.5, DensitySpec("jacobi_weight", p=1.5, q=0.5)),)),
)
# a gap of 0.04 against pieces of length 0.98: near the gap the other piece
# lies within 0.1 of its length and is integrated on graded panels
SMALL_GAP = angelesco_system(uniform(-1.0, -0.02), uniform(0.02, 1.0))


@pytest.fixture(params=["ang_u", "jacobi_weight"])
def asys(request, ang_u):
    return ang_u if request.param == "ang_u" else JW_PAIR


def hexes(values):
    return [float(v).hex() for v in values]


class TestMomentsMatchScipyQuad:
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_rho_o(self, asys, kappa):
        rep, point = rho_o(asys, kappa), oracles.rho_o_point(asys, kappa)
        assert rep.total_mass().hex() == oracles.quad_moment(point, rep, 0).hex()
        assert rep.first_moment().hex() == oracles.quad_moment(point, rep, 1).hex()

    @pytest.mark.parametrize("X", WORDS, ids=str)
    def test_rho_sub(self, asys, X):
        rep, point = rho_sub(asys, X), oracles.rho_sub_point(asys, X)
        assert rep.total_mass().hex() == oracles.quad_moment(point, rep, 0).hex()
        assert rep.first_moment().hex() == oracles.quad_moment(point, rep, 1).hex()


class TestBatchedDensity:
    """One density call on a 2000-point grid per interval against 2000 one-point calls."""

    @pytest.mark.parametrize("system", ["ang_u", "jacobi_weight", "small_gap"])
    def test_grid_matches_point_calls(self, system, ang_u, monkeypatch):
        asys = {"ang_u": ang_u, "jacobi_weight": JW_PAIR, "small_gap": SMALL_GAP}[system]
        panelled = []
        panels = measures._Kernel._panels
        monkeypatch.setattr(measures._Kernel, "_panels", lambda self, *a: panelled.append(a[1]) or panels(self, *a))
        cases = [
            (rho_o(asys, (0.3, 0.7)), oracles.rho_o_point(asys, (0.3, 0.7))),
            (rho_sub(asys, (1, 2)), oracles.rho_sub_point(asys, (1, 2))),
        ]
        for rep, point in cases:
            for xs in interval_grids(rep.intervals, 4000, lambda a, b: (b - a) * 1e-6):
                assert len(xs) == 2000
                panelled.clear()
                batch = rep.density(xs)
                in_batch = len(panelled)
                assert hexes(batch) == hexes([point(x) for x in xs.tolist()])
                if system == "small_gap":
                    assert in_batch > 0  # the per-point fallback ran inside the batch

    def test_profile_and_call_read_the_batched_density(self, ang_u):
        rep = rho_o(ang_u, (0.5, 0.5))
        point = oracles.rho_o_point(ang_u, (0.5, 0.5))
        pts = rep.profile(41)
        assert len(pts) == 41
        assert hexes(y for _, y in pts) == hexes(point(x) for x, _ in pts)
        assert hexes(rep(x) for x, _ in pts) == hexes(y for _, y in pts)


def test_moment_warns_once_per_interval_where_qags_stops_short():
    # sin(1/(x - a)) oscillates without bound at each interval's left end:
    # QUADPACK reaches its 400 subintervals there (ier = 1)
    rep = SpectralMeasureRep(lambda xs: np.sin(1.0 / (xs - np.floor(xs))), [], ((-2.0, -1.0), (1.0, 2.0)))
    with pytest.warns(IntegrationWarning) as record:
        value = rep.total_mass()
    assert np.isfinite(value)
    messages = [str(w.message) for w in record]
    assert len(messages) == 2
    assert "ier=1" in messages[0] and "[-2.0, -1.0]" in messages[0]
    assert "ier=1" in messages[1] and "[1.0, 2.0]" in messages[1]
