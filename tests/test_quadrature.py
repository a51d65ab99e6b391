import math
import warnings

import numpy as np
import pytest
from mpmath import mpf, workprec

from mop_trees import quadrature
from mop_trees.errors import ConvergenceError
from mop_trees.quadrature import gauss_legendre_mp, qags

import oracles

RULES = [(200, 256), (201, 256), (32, 256), (500, 128)]


def _ulp(x, bits):
    """One unit in the last place of the nonzero mpf x at ``bits`` bits."""
    _, _, exp, bc = x._mpf_
    return mpf(2) ** (exp + bc - bits)


@pytest.fixture(scope="module", params=RULES, ids=[f"{n}-{p}" for n, p in RULES])
def rule(request):
    order, prec = request.param
    return order, prec, gauss_legendre_mp(order, prec)


def test_nodes_match_reference(rule):
    order, prec, (nodes, _) = rule
    ref, _ = oracles.gauss_legendre_mp(order, prec)
    for x, r in zip(nodes, ref):
        assert x == r if r == 0 else abs(x - r) <= 2 * _ulp(r, prec + 24)


def test_weights_match_reference(rule):
    order, prec, (_, weights) = rule
    _, ref = oracles.gauss_legendre_mp(order, prec)
    with workprec(prec + 24):
        assert max(abs(w / r - 1) for w, r in zip(weights, ref)) <= mpf(2) ** -prec


def test_integrates_even_monomials_exactly(rule):
    order, prec, (nodes, weights) = rule
    with workprec(prec + 24):
        terms = list(weights)
        squares = [x * x for x in nodes]
        for k in range(0, 2 * order, 2):
            assert abs(sum(terms) - mpf(2) / (k + 1)) <= mpf(2) ** -(prec - 6), k
            terms = [t * s for t, s in zip(terms, squares)]


def test_weights_sum_to_two(rule):
    _, prec, (_, weights) = rule
    with workprec(prec + 24):
        assert abs(sum(weights) - 2) <= mpf(2) ** -(prec + 8)


def test_mirror_symmetry_is_exact(rule):
    order, _, (nodes, weights) = rule
    assert all(nodes[i] + nodes[order - 1 - i] == 0 for i in range(order))
    assert all(weights[i] == weights[order - 1 - i] for i in range(order))
    assert all(a < b for a, b in zip(nodes, nodes[1:]))


def test_odd_order_centre_is_zero():
    nodes, _ = gauss_legendre_mp(201, 256)
    assert nodes[100] == 0


def test_double_rule_agrees(rule):
    order, _, (nodes, weights) = rule
    x, w = np.polynomial.legendre.leggauss(order)
    assert np.max(np.abs(np.array([float(v) for v in nodes]) - x)) <= 1e-15
    # leggauss's own weights are off by up to 2e-14 at order 500.
    assert np.max(np.abs(np.array([float(v) for v in weights]) - w)) <= 1e-13


def test_duplicate_seed_raises(monkeypatch):
    xs, ws = np.polynomial.legendre.leggauss(200)
    xs = xs.copy()
    xs[150] = xs[151]
    monkeypatch.setattr(quadrature, "gauss_legendre", lambda order: (xs, ws))
    monkeypatch.setattr(quadrature, "_GAUSS_MP_CACHE", {})
    with pytest.raises(ConvergenceError):
        gauss_legendre_mp(200, 256)


# ---------------------------------------------------------------------------
# qags against scipy's QUADPACK, bit for bit
# ---------------------------------------------------------------------------

INTEGRANDS = {
    "smooth": (lambda x: math.exp(-x) * math.cos(3 * x), 0.0, 1.0),
    "oscillatory": (lambda x: math.sin(50 * x), 0.0, 1.0),
    "peaked": (lambda x: 1 / ((x - 0.3) ** 2 + 1e-4), 0.0, 1.0),
    "step": (lambda x: 1.0 if x > 0.37 else 0.0, 0.0, 1.0),
    "zero": (lambda x: 0.0, 0.0, 1.0),
    "x_log_x": (lambda x: x * math.log(x), 0.0, 1.0),
    "inv_sqrt_abs": (lambda x: 1 / math.sqrt(abs(x)), -1.0, 2.0),
    "log_abs": (lambda x: math.log(abs(x)), -1.0, 2.5),
    # the exits other than convergence
    "sin_inv": (lambda x: math.sin(1 / x), 0.0, 1.0),  # subdivision limit
    "pole_jump": (lambda x: 1 / (x - 0.3) if x > 0.3 else 0.0, 0.0, 1.0),  # bad integrand behaviour
    "x_pow_m099": (lambda x: x**-0.99, 0.0, 1.0),  # extrapolation table does not converge
    "inv_x": (lambda x: 1 / x, -1.0, 2.0),  # divergent
}
TOLERANCES = [(1e-12, 1.49e-8, 400), (1.49e-8, 1.49e-8, 50), (0.0, 1e-13, 50), (1e-14, 1e-14, 100), (1e-6, 0.0, 5),
              (1e-3, 1e-3, 1)]
# scipy reports ier > 0 through the first words of its message
SCIPY_IER = {"The maximum number": 1, "The occurrence of roundoff": 2, "Extremely bad": 3, "The algorithm does not": 4,
             "The integral is probably divergent": 5}


def scipy_qagse(f, a, b, epsabs, epsrel, limit):
    """(value, abserr, subintervals, evaluations, ier) of scipy.integrate.quad."""
    from scipy.integrate import quad

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value, abserr, info, *message = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    ier = next((v for k, v in SCIPY_IER.items() if message[0].startswith(k)), None) if message else 0
    return value, abserr, info["last"], info["neval"], ier


def per_node(f):
    return lambda xs: np.array([f(x) for x in xs.tolist()])


@pytest.mark.parametrize("tol", TOLERANCES, ids=str)
@pytest.mark.parametrize("name", list(INTEGRANDS))
def test_qags_matches_scipy_quad(name, tol):
    f, a, b = INTEGRANDS[name]
    res = qags(per_node(f), a, b, *tol)
    assert (res.value, res.abserr, res.last, res.neval, res.ier) == scipy_qagse(f, a, b, *tol)


def test_qags_reaches_every_exit():
    iers = {qags(per_node(f), a, b, *tol).ier for f, a, b in INTEGRANDS.values() for tol in TOLERANCES}
    assert iers == {0, 1, 2, 3, 4, 5}


def test_qags_extrapolates_and_takes_panels_as_arrays(monkeypatch):
    calls, shapes = [], []
    qelg = quadrature._qelg
    monkeypatch.setattr(quadrature, "_qelg", lambda *a: calls.append(a[0]) or qelg(*a))
    f, a, b = INTEGRANDS["inv_sqrt_abs"]
    res = qags(lambda xs: shapes.append(xs.shape) or per_node(f)(xs), a, b, 1e-12, 1.49e-8, 400)
    assert res.ier == 0 and calls  # converged through the epsilon table
    assert abs(res.value - 2 * (1 + math.sqrt(2))) < 1e-12
    assert set(shapes) == {(21,)} and len(shapes) == 2 * res.last - 1


def test_qags_rejects_what_quadpack_rejects():
    with pytest.raises(ValueError):
        qags(per_node(math.exp), 0.0, 1.0, limit=0)
    with pytest.raises(ValueError):
        qags(per_node(math.exp), 0.0, 1.0, epsabs=0.0, epsrel=1e-20)
