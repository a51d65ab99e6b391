import numpy as np
import pytest
from mpmath import mpf, workprec

from mop_trees import quadrature
from mop_trees.errors import ConvergenceError
from mop_trees.quadrature import gauss_legendre_mp

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
