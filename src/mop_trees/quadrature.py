"""Gauss-Legendre rules in double and extended precision, with graded panels.

Fixed-order Gauss-Legendre is used everywhere: it integrates polynomials of
degree < 2*order exactly and converges geometrically for integrands analytic
in a neighborhood of the interval.  For Cauchy kernels with a pole close to
the interval, ``graded_panels`` splits the interval geometrically toward the
near-singular point so that every panel sees the pole at O(1) relative
distance.
"""

from __future__ import annotations

import numpy as np
from mpmath import mpf, workprec

from .errors import ConvergenceError

_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_GAUSS_MP_CACHE: dict[tuple[int, int], tuple[list, list]] = {}


def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1] in double precision (cached)."""
    if order not in _GAUSS_CACHE:
        _GAUSS_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GAUSS_CACHE[order]


def gauss_legendre_mp(order: int, prec: int) -> tuple[list, list]:
    """Nodes and weights on [-1, 1] at ``prec + 24`` bits, Newton-polished from double seeds.

    Newton runs on the integer X = x 2^bits, with guard bits for the cancellation
    in 1 - x^2 near +-1 and the recurrence's rounding; each node and weight is
    rounded once.  ``ConvergenceError`` if a node does not converge or two seeds
    find the same node.
    """
    key = (order, prec)
    if key in _GAUSS_MP_CACHE:
        return _GAUSS_MP_CACHE[key]
    out, log_n = prec + 24, order.bit_length()
    bits = out + 8 + 4 * log_n
    # Newton leaves an error of about dx^2 / (1 - x^2) <= dx^2 order^2, so a
    # step with dx^2 below 2^-(out + 8) / order^2 gives the final node.
    final_step = 1 << (2 * bits - out - 8 - 2 * log_n)
    xs, _ = gauss_legendre(order)
    nodes: list = [None] * order
    weights: list = [None] * order
    prev = -1
    with workprec(out):
        for i in range(order // 2, order):
            num, den = float(xs[i]).as_integer_ratio()
            X = 0 if 2 * i + 1 == order else (num << bits) // den
            done = False
            for _ in range(60):
                # p = P_n(x) 2^bits and E = (P_{n-1}(x) - x P_n(x)) 2^(2 bits),
                # so P_n'(x) = n E / D with D = (1 - x^2) 2^(2 bits), exact in X.
                pm, p = 1 << bits, X
                for k in range(1, order):
                    pm, p = p, ((2 * k + 1) * ((X * p) >> bits) - k * pm) // (k + 1)
                D, E = (1 << 2 * bits) - X * X, (pm << bits) - X * p
                if done:
                    break
                dX = p * D // (order * E)
                X -= dX
                done = dX * dX <= final_step
            else:
                raise ConvergenceError(f"Gauss-Legendre node {i} of {order} did not converge")
            if not prev < X < 1 << bits:
                raise ConvergenceError(f"Gauss-Legendre nodes {i - 1}, {i} of {order} not increasing in [0, 1)")
            prev = X
            # w = 2 / ((1 - x^2) P_n'(x)^2) = 2 (1 - x^2) / (n (P_{n-1} - x P_n))^2
            W = (D << (3 * bits + 1)) // (order * order * E * E)
            nodes[i], nodes[order - 1 - i] = mpf((X, -bits)), mpf((-X, -bits))
            weights[i] = weights[order - 1 - i] = mpf((W, -bits))
    _GAUSS_MP_CACHE[key] = (nodes, weights)
    return nodes, weights


def map_rule(a: float, b: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule mapped to [a, b], double precision."""
    x, w = gauss_legendre(order)
    mid, rad = 0.5 * (a + b), 0.5 * (b - a)
    return mid + rad * x, rad * w


def map_rule_mp(a, b, order: int, prec: int) -> tuple[list, list]:
    """Gauss-Legendre rule mapped to [a, b], ``prec``-bit precision."""
    x, w = gauss_legendre_mp(order, prec)
    with workprec(prec + 24):
        mid, rad = (mpf(a) + mpf(b)) / 2, (mpf(b) - mpf(a)) / 2
        return [mid + rad * xi for xi in x], [rad * wi for wi in w]


def graded_panels(a: float, b: float, x0: float, h: float) -> list[tuple[float, float]]:
    """Split [a, b] into panels geometrically refined toward x0.

    The smallest panel adjacent to x0 has width ~h; widths then double.  If x0
    is outside [a, b], grading starts from the nearest endpoint.  Used for
    Cauchy integrals with a pole at distance ~h from the interval.
    """
    x0 = min(max(x0, a), b)
    h = max(h, (b - a) * 1e-15)
    cuts = {a, b, x0}
    for side in (-1, 1):
        w = h
        t = x0 + side * w
        while a < t < b:
            cuts.add(t)
            w *= 2
            t = x0 + side * w
    pts = sorted(cuts)
    return list(zip(pts[:-1], pts[1:]))
