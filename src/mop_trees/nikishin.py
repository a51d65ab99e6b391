"""Nikishin pairs: dual measure, recurrence sign patterns, diagonal blowup.

A Nikishin pair is ``mu2 = (markov of tau) * mu1`` with the auxiliary measure
tau supported strictly to the left of mu1.  Such systems are perfect, their
recurrence coefficients ``a`` alternate in sign across the diagonal of the
multi-index lattice, and the coefficients at the near-diagonal indices
(n, n+1) blow up, so no bounded limiting tree operator exists even though
every finite truncation is a perfectly good matrix.  Desk-scale runs report
the blowup as monotone finite trends, never as limit claims.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from mpmath import mpf, workprec

from ._poly import dot
from .errors import OverlapError, SeriesError
from .measures import DensitySpec, Measure, Piece, cauchy
from .mop_engine import MopSystem


@dataclass
class NikishinSystem:
    mu1: Measure
    tau: Measure
    mu2: Measure
    sys: MopSystem


def nikishin_system(mu1: Measure, tau: Measure, precision_bits: int = 256) -> NikishinSystem:
    """Build mu2 by weighting mu1's density with the Markov function of tau."""
    t_lo, t_hi = tau.hull()
    m_lo, m_hi = mu1.hull()
    if not t_hi < m_lo:
        raise OverlapError("tau must be supported strictly to the left of mu1")
    if mu1.atoms:
        raise ValueError("the weighted construction requires an atomless first measure")
    pieces = tuple(
        Piece(p.a, p.b, DensitySpec("markov_weighted", base=p.density, weight_measure=tau))
        for p in mu1.pieces
    )
    mu2 = Measure(pieces=pieces, quad_order=mu1.quad_order)
    return NikishinSystem(mu1, tau, mu2, MopSystem((mu1, mu2), precision_bits))


# ---------------------------------------------------------------------------
# dual measure
# ---------------------------------------------------------------------------


def dual_moments(tau: Measure, K: int, precision_bits: int = 256) -> list:
    """First K moments of the dual measure of tau.

    The reciprocal of the Markov function of tau differs from
    ``z/m0 - m1/m0^2`` by the negative of another Markov function (the dual
    measure); its moments fall out of the power-series reciprocal of the
    moment series.  Returned in double precision; the inversion runs at
    ``precision_bits`` with a digit-loss guard.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    moms = tau.moments_mp(K + 2, precision_bits)
    with workprec(precision_bits):
        m0 = moms[0]
        if m0 <= 0:
            raise SeriesError("tau must have positive mass")
        g = [1 / m0]
        bound = mpf(2) ** (precision_bits - 16)
        for j in range(1, K + 2):
            s = dot(moms[1 : j + 1], reversed(g), precision_bits)
            g.append(-s / m0)
            if abs(g[-1]) > bound:
                raise SeriesError(f"series inversion lost all significant digits at order {j}")
        return [float(-g[l + 2]) for l in range(K)]


def dual_hankel_min_eig(tau: Measure, size: int, precision_bits: int = 256) -> float:
    """Smallest eigenvalue of the size x size Hankel matrix of the dual moments."""
    moms = dual_moments(tau, 2 * size - 1, precision_bits)
    H = np.array([[moms[i + j] for j in range(size)] for i in range(size)])
    return float(np.min(np.linalg.eigvalsh(H)))


# ---------------------------------------------------------------------------
# sign patterns
# ---------------------------------------------------------------------------


def sign_pattern_check(nsys: NikishinSystem, nmax: int) -> dict:
    """Signs of a_{n,j} over 1 <= n1, n2 <= nmax plus the marginal positivity.

    Expected: sgn a_{n,j} = (-1)^{j-1} below and on the diagonal (n2 <= n1),
    flipped above it; a_{(n,0),1} and a_{(0,n),2} positive.
    """
    sys = nsys.sys
    violations = []
    table = {}
    for n1 in range(1, nmax + 1):
        for n2 in range(1, nmax + 1):
            a1, a2, _, _ = sys.recurrence((n1, n2))
            table[(n1, n2)] = (float(a1), float(a2))
            for j, a in ((1, a1), (2, a2)):
                expected = (-1) ** (j - 1) if n2 <= n1 else (-1) ** j
                if (1 if a > 0 else -1) != expected:
                    violations.append({"n": [n1, n2], "j": j, "a": float(a)})
    for n in range(1, nmax + 1):
        if not sys.recurrence((n, 0))[0] > 0:
            violations.append({"n": [n, 0], "j": 1, "a": float(sys.recurrence((n, 0))[0])})
        if not sys.recurrence((0, n))[1] > 0:
            violations.append({"n": [0, n], "j": 2, "a": float(sys.recurrence((0, n))[1])})
    return {"nmax": nmax, "violations": violations, "table": table, "passed": not violations}


def h_sign_check(nsys: NikishinSystem, nmax: int) -> dict:
    """Signs of h_{n,j} over 1 <= n1, n2 <= nmax.

    Expected: h_{n,1} > 0 for n2 <= n1+1 and sgn h_{n,1} = (-1)^{|n|+1} for
    n2 >= n1+2; h_{n,2} > 0 for n2 >= n1+1 and sgn h_{n,2} = (-1)^{|n|} for
    n2 <= n1.
    """
    sys = nsys.sys
    violations = []
    for n1 in range(1, nmax + 1):
        for n2 in range(1, nmax + 1):
            h1, h2 = sys.h_values((n1, n2))
            d = n1 + n2
            exp1 = 1 if n2 <= n1 + 1 else (-1) ** (d + 1)
            exp2 = 1 if n2 >= n1 + 1 else (-1) ** d
            if (1 if h1 > 0 else -1) != exp1:
                violations.append({"n": [n1, n2], "j": 1, "h": float(h1)})
            if (1 if h2 > 0 else -1) != exp2:
                violations.append({"n": [n1, n2], "j": 2, "h": float(h2)})
    return {"nmax": nmax, "violations": violations, "passed": not violations}


# ---------------------------------------------------------------------------
# diagonal blowup
# ---------------------------------------------------------------------------


def diagonal_blowup_scan(nsys: NikishinSystem, nmax: int, region_order: int = 13) -> dict:
    """Near-diagonal coefficients a_{(n,n+1),i} for n = 1..nmax plus the
    off-diagonal bound over {n2 <= n1 or n2 >= n1+2, |n| <= region_order}.

    The near-diagonal entries grow without bound (reported as a finite
    monotone trend with growth ratios); everything off the near-diagonal
    stays within a fixed bound.
    """
    sys = nsys.sys
    diag = []
    for n in range(1, nmax + 1):
        a1, a2, _, _ = sys.recurrence((n, n + 1))
        diag.append({"n": n, "a1": float(a1), "a2": float(a2)})
    ratios = [
        {"n": diag[i]["n"], "r1": diag[i]["a1"] / diag[i - 1]["a1"], "r2": diag[i]["a2"] / diag[i - 1]["a2"]}
        for i in range(1, len(diag))
    ]
    off_max = 0.0
    off_max_at_order: dict = {}
    for n1 in range(0, region_order + 1):
        for n2 in range(0, region_order + 1 - n1):
            if not (n2 <= n1 or n2 >= n1 + 2):
                continue
            a1, a2, _, _ = sys.recurrence((n1, n2))
            m = max(abs(float(a1)), abs(float(a2)))
            off_max = max(off_max, m)
            d = n1 + n2
            off_max_at_order[d] = max(off_max_at_order.get(d, 0.0), m)
    return {
        "diagonal": diag,
        "growth_ratios": ratios,
        "offdiag_max": off_max,
        "offdiag_max_by_order": off_max_at_order,
        "region_order": region_order,
    }


# ---------------------------------------------------------------------------
# second-kind orthogonality against tau
# ---------------------------------------------------------------------------


def second_kind_tau_integral(nsys: NikishinSystem, n, k: int) -> float:
    """``int x^k R_{n,1}(x) dtau(x)``, both integrals by quadrature.

    Vanishes for k <= min(n1, n2 - 1); at k = n2 with n2 = n1 + 1 it equals
    ``|tau| h_{n,1} - h_{n,2}``.
    """
    pn = nsys.sys.record(n).P
    return nsys.tau.integrate(lambda xs: xs**k * cauchy(nsys.mu1, xs, pn).real)
