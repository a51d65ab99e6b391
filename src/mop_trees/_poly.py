"""mp arithmetic helpers.

Polynomials on ascending coefficient tuples of mpmath numbers, and
:func:`rational`, which rounds an exact quotient of integers once at a
precision it takes as an argument.  Sums of products are ``mp.fsum`` of mpf
products at the caller's ``workprec``.
"""

from __future__ import annotations

from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest as RND


def pval(c, x):
    """Horner evaluation; works for mpf/mpc and float/complex alike."""
    acc = 0 * x
    for ci in reversed(c):
        acc = acc * x + ci
    return acc


def pval_exact(c, x):
    """Horner evaluation in mpmath without rounding (float or mpf input)."""
    acc = mpf(0)
    for ci in reversed(c):
        acc = mp.fadd(mp.fmul(acc, x, exact=True), ci, exact=True)
    return acc


def padd(c1, c2):
    n = max(len(c1), len(c2))
    return tuple(
        (c1[i] if i < len(c1) else 0) + (c2[i] if i < len(c2) else 0) for i in range(n)
    )


def pscale(c, s):
    return tuple(ci * s for ci in c)


def pmul(c1, c2):
    if not c1 or not c2:
        return ()
    out = [mpf(0)] * (len(c1) + len(c2) - 1)
    for i, a in enumerate(c1):
        for j, b in enumerate(c2):
            out[i + j] += a * b
    return tuple(out)


def pder(c):
    return tuple(i * c[i] for i in range(1, len(c)))


def pxshift(c):
    """Multiply by x."""
    return (type(c[0])(0),) + tuple(c) if c else ()


def pfloat(c):
    return [float(ci) for ci in c]


def rational(p: int, q: int, prec: int):
    """The mpf nearest to p/q at ``prec`` bits (one rounding)."""
    return mp.make_mpf(from_rational(p, q, prec, RND))
