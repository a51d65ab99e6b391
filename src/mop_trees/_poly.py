"""mp arithmetic helpers.

Polynomials on ascending coefficient tuples of mpmath numbers, and the sums
of products the engine's checks and the moment tables run
(:func:`dot`, :func:`raw_dot`, :func:`products`, :func:`shifted`): they work
on raw libmp tuples and round exactly as the mpf operators and ``mp.fsum``,
without the per-element overhead of mpf objects.  They take their precision
as an argument and never read ``mp.prec``.  :func:`rational` rounds an exact
quotient of integers once.
"""

from __future__ import annotations

from mpmath import mp, mpf
from mpmath.libmp import from_rational, mpf_mul, mpf_sub, mpf_sum, round_nearest as RND


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


def dot(xs, ys, prec: int):
    """``mp.fsum(x * y for x, y in zip(xs, ys))`` at ``prec`` bits: each product
    rounded, then one ``mpf_sum`` as fsum runs it (mpf in, mpf out)."""
    return mp.make_mpf(mpf_sum([mpf_mul(x._mpf_, y._mpf_, prec, RND) for x, y in zip(xs, ys)], prec, RND))


def raw_dot(xs, ys, prec: int):
    """:func:`dot` on raw tuples xs and ys (mpf out)."""
    return mp.make_mpf(mpf_sum(products(xs, ys, prec), prec, RND))


def products(xs, ys, prec: int) -> list:
    """Raw tuples of ``x * y`` rounded at ``prec`` bits, as the mpf product rounds; raw tuples in."""
    return [mpf_mul(x, y, prec, RND) for x, y in zip(xs, ys)]


def shifted(xs, c, prec: int) -> list:
    """Raw tuples of ``x - c`` rounded at ``prec`` bits; raw tuples in."""
    return [mpf_sub(x, c, prec, RND) for x in xs]


def rational(p: int, q: int, prec: int):
    """The mpf nearest to p/q at ``prec`` bits (one rounding)."""
    return mp.make_mpf(from_rational(p, q, prec, RND))
