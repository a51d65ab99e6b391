"""mp arithmetic helpers.

Polynomials on ascending coefficient tuples of mpmath numbers, and kernels
(:func:`dot`, :func:`lu_solve`, :func:`cauchy_sum`) that run on raw libmp
tuples and round exactly as the mpmath calls they replace, without the
per-element overhead of mpf objects and ``mpmath.matrix``.  The kernels
take their precision as an argument and never read ``mp.prec``.
:func:`rational` rounds an exact quotient of integers once.
"""

from __future__ import annotations

from mpmath import mp, mpf
from mpmath.libmp import (
    from_rational,
    fzero,
    mpc_mpf_div,
    mpc_sub_mpf,
    mpf_abs,
    mpf_div,
    mpf_gt,
    mpf_le,
    mpf_mul,
    mpf_rdiv_int,
    mpf_sub,
    mpf_sum,
    round_nearest as RND,
)


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


def cauchy_sum(xs, vs, z, prec: int):
    """``mp.fsum(v / (z - x) for x, v in zip(xs, vs))`` at ``prec`` bits, on raw
    tuples xs and vs and an mpf or mpc z: per term the subtraction and the
    division that the mpf operators run, each rounded, then one ``mpf_sum``
    per part as fsum runs it (mpf out for real z or no terms, else mpc)."""
    if not xs:
        return mp.make_mpf(fzero)
    if hasattr(z, "_mpc_"):
        zt = z._mpc_
        terms = [mpc_mpf_div(v, mpc_sub_mpf(zt, x, prec, RND), prec, RND) for x, v in zip(xs, vs)]
        return mp.make_mpc((mpf_sum([t[0] for t in terms], prec, RND), mpf_sum([t[1] for t in terms], prec, RND)))
    zt = z._mpf_
    return mp.make_mpf(mpf_sum([mpf_div(v, mpf_sub(zt, x, prec, RND), prec, RND) for x, v in zip(xs, vs)], prec, RND))


_SINGULAR = "matrix is numerically singular"


def lu_solve(rows, rhs, prec: int) -> list:
    """Solve ``rows x = rhs`` exactly as ``mpmath.lu_solve`` does under ``workprec(prec)``.

    Square system, mpf in, mpf out at ``prec + 10`` bits.  The same steps in
    the same order, each rounded at ``prec + 10``: the singularity tolerance
    from the 1-norm, scaled partial pivoting recomputed for every column (the
    first maximal score wins), elimination, then the L and U substitutions.
    Raises ``ZeroDivisionError`` on the matrices mpmath calls numerically
    singular, and also where a column holds no nonzero pivot candidate
    (mpmath then fails with a ``TypeError``).
    """
    wp = prec + 10
    a = [[v._mpf_ for v in row] for row in rows]
    b = [v._mpf_ for v in rhs]
    n = len(a)
    norm = fzero
    for j in range(n):
        s = mpf_sum([row[j] for row in a], wp, RND, True)
        if mpf_gt(s, norm):
            norm = s
    tol = mpf_abs(mpf_mul(norm, (0, 1, 1 - wp, 1), wp, RND), wp, RND)  # |A|_1 * eps
    perm = []
    for j in range(n - 1):
        best, p = fzero, None
        for k in range(j, n):
            s = mpf_sum([mpf_abs(v, wp, RND) for v in a[k][j:]], wp, RND)
            if mpf_le(mpf_abs(s, wp, RND), tol):
                raise ZeroDivisionError(_SINGULAR)
            score = mpf_mul(mpf_rdiv_int(1, s, wp, RND), mpf_abs(a[k][j], wp, RND), wp, RND)
            if mpf_gt(score, best):
                best, p = score, k
        if p is None:
            raise ZeroDivisionError(_SINGULAR)
        a[j], a[p] = a[p], a[j]
        perm.append(p)
        pivot = a[j]
        if mpf_le(mpf_abs(pivot[j], wp, RND), tol):
            raise ZeroDivisionError(_SINGULAR)
        for row in a[j + 1 :]:
            f = row[j] = mpf_div(row[j], pivot[j], wp, RND)
            for k in range(j + 1, n):
                row[k] = mpf_sub(row[k], mpf_mul(f, pivot[k], wp, RND), wp, RND)
    if mpf_le(mpf_abs(a[n - 1][n - 1], wp, RND), tol):
        raise ZeroDivisionError(_SINGULAR)
    for j, p in enumerate(perm):
        b[j], b[p] = b[p], b[j]
    for i in range(1, n):
        for j in range(i):
            b[i] = mpf_sub(b[i], mpf_mul(a[i][j], b[j], wp, RND), wp, RND)
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            b[i] = mpf_sub(b[i], mpf_mul(a[i][j], b[j], wp, RND), wp, RND)
        b[i] = mpf_div(b[i], a[i][i], wp, RND)
    return [mp.make_mpf(v) for v in b]


def rational(p: int, q: int, prec: int):
    """The mpf nearest to p/q at ``prec`` bits (one rounding)."""
    return mp.make_mpf(from_rational(p, q, prec, RND))
