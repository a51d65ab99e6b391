"""Gauss-Legendre rules in double and extended precision, with graded panels,
and the adaptive QUADPACK integrator QAGS.

Fixed-order Gauss-Legendre is used everywhere: it integrates polynomials of
degree < 2*order exactly and converges geometrically for integrands analytic
in a neighborhood of the interval.  For Cauchy kernels with a pole close to
the interval, ``graded_panels`` splits the interval geometrically toward the
near-singular point so that every panel sees the pole at O(1) relative
distance.  :func:`qags` integrates the spectral densities, whose endpoint
behaviour no fixed rule resolves.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

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


# ---------------------------------------------------------------------------
# QAGS: QUADPACK's dqagse with dqk21, dqpsrt and dqelg
# ---------------------------------------------------------------------------

# the 21-point Kronrod nodes (xgk[1::2] are the 10-point Gauss nodes) and weights, from dqk21
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980478405, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_EPMACH, _UFLOW, _OFLOW = sys.float_info.epsilon, sys.float_info.min, sys.float_info.max
_LIMEXP = 50  # epsilon-table length before dqelg drops its oldest entries


class QagsResult(NamedTuple):
    value: float
    abserr: float
    neval: int
    ier: int   # QUADPACK's code: 0 converged; 1 limit, 2 round-off, 3 bad point, 4 no convergence, 5 divergent
    last: int  # number of subintervals


def qags(f, a: float, b: float, epsabs: float = 1.49e-8, epsrel: float = 1.49e-8, limit: int = 50) -> QagsResult:
    """Adaptive Gauss-Kronrod integral of f over [a, b] with Wynn epsilon extrapolation.

    A line-for-line port of QUADPACK ``dqagse`` (Piessens, de Doncker-Kapenga,
    Ueberhuber, Kahaner, *QUADPACK*, Springer 1983), so for a < b it returns
    the value, error estimate and subdivision of SciPy's ``quad`` with the same
    tolerances and limit, bit for bit.  ``f`` takes the 21 Kronrod
    nodes of a panel as one 1-D float array and returns their values; the
    sums, error estimates and bookkeeping stay scalar, in QUADPACK's order.
    """
    if limit < 1:
        raise ValueError(f"limit must be a positive integer, not {limit!r}")
    if epsabs <= 0 and epsrel < max(50 * _EPMACH, 0.5e-28):
        raise ValueError("qags requires epsabs > 0 or epsrel >= max(50 eps, 5e-29)")
    # QUADPACK's 1-based lists; entry 0 is unused
    alist, blist, rlist, elist, iord = ([0.0] * (limit + 1) for _ in range(5))
    rlist2, res3la = [0.0] * (_LIMEXP + 3), [0.0] * 4
    alist[1], blist[1] = a, b
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last, ier, ierro = 1, 0, 0
    rlist[1], elist[1], iord[1] = result, abserr, 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return QagsResult(result, abserr, 42 * last - 21, ier, last)

    rlist2[1] = result
    errmax, maxerr, area, errsum, abserr = abserr, 1, result, abserr, _OFLOW
    nrmax, nres, numrl2, ktmin = 1, 0, 2, 0
    extrap = noext = False
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    sum_panels = False  # leave through QUADPACK's label 115 (sum the panels) instead of 100
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1, b2 = alist[maxerr], blist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        erlast = errmax
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr], rlist[last] = area1, area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr], alist[last], blist[last] = a2, a1, b1
            rlist[maxerr], rlist[last] = area2, area1
            elist[maxerr], elist[last] = error2, error1
        else:
            alist[last], blist[maxerr], blist[last] = a2, b1, b2
            elist[maxerr], elist[last] = error1, error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            sum_panels = True
            break
        if ier != 0:
            break
        if last == 2:
            small, erlarg, ertest = abs(b - a) * 0.375, errsum, errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the interval to bisect next is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap, nrmax = True, 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: bisect the larger
            # intervals first, while their errors exceed the extrapolated one
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin, abserr, result, correc = 0, abseps, reseps, erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax, extrap, small, erlarg = 1, False, small * 0.5, errsum

    if not sum_panels:  # QUADPACK's label 100: choose between extrapolated and summed
        if abserr == _OFLOW:
            sum_panels = True
        elif ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                sum_panels = abserr / abs(result) > errsum / abs(area)
            elif abserr > errsum:
                sum_panels = True
            elif area == 0.0:
                return QagsResult(result, abserr, 42 * last - 21, ier - 1 if ier > 2 else ier, last)
        if not sum_panels:  # label 110: test on divergence
            if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
                ratio = _ieee_div(result, area)
                if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                    ier = 6
    if sum_panels:  # label 115
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    return QagsResult(result, abserr, 42 * last - 21, ier - 1 if ier > 2 else ier, last)


def _ieee_div(x: float, y: float) -> float:
    """x / y with IEEE results (inf or nan) for y == 0, as Fortran divides."""
    if y != 0.0:
        return x / y
    return math.nan if x == 0.0 or math.isnan(x) else math.copysign(math.inf, x) * math.copysign(1.0, y)


def _qk21(f, a: float, b: float) -> tuple:
    """dqk21: (Kronrod integral, error estimate, integral of |f|, integral of |f - mean|) on [a, b]."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    abscs = [hlgth * x for x in _XGK]
    nodes = np.array([centr] + [centr - x for x in abscs] + [centr + x for x in abscs])
    vals = np.asarray(f(nodes), dtype=float).tolist()
    fc, fv1, fv2 = vals[0], vals[1:11], vals[11:21]
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for j in (1, 3, 5, 7, 9):  # the Gauss nodes, then the other Kronrod nodes
        fsum = fv1[j] + fv2[j]
        resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fv1[j]) + abs(fv2[j]))
    for j in (0, 2, 4, 6, 8):
        fsum = fv1[j] + fv2[j]
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fv1[j]) + abs(fv2[j]))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list, nrmax: int) -> tuple:
    """dqpsrt: keep ``iord`` descending in ``elist`` after a bisection; (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
    else:
        errmax = elist[maxerr]
        # a difficult integrand may have raised the error: insert from nrmax up
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # only the part of the list that later bisections can reach stays sorted
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmax here, then errmin traversing bottom-up
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        break
                    iord[k + 1] = isucc
                    k -= 1
                iord[k + 1] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd], iord[jupbn] = maxerr, last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab: list, res3la: list, nres: int) -> tuple:
    """dqelg: one step of Wynn's epsilon algorithm on ``epstab[1..n]``;
    (new n, extrapolated value, its error estimate, number of calls)."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = k1 = n
        for i in range(1, newelm + 1):
            res = epstab[k1 + 2]
            e0, e1, e2 = epstab[k1 - 2], epstab[k1 - 1], res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if err2 <= tol2 and err3 <= tol3:
                # e0, e1 and e2 agree to machine accuracy: converged
                return n, res, max(err2 + err3, 5.0 * _EPMACH * abs(res)), nres
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1  # two close elements: drop the rest of the table
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            if not abs(ss * e1) > 1e-4:
                n = i + i - 1  # irregular behaviour: drop the rest of the table
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if error <= abserr:
                abserr, result = error, res
        # shift the table
        if n == _LIMEXP:
            n = 2 * (_LIMEXP // 2) - 1
        ib = 2 if num % 2 == 0 else 1
        for _ in range(newelm + 1):
            epstab[ib] = epstab[ib + 2]
            ib += 2
        if num != n:
            epstab[1 : n + 1] = epstab[num - n + 1 : num + 1]
        if nres < 4:
            res3la[nres] = result
            abserr = _OFLOW
        else:
            abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
            res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
