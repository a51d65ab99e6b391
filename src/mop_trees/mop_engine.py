"""Multiple orthogonal polynomials of types I and II for a system of d measures.

All solves run in extended precision (default 256-bit) on raw monomial
moments; the moment matrices are Hankel-structured and severely
ill-conditioned in double precision, but 256 bits comfortably covers
multi-indices up to |n| ~ 40 for the systems treated here.

Conventions, for a multi-index n = (n_1, ..., n_d) in N^d, a tuple whose
length d is the system's number of measures, and e_i its i-th unit vector:

* type II: monic P_n, deg P_n = |n|, with ``int P_n x^m dmu_k = 0`` for
  m < n_k, k = 1..d;
* type I: (A_1, ..., A_d) with deg A_k = n_k - 1 (A_k = 0 when n_k = 0), the
  linear form Q_n = sum_k A_k dmu_k orthogonal to degrees <= |n| - 2 and
  normalized by ``int x^{|n|-1} Q_n = 1``; A0 is the polynomial part of the
  Cauchy transform of Q_n, so that L_n = sum_k A_k markov_k - A0;
* nearest-neighbor recurrence
  ``x P_n = P_{n+e_i} + b_{n,i} P_n + sum_j a_{n,j} P_{n-e_j}``
  with a_{n,j} = h_{n,j} / h_{n-e_j,j} and h_{n,j} = int P_n x^{n_j} dmu_j
  (the quantity whose ratio gives a and whose leading order drives the
  second-kind functions; it is signed in general).

The kappa-forms and the type I pattern checks are the paper's d = 2 theory.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import accumulate, permutations

import numpy as np
from mpmath import mp, mpc, mpf, workprec

from . import _poly as P
from .errors import ConvergenceError, DomainError, NormalityError, PrecisionError, ZeroError
from .measures import kernel

_ZERO = mpf(0)


def multi_index(n, d: int | None = None) -> tuple:
    """n as a tuple of nonnegative Python ints, of length d when d is given."""
    try:
        n = tuple(map(operator.index, n))
    except TypeError:
        raise ValueError(f"a multi-index has integer components, not {n!r}") from None
    if not n or len(n) != (d or len(n)) or min(n) < 0:
        raise ValueError(f"{n} is not a multi-index of {d or 'one or more'} nonnegative components")
    return n


def unit(d: int, i: int) -> tuple:
    """The unit vector e_i (i = 1..d) of N^d."""
    return tuple(int(j == i) for j in range(1, d + 1))


def add(n, e):
    return tuple(a + b for a, b in zip(n, e))


def sub(n, e):
    return tuple(a - b for a, b in zip(n, e))


def order(n):
    return sum(n)


def require_pair(sys) -> None:
    """The kappa-forms and the spectral theory built on them are the paper's d = 2."""
    if len(sys.measures) != 2:
        raise DomainError(f"kappa-forms need a system of two measures, not {len(sys.measures)}")


@dataclass
class MopRecord:
    """Cached data at one multi-index (fields fill lazily)."""

    n: tuple
    P: tuple = ()            # monic type II, ascending mp coefficients
    h: tuple = ()            # (h_1, ..., h_d)
    A: tuple | None = None   # type I (A_1, ..., A_d), each ascending mp coefficients
    A0: tuple | None = None
    rec: tuple | None = None  # (a_1, ..., a_d, b_1, ..., b_d)
    zeros: dict = field(default_factory=dict)  # k -> zeros of P (k = 0) or of A_k

    # the two-measure names, which perfbench's lattice oracle and tracer read
    A1 = property(lambda self: None if self.A is None else self.A[0])
    A2 = property(lambda self: None if self.A is None else self.A[1])


class MopSystem:
    """A tuple of measures plus a write-once cache of MOP data per multi-index.

    Not thread-safe: every solve runs under ``workprec``, which sets the
    process-global mpmath precision.
    """

    def __init__(self, measures, precision_bits: int = 256):
        self.measures = tuple(measures)
        self.units = tuple(unit(len(self.measures), i) for i in range(1, len(self.measures) + 1))
        self.precision_bits = int(precision_bits)
        if not self.measures or self.precision_bits < 1:
            raise ValueError(f"need one or more measures and precision_bits >= 1, got {precision_bits}")
        self._records: dict[tuple, MopRecord] = {}
        self._floats: dict[tuple, tuple] = {}

    def _index(self, n) -> tuple:
        return multi_index(n, len(self.measures))

    @property
    def tolerance(self):
        """2^(-prec/3): the relative bound of the checks on identities that hold exactly."""
        return mpf(2) ** (-self.precision_bits // 3)

    # -- moments -----------------------------------------------------------

    def moments(self, j: int, upto: int) -> list:
        return self.measures[j - 1].moments_mp(upto, self.precision_bits)

    def mass(self, j: int):
        return self.moments(j, 0)[0]

    # -- records -----------------------------------------------------------

    def record(self, n) -> MopRecord:
        """Type II polynomial and the h-values at n (computing if needed)."""
        n = self._index(n)
        rec = self._records.get(n)
        if rec is None:
            rec = self._records[n] = MopRecord(n=n)
        if not rec.P:
            rec.P = self._solve_type2(n)
            rec.h = tuple(self._h_value(rec, j) for j in range(1, len(n) + 1))
        return rec

    def _moment_system(self, n) -> tuple:
        """The type II rows ``mom_k[m : m + |n|]`` (k = 1..d; m < n_k) at n and the
        moments (mom_1, ..., mom_d) they read; the type I matrix is their transpose."""
        d = order(n)
        moms = tuple(self.moments(k, nk + d) for k, nk in enumerate(n, 1))
        return [mom[m : m + d] for nk, mom in zip(n, moms) for m in range(nk)], moms

    def _lu(self, rows, rhs, n, kind: str) -> list:
        try:
            return P.lu_solve(rows, rhs, self.precision_bits)
        except ZeroDivisionError as exc:
            raise NormalityError(f"type {kind} moment matrix singular at n={n}") from exc

    def _solve_type2(self, n) -> tuple:
        d = order(n)
        if d == 0:
            return (mpf(1),)
        rows, moms = self._moment_system(n)
        with workprec(self.precision_bits):
            rhs = [-mom[m + d] for nk, mom in zip(n, moms) for m in range(nk)]
            coeffs = tuple(self._lu(rows, rhs, n, "II")) + (mpf(1),)
            self._check_orthogonality(coeffs, n, moms)
            return coeffs

    def _check_orthogonality(self, coeffs, n, moms):
        # exact identities up to rounding; failure signals a non-normal index
        bound = self.tolerance * max(abs(c) for c in coeffs)
        d = len(coeffs) - 1
        for nk, mom in zip(n, moms):
            top = max([abs(x) for x in mom[:d]], default=_ZERO)  # max |moment| read so far, row by row
            for m in range(nk):
                top = max(top, abs(mom[m + d]))
                r = P.dot(coeffs, mom[m:], self.precision_bits)
                if abs(r) > bound * top:
                    raise NormalityError(f"orthogonality residual too large at n={n}")

    def _h_value(self, rec: MopRecord, j: int):
        n = rec.n
        mom = self.moments(j, n[j - 1] + order(n))
        return P.dot(rec.P, mom[n[j - 1] :], self.precision_bits)

    def type1_record(self, n) -> MopRecord:
        """Type I polynomials (A_1..A_d, A0) at n (computing if needed)."""
        n = self._index(n)
        d = order(n)
        if d < 1:
            raise ValueError("type I requires |n| >= 1")
        rec = self.record(n)
        if rec.A is not None:
            return rec
        rows, moms = self._moment_system(n)
        with workprec(self.precision_bits):
            if d == 1:  # 1/m[0] rounds at the system's precision, the LU at 10 bits more
                A = tuple((1 / mom[0],) if nk == 1 else () for nk, mom in zip(n, moms))
            else:
                c = self._lu(list(zip(*rows)), [mpf(0)] * (d - 1) + [mpf(1)], n, "I")
                A = tuple(tuple(c[lo : lo + nk]) for lo, nk in zip(accumulate(n, initial=0), n))
            # polynomial part of the Cauchy transform of the linear form
            deg0 = max(n) - 2
            a0 = []
            for i in range(max(deg0 + 1, 0)):
                s = mpf(0)
                for coeffs, mom in zip(A, moms):
                    for jj in range(i + 1, len(coeffs)):
                        s += coeffs[jj] * mom[jj - 1 - i]
                a0.append(s)
            rec.A, rec.A0 = A, tuple(a0)
        return rec

    # -- public facade -------------------------------------------------------

    def type2(self, n) -> tuple:
        return self.record(n).P

    def type1(self, n) -> tuple:
        rec = self.type1_record(n)
        return (*rec.A, rec.A0)

    def h_values(self, n) -> tuple:
        return self.record(n).h

    def type1_values(self, n, z) -> tuple:
        """(A0, A_1, ..., A_d) at z, evaluated at ``precision_bits``; 0 for an empty polynomial."""
        rec = self.type1_record(n)
        with workprec(self.precision_bits):
            z = mp.mpmathify(z)
            return tuple([P.pval(c, z) if c else _ZERO for c in (rec.A0, *rec.A)])

    def zeros(self, n, k: int = 0) -> tuple:
        """Real zeros of P_n (k = 0) or of A_n^{(k)} (k = 1..d), ascending mpf, found
        once per record by :func:`real_zeros`; a constant or empty polynomial has none."""
        rec = self.record(n) if k == 0 else self.type1_record(n)
        if k not in rec.zeros:
            c = rec.P if k == 0 else rec.A[k - 1]
            rec.zeros[k] = tuple(real_zeros(c, self.precision_bits)) if len(c) > 1 else ()
        return rec.zeros[k]

    def recurrence(self, n) -> tuple:
        """(a_1, ..., a_d, b_1, ..., b_d) at n, with a_{n,i} = 0 when n_i = 0."""
        rec = self.record(n)
        if rec.rec is not None:
            return rec.rec
        n, d = rec.n, order(rec.n)
        with workprec(self.precision_bits):
            lead_low = rec.P[d - 1] if d >= 1 else mpf(0)
            b = [lead_low - self.record(add(n, e)).P[d] for e in self.units]
            a = []
            for j, e in enumerate(self.units):
                hden = self.record(sub(n, e)).h[j] if n[j] else None
                if hden == 0:
                    raise NormalityError(f"vanishing h at n={sub(n, e)}, j={j + 1}")
                a.append(rec.h[j] / hden if n[j] else mpf(0))
            self._check_recurrence(n, a, b)
            rec.rec = (*a, *b)
        return rec.rec

    def recurrence_float(self, n) -> tuple:
        """:meth:`recurrence` in double precision, converted once per point and system."""
        n = self._index(n)
        row = self._floats.get(n)
        if row is None:
            row = self._floats[n] = tuple(float(c) for c in self.recurrence(n))
        return row

    def _check_recurrence(self, n, a, b):
        # x P_n - P_{n+e_i} - b_i P_n - sum_j a_j P_{n-e_j} must vanish for every i
        pn = self.record(n).P
        for bi, e in zip(b, self.units):
            r = P.pxshift(pn)
            r = P.padd(r, P.pscale(self.record(add(n, e)).P, -1))
            r = P.padd(r, P.pscale(pn, -bi))
            for aj, ej in zip(a, self.units):
                if aj != 0:  # a_j = 0 where n_j = 0
                    r = P.padd(r, P.pscale(self.record(sub(n, ej)).P, -aj))
            scale = max(abs(c) for c in pn) + abs(bi) + sum(abs(aj) for aj in a)
            if max(abs(c) for c in r) > self.tolerance * max(scale, 1):
                raise PrecisionError(f"nearest-neighbor recurrence fails at n={n} at {self.precision_bits} bits")

    def record_json(self, n) -> dict:
        """Export one record: coefficients ascending, double precision."""
        n = self._index(n)
        rec = self.record(n) if order(n) == 0 else self.type1_record(n)
        row, d = self.recurrence(n), len(n)
        return {
            "n": list(n),
            "P": P.pfloat(rec.P),
            **{f"A{k}": P.pfloat(c) for k, c in enumerate(rec.A or ((),) * d, 1)},
            "a": [float(c) for c in row[:d]],
            "b": [float(c) for c in row[d:]],
            "h": [float(c) for c in rec.h],
        }


# ---------------------------------------------------------------------------
# consistency conditions
# ---------------------------------------------------------------------------


def consistency_residual_from(coef, n) -> tuple:
    """Residuals of the three lattice compatibility identities at n.

    ``coef(m) -> (a_1..a_d, b_1..b_d)`` supplies coefficients; n must have
    every component >= 1.  Returns max absolute residuals (r1, r2, r3) over
    i != j.
    """
    d = len(n)
    r1 = r2 = r3 = 0
    for i, j in permutations(range(d), 2):  # a_i is row[i], b_i is row[d + i] (0-based i)
        ei, ej = unit(d, i + 1), unit(d, j + 1)
        c, ci, cj, cl = coef(n), coef(add(n, ei)), coef(add(n, ej)), coef(sub(n, ei))
        bi, bj = d + i, d + j
        r1 = max(r1, abs((ci[bj] - c[bj]) - (cj[bi] - c[bi])))
        r2 = max(r2, abs((sum(cj[:d]) - sum(ci[:d])) - (cj[bi] * c[bj] - ci[bj] * c[bi])))
        r3 = max(r3, abs(c[i] * (c[bj] - c[bi]) - cj[i] * (cl[bj] - cl[bi])))
    return r1, r2, r3


def consistency_residual(sys: MopSystem, n) -> tuple:
    """Consistency residuals at n computed from the system's own coefficients."""
    if min(sys._index(n)) < 1:
        raise ValueError("consistency conditions require every component of n >= 1")
    with workprec(sys.precision_bits):
        return consistency_residual_from(sys.recurrence, n)


def type1_recursion_residual(sys: MopSystem, n, i: int, j: int):
    """Coefficientwise residual of the type I nearest-neighbor recursion at n.

    ``x A_n^{(j)} = A_{n-e_i}^{(j)} + b_{n-e_i,i} A_n^{(j)}
    + sum_k a_{n,k} A_{n+e_k}^{(j)}`` for n with every component >= 1.
    """
    if min(sys._index(n)) < 1:
        raise ValueError("type I recursion requires every component of n >= 1")
    d, ei = len(n), sys.units[i - 1]
    with workprec(sys.precision_bits):
        def aj(m):
            return sys.type1_record(m).A[j - 1]

        a = sys.recurrence(n)[:d]
        b_i = sys.recurrence(sub(n, ei))[d + i - 1]
        r = P.pxshift(aj(n)) if aj(n) else ()
        terms = [(aj(sub(n, ei)), mpf(-1)), (aj(n), -b_i)]
        terms += [(aj(add(n, e)), -ak) for e, ak in zip(sys.units, a)]
        for coeffs, s in terms:
            if coeffs:
                r = P.padd(r, P.pscale(coeffs, s))
        return max(abs(c) for c in r) if r else mpf(0)


# ---------------------------------------------------------------------------
# second-kind functions
# ---------------------------------------------------------------------------


class SecondKind:
    """The second-kind family n -> L_n(z) at one z off the supports, prepared
    once: z at ``precision_bits`` and the mp Markov values
    ``(markov_1(z), ..., markov_d(z))``, which every L_n(z) and the root
    kappa-form at z (:meth:`KappaForm.combine`) read."""

    def __init__(self, sys: MopSystem, z):
        self.sys = sys
        prec = sys.precision_bits
        with workprec(prec):
            self.z = mpc(z)
            self.markov = tuple(mu.markov_mp(self.z, prec) for mu in sys.measures)

    def __call__(self, n):
        """L_n(z) through its partial-fraction form ``sum_k A_k*markov_k - A0``."""
        with workprec(self.sys.precision_bits):
            a0, *a = self.sys.type1_values(n, self.z)
            return sum(ak * mk for ak, mk in zip(a, self.markov)) - a0


def second_kind(sys: MopSystem, n, z):
    """L_n(z) off the supports, in extended precision.

    L_n is evaluated through its partial-fraction form
    ``sum_k A_k*markov_k - A0`` (large cancellation, hence mp).  The
    functions R_{n,k} are the Cauchy transforms ``cauchy(mu_k, z, P_n)``.
    ``z`` is a point, or the :class:`SecondKind` family of ``sys`` prepared
    at one: values at one z then share its Markov pair.
    """
    family = z if isinstance(z, SecondKind) else SecondKind(sys, z)
    if family.sys is not sys:
        raise ValueError("the second-kind family belongs to another system")
    return family(n)


def second_kind_boundary(sys: MopSystem, n, x: float, side: str = "+"):
    """Boundary value of L_n on an ac piece via the Plemelj split of the linear form.

    Computed as ``pv int q_n(t)/(x-t) dt -/+ i*pi*q_n(x)`` where q_n is the
    density of the linear form; this route avoids the A0 cancellation and is
    accurate in double precision for moderate |n|.
    """
    return linear_form(sys, n)(x, side)


def second_kind_boundary_mp(sys: MopSystem, n, x, side: str = "+"):
    """Extended-precision boundary value of L_n (same Plemelj route)."""
    return linear_form(sys, n, sys.precision_bits)(x, side)


def _sides(sys: MopSystem, x, side) -> tuple:
    """Per measure, ``side`` if one of its ac pieces strictly holds x (each
    point of a 1-D array x), else None."""
    x = np.atleast_1d(x)
    held = [np.any([(p.a < x) & (x < p.b) for p in mu.pieces], axis=0).all() for mu in sys.measures]
    if not any(held):
        raise DomainError("boundary value requires x inside an ac piece")
    return tuple([side if h else None for h in held])


def linear_form(sys: MopSystem, n, prec=None):
    """The transform of the linear form ``sum_k A_k dmu_k`` at n, prepared
    once: a function of (x, side) that gives the boundary value on the
    measure holding x plus the plain Cauchy transform on the others."""
    rec = sys.type1_record(n)
    parts = [(j, kernel(mu, c, prec)) for j, (mu, c) in enumerate(zip(sys.measures, rec.A)) if c]

    def value(x, side="+"):
        sides = _sides(sys, x, side)
        vals = [kern(x, sides[j]) for j, kern in parts]
        if prec is None:
            return sum(vals)
        with workprec(prec):
            return mp.fsum(vals)

    return value


class KappaForm:
    """The kappa-form ``kappa2 L_{e1}(z) + kappa1 L_{e2}(z) = (kappa2/|mu1|) markov1 + (kappa1/|mu2|) markov2``,
    the boundary form of the formal root parent (the components swap).

    Its weights ``(kappa2/|mu1|, kappa1/|mu2|)`` (mpf with ``prec``) and the
    two Markov kernels are resolved once.  With ``side``, as in :func:`cauchy`,
    the measure whose ac piece strictly holds the real z gives its boundary
    value and the other its plain transform.
    """

    def __init__(self, sys: MopSystem, kappa, prec=None):
        require_pair(sys)
        self.sys, self.prec = sys, prec
        if prec is None:
            self.weights = kappa[1] / float(sys.mass(1)), kappa[0] / float(sys.mass(2))
        else:
            with workprec(prec):
                self.weights = mpf(kappa[1]) / sys.mass(1), mpf(kappa[0]) / sys.mass(2)
        self.kernels = tuple(kernel(mu, (), prec) for mu in sys.measures)

    def markov(self, z, side=None) -> tuple:
        """(markov1, markov2) at z; with ``side``, the boundary value on the measure holding z."""
        sides = (None, None) if side is None else _sides(self.sys, z, side)
        return self.kernels[0](z, sides[0]), self.kernels[1](z, sides[1])

    def combine(self, markov: tuple):
        """The form from a Markov pair: the one :meth:`markov` returns, or a :class:`SecondKind`'s."""
        (w1, w2), (m1, m2) = self.weights, markov
        if self.prec is None:
            return w1 * m1 + w2 * m2
        with workprec(self.prec):
            return w1 * m1 + w2 * m2

    def __call__(self, z, side=None):
        return self.combine(self.markov(z, side))


# ---------------------------------------------------------------------------
# zeros and interlacing
# ---------------------------------------------------------------------------


def _polish(cm, seeds, prec: int) -> list:
    """Newton-polish each seed on the mpf coefficients ``cm``.

    Accepts a step either below the target tolerance or stagnating at the
    rounding floor of the evaluation; anything else raises
    :class:`ConvergenceError`.
    """
    out = []
    with workprec(prec + 16):
        dcm = P.pder(cm)
        tol = mpf(2) ** (-(prec - 8))
        floor_tol = mpf(2) ** (-(prec // 2))
        for s in seeds:
            x = mpf(s)
            ok = False
            prev = None
            for _ in range(80):
                fx = P.pval(cm, x)
                dfx = P.pval(dcm, x)
                if dfx == 0:
                    break
                dx = abs(fx / dfx)
                x -= fx / dfx
                if dx <= tol * max(1, abs(x)) or (
                    prev is not None and prev <= floor_tol and dx >= prev / 2
                ):
                    ok = True
                    break
                prev = dx
            if not ok:
                raise ConvergenceError("Newton polish failed for a real zero")
            out.append(x)
    return out


def _shifted_seeds(cm, prec: int) -> list:
    """Real companion-matrix seeds for the mpf coefficients ``cm`` (degree >= 1).

    The polynomial is Taylor-shifted in mp to its root centroid, then scaled
    in double by the power of two above a Fujiwara-type root radius (exact),
    so that the double-precision rounding of the coefficients stays harmless
    for real-rooted input.
    """
    d = len(cm) - 1
    with workprec(prec):
        c = list(cm)
        mu = -c[d - 1] / (d * c[d])
        for i in range(d):  # Horner shift x -> mu + t
            for j in range(d - 1, i - 1, -1):
                c[j] = c[j] + mu * c[j + 1]
        ratios = [float(ck / c[d]) for ck in c[:d]]
    r = 2 * max(abs(q) ** (1 / (d - k)) for k, q in enumerate(ratios))
    if r == 0:
        return [float(mu)] * d
    e = math.frexp(r)[1]  # 2^e > r
    roots = np.roots([1.0] + [math.ldexp(ratios[k], -e * (d - k)) for k in range(d - 1, -1, -1)])
    return [float(mu) + math.ldexp(t.real, e) for t in roots if abs(t.imag) <= 1e-6 * max(1.0, abs(t))]


def real_zeros(coeffs, prec: int = 256) -> list:
    """All real zeros of a polynomial, Newton-polished in extended precision.

    One loop: seed from the current quotient (:func:`_shifted_seeds`),
    polish the zeros found so far together with the new seeds on the
    original coefficients, deduplicate, and deflate the found zeros out of
    the original to get the next quotient.  The loop stops when a round adds
    no zero, so separated clusters that one companion matrix misses are
    picked up from the quotient.  Zeros are returned sorted ascending as mpf
    values.
    """
    with workprec(prec + 16):
        cm = [c if hasattr(c, "_mpf_") else mpf(c) for c in coeffs]
        while cm and cm[-1] == 0:
            cm.pop()
        if not cm:
            raise ValueError("real_zeros requires a nonzero polynomial")
        found, quotient = [], cm
        while len(found) < len(cm) - 1:
            zeros = []
            for r in sorted(_polish(cm, found + _shifted_seeds(quotient, prec), prec)):
                if not zeros or abs(r - zeros[-1]) > mpf(1e-12) * max(1, abs(r)):
                    zeros.append(r)
            if len(zeros) <= len(found):
                break
            found, quotient = zeros, cm
            for r in found:
                quotient = _deflate(quotient, r)
    return found


def _deflate(coeffs, r):
    out = [mpf(0)] * (len(coeffs) - 1)
    carry = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        out[i] = carry
        carry = coeffs[i] + carry * r
    return tuple(out)


def _strict_interlace(inner, outer) -> bool:
    """outer has len(inner)+1 points and they strictly alternate."""
    if len(outer) != len(inner) + 1:
        return False
    seq = [v for pair in zip(outer, inner) for v in pair] + [outer[-1]]
    return all(a < b for a, b in zip(seq[:-1], seq[1:]))


def interlacing_check(sys: MopSystem, n, i: int) -> bool:
    """Strict interlacing of the zeros of P_n and P_{n+e_i}."""
    zn = sys.zeros(n)
    zu = sys.zeros(add(n, sys.units[i - 1]))
    if len(zn) != order(n) or len(zu) != order(n) + 1:
        raise ZeroError(f"zero count mismatch at n={n} (multiple root?)")
    return _strict_interlace(zn, zu)


def type1_interlacing_check(sys: MopSystem, n, k: int, l: int) -> bool:
    """Zero localization and interlacing pattern for the type I polynomials.

    Checks that A_n^{(k)} has exactly n_k - 1 simple zeros in the hull of
    mu_k, then the ordering against A_{n+e_l}^{(k)}: for k != l the counts
    match and one family strictly dominates the other (adding e_1 pushes the
    second-family zeros right, adding e_2 pulls the first-family zeros left);
    for k = l the larger family brackets the smaller one.
    """
    lo, hi = sys.measures[k - 1].hull()

    def zeros_of(m):
        z = sys.zeros(m, k)
        if len(z) != max(m[k - 1] - 1, 0):
            raise ZeroError(f"type I zero count mismatch at n={n}, k={k}")
        if not all(lo <= float(x) <= hi for x in z):
            raise ZeroError(f"type I zeros leave the host interval at n={n}, k={k}")
        return z

    zn = zeros_of(n)
    zu = zeros_of(add(n, sys.units[l - 1]))
    if k == l:
        return _strict_interlace(zn, zu) if zn or zu else True
    # equal counts: strict alternation with the stated dominance direction
    if len(zn) != len(zu):
        return False
    # zeros of A_{n+e_1}^{(2)} dominate for (k, l) = (2, 1), of A_n^{(1)} for (1, 2)
    first, second = (zn, zu) if (k, l) == (2, 1) else (zu, zn)
    merged = [v for pair in zip(first, second) for v in pair]
    return all(a < b for a, b in zip(merged[:-1], merged[1:]))


def sign_lambda_check(sys: MopSystem, n) -> bool:
    """Signs of the leading type I coefficients for a system with ordered disjoint hulls."""
    a1, a2 = sys.type1_record(n).A  # A_1 leads with the sign (-1)^{n2}, A_2 positively
    return bool((not a1 or (a1[-1] > 0) == (n[1] % 2 == 0)) and (not a2 or a2[-1] > 0))
