"""Multiple orthogonal polynomials of types I and II for a two-measure system.

All solves run in extended precision (default 256-bit) on raw monomial
moments; the moment matrices are Hankel-structured and severely
ill-conditioned in double precision, but 256 bits comfortably covers
multi-indices up to |n| ~ 40 for the systems treated here.

Conventions, for a multi-index n = (n1, n2):

* type II: monic P_n, deg P_n = |n|, with ``int P_n x^m dmu_k = 0`` for
  m < n_k, k in {1, 2};
* type I: (A1, A2) with deg A_k = n_k - 1 (A_k = 0 when n_k = 0), the linear
  form Q_n = A1 dmu1 + A2 dmu2 orthogonal to degrees <= |n| - 2 and
  normalized by ``int x^{|n|-1} Q_n = 1``; A0 is the polynomial part of the
  Cauchy transform of Q_n, so that L_n = A1*markov1 + A2*markov2 - A0;
* nearest-neighbor recurrence
  ``x P_n = P_{n+e_i} + b_{n,i} P_n + a_{n,1} P_{n-e_1} + a_{n,2} P_{n-e_2}``
  with a_{n,i} = h_{n,i} / h_{n-e_i,i} and h_{n,j} = int P_n x^{n_j} dmu_j
  (the quantity whose ratio gives a and whose leading order drives the
  second-kind functions; it is signed in general).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from mpmath import mp, mpc, mpf, workprec

from . import _poly as P
from .errors import ConvergenceError, DomainError, NormalityError, ZeroError
from .measures import Measure, kernel

E1 = (1, 0)
E2 = (0, 1)
_ZERO = mpf(0)


def add(n, e):
    return (n[0] + e[0], n[1] + e[1])


def sub(n, e):
    return (n[0] - e[0], n[1] - e[1])


def order(n):
    return n[0] + n[1]


@dataclass
class MopRecord:
    """Cached data at one multi-index (fields fill lazily)."""

    n: tuple
    P: tuple = ()            # monic type II, ascending mp coefficients
    h: tuple = ()            # (h1, h2)
    A1: tuple | None = None  # type I, ascending mp coefficients
    A2: tuple | None = None
    A0: tuple | None = None
    rec: tuple | None = None  # (a1, a2, b1, b2)
    zeros: dict = field(default_factory=dict)  # k -> zeros of P (k = 0) or of A_k


class MopSystem:
    """Two measures plus a write-once cache of MOP data per multi-index.

    Not thread-safe: every solve runs under ``workprec``, which sets the
    process-global mpmath precision.
    """

    def __init__(self, mu1: Measure, mu2: Measure, precision_bits: int = 256):
        self.mu1 = mu1
        self.mu2 = mu2
        self.precision_bits = int(precision_bits)
        if self.precision_bits < 1:
            raise ValueError(f"precision_bits must be at least 1, got {precision_bits}")
        self._records: dict[tuple, MopRecord] = {}
        self._floats: dict[tuple, tuple] = {}

    # -- moments -----------------------------------------------------------

    def moments(self, j: int, upto: int) -> list:
        mu = self.mu1 if j == 1 else self.mu2
        return mu.moments_mp(upto, self.precision_bits)

    def mass(self, j: int):
        return self.moments(j, 0)[0]

    # -- records -----------------------------------------------------------

    def record(self, n) -> MopRecord:
        """Type II polynomial and the h-values at n (computing if needed)."""
        n = (int(n[0]), int(n[1]))
        if n[0] < 0 or n[1] < 0:
            raise ValueError("multi-index must be componentwise nonnegative")
        rec = self._records.get(n)
        if rec is None:
            rec = self._records[n] = MopRecord(n=n)
        if not rec.P:
            rec.P = self._solve_type2(n)
            rec.h = (self._h_value(rec, 1), self._h_value(rec, 2))
        return rec

    def _moment_system(self, n) -> tuple:
        """The type II rows ``mom_k[m : m + |n|]`` (k = 1, 2; m < n_k) at n and the
        moments (mom_1, mom_2) they read; the type I matrix is their transpose."""
        d = order(n)
        moms = (self.moments(1, n[0] + d), self.moments(2, n[1] + d))
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
        bound = mpf(2) ** (-self.precision_bits // 3) * max(abs(c) for c in coeffs)
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
        """Type I polynomials (A1, A2, A0) at n (computing if needed)."""
        n = (int(n[0]), int(n[1]))
        d = order(n)
        if d < 1:
            raise ValueError("type I requires |n| >= 1")
        rec = self.record(n)
        if rec.A1 is not None:
            return rec
        rows, (m1, m2) = self._moment_system(n)
        with workprec(self.precision_bits):
            if d == 1:  # 1/m[0] rounds at the system's precision, the LU at 10 bits more
                a1 = (1 / m1[0],) if n[0] == 1 else ()
                a2 = (1 / m2[0],) if n[1] == 1 else ()
            else:
                c = self._lu(list(zip(*rows)), [mpf(0)] * (d - 1) + [mpf(1)], n, "I")
                a1, a2 = tuple(c[: n[0]]), tuple(c[n[0] :])
            # polynomial part of the Cauchy transform of the linear form
            deg0 = max(n) - 2
            a0 = []
            for i in range(max(deg0 + 1, 0)):
                s = mpf(0)
                for coeffs, mom in ((a1, m1), (a2, m2)):
                    for jj in range(i + 1, len(coeffs)):
                        s += coeffs[jj] * mom[jj - 1 - i]
                a0.append(s)
            rec.A1, rec.A2, rec.A0 = a1, a2, tuple(a0)
        return rec

    # -- public facade -------------------------------------------------------

    def type2(self, n) -> tuple:
        return self.record(n).P

    def type1(self, n) -> tuple:
        rec = self.type1_record(n)
        return rec.A1, rec.A2, rec.A0

    def h_values(self, n) -> tuple:
        return self.record(n).h

    def type1_values(self, n, z) -> tuple:
        """(A0, A1, A2) at z, evaluated at ``precision_bits``; 0 for an empty polynomial."""
        rec = self.type1_record(n)
        bits = self.precision_bits
        with workprec(bits):
            z = mp.mpmathify(z)
            return tuple([P.pval(c, z) if c else _ZERO for c in (rec.A0, rec.A1, rec.A2)])

    def zeros(self, n, k: int = 0) -> tuple:
        """Real zeros of P_n (k = 0) or of A_n^{(k)} (k = 1, 2), ascending mpf, found
        once per record by :func:`real_zeros`; a constant or empty polynomial has none."""
        rec = self.record(n) if k == 0 else self.type1_record(n)
        if k not in rec.zeros:
            c = (rec.P, rec.A1, rec.A2)[k]
            rec.zeros[k] = tuple(real_zeros(c, self.precision_bits)) if len(c) > 1 else ()
        return rec.zeros[k]

    def recurrence(self, n) -> tuple:
        """(a1, a2, b1, b2) at n, with a_{n,i} = 0 when n_i = 0."""
        n = (int(n[0]), int(n[1]))
        rec = self.record(n)
        if rec.rec is not None:
            return rec.rec
        d = order(n)
        with workprec(self.precision_bits):
            pn = rec.P
            bs = []
            for e in (E1, E2):
                pup = self.record(add(n, e)).P
                lead_low = pn[d - 1] if d >= 1 else mpf(0)
                bs.append(lead_low - pup[d])
            avals = []
            for j, e in ((1, E1), (2, E2)):
                if n[j - 1] == 0:
                    avals.append(mpf(0))
                    continue
                hnum = rec.h[j - 1]
                hden = self.record(sub(n, e)).h[j - 1]
                if hden == 0:
                    raise NormalityError(f"vanishing h at n={sub(n, e)}, j={j}")
                avals.append(hnum / hden)
            a1, a2 = avals
            b1, b2 = bs
            self._check_recurrence(n, a1, a2, b1, b2)
            rec.rec = (a1, a2, b1, b2)
        return rec.rec

    def recurrence_float(self, n) -> tuple:
        """:meth:`recurrence` in double precision, converted once per point and system."""
        n = (int(n[0]), int(n[1]))
        row = self._floats.get(n)
        if row is None:
            row = self._floats[n] = tuple(float(c) for c in self.recurrence(n))
        return row

    def _check_recurrence(self, n, a1, a2, b1, b2):
        # x P_n - P_{n+e_i} - b_i P_n - a1 P_{n-e1} - a2 P_{n-e2} must vanish
        pn = self.record(n).P
        for bi, e in ((b1, E1), (b2, E2)):
            r = P.pxshift(pn)
            r = P.padd(r, P.pscale(self.record(add(n, e)).P, -1))
            r = P.padd(r, P.pscale(pn, -bi))
            for aj, ej in ((a1, E1), (a2, E2)):
                m = sub(n, ej)
                if m[0] >= 0 and m[1] >= 0 and aj != 0:
                    r = P.padd(r, P.pscale(self.record(m).P, -aj))
            scale = max(abs(c) for c in pn) + abs(b1) + abs(a1) + abs(a2)
            if max(abs(c) for c in r) > mpf(1e-18) * max(scale, 1):
                raise NormalityError(f"nearest-neighbor recurrence fails at n={n}")

    def record_json(self, n) -> dict:
        """Export one record: coefficients ascending, double precision."""
        n = (int(n[0]), int(n[1]))
        rec = self.record(n) if order(n) == 0 else self.type1_record(n)
        a1, a2, b1, b2 = self.recurrence(n)
        return {
            "n": list(n),
            "P": P.pfloat(rec.P),
            "A1": P.pfloat(rec.A1 or ()),
            "A2": P.pfloat(rec.A2 or ()),
            "a": [float(a1), float(a2)],
            "b": [float(b1), float(b2)],
            "h": [float(rec.h[0]), float(rec.h[1])],
        }


# ---------------------------------------------------------------------------
# consistency conditions
# ---------------------------------------------------------------------------


def consistency_residual_from(coef, n) -> tuple:
    """Residuals of the three lattice compatibility identities at n.

    ``coef(m) -> (a1, a2, b1, b2)`` supplies coefficients; n must have both
    components >= 1.  Returns max absolute residuals (r1, r2, r3) over
    i != j.
    """
    def a(m, i):
        return coef(m)[i - 1]

    def b(m, i):
        return coef(m)[i + 1]

    r1 = r2 = r3 = 0
    for i, j in ((1, 2), (2, 1)):
        ei = E1 if i == 1 else E2
        ej = E1 if j == 1 else E2
        r1 = max(r1, abs((b(add(n, ei), j) - b(n, j)) - (b(add(n, ej), i) - b(n, i))))
        lhs = sum(a(add(n, ej), k) for k in (1, 2)) - sum(a(add(n, ei), k) for k in (1, 2))
        rhs = b(add(n, ej), i) * b(n, j) - b(add(n, ei), j) * b(n, i)
        r2 = max(r2, abs(lhs - rhs))
        lhs = a(n, i) * (b(n, j) - b(n, i))
        rhs = a(add(n, ej), i) * (b(sub(n, ei), j) - b(sub(n, ei), i))
        r3 = max(r3, abs(lhs - rhs))
    return r1, r2, r3


def consistency_residual(sys: MopSystem, n) -> tuple:
    """Consistency residuals at n computed from the system's own coefficients."""
    if n[0] < 1 or n[1] < 1:
        raise ValueError("consistency conditions require n in N^2")
    with workprec(sys.precision_bits):
        return consistency_residual_from(sys.recurrence, n)


def type1_recursion_residual(sys: MopSystem, n, i: int, j: int):
    """Coefficientwise residual of the type I nearest-neighbor recursion at n.

    ``x A_n^{(j)} = A_{n-e_i}^{(j)} + b_{n-e_i,i} A_n^{(j)}
    + a_{n,1} A_{n+e_1}^{(j)} + a_{n,2} A_{n+e_2}^{(j)}`` for n in N^2.
    """
    if n[0] < 1 or n[1] < 1:
        raise ValueError("type I recursion requires n in N^2")
    ei = E1 if i == 1 else E2
    with workprec(sys.precision_bits):
        def aj(m):
            rec = sys.type1_record(m)
            return rec.A1 if j == 1 else rec.A2

        a1, a2, _, _ = sys.recurrence(n)
        b_i = sys.recurrence(sub(n, ei))[i + 1]
        r = P.pxshift(aj(n)) if aj(n) else ()
        for coeffs, s in (
            (aj(sub(n, ei)), mpf(-1)),
            (aj(n), -b_i),
            (aj(add(n, E1)), -a1),
            (aj(add(n, E2)), -a2),
        ):
            if coeffs:
                r = P.padd(r, P.pscale(coeffs, s))
        return max(abs(c) for c in r) if r else mpf(0)


# ---------------------------------------------------------------------------
# second-kind functions
# ---------------------------------------------------------------------------


class SecondKind:
    """The second-kind family n -> L_n(z) at one z off the supports, prepared
    once: z at ``precision_bits`` and the mp Markov pair
    ``(markov1(z), markov2(z))``, which every L_n(z) and the root kappa-form
    at z (:meth:`KappaForm.combine`) read."""

    def __init__(self, sys: MopSystem, z):
        self.sys = sys
        prec = sys.precision_bits
        with workprec(prec):
            self.z = mpc(z)
            self.markov = (sys.mu1.markov_mp(self.z, prec), sys.mu2.markov_mp(self.z, prec))

    def __call__(self, n):
        """L_n(z) through its partial-fraction form ``A1*markov1 + A2*markov2 - A0``."""
        with workprec(self.sys.precision_bits):
            a0, a1, a2 = self.sys.type1_values(n, self.z)
            return a1 * self.markov[0] + a2 * self.markov[1] - a0


def second_kind(sys: MopSystem, n, z):
    """L_n(z) off the supports, in extended precision.

    L_n is evaluated through its partial-fraction form
    ``A1*markov1 + A2*markov2 - A0`` (large cancellation, hence mp).  The
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
    if isinstance(x, np.ndarray):
        held = [np.any([(p.a < x) & (x < p.b) for p in mu.pieces], axis=0).all() for mu in (sys.mu1, sys.mu2)]
    else:
        held = [any([p.a < x < p.b for p in mu.pieces]) for mu in (sys.mu1, sys.mu2)]
    sides = tuple([side if h else None for h in held])
    if sides == (None, None):
        raise DomainError("boundary value requires x inside an ac piece")
    return sides


def linear_form(sys: MopSystem, n, prec=None):
    """The transform of the linear form ``A1 dmu1 + A2 dmu2`` at n, prepared
    once: a function of (x, side) that gives the boundary value on the
    measure holding x plus the plain Cauchy transform on the other."""
    rec = sys.type1_record(n)
    parts = [(j, kernel(mu, c, prec)) for j, (mu, c) in enumerate(((sys.mu1, rec.A1), (sys.mu2, rec.A2))) if c]

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
        self.sys, self.prec = sys, prec
        if prec is None:
            self.weights = kappa[1] / float(sys.mass(1)), kappa[0] / float(sys.mass(2))
        else:
            with workprec(prec):
                self.weights = mpf(kappa[1]) / sys.mass(1), mpf(kappa[0]) / sys.mass(2)
        self.kernels = (kernel(sys.mu1, (), prec), kernel(sys.mu2, (), prec))

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
    seq = []
    for i, v in enumerate(inner):
        seq.extend([outer[i], v])
    seq.append(outer[-1])
    return all(a < b for a, b in zip(seq[:-1], seq[1:]))


def interlacing_check(sys: MopSystem, n, i: int) -> bool:
    """Strict interlacing of the zeros of P_n and P_{n+e_i}."""
    zn = sys.zeros(n)
    zu = sys.zeros(add(n, E1 if i == 1 else E2))
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
    lo, hi = (sys.mu1 if k == 1 else sys.mu2).hull()

    def zeros_of(m):
        z = sys.zeros(m, k)
        if len(z) != max(m[k - 1] - 1, 0):
            raise ZeroError(f"type I zero count mismatch at n={n}, k={k}")
        if not all(lo <= float(x) <= hi for x in z):
            raise ZeroError(f"type I zeros leave the host interval at n={n}, k={k}")
        return z

    zn = zeros_of(n)
    zu = zeros_of(add(n, E1 if l == 1 else E2))
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
    rec = sys.type1_record(n)
    ok = True
    if rec.A1:
        ok &= (1 if rec.A1[-1] > 0 else -1) == (-1) ** n[1]
    if rec.A2:
        ok &= rec.A2[-1] > 0
    return bool(ok)
