"""Independent oracles for the benchmark's queries.

Nothing here calls into ``mop_trees``: the exact data of uniform pieces come
from rational moments solved by Fraction elimination, and the lattice
identities are written out again instead of reusing the library's checks.
Tolerances are the pinned acceptance tolerances of the test suite; no looser
ones are introduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from mpmath import mp, mpf, workprec

# pinned acceptance tolerances (tests/test_acceptance.py)
CONSISTENCY_ABS = 1e-25      # criterion 3, absolute
GREEN_REL = 1e-6             # criterion 7, formula vs sparse-LU resolvent
EIGVEC_RESIDUAL = 1e-8       # criterion 7, generalized eigenfunction rows
DENSE_GAP = 1e-10            # criterion 1, Angelesco finite trees
GRAM_OFFDIAG = 1e-9          # criterion 2
MASS_ABS = 1e-8              # criteria 7 and 9, unit spectral masses
XI_SPREAD = 1e-9             # criterion 8, reference measure independence of xi
UNIT_IDENTITY = 1e-10        # criterion 9, unit identity on the cuts

_ORACLE_BITS = 512
_DIGITS_CAP = 300.0


@dataclass(frozen=True)
class Verdict:
    """Outcome of one oracle check; ``digits`` is None for pass/fail checks."""

    what: str
    ok: bool
    digits: float | None = None


def within(what: str, err, tol: float) -> Verdict:
    """err <= tol, with -log10(err) as the digits of agreement."""
    err = abs(float(err))
    if not math.isfinite(err):
        return Verdict(what, False, None)
    digits = _DIGITS_CAP if err == 0 else min(_DIGITS_CAP, -math.log10(err))
    return Verdict(what, err <= tol, digits)


def holds(what: str, cond) -> Verdict:
    return Verdict(what, bool(cond))


# ---------------------------------------------------------------------------
# exact rational data of a pair of uniform measures
# ---------------------------------------------------------------------------


def _uniform_moment(a: Fraction, b: Fraction, k: int) -> Fraction:
    return (b ** (k + 1) - a ** (k + 1)) / (k + 1)


def _solve(A, rhs):
    """Gaussian elimination with partial pivoting over the rationals."""
    n = len(rhs)
    M = [row[:] + [rhs[i]] for i, row in enumerate(A)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(M[r][col]))
        if M[piv][col] == 0:
            raise ZeroDivisionError("singular rational system")
        M[col], M[piv] = M[piv], M[col]
        for r in range(col + 1, n):
            if M[r][col]:
                f = M[r][col] / M[col][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        x[i] = (M[i][n] - sum(M[i][j] * x[j] for j in range(i + 1, n))) / M[i][i]
    return x


class ExactUniformPair:
    """Exact moments, type II polynomials and recurrence coefficients of a
    pair of measures made of unit-density pieces (read from a system file)."""

    def __init__(self, mu1_doc: dict, mu2_doc: dict):
        self._pieces = (self._uniform_pieces(mu1_doc), self._uniform_pieces(mu2_doc))
        self._moms: tuple[list, list] = ([], [])
        self._zeros: dict = {}
        self.type2 = lru_cache(maxsize=None)(self._type2)

    @staticmethod
    def _uniform_pieces(doc: dict) -> list:
        if doc.get("atoms"):
            raise ValueError("exact oracle supports atomless measures only")
        out = []
        for p in doc["pieces"]:
            if p.get("density", {"kind": "uniform"}).get("kind") != "uniform":
                raise ValueError("exact oracle supports uniform pieces only")
            out.append((Fraction(p["a"]), Fraction(p["b"])))
        return out

    def moment(self, j: int, k: int) -> Fraction:
        table = self._moms[j - 1]
        while len(table) <= k:
            m = len(table)
            table.append(sum(_uniform_moment(a, b, m) for a, b in self._pieces[j - 1]))
        return table[k]

    def _type2(self, n) -> tuple:
        d = n[0] + n[1]
        if d == 0:
            return (Fraction(1),)
        A, rhs = [], []
        for j, nk in ((1, n[0]), (2, n[1])):
            for m in range(nk):
                A.append([self.moment(j, m + i) for i in range(d)])
                rhs.append(-self.moment(j, m + d))
        return tuple(_solve(A, rhs)) + (Fraction(1),)

    def zeros(self, n) -> list:
        """Brackets (lo, hi) of the zeros of the type II polynomial P_n, sorted.

        Double-precision companion roots are refined by Newton steps on the
        exact coefficients, and each zero is certified by a sign change of
        P_n across a bracket of relative width 2e-40; returns None when the
        brackets do not give deg P_n distinct real zeros.
        """
        if n not in self._zeros:
            coeffs = self.type2(n)
            roots = np.roots([float(c) for c in reversed(coeffs)]) if len(coeffs) > 1 else []
            out = []
            with workprec(_ORACLE_BITS):
                p = [_mp(c) for c in reversed(coeffs)]
                dp = [c * (len(p) - 1 - k) for k, c in enumerate(p[:-1])]
                for r in roots:
                    x = mpf(float(r.real))
                    for _ in range(60):
                        step = mp.polyval(p, x) / mp.polyval(dp, x)
                        x -= step
                        if abs(step) < mpf(2) ** (-_ORACLE_BITS // 2):
                            break
                    d = mpf(10) ** -40 * max(1, abs(x))
                    if mp.polyval(p, x - d) * mp.polyval(p, x + d) >= 0:
                        out = None
                        break
                    out.append((x - d, x + d))
            if out is not None:
                out.sort()
                if any(a[1] >= b[0] for a, b in zip(out, out[1:])):
                    out = None
            self._zeros[n] = out
        return self._zeros[n]

    def h(self, n, j: int) -> Fraction:
        return sum(c * self.moment(j, n[j - 1] + i) for i, c in enumerate(self.type2(n)))

    def recurrence(self, n) -> tuple:
        """(a1, a2, b1, b2) at n, exactly."""
        d = n[0] + n[1]
        p = self.type2(n)
        low = p[d - 1] if d >= 1 else Fraction(0)
        b = [low - self.type2((n[0] + 1, n[1]) if i == 1 else (n[0], n[1] + 1))[d] for i in (1, 2)]
        a = []
        for j in (1, 2):
            if n[j - 1] == 0:
                a.append(Fraction(0))
                continue
            m = (n[0] - 1, n[1]) if j == 1 else (n[0], n[1] - 1)
            a.append(self.h(n, j) / self.h(m, j))
        return (a[0], a[1], b[0], b[1])


def _mp(x) -> mpf:
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    return mpf(x)


def recurrence_vs_exact(exact: ExactUniformPair, n, got) -> Verdict:
    """Absolute error of (a1, a2, b1, b2) against the exact rationals."""
    with workprec(_ORACLE_BITS):
        err = max(abs(_mp(g) - _mp(e)) for g, e in zip(got, exact.recurrence(n)))
    return within(f"recurrence{tuple(n)} exact", err, CONSISTENCY_ABS)


def type1_biorthogonality(exact: ExactUniformPair, n, A1, A2) -> Verdict:
    """Residual of int x^k (A1 dmu1 + A2 dmu2) = delta_{k,|n|-1}, k < |n|,
    with exact moments."""
    d = n[0] + n[1]
    with workprec(_ORACLE_BITS):
        err = mpf(0)
        for k in range(d):
            s = mp.fsum(_mp(c) * _mp(exact.moment(1, i + k)) for i, c in enumerate(A1 or ()))
            s += mp.fsum(_mp(c) * _mp(exact.moment(2, i + k)) for i, c in enumerate(A2 or ()))
            err = max(err, abs(s - (1 if k == d - 1 else 0)))
    return within(f"type1{tuple(n)} biorthogonality", err, CONSISTENCY_ABS)


def interlacing_vs_exact(exact: ExactUniformPair, n, i: int) -> Verdict:
    """Strict interlacing of the zeros of the exact P_n and P_{n+e_i}: their
    certified brackets are disjoint and alternate."""
    up = (n[0] + 1, n[1]) if i == 1 else (n[0], n[1] + 1)
    zn, zu = exact.zeros(tuple(n)), exact.zeros(up)
    ok = (zn is not None and zu is not None and len(zu) == len(zn) + 1
          and all(zu[k][1] < zn[k][0] and zn[k][1] < zu[k + 1][0] for k in range(len(zn))))
    return holds(f"interlacing{tuple(n)},{i} exact", ok)


# ---------------------------------------------------------------------------
# lattice identities, written out independently of the library's checks
# ---------------------------------------------------------------------------


def consistency_identities(coef, n) -> Verdict:
    """The three compatibility identities of nearest-neighbor coefficients at n.

    ``coef(m) -> (a1, a2, b1, b2)``; n must have both components >= 1.
    """
    def shift(m, i, s=1):
        return (m[0] + s, m[1]) if i == 1 else (m[0], m[1] + s)

    with workprec(_ORACLE_BITS):
        c = {}

        def a(m, i):
            if m not in c:
                c[m] = [_mp(x) for x in coef(m)]
            return c[m][i - 1]

        def b(m, i):
            a(m, 1)
            return c[m][i + 1]

        err = mpf(0)
        for i, j in ((1, 2), (2, 1)):
            ni, nj = shift(n, i), shift(n, j)
            err = max(err, abs((b(ni, j) - b(n, j)) - (b(nj, i) - b(n, i))))
            lhs = a(nj, 1) + a(nj, 2) - a(ni, 1) - a(ni, 2)
            err = max(err, abs(lhs - (b(nj, i) * b(n, j) - b(ni, j) * b(n, i))))
            low = shift(n, i, -1)
            lhs = a(n, i) * (b(n, j) - b(n, i))
            err = max(err, abs(lhs - a(nj, i) * (b(low, j) - b(low, i))))
    return within(f"consistency{tuple(n)}", err, CONSISTENCY_ABS)


def nikishin_sign_expected(n, j: int) -> int:
    """Sign of a_{n,j} on a Nikishin system: (-1)^(j-1) for n2 <= n1, flipped above."""
    return (-1) ** (j - 1) if n[1] <= n[0] else (-1) ** j
