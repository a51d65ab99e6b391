"""Multiple orthogonal polynomials of types I and II for a system of d measures.

When every moment is an exact rational (uniform pieces and atoms), the records
are filled level by level in |n| from the nearest-neighbor recurrence in exact
arithmetic, each value rounded once (:meth:`MopSystem._fill`); other moments go
through an mp LU on the Hankel moment systems at ``precision_bits`` (default
256), which raises where it runs short of digits.  Every record is checked.

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
from fractions import Fraction
from itertools import accumulate, permutations, product, zip_longest

import numpy as np
from mpmath import lu_solve, matrix, mp, mpc, mpf, workprec
from mpmath.libmp import from_man_exp, fzero, to_rational
from mpmath.libmp import round_nearest as RND

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


def label(i, d: int, lo: int = 1) -> int:
    """i as a Python int in lo..d: a measure's label 1..d, or 0..d where 0 names P_n (``zeros``)."""
    try:
        k = operator.index(i)
    except TypeError:
        k = None
    if k is None or not lo <= k <= d:
        raise ValueError(f"label {i!r} is not an integer in {lo}..{d}")
    return k


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


def kappa_pair(kappa) -> tuple:
    """kappa as two floats with kappa1 + kappa2 = 1 (to 1e-12); ValueError otherwise."""
    kappa = tuple(map(float, kappa))
    if len(kappa) != 2 or not abs(kappa[0] + kappa[1] - 1) <= 1e-12:  # a NaN or inf weight fails too
        raise ValueError(f"kappa must be two finite weights summing to 1, not {kappa}")
    return kappa


@dataclass
class MopRecord:
    """Cached data at one multi-index (fields fill lazily)."""

    n: tuple
    P: tuple = ()            # monic type II, ascending mp coefficients
    h: tuple = ()            # (h_1, ..., h_d)
    A: tuple | None = None   # type I (A_1, ..., A_d), each ascending mp coefficients
    A0: tuple | None = None
    rec: tuple | None = None  # (a_1, ..., a_d, b_1, ..., b_d)
    exact: tuple | None = None  # lattice fill: P's x^(|n|-1) coefficient and h_1..h_d as Fractions
    zeros: dict = field(default_factory=dict)  # k -> zeros of P (k = 0) or of A_k

    # the two-measure names, which perfbench's lattice oracle and tracer read
    A1 = property(lambda self: None if self.A is None else self.A[0])
    A2 = property(lambda self: None if self.A is None else self.A[1])


def _sources(rec) -> tuple:
    """P_n's x^(|n|-1) coefficient (0 at |n| = 0) and h_1..h_d of a type II record as
    Fractions: the exact rationals of a lattice-fill record, else the values of
    its mpf numbers, formed here and not kept."""
    lead = rec.P[-2] if len(rec.P) > 1 else _ZERO
    return rec.exact or tuple(Fraction(*to_rational(x._mpf_)) for x in (lead, *rec.h))


@dataclass
class _Exact:
    """The lattice fill's exact P_n, h_n, b_{n,i} by 0-based i, and type I (A_1, ..., A_d)."""

    P: list
    h: tuple
    b: dict = field(default_factory=dict)
    A: list | None = None


def _common(p) -> tuple:
    """The rational coefficients of p as (integer numerators, their least common denominator)."""
    den = math.lcm(*(c.denominator for c in p))
    return [c.numerator * (den // c.denominator) for c in p], den


def _dyadic(*groups) -> list:
    """Each group of numbers as integers over one power of two shared by all groups,
    exactly: every mpf is dyadic, and any other number becomes an mpf at the ambient
    precision first.  ValueError for an inf or nan."""
    raws = [[v._mpf_ if hasattr(v, "_mpf_") else mpf(v)._mpf_ for v in g] for g in groups]
    if any(not x[1] and x != fzero for raw in raws for x in raw):  # inf and nan have no mantissa
        raise ValueError("exact integers need finite values")
    e = min([exp for raw in raws for _, man, exp, _ in raw if man], default=0)
    return [[(-man if sign else man) << (exp - e) if man else 0 for sign, man, exp, _ in raw] for raw in raws]


def _exceeds(r: int, scale: int, prec: int) -> bool:
    """|r| > 2^-ceil(prec/3) scale (``MopSystem.tolerance`` times scale), decided on integers."""
    return abs(r) << -(-prec // 3) > scale


def _box(top) -> list:
    """Every multi-index n <= top, by level |n|."""
    return sorted(product(*(range(t + 1) for t in top)), key=order)


def _rounded(xs, prec: int) -> tuple:
    """Each exact rational of xs rounded once at ``prec`` bits."""
    return tuple(P.rational(x.numerator, x.denominator, prec) for x in xs)


def _quotient(num, h, n, j: int, target):
    """num / h, exact, for h = h_{n,j+1}; NormalityError naming n, the label and ``target`` where h is 0."""
    if h == 0:
        raise NormalityError(f"vanishing h at n={n}, j={j + 1}, needed at n={target}")
    return num / h


def _a0(A, moms) -> tuple:
    """A0, the polynomial part of the Cauchy transform of sum_k A_k dmu_k:
    A0[s] = sum_k sum_t A_k[t] mom_k[t - 1 - s], each sum in order."""
    return tuple(sum(ak[t] * mom[t - 1 - s] for ak, mom in zip(A, moms) for t in range(s + 1, len(ak)))
                 for s in range(max(map(len, A)) - 1))


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
        # exact rational moments (uniform pieces and atoms) take the lattice fill, others the mp LU
        exact = all(mu.exact_moments(0) is not None for mu in self.measures)
        self._exact: dict[tuple, _Exact] | None = {} if exact else None
        self._moment_ints: dict[int, tuple] = {}

    def _index(self, n) -> tuple:
        return multi_index(n, len(self.measures))

    @property
    def tolerance(self):
        """2^(-prec/3): the relative bound of the checks on identities that hold exactly."""
        return mpf(2) ** (-self.precision_bits // 3)

    # -- moments -----------------------------------------------------------

    def moments(self, j: int, upto: int) -> list:
        return self.measures[label(j, len(self.measures)) - 1].moments_mp(upto, self.precision_bits)

    def mass(self, j: int):
        return self.moments(j, 0)[0]

    # -- records -----------------------------------------------------------

    def record(self, n) -> MopRecord:
        """Type II polynomial and the h-values at n (computing if needed)."""
        n = self._index(n)
        rec = self._records.get(n)
        if rec is None:
            if self._exact is not None:
                self._fill(n)
                return self._records[n]
            rec = self._records[n] = MopRecord(n, *self._solve_type2(n))
        return rec

    def _moments_at(self, n) -> tuple:
        """The moments (mom_1, ..., mom_d) that the solves at n read: mom_k up to n_k + |n|."""
        return tuple(mu.moments_mp(nk + order(n), self.precision_bits) for mu, nk in zip(self.measures, n))

    @staticmethod
    def _moment_rows(n, moms) -> list:
        """The type II rows ``mom_k[m : m + |n|]`` (k = 1..d; m < n_k); the type I matrix is their transpose."""
        return [mom[m : m + order(n)] for nk, mom in zip(n, moms) for m in range(nk)]

    def _solve(self, rows, rhs, n, kind: str) -> list:
        """``rows x = rhs`` by ``mpmath.lu_solve`` at ``precision_bits``; NormalityError where
        mpmath calls the matrix singular (ZeroDivisionError) or finds no pivot (TypeError)."""
        try:
            with workprec(self.precision_bits):
                return list(lu_solve(matrix(rows), matrix(rhs)))
        except (ZeroDivisionError, TypeError) as exc:
            raise NormalityError(f"type {kind} moment matrix singular at n={n}") from exc

    def _solve_type2(self, n) -> tuple:
        """(P_n, h) by the mp LU, with h_k the residual ``int P_n x^{n_k} dmu_k``."""
        d, prec = order(n), self.precision_bits
        moms = self._moments_at(n)
        with workprec(prec):
            coeffs = (mpf(1),)
            if d:
                rhs = [-mom[m + d] for nk, mom in zip(n, moms) for m in range(nk)]
                coeffs = tuple(self._solve(self._moment_rows(n, moms), rhs, n, "II")) + coeffs
            self._check_orthogonality(coeffs, n, moms)
            return coeffs, tuple(mp.fsum(map(operator.mul, coeffs, mom[nk:])) for nk, mom in zip(n, moms))

    def _check_orthogonality(self, coeffs, n, moms) -> None:
        """The residuals ``int P x^m dmu_k`` of P = ``coeffs`` vanish for m < n_k up to
        ``tolerance`` times the largest coefficient times the largest moment read so far;
        else n is not normal, NormalityError.  Exact: the values as integers over one
        power of two (:func:`_dyadic`), each residual is an integer sum, rounded nowhere."""
        d = len(coeffs) - 1
        cs, *cols = _dyadic(coeffs, *(mom[: nk + d] for nk, mom in zip(n, moms)))
        scale = max(map(abs, cs))
        for xs in cols:
            top = max(map(abs, xs[:d]), default=0)  # max |moment| read so far, row by row
            for m in range(len(xs) - d):
                top = max(top, abs(xs[m + d]))
                if _exceeds(sum(map(operator.mul, cs, xs[m:])), scale * top, self.precision_bits):
                    raise NormalityError(f"orthogonality residual too large at n={n}")

    def type1_record(self, n) -> MopRecord:
        """Type I polynomials (A_1..A_d, A0) at n (computing if needed)."""
        n = self._index(n)
        d = order(n)
        if d < 1:
            raise ValueError("type I requires |n| >= 1")
        rec = self.record(n)
        if rec.A is not None:
            return rec
        if self._exact is not None:
            self._fill(n)  # the b's that type I reads, also after a fill that raised part way
            self._fill_type1(n)
            return rec
        moms = self._moments_at(n)
        rows = list(zip(*self._moment_rows(n, moms)))  # row m: int x^m Q_n = delta_{m,|n|-1}
        with workprec(self.precision_bits):
            # at |n| = 1 the coefficient 1/m_0 rounds at the system's precision, the LU at 10 bits more
            c = [1 / rows[0][0]] if d == 1 else self._solve(rows, [mpf(0)] * (d - 1) + [mpf(1)], n, "I")
            self._check_type1(c, rows, n)
            A = tuple(tuple(c[lo : lo + nk]) for lo, nk in zip(accumulate(n, initial=0), n))
            rec.A, rec.A0 = A, _a0(A, moms)
        return rec

    def _check_type1(self, coeffs, rows, n) -> None:
        """The type I rows ``int x^m Q_n = delta_{m,|n|-1}`` hold for the coefficients of A up to
        ``tolerance`` times the largest of them times the largest moment read so far; else
        PrecisionError.  Exact, as in :meth:`_check_orthogonality`, with the right-hand
        side 1 among the values: a product is ``one * one`` in the integers' units squared."""
        prec = self.precision_bits
        (one,), cs, *rows = _dyadic((1,), coeffs, *rows)
        scale, top = max(map(abs, cs)), 0
        for m, row in enumerate(rows):
            top = max(top, *map(abs, row))
            r = sum(map(operator.mul, cs, row)) - (one * one if m == len(rows) - 1 else 0)
            if _exceeds(r, scale * top, prec):
                raise PrecisionError(f"type I moments fail at n={n} at {prec} bits")

    # -- the exact lattice fill ---------------------------------------------

    def _moment_sum(self, p, k: int, shift: int):
        """``int p x^shift dmu_k`` for p as :func:`_common` gives it (k 0-based): one integer
        dot product against mu_k's moments over their common denominator."""
        nums, den = p
        moms, mden = self._moment_integers(k, shift + len(nums) - 1)
        return Fraction(sum(map(operator.mul, nums, moms[shift:])), den * mden)

    def _moment_integers(self, k: int, upto: int) -> tuple:
        """([N_0, ..., N_upto, ...], D): moment j of mu_k (k 0-based) is N_j / D."""
        nums, den = self._moment_ints.get(k, ([], 1))
        if len(nums) <= upto:
            nums, den = self._moment_ints[k] = _common(self.measures[k].exact_moments(upto))
        return nums, den

    def _fill(self, top) -> None:
        """The records of the box n <= top, level by level in |n|.  Each P_m gives
        P_{m+e_i} = Q - b_{m,i} P_m, Q = x P_m - sum_j a_{m,j} P_{m-e_j}, for every label
        i with m + e_i in the box; P_{m+e_i} is orthogonal to x^{m_i} dmu_i, so b_{m,i}
        is the moment sum ``int Q x^{m_i} dmu_i`` over h_{m,i}.  All in Fractions; the
        b_{m,i} are kept for type I."""
        if not self._exact:
            self._keep((0,) * len(top), [Fraction(1)])
        for m in _box(top):
            ex = self._exact[m]
            labels = [i for i, (mi, ti) in enumerate(zip(m, top)) if mi < ti and i not in ex.b]
            if not labels:
                continue
            q = [0, *ex.P]
            for j in (j for j, mj in enumerate(m) if mj):  # h_{m-e_j,j} != 0: it gave b_{m-e_j,j}
                low = self._exact[sub(m, self.units[j])]
                a = ex.h[j] / low.h[j]
                q[: len(low.P)] = [x - a * y for x, y in zip(q, low.P)]
            qc = _common(q)
            for i in labels:
                b = ex.b[i] = _quotient(self._moment_sum(qc, i, m[i]), ex.h[i], m, i, top)
                if add(m, self.units[i]) not in self._exact:
                    self._keep(add(m, self.units[i]), [x - b * y for x, y in zip(q, [*ex.P, 0])])

    def _keep(self, n, p) -> None:
        """Record P_n = p (Fractions) and its exact h, each rounded once; P_n is checked as on the LU."""
        pc = _common(p)
        prec, h = self.precision_bits, tuple(self._moment_sum(pc, k, nk) for k, nk in enumerate(n))
        self._exact[n] = _Exact(p, h)
        rec = MopRecord(n, _rounded(p, prec), _rounded(h, prec), exact=(p[-2] if len(p) > 1 else Fraction(0), *h))
        self._check_orthogonality(rec.P, n, self._moments_at(n))
        self._records[n] = rec

    def _fill_type1(self, top) -> None:
        """Type I on the box below ``top``, level by level: on a marginal Q_{k e_i} =
        P_{(k-1) e_i} dmu_i / h_{(k-1) e_i, i}, elsewhere Q_n = (Q_{n-e_i} - Q_{n-e_j}) /
        (b_{n-e_j,j} - b_{n-e_i,i}) for the first two labels with n_i, n_j >= 1 (Van
        Assche, J. Approx. Theory 163 (2011)).  A and A0 are rounded once."""
        prec = self.precision_bits
        for n in _box(top)[1:]:
            ex = self._exact[n]
            if ex.A is not None:
                continue
            i, *js = [k for k, nk in enumerate(n) if nk]
            ni = sub(n, self.units[i])
            if not js:
                low = self._exact[ni]
                A = [[c / low.h[i] for c in low.P] if k == i else [] for k in range(len(n))]
            else:
                nj = sub(n, self.units[js[0]])
                c = self._exact[nj].b[js[0]] - self._exact[ni].b[i]  # not 0: only A_{n-e_j,i} has degree n_i - 1
                A = [[(x - y) / c for x, y in zip_longest(ai, aj, fillvalue=0)]
                     for ai, aj in zip(self._exact[ni].A, self._exact[nj].A)]
            ex.A, rec = A, self._records[n]
            rec.A = tuple(_rounded(ak, prec) for ak in A)
            rec.A0 = _rounded(_a0(A, [mu.exact_moments(nk) for mu, nk in zip(self.measures, n)]), prec)

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
        k = label(k, len(self.measures), 0)
        rec = self.record(n) if k == 0 else self.type1_record(n)
        if k not in rec.zeros:
            c = rec.P if k == 0 else rec.A[k - 1]
            rec.zeros[k] = tuple(real_zeros(c, self.precision_bits)) if len(c) > 1 else ()
        return rec.zeros[k]

    def recurrence(self, n) -> tuple:
        """(a_1, ..., a_d, b_1, ..., b_d) at n, with a_{n,i} = 0 when n_i = 0: the exact
        b_i = P_n[|n| - 1] - P_{n+e_i}[|n|] and a_j = h_{n,j} / h_{n-e_j,j} of the records'
        :func:`_sources`, each rounded once.  On LU records that is the mpf subtraction
        and division; from an exact record's rounded values b would be up to 8.4 ulp off."""
        rec = self.record(n)
        if rec.rec is not None:
            return rec.rec
        n, prec = rec.n, self.precision_bits
        ups = [self.record(add(n, e)) for e in self.units]
        lows = [self.record(sub(n, e)) if nj else None for nj, e in zip(n, self.units)]
        lead, *h = _sources(rec)
        b = _rounded([lead - _sources(up)[0] for up in ups], prec)
        a = _rounded([0 if low is None else _quotient(h[j], _sources(low)[1 + j], low.n, j, n)
                      for j, low in enumerate(lows)], prec)
        self._check_recurrence(rec, ups, lows, a, b)
        rec.rec = (*a, *b)
        return rec.rec

    def recurrence_float(self, n) -> tuple:
        """:meth:`recurrence` in double precision, converted once per point and system."""
        n = self._index(n)
        row = self._floats.get(n)
        if row is None:
            row = self._floats[n] = tuple(float(c) for c in self.recurrence(n))
        return row

    def _check_recurrence(self, rec, ups, lows, a, b):
        """x P_n - P_{n+e_i} - b_i P_n - sum_j a_j P_{n-e_j} must vanish for every i, up to
        ``tolerance`` times max(1, max|P_n| + |b_i| + sum|a_j|); else PrecisionError.
        The records at n, n + e_i and n - e_j come as :meth:`recurrence` fetched them.
        Exact, as :meth:`_check_type1`: a single value u counts as the product ``one * u``."""
        d = len(a)
        (one,), pn, coef, *polys = _dyadic((1,), rec.P, (*a, *b), *(m.P if m else () for m in (*ups, *lows)))
        top = max(map(abs, pn)) + sum(map(abs, coef[:d]))
        for bi, up in zip(coef[d:], polys[:d]):
            r = [one * (x - u) for x, u in zip([0, *pn], up)]
            for c, poly in [(bi, pn), *zip(coef, polys[d:])]:  # -b_i P_n, then -a_j P_{n-e_j} (none where n_j = 0)
                for k, x in enumerate(poly):
                    r[k] -= c * x
            if _exceeds(max(map(abs, r)), max(one, top + abs(bi)) * one, self.precision_bits):
                raise PrecisionError(f"nearest-neighbor recurrence fails at n={rec.n} at {self.precision_bits} bits")

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
    d = len(n)
    i, j = (label(x, d) for x in (i, j))
    ei = sys.units[i - 1]
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
        """L_n(z) through its partial-fraction form ``sum_k A_k*markov_k - A0``, which
        cancels to O(|z|^-|n|) at a large |z|: PrecisionError where |L_n| keeps fewer than
        prec/3 bits against the rounding of its terms, 2^-prec (sum_k |A_k markov_k| + |A0|)."""
        prec = self.sys.precision_bits
        with workprec(prec):
            a0, *a = self.sys.type1_values(n, self.z)
            terms = [ak * mk for ak, mk in zip(a, self.markov)]
            value = sum(terms) - a0
            if not abs(value) >= mp.ldexp(sum(abs(t) for t in terms) + abs(a0), prec // 3 - prec):
                raise PrecisionError(f"L_n at n={tuple(n)}, z={complex(self.z)} keeps fewer than "
                                     f"{prec // 3} bits at {prec} bits")
            return value


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
        kappa = kappa_pair(kappa)
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


def _integers(coeffs, prec: int) -> list:
    """Integers C_k with sum_k coeffs[k] x^k = 2^e sum_k C_k x^k, exactly (:func:`_dyadic`;
    numbers other than mpf at ``prec + 16`` bits), the top zeros dropped."""
    with workprec(prec + 16):
        [c] = _dyadic(coeffs)
    while c and not c[-1]:
        c.pop()
    if not c:
        raise ValueError("real_zeros requires a nonzero polynomial")
    return c


def _radius_exponent(c) -> int:
    """E with every zero of sum c_k x^k below 2^E in modulus: Fujiwara's bound
    2 max |c_k / c_d|^(1/(d-k)), each ratio bounded by the bit lengths."""
    d, top = len(c) - 1, abs(c[-1]).bit_length()
    return 1 + max((-((top - abs(ck).bit_length() - 1) // (d - k)) for k, ck in enumerate(c[:-1]) if ck), default=-1)


def _fixed(q, bits: int) -> list:
    """q scaled by a power of two so that its leading coefficient lies in [2^bits, 2^(bits+1)) (floored)."""
    s = bits + 1 - abs(q[-1]).bit_length()
    return [ck << s for ck in q] if s >= 0 else [ck >> -s for ck in q]


def _ldexp_ratio(a: int, b: int, e: int) -> float:
    """a / b * 2^e as a double, for integers with b > 0 (to about 64 bits)."""
    k = a.bit_length() - b.bit_length() - 64
    return math.ldexp((a << -k) // b if k < 0 else (a >> k) // b, k + e)


def _shifted_seeds(c) -> list:
    """Real companion-matrix seeds for the integer coefficients ``c`` (degree >= 1).

    The polynomial is Taylor-shifted exactly, in integers, to its root centroid
    on the grid 2^-64, then scaled in double by the power of two above a
    Fujiwara-type root radius (exact), so that the double-precision rounding of
    the coefficients stays harmless for real-rooted input.
    """
    d = len(c) - 1
    if c[d] < 0:
        c = [-ck for ck in c]
    m = (-c[d - 1] << 64) // (d * c[d])  # the centroid is m 2^-64, floored
    s = [ck << 64 * (d - k) for k, ck in enumerate(c)]
    for i in range(d):  # Horner shift x = (m + T) 2^-64
        for j in range(d - 1, i - 1, -1):
            s[j] += m * s[j + 1]
    ratios = [_ldexp_ratio(sk, s[d], -64 * (d - k)) for k, sk in enumerate(s[:d])]  # in t = T 2^-64
    mu = math.ldexp(m, -64)
    r = 2 * max(abs(q) ** (1 / (d - k)) for k, q in enumerate(ratios))
    if r == 0:
        return [mu] * d
    e = math.frexp(r)[1]  # 2^e > r
    roots = np.roots([1.0] + [math.ldexp(ratios[k], -e * (d - k)) for k in range(d - 1, -1, -1)])
    return [mu + math.ldexp(t.real, e) for t in roots if abs(t.imag) <= 1e-6 * max(1.0, abs(t))]


def _newton(c, ts, y: int, bits: int, guard: int):
    """Newton's method on the integer Y = y 2^bits for the fixed-point coefficients ``c``
    (leading one near 2^bits, zeros inside the unit disk), each product floored.

    Wherever the next error, predicted from the last two steps, is below a
    sixteenth of the grid step 2^guard, Y is rounded to the grid and returned
    if :func:`_certified` (``ts``) accepts it.  None where the derivative at the
    seed needs more guard bits, the derivative vanishes, Y leaves |y| < 2, the
    steps stop shrinking at the grid scale (a multiple zero, or too few guard
    bits for the rounding) or 80 steps do not converge.
    """
    prev, cell = None, 1 << guard
    for _ in range(80):
        p, dp = c[-1], 0
        for ck in reversed(c[:-1]):
            dp = (dp * y >> bits) + p
            p = (p * y >> bits) + ck
        lost = bits + 1 - dp.bit_length()  # bits by which the derivative lies below the leading coefficient
        if not dp or prev is None and lost + len(c).bit_length() + 8 > guard:
            return None
        step = (p << bits) // dp
        y -= step
        a = abs(step)
        if 16 * a**3 <= (prev or a) ** 2 << guard:
            z = _certified(ts, (y + (cell >> 1)) >> guard)
            if z is not None:
                return z
        if abs(y) >> (bits + 1) or (prev is not None and prev <= cell and 2 * a >= prev):
            return None
        prev = a
    return None


def _sign_at(ts, m: int) -> int:
    """The exact sign of q(m 2^-s) for the terms ts[k] = q_k 2^(s (d - k)), by integer Horner."""
    acc = ts[-1]
    for t in reversed(ts[:-1]):
        acc = acc * m + t
    return (acc > 0) - (acc < 0)


def _certified(ts, y: int):
    """y if q changes sign exactly between its half-grid neighbours (2y -+ 1) 2^-s
    (``ts`` as in :func:`_sign_at`), else None; a zero on the upper neighbour
    belongs to the grid point above."""
    lo, hi = _sign_at(ts, 2 * y - 1), _sign_at(ts, 2 * y + 1)
    if hi == 0:
        return _certified(ts, y + 1)
    return y if lo != hi else None


def _polish(q, seeds, prec: int) -> list:
    """The zero of q (integer coefficients, zeros inside the unit disk) that each
    seed converges to, as the integer Y of the grid point Y 2^-(prec+16) nearest it.

    Newton runs on Y 2^guard with ``guard`` bits relative to the leading
    coefficient, 32 + 3 deg at first.  Y is accepted only where the exact signs of
    q at its half-grid neighbours differ; else the guard doubles and Newton runs
    again from the seed.  After three tries :class:`ConvergenceError`.
    """
    d, grid = len(q) - 1, prec + 16
    ts = [qk << (grid + 1) * (d - k) for k, qk in enumerate(q)]
    out = []
    for seed in seeds:
        num, den = float(seed).as_integer_ratio()
        for guard in ((32 + 3 * d) << t for t in range(3)):
            bits = grid + guard
            y = _newton(_fixed(q, bits), ts, (num << bits) // den, bits, guard)
            if y is not None:
                out.append(y)
                break
        else:
            raise ConvergenceError("Newton polish failed for a real zero")
    return out


def _deflated(c, ys, grid: int) -> list:
    """c with the zeros y 2^-grid divided out, one synthetic division each, floored."""
    for y in ys:
        out = [c[-1]]
        for ck in reversed(c[1:-1]):
            out.append(ck + (out[-1] * y >> grid))
        c = out[::-1]
    return c


def real_zeros(coeffs, prec: int = 256) -> list:
    """All real zeros of a polynomial, each the certified nearest point of a grid.

    The coefficients become integers, exactly, and x = 2^E y maps every zero
    into the unit disk (E from :func:`_radius_exponent`).  A zero is returned
    as the point of the grid 2^(E - prec - 16) nearest it, certified by exact
    integer signs at the two half-grid neighbours (:func:`_polish`), as an mpf
    of ``prec + 16`` bits; it does not depend on the ambient precision or on a
    power-of-two scale of the coefficients.

    One loop: seed from the current quotient (:func:`_shifted_seeds`), polish
    the new seeds on the original, merge zeros closer than 1e-12 (relative
    above 1), and while zeros are missing deflate the found ones out of the
    original to get the next quotient.  The loop stops when a round adds no
    zero, so separated clusters that one companion matrix misses are picked up
    from the quotient.  :class:`ConvergenceError` where a seed finds no
    certified zero, as at a multiple zero.  Sorted ascending.
    """
    c = _integers(coeffs, prec)
    d, e, grid = len(c) - 1, _radius_exponent(c), prec + 16
    q = [ck << (e * k - min(0, e * d)) for k, ck in enumerate(c)]  # proportional to p(2^e y)
    found, quotient = [], q
    while len(found) < d:
        zeros = []
        for y in sorted(found + _polish(q, _shifted_seeds(quotient), prec)):
            if not zeros or 10**12 * (y - zeros[-1]) > max(1 << max(grid - e, 0), abs(y)):
                zeros.append(y)
        if len(zeros) <= len(found):
            break
        found = zeros
        if len(found) < d:
            quotient = _deflated(_fixed(q, grid + 32 + 3 * d), found, grid)  # at _polish's first guard
    return [mp.make_mpf(from_man_exp(y, e - grid, grid, RND)) for y in found]


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
    zu = sys.zeros(add(n, sys.units[label(i, len(sys.measures)) - 1]))
    zn = sys.zeros(n)
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
    k, l = (label(x, len(sys.measures)) for x in (k, l))
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
