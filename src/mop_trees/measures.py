"""Compactly supported real measures, their moments and their Cauchy transforms.

A :class:`Measure` is a finite list of point masses plus absolutely continuous
pieces carried by disjoint intervals.  Monomial moments come from
``moment(k)`` (double) and ``moments_mp`` (extended precision).  Every
transform of the form ``int g(t) dmu(t) / (z - t)``, with g a polynomial, goes
through one kernel, :func:`cauchy`: the Markov function and its boundary
values (the ``Measure.markov*`` methods), the second-kind functions of the
MOP engine and the bridge integrals of the Angelesco subtree factors.  Off the
support it switches to graded panels near the pole; on an ac piece it gives
the boundary values from above/below by the Plemelj split (principal value
-/+ i*pi*g*density).

Instances are immutable and safe to share: the only state is a cache of
quadrature node tables and prepared kernels (:func:`kernel`), keyed by
everything they depend on.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np
from mpmath import mp, mpc, mpf, workprec
from mpmath.libmp import fone

from ._poly import cauchy_sum, products, pval, pval_exact, raw_dot, shifted
from .errors import DomainError, OverlapError
from .quadrature import graded_panels, map_rule, map_rule_mp

_SUPPORT_TOL = 1e-12
_NEAR_FACTOR = 0.1  # switch to graded panels when the pole is this close (relative)
_PANEL_ORDER = 32
_BATCH_ROWS = 1024  # points per (points, nodes) array of a batched kernel call


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensitySpec:
    """Density of one absolutely continuous piece, evaluated relative to its host interval.

    kind:
      * ``uniform``          -- constant 1,
      * ``jacobi_weight``    -- ``(x-a)^p * (b-x)^q * poly(x)`` with p, q > -1,
      * ``markov_weighted``  -- ``base(x) * weight_measure.markov(x)``; the weight
        measure's support must be disjoint from the host interval (the Markov
        function is then real and smooth on it).
    """

    kind: str
    p: float = 0.0
    q: float = 0.0
    poly: tuple = (1.0,)
    base: "DensitySpec | None" = None
    weight_measure: "Measure | None" = None

    def __post_init__(self):
        if self.kind not in ("uniform", "jacobi_weight", "markov_weighted"):
            raise ValueError(f"unknown density kind {self.kind!r}")
        if self.kind == "jacobi_weight" and not (_finite(self.p, self.q, *self.poly) and self.p > -1 and self.q > -1):
            raise ValueError("jacobi_weight requires finite p, q > -1 and a finite poly")
        if self.kind == "markov_weighted" and (self.base is None or self.weight_measure is None):
            raise ValueError("markov_weighted requires base and weight_measure")

    def __call__(self, x, a: float, b: float):
        """Double-precision evaluation on the host interval [a, b] at a float or
        at each point of an array x, in the shape of x.

        numpy's array ``**`` rounds differently from ``pow`` in the last bit on
        some CPUs, so the powers run per point in Python floats.
        """
        x = np.asarray(x, dtype=float)
        if self.kind == "uniform":
            return np.ones_like(x)
        if self.kind == "jacobi_weight":
            val = np.polynomial.polynomial.polyval(x, np.asarray(self.poly, float))
            for d, e in ((x - a, self.p), (b - x, self.q)):
                if e != 0:
                    val = val * np.array([v**e for v in d.ravel().tolist()]).reshape(x.shape)
            return val
        return self.base(x, a, b) * cauchy(self.weight_measure, x.ravel()).real.reshape(x.shape)

    def mp_value(self, x, a, b, prec: int):
        """Single-point evaluation in ``prec``-bit arithmetic."""
        with workprec(prec):
            if self.kind == "uniform":
                return mpf(1)
            if self.kind == "jacobi_weight":
                val = pval([mpf(c) for c in self.poly], x)
                if self.p != 0:
                    val *= (x - mpf(a)) ** mpf(self.p)
                if self.q != 0:
                    val *= (mpf(b) - x) ** mpf(self.q)
                return val
            base = self.base.mp_value(x, a, b, prec)
            return base * self.weight_measure.markov_mp(x, prec).real

    def to_json(self) -> dict:
        if self.kind == "uniform":
            return {"kind": "uniform"}
        if self.kind == "jacobi_weight":
            return {"kind": "jacobi_weight", "p": self.p, "q": self.q, "poly": list(self.poly)}
        return {
            "kind": "markov_weighted",
            "base": self.base.to_json(),
            "weight_measure": self.weight_measure.to_json(),
        }


_SHAPES = {"object": dict, "array": (list, tuple), "pair": (list, tuple), "number": (int, float), "integer": int}


def _shaped(value, field: str, shape: str = "object"):
    """``value`` if it has the JSON ``shape``, a number also finite (Python's
    json reads ``NaN`` and ``Infinity``); otherwise a ValueError naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, _SHAPES[shape]) or shape == "pair" and len(value) != 2:
        raise ValueError(f"{field} must be a JSON {shape}, not {value!r}")
    if shape == "number" and not _finite(value):
        raise ValueError(f"{field} must be a finite JSON number, not {value!r}")
    return value


def _finite(*values) -> bool:
    """Whether every value is a finite double: an int too large for a float fails
    here instead of raising OverflowError where it is first converted."""
    return all(abs(v) <= sys.float_info.max for v in values)


def density_from_json(doc: dict, field: str = "density") -> DensitySpec:
    kind = _shaped(doc, field).get("kind")
    if kind == "uniform":
        return DensitySpec("uniform")
    if kind == "jacobi_weight":
        p, q = (_shaped(doc.get(k), f"{field}.{k}", "number") for k in ("p", "q"))
        poly = _shaped(doc.get("poly", [1.0]), f"{field}.poly", "array")
        poly = tuple(_shaped(c, f"{field}.poly", "number") for c in poly)
        return DensitySpec("jacobi_weight", p=p, q=q, poly=poly)
    if kind == "markov_weighted":
        return DensitySpec(
            "markov_weighted",
            base=density_from_json(doc.get("base"), f"{field}.base"),
            weight_measure=measure_from_json(doc.get("weight_measure"), f"{field}.weight_measure"),
        )
    raise ValueError(f"{field}: unknown density kind {kind!r}")


UNIFORM = DensitySpec("uniform")


@dataclass(frozen=True)
class Piece:
    a: float
    b: float
    density: DensitySpec = UNIFORM

    def __post_init__(self):
        if not (_finite(self.a, self.b) and self.a < self.b):
            raise ValueError("piece requires finite a < b")


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Measure:
    """Atoms plus absolutely continuous pieces on pairwise disjoint intervals.

    ``quad_order`` is the Gauss-Legendre order used per piece; it integrates
    polynomial integrands of degree < 2*quad_order exactly and smooth ones to
    spectral accuracy.  Purely singular-continuous parts are not supported.
    """

    atoms: tuple = ()
    pieces: tuple = ()
    quad_order: int = 200
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        atoms = tuple((float(x), float(m)) for x, m in self.atoms)
        pieces = tuple(p if isinstance(p, Piece) else Piece(*p) for p in self.pieces)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "pieces", pieces)
        if not atoms and not pieces:
            raise ValueError("measure must have at least one atom or piece")
        if self.quad_order < 1:
            raise ValueError(f"quad_order must be a positive integer, not {self.quad_order!r}")
        if not all(_finite(x, m) for x, m in atoms):
            raise ValueError("atoms must be finite")
        if any(m <= 0 for _, m in atoms):
            raise ValueError("atom masses must be positive")
        ivs = sorted((p.a, p.b) for p in pieces)
        for (a1, b1), (a2, b2) in zip(ivs[:-1], ivs[1:]):
            if b1 > a2:
                raise ValueError("ac pieces must be pairwise disjoint")
        for p in pieces:
            if p.density.kind == "markov_weighted":
                lo, hi = p.density.weight_measure.hull()
                if not (hi < p.a or lo > p.b):
                    raise OverlapError("markov_weighted weight measure overlaps host interval")

    # -- geometry ----------------------------------------------------------

    def hull(self) -> tuple[float, float]:
        pts = [x for x, _ in self.atoms]
        pts += [p.a for p in self.pieces] + [p.b for p in self.pieces]
        return min(pts), max(pts)

    def support_distance(self, z) -> float:
        """Distance from z to the support (intervals and atoms)."""
        z = complex(z)
        legs = [max(0.0, p.a - z.real, z.real - p.b) for p in self.pieces] + [abs(z.real - x) for x, _ in self.atoms]
        return min([math.hypot(d, z.imag) for d in legs])

    # -- moments -----------------------------------------------------------

    def mass(self) -> float:
        return self.moment(0)

    def moment(self, k: int) -> float:
        """k-th monomial moment, double precision."""
        if k < 0:
            raise ValueError("moment order must be nonnegative")
        key = ("mom", k)
        if key not in self._cache:
            total = sum(m * x**k for x, m in self.atoms)
            for i in range(len(self.pieces)):
                xs, ws, dens = _piece_table(self, i, None)
                total += float(np.sum(ws * dens * xs**k))
            self._cache[key] = total
        return self._cache[key]

    def moments_mp(self, upto: int, prec: int) -> list:
        """Moments 0..upto at ``prec`` bits (cached, extended incrementally)."""
        key = ("mom_mp", prec)
        table = self._cache.get(key, [])
        if len(table) <= upto:
            # per piece the raw nodes and w*density, and x^k per node and atom,
            # carried across k and across extensions, so the bits do not depend
            # on how the table was grown
            with workprec(prec):
                cols, pow_rows, atom_pows = self._cache.get(("mom_pows", prec)) or self._moment_columns(prec)
                for k in range(len(table), upto + 1):
                    total = mpf(0)
                    for (x, m), xp in zip(self.atoms, atom_pows):
                        total += mpf(m) * xp
                    for (_, wd), xp in zip(cols, pow_rows):
                        total += raw_dot(wd, xp, prec)
                    table.append(total)
                    atom_pows = [xp * mpf(x) for (x, _), xp in zip(self.atoms, atom_pows)]
                    pow_rows = [products(xp, xs, prec) for (xs, _), xp in zip(cols, pow_rows)]
            self._cache[key] = table
            self._cache[("mom_pows", prec)] = (cols, pow_rows, atom_pows)
        return table[: upto + 1]

    def _moment_columns(self, prec: int) -> tuple:
        """(per piece the raw nodes and w*density, x^0 per node, x^0 per atom) at ``prec`` bits."""
        cols = []
        for i in range(len(self.pieces)):
            xs, ws, dens = _piece_table(self, i, prec)
            cols.append(([x._mpf_ for x in xs], products([w._mpf_ for w in ws], [d._mpf_ for d in dens], prec)))
        return cols, [[fone] * len(xs) for xs, _ in cols], [mpf(1)] * len(self.atoms)

    # -- Cauchy transforms ------------------------------------------------

    def markov(self, z) -> complex:
        """Cauchy transform ``int (z - x)^{-1} dm(x)`` off the support."""
        return cauchy(self, z)

    def markov_mp(self, z, prec: int):
        """Markov function at ``prec`` bits (single point)."""
        return cauchy(self, z, prec=prec)

    def density_at(self, x):
        """Density of the absolutely continuous part at x (0 off the pieces); at
        each point of a 1-D float array x, the value at that point."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out, free = np.zeros(len(xs)), np.ones(len(xs), dtype=bool)
        for p in self.pieces:
            on = free & (p.a <= xs) & (xs <= p.b)
            if on.any():
                out[on] = p.density(xs[on], p.a, p.b)
                free &= ~on
        return out if isinstance(x, np.ndarray) else float(out[0])

    def markov_boundary(self, x: float, side: str = "+") -> complex:
        """Boundary value of the Markov function on an ac piece (Plemelj split, see :func:`cauchy`)."""
        return cauchy(self, x, side=side)

    def markov_boundary_mp(self, x, side: str, prec: int):
        """Boundary value at ``prec`` bits (single point)."""
        return cauchy(self, x, side=side, prec=prec)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "atoms": [[x, m] for x, m in self.atoms],
            "pieces": [
                {"a": p.a, "b": p.b, "density": p.density.to_json()} for p in self.pieces
            ],
            "quad_order": self.quad_order,
        }


# ---------------------------------------------------------------------------
# the Cauchy-transform kernel
# ---------------------------------------------------------------------------


def _rule_table(p: Piece, a, b, order: int, prec):
    """Nodes, weights and density values of the Gauss-Legendre rule on [a, b] inside p."""
    if prec is None:
        xs, ws = map_rule(a, b, order)
        return xs, ws, p.density(xs, p.a, p.b)
    xs, ws = map_rule_mp(a, b, order, prec)
    return xs, ws, [p.density.mp_value(x, p.a, p.b, prec) for x in xs]


def _weighted_table(table, weight: tuple, prec):
    """(nodes, weights, g*density, w*g*density) of a rule table; raw libmp tuples in mp.

    In double precision g is evaluated exactly at each node and rounded once:
    the monomial form of a weight can be far worse conditioned than g itself.
    """
    xs, ws, gd = table
    if prec is None:
        if weight:
            gd = np.array([float(pval_exact(weight, x)) for x in xs]) * gd
        return xs, ws, gd, ws * gd
    if weight:
        gd = [pval(weight, x) * d for x, d in zip(xs, gd)]
    xs, ws, gd = ([v._mpf_ for v in col] for col in (xs, ws, gd))
    return xs, ws, gd, products(ws, gd, prec)


def _piece_table(mu: Measure, i: int, prec):
    """(nodes, weights, density) of the full rule on piece i, cached on mu."""
    key = ("table", i, prec)
    if key not in mu._cache:
        p = mu.pieces[i]
        mu._cache[key] = _rule_table(p, p.a, p.b, mu.quad_order, prec)
    return mu._cache[key]


def cauchy(mu: Measure, z, weight=(), side=None, prec=None):
    """``int g(t) dmu(t) / (z - t)``, g the polynomial with ascending coefficients ``weight``.

    An empty ``weight`` is g = 1, the Markov function.  With ``side=None``, z
    is off the support and may be complex.  With ``side`` ``'+'``/``'-'``, z is
    a real x strictly inside an ac piece and the result is the boundary value
    from above/below: the Plemelj split ``pv -/+ i*pi*g(x)*density(x)`` on that
    piece, its principal value by the singularity subtraction
    ``pv int f(t)/(x-t) dt = int (f(t)-f(x))/(x-t) dt + f(x) log((x-a)/(b-x))``;
    the other pieces and the atoms enter as off the support.  A piece other
    than the host is integrated on graded panels toward z when it lies closer
    to z than ``_NEAR_FACTOR`` times its length.

    ``prec=None`` works in double precision and returns a complex; an int
    works in mpmath at that many bits and returns an mpf for real z off the
    support, an mpc otherwise.  In double precision z may also be a 1-D array,
    real (with or without ``side``) or complex (off the support); a point and
    an array run the same batched evaluation, so each row has the bits of
    the point call.  A NaN or infinite z raises ``DomainError``.  The call
    runs the measure's prepared kernel for (weight, prec) (:func:`kernel`);
    panels are not cached.
    """
    return kernel(mu, weight, prec)(z, side)


def kernel(mu: Measure, weight=(), prec=None) -> "_Kernel":
    """The prepared :func:`cauchy` of ``mu`` for one weight and precision, cached on ``mu``."""
    # raw mpf tuples hash far faster than mpf values and identify them exactly
    key = ("kernel", tuple([getattr(c, "_mpf_", c) for c in weight]), prec)
    kern = mu._cache.get(key)
    if kern is None:
        kern = mu._cache[key] = _Kernel(mu, tuple(weight), prec)
    return kern


class _Kernel:
    """:func:`cauchy` for one measure, weight and precision, with everything
    that does not depend on z resolved once: the full-piece node tables with
    w*g*density formed in advance, the weight as floats (double) or mpf, the
    atoms' m*g(x) values and the pieces' geometry.  Every double z, a point
    or an array, is answered by :meth:`_batch`, an mp z by :meth:`_value`;
    both find the host piece and the distances by :meth:`_locate`.

    The mp sums run on raw libmp tuples and replay ``mp.fsum(w * g / (z - x))``
    bit for bit: per node one ``mpf_sub``/``mpc_sub_mpf`` and one division
    against the pre-formed w*g, each rounded at ``prec`` as the mpf operators
    round, then one ``mpf_sum`` per part as fsum runs it (:func:`cauchy_sum`).
    """

    def __init__(self, mu: Measure, weight: tuple, prec):
        self.prec, self.weight, self.pieces = prec, weight, mu.pieces
        self.atom_x = [x for x, _ in mu.atoms]
        self.spans = [(p.a, p.b, _NEAR_FACTOR * (p.b - p.a)) for p in mu.pieces]
        with workprec(prec) if prec else contextlib.nullcontext():
            if prec is None:
                gf = [float(c) for c in weight]
                self.g = (lambda t: pval(gf, t)) if weight else (lambda t: 1)
                self.atoms = [(x, m * self.g(x)) for x, m in mu.atoms]
            else:
                self.g = (lambda t: pval(weight, t)) if weight else (lambda t: 1)
                self.atoms = [(mpf(x), mpf(m) * self.g(mpf(x))) for x, m in mu.atoms]
            self.tables = [_weighted_table(_piece_table(mu, i, prec), weight, prec) for i in range(len(mu.pieces))]
        # off the support z is complex: the nodes and w*g*density cast once (exact), not per call
        self.off = [(xs, wg) if prec else (xs.astype(complex), wg.astype(complex)) for xs, _, _, wg in self.tables]

    def _locate(self, z: np.ndarray, side):
        """(host piece per point, -1 for none; per piece, the distance from each point to it)."""
        if not np.isfinite(z).all():
            raise DomainError("Cauchy transform requires a finite z")
        zr, zi = z.real, z.imag
        dists = [_hypot(np.maximum(0.0, np.maximum(a - zr, zr - b)), zi) for a, b, _ in self.spans]
        near_atom = any([bool((_hypot(np.abs(zr - x), zi) < _SUPPORT_TOL).any()) for x in self.atom_x])
        host = np.full(len(z), -1)
        if side is None:
            if near_atom or any([bool((d < _SUPPORT_TOL).any()) for d in dists]):
                raise DomainError("Cauchy transform evaluated on the support")
            return host, dists
        if side not in ("+", "-"):
            raise ValueError("side must be '+' or '-'")
        for i in reversed(range(len(self.spans))):  # the first piece holding x hosts it
            a, b, _ = self.spans[i]
            host[(a < zr) & (zr < b) & (zi == 0)] = i
        if (host < 0).any():
            raise DomainError("boundary value requires x strictly inside an ac piece")
        if near_atom:
            raise DomainError("boundary value at an atom")
        return host, dists

    def _sum(self, xs, wg, z):
        """Sum of ``wg / (z - t)`` over the nodes t."""
        if self.prec is None:
            return complex((wg / (z - xs)).sum())
        return cauchy_sum(xs, wg, z, self.prec)

    def _panels(self, i: int, x0: float, dist: float, z):
        """Sum over graded panels of piece i toward x0 (tables built per call)."""
        p, prec = self.pieces[i], self.prec
        tables = (
            _weighted_table(_rule_table(p, a, b, _PANEL_ORDER, prec), self.weight, prec)
            for a, b in graded_panels(p.a, p.b, x0, max(dist, 1e-14))
        )
        return sum(self._sum(xs, wg, z) for xs, _, _, wg in tables)

    def __call__(self, z, side=None):
        if isinstance(z, np.ndarray):
            if self.prec is not None or z.ndim != 1:
                raise ValueError("array z requires double precision and a 1-D array")
            if np.iscomplexobj(z) and side is not None:
                raise ValueError("a complex array z requires side=None")
            z = z if np.iscomplexobj(z) else z.astype(float)
            return np.concatenate(
                [self._batch(z[i : i + _BATCH_ROWS], side) for i in range(0, len(z), _BATCH_ROWS)]
                or [np.zeros(0, dtype=complex)]
            )
        zc = complex(z)
        if self.prec is None:
            return complex(self._batch(np.array([zc.real]) if zc.imag == 0 else np.array([zc]), side)[0])
        host, dists = self._locate(np.array([zc]), side)
        host = int(host[0])
        with workprec(self.prec):
            zq = mpc(z) if host < 0 and isinstance(z, (complex, mpc)) else mpf(z)
            return self._value(zq, zc.real, host, [float(d[0]) for d in dists], side)

    def _batch(self, z: np.ndarray, side) -> np.ndarray:
        """The double-precision transform at each point of a 1-D array z, real
        or (off the support) complex.

        Point for point and piece by piece the arithmetic of one evaluation,
        with the node sums of all points of a piece formed as one (points,
        nodes) array and summed per row.  What numpy would round differently
        stays per point in Python floats: the atoms, the log of the singularity
        subtraction, the distances off the real line and the graded panels of
        a near piece.  A real point gets imaginary part 0.0 off the support.
        """
        host, dists = self._locate(z, side)
        zr = z.real.tolist()
        zq = [complex(v) for v in z.tolist()] if side is None else zr  # z per point as the sums take it
        total = np.zeros(len(z), dtype=complex)
        if self.atoms:
            total[:] = [sum([mg / (q - t) for t, mg in self.atoms]) for q in zq]
        im = np.zeros(len(z))
        for i, (a, b, near) in enumerate(self.spans):
            xs, ws, gd, wg = self.tables[i]
            at = host == i
            if at.any():
                xh = z[at]
                fx = self.pieces[i].density(xh, a, b)
                if self.weight:
                    fx = self.g(xh) * fx
                # the singularity subtraction, on the rows where f(x) != 0
                rows = np.where((fx != 0)[:, None], ws * (gd - fx[:, None]), wg)
                total[at] += (rows / (xh[:, None] - xs)).sum(axis=1)
                total[at] += fx * np.array([math.log(q) for q in ((xh - a) / (b - xh)).tolist()])
                im[at] = -math.pi * fx if side == "+" else math.pi * fx
            far = ~at & (dists[i] >= near)
            if far.any():
                oxs, owg = self.off[i]
                total[far] += (owg / (z[far].astype(complex)[:, None] - oxs)).sum(axis=1)
            for r in np.flatnonzero(~at & (dists[i] < near)).tolist():
                total[r] += self._panels(i, zr[r], float(dists[i][r]), zq[r])
        out = np.empty(len(z), dtype=complex)
        out.real, out.imag = total.real, np.where(z.imag == 0, im, total.imag)
        return out

    def _value(self, zq, zr: float, host: int, dists, side):
        """The mp transform at zq, an mpf or mpc at ``prec``, with zr its real
        part as a float (host -1 off the support)."""
        prec = self.prec
        total = mp.fsum([mg / (zq - x) for x, mg in self.atoms])
        for i, dist in enumerate(dists):
            if i == host:
                xs, ws, gd, wg = self.tables[i]
                p = self.pieces[i]
                fx = self.g(zq) * p.density.mp_value(zq, p.a, p.b, prec)
                if fx:  # the singularity subtraction
                    wg = products(ws, shifted(gd, fx._mpf_, prec), prec)
                total += self._sum(xs, wg, zq).real
                total += fx * mp.log((zq - p.a) / (p.b - zq))
            elif dist < self.spans[i][2]:
                total += self._panels(i, zr, dist, zq)
            else:
                total += self._sum(*self.off[i], zq)
        if host < 0:
            return total
        return mpc(total.real, -mp.pi * fx if side == "+" else mp.pi * fx)


def _hypot(dx: np.ndarray, zi: np.ndarray) -> np.ndarray:
    """hypot(dx, zi) per point: dx itself where zi == 0, else ``math.hypot``,
    as :meth:`Measure.support_distance` takes it; numpy's hypot rounds
    differently, and the distance sets the cuts of the graded panels."""
    out = dx.copy()
    for r in np.flatnonzero(zi).tolist():
        out[r] = math.hypot(dx[r], zi[r])
    return out


def measure_from_json(doc, field: str = "measure") -> Measure:
    """Parse a measure literal: {"atoms":[[x,m],..],"pieces":[{"a","b","density"}],"quad_order"};
    a malformed literal raises ValueError naming the part, under the name ``field``."""
    doc = _shaped(json.loads(doc) if isinstance(doc, str) else doc, field)
    pieces = []
    for i, p in enumerate(_shaped(doc.get("pieces", []), f"{field}.pieces", "array")):
        at = f"{field}.pieces[{i}]"
        a, b = (_shaped(_shaped(p, at).get(k), f"{at}.{k}", "number") for k in ("a", "b"))
        pieces.append(Piece(a, b, density_from_json(p.get("density", {"kind": "uniform"}), f"{at}.density")))
    atoms = [
        tuple(_shaped(v, f"{field}.atoms[{i}]", "number") for v in _shaped(atom, f"{field}.atoms[{i}]", "pair"))
        for i, atom in enumerate(_shaped(doc.get("atoms", []), f"{field}.atoms", "array"))
    ]
    quad_order = _shaped(doc.get("quad_order", 200), f"{field}.quad_order", "integer")
    return Measure(atoms=tuple(atoms), pieces=tuple(pieces), quad_order=quad_order)


def uniform(a: float, b: float, quad_order: int = 200) -> Measure:
    """Lebesgue measure (density 1) on [a, b]."""
    return Measure(pieces=(Piece(a, b, UNIFORM),), quad_order=quad_order)


def concat(m1: Measure, m2: Measure) -> Measure:
    """Concatenation of two measures with disjoint convex hulls."""
    lo1, hi1 = m1.hull()
    lo2, hi2 = m2.hull()
    if not (hi1 < lo2 or hi2 < lo1):
        raise OverlapError("convex hulls of the measures intersect")
    return Measure(
        atoms=m1.atoms + m2.atoms,
        pieces=m1.pieces + m2.pieces,
        quad_order=max(m1.quad_order, m2.quad_order),
    )
