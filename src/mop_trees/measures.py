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
quadrature node tables keyed by everything the tables depend on.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field

import numpy as np
from mpmath import mp, mpc, mpf, workprec

from ._poly import dot, pval, pval_exact
from .errors import DomainError, OverlapError
from .quadrature import graded_panels, map_rule, map_rule_mp

_SUPPORT_TOL = 1e-12
_NEAR_FACTOR = 0.1  # switch to graded panels when the pole is this close (relative)
_PANEL_ORDER = 32


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
        if self.kind == "jacobi_weight" and (self.p <= -1 or self.q <= -1):
            raise ValueError("jacobi_weight requires p, q > -1")
        if self.kind == "markov_weighted" and (self.base is None or self.weight_measure is None):
            raise ValueError("markov_weighted requires base and weight_measure")

    def __call__(self, x, a: float, b: float):
        """Vectorized double-precision evaluation on the host interval [a, b]."""
        x = np.asarray(x, dtype=float)
        if self.kind == "uniform":
            return np.ones_like(x)
        if self.kind == "jacobi_weight":
            val = np.polynomial.polynomial.polyval(x, np.asarray(self.poly, float))
            if self.p != 0:
                val = val * (x - a) ** self.p
            if self.q != 0:
                val = val * (b - x) ** self.q
            return val
        base = self.base(x, a, b)
        tau = self.weight_measure
        w = np.array([tau.markov(float(t)).real for t in np.atleast_1d(x)])
        return base * w.reshape(np.shape(x))

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


def density_from_json(doc: dict) -> DensitySpec:
    kind = doc["kind"]
    if kind == "uniform":
        return DensitySpec("uniform")
    if kind == "jacobi_weight":
        return DensitySpec("jacobi_weight", p=doc["p"], q=doc["q"], poly=tuple(doc.get("poly", [1.0])))
    if kind == "markov_weighted":
        return DensitySpec(
            "markov_weighted",
            base=density_from_json(doc["base"]),
            weight_measure=measure_from_json(doc["weight_measure"]),
        )
    raise ValueError(f"unknown density kind {kind!r}")


UNIFORM = DensitySpec("uniform")


@dataclass(frozen=True)
class Piece:
    a: float
    b: float
    density: DensitySpec = UNIFORM

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("piece requires a < b")


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
        if any(m <= 0 for _, m in atoms):
            raise ValueError("atom masses must be positive")
        ivs = sorted((p.a, p.b) for p in pieces)
        for (a1, b1), (a2, b2) in zip(ivs[:-1], ivs[1:]):
            if b1 > a2:
                raise ValueError("ac pieces must be pairwise disjoint")
        for p in pieces:
            if self.markov_weighted_overlaps(p):
                raise OverlapError("markov_weighted weight measure overlaps host interval")

    @staticmethod
    def markov_weighted_overlaps(piece: Piece) -> bool:
        d = piece.density
        if d.kind != "markov_weighted":
            return False
        lo, hi = d.weight_measure.hull()
        return not (hi < piece.a or lo > piece.b)

    # -- geometry ----------------------------------------------------------

    def hull(self) -> tuple[float, float]:
        pts = [x for x, _ in self.atoms]
        pts += [p.a for p in self.pieces] + [p.b for p in self.pieces]
        return min(pts), max(pts)

    def support_distance(self, z) -> float:
        """Distance from z to the support (intervals and atoms)."""
        z = complex(z)
        zr, zi = z.real, z.imag
        d = math.inf
        for p in self.pieces:
            dx = 0.0 if p.a <= zr <= p.b else min(abs(zr - p.a), abs(zr - p.b))
            d = min(d, math.hypot(dx, zi))
        for x, _ in self.atoms:
            d = min(d, math.hypot(zr - x, zi))
        return d

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
                xs, ws, dens = _piece_table(self, i, (), None)
                total += float(np.sum(ws * dens * xs**k))
            self._cache[key] = total
        return self._cache[key]

    def moments_mp(self, upto: int, prec: int) -> list:
        """Moments 0..upto at ``prec`` bits (cached, extended incrementally)."""
        key = ("mom_mp", prec)
        table = self._cache.get(key, [])
        if len(table) <= upto:
            with workprec(prec):
                node_tables = []
                for i in range(len(self.pieces)):
                    xs, ws, dens = _piece_table(self, i, (), prec)
                    node_tables.append((xs, [w * d for w, d in zip(ws, dens)]))
                # x^k per node and atom, carried across k and across extensions,
                # so the bits do not depend on how the table was grown
                pow_tables, atom_pows = self._cache.get(("mom_pows", prec)) or (
                    [[mpf(1)] * len(xs) for xs, _ in node_tables], [mpf(1)] * len(self.atoms)
                )
                for k in range(len(table), upto + 1):
                    total = mpf(0)
                    for (x, m), xp in zip(self.atoms, atom_pows):
                        total += mpf(m) * xp
                    for (xs, wd), xp in zip(node_tables, pow_tables):
                        total += dot(wd, xp, prec)
                    table.append(total)
                    atom_pows = [xp * mpf(x) for (x, _), xp in zip(self.atoms, atom_pows)]
                    pow_tables = [
                        [t * x for t, x in zip(xp, xs)]
                        for (xs, _), xp in zip(node_tables, pow_tables)
                    ]
            self._cache[key] = table
            self._cache[("mom_pows", prec)] = (pow_tables, atom_pows)
        return table[: upto + 1]

    # -- Cauchy transforms ------------------------------------------------

    def markov(self, z) -> complex:
        """Cauchy transform ``int (z - x)^{-1} dm(x)`` off the support."""
        return cauchy(self, z)

    def markov_mp(self, z, prec: int):
        """Markov function at ``prec`` bits (single point)."""
        return cauchy(self, z, prec=prec)

    def density_at(self, x: float) -> float:
        """Density of the absolutely continuous part at x (0 off the pieces)."""
        for p in self.pieces:
            if p.a <= x <= p.b:
                return float(p.density(x, p.a, p.b))
        return 0.0

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


def _times_weight(table, weight: tuple, prec):
    """The table with g*density in place of the density.

    In double precision g is evaluated exactly at each node and rounded once:
    the monomial form of a weight can be far worse conditioned than g itself.
    """
    if not weight:
        return table
    xs, ws, dens = table
    if prec is None:
        return xs, ws, np.array([float(pval_exact(weight, x)) for x in xs]) * dens
    return xs, ws, [pval(weight, x) * d for x, d in zip(xs, dens)]


def _piece_table(mu: Measure, i: int, weight: tuple, prec):
    """(nodes, weights, g*density) of the full rule on piece i, cached on mu."""
    # raw mpf tuples hash far faster than mpf values and identify them exactly
    key = ("cauchy", i, mu.quad_order, tuple([getattr(c, "_mpf_", c) for c in weight]), prec)
    if key not in mu._cache:
        p = mu.pieces[i]
        base = _piece_table(mu, i, (), prec) if weight else _rule_table(p, p.a, p.b, mu.quad_order, prec)
        mu._cache[key] = _times_weight(base, weight, prec)
    return mu._cache[key]


def _node_sum(table, z, prec, fx=0):
    """Sum of ``w * (g*density - fx) / (z - t)`` over a node table."""
    xs, ws, gd = table
    if fx:
        gd = gd - fx if prec is None else [g - fx for g in gd]
    if prec is None:
        return complex((ws * gd / (z - xs)).sum())
    return mp.fsum(w * g / (z - x) for x, w, g in zip(xs, ws, gd))


def cauchy(mu: Measure, z, weight=(), side=None, prec=None):
    """``int g(t) dmu(t) / (z - t)``, g the polynomial with ascending coefficients ``weight``.

    An empty ``weight`` is g = 1, the Markov function.  With ``side=None``, z
    is off the support and may be complex.  With ``side`` ``'+'``/``'-'``, z is
    a real x strictly inside an ac piece and the result is the boundary value
    from above/below: the Plemelj split ``pv -/+ i*pi*g(x)*density(x)`` on that
    piece, its principal value by the singularity subtraction
    ``pv int f(t)/(x-t) dt = int (f(t)-f(x))/(x-t) dt + f(x) log((x-a)/(b-x))``;
    the other pieces and the atoms enter as off the support, at distance 0.
    A piece is integrated on graded panels toward z when the support is
    closer to z than ``_NEAR_FACTOR`` times the piece's length.

    ``prec=None`` works in double precision and returns a complex; an int
    works in mpmath at that many bits and returns an mpf for real z off the
    support, an mpc otherwise.  Full-piece node tables are cached on ``mu``
    under piece, rule order, weight and precision; panels are not cached.
    """
    weight = tuple(weight)
    zc = complex(z)
    host, dist = None, 0.0
    if side is None:
        dist = mu.support_distance(zc)
        if dist < _SUPPORT_TOL:
            raise DomainError("Cauchy transform evaluated on the support")
    elif side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    else:
        host = next((p for p in mu.pieces if p.a < zc.real < p.b and zc.imag == 0), None)
        if host is None:
            raise DomainError("boundary value requires x strictly inside an ac piece")
        if any(abs(zc.real - xa) < _SUPPORT_TOL for xa, _ in mu.atoms):
            raise DomainError("boundary value at an atom")

    def g(t):  # at the atoms and at x; node values come from the tables
        if not weight:
            return 1
        return pval(weight, t) if prec else pval([float(c) for c in weight], t)

    with workprec(prec) if prec else contextlib.nullcontext():
        if prec is None:
            zq = zc if host is None else zc.real
            total = sum(m * g(xa) / (zq - xa) for xa, m in mu.atoms)
            log, pi = math.log, math.pi
        else:
            zq = mpc(z) if host is None and isinstance(z, (complex, mpc)) else mpf(z)
            total = mp.fsum(mpf(m) * g(mpf(xa)) / (zq - mpf(xa)) for xa, m in mu.atoms)
            log, pi = mp.log, mp.pi
        for i, p in enumerate(mu.pieces):
            if p is host:
                dens = float(p.density(zq, p.a, p.b)) if prec is None else p.density.mp_value(zq, p.a, p.b, prec)
                fx = g(zq) * dens
                total += _node_sum(_piece_table(mu, i, weight, prec), zq, prec, fx).real
                total += fx * log((zq - p.a) / (p.b - zq))
            elif dist >= _NEAR_FACTOR * (p.b - p.a):
                total += _node_sum(_piece_table(mu, i, weight, prec), zq, prec)
            else:
                panels = graded_panels(p.a, p.b, zc.real, max(dist, 1e-14))
                total += sum(
                    _node_sum(_times_weight(_rule_table(p, a, b, _PANEL_ORDER, prec), weight, prec), zq, prec)
                    for a, b in panels
                )
        if host is not None:
            im = -pi * fx if side == "+" else pi * fx
            return complex(total.real, im) if prec is None else mpc(total.real, im)
        if prec is None:
            return complex(total.real, 0.0) if zc.imag == 0 else complex(total)
        return total


def measure_from_json(doc) -> Measure:
    """Parse a measure literal: {"atoms":[[x,m],..],"pieces":[{"a","b","density"}],"quad_order"}."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    pieces = tuple(
        Piece(p["a"], p["b"], density_from_json(p.get("density", {"kind": "uniform"})))
        for p in doc.get("pieces", [])
    )
    return Measure(
        atoms=tuple((x, m) for x, m in doc.get("atoms", [])),
        pieces=pieces,
        quad_order=int(doc.get("quad_order", 200)),
    )


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
