"""Independent oracles used to freeze expected values.

Everything here is deliberately separate from the library code paths:
moments of uniform pieces are exact rationals, the moment systems are solved
by Fraction Gaussian elimination, and integrals are refined with brute-force
composite rules on ~10^6 nodes.
"""

from __future__ import annotations

import contextlib
import math
from fractions import Fraction

import numpy as np
from mpmath import mp, mpc, mpf, workprec

from mop_trees._poly import pval, pval_exact
from mop_trees.angelesco import _bridge_weights, _path_data
from mop_trees.errors import AssumptionError, BranchError, DomainError
from mop_trees.measures import kernel
from mop_trees.mop_engine import KappaForm, linear_form
from mop_trees.periodic_surface import _BRANCH_GUARD, SurfaceParams, _dist_to_branch, on_cuts
from mop_trees.quadrature import gauss_legendre, graded_panels, map_rule, map_rule_mp
from mop_trees.tree_jacobi import _kappa


def uniform_moment(a, b, k) -> Fraction:
    """int_a^b x^k dx as an exact rational (a, b rational)."""
    a, b = Fraction(a), Fraction(b)
    return (b ** (k + 1) - a ** (k + 1)) / (k + 1)


def solve_fraction(A, rhs):
    """Gaussian elimination with partial pivoting over the rationals."""
    n = len(rhs)
    M = [row[:] + [rhs[i]] for i, row in enumerate(A)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(M[r][col]))
        if M[piv][col] == 0:
            raise ZeroDivisionError("singular rational system")
        M[col], M[piv] = M[piv], M[col]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col] / M[col][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[i][n] / M[i][i] for i in range(n)]


class UniformPairOracle:
    """Exact rational MOP data for two uniform intervals (the ANG-U family)."""

    def __init__(self, i1=(-2, -1), i2=(1, 2)):
        self.i1, self.i2 = i1, i2

    def mom(self, j, k) -> Fraction:
        iv = self.i1 if j == 1 else self.i2
        return uniform_moment(iv[0], iv[1], k)

    def type2(self, n):
        """Ascending rational coefficients of the monic type II polynomial."""
        d = n[0] + n[1]
        if d == 0:
            return [Fraction(1)]
        A, rhs = [], []
        for j, nk in ((1, n[0]), (2, n[1])):
            for m in range(nk):
                A.append([self.mom(j, m + i) for i in range(d)])
                rhs.append(-self.mom(j, m + d))
        return solve_fraction(A, rhs) + [Fraction(1)]

    def type1(self, n):
        """(A1 coeffs, A2 coeffs) of the normalized type I pair."""
        d = n[0] + n[1]
        if d == 1:
            a1 = [1 / self.mom(1, 0)] if n[0] == 1 else []
            a2 = [1 / self.mom(2, 0)] if n[1] == 1 else []
            return a1, a2
        A, rhs = [], []
        for m in range(d):
            A.append(
                [self.mom(1, m + i) for i in range(n[0])]
                + [self.mom(2, m + i) for i in range(n[1])]
            )
            rhs.append(Fraction(1) if m == d - 1 else Fraction(0))
        c = solve_fraction(A, rhs)
        return c[: n[0]], c[n[0]:]

    def h(self, n, j) -> Fraction:
        p = self.type2(n)
        return sum(c * self.mom(j, n[j - 1] + i) for i, c in enumerate(p))

    def a(self, n, j) -> Fraction:
        if n[j - 1] == 0:
            return Fraction(0)
        m = (n[0] - 1, n[1]) if j == 1 else (n[0], n[1] - 1)
        return self.h(n, j) / self.h(m, j)

    def b(self, n, i) -> Fraction:
        d = n[0] + n[1]
        p = self.type2(n)
        up = self.type2((n[0] + 1, n[1]) if i == 1 else (n[0], n[1] + 1))
        low = p[d - 1] if d >= 1 else Fraction(0)
        return low - up[d]


def refine_cauchy(a, b, z, n=2_000_001):
    """Brute-force trapezoid refinement of int_a^b (z - x)^{-1} dx."""
    xs = np.linspace(a, b, n)
    return complex(np.trapezoid(1.0 / (z - xs), xs))


def refine_markov_log(a, b, x):
    """Closed-form pv of the unit density on [a, b] at interior x."""
    return float(np.log((x - a) / (b - x)))


class BfsTree:
    """Reference tree built by a FIFO breadth-first search with stored lists.

    ``child_projs(proj, depth)`` yields ``(child_proj, label)`` pairs in child
    order; ids are assigned in BFS order, as in ``mop_trees.tree_topology``.
    """

    def __init__(self, root_proj, child_projs):
        self.parent, self.children = [-1], [[]]
        self.proj, self.iota, self.depth = [tuple(root_proj)], [0], [0]
        queue = [0]
        while queue:
            v = queue.pop(0)
            for cp, lab in child_projs(self.proj[v], self.depth[v]):
                cid = len(self.parent)
                self.parent.append(v)
                self.children.append([])
                self.proj.append(tuple(cp))
                self.iota.append(lab)
                self.depth.append(self.depth[v] + 1)
                self.children[v].append((cid, lab))
                queue.append(cid)

    def subtree_ids(self, v):
        out, queue = [], [v]
        while queue:
            u = queue.pop(0)
            out.append(u)
            queue.extend(c for c, _ in self.children[u])
        return out


def bfs_finite_tree(N):
    def kids(p, _d):
        return [((p[0] - 1, p[1]), 1)] * (p[0] > 0) + [((p[0], p[1] - 1), 2)] * (p[1] > 0)

    return BfsTree(N, kids)


def bfs_cayley_truncation(depth, root_proj=(1, 1)):
    def kids(p, d):
        return [] if d >= depth else [((p[0] + 1, p[1]), 1), ((p[0], p[1] + 1), 2)]

    return BfsTree(root_proj, kids)


def waves_and_fronts_sweep(tree, joints) -> list:
    """Reference wave partition: the set-based FIFO sweep of
    ``finite_spectral.waves_and_fronts_on`` before it read joint levels.

    Wave 1 grows down from the root and stops at joints (inclusive); wave k+1
    grows from the children of the previous front's joints.  Fronts consist of
    the canopy and joint vertices reached by each wave.
    """
    joints = set(joints)
    canopy = set(tree.canopy()) if tree.kind == "finite" else set(tree.leaves())
    assigned = set()
    waves = []

    def sweep(starts):
        wave, stops = set(), set()
        queue = list(starts)
        while queue:
            v = queue.pop(0)
            if v in assigned or v in wave:
                continue
            wave.add(v)
            if v in joints:
                stops.add(v)
                continue
            queue.extend(c for c, _ in tree.children[v])
        front = (wave & canopy) | stops
        return wave, front

    if 0 in joints:
        waves.append(({0}, {0}))
        assigned.add(0)
        frontier = [0]
    else:
        wave, front = sweep([0])
        waves.append((wave, front))
        assigned |= wave
        frontier = sorted(front & joints)

    while frontier:
        starts = [c for f in frontier for c, _ in tree.children[f]]
        if not starts:
            break
        wave, front = sweep(starts)
        if not wave:
            break
        waves.append((wave, front))
        assigned |= wave
        frontier = sorted(front & joints)
    leftover = set(range(len(tree))) - assigned
    if leftover:
        raise AssumptionError("wave partition failed to exhaust the vertex set")
    return waves


def find_e_kappa_sweep(asys, kappa, grid: int = 4000):
    """Reference zero search for the kappa-form: the sign at every grid point.

    The search of ``angelesco.find_e_kappa`` before it used the monotonicity
    of markov1/markov2: the same three grids, a sign scan over all 3 * grid
    points and a bisection in every cell with a sign change (about 12,000
    evaluations of the form).  Returns the same bits as the library search.
    """
    a1, b1 = asys.delta1
    a2, b2 = asys.delta2
    span = b2 - a1
    g = 1e-9 * span

    def f(x):
        m1, m2 = float(asys.sys.mass(1)), float(asys.sys.mass(2))
        form = (kappa[1] / m1) * asys.sys.measures[0].markov(x) + (kappa[0] / m2) * asys.sys.measures[1].markov(x)
        return form.real

    segments = []
    if b1 + g < a2 - g:
        segments.append(np.linspace(b1 + 10 * g, a2 - 10 * g, grid))
    segments.append(a1 - np.geomspace(10 * g, 50 * span, grid))
    segments.append(b2 + np.geomspace(10 * g, 50 * span, grid))
    zeros = []
    for xs in segments:
        xs = np.sort(xs)
        vals = np.array([f(x) for x in xs])
        sgn = np.sign(vals)
        for i in np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]:
            lo, hi = xs[i], xs[i + 1]
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if f(lo) * f(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
                if hi - lo < 1e-15 * max(1, abs(mid)):
                    break
            zeros.append(0.5 * (lo + hi))
    if not zeros:
        return None
    if len(zeros) > 1:
        raise ValueError("more than one zero of the kappa-form found (numerical artifact)")
    return float(zeros[0])


_GAUSS_MP_CACHE: dict = {}


def _legendre_pair(n: int, x):
    """(P_n(x), P_n'(x)) by the three-term recurrence, mpmath arithmetic."""
    pm, p = mpf(1), x
    for k in range(1, n):
        pm, p = p, ((2 * k + 1) * x * p - k * pm) / (k + 1)
    dp = n * (x * p - pm) / (x * x - 1)
    return p, dp


def gauss_legendre_mp(order: int, prec: int) -> tuple[list, list]:
    """Nodes and weights on [-1, 1] at ``prec`` bits, Newton-polished from double seeds.

    The mpf Newton polish of ``quadrature.gauss_legendre_mp`` before it ran in
    fixed-point integers, kept verbatim (with its own cache) as the reference.
    """
    key = (order, prec)
    if key in _GAUSS_MP_CACHE:
        return _GAUSS_MP_CACHE[key]
    xs, _ = gauss_legendre(order)
    nodes: list = [None] * order
    weights: list = [None] * order
    with workprec(prec + 24):
        tol = mpf(2) ** (-(prec + 8))
        half = (order + 1) // 2
        for i in range(order - half, order):
            x = mpf(float(xs[i]))
            dp = mpf(1)
            for _ in range(60):
                p, dp = _legendre_pair(order, x)
                dx = p / dp
                x -= dx
                if abs(dx) < tol * max(1, abs(x)):
                    p, dp = _legendre_pair(order, x)
                    break
            w = 2 / ((1 - x * x) * dp * dp)
            nodes[i], weights[i] = x, w
            nodes[order - 1 - i], weights[order - 1 - i] = -x, w
        if order % 2 == 1:
            x = mpf(0)
            p, dp = _legendre_pair(order, x)
            nodes[order // 2] = x
            weights[order // 2] = 2 / (dp * dp)
    _GAUSS_MP_CACHE[key] = (nodes, weights)
    return nodes, weights


# ---------------------------------------------------------------------------
# periodic surface: the sheet-0 branch, one np.roots call per fiber
# ---------------------------------------------------------------------------
# ``_fiber``, ``chi0`` and ``chi_plus`` of ``periodic_surface`` before the
# h ladder was solved in LAPACK batches, kept verbatim as the bit-for-bit
# reference.


def _fiber(surf: SurfaceParams, z: complex) -> np.ndarray:
    """All three chi with zmap(chi) = z, Newton-polished roots of the cubic."""
    A1, A2, B1, B2 = surf.A1, surf.A2, surf.B1, surf.B2
    c3 = 1.0
    c2 = -(B1 + B2 + z)
    c1 = B1 * B2 + z * (B1 + B2) + A1 + A2
    c0 = -(z * B1 * B2 + A1 * B2 + A2 * B1)
    roots = np.roots([c3, c2, c1, c0])
    out = []
    for r in roots:
        c = complex(r)
        for _ in range(40):
            f = ((c + c2) * c + c1) * c + c0
            df = (3 * c + 2 * c2) * c + c1
            if df == 0:
                break
            step = f / df
            c -= step
            if abs(step) < 1e-15 * max(1, abs(c)):
                break
        out.append(c)
    return np.array(out)


def chi0(surf: SurfaceParams, z) -> complex:
    """The sheet-0 inverse branch: chi ~ z at infinity.

    For Im z > 0 it is the unique fiber point in the upper half-plane; for
    real z off the cuts it is the real root reached as the limit from above;
    boundary values on the cuts are obtained with ``chi_plus``.
    """
    z = complex(z)
    if _dist_to_branch(surf, z) < _BRANCH_GUARD:
        raise BranchError("z too close to a branch point")
    if z.imag > 0:
        roots = _fiber(surf, z)
        upper = roots[roots.imag > 0]
        if len(upper) != 1:
            raise BranchError("sheet-0 branch is ambiguous here")
        return complex(upper[0])
    if z.imag < 0:
        return complex(np.conj(chi0(surf, np.conj(z))))
    if on_cuts(surf, z.real):
        raise DomainError("real z on a cut; use chi_plus for boundary values")
    probe = chi0(surf, complex(z.real, 1e-7 * max(1.0, abs(z))))
    roots = _fiber(surf, z)
    reals = roots[np.abs(roots.imag) < 1e-7 * np.maximum(1.0, np.abs(roots))]
    if len(reals) == 0:
        raise BranchError("no real fiber point found off the cuts")
    pick = reals[np.argmin(np.abs(reals - probe))]
    return complex(pick.real)


def chi_plus(surf: SurfaceParams, x: float) -> complex:
    """Boundary value of the sheet-0 branch from the upper half-plane, on a cut."""
    if not on_cuts(surf, x):
        return complex(chi0(surf, x))
    if _dist_to_branch(surf, x) < _BRANCH_GUARD:
        raise BranchError("x too close to a branch point")
    h = 1e-9 * max(1.0, abs(x))
    last = None
    for _ in range(30):
        roots = _fiber(surf, complex(x, h))
        upper = roots[roots.imag > 0]
        if len(upper) != 1:
            raise BranchError("boundary branch ambiguous")
        cur = complex(upper[0])
        if last is not None and abs(cur - last) < 1e-13 * max(1, abs(cur)):
            return cur
        last = cur
        h *= 0.25
    return last


# ---------------------------------------------------------------------------
# the Cauchy-transform kernel before it was prepared per measure and weight
# ---------------------------------------------------------------------------
# ``cauchy``, ``_node_sum``, ``_times_weight`` and ``_rule_table`` are the
# per-call kernel as it stood before ``measures.kernel``: every call resolves
# its tables, weights and pieces again, and the mp sums run on mpf objects
# through ``mp.fsum``.  The prepared kernel must return the same bits.  One
# difference is deliberate: with ``side`` set (or a near piece), every other
# piece here is integrated on panels graded toward z, however far it is.

_SUPPORT_TOL = 1e-12
_NEAR_FACTOR = 0.1
_PANEL_ORDER = 32
_TABLES: dict = {}


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


def _piece_table(mu, i: int, weight: tuple, prec):
    """(nodes, weights, g*density) of the full rule on piece i: the parent's
    table, kept in this module's own store instead of on mu."""
    key = (id(mu), i, mu.quad_order, tuple([getattr(c, "_mpf_", c) for c in weight]), prec)
    if key not in _TABLES:
        p = mu.pieces[i]
        base = _piece_table(mu, i, (), prec) if weight else _rule_table(p, p.a, p.b, mu.quad_order, prec)
        _TABLES[key] = (mu, _times_weight(base, weight, prec))
    return _TABLES[key][1]


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


# ---------------------------------------------------------------------------
# spectral densities one point at a time, and their moments by scipy's quad
# ---------------------------------------------------------------------------


def _mustar_density(asys, x: float) -> float:
    """mustar's density at x through numpy on a 0-d x, as the library read it."""
    return next((float(p.density(x, p.a, p.b)) for p in asys.mustar.pieces if p.a <= x <= p.b), 0.0)


def rho_o_point(asys, kappa):
    """x -> the root spectral density at one float x, as ``rho_o`` computed it
    before its density took arrays: one scalar call per Markov kernel."""
    form = KappaForm(asys.sys, _kappa(kappa))
    scale = 1.0 / (asys.xi_mass * float(asys.sys.mass(1)) * float(asys.sys.mass(2)))

    def value(x):
        dens = _mustar_density(asys, x)
        if dens == 0.0:
            return 0.0
        markov = form.markov(x, "+")
        s_o = scale * (-markov[1].real) if asys.side_of(x) == 1 else scale * markov[0].real
        return s_o * dens / abs(form.combine(markov)) ** 2

    return value


def rho_sub_point(asys, X):
    """x -> the subtree spectral density at one float x, as ``rho_sub`` computed
    it before its density took arrays: scalar kernel calls throughout."""
    _, _, n, l = _path_data(asys, tuple(X))
    boundary = linear_form(asys.sys, n)
    bridges = _bridge_weights(asys, n, l)
    kernels = {k: kernel(asys.sys.measures[2 - k], w) for k, (_, w) in bridges.items()}

    def value(x):
        dens = _mustar_density(asys, x)
        if dens == 0.0:
            return 0.0
        k = asys.side_of(x)
        integral = kernels[k](x).real
        s_x = float((-1.0) ** k * integral / math.prod([x - r for r in bridges[k][0]], start=1.0))
        return s_x * dens / abs(boundary(x, "+")) ** 2

    return value


def quad_moment(point_density, rep, k: int) -> float:
    """The k-th moment of a spectral measure as ``SpectralMeasureRep._moment``
    computed it with ``scipy.integrate.quad``, one density value per call."""
    from scipy.integrate import quad

    total = sum(E**k * m for E, m in rep.point_masses)
    for a, b in rep.intervals:
        val, _ = quad(lambda x: x**k * point_density(x), a, b, limit=400, epsabs=1e-12)
        total += val
    return float(total)
