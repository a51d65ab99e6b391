"""Periodic tree operators through the rational map of a genus-0 surface.

The three-sheeted surface is uniformized by the degree-3 rational map

    z(chi) = chi + A1/(chi - B1) + A2/(chi - B2),

whose four real critical values bound two disjoint cuts.  The inverse branch
with ``chi ~ z`` at infinity (sheet 0) generates everything: the two
root-entry resolvent functions are ``M^(l) = 1/(B_l - chi)``, Green's
functions along tree paths are products of ``-sqrt(A) M`` factors, and the
density of states is ``Im M / pi`` on the cuts (normalized to unit total
mass, matching the spectral measure of a unit vector).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchError, ConvergenceError, DomainError, InvalidSurfaceError
from .tree_topology import cayley_truncation

_BRANCH_GUARD = 1e-8


@dataclass(frozen=True)
class SurfaceParams:
    A1: float
    A2: float
    B1: float
    B2: float
    critical_points: tuple
    branch_points: tuple
    cuts: tuple                     # ((a1, b1), (a2, b2)), disjoint

    def a_of(self, l: int) -> float:
        return self.A1 if l == 1 else self.A2

    def b_of(self, l: int) -> float:
        return self.B1 if l == 1 else self.B2


def zmap(surf_or_params, chi):
    """The rational map chi -> z."""
    s = surf_or_params
    return chi + s.A1 / (chi - s.B1) + s.A2 / (chi - s.B2)


def from_params(A1: float, A2: float, B1: float, B2: float) -> SurfaceParams:
    """Derive critical points, branch points, and cuts of a valid surface.

    Critical points solve ``(chi-B1)^2 (chi-B2)^2 = A1 (chi-B2)^2 + A2 (chi-B1)^2``
    (a real quartic).  Unless there are four real critical points whose
    critical values form two disjoint intervals, no surface is returned:
    :class:`InvalidSurfaceError` is raised.
    """
    if not all(map(math.isfinite, (A1, A2, B1, B2))):
        raise InvalidSurfaceError("A1, A2, B1, B2 must be finite")
    if A1 <= 0 or A2 <= 0:
        raise InvalidSurfaceError("A1, A2 must be positive")
    if B1 == B2:
        raise InvalidSurfaceError("B1, B2 must differ")
    p1 = np.polynomial.polynomial.polypow([-B1, 1.0], 2)
    p2 = np.polynomial.polynomial.polypow([-B2, 1.0], 2)
    quartic = np.polynomial.polynomial.polymul(p1, p2)
    quartic = np.polynomial.polynomial.polysub(quartic, A1 * p2)
    quartic = np.polynomial.polynomial.polysub(quartic, A2 * p1)
    roots = np.roots(quartic[::-1])
    # Newton polish on z'(chi)
    def zp(c):
        return 1 - A1 / (c - B1) ** 2 - A2 / (c - B2) ** 2

    def zpp(c):
        return 2 * A1 / (c - B1) ** 3 + 2 * A2 / (c - B2) ** 3

    polished = []
    for r in roots:
        c = complex(r)
        for _ in range(60):
            step = zp(c) / zpp(c)
            c -= step
            if abs(step) < 1e-14 * max(1, abs(c)):
                break
        polished.append(c)
    real_crit = sorted(c.real for c in polished if abs(c.imag) < 1e-9 * max(1, abs(c)))
    vals = sorted(c + A1 / (c - B1) + A2 / (c - B2) for c in real_crit)
    if len(vals) != 4 or not vals[1] < vals[2]:
        raise InvalidSurfaceError("critical data does not form two disjoint real cuts")
    cuts = ((vals[0], vals[1]), (vals[2], vals[3]))
    return SurfaceParams(A1, A2, B1, B2, tuple(real_crit), tuple(vals), cuts)


# ---------------------------------------------------------------------------
# branch tracking
# ---------------------------------------------------------------------------


def _fibers(surf: SurfaceParams, zs):
    """The fiber of each z in ``zs``: all three chi with zmap(chi) = z.

    One LAPACK call finds the eigenvalues of the cubics' companion matrices,
    built as ``np.roots`` builds them; each fiber is Newton-polished only when
    the caller asks for it, so a caller that stops early polishes no more.
    """
    A1, A2, B1, B2 = surf.A1, surf.A2, surf.B1, surf.B2
    coeffs = []
    for z in zs:
        c2 = -(B1 + B2 + z)
        c1 = B1 * B2 + z * (B1 + B2) + A1 + A2
        c0 = -(z * B1 * B2 + A1 * B2 + A2 * B1)
        coeffs.append((1.0, c2, c1, c0))
    p = np.array(coeffs, dtype=complex)
    companion = np.zeros((len(zs), 3, 3), dtype=complex)
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    companion[:, 0, :] = -p[:, 1:] / p[:, :1]
    for (_, c2, c1, c0), roots in zip(coeffs, np.linalg.eigvals(companion)):
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
        yield np.array(out)


def _fiber(surf: SurfaceParams, z: complex) -> np.ndarray:
    """All three chi with zmap(chi) = z, Newton-polished roots of the cubic."""
    return next(_fibers(surf, [z]))


def _dist_to_branch(surf, z) -> float:
    return min(abs(complex(z) - b) for b in surf.branch_points)


def on_cuts(surf: SurfaceParams, x: float) -> bool:
    return any(a <= x <= b for a, b in surf.cuts)


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
    # h shrinks by 4 per level (exact) from 1e-9 |x|; the first chunk holds
    # the level where the ladder stops in about 95% of x
    h0 = 1e-9 * max(1.0, abs(x))
    hs = [h0 * 0.25**k for k in range(30)]
    last = None
    for chunk in (hs[:9], hs[9:]):
        for roots in _fibers(surf, [complex(x, h) for h in chunk]):
            upper = roots[roots.imag > 0]
            if len(upper) != 1:
                raise BranchError("boundary branch ambiguous")
            cur = complex(upper[0])
            if last is not None and abs(cur - last) < 1e-13 * max(1, abs(cur)):
                return cur
            last = cur
    return last


def m_function(surf: SurfaceParams, l: int, z) -> complex:
    """M^(l)(z on sheet 0) = 1/(B_l - chi0(z))."""
    return 1.0 / (surf.b_of(l) - chi0(surf, z))


def m_plus(surf: SurfaceParams, l: int, x: float) -> complex:
    return 1.0 / (surf.b_of(l) - chi_plus(surf, x))


def _m_abs2(surf: SurfaceParams, chi: complex) -> tuple[float, float]:
    """|M^(1)|^2 and |M^(2)|^2 at one sheet-0 point chi, so a caller solves the fiber once."""
    return abs(1.0 / (surf.B1 - chi)) ** 2, abs(1.0 / (surf.B2 - chi)) ** 2


def green_o(surf: SurfaceParams, l: int, z) -> complex:
    """Root Green's function of the periodic operator with root type l."""
    return m_function(surf, l, z)


def sheet_products(surf: SurfaceParams, l: int, z) -> complex:
    """Product of M^(l) over the full fiber; equals (-1)^l / (A_l (B2 - B1))."""
    roots = _fiber(surf, complex(z))
    prod = 1.0 + 0j
    for c in roots:
        prod *= 1.0 / (surf.b_of(l) - c)
    return prod


# ---------------------------------------------------------------------------
# Green's functions along paths and norms
# ---------------------------------------------------------------------------


def green_path(surf: SurfaceParams, l: int, X, z) -> complex:
    """G(X, O; z) for the vertex X addressed by its path word of edge types.

    Product formula: the root factor M^(l) times ``-sqrt(A_t) M^(t)`` per
    path edge of type t, all from one sheet-0 point chi0(z).
    """
    chi = chi0(surf, z)
    val = 1.0 / (surf.b_of(l) - chi)
    for t in X:
        val *= -math.sqrt(surf.a_of(t)) * (1.0 / (surf.b_of(t) - chi))
    return val


def l2_norm_sq(surf: SurfaceParams, l: int, z) -> float:
    """Squared l2 norm of G(., O; z) over the whole tree (closed form)."""
    m1, m2 = _m_abs2(surf, chi0(surf, z))
    q = surf.A1 * m1 + surf.A2 * m2
    if q >= 1:
        raise DomainError("Green column not square-summable here")
    ml = m1 if l == 1 else m2
    return ml / (1 - q)


def l2_norm_sq_direct(surf: SurfaceParams, l: int, z, depth: int) -> float:
    """Direct generation-by-generation summation of |G|^2 over a truncation.

    Sums path-product classes with binomial multiplicities; independent of
    the closed form (it never divides by 1 - q).
    """
    m1, m2 = _m_abs2(surf, chi0(surf, z))
    ml = m1 if l == 1 else m2
    total = ml
    for n in range(1, depth + 1):
        gen = 0.0
        for k in range(n + 1):
            gen += math.comb(n, k) * (surf.A1 * m1) ** k * (surf.A2 * m2) ** (n - k)
        total += ml * gen
    return total


def truncated_green_o(surf: SurfaceParams, l: int, z, depth: int) -> complex:
    """Root resolvent entry of the depth-truncated operator by upward elimination.

    Leaves feed ``1/(B_t - z)`` upward through
    ``m_t(d) = 1/(B_t - z - A1 m_1(d-1) - A2 m_2(d-1))``; an independent
    oracle for the closed form.
    """
    z = complex(z)
    g = {1: 1.0 / (surf.B1 - z), 2: 1.0 / (surf.B2 - z)}
    for _ in range(depth):
        g = {
            t: 1.0 / (surf.b_of(t) - z - surf.A1 * g[1] - surf.A2 * g[2])
            for t in (1, 2)
        }
    return 1.0 / (surf.b_of(l) - z - surf.A1 * g[1] - surf.A2 * g[2])


# ---------------------------------------------------------------------------
# density of states and the unit identity
# ---------------------------------------------------------------------------


def dos(surf: SurfaceParams, l: int, x: float) -> float:
    """Density of states Im M^(l)(x + i0) / pi on the cuts (unit total mass)."""
    if not on_cuts(surf, x):
        raise DomainError("density of states is supported on the cuts")
    return m_plus(surf, l, x).imag / math.pi


def dos_total_mass(surf: SurfaceParams, l: int) -> float:
    """Total mass of ``dos`` over the cuts, by the trapezoid rule in theta.

    On a cut [a, b], x = a + (b - a)(1 - cos theta)/2 turns the square-root
    edges into a smooth, even, 2 pi-periodic integrand, on which the rule
    converges geometrically.  Panels double from 8 until two sums agree to
    1e-12; only interior nodes are evaluated, never a branch point.
    """
    total = 0.0
    for a, b in surf.cuts:

        def f(theta):
            x = a + (b - a) * (1.0 - math.cos(theta)) / 2
            return (b - a) / 2 * math.sin(theta) * dos(surf, l, x)

        m, s = 8, math.pi / 8 * sum(f(j * math.pi / 8) for j in range(1, 8))
        while True:
            new = s / 2 + math.pi / (2 * m) * sum(f(j * math.pi / (2 * m)) for j in range(1, 2 * m, 2))
            m *= 2
            if abs(new - s) < 1e-12:
                break
            if m >= 1024:
                raise ConvergenceError(f"dos mass on [{a}, {b}] not settled at {m} panels")
            s = new
        total += new
    return total


def unit_identity_residual(surf: SurfaceParams, x: float) -> float:
    """|A1 |G1|^2 + A2 |G2|^2 - 1| with boundary values, on a cut."""
    if not on_cuts(surf, x):
        raise DomainError("the unit identity lives on the cuts")
    g1, g2 = _m_abs2(surf, chi_plus(surf, x))
    return abs(surf.A1 * g1 + surf.A2 * g2 - 1.0)


def off_cut_subunit(surf: SurfaceParams, z) -> float:
    """A1 |G1|^2 + A2 |G2|^2 off the cuts (strictly below 1)."""
    g1, g2 = _m_abs2(surf, chi0(surf, z))
    return surf.A1 * g1 + surf.A2 * g2


# ---------------------------------------------------------------------------
# operator assembly and ray limits
# ---------------------------------------------------------------------------


def assemble_Lc(surf: SurfaceParams, l: int, depth: int):
    """Dirichlet truncation of the periodic operator with root type l: the
    Cayley-tree operator of the constant recurrence row (A1, A2, B1, B2).

    Vertex types equal the label of the edge to the parent; the two child
    edges of every vertex carry types 1 and 2.  Diagonal ``B_type``
    (``B_l`` at the root), off-diagonal ``sqrt(A_type)``.
    """
    from .tree_jacobi import _assemble

    row = (float(surf.A1), float(surf.A2), float(surf.B1), float(surf.B2))
    w = (1.0, 0.0) if l == 1 else (0.0, 1.0)  # V = B_l exactly, as a subtree root reads its b
    return _assemble(lambda n: row, cayley_truncation(depth), (((0, 0), w[0]), ((0, 0), w[1])), None)


@dataclass
class RayLimitReport:
    c: float
    sequence: list            # rows (n1, n2, a1, a2, b1, b2) along the ray
    A_hat: tuple
    B_hat: tuple
    diagonal_diffs: list      # (|n|, |da1|, |da2|, |db1|, |db2|) between diagonal points
    fitted_cuts: tuple | None


def ray_limit_estimate(asys, c: float, nmax: int) -> RayLimitReport:
    """Recurrence coefficients along the ray n1 ~ c |n| and their stabilization.

    Follows the greedy lattice ray from (1, 1) to |n| = 2*nmax, reports the
    last values as limit estimates, successive differences between
    consecutive same-phase points, and the cuts produced by feeding the
    estimates back through ``from_params``.
    """
    if not 0 < c < 1:
        raise DomainError("c must be in (0, 1)")
    sys = asys.sys
    pts = [(1, 1)]
    while pts[-1][0] + pts[-1][1] < 2 * nmax:
        n1, n2 = pts[-1]
        k = n1 + n2 + 1
        pts.append((n1 + 1, n2) if abs((n1 + 1) / k - c) <= abs(n1 / k - c) else (n1, n2 + 1))
    rows = []
    for n in pts:
        a1, a2, b1, b2 = sys.recurrence_float(n)
        rows.append((n[0], n[1], a1, a2, b1, b2))
    diffs = []
    diag = [r for r in rows if r[0] == r[1]]
    for p, q in zip(diag[:-1], diag[1:]):
        diffs.append(
            (q[0] + q[1], abs(q[2] - p[2]), abs(q[3] - p[3]), abs(q[4] - p[4]), abs(q[5] - p[5]))
        )
    last = rows[-1]
    A_hat, B_hat = (last[2], last[3]), (last[4], last[5])
    fitted = None
    try:
        fitted = from_params(A_hat[0], A_hat[1], B_hat[0], B_hat[1]).cuts
    except InvalidSurfaceError:
        pass
    return RayLimitReport(c, rows, A_hat, B_hat, diffs, fitted)
