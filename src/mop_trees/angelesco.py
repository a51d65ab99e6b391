"""Spectral theory of the Cayley-tree operators generated by Angelesco systems.

For two measures with ordered disjoint hulls the assembled operators are
bounded and self-adjoint, and everything is expressible through the
second-kind functions L_n:

* the Green's function of the subtree below X is
  ``G(Y, X; z) = -(m_X / m_Y) L_{proj(Y)}(z) / L_{proj(parent X)}(z)``;
* the root spectral measure has density ``S_O |L_x(kappa)|^{-2} mustar'``
  plus at most one point mass at the zero of the kappa-form off the hulls;
* subtree spectral measures have densities ``S_X`` times the reference
  density ``|L_n|^{-2} mustar'``, where S_X has an explicit sign-definite
  quadrature representation;
* generalized eigenfunctions Psi are vertex commutators of the type I value
  family against the parent of the subtree root; the root's formal parent
  has type I values ``(0, kappa2/|mu1|, kappa1/|mu2|)``, the kappa-form
  weights.  They satisfy the operator identity exactly (verified numerically).

Evaluations with large type I coefficient cancellation run in extended
precision; profile/density sweeps use stable double-precision routes
(root-factored polynomial evaluation, sign-definite quadrature).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from mpmath import mpf, workprec

from . import _poly as P
from .errors import DomainError, EndpointError, IntegrationWarning, OverlapError
from .measures import Measure, concat, kernel
from .mop_engine import (
    KappaForm,
    MopSystem,
    SecondKind,
    _deflate,
    add,
    linear_form,
    real_zeros,
    second_kind,
    second_kind_boundary,
    second_kind_boundary_mp,
)
from .quadrature import qags
from .tree_jacobi import _kappa, assemble_subtree, assemble_truncated, lattice_values

_ENDPOINT_EXCLUSION = 1e-6


@dataclass
class AngelescoSystem:
    sys: MopSystem
    delta1: tuple
    delta2: tuple
    mustar: Measure
    xi_mass: float           # difference of the normalized first moments (> 0)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def interval(self, k: int) -> tuple:
        return self.delta1 if k == 1 else self.delta2

    def side_of(self, x: float) -> int:
        """1 or 2 for the interval containing x; DomainError otherwise."""
        for k in (1, 2):
            a, b = self.interval(k)
            if a <= x <= b:
                return k
        raise DomainError(f"{x} lies outside both intervals")


def angelesco_system(mu1: Measure, mu2: Measure, precision_bits: int = 256) -> AngelescoSystem:
    """Validate ordered disjoint hulls and build the combined system."""
    h1, h2 = mu1.hull(), mu2.hull()
    if not h1[1] < h2[0]:
        if h2[1] < h1[0]:
            mu1, mu2, h1, h2 = mu2, mu1, h2, h1
        else:
            raise OverlapError("Angelesco system requires disjoint hulls")
    sys = MopSystem((mu1, mu2), precision_bits)
    with workprec(sys.precision_bits):  # the engine's mp moments, rounded to double once
        (a0, a1), (b0, b1) = sys.moments(1, 1), sys.moments(2, 1)
        xi = float(b1 / b0 - a1 / a0)
    return AngelescoSystem(sys, h1, h2, concat(mu1, mu2), xi)


# ---------------------------------------------------------------------------
# the kappa-form and its zero
# ---------------------------------------------------------------------------


_E_GRID = 4000  # points per sampled component; they fix the cell E is bisected in, hence its bits


def find_e_kappa(asys: AngelescoSystem, kappa):
    """The at-most-one real zero of the kappa-form off the two intervals (or None).

    With m_k the Markov function of mu_k, m1/m2 strictly increases on each
    component of the real line off the hulls: on the gap m1 > 0 > m2 and both
    decrease; on the outer rays ``(log|m_k|)'`` is a mean of ``-/+1/(x - t)``
    under ``dmu_k/|x - t|``, and mu2 lies right of mu1.  So the form
    ``m2 (c1 m1/m2 + c2)`` changes sign at most once per component, for any
    kappa.  On a fixed grid per component (the gap linear, the outer rays
    geometric out to 50 spans) the cell holding the sign change is found by
    bisection over grid indices, then bisected down to rounding level.  The
    zero is kept on the system per normalized kappa.
    """
    kappa = _kappa(kappa)
    key = ("e_kappa", kappa)
    if key not in asys._cache:
        asys._cache[key] = _search_e_kappa(asys, kappa)
    return asys._cache[key]


def _search_e_kappa(asys: AngelescoSystem, kappa):
    a1, b1 = asys.delta1
    a2, b2 = asys.delta2
    span = b2 - a1
    g = 1e-9 * span

    form = KappaForm(asys.sys, kappa)

    def f(x):
        return form(x).real

    segments = []
    if b1 + g < a2 - g:
        segments.append(np.linspace(b1 + 10 * g, a2 - 10 * g, _E_GRID))
    segments.append(a1 - np.geomspace(10 * g, 50 * span, _E_GRID))
    segments.append(b2 + np.geomspace(10 * g, 50 * span, _E_GRID))
    zeros = []
    for xs in segments:
        xs = np.sort(xs)
        i, j = 0, len(xs) - 1
        fi = f(xs[i])
        if not np.sign(fi) * np.sign(f(xs[j])) < 0:
            continue
        while j - i > 1:
            m = (i + j) // 2
            fm = f(xs[m])
            if np.sign(fm) == np.sign(fi):
                i, fi = m, fm
            else:
                j = m
        lo, hi, flo = xs[i], xs[j], fi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fmid = f(mid)
            if flo * fmid <= 0:
                hi = mid
            else:
                lo, flo = mid, fmid
            if hi - lo < 1e-15 * max(1, abs(mid)):
                break
        zeros.append(0.5 * (lo + hi))
    if len(zeros) > 1:
        raise DomainError("zeros of the kappa-form on two components (numerical artifact)")
    return float(zeros[0]) if zeros else None


# ---------------------------------------------------------------------------
# spectral measure representations
# ---------------------------------------------------------------------------


@dataclass
class SpectralMeasureRep:
    """Absolutely continuous density on the two intervals plus point masses."""

    density: object                    # 1-D array of points inside one interval -> their values
    point_masses: list
    intervals: tuple

    def __call__(self, x: float) -> float:
        for a, b in self.intervals:
            if a <= x <= b:
                return float(self._guarded(np.array([float(x)]), a, b)[0])
        raise DomainError("density evaluation off the intervals")

    def _guarded(self, xs: np.ndarray, a: float, b: float) -> np.ndarray:
        """The density at points xs of the interval [a, b], none of them near an endpoint."""
        if (np.minimum(xs - a, b - xs) < _ENDPOINT_EXCLUSION).any():
            raise EndpointError("x too close to an interval endpoint")
        return self.density(xs)

    def total_mass(self) -> float:
        return self._moment(0)

    def first_moment(self) -> float:
        return self._moment(1)

    def _moment(self, k: int) -> float:
        total = sum(E**k * m for E, m in self.point_masses)
        for a, b in self.intervals:
            res = qags(lambda xs: xs**k * self.density(xs), a, b, 1e-12, 1.49e-8, 400)
            if res.ier:
                warnings.warn(
                    f"moment {k} on [{a}, {b}]: qags stopped with ier={res.ier}, abserr {res.abserr:.3g}",
                    IntegrationWarning,
                    stacklevel=3,
                )
            total += res.value
        return float(total)

    def profile(self, n_points: int) -> list:
        grids = interval_grids(self.intervals, n_points, lambda a, b: max(_ENDPOINT_EXCLUSION * 2, (b - a) * 1e-5))
        pts = []
        for (a, b), xs in zip(self.intervals, grids):
            pts += zip(xs.tolist(), self._guarded(xs, a, b).tolist())
        return pts


def interval_grids(intervals, n_points: int, pad) -> list[np.ndarray]:
    """Per interval, evenly spaced points ``pad(a, b)`` in from its ends;
    ``n_points`` in all, the first interval takes the odd point."""
    grids = []
    for (a, b), n in zip(intervals, (n_points - n_points // 2, n_points // 2)):
        p = pad(a, b)
        grids.append(np.linspace(a + p, b - p, n))
    return grids


def _require_one_piece(asys: AngelescoSystem) -> None:
    # an atom or a gap between pieces opens a hole in the support, and the point
    # mass that a zero of the denominator in that hole carries is not derived here
    for k, mu in enumerate(asys.sys.measures, 1):
        if mu.atoms or len(mu.pieces) != 1:
            raise DomainError(f"spectral measures require mu{k} to be one ac piece without atoms")


def rho_o(asys: AngelescoSystem, kappa) -> SpectralMeasureRep:
    """Spectral measure of the root vector for the kappa operator (one-piece measures only)."""
    _require_one_piece(asys)
    kappa = _kappa(kappa)
    form = KappaForm(asys.sys, kappa)
    scale = 1.0 / (asys.xi_mass * float(asys.sys.mass(1)) * float(asys.sys.mass(2)))

    def live(x, dens):
        markov = form.markov(x, "+")
        # S_O: the positive weight (-markov2 on the left interval, markov1 on the
        # right) over (Xi |mu1| |mu2|); it reads the form's own value of the other measure
        s_o = scale * (-markov[1].real) if asys.side_of(x[0]) == 1 else scale * markov[0].real
        return s_o * dens / _abs_squared(form.combine(markov))

    masses = []
    E = find_e_kappa(asys, kappa)
    if E is not None:
        masses.append((E, point_mass_at(asys, kappa, E)))
    return SpectralMeasureRep(_density_on_support(asys, live), masses, (asys.delta1, asys.delta2))


def _density_on_support(asys: AngelescoSystem, live):
    """The density at points x (a float or a 1-D array inside one interval):
    0 where mustar has no density, ``live(x, mustar density)`` elsewhere."""

    def density(x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        dens = asys.mustar.density_at(x)
        out = np.zeros(len(x))
        on = dens != 0.0
        if on.any():
            out[on] = live(x[on], dens[on])
        return out

    return density


def _abs_squared(values: np.ndarray) -> np.ndarray:
    """``abs(v) ** 2`` per element in Python floats (numpy's complex abs and
    array power round differently in the last bit)."""
    return np.array([abs(v) ** 2 for v in values.tolist()])


def point_mass_at(asys, kappa, E: float) -> float:
    """Mass (L_1 / L_kappa')(E) at the off-interval zero E of the kappa-form.

    The derivative is a central difference with h = 1e-6 evaluated in
    extended precision.
    """
    prec = asys.sys.precision_bits
    form = KappaForm(asys.sys, kappa, prec)
    with workprec(prec):
        h = mpf(10) ** -6
        Em = mpf(E)
        dL = (form(Em + h) - form(Em - h)) / (2 * h)
        L1 = second_kind(asys.sys, (1, 1), Em)
        return float((L1 / dL).real)


def psi_o(asys: AngelescoSystem, kappa, x: float, depth: int) -> np.ndarray:
    """Generalized eigenfunction of the root cyclic subspace at energy x,
    normalized to 1 at the root.

    For x inside an interval this is the vertex commutator of :func:`psi_tilde`
    taken against the formal parent of the root, whose type I values are
    ``(0, kappa2/|mu1|, kappa1/|mu2|)``, the kappa-form weights.  At the point
    mass E it is the second-kind family normalized by L at (1,1).
    """
    op = assemble_truncated(asys.sys, kappa, depth)
    sysm, prec = asys.sys, asys.sys.precision_bits
    E = find_e_kappa(asys, kappa)
    if E is not None and abs(x - E) < 1e-12:
        family = SecondKind(sysm, x)
        L1 = second_kind(sysm, (1, 1), family)
        with workprec(prec):
            vals = lattice_values(lambda n: float((second_kind(sysm, n, family) / L1).real), op.tree.points)
        return vals / op.m_weights()

    vals = _vertex_commutator(asys, (0, *KappaForm(sysm, kappa, prec).weights), x, op)
    return vals / vals[0]


def _vertex_commutator(asys, parent, x: float, op) -> np.ndarray:
    """The vertex commutator of the type I family at x against a parent with
    type I values ``parent = (A0, A1, A2)`` at x, on the vertices of ``op``
    divided by its m-weights.  Extended precision (the type I coefficients
    cancel massively)."""
    k = asys.side_of(x)
    sysm = asys.sys
    with workprec(sysm.precision_bits):
        xm = mpf(x)
        hat_other = sysm.measures[2 - k].markov_mp(xm, sysm.precision_bits)

        def value(m):
            av = sysm.type1_values(m, xm)
            core = (parent[k] * av[0] - av[k] * parent[0]) + (
                parent[3 - k] * av[k] - av[3 - k] * parent[k]
            ) * hat_other
            return float(core)

        return lattice_values(value, op.tree.points) / op.m_weights()


# ---------------------------------------------------------------------------
# Green's functions
# ---------------------------------------------------------------------------


def _path_data(asys, word):
    """(m_X, proj, parent_proj, iota) for the vertex addressed by a child-label word."""
    proj = (1, 1)
    mX = 1.0
    iota = 0
    parent_proj = None
    for step in word:
        if step not in (1, 2):
            raise DomainError(f"child labels are 1 and 2, not {step!r}")
        parent_proj = proj
        proj = add(proj, asys.sys.units[step - 1])
        a = asys.sys.recurrence_float(parent_proj)[step - 1]
        mX *= abs(a) ** -0.5
        iota = step
    return mX, proj, parent_proj, iota


def green(asys: AngelescoSystem, kappa, Y, X, z, depth: int = 12) -> tuple:
    """(closed-form value, truncated-resolvent value) of G(Y, X; z).

    X and Y are child-label words from the root; Y must extend X.  The
    closed form is ``-(m_X/m_Y) L_{proj(Y)}(z) / L_{proj(parent X)}(z)``; the
    oracle solves the Dirichlet truncation of the subtree operator at the
    given depth with a sparse LU.
    """
    kappa = _kappa(kappa)
    X, Y = tuple(X), tuple(Y)
    if Y[: len(X)] != X:
        raise DomainError("Y must lie in the subtree below X")
    zc = complex(z)
    if zc.imag == 0 and _limit_distance(asys, zc.real, find_e_kappa(asys, kappa) if X == () else None) < 0.1:
        raise DomainError("real z too close to the intervals or the kappa-form zero")

    prec = asys.sys.precision_bits
    mX, projX, parentX, iotaX = _path_data(asys, X)
    mY, projY, _, _ = _path_data(asys, Y)
    family = SecondKind(asys.sys, z)  # numerator and denominator read its one Markov pair
    LY = second_kind(asys.sys, projY, family)
    if X == ():
        Lden = KappaForm(asys.sys, kappa, prec).combine(family.markov)
    else:
        Lden = second_kind(asys.sys, parentX, family)
    with workprec(prec):
        formula = complex(-(mpf(mX) / mpf(mY)) * LY / Lden)

    if X == ():
        op = assemble_truncated(asys.sys, kappa, depth)
    else:
        op = assemble_subtree(asys.sys, projX, iotaX, depth)
    tree = op.tree
    y_id = tree.vertex_by_path(Y[len(X):])
    n = op.n_vertices
    import scipy.sparse.linalg
    A = op.sparse().astype(complex) - zc * scipy.sparse.identity(n, format="csr")
    rhs = np.zeros(n, dtype=complex)
    rhs[0] = 1.0
    sol = scipy.sparse.linalg.spsolve(A.tocsc(), rhs)
    return formula, complex(sol[y_id])


def _limit_distance(asys, x: float, E) -> float:
    """Distance from a real x to the two intervals (0 inside one) and to E, unless E is None."""
    d = min(0.0 if a <= x <= b else min(abs(x - a), abs(x - b)) for a, b in (asys.delta1, asys.delta2))
    return d if E is None else min(d, abs(x - E))


# ---------------------------------------------------------------------------
# subtree spectral data
# ---------------------------------------------------------------------------


def _bridge_weights(asys, n, l) -> dict:
    """Per interval k, the zeros of the bridge polynomial T on the opposite
    interval and the coefficients of T_{3-k} T, T_{3-k} the monic factor with
    those zeros; T is the degree-(|n|-1) bridge of consecutive type I pairs.
    Cached on the system."""
    key = ("bridge", n, l)
    if key in asys._cache:
        return asys._cache[key]
    an1, an2 = (c or (mpf(0),) for c in asys.sys.type1_record(n).A)
    au1, au2 = (c or (mpf(0),) for c in asys.sys.type1_record(add(n, asys.sys.units[l - 1])).A)
    with workprec(asys.sys.precision_bits):
        t = P.padd(P.pmul(au2, an1), P.pscale(P.pmul(au1, an2), -1))
        while len(t) > 1 and t[-1] == 0:
            t = t[:-1]
        zs = real_zeros(t, asys.sys.precision_bits) if len(t) > 1 else []
        z1 = [float(z) for z in zs if float(z) <= asys.delta1[1] + 1e-9]
        z2 = [float(z) for z in zs if float(z) >= asys.delta2[0] - 1e-9]
        if len(z1) + len(z2) != len(t) - 1:
            raise DomainError("bridge polynomial zeros escape the two intervals")
        out = {}
        for k, zs_other in ((1, z2), (2, z1)):
            weight = t
            for r in zs_other:
                weight = P.pmul(weight, (-mpf(r), mpf(1)))
            out[k] = (zs_other, weight)
    asys._cache[key] = out
    return out


def s_x(asys: AngelescoSystem, X, x: float) -> float:
    """The positive connection factor between the subtree spectral measure at X
    and the reference density at its parent.

    Evaluated through the sign-definite quadrature representation: with the
    bridge polynomial T split into monic interval factors T1 T2, for x in
    interval k the value is ``(-1)^k / T_{3-k}(x) * int T_{3-k} T dmu_{3-k} / (x - s)``.
    """
    X = tuple(X)
    if not X:
        raise DomainError("the root has no parent subtree factor")
    _, projX, n, l = _path_data(asys, X)
    return _s_x_by_quadrature(asys, n, l)(x)


def _s_x_by_quadrature(asys, n, l):
    """x -> S_X(x), both intervals' bridge kernels prepared here."""
    bridges = _bridge_weights(asys, n, l)
    kernels = {k: kernel(asys.sys.measures[2 - k], w) for k, (_, w) in bridges.items()}

    def value(x):
        """S_X at a float x, or at each point of a 1-D array x inside one interval."""
        k = asys.side_of(x[0] if isinstance(x, np.ndarray) else x)
        integral = kernels[k](x).real
        tmx = 1.0
        for r in bridges[k][0]:  # left to right, as np.prod multiplies
            tmx = tmx * (x - r)
        return (-1.0) ** k * integral / tmx

    return value


def psi_tilde(asys: AngelescoSystem, X, x: float, depth: int):
    """Unnormalized generalized eigenfunction of the subtree operator at X.

    Values are vertex-commutators of type I families against the parent
    vertex, divided by the subtree operator's m-weights m_Y / m_X.
    Returns (vector on the depth-truncated subtree, operator, value at X).
    """
    X = tuple(X)
    if not X:
        raise DomainError("psi_tilde requires X != root")
    _, projX, n, l = _path_data(asys, X)
    op = assemble_subtree(asys.sys, projX, l, depth)
    vals = _vertex_commutator(asys, asys.sys.type1_values(n, x), x, op)
    return vals, op, float(vals[0])


def psi_x(asys: AngelescoSystem, X, x: float, depth: int) -> np.ndarray:
    """Generalized eigenfunction at X normalized to 1 at X itself."""
    vals, _, sx = psi_tilde(asys, X, x, depth)
    return vals / sx


def rho_sub(asys: AngelescoSystem, X) -> SpectralMeasureRep:
    """Spectral measure of the subtree root vector at X (unit mass; one-piece measures only)."""
    _require_one_piece(asys)
    X = tuple(X)
    if not X:
        raise DomainError("rho_sub requires X != root (the root's measure is rho_o)")
    _, projX, n, l = _path_data(asys, X)
    forms = None

    def live(x, dens):
        nonlocal forms
        if forms is None:  # prepared at the first value: building the rep solves nothing
            forms = linear_form(asys.sys, n), _s_x_by_quadrature(asys, n, l)
        boundary, s_x_at = forms
        return s_x_at(x) * dens / _abs_squared(boundary(x, "+"))

    return SpectralMeasureRep(_density_on_support(asys, live), [], (asys.delta1, asys.delta2))


# ---------------------------------------------------------------------------
# reference measures
# ---------------------------------------------------------------------------


def d_n_xi(asys, n, xi: float, x) -> float:
    """(-1)^{n2} (x - xi) A_n^{(1)}(x) A_n^{(2)}(x), the positive multiplier of the
    linear form for gap values xi: :func:`_d_n_xi_poly` evaluated at the real x
    at ``precision_bits`` and rounded to double once."""
    with workprec(asys.sys.precision_bits):
        return float(P.pval(_d_n_xi_poly(asys, n, xi), mpf(x)))


def reference_measure(asys: AngelescoSystem, n, x: float) -> float:
    """Reference density |L_n(x)|^{-2} mustar'(x) (direct route)."""
    dens = asys.mustar.density_at(x)
    L = second_kind_boundary(asys.sys, n, x, "+")
    return dens / abs(L) ** 2


def reference_measure_via_dual(asys: AngelescoSystem, n, x: float, xi: float) -> float:
    """Reference density recovered from the reciprocal route.

    The reciprocal of ``D_{n,xi} L_n`` is a Markov-type function whose
    boundary density, divided by pi S_{n,xi}, reproduces the reference
    density for any gap value xi; comparing two xi's is a nontrivial
    consistency check.
    """
    if not (asys.delta1[1] < xi < asys.delta2[0]):
        raise DomainError("xi must lie in the gap between the intervals")
    L = second_kind_boundary(asys.sys, n, x, "+")
    val = (1.0 / (d_n_xi(asys, n, xi, x) * L)).imag
    a_other = asys.sys.type1_values(n, x)[3 - asys.side_of(x)]  # A_n^{(3-k)} for x in interval k
    s_n_xi = abs(float(a_other)) ** -1 / abs(x - xi)
    return val / (math.pi * s_n_xi)


def nu_ne_mass(asys: AngelescoSystem, n, E: float, xi: float) -> float:
    """Total mass of the auxiliary measure attached to a type I zero E.

    The measure has density ``D_{n,xi}(x) A_n^{(k)}(x) / (x - E)^2`` against
    mu_k on each interval, its numerator one mp polynomial: deflated twice at
    E, exactly, on the zero's own interval (the double pole cancels against
    the squared type I factor), evaluated in mp per node on the other.
    """
    rec = asys.sys.type1_record(n)
    kE = asys.side_of(E)
    d = _d_n_xi_poly(asys, n, xi)
    total = 0.0
    for k, (mu, coeffs) in enumerate(zip(asys.sys.measures, rec.A), 1):
        if not coeffs:
            continue
        with workprec(asys.sys.precision_bits):
            num = P.pmul(d, coeffs)
            if k == kE:
                qf = np.asarray(P.pfloat(_deflate(_deflate(num, mpf(E)), mpf(E))))
                total += mu.integrate(lambda xs: np.polynomial.polynomial.polyval(xs, qf))
            else:
                total += mu.integrate(lambda xs: np.array([float(P.pval(num, mpf(x))) for x in xs]) / (xs - E) ** 2)
    return total


def _d_n_xi_poly(asys, n, xi) -> tuple:
    """Extended-precision coefficients of D_{n,xi} = (-1)^{n2} (x - xi) A_n^{(1)} A_n^{(2)},
    cached on the system per (n, xi) and precision."""
    rec = asys.sys.type1_record(n)
    key = ("d_n_xi", rec.n, xi, asys.sys.precision_bits)
    if key not in asys._cache:
        with workprec(asys.sys.precision_bits):
            asys._cache[key] = P.pscale(P.pmul(P.pmul(*rec.A), (-mpf(xi), mpf(1))), mpf(-1) ** n[1])
    return asys._cache[key]


def dual_pole_weight_residual(asys: AngelescoSystem, n, E: float, xi: float) -> float:
    """Residual of ``-D'_{n,xi}(E) L_{n,+}(E) = total nu-mass`` at a type I zero E.

    Both sides are computed by quadrature (the boundary value of L through
    the Plemelj split, the mass through the deflated integrand); the measures
    here are atomless, so no point-mass correction enters.
    """
    with workprec(asys.sys.precision_bits):
        dprime = float(P.pval(P.pder(_d_n_xi_poly(asys, n, xi)), mpf(E)))
    Lp = second_kind_boundary_mp(asys.sys, n, E, "+")
    lhs = float(-dprime * complex(Lp).real)  # L_+ is real at a type I zero
    rhs = nu_ne_mass(asys, n, E, xi)
    return abs(lhs - rhs)


def type1_zero_set(asys, n) -> list:
    """Zeros of A_n^{(1)} A_n^{(2)} (each localized in its own interval)."""
    return sorted(float(z) for k in (1, 2) for z in asys.sys.zeros(n, k))


# ---------------------------------------------------------------------------
# spectrum envelope
# ---------------------------------------------------------------------------


def spectrum_envelope_check(asys: AngelescoSystem, kappa, depth_list) -> dict:
    """Eigenvalues of increasing truncations against the limiting spectrum.

    Reports, per depth, the maximal distance from any truncation eigenvalue
    to the union of the two intervals and the kappa-form zero, plus the
    fill distance of the truncation spectrum inside the intervals.
    """
    E = find_e_kappa(asys, kappa)
    report = {"kappa_zero": E, "depths": []}
    for depth in depth_list:
        op = assemble_truncated(asys.sys, kappa, depth)
        w = np.sort(np.linalg.eigvalsh(op.dense()))
        out_dist = float(max(_limit_distance(asys, x, E) for x in w))
        fill = 0.0
        for a, b in (asys.delta1, asys.delta2):
            grid = np.linspace(a, b, 200)
            fill = max(fill, float(np.max(np.min(np.abs(grid[:, None] - w[None, :]), axis=1))))
        report["depths"].append(
            {"depth": depth, "n": op.n_vertices, "max_outside": out_dist, "fill_distance": fill}
        )
    return report
