"""Accuracy ratchet for the golden CLI outputs.

Each printed float of ``mop coeffs``, ``angelesco green``, ``angelesco rho``,
``periodic raylimit`` (``A_hat``, ``B_hat`` and the diagonal differences), the
eigenvalues of ``tree spectrum`` and the eigenvalues and canonical vectors of
``tree svec`` (all on ``ang_u``), and the critical points, branch points and
cuts of ``periodic surface`` is compared with an independent reference: exact
rationals from ``oracles.UniformPairOracle``, or 512-bit values built from
them (zeros of exact polynomials, the closed-form Cauchy transform of a
uniform interval).  The CSV rows of ``angelesco dos-profile`` and ``periodic
dos`` are compared with closed-form densities at the printed x; their table
keeps the largest and the total distance over the grid.  ``DISTANCES`` records how far each printed value lies from
its reference today; a command may print a value closer to its reference,
never farther.  A change that moves a golden on purpose lowers the table.
"""

import functools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf, workprec

from mop_trees.cli import main

from oracles import UniformPairOracle, bfs_finite_tree
from test_cli import GOLDEN_COMMANDS


class _CachedPairOracle(UniformPairOracle):
    """The oracle with each type II solve done once (h, a and b re-read it)."""

    @functools.cache
    def type2(self, n):
        return super().type2(n)


ORACLE = _CachedPairOracle()  # ang_u: uniform on [-2, -1] and on [1, 2]
BITS = 512

# per command, per printed value: its distance from the reference at the
# recorded golden output
DISTANCES = {
    "angelesco-dos-profile": {  # at the printed x, whose 13 digits add their own rounding
        "value.max": 6.11375628379281e-13,
        "value.sum": 3.397655686974064e-11,
    },
    "angelesco-green": {
        "formula.re": 1.3781383636673586e-18,
        "formula.im": 0.0,
        "resolvent.re": 1.3781383636673586e-18,
        "resolvent.im": 0.0,
        "rel_error": 0.0,
    },
    "angelesco-rho": {
        "E": 3.4383874549607746e-16,
        "mass": 5.390812065138523e-13,  # the O(h^2) central difference of point_mass_at
        "total_mass": 1.9695356456850277e-13,
        "first_moment": 2.706168622523819e-16,
    },
    "mop-coeffs": {
        "A1[0]": 1.850371707708594e-17,
        "A2[0]": 1.850371707708594e-17,
        "P[0]": 1.4802973661668753e-16,
        "P[1]": 0.0,
        "P[2]": 0.0,
        "a[0]": 4.625929269271485e-18,
        "a[1]": 4.625929269271485e-18,
        "b[0]": 1.0362081563168128e-16,
        "b[1]": 1.0362081563168128e-16,
        "h[0]": 0.0,
        "h[1]": 0.0,
    },
    "periodic-dos": {  # near a branch point the density is steep, so mostly the rounding of x
        "value.max": 2.7503906723091563e-11,
        "value.sum": 5.930937915598889e-11,
    },
    "periodic-raylimit": {
        "A_hat[0]": 2.7774356499884137e-19,
        "A_hat[1]": 2.7774356499884137e-19,
        "B_hat[0]": 1.0833486725087381e-17,
        "B_hat[1]": 1.0833486725087381e-17,
        "diagonal_diffs[0][1]": 6.368162370685422e-19,
        "diagonal_diffs[0][2]": 6.368162370685422e-19,
        "diagonal_diffs[0][3]": 1.045524713166814e-17,
        "diagonal_diffs[0][4]": 1.045524713166814e-17,
        "diagonal_diffs[1][1]": 2.387552545131289e-18,
        "diagonal_diffs[1][2]": 2.387552545131289e-18,
        "diagonal_diffs[1][3]": 1.0971776780063651e-16,
        "diagonal_diffs[1][4]": 1.0971776780063651e-16,
        "diagonal_diffs[2][1]": 5.845974665909879e-18,
        "diagonal_diffs[2][2]": 5.845974665909879e-18,
        "diagonal_diffs[2][3]": 6.056936700582435e-17,
        "diagonal_diffs[2][4]": 6.056936700582435e-17,
        "diagonal_diffs[3][1]": 6.712108905900191e-18,
        "diagonal_diffs[3][2]": 6.712108905900191e-18,
        "diagonal_diffs[3][3]": 7.660437001492967e-17,
        "diagonal_diffs[3][4]": 7.660437001492967e-17,
        "diagonal_diffs[4][1]": 9.55517036141406e-18,
        "diagonal_diffs[4][2]": 9.55517036141406e-18,
        "diagonal_diffs[4][3]": 6.509462889251653e-17,
        "diagonal_diffs[4][4]": 6.509462889251653e-17,
        "diagonal_diffs[5][1]": 3.564320280213116e-18,
        "diagonal_diffs[5][2]": 3.564320280213116e-18,
        "diagonal_diffs[5][3]": 1.5704108675899094e-16,
        "diagonal_diffs[5][4]": 1.5704108675899094e-16,
        "diagonal_diffs[6][1]": 1.9717793150030525e-18,
        "diagonal_diffs[6][2]": 1.9717793150030525e-18,
        "diagonal_diffs[6][3]": 1.0329714088307986e-16,
        "diagonal_diffs[6][4]": 1.0329714088307986e-16,
    },
    "periodic-surface": {
        "critical_points[0]": 3.287241249656686e-17,
        "critical_points[1]": 8.734354937883754e-17,
        "critical_points[2]": 2.3678753083678113e-17,
        "critical_points[3]": 3.287241249656686e-17,
        "branch_points[0]": 3.997875738282043e-17,
        "branch_points[1]": 5.5488788263415925e-17,
        "branch_points[2]": 1.1104466543035754e-16,
        "branch_points[3]": 3.997875738282043e-17,
        "cuts[0][0]": 3.997875738282043e-17,
        "cuts[0][1]": 5.5488788263415925e-17,
        "cuts[1][0]": 1.1104466543035754e-16,
        "cuts[1][1]": 3.997875738282043e-17,
    },
    "tree-spectrum": {
        "E[0]": 4.003207551094223e-17,
        "E[1]": 7.134952786284544e-17,
        "E[2]": 8.883116717884423e-17,
        "E[3]": 1.6454187044345884e-16,
        "E[4]": 6.328466369063981e-17,
        "E[5]": 1.6454187044345884e-16,
        "E[6]": 8.883116717884423e-17,
        "E[7]": 1.6210402260135216e-17,
        "E[8]": 4.003207551094223e-17,
    },
    "tree-svec": {
        "E[0]": 1.5069507706218586e-16,
        "0:root_parent[0]": 4.99505012075849e-16,
        "0:root_parent[1]": 1.7749802913934337e-16,
        "0:root_parent[2]": 4.405588118342211e-17,
        "0:root_parent[3]": 1.850371707708594e-17,
        "0:root_parent[4]": 1.850371707708594e-17,
        "E[1]": 8.883116717884423e-17,
        "1:0[0]": 0.0,
        "1:0[1]": 2.433875254139246e-16,
        "1:0[2]": 2.0070168443613806e-16,
        "1:0[3]": 1.1262132752232024e-17,
        "1:0[4]": 1.2505536159127164e-13,
        "E[2]": 6.328466369063981e-17,
        "2:root_parent[0]": 9.2867989674177e-17,
        "2:root_parent[1]": 2.9377398703692105e-17,
        "2:root_parent[2]": 2.079802240534241e-17,
        "2:root_parent[3]": 1.850371707708594e-17,
        "2:root_parent[4]": 1.850371707708594e-17,
        "E[3]": 8.883116717884423e-17,
        "3:0[0]": 0.0,
        "3:0[1]": 2.0070168443613806e-16,
        "3:0[2]": 2.433875254139246e-16,
        "3:0[3]": 1.2505536159127164e-13,
        "3:0[4]": 1.1262132752232024e-17,
        "E[4]": 1.6210402260135216e-17,
        "4:root_parent[0]": 2.0007386076446926e-16,
        "4:root_parent[1]": 4.171508622023516e-18,
        "4:root_parent[2]": 9.80456167663152e-17,
        "4:root_parent[3]": 1.850371707708594e-17,
        "4:root_parent[4]": 1.850371707708594e-17,
    },
}


def _q(c: Fraction):
    """A rational as an mpf at the working precision."""
    return mpf(c.numerator) / c.denominator


def _mp(v):
    """A Fraction, int or mpf reference at the working precision."""
    return _q(v) if isinstance(v, Fraction) else mpf(v)


def _second_kind(n, z: Fraction):
    """L_n(z) = sum_j int A_n^{(j)}(t) dmu_j(t) / (z - t) at a rational z off
    both intervals.  Per interval [a, b] only the log is not rational:
    ``int t^k / (z - t) dt = z^k log((z - a)/(z - b)) - sum_{i<k} z^(k-1-i) (b^(i+1) - a^(i+1))/(i+1)``."""
    total = mpf(0)
    for coeffs, (a, b) in zip(ORACLE.type1(n), (ORACLE.i1, ORACLE.i2)):
        a, b = Fraction(a), Fraction(b)
        rest = Fraction(0)
        for k, c in enumerate(coeffs):
            rest += c * sum(z ** (k - 1 - i) * (b ** (i + 1) - a ** (i + 1)) / (i + 1) for i in range(k))
        total += _q(sum(c * z**k for k, c in enumerate(coeffs))) * mp.log(_q((z - a) / (z - b))) - _q(rest)
    return total


def _markov_derivative(z: Fraction) -> tuple:
    """(markov1'(z), markov2'(z)) of the two unit intervals, exactly: 1/(z - a) - 1/(z - b)."""
    return tuple(1 / (z - Fraction(a)) - 1 / (z - Fraction(b)) for a, b in (ORACLE.i1, ORACLE.i2))


def _real_zeros(coeffs) -> list:
    """Real zeros of a polynomial with rational ascending coefficients, at the working precision."""
    roots = mp.polyroots([_q(c) for c in reversed(coeffs)], maxsteps=200, extraprec=BITS)
    return sorted(mp.re(r) for r in roots)


def _printed(name, capsys, tmp_path, monkeypatch) -> dict:
    """The command's JSON document; for a command that writes a CSV file, its rows as ``{"rows": [(x, value)]}``."""
    monkeypatch.chdir(tmp_path)
    argv = GOLDEN_COMMANDS[name]
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    if "--out" not in argv:
        return json.loads(out)
    lines = (tmp_path / argv[argv.index("--out") + 1]).read_text().splitlines()
    assert lines[0] == "x,value"
    return {"rows": [tuple(map(float, line.split(","))) for line in lines[1:]]}


def _references(name, doc) -> list:
    """(label, printed value, reference) for each checked float of one command."""
    if name == "mop-coeffs":
        n = tuple(doc["record"]["n"])
        A1, A2 = ORACLE.type1(n)
        exact = {
            "A1": A1,
            "A2": A2,
            "P": ORACLE.type2(n),
            "a": [ORACLE.a(n, j) for j in (1, 2)],
            "b": [ORACLE.b(n, i) for i in (1, 2)],
            "h": [ORACLE.h(n, j) for j in (1, 2)],
        }
        printed = doc["record"]
        return [(f"{k}[{i}]", v, ref) for k, refs in exact.items() for i, (v, ref) in enumerate(zip(printed[k], refs))]
    if name == "angelesco-green":
        X, Y = tuple(doc["X"]), tuple(doc["Y"])
        assert (X, Y) == ((1,), (1, 2))  # G = -(m_X/m_Y) L_(2,2)(z) / L_(1,1)(z), m_X/m_Y = |a_2(2,1)|^(1/2)
        z = Fraction(doc["z"][0])
        assert doc["z"][1] == 0.0
        G = -mp.sqrt(_q(abs(ORACLE.a((2, 1), 2)))) * _second_kind((2, 2), z) / _second_kind((1, 1), z)
        return [
            ("formula.re", doc["formula"][0], G),
            ("formula.im", doc["formula"][1], 0),
            ("resolvent.re", doc["resolvent"][0], G),
            ("resolvent.im", doc["resolvent"][1], 0),
            ("rel_error", doc["rel_error"], 0),
        ]
    if name == "angelesco-rho":
        k1, k2 = (Fraction(v) for v in doc["kappa"])
        assert k1 == k2  # ang_u is mirror-symmetric, so the kappa-form vanishes at E = 0
        E = Fraction(0)
        d1, d2 = _markov_derivative(E)  # the mass is the residue L_(1,1)(E) / L_kappa'(E)
        mass = _second_kind((1, 1), E) / _q(k2 / ORACLE.mom(1, 0) * d1 + k1 / ORACLE.mom(2, 0) * d2)
        V_o = k1 * ORACLE.b((0, 1), 1) + k2 * ORACLE.b((1, 0), 2)
        (E_printed, m_printed), = doc["point_masses"]
        return [
            ("E", E_printed, E),
            ("mass", m_printed, mass),
            ("total_mass", doc["total_mass"], 1),
            ("first_moment", doc["first_moment"], V_o),
        ]
    if name == "tree-spectrum":
        _, sources = _finite_tree_zeros(doc)
        printed = [e["E"] for e in doc["eigenvalues"]]
        assert [e["g"] for e in doc["eigenvalues"]] == [1] * len(sources)
        return [(f"E[{i}]", v, ref) for i, (v, (ref, _)) in enumerate(zip(printed, sources))]
    if name == "tree-svec":
        return _svec_references(doc)
    if name == "periodic-surface":
        return _surface_references(doc)
    if name == "periodic-raylimit":
        return _raylimit_references(doc)
    density = _rho_density if name == "angelesco-dos-profile" else _dos_density
    return [(f"value[{i}]", v, density(mpf(x))) for i, (x, v) in enumerate(doc["rows"])]


def _rho_density(x):
    """The root spectral density of ``angelesco dos-profile`` at kappa = (1, 0): there
    the kappa-form is markov2 (unit masses), S_O is -markov2 on [-2, -1] and markov1 on
    [1, 2] over Xi = 3, and markov_k = log((z - a)/(z - b)) has the boundary value
    ``log((x - a)/(b - x)) - i pi`` on its own interval.  Evaluated at the printed x."""
    assert GOLDEN_COMMANDS["angelesco-dos-profile"][4:6] == ["--kappa", "1,0"]
    if x < 0:
        return -1 / (3 * mp.log((x - 1) / (x - 2)))
    return mp.log((x + 2) / (x + 1)) / (3 * (mp.log((x - 1) / (2 - x)) ** 2 + mp.pi**2))


def _dos_density(x):
    """``periodic dos`` at l = 1: Im M(x + i0) / pi with M = 1/(B1 - chi), chi the root
    with Im chi > 0 of the cubic z(chi) = x, Newton-polished from numpy's double root."""
    assert GOLDEN_COMMANDS["periodic-dos"][2:5] == ["--A", "0.25,0.25", "--B=-1,1"]
    A1, A2, B1, B2 = mpf(0.25), mpf(0.25), mpf(-1), mpf(1)
    # (chi - x)(chi - B1)(chi - B2) + A1 (chi - B2) + A2 (chi - B1), descending
    c = [1, -(B1 + B2 + x), B1 * B2 + x * (B1 + B2) + A1 + A2, -(x * B1 * B2 + A1 * B2 + A2 * B1)]
    chi = mp.mpc(complex(max(np.roots([complex(k) for k in c]), key=lambda r: r.imag)))
    for _ in range(12):
        chi -= mp.polyval(c, chi) / mp.polyval([3, 2 * c[1], c[2]], chi)
    return mp.im(1 / (B1 - chi)) / mp.pi


def _finite_tree_zeros(doc) -> tuple:
    """(the finite tree of ``doc["N"]``, [(E, X)] sorted by E): the zeros of the boundary
    polynomial kappa1 P_{N+e1} + kappa2 P_{N+e2} (both monic of degree |N| + 1), with X =
    "root_parent", and of P_n at every vertex X with two children."""
    N, (k1, k2) = tuple(doc["N"]), (Fraction(v) for v in doc["kappa"])
    tree = bfs_finite_tree(N)
    boundary = [k1 * x + k2 * y for x, y in zip(ORACLE.type2((N[0] + 1, N[1])), ORACLE.type2((N[0], N[1] + 1)))]
    sources = [(z, "root_parent") for z in _real_zeros(boundary)]
    for v, kids in enumerate(tree.children):
        if len(kids) == 2:
            sources += [(z, v) for z in _real_zeros(ORACLE.type2(tree.proj[v]))]
    return tree, sorted(sources, key=lambda s: s[0])


def _svec_references(doc) -> list:
    """The eigenvalues and canonical vectors of ``tree svec``: at each zero E the vector
    P_{proj(v)}(E) / m_v, or for a joint X its two child subtrees glued with opposite signs."""
    tree, sources = _finite_tree_zeros(doc)
    # W_v = |a_{iota_v}| at the parent's projection; m_v = prod of W^(-1/2) up to the root
    W = [mpf(1)] + [_q(abs(ORACLE.a(tree.proj[tree.parent[v]], tree.iota[v]))) for v in range(1, len(tree.proj))]
    m = [mpf(1)]
    for v in range(1, len(tree.proj)):
        m.append(m[tree.parent[v]] / mp.sqrt(W[v]))
    out = []
    for i, ((E, X), ev) in enumerate(zip(sources, doc["eigenvalues"])):
        out.append((f"E[{i}]", ev["E"], E))
        p = [sum(_q(c) * E**k for k, c in enumerate(ORACLE.type2(n))) / mv for n, mv in zip(tree.proj, m)]
        if X == "root_parent":
            vec = p
        else:
            vec = [mpf(0)] * len(p)
            for sign, (c, _) in zip((-1, 1), tree.children[X]):
                for u in tree.subtree_ids(c):
                    vec[u] = sign * p[u] / (mp.sqrt(W[c]) * p[c])
        key = f"{i}:{X}"
        out += [(f"{key}[{j}]", v, ref) for j, (v, ref) in enumerate(zip(doc["vectors"][key], vec))]
    assert len(out) == len(doc["eigenvalues"]) + sum(map(len, doc["vectors"].values()))
    return out


def _surface_references(doc) -> list:
    """Critical points of the rational map, the roots of the quartic
    (chi - B1)^2 (chi - B2)^2 - A1 (chi - B2)^2 - A2 (chi - B1)^2; branch points and cuts, their images."""
    A1, A2, B1, B2 = (Fraction(doc["params"][k]) for k in ("A1", "A2", "B1", "B2"))
    s1, s2 = _pmul([-B1, 1], [-B1, 1]), _pmul([-B2, 1], [-B2, 1])
    quartic = [x - A1 * y - A2 * w for x, y, w in zip(_pmul(s1, s2), s2 + [0, 0], s1 + [0, 0])]
    crit = _real_zeros(quartic)
    values = sorted(c + _q(A1) / (c - _q(B1)) + _q(A2) / (c - _q(B2)) for c in crit)
    out = [(f"critical_points[{i}]", v, ref) for i, (v, ref) in enumerate(zip(doc["critical_points"], crit))]
    out += [(f"branch_points[{i}]", v, ref) for i, (v, ref) in enumerate(zip(doc["branch_points"], values))]
    return out + [(f"cuts[{i}][{j}]", doc["cuts"][i][j], values[2 * i + j]) for i in range(2) for j in range(2)]


def _raylimit_references(doc) -> list:
    """``periodic raylimit`` at c = 1/2: the ray visits every diagonal point (j, j); A_hat and
    B_hat are (a_1, a_2) and (b_1, b_2) at the last one, each diff the change from (j - 1, j - 1)."""
    diffs = doc["diagonal_diffs"]
    assert doc["c"] == 0.5 and [d[0] for d in diffs] == list(range(4, 2 * len(diffs) + 3, 2))
    rows = [[ORACLE.a((j, j), 1), ORACLE.a((j, j), 2), ORACLE.b((j, j), 1), ORACLE.b((j, j), 2)]
            for j in range(1, len(diffs) + 2)]
    out = [(f"A_hat[{i}]", v, rows[-1][i]) for i, v in enumerate(doc["A_hat"])]
    out += [(f"B_hat[{i}]", v, rows[-1][2 + i]) for i, v in enumerate(doc["B_hat"])]
    for i, (_, *d) in enumerate(diffs):
        out += [(f"diagonal_diffs[{i}][{c + 1}]", v, abs(rows[i + 1][c] - rows[i][c])) for c, v in enumerate(d)]
    return out


def _pmul(p, r) -> list:
    """The product of two ascending coefficient lists."""
    out = [0] * (len(p) + len(r) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(r):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("name", sorted(DISTANCES))
def test_printed_values_are_no_farther_from_the_reference(name, capsys, tmp_path, monkeypatch):
    doc = _printed(name, capsys, tmp_path, monkeypatch)
    with workprec(BITS):
        got = {label: float(abs(mpf(v) - _mp(ref))) for label, v, ref in _references(name, doc)}
    if "rows" in doc:  # one distance per grid point: the table keeps the largest and the total
        got = {"value.max": max(got.values()), "value.sum": math.fsum(got.values())}
    assert got.keys() == DISTANCES[name].keys()
    worse = {label: (d, DISTANCES[name][label]) for label, d in got.items() if d > DISTANCES[name][label]}
    assert not worse
