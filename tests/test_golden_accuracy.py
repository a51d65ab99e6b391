"""Accuracy ratchet for the golden CLI outputs.

Each printed float of ``mop coeffs``, ``angelesco green``, ``angelesco rho``
and the eigenvalues of ``tree spectrum`` (all on ``ang_u``) is compared with
an independent reference: exact rationals from ``oracles.UniformPairOracle``,
or 512-bit values built from them with the closed-form Cauchy transform of a
uniform interval.  ``DISTANCES`` records how far each printed value lies from
its reference today; a command may print a value closer to its reference,
never farther.  A change that moves a golden on purpose lowers the table.
"""

import json
from fractions import Fraction

import pytest
from mpmath import mp, mpf, workprec

from mop_trees.cli import main

from oracles import UniformPairOracle, bfs_finite_tree
from test_cli import GOLDEN_COMMANDS

ORACLE = UniformPairOracle()  # ang_u: uniform on [-2, -1] and on [1, 2]
BITS = 512

# per command, per printed value: its distance from the reference at the
# recorded golden output
DISTANCES = {
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
    monkeypatch.chdir(tmp_path)
    assert main(list(GOLDEN_COMMANDS[name])) == 0
    return json.loads(capsys.readouterr().out)


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
    N, (k1, k2) = tuple(doc["N"]), (Fraction(v) for v in doc["kappa"])
    # the boundary polynomial kappa1 P_{N+e1} + kappa2 P_{N+e2} (both monic of degree |N| + 1)
    # and P_n at every vertex with two children
    polys = [[k1 * x + k2 * y for x, y in zip(ORACLE.type2((N[0] + 1, N[1])), ORACLE.type2((N[0], N[1] + 1)))]]
    tree = bfs_finite_tree(N)
    polys += [ORACLE.type2(tree.proj[v]) for v in range(len(tree.proj)) if len(tree.children[v]) == 2]
    refs = sorted(z for p in polys for z in _real_zeros(p))
    printed = [e["E"] for e in doc["eigenvalues"]]
    assert [e["g"] for e in doc["eigenvalues"]] == [1] * len(refs)
    return [(f"E[{i}]", v, ref) for i, (v, ref) in enumerate(zip(printed, refs))]


@pytest.mark.parametrize("name", sorted(DISTANCES))
def test_printed_values_are_no_farther_from_the_reference(name, capsys, tmp_path, monkeypatch):
    doc = _printed(name, capsys, tmp_path, monkeypatch)
    with workprec(BITS):
        got = {label: float(abs(mpf(v) - _mp(ref))) for label, v, ref in _references(name, doc)}
    assert got.keys() == DISTANCES[name].keys()
    worse = {label: (d, DISTANCES[name][label]) for label, d in got.items() if d > DISTANCES[name][label]}
    assert not worse
