"""The engine's LU route is mpmath's, and the engine's bits are pinned."""

import hashlib
import random
from fractions import Fraction

import pytest
from mpmath import lu_solve as mp_lu_solve, matrix, mp, mpf, workprec
from mpmath.libmp import from_rational, round_nearest
from oracles import uniform_moment
from test_mop_engine import jacobi_pair

from mop_trees.angelesco import angelesco_system
from mop_trees.errors import NormalityError
from mop_trees.measures import DensitySpec, Measure, Piece, uniform
from mop_trees.mop_engine import MopRecord, MopSystem
from mop_trees.nikishin import nikishin_system


def bits(values):
    return [v._mpf_ for v in values]


def mpmath_solve(rows, rhs, prec):
    with workprec(prec):
        return bits(mp_lu_solve(matrix(rows), matrix(rhs)))


def type2_system(sys, n):
    d = n[0] + n[1]
    rows, rhs = [], []
    for j, nk in ((1, n[0]), (2, n[1])):
        mom = sys.moments(j, nk + d)
        with workprec(sys.precision_bits):
            for m in range(nk):
                rows.append(mom[m : m + d])
                rhs.append(-mom[m + d])
    return rows, rhs


def type1_system(sys, n):
    d = n[0] + n[1]
    m1, m2 = sys.moments(1, 2 * d), sys.moments(2, 2 * d)
    rows = [m1[m : m + n[0]] + m2[m : m + n[1]] for m in range(d)]
    return rows, [mpf(0)] * (d - 1) + [mpf(1)]


@pytest.fixture(scope="module")
def fresh_systems():
    return {
        "angelesco": angelesco_system(uniform(-2, -1), uniform(1, 2)).sys,
        "nikishin": nikishin_system(uniform(2, 3), uniform(0, 1)).sys,
    }


class TestLuSolve:
    """The engine's LU route (``MopSystem._solve``) is ``mpmath.lu_solve`` at the
    system's precision, whatever the ambient precision, with mpmath's singular
    matrices as NormalityError."""

    @pytest.mark.parametrize("family", ["angelesco", "nikishin"])
    @pytest.mark.parametrize("d", range(1, 22))
    def test_moment_matrices_match_mpmath(self, fresh_systems, family, d):
        sys = fresh_systems[family]
        diagonal = (d - d // 2, d // 2)
        cases = [type2_system(sys, diagonal), type2_system(sys, (d, 0))]
        if d >= 2:
            cases.append(type1_system(sys, diagonal))
        for rows, rhs in cases:
            with workprec(24):
                got = bits(sys._solve(rows, rhs, diagonal, "II"))
            assert got == mpmath_solve(rows, rhs, sys.precision_bits)

    @pytest.mark.parametrize("prec", [64, 256, 512])
    def test_random_dense_matrices_match_mpmath(self, prec):
        rng = random.Random(prec)
        sys = MopSystem((uniform(0, 1), uniform(2, 3)), prec)

        def draw():
            # wider than the working precision, so the solve's roundings all bite
            return mpf((rng.choice((-1, 1)) * rng.getrandbits(prec + 40), rng.randint(-prec - 48, -prec - 32)))

        for size in range(1, 13):
            with workprec(prec + 40):
                rows = [[draw() for _ in range(size)] for _ in range(size)]
                rhs = [draw() for _ in range(size)]
                got = bits(sys._solve(rows, rhs, (size, 0), "II"))
            assert got == mpmath_solve(rows, rhs, prec)

    def test_rank_deficient_raises_where_mpmath_raises(self):
        rows = [[mpf(1), mpf(2), mpf(3)], [mpf(2), mpf(4), mpf(6)], [mpf(1), mpf(1), mpf(1)]]
        rhs = [mpf(1)] * 3
        with pytest.raises(ZeroDivisionError):
            mpmath_solve(rows, rhs, 64)
        with pytest.raises(NormalityError, match=r"type II moment matrix singular at n=\(3, 0\)"):
            MopSystem((uniform(0, 1), uniform(2, 3)), 64)._solve(rows, rhs, (3, 0), "II")

    def test_zero_pivot_column_raises(self):
        # mpmath fails here with a TypeError (no pivot row is ever chosen)
        rows = [[mpf(0), mpf(1)], [mpf(0), mpf(2)]]
        with pytest.raises(TypeError):
            mpmath_solve(rows, [mpf(1)] * 2, 64)
        with pytest.raises(NormalityError, match=r"type I moment matrix singular at n=\(1, 1\)"):
            MopSystem((uniform(0, 1), uniform(2, 3)), 64)._solve(rows, [mpf(1)] * 2, (1, 1), "I")


class TestSingularMomentMatrices:
    """Two atoms at 0 and 1 have exact moments 1, 1/2, 1/2, ...: rank 2.  The second
    measure's moments are rule-based, so the mp LU solves the pair (the lattice
    fill's counterpart is in test_exact_solves.py)."""

    def system(self):
        weight = Measure(pieces=(Piece(2, 3, DensitySpec("jacobi_weight", p=1, q=1)),))
        return MopSystem((Measure(atoms=((0, 0.5), (1, 0.5))), weight), 128)

    def test_type2_raises_normality_error(self):
        sys = self.system()
        rows, rhs = type2_system(sys, (3, 0))
        with pytest.raises(ZeroDivisionError):
            mpmath_solve(rows, rhs, 128)
        with pytest.raises(NormalityError, match="type II moment matrix singular"):
            sys.type2((3, 0))

    def test_type1_raises_normality_error(self, monkeypatch):
        sys = self.system()
        rows, rhs = type1_system(sys, (3, 0))
        with pytest.raises(ZeroDivisionError):
            mpmath_solve(rows, rhs, 128)
        # reach the type I solve without the type II one, which fails first
        monkeypatch.setattr(MopSystem, "record", lambda self, n: MopRecord(n=tuple(n)))
        with pytest.raises(NormalityError, match="type I moment matrix singular"):
            sys.type1_record((3, 0))


# ---------------------------------------------------------------------------
# bit pin of the engine
# ---------------------------------------------------------------------------

# sha256 of the fields below, per system; any change to the bits of a moment,
# record or recurrence row breaks them.  The Nikishin system and the
# jacobi_weight pair (rule-based moments) are solved by mpmath.lu_solve, with
# h as mp.fsum of the mpf products; the density column of the Nikishin
# mu2 reads tau's mp Markov function in closed form
# (test_nikishin_mu2_moments_are_within_one_ulp_of_quad checks those moments).
# The jacobi_weight pair is the weights (x - a)(b - x) on [-2, -1] and [1, 2].
# The Angelesco pair and the skew uniform pair (53-bit endpoints) take the
# lattice fill: every value is the exact rational rounded once
# (tests/test_exact_solves.py checks both against exact solves of the moment
# systems).
ENGINE_DIGESTS = {
    "angelesco": "78e1c3d216b085ca368ffa7b4df33e369fa099ceda7d908f1eb56339e6d76f6d",
    "jacobi_weight": "45376a0484df47b34a4b1a93bfad78cab721c7c929c641a2200657ec6af55541",
    "nikishin": "511ebaffc9d44ed629ae83fb96f9ec0c53c9f984dc61c11c43c6a6d6f739fd4c",
    "skew_pair": "90ca11d164e4c0d63c99a7d2140cdc169b5bce1a6cd1625830728b2b385218b5",
}


def engine_fields(sys, nmax, moments_upto=40):
    """Moments 0..40 of both measures, then P, h, A1, A2, A0 and the recurrence row for |n| <= nmax."""
    out = [("mom", bits(mu.moments_mp(moments_upto, sys.precision_bits))) for mu in sys.measures]
    for d in range(nmax + 1):
        for n1 in range(d, -1, -1):
            n = (n1, d - n1)
            rec = sys.record(n)
            out.append((n, "P", bits(rec.P)))
            out.append((n, "h", bits(rec.h)))
            if d >= 1:
                rec = sys.type1_record(n)
                out.extend((n, name, bits(c)) for name, c in zip(("A1", "A2", "A0"), (*rec.A, rec.A0)))
            out.append((n, "rec", bits(sys.recurrence(n))))
    return out


def engine_digest(name):
    sys, nmax = {
        "angelesco": lambda: (angelesco_system(uniform(-2, -1), uniform(1, 2)).sys, 10),
        "nikishin": lambda: (nikishin_system(uniform(2, 3), uniform(0, 1)).sys, 6),
        "skew_pair": lambda: (angelesco_system(uniform(-2.791, -2.54), uniform(-2.301, -0.975)).sys, 6),
        "jacobi_weight": lambda: (MopSystem(jacobi_pair(), 256), 6),
    }[name]()
    return digest(engine_fields(sys, nmax))


def digest(fields):
    """sha256 of (*label, raw mpf values) fields."""
    h = hashlib.sha256()
    for *label, values in fields:
        h.update(repr(tuple(label)).encode())
        for sign, man, exp, bc in values:
            h.update(f"{sign} {int(man)} {exp} {bc};".encode())
    return h.hexdigest()


def test_engine_bits_pinned():
    assert {name: engine_digest(name) for name in ENGINE_DIGESTS} == ENGINE_DIGESTS


@pytest.mark.parametrize("ambient", [24, 1024])
def test_engine_bits_ignore_ambient_precision(ambient):
    with workprec(ambient):
        assert {name: engine_digest(name) for name in ENGINE_DIGESTS} == ENGINE_DIGESTS


def test_moment_bits_ignore_call_history():
    # extending a cached moment table carries the power rows, so a system that
    # solved (2,2) first holds the same bits as one that solves (10,10) cold
    warm = angelesco_system(uniform(-2, -1), uniform(1, 2)).sys
    warm.record((2, 2))
    cold = angelesco_system(uniform(-2, -1), uniform(1, 2)).sys
    for sys in (warm, cold):
        sys.record((10, 10))
    prec = cold.precision_bits
    for mu_w, mu_c in zip(warm.measures, cold.measures):
        assert bits(mu_w.moments_mp(30, prec)) == bits(mu_c.moments_mp(30, prec))
    assert bits(warm.record((10, 10)).P) == bits(cold.record((10, 10)).P)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

# (pieces, atoms) of measures whose pieces are all uniform
UNIFORM_CASES = {
    "left": ([(-2, -1)], []),
    "right": ([(1, 2)], []),
    "pieces_and_atoms": ([(-2.5, -0.75), (0.3, 1.7)], [(0.1, 0.3), (2.25, 1.5)]),
}


def uniform_case(name):
    pieces, atoms = UNIFORM_CASES[name]
    return Measure(atoms=tuple(atoms), pieces=tuple(Piece(a, b) for a, b in pieces))


def exact_moment_bits(name, upto, prec):
    """The exact rational moments of the case, each rounded once to nearest at ``prec`` bits."""
    pieces, atoms = UNIFORM_CASES[name]
    out = []
    for k in range(upto + 1):
        q = sum(uniform_moment(a, b, k) for a, b in pieces) + sum(Fraction(m) * Fraction(x) ** k for x, m in atoms)
        out.append(from_rational(q.numerator, q.denominator, prec, round_nearest))
    return out


@pytest.mark.parametrize("prec", [53, 256, 1024])
@pytest.mark.parametrize("name", sorted(UNIFORM_CASES))
def test_uniform_moments_are_exact_rationals_rounded_once(name, prec):
    expected = exact_moment_bits(name, 40, prec)
    assert bits(uniform_case(name).moments_mp(40, prec)) == expected
    grown = uniform_case(name)
    grown.moments_mp(6, prec)
    assert bits(grown.moments_mp(40, prec)) == expected
    for ambient in (24, 1024):
        with workprec(ambient):
            assert bits(uniform_case(name).moments_mp(40, prec)) == expected


def rule_route_measures():
    return {
        "jacobi_weight": Measure(pieces=(Piece(-1.0, 1.0, DensitySpec("jacobi_weight", p=0.5, q=-0.5, poly=(1.0, 0.25))),)),
        "markov_weighted": nikishin_system(uniform(2, 3), uniform(0, 1)).mu2,
        "mixed": Measure(atoms=((0.0, 0.5),), pieces=(Piece(-2.0, -1.0), Piece(1.0, 2.0, DensitySpec("jacobi_weight", p=1.5)))),
    }


# sha256 of moments 0..40 of each measure above at 53 and 256 bits, as the
# Gauss-Legendre rule sums them.  The markov_weighted entry reads tau's
# Markov function in closed form at each node; the other two keep the bits
# the rule gave before uniform moments took the closed form.
RULE_MOMENT_DIGESTS = {
    "jacobi_weight": "26c5b5557f0431ee18f96bccef41d3503184ae170d7c6430b86d50b3aa7363ec",
    "markov_weighted": "6846efc523325165956d675f03ce51090d6b86129ce50a1a7c3a93c74017871c",
    "mixed": "266a024887e11501a144b4fc6fac015f9f9e0e2236bec93669569a466f0d2e6f",
}


def test_moments_of_other_densities_keep_the_rule_bits():
    got = {
        name: digest([(name, prec, bits(mu.moments_mp(40, prec))) for prec in (53, 256)])
        for name, mu in rule_route_measures().items()
    }
    assert got == RULE_MOMENT_DIGESTS


@pytest.mark.parametrize("ambient", [24, 1024])
def test_rule_moment_bits_ignore_ambient_precision(ambient):
    with workprec(ambient):
        got = {
            name: digest([(name, prec, bits(mu.moments_mp(40, prec))) for prec in (53, 256)])
            for name, mu in rule_route_measures().items()
        }
    assert got == RULE_MOMENT_DIGESTS


def test_nikishin_mu2_moments_are_within_one_ulp_of_quad():
    # dmu2 = log(x/(x - 1)) dx on [2, 3], the Markov function of tau = uniform(0, 1)
    # times mu1 = uniform(2, 3); the reference is mpmath's quad at 700 bits
    logs = {}

    def s_tau(x):
        if x._mpf_ not in logs:
            logs[x._mpf_] = mp.log(x / (x - 1))
        return logs[x._mpf_]

    with workprec(700):
        refs = [mp.quad(lambda x: x**k * s_tau(x), [2, 3]) for k in range(41)]
    for prec in (53, 256):
        moments = nikishin_system(uniform(2, 3), uniform(0, 1)).mu2.moments_mp(40, prec)
        for k, (m, ref) in enumerate(zip(moments, refs)):
            _, _, exp, bc = m._mpf_
            with workprec(800):
                assert abs(m - ref) <= mpf(2) ** (exp + bc - prec), (prec, k)
