"""The raw-tuple mp kernels replay mpmath bit for bit, and the engine's bits are pinned."""

import hashlib
import random
from fractions import Fraction

import pytest
from mpmath import lu_solve as mp_lu_solve, matrix, mp, mpf, workprec
from mpmath.libmp import from_rational, round_nearest
from oracles import uniform_moment

from mop_trees import _poly as P
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


def assert_replays_mpmath(rows, rhs, prec):
    """Both solve to the same bits, or both reject the matrix."""
    try:
        expected = mpmath_solve(rows, rhs, prec)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            P.lu_solve(rows, rhs, prec)
        return
    assert bits(P.lu_solve(rows, rhs, prec)) == expected


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
    @pytest.mark.parametrize("family", ["angelesco", "nikishin"])
    @pytest.mark.parametrize("d", range(1, 22))
    def test_moment_matrices_match_mpmath(self, fresh_systems, family, d):
        sys = fresh_systems[family]
        diagonal = (d - d // 2, d // 2)
        cases = [type2_system(sys, diagonal), type2_system(sys, (d, 0))]
        if d >= 2:
            cases.append(type1_system(sys, diagonal))
        for rows, rhs in cases:
            assert_replays_mpmath(rows, rhs, sys.precision_bits)

    @pytest.mark.parametrize("prec", [64, 256, 512])
    def test_random_dense_matrices_match_mpmath(self, prec):
        rng = random.Random(prec)

        def draw():
            # wider than the working precision, so the kernel's roundings all bite
            return mpf((rng.choice((-1, 1)) * rng.getrandbits(prec + 40), rng.randint(-prec - 48, -prec - 32)))

        for size in range(1, 13):
            with workprec(prec + 40):
                rows = [[draw() for _ in range(size)] for _ in range(size)]
                rhs = [draw() for _ in range(size)]
            assert_replays_mpmath(rows, rhs, prec)

    def test_first_maximal_pivot_score_wins(self):
        # rows 0 and 1 score |a_k0| / sum_l |a_kl| = 1/3 and 2/6: an exact tie
        rows = [[mpf(1), mpf(2), mpf(0)], [mpf(2), mpf(1), mpf(3)], [mpf(0), mpf(1), mpf(1)]]
        rhs = [mpf(1)] * 3
        with workprec(64):
            assert 1 / mpf(3) == 2 * (1 / mpf(6))
        got = bits(P.lu_solve(rows, rhs, 64))
        assert got == mpmath_solve(rows, rhs, 64)
        # the other pivot order rounds differently, so the tie rule is visible
        assert got != bits(P.lu_solve([rows[1], rows[0], rows[2]], rhs, 64))

    def test_rank_deficient_raises_where_mpmath_raises(self):
        rows = [[mpf(1), mpf(2), mpf(3)], [mpf(2), mpf(4), mpf(6)], [mpf(1), mpf(1), mpf(1)]]
        rhs = [mpf(1)] * 3
        with pytest.raises(ZeroDivisionError):
            mpmath_solve(rows, rhs, 64)
        with pytest.raises(ZeroDivisionError):
            P.lu_solve(rows, rhs, 64)

    def test_zero_pivot_column_raises(self):
        # mpmath fails here with a TypeError (no pivot row is ever chosen)
        rows = [[mpf(0), mpf(1)], [mpf(0), mpf(2)]]
        with pytest.raises(TypeError):
            mpmath_solve(rows, [mpf(1)] * 2, 64)
        with pytest.raises(ZeroDivisionError):
            P.lu_solve(rows, [mpf(1)] * 2, 64)


class TestSingularMomentMatrices:
    """Two atoms at 0 and 1 have exact moments 1, 1/2, 1/2, ...: rank 2."""

    def system(self):
        return MopSystem((Measure(atoms=((0, 0.5), (1, 0.5))), uniform(2, 3)), 128)

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


class TestDot:
    @pytest.mark.parametrize("prec", [24, 53, 256, 512])
    def test_equals_fsum_of_products(self, prec):
        rng = random.Random(prec)
        with workprec(300):
            xs, ys = (
                [mpf((rng.choice((-1, 1)) * rng.getrandbits(300), rng.randint(-400, 100))) for _ in range(40)]
                for _ in range(2)
            )
        xs[3] = ys[7] = mpf(0)
        for k in (0, 1, 2, 40):
            with workprec(prec):
                expected = mp.fsum(x * y for x, y in zip(xs[:k], ys[:k]))
            assert P.dot(xs[:k], ys[:k], prec)._mpf_ == expected._mpf_

    def test_empty_and_zero_terms(self):
        assert P.dot([], [], 256)._mpf_ == mpf(0)._mpf_
        assert P.dot([mpf(0), mpf(3)], [mpf(5), mpf(0)], 256)._mpf_ == mpf(0)._mpf_

    @pytest.mark.parametrize("prec, expected", [(24, 0), (256, 1)])
    def test_large_exponent_gaps_as_fsum(self, prec, expected):
        # fsum drops a term more than 2*prec bits below the running sum
        xs = [mpf(2) ** 100, mpf(1), -(mpf(2) ** 100)]
        ones = [mpf(1)] * 3
        with workprec(prec):
            assert mp.fsum(x * y for x, y in zip(xs, ones)) == expected
        assert P.dot(xs, ones, prec) == expected


class TestCauchySum:
    @pytest.mark.parametrize("prec", [24, 53, 256, 512])
    def test_equals_fsum_of_quotients(self, prec):
        rng = random.Random(prec)
        with workprec(300):
            xs = [mpf((rng.getrandbits(290), -290)) for _ in range(40)]  # nodes in [0, 1)
            vs = [mpf((rng.choice((-1, 1)) * rng.getrandbits(300), rng.randint(-320, -280))) for _ in range(40)]
            zs = [mpf(-0.25), mpf(1) + mpf(2) ** -40, mp.mpc(0.5, 1e-3), mp.mpc(-3, -2)]
        vs[5] = mpf(0)
        for z in zs:
            for k in (0, 1, 40):
                with workprec(prec):
                    zq = mp.mpc(z) if isinstance(z, mp.mpc) else mpf(z)
                    expected = mp.fsum(v / (zq - x) for x, v in zip(xs[:k], vs[:k]))
                    got = P.cauchy_sum([x._mpf_ for x in xs[:k]], [v._mpf_ for v in vs[:k]], zq, prec)
                assert type(got) is type(expected)
                assert getattr(got, "_mpc_", None) == getattr(expected, "_mpc_", None)
                assert getattr(got, "_mpf_", None) == getattr(expected, "_mpf_", None)

    def test_products_and_shifts_round_as_mpf(self):
        with workprec(300):
            xs = [mpf(1) / 3, mpf(2) ** 100 + 1, -mpf(7) / 11]
            ys = [mpf(3) / 7, mpf(5), mpf(1) / 9]
            c = mpf(1) / 13
        with workprec(64):
            assert P.products([x._mpf_ for x in xs], [y._mpf_ for y in ys], 64) == [(x * y)._mpf_ for x, y in zip(xs, ys)]
            assert P.shifted([x._mpf_ for x in xs], c._mpf_, 64) == [(x - c)._mpf_ for x in xs]


# ---------------------------------------------------------------------------
# bit pin of the engine
# ---------------------------------------------------------------------------

# sha256 of the fields below as computed by the mpmath.lu_solve / mp.fsum engine
# on the exactly rounded uniform moments; any change to the bits of a moment,
# record or recurrence row breaks it
ENGINE_DIGEST = "8450fefd3b5293e86b285315512976c6514ed98b657ed08eb9ff217baa36f155"


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


def engine_digest():
    fields = engine_fields(angelesco_system(uniform(-2, -1), uniform(1, 2)).sys, 10)
    fields += engine_fields(nikishin_system(uniform(2, 3), uniform(0, 1)).sys, 6)
    return digest(fields)


def digest(fields):
    """sha256 of (*label, raw mpf values) fields."""
    h = hashlib.sha256()
    for *label, values in fields:
        h.update(repr(tuple(label)).encode())
        for sign, man, exp, bc in values:
            h.update(f"{sign} {int(man)} {exp} {bc};".encode())
    return h.hexdigest()


def test_engine_bits_pinned():
    assert engine_digest() == ENGINE_DIGEST


@pytest.mark.parametrize("ambient", [24, 1024])
def test_engine_bits_ignore_ambient_precision(ambient):
    with workprec(ambient):
        assert engine_digest() == ENGINE_DIGEST


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


# sha256 of moments 0..40 of the measures above at 53 and 256 bits, as the
# Gauss-Legendre rule summed them before uniform moments took the closed form
RULE_MOMENT_DIGEST = "919164065bb5826f7dfaf20ad308bf2983cca1990b974543de62f45a572ac41a"


def test_moments_of_other_densities_keep_the_rule_bits():
    fields = [(name, prec, bits(mu.moments_mp(40, prec))) for prec in (53, 256) for name, mu in rule_route_measures().items()]
    assert digest(fields) == RULE_MOMENT_DIGEST
