import io

import numpy as np
import pytest
from mpmath import workprec

from mop_trees import tree_jacobi
from mop_trees.angelesco import angelesco_system
from mop_trees.errors import DomainError, ZeroWeightError
from mop_trees.finite_spectral import eigenvalue_set
from mop_trees.measures import uniform
from mop_trees.mop_engine import KappaForm, MopSystem
from mop_trees.tree_jacobi import (
    _assemble,
    assemble_finite,
    assemble_subtree,
    assemble_truncated,
    eigenfunction_residual,
    lattice_values,
    root_boundary_gap,
    s_selfadjoint_check,
    signature_diagonal,
)
from mop_trees.tree_topology import cayley_truncation


class TestAssembleFinite:
    def test_root_potential_pure_kappa(self, ang_sys):
        op = assemble_finite(ang_sys, (1, 0), (1, 1))
        assert op.V[0] == pytest.approx(float(ang_sys.recurrence((1, 1))[2]))

    def test_angelesco_is_symmetric(self, ang_sys):
        op = assemble_finite(ang_sys, (0, 1), (2, 2))
        assert int(op.sigma.sum()) == 0
        J = op.dense()
        assert np.max(np.abs(J - J.T)) == 0.0

    def test_nikishin_sign_placement(self, nik_sys):
        # sigma marks exactly the edges whose recurrence coefficient is negative
        op = assemble_finite(nik_sys, (0, 1), (2, 2))
        t = op.tree
        for v in range(1, op.n_vertices):
            a = float(nik_sys.recurrence(t.proj[t.parent[v]])[t.iota[v] - 1])
            assert op.sigma[v] == (0 if a > 0 else 1)
            assert op.W[v] == pytest.approx(abs(a))
        assert int(op.sigma.sum()) > 0

    def test_matrix_couplings(self, ang_sys):
        op = assemble_finite(ang_sys, (0, 1), (2, 1))
        J = op.dense()
        for v in range(1, op.n_vertices):
            p = op.tree.parent[v]
            assert J[v, p] == pytest.approx(np.sqrt(op.W[v]))
            assert J[p, v] == pytest.approx((-1.0) ** op.sigma[v] * np.sqrt(op.W[v]))


class TestAssembleTruncated:
    def test_depth_zero_diagonal(self, ang_sys):
        op = assemble_truncated(ang_sys, (1, 0), 0)
        assert op.dense().shape == (1, 1)
        assert op.V[0] == pytest.approx(float(ang_sys.recurrence((0, 1))[2]))

    def test_depth_two_symmetric(self, ang_sys):
        op = assemble_truncated(ang_sys, (0, 1), 2)
        assert op.n_vertices == 7
        J = op.dense()
        assert np.max(np.abs(J - J.T)) == 0.0

    def test_depth_two_nikishin_signs(self, nik_sys):
        op = assemble_truncated(nik_sys, (0, 1), 2)
        assert op.n_vertices == 7
        assert int(op.sigma.sum()) > 0

    def test_norm_bound(self, ang_sys):
        op = assemble_truncated(ang_sys, (0.5, 0.5), 6)
        norm = np.linalg.norm(op.dense(), 2)
        crude = np.max(np.abs(op.V)) + 3 * np.sqrt(np.max(op.W))
        assert norm <= crude

    def test_subtree_root_row(self, ang_sys):
        op = assemble_subtree(ang_sys, (2, 1), 1, 3)
        assert op.V[0] == pytest.approx(float(ang_sys.recurrence((1, 1))[2]))
        assert op.tree.root_proj == (2, 1)


class TestConstantRow:
    """The assembly reads any coefficient row function, a constant one included."""

    def test_zero_weight_raises(self):
        # vertex 1 is the first child, label 1, so it reads a1 = 0
        with pytest.raises(ZeroWeightError, match="edge to vertex 1"):
            _assemble(lambda n: (0.0, 1.0, 0.0, 0.0), cayley_truncation(2), (((0, 0), 1.0), ((0, 0), 0.0)), None)


class TestSignature:
    def test_identity_for_angelesco(self, ang_sys):
        op = assemble_finite(ang_sys, (0, 1), (2, 2))
        assert np.all(signature_diagonal(op) == 1.0)
        assert s_selfadjoint_check(op) == 0.0

    def test_nikishin_indefinite(self, nik_sys):
        op = assemble_finite(nik_sys, (0, 1), (2, 2))
        s = signature_diagonal(op)
        assert np.any(s < 0)
        assert s_selfadjoint_check(op) <= 1e-15

    def test_perturbation_detected(self, ang_sys):
        op = assemble_finite(ang_sys, (0, 1), (2, 1))
        op.sparse()  # build
        bad = op.sparse().tolil()
        bad[0, 1] += 0.1
        import scipy.sparse as sp

        s = signature_diagonal(op)
        S = sp.diags(s)
        R = S @ bad.tocsr() - bad.tocsr().T @ S
        assert np.max(np.abs(R.toarray())) > 0.05


class TestLoopReference:
    """The vectorized path products and matrix equal the per-vertex loops bit for bit."""

    @pytest.mark.parametrize("build", [lambda ang, nik: assemble_finite(nik, (0.3, 0.7), (3, 2)),
                                       lambda ang, nik: assemble_truncated(nik, (0.5, 0.5), 4),
                                       lambda ang, nik: assemble_finite(ang, (0.5, 0.5), (5, 4)),
                                       lambda ang, nik: assemble_finite(nik, (0.5, 0.5), (4, 3)),
                                       lambda ang, nik: assemble_truncated(ang, (0.3, 0.7), 6),
                                       lambda ang, nik: assemble_subtree(ang, (1, 2), 2, 4)])
    def test_against_loops(self, ang_sys, nik_sys, build):
        op = build(ang_sys, nik_sys)
        parent, n = op.tree.parent, op.n_vertices
        m, s, J = np.empty(n), np.ones(n), np.diag(op.V)
        for v in range(n):
            p, q = parent[v], 1.0 / np.sqrt(op.W[v])
            m[v] = q if p < 0 else m[p] * q
            if p >= 0:
                s[v] = s[p] * (-1.0) ** op.sigma[v]
                J[v, p] = np.sqrt(op.W[v])
                J[p, v] = (-1.0) ** op.sigma[v] * np.sqrt(op.W[v])
        assert np.array_equal(op.m_weights(), m)
        assert np.array_equal(signature_diagonal(op), s)
        assert np.array_equal(op.dense(), J)
        assert np.array_equal(op.sparse().toarray(), J)
        assert (int(op.sigma.sum()) > 0) == (op.sys is nik_sys)
        f = np.linspace(-1.0, 2.0, n) ** 3
        for vec in (f, f + 1j * np.cos(np.arange(n))):
            assert np.array_equal(op.apply(vec), op.sparse() @ vec)


class TestEigenfunctionIdentities:
    def test_polynomial_family_finite(self, ang_sys):
        op = assemble_finite(ang_sys, (0, 1), (1, 1))
        assert eigenfunction_residual(op, "p", 0.7) < 1e-12

    def test_polynomial_family_complex_argument(self, ang_sys):
        op = assemble_finite(ang_sys, (0.3, 0.7), (2, 1))
        assert eigenfunction_residual(op, "p", 0.4 + 0.2j) < 1e-12

    def test_second_kind_family(self, ang_sys):
        op = assemble_truncated(ang_sys, (1, 0), 4)
        assert eigenfunction_residual(op, "l", 5.0) < 1e-12

    def test_root_row_matches_markov_route(self, ang_sys):
        op = assemble_truncated(ang_sys, (0.3, 0.7), 3)
        raw, markov_route = root_boundary_gap(op, 5.0)
        assert abs(raw - markov_route) < 1e-10

    def test_commutator_family(self, ang_sys):
        op = assemble_truncated(ang_sys, (1, 0), 4)
        for X in (1, 2):
            for kl in ((1, 0), (2, 0), (2, 1)):
                assert eigenfunction_residual(op, "lambda_commutator", 5.0, X=X, kl=kl) < 1e-12

    def test_mp_families_ignore_ambient_precision(self, ang_sys):
        finite = assemble_finite(ang_sys, (0.3, 0.7), (2, 1))
        cayley = assemble_truncated(ang_sys, (1, 0), 4)
        seen = set()
        for ambient in (24, 53, 1024):
            with workprec(ambient):
                seen.add((
                    eigenfunction_residual(finite, "p", 0.4 + 0.2j),
                    eigenfunction_residual(cayley, "lambda_commutator", 5.0, X=1, kl=(2, 1)),
                ))
        assert len(seen) == 1


class TestExports:
    def test_matrix_market(self, nik_sys):
        from scipy.io import mmread

        op = assemble_finite(nik_sys, (0, 1), (2, 2))
        assert op.sigma.any()  # signed: the matrix is not symmetric
        text = op.to_matrix_market()
        header, size, *entries = text.splitlines()
        assert header == "%%MatrixMarket matrix coordinate real general"
        assert size == f"{op.n_vertices} {op.n_vertices} {len(entries)}"
        got, expected = mmread(io.BytesIO(text.encode())).tocsr(), op.sparse()
        assert got.shape == expected.shape and got.nnz == expected.nnz
        assert (got != expected).nnz == 0  # entry by entry, to the bit

    def test_metadata(self, nik_sys):
        op = assemble_finite(nik_sys, (0, 1), (2, 2))
        doc = op.metadata_json()
        assert doc["n_vertices"] == 19
        assert doc["signature_minus"] == 9


class TestOneReadPerPoint:
    """Each lattice point the tree reads is evaluated once, however many vertices read it."""

    @pytest.fixture
    def counted(self, monkeypatch):
        sys = angelesco_system(uniform(-2, -1), uniform(1, 2)).sys
        calls = []
        recurrence = sys.recurrence

        def counting(n):
            calls.append(tuple(n))
            return recurrence(n)

        monkeypatch.setattr(sys, "recurrence", counting)
        return sys, calls

    @staticmethod
    def corner(n0, depth):
        """Projections of the first ``depth`` generations of a Cayley tree rooted at n0."""
        return {(n0[0] + i, n0[1] + j) for i in range(depth) for j in range(depth - i)}

    def test_truncated(self, counted):
        sys, calls = counted
        assemble_truncated(sys, (0.5, 0.5), 8)
        assert sorted(calls) == sorted(self.corner((1, 1), 8) | {(0, 1), (1, 0)})  # 38 points
        assemble_truncated(sys, (1, 0), 8)
        assert len(calls) == 38  # the float table lives on the system

    def test_finite(self, counted):
        sys, calls = counted
        assemble_finite(sys, (0.5, 0.5), (4, 3))
        assert sorted(calls) == [(n1, n2) for n1 in range(5) for n2 in range(4)]

    def test_subtree(self, counted):
        sys, calls = counted
        assemble_subtree(sys, (2, 2), 1, 6)
        assert sorted(calls) == sorted(self.corner((2, 2), 6) | {(1, 2)})  # 22 points

    def test_second_kind_family(self, ang_sys, monkeypatch):
        calls = []
        second_kind = tree_jacobi.second_kind
        def counting(s, n, z):
            calls.append(tuple(n))
            return second_kind(s, n, z)

        monkeypatch.setattr(tree_jacobi, "second_kind", counting)
        op = assemble_truncated(ang_sys, (1, 0), 6)
        eigenfunction_residual(op, "l", 5.0)
        assert sorted(calls) == sorted(self.corner((1, 1), 7))  # 28 points for 127 vertices


class TestGenericIndex:
    def test_lattice_values_on_three_columns_equal_per_row_calls(self):
        points = np.random.default_rng(3).integers(0, 4, size=(60, 3))
        calls = []

        def fn(n):
            calls.append(n)
            return [float(n[0] - 2 * n[1] + 5 * n[2]), float(n[1])]

        got = lattice_values(fn, points)
        assert got.tolist() == [fn(tuple(row)) for row in points.tolist()]
        distinct = sorted(set(map(tuple, points.tolist())))
        assert calls[: len(distinct)] == distinct  # once per point, in lexicographic order
        assert all(type(k) is int for n in calls for k in n)

    def test_subtree_of_three_measures(self):
        sys = MopSystem((uniform(-3, -2), uniform(-0.5, 0.5), uniform(2, 3)))
        op = assemble_subtree(sys, (1, 1, 1), 2, 2)
        assert op.n_vertices == 13
        assert op.V[0] == sys.recurrence_float((1, 0, 1))[3 + 1]  # b_2 below the root, exactly
        J = op.dense()
        assert np.array_equal(J, J.T)

    def test_kappa_entry_points_need_two_measures(self):
        sys = MopSystem((uniform(-1, 1),))
        calls = [
            lambda: assemble_truncated(sys, (0.5, 0.5), 2),
            lambda: assemble_finite(sys, (0.5, 0.5), (2,)),
            lambda: eigenvalue_set(sys, (0.5, 0.5), (2,)),
            lambda: KappaForm(sys, (0.5, 0.5)),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="two measures"):
                call()
