import numpy as np
import pytest
from mpmath import workprec
from oracles import waves_and_fronts_sweep

from mop_trees import finite_spectral
from mop_trees.errors import JointError
from mop_trees.finite_spectral import (
    canonical_vector,
    eigenvalue_set,
    full_basis,
    s_orthogonalize,
    waves_and_fronts,
    waves_and_fronts_on,
)
from mop_trees.tree_jacobi import signature_diagonal
from mop_trees.tree_topology import ROOT_PARENT, finite_tree


class TestEigenvalueSet:
    def test_nine_values_with_provenance(self, ang_sys):
        eigs, table, _ = eigenvalue_set(ang_sys, (0, 1), (2, 1))
        assert len(eigs) == 9
        assert len(table["boundary"]) == 4       # boundary polynomial is P_{(2,2)}
        assert len(table[(2, 1)]) == 3
        assert len(table[(1, 1)]) == 2
        assert sum(e.g for e in eigs) == 9

    def test_one_one_count(self, ang_sys):
        eigs, table, _ = eigenvalue_set(ang_sys, (1, 0), (1, 1))
        assert len(eigs) == 5 and sum(e.g for e in eigs) == 5

    def test_pure_kappa_boundary_is_shifted_index(self, ang_sys):
        _, _, bpoly = eigenvalue_set(ang_sys, (1, 0), (2, 1))
        direct = ang_sys.record((3, 1)).P
        assert [float(c) for c in bpoly] == pytest.approx([float(c) for c in direct])

    def test_mixed_kappa_still_counts(self, ang_sys):
        eigs, _, _ = eigenvalue_set(ang_sys, (0.4, 0.6), (2, 1))
        assert sum(e.g for e in eigs) == 9


class TestCanonicalVectors:
    def test_one_value_table_per_eigenvalue(self, ang_sys, monkeypatch):
        tables = []
        lattice_values = finite_spectral.lattice_values

        def counting(fn, points):
            tables.append(len(points))
            return lattice_values(fn, points)

        monkeypatch.setattr(finite_spectral, "lattice_values", counting)
        dec = full_basis(ang_sys, (0, 1), (3, 2))
        assert len(dec.eigenvalues) == 27
        assert len(tables) == 27  # 34 (eigenvalue, joint) pairs read them

    def test_basis_vectors_equal_single_vectors(self, ang_sys):
        dec = full_basis(ang_sys, (0, 1), (3, 2))
        for (i, X), vec in dec.vectors.items():
            single = canonical_vector(ang_sys, (0, 1), (3, 2), dec.eigenvalues[i].E, X, op=dec.op)
            assert np.array_equal(vec, single)

    def test_trivial_vector_nonzero_at_root(self, ang_sys):
        eigs, table, _ = eigenvalue_set(ang_sys, (0, 1), (2, 1))
        E = table["boundary"][0]
        b = canonical_vector(ang_sys, (0, 1), (2, 1), E, ROOT_PARENT)
        assert b[0] != 0.0

    def test_vanishing_pattern_of_deep_joint(self, ang_sys):
        # eigenvector seeded two levels down vanishes at the root, at the joint,
        # and on the whole complementary branch
        dec = full_basis(ang_sys, (0, 1), (2, 1))
        tree = dec.tree
        i = next(i for i, e in enumerate(dec.eigenvalues) if (1, 1) in e.vanishing)
        X = next(x for x in dec.eigenvalues[i].joint_star if x != ROOT_PARENT)
        vec = dec.vectors[(i, X)]
        zero_projs = sorted(tree.proj[v] for v in range(len(tree)) if abs(vec[v]) < 1e-13)
        assert zero_projs == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]

    def test_value_at_joint_is_zero(self, ang_sys):
        dec = full_basis(ang_sys, (0, 1), (2, 2))
        for i, ev in enumerate(dec.eigenvalues):
            for X in ev.joint_star:
                if X != ROOT_PARENT:
                    assert dec.vectors[(i, X)][X] == 0.0

    def test_support_confined_to_child_subtrees(self, ang_sys):
        dec = full_basis(ang_sys, (0, 1), (3, 2))
        tree = dec.tree
        for (i, X), vec in dec.vectors.items():
            if X == ROOT_PARENT:
                continue
            allowed = set()
            for c, _ in tree.children[X]:
                allowed |= set(tree.subtree_ids(c))
            support = {v for v in range(len(tree)) if vec[v] != 0.0}
            assert support <= allowed

    def test_eigenvalue_csv(self, ang_sys):
        dec = full_basis(ang_sys, (0, 1), (1, 1))
        lines = dec.eigenvalue_csv().splitlines()
        assert lines[0] == "E,g" and len(lines) == 6

    def test_joint_error(self, ang_sys):
        with pytest.raises(JointError):
            canonical_vector(ang_sys, (0, 1), (2, 1), 123.456, ROOT_PARENT)


class TestFullBasis:
    @pytest.mark.parametrize("N", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_counting_identity(self, ang_sys, N):
        dec = full_basis(ang_sys, (0, 1), N)
        assert sum(e.g for e in dec.eigenvalues) == dec.op.n_vertices
        assert dec.report["rank"] == dec.op.n_vertices

    def test_dense_agreement(self, ang_sys):
        dec = full_basis(ang_sys, (0, 1), (2, 1))
        assert dec.report["dense_gap"] < 1e-10

    def test_zero_seed_rule(self, ang_sys):
        # if a canonical vector vanishes at the parent but not at the vertex,
        # the parent's polynomial vanishes at E
        from mop_trees import _poly as P

        dec = full_basis(ang_sys, (0, 1), (2, 2))
        tree = dec.tree
        for (i, X), vec in dec.vectors.items():
            E = dec.eigenvalues[i].E
            scale = np.max(np.abs(vec))
            for v in range(1, len(tree)):
                p = tree.parent[v]
                if abs(vec[v]) > 1e-8 * scale and abs(vec[p]) < 1e-10 * scale:
                    val = float(P.pval(ang_sys.record(tree.proj[p]).P, E))
                    assert abs(val) < 1e-8

    @pytest.mark.parametrize("ambient", [24, 1024])
    def test_bits_ignore_ambient_precision(self, ang_sys, ambient):
        # at 24 bits the caller's precision used to break the residual check
        def digest():
            dec = full_basis(ang_sys, (1, 0), (1, 1))
            return dec.to_json(), dec.boundary_poly, s_orthogonalize(dec).matrix.tobytes()

        expected = digest()
        with workprec(ambient):
            assert digest() == expected

    def test_nikishin_basis(self, nik_sys):
        dec = full_basis(nik_sys, (0, 1), (2, 2))
        assert dec.op.n_vertices == 19
        assert sum(e.g for e in dec.eigenvalues) == 19
        assert dec.report["dense_gap"] < 1e-8


class TestWaves:
    def test_joint_at_root(self, ang_sys):
        dec = full_basis(ang_sys, (0, 1), (2, 1))
        i = next(i for i, e in enumerate(dec.eigenvalues) if (2, 1) in e.vanishing)
        waves = waves_and_fronts(dec, dec.eigenvalues[i].E)
        assert waves[0][0] == {0} and waves[0][1] == {0}

    @staticmethod
    def worked_joint(t):
        """The vertex with proj (2, 1) below the (2, 2) child of the (3, 2) root."""
        return next(v for v in range(len(t)) if t.proj[v] == (2, 1) and t.proj[t.parent[v]] == (2, 2))

    def test_worked_partition_on_three_two(self):
        # synthetic joint set {root, X} with proj(X) = (2, 1) below the (2,2) child
        t = finite_tree((3, 2))
        X = self.worked_joint(t)
        waves = waves_and_fronts_on(t, [0, X])
        assert [len(w) for w, _ in waves] == [1, 25, 8]
        w2 = waves[1][0]
        xp = t.parent[X]
        assert xp in w2 and X in w2 and 0 not in w2
        kids = [c for c, _ in t.children[X]]
        assert waves[2][0] == set().union(*(set(t.subtree_ids(c)) for c in kids))

    def test_empty_joint_single_wave(self):
        t = finite_tree((2, 2))
        waves = waves_and_fronts_on(t, [])
        assert len(waves) == 1 and len(waves[0][0]) == len(t)
        assert waves[0][1] == set(t.canopy())

    @pytest.mark.parametrize("system, N", [("ang", (2, 1)), ("ang", (3, 2)), ("ang", (5, 4)), ("nik", (2, 2))])
    def test_eigenvalue_joint_sets_match_reference_sweep(self, request, system, N):
        sysm = request.getfixturevalue(f"{system}_sys")
        eigs, _, _ = eigenvalue_set(sysm, (0, 1), N)
        t = finite_tree(N)
        for ev in eigs:
            joints = [X for X in ev.joint_star if X != ROOT_PARENT]
            assert waves_and_fronts_on(t, joints) == waves_and_fronts_sweep(t, joints)

    def test_synthetic_joint_sets_match_reference_sweep(self):
        t = finite_tree((3, 2))
        for joints in ([], [0], [0, self.worked_joint(t)]):
            assert waves_and_fronts_on(t, joints) == waves_and_fronts_sweep(t, joints)


class TestOrthogonalization:
    def test_angelesco_orthonormal(self, ang_sys):
        dec = full_basis(ang_sys, (0, 1), (2, 1))
        basis = s_orthogonalize(dec)
        assert basis.gram_offdiag < 1e-12
        assert basis.inertia == (9, 0)

    def test_nikishin_inertia_matches_signature(self, nik_sys):
        dec = full_basis(nik_sys, (0, 1), (2, 2))
        basis = s_orthogonalize(dec)
        s = signature_diagonal(dec.op)
        assert basis.inertia == (int((s > 0).sum()), int((s < 0).sum()))
        assert basis.gram_offdiag < 1e-9

    def test_cross_eigenvalue_products_vanish(self, ang_sys):
        dec = full_basis(ang_sys, (0, 1), (2, 2))
        basis = s_orthogonalize(dec)
        s = signature_diagonal(dec.op)
        M = basis.matrix
        G = (M * s[:, None]).T @ M
        n = M.shape[1]
        for a in range(n):
            for b in range(a + 1, n):
                if basis.labels[a][0] != basis.labels[b][0]:
                    assert abs(G[a, b]) < 1e-10

    def test_unit_indefinite_norms(self, nik_sys):
        dec = full_basis(nik_sys, (0, 1), (2, 2))
        basis = s_orthogonalize(dec)
        s = signature_diagonal(dec.op)
        M = basis.matrix
        for j in range(M.shape[1]):
            nu = float(np.dot(s * M[:, j], M[:, j]))
            assert abs(abs(nu) - 1.0) < 1e-10
