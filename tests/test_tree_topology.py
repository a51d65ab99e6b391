from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mop_trees.tree_jacobi import TreeOperator
from mop_trees.tree_topology import (
    ROOT_PARENT,
    cayley_truncation,
    finite_tree,
    finite_tree_vertex_count,
)

from oracles import bfs_cayley_truncation, bfs_finite_tree


class TestFiniteTree:
    def test_two_one_has_nine_vertices(self):
        assert len(finite_tree((2, 1))) == 9

    def test_one_one_has_five_vertices(self):
        assert len(finite_tree((1, 1))) == 5

    def test_root_children_step_down(self):
        t = finite_tree((1, 1))
        assert sorted(t.proj[c] for c, _ in t.children[0]) == [(0, 1), (1, 0)]

    def test_canopy_projects_to_origin(self):
        t = finite_tree((2, 2))
        assert all(t.proj[v] == (0, 0) for v in t.canopy())
        assert t.proj[0] == (2, 2)

    def test_projection_step_rule(self):
        t = finite_tree((3, 2))
        for v in range(1, len(t)):
            p, c, lab = t.proj[t.parent[v]], t.proj[v], t.iota[v]
            step = (1, 0) if lab == 1 else (0, 1)
            assert (c[0] + step[0], c[1] + step[1]) == p

    def test_path_multiplicities(self):
        t = finite_tree((3, 2))
        counts = t.proj_counts()
        for n1 in range(4):
            for n2 in range(3):
                assert counts[(n1, n2)] == comb((3 - n1) + (2 - n2), 3 - n1)

    @given(n1=st.integers(1, 4), n2=st.integers(1, 4))
    @settings(max_examples=16, deadline=None)
    def test_vertex_count_formula(self, n1, n2):
        assert len(finite_tree((n1, n2))) == finite_tree_vertex_count((n1, n2))


class TestGenericIndex:
    """One child per measure: the trees of one and three measures."""

    @pytest.mark.parametrize("N", [(3,), (3, 2), (2, 1, 1), (1, 1, 1)])
    def test_vertex_count_formula(self, N):
        t = finite_tree(N)
        assert len(t) == finite_tree_vertex_count(N)
        assert np.array_equal(t.points[1:] + np.eye(len(N), dtype=int)[t.iota[1:] - 1], t.points[t.parent[1:]])

    def test_three_measure_count(self):
        assert len(finite_tree((2, 1, 1))) == 35

    def test_cayley_three_children(self):
        t = cayley_truncation(3, (1, 1, 1))
        assert len(t) == 40
        assert t.iota[1:].tolist() == [1, 2, 3] * 13
        assert np.array_equal(t.points[1:] - np.eye(3, dtype=int)[t.iota[1:] - 1], t.points[t.parent[1:]])

    @pytest.mark.parametrize("N", [(2, 0), (2, 1.5), (-1, 2), ()])
    def test_malformed_root_raises(self, N):
        with pytest.raises(ValueError):
            finite_tree(N)


class TestCayley:
    def test_depth_zero(self):
        t = cayley_truncation(0)
        assert len(t) == 1 and t.proj[0] == (1, 1)

    def test_depth_two_three_generations(self):
        t = cayley_truncation(2)
        assert len(t) == 7
        layer2 = sorted(t.proj[v] for v in range(len(t)) if t.depth[v] == 2)
        assert layer2 == [(1, 3), (2, 2), (2, 2), (3, 1)]

    def test_depth_ten_count(self):
        assert len(cayley_truncation(10)) == 2**11 - 1

    def test_projection_step_rule(self):
        t = cayley_truncation(4)
        for v in range(1, len(t)):
            p, c, lab = t.proj[t.parent[v]], t.proj[v], t.iota[v]
            step = (1, 0) if lab == 1 else (0, 1)
            assert (p[0] + step[0], p[1] + step[1]) == c

    def test_vertex_by_path(self):
        t = cayley_truncation(3)
        v = t.vertex_by_path((1, 2))
        assert t.proj[v] == (2, 2)
        with pytest.raises(KeyError):
            t.vertex_by_path((1, 1, 1, 1, 1))


def m_weights(tree, W):
    n = len(tree)
    op = TreeOperator(tree, np.zeros(n), np.asarray(W), np.zeros(n, dtype=int), None, None)
    return op.m_weights()


class TestPathWeight:
    def test_unit_weights(self):
        t = finite_tree((2, 1))
        assert np.all(m_weights(t, [1.0] * len(t)) == 1.0)

    def test_root_weight_one(self):
        t = finite_tree((1, 1))
        assert m_weights(t, [1.0, 4.0, 9.0, 4.0, 9.0])[0] == 1.0

    def test_chain_product(self):
        t = cayley_truncation(2)
        W = [1.0] + [4.0] * (len(t) - 1)
        left_leaf = t.vertex_by_path((1, 1))
        assert m_weights(t, W)[left_leaf] == pytest.approx(1 / 4)


def assert_same_tree(t, ref):
    assert len(t) == len(ref.parent)
    assert list(t.parent) == ref.parent
    assert t.children == ref.children
    assert t.proj == ref.proj
    assert list(t.iota) == ref.iota
    assert list(t.depth) == ref.depth
    for v in range(len(t)):
        assert list(t.subtree_ids(v)) == ref.subtree_ids(v)


class TestAgainstBfsReference:
    @pytest.mark.parametrize("N", [(n1, n2) for n1 in range(1, 5) for n2 in range(1, 5)])
    def test_finite(self, N):
        assert_same_tree(finite_tree(N), bfs_finite_tree(N))

    @pytest.mark.parametrize("root_proj", [(1, 1), (2, 3)])
    @pytest.mark.parametrize("depth", range(9))
    def test_cayley(self, depth, root_proj):
        ref = bfs_cayley_truncation(depth, root_proj)
        assert_same_tree(cayley_truncation(depth, root_proj), ref)

    def test_descendants_are_one_range_per_generation(self):
        t = finite_tree((3, 3))
        for v in range(len(t)):
            ids = t.subtree_ids(v)
            for d in np.unique(t.depth[ids]):
                layer = ids[t.depth[ids] == d]
                assert np.array_equal(layer, np.arange(layer[0], layer[-1] + 1))


class TestExports:
    def test_dot(self):
        s = finite_tree((1, 1)).to_dot()
        assert s.startswith("graph tree {") and s.count("--") == 4

    def test_json(self):
        import json

        doc = json.loads(cayley_truncation(1).to_json())
        assert doc["kind"] == "cayley"
        assert doc["parent"] == [ROOT_PARENT, 0, 0]
