"""Jacobi operators on trees assembled from nearest-neighbor recurrence coefficients.

The operator acts by

``(J f)_Y = V_Y f_Y + W_Y^{1/2} f_{parent} + sum_children (-1)^{sigma_c} W_c^{1/2} f_c``

so the matrix has ``W_Y^{1/2}`` above the diagonal (row Y, column parent) and
``(-1)^{sigma_Y} W_Y^{1/2}`` below it.  When every recurrence coefficient
``a`` is positive (Angelesco input) sigma vanishes and the matrix is
symmetric; otherwise it is self-adjoint only in the indefinite inner product
``[f, g] = <S f, g>`` with the +-1 diagonal ``S`` returned by
:func:`signature_diagonal`.

Nikishin input is accepted as well: the truncations are perfectly good finite
matrices even though their coefficients blow up along the near-diagonal
multi-indices, so no bounded operator exists in the limit.

A vertex enters every per-vertex quantity (the coefficients and the values of
the eigenfunction families) only through a lattice point, so
:func:`lattice_values` evaluates each quantity once per distinct point and
gathers it to the vertices by integer-array indexing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from mpmath import mpc, workprec

from . import _poly as P
from .errors import ZeroWeightError
from .mop_engine import KappaForm, MopSystem, SecondKind, add, kappa_pair, label, require_pair, second_kind, sub
from .tree_topology import Tree, cayley_truncation, finite_tree

_DENSE_LIMIT = 4096


def lattice_values(fn, points) -> np.ndarray:
    """``fn(n)`` once per distinct lattice point n in N^d among the rows of
    ``points`` (n a tuple of ints, in lexicographic order), gathered back to the rows."""
    cols = np.asarray(points).T
    dims = tuple(int(c.max(initial=0)) + 1 for c in cols)  # mixed radix: integer keys sort as the points do
    keys, inverse = np.unique(np.ravel_multi_index(cols, dims), return_inverse=True)
    table = np.array([fn(n) for n in zip(*(c.tolist() for c in np.unravel_index(keys, dims)))])
    return table[inverse]


@dataclass
class TreeOperator:
    tree: Tree
    V: np.ndarray
    W: np.ndarray              # per vertex, weight of the edge to the parent (W_root = 1)
    sigma: np.ndarray
    kappa: tuple | None
    sys: MopSystem | None

    @property
    def n_vertices(self) -> int:
        return len(self.V)

    def _entries(self) -> tuple:
        """(rows, cols, values) of the nonzero entries; no coordinate repeats."""
        n = self.n_vertices
        ids, v, p = np.arange(n), np.arange(1, n), self.tree.parent[1:]
        sq = np.sqrt(self.W[1:])
        rows = np.concatenate([ids, v, p])           # row v, parent column: sqrt(W_v)
        cols = np.concatenate([ids, p, v])
        return rows, cols, np.concatenate([self.V, sq, np.where(self.sigma[1:], -sq, sq)])

    def sparse(self) -> scipy.sparse.csr_matrix:
        """A fresh CSR copy of the matrix, for the sparse LU oracles."""
        import scipy.sparse
        rows, cols, vals = self._entries()
        return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(self.n_vertices,) * 2)

    def dense(self) -> np.ndarray:
        """The matrix as a numpy array, equal to ``sparse().toarray()`` without loading scipy."""
        if self.n_vertices > _DENSE_LIMIT:
            raise ValueError("dense matrix requested for a large truncation; use sparse()")
        rows, cols, vals = self._entries()
        J = np.zeros((self.n_vertices,) * 2)
        J[rows, cols] = vals
        return J

    def apply(self, f: np.ndarray) -> np.ndarray:
        """J f, each row's terms summed in entry order, real and imaginary parts apart: bit for
        bit ``sparse() @ f``, whose rows swap only their first two terms (parent, diagonal)."""
        rows, cols, vals = self._entries()
        terms, n = vals * f[cols], self.n_vertices
        if not np.iscomplexobj(terms):
            return np.bincount(rows, terms, n)
        out = np.bincount(rows, terms.real, n).astype(complex)
        out.imag = np.bincount(rows, terms.imag, n)
        return out

    def m_weights(self) -> np.ndarray:
        """m_Y = prod of W^{-1/2} along the path to the root (both ends included)."""
        return self.tree.path_products(1.0 / np.sqrt(self.W))

    def to_matrix_market(self) -> str:
        """The matrix as Matrix Market coordinate text: the header, the size
        line and one 1-based ``i j v`` line per entry, v in shortest ``repr``."""
        rows, cols, vals = self._entries()
        lines = ["%%MatrixMarket matrix coordinate real general", f"{self.n_vertices} {self.n_vertices} {len(vals)}"]
        lines += [f"{i + 1} {j + 1} {v!r}" for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist())]
        return "\n".join(lines) + "\n"

    def metadata_json(self) -> dict:
        return {
            "kind": self.tree.kind,
            "n_vertices": self.n_vertices,
            "kappa": list(self.kappa) if self.kappa is not None else None,
            "root_proj": list(self.tree.root_proj),
            "signature_minus": int(np.sum(signature_diagonal(self) < 0)),
        }


def _assemble(coef, tree: Tree, root_terms, kappa, sys: MopSystem | None = None) -> TreeOperator:
    """The operator on ``tree`` with coefficients read from ``coef(n) -> (a_1..a_d, b_1..b_d)``.

    A vertex v below the root reads a_{iota_v} at its parent's projection
    (W_v = |a|, sigma_v = 1 when a < 0) and b_{iota_v} at the lower end of the
    edge to its parent (V_v).  The root reads ``V = sum_j w_j b_j(n_j)`` for
    one root term ``(n_j, w_j)`` per measure.  ``sys`` is kept on the operator.
    """
    n, d = len(tree), len(root_terms)
    lab = tree.iota[1:] - 1
    upper = tree.points[tree.parent[1:]]
    lower = np.minimum(upper, tree.points[1:])
    rows = lattice_values(coef, np.vstack([upper, lower, [nj for nj, _ in root_terms]]))
    edge = np.arange(n - 1)
    a = rows[edge, lab]
    if np.any(a == 0):
        v = int(np.flatnonzero(a == 0)[0]) + 1
        raise ZeroWeightError(f"vanishing recurrence coefficient on edge to vertex {v}")
    root = sum(w * b for (_, w), b in zip(root_terms, np.diagonal(rows[-d:, d:])))
    V = np.concatenate([[root], rows[n - 1 + edge, d + lab]])
    W = np.concatenate([[1.0], np.abs(a)])
    sigma = np.concatenate([[0], (a < 0).astype(int)])
    return TreeOperator(tree, V, W, sigma, kappa, sys)


def assemble_finite(sys: MopSystem, kappa, N) -> TreeOperator:
    """Operator on the finite tree for root mixing weights kappa (kappa1 + kappa2 = 1)."""
    require_pair(sys)
    kappa = kappa_pair(kappa)
    tree = finite_tree(N)
    return _assemble(sys.recurrence_float, tree, tuple((tree.root_proj, k) for k in kappa), kappa, sys)


def assemble_truncated(sys: MopSystem, kappa, depth: int) -> TreeOperator:
    """Dirichlet truncation of the operator on the rooted Cayley tree."""
    require_pair(sys)
    kappa = kappa_pair(kappa)
    root_terms = (((0, 1), kappa[0]), ((1, 0), kappa[1]))
    return _assemble(sys.recurrence_float, cayley_truncation(depth), root_terms, kappa, sys)


def assemble_subtree(sys: MopSystem, root_proj, root_iota: int, depth: int) -> TreeOperator:
    """Truncation of the restriction of the Cayley-tree operator to a subtree.

    The subtree root X has projection ``root_proj`` reached by a step of label
    ``root_iota``; the restriction keeps the diagonal entry of X but drops the
    coupling to its parent.
    """
    tree = cayley_truncation(depth, root_proj=root_proj)
    e = sys.units[label(root_iota, len(sys.measures)) - 1]
    low = sub(tree.root_proj, e)  # V_X = b_{root_iota}(low) exactly: the weights are e
    if min(low) < 0:
        raise ValueError(f"a step of label {root_iota} does not reach {tree.root_proj}")
    return _assemble(sys.recurrence_float, tree, tuple((low, float(w)) for w in e), None, sys)


def signature_diagonal(op: TreeOperator) -> np.ndarray:
    """+-1 diagonal making the operator self-adjoint in the indefinite product."""
    return op.tree.path_products(np.where(op.sigma, -1.0, 1.0))


def s_selfadjoint_check(op: TreeOperator) -> float:
    """Max-norm of S J - J^T S; zero in exact arithmetic.

    The diagonal cancels; at (v, parent) the entry is
    ``S_v sqrt(W_v) - S_parent (-1)^{sigma_v} sqrt(W_v)`` and at (parent, v) its
    negative.  Every product is by +-1, hence exact.
    """
    S = signature_diagonal(op)
    sq = np.sqrt(op.W[1:])
    R = S[1:] * sq - S[op.tree.parent[1:]] * np.where(op.sigma[1:], -sq, sq)
    return float(np.max(np.abs(R), initial=0.0))


# ---------------------------------------------------------------------------
# eigenfunction identities
# ---------------------------------------------------------------------------


def _second_kind_rows(op: TreeOperator, z) -> tuple:
    """((J - z) f for the second-kind family f, the root boundary term by the Markov route)."""
    if op.kappa is None:
        raise ValueError("the root boundary term requires a root operator (one with kappa), not a subtree operator")
    family = SecondKind(op.sys, z)  # one mp Markov pair for every lattice point
    f = lattice_values(lambda n: complex(second_kind(op.sys, n, family)), op.tree.points) / op.m_weights()
    return op.apply(f) - z * f, KappaForm(op.sys, op.kappa)(z)


def eigenfunction_residual(op: TreeOperator, kind: str, z, X=None, kl=(1, 0)) -> float:
    """Residual of the defining algebraic identity for a tree eigenfunction family.

    kind ``p``: values of the type II polynomials on a finite tree; the root
    row carries the boundary polynomial ``kappa1 P_{N+e1} + kappa2 P_{N+e2}``.
    kind ``l``: second-kind values on a Cayley truncation; interior rows only,
    and the root row carries ``kappa2 L_{e1} + kappa1 L_{e2}`` evaluated
    independently from the Markov functions of the measures.
    kind ``lambda_commutator``: the vertex-commutator of two type I value
    families on the subtree below X; an exact eigenfunction with no boundary
    term (rows at or below X, interior only).
    """
    sys = op.sys
    tree = op.tree
    if kind == "p":
        if tree.kind != "finite":
            raise ValueError("kind 'p' requires a finite-tree operator")
        N = tree.root_proj
        with workprec(sys.precision_bits):  # not at the ambient mp.prec
            zp = mpc(z)
            f = lattice_values(lambda n: complex(P.pval(sys.record(n).P, zp)), tree.points)
            bnd = sum(k * complex(P.pval(sys.record(add(N, e)).P, zp)) for k, e in zip(op.kappa, sys.units))
        f /= op.m_weights()
        res = op.apply(f) - z * f
        res[0] += bnd
        return float(np.max(np.abs(res)))

    if kind == "l":
        if tree.kind != "cayley":
            raise ValueError("kind 'l' requires a Cayley truncation")
        res, bnd = _second_kind_rows(op, z)
        res[0] += bnd
        rows = tree.interior()
        rows[0] = True
        return float(np.max(np.abs(res[rows])))

    if kind == "lambda_commutator":
        if X is None or X == 0:
            raise ValueError("lambda_commutator requires an interior subtree root X != O")
        ids = tree.subtree_ids(X)
        at = np.concatenate([[tree.parent[X]], ids])
        with workprec(sys.precision_bits):
            zp = mpc(z)
            lam = lattice_values(lambda n: [complex(sys.type1_values(n, zp)[j]) for j in kl], tree.points[at])
        lam /= op.m_weights()[at, None]
        f = np.zeros(len(tree), dtype=complex)
        f[ids] = lam[0, 0] * lam[1:, 1] - lam[1:, 0] * lam[0, 1]
        f /= np.max(np.abs(f))  # the identity is scale-free (no boundary term)
        res = op.apply(f) - z * f  # f vanishes at the parent of X
        return float(np.max(np.abs(res[ids[tree.interior()[ids]]])))

    raise ValueError(f"unknown kind {kind!r}")


def root_boundary_gap(op: TreeOperator, z) -> tuple:
    """(raw root-row residual of the second-kind family, independent Markov-route value).

    The two numbers must agree: the root row of the identity equals the
    kappa-combination of the order-one second-kind functions.
    """
    res, markov_route = _second_kind_rows(op, z)
    return -res[0], markov_route
