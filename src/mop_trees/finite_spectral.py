"""Exact spectral decomposition of the finite-tree operators.

The eigenvalue set consists of the zeros of the boundary polynomial
``kappa1 P_{N+e1} + kappa2 P_{N+e2}`` together with the zeros of every P_n
whose tree vertices have two children (n in N^2).  Each eigenvalue E carries
one canonical eigenvector per joint: the trivial one is the vector of scaled
polynomial values p(E); a joint X with P_{proj(X)}(E) = 0 seeds a vector
supported on the two subtrees below X, glued so that the rows at and above X
cancel.

The standing numerical assumptions (all zeros real and simple, zero sets
disjoint along every lattice edge, the boundary polynomial standing for P at
N's formal parent) are verified on entry, not assumed; a clash within
``_CLASH_TOL`` raises :class:`AssumptionError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np
from mpmath import mpf, workprec

from . import _poly as P
from .errors import AssumptionError, JointError, NeutralVectorError, RankError
from .mop_engine import MopSystem, add, kappa_pair, order, real_zeros, require_pair
from .tree_jacobi import TreeOperator, assemble_finite, lattice_values, signature_diagonal
from .tree_topology import ROOT_PARENT, Tree, finite_tree

_CLASH_TOL = 1e-9        # zeros closer than this count as one eigenvalue (or a clash)
_RESIDUAL_FACTOR = 1e-9  # eigenvector residual bound, relative to ||J||_2
_NEUTRAL_TOL = 1e-10     # |[psi, psi]| below this times <psi, psi> is a neutral vector
_EVAL_BITS = 53          # mpmath's default: the boundary polynomial and P_n(E) tables, whatever mp.prec is


@dataclass
class Eigenvalue:
    E: float
    vanishing: list          # multi-indices n (and "boundary") whose polynomial vanishes at E
    joint_star: list         # vertex ids; ROOT_PARENT stands for the formal root parent
    g: int


@dataclass
class SpectralDecomposition:
    sys: MopSystem
    kappa: tuple
    N: tuple
    op: TreeOperator
    eigenvalues: list
    vectors: dict            # (eig_index, X) -> eigenvector
    boundary_poly: tuple = ()
    report: dict = field(default_factory=dict)

    @property
    def tree(self) -> Tree:
        return self.op.tree

    def eigenvalue_csv(self) -> str:
        """Two-column CSV of eigenvalues and their multiplicities."""
        lines = ["E,g"]
        for ev in self.eigenvalues:
            lines.append(f"{ev.E:.12e},{ev.g}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "N": list(self.N),
            "kappa": list(self.kappa),
            "eigenvalues": [
                {
                    "E": ev.E,
                    "g": ev.g,
                    "joint_star": ["root_parent" if X == ROOT_PARENT else X for X in ev.joint_star],
                    "vanishing": [list(v) if v != "boundary" else v for v in ev.vanishing],
                }
                for ev in self.eigenvalues
            ],
            "vectors": {
                f"{i}:{'root_parent' if X == ROOT_PARENT else X}": [float(v) for v in vec]
                for (i, X), vec in self.vectors.items()
            },
        }


def boundary_polynomial(sys: MopSystem, kappa, N) -> tuple:
    """kappa1 P_{N+e1} + kappa2 P_{N+e2}, monic of degree |N| + 1 (:func:`kappa_pair` checks kappa)."""
    # At _EVAL_BITS, as the P_n(E) tables: the goldens were recorded there, and
    # sys.precision_bits would move the tree-spectrum and tree-svec goldens.
    require_pair(sys)
    kappa = kappa_pair(kappa)
    p1, p2 = (sys.record(add(N, e)).P for e in sys.units)
    with workprec(_EVAL_BITS):
        return P.padd(P.pscale(p1, kappa[0]), P.pscale(p2, kappa[1]))


def eigenvalue_set(sys: MopSystem, kappa, N):
    """Eigenvalues with provenance; verifies the zero-structure assumptions.

    Returns (eigenvalues, zero_table, boundary_poly) where zero_table maps
    each relevant multi-index key to its sorted zero list.
    """
    N = sys._index(N)
    return _eigenvalue_set_on(sys, kappa, N, finite_tree(N))  # boundary_polynomial checks kappa


def _eigenvalue_set_on(sys, kappa, N, tree):
    prec = sys.precision_bits
    bpoly = boundary_polynomial(sys, kappa, N)
    zero_table: dict = {"boundary": [float(z) for z in real_zeros(bpoly, prec)]}
    inner = list(product(*(range(k + 1) for k in N)))
    for n in inner:
        zero_table[n] = [float(z) for z in sys.zeros(n)]

    # zeros real and simple with the advertised counts
    if len(zero_table["boundary"]) != order(N) + 1:
        raise AssumptionError("boundary polynomial has fewer real simple zeros than its degree")
    for n in inner:
        zs = zero_table[n]
        if len(zs) != order(n):
            raise AssumptionError(f"P_{n} has fewer real simple zeros than its degree")
        if any(b - a < _CLASH_TOL for a, b in zip(zs[:-1], zs[1:])):
            raise AssumptionError(f"P_{n} has nearly multiple zeros")

    # zero sets disjoint along every lattice edge; the boundary polynomial is N's parent
    pairs = [(n, add(n, e)) for n in inner for e in sys.units if add(n, e) in zero_table] + [(N, "boundary")]
    for n, m in pairs:
        for a, b in product(zero_table[n], zero_table[m]):
            if abs(a - b) < _CLASH_TOL:
                raise AssumptionError(f"zero clash between {n} vs {m}: {a} ~ {b}")

    # cluster across polynomials: split the sorted zeros at every gap of at least _CLASH_TOL
    events = [(z, "boundary") for z in zero_table["boundary"]]
    events += [(z, n) for n in inner if min(n) >= 1 for z in zero_table[n]]
    events.sort(key=lambda t: t[0])
    zeros = [z for z, _ in events]
    cuts = (np.flatnonzero(np.diff(zeros) >= _CLASH_TOL) + 1).tolist()
    joint_vertices: dict = {}
    joints = np.flatnonzero(np.diff(tree.first_child) == 2)
    for v, n in zip(joints.tolist(), map(tuple, tree.points[joints].tolist())):
        joint_vertices.setdefault(n, []).append(v)

    eigenvalues = []
    for lo, hi in zip([0, *cuts], [*cuts, len(events)]):
        vanishing = [src for _, src in events[lo:hi]]
        joint_star = [ROOT_PARENT] * ("boundary" in vanishing)
        joint_star += [X for src in vanishing if src != "boundary" for X in joint_vertices.get(src, [])]
        eigenvalues.append(Eigenvalue(float(np.mean(zeros[lo:hi])), vanishing, joint_star, len(joint_star)))
    return eigenvalues, zero_table, bpoly


def canonical_vector(sys: MopSystem, kappa, N, E: float, X, op: TreeOperator | None = None):
    """The canonical eigenvector b(E, X); X = ROOT_PARENT gives the trivial one."""
    if op is None:
        op = assemble_finite(sys, kappa, N)
    return _canonical_family(sys, op, op.m_weights(), boundary_polynomial(sys, kappa, N), E)(X)


def _canonical_family(sys: MopSystem, op: TreeOperator, m, bpoly, E: float):
    """X -> b(E, X), all from one table of P_n(E) over the tree; m = op.m_weights()."""
    tree = op.tree
    with workprec(_EVAL_BITS):
        Em = mpf(E)  # once, not at every Horner step
        p = lattice_values(lambda n: float(P.pval(sys.record(n).P, Em)), tree.points)
    pvals = p / m

    def vector(X):
        if X == ROOT_PARENT:
            with workprec(_EVAL_BITS):
                off_boundary = abs(float(P.pval(bpoly, Em))) > 1e-6
            if off_boundary:
                raise JointError("E is not a zero of the boundary polynomial")
            return pvals
        c1 = int(tree.first_child[X])
        if tree.first_child[X + 1] - c1 != 2:
            raise JointError("joint must have two children")
        if abs(p[X]) > 1e-6:
            raise JointError("E is not a zero of the polynomial at the joint")
        vec = np.zeros(len(tree))
        for sgn, c in ((-1.0, c1), (1.0, c1 + 1)):
            coef = sgn * (-1.0) ** op.sigma[c] / (np.sqrt(op.W[c]) * pvals[c])
            ids = tree.subtree_ids(c)
            vec[ids] = coef * pvals[ids]
        return vec

    return vector


def full_basis(sys: MopSystem, kappa, N) -> SpectralDecomposition:
    """All canonical eigenvectors, verified against the assembled matrix.

    Verifies the counting identity ``#V = sum_E #Joint*(E)``, the eigenpair
    residuals as one product ``J B - B diag(E)`` over the stacked vectors,
    their full rank, and the multiset agreement of the eigenvalue set with
    a dense eigensolve.
    """
    N = sys._index(N)
    kappa = kappa_pair(kappa)
    op = assemble_finite(sys, kappa, N)
    eigenvalues, zero_table, bpoly = _eigenvalue_set_on(sys, kappa, N, op.tree)

    nv = op.n_vertices
    if sum(ev.g for ev in eigenvalues) != nv:
        raise AssumptionError("counting identity #V = sum g_E fails")

    m = op.m_weights()
    vectors = {}
    for i, ev in enumerate(eigenvalues):
        vector = _canonical_family(sys, op, m, bpoly, ev.E)
        vectors.update(((i, X), vector(X)) for X in ev.joint_star)

    # every eigenpair at once: the columns of J B - B diag(E), relative to those of B;
    # the vectors become rows of the one stacked copy, so the basis is held once
    rows = np.array(list(vectors.values()))
    vectors, B = dict(zip(vectors, rows)), rows.T
    J = op.dense()
    if np.all(op.sigma == 0):  # J symmetric: ||J||_2 is its largest |eigenvalue|
        dense_eigs = np.sort(np.linalg.eigvalsh(J))
        norm = max(-dense_eigs[0], dense_eigs[-1])
    else:
        dense_eigs, norm = np.sort(np.linalg.eigvals(J).real), np.linalg.norm(J, 2)
    E = np.array([eigenvalues[i].E for i, _ in vectors])
    norms = np.linalg.norm(B, axis=0)
    res = float(np.max(np.linalg.norm(J @ B - B * E, axis=0) / norms))
    tol = _RESIDUAL_FACTOR * norm
    if res > tol:
        raise AssumptionError(f"eigenvector residual {res:.2e} exceeds {tol:.2e}")
    rank = np.linalg.matrix_rank(B / norms, tol=1e-8)
    if rank != nv:
        raise RankError(f"stacked canonical vectors have rank {rank} < {nv}")

    ours = np.sort(np.concatenate([[ev.E] * ev.g for ev in eigenvalues]))
    gap = float(np.max(np.abs(dense_eigs - ours)))
    if gap > 1e-8:
        raise AssumptionError(f"dense eigensolve disagrees with the zero sets by {gap:.2e}")

    return SpectralDecomposition(
        sys, kappa, N, op, eigenvalues, vectors, bpoly,
        report={"dense_gap": gap, "rank": int(rank), "zero_table_sizes": {str(k): len(v) for k, v in zero_table.items()}},
    )


# ---------------------------------------------------------------------------
# waves, fronts, indefinite orthogonalization
# ---------------------------------------------------------------------------


def _joint_levels(tree: Tree, is_joint: np.ndarray) -> np.ndarray:
    """Per vertex, the number of joints strictly above it: one walk down the generations.

    ``is_joint`` is a boolean mask over the vertices, or a (vertices, sets)
    array with one joint set per column.
    """
    level = np.zeros(is_joint.shape, dtype=int)
    for lo, hi in tree.generations()[1:]:
        par = tree.parent[lo:hi]
        level[lo:hi] = level[par] + is_joint[par]
    return level


def waves_and_fronts_on(tree: Tree, joints) -> list:
    """Partition the vertex set into waves with fronts, given the joint set.

    Wave k holds the vertices with k - 1 joints strictly above them: wave 1
    grows down from the root and stops at joints (inclusive), wave k+1 grows
    from the children of wave k's joints.  A wave's front is its joints and
    its canopy vertices (the leaves).  An empty joint set yields a single
    wave covering the tree.
    """
    is_joint = np.isin(np.arange(len(tree)), list(joints))
    level = _joint_levels(tree, is_joint)
    stop = is_joint | ~tree.interior()
    return [
        (set(np.flatnonzero(level == k).tolist()), set(np.flatnonzero((level == k) & stop).tolist()))
        for k in range(level.max() + 1)
    ]


def waves_and_fronts(decomp: SpectralDecomposition, E: float) -> list:
    """Waves/fronts of the decomposition's tree for the joint set of eigenvalue E."""
    for ev in decomp.eigenvalues:
        if abs(ev.E - E) < 1e-9:
            joints = [X for X in ev.joint_star if X != ROOT_PARENT]
            return waves_and_fronts_on(decomp.tree, joints)
    raise JointError("E is not an eigenvalue of this decomposition")


@dataclass
class IndefiniteBasis:
    matrix: np.ndarray       # columns are the orthogonalized eigenvectors
    signs: np.ndarray        # [psi, psi] = +-1 per column
    labels: list             # (eig_index, X) per column
    gram_offdiag: float
    inertia: tuple           # (#positive, #negative)


def s_orthogonalize(decomp: SpectralDecomposition) -> IndefiniteBasis:
    """Per-eigenspace Gram-Schmidt in the indefinite inner product.

    Within each eigenspace, vectors are processed from the deepest joint
    level upward (trivial vector last), so each new vector only needs its
    projections onto previously produced ones subtracted.  Distinct
    eigenspaces are automatically orthogonal.  The output satisfies
    ``|[psi_i, psi_j]| <= tol`` off the diagonal, ``[psi_i, psi_i] = +-1``,
    and the sign counts reproduce the inertia of the signature diagonal.
    """
    s = signature_diagonal(decomp.op)
    joints = [[X for X in ev.joint_star if X != ROOT_PARENT] for ev in decomp.eigenvalues]
    is_joint = np.zeros((len(s), len(joints)), dtype=bool)  # one column per eigenspace
    for i, js in enumerate(joints):
        is_joint[js, i] = True
    level = _joint_levels(decomp.tree, is_joint)
    cols, signs, labels = [], [], []
    for i, ev in enumerate(decomp.eigenvalues):
        ordered = sorted(joints[i], key=lambda X: (-level[X, i], X))
        if ROOT_PARENT in ev.joint_star:
            ordered.append(ROOT_PARENT)
        produced = []
        for X in ordered:
            psi = decomp.vectors[(i, X)].astype(float).copy()
            for phi, sg in produced:
                psi -= sg * float(np.dot(s * psi, phi)) * phi
            nu = float(np.dot(s * psi, psi))
            if abs(nu) < _NEUTRAL_TOL * float(np.dot(psi, psi)):
                raise NeutralVectorError(f"neutral vector at E={ev.E}, X={X}")
            psi /= np.sqrt(abs(nu))
            sg = 1.0 if nu > 0 else -1.0
            produced.append((psi, sg))
            cols.append(psi)
            signs.append(sg)
            labels.append((i, X))
    M = np.column_stack(cols)
    G = (M * s[:, None]).T @ M
    off = float(np.max(np.abs(G - np.diag(np.diag(G)))))
    inertia = (int(np.sum(np.array(signs) > 0)), int(np.sum(np.array(signs) < 0)))
    return IndefiniteBasis(M, np.array(signs), labels, off, inertia)
