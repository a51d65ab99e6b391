"""Finite trees and truncations of the rooted Cayley tree.

Two variants share one vertex store (BFS order, integer ids); a projection
is a multi-index in N^d, and a child step moves it by one unit vector e_i:

* ``finite_tree(N)`` unwinds the lattice paths from N down to the origin; a
  child step subtracts e_i, and ``iota`` records which i was decremented;
* ``cayley_truncation(depth)`` truncates the infinite d-homogeneous rooted
  tree, whose projection starts at (1, 1) and grows by e_i per generation
  (``iota`` records which i).

The Cayley variant also carries the deterministic edge/vertex type labeling
used by the periodic operators: a vertex's type equals the label of the edge
to its parent, and each vertex's child edges are labeled 1..d in child order.

Ids are assigned a generation at a time with children labelled 1..d, so
the children of v are the id range ``first_child[v]:first_child[v + 1]`` and
the descendants of v form one contiguous id range per generation.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, product
from math import comb, prod

import numpy as np

from .mop_engine import multi_index

ROOT_PARENT = -1  # sentinel id for the formal parent of the root


@dataclass
class Tree:
    kind: str                    # "finite" or "cayley"
    root_proj: tuple
    parent: np.ndarray           # ROOT_PARENT at the root
    points: np.ndarray           # (n, d) int array; row v is the projection of v
    iota: np.ndarray             # step label of the edge to the parent (0 at root)
    depth: np.ndarray
    first_child: np.ndarray      # (n + 1,) children of v: first_child[v]:first_child[v + 1]

    def __len__(self):
        return len(self.parent)

    @cached_property
    def proj(self) -> list:
        return list(map(tuple, self.points.tolist()))

    @cached_property
    def children(self) -> list:
        """Per vertex: list of (child_id, iota)."""
        fc, lab = self.first_child.tolist(), self.iota.tolist()
        return [[(c, lab[c]) for c in range(fc[v], fc[v + 1])] for v in range(len(self))]

    def interior(self) -> np.ndarray:
        """Boolean mask of the vertices that have children."""
        return np.diff(self.first_child) > 0

    def leaves(self) -> list:
        return np.flatnonzero(~self.interior()).tolist()

    def canopy(self) -> list:
        """Vertices projecting to the origin (finite trees only)."""
        return np.flatnonzero(~self.points.any(axis=1)).tolist()

    def _ranges(self, lo: int, hi: int):
        """Id ranges, one per generation, of the descendants of the ids lo..hi-1."""
        while lo < hi:
            yield lo, hi
            lo, hi = int(self.first_child[lo]), int(self.first_child[hi])

    def generations(self) -> list:
        """Id range (lo, hi) of every generation, the root's first."""
        return list(self._ranges(0, 1))

    def subtree_ids(self, v: int) -> np.ndarray:
        """All descendants of v including v, BFS order."""
        return np.concatenate([np.arange(lo, hi) for lo, hi in self._ranges(v, v + 1)])

    def path_products(self, factors) -> np.ndarray:
        """Per vertex, the product of ``factors`` from it up to the root (both ends included)."""
        out = np.array(factors, dtype=float)
        for lo, hi in self.generations()[1:]:
            out[lo:hi] *= out[self.parent[lo:hi]]
        return out

    def vertex_by_path(self, word) -> int:
        """Resolve a path word (sequence of child labels from the root) to an id."""
        v = 0
        for step in word:
            kids = range(self.first_child[v], self.first_child[v + 1])
            nxt = [c for c in kids if self.iota[c] == step]
            if not nxt:
                raise KeyError(f"path word {tuple(word)} leaves the tree")
            v = nxt[0]
        return v

    def proj_counts(self) -> dict:
        return Counter(self.proj)

    # -- export ------------------------------------------------------------

    def to_dot(self) -> str:
        lines = ["graph tree {"]
        for v in range(len(self)):
            lines.append(f'  v{v} [label="{v}:{self.proj[v]}"];')
        for v in range(1, len(self)):
            lines.append(f"  v{self.parent[v]} -- v{v};")
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "root_proj": list(self.root_proj),
                "parent": self.parent.tolist(),
                "proj": self.points.tolist(),
                "iota": self.iota.tolist(),
            },
            sort_keys=True,
        )


def _grow(kind: str, root_proj, step: int, depth: int | None = None) -> Tree:
    """BFS construction, one generation at a time.

    The child of label i has projection ``proj + step * e_i``.  With step -1
    (finite trees) it exists while that coordinate is positive; with step +1
    (Cayley truncations) all children exist for the first ``depth`` generations.
    """
    d = len(root_proj)
    gens, parents, labels = [np.array([root_proj])], [np.array([ROOT_PARENT])], [np.array([0])]
    n_kids, start = [], 0
    while True:
        p = gens[-1]
        has = p > 0 if step < 0 else np.full(p.shape, len(gens) <= depth)
        n_kids.append(has.sum(axis=1))
        kid = np.flatnonzero(has)  # row-major: vertex order, labels ascending
        if not kid.size:
            break
        par, lab = kid // d, kid % d
        gens.append(p[par] + step * np.eye(d, dtype=int)[lab])
        parents.append(start + par)
        labels.append(lab + 1)
        start += len(p)
    depth_of = np.repeat(np.arange(len(gens)), [len(g) for g in gens])
    first_child = np.concatenate([[1], 1 + np.cumsum(np.concatenate(n_kids))])
    return Tree(
        kind, tuple(root_proj), np.concatenate(parents), np.concatenate(gens),
        np.concatenate(labels), depth_of, first_child,
    )


def finite_tree(N) -> Tree:
    """The finite tree whose root projects to N and whose canopy projects to the origin."""
    N = multi_index(N)
    if min(N) < 1:
        raise ValueError("finite tree requires every component of N >= 1")
    return _grow("finite", N, -1)


def finite_tree_vertex_count(N) -> int:
    """Closed-form count: over the box below N, the multinomial number of lattice
    paths from N to each point (q = N - point, a product of binomials)."""
    return sum(prod(map(comb, accumulate(q), q)) for q in product(*(range(k + 1) for k in N)))


def cayley_truncation(depth: int, root_proj=(1, 1)) -> Tree:
    """Truncation of the rooted Cayley tree to ``depth`` generations below the root."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return _grow("cayley", multi_index(root_proj), 1, depth)
