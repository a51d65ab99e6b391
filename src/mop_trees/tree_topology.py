"""Finite trees and truncations of the rooted Cayley tree.

Two variants share one vertex store (BFS order, integer ids):

* ``finite_tree(N)`` unwinds the lattice paths from N down to (0, 0); a child
  step subtracts a unit vector from the projection, and ``iota`` records which
  coordinate was decremented;
* ``cayley_truncation(depth)`` truncates the infinite 2-homogeneous rooted
  tree, whose projection starts at (1, 1) and grows by a unit vector per
  generation (``iota`` records which one).

The Cayley variant also carries the deterministic edge/vertex type labeling
used by the periodic operators: a vertex's type equals the label of the edge
to its parent, and the two child edges of every vertex are labeled 1 then 2
in child order.

Ids are assigned a generation at a time with children labelled 1 then 2, so
the children of v are the id range ``first_child[v]:first_child[v + 1]`` and
the descendants of v form one contiguous id range per generation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

ROOT_PARENT = -1  # sentinel id for the formal parent of the root


@dataclass
class Tree:
    kind: str                    # "finite" or "cayley"
    root_proj: tuple
    parent: np.ndarray           # ROOT_PARENT at the root
    points: np.ndarray           # (n, 2) int array; row v is the projection of v
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
        """Vertices projecting to (0, 0) (finite trees only)."""
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
        out: dict = {}
        for p in self.proj:
            out[p] = out.get(p, 0) + 1
        return out

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
    (Cayley truncations) both children exist for the first ``depth`` generations.
    """
    gens, parents, labels = [np.array([root_proj])], [np.array([ROOT_PARENT])], [np.array([0])]
    n_kids, start = [], 0
    while True:
        p = gens[-1]
        has = p > 0 if step < 0 else np.full(p.shape, len(gens) <= depth)
        n_kids.append(has.sum(axis=1))
        kid = np.flatnonzero(has)  # row-major: vertex order, label 1 before 2
        if not kid.size:
            break
        par, lab = kid // 2, kid % 2
        gens.append(p[par] + step * np.eye(2, dtype=int)[lab])
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
    """The finite tree whose root projects to N and whose canopy projects to (0, 0)."""
    N = (int(N[0]), int(N[1]))
    if N[0] < 1 or N[1] < 1:
        raise ValueError("finite tree requires N in N^2")
    return _grow("finite", N, -1)


def finite_tree_vertex_count(N) -> int:
    """Closed-form count: sum over the rectangle of lattice-path multiplicities."""
    total = 0
    for n1 in range(N[0] + 1):
        for n2 in range(N[1] + 1):
            total += comb((N[0] - n1) + (N[1] - n2), N[0] - n1)
    return total


def cayley_truncation(depth: int, root_proj=(1, 1)) -> Tree:
    """Truncation of the rooted Cayley tree to ``depth`` generations below the root."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return _grow("cayley", (int(root_proj[0]), int(root_proj[1])), 1, depth)
