"""The queries of each in-process workload, built from a seed.

A query is one user-level call into a public ``mop_trees`` function plus the
oracle that checks its result.  The seed draws only the sample points (z,
kappa, x, xi); lattice ranges, depths and tree sizes are fixed per size
class because they set the cost structure.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from oracles import (
    DENSE_GAP, EIGVEC_RESIDUAL, GRAM_OFFDIAG, GREEN_REL, MASS_ABS, UNIT_IDENTITY, XI_SPREAD,
    CONSISTENCY_ABS, ExactUniformPair, consistency_identities, holds, interlacing_vs_exact,
    nikishin_sign_expected, recurrence_vs_exact, type1_biorthogonality, within,
)

SYSTEMS = {"ang": "demos/systems/ang_u.json", "nik": "demos/systems/nik_u.json"}

# systems each workload loads during set-up
NEEDS = {"lattice": ("ang", "nik"), "tree": ("ang", "nik"), "spectral": ("ang",), "cli": ("ang",)}

SIZES = {
    "full": {
        "ang_order": 12,            # lattice: Angelesco |n| <= this
        "nik_signs": 2,             # lattice: Nikishin sign checks on [1, nmax]^2
        "nik_blowup": (2, 4),       # lattice: diagonal_blowup_scan(nmax, region_order)
        "green_depths": (12,),      # tree: truncation depths for every X <= Y pair
        "ang_trees": ((3, 2), (5, 4)),
        "nik_trees": ((4, 3),),
        "dual_points": 10,          # spectral: x samples per reference-measure sweep
        "dos_sweeps": 4,            # spectral: dos sweeps per sheet and cut
        "dos_points": 30,           # spectral: x samples per dos sweep
        "profile_points": 100,
        "subtree_roots": 6,         # spectral: rho_sub at the first this many words
    },
    "smoke": {
        "ang_order": 3,
        "nik_signs": 1,
        "nik_blowup": (2, 4),
        "green_depths": (6,),
        "ang_trees": ((2, 1),),
        "nik_trees": ((2, 1),),
        "dual_points": 2,
        "dos_sweeps": 1,
        "dos_points": 2,
        "profile_points": 4,
        "subtree_roots": 2,
    },
}


@dataclass
class Query:
    label: str
    call: Callable[[], object]
    check: Callable[[object], list]


def load_systems(workload: str, root: str) -> dict:
    """Build the workload's systems from their files (fresh measures each)."""
    from mop_trees.cli import load_system

    out = {}
    for key in NEEDS[workload]:
        path = os.path.join(root, SYSTEMS[key])
        out[key] = load_system(path)
        with open(path) as fh:
            out[key]["doc"] = json.load(fh)
    return out


def shared_measures(systems: dict) -> int:
    """Number of Measure instances that appear in more than one system."""
    seen: dict[int, str] = {}
    shared = 0
    for key, loaded in systems.items():
        obj = loaded.get("asys") or loaded.get("nsys")
        for name in ("mu1", "mu2", "tau"):
            mu = getattr(obj, name, None) or getattr(loaded["sys"], name, None)
            if mu is None:
                continue
            owner = seen.setdefault(id(mu), key)
            shared += owner != key
    return shared


def build(workload: str, systems: dict, seed: int, size: str = "full") -> list:
    rng = np.random.default_rng(seed)
    return BUILDERS[workload](systems, rng, SIZES[size])


# ---------------------------------------------------------------------------
# lattice: recurrence tables, no tree code
# ---------------------------------------------------------------------------


def _lattice(systems, rng, size):
    from mop_trees.mop_engine import consistency_residual, interlacing_check
    from mop_trees.nikishin import diagonal_blowup_scan, h_sign_check, sign_pattern_check

    asys, nsys = systems["ang"]["asys"], systems["nik"]["nsys"]
    doc = systems["ang"]["doc"]
    exact = ExactUniformPair(doc["mu1"], doc["mu2"])
    sysm = asys.sys
    N = size["ang_order"]
    qs = []
    for d in range(N + 1):
        for n1 in range(d + 1):
            n = (n1, d - n1)
            qs.append(Query(f"recurrence{n}", partial(sysm.recurrence, n),
                            partial(lambda n, r: [recurrence_vs_exact(exact, n, r)], n)))
            if d:
                qs.append(Query(f"type1_record{n}", partial(sysm.type1_record, n),
                                partial(lambda n, r: [type1_biorthogonality(exact, n, r.A1, r.A2)], n)))
    for d in range(2, N):
        for n1 in range(1, d):
            n = (n1, d - n1)
            qs.append(Query(f"consistency_residual{n}", partial(consistency_residual, sysm, n),
                            partial(lambda n, r: [within("reported consistency", max(float(x) for x in r),
                                                         CONSISTENCY_ABS),
                                                  consistency_identities(sysm.recurrence, n)], n)))
    for d in range(N):
        for n1 in range(d + 1):
            for i in (1, 2):
                n = (n1, d - n1)
                qs.append(Query(f"interlacing_check{n},{i}", partial(interlacing_check, sysm, n, i),
                                partial(lambda n, i, ok: [holds("reported interlacing", ok is True),
                                                          interlacing_vs_exact(exact, n, i)], n, i)))

    nmax = size["nik_signs"]

    def signs_oracle(rep):
        out = [holds("sign pattern passed", rep["passed"] and not rep["violations"])]
        for n, (a1, a2) in rep["table"].items():
            for j, a in ((1, a1), (2, a2)):
                out.append(holds(f"sign a{n},{j}", np.sign(a) == nikishin_sign_expected(n, j)))
        for n1 in range(1, nmax):
            for n2 in range(1, nmax):
                out.append(consistency_identities(nsys.sys.recurrence, (n1, n2)))
        return out

    qs.append(Query(f"sign_pattern_check nmax={nmax}", partial(sign_pattern_check, nsys, nmax), signs_oracle))
    qs.append(Query(f"h_sign_check nmax={nmax}", partial(h_sign_check, nsys, nmax),
                    lambda rep: [holds("h signs passed", rep["passed"] and not rep["violations"])]))

    bmax, region = size["nik_blowup"]

    def blowup_oracle(scan):
        a1 = [d["a1"] for d in scan["diagonal"]]
        a2 = [d["a2"] for d in scan["diagonal"]]
        out = [
            holds("a2 increasing", all(x < y for x, y in zip(a2[:-1], a2[1:]))),
            holds("a1 decreasing", all(x > y for x, y in zip(a1[:-1], a1[1:]))),
        ]
        by_order = scan["offdiag_max_by_order"]
        if 5 in by_order:
            out.append(holds("off-diagonal bounded", max(by_order.values()) < 5 * by_order[5]))
        return out

    qs.append(Query(f"diagonal_blowup_scan nmax={bmax}", partial(diagonal_blowup_scan, nsys, bmax, region),
                    blowup_oracle))
    return qs


# ---------------------------------------------------------------------------
# tree: Green's functions against sparse LU, finite-tree decompositions
# ---------------------------------------------------------------------------


def _tree(systems, rng, size):
    from mop_trees.angelesco import green
    from mop_trees.finite_spectral import full_basis, s_orthogonalize
    from mop_trees.tree_jacobi import signature_diagonal

    asys, nsys = systems["ang"]["asys"], systems["nik"]["nsys"]
    words = [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]
    pairs = [(X, Y) for X in words for Y in words if Y[: len(X)] == X]
    k1 = float(rng.uniform(0.2, 0.8))
    kappa = (k1, 1.0 - k1)
    qs = []

    def green_oracle(fr):
        f, r = fr
        return [within("green formula vs resolvent", abs(f - r) / abs(f), GREEN_REL)]

    for depth in size["green_depths"]:
        for X, Y in pairs:
            z = complex(rng.uniform(-3.0, 3.0), rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 2.0))
            qs.append(Query(f"green X={X} Y={Y} depth={depth}", partial(green, asys, kappa, Y, X, z, depth=depth),
                            green_oracle))

    decs: dict = {}

    def decomposition(key, sysm, N):
        decs[key] = full_basis(sysm, (0.0, 1.0), N)
        return decs[key]

    def dec_oracle(dec, pinned):
        out = [holds("counting identity", sum(e.g for e in dec.eigenvalues) == dec.op.n_vertices)]
        if pinned:
            out.append(within("dense gap", dec.report["dense_gap"], DENSE_GAP))
        return out

    def basis_oracle(key, basis):
        s = signature_diagonal(decs[key].op)
        return [
            within("gram offdiag", basis.gram_offdiag, GRAM_OFFDIAG),
            holds("inertia", basis.inertia == (int((s > 0).sum()), int((s < 0).sum()))),
        ]

    # Angelesco trees carry the criterion-1 dense-gap pin; Nikishin ones rely
    # on full_basis's own verification (it raises when it fails).
    for name, sysm, Ns, pinned in (("ang", asys.sys, size["ang_trees"], True),
                                   ("nik", nsys.sys, size["nik_trees"], False)):
        for N in Ns:
            key = f"{name} N={N}"
            qs.append(Query(f"full_basis {key}", partial(decomposition, key, sysm, N),
                            partial(dec_oracle, pinned=pinned)))
            qs.append(Query(f"s_orthogonalize {key}", lambda key=key: s_orthogonalize(decs[key]),
                            partial(basis_oracle, key)))
    return qs


# ---------------------------------------------------------------------------
# spectral: spectral measures, reference measures, periodic density of states
# ---------------------------------------------------------------------------


def _spectral(systems, rng, size):
    from mop_trees import periodic_surface as ps
    from mop_trees.angelesco import green, psi_o, reference_measure_via_dual, rho_o, rho_sub
    from mop_trees.tree_jacobi import assemble_truncated

    asys = systems["ang"]["asys"]
    doc = systems["ang"]["doc"]
    exact = ExactUniformPair(doc["mu1"], doc["mu2"])
    qs = []
    reps: dict = {}

    def kappa_draw():
        k = float(rng.uniform(0.15, 0.85))
        return (k, 1.0 - k)

    def measure(key, fn, *args):
        reps[key] = fn(*args)
        return reps[key]

    def rep_oracle(rep):
        return [holds("point masses in (0, 1)", all(0.0 < m < 1.0 for _, m in rep.point_masses))]

    def unit_mass(m):
        return [within("unit mass", m - 1.0, MASS_ABS)]

    def root_diagonal(kappa):
        # first moment of the root spectral measure = diagonal entry at the root
        b01 = exact.recurrence((0, 1))[2]
        b10 = exact.recurrence((1, 0))[3]
        return kappa[0] * float(b01) + kappa[1] * float(b10)

    # Four queries each pay a find_e_kappa sweep; two dos_total_mass and ten
    # mid-size integrals follow them, so the tail percentile lands inside the
    # cluster of integrals.
    ka, kb = kappa_draw(), kappa_draw()
    for key, kappa in (("a", ka), ("b", kb)):
        qs.append(Query(f"rho_o kappa={kappa}", partial(measure, key, rho_o, asys, kappa), rep_oracle))
        qs.append(Query(f"total_mass {key}", lambda key=key: reps[key].total_mass(), unit_mass))
        qs.append(Query(f"first_moment {key}", lambda key=key: reps[key].first_moment(),
                        partial(lambda kappa, m: [within("first moment", m - root_diagonal(kappa), MASS_ABS)], kappa)))
    qs.append(Query("profile a", lambda: reps["a"].profile(size["profile_points"]),
                    lambda pts: [holds("profile positive", all(np.isfinite(y) and y > 0 for _, y in pts))]))
    # every subtree root of depth <= 2: a seeded choice among them would make
    # the cost of a pass depend on the seed
    for X in [(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)][: size["subtree_roots"]]:
        qs.append(Query(f"rho_sub X={X}", partial(measure, X, rho_sub, asys, X), rep_oracle))
        qs.append(Query(f"total_mass X={X}", lambda X=X: reps[X].total_mass(), unit_mass))

    # reference measure: one sweep of x samples per interval and xi
    xi_a, xi_b = (float(v) for v in rng.uniform(-0.8, 0.8, 2))
    dual: dict = {}

    def via_dual(k, xs, xi):
        dual[(k, xi)] = [reference_measure_via_dual(asys, (2, 2), x, xi) for x in xs]
        return dual[(k, xi)]

    def xi_spread(k, ws):
        err = max(abs(w - v) for w, v in zip(ws, dual[(k, xi_a)]))
        return [within("xi spread", err, XI_SPREAD)]

    for k, (a, b) in enumerate((asys.delta1, asys.delta2)):
        pad = (b - a) * 0.02
        xs = [float(x) for x in np.sort(rng.uniform(a + pad, b - pad, size["dual_points"]))]
        qs.append(Query(f"reference_measure_via_dual sweep {k + 1} xi_a", partial(via_dual, k, xs, xi_a),
                        lambda ws: [holds("finite", all(np.isfinite(w) for w in ws))]))
        qs.append(Query(f"reference_measure_via_dual sweep {k + 1} xi_b", partial(via_dual, k, xs, xi_b),
                        partial(xi_spread, k)))

    zr = float(rng.choice([-1.0, 1.0]) * rng.uniform(2.4, 4.0))
    qs.append(Query(f"green real z={zr:.4f}", partial(green, asys, ka, (), (), zr, depth=8),
                    lambda fr: [within("green formula vs resolvent", abs(fr[0] - fr[1]) / abs(fr[0]), GREEN_REL)]))

    k = int(rng.integers(2))
    lo, hi = asys.interval(k + 1)
    x0 = float(rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)))

    def psi_oracle(vec):
        op = assemble_truncated(asys.sys, ka, 6)
        resid = op.sparse() @ vec - x0 * vec
        interior = [v for v in range(op.n_vertices) if op.tree.children[v]]
        return [within("eigenfunction rows", np.max(np.abs(resid[interior])), EIGVEC_RESIDUAL)]

    qs.append(Query(f"psi_o x={x0:.4f}", partial(psi_o, asys, ka, x0, 6), psi_oracle))

    surf_box: dict = {}

    def surface():
        surf_box["s"] = ps.from_params(0.25, 0.25, -1.0, 1.0)
        return surf_box["s"]

    qs.append(Query("from_params", surface, lambda s: [holds("two cuts", len(s.cuts) == 2)]))

    def dos_sweep(l, k, us):
        # sample positions us in (0, 1) along cut k; the cuts exist once from_params ran
        a, b = surf_box["s"].cuts[k]
        xs = [a + 1e-4 + u * (b - a - 2e-4) for u in us]
        return xs, [ps.dos(surf_box["s"], l, x) for x in xs]

    def dos_oracle(res):
        xs, vals = res
        return [
            holds("dos positive", all(np.isfinite(v) and v > 0 for v in vals)),
            within("unit identity", max(ps.unit_identity_residual(surf_box["s"], x) for x in xs), UNIT_IDENTITY),
        ]

    # The density of states over a grid, in short sweeps per sheet and cut;
    # they are the middle of the pass, so task_p50_s lands inside them.
    for l in (1, 2):
        for k in (0, 1):
            for j in range(size["dos_sweeps"]):
                us = [float(u) for u in np.sort(rng.uniform(size=size["dos_points"]))]
                qs.append(Query(f"dos sweep l={l} cut={k + 1} #{j + 1}", partial(dos_sweep, l, k, us), dos_oracle))
    for l in (1, 2):
        qs.append(Query(f"dos_total_mass l={l}", partial(lambda l: ps.dos_total_mass(surf_box["s"], l), l),
                        unit_mass))
    return qs


BUILDERS = {"lattice": _lattice, "tree": _tree, "spectral": _spectral}
