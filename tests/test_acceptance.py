"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria with a stated
runtime budget build their systems fresh inside the timed block; the others
share the session fixtures.
"""

import time

import numpy as np
import pytest

from mop_trees.angelesco import (
    angelesco_system,
    dual_pole_weight_residual,
    green,
    psi_o,
    psi_x,
    reference_measure_via_dual,
    rho_o,
    type1_zero_set,
)
from mop_trees.finite_spectral import full_basis, s_orthogonalize
from mop_trees.measures import uniform
from mop_trees.mop_engine import (
    consistency_residual,
    interlacing_check,
    type1_interlacing_check,
)
from mop_trees.nikishin import (
    diagonal_blowup_scan,
    h_sign_check,
    nikishin_system,
    sign_pattern_check,
)
from mop_trees.periodic_surface import (
    chi0,
    dos_total_mass,
    from_params,
    l2_norm_sq,
    l2_norm_sq_direct,
    off_cut_subunit,
    ray_limit_estimate,
    sheet_products,
    unit_identity_residual,
    zmap,
)
from mop_trees.tree_jacobi import (
    assemble_subtree,
    assemble_truncated,
    s_selfadjoint_check,
    signature_diagonal,
)


def report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_01_finite_tree_spectral_theorem():
    t0 = time.perf_counter()
    asys = angelesco_system(uniform(-2, -1), uniform(1, 2))
    dec = full_basis(asys.sys, (0.0, 1.0), (2, 1))
    assert dec.op.n_vertices == 9
    assert sum(e.g for e in dec.eigenvalues) == 9
    sizes = dec.report["zero_table_sizes"]
    assert sizes["boundary"] == 4 and sizes["(2, 1)"] == 3 and sizes["(1, 1)"] == 2
    assert dec.report["dense_gap"] <= 1e-10
    assert dec.report["rank"] == 9
    J = dec.op.dense()
    for (i, X), b in dec.vectors.items():
        E = dec.eigenvalues[i].E
        assert np.linalg.norm(J @ b - E * b) <= 1e-9 * np.linalg.norm(b) * np.linalg.norm(J, 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    for N in [(1, 1), (2, 2), (3, 2)]:
        d = full_basis(asys.sys, (0.0, 1.0), N)
        assert sum(e.g for e in d.eigenvalues) == d.op.n_vertices  # exact counting
        assert d.report["dense_gap"] <= 1e-10
    report(f"1 finite-tree spectral theorem ({elapsed:.2f}s)")


def test_criterion_02_signature_structure(nik_sys):
    dec = full_basis(nik_sys, (0.0, 1.0), (2, 2))
    assert s_selfadjoint_check(dec.op) <= 1e-14
    basis = s_orthogonalize(dec)
    assert basis.gram_offdiag <= 1e-9
    s = signature_diagonal(dec.op)
    assert basis.inertia == (int((s > 0).sum()), int((s < 0).sum()))
    report("2 signature structure on the Nikishin tree")


@pytest.mark.parametrize("system", ["ang", "nik"])
def test_criterion_03_consistency(system, ang_sys, nik_sys):
    sysm = ang_sys if system == "ang" else nik_sys
    worst = 0.0
    for n1 in range(1, 10):
        for n2 in range(1, 10):
            if n1 + n2 > 10:
                continue
            r = consistency_residual(sysm, (n1, n2))
            worst = max(worst, max(float(x) for x in r))
    assert worst <= 1e-25, f"worst residual {worst:.3e}"
    report(f"3 consistency conditions ({system}, worst {worst:.1e})")


def test_criterion_04_interlacing(ang_sys):
    for n1 in range(0, 21):
        for n2 in range(0, 21 - n1):
            for i in (1, 2):
                assert interlacing_check(ang_sys, (n1, n2), i), f"type II fails at {(n1, n2)}, i={i}"
    for n1 in range(1, 20):
        for n2 in range(1, 20 - n1 + 1):
            if n1 + n2 > 20:
                continue
            assert type1_interlacing_check(ang_sys, (n1, n2), 2, 1), f"pattern fails at {(n1, n2)}"
            assert type1_interlacing_check(ang_sys, (n1, n2), 1, 2), f"pattern fails at {(n1, n2)}"
    report("4 interlacing through order 20")


def test_criterion_05_nikishin_signs():
    t0 = time.perf_counter()
    nsys = nikishin_system(uniform(2, 3), uniform(0, 1))
    rep = sign_pattern_check(nsys, 8)
    hrep = h_sign_check(nsys, 8)
    elapsed = time.perf_counter() - t0
    assert rep["violations"] == []
    assert hrep["violations"] == []
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    report(f"5 Nikishin sign patterns ({elapsed:.1f}s)")


def test_criterion_06_blowup_trend(nik_u):
    scan = diagonal_blowup_scan(nik_u, 6, region_order=13)
    a2 = [d["a2"] for d in scan["diagonal"]]
    a1 = [d["a1"] for d in scan["diagonal"]]
    assert all(x < y for x, y in zip(a2[:-1], a2[1:])), "a2 trend not increasing"
    assert all(x > y for x, y in zip(a1[:-1], a1[1:])), "a1 trend not decreasing"
    by_order = scan["offdiag_max_by_order"]
    anchor = by_order[5]
    assert max(by_order.values()) < 5 * anchor
    report("6 Nikishin blowup trend with bounded off-diagonal")


def test_criterion_07_angelesco_green(ang_u):
    # closed form vs depth-12 resolvent for every subtree pair of order <= 4
    tree = assemble_truncated(ang_u.sys, (1.0, 0.0), 2).tree
    words = {0: ()}
    for v in range(1, len(tree)):
        words[v] = words[tree.parent[v]] + (tree.iota[v],)
    checked = 0
    for xv in range(len(tree)):
        for yv in tree.subtree_ids(xv):
            f, r = green(ang_u, (1.0, 0.0), words[yv], words[xv], 5.0, depth=12)
            assert abs(f - r) <= 1e-6 * abs(f), f"pair X={words[xv]}, Y={words[yv]}"
            checked += 1
    assert checked >= 17

    for kappa in ((1.0, 0.0), (0.5, 0.5)):
        assert rho_o(ang_u, kappa).total_mass() == pytest.approx(1.0, abs=1e-8)

    x0 = -1.4
    vec = psi_o(ang_u, (0.5, 0.5), x0, 6)
    op = assemble_truncated(ang_u.sys, (0.5, 0.5), 6)
    resid = op.sparse() @ vec - x0 * vec
    interior = [v for v in range(op.n_vertices) if op.tree.children[v]]
    assert np.max(np.abs(resid[interior])) <= 1e-8

    x1 = 1.37
    vecx = psi_x(ang_u, (2, 1), x1, 6)
    opx = assemble_subtree(ang_u.sys, (2, 2), 1, 6)
    residx = opx.sparse() @ vecx - x1 * vecx
    interior = [v for v in range(opx.n_vertices) if opx.tree.children[v]]
    assert np.max(np.abs(residx[interior])) <= 1e-8
    report(f"7 Angelesco Green functions ({checked} resolvent pairs)")


def test_criterion_08_reference_measure(ang_u):
    xi_a, xi_b = -0.3, 0.4
    n = (2, 2)
    worst = 0.0
    for a, b in (ang_u.delta1, ang_u.delta2):
        pad = (b - a) * 0.02
        for x in np.linspace(a + pad, b - pad, 100):
            wa = reference_measure_via_dual(ang_u, n, float(x), xi_a)
            wb = reference_measure_via_dual(ang_u, n, float(x), xi_b)
            worst = max(worst, abs(wa - wb))
    assert worst <= 1e-9, f"xi dependence {worst:.2e}"
    zeros = type1_zero_set(ang_u, n)
    assert len(zeros) == 2
    for E in zeros:
        assert dual_pole_weight_residual(ang_u, n, E, 0.1) <= 1e-8
    report(f"8 reference measure (xi spread {worst:.1e})")


def test_criterion_09_periodic_surface():
    t0 = time.perf_counter()
    surf = from_params(0.25, 0.25, -1.0, 1.0)

    rng = np.random.default_rng(42)
    worst = 0.0
    count = 0
    while count < 1000:
        z = complex(rng.uniform(-4, 4), rng.uniform(-2.5, 2.5))
        if abs(z.imag) < 1e-6 or min(abs(z - b) for b in surf.branch_points) < 1e-5:
            continue
        worst = max(worst, abs(zmap(surf, chi0(surf, z)) - z))
        count += 1
    assert worst <= 1e-12, f"roundtrip error {worst:.2e}"

    cut_pts = []
    for a, b in surf.cuts:
        cut_pts.extend(np.linspace(a + 1e-4, b - 1e-4, 50))
    assert len(cut_pts) == 100
    assert max(unit_identity_residual(surf, float(x)) for x in cut_pts) <= 1e-10

    for z in (3.0, -3.5, 1.5j, 0.2 + 1.0j):
        assert off_cut_subunit(surf, z) < 1.0

    for l in (1, 2):
        closed = l2_norm_sq(surf, l, 5.0)
        assert abs(closed - l2_norm_sq_direct(surf, l, 5.0, 30)) <= 1e-8 * closed
        assert dos_total_mass(surf, l) == pytest.approx(1.0, abs=1e-8)
        expected = (-1) ** l / (surf.a_of(l) * (surf.B2 - surf.B1))
        assert abs(sheet_products(surf, l, 0.4 + 0.9j) - expected) <= 1e-10

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    report(f"9 periodic surface ({elapsed:.1f}s)")


def test_criterion_10_ray_limits(ang_u):
    rep = ray_limit_estimate(ang_u, 0.5, 16)
    window = [d for d in rep.diagonal_diffs if 10 <= d[0] <= 32]
    assert len(window) >= 10
    for col in (1, 2, 3, 4):
        seq = [d[col] for d in window]
        assert all(x > y for x, y in zip(seq[:-1], seq[1:])), f"column {col} not decreasing"
    decay = window[-1][1]
    assert abs(rep.A_hat[0] - rep.A_hat[1]) <= decay
    assert abs(rep.B_hat[0] + rep.B_hat[1]) <= decay
    report("10 ray limits along the diagonal")
