"""The benchmark's tracer wraps library entry points by name; it must install
against the current code and leave every patched object as it found it."""

import importlib.util
import sys
from pathlib import Path

import scipy.linalg
import scipy.sparse.linalg

import mop_trees.cli  # noqa: F401  (imports every layer the tracer patches)
from mop_trees.angelesco import green
from mop_trees.finite_spectral import full_basis

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every namespace the tracer may patch: the library modules, their classes, and scipy's solvers."""
    mods = [m for name, m in sorted(sys.modules.items()) if name.startswith("mop_trees") and m is not None]
    classes = {id(v): v for m in mods for v in vars(m).values() if isinstance(v, type) and v.__module__.startswith("mop_trees")}
    return mods + list(classes.values()) + [scipy.linalg, scipy.sparse.linalg]


def test_install_then_uninstall_restores_every_wrapped_object(ang_u):
    tracing = _load_tracing()
    before = [(ns, dict(vars(ns))) for ns in _namespaces()]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # fails if a traced name is gone
        patched = list(tracer._restore)
        assert patched
        names = {attr for _, attr, _ in patched}
        assert {"real_zeros", "record", "type1_record", "recurrence", "gauss_legendre_mp"} <= names
        for target, attr, orig in patched:
            assert vars(target)[attr] is not orig, f"{attr} was not wrapped"
        # the library imports scipy inside these calls; the wrapped solvers must still be the ones run
        full_basis(ang_u.sys, (0, 1), (2, 1))
        green(ang_u, (1, 0), (1, 2), (1,), 5.0, depth=4)
        assert "angelesco.resolvent" in tracer.names
        # Known gap: the tracer times `finite_spectral.dense_eig` by wrapping scipy.linalg's
        # eigvals/eigvalsh, but full_basis runs numpy.linalg's, so that span stays shut and
        # `finite_spectral.dense_eig_s` reads 0. Once the tracer wraps the numpy solvers this
        # line fails: assert then that the span opens.
        assert "finite_spectral.dense_eig" not in tracer.names
        assert tracer.counts["angelesco.resolvent_unknowns"] > 0
    finally:
        tracer.uninstall()
    for target, attr, orig in patched:
        assert vars(target)[attr] is orig, f"{attr} not restored on {target!r}"
    for ns, snapshot in before:
        now = vars(ns)
        changed = [k for k, v in snapshot.items() if now.get(k) is not v]
        assert not changed, f"{ns!r} changed: {changed}"
