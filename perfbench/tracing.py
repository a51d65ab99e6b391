"""Spans and counts recorded from outside the library.

The tracer wraps the public functions and methods of each layer (and the
scipy solver entry points the layers call) in place: class methods are
patched on the class, module functions in every ``mop_trees`` namespace that
holds them.  Spans (name, start, end, parent, query id) and counts stay in
memory; :meth:`Tracer.dump` writes them out when the pass ends.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "quadrature", "measures", "mop_engine", "tree_topology", "tree_jacobi",
    "finite_spectral", "angelesco", "nikishin", "periodic_surface", "cli",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.queries: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.query = -1
        self.paused = False      # set while an oracle runs: its library calls are not the query's
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.queries.append(self.query)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def inside(self, prefix: str) -> bool:
        return any(self.names[i].startswith(prefix) for i in self._stack)

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] += k

    # -- patching ----------------------------------------------------------

    def wrap(self, fn, span: str, calls: str | None = None, before=None, after=None):
        """Wrapped ``fn`` recording a span; ``before(args)`` returns state
        handed to ``after(state, args, result)``; raised exceptions count as
        ``<layer>.errors``."""
        layer = span.split(".")[0]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            state = before(args) if before else None
            if calls:
                tracer.counts[calls] += 1
            i = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counts[f"{layer}.errors"] += 1
                raise
            finally:
                tracer.close(i)
            if after:
                after(state, args, result)
            return result

        return wrapper

    def patch_method(self, cls, attr: str, span: str, **kw) -> None:
        orig = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(orig, span, **kw))
        self._restore.append((cls, attr, orig))

    def patch_function(self, module, attr: str, span: str, **kw) -> None:
        """Replace ``module.attr`` everywhere a ``mop_trees`` module holds it."""
        orig = getattr(module, attr)
        wrapped = self.wrap(orig, span, **kw)
        holders = [module] + [
            m for name, m in list(sys.modules.items())
            if name.startswith("mop_trees") and m is not module and getattr(m, attr, None) is orig
        ]
        for m in holders:
            setattr(m, attr, wrapped)
            self._restore.append((m, attr, orig))

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._restore):
            setattr(target, attr, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict:
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            out[name] += self.ends[i] - self.starts[i] - child[i]
        return dict(out)

    def covered(self) -> float:
        """Total duration of root spans: the time some layer span covers."""
        return sum(self.ends[i] - self.starts[i] for i, p in enumerate(self.parents) if p < 0)

    def dump(self, path: str) -> None:
        """Write spans (times in microseconds from the first span) and counts, gzipped."""
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            [index[n], round((s - t0) * 1e6), round((e - t0) * 1e6), p, q]
            for n, s, e, p, q in zip(self.names, self.starts, self.ends, self.parents, self.queries)
        ]
        with gzip.open(path, "wt") as fh:
            json.dump({"names": names, "columns": ["name", "start_us", "end_us", "parent", "query"],
                       "spans": spans, "counts": dict(self.counts)}, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# what is wrapped
# ---------------------------------------------------------------------------


def _moments_extend(args):
    """True when the call will grow the cached moment table."""
    self, upto, prec = args[0], args[1], args[2]
    return len(self._cache.get(("mom_mp", prec), ())) <= upto


def _record_at(args):
    self, n = args[0], (int(args[1][0]), int(args[1][1]))
    return self._records.get(n)


def _type2_pending(args):
    rec = _record_at(args)
    return rec is None or not rec.P


def _type1_pending(args):
    rec = _record_at(args)
    return rec is None or rec.A1 is None


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced entry point of the imported ``mop_trees`` modules."""
    q = importlib.import_module("mop_trees.quadrature")
    me = importlib.import_module("mop_trees.measures")
    eng = importlib.import_module("mop_trees.mop_engine")
    topo = importlib.import_module("mop_trees.tree_topology")
    tj = importlib.import_module("mop_trees.tree_jacobi")
    fs = importlib.import_module("mop_trees.finite_spectral")
    ang = importlib.import_module("mop_trees.angelesco")
    nik = importlib.import_module("mop_trees.nikishin")
    ps = importlib.import_module("mop_trees.periodic_surface")
    cli = importlib.import_module("mop_trees.cli")
    import scipy.linalg
    import scipy.sparse.linalg

    t = tracer

    def counted(name):
        return lambda state, args, result: t.count(name) if state else None

    t.patch_function(
        q, "gauss_legendre_mp", "quadrature.gl_mp",
        before=lambda a: (a[0], a[1]) not in q._GAUSS_MP_CACHE,
        after=counted("quadrature.gl_mp_builds"),
    )

    t.patch_method(me.Measure, "moments_mp", "measures.moments_mp", calls="measures.moments_mp_calls",
                   before=_moments_extend, after=counted("measures.moments_mp_extends"))
    for attr in ("markov_mp", "markov_boundary_mp"):
        t.patch_method(me.Measure, attr, "measures.markov_mp", calls="measures.markov_mp_calls")
    for attr in ("markov", "markov_boundary"):
        t.patch_method(me.Measure, attr, "measures.markov", calls="measures.markov_calls")

    t.patch_method(eng.MopSystem, "record", "mop_engine.type2",
                   before=_type2_pending, after=counted("mop_engine.type2_solves"))
    t.patch_method(eng.MopSystem, "type1_record", "mop_engine.type1",
                   before=_type1_pending,
                   after=counted("mop_engine.type1_solves"))

    points: set = set()

    def rec_before(args):
        rec = _record_at(args)
        if t.inside("tree_jacobi.assemble"):
            t.count("tree_jacobi.lookups")
            points.add((id(args[0]), tuple(args[1])))
            t.counts["tree_jacobi.assembly_points"] = len(points)
        return rec is not None and rec.rec is not None

    t.patch_method(eng.MopSystem, "recurrence", "mop_engine.recurrence", calls="mop_engine.recurrence_calls",
                   before=rec_before, after=counted("mop_engine.recurrence_hits"))
    t.patch_function(eng, "real_zeros", "mop_engine.zeros", calls="mop_engine.zeros_calls")
    for attr in ("second_kind", "second_kind_boundary", "second_kind_boundary_mp"):
        t.patch_function(eng, attr, "mop_engine.second_kind", calls="mop_engine.second_kind_calls")
    for attr in ("consistency_residual", "interlacing_check", "type1_interlacing_check"):
        t.patch_function(eng, attr, "mop_engine.checks")

    def vertices(name):
        return lambda state, args, result: t.count(name, len(result))

    for attr in ("finite_tree", "cayley_truncation"):
        t.patch_function(topo, attr, "tree_topology.build", after=vertices("tree_topology.vertices"))
    for attr in ("assemble_finite", "assemble_truncated", "assemble_subtree"):
        t.patch_function(tj, attr, "tree_jacobi.assemble",
                         after=lambda s, a, op: t.count("tree_jacobi.assemble_vertices", op.n_vertices))

    t.patch_function(fs, "full_basis", "finite_spectral.full_basis",
                     after=lambda s, a, dec: t.count("finite_spectral.vertices", dec.op.n_vertices))
    t.patch_function(fs, "s_orthogonalize", "finite_spectral.s_orthogonalize")
    for attr in ("eigvals", "eigvalsh"):
        t.patch_function(scipy.linalg, attr, "finite_spectral.dense_eig")

    t.patch_function(scipy.sparse.linalg, "spsolve", "angelesco.resolvent",
                     before=lambda a: t.count("angelesco.resolvent_unknowns", a[0].shape[0]))
    distinct: set = set()

    def fek_before(args):
        distinct.add((id(args[0]), tuple(float(k) for k in args[1])))
        t.counts["angelesco.find_e_kappa_distinct"] = len(distinct)

    t.patch_function(ang, "find_e_kappa", "angelesco.find_e_kappa", calls="angelesco.find_e_kappa_calls",
                     before=fek_before)
    t.patch_function(ang, "green", "angelesco.green")
    for attr in ("rho_o", "rho_sub"):
        t.patch_function(ang, attr, "angelesco.rho")
    for attr in ("total_mass", "first_moment", "profile"):
        t.patch_method(ang.SpectralMeasureRep, attr, "angelesco.rho")
    for attr in ("psi_o", "psi_x", "psi_tilde"):
        t.patch_function(ang, attr, "angelesco.psi")
    for attr in ("reference_measure", "reference_measure_via_dual"):
        t.patch_function(ang, attr, "angelesco.reference")

    for attr in ("sign_pattern_check", "h_sign_check"):
        t.patch_function(nik, attr, "nikishin.sign_check")
    t.patch_function(nik, "diagonal_blowup_scan", "nikishin.blowup")

    t.patch_function(ps, "dos", "periodic_surface.dos", calls="periodic_surface.dos_calls")
    for attr in ("dos_total_mass", "from_params", "ray_limit_estimate", "unit_identity_residual"):
        t.patch_function(ps, attr, "periodic_surface.other")

    t.patch_function(cli, "main", "cli.main")
    t.patch_function(cli, "load_system", "cli.load_system")
    for attr in ("_emit", "emit_plot_data"):
        t.patch_function(cli, attr, "cli.emit")
    return t


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# per-layer time metric -> the span names whose self times it sums
TIMES = {
    "quadrature.gl_mp_s": ["quadrature.gl_mp"],
    "measures.moments_mp_s": ["measures.moments_mp"],
    "measures.markov_mp_s": ["measures.markov_mp"],
    "measures.markov_s": ["measures.markov"],
    "mop_engine.type2_s": ["mop_engine.type2"],
    "mop_engine.type1_s": ["mop_engine.type1"],
    "mop_engine.zeros_s": ["mop_engine.zeros"],
    "mop_engine.recurrence_s": ["mop_engine.recurrence"],
    "mop_engine.second_kind_s": ["mop_engine.second_kind"],
    "tree_topology.build_s": ["tree_topology.build"],
    "tree_jacobi.assemble_s": ["tree_jacobi.assemble"],
    "angelesco.resolvent_s": ["angelesco.resolvent"],
    "angelesco.find_e_kappa_s": ["angelesco.find_e_kappa"],
    "angelesco.green_s": ["angelesco.green"],
    "angelesco.rho_s": ["angelesco.rho"],
    "angelesco.psi_s": ["angelesco.psi"],
    "angelesco.reference_s": ["angelesco.reference"],
    "finite_spectral.full_basis_s": ["finite_spectral.full_basis"],
    "finite_spectral.dense_eig_s": ["finite_spectral.dense_eig"],
    "finite_spectral.s_orthogonalize_s": ["finite_spectral.s_orthogonalize"],
    "nikishin.sign_check_s": ["nikishin.sign_check"],
    "nikishin.blowup_s": ["nikishin.blowup"],
    "periodic_surface.dos_s": ["periodic_surface.dos"],
    "cli.load_system_s": ["cli.load_system"],
    "cli.emit_s": ["cli.emit"],
}

COUNTS = (
    "quadrature.gl_mp_builds",
    "measures.moments_mp_calls", "measures.moments_mp_extends",
    "measures.markov_mp_calls", "measures.markov_calls",
    "mop_engine.type2_solves", "mop_engine.type1_solves", "mop_engine.zeros_calls",
    "mop_engine.recurrence_calls", "mop_engine.second_kind_calls",
    "tree_topology.vertices", "tree_jacobi.assemble_vertices",
    "angelesco.resolvent_unknowns", "angelesco.find_e_kappa_calls", "angelesco.find_e_kappa_distinct",
    "finite_spectral.vertices", "periodic_surface.dos_calls",
) + tuple(f"{layer}.errors" for layer in LAYERS)


def layer_metrics(self_times: dict, counts: dict) -> dict:
    """Per-layer metric values (without the run-level ones) from one traced pass."""
    out = {name: sum(self_times.get(s, 0.0) for s in spans) for name, spans in TIMES.items()}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_times.items() if k.split(".")[0] == layer)
    out.update({name: counts.get(name, 0) for name in COUNTS})
    calls = counts.get("mop_engine.recurrence_calls", 0)
    out["mop_engine.recurrence_hit_ratio"] = counts.get("mop_engine.recurrence_hits", 0) / calls if calls else 0.0
    points = counts.get("tree_jacobi.assembly_points", 0)
    out["tree_jacobi.lookups_per_point"] = counts.get("tree_jacobi.lookups", 0) / points if points else 0.0
    return out
