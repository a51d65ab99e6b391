"""Command-line front end: system definition files in, JSON/CSV reports out.

System files are JSON documents:

    {"schema": "mop-trees/1", "type": "angelesco",
     "mu1": {measure literal}, "mu2": {measure literal}, "precision_bits": 256}

    {"schema": "mop-trees/1", "type": "nikishin",
     "mu1": {measure literal}, "tau": {measure literal}, "precision_bits": 256}

where a measure literal is
``{"atoms": [[x, m], ...], "pieces": [{"a":, "b":, "density": {...}}], "quad_order": 200}``.

Each subcommand returns its JSON document (or writes its CSV files and returns
None); ``main`` loads the system, emits the document and sets the exit code.
Exit codes: 0 success, 1 usage error, 2 assumption/validation failure.
Outputs are deterministic: JSON with sorted keys and shortest-roundtrip
floats, CSV through :func:`emit_plot_data`.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

from . import angelesco as ang
from . import nikishin as nik
from . import periodic_surface as psur
from .errors import MopTreesError
from .finite_spectral import full_basis, s_orthogonalize
from .measures import _shaped, measure_from_json
from .mop_engine import MopSystem, consistency_residual, interlacing_check
from .tree_jacobi import assemble_finite, s_selfadjoint_check

SCHEMA = "mop-trees/1"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def load_system(path: str, precision_bits: int | None = None) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a system file holds a JSON object, not a JSON {type(doc).__name__}")
    if doc.get("schema", SCHEMA) != SCHEMA:
        raise ValueError(f"unsupported system schema {doc['schema']!r} (expected {SCHEMA!r})")
    bits = precision_bits
    if bits is None:  # MopSystem rejects an integer below 1
        bits = _shaped(doc.get("precision_bits", 256), "precision_bits", "integer")
    kind = doc.get("type")
    if kind not in ("angelesco", "nikishin", "pair"):
        raise ValueError(f"unknown system type {kind!r}")
    mu1, mu2 = (measure_from_json(doc[k], k) for k in ("mu1", "tau" if kind == "nikishin" else "mu2"))
    if kind == "angelesco":
        asys = ang.angelesco_system(mu1, mu2, bits)
        return {"type": kind, "asys": asys, "sys": asys.sys}
    if kind == "nikishin":
        nsys = nik.nikishin_system(mu1, mu2, bits)
        return {"type": kind, "nsys": nsys, "sys": nsys.sys}
    return {"type": kind, "sys": MopSystem((mu1, mu2), bits)}


def emit_plot_data(profile, path: str, masses=None) -> None:
    """Two-column CSV with a header; optional sidecar JSON for point masses."""
    rows = list(profile)
    if not rows:
        raise ValueError("empty grid: nothing to emit")
    with open(path, "w") as fh:
        fh.write("x,value\n")
        for x, y in rows:
            fh.write(f"{x:.12e},{y:.12e}\n")
    if masses:
        side = path + ".masses.json"
        with open(side, "w") as fh:
            json.dump(
                {"schema": SCHEMA, "point_masses": [[float(a), float(b)] for a, b in masses]},
                fh,
                sort_keys=True,
            )
            fh.write("\n")


def _emit(doc: dict, out: str | None) -> None:
    doc = {"schema": SCHEMA, **doc}
    text = json.dumps(doc, sort_keys=True, indent=1)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _profile(args, pts, default: str, masses=None) -> dict | None:
    """CSV files with ``--format csv`` or ``--out``, else a ``profile`` key."""
    if args.format == "csv" or args.out:
        emit_plot_data(pts, args.out or default, masses=masses)
        sys.stdout.write(f"wrote {len(pts)} points\n")
        return None
    return {"profile": [[x, y] for x, y in pts]}


def _parse_pair(text, cast=float) -> tuple:
    parts = [cast(t) for t in str(text).split(",")]
    if len(parts) != 2:
        raise ValueError("expected two comma-separated values")
    return tuple(parts)


def _parse_word(text) -> tuple:
    if text in (None, "", "O"):
        return ()
    return tuple(int(t) for t in str(text).split(","))


def _grid(zero_ok: bool):
    """argparse type for ``--grid``: the points are split between two intervals,
    so a profile needs 2 or more; 0 means no profile where ``zero_ok``."""

    def grid(text: str) -> int:
        n = int(text)
        if n < 2 and not (zero_ok and n == 0):
            raise argparse.ArgumentTypeError(
                f"{n} leaves an interval without points: pass 2 or more" + (" (0 for none)" if zero_ok else "")
            )
        return n

    return grid


def _finite_complex(text: str) -> complex:
    """argparse type for ``--z``: a finite complex number."""
    try:
        z = complex(text)
    except ValueError:
        z = complex("nan")
    if not cmath.isfinite(z):
        raise argparse.ArgumentTypeError(f"expected a finite complex number, not {text!r}")
    return z


# ---------------------------------------------------------------------------
# subcommands: (args, loaded system or None) -> JSON document, or None
# ---------------------------------------------------------------------------


def cmd_mop_coeffs(args, loaded):
    return {"record": loaded["sys"].record_json(_parse_pair(args.n, int))}


def cmd_tree_spectrum(args, loaded):
    N = _parse_pair(args.N, int)
    kappa = _parse_pair(args.kappa)
    dec = full_basis(loaded["sys"], kappa, N)
    return {
        "N": list(N),
        "kappa": list(kappa),
        "n_vertices": dec.op.n_vertices,
        "eigenvalues": [{"E": ev.E, "g": ev.g} for ev in dec.eigenvalues],
        "dense_gap": dec.report["dense_gap"],
    }


def cmd_tree_svec(args, loaded):
    dec = full_basis(loaded["sys"], _parse_pair(args.kappa), _parse_pair(args.N, int))
    basis = s_orthogonalize(dec)
    doc = dec.to_json()
    doc["orthobasis"] = {
        "signs": [float(s) for s in basis.signs],
        "gram_offdiag": basis.gram_offdiag,
        "inertia": list(basis.inertia),
        "columns": [[float(v) for v in basis.matrix[:, j]] for j in range(basis.matrix.shape[1])],
    }
    return doc


def cmd_angelesco_green(args, loaded):
    X, Y = _parse_word(args.X), _parse_word(args.Y)
    f, r = ang.green(loaded["asys"], _parse_pair(args.kappa), Y or X, X, args.z, depth=args.depth)
    return {
        "X": list(X),
        "Y": list(Y or X),
        "z": [args.z.real, args.z.imag],
        "formula": [f.real, f.imag],
        "resolvent": [r.real, r.imag],
        "rel_error": abs(f - r) / max(abs(f), 1e-300),
    }


def cmd_angelesco_rho(args, loaded):
    kappa = _parse_pair(args.kappa)
    rep = ang.rho_o(loaded["asys"], kappa)
    doc = {
        "kappa": list(kappa),
        "point_masses": [[float(a), float(b)] for a, b in rep.point_masses],
        "total_mass": rep.total_mass(),
        "first_moment": rep.first_moment(),
    }
    if args.grid:
        doc["profile"] = [[x, y] for x, y in rep.profile(args.grid)]
    return doc


def cmd_angelesco_dos_profile(args, loaded):
    rep = ang.rho_o(loaded["asys"], _parse_pair(args.kappa))
    return _profile(args, rep.profile(args.grid), "rho_profile.csv", masses=rep.point_masses)


def cmd_nikishin_signs(args, loaded):
    rep = nik.sign_pattern_check(loaded["nsys"], args.nmax)
    hrep = nik.h_sign_check(loaded["nsys"], args.nmax)
    return {
        "nmax": args.nmax,
        "sign_pattern": {"passed": rep["passed"], "violations": rep["violations"]},
        "h_signs": {"passed": hrep["passed"], "violations": hrep["violations"]},
        "verdict": "PASS" if rep["passed"] and hrep["passed"] else "FAIL",
    }


def cmd_nikishin_blowup(args, loaded):
    scan = nik.diagonal_blowup_scan(loaded["nsys"], args.nmax)
    if args.format != "csv":
        return scan
    path = args.out or "blowup_a1.csv"
    emit_plot_data([(d["n"], d["a1"]) for d in scan["diagonal"]], path)
    emit_plot_data([(d["n"], d["a2"]) for d in scan["diagonal"]], path + ".a2.csv")
    return None


def _surface_from_args(args):
    params = []
    for flag, text in (("--A", args.A), ("--B", args.B)):
        pair = _parse_pair(text)
        if not all(map(math.isfinite, pair)):
            raise ValueError(f"{flag} must be two finite numbers, not {text!r}")
        params += pair
    return psur.from_params(*params)


def cmd_periodic_surface(args, loaded):
    surf = _surface_from_args(args)
    return {
        "params": {"A1": surf.A1, "A2": surf.A2, "B1": surf.B1, "B2": surf.B2},
        "critical_points": list(surf.critical_points),
        "branch_points": list(surf.branch_points),
        "cuts": [list(c) for c in surf.cuts],
    }


def cmd_periodic_dos(args, loaded):
    surf = _surface_from_args(args)
    grids = ang.interval_grids(surf.cuts, args.grid, lambda a, b: (b - a) * 1e-6)
    pts = [(x, psur.dos(surf, args.l, x)) for xs in grids for x in xs.tolist()]
    return _profile(args, pts, "dos.csv")


def cmd_periodic_raylimit(args, loaded):
    rep = psur.ray_limit_estimate(loaded["asys"], args.c, args.nmax)
    return {
        "c": rep.c,
        "A_hat": list(rep.A_hat),
        "B_hat": list(rep.B_hat),
        "diagonal_diffs": [list(d) for d in rep.diagonal_diffs],
        "fitted_cuts": [list(c) for c in rep.fitted_cuts] if rep.fitted_cuts else None,
    }


def cmd_verify_all(args, loaded):
    sysm = loaded["sys"]
    checks = []

    def record(name, passed, detail=""):
        checks.append({"check": name, "passed": bool(passed), "detail": detail})

    for n in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        worst = max(float(x) for x in consistency_residual(sysm, n))
        bound = float(sysm.tolerance) * max(1.0, *map(abs, sysm.recurrence_float(n)))
        record(f"consistency {n}", worst < bound, f"max={worst:.3e}")
    if loaded["type"] == "angelesco":
        for n in [(1, 1), (2, 2), (3, 2)]:
            record(f"interlacing {n}", interlacing_check(sysm, n, 1) and interlacing_check(sysm, n, 2))
        dec = full_basis(sysm, (0.0, 1.0), (2, 1))
        record("finite spectral (2,1)", dec.report["dense_gap"] < 1e-9, f"gap={dec.report['dense_gap']:.3e}")
        op = assemble_finite(sysm, (0.0, 1.0), (2, 2))
        record("signature self-adjointness", s_selfadjoint_check(op) < 1e-13)
    if loaded["type"] == "nikishin":
        rep = nik.sign_pattern_check(loaded["nsys"], args.nmax)
        record(f"sign pattern nmax={args.nmax}", rep["passed"], f"{len(rep['violations'])} violations")
        hrep = nik.h_sign_check(loaded["nsys"], args.nmax)
        record(f"h signs nmax={args.nmax}", hrep["passed"], f"{len(hrep['violations'])} violations")
        op = assemble_finite(sysm, (0.0, 1.0), (2, 2))
        record("signature self-adjointness", s_selfadjoint_check(op) < 1e-13)
    return {"checks": checks, "verdict": "PASS" if all(c["passed"] for c in checks) else "FAIL"}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="mop-trees", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    groups = p.add_subparsers(dest="group", required=True)
    cmds = {}

    def command(group, name, fn, system=True, fmt=False):
        if group not in cmds:
            cmds[group] = groups.add_parser(group).add_subparsers(dest="cmd", required=True)
        sp = cmds[group].add_parser(name)
        if system:
            sp.add_argument("--system", required=True, help="system definition JSON")
            sp.add_argument("--precision-bits", type=int, default=None, dest="precision_bits")
        sp.add_argument("--out", default=None)
        if fmt:
            sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.set_defaults(fn=fn)
        return sp

    command("mop", "coeffs", cmd_mop_coeffs).add_argument("--n", required=True, help="multi-index n1,n2")

    for name, fn in (("spectrum", cmd_tree_spectrum), ("svec", cmd_tree_svec)):
        sp = command("tree", name, fn)
        sp.add_argument("--N", required=True)
        sp.add_argument("--kappa", required=True)

    sp = command("angelesco", "green", cmd_angelesco_green)
    sp.add_argument("--kappa", required=True)
    sp.add_argument("--z", required=True, type=_finite_complex)
    sp.add_argument("--X", default="")
    sp.add_argument("--Y", default="")
    sp.add_argument("--depth", type=int, default=12)
    sp = command("angelesco", "rho", cmd_angelesco_rho)
    sp.add_argument("--kappa", required=True)
    sp.add_argument("--grid", type=_grid(zero_ok=True), default=0)
    sp = command("angelesco", "dos-profile", cmd_angelesco_dos_profile, fmt=True)
    sp.add_argument("--kappa", required=True)
    sp.add_argument("--grid", type=_grid(zero_ok=False), required=True)

    command("nikishin", "signs", cmd_nikishin_signs).add_argument("--nmax", type=int, default=4)
    command("nikishin", "blowup", cmd_nikishin_blowup, fmt=True).add_argument("--nmax", type=int, default=4)

    sp = command("periodic", "surface", cmd_periodic_surface, system=False)
    sp.add_argument("--A", required=True, help="A1,A2")
    sp.add_argument("--B", required=True, help="B1,B2")
    sp = command("periodic", "dos", cmd_periodic_dos, system=False, fmt=True)
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)
    sp.add_argument("--l", type=int, choices=(1, 2), default=1)
    sp.add_argument("--grid", type=_grid(zero_ok=False), required=True)
    sp = command("periodic", "raylimit", cmd_periodic_raylimit)
    sp.add_argument("--c", type=float, default=0.5)
    sp.add_argument("--nmax", type=int, default=8)

    command("verify", "all", cmd_verify_all).add_argument("--nmax", type=int, default=4)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        loaded = load_system(args.system, args.precision_bits) if "system" in args else None
        doc = args.fn(args, loaded)
        if doc is not None:
            _emit({"command": f"{args.group} {args.cmd}", **doc}, args.out)
    except MopTreesError as exc:
        # prefix the code with the module that raised it
        tb = exc.__traceback__
        module = "mop_trees"
        while tb is not None:
            mod = tb.tb_frame.f_globals.get("__name__", "")
            if mod.startswith("mop_trees."):
                module = mod.split(".")[-1]
            tb = tb.tb_next
        _emit({"error": {"code": f"{module}.{type(exc).__name__}", "message": str(exc)}}, None)
        return 2
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"mop-trees: {exc}\n")
        return 1
    return 2 if doc and doc.get("verdict") == "FAIL" else 0


if __name__ == "__main__":
    raise SystemExit(main())
