"""One pass of an in-process workload, in a fresh process.

Run from the root of a checkout by ``run.py``:

    python3 perfbench/worker.py --workload lattice --seed 1 [--trace 1] [--setup-only]

The worker imports ``mop_trees`` from ``src/``, builds the workload's systems
from their files (this is set-up) and prints ``READY`` with the mean machine
speed and the sampling time of its set-up (``speed.py``); the parent times the
span from spawning the process to that line.  It then runs every query once,
checks each result against its oracle and prints one JSON line with the
per-query latencies and verdicts, in raw and reference seconds.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import speed  # noqa: E402

if __name__ == "__main__":
    speed.start()
M0 = speed.mark()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def import_library(root: str) -> float:
    """Import every layer (the CLI module pulls them all); returns seconds."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    t = time.perf_counter()
    import mop_trees.cli  # noqa: F401

    elapsed = time.perf_counter() - t
    origin = os.path.realpath(sys.modules["mop_trees"].__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"mop_trees imported from {origin}, not from {src}")
    return elapsed


def run_queries(queries, tracer=None) -> list:
    """Call each query, then its oracle; one record per query.

    Some oracles call library code (an assembled operator, the unit identity);
    the tracer is paused while they run, so their time counts in ``other_s``
    and in no layer.

    status is ``ok``, ``wrong`` (a returned result failed its oracle) or
    ``raised`` (the call raised).  digits is the smallest digits of agreement
    among the oracle's checks, or None when it made only pass/fail checks.
    """
    records = []
    for qid, q in enumerate(queries):
        if tracer is not None:
            tracer.query = qid
        m = speed.mark()
        try:
            result = q.call()
        except Exception as exc:  # a failing query is counted, not fatal
            raw, latency, _ = speed.since(m)
            records.append({"label": q.label, "latency": latency, "latency_raw": raw, "status": "raised",
                            "digits": None, "detail": f"{type(exc).__name__}: {exc}"})
            continue
        raw, latency, _ = speed.since(m)
        if tracer is not None:
            tracer.paused = True
        try:
            verdicts = q.check(result)
        except Exception as exc:
            verdicts = None
            detail = f"oracle raised {type(exc).__name__}: {exc}"
        else:
            bad = [v.what for v in verdicts if not v.ok]
            detail = "; ".join(bad[:3])
        finally:
            if tracer is not None:
                tracer.paused = False
        ok = bool(verdicts) and all(v.ok for v in verdicts)
        digits = [v.digits for v in verdicts or () if v.digits is not None]
        records.append({"label": q.label, "latency": latency, "latency_raw": raw, "status": "ok" if ok else "wrong",
                        "digits": min(digits) if digits else None, "detail": detail})
    return records


def provenance(env) -> dict:
    """Versions, mpmath backend, CPU count and the thread settings in ``env``."""
    import platform

    import mpmath
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: env.get(k) for k in THREAD_ENV},
    }


THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "MOP_TREES_THREADS")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-out", default=None, help="file for the spans of a traced pass")
    args = p.parse_args(argv)
    root = os.getcwd()

    import_s = import_library(root)
    import tracing
    import workloads

    tracer = tracing.install(tracing.Tracer()) if args.trace else None
    t_setup = time.perf_counter()
    systems = workloads.load_systems(args.workload, root)
    sys.stdout.write(f"READY {speed.since(M0)[2]!r} {speed.handler_s()!r}\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    queries = workloads.build(args.workload, systems, args.seed, args.size)
    m = speed.mark()
    records = run_queries(queries, tracer)
    wall_raw, wall, _ = speed.since(m)
    t_end = time.perf_counter()
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "import_s": import_s,
        "wall_s": wall,
        "wall_raw_s": wall_raw,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "queries": records,
        "shared_measures": workloads.shared_measures(systems),
        "provenance": provenance(os.environ),
    }
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = {
            "self_times": tracer.self_times(),
            "counts": dict(tracer.counts),
            "untraced_s": (t_end - t_setup) - tracer.covered(),
            "spans": len(tracer.names),
        }
        if args.trace_out:
            tracer.dump(args.trace_out)
    out["internal_s"] = time.perf_counter() - T0
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
