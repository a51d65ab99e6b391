"""Run one ``mop-trees`` command in this fresh process, as the console script does.

    python3 perfbench/cli_runner.py --summary SUMMARY.json [--trace] -- <mop-trees arguments>

It imports the library from the checkout's ``src/``, calls
``mop_trees.cli.main(argv)`` and writes to SUMMARY.json the mean machine
speed over its life and the time its speed sampler took (``speed.py``).
With ``--trace`` the layers are wrapped as ``tracing.install`` does, and
the summary also holds the span self times and counts, with the spans
themselves next to it (``SUMMARY.spans.json.gz``).
Standard output is the command's own, so it can be compared with the goldens.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import speed  # noqa: E402

if __name__ == "__main__":
    speed.start()
M0 = speed.mark()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def main(argv: list) -> int:
    trace = len(argv) > 2 and argv[2] == "--trace"
    sep = 3 if trace else 2
    if len(argv) <= sep or argv[0] != "--summary" or argv[sep] != "--":
        sys.stderr.write("usage: cli_runner.py --summary FILE [--trace] -- ARGS...\n")
        return 1
    out_path, args = argv[1], argv[sep + 1:]
    from worker import import_library

    import_s = import_library(os.path.dirname(HERE))
    import mop_trees.cli

    tracer = None
    if trace:
        import tracing

        tracer = tracing.install(tracing.Tracer())
    t = time.perf_counter()
    code = mop_trees.cli.main(args)
    t_end = time.perf_counter()
    sys.stdout.flush()
    summary = {}
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(os.path.splitext(out_path)[0] + ".spans.json.gz")
        summary = {
            "import_s": import_s,
            "self_times": tracer.self_times(),
            "counts": dict(tracer.counts),
            "untraced_s": (t_end - t) - tracer.covered(),
            "spans": len(tracer.names),
            "internal_s": time.perf_counter() - T0,
        }
    summary.update(speed=speed.since(M0)[2], handler_s=speed.handler_s())
    with open(out_path, "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
