"""Compare two sets of benchmark runs, one row per (workload, metric).

    python3 perfbench/compare.py BASE_DIR NEW_DIR [--trace 1]
    python3 perfbench/compare.py RUNS_DIR

With one directory it prints a summary instead: per workload the median and
quartiles of every end-to-end metric, and the median per-layer self-time
shares of the traced runs (the numbers kept in ``baseline.json``).

Each directory holds runs saved by ``run.py`` (``.perfbench/results`` of a
checkout, or a copy of it).  Runs pair up by workload and seed.  For each
pair (workload, metric) the verdict is:

* ``better``   -- every new run reads better than every base run; or the new
  side wins at least 9 of every 10 pairs (ties count for neither side) and
  the medians differ by more than the base runs' quartile spread;
* ``worse``    -- the new median is worse than the base median by more than
  the metric's bound (a share of the base median, from BENCHMARK.json);
* ``unresolved`` -- not worse, but the base runs' quartile spread is wider
  than the bound, or there are no pairs;
* ``unchanged`` -- otherwise.

Per-layer metrics (``--trace 1``) have no bound: they read ``worse`` by the
mirror of the ``better`` rule and never ``unresolved`` for lack of one.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def saved_runs(directory: str, trace: int) -> list:
    out = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        if rec.get("trace") == trace and rec.get("size") == "full":
            out.append(rec)
    return out


def load_runs(directory: str, trace: int) -> dict:
    """(workload, seed) -> list of metric dicts, for runs with this trace flag."""
    runs: dict = {}
    for rec in saved_runs(directory, trace):
        values = {k: v["value"] for k, v in rec["metrics"].items()}
        runs.setdefault((rec["workload"], rec["seed"]), []).append(values)
    return runs


def summary(directory: str, spec: dict) -> dict:
    """Per workload: end-to-end quartiles and traced self-time shares."""
    out: dict = {}
    for w in (w["name"] for w in spec["workloads"]):
        runs = [r for r in saved_runs(directory, 0) if r["workload"] == w]
        traced = [r for r in saved_runs(directory, 1) if r["workload"] == w]
        entry: dict = {"runs": len(runs), "traced_runs": len(traced)}
        if runs:
            entry["queries_per_pass"] = runs[0]["queries_per_pass"]
            entry["tail_percentile"] = runs[0]["tail_percentile"]
            entry["passes_per_run"] = sorted({r["passes"] for r in runs})
            entry["end_to_end"] = {}
            for m in spec["end_to_end"]:
                q1, med, q3 = quartiles([r["metrics"][m["name"]]["value"] for r in runs])
                entry["end_to_end"][m["name"]] = {
                    "median": med, "q1": q1, "q3": q3, "unit": m["unit"],
                    "spread": (q3 - q1) / abs(med) if med else 0.0,
                }
        if traced:
            shares: dict = {}
            for r in traced:
                m = {k: v["value"] for k, v in r["metrics"].items()}
                parts = {k[: -len(".self_s")]: v for k, v in m.items() if k.endswith(".self_s")}
                parts["other"] = m["other_s"]
                total = sum(parts.values())
                for k, v in parts.items():
                    shares.setdefault(k, []).append(v / total)
            entry["self_time_shares"] = {k: round(statistics.median(v), 4) for k, v in
                                         sorted(shares.items(), key=lambda kv: -statistics.median(kv[1]))}
        out[w] = entry
    return out


def quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base: list, new: list, pairs: list, higher: bool, bound: float | None) -> tuple:
    """(verdict, wins, pairs) for one (workload, metric)."""
    if not base or not new:
        return "unresolved", 0, 0
    sign = 1 if higher else -1
    b1, bmed, b3 = quartiles(base)
    nmed = statistics.median(new)
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    losses = sum(sign * (n - b) < 0 for b, n in pairs)
    spread = b3 - b1
    all_better = min(new) > max(base) if higher else max(new) < min(base)
    if pairs and all_better:
        return "better", wins, len(pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (nmed - bmed) > spread:
        return "better", wins, len(pairs)
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and sign * (bmed - nmed) > spread:
            return "worse", wins, len(pairs)
        return ("unchanged" if pairs else "unresolved"), wins, len(pairs)
    if sign * (bmed - nmed) > bound * abs(bmed):
        return "worse", wins, len(pairs)
    if not pairs or spread > bound * abs(bmed):
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def compare(base_dir: str, new_dir: str, trace: int, spec: dict) -> list:
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    base, new = load_runs(base_dir, trace), load_runs(new_dir, trace)
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        keys = sorted(k for k in set(base) | set(new) if k[0] == workload)
        for m in metrics:
            name = m["name"]
            b = [r[name] for k in keys for r in base.get(k, []) if name in r]
            n = [r[name] for k in keys for r in new.get(k, []) if name in r]
            pairs = [
                (rb[name], rn[name])
                for k in keys
                for rb, rn in zip(base.get(k, []), new.get(k, []))
                if name in rb and name in rn
            ]
            v, wins, npairs = verdict(b, n, pairs, m["better"] == "higher", m.get("bound"))
            rows.append({
                "workload": workload, "metric": name, "unit": m["unit"],
                "base": quartiles(b) if b else None, "new": quartiles(n) if n else None,
                "wins": wins, "pairs": npairs, "verdict": v,
            })
    return rows


def _fmt(q) -> str:
    return "-" if q is None else f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("base")
    p.add_argument("new", nargs="?")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    if args.new is None:
        json.dump(summary(args.base, spec), sys.stdout, indent=1)
        sys.stdout.write("\n")
        return 0
    rows = compare(args.base, args.new, args.trace, spec)
    print(f"{'workload':9s} {'metric':36s} {'base median [q1, q3]':32s} {'new median [q1, q3]':32s} "
          f"{'wins':>7s}  verdict")
    for r in rows:
        print(f"{r['workload']:9s} {r['metric'] + ' (' + r['unit'] + ')':36s} {_fmt(r['base']):32s} "
              f"{_fmt(r['new']):32s} {r['wins']:>3d}/{r['pairs']:<3d}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
