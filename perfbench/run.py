"""The mop-trees benchmark: one run of one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 30 --trace 0

Workloads ``lattice``, ``tree`` and ``spectral`` run their queries inside a
fresh worker process per pass (``worker.py``); ``cli`` runs the README
commands, each in a fresh ``cli_runner.py`` process, and compares their output
byte for byte with the goldens in ``goldens/``.  A run first starts a few
set-up probes (fresh processes that only import the library and load the
workload's systems), then repeats passes while they fit in ``--seconds``
(at least one).  All load comes from this one process and one thread at a
time.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics, times in reference seconds (``speed.py``); with ``--trace 1`` the
run makes one untraced and one traced pass and reports the per-layer
metrics of the traced one.  Every run is also saved under
``.perfbench/results/`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
STATE = os.path.join(ROOT, ".perfbench")
PYTHON = sys.executable or "python3"
sys.path.insert(0, HERE)

import worker  # noqa: E402
from oracles import DENSE_GAP, GRAM_OFFDIAG, GREEN_REL, MASS_ABS, holds, within  # noqa: E402

WORKLOADS = ("lattice", "tree", "spectral", "cli")
PROBES = 4                 # set-up probes per untraced run
PASS_TIMEOUT = 150         # seconds; a run must end within 180
THREAD_ENV = dict.fromkeys(worker.THREAD_ENV, "1")

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "task_p50_s": "s", "task_tail_s": "s",
    "ok_ratio": "1", "digits_min": "digits", "peak_rss_mb": "MB",
}

# the README commands, minus the three that need the Nikishin system
SYSTEM = "demos/systems/ang_u.json"
CLI_COMMANDS = (
    ("mop-coeffs", ["mop", "coeffs", "--system", SYSTEM, "--n", "1,1"]),
    ("tree-spectrum", ["tree", "spectrum", "--system", SYSTEM, "--N", "2,1", "--kappa", "0,1"]),
    ("tree-svec", ["tree", "svec", "--system", SYSTEM, "--N", "1,1", "--kappa", "1,0"]),
    ("angelesco-green", ["angelesco", "green", "--system", SYSTEM, "--kappa", "1,0", "--z", "5",
                         "--X", "1", "--Y", "1,2"]),
    ("angelesco-rho", ["angelesco", "rho", "--system", SYSTEM, "--kappa", "0.5,0.5"]),
    ("angelesco-dos-profile", ["angelesco", "dos-profile", "--system", SYSTEM, "--kappa", "1,0",
                               "--grid", "400", "--out", "rho.csv"]),
    ("periodic-surface", ["periodic", "surface", "--A", "0.25,0.25", "--B=-1,1"]),
    ("periodic-dos", ["periodic", "dos", "--A", "0.25,0.25", "--B=-1,1", "--grid", "400", "--out", "dos.csv"]),
    ("periodic-raylimit", ["periodic", "raylimit", "--system", SYSTEM, "--c", "0.5", "--nmax", "8"]),
)
CLI_SMOKE = ("mop-coeffs", "periodic-surface")
GOLDENS = os.path.join(HERE, "goldens")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def check_checkout() -> None:
    for rel in ("src/mop_trees/__init__.py", "src/mop_trees/cli.py", SYSTEM, "demos/systems/nik_u.json"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            raise BenchError(f"not the root of a mop-trees checkout: {rel} is missing")


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def worker_pass(workload: str, seed: int, trace: bool, size: str, setup_only: bool = False) -> dict:
    """Spawn a worker; set-up is the span from spawning it to its READY line."""
    os.makedirs(STATE, exist_ok=True)
    cmd = [PYTHON, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--size", size]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace-out", os.path.join(STATE, f"trace-{workload}.json.gz")]
    with tempfile.TemporaryFile("w+", dir=STATE) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            ready = proc.stdout.readline().split()
            t_ready = time.perf_counter()
            out, _ = proc.communicate(timeout=PASS_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        t_end = time.perf_counter()
        err.seek(0)
        err_text = err.read()
    if ready[:1] != ["READY"] or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): {err_text[-2000:]}")
    setup_speed, setup_handler_s = float(ready[1]), float(ready[2])
    setup_raw = t_ready - t0 - setup_handler_s
    setup = {"setup_s": setup_raw * setup_speed, "setup_raw_s": setup_raw}
    if setup_only:
        return setup
    rec = json.loads(out.strip().splitlines()[-1])
    rec.update(setup)
    rec["process_s"] = (t_end - t0) - rec["internal_s"]
    rec["total_s"] = t_end - t0
    return rec


def _cli_verdicts(name: str, code: int, outputs: dict, golden: dict) -> list:
    verdicts = [holds("exit code 0", code == 0),
                holds("byte-identical output", outputs == golden)]
    try:
        doc = json.loads(outputs.get("stdout", b"").decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        return verdicts
    if name == "tree-spectrum":
        verdicts.append(within("dense gap", doc["dense_gap"], DENSE_GAP))
    elif name == "tree-svec":
        verdicts.append(within("gram offdiag", doc["orthobasis"]["gram_offdiag"], GRAM_OFFDIAG))
    elif name == "angelesco-green":
        verdicts.append(within("green formula vs resolvent", doc["rel_error"], GREEN_REL))
    elif name == "angelesco-rho":
        verdicts.append(within("unit mass", doc["total_mass"] - 1.0, MASS_ABS))
    return verdicts


def read_outputs(directory: str) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def run_command(name: str, argv: list, trace: bool) -> tuple:
    """One CLI command in a fresh ``cli_runner.py`` process, in an empty working directory.

    Returns (exit code, wall seconds, max RSS in MB, outputs, runner summary).
    """
    work = os.path.join(STATE, "work", name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    argv = [os.path.join(ROOT, a) if a == SYSTEM else a for a in argv]
    summary_path = os.path.join(STATE, "work", f"{name}.summary.json")
    cmd = [PYTHON, os.path.join(HERE, "cli_runner.py"), "--summary", summary_path,
           *(["--trace"] if trace else []), "--", *argv]
    stdout_path = os.path.join(STATE, "work", f"{name}.stdout")
    with open(stdout_path, "wb") as out, open(os.devnull, "wb") as null:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=work, env=child_env(), stdout=out, stderr=null)
        watchdog = threading.Timer(PASS_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    outputs = read_outputs(work)
    with open(stdout_path, "rb") as fh:
        outputs["stdout"] = fh.read()
    summary = None
    if os.path.exists(summary_path):
        with open(summary_path) as fh:
            summary = json.load(fh)
        os.remove(summary_path)
    shutil.rmtree(work)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, outputs, summary


def golden_outputs(name: str) -> dict:
    directory = os.path.join(GOLDENS, name)
    return read_outputs(directory) if os.path.isdir(directory) else {}


def cli_pass(trace: bool, size: str) -> dict:
    """The commands one after another; wall_s sums their reference times.

    A command's reference time is its process's wall time, less the runner's
    sampling time, at the mean speed the runner measured.
    """
    records, rss, summaries = [], 0.0, []
    t_start = time.perf_counter()
    for name, argv in CLI_COMMANDS:
        if size == "smoke" and name not in CLI_SMOKE:
            continue
        code, wall, peak, outputs, summary = run_command(name, argv, trace)
        verdicts = _cli_verdicts(name, code, outputs, golden_outputs(name))
        if summary is None:
            verdicts.append(holds("runner summary written", False))
            summary = {}
        digits = [v.digits for v in verdicts if v.digits is not None]
        bad = [v.what for v in verdicts if not v.ok]
        raw = wall - summary.get("handler_s", 0.0)
        records.append({"label": name, "latency": raw * summary.get("speed", 1.0), "latency_raw": raw,
                        "status": "wrong" if bad else "ok",
                        "digits": min(digits) if digits else None, "detail": "; ".join(bad)})
        rss = max(rss, peak)
        if trace and summary:
            summary["process_s"] = wall - summary["internal_s"]
            summaries.append(summary)
    rec = {"workload": "cli", "wall_s": sum(q["latency"] for q in records),
           "wall_raw_s": time.perf_counter() - t_start, "rss_mb": rss, "queries": records}
    if trace:
        rec["trace"] = merge_summaries(summaries)
    return rec


def merge_summaries(summaries: list) -> dict:
    self_times: dict = {}
    counts: dict = {}
    for s in summaries:
        for k, v in s["self_times"].items():
            self_times[k] = self_times.get(k, 0.0) + v
        for k, v in s["counts"].items():
            counts[k] = counts.get(k, 0) + v
    return {
        "self_times": self_times,
        "counts": counts,
        "untraced_s": sum(s["untraced_s"] for s in summaries),
        "import_s": sum(s["import_s"] for s in summaries),
        "process_s": sum(s["process_s"] for s in summaries),
        "spans": sum(s["spans"] for s in summaries),
    }


def one_pass(workload: str, seed: int, trace: bool, size: str) -> dict:
    if workload == "cli":
        return cli_pass(trace, size)
    return worker_pass(workload, seed, trace, size)


def setup_probe(workload: str, size: str) -> dict:
    return worker_pass(workload, 0, False, size, setup_only=True)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail_percentile(queries_per_pass: int) -> int:
    """Highest whole percentile with at least ten of a pass's queries beyond it.

    A pass of twenty queries or fewer keeps one query beyond it instead: for
    ``cli`` (nine commands) that is the second-slowest command, the middle of
    the three that pay ``find_e_kappa``, which reads steadier than the slowest.
    """
    beyond = 10 if queries_per_pass > 20 else 1
    return math.floor(100 * (queries_per_pass - beyond) / queries_per_pass)


def percentile(values: list, p: int) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(p / 100 * len(xs)) - 1)]


def times(passes: list, setups: list, raw: bool = False) -> dict:
    """The four time metrics, in reference seconds, or in raw seconds with ``raw``."""
    sfx = "_raw" if raw else ""
    latencies = [q["latency" + sfx] for p in passes for q in p["queries"]]
    return {
        "setup_s": statistics.median(s[f"setup{sfx}_s"] for s in setups),
        "wall_s": statistics.median(p[f"wall{sfx}_s"] for p in passes),
        "task_p50_s": statistics.median(latencies),
        "task_tail_s": percentile(latencies, tail_percentile(len(passes[0]["queries"]))),
    }


def end_to_end(passes: list, setups: list) -> dict:
    digits = [q["digits"] for p in passes for q in p["queries"] if q["digits"] is not None]
    attempted = sum(len(p["queries"]) for p in passes)
    failed = sum(q["status"] != "ok" for p in passes for q in p["queries"])
    values = {
        **times(passes, setups),
        "ok_ratio": (attempted - failed) / attempted,
        "digits_min": min(digits) if digits else 0.0,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    return values


def per_layer(traced: dict, untraced: dict) -> dict:
    import tracing

    tr = traced["trace"]
    values = tracing.layer_metrics(tr["self_times"], tr["counts"])
    if "import_s" in tr:          # cli: summed over the command processes
        values["cli.import_s"] = tr["import_s"]
        values["cli.process_s"] = tr["process_s"]
    else:
        values["cli.import_s"] = traced["import_s"]
        values["cli.process_s"] = traced["process_s"]
    values["other_s"] = tr["untraced_s"]
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    values["trace.spans"] = tr["spans"]
    return values


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "1"
    if name.endswith("_per_point"):
        return "lookups/point"
    return "count"


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    start = time.perf_counter()
    raw_times = None
    if trace:
        untraced = one_pass(workload, seed, False, size)
        traced = one_pass(workload, seed, True, size)
        passes = [traced]
        metrics = {k: (v, per_layer_unit(k)) for k, v in per_layer(traced, untraced).items()}
    else:
        setups = [setup_probe(workload, size) for _ in range(PROBES)]
        passes = []
        while True:
            p = one_pass(workload, seed, False, size)
            passes.append(p)
            if "setup_s" in p:
                setups.append(p)
            elapsed = time.perf_counter() - start
            if elapsed + p.get("total_s", p["wall_raw_s"]) > seconds:
                break
        metrics = {k: (v, E2E_UNITS[k]) for k, v in end_to_end(passes, setups).items()}
        raw_times = times(passes, setups, raw=True)
    attempted = sum(len(p["queries"]) for p in passes)
    wrong = [q for p in passes for q in p["queries"] if q["status"] == "wrong"]
    raised = [q for p in passes for q in p["queries"] if q["status"] == "raised"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "size": size,
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "raw_times": raw_times,
        "queries_per_pass": len(passes[0]["queries"]),
        "tail_percentile": tail_percentile(len(passes[0]["queries"])),
        "attempted": attempted,
        "failed": len(wrong) + len(raised),
        "failures": sorted({f"{q['label']}: {q['status']} {q['detail']}" for q in wrong + raised}),
        "correct": not wrong,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "provenance": passes[0].get("provenance") or worker.provenance(child_env()),
        "shared_measures": passes[0].get("shared_measures", 0),
        "run_s": time.perf_counter() - start,
    }


def save(result: dict) -> str:
    directory = os.path.join(STATE, "results")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory, f"{result['workload']}-seed{result['seed']}-trace{result['trace']}-{time.time_ns()}.json"
    )
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full", help="smoke: tiny sizes for self-tests")
    args = p.parse_args(argv)
    try:
        check_checkout()
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
        result["saved"] = os.path.relpath(save(result), ROOT)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    detail = {k: v for k, v in result.items() if k not in ("metrics", "correct", "attempted", "failed")}
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
