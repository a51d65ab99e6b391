"""Self-tests of the benchmark at smoke sizes.

    python3 -m pytest -q perfbench

They run from the root of a checkout: every named metric is emitted with
its unit, a deliberately wrong answer fed to an oracle is counted as a
failure, and a directory without the library makes the benchmark exit
non-zero without a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
from oracles import ExactUniformPair, recurrence_vs_exact  # noqa: E402
from workloads import Query  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in last["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in last["metrics"].values())


def test_wrong_answer_is_counted_as_failure():
    exact = ExactUniformPair(
        {"pieces": [{"a": -2.0, "b": -1.0, "density": {"kind": "uniform"}}]},
        {"pieces": [{"a": 1.0, "b": 2.0, "density": {"kind": "uniform"}}]},
    )
    n = (2, 1)
    right = tuple(exact.recurrence(n))
    wrong = (right[0] * (1 + 1e-20),) + right[1:]
    queries = [
        Query("right", lambda: right, lambda r: [recurrence_vs_exact(exact, n, r)]),
        Query("wrong", lambda: wrong, lambda r: [recurrence_vs_exact(exact, n, r)]),
    ]
    records = worker.run_queries(queries)
    assert [r["status"] for r in records] == ["ok", "wrong"]
    values = run.end_to_end([{"queries": records, "wall_s": 1.0, "rss_mb": 1.0}], [{"setup_s": 1.0}])
    assert values["ok_ratio"] == 0.5


def test_raising_query_is_counted_as_failure():
    def boom():
        raise ValueError("no")

    records = worker.run_queries([Query("boom", boom, lambda r: [])])
    assert records[0]["status"] == "raised"
    assert run.end_to_end([{"queries": records, "wall_s": 1.0, "rss_mb": 1.0}], [{"setup_s": 1.0}])["ok_ratio"] == 0.0


def test_reference_time_is_raw_time_at_sampled_speed():
    m = speed.mark()
    speed.calibration()
    raw, ref, s = speed.since(m)  # no timer running: samples taken around the span
    assert raw > 0 and s > 0
    assert ref == pytest.approx(raw * s)


def test_tail_percentile_leaves_ten_queries_beyond():
    assert run.tail_percentile(685) == 98
    assert run.tail_percentile(25) == 60
    assert run.tail_percentile(23) == 56
    assert run.tail_percentile(9) == 88      # cli: one command beyond, the second-slowest of nine
    assert run.percentile([1, 2, 3, 4], 50) == 2


def test_compare_rules():
    base = [10.0 + 0.1 * i for i in range(10)]
    faster = [x * 0.8 for x in base]
    slower = [x * 1.3 for x in base]
    assert compare.verdict(base, faster, list(zip(base, faster)), False, 0.1)[0] == "better"
    assert compare.verdict(base, slower, list(zip(base, slower)), False, 0.1)[0] == "worse"
    assert compare.verdict(base, base, list(zip(base, base)), False, 0.1)[0] == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, noisy, list(zip(noisy, noisy)), False, 0.1)[0] == "unresolved"


def test_fails_without_a_checkout():
    empty = os.path.join(ROOT, ".perfbench", "selftest-empty")
    shutil.rmtree(empty, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(empty, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), empty)
    try:
        proc = _run("--workload", "lattice", "--seed", "1", "--seconds", "5", "--trace", "0", cwd=empty)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(empty)
