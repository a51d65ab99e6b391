import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import workprec

from mop_trees import angelesco, cli, periodic_surface
from mop_trees.cli import main

ANG_DOC = {
    "schema": "mop-trees/1",
    "type": "angelesco",
    "mu1": {"pieces": [{"a": -2.0, "b": -1.0, "density": {"kind": "uniform"}}]},
    "mu2": {"pieces": [{"a": 1.0, "b": 2.0, "density": {"kind": "uniform"}}]},
}

PAIR_DOC = {**ANG_DOC, "type": "pair"}

NIK_DOC = {
    "schema": "mop-trees/1",
    "type": "nikishin",
    "mu1": {"pieces": [{"a": 2.0, "b": 3.0, "density": {"kind": "uniform"}}]},
    "tau": {"pieces": [{"a": 0.0, "b": 1.0, "density": {"kind": "uniform"}}]},
}


@pytest.fixture(scope="module")
def ang_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("sys") / "ang_u.json"
    p.write_text(json.dumps(ANG_DOC))
    return str(p)


@pytest.fixture(scope="module")
def nik_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("sys") / "nik_u.json"
    p.write_text(json.dumps(NIK_DOC))
    return str(p)


@pytest.fixture(scope="module")
def pair_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("sys") / "pair_u.json"
    p.write_text(json.dumps(PAIR_DOC))
    return str(p)


def _must_not_run(*args, **kwargs):
    raise AssertionError("called before the argument check")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCommands:
    def test_mop_coeffs_origin(self, ang_file, capsys):
        code, out = run(capsys, "mop", "coeffs", "--system", ang_file, "--n", "0,0")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "mop-trees/1"
        assert doc["record"]["b"] == pytest.approx([-1.5, 1.5])

    def test_tree_spectrum_count(self, ang_file, capsys):
        code, out = run(
            capsys, "tree", "spectrum", "--system", ang_file, "--N", "2,1", "--kappa", "0,1"
        )
        assert code == 0
        doc = json.loads(out)
        assert sum(e["g"] for e in doc["eigenvalues"]) == 9
        assert doc["dense_gap"] < 1e-9

    def test_tree_svec(self, ang_file, capsys):
        code, out = run(
            capsys, "tree", "svec", "--system", ang_file, "--N", "1,1", "--kappa", "1,0"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["orthobasis"]["inertia"] == [5, 0]

    def test_angelesco_green(self, ang_file, capsys):
        code, out = run(
            capsys,
            "angelesco", "green", "--system", ang_file,
            "--kappa", "1,0", "--z", "5", "--depth", "10",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rel_error"] < 1e-6

    def test_angelesco_rho(self, ang_file, capsys):
        code, out = run(capsys, "angelesco", "rho", "--system", ang_file, "--kappa", "1,0")
        assert code == 0
        doc = json.loads(out)
        assert doc["total_mass"] == pytest.approx(1.0, abs=1e-8)

    def test_dos_profile_csv(self, ang_file, capsys, tmp_path):
        out_path = str(tmp_path / "rho.csv")
        code, _ = run(
            capsys,
            "angelesco", "dos-profile", "--system", ang_file,
            "--kappa", "1,0", "--grid", "100", "--out", out_path,
        )
        assert code == 0
        lines = open(out_path).read().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 101

    def test_nikishin_signs(self, nik_file, capsys):
        code, out = run(capsys, "nikishin", "signs", "--system", nik_file, "--nmax", "3")
        assert code == 0
        assert json.loads(out)["verdict"] == "PASS"

    def test_nikishin_blowup(self, nik_file, capsys):
        code, out = run(capsys, "nikishin", "blowup", "--system", nik_file, "--nmax", "3")
        assert code == 0
        doc = json.loads(out)
        a2 = [d["a2"] for d in doc["diagonal"]]
        assert a2 == sorted(a2)

    def test_periodic_surface(self, capsys):
        code, out = run(capsys, "periodic", "surface", "--A", "0.25,0.25", "--B=-1,1")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["branch_points"]) == 4

    def test_periodic_dos_csv(self, capsys, tmp_path):
        out_path = str(tmp_path / "dos.csv")
        code, _ = run(
            capsys,
            "periodic", "dos", "--A", "0.25,0.25", "--B=-1,1",
            "--l", "1", "--grid", "200", "--out", out_path,
        )
        assert code == 0
        lines = open(out_path).read().splitlines()
        assert lines[0] == "x,value" and len(lines) == 201

    def test_nikishin_blowup_csv(self, nik_file, capsys, tmp_path):
        out_path = str(tmp_path / "a.csv")
        code, out = run(
            capsys, "nikishin", "blowup", "--system", nik_file, "--nmax", "3", "--format", "csv", "--out", out_path
        )
        assert code == 0 and out == ""
        for path in (out_path, out_path + ".a2.csv"):
            lines = open(path).read().splitlines()
            assert lines[0] == "x,value" and len(lines) == 4

    def test_dos_profile_csv_default_path(self, ang_file, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out = run(
            capsys, "angelesco", "dos-profile", "--system", ang_file, "--kappa", "1,0", "--grid", "10", "--format", "csv"
        )
        assert code == 0 and out == "wrote 10 points\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rho_profile.csv"]
        assert len((tmp_path / "rho_profile.csv").read_text().splitlines()) == 11

    def test_periodic_dos_json(self, capsys):
        code, out = run(capsys, "periodic", "dos", "--A", "0.25,0.25", "--B=-1,1", "--grid", "20")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "periodic dos"
        assert len(doc["profile"]) == 20 and all(len(row) == 2 for row in doc["profile"])

    # an odd grid gives its extra point to the first interval
    @pytest.mark.parametrize("group", ["periodic", "angelesco"])
    def test_odd_grid_keeps_every_point(self, group, ang_file, capsys, tmp_path):
        argv = {
            "periodic": ["periodic", "dos", "--A", "0.25,0.25", "--B=-1,1"],
            "angelesco": ["angelesco", "dos-profile", "--system", ang_file, "--kappa", "1,0"],
        }[group]
        out_path = tmp_path / "odd.csv"
        code, out = run(capsys, *argv, "--grid", "401", "--out", str(out_path))
        assert code == 0 and out == "wrote 401 points\n"
        xs = [float(line.split(",")[0]) for line in out_path.read_text().splitlines()[1:]]
        assert len(xs) == 401 and xs == sorted(xs)

    def test_periodic_raylimit(self, ang_file, capsys):
        code, out = run(
            capsys, "periodic", "raylimit", "--system", ang_file, "--c", "0.5", "--nmax", "4"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["A_hat"][0] == pytest.approx(doc["A_hat"][1], abs=1e-15)

    def test_verify_all(self, nik_file, capsys):
        code, out = run(capsys, "verify", "all", "--system", nik_file, "--nmax", "3")
        assert code == 0
        assert json.loads(out)["verdict"] == "PASS"

    def test_checks_scale_with_precision(self, ang_file, nik_file, capsys):
        # at 53 bits the recurrence check used to fail from (1,1) on, and the
        # consistency bound of verify held 128-bit residuals to 1e-25
        code, out = run(capsys, "mop", "coeffs", "--system", ang_file, "--n", "3,3", "--precision-bits", "53")
        assert code == 0 and json.loads(out)["record"]["n"] == [3, 3]
        for path, bits in ((ang_file, "256"), (nik_file, "128")):
            code, out = run(capsys, "verify", "all", "--system", path, "--precision-bits", bits)
            assert code == 0 and json.loads(out)["verdict"] == "PASS"


class TestSystemKinds:
    # a command read a key of the loaded system that its kind lacks, and printed
    # only that key: "mop-trees: 'nsys'" or "mop-trees: 'asys'"
    @pytest.mark.parametrize(
        "argv, system, needs, has",
        [
            (["nikishin", "signs"], "ang_file", "nikishin", "angelesco"),
            (["nikishin", "blowup"], "pair_file", "nikishin", "pair"),
            (["angelesco", "rho", "--kappa", "0.5,0.5"], "nik_file", "angelesco", "nikishin"),
            (["angelesco", "rho", "--kappa", "0.5,0.5"], "pair_file", "angelesco", "pair"),
            (["angelesco", "green", "--kappa", "1,0", "--z", "5"], "pair_file", "angelesco", "pair"),
            (["angelesco", "dos-profile", "--kappa", "1,0", "--grid", "4"], "nik_file", "angelesco", "nikishin"),
            (["periodic", "raylimit"], "nik_file", "angelesco", "nikishin"),
        ],
    )
    def test_wrong_kind_exits_one_naming_both(self, argv, system, needs, has, request, capsys, monkeypatch):
        path = request.getfixturevalue(system)
        for fn in ("rho_o", "green"):
            monkeypatch.setattr(angelesco, fn, _must_not_run)
        assert main([*argv, "--system", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"mop-trees: {argv[0]} {argv[1]} needs a system of type {needs!r}; {path} has type {has!r}\n"
        )

    def test_pair_runs_the_commands_of_any_kind(self, pair_file, capsys):
        code, out = run(capsys, "mop", "coeffs", "--system", pair_file, "--n", "1,1")
        assert code == 0 and json.loads(out)["record"]["n"] == [1, 1]
        code, out = run(capsys, "verify", "all", "--system", pair_file)
        checks = json.loads(out)["checks"]  # a pair has only the lattice consistency checks
        assert code == 0 and json.loads(out)["verdict"] == "PASS"
        assert [c["check"] for c in checks] == [f"consistency {n}" for n in ((1, 1), (2, 1), (1, 2), (2, 2))]
        assert main(["angelesco", "rho", "--system", pair_file, "--kappa", "0.5,0.5"]) == 1
        assert "needs a system of type 'angelesco'" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, field", [(ANG_DOC, "mu1"), (ANG_DOC, "mu2"), (NIK_DOC, "tau")])
    def test_missing_measure_names_the_field(self, doc, field, tmp_path, capsys):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({k: v for k, v in doc.items() if k != field}))
        assert main(["mop", "coeffs", "--system", str(path), "--n", "1,1"]) == 1
        assert capsys.readouterr().err == f"mop-trees: {field} must be a JSON object, not None\n"


class TestExitCodesAndDeterminism:
    def test_usage_error_exits_one(self, capsys):
        assert main(["tree", "spectrum", "--N", "2,1"]) == 1

    def test_missing_file_exits_one(self, capsys):
        assert main(["mop", "coeffs", "--system", "/nonexistent.json", "--n", "1,1"]) == 1

    def test_validation_failure_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "type": "angelesco",
                    "mu1": {"pieces": [{"a": 0.0, "b": 1.0, "density": {"kind": "uniform"}}]},
                    "mu2": {"pieces": [{"a": 0.5, "b": 2.0, "density": {"kind": "uniform"}}]},
                }
            )
        )
        code = main(["mop", "coeffs", "--system", str(bad), "--n", "1,1"])
        out = capsys.readouterr().out
        assert code == 2
        assert "OverlapError" in json.loads(out)["error"]["code"]

    def test_invalid_child_label_exits_two(self, capsys):
        code = main(["angelesco", "green", "--system", SYSTEM, "--kappa", "1,0", "--z", "5", "--X", "3", "--Y", "3"])
        out = capsys.readouterr().out
        assert code == 2
        assert json.loads(out)["error"]["code"] == "angelesco.DomainError"

    @pytest.mark.parametrize("cmd", ["rho", "dos-profile"])
    def test_kappa_off_simplex_exits_one(self, cmd, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["angelesco", cmd, "--system", SYSTEM, "--kappa", "2,3", "--grid", "4"]) == 1
        assert capsys.readouterr().out == ""

    def test_byte_identical_reruns(self, ang_file, capsys):
        _, out1 = run(capsys, "mop", "coeffs", "--system", ang_file, "--n", "1,1")
        _, out2 = run(capsys, "mop", "coeffs", "--system", ang_file, "--n", "1,1")
        assert out1 == out2

    # the profile splits the grid between two intervals, so --grid 1 gives no point
    @pytest.mark.parametrize("cmd, grid", [("dos-profile", "0"), ("dos-profile", "1"), ("rho", "1")])
    def test_empty_grid_usage_error(self, cmd, grid, ang_file, capsys, monkeypatch):
        # the grid is checked before the system is loaded or rho_o runs
        monkeypatch.setattr(angelesco, "rho_o", _must_not_run)
        monkeypatch.setattr(cli, "load_system", _must_not_run)
        code = main(["angelesco", cmd, "--system", ang_file, "--kappa", "1,0", "--grid", grid])
        assert code == 1
        assert capsys.readouterr().out == ""

    def test_green_kappa_off_simplex_exits_one(self, capsys):
        # off the root neither the formula nor the subtree truncation reads kappa
        argv = ["angelesco", "green", "--system", SYSTEM, "--kappa", "2,3", "--z", "5", "--X", "1", "--Y", "1,2"]
        assert main(argv) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["angelesco", "rho", "--kappa", "nan,0"],
            ["angelesco", "green", "--kappa", "nan,0", "--z", "0.5+1j"],
            ["angelesco", "green", "--kappa", "inf,-inf", "--z", "5"],
            *(["angelesco", "green", "--kappa", "1,0", "--z", z] for z in ("nan", "inf", "nanj", "1+nanj")),
        ],
        ids=" ".join,
    )
    def test_non_finite_kappa_or_z_exits_one(self, argv, capsys):
        # NaN weights passed the sum check and a NaN z reached the formula; both exited 0
        assert main([*argv, "--system", SYSTEM]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("mop-trees") and ("kappa" in captured.err or "--z" in captured.err)
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_foreign_schema_exits_one(self, tmp_path, capsys):
        doc = tmp_path / "future.json"
        doc.write_text(json.dumps({**ANG_DOC, "schema": "mop-trees/9"}))
        assert main(["mop", "coeffs", "--system", str(doc), "--n", "1,1"]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("text", ["[1, 2]", "3", "null"])
    def test_non_object_system_exits_one(self, text, tmp_path, capsys):
        doc = tmp_path / "not_an_object.json"
        doc.write_text(text)
        assert main(["mop", "coeffs", "--system", str(doc), "--n", "1,1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("a system file holds a JSON object, not a JSON " + type(json.loads(text)).__name__ + "\n")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "mu2, field",
        [
            ([1, 2], "mu2 must be a JSON object"),
            ({"pieces": [[1, 2]]}, "mu2.pieces[0] must be a JSON object"),
            ({"atoms": [1]}, "mu2.atoms[0] must be a JSON pair"),
            ({"atoms": [[3.0]], "pieces": [{"a": 1, "b": 2}]}, "mu2.atoms[0] must be a JSON pair"),
            ({"pieces": [{"a": 1, "b": 2, "density": "uniform"}]}, "mu2.pieces[0].density must be a JSON object"),
            ({"pieces": [{"a": 1, "b": "2"}]}, "mu2.pieces[0].b must be a JSON number"),
            ({"pieces": [{"a": 1, "b": 2}], "quad_order": 0}, "quad_order must be a positive integer"),
        ],
    )
    def test_malformed_measure_exits_one(self, mu2, field, tmp_path, capsys):
        doc = tmp_path / "malformed.json"
        doc.write_text(json.dumps({**ANG_DOC, "mu2": mu2}))
        assert main(["mop", "coeffs", "--system", str(doc), "--n", "1,1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("mop-trees: ") and field in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    @pytest.mark.parametrize("bits", [None, [256], 256.5, 256.0, "256", True, 0], ids=repr)
    def test_malformed_precision_bits_exits_one(self, bits, tmp_path, capsys):
        doc = tmp_path / "bits.json"
        doc.write_text(json.dumps({**ANG_DOC, "precision_bits": bits}))
        assert main(["mop", "coeffs", "--system", str(doc), "--n", "1,1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("mop-trees: ") and "precision_bits" in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "mu1, message",
        [
            (
                {"pieces": [{"a": -2.0, "b": -1.0, "density": {"kind": "jacobi_weight", "p": math.nan, "q": 0.0}}]},
                "mu1.pieces[0].density.p must be a finite JSON number, not nan",
            ),
            ({"atoms": [[math.nan, 0.5]], "pieces": [{"a": -2.0, "b": -1.0}]}, "mu1.atoms[0] must be a finite JSON number, not nan"),
            ({"atoms": [[-3.0, math.inf]], "pieces": [{"a": -2.0, "b": -1.0}]}, "mu1.atoms[0] must be a finite JSON number, not inf"),
            ({"pieces": [{"a": -2.0, "b": 10**400}]}, f"mu1.pieces[0].b must be a finite JSON number, not {10**400}"),
        ],
        ids=["p-nan", "atom-x-nan", "atom-mass-inf", "b-too-large-for-a-float"],
    )
    def test_non_finite_measure_literal_exits_one(self, mu1, message, tmp_path, capsys):
        # json reads NaN and Infinity; they reached the engine and exited 2 with an error naming a solve,
        # and an int too large for a float ended in an OverflowError traceback
        doc = tmp_path / "non_finite.json"
        doc.write_text(json.dumps({**ANG_DOC, "mu1": mu1}))
        assert main(["mop", "coeffs", "--system", str(doc), "--n", "1,1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"mop-trees: {message}\n"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["periodic", "surface", "--A", "0.25,inf", "--B=-1,1"], "--A"),
            (["periodic", "surface", "--A", "0.25,0.25", "--B=-1,nan"], "--B"),
            (["periodic", "dos", "--A", "0.25,0.25", "--B=-1,nan", "--grid", "4"], "--B"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v,
    )
    def test_non_finite_surface_parameter_exits_one(self, argv, flag, capsys, monkeypatch):
        # the error came from deep in numpy and named neither flag
        monkeypatch.setattr(periodic_surface, "from_params", _must_not_run)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"mop-trees: {flag} must be two finite numbers")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("grid", ["0", "1"])  # --grid 1 leaves no point on either cut
    def test_periodic_empty_grid_usage_error(self, grid, capsys, monkeypatch):
        monkeypatch.setattr(periodic_surface, "from_params", _must_not_run)
        code = main(["periodic", "dos", "--A", "0.25,0.25", "--B=-1,1", "--grid", grid])
        assert code == 1

    # every scan runs over n = 1..nmax: below 1 a sign check passed with nothing checked
    @pytest.mark.parametrize("nmax", ["0", "-2"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["nikishin", "signs", "--system", "nik_file"],
            ["nikishin", "blowup", "--system", "nik_file"],
            ["verify", "all", "--system", "nik_file"],
            ["periodic", "raylimit", "--system", "ang_file"],
        ],
    )
    def test_nmax_below_one_exits_one(self, argv, nmax, request, capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_system", _must_not_run)
        argv = [request.getfixturevalue(a) if a.endswith("_file") else a for a in argv]
        assert main([*argv, "--nmax", nmax]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --nmax: {nmax} leaves nothing to check" in captured.err

    def test_point_mass_short_of_bits_exits_two(self, capsys):
        # at 16 bits the central difference of the kappa-form rounds to 0
        code, out = run(capsys, "angelesco", "rho", "--system", SYSTEM, "--kappa", "0.5,0.5", "--precision-bits", "16")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["code"] == "angelesco.PrecisionError"
        assert "at 16 bits" in error["message"]

    @pytest.mark.parametrize("bits", [0, -8])
    def test_nonpositive_precision_exits_one(self, bits, capsys, tmp_path):
        # fails fast from the flag and from the file: no spin in the moment solve, no fallback to 256
        doc = tmp_path / "bits.json"
        doc.write_text(json.dumps({**ANG_DOC, "precision_bits": bits}))
        for argv in (["--system", SYSTEM, "--precision-bits", str(bits)], ["--system", str(doc)]):
            assert main(["mop", "coeffs", "--n", "1,1", *argv]) == 1
        assert capsys.readouterr().out == ""

    def test_dos_small_grid_csv(self, capsys, tmp_path):
        out_path = str(tmp_path / "dos2.csv")
        code, _ = run(
            capsys,
            "periodic", "dos", "--A", "0.25,0.25", "--B=-1,1",
            "--grid", "50", "--out", out_path,
        )
        assert code == 0
        assert len(open(out_path).read().splitlines()) == 51


# The README commands timed by the benchmark (CLI_COMMANDS in perfbench/run.py),
# each checked byte for byte against its recorded output in perfbench/goldens.
ROOT = Path(__file__).resolve().parents[1]
GOLDENS = ROOT / "perfbench" / "goldens"
SYSTEM = str(ROOT / "demos" / "systems" / "ang_u.json")
GOLDEN_COMMANDS = {
    "mop-coeffs": ["mop", "coeffs", "--system", SYSTEM, "--n", "1,1"],
    "tree-spectrum": ["tree", "spectrum", "--system", SYSTEM, "--N", "2,1", "--kappa", "0,1"],
    "tree-svec": ["tree", "svec", "--system", SYSTEM, "--N", "1,1", "--kappa", "1,0"],
    "angelesco-green": ["angelesco", "green", "--system", SYSTEM, "--kappa", "1,0", "--z", "5",
                        "--X", "1", "--Y", "1,2"],
    "angelesco-rho": ["angelesco", "rho", "--system", SYSTEM, "--kappa", "0.5,0.5"],
    "angelesco-dos-profile": ["angelesco", "dos-profile", "--system", SYSTEM, "--kappa", "1,0",
                              "--grid", "400", "--out", "rho.csv"],
    "periodic-surface": ["periodic", "surface", "--A", "0.25,0.25", "--B=-1,1"],
    "periodic-dos": ["periodic", "dos", "--A", "0.25,0.25", "--B=-1,1", "--grid", "400",
                     "--out", "dos.csv"],
    "periodic-raylimit": ["periodic", "raylimit", "--system", SYSTEM, "--c", "0.5", "--nmax", "8"],
}


def _python(code, *args, cwd=None):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd, timeout=120).returncode


def test_command_options():
    # each command takes only the flags it reads: --system and --precision-bits
    # where a system is loaded, --format where a CSV can be written
    loads = {"--system", "--precision-bits", "--out"}
    expected = {
        "mop coeffs": loads | {"--n"},
        "tree spectrum": loads | {"--N", "--kappa"},
        "tree svec": loads | {"--N", "--kappa"},
        "angelesco green": loads | {"--kappa", "--z", "--X", "--Y", "--depth"},
        "angelesco rho": loads | {"--kappa", "--grid"},
        "angelesco dos-profile": loads | {"--kappa", "--grid", "--format"},
        "nikishin signs": loads | {"--nmax"},
        "nikishin blowup": loads | {"--nmax", "--format"},
        "periodic surface": {"--out", "--A", "--B"},
        "periodic dos": {"--out", "--format", "--A", "--B", "--l", "--grid"},
        "periodic raylimit": loads | {"--c", "--nmax"},
        "verify all": loads | {"--nmax"},
    }

    def commands(parser):
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    found = {
        f"{group} {name}": {s for a in sp._actions for s in a.option_strings} - {"-h", "--help"}
        for group, gp in commands(cli.build_parser()).items()
        for name, sp in commands(gp).items()
    }
    assert found == expected
    assert sum(len(opts & {"--precision-bits", "--out", "--format"}) for opts in found.values()) == 25


def test_import_leaves_scipy_unloaded():
    # Every CLI command is a fresh process; scipy is imported only inside the
    # calls that use it (sparse LU, sparse products).
    code = "import mop_trees.cli, sys; sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    assert _python(code) == 0


@pytest.mark.parametrize(
    "name",
    [
        "mop-coeffs", "tree-spectrum", "tree-svec", "angelesco-rho", "angelesco-dos-profile",
        "periodic-surface", "periodic-dos", "periodic-raylimit",
    ],
)
def test_command_runs_without_scipy(name, tmp_path):
    code = (
        "import json, sys; from mop_trees.cli import main\n"
        "assert main(json.loads(sys.argv[1])) == 0\n"
        "sys.exit(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy') or None)"
    )
    assert _python(code, json.dumps(GOLDEN_COMMANDS[name]), cwd=tmp_path) == 0


@pytest.mark.parametrize("system", ["ang_u", "nik_u"])
def test_verify_all_runs_without_scipy(system):
    # the signature self-adjointness check reads W, sigma and S, not sparse products
    code = (
        "import sys; from mop_trees.cli import main\n"
        "assert main(['verify', 'all', '--system', sys.argv[1]]) == 0\n"
        "sys.exit(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy') or None)"
    )
    assert _python(code, str(ROOT / "demos" / "systems" / f"{system}.json")) == 0


def test_eigenfunction_residuals_run_without_scipy():
    # apply sums the operator's own entries; only the LU oracles build a CSR matrix
    code = (
        "import sys, mop_trees.cli\n"
        "from mop_trees import tree_jacobi as tj\n"
        "ang = mop_trees.cli.load_system(sys.argv[1])['sys']\n"
        "finite, cayley = tj.assemble_finite(ang, (0.3, 0.7), (2, 1)), tj.assemble_truncated(ang, (0.3, 0.7), 4)\n"
        "assert tj.eigenfunction_residual(finite, 'p', 0.4 + 0.2j) < 1e-12\n"
        "assert tj.eigenfunction_residual(cayley, 'l', 5.0) < 1e-12\n"
        "assert tj.eigenfunction_residual(cayley, 'lambda_commutator', 5.0, X=1, kl=(2, 1)) < 1e-12\n"
        "raw, markov_route = tj.root_boundary_gap(cayley, 5.0)\n"
        "assert abs(raw - markov_route) < 1e-10\n"
        "sys.exit(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy') or None)"
    )
    assert _python(code, SYSTEM) == 0


def test_spectral_moments_leave_scipy_integrate_unloaded():
    # the masses and moments run on quadrature.qags: importing scipy.integrate
    # alone cost about 0.5 s in each process that asked for a mass
    code = (
        "import sys, mop_trees.cli\n"
        "from mop_trees.angelesco import rho_o, rho_sub\n"
        "asys = mop_trees.cli.load_system(sys.argv[1])['asys']\n"
        "for rep in (rho_o(asys, (0.5, 0.5)), rho_sub(asys, (1, 2))):\n"
        "    rep.total_mass(), rep.first_moment(), rep.profile(20)\n"
        "sys.exit('scipy.integrate' in sys.modules)"
    )
    assert _python(code, SYSTEM) == 0


@pytest.mark.parametrize(
    "name, rules",
    [
        ("mop-coeffs", 0), ("tree-spectrum", 0), ("tree-svec", 0), ("angelesco-dos-profile", 0),
        ("periodic-raylimit", 0), ("angelesco-green", 0), ("angelesco-rho", 0),
    ],
)
def test_mp_rule_is_built_only_for_a_transform(name, rules, tmp_path):
    # the uniform moments are exact rationals and the mp Markov function of a
    # uniform piece is its closed form, so no command on ang_u builds the mp
    # Gauss-Legendre rule (an mp transform with a polynomial weight still would)
    code = (
        "import json, sys; from mop_trees import quadrature; from mop_trees.cli import main\n"
        "assert main(json.loads(sys.argv[1])) == 0\n"
        "sys.exit(len(quadrature._GAUSS_MP_CACHE))"
    )
    assert _python(code, json.dumps(GOLDEN_COMMANDS[name]), cwd=tmp_path) == rules


def test_golden_set_is_covered():
    assert sorted(p.name for p in GOLDENS.iterdir()) == sorted(GOLDEN_COMMANDS)


def _check_golden(name, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(list(GOLDEN_COMMANDS[name]))
    outputs = {"stdout": capsys.readouterr().out.encode()}
    outputs.update((p.name, p.read_bytes()) for p in tmp_path.iterdir())
    expected = {p.name: p.read_bytes() for p in (GOLDENS / name).iterdir()}
    assert code == 0
    assert outputs == expected


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_output(name, capsys, tmp_path, monkeypatch):
    _check_golden(name, capsys, tmp_path, monkeypatch)


@pytest.mark.parametrize("ambient", [24, 1024])
@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_output_ignores_ambient_precision(name, ambient, capsys, tmp_path, monkeypatch):
    # a library caller's mp.prec must not reach the printed results: in-process,
    # main runs under whatever precision the caller has set
    with workprec(ambient):
        _check_golden(name, capsys, tmp_path, monkeypatch)


class TestOutputFiles:
    """``--out`` on a JSON command, the point-mass sidecar of a CSV profile and
    the profile that ``angelesco rho --grid`` adds."""

    def test_out_writes_the_document_and_prints_nothing(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        assert main([*GOLDEN_COMMANDS["angelesco-rho"], "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == (GOLDENS / "angelesco-rho" / "stdout").read_bytes()

    def test_dos_profile_writes_the_point_masses_beside_the_csv(self, capsys, tmp_path):
        out = tmp_path / "r.csv"
        argv = ["angelesco", "dos-profile", "--system", SYSTEM, "--kappa", "0.5,0.5", "--grid", "20", "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().out == "wrote 20 points\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.csv.masses.json"]
        doc = json.loads((tmp_path / "r.csv.masses.json").read_text())
        assert doc == {"schema": "mop-trees/1", "point_masses": [[3.4383874549607746e-16, 0.9241962407460547]]}

    def test_rho_grid_adds_a_profile(self, capsys):
        code, out = run(capsys, "angelesco", "rho", "--system", SYSTEM, "--kappa", "0.5,0.5", "--grid", "4")
        assert code == 0
        xs = [x for x, _ in json.loads(out)["profile"]]
        assert len(xs) == 4 and xs == sorted(xs)
        assert sum(-2 < x < -1 for x in xs) == 2 and sum(1 < x < 2 for x in xs) == 2
