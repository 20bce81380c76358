import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import memdiff
from memdiff import (ConvergenceError, KernelParams, ScalarProblem,
                     series_S)
from memdiff.cli import main


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``memdiff.cli.main(args)`` in this process, with its output captured
    and a ``SystemExit`` (argparse) mapped to its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(),
                                       err.getvalue())


def run_cli_process(*args: str, env_extra: dict | None = None
                    ) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, for what one process cannot show.
    The child imports the memdiff that this process imported."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(memdiff.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    cmd = [sys.executable, "-m", "memdiff.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


GOLDEN = ("--alpha", "1", "--beta", "3", "--mu", "1", "--rho", "-1")


class TestEvalML:
    def test_cosh_value(self):
        cp = run_cli("eval-ml", "--mu", "1", "--k", "0", "--z", "1")
        assert cp.returncode == 0, cp.stderr
        lines = cp.stdout.strip().splitlines()
        assert float(lines[0]) == pytest.approx(math.cosh(1.0), rel=1e-12)
        assert lines[1].startswith("terms=")

    def test_at_zero(self):
        cp = run_cli("eval-ml", "--mu", "0.5", "--k", "0", "--z", "0")
        assert cp.returncode == 0
        assert float(cp.stdout.splitlines()[0]) == 1.0

    def test_golden_value(self):
        cp = run_cli("eval-ml", "--mu", "0.5", "--k", "2", "--z", "1.5")
        assert cp.returncode == 0
        assert float(cp.stdout.splitlines()[0]) == pytest.approx(
            1.019441336305306801230853, rel=1e-12)

    def test_convergence_failure_exits_2(self):
        cp = run_cli("eval-ml", "--mu", "0.5", "--k", "0", "--z", "1e9")
        assert cp.returncode == 2
        assert cp.stderr.strip()

    def test_usage_error_exits_64(self):
        cp = run_cli("eval-ml", "--mu", "1", "--k", "0")
        assert cp.returncode == 64
        cp = run_cli("eval-ml", "--mu", "2", "--k", "0", "--z", "1")
        assert cp.returncode == 64


class TestScalarCurve:
    def test_csv_shape_and_initial_row(self, tmp_path):
        out = tmp_path / "curve.csv"
        cp = run_cli("scalar-curve", *GOLDEN, "--tmax", "2", "--points", "5",
                     "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "t,value,method"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0
        assert first[2] == "series"

    def test_golden_value_in_csv(self, tmp_path):
        out = tmp_path / "curve.csv"
        run_cli("scalar-curve", *GOLDEN, "--tmax", "1", "--points", "2",
                "--out", str(out))
        last = out.read_text().splitlines()[-1].split(",")
        assert float(last[1]) == pytest.approx(2.0 * math.exp(-2.0), abs=1e-10)

    def test_methods_agree(self, tmp_path):
        outs = {}
        for method in ("series", "volterra", "laplace"):
            path = tmp_path / f"{method}.csv"
            cp = run_cli("scalar-curve", "--alpha", "1", "--beta", "1",
                         "--mu", "0.5", "--rho", "-1", "--tmax", "4",
                         "--points", "9", "--method", method,
                         "--out", str(path))
            assert cp.returncode == 0, cp.stderr
            rows = [line.split(",") for line in
                    path.read_text().splitlines()[1:]]
            outs[method] = np.array([float(r[1]) for r in rows])
        assert np.max(np.abs(outs["series"] - outs["volterra"])) <= 1e-4
        assert np.max(np.abs(outs["series"] - outs["laplace"])) <= 1e-6

    def test_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("scalar-curve", "--alpha", "0.5", "--beta", "1", "--mu", "0.3",
                "--rho", "-2", "--tmax", "3", "--points", "17")
        run_cli_process(*args, "--out", str(a))
        run_cli_process(*args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_threads_do_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("scalar-curve", "--alpha", "1", "--beta", "0", "--mu", "0.8",
                "--rho", "-1", "--tmax", "3", "--points", "9")
        run_cli_process(*args, "--out", str(a),
                        env_extra={"MEMDIFF_THREADS": "1"})
        run_cli_process(*args, "--out", str(b),
                        env_extra={"MEMDIFF_THREADS": "4"})
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "curve.json"
        cp = run_cli("scalar-curve", *GOLDEN, "--tmax", "1", "--points", "3",
                     "--format", "json", "--out", str(out))
        assert cp.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert doc["method"] == "series"
        assert doc["value"][0] == 1.0

    def test_unsupported_regime_exits_3_unless_forced(self):
        bad = ("--alpha", "-1", "--beta", "1", "--mu", "0.5", "--rho", "-1")
        cp = run_cli("scalar-curve", *bad, "--tmax", "1", "--points", "3")
        assert cp.returncode == 3
        cp = run_cli("scalar-curve", *bad, "--tmax", "1", "--points", "3",
                     "--force")
        assert cp.returncode == 0, cp.stderr

    def test_convergence_error_exits_2(self):
        cp = run_cli("scalar-curve", "--alpha", "1", "--beta", "0", "--mu",
                     "1", "--rho", "-6", "--tmax", "10", "--points", "6")
        assert cp.returncode == 2
        assert "t=" in cp.stderr

    def test_non_finite_volterra_exits_2(self):
        cp = run_cli("scalar-curve", "-a", "1", "-b", "0", "-m", "0.5", "-r",
                     "50", "--method", "volterra", "--tmax", "20")
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert "rho=50.0" in cp.stderr and "t=" in cp.stderr

    @pytest.mark.filterwarnings("error")
    def test_non_finite_contour_sum_exits_2(self):
        cp = run_cli("scalar-curve", "-a", "1", "-b", "0.5", "-m", "0.5",
                     "-r", "-400", "--tmax", "2", "--points", "3",
                     "--method", "laplace")
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert cp.stderr == ("memdiff: contour sum is not finite at t=1.0; "
                             "the inversion is not trustworthy\n")


class TestNormCurve:
    def test_csv_starts_at_one(self, tmp_path):
        out = tmp_path / "norm.csv"
        cp = run_cli("norm-curve", "--alpha", "1", "--beta", "0.5", "--mu",
                     "0.5", "--modes", "4", "--tmax", "2", "--points", "9",
                     "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "t,value,method"
        assert float(lines[1].split(",")[1]) == 1.0
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(v > 0.0 for v in values)

    def test_single_mode_matches_scalar_route(self, tmp_path):
        norm_out = tmp_path / "norm.csv"
        scalar_out = tmp_path / "scalar.csv"
        common = ("--alpha", "1", "--beta", "0.5", "--mu", "0.5",
                  "--tmax", "2", "--points", "9", "--dt", "0.005")
        run_cli("norm-curve", *common, "--length", str(math.pi), "--modes",
                "1", "--out", str(norm_out))
        run_cli("scalar-curve", *common, "--rho", "-1", "--method",
                "volterra", "--out", str(scalar_out))
        norm_vals = [float(l.split(",")[1]) for l in
                     norm_out.read_text().splitlines()[1:]]
        scalar_vals = [float(l.split(",")[1]) for l in
                       scalar_out.read_text().splitlines()[1:]]
        assert norm_vals == [abs(v) for v in scalar_vals]

    def test_unsupported_regime_exits_3(self):
        cp = run_cli("norm-curve", "--alpha", "-1", "--beta", "1", "--mu",
                     "0.5", "--modes", "2", "--tmax", "1", "--points", "3")
        assert cp.returncode == 3


class TestClassify:
    def test_positive_alpha(self):
        cp = run_cli("classify", "-a", "1", "-b", "0.5", "-m", "0.5", "-w", "-1")
        assert cp.returncode == 0
        assert "regime: positive-alpha" in cp.stdout
        assert "rate: -0.5" in cp.stdout

    def test_negative_admissible(self):
        cp = run_cli("classify", "-a", "-0.2", "-b", "1", "-m", "0.5", "-w", "-1")
        assert cp.returncode == 0
        assert "regime: negative-alpha-admissible" in cp.stdout
        assert "-0.65800481" in cp.stdout
        assert "uniformly_stable: true" in cp.stdout

    def test_unsupported(self):
        cp = run_cli("classify", "-a", "-1", "-b", "1", "-m", "0.5", "-w", "-1")
        assert cp.returncode == 0
        assert "regime: unsupported" in cp.stdout


class TestVerify:
    def test_golden_problem_passes(self, tmp_path):
        out = tmp_path / "report.json"
        cp = run_cli("verify", "--alpha", "1", "--beta", "1", "--mu", "0.5",
                     "--rho", "-1", "--points", "17", "--out", str(out))
        assert cp.returncode == 0, cp.stdout + cp.stderr
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert set(doc["deviations"]) == {"series_volterra", "series_laplace",
                                          "volterra_laplace"}
        assert set(doc["lemma_violations"]) == {"g_bound", "arg_h", "re_power",
                                                "arg_h_tilde"}
        assert doc["passes"]["all"] is True
        assert max(doc["deviations"].values()) <= 1e-4
        assert doc["fitted_rate"] <= doc["theoretical_rate"] + 0.05

    def test_tightened_tolerance_trips_agreement_first(self, tmp_path):
        out = tmp_path / "report.json"
        cp = run_cli("verify", "--alpha", "1", "--beta", "1", "--mu", "0.5",
                     "--rho", "-1", "--points", "17", "--tol", "1e-9",
                     "--out", str(out))
        assert cp.returncode == 1
        doc = json.loads(out.read_text())
        assert doc["passes"]["three_way_agreement"] is False
        assert doc["passes"]["lemma_suites"] is True

    def test_series_exclusions_are_the_failing_points(self):
        # (rho + beta) t reaches -60: the series fails at the late times
        cp = run_cli("verify", "--alpha", "1", "--beta", "0", "--mu", "1",
                     "--rho", "-6", "--tmax", "10", "--points", "11")
        doc = json.loads(cp.stdout)
        prob = ScalarProblem(KernelParams(1.0, 0.0, 1.0), -6.0)
        ok = []
        for t in np.linspace(0.0, 10.0, 11):
            try:
                series_S(prob, float(t))
                ok.append(True)
            except ConvergenceError:
                ok.append(False)
        assert not all(ok)
        assert doc["grid"]["series_excluded_fraction"] == (
            1.0 - float(np.mean(ok)))

    def test_unsupported_regime_exits_3(self):
        cp = run_cli("verify", "--alpha", "-1", "--beta", "1", "--mu", "0.5",
                     "--rho", "-1")
        assert cp.returncode == 3

    def test_missing_subcommand_exits_64(self):
        cp = run_cli()
        assert cp.returncode == 64
