import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import memdiff
from memdiff import (ConvergenceError, HypothesisError, KernelParams,
                     ScalarProblem, series_S, verify_problem)
from memdiff import cli
from memdiff.cli import main
from conftest import HUGE_K


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


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter, for what one process cannot show.  The child
    imports the memdiff that this process imported."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(memdiff.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def run_cli_process(*args: str) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter."""
    return run_python("-m", "memdiff.cli", *args)


GOLDEN = ("--alpha", "1", "--beta", "3", "--mu", "1", "--rho", "-1")


NORM = ("--alpha", "1", "--beta", "0.5", "--mu", "0.5", "--tmax", "1",
        "--points", "3")

# Kernels past the float range: the factor alpha beta^-mu (beta > 0) and a
# table value alpha t^mu / Gamma(mu+1) (beta = 0).
OVERFLOW_FACTOR = ("-a", "1e300", "-b", "1e-9", "-m", "0.999999")
OVERFLOW_TABLE = ("-a", "1e308", "-b", "0", "-m", "1")

# Stands for a path whose directory does not exist.
MISSING = object()


@pytest.mark.parametrize("argv, code, prefix", [
    (("scalar-curve", *GOLDEN, "--tmax", "0"), 64, "--tmax must be > 0"),
    (("scalar-curve", *GOLDEN, "--points", "1"), 64, "--points must be >= 2"),
    (("norm-curve", *NORM, "--modes", "0"), 64, "n_modes must be >= 1"),
    (("scalar-curve", *GOLDEN, "--method", "volterra", "--dt", "0"), 64,
     "dt must be finite and > 0"),
    (("scalar-curve", *GOLDEN, "--method", "volterra", "--dt", "nan"), 64,
     "dt must be finite and > 0"),
    (("scalar-curve", *GOLDEN, "--points", "101", "--method", "volterra",
      "--dt", "-1"), 64, "dt must be finite and > 0"),
    (("scalar-curve", *GOLDEN, "--method", "volterra", "--dt", "inf"), 64,
     "dt must be finite and > 0"),
    (("norm-curve", *NORM, "--modes", "2", "--dt", "0"), 64,
     "dt must be finite and > 0"),
    (("verify", *GOLDEN, "--points", "3", "--dt", "0"), 64,
     "dt must be finite and > 0"),
    # t^(mu+1) overflows: a typed ConvergenceError, not an OverflowError
    (("scalar-curve", "-a", "1", "-b", "0", "-m", "0.5", "-r", "-1",
      "--tmax", "1e300", "--points", "3"), 2, "t=5e+299: "),
    # horizons whose Volterra step count exceeds its bound
    (("scalar-curve", "-a", "1", "-b", "0", "-m", "0.5", "-r", "-1",
      "--method", "volterra", "--tmax", "1e200"), 64, "dt = 0.0025 needs"),
    (("verify", "-a", "1", "-b", "0", "-m", "0.5", "-r", "-1",
      "--tmax", "1e9", "--points", "2"), 64, "dt = 0.0025 needs"),
    (("verify", *GOLDEN, "--points", "3", "--seed", "-1"), 64,
     "seed must be >= 0"),
    (("verify", *GOLDEN, "--points", "3", "--tol", "nan"), 64,
     "tol must be finite and > 0"),
    (("verify", *GOLDEN, "--points", "3", "--tol", "-1"), 64,
     "tol must be finite and > 0"),
    (("verify", *GOLDEN, "--points", "3", "--tol", "inf"), 64,
     "tol must be finite and > 0"),
    # an --out in a directory that does not exist
    (("scalar-curve", *GOLDEN, "--points", "3", "--out", MISSING), 64,
     "[Errno 2] No such file or directory"),
    (("norm-curve", *NORM, "--modes", "2", "--out", MISSING), 64,
     "[Errno 2] No such file or directory"),
    (("verify", *GOLDEN, "--points", "3", "--out", MISSING), 64,
     "[Errno 2] No such file or directory"),
    # an eigenvalue (pi / L)^2 past the float range
    (("norm-curve", *NORM, "--length", "1e-200"), 64,
     "eigenvalue 16 of length 1e-200 is not a finite float"),
    # a batch of 17 modes at the Volterra step bound
    (("norm-curve", *NORM, "--modes", "17", "--dt", "1e-6"), 64,
     "17 rows of 1000001 nodes exceed the batch bound"),
    # a grid past what memory holds
    (("scalar-curve", *GOLDEN, "--points", "1000000000000"), 64,
     "--points 1000000000000 is more than memory can hold"),
    (("norm-curve", *NORM[:6], "--points", "1000000000000"), 64,
     "--points 1000000000000 is more than memory can hold"),
    (("verify", *GOLDEN, "--points", "1000000000000"), 64,
     "--points 1000000000000 is more than memory can hold"),
    # beta^-mu of the Volterra kernel past the float range
    (("scalar-curve", "-a", "1", "-b", "5e-324", "-m", "1", "-r", "-1",
      "--points", "3", "--method", "volterra"), 64,
     "the kernel's factor beta^-mu is not a finite float"),
    (("norm-curve", "-a", "1", "-b", "5e-324", "-m", "1", "--points", "3"),
     64, "the kernel's factor beta^-mu is not a finite float"),
    (("verify", "-a", "1", "-b", "5e-324", "-m", "1", "-r", "-1",
      "--points", "3"), 64,
     "the kernel's factor beta^-mu is not a finite float"),
    # the lemma suite's moduli (2|alpha|)^(1/mu) past the float range
    (("verify", "-a", "1", "-b", "0", "-m", "0.0005", "-r", "-1",
      "--points", "3"), 2, "arg_h_tilde: 10000 of 10000 sampled margins are "
     "not finite"),
    # alpha omega past the float range: no finite decay envelope
    (("classify", "-a=-1e10", "-b", "1e300", "-m", "0.5", "-w=-1e300"), 64,
     "alpha * omega is not a finite float"),
    # contour nodes radius / t past the float range: the sum is not finite
    (("scalar-curve", "-a", "1", "-b", "0.5", "-m", "0.5", "-r", "-1",
      "--tmax", "1e-320", "--points", "3", "--method", "laplace"), 2,
     "contour sum is not finite at t=5e-321"),
    # the contour radius 2(|rho| + beta) past the float range
    (("scalar-curve", "-a", "1", "-b", "1e308", "-m", "0.5", "-r", "-1",
      "--points", "3", "--method", "laplace"), 2,
     "the contour radius 2(|rho| + beta) is not a finite float"),
    (("verify", "-a", "1", "-b", "1e308", "-m", "0.5", "-r", "-1",
      "--points", "3"), 2,
     "the contour radius 2(|rho| + beta) is not a finite float"),
    # k + n + 1.0 is not exact past 2**53
    *((("eval-ml", "-m", "0.5", "-k", str(k), "--z", "-1"), 64,
       "k must be < 2**53") for k in HUGE_K),
    # a contour node count that is odd or out of [16, 256], refused before
    # the contour radius is computed
    *((("scalar-curve", "-a", "1", "-b", beta, "-m", "0.5", "-r", "-1",
        "--points", "3", "--method", "laplace", "--nodes", nodes), 64,
       f"n_nodes must be even and in [16, 256], got {nodes}\n")
      for beta, nodes in [("1", "15"), ("1", "14"), ("1", "512"),
                          ("1e308", "15")]),
    # the kernel's factor alpha beta^-mu past the float range
    (("scalar-curve", *OVERFLOW_FACTOR, "-r", "-1", "--tmax", "0.5",
      "--points", "3", "--method", "volterra"), 64,
     "the kernel's factor alpha*beta^-mu is not a finite float"),
    (("norm-curve", *OVERFLOW_FACTOR, "--tmax", "0.5", "--points", "3",
      "--modes", "3"), 64,
     "the kernel's factor alpha*beta^-mu is not a finite float"),
    (("verify", *OVERFLOW_FACTOR, "-r", "-1", "--tmax", "0.5", "--points",
      "3"), 64, "the kernel's factor alpha*beta^-mu is not a finite float"),
    # a beta = 0 kernel table value alpha t^mu / Gamma(mu+1) past it
    (("scalar-curve", *OVERFLOW_TABLE, "-r", "-1", "--tmax", "5",
      "--points", "3", "--method", "volterra"), 64,
     "the kernel's table value alpha t^mu / Gamma(mu+1) is not a finite "
     "float at t=1.8"),
    (("norm-curve", *OVERFLOW_TABLE, "--tmax", "5", "--points", "3",
      "--modes", "3"), 64,
     "the kernel's table value alpha t^mu / Gamma(mu+1) is not a finite "
     "float at t=1.8"),
    (("verify", *OVERFLOW_TABLE, "-r", "-1", "--tmax", "5", "--points", "3"),
     64, "the kernel's table value alpha t^mu / Gamma(mu+1) is not a finite "
     "float at t=1.8"),
], ids=["tmax-0", "points-1", "modes-0", "dt-0", "dt-nan", "dt-negative",
        "dt-inf", "norm-curve-dt-0", "verify-dt-0", "series-tmax-1e300",
        "volterra-tmax-1e200", "verify-tmax-1e9", "verify-seed-negative",
        "verify-tol-nan", "verify-tol-negative", "verify-tol-inf",
        "scalar-curve-out-missing", "norm-curve-out-missing",
        "verify-out-missing", "norm-curve-length-1e-200",
        "norm-curve-batch-bound",
        "scalar-curve-points-1e12", "norm-curve-points-1e12",
        "verify-points-1e12", "scalar-curve-beta-5e-324",
        "norm-curve-beta-5e-324", "verify-beta-5e-324", "verify-mu-5e-4",
        "classify-alpha-omega-1e310", "laplace-tmax-1e-320",
        "laplace-beta-1e308", "verify-beta-1e308",
        *(f"eval-ml-k-{k}" for k in HUGE_K),
        "laplace-nodes-15", "laplace-nodes-14", "laplace-nodes-512",
        "laplace-nodes-15-beta-1e308", "scalar-curve-kernel-factor-inf",
        "norm-curve-kernel-factor-inf", "verify-kernel-factor-inf",
        "scalar-curve-kernel-table-inf", "norm-curve-kernel-table-inf",
        "verify-kernel-table-inf"])
def test_rejected_input_is_one_line_on_stderr(argv, code, prefix, tmp_path):
    missing = str(tmp_path / "missing" / "out")
    cp = run_cli(*(missing if a is MISSING else a for a in argv))
    assert cp.returncode == code
    assert cp.stdout == ""
    assert cp.stderr.startswith(f"memdiff: {prefix}")
    assert cp.stderr.count("\n") == 1
    assert "Traceback" not in cp.stderr


@pytest.mark.parametrize("argv", [
    # beta^-mu = 1e-180: the memory is too small to move S_1 = e^{-t}
    ("norm-curve", "-a", "1", "-b", "1e200", "-m", "0.9", "--modes", "4",
     "--tmax", "1", "--points", "3"),
    # beta t past the float range, where P(mu, beta t) is 1
    ("scalar-curve", "-a", "1", "-b", "1e308", "-m", "0.5", "-r", "-1",
     "--points", "3", "--method", "volterra"),
], ids=["norm-curve-shared-kernel-table", "scalar-curve-beta-1e308"])
def test_vanishing_memory_leaves_exp_minus_t(argv):
    cp = run_cli(*argv)
    assert cp.returncode == 0, cp.stderr
    assert cp.stderr == ""
    rows = np.array([[float(x) for x in line.split(",")[:2]]
                     for line in cp.stdout.splitlines()[1:]])
    assert np.max(np.abs(rows[:, 1] - np.exp(-rows[:, 0]))) <= 1e-4


def test_mu_near_zero_damped_kernel_is_the_bare_one():
    # At mu = 1e-310 the incomplete gamma's series passes the float range;
    # P is 1, so both kernels are 1 + alpha for t > 0 and the curves agree.
    argv = ("scalar-curve", "-a", "1", "-m", "1e-310", "-r", "-1", "--tmax",
            "0.5", "--points", "3", "--method", "volterra")
    damped, bare = run_cli(*argv, "-b", "0.5"), run_cli(*argv, "-b", "0")
    assert (damped.returncode, damped.stderr) == (0, "")
    assert damped.stdout == bare.stdout
    assert bare.stdout.count("\n") == 4


@pytest.mark.parametrize("command", ["scalar-curve", "norm-curve", "verify"])
def test_refusal_comes_before_grid_errors(command):
    """An unsupported regime is refused (exit 3) before a bad grid is
    reported (exit 64), on every command."""
    rho = () if command == "norm-curve" else ("-r", "-1")
    cp = run_cli(command, "-a", "-1", "-b", "1", "-m", "0.5", *rho,
                 "--tmax", "0")
    assert cp.returncode == 3
    assert cp.stdout == ""
    assert cp.stderr.startswith(
        "unsupported regime (alpha=-1.0, beta=1.0, mu=0.5)")
    assert cp.stderr.count("\n") == 1


def test_admissibility_boundary_is_computed_and_past_it_refused():
    """alpha = -beta^mu / 2 is the last supported negative alpha; the next
    float below it is refused."""
    argv = ("-b", "1", "-m", "0.5", "-r", "-1", "--tmax", "2", "--points", "5")
    cp = run_cli("scalar-curve", "-a", "-0.5", *argv)
    assert cp.returncode == 0, cp.stderr
    cp = run_cli("scalar-curve", "-a", "-0.5000000000000001", *argv)
    assert cp.returncode == 3
    assert cp.stdout == ""
    assert cp.stderr == ("unsupported regime (alpha=-0.5000000000000001, "
                         "beta=1.0, mu=0.5); pass --force to compute anyway\n")


def test_huge_volterra_batch_is_refused_before_it_is_built():
    """A million modes past the batch bound: refused with one line, before
    the spectral model holds a coefficient per mode."""
    tracemalloc.start()
    try:
        cp = run_cli("norm-curve", *NORM, "--modes", "1000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cp.returncode == 64
    assert cp.stdout == ""
    assert cp.stderr == ("memdiff: 1000000 rows of 201 nodes exceed the "
                         "batch bound of 16000016 floats\n")
    assert peak < 10_000_000


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

    def test_huge_k_builds_no_table_up_to_k(self):
        # the series' log-coefficients need no log-factorial table from 0!
        # up to (k + n)!
        tracemalloc.start()
        try:
            cp = run_cli("eval-ml", "--k", "10000000", "-m", "0.5", "-z", "1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cp.returncode == 0
        assert cp.stdout == "0\nterms=7\n"
        assert peak < 10_000_000

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

    @pytest.mark.parametrize("kernel", [
        ("--alpha", "0.5", "--beta", "1", "--mu", "0.3", "--rho", "-2",
         "--tmax", "3", "--points", "17"),
        ("--alpha", "1", "--beta", "0", "--mu", "0.8", "--rho", "-1",
         "--tmax", "3", "--points", "9"),
    ], ids=["beta1-mu0.3", "beta0-mu0.8"])
    def test_byte_deterministic(self, tmp_path, kernel):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli_process("scalar-curve", *kernel, "--out", str(a))
        run_cli_process("scalar-curve", *kernel, "--out", str(b))
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

    def test_stable_where_beta_power_leaves_the_float_range(self):
        # beta^(mu+1) = 1e380 overflows a float; it still exceeds
        # alpha omega = 1e200
        cp = run_cli("classify", "-a=-0.1", "-b", "1e200", "-m", "0.9",
                     "-w=-1e201")
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout.endswith("uniformly_stable: true\n")


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

    # Decay estimates need omega < 0 and beta + omega <= 0; these miss one or
    # the other.  The sha256 of (exit code, stdout, stderr) was recorded
    # before the decay checks were gated in one place.
    @pytest.mark.parametrize("argv, code, sha256", [
        (("-a", "1", "-b", "0.5", "-m", "0.5", "-r", "-1", "--omega", "2"), 0,
         "aec3f0d7bcfa8179a392df6b3a3dd6d210e226b5a3b0d2ec7b01cdf5a77bbdb4"),
        (("-a", "1", "-b", "3", "-m", "0.5", "-r", "-1"), 1,
         "4d29b28b05b40a30706959eef956525291945f8eae8a575078e77aeb640a2c52"),
    ], ids=["omega-positive", "beta-plus-omega-positive"])
    def test_no_decay_checks_where_decay_does_not_apply(self, argv, code,
                                                         sha256):
        cp = run_cli("verify", *argv)
        record = json.dumps([cp.returncode, cp.stdout, cp.stderr])
        assert cp.returncode == code, cp.stderr
        assert hashlib.sha256(record.encode()).hexdigest() == sha256
        doc = json.loads(cp.stdout)
        assert doc["theoretical_rate"] is None
        assert doc["c_min"] is None
        assert set(doc["passes"]) == {"three_way_agreement", "lemma_suites",
                                      "all"}

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

    def test_library_hypothesis_error_exits_3(self, monkeypatch):
        # No CLI input makes the library raise it, so stand one in.
        def refuse(*args):
            raise HypothesisError("decay estimates need omega < 0")
        monkeypatch.setattr(cli, "verify_problem", refuse)
        cp = run_cli("verify", *GOLDEN, "--points", "3")
        assert cp.returncode == 3
        assert cp.stdout == ""
        assert cp.stderr == "memdiff: decay estimates need omega < 0\n"

    # (alpha, beta, mu, rho, omega, tmax, points, dt, tol, seed)
    @pytest.mark.parametrize("case", [
        (1.0, 3.0, 1.0, -1.0, None, 5.0, 32, 0.0025, 1e-4, 0),
        (-0.2, 1.0, 0.5, -1.0, None, 5.0, 9, 0.0025, 1e-4, 0),
        (1.0, 0.5, 0.5, 1.0, None, 5.0, 9, 0.0025, 1e-4, 0),
        (1.0, 0.5, 0.5, -1.0, 2.0, 5.0, 9, 0.0025, 1e-4, 0),
        (1.0, 0.0, 1.0, -6.0, None, 10.0, 11, 0.0025, 1e-4, 0),
        (0.5, 1.0, 0.3, -2.0, None, 3.0, 9, 0.005, 1e-9, 3),
    ], ids=["golden", "negative-alpha", "rho-positive", "omega-positive",
            "series-exclusions", "tol-and-seed"])
    def test_library_report_is_the_cli_report(self, case):
        alpha, beta, mu, rho, omega, tmax, points, dt, tol, seed = case
        argv = ["verify", "-a", repr(alpha), "-b", repr(beta), "-m", repr(mu),
                "-r", repr(rho), "--tmax", repr(tmax), "--points",
                str(points), "--dt", repr(dt), "--tol", repr(tol), "--seed",
                str(seed)] + ([] if omega is None else ["--omega", repr(omega)])
        cp = run_cli(*argv)
        report = verify_problem(
            ScalarProblem(KernelParams(alpha, beta, mu), rho),
            np.linspace(0.0, tmax, points), dt, tol, omega, seed)
        assert cp.stdout == json.dumps(report, sort_keys=True, indent=2) + "\n"
        assert cp.returncode == (0 if report["passes"]["all"] else 1)
        assert cp.stderr == ""

    def test_missing_subcommand_exits_64(self):
        cp = run_cli()
        assert cp.returncode == 64


class TestParserBuiltOnce:
    # Different subcommands, an argparse error and --help in a row.
    ARGVS = [
        ("scalar-curve", *GOLDEN, "--tmax", "1", "--points", "5"),
        ("scalar-curve", *GOLDEN, "--points", "two"),
        ("verify", "--help"),
        ("norm-curve", *NORM, "--modes", "2"),
        ("classify", "-a", "1", "-b", "0.5", "-m", "0.5", "-w", "-1"),
    ]

    def test_one_parser_serves_calls_as_fresh_processes(self, monkeypatch):
        # --help wraps at the terminal width, so both sides get the same one
        monkeypatch.setenv("COLUMNS", "80")
        built = []
        build = cli.build_parser

        def counting_build():
            built.append(None)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        try:
            runs = [run_cli(*argv) for argv in self.ARGVS]
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert [cp.returncode for cp in runs] == [0, 64, 0, 0, 0]
        for argv, cp in zip(self.ARGVS, runs):
            fresh = run_cli_process(*argv)
            assert (cp.returncode, cp.stdout, cp.stderr) == (
                fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert cli.build_parser() is not cli.build_parser()

    def test_import_builds_no_parser(self):
        # The parser is built on the first call of main, not at import, so
        # importing memdiff.cli costs no parser.
        probe = "\n".join([
            "import argparse",
            "built = []",
            "init = argparse.ArgumentParser.__init__",
            "def counting_init(self, *args, **kwargs):",
            "    built.append(None)",
            "    init(self, *args, **kwargs)",
            "argparse.ArgumentParser.__init__ = counting_init",
            "import memdiff.cli",
            "print(len(built))",
            "memdiff.cli.main(['classify', '-a', '1', '-b', '0.5', '-m', "
            "'0.5', '-w', '-1'])",
            "print(len(built))",
        ])
        cp = run_python("-c", probe)
        assert cp.returncode == 0, cp.stderr
        lines = cp.stdout.splitlines()
        assert lines[0] == "0"
        assert int(lines[-1]) > 0  # the count sees the parser main builds


@pytest.mark.parametrize("argv", [
    # 12,000 steps: history dots longer than the 10,000 elements past which
    # OpenBLAS splits a ddot across its threads
    ("scalar-curve", "-a", "1", "-b", "0.5", "-m", "0.5", "-r", "-1",
     "--method", "volterra", "--tmax", "60", "--points", "7", "--dt",
     "0.005"),
    # the batched loop, two rows
    ("norm-curve", "-a", "1", "-b", "0.5", "-m", "0.5", "--modes", "2",
     "--tmax", "60", "--points", "7", "--dt", "0.005"),
])
def test_volterra_output_does_not_depend_on_blas_threads(argv, monkeypatch):
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        cp = run_cli_process(*argv)
        assert cp.returncode == 0, cp.stderr
        outputs.append(cp.stdout)
    assert outputs[0] == outputs[1]
