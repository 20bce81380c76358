"""Tests of the benchmark's own checks: each must pass correct output and
reject wrong output.

    python3 -m pytest bench/test_checks.py -q
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from memdiff import cli  # noqa: E402
from run import call  # noqa: E402

GOLDEN = workloads.Op("scalar-curve", 1.0, 1.0, 0.5, -1.0, tmax=5.0,
                      points=64, method="series")


def output(op: workloads.Op) -> str:
    code, out, err = call(cli.main, op.argv())
    assert code == 0, err
    return out


@pytest.fixture(scope="module")
def golden_reference():
    return reference.op_reference(GOLDEN)


@pytest.mark.parametrize("method", ["series", "laplace"])
def test_curve_check_rejects_reference_perturbed_by_1e_6(golden_reference,
                                                         method):
    op = replace(GOLDEN, method=method)
    out = output(op)
    assert None not in golden_reference
    assert checks.check_curve(out, op.times(), golden_reference, method) is None
    for i in (1, 31, 63):
        bent = list(golden_reference)
        bent[i] += 1e-6
        assert checks.check_curve(out, op.times(), bent, method) is not None


def test_curve_check_rejects_malformed_output(golden_reference):
    out = output(GOLDEN)
    times = GOLDEN.times()
    assert checks.check_curve(out, times, golden_reference, "laplace")
    assert checks.check_curve(out.replace("\n", "\r\n"), times,
                              golden_reference, "series")
    dropped = "".join(out.splitlines(keepends=True)[:-1])
    assert checks.check_curve(dropped, times, golden_reference, "series")


def test_curve_check_rejects_stiff_contour_output():
    op = workloads.Op("scalar-curve", points=workloads.CURVE_POINTS,
                      **workloads.STIFF_CONTOUR)
    out = output(op)  # exit code 0: the contour fails silently
    ref = reference.op_reference(op)
    assert sum(v is not None for v in ref) > len(ref) // 2
    assert checks.check_curve(out, op.times(), ref, "laplace") is not None


def test_norm_check():
    op = workloads.build("norm-curve", 1)[1]
    out = output(op)
    ref = reference.op_reference(op)
    assert checks.check_norm(out, op.times(), ref) is None
    bent = list(ref)
    bent[4] += 1e-3
    assert checks.check_norm(out, op.times(), bent) is not None
    lines = out.split("\n")
    lines[1] = "0,0.99999,volterra"
    assert checks.check_norm("\n".join(lines), op.times(), ref) is not None


@pytest.fixture(scope="module")
def golden_report():
    code, out, err = call(cli.main, ["verify", "-a", "1", "-b", "1", "-m",
                                     "0.5", "-r", "-1"])
    assert code == 0, err
    return json.loads(out)


def verdict(report: dict) -> str | None:
    return checks.check_verify(json.dumps(report), 1.0, 1.0, 0.5, -1.0)


def test_verify_check_accepts_report_with_added_fields(golden_report):
    assert verdict(golden_report) is None
    extended = dict(golden_report, schema_version=2,
                    diagnostics={"excluded": [], "timings": {"series": 0.1}})
    assert verdict(extended) is None


@pytest.mark.parametrize("rate", [-0.5, -1.1, 0.0, None])
def test_verify_check_rejects_wrong_theoretical_rate(golden_report, rate):
    assert verdict(dict(golden_report, theoretical_rate=rate)) is not None


def test_verify_check_rejects_broken_properties(golden_report):
    assert verdict(dict(golden_report, fitted_rate=-0.9)) is not None
    lemmas = dict(golden_report["lemma_violations"], arg_h_tilde=3)
    assert verdict(dict(golden_report, lemma_violations=lemmas)) is not None
    devs = dict(golden_report["deviations"], volterra_laplace=2e-4)
    assert verdict(dict(golden_report, deviations=devs)) is not None
    assert verdict({"schema_version": 1}) is not None


def test_theoretical_rate_follows_the_paper():
    assert checks.theoretical_rate(1.0, 1.0, 0.5, -1.0) == -1.0
    assert checks.theoretical_rate(-0.2, 1.0, 0.5, -1.0) == pytest.approx(
        -(1.0 - 0.2 ** (2.0 / 3.0)))
    assert checks.theoretical_rate(1.0, 2.0, 0.5, -1.0) is None


def test_rounds_do_not_depend_on_the_process():
    probe = ("import sys; sys.path.insert(0, 'bench'); import workloads; "
             "print([workloads.build(w, 7) for w in workloads.WORKLOADS])")
    outs = {subprocess.run([sys.executable, "-c", probe], cwd=HERE.parent,
                           env=dict(os.environ, PYTHONHASHSEED=str(h)),
                           capture_output=True, text=True, check=True).stdout
            for h in range(8)}
    assert len(outs) == 1


def test_failing_operations_do_not_depend_on_the_seed():
    for workload in workloads.WORKLOADS:
        rounds = [workloads.build(workload, seed) for seed in range(1, 6)]
        assert rounds[0] == workloads.build(workload, 1)
        faults = [sorted(repr(op) for op in ops if op.fault) for ops in rounds]
        assert all(f == faults[0] for f in faults)
        assert all(len(ops) == len(rounds[0]) for ops in rounds)
