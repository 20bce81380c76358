"""memdiff benchmark.

    python3 bench/run.py --workload verify-golden --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout.  One single-threaded closed-loop
client calls ``memdiff.cli.main(argv)`` in this process, one operation at a
time, repeating the workload's seeded round of operations until ``--seconds``
have been spent on operations (the round in progress is finished).  Every
output is checked.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, which holds the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 11

# One client thread and nothing else: the thread pool option of the CLI
# stays unset and OpenBLAS starts no worker threads.
os.environ.pop("MEMDIFF_THREADS", None)
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


def measure_setup(count: int) -> list[float]:
    """Wall times from spawning a fresh interpreter to memdiff.cli imported,
    for ``count`` interpreters.  CLOCK_MONOTONIC is shared by all processes,
    so the child reports the instant it is ready."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    probe = "import memdiff.cli, time; print(repr(time.monotonic()))"
    samples = []
    for _ in range(count):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=60)
        samples.append(float(done.stdout.split()[-1]) - start)
    return samples


def clear_caches(memdiff) -> None:
    """Empty every module-level cache of memdiff, as a fresh process has
    them: dicts and lists named *CACHE* and functools caches."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("memdiff"):
            continue
        for name, value in vars(module).items():
            if "CACHE" in name and hasattr(value, "clear"):
                value.clear()
            elif hasattr(value, "cache_clear"):
                value.cache_clear()


def check(op: workloads.Op, code, out: str, ref) -> str | None:
    if code != 0:
        return f"exit code {code!r}"
    if op.command == "verify":
        return checks.check_verify(out, op.alpha, op.beta, op.mu, op.rho)
    if op.command == "norm-curve":
        return checks.check_norm(out, op.times(), ref)
    return checks.check_curve(out, op.times(), ref, op.method)


def call(main, argv):
    """Run one CLI invocation; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an uncaught error is a failed operation
            code = f"uncaught {exc!r}"
    return code, out.getvalue(), err.getvalue()


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="memdiff benchmark")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "memdiff" / "cli.py").is_file():
        print(f"bench: no memdiff sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    ops = workloads.build(args.workload, args.seed)
    refs = [None] * len(ops)
    if reference.needs_references(args.workload):
        # A child process, so mpmath never enters this process's memory.
        subprocess.run([sys.executable, str(HERE / "reference.py"),
                        "--workload", args.workload, "--seed", str(args.seed)],
                       check=True, timeout=150)
        refs = reference.load(args.workload, args.seed)
    # Set-up samples are spread over the run (three now, one after each
    # round, the rest at the end), so a slow spell of the host does not
    # hold all of them.
    setup = [] if args.trace else measure_setup(3)

    sys.path.insert(0, str(SRC))
    import memdiff
    from memdiff import cli
    tracer = None
    if args.trace:
        from tracing import METRICS, Tracer
        tracer = Tracer(memdiff)
        entry = tracer.entry(cli.main)

    fresh_round = args.workload == "curve-sweep"
    # (round, operation index, seconds, passed) of every untraced operation
    samples = []
    ok_times = []  # seconds of every passing untraced operation
    round_times = {False: [], True: []}
    attempted = failed = bytes_out = 0
    unexpected = []
    elapsed = 0.0
    rounds = 0
    while elapsed < args.seconds or (tracer and rounds < 2):
        # A traced run alternates untraced and traced rounds; the difference
        # of their times is the tracing overhead.
        traced = tracer is not None and rounds % 2 == 1
        if fresh_round:
            clear_caches(memdiff)
        if traced:
            tracer.install()
        round_time = 0.0
        for i, op in enumerate(ops):
            if traced:
                tracer.op_id = rounds * len(ops) + i
            start = time.perf_counter()
            code, out, err = call(entry if traced else cli.main, op.argv())
            seconds = time.perf_counter() - start
            round_time += seconds
            reason = check(op, code, out, refs[i])
            attempted += 1
            if traced:
                bytes_out += len(out.encode())
            else:
                samples.append((rounds, i, seconds, reason is None))
            if reason is None:
                if not traced:
                    ok_times.append(seconds)
                continue
            failed += 1
            if op.fault is None:
                unexpected.append(f"{' '.join(op.argv())}: {reason} {err.strip()}")
        if traced:
            tracer.uninstall()
        round_times[traced].append(round_time)
        if 0 < len(setup) < SETUP_SAMPLES:
            setup += measure_setup(1)
        elapsed += round_time
        rounds += 1

    for line in unexpected[:10]:
        print(f"bench: unexpected failure: {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds of "
          f"{len(ops)} operations, {attempted} attempted, {failed} failed")

    OUT_DIR.mkdir(exist_ok=True)
    run_name = f"{args.workload}-{args.seed}"
    if tracer:
        metrics = tracer.metrics(len(round_times[True]), bytes_out)
        units = METRICS
        overhead = (statistics.median(round_times[True])
                    - statistics.median(round_times[False]))
        print(f"tracing overhead: {overhead * 1e3:.1f} ms per round "
              f"({overhead / statistics.median(round_times[False]):.1%})")
        trace_path = OUT_DIR / f"trace-{run_name}.jsonl"
        tracer.write(trace_path)
        print(f"spans: {trace_path.relative_to(ROOT)}")
    else:
        setup += measure_setup(SETUP_SAMPLES - len(setup))
        metrics = {
            "setup_s": statistics.median(setup),
            "ok_ops_per_s": len(ok_times) / sum(round_times[False]),
            "op_p50_ms": statistics.median(ok_times) * 1e3,
            "op_p90_ms": percentile(ok_times, 90) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "ok_ops_per_s": "1/s", "op_p50_ms": "ms",
                 "op_p90_ms": "ms", "peak_rss_mb": "MB"}
        print(f"passing operations timed: {len(ok_times)}")
        (OUT_DIR / f"samples-{run_name}.json").write_text(json.dumps(
            {"setup_s": setup, "operations": samples}))
    for name, value in metrics.items():
        print(f"{name:28s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
