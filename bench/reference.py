"""Independent references for S(t), computed with mpmath.

S(t) is recovered from its closed-form transform

    S_hat(p) = (p+beta)^mu / ((p+beta)^mu (p - rho) - alpha rho)

by the fixed Talbot rule of Abate & Valko (2004) in multiprecision
arithmetic.  Every value is computed twice, at two working precisions with
two node counts, and kept only where the two agree to ``AGREE``; elsewhere
the reference is ``None`` and the point is not checked.  Nothing here calls
memdiff.

References are cached per workload and seed under ``bench/.refcache``.
Make them anew with

    python3 bench/reference.py --workload curve-sweep --seed 1 --fresh
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

CACHE_DIR = Path(__file__).resolve().parent / ".refcache"

# (decimal digits, Talbot nodes).  M nodes give about 0.6 M digits and the
# rule amplifies round-off by e^{2M/5}, so both fit their precision.
PRIMARY = (30, 36)
SECOND = (24, 28)
AGREE = 1e-12
VERSION = "fixed-talbot-1"


def _talbot_rule(nodes: int):
    """Nodes delta_k and weights gamma_k of f(t) ~ r/(M t) sum Re(gamma_k
    F(delta_k / t)), at the current working precision."""
    import mpmath

    r = mpmath.mpf(2 * nodes) / 5
    rule = [(r, mpmath.exp(r) / 2)]
    for k in range(1, nodes):
        theta = k * mpmath.pi / nodes
        cot = mpmath.cot(theta)
        delta = r * theta * mpmath.mpc(cot, 1)
        sigma = theta + (theta * cot - 1) * cot
        rule.append((delta, mpmath.exp(delta) * mpmath.mpc(1, sigma)))
    return r, rule


def _s_values(alpha, beta, mu, rhos, times, dps: int, nodes: int):
    """rows[j][i] = S(times[i]) for rho = rhos[j], at one precision."""
    # Imported here, so the benchmark client can read cached references
    # without loading mpmath into the process it measures.
    import mpmath

    with mpmath.workdps(dps):
        r, rule = _talbot_rule(nodes)
        a, b, m = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(mu)
        rs = [mpmath.mpf(rho) for rho in rhos]
        rows = [[mpmath.mpf(1)] * len(times) for _ in rhos]
        for i, t in enumerate(times):
            if t == 0.0:
                continue
            tt = mpmath.mpf(t)
            # (p + beta)^mu is shared by every rho at this t.
            ps = [(delta / tt, gamma) for delta, gamma in rule]
            ws = [mpmath.power(p + b, m) for p, _ in ps]
            scale = r / (nodes * tt)
            for j, rho in enumerate(rs):
                ar = a * rho
                total = mpmath.mpf(0)
                for (p, gamma), w in zip(ps, ws):
                    total += (gamma * w / (w * (p - rho) - ar)).real
                rows[j][i] = scale * total
    return rows


def certified(alpha, beta, mu, rhos, times) -> list[list[float | None]]:
    """S(t) for each rho at each t, or None where the precisions disagree."""
    hi = _s_values(alpha, beta, mu, rhos, times, *PRIMARY)
    lo = _s_values(alpha, beta, mu, rhos, times, *SECOND)
    out = []
    for row_hi, row_lo in zip(hi, lo):
        out.append([float(x) if abs(x - y) <= AGREE * max(1, abs(x)) else None
                    for x, y in zip(row_hi, row_lo)])
    return out


def norm_rhos(modes: int = workloads.NORM_MODES,
              length: float = workloads.NORM_LENGTH) -> list[float]:
    """rho_n = -lambda_n of the interval Dirichlet Laplacian, in doubles."""
    return [-((n * math.pi / length) ** 2) for n in range(1, modes + 1)]


def op_reference(op: workloads.Op) -> list[float | None]:
    """Reference values on ``op``'s output grid: S(t) for scalar-curve,
    max_n |S_n(t)| for norm-curve."""
    times = op.times()
    if op.command == "scalar-curve":
        return certified(op.alpha, op.beta, op.mu, [op.rho], times)[0]
    if op.command == "norm-curve":
        rows = certified(op.alpha, op.beta, op.mu, norm_rhos(), times)
        return [None if any(v is None for v in col)
                else max(abs(v) for v in col) for col in zip(*rows)]
    raise ValueError(f"no mpmath reference for {op.command!r}")


def needs_references(workload: str) -> bool:
    return workload != "verify-golden"


def cache_path(workload: str, seed: int, ops: list[workloads.Op]) -> Path:
    spec = json.dumps([VERSION, PRIMARY, SECOND, AGREE,
                       [asdict(op) for op in ops]], sort_keys=True)
    digest = hashlib.sha256(spec.encode()).hexdigest()[:16]
    return CACHE_DIR / f"{workload}-{seed}-{digest}.json"


def ensure(workload: str, seed: int, fresh: bool = False) -> Path:
    """Compute the references of one round unless they are cached."""
    ops = workloads.build(workload, seed)
    path = cache_path(workload, seed, ops)
    if fresh or not path.is_file():
        refs = [op_reference(op) for op in ops]
        CACHE_DIR.mkdir(exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(refs))
        tmp.replace(path)
    return path


def load(workload: str, seed: int) -> list[list[float | None]]:
    return json.loads(cache_path(workload, seed,
                                 workloads.build(workload, seed)).read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w for w in workloads.WORKLOADS
                                 if needs_references(w)])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--fresh", action="store_true",
                        help="recompute even when cached")
    args = parser.parse_args(argv)
    path = ensure(args.workload, args.seed, args.fresh)
    refs = json.loads(path.read_text())
    kept = sum(v is not None for row in refs for v in row)
    total = sum(len(row) for row in refs)
    print(f"{path.name}: {kept} of {total} reference points certified",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
