"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the entry functions of each memdiff module with
timing wrappers, in every namespace that calls them: a name bound by
``from ... import`` is wrapped where it is bound.  ``uninstall`` puts the
originals back, so untraced work runs the program untouched.

Calls at layer boundaries become spans (layer, name, start, end, parent,
operation id) kept in memory and written out at the end.  The innermost
calls (Mittag-Leffler terms, coefficient fills, incomplete gamma, the kernel
table, the symbols) run up to 10^4 times per operation, so they are not
recorded one by one: their time and counts are added to the enclosing span
and to the layer totals.  A layer's self time is its span time minus the time
of the calls it made into other wrapped functions.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Per-layer metrics, in the order they are reported.  Counts are exact for a
# round; times are seconds per round.
METRICS = {
    "special.ml_evals": "count", "special.ml_terms": "count",
    "special.coeff_fill_s": "s", "special.coeff_cache_floats": "count",
    "special.incgamma_evals": "count", "special.incgamma_s": "s",
    "resolvent.points": "count", "resolvent.raised": "count",
    "resolvent.self_s": "s",
    "volterra.solves": "count", "volterra.steps": "count",
    "volterra.kernel_evals": "count", "volterra.history_macs": "count",
    "volterra.kernel_s": "s", "volterra.march_s": "s",
    "inversion.points": "count", "inversion.nodes": "count",
    "inversion.raised": "count", "inversion.self_s": "s",
    "symbols.lams": "count", "symbols.self_s": "s",
    "spectral.modes": "count", "spectral.self_s": "s",
    "stability.lemma_samples": "count", "stability.self_s": "s",
    "cli.self_s": "s", "cli.bytes_out": "bytes",
}


@dataclass(frozen=True)
class Hook:
    """How one wrapped function is traced: the layer its self time is
    charged to, whether each call is a span, the metric its inclusive time
    feeds, and what it counts."""

    layer: str
    span: bool = True
    timer: str | None = None
    count: Callable | None = None  # (totals, args, kwargs, result, raised)


def _n_steps(totals, args, kwargs, result, raised):
    n = args[2]
    totals["volterra.solves"] += 1
    totals["volterra.steps"] += n
    totals["volterra.history_macs"] += n * (n - 1) // 2


def _ml(totals, args, kwargs, result, raised):
    totals["special.ml_evals"] += 1
    if not raised:
        totals["special.ml_terms"] += result[2]


def _counter(name: str, raised_name: str | None = None):
    def count(totals, args, kwargs, result, raised):
        totals[name] += 1
        if raised and raised_name:
            totals[raised_name] += 1
    return count


def _lams(totals, args, kwargs, result, raised):
    totals["symbols.lams"] += int(np.size(args[1]))


def _invert_point(inversion):
    def count(totals, args, kwargs, result, raised):
        cfg = args[2] if len(args) > 2 else kwargs.get(
            "cfg", inversion.DEFAULT_INVERSION_CONFIG)
        totals["inversion.points"] += 1
        totals["inversion.nodes"] += cfg.n_nodes
        if raised:
            totals["inversion.raised"] += 1
    return count


def _lemma_samples(totals, args, kwargs, result, raised):
    if not raised:
        totals["stability.lemma_samples"] += sum(c.n_samples for c in result.checks)


def _hooks(memdiff) -> dict[tuple[object, str], Hook]:
    """(module, attribute) -> Hook for every entry point a workload reaches."""
    cli, special, resolvent = memdiff.cli, memdiff.special, memdiff.resolvent
    volterra, inversion = memdiff.volterra, memdiff.inversion
    spectral, stability = memdiff.spectral, memdiff.stability
    ml = Hook("special", span=False, count=_ml)
    coeffs = Hook("special", span=False, timer="special.coeff_fill_s")
    incgamma = Hook("special", span=False, timer="special.incgamma_s",
                    count=_counter("special.incgamma_evals"))
    series_point = Hook("resolvent", count=_counter("resolvent.points",
                                                    "resolvent.raised"))
    series = Hook("resolvent")
    solve = Hook("volterra")
    symbol = Hook("symbols", span=False, count=_lams)
    stab = Hook("stability")
    hooks = {
        (cli, "_prabhakar_full"): Hook("special"),
        (special, "_prabhakar_scaled"): ml,
        (resolvent, "_prabhakar_scaled"): ml,
        (special, "_log_coeffs"): coeffs,
        (volterra, "reg_lower_inc_gamma"): incgamma,
        (cli, "series_S"): series_point,
        (resolvent, "series_S"): series_point,
        (spectral, "series_S"): series_point,
        (cli, "series_curve"): series,
        (spectral, "series_curve"): series,
        (cli, "solve_volterra"): solve,
        (spectral, "solve_volterra"): solve,
        (volterra, "_solve_grid"): Hook("volterra", timer="volterra.grid_s",
                                        count=_n_steps),
        (volterra, "kernel_a"): Hook("volterra", span=False,
                                     timer="volterra.kernel_s",
                                     count=_counter("volterra.kernel_evals")),
        (cli, "invert_S_curve"): Hook("inversion"),
        (inversion, "invert_S"): Hook("inversion", count=_invert_point(inversion)),
        (inversion, "laplace_S_hat"): symbol,
        (inversion, "laplace_S_hat_den"): symbol,
        (stability, "symbol_g"): symbol,
        (stability, "symbol_h"): symbol,
        (stability, "symbol_h_tilde"): symbol,
        (cli, "operator_norm_curve"): Hook("spectral"),
        (spectral, "mode_curve"): Hook("spectral",
                                       count=_counter("spectral.modes")),
        (cli, "lemma_property_suite"): Hook("stability", count=_lemma_samples),
    }
    for name in ("classify", "theoretical_bound", "fit_decay_rate",
                 "verify_bound"):
        hooks[(cli, name)] = stab
    return hooks


class Tracer:
    def __init__(self, memdiff):
        self._memdiff = memdiff
        self._hooks = _hooks(memdiff)
        self._originals = {key: getattr(*key) for key in self._hooks}
        self._stack: list[list] = []  # [start, child_s, span id]
        self.spans: list[tuple] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self.epoch = time.perf_counter()

    def install(self) -> None:
        for (module, name), hook in self._hooks.items():
            setattr(module, name, self._wrap(self._originals[(module, name)],
                                             name, hook))

    def uninstall(self) -> None:
        for (module, name), fn in self._originals.items():
            setattr(module, name, fn)

    def _wrap(self, fn, name: str, hook: Hook):
        stack, spans, totals = self._stack, self.spans, self.totals
        clock = time.perf_counter
        self_key, timer, count, span = (f"{hook.layer}.self_s", hook.timer,
                                        hook.count, hook.span)

        def close(frame, parent, args, kwargs, result, raised):
            end = clock()
            stack.pop()
            start, child, span_id = frame
            duration = end - start
            if stack:
                stack[-1][1] += duration
            totals[self_key] += duration - child
            if timer:
                totals[timer] += duration
            if count:
                count(totals, args, kwargs, result, raised)
            if span:
                spans[span_id] = (span_id, parent, self.op_id, hook.layer, name,
                                  start - self.epoch, end - self.epoch, child)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else None
            if span:
                span_id = len(spans)
                spans.append(None)  # filled in on return
            else:
                span_id = parent
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(frame, parent, args, kwargs, None, True)
                raise
            close(frame, parent, args, kwargs, result, False)
            return result
        return wrapper

    def entry(self, main):
        """``main`` recording each operation as a ``cli`` span of operation
        ``op_id``."""
        return self._wrap(main, "main", Hook("cli"))

    def metrics(self, rounds: int, bytes_out: int) -> dict[str, float]:
        """Per-round figures of every metric in METRICS."""
        t = dict(self.totals)
        t["volterra.march_s"] = t.get("volterra.grid_s", 0.0) - t.get(
            "volterra.kernel_s", 0.0)
        t["cli.bytes_out"] = bytes_out
        per_round = {name: t.get(name, 0.0) / rounds for name in METRICS}
        # A count at the end of the run, not a sum over rounds.
        cache = getattr(self._memdiff.special, "_COEFF_CACHE", {})
        per_round["special.coeff_cache_floats"] = sum(
            len(v) for v in cache.values())
        return per_round

    def write(self, path) -> None:
        keys = ("id", "parent", "op", "layer", "name", "start", "end", "child_s")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
