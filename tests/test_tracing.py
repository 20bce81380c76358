"""The benchmark's per-layer tracer hooks names in memdiff's modules by
attribute; a refactor that drops one of them must fail here rather than break
``bench/run.py --trace 1``."""

import importlib.util
import sys
from pathlib import Path

import memdiff
import memdiff.cli  # noqa: F401  (the tracer hooks names bound in the CLI)

_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("memdiff_bench_tracing", _PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_install_and_uninstall_restore_every_hook(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    keys = list(tracing._hooks(memdiff))
    before = {key: getattr(*key) for key in keys}
    tracer = tracing.Tracer(memdiff)
    tracer.install()
    try:
        assert all(getattr(*key) is not before[key] for key in keys)
    finally:
        tracer.uninstall()
    assert all(getattr(*key) is before[key] for key in keys)
