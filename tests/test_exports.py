"""Every name that memdiff or one of its modules exports must resolve, and
every name a module imports must be used, so a deletion cannot leave a stale
entry in an ``__all__`` or a stale import behind.  The runtime depends on
numpy alone, so no module imports anything else from outside the standard
library."""

import argparse
import ast
import importlib
import inspect
import pkgutil
import sys

import pytest

import memdiff
import memdiff.cli  # noqa: F401  (pkgutil lists it; the tracer hooks it)
from memdiff import errors
from test_tracing import _load_tracing

_MODULES = ["memdiff"] + [f"memdiff.{info.name}" for info in
                          pkgutil.iter_modules(memdiff.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_package_exports_every_module_export_and_nothing_else():
    """memdiff re-exports each module's ``__all__`` and every memdiff error,
    so a name removed from a module cannot linger in the package or be
    missing from it."""
    expected = {name for module in _MODULES[1:] for name in
                getattr(importlib.import_module(module), "__all__", [])}
    expected |= {name for name, obj in vars(errors).items()
                 if inspect.isclass(obj)
                 and issubclass(obj, errors.MemdiffError)}
    assert sorted(memdiff.__all__) == sorted(expected)


def _unused_imports(module) -> list[str]:
    """Names ``module`` imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(inspect.getsource(module))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read.update(getattr(module, "__all__", []))
    return sorted(set(imported) - read)


# Names a module imports only for the benchmark's tracer to hook there.  Once
# the tracer hooks the library modules instead, every set here is empty.
_TRACER_ONLY = {
    "memdiff.cli": {"series_S", "fit_decay_rate", "verify_bound",
                    "lemma_property_suite"},
    "memdiff.resolvent": {"_prabhakar_scaled"},
}


@pytest.mark.parametrize("name", _MODULES)
def test_every_imported_name_is_used(name, monkeypatch):
    """An import is read, exported or listed in _TRACER_ONLY, and each listed
    name is one the tracer hooks in this module; anything else is left over
    from a deletion."""
    module = importlib.import_module(name)
    tracer_only = _TRACER_ONLY.get(name, set())
    assert set(_unused_imports(module)) == tracer_only
    hooked = {attr for owner, attr in
              _load_tracing(monkeypatch)._hooks(memdiff) if owner is module}
    assert tracer_only <= hooked


def _imported_packages(module) -> set[str]:
    """Top-level packages ``module`` imports; a relative import is memdiff."""
    tree = ast.parse(inspect.getsource(module))
    packages = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            packages.add("memdiff" if node.level
                         else node.module.split(".")[0])
    return packages


@pytest.mark.parametrize("name", _MODULES)
def test_runtime_imports_are_numpy_only(name):
    allowed = set(sys.stdlib_module_names) | {"numpy", "memdiff"}
    module = importlib.import_module(name)
    assert sorted(_imported_packages(module) - allowed) == []


def _constructed_names() -> set[str]:
    """Names called, bare or as an attribute, anywhere in memdiff outside
    errors.py."""
    called = set()
    for name in _MODULES:
        module = importlib.import_module(name)
        if module is errors:
            continue
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Call):
                func = node.func
                called.add(func.id if isinstance(func, ast.Name)
                           else getattr(func, "attr", None))
    return called


def test_every_error_type_has_a_raise_site():
    """A fold of error types cannot leave behind one that nothing raises."""
    types = {name for name, obj in vars(errors).items()
             if inspect.isclass(obj) and issubclass(obj, errors.MemdiffError)
             and obj is not errors.MemdiffError}
    assert sorted(types - _constructed_names()) == []


# Every public name, so that adding or removing one is an edit here.
_PUBLIC_NAMES = [
    "AccuracyError", "BoundCheck", "ConvergenceError", "Curve", "CurveMethod",
    "DecayBound", "DomainError", "HypothesisError", "KernelParams",
    "LemmaCheck", "LemmaReport", "MemdiffError", "ModeError", "RateFit",
    "Regime", "RegimeClass", "ScalarProblem", "SpectralModel",
    "StepSizeError", "TruncationError",
    "classify", "eigen_pairs", "field", "fit_decay_rate", "forward_transform",
    "invert_S", "invert_S_curve", "invert_transform", "kernel_a",
    "laplace_S_hat", "lemma_property_suite",
    "mode_curve", "mu1_closed_form", "operator_norm_curve", "prabhakar_ml",
    "reg_lower_inc_gamma", "series_S", "series_curve", "solve_volterra",
    "symbol_g", "symbol_h", "symbol_h_tilde", "theoretical_bound",
    "verify_bound", "verify_problem",
]


def test_public_name_set_is_pinned():
    assert _PUBLIC_NAMES == sorted(_PUBLIC_NAMES)
    assert sorted(memdiff.__all__) == _PUBLIC_NAMES


# Every optional parameter of a public function, by name, so that a new knob
# has to be added here.
_PUBLIC_OPTIONS = [
    "invert_transform.n_nodes", "invert_transform.contour_scale",
    "mode_curve.method", "operator_norm_curve.method",
    "operator_norm_curve.dt", "solve_volterra.dt",
    "solve_volterra.richardson",
]


def test_public_option_set_is_pinned():
    options = []
    for name in memdiff.__all__:
        obj = getattr(memdiff, name)
        if inspect.isfunction(obj):
            options += [f"{name}.{p.name}" for p in
                        inspect.signature(obj).parameters.values()
                        if p.default is not inspect.Parameter.empty]
    assert sorted(options) == sorted(_PUBLIC_OPTIONS)


# Every option string of each CLI subcommand, but --help, so that a new flag
# has to be added here.  No flag sets a route's accuracy: the series and
# contour routes run at one setting each, and only Volterra takes --dt.
_CLI_OPTIONS = {
    "eval-ml": ["--mu", "-m", "--k", "-k", "--z", "-z"],
    "scalar-curve": ["--alpha", "-a", "--beta", "-b", "--mu", "-m", "--rho",
                     "-r", "--tmax", "--points", "--method", "--dt",
                     "--force", "--out", "-o", "--format"],
    "norm-curve": ["--alpha", "-a", "--beta", "-b", "--mu", "-m", "--length",
                   "--modes", "--tmax", "--points", "--method", "--dt",
                   "--force", "--out", "-o", "--format"],
    "verify": ["--alpha", "-a", "--beta", "-b", "--mu", "-m", "--rho", "-r",
               "--omega", "-w", "--tmax", "--points", "--dt", "--tol",
               "--out", "-o"],
    "classify": ["--alpha", "-a", "--beta", "-b", "--mu", "-m", "--omega",
                 "-w"],
}


def test_cli_option_set_is_pinned():
    parser = memdiff.cli.build_parser()
    (commands,) = [action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    options = {name: [option for action in sub._actions
                      if action.dest != "help"
                      for option in action.option_strings]
               for name, sub in commands.choices.items()}
    assert options == _CLI_OPTIONS
