"""Every value that a comment in README.md states is what memdiff gives.

The README's python blocks run as written; each commented line that is one
expression is evaluated and its value checked against its comment.  The
commented ``memdiff eval-ml`` line runs through ``memdiff.cli.main``."""

import ast
import math
import re
import textwrap
from pathlib import Path

import pytest

from test_cli import run_cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _expression_values() -> dict[str, tuple[object, str]]:
    """{expression source: (its value, the comment on its line, or "")} over
    the expression lines of the README's python blocks, each block run in
    order in one namespace."""
    namespace: dict = {}
    found = {}
    for _, body in re.findall(r"^( *)```python\n(.*?)^\1```", README,
                                   re.M | re.S):
        source = textwrap.dedent(body)
        lines = source.splitlines()
        for stmt in ast.parse(source).body:
            code = ast.get_source_segment(source, stmt)
            if not isinstance(stmt, ast.Expr):
                exec(code, namespace)
                continue
            value = eval(code, namespace)
            comment = lines[stmt.end_lineno - 1].partition("#")[2]
            found[code] = (value, comment.strip())
    return found


@pytest.fixture(scope="module")
def readme_values():
    return _expression_values()


def test_eval_ml_prints_the_stated_value():
    line = next(line for line in README.splitlines()
                if line.startswith("memdiff eval-ml"))
    argv, _, comment = line.partition("#")
    proc = run_cli(*argv.split()[1:])
    value, note = comment.split(", ")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == value.strip()
    assert note.strip() == "1 ulp above cosh 1"
    assert float(value) == math.nextafter(math.cosh(1.0), math.inf)


def test_quick_start_series_value_has_the_stated_digits(readme_values):
    value, comment = readme_values["series_S(prob, 2.0)"]
    assert comment.endswith("...")
    assert repr(value).startswith(comment.removesuffix("..."))


def test_quick_start_three_routes_agree(readme_values):
    series, _ = readme_values["series_S(prob, 2.0)"]
    inverted, comment = readme_values["invert_S(prob, 2.0)"]
    volterra, _ = readme_values[
        "solve_volterra(prob, VolterraConfig(dt=0.0025, n_steps=800))"
        ".values[-1]"]
    assert comment == "three routes, one answer"
    # within the tolerance of the verify example
    assert max(abs(inverted - series), abs(volterra - series)) < 1e-4


def test_regime_is_the_stated_class(readme_values):
    value, comment = readme_values[
        "classify(params, omega=-1.0).regime_class"]
    assert value.value == comment


def test_decay_rate_is_the_stated_expression(readme_values):
    value, comment = readme_values[
        "theoretical_bound(params, omega=-1.0).rate"]
    exact, approx = comment.split(" ~ ")
    assert value == eval(exact)
    assert round(value, 3) == float(approx)


def test_verify_example_passes_as_stated(readme_values):
    value, comment = readme_values['report["passes"]["all"]']
    assert str(value) == comment.split(",")[0] == "True"
