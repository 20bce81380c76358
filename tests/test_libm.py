"""numpy's real transcendental functions need not round like libm's, so the
series and the Volterra kernel take every exp, log and power with libm's
bits: ``special._exp`` for exp, ``math`` calls for the rest."""

import ast
import inspect
import math

import numpy as np
import pytest

from memdiff import resolvent, special, volterra

_REAL_TRANSCENDENTALS = {"exp", "log", "power", "expm1", "log1p", "sin",
                         "cos", "tan"}


def test_exp_is_math_exp_bit_for_bit():
    """``_exp`` holds for x <= 709: uniform arguments over [-746, 709], a
    dense sweep of the arguments whose result is subnormal, the ends, +-0,
    -inf and NaN."""
    rng = np.random.default_rng(13)
    x = np.concatenate([rng.uniform(-746.0, 709.0, 200_000),
                        np.linspace(-745.2, -708.4, 20_001),
                        [-746.0, 709.0, 0.0, -0.0, -math.inf, math.nan]])
    got = special._exp(x)
    want = np.array([math.exp(v) for v in x.tolist()])
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def _real_transcendental_uses(module) -> list[tuple[str, str]]:
    """(enclosing top-level function, name) of every numpy transcendental
    that ``module`` reads through its numpy alias or imports from numpy."""
    tree = ast.parse(inspect.getsource(module))
    aliases = set()
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names
                           if a.name == "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            uses += [("<import>", a.name) for a in node.names
                     if a.name in _REAL_TRANSCENDENTALS]
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        uses += [(owner, node.attr) for node in ast.walk(top)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name)
                 and node.value.id in aliases
                 and node.attr in _REAL_TRANSCENDENTALS]
    return uses


@pytest.mark.parametrize("module", [special, resolvent, volterra],
                         ids=lambda m: m.__name__)
def test_no_real_numpy_transcendental(module):
    """The one numpy exp is the complex one inside ``special._exp``."""
    allowed = [("_exp", "exp")] if module is special else []
    assert _real_transcendental_uses(module) == allowed
