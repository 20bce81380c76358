"""Byte identity of the CLI on benchmark operations.

Every operation of curve-sweep's seed-21 round, the first two of
norm-curve's and the first four of verify-golden's run in-process through
``memdiff.cli.main``.  The sha256 of each (exit code, stdout, stderr) must
equal the hash recorded while the series and contour routes still sampled a
curve one time point at a time, so a change of any output byte, exit code or
error message shows here.  ``bench/workloads.py`` is loaded by path and
nothing under ``bench/`` is changed.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from memdiff import cli

_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

# (workload, operation index in the seed-21 round) -> sha256
EXPECTED = {
    ("curve-sweep", 0): "b790388f31bae99b3bb69cc5120d12cee7b829e114a1aca89b9d56e0a65d3afd",
    ("curve-sweep", 1): "44a8a64b88797440832838d5a74fdba8bfb8efc3c40b2aae26fea14d681881a5",
    ("curve-sweep", 2): "36d8bdca6ac888eee916f0a732aafcb80bdfbf07b677acdfc5dda3c901617f9e",
    ("curve-sweep", 3): "1cb6e32752f942adea2d78981870c242d3041194afd8343ecfb116680331cf93",
    ("curve-sweep", 4): "ce69f118233dc5b25a848890936141d0b12343d4e4d8f47755bf578c897e418a",
    ("curve-sweep", 5): "decb77ac6eb7988f106aaeea7c6e090ef117843a8bb3b622bfb5bfb2284bb60b",
    ("curve-sweep", 6): "7a03b21e97011332e70f0253b1bbee02f9932b580c5c54146d939171d88bbe32",
    ("curve-sweep", 7): "1ab52e829cb677b46060becd15a976e53d74e20ce7713fd9db501479998ed0f7",
    ("curve-sweep", 8): "0d913b8e597f14f253fe0c61147dbdce9ae196459ef1e49583fb98d9de411236",
    ("curve-sweep", 9): "478a20c816a22ac72cefab725589697b452b5617ee6268f899640e48ef194275",
    ("curve-sweep", 10): "d3843689127ef3df401f2cf6f7649fc5811409d6a6b450a5f4a817589961a4a5",
    ("curve-sweep", 11): "c38f6d111b2daae1495e6abf08b5e4ddca0f36cddd8c911f4b62a42618c91263",
    ("curve-sweep", 12): "5a78460b38e24b8be5773ef8bce6200a56e4ab48d4177e0b9e7ae4fa3295fe23",
    ("curve-sweep", 13): "6e62e3aab10e690a3bfa27b76c99d1eda709c82817174486c2f3a4876ca9e314",
    ("curve-sweep", 14): "8e85e25cf6482165c2078a529df55ec705a4a912c1749d5717461994befff619",
    ("curve-sweep", 15): "fdbe4eb9676b8413a65b5dcdd4010d39c07f35c78de2fa59dbfbcf8d0e08a96b",
    ("curve-sweep", 16): "4228b5002d999ec990fa288bf6d5b9cc43f0d781e574058824b2d8912ec2a653",
    ("curve-sweep", 17): "37e57c457d8c3f49451bdada933cd5d020ab4290b3437a329c6de0138db19888",
    ("curve-sweep", 18): "9af2f48fa2255079168b165efc3a2d60ba26cf8981ac808bc6ae5329104b4c0a",
    ("curve-sweep", 19): "3d3bfbbec5b111f010d2ca86770c3a7a648cf3c5be89a4526d723d33fa3813c2",
    ("norm-curve", 0): "8493a7ca90d6f1c6f36d87cf7193e752236f25fa1aebd3afae0ba79f2a3dbf42",
    ("norm-curve", 1): "bdba5908d8414c5098920836d8a27e07a7cbbd97b2516304a98ccd43c84a0ba4",
    ("verify-golden", 0): "cc5d9762ebcac4199f0affe616a7cb4a28849f3af97a9bd5795e1e146f95c85b",
    ("verify-golden", 1): "4bfada8b8c087149adf9296e6027bd0af3879462b2b71db92bf48d116bde92bd",
    ("verify-golden", 2): "9767dc1bf4cdcb56a5b5b3ab95605f984a67d5f0fb4a1ac83f884eeb53faeaa3",
    ("verify-golden", 3): "e9672bba59dc4b99f4f453877f05a6f5273a9898f606ef7c0821f88d2f1cd730",
}


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("memdiff_bench_workloads",
                                                  _PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def operations(workloads):
    """[((workload, index), argv)] of the operations checked here."""
    picked = {"curve-sweep": None, "norm-curve": 2, "verify-golden": 4}
    out = []
    for name, count in picked.items():
        ops = workloads.build(name, 21)[:count]
        out += [((name, i), op.argv()) for i, op in enumerate(ops)]
    return out


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


def test_benchmark_operations_keep_their_bytes(monkeypatch):
    workloads = _load_workloads(monkeypatch)
    ops = operations(workloads)
    assert [key for key, _ in ops] == list(EXPECTED)
    changed = [" ".join(argv) for key, argv in ops
               if digest(argv) != EXPECTED[key]]
    assert not changed, changed
