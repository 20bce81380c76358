"""Byte identity of the CLI on benchmark operations.

Every operation of the seed-21 round of each workload (20 of curve-sweep, 12
of norm-curve and 24 of verify-golden) runs in-process through
``memdiff.cli.main``.  The sha256 of each (exit code, stdout, stderr) must
equal its recorded hash, so a change of any output byte, exit code or error
message shows here.  The curve-sweep hashes were recorded while the series
and contour routes still sampled a curve one time point at a time; the
others before the Volterra march lost its separate first-step formula, and
verify-golden 6, 12 and 16 when the lemma suite moved from 10^4 random samples
to the boundary of each region, which changed only their arg_h_tilde counts
(referee: ``tests/test_stability.py``'s dense grid).  The operations that
fail today are pinned as they fail: curve-sweep 9 exits 2, verify-golden 7
exits 2 and verify-golden 6, 12 and 16 exit 1.
``bench/workloads.py`` is loaded by path and nothing under ``bench/`` is
changed.

The round draws only 6 laplace requests, so the 12 seeded series requests of
the same round are also run with ``--method laplace``; their hashes were
recorded before the contour route shared one evaluation of S_hat between
its node guard and its values.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from dataclasses import replace
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
    ("norm-curve", 2): "8591a8f6997140c8b0e45d085c9b74de4e080ac9a87ac96ea2f8599468d566d3",
    ("norm-curve", 3): "19abc96f743c1f1c4486c47b9a27a6c18ed262dd713a3676f05d11f2bdd7b2fe",
    ("norm-curve", 4): "365bdc0534ffaabd52d64ef72f80d1a513f0adb592c3fcd5c9b086a8dbd4ff0f",
    ("norm-curve", 5): "7316f1e6ef699b195f00cc5c66ce706ceb73d025ad46065bc2445eb2e377b8ca",
    ("norm-curve", 6): "f3628a38cfee0c2d48cf9c503997b25e09c9faa2bc3512340eba639e5eda5b03",
    ("norm-curve", 7): "928ac5bf0683e615cf5b5894382037061457cc75041ccaefa8c8fc4232b1da2d",
    ("norm-curve", 8): "b6662dbdb81d5a0b46a7163885aadfdcf23417f55f5d89c7ea24821586e3dd46",
    ("norm-curve", 9): "9447a6961cb10b9399042c7be94b5e73adc2cddd918c399f20e795a65a4459bc",
    ("norm-curve", 10): "265d55d63fc1bea9ae4e990f84eadbb3b3b02b16a83364cd6bafa106919a9db8",
    ("norm-curve", 11): "dd37c0b60f3f8ee0d235a4fe6e2f10306cfac8c762449270e20b6a053732c266",
    ("verify-golden", 0): "cc5d9762ebcac4199f0affe616a7cb4a28849f3af97a9bd5795e1e146f95c85b",
    ("verify-golden", 1): "4bfada8b8c087149adf9296e6027bd0af3879462b2b71db92bf48d116bde92bd",
    ("verify-golden", 2): "9767dc1bf4cdcb56a5b5b3ab95605f984a67d5f0fb4a1ac83f884eeb53faeaa3",
    ("verify-golden", 3): "e9672bba59dc4b99f4f453877f05a6f5273a9898f606ef7c0821f88d2f1cd730",
    ("verify-golden", 4): "ad15c00c67863a46f8b559c403ab39c61dfd1b9a83d7748e04e6aff2bfa64a76",
    ("verify-golden", 5): "a86eb1071ef12a6a1e13cb90d8acac8f612295e42a556d415de956b338139def",
    ("verify-golden", 6): "7e7e74b995bb6c5fb5bb08f85d0b70171beb132e5801b2b60595af2d7170aef3",
    ("verify-golden", 7): "6611ea3e92b4839299c445d9c3fb4ebaf1fe4cdceb5b31d1f9d8628075a77ae4",
    ("verify-golden", 8): "852bb249502a8ffda256f06caa355ab7d61cea4c012517d92ad3abe19e250080",
    ("verify-golden", 9): "075d91361099546147a881cc3745b1112a4be9be719f53696e69b0f9ebf1eae2",
    ("verify-golden", 10): "b83a658373c95eeada208ddb43749d058915eedacbf9f1e89e7f2928dee31ffc",
    ("verify-golden", 11): "6e0f1f52a0f09e09d003ac0079941a221d5515526a18efcb414af6a2ed949b80",
    ("verify-golden", 12): "48bbd32498e33fe98460c55538d8052e403a4dede23ef48abb07dc6dcc2d4542",
    ("verify-golden", 13): "92e78ed9a87c26e0173ad1329cd73e12f3633a2fe3a8ce21795ba41b071d9d9b",
    ("verify-golden", 14): "8cb47ebf6266b5f90e22d73dcb1d5de7b52c7a3118d0b55354f3705bf822ca34",
    ("verify-golden", 15): "bd92151ca5eefc83fe6c52ab97701b4b19b632ad502d93f7da09b82fd3915e88",
    ("verify-golden", 16): "bdccfb3e08d90981e9af41d5430558dee5aa8bf7dd1b96808c8646a86c14c6bd",
    ("verify-golden", 17): "dfa6f29f5b82a4280c14459ab165bf8d526888d03723e9e658c6e17b83880f80",
    ("verify-golden", 18): "7124c60b0607953db58ba893e1e75c8f9e635e2477433d4c685415747bfea501",
    ("verify-golden", 19): "fe3529b434dab8005d2915d9e041373290f78cebc55b974546820b388eac8cbf",
    ("verify-golden", 20): "509a8665a0993e3635477b9e63943e17f25b0fc6c65eeaf0ab0f2121401a38ff",
    ("verify-golden", 21): "85550929908d0e59944502ecaa4a7c99ac522e6974ca5538721b9e23df58bb76",
    ("verify-golden", 22): "138718407f1e1a8fef4bdcb5b7ca00edd03d9f487644e22bfec0b51b943f8f45",
    ("verify-golden", 23): "7759f1070dfd854705595adea9ccd8f21c39e8493df78f742cd7c6c7e870a507",
}

# index of a seeded series request in the seed-21 curve-sweep round -> sha256
# of that request run with --method laplace
EXPECTED_LAPLACE = {
    0: "070da8d2b98987c1eabda53fa5ee4644e817de777bd430f75578d29d33b87c21",
    1: "6de29dd1dcdd6bc9f8fe6f5eb61989ce153a06b83567c93bff301cb76006969e",
    3: "49f1f32477f3b51cc9d7acc0f9f0b0bdb2f08dd0876469c4ff0f37089f02485d",
    4: "93a91615ed92c50c8ff547a2a0098c85e5297736db59110809b7c32131992031",
    6: "467d9dba6e934513836f29b71272df3d8ece083b20b2debfcbfdee58f806d4f4",
    7: "9414bf45abdd1a500603e1e796e709aa48f65617f878387e6190bcdff9c6306f",
    10: "f1f60d612f25961a1011baab4548f5dd21239d64f2273261ac5d8f14c4583321",
    11: "18eba8693b19e7c62fe5bed1db6fd4abc3e12a1163d02c73ef67a44f0fdcf224",
    13: "5b3524ea64428181c1669363ff55be7a1da1da18ba5a4e576a7fddb8e0688464",
    14: "ecf017b558d0d3817017215075bd151cb1606c89d3a4c1ac8b0e016929f56d14",
    16: "cae8fc1883fb30ef5f29a0afb7b3c766a052971eb199c5c319ff4ed15927e5d6",
    17: "f0f977e6512eeb73cea5962435fb1584f5446b54b979a6bb8024202d29a9da4e",
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
    """[((workload, index), argv)] of every operation of the seed-21 round."""
    return [((name, i), op.argv())
            for name in ("curve-sweep", "norm-curve", "verify-golden")
            for i, op in enumerate(workloads.build(name, 21))]


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


def test_series_requests_keep_their_bytes_by_laplace(monkeypatch):
    workloads = _load_workloads(monkeypatch)
    ops = {i: replace(op, method="laplace").argv()
           for i, op in enumerate(workloads.build("curve-sweep", 21))
           if op.method == "series" and op.fault is None}
    assert list(ops) == list(EXPECTED_LAPLACE)
    changed = [" ".join(argv) for i, argv in ops.items()
               if digest(argv) != EXPECTED_LAPLACE[i]]
    assert not changed, changed
