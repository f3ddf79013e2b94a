"""Golden output: sha256 of the exact bytes of fixed CLI commands.

Each verify kind runs on seeds 1..20 (``--seed 1 --trials 20``) with
``--json``, plus one replay of each kind and every figure at seed 1.  Ramee
runs again at wide bounds, where the discriminants are large enough that
square roots need real factoring, and so does retablissement, whose
perspectivity matrices then carry large entries; quadrangle and pencil run
at bounds 10**6, where the three perspectives and the rational chords meet
large coefficients, and so do the beaugrand, pascal and parallel-bornales
replays, whose chord products and ratios then carry large integers.  The
pascal replay also runs at 10**6, and pencil and the beaugrand replay at
10**300, where printed integers pass Python's default 4,300-digit limit;
the pascal, beaugrand and retablissement figures run at seed 2 and bounds
10**6.  The digests pin every
output byte, so a change to the arithmetic that alters a value, a canonical
form or the order of claims shows up here; a change that only makes the
same bytes faster leaves them alone.  Every verify kind also runs at
``--bounds`` 10**12, 10**18 and 10**30 under a time budget, every
verify and replay kind at 10**300 in process, and every figure kind at
10**100 and 10**300, where coordinates pass float range or every labelled
point of a unit-circle figure rounds to one canvas point.  Start-up checks
run in fresh interpreters: importing ``arguesia.cli`` loads neither
``dataclasses``, ``argparse``, the SVG renderer nor ``fractions``,
``decimal`` or ``numbers``, a ``verify`` run does not load ``argparse``
either, a ``construct`` run loads no rational arithmetic module, and
``figure`` loads the renderer and still writes the golden bytes.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from arguesia.cli import FIGURE_KINDS, REPLAY_KINDS, VERIFY_KINDS, main

GOLDEN = {
    "verify menelaus": "77d94a5b7d05e11498faba640697061714e4fc04b5ec9773173beeabece2572e",
    "verify ramee": "8f2f422e4c5b340bd7538b913f50bd67b31cf2f5c4a875cf6ec5ead1d26b0fe0",
    "verify quadrangle": "a114eb285d0f5d180d70a7b6840d18122563bd18804e22c19776b1650c1f6dac",
    "verify pencil": "49a70241f8d2f320f99e42be00e671029682336d511100909db621d4a6335b5f",
    "verify pascal": "2d7e88aad8d0db9489745b331bf9d8034995a7e00c621c0adf853f50c21376b6",
    "verify beaugrand": "ac623e5b79538bcb58932417c1bd581f7d5fe1a98d2cfd93269cec906b48d443",
    "verify parallel-bornales": "c8e4d66f0e5300235e9496a2773a88378091e642814c98fb0a61cff33e79df7c",
    "verify midpoint": "51125153deb241fab7340893d42eb2e82245a4cfc90a38ab52d029e12c7c672c",
    "verify bisector": "52407f7d74df02be0f72b2be4473cbd6118ac0b0c80461e3c460c30234f36cdb",
    "verify retablissement": "cba4a06cf49d14a31c57190ab66d63922c1d466da2e9e0b2d3414ba4e6a5bc72",
    "replay ramee": "693f2407d6a8e803ec8d7e01b17daa84f99c61341e5e2b98e3aac35c034ac1e2",
    "replay quadrangle": "f536cd424d930cb8b971e2ba77f3c5f5690451787a3cfcd78f309c1b2cb43dd5",
    "replay beaugrand": "bb699eb1cba6e0fb6cfdd94b9e20bfd78c9eb531d56c0a3600d5fec7f79147f2",
    "replay pascal": "f7c35dbba6cc7c9f22fed7cad440d3f304750614f72e4d42b511c6f04645a98c",
    "verify ramee --bounds 30000":
        "f2815dcce3550bb1b15c89c32f27190c7c9e5921b39907ecd7dee61792e4fb3a",
    # its fixed point 0/1 is carried to infinity: both sides print inf
    "verify ramee --seed 9542 --trials 1":
        "edb9e242be13534ce763300d5193f7b40d98d45601a0504a28b87a5658c40edc",
    "verify ramee --trials 10 --bounds 1000000":
        "accc92b4fe077a82441b72066ab0389759f0ed134f078a4bf48949e615fc64bc",
    "verify retablissement --bounds 30000":
        "d3c178a19569abfeb123fa40fcc0b74e2dbb8a94b5998ab1a7b05f8b7e967ecd",
    "verify retablissement --bounds 1000000":
        "4b5e1528d96168b54750cdd05ef14b5152106efbc6f2a28812a86f6341b7a3a8",
    "verify quadrangle --bounds 1000000":
        "3eea33dc26aceeaf65eaf07be082c9c47f29395736d2ec3b2db2f331a19a7851",
    "verify pencil --bounds 1000000":
        "d5035bd16b7fdadf70a2756d0d0987fee4b1463e81d0444651d85f4d5fd23467",
    "verify beaugrand --bounds 1000000":
        "75bedc16764767ae83bbed6a8d5dfc0e4df1ee13322569dbb942dc3072c137ea",
    "verify pascal --bounds 1000000":
        "782428b75471aa0dc14067d95f93842b146db7407e2a04a89e9a1042f55aef2c",
    "verify parallel-bornales --bounds 1000000":
        "8e3c172f666c257f9374188d94cc386249cde5a6a63d0bc23a99ca5929989f45",
    "verify pencil --bounds 10**300":
        "b12e968adfc66f214bf20e6b0c96b3ff902f006d37e9abfdd41d73b8a367dd73",
    "replay beaugrand --bounds 10**300":
        "3ab3ea85f22dbef058cf08bf3cfd4498c254d4afa1a185320137602619a5d888",
    "replay pascal --bounds 1000000":
        "4a3281b971535ad3737b29a65f7ffb574e518585fa7a72f088cf1b3c95baf1f2",
}

SRC = Path(__file__).resolve().parent.parent / "src"


def _command(name: str) -> list[str]:
    # options in the name override the defaults; 10**N is that power of ten
    command, kind, *extra = name.split(" ")
    extra = [str(10 ** int(x[4:])) if x.startswith("10**") else x for x in extra]
    if command == "verify":
        return ["verify", kind, "--seed", "1", "--trials", "20", *extra, "--json"]
    return ["replay", kind, "--seed", "1", *extra, "--json"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name, capsys):
    assert main(_command(name)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[name]


GOLDEN_FIGURES = {
    "menelaus": "8c8e36c31212739c28d461c909f09ba3c982f588035675650f71a2d2be20850a",
    "ramee": "a3bc3143d2dcac4126147089effb03f54973abfbf3d076eef3d1be9889720aac",
    "quadrangle": "c6a5b29a0448a4fb6a0b9b24c20f64aae016c46ddf5d71d89fb1effba2395a56",
    "pencil": "8f82dc487ca4c62af69a72a3f8fb7e14a32136d8b9d42d714163990d2f78e933",
    "pascal": "bb3a446d2d5401a19c031c099fa1f0912de9227499662d2fcc22f6bc64007a64",
    "beaugrand": "d7f5b9648dbfec6ab82e460074846fd90723010800bfa460a03227f439a0878c",
    "harmonic": "e8b8c4d95c865bbfe92872e4d1c77ab89d81aa4bfb61008e904af6c062ae217f",
    "bisector": "8dde6e5c54f8864315c1d2aec67a7b7b08c1f9e864c07a63cfd3b961bc7b63b6",
    "parallel-bornales": "7dcb2ed258cd3352f9552054d1ef916138c3cdae0bfb154001378a938503d571",
    "retablissement": "c3fbc13a78f3e0b24b3566f5f407a0924a253aac23eb0482dcc7f35b09f39612",
    "p13": "dc6930f2319882f70015fb41d3464b46445337083e34a4c98c9ebee26ab2a551",
}
FIGURE_QUADRANGLE = GOLDEN_FIGURES["quadrangle"]
# seed 2 at bounds 10**6: the figures drawn from the points their checks build
GOLDEN_FIGURES_1E6 = {
    "pascal": "1040a564ba57fee5b9f01bd74956877d3f2eeefc91f9d761a51d3ece8252a52b",
    "beaugrand": "7058c404f8149eabfc3d85f2406f81eb29f858f6fd171014c14c0e149e5030bc",
    "retablissement": "ce06ad33b66a041fc712317abbf4187f5a0d2a1e88d9b3333f80d0020138482a",
}


@pytest.mark.parametrize("kind", FIGURE_KINDS)
def test_golden_figure(kind, tmp_path):
    # e.g. the quadrangle SVG draws the bornales and the six transversal cuts
    out = tmp_path / "figure.svg"
    assert main(["figure", kind, "--seed", "1", "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_FIGURES[kind]


@pytest.mark.parametrize("kind", sorted(GOLDEN_FIGURES_1E6))
def test_golden_figure_at_bounds_1e6(kind, tmp_path):
    out = tmp_path / "figure.svg"
    assert main(["figure", kind, "--seed", "2", "--bounds", "1000000", "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_FIGURES_1E6[kind]


def _verify_finishes(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "arguesia.cli", "verify", *args],
        env=_subprocess_env(), capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("1/1 verdicts true\n")


@pytest.mark.parametrize("kind", VERIFY_KINDS)
def test_verify_at_bounds_1e12_finishes(kind):
    # ~80-bit discriminants and up: square roots must not fall back on
    # O(sqrt n) trial division, nor on trial division to the cube root
    for bounds in (10**12, 10**18, 10**30):
        _verify_finishes(kind, "--bounds", str(bounds))


def test_verify_ramee_at_bounds_1e18_seed_3_finishes():
    # its discriminant has no small prime factor: trial division to the
    # cube root ran past 40 s, and the prime bound 2**14 stops it
    _verify_finishes("ramee", "--bounds", str(10**18), "--seed", "3")


def test_every_kind_at_bounds_1e300_exits_0(capsys):
    # main lifts the int-to-str digit limit for the call and then puts the
    # caller's limit back
    limit = sys.get_int_max_str_digits()
    bounds = str(10**300)
    for command, kinds in (("verify", VERIFY_KINDS), ("replay", REPLAY_KINDS)):
        for kind in kinds:
            assert main([command, kind, "--bounds", bounds, "--seed", "1"]) == 0, (command, kind)
            assert sys.get_int_max_str_digits() == limit
    assert main(["construct", "harmonic", "--b", "0", "--c", "1" + "0" * 5000, "--d", "1"]) == 0
    assert sys.get_int_max_str_digits() == limit
    capsys.readouterr()


ONE_CANVAS_POINT = "error: distinct labeled points fall on one canvas point\n"


def test_every_figure_at_bounds_1e100_and_1e300(capsys, tmp_path):
    # coefficients beyond float range are scaled by a power of two before
    # float(); a labelled point beyond it is an unrenderable figure, exit 2.
    # So is a unit-circle figure at 10**100, whose points all lie within
    # about 10**-100 of the seed point (-1, 0) and would draw as one dot.
    out = str(tmp_path / "figure.svg")
    collapsed = ("pencil", "pascal", "beaugrand", "retablissement")
    for kind in FIGURE_KINDS:
        code = main(["figure", kind, "--bounds", str(10**100), "--seed", "1", "-o", out])
        err = capsys.readouterr().err
        if kind in collapsed:
            assert (code, err) == (2, ONE_CANVAS_POINT), kind
        else:
            assert (code, err) == (0, ""), kind
        code = main(["figure", kind, "--bounds", str(10**300), "--seed", "1", "-o", out])
        err = capsys.readouterr().err
        assert (code, err) in ((0, ""), (2, ONE_CANVAS_POINT)) or (
            code == 2 and re.fullmatch(r"error: point \w+ lies beyond float range\n", err)
        ), (kind, code, err)


def _subprocess_env() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    env.pop("ARGUESIA_SEED", None)
    return env


_LEFT_OUT = ("dataclasses", "inspect", "argparse", "gettext", "arguesia.svg_figures",
             "fractions", "decimal", "numbers")


def test_cli_import_leaves_out_dataclasses_and_the_renderer():
    probe = ("import sys, arguesia.cli; print(' '.join(m for m in "
             f"{_LEFT_OUT!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_verify_from_sys_argv_loads_no_argparse(monkeypatch, capsys):
    # main() reads sys.argv[1:], as the console script calls it; construct
    # goes through argparse, and neither loads a rational arithmetic module
    monkeypatch.delenv("ARGUESIA_SEED", raising=False)
    probe = ("import sys; from arguesia.cli import main; code = main(); "
             "print(code, [m for m in ('argparse', 'gettext', 'fractions', 'decimal', 'numbers') "
             "if m in sys.modules], file=sys.stderr)")
    for argv, loaded in ((["verify", "ramee", "--json"], []),
                         (["construct", "harmonic", "--b", "0", "--c", "2/4", "--d", "3"],
                          ["argparse", "gettext"])):
        proc = subprocess.run([sys.executable, "-c", probe, *argv],
                              env=_subprocess_env(), capture_output=True, text=True, timeout=60)
        assert proc.stderr == f"0 {loaded}\n"
        assert main(argv) == 0
        assert proc.stdout == capsys.readouterr().out


def test_figure_loads_the_renderer_and_keeps_its_bytes(tmp_path):
    out = tmp_path / "quadrangle.svg"
    probe = (
        "import sys; from arguesia.cli import main; "
        f"code = main(['figure', 'quadrangle', '--seed', '1', '-o', {str(out)!r}]); "
        "print(code, 'arguesia.svg_figures' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout == "0 True\n", proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIGURE_QUADRANGLE
