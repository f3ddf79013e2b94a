"""Large bounds and start-up: what the CLI does beyond the bytes that
``tests/bytes.json`` pins.

Every verify kind runs at ``--bounds`` 10**12, 10**18 and 10**30 under a
time budget, every verify and replay kind at 10**300 and 10**1000 in
process, and every figure kind at 10**100 and 10**300, where coordinates
pass float range or every labelled point of a unit-circle figure rounds to
one canvas point.  At 10**300 each verify and replay kind's printed and raw
digit degrees must equal ``DIGIT_DEGREES``.
Start-up checks run in fresh interpreters: importing ``arguesia.cli`` loads
neither ``dataclasses``, ``argparse``, ``json``, the SVG renderer nor
``fractions``, ``decimal`` or ``numbers``; ``--help`` prints the same
synopsis under ``python -OO``, which strips docstrings; neither a
``verify`` nor a ``construct`` run loads ``argparse``, ``gettext`` or a
rational arithmetic module; and ``figure`` loads the renderer and writes
the bytes it writes in process.
"""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from arguesia.cli import FIGURE_KINDS, REPLAY_KINDS, SYNOPSIS, VERIFY_KINDS, main

SRC = Path(__file__).resolve().parent.parent / "src"


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
    # caller's limit back; 10**1000 is one bound past 10**300
    limit = sys.get_int_max_str_digits()
    for bounds in (str(10**300), str(10**1000)):
        for command, kinds in (("verify", VERIFY_KINDS), ("replay", REPLAY_KINDS)):
            for kind in kinds:
                assert main([command, kind, "--bounds", bounds, "--seed", "1"]) == 0, (
                    command, kind, len(bounds))
                assert sys.get_int_max_str_digits() == limit
    assert main(["construct", "harmonic", "--b", "0", "--c", "1" + "0" * 5000, "--d", "1"]) == 0
    assert sys.get_int_max_str_digits() == limit
    capsys.readouterr()


# (printed, raw) digit degree of each kind at seed 1: a kind's longest
# printed integer, and its longest integer pair before the gcd of
# exact_scalar.pair_str, in multiples of the bound's digits.  Raw far above
# printed is digits built only to be divided out again.  A change that
# lowers a degree lowers it here.
DIGIT_DEGREES = {
    ("verify", "menelaus"): (1, 9),
    ("verify", "ramee"): (12, 32),
    ("verify", "quadrangle"): (12, 18),
    ("verify", "pencil"): (26, 1),
    ("verify", "pascal"): (6, 13),
    ("verify", "beaugrand"): (24, 50),
    ("verify", "parallel-bornales"): (5, 11),
    ("verify", "midpoint"): (4, 11),
    ("verify", "bisector"): (5, 8),
    ("verify", "retablissement"): (4, 1),
    ("replay", "ramee"): (12, 32),
    ("replay", "quadrangle"): (12, 14),
    ("replay", "beaugrand"): (24, 50),
    ("replay", "pascal"): (6, 13),
}


def test_digit_degrees_match_the_table(monkeypatch, capsys):
    # at bounds 10**300 a degree is its digit count over 300, rounded; the
    # raw side reads every pair_str argument, in every module that binds it
    import arguesia.exact_scalar as exact_scalar

    real = exact_scalar.pair_str
    longest = [0]

    def widest(num, den):
        longest[0] = max(longest[0], abs(num), abs(den))
        return real(num, den)

    for name, module in list(sys.modules.items()):
        if name.startswith("arguesia") and getattr(module, "pair_str", None) is real:
            monkeypatch.setattr(module, "pair_str", widest)
    degrees = {}
    for command, kinds in (("verify", VERIFY_KINDS), ("replay", REPLAY_KINDS)):
        for kind in kinds:
            longest[0] = 0
            assert main([command, kind, "--seed", "1", "--bounds", str(10**300), "--json"]) == 0
            printed = max(map(len, re.findall(r"\d+", capsys.readouterr().out)))
            # within one of its digit count, which the rounding absorbs
            raw = longest[0].bit_length() * math.log10(2)
            degrees[command, kind] = (round(printed / 300), round(raw / 300))
    assert degrees == DIGIT_DEGREES


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
             "fractions", "decimal", "numbers", "json")


def test_cli_import_leaves_out_dataclasses_and_the_renderer():
    probe = ("import sys, arguesia.cli; print(' '.join(m for m in "
             f"{_LEFT_OUT!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_help_prints_the_same_synopsis_under_OO():
    outs = []
    for flags in ([], ["-OO"]):
        proc = subprocess.run([sys.executable, *flags, "-m", "arguesia.cli", "--help"],
                              env=_subprocess_env(), capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, ""), flags
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == SYNOPSIS


def test_verify_from_sys_argv_loads_no_argparse(monkeypatch, capsys):
    # main() reads sys.argv[1:], as the console script calls it; neither
    # command loads argparse or a rational arithmetic module
    monkeypatch.delenv("ARGUESIA_SEED", raising=False)
    probe = ("import sys; from arguesia.cli import main; code = main(); "
             "print(code, [m for m in ('argparse', 'gettext', 'fractions', 'decimal', 'numbers') "
             "if m in sys.modules], file=sys.stderr)")
    for argv in (["verify", "ramee", "--json"],
                 ["construct", "harmonic", "--b", "0", "--c", "2/4", "--d", "3"]):
        proc = subprocess.run([sys.executable, "-c", probe, *argv],
                              env=_subprocess_env(), capture_output=True, text=True, timeout=60)
        assert proc.stderr == "0 []\n"
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
    in_process = tmp_path / "in_process.svg"
    assert main(["figure", "quadrangle", "--seed", "1", "-o", str(in_process)]) == 0
    assert out.read_bytes() == in_process.read_bytes()
