"""Repeated in-process ``main`` calls and the one argv reader: every
argv is read by the rules in ``arguesia.cli``'s docstring, and every other
one is a usage error that returns 2; and the ``Fraction`` budgets: none in
instance generation, and none in any verify or replay op."""

import contextlib
import fractions
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arguesia import cli
from arguesia.cli import REPLAY_KINDS, VERIFY_KINDS, main
from arguesia.instances import KINDS, InstanceConfig, generate_instance


def test_each_call_reads_its_argv_afresh(monkeypatch, capsys):
    monkeypatch.setenv("ARGUESIA_SEED", "7")
    assert main(["verify", "ramee", "--seed", "5", "--trials", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [r["seed"] for r in data["reports"]] == [5, 6]

    # no option of the first call carries over: text, the env seed, one trial
    assert main(["verify", "ramee"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("ramee seed=7 ok (")
    assert lines[1] == "1/1 verdicts true"

    # a usage error in between leaves later calls unchanged
    assert main(["verify", "ramee", "--trials", "two"]) == 2
    capsys.readouterr()
    assert main(["verify", "ramee"]) == 0
    assert capsys.readouterr().out == out


REFUSED = {
    "no argv": [],
    "unknown command": ["prove", "ramee"],
    "missing kind": ["verify"],
    "unknown kind": ["verify", "frobnicate"],
    "kind of another command": ["replay", "pencil"],
    "unknown option": ["verify", "ramee", "--verbose"],
    "option of another command": ["replay", "ramee", "--trials", "2"],
    "abbreviation": ["verify", "ramee", "--se", "1"],
    "end of options": ["verify", "ramee", "--", "--json"],
    "missing value": ["verify", "ramee", "--seed"],
    "flag with a value": ["verify", "ramee", "--json=1"],
    "non-digit integer": ["verify", "ramee", "--trials", "two"],
    "signed integer": ["verify", "ramee", "--seed", "-5"],
    "plus-signed integer": ["replay", "ramee", "--seed=+5"],
    "non-ASCII digits": ["verify", "ramee", "--bounds", "\u0663\u0662"],
    "value starting with -": ["verify", "ramee", "-o", "-x"],
    "empty value": ["verify", "ramee", "--output="],
    "figure without -o": ["figure", "ramee", "--seed", "1"],
    "construct without --d": ["construct", "harmonic", "--b", "0", "--c", "2"],
}


@pytest.mark.parametrize("argv", REFUSED.values(), ids=REFUSED)
def test_refused_argv_returns_2(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_unknown_names_list_the_valid_ones(capsys):
    assert main(["verify", "frobnicate"]) == 2
    assert ", ".join(VERIFY_KINDS) in capsys.readouterr().err
    assert main(["replay", "ramee", "--se", "1"]) == 2
    assert capsys.readouterr().err == ("error: replay: unknown option '--se' "
                                       "(choose from --seed, --bounds, --json)\n")


@pytest.mark.parametrize("argv", (["--help"], ["-h"], ["verify", "--help"],
                                  ["verify", "ramee", "--seed", "1", "-h"]))
def test_help_prints_the_synopsis(argv, capsys):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == cli.SYNOPSIS
    assert len(out.splitlines()) == 4 and err == ""


# spellings int() reads and the reader refuses
_REFUSED_SEEDS = ("+5", "1_000", " 7 ", "\u0663", "-5", "")


@pytest.mark.parametrize("value", _REFUSED_SEEDS)
def test_env_seed_refuses_what_the_seed_option_refuses(value, monkeypatch, capsys):
    assert main(["verify", "ramee", "--seed", value]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: --seed needs an integer in digits, not {value!r}\n")
    monkeypatch.setenv("ARGUESIA_SEED", value)
    assert main(["verify", "ramee"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: ARGUESIA_SEED must be an integer, got {value!r}\n")


@pytest.mark.parametrize("value", ("7", "007"))
def test_env_seed_reads_as_the_seed_option(value, monkeypatch, capsys):
    assert main(["verify", "ramee", "--seed", value, "--json"]) == 0
    by_option = capsys.readouterr().out
    monkeypatch.setenv("ARGUESIA_SEED", value)
    assert main(["verify", "ramee", "--json"]) == 0
    assert capsys.readouterr().out == by_option
    assert json.loads(by_option)["reports"][0]["seed"] == 7


# argv pieces: mostly well-formed options, then abbreviations, the
# --opt=value form, help, "--", and values the reader refuses
_VALUES = ("5", "007", "-5", "+5", " 7", "1_0", "\u0663", "", "-x")
_PIECES = {
    "verify": (["--seed", "5"], ["--trials", "2"], ["--bounds", "40"], ["--json"],
               ["-o", "out.txt"], ["--output", "out.json"]),
    "replay": (["--seed", "5"], ["--bounds", "40"], ["--json"]),
}
_ODD = st.sampled_from(("--seed", "--trials", "--bounds", "-o", "--output", "--se", "--tri",
                        "--bo", "--js", "--out", "--seed=3", "-h", "--", "ramee", *_VALUES))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(("verify", "replay")))
    kinds = VERIFY_KINDS if command == "verify" else REPLAY_KINDS
    kind = draw(st.one_of(st.sampled_from(kinds), st.sampled_from(VERIFY_KINDS)))
    pieces = st.one_of(st.sampled_from(_PIECES["verify"] + _PIECES["replay"]),
                       st.tuples(st.sampled_from(("--seed", "--trials", "--bounds", "-o")),
                                 st.sampled_from(_VALUES)).map(list),
                       _ODD.map(lambda t: [t]))
    well_formed = st.sampled_from(_PIECES[command])
    chosen = draw(st.lists(st.one_of(well_formed, well_formed, well_formed, pieces), max_size=6))
    return [command, kind] + [token for piece in chosen for token in piece]


_DEFAULTS = {
    "verify": {"seed": 7, "trials": 1, "bounds": 32, "json": False, "output": None},
    "replay": {"seed": 7, "bounds": 32, "json": False},
}
_ATTRIBUTES = {"--seed": "seed", "--trials": "trials", "--bounds": "bounds", "-o": "output",
               "--output": "output"}


def _model(argv) -> dict | None:
    """What the rules read argv to, with ARGUESIA_SEED=7: the defaults with
    each piece applied in order, a piece being ``--json``, or an option of
    the command spelled in full with its value after a space or ``=``, the
    value ASCII digits for an integer and neither empty nor starting with
    ``-`` for a file; None for any other argv."""
    command, kind, rest = argv[0], argv[1], argv[2:]
    if kind not in (VERIFY_KINDS if command == "verify" else REPLAY_KINDS):
        return None
    args = dict(_DEFAULTS[command], command=command, kind=kind)
    while rest:
        if rest[0] == "--json":
            args["json"], rest = True, rest[1:]
            continue
        if "=" in rest[0]:
            (option, value), rest = rest[0].split("=", 1), rest[1:]
        elif len(rest) > 1:
            (option, value), rest = rest[:2], rest[2:]
        else:
            return None
        name = _ATTRIBUTES.get(option)
        if name not in args:
            return None
        if name != "output":
            if not (value.isascii() and value.isdigit()):
                return None
            value = int(value)
        elif value[:1] in ("", "-"):
            return None
        args[name] = value
    return args


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(_argv())
def test_reader_agrees_with_its_model(argv):
    # an argv the model reads is read to the same namespace; any other
    # returns 2 from main without raising, or 0 for help
    expected = _model(argv)
    if expected is not None:
        with mock.patch.dict(os.environ, {"ARGUESIA_SEED": "7"}):
            assert vars(cli._read_argv(argv)) == expected
    else:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert (code, out.getvalue() == "") == ((0, False) if "-h" in argv else (2, True)), argv


@pytest.fixture
def made(monkeypatch):
    """A one-item list counting the Fractions built while the test runs."""
    made = [0]
    real_new = fractions.Fraction.__dict__["__new__"]
    new = real_new.__func__ if isinstance(real_new, staticmethod) else real_new

    def counting_new(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counting_new))
    return made


def test_ramee_op_fraction_budget(made, capsys):
    # Brin ratios, drawn points and Menelaus products stay integers until
    # printed; 155 Fractions per op when each factor was one.
    per_op = []
    for seed in range(1, 6):
        before = made[0]
        assert main(["verify", "ramee", "--bounds", "30000", "--seed", str(seed)]) == 0
        per_op.append(made[0] - before)
    capsys.readouterr()
    assert max(per_op) <= 75, per_op


def test_generation_builds_no_fraction(made):
    # draws, parameters and euclidean constructions are integer pairs and
    # homogeneous integers from the draw to the instance
    for kind in KINDS:
        for seed in range(1, 21):
            before = made[0]
            generate_instance(InstanceConfig(kind, seed))
            assert made[0] == before, (kind, seed)


def test_no_verify_or_replay_op_builds_a_fraction(made, capsys):
    # fixed points, cross-ratios, Menelaus products and every printed side
    # are integer forms from the draw to the output bytes
    for bounds in ("32", "1000000"):
        for kind in VERIFY_KINDS:
            before = made[0]
            assert main(["verify", kind, "--seed", "1", "--trials", "20", "--bounds", bounds, "--json"]) == 0
            assert made[0] == before, (kind, bounds)
        for kind in REPLAY_KINDS:
            for seed in range(1, 21):
                before = made[0]
                assert main(["replay", kind, "--seed", str(seed), "--bounds", bounds, "--json"]) == 0
                assert made[0] == before, (kind, seed, bounds)
    capsys.readouterr()
