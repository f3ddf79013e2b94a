"""Repeated in-process ``main`` calls: a well-formed ``verify`` or
``replay`` argv is read without argparse, to the namespace argparse makes
of it, and any other argv builds one parser per process; and the
``Fraction`` budgets: none in instance generation, and none in any verify
or replay op."""

import argparse
import fractions
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arguesia import cli
from arguesia.cli import REPLAY_KINDS, VERIFY_KINDS, main
from arguesia.instances import KINDS, InstanceConfig, generate_instance


def test_cached_parser_reads_each_call_afresh(monkeypatch, capsys):
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
    with pytest.raises(SystemExit) as exc:
        main(["verify", "ramee", "--trials", "two"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["verify", "ramee"]) == 0
    assert capsys.readouterr().out == out


def test_well_formed_calls_build_no_parser(monkeypatch, capsys):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "arguesia":
            built.append(self)
        real_init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for seed in range(1, 11):
        assert main(["verify", "midpoint", "--seed", str(seed)]) == 0
    assert built == []
    out = capsys.readouterr().out
    # an abbreviated option goes to argparse, which builds the one parser
    assert main(["verify", "midpoint", "--se", "10"]) == 0
    assert len(built) == 1
    assert out.endswith(capsys.readouterr().out)
    # and a later malformed call reuses it
    with pytest.raises(SystemExit) as exc:
        main(["verify", "midpoint", "--seed", "ten"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert len(built) == 1


# argv pieces: mostly well-formed options, then abbreviations, the
# --opt=value form, help, "--", and values argparse reads differently or refuses
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


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(_argv())
def test_reader_agrees_with_argparse(argv):
    args = cli._read_argv(argv)
    if args is not None:
        assert vars(args) == vars(cli.build_parser().parse_args(argv))
    allowed = _PIECES[argv[0]]
    kinds = VERIFY_KINDS if argv[0] == "verify" else REPLAY_KINDS
    rest = argv[2:]
    while rest:
        n = 1 if rest[0] == "--json" else 2
        if rest[:n] not in allowed:
            break
        rest = rest[n:]
    else:
        # built from well-formed pieces alone: the reader reads it
        assert (args is not None) == (argv[1] in kinds), argv


def test_import_builds_no_parser():
    code = (
        "import arguesia.cli as c; print(c.build_parser.cache_info().currsize); "
        "c.main(['construct', 'harmonic', '--b', '0', '--c', '2', '--d', '3']); "
        "print(c.build_parser.cache_info().currsize)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n3/2\n1\n"


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
