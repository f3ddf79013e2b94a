"""tools/byte_gate.py: every command of its matrix prints the bytes that
``tests/bytes.json`` records, identical runs record identical digests, and
a changed digest fails ``compare``.

A change that alters output bytes on purpose re-records the file with
``python3 tools/byte_gate.py record tests/bytes.json``.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "byte_gate.py"
RECORD = ROOT / "tests" / "bytes.json"
_spec = importlib.util.spec_from_file_location("byte_gate", TOOL)
byte_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(byte_gate)

MATRIX = byte_gate.full_matrix()
RECORDED = json.loads(RECORD.read_text())


@pytest.mark.parametrize("argv", MATRIX, ids=" ".join)
def test_bytes(argv):
    # the command prints, writes and returns what tests/bytes.json records
    command = " ".join(argv)
    assert byte_gate.record([argv]) == {command: RECORDED.get(command)}


def test_record_holds_exactly_the_matrix():
    assert sorted(RECORDED) == sorted(" ".join(argv) for argv in MATRIX)


def test_record_holds_every_benchmark_check():
    benchmark = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    assert set(benchmark) <= set(RECORDED)


SMALL = [
    ["verify", "midpoint", "--seed", "1", "--trials", "3", "--json"],
    ["verify", "bisector", "--seed", "1", "--trials", "3", "--bounds", "8"],
    ["replay", "ramee", "--seed", "2"],
    ["figure", "p13", "--seed", "1", "-o", byte_gate.SVG],
    ["construct", "harmonic", "--b", "0", "--c", "2", "--d", "3"],
    ["verify", "midpoint", "--bounds", "7"],  # a usage error, exit 2
]


def test_two_records_agree_and_a_changed_one_fails(tmp_path, capsys):
    first, second = byte_gate.record(SMALL), byte_gate.record(SMALL)
    assert first == second and len(set(first.values())) == len(SMALL)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(first))
    b.write_text(json.dumps(second))
    assert byte_gate.main(["compare", str(a), str(b)]) == 0

    changed = dict(second)
    cmd = "replay ramee --seed 2"
    changed[cmd] = "0" * 64
    assert byte_gate.compare(first, changed) == [cmd]
    b.write_text(json.dumps(changed))
    capsys.readouterr()
    assert byte_gate.main(["compare", str(a), str(b)]) == 1
    assert f"differs: {cmd}" in capsys.readouterr().out
    del changed[cmd]
    assert byte_gate.compare(first, changed) == [cmd]


def test_usage_is_printed_under_OO():
    # python -OO strips docstrings; the usage is a string of its own
    for flags in ([], ["-OO"]):
        proc = subprocess.run([sys.executable, *flags, str(TOOL)],
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", byte_gate.SYNOPSIS), flags
