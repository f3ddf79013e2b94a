"""tools/byte_gate.py: identical runs record identical digests, and a
changed digest fails ``compare``."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "byte_gate.py"
_spec = importlib.util.spec_from_file_location("byte_gate", TOOL)
byte_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(byte_gate)

SMALL = [
    ["verify", "midpoint", "--seed", "1", "--trials", "3", "--json"],
    ["verify", "bisector", "--seed", "1", "--trials", "3", "--bounds", "8"],
    ["replay", "ramee", "--seed", "2"],
    ["figure", "p13", "--seed", "1", "-o", byte_gate.SVG],
    ["construct", "harmonic", "--b", "0", "--c", "2", "--d", "3"],
    ["verify", "midpoint", "--bounds", "7"],  # a usage error, exit 2
]


def test_full_matrix_covers_every_cli_kind():
    from arguesia.cli import FIGURE_KINDS, REPLAY_KINDS, VERIFY_KINDS

    assert set(byte_gate.VERIFY_KINDS) == set(VERIFY_KINDS)
    assert set(byte_gate.REPLAY_KINDS) == set(REPLAY_KINDS)
    assert set(byte_gate.FIGURE_KINDS) == set(FIGURE_KINDS)


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
