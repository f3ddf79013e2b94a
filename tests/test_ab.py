"""tools/ab.py: an A/A run of this checkout against itself reports the
documented schema with both sides' output digests equal, and a tree that
prints other bytes makes the digests disagree and the tool exit 1.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab.py"


def _ab(base: Path, change: Path) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--base", str(base), "--change", str(change),
         "--workload", "ramee", "--pairs", "2", "--ops", "4"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.stderr == ""
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def test_aa_run_reports_the_schema_and_equal_digests():
    code, report = _ab(ROOT, ROOT)
    assert code == 0
    assert set(report) == {"workload", "pairs", "ops", "warmup_ops", "base", "change", "ratio",
                           "change_won", "failed_ops", "digests_agree"}
    assert (report["workload"], report["pairs"], report["ops"]) == ("ramee", 2, 4)
    assert set(report["base"]) == {"tree", "rev", "ms_per_op"}
    assert report["base"]["rev"] is None
    for spread in (report["base"]["ms_per_op"], report["change"]["ms_per_op"], report["ratio"]):
        assert set(spread) == {"median", "q1", "q3"}
        assert 0 < spread["q1"] <= spread["median"] <= spread["q3"]
    assert 0 <= report["change_won"] <= 2
    assert (report["failed_ops"], report["digests_agree"]) == (0, True)


def test_other_bytes_make_the_digests_disagree(tmp_path):
    # negative control: a copy of the library whose ramee replay notes print
    # another value for the shortcut note
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    engine = tmp_path / "src" / "arguesia" / "menelaus_engine.py"
    text = engine.read_text()
    assert 'trace.notes["shortcut"] = False' in text
    engine.write_text(text.replace('trace.notes["shortcut"] = False',
                                   'trace.notes["shortcut"] = True'))
    code, report = _ab(ROOT, tmp_path)
    assert (code, report["failed_ops"], report["digests_agree"]) == (1, 0, False)
