"""Byte gate: record what every command of a fixed matrix prints, and
compare two records.

    python3 tools/byte_gate.py record OUT.json [--src DIR]
    python3 tools/byte_gate.py compare A.json B.json

``record`` runs each command in this process through ``arguesia.cli.main``,
imported from ``DIR`` (default: the ``src`` of this checkout), and writes
one sha256 per command over its exit code, stdout, stderr and, for
``figure``, the SVG it wrote.  The source directory is written as
``<src>`` in stderr first, so a traceback digests the same from any
checkout.  ``compare`` prints each command whose digest differs or that
only one record has, and exits 1 if there is any, 0 otherwise.  Record
the parent and the change, each with its own ``--src``, then compare.

The matrix: every verify kind, text and ``--json``, ``--trials 25`` at
bounds 8, 32, 3*10**4 and 10**18; the instance seeds that perfbench's
workload seed 1 times first, ``--seed 1000001 --trials 50``, text and
``--json``, for ``verify ramee`` at bounds 32 and 3*10**4 and for each
``conics`` workload kind at bounds 32; every replay kind, text and
``--json``, at seeds 1-20; ``figure`` of every kind at seeds 1-3; and
``construct harmonic`` on three triples of values.  Standard library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SVG = "{svg}"  # stands for the figure's output file in a recorded command

VERIFY_KINDS = ("menelaus", "ramee", "quadrangle", "pencil", "pascal", "beaugrand",
                "parallel-bornales", "midpoint", "bisector", "retablissement")
REPLAY_KINDS = ("ramee", "quadrangle", "beaugrand", "pascal")
FIGURE_KINDS = ("menelaus", "ramee", "quadrangle", "pencil", "pascal", "beaugrand",
                "harmonic", "bisector", "parallel-bornales", "retablissement", "p13")
CONSTRUCT_VALUES = (("0", "2", "3"), ("1/2", "5/3", "7"), ("0", "2", "1"))
# (kind, bounds) of the benchmark's timed verify ops, run from TIMED_SEED
TIMED_VERIFY = (("ramee", 32), ("ramee", 3 * 10**4), ("quadrangle", 32), ("pencil", 32),
                ("pascal", 32), ("parallel-bornales", 32))
TIMED_SEED = 1_000_001


def full_matrix() -> list[list[str]]:
    """The argv of every command the gate runs, in order."""
    commands = []
    for kind in VERIFY_KINDS:
        for bounds in (8, 32, 3 * 10**4, 10**18):
            for fmt in ([], ["--json"]):
                commands.append(["verify", kind, "--seed", "1", "--trials", "25",
                                 "--bounds", str(bounds)] + fmt)
    for kind, bounds in TIMED_VERIFY:
        for fmt in ([], ["--json"]):
            commands.append(["verify", kind, "--seed", str(TIMED_SEED), "--trials", "50",
                             "--bounds", str(bounds)] + fmt)
    for kind in REPLAY_KINDS:
        for seed in range(1, 21):
            for fmt in ([], ["--json"]):
                commands.append(["replay", kind, "--seed", str(seed)] + fmt)
    for kind in FIGURE_KINDS:
        for seed in (1, 2, 3):
            commands.append(["figure", kind, "--seed", str(seed), "-o", SVG])
    for b, c, d in CONSTRUCT_VALUES:
        commands.append(["construct", "harmonic", "--b", b, "--c", c, "--d", d])
    return commands


def _digest(main, argv: list[str], workdir: Path, src: str) -> str:
    svg = workdir / "figure.svg"
    svg.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(svg) if arg == SVG else arg for arg in argv])
        except SystemExit as exc:  # argparse's usage errors and help
            code = exc.code
    h = hashlib.sha256()
    for part in (str(code), out.getvalue(), err.getvalue().replace(src, "<src>")):
        h.update(part.encode("utf-8") + b"\0")
    if svg.exists():
        h.update(svg.read_bytes())
    return h.hexdigest()


def record(commands: list[list[str]], src: Path = SRC) -> dict[str, str]:
    """Command line -> sha256 of what it printed, wrote and returned."""
    src = str(Path(src).resolve())
    if src not in sys.path:
        sys.path.insert(0, src)
    import arguesia
    from arguesia.cli import main

    if not Path(arguesia.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"arguesia was imported from {arguesia.__file__}, not {src}")

    with tempfile.TemporaryDirectory() as tmp:
        return {" ".join(argv): _digest(main, argv, Path(tmp), src) for argv in commands}


def compare(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """The commands whose digests differ or that only one record has."""
    return sorted(cmd for cmd in a.keys() | b.keys() if a.get(cmd) != b.get(cmd))


def main(argv: list[str]) -> int:
    if len(argv) in (2, 4) and argv[0] == "record" and argv[2:3] in ([], ["--src"]):
        src = Path(argv[3]) if len(argv) == 4 else SRC
        digests = record(full_matrix(), src)
        Path(argv[1]).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(digests)} commands from {src}")
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        a, b = (json.loads(Path(p).read_text()) for p in argv[1:])
        differ = compare(a, b)
        for cmd in differ:
            print(f"differs: {cmd}")
        print(f"{len(differ)} of {len(a.keys() | b.keys())} commands differ")
        return 1 if differ else 0
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
