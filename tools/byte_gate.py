"""Byte gate: record what every command of a fixed matrix prints, and
compare two records, as ``SYNOPSIS`` spells them.

``record`` runs each command in this process through ``arguesia.cli.main``,
imported from ``DIR`` (default: the ``src`` of this checkout), and writes
one sha256 per command over its exit code, stdout, stderr and, for
``figure``, the SVG it wrote.  The source directory is written as
``<src>`` in stderr first, so a traceback digests the same from any
checkout.  ``compare`` prints each command whose digest differs or that
only one record has, and exits 1 if there is any, 0 otherwise.  The record
of this checkout is ``tests/bytes.json``, which ``tests/test_byte_gate.py``
compares command by command; a change that alters bytes on purpose re-records it and names the
commands that ``compare`` lists against the old file.

The matrix, over the verify, replay and figure kinds of the ``arguesia.cli``
in ``DIR``: every verify kind, text and ``--json``, ``--trials 25`` at
bounds 8, 32, 3*10**4 and 10**18; the instance seeds that perfbench's
workload seed 1 times first, ``--seed 1000001 --trials 50``, text and
``--json``, for ``verify ramee`` at bounds 32 and 3*10**4 and for each
``conics`` workload kind at bounds 32; every replay kind, text and
``--json``, at seeds 1-20; ``figure`` of every kind at seeds 1-3; and
``construct harmonic`` on three triples of values.  Then ``--json`` at
seed 1: every verify kind with ``--trials 20``, and ``WIDE``'s runs at
bounds 3*10**4, 10**6 and 10**300 and at seed 9542; the pascal, beaugrand
and retablissement figures at seed 2 and bounds 10**6; the benchmark's
output checks, ``BENCH_CHECKS``, spelled as ``perfbench/run.py`` runs them;
and ``USAGE``, help and the refused argv, from no argv at all to a
``construct`` without ``--d`` and bounds below 8.  Standard library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

# printed for any other argv; a string, not the docstring, so -OO keeps it
SYNOPSIS = """\
    python3 tools/byte_gate.py record OUT.json [--src DIR]
    python3 tools/byte_gate.py compare A.json B.json
"""

SRC = Path(__file__).resolve().parent.parent / "src"
SVG = "{svg}"  # stands for the figure's output file in a recorded command

CONSTRUCT_VALUES = (("0", "2", "3"), ("1/2", "5/3", "7"), ("0", "2", "1"))
# (kind, bounds) of the benchmark's timed verify ops, run from TIMED_SEED
TIMED_VERIFY = (("ramee", 32), ("ramee", 3 * 10**4), ("quadrangle", 32), ("pencil", 32),
                ("pascal", 32), ("parallel-bornales", 32))
TIMED_SEED = 1_000_001
# options of the seed-1 --json runs at the bounds where the arithmetic
# grows: square roots that need factoring, large perspectivity, chord and
# ratio entries, and printed integers past Python's 4,300-digit default.
# Seed 9542's fixed point 0/1 is carried to infinity: both sides print inf.
WIDE = (
    ("verify", "ramee", "--bounds", "30000"),
    ("verify", "ramee", "--seed", "9542", "--trials", "1"),
    ("verify", "ramee", "--trials", "10", "--bounds", str(10**6)),
    ("verify", "retablissement", "--bounds", "30000"),
    ("verify", "retablissement", "--bounds", str(10**6)),
    ("verify", "quadrangle", "--bounds", str(10**6)),
    ("verify", "pencil", "--bounds", str(10**6)),
    ("verify", "beaugrand", "--bounds", str(10**6)),
    ("verify", "pascal", "--bounds", str(10**6)),
    ("verify", "parallel-bornales", "--bounds", str(10**6)),
    ("verify", "pencil", "--bounds", str(10**300)),
    ("replay", "beaugrand", "--bounds", str(10**300)),
    ("replay", "pascal", "--bounds", str(10**6)),
)
WIDE_FIGURES = ("pascal", "beaugrand", "retablissement")  # seed 2 at bounds 10**6
# argv that the CLI refuses, and help
USAGE = ((), ("--help",), ("verify", "frobnicate"), ("verify", "ramee", "--verbose"),
         ("verify", "ramee", "--seed"), ("verify", "ramee", "--trials", "two"),
         ("figure", "ramee", "--seed", "1"), ("construct", "harmonic", "--b", "0", "--c", "2"),
         ("verify", "midpoint", "--bounds", "7"))
# the benchmark's output checks, spelled as it runs them: (command, kind,
# bounds, seeds 1..n)
BENCH_CHECKS = (
    ("verify", "ramee", 32, 20), ("verify", "ramee", 3 * 10**4, 8),
    *(("verify", kind, 32, 4)
      for kind in ("quadrangle", "pencil", "pascal", "parallel-bornales", "beaugrand")),
    *(("verify", kind, 32, 1) for kind in ("menelaus", "midpoint", "bisector", "retablissement")),
    *(("replay", kind, 32, 1) for kind in ("ramee", "quadrangle", "pascal", "beaugrand")),
)


def load_cli(src: Path = SRC):
    """``arguesia.cli``, imported from ``src``."""
    src = str(Path(src).resolve())
    if src not in sys.path:
        sys.path.insert(0, src)
    import arguesia.cli

    if not Path(arguesia.cli.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"arguesia was imported from {arguesia.cli.__file__}, not {src}")
    return arguesia.cli


def full_matrix(src: Path = SRC) -> list[list[str]]:
    """The argv of every command the gate runs, in order, over the kinds
    of the ``arguesia.cli`` in ``src``."""
    cli = load_cli(src)
    commands = []
    for kind in cli.VERIFY_KINDS:
        for bounds in (8, 32, 3 * 10**4, 10**18):
            for fmt in ([], ["--json"]):
                commands.append(["verify", kind, "--seed", "1", "--trials", "25",
                                 "--bounds", str(bounds)] + fmt)
    for kind, bounds in TIMED_VERIFY:
        for fmt in ([], ["--json"]):
            commands.append(["verify", kind, "--seed", str(TIMED_SEED), "--trials", "50",
                             "--bounds", str(bounds)] + fmt)
    for kind in cli.REPLAY_KINDS:
        for seed in range(1, 21):
            for fmt in ([], ["--json"]):
                commands.append(["replay", kind, "--seed", str(seed)] + fmt)
    for kind in cli.FIGURE_KINDS:
        for seed in (1, 2, 3):
            commands.append(["figure", kind, "--seed", str(seed), "-o", SVG])
    for b, c, d in CONSTRUCT_VALUES:
        commands.append(["construct", "harmonic", "--b", b, "--c", c, "--d", d])
    # seed 1 with --json at the default bounds (each replay's run is above)
    # and then WIDE; later options override the earlier ones
    for command, kind, *extra in [("verify", kind) for kind in cli.VERIFY_KINDS] + [*WIDE]:
        trials = ["--trials", "20"] if command == "verify" else []
        commands.append([command, kind, "--seed", "1", *trials, *extra, "--json"])
    for kind in WIDE_FIGURES:
        commands.append(["figure", kind, "--seed", "2", "--bounds", str(10**6), "-o", SVG])
    for command, kind, bounds, seeds in BENCH_CHECKS:
        for seed in range(1, seeds + 1):
            commands.append([command, kind, "--seed", str(seed), "--bounds", str(bounds),
                             "--json"])
    commands += [list(argv) for argv in USAGE]
    return commands


def _digest(main, argv: list[str], workdir: Path, src: str) -> str:
    svg = workdir / "figure.svg"
    svg.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(svg) if arg == SVG else arg for arg in argv])
    h = hashlib.sha256()
    for part in (str(code), out.getvalue(), err.getvalue().replace(src, "<src>")):
        h.update(part.encode("utf-8") + b"\0")
    if svg.exists():
        h.update(svg.read_bytes())
    return h.hexdigest()


def record(commands: list[list[str]], src: Path = SRC) -> dict[str, str]:
    """Command line -> sha256 of what it printed, wrote and returned."""
    main = load_cli(src).main
    src = str(Path(src).resolve())
    with tempfile.TemporaryDirectory() as tmp:
        return {" ".join(argv): _digest(main, argv, Path(tmp), src) for argv in commands}


def compare(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """The commands whose digests differ or that only one record has."""
    return sorted(cmd for cmd in a.keys() | b.keys() if a.get(cmd) != b.get(cmd))


def main(argv: list[str]) -> int:
    if len(argv) in (2, 4) and argv[0] == "record" and argv[2:3] in ([], ["--src"]):
        src = Path(argv[3]) if len(argv) == 4 else SRC
        digests = record(full_matrix(src), src)
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
    print(SYNOPSIS, end="", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
