"""In-process A/B timing of two arguesia trees on one benchmark workload.

    python3 tools/ab.py --base REV|DIR [--change DIR] --workload ramee|ramee-wide|conics \
        --pairs N --ops K

``--base`` is a directory holding ``src/arguesia`` or a git revision of
this checkout, which ``git archive`` extracts into a temporary directory
outside the checkout, removed afterwards.  ``--change`` defaults to this
checkout.  Each of the N pairs runs one child process per side, the side
that goes first alternating from pair to pair.  A child imports
``arguesia`` from its own tree's ``src``, runs a warm-up batch of
``WARMUP_OPS`` ops from workload seed 2, then times K ops from workload
seed 1 (instance seed 1,000,001 on), in CPU time, each op one
``arguesia.cli.main`` call.  The ops are the ones ``perfbench/run.py``
times on the workload, taken from this checkout's benchmark.

The report gives each side's ms per op (median and quartiles over the
pairs), the median per-pair ratio of the change's ops/s to the base's with
its quartiles, how many pairs the change won, and whether every child's
sha256 over its K outputs is the same.  Its last line is the report as one
JSON object.  Exit 1 when an op fails or the digests differ.  Two runs of
one tree against itself (``--base DIR --change DIR``) give the A/A spread
that a difference between trees must exceed.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ramee", "ramee-wide", "conics")
WARMUP_OPS = 20

# one side's batch: warm-up, then K timed ops, outputs hashed after the clock stops
CHILD = """\
import contextlib, hashlib, io, json, sys, time
src = sys.argv[1]
sys.path.insert(0, src)
import arguesia.cli
warmup, timed = json.load(sys.stdin)

def run(ops):
    outs, failed = [], 0
    for argv in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            failed += arguesia.cli.main(argv) != 0
        outs.append(out.getvalue())
    return outs, failed

run(warmup)
t0 = time.process_time()
outs, failed = run(timed)
cpu_s = time.process_time() - t0
h = hashlib.sha256()
for out in outs:
    h.update(out.encode() + b"\\0")
print(json.dumps({"cpu_s": cpu_s, "failed": failed, "digest": h.hexdigest(),
                  "module": arguesia.cli.__file__}))
"""


def perfbench_ops(workload: str, counts: dict[int, int]) -> dict[int, list[list[str]]]:
    """Workload seed -> the first ``counts[seed]`` argv that
    ``perfbench/run.py`` times on the workload from that seed."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # its dataclasses look their module up
    spec.loader.exec_module(run)
    w = run.WORKLOADS[workload]
    return {seed: list(islice(run.timed_ops(w, seed), n)) for seed, n in counts.items()}


def extract(rev: str, into: Path) -> str:
    """Extract revision ``rev`` of this checkout into ``into``; its commit id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        # the "data" filter where this Python has extraction filters
        archive.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return commit


def run_side(tree: Path, warmup, timed) -> dict:
    """One child's batch on ``tree``: CPU seconds of the timed ops, failed
    ops and the digest of their outputs."""
    src = (tree / "src").resolve()
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "ARGUESIA_SEED")}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src)],
                          input=json.dumps([warmup, timed]), capture_output=True, text=True,
                          env=env)
    if proc.returncode != 0:
        raise SystemExit(f"child on {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not Path(result["module"]).resolve().is_relative_to(src):
        raise SystemExit(f"child imported {result['module']}, not arguesia from {src}")
    return result


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                  else values * 3)
    return {"median": q2, "q1": q1, "q3": q3}


def compare(base: Path, change: Path, workload: str, pairs: int, ops: int) -> dict:
    ops_by_seed = perfbench_ops(workload, {1: ops, 2: WARMUP_OPS})
    timed, warmup = ops_by_seed[1], ops_by_seed[2]
    ms = {"base": [], "change": []}
    digests, failed = set(), 0
    for i in range(pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            result = run_side(base if side == "base" else change, warmup, timed)
            ms[side].append(1000 * result["cpu_s"] / ops)
            digests.add(result["digest"])
            failed += result["failed"]
    ratios = [b / c for b, c in zip(ms["base"], ms["change"])]
    return {
        "workload": workload, "pairs": pairs, "ops": ops, "warmup_ops": WARMUP_OPS,
        "base": {"tree": str(base), "ms_per_op": spread(ms["base"])},
        "change": {"tree": str(change), "ms_per_op": spread(ms["change"])},
        "ratio": spread(ratios),  # change ops/s over base ops/s, per pair
        "change_won": sum(r > 1 for r in ratios),
        "failed_ops": failed,
        "digests_agree": len(digests) == 1,
    }


def report_lines(r: dict) -> list[str]:
    def ms(side):
        s = r[side]["ms_per_op"]
        return (f"{side:<6} {s['median']:.4f} ms/op (q1 {s['q1']:.4f}, q3 {s['q3']:.4f})"
                f"  {r[side]['tree']}")

    q = r["ratio"]
    return [
        f"{r['workload']}: {r['pairs']} pairs of {r['ops']} ops after {r['warmup_ops']} warm-up"
        " ops, CPU time",
        ms("base"),
        ms("change"),
        f"change/base ops/s: median {q['median'] - 1:+.1%}"
        f" (q1 {q['q1'] - 1:+.1%}, q3 {q['q3'] - 1:+.1%});"
        f" change won {r['change_won']} of {r['pairs']} pairs",
        f"failed ops: {r['failed_ops']};"
        f" output digests agree: {'yes' if r['digests_agree'] else 'NO'}",
        json.dumps(r, sort_keys=True),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="In-process A/B timing of two arguesia trees.")
    parser.add_argument("--base", required=True,
                        help="a tree holding src/arguesia, or a git revision of this checkout")
    parser.add_argument("--change", default=str(ROOT),
                        help="a tree holding src/arguesia (default: this checkout)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.ops < 1:
        parser.error("--pairs and --ops must be at least 1")
    change = Path(args.change).resolve()
    if not (change / "src" / "arguesia").is_dir():
        parser.error(f"--change {args.change} holds no src/arguesia")
    tmp = None
    try:
        base = Path(args.base).resolve()
        rev = None
        if not (base / "src" / "arguesia").is_dir():
            tmp = Path(tempfile.mkdtemp(prefix="arguesia-ab-"))
            try:
                rev = extract(args.base, tmp)
            except subprocess.CalledProcessError as exc:
                parser.error(f"--base {args.base} is neither a tree nor a revision: "
                             f"{exc.stderr.strip() if isinstance(exc.stderr, str) else exc}")
            base = tmp
        report = compare(base, change, args.workload, args.pairs, args.ops)
        if rev is not None:
            report["base"]["tree"] = f"{args.base} at {rev}"
        report["base"]["rev"] = rev
    finally:
        if tmp is not None:
            shutil.rmtree(tmp)
    print("\n".join(report_lines(report)))
    return 0 if report["digests_agree"] and not report["failed_ops"] else 1


if __name__ == "__main__":
    sys.exit(main())
