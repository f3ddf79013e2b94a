#!/usr/bin/env python3
"""Benchmark for arguesia: closed-loop verify workloads, end to end and per layer.

    python3 perfbench/run.py --workload ramee --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all               # every workload in turn
    python3 perfbench/run.py --workload conics --profile 30
    python3 perfbench/run.py --record-digests

One caller runs one op at a time (a closed loop with one client).  An op is
one seeded instance taken through the same path as
``arguesia verify <kind> --seed s --json``: argument parsing, generation,
verification and serialization, in this process through ``arguesia.cli.main``.
On the ``cli`` workload an op is one ``arguesia`` subprocess instead.  Op
``i`` of a run with workload seed ``n`` uses the workload's command
``i mod len(commands)`` on instance seed ``n * 1_000_000 + 1 + i // len(commands)``,
so each workload seed gives its own run of consecutive instance seeds.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` runs a fixed list of ops twice from an empty chart cache, first
untraced and then with every layer's public callables wrapped (see
``tracer.py``), and reports per-layer counts and self times and the tracing
overhead.  Spans go to ``.bench_build/perfbench/``.  Both modes check every
op: exit code 0 (all verdicts true) within the op's deadline, and the output
digest wherever ``digests.json`` records one.  After the timed ops a check pass
runs the recorded default-seed ops, then the seeds known to exit 2 today are
run and reported apart from the counts.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
DIGESTS = HERE / "digests.json"

SEED_STRIDE = 1_000_000
SETUP_SPAWNS = 24  # fresh interpreters timed per run, spread over the measuring window
CLI_ENTRY = "import sys; from arguesia.cli import main; sys.exit(main())"
READY_PROBE = "import arguesia.cli; print('ready', flush=True)"

VERIFY_KINDS = ("menelaus", "ramee", "quadrangle", "pencil", "pascal", "beaugrand",
                "parallel-bornales", "midpoint", "bisector", "retablissement")


@dataclass(frozen=True)
class Workload:
    commands: tuple  # (command, kind, bounds), cycled op by op
    deadline_s: float  # an op still running after this has failed
    rss_ops: int  # peak RSS is read after this many ops, so faster code is not charged for more ops
    trace_ops: int  # fixed op count of the traced run, so its counts repeat exactly
    check_seeds: int  # default seeds 1..check_seeds of every check command are digest-checked
    check_only: tuple = ()  # commands run only in the check pass
    known_defects: tuple = ()  # (command, seed) expected to exit 2; reported, not counted
    subprocess: bool = False


# Two commands are left out of the timed ops because they exit 2 on rare
# seeds, which would fail whole runs: `verify/replay beaugrand` on about one
# seed in 2,000 (auxiliary parallel chord tangent: seeds 920, 5001634,
# 7000597) and `replay pascal` on 2 of 3,000 seeds scanned ("needs the
# circle case": seeds 210000003, 210000037).  Both still run on their
# recorded seeds, and the failing seeds run as known defects, so a fix shows.
WORKLOADS = {
    # Menelaus engine, projective core and Fraction; the chart cache hits.
    "ramee": Workload((("verify", "ramee", 32),), 10, 1000, 150, 20),
    # Larger coefficients: exact_scalar's trial-division square roots cost ~70x ramee's.
    "ramee-wide": Workload((("verify", "ramee", 30_000),), 30, 600, 150, 8),
    # Conics, involution and theorems layers; many distinct lines miss the cache.
    "conics": Workload(
        tuple(("verify", k, 32) for k in ("quadrangle", "pencil", "pascal", "parallel-bornales")),
        10, 1500, 200, 4, check_only=(("verify", "beaugrand", 32),),
        known_defects=tuple((("verify", "beaugrand", 32), s) for s in (920, 5001634, 7000597))),
    # Start-up and the exact bytes users see, on the kinds no other workload runs.
    "cli": Workload(
        tuple(("verify", k, 32) for k in VERIFY_KINDS if k != "beaugrand")
        + tuple(("replay", k, 32) for k in ("ramee", "quadrangle")),
        30, 0, 44, 1,
        check_only=(("verify", "beaugrand", 32), ("replay", "beaugrand", 32),
                    ("replay", "pascal", 32)),
        known_defects=((("replay", "beaugrand", 32), 920), (("replay", "pascal", 32), 210000003)),
        subprocess=True),
}


TIMED_VERIFY_KINDS = tuple(k for k in VERIFY_KINDS if any(
    c[:2] == ("verify", k) for w in WORKLOADS.values() for c in w.commands))


class Deadline(BaseException):
    """Raised into an in-process op that ran past its deadline."""


def _on_alarm(signum, frame):
    raise Deadline()


@dataclass
class OpResult:
    argv: list
    seconds: float
    out: bytes
    error: str  # empty when the op passed its checks

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.out).hexdigest()


def op_argv(command, seed: int) -> list[str]:
    cmd, kind, bounds = command
    return [cmd, kind, "--seed", str(seed), "--bounds", str(bounds), "--json"]


def timed_ops(w: Workload, seed: int):
    """Endless argv stream of a run: consecutive instance seeds from the workload seed."""
    start = (seed * SEED_STRIDE + 1) % (1 << 63)
    i = 0
    while True:
        yield op_argv(w.commands[i % len(w.commands)], start + i // len(w.commands))
        i += 1


def check_ops(w: Workload) -> list[list[str]]:
    return [op_argv(c, s) for s in range(1, w.check_seeds + 1)
            for c in w.commands + w.check_only]


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("ARGUESIA_SEED", None)
    return env


# ---------------------------------------------------------------------------
# running one op


def run_in_process(argv, deadline_s) -> OpResult:
    from arguesia import cli

    out, err = io.StringIO(), io.StringIO()
    error = ""
    t0 = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Deadline:
        code, error = None, f"passed its {deadline_s} s deadline"
    except Exception as exc:  # an op that raises is a failed op, not a crash
        code, error = None, f"raised {exc!r}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = perf_counter() - t0
    if code is not None and code != 0:
        error = f"exit {code}: {err.getvalue().strip()[:200]}"
    return OpResult(argv, seconds, out.getvalue().encode(), error)


def run_subprocess(argv, deadline_s, trace_to: Path | None = None, op_id: int = 0) -> OpResult:
    if trace_to is None:
        cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
    else:
        cmd = [sys.executable, str(HERE / "child.py"), str(trace_to), str(op_id), *argv]
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, timeout=deadline_s)
    except subprocess.TimeoutExpired:
        return OpResult(argv, perf_counter() - t0, b"", f"passed its {deadline_s} s deadline")
    seconds = perf_counter() - t0
    error = ""
    if proc.returncode != 0:
        error = f"exit {proc.returncode}: {proc.stderr.decode(errors='replace').strip()[-200:]}"
    return OpResult(argv, seconds, proc.stdout, error)


class Checker:
    """Applies the output checks and keeps the tallies for the result line."""

    def __init__(self, recorded: dict):
        self.recorded = recorded
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, res: OpResult) -> bool:
        self.attempted += 1
        key = " ".join(res.argv)
        error = res.error
        if not error and key in self.recorded and res.digest != self.recorded[key]:
            error = "output digest differs from the recorded one"
        if error:
            self.failures.append(f"{key}: {error}")
        return not error


# ---------------------------------------------------------------------------
# measurements


def spawn_ready() -> float:
    """Time from spawning an interpreter until arguesia.cli is imported."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", READY_PROBE], env=child_env(),
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        ready = perf_counter()
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
            raise RuntimeError("arguesia.cli failed to import in a fresh interpreter")
    return ready - t0


def measure_setup() -> float:
    spawn_ready()  # the first spawn may write bytecode caches
    return statistics.median(spawn_ready() for _ in range(SETUP_SPAWNS))


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_untraced(w: Workload, seed: int, seconds: float, checker: Checker) -> tuple[dict, list[str]]:
    # Set-up is timed on fresh interpreters spread evenly over the window, so
    # its median samples the host at the same moments as the ops; spawn time
    # is left out of the ops' time.
    spawn_ready()  # the first spawn may write bytecode caches
    runner = run_subprocess if w.subprocess else run_in_process
    latencies, setups = [], []
    rss = None
    spawn_time = 0.0
    t_start = perf_counter()
    t_end = t_start + seconds
    ops = timed_ops(w, seed)
    while (now := perf_counter()) < t_end:
        due = t_start + len(setups) * seconds / SETUP_SPAWNS
        # at most one spawn between two ops, so a short window still runs ops
        if len(setups) < SETUP_SPAWNS and now >= due and len(setups) <= len(latencies):
            setups.append(spawn_ready())
            spawn_time += perf_counter() - now
            continue
        res = runner(next(ops), w.deadline_s)
        latencies.append(res.seconds)
        if not checker.check(res):
            break
        if len(latencies) == w.rss_ops:
            rss = peak_rss_mb(w.subprocess)
    elapsed = perf_counter() - t_start - spawn_time
    if rss is None:
        rss = peak_rss_mb(w.subprocess)
    # The latency percentiles are printed but not gated: per-op times on a
    # shared host fall in a fast and a slow mode, and a percentile jumps
    # between them from run to run (see README.md).
    notes = [f"{len(latencies)} ops in {elapsed:.2f} s, {len(setups)} set-ups timed in between; "
             f"peak RSS over the first {w.rss_ops or 'all'} ops",
             f"{'op_ms.p50':44s} {statistics.median(latencies) * 1000:14.6g} ms (not gated)",
             f"{'op_ms.p90':44s} {percentile(latencies, 90) * 1000:14.6g} ms (not gated)"]
    return {
        "ops_per_s": (len(latencies) / elapsed, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }, notes


def run_pass(w: Workload, ops, checker: Checker, tracer=None, trace_dir=None):
    """Run a fixed op list; returns the results and the wall time."""
    results = []
    t0 = perf_counter()
    for i, argv in enumerate(ops):
        if w.subprocess:
            path = trace_dir / f"op{i}.json" if trace_dir else None
            res = run_subprocess(argv, w.deadline_s, path, i)
        else:
            if tracer is not None:
                tracer.op_id, tracer.op_kind = i, f"{argv[0]} {argv[1]}"
            res = run_in_process(argv, w.deadline_s)
        results.append(res)
        if not checker.check(res):
            break
    return results, perf_counter() - t0


def clear_chart_cache():
    from arguesia.projective_core import default_chart

    default_chart.cache_clear()


def run_traced(name: str, w: Workload, seed: int, checker: Checker):
    from tracer import Tracer, merge

    setup = measure_setup()
    ops = list(islice(timed_ops(w, seed), w.trace_ops))
    clear_chart_cache()
    plain, plain_s = run_pass(w, ops, checker)
    clear_chart_cache()
    OUT.mkdir(parents=True, exist_ok=True)
    if w.subprocess:
        trace_dir = OUT / f"children-{name}-{seed}"
        trace_dir.mkdir(exist_ok=True)
        traced, traced_s = run_pass(w, ops, checker, trace_dir=trace_dir)
        summary: dict = {}
        for i in range(len(traced)):
            part = trace_dir / f"op{i}.json"
            if part.exists():
                merge(summary, json.loads(part.read_text()))
                part.unlink()
        trace_dir.rmdir()
    else:
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_s = run_pass(w, ops, checker, tracer=tracer)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
    if checker.failures:
        return {}, ["stopped at the first failed op"]
    if [r.digest for r in traced] != [r.digest for r in plain]:
        checker.failures.append("traced outputs differ from the untraced outputs")
    spans_path = OUT / f"spans-{name}-{seed}.tsv"
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write("id\tparent\top\tlayer\tname\tstart\tend\n")
        for span in summary["spans"]:
            fh.write("\t".join(str(v) for v in span) + "\n")
    note = (f"{len(traced)} ops traced; {len(summary['spans'])} spans written to "
            f"{spans_path.relative_to(ROOT)}, {summary['spans_dropped']} over the cap")
    return layer_metrics(summary, ops, plain, plain_s, traced_s, setup, w), [note]


# ---------------------------------------------------------------------------
# per-layer metrics

PROJECTIVE_CLASSES = ("PPoint", "PLine", "LineMap", "AffineChart")
LAYER_NAMES = ("cli", "instances", "rng", "theorems", "menelaus_engine", "conics",
               "involution", "projective_core", "exact_scalar", "kernel")
_INT = re.compile(r"\d+")


def max_coeff_bits(out: bytes) -> int:
    """Bit length of the largest integer in the compared values (claims and proof steps)."""
    def values(node):
        if isinstance(node, dict):
            for key, v in node.items():
                if key in ("lhs", "rhs") and isinstance(v, str):
                    yield v
                else:
                    yield from values(v)
        elif isinstance(node, list):
            for v in node:
                yield from values(v)

    return max((int(t).bit_length() for v in values(json.loads(out)) for t in _INT.findall(v)),
               default=0)


def layer_metrics(s: dict, ops, plain, plain_s, traced_s, setup, w: Workload) -> dict:
    n = len(ops)
    calls, incl = s["calls"], s["incl_s"]

    def count(name):
        return calls.get(name, 0)

    def prefixed(prefix):
        return sum(v for k, v in calls.items() if k.startswith(prefix))

    self_s = {}
    by_kind = {}
    for key, t in s["self_s"].items():
        kind, layer = key.split("|")
        self_s[layer] = self_s.get(layer, 0.0) + t
        by_kind[(kind, layer)] = t
    ops_by_kind = {}
    for argv in ops:
        k = f"{argv[0]} {argv[1]}"
        ops_by_kind[k] = ops_by_kind.get(k, 0) + 1
    instances = count("instances.generate_instance")
    ramee_instances = ops_by_kind.get("verify ramee", 0) + ops_by_kind.get("replay ramee", 0)
    plain_op_s = plain_s / n
    invocation = plain_op_s if w.subprocess else setup + plain_op_s
    generate = incl["instances.generate_instance"]
    m = {
        "cli.generate_ms": (generate / n * 1000, "ms"),
        "cli.verify_ms": ((incl["cli.verify_one"] + incl["cli.replay_one"] - generate) / n * 1000, "ms"),
        "cli.serialize_ms": (incl["cli._json_dump"] / n * 1000, "ms"),
        "cli.startup_share": (setup / invocation, "ratio"),
        "instances.attempts_per_instance": (prefixed("instances._make_") / max(instances, 1), "count"),
        "rng.draws_per_instance": (count("rng.SplitMix64.next_u64") / max(instances, 1), "count"),
        "menelaus_engine.ramee_replays_per_instance": (
            count("menelaus_engine.replay_ramee_proof") / max(ramee_instances, 1), "count"),
        "menelaus_engine.ratio_value_calls": (count("menelaus_engine.Ratio.value") / n, "count/op"),
        "projective_core.constructions": (
            sum(count(f"projective_core.{c}.__init__") for c in PROJECTIVE_CLASSES) / n, "count/op"),
        "projective_core.param_pair_calls": (count("projective_core.AffineChart.param_pair") / n, "count/op"),
        "projective_core.chart_cache_entries": (s["chart_entries"], "count"),
        "projective_core.chart_cache_hit_ratio": (
            s["chart_hits"] / max(s["chart_hits"] + s["chart_misses"], 1), "ratio"),
        "fraction.constructions": (s["fractions"] / n, "count/op"),
        "kernel.calls": (prefixed("kernel.") / n, "count/op"),
        "exact_scalar.quad_sqrt_calls": (count("exact_scalar.quad_sqrt") / n, "count/op"),
        "exact_scalar.squarefree_ms": (incl["exact_scalar.square_free_decomposition"] / n * 1000, "ms"),
        "exact_scalar.quadext_constructions": (count("exact_scalar.QuadExt.__init__") / n, "count/op"),
        "exact_scalar.max_coeff_bits": (max(max_coeff_bits(r.out) for r in plain), "bits"),
        "involution.classify_calls": (count("involution.classify") / n, "count/op"),
        "conics.chord_calls": (
            (count("conics.conic_line_intersection") + count("conics.second_intersection")) / n, "count/op"),
        "conics.pencil_member_calls": (count("conics.pencil_member") / n, "count/op"),
    }
    for layer in LAYER_NAMES:
        m[f"{layer}.self_ms"] = (self_s.get(layer, 0.0) / n * 1000, "ms")
    for kind in TIMED_VERIFY_KINDS:
        k = f"verify {kind}"
        m[f"theorems.self_ms.{kind}"] = (
            by_kind.get((k, "theorems"), 0.0) / ops_by_kind[k] * 1000 if k in ops_by_kind else 0.0, "ms")
    m["trace.untraced_ops_per_s"] = (n / plain_s, "1/s")
    m["trace.ops_per_s"] = (n / traced_s, "1/s")
    m["trace.overhead_ops_per_s"] = (n / plain_s - n / traced_s, "1/s")
    return m


def layer_shares(metrics: dict) -> str:
    total = sum(metrics[f"{layer}.self_ms"][0] for layer in LAYER_NAMES) or 1.0
    return "  ".join(f"{layer} {metrics[f'{layer}.self_ms'][0] / total:.1%}" for layer in LAYER_NAMES)


# ---------------------------------------------------------------------------
# modes


def environment() -> dict:
    import arguesia

    return {
        "python": sys.version.split()[0],
        "git": git_revision(),
        "kernel_backend": arguesia.kernel_backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "cython": importlib.util.find_spec("Cython") is not None,
    }


def git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def check_pass(w: Workload, checker: Checker) -> list[OpResult]:
    results, _ = run_pass(w, check_ops(w), checker)
    return results


def known_defects(w: Workload) -> list[str]:
    """Run the seeds that exit 2 today; a change in how they end is reported, not failed."""
    runner = run_subprocess if w.subprocess else run_in_process
    lines = []
    for command, seed in w.known_defects:
        res = runner(op_argv(command, seed), w.deadline_s)
        status = ("still exits 2" if res.error.startswith("exit 2:")
                  else "now passes; move it into the timed ops" if not res.error else f"now fails otherwise: {res.error}")
        lines.append(f"known defect {' '.join(res.argv)}: {status}")
    return lines


def bench(name: str, seed: int, seconds: float, trace: bool) -> int:
    w = WORKLOADS[name]
    checker = Checker(json.loads(DIGESTS.read_text()))
    print(f"workload {name}: {len(w.commands)} command(s) cycled, closed loop, 1 caller, "
          f"workload seed {seed}, {'traced' if trace else 'untraced'}")
    print("env " + json.dumps(environment()))
    if trace:
        metrics, notes = run_traced(name, w, seed, checker)
    else:
        metrics, notes = run_untraced(w, seed, seconds, checker)
    if not checker.failures:
        check_pass(w, checker)
        notes += known_defects(w)
    failed = len(checker.failures)
    print("\n".join(notes))
    for key, (value, unit) in metrics.items():
        print(f"{key:44s} {value:14.6g} {unit}")
    print(f"{'failed_frac':44s} {failed / checker.attempted:14.6g} ratio ({failed}/{checker.attempted})")
    if trace and metrics:
        print("self-time shares: " + layer_shares(metrics))
    for failure in checker.failures:
        print("FAILED " + failure)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def profile(name: str, seed: int, top: int) -> int:
    """cProfile top-N by own time for the workload's traced op list, in process."""
    import cProfile
    import pstats

    w = WORKLOADS[name]
    ops = list(islice(timed_ops(w, seed), w.trace_ops))
    checker = Checker(json.loads(DIGESTS.read_text()))
    prof = cProfile.Profile()
    prof.enable()
    run_pass(replace(w, subprocess=False), ops, checker)
    prof.disable()
    print(f"profile of {len(ops)} {name} ops from workload seed {seed}, in process"
          + (" (no interpreter start-up)" if w.subprocess else ""))
    pstats.Stats(prof, stream=sys.stdout).sort_stats("tottime").print_stats(top)
    for failure in checker.failures:
        print("FAILED " + failure)
    return 0 if not checker.failures else 1


def record_digests() -> int:
    recorded = {}
    checker = Checker({})
    for w in WORKLOADS.values():
        for res in check_pass(w, checker):
            recorded[" ".join(res.argv)] = res.digest
    if checker.failures:
        print("\n".join(checker.failures), file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} digests in {DIGESTS.relative_to(ROOT)}")
    return 0


def run_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        sys.stdout.flush()
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, metavar="TOP_N",
                        help="print the cProfile top-N of the workload instead of measuring")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from the current outputs")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "arguesia" / "cli.py").is_file():
        print(f"perfbench: no arguesia source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import arguesia

    if not Path(arguesia.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported arguesia from {arguesia.__file__}, not {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.record_digests:
        return record_digests()
    if args.workload == "all":
        return run_all(args)
    if args.profile is not None:
        return profile(args.workload, args.seed, args.profile)
    return bench(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
