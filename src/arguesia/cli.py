"""Command-line surface: verify, replay, construct, figure, as ``SYNOPSIS``
spells them.

Exit codes: 0 when every verdict is true, 1 when any is false, 2 on usage
or configuration errors, and 3 on an internal error, reported as a
traceback on stderr.  Usage errors are the arguments themselves, the
instance configuration (bounds below 8, seed), an unwritable ``-o`` file,
an unrenderable figure (a labelled point beyond float range), and a
``construct`` value that is malformed or repeated.  Every generated
instance meets its verifier's and replay's preconditions, so a
``GeometryError`` raised while verifying, replaying or drawing one is an
internal error, as is a retry budget exhausted at bounds 8 and above.
ARGUESIA_SEED provides the default seed, in ASCII digits as ``--seed``
takes it.  Identical invocations produce byte-identical output.  ``main``
returns the exit code, never raises ``SystemExit``, and may be called
repeatedly in one process.  Each call lifts Python's int-to-str digit
limit and restores the caller's on return.

One reader reads the argv of every command:

- ``<command> <kind>`` comes first, then the options, each spelled in full.
- A value follows its option after a space or after ``=``: ``--b -1/2``
  and ``--b=-1/2`` read the same value.  A later option overrides an
  earlier one.
- ``--seed``, ``--trials`` and ``--bounds`` take ASCII digits only.  No
  value is empty, and only a ``construct`` value may start with ``-``.
- ``figure`` needs ``-o``/``--output``; ``construct harmonic`` needs
  ``--b``, ``--c`` and ``--d``.
- ``-h`` or ``--help`` anywhere in the argv prints ``SYNOPSIS`` to stdout
  and exits 0; it is a string, not part of this docstring, so ``python
  -OO`` prints it too.

Any other argv is a usage error: an empty argv, an unknown command, kind
or option (the message lists the valid ones), an abbreviated option, a
missing value, ``--json=...``, or an integer with a sign or a non-digit.
Like every usage error it writes one ``error: ...`` line to stderr and
nothing to stdout.
"""

from __future__ import annotations

import os
import sys
from _json import encode_basestring_ascii  # json.encoder's, without loading json
from types import SimpleNamespace

from arguesia.exact_scalar import ScalarError, rat_parse
from arguesia.instances import KINDS, InstanceConfig, InstanceError, generate_instance
from arguesia.menelaus_engine import replay_quadrangle_proof, replay_ramee_proof
from arguesia.projective_core import (
    GeometryError,
    PPoint,
    default_chart,
    join,
    param_str,
)
from arguesia.theorems import (
    beaugrand_replay,
    harmonic_figure,
    parallel_bornales_identities,
    pascal_circle_replay,
    pascal_collinear,
    quadrangle_involution,
    retablissement_demo,
    verify_bisector_case,
    verify_menelaus,
    verify_midpoint_case,
    verify_pencil,
    verify_ramee,
)


SYNOPSIS = """\
    arguesia verify <kind> [--seed N] [--trials N] [--bounds M] [--json] [-o FILE]
    arguesia replay <kind> [--seed N] [--bounds M] [--json]
    arguesia construct harmonic --b RAT --c RAT --d RAT
    arguesia figure <kind> [--seed N] [--bounds M] -o FILE.svg
"""


def _trace_report(trace) -> dict:
    return {"name": trace.name, "trace": trace.to_json(), "verdict": trace.verdict}


# Each entry reaches its verifier through this module's globals, not a
# function object stored at import, so a rebound verifier is the one called.
# An instance is its kind's checked figure, each verifier's and replay's one
# argument.
# verify kind -> (instance kind, the JSON report of an instance)
VERIFIERS = {
    "menelaus": ("menelaus", lambda i: verify_menelaus(i).to_json()),
    "ramee": ("ramee", lambda i: verify_ramee(i).to_json()),
    "quadrangle": ("quadrangle", lambda i: quadrangle_involution(i).to_json()),
    "pencil": ("pencil", lambda i: verify_pencil(i)),
    "pascal": ("pascal", lambda i: pascal_collinear(i).to_json()),
    "beaugrand": ("beaugrand", lambda i: _trace_report(beaugrand_replay(i))),
    "parallel-bornales": ("parallel_bornales", lambda i: parallel_bornales_identities(i).to_json()),
    "midpoint": ("harmonic", lambda i: verify_midpoint_case(i).to_json()),
    "bisector": ("bisector", lambda i: verify_bisector_case(i).to_json()),
    "retablissement": ("retablissement", lambda i: retablissement_demo(i).to_json()),
}
# replay kind (also its instance kind) -> the proof trace of an instance
REPLAYS = {
    "ramee": lambda i: replay_ramee_proof(i),
    "quadrangle": lambda i: replay_quadrangle_proof(i),
    "beaugrand": lambda i: beaugrand_replay(i),
    "pascal": lambda i: pascal_circle_replay(i),
}
VERIFY_KINDS = tuple(VERIFIERS)
REPLAY_KINDS = tuple(REPLAYS)
FIGURE_KINDS = tuple(kind.replace("_", "-") for kind in KINDS)


def verify_one(kind: str, seed: int, bounds: int = 32) -> dict:
    """Generate the seeded instance for a suite and verify it exactly."""
    instance_kind, report = VERIFIERS[kind]
    out = report(generate_instance(InstanceConfig(instance_kind, seed, bounds)))
    out["seed"] = seed
    out["kind"] = kind.replace("-", "_")
    return out


def replay_one(kind: str, seed: int, bounds: int = 32) -> dict:
    out = REPLAYS[kind](generate_instance(InstanceConfig(kind, seed, bounds))).to_json()
    out["seed"] = seed
    out["kind"] = kind
    return out


# ---------------------------------------------------------------------------
# output formatting


def _json_dump(data) -> str:
    """Exactly ``json.dumps(data, indent=2) + "\\n"``, without the
    pure-Python encoder that ``json.dumps`` falls back to for an indent.

    Accepts ``dict`` with ``str`` keys, ``list``, ``tuple``, ``str``, ``int``,
    ``bool`` and ``None``, each of exactly that type; anything else, a
    ``float``, a subclass or a non-``str`` key among it, raises
    ``TypeError``.  Strings go through the C ``encode_basestring_ascii``, as
    ``json.dumps`` does.
    """
    out = []
    _json_write(data, "\n", out)
    out.append("\n")
    return "".join(out)


def _json_write(value, newline: str, out: list) -> None:
    """Append the indent-2 JSON text of value; newline holds the newline
    and the indent of the line value starts on.

    Branches on the exact type, one branch per type; a dict or list
    writes each of its items by a call."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        comma = "," + inner
        sep = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _json_write(item, inner, out)
            sep = comma
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        comma = "," + inner
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _json_write(item, inner, out)
            sep = comma
        out.append(newline + "]")
    elif kind is bool:
        out.append("true" if value else "false")
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _count_checks(rep: dict) -> int:
    """The records that decide a report's verdict: its claims, its trace's
    steps and each pencil member's claims."""
    return (len(rep.get("claims", ())) + len(rep.get("trace", {}).get("steps", ()))
            + sum(_count_checks(m["report"]) for m in rep.get("members", ())))


def _format_verify_text(kind: str, reports: list[dict]) -> str:
    lines = []
    for rep in reports:
        mark = "ok" if rep["verdict"] else "FAIL"
        lines.append(f"{kind} seed={rep['seed']} {mark} ({_count_checks(rep)} checks)")
    total = sum(1 for r in reports if r["verdict"])
    lines.append(f"{total}/{len(reports)} verdicts true")
    return "\n".join(lines) + "\n"


def _format_trace_text(data: dict) -> str:
    lines = [f"{data['kind']} replay seed={data['seed']}"]
    for step in data["steps"]:
        mark = "✓" if step["equal"] else "✗"
        lines.append(f"  {mark} {step['label']}   = {step['lhs']}   [{step['cite']}]")
    lines.append("verdict: " + ("true" if data["verdict"] else "false"))
    return "\n".join(lines) + "\n"


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _default_seed() -> int:
    env = os.environ.get("ARGUESIA_SEED")
    if env is None:
        return 1
    # the rule of --seed: ASCII digits only
    if not (env.isascii() and env.isdigit()):
        raise InstanceError(f"ARGUESIA_SEED must be an integer, got {env!r}")
    return int(env)


# ---------------------------------------------------------------------------
# argument parsing


class UsageError(Exception):
    """An argv the reader refuses; ``main`` reports it and returns 2."""


# option -> the namespace attribute it sets
_OPTIONS = {"--seed": "seed", "--trials": "trials", "--bounds": "bounds", "--json": "json",
            "-o": "output", "--output": "output", "--b": "b", "--c": "c", "--d": "d"}
_INTEGERS = ("seed", "trials", "bounds")
# command -> (its kinds, its options' attributes with their defaults, the
# attributes it requires)
_COMMANDS = {
    "verify": (VERIFY_KINDS,
               {"seed": None, "trials": 1, "bounds": 32, "json": False, "output": None}, ()),
    "replay": (REPLAY_KINDS, {"seed": None, "bounds": 32, "json": False}, ()),
    "construct": (("harmonic",), {"b": None, "c": None, "d": None}, ("b", "c", "d")),
    "figure": (FIGURE_KINDS, {"seed": None, "bounds": 32, "output": None}, ("output",)),
}


def _read_argv(argv) -> SimpleNamespace:
    """The command, kind and options of argv, read by the rules in the
    module docstring, with ARGUESIA_SEED for a missing ``--seed``;
    UsageError for any argv the rules do not read."""
    if not argv or argv[0] not in _COMMANDS:
        what = f"unknown command {argv[0]!r}" if argv else "missing command"
        raise UsageError(f"{what} (choose from {', '.join(_COMMANDS)})")
    command = argv[0]
    kinds, defaults, required = _COMMANDS[command]
    if len(argv) < 2 or argv[1] not in kinds:
        what = f"unknown kind {argv[1]!r}" if len(argv) > 1 else "missing kind"
        raise UsageError(f"{command}: {what} (choose from {', '.join(kinds)})")
    args = SimpleNamespace(command=command, kind=argv[1], **defaults)
    i, n = 2, len(argv)
    while i < n:
        option, eq, value = argv[i].partition("=")
        i += 1
        name = _OPTIONS.get(option)
        if name not in defaults:
            options = ", ".join(o for o, a in _OPTIONS.items() if a in defaults)
            raise UsageError(f"{command}: unknown option {option!r} (choose from {options})")
        if name == "json":
            if eq:
                raise UsageError("--json takes no value")
            args.json = True
            continue
        if not eq:
            if i == n:
                raise UsageError(f"{option} needs a value")
            value = argv[i]
            i += 1
        if name in _INTEGERS:
            if not (value.isascii() and value.isdigit()):
                raise UsageError(f"{option} needs an integer in digits, not {value!r}")
            value = int(value)
        elif command != "construct" and (not value or value[0] == "-"):
            raise UsageError(f"{option} needs a value, not {value!r}")
        setattr(args, name, value)
    for name in required:
        if getattr(args, name) is None:
            option = next(o for o, a in _OPTIONS.items() if a == name)
            raise UsageError(f"{command} {args.kind} needs {option}")
    if getattr(args, "seed", 0) is None:
        args.seed = _default_seed()
    return args


def main(argv=None) -> int:
    # exact values have no digit limit: a long --bounds parses and a long
    # coordinate prints; the caller's limit is back on return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if argv is None:
            argv = sys.argv[1:]
        if "-h" in argv or "--help" in argv:
            sys.stdout.write(SYNOPSIS)
            return 0
        args = _read_argv(argv)
        if args.command == "verify":
            seed = args.seed
            if args.trials < 1:
                raise InstanceError("--trials must be at least 1")
            # refuse before the first op what the loop would refuse at its
            # first bad config: the first seed, the bounds, or seed 2**64
            instance_kind = VERIFIERS[args.kind][0]
            InstanceConfig(instance_kind, seed, args.bounds)
            InstanceConfig(instance_kind, min(seed + args.trials - 1, 1 << 64), args.bounds)
            reports = [
                verify_one(args.kind, seed + i, args.bounds)
                for i in range(args.trials)
            ]
            all_true = all(r["verdict"] for r in reports)
            if args.json:
                text = _json_dump(
                    {
                        "command": "verify",
                        "kind": args.kind,
                        "reports": reports,
                        "all_true": all_true,
                    }
                )
            else:
                text = _format_verify_text(args.kind, reports)
            _emit(text, args.output)
            return 0 if all_true else 1

        if args.command == "replay":
            data = replay_one(args.kind, args.seed, args.bounds)
            text = _json_dump(data) if args.json else _format_trace_text(data)
            _emit(text, None)
            return 0 if data["verdict"] else 1

        if args.command == "construct":
            try:
                values = [rat_parse(v) for v in (args.b, args.c, args.d)]
                if len(set(values)) != 3:
                    raise GeometryError("construct harmonic needs distinct values")
            except (ScalarError, GeometryError) as exc:
                return _usage_error(exc)
            chart = default_chart(join(PPoint(0, 0, 1), PPoint(1, 0, 1)))
            f = harmonic_figure(chart, *values)["f"]
            sys.stdout.write(param_str(chart.param_pair(f)) + "\n")
            return 0

        # figure, the last command: only it renders, so only it imports the renderer
        from arguesia.svg_figures import FigureError, render_figure

        kind = args.kind.replace("-", "_")
        inst = generate_instance(InstanceConfig(kind, args.seed, args.bounds))
        try:
            payload = render_figure(kind, inst)
        except FigureError as exc:
            return _usage_error(exc)
        with open(args.output, "wb") as fh:
            fh.write(payload)
        return 0
    except (UsageError, InstanceError, OSError) as exc:
        return _usage_error(exc)
    except Exception:
        # any other failure is the program's own fault, not a usage error
        import traceback

        traceback.print_exc()
        return 3
    finally:
        sys.set_int_max_str_digits(limit)


def _usage_error(exc: Exception) -> int:
    sys.stderr.write(f"error: {exc}\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
