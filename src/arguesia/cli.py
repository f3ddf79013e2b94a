"""Command-line surface: verify, replay, construct, figure.

    arguesia verify <kind> [--seed N] [--trials N] [--bounds M] [--json] [-o FILE]
    arguesia replay <kind> [--seed N] [--bounds M] [--json]
    arguesia construct harmonic --b RAT --c RAT --d RAT
    arguesia figure <kind> [--seed N] [--bounds M] -o FILE.svg

Exit codes: 0 when every verdict is true, 1 when any is false, 2 on usage
or configuration errors, and 3 on an internal error, reported as a
traceback on stderr.  Usage errors are the arguments themselves, the
instance configuration (bounds below 8, seed), an unwritable ``-o`` file,
an unrenderable figure (a labelled point beyond float range), and a
``construct`` value that is malformed or repeated.  Every generated
instance meets its verifier's and replay's preconditions, so a
``GeometryError`` raised while verifying, replaying or drawing one is an
internal error, as is a retry budget exhausted at bounds 8 and above.
ARGUESIA_SEED provides the default seed.  Identical invocations produce
byte-identical output.  ``main`` may be called repeatedly in one process.
A well-formed ``verify`` or ``replay`` argv is read directly, to the
namespace argparse would make of it; ``argparse`` is imported, and its
parser built once and reused, only for help, malformed argv, ``figure``
and ``construct``, so it alone writes usage, help and error text.  Each
call lifts Python's int-to-str digit limit and restores the caller's on
return.
"""

from __future__ import annotations

import functools
import os
import sys
from json.encoder import encode_basestring_ascii
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
    harmonic_conjugate,
    parallel_bornales_identities,
    pascal_collinear,
    quadrangle_involution,
    retablissement_demo,
    verify_bisector_case,
    verify_menelaus,
    verify_midpoint_case,
    verify_pencil,
    verify_ramee,
)


def _trace_report(trace) -> dict:
    return {"name": trace.name, "trace": trace.to_json(), "verdict": trace.verdict}


# Each entry reaches its verifier through this module's globals, not a
# function object stored at import, so a rebound verifier is the one called.
# verify kind -> (instance kind, the JSON report of an instance)
VERIFIERS = {
    "menelaus": ("menelaus", lambda i: verify_menelaus(i["figure"], i["config"]).to_json()),
    "ramee": ("ramee", lambda i: verify_ramee(i["figure"]).to_json()),
    "quadrangle": ("quadrangle", lambda i: quadrangle_involution(i["quadrangle"])[1].to_json()),
    "pencil": ("pencil", lambda i: verify_pencil(i["quadrangle"], i["members"])),
    "pascal": ("pascal", lambda i: pascal_collinear(i["figure"]).to_json()),
    "beaugrand": ("beaugrand", lambda i: _trace_report(beaugrand_replay(i["figure"]))),
    "parallel-bornales": ("parallel_bornales",
                          lambda i: parallel_bornales_identities(i["quadrangle"]).to_json()),
    "midpoint": ("harmonic", lambda i: verify_midpoint_case(
        i["b"], i["c"], i["d"], i["f"], i["k"]).to_json()),
    "bisector": ("bisector", lambda i: verify_bisector_case(
        i["b"], i["c"], i["d"], i["f"], i["k"]).to_json()),
    "retablissement": ("retablissement", lambda i: retablissement_demo(i["figure"]).to_json()),
}
# replay kind (also its instance kind) -> the proof trace of an instance
REPLAYS = {
    "ramee": lambda i: replay_ramee_proof(i["figure"]),
    "quadrangle": lambda i: replay_quadrangle_proof(i["quadrangle"]),
    "beaugrand": lambda i: beaugrand_replay(i["figure"]),
    "pascal": lambda i: pascal_collinear(i["figure"]).trace,
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

    Branches on the exact type.  The string and boolean items of a dict,
    and the string items of a list, the most common ones in a report, are
    written in place rather than by a call."""
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
            head = sep + encode_basestring_ascii(key) + ": "
            item_kind = type(item)
            if item_kind is str:
                out.append(head + encode_basestring_ascii(item))
            elif item_kind is bool:
                out.append(head + ("true" if item else "false"))
            else:
                out.append(head)
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
            if type(item) is str:
                out.append(sep + encode_basestring_ascii(item))
            else:
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


def _format_verify_text(kind: str, reports: list[dict]) -> str:
    lines = []
    for rep in reports:
        mark = "ok" if rep["verdict"] else "FAIL"
        nclaims = len(rep.get("claims", [])) or len(rep.get("members", []))
        lines.append(f"{kind} seed={rep['seed']} {mark} ({nclaims} checks)")
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
    try:
        return int(env)
    except ValueError:
        raise InstanceError(f"ARGUESIA_SEED must be an integer, got {env!r}") from None


# ---------------------------------------------------------------------------
# argument parsing


# replay or verify option -> the namespace attribute it sets
_REPLAY_OPTIONS = {"--seed": "seed", "--bounds": "bounds", "--json": "json"}
_VERIFY_OPTIONS = {**_REPLAY_OPTIONS, "--trials": "trials", "-o": "output", "--output": "output"}


def _read_argv(argv) -> SimpleNamespace | None:
    """The namespace ``build_parser().parse_args(argv)`` makes of a
    well-formed verify or replay argv, or None for any other argv.

    Well-formed is ``<command> <kind>`` and then options spelled in full,
    each integer in ASCII digits and the output name not starting with
    ``-``; argparse accepts every such argv, and reads every other one.
    """
    if len(argv) < 2:
        return None
    command, kind = argv[0], argv[1]
    if command == "verify" and kind in VERIFIERS:
        args = SimpleNamespace(command=command, kind=kind, seed=None, trials=1,
                               bounds=32, json=False, output=None)
        options = _VERIFY_OPTIONS
    elif command == "replay" and kind in REPLAYS:
        args = SimpleNamespace(command=command, kind=kind, seed=None, bounds=32, json=False)
        options = _REPLAY_OPTIONS
    else:
        return None
    i, n = 2, len(argv)
    while i < n:
        name = options.get(argv[i])
        if name is None:
            return None
        if name == "json":
            args.json = True
            i += 1
            continue
        if i + 1 == n:
            return None
        value = argv[i + 1]
        if type(value) is not str or not value or value[0] == "-":
            return None
        if name != "output":
            if not (value.isascii() and value.isdigit()):
                return None
            value = int(value)
        setattr(args, name, value)
        i += 2
    return args


@functools.cache
def build_parser():
    """The one ``argparse.ArgumentParser`` of this process, built on the
    first ``main`` call that ``_read_argv`` hands on."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="arguesia",
        description="Exact verification and replay of the Brouillon Project theorems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify a theorem suite on seeded instances")
    p_verify.add_argument("kind", choices=VERIFY_KINDS)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--trials", type=int, default=1)
    p_verify.add_argument("--bounds", type=int, default=32)
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("-o", "--output", default=None)

    p_replay = sub.add_parser("replay", help="replay a historical proof step by step")
    p_replay.add_argument("kind", choices=REPLAY_KINDS)
    p_replay.add_argument("--seed", type=int, default=None)
    p_replay.add_argument("--bounds", type=int, default=32)
    p_replay.add_argument("--json", action="store_true")

    p_construct = sub.add_parser("construct", help="exact constructions")
    p_construct.add_argument("what", choices=("harmonic",))
    p_construct.add_argument("--b", required=True)
    p_construct.add_argument("--c", required=True)
    p_construct.add_argument("--d", required=True)

    p_figure = sub.add_parser("figure", help="render an instance as SVG")
    p_figure.add_argument("kind", choices=FIGURE_KINDS)
    p_figure.add_argument("--seed", type=int, default=None)
    p_figure.add_argument("--bounds", type=int, default=32)
    p_figure.add_argument("-o", "--output", required=True)
    return parser


def main(argv=None) -> int:
    # exact values have no digit limit: a long --bounds parses and a long
    # coordinate prints; the caller's limit is back on return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if argv is None:
            argv = sys.argv[1:]
        args = _read_argv(argv)
        if args is None:
            args = build_parser().parse_args(argv)
        if args.command == "verify":
            seed = args.seed if args.seed is not None else _default_seed()
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
            seed = args.seed if args.seed is not None else _default_seed()
            data = replay_one(args.kind, seed, args.bounds)
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
            f = harmonic_conjugate(*(chart.point_at_pair(t) for t in values))
            sys.stdout.write(param_str(chart.param_pair(f)) + "\n")
            return 0

        # figure, the last command: only it renders, so only it imports the renderer
        from arguesia.svg_figures import FigureError, render_figure

        seed = args.seed if args.seed is not None else _default_seed()
        kind = args.kind.replace("-", "_")
        inst = generate_instance(InstanceConfig(kind, seed, args.bounds))
        try:
            payload = render_figure(kind, inst)
        except FigureError as exc:
            return _usage_error(exc)
        with open(args.output, "wb") as fh:
            fh.write(payload)
        return 0
    except (InstanceError, OSError) as exc:
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
