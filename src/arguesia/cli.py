"""Command-line surface: verify, replay, construct, figure.

    arguesia verify <kind> [--seed N] [--trials N] [--bounds M] [--json] [-o FILE]
    arguesia replay <ramee|quadrangle|beaugrand|pascal> [--seed N] [--bounds M] [--json]
    arguesia construct harmonic --b RAT --c RAT --d RAT
    arguesia figure <kind> [--seed N] [--bounds M] -o FILE.svg

Exit codes: 0 when every verdict is true, 1 when any is false, 2 on usage
or configuration errors.  ARGUESIA_SEED provides the default seed.
Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii

from arguesia.exact_scalar import ScalarError, rat_parse
from arguesia.instances import InstanceConfig, InstanceError, generate_instance
from arguesia.menelaus_engine import (
    Ratio,
    SectorFigure,
    menelaus_product,
    replay_quadrangle_proof,
    replay_ramee_proof,
)
from arguesia.projective_core import (
    GeometryError,
    PPoint,
    default_chart,
    incident,
    join,
    param_str,
)
from arguesia.theorems import (
    TheoremReport,
    beaugrand_replay,
    desargues_involution_by_perspectives,
    harmonic_conjugate,
    parallel_bornales_identities,
    pascal_collinear,
    pencil_involution_check,
    quadrangle_involution,
    retablissement_demo,
    verify_bisector_case,
    verify_midpoint_case,
    verify_ramee,
)

VERIFY_KINDS = (
    "menelaus",
    "ramee",
    "quadrangle",
    "pencil",
    "pascal",
    "beaugrand",
    "parallel-bornales",
    "midpoint",
    "bisector",
    "retablissement",
)
REPLAY_KINDS = ("ramee", "quadrangle", "beaugrand", "pascal")
FIGURE_KINDS = (
    "menelaus",
    "ramee",
    "quadrangle",
    "pencil",
    "pascal",
    "beaugrand",
    "harmonic",
    "bisector",
    "parallel-bornales",
    "retablissement",
    "p13",
)


def _instance_kind(kind: str) -> str:
    kind = kind.replace("-", "_")
    return {"midpoint": "harmonic"}.get(kind, kind)


def verify_one(kind: str, seed: int, bounds: int = 32) -> dict:
    """Generate the seeded instance for a suite and verify it exactly."""
    inst = generate_instance(InstanceConfig(_instance_kind(kind), seed, bounds))
    kind = kind.replace("-", "_")
    if kind == "menelaus":
        figure: SectorFigure = inst["figure"]
        report = TheoremReport("menelaus", inputs=inst["config"])
        report.claim("menelaus product", menelaus_product(figure), 1)
        report.claim_true("converse: unit product forces collinearity",
                          _menelaus_converse(figure))
        out = report.to_json()
    elif kind == "ramee":
        report = verify_ramee(inst["arbre"], inst["k"], inst["delta"])
        out = report.to_json()
    elif kind == "quadrangle":
        inv, report = quadrangle_involution(inst["quadrangle"])
        by_persp = desargues_involution_by_perspectives(inst["quadrangle"])
        report.claim(
            "three-perspective construction matches",
            by_persp.map.matrix,
            inv.map.matrix,
        )
        out = report.to_json()
    elif kind == "pencil":
        q = inst["quadrangle"]
        sub = []
        for name, member in inst["members"]:
            rep = pencil_involution_check(q, member)
            sub.append({"member": name, "report": rep.to_json()})
        out = {
            "name": "pencil",
            "members": sub,
            "verdict": all(s["report"]["verdict"] for s in sub),
        }
    elif kind == "pascal":
        report = pascal_collinear(inst["conic"], *inst["hexagon"])
        out = report.to_json()
    elif kind == "beaugrand":
        trace = beaugrand_replay(inst["conic"], *inst["bornes"], inst["transversal"])
        out = {"name": "beaugrand", "trace": trace.to_json(), "verdict": trace.verdict}
    elif kind == "parallel_bornales":
        report = parallel_bornales_identities(inst["quadrangle"])
        out = report.to_json()
    elif kind == "midpoint":
        report = verify_midpoint_case(
            inst["b"], inst["c"], inst["d"], inst["f"], inst["k"]
        )
        out = report.to_json()
    elif kind == "bisector":
        report = verify_bisector_case(
            inst["b"], inst["c"], inst["d"], inst["f"], inst["k"]
        )
        out = report.to_json()
    elif kind == "retablissement":
        report = retablissement_demo(
            inst["apex"], inst["base"], inst["cut"], inst["params"]
        )
        out = report.to_json()
    else:
        raise InstanceError(f"no verifier for kind {kind!r}")
    out["seed"] = seed
    out["kind"] = kind
    return out


def _menelaus_converse(figure: SectorFigure) -> bool:
    """Reconstruct the third noeud from the unit-product constraint and
    check it falls back on the tronc (zero incidence residual)."""
    n1, n2, n3 = figure.nodes
    a, b, c = figure.vertices()
    r1 = Ratio(n1, b, c).value()
    r2 = Ratio(n2, c, a).value()
    target = 1 / (r1 * r2)  # required value of Ratio(N3; a, b)
    ray = default_chart(join(a, b))
    ta, tb = ray.coordinate(a), ray.coordinate(b)
    # solve (ta - t) / (tb - t) = target
    if target == 1:
        return False
    t = (ta - target * tb) / (1 - target)
    candidate = ray.point_at(t)
    return candidate == n3 and incident(candidate, figure.tronc)


def replay_one(kind: str, seed: int, bounds: int = 32) -> dict:
    inst = generate_instance(InstanceConfig(_instance_kind(kind), seed, bounds))
    if kind == "ramee":
        trace = replay_ramee_proof(inst["arbre"], inst["k"], inst["delta"])
    elif kind == "quadrangle":
        trace = replay_quadrangle_proof(inst["quadrangle"])
    elif kind == "beaugrand":
        trace = beaugrand_replay(inst["conic"], *inst["bornes"], inst["transversal"])
    elif kind == "pascal":
        report = pascal_collinear(inst["conic"], *inst["hexagon"])
        if report.trace is None:
            raise InstanceError("pascal replay needs the circle case")
        trace = report.trace
    else:
        raise InstanceError(f"no replay for kind {kind!r}")
    out = trace.to_json()
    out["seed"] = seed
    out["kind"] = kind
    return out


# ---------------------------------------------------------------------------
# output formatting


def _json_dump(data) -> str:
    """Exactly ``json.dumps(data, indent=2) + "\\n"``, without the
    pure-Python encoder that ``json.dumps`` falls back to for an indent.

    Accepts ``dict`` with ``str`` keys, ``list``, ``tuple``, ``str``, ``int``
    (``bool`` included), and ``None``; anything else, a ``float`` or a
    non-``str`` key among it, raises ``TypeError``.  Strings go through the
    C ``encode_basestring_ascii``, as ``json.dumps`` does.
    """
    out = []
    _json_write(data, "\n", out)
    out.append("\n")
    return "".join(out)


def _json_write(value, newline: str, out: list) -> None:
    """Append the indent-2 JSON text of value; newline holds the newline
    and the indent of the line value starts on."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _json_write(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _json_write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable"
        )


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


def build_parser() -> argparse.ArgumentParser:
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            seed = args.seed if args.seed is not None else _default_seed()
            if args.trials < 1:
                raise InstanceError("--trials must be at least 1")
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
            b, c, d = (rat_parse(v) for v in (args.b, args.c, args.d))
            if len({b, c, d}) != 3:
                raise GeometryError("construct harmonic needs distinct values")
            chart = default_chart(join(PPoint(0, 0, 1), PPoint(1, 0, 1)))
            f = harmonic_conjugate(
                chart.point_at(b), chart.point_at(c), chart.point_at(d)
            )
            sys.stdout.write(param_str(chart.coordinate(f)) + "\n")
            return 0

        if args.command == "figure":
            # Only this command renders, so only it imports the renderer.
            from arguesia.svg_figures import FigureError, render_figure

            seed = args.seed if args.seed is not None else _default_seed()
            kind = _instance_kind(args.kind)
            inst = generate_instance(InstanceConfig(kind, seed, args.bounds))
            try:
                payload = render_figure(kind, inst)
            except FigureError as exc:
                return _usage_error(exc)
            with open(args.output, "wb") as fh:
                fh.write(payload)
            return 0

        parser.error("unknown command")
    except (InstanceError, ScalarError, GeometryError) as exc:
        return _usage_error(exc)
    return 2


def _usage_error(exc: Exception) -> int:
    sys.stderr.write(f"error: {exc}\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
