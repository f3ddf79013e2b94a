import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arguesia.cli import _json_dump, main, replay_one, verify_one
from arguesia.instances import InstanceConfig, generate_instance
from arguesia.svg_figures import render_figure
from quadfield import affine_point


def run_cli(*args, env_seed=None):
    import os

    env = dict(os.environ)
    env.pop("ARGUESIA_SEED", None)
    if env_seed is not None:
        env["ARGUESIA_SEED"] = str(env_seed)
    proc = subprocess.run(
        [sys.executable, "-m", "arguesia.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


# -- svg ------------------------------------------------------------------------


def test_harmonic_figure_structure():
    inst = generate_instance(InstanceConfig("harmonic", 1))
    svg = render_figure("harmonic", inst).decode()
    assert svg.startswith("<?xml")
    assert svg.count('class="construction"') == 3
    assert svg.count("<text") == 4


def test_p13_figure_draws_the_theorem_construction(tmp_path):
    # the figure takes f, F and D from construct_involution_p13
    import hashlib

    out = tmp_path / "p13.svg"
    assert main(["figure", "p13", "--seed", "1", "-o", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "dc6930f2319882f70015fb41d3464b46445337083e34a4c98c9ebee26ab2a551"


def test_pascal_figure_structure():
    inst = generate_instance(InstanceConfig("pascal", 1))
    svg = render_figure("pascal", inst).decode()
    assert svg.count('class="conic"') == 1
    assert svg.count('class="pascal"') == 1


def test_figures_deterministic_bytes():
    for kind in ("harmonic", "pascal", "quadrangle", "ramee", "pencil"):
        inst = generate_instance(InstanceConfig(kind, 2))
        assert render_figure(kind, inst) == render_figure(kind, inst)


def test_every_kind_renders(tmp_path):
    from arguesia.instances import KINDS

    for kind in KINDS:
        inst = generate_instance(InstanceConfig(kind, 4))
        payload = render_figure(kind, inst)
        assert payload.startswith(b"<?xml") and payload.endswith(b"</svg>\n")


def test_points_at_infinity_drawn_as_arrows():
    from arguesia.projective_core import PPoint
    from arguesia.svg_figures import SvgDoc

    doc = SvgDoc()
    doc.add_point(affine_point(0, 0), "O")
    doc.add_point(affine_point(1, 1), "U")
    doc.add_point(PPoint(1, 2, 0), "N")
    svg = doc.to_bytes().decode()
    assert 'class="arrow"' in svg
    assert "N (inf)" in svg


def test_unbounded_configuration_rejected():
    from arguesia.projective_core import PPoint
    from arguesia.svg_figures import SvgDoc

    doc = SvgDoc()
    doc.add_point(PPoint(1, 0, 0), "N")  # only infinite points
    with pytest.raises(ValueError):
        doc.to_bytes()


def test_distinct_points_on_one_canvas_point_rejected():
    from arguesia.projective_core import PPoint
    from arguesia.svg_figures import FigureError, SvgDoc

    # the same exact point under two labels is one dot, and draws
    doc = SvgDoc()
    doc.add_point(PPoint(1, 2, 1), "A")
    doc.add_point(PPoint(2, 4, 2), "B")
    assert b'class="point"' in doc.to_bytes()
    # two points 10**-30 apart round to one float point
    doc.add_point(PPoint(10**30 + 1, 2 * 10**30, 10**30), "C")
    with pytest.raises(FigureError, match="distinct labeled points fall on one canvas point"):
        doc.to_bytes()


# -- cli ------------------------------------------------------------------------


def test_verify_exit_zero():
    proc = run_cli("verify", "ramee", "--seed", "1", "--trials", "3")
    assert proc.returncode == 0
    assert "3/3 verdicts true" in proc.stdout


def test_verify_json_deterministic():
    a = run_cli("verify", "quadrangle", "--seed", "5", "--json")
    b = run_cli("verify", "quadrangle", "--seed", "5", "--json")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    data = json.loads(a.stdout)
    assert data["all_true"] is True


def test_replay_ramee_eleven_steps_json():
    proc = run_cli("replay", "ramee", "--seed", "1", "--json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert len(data["steps"]) == 11
    assert data["verdict"] is True


def test_replay_text_marks():
    proc = run_cli("replay", "quadrangle", "--seed", "1")
    assert proc.returncode == 0
    assert "✓" in proc.stdout


def test_construct_harmonic_prints_value():
    proc = run_cli("construct", "harmonic", "--b", "0", "--c", "2", "--d", "3")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3/2"


def test_construct_harmonic_midpoint_prints_inf():
    proc = run_cli("construct", "harmonic", "--b", "0", "--c", "2", "--d", "1")
    assert proc.stdout.strip() == "inf"


_RATIONAL = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 20))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_RATIONAL, min_size=3, max_size=3, unique=True), st.booleans(),
       st.integers(1, 9))
@example([Fraction(0), Fraction(2), Fraction(3)], False, 1)
@example([Fraction(0), Fraction(2), Fraction(3)], True, 2)
def test_construct_harmonic_prints_the_closed_form(values, midpoint, k):
    b, c, d = values
    if midpoint:
        d = (b + c) / 2
    # [B, C; D, F] = -1 solved for F
    if 2 * d == b + c:
        expected = "inf"
    else:
        f = ((b + c) * d - 2 * b * c) / (2 * d - b - c)
        expected = f"{f.numerator}/{f.denominator}"
    # each value spelled with the common factor k left in
    argv = ["construct", "harmonic"] + [
        f"--{name}={v.numerator * k}/{v.denominator * k}" for name, v in zip("bcd", (b, c, d))
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert out.getvalue() == expected + "\n"


@pytest.mark.parametrize("option", ["--b", "--c", "--d"])
def test_construct_takes_a_negative_fraction_after_a_space(option, capsys):
    # a value after a space may start with "-", as one glued with "=" may
    values = {"--b": "0", "--c": "2", "--d": "3"}
    values[option] = "-1/2"
    glued = [f"{name}={value}" for name, value in values.items()]
    spaced = [arg for pair in values.items() for arg in pair]
    assert main(["construct", "harmonic", *glued]) == 0
    expected = capsys.readouterr().out
    assert main(["construct", "harmonic", *spaced]) == 0
    assert capsys.readouterr() == (expected, "")
    if option == "--b":
        assert expected == "13/9\n"


def test_construct_rejects_malformed_rational(capsys):
    proc = run_cli("construct", "harmonic", "--b", "zero", "--c", "2", "--d", "3")
    assert proc.returncode == 2
    # ASCII digits only, with nothing around them, as --seed is read
    for bad in ("\u0663", "1/\u0662", " 3 ", "3\n"):
        assert main(["construct", "harmonic", "--b", "0", "--c", "2", "--d", bad]) == 2
        assert capsys.readouterr() == ("", f"error: malformed rational: {bad!r}\n")


def test_construct_repeated_values_is_a_usage_error(capsys):
    # construct is the one command whose GeometryError is the user's input
    assert main(["construct", "harmonic", "--b", "1", "--c", "1", "--d", "3"]) == 2
    assert capsys.readouterr().err == "error: construct harmonic needs distinct values\n"


def test_seed_range_error_names_the_seed_that_does_not_fit(monkeypatch, capsys):
    # --trials 3 from 2**64 - 2 would run two seeds that fit, then 2**64:
    # it is refused before the first op, so the two are never generated
    from arguesia import cli

    calls = []
    monkeypatch.setattr(cli, "generate_instance",
                        lambda cfg: calls.append(cfg) or generate_instance(cfg))
    top = str(2**64 - 2)
    assert main(["verify", "ramee", "--seed", top, "--trials", "2"]) == 0
    assert len(calls) == 2
    capsys.readouterr()
    calls.clear()
    assert main(["verify", "ramee", "--seed", top, "--trials", "3", "--json"]) == 2
    assert capsys.readouterr() == ("", f"error: seed must fit in 64 bits, got {2**64}\n")
    assert calls == []


def test_geometry_error_in_a_maker_is_an_internal_error(monkeypatch, capsys):
    # the generator resamples NonGenericError alone; another GeometryError
    # from a maker is a fault, not a precondition to retry
    import arguesia.instances as instances
    from arguesia.projective_core import GeometryError

    def broken(rng, bounds):
        raise GeometryError("meet of equal lines")

    monkeypatch.setitem(instances._MAKERS, "ramee", broken)
    assert main(["verify", "ramee", "--seed", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "retry budget exhausted" not in captured.err
    assert captured.err.endswith("GeometryError: meet of equal lines\n")


@pytest.mark.parametrize("command", ["verify", "replay", "figure"])
def test_geometry_error_on_a_generated_instance_is_an_internal_error(
    monkeypatch, capsys, tmp_path, command
):
    # a generated instance meets every precondition of its verifier, replay
    # and figure, so even the generator's NonGenericError is a fault there
    from arguesia import cli
    import arguesia.svg_figures as svg_figures
    from arguesia.menelaus_engine import NonGenericError

    def broken(*args):
        raise NonGenericError("a named point fell at infinity")

    monkeypatch.setattr(cli, "quadrangle_involution", broken)
    monkeypatch.setattr(cli, "replay_quadrangle_proof", broken)
    monkeypatch.setattr(svg_figures, "render_figure", broken)
    out = tmp_path / "fig.svg"
    argv = [command, "quadrangle", "--seed", "1"] + (["-o", str(out)] if command == "figure" else [])
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback (most recent call last):\n")
    assert captured.err.endswith("NonGenericError: a named point fell at infinity\n")
    assert not out.exists()


def test_unknown_kind_usage_error():
    proc = run_cli("verify", "frobnicate")
    assert proc.returncode == 2


def test_bounds_too_tight_config_error():
    proc = run_cli("verify", "ramee", "--seed", "1", "--bounds", "1")
    assert proc.returncode == 2
    assert "bounds" in proc.stderr


def test_env_seed_default():
    with_env = run_cli("verify", "pascal", env_seed=9)
    explicit = run_cli("verify", "pascal", "--seed", "9")
    assert with_env.stdout == explicit.stdout


def test_figure_writes_svg(tmp_path):
    out = tmp_path / "fig.svg"
    proc = run_cli("figure", "harmonic", "--seed", "1", "-o", str(out))
    assert proc.returncode == 0
    first = out.read_bytes()
    run_cli("figure", "harmonic", "--seed", "1", "-o", str(out))
    assert out.read_bytes() == first
    assert first.startswith(b"<?xml")


def test_verify_output_file(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli(
        "verify", "midpoint", "--seed", "3", "--json", "-o", str(out)
    )
    assert proc.returncode == 0
    data = json.loads(out.read_text())
    assert data["all_true"] is True


def test_verify_all_kinds_one_seed():
    from arguesia.cli import VERIFY_KINDS

    for kind in VERIFY_KINDS:
        rep = verify_one(kind, 2)
        assert rep["verdict"], kind


def test_replay_all_kinds():
    for kind in ("ramee", "quadrangle", "beaugrand", "pascal"):
        data = replay_one(kind, 3)
        assert data["verdict"], kind
        assert data["steps"]


def test_main_inprocess_exit_codes():
    assert main(["verify", "bisector", "--seed", "4"]) == 0


def test_json_dump_rejects_non_json_values():
    class Text(str):
        pass

    assert _json_dump({"x": "1/2"}) == '{\n  "x": "1/2"\n}\n'
    for value in ({"x": Fraction(1, 2)}, {1: "x"}, {"x": [1.5]}, 1.5, {(1, 2): 0},
                  Text("x"), {"x": Text("y")}, {"x": [Text("y")]}, {Text("x"): 0}):
        with pytest.raises(TypeError):
            _json_dump(value)


_JSON_TEXT = st.text() | st.sampled_from(['"', "\\", '\\"\n\t\x00\x1f\x7f', "ramée", "√2 ≠ ∞", "🜁", "\ud83d"])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**80), 2**80) | _JSON_TEXT,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_JSON_TEXT, inner, max_size=4)
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_JSON_VALUES)
@example({"a": [], "b": {}, "c": (), "d": [True, False, None], "e": [-(2**64) - 1, 2**65]})
@example([{"\"q\"\\": ["\x01\u00e9\U0001f701"]}, [[]], ({},)])
@example("")
def test_json_dump_matches_json_dumps_indent_2(value):
    assert _json_dump(value) == json.dumps(value, indent=2) + "\n"


def test_malformed_env_seed_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("ARGUESIA_SEED", "abc")
    assert main(["verify", "ramee"]) == 2
    assert "ARGUESIA_SEED" in capsys.readouterr().err


def test_internal_value_error_is_not_a_usage_error(monkeypatch, capsys):
    from arguesia import cli

    def broken(kind, seed, bounds=32):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "verify_one", broken)
    assert main(["verify", "ramee", "--seed", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback (most recent call last):\n")
    assert captured.err.endswith("ValueError: internal fault\n")


def test_type_error_inside_a_verifier_exits_three(monkeypatch, capsys):
    import arguesia.theorems as theorems

    def broken(o, p, q):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(theorems, "chord_product", broken)
    assert main(["verify", "parallel-bornales", "--seed", "1", "--json"]) == 3
    err = capsys.readouterr().err
    assert "in broken" in err and err.endswith("TypeError: unsupported operand\n")


def _assert_internal_error(capsys, argv, message):
    # a failed arithmetic self-check is the program's fault: exit 3 with a
    # traceback, not a usage error and not a retried precondition
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback (most recent call last):\n")
    assert captured.err.endswith(f"arguesia.exact_scalar.InternalError: {message}\n")


def test_failed_square_root_split_is_an_internal_error(monkeypatch, capsys):
    import arguesia.exact_scalar as exact_scalar

    monkeypatch.setattr(exact_scalar, "square_free_decomposition", lambda n: (1, n + 1))
    _assert_internal_error(
        capsys, ["verify", "ramee", "--seed", "1"], "square root extraction failed for 705"
    )


def test_off_conic_chord_point_is_an_internal_error(monkeypatch, capsys):
    import arguesia.conics as conics

    real = conics.Conic.contains

    def contains(self, p):
        # only the chord points built by conic_line_intersection miss the conic
        return real(self, p) and sys._getframe(1).f_code.co_name != "conic_line_intersection"

    monkeypatch.setattr(conics.Conic, "contains", contains)
    _assert_internal_error(
        capsys,
        ["verify", "beaugrand", "--seed", "1"],
        "rational intersection failed exactness check",
    )


def test_off_conic_second_intersection_is_an_internal_error(monkeypatch, capsys):
    import arguesia.conics as conics

    real = conics.conic_polar

    def conic_polar(m6, p):
        # a polar one off in its first entry: the chord's products miss
        u, v, w = real(m6, p)
        return u + 1, v, w

    monkeypatch.setattr(conics, "conic_polar", conic_polar)
    _assert_internal_error(
        capsys,
        ["verify", "pencil", "--seed", "1"],
        "second intersection failed exactness check",
    )


@pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
def test_interrupts_and_exits_are_not_internal_errors(monkeypatch, exc):
    from arguesia import cli

    def interrupted(kind, seed, bounds=32):
        raise exc()

    monkeypatch.setattr(cli, "verify_one", interrupted)
    with pytest.raises(exc):
        main(["verify", "ramee", "--seed", "1"])


def test_false_verdict_exits_one(monkeypatch, capsys):
    # K moved off the Thales circle on BC: the preconditions hold, the theorem does not
    from arguesia import cli
    from arguesia.projective_core import PPoint

    def perturbed(config):
        inst = generate_instance(config)
        k = inst["k"]
        kx, ky, kz = k.coords
        x, y = Fraction(kx, kz), Fraction(ky, kz)
        return dict(inst, k=affine_point(x + 1, y + 2))

    monkeypatch.setattr(cli, "generate_instance", perturbed)
    assert main(["verify", "bisector", "--seed", "1"]) == 1
    assert "FAIL" in capsys.readouterr().out
    assert main(["verify", "bisector", "--seed", "1", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["all_true"] is False
    (report,) = data["reports"]
    assert report["verdict"] is False
    assert any(c["equal"] is False for c in report["claims"])


NOT_IN_INVOLUTION = {"label": "couples in involution", "lhs": "false", "rhs": "true",
                     "equal": False}


@pytest.mark.parametrize("kind", ["ramee", "pencil"])
def test_couples_not_in_involution_is_a_false_verdict(kind, monkeypatch, capsys):
    # the verifier stops at that one false claim instead of building on
    # an involution the couples do not have
    import arguesia.theorems as theorems

    real = theorems.equivalence_check
    monkeypatch.setattr(theorems, "equivalence_check", lambda nc: dict(real(nc), equivalent=False))
    assert main(["verify", kind, "--seed", "1", "--json"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    (report,) = json.loads(out)["reports"]
    assert report["verdict"] is False
    reports = [m["report"] for m in report["members"]] if kind == "pencil" else [report]
    for rep in reports:
        assert rep["claims"] == [NOT_IN_INVOLUTION]
    if kind == "ramee":
        assert len(report["trace"]["steps"]) == 11  # the report keeps its shape
    # the one claim, plus the ramee trace's 11 steps or one per pencil member
    checks = {"ramee": 12, "pencil": 5}[kind]
    assert main(["verify", kind, "--seed", "1"]) == 1
    assert capsys.readouterr() == (f"{kind} seed=1 FAIL ({checks} checks)\n0/1 verdicts true\n", "")


def test_verify_text_counts_every_check(capsys):
    # claims, trace steps and each pencil member's claims
    counts = {"menelaus": 2, "ramee": 19, "quadrangle": 12, "pencil": 16, "pascal": 9,
              "beaugrand": 9, "parallel-bornales": 4, "midpoint": 6, "bisector": 4,
              "retablissement": 14}
    for kind, n in counts.items():
        assert main(["verify", kind, "--seed", "1"]) == 0
        assert capsys.readouterr().out.startswith(f"{kind} seed=1 ok ({n} checks)\n")


def test_figure_error_is_a_usage_error(monkeypatch, capsys, tmp_path):
    import arguesia.svg_figures as svg_figures

    def unbounded(kind, inst):
        raise svg_figures.FigureError("unbounded configuration: no finite labeled points")

    monkeypatch.setattr(svg_figures, "render_figure", unbounded)
    out = tmp_path / "fig.svg"
    assert main(["figure", "harmonic", "--seed", "1", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: unbounded configuration: no finite labeled points\n"
    assert not out.exists()


@pytest.mark.parametrize("command", (["verify", "ramee"], ["figure", "ramee"]))
def test_unwritable_output_is_a_usage_error(command, capsys, tmp_path):
    # exit 1 means some verdict is false; a file that cannot be written is exit 2
    out = tmp_path / "missing" / "out.txt"
    assert main([*command, "--seed", "1", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert not out.exists()


def _false_labels(node) -> list:
    """Labels of every claim or proof step, at any depth, whose sides differ."""
    if isinstance(node, list):
        return [label for item in node for label in _false_labels(item)]
    if not isinstance(node, dict):
        return []
    own = [node["label"]] if node.get("equal") is False else []
    return own + [label for value in node.values() for label in _false_labels(value)]


def _plus_one(pair):
    # an integer (num, den) pair with 1 added to its value
    num, den = pair
    return num + den, den


@pytest.mark.parametrize("kind, name, broken, label", [
    ("menelaus", "menelaus_product", lambda real: lambda figure: _plus_one(real(figure)),
     "menelaus product"),
    # the identity map stands in for a three-perspective involution that disagrees
    ("quadrangle", "desargues_involution_by_perspectives",
     lambda real: lambda q: SimpleNamespace(map=SimpleNamespace(matrix=(1, 0, 0, 1))),
     "three-perspective construction matches"),
    # sigma sends each transversal point to itself instead of through the conic
    ("pencil", "second_intersection", lambda real: lambda conic, on, other: other,
     "sigma(a) = c  [sigma(P) = G]"),
    ("beaugrand", "chord_product", lambda real: lambda o, p, q: _plus_one(real(o, p, q)),
     "FA.AG/(FC.CG) = BA.AE/(BC.CE)"),
    ("pascal", "chord_product", lambda real: lambda o, p, q: _plus_one(real(o, p, q)),
     "Palpha/PA = (Nalpha/QA)(Oalpha/VA)(KA/Kalpha)"),
    ("parallel-bornales", "chord_product", lambda real: lambda o, p, q: _plus_one(real(o, p, q)),
     "IC.IB/(KD.KE) = IQ.IP/(KQ.KP)"),
    # the involution leaves the base chord point where it is
    ("retablissement", "partner", lambda real: lambda inv, p: p, "base chord couple swapped"),
    # the midpoint construction breaks, not the harmonic data the
    # generator drew
    ("midpoint", "midpoint", lambda real: lambda p, q: p, "f is the midpoint of cb (metric)"),
], ids=["menelaus", "quadrangle", "pencil", "beaugrand", "pascal", "parallel-bornales",
        "retablissement", "midpoint"])
def test_broken_construction_step_exits_one(monkeypatch, capsys, kind, name, broken, label):
    import arguesia.theorems as theorems

    monkeypatch.setattr(theorems, name, broken(getattr(theorems, name)))
    assert main(["verify", kind, "--seed", "1", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["all_true"] is False
    (report,) = data["reports"]
    assert report["verdict"] is False
    assert label in _false_labels(report)


def test_broken_cut_to_base_perspectivity_exits_one(monkeypatch, capsys):
    # one entry of the cut->base matrix off by one: the cut bornes, mapped
    # back to the base plane, leave the circle, and the cut diagonal points
    # miss the base ones; the involution claims use no cut->base map
    import arguesia.theorems as theorems

    real = theorems.plane_perspectivity

    def broken(apex, src, dst):
        rows = [list(row) for row in real(apex, src, dst)]
        if dst.coeffs == (0, 0, 1, 0):  # the base plane
            rows[0][0] += 1
        return rows

    monkeypatch.setattr(theorems, "plane_perspectivity", broken)
    assert main(["verify", "retablissement", "--seed", "1", "--json"]) == 1
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    assert report["verdict"] is False
    assert _false_labels(report) == [
        *(f"borne {i} projects onto the base conic" for i in range(1, 7)),
        *(f"bornale intersection {n} transports exactly" for n in ("BC^ED", "BE^DC", "BD^CE")),
    ]


def test_every_table_names_an_instance_kind():
    from arguesia import cli, instances, svg_figures

    assert set(svg_figures._FIGURES) == set(instances.KINDS)
    assert {kind for kind, _ in cli.VERIFIERS.values()} <= set(instances.KINDS)
    assert set(cli.REPLAYS) <= set(instances.KINDS)


def test_moved_image_noeud_fails_the_ramee_replay(monkeypatch, capsys):
    # Every valid input satisfies the theorem, and a moved source noeud breaks
    # the couples' involution (exit 2).  The replay's Menelaus steps compare
    # products of integer ratio pairs; move the image b of B along the image
    # line and the step through b, its aggregation and the conclusion fail.
    # The image-couple claims take their couples from the same checked
    # figure, so the moved b falsifies them too, and with them the
    # classification and fixed-point claims, which read the involution of
    # the image couples.  The fault goes into the one run of the
    # precondition, the generator's, and its image couples are rebuilt
    # from the moved b.
    import arguesia.instances as instances
    from arguesia.involution import NodeCouples

    real = instances.check_ramee_replayable

    def moved(arbre, k, delta):
        figure = real(arbre, k, delta)
        pts = figure["points"]
        pts["b"] = delta.point_at_pair(_plus_one(delta.param_pair(pts["b"])))
        assert len(set(pts.values())) == len(pts)
        figure["image"] = NodeCouples(delta, tuple((pts[x], pts[y]) for x, y in ("bh", "cg", "df")))
        return figure

    monkeypatch.setattr(instances, "check_ramee_replayable", moved)
    assert main(["verify", "ramee", "--seed", "1", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["all_true"] is False
    (report,) = data["reports"]
    assert report["verdict"] is False
    assert _false_labels(report) == [
        "image GF.GD/(CF.CD) = GB.GH/(CB.CH)",
        "image FC.FG/(DC.DG) = FB.FH/(DB.DH)",
        "image HC.HG/(BC.BG) = HD.HF/(BD.BF)",
        "image couples in involution (homography)",
        "conjugate involution equals image involution",
        "classification preserved",
        "fixed point (-9/2 + -1/6*sqrt(705)) transported to a fixed point",
        "fixed point (-9/2 + 1/6*sqrt(705)) transported to a fixed point",
        "bd/bf = (Kd/KD)(2D/2f)",
        "db.dh/(fb.fh) = a.DB.DH/(FB.FH)",
        "dg.dc/(fg.fc) = db.dh/(fb.fh)",
    ]


@pytest.mark.parametrize("check, kind, command", [
    *(("check_ramee_replayable", "ramee", c) for c in ("verify", "replay", "figure")),
    *(("beaugrand_points", "beaugrand", c) for c in ("verify", "replay", "figure")),
    *(("pascal_figure", "pascal", c) for c in ("verify", "replay", "figure")),
    *(("check_retablissement", "retablissement", c) for c in ("verify", "figure")),
])
def test_one_precondition_run_per_op(monkeypatch, capsys, tmp_path, check, kind, command):
    # the generator checks the data once and keeps the figure; the verifier,
    # the replay and the SVG figure take it as it is, whatever module binds
    # the check
    import arguesia.instances as instances
    import arguesia.svg_figures  # noqa: F401  (loaded, so a binding there is wrapped too)

    real = getattr(instances, check)
    runs = []

    def counting(*args):
        runs.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("arguesia") and getattr(module, check, None) is real:
            monkeypatch.setattr(module, check, counting)
    for seed in (1, 2, 3):
        runs.clear()
        if command == "figure":
            argv = ["figure", kind, "--seed", str(seed), "-o", str(tmp_path / "f.svg")]
        else:
            argv = [command, kind, "--seed", str(seed), "--json"]
        assert main(argv) == 0
        assert len(runs) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", ("verify", "replay"))
def test_ramee_image_couples_built_once_per_op(monkeypatch, capsys, command):
    # the check builds the image couples and their six parameter pairs once;
    # the verifier and the replay's images note read them, so an op reads
    # six pairs for the arbre and six for the image, and no function but
    # the generator's maker and the check builds a NodeCouples
    from arguesia.involution import NodeCouples
    from arguesia.projective_core import AffineChart

    real_pair, real_init = AffineChart.param_pair, NodeCouples.__init__
    pairs, builders = [], []

    def counting_pair(self, p):
        pairs.append(p)
        return real_pair(self, p)

    def recording_init(self, chart, couples):
        builders.append(sys._getframe(1).f_code.co_name)
        real_init(self, chart, couples)

    monkeypatch.setattr(AffineChart, "param_pair", counting_pair)
    monkeypatch.setattr(NodeCouples, "__init__", recording_init)
    for seed in (1, 2, 3):
        pairs.clear()
        builders.clear()
        assert main([command, "ramee", "--seed", str(seed), "--json"]) == 0
        assert (len(pairs), builders) == (12, ["_make_ramee", "check_ramee_replayable"])
    capsys.readouterr()


@pytest.mark.parametrize("command", ("replay", "verify"))
@pytest.mark.parametrize("kind", ("ramee", "quadrangle", "beaugrand", "pascal"))
def test_false_menelaus_step_exits_one(monkeypatch, capsys, command, kind):
    # Every Menelaus step of every replay is one menelaus_step; add 1 to the
    # right side it logs, an integer pair, and each replay and its verify
    # kind exit 1.
    from arguesia.menelaus_engine import ProofTrace

    real = ProofTrace.add

    def rhs_plus_one(self, label, lhs, rhs, cite, **meta):
        if meta.get("kind") == "menelaus":
            rhs = _plus_one(rhs)
        real(self, label, lhs, rhs, cite, **meta)

    monkeypatch.setattr(ProofTrace, "add", rhs_plus_one)
    assert main([command, kind, "--seed", "1", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    trace = data if command == "replay" else data["reports"][0]["trace"]
    menelaus = [s["equal"] for s in trace["steps"] if s.get("meta", {}).get("kind") == "menelaus"]
    assert menelaus == [False] * {"ramee": 8, "quadrangle": 4}.get(kind, 2)


@pytest.mark.parametrize("argv", (
    ["construct", "harmonic", "--b", "0", "--c", "2", "--d", "3"],
    # the generator retries preconditions only, so the fault is not hidden
    # as an exhausted retry budget
    ["verify", "midpoint", "--seed", "1"],
), ids=["construct", "verify-midpoint"])
def test_harmonic_construction_disagreement_is_an_internal_error(monkeypatch, capsys, argv):
    import arguesia.theorems as theorems

    # the ruler construction lands on B instead of the harmonic conjugate
    monkeypatch.setattr(theorems, "harmonic_construction_data", lambda b, c, d: {"f": b})
    _assert_internal_error(capsys, argv, "harmonic constructions disagree")


@pytest.mark.parametrize("kind, label, homography", [
    ("ramee", "image GF.GD/(CF.CD) = GB.GH/(CB.CH)", "image couples in involution (homography)"),
    ("quadrangle", "GF.GD/(CF.CD) = GB.GH/(CB.CH)", "couples (I,K), (P,Q), (G,H) in involution"),
], ids=["ramee", "quadrangle"])
def test_broken_rectangle_route_exits_one(monkeypatch, capsys, kind, label, homography):
    # The rectangle identities and the homography check are separate claims:
    # a fault in the rectangle route falsifies its own claims and leaves the
    # homography claim true.
    import itertools

    import arguesia.involution as involution

    real = involution._rect_pair
    calls = itertools.count()

    def left_side_plus_one(e1, e2, w1, w2):
        # each identity computes its left side first; add 1 to that side only
        num, den = real(e1, e2, w1, w2)
        return (num + den, den) if next(calls) % 2 == 0 else (num, den)

    monkeypatch.setattr(involution, "_rect_pair", left_side_plus_one)
    assert main(["verify", kind, "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["all_true"] is False
    (report,) = data["reports"]
    assert report["verdict"] is False
    claims = {c["label"]: c["equal"] for c in report["claims"]}
    assert claims[label] is False
    assert claims[homography] is True
