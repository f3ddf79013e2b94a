import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arguesia.instances import (
    KINDS,
    InstanceConfig,
    InstanceError,
    _point,
    generate_instance,
)
from arguesia.conics import UNIT_CIRCLE_PAR
from arguesia.projective_core import _canonical
from arguesia.rng import SplitMix64, fnv1a64
from quadfield import affine_point

SRC = Path(__file__).resolve().parent.parent / "src"


def test_splitmix64_reference_vector():
    # published reference outputs for seed 0
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(4)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]


def test_fnv1a64_known_value():
    # FNV-1a 64 of empty string is the offset basis
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C


def test_below_is_uniform_range():
    r = SplitMix64(42)
    vals = [r.below(10) for _ in range(1000)]
    assert set(vals) <= set(range(10))
    assert len(set(vals)) == 10


def test_streams_differ_by_kind():
    a = SplitMix64.for_kind("ramee", 1).next_u64()
    b = SplitMix64.for_kind("pascal", 1).next_u64()
    assert a != b


@pytest.mark.parametrize("kind", KINDS)
def test_generation_succeeds_and_is_deterministic(kind):
    c = InstanceConfig(kind, 11)
    a = generate_instance(c)
    b = generate_instance(c)
    ka = {k: v for k, v in a.items() if k != "config"}
    kb = {k: v for k, v in b.items() if k != "config"}
    assert ka == kb


def test_unknown_kind_rejected():
    with pytest.raises(InstanceError):
        InstanceConfig("frobnicate", 1)


def test_bounds_below_8_are_refused_before_any_draw():
    # a usage refusal, worded apart from the exit-3 exhausted retry budget
    for bounds in (1, 7):
        with pytest.raises(InstanceError, match=(
                rf"^--bounds must be at least 8, got {bounds} \(coordinate bounds below 8 "
                r"cannot clear the genericity checks\)$")):
            InstanceConfig("quadrangle", 1, bounds=bounds)


def test_exhausted_budget_at_bounds_8_and_above_is_internal(monkeypatch, capsys):
    # no correct genericity test rejects every draw at these bounds, so a
    # maker that always raises NonGenericError is a fault: exit 3
    import arguesia.instances as instances
    from arguesia.cli import main
    from arguesia.exact_scalar import InternalError
    from arguesia.menelaus_engine import NonGenericError

    def never_generic(rng, bounds):
        raise NonGenericError("always rejected")

    monkeypatch.setitem(instances._MAKERS, "quadrangle", never_generic)
    with pytest.raises(InternalError, match="last failure: always rejected"):
        generate_instance(InstanceConfig("quadrangle", 1, bounds=32))
    assert main(["verify", "quadrangle", "--seed", "1", "--bounds", "32"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "retry budget exhausted" in err


def test_pascal_instance_has_six_distinct_params():
    # the hexagon's points are point_at of the six drawn parameters
    hexagon = generate_instance(InstanceConfig("pascal", 7))["figure"]["hexagon"]
    assert len(set(hexagon)) == 6


_SLOPE = st.tuples(st.integers(-2**70, 2**70), st.integers(-2**70, 2**70)).filter(any)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_SLOPE, _SLOPE)
@example((1, 0), (0, 1))  # the tangent at the seed and the horizontal chord
@example((1, 1), (-1, 1))
def test_distinct_slopes_give_distinct_circle_points(s, t):
    # why the pascal, beaugrand and pencil makers need no collision check:
    # their points are point_at of distinct canonical slope pairs
    s, t = _canonical(s), _canonical(t)
    if s != t:
        assert UNIT_CIRCLE_PAR.point_at(s) != UNIT_CIRCLE_PAR.point_at(t)


QUADRANGLE_KEYS = {"bornes", "transversal", "bornales", "diagonals", "I", "K", "P", "Q", "G", "H"}


@pytest.mark.parametrize("kind, keys", [
    ("ramee", {"arbre", "k", "delta", "points", "image"}),
    ("beaugrand", {"conic", "transversal", "points", "lines"}),
    ("pascal", {"conic", "hexagon", "points", "lines"}),
    ("retablissement", {"apex", "base", "cut", "params", "to_base",
                        "base_pts", "cut_pts", "base_q", "cut_q"}),
    ("menelaus", {"tronc", "nodes", "rays", "vertices"}),
    ("quadrangle", QUADRANGLE_KEYS),
    ("pencil", QUADRANGLE_KEYS),
    ("parallel_bornales", QUADRANGLE_KEYS),
])
def test_checked_figure_is_a_plain_dict(kind, keys):
    # every precondition check returns its figure as plain data, one shape
    figure = generate_instance(InstanceConfig(kind, 1))["figure"]
    assert type(figure) is dict and set(figure) == keys


def test_generated_sizes_respect_bounds():
    inst = generate_instance(InstanceConfig("menelaus", 5, bounds=16))
    for p in inst["figure"]["vertices"]:
        px, py, pz = p.coords
        x, y = Fraction(px, pz), Fraction(py, pz)
        assert abs(x) <= 16 and abs(y) <= 16


@pytest.mark.parametrize("seed", [920, 5001634, 7000597])
def test_beaugrand_tangent_auxiliary_chord_resamples(seed, capsys):
    # these seeds first drew an auxiliary parallel chord tangent to the circle
    from arguesia.cli import main

    assert main(["verify", "beaugrand", "--seed", str(seed), "--json"]) == 0
    assert main(["replay", "beaugrand", "--seed", str(seed), "--json"]) == 0
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["menelaus", "ramee", "quadrangle", "pencil", "pascal",
                                  "beaugrand", "parallel-bornales", "midpoint", "bisector",
                                  "retablissement"])
def test_seed_sweep_at_bounds_8(kind, capsys):
    # the smallest bounds allowed put the most instances on the edge of
    # their preconditions; every seeded verify must still exit 0
    from arguesia.cli import main

    trials = 3000 if kind == "beaugrand" else 200
    assert main(["verify", kind, "--seed", "1", "--trials", str(trials), "--bounds", "8"]) == 0
    assert capsys.readouterr().out.endswith(f"{trials}/{trials} verdicts true\n")


@pytest.mark.parametrize(
    "bounds, seed",
    [(8, 895), (8, 1303), (8, 2172), (8, 2390), (8, 2631),
     (32, 5283), (32, 6446), (32, 7463), (32, 11948), (32, 12727)],
)
def test_every_generated_beaugrand_instance_has_its_replay(bounds, seed, capsys):
    # these seeds first drew an instance whose replay put a named point at
    # infinity or two named points together; the maker now asks the
    # replay's own precondition, beaugrand_points
    from arguesia.cli import main

    for command in ("verify", "replay"):
        assert main([command, "beaugrand", "--seed", str(seed), "--bounds", str(bounds)]) == 0
    assert capsys.readouterr().err == ""


SIDE_LINE = "transversal is a side line"
ONE_COUPLE = "two drawn parameters make one couple"


@pytest.mark.parametrize(
    "kind, bounds, seed, reason",
    [("menelaus", 8, 51, SIDE_LINE), ("menelaus", 8, 516, SIDE_LINE),
     ("ramee", 8, 38, ONE_COUPLE), ("ramee", 32, 120, ONE_COUPLE)],
)
def test_maker_preconditions_are_non_generic_errors(kind, bounds, seed, reason, monkeypatch):
    # these seeds first drew a transversal on a side line (menelaus) or
    # two parameters of one couple (ramee), where a constructor raised a
    # plain GeometryError; the maker names the case, the generator resamples
    # it, and nothing else is resampled
    import arguesia.instances as instances
    from arguesia.menelaus_engine import NonGenericError

    reasons = []
    maker = instances._MAKERS[kind]

    def recording(rng, bounds):
        try:
            return maker(rng, bounds)
        except NonGenericError as exc:
            reasons.append(str(exc))
            raise

    monkeypatch.setitem(instances._MAKERS, kind, recording)
    generate_instance(InstanceConfig(kind, seed, bounds))
    assert reason in reasons


@pytest.mark.parametrize("seed", [210000003, 210000037])
def test_pascal_hexagon_without_circle_replay_resamples(seed, capsys):
    # these seeds first drew a hexagon whose replay point was at infinity
    # (210000003) or merged with another (210000037)
    from arguesia.cli import main

    assert main(["replay", "pascal", "--seed", str(seed)]) == 0
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("seed", [1763, 2092, 2105, 2229, 2491])
def test_every_generated_pascal_hexagon_has_its_circle_replay(seed):
    from arguesia.cli import verify_one

    report = verify_one("pascal", seed)
    assert report["verdict"] and "trace" in report
    assert "circle_replay" not in report["notes"]


def _below_one_word(rng: SplitMix64, n: int) -> int:
    """The single-output draw below() used for every n before wide bounds."""
    limit = (1 << 64) - ((1 << 64) % n)
    while True:
        v = rng.next_u64()
        if v < limit:
            return v % n


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 2**64))
@example(seed=0, n=1)
@example(seed=0, n=2**64)
@example(seed=5, n=2**63 + 1)
def test_below_keeps_the_one_word_draw_up_to_2_64(seed, n):
    new, old = SplitMix64(seed), SplitMix64(seed)
    assert [new.below(n) for _ in range(5)] == [_below_one_word(old, n) for _ in range(5)]
    assert new.state == old.state


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 2**200))
@example(seed=0, n=2**64 + 1)
@example(seed=0, n=2**200)
def test_below_stays_in_range_for_any_bound(seed, n):
    rng = SplitMix64(seed)
    for _ in range(5):
        assert 0 <= rng.below(n) < n


def test_wide_draw_reads_outputs_most_significant_first():
    # 2**128 is a multiple of 2**128, so the first two-output draw is accepted
    rng, ref = SplitMix64(7), SplitMix64(7)
    assert rng.below(1 << 128) == (ref.next_u64() << 64) | ref.next_u64()
    assert rng.state == ref.state


@pytest.mark.parametrize("kind", ["menelaus", "quadrangle"])
@pytest.mark.parametrize("bounds", [2**63, 2**64 + 1])
def test_verify_at_bounds_past_2_63_finishes(kind, bounds):
    # below(2*bounds + 1) needs more than one 64-bit output per draw here
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    env.pop("ARGUESIA_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-m", "arguesia.cli", "verify", kind, "--bounds", str(bounds)],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("1/1 verdicts true\n")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**64 - 1), st.sampled_from((8, 32, 3 * 10**4, 2**70)))
def test_integer_point_draw_matches_fraction_draw(seed, bounds):
    # _point builds the point from integer draws; two rational draws by the
    # documented rule give the same canonical point and leave the same state
    def fraction_draw(rng):
        num = rng.int_between(-bounds, bounds)
        return Fraction(num, rng.int_between(1, min(8, bounds)))

    old_rng, new_rng = SplitMix64(seed), SplitMix64(seed)
    for _ in range(4):
        old = affine_point(fraction_draw(old_rng), fraction_draw(old_rng))
        assert _point(new_rng, bounds) == old
        assert new_rng.state == old_rng.state
    assert Fraction(*SplitMix64(seed).fraction_pair(bounds)) == fraction_draw(SplitMix64(seed))
