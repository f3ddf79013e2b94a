"""Acceptance suite: every criterion at its stated count, exact arithmetic,
zero tolerance.  One PASS/FAIL line is printed per criterion together with
its runtime; the final criterion also enforces determinism and the overall
time budget.
"""

import subprocess
import sys
import time
from fractions import Fraction as F

from arguesia.instances import InstanceConfig, generate_instance
from arguesia.involution import classify
from arguesia.menelaus_engine import NonGenericError, menelaus_product
from arguesia.projective_core import GeometryError, default_chart, incident, join
from arguesia.rng import SplitMix64
from arguesia.theorems import (
    construct_involution_p13,
    desargues_involution_by_perspectives,
    nc_involution,
    parallel_bornales_identities,
    pascal_collinear,
    pascal_figure,
    pencil_involution_check,
    quadrangle_involution,
    retablissement_demo,
    verify_bisector_case,
    verify_midpoint_case,
    verify_ramee,
)
from collineation import apply_collineation, apply_collineation_point, random_collineation
from quadfield import point_at, rat

_TOTALS = {"elapsed": 0.0}


def _criterion(number, description, budget_s, fn):
    t0 = time.perf_counter()
    try:
        fn()
        elapsed = time.perf_counter() - t0
        _TOTALS["elapsed"] += elapsed
        ok = elapsed < budget_s if budget_s else True
        line = f"criterion {number:02d} {'PASS' if ok else 'FAIL'} {description} ({elapsed:.2f}s)"
        print(line)
        assert ok, f"runtime {elapsed:.2f}s exceeded budget {budget_s}s"
    except AssertionError:
        print(f"criterion {number:02d} FAIL {description}")
        raise


def test_criterion_01_menelaus_500():
    def run():
        for seed in range(1, 501):
            inst = generate_instance(InstanceConfig("menelaus", seed))
            fig = inst["figure"]
            assert rat(menelaus_product(fig)) == 1
            # converse: rebuild the third noeud from the unit-product
            # constraint; it must land exactly on the transversal
            from arguesia.menelaus_engine import ratio

            n1, n2, n3 = fig.nodes
            a, b, c = fig.vertices()
            r1 = F(*ratio(n1, b, c))
            r2 = F(*ratio(n2, c, a))
            target = 1 / (r1 * r2)
            ray = default_chart(join(a, b))
            ta, tb = rat(ray.param_pair(a)), rat(ray.param_pair(b))
            assert target != 1
            t = (ta - target * tb) / (1 - target)
            rebuilt = point_at(ray, t)
            assert rebuilt == n3
            assert incident(rebuilt, fig.tronc)

    _criterion(1, "menelaus product = 1 and converse, 500 seeds", 5.0, run)


def test_criterion_02_ramee_500():
    def run():
        rect_labels = ("GF.GD", "FC.FG", "HC.HG")
        for seed in range(1, 501):
            inst = generate_instance(InstanceConfig("ramee", seed))
            rep = verify_ramee(inst["figure"])
            assert rep.verdict, f"seed {seed}"
            labels = " ".join(c["label"] for c in rep.claims)
            for fragment in rect_labels:
                assert fragment in labels  # rectangle identities were checked
            assert "homography" in labels
            assert "classification preserved" in labels
            assert rep.trace is not None
            assert sum(s.get("meta", {}).get("kind") == "menelaus" for s in rep.trace.steps) == 8
            assert all(s["equal"] for s in rep.trace.steps)
            src_cls = classify(nc_involution(inst["figure"]["arbre"]))
            if src_cls["kind"] == "hyperbolic":
                assert any("fixed point" in c["label"] for c in rep.claims)

    _criterion(
        2,
        "ramee: identities, homography, 8 menelaus steps, transport, 500 seeds",
        10.0,
        run,
    )


def test_criterion_04_special_cases_200_each():
    def run():
        for seed in range(1, 201):
            h = generate_instance(InstanceConfig("harmonic", seed))
            rep = verify_midpoint_case(h["b"], h["c"], h["d"], h["f"], h["k"])
            assert rep.verdict, f"midpoint seed {seed}"
            ratio_claim = next(c for c in rep.claims if "raison double" in c["label"])
            assert ratio_claim["lhs"] == "2/1" and ratio_claim["rhs"] == "2/1"
        for seed in range(1, 201):
            b = generate_instance(InstanceConfig("bisector", seed))
            rep = verify_bisector_case(b["b"], b["c"], b["d"], b["f"], b["k"])
            assert rep.verdict, f"bisector seed {seed}"
        for seed in range(1, 201):
            p = generate_instance(InstanceConfig("p13", seed))
            _, rep = construct_involution_p13(p["b"], p["h"], p["g"], p["k"])
            assert rep.verdict, f"p13 seed {seed}"

    _criterion(
        4, "midpoint, raison double, bisector, p.13 construction, 200 seeds each", 5.0, run
    )


def test_criterion_05_quadrangle_200():
    def run():
        for seed in range(1, 201):
            inst = generate_instance(InstanceConfig("quadrangle", seed))
            q = inst["quadrangle"]
            inv, rep = quadrangle_involution(q)
            assert rep.verdict, f"seed {seed}"
            assert rep.trace is not None
            assert sum(s.get("meta", {}).get("kind") == "menelaus" for s in rep.trace.steps) == 4
            other = desargues_involution_by_perspectives(q)
            assert other.map.matrix == inv.map.matrix

    _criterion(
        5, "quadrangle involution, 4-step replay, perspective match, 200 seeds", 5.0, run
    )


def test_criterion_06_pencil_100x5():
    def run():
        from arguesia.conics import pencil_member

        for seed in range(1, 101):
            inst = generate_instance(InstanceConfig("pencil", seed))
            q = inst["quadrangle"]
            assert len(inst["members"]) == 5
            degenerate = sum(1 for _, m in inst["members"] if m.is_degenerate())
            assert degenerate == 2  # both line-pair degenerates present
            tangent = dict(inst["members"])["tangent member"]
            gen1, gen2 = q.line_pairs["IK"], q.line_pairs["PQ"]
            assert pencil_member(gen1, gen2, inst["tangency"]) == tangent
            for name, member in inst["members"]:
                rep = pencil_involution_check(q, member)
                assert rep.verdict, f"seed {seed} member {name}"
                labels = " ".join(c["label"] for c in rep.claims)
                if not member.is_degenerate():
                    assert "sigma(a) = c" in labels
                    assert "sigma(c') = a'" in labels
                if name == "tangent member":
                    assert "tangency double point is a fixed point" in labels

    _criterion(
        6,
        "pencil: 100 quadrangles x 5 members, chords swapped, tangency fixed, sigma",
        20.0,
        run,
    )


def test_criterion_07_parallel_bornales_200():
    def run():
        for seed in range(1, 201):
            inst = generate_instance(InstanceConfig("parallel_bornales", seed))
            rep = parallel_bornales_identities(inst["quadrangle"])
            assert rep.verdict, f"seed {seed}"
            assert sum(1 for c in rep.claims if "=" in c["label"]) >= 3

    _criterion(7, "parallel bornales: all three trapezoid identities, 200 seeds", 5.0, run)


def test_criterion_08_beaugrand_100():
    def run():
        from arguesia.theorems import beaugrand_replay

        for seed in range(1, 101):
            inst = generate_instance(InstanceConfig("beaugrand", seed))
            trace = beaugrand_replay(inst["figure"])
            assert trace.verdict, f"seed {seed}"
            kinds = [s["meta"]["kind"] for s in trace.steps]
            assert kinds.count("apollonius") == 2
            assert kinds.count("menelaus") == 2
            assert kinds.count("final") == 1
            assert kinds.count("analogy") == 2

    _criterion(8, "beaugrand full trace on 100 circle-based seeds", 10.0, run)


def test_criterion_09_pascal_200_plus_collineations():
    def run():
        for seed in range(1, 201):
            inst = generate_instance(InstanceConfig("pascal", seed))
            rep = pascal_collinear(inst["figure"])
            assert rep.verdict, f"seed {seed}"
            assert rep.claims[0]["equal"]  # collinear M, S, X
            if rep.trace is not None:
                cr_step = rep.trace.steps[-1]
                assert cr_step["label"].startswith("[A,alpha,M,P]")
                assert cr_step["equal"]
        rng = SplitMix64.for_kind("acceptance-collineations", 1)
        base = generate_instance(InstanceConfig("pascal", 1))["figure"]
        done = 0
        for _ in range(100):
            t_rows = random_collineation(rng)
            conic = apply_collineation(base["conic"], t_rows)
            pts = [apply_collineation_point(t_rows, p) for p in base["hexagon"]]
            try:
                rep = pascal_collinear(pascal_figure(conic, pts))
            except (GeometryError, NonGenericError):
                continue
            assert rep.claims[0]["equal"]
            done += 1
            if done == 20:
                break
        assert done == 20

    _criterion(
        9, "pascal collinearity: 200 circle seeds + 20 collineation images", 10.0, run
    )


def test_criterion_10_retablissement_50():
    def run():
        for seed in range(1, 51):
            inst = generate_instance(InstanceConfig("retablissement", seed))
            rep = retablissement_demo(inst["figure"])
            assert rep.verdict, f"seed {seed}"

    _criterion(10, "retablissement 3d transport and pullback, 50 seeds", 20.0, run)


def test_criterion_11_determinism_and_budget():
    def run():
        import os

        env = dict(os.environ)
        env.pop("ARGUESIA_SEED", None)

        def invoke(*args):
            return subprocess.run(
                [sys.executable, "-m", "arguesia.cli", *args],
                capture_output=True,
                env=env,
            ).stdout

        for args in (
            ("verify", "ramee", "--seed", "1", "--trials", "3", "--json"),
            ("verify", "pencil", "--seed", "2"),
            ("replay", "quadrangle", "--seed", "4", "--json"),
            ("replay", "beaugrand", "--seed", "5"),
        ):
            assert invoke(*args) == invoke(*args), f"nondeterministic: {args}"
        assert _TOTALS["elapsed"] < 120.0, f"suite took {_TOTALS['elapsed']:.1f}s"

    _criterion(11, "byte-identical reruns; full suite under two minutes", 30.0, run)
