"""Tests of the benchmark itself: names, inputs, verdicts and tracing.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

import liefam  # noqa: E402
import liefam.cli  # noqa: E402,F401
from liefam import algebra, cli, cohomology, families, poly, suite  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- metric names -------------------------------------------------------------


def test_metric_names_follow_the_grammar_and_are_unique():
    data = spec()
    names = [w["name"] for w in data["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in data[group]:
            assert NAME.match(metric["name"]), metric["name"]
            assert UNIT.match(metric["unit"]), metric["unit"]
            assert metric["better"] in ("higher", "lower")
            names.append(metric["name"])
    assert len(names) == len(set(names))
    assert set(w["name"] for w in data["workloads"]) == set(workloads.WORKLOADS)


def test_per_layer_metrics_match_what_the_tracer_reports():
    declared = [(m["name"], m["unit"]) for m in spec()["per_layer"]]
    assert declared == layers.metric_specs()
    reported = set(layers.Tracer().layer_metrics())
    trace_checks = {n for n, _ in layers.metric_specs() if n.startswith("trace.")}
    assert reported | trace_checks == {n for n, _ in declared}


def test_end_to_end_metrics_match_what_a_run_reports():
    declared = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert declared["setup_s"] == "s"
    assert all(0 < m["bound"] <= 0.25 for m in spec()["end_to_end"])
    assert set(declared) == {"verdict_s", "setup_s", "peak_rss_mib", "right_verdict_ratio"}


# -- inputs from the seed -------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_always_builds_the_same_inputs(name):
    build, describe, _ = workloads.WORKLOADS[name]
    first = workloads.digest(describe(build(5, liefam)))
    assert workloads.digest(describe(build(5, liefam))) == first


def test_seed_changes_the_seeded_inputs():
    for name in ("paper-suite", "jacobi-window"):
        build, describe, _ = workloads.WORKLOADS[name]
        digests = {workloads.digest(describe(build(seed, liefam))) for seed in range(1, 6)}
        assert len(digests) > 1


def test_goncharova_closed_form():
    ones = [(q, s) for q in range(1, 6) for s in range(1, 41) if workloads.goncharova_closed_form(q, s)]
    assert ones == [(1, 1), (1, 2), (2, 5), (2, 7), (3, 12), (3, 15), (4, 22), (4, 26), (5, 35), (5, 40)]


# -- verdicts -------------------------------------------------------------------


def small_elimination():
    return {"cases": ((1, 1), (1, 2), (1, 3), (2, 5))}


def test_right_answers_give_no_wrong_verdicts():
    result = workloads.run_elimination(small_elimination(), liefam)
    assert result.wrong == []
    assert result.output == [[1, 1, 1], [1, 2, 1], [1, 3, 0], [2, 5, 1]]


def test_a_wrong_expected_answer_is_counted_as_a_wrong_verdict():
    runner = run.Runner("elimination", small_elimination(), liefam)
    runner.run_pass = lambda inputs, package: workloads.run_elimination(
        inputs, package, expected=lambda q, s: 0
    )
    runner.one()
    assert (runner.attempted, runner.failed) == (4, 3)


def test_a_raising_certificate_is_a_wrong_verdict():
    verdicts = []
    assert workloads._judge(verdicts, "boom", lambda: 1 / 0) is None
    assert verdicts[0][1] is False and "ZeroDivisionError" in verdicts[0][0]


def test_output_that_changes_between_passes_is_a_failure():
    runner = run.Runner("elimination", small_elimination(), liefam)
    outputs = iter([[1], [2]])
    runner.run_pass = lambda inputs, package: workloads.Pass(next(outputs), [("x", True)])
    runner.one()
    runner.one()
    assert (runner.attempted, runner.failed) == (2, 1)


def test_scaling_divides_out_the_reference_speed():
    assert speed.scale(3.0, speed.REFERENCE_ITER_S) == pytest.approx(3.0)
    # at half the reference speed a block takes twice as long
    assert speed.scale(3.0, 2 * speed.REFERENCE_ITER_S) == pytest.approx(1.5)


def test_sampler_samples_inside_the_block_and_subtracts_its_own_time():
    with speed.Sampler() as sampler:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 1
    assert 0 < sampler.sampling_s < 0.25
    assert sampler.scaled(0.5) == pytest.approx(
        speed.scale(0.5 - sampler.sampling_s, sum(sampler.samples) / len(sampler.samples))
    )


def test_sampler_samples_once_after_a_short_block():
    with speed.Sampler() as sampler:
        pass
    assert len(sampler.samples) == 1 and sampler.sampling_s == 0


# -- tracing --------------------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    now = [0.0]
    tracer = layers.Tracer(clock=lambda: now[0])

    def tick(dt):
        now[0] += dt

    def leaf():
        tick(3)

    def inner():
        tick(2)
        leaf_w()

    def outer():
        tick(1)
        inner_w()
        inner_w()
        tick(1)

    leaf_w = tracer.wrap("leaf", leaf)
    inner_w = tracer.wrap("inner", inner)
    tracer.wrap("outer", outer)()
    # outer spans 1 + 2 * (2 + 3) + 1 = 12; children cover 10 of it
    assert tracer.stats["outer"] == [1, 2.0, 12.0]
    assert tracer.stats["inner"] == [2, 4.0, 10.0]
    assert tracer.stats["leaf"] == [2, 6.0, 6.0]
    assert sum(s[1] for s in tracer.stats.values()) == 12.0


def test_self_time_survives_an_exception():
    now = [0.0]
    tracer = layers.Tracer(clock=lambda: now[0])

    def fails():
        now[0] += 2
        raise ValueError

    def outer():
        now[0] += 1
        with pytest.raises(ValueError):
            fails_w()

    fails_w = tracer.wrap("fails", fails)
    tracer.wrap("outer", outer)()
    assert tracer.stats["outer"] == [1, 1.0, 3.0]
    assert tracer.stats["fails"] == [1, 2.0, 2.0]


def binding_ids():
    # ids, not the functions: holding an original would count as a binding
    return [id(f) for f in (poly.ParamPoly.__mul__, algebra.verify_jacobi, suite.CRITERIA[1], Fraction.__new__)]


@pytest.fixture
def tracer():
    t = layers.Tracer()
    before = binding_ids()
    t.install(liefam)
    try:
        yield t
    finally:
        t.uninstall()
    assert binding_ids() == before
    assert poly.ParamPoly.__rmul__ is poly.ParamPoly.__mul__


def test_every_binding_of_a_traced_function_is_wrapped(tracer):
    assert tracer.unwrapped_bindings() == []
    assert poly.ParamPoly.__rmul__ is poly.ParamPoly.__mul__
    assert poly.ParamPoly.__mul__.__wrapped__ is not None
    assert cohomology.bracket is algebra.bracket
    assert cli.verify_jacobi is algebra.verify_jacobi is liefam.verify_jacobi
    assert hasattr(cli.verify_jacobi, "__wrapped__")
    assert suite.CRITERIA[1] is suite.criterion_1
    assert families.CATALOG["witt"][0] is families.witt
    assert hasattr(families.witt, "__wrapped__")
    assert tracer._swap((None, 1, "witt")) is None


def test_a_binding_the_rebind_misses_is_reported(tracer):
    held = [algebra.verify_jacobi.__wrapped__]
    assert tracer.unwrapped_bindings() == ["liefam.algebra.verify_jacobi held by a list"]
    held.clear()
    assert tracer.unwrapped_bindings() == []


def test_traced_calls_are_counted_and_outputs_unchanged(tracer):
    window = range(-8, 9)
    traced = algebra.verify_jacobi(families.witt(), window).to_json()
    first = tracer.snapshot()
    tracer.reset()
    assert algebra.verify_jacobi(families.witt(), window).to_json() == traced
    assert tracer.snapshot() == first
    assert first["algebra.verify_jacobi.calls"] == 1
    assert first["algebra.verify_jacobi.triples"] == 680
    assert first["fractions.Fraction.new"] > 0
    assert 3 * 2 * poly.ParamPoly.const((), 1) == poly.ParamPoly.const((), 6)
    assert tracer.stats["poly.ParamPoly.__mul__"][0] > 0
    tracer.uninstall()
    assert algebra.verify_jacobi(families.witt(), window).to_json() == traced


def test_a_traced_run_reports_every_per_layer_metric():
    runner = run.Runner("elimination", small_elimination(), liefam)
    args = run.parse_args(["--workload", "elimination", "--seed", "1", "--trace", "1"])
    metrics = run.traced(args, runner)
    assert [(name, unit) for name, (_, unit) in metrics.items()] == layers.metric_specs()
    assert metrics["trace.unwrapped_bindings"][0] == 0
    assert metrics["linalg.LinearSystem.add.calls"][0] > 0
    assert (runner.attempted, runner.failed) == (12, 0)


def test_an_unwrapped_binding_fails_a_traced_run():
    runner = run.Runner("elimination", small_elimination(), liefam)
    args = run.parse_args(["--workload", "elimination", "--seed", "1", "--trace", "1"])
    held = [cohomology.goncharova_dim]
    metrics = run.traced(args, runner)
    assert metrics["trace.unwrapped_bindings"][0] == 1
    assert runner.failed == 1
    assert held


def test_bypass_and_repeat_checks():
    snap = {"linalg.rank_of_vectors.calls": 0, "geometry.realize.calls": 2, "linalg.pivots": 5}
    assert layers.bypass_violations("jacobi-window", snap) == ["geometry.realize.calls"]
    assert layers.bypass_violations("paper-suite", snap) == []
    assert layers.count_mismatches(snap, dict(snap, **{"linalg.pivots": 6})) == ["linalg.pivots"]


# -- the command ----------------------------------------------------------------


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "elimination",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
