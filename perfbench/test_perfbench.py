"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import random
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402
from workloads import Instance, Op  # noqa: E402


def _segre():
    polys = tuple(check.parse_terms(s, workloads.SOURCE_VARS) for s in workloads.SEGRE_STRINGS)
    return Instance("segre", (1, 1), polys, 2)


def _small_ops():
    """One cheap operation of each kind, the gcd path included."""
    rng = random.Random(3)
    patch = Instance("patch12", (1, 2), workloads.random_map(rng, (1, 2)), 4)
    r11 = Instance("rand11", (1, 1), workloads.random_map(random.Random(7), (1, 1)), 2)
    return [
        Op("implicitize", patch),
        Op("implicitize", r11, nu=(3, 1), minors=3),
        Op("matrix", patch, nu=(2, 3), queries=(5, 6)),
        Op("oracle", _segre(), queries=workloads.image_points(rng, _segre().polys, 2)),
    ]


def _traced_counters():
    runner = run.Runner(_small_ops(), run.Speed())
    tracer = Tracer()
    tracer.install()
    try:
        result = runner.run_pass(time.perf_counter() + 120, tracer)
    finally:
        tracer.remove()
    assert all(o.status == "ok" for o in result.ops + result.queries)
    return tracer


def test_counters_repeat_exactly():
    signal.signal(signal.SIGALRM, run._on_alarm)
    first, second = _traced_counters(), _traced_counters()
    assert first.counters() == second.counters()
    counters = first.counters()
    assert counters["calls"]["polygcd.tpoly_gcd"] > 0
    assert counters["primes_used"] > 0 and counters["oracle_points"] > 0
    assert counters["matrix_shapes"] and counters["z_dims"]
    metrics = first.per_layer(0.0)
    assert list(metrics) == [name for name, _, _ in PER_LAYER]


def test_wrappers_are_removed():
    from biimplicit import complexes, matrixrep

    before = (complexes.rref_nullspace, matrixrep.bareiss_det, matrixrep.MatrixRep.evaluate)
    _traced_counters()
    after = (complexes.rref_nullspace, matrixrep.bareiss_det, matrixrep.MatrixRep.evaluate)
    assert before == after


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.02)
    outer, inner = tracer.self_times()
    assert inner >= 0.02 and outer < 0.01


def test_grid_check_accepts_only_forms_vanishing_on_the_image():
    segre = _segre()
    assert check.check_equation("T1*T4 - T2*T3", segre) == (True, True, 2)
    assert check.check_equation("T1^2*T4 - T1*T2*T3", segre) == (True, False, 3)
    assert check.check_equation("T1*T4 - 2*T2*T3", segre)[0] is False
    assert check.check_equation("T1*T4 - T2*T3 + T1^3", segre)[0] is False


def test_parse_terms_reads_what_format_terms_writes():
    rng = random.Random(11)
    for e in ((1, 1), (2, 3), (1, 4)):
        poly = workloads.random_poly(rng, e)
        text = workloads.format_terms(poly)
        assert check.parse_terms(text, workloads.SOURCE_VARS) == poly


def test_generation_depends_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 5) == workloads.generate(name, 5)
    assert workloads.generate("square", 5) != workloads.generate("square", 6)


def test_timeout_fails_the_operation_without_stalling(monkeypatch):
    signal.signal(signal.SIGALRM, run._on_alarm)
    monkeypatch.setattr(run, "OP_TIMEOUT_S", 0.05)
    speed = run.Speed()
    _, seconds, status, result = run.timed(lambda: time.sleep(5), time.perf_counter() + 10, speed)
    assert status == "timeout" and result is None and seconds < 1
    _, _, status, _ = run.timed(lambda: 1 / 0, time.perf_counter() + 10, speed)
    assert status.startswith("ZeroDivisionError")
