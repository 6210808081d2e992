"""Fast tests of the benchmark harness; they never run a full workload.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path

import pytest

import layers
import workloads
from meter import Meter, Span, self_time_by_name, self_times
from speed import SpeedGauge, slowdown

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# --------------------------------------------------------------------------- #
# span self-time arithmetic
# --------------------------------------------------------------------------- #
def test_self_time_nested_spans():
    clock = FakeClock()
    m = Meter("t", clock=clock)
    with m.span("outer"):
        clock.now += 1.0
        with m.span("middle"):
            clock.now += 2.0
            with m.span("inner"):
                clock.now += 4.0
            clock.now += 0.5
        clock.now += 0.25
    own = self_time_by_name(m.spans)
    assert own == {"outer": 1.25, "middle": 2.5, "inner": 4.0}
    assert sum(own.values()) == pytest.approx(7.75)  # the root's duration


def test_self_time_sibling_spans():
    clock = FakeClock()
    m = Meter("t", clock=clock)
    with m.span("root"):
        for step in (1.0, 2.0, 3.0):
            with m.span("child"):
                clock.now += step
            clock.now += 0.5
    own = self_time_by_name(m.spans)
    assert own == {"root": 1.5, "child": 6.0}
    assert m.counters["child.calls"] == 3


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(1, None, "root", 0.0, 10.0, 0, "r"),
        Span(2, 1, "a", 1.0, 5.0, 0, "r"),
        Span(3, 1, "b", 4.0, 6.0, 0, "r"),  # overlaps a by 1s
        Span(4, 1, "c", 9.0, 12.0, 0, "r"),  # clipped at the parent's end
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 1.0)


def test_spans_record_parent_and_run_id():
    m = Meter("run-7")
    with m.span("outer"):
        with m.span("inner"):
            pass
    inner, outer = m.spans
    assert inner.parent == outer.id and outer.parent is None
    assert {s.run for s in m.spans} == {"run-7"}


# --------------------------------------------------------------------------- #
# wrapping
# --------------------------------------------------------------------------- #
class _Target:
    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return cls, x


def test_wrap_records_calls_runs_hook_and_restores():
    seen = []
    m = Meter("t")
    m.wrap(_Target, "method", "target.method", lambda m_, a, k, r: seen.append((a[1], r)))
    m.wrap(_Target, "build", "target.build")
    assert _Target().method(1) == 2
    assert _Target.build(5) == (_Target, 5)
    assert seen == [(1, 2)]
    assert [s.name for s in m.spans] == ["target.method", "target.build"]
    m.restore()
    assert "method" in vars(_Target) and not hasattr(vars(_Target)["method"], "__wrapped__")
    assert isinstance(vars(_Target)["build"], classmethod)


def test_untimed_meter_counts_without_spans():
    m = Meter("t", timed=False)
    m.wrap(_Target, "method", "target.method")
    try:
        _Target().method(1)
    finally:
        m.restore()
    assert m.spans == [] and m.counters["target.method.calls"] == 1


def test_mark_runs_at_every_call_on_the_meter_thread_only():
    marks = []
    m = Meter("t", timed=False, mark=lambda: marks.append(1))
    m.wrap(_Target, "method", "target.method")
    try:
        _Target().method(1)
        _Target().method(2)
        worker = threading.Thread(target=_Target().method, args=(1,))
        worker.start()
        worker.join()
    finally:
        m.restore()
    assert len(marks) == 2


def test_speed_gauge_divides_each_block_by_its_slowdown():
    clock = FakeClock()
    speeds = iter([1.0, 3.0, 2.0, 2.0])  # start, then the end of each block

    def gauge():
        clock.now += 0.01  # the yardsticks' own CPU time stays out
        return next(speeds)

    g = SpeedGauge(block_s=1.0, clock=clock, gauge=gauge)
    g()  # not started: no block, no probe
    g.start()
    clock.now += 0.5
    g()  # block still open
    clock.now += 0.5
    g()  # closes block 1: 1.0 s at mean slowdown 2
    clock.now += 1.5
    g()  # closes block 2: 1.5 s at mean slowdown 2.5
    clock.now += 0.2
    raw, corrected = g.stop()  # block 3: 0.2 s at mean slowdown 2
    assert g.blocks == 3
    assert raw == pytest.approx(2.7)
    assert corrected == pytest.approx(1.0 / 2 + 1.5 / 2.5 + 0.2 / 2)


def test_slowdown_is_near_one_on_an_idle_host():
    # loose on purpose: a busy shared host is up to ~2x slower
    assert 0.2 < slowdown() < 10.0


def test_every_probe_target_exists():
    for owner, attr, name, _hook in layers.OUTCOME_PROBES + layers.TIMED_PROBES:
        assert hasattr(layers._resolve(owner), attr), (owner, attr)
        assert NAME_RE.match(name), name


# --------------------------------------------------------------------------- #
# metric names and units
# --------------------------------------------------------------------------- #
def test_metric_names_and_units_are_well_formed_and_unique():
    names = list(layers.END_TO_END) + [name for name, _unit, _src in layers.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    units = list(layers.END_TO_END.values()) + [unit for _n, unit, _s in layers.PER_LAYER]
    for unit in units:
        assert UNIT_RE.match(unit), unit


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == layers.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit) for name, unit, _src in layers.PER_LAYER
    ]
    for metric in BENCHMARK["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_per_layer_metrics_from_counts_and_times():
    counters = {
        "olg.solver.polish.calls": 4,
        "olg.solver.polish.converged": 1,
        "core.kernels.evaluate.calls": 10,
        "core.kernels.evaluate.points": 25,
    }
    metrics = layers.per_layer_metrics(counters, {"olg.solver.polish": 0.5})
    assert metrics["olg.solver.polish.success_ratio"] == (0.25, "ratio")
    assert metrics["olg.solver.polish.s"] == (0.5, "s")
    assert metrics["core.kernels.points_per_call"] == (2.5, "count")
    assert metrics["olg.solver.batch_newton.rows_converged_ratio"] == (0.0, "ratio")


# --------------------------------------------------------------------------- #
# seeded inputs
# --------------------------------------------------------------------------- #
def _fingerprint(inputs):
    return (
        [spec.content_hash() for spec in inputs.suite],
        inputs.thresholds,
        inputs.euler_seed,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_to_inputs_is_deterministic(workload):
    assert _fingerprint(workloads.make_inputs(workload, 3)) == _fingerprint(
        workloads.make_inputs(workload, 3)
    )
    assert _fingerprint(workloads.make_inputs(workload, 3)) != _fingerprint(
        workloads.make_inputs(workload, 4)
    )


def test_seed_zero_sweep_is_the_bench_solve_grid():
    inputs = workloads.make_inputs("sweep-seq", 0)
    pairs = {(s.calibration["tau_labor"], s.calibration["beta"]) for s in inputs.suite}
    assert pairs == {(t, b) for t in workloads.SWEEP_TAU for b in workloads.SWEEP_BETA}


def test_seeded_inputs_stay_in_their_ranges():
    for seed in range(1, 6):
        sweep = workloads.make_inputs("sweep-batch", seed)
        assert len(sweep.suite) == 16
        for spec in sweep.suite:
            assert 0.05 <= spec.calibration["tau_labor"] <= 0.20
            assert 0.76 <= spec.calibration["beta"] <= 0.82
        fleet = workloads.make_inputs("fleet-drain", seed)
        assert len(fleet.suite) == workloads.FLEET_SIZE
        assert len({spec.content_hash() for spec in fleet.suite}) == workloads.FLEET_SIZE


def test_count_mismatch_is_a_failure():
    workloads.check_same_counts([{"a": 1}, {"a": 1}], "counts")
    with pytest.raises(workloads.CheckFailed, match="'b'"):
        workloads.check_same_counts([{"a": 1, "b": 2}, {"a": 1, "b": 3}], "counts")
    with pytest.raises(workloads.CheckFailed, match="'b'"):
        workloads.check_same_counts([{"a": 1}, {"a": 1, "b": 3}], "counts")
    workloads.check_same_counts([{"a": 1}, {"a": 1, "b": 0}], "counts")  # absent == 0
