"""Seeded inputs, the three workloads and their correctness checks.

Each workload drives the public scenario entry points of ``repro`` from one
process: ``run_suite`` (with and without ``batch_topology``) for the
sweeps, ``run_worker`` plus a ``ResultsStore.query`` watcher for the fleet
drain (the sweeps run no watcher: they are the bypass for store reads).
A *rep* is one pass over a fresh ``file://`` store; the timed phase repeats
reps until the run's time budget is spent.

Times that become metrics are CPU time (user + system) of this process,
not wall time: on a shared virtual host the hypervisor takes the vCPU away
for a share of each rep that changes from minute to minute, and CPU time
leaves that stolen time out.  Everything runs in this process
(serial executors, one BLAS thread), so its CPU time is all the work done.
The untraced reps also correct it for the host's speed (``speed.py``).
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from layers import ROOT_SPAN, SUITE_SPAN, WATCHER_SPAN, WORKER_SPAN
from meter import Meter
from speed import SpeedGauge
from repro.scenarios.lease import run_worker
from repro.scenarios.runner import run_suite
from repro.scenarios.spec import ScenarioSpec, ScenarioSuite
from repro.scenarios.store import ResultsStore

WORKLOADS = ("sweep-seq", "sweep-batch", "fleet-drain")

#: the shared-topology sweep of ``benchmarks/bench_solve.py`` (seed 0)
SWEEP_TAU = (0.05, 0.10, 0.15, 0.20)
SWEEP_BETA = (0.76, 0.78, 0.80, 0.82)
SWEEP_CALIBRATION = {"num_generations": 4, "num_states": 1, "beta": 0.8}
SWEEP_SOLVER = {"grid_level": 2, "tolerance": 1e-3, "max_iterations": 12}

FLEET_SIZE = 128
FLEET_TAU = (0.05, 0.20)
FLEET_CALIBRATION = {"num_generations": 3, "num_states": 1, "beta": 0.8}
FLEET_SOLVER = {"grid_level": 1, "tolerance": 1e-3, "max_iterations": 12}

EULER_SAMPLE = 128
#: how far the two sweep modes' accuracy may differ (log10 units); they
#: solve the same fixed point along different Newton paths
EULER_AGREEMENT = 0.05


class CheckFailed(RuntimeError):
    """A correctness or determinism check failed."""


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of ``n`` equal strata of ``[lo, hi]``."""
    width = (hi - lo) / n
    return [round(lo + (i + u) * width, 6) for i, u in enumerate(rng.random(n))]


# --------------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------------- #
@dataclass
class Inputs:
    """Everything a workload run consumes, generated from the seed."""

    workload: str
    suite: ScenarioSuite
    thresholds: list[float]  # watcher predicates: tau_labor > threshold
    euler_seed: int  # seeds the Euler-error sample states


def make_inputs(workload: str, seed: int) -> Inputs:
    """Seeded inputs: calibrations, watcher predicates, Euler-sample seeds."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    if workload.startswith("sweep"):
        if seed == 0:
            taus, betas = list(SWEEP_TAU), list(SWEEP_BETA)
        else:
            rng = _rng(seed, 0)
            taus = _stratified(rng, SWEEP_TAU[0], SWEEP_TAU[-1], len(SWEEP_TAU))
            betas = _stratified(rng, SWEEP_BETA[0], SWEEP_BETA[-1], len(SWEEP_BETA))
        base = ScenarioSpec(name="sweep", calibration=SWEEP_CALIBRATION, solver=SWEEP_SOLVER)
        suite = ScenarioSuite.cartesian(
            "perfbench-sweep", base, {"calibration.tau_labor": taus, "calibration.beta": betas}
        )
        lo, hi = SWEEP_TAU[0], SWEEP_TAU[-1]
    else:
        rng = _rng(seed, 0)
        taus = _stratified(rng, FLEET_TAU[0], FLEET_TAU[1], FLEET_SIZE)
        order = rng.permutation(FLEET_SIZE)
        base = ScenarioSpec(name="fleet", calibration=FLEET_CALIBRATION, solver=FLEET_SOLVER)
        suite = ScenarioSuite(
            "perfbench-fleet",
            [
                base.with_overrides(name=f"fleet-{i:03d}", calibration={"tau_labor": taus[j]})
                for i, j in enumerate(order)
            ],
        )
        lo, hi = FLEET_TAU
    rng = _rng(seed, 1)
    thresholds = [round(float(t), 4) for t in rng.uniform(lo, hi, 16)]
    return Inputs(workload, suite, thresholds, int(rng.integers(2**31)))


# --------------------------------------------------------------------------- #
# one rep
# --------------------------------------------------------------------------- #
@dataclass
class RepResult:
    wall_s: float  # the timed phase, less the speed gauge's probes
    cpu_s: float  # CPU time of the process over it, less the probes
    corrected_cpu_s: float  # cpu_s corrected for host speed (cpu_s without a gauge)
    store_dir: Path  # the rep's store, left for the post-timing checks
    iterations: dict[str, int]  # scenario name -> committed iterations
    query_ms: list[float]
    query_errors: list[str]
    final_query: list[str]
    counters: dict[str, float]
    span_range: tuple[int, int]


class Watcher:
    """A second store handle issuing seeded queries in the caller's thread."""

    def __init__(self, url: str, thresholds: list[float], meter: Meter) -> None:
        self.store = ResultsStore.open(url)
        self.thresholds = thresholds
        self.meter = meter
        self.latencies_ms: list[float] = []
        self.errors: list[str] = []
        self._next = 0

    def query(self) -> None:
        threshold = self.thresholds[self._next % len(self.thresholds)]
        self._next += 1
        t0 = time.perf_counter()
        try:
            with self.meter.span(WATCHER_SPAN):
                self.store.query(where=[f"tau_labor>{threshold}"], status="completed")
        except Exception as exc:  # a failed query is counted and reported, not fatal
            self.errors.append(repr(exc))
            return
        self.latencies_ms.append((time.perf_counter() - t0) * 1e3)

    def on_line(self, line: str) -> None:
        self.query()


def _final_query_check(store: ResultsStore, threshold: float) -> list[str]:
    """The watcher's predicate against a brute-force scan of every entry."""
    got = sorted(
        r["spec_hash"] for r in store.query(where=[f"tau_labor>{threshold}"], status="completed")
    )
    expected = []
    for key in store.backend.list():
        if key.count("/") == 1 and key.endswith("/entry.json"):
            entry = json.loads(store.backend.get(key))
            if entry.get("status") == "completed" and (
                entry["calibration"]["tau_labor"] > threshold
            ):
                expected.append(entry["spec_hash"])
    if got != sorted(expected):
        raise CheckFailed(
            f"query tau_labor>{threshold} returned {len(got)} entries, "
            f"brute-force scan finds {len(expected)}"
        )
    return got


def _check_completed(store: ResultsStore, suite: ScenarioSuite) -> dict[str, int]:
    """Every scenario committed as ``completed``; returns its iteration count."""
    iterations = {}
    for spec in suite:
        entry = store.entry(spec)
        if entry is None or entry.get("status") != "completed":
            status = None if entry is None else entry.get("status")
            raise CheckFailed(f"scenario {spec.name} ended {status!r}, not completed")
        iterations[spec.name] = int(entry["iterations"])
    return iterations


def load_results(inputs: Inputs, store_dir: Path) -> list:
    """Every scenario's stored result; each must load and match its entry."""
    store = ResultsStore.open(f"file://{store_dir}")
    results = []
    for spec in inputs.suite:
        try:
            result = store.load_result(spec)
        except (OSError, KeyError, ValueError) as exc:
            raise CheckFailed(f"scenario {spec.name}: result does not load ({exc})") from exc
        if result.iterations != store.entry(spec)["iterations"]:
            raise CheckFailed(f"scenario {spec.name}: stored result disagrees with its entry")
        results.append(result)
    return results


def run_rep(
    inputs: Inputs, store_dir: Path, meter: Meter, gauge: SpeedGauge | None = None
) -> RepResult:
    """One timed pass of the workload on a new store at ``store_dir``.

    ``gauge``, when given, must be ``meter``'s mark; it is started and
    stopped around the timed phase.

    ``store_dir`` must not exist yet.  The store is left in place for the
    caller's post-timing checks and is not reused: deleting the last
    rep's ~100 MB fleet store just before a rep doubled the system time
    of that rep's writes on an ext4 host.
    """
    store = ResultsStore.open(f"file://{store_dir}")
    watcher = Watcher(store.url, inputs.thresholds, meter)
    before = dict(meter.counters)
    first_span = len(meter.spans)
    fleet = inputs.workload == "fleet-drain"

    # start every rep with no dirty pages: a fleet rep writes ~100 MB, and
    # writeback throttling carried into the next rep otherwise
    os.sync()
    if gauge is not None:
        gauge.start()
    t0, cpu0 = time.perf_counter(), time.process_time()
    with meter.span(ROOT_SPAN):
        if fleet:
            with meter.span(WORKER_SPAN):
                report = run_worker(
                    inputs.suite, store, worker_id="perfbench-worker", progress=watcher.on_line
                )
            store.compact()
        else:
            with meter.span(SUITE_SPAN):
                report = run_suite(
                    inputs.suite,
                    store,
                    executor="serial",
                    batch_topology=inputs.workload == "sweep-batch",
                )
    cpu, wall = time.process_time() - cpu0, time.perf_counter() - t0
    corrected = cpu
    if gauge is not None:
        cpu, corrected = gauge.stop()
        wall -= gauge.probe_wall_s  # the probes inside the timed phase
    span_range = (first_span, len(meter.spans))
    counters = {k: v - before.get(k, 0) for k, v in meter.counters.items()}

    if fleet:
        if report.parked or store.parked():
            raise CheckFailed(f"fleet drain parked {len(store.parked())} scenario(s)")
        if store.leases():
            raise CheckFailed(f"fleet drain left {len(store.leases())} live lease(s)")
    elif not report.ok:
        raise CheckFailed(f"suite reported failures: {report.summary()}")
    iterations = _check_completed(store, inputs.suite)
    final = _final_query_check(store, inputs.thresholds[0])
    counters["bench.iterations"] = sum(iterations.values())
    return RepResult(
        wall_s=wall,
        cpu_s=cpu,
        corrected_cpu_s=corrected,
        store_dir=store_dir,
        iterations=iterations,
        query_ms=watcher.latencies_ms,
        query_errors=watcher.errors,
        final_query=final,
        counters=counters,
        span_range=span_range,
    )


def euler_worst(inputs: Inputs, results: list) -> float:
    """Worst scenario's mean log10 unit-free Euler error on a seeded sample.

    Each scenario gets its own Latin-hypercube sample of its state box:
    with plain uniform 64-state draws the worst of the fleet's 128 noisy
    means moved by ~10% between seeds on sampling noise alone.
    """
    from scipy.stats import qmc  # imported after the run has read its peak RSS

    rng = np.random.default_rng(inputs.euler_seed)
    worst = -np.inf
    for spec, result in zip(inputs.suite, results):
        model = spec.build_model()
        unit = qmc.LatinHypercube(d=model.state_dim, seed=rng).random(EULER_SAMPLE)
        sample = model.domain.from_unit(unit)
        errors = model.equilibrium_errors(result.policy, sample)
        worst = max(worst, errors["mean_log10"])
    return float(worst)


# --------------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------------- #
#: the program's packages a set-up imports afresh; the third-party
#: packages they load (numpy, scipy) stay imported
SETUP_IMPORTS = (
    "repro.scenarios.runner", "repro.scenarios.lease", "repro.core.batched", "repro.olg.stacked",
)


def _reimport_program() -> None:
    """Import the program's packages afresh, then put the loaded ones back.

    The new module objects are dropped, so every caller keeps the classes
    it already holds, and the probes wrapped on them.
    """
    def program_modules() -> list[str]:
        return [k for k in sys.modules if k == "repro" or k.startswith("repro.")]

    loaded = {name: sys.modules.pop(name) for name in program_modules()}
    try:
        for name in SETUP_IMPORTS:
            importlib.import_module(name)
    finally:
        for name in program_modules():
            del sys.modules[name]
        sys.modules.update(loaded)


def setup_once(workload: str, seed: int, work: Path, gauge: SpeedGauge) -> tuple[Inputs, float]:
    """Imports, input generation, store creation and a warm-up solve.

    Returns the inputs and the CPU seconds the set-up took, corrected for
    host speed by ``gauge``, which must be the mark of the installed meter.
    """
    gauge.start()
    _reimport_program()
    inputs = make_inputs(workload, seed)
    warm_dir = work / "warmup"
    shutil.rmtree(warm_dir, ignore_errors=True)
    store = ResultsStore.open(f"file://{warm_dir}")
    head = ScenarioSuite("perfbench-warmup", list(inputs.suite)[:2])
    if workload == "fleet-drain":
        run_worker(head, store, worker_id="perfbench-warmup")
    else:
        run_suite(head, store, executor="serial", batch_topology=workload == "sweep-batch")
    _, seconds = gauge.stop()
    shutil.rmtree(warm_dir, ignore_errors=True)
    return inputs, seconds


def repeat_until(budget_s: float, min_reps: int, rep: Callable[[], RepResult]) -> list[RepResult]:
    """Run at least ``min_reps`` reps, and more while the next fits in ``budget_s``.

    The next rep is assumed to take as long as the mean rep so far.
    """
    reps: list[RepResult] = []
    t0 = time.perf_counter()
    while True:
        spent = time.perf_counter() - t0
        if len(reps) >= min_reps and spent * (len(reps) + 1) / len(reps) > budget_s:
            return reps
        reps.append(rep())


def check_same_counts(counts: list[dict], what: str) -> None:
    """Counts that depend only on the inputs must repeat exactly across reps.

    A count missing from one rep is 0 there: a counter first touched after
    rep 1's timed phase (by its post-run checks) shows up in later reps only.
    """
    first = counts[0]
    for i, other in enumerate(counts[1:], start=2):
        diff = sorted(k for k in set(first) | set(other) if first.get(k, 0) != other.get(k, 0))
        if diff:
            raise CheckFailed(f"{what} differ between rep 1 and rep {i}: {diff}")
