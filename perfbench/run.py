"""Repo benchmark: stochastic-OLG scenario sweeps and a lease-fleet drain.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-seq --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py                      # every workload, untraced

``--trace 0`` measures the end-to-end metrics with no timing probes
installed; ``--trace 1`` re-runs the workload with every layer probe of
``perfbench/layers.py`` installed and reports the per-layer metrics (and
the tracing overhead against one untraced rep).  Every metric is printed as
``name value unit``; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1 when
a correctness or determinism check fails, 2 when the program under test
cannot be found.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread: set before numpy loads (a 2-core host otherwise
# spreads the batched solve's timings far wider)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402  (loads numpy, after the thread pin above)
import speed  # noqa: E402
from meter import Meter, self_time_by_name  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
MIN_REPS = 3


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _reset_peak_rss() -> None:
    """Restart the peak-RSS mark, so each workload of a run reports its own."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass  # no /proc: _peak_rss_mb falls back to the process-wide peak


def _peak_rss_mb() -> float:
    """Peak resident set size since the last ``_reset_peak_rss``, in MB."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fingerprint(meter, rep, main_thread: int) -> dict:
    """Input-determined counts of one rep: span calls and solver counters.

    Spans on other threads (lease heartbeats) and spans under a
    timing-driven parent (event-sink timer flushes) are left out, as are
    byte counts, which include serialized wall times.
    """
    spans = meter.spans[rep.span_range[0] : rep.span_range[1]]
    by_id = {s.id: s for s in spans}
    tainted: dict[int, bool] = {}

    def is_tainted(s) -> bool:
        if s.id not in tainted:
            parent = by_id.get(s.parent) if s.parent is not None else None
            tainted[s.id] = s.name in layers.TIMING_DEPENDENT or (
                parent is not None and is_tainted(parent)
            )
        return tainted[s.id]

    calls = Counter(s.name for s in spans if s.thread == main_thread and not is_tainted(s))
    solver = {
        k: v for k, v in rep.counters.items()
        if not k.endswith(".calls") and not k.endswith("bytes")
    }
    return {**{f"{k}.calls": v for k, v in calls.items()}, **solver}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """One benchmark run of ``workload``; raises ``CheckFailed`` on a bad check.

    Returns ``{"metrics": {name: (value, unit)}, "attempted", "failed",
    "notes": [str]}``.
    """
    import workloads as wl  # imports repro: main() has checked that src/ exists

    run_id = f"{workload}-seed{seed}-pid{os.getpid()}"
    rep_ids = itertools.count()

    def rep(m: Meter, gauge: speed.SpeedGauge | None = None):
        return wl.run_rep(inputs, work / f"rep-{next(rep_ids)}", m, gauge)

    _reset_peak_rss()

    # set-up and the untraced reps: only the solver-outcome counters, and
    # the speed gauge run at every counted call
    gauge = speed.SpeedGauge()
    outcome = Meter(run_id, timed=False, mark=gauge)
    layers.install(outcome, layers.OUTCOME_PROBES)
    try:
        setups = [wl.setup_once(workload, seed, work, gauge) for _ in range(SETUP_SAMPLES)]
        inputs = setups[0][0]
        setup_s = statistics.median(s for _, s in setups)
        untraced = wl.repeat_until(
            0.0 if trace else seconds,
            1 if trace else MIN_REPS,
            lambda: rep(outcome, gauge),
        )
    finally:
        outcome.restore()

    traced: list = []
    meter = Meter(run_id, timed=True)
    if trace:
        layers.install(meter, layers.OUTCOME_PROBES + layers.TIMED_PROBES)
        try:
            traced = wl.repeat_until(
                seconds, MIN_REPS, lambda: rep(meter)
            )
        finally:
            meter.restore()

    # determinism: the outcome counts and per-scenario iteration counts of
    # every rep, traced or not, must equal the first rep's
    keys = list(untraced[0].counters)
    wl.check_same_counts(
        [
            {**{k: r.counters.get(k, 0) for k in keys}, **r.iterations,
             "final_query": tuple(r.final_query)}
            for r in untraced + traced
        ],
        "input-determined counts",
    )
    if traced:
        main_thread = threading.get_ident()
        wl.check_same_counts(
            [_fingerprint(meter, r, main_thread) for r in traced], "traced call counts"
        )

    peak_rss_mb = _peak_rss_mb()  # the workload's, before the accuracy check
    reps = untraced + traced
    # accuracy of the last rep's solutions
    euler = wl.euler_worst(inputs, wl.load_results(inputs, reps[-1].store_dir))
    notes = []

    errors = [e for r in reps for e in r.query_errors]
    if errors:
        notes.append(f"{len(errors)} watcher queries failed, first: {errors[0]}")
    failed = len(errors)
    attempted = sum(len(inputs.suite) + len(r.query_ms) + len(r.query_errors) for r in reps)
    if trace:
        metrics = _per_layer(meter, traced, untraced[0])
        notes.append(f"traced reps: {len(traced)}, spans written to {_trace_path(workload, seed)}")
        meter.write(_trace_path(workload, seed))
    else:
        c = untraced[0].counters
        queries = [ms for r in untraced for ms in r.query_ms]
        suite_cpu_s = statistics.median(r.corrected_cpu_s for r in untraced)
        values = {
            "suite_cpu_s": suite_cpu_s,
            "scenario_iters_per_cpu_s": c["bench.iterations"] / suite_cpu_s,
            "setup_s": setup_s,
            "completed_frac": (attempted - failed) / attempted,
            "converged_point_frac": 1.0 - c["points.unconverged"] / c["points.solved"],
            "euler_neglog10_mean": -euler,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: (values[name], unit) for name, unit in layers.END_TO_END.items()}
        notes.append(
            f"reps: {len(untraced)}, iterations/rep: {int(c['bench.iterations'])}, "
            f"point solves/rep: {int(c['points.solved'])}, "
            f"unconverged/rep: {int(c['points.unconverged'])}, "
            f"rep CPU s: {' '.join(f'{r.cpu_s:.3f}' for r in untraced)}, "
            f"corrected: {' '.join(f'{r.corrected_cpu_s:.3f}' for r in untraced)}, "
            f"rep wall s: {' '.join(f'{r.wall_s:.3f}' for r in untraced)}, "
            f"set-up s: {' '.join(f'{s:.3f}' for _, s in setups)}"
        )
        if queries:
            notes.append(
                f"watcher query latency over {len(queries)} queries: "
                f"p50 {statistics.median(queries):.3f} ms, "
                f"p95 {statistics.quantiles(queries, n=20)[18]:.3f} ms"
            )
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "iterations": untraced[0].iterations,
        "euler": euler,
    }


def check_sweep_agreement(seq: dict, batch: dict) -> None:
    """Both sweep modes of one seed: same iteration counts and accuracy."""
    from workloads import EULER_AGREEMENT, CheckFailed

    differ = sorted(
        f"{name} ({seq['iterations'][name]} vs {batch['iterations'].get(name)})"
        for name in seq["iterations"]
        if seq["iterations"][name] != batch["iterations"].get(name)
    )
    if differ:
        raise CheckFailed(
            "sweep-seq and sweep-batch disagree on iteration counts: " + ", ".join(differ)
        )
    if abs(seq["euler"] - batch["euler"]) > EULER_AGREEMENT:
        raise CheckFailed(
            "sweep-seq and sweep-batch disagree on the Euler error: "
            f"{seq['euler']:.4f} vs {batch['euler']:.4f}"
        )


def _trace_path(workload: str, seed: int) -> Path:
    return ROOT / ".perfbench_work" / f"trace-{workload}-seed{seed}.jsonl"


def _per_layer(meter, traced: list, baseline) -> dict:
    """Per-layer metrics: counts of the first traced rep, mean self times."""
    times: dict[str, float] = {}
    uncovered = []
    for rep in traced:
        spans = meter.spans[rep.span_range[0] : rep.span_range[1]]
        own = self_time_by_name(spans)
        for name, secs in own.items():
            times[name] = times.get(name, 0.0) + secs / len(traced)
        glue = sum(
            own.get(n, 0.0) for n in (layers.ROOT_SPAN, layers.SUITE_SPAN, layers.WORKER_SPAN)
        )
        uncovered.append(glue / rep.wall_s)
    wall = statistics.mean(r.wall_s for r in traced)
    counts = dict(traced[0].counters)
    counts.update(
        {
            "trace.wall_s": wall,
            "trace.untraced_wall_s": baseline.wall_s,
            "trace.overhead_frac": wall / baseline.wall_s - 1.0,
            "trace.uncovered_frac": statistics.mean(uncovered),
            "trace.spans": (traced[0].span_range[1] - traced[0].span_range[0]),
        }
    )
    return layers.per_layer_metrics(counts, times)


def _print_result(workload: str, result: dict) -> None:
    for note in result["notes"]:
        print(f"# {workload}: {note}")
    for name, (value, unit) in result["metrics"].items():
        label = " (timing-dependent)" if name in layers.TIMING_DEPENDENT_METRICS else ""
        print(f"{workload:<12} {name:<48} {value:>16.6g} {unit}{label}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", default="all", help="sweep-seq, sweep-batch, fleet-drain or all"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="timed budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program under test ({SRC / 'repro'}) is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in wl.WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}")
    print(f"# environment: {json.dumps(_environment(args.seed), sort_keys=True)}")
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    results: dict[str, dict] = {}
    try:
        for name in names:
            try:
                result = run_workload(name, args.seed, args.seconds, bool(args.trace), work)
            except wl.CheckFailed as exc:
                print(f"# {name}: CHECK FAILED: {exc}")
                total["correct"] = False
                total["failed"] += 1
                total["attempted"] += 1
                continue
            _print_result(name, result)
            results[name] = result
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            prefix = "" if len(names) == 1 else f"{name}/"
            for metric, (value, unit) in result["metrics"].items():
                total["metrics"][prefix + metric] = {"value": value, "unit": unit}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if "sweep-seq" in results and "sweep-batch" in results:
        try:
            check_sweep_agreement(results["sweep-seq"], results["sweep-batch"])
        except wl.CheckFailed as exc:
            print(f"# CHECK FAILED: {exc}")
            total["correct"] = False
            total["failed"] += 1
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
