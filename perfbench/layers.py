"""Which public functions the benchmark wraps, and the metrics they yield.

Every probe wraps one binding of a function of ``repro`` (or numpy) from
the outside and records it as one span name.  Two details decide where a
probe must go:

* ``run_suite`` workers reopen the store by URL, so storage metering wraps
  the backend *class*, never a store instance;
* ``hierarchize`` and ``evaluate_stacked`` are imported by name into
  several modules, so each of those bindings is wrapped, while
  ``repro.core.kernels.evaluate``, ``numpy.linalg.solve`` and the lazily
  imported names are looked up at call time and wrapped at their module.

:data:`OUTCOME_PROBES` count solver outcomes and time-iteration steps and
are installed in the untimed runs too, where each call also gives the
speed gauge of ``speed.py`` its turn (their per-call cost is one extra
Python call and one clock read on ~1k point solves); :data:`TIMED_PROBES`
are installed only for a traced run.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable

import numpy as np

from meter import Hook, Meter

#: spans whose count depends on wall-clock timing, not on the inputs: the
#: event sink flushes on a 2 s timer, lease renewals on a TTL/3 timer
TIMING_DEPENDENT = frozenset({"scenarios.store.event_flush", "scenarios.lease.renew"})

#: spans the benchmark opens itself: one per rep, and one around each call
#: into an entry point it drives
ROOT_SPAN = "bench.rep"
SUITE_SPAN = "scenarios.runner.run_suite"
WORKER_SPAN = "scenarios.lease.run_worker"
WATCHER_SPAN = "bench.watcher"


# --------------------------------------------------------------------------- #
# hooks: counts measured where the work happens
# --------------------------------------------------------------------------- #
def _newton(m: Meter, args: tuple, kwargs: dict, r: Any) -> None:
    m.count("olg.solver.newton.residual_evals", r.residual_evaluations)
    m.count("olg.solver.newton.converged", int(r.converged))
    m.count("points.solved")
    m.count("points.unconverged", int(not r.converged))


def _batch_newton(m: Meter, args: tuple, kwargs: dict, r: Any) -> None:
    rows = int(np.shape(args[2] if len(args) > 2 else kwargs["x0"])[0])
    converged = int(np.sum(r.converged))
    m.count("olg.solver.batch_newton.rows", rows)
    m.count("olg.solver.batch_newton.rows_converged", converged)
    m.count("points.solved", rows)
    m.count("points.unconverged", rows - converged)


def _polish(m: Meter, args: tuple, kwargs: dict, r: Any) -> None:
    m.count("olg.solver.polish.converged", int(r.converged))
    if r.converged and not m.inside("olg.solver.newton"):
        # a stalled batch row the polish rescued (inside the scalar Newton
        # the polish outcome is already the Newton's own result)
        m.count("points.unconverged", -1)


def _kernel_cost(m: Meter, points: int, grid_points: int, dim: int, dofs: int) -> None:
    """Computed (not measured) work of evaluating ``dofs`` interpolants.

    Model: a dense basis pass (``points x grid_points`` tensor products of
    ``dim`` factors) and a multiply-add per basis value and dof; bytes are
    the query points, the grid's level/index data, the surpluses and the
    output, all float64.
    """
    m.count("core.kernels.computed_flops", points * grid_points * (dim + 2 * dofs))
    m.count(
        "core.kernels.computed_bytes",
        8 * (points * dim + grid_points * dim + grid_points * dofs + points * dofs),
    )


def _kernel(m: Meter, args: tuple, kwargs: dict, r: Any) -> None:
    surplus, X = np.asarray(args[1]), np.atleast_2d(args[2])
    dofs = surplus.shape[1] if surplus.ndim == 2 else 1
    m.count("core.kernels.evaluate.points", X.shape[0])
    _kernel_cost(m, X.shape[0], surplus.shape[0], X.shape[1], dofs)


def _evaluate_stacked(m: Meter, args: tuple, kwargs: dict, r: Any) -> None:
    interps, blocks = args[0], args[1]
    if not interps:
        return
    grid = interps[0].grid
    for interp, X in zip(interps, blocks):
        rows = np.atleast_2d(X).shape[0]
        m.count("grids.evaluate_stacked.rows", rows)
        _kernel_cost(m, rows, len(grid), grid.dim, interp.num_dofs)


def _stacked_rows(m: Meter, args: tuple, kwargs: dict, r: Any) -> None:
    m.count("olg.stacked.euler_residuals_rows.rows", len(args[2]))


def _claim(m: Meter, args: tuple, kwargs: dict, r: Any) -> None:
    m.count("scenarios.lease.claims", int(r is not None))


def _put(m: Meter, args: tuple, kwargs: dict, r: Any) -> None:
    size = len(args[2])
    m.count("scenarios.backends.put.bytes", size)
    if m.inside("scenarios.checkpoint"):
        m.count("scenarios.checkpoint.bytes", size)


def _get(m: Meter, args: tuple, kwargs: dict, r: Any) -> None:
    m.count("scenarios.backends.get.bytes", len(r))
    if m.inside("scenarios.store.query"):
        m.count("scenarios.backends.get.in_query")


# --------------------------------------------------------------------------- #
# probe tables: (owner "module[:Class]", attribute, span name, hook)
# --------------------------------------------------------------------------- #
Probe = tuple[str, str, str, Hook | None]

OUTCOME_PROBES: list[Probe] = [
    ("repro.olg.solver:NewtonSolver", "solve", "olg.solver.newton", _newton),
    ("repro.olg.solver:BatchNewtonSolver", "solve", "olg.solver.batch_newton", _batch_newton),
    ("repro.olg.solver:NewtonSolver", "_scipy_solve", "olg.solver.polish", _polish),
    ("repro.core.time_iteration:TimeIterationSolver", "step", "core.time_iteration.step", None),
    ("repro.core.batched:BatchedTimeIterationSolver", "_solve_pass", "core.batched.pass", None),
]

_BACKEND_OPS = ("get", "put", "list", "delete", "exists", "append_commit", "commit_records")

TIMED_PROBES: list[Probe] = [
    ("numpy.linalg", "solve", "olg.solver.linalg", None),
    ("numpy.linalg", "lstsq", "olg.solver.linalg", None),
    ("repro.olg.model:OLGModel", "solve_point", "olg.model.solve_point", None),
    ("repro.olg.model:OLGModel", "euler_residuals", "olg.model.euler_residuals", None),
    ("repro.olg.model:OLGModel", "euler_residuals_batch", "olg.model.euler_residuals_batch", None),
    ("repro.olg.model:OLGModel", "solve_points_batch", "olg.model.solve_points_batch", None),
    ("repro.olg.model:OLGModel", "value_functions", "olg.model.value_functions", None),
    ("repro.olg.model:OLGModel", "value_functions_batch", "olg.model.value_functions", None),
    ("repro.olg.stacked:StackedOLGGroup", "solve_points", "olg.stacked.solve_points", None),
    ("repro.olg.stacked:StackedOLGGroup", "euler_residuals_rows",
     "olg.stacked.euler_residuals_rows", _stacked_rows),
    ("repro.olg.stacked:StackedOLGGroup", "value_functions_rows",
     "olg.stacked.value_functions_rows", None),
    ("repro.core.kernels", "evaluate", "core.kernels.evaluate", _kernel),
    ("repro.olg.stacked", "evaluate_stacked", "grids.evaluate_stacked", _evaluate_stacked),
    ("repro.grids.interpolation", "evaluate_stacked", "grids.evaluate_stacked", _evaluate_stacked),
    ("repro.grids.hierarchize", "hierarchize", "grids.hierarchize", None),
    ("repro.grids.interpolation", "hierarchize", "grids.hierarchize", None),
    ("repro.core.policy", "hierarchize", "grids.hierarchize", None),
    ("repro.core.batched", "hierarchize", "grids.hierarchize", None),
    ("repro.core.policy:StatePolicy", "from_values", "core.policy.fit", None),
    ("repro.core.policy:StatePolicy", "from_surplus", "core.policy.fit", None),
    ("repro.core.policy:PolicySet", "distance", "core.policy.distance", None),
    ("repro.core.batched:BatchedTimeIterationSolver", "solve", "core.batched.solve", None),
    ("repro.scenarios.checkpoint:SolveCheckpoint", "_write", "scenarios.checkpoint", None),
    ("repro.scenarios.store:ResultsStore", "write_result", "scenarios.store.write_result", None),
    ("repro.scenarios.store:ResultsStore", "commit_entry", "scenarios.store.commit_entry", None),
    ("repro.scenarios.store:ResultsStore", "query", "scenarios.store.query", None),
    ("repro.scenarios.store:ResultsStore", "index_records", "scenarios.store.index_records", None),
    ("repro.scenarios.store:ResultsStore", "compact", "scenarios.store.compact", None),
    ("repro.scenarios.store:StoreEventSink", "flush", "scenarios.store.event_flush", None),
    ("repro.scenarios.lease:LeaseManager", "try_claim", "scenarios.lease.claim", _claim),
    ("repro.scenarios.lease:LeaseManager", "renew", "scenarios.lease.renew", None),
    ("repro.scenarios.lease:LeaseManager", "release", "scenarios.lease.release", None),
    ("repro.parallel.tracing:EventRecorder", "emit", "parallel.tracing.emit", None),
] + [
    (
        "repro.scenarios.backends.localfs:LocalFSBackend",
        op,
        f"scenarios.backends.{op}",
        {"put": _put, "get": _get}.get(op),
    )
    for op in _BACKEND_OPS
]


def _resolve(owner: str) -> Any:
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def install(meter: Meter, probes: list[Probe]) -> None:
    """Wrap every probe's binding; :meth:`Meter.restore` undoes it."""
    for owner, attr, name, hook in probes:
        meter.wrap(_resolve(owner), attr, name, hook)


# --------------------------------------------------------------------------- #
# end-to-end metrics of the untraced runs: name -> unit
# --------------------------------------------------------------------------- #
END_TO_END = {
    "suite_cpu_s": "s",
    "scenario_iters_per_cpu_s": "1/s",
    "setup_s": "s",
    "completed_frac": "ratio",
    "converged_point_frac": "ratio",
    "euler_neglog10_mean": "log10",
    "peak_rss_mb": "MB",
}

# --------------------------------------------------------------------------- #
# per-layer metrics: name -> (unit, value from counters c and self times t)
# --------------------------------------------------------------------------- #
Source = Callable[[dict, dict], float]


def _calls(span: str) -> Source:
    return lambda c, t: c.get(f"{span}.calls", 0)


def _secs(span: str) -> Source:
    return lambda c, t: t.get(span, 0.0)


def _count(key: str) -> Source:
    return lambda c, t: c.get(key, 0)


def _ratio(num: Source, den: Source) -> Source:
    return lambda c, t: num(c, t) / den(c, t) if den(c, t) else 0.0


def _layer(span: str, *fields: str) -> list[tuple[str, str, Source]]:
    out = []
    for f in fields:
        if f == "calls":
            out.append((f"{span}.calls", "count", _calls(span)))
        elif f == "s":
            out.append((f"{span}.s", "s", _secs(span)))
        else:
            out.append((f"{span}.{f}", "count", _count(f"{span}.{f}")))
    return out


PER_LAYER: list[tuple[str, str, Source]] = [
    # olg.solver
    *_layer("olg.solver.newton", "calls", "s", "residual_evals"),
    ("olg.solver.newton.converged_ratio", "ratio",
     _ratio(_count("olg.solver.newton.converged"), _calls("olg.solver.newton"))),
    *_layer("olg.solver.batch_newton", "calls", "rows", "s"),
    ("olg.solver.batch_newton.rows_converged_ratio", "ratio",
     _ratio(_count("olg.solver.batch_newton.rows_converged"),
            _count("olg.solver.batch_newton.rows"))),
    *_layer("olg.solver.polish", "calls", "s"),
    ("olg.solver.polish.success_ratio", "ratio",
     _ratio(_count("olg.solver.polish.converged"), _calls("olg.solver.polish"))),
    *_layer("olg.solver.linalg", "calls", "s"),
    # olg.model
    *_layer("olg.model.solve_point", "calls", "s"),
    *_layer("olg.model.euler_residuals", "calls", "s"),
    *_layer("olg.model.euler_residuals_batch", "calls", "s"),
    *_layer("olg.model.solve_points_batch", "calls", "s"),
    *_layer("olg.model.value_functions", "calls", "s"),
    # olg.stacked
    *_layer("olg.stacked.solve_points", "calls", "s"),
    *_layer("olg.stacked.euler_residuals_rows", "calls", "rows", "s"),
    *_layer("olg.stacked.value_functions_rows", "calls", "s"),
    # core.kernels and grids.interpolation
    *_layer("core.kernels.evaluate", "calls", "points", "s"),
    ("core.kernels.points_per_call", "count",
     _ratio(_count("core.kernels.evaluate.points"), _calls("core.kernels.evaluate"))),
    ("core.kernels.computed_flops", "flop", _count("core.kernels.computed_flops")),
    ("core.kernels.computed_bytes", "B", _count("core.kernels.computed_bytes")),
    *_layer("grids.evaluate_stacked", "calls", "rows", "s"),
    # grids.hierarchize and core.policy
    *_layer("grids.hierarchize", "calls", "s"),
    *_layer("core.policy.fit", "calls", "s"),
    *_layer("core.policy.distance", "calls", "s"),
    # core.time_iteration and core.batched
    ("core.time_iteration.iterations", "count", _count("bench.iterations")),
    *_layer("core.time_iteration.step", "calls", "s"),
    ("core.batched.passes", "count", _calls("core.batched.pass")),
    ("core.batched.pass.s", "s", _secs("core.batched.pass")),
    *_layer("core.batched.solve", "calls", "s"),
    # scenarios.checkpoint and scenarios.store
    ("scenarios.checkpoint.writes", "count", _calls("scenarios.checkpoint")),
    ("scenarios.checkpoint.s", "s", _secs("scenarios.checkpoint")),
    ("scenarios.checkpoint.bytes", "B", _count("scenarios.checkpoint.bytes")),
    *_layer("scenarios.store.write_result", "calls", "s"),
    *_layer("scenarios.store.commit_entry", "calls", "s"),
    *_layer("scenarios.store.query", "calls", "s"),
    *_layer("scenarios.store.index_records", "calls", "s"),
    *_layer("scenarios.store.compact", "calls", "s"),
    # scenarios.backends
    *[m for op in _BACKEND_OPS for m in _layer(f"scenarios.backends.{op}", "calls", "s")],
    ("scenarios.backends.put.bytes", "B", _count("scenarios.backends.put.bytes")),
    ("scenarios.backends.get.bytes", "B", _count("scenarios.backends.get.bytes")),
    ("scenarios.backends.gets_per_query", "count",
     _ratio(_count("scenarios.backends.get.in_query"), _calls("scenarios.store.query"))),
    # scenarios.lease and parallel.tracing
    ("scenarios.lease.claims", "count", _count("scenarios.lease.claims")),
    ("scenarios.lease.renewals", "count", _calls("scenarios.lease.renew")),
    ("scenarios.lease.claim.s", "s", _secs("scenarios.lease.claim")),
    ("scenarios.lease.release.s", "s", _secs("scenarios.lease.release")),
    ("parallel.tracing.emit.calls", "count", _calls("parallel.tracing.emit")),
    *_layer("scenarios.store.event_flush", "calls", "s"),
    # the entry points the benchmark drives (self time = glue between layers)
    ("scenarios.runner.run_suite.s", "s", _secs(SUITE_SPAN)),
    ("scenarios.lease.run_worker.s", "s", _secs(WORKER_SPAN)),
    ("bench.watcher.s", "s", _secs(WATCHER_SPAN)),
    # the tracing itself: traced rep wall, its untraced twin, the share of
    # the traced wall no layer probe covers, and the spans recorded per rep
    ("trace.wall_s", "s", _count("trace.wall_s")),
    ("trace.untraced_wall_s", "s", _count("trace.untraced_wall_s")),
    ("trace.overhead_frac", "ratio", _count("trace.overhead_frac")),
    ("trace.uncovered_frac", "ratio", _count("trace.uncovered_frac")),
    ("trace.spans", "count", _count("trace.spans")),
]

#: per-layer metrics whose value depends on timing, not only on the inputs
TIMING_DEPENDENT_METRICS = frozenset(
    {"scenarios.lease.renewals", "scenarios.store.event_flush.calls"}
)


def per_layer_metrics(counters: dict, self_time: dict) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for every per-layer metric."""
    return {name: (float(src(counters, self_time)), unit) for name, unit, src in PER_LAYER}
