"""Benchmark of batched multi-scenario time iteration vs sequential solves.

Runs a 16-scenario sweep sharing one grid topology (same generations, shock
count, grid level — only calibration scalars differ) two ways:

``sequential``
    One :class:`~repro.core.time_iteration.TimeIterationSolver` per
    scenario, back to back — today's per-scenario path and the behavior
    the batched driver falls back to.
``batched``
    One :class:`~repro.core.batched.BatchedTimeIterationSolver` over the
    whole sweep: a single shared regular grid, every iteration solving a
    ``(n_scenarios, n_points)`` stacked Newton batch with per-scenario
    convergence masking.

The two are *not* bit-identical (the batched Newton takes its own path to
the same fixed point) — the benchmark raises unless the final policies
agree to solver tolerance and every scenario converges in the same number
of iterations, then reports the wall-time speedup.  The CI quick-bench
guard requires the batched path to be at least 2x faster.

Per mode the artifact also records the point solves, the points left
unconverged by the solver's own rule, and the scipy polish calls (the
fallback for points Newton cannot converge).

Writes a ``BENCH_solve.json`` artifact (repo root) for the perf trajectory.

Usage::

    PYTHONPATH=src python benchmarks/bench_solve.py [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.core.batched import BatchedTimeIterationSolver, BatchMember
from repro.core.time_iteration import TimeIterationSolver
from repro.olg.solver import BatchNewtonSolver, NewtonSolver
from repro.scenarios.spec import ScenarioSpec, ScenarioSuite


def sweep_suite(quick: bool = False) -> ScenarioSuite:
    """The shared-topology sweep: 4 tax rates x 4 betas (x2 in quick mode)."""
    base = ScenarioSpec(
        name="bench",
        calibration={"num_generations": 4, "num_states": 1, "beta": 0.8},
        solver={"grid_level": 2, "tolerance": 1e-3, "max_iterations": 12},
    )
    return ScenarioSuite.cartesian(
        "bench-solve",
        base,
        {
            "calibration.tau_labor": [0.05, 0.10, 0.15, 0.20],
            "calibration.beta": [0.78, 0.82] if quick else [0.76, 0.78, 0.80, 0.82],
        },
    )


@contextmanager
def _solve_counts():
    """Count point solves, unconverged points and scipy polish calls.

    A point is unconverged when its Newton solve says so, unless a polish
    outside a scalar Newton (a stalled batch row) then converges it.
    """
    counts = {"point_solves": 0, "unconverged_points": 0, "polish_calls": 0}
    newton, batch, polish = NewtonSolver.solve, BatchNewtonSolver.solve, NewtonSolver._scipy_solve
    in_newton = [0]

    def newton_solve(self, *args, **kwargs):
        in_newton[0] += 1
        try:
            result = newton(self, *args, **kwargs)
        finally:
            in_newton[0] -= 1
        counts["point_solves"] += 1
        counts["unconverged_points"] += int(not result.converged)
        return result

    def batch_solve(self, *args, **kwargs):
        result = batch(self, *args, **kwargs)
        counts["point_solves"] += int(result.converged.size)
        counts["unconverged_points"] += int(np.sum(~result.converged))
        return result

    def polish_solve(self, *args, **kwargs):
        result = polish(self, *args, **kwargs)
        counts["polish_calls"] += 1
        if result.converged and not in_newton[0]:
            counts["unconverged_points"] -= 1
        return result

    NewtonSolver.solve, BatchNewtonSolver.solve = newton_solve, batch_solve
    NewtonSolver._scipy_solve = polish_solve
    try:
        yield counts
    finally:
        NewtonSolver.solve, BatchNewtonSolver.solve = newton, batch
        NewtonSolver._scipy_solve = polish


def _policy_diff(a, b) -> float:
    """Max abs difference of two results' policies at the grid points."""
    diff = 0.0
    for z in range(len(a.policy.policies)):
        pa = a.policy[z]
        X = pa.interpolant.domain.from_unit(pa.grid.points)
        diff = max(
            diff,
            float(
                np.max(np.abs(np.atleast_2d(pa(X)) - np.atleast_2d(b.policy[z](X))))
            ),
        )
    return diff


def bench(quick: bool = False) -> dict:
    suite = sweep_suite(quick)
    specs = list(suite)

    # warm numpy/BLAS and the solver caches outside the timed sections
    warm = specs[0]
    TimeIterationSolver(warm.build_model(), warm.build_config()).solve()

    with _solve_counts() as sequential_counts:
        t0 = time.perf_counter()
        sequential = [
            TimeIterationSolver(spec.build_model(), spec.build_config()).solve()
            for spec in specs
        ]
        sequential_s = time.perf_counter() - t0

    members = [
        BatchMember(key=spec.name, model=spec.build_model(), config=spec.build_config())
        for spec in specs
    ]
    with _solve_counts() as batched_counts:
        t0 = time.perf_counter()
        outcomes = BatchedTimeIterationSolver(members).solve()
        batched_s = time.perf_counter() - t0

    tolerance = float(specs[0].solver["tolerance"])
    max_diff = 0.0
    scenarios = []
    for spec, seq in zip(specs, sequential):
        out = outcomes[spec.name]
        if out.result is None or out.fallback:
            raise RuntimeError(
                f"{spec.name}: batched solve fell back ({out.fallback_reason})"
            )
        if not (seq.converged and out.result.converged):
            raise RuntimeError(
                f"{spec.name}: did not converge "
                f"(sequential={seq.converged}, batched={out.result.converged})"
            )
        diff = _policy_diff(seq, out.result)
        max_diff = max(max_diff, diff)
        scenarios.append(
            {
                "name": spec.name,
                "iterations_sequential": seq.iterations,
                "iterations_batched": out.result.iterations,
                "policy_diff": diff,
            }
        )
    if max_diff >= tolerance:
        raise RuntimeError(
            f"batched policies diverge from sequential: {max_diff:.3e} >= {tolerance:g}"
        )
    mismatched = [
        f"{s['name']} ({s['iterations_sequential']} vs {s['iterations_batched']})"
        for s in scenarios
        if s["iterations_sequential"] != s["iterations_batched"]
    ]
    if mismatched:
        raise RuntimeError(
            "batched iteration counts differ from sequential: " + ", ".join(mismatched)
        )

    return {
        "benchmark": "solve",
        "description": "shared-topology scenario sweep: sequential per-scenario "
        "time iteration vs the batched multi-scenario driver",
        "n_scenarios": len(specs),
        "tolerance": tolerance,
        "sequential_seconds": sequential_s,
        "batched_seconds": batched_s,
        "speedup": sequential_s / batched_s,
        "max_policy_diff": max_diff,
        "solve_counts": {"sequential": sequential_counts, "batched": batched_counts},
        "scenarios": scenarios,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="half-size sweep (CI quick-bench leg)"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_solve.json",
        help="path of the JSON artifact",
    )
    args = parser.parse_args(argv)

    artifact = bench(quick=args.quick)
    print(
        f"{artifact['n_scenarios']} scenarios: "
        f"sequential={artifact['sequential_seconds'] * 1e3:8.1f}ms  "
        f"batched={artifact['batched_seconds'] * 1e3:8.1f}ms  "
        f"speedup={artifact['speedup']:.2f}x  "
        f"max_policy_diff={artifact['max_policy_diff']:.3e}"
    )
    for mode, counts in artifact["solve_counts"].items():
        print(
            f"  {mode:<10} point_solves={counts['point_solves']:5d}  "
            f"unconverged={counts['unconverged_points']:4d}  "
            f"polish_calls={counts['polish_calls']:4d}"
        )
    args.out.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
