"""The point solves as bound-constrained (KKT) problems.

Savings are bounded below by the borrowing constraint (log-savings at
``_LOG_SAVINGS_FLOOR``).  Every path that solves grid points — the scalar
:meth:`OLGModel.solve_point`, the vectorized
:meth:`OLGModel.solve_points_batch` and the cross-scenario
:meth:`StackedOLGGroup.solve_points` — must return, at each point it reports
converged, savings that satisfy the KKT conditions on the *raw* Euler
residuals ``R``: per age either ``|R_a| < tol``, or log-savings on the floor
with ``R_a > 0`` (the agent would borrow if allowed).
"""

import numpy as np
import pytest

from repro.core.batched import BatchedTimeIterationSolver, BatchMember
from repro.core.policy import PolicySet, StatePolicy
from repro.core.time_iteration import TimeIterationSolver
from repro.grids.regular import regular_sparse_grid
from repro.olg.model import _LOG_SAVINGS_FLOOR
from repro.olg.solver import BatchNewtonSolver, NewtonSolver
from repro.olg.stacked import StackedOLGGroup
from repro.scenarios.spec import ScenarioSpec, ScenarioSuite

SWEEP_CALIBRATION = {"num_generations": 4, "num_states": 1, "beta": 0.8}
SWEEP_SOLVER = {"grid_level": 2, "tolerance": 1e-3, "max_iterations": 12}


def _spec(name: str, tau_labor: float, beta: float) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        calibration={**SWEEP_CALIBRATION, "tau_labor": tau_labor, "beta": beta},
        solver=SWEEP_SOLVER,
    )


@pytest.fixture
def converged_flags(monkeypatch):
    """Record the ``converged`` flag of every Newton point solve."""
    flags: list[np.ndarray] = []
    scalar, batch = NewtonSolver.solve, BatchNewtonSolver.solve

    def record_scalar(self, fn, x0, lower=None):
        result = scalar(self, fn, x0, lower=lower)
        flags.append(np.array([result.converged]))
        return result

    def record_batch(self, fn, x0, lower=None):
        result = batch(self, fn, x0, lower=lower)
        flags.append(np.asarray(result.converged))
        return result

    monkeypatch.setattr(NewtonSolver, "solve", record_scalar)
    monkeypatch.setattr(BatchNewtonSolver, "solve", record_batch)
    return flags


@pytest.fixture
def polish_calls(monkeypatch):
    """Count calls of the scipy polish ``NewtonSolver._scipy_solve``."""
    calls = [0]
    real = NewtonSolver._scipy_solve

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(NewtonSolver, "_scipy_solve", counted)
    return calls


class TestKKTSolution:
    """Corner-heavy case: high labor tax, high discount factor."""

    @pytest.fixture(scope="class")
    def setup(self):
        corner = _spec("corner", tau_labor=0.20, beta=0.82)
        other = _spec("interior", tau_labor=0.05, beta=0.76)
        models = [spec.build_model() for spec in (corner, other)]
        # stacked members share one grid object
        grid = regular_sparse_grid(models[0].state_dim, SWEEP_SOLVER["grid_level"])
        Xs = [m.domain.from_unit(grid.points) for m in models]
        policies = []
        for model, X in zip(models, Xs):
            cold = model.initial_policy_values(0, X)
            policy = PolicySet([StatePolicy.from_values(0, grid, cold, model.domain)])
            # one time-iteration step from the cold start: a mid-solve policy
            values = model.solve_points_batch(0, X, policy, cold)
            policies.append(PolicySet([StatePolicy.from_values(0, grid, values, model.domain)]))
        guesses = [np.atleast_2d(p[0](X)) for p, X in zip(policies, Xs)]
        return models, policies, Xs, guesses

    def _assert_kkt(self, model, X, policy, values):
        tol = model.solver.tol
        savings = values[:, : model.num_savers]
        at_floor = np.log(savings) - _LOG_SAVINGS_FLOOR < tol
        for x, s, floor in zip(X, savings, at_floor):
            R = model.euler_residuals(0, x, s, policy)
            assert np.all((np.abs(R) < tol) | (floor & (R > 0))), (R, np.log(s))
        return at_floor

    def test_three_paths_satisfy_kkt_and_agree(self, setup, converged_flags, polish_calls):
        models, policies, Xs, guesses = setup
        corner, policy, X, guess = models[0], policies[0], Xs[0], guesses[0]
        tol = corner.solver.tol

        seq = np.array([corner.solve_point(0, x, policy, g) for x, g in zip(X, guess)])
        assert np.concatenate(converged_flags).all()
        converged_flags.clear()
        batch = corner.solve_points_batch(0, X, policy, guess)
        assert np.concatenate(converged_flags).all()
        converged_flags.clear()
        group = StackedOLGGroup(models, [X.shape[0] for X in Xs])
        stacked = group.solve_points(0, Xs, policies, guesses)
        assert np.concatenate(converged_flags).all()
        assert polish_calls[0] == 0

        for values in (seq, batch, stacked[0]):
            at_floor = self._assert_kkt(corner, X, policy, values)
            # the case is only meaningful if the constraint really binds
            assert at_floor[:, 0].any()
        self._assert_kkt(models[1], Xs[1], policies[1], stacked[1])
        ns = corner.num_savers
        np.testing.assert_allclose(batch[:, :ns], seq[:, :ns], rtol=0, atol=tol)
        np.testing.assert_allclose(stacked[0][:, :ns], seq[:, :ns], rtol=0, atol=tol)


SEED6_TAU = [0.070181, 0.100373, 0.13884, 0.176544]
SEED6_BETA = [0.774812, 0.784491, 0.800115, 0.809949]


@pytest.mark.parametrize(
    "taus, betas",
    [
        pytest.param([0.05, 0.10, 0.15, 0.20], [0.78, 0.82], id="quick-sweep"),
        pytest.param(SEED6_TAU, SEED6_BETA, id="perfbench-seed6"),
    ],
)
def test_sweep_needs_no_polish_and_paths_agree(taus, betas, polish_calls):
    """Regression: stalled corner rows used to go to a scipy polish that never
    succeeded, and the batched and sequential paths then took different
    numbers of time iterations."""
    base = ScenarioSpec(name="sweep", calibration=SWEEP_CALIBRATION, solver=SWEEP_SOLVER)
    specs = list(
        ScenarioSuite.cartesian(
            "kkt-sweep",
            base,
            {"calibration.tau_labor": taus, "calibration.beta": betas},
        )
    )
    sequential = [
        TimeIterationSolver(spec.build_model(), spec.build_config()).solve()
        for spec in specs
    ]
    outcomes = BatchedTimeIterationSolver(
        [
            BatchMember(key=spec.name, model=spec.build_model(), config=spec.build_config())
            for spec in specs
        ]
    ).solve()
    assert polish_calls[0] == 0
    for spec, seq in zip(specs, sequential):
        batched = outcomes[spec.name]
        assert not batched.fallback
        assert seq.converged and batched.result.converged
        assert batched.result.iterations == seq.iterations, spec.name
