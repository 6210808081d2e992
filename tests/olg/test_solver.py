"""Tests for the Newton point solvers (scalar, batched, bound-constrained)."""

import numpy as np
import pytest

from repro.olg.solver import BatchNewtonSolver, NewtonSolver, PointSolveResult


class TestNewtonSolver:
    def test_linear_system_one_step(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])
        solver = NewtonSolver(tol=1e-12)
        result = solver.solve(lambda x: A @ x - b, np.zeros(2))
        assert result.converged
        np.testing.assert_allclose(result.x, np.linalg.solve(A, b), atol=1e-9)

    def test_scalar_nonlinear_root(self):
        solver = NewtonSolver()
        result = solver.solve(lambda x: np.array([x[0] ** 3 - 8.0]), np.array([1.0]))
        assert result.converged
        assert result.x[0] == pytest.approx(2.0, abs=1e-6)

    def test_coupled_nonlinear_system(self):
        def fn(x):
            return np.array([x[0] ** 2 + x[1] ** 2 - 4.0, x[0] - x[1]])

        result = NewtonSolver().solve(fn, np.array([1.0, 0.5]))
        assert result.converged
        np.testing.assert_allclose(np.abs(result.x), np.sqrt(2.0), atol=1e-6)

    def test_residual_norm_reported(self):
        result = NewtonSolver().solve(lambda x: x - 3.0, np.array([0.0]))
        assert result.residual_norm < 1e-8
        assert result.residual_evaluations > 0
        assert isinstance(result, PointSolveResult)

    def test_exponential_euler_like_equation(self):
        """An equation with the same shape as the OLG Euler residuals."""
        beta, R = 0.9, 1.2
        resources = 2.0

        def fn(log_s):
            s = np.exp(log_s)
            c_today = resources - s
            c_next = R * s
            return np.array([c_today[0] ** -2 - beta * R * c_next[0] ** -2])

        result = NewtonSolver().solve(fn, np.array([np.log(0.5)]))
        assert result.converged
        s = np.exp(result.x[0])
        # analytic solution: c'/c = (beta R)^(1/2), budget pins down s
        ratio = (beta * R) ** 0.5
        expected = ratio * resources / (R + ratio)
        assert s == pytest.approx(expected, rel=1e-6)

    def test_fallback_to_scipy_on_hard_start(self):
        """A start too far for the truncated Newton run is rescued by the fallback."""

        def fn(x):
            return np.array([x[0] ** 3 - 8.0, np.sin(x[1])])

        solver = NewtonSolver(max_iterations=1, use_scipy_fallback=True)
        result = solver.solve(fn, np.array([10.0, 2.0]))
        assert result.residual_norm < 1e-6

    def test_no_fallback_reports_not_converged(self):
        def fn(x):
            return np.array([np.tanh(x[0]) - 0.5])

        solver = NewtonSolver(max_iterations=1, use_scipy_fallback=False)
        result = solver.solve(fn, np.array([40.0]))
        assert not result.converged

    def test_singular_jacobian_uses_least_squares(self):
        def fn(x):
            # rank-deficient Jacobian at the start, still solvable
            return np.array([x[0] + x[1] - 2.0, 2.0 * (x[0] + x[1]) - 4.0])

        result = NewtonSolver().solve(fn, np.array([0.0, 0.0]))
        assert result.residual_norm < 1e-8

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            NewtonSolver(tol=0.0)

    def test_polish_accepts_only_below_tol(self):
        """The scipy fallback uses Newton's acceptance rule, not a looser one."""
        tol = 1e-8
        solver = NewtonSolver(tol=tol)
        result = solver.solve(lambda x: np.full(1, 5.0 * tol), np.zeros(1))
        assert result.residual_norm == pytest.approx(5.0 * tol)
        assert not result.converged
        polished = solver._scipy_solve(lambda x: np.full(1, 5.0 * tol), np.zeros(1), 0, 0, 1.0)
        assert not polished.converged


class TestBoundConstrained:
    """``lower`` turns ``F(x) = 0`` into the min-map ``min(F(x), x - lower) = 0``."""

    def test_binding_bound_stops_on_the_bound(self):
        # F pushes below the bound (root at -1): the KKT point is x = lower
        result = NewtonSolver().solve(lambda x: x + 1.0, np.array([2.0]), lower=0.0)
        assert result.converged
        assert result.x[0] == pytest.approx(0.0, abs=1e-8)

    def test_slack_bound_finds_the_interior_root(self):
        result = NewtonSolver().solve(lambda x: x**3 - 8.0, np.array([1.0]), lower=-5.0)
        assert result.converged
        assert result.x[0] == pytest.approx(2.0, abs=1e-6)

    def test_per_component_bound_and_reported_norm_is_min_map(self):
        def fn(x):
            return np.array([x[0] + 1.0, x[1] - 3.0])

        result = NewtonSolver().solve(fn, np.array([1.0, 1.0]), lower=np.array([0.0, 0.0]))
        assert result.converged
        np.testing.assert_allclose(result.x, [0.0, 3.0], atol=1e-8)
        # the raw residual is 1 at the solution; the reported norm is Phi's
        assert result.residual_norm < 1e-8

    def test_euler_like_corner(self):
        """A saver who wants to borrow: log-savings settle on the floor."""
        beta, R, floor = 0.5, 1.0, -16.0

        def fn(log_s):
            s = np.exp(np.clip(log_s, floor, 30.0))
            # tiny resources today, large income tomorrow: u'(c) > beta R u'(c')
            return (0.1 - s) ** -2.0 - beta * R * (R * s + 5.0) ** -2.0

        unbounded = NewtonSolver(use_scipy_fallback=False).solve(fn, np.array([np.log(0.05)]))
        assert not unbounded.converged  # no interior root
        result = NewtonSolver().solve(fn, np.array([np.log(0.05)]), lower=floor)
        assert result.converged
        assert result.x[0] == pytest.approx(floor, abs=1e-8)
        assert fn(result.x)[0] > 0

    def test_scipy_polish_solves_the_min_map(self):
        solver = NewtonSolver()
        result = solver._scipy_solve(lambda x: x + 1.0, np.array([2.0]), 0, 0, np.inf, lower=0.0)
        assert result.converged
        assert result.x[0] == pytest.approx(0.0, abs=1e-8)

    def test_batch_matches_scalar_row_by_row(self):
        shifts = np.array([1.0, -2.0, 0.5, -0.25])

        def fn(rows, X):
            return X**3 + shifts[rows, None]

        x0 = np.ones((shifts.size, 1))
        batch = BatchNewtonSolver().solve(fn, x0, lower=0.0)
        assert batch.converged.all()
        for row, shift in enumerate(shifts):
            scalar = NewtonSolver().solve(lambda x: x**3 + shift, x0[row], lower=0.0)
            assert scalar.converged
            np.testing.assert_allclose(batch.x[row], scalar.x, atol=1e-8)
        # rows whose root is negative stop on the bound
        np.testing.assert_allclose(batch.x[shifts > 0, 0], 0.0, atol=1e-8)
        np.testing.assert_allclose(batch.x[shifts < 0, 0], np.cbrt(-shifts[shifts < 0]))
