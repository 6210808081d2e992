"""Nonlinear solvers for the per-grid-point equilibrium systems.

The paper solves the ~60-equation nonlinear system at every grid point with
Ipopt under bound constraints.  This reproduction uses a damped Newton
method with a finite-difference Jacobian and a backtracking line search.
A lower bound turns the root-finding problem ``F(x) = 0`` into the
complementarity (KKT) problem

    ``x >= lower,  F(x) >= 0,  (x - lower) * F(x) = 0``

which the solvers attack through its min-map reformulation

    ``Phi(x) = min(F(x), x - lower) = 0``   (componentwise)

— a semismooth system whose root is either an interior root of ``F`` or
sits on the bound where ``F`` pushes against it.  Without a bound
``Phi = F``.  Every acceptance test, line search and reported residual uses
``Phi``.  ``scipy.optimize.root`` (Powell hybrid) on the same ``Phi``
remains the rare fallback for points Newton cannot converge; the
surrounding code path (repeated interpolation of next-period policies
inside the residual function) is identical, which is what matters for the
performance experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import optimize

__all__ = ["PointSolveResult", "NewtonSolver", "BatchSolveResult", "BatchNewtonSolver"]

#: a lower bound on the unknowns: scalar, per-component array, or none
Bound = float | np.ndarray | None


def _min_map(fn: Callable, lower: Bound) -> Callable:
    """``x -> min(fn(x), x - lower)``; ``fn`` itself when ``lower`` is None."""
    if lower is None:
        return fn

    def phi(*args):
        x = args[-1]
        return np.minimum(np.asarray(fn(*args), dtype=float), x - lower)

    return phi


@dataclass
class PointSolveResult:
    """Outcome of one nonlinear point solve."""

    x: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int
    residual_evaluations: int

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)


class NewtonSolver:
    """Damped Newton with finite-difference Jacobian and scipy fallback.

    Parameters
    ----------
    tol
        Convergence tolerance on the residual infinity norm (of the min-map
        ``Phi`` when a lower bound is given).
    max_iterations
        Newton iteration cap before the fallback kicks in.
    fd_step
        Relative step of the forward-difference Jacobian.
    max_step
        Cap on the Newton step infinity norm (guards against blow-ups when
        the Jacobian is nearly singular far from the solution).
    use_scipy_fallback
        Whether to retry unconverged solves with ``scipy.optimize.root``.
    """

    def __init__(
        self,
        tol: float = 1e-8,
        max_iterations: int = 40,
        fd_step: float = 1e-7,
        max_step: float = 5.0,
        use_scipy_fallback: bool = True,
    ) -> None:
        if tol <= 0:
            raise ValueError("tol must be positive")
        self.tol = tol
        self.max_iterations = max_iterations
        self.fd_step = fd_step
        self.max_step = max_step
        self.use_scipy_fallback = use_scipy_fallback

    # ------------------------------------------------------------------ #
    def _jacobian(self, fn: Callable, x: np.ndarray, fx: np.ndarray, counter: list) -> np.ndarray:
        n = x.shape[0]
        jac = np.empty((fx.shape[0], n), dtype=float)
        for j in range(n):
            step = self.fd_step * max(abs(x[j]), 1.0)
            xp = x.copy()
            xp[j] += step
            fp = np.asarray(fn(xp), dtype=float)
            counter[0] += 1
            jac[:, j] = (fp - fx) / step
        return jac

    def solve(self, fn: Callable, x0: np.ndarray, lower: Bound = None) -> PointSolveResult:
        """Solve ``fn(x) = 0`` starting from ``x0``.

        With a ``lower`` bound (scalar or per-component) the solve targets
        ``min(fn(x), x - lower) = 0`` instead: components may stop on the
        bound where ``fn`` is positive there.
        """
        fn = _min_map(fn, lower)
        x = np.array(x0, dtype=float).copy()
        evals = [0]
        fx = np.asarray(fn(x), dtype=float)
        evals[0] += 1
        best_x, best_norm = x.copy(), float(np.max(np.abs(fx)))
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            norm = float(np.max(np.abs(fx)))
            if norm < best_norm:
                best_norm, best_x = norm, x.copy()
            if norm < self.tol:
                return PointSolveResult(x, norm, True, iterations, evals[0])
            jac = self._jacobian(fn, x, fx, evals)
            try:
                step = np.linalg.solve(jac, -fx)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(jac, -fx, rcond=None)
            step_norm = float(np.max(np.abs(step)))
            if step_norm > self.max_step:
                step *= self.max_step / step_norm
            # backtracking line search on the residual norm
            lam = 1.0
            improved = False
            for _ in range(12):
                trial = x + lam * step
                f_trial = np.asarray(fn(trial), dtype=float)
                evals[0] += 1
                if np.max(np.abs(f_trial)) < norm:
                    x, fx = trial, f_trial
                    improved = True
                    break
                lam *= 0.5
            if not improved:
                break
        norm = float(np.max(np.abs(fx)))
        if norm < best_norm:
            best_norm, best_x = norm, x.copy()
        if best_norm < self.tol:
            return PointSolveResult(best_x, best_norm, True, iterations, evals[0])
        if self.use_scipy_fallback:
            return self._scipy_solve(fn, best_x, iterations, evals[0], best_norm)
        return PointSolveResult(best_x, best_norm, False, iterations, evals[0])

    def _scipy_solve(
        self,
        fn: Callable,
        x0: np.ndarray,
        iterations: int,
        evals: int,
        best_norm: float,
        lower: Bound = None,
    ) -> PointSolveResult:
        """Powell-hybrid polish of ``fn`` (min-mapped by ``lower``) from ``x0``.

        Accepted under the same rule as Newton's (``norm < tol``); when it
        does not improve on ``best_norm`` the starting point is kept.
        """
        fn = _min_map(fn, lower)
        counter = [evals]

        def counted(x):
            counter[0] += 1
            return np.asarray(fn(x), dtype=float)

        sol = optimize.root(counted, x0, method="hybr", tol=self.tol)
        norm = float(np.max(np.abs(np.asarray(sol.fun, dtype=float))))
        if norm <= best_norm:
            return PointSolveResult(
                np.asarray(sol.x, dtype=float),
                norm,
                bool(norm < self.tol),
                iterations,
                counter[0],
            )
        return PointSolveResult(x0, best_norm, False, iterations, counter[0])


@dataclass
class BatchSolveResult:
    """Outcome of a batched nonlinear solve over ``m`` independent systems."""

    x: np.ndarray              # (m, n) best iterate per system
    residual_norm: np.ndarray  # (m,) residual infinity norm at ``x``
    converged: np.ndarray      # (m,) bool
    iterations: int
    residual_evaluations: int  # vectorized residual calls, not per-row calls


class BatchNewtonSolver:
    """Damped Newton over a batch of independent small systems.

    Runs the same algorithm as :class:`NewtonSolver` — forward-difference
    Jacobian, capped step, 12-step backtracking line search on the residual
    infinity norm — but row-masked over ``m`` systems at once, so every
    residual evaluation is ONE vectorized call over all still-active rows
    instead of ``m`` scalar calls.  Rows whose line search stalls are
    deactivated and reported unconverged; callers polish them one by one
    with :meth:`NewtonSolver._scipy_solve`.  For systems whose solution may
    sit on a bound, pass that ``lower`` bound: a row pinned there has no
    interior root and would otherwise stall, so the polish stays a rare
    fallback.

    The residual callback receives ``(rows, X)`` where ``rows`` indexes the
    original batch (so the callback can look up per-row problem data) and
    ``X`` holds the candidate unknowns for exactly those rows.
    """

    def __init__(
        self,
        tol: float = 1e-8,
        max_iterations: int = 40,
        fd_step: float = 1e-7,
        max_step: float = 5.0,
    ) -> None:
        if tol <= 0:
            raise ValueError("tol must be positive")
        self.tol = tol
        self.max_iterations = max_iterations
        self.fd_step = fd_step
        self.max_step = max_step

    @classmethod
    def from_scalar(cls, solver: NewtonSolver) -> "BatchNewtonSolver":
        """Mirror a scalar solver's tolerances so both paths agree."""
        return cls(
            tol=solver.tol,
            max_iterations=solver.max_iterations,
            fd_step=solver.fd_step,
            max_step=solver.max_step,
        )

    def solve(self, fn: Callable, x0: np.ndarray, lower: Bound = None) -> BatchSolveResult:
        """Solve ``fn(rows, X) = 0`` row-wise starting from ``x0`` (m, n).

        ``lower`` (scalar or per-column) switches every row to the min-map
        ``min(fn(rows, X), X - lower) = 0``, as in :meth:`NewtonSolver.solve`.
        """
        fn = _min_map(fn, lower)
        X = np.array(x0, dtype=float)
        if X.ndim != 2:
            raise ValueError("x0 must be (m, n)")
        m, n = X.shape
        F = np.asarray(fn(np.arange(m), X), dtype=float).reshape(m, n)
        evals = 1
        norms = np.max(np.abs(F), axis=1)
        best_x, best_norm = X.copy(), norms.copy()
        active = norms >= self.tol
        iterations = 0
        while iterations < self.max_iterations and active.any():
            iterations += 1
            idx = np.flatnonzero(active)
            Xa, Fa = X[idx], F[idx]
            # forward-difference Jacobian, one vectorized call per column
            jac = np.empty((idx.size, n, n), dtype=float)
            steps = self.fd_step * np.maximum(np.abs(Xa), 1.0)
            for j in range(n):
                Xp = Xa.copy()
                Xp[:, j] += steps[:, j]
                Fp = np.asarray(fn(idx, Xp), dtype=float).reshape(idx.size, n)
                evals += 1
                jac[:, :, j] = (Fp - Fa) / steps[:, j][:, None]
            try:
                step = np.linalg.solve(jac, -Fa[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                step = np.empty_like(Fa)
                for r in range(idx.size):
                    try:
                        step[r] = np.linalg.solve(jac[r], -Fa[r])
                    except np.linalg.LinAlgError:
                        step[r], *_ = np.linalg.lstsq(jac[r], -Fa[r], rcond=None)
            step_norm = np.max(np.abs(step), axis=1)
            too_big = step_norm > self.max_step
            if too_big.any():
                step[too_big] *= (self.max_step / step_norm[too_big])[:, None]
            # backtracking line search, all pending rows per halving
            lam = np.ones(idx.size)
            pending = np.ones(idx.size, dtype=bool)
            accepted = np.zeros(idx.size, dtype=bool)
            norm_a = norms[idx]
            for _ in range(12):
                p = np.flatnonzero(pending)
                if p.size == 0:
                    break
                trial = Xa[p] + lam[p, None] * step[p]
                f_trial = np.asarray(fn(idx[p], trial), dtype=float).reshape(p.size, n)
                evals += 1
                trial_norm = np.max(np.abs(f_trial), axis=1)
                good = trial_norm < norm_a[p]
                gp = p[good]
                if gp.size:
                    rows = idx[gp]
                    X[rows] = trial[good]
                    F[rows] = f_trial[good]
                    norms[rows] = trial_norm[good]
                    accepted[gp] = True
                    pending[gp] = False
                lam[p[~good]] *= 0.5
            better = norms < best_norm
            if better.any():
                best_x[better] = X[better]
                best_norm[better] = norms[better]
            # stalled rows exit (scalar path breaks there too); improved rows
            # stay active until their residual drops below tolerance
            active[idx[~accepted]] = False
            improved = idx[accepted]
            active[improved] = norms[improved] >= self.tol
        return BatchSolveResult(
            x=best_x,
            residual_norm=best_norm,
            converged=best_norm < self.tol,
            iterations=iterations,
            residual_evaluations=evals,
        )
