"""Cross-scenario stacked evaluation of the OLG equilibrium systems.

Sweep scenarios that share a grid topology (same generations, shock count,
grid level) typically differ only in calibration *scalars* — tax rates,
discount factors, shock processes.  :class:`StackedOLGGroup` exploits that:
it stacks the per-scenario parameters into per-row arrays and solves the
Euler systems of all scenarios' grid points as ONE ``(n_scenarios *
n_points)``-row batch, so every Newton residual evaluation is a handful of
vectorized array operations plus one shared basis pass over the common grid
(:func:`repro.grids.interpolation.evaluate_stacked`) instead of thousands
of scalar calls.

Structural ingredients that change the *shape* of the system — the age
profile, preferences, technology, fiscal rule, nonlinear-solver settings —
must agree across members; :class:`StructuralMismatch` is raised otherwise
and the caller falls back to per-scenario solves.  Every row is solved as
the same bound-constrained (KKT) system as
:meth:`~repro.olg.model.OLGModel.solve_point`, so rows where the borrowing
constraint binds converge in the batched Newton too.  The rare rows it
still cannot converge get the scalar solver's scipy polish through the
member's own scalar residual, so results match the sequential path to
solver tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.core.policy import PolicySet
from repro.grids.interpolation import evaluate_stacked
from repro.olg.model import _LOG_SAVINGS_FLOOR
from repro.olg.solver import BatchNewtonSolver

__all__ = ["StackedOLGGroup", "StructuralMismatch"]

_SHOCK_LABELS = ("productivity", "depreciation", "tau_labor", "tau_capital")


class StructuralMismatch(ValueError):
    """Members differ in a way that changes the stacked system's structure."""


def _solver_settings(model) -> tuple:
    s = model.solver
    return (
        float(s.tol),
        int(s.max_iterations),
        float(s.fd_step),
        float(s.max_step),
        bool(s.use_scipy_fallback),
    )


class StackedOLGGroup:
    """Point solver for several OLG models sharing one grid topology.

    Parameters
    ----------
    models
        One :class:`~repro.olg.model.OLGModel` per scenario.  All members
        must agree on every structural ingredient (checked; see
        :class:`StructuralMismatch`); per-member scalars (discount factor,
        shock labels, transition probabilities, domain boxes) are stacked.
    counts
        Number of grid points contributed by each member (all equal when
        the members share one regular grid, but the stacking is general).
    """

    def __init__(self, models: list, counts: list[int]) -> None:
        if not models:
            raise ValueError("StackedOLGGroup needs at least one model")
        if len(models) != len(counts):
            raise ValueError("need one point count per model")
        base = models[0]
        base_cal = base.calibration
        for m in models[1:]:
            cal = m.calibration
            if type(m) is not type(base):
                raise StructuralMismatch("mixed model classes")
            if (
                cal.num_generations != base_cal.num_generations
                or cal.num_states != base_cal.num_states
                or cal.retirement_age != base_cal.retirement_age
                or cal.labor_supply != base_cal.labor_supply
                or cal.num_retired != base_cal.num_retired
                or not np.array_equal(cal.efficiency, base_cal.efficiency)
            ):
                raise StructuralMismatch("calibration structure differs")
            if (
                m.utility != base.utility
                or m.technology != base.technology
                or m.fiscal != base.fiscal
            ):
                raise StructuralMismatch("preferences/technology/fiscal differ")
            if _solver_settings(m) != _solver_settings(base):
                raise StructuralMismatch("nonlinear solver settings differ")
        self.models = list(models)
        self.counts = [int(c) for c in counts]
        self.base = base
        self.num_members = len(models)
        self.offsets = np.concatenate([[0], np.cumsum(self.counts)])
        total = int(self.offsets[-1])
        self.row_member = np.repeat(np.arange(self.num_members), self.counts)

        def _stack_scalar(values) -> np.ndarray:
            return np.repeat(np.asarray(values, dtype=float), self.counts)

        self.beta_row = _stack_scalar([m.calibration.beta for m in models])
        self.lower_row = np.concatenate(
            [np.tile(m.domain.lower, (c, 1)) for m, c in zip(models, self.counts)]
        )
        self.upper_row = np.concatenate(
            [np.tile(m.domain.upper, (c, 1)) for m, c in zip(models, self.counts)]
        )
        num_states = base_cal.num_states
        # per shock state: one (total_rows,) array per stacked label scalar
        self.labels = {
            name: [
                _stack_scalar(
                    [float(m.calibration.shocks.label(name)[z]) for m in models]
                )
                for z in range(num_states)
            ]
            for name in _SHOCK_LABELS
        }
        # transition probabilities out of each shock state, per row
        self.prob = [
            np.concatenate(
                [
                    np.tile(
                        np.asarray(m.calibration.shocks.transition[z], dtype=float),
                        (c, 1),
                    )
                    for m, c in zip(models, self.counts)
                ]
            )
            for z in range(num_states)
        ]
        self._batch_solver = BatchNewtonSolver.from_scalar(base.solver)
        assert total == self.row_member.size

    # ------------------------------------------------------------------ #
    # stacked model pieces (per-row parameter arrays)
    # ------------------------------------------------------------------ #
    def _environment_rows(
        self, z: int, rows: np.ndarray, K: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gross return and incomes with per-row calibration scalars."""
        base = self.base
        cal = base.calibration
        tech = base.technology
        zeta = self.labels["productivity"][z][rows]
        delta = self.labels["depreciation"][z][rows]
        tau_l = self.labels["tau_labor"][z][rows]
        tau_c = self.labels["tau_capital"][z][rows]
        L = max(float(cal.labor_supply), tech.capital_floor)
        ratio = np.maximum(K, tech.capital_floor) / L
        wage = (1.0 - tech.theta) * zeta * ratio**tech.theta
        r_gross = tech.theta * zeta * ratio ** (tech.theta - 1.0)
        return_net = r_gross - delta
        labor_revenue = tau_l * wage * cal.labor_supply
        if cal.num_retired > 0:
            pension = labor_revenue / cal.num_retired
        else:
            pension = np.zeros_like(wage)
        capital_revenue = tau_c * return_net * np.maximum(K, 0.0)
        if base.fiscal.rebate_capital_tax and cal.num_generations:
            transfer = capital_revenue / cal.num_generations
        else:
            transfer = np.zeros_like(wage)
        gross_return = 1.0 + (1.0 - tau_c) * return_net
        ages = np.arange(cal.num_generations)
        worker_income = ((1.0 - tau_l) * wage)[:, None] * np.asarray(
            cal.efficiency, dtype=float
        )[None, :]
        incomes = np.where(
            ages[None, :] < cal.retirement_age, worker_income, pension[:, None]
        )
        incomes = incomes + transfer[:, None]
        return gross_return, incomes

    def _holdings_rows(self, X: np.ndarray) -> np.ndarray:
        A = self.base.calibration.num_generations
        holdings = np.zeros((X.shape[0], A), dtype=float)
        holdings[:, 1 : A - 1] = X[:, 1:]
        holdings[:, A - 1] = np.maximum(X[:, 0] - X[:, 1:].sum(axis=1), 0.0)
        return holdings

    def _evaluate_policies(
        self,
        z_next: int,
        rows: np.ndarray,
        x_next: np.ndarray,
        policies: list[PolicySet],
    ) -> np.ndarray:
        """Next-iterate policy values of each row's own member, one basis pass."""
        mem = self.row_member[rows]  # nondecreasing: rows are sorted
        uniq, starts = np.unique(mem, return_index=True)
        bounds = np.append(starts, mem.size)
        interps = [policies[int(u)][z_next].interpolant for u in uniq]
        blocks = [x_next[starts[i] : bounds[i + 1]] for i in range(uniq.size)]
        outs = evaluate_stacked(interps, blocks)
        return np.concatenate([np.atleast_2d(o) for o in outs], axis=0)

    def euler_residuals_rows(
        self,
        z: int,
        rows: np.ndarray,
        X: np.ndarray,
        savings: np.ndarray,
        policies: list[PolicySet],
    ) -> np.ndarray:
        """Euler residuals for an arbitrary (sorted) subset of stacked rows."""
        base = self.base
        ns = base.num_savers
        gross, incomes = self._environment_rows(z, rows, X[:, 0])
        holdings = self._holdings_rows(X)
        resources = gross[:, None] * holdings + incomes
        mu_today = base.utility.marginal_utility(resources[:, :ns] - savings)

        K_next = savings.sum(axis=1)
        x_next = np.clip(
            np.concatenate([K_next[:, None], savings[:, : ns - 1]], axis=1),
            self.lower_row[rows],
            self.upper_row[rows],
        )
        expected = np.zeros_like(mu_today)
        for z_next in range(base.num_states):
            prob = self.prob[z][rows, z_next]
            if not np.any(prob > 0.0):
                continue
            next_values = self._evaluate_policies(z_next, rows, x_next, policies)
            next_savings = np.maximum(next_values[:, :ns], 0.0)
            save_next = np.zeros_like(savings)
            save_next[:, : ns - 1] = next_savings[:, 1:ns]
            gross_n, incomes_n = self._environment_rows(z_next, rows, K_next)
            cons_next = gross_n[:, None] * savings + incomes_n[:, 1:] - save_next
            mu_next = base.utility.marginal_utility(cons_next)
            expected += prob[:, None] * gross_n[:, None] * mu_next
        return mu_today - self.beta_row[rows][:, None] * expected

    def value_functions_rows(
        self,
        z: int,
        rows: np.ndarray,
        X: np.ndarray,
        savings: np.ndarray,
        policies: list[PolicySet],
    ) -> np.ndarray:
        """Bellman value updates for a (sorted) subset of stacked rows."""
        base = self.base
        ns = base.num_savers
        gross, incomes = self._environment_rows(z, rows, X[:, 0])
        holdings = self._holdings_rows(X)
        resources = gross[:, None] * holdings + incomes
        utility_today = base.utility.utility(resources[:, :ns] - savings)

        K_next = savings.sum(axis=1)
        x_next = np.clip(
            np.concatenate([K_next[:, None], savings[:, : ns - 1]], axis=1),
            self.lower_row[rows],
            self.upper_row[rows],
        )
        continuation = np.zeros_like(utility_today)
        for z_next in range(base.num_states):
            prob = self.prob[z][rows, z_next]
            if not np.any(prob > 0.0):
                continue
            next_values = self._evaluate_policies(z_next, rows, x_next, policies)
            next_savings = np.maximum(next_values[:, :ns], 0.0)
            save_next = np.zeros_like(savings)
            save_next[:, : ns - 1] = next_savings[:, 1:ns]
            gross_n, incomes_n = self._environment_rows(z_next, rows, K_next)
            cons_next = gross_n[:, None] * savings + incomes_n[:, 1:] - save_next
            value_next = np.empty_like(utility_today)
            value_next[:, : ns - 1] = next_values[:, ns + 1 : 2 * ns]
            value_next[:, ns - 1] = base.utility.utility(cons_next[:, ns - 1])
            continuation += prob[:, None] * value_next
        return utility_today + self.beta_row[rows][:, None] * continuation

    # ------------------------------------------------------------------ #
    # the stacked point solve
    # ------------------------------------------------------------------ #
    def solve_points(
        self,
        z: int,
        Xs: list[np.ndarray],
        policies: list[PolicySet],
        guesses: list[np.ndarray | None],
    ) -> list[np.ndarray]:
        """Solve every member's grid points for shock state ``z`` in one batch.

        ``Xs[i]`` are member ``i``'s grid points in its own problem box,
        ``policies[i]`` its next-iterate policy set, ``guesses[i]`` optional
        warm-start policy values per point.  Returns one
        ``(counts[i], num_policies)`` array per member, equivalent to each
        member's :meth:`~repro.olg.model.OLGModel.solve_points_batch` up to
        solver tolerance.
        """
        if len(Xs) != self.num_members or len(policies) != self.num_members:
            raise ValueError("need one point block and policy set per member")
        blocks = [np.atleast_2d(np.asarray(X, dtype=float)) for X in Xs]
        for block, count in zip(blocks, self.counts):
            if block.shape[0] != count:
                raise ValueError("point block size does not match member count")
        X_row = np.concatenate(blocks, axis=0)
        guess_rows = np.concatenate(
            [
                m._savings_guess_batch(z, block, g)
                for m, block, g in zip(self.models, blocks, guesses)
            ]
        )
        log_guess = np.log(np.maximum(guess_rows, np.exp(_LOG_SAVINGS_FLOOR)))

        def residual(rows: np.ndarray, log_savings: np.ndarray) -> np.ndarray:
            savings = np.exp(np.clip(log_savings, _LOG_SAVINGS_FLOOR, 30.0))
            return self.euler_residuals_rows(z, rows, X_row[rows], savings, policies)

        result = self._batch_solver.solve(residual, log_guess, lower=_LOG_SAVINGS_FLOOR)
        savings = np.exp(np.clip(result.x, _LOG_SAVINGS_FLOOR, 30.0))

        total = X_row.shape[0]
        ns = self.base.num_savers
        out = np.empty((total, self.base.num_policies), dtype=float)
        # Rows the batched Newton stalled on (rare) get the same treatment
        # the scalar solver applies after ITS Newton stalls: a scipy polish
        # of the same bound-constrained system from the best iterate,
        # accepted when it does not worsen the residual (the scalar path,
        # too, proceeds with its best point when even scipy cannot converge).
        for row in np.flatnonzero(~result.converged):
            member = int(self.row_member[row])
            model = self.models[member]
            if not model.solver.use_scipy_fallback:
                continue
            x = X_row[row]
            policy = policies[member]

            def res1(log_savings: np.ndarray) -> np.ndarray:
                sav = np.exp(np.clip(log_savings, _LOG_SAVINGS_FLOOR, 30.0))
                return model.euler_residuals(z, x, sav, policy)

            polished = model.solver._scipy_solve(
                res1,
                result.x[row],
                0,
                0,
                float(result.residual_norm[row]),
                lower=_LOG_SAVINGS_FLOOR,
            )
            savings[row] = np.exp(np.clip(polished.x, _LOG_SAVINGS_FLOOR, 30.0))
        all_rows = np.arange(total)
        values = self.value_functions_rows(z, all_rows, X_row, savings, policies)
        out[:, :ns] = savings
        out[:, ns:] = values
        return [
            out[self.offsets[i] : self.offsets[i + 1]]
            for i in range(self.num_members)
        ]
