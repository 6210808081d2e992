"""The stochastic OLG model (paper Sec. II) as a time-iteration model.

State convention
----------------
The mixed state is ``s = (z, x)`` with ``z`` a discrete Markov shock and

    ``x = (K, omega_2, ..., omega_{A-1})  in  R^{A-1}``

where ``K`` is aggregate capital at the start of the period and ``omega_a``
is the capital holding of generation ``a`` (ages are 0-based in the code:
generation ``a`` corresponds to code age ``a - 1``).  Newborns hold nothing
and the oldest generation's holding is the residual ``K - sum(omega)``
(floored at zero), which is why only ``A - 2`` individual holdings enter the
state and ``d = A - 1``.

Policy convention
-----------------
Per discrete state and per grid point the model approximates
``2 (A - 1)`` numbers: the savings (asset demand) functions of ages
``0 .. A-2`` followed by their value functions, matching the paper's
"118 coefficients per state and grid point" for ``A = 60``.

Equilibrium conditions
----------------------
At a grid point the unknowns are the savings ``k'_a`` of all non-terminal
ages.  The residuals are the Euler equations

    ``u'(c_a) - beta * E_z'[ R'(z') u'(c'_{a+1}(z')) | z ] = 0``

where next-period consumption interpolates the *next iterate's* policy
functions of all ``Ns`` shock states (the interpolation bottleneck the
paper optimises).  Savings are solved in log space, bounded below by
``_LOG_SAVINGS_FLOOR`` (savings of ~1e-7: the borrowing constraint), as
the complementarity problem the paper hands to Ipopt with bound
constraints: for each age ``a`` either the Euler residual ``R_a`` vanishes,
or log-savings sit on the floor and ``R_a > 0`` (the agent would like to
borrow but may not).  The point solvers drive the min-map
``min(R, log_savings - floor)`` to zero (see :mod:`repro.olg.solver`), so
constrained points converge in Newton like interior ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.policy import PolicySet
from repro.grids.domain import BoxDomain
from repro.olg.calibration import OLGCalibration
from repro.olg.government import FiscalPolicy, GovernmentBudget
from repro.olg.preferences import CRRAUtility
from repro.olg.production import CobbDouglasTechnology, Prices
from repro.olg.solver import BatchNewtonSolver, NewtonSolver
from repro.utils.rng import default_rng

__all__ = ["OLGModel", "PeriodEnvironment", "BatchPeriodEnvironment"]

_LOG_SAVINGS_FLOOR = -16.0  # exp(-16) ~ 1e-7: effectively the borrowing constraint


@dataclass(frozen=True)
class PeriodEnvironment:
    """Everything the household problem needs about one period's aggregates."""

    prices: Prices
    budget: GovernmentBudget
    gross_return: float        # 1 + (1 - tau_c) * r_net
    incomes: np.ndarray        # after-tax non-asset income by age


@dataclass(frozen=True)
class BatchPeriodEnvironment:
    """Per-period aggregates for a batch of ``m`` states at once."""

    gross_return: np.ndarray   # (m,) after-tax gross return factor
    incomes: np.ndarray        # (m, A) after-tax non-asset income by age


class OLGModel:
    """Stochastic OLG economy implementing the time-iteration protocol."""

    def __init__(
        self,
        calibration: OLGCalibration | None = None,
        utility: CRRAUtility | None = None,
        technology: CobbDouglasTechnology | None = None,
        fiscal: FiscalPolicy | None = None,
        solver: NewtonSolver | None = None,
        domain: BoxDomain | None = None,
    ) -> None:
        self.calibration = calibration if calibration is not None else OLGCalibration()
        cal = self.calibration
        self.utility = utility if utility is not None else CRRAUtility(
            gamma=cal.gamma, c_min=cal.consumption_floor
        )
        self.technology = technology if technology is not None else CobbDouglasTechnology(
            theta=cal.theta
        )
        self.fiscal = fiscal if fiscal is not None else FiscalPolicy()
        self.solver = solver if solver is not None else NewtonSolver()
        self._domain = domain if domain is not None else self._default_domain()

    # ------------------------------------------------------------------ #
    # protocol properties
    # ------------------------------------------------------------------ #
    @property
    def num_states(self) -> int:
        return self.calibration.num_states

    @property
    def state_dim(self) -> int:
        return self.calibration.state_dim

    @property
    def num_ages(self) -> int:
        return self.calibration.num_generations

    @property
    def num_savers(self) -> int:
        """Ages with a savings decision (all but the oldest)."""
        return self.calibration.num_generations - 1

    @property
    def num_policies(self) -> int:
        """Savings plus value function per saving age — 2(A-1) coefficients."""
        return 2 * self.num_savers

    @property
    def domain(self) -> BoxDomain:
        return self._domain

    # ------------------------------------------------------------------ #
    # aggregates, prices, incomes
    # ------------------------------------------------------------------ #
    def _default_domain(self) -> BoxDomain:
        """Centre the approximation box on the deterministic steady state."""
        from repro.olg.steady_state import deterministic_steady_state

        cal = self.calibration
        steady = deterministic_steady_state(
            cal, technology=self.technology, fiscal=self.fiscal, utility=self.utility
        )
        self._steady_state = steady
        k_ss = max(steady.capital, 1e-3)
        if cal.capital_bounds is not None:
            k_lo, k_hi = cal.capital_bounds
        else:
            k_lo, k_hi = 0.25 * k_ss, 3.0 * k_ss
        if cal.holdings_upper is not None:
            holdings_hi = cal.holdings_upper
        else:
            peak_holding = float(np.max(np.maximum(steady.profile.holdings, 0.0)))
            holdings_hi = max(2.5 * peak_holding, 1.0 * k_ss)
        lower = np.concatenate([[k_lo], np.zeros(cal.num_generations - 2)])
        upper = np.concatenate(
            [[k_hi], np.full(cal.num_generations - 2, holdings_hi)]
        )
        return BoxDomain(lower, upper)

    @property
    def steady_state(self):
        """Deterministic steady state used to anchor the box and guesses."""
        if not hasattr(self, "_steady_state"):
            from repro.olg.steady_state import deterministic_steady_state

            self._steady_state = deterministic_steady_state(
                self.calibration,
                technology=self.technology,
                fiscal=self.fiscal,
                utility=self.utility,
            )
        return self._steady_state

    def environment(self, z: int, K: float) -> PeriodEnvironment:
        """Prices, government budget and incomes in shock state ``z`` at capital ``K``."""
        cal = self.calibration
        shocks = cal.shocks
        zeta = float(shocks.label("productivity")[z])
        delta = float(shocks.label("depreciation")[z])
        tau_l = float(shocks.label("tau_labor")[z])
        tau_c = float(shocks.label("tau_capital")[z])
        L = cal.labor_supply
        prices = self.technology.prices(K, L, zeta, delta)
        budget = self.fiscal.budget(
            tau_labor=tau_l,
            tau_capital=tau_c,
            wage=prices.wage,
            labor_supply=L,
            return_net=prices.return_net,
            aggregate_capital=K,
            num_agents=cal.num_generations,
            num_retired=cal.num_retired,
        )
        gross_return = self.fiscal.after_tax_return(prices.return_net, tau_c)
        incomes = np.empty(cal.num_generations, dtype=float)
        for age in range(cal.num_generations):
            if age < cal.retirement_age:
                incomes[age] = (1.0 - tau_l) * prices.wage * cal.efficiency[age]
            else:
                incomes[age] = budget.pension_benefit
            incomes[age] += budget.lump_sum_transfer
        return PeriodEnvironment(
            prices=prices, budget=budget, gross_return=gross_return, incomes=incomes
        )

    # ------------------------------------------------------------------ #
    # state packing
    # ------------------------------------------------------------------ #
    def unpack_state(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Split a continuous state into aggregate capital and per-age holdings.

        Returns ``(K, holdings)`` where ``holdings`` has length ``A``:
        newborns hold nothing and the oldest generation's holding is the
        residual ``K - sum(middle holdings)``, floored at zero.
        """
        x = np.asarray(x, dtype=float).reshape(self.state_dim)
        A = self.calibration.num_generations
        K = float(x[0])
        holdings = np.zeros(A, dtype=float)
        holdings[1 : A - 1] = x[1:]
        holdings[A - 1] = max(K - float(x[1:].sum()), 0.0)
        return K, holdings

    def pack_next_state(self, savings: np.ndarray) -> np.ndarray:
        """Continuous state implied by today's savings decisions.

        ``savings`` has length ``A - 1`` (ages ``0 .. A-2``); tomorrow
        these agents are ages ``1 .. A-1``, so the new aggregate capital is
        their sum and the tracked holdings are those of tomorrow's ages
        ``1 .. A-2`` (i.e. today's savers ``0 .. A-3``).
        """
        savings = np.asarray(savings, dtype=float)
        K_next = float(savings.sum())
        x_next = np.concatenate([[K_next], savings[: self.num_savers - 1]])
        # keep the query inside the approximation box
        return np.clip(x_next, self.domain.lower, self.domain.upper)

    # ------------------------------------------------------------------ #
    # household problem pieces
    # ------------------------------------------------------------------ #
    def consumption_today(
        self, env: PeriodEnvironment, holdings: np.ndarray, savings: np.ndarray
    ) -> np.ndarray:
        """Consumption by age implied by holdings, income and savings choices."""
        A = self.calibration.num_generations
        consumption = np.empty(A, dtype=float)
        resources = env.gross_return * holdings + env.incomes
        consumption[: A - 1] = resources[: A - 1] - savings
        consumption[A - 1] = resources[A - 1]
        return consumption

    def _next_period_consumption(
        self,
        z_next: int,
        savings: np.ndarray,
        next_policy_values: np.ndarray,
    ) -> tuple[np.ndarray, PeriodEnvironment]:
        """Next-period consumption of today's savers in shock state ``z_next``.

        ``next_policy_values`` are the interpolated next-period policy
        coefficients at tomorrow's state (savings of tomorrow's ages and
        value functions).
        """
        A = self.calibration.num_generations
        K_next = float(np.sum(savings))
        env_next = self.environment(z_next, K_next)
        next_savings = np.maximum(next_policy_values[: self.num_savers], 0.0)
        consumption = np.empty(self.num_savers, dtype=float)
        for age in range(self.num_savers):  # today's age; tomorrow they are age + 1
            age_next = age + 1
            resources = env_next.gross_return * savings[age] + env_next.incomes[age_next]
            save_next = next_savings[age_next] if age_next < self.num_savers else 0.0
            consumption[age] = resources - save_next
        return consumption, env_next

    # ------------------------------------------------------------------ #
    # equilibrium conditions
    # ------------------------------------------------------------------ #
    def euler_residuals(
        self,
        z: int,
        x: np.ndarray,
        savings: np.ndarray,
        policy_next: PolicySet,
    ) -> np.ndarray:
        """Euler-equation residuals at one state for candidate savings."""
        cal = self.calibration
        savings = np.asarray(savings, dtype=float)
        K, holdings = self.unpack_state(x)
        env = self.environment(z, K)
        consumption = self.consumption_today(env, holdings, savings)
        mu_today = self.utility.marginal_utility(consumption[: self.num_savers])

        x_next = self.pack_next_state(savings)
        pi_row = cal.shocks.transition[z]
        expected = np.zeros(self.num_savers, dtype=float)
        for z_next in range(self.num_states):
            prob = pi_row[z_next]
            if prob <= 0.0:
                continue
            next_values = np.asarray(policy_next.evaluate(z_next, x_next), dtype=float)
            cons_next, env_next = self._next_period_consumption(z_next, savings, next_values)
            mu_next = self.utility.marginal_utility(cons_next)
            expected += prob * env_next.gross_return * mu_next
        return mu_today - cal.beta * expected

    def value_functions(
        self,
        z: int,
        x: np.ndarray,
        savings: np.ndarray,
        policy_next: PolicySet,
    ) -> np.ndarray:
        """Bellman update of the value functions of all saving ages."""
        cal = self.calibration
        K, holdings = self.unpack_state(x)
        env = self.environment(z, K)
        consumption = self.consumption_today(env, holdings, savings)
        utility_today = self.utility.utility(consumption[: self.num_savers])

        x_next = self.pack_next_state(savings)
        pi_row = cal.shocks.transition[z]
        continuation = np.zeros(self.num_savers, dtype=float)
        for z_next in range(self.num_states):
            prob = pi_row[z_next]
            if prob <= 0.0:
                continue
            next_values = np.asarray(policy_next.evaluate(z_next, x_next), dtype=float)
            cons_next, _ = self._next_period_consumption(z_next, savings, next_values)
            value_next = np.empty(self.num_savers, dtype=float)
            for age in range(self.num_savers):
                age_next = age + 1
                if age_next < self.num_savers:
                    value_next[age] = next_values[self.num_savers + age_next]
                else:
                    # tomorrow they are the terminal generation: consume everything
                    value_next[age] = float(self.utility.utility(cons_next[age]))
            continuation += prob * value_next
        return utility_today + cal.beta * continuation

    # ------------------------------------------------------------------ #
    # time-iteration protocol methods
    # ------------------------------------------------------------------ #
    def solve_point(
        self,
        z: int,
        x: np.ndarray,
        policy_next: PolicySet,
        guess: np.ndarray | None = None,
    ) -> np.ndarray:
        """Solve the equilibrium system at one grid point.

        Returns the ``2 (A-1)`` policy coefficients (savings then values).
        """
        x = np.asarray(x, dtype=float)
        savings_guess = self._savings_guess(z, x, guess)
        log_guess = np.log(np.maximum(savings_guess, np.exp(_LOG_SAVINGS_FLOOR)))

        def residual(log_savings: np.ndarray) -> np.ndarray:
            savings = np.exp(np.clip(log_savings, _LOG_SAVINGS_FLOOR, 30.0))
            return self.euler_residuals(z, x, savings, policy_next)

        result = self.solver.solve(residual, log_guess, lower=_LOG_SAVINGS_FLOOR)
        savings = np.exp(np.clip(result.x, _LOG_SAVINGS_FLOOR, 30.0))
        values = self.value_functions(z, x, savings, policy_next)
        return np.concatenate([savings, values])

    def _savings_guess(
        self, z: int, x: np.ndarray, guess: np.ndarray | None
    ) -> np.ndarray:
        if guess is not None:
            guess = np.asarray(guess, dtype=float).reshape(-1)
            savings = guess[: self.num_savers]
            if np.all(np.isfinite(savings)) and np.any(savings > 0):
                return np.maximum(savings, 1e-8)
        K, holdings = self.unpack_state(x)
        env = self.environment(z, K)
        resources = env.gross_return * holdings + env.incomes
        rate = 0.4
        return np.maximum(rate * resources[: self.num_savers], 1e-6)

    # ------------------------------------------------------------------ #
    # batched (vectorized over grid points) counterparts
    # ------------------------------------------------------------------ #
    # The scalar methods above solve one grid point per call, which makes
    # every residual evaluation a separate single-point interpolation of
    # next period's policies — the profiled hotspot of a solve.  The batch
    # methods below run the identical formulas over an ``(m, ...)`` axis so
    # one residual evaluation interpolates all ``m`` points per shock state
    # in a single kernel call.  They are used by the batched time-iteration
    # driver (:mod:`repro.core.batched`); the scalar path is untouched and
    # remains the bit-exact reference.

    def unpack_states(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`unpack_state`: ``(m, d) -> ((m,), (m, A))``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        A = self.calibration.num_generations
        K = X[:, 0]
        holdings = np.zeros((X.shape[0], A), dtype=float)
        holdings[:, 1 : A - 1] = X[:, 1:]
        holdings[:, A - 1] = np.maximum(K - X[:, 1:].sum(axis=1), 0.0)
        return K, holdings

    def pack_next_states(self, savings: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`pack_next_state`: ``(m, A-1) -> (m, d)``."""
        savings = np.atleast_2d(np.asarray(savings, dtype=float))
        K_next = savings.sum(axis=1)
        x_next = np.concatenate(
            [K_next[:, None], savings[:, : self.num_savers - 1]], axis=1
        )
        return np.clip(x_next, self.domain.lower, self.domain.upper)

    def environment_batch(self, z: int, K: np.ndarray) -> BatchPeriodEnvironment:
        """Vectorized :meth:`environment` over an array of capital stocks."""
        cal = self.calibration
        shocks = cal.shocks
        zeta = float(shocks.label("productivity")[z])
        delta = float(shocks.label("depreciation")[z])
        tau_l = float(shocks.label("tau_labor")[z])
        tau_c = float(shocks.label("tau_capital")[z])
        K = np.asarray(K, dtype=float)
        L = max(float(cal.labor_supply), self.technology.capital_floor)
        ratio = np.maximum(K, self.technology.capital_floor) / L
        wage = (1.0 - self.technology.theta) * zeta * ratio**self.technology.theta
        r_gross = self.technology.theta * zeta * ratio ** (self.technology.theta - 1.0)
        return_net = r_gross - delta
        labor_revenue = tau_l * wage * cal.labor_supply
        if cal.num_retired > 0:
            pension = labor_revenue / cal.num_retired
        else:
            pension = np.zeros_like(wage)
        capital_revenue = tau_c * return_net * np.maximum(K, 0.0)
        if self.fiscal.rebate_capital_tax and cal.num_generations:
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
        return BatchPeriodEnvironment(gross_return=gross_return, incomes=incomes)

    def consumption_today_batch(
        self,
        env: BatchPeriodEnvironment,
        holdings: np.ndarray,
        savings: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`consumption_today`: ``(m, A)`` consumption."""
        A = self.calibration.num_generations
        resources = env.gross_return[:, None] * holdings + env.incomes
        consumption = np.empty_like(resources)
        consumption[:, : A - 1] = resources[:, : A - 1] - savings
        consumption[:, A - 1] = resources[:, A - 1]
        return consumption

    def _next_period_consumption_batch(
        self,
        z_next: int,
        savings: np.ndarray,
        next_policy_values: np.ndarray,
    ) -> tuple[np.ndarray, BatchPeriodEnvironment]:
        """Vectorized :meth:`_next_period_consumption` over ``m`` points."""
        ns = self.num_savers
        K_next = savings.sum(axis=1)
        env_next = self.environment_batch(z_next, K_next)
        next_savings = np.maximum(next_policy_values[:, :ns], 0.0)
        save_next = np.zeros_like(savings)
        save_next[:, : ns - 1] = next_savings[:, 1:ns]
        consumption = (
            env_next.gross_return[:, None] * savings + env_next.incomes[:, 1:] - save_next
        )
        return consumption, env_next

    def euler_residuals_batch(
        self,
        z: int,
        X: np.ndarray,
        savings: np.ndarray,
        policy_next: PolicySet,
    ) -> np.ndarray:
        """Vectorized :meth:`euler_residuals`: ``(m, A-1)`` residuals."""
        cal = self.calibration
        X = np.atleast_2d(np.asarray(X, dtype=float))
        savings = np.atleast_2d(np.asarray(savings, dtype=float))
        K, holdings = self.unpack_states(X)
        env = self.environment_batch(z, K)
        consumption = self.consumption_today_batch(env, holdings, savings)
        mu_today = self.utility.marginal_utility(consumption[:, : self.num_savers])

        x_next = self.pack_next_states(savings)
        pi_row = cal.shocks.transition[z]
        expected = np.zeros_like(mu_today)
        for z_next in range(self.num_states):
            prob = pi_row[z_next]
            if prob <= 0.0:
                continue
            next_values = np.atleast_2d(
                np.asarray(policy_next.evaluate(z_next, x_next), dtype=float)
            )
            cons_next, env_next = self._next_period_consumption_batch(
                z_next, savings, next_values
            )
            mu_next = self.utility.marginal_utility(cons_next)
            expected += prob * env_next.gross_return[:, None] * mu_next
        return mu_today - cal.beta * expected

    def value_functions_batch(
        self,
        z: int,
        X: np.ndarray,
        savings: np.ndarray,
        policy_next: PolicySet,
    ) -> np.ndarray:
        """Vectorized :meth:`value_functions`: ``(m, A-1)`` Bellman updates."""
        cal = self.calibration
        ns = self.num_savers
        X = np.atleast_2d(np.asarray(X, dtype=float))
        savings = np.atleast_2d(np.asarray(savings, dtype=float))
        K, holdings = self.unpack_states(X)
        env = self.environment_batch(z, K)
        consumption = self.consumption_today_batch(env, holdings, savings)
        utility_today = self.utility.utility(consumption[:, :ns])

        x_next = self.pack_next_states(savings)
        pi_row = cal.shocks.transition[z]
        continuation = np.zeros_like(utility_today)
        for z_next in range(self.num_states):
            prob = pi_row[z_next]
            if prob <= 0.0:
                continue
            next_values = np.atleast_2d(
                np.asarray(policy_next.evaluate(z_next, x_next), dtype=float)
            )
            cons_next, _ = self._next_period_consumption_batch(
                z_next, savings, next_values
            )
            value_next = np.empty_like(utility_today)
            value_next[:, : ns - 1] = next_values[:, ns + 1 : 2 * ns]
            # tomorrow's terminal generation consumes everything
            value_next[:, ns - 1] = self.utility.utility(cons_next[:, ns - 1])
            continuation += prob * value_next
        return utility_today + cal.beta * continuation

    def _savings_guess_batch(
        self, z: int, X: np.ndarray, guesses: np.ndarray | None
    ) -> np.ndarray:
        """Vectorized :meth:`_savings_guess` with per-row validity checks."""
        ns = self.num_savers
        X = np.atleast_2d(np.asarray(X, dtype=float))
        m = X.shape[0]
        out = np.empty((m, ns), dtype=float)
        need_fallback = np.ones(m, dtype=bool)
        if guesses is not None:
            guesses = np.atleast_2d(np.asarray(guesses, dtype=float))
            sav = guesses[:, :ns]
            valid = np.all(np.isfinite(sav), axis=1) & np.any(sav > 0, axis=1)
            out[valid] = np.maximum(sav[valid], 1e-8)
            need_fallback = ~valid
        if need_fallback.any():
            rows = np.flatnonzero(need_fallback)
            K, holdings = self.unpack_states(X[rows])
            env = self.environment_batch(z, K)
            resources = env.gross_return[:, None] * holdings + env.incomes
            out[rows] = np.maximum(0.4 * resources[:, :ns], 1e-6)
        return out

    def solve_points_batch(
        self,
        z: int,
        X: np.ndarray,
        policy_next: PolicySet,
        guesses: np.ndarray | None = None,
    ) -> np.ndarray:
        """Solve the equilibrium system at every row of ``X`` in one batch.

        Same contract as mapping :meth:`solve_point` over rows, but the
        Newton iteration is vectorized across points so each residual
        evaluation interpolates next period's policies at all active points
        in one kernel call per shock state.  Rows the batched Newton cannot
        converge (rare: both paths solve the same bound-constrained system)
        get the scipy polish the scalar solver applies after its own Newton
        stalls, so the result matches the sequential path to solver
        tolerance everywhere.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        m = X.shape[0]
        savings_guess = self._savings_guess_batch(z, X, guesses)
        log_guess = np.log(np.maximum(savings_guess, np.exp(_LOG_SAVINGS_FLOOR)))

        def residual(rows: np.ndarray, log_savings: np.ndarray) -> np.ndarray:
            savings = np.exp(np.clip(log_savings, _LOG_SAVINGS_FLOOR, 30.0))
            return self.euler_residuals_batch(z, X[rows], savings, policy_next)

        batch_solver = BatchNewtonSolver.from_scalar(self.solver)
        result = batch_solver.solve(residual, log_guess, lower=_LOG_SAVINGS_FLOOR)
        savings = np.exp(np.clip(result.x, _LOG_SAVINGS_FLOOR, 30.0))

        # stalled rows: scipy polish from the batch's best iterate, exactly
        # what the scalar solver does after its own Newton stalls
        if self.solver.use_scipy_fallback:
            for row in np.flatnonzero(~result.converged):
                x = X[row]

                def res1(log_savings: np.ndarray) -> np.ndarray:
                    sav = np.exp(np.clip(log_savings, _LOG_SAVINGS_FLOOR, 30.0))
                    return self.euler_residuals(z, x, sav, policy_next)

                polished = self.solver._scipy_solve(
                    res1,
                    result.x[row],
                    0,
                    0,
                    float(result.residual_norm[row]),
                    lower=_LOG_SAVINGS_FLOOR,
                )
                savings[row] = np.exp(np.clip(polished.x, _LOG_SAVINGS_FLOOR, 30.0))
        values = self.value_functions_batch(z, X, savings, policy_next)
        out = np.empty((m, self.num_policies), dtype=float)
        out[:, : self.num_savers] = savings
        out[:, self.num_savers :] = values
        return out

    @classmethod
    def stacked_group(cls, models: list["OLGModel"], counts: list[int]):
        """Cross-scenario stacked point solver for topology-sharing models.

        Returns a :class:`repro.olg.stacked.StackedOLGGroup`; raises
        :class:`repro.olg.stacked.StructuralMismatch` (a ``ValueError``)
        when the models differ structurally, in which case callers fall
        back to per-scenario solves.
        """
        from repro.olg.stacked import StackedOLGGroup

        return StackedOLGGroup(models, counts)

    def initial_policy_values(self, z: int, X: np.ndarray) -> np.ndarray:
        """Initial guess anchored on the deterministic steady-state lifecycle.

        Savings are a convex blend of the steady-state savings profile and a
        fixed rate out of current resources (so the guess still responds to
        the state); values come from consuming the implied amounts forever.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty((X.shape[0], self.num_policies), dtype=float)
        beta = self.calibration.beta
        steady_savings = np.maximum(
            self.steady_state.profile.savings[: self.num_savers], 1e-6
        )
        for row, x in enumerate(X):
            K, holdings = self.unpack_state(x)
            env = self.environment(z, K)
            resources = env.gross_return * holdings + env.incomes
            rate_savings = np.maximum(0.4 * resources[: self.num_savers], 1e-6)
            savings = 0.5 * steady_savings + 0.5 * rate_savings
            headroom = np.maximum(resources[: self.num_savers] - self.utility.c_min, 1e-6)
            savings = np.minimum(savings, headroom)
            savings = np.maximum(savings, 1e-6)
            consumption = np.maximum(
                resources[: self.num_savers] - savings, self.utility.c_min
            )
            values = self.utility.utility(consumption) / (1.0 - beta)
            out[row] = np.concatenate([savings, values])
        return out

    # ------------------------------------------------------------------ #
    # accuracy diagnostics
    # ------------------------------------------------------------------ #
    def equilibrium_errors(
        self, policy: PolicySet, sample: np.ndarray, rng=None
    ) -> dict:
        """Unit-free Euler-equation errors of a candidate policy.

        For every sample state and discrete shock, the policy's savings are
        plugged into the Euler equations with the *same* policy serving as
        next period's policy; the error of age ``a`` is

            ``| (beta E[R' u'(c'_{a+1})])^(-1/gamma) / c_a - 1 |``

        the standard consumption-equivalent accuracy measure.  Returns the
        ``linf`` and ``l2`` aggregates plus the mean ``log10`` error, which
        is what Fig. 9 tracks as the solution error.
        """
        sample = np.atleast_2d(np.asarray(sample, dtype=float))
        cal = self.calibration
        errors: list[np.ndarray] = []
        for z in range(self.num_states):
            values = np.atleast_2d(policy.evaluate(z, sample))
            for row, x in enumerate(sample):
                savings = np.maximum(values[row, : self.num_savers], 1e-10)
                K, holdings = self.unpack_state(x)
                env = self.environment(z, K)
                consumption = self.consumption_today(env, holdings, savings)
                cons_today = np.maximum(
                    consumption[: self.num_savers], self.utility.c_min
                )
                residual = self.euler_residuals(z, x, savings, policy_next=policy)
                # beta * E[R' u'(c')] = u'(c) - residual
                rhs = np.maximum(
                    self.utility.marginal_utility(cons_today) - residual, 1e-12
                )
                implied = rhs ** (-1.0 / cal.gamma)
                errors.append(np.abs(implied / cons_today - 1.0))
        stacked = np.concatenate(errors) if errors else np.array([np.nan])
        return {
            "linf": float(np.max(stacked)),
            "l2": float(np.sqrt(np.mean(stacked**2))),
            "mean_log10": float(np.mean(np.log10(np.maximum(stacked, 1e-16)))),
            "num_evaluations": int(stacked.size),
        }

    def sample_states(self, n: int, rng=None) -> np.ndarray:
        """Random continuous states used for accuracy evaluation."""
        return self.domain.sample(n, default_rng(rng))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cal = self.calibration
        return (
            f"OLGModel(A={cal.num_generations}, Ns={cal.num_states}, "
            f"d={self.state_dim}, policies={self.num_policies})"
        )
