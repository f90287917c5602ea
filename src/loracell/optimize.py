"""Configuration search over SF distributions and retransmission limits.

Maximizes a weighted combination of the cell metrics over the two
simplex-constrained SF distributions, grid-searching the retransmission
limits (m, h).  The inner search is deterministic projected-gradient
ascent with a backtracking line search, started from the uniform
distribution; optional deterministic perturbed restarts can be enabled for
rugged objectives.

The gradient differentiates through the fixed point instead of re-solving
it (implicit differentiation, as in Bai, Kolter & Koltun, "Deep Equilibrium
Models", 2019).  With z = (s_ul, s_dl) the fixed point of the sweep G at the
SF shares x and Phi the objective of a sweep's state, the derivative of the
objective along a direction d is

    f'(d) = dPhi/dx d + dPhi/dz (I - dG/dz)^-1 dG/dx d.

Gradient component i is [f'(d_i+) - f'(d_i-)] / 2h along the probe
directions d_i+- = P(x +- h e_i) - x of a central difference (P projects
onto the simplices, h is ``_FD_STEP``), so at interior points it equals the
central difference of the objective to O(h^2).  The partial derivatives
are forward differences of one batched sweep (``analytic._sweep``) of 37
rows at z: the base row, one row per unknown of z and one per probe
direction; one 12 x 12 linear solve then combines them.  The line search
solves one candidate at a time with ``analytic.solve``, warm-started from
the current fixed point.  Every fixed-point solve and every derivative
sweep counts as one objective evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Mapping

import numpy as np

from . import analytic, metrics
from .scenario import N_SF, ScenarioConfig, SfDistribution, ValidationError, _set_number
from .simulate import _fan_out

#: Named objectives: weights applied to MetricsReport fields.
OBJECTIVES: dict[str, dict[str, float]] = {
    # Throughput-oriented: unconfirmed delivery plus acknowledged delivery.
    "uu_plus_cd": {"uu": 1.0, "cd": 1.0},
    # Uplink-oriented: average of unconfirmed and confirmed uplink delivery.
    "mean_uu_cu": {"uu": 0.5, "cu": 0.5},
}

#: Why an ascent stopped: the step cap, a step that moved the iterate less than
#: ``_STEP_TOL`` (sup norm), a step that gained less than ``_IMPROVEMENT_TOL``, no
#: line-search step that improved the objective, or a gradient that is zero or
#: not finite (the solve or the derivative sweep broke).
STOP_REASONS = ("step_cap", "small_step", "small_gain", "no_ascent", "flat_gradient")
_STEP_TOL = 1e-5
_IMPROVEMENT_TOL = 1e-6


@dataclass(frozen=True)
class OptimizationProblem:
    """A metric maximization over (p_unconfirmed, p_confirmed, m, h)."""

    base_cfg: ScenarioConfig
    lambdas: tuple[float, ...]
    m_grid: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    h_grid: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    objective: str | Mapping[str, float] = "uu_plus_cd"
    max_ascent_iters: int = 60
    perturbed_restarts: bool = False # also ascend from 3 deterministic perturbations

    def __post_init__(self):
        grids = {"lambda_total": self.lambdas, "m": self.m_grid, "h": self.h_grid}
        if not all(map(len, grids.values())):
            raise ValidationError("lambdas, m_grid and h_grid must be non-empty")
        # The scenario's own checks on each grid value, before any grid point runs.
        for name, values in grids.items():
            for value in values:
                replace(self.base_cfg, **{name: value})
        _set_number(self, "max_ascent_iters", int, minimum=0)
        weights = self.objective_weights()
        if any(not np.isfinite(w) for w in weights.values()):
            raise ValidationError("objective weights must be finite")

    def objective_weights(self) -> dict[str, float]:
        if isinstance(self.objective, str):
            try:
                weights = dict(OBJECTIVES[self.objective])
            except KeyError:
                raise ValidationError(
                    f"unknown objective {self.objective!r}; known: {sorted(OBJECTIVES)}"
                ) from None
        else:
            weights = {str(k): float(v) for k, v in self.objective.items()}
        # Any of metrics.METRICS may carry weight (negative to minimize).
        unknown = set(weights) - set(metrics.METRICS)
        if unknown:
            raise ValidationError(f"unknown objective metrics {sorted(unknown)}; "
                                  f"available: {sorted(metrics.METRICS)}")
        return weights


@dataclass(frozen=True)
class GridRecord:
    """Outcome of the inner search at one (lambda, m, h) grid point."""

    lam: float
    m: int
    h: int
    p_unconfirmed: tuple[float, ...]
    p_confirmed: tuple[float, ...]
    value: float
    iterations: int          # accepted ascent steps of the winning start
    evaluations: int         # fixed-point solves plus derivative sweeps, all starts
    start: str               # label of the winning starting point
    solver_converged: bool   # False if any inner solve failed to converge
    stop: str                # why the winning ascent stopped, one of STOP_REASONS


@dataclass(frozen=True)
class OptimizationResult:
    best_cfg: ScenarioConfig
    best_value: float
    records: tuple[GridRecord, ...]

    def best_for(self, lam: float) -> GridRecord:
        """Best record for one traffic load (ties broken on lexicographic (m, h))."""
        candidates = [r for r in self.records if r.lam == lam]
        if not candidates:
            raise KeyError(f"no records for lambda {lam!r}")
        return max(candidates, key=lambda r: (r.value, (-r.m, -r.h)))


def project_to_simplex(v) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex.

    Sort-based: find the largest support whose shifted entries stay
    positive, then shift and clip.  A 2-D array projects each row.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] == 0:
        raise ValueError("expected a non-empty 1-D vector or a 2-D stack of them")
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot project a non-finite vector")
    n = v.shape[-1]
    u = np.sort(v, axis=-1)[..., ::-1]
    shifted = np.cumsum(u, axis=-1) - 1.0
    positive = u - shifted / np.arange(1, n + 1) > 0
    rho = n - np.argmax(positive[..., ::-1], axis=-1)[..., None]   # last positive, 1-based
    theta = np.take_along_axis(shifted, rho - 1, axis=-1) / rho
    return np.maximum(v - theta, 0.0)


def _project_pair(x: np.ndarray) -> np.ndarray:
    """Project the stacked (p_unconfirmed, p_confirmed) vector block-wise; rows of 2-D."""
    return np.concatenate([project_to_simplex(x[..., :N_SF]),
                           project_to_simplex(x[..., N_SF:])], axis=-1)


def _starting_points(perturbed: bool) -> list[tuple[str, np.ndarray]]:
    uniform = np.full(2 * N_SF, 1.0 / N_SF)
    starts = [("uniform", uniform)]
    if perturbed:
        # Deterministic tilts of the uniform point: extra mass on the fastest
        # SF, on the slowest SF, and an airtime-equalizing shape.
        low = np.zeros(N_SF)
        low[0] = 1.0
        high = np.zeros(N_SF)
        high[-1] = 1.0
        explora = np.asarray(SfDistribution.explora().p)
        u6 = np.full(N_SF, 1.0 / N_SF)
        for label, tilt in (("tilt-sf7", low), ("tilt-sf12", high), ("tilt-explora", explora)):
            p6 = project_to_simplex(u6 + 0.3 * (tilt - u6))
            starts.append((label, np.concatenate([p6, p6])))
    return starts


#: Half-width h of the probe directions P(x +- h e_i) - x.
_FD_STEP = 1e-4
#: Forward-difference step of the derivative sweep: the step in each unknown
#: of the fixed point, and (times 1/h) the step along each probe direction.
_DIFF_STEP = 1e-7


class _Evaluator:
    """Objective evaluation for one grid point; tracks eval count and solver health."""

    def __init__(self, cfg: ScenarioConfig, weights: Mapping[str, float]):
        self.cfg = cfg
        self.weights = weights
        self.evaluations = 0
        self.all_converged = True
        self.error: analytic.ModelError | None = None   # the last solve that broke
        # The delivery ratios alone, with a row axis; the full report adds
        # delays, fairness and losses at several times the cost.
        self.reliability_only = weights.keys() <= {"uu", "cu", "cd"}

    def _config(self, x: np.ndarray) -> ScenarioConfig:
        return replace(self.cfg, p_unconfirmed=SfDistribution(tuple(x[:N_SF])),
                       p_confirmed=SfDistribution(tuple(x[N_SF:])))

    def __call__(self, x: np.ndarray, start: analytic.SteadyState | None = None
                 ) -> tuple[float, analytic.SteadyState | None]:
        """Objective at ``x`` and its fixed point, None if the solve broke.

        ``start`` is a fixed point to iterate from instead of all-ones.
        """
        self.evaluations += 1
        cfg = self._config(x)
        if start is not None:
            # The two window terms of s_dl may round to a sum an ulp above 1.
            start = (start.s_ul, np.minimum(start.s_dl, 1.0))
        try:
            state = analytic.solve(cfg, start=start)
        except analytic.ModelError as error:
            self.all_converged = False
            self.error = error
            return -np.inf, None
        if not state.converged:
            self.all_converged = False
        return self._objective(state, cfg), state

    def sweep(self, xs: np.ndarray, zs: np.ndarray) -> np.ndarray | None:
        """Fixed-point unknowns and objective after one sweep of each row.

        Row i sweeps from the unknowns ``zs[i]`` = (s_ul, s_dl) with the SF
        shares ``xs[i]``.  Returns the ``(K, 13)`` stack of the new unknowns
        and the objective, or None if a row broke.
        """
        self.evaluations += 1
        # The grid point's scenario with one pair of SF distributions per row,
        # in the batched form that the model functions accept.
        batch = SimpleNamespace(**{**vars(self.cfg),
                                   "p_unconfirmed": SimpleNamespace(p=xs[:, :N_SF]),
                                   "p_confirmed": SimpleNamespace(p=xs[:, N_SF:])})
        state, failures = analytic._sweep(batch, analytic.app_rates(batch),
                                          zs[:, :N_SF], zs[:, N_SF:])
        if failures:
            return None
        return np.column_stack([state.s_ul, state.s_dl, self._objective(state, batch)])

    def _objective(self, state: analytic.SteadyState, cfg: ScenarioConfig):
        """Weighted objective of a state; one per row of a batched state and config."""
        if self.reliability_only:
            return self._weigh(dict(zip(("uu", "cu", "cd"), metrics.reliability(state, cfg))))
        reports = metrics.compute_report(state, cfg)
        if isinstance(reports, metrics.MetricsReport):
            return self._weigh(vars(reports))
        return [self._weigh(vars(report)) for report in reports]

    def _weigh(self, report: Mapping):
        """Weighted sum of the objective metrics in ``report``."""
        value = 0.0
        for name, weight in self.weights.items():
            metric = report[name]
            if metric is None:
                raise ValueError(f"objective metric {name!r} is undefined for this scenario")
            value += weight * metric
        return value


def _gradient(evaluate: _Evaluator, x: np.ndarray, state: analytic.SteadyState) -> np.ndarray:
    """Gradient at ``x`` through its fixed point ``state`` (see the module docstring).

    NaN when the derivative sweep breaks.
    """
    h = _FD_STEP
    # Rows 2i and 2i+1 probe x + h e_i and x - h e_i; projecting them keeps
    # the directions along the simplex tangent.
    dirs = _project_pair(x + h * np.kron(np.eye(2 * N_SF), [[1.0], [-1.0]])) - x
    eps = _DIFF_STEP
    z = np.concatenate([state.s_ul, state.s_dl])
    n = z.size
    dz = np.where(z > 0.5, -eps, eps)   # step into [0, 1]
    t = eps / h                         # x + t d is on the simplices for t <= 1
    zs = np.tile(z, (1 + n + len(dirs), 1))
    zs[1:1 + n] += np.diag(dz)
    xs = np.tile(x, (len(zs), 1))
    xs[1 + n:] += t * dirs
    rows = evaluate.sweep(xs, zs)
    if rows is None:
        return np.full(len(x), np.nan)
    diffs = rows[1:] - rows[0]
    by_z = diffs[:n] / dz[:, None]      # row j: d(G, Phi)/dz_j
    by_dir = diffs[n:] / t              # row k: d(G, Phi)/dx along dirs[k]
    # Adjoint form: one solve of (I - dG/dz)^T w = dPhi/dz.
    w = np.linalg.solve(np.eye(n) - by_z[:, :n], by_z[:, n])
    total = by_dir[:, n] + by_dir[:, :n] @ w
    return (total[0::2] - total[1::2]) / (2.0 * h)


def _ascend(evaluate: _Evaluator, x0: np.ndarray,
            problem: OptimizationProblem) -> tuple[np.ndarray, float, int, str]:
    """Projected-gradient ascent on the product of two simplices.

    Returns the final point, its value, the accepted steps and the stop
    reason (see ``STOP_REASONS``).
    """
    x = _project_pair(x0)
    fx, state = evaluate(x)
    alpha = 1.0
    steps = 0
    for _ in range(problem.max_ascent_iters):
        if state is None:
            return x, fx, steps, "flat_gradient"
        grad = _gradient(evaluate, x, state)
        if not np.all(np.isfinite(grad)) or not np.any(grad != 0.0):
            return x, fx, steps, "flat_gradient"
        alpha = min(4.0 * alpha, 1.0)
        for _ in range(30):
            x_new = _project_pair(x + alpha * grad)
            f_new, state_new = evaluate(x_new, start=state)
            if f_new > fx + 1e-12:
                break
            alpha *= 0.5
        else:
            return x, fx, steps, "no_ascent"
        moved = float(np.max(np.abs(x_new - x)))
        gained = f_new - fx
        x, fx, state = x_new, f_new, state_new
        steps += 1
        if moved < _STEP_TOL:
            return x, fx, steps, "small_step"
        if gained < _IMPROVEMENT_TOL:
            return x, fx, steps, "small_gain"
    return x, fx, steps, "step_cap"


def _solve_grid_point(args) -> GridRecord:
    problem, lam, m, h = args
    cfg = replace(problem.base_cfg, lambda_total=lam, m=m, h=h)
    weights = problem.objective_weights()
    evaluator = _Evaluator(cfg, weights)
    runs = [(_ascend(evaluator, x0, problem), label)
            for label, x0 in _starting_points(problem.perturbed_restarts)]
    # max keeps the first of equal values: the earliest start wins a tie.
    (x, value, steps, stop), label = max(runs, key=lambda run: run[0][1])
    if value == -np.inf:   # the first solve of every start broke
        raise evaluator.error
    return GridRecord(
        lam=lam, m=m, h=h,
        p_unconfirmed=tuple(float(v) for v in x[:N_SF]),
        p_confirmed=tuple(float(v) for v in x[N_SF:]),
        value=float(value),
        iterations=steps,
        evaluations=evaluator.evaluations,
        start=label,
        solver_converged=evaluator.all_converged,
        stop=stop,
    )


def optimize(problem: OptimizationProblem, workers: int | None = 1) -> OptimizationResult:
    """Search the (m, h) grid, ascending the SF distributions at every point.

    Grid points are independent; ``workers`` splits them over processes as
    ``simulate._fan_out`` describes.  The result is the same for any count:
    records keep the grid order and the best record is the maximum value
    with ties broken on lexicographically smaller (m, h).
    """
    points = [(problem, lam, m, h)
              for lam in problem.lambdas
              for m in problem.m_grid
              for h in problem.h_grid]
    records = _fan_out(_solve_grid_point, points, workers)

    best = max(records, key=lambda r: (r.value, (-r.m, -r.h), -r.lam))
    best_cfg = replace(
        problem.base_cfg,
        lambda_total=best.lam, m=best.m, h=best.h,
        p_unconfirmed=SfDistribution(best.p_unconfirmed),
        p_confirmed=SfDistribution(best.p_confirmed),
    )
    return OptimizationResult(best_cfg=best_cfg, best_value=best.value,
                              records=tuple(records))


def evaluate_configuration(cfg: ScenarioConfig,
                           lambda_values) -> tuple[metrics.MetricsReport, ...]:
    """Solve one configuration across traffic loads; one report per load."""
    cfgs = [replace(cfg, lambda_total=float(lam)) for lam in lambda_values]
    states = analytic.solve_many(cfgs)
    for state in states:
        if isinstance(state, analytic.ModelError):
            raise state
    return tuple(metrics.report_many(states, cfgs))
