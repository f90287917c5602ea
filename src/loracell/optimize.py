"""Configuration search over SF distributions and retransmission limits.

Maximizes a weighted combination of the cell metrics over the two
simplex-constrained SF distributions, grid-searching the retransmission
limits (m, h).  The inner search is deterministic projected-gradient
ascent with central-difference gradients and a backtracking line search,
started from the uniform distribution; optional deterministic perturbed
restarts can be enabled for rugged objectives.

The 24 probes of one gradient are solved together as one batched fixed
point (``analytic.solve_many``); each probe still counts as one objective
evaluation, and its value equals a separate solve's.  The line search stays
sequential, one ``analytic.solve`` per candidate step.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from . import analytic, metrics
from .scenario import N_SF, ScenarioConfig, SfDistribution

#: Named objectives: weights applied to MetricsReport fields.
OBJECTIVES: dict[str, dict[str, float]] = {
    # Throughput-oriented: unconfirmed delivery plus acknowledged delivery.
    "uu_plus_cd": {"uu": 1.0, "cd": 1.0},
    # Uplink-oriented: average of unconfirmed and confirmed uplink delivery.
    "mean_uu_cu": {"uu": 0.5, "cu": 0.5},
}

#: Why an ascent stopped: the step cap, a step that moved the iterate less than
#: ``step_tolerance``, a step that gained less than ``improvement_tol``, no
#: line-search step that improved the objective, or a gradient that is zero or
#: not finite (a probe failed).
STOP_REASONS = ("step_cap", "small_step", "small_gain", "no_ascent", "flat_gradient")


@dataclass(frozen=True)
class OptimizationProblem:
    """A metric maximization over (p_unconfirmed, p_confirmed, m, h)."""

    base_cfg: ScenarioConfig
    lambdas: tuple[float, ...]
    m_grid: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    h_grid: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    objective: str | Mapping[str, float] = "uu_plus_cd"
    simplex_tolerance: float = 1e-9
    fd_step: float = 1e-4            # central-difference step along simplex tangents
    max_ascent_iters: int = 60
    improvement_tol: float = 1e-6    # stop when an accepted step gains less than this
    step_tolerance: float = 1e-5     # stop when the iterate moves less than this
    perturbed_restarts: bool = False # also ascend from 3 deterministic perturbations
    solver_tol: float = 1e-10
    solver_max_iter: int = 1000

    def __post_init__(self):
        if len(self.lambdas) == 0 or any(lam < 0 for lam in self.lambdas):
            raise ValueError("lambdas must be a non-empty sequence of non-negative rates")
        if len(self.m_grid) == 0 or len(self.h_grid) == 0:
            raise ValueError("m_grid and h_grid must be non-empty")
        if any(m < 1 for m in self.m_grid) or any(h < 1 for h in self.h_grid):
            raise ValueError("grid entries must be >= 1")
        if self.max_ascent_iters < 0:
            raise ValueError(f"max_ascent_iters must be >= 0, got {self.max_ascent_iters}")
        weights = self.objective_weights()
        if any(not np.isfinite(w) for w in weights.values()):
            raise ValueError("objective weights must be finite")

    def objective_weights(self) -> dict[str, float]:
        if isinstance(self.objective, str):
            try:
                weights = dict(OBJECTIVES[self.objective])
            except KeyError:
                raise ValueError(
                    f"unknown objective {self.objective!r}; known: {sorted(OBJECTIVES)}"
                ) from None
        else:
            weights = {str(k): float(v) for k, v in self.objective.items()}
        # Any of metrics.METRICS may carry weight (negative to minimize).
        unknown = set(weights) - set(metrics.METRICS)
        if unknown:
            raise ValueError(f"unknown objective metrics {sorted(unknown)}; "
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
    evaluations: int         # objective evaluations across all starts
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
    positive, then shift and clip.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a non-empty 1-D vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot project a non-finite vector")
    u = np.sort(v)[::-1]
    shifted = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = idx[u - shifted / idx > 0][-1]
    theta = shifted[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def _project_pair(x: np.ndarray) -> np.ndarray:
    """Project the stacked (p_unconfirmed, p_confirmed) vector block-wise."""
    return np.concatenate([project_to_simplex(x[:N_SF]), project_to_simplex(x[N_SF:])])


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


class _Evaluator:
    """Objective evaluation for one grid point; tracks eval count and solver health."""

    def __init__(self, cfg: ScenarioConfig, weights: Mapping[str, float],
                 tol: float, max_iter: int):
        self.cfg = cfg
        self.weights = weights
        self.tol = tol
        self.max_iter = max_iter
        self.evaluations = 0
        self.all_converged = True

    def _config(self, x: np.ndarray) -> ScenarioConfig:
        return replace(self.cfg, p_unconfirmed=SfDistribution(tuple(x[:N_SF])),
                       p_confirmed=SfDistribution(tuple(x[N_SF:])))

    def __call__(self, x: np.ndarray) -> float:
        self.evaluations += 1
        cfg = self._config(x)
        try:
            state = analytic.solve(cfg, tol=self.tol, max_iter=self.max_iter)
        except analytic.ModelError as exc:
            state = exc
        return self._value(state, cfg)

    def many(self, xs: np.ndarray) -> np.ndarray:
        """Objective at each row of ``xs``, solved as one batch; one evaluation per row."""
        self.evaluations += len(xs)
        cfgs = [self._config(x) for x in xs]
        states = analytic.solve_many(cfgs, tol=self.tol, max_iter=self.max_iter)
        return np.array([self._value(state, cfg) for state, cfg in zip(states, cfgs)])

    def _value(self, state: analytic.SteadyState | analytic.ModelError,
               cfg: ScenarioConfig) -> float:
        if isinstance(state, analytic.ModelError):
            self.all_converged = False
            return -np.inf
        if not state.converged:
            self.all_converged = False
        if self.weights.keys() <= {"uu", "cu", "cd"}:
            # The delivery ratios alone; the full report adds delays, fairness
            # and losses at several times the cost.
            report = dict(zip(("uu", "cu", "cd"), metrics.reliability(state, cfg)))
        else:
            report = vars(metrics.compute_report(state, cfg))
        value = 0.0
        for name, weight in self.weights.items():
            metric = report[name]
            if metric is None:
                raise ValueError(f"objective metric {name!r} is undefined for this scenario")
            value += weight * metric
        return value


def _gradient(evaluate: _Evaluator, x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient; its 2 x 12 probes are solved as one batch."""
    basis = np.eye(2 * N_SF)
    # Projecting the probe keeps the difference along the simplex tangent.
    probes = np.array([_project_pair(x + sign * h * basis[i])
                       for i in range(2 * N_SF) for sign in (1.0, -1.0)])
    values = evaluate.many(probes)
    return (values[0::2] - values[1::2]) / (2.0 * h)


def _ascend(evaluate: _Evaluator, x0: np.ndarray,
            problem: OptimizationProblem) -> tuple[np.ndarray, float, int, str]:
    """Projected-gradient ascent on the product of two simplices.

    Returns the final point, its value, the accepted steps and the stop
    reason (see ``STOP_REASONS``).
    """
    x = _project_pair(x0)
    fx = evaluate(x)
    alpha = 1.0
    steps = 0
    for _ in range(problem.max_ascent_iters):
        grad = _gradient(evaluate, x, problem.fd_step)
        if not np.all(np.isfinite(grad)) or not np.any(grad != 0.0):
            return x, fx, steps, "flat_gradient"
        alpha = min(4.0 * alpha, 1.0)
        for _ in range(30):
            x_new = _project_pair(x + alpha * grad)
            f_new = evaluate(x_new)
            if f_new > fx + 1e-12:
                break
            alpha *= 0.5
        else:
            return x, fx, steps, "no_ascent"
        moved = float(np.max(np.abs(x_new - x)))
        gained = f_new - fx
        x, fx = x_new, f_new
        steps += 1
        if moved < problem.step_tolerance:
            return x, fx, steps, "small_step"
        if gained < problem.improvement_tol:
            return x, fx, steps, "small_gain"
    return x, fx, steps, "step_cap"


def _solve_grid_point(args) -> GridRecord:
    problem, lam, m, h = args
    cfg = replace(problem.base_cfg, lambda_total=lam, m=m, h=h)
    weights = problem.objective_weights()
    evaluator = _Evaluator(cfg, weights, problem.solver_tol, problem.solver_max_iter)
    best_x = None
    best_value = -np.inf
    best_steps = 0
    best_label = best_stop = ""
    for label, x0 in _starting_points(problem.perturbed_restarts):
        x, value, steps, stop = _ascend(evaluator, x0, problem)
        if value > best_value:
            best_x, best_value, best_steps, best_label, best_stop = x, value, steps, label, stop
    return GridRecord(
        lam=lam, m=m, h=h,
        p_unconfirmed=tuple(float(v) for v in best_x[:N_SF]),
        p_confirmed=tuple(float(v) for v in best_x[N_SF:]),
        value=float(best_value),
        iterations=best_steps,
        evaluations=evaluator.evaluations,
        start=best_label,
        solver_converged=evaluator.all_converged,
        stop=best_stop,
    )


def optimize(problem: OptimizationProblem, workers: int = 1) -> OptimizationResult:
    """Search the (m, h) grid, ascending the SF distributions at every point.

    Grid points are independent; with ``workers`` > 1 they are evaluated
    in a process pool.  The result is deterministic either way: records
    keep the grid order and the best record is the maximum value with
    ties broken on lexicographically smaller (m, h).
    """
    points = [(problem, lam, m, h)
              for lam in problem.lambdas
              for m in problem.m_grid
              for h in problem.h_grid]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_solve_grid_point, points))
    else:
        records = [_solve_grid_point(p) for p in points]

    best = max(records, key=lambda r: (r.value, (-r.m, -r.h), -r.lam))
    best_cfg = replace(
        problem.base_cfg,
        lambda_total=best.lam, m=best.m, h=best.h,
        p_unconfirmed=SfDistribution(best.p_unconfirmed),
        p_confirmed=SfDistribution(best.p_confirmed),
    )
    return OptimizationResult(best_cfg=best_cfg, best_value=best.value,
                              records=tuple(records))


def evaluate_configuration(cfg: ScenarioConfig, lambda_values,
                           tol: float = 1e-10,
                           max_iter: int = 1000) -> tuple[metrics.MetricsReport, ...]:
    """Solve one configuration across traffic loads; one report per load."""
    cfgs = [replace(cfg, lambda_total=float(lam)) for lam in lambda_values]
    states = analytic.solve_many(cfgs, tol=tol, max_iter=max_iter)
    reports = []
    for state, cfg_lam in zip(states, cfgs):
        if isinstance(state, analytic.ModelError):
            raise state
        reports.append(metrics.compute_report(state, cfg_lam))
    return tuple(reports)
