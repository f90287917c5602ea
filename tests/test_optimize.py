"""Simplex projection oracles and configuration-search behavior."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize as sciopt

from conftest import make_golden
from loracell import analytic, metrics
from loracell.optimize import (
    OBJECTIVES,
    STOP_REASONS,
    OptimizationProblem,
    _Evaluator,
    _FD_STEP,
    _gradient,
    _project_pair,
    optimize,
    project_to_simplex,
)
from loracell.scenario import N_SF, ScenarioConfig, SfDistribution, ValidationError, preset


def qp_projection(v):
    """Quadratic-program oracle: argmin ||x - v||^2 on the simplex."""
    v = np.asarray(v, float)
    n = v.size
    res = sciopt.minimize(
        lambda x: 0.5 * np.sum((x - v) ** 2),
        np.full(n, 1.0 / n),
        jac=lambda x: x - v,
        method="SLSQP",
        bounds=[(0.0, None)] * n,
        constraints=[{"type": "eq", "fun": lambda x: np.sum(x) - 1.0}],
        options={"maxiter": 200, "ftol": 1e-14},
    )
    assert res.success
    return res.x


class TestProjection:
    def test_point_on_simplex_unchanged(self):
        v = np.array([0.2, 0.1, 0.3, 0.05, 0.15, 0.2])
        assert project_to_simplex(v) == pytest.approx(v, abs=1e-15)

    def test_single_spike(self):
        v = np.array([2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert project_to_simplex(v) == pytest.approx([1, 0, 0, 0, 0, 0], abs=1e-15)

    def test_three_way_split(self):
        v = np.array([0.5, 0.5, 0.5, 0.0, 0.0, 0.0])
        want = np.array([1 / 3, 1 / 3, 1 / 3, 0.0, 0.0, 0.0])
        assert project_to_simplex(v) == pytest.approx(want, abs=1e-15)

    def test_matches_quadratic_program_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            v = rng.normal(0.0, 2.0, 6)
            got = project_to_simplex(v)
            want = qp_projection(v)
            assert got == pytest.approx(want, abs=1e-6)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = project_to_simplex(rng.normal(0, 3, 6))
            assert project_to_simplex(p) == pytest.approx(p, abs=1e-12)

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=10))
    @settings(max_examples=120)
    def test_output_always_on_simplex(self, values):
        p = project_to_simplex(np.array(values))
        assert np.all(p >= 0.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            project_to_simplex(np.array([np.nan, 0.0, 0.0]))

    def test_rows_equal_their_own_projection(self):
        rng = np.random.default_rng(2)
        rows = np.vstack([rng.normal(0.0, 2.0, (40, 6)), np.full((1, 6), 1.0 / 6.0),
                          [[0.5, 0.5, 0.5, 0.0, 0.0, 0.0]], np.eye(6)])
        projected = project_to_simplex(rows)
        for row, got in zip(rows, projected):
            assert np.array_equal(got, project_to_simplex(row))
        pairs = np.hstack([rows, rows[::-1]])
        assert np.array_equal(_project_pair(pairs), np.array([_project_pair(p) for p in pairs]))


def test_package_attribute_names_the_module():
    import loracell.optimize as module

    assert callable(module.optimize)


def tiny_problem(**kw):
    defaults = dict(
        base_cfg=ScenarioConfig(alpha=0.3),
        lambdas=(0.5,),
        m_grid=(1, 8),
        h_grid=(1, 8),
        max_ascent_iters=8,
    )
    defaults.update(kw)
    return OptimizationProblem(**defaults)


class TestOptimize:
    def test_records_cover_the_grid(self):
        result = optimize(tiny_problem())
        assert len(result.records) == 4
        assert {(r.m, r.h) for r in result.records} == {(1, 1), (1, 8), (8, 1), (8, 8)}

    def test_returned_distributions_are_simplex_points(self):
        result = optimize(tiny_problem())
        for record in result.records:
            for p in (record.p_unconfirmed, record.p_confirmed):
                assert all(v >= 0.0 for v in p)
                assert sum(p) == pytest.approx(1.0, abs=1e-9)

    def test_ascent_never_loses_to_uniform_start(self):
        problem = tiny_problem(lambdas=(1.0,), m_grid=(8,), h_grid=(8,))
        result = optimize(problem)
        record = result.records[0]
        uniform_cfg = ScenarioConfig(
            lambda_total=1.0, alpha=0.3, m=8, h=8,
            p_unconfirmed=preset("equal"), p_confirmed=preset("equal"))
        state = analytic.solve(uniform_cfg)
        report = metrics.compute_report(state, uniform_cfg)
        assert record.value >= report.uu + report.cd - 1e-12

    def test_best_value_is_max_over_records(self):
        result = optimize(tiny_problem())
        assert result.best_value == pytest.approx(max(r.value for r in result.records))

    def test_deterministic(self):
        a = optimize(tiny_problem())
        b = optimize(tiny_problem())
        assert a == b
        # Split over processes, the same grid points give the same records.
        for workers in (None, 2, 3, 16):
            assert optimize(tiny_problem(), workers=workers) == a

    def test_degenerate_unconfirmed_cell(self):
        # With no confirmed traffic and vanishing load the unconfirmed part of
        # the objective is already at its ceiling; any simplex point is optimal.
        problem = tiny_problem(base_cfg=ScenarioConfig(alpha=0.0),
                               lambdas=(1e-6,), m_grid=(1,), h_grid=(1,),
                               max_ascent_iters=3)
        result = optimize(problem)
        record = result.records[0]
        cfg = result.best_cfg
        state = analytic.solve(cfg)
        report = metrics.compute_report(state, cfg)
        assert report.uu == pytest.approx(1.0, abs=1e-4)
        assert sum(record.p_unconfirmed) == pytest.approx(1.0, abs=1e-9)

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="unknown objective"):
            tiny_problem(objective="maximize_vibes")

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            tiny_problem(m_grid=())

    def test_weighted_objective_mapping_accepted(self):
        problem = tiny_problem(objective={"uu": 0.5, "cu": 0.5},
                               m_grid=(1,), h_grid=(1,), max_ascent_iters=2)
        result = optimize(problem)
        assert np.isfinite(result.best_value)
        for name in metrics.METRICS:
            assert tiny_problem(objective={name: 1.0}).objective_weights() == {name: 1.0}

    def test_best_for_lambda_tie_breaks_lexicographically(self):
        result = optimize(tiny_problem(lambdas=(1e-9,), max_ascent_iters=1))
        best = result.best_for(1e-9)
        assert (best.m, best.h) in {(1, 1), (1, 8), (8, 1), (8, 8)}
        with pytest.raises(KeyError):
            result.best_for(123.0)


    def test_stop_reason_recorded(self):
        capped = optimize(tiny_problem(m_grid=(1,), h_grid=(1,)))
        assert [r.stop for r in capped.records] == ["step_cap"]
        assert capped.records[0].iterations == 8
        short = optimize(tiny_problem(lambdas=(0.1,), m_grid=(8,), h_grid=(8,),
                                      max_ascent_iters=60))
        assert [r.stop for r in short.records] == ["small_step"]
        idle = optimize(tiny_problem(lambdas=(1e-9,), max_ascent_iters=1))
        assert {r.stop for r in idle.records} <= set(STOP_REASONS) - {"step_cap"}

    def test_invalid_problem_is_validation_error(self):
        for kw in (dict(lambdas=()), dict(lambdas=(-1.0,)), dict(h_grid=(0,)),
                   dict(max_ascent_iters=-1), dict(max_ascent_iters=2.5),
                   dict(max_ascent_iters=True), dict(objective="maximize_vibes"),
                   dict(objective={"throughput": 1.0}), dict(objective={"uu": np.inf}),
                   # Grid values the scenario rejects, caught before any grid point runs.
                   dict(m_grid=(16,)), dict(h_grid=(1, 16)), dict(lambdas=(np.inf,)),
                   dict(lambdas=(0.5, np.nan))):
            with pytest.raises(ValidationError):
                tiny_problem(**kw)

    def test_grid_values_are_stored_as_the_scenario_coerces_them(self):
        problem = tiny_problem(lambdas=("1",), m_grid=(2.0,), h_grid=(1,), max_ascent_iters=1)
        assert problem.lambdas == (1.0,) and type(problem.m_grid[0]) is int
        [record] = optimize(problem).records
        assert record.lam == 1.0 and type(record.lam) is float
        assert type(record.m) is int and type(record.h) is int

    def test_every_start_breaking_raises_the_model_error(self, monkeypatch):
        def broken(cfg, **kw):
            raise analytic.ModelError("non-finite value in s_tx")

        monkeypatch.setattr(analytic, "solve", broken)
        problem = tiny_problem(m_grid=(8,), h_grid=(8,), perturbed_restarts=True)
        with pytest.raises(analytic.ModelError, match="s_tx"):
            optimize(problem)

    def test_perturbed_restarts_can_win(self):
        # At an overloaded point a tilted start wins (tilt-sf12: 0.814 against 0.746).
        problem = tiny_problem(lambdas=(10.0,), m_grid=(8,), h_grid=(1,),
                               max_ascent_iters=60)
        uniform = optimize(problem).records[0]
        restarted = optimize(replace(problem, perturbed_restarts=True)).records[0]
        assert uniform.start == "uniform"
        assert restarted.start.startswith("tilt-")
        assert restarted.value > uniform.value

    def test_broken_derivative_sweep_gives_flat_gradient(self, monkeypatch):
        # A failure in the batched derivative sweep (rows on a leading axis)
        # stops the ascent; the one-row solves are left alone.
        sweep = analytic._sweep

        def breaking(cfg, app, s_ul, s_dl):
            state, failures = sweep(cfg, app, s_ul, s_dl)
            return state, ({3: "non-finite value in r_phy"} if s_ul.ndim == 2 else failures)

        monkeypatch.setattr(analytic, "_sweep", breaking)
        record = optimize(tiny_problem(lambdas=(1.0,), m_grid=(8,), h_grid=(8,))).records[0]
        assert (record.stop, record.iterations, record.evaluations) == ("flat_gradient", 0, 2)
        assert record.solver_converged


class TestOptimizerBits:
    """The optimizer's records, pinned: a rewrite of the ascent, the projection
    or the gradient that moves one bit of one record fails here."""

    def test_grid_records_are_pinned(self):
        # ``make_golden.py --pins`` prints the literal.
        assert make_golden.optimizer_digest() == \
            "e255e10cfda1afbee3809aed35f53441f15776ba0e0988b640032a35644e55ab"


class TestChordLineSearch:
    """The line search's solves, chord-stepped with the step's Jacobian, give the
    records of plain warm-started iteration."""

    @pytest.mark.parametrize("lam", [1.0, 10.0])
    def test_records_match_plain_iteration(self, lam, monkeypatch):
        problem = OptimizationProblem(ScenarioConfig(alpha=0.3), lambdas=(lam,),
                                      m_grid=(8,), h_grid=(8,))
        stepped = optimize(problem).records[0]
        solve = analytic.solve
        monkeypatch.setattr(analytic, "solve",
                            lambda cfg, jacobian=None, **kw: solve(cfg, **kw))
        plain = optimize(problem).records[0]
        for name in ("iterations", "evaluations", "stop", "start", "solver_converged"):
            assert getattr(stepped, name) == getattr(plain, name), name
        assert abs(stepped.value - plain.value) <= 1e-8
        shares = np.subtract(stepped.p_unconfirmed + stepped.p_confirmed,
                             plain.p_unconfirmed + plain.p_confirmed)
        assert np.max(np.abs(shares)) <= 1e-6


def central_difference_gradient(evaluate, x):
    """The optimizer's former gradient: central differences of fixed-point solves."""
    h = _FD_STEP
    basis = np.eye(2 * N_SF)
    return np.array([(evaluate(_project_pair(x + h * basis[i]))[0]
                      - evaluate(_project_pair(x - h * basis[i]))[0]) / (2.0 * h)
                     for i in range(2 * N_SF)])


class TestImplicitGradient:
    """The gradient through the fixed point against the central differences it replaced."""

    @pytest.mark.parametrize("lam", [1.0, 10.0])
    @pytest.mark.parametrize("weights", [OBJECTIVES["uu_plus_cd"],
                                         {"uu": 0.5, "jain": 1.0, "delta_dl": -0.01}])
    def test_matches_central_differences_at_interior_points(self, lam, weights):
        # Interior points only: at the boundary the projected probes are
        # asymmetric and the central difference carries an O(h) term.
        cfg = ScenarioConfig(lambda_total=lam, alpha=0.3, m=8, h=8)
        rng = np.random.default_rng(5)
        points = [np.full(2 * N_SF, 1.0 / N_SF)] + [
            np.concatenate([rng.dirichlet(np.full(N_SF, 5.0)) for _ in range(2)])
            for _ in range(2)]
        for x in points:
            evaluate = _Evaluator(cfg, weights)
            _, state = evaluate(x)
            grad, _ = _gradient(evaluate, x, state)
            assert evaluate.evaluations == 2   # one solve, one derivative sweep
            want = central_difference_gradient(evaluate, x)
            assert np.max(np.abs(grad - want)) <= 1e-6
            assert evaluate.all_converged

    @pytest.mark.parametrize("lam", [1.0, 10.0])
    def test_full_report_objective_equals_per_row_reports(self, lam):
        # The derivative sweep sweeps and reports all its rows in one batched
        # call; the gradient is bit-identical to sweeping and reporting each
        # row on its own.
        class PerRow(_Evaluator):
            def sweep(self, xs, zs):
                rows = []
                for x, z in zip(xs, zs):
                    row_cfg = replace(self.cfg,
                                      p_unconfirmed=SfDistribution(tuple(x[:N_SF])),
                                      p_confirmed=SfDistribution(tuple(x[N_SF:])))
                    state = analytic.iterate(row_cfg, z[:N_SF], z[N_SF:])
                    rows.append([*state.s_ul, *state.s_dl, self._objective(state, row_cfg)])
                return np.array(rows)

        cfg = ScenarioConfig(lambda_total=lam, alpha=0.3, m=8, h=8)
        weights = {"cd": 1.0, "jain": 0.5, "delta_dl": -0.001}
        # An interior point, and one on the boundary whose probes have SF shares of 0.
        edge = np.concatenate([[0.0, 0.3, 0.3, 0.2, 0.2, 0.0], [0.5, 0.5, 0.0, 0.0, 0.0, 0.0]])
        for x in (np.full(2 * N_SF, 1.0 / N_SF), edge):
            grads = []
            for evaluator in (_Evaluator, PerRow):
                evaluate = evaluator(cfg, weights)
                _, state = evaluate(x)
                grads.append(_gradient(evaluate, x, state)[0])
            assert np.all(np.isfinite(grads[0]))
            assert np.array_equal(grads[0], grads[1])

    def test_warm_start_keeps_the_objective(self):
        cfg = ScenarioConfig(lambda_total=1.0, alpha=0.3, m=8, h=8)
        evaluate = _Evaluator(cfg, OBJECTIVES["uu_plus_cd"])
        x = np.full(2 * N_SF, 1.0 / N_SF)
        _, state = evaluate(x)
        step = _project_pair(x + 0.05 * np.arange(2 * N_SF) / N_SF)
        cold, cold_state = evaluate(step)
        warm, warm_state = evaluate(step, start=state)
        assert abs(warm - cold) <= 1e-9
        assert warm_state.iterations < cold_state.iterations
