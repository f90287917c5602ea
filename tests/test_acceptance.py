"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Each criterion is asserted at its stated tolerance; the printed verdict
lines give the measured numbers so a red criterion is directly
diagnosable from the test output.
"""

import math
import time

import numpy as np
import pytest

from loracell import analytic, metrics, simulate
from loracell.optimize import OptimizationProblem, optimize
from loracell.scenario import ScenarioConfig, SfDistribution, preset
from loracell.simulate import SimConfig

from conftest import ACCEPTANCE_VERDICTS

LAMBDAS = np.logspace(np.log10(0.01), np.log10(100.0), 40)
M_GRID = (1, 2, 4, 8)
ALPHAS = (0.0, 0.3, 1.0)


def verdict(name: str, ok: bool, detail: str) -> bool:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    ACCEPTANCE_VERDICTS.append(line)
    return ok


@pytest.fixture(scope="module")
def convergence_grid():
    """All 480 grid solves of criterion 1, plus the solve-only wall time."""
    states = {}
    elapsed = 0.0
    for m in M_GRID:
        for alpha in ALPHAS:
            for lam in LAMBDAS:
                cfg = ScenarioConfig(lambda_total=float(lam), alpha=alpha, m=m, h=1)
                t0 = time.perf_counter()
                state = analytic.solve(cfg, tol=1e-10, max_iter=1000)
                elapsed += time.perf_counter() - t0
                states[(m, alpha, float(lam))] = (cfg, state)
    return states, elapsed


@pytest.fixture(scope="module")
def sim_comparisons():
    """Criterion 7 cells: model report and simulator report per cell."""
    cells = []
    t0 = time.perf_counter()
    for alpha, h in ((1.0, 1), (0.3, 1)):
        for lam, duration in ((0.1, 10000.0), (1.0, 4000.0)):
            cfg = ScenarioConfig(lambda_total=lam, alpha=alpha, m=8, h=h)
            model = metrics.compute_report(analytic.solve(cfg), cfg)
            sim_cfg = SimConfig(scenario=cfg, n_devices=1200,
                                arrival_model="poisson",
                                capture_model="probabilistic",
                                sim_duration=duration, seed=20240809,
                                n_replications=10)
            report = simulate.run(sim_cfg, workers=None)
            cells.append((f"alpha={alpha} h={h} lambda={lam}", model, report))
    return cells, time.perf_counter() - t0


@pytest.fixture(scope="module")
def optimizer_results():
    base = ScenarioConfig(alpha=0.3)
    results = {}
    for lam in (1.0, 0.1):
        problem = OptimizationProblem(base_cfg=base, lambdas=(lam,),
                                      m_grid=M_GRID, h_grid=M_GRID,
                                      objective="uu_plus_cd")
        results[lam] = optimize(problem)
    return results


def test_criterion_1_fixed_point_convergence(convergence_grid):
    states, elapsed = convergence_grid
    slow = [(key, st.iterations) for key, (_, st) in states.items()
            if st.iterations > 20 or not st.converged or st.residual > 1e-10]
    worst = max(st.iterations for _, st in states.values())
    ok = not slow and elapsed < 1.0
    detail = (f"480 solves in {elapsed:.2f}s, worst {worst} iterations, "
              f"{len(slow)} points over the 20-iteration bound")
    if slow:
        sample = ", ".join(f"(m={m},alpha={a},lam={lam:.3g})->{it}"
                           for (m, a, lam), it in sorted(slow, key=lambda x: -x[1])[:5])
        detail += f"; slowest: {sample}"
    assert verdict("criterion-1 convergence", ok, detail), detail


def test_criterion_2_confirmed_uplink_above_point_nine():
    cfg = ScenarioConfig(lambda_total=1.0, alpha=1.0, m=8, h=1)
    report = metrics.compute_report(analytic.solve(cfg), cfg)
    ok = report.cu > 0.9
    assert verdict("criterion-2 cu-at-unit-load", ok, f"CU = {report.cu:.4f} (> 0.9 required)")


def test_criterion_3_cd_never_exceeds_cu(convergence_grid):
    states, _ = convergence_grid
    violations = []
    for key, (cfg, state) in states.items():
        report = metrics.compute_report(state, cfg)
        if report.cd > report.cu + 1e-12:
            violations.append((key, report.cd - report.cu))
    ok = not violations
    assert verdict("criterion-3 cd-le-cu", ok,
                   f"{len(violations)} violations over {len(states)} grid points")


def test_criterion_4_duty_cycle_lift_ordering():
    curves = {}
    for deltas in ((0.0, 0.0), (9.0, 9.0), (99.0, 9.0)):
        values = []
        for lam in LAMBDAS:
            cfg = ScenarioConfig(lambda_total=float(lam), alpha=1.0, m=8, h=1,
                                 delta_sb1=deltas[0], delta_sb2=deltas[1])
            report = metrics.compute_report(analytic.solve(cfg), cfg)
            values.append(report.cd)
        curves[deltas] = np.array(values)
    lifted, mid, default = curves[(0.0, 0.0)], curves[(9.0, 9.0)], curves[(99.0, 9.0)]
    bad = [(float(LAMBDAS[i]), float(lifted[i]), float(mid[i]), float(default[i]))
           for i in range(len(LAMBDAS))
           if not (lifted[i] >= default[i] - 1e-12
                   and default[i] - 1e-12 <= mid[i] <= lifted[i] + 1e-12)]
    ok = not bad
    detail = f"{len(bad)} ordering violations over {len(LAMBDAS)} loads"
    if bad:
        detail += "; first offenders " + ", ".join(
            f"lam={lam:.3g} cd(0,0)={a:.2e} cd(9,9)={b:.2e} cd(99,9)={c:.2e}"
            for lam, a, b, c in bad[:3])
    assert verdict("criterion-4 dc-lift-ordering", ok, detail)


def test_criterion_5_fairness():
    equal, explora = preset("equal"), preset("explora")
    combos = {"eq/eq": (equal, equal), "eq/ex": (equal, explora),
              "ex/eq": (explora, equal), "ex/ex": (explora, explora)}
    low_lambdas = [float(l) for l in LAMBDAS if l <= 1.0] + [1.0]
    min_low = 1.0
    high = {}
    for name, (p_u, p_c) in combos.items():
        for lam in low_lambdas:
            cfg = ScenarioConfig(lambda_total=lam, alpha=0.3, m=8, h=8,
                                 tau1=1, tau2=1,
                                 p_unconfirmed=p_u, p_confirmed=p_c)
            min_low = min(min_low, metrics.compute_report(analytic.solve(cfg), cfg).jain)
        cfg = ScenarioConfig(lambda_total=10.0, alpha=0.3, m=8, h=8,
                             tau1=1, tau2=1, p_unconfirmed=p_u, p_confirmed=p_c)
        high[name] = metrics.compute_report(analytic.solve(cfg), cfg).jain
    ok = min_low >= 0.99 and high["ex/ex"] >= high["eq/eq"]
    assert verdict("criterion-5 fairness", ok,
                   f"min J(lam<=1) = {min_low:.5f} (>= 0.99); "
                   f"J10(ex/ex) = {high['ex/ex']:.4f} >= J10(eq/eq) = {high['eq/eq']:.4f}")


def test_criterion_6_dl_delay_rises_then_falls():
    values = []
    for lam in LAMBDAS:
        cfg = ScenarioConfig(lambda_total=float(lam), alpha=1.0, m=8, h=1)
        report = metrics.compute_report(analytic.solve(cfg), cfg)
        values.append(report.delta_dl)
    values = np.array(values)
    peak = int(np.argmax(values))
    ok = bool(np.any(values[:peak] < values[peak])
              and np.any(values[peak + 1:] < values[peak]))
    assert verdict("criterion-6 dl-delay-shape", ok,
                   f"peak {values[peak]:.2f}s at lam={LAMBDAS[peak]:.3g}, "
                   f"ends {values[0]:.2f}s / {values[-1]:.2f}s")


def test_criterion_7_model_vs_simulator(sim_comparisons):
    cells, elapsed = sim_comparisons
    failures = []
    checked = 0
    for label, model, report in cells:
        pairs = [("uu", model.uu, report.uu.mean),
                 ("cu", model.cu, report.cu.mean),
                 ("cd", model.cd, report.cd.mean),
                 ("f_nmd", model.f_nmd, report.f_nmd.mean),
                 ("f_gwtx", model.f_gwtx, report.f_gwtx.mean),
                 ("f_int", model.f_int, report.f_int.mean)]
        for name, model_value, sim_value in pairs:
            if sim_value is None:
                continue  # no traffic of that kind was simulated
            checked += 1
            diff = abs(model_value - sim_value)
            if diff > 0.05:
                failures.append(f"{label} {name}: |{model_value:.4f}-{sim_value:.4f}|"
                                f"={diff:.4f}")
    ok = not failures and elapsed <= 600.0
    detail = f"{checked} metric cells compared in {elapsed:.0f}s; "
    detail += "all within +-0.05" if not failures else "out of tolerance: " + "; ".join(failures)
    assert verdict("criterion-7 model-vs-simulator", ok, detail)


def test_criterion_8_optimizer_qualitative_optima(optimizer_results):
    best_high = optimizer_results[1.0].best_for(1.0)
    best_low = optimizer_results[0.1].best_for(0.1)
    argmax_sf = 7 + int(np.argmax(best_high.p_confirmed))
    stacked = np.array(best_low.p_unconfirmed + best_low.p_confirmed)
    sup_dist = float(np.max(np.abs(stacked - 1.0 / 6.0)))
    ok = (argmax_sf == 7
          and sup_dist <= 0.15
          and (best_high.m, best_high.h) == (8, 8)
          and (best_low.m, best_low.h) == (8, 8))
    assert verdict(
        "criterion-8 optimizer", ok,
        f"lam=1: argmax p_c = SF{argmax_sf}, (m,h)=({best_high.m},{best_high.h}); "
        f"lam=0.1: sup-dist from uniform = {sup_dist:.3f}, "
        f"(m,h)=({best_low.m},{best_low.h})")


def test_criterion_9_property_suites(random_states, sim_comparisons, optimizer_results):
    problems = []

    # Probability ranges and demodulator monotonicity over 1000 random configs.
    range_bad = monotone_bad = telescope_bad = 0
    for cfg, state in random_states:
        vectors = [state.s_ul, state.s_dl, state.s_int, state.s_tx, state.f_tx1,
                   state.f_tx2, state.s_int_ack1, state.s_sb1,
                   np.array([state.s_sb2, state.demod.s_demod,
                             state.sb1.p_on, state.sb1.p_off,
                             state.sb2.p_on, state.sb2.p_off]),
                   state.demod.p_lock]
        if any(np.any(v < -1e-12) or np.any(v > 1.0 + 1e-12) for v in vectors):
            range_bad += 1
        if np.any(np.diff(state.demod.p_lock) > 1e-15):
            monotone_bad += 1
        if state.rates.r_phy.sum() > 0.0:
            f_nmd, f_gwtx, f_int = metrics.loss_decomposition(state, cfg)
            total = f_nmd + f_gwtx + f_int + float(state.rates.d @ state.s_ul)
            if abs(total - 1.0) > 1e-12:
                telescope_bad += 1
    if range_bad:
        problems.append(f"{range_bad} configs with out-of-range probabilities")
    if monotone_bad:
        problems.append(f"{monotone_bad} configs with non-monotone demodulator chain")
    if telescope_bad:
        problems.append(f"{telescope_bad} configs violating the loss identity")

    # Simplex validity of every optimizer record.
    simplex_bad = 0
    for result in optimizer_results.values():
        for record in result.records:
            for p in (record.p_unconfirmed, record.p_confirmed):
                if any(v < -1e-12 for v in p) or abs(sum(p) - 1.0) > 1e-9:
                    simplex_bad += 1
    if simplex_bad:
        problems.append(f"{simplex_bad} optimizer records off the simplex")

    # Simulator conservation and duty-cycle audit over the seeded runs.
    cells, _ = sim_comparisons
    conserve_bad = dc_bad = 0
    for _, _, report in cells:
        for rep in report.replications:
            for i in range(6):
                total = (rep.delivered_phy[i] + rep.lost_interference[i]
                         + rep.lost_gwtx[i] + rep.lost_nmd[i])
                if total != rep.offered_phy[i]:
                    conserve_bad += 1
            dc_bad += rep.dc_violations
    if conserve_bad:
        problems.append(f"{conserve_bad} unbalanced PHY classifications")
    if dc_bad:
        problems.append(f"{dc_bad} duty-cycle violations")

    # Pure-Aloha limit: no capture, one SF, uplink only.
    one_sf = SfDistribution((1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    cfg = ScenarioConfig(lambda_total=5.0, alpha=0.0, h=1, m=1, w_gw=0.0,
                         p_unconfirmed=one_sf, p_confirmed=one_sf)
    report = simulate.run(SimConfig(scenario=cfg, n_devices=400,
                                    sim_duration=2500.0, warmup=100.0,
                                    seed=7, n_replications=3))
    decodable = report.offered_phy - report.lost_nmd - report.lost_gwtx
    survival = report.delivered_phy / decodable
    rate = report.offered_phy / (3 * cfg.c_channels * (2500.0 - 100.0))
    expected = math.exp(-2 * 0.051 * rate)
    if abs(survival - expected) > 0.03:
        problems.append(f"pure-Aloha survival {survival:.4f} vs {expected:.4f}")

    ok = not problems
    assert verdict("criterion-9 property-suites", ok,
                   "all invariants hold" if ok else "; ".join(problems))
