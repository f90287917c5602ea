"""Metric oracles: delivery ratios, delays, fairness, losses."""

from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loracell import analytic, metrics, simulate
from loracell.metrics import (
    METRICS,
    MetricsError,
    MetricsReport,
    compute_report,
    delays,
    jain_index,
    loss_decomposition,
    reliability,
    report_many,
    retx_distribution,
)
from loracell.scenario import ScenarioConfig, SfDistribution

SF7_ONLY = SfDistribution((1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
SF12_ONLY = SfDistribution((0.0, 0.0, 0.0, 0.0, 0.0, 1.0))


def solved(**kw):
    cfg = ScenarioConfig(**kw)
    return analytic.solve(cfg), cfg


def random_config(rng) -> ScenarioConfig:
    return ScenarioConfig(
        lambda_total=float(10 ** rng.uniform(-2, 1.5)),
        alpha=float(rng.uniform(0.05, 1.0)),
        p_unconfirmed=SfDistribution(tuple(rng.dirichlet(np.ones(6)))),
        p_confirmed=SfDistribution(tuple(rng.dirichlet(np.ones(6)))),
        h=int(rng.integers(1, 9)),
        m=int(rng.integers(1, 9)),
        tau1=int(rng.integers(0, 2)),
        tau2=int(rng.integers(0, 2)),
    )


class TestReliability:
    def test_perfect_uplink_gives_unit_ratios(self):
        state, cfg = solved(lambda_total=0.0, alpha=0.5, m=4, h=3)
        uu, cu, cd, *_ = reliability(state, cfg)
        assert uu == pytest.approx(1.0)
        assert cu == pytest.approx(1.0)
        assert cd == pytest.approx(1.0)

    def test_single_sf_geometric_sum(self):
        # Success 0.5 per attempt, two copies: 0.5 + 0.25.
        state, cfg = solved(lambda_total=0.0, alpha=0.0, h=2,
                            p_unconfirmed=SF7_ONLY)
        doctored = analytic.SteadyState(
            s_ul=np.full(6, 0.5), s_dl=np.ones(6), s_int=state.s_int,
            s_tx=state.s_tx, f_tx1=state.f_tx1, f_tx2=state.f_tx2,
            s_int_ack1=state.s_int_ack1, s_sb1=state.s_sb1, s_sb2=state.s_sb2,
            rates=state.rates, sb1=state.sb1, sb2=state.sb2, demod=state.demod,
            iterations=1, residual=0.0, converged=True)
        uu, *_ = reliability(doctored, cfg)
        assert uu == pytest.approx(0.75, abs=1e-12)

    def test_moderate_confirmed_load_beats_point_nine(self):
        state, cfg = solved(lambda_total=1.0, alpha=1.0, m=8)
        _, cu, cd, *_ = reliability(state, cfg)
        assert cu > 0.9
        assert cd <= cu

    def test_closed_forms_match(self):
        state, cfg = solved(lambda_total=2.0, alpha=0.4, m=5, h=3)
        uu, cu, cd, uu_i, cu_i, cd_i = reliability(state, cfg)
        assert uu_i == pytest.approx(1 - (1 - state.s_ul) ** cfg.h, abs=1e-12)
        assert cu_i == pytest.approx(1 - (1 - state.s_ul) ** cfg.m, abs=1e-12)
        q = state.s_ul * state.s_dl
        assert cd_i == pytest.approx(1 - (1 - q) ** cfg.m, abs=1e-12)

    def test_batched_rows_equal_one_row_calls(self):
        rng = np.random.default_rng(4)
        cfgs = [replace(random_config(rng), h=3, m=5) for _ in range(30)]
        cfgs += [ScenarioConfig(lambda_total=0.0, h=3, m=5, p_unconfirmed=SF7_ONLY),
                 ScenarioConfig(lambda_total=5.0, alpha=0.0, h=3, m=5)]
        states = analytic.solve_many(cfgs)
        rows = SimpleNamespace(s_ul=np.array([s.s_ul for s in states]),
                               s_dl=np.array([s.s_dl for s in states]))
        shares = SimpleNamespace(
            h=3, m=5,
            p_unconfirmed=SimpleNamespace(p=np.array([c.p_unconfirmed.p for c in cfgs])),
            p_confirmed=SimpleNamespace(p=np.array([c.p_confirmed.p for c in cfgs])))
        batched = reliability(rows, shares)
        for i, (state, cfg) in enumerate(zip(states, cfgs)):
            one = reliability(state, cfg)
            assert all(type(v) is float for v in one[:3])
            for got, want in zip(batched, one):
                assert np.array_equal(got[i], want)


class TestDelays:
    def test_single_attempt_certain_success_is_pure_airtime(self):
        state, cfg = solved(lambda_total=0.0, alpha=0.5, m=1,
                            p_confirmed=SF7_ONLY)
        delta_ul, _ = delays(state, cfg)
        assert delta_ul == pytest.approx(0.051, abs=1e-12)

    def test_inter_transmission_time_sf12(self):
        # Duty-cycle silence plus mean timeout: 100 * 1.318 + 2 s.
        state, cfg = solved(lambda_total=0.0, alpha=1.0, m=2,
                            p_confirmed=SF12_ONLY, delta_sb1=99.0, mu_retx=2.0)
        gamma_12 = (cfg.delta_sb1 + 1) * cfg.airtimes.t_data[5] + cfg.mu_retx
        assert gamma_12 == pytest.approx(133.8, abs=1e-9)

    def test_ack_window_term_single_branch(self):
        # Zero load: every ACK is served in the first window one second in.
        state, cfg = solved(lambda_total=0.0, alpha=1.0, m=1,
                            p_confirmed=SF7_ONLY)
        assert state.s_sb1[0] == pytest.approx(1.0)
        assert state.s_sb2 == 0.0
        _, delta_dl = delays(state, cfg)
        assert delta_dl == pytest.approx(0.051 + 1.0 + 0.041, abs=1e-12)

    def test_requires_confirmed_traffic(self):
        state, cfg = solved(lambda_total=1.0, alpha=0.0)
        with pytest.raises(MetricsError, match="alpha"):
            delays(state, cfg)

    def test_retry_terms_match_direct_expansion(self):
        state, cfg = solved(lambda_total=1.0, alpha=1.0, m=4)
        delta_ul, delta_dl = delays(state, cfg)
        t_data = np.array(cfg.airtimes.t_data)
        gamma = (cfg.delta_sb1 + 1) * t_data + cfg.mu_retx
        t_ack1 = np.array(cfg.airtimes.t_ack1)
        t_ack2 = np.array(cfg.airtimes.t_ack2)
        phi = state.s_sb1 * (1 + t_ack1) + state.s_sb2 * (2 + t_ack2)
        p_ul = analytic.attempt_distributions(state.s_ul, cfg.m)
        p_dl = analytic.attempt_distributions(state.s_ul * state.s_dl, cfg.m)
        want_ul = want_dl = 0.0
        for i in range(6):
            for j in range(cfg.m):
                want_ul += (cfg.p_confirmed.p[i] * p_ul[i, j] / p_ul[i].sum()
                            * (t_data[i] + j * gamma[i]))
                want_dl += (cfg.p_confirmed.p[i] * p_dl[i, j] / p_dl[i].sum()
                            * (t_data[i] + j * gamma[i] + (j + 1) * phi[i]))
        assert delta_ul == pytest.approx(want_ul, abs=1e-12)
        assert delta_dl == pytest.approx(want_dl, abs=1e-12)

    def test_equals_per_sf_loop_bit_for_bit(self):
        def loop_delays(state, cfg):
            p_c = np.asarray(cfg.p_confirmed.p)
            t_data = np.asarray(cfg.airtimes.t_data)
            gamma = (cfg.delta_sb1 + 1.0) * t_data + cfg.mu_retx
            phi = (state.s_sb1 * (1.0 + np.asarray(cfg.airtimes.t_ack1))
                   + state.s_sb2 * (2.0 + np.asarray(cfg.airtimes.t_ack2)))
            p_ul = analytic.attempt_distributions(state.s_ul, cfg.m)
            p_dl = analytic.attempt_distributions(state.s_ul * state.s_dl, cfg.m)
            j0 = np.arange(cfg.m, dtype=float)
            delta_ul = delta_dl = 0.0
            for i in range(6):
                if p_ul[i].sum() > 0.0:
                    weights = p_ul[i] / float(p_ul[i].sum())
                    delta_ul += p_c[i] * float(weights @ (t_data[i] + j0 * gamma[i]))
                if p_dl[i].sum() > 0.0:
                    weights = p_dl[i] / float(p_dl[i].sum())
                    delta_dl += p_c[i] * float(
                        weights @ (t_data[i] + j0 * gamma[i] + (j0 + 1.0) * phi[i]))
            return float(delta_ul), float(delta_dl)

        rng = np.random.default_rng(11)
        cfgs = [replace(random_config(rng), m=int(rng.integers(1, 16))) for _ in range(150)]
        cfgs += [ScenarioConfig(lambda_total=lam, alpha=1.0, m=m, p_confirmed=dist)
                 for lam in (0.0, 3.0) for m in (1, 15) for dist in (SF7_ONLY, SF12_ONLY)]
        for cfg, state in zip(cfgs, analytic.solve_many(cfgs)):
            assert delays(state, cfg) == loop_delays(state, cfg)


class TestFairness:
    def test_equal_shares_perfectly_fair(self):
        assert jain_index([0.5, 0.5]) == pytest.approx(1.0)

    def test_single_user_hogging_hits_lower_bound(self):
        assert jain_index([1.0, 0.0]) == pytest.approx(0.5)

    def test_hand_value(self):
        assert jain_index([0.9, 0.3, 0.6]) == pytest.approx(3.24 / 3.78, abs=1e-12)
        assert jain_index([0.9, 0.3, 0.6]) == pytest.approx(0.857, abs=5e-4)

    def test_all_zero_rejected(self):
        with pytest.raises(MetricsError):
            jain_index([0.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            jain_index([])

    def test_underflowing_squares_rescaled(self):
        assert jain_index([1e-200, 2e-200]) == jain_index([1.0, 2.0])

    @given(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=12),
           st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=80)
    def test_scale_invariance(self, x, scale):
        assert jain_index(x) == pytest.approx(jain_index([v * scale for v in x]),
                                              rel=1e-9)

    def test_equal_proxies_give_unit_index(self):
        state, cfg = solved(lambda_total=0.0, alpha=0.5)
        assert compute_report(state, cfg).jain == pytest.approx(1.0)

    def test_empty_categories_excluded(self):
        state, cfg = solved(lambda_total=0.5, alpha=1.0, p_confirmed=SF7_ONLY)
        report = compute_report(state, cfg)
        x = metrics._categories(cfg, report.uu_per_sf, report.cu_per_sf)
        assert len(x) == 1  # only the confirmed SF7 population exists
        assert report.jain == pytest.approx(1.0)

    def test_unconfirmed_only_uses_six_categories(self):
        state, cfg = solved(lambda_total=0.5, alpha=0.0)
        report = compute_report(state, cfg)
        assert len(metrics._categories(cfg, report.uu_per_sf, report.cu_per_sf)) == 6


class TestRetxDistribution:
    def test_certain_success_all_first_attempt(self):
        state, cfg = solved(lambda_total=0.0, alpha=1.0, m=4)
        shares = retx_distribution(state, cfg)
        assert shares[0] == pytest.approx(1.0)
        assert np.all(shares[1:] == pytest.approx(0.0))

    def test_geometric_hand_case(self):
        state, cfg = solved(lambda_total=0.0, alpha=1.0, m=2, p_confirmed=SF7_ONLY)
        doctored = analytic.SteadyState(
            s_ul=np.full(6, 0.5), s_dl=np.ones(6), s_int=state.s_int,
            s_tx=state.s_tx, f_tx1=state.f_tx1, f_tx2=state.f_tx2,
            s_int_ack1=state.s_int_ack1, s_sb1=state.s_sb1, s_sb2=state.s_sb2,
            rates=state.rates, sb1=state.sb1, sb2=state.sb2, demod=state.demod,
            iterations=1, residual=0.0, converged=True)
        shares = retx_distribution(doctored, cfg)
        assert shares == pytest.approx([0.5, 0.25, 0.25], abs=1e-12)

    def test_shares_always_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            cfg = random_config(rng)
            state = analytic.solve(cfg, tol=1e-8)
            shares = retx_distribution(state, cfg)
            assert shares.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(shares >= 0.0)
            assert len(shares) == cfg.m + 1

    def test_requires_confirmed_traffic(self):
        state, cfg = solved(lambda_total=1.0, alpha=0.0)
        with pytest.raises(MetricsError):
            retx_distribution(state, cfg)


class TestLossDecomposition:
    def test_zero_traffic_no_losses(self):
        state, cfg = solved(lambda_total=0.0)
        assert loss_decomposition(state, cfg) == pytest.approx((0.0, 0.0, 0.0))

    def test_telescoping_identity(self):
        # Losses by cause plus the mean uplink success cover everything.
        rng = np.random.default_rng(17)
        for _ in range(40):
            cfg = random_config(rng)
            state = analytic.solve(cfg, tol=1e-10)
            f_nmd, f_gwtx, f_int = loss_decomposition(state, cfg)
            mean_success = float(state.rates.d @ state.s_ul)
            assert f_nmd + f_gwtx + f_int + mean_success == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_load_for_confirmed_cell(self):
        # The causes form nested filters, so the cumulative shares grow with
        # load even where a single cause's share shrinks because an earlier
        # filter starts absorbing the traffic first.
        values = []
        for lam in np.logspace(-2, 1, 12):
            state, cfg = solved(lambda_total=float(lam), alpha=1.0, m=8)
            values.append(loss_decomposition(state, cfg))
        arr = np.array(values)
        nmd, gwtx, fint = arr[:, 0], arr[:, 1], arr[:, 2]
        assert np.all(np.diff(nmd) >= -1e-9)
        assert np.all(np.diff(nmd + gwtx) >= -1e-9)
        assert np.all(np.diff(nmd + gwtx + fint) >= -1e-9)
        # Before the demodulator bank saturates each share grows on its own.
        early = arr[:8]
        for k in range(3):
            assert np.all(np.diff(early[:, k]) >= -1e-9)


class TestReport:
    def test_cd_never_exceeds_cu(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            cfg = random_config(rng)
            state = analytic.solve(cfg, tol=1e-8)
            report = compute_report(state, cfg)
            assert report.cd <= report.cu + 1e-12

    def test_uplink_ratios_non_increasing_in_load(self):
        uus, cus = [], []
        for lam in np.logspace(-2, 2, 15):
            state, cfg = solved(lambda_total=float(lam), alpha=0.3, m=8, h=2)
            report = compute_report(state, cfg)
            uus.append(report.uu)
            cus.append(report.cu)
        assert np.all(np.diff(uus) <= 1e-9)
        assert np.all(np.diff(cus) <= 1e-9)

    def test_unconfirmed_only_report_has_no_confirmed_metrics(self):
        state, cfg = solved(lambda_total=1.0, alpha=0.0)
        report = compute_report(state, cfg)
        assert report.delta_ul is None
        assert report.delta_dl is None
        assert report.retx_dist is None
        assert 0.0 <= report.uu <= 1.0

    def test_report_serializes_to_plain_dict(self):
        for alpha in (1.0, 0.0):
            state, cfg = solved(lambda_total=1.0, alpha=alpha, m=4)
            doc = compute_report(state, cfg).to_dict()
            assert set(doc) == {"uu", "cu", "cd", "uu_per_sf", "cu_per_sf", "cd_per_sf",
                                "delta_ul", "delta_dl", "jain", "retx_dist",
                                "f_nmd", "f_gwtx", "f_int"}
            for key in ("uu_per_sf", "cu_per_sf", "cd_per_sf"):
                assert isinstance(doc[key], list) and len(doc[key]) == 6
            if alpha > 0.0:
                assert isinstance(doc["retx_dist"], list)
                assert len(doc["retx_dist"]) == cfg.m + 1
            else:
                assert doc["delta_ul"] is None and doc["delta_dl"] is None
                assert doc["retx_dist"] is None

    def test_jain_undefined_only_when_no_population_succeeds(self, monkeypatch):
        state, cfg = solved(lambda_total=1e5, alpha=1.0)
        report = compute_report(state, cfg)
        assert not metrics._categories(cfg, report.uu_per_sf, report.cu_per_sf).any()
        assert report.jain is None
        # Any other fairness error still surfaces.
        monkeypatch.setattr("loracell.metrics._categories",
                            lambda cfg, uu_i, cu_i: np.array([-0.1, 0.5]))
        with pytest.raises(MetricsError, match="non-negative"):
            compute_report(state, cfg)

    def test_one_row_fields_are_python_floats(self):
        state, cfg = solved(lambda_total=1.0, alpha=0.5, m=4, h=2)
        for name, value in vars(compute_report(state, cfg)).items():
            values = value if isinstance(value, tuple) else (value,)
            assert all(type(v) is float for v in values), name

    @pytest.mark.parametrize("report_type", [MetricsReport, simulate.ReplicationResult,
                                             simulate.SimReport])
    def test_every_registered_metric_is_a_report_field(self, report_type):
        assert set(METRICS) <= {f.name for f in fields(report_type)}


def batch(cfgs):
    """Solved configs that can share one report batch, and their batched forms."""
    states = analytic.solve_many(cfgs)
    return states, analytic._stack(states), analytic._batch(cfgs, metrics._BATCH_KEY)


class TestBatchedReport:
    """Each row of a batched report equals the one-row report of that row."""

    def test_criterion_9_configs(self, random_states):
        cfgs = [cfg for cfg, _ in random_states]
        states = [state for _, state in random_states]
        reports = report_many(states, cfgs)
        keys = {tuple(getattr(c, name) for name in metrics._BATCH_KEY) for c in cfgs}
        assert len(keys) < len(cfgs) / 3   # batches of several rows
        for report, state, cfg in zip(reports, states, cfgs):
            assert report == compute_report(state, cfg)

    @pytest.mark.parametrize("cfgs", [
        # alpha = 0 and 1 rows have six categories, the others twelve.
        [ScenarioConfig(lambda_total=1.0, alpha=a, m=8, h=1) for a in np.linspace(0, 1, 11)],
        [ScenarioConfig(lambda_total=lam, alpha=0.3, m=4, h=2)
         for lam in (0.0, 0.01, 1.0, 30.0, 1e4, 1e5)],
        [ScenarioConfig(lambda_total=lam, alpha=a, p_unconfirmed=p_u, p_confirmed=p_c)
         for lam in (0.0, 2.0) for a in (0.0, 0.5, 1.0)
         for p_u, p_c in ((SF7_ONLY, SF7_ONLY), (SF7_ONLY, SF12_ONLY),
                          (SfDistribution.equal(), SF12_ONLY))],
        # 1e4: only SF7's success survives underflow; 1e5: no success at all.
        [ScenarioConfig(lambda_total=lam, alpha=1.0) for lam in (1.0, 1e4, 1e5)],
    ], ids=["alpha", "lambda", "single_sf", "underflow"])
    def test_edge_rows(self, cfgs):
        states = analytic.solve_many(cfgs)
        reports = report_many(states, cfgs)
        for report, state, cfg in zip(reports, states, cfgs):
            assert report == compute_report(state, cfg)
        # report_many batched them: one call of the batched code gives the same.
        _, stacked, batched = batch(cfgs)
        assert compute_report(stacked, batched) == reports

    def test_rows_of_different_shapes(self):
        # Demodulator count, preemption flags, m and h change the arrays' shapes.
        cfgs = [ScenarioConfig(lambda_total=2.0, alpha=0.5, n_demodulators=n, tau1=t1,
                               tau2=t2, m=m, h=h)
                for n in (4, 8) for t1 in (0, 1) for t2 in (0, 1) for m, h in ((2, 1), (8, 3))
                for _ in range(2)]
        states = analytic.solve_many(cfgs)
        reports = report_many(states, cfgs)
        for report, state, cfg in zip(reports, states, cfgs):
            assert report == compute_report(state, cfg)

    def test_undefined_rows(self):
        cfgs = [ScenarioConfig(lambda_total=lam, alpha=1.0) for lam in (1.0, 1e4, 1e5)]
        cfgs.append(ScenarioConfig(lambda_total=1.0, alpha=0.0))
        states, stacked, batched = batch(cfgs)
        reports = compute_report(stacked, batched)
        assert reports[1].jain == pytest.approx(1.0 / 6.0)
        assert reports[2].jain is None and reports[2].delta_dl is None
        assert reports[3].delta_ul is None and reports[3].retx_dist is None
        # The batched metrics read NaN where a one-row call raises.
        delta_ul, delta_dl = delays(stacked, batched)
        retx = retx_distribution(stacked, batched)
        for i, (state, cfg) in enumerate(zip(states, cfgs)):
            try:
                want = delays(state, cfg)
            except MetricsError:
                assert np.isnan(delta_ul[i]) and np.isnan(delta_dl[i])
            else:
                assert (delta_ul[i], delta_dl[i]) == want
            try:
                want = retx_distribution(state, cfg)
            except MetricsError:
                assert np.isnan(retx[i]).all()
            else:
                assert np.array_equal(retx[i], want)

    def test_jain_rows_with_absent_members(self):
        rows = [[0.9, 0.3, 0.6, np.nan], [0.5, np.nan, 0.5, 0.25],
                [1e-200, 2e-200, np.nan, np.nan], [0.2, 0.4, 0.6, 0.8]]
        got = jain_index(rows)
        for row, value in zip(rows, got):
            assert value == jain_index([v for v in row if not np.isnan(v)])
        with pytest.raises(MetricsError, match="all-zero"):
            jain_index([[0.5, 0.5], [0.0, 0.0]])
