"""Unit oracles and property tests for the fixed-point model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import fields, is_dataclass, replace

from loracell import analytic, metrics
from loracell.analytic import (
    ModelError,
    SubBandState,
    ack_interference_survival,
    app_rates,
    attempt_distributions,
    demod_chain,
    dl_success,
    gw_may_transmit,
    gw_tx_survival,
    interference_survival,
    iterate,
    phy_rates,
    solve,
    solve_groups,
    subband_states,
)
from loracell.optimize import OptimizationProblem, optimize
from loracell.scenario import ScenarioConfig, SfDistribution, ValidationError

from conftest import make_golden

SF7_ONLY = SfDistribution((1.0, 0.0, 0.0, 0.0, 0.0, 0.0))


def cfg(**kw) -> ScenarioConfig:
    return ScenarioConfig(**kw)


def random_config(rng) -> ScenarioConfig:
    p_u = rng.dirichlet(np.ones(6))
    p_c = rng.dirichlet(np.ones(6))
    return ScenarioConfig(
        lambda_total=float(10 ** rng.uniform(-2, 1.8)),
        alpha=float(rng.uniform(0, 1)),
        p_unconfirmed=SfDistribution(tuple(p_u)),
        p_confirmed=SfDistribution(tuple(p_c)),
        h=int(rng.integers(1, 9)),
        m=int(rng.integers(1, 9)),
        delta_sb1=float(rng.choice([0.0, 9.0, 99.0])),
        delta_sb2=float(rng.choice([0.0, 9.0, 99.0])),
        tau1=int(rng.integers(0, 2)),
        tau2=int(rng.integers(0, 2)),
        c_channels=int(rng.integers(1, 4)),
        w_gw=float(rng.uniform(0, 1)),
        w_ed=float(rng.uniform(0, 1)),
    )


class TestAppRates:
    def test_confirmed_only_concentrated_on_sf7(self):
        c = cfg(lambda_total=1.0, alpha=1.0, p_confirmed=SF7_ONLY, c_channels=3)
        r_c, r_u = app_rates(c)
        assert r_c == pytest.approx([1 / 3, 0, 0, 0, 0, 0])
        assert np.all(r_u == 0.0)

    def test_zero_load_gives_zero_rates(self):
        r_c, r_u = app_rates(cfg(lambda_total=0.0, alpha=0.5))
        assert np.all(r_c == 0.0) and np.all(r_u == 0.0)

    def test_even_split_hand_value(self):
        # lambda=6 over 3 channels, half confirmed, uniform SFs: 6*(1/6)*0.5/3.
        c = cfg(lambda_total=6.0, alpha=0.5, c_channels=3)
        r_c, r_u = app_rates(c)
        assert r_c == pytest.approx(np.full(6, 1 / 6))
        assert r_u == pytest.approx(np.full(6, 1 / 6))

    @pytest.mark.parametrize("k", [6, 4])
    def test_batch_rows_equal_their_own_rates(self, k):
        # Per-row load, channels and confirmed share broadcast down the rows;
        # at K = 6 a broadcast along the SF axis would give (6, 6) rates too.
        rng = np.random.default_rng(k)
        cfgs = [cfg(lambda_total=float(10 ** rng.uniform(-2, 2)), alpha=float(rng.uniform()),
                    c_channels=int(rng.integers(1, 4)),
                    p_unconfirmed=SfDistribution(tuple(rng.dirichlet(np.ones(6)))),
                    p_confirmed=SfDistribution(tuple(rng.dirichlet(np.ones(6)))))
                for _ in range(k)]
        r_c, r_u = app_rates(analytic._batch(cfgs))
        assert r_c.shape == r_u.shape == (k, 6)
        for i, c in enumerate(cfgs):
            want_c, want_u = app_rates(c)
            assert np.array_equal(r_c[i], want_c) and np.array_equal(r_u[i], want_u)


class TestPhyRates:
    def test_first_attempt_success_means_single_transmission(self):
        c = cfg(lambda_total=3.0, alpha=1.0, m=4)
        p_dl = np.zeros((6, 4))
        p_dl[:, 0] = 1.0
        rates = phy_rates(c, p_dl)
        assert rates.r_c_phy == pytest.approx(rates.r_c_app)

    def test_never_acknowledged_means_m_transmissions(self):
        c = cfg(lambda_total=3.0, alpha=1.0, m=4)
        rates = phy_rates(c, np.zeros((6, 4)))
        assert rates.r_c_phy == pytest.approx(4.0 * rates.r_c_app)

    def test_hand_expected_attempts(self):
        # m=2, success at attempt 1 with 0.6: 1*0.6 + 2*0.4 = 1.4 transmissions.
        c = cfg(lambda_total=3.0, alpha=1.0, m=2)
        p_dl = np.zeros((6, 2))
        p_dl[:, 0] = 0.6
        p_dl[:, 1] = 0.24
        rates = phy_rates(c, p_dl)
        assert rates.r_c_phy == pytest.approx(1.4 * rates.r_c_app)

    def test_totals_and_share(self):
        c = cfg(lambda_total=6.0, alpha=0.5, h=3, m=1)
        rates = phy_rates(c, np.ones((6, 1)))
        assert rates.r_phy == pytest.approx(rates.r_u_phy + rates.r_c_phy)
        assert rates.r_u_phy == pytest.approx(3.0 * rates.r_u_app)
        assert rates.d.sum() == pytest.approx(1.0)

    def test_zero_traffic_share_convention(self):
        rates = phy_rates(cfg(lambda_total=0.0, m=1), np.ones((6, 1)))
        assert np.all(rates.d == 0.0)

    def test_rounding_within_the_tolerances_accepted(self):
        c = cfg(lambda_total=3.0, alpha=1.0, m=2)
        p_dl = np.zeros((6, 2))
        p_dl[:, 0] = 0.6
        p_dl[:, 1] = 0.4 + 5e-10     # rows sum to just above 1
        p_dl[0] = (-5e-13, 1.0)      # an entry just below 0
        rates = phy_rates(c, p_dl)
        assert rates.r_c_phy[1:] == pytest.approx(1.4 * rates.r_c_app[1:])

    def test_invalid_probability_matrix_rejected(self):
        c = cfg(m=2)
        with pytest.raises(ValueError, match="probabilities"):
            phy_rates(c, np.full((6, 2), 1.5))
        with pytest.raises(ValueError, match="sum"):
            phy_rates(c, np.full((6, 2), 0.9))


class TestInterferenceSurvival:
    def test_no_traffic_limit(self):
        assert float(interference_survival(0.051, 0.0, 0.1796)) == 1.0

    def test_sf7_hand_value(self):
        got = float(interference_survival(0.051, 1.0, 0.1796))
        want = math.exp(-0.102) + 0.102 * math.exp(-0.102) * 0.1796
        assert got == pytest.approx(want, abs=1e-15)
        assert got == pytest.approx(0.9196, abs=5e-5)

    def test_full_capture_limit_is_at_most_one_interferer(self):
        x = 2 * 0.051 * 3.0
        got = float(interference_survival(0.051, 3.0, 1.0))
        assert got == pytest.approx((1 + x) * math.exp(-x), abs=1e-15)

    def test_strictly_decreasing_in_rate_below_full_capture(self):
        rates = np.linspace(0.0, 50.0, 200)
        for w in (0.0, 0.1796, 0.9):
            values = interference_survival(0.051, rates, w)
            assert np.all(np.diff(values) < 0.0)


class TestGwMayTransmit:
    def test_prioritized_transmission_always_allowed(self):
        c = cfg(lambda_total=50.0, alpha=1.0, tau1=1, m=1)
        rates = phy_rates(c, np.ones((6, 1)))
        assert gw_may_transmit(c, rates, 1) == 1.0

    def test_reception_priority_hand_value(self):
        # Single-SF7 traffic at 1 pck/s per channel over 3 channels.
        c = cfg(lambda_total=3.0, alpha=1.0, p_confirmed=SF7_ONLY, tau1=0, m=1)
        rates = phy_rates(c, np.ones((6, 1)))
        assert rates.r_phy[0] == pytest.approx(1.0)
        got = gw_may_transmit(c, rates, 1)
        assert got == pytest.approx(math.exp(-0.153), abs=1e-12)
        assert got == pytest.approx(0.8581, abs=5e-5)

    def test_zero_traffic_gives_one(self):
        c = cfg(lambda_total=0.0, tau1=0, m=1)
        rates = phy_rates(c, np.ones((6, 1)))
        assert gw_may_transmit(c, rates, 1) == pytest.approx(1.0)


class TestDemodChain:
    def test_zero_traffic_always_finds_demodulator(self):
        c = cfg(lambda_total=0.0, m=1)
        state = demod_chain(c, phy_rates(c, np.ones((6, 1))))
        assert state.s_demod == 1.0

    def test_single_sf7_hand_rolled_chain(self):
        # 1 pck/s per channel of SF7: lock time 0.051 s, first idle time 1/3 s.
        c = cfg(lambda_total=3.0, alpha=1.0, p_confirmed=SF7_ONLY, m=1)
        state = demod_chain(c, phy_rates(c, np.ones((6, 1))))
        e_lock, e_avail, p_lock = 0.051, 1.0 / 3.0, []
        for _ in range(8):
            p = e_lock / (e_avail + e_lock)
            p_lock.append(p)
            e_avail = e_avail / p
        assert state.e_lock == pytest.approx(0.051)
        assert state.p_lock == pytest.approx(p_lock, rel=1e-12)
        assert state.p_lock[0] == pytest.approx(0.1327, abs=5e-5)
        assert state.p_lock[1] == pytest.approx(0.0199, abs=5e-5)
        assert state.p_lock[2] == pytest.approx(4.0e-4, abs=5e-6)
        assert state.s_demod == pytest.approx(1.0, abs=1e-6)

    def test_lock_probabilities_non_increasing(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            c = random_config(rng)
            state = demod_chain(c, phy_rates(c, np.zeros((6, c.m))))
            assert np.all(np.diff(state.p_lock) <= 1e-15)

    def test_availability_improves_as_load_vanishes(self):
        values = []
        for lam in (10.0, 1.0, 0.1, 0.01):
            c = cfg(lambda_total=lam, alpha=1.0, m=1)
            values.append(demod_chain(c, phy_rates(c, np.ones((6, 1)))).s_demod)
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-6)


class TestSubBands:
    def test_no_confirmed_traffic_conventions(self):
        c = cfg(lambda_total=5.0, alpha=0.0, m=1)
        rates = phy_rates(c, np.ones((6, 1)))
        sb1, sb2 = subband_states(c, rates, np.ones(6))
        for sb in (sb1, sb2):
            assert sb.p_on == 1.0 and sb.p_off == 0.0
            assert sb.e_off == 0.0 and math.isinf(sb.e_on)

    def test_sf7_off_time_hand_value(self):
        # All ACKs at SF7 under the shared band's 1% duty cycle: 100 * 0.041 s.
        c = cfg(lambda_total=3.0, alpha=1.0, p_confirmed=SF7_ONLY, m=1, delta_sb1=99.0)
        rates = phy_rates(c, np.ones((6, 1)))
        sb1, _ = subband_states(c, rates, np.ones(6))
        assert sb1.e_off == pytest.approx(4.1, abs=1e-12)

    def test_always_served_in_sb1_leaves_sb2_idle(self):
        c = cfg(lambda_total=1.0, alpha=1.0, m=1, tau1=1, delta_sb1=99.0)
        rates = phy_rates(c, np.ones((6, 1)))
        sb1, sb2 = subband_states(c, rates, np.ones(6))
        expected = sb1.r * (sb1.p_off + sb1.p_on * (1 - sb1.p_t))
        assert sb2.r == pytest.approx(expected)
        # With p_on=1 and p_t=1 the spill rate would vanish entirely.
        forced = SubBandState(sb1.r, sb1.b, sb1.e_on, sb1.e_off, 1.0, 0.0, 1.0)
        assert np.all(sb1.r * (forced.p_off + forced.p_on * (1 - forced.p_t)) == 0.0)

    def test_probabilities_complementary(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            c = random_config(rng)
            rates = phy_rates(c, np.zeros((6, c.m)))
            sb1, sb2 = subband_states(c, rates, np.full(6, 0.7))
            assert sb1.p_on + sb1.p_off == pytest.approx(1.0, abs=1e-12)
            assert sb2.p_on + sb2.p_off == pytest.approx(1.0, abs=1e-12)


class TestGwTxSurvival:
    def _idle_band(self, p_t=1.0):
        return SubBandState(np.zeros(6), np.zeros(6), math.inf, 0.0, 1.0, 0.0, p_t)

    def test_idle_bands_never_hit_uplinks(self):
        c = cfg()
        f1, f2, s_tx = gw_tx_survival(c, self._idle_band(), self._idle_band())
        assert np.all(f1 == 0.0) and np.all(f2 == 0.0)
        assert np.all(s_tx == 1.0)

    def test_hand_window_fraction(self):
        # ACKs all at SF7 with reception priority; renewal period of 10 s.
        c = cfg(tau1=0)
        b = np.zeros(6)
        b[0] = 1.0
        sb1 = SubBandState(np.full(6, 0.1), b, 6.0, 4.0, 0.6, 0.4, 1.0)
        f1, _, _ = gw_tx_survival(c, sb1, self._idle_band())
        assert f1 == pytest.approx(np.full(6, 0.0041), abs=1e-12)

    def test_product_form(self):
        c = cfg(tau1=0, tau2=0)
        b = np.zeros(6)
        b[0] = 1.0
        # Renewal periods sized so that each window covers half a cycle.
        half1 = SubBandState(np.full(6, 0.1), b, 0.041, 0.041, 0.5, 0.5, 1.0)
        half2 = SubBandState(np.full(6, 0.1), b, 0.991, 0.991, 0.5, 0.5, 1.0)
        f1, f2, s_tx = gw_tx_survival(c, half1, half2)
        assert f1 == pytest.approx(np.full(6, 0.5))
        assert f2 == pytest.approx(np.full(6, 0.5))
        assert s_tx == pytest.approx(np.full(6, 0.25))

    def test_window_fraction_clamped_to_probability_range(self):
        # Vulnerability window longer than the whole renewal period.
        c = cfg(tau1=1)
        b = np.zeros(6)
        b[0] = 1.0
        sb = SubBandState(np.full(6, 5.0), b, 0.02, 0.041, 0.33, 0.67, 1.0)
        f1, _, s_tx = gw_tx_survival(c, sb, self._idle_band())
        assert np.all(f1 <= 1.0) and np.all(f1 >= 0.0)
        assert np.all(s_tx >= 0.0)


class TestAckInterference:
    def test_no_traffic_limit(self):
        c = cfg(lambda_total=0.0, m=1)
        got = ack_interference_survival(c, phy_rates(c, np.ones((6, 1))))
        assert got == pytest.approx(np.ones(6))

    def test_sf7_hand_value_with_tx_priority(self):
        c = cfg(lambda_total=3.0, alpha=1.0, p_confirmed=SF7_ONLY, tau1=1, m=1,
                w_ed=0.5682)
        rates = phy_rates(c, np.ones((6, 1)))
        assert rates.r_phy[0] == pytest.approx(1.0)
        got = float(ack_interference_survival(c, rates)[0])
        want = math.exp(-0.092) + 0.092 * math.exp(-0.092) * 0.5682
        assert got == pytest.approx(want, abs=1e-15)
        assert got == pytest.approx(0.9598, abs=5e-5)

    def test_no_capture_reduces_to_window_survival(self):
        c = cfg(lambda_total=3.0, alpha=1.0, p_confirmed=SF7_ONLY, tau1=1, m=1, w_ed=0.0)
        rates = phy_rates(c, np.ones((6, 1)))
        got = float(ack_interference_survival(c, rates)[0])
        assert got == pytest.approx(math.exp(-(0.041 + 0.051)), abs=1e-15)

    def test_truncated_at_one_under_reception_priority(self):
        # With tau1=0 the capture term is not gated, so the raw sum can top 1.
        c = cfg(lambda_total=0.3, alpha=1.0, p_confirmed=SF7_ONLY, tau1=0, m=1)
        rates = phy_rates(c, np.ones((6, 1)))
        got = ack_interference_survival(c, rates)
        assert np.all(got <= 1.0)


class TestDlSuccess:
    def _band(self, p_on, p_t):
        return SubBandState(np.zeros(6), np.zeros(6), 1.0, 1.0, p_on, 1.0 - p_on, p_t)

    def test_always_on_sb1_with_clean_ack(self):
        c = cfg()
        s_sb1, s_sb2, s_dl = dl_success(c, self._band(1.0, 1.0), self._band(1.0, 1.0),
                                        np.ones(6))
        assert np.all(s_sb1 == 1.0) and s_sb2 == 0.0
        assert s_dl == pytest.approx(np.ones(6))

    def test_sb2_only_path(self):
        c = cfg()
        s_sb1, s_sb2, s_dl = dl_success(c, self._band(0.0, 1.0), self._band(1.0, 1.0),
                                        np.ones(6))
        assert np.all(s_sb1 == 0.0) and s_sb2 == 1.0
        assert s_dl == pytest.approx(np.ones(6))

    def test_mixed_hand_value(self):
        c = cfg()
        _, _, s_dl = dl_success(c, self._band(0.6, 1.0), self._band(0.5, 1.0),
                                np.full(6, 0.9))
        assert s_dl == pytest.approx(np.full(6, 0.74), abs=1e-12)


class TestAttemptDistributions:
    def test_geometric_form(self):
        p_ul = attempt_distributions(np.full(6, 0.8), 3)
        assert p_ul[0, 1] == pytest.approx(0.16, abs=1e-15)

    def test_sums_match_brute_force(self):
        s_ul = np.array([0.9, 0.5, 0.2, 0.7, 0.01, 1.0])
        s_dl = np.array([0.5, 0.5, 0.9, 1.0, 0.3, 0.0])
        for m in (1, 2, 5, 8):
            p_ul = attempt_distributions(s_ul, m)
            p_dl = attempt_distributions(s_ul * s_dl, m)
            for i in range(6):
                brute_ul = sum(s_ul[i] * (1 - s_ul[i]) ** j for j in range(m))
                assert p_ul[i].sum() == pytest.approx(brute_ul, abs=1e-12)
                assert p_ul[i].sum() == pytest.approx(1 - (1 - s_ul[i]) ** m, abs=1e-12)
                q = s_ul[i] * s_dl[i]
                brute_dl = sum(q * (1 - q) ** j for j in range(m))
                assert p_dl[i].sum() == pytest.approx(brute_dl, abs=1e-12)

    def test_certain_success_concentrates_on_first_attempt(self):
        p_dl = attempt_distributions(np.ones(6), 4)
        assert p_dl[:, 0] == pytest.approx(np.ones(6))
        assert np.all(p_dl[:, 1:] == 0.0)

    def test_dl_never_beats_ul(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            s_ul = rng.uniform(0, 1, 6)
            s_dl = rng.uniform(0, 1, 6)
            p_ul = attempt_distributions(s_ul, 8)
            p_dl = attempt_distributions(s_ul * s_dl, 8)
            assert np.all(p_dl.sum(axis=1) <= p_ul.sum(axis=1) + 1e-12)


class TestSolve:
    def test_zero_load_converges_immediately_to_ones(self):
        state = solve(cfg(lambda_total=0.0, alpha=0.5, m=4))
        assert state.converged and state.iterations <= 2
        assert state.s_ul == pytest.approx(np.ones(6))
        assert state.s_dl == pytest.approx(np.ones(6))

    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    @pytest.mark.parametrize("lam", [1e-320, 1e-310, 1e-308])
    def test_tiny_load_reports_as_zero_load(self, lam, alpha):
        # 1/(c x ACK rate) overflows at these loads: the sub-bands count as idle.
        tiny, idle = cfg(lambda_total=lam, alpha=alpha), cfg(lambda_total=0.0, alpha=alpha)
        assert (metrics.compute_report(solve(tiny), tiny)
                == metrics.compute_report(solve(idle), idle))

    def test_update_identities_hold_at_fixed_point(self):
        state = solve(cfg(lambda_total=1.0, alpha=1.0, m=8))
        assert state.s_ul == pytest.approx(state.s_int * state.s_tx * state.demod.s_demod,
                                           abs=0.0)
        assert state.s_dl == pytest.approx(state.s_sb1 + state.s_sb2, abs=0.0)

    @pytest.mark.xfail(strict=True, reason=(
        "plain iteration oscillates: the sweep's Jacobian at this fixed point has "
        "the eigenvalue -1.389, so the iterate is repelled (residual 0.907 after "
        "1,000 sweeps)"))
    def test_oscillating_scenario_converges(self):
        state = solve(cfg(lambda_total=10.0, alpha=1.0, m=1, h=1,
                          delta_sb1=0.0, delta_sb2=0.0))
        assert state.converged and state.residual <= 1e-10

    def test_self_consistency_one_extra_sweep(self):
        for lam in (0.05, 0.5, 5.0):
            state = solve(cfg(lambda_total=lam, alpha=0.7, m=4, h=2), tol=1e-10)
            again = iterate(cfg(lambda_total=lam, alpha=0.7, m=4, h=2),
                            state.s_ul, state.s_dl)
            assert float(np.max(np.abs(again.s_ul - state.s_ul))) <= 1e-10
            assert float(np.max(np.abs(again.s_dl - state.s_dl))) <= 1e-10

    def test_residual_below_tolerance_when_converged(self):
        state = solve(cfg(lambda_total=2.0, alpha=1.0, m=8), tol=1e-10)
        assert state.converged
        assert state.residual <= 1e-10

    def test_non_convergence_reported_not_raised(self):
        state = solve(cfg(lambda_total=1.0, alpha=1.0, m=8), tol=1e-10, max_iter=3)
        assert not state.converged
        assert state.iterations == 3

    def test_invalid_controls_rejected(self):
        with pytest.raises(ValueError):
            solve(cfg(), tol=0.0)
        with pytest.raises(ValueError):
            solve(cfg(), max_iter=0)

    @pytest.mark.parametrize("start", [
        (np.ones(5), np.ones(6)),                   # wrong shape
        (np.ones(6), np.ones((2, 6))),
        (np.ones(6),),                              # not a pair
        (np.ones(6), np.ones(6), np.ones(6)),
        (np.full(6, np.nan), np.ones(6)),           # not finite
        (np.ones(6), np.full(6, np.inf)),
        (np.full(6, 1.5), np.ones(6)),              # outside [0, 1]
        (np.ones(6), np.full(6, -0.1)),
        (np.ones(6), [1, 1, "x", 1, 1, 1]),
    ])
    def test_invalid_start_rejected(self, start):
        with pytest.raises(ValidationError, match="start"):
            solve(cfg(), start=start)
        with pytest.raises(ValidationError, match="start"):
            solve_groups([cfg(), cfg(lambda_total=2.0)], start=start)

    def test_probability_ranges_over_random_configs(self):
        rng = np.random.default_rng(42)
        for _ in range(120):
            state = solve(random_config(rng), tol=1e-8)
            for name in ("s_ul", "s_dl", "s_int", "s_tx", "f_tx1", "f_tx2",
                         "s_int_ack1", "s_sb1"):
                vec = getattr(state, name)
                assert np.all(vec >= -1e-12) and np.all(vec <= 1.0 + 1e-12), name
            assert 0.0 <= state.s_sb2 <= 1.0
            assert 0.0 <= state.demod.s_demod <= 1.0

    def test_grid_continuity_under_small_load_perturbations(self):
        # No bistable jumps: a 1% lambda step moves the solution by <= 0.05.
        for lam in np.logspace(-2, 2, 25):
            base = solve(cfg(lambda_total=float(lam), alpha=1.0, m=8))
            bumped = solve(cfg(lambda_total=float(lam) * 1.01, alpha=1.0, m=8))
            assert float(np.max(np.abs(bumped.s_ul - base.s_ul))) <= 0.05
            assert float(np.max(np.abs(bumped.s_dl - base.s_dl))) <= 0.05


def sweep_jacobian(c, state, eps=1e-7):
    """dG/dz of the sweep G at ``state`` by forward differences of ``iterate``,
    rows and columns ordered (s_ul, s_dl)."""
    def g(z):
        swept = iterate(c, z[:6], z[6:])
        return np.concatenate([swept.s_ul, swept.s_dl])

    z = np.concatenate([state.s_ul, state.s_dl])
    steps = np.where(z > 0.5, -eps, eps)   # step into [0, 1]
    base = g(z)
    return np.array([(g(z + dz) - base) / dz[j]
                     for j, dz in enumerate(np.diag(steps))]).T


class TestChordSolve:
    """``solve`` with a Jacobian: chord steps z + (I - J)^-1 (G(z) - z)."""

    @pytest.mark.parametrize("lam", [1.0, 10.0])
    def test_line_search_candidates_meet_the_accuracy_gate(self, lam, monkeypatch):
        # Every line-search solve of an optimizer grid point, stepped with its
        # step's Jacobian, lands within 1e-10 of a plain solve to tol 1e-15.
        plain_solve, candidates = analytic.solve, []

        def recording(c, tol=analytic._TOL, max_iter=analytic._MAX_ITER, start=None,
                      jacobian=None):
            state = plain_solve(c, tol, max_iter, start, jacobian)
            if jacobian is not None:
                candidates.append((c, start, state))
            return state

        monkeypatch.setattr(analytic, "solve", recording)
        optimize(OptimizationProblem(cfg(alpha=0.3), lambdas=(lam,), m_grid=(8,), h_grid=(8,)))
        assert len(candidates) > 50
        for c, start, state in candidates:
            exact = plain_solve(c, tol=1e-15, start=start)
            assert state.converged and exact.converged
            assert np.max(np.abs(state.s_ul - exact.s_ul)) <= 1e-10
            assert np.max(np.abs(state.s_dl - exact.s_dl)) <= 1e-10

    def test_stalling_chord_steps_plainly(self, monkeypatch):
        # The first line-search candidate of the bench's lambda = 10 grid point
        # lies far from the point whose Jacobian steps it: its chord steps stall
        # (44 sweeps when they went on), so the solve steps plainly and takes
        # no more sweeps than plain iteration, as accurately.
        plain_solve, candidates = analytic.solve, []

        def recording(c, tol=analytic._TOL, max_iter=analytic._MAX_ITER, start=None,
                      jacobian=None):
            if jacobian is not None:
                candidates.append((c, start, jacobian))
            return plain_solve(c, tol, max_iter, start, jacobian)

        monkeypatch.setattr(analytic, "solve", recording)
        optimize(OptimizationProblem(cfg(alpha=0.3), lambdas=(10.0,), m_grid=(8,), h_grid=(8,)))
        c, start, jacobian = candidates[0]
        stepped = plain_solve(c, start=start, jacobian=jacobian)
        plain = plain_solve(c, start=start)
        exact = plain_solve(c, tol=1e-15, start=start)
        assert stepped.converged and exact.converged
        assert stepped.iterations <= plain.iterations
        assert np.max(np.abs(stepped.s_ul - exact.s_ul)) <= 1e-10
        assert np.max(np.abs(stepped.s_dl - exact.s_dl)) <= 1e-10

    def test_warm_stepped_solve_takes_fewer_sweeps(self):
        base = cfg(lambda_total=1.0, alpha=0.3, m=8, h=8)
        near = replace(base, lambda_total=1.05)
        state = solve(base)
        start = (state.s_ul, np.minimum(state.s_dl, 1.0))
        plain = solve(near, start=start)
        stepped = solve(near, start=start, jacobian=sweep_jacobian(base, state))
        assert plain.converged and stepped.converged
        assert stepped.iterations < plain.iterations
        assert stepped.residual <= 1e-10
        # The state is a sweep's own, not the stepped iterate.
        assert stepped.s_ul == pytest.approx(
            stepped.s_int * stepped.s_tx * stepped.demod.s_demod, abs=0.0)
        assert stepped.s_dl == pytest.approx(stepped.s_sb1 + stepped.s_sb2, abs=0.0)
        assert np.max(np.abs(stepped.s_ul - plain.s_ul)) <= 1e-9
        assert np.max(np.abs(stepped.s_dl - plain.s_dl)) <= 1e-9

    def test_non_convergence_reported_not_raised(self):
        c = cfg(lambda_total=1.0, alpha=1.0, m=8)
        state = solve(c, max_iter=3, jacobian=sweep_jacobian(c, solve(c)))
        assert not state.converged
        assert state.iterations == 3

    @pytest.mark.parametrize("jacobian", [
        np.zeros((12, 11)),                         # wrong shape
        np.zeros(12),
        np.zeros((2, 6, 6)),
        np.full((12, 12), np.nan),                  # not finite
        np.where(np.eye(12) > 0, np.inf, 0.0),
        np.eye(12),                                 # I - J singular
        [["x"] * 12] * 12,                          # not numbers
    ])
    def test_invalid_jacobian_rejected(self, jacobian):
        with pytest.raises(ValidationError, match="jacobian"):
            analytic._checked_start(1e-10, 10, None, jacobian)
        with pytest.raises(ValidationError, match="jacobian"):
            solve(cfg(), jacobian=jacobian)


BATCH_DISTRIBUTIONS = (SfDistribution.equal(), SfDistribution.explora(), SF7_ONLY,
                       SfDistribution((0.0, 0.0, 0.1, 0.2, 0.3, 0.4)))


def assert_same_state(got, want, rows=None):
    """Every field of two solver results is equal, bit for bit.

    ``rows`` selects the rows of the batched ``got`` that ``want`` holds.  A
    scalar that a batch shares across its rows equals every row of ``want``.
    """
    assert type(got) is type(want)
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if is_dataclass(b):
            assert_same_state(a, b, rows)
        elif np.ndim(a) == 0:
            assert np.array_equal(np.broadcast_to(a, np.shape(b)), b), f.name
        else:
            assert np.array_equal(a if rows is None else a[rows], b), f.name


def assert_groups_match_solves(cfgs, **kwargs):
    """Each group of ``solve_groups`` equals the stacked ``solve`` of its configs,
    and the groups hold every config once."""
    groups = solve_groups(cfgs, **kwargs)
    assert sorted(i for indices, *_ in groups for i in indices) == list(range(len(cfgs)))
    for indices, _, state, errors in groups:
        assert errors == {}
        assert_same_state(state, analytic._stack([solve(cfgs[i], **kwargs) for i in indices]))
    return groups


class TestSolverBits:
    """The solver's output bits on criterion 1's grid, pinned: a rewrite of the
    sweep that moves one bit or one sweep count fails here, not only in the
    benchmark's 1e-8 reference check."""

    def test_grid_states_and_sweep_counts_are_pinned(self):
        # ``make_golden.py --pins`` prints the literal: the one-row solves'
        # digest, then the batched solve's, which equals it.
        one_row, batched = make_golden.solver_digests()
        assert one_row == batched == \
            "171bd349fa4a4dc2f3706248b8b9b28db052809f28ce8ff4bb71fce69e07dd92"


class TestBatchedRows:
    """Rows solved together equal the scalar solve of each row."""

    @pytest.mark.parametrize("base, max_iter", [
        (cfg(lambda_total=1.0, alpha=0.3, m=8, h=8), 1000),
        (cfg(lambda_total=5.0, alpha=0.0, m=4, h=3), 1000),        # idle sub-bands
        (cfg(lambda_total=0.0, alpha=0.5, m=2), 1000),             # no traffic
        (cfg(lambda_total=2.0, alpha=1.0, m=8, tau1=0, tau2=0,
             delta_sb1=0.0, delta_sb2=0.0), 1000),
        (cfg(lambda_total=0.3, alpha=0.7, m=3, h=2, tau1=1, tau2=0, c_channels=1), 1000),
        (cfg(lambda_total=1.0, alpha=1.0, m=8), 4),                # stopped by max_iter
    ])
    def test_rows_match_scalar_solves(self, base, max_iter):
        cfgs = [replace(base, p_unconfirmed=p_u, p_confirmed=p_c)
                for p_u in BATCH_DISTRIBUTIONS for p_c in BATCH_DISTRIBUTIONS]
        assert_groups_match_solves(cfgs, max_iter=max_iter)

    def test_warm_started_rows_match_their_own_solves(self):
        base = cfg(lambda_total=1.0, alpha=0.3, m=8, h=8)
        near = solve(replace(base, lambda_total=1.1))
        start = (near.s_ul, near.s_dl)
        cfgs = [replace(base, p_unconfirmed=p_u, p_confirmed=p_c)
                for p_u in BATCH_DISTRIBUTIONS for p_c in BATCH_DISTRIBUTIONS]
        cfgs += [replace(base, m=4), replace(base, lambda_total=0.0)]
        assert len(assert_groups_match_solves(cfgs, start=start)) == 2   # m=4 is a group of one
        warm = solve(base, start=start)
        cold = solve(base)
        assert warm.iterations < cold.iterations
        assert np.max(np.abs(warm.s_ul - cold.s_ul)) <= 1e-9
        assert np.max(np.abs(warm.s_dl - cold.s_dl)) <= 1e-9
        # Starting from all-ones explicitly is the default path.
        assert_same_state(solve(base, start=(np.ones(6), np.ones(6))), cold)

    @pytest.mark.parametrize("max_iter", [1000, 6])
    def test_rows_differing_in_every_field_match_their_own_solves(self, max_iter):
        base = cfg(lambda_total=1.0, alpha=0.5, m=4, h=2)
        per_row = [replace(base, **{name: value})
                   for name, values in (("lambda_total", (0.0, 0.05, 3.0, 20.0)),
                                        ("alpha", (0.0, 0.3, 1.0)),
                                        ("h", (1, 8)),
                                        ("delta_sb1", (0.0, 9.0)),
                                        ("delta_sb2", (0.0, 99.0)),
                                        ("c_channels", (1, 2, 8)),
                                        ("w_gw", (0.0, 1.0)),
                                        ("w_ed", (0.0, 1.0)),
                                        ("p_confirmed", (SF7_ONLY,)))
                   for value in values]
        shape = [replace(base, m=1), replace(base, m=8), replace(base, tau1=0),
                 replace(base, tau2=0, c_channels=1), replace(base, n_demodulators=1)]
        rng = np.random.default_rng(7)
        cfgs = per_row + shape + [random_config(rng) for _ in range(20)]
        cfgs = [cfgs[i] for i in rng.permutation(len(cfgs))]   # groups interleave
        assert_groups_match_solves(cfgs, max_iter=max_iter)

    def test_failed_row_leaves_the_others_unchanged(self):
        base = cfg(lambda_total=1.0, alpha=0.3, m=8, h=8)
        cfgs = [replace(base, p_unconfirmed=d, p_confirmed=d) for d in BATCH_DISTRIBUTIONS]
        broken = list(cfgs)
        broken[1] = replace(cfgs[1])
        object.__setattr__(broken[1], "lambda_total", math.nan)
        [(_, _, clean, clean_errors)] = solve_groups(cfgs)
        [(_, _, mixed, errors)] = solve_groups(broken)
        assert clean_errors == {} and list(errors) == [1]
        assert str(errors[1]) == "non-finite value in r_phy"
        assert np.isnan(mixed.s_ul[1]).all() and not mixed.converged[1]
        for i in (0, 2, 3):
            assert np.array_equal(mixed.s_ul[i], clean.s_ul[i])
            assert np.array_equal(mixed.s_dl[i], clean.s_dl[i])
            assert mixed.iterations[i] == clean.iterations[i]

    def batch_rows(self):
        """Configs that form one batch but differ in every field the sweep reads per row."""
        base = cfg(lambda_total=1.0, alpha=0.5, m=4, h=2)
        return [replace(base, lambda_total=lam, alpha=alpha, delta_sb1=delta, c_channels=c,
                        w_gw=w, w_ed=1.0 - w, p_unconfirmed=p_u, p_confirmed=p_c)
                for lam, alpha, delta, c, w, p_u, p_c in zip(
                    (0.05, 1.0, 3.0, 20.0), (1.0, 0.3, 0.0, 0.7), (99.0, 9.0, 0.0, 99.0),
                    (3, 1, 2, 3), (0.1, 0.5, 1.0, 0.0), BATCH_DISTRIBUTIONS,
                    BATCH_DISTRIBUTIONS[::-1])]

    def test_batched_iterate_rows_equal_their_own_sweeps(self):
        cfgs = self.batch_rows()
        rng = np.random.default_rng(11)
        s_ul, s_dl = rng.uniform(0.2, 1.0, (2, len(cfgs), 6))
        batched = iterate(analytic._batch(cfgs), s_ul, s_dl)
        assert batched.s_ul.shape == (len(cfgs), 6)
        assert_same_state(batched, analytic._stack([iterate(c, s_ul[i], s_dl[i])
                                                    for i, c in enumerate(cfgs)]))

    def test_batched_iterate_raises_the_broken_rows_error(self, monkeypatch):
        sweep = analytic._sweep

        def breaking(cfg, app, s_ul, s_dl):
            fields, failures = sweep(cfg, app, s_ul, s_dl)
            return fields, {**failures, 2: "non-finite value in s_tx"}

        monkeypatch.setattr(analytic, "_sweep", breaking)
        with pytest.raises(ModelError, match="^non-finite value in s_tx$"):
            iterate(analytic._batch(self.batch_rows()), np.ones((4, 6)), np.ones((4, 6)))

    def test_broken_iterate_detected(self, monkeypatch):
        # ACK success above 1 is checked once, in the sweep: ``iterate`` raises,
        # ``solve`` raises it too, and ``solve_groups`` gives the ModelError of
        # each broken row.
        monkeypatch.setattr(analytic, "ack_interference_survival",
                            lambda cfg, rates: np.full(rates.r_phy.shape, 1.5))
        c = cfg(lambda_total=0.001, alpha=1.0)
        with pytest.raises(ModelError, match="exceeded 1"):
            iterate(c, np.ones(6), np.ones(6))
        with pytest.raises(ModelError, match="exceeded 1"):
            solve(c)
        [(indices, _, state, errors)] = solve_groups([c, replace(c, lambda_total=0.002)])
        assert indices == list(errors) == [0, 1]
        for error in errors.values():
            assert isinstance(error, ModelError) and "exceeded 1" in str(error)
        assert np.isnan(state.s_ul).all() and not state.converged.any()

    def test_broken_group_of_one_has_no_state(self):
        base = cfg(lambda_total=1.0, alpha=0.5, m=4)
        broken = replace(base, m=8)
        object.__setattr__(broken, "lambda_total", math.nan)
        groups = solve_groups([base, broken, replace(base, lambda_total=2.0)])
        assert [indices for indices, *_ in groups] == [[0, 2], [1]]
        [_, (_, batch, state, errors)] = groups
        assert state is None and batch.lambda_total.shape == (1,)
        assert list(errors) == [1] and isinstance(errors[1], ModelError)
        assert str(errors[1]) == "non-finite value in r_phy"
        assert groups[0][3] == {}


def state_arrays(state):
    """Every array field of a solver result, nested dataclasses included."""
    for f in fields(state):
        value = getattr(state, f.name)
        if is_dataclass(value):
            yield from state_arrays(value)
        elif isinstance(value, np.ndarray):
            yield value


def owns_its_rows(array) -> bool:
    """True when ``array`` is no view of a larger buffer: it owns its data, or
    views (e.g. transposes) an array of its own size."""
    return array.base is None or array.base.size == array.size


class TestBatchOutput:
    """A batch's output is one sweep of the whole batch, one row per config."""

    def test_output_owns_one_array_per_field(self):
        # Rows finish over many sweeps; the output's arrays hold a row for
        # every config and no sweep's larger buffer.
        cfgs = [cfg(lambda_total=lam, alpha=1.0) for lam in np.logspace(-2, 2, 2000)]
        [(_, _, state, errors)] = solve_groups(cfgs)
        assert errors == {} and len(set(state.iterations.tolist())) > 10
        for array in state_arrays(state):
            assert owns_its_rows(array) and array.shape[0] == len(cfgs)
        # A row subset of a sweep's array would fail the check.
        assert not owns_its_rows(state.s_ul[:-1])
        assert not owns_its_rows(state.demod.e_avail[:-1])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("tau", [0, 1])
    def test_broken_row_reads_nan_in_every_array(self, tau):
        # Row 0 breaks on its NaN rate, row 2 on an overflow: every float
        # array reads NaN in their rows, nested ones included.
        base = cfg(lambda_total=1.0, alpha=1.0, tau1=tau, tau2=tau)
        cfgs = [replace(base, lambda_total=lam) for lam in (0.1, 1.0, 1e308, 10.0)]
        object.__setattr__(cfgs[0], "lambda_total", math.nan)
        [(_, _, state, errors)] = solve_groups(cfgs)
        assert sorted(errors) == [0, 2]
        for array in state_arrays(state):
            if array.dtype.kind == "f" and array.ndim > 0:
                assert np.isnan(array[[0, 2]]).all()
                assert not np.isnan(array[[1, 3]]).any()
        assert state.iterations.tolist()[::2] == [0, 0]
        assert not state.converged[[0, 2]].any() and state.converged[[1, 3]].all()

    def test_groups_hold_the_rows_of_their_solves(self):
        base = cfg(lambda_total=1.0, alpha=0.5, m=4, h=2)
        cfgs = [replace(base, lambda_total=lam) for lam in (0.1, 1.0, 10.0)]
        cfgs.insert(1, replace(base, m=8))   # a group of one
        cfgs.append(replace(cfgs[0]))
        object.__setattr__(cfgs[-1], "lambda_total", math.nan)
        groups = solve_groups(cfgs, max_iter=30)
        assert [indices for indices, *_ in groups] == [[0, 2, 3, 4], [1]]
        for indices, batch, state, errors in groups:
            assert state.s_ul.shape == (len(indices), 6)
            assert batch.lambda_total.shape == (len(indices),)
            solved = [j for j, i in enumerate(indices) if i not in errors]
            assert_same_state(state, analytic._stack([solve(cfgs[indices[j]], max_iter=30)
                                                      for j in solved]), solved)
            for j, i in enumerate(indices):
                if i in errors:
                    assert str(errors[i]) == "non-finite value in r_phy"
                    assert np.isnan(state.s_ul[j]).all() and not state.converged[j]
        # Solver fields are arrays of the one-row solve's types.
        state = groups[0][2]
        assert [getattr(state, name).dtype.kind for name in ("iterations", "residual",
                                                             "converged")] == ["i", "f", "b"]
        assert np.ndim(state.sb1.p_t) == 0 and state.sb1.p_t == 1.0   # a shared scalar


#: The model functions one sweep composes, each called once per sweep.
SWEEP_TERMS = ("phy_rates", "demod_chain", "subband_states", "interference_survival",
               "gw_tx_survival", "ack_interference_survival", "attempt_distributions",
               "dl_success")


class TestSweepComposition:
    """The sweep calls every model term through the module, once per sweep."""

    def count_calls(self, monkeypatch):
        calls = dict.fromkeys(SWEEP_TERMS, 0)
        for name in SWEEP_TERMS:
            def counted(*args, _name=name, _fn=getattr(analytic, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(analytic, name, counted)
        return calls

    def test_one_row_solve_calls_each_term_once_per_sweep(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        state = solve(cfg(lambda_total=1.0, alpha=1.0, m=8))
        assert state.iterations > 1
        assert calls == dict.fromkeys(SWEEP_TERMS, state.iterations)

    def test_batch_calls_each_term_once_per_batch_sweep(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        [(*_, state, _)] = solve_groups([cfg(lambda_total=lam, alpha=0.5, m=4)
                                         for lam in (0.1, 1.0, 5.0)])
        sweeps = int(state.iterations.max())
        assert len(set(state.iterations.tolist())) > 1   # rows freeze at different sweeps
        # One more sweep of the whole batch builds its output.
        assert calls == dict.fromkeys(SWEEP_TERMS, sweeps + 1)


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=1, max_value=12))
@settings(max_examples=80)
def test_attempt_rows_are_probability_masses(su, sd, m):
    p_ul = attempt_distributions(np.full(6, su), m)
    p_dl = attempt_distributions(np.full(6, su * sd), m)
    for p in (p_ul, p_dl):
        assert np.all(p >= 0.0)
        assert np.all(p.sum(axis=1) <= 1.0 + 1e-12)
