"""Simulator invariants: determinism, conservation, duty-cycle audit, limits."""

import concurrent.futures
import dataclasses
import gc
import hashlib
import heapq
import math
import multiprocessing
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

import loracell
from loracell import analytic, metrics
from loracell import optimize as optimize_mod
from loracell import simulate as simulate_mod
from loracell.scenario import N_SF, ScenarioConfig, SfDistribution, ValidationError
from loracell.simulate import (
    _BLOCK,
    _MAX_REPLICATIONS,
    SimConfig,
    SimulationError,
    _max_concurrent_power,
    _Chain,
    _Device,
    _Tx,
    _summary,
    _t975,
    place_devices,
    run,
)

from conftest import make_golden

SF7_ONLY = SfDistribution((1.0, 0.0, 0.0, 0.0, 0.0, 0.0))


def sim(scenario_kw=None, **kw):
    scenario = ScenarioConfig(**(scenario_kw or {}))
    defaults = dict(n_devices=50, sim_duration=400.0, warmup=50.0, seed=123,
                    n_replications=2)
    defaults.update(kw)
    return SimConfig(scenario=scenario, **defaults)


class TestConfig:
    def test_zero_replications_rejected(self):
        with pytest.raises(ValidationError, match="n_replications"):
            sim(n_replications=0)

    def test_warmup_must_fit_in_duration(self):
        with pytest.raises(ValidationError, match="warmup"):
            sim(sim_duration=100.0, warmup=100.0)

    def test_unknown_models_rejected(self):
        with pytest.raises(ValidationError):
            sim(arrival_model="bursty")
        with pytest.raises(ValidationError):
            sim(capture_model="magic")

    @pytest.mark.parametrize("kw, message", [
        ({"n_devices": 20.5}, "n_devices must be an integer"),
        ({"n_devices": True}, "n_devices must be an integer"),
        ({"n_replications": 1.5}, "n_replications must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": "3"}, "seed must be an integer"),
        ({"radius_m": "far"}, "radius_m must be a number"),
        ({"radius_m": -math.inf}, "radius_m must be finite"),
        ({"sim_duration": -math.inf}, "sim_duration must be finite"),
        ({"warmup": math.nan}, "warmup must be finite"),
    ])
    def test_bad_setting_rejected_at_construction(self, kw, message):
        with pytest.raises(ValidationError, match=message):
            sim(**kw)

    def test_counts_stored_as_ints_and_times_as_floats(self):
        cfg = sim(n_devices=np.int64(20), seed=7.0, sim_duration=400, warmup=50)
        assert (type(cfg.n_devices), type(cfg.seed)) == (int, int)
        assert (type(cfg.sim_duration), type(cfg.warmup)) == (float, float)

    def test_device_count_capped(self):
        # Checked at construction only: a billion devices would need hundreds of GB.
        with pytest.raises(ValidationError, match="n_devices must be <= 1000000, got 1000000000"):
            sim(n_devices=10**9)
        assert sim(n_devices=10**6).n_devices == 10**6

    def test_replication_count_capped_at_the_t_table(self):
        with pytest.raises(ValidationError, match="n_replications must be <= 1000, got 1001"):
            sim(n_replications=1001)
        assert sim(n_replications=1000).n_replications == 1000

    def test_default_warmup_scales_with_slowest_retransmission_cycle(self):
        cfg = SimConfig(scenario=ScenarioConfig(delta_sb1=99.0, mu_retx=2.0),
                        sim_duration=20000.0)
        assert cfg.resolved_warmup() == pytest.approx(10 * (100 * 1.318 + 2.0))


class TestPlacement:
    def test_positions_inside_radius(self):
        cfg = sim(radius_m=800.0)
        x, y, _, _ = place_devices(cfg, seed=4)
        assert np.all(np.hypot(x, y) <= 800.0 + 1e-9)

    def test_all_confirmed_when_alpha_is_one(self):
        cfg = sim(scenario_kw={"alpha": 1.0})
        _, _, confirmed, _ = place_devices(cfg, seed=4)
        assert np.all(confirmed)

    def test_sf_histogram_matches_distribution(self):
        explora = SfDistribution.explora()
        cfg = sim(scenario_kw={"alpha": 0.0, "p_unconfirmed": explora},
                  n_devices=100_000)
        _, _, _, sf_idx = place_devices(cfg, seed=10)
        hist = np.bincount(sf_idx, minlength=6) / 100_000
        assert hist == pytest.approx(np.asarray(explora.p), abs=1e-5)

    @staticmethod
    def class_counts(cfg) -> list[int]:
        """Devices per (type, SF) class: unconfirmed SF7 ... SF12, then confirmed."""
        _, _, confirmed, sf_idx = place_devices(cfg, seed=4)
        return np.bincount(sf_idx + N_SF * confirmed, minlength=2 * N_SF).tolist()

    @pytest.mark.parametrize("alpha, n, counts", [
        (1.0, 1200, [0] * 6 + [200] * 6),
        (0.5, 1200, [100] * 12),
        # Every quota is 7/12: the seven largest remainders tie, and the earliest win.
        (0.5, 7, [1] * 7 + [0] * 5),
        (0.0, 1, [1] + [0] * 11),
    ])
    def test_counts_are_exact_where_quotas_say(self, alpha, n, counts):
        assert self.class_counts(sim(scenario_kw={"alpha": alpha}, n_devices=n)) == counts

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1 / 3])
    @pytest.mark.parametrize("n", [1, 5, 50, 1201])
    def test_counts_are_largest_remainder_quotas(self, alpha, n):
        explora = SfDistribution.explora()
        cfg = sim(scenario_kw={"alpha": alpha, "p_confirmed": explora}, n_devices=n)
        counts = np.array(self.class_counts(cfg))
        quotas = n * np.concatenate([(1 - alpha) * np.full(N_SF, 1 / N_SF),
                                     alpha * np.asarray(explora.p)])
        assert counts.sum() == n
        assert np.all(np.abs(counts - quotas) < 1)
        # A class rounded up keeps a remainder no smaller than any class rounded down.
        rounded_up = counts > quotas
        if rounded_up.any() and not rounded_up.all():
            remainders = quotas - np.floor(quotas)
            assert remainders[rounded_up].min() >= remainders[~rounded_up].max() - 1e-9


class TestDeterminism:
    def test_identical_seed_bit_identical_report(self):
        cfg = sim(scenario_kw={"lambda_total": 2.0, "alpha": 0.5, "m": 2},
                  n_replications=2)
        assert run(cfg) == run(cfg)

    def test_different_seeds_differ(self):
        base = {"scenario_kw": {"lambda_total": 2.0, "alpha": 0.5, "m": 2}}
        a = run(sim(seed=1, **base))
        b = run(sim(seed=2, **base))
        assert a.replications != b.replications

    @pytest.mark.parametrize("capture", ["probabilistic", "geometric"])
    def test_worker_pool_matches_serial(self, capture):
        # Eleven replications are three chains of 3, 4 and 4.
        cfg = sim(scenario_kw={"lambda_total": 2.0, "alpha": 0.5, "m": 2},
                  capture_model=capture, n_replications=11)
        assert [len(chain) for chain in cfg.chains()] == [3, 4, 4]
        serial = run(cfg, workers=1)
        for workers in (None, 2, 3, 16):
            assert run(cfg, workers=workers) == serial


#: ``multiprocessing.active_children()`` counts seen by ``_counting_run_chain``
#: and ``_counting_solve_grid_point``.  They are module-level so that the pool
#: can pickle the patched function.
_children_seen: list[int] = []
_plain_run_chain = simulate_mod._run_chain
_plain_solve_grid_point = optimize_mod._solve_grid_point


def _counting_run_chain(job):
    _children_seen.append(len(multiprocessing.active_children()))
    return _plain_run_chain(job)


def _counting_solve_grid_point(job):
    _children_seen.append(len(multiprocessing.active_children()))
    return _plain_solve_grid_point(job)


class TestWorkers:
    # Three chains of five replications.
    CFG = sim(scenario_kw={"lambda_total": 2.0, "alpha": 0.5, "m": 2}, n_replications=15)
    # Two grid points: the caller solves m=1 and a pool of one solves m=2.
    PROBLEM = optimize_mod.OptimizationProblem(
        base_cfg=ScenarioConfig(alpha=0.3), lambdas=(1.0,), m_grid=(1, 2), h_grid=(1,),
        max_ascent_iters=2)

    def test_worker_count_is_capped_at_the_chains(self, monkeypatch):
        # The caller runs one chain and a pool of two the others.
        monkeypatch.setattr(simulate_mod, "_run_chain", _counting_run_chain)
        _children_seen.clear()
        run(self.CFG, workers=16)
        assert _children_seen and max(_children_seen) <= 2
        assert multiprocessing.active_children() == []

    def test_optimizer_worker_count_is_capped_at_the_grid(self, monkeypatch):
        monkeypatch.setattr(optimize_mod, "_solve_grid_point", _counting_solve_grid_point)
        _children_seen.clear()
        optimize_mod.optimize(self.PROBLEM, workers=16)
        assert _children_seen and max(_children_seen) <= 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [0, -2])
    def test_fewer_than_one_worker_rejected(self, workers):
        with pytest.raises(ValidationError, match="workers"):
            run(self.CFG, workers=workers)
        with pytest.raises(ValidationError, match="workers"):
            optimize_mod.optimize(self.PROBLEM, workers=workers)

    def test_warmup_that_does_not_fit_fails_before_any_fork(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        cfg = SimConfig(scenario=ScenarioConfig(), sim_duration=100.0, n_replications=15)
        with pytest.raises(ValidationError, match="warmup"):
            run(cfg, workers=3)

    @pytest.mark.parametrize("failing, where", [(2, "a worker's share"),
                                                (0, "the caller's share")])
    def test_error_crosses_back_and_no_child_outlives_run(self, monkeypatch, failing, where):
        plain = _Chain.run

        def failing_run(self):
            if self.index == failing:
                raise SimulationError(f"synthetic failure in {where}")
            return plain(self)

        monkeypatch.setattr(_Chain, "run", failing_run)
        with pytest.raises(SimulationError, match=f"synthetic failure in {where}"):
            run(self.CFG, workers=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failing, where", [(2, "a worker's share"),
                                                (1, "the caller's share")])
    def test_error_crosses_back_and_no_child_outlives_optimize(self, monkeypatch, failing,
                                                                where):
        plain = optimize_mod._ascend

        def failing_ascend(evaluate, x0, problem):
            if evaluate.cfg.m == failing:
                raise analytic.ModelError(f"synthetic failure in {where}")
            return plain(evaluate, x0, problem)

        monkeypatch.setattr(optimize_mod, "_ascend", failing_ascend)
        with pytest.raises(analytic.ModelError, match=f"synthetic failure in {where}"):
            optimize_mod.optimize(self.PROBLEM, workers=2)
        assert multiprocessing.active_children() == []

    def test_traced_run_stays_in_one_process(self, monkeypatch, tmp_path):
        monkeypatch.setattr(simulate_mod, "_run_chain", _counting_run_chain)
        _children_seen.clear()
        run(dataclasses.replace(self.CFG, trace_path=str(tmp_path / "events.log")),
            workers=None)
        assert _children_seen == [0, 0, 0]


class TestBlockBoundaries:
    def test_streams_refill_deterministically(self):
        # Enough transmissions that every replication draws more than one
        # block of channel numbers.
        cfg = sim(scenario_kw={"lambda_total": 10.0, "alpha": 0.5, "m": 2},
                  n_devices=200, sim_duration=600.0, warmup=10.0, n_replications=2)
        report = run(cfg)
        assert all(sum(rep.offered_phy) > _BLOCK for rep in report.replications)
        assert run(cfg) == report
        assert run(cfg, workers=2) == report
        for rep in report.replications:
            for i in range(6):
                total = (rep.delivered_phy[i] + rep.lost_interference[i]
                         + rep.lost_gwtx[i] + rep.lost_nmd[i])
                assert total == rep.offered_phy[i]

    @pytest.mark.parametrize("capture", ["probabilistic", "geometric"])
    def test_finished_replication_freed_without_cycle_collector(self, capture):
        # The stream closures must not capture the replication: a cycle
        # would keep every finished replication alive until the collector runs.
        cfg = sim(scenario_kw={"lambda_total": 2.0, "alpha": 0.5, "m": 2},
                  capture_model=capture)
        gc.disable()
        try:
            rep = _Chain(cfg, np.random.default_rng(1), 0, range(1))
            rep.run()
            ref = weakref.ref(rep)
            del rep
            assert ref() is None
        finally:
            gc.enable()


class TestRetransmissionTimeout:
    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_mean_is_mu_retx(self, mu):
        cfg = sim(scenario_kw={"mu_retx": mu})
        rep = _Chain(cfg, np.random.default_rng(1), 0, range(1))
        # 0.01 is at least five standard errors of the mean of 102,400 draws.
        draws = np.array([rep.next_timeout() for _ in range(100 * _BLOCK)])
        assert draws.min() >= 0.0
        assert draws.mean() == pytest.approx(mu, abs=0.01)

    def test_zero_mean_draws_zero(self):
        rep = _Chain(sim(scenario_kw={"mu_retx": 0.0}), np.random.default_rng(1), 0, range(1))
        assert {rep.next_timeout() for _ in range(2 * _BLOCK)} == {0.0}


class TestDegenerateCells:
    def test_zero_load_runs_and_flags_metrics_undefined(self):
        report = run(sim(scenario_kw={"lambda_total": 0.0}))
        assert report.offered_app == 0
        assert report.uu.mean is None
        assert report.cd.mean is None
        assert report.f_int.mean is None
        assert report.jain.mean is None

    def test_single_device_uncontended_always_acknowledged(self):
        report = run(sim(
            scenario_kw={"lambda_total": 0.01, "alpha": 1.0, "m": 1,
                         "p_confirmed": SF7_ONLY},
            n_devices=1, sim_duration=5000.0, warmup=10.0, n_replications=2))
        assert report.offered_app > 0
        assert report.cd.mean == pytest.approx(1.0)
        assert report.f_int.mean == 0.0
        # The lone ACK rides the first receive window: airtime + 1 s + ACK airtime.
        assert report.delta_dl.mean == pytest.approx(0.051 + 1.0 + 0.041, abs=1e-6)


class TestConservation:
    @pytest.mark.parametrize("capture", ["probabilistic", "geometric"])
    def test_every_phy_packet_classified_once(self, capture):
        report = run(sim(scenario_kw={"lambda_total": 8.0, "alpha": 0.6, "m": 3,
                                      "h": 2},
                         n_devices=150, capture_model=capture,
                         sim_duration=300.0, warmup=20.0))
        for rep in report.replications:
            for i in range(6):
                total = (rep.delivered_phy[i] + rep.lost_interference[i]
                         + rep.lost_gwtx[i] + rep.lost_nmd[i])
                assert total == rep.offered_phy[i]

    def test_app_counts_consistent(self):
        report = run(sim(scenario_kw={"lambda_total": 6.0, "alpha": 0.5, "m": 4},
                         n_devices=120, sim_duration=400.0, warmup=20.0))
        for rep in report.replications:
            for i in range(6):
                assert rep.delivered_app_u[i] <= rep.offered_app_u[i]
                assert rep.acked_app_c[i] <= rep.delivered_app_c[i] <= rep.offered_app_c[i]

    def test_no_duty_cycle_violations(self):
        report = run(sim(scenario_kw={"lambda_total": 10.0, "alpha": 1.0, "m": 4},
                         n_devices=100, sim_duration=300.0, warmup=10.0))
        assert report.dc_violations == 0

    def test_loss_breakdown_partitions_phy_outcomes(self):
        report = run(sim(scenario_kw={"lambda_total": 8.0, "alpha": 1.0, "m": 2},
                         n_devices=100, sim_duration=300.0, warmup=10.0))
        # Every offered PHY transmission is delivered or lost to exactly one cause.
        assert report.offered_phy > 0
        assert (report.lost_nmd + report.lost_gwtx + report.lost_interference
                + report.delivered_phy == report.offered_phy)


class TestBatches:
    """A run's replications are the batches of its chains."""

    # Confirmed packets with retransmissions and unconfirmed copies straddle
    # every boundary: four 250 s batches in one chain.
    CELL = {"lambda_total": 4.0, "alpha": 0.6, "m": 4, "h": 2}

    @pytest.mark.parametrize("capture", ["probabilistic", "geometric"])
    def test_batch_counts_what_a_chain_of_one_counts_from_its_start(self, capture):
        # Counting does not steer the cell, so batch j sees the traffic of a
        # one-batch chain whose warmup runs up to the batch's start.
        cfg = sim(scenario_kw=self.CELL, n_devices=100, capture_model=capture,
                  sim_duration=300.0, warmup=50.0, n_replications=4)
        batches = run(cfg).replications
        for j, batch in enumerate(batches):
            start = 50.0 + 250.0 * j
            alone = run(dataclasses.replace(cfg, warmup=start, sim_duration=start + 250.0,
                                            n_replications=1)).replications[0]
            assert sum(alone.offered_app_c) > 0
            assert dataclasses.replace(alone, seed=j, events=0) == \
                dataclasses.replace(batch, events=0)

    def test_first_chain_does_not_depend_on_the_others(self):
        # Seven replications are chains of three and four; three are one chain.
        cfg = sim(scenario_kw=self.CELL, n_devices=100, sim_duration=300.0, warmup=50.0,
                  n_replications=7)
        seven = run(cfg).replications
        assert [rep.chain for rep in seven] == [0, 0, 0, 1, 1, 1, 1]
        assert [rep.seed for rep in seven] == list(range(7))
        assert seven[:3] == run(dataclasses.replace(cfg, n_replications=3)).replications
        assert seven[3:] != seven[:4]

    @pytest.mark.parametrize("capture", ["probabilistic", "geometric"])
    def test_every_batch_conserves_packets(self, capture):
        report = run(sim(scenario_kw=self.CELL, n_devices=100, capture_model=capture,
                         sim_duration=300.0, warmup=50.0, n_replications=7))
        for rep in report.replications:
            assert sum(rep.offered_app_u) > 0 and sum(rep.offered_app_c) > 0
            for i in range(N_SF):
                assert (rep.delivered_phy[i] + rep.lost_interference[i] + rep.lost_gwtx[i]
                        + rep.lost_nmd[i]) == rep.offered_phy[i]
                assert rep.delivered_app_u[i] <= rep.offered_app_u[i]
                assert rep.acked_app_c[i] <= rep.delivered_app_c[i] <= rep.offered_app_c[i]
                # Every offered packet makes its first attempt in the batch.
                assert rep.offered_app_u[i] + rep.offered_app_c[i] <= rep.offered_phy[i]
            assert rep.dc_violations == 0

    def test_events_of_a_chain_add_up(self, monkeypatch):
        # A batch counts the events of its window, the first batch the warmup's
        # too and the last the tail's, so a chain's batches share its events.
        popped = []

        def counting_heappop(heap):
            popped.append(None)
            return heapq.heappop(heap)

        cfg = sim(scenario_kw=self.CELL, n_devices=100, sim_duration=300.0, warmup=50.0,
                  n_replications=3)
        monkeypatch.setattr(simulate_mod, "heappop", counting_heappop)
        report = run(cfg)
        monkeypatch.undo()
        total = sum(rep.events for rep in report.replications)
        assert total == len(popped)
        # The budget is per replication: a chain of three may handle three times it.
        monkeypatch.setattr(simulate_mod, "_MAX_EVENTS", -(-total // 3))
        assert run(cfg) == report
        monkeypatch.setattr(simulate_mod, "_MAX_EVENTS", -(-total // 3) - 1)
        with pytest.raises(SimulationError, match="event budget exceeded"):
            run(cfg)

    def test_short_batches_agree_with_a_long_chain_on_cd(self):
        # The tail stays loaded, so the packets at a chain's end meet the same
        # load as the others: eleven 50 s batches (three chains, so three of
        # them end a chain) give the CD of one chain of five 1500 s batches.
        # A tail without arrivals reads 0.12 higher here.
        scenario = {"lambda_total": 1.0, "alpha": 1.0, "m": 8}
        short = run(sim(scenario_kw=scenario, n_devices=200, sim_duration=150.0,
                        warmup=100.0, n_replications=11, seed=5))
        long = run(sim(scenario_kw=scenario, n_devices=200, sim_duration=1600.0,
                       warmup=100.0, n_replications=5, seed=6))
        assert len({rep.chain for rep in long.replications}) == 1
        assert abs(short.cd.mean - long.cd.mean) <= short.cd.halfwidth + long.cd.halfwidth


class TestDutyCycleThrottling:
    def test_device_airtime_share_respects_limit(self):
        # Saturated unconfirmed traffic: per-device airtime stays within the
        # 1/(1+delta) allowance implied by the silence rule.
        delta = 99.0
        report = run(sim(scenario_kw={"lambda_total": 50.0, "alpha": 0.0, "h": 1,
                                      "p_unconfirmed": SF7_ONLY,
                                      "delta_sb1": delta},
                         n_devices=10, sim_duration=500.0, warmup=0.0,
                         n_replications=1))
        rep = report.replications[0]
        airtime = rep.offered_phy[0] * 0.051
        window = 500.0 + 2.0  # transmissions may start up to the horizon
        assert airtime / (10 * window) <= 1.0 / (1.0 + delta) + 1e-3
        assert rep.dc_violations == 0


class TestReceiveWindows:
    """A class A device sends no new uplink while its receive windows are
    open: not before RX2 has passed, 2 s after its last uplink ended, unless
    an ACK has been received, and then not before that ACK has ended."""

    @staticmethod
    def early_starts(path) -> tuple[int, int]:
        """Uplinks that start inside their device's previous windows, and all uplinks."""
        closes: dict[str, float] = {}
        early = starts = 0
        for line in path.read_text().splitlines():
            time, device, _, _, kind, *outcome = line.split()
            if kind == "ul_start":
                starts += 1
                early += float(time) < closes.get(device, 0.0) - 1e-6   # 6-decimal trace
            elif kind == "ul_end":
                closes[device] = float(time) + 2.0
            elif kind in ("ack1_end", "ack2_end") and outcome == ["received"]:
                closes[device] = float(time)
        return early, starts

    @pytest.mark.parametrize("traffic", [{"alpha": 0.0, "h": 1}, {"alpha": 1.0, "m": 1}],
                             ids=["unconfirmed", "confirmed"])
    def test_no_uplink_starts_inside_the_previous_windows(self, tmp_path, traffic):
        # Without a duty cycle nothing else keeps a busy device quiet for 2 s
        # after a packet that ends without an ACK.
        path = tmp_path / "events.log"
        run(sim(scenario_kw={"lambda_total": 20.0, "delta_sb1": 0.0, "delta_sb2": 0.0,
                             **traffic},
                sim_duration=150.0, warmup=20.0, seed=3, n_replications=1,
                trace_path=str(path)))
        early, starts = self.early_starts(path)
        assert starts > 1000
        assert early == 0


class TestPureAlohaLimit:
    def test_interference_survival_approaches_closed_form(self):
        # No capture, one SF, no downlink: survival should track exp(-2TR).
        cfg = sim(scenario_kw={"lambda_total": 5.0, "alpha": 0.0, "h": 1,
                               "w_gw": 0.0, "p_unconfirmed": SF7_ONLY},
                  n_devices=400, sim_duration=1500.0, warmup=50.0,
                  n_replications=3, seed=11)
        report = run(cfg)
        offered = report.offered_phy
        decodable = offered - report.lost_nmd - report.lost_gwtx
        survival = report.delivered_phy / decodable
        window = 1500.0 - 50.0
        rate_per_channel = offered / (3 * 3.0 * window)
        expected = math.exp(-2 * 0.051 * rate_per_channel)
        assert survival == pytest.approx(expected, abs=0.03)


class TestGeometricCapture:
    def test_runs_and_respects_margin_semantics(self):
        report = run(sim(scenario_kw={"lambda_total": 12.0, "alpha": 0.0, "h": 1,
                                      "p_unconfirmed": SF7_ONLY},
                         capture_model="geometric", n_devices=200,
                         sim_duration=300.0, warmup=10.0, n_replications=1))
        rep = report.replications[0]
        assert sum(rep.offered_phy) > 0
        # Collisions resolved by power comparison still lose some packets.
        assert sum(rep.lost_interference) > 0
        assert sum(rep.delivered_phy) > 0

    def test_zero_margin_resolves_every_two_packet_overlap(self):
        # With cr_db = -300 dB any signal clears the margin, so interference
        # can only destroy... nothing: every reception survives.
        report = run(sim(scenario_kw={"lambda_total": 12.0, "alpha": 0.0, "h": 1,
                                      "p_unconfirmed": SF7_ONLY},
                         capture_model="geometric", cr_db=-300.0, n_devices=200,
                         sim_duration=200.0, warmup=10.0, n_replications=1))
        assert report.lost_interference == 0

    def test_confirmed_geometric_cell_delivers_acks(self):
        # Exercises the device-side power comparison for first-window ACKs.
        report = run(sim(scenario_kw={"lambda_total": 2.0, "alpha": 1.0, "m": 2},
                         capture_model="geometric", n_devices=150,
                         sim_duration=500.0, warmup=20.0, n_replications=1))
        rep = report.replications[0]
        assert rep.dl_sb1_sent + rep.dl_sb2_sent > 0
        assert sum(rep.acked_app_c) > 0
        assert report.dc_violations == 0


class TestDemodulatorExhaustion:
    def test_blocking_matches_analytic_chain_under_open_load(self):
        # Enough devices that per-device duty cycling does not throttle the
        # offered load; with two demodulators the blocking share is large and
        # should track the analytic occupancy chain.
        scenario = ScenarioConfig(lambda_total=30.0, alpha=0.0, h=1,
                                  n_demodulators=2)
        model = metrics.compute_report(analytic.solve(scenario), scenario)
        report = run(SimConfig(scenario=scenario, n_devices=6000,
                               sim_duration=400.0, warmup=50.0, seed=77,
                               n_replications=2))
        assert report.f_nmd.mean == pytest.approx(model.f_nmd, abs=0.03)
        assert report.f_int.mean == pytest.approx(model.f_int, abs=0.03)


class TestModelAgreement:
    def test_small_cell_matches_analytic_oracle(self):
        scenario = ScenarioConfig(lambda_total=1.0, alpha=1.0, m=1)
        state = analytic.solve(scenario)
        report_model = metrics.compute_report(state, scenario)
        report_sim = run(SimConfig(scenario=scenario, n_devices=400,
                                   sim_duration=2500.0, warmup=300.0, seed=3,
                                   n_replications=3))
        assert report_sim.cu.mean == pytest.approx(report_model.cu, abs=0.05)
        assert report_sim.cd.mean == pytest.approx(report_model.cd, abs=0.05)


class TestSummary:
    @pytest.mark.parametrize("n", range(2, 31))
    def test_halfwidth_is_students_t_interval(self, n):
        values = [float(v) for v in np.random.default_rng(n).normal(0.5, 0.1, n)]
        sd = float(np.std(values, ddof=1))
        expected = float(stats.t.ppf(0.975, n - 1) * sd / math.sqrt(n))
        assert _summary(values).halfwidth == expected

    def test_t_table_holds_scipys_quantiles_up_to_the_replication_bound(self):
        table = _t975()
        assert len(table) == _MAX_REPLICATIONS - 1
        assert table == tuple(float(special.stdtrit(df, 0.975))
                              for df in range(1, _MAX_REPLICATIONS))

    def test_importing_the_package_leaves_scipy_unloaded(self, tmp_path):
        # Nor does a simulation or a ``compare``: their intervals read the table.
        out = _python(
            "import sys, loracell",
            "print('scipy' in sys.modules)",
            "from loracell import cli, simulate",
            "from loracell.scenario import ScenarioConfig",
            "simulate.run(simulate.SimConfig(ScenarioConfig(), n_devices=20, sim_duration=100.0,"
            " warmup=10.0, n_replications=2))",
            "print('scipy' in sys.modules)",
            "code = cli.main(['compare', '--devices', '20', '--duration', '100', '--warmup', '10',"
            f" '--replications', '2', '--workers', '1', '--out', {str(tmp_path / 'c.csv')!r}])",
            "print(code, 'scipy' in sys.modules)")
        assert out.split("\n") == ["False", "False", "0 False"]

    def test_importing_the_package_leaves_the_optimizer_and_simulator_unloaded(self):
        out = _python(
            "import sys, loracell",
            "print(sorted(m for m in sys.modules if m.startswith('loracell.')))",
            "print(all(getattr(loracell, name) is not None for name in loracell.__all__))",
            "print(loracell.optimize is sys.modules['loracell.optimize'],"
            " loracell.run is sys.modules['loracell.simulate'].run)")
        assert out.split("\n") == [
            "['loracell.analytic', 'loracell.metrics', 'loracell.scenario']", "True",
            "True True"]


def _python(*lines: str) -> str:
    """Stripped stdout of a fresh interpreter that runs ``lines`` with the package on its path."""
    src = str(Path(loracell.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", "\n".join(lines)],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    return proc.stdout.strip()


class TestPeakInterference:
    def test_overlapping_interferers_sum(self):
        assert _max_concurrent_power([(1.0, 0.0, 2.0), (2.0, 1.0, 3.0)], 0.0, 3.0) == 3.0

    def test_disjoint_interferer_does_not_add(self):
        assert _max_concurrent_power([(1.0, 0.0, 1.0), (2.0, 1.5, 2.5)], 0.0, 3.0) == 2.0

    def test_windows_clipped_to_the_reception(self):
        interferers = [(1.0, 0.0, 1.5), (4.0, 1.2, 5.0), (8.0, 2.5, 3.0)]
        assert _max_concurrent_power(interferers, 0.0, 5.0) == 12.0
        # Inside [1.6, 2] only the 4.0 interferer is on the air.
        assert _max_concurrent_power(interferers, 1.6, 2.0) == 4.0
        assert _max_concurrent_power([(8.0, 2.5, 3.0)], 1.0, 2.0) == 0.0

    def test_touching_edges_do_not_overlap(self):
        assert _max_concurrent_power([(1.0, 0.0, 1.0), (2.0, 1.0, 2.0)], 0.0, 2.0) == 2.0
        assert _max_concurrent_power([(1.0, 2.0, 3.0)], 0.0, 2.0) == 0.0

    def test_no_interferers_gives_zero(self):
        assert _max_concurrent_power([], 0.0, 1.0) == 0.0


def _general_capture_rule(self, interferers, dev, power, start, end, w):
    """``_Chain.captured`` before its one-interferer shortcut: any list, the
    geometric peak always found by ``_max_concurrent_power``."""
    if not interferers:
        return True
    if self.geometric:
        peak = _max_concurrent_power(
            [(tx.device.power if dev is None else self.power_at(tx, dev), tx.start, tx.end)
             for tx in interferers],
            start, end)
        return peak == 0.0 or power >= self.margin * peak
    return len(interferers) == 1 and self.next_coin() < w


# Interval edges: a few shared values make touching and equal edges common.
_EDGES = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(-1.0, 3.0)
_POWERS = st.sampled_from([0.0, 1e-12, 1.0]) | st.floats(0.0, 10.0)


class TestOneInterferer:
    """One interferer takes a comparison in place of the peak scan."""

    @settings(max_examples=400, deadline=None)
    @given(cr_db=st.sampled_from([0.0, 6.0]), at_device=st.booleans(),
           edges=st.lists(_EDGES, min_size=4, max_size=4),
           interferer_power=_POWERS,
           ratio=st.sampled_from([0.0, 1.0, 10.0 ** 0.6]) | st.floats(0.0, 10.0),
           position=st.tuples(*[st.floats(-3000.0, 3000.0)] * 4))
    def test_geometric_check_equals_the_peak_rule(self, cr_db, at_device, edges,
                                                   interferer_power, ratio, position):
        chain = _Chain(sim(capture_model="geometric", cr_db=cr_db, n_devices=2,
                           n_replications=1), np.random.default_rng(0), 0, range(1))
        start, end = sorted(edges[:2])
        tx_start, tx_end = sorted(edges[2:])
        x0, y0, x1, y1 = position
        tx = _Tx()
        tx.device = _Device(0, True, 0, x0, y0, interferer_power, 0.1, 0.0)
        tx.start, tx.end = tx_start, tx_end
        dev = _Device(1, True, 0, x1, y1, 0.0, 0.1, 0.0) if at_device else None
        # Ratio 1 at 0 dB and 10^0.6 at 6 dB put the reception on the margin.
        heard = interferer_power if dev is None else chain.power_at(tx, dev)
        power = ratio * heard
        peak = _max_concurrent_power([(heard, tx_start, tx_end)], start, end)
        assert chain.captured([tx], dev, power, start, end, 0.0) == \
            (peak == 0.0 or power >= chain.margin * peak)

    @pytest.mark.parametrize("arrivals", ["poisson", "periodic"])
    @pytest.mark.parametrize("capture", ["probabilistic", "geometric"])
    def test_every_result_is_unchanged(self, monkeypatch, capture, arrivals):
        # A cell dense enough that receptions meet two and more interferers.
        cfg = sim(scenario_kw={"lambda_total": 3.0, "alpha": 0.8, "m": 4},
                  n_devices=150, capture_model=capture, arrival_model=arrivals,
                  sim_duration=500.0, warmup=50.0)
        shortcut = run(cfg)
        sizes = []

        def general(self, interferers, *args):
            sizes.append(len(interferers))
            return _general_capture_rule(self, interferers, *args)

        monkeypatch.setattr(_Chain, "captured", general)
        assert run(cfg) == shortcut
        # A clean reception makes no capture call; both list sizes occur.
        assert min(sizes) == 1
        assert max(sizes) >= 2


class TestEventBudget:
    def test_exceeding_max_events_raises(self, monkeypatch):
        monkeypatch.setattr(simulate_mod, "_MAX_EVENTS", 1000)
        with pytest.raises(SimulationError, match="event budget exceeded"):
            run(sim(scenario_kw={"lambda_total": 5.0}))

    def test_budget_of_exactly_the_events_handled_suffices(self, monkeypatch):
        cfg = sim(scenario_kw={"lambda_total": 1.0, "alpha": 0.5}, n_devices=20,
                  sim_duration=100.0, warmup=10.0, n_replications=1)
        report = run(cfg)
        events = report.replications[0].events
        monkeypatch.setattr(simulate_mod, "_MAX_EVENTS", events)
        assert run(cfg) == report
        monkeypatch.setattr(simulate_mod, "_MAX_EVENTS", events - 1)
        with pytest.raises(SimulationError, match=f"event budget exceeded \\({events - 1} events"):
            run(cfg)


class TestHalfDuplexInvariant:
    def test_gateway_transmitting_while_receiving_raises(self, monkeypatch):
        # With tau = 0 a window opens only when no reception is ongoing; a
        # gateway that ignores that keys its radio over a reception.
        monkeypatch.setattr(_Chain, "gw_blocked", lambda self, now, free_at, tau: False)
        cfg = sim(scenario_kw={"lambda_total": 2.0, "alpha": 1.0, "tau1": 0, "tau2": 0},
                  n_devices=100, sim_duration=300.0, n_replications=1)
        with pytest.raises(SimulationError, match="gateway would transmit while receiving"):
            run(cfg)


class TestTrace:
    def test_trace_lines_written_when_enabled(self, tmp_path):
        path = tmp_path / "events.log"
        cfg = sim(scenario_kw={"lambda_total": 1.0, "alpha": 1.0, "m": 1},
                  n_devices=20, sim_duration=100.0, warmup=0.0, n_replications=1)
        traced = run(dataclasses.replace(cfg, trace_path=str(path)))
        lines = path.read_text().strip().splitlines()
        assert lines
        first = lines[0].split()
        assert len(first) >= 5
        float(first[0])  # leading timestamp parses
        assert traced == run(cfg)


def _without_events(rep):
    return dataclasses.replace(rep, events=0)


def _total_events(report):
    return sum(rep.events for rep in report.replications)


def _assert_only_events_drop(shortcut, every_window):
    """Two reports of one config agree on everything but per-replication
    ``events``, and the first never handles more events."""
    assert [_without_events(r) for r in shortcut.replications] == \
        [_without_events(r) for r in every_window.replications]
    assert dataclasses.replace(shortcut, replications=()) == \
        dataclasses.replace(every_window, replications=())
    for fast, slow in zip(shortcut.replications, every_window.replications):
        assert fast.events <= slow.events


class TestSingleArrivalEvent:
    @pytest.mark.parametrize("arrivals", ["poisson", "periodic"])
    def test_heap_holds_one_pending_arrival(self, arrivals):
        cfg = sim(scenario_kw={"lambda_total": 4.0, "alpha": 0.5, "m": 2},
                  arrival_model=arrivals, n_replications=1)
        rep = _Chain(cfg, np.random.default_rng(1), 0, range(1))
        pending = []
        next_channel = rep.next_channel

        def counting_next_channel():
            # Every uplink start draws its channel once.
            pending.append(sum(entry[2] is _Chain.on_arrival for entry in rep.heap))
            return next_channel()

        rep.next_channel = counting_next_channel
        rep.run()
        assert len(pending) > 100
        assert max(pending) == 1

    def test_poisson_cell_offers_lambda_at_light_load(self):
        # Unsaturated devices start every packet at once, so the offered
        # rate is the superposed stream's rate lambda.
        report = run(sim(scenario_kw={"lambda_total": 2.0, "alpha": 0.0, "h": 1},
                         n_devices=400, sim_duration=2000.0, warmup=50.0,
                         n_replications=3))
        for rep in report.replications:
            assert rep.offered_rate_ratio == pytest.approx(1.0, abs=0.06)

    def test_poisson_arrivals_spread_over_every_device(self, tmp_path):
        path = tmp_path / "events.log"
        run(sim(scenario_kw={"lambda_total": 2.0, "alpha": 0.0, "h": 1},
                n_replications=1, trace_path=str(path)))
        starts = np.zeros(50, dtype=int)
        for line in path.read_text().splitlines():
            fields = line.split()
            if fields[4] == "ul_start":
                starts[int(fields[1])] += 1
        # About 16 uplinks per device: none is left out, none takes a large share.
        assert starts.min() > 0
        assert starts.max() < 3 * starts.mean()


class TestRx1Shortcut:
    """An RX1 window that SB1's duty cycle already blocks is not an event."""

    @pytest.mark.parametrize("delta", [(99.0, 9.0), (0.0, 0.0)], ids=["dc", "no_dc"])
    @pytest.mark.parametrize("tau1", [0, 1])
    @pytest.mark.parametrize("arrivals", ["poisson", "periodic"])
    @pytest.mark.parametrize("capture", ["probabilistic", "geometric"])
    def test_every_result_but_events_is_unchanged(self, capture, arrivals, tau1, delta):
        cfg = sim(scenario_kw={"lambda_total": 3.0, "alpha": 0.8, "m": 4, "tau1": tau1,
                               "delta_sb1": delta[0], "delta_sb2": delta[1]},
                  n_devices=150, capture_model=capture, arrival_model=arrivals,
                  sim_duration=500.0, warmup=50.0)
        shortcut = run(cfg)
        with make_golden.every_window(1):
            every_window = run(cfg)
        _assert_only_events_drop(shortcut, every_window)
        # In these cells only a duty-cycled sub-band blocks a window surely, so
        # only then do the oracle's windows add events.
        assert (_total_events(every_window) > _total_events(shortcut)) == (delta != (0.0, 0.0))

    def test_fewer_events_at_readme_compare_point(self):
        # ``make_golden.py --pins`` prints the literal.
        cfg = make_golden.readme_point()
        shortcut = run(cfg).replications[0]
        with make_golden.every_window(1):
            every_window = run(cfg).replications[0]
        assert _without_events(shortcut) == _without_events(every_window)
        assert (shortcut.events, every_window.events) == (26482, 32815)


class TestRx2Shortcut:
    """An RX2 window that SB2's duty cycle already blocks is not an event
    while the packet has attempts left."""

    cell = staticmethod(make_golden.rx2_cell)

    @pytest.mark.parametrize("delta", [(99.0, 9.0), (0.0, 0.0), (9.0, 9.0)],
                             ids=["dc", "no_dc", "dc_backoff_binds"])
    @pytest.mark.parametrize("tau1", [0, 1])
    @pytest.mark.parametrize("arrivals", ["poisson", "periodic"])
    @pytest.mark.parametrize("capture", ["probabilistic", "geometric"])
    def test_every_result_but_events_is_unchanged(self, capture, arrivals, tau1, delta):
        cfg = self.cell(capture, arrivals, tau1, delta)
        shortcut = run(cfg)
        with make_golden.every_window(2):
            every_window = run(cfg)
        _assert_only_events_drop(shortcut, every_window)
        assert (_total_events(every_window) > _total_events(shortcut)) == (delta != (0.0, 0.0))

    @pytest.mark.parametrize("delta_sb1, binds", [(99.0, False), (9.0, True)])
    def test_backoff_binds_only_below_the_duty_cycle_gap(self, monkeypatch, delta_sb1, binds):
        # With delta_sb1 = 99 the duty-cycle gate (>= end + 5.05 s) always
        # comes after the back-off (<= end + 5 s), so drawing the back-off
        # earlier changes nothing; with delta_sb1 = 9 the back-off decides
        # some retransmission times, and the shortcut still fires.
        cfg = self.cell(delta=(delta_sb1, 9.0))
        decided = []
        failed = _Chain.confirmed_attempt_failed

        def recording(self, dev, ul_end):
            if dev.attempts < self.m:
                decided.append(ul_end + 2.0 + dev.backoff > dev.next_allowed)
            failed(self, dev, ul_end)

        monkeypatch.setattr(_Chain, "confirmed_attempt_failed", recording)
        shortcut = run(cfg)
        assert decided
        assert any(decided) == binds
        with make_golden.every_window(2):
            every_window = run(cfg)
        _assert_only_events_drop(shortcut, every_window)
        assert sum(r.events for r in shortcut.replications) < \
            sum(r.events for r in every_window.replications)

    def test_fewer_events_at_readme_compare_point(self):
        # ``make_golden.py --pins`` prints the literal.
        cfg = make_golden.readme_point()
        shortcut = run(cfg).replications[0]
        with make_golden.every_window(2):
            every_window = run(cfg).replications[0]
        assert _without_events(shortcut) == _without_events(every_window)
        assert (shortcut.events, every_window.events) == (26482, 31528)

    @pytest.mark.parametrize("capture, digest, events", [
        ("probabilistic", "07438078f422402742188f4c6a80aff53d23f5a3f6949826125b5fed6aa2ac3b",
         (11996, 12526)),
        ("geometric", "fb324f8f9919558dfab3de3501032aff8ffceda25292ce26c168791c40783ab9",
         (12109, 12560)),
    ])
    def test_trace_bytes_and_event_counts_are_pinned(self, tmp_path, capture, digest, events):
        # The results do not show the order of events or what each one traced:
        # these literals do, so a hot-path rewrite that reorders either fails here.
        # ``make_golden.py --pins`` prints them.
        path = tmp_path / "events.log"
        report = run(self.cell(capture, trace_path=str(path)))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        assert tuple(rep.events for rep in report.replications) == events

    def test_trace_timestamps_never_decrease(self, tmp_path):
        # A drop decided early is traced when it is decided, not at its window.
        path = tmp_path / "events.log"
        run(self.cell(n_replications=1, trace_path=str(path)))
        lines = [line.split() for line in path.read_text().splitlines()]
        times = [float(fields[0]) for fields in lines]
        assert times == sorted(times)
        assert any(fields[4] == "ack_dropped" for fields in lines)


class TestPeriodicArrivals:
    # Light unconfirmed load: the 400 s period is far longer than any
    # device's busy time and duty-cycle silence, so no device is ever busy.
    LIGHT = {"lambda_total": 0.05, "alpha": 0.0, "h": 1}

    def light(self, **kw):
        defaults = dict(scenario_kw=self.LIGHT, arrival_model="periodic", n_devices=20,
                        sim_duration=4000.0, warmup=100.0, seed=5, n_replications=3)
        defaults.update(kw)
        return sim(**defaults)

    def test_uplinks_one_period_apart(self, tmp_path):
        path = tmp_path / "events.log"
        run(self.light(n_replications=1, trace_path=str(path)))
        starts = {}
        for line in path.read_text().splitlines():
            time, device, _, _, kind = line.split()[:5]
            if kind == "ul_start":
                starts.setdefault(int(device), []).append(float(time))
        assert len(starts) == 20
        period = 20 / 0.05
        for times in starts.values():
            assert len(times) >= 9
            assert np.diff(times) == pytest.approx(period, abs=1e-6)

    def test_offered_packets_within_one_per_device_of_lambda(self):
        report = run(self.light())
        expected = 0.05 * (4000.0 - 100.0)
        for rep in report.replications:
            offered = sum(rep.offered_app_u) + sum(rep.offered_app_c)
            assert abs(offered - expected) <= 20
            assert all(b == 0.0 for b in rep.busy_at_arrival if b is not None)

    def test_deterministic_and_pool_matches_serial(self):
        cfg = self.light()
        report = run(cfg)
        assert run(cfg) == report
        assert run(cfg, workers=2) == report


class TestSaturationDiagnostic:
    def test_saturated_devices_lower_the_offered_rate(self):
        # 30 devices at 1 pck/s: each must send every 30 s, but an SF12
        # uplink silences its device for ~132 s.
        report = run(sim(scenario_kw={"lambda_total": 1.0, "alpha": 0.0, "h": 1},
                         n_devices=30, sim_duration=3000.0, warmup=300.0,
                         n_replications=2))
        for rep in report.replications:
            assert rep.offered_rate_ratio < 0.9
            assert rep.busy_at_arrival[5] > 0.5
            assert rep.busy_at_arrival[0] < rep.busy_at_arrival[5]
            assert all(b is None or 0.0 <= b <= 1.0 for b in rep.busy_at_arrival)
        assert report.offered_rate_ratio == pytest.approx(
            np.mean([rep.offered_rate_ratio for rep in report.replications]))
        assert report.busy_at_arrival[5] == pytest.approx(
            np.mean([rep.busy_at_arrival[5] for rep in report.replications]))

    def test_undefined_without_traffic(self):
        report = run(sim(scenario_kw={"lambda_total": 0.0}))
        assert report.offered_rate_ratio is None
        assert report.busy_at_arrival == (None,) * 6
        for rep in report.replications:
            assert rep.offered_rate_ratio is None
            assert rep.busy_at_arrival == (None,) * 6
