"""Scenario loading, validation and round-trip serialization."""

import math
import os
import pickle
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import loracell
from loracell.scenario import (
    DEFAULT_ACK_AIRTIME,
    DEFAULT_DATA_AIRTIME,
    EXPLORA_RAW,
    AirtimeTable,
    ParseError,
    ScenarioConfig,
    SfDistribution,
    ValidationError,
    load_scenario,
    preset,
    scenario_to_yaml,
)


class TestPresets:
    def test_equal_is_one_sixth_everywhere(self):
        p = preset("equal")
        assert all(v == pytest.approx(1.0 / 6.0) for v in p.p)

    def test_explora_is_normalized_proportional_to_raw(self):
        p = preset("explora")
        assert sum(p.p) == pytest.approx(1.0, abs=1e-12)
        scale = p.p[0] / EXPLORA_RAW[0]
        for got, raw in zip(p.p, EXPLORA_RAW):
            assert got == pytest.approx(raw * scale, rel=1e-12)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValidationError, match="unknown SF distribution preset"):
            preset("foo")


class TestSfDistribution:
    def test_rejects_sum_away_from_one(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            SfDistribution(EXPLORA_RAW)  # adds up to 0.998

    def test_renormalize_flag_rescales(self):
        p = SfDistribution.from_values(EXPLORA_RAW, renormalize=True)
        assert sum(p.p) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError):
            SfDistribution((1.2, -0.2, 0, 0, 0, 0))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            SfDistribution((0.5, 0.5))

    @given(st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=6, max_size=6))
    def test_renormalized_values_always_valid(self, raw):
        p = SfDistribution.from_values(raw, renormalize=True)
        assert sum(p.p) == pytest.approx(1.0, abs=1e-9)
        assert all(v >= 0 for v in p.p)


class TestAirtimeTable:
    def test_default_second_window_uses_slowest_ack_airtime(self):
        table = AirtimeTable()
        assert table.t_ack2 == (DEFAULT_ACK_AIRTIME[-1],) * 6

    def test_rejects_non_increasing_data_airtimes(self):
        bad = list(DEFAULT_DATA_AIRTIME)
        bad[3] = bad[2]
        with pytest.raises(ValidationError, match="strictly increasing"):
            AirtimeTable(t_data=tuple(bad))

    def test_rejects_non_positive_entries(self):
        with pytest.raises(ValidationError, match="strictly positive"):
            AirtimeTable(t_ack2=(0.0,) * 6)

    def test_custom_rx2_assignment_allowed(self):
        table = AirtimeTable(t_ack2=DEFAULT_ACK_AIRTIME)  # RX2 mirrors the uplink SF
        assert table.t_ack2 == DEFAULT_ACK_AIRTIME

    @pytest.mark.parametrize("table", [AirtimeTable(), AirtimeTable(t_ack2=DEFAULT_ACK_AIRTIME)])
    def test_arrays_equal_their_tuples_and_are_read_only(self, table):
        t_data, t_ack1 = np.array(table.t_data), np.array(table.t_ack1)
        for copy in (table, pickle.loads(pickle.dumps(table)), replace(table)):
            for name in ("t_data", "t_ack1", "t_ack2"):
                column = getattr(copy, f"_{name}")
                assert column.dtype == float and column.tolist() == list(getattr(table, name))
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = 1.0
            # The sweep's airtime sums, by prioritization flag, bit for bit.
            for tau in (0, 1):
                for column, want in ((copy._t_data_tau[tau], t_data * tau),
                                     (copy._t_rx1_tau[tau], t_ack1 + t_data * tau)):
                    assert column.tobytes() == want.tobytes()
                    with pytest.raises(ValueError, match="read-only"):
                        column[0] = 1.0

    def test_arrays_leave_equality_hash_and_dict_to_the_tuples(self):
        table = AirtimeTable(t_ack2=DEFAULT_ACK_AIRTIME)
        cfg = ScenarioConfig(alpha=0.3, airtimes=table)
        for value in (table, cfg):
            copy = pickle.loads(pickle.dumps(value))
            assert copy == value and hash(copy) == hash(value)
            assert copy.to_dict() == value.to_dict()
        assert repr(table) == (f"AirtimeTable(t_data={DEFAULT_DATA_AIRTIME}, "
                               f"t_ack1={DEFAULT_ACK_AIRTIME}, t_ack2={DEFAULT_ACK_AIRTIME})")
        assert table.to_dict() == {"t_data": list(DEFAULT_DATA_AIRTIME),
                                   "t_ack1": list(DEFAULT_ACK_AIRTIME),
                                   "t_ack2": list(DEFAULT_ACK_AIRTIME)}
        assert table != AirtimeTable() and cfg != ScenarioConfig(alpha=0.3)


def test_package_import_loads_neither_yaml_nor_a_process_pool():
    # Solving needs neither: the YAML parser loads with a text document, the
    # pool with ``workers`` > 1.
    code = ("import sys, loracell; "
            "print(sorted({'yaml', 'concurrent.futures.process'} & set(sys.modules)))")
    src = Path(loracell.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out.strip() == "[]"


class TestLoadScenario:
    def test_empty_document_gives_european_defaults(self):
        cfg = load_scenario("")
        assert cfg.delta_sb1 == 99.0
        assert cfg.delta_sb2 == 9.0
        assert cfg.c_channels == 3
        assert cfg.n_demodulators == 8
        assert cfg.w_gw == pytest.approx(0.1796)
        assert cfg.w_ed == pytest.approx(0.5682)
        assert cfg.mu_retx == 2.0

    def test_raw_explora_rejected_without_renormalize(self):
        doc = f"p_confirmed: {list(EXPLORA_RAW)}"
        with pytest.raises(ValidationError, match="sum to 1"):
            load_scenario(doc)

    def test_raw_explora_accepted_with_renormalize(self):
        doc = f"p_confirmed: {list(EXPLORA_RAW)}"
        cfg = load_scenario(doc, renormalize=True)
        assert sum(cfg.p_confirmed.p) == pytest.approx(1.0, abs=1e-12)

    def test_preset_names_accepted_for_distributions(self):
        cfg = load_scenario("p_unconfirmed: explora\np_confirmed: equal")
        assert cfg.p_unconfirmed == preset("explora")
        assert cfg.p_confirmed == preset("equal")

    def test_out_of_range_alpha_rejected(self):
        with pytest.raises(ValidationError, match="alpha"):
            load_scenario("alpha: 1.5")

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ValidationError, match="unknown scenario keys.*lambda_tota"):
            load_scenario("lambda_tota: 3")

    def test_unknown_airtime_key_is_hard_error(self):
        with pytest.raises(ValidationError, match="unknown airtimes keys"):
            load_scenario("airtimes: {t_datum: [1,2,3,4,5,6]}")

    def test_malformed_yaml_is_parse_error(self):
        with pytest.raises(ParseError):
            load_scenario("alpha: [unclosed")

    def test_non_mapping_document_is_parse_error(self):
        with pytest.raises(ParseError):
            load_scenario("- just\n- a list\n")

    def test_schema_version_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="schema_version"):
            load_scenario("schema_version: 99")

    def test_non_numeric_field_rejected(self):
        with pytest.raises(ValidationError, match="lambda_total"):
            load_scenario("lambda_total: about three")

    def test_fractional_integer_field_rejected(self):
        with pytest.raises(ValidationError, match="m must be an integer"):
            load_scenario("m: 2.5")

    def test_quoted_integer_field_rejected(self):
        with pytest.raises(ValidationError, match="m must be an integer, got '8'"):
            load_scenario("m: '8'")

    def test_exponent_without_a_dot_reads_as_a_float(self):
        # YAML 1.1 reads 1e-3 as a string; a float field parses it.
        assert load_scenario("lambda_total: 1e-3").lambda_total == 0.001

    @pytest.mark.parametrize("name", ["c_channels", "n_demodulators"])
    def test_channel_and_demodulator_counts_capped_at_1000(self, name):
        # A billion of either would make a solve run for hours or a replication exhaust memory.
        with pytest.raises(ValidationError, match=f"{name} must be <= 1000, got 1000000000"):
            ScenarioConfig(**{name: 10**9})
        assert getattr(ScenarioConfig(**{name: 1000}), name) == 1000


class TestRoundTrip:
    @pytest.mark.parametrize("doc", [
        "",
        "lambda_total: 4.25\nalpha: 0.3\nm: 4\nh: 2",
        "p_confirmed: explora\ntau1: 0\ndelta_sb1: 0\ndelta_sb2: 0",
        "airtimes: {t_ack2: [0.041, 0.072, 0.144, 0.247, 0.495, 0.991]}\nw_gw: 0.25",
    ])
    def test_serialize_then_load_is_identity(self, doc):
        cfg = load_scenario(doc)
        again = load_scenario(scenario_to_yaml(cfg))
        assert again == cfg

    def test_yaml_keys_follow_field_order_with_plain_values(self):
        cfg = load_scenario("p_confirmed: explora")
        keys = list(yaml.safe_load(scenario_to_yaml(cfg)))
        assert keys == ["schema_version", *(f.name for f in fields(ScenarioConfig))]
        data = cfg.to_dict()
        assert data["p_confirmed"] == list(cfg.p_confirmed.p)
        assert data["airtimes"] == {"t_data": list(DEFAULT_DATA_AIRTIME),
                                    "t_ack1": list(DEFAULT_ACK_AIRTIME),
                                    "t_ack2": [DEFAULT_ACK_AIRTIME[-1]] * 6}

    def test_round_trip_preserves_floats_exactly(self):
        cfg = load_scenario("lambda_total: 0.1\nw_ed: 0.5682")
        again = load_scenario(scenario_to_yaml(cfg))
        assert again.lambda_total == cfg.lambda_total
        assert again.w_ed == cfg.w_ed


@st.composite
def scenario_documents(draw):
    doc = {}
    if draw(st.booleans()):
        doc["lambda_total"] = draw(st.floats(min_value=0.0, max_value=1e4))
    if draw(st.booleans()):
        doc["alpha"] = draw(st.floats(min_value=0.0, max_value=1.0))
    if draw(st.booleans()):
        doc["m"] = draw(st.integers(min_value=1, max_value=15))
    if draw(st.booleans()):
        doc["h"] = draw(st.integers(min_value=1, max_value=15))
    if draw(st.booleans()):
        doc["delta_sb1"] = draw(st.floats(min_value=0.0, max_value=1e3))
    if draw(st.booleans()):
        doc["tau1"] = draw(st.integers(min_value=0, max_value=1))
    if draw(st.booleans()):
        weights = draw(st.lists(st.floats(min_value=1e-3, max_value=1.0),
                                min_size=6, max_size=6))
        total = sum(weights)
        doc["p_unconfirmed"] = [w / total for w in weights]
    return doc


class TestFuzzedDocuments:
    @given(scenario_documents())
    @settings(max_examples=150)
    def test_loaded_configs_satisfy_invariants(self, doc):
        cfg = load_scenario(doc, renormalize=True)
        assert 0.0 <= cfg.alpha <= 1.0
        assert cfg.lambda_total >= 0.0
        assert 1 <= cfg.m <= 15 and 1 <= cfg.h <= 15
        assert cfg.tau1 in (0, 1) and cfg.tau2 in (0, 1)
        for dist in (cfg.p_unconfirmed, cfg.p_confirmed):
            assert abs(sum(dist.p) - 1.0) <= 1e-9
            assert all(v >= 0.0 for v in dist.p)
        assert all(t > 0 for t in cfg.airtimes.t_data)
        assert math.isfinite(cfg.delta_sb1) and cfg.delta_sb1 >= 0.0
        # And they round-trip.
        assert load_scenario(scenario_to_yaml(cfg)) == cfg
