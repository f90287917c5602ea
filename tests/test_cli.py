"""Command-line behavior: exit codes, document shape, determinism."""

import dataclasses
import inspect
import json

import numpy as np
import pytest

from loracell import analytic
from loracell import optimize as optimize_mod
from loracell.cli import (
    EXIT_IO,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    _parse_int_grid,
    _sim_config,
    build_parser,
    main,
)
from loracell.metrics import METRICS
from loracell.optimize import STOP_REASONS, OptimizationProblem
from loracell.scenario import ScenarioConfig
from loracell.simulate import SimConfig


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    header, columns, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(dict(zip(columns, line.split(","))))
    return header, columns, rows


class TestSolve:
    def test_valid_config_exits_zero_with_metric_fields(self, tmp_path):
        out = tmp_path / "solve.json"
        code = run_cli("solve", "--set", "lambda_total=1", "--set", "alpha=1",
                       "--set", "m=8", "--out", str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert {"uu", "cu", "cd"} <= set(doc["metrics"])
        assert doc["solver"]["converged"] is True
        assert doc["config"]["m"] == 8

    def test_cd_strictly_below_cu_at_moderate_confirmed_load(self, tmp_path):
        out = tmp_path / "solve.json"
        run_cli("solve", "--set", "lambda_total=1", "--set", "alpha=1",
                "--set", "m=8", "--out", str(out))
        doc = json.loads(out.read_text())
        assert doc["metrics"]["cd"] < doc["metrics"]["cu"]

    def test_missing_config_file_is_io_error(self, capsys):
        code = run_cli("solve", "--config", "definitely/not/here.yaml")
        assert code == EXIT_IO
        assert "error" in capsys.readouterr().err

    def test_malformed_config_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("alpha: [unclosed")
        assert run_cli("solve", "--config", str(bad)) == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err

    def test_config_that_is_not_a_mapping_is_parse_error(self, tmp_path, capsys):
        listed = tmp_path / "list.yaml"
        listed.write_text("- alpha: 1\n- m: 8\n")
        assert run_cli("solve", "--config", str(listed)) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("parse error")

    def test_invalid_value_is_validation_error(self, capsys):
        assert run_cli("solve", "--set", "alpha=1.5") == EXIT_VALIDATION
        assert "validation error" in capsys.readouterr().err

    def test_unknown_key_is_validation_error(self):
        assert run_cli("solve", "--set", "lambda_totale=1") == EXIT_VALIDATION

    @pytest.mark.parametrize("override, message", [
        ("m=16", "m must be <= 15"),
        ("h=100000000000000000000", "h must be <= 15"),
    ])
    def test_retransmission_limits_capped_at_fifteen(self, override, message, capsys):
        assert run_cli("solve", "--set", override) == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [("solve",),
                                      ("sweep", "--axis", "lambda_total", "--values", "0.5,1")],
                             ids=lambda argv: argv[0])
    def test_broken_sweep_maps_to_exit_4(self, argv, monkeypatch, capsys):
        # An ACK survival above 1 breaks the downlink success at the default alpha = 0.
        survival = analytic.ack_interference_survival
        monkeypatch.setattr(analytic, "ack_interference_survival",
                            lambda cfg, rates: np.full_like(survival(cfg, rates), 1.5))
        assert run_cli(*argv) == EXIT_NO_CONVERGENCE
        assert capsys.readouterr().err == ("solver error: downlink success probability "
                                           "exceeded 1 (max 1.5); broken iterate\n")

    def test_non_convergence_exit_code(self, tmp_path):
        out = tmp_path / "solve.json"
        code = run_cli("solve", "--set", "lambda_total=1", "--set", "alpha=1",
                       "--set", "m=8", "--max-iter", "2", "--out", str(out))
        assert code == EXIT_NO_CONVERGENCE
        assert json.loads(out.read_text())["solver"]["converged"] is False

    def test_undefined_fairness_leaves_an_empty_cell(self, tmp_path):
        # Every (traffic type, SF) population has zero success at this load.
        out = tmp_path / "solve.csv"
        code = run_cli("solve", "--set", "lambda_total=1e5", "--set", "alpha=1",
                       "--format", "csv", "--out", str(out))
        assert code == EXIT_OK
        [row] = read_csv(out)[2]
        assert row["jain"] == "" and float(row["cu"]) == 0.0

    def test_full_state_included_on_request(self, tmp_path):
        out = tmp_path / "solve.json"
        run_cli("solve", "--set", "lambda_total=0.5", "--set", "alpha=1",
                "--full-state", "--out", str(out))
        doc = json.loads(out.read_text())
        assert len(doc["steady_state"]["s_ul"]) == 6

    def test_config_file_round_trip_with_overrides(self, tmp_path):
        cfg = tmp_path / "cell.yaml"
        cfg.write_text("lambda_total: 2.0\nalpha: 0.5\nm: 4\n")
        out = tmp_path / "solve.json"
        code = run_cli("solve", "--config", str(cfg), "--set", "m=2",
                       "--set", "airtimes.t_ack2=[0.041,0.072,0.144,0.247,0.495,0.991]",
                       "--out", str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["config"]["m"] == 2
        assert doc["config"]["airtimes"]["t_ack2"][0] == 0.041


class TestSweep:
    def test_single_value_single_row(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--axis", "lambda_total", "--values", "1.0",
                       "--out", str(out))
        assert code == EXIT_OK
        _, columns, rows = read_csv(out)
        assert len(rows) == 1
        assert columns == ["lambda_total", *METRICS, "iterations", "residual", "converged"]

    def test_log_sweep_reproduces_monotone_uplink_ratio(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--axis", "lambda_total",
                       "--values", "0.01:100:12:log", "--outputs", "cu,cd",
                       "--set", "alpha=1", "--set", "m=8", "--out", str(out))
        assert code == EXIT_OK
        _, _, rows = read_csv(out)
        lams = [float(r["lambda_total"]) for r in rows]
        cus = [float(r["cu"]) for r in rows]
        cds = [float(r["cd"]) for r in rows]
        assert lams == sorted(lams)
        assert all(a >= b - 1e-9 for a, b in zip(cus, cus[1:]))
        assert all(cd <= cu + 1e-12 for cd, cu in zip(cds, cus))

    def test_lifting_duty_cycle_improves_ack_ratio(self, tmp_path):
        rows = {}
        for name, overrides in (("default", []),
                                ("lifted", ["--set", "delta_sb1=0",
                                            "--set", "delta_sb2=0"])):
            out = tmp_path / f"{name}.csv"
            run_cli("sweep", "--axis", "lambda_total", "--values", "0.01:10:8:log",
                    "--outputs", "cd", "--set", "alpha=1", "--set", "m=8",
                    *overrides, "--out", str(out))
            rows[name] = [float(r["cd"]) for r in read_csv(out)[2]]
        assert all(a >= b - 1e-12
                   for a, b in zip(rows["lifted"], rows["default"]))

    def test_identical_invocations_byte_identical(self, tmp_path):
        args = ("sweep", "--axis", "alpha", "--values", "0,0.5,1",
                "--set", "lambda_total=0.5")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(*args, "--out", str(a))
        run_cli(*args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_header_carries_resolved_config(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli("sweep", "--axis", "lambda_total", "--values", "1",
                "--set", "m=3", "--out", str(out))
        header, _, _ = read_csv(out)
        config_line = next(l for l in header if l.startswith("# config:"))
        config = json.loads(config_line.split(":", 1)[1])
        assert config["m"] == 3
        assert config["delta_sb1"] == 99.0

    @pytest.mark.parametrize("axis, values", [("m", (1, 2, 4, 8)),
                                              ("h", (1, 2, 4, 8)),
                                              ("alpha", (0.0, 0.3, 1.0)),
                                              ("delta_sb1", (0.0, 9.0, 99.0)),
                                              ("lambda_total", (1e-05, 0.001)),
                                              ("n_demodulators", (4, 8)),
                                              ("tau1", (0, 1)),
                                              # An ON sojourn that overflows: idle sub-bands.
                                              ("lambda_total", (1e-320, 0.001))])
    def test_rows_equal_solve_rows(self, tmp_path, axis, values):
        common = ("--set", "lambda_total=2", "--set", "alpha=0.5", "--set", "h=2")
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--axis", axis, "--values", ",".join(map(str, values)),
                       *common, "--out", str(out)) == EXIT_OK
        _, _, rows = read_csv(out)
        assert len(rows) == len(values)
        for value, row in zip(values, rows):
            alone = tmp_path / "solve.csv"
            assert run_cli("solve", *common, "--set", f"{axis}={value}",
                           "--format", "csv", "--out", str(alone)) == EXIT_OK
            [want] = read_csv(alone)[2]
            assert row == {axis: repr(float(value)), **want}

    def test_capped_sweep_writes_every_row(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--axis", "lambda_total", "--values", "0,0.5,1,2",
                       "--set", "alpha=1", "--set", "m=8", "--max-iter", "5",
                       "--out", str(out))
        assert code == EXIT_NO_CONVERGENCE
        _, _, rows = read_csv(out)
        assert [r["lambda_total"] for r in rows] == ["0.0", "0.5", "1.0", "2.0"]
        assert {r["converged"] for r in rows} == {"true", "false"}

    def test_workers_accepted_without_effect_and_hidden(self, tmp_path, capsys):
        outs = [tmp_path / "one.csv", tmp_path / "two.csv"]
        for out, workers in zip(outs, ("1", "2")):
            assert run_cli("sweep", "--axis", "lambda_total", "--values", "0.5,1",
                           "--workers", workers, "--out", str(out)) == EXIT_OK
        assert outs[0].read_text() == outs[1].read_text()
        with pytest.raises(SystemExit):
            run_cli("sweep", "--help")
        assert "--workers" not in capsys.readouterr().out

    def test_non_monotone_values_rejected(self):
        assert run_cli("sweep", "--axis", "lambda_total",
                       "--values", "1,3,2") == EXIT_VALIDATION

    def test_unknown_output_rejected(self):
        assert run_cli("sweep", "--axis", "lambda_total", "--values", "1",
                       "--outputs", "nope") == EXIT_VALIDATION

    def test_huge_retransmission_limit_rejected(self, capsys):
        assert run_cli("sweep", "--axis", "m", "--values", "1e20") == EXIT_VALIDATION
        assert "m must be <= 15" in capsys.readouterr().err


class TestSimulate:
    def test_zero_replications_rejected(self):
        assert run_cli("simulate", "--replications", "0") == EXIT_VALIDATION

    def test_fixed_seed_reproducible(self, tmp_path):
        args = ("simulate", "--set", "lambda_total=1", "--set", "alpha=1",
                "--devices", "60", "--duration", "200", "--warmup", "20",
                "--replications", "2", "--seed", "9")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(a)) == EXIT_OK
        assert run_cli(*args, "--out", str(b)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_seed_recorded_in_header(self, tmp_path):
        out = tmp_path / "sim.csv"
        run_cli("simulate", "--devices", "20", "--duration", "100",
                "--warmup", "10", "--replications", "1", "--seed", "77",
                "--set", "lambda_total=0.5", "--out", str(out))
        header, columns, rows = read_csv(out)
        assert columns == ["rep", "offered_app", "offered_phy", *METRICS, "dc_violations"]
        assert any(l.startswith("# seed: 77") for l in header)
        assert rows[-2]["rep"] == "mean"
        assert rows[-1]["rep"] == "ci95"

    def test_doc_format_serializes_counters(self, tmp_path):
        out = tmp_path / "sim.json"
        code = run_cli("simulate", "--devices", "20", "--duration", "100",
                       "--warmup", "10", "--replications", "2",
                       "--set", "lambda_total=0.5", "--format", "doc",
                       "--out", str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert isinstance(doc["replications"][0]["offered_phy"], int)
        for row in (*doc["replications"], doc["mean"]):
            assert len(row["busy_at_arrival"]) == 6
            assert row["offered_rate_ratio"] > 0.0

    def test_simulation_assertion_maps_to_exit_5(self, monkeypatch):
        import loracell.cli as cli
        from loracell.simulate import SimulationError

        def boom(cfg, workers=1):
            raise SimulationError("synthetic failure")

        monkeypatch.setattr(cli.simulate, "run", boom)
        code = run_cli("simulate", "--devices", "5", "--duration", "50",
                       "--warmup", "5", "--replications", "1")
        assert code == 5


class TestCompare:
    def test_comparison_columns_present(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = run_cli("compare", "--set", "lambda_total=1", "--set", "alpha=1",
                       "--set", "m=8", "--devices", "150", "--duration", "400",
                       "--warmup", "50", "--replications", "2", "--out", str(out))
        assert code == EXIT_OK
        _, columns, rows = read_csv(out)
        assert columns == ["metric", "analytic", "simulated", "abs_diff", "sim_ci95"]
        by_metric = {r["metric"]: r for r in rows}
        assert float(by_metric["cu"]["abs_diff"]) >= 0.0
        assert {"uu", "cu", "cd", "f_nmd", "f_gwtx", "f_int"} <= set(by_metric)

    def test_doc_records_simulator_settings_and_saturation(self, tmp_path):
        argv = ("compare", "--set", "lambda_total=1", "--devices", "150",
                "--duration", "400", "--warmup", "50", "--replications", "2",
                "--arrivals", "periodic", "--capture", "geometric")
        doc_out, csv_out = tmp_path / "cmp.json", tmp_path / "cmp.csv"
        assert run_cli(*argv, "--format", "doc", "--out", str(doc_out)) == EXIT_OK
        doc = json.loads(doc_out.read_text())
        assert doc["sim"] == {"seed": 1, "n_replications": 2, "sim_duration": 400.0,
                              "n_devices": 150, "arrival_model": "periodic",
                              "capture_model": "geometric", "warmup": 50.0}
        assert len(doc["saturation"]["busy_at_arrival"]) == 6
        assert 0.0 < doc["saturation"]["offered_rate_ratio"] <= 1.1
        # The CSV header keeps its three simulator keys.
        assert run_cli(*argv, "--out", str(csv_out)) == EXIT_OK
        header, _, _ = read_csv(csv_out)
        assert [line.split(":")[0] for line in header[2:]] == \
            ["# seed", "# n_replications", "# sim_duration"]


@pytest.mark.parametrize("argv, message", [
    (("solve", "--tol", "0"), "tol must be positive"),
    (("solve", "--max-iter", "0"), "max_iter must be >= 1"),
    (("sweep", "--axis", "lambda_total", "--values", "1", "--tol", "-1"),
     "tol must be positive"),
    (("compare", "--max-iter", "0"), "max_iter must be >= 1"),
    (("simulate", "--seed", "-1"), "seed must be >= 0"),
    (("simulate", "--duration", "nan"), "sim_duration must be finite"),
    (("simulate", "--duration", "inf"), "sim_duration must be finite"),
    (("simulate", "--duration=-inf"), "sim_duration must be finite"),
    (("optimize", "--lambdas", "1", "--max-ascent-iters", "-3"),
     "max_ascent_iters must be >= 0"),
    (("solve", "--tol", "nan"), "tol must be positive"),
    (("simulate", "--capture", "geometric", "--radius", "nan"), "radius_m must be finite"),
    (("simulate", "--radius", "inf"), "radius_m must be finite"),
    (("simulate", "--radius=-inf"), "radius_m must be finite"),
    (("simulate", "--path-loss-exponent", "nan"), "path_loss_exponent must be finite"),
    (("simulate", "--capture", "geometric", "--set", "alpha=1", "--set", "delta_sb1=0",
      "--path-loss-exponent", "-400"), "path_loss_exponent must be >= 0"),
    (("simulate", "--capture", "geometric", "--path-loss-exponent", "400"),
     "underflows the received power"),
    (("simulate", "--capture", "geometric", "--path-loss-exponent", "90"),
     "underflows the received power"),
    (("optimize", "--lambdas", "1", "--workers", "0"), "workers must be >= 1"),
    (("simulate", "--cr-db", "inf"), "cr_db must be finite"),
    (("sweep", "--axis", "lambda_total", "--values", "0:1:x"), "cannot parse range"),
    (("sweep", "--axis", "lambda_total", "--values", "a:1:3"), "cannot parse range"),
    (("sweep", "--axis", "lambda_total", "--values", "0:1:2.5"), "cannot parse range"),
    (("optimize", "--lambdas", "0:1:x"), "cannot parse range"),
])
def test_out_of_range_options_are_validation_errors(argv, message, capsys):
    assert run_cli(*argv) == EXIT_VALIDATION
    assert message in capsys.readouterr().err


_SMALL_SIM = ("--devices", "20", "--duration", "100", "--warmup", "10",
              "--replications", "1", "--set", "lambda_total=0.5", "--set", "alpha=0.5")


@pytest.mark.parametrize("fmt", ["csv", "doc"])
@pytest.mark.parametrize("argv", [
    ("solve", "--full-state"),
    ("sweep", "--axis", "lambda_total", "--values", "0.5,1"),
    ("simulate", *_SMALL_SIM),
    ("compare", *_SMALL_SIM),
    ("optimize", "--lambdas", "0.2", "--m-grid", "2", "--h-grid", "1",
     "--max-ascent-iters", "2"),
], ids=lambda argv: argv[0])
def test_out_file_bytes_equal_stdout_bytes(argv, fmt, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(*argv, "--format", fmt) == EXIT_OK
    stdout = capsys.readouterr().out
    assert run_cli(*argv, "--format", fmt, "--out", str(out)) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode()
    if fmt == "doc":
        assert json.loads(stdout)["command"] == argv[0]
    else:
        assert stdout.startswith(f"# loracell {argv[0]}\n")


class TestOptimize:
    def test_empty_grid_rejected(self):
        assert run_cli("optimize", "--lambdas", "1", "--m-grid", "",
                       "--h-grid", "1") == EXIT_VALIDATION

    def test_invalid_grid_value_rejected_before_any_grid_point(self, monkeypatch, capsys):
        def unexpected(args):
            raise AssertionError("a grid point ran")

        monkeypatch.setattr(optimize_mod, "_solve_grid_point", unexpected)
        assert run_cli("optimize", "--lambdas", "0.1:10:3:log", "--m-grid", "1,2,4,16",
                       "--h-grid", "1", "--workers", "1") == EXIT_VALIDATION
        assert "m must be <= 15, got 16" in capsys.readouterr().err

    def test_small_run_emits_records_and_best(self, tmp_path):
        out = tmp_path / "opt.json"
        code = run_cli("optimize", "--lambdas", "0.2", "--m-grid", "1,4",
                       "--h-grid", "1", "--max-ascent-iters", "3",
                       "--set", "alpha=0.3", "--out", str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert len(doc["records"]) == 2
        assert doc["best"]["value"] == max(r["value"] for r in doc["records"])
        for record in doc["records"]:
            assert sum(record["p_confirmed"]) == pytest.approx(1.0, abs=1e-9)
            assert record["stop"] in STOP_REASONS


class TestDefaults:
    """The CLI takes its defaults from the library; these check that each flag's
    dest is the parameter or field that owns the default."""

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_simulator_defaults_equal_sim_config(self, command):
        cfg = ScenarioConfig()
        args = build_parser().parse_args([command])
        assert _sim_config(args, cfg) == SimConfig(scenario=cfg)

    @pytest.mark.parametrize("argv", [("solve",), ("compare",),
                                      ("sweep", "--axis", "lambda_total", "--values", "1")],
                             ids=lambda argv: argv[0])
    def test_solver_defaults_equal_solve(self, argv):
        args = build_parser().parse_args(list(argv))
        params = inspect.signature(analytic.solve).parameters
        assert (args.tol, args.max_iter) == (params["tol"].default, params["max_iter"].default)

    def test_optimize_defaults_equal_problem(self):
        args = build_parser().parse_args(["optimize", "--lambdas", "1"])
        defaults = {f.name: f.default for f in dataclasses.fields(OptimizationProblem)}
        assert _parse_int_grid(args.m_grid) == defaults["m_grid"]
        assert _parse_int_grid(args.h_grid) == defaults["h_grid"]
        assert args.objective == defaults["objective"]
        assert args.max_ascent_iters == defaults["max_ascent_iters"]
        assert args.perturbed_restarts == defaults["perturbed_restarts"]
