"""Self-tests of the benchmark.  Run: ``python3 -m pytest -q bench``  (about 30 s)."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from loracell import analytic  # noqa: E402
from loracell.scenario import ScenarioConfig  # noqa: E402

SPEC = json.loads(run.BENCHMARK_JSON.read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def declared(section: str) -> list[str]:
    return [m["name"] for m in SPEC[section]]


def last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_declared_names_are_valid_and_unique():
    names = declared("end_to_end") + declared("per_layer") + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(set(names)) == len(names)


def test_per_layer_declaration_matches_what_the_tracer_computes():
    empty = tracing.Tracer().spans(0, 0)
    names = [f"stage{k}.{n}" for k in (1, 2)
             for n in tracing.layer_metrics(empty, wall=1.0, via_cli=True)]
    assert names + ["trace.overhead_frac"] == declared("per_layer")


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "figures", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True)
    result = last_json_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == declared(section)
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert name in proc.stdout.split("\n{")[0], f"{name} missing from the table"


def test_injected_failing_operation_raises_failed_frac(monkeypatch):
    solve = analytic.solve
    calls = itertools.count()

    def fails_once(*args, **kwargs):
        if next(calls) == 5:
            raise analytic.ModelError("injected")
        return solve(*args, **kwargs)

    monkeypatch.setattr(analytic, "solve", fails_once)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.main(["--workload", "figures", "--seconds", "1", "--trace", "0"])
    result = last_json_line(out.getvalue())
    assert not result["correct"] and result["failed"] == 1
    assert result["metrics"]["success_frac"]["value"] == 1.0 - 1 / result["attempted"]
    assert "FAILED figures: phy: exit 4" in out.getvalue()


def test_output_that_changes_between_passes_is_a_failure(tmp_path, monkeypatch):
    keys = itertools.count()

    def changing(ctx):
        return workloads.StageRun(0.0, [workloads.Op("op", True, key=next(keys))])

    def steady(ctx):
        return workloads.StageRun(0.0, [workloads.Op("op", True, key="same")])

    stages = (workloads.Stage("changing", False, changing),
              workloads.Stage("steady", False, steady))
    monkeypatch.setitem(workloads.WORKLOADS, "figures", stages)
    runner = run.Runner("figures", 1, tmp_path)
    for _ in range(2):
        for stage in stages:
            runner.run_stage(stage, traced=False)
    attempted, failed, reasons = runner.count_ops()
    assert (attempted, failed) == (4, 1)
    assert reasons == ["changing: op: output differs from the first pass"]


def test_traced_solve_without_iterate_reports_it_absent(monkeypatch):
    # A refactor that folds the sweep into solve removes ``iterate``; the
    # traced run must still work and mark the sweep's self time absent.
    solve = analytic.solve
    inlined = types.FunctionType(solve.__code__, dict(vars(analytic)), solve.__name__,
                                 solve.__defaults__)
    monkeypatch.setattr(analytic, "solve", inlined)
    monkeypatch.delattr(analytic, "iterate")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = analytic.solve(ScenarioConfig(lambda_total=1.0, alpha=1.0, m=8))
    finally:
        tracer.uninstall()
    assert state.converged and "analytic.iterate" in tracer.absent
    got = tracing.layer_metrics(tracer.spans(0, len(tracer)), wall=1.0, via_cli=False)
    assert got["analytic.solves"] == 1 and got["analytic.sweeps"] == state.iterations
    assert got["analytic.iterate_self_us"] is None
    # The functions the sweep calls still run through their module, so they stay timed.
    assert all(got[f"analytic.{c}_us"] > 0 for c in tracing.SWEEP_CHILDREN)
    assert analytic.solve is inlined
