"""The benchmark's three workloads, and the checks on their outputs.

Each workload has two stages.  A stage runs its operations through the
program's public entry points (``cli.main``, ``analytic.solve``,
``optimize.optimize``, ``simulate.run``), times itself, and returns a
:class:`StageRun`.  Checks run after the timed part.

An operation is one CLI command, one library solve, one optimizer grid
point or one simulator replication.  Each one carries a ``key``: a value
that must repeat exactly when the same code runs the stage again.  The
runner compares keys between passes, which is how determinism and "traced
output equals untraced output" are checked.

``figures`` and ``optimize`` contain no randomness; the seed only reaches
the simulator, through the ``--seed`` option of the ``simulate`` stages.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

from loracell import analytic, cli, metrics
from loracell.scenario import N_SF, ScenarioConfig

optimize_mod = importlib.import_module("loracell.optimize")
simulate_mod = importlib.import_module("loracell.simulate")

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Absolute tolerance against the seed-commit reference values.
REF_TOL = 1e-8
#: Slack for probabilities and for CD <= CU.
PROB_SLACK = 1e-12
#: Criterion 7: analytic-vs-simulated gap allowed for these metrics.
COMPARE_GATED = ("uu", "cu", "cd", "f_nmd", "f_gwtx", "f_int")
COMPARE_TOL = 0.05

PROBABILITY_COLUMNS = {"uu", "cu", "cd", "jain", "f_nmd", "f_gwtx", "f_int"}
METRIC_COLUMNS = ("uu", "cu", "cd", "delta_ul", "delta_dl", "jain",
                  "f_nmd", "f_gwtx", "f_int")

_LOAD = ["--axis", "lambda_total", "--values", "0.01:100:40:log"]

#: The README figure sweeps: nine invocations (the m loop runs four times),
#: 316 points in all.
FIGURE_SWEEPS: tuple[tuple[str, list[str]], ...] = (
    ("phy", ["sweep", *_LOAD, "--set", "alpha=1", "--set", "m=8",
             "--outputs", "f_nmd,f_gwtx,f_int"]),
    *((f"cucd_m{m}", ["sweep", *_LOAD, "--set", "alpha=1", "--set", f"m={m}",
                      "--outputs", "cu,cd"]) for m in (1, 2, 4, 8)),
    ("alpha", ["sweep", "--axis", "alpha", "--values", "0:1:11:lin",
               "--set", "lambda_total=1", "--set", "m=8", "--set", "h=1"]),
    ("delays", ["sweep", *_LOAD, "--set", "alpha=1", "--set", "m=8",
                "--outputs", "delta_ul,delta_dl"]),
    ("fairness", ["sweep", "--axis", "lambda_total", "--values", "0.01:30:25:log",
                  "--set", "alpha=0.3", "--set", "m=8", "--set", "h=8",
                  "--set", "p_unconfirmed=explora", "--set", "p_confirmed=explora",
                  "--outputs", "jain"]),
    ("cd_dc_lifted", ["sweep", *_LOAD, "--set", "alpha=1", "--set", "m=8",
                      "--set", "delta_sb1=0", "--set", "delta_sb2=0",
                      "--outputs", "cd"]),
)

#: Acceptance criterion 1's grid: 4 x 3 x 40 = 480 solves.
GRID_M = (1, 2, 4, 8)
GRID_ALPHA = (0.0, 0.3, 1.0)
GRID_LAMBDAS = np.logspace(np.log10(0.01), np.log10(100.0), 40)

#: Optimizer grid points: the saturation knee and the overload point.
OPT_KNEE_LAMBDA = 1.0
OPT_OVERLOAD_LAMBDA = 10.0

#: The README validation scenario.
SIM_ARGS = ["--set", "lambda_total=1", "--set", "alpha=1", "--set", "m=8",
            "--devices", "1200", "--duration", "4000", "--replications", "10"]


@dataclass
class Op:
    """Outcome of one operation."""

    name: str
    ok: bool
    why: str = ""
    key: Any = None


@dataclass
class StageRun:
    """One timed run of a stage: its metric time, operations and layer outputs."""

    seconds: float
    ops: list[Op]
    notes: list[str] = field(default_factory=list)
    record: Any = None                 # optimizer GridRecord
    step_cap: int | None = None        # the optimizer's max_ascent_iters
    sim_reports: list = field(default_factory=list)


@dataclass
class Context:
    """What a stage needs from the runner."""

    tmp: Path
    seed: int
    reference: dict
    next_op: Callable[[], None]


@dataclass(frozen=True)
class Stage:
    name: str        # e.g. "grid480"; its time is reported as "grid480_s"
    via_cli: bool    # the stage's time is spent under cli.main
    run: Callable[[Context], StageRun]


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


# -- CSV helpers ---------------------------------------------------------------

def parse_csv(text: str) -> tuple[list[str], list[dict[str, str]]]:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    columns = lines[0].split(",")
    return columns, [dict(zip(columns, ln.split(","))) for ln in lines[1:]]


def _num(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def _close(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= REF_TOL


def _range_problems(values: dict[str, float | None]) -> list[str]:
    bad = [f"{k}={v!r} outside [0, 1]" for k, v in values.items()
           if k in PROBABILITY_COLUMNS and v is not None
           and not -PROB_SLACK <= v <= 1.0 + PROB_SLACK]
    cu, cd = values.get("cu"), values.get("cd")
    if cu is not None and cd is not None and cd > cu + PROB_SLACK:
        bad.append(f"cd {cd!r} > cu {cu!r}")
    return bad


def _run_cli(argv: list[str]) -> int | str:
    """``cli.main`` return code, or the exception text if it raised."""
    try:
        return cli.main(argv)
    except Exception as exc:  # an operation that raises is a failed operation
        return f"{type(exc).__name__}: {exc}"


def sweep_rows(text: str) -> list[dict]:
    """Metric columns of a sweep CSV, as numbers, plus the solver columns."""
    columns, rows = parse_csv(text)
    axis = columns[0]
    out = []
    for row in rows:
        values = {k: _num(row[k]) for k in columns if k in METRIC_COLUMNS}
        out.append({"axis": float(row[axis]), "values": values,
                    "iterations": int(row["iterations"]),
                    "converged": row["converged"] == "true"})
    return out


# -- figures -----------------------------------------------------------------------

def run_figure_sweeps(ctx: Context) -> StageRun:
    codes = []
    t0 = perf_counter()
    for name, argv in FIGURE_SWEEPS:
        ctx.next_op()
        codes.append(_run_cli([*argv, "--out", str(ctx.tmp / f"{name}.csv")]))
    seconds = perf_counter() - t0

    ops = []
    for (name, _), code in zip(FIGURE_SWEEPS, codes):
        if code != 0:
            ops.append(Op(name, False, f"exit {code}"))
            continue
        data = (ctx.tmp / f"{name}.csv").read_bytes()
        rows = sweep_rows(data.decode())
        bad = _figure_problems(rows, ctx.reference["figures"][name])
        ops.append(Op(name, not bad, "; ".join(bad), data))
    return StageRun(seconds, ops)


def _figure_problems(rows: list[dict], ref: list[dict]) -> list[str]:
    if len(rows) != len(ref):
        return [f"{len(rows)} rows, reference has {len(ref)}"]
    bad = []
    for row, want in zip(rows, ref):
        if not row["converged"]:
            bad.append(f"not converged at {row['axis']!r}")
        if not _close(row["axis"], want["axis"]) or row["values"].keys() != want["values"].keys():
            bad.append(f"row {row['axis']!r} does not match the reference layout")
            continue
        bad += [f"{k} at {row['axis']!r}: {v!r} vs reference {want['values'][k]!r}"
                for k, v in row["values"].items() if not _close(v, want["values"][k])]
        bad += _range_problems(row["values"])
    return bad


def grid_points():
    for m in GRID_M:
        for alpha in GRID_ALPHA:
            for lam in GRID_LAMBDAS:
                yield m, alpha, float(lam)


def run_grid480(ctx: Context) -> StageRun:
    """Criterion 1's grid; the metric is solve-only time, as the acceptance test takes it."""
    solve_seconds = 0.0
    results = []
    for m, alpha, lam in grid_points():
        ctx.next_op()
        cfg = ScenarioConfig(lambda_total=lam, alpha=alpha, m=m, h=1)
        t0 = perf_counter()
        try:
            state = analytic.solve(cfg, tol=1e-10, max_iter=1000)
        except Exception as exc:  # an operation that raises is a failed operation
            results.append(f"{type(exc).__name__}: {exc}")
            continue
        finally:
            solve_seconds += perf_counter() - t0
        try:
            results.append((state, metrics.compute_report(state, cfg).to_dict()))
        except Exception as exc:  # same
            results.append(f"{type(exc).__name__}: {exc}")

    ops = []
    for (m, alpha, lam), result, want in zip(grid_points(), results, ctx.reference["grid480"]):
        name = f"solve m={m} alpha={alpha} lambda={lam:.4g}"
        if isinstance(result, str):
            ops.append(Op(name, False, result))
            continue
        state, report = result
        values = {k: report[k] for k in METRIC_COLUMNS}
        bad = [] if state.converged else ["not converged"]
        bad += [f"{k}: {v!r} vs reference {want[k]!r}"
                for k, v in values.items() if not _close(v, want[k])]
        bad += _range_problems(values)
        key = (state.iterations, state.s_ul.tolist(), state.s_dl.tolist(), report)
        ops.append(Op(name, not bad, "; ".join(bad), key))
    return StageRun(solve_seconds, ops)


# -- optimize ----------------------------------------------------------------------

def optimization_problem(lam: float):
    return optimize_mod.OptimizationProblem(
        base_cfg=ScenarioConfig(alpha=0.3), lambdas=(lam,), m_grid=(8,), h_grid=(8,))


def _run_grid_point(ctx: Context, lam: float, label: str) -> StageRun:
    ctx.next_op()
    problem = optimization_problem(lam)
    t0 = perf_counter()
    try:
        record = optimize_mod.optimize(problem, workers=1).records[0]
    except Exception as exc:  # an operation that raises is a failed operation
        return StageRun(perf_counter() - t0, [Op(label, False, f"{type(exc).__name__}: {exc}")])
    seconds = perf_counter() - t0

    bad = [] if record.solver_converged else ["an inner solve did not converge"]
    for name in ("p_unconfirmed", "p_confirmed"):
        p = np.asarray(getattr(record, name))
        if abs(p.sum() - 1.0) > 1e-9 or p.min() < -1e-9:
            bad.append(f"{name} is off the simplex: {p.tolist()}")
    floor = ctx.reference["optimize"][label]["value"] - 1e-6
    if not record.value >= floor:
        bad.append(f"value {record.value!r} below the seed value minus 1e-6 ({floor!r})")
    if lam == OPT_KNEE_LAMBDA and int(np.argmax(record.p_confirmed)) != 0:
        bad.append(f"largest p_confirmed entry is SF{7 + int(np.argmax(record.p_confirmed))}, "
                   "criterion 8 wants SF7")
    return StageRun(seconds, [Op(label, not bad, "; ".join(bad), record)], record=record,
                    step_cap=problem.max_ascent_iters)


def run_opt_knee(ctx: Context) -> StageRun:
    return _run_grid_point(ctx, OPT_KNEE_LAMBDA, "opt_knee")


def run_opt_overload(ctx: Context) -> StageRun:
    return _run_grid_point(ctx, OPT_OVERLOAD_LAMBDA, "opt_overload")


# -- simulate ----------------------------------------------------------------------

class _CaptureSimRuns:
    """Keep each ``simulate.run`` report; the CLI writes only part of it."""

    def __init__(self):
        self.reports = []

    def __enter__(self):
        self.inner = simulate_mod.run

        def capture(*args, **kwargs):
            report = self.inner(*args, **kwargs)
            self.reports.append(report)
            return report

        simulate_mod.run = capture
        return self

    def __exit__(self, *exc):
        simulate_mod.run = self.inner


def _replication_ops(label: str, reports) -> list[Op]:
    ops = []
    for report in reports:
        for rep in report.replications:
            bad = []
            for i in range(N_SF):
                classified = rep.delivered_phy[i] + rep.lost_interference[i] \
                    + rep.lost_gwtx[i] + rep.lost_nmd[i]
                if classified != rep.offered_phy[i]:
                    bad.append(f"SF{7 + i}: {rep.offered_phy[i]} offered, {classified} classified")
            if rep.dc_violations:
                bad.append(f"{rep.dc_violations} duty-cycle violations")
            ops.append(Op(f"{label} replication {rep.seed}", not bad, "; ".join(bad), rep))
    return ops


def _run_sim_command(ctx: Context, label: str, argv: list[str]) -> tuple[StageRun, bytes | None]:
    out = ctx.tmp / f"{label}.csv"
    ctx.next_op()
    with _CaptureSimRuns() as captured:
        t0 = perf_counter()
        code = _run_cli([*argv, *SIM_ARGS, "--seed", str(ctx.seed), "--out", str(out)])
        seconds = perf_counter() - t0
    if code != 0:
        return StageRun(seconds, [Op(label, False, f"exit {code}")]), None
    data = out.read_bytes()
    run = StageRun(seconds, _replication_ops(label, captured.reports),
                   sim_reports=captured.reports)
    return run, data


def run_sim_compare(ctx: Context) -> StageRun:
    run, data = _run_sim_command(ctx, "sim_compare", ["compare"])
    if data is None:
        return run
    _, rows = parse_csv(data.decode())
    bad = []
    for row in rows:
        diff = _num(row["abs_diff"])
        if row["metric"] in COMPARE_GATED and diff is not None and not diff <= COMPARE_TOL:
            bad.append(f"{row['metric']} model-simulator gap {diff!r} > {COMPARE_TOL}")
        if row["metric"] in ("delta_ul", "delta_dl") and diff is not None:
            run.notes.append(f"{row['metric']} gap {diff:.2f} s (reported, not gated)")
    run.ops.insert(0, Op("sim_compare", not bad, "; ".join(bad), data))
    return run


def run_sim_geometric(ctx: Context) -> StageRun:
    run, data = _run_sim_command(ctx, "sim_geom", ["simulate", "--capture", "geometric"])
    if data is None:
        return run
    _, rows = parse_csv(data.decode())
    n_reps = sum(1 for row in rows if row["rep"] not in ("mean", "ci95"))
    bad = [] if n_reps == 10 else [f"{n_reps} replication rows, expected 10"]
    run.ops.insert(0, Op("sim_geom", not bad, "; ".join(bad), data))
    return run


#: Workload name -> (stage1, stage2).  Names are fixed; later changes refer to them.
WORKLOADS: dict[str, tuple[Stage, Stage]] = {
    "figures": (Stage("figures", True, run_figure_sweeps),
                Stage("grid480", False, run_grid480)),
    "optimize": (Stage("opt_knee", False, run_opt_knee),
                 Stage("opt_overload", False, run_opt_overload)),
    "simulate": (Stage("sim_compare", True, run_sim_compare),
                 Stage("sim_geom", True, run_sim_geometric)),
}
