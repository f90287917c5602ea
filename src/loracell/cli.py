"""Command-line front end: solve, sweep, simulate, optimize, compare.

Every emitted document starts with the fully resolved configuration so
any output can be reproduced from its own header.  Identical invocations
produce byte-identical output.

Exit codes: 0 success; 1 I/O or unexpected error; 2 parse error;
3 validation error; 4 solver non-convergence; 5 simulation assertion.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Callable
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import yaml

from . import analytic, metrics, simulate
from .optimize import OBJECTIVES, OptimizationProblem
from .optimize import optimize as run_optimize
from .scenario import ParseError, ScenarioConfig, ValidationError, load_scenario, read_document

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NO_CONVERGENCE = 4
EXIT_SIMULATION = 5


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _set_path(data: dict, key: str, value) -> dict:
    """Set the dotted ``key`` of a scenario mapping to ``value``."""
    node = data
    parts = key.strip().split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ValidationError(f"--set path {key!r} does not name a mapping")
    node[parts[-1]] = value
    return data


def _apply_override(data: dict, item: str) -> dict:
    if "=" not in item:
        raise ValidationError(f"--set expects key=value, got {item!r}")
    key, _, raw = item.partition("=")
    try:
        value = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ParseError(f"cannot parse --set value {raw!r}: {exc}") from exc
    return _set_path(data, key, value)


def _resolve_config(args) -> ScenarioConfig:
    data = read_document(Path(args.config)) if args.config is not None else {}
    for item in args.set or []:
        _apply_override(data, item)
    return load_scenario(data, renormalize=args.renormalize)


def _config_header(cfg: ScenarioConfig, command: str, extra: dict | None = None) -> list[str]:
    lines = [f"# loracell {command}",
             "# config: " + json.dumps(cfg.to_dict(), sort_keys=True)]
    for key, value in (extra or {}).items():
        lines.append(f"# {key}: {_fmt(value)}")
    return lines


def _emit(args, doc: Callable[[], dict], header: list[str], columns: list[str],
          rows: list[list]):
    """Write the document ``doc()`` as JSON or the CSV table, per ``--format``, to
    ``--out`` or stdout; ``doc`` builds the document, so a CSV never pays for it."""
    if args.format == "doc":
        text = json.dumps(doc(), sort_keys=True, indent=2, default=_fmt) + "\n"
    else:
        lines = [*header, ",".join(columns), *(",".join(map(_fmt, row)) for row in rows)]
        text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)


# -- solve -------------------------------------------------------------------

def cmd_solve(args) -> int:
    cfg = _resolve_config(args)
    state = analytic.solve(cfg, tol=args.tol, max_iter=args.max_iter)
    report = metrics.compute_report(state, cfg)
    solver = {"converged": state.converged, "iterations": state.iterations,
              "residual": state.residual, "tol": args.tol, "max_iter": args.max_iter}

    def doc():
        out = {"command": "solve", "config": cfg.to_dict(), "solver": solver,
               "metrics": report.to_dict()}
        if args.full_state:
            vectors = ("s_ul", "s_dl", "s_int", "s_tx", "f_tx1", "f_tx2", "s_int_ack1", "s_sb1")
            out["steady_state"] = {
                **{name: list(getattr(state, name)) for name in vectors},
                "s_sb2": state.s_sb2, "r_phy": list(state.rates.r_phy), "d": list(state.rates.d),
                "s_demod": state.demod.s_demod, "p_lock": list(state.demod.p_lock)}
        return out

    columns = list(metrics.METRICS) + ["iterations", "residual", "converged"]
    row = ([getattr(report, k) for k in metrics.METRICS]
           + [state.iterations, state.residual, state.converged])
    _emit(args, doc, _config_header(cfg, "solve", solver), columns, [row])
    return EXIT_OK if state.converged else EXIT_NO_CONVERGENCE


# -- sweep -------------------------------------------------------------------

#: Most values of one ``--values`` or ``--lambdas``: a sweep's memory grows with its point
#: count (``ru_maxrss`` with glibc's default allocator: 252 MB at 40,000 points, 428 MB at
#: 100,000), so a sweep stays below ~0.5 GB.
_MAX_VALUES = 100_000


def _parse_values(spec: str) -> list[float]:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (3, 4):
            raise ValidationError("range must be start:stop:count[:log|lin]")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValidationError(f"cannot parse range {spec!r}") from exc
        scale = parts[3] if len(parts) == 4 else "lin"
        if not 1 <= count <= _MAX_VALUES:   # checked before any array is built
            raise ValidationError(f"range count must be 1 to {_MAX_VALUES}, got {count}")
        if scale == "log":
            if start <= 0 or stop <= 0:
                raise ValidationError("log range needs positive endpoints")
            values = list(np.logspace(np.log10(start), np.log10(stop), count))
        elif scale == "lin":
            values = list(np.linspace(start, stop, count))
        else:
            raise ValidationError(f"unknown range scale {scale!r}")
    else:
        try:
            values = [float(v) for v in spec.split(",") if v.strip() != ""]
        except ValueError as exc:
            raise ValidationError(f"cannot parse sweep values {spec!r}") from exc
    if not 1 <= len(values) <= _MAX_VALUES:
        raise ValidationError(f"expected 1 to {_MAX_VALUES} sweep values, got {len(values)}")
    diffs = np.diff(values)
    if len(values) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValidationError("sweep values must be strictly monotone")
    return values


def _sweep_point(base: ScenarioConfig, axis: str, value) -> ScenarioConfig:
    """The config of one sweep point: ``base`` with ``axis`` set to ``value``.

    The mapping holds ``base``'s validated field values, which
    ``load_scenario`` takes as they are; a dotted axis edits a fresh
    ``to_dict`` copy, whose nested mappings it can reach.
    """
    data = base.to_dict() if "." in axis else dict(vars(base))
    return load_scenario(_set_path(data, axis, value))


def cmd_sweep(args) -> int:
    base = _resolve_config(args)
    values = _parse_values(args.values)
    outputs = ([s.strip() for s in args.outputs.split(",")] if args.outputs
               else list(metrics.METRICS))
    unknown = set(outputs) - set(metrics.METRICS)
    if unknown:
        raise ValidationError(f"unknown sweep outputs: {sorted(unknown)}; "
                              f"available: {list(metrics.METRICS)}")

    cfgs = [_sweep_point(base, args.axis, value) for value in values]
    groups = analytic.solve_groups(cfgs, tol=args.tol, max_iter=args.max_iter)
    errors = {i: error for *_, group_errors in groups for i, error in group_errors.items()}
    if errors:
        raise errors[min(errors)]

    # Each solver batch is reported as one batch, and its rows go back in value order.
    rows: list = [None] * len(cfgs)
    for indices, cfg, state, _ in groups:
        solver = zip(state.iterations.tolist(), state.residual.tolist(),
                     state.converged.tolist())
        for i, report, row in zip(indices, metrics.compute_report(state, cfg), solver):
            rows[i] = [values[i], *(getattr(report, k) for k in outputs), *row]

    columns = [args.axis] + outputs + ["iterations", "residual", "converged"]
    header = _config_header(base, "sweep", {"axis": args.axis, "values": args.values})
    _emit(args, lambda: {"command": "sweep", "config": base.to_dict(), "axis": args.axis,
                         "rows": [dict(zip(columns, row)) for row in rows]},
          header, columns, rows)
    return EXIT_OK if all(row[-1] for row in rows) else EXIT_NO_CONVERGENCE


# -- simulate ------------------------------------------------------------------

def _sim_config(args, cfg: ScenarioConfig) -> simulate.SimConfig:
    # Every field after the scenario is the dest of one simulator flag.
    return simulate.SimConfig(cfg, **{f.name: getattr(args, f.name)
                                      for f in fields(simulate.SimConfig)[1:]})


def _sim_settings(sim_cfg: simulate.SimConfig) -> dict:
    return {"seed": sim_cfg.seed, "n_devices": sim_cfg.n_devices,
            "arrival_model": sim_cfg.arrival_model,
            "capture_model": sim_cfg.capture_model,
            "sim_duration": sim_cfg.sim_duration,
            "warmup": sim_cfg.resolved_warmup(),
            "n_replications": sim_cfg.n_replications}


def _sim_doc(sim_cfg: simulate.SimConfig) -> dict:
    """The ``sim`` object of a document: the settings and the number of chains."""
    return {**_sim_settings(sim_cfg), "chains": len(sim_cfg.chains())}


def _saturation(result) -> dict:
    """The saturation fields of a ``ReplicationResult`` or ``SimReport``."""
    return {"busy_at_arrival": list(result.busy_at_arrival),
            "offered_rate_ratio": result.offered_rate_ratio}


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    sim_cfg = _sim_config(args, cfg)
    report = simulate.run(sim_cfg, workers=args.workers)

    extra = _sim_settings(sim_cfg)
    columns = ["rep", "offered_app", "offered_phy", *metrics.METRICS, "dc_violations"]
    rows = [[i, sum(rep.offered_app_u) + sum(rep.offered_app_c), sum(rep.offered_phy)]
            + [getattr(rep, name) for name in metrics.METRICS] + [rep.dc_violations]
            for i, rep in enumerate(report.replications)]
    summaries = [getattr(report, name) for name in metrics.METRICS]
    means = (["mean", report.offered_app, report.offered_phy]
             + [s.mean for s in summaries] + [report.dc_violations])
    cis = ["ci95", None, None] + [s.halfwidth for s in summaries] + [None]
    _emit(args, lambda: {
        "command": "simulate", "config": cfg.to_dict(), "sim": _sim_doc(sim_cfg),
        "replications": [{**dict(zip(columns, row)), "chain": rep.chain, **_saturation(rep)}
                         for row, rep in zip(rows, report.replications)],
        "mean": {**dict(zip(columns, means)), **_saturation(report)},
        "ci95": dict(zip(columns, cis))},
        _config_header(cfg, "simulate", extra), columns, rows + [means, cis])
    return EXIT_OK


# -- optimize ------------------------------------------------------------------

def _parse_int_grid(spec: str | tuple[int, ...]) -> tuple[int, ...]:
    """A comma list of ints; the ``OptimizationProblem`` default, a tuple, passes as is."""
    if isinstance(spec, tuple):
        return spec
    try:
        values = tuple(int(v) for v in spec.split(",") if v.strip() != "")
    except ValueError as exc:
        raise ValidationError(f"cannot parse grid {spec!r}") from exc
    if not values:
        raise ValidationError("grid must be non-empty")
    return values


def cmd_optimize(args) -> int:
    cfg = _resolve_config(args)
    problem = OptimizationProblem(
        base_cfg=cfg, lambdas=tuple(_parse_values(args.lambdas)),
        m_grid=_parse_int_grid(args.m_grid), h_grid=_parse_int_grid(args.h_grid),
        objective=args.objective, max_ascent_iters=args.max_ascent_iters,
        perturbed_restarts=args.perturbed_restarts)
    result = run_optimize(problem, workers=args.workers)

    # Every GridRecord field, with ``lam`` written as ``lambda``; JSON writes tuples as lists.
    records = [{("lambda" if name == "lam" else name): value for name, value in vars(r).items()}
               for r in result.records]
    keys = ["lambda", "m", "h", "value", "iterations", "evaluations", "start", "solver_converged"]
    columns = (keys + [f"p_u_sf{s}" for s in range(7, 13)]
               + [f"p_c_sf{s}" for s in range(7, 13)])
    rows = [[*(rec[k] for k in keys), *rec["p_unconfirmed"], *rec["p_confirmed"]]
            for rec in records]
    _emit(args, lambda: {
        "command": "optimize", "config": cfg.to_dict(), "objective": problem.objective,
        "m_grid": list(problem.m_grid), "h_grid": list(problem.h_grid),
        "lambdas": list(problem.lambdas),
        "best": {"value": result.best_value, "config": result.best_cfg.to_dict()},
        "records": records},
        _config_header(cfg, "optimize", {"objective": problem.objective}), columns, rows)
    return EXIT_OK


# -- compare -------------------------------------------------------------------

#: The rows of ``compare``: the criterion-7 probabilities first, then the
#: delays, then fairness.
_COMPARE_ROWS = ("uu", "cu", "cd", "f_nmd", "f_gwtx", "f_int", "delta_ul", "delta_dl", "jain")


def cmd_compare(args) -> int:
    cfg = _resolve_config(args)
    state = analytic.solve(cfg, tol=args.tol, max_iter=args.max_iter)
    report = metrics.compute_report(state, cfg)
    sim_cfg = _sim_config(args, cfg)
    sim_report = simulate.run(sim_cfg, workers=args.workers)

    rows = []
    for name in _COMPARE_ROWS:
        model_value, summary = getattr(report, name), getattr(sim_report, name)
        sim_value = summary.mean
        diff = (abs(model_value - sim_value)
                if model_value is not None and sim_value is not None else None)
        rows.append([name, model_value, sim_value, diff, summary.halfwidth])
    extra = {"seed": sim_cfg.seed, "n_replications": sim_cfg.n_replications,
             "sim_duration": sim_cfg.sim_duration}
    columns = ["metric", "analytic", "simulated", "abs_diff", "sim_ci95"]
    _emit(args, lambda: {"command": "compare", "config": cfg.to_dict(), "sim": _sim_doc(sim_cfg),
                         "saturation": _saturation(sim_report),
                         "rows": [dict(zip(columns, row)) for row in rows]},
          _config_header(cfg, "compare", extra), columns, rows)
    return EXIT_OK if state.converged else EXIT_NO_CONVERGENCE


# -- parser ---------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--config", help="scenario YAML file (defaults when omitted)")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a scenario key (dotted paths allowed)")
    sub.add_argument("--renormalize", action="store_true",
                     help="rescale SF distributions that do not sum to 1")
    sub.add_argument("--out", help="output path (stdout when omitted)")
    sub.add_argument("--format", choices=("csv", "doc"))


def _field_defaults(cls) -> dict:
    """The declared default of every field of dataclass ``cls`` that has one, for
    ``set_defaults`` of the flags whose dests are those fields."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


def _add_solver(sub):
    sub.add_argument("--tol", type=float, default=analytic._TOL)
    sub.add_argument("--max-iter", type=int, default=analytic._MAX_ITER)


def _add_sim(sub):
    sub.add_argument("--devices", dest="n_devices", metavar="DEVICES", type=int)
    sub.add_argument("--arrivals", dest="arrival_model", choices=simulate._ARRIVAL_MODELS)
    sub.add_argument("--capture", dest="capture_model", choices=simulate._CAPTURE_MODELS)
    sub.add_argument("--radius", dest="radius_m", metavar="RADIUS", type=float)
    sub.add_argument("--path-loss-exponent", type=float)
    sub.add_argument("--cr-db", type=float)
    sub.add_argument("--duration", dest="sim_duration", metavar="DURATION", type=float)
    sub.add_argument("--warmup", type=float)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--replications", dest="n_replications", metavar="REPLICATIONS", type=int)
    sub.add_argument("--trace", dest="trace_path", metavar="TRACE",
                     help="append per-event trace lines to this file")
    sub.set_defaults(**_field_defaults(simulate.SimConfig))
    _add_workers(sub)


def _add_workers(sub):
    sub.add_argument("--workers", type=int, default=None,
                     help="processes that run the simulator's chains or the grid points, this "
                          "one included (default: one per usable core; at most one per chain or "
                          "grid point); 1 keeps them in one process; same output for any count; "
                          "below 1 exits 3")


@functools.cache   # parse_args leaves the parser as it was, so one serves every main call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loracell",
        description="Steady-state model, optimizer and Monte-Carlo simulator "
                    "of a single-gateway LoRaWAN cell.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("solve", help="solve one scenario and print its metrics")
    _add_common(p); _add_solver(p)
    p.add_argument("--full-state", action="store_true",
                   help="include the converged per-SF state vectors")
    p.set_defaults(func=cmd_solve, format="doc")

    p = subs.add_parser("sweep", help="solve across one swept parameter")
    _add_common(p); _add_solver(p)
    p.add_argument("--axis", required=True, help="dotted config key, e.g. lambda_total")
    p.add_argument("--values", required=True,
                   help="comma list, or start:stop:count[:log|lin]")
    p.add_argument("--outputs", default=None,
                   help=f"comma list of metric columns (default all: {','.join(metrics.METRICS)})")
    # Accepted so that existing invocations keep working; it has no effect.
    p.add_argument("--workers", type=int, default=1, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_sweep, format="csv")

    p = subs.add_parser("simulate", help="run the Monte-Carlo simulator")
    _add_common(p); _add_sim(p)
    p.set_defaults(func=cmd_simulate, format="csv")

    p = subs.add_parser("optimize", help="search SF distributions and (m, h)")
    _add_common(p)
    p.add_argument("--lambdas", required=True,
                   help="traffic loads: comma list or start:stop:count[:log|lin]")
    p.add_argument("--m-grid")
    p.add_argument("--h-grid")
    p.add_argument("--objective", choices=sorted(OBJECTIVES))
    p.add_argument("--max-ascent-iters", type=int)
    p.add_argument("--perturbed-restarts", action="store_true")
    _add_workers(p)
    p.set_defaults(func=cmd_optimize, format="doc", **_field_defaults(OptimizationProblem))

    p = subs.add_parser("compare", help="solve and simulate, join the metrics")
    _add_common(p); _add_solver(p); _add_sim(p)
    p.set_defaults(func=cmd_compare, format="csv")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except analytic.ModelError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except simulate.SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
