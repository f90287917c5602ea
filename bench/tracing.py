"""Outside-in tracing: timing wrappers around the program's module functions.

The traced run replaces module attributes with wrappers that record one
span per call: name, start, end, parent span and operation id.  Spans stay
in memory in flat arrays and are written out when the run ends.  A
function that a later refactor removes is reported absent, not an error.

Self time is a span's duration minus the time its child spans cover; the
program is single-threaded, so child spans never overlap.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

#: (module, attribute, span name).  ``analytic.solve`` and
#: ``metrics.compute_report`` are the attributes that ``cli``, ``optimize``
#: and the benchmark itself look up at call time.
TRACED = (
    ("loracell.cli", "load_scenario", "scenario.load"),
    ("loracell.analytic", "solve", "analytic.solve"),
    ("loracell.analytic", "iterate", "analytic.iterate"),
    ("loracell.analytic", "attempt_distributions", "analytic.attempt_distributions"),
    ("loracell.analytic", "phy_rates", "analytic.phy_rates"),
    ("loracell.analytic", "demod_chain", "analytic.demod_chain"),
    ("loracell.analytic", "subband_states", "analytic.subband_states"),
    ("loracell.analytic", "interference_survival", "analytic.interference_survival"),
    ("loracell.analytic", "gw_tx_survival", "analytic.gw_tx_survival"),
    ("loracell.analytic", "ack_interference_survival", "analytic.ack_interference_survival"),
    ("loracell.analytic", "dl_success", "analytic.dl_success"),
    ("loracell.metrics", "compute_report", "metrics.report"),
    ("loracell.metrics", "delays", "metrics.delays"),
    ("loracell.metrics", "reliability", "metrics.reliability"),
    ("loracell.simulate", "run", "simulate.run"),
    ("loracell.simulate", "place_devices", "simulate.place_devices"),
)

#: The per-sweep children of ``iterate``, reported in µs per sweep.
SWEEP_CHILDREN = ("phy_rates", "gw_tx_survival", "subband_states", "demod_chain",
                  "attempt_distributions", "ack_interference_survival", "dl_success",
                  "interference_survival")


class Tracer:
    """Span recorder.  ``install`` swaps in the wrappers, ``uninstall`` undoes it."""

    def __init__(self):
        self.names: list[str] = []
        self.kind = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_id = 0
        self.absent: list[str] = []
        # (span index, iterations, converged) per analytic.solve call.
        self.solves: list[tuple[int, int, bool]] = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def next_op(self) -> None:
        self.op_id += 1

    def __len__(self) -> int:
        return len(self.kind)

    def install(self) -> None:
        for module_name, attr, name in TRACED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                if name not in self.absent:
                    self.absent.append(name)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        kind_id = self.names.index(name)
        kind, parent, op, start, end = self.kind, self.parent, self.op, self.start, self.end
        stack = self._stack
        solves = self.solves if name == "analytic.solve" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(kind)
            kind.append(kind_id)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if solves is not None:
                solves.append((idx, out.iterations, out.converged))
            return out

        return traced

    def spans(self, lo: int, hi: int) -> Spans:
        """The spans recorded between two ``len(tracer)`` readings."""
        return Spans(self, lo, hi)

    def save(self, path) -> None:
        np.savez(path, names=np.asarray(self.names), kind=np.asarray(self.kind),
                 parent=np.asarray(self.parent), op=np.asarray(self.op),
                 start=np.asarray(self.start), end=np.asarray(self.end))


class Spans:
    """The spans of one stage, with totals by span name."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        parent = np.asarray(tracer.parent)
        dur = np.asarray(tracer.end) - np.asarray(tracer.start)
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self._names = tracer.names
        self._kind = np.asarray(tracer.kind)[lo:hi]
        self._dur = dur[lo:hi]
        self._self = (dur - covered)[lo:hi]
        self._top = parent[lo:hi] < 0
        self.solves = [(i, it, ok) for i, it, ok in tracer.solves if lo <= i < hi]
        self.solve_durations = dur[[i for i, _, _ in self.solves]]

    def _mask(self, name: str) -> np.ndarray:
        if name not in self._names:
            return np.zeros(len(self._kind), dtype=bool)
        return self._kind == self._names.index(name)

    def count(self, name: str) -> int:
        return int(self._mask(name).sum())

    def total(self, name: str) -> float:
        return float(self._dur[self._mask(name)].sum())

    def self_total(self, name: str) -> float:
        return float(self._self[self._mask(name)].sum())

    def top_level_total(self) -> float:
        return float(self._dur[self._top].sum())


def _ratio(num: float, den: float) -> float | None:
    """``None`` marks a metric absent: no work of that kind happened."""
    return num / den if den else None


def layer_metrics(spans: Spans, wall: float, via_cli: bool, record=None, step_cap=None,
                  sim_reports=()) -> dict[str, float | None]:
    """Per-layer metrics of one stage, named without the stage prefix.

    ``wall`` is the stage's traced wall time; ``record`` and ``step_cap`` are
    the optimizer's ``GridRecord`` and ``max_ascent_iters``; ``sim_reports``
    are the ``SimReport`` objects the stage produced.  ``None`` marks a metric
    absent.
    """
    def per(name: str, den: float, unit: float = 1e6, total=spans.total) -> float | None:
        """Time in ``name`` spans per ``den``; absent when no such span ran."""
        return _ratio(unit * total(name), den) if spans.count(name) else None

    m: dict[str, float | None] = {}
    m["cli.self_s"] = wall - spans.top_level_total() if via_cli else None
    m["scenario.load_us"] = per("scenario.load", spans.count("scenario.load"))

    iters = np.array([it for _, it, _ in spans.solves], dtype=float)
    n_solves = len(iters)
    sweeps = float(iters.sum())
    durations = spans.solve_durations
    some = n_solves > 0
    m["analytic.solves"] = float(n_solves) if some else None
    m["analytic.sweeps"] = sweeps if some else None
    m["analytic.sweeps_mean"] = _ratio(sweeps, n_solves)
    m["analytic.sweeps_max"] = float(iters.max()) if some else None
    m["analytic.sweeps_over20"] = float((iters > 20).sum()) if some else None
    m["analytic.nonconverged"] = float(sum(not ok for _, _, ok in spans.solves)) if some else None
    m["analytic.solve_us_p50"] = 1e6 * float(np.percentile(durations, 50)) if some else None
    m["analytic.solve_us_p99"] = 1e6 * float(np.percentile(durations, 99)) if some else None
    m["analytic.sweep_us"] = per("analytic.solve", sweeps)
    m["analytic.solve_self_us"] = per("analytic.solve", n_solves, total=spans.self_total)
    m["analytic.iterate_self_us"] = per("analytic.iterate", sweeps, total=spans.self_total)
    for child in SWEEP_CHILDREN:
        m[f"analytic.{child}_us"] = per(f"analytic.{child}", sweeps)

    n_reports = spans.count("metrics.report")
    m["metrics.report_us"] = per("metrics.report", n_reports)
    m["metrics.delays_us"] = per("metrics.delays", n_reports)
    m["metrics.reliability_us"] = per("metrics.reliability", n_reports)

    if record is not None:
        evaluations = record.evaluations
        solve_time = spans.total("analytic.solve")
        m["optimize.evaluations"] = float(evaluations)
        m["optimize.steps"] = float(record.iterations)
        m["optimize.hit_cap"] = float(record.iterations == step_cap)
        m["optimize.evals_per_step"] = _ratio(evaluations, record.iterations)
        m["optimize.sweeps_per_eval"] = _ratio(sweeps, evaluations)
        m["optimize.eval_ms"] = _ratio(1e3 * wall, evaluations)
        m["optimize.solve_share"] = _ratio(solve_time, wall)
        m["optimize.self_ms"] = 1e3 * (wall - solve_time - spans.total("metrics.report"))
    else:
        for name in ("evaluations", "steps", "hit_cap", "evals_per_step", "sweeps_per_eval",
                     "eval_ms", "solve_share", "self_ms"):
            m[f"optimize.{name}"] = None

    reps = [rep for report in sim_reports for rep in report.replications]
    events = sum(rep.events for rep in reps)
    sim_time = spans.total("simulate.run")
    m["simulate.events"] = _ratio(events, len(reps))
    for tally in ("offered_phy", "dl_sb1_sent", "dl_sb2_sent", "dl_no_window",
                  "dl_rx1_corrupted"):
        total = sum(np.sum(getattr(rep, tally)) for rep in reps)
        m[f"simulate.{tally}"] = float(total) if reps else None
    m["simulate.events_per_s"] = _ratio(events, sim_time) if reps else None
    m["simulate.us_per_event"] = _ratio(1e6 * sim_time, events) if reps else None
    m["simulate.place_devices_ms"] = per("simulate.place_devices",
                                          spans.count("simulate.place_devices"), unit=1e3)
    return m
