"""loracell benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Run it from anywhere; it benchmarks the sources in ``src/`` next to this
directory and refuses to run without them.  ``--trace 0`` measures the
end-to-end metrics with no instrumentation.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  The human
table comes first; the last line of standard output is one JSON object.
Details (every sample, every failure, and in traced runs the spans) go to
``.bench_out/`` at the repository root.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Fresh interpreters started per run to time ``setup_s``; the median is reported.
SETUP_REPEATS = 5
#: The README library example, with the host-speed probe running (see hostspeed.py).
SETUP_CODE = f"""\
import sys
sys.path.insert(0, {str(HERE)!r})
from hostspeed import HostSpeed
with HostSpeed() as speed:
    from loracell import ScenarioConfig, compute_report, solve
    cfg = ScenarioConfig(lambda_total=1.0, alpha=1.0, m=8)
    compute_report(solve(cfg), cfg)
print(speed.spent, speed.scale())
"""

#: The end-to-end time of each workload's two stages.
STAGE_METRICS = ("stage1_s", "stage2_s")
TIME_UNITS = {"s", "ms", "us"}
#: How many failure reasons to print.
SHOW_FAILURES = 10


def import_program():
    """Import ``loracell`` from this checkout's ``src/``, or exit non-zero."""
    package = SRC / "loracell"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no loracell sources at {package}")
    sys.path.insert(0, str(SRC))
    import loracell

    if Path(loracell.__file__).resolve().parent != package:
        raise SystemExit(f"bench: imported loracell from {loracell.__file__}, not {package}")


def measure_setup() -> tuple[float, float]:
    """Wall time for a fresh interpreter to import loracell and solve once.

    Returns the host-speed normalized time and the raw wall time.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    wall = perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"bench: set-up process failed:\n{proc.stderr}")
    spent, scale = (float(v) for v in proc.stdout.split())
    return (wall - spent) * scale, wall


class StageSample:
    """One timed run of a stage, as the runner saw it.

    ``seconds`` is the stage's metric time and ``pass_seconds`` its whole
    wall time, both normalized to the reference host speed; ``scale`` is the
    normalization factor.
    """

    def __init__(self, stage, run, wall: float, speed: HostSpeed, traced: bool,
                 spans: tuple[int, int]):
        self.stage = stage
        self.run = run
        self.wall = wall
        self.seconds = speed.normalize(run.seconds, wall)
        self.pass_seconds = speed.normalize(wall, wall)
        self.scale = speed.scale()
        self.traced = traced
        self.spans = spans


class Runner:
    def __init__(self, workload: str, seed: int, tmp: Path):
        from tracing import Tracer
        from workloads import WORKLOADS, Context, load_reference

        self.stages = WORKLOADS[workload]
        self.tracer = Tracer()
        self.ctx = Context(tmp=tmp, seed=seed, reference=load_reference(),
                           next_op=self.tracer.next_op)
        self.samples: list[StageSample] = []
        self.first_keys: dict[str, dict] = {}

    def run_stage(self, stage, traced: bool) -> StageSample:
        if traced:
            self.tracer.install()
        lo = len(self.tracer)
        try:
            with HostSpeed() as speed:
                t0 = perf_counter()
                run = stage.run(self.ctx)
                wall = perf_counter() - t0
        finally:
            self.tracer.uninstall()
        self.check_repeat(stage, run)
        sample = StageSample(stage, run, wall, speed, traced, (lo, len(self.tracer)))
        self.samples.append(sample)
        return sample

    def check_repeat(self, stage, run) -> None:
        """Fail each operation whose key differs from its key in the stage's first pass.

        The same code must give the same outputs and exact counts, traced or
        not.  Only the first pass's keys are kept, so memory does not grow
        with the number of passes.
        """
        first = self.first_keys.setdefault(stage.name, {op.name: op.key for op in run.ops})
        for op in run.ops:
            if op.ok and first.get(op.name, op.key) != op.key:
                op.ok, op.why = False, "output differs from the first pass"
            op.key = None

    def of(self, stage, traced: bool | None = None) -> list[StageSample]:
        return [s for s in self.samples
                if s.stage is stage and (traced is None or s.traced == traced)]

    def measure(self, seconds: float) -> None:
        """Round-robin over the stages until the next one would overrun ``seconds``.

        Every stage runs at least once; a stage is skipped when its last wall
        time no longer fits in what is left.
        """
        deadline = perf_counter() + seconds
        for stage in self.stages:
            self.run_stage(stage, traced=False)
        while True:
            ran = False
            for stage in self.stages:
                if perf_counter() + self.of(stage)[-1].wall <= deadline:
                    self.run_stage(stage, traced=False)
                    ran = True
            if not ran:
                return

    def measure_traced(self, seconds: float) -> None:
        """Alternate untraced and traced passes over both stages; at least one pair."""
        deadline = perf_counter() + seconds
        while True:
            t0 = perf_counter()
            for traced in (False, True):
                for stage in self.stages:
                    self.run_stage(stage, traced)
            if perf_counter() + (perf_counter() - t0) > deadline:
                return

    def count_ops(self) -> tuple[int, int, list[str]]:
        """Attempted and failed operations over all passes, and why each failed."""
        ops = [(s.stage.name, op) for s in self.samples for op in s.run.ops]
        reasons = [f"{stage}: {op.name}: {op.why}" for stage, op in ops if not op.ok]
        return len(ops), len(reasons), reasons

    def end_to_end(self, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
        """Normalized end-to-end metrics, and the raw wall-time medians beside them."""
        values = {"setup_s": statistics.median(n for n, _ in setup)}
        raw = {"setup_s": statistics.median(w for _, w in setup)}
        for metric, stage in zip(STAGE_METRICS, self.stages):
            values[metric] = statistics.median(s.seconds for s in self.of(stage))
            raw[metric] = statistics.median(s.run.seconds for s in self.of(stage))
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        return values, raw

    def per_layer(self, units: dict[str, str]) -> dict[str, float | None]:
        """Per-layer metrics: the median over traced passes, per stage.

        Times are scaled to the reference host speed like the end-to-end
        times, so that traced runs on different commits compare.
        """
        from tracing import layer_metrics

        values: dict[str, float | None] = {}
        for k, stage in enumerate(self.stages, start=1):
            per_pass = []
            for sample in self.of(stage, traced=True):
                spans = self.tracer.spans(*sample.spans)
                got = layer_metrics(
                    spans, sample.wall, stage.via_cli, record=sample.run.record,
                    step_cap=sample.run.step_cap, sim_reports=sample.run.sim_reports)
                for name, value in got.items():
                    unit = units[f"stage{k}.{name}"]
                    if value is not None and unit in TIME_UNITS:
                        got[name] = value * sample.scale
                    elif value is not None and unit == "1/s":
                        got[name] = value / sample.scale
                per_pass.append(got)
            for name in per_pass[0]:
                got = [p[name] for p in per_pass if p[name] is not None]
                values[f"stage{k}.{name}"] = statistics.median(got) if got else None
        plain = statistics.median(self._pass_walls(False))
        values["trace.overhead_frac"] = statistics.median(self._pass_walls(True)) / plain - 1.0
        return values

    def _pass_walls(self, traced: bool) -> list[float]:
        per_stage = [[s.pass_seconds for s in self.of(stage, traced)] for stage in self.stages]
        return [sum(walls) for walls in zip(*per_stage)]


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("figures", "optimize", "simulate"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    declared = declared_metrics(bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    setup = [] if args.trace else [measure_setup() for _ in range(SETUP_REPEATS)]

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        runner = Runner(args.workload, args.seed, Path(tmp))
        if args.trace:
            runner.measure_traced(args.seconds)
        else:
            runner.measure(args.seconds)
    attempted, failed, reasons = runner.count_ops()

    if args.trace:
        values = runner.per_layer({m["name"]: m["unit"] for m in declared})
        raw = {}
        runner.tracer.save(OUT_DIR / f"{args.workload}-spans.npz")
    else:
        values, raw = runner.end_to_end(setup)
        values["success_frac"] = 1.0 - failed / attempted
    absent = [m["name"] for m in declared if values.get(m["name"]) is None]
    metrics = {m["name"]: {"value": values.get(m["name"]) or 0.0, "unit": m["unit"]}
               for m in declared}

    notes = [f"{s.stage.name}: {note}" for s in runner.samples[:len(runner.stages)]
             for note in s.run.notes]
    print(f"loracell benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"stage runs { {st.name: len(runner.of(st)) for st in runner.stages} }")
    aliases = {metric: stage.name + "_s" for metric, stage in zip(STAGE_METRICS, runner.stages)}
    for m in declared:
        name = m["name"]
        shown = "absent" if name in absent else f"{metrics[name]['value']:.6g}"
        label = f"{name} ({aliases[name]})" if name in aliases else name
        extra = f"  raw wall {raw[name]:.4g} s" if name in raw else ""
        print(f"  {label:<52} {shown:>12} {m['unit']:<6} {m['better']} is better{extra}")
    print(f"  operations: {attempted} attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.4g})")
    for line in reasons[:SHOW_FAILURES]:
        print(f"  FAILED {line}")
    for line in notes:
        print(f"  note: {line}")

    details = {
        "args": vars(args), "attempted": attempted, "failed": failed, "failures": reasons,
        "metrics": metrics, "absent": absent, "raw_wall_medians": raw, "notes": notes,
        "setup_samples": [{"seconds": n, "wall": w} for n, w in setup],
        "samples": [{"stage": s.stage.name, "traced": s.traced, "seconds": s.seconds,
                     "raw_seconds": s.run.seconds, "wall": s.wall, "scale": s.scale}
                    for s in runner.samples],
        "tracer_absent": runner.tracer.absent,
    }
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
