"""Write ``bench/reference.json``: the outputs the benchmark checks against.

    python3 bench/make_reference.py

The committed file was written from the seed commit.  Regenerate it only
when a change is meant to alter results beyond the checks' tolerance, and
say so in the change.  Takes about 25 seconds.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

run.import_program()

from loracell import analytic, cli, metrics  # noqa: E402
from loracell.scenario import ScenarioConfig  # noqa: E402
from workloads import (  # noqa: E402
    FIGURE_SWEEPS, METRIC_COLUMNS, OPT_KNEE_LAMBDA, OPT_OVERLOAD_LAMBDA, REFERENCE_PATH,
    grid_points, optimization_problem, optimize_mod, sweep_rows,
)


def main() -> int:
    reference = {"figures": {}, "grid480": [], "optimize": {}}
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        for name, argv in FIGURE_SWEEPS:
            out = Path(tmp) / f"{name}.csv"
            if cli.main([*argv, "--out", str(out)]) != 0:
                raise SystemExit(f"{name} failed")
            reference["figures"][name] = [{"axis": r["axis"], "values": r["values"]}
                                          for r in sweep_rows(out.read_text())]
    for m, alpha, lam in grid_points():
        cfg = ScenarioConfig(lambda_total=lam, alpha=alpha, m=m, h=1)
        report = metrics.compute_report(analytic.solve(cfg), cfg).to_dict()
        reference["grid480"].append({k: report[k] for k in METRIC_COLUMNS})
    for label, lam in (("opt_knee", OPT_KNEE_LAMBDA), ("opt_overload", OPT_OVERLOAD_LAMBDA)):
        record = optimize_mod.optimize(optimization_problem(lam)).records[0]
        reference["optimize"][label] = {
            "value": record.value, "p_unconfirmed": record.p_unconfirmed,
            "p_confirmed": record.p_confirmed, "evaluations": record.evaluations,
            "steps": record.iterations}
    REFERENCE_PATH.write_text(json.dumps(reference) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
