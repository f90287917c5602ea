"""Regenerate the golden outputs of the README figure sweeps, one-row solves and simulations.

Writes, next to this script, the CSV of each of the nine README figure
sweeps (``<name>.csv``) and the ``--format doc`` output of the ``alpha``
sweep (``alpha.json``), the CSV and ``--full-state --format doc`` output
of two one-row ``solve`` calls (``solve_*``), plus the CSV of a shortened
README validation ``compare``, the CSV and ``--format doc`` output of a
shortened geometric-capture ``simulate`` and the ``--format doc`` output of
two short runs off the README point (``sim_*``), and the CSV and
``--format doc`` output of a small ``optimize`` grid (``opt_*``), and the
``--help`` text of the program and of each command at 80 columns
(``help*.txt``).  ``tests/test_golden.py`` asserts that the CLI reproduces
every file byte for byte, so regenerate them only for a change that is
meant to alter solver, metric or simulator numbers or the ``--help`` text,
and say so:

    PYTHONPATH=src python tests/data/golden/make_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path
from unittest import mock

from loracell import cli

HERE = Path(__file__).resolve().parent

_LOAD = ["--axis", "lambda_total", "--values", "0.01:100:40:log"]

#: The README figure sweeps (the m loop runs four times), by output file stem.
SWEEPS: dict[str, list[str]] = {
    "phy": ["sweep", *_LOAD, "--set", "alpha=1", "--set", "m=8",
            "--outputs", "f_nmd,f_gwtx,f_int"],
    **{f"cucd_m{m}": ["sweep", *_LOAD, "--set", "alpha=1", "--set", f"m={m}",
                      "--outputs", "cu,cd"] for m in (1, 2, 4, 8)},
    "alpha": ["sweep", "--axis", "alpha", "--values", "0:1:11:lin",
              "--set", "lambda_total=1", "--set", "m=8", "--set", "h=1"],
    "delays": ["sweep", *_LOAD, "--set", "alpha=1", "--set", "m=8",
               "--outputs", "delta_ul,delta_dl"],
    "fairness": ["sweep", "--axis", "lambda_total", "--values", "0.01:30:25:log",
                 "--set", "alpha=0.3", "--set", "m=8", "--set", "h=8",
                 "--set", "p_unconfirmed=explora", "--set", "p_confirmed=explora",
                 "--outputs", "jain"],
    "cd_dc_lifted": ["sweep", *_LOAD, "--set", "alpha=1", "--set", "m=8",
                     "--set", "delta_sb1=0", "--set", "delta_sb2=0",
                     "--outputs", "cd"],
}

#: One-row solves, by output file stem: the README library point and the
#: slowest point of the acceptance convergence grid (40 sweeps), whose load is
#: ``np.logspace(-2, 2, 40)[15]``.
SOLVES: dict[str, list[str]] = {
    "solve_readme": ["solve", "--set", "lambda_total=1", "--set", "alpha=1", "--set", "m=8"],
    "solve_knee": ["solve", "--set", "lambda_total=0.34551072945922184",
                   "--set", "alpha=0.3", "--set", "m=8"],
}

#: The README validation settings at seed 1, shortened to 2 x 2000 s.
_SIM = ["--set", "lambda_total=1", "--set", "alpha=1", "--set", "m=8",
        "--devices", "1200", "--duration", "2000", "--replications", "2", "--seed", "1"]

#: A short cell, 2 x 1500 s at seed 3, for the paths the README point never reaches.
_SHORT = ["--devices", "300", "--duration", "1500", "--warmup", "100",
          "--replications", "2", "--seed", "3", "--format", "doc"]

#: Simulator runs, by output file stem; a run ending in ``--format doc`` is
#: pinned as ``.json``, the others as ``.csv``.  ``sim_periodic`` sends
#: unconfirmed copies (h = 3) on periodic arrivals with tau = 0;
#: ``sim_rx_windows`` lifts the duty cycle, so every RX window is an event,
#: and each RX1 ACK's geometric capture reads its interferers' power at the device.
SIMULATIONS: dict[str, list[str]] = {
    "sim_compare": ["compare", *_SIM],
    "sim_geometric": ["simulate", "--capture", "geometric", *_SIM],
    "sim_periodic": ["simulate", "--arrivals", "periodic", "--set", "alpha=0.5",
                     "--set", "h=3", "--set", "m=4", "--set", "tau1=0", "--set", "tau2=0",
                     *_SHORT],
    "sim_rx_windows": ["compare", "--capture", "geometric", "--set", "alpha=1",
                       "--set", "m=4", "--set", "delta_sb1=0", "--set", "delta_sb2=0",
                       *_SHORT],
}


#: Optimizer runs, by output file stem: two loads on a 2 x 1 (m, h) grid.
OPTIMIZATIONS: dict[str, list[str]] = {
    "opt_small": ["optimize", "--lambdas", "0.1,1", "--m-grid", "1,8", "--h-grid", "8",
                  "--set", "alpha=0.3"],
}


#: ``--help`` texts, by output file name: the program's and each command's.
HELPS: dict[str, list[str]] = {
    "help.txt": ["--help"],
    **{f"help_{command}.txt": [command, "--help"]
       for command in ("solve", "sweep", "simulate", "optimize", "compare")},
}

#: Terminal width of the ``--help`` goldens; argparse wraps to ``$COLUMNS``.
HELP_COLUMNS = "80"


def golden_outputs() -> dict[str, list[str]]:
    """CLI arguments of each golden file, by file name."""
    files = {f"{name}.csv": argv for name, argv in SWEEPS.items()}
    files["alpha.json"] = [*SWEEPS["alpha"], "--format", "doc"]
    for name, argv in SOLVES.items():
        files[f"{name}.csv"] = [*argv, "--format", "csv"]
        files[f"{name}.json"] = [*argv, "--full-state", "--format", "doc"]
    files.update({f"{name}.{'json' if argv[-1] == 'doc' else 'csv'}": argv
                  for name, argv in SIMULATIONS.items()})
    files["sim_geometric.json"] = [*SIMULATIONS["sim_geometric"], "--format", "doc"]
    for name, argv in OPTIMIZATIONS.items():
        files[f"{name}.csv"] = [*argv, "--format", "csv"]
        files[f"{name}.json"] = [*argv, "--format", "doc"]
    return files


def render(argv: list[str]) -> str:
    """Standard output of ``loracell <argv>``; raises on a non-zero exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"loracell {' '.join(argv)} exited {code}")
    return out.getvalue()


def render_help(argv: list[str]) -> str:
    """Standard output of ``loracell <argv>``, a ``--help`` call, at ``HELP_COLUMNS``."""
    out = io.StringIO()
    try:
        with mock.patch.dict(os.environ, {"COLUMNS": HELP_COLUMNS}), \
                contextlib.redirect_stdout(out):
            cli.main(argv)
    except SystemExit as exc:
        if exc.code == 0:
            return out.getvalue()
    raise RuntimeError(f"loracell {' '.join(argv)} printed no help")


def main() -> int:
    for name, argv in golden_outputs().items():
        (HERE / name).write_text(render(argv))
    for name, argv in HELPS.items():
        (HERE / name).write_text(render_help(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
