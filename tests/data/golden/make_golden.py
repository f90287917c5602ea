"""Regenerate the golden outputs of the README figure sweeps, one-row solves and simulations.

Writes, next to this script, the CSV of each of the nine README figure
sweeps (``<name>.csv``) and the ``--format doc`` output of the ``alpha``
sweep (``alpha.json``), the CSV and ``--full-state --format doc`` output
of two one-row ``solve`` calls (``solve_*``), plus the CSV of a shortened
README validation ``compare``, the CSV and ``--format doc`` output of a
shortened geometric-capture ``simulate`` and the ``--format doc`` output of
three short runs off the README point, one of them two chains long
(``sim_*``), and the CSV and ``--format doc`` output of a small
``optimize`` grid (``opt_*``), and the ``--help`` text of the program and
of each command at 80 columns (``help*.txt``).  ``tests/test_golden.py`` asserts that the CLI reproduces
every file byte for byte, so regenerate them only for a change that is
meant to alter solver, metric or simulator numbers or the ``--help`` text,
and say so:

    PYTHONPATH=src python tests/data/golden/make_golden.py

With ``--pins`` it writes nothing and prints instead the event counts and
trace digests that ``tests/test_simulate.py`` pins as literals, the
solver digests that ``tests/test_analytic.py`` pins and the optimizer digest
that ``tests/test_optimize.py`` pins, one line per test, computed from the
configurations defined here, which those tests use too:

    PYTHONPATH=src python tests/data/golden/make_golden.py --pins
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from loracell import analytic, cli, optimize, simulate
from loracell.scenario import ScenarioConfig

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

#: A short cell, 2 x 1400 s after a 100 s warmup at seed 3, for the paths the
#: README point never reaches.
_SHORT = ["--devices", "300", "--duration", "1500", "--warmup", "100",
          "--replications", "2", "--seed", "3", "--format", "doc"]

#: Simulator runs, by output file stem; a run ending in ``--format doc`` is
#: pinned as ``.json``, the others as ``.csv``.  ``sim_periodic`` sends
#: unconfirmed copies (h = 3) on periodic arrivals with tau = 0;
#: ``sim_rx_windows`` lifts the duty cycle, so every RX window is an event,
#: and each RX1 ACK's geometric capture reads its interferers' power at the device;
#: ``sim_chains`` runs seven replications, which are two chains of three and four.
SIMULATIONS: dict[str, list[str]] = {
    "sim_compare": ["compare", *_SIM],
    "sim_geometric": ["simulate", "--capture", "geometric", *_SIM],
    "sim_periodic": ["simulate", "--arrivals", "periodic", "--set", "alpha=0.5",
                     "--set", "h=3", "--set", "m=4", "--set", "tau1=0", "--set", "tau2=0",
                     *_SHORT],
    "sim_rx_windows": ["compare", "--capture", "geometric", "--set", "alpha=1",
                       "--set", "m=4", "--set", "delta_sb1=0", "--set", "delta_sb2=0",
                       *_SHORT],
    "sim_chains": ["simulate", "--set", "alpha=0.5", "--set", "m=4", "--devices", "200",
                   "--duration", "600", "--warmup", "100", "--replications", "7",
                   "--seed", "4", "--format", "doc"],
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


def readme_point() -> simulate.SimConfig:
    """The README validation point, shortened to one 700 s replication after a
    100 s warmup."""
    return simulate.SimConfig(ScenarioConfig(lambda_total=1.0, alpha=1.0, m=8),
                              n_devices=1200, sim_duration=800.0, warmup=100.0, seed=1,
                              n_replications=1)


def rx2_cell(capture="probabilistic", arrivals="poisson", tau1=1, delta=(9.0, 9.0),
             **kw) -> simulate.SimConfig:
    """A small confirmed cell whose SB2 duty cycle blocks many RX2 windows:
    150 devices, 2 x 450 s after a 50 s warmup at seed 123, unless ``kw`` says
    otherwise."""
    settings = dict(n_devices=150, capture_model=capture, arrival_model=arrivals,
                    sim_duration=500.0, warmup=50.0, seed=123, n_replications=2)
    settings.update(kw)
    return simulate.SimConfig(
        ScenarioConfig(lambda_total=3.0, alpha=0.8, m=4, tau1=tau1, delta_sb1=delta[0],
                       delta_sb2=delta[1]),
        **settings)


@contextlib.contextmanager
def every_window(rx: int):
    """Within the block, every RX``rx`` window that its sub-band's duty cycle
    surely blocks is an event all the same.

    The uplink's end (``_Chain.on_tx_end``), and for RX2 also a blocked RX1
    window (``_Chain.on_rx1``), decide a window surely blocked by comparing
    it with the sub-band's ``sb<rx>_free_at``.  During each call of those
    methods that attribute reads -inf, and is restored after it; neither
    method writes it.  The window's own event then makes the duty-cycle test
    at its time.
    """
    name = f"sb{rx}_free_at"

    def hiding(method):
        def wrapped(self, now, payload):
            free_at = getattr(self, name)
            setattr(self, name, -math.inf)
            try:
                method(self, now, payload)
            finally:
                setattr(self, name, free_at)
        return wrapped

    with contextlib.ExitStack() as stack:
        for handler in ["on_tx_end"] if rx == 1 else ["on_tx_end", "on_rx1"]:
            stack.enter_context(mock.patch.object(
                simulate._Chain, handler, hiding(getattr(simulate._Chain, handler))))
        yield


def solver_grid() -> list[ScenarioConfig]:
    """Criterion 1's 480 configs: 40 loads log-spaced over [0.01, 100] at each
    m in (1, 2, 4, 8) and alpha in (0, 0.3, 1), with h = 1."""
    return [ScenarioConfig(lambda_total=float(lam), alpha=alpha, m=m, h=1)
            for m in (1, 2, 4, 8) for alpha in (0.0, 0.3, 1.0)
            for lam in np.logspace(np.log10(0.01), np.log10(100.0), 40)]


def solver_digests() -> tuple[str, str]:
    """SHA-256 of the sweep count and the ``s_ul`` and ``s_dl`` bytes of each
    state of ``solver_grid``: solved one ``solve`` call at a time, and in one
    ``solve_groups`` call, which iterates each m as one batch, read row by row."""
    def digest(rows) -> str:
        h = hashlib.sha256()
        for iterations, s_ul, s_dl in rows:
            h.update(int(iterations).to_bytes(2, "little"))
            h.update(s_ul.tobytes())
            h.update(s_dl.tobytes())
        return h.hexdigest()

    cfgs = solver_grid()
    batched: list = [None] * len(cfgs)
    for indices, _, state, _ in analytic.solve_groups(cfgs):
        for j, i in enumerate(indices):
            batched[i] = state.iterations[j], state.s_ul[j], state.s_dl[j]
    one_row = ((state.iterations, state.s_ul, state.s_dl) for state in map(analytic.solve, cfgs))
    return digest(one_row), digest(batched)


def optimizer_problem() -> optimize.OptimizationProblem:
    """A small optimizer grid at alpha = 0.3: lambda in (0.1, 1, 10), m and h
    in (1, 8), with the default objective and step cap.  It holds the
    benchmark's two grid points, lambda 1 and 10 at m = h = 8."""
    return optimize.OptimizationProblem(ScenarioConfig(alpha=0.3), lambdas=(0.1, 1.0, 10.0),
                                        m_grid=(1, 8), h_grid=(1, 8))


def optimizer_digest() -> str:
    """SHA-256 of the ``repr`` of every ``GridRecord`` of ``optimizer_problem``."""
    h = hashlib.sha256()
    for record in optimize.optimize(optimizer_problem()).records:
        h.update(repr(record).encode())
    return h.hexdigest()


def pins() -> dict[str, tuple]:
    """The literals of ``tests/test_simulate.py``, ``tests/test_analytic.py``
    and ``tests/test_optimize.py``, by test: the events of one replication
    with the window shortcuts and with every RX1 or RX2 window an event
    (``every_window``), the
    trace digest and per-replication events of ``rx2_cell``, the two
    ``solver_digests`` and the ``optimizer_digest``."""
    def events(cfg):
        return simulate.run(cfg).replications[0].events

    shortcut = events(readme_point())
    with every_window(1):
        rx1 = events(readme_point())
    with every_window(2):
        rx2 = events(readme_point())
    found = {"TestRx1Shortcut.test_fewer_events_at_readme_compare_point": (shortcut, rx1),
             "TestRx2Shortcut.test_fewer_events_at_readme_compare_point": (shortcut, rx2)}
    with tempfile.TemporaryDirectory() as tmp:
        for capture in ("probabilistic", "geometric"):
            path = Path(tmp) / f"{capture}.log"
            report = simulate.run(rx2_cell(capture, trace_path=str(path)))
            found[f"TestRx2Shortcut.test_trace_bytes_and_event_counts_are_pinned[{capture}]"] = (
                hashlib.sha256(path.read_bytes()).hexdigest(),
                tuple(rep.events for rep in report.replications))
    found["TestSolverBits.test_grid_states_and_sweep_counts_are_pinned"] = solver_digests()
    found["TestOptimizerBits.test_grid_records_are_pinned"] = optimizer_digest()
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pins", action="store_true",
                        help="print the literals that the tests pin; write nothing")
    if parser.parse_args(argv).pins:
        for test, value in pins().items():
            print(f"{test}: {value!r}")
        return 0
    for name, command in golden_outputs().items():
        (HERE / name).write_text(render(command))
    for name, command in HELPS.items():
        (HERE / name).write_text(render_help(command))
    return 0


if __name__ == "__main__":
    sys.exit(main())
