"""README figure sweeps, one-row solves and simulations reproduce their golden outputs exactly.

The files under ``tests/data/golden/`` and the script that regenerates them
(``make_golden.py`` there) pin the CSV of the nine figure sweeps and the
``--format doc`` output of the ``alpha`` sweep, the CSV and full-state doc of
two one-row ``solve`` calls, plus a shortened README ``compare`` (CSV) and
geometric-capture ``simulate`` (CSV and doc) at seed 1, two short runs at
seed 3 on paths the README point never reaches and one at seed 4 that is
two chains long (doc), and a small ``optimize`` grid (CSV and doc), and the
``--help`` text of the program and of each command at 80 columns.  The simulations and the optimizer run on
every usable core by default; ``--workers 1`` must give the same bytes.
"""

import pytest

from conftest import GOLDEN, make_golden


def test_every_figure_sweep_has_a_golden_file():
    assert len(make_golden.SWEEPS) == 9
    committed = {path.name for path in GOLDEN.iterdir() if path.suffix in (".csv", ".json")}
    assert committed == set(make_golden.golden_outputs())


def test_every_help_text_has_a_golden_file():
    committed = {path.name for path in GOLDEN.glob("*.txt")}
    assert committed == set(make_golden.HELPS) and len(committed) == 6


@pytest.mark.parametrize("name, argv", sorted(make_golden.HELPS.items()))
def test_help_reproduces_golden_text(name, argv):
    assert make_golden.render_help(argv) == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name, argv", sorted(make_golden.golden_outputs().items()))
def test_sweep_reproduces_golden_output(name, argv):
    assert make_golden.render(argv) == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name, argv", sorted(
    (name, argv) for name, argv in make_golden.golden_outputs().items()
    if name.startswith(("sim_", "opt_"))))
def test_simulation_in_one_process_reproduces_golden_output(name, argv):
    assert make_golden.render([*argv, "--workers", "1"]) == (GOLDEN / name).read_text()
