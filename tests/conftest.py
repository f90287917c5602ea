"""Shared test plumbing: surface acceptance verdicts in the run summary, the
golden-file script as a module, and the random solved configs that several
suites check."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from loracell import analytic
from loracell.scenario import ScenarioConfig, SfDistribution

ACCEPTANCE_VERDICTS: list[str] = []

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

_spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def random_states():
    """Criterion 9's 1000 random configs, each with its solved state."""
    rng = np.random.default_rng(20240809)
    out = []
    for _ in range(1000):
        p_u = SfDistribution(tuple(rng.dirichlet(np.ones(6))))
        p_c = SfDistribution(tuple(rng.dirichlet(np.ones(6))))
        cfg = ScenarioConfig(
            lambda_total=float(10 ** rng.uniform(-2, 2)),
            alpha=float(rng.uniform(0, 1)),
            p_unconfirmed=p_u, p_confirmed=p_c,
            h=int(rng.integers(1, 9)), m=int(rng.integers(1, 9)),
            delta_sb1=float(rng.choice([0.0, 9.0, 99.0])),
            delta_sb2=float(rng.choice([0.0, 9.0, 99.0])),
            tau1=int(rng.integers(0, 2)), tau2=int(rng.integers(0, 2)),
            c_channels=int(rng.integers(1, 4)),
            w_gw=float(rng.uniform(0, 1)), w_ed=float(rng.uniform(0, 1)),
        )
        out.append((cfg, analytic.solve(cfg, tol=1e-8)))
    return out
