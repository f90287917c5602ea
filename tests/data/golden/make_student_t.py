"""Regenerate the simulator's table of two-sided 95% Student-t quantiles.

Writes ``src/loracell/student_t_975.json``, one JSON line that holds
``scipy.special.stdtrit(df, 0.975)`` for df = 1 ... 999: the degrees of
freedom of a summary over 2 ... 1,000 replications, the most a ``SimConfig``
allows.  ``simulate._summary`` reads entry ``n - 2`` for ``n`` replications,
so its 95% half-widths keep scipy's exact bits without loading scipy at run
time.  ``tests/test_simulate.py`` checks every entry against scipy, so
regenerate the table only when the bound on replications changes:

    PYTHONPATH=src python tests/data/golden/make_student_t.py
"""

from __future__ import annotations

import json

from scipy.special import stdtrit

from loracell.simulate import _MAX_REPLICATIONS, _T975_PATH

if __name__ == "__main__":
    table = [float(stdtrit(df, 0.975)) for df in range(1, _MAX_REPLICATIONS)]
    _T975_PATH.write_text(json.dumps(table, separators=(",", ":")) + "\n")
    print(f"wrote {_T975_PATH}")
