"""RK4 row-steps per scenario at default configurations, as JSON.

    PYTHONPATH=src python3 tests/rk4_row_steps.py [SCENARIO ...]

Every characteristic sweep runs through ``flow._rk4_path``; this script
wraps it and sums, over its calls, the step count of every row (a row of
``steps`` steps counts ``steps`` row-steps), while each named scenario (by
default all of them) runs its diagnostics in this process. The counts do
not depend on the host, so they pin the RK4 work of a change that should
not move it; the golden test in ``test_scenarios.py`` asserts them through
the same wrapper, against ``BENCH_1.json``. Not collected by pytest: the
file name does not start with ``test_``.
"""

import json
import sys
import tempfile
from contextlib import contextmanager

import numpy as np

from rough_transport import flow
from rough_transport.config import resolve
from rough_transport.scenarios import REGISTRY, run_scenario


@contextmanager
def counting_row_steps():
    """Yield a one-item list that sums the row-steps of each ``_rk4_path`` call."""
    real, total = flow._rk4_path, [0]

    def counting(rhs, y0, h, steps, *args, **kwargs):
        total[0] += int(np.sum(np.broadcast_to(steps, (np.shape(y0)[0],))))
        return real(rhs, y0, h, steps, *args, **kwargs)

    flow._rk4_path = counting
    try:
        yield total
    finally:
        flow._rk4_path = real


def row_steps(scenario_id):
    """(row-steps over every ``_rk4_path`` call, whether every diagnostic passed)."""
    with counting_row_steps() as total, tempfile.TemporaryDirectory() as out:
        report = run_scenario(resolve({"scenario_id": scenario_id, "output_dir": out}))
    return total[0], report.passed


def main(argv):
    counts, passed = {}, {}
    for sid in argv or list(REGISTRY):
        counts[sid], passed[sid] = row_steps(sid)
    print(json.dumps({"rk4_row_steps": counts, "passed": passed}, indent=2))
    return 0 if all(passed.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
