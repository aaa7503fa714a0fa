"""RK4 row-steps and base-field evaluations per scenario, as JSON.

    PYTHONPATH=src python3 tests/rk4_row_steps.py [SCENARIO ...]

Every characteristic sweep runs through ``flow._rk4_path``; this script
wraps it and sums, over its calls, the step count of every row (a row of
``steps`` steps counts ``steps`` row-steps), while each named scenario (by
default all of them) runs its diagnostics in this process. It also wraps
the scenario's entry of ``scenarios.FIELD_CATALOG`` and counts the calls of
the built field's ``eval_b`` and ``eval_div_b`` and the points they are
given (a (..., d) array counts its leading size), before any mollification.
The counts do not depend on the host, so they pin the RK4 and field work
of a change that should not move it; the golden test in
``test_scenarios.py`` asserts both through the same wrappers, as
equalities, against the ``rk4_row_steps`` and ``base_field_evals`` of
``BENCH_5.json``. First, before any scenario has filled a cache, it
takes the tracemalloc peak above the start level of each diagnostic of
``TRACED_DIAGNOSTICS``, run alone and in that order, which
``test_scenarios.py`` bounds: unlike the peak RSS, it does not move with
code layout. Not collected by pytest: the file name does not start with
``test_``.
"""

import json
import math
import sys
import tempfile
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from rough_transport import flow
from rough_transport.config import resolve
from rough_transport.scenarios import FIELD_CATALOG, REGISTRY, run_scenario


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


@contextmanager
def counting_field_evals(field_id):
    """Yield {"eval_b": [calls, points], "eval_div_b": [calls, points]} of a catalog field."""
    real = FIELD_CATALOG[field_id]
    counts = {"eval_b": [0, 0], "eval_div_b": [0, 0]}

    def counted(fn, tally):
        def call(t, x):
            tally[0] += 1
            tally[1] += math.prod(np.shape(x)[:-1])
            return fn(t, x)
        return call

    def build(d, T):
        spec = real(d, T)
        return replace(spec, eval_b=counted(spec.eval_b, counts["eval_b"]),
                       eval_div_b=counted(spec.eval_div_b, counts["eval_div_b"]))

    FIELD_CATALOG[field_id] = build
    try:
        yield counts
    finally:
        FIELD_CATALOG[field_id] = real


def work_counts(scenario_id):
    """(RK4 row-steps, base-field evaluations, whether every diagnostic passed)."""
    with (counting_row_steps() as total,
          counting_field_evals(REGISTRY[scenario_id].field_id) as evals,
          tempfile.TemporaryDirectory() as out):
        report = run_scenario(resolve({"scenario_id": scenario_id, "output_dir": out}))
    return total[0], evals, report.passed


# the diagnostics that set the traced peaks of the backward builds, then the
# mollified forward sweeps, whose convolution memos hold a node block each
TRACED_DIAGNOSTICS = (("identity", "weak_residual"), ("linear_expand", "l2_energy"),
                      ("damping_bounded", "weak_residual_refinement"),
                      ("twin_difference_gronwall", "gronwall_log"),
                      ("shear_bv", "flow_convergence"))


def traced_peak(scenario_id, diagnostic):
    """(tracemalloc peak above the start level in bytes, passed) of one diagnostic run alone."""
    with tempfile.TemporaryDirectory() as out:
        cfg = resolve({"scenario_id": scenario_id, "output_dir": out,
                       "diagnostics": [diagnostic]})
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            report = run_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak - start, report.passed


def main(argv):
    counts, evals, passed, peaks = {}, {}, {}, {}
    for sid, name in TRACED_DIAGNOSTICS:
        peaks[f"{sid}/{name}"], passed[f"{sid}/{name}"] = traced_peak(sid, name)
    for sid in argv or list(REGISTRY):
        counts[sid], evals[sid], passed[sid] = work_counts(sid)
    print(json.dumps({"rk4_row_steps": counts, "base_field_evals": evals,
                      "traced_peak_bytes": peaks, "passed": passed}, indent=2))
    return 0 if all(passed.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
