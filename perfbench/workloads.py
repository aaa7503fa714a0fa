"""The benchmark's workloads and the shared paths and constants.

The three workloads partition the ten-scenario default sweep, so the sum of
their wall times is the full-sweep figure. Every scenario runs at its
default configuration; only ``rng_seed`` (the workload seed) and
``output_dir`` are set.
"""

import os

DEFAULT_SEED = 20260801

# name -> (scenarios, why it was chosen)
WORKLOADS = {
    "pointwise_weak": (
        ("identity", "linear_expand", "damping_bounded"),
        "compute many, read once: per-slice backward flows in "
        "pointwise_solution over the thread pool feed weak residuals and L2 "
        "energies"),
    "forward_flow": (
        ("linear_contract", "rotation", "shear_bv", "counterexample_L1_damping"),
        "forward flows over large seed grids and mollified fields; no "
        "pointwise_solution call, so backward-path changes should not move it"),
    "gronwall": (
        ("compact_support_b", "twin_difference_gronwall", "bmo_divergence_log"),
        "compute once, read many: one twin-difference density read by many "
        "Gamma traces, plus the 4.2M-cell BMO profile"),
}

# runtime budgets that scenarios.py folds into these diagnostics' verdicts
BUDGETS_S = {
    "flow_endpoint": 1.0,
    "integrability_probe": 1.0,
    "flow_convergence": 30.0,
    "gronwall_log": 60.0,
    "bmo_gronwall": 60.0,
}

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(BENCH_DIR, "golden")
OUT_DIR = ".bench_out"          # relative to the checkout root
SRC_DIR = "src"


def output_dir(scenario_id):
    # a fixed relative path keeps provenance.csv comparable with the golden copy
    return f"{OUT_DIR}/{scenario_id}"


def raw_config(scenario_id, seed):
    return {"scenario_id": scenario_id, "rng_seed": int(seed),
            "output_dir": output_dir(scenario_id)}


def all_scenarios():
    return [sid for scenarios, _ in WORKLOADS.values() for sid in scenarios]
