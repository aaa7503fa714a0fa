"""Scenario runner loop: golden artifacts and runtime budgets."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from rough_transport import scenarios
from rough_transport.config import resolve
from rough_transport.scenarios import REGISTRY, _check, run_scenario

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
SRC_DIR = Path(scenarios.__file__).resolve().parents[1]


@pytest.mark.parametrize("scenario_id", list(REGISTRY))
def test_default_run_matches_golden_artifacts(scenario_id, tmp_path):
    # the golden files were written with output_dir ".bench_out/<id>", which
    # provenance.csv echoes; the report itself goes to tmp_path
    cfg = resolve({"scenario_id": scenario_id,
                   "output_dir": f".bench_out/{scenario_id}"})
    run_scenario(cfg).write(str(tmp_path))
    golden = GOLDEN_DIR / scenario_id
    assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(golden))
    for name in sorted(os.listdir(golden)):
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), \
            f"{scenario_id}/{name} differs from the golden copy"


def test_runtime_budget_folds_into_verdict(tmp_path, monkeypatch):
    cfg = resolve({"scenario_id": "counterexample_L1_damping",
                   "diagnostics": ["integrability_probe"],
                   "output_dir": str(tmp_path)})
    within = run_scenario(cfg).results[0]
    assert within.passed
    assert within.note == "verdict: divergent; runtime budget 1 s"

    monkeypatch.setitem(scenarios.RUNTIME_BUDGET_S, "integrability_probe", 0.0)
    over = run_scenario(cfg).results[0]
    assert not over.passed
    assert over.values == within.values
    assert over.thresholds == within.thresholds
    assert over.note == "verdict: divergent; runtime budget 0 s"


def test_nondefault_run_is_reproducible(tmp_path):
    # steps and seed count away from the defaults, run twice in one process
    cfg = resolve({"scenario_id": "linear_expand", "steps": 400,
                   "seeds_per_axis": 128, "output_dir": str(tmp_path)})
    for name in ("a", "b"):
        run_scenario(cfg).write(str(tmp_path / name))
    names = sorted(os.listdir(tmp_path / "a"))
    assert names and names == sorted(os.listdir(tmp_path / "b"))
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_default_change_of_variables_runs_import_no_scipy(tmp_path):
    # linear_expand and rotation are the default scenarios that read bump
    # integrals; a fresh process keeps modules other tests imported out
    code = textwrap.dedent(f"""
        import sys
        from rough_transport import cli, config, scenarios
        for sid in ("linear_expand", "rotation"):
            cfg = config.resolve({{"scenario_id": sid,
                                  "output_dir": {str(tmp_path)!r} + "/" + sid}})
            scenarios.run_scenario(cfg).write(cfg.output_dir)
        print(sorted(m for m in sys.modules if m.startswith("scipy")))
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert sorted(os.listdir(tmp_path)) == ["linear_expand", "rotation"]


def test_check_flag_must_be_true():
    assert _check({"monotone": (True, True)}).passed
    assert not _check({"monotone": (False, True)}).passed


def test_check_nan_fails():
    assert not _check({"residual": (float("nan"), 1.0)}).passed
    assert not _check({"residual": (0.5, 1.0), "other": (float("nan"), 1.0)}).passed


def test_check_value_at_threshold_passes():
    assert _check({"residual": (1e-6, 1e-6), "escaped": (0.0, 0.0)}).passed
    assert not _check({"residual": (1.5e-6, 1e-6)}).passed


def test_check_records_values_and_thresholds():
    art = scenarios.Artifact("x.csv", ("a",), ((1.0,),))
    result = _check({"residual": (0.25, 1.0), "flag": (True, True)}, artifacts=[art])
    assert result.values == {"residual": 0.25, "flag": True}
    assert result.thresholds == {"residual": 1.0, "flag": True}
    assert result.artifacts == (art,)
    assert result.note == ""
