"""Scenario runner loop: golden artifacts and runtime budgets."""

import dataclasses
import inspect
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from rough_transport import renormalization, scenarios
from rough_transport.config import resolve
from rough_transport.errors import BadSplitError, InadmissibleRenormalizerError, PipelineError
from rough_transport.flow import forward_summary, make_seed_grid
from rough_transport.representation import pointwise_solution
from rough_transport.scenarios import REGISTRY, _check, build_context, run_scenario
from rough_transport.weakform import gamma_trace, weak_residual

from conftest import field
from golden_diff import GOLDEN_DIR, diff_scenario, listing
from rk4_row_steps import (TRACED_DIAGNOSTICS, counting_field_evals, counting_row_steps,
                           traced_peak)

SRC_DIR = Path(scenarios.__file__).resolve().parents[1]
BENCH_5 = Path(__file__).resolve().parents[1] / "BENCH_5.json"


@pytest.mark.parametrize("scenario_id", list(REGISTRY))
def test_default_run_matches_golden_artifacts(scenario_id, tmp_path):
    # the golden files were written with output_dir ".bench_out/<id>", which
    # provenance.csv echoes; the report itself goes to tmp_path. A failure
    # lists the changed cells; the bytes stay the verdict. The RK4 row-steps
    # and the base field's calls and points are host-independent counts, so
    # the same run pins the scenario's RK4 and field work (turning off
    # pointwise_solution's step sharing multiplies identity's row-steps by
    # 77 and keeps every verdict; shear_bv's field work is its mollified
    # convolutions, one per distinct y column of the sweep's points)
    cfg = resolve({"scenario_id": scenario_id,
                   "output_dir": f".bench_out/{scenario_id}"})
    with counting_row_steps() as row_steps, counting_field_evals(cfg.field_id) as evals:
        report = run_scenario(cfg)
    report.write(str(tmp_path))
    golden = GOLDEN_DIR / scenario_id
    assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(golden)), \
        listing(diff_scenario(tmp_path, scenario_id))
    for name in sorted(os.listdir(golden)):
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), \
            f"{scenario_id}/{name} differs from the golden copy:\n" \
            + listing(diff_scenario(tmp_path, scenario_id))
    pins = json.loads(BENCH_5.read_text())
    assert row_steps[0] == pins["rk4_row_steps"][scenario_id]
    assert evals == pins["base_field_evals"][scenario_id]


def test_golden_diff_lists_exactly_the_changed_cell_and_the_added_row(tmp_path):
    run_dir = tmp_path / "identity"
    shutil.copytree(GOLDEN_DIR / "identity", run_dir)
    diagnostics = run_dir / "diagnostics.csv"
    lines = diagnostics.read_text().splitlines(keepends=True)
    assert lines[1] == "flow_identity,max_deviation,0,9.9999999999999998e-13,1\n"
    lines[1] = "flow_identity,max_deviation,2.5e-13,9.9999999999999998e-13,1\n"
    diagnostics.write_text("".join(lines))
    energy = run_dir / "l2_energy.csv"
    assert len(energy.read_text().splitlines()) == 66      # the header and 65 rows
    with open(energy, "a") as fh:
        fh.write("9,8,7\n")
    changes = diff_scenario(run_dir, "identity")
    assert [(c.file, c.kind, c.row, c.column, c.old, c.new) for c in changes] == [
        ("diagnostics.csv", "cell", 2, "value", "0", "2.5e-13"),
        ("l2_energy.csv", "added row", 67, "", "", "9,8,7")]
    assert listing(changes).splitlines() == [
        "identity/diagnostics.csv row 2 column value: 0 -> 2.5e-13 (abs 2.5e-13, rel inf)",
        "identity/l2_energy.csv row 67 added row: 9,8,7"]


@pytest.mark.parametrize("fn,name", [(pointwise_solution, "time_grid"),
                                     (weak_residual, "quad"), (gamma_trace, "quad")],
                         ids=lambda v: getattr(v, "__name__", v))
def test_keeps_the_argument_names_the_benchmark_tracer_binds(fn, name):
    # perfbench/tracer.py reads these arguments by name after each call; a
    # rename passes every untraced run and breaks only traced benchmark
    # passes (bmo_norm's ball_family is guarded in test_bmo.py)
    assert name in inspect.signature(fn).parameters


# one per (delta, R): 3 x 1, 3 x 3, and 2 x 1 read by all three lambdas
GAMMA_TRACES = {"compact_support_b": 3, "twin_difference_gronwall": 9,
                "bmo_divergence_log": 2}
# plain constants once per R: r_list [8], [2, 4, 8] with uniqueness_probe
# reading R = 8 again, and none (the BMO bound builds its own per lambda)
GRONWALL_CONSTANTS = {"compact_support_b": 1, "twin_difference_gronwall": 3,
                      "bmo_divergence_log": 0}


@pytest.mark.parametrize("scenario_id", list(GAMMA_TRACES))
def test_default_run_verifies_growth_split_once(scenario_id, tmp_path, monkeypatch):
    # every runner that reads the growth split shares the run's one check,
    # each Gamma trace is taken once with the configured cut-off, and the
    # plain Gronwall constants are built once per R
    calls = {"growth_split": 0, "gamma_trace": 0, "gronwall_constants": 0}
    trace_etas = []

    def counting(name):
        fn = getattr(scenarios, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            if name == "gamma_trace":
                bound = inspect.signature(fn).bind(*args, **kwargs)
                trace_etas.append(bound.arguments["damping"].eta)
            return fn(*args, **kwargs)
        return counted
    for name in calls:
        monkeypatch.setattr(scenarios, name, counting(name))
    cfg = resolve({"scenario_id": scenario_id, "output_dir": str(tmp_path)})
    report = run_scenario(cfg)
    assert all(r.passed for r in report.results)
    assert calls == {"growth_split": 1, "gamma_trace": GAMMA_TRACES[scenario_id],
                     "gronwall_constants": GRONWALL_CONSTANTS[scenario_id]}
    assert trace_etas == [cfg.eta] * GAMMA_TRACES[scenario_id]


@pytest.mark.parametrize("T", [0.5, 2.0])
def test_damping_l1_mass_follows_the_horizon(T, tmp_path):
    # ||c(t, .)||_L1 = 4 at every t, so the space-time mass is 4 T
    report = run_scenario(resolve({"scenario_id": "counterexample_L1_damping", "T": T,
                                   "diagnostics": ["damping_l1"],
                                   "output_dir": str(tmp_path)}))
    result = report.results[0]
    assert result.passed, result.values
    assert result.values["compressibility_bound"] == pytest.approx(4.8 * T, rel=1e-15)


def test_run_context_damping_carries_the_configured_cut_off(tmp_path):
    # the density, the weak residual and the Gamma traces all read the
    # damping the context builds, so they read one cut-off
    cfg = resolve({"scenario_id": "counterexample_L1_damping", "eta": 0.25,
                   "output_dir": str(tmp_path)})
    ctx = build_context(cfg)
    assert ctx.damping.eta == cfg.eta == 0.25
    assert ctx.damping.singular_point == (0.0,)


def test_damping_l1_reads_c_with_no_cut_off(tmp_path, monkeypatch):
    # the L1 mass of |x|^(-1/2) on B_1 is 4; a cut-off of 0.25 would drop the
    # 4 sqrt(0.25) = 2 inside it and fail the 2 % check by far
    seen = []

    def recording(*args, **kwargs):
        seen.append(kwargs["damping"].eta)
        return forward_summary(*args, **kwargs)
    monkeypatch.setattr(scenarios, "forward_summary", recording)
    report = run_scenario(resolve({"scenario_id": "counterexample_L1_damping", "eta": 0.25,
                                   "diagnostics": ["damping_l1"],
                                   "output_dir": str(tmp_path)}))
    result = report.results[0]
    assert seen == [0.0]
    assert result.passed, result.values
    assert result.values["relative_error"] <= 0.02


def test_damping_l1_with_zero_mass_fails_and_says_why(tmp_path):
    # c = 0 has no L1 mass to divide by: a FAIL row, not a ZeroDivisionError
    report = run_scenario(resolve({"scenario_id": "counterexample_L1_damping",
                                   "damping_id": "zero", "diagnostics": ["damping_l1"],
                                   "output_dir": str(tmp_path)}))
    result = report.results[0]
    assert not result.passed
    assert result.values["relative_error"] == float("inf")
    assert result.values["discrete_l1"] == 0.0
    assert "L1 mass is zero" in result.note
    report.write(str(tmp_path))
    assert "inf" in (tmp_path / "diagnostics.csv").read_text()


# the optional forward_summary reductions that each runner reads from ctx.forward()
RUNNER_READS = {"jacobian_unit": {"residuals"}, "jacobian_ode": {"residuals"},
                "superlevel": {"escape"}}


def test_every_scenario_declares_exactly_the_forward_reads_of_its_runners():
    # the one memoised sweep folds what the registry declares and nothing
    # else, so a declaration too many costs a reduction no runner reads
    for sid, s in REGISTRY.items():
        declared = {name: set(keywords) for name, keywords in s.forward_reads.items()}
        assert declared == {name: RUNNER_READS[name] for name in s.runners
                            if name in RUNNER_READS}, sid


@pytest.mark.parametrize("scenario_id,name", [("identity", "jacobian_unit"),
                                              ("linear_expand", "jacobian_ode"),
                                              ("identity", "superlevel")])
def test_an_undeclared_forward_read_raises(scenario_id, name, tmp_path, monkeypatch):
    # a reduction the caller does not ask for is None, never a zero that
    # would pass a check, and a runner whose read the scenario does not
    # declare raises rather than judging a reduction the sweep never took
    fwd = forward_summary(field("linear_expand"), make_seed_grid(1.0, 8, 1), 4)
    assert fwd.residuals is None and fwd.escaped is None
    cfg = resolve({"scenario_id": scenario_id, "diagnostics": [name],
                   "output_dir": str(tmp_path)})
    assert run_scenario(cfg).results[0].passed
    scenario = REGISTRY[scenario_id]
    reads = {n: kw for n, kw in scenario.forward_reads.items() if n != name}
    monkeypatch.setitem(REGISTRY, scenario_id,
                        dataclasses.replace(scenario, forward_reads=reads))
    with pytest.raises(KeyError, match="not declared"):
        run_scenario(cfg)


def test_every_catalog_entry_is_a_scenario_default():
    # a catalog value that no scenario selects is code no default run reaches
    for catalog, key in ((scenarios.FIELD_CATALOG, "field_id"),
                         (scenarios.DAMPING_CATALOG, "damping_id"),
                         (scenarios.U0_CATALOG, "u0_id")):
        used = {getattr(s, key) for s in REGISTRY.values()}
        assert set(catalog) <= used, (key, sorted(set(catalog) - used))


def test_zero_gronwall_bound_passes(tmp_path):
    # b = 0, c = 0: the twin difference and every bound are zero
    report = run_scenario(resolve({"scenario_id": "twin_difference_gronwall",
                                   "field_id": "zero", "damping_id": "zero",
                                   "diagnostics": ["gronwall_log"],
                                   "output_dir": str(tmp_path)}))
    result = report.results[0]
    assert result.passed
    assert result.values["worst_gamma_over_bound"] == 0.0


@pytest.mark.parametrize("scenario_id,radius", [("twin_difference_gronwall", 2.5),
                                                ("compact_support_b", 1.5),
                                                ("bmo_divergence_log", 1.5)])
def test_gronwall_quadrature_covers_the_configured_box(scenario_id, radius, tmp_path,
                                                       monkeypatch):
    # the twin-difference quadrature is built on box_radius, and every
    # verdict still passes on that box
    radii = []
    real = scenarios.make_quadrature

    def recording(dimension, r, *args):
        radii.append(r)
        return real(dimension, r, *args)
    monkeypatch.setattr(scenarios, "make_quadrature", recording)
    report = run_scenario(resolve({"scenario_id": scenario_id, "box_radius": radius,
                                   "output_dir": str(tmp_path)}))
    assert [(r.name, r.passed) for r in report.results] == [
        (name, True) for name in REGISTRY[scenario_id].diagnostics]
    assert radii and set(radii) == {radius}


def test_inadmissible_beta_is_a_pipeline_error(tmp_path, monkeypatch):
    failing = {"bounded": (1.0, 9.0)}
    monkeypatch.setattr(renormalization, "check_admissible", lambda ren: failing)
    cfg = resolve({"scenario_id": "compact_support_b", "diagnostics": ["gronwall_log"],
                   "output_dir": str(tmp_path)})
    with pytest.raises(PipelineError) as err:
        run_scenario(cfg)
    assert err.value.stage == "gronwall_log"
    assert isinstance(err.value.cause, InadmissibleRenormalizerError)
    assert "'bounded': (1.0, 9.0)" in str(err.value)


@pytest.mark.parametrize("field_id", ["log_drift", "zero", "linear_expand", "compact_bump"])
def test_bmo_gronwall_checks_the_split_against_the_scenario_field(field_id, tmp_path):
    # d2 is log(1/|x|) on B_1: log_drift's divergence equals it to rounding
    # and zero's lies under it, while linear_expand's (div b = 1) and
    # compact_bump's exceed it by 1.0 and 1.01, and passed every verdict
    # of the scenario before the split was checked
    cfg = resolve({"scenario_id": "bmo_divergence_log", "field_id": field_id,
                   "diagnostics": ["bmo_gronwall"], "output_dir": str(tmp_path)})
    if field_id in ("log_drift", "zero"):
        assert run_scenario(cfg).passed
        return
    with pytest.raises(PipelineError) as err:
        run_scenario(cfg)
    assert err.value.stage == "bmo_gronwall"
    assert isinstance(err.value.cause, BadSplitError)
    assert "exceeds d1 + d2" in str(err.value)


@pytest.mark.parametrize("scenario_id,diagnostic", TRACED_DIAGNOSTICS)
def test_traced_peak_of_the_backward_builds_stays_recorded(scenario_id, diagnostic):
    # the peak RSS moves by about 0.5 MB with code layout alone; the
    # tracemalloc peak counts numpy's buffers, so it pins the density
    # builds' sweep buffer and tables, and the mollified sweeps' convolution
    # memos. The recorded peaks are the largest over ten processes, which
    # spread by at most 8.5 KB; the slack is twice that
    pins = json.loads(BENCH_5.read_text())["traced_peak_bytes"]
    peak, passed = traced_peak(scenario_id, diagnostic)
    assert passed
    assert peak <= pins["recorded"][f"{scenario_id}/{diagnostic}"] + pins["slack"], peak


def test_gronwall_scenarios_certify_each_log_beta_once(tmp_path, monkeypatch):
    # the three scenarios read delta in {1e-2, 1e-4, 1e-6} from two Gamma-trace
    # runners: 3 + 3 + 2 log renormalizers, of which 3 are distinct
    certify = renormalization.check_admissible
    labels = []

    def counted(ren):
        labels.append(ren.label)
        return certify(ren)
    monkeypatch.setattr(renormalization, "check_admissible", counted)
    for sid in ("compact_support_b", "twin_difference_gronwall", "bmo_divergence_log"):
        report = run_scenario(resolve({"scenario_id": sid,
                                       "output_dir": str(tmp_path / sid)}))
        assert report.passed
    assert sorted(labels) == ["log(delta=0.0001)", "log(delta=0.01)", "log(delta=1e-06)"]


def test_peak_rss_follows_each_runner_and_stays_out_of_the_csv(tmp_path):
    cfg = resolve({"scenario_id": "counterexample_L1_damping",
                   "output_dir": str(tmp_path)})
    report = run_scenario(cfg)
    peaks = [r.peak_rss_mb for r in report.results]
    assert peaks[0] > 0.0 and peaks == sorted(peaks)
    report.write(str(tmp_path))
    assert "rss" not in (tmp_path / "diagnostics.csv").read_text()


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


@pytest.mark.parametrize("scenario_id", ["linear_expand", "rotation"])
def test_flow_endpoint_ends_its_sweep_at_t_eval(scenario_id, tmp_path):
    # the endpoint check reads X at a fixed t_eval (1 and pi/2); a longer
    # horizon leaves its sweep, and so its error, bit for bit unchanged, and
    # a horizon short of t_eval is a pipeline error (see test_config_cli)
    def position_error(**overrides):
        cfg = resolve({"scenario_id": scenario_id, "diagnostics": ["flow_endpoint"],
                       "output_dir": str(tmp_path), **overrides})
        (result,) = run_scenario(cfg).results
        assert result.passed
        return result.values["position_error"]
    assert position_error(T=2.0) == position_error()


def test_default_change_of_variables_runs_import_no_scipy(tmp_path):
    # linear_expand and rotation are the default scenarios that read bump
    # integrals; twin_difference_gronwall and compact_support_b certify beta,
    # build phi_R and the Gronwall constants; identity builds seed grids and
    # estimates compressibility. numpy.ma, which np.unique imports on its
    # first call, stays out too. A fresh process keeps modules other tests
    # imported out
    ids = ("identity", "linear_expand", "rotation", "twin_difference_gronwall",
           "compact_support_b")
    code = textwrap.dedent(f"""
        import sys
        from rough_transport import cli, config, scenarios
        for sid in {ids!r}:
            cfg = config.resolve({{"scenario_id": sid,
                                  "output_dir": {str(tmp_path)!r} + "/" + sid}})
            scenarios.run_scenario(cfg).write(cfg.output_dir)
        print(sorted(m for m in sys.modules
                     if m.startswith("scipy") or m.split(".")[:2] == ["numpy", "ma"]))
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert sorted(os.listdir(tmp_path)) == sorted(ids)


def test_only_runs_that_draw_import_numpy_random(tmp_path):
    # the seven default scenarios of the forward_flow and pointwise_weak
    # workloads never read ctx.rng, so numpy.random (about 6 MB of RSS) stays
    # out of their process; compact_support_b's growth split draws, and so
    # loads it. A fresh process keeps modules other tests imported out
    quiet = ("identity", "linear_expand", "damping_bounded", "linear_contract",
             "rotation", "shear_bv", "counterexample_L1_damping")
    code = textwrap.dedent(f"""
        import sys
        from rough_transport import cli, config, scenarios
        def run(sid):
            cfg = config.resolve({{"scenario_id": sid,
                                  "output_dir": {str(tmp_path)!r} + "/" + sid}})
            scenarios.run_scenario(cfg).write(cfg.output_dir)
        for sid in {quiet!r}:
            run(sid)
        print("numpy.random" in sys.modules)
        run("compact_support_b")
        print("numpy.random" in sys.modules)
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-2:] == ["False", "True"]
    assert sorted(os.listdir(tmp_path)) == sorted(quiet + ("compact_support_b",))


def test_run_generator_is_built_on_first_read(tmp_path):
    cfg = resolve({"scenario_id": "compact_support_b", "output_dir": str(tmp_path)})
    ctx = build_context(cfg)
    assert "rng" not in ctx._cache
    rng = ctx.rng
    assert ctx.rng is rng and ctx._cache["rng"] is rng
    assert rng.uniform(size=8).tolist() == \
        np.random.default_rng(cfg.rng_seed).uniform(size=8).tolist()


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
