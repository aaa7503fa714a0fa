"""Configuration ingestion, CLI behavior, artifact determinism."""

import json
import math
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rough_transport.cli import main
from rough_transport.config import default_config, load_config, resolve
from rough_transport.errors import (DivergenceUnboundedError, ParseError, PipelineError,
                                    RoughTransportError, ValidationError)
from rough_transport.scenarios import (DAMPING_CATALOG, FIELD_CATALOG, REGISTRY, U0_CATALOG,
                                      list_scenarios, run_scenario)


def _write(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# --- loading and validation --------------------------------------------------

def test_minimal_config_fills_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, {"scenario_id": "identity"}))
    assert cfg.seeds_per_axis == 64
    assert cfg.steps > 0
    assert cfg.diagnostics == REGISTRY["identity"].diagnostics


def test_negative_steps_names_the_field(tmp_path):
    with pytest.raises(ValidationError) as err:
        load_config(_write(tmp_path, {"scenario_id": "identity", "steps": -1}))
    assert any("steps" in v for v in err.value.violations)


def test_unknown_key_suggests_neighbor(tmp_path):
    with pytest.raises(ParseError) as err:
        load_config(_write(tmp_path, {"scenario_id": "identity", "stepz": 10}))
    assert err.value.suggestion == "steps"


def test_unknown_key_without_neighbor(tmp_path):
    with pytest.raises(ParseError) as err:
        load_config(_write(tmp_path, {"scenario_id": "identity",
                                      "compute_budget": 10}))
    assert err.value.suggestion is None


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"scenario_id": "identity",\n  "steps": }')
    with pytest.raises(ParseError) as err:
        load_config(str(path))
    assert err.value.line == 2


def test_unknown_scenario_rejected(tmp_path):
    with pytest.raises(ValidationError):
        load_config(_write(tmp_path, {"scenario_id": "does_not_exist"}))


def test_validation_collects_all_violations(tmp_path):
    with pytest.raises(ValidationError) as err:
        load_config(_write(tmp_path, {"scenario_id": "identity", "steps": -1,
                                      "T": 0, "eta": -2.0}))
    joined = "\n".join(err.value.violations)
    assert "steps" in joined and "T" in joined and "eta" in joined


def test_null_u0_id_rejected(tmp_path):
    # every runner may read u0, so a null initial datum is a catalog violation
    with pytest.raises(ValidationError) as err:
        resolve({"scenario_id": "identity", "u0_id": None})
    assert err.value.violations == ["u0_id: None not in the catalog of 1-D initial data"]
    assert main(["run", _write(tmp_path, {"scenario_id": "identity",
                                          "u0_id": None})]) == 2


def test_unknown_diagnostic_rejected(tmp_path):
    with pytest.raises(ValidationError) as err:
        load_config(_write(tmp_path, {"scenario_id": "identity",
                                      "diagnostics": ["bmo_norm"]}))
    assert any("diagnostics" in v for v in err.value.violations)


def test_r_list_must_exceed_one(tmp_path):
    with pytest.raises(ValidationError):
        load_config(_write(tmp_path, {"scenario_id": "identity",
                                      "r_list": [0.5]}))


def test_default_config_roundtrip():
    for sid in REGISTRY:
        payload = default_config(sid)
        assert resolve(payload).scenario_id == sid


# --- the config space: a config that validates runs, or fails typed ------------

# zero and the two linear fields build any d; the others have one dimension
FIXED_DIMENSION = {"rotation": 2, "shear": 2, "compact_bump": 1, "log_drift": 1}
PAIRS = [(sid, fid) for sid in REGISTRY for fid in FIELD_CATALOG]
CROSS_DIMENSION = [(sid, fid) for sid, fid in PAIRS
                   if FIXED_DIMENSION.get(fid, REGISTRY[sid].dimension) != REGISTRY[sid].dimension]
SAME_DIMENSION = [pair for pair in PAIRS if pair not in CROSS_DIMENSION]


def test_cross_dimension_fields_are_rejected():
    # a 2-D field in a 1-D scenario used to run as a 2-D scenario: a raw
    # IndexError, minutes of work or gigabytes of seeds. resolve now refuses
    # each such pair with one field_id violation, so nothing runs
    assert (len(CROSS_DIMENSION), len(SAME_DIMENSION)) == (20, 50)
    for sid, fid in CROSS_DIMENSION:
        with pytest.raises(ValidationError) as err:
            resolve({"scenario_id": sid, "field_id": fid})
        d = REGISTRY[sid].dimension
        assert err.value.violations == [f"field_id: {fid!r} not in the catalog of {d}-D fields"]


# the damping and the initial datum that read only x_1 build d = 1 alone; the
# others build any d
CATALOGS = {"damping_id": DAMPING_CATALOG, "u0_id": U0_CATALOG}
KINDS = {"damping_id": "dampings", "u0_id": "initial data"}
ONE_DIMENSIONAL = {("damping_id", "inv_sqrt"), ("u0_id", "indicator_unit")}
ENTRY_PAIRS = [(sid, key, eid) for sid in REGISTRY for key in CATALOGS for eid in CATALOGS[key]]
CROSS_DIMENSION_ENTRIES = [(sid, key, eid) for sid, key, eid in ENTRY_PAIRS
                           if (key, eid) in ONE_DIMENSIONAL and REGISTRY[sid].dimension != 1]


def test_cross_dimension_dampings_and_data_are_rejected():
    # inv_sqrt and indicator_unit read only x_1, so in rotation and shear_bv
    # they used to run as slabs and end in verdicts; their factories now
    # refuse d = 2, and resolve refuses each pair with one violation
    assert CROSS_DIMENSION_ENTRIES == [
        ("rotation", "damping_id", "inv_sqrt"), ("rotation", "u0_id", "indicator_unit"),
        ("shear_bv", "damping_id", "inv_sqrt"), ("shear_bv", "u0_id", "indicator_unit")]
    for sid, key, eid in CROSS_DIMENSION_ENTRIES:
        with pytest.raises(ValueError, match="d = 1"):
            CATALOGS[key][eid](REGISTRY[sid].dimension)
        with pytest.raises(ValidationError) as err:
            resolve({"scenario_id": sid, key: eid})
        assert err.value.violations == [f"{key}: {eid!r} not in the catalog of 2-D {KINDS[key]}"]
    for sid, key, eid in ENTRY_PAIRS:
        if (sid, key, eid) not in CROSS_DIMENSION_ENTRIES:
            assert getattr(resolve({"scenario_id": sid, key: eid}), key) == eid


def _non_finite_passes(report):
    # a PASS must not rest on a NaN or inf judged against a finite bound
    return [(r.name, metric, value) for r in report.results if r.passed
            for metric, value in r.values.items()
            if isinstance(value, float) and not math.isfinite(value)
            and isinstance(r.thresholds.get(metric), float)
            and math.isfinite(r.thresholds[metric])]


def test_every_same_dimension_field_runs_to_verdicts_or_a_typed_error(tmp_path):
    # the 50 (scenario, field) pairs that validate, made cheap: each ends in
    # verdicts (PASS or FAIL), or in a PipelineError whose cause is typed;
    # e.g. rotation with the discontinuous shear asks to be mollified first
    typed = []
    for sid, fid in SAME_DIMENSION:
        cfg = resolve({"scenario_id": sid, "field_id": fid, "steps": 16,
                       "seeds_per_axis": 16, "output_dir": str(tmp_path)})
        try:
            report = run_scenario(cfg)
        except PipelineError as exc:
            assert isinstance(exc.cause, (RoughTransportError, ValueError)), (sid, fid, exc)
            typed.append((sid, fid))
            continue
        assert len(report.results) == len(cfg.diagnostics), (sid, fid)
        assert _non_finite_passes(report) == [], (sid, fid)
    assert ("rotation", "shear") in typed


@pytest.mark.parametrize("scenario_id", ["twin_difference_gronwall", "compact_support_b"])
def test_a_plain_gronwall_bound_on_an_unbounded_divergence_raises(scenario_id, tmp_path):
    # log_drift's div_sup is inf, so A = B_R = inf and the plain bound would
    # hold for any Gamma: gronwall_log used to PASS on twin_difference_gronwall
    # with worst_gamma_over_bound 0.0, and to FAIL on compact_support_b only
    # through inf - inf = nan. It now raises at the cross-product test's
    # cheap config, before any verdict
    cfg = resolve({"scenario_id": scenario_id, "field_id": "log_drift", "steps": 16,
                   "seeds_per_axis": 16, "diagnostics": ["gronwall_log"],
                   "output_dir": str(tmp_path)})
    with pytest.raises(PipelineError) as err:
        run_scenario(cfg)
    assert err.value.stage == "gronwall_log"
    assert isinstance(err.value.cause, DivergenceUnboundedError)
    assert "'log_drift'" in str(err.value)


@pytest.mark.parametrize("text,key", [
    ('{"scenario_id": "identity", "eta": NaN}', "eta"),
    ('{"scenario_id": "identity", "T": Infinity}', "T"),
    ('{"scenario_id": "identity", "box_radius": -Infinity}', "box_radius"),
    ('{"scenario_id": "identity", "steps": true}', "steps"),
    ('{"scenario_id": "identity", "dimension": true}', "dimension"),
    ('{"scenario_id": "shear_bv", "seeds_per_axis": [true, 1024]}', "seeds_per_axis"),
    ('{"scenario_id": "identity", "delta_list": [true]}', "delta_list"),
    ('{"scenario_id": "identity", "r_list": [2.0, NaN]}', "r_list"),
    ('{"scenario_id": "identity", "eps_list": [Infinity]}', "eps_list"),
    ('{"scenario_id": "identity", "rng_seed": -5}', "rng_seed"),
])
def test_one_rule_for_numbers_rejects_nan_inf_bool_and_negative_seeds(text, key):
    # a number is a finite int or float that is not a bool, for scalars and
    # list entries alike; eta = NaN used to switch the singular cut-off off
    with pytest.raises(ValidationError) as err:
        resolve(json.loads(text))
    (violation,) = err.value.violations
    assert violation.startswith(f"{key}: ")


def test_rng_seed_zero_is_a_seed():
    assert resolve({"scenario_id": "identity", "rng_seed": 0}).rng_seed == 0


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3), max_leaves=6)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(REGISTRY)),
       st.sampled_from([k for k in default_config("identity") if k != "scenario_id"]),
       JSON_VALUES)
def test_any_json_value_resolves_to_finite_numbers_or_a_violation(sid, key, value):
    # whatever JSON a key holds, resolve either names it in a violation or
    # returns a config whose numbers are finite and not bools
    try:
        cfg = resolve({"scenario_id": sid, key: value})
    except ValidationError as err:
        assert any(v.startswith(f"{key}: ") for v in err.violations)
        return
    for name in ("T", "box_radius", "eta", "steps", "rng_seed", "seeds_per_axis",
                 "delta_list", "r_list", "lambda_list", "eps_list"):
        got = getattr(cfg, name)
        for x in got if isinstance(got, tuple) else (got,):
            assert not isinstance(x, bool) and math.isfinite(x), (name, x)


# --- registry listing ----------------------------------------------------------

def test_list_all_scenarios():
    rows = list_scenarios()
    assert len(rows) == 10
    assert all(len(r) == 3 for r in rows)


def test_list_filtered():
    assert len(list_scenarios("bmo")) == 1
    assert list_scenarios("nothing_matches") == []


# --- CLI -------------------------------------------------------------------------

def test_cli_list_exit_codes(capsys):
    assert main(["list"]) == 0
    assert main(["list", "bmo"]) == 0
    assert main(["list", "zzz"]) == 0        # empty table still exits 0
    out = capsys.readouterr().out
    assert "bmo_divergence_log" in out


def test_cli_emit_defaults(capsys):
    assert main(["emit-defaults", "identity"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario_id"] == "identity"
    assert payload["seeds_per_axis"] == 64


def test_cli_emit_defaults_unknown(capsys):
    assert main(["emit-defaults", "nope"]) == 2


def test_cli_run_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 2


def test_cli_run_invalid_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scenario_id": "identity", "steps": -3}))
    assert main(["run", str(path)]) == 2


def test_cli_run_counterexample(tmp_path, capsys):
    out_dir = tmp_path / "out"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario_id": "counterexample_L1_damping",
                                "output_dir": str(out_dir)}))
    assert main(["run", str(path)]) == 0
    stdout = capsys.readouterr().out
    assert "integrability_probe" in stdout
    assert (out_dir / "diagnostics.csv").exists()
    assert (out_dir / "provenance.csv").exists()
    assert (out_dir / "integrability_probe.csv").exists()


def test_pipeline_error_names_the_stage(tmp_path):
    # rotation endpoint check needs T = pi/2; a shorter horizon surfaces as a
    # pipeline error tagged with the diagnostic that tripped
    from rough_transport.errors import PipelineError
    cfg = resolve({"scenario_id": "rotation", "T": 1.0,
                   "diagnostics": ["flow_endpoint"],
                   "output_dir": str(tmp_path / "x")})
    with pytest.raises(PipelineError) as err:
        run_scenario(cfg)
    assert err.value.stage == "flow_endpoint"


def test_cli_run_prints_seconds_and_peak_rss(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario_id": "counterexample_L1_damping",
                                "diagnostics": ["damping_l1"],
                                "output_dir": str(tmp_path / "out")}))
    assert main(["run", str(path)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert re.fullmatch(r"\[PASS\] counterexample_L1_damping/damping_l1  "
                        r"\d+\.\d\ds  peak RSS \d+\.\d MB", line), line


def test_cli_run_reports_pipeline_error(tmp_path, capsys):
    # the same rotation failure through the CLI: exit code 1, stage on stderr
    path = _write(tmp_path, {"scenario_id": "rotation", "T": 1.0,
                             "diagnostics": ["flow_endpoint"],
                             "output_dir": str(tmp_path / "x")})
    assert main(["run", path]) == 1
    assert "stage 'flow_endpoint'" in capsys.readouterr().err


def test_identity_scenario_full_run(tmp_path):
    # registry example: all identity diagnostics pass inside five seconds
    import time
    cfg = resolve({"scenario_id": "identity", "output_dir": str(tmp_path / "id")})
    t0 = time.perf_counter()
    report = run_scenario(cfg)
    elapsed = time.perf_counter() - t0
    assert report.passed
    assert elapsed < 5.0
    assert [r.name for r in report.results] == list(cfg.diagnostics)


def test_thread_cap_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("ROUGH_TRANSPORT_THREADS", "1")
    from rough_transport.numerics import worker_count
    assert worker_count() == 1
    cfg = resolve({"scenario_id": "identity", "output_dir": str(tmp_path / "t"),
                   "seeds_per_axis": 32, "steps": 16,
                   "diagnostics": ["weak_residual"]})
    assert run_scenario(cfg).passed


# --- artifact determinism ----------------------------------------------------------

def _run_twice(tmp_path, scenario="counterexample_L1_damping", **extra):
    # identical config both times, including output_dir; capture bytes between
    out_dir = tmp_path / "out"
    payload = {"scenario_id": scenario, "output_dir": str(out_dir)}
    payload.update(extra)
    snapshots = []
    for _ in range(2):
        cfg = resolve(payload)
        run_scenario(cfg).write(str(out_dir))
        snapshots.append({f: (out_dir / f).read_bytes()
                          for f in sorted(os.listdir(out_dir))})
    return snapshots


def test_repeated_runs_byte_identical(tmp_path):
    a, b = _run_twice(tmp_path)
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], f"artifact {name} differs between runs"


def test_repeated_runs_byte_identical_with_flow(tmp_path):
    a, b = _run_twice(tmp_path, scenario="identity", seeds_per_axis=32, steps=32,
                      diagnostics=["flow_identity", "jacobian_unit",
                                   "compressibility"])
    for name in a:
        assert a[name] == b[name]
