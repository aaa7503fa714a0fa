"""The paper's theorems checked where a scenario row does not judge them yet.

Each test names the scenario row it becomes once the golden artifacts are
re-recorded, and pairs its claim with a contrast that a check passing
either way would fail.
"""

from rough_transport.config import resolve
from rough_transport.scenarios import build_context, run_scenario


def _twin_gronwall(damping_id, tmp_path):
    return resolve({"scenario_id": "twin_difference_gronwall", "damping_id": damping_id,
                    "output_dir": str(tmp_path / damping_id)})


def test_log_gronwall_bound_holds_with_integrable_damping(tmp_path):
    """The logarithmic Gronwall bound with the paper's damping c = |x|^(-1/2).

    On b = x both verdicts pass (worst Gamma / bound 0.0016), and the bound
    under test is the integrable-damping one: B_R exceeds its value at c = 0
    by exactly int_0^1 ||c(t, .)||_L1 dt = 4. At the golden re-record this
    becomes the ``gronwall_log`` row of ROADMAP item 6b.
    """
    cfg = _twin_gronwall("inv_sqrt", tmp_path)
    report = run_scenario(cfg)
    assert [(r.name, r.passed) for r in report.results] == [
        ("gronwall_log", True), ("uniqueness_probe", True)]
    assert report.results[0].values["worst_gamma_over_bound"] < 1.0

    damped, undamped = build_context(cfg), build_context(_twin_gronwall("zero", tmp_path))
    for R in cfg.r_list:
        B_R = [ctx.gronwall_bound((96, 48), 3.0, R)[1].B_R for ctx in (damped, undamped)]
        assert B_R[0] - B_R[1] == 4.0, (R, B_R)
