"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here and nowhere else; order estimates follow
the usual order-of-accuracy practice of allowing a 0.1 estimation margin on
the fitted slope.
"""

import math
import os
import time

import numpy as np

from rough_transport.config import resolve
from rough_transport.flow import (change_of_variables_residual, forward_summary,
                                  make_seed_grid, seeds_from_points)
from rough_transport.numerics import order_estimate
from rough_transport.renormalization import (make_beta_arctan, make_beta_log,
                                             standard_sweep)
from rough_transport.representation import (DensityRepresentation, make_quadrature,
                                            pointwise_solution)
from rough_transport.scenarios import run_scenario
from rough_transport.testfunctions import bump, compact_space_time
from rough_transport.weakform import weak_residual

from conftest import damping, field, u0_fn
from reference import integrate_flow

ORDER_MARGIN = 0.1


def announce(num, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {num:2d}: {description}  {detail}")
    assert passed, f"criterion {num}: {description}  {detail}"


def _run(scenario_id, **overrides):
    overrides.setdefault("output_dir", f"/tmp/acceptance_{scenario_id}")
    cfg = resolve({"scenario_id": scenario_id, **overrides})
    return run_scenario(cfg)


def _by_name(report, name):
    return next(r for r in report.results if r.name == name)


def test_criterion_01_flow_accuracy():
    t0 = time.perf_counter()
    lin = field("linear_expand")
    fl = integrate_flow(lin, seeds_from_points([[1.0]]), 1000, "forward")
    err_lin = abs(fl.positions_at(-1)[0, 0] - math.e)
    t_lin = time.perf_counter() - t0

    t0 = time.perf_counter()
    rot = field("rotation", d=2, T=math.pi / 2.0)
    fl = integrate_flow(rot, seeds_from_points([[1.0, 0.0]]), 1000, "forward")
    err_rot = float(np.linalg.norm(fl.positions_at(-1)[0] - np.array([0.0, 1.0])))
    t_rot = time.perf_counter() - t0

    announce(1, "flow accuracy (|X(1,1)-e|, rotation endpoint, <1s each)",
             err_lin <= 1e-8 and err_rot <= 1e-8 and t_lin < 1.0 and t_rot < 1.0,
             f"lin={err_lin:.2e} rot={err_rot:.2e} times=({t_lin:.2f}s,{t_rot:.2f}s)")


def test_criterion_02_jacobian_identity():
    results = {}
    for name, d, T in (("linear_expand", 1, 1.0), ("rotation", 2, math.pi / 2.0)):
        spec = field(name, d=d, T=T)
        grid = make_seed_grid(1.0, 8 if d == 1 else (8, 8), d)

        def worst(steps):
            return forward_summary(spec, grid, steps, residuals=True).residuals.worst

        r1, r2 = worst(1000), worst(2000)
        results[name] = (r1, r2, r1 <= 1e-3 and r2 <= max(0.55 * r1, 1e-12))
    ok = all(v[2] for v in results.values())
    detail = " ".join(f"{k}: {v[0]:.2e}->{v[1]:.2e}" for k, v in results.items())
    announce(2, "Jacobian ODE residual <= 1e-3 at steps=1000, halves on doubling", ok, detail)


def test_criterion_03_change_of_variables():
    spec = field("linear_expand")
    phi = bump(1, 1.0)

    def residual(cells, steps):
        grid = make_seed_grid(1.0, cells, 1)
        return change_of_variables_residual(forward_summary(spec, grid, steps), phi, 1.0)

    res512 = residual(512, 512)
    ladder = [(64, 128), (128, 256), (256, 512)]
    errs = [residual(c, s) for c, s in ladder]
    order = order_estimate([1.0 / c for c, _ in ladder], errs)
    ok = res512 <= 1e-5 and order >= 2.0 - ORDER_MARGIN
    announce(3, "change of variables residual <= 1e-5 at 512 seeds, order >= 2",
             ok, f"residual={res512:.2e} order={order:.2f}")


def test_criterion_04_compressibility():
    t0 = time.perf_counter()
    rep_c = _run("linear_contract", diagnostics=["compressibility"])
    rep_r = _run("rotation", diagnostics=["compressibility"])
    elapsed = time.perf_counter() - t0
    c_contract = _by_name(rep_c, "compressibility").values["C_empirical"]
    c_rot = _by_name(rep_r, "compressibility").values["C_empirical"]
    ok = (abs(c_contract - math.e) / math.e <= 0.1
          and abs(c_rot - 1.0) <= 0.1 and elapsed < 10.0)
    announce(4, "compressibility within 10% (e for contraction, 1 for rotation), <10s",
             ok, f"C_contract={c_contract:.4f} C_rot={c_rot:.4f} t={elapsed:.1f}s")


def test_criterion_05_renormalizer_inequalities():
    rng = np.random.default_rng(20260810)
    pairs = rng.uniform(-1e3, 1e3, size=(10_000, 2))
    min_gap = float("inf")
    for M in (0.1, 1.0, 10.0):
        ren = make_beta_arctan(M)
        lhs = np.abs(ren.beta(pairs[:, 0]) - ren.beta(pairs[:, 1]))
        rhs = np.abs(pairs[:, 0] * ren.beta_prime(pairs[:, 0])
                     - pairs[:, 1] * ren.beta_prime(pairs[:, 1]))
        min_gap = min(min_gap, float(np.min(lhs - rhs)))

    sweep = standard_sweep()
    sup_rb = max(float(np.max(np.abs(sweep * make_beta_log(d).beta_prime(sweep))))
                 for d in (1.0, 1e-2, 1e-4))
    ok = min_gap >= -1e-12 and sup_rb <= 1.0 + 1e-12
    announce(5, "arctan contraction gap >= -1e-12; sup|r beta'_delta| <= 1+1e-12",
             ok, f"min_gap={min_gap:.2e} sup_rb={sup_rb:.15f}")


def test_criterion_06_representation_and_weak_residual():
    spec, dmp, u0 = field("zero", T=1.0), damping("box_indicator"), u0_fn("bump")

    quad = make_quadrature(1, 2.0, 128, 1.0, 64)
    grid = seeds_from_points(quad.points, quad.cell_volume)
    u = pointwise_solution(spec, dmp, u0, grid, quad.times, steps=64)
    cvals = np.asarray(dmp.eval_c(0.0, quad.points), dtype=float)
    exact = u0(quad.points)[None, :] * np.exp(quad.times[:, None] * cvals[None, :])
    dev = float(np.max(np.abs(u - exact)))

    phi = compact_space_time(1, 1.0, space_radius=1.5)
    beta = make_beta_arctan(1.0)
    errs = []
    ladders = [(64, 32), (128, 64), (256, 128)]
    for ns, nt in ladders:
        q = make_quadrature(1, 2.0, ns, 1.0, nt)
        g = seeds_from_points(q.points, q.cell_volume)
        uu = DensityRepresentation(q, pointwise_solution(spec, dmp, u0, g, q.times,
                                                         steps=32))
        errs.append(weak_residual(uu, beta, phi, spec, dmp, u0))
    order = order_estimate([1.0 / nt for _, nt in ladders], errs)
    ok = dev <= 1e-12 and order >= 2.0 - ORDER_MARGIN and errs[-1] < errs[0]
    announce(6, "representation exact to 1e-12; weak residual order >= 2",
             ok, f"dev={dev:.2e} order={order:.2f} residuals={[f'{e:.1e}' for e in errs]}")


def test_criterion_07_integrability_counterexample():
    t0 = time.perf_counter()
    rep = _run("counterexample_L1_damping")
    control = _run("damping_bounded", diagnostics=["integrability_probe"])
    elapsed = time.perf_counter() - t0
    divergent = _by_name(rep, "integrability_probe")
    art = divergent.artifacts[0]
    integrals = [row[1] for row in art.rows]
    growth_ok = all(b / a >= 10.0 for a, b in zip(integrals, integrals[1:]))
    ok = (divergent.passed and growth_ok
          and _by_name(control, "integrability_probe").passed and elapsed < 1.0)
    announce(7, "probe divergent with >=10x growth per refinement; control convergent, <1s",
             ok, f"integrals={['%.2e' % v for v in integrals]} t={elapsed:.2f}s")


def test_criterion_08_gronwall_log_bound():
    t0 = time.perf_counter()
    twin = _run("twin_difference_gronwall", diagnostics=["gronwall_log"],
                delta_list=[1e-2, 1e-4, 1e-6], r_list=[2.0, 4.0, 8.0])
    compact = _run("compact_support_b", diagnostics=["gronwall_log"],
                   delta_list=[1e-2, 1e-4, 1e-6], r_list=[8.0])
    elapsed = time.perf_counter() - t0
    r_twin = _by_name(twin, "gronwall_log")
    r_compact = _by_name(compact, "gronwall_log")
    ok = (r_twin.passed and r_compact.passed
          and r_compact.values["bound_delta_independent"] and elapsed < 60.0)
    announce(8, "Gamma_{delta,R} <= exp(A)(B_R + log(1+pi^2/4delta) C_R) * 1.1; "
                "C_R = 0 delta-independent for compact b", ok,
             f"worst_ratio={r_twin.values['worst_gamma_over_bound']:.2e} t={elapsed:.1f}s")


def test_criterion_09_uniqueness_probe_and_tamper():
    rep = _run("twin_difference_gronwall", diagnostics=["uniqueness_probe"])
    probe = _by_name(rep, "uniqueness_probe")

    # tampered fixture: zero datum, injected bump after T/2, claimed solution
    spec, dmp, u0 = field("zero", T=1.0), damping("zero"), u0_fn("bump")
    quad = make_quadrature(1, 2.0, 128, 1.0, 128)
    vals = np.zeros((quad.times.size, quad.points.shape[0]))
    vals[quad.times > 0.5] = 2.0 * bump(1, 0.9)(quad.points)[None, :]
    u_bad = DensityRepresentation(quad, vals)
    phi = compact_space_time(1, 1.0, space_radius=1.5)
    res = weak_residual(u_bad, make_beta_arctan(1.0), phi, spec, dmp,
                        lambda x: np.zeros(np.asarray(x).shape[:-1]))
    floor = 0.1 * 0.75 * phi.space.reference_integral   # the window integrates to 0.75 T
    ok = probe.passed and probe.values["verdict_forces_zero"] and res > floor
    announce(9, "twin difference forces u=0; tampered fixture flagged by weak residual",
             ok, f"m={probe.values['m']:.2e} residual={res:.3f} > {floor:.3f}")


def test_criterion_10_flow_convergence():
    t0 = time.perf_counter()
    rep = _run("shear_bv", diagnostics=["flow_convergence"],
               eps_list=[0.2, 0.1, 0.05, 0.025])
    elapsed = time.perf_counter() - t0
    r = _by_name(rep, "flow_convergence")
    rows = r.artifacts[0].rows
    discs = [row[1] for row in rows]
    ok = (r.passed and all(b < a for a, b in zip(discs, discs[1:]))
          and r.values["max_jacobian_discrepancy"] <= 1e-10 and elapsed < 30.0)
    announce(10, "shear discrepancies strictly decrease; Jacobian discrepancy <= 1e-10, <30s",
             ok, f"discs={['%.2e' % v for v in discs]} t={elapsed:.1f}s")


def test_criterion_11_bmo_suite():
    rep = _run("bmo_divergence_log",
               diagnostics=["bmo_norm", "jn_decay", "superlevel_tails"],
               lambda_list=[9.0, 12.0, 16.0])
    norm = _by_name(rep, "bmo_norm")
    jn = _by_name(rep, "jn_decay")
    tails = _by_name(rep, "superlevel_tails")
    tail_rows = [row[1] for row in tails.artifacts[0].rows]
    strictly_dec = all(b < a for a, b in zip(tail_rows, tail_rows[1:]))
    ok = (abs(norm.values["average_B1"] - 1.0) <= 0.02
          and norm.values["average_B1"] <= norm.values["average_bound"]
          and jn.values["c_fit"] > 0.0
          and strictly_dec and tails.values["r_squared"] >= 0.95)
    announce(11, "BMO log exemplar: average 1 +- 2%, decay fit, tail integrals log-linear",
             ok, f"avg={norm.values['average_B1']:.4f} c_fit={jn.values['c_fit']:.3f} "
                 f"R2={tails.values['r_squared']:.4f}")


def test_criterion_12_bmo_gronwall():
    t0 = time.perf_counter()
    rep = _run("bmo_divergence_log", diagnostics=["bmo_gronwall"],
               lambda_list=[9.0, 16.0], delta_list=[1e-2, 1e-4])
    elapsed = time.perf_counter() - t0
    r = _by_name(rep, "bmo_gronwall")
    ok = (r.passed and r.values["all_bounds_hold"]
          and r.values["expA_D_decreasing"] and elapsed < 60.0)
    announce(12, "BMO Gronwall bound holds for lambda in {9,16}, delta in {1e-2,1e-4}; "
                 "exp(A_lambda) D_lambda decreases", ok, f"t={elapsed:.1f}s")


def test_criterion_13_determinism(tmp_path):
    out = tmp_path / "det"
    payload = {"scenario_id": "counterexample_L1_damping", "output_dir": str(out)}
    snapshots = []
    for _ in range(2):
        run_scenario(resolve(payload)).write(str(out))
        snapshots.append({f: (out / f).read_bytes()
                          for f in sorted(os.listdir(out))})
    same = (snapshots[0].keys() == snapshots[1].keys()
            and all(snapshots[0][k] == snapshots[1][k] for k in snapshots[0]))
    announce(13, "identical config produces byte-identical CSV artifacts", same,
             f"files={sorted(snapshots[0])}")
