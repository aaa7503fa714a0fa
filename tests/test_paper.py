"""The paper's theorems checked where a scenario row does not judge them yet.

Each test names the scenario row it becomes once the golden artifacts are
re-recorded, and pairs its claim with a contrast that a check passing
either way would fail.
"""

import math

import numpy as np

from rough_transport.config import resolve
from rough_transport.fields import DampingFieldSpec, VelocityFieldSpec
from rough_transport.flow import forward_summary, make_seed_grid, seeds_from_points
from rough_transport.numerics import CellGrid
from rough_transport import representation
from rough_transport.renormalization import Renormalizer, make_beta_arctan
from rough_transport.representation import pointwise_solution, represent_pushforward
from rough_transport.scenarios import build_context, run_scenario
from rough_transport.testfunctions import compact_space_time
from rough_transport.weakform import weak_residual

from conftest import damping, field, u0_fn


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
        B_R = [ctx.gronwall_bound((96, 48), R)[1].B_R for ctx in (damped, undamped)]
        assert B_R[0] - B_R[1] == 4.0, (R, B_R)


def test_truncated_damping_converges_renormalized_not_distributional():
    """Existence by truncation with the paper's damping c = |x|^(-1/2) on b = x.

    The bounded truncations c_n = min(c, n), the DiPerna-Lions regime, give
    densities u_n that converge to u in the renormalized sense: the L1(B_1)
    distance of arctan(u_n) to arctan(u) falls 21x, 162x and 7300x per
    doubling of n. As distributions they diverge: ||u_n||_{L1(B_1)} is 4.04,
    9.67, 79.8 and 4.1e4, since u is not locally integrable at 0. The
    ladder stops at n = 16; at 32 the distance sits at the rounding floor.
    Each build is one 64-step backward sweep of 512 seeds, about 7 ms. At
    the golden re-record this becomes the ``truncation_ladder`` row of
    ROADMAP item 6b's ``transport_L1_damping`` scenario.
    """
    b, c, u0 = field("linear_expand"), damping("inv_sqrt"), u0_fn("bump")
    grid = make_seed_grid(1.0, 512, 1)      # B_1; no seed at the singular point
    x, h = grid.points, 2.0 / 512
    times = np.array([0.0, 1.0])
    u = pointwise_solution(b, c, u0, grid, times, 64)[-1]
    # u = u0(x e^-1) e^-1 exp(2 (e^(1/2) - 1) / sqrt|x|) along x e^(t - 1)
    exact = (u0(x * np.exp(-1.0)) * np.exp(-1.0)
             * np.exp(2.0 * (np.exp(0.5) - 1.0) / np.sqrt(np.abs(x[:, 0]))))
    assert np.max(np.abs(u - exact) / exact) <= 1e-3

    distances, masses = [], []
    for n in (2, 4, 8, 16):
        c_n = DampingFieldSpec(eval_c=lambda t, y, n=n: np.minimum(c.eval_c(t, y), n),
                               label=f"inv_sqrt_min_{n}")
        u_n = pointwise_solution(b, c_n, u0, grid, times, 64)[-1]
        distances.append(float(np.sum(np.abs(np.arctan(u_n) - np.arctan(u)))) * h)
        masses.append(float(np.sum(np.abs(u_n))) * h)
    assert all(near <= 0.1 * far for far, near in zip(distances, distances[1:])), distances
    assert all(big >= 2.0 * small for small, big in zip(masses, masses[1:])), masses


def test_renormalized_weak_form_holds_with_integrable_damping(tmp_path):
    """The renormalized weak form on b = 0 with the paper's damping c = |x|^(-1/2).

    Here u = u0 e^{t c}, which is not locally integrable, but arctan(u)
    solves the renormalized equation: with phi = compact_space_time(1, T,
    0.9), arctan at M = 1, eta = 1e-6 and 16 ODE steps, the weak residual
    at 64, 128, 256 and 512 cells (tau halving alongside) is 1.2e-4,
    8.7e-7, 4.5e-10 and 1.8e-14, falls of 143x, 1900x and 24000x. The
    contrast is the distributional form, beta = identity, on the same
    densities: 5.1e-3, 4.5e-4, 2.6e-5 and 8.6e-6, a fall of 3x on the last
    rung. Both ladders take about 0.35 s. At the golden re-record this
    becomes the ``renormalized_residual`` row of ``counterexample_L1_damping``
    (ROADMAP item 6a), in place of its skipped ``weak_form`` row.
    """
    cfg = resolve({"scenario_id": "counterexample_L1_damping", "eta": 1e-6, "steps": 16,
                   "output_dir": str(tmp_path)})
    ctx = build_context(cfg)
    phi = compact_space_time(1, cfg.T, 0.9)
    identity = Renormalizer(beta=lambda r: np.asarray(r, dtype=float),
                            beta_prime=lambda r: np.ones(np.shape(r)),
                            sup_beta=np.inf, sup_rbeta_prime=np.inf, label="identity")

    def ladder(beta):
        return [weak_residual(ctx.density(n, n // 2), beta, phi, ctx.field, ctx.damping,
                              ctx.u0).residual for n in (64, 128, 256, 512)]

    renormalized, distributional = ladder(make_beta_arctan(1.0)), ladder(identity)
    assert all(fine <= 0.01 * coarse
               for coarse, fine in zip(renormalized, renormalized[1:])), renormalized
    assert renormalized[-1] <= 1e-12
    assert not all(fine <= 0.01 * coarse
                   for coarse, fine in zip(distributional, distributional[1:])), distributional


def _representation_distances(field_id, damping_id, d, T, radius, steps,
                              cells=(32, 64, 128)):
    """L1 distance of the pushforward deposit to the pointwise density at T.

    On each count of ``cells`` per axis of [-radius, radius]^d, with 4
    particles per cell per axis: a ladder must refine particles and cells
    together, since at a fixed count per cell the deposit stops at an
    aliasing floor.
    """
    b, c, u0 = field(field_id, d=d, T=T), damping(damping_id, d=d), u0_fn("bump", d=d)
    distances = []
    for n in cells:
        target = CellGrid(radius, n, d)
        pushed, _ = represent_pushforward(
            u0, forward_summary(b, make_seed_grid(radius, 4 * n, d), steps, damping=c),
            target)
        pointwise = pointwise_solution(b, c, u0, seeds_from_points(target.centers(),
                                                                   target.cell_volume),
                                       np.array([0.0, T]), steps)[-1]
        distances.append(float(np.sum(np.abs(pushed - pointwise))) * target.cell_volume)
    return distances


def _nearest_cell_deposit(positions, weights, grid: CellGrid):
    """Each particle's whole weight on its nearest cell centre: no first order."""
    n = grid.cells_per_axis
    rel = (positions + grid.radius) / grid.h - 0.5
    base = np.floor(rel)
    idx = (base + np.round(rel - base)).astype(int)
    valid = np.all((idx >= 0) & (idx < n), axis=1)
    acc = np.zeros((n,) * grid.dimension)
    np.add.at(acc, tuple(idx[valid].T), weights[valid])
    return acc, float(np.sum(weights[valid]))


def test_both_representation_formulas_agree_on_rotation(monkeypatch):
    """The pushforward and the pointwise formula give one density on rotation.

    At T = pi/2 the L1 distance between the cloud-in-cell deposit and the
    pointwise density reads 7.02e-3, 1.77e-3 and 4.43e-4 at 32, 64 and 128
    cells per axis: order 1.99 and 2.00, the deposit's own order. 16 RK4
    steps give the same distances as 50 or 200 to 4 digits, so the flow
    error is far below the deposit's; the rotation ladder takes about 1 s.
    No scenario runs the pushforward formula yet, so this is the only
    check that judges it. The contrast is linear_expand with the
    integrable damping c = |x|^(-1/2): u is not locally integrable at 0,
    and on the same ladder the distance grows, 7.7, 42 and 525. At the
    golden re-record this becomes ROADMAP item 10's
    ``representation_agreement`` row of ``rotation``.

    A quarter turn maps the seed lattice onto itself, so at T = pi/2 a
    nearest-cell deposit reads order 2 as well. At T = 1 it does not: the
    32 -> 64-cell order reads 1.93 (64-cell distance 1.79e-3), and a
    nearest-cell deposit, the second contrast, reads -0.03 (3.00e-2).
    T = 1 stops at 64 cells: with 4 particles per cell the 128-cell rung
    meets the aliasing floor off the quarter turn (order 1.26 at 16, 64
    and 200 steps alike).
    """
    distances = _representation_distances("rotation", "zero", 2, math.pi / 2.0, 1.0, 16)
    orders = [math.log2(coarse / fine) for coarse, fine in zip(distances, distances[1:])]
    assert min(orders) >= 1.8, (distances, orders)
    assert distances[-1] <= 1e-3, distances

    def off_quarter_turn_order():
        coarse, fine = _representation_distances("rotation", "zero", 2, 1.0, 1.0, 16,
                                                 cells=(32, 64))
        return math.log2(coarse / fine), (coarse, fine)

    order, rung = off_quarter_turn_order()
    assert order >= 1.8, rung
    monkeypatch.setattr(representation, "_cic_deposit", _nearest_cell_deposit)
    order, rung = off_quarter_turn_order()
    assert not order >= 1.8, rung
    monkeypatch.undo()

    contrast = _representation_distances("linear_expand", "inv_sqrt", 1, 1.0, 3.0, 64)
    assert all(fine > coarse for coarse, fine in zip(contrast, contrast[1:])), contrast


def _smoothed_shear(eps):
    """b = (m_eps(y), 0): the sign of y smoothed over |y| < eps, divergence-free.

    m_eps = 2 I_{(1+y/eps)/2}(11/2, 11/2) - 1 is sign(y) convolved with the
    kernel (1 - s^2)^{9/2} on [-eps, eps], exactly, so it equals sign(y)
    for |y| >= eps.
    """
    from scipy.special import betainc

    def eval_b(t, x):
        x = np.asarray(x, dtype=float)
        b = np.zeros_like(x)
        s = np.clip(0.5 * (1.0 + x[..., 1] / eps), 0.0, 1.0)
        b[..., 0] = 2.0 * betainc(5.5, 5.5, s) - 1.0
        return b

    return VelocityFieldSpec(dimension=2, eval_b=eval_b,
                             eval_div_b=lambda t, x: np.zeros(np.asarray(x).shape[:-1]),
                             continuous=True, div_sup=lambda t: 0.0, horizon=1.0)


def test_smoothed_bv_shear_converges_in_L1_not_uniformly():
    # Becomes shear_bv/density_stability. DiPerna-Lions stability under
    # smoothing: the densities of the smoothed shears b_eps converge to
    # u0(x - T sign(y), y), the density of the BV shear, at order 1 in eps
    # in L1, since they differ only on the layer |y| < eps. The contrast:
    # the sup distance stays near max u0 = 1 on every rung, so the
    # convergence is in measure, not uniform. The (32, 1024) seed grid
    # resolves eps = 0.025 by about 13 cells across the layer
    u0 = u0_fn("bump", d=2)
    grid = make_seed_grid(2.0, (32, 1024), 2)
    x = grid.points
    limit = u0(np.stack([x[:, 0] - np.sign(x[:, 1]), x[:, 1]], axis=-1))
    l1, sup = [], []
    for eps in (0.2, 0.1, 0.05, 0.025):
        u = pointwise_solution(_smoothed_shear(eps), damping("zero", d=2), u0, grid,
                               np.array([0.0, 1.0]), 16)[-1]
        l1.append(float(np.sum(np.abs(u - limit))) * grid.cell_volume)
        sup.append(float(np.max(np.abs(u - limit))))
    orders = [math.log2(a / b) for a, b in zip(l1, l1[1:])]
    assert all(0.9 <= p <= 1.1 for p in orders), (l1, orders)
    assert min(sup) >= 0.99, sup
