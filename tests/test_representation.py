"""Solution representations: damping integrals, both formulas, the probe."""

import math

import numpy as np
import pytest

from rough_transport.errors import AllTruncatedError, JacobianVanishedError
from rough_transport.fields import DampingFieldSpec, VelocityFieldSpec
from rough_transport.flow import integrate_flow, jacobian, make_seed_grid, seeds_from_points
from rough_transport.representation import (_CHUNK_NODES, TargetGrid, damping_integral,
                                            integrability_probe, pointwise_solution,
                                            pushforward_total_mass,
                                            represent_pointwise, represent_pushforward)
from conftest import damping, field, u0_fn


def _identity_flow(steps=16, cells=64, radius=1.0, d=1, T=1.0):
    spec = field("zero", d=d, T=T)
    grid = make_seed_grid(radius, cells, d)
    return spec, integrate_flow(spec, grid, steps, "forward")


# --- damping path integrals ---------------------------------------------------

def test_damping_integral_zero():
    _, fl = _identity_flow()
    acc = damping_integral(damping("zero"), fl, eta=0.0)
    assert np.all(acc.values == 0.0)
    assert acc.total_l1 == 0.0


def test_damping_integral_constant():
    # b = 0 and constant c: D(t, x) = c0 t
    _, fl = _identity_flow(steps=10)
    acc = damping_integral(damping("constant_one"), fl, eta=0.0)
    assert np.max(np.abs(acc.values - fl.time_grid[None, :])) <= 1e-14


def test_damping_integral_inv_sqrt_mass():
    # analytic: integral over (0,1) x [-1,1] of |x|^(-1/2) равен 4
    errors = []
    for cells in (128, 256, 512, 1024):
        _, fl = _identity_flow(steps=8, cells=cells)
        acc = damping_integral(damping("inv_sqrt"), fl, eta=1e-12)
        errors.append(abs(acc.total_l1 - 4.0) / 4.0)
    assert errors[-1] <= 0.02
    assert errors[-1] < errors[0]
    # compressibility bound: C(X) = 1 for the identity flow, 20% grid slack
    assert acc.total_l1 <= 1.0 * 4.0 * 1.2


def test_damping_integral_counts_truncated_nodes():
    # contraction drags seeds into the eta-ball partway through the window
    spec = field("linear_contract")
    fl = integrate_flow(spec, seeds_from_points([[0.3], [0.9]]), 32, "forward")
    acc = damping_integral(damping("inv_sqrt"), fl, eta=0.15)
    assert 0 < acc.truncated_nodes[0] < fl.time_grid.size
    assert acc.truncated_nodes[1] < acc.truncated_nodes[0]


def test_damping_integral_all_truncated():
    spec = field("zero")
    fl = integrate_flow(spec, seeds_from_points([[0.0]]), 4, "forward")
    with pytest.raises(AllTruncatedError):
        damping_integral(damping("inv_sqrt"), fl, eta=0.5)


# --- pointwise representation ---------------------------------------------------

def test_represent_pointwise_identity():
    spec = field("zero")
    u0 = u0_fn("bump")
    grid = make_seed_grid(1.0, 128, 1)
    back = integrate_flow(spec, grid, 16, "backward")
    track = jacobian(spec, back)
    acc = damping_integral(damping("zero"), back, 0.0)
    rep = represent_pointwise(u0, back, track, acc)
    assert np.array_equal(rep.values[0], u0(grid.points))


def test_represent_pointwise_pure_damping_formula():
    # u(t, x) = u0(x) e^{t c(x)} for b = 0 (the closed-form damped solution)
    spec = field("zero")
    dmp = damping("box_indicator")
    u0 = u0_fn("bump")
    grid = make_seed_grid(2.0, 128, 1)
    back = integrate_flow(spec, grid, 32, "backward")
    rep = represent_pointwise(u0, back, jacobian(spec, back),
                              damping_integral(dmp, back, 0.0))
    cvals = dmp.eval_c(0.0, grid.points)
    exact = u0(grid.points) * np.exp(1.0 * cvals)
    assert np.max(np.abs(rep.values[0] - exact)) <= 1e-12


def test_represent_pointwise_linear_flow():
    # b = x: u(t, x) = u0(x e^{-t}) e^{-t}; at t=1, x=e this is u0(1)/e
    spec = field("linear_expand")
    u0 = u0_fn("bump")
    pt = seeds_from_points([[math.e]])
    back = integrate_flow(spec, pt, 1000, "backward")
    rep = represent_pointwise(u0, back, jacobian(spec, back),
                              damping_integral(damping("zero"), back, 0.0))
    assert rep.values[0, 0] == pytest.approx(u0(np.array([[1.0]]))[0] / math.e,
                                             rel=1e-10)


def test_pointwise_solution_thread_count_invariant(monkeypatch):
    # the package runs no thread pool: the worker setting cannot change bits
    spec = field("linear_expand")
    u0 = u0_fn("bump")
    grid = make_seed_grid(1.0, 64, 1)
    times = np.linspace(0.0, 1.0, 17)
    results = []
    for workers in ("1", "4"):
        monkeypatch.setenv("ROUGH_TRANSPORT_THREADS", workers)
        results.append(pointwise_solution(spec, damping("zero"), u0, grid,
                                          times, steps=64).values)
    assert np.array_equal(results[0], results[1])


def _per_slice_reference(spec, dmp, u0, grid, times, steps, eta):
    """pointwise_solution composed slice by slice from the public steps.

    Returns the values and the number of truncated damping nodes.
    """
    vals = [np.asarray(u0(grid.points), dtype=float)]
    truncated = 0
    for t in times[1:]:
        sub_steps = max(1, int(round(steps * t / spec.horizon)))
        back = integrate_flow(spec, grid, sub_steps, "backward", anchor_time=t)
        acc = damping_integral(dmp, back, eta)
        truncated += int(np.sum(acc.truncated_nodes))
        vals.append(represent_pointwise(u0, back, jacobian(spec, back), acc).values[0])
    return np.array(vals), truncated


def test_pointwise_solution_matches_per_slice_composition():
    # slice k takes round(1000 k / 48) steps, so step counts grow unevenly by
    # 20 or 21; the slices fill several chunks of several slices each
    spec = field("linear_expand")
    dmp = damping("box_indicator")
    u0 = u0_fn("bump")
    grid = make_seed_grid(1.0, 64, 1)
    times = np.linspace(0.0, 1.0, 49)
    assert 1001 * 64 * 48 > 4 * _CHUNK_NODES
    u = pointwise_solution(spec, dmp, u0, grid, times, steps=1000)
    ref, _ = _per_slice_reference(spec, dmp, u0, grid, times, 1000, 0.0)
    assert np.array_equal(u.values, ref)


def test_pointwise_solution_matches_per_slice_truncated():
    # b = x pulls the backward paths into the eta-ball around the singularity
    spec = field("linear_expand")
    dmp = damping("inv_sqrt")
    u0 = u0_fn("bump")
    grid = make_seed_grid(1.0, 16, 1)
    times = np.linspace(0.0, 1.0, 9)
    u = pointwise_solution(spec, dmp, u0, grid, times, steps=64, eta=0.05)
    ref, truncated = _per_slice_reference(spec, dmp, u0, grid, times, 64, 0.05)
    assert truncated > 0
    assert np.array_equal(u.values, ref)


def test_pointwise_solution_time_dependent():
    # b = t x and c = t: X^{-1}(t, x) = x e^{-t^2/2}, JX = e^{t^2/2} cancels
    # exp(int c), so u(t, x) = u0(x e^{-t^2/2})
    spec = VelocityFieldSpec(
        dimension=1, eval_b=lambda t, x: t * np.asarray(x, dtype=float),
        eval_div_b=lambda t, x: np.full(np.asarray(x).shape[:-1], float(t)),
        regularity_tag="smooth", div_sup=lambda t: abs(t), horizon=1.0,
        autonomous=False)
    dmp = DampingFieldSpec(
        eval_c=lambda t, x: np.full(np.asarray(x).shape[:-1], float(t)),
        autonomous=False)
    u0 = lambda x: np.exp(-np.sum(np.asarray(x) ** 2, axis=-1))  # noqa: E731
    grid = make_seed_grid(1.0, 32, 1)
    times = np.linspace(0.0, 1.0, 9)
    u = pointwise_solution(spec, dmp, u0, grid, times, steps=200)
    exact = np.array([u0(grid.points * math.exp(-t * t / 2.0)) for t in times])
    assert u.values == pytest.approx(exact, rel=1e-8)
    ref, _ = _per_slice_reference(spec, dmp, u0, grid, times, 200, 0.0)
    assert np.array_equal(u.values, ref)


def test_pointwise_solution_initial_slice_exact():
    spec = field("linear_expand")
    u0 = u0_fn("bump")
    grid = make_seed_grid(1.0, 64, 1)
    u = pointwise_solution(spec, damping("zero"), u0, grid,
                           np.linspace(0.0, 1.0, 9), steps=64)
    assert np.array_equal(u.values[0], u0(grid.points))


def test_represent_pointwise_rejects_bad_jacobian():
    spec = field("zero")
    grid = make_seed_grid(1.0, 8, 1)
    back = integrate_flow(spec, grid, 4, "backward")
    track = jacobian(spec, back)
    object.__setattr__(track, "jx", track.jx * 0.0)
    with pytest.raises(JacobianVanishedError):
        represent_pointwise(u0_fn("bump"), back, track,
                            damping_integral(damping("zero"), back, 0.0))


# --- pushforward representation -------------------------------------------------

def test_pushforward_mass_conserved_divergence_free():
    # c = 0: particle weights never change, total mass is exactly conserved
    spec = field("rotation", d=2, T=math.pi / 2)
    u0 = u0_fn("bump", d=2)
    grid = make_seed_grid(1.0, 64, 2)
    fl = integrate_flow(spec, grid, 64, "forward")
    acc = damping_integral(damping("zero", d=2), fl, 0.0)
    m0 = pushforward_total_mass(u0, grid, acc, time_index=0)
    m1 = pushforward_total_mass(u0, grid, acc, time_index=-1)
    assert m0 == m1


def test_pushforward_exponential_mass():
    # c = 1, b = 0: total transported mass is e^t times the initial mass
    spec = field("zero")
    u0 = u0_fn("bump")
    grid = make_seed_grid(1.0, 256, 1)
    fl = integrate_flow(spec, grid, 32, "forward")
    acc = damping_integral(damping("constant_one"), fl, 0.0)
    m0 = pushforward_total_mass(u0, grid, acc, time_index=0)
    m1 = pushforward_total_mass(u0, grid, acc, time_index=-1)
    assert abs(m1 - math.e * m0) <= 1e-10 * abs(m0)


def test_pushforward_deposit_conserves_weights():
    spec = field("linear_contract")
    u0 = u0_fn("bump")
    grid = make_seed_grid(1.0, 256, 1)
    fl = integrate_flow(spec, grid, 64, "forward")
    acc = damping_integral(damping("zero"), fl, 0.0)
    target = TargetGrid(radius=1.5, cells_per_axis=128, dimension=1)
    rep = represent_pushforward(u0, fl, acc, target)
    deposited = np.sum(rep.values[0]) * target.cell_volume
    total = pushforward_total_mass(u0, grid, acc, time_index=-1)
    assert rep.out_of_domain_fraction <= 1e-15
    assert deposited == pytest.approx(total, rel=1e-13)


def test_pushforward_initial_slice_reproduces_u0():
    # particles start at cell centers of a matching grid: the deposition
    # returns u0 exactly on seeds at t = 0
    spec = field("zero")
    u0 = u0_fn("bump")
    grid = make_seed_grid(1.5, 128, 1)
    fl = integrate_flow(spec, grid, 4, "forward")
    acc = damping_integral(damping("zero"), fl, 0.0)
    target = TargetGrid(radius=1.5, cells_per_axis=128, dimension=1)
    rep = represent_pushforward(u0, fl, acc, target, time_index=0)
    assert np.max(np.abs(rep.values[0] - u0(target.centers()))) <= 1e-13


def test_pushforward_reports_out_of_domain():
    spec = field("linear_expand")
    grid = make_seed_grid(1.0, 128, 1)
    fl = integrate_flow(spec, grid, 64, "forward")
    acc = damping_integral(damping("zero"), fl, 0.0)
    target = TargetGrid(radius=1.0, cells_per_axis=64, dimension=1)  # too small
    rep = represent_pushforward(lambda x: np.ones(np.asarray(x).shape[:-1]),
                                fl, acc, target)
    assert rep.out_of_domain_fraction > 0.1


def test_representation_equivalence_first_order():
    # two discretizations of one formula: L1 gap shrinks at >= 1st order once
    # the particle count per deposition cell grows under refinement (a fixed
    # particles-per-cell ratio leaves a constant cloud-in-cell aliasing bias)
    spec = field("linear_expand")
    u0 = u0_fn("bump")
    gaps = []
    for cells, seed_factor in ((64, 4), (128, 8), (256, 16)):
        target = TargetGrid(radius=3.0, cells_per_axis=cells, dimension=1)
        seeds = make_seed_grid(1.0, seed_factor * cells, 1)
        fl = integrate_flow(spec, seeds, 128, "forward")
        acc = damping_integral(damping("zero"), fl, 0.0)
        push = represent_pushforward(u0, fl, acc, target)
        eval_grid = seeds_from_points(target.centers(), target.cell_volume)
        point = pointwise_solution(spec, damping("zero"), u0, eval_grid,
                                   np.array([0.0, 1.0]), steps=128)
        gaps.append(float(np.sum(np.abs(push.values[0] - point.values[-1]))
                          * target.cell_volume))
    assert gaps[-1] < gaps[0]
    order = np.log2(gaps[0] / gaps[-1]) / 2.0
    assert order >= 1.0


# --- integrability probe --------------------------------------------------------

def test_probe_bounded_damping_convergent():
    rep = integrability_probe(u0_fn("bump"), damping("box_indicator"), 1.0,
                              [10.0 ** (-k) for k in range(2, 11)])
    assert rep.verdict == "convergent"


def test_probe_zero_damping_recovers_mass():
    u0 = u0_fn("indicator_unit")
    rep = integrability_probe(u0, damping("zero"), 1.0,
                              [10.0 ** (-k) for k in range(2, 12)])
    assert rep.verdict == "convergent"
    # I_eta -> integral of u0 over (0,1), which is 1
    assert rep.integrals[-1] == pytest.approx(1.0, abs=1e-6)


def test_probe_counterexample_divergent():
    # substitution s = x^(-1/2): integral of e^{t s} 2 s^{-3} ds diverges
    rep = integrability_probe(u0_fn("indicator_unit"), damping("inv_sqrt"), 1.0,
                              [1e-2, 1e-3, 1e-4])
    assert rep.verdict == "divergent"
    assert all(r >= 10.0 for r in rep.growth_ratios)


def test_probe_truncated_integrals_match_substitution_oracle():
    # independent quadrature of the substituted integrand on (1, eta^{-1/2})
    from scipy.integrate import quad

    rep = integrability_probe(u0_fn("indicator_unit"), damping("inv_sqrt"), 1.0,
                              [1e-2, 1e-4])
    for eta, value in zip(rep.etas, rep.integrals):
        hi = eta ** -0.5
        oracle, _ = quad(lambda s: np.exp(s) * 2.0 / s**3, 1.0, hi,
                         points=np.linspace(1.0, hi, 20), limit=400)
        assert value == pytest.approx(oracle, rel=1e-9)
