"""Solution representations: damping integrals, both formulas, the probe."""

import math
import tracemalloc

import numpy as np
import pytest

from rough_transport.errors import (AllTruncatedError, JacobianVanishedError,
                                    NonFiniteDampingError)
from rough_transport.fields import DampingFieldSpec, PointSingularity, VelocityFieldSpec
from rough_transport.flow import integrate_flow, jacobian, make_seed_grid, seeds_from_points
from rough_transport import representation
from rough_transport.representation import (_CHUNK_BYTES, DensityRepresentation,
                                            TargetGrid, damping_integral,
                                            integrability_probe, make_quadrature,
                                            pointwise_solution, pushforward_total_mass,
                                            represent_pointwise, represent_pushforward)
from conftest import damping, field, u0_fn, unit_damping


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
    acc = damping_integral(unit_damping(), fl, eta=0.0)
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
    vals = represent_pointwise(u0, spec, damping("zero"), back, 0.0)
    assert np.array_equal(vals, u0(grid.points))


def test_represent_pointwise_pure_damping_formula():
    # u(t, x) = u0(x) e^{t c(x)} for b = 0 (the closed-form damped solution)
    spec = field("zero")
    dmp = damping("box_indicator")
    u0 = u0_fn("bump")
    grid = make_seed_grid(2.0, 128, 1)
    back = integrate_flow(spec, grid, 32, "backward")
    vals = represent_pointwise(u0, spec, dmp, back, 0.0)
    cvals = dmp.eval_c(0.0, grid.points)
    exact = u0(grid.points) * np.exp(1.0 * cvals)
    assert np.max(np.abs(vals - exact)) <= 1e-12


def test_represent_pointwise_linear_flow():
    # b = x: u(t, x) = u0(x e^{-t}) e^{-t}; at t=1, x=e this is u0(1)/e
    spec = field("linear_expand")
    u0 = u0_fn("bump")
    pt = seeds_from_points([[math.e]])
    back = integrate_flow(spec, pt, 1000, "backward")
    vals = represent_pointwise(u0, spec, damping("zero"), back, 0.0)
    assert vals[0] == pytest.approx(u0(np.array([[1.0]]))[0] / math.e, rel=1e-10)


def _nan_damping(singular_set=()):
    # c = 1, but NaN for x > 0.5
    return DampingFieldSpec(
        eval_c=lambda t, x: np.where(np.asarray(x)[..., 0] > 0.5, np.nan, 1.0),
        singular_set=singular_set)


def test_damping_integral_rejects_nan_damping():
    _, fl = _identity_flow(steps=8, cells=8)
    with pytest.raises(NonFiniteDampingError):
        damping_integral(_nan_damping(), fl, eta=0.0)
    # NaN inside the cut-off is never read: eta = 0.25 around 0.75 covers the
    # NaN region (0.5, 1], which x = 0.6 e^{-t} leaves at t = log 1.2
    fl = integrate_flow(field("linear_contract"), seeds_from_points([[0.6], [0.2]]),
                        32, "forward")
    acc = damping_integral(_nan_damping((PointSingularity((0.75,)),)), fl, eta=0.25)
    assert np.all(np.isfinite(acc.values))
    assert 0 < acc.truncated_nodes[0] < 32 and acc.truncated_nodes[1] == 0


def test_pointwise_solution_rejects_nan_damping():
    with pytest.raises(NonFiniteDampingError):
        pointwise_solution(field("linear_expand"), _nan_damping(), u0_fn("bump"),
                           make_seed_grid(1.0, 8, 1), np.linspace(0.0, 1.0, 5),
                           steps=16)


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
                                          times, steps=64))
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
        truncated += int(np.sum(damping_integral(dmp, back, eta).truncated_nodes))
        vals.append(represent_pointwise(u0, spec, dmp, back, eta))
    return np.array(vals), truncated


def test_pointwise_solution_matches_per_slice_composition(monkeypatch):
    # slice k takes round(1000 k / 48) steps, so step counts grow unevenly by
    # 20 or 21; at a 2 MiB budget the slices fill several chunks of several
    # slices each (the 8 MiB default would need a 4x larger problem)
    monkeypatch.setattr(representation, "_CHUNK_BYTES", 1 << 21)
    spec = field("linear_expand")
    dmp = damping("box_indicator")
    u0 = u0_fn("bump")
    grid = make_seed_grid(1.0, 64, 1)
    times = np.linspace(0.0, 1.0, 49)
    assert 1001 * 64 * 48 * 8 > 4 * representation._CHUNK_BYTES
    u = pointwise_solution(spec, dmp, u0, grid, times, steps=1000)
    ref, _ = _per_slice_reference(spec, dmp, u0, grid, times, 1000, 0.0)
    assert np.array_equal(u, ref)


@pytest.mark.parametrize("field_id, radius, n_space, n_time, steps", [
    ("zero", 2.0, 256, 256, 256),             # identity/weak_residual
    ("linear_expand", 1.0, 128, 48, 1000),    # linear_expand/l2_energy
])
def test_pointwise_solution_holds_one_chunk_at_a_time(field_id, radius, n_space,
                                                      n_time, steps):
    # the build spans several chunks; a chunk's path is freed before the next
    # sweep allocates, so the traced peak stays under two chunk budgets plus
    # the result
    spec = field(field_id)
    grid = make_seed_grid(radius, n_space, 1)
    times = np.linspace(0.0, 1.0, n_time + 1)
    result_bytes = times.size * n_space * 8
    path_bytes = sum((max(1, round(steps * t)) + 1) * n_space * 8 for t in times[1:])
    assert path_bytes > 2 * _CHUNK_BYTES
    tracemalloc.start()
    try:
        u = pointwise_solution(spec, damping("zero"), u0_fn("bump"), grid, times,
                               steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert u.nbytes == result_bytes
    assert peak <= 2 * _CHUNK_BYTES + result_bytes


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
    assert np.array_equal(u, ref)


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
    assert u == pytest.approx(exact, rel=1e-8)
    ref, _ = _per_slice_reference(spec, dmp, u0, grid, times, 200, 0.0)
    assert np.array_equal(u, ref)


def test_pointwise_solution_batches_autonomous_b_with_time_dependent_c(monkeypatch):
    # the shared sweep integrates only b; c = 1 + t is sampled per slice on
    # that slice's own time grid, so the batched build stays bitwise exact
    spec = field("linear_expand")
    dmp = DampingFieldSpec(
        eval_c=lambda t, x: np.full(np.asarray(x).shape[:-1], 1.0 + t),
        autonomous=False)
    u0 = u0_fn("bump")
    grid = make_seed_grid(1.0, 32, 1)
    times = np.linspace(0.0, 1.0, 9)
    ref, _ = _per_slice_reference(spec, dmp, u0, grid, times, 200, 0.0)

    def per_slice(*args, **kwargs):
        raise AssertionError("an autonomous b must take the batched sweep")
    monkeypatch.setattr(representation, "integrate_flow", per_slice)
    u = pointwise_solution(spec, dmp, u0, grid, times, steps=200)
    assert np.array_equal(u, ref)


def test_pointwise_solution_initial_slice_exact():
    spec = field("linear_expand")
    u0 = u0_fn("bump")
    grid = make_seed_grid(1.0, 64, 1)
    u = pointwise_solution(spec, damping("zero"), u0, grid,
                           np.linspace(0.0, 1.0, 9), steps=64)
    assert np.array_equal(u[0], u0(grid.points))


def test_represent_pointwise_rejects_bad_jacobian():
    # div b = -800 within its bound 800: the path integral is -800 at t = 1,
    # so JX = exp(-800) underflows to 0 and the formula would divide by it
    spec = VelocityFieldSpec(
        dimension=1, eval_b=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        eval_div_b=lambda t, x: np.full(np.asarray(x).shape[:-1], -800.0),
        regularity_tag="smooth", div_sup=lambda t: 800.0, horizon=1.0)
    back = integrate_flow(spec, make_seed_grid(1.0, 8, 1), 4, "backward")
    assert jacobian(spec, back).jx[0, -1] == 0.0
    with pytest.raises(JacobianVanishedError):
        represent_pointwise(u0_fn("bump"), spec, damping("zero"), back, 0.0)


def test_density_rejects_values_off_its_quadrature():
    quad = make_quadrature(1, 1.0, 8, 1.0, 4)
    DensityRepresentation(quad, np.zeros((5, 8)))
    for shape in ((5, 7), (4, 8), (8, 5), (40,)):
        with pytest.raises(ValueError, match="do not fit"):
            DensityRepresentation(quad, np.zeros(shape))


# --- pushforward representation -------------------------------------------------

def test_pushforward_mass_conserved_divergence_free():
    # c = 0: particle weights never change, total mass is exactly conserved
    spec = field("rotation", d=2, T=math.pi / 2)
    u0 = u0_fn("bump", d=2)
    grid = make_seed_grid(1.0, 64, 2)
    fl = integrate_flow(spec, grid, 64, "forward")
    acc = damping_integral(damping("zero", d=2), fl, 0.0)
    m0 = pushforward_total_mass(u0, acc, time_index=0)
    m1 = pushforward_total_mass(u0, acc, time_index=-1)
    assert m0 == m1


def test_pushforward_exponential_mass():
    # c = 1, b = 0: total transported mass is e^t times the initial mass
    spec = field("zero")
    u0 = u0_fn("bump")
    grid = make_seed_grid(1.0, 256, 1)
    fl = integrate_flow(spec, grid, 32, "forward")
    acc = damping_integral(unit_damping(), fl, 0.0)
    m0 = pushforward_total_mass(u0, acc, time_index=0)
    m1 = pushforward_total_mass(u0, acc, time_index=-1)
    assert abs(m1 - math.e * m0) <= 1e-10 * abs(m0)


def test_pushforward_deposit_conserves_weights():
    spec = field("linear_contract")
    u0 = u0_fn("bump")
    grid = make_seed_grid(1.0, 256, 1)
    fl = integrate_flow(spec, grid, 64, "forward")
    acc = damping_integral(damping("zero"), fl, 0.0)
    target = TargetGrid(radius=1.5, cells_per_axis=128, dimension=1)
    values, out_frac = represent_pushforward(u0, acc, target)
    deposited = np.sum(values) * target.cell_volume
    total = pushforward_total_mass(u0, acc, time_index=-1)
    assert out_frac <= 1e-15
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
    values, _ = represent_pushforward(u0, acc, target, time_index=0)
    assert np.max(np.abs(values - u0(target.centers()))) <= 1e-13


def test_pushforward_reports_out_of_domain():
    spec = field("linear_expand")
    grid = make_seed_grid(1.0, 128, 1)
    fl = integrate_flow(spec, grid, 64, "forward")
    acc = damping_integral(damping("zero"), fl, 0.0)
    target = TargetGrid(radius=1.0, cells_per_axis=64, dimension=1)  # too small
    _, out_frac = represent_pushforward(lambda x: np.ones(np.asarray(x).shape[:-1]),
                                        acc, target)
    assert out_frac > 0.1


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
        push, _ = represent_pushforward(u0, acc, target)
        eval_grid = seeds_from_points(target.centers(), target.cell_volume)
        point = pointwise_solution(spec, damping("zero"), u0, eval_grid,
                                   np.array([0.0, 1.0]), steps=128)
        gaps.append(float(np.sum(np.abs(push - point[-1]))
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
