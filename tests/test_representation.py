"""Solution representations: damping integrals, both formulas, the probe."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from rough_transport.errors import (AllTruncatedError, DivergenceUnboundedError,
                                    JacobianVanishedError, NonFiniteDampingError)
from rough_transport.fields import DampingFieldSpec, VelocityFieldSpec
from rough_transport.flow import forward_summary, make_seed_grid, seeds_from_points
from rough_transport.numerics import CellGrid, stable_sum
from rough_transport import flow, representation
from rough_transport.flow import _CHUNK_BYTES
from rough_transport.representation import (DensityRepresentation, _cic_deposit,
                                            integrability_probe, make_quadrature,
                                            pointwise_solution, represent_pushforward)
from conftest import damping, field, long_linear_flow, traced_bytes, u0_fn, unit_damping
from reference import damping_integral, integrate_flow, jacobian


def _identity_flow(steps=16, cells=64, radius=1.0, d=1, T=1.0):
    spec = field("zero", d=d, T=T)
    grid = make_seed_grid(radius, cells, d)
    return spec, integrate_flow(spec, grid, steps, "forward")


# --- damping path integrals ---------------------------------------------------

def test_damping_integral_zero():
    fwd = forward_summary(field("zero"), make_seed_grid(1.0, 64, 1), 16,
                          damping=damping("zero"))
    assert np.all(fwd.damping_end == 0.0)


def test_damping_integral_constant():
    # b = 0 and constant c: D(t, x) = c0 t
    grid = make_seed_grid(1.0, 64, 1)
    for T in (0.5, 1.0, 2.0):
        fwd = forward_summary(field("zero", T=T), grid, 10, damping=unit_damping())
        assert np.max(np.abs(fwd.damping_end - T)) <= 1e-14


def test_damping_integral_inv_sqrt_mass():
    # analytic: integral over (0,1) x [-1,1] of |x|^(-1/2) is 4
    errors = []
    for cells in (128, 256, 512, 1024):
        grid = make_seed_grid(1.0, cells, 1)
        fwd = forward_summary(field("zero"), grid, 8,
                              damping=dataclasses.replace(damping("inv_sqrt"), eta=1e-12))
        total_l1 = float(np.sum(fwd.damping_end)) * grid.cell_volume
        errors.append(abs(total_l1 - 4.0) / 4.0)
    assert errors[-1] <= 0.02
    assert errors[-1] < errors[0]
    # compressibility bound: C(X) = 1 for the identity flow, 20% grid slack
    assert total_l1 <= 1.0 * 4.0 * 1.2


def test_damping_integral_keeps_one_table():
    # the L1 mass is summed on the way: only the values table outlives the call
    _, fl, table = long_linear_flow()
    acc, kept, _ = traced_bytes(lambda: damping_integral(damping("box_indicator"), fl))
    assert acc.total_l1 > 0.0
    assert kept <= 1.1 * table


def test_damping_integral_counts_truncated_nodes():
    # contraction drags seeds into the eta-ball partway through the window
    spec = field("linear_contract")
    fl = integrate_flow(spec, seeds_from_points([[0.3], [0.9]]), 32, "forward")
    acc = damping_integral(dataclasses.replace(damping("inv_sqrt"), eta=0.15), fl)
    assert 0 < acc.truncated_nodes[0] < fl.time_grid.size
    assert acc.truncated_nodes[1] < acc.truncated_nodes[0]


def test_damping_integral_all_truncated():
    spec = field("zero")
    fl = integrate_flow(spec, seeds_from_points([[0.0]]), 4, "forward")
    with pytest.raises(AllTruncatedError):
        damping_integral(dataclasses.replace(damping("inv_sqrt"), eta=0.5), fl)


def _time_dependent_damping():
    # c = (1 + t) cos(3x): a c that changes along the path and in time
    return DampingFieldSpec(
        eval_c=lambda t, x: (1.0 + t) * np.cos(3.0 * np.asarray(x)[..., 0]),
        autonomous=False)


# b = -x carries the seeds across the unit ball's boundary, and the two
# innermost, at +-0.023, into the eta-ball around the inv_sqrt singularity
# from t = 0.85 on
_DAMPINGS = {
    "box_indicator": lambda: damping("box_indicator"),
    "inv_sqrt": lambda: dataclasses.replace(damping("inv_sqrt"), eta=1e-2),
    "time_dependent": _time_dependent_damping,
}


@pytest.mark.parametrize("case", sorted(_DAMPINGS))
def test_forward_summary_damping_end_bitwise_equals_reference(case, monkeypatch):
    # the default budget takes the sweep in one block, 64 KiB in 29 blocks
    # of 7 steps and a last one of 4
    spec, grid, steps = field("linear_contract"), make_seed_grid(1.5, 64, 1), 200
    dmp = _DAMPINGS[case]()
    acc = damping_integral(dmp, integrate_flow(spec, grid, steps, "forward"))
    if case == "inv_sqrt":      # the cut-off bites partway along some paths
        assert 0 < np.max(acc.truncated_nodes) < steps + 1
    for budget in (flow._CHUNK_BYTES, 1 << 16):
        monkeypatch.setattr(flow, "_CHUNK_BYTES", budget)
        fwd = forward_summary(spec, grid, steps, damping=dmp)
        assert np.array_equal(fwd.damping_end, acc.values[:, -1]), budget


@pytest.mark.parametrize("budget", [None, 1])
def test_forward_summary_all_truncated_names_the_seed(budget, monkeypatch):
    # b = -x: seed 1 starts in the eta-ball and never leaves it; seed 2
    # enters it at t = log 2 and seed 0 never does. A seed is cut off
    # entirely only when every block cuts it, here of one step each
    if budget is not None:
        monkeypatch.setattr(flow, "_CHUNK_BYTES", budget)
    spec = field("linear_contract")
    dmp = dataclasses.replace(damping("inv_sqrt"), eta=0.15)
    with pytest.raises(AllTruncatedError, match="trajectory 1 "):
        forward_summary(spec, seeds_from_points([[0.9], [0.1], [0.3]]), 32, damping=dmp)
    fwd = forward_summary(spec, seeds_from_points([[0.9], [0.3]]), 32, damping=dmp)
    assert np.all(fwd.damping_end > 0.0)


# --- pointwise representation ---------------------------------------------------

def test_pointwise_solution_identity():
    spec = field("zero")
    u0 = u0_fn("bump")
    grid = make_seed_grid(1.0, 128, 1)
    vals = pointwise_solution(spec, damping("zero"), u0, grid, np.array([0.0, 1.0]), 16)[-1]
    assert np.array_equal(vals, u0(grid.points))


def test_pointwise_solution_pure_damping_formula():
    # u(t, x) = u0(x) e^{t c(x)} for b = 0 (the closed-form damped solution)
    spec = field("zero")
    dmp = damping("box_indicator")
    u0 = u0_fn("bump")
    grid = make_seed_grid(2.0, 128, 1)
    vals = pointwise_solution(spec, dmp, u0, grid, np.array([0.0, 1.0]), 32)[-1]
    cvals = dmp.eval_c(0.0, grid.points)
    exact = u0(grid.points) * np.exp(1.0 * cvals)
    assert np.max(np.abs(vals - exact)) <= 1e-12


def test_pointwise_solution_linear_flow():
    # b = x: u(t, x) = u0(x e^{-t}) e^{-t}; at t=1, x=e this is u0(1)/e
    spec = field("linear_expand")
    u0 = u0_fn("bump")
    pt = seeds_from_points([[math.e]])
    vals = pointwise_solution(spec, damping("zero"), u0, pt, np.array([0.0, 1.0]), 1000)[-1]
    assert vals[0] == pytest.approx(u0(np.array([[1.0]]))[0] / math.e, rel=1e-10)


def test_pointwise_solution_linear_expand_matches_closed_form():
    # b = x, c = 0: u(t, x) = u0(x e^{-t}) e^{-t} on every slice. The 16
    # slices take 16, 32, ..., 256 steps of 1/256 each; a slice step of
    # anchor / (count + 1) is off by 1.9e-3
    spec, u0 = field("linear_expand"), u0_fn("bump")
    grid = make_seed_grid(1.0, 128, 1)
    times = np.linspace(0.0, 1.0, 17)
    vals = pointwise_solution(spec, damping("zero"), u0, grid, times, steps=256)
    exact = np.stack([u0(grid.points * math.exp(-t)) * math.exp(-t) for t in times])
    assert np.max(np.abs(vals - exact)) <= 1e-10


def _nan_damping(singular_point=None, eta=0.0):
    # c = 1, but NaN for x > 0.5
    return DampingFieldSpec(
        eval_c=lambda t, x: np.where(np.asarray(x)[..., 0] > 0.5, np.nan, 1.0),
        singular_point=singular_point, eta=eta)


def test_damping_integral_rejects_nan_damping():
    _, fl = _identity_flow(steps=8, cells=8)
    with pytest.raises(NonFiniteDampingError):
        damping_integral(_nan_damping(), fl)
    # NaN inside the cut-off is never read: eta = 0.25 around 0.75 covers the
    # NaN region (0.5, 1], which x = 0.6 e^{-t} leaves at t = log 1.2
    fl = integrate_flow(field("linear_contract"), seeds_from_points([[0.6], [0.2]]),
                        32, "forward")
    acc = damping_integral(_nan_damping((0.75,), eta=0.25), fl)
    assert np.all(np.isfinite(acc.values))
    assert 0 < acc.truncated_nodes[0] < 32 and acc.truncated_nodes[1] == 0


def test_forward_summary_rejects_nan_damping():
    with pytest.raises(NonFiniteDampingError):
        forward_summary(field("zero"), make_seed_grid(1.0, 8, 1), 8,
                        damping=_nan_damping())
    # the NaN region the cut-off covers is never read, as in the reference
    spec, seeds = field("linear_contract"), seeds_from_points([[0.6], [0.2]])
    dmp = _nan_damping((0.75,), eta=0.25)
    fwd = forward_summary(spec, seeds, 32, damping=dmp)
    acc = damping_integral(dmp, integrate_flow(spec, seeds, 32, "forward"))
    assert np.all(np.isfinite(fwd.damping_end))
    assert np.array_equal(fwd.damping_end, acc.values[:, -1])


def test_pointwise_solution_rejects_nan_damping():
    with pytest.raises(NonFiniteDampingError):
        pointwise_solution(field("linear_expand"), _nan_damping(), u0_fn("bump"),
                           make_seed_grid(1.0, 8, 1), np.linspace(0.0, 1.0, 5),
                           steps=16)


def test_pointwise_solution_two_builds_bitwise_equal(monkeypatch):
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


def _per_slice_reference(spec, dmp, u0, grid, times, steps):
    """pointwise_solution composed slice by slice from the public steps.

    Each slice integrates its own backward flow, builds the full Jacobian and
    damping tables along it and applies u0(X^{-1}) / JX * exp(D). Returns the
    values and the number of truncated damping nodes.
    """
    vals = [np.asarray(u0(grid.points), dtype=float)]
    truncated = 0
    for t in times[1:]:
        sub_steps = max(1, int(round(steps * t / spec.horizon)))
        back = integrate_flow(spec, grid, sub_steps, "backward", anchor_time=t)
        jx = jacobian(spec, back).jx[:, -1]
        acc = damping_integral(dmp, back)
        truncated += int(np.sum(acc.truncated_nodes))
        vals.append(np.asarray(u0(back.inverse_samples), dtype=float) / jx
                    * np.exp(acc.values[:, -1]))
    return np.array(vals), truncated


def test_pointwise_solution_matches_per_slice_composition(monkeypatch):
    # slice k takes round(1000 k / 48) steps, so step counts grow unevenly by
    # 20 or 21; at a 2 MiB budget the slices fill several chunks of several
    # slices each (the 8 MiB default would need a 4x larger problem)
    monkeypatch.setattr(flow, "_CHUNK_BYTES", 1 << 21)
    spec = field("linear_expand")
    dmp = damping("box_indicator")
    u0 = u0_fn("bump")
    grid = make_seed_grid(1.0, 64, 1)
    times = np.linspace(0.0, 1.0, 49)
    assert 1001 * 64 * 48 * 8 > 4 * flow._CHUNK_BYTES
    u = pointwise_solution(spec, dmp, u0, grid, times, steps=1000)
    ref, _ = _per_slice_reference(spec, dmp, u0, grid, times, 1000)
    assert np.array_equal(u, ref)


_DENSITY_BUILDS = [
    ("zero", 2.0, 256, 256, 256),             # identity/weak_residual
    ("linear_expand", 1.0, 128, 48, 1000),    # linear_expand/l2_energy
]


@pytest.mark.parametrize("field_id, radius, n_space, n_time, steps", _DENSITY_BUILDS + [
    # one path and its sample table fill a chunk between them
    ("linear_expand", 1.0, 512, 64, 1000),
])
def test_pointwise_solution_holds_one_chunk_at_a_time(field_id, radius, n_space,
                                                      n_time, steps):
    # the build spans several chunks; every chunk writes its sweep into one
    # buffer sized to the largest, so the traced peak stays under two chunk
    # budgets plus the result
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


@pytest.mark.parametrize("field_id, radius, n_space, n_time, steps", _DENSITY_BUILDS)
def test_pointwise_solution_independent_of_chunk_size(monkeypatch, field_id, radius,
                                                      n_space, n_time, steps):
    # 1 MiB holds one linear_expand path per chunk, 64 MiB all 31 of them
    spec = field(field_id)
    grid = make_seed_grid(radius, n_space, 1)
    times = np.linspace(0.0, 1.0, n_time + 1)
    results = []
    for mib in (1, 8, 64):
        monkeypatch.setattr(flow, "_CHUNK_BYTES", mib << 20)
        results.append(pointwise_solution(
            spec, dataclasses.replace(damping("inv_sqrt"), eta=1e-3), u0_fn("bump"),
            grid, times, steps))
    assert all(np.array_equal(results[0], u) for u in results[1:])


def test_pointwise_solution_matches_per_slice_on_one_shared_path():
    # every slice steps by h = (k/64) / (4k) = 1/256, so all 64 slices are
    # prefixes of one backward path; b = x pulls it into the eta-ball
    spec = field("linear_expand")
    dmp = dataclasses.replace(damping("inv_sqrt"), eta=0.05)
    u0 = u0_fn("bump")
    grid = make_seed_grid(1.0, 16, 1)
    times = np.linspace(0.0, 1.0, 65)
    assert {t / round(256 * t) for t in times[1:]} == {1.0 / 256}
    u = pointwise_solution(spec, dmp, u0, grid, times, steps=256)
    ref, truncated = _per_slice_reference(spec, dmp, u0, grid, times, 256)
    assert truncated > 0
    assert np.array_equal(u, ref)


def test_pointwise_solution_integrates_and_samples_a_shared_path_once():
    calls = {"b": 0, "div": 0, "c": 0}

    def counted(key, fn):
        def call(t, x):
            calls[key] += 1
            return fn(t, x)
        return call

    zero, unit = field("zero"), unit_damping()
    spec = dataclasses.replace(zero, eval_b=counted("b", zero.eval_b),
                               eval_div_b=counted("div", zero.eval_div_b))
    dmp = dataclasses.replace(unit, eval_c=counted("c", unit.eval_c))
    grid = make_seed_grid(1.0, 8, 1)
    u = pointwise_solution(spec, dmp, u0_fn("bump"), grid, np.linspace(0.0, 1.0, 65),
                           steps=256)
    # one RK4 sweep of 256 steps, four stages each, for all 64 slices
    assert calls == {"b": 4 * 256, "div": 1, "c": 1}
    assert np.array_equal(u[-1], u0_fn("bump")(grid.points) * math.e)


def test_pointwise_solution_all_truncated_on_short_slices_of_a_shared_path():
    # b = -x: the backward path from 0.04 grows as 0.04 e^s and leaves the
    # eta-ball only at s = log 1.25 ~ 0.22, so the slice at t = 1/8 lies in
    # it entirely while every longer slice of the same path does not
    seeds = seeds_from_points([[0.04], [0.5]])
    with pytest.raises(AllTruncatedError, match="trajectory 0 "):
        pointwise_solution(field("linear_contract"),
                           dataclasses.replace(damping("inv_sqrt"), eta=0.05),
                           u0_fn("bump"), seeds, np.linspace(0.0, 1.0, 9), steps=64)


def test_pointwise_solution_matches_per_slice_truncated():
    # b = x pulls the backward paths into the eta-ball around the singularity
    spec = field("linear_expand")
    dmp = dataclasses.replace(damping("inv_sqrt"), eta=0.05)
    u0 = u0_fn("bump")
    grid = make_seed_grid(1.0, 16, 1)
    times = np.linspace(0.0, 1.0, 9)
    u = pointwise_solution(spec, dmp, u0, grid, times, steps=64)
    ref, truncated = _per_slice_reference(spec, dmp, u0, grid, times, 64)
    assert truncated > 0
    assert np.array_equal(u, ref)


# --- live rows: only a path whose integrand is nonzero is summed ---------------

def _negative_zero_damping():
    # c = 1 right of 0 and -0.0 left of it; b = x keeps each backward path
    # on its side. The -0.0 terms summed from 0.0 give +0.0
    return DampingFieldSpec(
        eval_c=lambda t, x: np.where(np.asarray(x)[..., 0] > 0.0, 1.0, -0.0))


def _time_dependent_core_damping():
    # c = 1 + t on |x| < 1/2 and 0 outside: b = x pulls each backward path
    # toward 0, so a slice's live rows depend on its own time grid
    return DampingFieldSpec(
        eval_c=lambda t, x: np.where(np.abs(np.asarray(x)[..., 0]) < 0.5, 1.0 + t, 0.0),
        autonomous=False)


_DEAD_ROW_BUILDS = {
    # div b and c vanish outside B_1, so the rows of the box of radius 2
    # outside it are dead in both passes
    "compact_bump_box": lambda: (field("compact_bump"), damping("box_indicator")),
    "negative_zero": lambda: (field("linear_expand"), _negative_zero_damping()),
    "time_dependent_c": lambda: (field("linear_expand"), _time_dependent_core_damping()),
}


@pytest.mark.parametrize("case", sorted(_DEAD_ROW_BUILDS))
def test_pointwise_solution_with_dead_rows_matches_per_slice(case):
    # u0 vanishes nowhere, so every row's integral reaches the result
    spec, dmp = _DEAD_ROW_BUILDS[case]()
    u0 = lambda x: np.exp(-np.sum(np.asarray(x) ** 2, axis=-1))  # noqa: E731
    grid = make_seed_grid(2.0, 64, 1)
    times = np.linspace(0.0, 1.0, 17)
    u = pointwise_solution(spec, dmp, u0, grid, times, steps=128)
    ref, _ = _per_slice_reference(spec, dmp, u0, grid, times, 128)
    assert np.array_equal(u, ref)


def _cumsum_rows(monkeypatch):
    """The row count of every 2-D np.cumsum call from now on."""
    rows, real = [], np.cumsum

    def counting(a, *args, **kwargs):
        if np.ndim(a) == 2:
            rows.append(np.shape(a)[0])
        return real(a, *args, **kwargs)
    monkeypatch.setattr(np, "cumsum", counting)
    return rows


def test_pointwise_solution_sums_only_live_rows(monkeypatch):
    grid = make_seed_grid(2.0, 64, 1)
    times = np.linspace(0.0, 1.0, 17)
    rows = _cumsum_rows(monkeypatch)
    # the identity build, b = 0 and c = 0: no row is ever summed
    u = pointwise_solution(field("zero"), damping("zero"), u0_fn("bump"), grid, times,
                           steps=64)
    assert rows == []
    assert np.array_equal(u[-1], u0_fn("bump")(grid.points))
    # c = 1 on B_1 with b = 0: only the paths that sit in B_1 are summed,
    # and only in the damping pass
    inside = int(np.count_nonzero(np.abs(grid.points[:, 0]) <= 1.0))
    assert 0 < inside < grid.points.shape[0]
    pointwise_solution(field("zero"), damping("box_indicator"), u0_fn("bump"), grid,
                       times, steps=64)
    assert rows and set(rows) == {inside}


def test_pointwise_solution_nan_divergence_on_one_row_raises():
    # b = 0 keeps the seeds in place; div b is NaN at the seed 0.375 only,
    # so that row is live and its NaN integral fails the bound L = 0
    zero = field("zero")
    # (the zero field declares a divergence constant in x; this one reads x)
    spec = dataclasses.replace(
        zero, eval_div_b=lambda t, x: np.where(np.asarray(x)[..., 0] == 0.375, np.nan, 0.0),
        div_reads=None)
    grid = make_seed_grid(1.0, 8, 1)
    assert np.any(grid.points[:, 0] == 0.375)
    with pytest.raises(DivergenceUnboundedError):
        pointwise_solution(spec, damping("zero"), u0_fn("bump"), grid,
                           np.linspace(0.0, 1.0, 5), steps=16)


def test_pointwise_solution_time_dependent():
    # b = t x and c = t: X^{-1}(t, x) = x e^{-t^2/2}, JX = e^{t^2/2} cancels
    # exp(int c), so u(t, x) = u0(x e^{-t^2/2})
    spec = VelocityFieldSpec(
        dimension=1, eval_b=lambda t, x: t * np.asarray(x, dtype=float),
        eval_div_b=lambda t, x: np.full(np.asarray(x).shape[:-1], float(t)),
        continuous=True, div_sup=lambda t: abs(t), horizon=1.0,
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
    ref, _ = _per_slice_reference(spec, dmp, u0, grid, times, 200)
    assert np.array_equal(u, ref)


def test_pointwise_solution_sweeps_each_slice_alone_with_time_dependent_c(monkeypatch):
    # c = 1 + t is sampled along each slice's own path on its own time grid,
    # so the build stays bitwise exact
    spec = field("linear_expand")
    dmp = DampingFieldSpec(
        eval_c=lambda t, x: np.full(np.asarray(x).shape[:-1], 1.0 + t),
        autonomous=False)
    u0 = u0_fn("bump")
    grid = make_seed_grid(1.0, 32, 1)
    times = np.linspace(0.0, 1.0, 9)
    ref, _ = _per_slice_reference(spec, dmp, u0, grid, times, 200)

    sweeps = []
    real = flow._rk4_path

    def counting(*args, **kwargs):
        sweeps.append(args[1].shape)
        return real(*args, **kwargs)
    monkeypatch.setattr(flow, "_rk4_path", counting)
    u = pointwise_solution(spec, dmp, u0, grid, times, steps=200)
    assert np.array_equal(u, ref)
    # all 8 slices step by 1/200, but only an autonomous b and c let slices
    # share a path: a c that depends on time takes one sweep per slice
    assert sweeps == [(32, 1)] * 8


def test_pointwise_solution_initial_slice_exact():
    spec = field("linear_expand")
    u0 = u0_fn("bump")
    grid = make_seed_grid(1.0, 64, 1)
    u = pointwise_solution(spec, damping("zero"), u0, grid,
                           np.linspace(0.0, 1.0, 9), steps=64)
    assert np.array_equal(u[0], u0(grid.points))


def test_pointwise_solution_rejects_bad_jacobian():
    # div b = -800 within its bound 800: the path integral is -800 at t = 1,
    # so JX = exp(-800) underflows to 0 and the formula would divide by it
    spec = VelocityFieldSpec(
        dimension=1, eval_b=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        eval_div_b=lambda t, x: np.full(np.asarray(x).shape[:-1], -800.0),
        continuous=True, div_sup=lambda t: 800.0, horizon=1.0)
    grid = make_seed_grid(1.0, 8, 1)
    back = integrate_flow(spec, grid, 4, "backward")
    assert jacobian(spec, back).jx[0, -1] == 0.0
    with pytest.raises(JacobianVanishedError):
        pointwise_solution(spec, damping("zero"), u0_fn("bump"), grid,
                           np.array([0.0, 1.0]), 4)


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
    fwd = forward_summary(spec, grid, 64, damping=damping("zero", d=2))
    assert np.all(fwd.damping_end == 0.0)
    target = CellGrid(radius=1.5, cells_per_axis=96, dimension=2)
    values, out_frac = represent_pushforward(u0, fwd, target)
    m0 = stable_sum(u0(grid.points) * grid.cell_volume)
    assert out_frac <= 1e-15
    assert np.sum(values) * target.cell_volume == pytest.approx(m0, rel=1e-13)


def test_pushforward_exponential_mass():
    # c = 1, b = 0: total transported mass is e^t times the initial mass
    spec = field("zero")
    u0 = u0_fn("bump")
    grid = make_seed_grid(1.0, 256, 1)
    fwd = forward_summary(spec, grid, 32, damping=unit_damping())
    target = CellGrid(radius=1.0, cells_per_axis=256, dimension=1)
    values, _ = represent_pushforward(u0, fwd, target)
    m0 = stable_sum(u0(grid.points) * grid.cell_volume)
    m1 = np.sum(values) * target.cell_volume
    assert abs(m1 - math.e * m0) <= 1e-10 * abs(m0)


def test_pushforward_deposit_conserves_weights():
    spec = field("linear_contract")
    u0 = u0_fn("bump")
    grid = make_seed_grid(1.0, 256, 1)
    fwd = forward_summary(spec, grid, 64, damping=damping("zero"))
    target = CellGrid(radius=1.5, cells_per_axis=128, dimension=1)
    values, out_frac = represent_pushforward(u0, fwd, target)
    deposited = np.sum(values) * target.cell_volume
    total = stable_sum(u0(grid.points) * np.exp(fwd.damping_end) * grid.cell_volume)
    assert out_frac <= 1e-15
    assert deposited == pytest.approx(total, rel=1e-13)


def test_pushforward_initial_slice_reproduces_u0():
    # particles start at cell centers of a matching grid, and b = 0 keeps
    # them there: the deposition returns u0 exactly on the seeds; without
    # a damping the summary carries D = 0
    spec = field("zero")
    u0 = u0_fn("bump")
    grid = make_seed_grid(1.5, 128, 1)
    target = CellGrid(radius=1.5, cells_per_axis=128, dimension=1)
    values, _ = represent_pushforward(u0, forward_summary(spec, grid, 4), target)
    assert np.max(np.abs(values - u0(target.centers()))) <= 1e-13


def test_pushforward_reports_out_of_domain():
    spec = field("linear_expand")
    grid = make_seed_grid(1.0, 128, 1)
    fwd = forward_summary(spec, grid, 64, damping=damping("zero"))
    target = CellGrid(radius=1.0, cells_per_axis=64, dimension=1)  # too small
    _, out_frac = represent_pushforward(lambda x: np.ones(np.asarray(x).shape[:-1]),
                                        fwd, target)
    assert out_frac > 0.1


def test_pushforward_stays_within_the_block_budget_and_matches_full_tables():
    # rotation, 128^2 seeds, 200 steps: the full flow and damping tables
    # would take 79 MiB, the blocked sweep keeps its budget and O(N) per seed
    spec = field("rotation", d=2, T=math.pi / 2)
    u0, dmp = u0_fn("bump", d=2), damping("box_indicator", d=2)
    grid = make_seed_grid(1.0, 128, 2)
    target = CellGrid(radius=1.5, cells_per_axis=96, dimension=2)
    (values, out_frac), _, peak = traced_bytes(
        lambda: represent_pushforward(u0, forward_summary(spec, grid, 200, damping=dmp),
                                      target))
    assert peak <= 2 * flow._CHUNK_BYTES + 64 * grid.points.shape[0]
    fl = integrate_flow(spec, grid, 200, "forward")
    weights = (u0(grid.points) * np.exp(damping_integral(dmp, fl).values[:, -1])
               * grid.cell_volume)
    ref, deposited = _cic_deposit(fl.trajectories[:, -1], weights, target)
    assert np.array_equal(values, ref.ravel() / target.cell_volume)
    total = stable_sum(weights)
    assert out_frac == abs(total - deposited) / abs(total)


def test_full_table_layer_left_the_package():
    # the full-table reference lives in tests/reference.py only
    for module in (flow, representation):
        for name in ("jacobian", "JacobianTrack", "damping_integral",
                     "DampingAccumulator", "pushforward_total_mass"):
            assert not hasattr(module, name), (module.__name__, name)


def test_representation_equivalence_first_order():
    # two discretizations of one formula: L1 gap shrinks at >= 1st order once
    # the particle count per deposition cell grows under refinement (a fixed
    # particles-per-cell ratio leaves a constant cloud-in-cell aliasing bias)
    spec = field("linear_expand")
    u0 = u0_fn("bump")
    gaps = []
    for cells, seed_factor in ((64, 4), (128, 8), (256, 16)):
        target = CellGrid(radius=3.0, cells_per_axis=cells, dimension=1)
        seeds = make_seed_grid(1.0, seed_factor * cells, 1)
        fwd = forward_summary(spec, seeds, 128, damping=damping("zero"))
        push, _ = represent_pushforward(u0, fwd, target)
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
