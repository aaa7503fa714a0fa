"""Lagrangian flow maps: integration accuracy and the flow-level identities."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rough_transport.errors import (DivergenceUnboundedError, DomainTooSmallError,
                                    StepBlowupError)
from rough_transport.fields import VelocityFieldSpec
from rough_transport.flow import (_rk4_path, change_of_variables_residual,
                                  compressibility_estimate, flow_convergence_study,
                                  forward_backward_mismatch, integrate_flow,
                                  jacobian, jacobian_ode_residual, make_seed_grid,
                                  seeds_from_points, superlevel_escape)
from rough_transport.numerics import order_estimate
from rough_transport.representation import pointwise_solution
from rough_transport.testfunctions import bump, gaussian

from conftest import damping, field, u0_fn


def test_identity_flow(zero_field):
    grid = make_seed_grid(1.0, 16, 1)
    fl = integrate_flow(zero_field, grid, 8, "forward")
    assert np.array_equal(fl.trajectories[:, -1, :], grid.points)
    assert np.array_equal(fl.positions_at(0), grid.points)


def test_linear_expand_endpoint(linear_field):
    # analytic ODE solution: X(t, x) = x e^t
    fl = integrate_flow(linear_field, seeds_from_points([[1.0]]), 1000, "forward")
    assert abs(fl.positions_at(-1)[0, 0] - math.e) <= 1e-8


def test_rotation_endpoint(rotation_field):
    # quarter rotation carries (1, 0) to (0, 1)
    fl = integrate_flow(rotation_field, seeds_from_points([[1.0, 0.0]]),
                        1000, "forward")
    assert np.linalg.norm(fl.positions_at(-1)[0] - np.array([0.0, 1.0])) <= 1e-8


def test_shear_trajectories_piecewise_constant(shear_field):
    # off the jump line the flow is X(t) = (x + t sign(y), y), exactly
    seeds = seeds_from_points([[0.0, 0.25], [0.0, -1.5]])
    fl = integrate_flow(shear_field, seeds, 64, "forward", allow_nonsmooth=True)
    times = fl.time_grid
    assert np.allclose(fl.trajectories[0, :, 0], times, atol=0.0)
    assert np.allclose(fl.trajectories[1, :, 0], -times, atol=0.0)
    assert np.all(fl.trajectories[:, :, 1] == np.array([[0.25], [-1.5]]))


def test_nonsmooth_requires_optin(shear_field):
    with pytest.raises(ValueError):
        integrate_flow(shear_field, seeds_from_points([[0.0, 0.5]]), 8, "forward")


def test_flow_reproducible_bitwise(linear_field):
    grid = make_seed_grid(1.0, 32, 1)
    a = integrate_flow(linear_field, grid, 100, "forward")
    b = integrate_flow(linear_field, grid, 100, "forward")
    assert np.array_equal(a.trajectories, b.trajectories)


def test_step_blowup_reports_seed():
    cubic = VelocityFieldSpec(
        dimension=1,
        eval_b=lambda t, x: np.asarray(x, dtype=float) ** 3,
        eval_div_b=lambda t, x: 3.0 * np.asarray(x)[..., 0] ** 2,
        regularity_tag="smooth", div_sup=lambda t: float("inf"), horizon=10.0)
    with pytest.raises(StepBlowupError) as err:
        integrate_flow(cubic, seeds_from_points([[0.1], [2.0]]), 400, "forward")
    assert err.value.seed_index == 1


def test_step_blowup_on_nan_field():
    # NaN never compares greater than the escape radius; it must still raise
    spec = VelocityFieldSpec(
        dimension=1, eval_b=lambda t, x: np.where(x > 0.5, np.nan, x),
        eval_div_b=lambda t, x: np.ones(np.asarray(x).shape[:-1]),
        regularity_tag="smooth", div_sup=lambda t: 1.0, horizon=1.0)
    with pytest.raises(StepBlowupError) as err:
        integrate_flow(spec, seeds_from_points([[-0.2], [0.45]]), 64, "forward")
    assert err.value.seed_index == 1
    assert "non-finite" in str(err.value)
    with pytest.raises(StepBlowupError) as err:
        pointwise_solution(spec, damping("zero"), u0_fn("bump"),
                           seeds_from_points([[0.2], [0.7]]),
                           np.linspace(0.0, 1.0, 5), steps=16)
    assert err.value.seed_index == 1


# --- the RK4 kernel -----------------------------------------------------------

def _textbook_rk4(rhs, y0, h, steps):
    """Classical RK4 one row at a time, with the kernel's output layout."""
    y0 = np.asarray(y0, dtype=float)
    n = y0.shape[0]
    hs = np.broadcast_to(np.asarray(h, dtype=float), (n,))
    counts = np.broadcast_to(np.asarray(steps), (n,))
    out = np.empty((int(np.max(counts)) + 1,) + y0.shape)
    for i in range(n):
        y, hi = y0[i:i + 1].copy(), hs[i]
        out[0, i] = y[0]
        for k in range(counts[i]):
            t = k * hi
            k1 = rhs(t, y)
            k2 = rhs(t + 0.5 * hi, y + 0.5 * hi * k1)
            k3 = rhs(t + 0.5 * hi, y + 0.5 * hi * k2)
            k4 = rhs(t + hi, y + hi * k3)
            y = y + (hi / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out[k + 1, i] = y[0]
        out[counts[i] + 1:, i] = y[0]
    return out


def _swirl(t, y):
    # time-dependent, couples the axes in 2-D; plain arithmetic only, so a
    # row's values cannot depend on how many rows are evaluated together
    return (1.0 + t) * y[..., ::-1] * np.array([-1.0, 1.0])[-y.shape[-1]:] - 0.3 * y * y


_STEP_PLANS = {
    "shared": (0.01, 40),
    "per_row_h": (np.linspace(0.03, 0.01, 7), 40),
    "mixed_counts": (np.linspace(0.03, 0.01, 7), np.array([40, 40, 33, 20, 20, 5, 1])),
}


@pytest.mark.parametrize("plan", sorted(_STEP_PLANS))
@pytest.mark.parametrize("d", [1, 2])
def test_rk4_kernel_matches_textbook(d, plan):
    h, steps = _STEP_PLANS[plan]
    y0 = np.random.default_rng(d).normal(size=(7, d))
    assert np.array_equal(_rk4_path(_swirl, y0, h, steps, 1e3),
                          _textbook_rk4(_swirl, y0, h, steps))


@pytest.mark.parametrize("d", [1, 2])
def test_rk4_kernel_never_writes_returned_arrays(d):
    # a field may hand back its input, a view of it, or an array it keeps
    y0 = np.random.default_rng(3).normal(size=(7, d))
    kept = np.full((7, d), 0.25)
    fields = [lambda t, y: y, lambda t, y: np.asarray(y)[..., ::-1],
              lambda t, y: kept[:y.shape[0]]]
    h, steps = _STEP_PLANS["mixed_counts"]
    for rhs in fields:
        assert np.array_equal(_rk4_path(rhs, y0, h, steps, 1e3),
                              _textbook_rk4(rhs, y0, h, steps))
    assert np.all(kept == 0.25)


@pytest.mark.parametrize("h, steps, message", [
    (0.05, 400, "trajectory 1 escaped (|X|=4.88e+03 > 1e+03) at t=0.15"),
    (np.array([0.05, 0.05, 0.04]), np.array([400, 400, 300]),
     "trajectory 1 escaped (|X|=4.88e+03 > 1e+03) at t=0.15"),
])
def test_rk4_kernel_escape_message(h, steps, message):
    cubic = lambda t, y: y ** 3  # noqa: E731
    with pytest.raises(StepBlowupError) as err:
        _rk4_path(cubic, np.array([[0.1], [2.0], [0.7]]), h, steps, 1e3)
    assert str(err.value) == message
    assert err.value.seed_index == 1


def test_rk4_kernel_nan_message():
    nan_right = lambda t, y: np.where(y > 0.5, np.nan, y)  # noqa: E731
    with pytest.raises(StepBlowupError) as err:
        _rk4_path(nan_right, np.array([[0.1], [2.0], [0.7]]),
                  np.array([0.05, 0.05, 0.04]), np.array([400, 400, 300]), 1e3)
    assert str(err.value) == "trajectory 1 became non-finite at t=0.05"
    assert err.value.seed_index == 1


@pytest.mark.parametrize("h, steps", [
    (0.05, 400), (np.array([0.05, 0.05, 0.04]), np.array([400, 400, 300]))])
def test_rk4_kernel_escape_message_2d(h, steps):
    # the blow-up sits on coordinate 1 while coordinate 0 stays small; an
    # escape test that drops a coordinate never fires
    cubic = lambda t, y: y ** 3  # noqa: E731
    y0 = np.array([[0.05, 0.1], [0.05, 2.0], [0.05, 0.7]])
    with pytest.raises(StepBlowupError) as err:
        _rk4_path(cubic, y0, h, steps, 1e3)
    assert str(err.value) == "trajectory 1 escaped (|X|=4.88e+03 > 1e+03) at t=0.15"
    assert err.value.seed_index == 1


def test_rk4_kernel_nan_message_2d():
    nan_right = lambda t, y: np.where(y > 0.5, np.nan, y)  # noqa: E731
    with pytest.raises(StepBlowupError) as err:
        _rk4_path(nan_right, np.array([[0.05, 0.1], [0.05, 2.0], [0.05, 0.7]]),
                  np.array([0.05, 0.05, 0.04]), np.array([400, 400, 300]), 1e3)
    assert str(err.value) == "trajectory 1 became non-finite at t=0.05"
    assert err.value.seed_index == 1


# --- Jacobians ---------------------------------------------------------------

def test_jacobian_reads_autonomous_div_sup_once(linear_field):
    # an autonomous field's sup profile is one value: one call, same bits
    grid = make_seed_grid(1.0, 16, 1)
    fl = integrate_flow(linear_field, grid, 20, "forward")
    tracks, calls = [], []
    for autonomous in (True, False):
        count = [0]

        def div_sup(t, count=count):
            count[0] += 1
            return linear_field.div_sup(t)
        spec = dataclasses.replace(linear_field, autonomous=autonomous,
                                   div_sup=div_sup)
        tracks.append(jacobian(spec, fl))
        calls.append(count[0])
    assert calls == [1, 21]
    assert tracks[0].L == tracks[1].L
    assert np.array_equal(tracks[0].jx, tracks[1].jx)
    assert np.array_equal(tracks[0].div_path_integral, tracks[1].div_path_integral)


def test_jacobian_divergence_free(rotation_field):
    grid = make_seed_grid(1.0, 8, 2)
    track = jacobian(rotation_field, integrate_flow(rotation_field, grid, 50, "forward"))
    assert np.all(track.jx == 1.0)
    assert track.L == 0.0


@pytest.mark.parametrize("field_id,rate", [("linear_expand", 1.0),
                                           ("linear_contract", -1.0)])
def test_jacobian_exponential(field_id, rate):
    # analytic Jacobian exp(rate * t); trapezoid of a constant is exact
    spec = field(field_id)
    grid = make_seed_grid(1.0, 16, 1)
    fl = integrate_flow(spec, grid, 200, "forward")
    track = jacobian(spec, fl)
    expected = np.exp(rate * fl.time_grid)
    assert np.max(np.abs(track.jx - expected[None, :])) <= 1e-12
    assert track.L == pytest.approx(1.0)
    assert np.all(track.jx <= math.exp(track.L) * (1.0 + 1e-12))
    assert np.all(track.jx >= math.exp(-track.L) * (1.0 - 1e-12))


def test_jacobian_rejects_inconsistent_metadata(linear_field):
    lying = dataclasses.replace(linear_field, div_sup=lambda t: 0.5)
    grid = make_seed_grid(1.0, 8, 1)
    with pytest.raises(DivergenceUnboundedError):
        jacobian(lying, integrate_flow(lying, grid, 50, "forward"))


def test_jacobian_rejects_nan_divergence(zero_field):
    # a NaN path integral never compares greater than L; it must still raise
    spec = dataclasses.replace(
        zero_field, eval_div_b=lambda t, x: np.where(x[..., 0] > 0.5, np.nan, 0.0))
    seeds = seeds_from_points([[0.2], [0.7]])
    with pytest.raises(DivergenceUnboundedError):
        jacobian(spec, integrate_flow(spec, seeds, 8, "forward"))
    with pytest.raises(DivergenceUnboundedError):
        pointwise_solution(spec, damping("zero"), u0_fn("bump"), seeds,
                           np.linspace(0.0, 1.0, 5), steps=8)


def test_jacobian_ode_residual_zero_field(zero_field):
    grid = make_seed_grid(1.0, 8, 1)
    fl = integrate_flow(zero_field, grid, 20, "forward")
    res = jacobian_ode_residual(zero_field, jacobian(zero_field, fl))
    assert res.forward == 0.0 and res.inverse == 0.0


def test_jacobian_ode_residual_halves(linear_field):
    grid = make_seed_grid(1.0, 4, 1)

    def worst(steps):
        fl = integrate_flow(linear_field, grid, steps, "forward")
        return jacobian_ode_residual(linear_field, jacobian(linear_field, fl))

    r1 = worst(1000)
    r2 = worst(2000)
    assert r1.worst <= 1e-3
    assert r2.worst <= 0.55 * r1.worst
    # the reciprocal Jacobian obeys the mirrored ODE at matching accuracy
    assert r1.inverse <= 1e-3


def test_jacobian_matches_flow_map_determinant():
    # independent oracle: in d = 1 the Jacobian is dX/dx, estimated by central
    # differences of the flow map across close seeds; the path-integral
    # exponential must reproduce it on a field with genuinely varying stretch
    spec = field("compact_bump")
    h = 1e-5
    xs = [0.3 - h, 0.3, 0.3 + h, -0.6 - h, -0.6, -0.6 + h]
    fl = integrate_flow(spec, seeds_from_points([[x] for x in xs]), 512, "forward")
    track = jacobian(spec, fl)
    for base in (0, 3):
        fd = (fl.positions_at(-1)[base + 2, 0]
              - fl.positions_at(-1)[base, 0]) / (2.0 * h)
        # agreement is limited by the trapezoid path integral, ~tau^2
        assert track.jx[base + 1, -1] == pytest.approx(fd, rel=1e-5)


# --- change of variables ------------------------------------------------------

def test_change_of_variables_identity_gaussian(zero_field):
    # spec example: identity flow leaves pure quadrature error, <= 1e-6 at 512
    grid = make_seed_grid(2.0, 512, 1)
    fl = integrate_flow(zero_field, grid, 4, "forward")
    res = change_of_variables_residual(jacobian(zero_field, fl),
                                       gaussian(1, 0.3), 2.0)
    assert res <= 1e-6


def test_change_of_variables_linear_bump(linear_field):
    grid = make_seed_grid(1.0, 512, 1)
    fl = integrate_flow(linear_field, grid, 512, "forward")
    res = change_of_variables_residual(jacobian(linear_field, fl),
                                       bump(1, 1.0), 1.0)
    assert res <= 1e-5


def test_change_of_variables_rotation_radial(rotation_field):
    grid = make_seed_grid(1.0, 128, 2)
    fl = integrate_flow(rotation_field, grid, 256, "forward")
    res = change_of_variables_residual(jacobian(rotation_field, fl),
                                       bump(2, 0.8), 1.0)
    assert res <= 1e-6


def test_change_of_variables_refinement_order(linear_field):
    errs = []
    cells = [64, 128, 256]
    for n in cells:
        grid = make_seed_grid(1.0, n, 1)
        fl = integrate_flow(linear_field, grid, 2 * n, "forward")
        errs.append(change_of_variables_residual(jacobian(linear_field, fl),
                                                 bump(1, 1.0), 1.0))
    order = order_estimate([1.0 / n for n in cells], errs)
    assert order >= 2.0


def test_change_of_variables_domain_too_small(zero_field):
    grid = make_seed_grid(2.0, 64, 1)
    fl = integrate_flow(zero_field, grid, 4, "forward")
    with pytest.raises(DomainTooSmallError):
        change_of_variables_residual(jacobian(zero_field, fl),
                                     bump(1, 1.0), 0.2)


# --- compressibility and superlevels -----------------------------------------

def test_compressibility_identity(zero_field):
    grid = make_seed_grid(1.0, 256, 1)
    fl = integrate_flow(zero_field, grid, 4, "forward")
    assert compressibility_estimate(fl) == pytest.approx(1.0)


def test_compressibility_contraction(contract_field):
    # uniform contraction by e^{-1} concentrates density by e
    grid = make_seed_grid(1.0, 10_000, 1)
    fl = integrate_flow(contract_field, grid, 300, "forward")
    c = compressibility_estimate(fl)
    assert abs(c - math.e) / math.e <= 0.1


def test_compressibility_rotation(rotation_field):
    grid = make_seed_grid(1.0, 100, 2)
    fl = integrate_flow(rotation_field, grid, 200, "forward")
    assert abs(compressibility_estimate(fl) - 1.0) <= 0.1


def test_superlevel_zero_field(zero_field):
    grid = make_seed_grid(1.0, 64, 1)
    fl = integrate_flow(zero_field, grid, 8, "forward")
    assert superlevel_escape(fl, 1.0, 1.1) == 0.0


def test_superlevel_linear_growth_bound(linear_field):
    # |X(t, x)| <= e^T |x|, so nothing from B_r escapes past r e^T
    grid = make_seed_grid(1.0, 512, 1)
    fl = integrate_flow(linear_field, grid, 200, "forward")
    assert superlevel_escape(fl, 1.0, math.e + 0.01) == 0.0
    assert superlevel_escape(fl, 0.5, 0.5 * math.e + 0.01) == 0.0


def test_superlevel_rotation_norm_preserving(rotation_field):
    grid = make_seed_grid(1.0, 64, 2)
    fl = integrate_flow(rotation_field, grid, 100, "forward")
    assert superlevel_escape(fl, 1.0, 1.42) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.3, max_value=3.0),
       st.floats(min_value=0.0, max_value=2.0))
def test_superlevel_nonincreasing_in_R(r_low, bump_R):
    spec = field("linear_expand")
    grid = make_seed_grid(1.0, 64, 1)
    fl = integrate_flow(spec, grid, 32, "forward")
    a = superlevel_escape(fl, 0.9, r_low)
    b = superlevel_escape(fl, 0.9, r_low + bump_R)
    assert b <= a


def test_superlevel_radii_in_one_pass(linear_field):
    # an array of radii reads one pass of norms and matches the scalar calls
    fl = integrate_flow(linear_field, make_seed_grid(1.0, 64, 1), 32, "forward")
    radii = np.linspace(0.3, 3.0, 12)
    for r in (0.9, 0.01):            # no seed lies inside B_0.01
        ladder = superlevel_escape(fl, r, radii)
        assert np.array_equal(ladder, [superlevel_escape(fl, r, R) for R in radii])
        assert np.array_equal(superlevel_escape(fl, r, radii.reshape(3, 4)),
                              ladder.reshape(3, 4))
        assert type(superlevel_escape(fl, r, 1.5)) is float
    assert np.any(superlevel_escape(fl, 0.9, radii) > 0.0)


def test_superlevel_rotation_matches_norm_formula(rotation_field):
    # 2-D: the per-radius counts equal the (n, K+1, radii) comparison they
    # replaced; one radius is the largest sampled norm, so the strict ">"
    # decides its count
    fl = integrate_flow(rotation_field, make_seed_grid(1.0, 32, 2), 40, "forward")
    r = 0.8
    traj = fl.trajectories[np.linalg.norm(fl.positions_at(0), axis=-1) < r]
    top = np.max(np.linalg.norm(traj, axis=-1))
    radii = np.array([0.1, 0.35, top, np.nextafter(top, 0.0), 1.2])
    expected = np.max(np.sum(np.linalg.norm(traj, axis=-1)[..., None] > radii, axis=0),
                      axis=0) * fl.seed_grid.cell_volume
    got = superlevel_escape(fl, r, radii)
    assert np.array_equal(got, expected)
    assert got[2] == 0.0 and got[3] > 0.0
    assert got[1] > 0.0 and got[4] == 0.0


def test_forward_backward_composition(linear_field):
    grid = make_seed_grid(1.0, 64, 1)
    fl = integrate_flow(linear_field, grid, 1000, "forward")
    # 10x the integrator's local tolerance for this smooth field
    assert forward_backward_mismatch(linear_field, fl) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=2).flatmap(
    lambda d: st.lists(st.floats(min_value=-1.0, max_value=1.0),
                       min_size=d * d, max_size=d * d)))
def test_linear_field_jacobian_and_inverse(entries):
    # b = A x: div b = tr A, so JX(1) = exp(tr A) exactly up to the trapezoid's
    # rounding; forward then backward RK4 returns to the seeds to O(h^4)
    d = int(round(math.sqrt(len(entries))))
    A = np.array(entries).reshape(d, d)
    tr = float(np.trace(A))
    spec = VelocityFieldSpec(
        dimension=d, eval_b=lambda t, x: np.asarray(x) @ A.T,
        eval_div_b=lambda t, x: np.full(np.asarray(x).shape[:-1], tr),
        regularity_tag="smooth", div_sup=lambda t: abs(tr), horizon=1.0)
    fl = integrate_flow(spec, make_seed_grid(1.0, 4, d), 256, "forward")
    assert jacobian(spec, fl).jx[:, -1] == pytest.approx(math.exp(tr), rel=1e-12)
    assert forward_backward_mismatch(spec, fl) <= 1e-8


# --- mollified flow convergence ----------------------------------------------

def test_convergence_study_smooth_field(linear_field):
    # mollification is exact on linear fields: discrepancies at rounding floor
    grid = make_seed_grid(1.0, 64, 1)
    rows = flow_convergence_study(linear_field, [0.2, 0.1], grid, 32)
    for _, flow_disc, jac_disc in rows:
        assert flow_disc <= 1e-8
        assert jac_disc <= 1e-8


def test_convergence_study_shear(shear_field):
    grid = make_seed_grid(1.0, (2, 512), 2)
    rows = flow_convergence_study(shear_field, [0.2, 0.1, 0.05], grid, 8)
    discs = [r[1] for r in rows]
    assert all(b < a for a, b in zip(discs, discs[1:]))
    assert max(r[2] for r in rows) <= 1e-10
