"""Lagrangian flow maps: integration accuracy and the flow-level identities."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rough_transport import flow, representation
from rough_transport.config import resolve
from rough_transport.errors import (DivergenceUnboundedError, DomainTooSmallError,
                                    StepBlowupError)
from rough_transport.fields import VelocityFieldSpec, sample_nodes
from rough_transport.flow import (_rk4_path, backward_summary, change_of_variables_residual,
                                  compressibility_estimate, flow_convergence_study,
                                  forward_backward_mismatch, forward_summary,
                                  make_seed_grid, seeds_from_points)
from rough_transport.numerics import order_estimate, sq_norms
from rough_transport.representation import pointwise_solution
from rough_transport.scenarios import run_scenario
from rough_transport.testfunctions import bump, gaussian

from conftest import damping, field, long_linear_flow, traced_bytes, u0_fn
from reference import damping_integral, integrate_flow, jacobian


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


_RK4_DRIVERS = {
    "forward_summary": lambda spec, grid: forward_summary(spec, grid, 8),
    "forward_summary_escape": lambda spec, grid: forward_summary(spec, grid, 8,
                                                                 escape=(0.5, 2.0)),
    "backward_summary": lambda spec, grid: list(backward_summary(
        spec, damping("zero", spec.dimension), grid, [1.0], [8])),
    "pointwise_solution": lambda spec, grid: pointwise_solution(
        spec, damping("zero", spec.dimension), u0_fn("bump", spec.dimension), grid,
        [0.0, 0.5, 1.0], 8),
}


@pytest.mark.parametrize("driver", list(_RK4_DRIVERS))
def test_rk4_drivers_refuse_a_discontinuous_field(driver):
    # the shear jumps across y = 0: every sweep refuses it before any step,
    # while the continuous (log-Lipschitz) log_drift runs as it is
    with pytest.raises(ValueError, match="discontinuous"):
        _RK4_DRIVERS[driver](field("shear", d=2), make_seed_grid(1.0, 4, 2))
    if driver in ("forward_summary", "forward_summary_escape", "backward_summary"):
        _RK4_DRIVERS[driver](field("log_drift"), make_seed_grid(1.0, 8, 1))


def test_flow_reproducible_bitwise(linear_field):
    grid = make_seed_grid(1.0, 32, 1)
    a = integrate_flow(linear_field, grid, 100, "forward")
    b = integrate_flow(linear_field, grid, 100, "forward")
    assert np.array_equal(a.trajectories, b.trajectories)


def test_seed_grid_rejects_repeated_points():
    with pytest.raises(ValueError, match="pairwise distinct"):
        seeds_from_points([[0.5, 1.0], [0.2, 0.3], [0.5, 1.0]])
    # rows equal in every coordinate, even when one zero carries a minus sign
    with pytest.raises(ValueError, match="pairwise distinct"):
        seeds_from_points([[0.0, 1.0], [0.3, 0.0], [-0.0, 1.0]])
    with pytest.raises(ValueError, match="pairwise distinct"):
        seeds_from_points([[0.25], [-0.25], [0.25]])


def test_seed_grid_accepts_distinct_points():
    assert seeds_from_points([[0.4, -0.1]]).points.shape == (1, 2)
    # rows that share a coordinate are distinct; a NaN equals nothing
    seeds_from_points([[0.0, 1.0], [0.0, 2.0], [1.0, 1.0]])
    seeds_from_points([[np.nan], [np.nan], [0.0]])
    assert make_seed_grid(1.0, (3, 5), 2).points.shape == (15, 2)


def test_step_blowup_reports_seed():
    cubic = VelocityFieldSpec(
        dimension=1,
        eval_b=lambda t, x: np.asarray(x, dtype=float) ** 3,
        eval_div_b=lambda t, x: 3.0 * np.asarray(x)[..., 0] ** 2,
        continuous=True, div_sup=lambda t: float("inf"), horizon=10.0)
    with pytest.raises(StepBlowupError) as err:
        integrate_flow(cubic, seeds_from_points([[0.1], [2.0]]), 400, "forward")
    assert err.value.seed_index == 1


def test_step_blowup_on_nan_field():
    # NaN never compares greater than the escape radius; it must still raise
    spec = VelocityFieldSpec(
        dimension=1, eval_b=lambda t, x: np.where(x > 0.5, np.nan, x),
        eval_div_b=lambda t, x: np.ones(np.asarray(x).shape[:-1]),
        continuous=True, div_sup=lambda t: 1.0, horizon=1.0)
    with pytest.raises(StepBlowupError) as err:
        integrate_flow(spec, seeds_from_points([[-0.2], [0.45]]), 64, "forward")
    assert err.value.seed_index == 1
    assert "non-finite" in str(err.value)
    with pytest.raises(StepBlowupError) as err:
        pointwise_solution(spec, damping("zero"), u0_fn("bump"),
                           seeds_from_points([[0.2], [0.7]]),
                           np.linspace(0.0, 1.0, 5), steps=16)
    assert err.value.seed_index == 1


def _nan_right_of_half():
    """b = -x, NaN for x > 0.5: a backward path from x = 0.45 meets the NaN."""
    return VelocityFieldSpec(
        dimension=1, eval_b=lambda t, x: np.where(x > 0.5, np.nan, -x),
        eval_div_b=lambda t, x: -np.ones(np.asarray(x).shape[:-1]),
        continuous=True, div_sup=lambda t: 1.0, horizon=1.0)


def test_step_blowup_message_names_the_seed_of_a_backward_slice():
    # the slices t = 1, 2/3, 1/3 take 10, 7 and 3 steps, stacked in that
    # order in one sweep; seed 1 of the t = 1/3 slice (sweep row 5) hits the
    # NaN one step of 1/9 back, at t = 2/9
    with pytest.raises(StepBlowupError) as err:
        pointwise_solution(_nan_right_of_half(), damping("zero"), u0_fn("bump"),
                           seeds_from_points([[0.2], [0.45]]),
                           np.linspace(0.0, 1.0, 4), steps=10)
    assert err.value.seed_index == 1
    assert str(err.value) == "trajectory 1 became non-finite at t=0.222222"
    # a backward flow prints the physical time too, not the time traced back
    with pytest.raises(StepBlowupError) as err:
        integrate_flow(_nan_right_of_half(), seeds_from_points([[0.2], [0.45]]), 3,
                       "backward", anchor_time=1.0 / 3.0)
    assert err.value.seed_index == 1
    assert str(err.value) == "trajectory 1 became non-finite at t=0.222222"


def test_step_blowup_message_names_the_grid_seed_of_superlevel_escape():
    cubic = VelocityFieldSpec(
        dimension=1,
        eval_b=lambda t, x: np.asarray(x, dtype=float) ** 3,
        eval_div_b=lambda t, x: 3.0 * np.asarray(x)[..., 0] ** 2,
        continuous=True, div_sup=lambda t: float("inf"), horizon=10.0)
    # only seeds 1 and 2 lie inside B_2.5, but the superlevel counts fold
    # into the sweep of the whole grid: seed 0 at x = 3 escapes first
    # (x' = x^3 blows up at 1/(2 x0^2)), before seed 2 does at t = 0.15
    seeds = seeds_from_points([[3.0], [0.1], [2.0]])
    with pytest.raises(StepBlowupError) as err:
        forward_summary(cubic, seeds, 400, escape=(2.5, 5.0))
    assert err.value.seed_index == 0
    assert str(err.value) == "trajectory 0 escaped (|X|=8.78e+09 > 3e+03) at t=0.075"
    with pytest.raises(StepBlowupError) as whole:
        integrate_flow(cubic, seeds, 400, "forward")
    assert str(err.value) == str(whole.value)


# --- the RK4 kernel -----------------------------------------------------------

def _textbook_rk4(rhs, y0, h, steps):
    """Classical RK4 one row at a time, with the kernel's output layout.

    Like the kernel, it writes row i at nodes 0 to steps[i] only.
    """
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
    return out


def _assert_reached_nodes_equal(got, want, steps):
    """Row by row, the nodes 0 to steps[i] that a path reaches agree bit for bit."""
    assert got.shape == want.shape
    counts = np.broadcast_to(np.asarray(steps), got.shape[1:2])
    for i, m in enumerate(counts):
        assert np.array_equal(got[:m + 1, i], want[:m + 1, i]), i


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
    _assert_reached_nodes_equal(_rk4_path(_swirl, y0, h, steps, 1e3),
                                _textbook_rk4(_swirl, y0, h, steps), steps)


@pytest.mark.parametrize("d", [1, 2])
def test_rk4_kernel_never_writes_returned_arrays(d):
    # a field may hand back its input, a view of it, or an array it keeps
    y0 = np.random.default_rng(3).normal(size=(7, d))
    kept = np.full((7, d), 0.25)
    fields = [lambda t, y: y, lambda t, y: np.asarray(y)[..., ::-1],
              lambda t, y: kept[:y.shape[0]]]
    h, steps = _STEP_PLANS["mixed_counts"]
    for rhs in fields:
        _assert_reached_nodes_equal(_rk4_path(rhs, y0, h, steps, 1e3),
                                    _textbook_rk4(rhs, y0, h, steps), steps)
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
    with pytest.raises(DivergenceUnboundedError):
        forward_summary(lying, grid, 50)
    # the slices of one shared backward path check the same bound
    with pytest.raises(DivergenceUnboundedError):
        pointwise_solution(lying, damping("zero"), u0_fn("bump"), grid,
                           np.linspace(0.0, 1.0, 5), steps=50)


def test_jacobian_rejects_nan_divergence(zero_field):
    # a NaN path integral never compares greater than L; it must still raise
    spec = dataclasses.replace(
        zero_field, eval_div_b=lambda t, x: np.where(x[..., 0] > 0.5, np.nan, 0.0))
    seeds = seeds_from_points([[0.2], [0.7]])
    with pytest.raises(DivergenceUnboundedError):
        jacobian(spec, integrate_flow(spec, seeds, 8, "forward"))
    with pytest.raises(DivergenceUnboundedError):
        forward_summary(spec, seeds, 8)
    with pytest.raises(DivergenceUnboundedError):
        pointwise_solution(spec, damping("zero"), u0_fn("bump"), seeds,
                           np.linspace(0.0, 1.0, 5), steps=8)


def test_forward_summary_ode_residual_zero_field(zero_field):
    grid = make_seed_grid(1.0, 8, 1)
    res = forward_summary(zero_field, grid, 20, residuals=True).residuals
    assert res.forward == 0.0 and res.inverse == 0.0


def test_forward_summary_ode_residual_halves(linear_field):
    grid = make_seed_grid(1.0, 4, 1)

    def worst(steps):
        return forward_summary(linear_field, grid, steps, residuals=True).residuals

    r1 = worst(1000)
    r2 = worst(2000)
    assert r1.worst <= 1e-3
    assert r2.worst <= 0.55 * r1.worst
    # the reciprocal Jacobian obeys the mirrored ODE at matching accuracy
    assert r1.inverse <= 1e-3


def _log_drift_errors(steps):
    """Max errors of X and JX against the closed forms of log_drift.

    With y = log x the ODE x' = x (1 - log x) is y' = 1 - y, so a path from
    x0 in (0, e^{1-e}) stays in (0, 1) up to t = 1, with X = exp(1 - (1 -
    log x0) e^{-t}) and JX = dX/dx0 = (X / x0) e^{-t}. Returns the errors of
    integrate_flow + jacobian over the whole paths, and of forward_summary
    at t = 1.
    """
    spec = field("log_drift")
    x0 = np.linspace(0.01, 0.17, 33)[:, None]
    seeds = seeds_from_points(x0)
    fl = integrate_flow(spec, seeds, steps, "forward")
    t = fl.time_grid
    X = np.exp(1.0 - (1.0 - np.log(x0)) * np.exp(-t))
    JX = X / x0 * np.exp(-t)
    summary = forward_summary(spec, seeds, steps)
    return (np.max(np.abs(fl.trajectories[..., 0] - X)),
            np.max(np.abs(jacobian(spec, fl).jx - JX)),
            np.max(np.abs(summary.endpoints[:, 0] - X[:, -1])),
            np.max(np.abs(summary.jx_end - JX[:, -1])))


def test_log_drift_flow_and_jacobian_match_closed_forms():
    # measured orders: flow 3.85, 3.93, 3.96 and JX 2.03, 2.01, 2.00; a k4
    # stage built from k2 drops the flow to order 2.9, a left-Riemann
    # trapezoid the Jacobian to order 1 and 100x the error
    errors = np.array([_log_drift_errors(m) for m in (16, 32, 64, 128)])
    orders = np.log2(errors[:-1] / errors[1:])
    flow_orders, jx_orders = orders[:, [0, 2]], orders[:, [1, 3]]
    assert np.all(flow_orders >= 3.7)
    assert np.all((jx_orders >= 1.9) & (jx_orders <= 2.1))
    assert np.all(errors[-1, [0, 2]] <= 1e-8)
    assert np.all(errors[-1, [1, 3]] <= 5e-4)


def test_jacobian_keeps_one_table():
    # JX is exponentiated in place of its path integral
    spec, fl, table = long_linear_flow()
    track, kept, _ = traced_bytes(lambda: jacobian(spec, fl))
    assert track.jx.shape == (512, 2001)
    assert kept <= 1.1 * table


def test_forward_summary_ode_residual_frees_forward_temporaries():
    # the residuals are reduced block by block, so no full table is built
    spec, fl, table = long_linear_flow()
    res, _, peak = traced_bytes(lambda: forward_summary(spec, fl.seed_grid, 2000,
                                                        residuals=True).residuals)
    assert res.worst < 1e-6
    assert peak <= 5.5 * table


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
    res = change_of_variables_residual(forward_summary(zero_field, grid, 4),
                                       gaussian(1, 0.3), 2.0)
    assert res <= 1e-6


def test_change_of_variables_linear_bump(linear_field):
    grid = make_seed_grid(1.0, 512, 1)
    res = change_of_variables_residual(forward_summary(linear_field, grid, 512),
                                       bump(1, 1.0), 1.0)
    assert res <= 1e-5


def test_change_of_variables_rotation_radial(rotation_field):
    grid = make_seed_grid(1.0, 128, 2)
    res = change_of_variables_residual(forward_summary(rotation_field, grid, 256),
                                       bump(2, 0.8), 1.0)
    assert res <= 1e-6


def test_change_of_variables_refinement_order(linear_field):
    errs = []
    cells = [64, 128, 256]
    for n in cells:
        grid = make_seed_grid(1.0, n, 1)
        errs.append(change_of_variables_residual(
            forward_summary(linear_field, grid, 2 * n), bump(1, 1.0), 1.0))
    order = order_estimate([1.0 / n for n in cells], errs)
    assert order >= 2.0


def test_change_of_variables_domain_too_small(zero_field):
    grid = make_seed_grid(2.0, 64, 1)
    with pytest.raises(DomainTooSmallError):
        change_of_variables_residual(forward_summary(zero_field, grid, 4),
                                     bump(1, 1.0), 0.2)


# --- compressibility and superlevels -----------------------------------------

def test_compressibility_identity(zero_field):
    grid = make_seed_grid(1.0, 256, 1)
    assert compressibility_estimate(forward_summary(zero_field, grid, 4)) == pytest.approx(1.0)


def test_compressibility_contraction(contract_field):
    # uniform contraction by e^{-1} concentrates density by e
    grid = make_seed_grid(1.0, 10_000, 1)
    c = compressibility_estimate(forward_summary(contract_field, grid, 300))
    assert abs(c - math.e) / math.e <= 0.1


def test_compressibility_rotation(rotation_field):
    grid = make_seed_grid(1.0, 100, 2)
    assert abs(compressibility_estimate(forward_summary(rotation_field, grid, 200))
               - 1.0) <= 0.1


def _escaped(spec, grid, steps, r, R):
    """The superlevel escape measures that forward_summary folds into its sweep."""
    return forward_summary(spec, grid, steps, escape=(r, R)).escaped


def test_superlevel_zero_field(zero_field):
    grid = make_seed_grid(1.0, 64, 1)
    assert _escaped(zero_field, grid, 8, 1.0, 1.1) == 0.0
    with pytest.raises(ValueError, match="does not cover B_1.5"):
        _escaped(zero_field, grid, 8, 1.5, 2.0)


def test_superlevel_linear_growth_bound(linear_field):
    # |X(t, x)| <= e^T |x|, so nothing from B_r escapes past r e^T
    grid = make_seed_grid(1.0, 512, 1)
    assert _escaped(linear_field, grid, 200, 1.0, math.e + 0.01) == 0.0
    assert _escaped(linear_field, grid, 200, 0.5, 0.5 * math.e + 0.01) == 0.0


def test_superlevel_rotation_norm_preserving(rotation_field):
    grid = make_seed_grid(1.0, 64, 2)
    assert _escaped(rotation_field, grid, 100, 1.0, 1.42) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.3, max_value=3.0),
       st.floats(min_value=0.0, max_value=2.0))
def test_superlevel_nonincreasing_in_R(r_low, bump_R):
    spec = field("linear_expand")
    grid = make_seed_grid(1.0, 64, 1)
    a = _escaped(spec, grid, 32, 0.9, r_low)
    b = _escaped(spec, grid, 32, 0.9, r_low + bump_R)
    assert b <= a


def test_superlevel_radii_in_one_pass(linear_field):
    # an array of radii reads one pass of norms and matches the scalar calls
    grid = make_seed_grid(1.0, 64, 1)

    def escape(r, R):
        return _escaped(linear_field, grid, 32, r, R)
    radii = np.linspace(0.3, 3.0, 12)
    for r in (0.9, 0.01):            # no seed lies inside B_0.01
        ladder = escape(r, radii)
        assert np.array_equal(ladder, [escape(r, R)[0] for R in radii])
        assert np.array_equal(escape(r, radii.reshape(3, 4)), ladder)
        assert escape(r, 1.5).shape == (1,)
    assert np.any(escape(0.9, radii) > 0.0)


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
    got = _escaped(rotation_field, fl.seed_grid, 40, r, radii)
    assert np.array_equal(got, expected)
    assert got[2] == 0.0 and got[3] > 0.0
    assert got[1] > 0.0 and got[4] == 0.0


def test_forward_backward_composition(linear_field):
    grid = make_seed_grid(1.0, 64, 1)
    # 10x the integrator's local tolerance for this smooth field
    assert forward_backward_mismatch(linear_field,
                                     forward_summary(linear_field, grid, 1000)) <= 1e-10


def _backward_mismatch(spec, fwd):
    """forward_backward_mismatch read off the X^{-1} of the one backward slice."""
    arrivals = seeds_from_points(fwd.endpoints, fwd.seed_grid.cell_volume)
    times = fwd.time_grid
    _, inverse, _, _ = next(backward_summary(spec, damping("zero", spec.dimension), arrivals,
                                             [float(times[-1])], [times.size - 1]))
    return float(np.max(np.linalg.norm(inverse - fwd.seed_grid.points, axis=-1)))


@pytest.mark.parametrize("case", ["linear_expand", "rotation", "time_dependent"])
def test_forward_backward_mismatch_equals_the_backward_path_bitwise(case):
    spec, grid, steps = {
        "linear_expand": lambda: (field("linear_expand"), make_seed_grid(1.0, 512, 1), 1000),
        "rotation": lambda: (field("rotation", d=2, T=np.pi / 2.0),
                             make_seed_grid(1.0, 32, 2), 200),
        "time_dependent": lambda: (_time_dependent_field(), make_seed_grid(1.0, 64, 1), 300),
    }[case]()
    fwd = forward_summary(spec, grid, steps)
    assert forward_backward_mismatch(spec, fwd) == _backward_mismatch(spec, fwd)


def test_forward_backward_mismatch_keeps_no_backward_path():
    # the reversed sweep keeps one block at a time, not the (steps+1, N, d)
    # path of 4.1 MB
    spec = field("linear_expand")
    fwd = forward_summary(spec, make_seed_grid(1.0, 512, 1), 1000)
    mismatch, _, peak = traced_bytes(lambda: forward_backward_mismatch(spec, fwd))
    assert mismatch <= 1e-10
    assert peak < 1001 * 512 * 1 * 8


@pytest.mark.parametrize("autonomous", [True, False])
def test_forward_backward_mismatch_blowup_names_seed_and_physical_time(autonomous):
    # b = 0 leaves the seeds in place up to T = 1/3; under the NaN field the
    # sweep back from 0.45 meets the NaN at its first step of 1/9, at
    # t = 2/9, as the backward path from the same arrivals does
    spec = dataclasses.replace(_nan_right_of_half(), autonomous=autonomous)
    fwd = forward_summary(field("zero", T=1.0 / 3.0), seeds_from_points([[0.2], [0.45]]), 3)
    with pytest.raises(StepBlowupError) as want:
        _backward_mismatch(spec, fwd)
    with pytest.raises(StepBlowupError) as err:
        forward_backward_mismatch(spec, fwd)
    assert str(err.value) == str(want.value) == "trajectory 1 became non-finite at t=0.222222"
    assert (err.value.seed_index, err.value.t) == (want.value.seed_index, want.value.t)


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
        continuous=True, div_sup=lambda t: abs(tr), horizon=1.0)
    fwd = forward_summary(spec, make_seed_grid(1.0, 4, d), 256)
    assert fwd.jx_end == pytest.approx(math.exp(tr), rel=1e-12)
    assert forward_backward_mismatch(spec, fwd) <= 1e-8


# --- the backward paths --------------------------------------------------------

@pytest.mark.parametrize("field_id,anchors,counts", [
    ("linear_expand", [1.0, 2.0 / 3.0, 0.5, 1.0 / 3.0], [10, 7, 7, 3]),
    ("linear_expand", [1.0], [64]),
    ("linear_expand", [0.25, 1.0, 0.5], [2, 8, 4]),
    ("time_dependent", [1.0, 0.25, 0.75], [12, 3, 9]),
], ids=["stacked", "one_anchor", "shared", "time_dependent"])
def test_backward_paths_match_the_reference_bitwise(field_id, anchors, counts, monkeypatch):
    # each slice's X^{-1}, JX and D against the full tables of its own
    # backward map; "stacked" takes four paths in one sweep, "shared" three
    # slices on one path of steps 1/8. At a 1-byte budget every path is a
    # chunk of its own, and every chunk still sweeps into the one buffer
    # that holds X^{-1}. Each yielded view is copied before the next item,
    # which may overwrite it
    spec = _time_dependent_field() if field_id == "time_dependent" else field(field_id)
    grid = make_seed_grid(1.0, 16, 1)
    dmp = damping("box_indicator")
    want = []
    for a, m in zip(anchors, counts):
        back = integrate_flow(spec, grid, m, "backward", anchor_time=a)
        want.append((back.inverse_samples, jacobian(spec, back).jx[:, -1],
                     damping_integral(dmp, back).values[:, -1]))
        assert np.any(want[-1][2] != 0.0)
    for budget in (flow._CHUNK_BYTES, 1):
        monkeypatch.setattr(flow, "_CHUNK_BYTES", budget)
        got, buffers = {}, []
        for k, *item in backward_summary(spec, dmp, grid, anchors, counts):
            got[k] = tuple(view.copy() for view in item)
            buffers.append(item[0])
            while buffers[-1].base is not None:
                buffers[-1] = buffers[-1].base
        assert sorted(got) == list(range(len(anchors)))
        assert all(b is buffers[0] for b in buffers)
        for k, ref in enumerate(want):
            for view, expected in zip(got[k], ref):
                assert np.array_equal(view, expected), (budget, k)


@pytest.mark.parametrize("autonomous", [True, False])
def test_backward_paths_blowup_names_seed_and_physical_time(autonomous):
    # the path from 0.45 back from t = 1/3 meets the NaN at its first step
    # of 1/9, at t = 2/9; the path back from t = 1 (steps of 0.1) is still
    # finite then. Stacked, the failing row is 3 = path 1 x 2 seeds + seed 1.
    # A time-dependent b sweeps each path as a chunk of its own, the longest
    # first: the path back from 1/3 before the one step back from 0.05
    spec = dataclasses.replace(_nan_right_of_half(), autonomous=autonomous)
    anchors, counts = (([1.0, 1.0 / 3.0], [10, 3]) if autonomous
                       else ([0.05, 1.0 / 3.0], [1, 3]))
    with pytest.raises(StepBlowupError) as err:
        list(backward_summary(spec, damping("zero"), seeds_from_points([[0.2], [0.45]]),
                              anchors, counts))
    assert err.value.seed_index == 1
    assert err.value.t == pytest.approx(2.0 / 9.0, rel=1e-15)
    assert str(err.value) == "trajectory 1 became non-finite at t=0.222222"


def test_flow_drives_every_characteristic_sweep():
    # the full-table trajectory map is a test reference, and the solution
    # formulas reach RK4 only through flow's forward and backward drivers
    assert not hasattr(flow, "integrate_flow") and not hasattr(flow, "FlowMap")
    for name in ("_rk4_path", "ESCAPE_FACTOR", "integrate_flow"):
        assert not hasattr(representation, name)


# --- the forward pass in time blocks -----------------------------------------

def _time_dependent_field():
    """b(t, x) = 2t x: X = x exp(t^2), JX = exp(t^2), one field call per node."""
    return VelocityFieldSpec(
        dimension=1, eval_b=lambda t, x: 2.0 * t * np.asarray(x, dtype=float),
        eval_div_b=lambda t, x: np.full(np.asarray(x).shape[:-1], 2.0 * t),
        continuous=True, div_sup=lambda t: 2.0 * t, horizon=1.0,
        autonomous=False)


_FORWARD_CASES = {
    "linear_expand": lambda: (field("linear_expand"), make_seed_grid(1.0, 512, 1), 1000),
    "rotation": lambda: (field("rotation", d=2, T=np.pi / 2.0),
                         make_seed_grid(1.0, 100, 2), 500),
    "time_dependent": lambda: (_time_dependent_field(), make_seed_grid(1.0, 64, 1), 300),
}
# one node per block, 1 MiB, and more than the whole path
_BUDGETS = (1, 1 << 20, 1 << 40)


def _full_table_reductions(spec, grid, steps, r, radii):
    """The forward reductions taken from the full integrate_flow and jacobian tables."""
    fl = integrate_flow(spec, grid, steps, "forward")
    traj, times = fl.trajectories, fl.time_grid
    out = {"endpoints": traj[:, -1].copy(),
           "max_displacement": float(np.max(np.abs(traj - grid.points[:, None, :])))}
    norms = np.sqrt(sq_norms(traj[np.sqrt(sq_norms(grid.points)) < r]))
    out["ladder"] = np.array([np.max(np.count_nonzero(norms > R, axis=0)) for R in radii],
                             dtype=float) * grid.cell_volume
    del norms
    divs = sample_nodes(spec.eval_div_b, spec.autonomous, times,
                        np.moveaxis(traj, 1, 0)).T
    del traj
    track = jacobian(spec, fl)
    del fl
    jx, dt = track.jx, np.diff(times)

    def residual(y, rate):
        return float(np.max(np.abs((y[:, 1:] - y[:, :-1]) / dt
                                   - 0.5 * (rate[:, 1:] + rate[:, :-1]))))
    out.update(jx_end=jx[:, -1].copy(), L=track.L, jx_min=np.min(jx, axis=0),
               jx_max=np.max(jx, axis=0), forward=residual(jx, jx * divs),
               deviation=float(np.max(np.abs(jx - np.exp(times)))))
    inv = 1.0 / jx
    out["inverse"] = residual(inv, -inv * divs)
    return out


@pytest.mark.parametrize("case", sorted(_FORWARD_CASES))
def test_forward_summary_bitwise_equals_full_table_reductions(case, monkeypatch):
    # every reduction, the superlevel ladder included, at every block size
    spec, grid, steps = _FORWARD_CASES[case]()
    r, radii = 0.9, np.linspace(0.5, 1.5, 5)
    ref = _full_table_reductions(spec, grid, steps, r, radii)
    assert np.any(ref["ladder"] > 0.0)
    for budget in _BUDGETS:
        monkeypatch.setattr(flow, "_CHUNK_BYTES", budget)
        fwd = forward_summary(spec, grid, steps, escape=(r, radii), residuals=True)
        for key in ("endpoints", "jx_end", "jx_min", "jx_max"):
            assert np.array_equal(getattr(fwd, key), ref[key]), (budget, key)
        assert fwd.L == ref["L"] and fwd.max_displacement == ref["max_displacement"]
        assert fwd.residuals.forward == ref["forward"]
        assert fwd.residuals.inverse == ref["inverse"]
        # the per-node extremes give max |JX - e_k| exactly
        assert fwd.jx_deviation(np.exp(fwd.time_grid)) == ref["deviation"]
        assert np.array_equal(fwd.escaped, ref["ladder"])


def test_forward_summary_escape_in_later_block_matches_integrate_flow(monkeypatch):
    # seed 1 escapes at step 6 of 400: in block 6 of one-step blocks, or in
    # the third of two-step ones; the error names the global seed and time
    cubic = VelocityFieldSpec(
        dimension=1,
        eval_b=lambda t, x: np.asarray(x, dtype=float) ** 3,
        eval_div_b=lambda t, x: 3.0 * np.asarray(x)[..., 0] ** 2,
        continuous=True, div_sup=lambda t: float("inf"), horizon=10.0)
    seeds = seeds_from_points([[0.1], [2.0]])
    with pytest.raises(StepBlowupError) as whole:
        integrate_flow(cubic, seeds, 400, "forward")
    assert str(whole.value).endswith("at t=0.15")
    for budget in (1, 16 * 8 * 2 * 3):
        monkeypatch.setattr(flow, "_CHUNK_BYTES", budget)
        with pytest.raises(StepBlowupError) as err:
            forward_summary(cubic, seeds, 400)
        assert str(err.value) == str(whole.value)
        assert err.value.seed_index == whole.value.seed_index == 1
    # the superlevel counts fold into the sweep of the whole grid, so the
    # error names the first seed to escape, inside B_r or not: seed 0 at
    # x = 3 lies outside B_2.5 and escapes before seed 2 does at t = 0.15
    seeds = seeds_from_points([[3.0], [0.1], [2.0]])
    with pytest.raises(StepBlowupError) as whole:
        integrate_flow(cubic, seeds, 400, "forward")
    for budget in (1, 16 * 8 * 3 * 3):
        monkeypatch.setattr(flow, "_CHUNK_BYTES", budget)
        with pytest.raises(StepBlowupError) as err:
            forward_summary(cubic, seeds, 400, escape=(2.5, 5.0))
        assert err.value.seed_index == whole.value.seed_index == 0
        assert str(err.value) == str(whole.value)
        assert str(err.value).endswith(" at t=0.075")


def test_forward_reads_of_rotation_stay_within_the_block_budget(tmp_path):
    # compressibility, change of variables and superlevel on 10^4 seeds x 500
    # steps; the full flow and Jacobian tables alone would take 115 MiB
    cfg = resolve({"scenario_id": "rotation", "output_dir": str(tmp_path),
                   "diagnostics": ["compressibility", "change_of_variables",
                                   "superlevel"]})
    report, _, peak = traced_bytes(lambda: run_scenario(cfg))
    assert all(r.passed for r in report.results)
    assert peak <= 3 * flow._CHUNK_BYTES + (1 << 20)


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
