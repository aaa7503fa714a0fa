"""Weak-form residuals, Gamma traces, energy and Gronwall diagnostics."""

import dataclasses
import math

import numpy as np
import pytest

from rough_transport.config import resolve
from rough_transport.errors import (NonFiniteDampingError, SupportOverflowError,
                                    UnboundedDampingError)
from rough_transport.fields import DampingFieldSpec, VelocityFieldSpec, growth_split
from rough_transport.flow import seeds_from_points
from rough_transport.numerics import holds_below, order_estimate, profile
from rough_transport.renormalization import make_beta_arctan, make_beta_log, make_phi_R
from rough_transport.representation import (DensityRepresentation, make_quadrature,
                                            pointwise_solution)
from rough_transport.scenarios import build_context
from rough_transport.testfunctions import (SpaceTimeTestFunction, TimeWindow, bump,
                                           compact_space_time, gaussian)
from rough_transport.weakform import (GRONWALL_SLACK, GammaTrace, GronwallBoundData,
                                      gamma_trace, gronwall_constants,
                                      l2_energy_diagnostic, uniqueness_probe,
                                      weak_residual)

from conftest import damping, field, u0_fn, unit_damping


def _solution_on(quad, spec, dmp, u0, steps=64):
    grid = seeds_from_points(quad.points, quad.cell_volume)
    return DensityRepresentation(quad, pointwise_solution(spec, dmp, u0, grid,
                                                          quad.times, steps))


def _ladder(densities, beta, phi, spec, dmp, u0):
    """(h, residual) per rung of a refining ladder, and the order fitted against h."""
    hs = [u.quad.h for u in densities]
    res = [weak_residual(u, beta, phi, spec, dmp, u0) for u in densities]
    return hs, res, order_estimate(hs, res)


def _zeros(quad):
    return DensityRepresentation(quad, np.zeros((quad.times.size, quad.points.shape[0])))


def test_quadrature_weights_sum():
    quad = make_quadrature(2, 1.5, 24, 0.8, 16)
    total = np.sum(quad.time_weights) * np.sum(np.full(quad.points.shape[0],
                                                       quad.cell_volume))
    assert total == pytest.approx(0.8 * 3.0 ** 2, rel=1e-12)


def test_weak_residual_constant_solution():
    # b = 0, c = 0, u = u0: residual is pure quadrature error
    spec, dmp, u0 = field("zero", T=1.0), damping("zero"), u0_fn("bump")
    quad = make_quadrature(1, 2.0, 256, 1.0, 256)
    u = _solution_on(quad, spec, dmp, u0, steps=16)
    phi = compact_space_time(1, 1.0, space_radius=1.5)
    residual = weak_residual(u, make_beta_arctan(1.0), phi, spec, dmp, u0)
    assert type(residual) is float and residual <= 1e-6


def test_weak_residual_exponential_solution_order():
    # b = 0, c = 1 on B_1, u0 inside: u = u0 e^t, refinement order >= 2
    spec, dmp, u0 = field("zero", T=1.0), damping("box_indicator"), u0_fn("bump")
    quads = [make_quadrature(1, 2.0, n, 1.0, n // 2) for n in (64, 128, 256)]
    hs, res, order = _ladder(
        [_solution_on(q, spec, dmp, u0, steps=16) for q in quads],
        make_beta_arctan(1.0), compact_space_time(1, 1.0, space_radius=1.5),
        spec, dmp, u0)
    assert order >= 1.9
    assert all(b < a for a, b in zip(res, res[1:]))
    assert all(b < a for a, b in zip(hs, hs[1:]))


def test_weak_residual_mollified_nonsmooth_field_first_order():
    # kinked drift b = |x| (divergence jumps at 0), mollified before use:
    # the residual still refines, at first order or better
    from rough_transport.fields import VelocityFieldSpec, make_mollifier, mollify

    kinked = VelocityFieldSpec(
        dimension=1,
        eval_b=lambda t, x: np.abs(np.asarray(x, dtype=float)),
        eval_div_b=lambda t, x: np.sign(np.asarray(x, dtype=float)[..., 0]),
        continuous=True, div_sup=lambda t: 1.0, horizon=1.0,
        label="kinked")
    # the mollification scale must be resolved by the coarsest grid, and the
    # ladder must sit past the pre-asymptotic regime where lucky cancellations
    # in the layer quadrature break monotonicity
    smooth = mollify(kinked, make_mollifier(0.2, 1))
    dmp, u0 = damping("zero"), u0_fn("bump")
    quads = [make_quadrature(1, 3.0, n, 1.0, 64) for n in (96, 192, 384)]
    _, res, order = _ladder(
        [_solution_on(q, smooth, dmp, u0, steps=64) for q in quads],
        make_beta_arctan(1.0), compact_space_time(1, 1.0, space_radius=2.5),
        smooth, dmp, u0)
    assert all(b < a for a, b in zip(res, res[1:]))
    assert order >= 1.0 - 0.1


def test_weak_residual_detects_tampering():
    # add a bump after T/2: the residual equals the jump term, >> 0.1 * int phi
    spec, dmp = field("zero", T=1.0), damping("zero")
    u0 = u0_fn("bump")
    quad = make_quadrature(1, 2.0, 128, 1.0, 128)
    u = _solution_on(quad, spec, dmp, u0, steps=16)
    jump = 2.0 * bump(1, 0.9)(quad.points)
    tampered = u.values.copy()
    tampered[quad.times > 0.5] += jump[None, :]
    u_bad = DensityRepresentation(quad, tampered)
    phi = compact_space_time(1, 1.0, space_radius=1.5)
    residual = weak_residual(u_bad, make_beta_arctan(1.0), phi, spec, dmp, u0)
    # the window integrates to 0.75 T: 1 up to 0.55 T, an antisymmetric step to 0.95 T
    assert residual >= 0.1 * 0.75 * phi.space.reference_integral


def test_weak_residual_support_overflow():
    spec, dmp, u0 = field("zero", T=1.0), damping("zero"), u0_fn("bump")
    quad = make_quadrature(1, 1.0, 32, 1.0, 16)
    u = _solution_on(quad, spec, dmp, u0, steps=4)
    phi = compact_space_time(1, 1.0, space_radius=1.5)
    with pytest.raises(SupportOverflowError):
        weak_residual(u, make_beta_arctan(1.0), phi, spec, dmp, u0)


def test_weak_residual_rejects_infinite_support():
    # a Gaussian space factor is never compactly supported: it is refused,
    # not cut off at the box
    spec, dmp, u0 = field("zero", T=1.0), damping("zero"), u0_fn("bump")
    quad = make_quadrature(1, 2.0, 32, 1.0, 16)
    u = _solution_on(quad, spec, dmp, u0, steps=4)
    phi = SpaceTimeTestFunction(window=TimeWindow(0.55, 0.95), space=gaussian(1, 0.3))
    with pytest.raises(SupportOverflowError, match="inf"):
        weak_residual(u, make_beta_arctan(1.0), phi, spec, dmp, u0)


def test_weak_residual_matches_gamma_trace_identity():
    # dual route: for separable phi = eta(t) psi(x) the space-time residual
    # equals |eta(0) Gamma_0 + sum tw_k (eta' Gamma + eta RHS)| node for node,
    # for ANY sampled u, solution or not; this pins every sign in both paths
    spec, dmp, u0 = field("linear_expand"), damping("box_indicator"), u0_fn("bump")
    quad = make_quadrature(1, 3.0, 48, 1.0, 24)
    rng = np.random.default_rng(123)
    vals = rng.normal(size=(quad.times.size, quad.points.shape[0]))
    u = DensityRepresentation(quad, vals)
    beta = make_beta_arctan(1.0)
    phi = compact_space_time(1, 1.0, space_radius=2.0)

    residual = weak_residual(u, beta, phi, spec, dmp, u0)

    trace = gamma_trace(u, beta, phi.space, spec, dmp)
    eta = phi.window(quad.times)
    eta_prime = phi.window.prime(quad.times)
    tw = quad.time_weights
    gamma0 = float(np.sum(phi.space(quad.points) * beta.beta(u0(quad.points)))
                   * quad.cell_volume)
    reconstructed = abs(float(eta[0] * gamma0
                              + np.sum(tw * (eta_prime * trace.values
                                             + eta * trace.rhs))))
    assert residual == pytest.approx(reconstructed, rel=1e-12, abs=1e-13)


def _per_node_reference(u, beta, phi, spec, dmp, u0):
    """(weak residual, Gamma rhs) summed one time node at a time.

    Each node builds phi, dt phi and grad phi at its own float t and samples
    b, div b and c there, with the products and pairwise sums in the order
    of the array expressions, so the two must agree bit for bit.
    """
    quad, vals = u.quad, u.values
    x, cv = quad.points, quad.cell_volume
    pieces = [np.sum(phi(0.0, x) * beta.beta(u0(x))) * cv]
    rhs = []
    for k, t in enumerate(quad.times):
        t = float(t)
        b, div = spec.eval_b(t, x[None])[0], spec.eval_div_b(t, x[None])[0]
        c = dmp.eval_c(t, x[None])[0]
        bu, ubp = beta.beta(vals[k]), vals[k] * beta.beta_prime(vals[k])
        reaction = div * (bu - ubp) + c * ubp
        flux = phi.dt(t, x) + np.sum(phi.grad(t, x) * b, axis=-1)
        pieces.append(quad.time_weights[k] * np.sum(flux * bu + phi(t, x) * reaction) * cv)
        flux = np.sum(phi.space.grad(x) * b, axis=-1)
        rhs.append(np.sum(flux * bu + phi.space(x) * reaction) * cv)
    return abs(math.fsum(pieces)), np.array(rhs)


@pytest.mark.parametrize("d, autonomous", [(1, True), (1, False), (2, True), (2, False)])
def test_weak_form_matches_per_time_node_loop(d, autonomous):
    # b = (1 + t) x and c = 1 + t when time-dependent, else b = x and c = 1
    scale = (lambda t: 1.0 + t) if not autonomous else (lambda t: 1.0)
    spec = VelocityFieldSpec(
        dimension=d, eval_b=lambda t, x: scale(t) * np.asarray(x, dtype=float),
        eval_div_b=lambda t, x: np.full(np.asarray(x).shape[:-1], d * scale(t)),
        continuous=True, div_sup=lambda t: d * scale(t), horizon=1.0,
        autonomous=autonomous)
    dmp = DampingFieldSpec(
        eval_c=lambda t, x: np.full(np.asarray(x).shape[:-1], scale(t)),
        autonomous=autonomous)
    quad = make_quadrature(d, 2.0, 24 if d == 1 else 12, 1.0, 10)
    rng = np.random.default_rng(7)
    u = DensityRepresentation(quad, rng.normal(size=(quad.times.size,
                                                     quad.points.shape[0])))
    beta, phi, u0 = make_beta_arctan(1.0), compact_space_time(d, 1.0, 1.5), u0_fn("bump", d)
    residual, rhs = _per_node_reference(u, beta, phi, spec, dmp, u0)
    assert weak_residual(u, beta, phi, spec, dmp, u0) == residual
    assert np.array_equal(gamma_trace(u, beta, phi.space, spec, dmp).rhs, rhs)


# --- Gamma traces ----------------------------------------------------------------

def test_gamma_trace_zero_density():
    spec, dmp = field("zero", T=1.0), damping("zero")
    quad = make_quadrature(1, 2.0, 64, 1.0, 32)
    u = _zeros(quad)
    trace = gamma_trace(u, make_beta_arctan(1.0), make_phi_R(2.0, 1), spec, dmp)
    assert np.all(trace.values == 0.0)
    assert np.all(trace.rhs == 0.0)


def test_gamma_trace_rejects_nan_damping():
    spec = field("zero", T=1.0)
    dmp = DampingFieldSpec(
        eval_c=lambda t, x: np.where(np.asarray(x)[..., 0] > 0.5, np.nan, 0.0))
    quad = make_quadrature(1, 2.0, 16, 1.0, 8)
    u = _zeros(quad)
    with pytest.raises(NonFiniteDampingError):
        gamma_trace(u, make_beta_arctan(1.0), make_phi_R(2.0, 1), spec, dmp)


def test_gamma_trace_constant_solution():
    spec, dmp, u0 = field("zero", T=1.0), damping("zero"), u0_fn("bump")
    quad = make_quadrature(1, 2.0, 128, 1.0, 64)
    u = _solution_on(quad, spec, dmp, u0, steps=8)
    trace = gamma_trace(u, make_beta_arctan(1.0), make_phi_R(2.0, 1), spec, dmp)
    dgamma = np.abs(np.diff(trace.values) / np.diff(trace.times))
    assert np.max(dgamma) <= 1e-8
    assert trace.consistency <= 1e-8


def test_gamma_trace_nonnegative_for_nonnegative_renormalizer():
    # beta_delta >= 0 and phi_R >= 0 force Gamma >= 0 node by node
    spec, dmp, u0 = field("linear_expand"), damping("zero"), u0_fn("bump")
    quad = make_quadrature(1, 3.0, 64, 1.0, 16)
    u = _solution_on(quad, spec, dmp, u0, steps=32)
    trace = gamma_trace(u, make_beta_log(1e-3), make_phi_R(2.0, 1), spec, dmp)
    assert np.all(trace.values >= 0.0)


def test_gamma_trace_consistency_second_order():
    # b = x representation solution: dGamma/dt matches the tested RHS
    spec, dmp, u0 = field("linear_expand"), damping("zero"), u0_fn("bump")
    cons = []
    for n in (32, 64, 128):
        quad = make_quadrature(1, 3.0, n, 1.0, n)
        u = _solution_on(quad, spec, dmp, u0, steps=max(64, n))
        trace = gamma_trace(u, make_beta_arctan(1.0), make_phi_R(2.0, 1),
                            spec, dmp)
        cons.append(trace.consistency)
    assert cons[-1] < cons[0]
    assert np.log2(cons[0] / cons[-1]) / 2.0 >= 1.7


# --- L2 energy ------------------------------------------------------------------

def test_l2_energy_constant():
    spec, dmp, u0 = field("zero", T=1.0), damping("zero"), u0_fn("bump")
    quad = make_quadrature(1, 2.0, 128, 1.0, 32)
    u = _solution_on(quad, spec, dmp, u0, steps=8)
    _, curve, envelope = l2_energy_diagnostic(u, spec, dmp)
    assert holds_below(curve, envelope, 0.05)
    assert np.max(np.abs(curve - curve[0])) <= 1e-14


def test_l2_energy_exponential_equality():
    # c = 1 everywhere: energy e^{2t} E0, meeting the envelope exactly
    spec, dmp, u0 = field("zero", T=1.0), unit_damping(), u0_fn("bump")
    quad = make_quadrature(1, 2.0, 128, 1.0, 32)
    u = _solution_on(quad, spec, dmp, u0, steps=8)
    _, curve, envelope = l2_energy_diagnostic(u, spec, dmp)
    assert holds_below(curve, envelope, 0.05)
    assert np.max(np.abs(curve - envelope)) <= 1e-10 * curve[0]


def test_l2_energy_contractive_flow():
    # b = x: integral of u^2 equals e^{-t} E0, below the e^{t} envelope
    spec, dmp, u0 = field("linear_expand"), damping("zero"), u0_fn("bump")
    quad = make_quadrature(1, 3.0, 256, 1.0, 32)
    u = _solution_on(quad, spec, dmp, u0, steps=64)
    times, curve, envelope = l2_energy_diagnostic(u, spec, dmp)
    assert holds_below(curve, envelope, 0.05)
    expected = curve[0] * np.exp(-times)
    assert np.max(np.abs(curve - expected)) <= 1e-3 * curve[0]


def test_l2_energy_curve_and_envelope_match_closed_forms():
    # b = x, c = 0 in 1-D: u(t, x) = u0(x e^{-t}) e^{-t}, so the energy is
    # e^{-t} E0 on the whole line, and the box of radius 3 holds the support
    # of u0 (radius 0.8) stretched by e. Declaring sup_c(t) = t, a true bound
    # on c = 0, makes the envelope's rate 2t + 1, whose trapezoid is exact:
    # the envelope is E0 exp(t + t^2). A left-Riemann cumtrapz moves it by 6 %
    spec, u0 = field("linear_expand"), u0_fn("bump")
    dmp = dataclasses.replace(damping("zero"), sup_c=lambda t: t)
    quad = make_quadrature(1, 3.0, 256, 1.0, 16)
    u = _solution_on(quad, spec, dmp, u0, steps=256)
    times, curve, envelope = l2_energy_diagnostic(u, spec, dmp)
    assert np.max(np.abs(curve - curve[0] * np.exp(-times))) <= 1e-9 * curve[0]
    assert np.max(np.abs(envelope - curve[0] * np.exp(times + times**2))) <= 1e-14 * curve[0]


def test_l2_energy_rejects_singular_damping():
    spec, dmp, u0 = field("zero", T=1.0), damping("inv_sqrt"), u0_fn("bump")
    quad = make_quadrature(1, 2.0, 32, 1.0, 8)
    u = _zeros(quad)
    with pytest.raises(UnboundedDampingError):
        l2_energy_diagnostic(u, spec, dmp)


# --- logarithmic Gronwall ---------------------------------------------------------

def _log_gronwall(u, delta, R, spec, dmp, growth):
    """(Gamma trace, plain Gronwall constants) at (delta, R)."""
    phi_R = make_phi_R(R, u.quad.d)
    trace = gamma_trace(u, make_beta_log(delta), phi_R, spec, dmp)
    return trace, gronwall_constants(profile(spec.div_sup, u.times), dmp, growth,
                                     phi_R, u.times)


def test_gronwall_zero_solution():
    spec, dmp = field("linear_expand"), damping("box_indicator")
    quad = make_quadrature(1, 3.0, 48, 1.0, 24)
    u = _zeros(quad)
    growth = growth_split(spec, rng=np.random.default_rng(0))
    trace, data = _log_gronwall(u, 1e-4, 2.0, spec, dmp, growth)
    assert data.holds(trace, 1e-4)
    assert np.all(trace.values == 0.0)
    assert data.bound(1e-4) > 0.0
    assert data.tau0 == quad.times[-1]


def test_gronwall_holds_reads_only_up_to_tau0():
    # bound(delta) = e^0 (1 + 0) = 1, so the slack allows Gamma up to 1.1
    data = GronwallBoundData(A=0.0, B_R=1.0, C_R=0.0, C_R_limit=0.0, D=0.0, tau0=0.5)
    assert data.bound(1e-2) == 1.0
    times = np.linspace(0.0, 1.0, 5)

    def trace(values):
        values = np.asarray(values, dtype=float)
        return GammaTrace(times=times, values=values, rhs=np.zeros(5), consistency=0.0)
    assert data.holds(trace([0.0, 0.5, 1.0 + GRONWALL_SLACK, 5.0, 9.0]), 1e-2)
    assert not data.holds(trace([0.0, 1.2, 0.0, 0.0, 0.0]), 1e-2)
    assert not data.holds(trace([0.0, np.nan, 0.0, 0.0, 0.0]), 1e-2)


def test_gronwall_constants_hand_computed():
    # b = x with box damping, d = 1: a = 1 + 2*1 so A = 3; B_R = 2 + 1.5 R;
    # b1 = 0 so C_R = 0 at every R (trapezoids of constants are exact)
    spec, dmp = field("linear_expand"), damping("box_indicator")
    growth = growth_split(spec, rng=np.random.default_rng(3))
    times = np.linspace(0.0, 1.0, 33)
    for R in (2.0, 8.0):
        data = gronwall_constants(profile(spec.div_sup, times), dmp, growth,
                                  make_phi_R(R, 1), times)
        assert data.A == pytest.approx(3.0, rel=1e-14)
        assert data.B_R == pytest.approx(2.0 + 1.5 * R, rel=1e-14)
        assert data.C_R == 0.0 and data.C_R_limit == 0.0


def test_gronwall_constants_of_compact_support_b_match_closed_forms():
    # compact_bump: div b = -6 s (1 - s^2)^2 peaks in modulus at s = 1/sqrt(5),
    # so A = ||div b||_inf = 96 / (25 sqrt 5) over [0, 1] (b2 = 0), and with
    # c = 0 and ||phi_R||_1 = 1.5 R, B_R = 12 A at R = 8, past the support
    # of b1, where C_R = 0
    spec, dmp = field("compact_bump"), damping("zero")
    growth = growth_split(spec, rng=np.random.default_rng(0))
    times = np.linspace(0.0, 1.0, 33)
    data = gronwall_constants(profile(spec.div_sup, times), dmp, growth,
                              make_phi_R(8.0, 1), times)
    A = 96.0 / (25.0 * math.sqrt(5.0))
    assert data.A == pytest.approx(A, rel=1e-14)
    assert data.B_R == pytest.approx(12.0 * A, rel=1e-14)
    assert data.C_R == 0.0


def test_gronwall_bound_delta_slope_inside_the_support_of_b1():
    # compact_bump's b1 reaches outside B_0.5, where C_R = 2; between two
    # deltas the bound moves by exp(A) C_R times the change of the log term
    spec, dmp = field("compact_bump"), damping("zero")
    growth = growth_split(spec, rng=np.random.default_rng(0))
    times = np.linspace(0.0, 1.0, 33)
    data = gronwall_constants(profile(spec.div_sup, times), dmp, growth,
                              make_phi_R(0.5, 1), times)
    assert data.C_R == 2.0
    for delta, other in ((1e-2, 1e-4), (1e-4, 1e-8)):
        slope = math.exp(data.A) * data.C_R * (math.log1p(math.pi ** 2 / (4.0 * delta))
                                               - math.log1p(math.pi ** 2 / (4.0 * other)))
        assert data.bound(delta) - data.bound(other) == pytest.approx(slope, rel=1e-12)


def test_gronwall_gamma_monotone_in_delta():
    spec, dmp, u0 = field("linear_expand"), damping("box_indicator"), u0_fn("bump")
    quad = make_quadrature(1, 3.0, 64, 1.0, 24)
    coarse = _solution_on(quad, spec, dmp, u0, steps=48)
    fine = _solution_on(quad, spec, dmp, u0, steps=96)
    u = DensityRepresentation(quad, coarse.values - fine.values)
    growth = growth_split(spec, rng=np.random.default_rng(0))
    maxima = []
    for delta in (1e-2, 1e-4, 1e-6):
        trace, data = _log_gronwall(u, delta, 4.0, spec, dmp, growth)
        assert data.holds(trace, delta)
        maxima.append(float(np.max(trace.values)))
    assert maxima[0] <= maxima[1] <= maxima[2]


def test_gronwall_compact_field_delta_independent():
    # b1 supported in B_1 and R = 8: C_R = 0, the bound loses its delta term
    spec, dmp, u0 = field("compact_bump"), damping("zero"), u0_fn("bump")
    quad = make_quadrature(1, 2.0, 48, 1.0, 16)
    coarse = _solution_on(quad, spec, dmp, u0, steps=32)
    fine = _solution_on(quad, spec, dmp, u0, steps=64)
    u = DensityRepresentation(quad, coarse.values - fine.values)
    growth = growth_split(spec, rng=np.random.default_rng(1))
    bounds = []
    for delta in (1e-2, 1e-4, 1e-6):
        trace, data = _log_gronwall(u, delta, 8.0, spec, dmp, growth)
        assert data.holds(trace, delta)
        assert data.C_R == 0.0
        bounds.append(data.bound(delta))
    assert max(bounds) - min(bounds) <= 1e-12 * max(bounds)


@pytest.mark.parametrize("scenario_id, quad_shape, fall", [
    ("twin_difference_gronwall", (96, 48), 3.9),
    ("compact_support_b", (96, 32), 15.5),
])
def test_twin_difference_misses_the_tested_equation_by_a_fixed_multiple(
        tmp_path, scenario_id, quad_shape, fall):
    # the scenario's Gamma trace at delta = 1e-2 and R = r_list[0], at 96, 192
    # and 384 ODE steps: the consistency of the twin difference falls with the
    # twin's own size (4.01x and 4.00x per doubling on the twin, 16.0x on
    # compact_support_b), so consistency / max Gamma stays put (4.043-4.044
    # and 0.702); refining the steps never makes it solve the tested equation
    rows = []
    for steps in (96, 192, 384):
        ctx = build_context(resolve({"scenario_id": scenario_id, "steps": steps,
                                     "output_dir": str(tmp_path)}))
        trace = gamma_trace(ctx.twin_difference(quad_shape), make_beta_log(1e-2),
                            make_phi_R(ctx.cfg.r_list[0], ctx.d), ctx.field, ctx.damping)
        rows.append((trace.consistency, float(np.max(trace.values))))
    cons = [c for c, _ in rows]
    assert all(coarse >= fall * fine for coarse, fine in zip(cons, cons[1:])), cons
    ratios = [c / g for c, g in rows]
    assert max(ratios) <= 1.01 * min(ratios), ratios


# --- uniqueness probe --------------------------------------------------------------

def _probe_data(spec, dmp, quad, R=8.0):
    growth = growth_split(spec, rng=np.random.default_rng(2))
    return gronwall_constants(profile(spec.div_sup, quad.times), dmp, growth,
                              make_phi_R(R, 1), quad.times)


def test_uniqueness_probe_zero_solution_consistent():
    spec, dmp = field("linear_expand"), damping("box_indicator")
    quad = make_quadrature(1, 3.0, 32, 1.0, 16)
    u = _zeros(quad)
    rep = uniqueness_probe(u, 1e-8, 2.5, [1e-2, 1e-6, 1e-10],
                           _probe_data(spec, dmp, quad))
    assert rep.verdict == "consistent"
    assert rep.m == 0.0


def test_uniqueness_probe_flags_injected_nonzero():
    # nonzero u with zero datum: positive m against a vanishing limit bound
    spec, dmp = field("linear_expand"), damping("box_indicator")
    quad = make_quadrature(1, 3.0, 64, 1.0, 16)
    vals = np.zeros((quad.times.size, quad.points.shape[0]))
    vals[1:] = 0.5 * bump(1, 1.0)(quad.points)[None, :]
    u = DensityRepresentation(quad, vals)
    rep = uniqueness_probe(u, 1e-3, 2.5, [1e-2, 1e-6, 1e-10],
                           _probe_data(spec, dmp, quad))
    assert rep.m > 0.0
    assert rep.limit_bound == 0.0
    assert rep.verdict == "forces u=0"


def test_uniqueness_probe_inconclusive_under_limit_bound():
    # the same nonzero u, but a large-R limit bound exp(0) * 1 * 2^2 = 4 above
    # m (about 2, the support of the bump): no contradiction either way
    quad = make_quadrature(1, 3.0, 64, 1.0, 16)
    vals = np.zeros((quad.times.size, quad.points.shape[0]))
    vals[1:] = 0.5 * bump(1, 1.0)(quad.points)[None, :]
    u = DensityRepresentation(quad, vals)
    data = GronwallBoundData(A=0.0, B_R=1.0, C_R=0.0, C_R_limit=1.0, D=0.0, tau0=1.0)
    rep = uniqueness_probe(u, 1e-3, 2.5, [1e-2, 1e-6, 1e-10], data)
    assert rep.limit_bound == 4.0
    assert 0.0 < rep.m < rep.limit_bound
    assert rep.verdict == "inconclusive"
    # a limit bound equal to m is not exceeded by m: still inconclusive
    at_m = dataclasses.replace(data, C_R_limit=rep.m / 4.0)
    edge = uniqueness_probe(u, 1e-3, 2.5, [1e-2, 1e-6, 1e-10], at_m)
    assert edge.m == edge.limit_bound
    assert edge.verdict == "inconclusive"
