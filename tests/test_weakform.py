"""Weak-form residuals, Gamma traces, energy and Gronwall diagnostics."""

import numpy as np
import pytest

from rough_transport.errors import (NonFiniteDampingError, SupportOverflowError,
                                    UnboundedDampingError)
from rough_transport.fields import DampingFieldSpec, growth_split
from rough_transport.flow import seeds_from_points
from rough_transport.numerics import profile
from rough_transport.renormalization import make_beta_arctan, make_beta_log, make_phi_R
from rough_transport.representation import DensityRepresentation, pointwise_solution
from rough_transport.testfunctions import (SpaceTimeTestFunction, TimeWindow, bump,
                                           compact_space_time, gaussian)
from rough_transport.weakform import (GRONWALL_SLACK, GammaTrace, GronwallBoundData,
                                      gamma_trace, gronwall_constants,
                                      l2_energy_diagnostic, make_quadrature,
                                      uniqueness_probe, weak_residual,
                                      weak_residual_study)

from conftest import damping, field, u0_fn, unit_damping


def _solution_on(quad, spec, dmp, u0, steps=64):
    grid = seeds_from_points(quad.points, quad.cell_volume)
    return pointwise_solution(spec, dmp, u0, grid, quad.times, steps)


def _density(quad, values):
    return DensityRepresentation(
        times=quad.times.copy(), points=quad.points,
        values=values, cell_volume=quad.cell_volume)


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
    rep = weak_residual(u, make_beta_arctan(1.0), phi, spec, dmp, u0, quad)
    assert rep.residual <= 1e-6


def test_weak_residual_exponential_solution_order():
    # b = 0, c = 1 on B_1, u0 inside: u = u0 e^t, refinement order >= 2
    spec, dmp, u0 = field("zero", T=1.0), damping("box_indicator"), u0_fn("bump")
    quads = [make_quadrature(1, 2.0, n, 1.0, n // 2) for n in (64, 128, 256)]
    rep = weak_residual_study(
        [(q, _solution_on(q, spec, dmp, u0, steps=16)) for q in quads],
        make_beta_arctan(1.0), compact_space_time(1, 1.0, space_radius=1.5),
        spec, dmp, u0)
    assert rep.order is not None and rep.order >= 1.9
    hs = [row[0] for row in rep.history]
    res = [row[2] for row in rep.history]
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
        regularity_tag="bv_nonsmooth", div_sup=lambda t: 1.0, horizon=1.0,
        label="kinked")
    # the mollification scale must be resolved by the coarsest grid, and the
    # ladder must sit past the pre-asymptotic regime where lucky cancellations
    # in the layer quadrature break monotonicity
    smooth = mollify(kinked, make_mollifier(0.2, 1))
    dmp, u0 = damping("zero"), u0_fn("bump")
    quads = [make_quadrature(1, 3.0, n, 1.0, 64) for n in (96, 192, 384)]
    rep = weak_residual_study(
        [(q, _solution_on(q, smooth, dmp, u0, steps=64)) for q in quads],
        make_beta_arctan(1.0), compact_space_time(1, 1.0, space_radius=2.5),
        smooth, dmp, u0)
    res = [row[2] for row in rep.history]
    assert all(b < a for a, b in zip(res, res[1:]))
    assert rep.order >= 1.0 - 0.1


def test_weak_residual_detects_tampering():
    # add a bump after T/2: the residual equals the jump term, >> 0.1 * int phi
    spec, dmp = field("zero", T=1.0), damping("zero")
    u0 = u0_fn("bump")
    quad = make_quadrature(1, 2.0, 128, 1.0, 128)
    u = _solution_on(quad, spec, dmp, u0, steps=16)
    jump = 2.0 * bump(1, 0.9)(quad.points)
    tampered = u.values.copy()
    tampered[quad.times > 0.5] += jump[None, :]
    u_bad = _density(quad, tampered)
    phi = compact_space_time(1, 1.0, space_radius=1.5)
    rep = weak_residual(u_bad, make_beta_arctan(1.0), phi, spec, dmp, u0, quad)
    # the window integrates to 0.75 T: 1 up to 0.55 T, an antisymmetric step to 0.95 T
    assert rep.residual >= 0.1 * 0.75 * phi.space.reference_integral


def test_weak_residual_support_overflow():
    spec, dmp, u0 = field("zero", T=1.0), damping("zero"), u0_fn("bump")
    quad = make_quadrature(1, 1.0, 32, 1.0, 16)
    u = _solution_on(quad, spec, dmp, u0, steps=4)
    phi = compact_space_time(1, 1.0, space_radius=1.5)
    with pytest.raises(SupportOverflowError):
        weak_residual(u, make_beta_arctan(1.0), phi, spec, dmp, u0, quad)


def test_weak_residual_rejects_infinite_support():
    # a Gaussian space factor is never compactly supported: it is refused,
    # not cut off at the box
    spec, dmp, u0 = field("zero", T=1.0), damping("zero"), u0_fn("bump")
    quad = make_quadrature(1, 2.0, 32, 1.0, 16)
    u = _solution_on(quad, spec, dmp, u0, steps=4)
    phi = SpaceTimeTestFunction(window=TimeWindow(0.55, 0.95), space=gaussian(1, 0.3))
    with pytest.raises(SupportOverflowError, match="inf"):
        weak_residual(u, make_beta_arctan(1.0), phi, spec, dmp, u0, quad)


def test_weak_residual_matches_gamma_trace_identity():
    # dual route: for separable phi = eta(t) psi(x) the space-time residual
    # equals |eta(0) Gamma_0 + sum tw_k (eta' Gamma + eta RHS)| node for node,
    # for ANY sampled u, solution or not; this pins every sign in both paths
    spec, dmp, u0 = field("linear_expand"), damping("box_indicator"), u0_fn("bump")
    quad = make_quadrature(1, 3.0, 48, 1.0, 24)
    rng = np.random.default_rng(123)
    vals = rng.normal(size=(quad.times.size, quad.points.shape[0]))
    u = _density(quad, vals)
    beta = make_beta_arctan(1.0)
    phi = compact_space_time(1, 1.0, space_radius=2.0)

    rep = weak_residual(u, beta, phi, spec, dmp, u0, quad)

    trace = gamma_trace(u, beta, phi.space, spec, dmp, quad, 0.0)
    eta = phi.window(quad.times)
    eta_prime = phi.window.prime(quad.times)
    tw = quad.time_weights
    gamma0 = float(np.sum(phi.space(quad.points) * beta.beta(u0(quad.points)))
                   * quad.cell_volume)
    reconstructed = abs(float(eta[0] * gamma0
                              + np.sum(tw * (eta_prime * trace.values
                                             + eta * trace.rhs))))
    assert rep.residual == pytest.approx(reconstructed, rel=1e-12, abs=1e-13)


# --- Gamma traces ----------------------------------------------------------------

def test_gamma_trace_zero_density():
    spec, dmp = field("zero", T=1.0), damping("zero")
    quad = make_quadrature(1, 2.0, 64, 1.0, 32)
    u = _density(quad, np.zeros((quad.times.size, quad.points.shape[0])))
    trace = gamma_trace(u, make_beta_arctan(1.0), make_phi_R(2.0, 1), spec, dmp, quad, 0.0)
    assert np.all(trace.values == 0.0)
    assert np.all(trace.rhs == 0.0)


def test_gamma_trace_rejects_nan_damping():
    spec = field("zero", T=1.0)
    dmp = DampingFieldSpec(
        eval_c=lambda t, x: np.where(np.asarray(x)[..., 0] > 0.5, np.nan, 0.0))
    quad = make_quadrature(1, 2.0, 16, 1.0, 8)
    u = _density(quad, np.zeros((quad.times.size, quad.points.shape[0])))
    with pytest.raises(NonFiniteDampingError):
        gamma_trace(u, make_beta_arctan(1.0), make_phi_R(2.0, 1), spec, dmp, quad, 0.0)


def test_gamma_trace_constant_solution():
    spec, dmp, u0 = field("zero", T=1.0), damping("zero"), u0_fn("bump")
    quad = make_quadrature(1, 2.0, 128, 1.0, 64)
    u = _solution_on(quad, spec, dmp, u0, steps=8)
    trace = gamma_trace(u, make_beta_arctan(1.0), make_phi_R(2.0, 1), spec, dmp, quad, 0.0)
    dgamma = np.abs(np.diff(trace.values) / np.diff(trace.times))
    assert np.max(dgamma) <= 1e-8
    assert trace.consistency <= 1e-8


def test_gamma_trace_nonnegative_for_nonnegative_renormalizer():
    # beta_delta >= 0 and phi_R >= 0 force Gamma >= 0 node by node
    spec, dmp, u0 = field("linear_expand"), damping("zero"), u0_fn("bump")
    quad = make_quadrature(1, 3.0, 64, 1.0, 16)
    u = _solution_on(quad, spec, dmp, u0, steps=32)
    trace = gamma_trace(u, make_beta_log(1e-3), make_phi_R(2.0, 1), spec, dmp, quad, 0.0)
    assert np.all(trace.values >= 0.0)


def test_gamma_trace_consistency_second_order():
    # b = x representation solution: dGamma/dt matches the tested RHS
    spec, dmp, u0 = field("linear_expand"), damping("zero"), u0_fn("bump")
    cons = []
    for n in (32, 64, 128):
        quad = make_quadrature(1, 3.0, n, 1.0, n)
        u = _solution_on(quad, spec, dmp, u0, steps=max(64, n))
        trace = gamma_trace(u, make_beta_arctan(1.0), make_phi_R(2.0, 1),
                            spec, dmp, quad, 0.0)
        cons.append(trace.consistency)
    assert cons[-1] < cons[0]
    assert np.log2(cons[0] / cons[-1]) / 2.0 >= 1.7


# --- L2 energy ------------------------------------------------------------------

def test_l2_energy_constant():
    spec, dmp, u0 = field("zero", T=1.0), damping("zero"), u0_fn("bump")
    quad = make_quadrature(1, 2.0, 128, 1.0, 32)
    u = _solution_on(quad, spec, dmp, u0, steps=8)
    _, curve, envelope, ok = l2_energy_diagnostic(u, spec, dmp, quad)
    assert ok
    assert np.max(np.abs(curve - curve[0])) <= 1e-14


def test_l2_energy_exponential_equality():
    # c = 1 everywhere: energy e^{2t} E0, meeting the envelope exactly
    spec, dmp, u0 = field("zero", T=1.0), unit_damping(), u0_fn("bump")
    quad = make_quadrature(1, 2.0, 128, 1.0, 32)
    u = _solution_on(quad, spec, dmp, u0, steps=8)
    _, curve, envelope, ok = l2_energy_diagnostic(u, spec, dmp, quad)
    assert ok
    assert np.max(np.abs(curve - envelope)) <= 1e-10 * curve[0]


def test_l2_energy_contractive_flow():
    # b = x: integral of u^2 equals e^{-t} E0, below the e^{t} envelope
    spec, dmp, u0 = field("linear_expand"), damping("zero"), u0_fn("bump")
    quad = make_quadrature(1, 3.0, 256, 1.0, 32)
    u = _solution_on(quad, spec, dmp, u0, steps=64)
    times, curve, envelope, ok = l2_energy_diagnostic(u, spec, dmp, quad)
    assert ok
    expected = curve[0] * np.exp(-times)
    assert np.max(np.abs(curve - expected)) <= 1e-3 * curve[0]


def test_l2_energy_rejects_singular_damping():
    spec, dmp, u0 = field("zero", T=1.0), damping("inv_sqrt"), u0_fn("bump")
    quad = make_quadrature(1, 2.0, 32, 1.0, 8)
    u = _density(quad, np.zeros((quad.times.size, quad.points.shape[0])))
    with pytest.raises(UnboundedDampingError):
        l2_energy_diagnostic(u, spec, dmp, quad)


# --- logarithmic Gronwall ---------------------------------------------------------

def _log_gronwall(u, delta, R, spec, dmp, growth, quad):
    """(Gamma trace, plain Gronwall constants) at (delta, R)."""
    phi_R = make_phi_R(R, quad.d)
    trace = gamma_trace(u, make_beta_log(delta), phi_R, spec, dmp, quad, 0.0)
    return trace, gronwall_constants(profile(spec.div_sup, quad.times), dmp, growth,
                                     phi_R, quad.times)


def test_gronwall_zero_solution():
    spec, dmp = field("linear_expand"), damping("box_indicator")
    quad = make_quadrature(1, 3.0, 48, 1.0, 24)
    u = _density(quad, np.zeros((quad.times.size, quad.points.shape[0])))
    growth = growth_split(spec, rng=np.random.default_rng(0))
    trace, data = _log_gronwall(u, 1e-4, 2.0, spec, dmp, growth, quad)
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


def test_gronwall_gamma_monotone_in_delta():
    spec, dmp, u0 = field("linear_expand"), damping("box_indicator"), u0_fn("bump")
    quad = make_quadrature(1, 3.0, 64, 1.0, 24)
    coarse = _solution_on(quad, spec, dmp, u0, steps=48)
    fine = _solution_on(quad, spec, dmp, u0, steps=96)
    u = _density(quad, coarse.values - fine.values)
    growth = growth_split(spec, rng=np.random.default_rng(0))
    maxima = []
    for delta in (1e-2, 1e-4, 1e-6):
        trace, data = _log_gronwall(u, delta, 4.0, spec, dmp, growth, quad)
        assert data.holds(trace, delta)
        maxima.append(float(np.max(trace.values)))
    assert maxima[0] <= maxima[1] <= maxima[2]


def test_gronwall_compact_field_delta_independent():
    # b1 supported in B_1 and R = 8: C_R = 0, the bound loses its delta term
    spec, dmp, u0 = field("compact_bump"), damping("zero"), u0_fn("bump")
    quad = make_quadrature(1, 2.0, 48, 1.0, 16)
    coarse = _solution_on(quad, spec, dmp, u0, steps=32)
    fine = _solution_on(quad, spec, dmp, u0, steps=64)
    u = _density(quad, coarse.values - fine.values)
    growth = growth_split(spec, rng=np.random.default_rng(1))
    bounds = []
    for delta in (1e-2, 1e-4, 1e-6):
        trace, data = _log_gronwall(u, delta, 8.0, spec, dmp, growth, quad)
        assert data.holds(trace, delta)
        assert data.C_R == 0.0
        bounds.append(data.bound(delta))
    assert max(bounds) - min(bounds) <= 1e-12 * max(bounds)


# --- uniqueness probe --------------------------------------------------------------

def _probe_data(spec, dmp, quad, R=8.0):
    growth = growth_split(spec, rng=np.random.default_rng(2))
    return gronwall_constants(profile(spec.div_sup, quad.times), dmp, growth,
                              make_phi_R(R, 1), quad.times)


def test_uniqueness_probe_zero_solution_consistent():
    spec, dmp = field("linear_expand"), damping("box_indicator")
    quad = make_quadrature(1, 3.0, 32, 1.0, 16)
    u = _density(quad, np.zeros((quad.times.size, quad.points.shape[0])))
    rep = uniqueness_probe(u, 1e-8, 2.5, [1e-2, 1e-6, 1e-10],
                           _probe_data(spec, dmp, quad), quad)
    assert rep.verdict == "consistent"
    assert rep.m == 0.0


def test_uniqueness_probe_flags_injected_nonzero():
    # nonzero u with zero datum: positive m against a vanishing limit bound
    spec, dmp = field("linear_expand"), damping("box_indicator")
    quad = make_quadrature(1, 3.0, 64, 1.0, 16)
    vals = np.zeros((quad.times.size, quad.points.shape[0]))
    vals[1:] = 0.5 * bump(1, 1.0)(quad.points)[None, :]
    u = _density(quad, vals)
    rep = uniqueness_probe(u, 1e-3, 2.5, [1e-2, 1e-6, 1e-10],
                           _probe_data(spec, dmp, quad), quad)
    assert rep.m > 0.0
    assert rep.limit_bound == 0.0
    assert rep.verdict == "forces u=0"
