"""Renormalized weak-form residuals and Gronwall uniqueness diagnostics.

The weak residual evaluates, by space-time quadrature with analytic test
function derivatives,

    phi(0)beta(u0) + [dt phi + grad phi . b] beta(u)
                  + phi [div b (beta(u) - u beta'(u)) + c u beta'(u)]

which vanishes for renormalized solutions. The Gronwall diagnostics trace
Gamma(t) = integral of phi beta(u) and compare against the bound
exp(A)(B_R + log(1 + pi^2/(4 delta)) C_R) assembled from the scenario's
divergence sup profile, growth split and damping L1 profile.
"""

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .errors import SupportOverflowError, UnboundedDampingError
from .fields import (DampingFieldSpec, GrowthSplit, VelocityFieldSpec, sample_damping,
                     sample_nodes)
from .numerics import (cell_centers, cumtrapz, holds_below, order_estimate, profile,
                       stable_sum, tensor_points, trapezoid_weights, trapz)
from .renormalization import Renormalizer, TestFunctionPhiR, make_beta_log, make_phi_R
from .representation import DensityRepresentation


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceTimeQuadrature:
    """Tensor quadrature: trapezoid in time, midpoint cells in space.

    The combined weights sum to (box volume) x T. ``tail_bound`` optionally
    carries an analytic bound on the mass a phi_R-type integrand keeps
    outside the truncated box.
    """

    times: np.ndarray          # (K+1,), includes 0 and T
    points: np.ndarray         # (N, d) cell centers in [-radius, radius]^d
    h: float
    tau: float
    cell_volume: float
    radius: float
    tail_bound: Optional[Callable] = None

    @property
    def d(self):
        return self.points.shape[-1]

    @property
    def time_weights(self):
        return trapezoid_weights(self.times)


def make_quadrature(dimension, radius, n_space, T, n_time,
                    tail_bound=None) -> SpaceTimeQuadrature:
    h = 2.0 * radius / n_space
    points = tensor_points([cell_centers(radius, n_space)] * dimension)
    times = np.linspace(0.0, T, n_time + 1)
    return SpaceTimeQuadrature(times=times, points=points, h=h,
                               tau=times[1] - times[0],
                               cell_volume=h ** dimension, radius=radius,
                               tail_bound=tail_bound)


def _check_alignment(u: DensityRepresentation, quad: SpaceTimeQuadrature):
    if u.values.shape != (quad.times.shape[0], quad.points.shape[0]):
        raise ValueError("density representation is not sampled on the quadrature nodes")
    if not np.array_equal(u.times, quad.times):
        raise ValueError("density time grid differs from the quadrature time grid")


def _field_tables(field, damping, quad, eta=0.0):
    """b, div b and the cut-off c on the full space-time node set.

    What does not depend on time is sampled on one row of points and
    broadcast over the time nodes; the tables are read-only views.
    """
    def nodes(autonomous):
        if autonomous:
            return quad.times[:1], quad.points[None]
        return quad.times, np.broadcast_to(quad.points,
                                           quad.times.shape + quad.points.shape)

    at_b, at_c = nodes(field.autonomous), nodes(damping.autonomous)
    tables = (sample_nodes(field.eval_b, field.autonomous, *at_b),
              sample_nodes(field.eval_div_b, field.autonomous, *at_b),
              sample_damping(damping, *at_c, eta)[0])
    return tuple(np.broadcast_to(v, quad.times.shape + v.shape[1:]) for v in tables)


# ---------------------------------------------------------------------------
# weak residual
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeakResidualReport:
    residual: float
    history: tuple = ()            # (h, tau, residual) triples, strictly refining
    order: Optional[float] = None
    tail_bound: float = 0.0


def weak_residual(u: DensityRepresentation, beta: Renormalizer, phi,
                  field: VelocityFieldSpec, damping: DampingFieldSpec, u0,
                  quad: SpaceTimeQuadrature, eta=0.0) -> WeakResidualReport:
    """Quadrature value of the renormalized weak form (zero for solutions).

    ``phi`` is a space-time test function with analytic dt/grad, compactly
    supported in [0, T) x R^d or of phi_R type with the quadrature's tail
    policy. Singular damping values are truncated within eta, matching the
    solution-side policy.
    """
    _check_alignment(u, quad)
    if np.isfinite(phi.support_radius) and phi.support_radius > quad.radius:
        raise SupportOverflowError(
            f"phi support radius {phi.support_radius:g} exceeds the quadrature box "
            f"radius {quad.radius:g}"
        )
    bvals, divvals, cvals = _field_tables(field, damping, quad, eta)

    bu = np.asarray(beta.beta(u.values), dtype=float)
    bpu = np.asarray(beta.beta_prime(u.values), dtype=float)
    ubp = u.values * bpu

    tw = quad.time_weights
    pieces = []

    u0_vals = np.asarray(u0(quad.points), dtype=float)
    phi0 = np.asarray(phi(0.0, quad.points), dtype=float)
    pieces.append(np.sum(phi0 * np.asarray(beta.beta(u0_vals), dtype=float))
                  * quad.cell_volume)

    for k, t in enumerate(quad.times):
        t = float(t)
        dtphi = np.asarray(phi.dt(t, quad.points), dtype=float)
        gphi = np.asarray(phi.grad(t, quad.points), dtype=float)
        phiv = np.asarray(phi(t, quad.points), dtype=float)
        transport = (dtphi + np.sum(gphi * bvals[k], axis=-1)) * bu[k]
        reaction = phiv * (divvals[k] * (bu[k] - ubp[k]) + cvals[k] * ubp[k])
        pieces.append(tw[k] * np.sum(transport + reaction) * quad.cell_volume)

    residual = abs(stable_sum(pieces))
    tail = 0.0
    if quad.tail_bound is not None:
        tail = float(quad.tail_bound(quad.radius))
    return WeakResidualReport(residual=residual,
                              history=((quad.h, quad.tau, residual),),
                              tail_bound=tail)


def weak_residual_study(u_builder, beta, phi, field, damping, u0, quads,
                        eta=0.0) -> WeakResidualReport:
    """Residuals over a strictly refining ladder with an order estimate.

    ``u_builder(quad)`` must produce the density representation sampled on
    that quadrature's nodes.
    """
    hs = [q.h for q in quads]
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("quadrature ladder must be strictly refining")
    history = []
    for q in quads:
        rep = weak_residual(u_builder(q), beta, phi, field, damping, u0, q, eta)
        history.append((q.h, q.tau, rep.residual))
    # the ladder is indexed by the spatial spacing (tau may refine more slowly
    # or stay fixed when the time error is already at its floor)
    order = order_estimate([row[0] for row in history],
                           [row[2] for row in history])
    return WeakResidualReport(residual=history[-1][2], history=tuple(history),
                              order=order)


# ---------------------------------------------------------------------------
# Gamma traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaTrace:
    """Gamma(t_k) = sum phi(x_i) beta(u(t_k, x_i)) cell_vol, with metadata."""

    times: np.ndarray
    values: np.ndarray
    rhs: Optional[np.ndarray] = None
    bound: Optional[float] = None
    consistency: Optional[float] = None
    passed: Optional[bool] = None
    extras: dict = dc_field(default_factory=dict)


def gamma_trace(u: DensityRepresentation, beta: Renormalizer, phi_space,
                field: VelocityFieldSpec, damping: DampingFieldSpec,
                quad: SpaceTimeQuadrature, eta=0.0) -> GammaTrace:
    """Trace Gamma(t) with the tested-equation right-hand side.

    The consistency figure is the max over steps of the forward difference
    of Gamma against the trapezoid average of the right-hand side.
    """
    _check_alignment(u, quad)
    bvals, divvals, cvals = _field_tables(field, damping, quad, eta)

    phiv = np.asarray(phi_space(quad.points), dtype=float)
    gphi = np.asarray(phi_space.grad(quad.points), dtype=float)

    bu = np.asarray(beta.beta(u.values), dtype=float)
    ubp = u.values * np.asarray(beta.beta_prime(u.values), dtype=float)

    gamma = np.sum(phiv[None, :] * bu, axis=1) * quad.cell_volume
    rhs = np.empty_like(gamma)
    for k in range(quad.times.shape[0]):
        transport = np.sum(gphi * bvals[k], axis=-1) * bu[k]
        reaction = phiv * (divvals[k] * (bu[k] - ubp[k]) + cvals[k] * ubp[k])
        rhs[k] = np.sum(transport + reaction) * quad.cell_volume

    dq = np.diff(gamma) / np.diff(quad.times)
    mid = 0.5 * (rhs[1:] + rhs[:-1])
    consistency = float(np.max(np.abs(dq - mid))) if dq.size else 0.0
    return GammaTrace(times=quad.times.copy(), values=gamma, rhs=rhs,
                      consistency=consistency)


# ---------------------------------------------------------------------------
# DiPerna-Lions L2 energy diagnostic
# ---------------------------------------------------------------------------

def l2_energy_diagnostic(u: DensityRepresentation, field: VelocityFieldSpec,
                         damping: DampingFieldSpec, quad: SpaceTimeQuadrature):
    """t -> integral of u^2 against its Gronwall envelope (bounded damping).

    Envelope: E(0) exp( int_0^t 2||c||_inf + ||div b||_inf ). Returns
    (times, curve, envelope, passed); it passes when the curve stays within
    5 % of the envelope.
    """
    _check_alignment(u, quad)
    if damping.singular_set:
        raise UnboundedDampingError("l2 diagnostic requires bounded damping")
    if damping.sup_c is None:
        raise ValueError("damping needs a sup_c profile for the L2 envelope")
    curve = np.sum(u.values**2, axis=1) * quad.cell_volume
    rate = 2.0 * profile(damping.sup_c, quad.times) + profile(field.div_sup, quad.times)
    envelope = curve[0] * np.exp(cumtrapz(rate[None, :], quad.times)[0])
    return quad.times.copy(), curve, envelope, holds_below(curve, envelope, 0.05)


# ---------------------------------------------------------------------------
# logarithmic Gronwall bound and uniqueness probe
# ---------------------------------------------------------------------------

GRONWALL_SLACK = 0.1     # relative discretization slack of every Gronwall bound


def log_gronwall_bound(A, B, C, delta):
    """exp(A) (B + log(1 + pi^2/(4 delta)) C), the logarithmic Gronwall bound."""
    return math.exp(A) * (B + math.log1p(math.pi ** 2 / (4.0 * delta)) * C)


@dataclass(frozen=True)
class GronwallBoundData:
    """Constants of the localized logarithmic Gronwall estimate."""

    A: float
    B_R: float
    C_R: float
    C_R_limit: float
    R: float
    d: int

    def bound(self, delta):
        return log_gronwall_bound(self.A, self.B_R, self.C_R, delta)


def gronwall_constants(field: VelocityFieldSpec, damping: DampingFieldSpec,
                       growth: GrowthSplit, phi_R: TestFunctionPhiR,
                       times) -> GronwallBoundData:
    """A, B_R, C_R from the scenario's analytic profiles by time quadrature."""
    times = np.asarray(times, dtype=float)
    d = phi_R.d
    sup = profile(field.div_sup, times)
    b2 = profile(growth.b2, times)
    cl1 = damping.l1_profile(times)
    a = sup + (d + 1) * b2
    b_R = cl1 + sup * phi_R.l1_norm
    c_R = (d + 1) * profile(growth.b1_tail_l1, times, phi_R.R)
    c_limit = (d + 1) * profile(growth.b1_tail_l1, times, 1e18)
    return GronwallBoundData(A=trapz(a, times), B_R=trapz(b_R, times),
                             C_R=trapz(c_R, times), C_R_limit=trapz(c_limit, times),
                             R=phi_R.R, d=d)


def gronwall_log_diagnostic(u: DensityRepresentation, delta, R,
                            field: VelocityFieldSpec, damping: DampingFieldSpec,
                            growth: GrowthSplit, quad: SpaceTimeQuadrature,
                            eta=0.0) -> GammaTrace:
    """Gamma_{delta,R}(t) with the log renormalizer against its Gronwall bound.

    Contract: Gamma(t) <= exp(A)(B_R + log(1 + pi^2/(4 delta)) C_R) at all
    time nodes, up to the factor 1 + GRONWALL_SLACK.
    """
    beta = make_beta_log(delta)
    phi_R = make_phi_R(R, quad.d)
    trace = gamma_trace(u, beta, phi_R, field, damping, quad, eta)
    data = gronwall_constants(field, damping, growth, phi_R, quad.times)
    bound = data.bound(delta)
    passed = holds_below(trace.values, bound, GRONWALL_SLACK)
    return GammaTrace(times=trace.times, values=trace.values, rhs=trace.rhs,
                      bound=bound, consistency=trace.consistency, passed=passed,
                      extras={"data": data, "delta": float(delta)})


@dataclass(frozen=True)
class UniquenessProbeReport:
    verdict: str               # "forces u=0" | "consistent" | "inconclusive"
    m: float                   # worst superlevel measure over time nodes
    gamma_level: float
    limit_bound: float         # exp(A) C_R(limit) 2^(d+1)
    delta_table: tuple         # (delta, rhs, holds) rows


def uniqueness_probe(u: DensityRepresentation, gamma_level, R0, delta_list,
                     bound_data: GronwallBoundData,
                     quad: SpaceTimeQuadrature) -> UniquenessProbeReport:
    """Superlevel-measure contradiction probe for zero-datum solutions.

    m is the cell measure of {x in B_R0 : arctan(u)^2 > gamma_level},
    maximized over time nodes. For each delta the probe records whether
    m / 2^(d+1) <= exp(A)(B_R + log(1+pi^2/(4 delta)) C_R) / log(1+gamma/delta);
    letting delta -> 0 the family collapses to m <= exp(A) C_R 2^(d+1) with
    C_R at its large-R limit. A positive m above that limit is the
    contradiction that forces u = 0.
    """
    _check_alignment(u, quad)
    d = quad.d
    inside = np.linalg.norm(quad.points, axis=-1) < R0
    level = np.arctan(u.values[:, inside]) ** 2 > gamma_level
    m = float(np.max(np.sum(level, axis=1))) * quad.cell_volume

    rows = []
    for delta in delta_list:
        denom = math.log1p(gamma_level / delta)
        rhs = bound_data.bound(delta) / denom if denom > 0.0 else float("inf")
        rows.append((float(delta), rhs, m / 2.0 ** (d + 1) <= rhs))

    limit_bound = math.exp(bound_data.A) * bound_data.C_R_limit * 2.0 ** (d + 1)
    if m == 0.0:
        verdict = "consistent"
    elif limit_bound < m:
        verdict = "forces u=0"
    else:
        verdict = "inconclusive"
    return UniquenessProbeReport(verdict=verdict, m=m, gamma_level=float(gamma_level),
                                 limit_bound=limit_bound, delta_table=tuple(rows))
