"""Renormalized weak-form residuals and Gronwall uniqueness diagnostics.

The weak residual evaluates, by space-time quadrature with analytic test
function derivatives, as one array expression over all time nodes,

    phi(0)beta(u0) + [dt phi + grad phi . b] beta(u)
                  + phi [div b (beta(u) - u beta'(u)) + c u beta'(u)]

which vanishes for renormalized solutions. gamma_trace traces Gamma(t) =
integral of phi beta(u); GronwallBoundData.holds judges it against
exp(A)(B_R + log(1 + pi^2/(4 delta)) C_R), whose constants gronwall_constants
assembles from the divergence sup profile, growth split and damping L1 profile.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SupportOverflowError, UnboundedDampingError
from .fields import DampingFieldSpec, VelocityFieldSpec, sample_damping, sample_nodes
from .numerics import cumtrapz, holds_below, profile, stable_sum, trapz
from .renormalization import Renormalizer, TestFunctionPhiR
from .representation import DensityRepresentation


def _field_tables(field, damping, quad):
    """b, div b and the cut-off c on the space-time nodes, one row per time node.

    What does not depend on time is sampled on one row of points, at the
    first time node; numpy broadcasts that (1, N, ...) row over the times.
    """
    def nodes(autonomous):
        times = quad.times[:1] if autonomous else quad.times
        return times, np.repeat(quad.points[None], times.size, axis=0)

    at_b, at_c = nodes(field.autonomous), nodes(damping.autonomous)
    return (sample_nodes(field.eval_b, field.autonomous, *at_b),
            sample_nodes(field.eval_div_b, field.autonomous, *at_b),
            sample_damping(damping, *at_c)[0])


def _tested_sum(flux, phiv, bu, ubp, div, c):
    """Sum over the nodes of each time of flux beta(u) + phi [div b (beta(u) -
    u beta'(u)) + c u beta'(u)], the terms of the tested equation."""
    transport = flux * bu
    reaction = phiv * (div * (bu - ubp) + c * ubp)
    return np.sum(transport + reaction, axis=-1)


# ---------------------------------------------------------------------------
# weak residual
# ---------------------------------------------------------------------------

def weak_residual(quad: DensityRepresentation, beta: Renormalizer, phi,
                  field: VelocityFieldSpec, damping: DampingFieldSpec, u0) -> float:
    """Quadrature value of the renormalized weak form (zero for solutions).

    ``quad`` is the density u; its quadrature supplies every node. (The
    argument keeps the name ``quad`` because perfbench/tracer.py counts the
    quadrature nodes from ``quad.times`` and ``quad.points``.) ``phi`` is a
    space-time test function with analytic dt/grad, compactly supported in
    [0, T) x B_rho with rho at most the box radius (infinite support raises
    SupportOverflowError). The damping is read with its own eta cut-off,
    as the density that is tested reads it.
    """
    u, quad = quad.values, quad.quad
    if not phi.support_radius <= quad.radius:
        raise SupportOverflowError(
            f"phi support radius {phi.support_radius:g} exceeds the quadrature box "
            f"radius {quad.radius:g}"
        )
    bvals, divvals, cvals = _field_tables(field, damping, quad)

    bu = np.asarray(beta.beta(u), dtype=float)
    ubp = u * np.asarray(beta.beta_prime(u), dtype=float)

    u0_vals = np.asarray(u0(quad.points), dtype=float)
    phi0 = np.asarray(phi(0.0, quad.points), dtype=float)
    initial = np.sum(phi0 * np.asarray(beta.beta(u0_vals), dtype=float)) * quad.cell_volume

    t = quad.times[:, None]
    flux = (np.asarray(phi.dt(t, quad.points), dtype=float)
            + np.sum(np.asarray(phi.grad(t, quad.points), dtype=float) * bvals, axis=-1))
    phiv = np.asarray(phi(t, quad.points), dtype=float)
    tested = _tested_sum(flux, phiv, bu, ubp, divvals, cvals)
    return abs(stable_sum([initial, *(quad.time_weights * tested * quad.cell_volume)]))


# ---------------------------------------------------------------------------
# Gamma traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaTrace:
    """Gamma(t_k) = sum phi(x_i) beta(u(t_k, x_i)) cell_vol, with its rhs.

    Both are read on the density's time nodes, ``quad.times``.
    """

    values: np.ndarray
    rhs: np.ndarray
    consistency: float


def gamma_trace(quad: DensityRepresentation, beta: Renormalizer, phi_space,
                field: VelocityFieldSpec, damping: DampingFieldSpec) -> GammaTrace:
    """Trace Gamma(t) with the tested-equation right-hand side.

    ``quad`` is the density u, named as in ``weak_residual``. The
    consistency figure is the max over steps of the forward difference of
    Gamma against the trapezoid average of the right-hand side.
    """
    u, quad = quad.values, quad.quad
    bvals, divvals, cvals = _field_tables(field, damping, quad)

    phiv = np.asarray(phi_space(quad.points), dtype=float)
    gphi = np.asarray(phi_space.grad(quad.points), dtype=float)

    bu = np.asarray(beta.beta(u), dtype=float)
    ubp = u * np.asarray(beta.beta_prime(u), dtype=float)

    gamma = np.sum(phiv[None, :] * bu, axis=1) * quad.cell_volume
    flux = np.sum(gphi * bvals, axis=-1)
    rhs = _tested_sum(flux, phiv, bu, ubp, divvals, cvals) * quad.cell_volume

    dq = np.diff(gamma) / np.diff(quad.times)
    mid = 0.5 * (rhs[1:] + rhs[:-1])
    consistency = float(np.max(np.abs(dq - mid))) if dq.size else 0.0
    return GammaTrace(values=gamma, rhs=rhs, consistency=consistency)


# ---------------------------------------------------------------------------
# DiPerna-Lions L2 energy diagnostic
# ---------------------------------------------------------------------------

def l2_energy_diagnostic(u: DensityRepresentation, field: VelocityFieldSpec,
                         damping: DampingFieldSpec):
    """t -> integral of u^2 against its Gronwall envelope (bounded damping).

    Envelope: E(0) exp( int_0^t 2||c||_inf + ||div b||_inf ). Returns
    (times, curve, envelope); the caller judges the curve against it.
    """
    if damping.singular_point is not None:
        raise UnboundedDampingError("l2 diagnostic requires bounded damping")
    if damping.sup_c is None:
        raise ValueError("damping needs a sup_c profile for the L2 envelope")
    quad = u.quad
    curve = np.sum(u.values**2, axis=1) * quad.cell_volume
    rate = 2.0 * profile(damping.sup_c, quad.times) + profile(field.div_sup, quad.times)
    envelope = curve[0] * np.exp(cumtrapz(rate[None, :], quad.times)[0])
    return quad.times.copy(), curve, envelope


# ---------------------------------------------------------------------------
# logarithmic Gronwall bound and uniqueness probe
# ---------------------------------------------------------------------------

GRONWALL_SLACK = 0.1     # relative discretization slack of every Gronwall bound


@dataclass(frozen=True)
class GronwallBoundData:
    """Constants of the localized logarithmic Gronwall estimate."""

    A: float
    B_R: float
    C_R: float
    C_R_limit: float
    D: float                   # BMO lambda-family decay term; 0 for the plain bound
    tau0: float                # the bound covers the time nodes up to tau0

    def bound(self, delta):
        """exp(A) (B_R + log(1 + pi^2/(4 delta)) (C_R + D)), the logarithmic bound."""
        return math.exp(self.A) * (
            self.B_R + math.log1p(math.pi ** 2 / (4.0 * delta)) * (self.C_R + self.D))

    def window(self, gamma, times):
        """Gamma, sampled on ``times``, on the time nodes up to tau0."""
        return gamma[times <= self.tau0 + 1e-12]

    def holds(self, gamma, times, delta):
        """Gamma <= bound(delta) on [0, tau0], up to the factor 1 + GRONWALL_SLACK."""
        return holds_below(self.window(gamma, times), self.bound(delta), GRONWALL_SLACK)


def gronwall_constants(rate, damping: DampingFieldSpec, growth: VelocityFieldSpec,
                       phi_R: TestFunctionPhiR, times, decay=None,
                       tau0=None) -> GronwallBoundData:
    """A = int rate + (d+1) b2, B_R = int ||c||_1 + rate ||phi_R||_1 + decay,
    C_R = (d+1) int ||b1||_{L1(B_R^c)} and D = int decay, by trapezoids.

    ``growth`` is the field whose split ``growth_split`` verified; its b2
    and b1 tail are read from it, and a field with no tail has C_R = 0.
    ``rate`` samples ||div b||_inf on ``times`` for the plain bound, or
    d1 + lambda ||d2||_* for the BMO family, whose ``decay`` samples
    C e^{-c lambda} ||d2||_*; ``tau0`` ends the window, at the last node by default.
    """
    times = np.asarray(times, dtype=float)
    d = phi_R.d

    def c_R(R):
        if growth.growth_b1_tail is None:
            return 0.0
        return trapz((d + 1) * profile(growth.growth_b1_tail, times, R), times)

    a = rate + (d + 1) * profile(growth.growth_b2, times)
    b_R = damping.l1_profile(times) + rate * phi_R.l1_norm
    if decay is not None:
        b_R = b_R + decay
    return GronwallBoundData(A=trapz(a, times), B_R=trapz(b_R, times),
                             C_R=c_R(phi_R.R), C_R_limit=c_R(1e18),
                             D=0.0 if decay is None else trapz(decay, times),
                             tau0=float(times[-1]) if tau0 is None else tau0)


@dataclass(frozen=True)
class UniquenessProbeReport:
    verdict: str               # "forces u=0" | "consistent" | "inconclusive"
    m: float                   # worst superlevel measure over time nodes
    limit_bound: float         # exp(A) C_R(limit) 2^(d+1)
    delta_table: tuple         # (delta, rhs, holds) rows


def uniqueness_probe(u: DensityRepresentation, gamma_level, R0, delta_list,
                     bound_data: GronwallBoundData) -> UniquenessProbeReport:
    """Superlevel-measure contradiction probe for zero-datum solutions.

    m is the cell measure of {x in B_R0 : arctan(u)^2 > gamma_level},
    maximized over time nodes. For each delta the probe records whether
    m / 2^(d+1) <= exp(A)(B_R + log(1+pi^2/(4 delta)) C_R) / log(1+gamma/delta);
    letting delta -> 0 the family collapses to m <= exp(A) C_R 2^(d+1) with
    C_R at its large-R limit. A positive m above that limit is the
    contradiction that forces u = 0.
    """
    quad = u.quad
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
    return UniquenessProbeReport(verdict=verdict, m=m, limit_bound=limit_bound, delta_table=tuple(rows))
