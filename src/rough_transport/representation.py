"""Candidate solutions built from the flow by the two representation formulas.

The pointwise form evaluates u0(X^{-1}) / JX(X^{-1}) * exp(damping path
integral) on fixed grid points from what ``flow.backward_summary`` yields
when it traces each evaluation node back to time zero; the pushforward
form transports weighted particles forward and deposits them on a target
grid. The damping's own truncation radius eta around its singular point
implements the almost-everywhere reading of the path integral.
A DensityRepresentation carries the space-time quadrature whose nodes it
is sampled on.
"""

from dataclasses import dataclass

import numpy as np

from .fields import DampingFieldSpec, VelocityFieldSpec
from .flow import ForwardSummary, SeedGrid, backward_summary
from .numerics import (CellGrid, cell_centers, gl_nodes, stable_sum, tensor_points,
                       trapezoid_weights)

# ---------------------------------------------------------------------------
# space-time quadrature and the densities sampled on it
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceTimeQuadrature:
    """Tensor quadrature: trapezoid in time, midpoint cells in space.

    The combined weights sum to (box volume) x T.
    """

    times: np.ndarray          # (K+1,), includes 0 and T
    points: np.ndarray         # (N, d) cell centers in [-radius, radius]^d
    h: float
    tau: float
    cell_volume: float
    radius: float

    @property
    def d(self):
        return self.points.shape[-1]

    @property
    def time_weights(self):
        return trapezoid_weights(self.times)


def make_quadrature(dimension, radius, n_space, T, n_time) -> SpaceTimeQuadrature:
    h = 2.0 * radius / n_space
    points = tensor_points([cell_centers(radius, n_space)] * dimension)
    times = np.linspace(0.0, T, n_time + 1)
    return SpaceTimeQuadrature(times=times, points=points, h=h,
                               tau=times[1] - times[0],
                               cell_volume=h ** dimension, radius=radius)


@dataclass(frozen=True)
class DensityRepresentation:
    """Sampled density u(t_k, x_i) on the nodes of its quadrature."""

    quad: SpaceTimeQuadrature
    values: np.ndarray          # (K+1, N)

    def __post_init__(self):
        nodes = (self.quad.times.shape[0], self.quad.points.shape[0])
        if self.values.shape != nodes:
            raise ValueError(f"density values {self.values.shape} do not fit the "
                             f"quadrature's (time nodes, points) = {nodes}")

    @property
    def times(self):
        return self.quad.times

    @property
    def points(self):
        return self.quad.points


def pointwise_solution(field: VelocityFieldSpec, damping: DampingFieldSpec, u0,
                       points: SeedGrid, time_grid, steps) -> np.ndarray:
    """u(t_k, x_i) on a fixed grid from backward characteristics, shape (K+1, N).

    The characteristics through (t_k, x_i) differ for each t_k, so each
    slice follows its own backward path, t_k -> 0 in m_k steps; the step
    size is kept near horizon/steps by scaling m_k with t_k. The t = 0
    slice is u0 on the nose, and slice k is u0(X^{-1}) / JX * exp(D) from
    ``flow.backward_summary``, which shares paths between slices and sizes
    their sweeps: the identity build (step 1/256 for all 256 slices) takes
    one path and no cumulative sum, linear_expand's 48 slices of 1000 steps
    take 31 paths.
    """
    time_grid = np.asarray(time_grid, dtype=float)
    if time_grid[0] != 0.0:
        raise ValueError("evaluation time grid must start at t = 0")
    horizon = field.horizon
    anchors = [float(t) for t in time_grid[1:]]
    if not all(0.0 < t <= horizon for t in anchors):
        raise ValueError("evaluation times must lie in (0, horizon]")
    vals = np.empty((time_grid.shape[0], points.points.shape[0]))
    vals[0] = np.asarray(u0(points.points), dtype=float)
    counts = [max(1, int(round(steps * t / horizon))) for t in anchors]
    for k, inverse, jx, dmp in backward_summary(field, damping, points, anchors, counts):
        vals[1 + k] = np.asarray(u0(inverse), dtype=float) / jx * np.exp(dmp)
    return vals


# ---------------------------------------------------------------------------
# pushforward representation (cloud-in-cell deposition)
# ---------------------------------------------------------------------------

def _cic_deposit(positions, weights, grid: CellGrid):
    d = grid.dimension
    n = grid.cells_per_axis
    rel = (positions + grid.radius) / grid.h - 0.5    # cell-center coordinates
    base = np.floor(rel).astype(int)
    frac = rel - base
    acc = np.zeros((n,) * d)
    deposited = 0.0
    for corner in np.ndindex(*((2,) * d)):
        idx = base + np.array(corner)
        w = weights.copy()
        for axis in range(d):
            w = w * (frac[:, axis] if corner[axis] else 1.0 - frac[:, axis])
        valid = np.all((idx >= 0) & (idx < n), axis=1)
        if np.any(valid):
            np.add.at(acc, tuple(idx[valid].T), w[valid])
            deposited += float(np.sum(w[valid]))
    return acc, deposited


def represent_pushforward(u0, summary: ForwardSummary, target_grid: CellGrid):
    """Deposit particles u0(x_i) exp(D) cell_vol at X(T, x_i) onto a grid.

    The particles ride the summary's forward flow and carry its damping
    integral D at the end time; only the summary's (N,) end values are
    read. First-order cloud-in-cell deposition: each particle splits its
    weight over the 2^d surrounding cell centers, so interior particles
    conserve mass to rounding. Returns (density on
    ``target_grid.centers()``, fraction of particle mass lost over the grid
    boundary); the loss is reported, not raised.
    """
    seeds = summary.seed_grid
    weights = (np.asarray(u0(seeds.points), dtype=float)
               * np.exp(summary.damping_end) * seeds.cell_volume)
    deposit, deposited_mass = _cic_deposit(summary.endpoints, weights, target_grid)
    total = stable_sum(weights)
    out_frac = 0.0 if total == 0.0 else abs(total - deposited_mass) / abs(total)
    return deposit.ravel() / target_grid.cell_volume, out_frac


# ---------------------------------------------------------------------------
# integrability probe for the L1-damping counterexample
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegrabilityReport:
    verdict: str                 # "divergent" | "convergent" | "inconclusive"
    etas: tuple
    integrals: tuple
    growth_ratios: tuple


def integrability_probe(u0, damping: DampingFieldSpec, t,
                        refinement_list) -> IntegrabilityReport:
    """Truncated integrals I_eta of u0 * exp(t c) over eta <= |x| <= 1.

    Pure-damping probe (b = 0). Each annulus is integrated with 32-node
    Gauss-Legendre panels on a geometric subdivision so the boundary layer
    near the singularity is resolved. Verdict: "divergent" when I_eta grows
    by a factor >= 10 across consecutive refinements, "convergent" when the
    increments fall below 1e-8, otherwise "inconclusive".
    """
    etas = [float(e) for e in refinement_list]
    if any(b >= a for a, b in zip(etas, etas[1:])):
        raise ValueError("refinement_list must be strictly decreasing")

    def weighted(x):
        pts = x[:, None]
        exponent = t * np.asarray(damping.eval_c(t, pts), dtype=float)
        with np.errstate(over="ignore"):
            weight = np.exp(np.minimum(exponent, 700.0))
            weight = np.where(exponent > 700.0, np.inf, weight)
        return np.asarray(u0(pts), dtype=float) * weight

    def annulus_integral(lo, hi):
        # geometric panels lo -> hi, ratio 2, refined toward the singularity
        total = 0.0
        for sign in (-1.0, 1.0):
            cuts = [lo]
            while cuts[-1] < hi:
                cuts.append(min(hi, cuts[-1] * 2.0))
            for a, b in zip(cuts[:-1], cuts[1:]):
                xs, ws = gl_nodes(a, b, 32)
                total += float(np.dot(ws, weighted(sign * xs)))
        return total

    # telescoping keeps the shared outer region's quadrature identical across
    # eta, so increments measure exactly the annulus mass
    integrals = [annulus_integral(etas[0], 1.0)]
    for hi, lo in zip(etas[:-1], etas[1:]):
        integrals.append(integrals[-1] + annulus_integral(lo, hi))
    ratios = []
    for a, b in zip(integrals[:-1], integrals[1:]):
        ratios.append(float("inf") if a == 0.0 else b / a)

    verdict = "inconclusive"
    if any(r >= 10.0 or not np.isfinite(r) for r in ratios) or any(
            not np.isfinite(v) for v in integrals):
        verdict = "divergent"
    elif len(integrals) >= 2 and abs(integrals[-1] - integrals[-2]) < 1e-8:
        verdict = "convergent"
    return IntegrabilityReport(verdict=verdict, etas=tuple(etas),
                               integrals=tuple(integrals),
                               growth_ratios=tuple(ratios))
