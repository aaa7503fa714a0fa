"""Candidate solutions built from the flow by the two representation formulas.

The pointwise form evaluates u0(X^{-1}) / JX(X^{-1}) * exp(damping path
integral) on fixed grid points by tracing each evaluation node back to
time zero; the pushforward form transports weighted particles forward and
deposits them on a target grid. A truncation radius eta around the damping
singular set implements the almost-everywhere reading of the path integral.
A DensityRepresentation carries the space-time quadrature whose nodes it
is sampled on.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AllTruncatedError, JacobianVanishedError, StepBlowupError
from .fields import DampingFieldSpec, VelocityFieldSpec, sample_damping
from .flow import (ESCAPE_FACTOR, FlowMap, SeedGrid, _rk4_path, integrate_flow,
                   jacobian)
from .numerics import (cell_centers, cumtrapz, gl_nodes, stable_sum, tensor_points,
                       trapezoid_weights)

_CHUNK_BYTES = 8 << 20     # stored path bytes per batched backward sweep


# ---------------------------------------------------------------------------
# damping path integral
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DampingAccumulator:
    """D(t, x) = path integral of c along a characteristic, with truncation."""

    flow: FlowMap
    values: np.ndarray          # (N, K+1), trapezoid in time
    truncated_nodes: np.ndarray  # (N,), count of zeroed integrand nodes
    integrand: np.ndarray       # (N, K+1), c along X after the cut-off

    @property
    def total_l1(self):
        """Discrete integral of |c along X| dx dt, computed when read."""
        abs_path = cumtrapz(np.abs(self.integrand), self.flow.time_grid)[:, -1]
        return float(np.sum(abs_path)) * self.flow.seed_grid.cell_volume


def damping_integral(damping: DampingFieldSpec, flow: FlowMap, eta) -> DampingAccumulator:
    """Trapezoid-in-time damping integral along every stored characteristic.

    The integrand is set to zero whenever the trajectory is within eta of
    the singular set. Raises AllTruncatedError if some trajectory had every
    node excluded (seed effectively on the singular set).
    """
    times = flow.time_grid
    cvals, masked = sample_damping(damping, times,
                                   np.moveaxis(flow.trajectories, 1, 0), eta)
    cvals = cvals.T
    truncated = masked.sum(axis=0)
    if np.any(truncated == times.shape[0]):
        i = int(np.argmax(truncated == times.shape[0]))
        raise AllTruncatedError(
            f"every node of trajectory {i} lies within eta={eta:g} of the singular set"
        )
    return DampingAccumulator(flow=flow, values=cumtrapz(cvals, times),
                              truncated_nodes=truncated, integrand=cvals)


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


def represent_pointwise(u0, field: VelocityFieldSpec, damping: DampingFieldSpec,
                        flow_backward: FlowMap, eta):
    """u(anchor, x) = u0(X^{-1}) / JX(.,X^{-1}) * exp(D(.,X^{-1})) on seeds.

    The backward map supplies X^{-1}(anchor, x_i) in its first column; the
    Jacobian and the damping integral are traced along the same
    characteristics, so their last columns already sit at the inverse-flow
    samples. Returns the (N,) values at the anchor time.
    """
    if flow_backward.direction != "backward":
        raise ValueError("represent_pointwise needs a backward flow map")
    jx_end = jacobian(field, flow_backward).jx[:, -1]
    acc = damping_integral(damping, flow_backward, eta)
    if np.any(jx_end <= 0.0) or not np.all(np.isfinite(jx_end)):
        raise JacobianVanishedError("nonpositive or non-finite Jacobian sample")
    u0_vals = np.asarray(u0(flow_backward.inverse_samples), dtype=float)
    return u0_vals / jx_end * np.exp(acc.values[:, -1])


def _backward_flows(field: VelocityFieldSpec, points: SeedGrid, anchors, counts,
                    batch):
    """Backward flow maps through (anchors[s], points) with counts[s] steps.

    With ``batch`` (b independent of time) the slices share one RK4
    sweep, traced with t = 0: slice s takes counts[s] steps of size
    anchors[s] / counts[s], and its copy of the points fills rows s*N to
    (s+1)*N. Counts must not increase, so the moving rows form a prefix.
    Each map is a view of the sweep reversed onto its physical time grid,
    bitwise ``integrate_flow(..., "backward", anchor_time=anchors[s])``,
    which is what a time-dependent slice calls instead.
    """
    if not batch:
        # pointwise_solution has already applied the nonsmooth-field check
        return [integrate_flow(field, points, m, "backward", anchor_time=a,
                               allow_nonsmooth=True)
                for a, m in zip(anchors, counts)]
    n = points.points.shape[0]
    rhs = lambda s, y: -np.asarray(field.eval_b(0.0, y), dtype=float)  # noqa: E731
    try:
        path = _rk4_path(rhs, np.tile(points.points, (len(anchors), 1)),
                         np.repeat(np.divide(anchors, counts), n), np.repeat(counts, n),
                         ESCAPE_FACTOR * max(points.bounding_radius, 1.0))
    except StepBlowupError as exc:     # row i integrates seed i mod N
        raise StepBlowupError(str(exc), seed_index=exc.seed_index % n) from exc
    # sweep node j sits at time anchor - j h; reversed, columns run 0 -> anchor
    return [FlowMap(seed_grid=points, time_grid=np.linspace(0.0, a, m + 1),
                    trajectories=np.moveaxis(path[m::-1, s * n:(s + 1) * n], 0, 1),
                    direction="backward", steps=m)
            for s, (a, m) in enumerate(zip(anchors, counts))]


def pointwise_solution(field: VelocityFieldSpec, damping: DampingFieldSpec, u0,
                       points: SeedGrid, time_grid, steps, eta=0.0,
                       allow_nonsmooth=False) -> np.ndarray:
    """u(t_k, x_i) on a fixed grid from per-time backward flows, shape (K+1, N).

    The characteristics through (t_k, x_i) differ for each t_k, so each
    slice has its own backward integration; the step size is kept near
    horizon/steps by scaling the step count with t_k. The t = 0 slice is
    u0 on the nose. Each slice is ``represent_pointwise`` on its backward
    map; the maps come from chunked sweeps, longest first. A chunk stacks slices
    while its RK4 path, rows * (longest step count + 1) * d * 8 bytes, stays
    within ``_CHUNK_BYTES`` (8 MiB); a slice longer than that forms a chunk
    alone. Each chunk's path is released before the next one is built, so
    one path is alive at a time. When b depends on time, every chunk holds
    one slice; c is sampled per slice on that slice's own time grid, so it
    may depend on time either way.
    """
    if field.regularity_tag == "bv_nonsmooth" and not allow_nonsmooth:
        raise ValueError("bv_nonsmooth field: mollify first or pass allow_nonsmooth=True")
    time_grid = np.asarray(time_grid, dtype=float)
    if time_grid[0] != 0.0:
        raise ValueError("evaluation time grid must start at t = 0")
    horizon = field.horizon
    anchors = [float(t) for t in time_grid[1:]]
    if not all(0.0 < t <= horizon for t in anchors):
        raise ValueError("evaluation times must lie in (0, horizon]")
    x = points.points
    n = x.shape[0]
    vals = np.empty((time_grid.shape[0], n))
    vals[0] = np.asarray(u0(x), dtype=float)

    counts = [max(1, int(round(steps * t / horizon))) for t in anchors]
    batch = field.autonomous
    slice_bytes = n * x.shape[1] * 8    # one float64 path node of every point
    chunks = []
    for s in sorted(range(len(anchors)), key=lambda s: -counts[s]):
        # a chunk's first slice is its longest and sets the path length
        if (batch and chunks and (counts[chunks[-1][0]] + 1) * slice_bytes
                * (len(chunks[-1]) + 1) <= _CHUNK_BYTES):
            chunks[-1].append(s)
        else:
            chunks.append([s])
    for chunk in chunks:
        flows = _backward_flows(field, points, [anchors[s] for s in chunk],
                                [counts[s] for s in chunk], batch)
        for s, back in zip(chunk, flows):
            vals[1 + s] = represent_pointwise(u0, field, damping, back, eta)
        # the maps are views of the chunk's path: drop them so the path is
        # freed before the next sweep allocates its own
        del flows, back
    return vals


# ---------------------------------------------------------------------------
# pushforward representation (cloud-in-cell deposition)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TargetGrid:
    """Uniform cell-centered deposition grid on [-radius, radius]^d."""

    radius: float
    cells_per_axis: int
    dimension: int

    @property
    def h(self):
        return 2.0 * self.radius / self.cells_per_axis

    @property
    def cell_volume(self):
        return self.h ** self.dimension

    def centers(self):
        return tensor_points([cell_centers(self.radius, self.cells_per_axis)]
                             * self.dimension)


def _cic_deposit(positions, weights, grid: TargetGrid):
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


def _particle_weights(u0, acc: DampingAccumulator, time_index):
    seeds = acc.flow.seed_grid
    return (np.asarray(u0(seeds.points), dtype=float)
            * np.exp(acc.values[:, time_index]) * seeds.cell_volume)


def represent_pushforward(u0, acc: DampingAccumulator, target_grid: TargetGrid,
                          time_index=-1):
    """Deposit particles u0(x_i) exp(D) cell_vol at X(t, x_i) onto a grid.

    The particles ride the accumulator's forward flow. First-order
    cloud-in-cell deposition: each particle splits its weight over the 2^d
    surrounding cell centers, so interior particles conserve mass to
    rounding. Returns (density on ``target_grid.centers()``, fraction of
    particle mass lost over the grid boundary); the loss is reported, not
    raised.
    """
    flow_forward = acc.flow
    if flow_forward.direction != "forward":
        raise ValueError("represent_pushforward needs a forward flow map")
    weights = _particle_weights(u0, acc, time_index)
    positions = flow_forward.trajectories[:, time_index, :]
    deposit, deposited_mass = _cic_deposit(positions, weights, target_grid)
    total = stable_sum(weights)
    out_frac = 0.0 if total == 0.0 else abs(total - deposited_mass) / abs(total)
    return deposit.ravel() / target_grid.cell_volume, out_frac


def pushforward_total_mass(u0, acc: DampingAccumulator, time_index=-1):
    """Sum of particle weights at a time node (the transported total mass)."""
    return stable_sum(_particle_weights(u0, acc, time_index))


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

    def integrand(x):
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
                total += float(np.dot(ws, integrand(sign * xs)))
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
