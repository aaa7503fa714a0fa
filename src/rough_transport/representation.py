"""Candidate solutions built from the flow by the two representation formulas.

The pointwise form evaluates u0(X^{-1}) / JX(X^{-1}) * exp(damping path
integral) on fixed grid points by tracing each evaluation node back to
time zero; the pushforward form transports weighted particles forward and
deposits them on a target grid. A truncation radius eta around the damping
singular set implements the almost-everywhere reading of the path integral.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import AllTruncatedError, JacobianVanishedError, StepBlowupError
from .fields import DampingFieldSpec, VelocityFieldSpec, sample_damping
from .flow import (ESCAPE_FACTOR, FlowMap, JacobianTrack, SeedGrid, _rk4_path,
                   integrate_flow, jacobian)
from .numerics import cell_centers, cumtrapz, gl_nodes, stable_sum, tensor_points

_CHUNK_BYTES = 8 << 20     # stored path bytes per batched backward sweep


# ---------------------------------------------------------------------------
# damping path integral
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DampingAccumulator:
    """D(t, x) = path integral of c along a characteristic, with truncation."""

    flow: FlowMap
    values: np.ndarray          # (N, K+1), trapezoid in time
    eta: float                  # exclusion radius around the singular set
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
    return DampingAccumulator(flow=flow, values=cumtrapz(cvals, times), eta=eta,
                              truncated_nodes=truncated, integrand=cvals)


# ---------------------------------------------------------------------------
# density representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityRepresentation:
    """Sampled density u(t_k, x_i), either pointwise or deposited."""

    mode: str                   # "pointwise" | "pushforward"
    times: np.ndarray           # (K+1,)
    points: np.ndarray          # (N, d)
    values: np.ndarray          # (K+1, N)
    cell_volume: float
    u0: Optional[Callable] = None
    out_of_domain_fraction: float = 0.0


def represent_pointwise(u0, flow_backward: FlowMap, track: JacobianTrack,
                        acc: DampingAccumulator) -> DensityRepresentation:
    """u(anchor, x) = u0(X^{-1}) / JX(.,X^{-1}) * exp(D(.,X^{-1})) on seeds.

    The backward map supplies X^{-1}(anchor, x_i) in its first column and
    the track/accumulator are composed along the same characteristics, so
    their last columns already sit at the inverse-flow samples.
    """
    if flow_backward.direction != "backward":
        raise ValueError("represent_pointwise needs a backward flow map")
    if track.flow is not flow_backward or acc.flow is not flow_backward:
        raise ValueError("track and accumulator must come from the given flow")
    jx_end = track.jx[:, -1]
    if np.any(jx_end <= 0.0) or not np.all(np.isfinite(jx_end)):
        raise JacobianVanishedError("nonpositive Jacobian sample; inconsistent inputs")
    u0_vals = np.asarray(u0(flow_backward.inverse_samples), dtype=float)
    vals = u0_vals / jx_end * np.exp(acc.values[:, -1])
    pts = flow_backward.seed_grid.points
    return DensityRepresentation(
        mode="pointwise",
        times=np.array([flow_backward.anchor_time]),
        points=pts,
        values=vals[None, :],
        cell_volume=flow_backward.seed_grid.cell_volume,
        u0=u0,
    )


def _backward_flows(field: VelocityFieldSpec, points: SeedGrid, anchors, counts,
                    batch):
    """Backward flow maps through (anchors[s], points) with counts[s] steps.

    With ``batch`` (b and c independent of time) the slices share one RK4
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
                       allow_nonsmooth=False) -> DensityRepresentation:
    """Assemble u(t_k, x_i) on a fixed grid from per-time backward flows.

    The characteristics through (t_k, x_i) differ for each t_k, so each
    slice has its own backward integration; the step size is kept near
    horizon/steps by scaling the step count with t_k. The t = 0 slice is
    u0 on the nose. Each slice is the composition ``jacobian`` ->
    ``damping_integral`` -> ``represent_pointwise`` on its backward map;
    the maps come from chunked sweeps, longest first. A chunk stacks slices
    while its RK4 path, rows * (longest step count + 1) * d * 8 bytes, stays
    within ``_CHUNK_BYTES`` (8 MiB); a slice longer than that forms a chunk
    alone. Each chunk's path is released before the next one is built, so
    one path is alive at a time. When b or c depends on time, every chunk
    holds one slice.
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
    batch = field.autonomous and damping.autonomous
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
            rep = represent_pointwise(u0, back, jacobian(field, back),
                                      damping_integral(damping, back, eta))
            vals[1 + s] = rep.values[0]
        # the maps are views of the chunk's path: drop them so the path is
        # freed before the next sweep allocates its own
        del flows, back

    return DensityRepresentation(mode="pointwise", times=time_grid.copy(),
                                 points=points.points, values=vals,
                                 cell_volume=points.cell_volume, u0=u0)


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


def represent_pushforward(u0, flow_forward: FlowMap, acc: DampingAccumulator,
                          target_grid: TargetGrid, time_index=-1) -> DensityRepresentation:
    """Deposit particles u0(x_i) exp(D) cell_vol at X(t, x_i) onto a grid.

    First-order cloud-in-cell deposition: each particle splits its weight
    over the 2^d surrounding cell centers, so interior particles conserve
    mass to rounding. The fraction of particle mass lost over the grid
    boundary is reported, not raised.
    """
    if flow_forward.direction != "forward":
        raise ValueError("represent_pushforward needs a forward flow map")
    seeds = flow_forward.seed_grid
    weights = (np.asarray(u0(seeds.points), dtype=float)
               * np.exp(acc.values[:, time_index]) * seeds.cell_volume)
    positions = flow_forward.trajectories[:, time_index, :]
    deposit, deposited_mass = _cic_deposit(positions, weights, target_grid)
    total = stable_sum(weights)
    out_frac = 0.0 if total == 0.0 else abs(total - deposited_mass) / abs(total)
    density = deposit.ravel() / target_grid.cell_volume
    t = float(flow_forward.time_grid[time_index])
    return DensityRepresentation(
        mode="pushforward",
        times=np.array([t]),
        points=target_grid.centers(),
        values=density[None, :],
        cell_volume=target_grid.cell_volume,
        u0=u0,
        out_of_domain_fraction=out_frac,
    )


def pushforward_total_mass(u0, seeds: SeedGrid, acc: DampingAccumulator, time_index=-1):
    """Sum of particle weights at a time node (the transported total mass)."""
    weights = (np.asarray(u0(seeds.points), dtype=float)
               * np.exp(acc.values[:, time_index]) * seeds.cell_volume)
    return stable_sum(weights)


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
