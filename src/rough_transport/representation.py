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
from .fields import DampingFieldSpec, VelocityFieldSpec
from .flow import (ESCAPE_FACTOR, FlowMap, JacobianTrack, SeedGrid,
                   _accumulate_divergence, _rk4_path)
from .numerics import cumtrapz, gl_nodes, stable_sum

_CHUNK_NODES = 1 << 18     # stored path nodes per batched backward sweep


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
    total_l1: float             # discrete integral of |c along X| dx dt


def _damping_nodes(damping: DampingFieldSpec, t, pos, eta):
    """c(t, .) at positions (..., d), zeroed within eta of the singular set.

    Returns (values, mask), where mask marks the zeroed nodes.
    """
    if eta < 0.0:
        raise ValueError("eta must be nonnegative")
    if damping.singular_set:
        mask = damping.singular_distance(pos) <= eta
    else:
        mask = np.zeros(pos.shape[:-1], dtype=bool)
    if not np.any(mask):
        return np.asarray(damping.eval_c(t, pos), dtype=float), mask
    vals = np.zeros(mask.shape)
    free = ~mask
    if np.any(free):
        vals[free] = np.asarray(damping.eval_c(t, pos[free]), dtype=float)
    return vals, mask


def _accumulate_damping(cvals, masked, times, eta):
    """Trapezoid path integral of damping samples (paths, nodes).

    Returns (integral, truncated node count per path) and raises
    AllTruncatedError if some path had every node excluded.
    """
    truncated = masked.sum(axis=1)
    if np.any(truncated == times.shape[0]):
        i = int(np.argmax(truncated == times.shape[0]))
        raise AllTruncatedError(
            f"every node of trajectory {i} lies within eta={eta:g} of the singular set"
        )
    return cumtrapz(cvals, times), truncated


def damping_integral(damping: DampingFieldSpec, flow: FlowMap, eta) -> DampingAccumulator:
    """Trapezoid-in-time damping integral along every stored characteristic.

    The integrand is set to zero whenever the trajectory is within eta of
    the singular set. Raises AllTruncatedError if some trajectory had every
    node excluded (seed effectively on the singular set).
    """
    times = flow.time_grid
    n, kk = flow.trajectories.shape[0], times.shape[0]
    cvals = np.empty((n, kk))
    masked = np.empty((n, kk), dtype=bool)
    for k, t in enumerate(times):
        cvals[:, k], masked[:, k] = _damping_nodes(damping, float(t),
                                                   flow.trajectories[:, k, :], eta)
    values, truncated = _accumulate_damping(cvals, masked, times, eta)
    abs_path = cumtrapz(np.abs(cvals), times)[:, -1]
    total_l1 = float(np.sum(abs_path)) * flow.seed_grid.cell_volume
    return DampingAccumulator(flow=flow, values=values, eta=eta,
                              truncated_nodes=truncated, total_l1=total_l1)


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

    def slice_at(self, k):
        return self.values[k]


def _pointwise_values(u0, feet, jx_end, damping_end):
    """u0(X^{-1}) / JX * exp(D) from the samples at the feet of the paths."""
    if np.any(jx_end <= 0.0) or not np.all(np.isfinite(jx_end)):
        raise JacobianVanishedError("nonpositive Jacobian sample; inconsistent inputs")
    u0_vals = np.asarray(u0(feet), dtype=float)
    return u0_vals / jx_end * np.exp(damping_end)


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
    vals = _pointwise_values(u0, flow_backward.inverse_samples, track.jx[:, -1],
                             acc.values[:, -1])
    pts = flow_backward.seed_grid.points
    return DensityRepresentation(
        mode="pointwise",
        times=np.array([flow_backward.anchor_time]),
        points=pts,
        values=vals[None, :],
        cell_volume=flow_backward.seed_grid.cell_volume,
        u0=u0,
    )


def _backward_sweep(field: VelocityFieldSpec, damping: DampingFieldSpec, u0, x,
                    anchors, counts, eta, escape, batch):
    """u at each anchor time on the points x, from one RK4 sweep over all slices.

    Slice s takes counts[s] steps of size anchors[s] / counts[s], and its
    copy of the points fills rows s*N to (s+1)*N of one block; counts must
    not increase, so the moving rows form a prefix. ``batch`` marks b and c
    as time-independent: then the path is traced and sampled with t = 0, and
    div b and c are evaluated on the whole stored path in one call each.
    Otherwise the sweep holds a single slice, sampled node by node at its
    physical times. Each slice then goes through the accumulate-and-check
    steps of ``jacobian``, ``damping_integral`` and ``represent_pointwise``.
    """
    n = x.shape[0]
    if batch:
        h = np.repeat(np.divide(anchors, counts), n)
        steps = np.repeat(counts, n)
        rhs = lambda s, y: -np.asarray(field.eval_b(0.0, y), dtype=float)  # noqa: E731
    else:
        (anchor,), (steps,) = anchors, counts
        h = anchor / steps
        rhs = lambda s, y: -np.asarray(field.eval_b(anchor - s, y), dtype=float)  # noqa: E731
    try:
        path = _rk4_path(rhs, np.tile(x, (len(anchors), 1)), h, steps, escape)
    except StepBlowupError as exc:     # row i integrates seed i mod N
        raise StepBlowupError(str(exc), seed_index=exc.seed_index % n) from exc

    divs = np.empty(path.shape[:2])
    cvals = np.empty(path.shape[:2])
    masked = np.empty(path.shape[:2], dtype=bool)
    if batch:
        nodes = [(0.0, ...)]
    else:
        times = np.linspace(0.0, anchor, steps + 1)
        nodes = [(float(times[steps - j]), j) for j in range(steps + 1)]
    for t, at in nodes:
        pos = path[at]
        divs[at] = np.asarray(field.eval_div_b(t, pos), dtype=float)
        cvals[at], masked[at] = _damping_nodes(damping, t, pos, eta)

    out = np.empty((len(anchors), n))
    for s, (anchor, m) in enumerate(zip(anchors, counts)):
        # sweep node j sits at time anchor - j h; reversed, columns run 0 -> anchor
        rows = slice(s * n, (s + 1) * n)
        times = np.linspace(0.0, anchor, m + 1)
        _, jx, _ = _accumulate_divergence(field, divs[m::-1, rows].T, times)
        damp, _ = _accumulate_damping(cvals[m::-1, rows].T, masked[m::-1, rows].T,
                                      times, eta)
        out[s] = _pointwise_values(u0, path[m, rows], jx[:, -1], damp[:, -1])
    return out


def pointwise_solution(field: VelocityFieldSpec, damping: DampingFieldSpec, u0,
                       points: SeedGrid, time_grid, steps, eta=0.0,
                       allow_nonsmooth=False) -> DensityRepresentation:
    """Assemble u(t_k, x_i) on a fixed grid from per-time backward flows.

    The characteristics through (t_k, x_i) differ for each t_k, so each
    slice has its own backward integration; the step size is kept near
    horizon/steps by scaling the step count with t_k. The t = 0 slice is
    u0 on the nose. Slices run together in chunked sweeps, longest first,
    and each is bitwise the composition ``integrate_flow`` (backward) ->
    ``jacobian`` -> ``damping_integral`` -> ``represent_pointwise``. When b
    or c depends on time, every chunk holds one slice.
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
    chunks = []
    for s in sorted(range(len(anchors)), key=lambda s: -counts[s]):
        # a chunk's first slice is its longest and sets the path length
        if (batch and chunks and
                (counts[chunks[-1][0]] + 1) * n * (len(chunks[-1]) + 1) <= _CHUNK_NODES):
            chunks[-1].append(s)
        else:
            chunks.append([s])
    escape = ESCAPE_FACTOR * max(points.bounding_radius, 1.0)
    for chunk in chunks:
        vals[[1 + s for s in chunk]] = _backward_sweep(
            field, damping, u0, x, [anchors[s] for s in chunk],
            [counts[s] for s in chunk], eta, escape, batch)

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
        ax = -self.radius + self.h * (np.arange(self.cells_per_axis) + 0.5)
        mesh = np.meshgrid(*([ax] * self.dimension), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


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


def integrability_probe(u0, damping: DampingFieldSpec, t, refinement_list,
                        nodes_per_interval=32) -> IntegrabilityReport:
    """Truncated integrals I_eta of u0 * exp(t c) over eta <= |x| <= 1.

    Pure-damping probe (b = 0). Each annulus is integrated with
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
                xs, ws = gl_nodes(a, b, nodes_per_interval)
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
