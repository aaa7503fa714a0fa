"""Candidate solutions built from the flow by the two representation formulas.

The pointwise form evaluates u0(X^{-1}) / JX(X^{-1}) * exp(damping path
integral) on fixed grid points by tracing each evaluation node back to
time zero; the pushforward form transports weighted particles forward and
deposits them on a target grid. The damping's own truncation radius eta
around its singular point implements the almost-everywhere reading of the
path integral.
A DensityRepresentation carries the space-time quadrature whose nodes it
is sampled on.
"""

from dataclasses import dataclass

import numpy as np

from .errors import JacobianVanishedError
from .fields import DampingFieldSpec, VelocityFieldSpec, sample_damping, sample_nodes
from .flow import (_CHUNK_BYTES, ForwardSummary, SeedGrid, _check_divergence,
                   _check_truncation, _div_sup_integral, backward_paths)
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


def _represent_slices(u0, field: VelocityFieldSpec, damping: DampingFieldSpec,
                      nodes, grids):
    """u at the anchors of the backward slices along one path, (len(grids), N).

    ``nodes`` (M+1, N, d) holds the path on ``grids[0]``, the time grid of
    its longest slice. Slice k, on ``grids[k]`` = linspace(0, a_k, m_k + 1),
    is its last m_k + 1 nodes, so X^{-1}(a_k, seeds) is row M - m_k. Only an
    autonomous b and c let slices share a path. div b and c are each
    sampled once on the path, ``block`` nodes per call into one (N, M+1)
    table.

    Each slice's two integrals repeat ``cumtrapz`` on its grid operation for
    operation, through one reused scratch block, on the live rows only: the
    rows whose sampled integrand has a nonzero (or NaN, or infinite) entry
    on the sampled columns. Every other row sums ±0.0 terms from a 0.0
    start, which gives +0.0, so it gets +0.0 without the sum; b = 0 or
    c = 0, or c = 0 along whole paths, costs no cumulative sum at all. The
    live rows are gathered once per sampling, and not at all when every row
    is live. A slice keeps only the largest |div integral| (checked against
    L as ``forward_summary`` does), the final values and the paths the
    damping's eta cut-off zeroes entirely. Raises what ``forward_summary``
    raises for the same fields, and JacobianVanishedError for a JX that
    underflows or is not finite.
    """
    rows, n = nodes.shape[:2]
    # path nodes per field call and per scratch block: 1/16 of the budget
    block = max(1, (_CHUNK_BYTES >> 4) // (8 * n))
    table = np.empty((n, rows))     # samples along the path, time contiguous
    masked = np.empty((n, rows), dtype=bool)
    scratch = np.empty(n * (block + 1))
    end = np.empty(n)
    out = np.empty((len(grids), n))

    def sample(damped):
        # the table on the path's nodes; returns the live rows and their samples
        for r in range(0, rows, block):
            t, at = grids[0][r:r + block], nodes[r:r + block]
            if damped:
                vals, mask = sample_damping(damping, t, at)
                masked[:, r:r + block] = mask.T
            else:
                vals = sample_nodes(field.eval_div_b, field.autonomous, t, at)
            table[:, r:r + block] = vals.T
        live = np.flatnonzero(np.any(table, axis=1))
        return live, (table if live.size == n else table[live])

    def path_integral(times, live, vals, track_worst):
        # cumtrapz(vals, times) on the slice's columns, scattered into ``end``
        # at the live rows. A block's cumsum starts from the running value in
        # its first column, which repeats the sequential sum bit for bit (up
        # to the sign of a zero). With ``track_worst``, returns max |integral|
        # over the nodes (a NaN gives NaN); the dead rows' zeros never raise
        # it above the 0.0 that starts every row.
        m = times.shape[0] - 1
        v = vals[:, rows - 1 - m:]
        half_dt = 0.5 * np.diff(times)
        end[:] = 0.0
        if live.size == 0:
            return 0.0
        run = end if live.size == n else np.zeros(live.size)
        worst = 0.0
        for p in range(0, m, block):
            w = min(block, m - p)
            acc = scratch[:live.size * (w + 1)].reshape(live.size, w + 1)
            acc[:, 0] = run
            np.add(v[:, p + 1:p + w + 1], v[:, p:p + w], out=acc[:, 1:])
            np.multiply(half_dt[p:p + w], acc[:, 1:], out=acc[:, 1:])
            np.cumsum(acc, axis=-1, out=acc)
            run[:] = acc[:, -1]
            if track_worst:
                worst = np.maximum(worst, np.maximum(np.max(acc), -np.min(acc)))
        if run is not end:
            end[live] = run
        return float(worst)

    live, vals = sample(damped=False)
    for k, times in enumerate(grids):
        _check_divergence(path_integral(times, live, vals, True),
                          _div_sup_integral(field, times))
        out[k] = np.exp(end)

    live, vals = sample(damped=True)
    for k, times in enumerate(grids):
        m = times.shape[0] - 1
        _check_truncation(np.all(masked[:, rows - 1 - m:], axis=1), damping)
        jx_end = out[k]
        if np.any(jx_end <= 0.0) or not np.all(np.isfinite(jx_end)):
            raise JacobianVanishedError("nonpositive or non-finite Jacobian sample")
        path_integral(times, live, vals, False)
        out[k] = np.asarray(u0(nodes[rows - 1 - m]), dtype=float) / jx_end * np.exp(end)
    return out


def pointwise_solution(field: VelocityFieldSpec, damping: DampingFieldSpec, u0,
                       points: SeedGrid, time_grid, steps) -> np.ndarray:
    """u(t_k, x_i) on a fixed grid from backward characteristics, shape (K+1, N).

    The characteristics through (t_k, x_i) differ for each t_k, so each
    slice follows its own backward path, t_k -> 0 in m_k steps; the step
    size is kept near horizon/steps by scaling m_k with t_k. The t = 0
    slice is u0 on the nose. With b and c autonomous, the path from x_i
    and the samples along it depend only on the step t_k / m_k, so slices
    whose steps are bitwise equal follow prefixes of one path, integrated
    and sampled once per distinct step; each slice's values are bitwise
    u0(X^{-1}) / JX * exp(D) from the cumulative trapezoids of div b and c
    over the full table of its own backward map (the reference the tests
    keep in ``tests/reference.py``).
    Only the paths along which div b, or c, is nonzero somewhere are
    summed; the others take the integral 0.0 that their sum would give, so
    the identity build (b = 0, c = 0) runs no cumulative sum at all.
    The identity build (step 1/256 for all 256 slices) takes one path;
    linear_expand's 48 slices of 1000 steps take 31.

    The paths come from chunked sweeps, longest first. A chunk stacks
    paths while its sweep, rows * (longest step count + 1) * d * 8 bytes,
    plus the (longest step count + 1) * N * 8 byte sample table of its
    longest path stays within ``_CHUNK_BYTES`` (8 MiB); a path longer than
    that forms a chunk alone. Every chunk writes its sweep into one buffer,
    sized to the largest and allocated once: with a fresh sweep per chunk,
    whether the next one fit where the last was freed turned on where
    small objects had landed in the heap, so the peak RSS of the
    ``linear_expand`` build moved by about 5 MB between runs of the same
    code. When b or c depends on time, every slice is its own path and
    chunk.
    """
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
    # slices that share a path, each longest first, the longest paths first
    shared = {}
    for s, h in sorted(enumerate(np.divide(anchors, counts)), key=lambda sh: -counts[sh[0]]):
        shared.setdefault(h if batch else s, []).append(s)
    node_bytes = n * 8                  # one float64 for every point
    chunks = []
    for group in shared.values():
        # a chunk's first path is its longest: it sets the sweep length and
        # the size of the one sample table alive beside the sweep
        if (batch and chunks and (counts[chunks[-1][0][0]] + 1) * node_bytes
                * (x.shape[1] * (len(chunks[-1]) + 1) + 1) <= _CHUNK_BYTES):
            chunks[-1].append(group)
        else:
            chunks.append([group])
    sweep = np.empty(max((counts[c[0][0]] + 1) * len(c) * x.size for c in chunks)
                     if field.autonomous and chunks else 0)
    for chunk in chunks:
        paths = backward_paths(field, points, [anchors[g[0]] for g in chunk],
                               [counts[g[0]] for g in chunk], sweep)
        for group, path in zip(chunk, paths):
            grids = [np.linspace(0.0, anchors[s], counts[s] + 1) for s in group]
            vals[[1 + s for s in group]] = _represent_slices(u0, field, damping, path,
                                                             grids)
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
