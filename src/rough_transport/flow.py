"""Lagrangian flow maps: trajectory integration, Jacobians, flow identities.

Trajectories are integrated with fixed-step classical RK4 over a seed grid.
A forward map anchors seeds at t = 0; a backward map anchors the seeds at a
given time and stores the same characteristics on the physical time grid,
so its first column holds the inverse-flow samples. Jacobians come from the
exponential of the divergence path integral, never from spatial gradients.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DivergenceUnboundedError, DomainTooSmallError,
                     StepBlowupError)
from .fields import VelocityFieldSpec, make_mollifier, mollify, sample_nodes
from .numerics import (cell_centers, cumtrapz, profile, sq_norms, stable_sum,
                       tensor_points, trapz)


# ---------------------------------------------------------------------------
# seed grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeedGrid:
    """Seed points with a uniform cell weight for quadrature over seeds."""

    points: np.ndarray        # (N, d)
    cell_volume: float
    bounding_radius: float

    def __post_init__(self):
        if self.cell_volume <= 0.0:
            raise ValueError("cell_volume must be positive")
        if np.unique(self.points, axis=0).shape[0] != self.points.shape[0]:
            raise ValueError("seed points must be pairwise distinct")


def make_seed_grid(radius, cells_per_axis, dimension):
    """Cell-centered uniform grid on [-radius, radius]^d.

    Centers sit half a cell off the box faces; with an even cell count per
    axis no seed lies on a coordinate hyperplane, which keeps seeds off the
    measure-zero discontinuity sets used by the nonsmooth scenarios.
    """
    if isinstance(cells_per_axis, int):
        cells = (cells_per_axis,) * dimension
    else:
        cells = tuple(cells_per_axis)
        if len(cells) != dimension:
            raise ValueError("cells_per_axis length must match dimension")
    if min(cells) < 1:
        raise ValueError("cells_per_axis entries must be positive")
    vol = math.prod(2.0 * radius / n for n in cells)
    points = tensor_points([cell_centers(radius, n) for n in cells])
    # the seed cells tile the whole box, so the covered radius is the box
    # half-width even though every center sits half a cell inside
    return SeedGrid(points=points, cell_volume=vol, bounding_radius=float(radius))


def seeds_from_points(points, cell_volume=1.0):
    """Explicit seed list (used for single-trajectory checks)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    bounding = float(np.max(np.linalg.norm(points, axis=-1)))
    return SeedGrid(points=points, cell_volume=float(cell_volume),
                    bounding_radius=bounding)


# ---------------------------------------------------------------------------
# flow maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowMap:
    """Sampled characteristics of a velocity field on a shared time grid.

    ``trajectories[i, k]`` is the position of characteristic i at
    ``time_grid[k]``. Forward maps satisfy trajectories[:, 0] = seeds;
    backward maps are anchored at the final node instead, so
    trajectories[:, 0] samples the inverse flow at the anchor time.
    """

    seed_grid: SeedGrid
    time_grid: np.ndarray        # (K+1,), 0 = t_0 < ... < t_K
    trajectories: np.ndarray     # (N, K+1, d)
    direction: str               # "forward" | "backward"
    steps: int

    @property
    def anchor_time(self):
        return float(self.time_grid[-1])

    def positions_at(self, k):
        return self.trajectories[:, k, :]

    @property
    def inverse_samples(self):
        """X^{-1}(anchor, seeds) for a backward map."""
        if self.direction != "backward":
            raise ValueError("inverse samples only exist on backward maps")
        return self.trajectories[:, 0, :]


@dataclass(frozen=True)
class JacobianTrack:
    """exp of the divergence path integral along each characteristic."""

    flow: FlowMap
    jx: np.ndarray       # (N, K+1)
    L: float             # trapezoid of div_sup over the time grid


ESCAPE_FACTOR = 1e3    # escape radius in units of max(seed radius, 1)


def _rk4_path(rhs, y0, h, steps, escape_radius):
    """Fixed-step RK4 from time 0, recording every node.

    ``h`` and ``steps`` are either shared by every row or given per row. Per
    row step counts must not increase down the rows, so the rows still
    moving at step k form a prefix of the block. ``rhs(t, y)`` receives the
    stage time of those rows: a float when ``h`` is one, an (n, 1) column
    otherwise.

    Returns an array of shape (max steps + 1,) + y0.shape, in which a row
    keeps its final position past its last step; it is the only large
    allocation, (max steps + 1) * rows * d * 8 bytes. ``pointwise_solution``
    sizes its batched sweeps so that this array stays within 8 MiB and
    releases each one before the next is built. Raises StepBlowupError
    as soon as any trajectory norm exceeds ``escape_radius`` or is not
    finite.

    Each step performs the textbook operations in the textbook order,
    y + (h/6) * (((k1 + 2 k2) + 2 k3) + k4) with stage points y + (h/2) k,
    building the sums in three scratch buffers. An array that ``rhs``
    returns is only ever read: a field may return its input or a cached
    array. The escape test reads sqrt(max |y|^2), which passes exactly when
    every norm passes, since sqrt is monotone and correctly rounded and a
    NaN fails both; the norms themselves are computed for the error only.
    The squares are summed one coordinate at a time into a buffer kept for
    the whole path (``sq_norms``), so a 1-D sweep allocates nothing per
    step, and no per-point reduction runs over the length-d axis.
    """
    y0 = np.asarray(y0, dtype=float)
    n = y0.shape[0]
    per_row = np.ndim(h) > 0
    h = np.asarray(h, dtype=float)[:, None] if per_row else float(h)
    half, sixth = 0.5 * h, h / 6.0
    total = int(np.max(steps))
    counts = np.broadcast_to(np.asarray(steps, dtype=int), (n,))
    # rows moving at step k: those whose count exceeds k
    moving = np.searchsorted(-counts, -np.arange(total), side="left")
    out = np.empty((total + 1,) + y0.shape)
    out[0] = y0
    stage, acc, scratch = (np.empty_like(y0) for _ in range(3))
    sq = np.empty(n)
    hk, halfk, sixthk = h, half, sixth
    rows = n
    for k in range(total):
        if moving[k] < rows:
            # finished rows keep their last position at every later node
            out[k + 1:, moving[k]:rows] = out[k, moving[k]:rows]
            rows = moving[k]
            stage, acc, scratch, sq = stage[:rows], acc[:rows], scratch[:rows], sq[:rows]
            if per_row:
                hk, halfk, sixthk = h[:rows], half[:rows], sixth[:rows]
        y, y_next = out[k, :rows], out[k + 1, :rows]
        t = k * hk
        k1 = rhs(t, y)
        np.add(y, np.multiply(halfk, k1, out=stage), out=stage)
        k2 = rhs(t + halfk, stage)
        np.add(k1, np.multiply(2.0, k2, out=acc), out=acc)
        np.add(y, np.multiply(halfk, k2, out=stage), out=stage)
        k3 = rhs(t + halfk, stage)
        np.add(acc, np.multiply(2.0, k3, out=scratch), out=acc)
        np.add(y, np.multiply(hk, k3, out=stage), out=stage)
        k4 = rhs(t + hk, stage)
        np.add(acc, k4, out=acc)
        np.add(y, np.multiply(sixthk, acc, out=acc), out=y_next)
        worst = np.max(sq_norms(y_next, out=sq))
        if not math.sqrt(worst) <= escape_radius:
            norms = np.linalg.norm(y_next, axis=-1)
            # argmax picks the first NaN, else the largest norm
            i = int(np.argmax(norms))
            at = (k + 1) * (hk[i, 0] if per_row else hk)
            what = (f"escaped (|X|={norms[i]:.3g} > {escape_radius:.3g})"
                    if np.isfinite(norms[i]) else "became non-finite")
            raise StepBlowupError(f"trajectory {i} {what} at t={at:.6g}",
                                  seed_index=i)
    return out


def integrate_flow(field: VelocityFieldSpec, seeds: SeedGrid, steps, direction,
                   anchor_time=None, allow_nonsmooth=False) -> FlowMap:
    """Integrate the characteristic ODE over the seed grid.

    Forward: dX/dt = b(t, X), X(0) = seed, on [0, T]. Backward: the
    characteristic through (anchor, seed) is traced back to t = 0 by
    integrating -b in reversed time; the result is stored on the physical
    time grid so the anchor sits in the last column.

    Nonsmooth fields must be mollified first unless the caller explicitly
    accepts the reduced order with ``allow_nonsmooth=True``.
    """
    if field.regularity_tag == "bv_nonsmooth" and not allow_nonsmooth:
        raise ValueError("bv_nonsmooth field: mollify first or pass allow_nonsmooth=True")
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    if steps < 1:
        raise ValueError("steps must be a positive integer")
    anchor = field.horizon if anchor_time is None else float(anchor_time)
    if not 0.0 < anchor <= field.horizon:
        raise ValueError("anchor_time must lie in (0, horizon]")
    escape = ESCAPE_FACTOR * max(seeds.bounding_radius, 1.0)
    time_grid = np.linspace(0.0, anchor, steps + 1)

    if direction == "forward":
        rhs = lambda t, y: np.asarray(field.eval_b(t, y), dtype=float)  # noqa: E731
        path = _rk4_path(rhs, seeds.points, anchor / steps, steps, escape)
        traj = np.moveaxis(path, 0, 1)
    else:
        rhs = lambda s, y: -np.asarray(field.eval_b(anchor - s, y), dtype=float)  # noqa: E731
        path = _rk4_path(rhs, seeds.points, anchor / steps, steps, escape)
        traj = np.moveaxis(path[::-1], 0, 1)

    return FlowMap(seed_grid=seeds, time_grid=time_grid, trajectories=traj,
                   direction=direction, steps=steps)


# ---------------------------------------------------------------------------
# Jacobian along characteristics
# ---------------------------------------------------------------------------

def _div_samples(field: VelocityFieldSpec, flow: FlowMap):
    """div b at every node of every path, shape (paths, time nodes)."""
    return sample_nodes(field.eval_div_b, field.autonomous, flow.time_grid,
                        np.moveaxis(flow.trajectories, 1, 0)).T


def jacobian(field: VelocityFieldSpec, flow: FlowMap) -> JacobianTrack:
    """JX(t) = exp of the trapezoid path integral of div b along each path.

    Works for forward maps (Jacobian at the seeds) and for backward maps
    (Jacobian composed with the inverse-flow samples, which is exactly the
    combination the representation formula needs). Enforces the two-sided
    bound exp(-L) <= JX <= exp(L) from the divergence sup profile, which
    for an autonomous field is its one value div_sup(0) on every node.
    """
    times = flow.time_grid
    dpi = cumtrapz(_div_samples(field, flow), times)
    L = _divergence_bound(field, times, dpi)
    return JacobianTrack(flow=flow, jx=np.exp(dpi, out=dpi), L=L)


def _divergence_bound(field: VelocityFieldSpec, times, dpi):
    """L, the trapezoid of the div_sup profile over ``times``, or inf.

    ``dpi`` holds div path integrals on the grid, or just the largest of
    their magnitudes. Raises DivergenceUnboundedError when L is finite and
    some |dpi| exceeds it.
    """
    sup_profile = (np.full(times.shape, float(field.div_sup(float(times[0]))))
                   if field.autonomous else profile(field.div_sup, times))
    L = trapz(sup_profile, times) if np.all(np.isfinite(sup_profile)) else float("inf")

    if np.isfinite(L):
        # |trapz of div along X| <= trapz of div_sup = L holds node by node when
        # the field metadata is consistent; only rounding slack is allowed, and
        # a NaN path integral fails the comparison too
        worst = float(np.max(np.abs(dpi)))
        if not worst <= L * (1.0 + 1e-12) + 1e-12:
            raise DivergenceUnboundedError(
                f"divergence path integral {worst:.6g} exceeds its bound L={L:.6g}; "
                "field metadata (eval_div_b vs div_sup) is inconsistent"
            )
    return L


@dataclass(frozen=True)
class JacobianOdeResiduals:
    """Max residuals of the Jacobian ODE and its reciprocal counterpart."""

    forward: float    # d/dt JX = JX div b along the path
    inverse: float    # d/dt (1/JX) = -(1/JX) div b

    @property
    def worst(self):
        return max(self.forward, self.inverse)


def jacobian_ode_residual(field: VelocityFieldSpec,
                          track: JacobianTrack) -> JacobianOdeResiduals:
    """Difference-quotient residual of the Jacobian ODE along the track's paths.

    Per step, the forward difference of JX is compared with the trapezoid
    average of JX * div b over the step (and likewise for 1/JX); the max
    over seeds and steps is returned for both. Pure diagnostic.
    """
    flow = track.flow
    dt = np.diff(flow.time_grid)
    divs = _div_samples(field, flow)

    def residual(y, rate):
        return float(np.max(np.abs((y[:, 1:] - y[:, :-1]) / dt
                                   - 0.5 * (rate[:, 1:] + rate[:, :-1]))))

    jx = track.jx
    forward = residual(jx, jx * divs)
    inv = 1.0 / jx
    return JacobianOdeResiduals(forward=forward, inverse=residual(inv, -inv * divs))


# ---------------------------------------------------------------------------
# integral identities
# ---------------------------------------------------------------------------

def change_of_variables_residual(track: JacobianTrack, phi, quad_domain_radius):
    """| sum_i phi(X(T, x_i)) JX(T, x_i) cell_vol  -  integral of phi |.

    X is the track's forward flow. ``phi`` must expose ``__call__``,
    ``reference_integral`` (analytic or high-precision) and
    ``mass_outside(radius)``; the scenario supplies ``quad_domain_radius``, a
    radius certified to be contained in the image of the seed box at the
    evaluation time.
    """
    total = abs(phi.reference_integral)
    if total > 0.0 and phi.mass_outside(quad_domain_radius) > 1e-8 * total:
        raise DomainTooSmallError(
            f"test function mass outside radius {quad_domain_radius:g} exceeds "
            "1e-8 of its integral"
        )
    flow = track.flow
    pos = flow.trajectories[:, -1, :]
    vals = np.asarray(phi(pos), dtype=float) * track.jx[:, -1]
    lhs = stable_sum(vals) * flow.seed_grid.cell_volume
    return abs(lhs - phi.reference_integral)


def compressibility_estimate(flow: FlowMap):
    """Empirical compressibility constant from arrival counts at the end time.

    Arrivals X(T, x_i) are binned into probe cells made of 16 seed cells
    per axis (single cells quantize the count to integers, which
    is too coarse to resolve constants like e); the estimate is the max
    over probe cells of (seed count * cell_volume) / cell volume.
    """
    seeds = flow.seed_grid
    pts = seeds.points
    d = pts.shape[-1]
    arrivals = flow.trajectories[:, -1, :]

    edges = []
    for axis in range(d):
        centers = np.unique(pts[:, axis])
        h = centers[1] - centers[0] if centers.size > 1 else 2.0 * seeds.bounding_radius
        lo, hi = centers[0] - 0.5 * h, centers[-1] + 0.5 * h
        block = min(16, centers.size)
        cuts = np.arange(lo, hi - 0.5 * h * block, block * h)
        edges.append(np.append(cuts, hi))
    counts, _ = np.histogramdd(arrivals, bins=edges)
    vols = np.ones(counts.shape)
    for axis, e in enumerate(edges):
        widths = np.diff(e)
        shape = [1] * d
        shape[axis] = widths.size
        vols = vols * widths.reshape(shape)
    density = counts * seeds.cell_volume / vols
    return float(np.max(density))


def superlevel_escape(flow: FlowMap, r, R):
    """cell_volume * #{i : |x_i| < r, |X(t, x_i)| > R}, maximized over t.

    ``R`` may be an array of radii, all read from one pass of trajectory
    norms; the result then has its shape. A scalar ``R`` gives a float.
    """
    seeds = flow.seed_grid
    if seeds.bounding_radius < r:
        raise ValueError(f"seed grid (radius {seeds.bounding_radius:g}) does not cover B_{r:g}")
    inside = np.sqrt(sq_norms(seeds.points)) < r
    radii = np.asarray(R, dtype=float)
    norms = np.sqrt(sq_norms(flow.trajectories[inside]))   # (n, K+1)
    # escaped count per radius and time node, maximized over time
    escaped = [np.max(np.count_nonzero(norms > R_j, axis=0)) for R_j in radii.ravel()]
    measures = np.array(escaped, dtype=float) * seeds.cell_volume
    return float(measures[0]) if radii.ndim == 0 else measures.reshape(radii.shape)


def forward_backward_mismatch(field: VelocityFieldSpec, flow_forward: FlowMap):
    """max_i |X^{-1}(T, X(T, x_i)) - x_i|, reintegrated back in as many steps."""
    arrivals = seeds_from_points(flow_forward.positions_at(-1),
                                 flow_forward.seed_grid.cell_volume)
    back = integrate_flow(field, arrivals, flow_forward.steps, "backward",
                          anchor_time=flow_forward.anchor_time)
    diff = back.inverse_samples - flow_forward.positions_at(0)
    return float(np.max(np.linalg.norm(diff, axis=-1)))


# ---------------------------------------------------------------------------
# mollification convergence
# ---------------------------------------------------------------------------

def flow_convergence_study(field: VelocityFieldSpec, eps_list, seeds: SeedGrid, steps):
    """Cauchy-style discrepancies of mollified flows along decreasing eps.

    For each eps, integrates the flows of the eps- and eps/2-mollified
    fields with identical settings and reports the seed-averaged endpoint
    distance together with the matching Jacobian discrepancy.
    """
    eps_list = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")

    cache = {}

    def run(eps):
        if eps not in cache:
            moll = make_mollifier(eps, field.dimension)
            smooth = mollify(field, moll)
            fl = integrate_flow(smooth, seeds, steps, "forward")
            tr = jacobian(smooth, fl)
            cache[eps] = (fl.positions_at(-1), tr.jx[:, -1])
        return cache[eps]

    rows = []
    for eps in eps_list:
        xa, ja = run(eps)
        xb, jb = run(eps / 2.0)
        flow_disc = float(np.mean(np.linalg.norm(xa - xb, axis=-1)))
        jac_disc = float(np.mean(np.abs(ja - jb)))
        rows.append((eps, flow_disc, jac_disc))
    return rows
