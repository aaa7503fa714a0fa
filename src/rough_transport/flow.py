"""Lagrangian flow maps: trajectory integration, Jacobians, flow identities.

Every trajectory is integrated here, with fixed-step classical RK4. The
forward sweep over a seed grid is taken in time blocks, and every forward
Lagrangian quantity, the damping integral and the superlevel escape counts
included, is read from its ForwardSummary of per-seed reductions: no full
trajectory table is kept. The backward pass traces the characteristics
through (anchor, point) back to t = 0 on the physical time grid and
reduces each slice to the inverse-flow sample X^{-1}, JX and the damping
integral D at its anchor (``backward_summary``), which the pointwise
representation formula composes. Jacobians come from the exponential of
the divergence path integral, never from spatial gradients.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (AllTruncatedError, DivergenceUnboundedError, DomainTooSmallError,
                     JacobianVanishedError, StepBlowupError)
from .fields import (DampingFieldSpec, VelocityFieldSpec, make_mollifier, mollify,
                     sample_damping, sample_nodes)
from .numerics import (cell_centers, profile, sq_norms, stable_sum, tensor_points,
                       trapz)


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
        # equal rows are adjacent in lexicographic order; -0.0 == 0.0, NaN != NaN
        rows = self.points[np.lexsort(self.points.T)]
        if np.any(np.all(rows[1:] == rows[:-1], axis=1)):
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
# the RK4 kernel
# ---------------------------------------------------------------------------

ESCAPE_FACTOR = 1e3    # escape radius in units of max(seed radius, 1)


def _rk4_path(rhs, y0, h, steps, escape_radius, first=0, out=None):
    """Fixed-step RK4 from step ``first`` (time first * h), recording every node.

    ``h`` and ``steps`` are either shared by every row or given per row. Per
    row step counts must not increase down the rows, so the rows still
    moving at step k form a prefix of the block. ``rhs(t, y)`` receives the
    stage time of those rows: a float when ``h`` is one, an (n, 1) column
    otherwise.

    Returns an array of shape (max steps + 1,) + y0.shape. Row i is written
    at its nodes 0 to steps[i] only, ``[:steps[i] + 1, i]``; the nodes past
    its last step are left as they were. The array is the only large
    allocation, (max steps + 1) * rows * d * 8 bytes, and is written into
    ``out`` instead when given. ``backward_summary`` and the forward blocks
    size their sweeps so that this array and the tables read from it stay
    within ``_CHUNK_BYTES``; the forward blocks release each one before the
    next is built, and ``backward_summary`` writes all of its sweeps into
    one buffer. A path continued from step ``first`` takes the stage times
    (first + k) * h, so it repeats bit for bit the steps of one sweep from
    time 0. Raises StepBlowupError as soon as any trajectory norm exceeds
    ``escape_radius`` or is not finite.

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
    out = np.empty((total + 1,) + y0.shape) if out is None else out
    out[0] = y0
    stage, acc, scratch = (np.empty_like(y0) for _ in range(3))
    sq = np.empty(n)
    hk, halfk, sixthk = h, half, sixth
    rows = n
    for k in range(total):
        if moving[k] < rows:
            rows = moving[k]
            stage, acc, scratch, sq = stage[:rows], acc[:rows], scratch[:rows], sq[:rows]
            if per_row:
                hk, halfk, sixthk = h[:rows], half[:rows], sixth[:rows]
        y, y_next = out[k, :rows], out[k + 1, :rows]
        t = (first + k) * hk
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
            at = (first + k + 1) * (hk[i, 0] if per_row else hk)
            what = (f"escaped (|X|={norms[i]:.3g} > {escape_radius:.3g})"
                    if np.isfinite(norms[i]) else "became non-finite")
            raise StepBlowupError(i, what, at)
    return out


# ---------------------------------------------------------------------------
# checks on the path integrals
# ---------------------------------------------------------------------------

def _div_sup_integral(field: VelocityFieldSpec, times):
    """L, the trapezoid of the div_sup profile over ``times``, or inf."""
    sup_profile = (np.full(times.shape, float(field.div_sup(float(times[0]))))
                   if field.autonomous else profile(field.div_sup, times))
    return trapz(sup_profile, times) if np.all(np.isfinite(sup_profile)) else float("inf")


def _check_divergence(dpi, L):
    """Raise DivergenceUnboundedError when L is finite and some |dpi| exceeds it.

    ``dpi`` holds div path integrals on the grid, or just the largest of
    their magnitudes.
    """
    if np.isfinite(L):
        # |trapz of div along X| <= trapz of div_sup = L holds node by node when
        # the field metadata is consistent; only rounding slack is allowed, and
        # a NaN path integral fails the comparison too
        worst = float(_max_abs(dpi))
        if not worst <= L * (1.0 + 1e-12) + 1e-12:
            raise DivergenceUnboundedError(
                f"divergence path integral {worst:.6g} exceeds its bound L={L:.6g}; "
                "field metadata (eval_div_b vs div_sup) is inconsistent"
            )


def _check_truncation(all_cut, damping):
    """Raise AllTruncatedError for the first path whose every node ``damping`` cuts off."""
    if np.any(all_cut):
        raise AllTruncatedError(
            f"every node of trajectory {int(np.argmax(all_cut))} lies within "
            f"eta={damping.eta:g} of the singular point"
        )


@dataclass(frozen=True)
class JacobianOdeResiduals:
    """Max residuals of the Jacobian ODE and its reciprocal counterpart."""

    forward: float    # d/dt JX = JX div b along the path
    inverse: float    # d/dt (1/JX) = -(1/JX) div b

    @property
    def worst(self):
        return max(self.forward, self.inverse)


def _max_abs(x):
    """max |x| from two reductions, without a full-size |x|; NaN if x holds one.

    Both reductions are NaN together, and the outer abs gives a zero its
    plus sign, as max |x| has.
    """
    return abs(max(np.max(x), -np.min(x)))


def _ode_residual(y, rate, dt, diff, mean):
    """max |(y[k+1] - y[k]) / dt[k] - 0.5 * (rate[k+1] + rate[k])| down the rows.

    The Jacobian ODE's difference quotient against the trapezoid mean of
    its rate, step by step, worked in the (m, n) scratch tables ``diff``
    and ``mean``.
    """
    np.divide(np.subtract(y[1:], y[:-1], out=diff), dt, out=diff)
    np.multiply(0.5, np.add(rate[1:], rate[:-1], out=mean), out=mean)
    return _max_abs(np.subtract(diff, mean, out=diff))


# ---------------------------------------------------------------------------
# the forward pass, reduced in time blocks
# ---------------------------------------------------------------------------

_CHUNK_BYTES = 8 << 20     # path and table bytes per block of a chunked sweep


def _forward_blocks(field: VelocityFieldSpec, seeds: SeedGrid, steps):
    """The forward RK4 path of ``seeds`` over [0, horizon], in time blocks.

    Yields (k0, nodes), nodes (m+1, N, d) holding path nodes k0 to k0 + m.
    Each block starts from the last node of the one before and is released
    before the next is built; its steps are bit for bit those of one sweep
    from time 0, as in the full-table reference of ``tests/reference.py``.
    One (m+1, N) float table takes at most 1/16 of ``_CHUNK_BYTES``, as in
    ``backward_summary``'s sampling blocks, and m is at least 1: the path
    and up to 16 - d tables of the caller fit in the budget, and each table
    stays small enough for the elementwise passes over it to run in cache.
    """
    if not field.continuous:
        raise ValueError("discontinuous field: mollify first")
    if steps < 1:
        raise ValueError("steps must be a positive integer")
    y = seeds.points
    m = max(1, (_CHUNK_BYTES >> 4) // (8 * y.shape[0]) - 1)
    rhs = lambda t, y: np.asarray(field.eval_b(t, y), dtype=float)  # noqa: E731
    escape = ESCAPE_FACTOR * max(seeds.bounding_radius, 1.0)
    for k0 in range(0, steps, m):
        nodes = _rk4_path(rhs, y, field.horizon / steps, min(m, steps - k0), escape,
                          first=k0)
        y = nodes[-1].copy()
        yield k0, nodes
        del nodes


@dataclass(frozen=True)
class ForwardSummary:
    """The reductions of one forward flow that the diagnostics read.

    No (N, K+1) table is kept: the flow's end points, JX at the end time,
    the damping integral D at the end time, the bound L, per time node the
    smallest and largest JX over the seeds and, only when the sweep was
    asked for them, the largest coordinate displacement |X - x0|, the
    largest residuals of the Jacobian ODE and of its reciprocal and the
    superlevel escape measures; a reduction not asked for is None.
    """

    seed_grid: SeedGrid
    time_grid: np.ndarray          # (K+1,), 0 = t_0 < ... < t_K = horizon
    endpoints: np.ndarray          # (N, d), X(T, seeds)
    jx_end: np.ndarray             # (N,), JX(T, seeds)
    damping_end: np.ndarray        # (N,), D(T, seeds); zero without a damping
    L: float
    max_displacement: float        # max over seeds, nodes and coordinates; None unless asked
    jx_min: np.ndarray             # (K+1,)
    jx_max: np.ndarray             # (K+1,)
    residuals: JacobianOdeResiduals    # None unless residuals=True
    escaped: np.ndarray            # (radii,), one measure per radius; None without escape

    def jx_deviation(self, expected):
        """max over seeds and nodes of |JX - expected|, a scalar or one value per node.

        Exact: fl(a - e) is monotone in a, so at each node the largest
        |JX - e| is found at the smallest or at the largest JX.
        """
        return float(np.max(np.maximum(np.abs(self.jx_max - expected),
                                        np.abs(self.jx_min - expected))))


def forward_summary(field: VelocityFieldSpec, seeds: SeedGrid, steps,
                    damping: DampingFieldSpec = None, *, escape=None,
                    residuals=False, displacement=False) -> ForwardSummary:
    """One forward RK4 sweep over ``seeds`` on [0, horizon], reduced block by block.

    Each block of ``_forward_blocks`` samples div b on its nodes, continues
    the cumulative trapezoid of div b from the previous block's last
    column, checks it against L and exponentiates it in place, then folds
    into the reductions. Given a ``damping``, each block also samples c
    with its own eta cut-off (``sample_damping``) and continues the trapezoid
    of c the same way; a seed whose every node is cut off raises
    AllTruncatedError after the sweep. Every value is bit for bit the
    reduction of the cumulative trapezoids over the full trajectory table
    of the reference in ``tests/reference.py``. Raises what the sampled
    fields raise; the divergence bound is checked before JX is formed.

    A field whose divergence reads no coordinate (``divergence_reads`` is
    ``()``) has one JX for every seed: div b is sampled on the first seed's
    column of each block only, and the trapezoid, the bound check, the exp,
    the extremes and the residuals run on that (m+1, 1) column, whose end
    value fills ``jx_end``. The damping and escape folds stay per seed.

    Three reductions are folded only when asked for, and are None otherwise.
    ``displacement=True`` takes the largest coordinate displacement.
    ``residuals=True`` takes the largest residuals of the Jacobian ODE and
    of its reciprocal along that table. ``escape=(r, R)`` takes the
    superlevel escape measure cell_volume * #{i : |x_i| < r, |X(t, x_i)| > R},
    maximized over the nodes, for each radius of ``R``, as a 1-D array
    (one entry for a scalar R). Each block's node norms are taken
    in a scratch table with the seeds outside B_r masked, so no block is
    copied; the sweep covers every seed, so a StepBlowupError may name a
    seed outside B_r.
    """
    time_grid = np.linspace(0.0, field.horizon, steps + 1)
    dt = np.diff(time_grid)[:, None]
    half_dt = 0.5 * dt
    L = _div_sup_integral(field, time_grid)
    x0 = seeds.points
    n = x0.shape[0]
    width = 1 if field.divergence_reads == () else n     # JX columns folded
    if escape is not None:
        r, radii = escape[0], np.asarray(escape[1], dtype=float)
        if seeds.bounding_radius < r:
            raise ValueError(f"seed grid (radius {seeds.bounding_radius:g}) "
                             f"does not cover B_{r:g}")
        outside = ~(np.sqrt(sq_norms(x0)) < r)
        # escaped count per radius, maximized over the time nodes
        counts = np.zeros(radii.size, dtype=int)
    jx_min, jx_max = np.empty(steps + 1), np.empty(steps + 1)
    dpi_end, damping_end = np.zeros(width), np.zeros(n)
    all_cut = np.full(n, damping is not None)    # without c, nothing is cut
    worst = np.zeros(3)          # displacement, forward and inverse residuals
    for k0, nodes in _forward_blocks(field, seeds, steps):
        if k0 == 0:              # the first block is the longest
            scratch = np.empty((4,) + nodes.shape[:2])
            # the divergence folds' four tables, on one column of their own
            # when JX does not depend on the seed
            columns = scratch if width == n else np.empty((4, nodes.shape[0], width))
        m = nodes.shape[0] - 1
        block, steps_k = slice(k0, k0 + m + 1), slice(k0, k0 + m)
        jx, rate = columns[0, :m + 1], columns[1, :m + 1]
        diff, mean = columns[2, :m], columns[3, :m]
        divs = sample_nodes(field.eval_div_b, field.autonomous, time_grid[block],
                            nodes[:, :width])
        # cumtrapz's increments (0.5 * dt) * (v[k+1] + v[k]), summed in order
        # from the running value, row by row (a cumsum down the rows is slower)
        jx[0] = dpi_end
        np.add(divs[1:], divs[:-1], out=jx[1:])
        np.multiply(half_dt[steps_k], jx[1:], out=jx[1:])
        for k in range(m):
            np.add(jx[k], jx[k + 1], out=jx[k + 1])
        _check_divergence(jx, L)
        dpi_end[:] = jx[-1]
        np.exp(jx, out=jx)
        jx_min[block], jx_max[block] = np.min(jx, axis=1), np.max(jx, axis=1)
        if residuals:
            # JX' = JX div b, then (1/JX)' = -(1/JX) div b with 1/JX in JX's place
            forward = _ode_residual(jx, np.multiply(jx, divs, out=rate), dt[steps_k],
                                    diff, mean)
            inv = np.divide(1.0, jx, out=jx)
            inverse = _ode_residual(inv, np.multiply(np.negative(inv, out=rate), divs,
                                                     out=rate), dt[steps_k], diff, mean)
            worst[1:] = np.maximum(worst[1:], [forward, inverse])
        # the per-seed folds, in scratch tables the divergence folds are done with
        rate, diff = scratch[1, :m + 1], scratch[2, :m]
        if displacement:
            disp = max(_max_abs(np.subtract(nodes[..., j], x0[:, j], out=rate))
                       for j in range(x0.shape[1]))
            worst[0] = np.maximum(worst[0], disp)
        if escape is not None:
            norms = np.sqrt(sq_norms(nodes, out=rate), out=rate)
            np.copyto(norms, -np.inf, where=outside)     # -inf exceeds no radius
            top = np.max(norms)
            for j, R_j in enumerate(radii.flat):
                if R_j < top:    # a radius at or above every norm counts none
                    counts[j] = max(counts[j],
                                    np.max(np.count_nonzero(norms > R_j, axis=1)))
        if damping is not None:
            # D continues from its running value as div b's integral does
            cvals, cut = sample_damping(damping, time_grid[block], nodes)
            all_cut &= np.all(cut, axis=0)
            np.add(cvals[1:], cvals[:-1], out=diff)
            np.multiply(half_dt[steps_k], diff, out=diff)
            for k in range(m):
                np.add(damping_end, diff[k], out=damping_end)
            del cvals, cut
        endpoints = nodes[-1].copy()
        # drop the block before the next one is built
        del nodes, divs
    _check_truncation(all_cut, damping)
    return ForwardSummary(seed_grid=seeds, time_grid=time_grid,
                          endpoints=endpoints,
                          jx_end=np.repeat(np.exp(dpi_end), n // width),
                          damping_end=damping_end, L=L,
                          max_displacement=float(worst[0]) if displacement else None,
                          jx_min=jx_min, jx_max=jx_max,
                          residuals=(JacobianOdeResiduals(float(worst[1]), float(worst[2]))
                                     if residuals else None),
                          escaped=(None if escape is None
                                   else counts.astype(float) * seeds.cell_volume))


# ---------------------------------------------------------------------------
# the backward pass, slice by slice
# ---------------------------------------------------------------------------

def _sample_path(field, damping, grid, nodes, block, table, masked=None):
    """div b, or c when ``masked`` is given, on a path's nodes: (live rows, their samples).

    ``nodes`` (M+1, N, d) is sampled on ``grid``, ``block`` nodes per call,
    into the (N, M+1) ``table``; c goes through the damping's eta cut-off,
    whose mask goes to ``masked``. The live rows are those whose samples
    hold a nonzero (or NaN, or infinite) entry, gathered once, and not at
    all when every row is live.
    """
    for r in range(0, nodes.shape[0], block):
        t, at = grid[r:r + block], nodes[r:r + block]
        if masked is None:
            vals = sample_nodes(field.eval_div_b, field.autonomous, t, at)
        else:
            vals, mask = sample_damping(damping, t, at)
            masked[:, r:r + block] = mask.T
        table[:, r:r + block] = vals.T
    live = np.flatnonzero(np.any(table, axis=1))
    return live, (table if live.size == table.shape[0] else table[live])


def _path_integral(vals, times, live, block, scratch, end, track_worst):
    """cumtrapz of a slice's samples on ``times``, its end scattered into ``end``.

    The slice is the last len(times) columns of ``vals``, the samples of
    the ``live`` rows. A block's cumsum, in ``scratch``, starts from the
    running value in its first column, which repeats the sequential sum
    bit for bit (up to the sign of a zero). Every row not live sums ±0.0
    terms from a 0.0 start, which gives +0.0, so it gets +0.0 without the
    sum. With ``track_worst``, returns max |integral| over the nodes (a NaN
    gives NaN); the dead rows' zeros never raise it above the 0.0 that
    starts every row.
    """
    m, n = times.shape[0] - 1, end.shape[0]
    v = vals[:, vals.shape[1] - 1 - m:]
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


def backward_summary(field: VelocityFieldSpec, damping: DampingFieldSpec, points: SeedGrid,
                     anchors, counts):
    """X^{-1}, JX and D of ``points`` at each anchor, from backward RK4 paths.

    Slice k runs on the grid linspace(0, anchors[k], counts[k] + 1): -b is
    integrated in the time s = anchor - t and the sweep reversed, so its
    first node is X^{-1}(anchors[k], points). Yields (k, X^{-1}, JX, D) once
    per slice, of shapes (N, d), (N,) and (N,), as views valid until the
    next item: the exp of the cumulative trapezoid of div b and that of c
    with the damping's eta cut-off, at the anchor, bit for bit as over the
    full table of the slice's own backward map in ``tests/reference.py``.

    With b and c autonomous, the path from x_i and the samples along it
    depend only on the step anchors[k] / counts[k], so slices whose steps
    are bitwise equal are the last counts[k] + 1 nodes of one path,
    integrated and sampled once per distinct step. When b or c depends on
    time, every slice is its own path and chunk, and a time-dependent b
    takes a float step, so the field gets a float time. The paths come from
    chunked sweeps, longest first. A chunk stacks paths, path g in sweep
    rows g*N to (g+1)*N with its own step, while its sweep, rows * (longest
    step count + 1) * d * 8 bytes, plus the (longest step count + 1) * N * 8
    byte sample table of its longest path stays within ``_CHUNK_BYTES``
    (8 MiB); a path longer than that forms a chunk alone. Every chunk writes
    its sweep into one buffer, sized to the largest and allocated once: with
    a fresh sweep per chunk, whether the next one fit where the last was
    freed turned on where small objects had landed in the heap, so the peak
    RSS of the ``linear_expand`` build moved by about 5 MB between runs.

    div b and c are each sampled once per path (``_sample_path``), and each
    slice's integrals sum its live rows only (``_path_integral``), so b = 0
    or c = 0, or c = 0 along whole paths, costs no cumulative sum at all. A
    divergence that reads no coordinate (``divergence_reads`` is ``()``) is
    sampled and integrated on the first row alone, whose JX fills every row;
    the damping path stays per row. A
    slice keeps only the largest |div integral|, checked against L as
    ``forward_summary`` does, the final values and the paths the cut-off
    zeroes entirely (AllTruncatedError). A StepBlowupError names the seed
    and the physical time; a JX that underflows or is not finite raises
    JacobianVanishedError, and a field that is not continuous ValueError.
    """
    if not field.continuous:
        raise ValueError("discontinuous field: mollify first")
    x = points.points
    n = x.shape[0]
    escape = ESCAPE_FACTOR * max(points.bounding_radius, 1.0)
    batch = field.autonomous and damping.autonomous
    # slices that share a path, each longest first, the longest paths first
    shared = {}
    for s, h in sorted(enumerate(np.divide(anchors, counts)), key=lambda sh: -counts[sh[0]]):
        shared.setdefault(h if batch else s, []).append(s)
    chunks = []
    for group in shared.values():
        # a chunk's first path is its longest: it sets the sweep length and
        # the size of the one sample table alive beside the sweep
        if (batch and chunks and (counts[chunks[-1][0][0]] + 1) * n * 8
                * (x.shape[1] * (len(chunks[-1]) + 1) + 1) <= _CHUNK_BYTES):
            chunks[-1].append(group)
        else:
            chunks.append([group])
    sweep = np.empty(max(((counts[c[0][0]] + 1) * len(c) * x.size for c in chunks),
                         default=0))
    # path nodes per field call and per scratch block: 1/16 of the budget
    block = max(1, (_CHUNK_BYTES >> 4) // (8 * n))
    scratch, end = np.empty(n * (block + 1)), np.empty(n)
    width = 1 if field.divergence_reads == () else n     # rows of div b sampled
    for chunk in chunks:
        a, m = [anchors[g[0]] for g in chunk], [counts[g[0]] for g in chunk]
        h = np.repeat(np.divide(a, m), n) if field.autonomous else a[0] / m[0]
        rhs = lambda s, y: -np.asarray(  # noqa: E731
            field.eval_b(0.0 if field.autonomous else a[0] - s, y), dtype=float)
        shape = (m[0] + 1, len(chunk) * n, x.shape[1])
        try:
            path = _rk4_path(rhs, np.tile(x, (len(chunk), 1)), h, np.repeat(m, n), escape,
                             out=sweep[:math.prod(shape)].reshape(shape))
        except StepBlowupError as exc:
            # row i integrates seed i mod N back from a[i // N]
            raise exc.renamed(exc.seed_index % n, a[exc.seed_index // n] - exc.t) from exc
        del h    # freed before the slices allocate, as the tiled start points are
        for g, group in enumerate(chunk):
            # sweep node j sits at time anchor - j h; reversed, rows run 0 -> anchor
            nodes, rows = path[m[g]::-1, g * n:(g + 1) * n], m[g] + 1
            grids = [np.linspace(0.0, anchors[s], counts[s] + 1) for s in group]
            table = np.empty((n, rows))     # samples along the path, time contiguous
            masked = np.empty((n, rows), dtype=bool)
            jx = np.empty((len(group), n))
            live, vals = _sample_path(field, damping, grids[0], nodes[:, :width], block,
                                      table[:width])
            for j, times in enumerate(grids):
                _check_divergence(_path_integral(vals, times, live, block, scratch,
                                                 end[:width], True),
                                  _div_sup_integral(field, times))
                np.exp(end[:width], out=jx[j, :width])
            jx[:, width:] = jx[:, :1]     # JX is row 0's on every row it was not taken on
            live, vals = _sample_path(field, damping, grids[0], nodes, block, table, masked)
            for j, s in enumerate(group):
                first = rows - 1 - counts[s]
                _check_truncation(np.all(masked[:, first:], axis=1), damping)
                if np.any(jx[j] <= 0.0) or not np.all(np.isfinite(jx[j])):
                    raise JacobianVanishedError("nonpositive or non-finite Jacobian sample")
                _path_integral(vals, grids[j], live, block, scratch, end, False)
                yield s, nodes[first], jx[j], end


# ---------------------------------------------------------------------------
# integral identities
# ---------------------------------------------------------------------------

def change_of_variables_residual(summary: ForwardSummary, phi, quad_radius):
    """| sum_i phi(X(T, x_i)) JX(T, x_i) cell_vol  -  integral of phi |.

    X and JX are the summary's end points and end Jacobians. ``phi`` must
    expose ``__call__``, ``reference_integral`` (analytic or high-precision)
    and ``mass_outside(radius)``; the scenario supplies
    ``quad_radius``, a radius certified to be contained in the image
    of the seed box at the evaluation time.
    """
    total = abs(phi.reference_integral)
    if total > 0.0 and phi.mass_outside(quad_radius) > 1e-8 * total:
        raise DomainTooSmallError(
            f"test function mass outside radius {quad_radius:g} exceeds "
            "1e-8 of its integral"
        )
    vals = np.asarray(phi(summary.endpoints), dtype=float) * summary.jx_end
    lhs = stable_sum(vals) * summary.seed_grid.cell_volume
    return abs(lhs - phi.reference_integral)


def compressibility_estimate(summary: ForwardSummary):
    """Empirical compressibility constant from arrival counts at the end time.

    Arrivals X(T, x_i) are binned into probe cells made of 16 seed cells
    per axis (single cells quantize the count to integers, which
    is too coarse to resolve constants like e); the estimate is the max
    over probe cells of (seed count * cell_volume) / cell volume.
    """
    seeds = summary.seed_grid
    pts = seeds.points
    d = pts.shape[-1]

    edges = []
    for axis in range(d):
        centers = np.sort(pts[:, axis])
        centers = centers[np.append(True, centers[1:] != centers[:-1])]
        h = centers[1] - centers[0] if centers.size > 1 else 2.0 * seeds.bounding_radius
        lo, hi = centers[0] - 0.5 * h, centers[-1] + 0.5 * h
        block = min(16, centers.size)
        cuts = np.arange(lo, hi - 0.5 * h * block, block * h)
        edges.append(np.append(cuts, hi))
    counts, _ = np.histogramdd(summary.endpoints, bins=edges)
    vols = np.ones(counts.shape)
    for axis, e in enumerate(edges):
        widths = np.diff(e)
        shape = [1] * d
        shape[axis] = widths.size
        vols = vols * widths.reshape(shape)
    density = counts * seeds.cell_volume / vols
    return float(np.max(density))


def forward_backward_mismatch(field: VelocityFieldSpec, summary: ForwardSummary):
    """max_i |X^{-1}(T, X(T, x_i)) - x_i|, reintegrated back in as many steps.

    The time-reversed field -b(T - s, .) on [0, T] is swept forward from the
    arrivals in the time blocks of ``_forward_blocks``, keeping only each
    block's last node: the steps are bit for bit those of the backward path
    of ``backward_summary``, whose X^{-1} is that of the arrivals at T,
    without its (steps+1, N, d) table. A StepBlowupError names the physical time.
    """
    seeds = summary.seed_grid
    arrivals = seeds_from_points(summary.endpoints, seeds.cell_volume)
    T = float(summary.time_grid[-1])
    reversed_field = replace(field, horizon=T, eval_b=lambda s, y: -np.asarray(
        field.eval_b(T - s, y), dtype=float))
    try:
        for _, nodes in _forward_blocks(reversed_field, arrivals,
                                        summary.time_grid.size - 1):
            inverse = nodes[-1].copy()
            del nodes
    except StepBlowupError as exc:      # the sweep's time s runs back from T
        raise exc.renamed(exc.seed_index, T - exc.t) from exc
    return float(np.max(np.linalg.norm(inverse - seeds.points, axis=-1)))


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
            summary = forward_summary(smooth, seeds, steps)
            cache[eps] = (summary.endpoints, summary.jx_end)
        return cache[eps]

    rows = []
    for eps in eps_list:
        xa, ja = run(eps)
        xb, jb = run(eps / 2.0)
        flow_disc = float(np.mean(np.linalg.norm(xa - xb, axis=-1)))
        jac_disc = float(np.mean(np.abs(ja - jb)))
        rows.append((eps, flow_disc, jac_disc))
    return rows
