"""Full-size references: every node of every path, every sample of a profile.

The package reads each forward quantity from one blocked sweep
(``forward_summary``) and each backward one, X^{-1}, JX and D per slice,
from shared paths (``backward_summary``, read by ``pointwise_solution``);
the tests compare both bit for bit against one ``integrate_flow`` sweep
per map, kept whole in a ``FlowMap``, and against the cumulative
trapezoids over its table.

The BMO statistics stream a block sampler (``bmo.bmo_norm``); the array
pipeline they replaced, which held one float per cell of the profile, is
kept below as the bit-for-bit reference for the averages, oscillations,
B_M mean, John-Nirenberg measures and superlevel tails, with
``array_sampler``, which reads such an array through a block sampler.

``mollify`` shifts its points coordinate-major and re-shifts only the
coordinates whose kernel offset changed, and for a field that declares
``reads`` it hands back its last sum when t, the shape and the read
coordinates repeat; ``space_conv``, the per-node loop it replaced, shifts
every coordinate of every node on every call and is kept as its bit-for-bit
reference.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from rough_transport.bmo import (_CHUNK, _PAIRWISE_BLOCK, JNFit, SuperlevelReport,
                                 _pairwise_sum)
from rough_transport.errors import (DegenerateFitError, EmptyBallError, NegativeInputError,
                                    NonFiniteProfileError, StepBlowupError)
from rough_transport.fields import (DampingFieldSpec, MollifierSpec, VelocityFieldSpec,
                                    sample_damping, sample_nodes)
from rough_transport.flow import (ESCAPE_FACTOR, SeedGrid, _check_divergence,
                                  _check_truncation, _div_sup_integral, _rk4_path)
from rough_transport.numerics import CellGrid, ball_volume, cumtrapz, log_linear_fit


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

    def positions_at(self, k):
        return self.trajectories[:, k, :]

    @property
    def inverse_samples(self):
        """X^{-1}(anchor, seeds) for a backward map."""
        if self.direction != "backward":
            raise ValueError("inverse samples only exist on backward maps")
        return self.trajectories[:, 0, :]


def integrate_flow(field: VelocityFieldSpec, seeds: SeedGrid, steps, direction,
                   anchor_time=None, allow_nonsmooth=False) -> FlowMap:
    """Integrate the characteristic ODE over the seed grid.

    Forward: dX/dt = b(t, X), X(0) = seed, on [0, T]. Backward: the
    characteristic through (anchor, seed) is traced back to t = 0 by
    integrating -b in reversed time; the result is stored on the physical
    time grid so the anchor sits in the last column.

    Discontinuous fields must be mollified first unless the caller explicitly
    accepts the reduced order with ``allow_nonsmooth=True``.
    """
    if not field.continuous and not allow_nonsmooth:
        raise ValueError("discontinuous field: mollify first or pass allow_nonsmooth=True")
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
        try:
            path = _rk4_path(rhs, seeds.points, anchor / steps, steps, escape)
        except StepBlowupError as exc:    # the sweep's time runs back from the anchor
            raise exc.renamed(exc.seed_index, anchor - exc.t) from exc
        traj = np.moveaxis(path[::-1], 0, 1)

    return FlowMap(seed_grid=seeds, time_grid=time_grid, trajectories=traj,
                   direction=direction, steps=steps)



@dataclass(frozen=True)
class JacobianTrack:
    """exp of the divergence path integral along each characteristic."""

    flow: FlowMap
    jx: np.ndarray       # (N, K+1)
    L: float             # trapezoid of div_sup over the time grid


def jacobian(field: VelocityFieldSpec, flow: FlowMap) -> JacobianTrack:
    """JX(t) = exp of the trapezoid path integral of div b along each path.

    Works for forward maps (Jacobian at the seeds) and for backward maps
    (Jacobian composed with the inverse-flow samples, which is exactly the
    combination the representation formula needs). Enforces the two-sided
    bound exp(-L) <= JX <= exp(L) from the divergence sup profile, which
    for an autonomous field is its one value div_sup(0) on every node.
    """
    times = flow.time_grid
    dpi = cumtrapz(sample_nodes(field.eval_div_b, field.autonomous, times,
                                np.moveaxis(flow.trajectories, 1, 0)).T, times)
    L = _div_sup_integral(field, times)
    _check_divergence(dpi, L)
    return JacobianTrack(flow=flow, jx=np.exp(dpi, out=dpi), L=L)


@dataclass(frozen=True)
class DampingAccumulator:
    """D(t, x) = path integral of c along a characteristic, with truncation."""

    flow: FlowMap
    values: np.ndarray           # (N, K+1), trapezoid in time
    truncated_nodes: np.ndarray  # (N,), count of nodes the cut-off zeroes
    total_l1: float              # discrete integral of |c along X| dx dt


def damping_integral(damping: DampingFieldSpec, flow: FlowMap) -> DampingAccumulator:
    """Trapezoid-in-time damping integral along every stored characteristic.

    c is set to zero whenever the trajectory is within the damping's eta of
    its singular point. Raises AllTruncatedError if some trajectory had
    every node excluded (seed effectively at the singular point).
    """
    times = flow.time_grid
    cvals, masked = sample_damping(damping, times,
                                   np.moveaxis(flow.trajectories, 1, 0))
    cvals = cvals.T
    truncated = masked.sum(axis=0)
    _check_truncation(truncated == times.shape[0], damping)
    total_l1 = (float(np.sum(cumtrapz(np.abs(cvals), times)[:, -1]))
                * flow.seed_grid.cell_volume)
    return DampingAccumulator(flow=flow, values=cumtrapz(cvals, times),
                              truncated_nodes=truncated, total_l1=total_l1)


# --- the array BMO pipeline -------------------------------------------------

@dataclass(frozen=True)
class BMOProfile:
    """A compactly supported sample field with its ball-family statistics."""

    grid: CellGrid            # cells covering the box of B_2M
    values: np.ndarray        # (N,), one sample per cell
    M: float
    averages: np.ndarray      # per ball
    oscillations: np.ndarray  # per ball
    norm_star: float

    @property
    def points(self):
        """The grid, whose ``shape[0]`` is the cell count; no point is stored."""
        return self.grid

    @property
    def cell_volume(self):
        return self.grid.cell_volume

    @property
    def d(self):
        return self.grid.dimension

    @cached_property
    def _support(self):
        """(index run of the cells with |x| <= M, of the cells with |x| < M)."""
        # for a float y, y <= M exactly when y < the next float above M
        return tuple(self.grid.ball_runs([(0.0,)] * 2,
                                         [np.nextafter(self.M, np.inf), self.M]))

    @cached_property
    def vanishes_outside(self):
        """True when every sample outside B_M is zero; checked once."""
        return bool(np.count_nonzero(self.values) == np.count_nonzero(self.support_values))

    @property
    def support_values(self):
        """Samples with |x| <= M in grid order, a view of ``values``."""
        a, b = self._support[0]
        return self.values[a:b]

    @cached_property
    def core_values(self):
        """Samples in B_M, the ball every decay check reads, a view of ``values``."""
        a, b = self._support[1]
        if a == b:
            raise EmptyBallError(f"B_M (M={self.M:g}) holds no cell")
        return self.values[a:b]


def array_sampler(values, grid):
    """A block sampler for ``bmo.bmo_norm`` over ``values``, one sample per cell."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape[:1]:
        raise ValueError(f"need one sample per cell, {grid.shape[0]}, not {values.shape}")

    def sample(start, stop, out):
        out[:] = values[start:stop]
    return sample


def bmo_norm(values, M, ball_family, grid) -> BMOProfile:
    """Per-ball averages and mean oscillations; norm_star is the family max.

    ``values`` holds one sample per cell of the ``CellGrid``. The samples
    must be finite and vanish outside B_M (compact support hypothesis of
    the decay lemma).

    Each ball's cells are one exact index run of the grid
    (``CellGrid.ball_runs``), so no distance is computed per cell. A ball
    with no cell raises before any mean is taken. Every average and mean
    oscillation is ``np.mean`` of the ball's samples in grid order, and of
    |sel - avg|, bit for bit (``_ball_statistics``).
    """
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape[:1]:
        raise ValueError(f"need one sample per cell, {grid.shape[0]}, not {values.shape}")
    if not ball_family:
        raise ValueError("ball_family must be nonempty")
    # a NaN makes the max NaN and an inf makes the max or the min infinite,
    # so no full-size mask is built unless a sample is bad
    if values.size and not (np.isfinite(np.max(values)) and np.isfinite(np.min(values))):
        i = int(np.argmin(np.isfinite(values)))
        cell = np.unravel_index(i, (grid.cells_per_axis,) * grid.dimension)
        raise NonFiniteProfileError(f"profile sample {values[i]} at "
                                    f"x={grid.coordinate(cell).tolist()} is not finite")

    averages, oscillations = _ball_statistics(values, ball_family, grid)
    profile = BMOProfile(grid=grid, values=values, M=float(M), averages=averages,
                         oscillations=oscillations, norm_star=float(np.max(oscillations)))
    if not profile.vanishes_outside:
        raise ValueError("profile must vanish outside B_M")
    return profile


def _ball_statistics(values, ball_family, grid):
    """(averages, oscillations) per ball.

    Each ball is one run of the grid, so its samples ``sel`` are a view of
    the values. The average is ``np.add.reduce(sel) / count``. The
    oscillation sum runs along ``_pairwise_sum``'s leaves of at most
    ``_CHUNK`` samples, each written as |leaf - avg| into one leaf-sized
    scratch, so no |sel - avg| array of the ball's size is built.
    """
    runs = grid.ball_runs(*zip(*ball_family))
    for (center, radius), (a, b) in zip(ball_family, runs):
        if a == b:
            raise EmptyBallError(f"ball at {center} radius {radius:g} holds no cell")
    counts = [b - a for a, b in runs]
    scratch = np.empty(min(max(counts), max(_CHUNK, _PAIRWISE_BLOCK)))

    averages = np.empty(len(ball_family))
    oscillations = np.empty(len(ball_family))
    for i, ((start, stop), count) in enumerate(zip(runs, counts)):
        sel = values[start:stop]
        avg = float(np.add.reduce(sel)) / count

        def oscillation(a, b):
            dev = np.subtract(sel[a:b], avg, out=scratch[:b - a])
            return float(np.add.reduce(np.abs(dev, out=dev)))

        averages[i] = avg
        oscillations[i] = _pairwise_sum(oscillation, count) / count
    return averages, oscillations


def jn_decay_check(profile: BMOProfile, eta_grid) -> JNFit:
    """Fit measure{|f - (f)_{B_M}| > eta} to C Leb(B_M) exp(-c eta / ||f||*).

    All-empty superlevels report trivial decay; fewer than three nonempty
    levels cannot be fitted. The B_M samples are read in chunks of
    ``_CHUNK`` cells: one chunk-sized deviation scratch and one mask
    serve every chunk and level, and the integer counts add up exactly.
    """
    if profile.norm_star <= 0.0:
        raise ValueError("decay fit needs a nonconstant profile")
    core = profile.core_values
    avg = float(np.mean(core))
    dev = np.empty(min(core.size, _CHUNK))
    above = np.empty(dev.shape, dtype=bool)

    etas = [float(e) for e in eta_grid]
    counts = [0] * len(etas)
    for start in range(0, core.size, _CHUNK):
        part = core[start:start + _CHUNK]
        chunk = np.subtract(part, avg, out=dev[:part.size])
        np.abs(chunk, out=chunk)
        for k, e in enumerate(etas):
            counts[k] += int(np.count_nonzero(np.greater(chunk, e, out=above[:part.size])))
    measures = [float(c) * profile.cell_volume for c in counts]
    nonzero = [(e, m) for e, m in zip(etas, measures) if m > 0.0]
    if not nonzero:
        return JNFit(C_fit=0.0, c_fit=float("inf"), etas=tuple(etas),
                     measures=tuple(measures))
    if len(nonzero) < 3:
        raise DegenerateFitError(
            f"only {len(nonzero)} nonempty superlevels; need at least 3 for the fit"
        )
    slope, intercept, r2 = log_linear_fit([e for e, _ in nonzero],
                                          [m for _, m in nonzero])
    sigma = profile.norm_star
    return JNFit(C_fit=float(np.exp(intercept)) / ball_volume(profile.d, profile.M),
                 c_fit=float(-slope * sigma), etas=tuple(etas),
                 measures=tuple(measures), r_squared=r2)


def lemma52_checks(profile: BMOProfile, lambda_list) -> SuperlevelReport:
    """Exponential tail decay for nonnegative profiles.

    Only the cells with |x| <= M are read: ``bmo_norm`` verified that every
    nonzero sample lies there, and no level is negative, so every sample
    above a level does too. One support-sized mask serves the sign check
    and every lambda, and no excess array of the support's size is built:
    each tail gathers the samples above lambda norm_star in grid order and
    subtracts the level from them in place. With gradual underflow,
    f - s > 0 exactly when f > s, so the tail sums the same numbers in the
    same order as ``np.sum(excess[excess > 0])`` with ``excess = f - s``
    over the whole grid.
    """
    lambdas = [float(l) for l in lambda_list]
    if any(lam < 0.0 for lam in lambdas):
        raise ValueError("superlevel checks need nonnegative lambdas")
    values = profile.support_values
    above = np.empty(values.shape, dtype=bool)
    if np.less(values, 0.0, out=above).any():
        raise NegativeInputError("superlevel checks need a nonnegative profile")
    sigma = profile.norm_star

    tails = []
    for lam in lambdas:
        level = lam * sigma
        excess = values[np.greater(values, level, out=above)]
        np.subtract(excess, level, out=excess)
        tails.append(float(np.sum(excess)) * profile.cell_volume)
        del excess       # freed before the next level gathers its own

    noninc = all(b <= a + 1e-12 for a, b in zip(tails[:-1], tails[1:]))
    convex = True
    for (l1, t1), (l2, t2), (l3, t3) in zip(
            zip(lambdas, tails), zip(lambdas[1:], tails[1:]), zip(lambdas[2:], tails[2:])):
        s12 = (t2 - t1) / (l2 - l1)
        s23 = (t3 - t2) / (l3 - l2)
        if s23 < s12 - 1e-12 * max(1.0, abs(t1)):
            convex = False

    positive = [(l, t) for l, t in zip(lambdas, tails) if t > 0.0]
    slope = r2 = float("nan")
    if len(positive) >= 2:
        slope, _, r2 = log_linear_fit([l for l, _ in positive],
                                      [t for _, t in positive])
        slope = float(slope)

    return SuperlevelReport(lambdas=tuple(lambdas), tails=tuple(tails),
                            nonincreasing=noninc, convex=convex,
                            log_slope=slope, r_squared=r2)


def _log_core_samples(grid, M):
    """log(1/|x|) on the cells of the 1-D ``grid`` with |x| < M, 0 elsewhere.

    The cells with |x| < M are one run of the grid (``CellGrid.ball_runs``;
    sqrt(x * x) is |x| in binary64 short of underflow, so it is the slice
    -M < x < M). Their centres, then |x|, 1/|x| and the log are written
    into that run of the result in place, and the cells at x = 0 get
    log(1) = 0 through one run-sized bool mask; each sample is the same bits
    as ``where(|x| < M, log(where(|x| > 0, 1/|x|, 1)), 0)`` over the full
    grid of centres. The result starts as ``np.zeros`` (calloc'd) and no
    pass writes outside the run, so the pages of the zero tail are never
    touched and never count towards the resident set; ``zeros_like`` would
    fill them all.
    """
    vals = np.zeros(grid.shape[0])
    (lo, hi), = grid.ball_runs([(0.0,)], [M])
    core = grid.axis(lo, hi, out=vals[lo:hi])
    np.abs(core, out=core)
    zero = core == 0.0
    with np.errstate(divide="ignore"):
        np.divide(1.0, core, out=core)
    np.copyto(core, 1.0, where=zero)
    np.log(core, out=core)
    return vals


def space_conv(fun, moll: MollifierSpec, t, x):
    """``mollify``'s space convolution of ``fun`` at (t, x), one node at a time.

    Every coordinate of every kernel node is shifted, in the (..., d) layout
    of ``x``, and the weighted values are summed left to right in place. A
    (d,) point gives a 0-d value to the first product, which numpy returns
    as a scalar, so a scalar-valued ``fun`` needs (N, d) points here.
    """
    eoffset_rows = (moll.eps * moll.space_offsets).tolist()
    sweights = moll.space_weights
    x = np.asarray(x, dtype=float)
    shifted = np.empty(x.shape)
    columns = [(x[..., j], shifted[..., j]) for j in range(x.shape[-1])]
    acc = tmp = None
    for q, offset in enumerate(eoffset_rows):
        for (xj, sj), oj in zip(columns, offset):
            np.subtract(xj, oj, out=sj)
        val = np.asarray(fun(t, shifted), dtype=float)
        if acc is None:
            acc = sweights[q] * val
            tmp = np.empty(acc.shape)
        else:
            np.add(acc, np.multiply(sweights[q], val, out=tmp), out=acc)
    return acc
