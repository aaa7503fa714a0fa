"""Mean-oscillation norms, John-Nirenberg decay, and the BMO uniqueness bound.

The family norm is a certified lower bound for the true BMO seminorm: the
sup over all balls is replaced by a dyadic-radius family on a coarse grid
of centers, used consistently by every check. The abstract John-Nirenberg
constants are replaced per exemplar by the fitted pair from the measured
superlevel decay.

A profile is never held as an array of its samples: it is a block sampler,
and every statistic streams over blocks of ``_CHUNK`` cells.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (BadSplitError, DegenerateFitError, EmptyBallError,
                     LambdaTooSmallError, NegativeInputError,
                     NonFiniteProfileError)
from .fields import DampingFieldSpec, VelocityFieldSpec, sample_nodes
from .numerics import CellGrid, ball_volume, log_linear_fit, tensor_points, trapz
from .renormalization import TestFunctionPhiR
from .weakform import GronwallBoundData, gronwall_constants


# cells per block of a sweep, and at most per leaf of a ball's pairwise sum
_CHUNK = 1 << 16
_PAIRWISE_BLOCK = 128    # numpy sums at most this many floats without a split


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BMOProfile:
    """A compactly supported field, held as a block sampler, with its ball statistics.

    ``sample(start, stop, out)`` writes the samples of cells start:stop into
    ``out``; no sample is stored. Beside the per-ball statistics the profile
    keeps what its first sweep saw: the mean over B_M and each block's
    (min, max), from which the superlevel checks tell which blocks they must
    sample at all.
    """

    grid: CellGrid            # cells covering the box of B_2M
    sample: Callable          # sample(start, stop, out) writes cells start:stop
    M: float
    averages: np.ndarray      # per ball
    oscillations: np.ndarray  # per ball
    norm_star: float
    core_run: tuple           # index run (start, stop) of the cells with |x| < M
    core_mean: float          # np.mean of the samples in B_M, bit for bit
    block: int                # cells per block of every sweep
    block_min: np.ndarray     # per block
    block_max: np.ndarray

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

    def sampled_blocks(self, keep):
        """(start, samples) of every block k with ``keep[k]``, in grid order.

        One block-sized buffer holds each block in turn.
        """
        n = self.grid.shape[0]
        buf = np.empty(min(self.block, n))
        for k in np.flatnonzero(keep).tolist():
            start = k * self.block
            out = buf[:min(start + self.block, n) - start]
            self.sample(start, start + out.size, out)
            yield start, out


def _clip(run, start, stop):
    """The part a:b of the index ``run`` (start, stop) in cells start:stop; a == b if none."""
    a = min(max(run[0], start), stop)
    return a, max(a, min(run[1], stop))


def _pairwise_sum(leaf_sum, n, start=0):
    """``np.add.reduce`` of n contiguous floats, bit for bit, from leaf sums.

    numpy sums more than ``_PAIRWISE_BLOCK`` floats as the sum of its two
    halves, split at n//2 - (n//2) % 8, so the tree depends on n alone.
    The same splits run here down to leaves of at most ``_CHUNK`` floats
    (or ``_PAIRWISE_BLOCK``, below which numpy splits no more), and the
    leaf sums add up in tree order. ``leaf_sum(a, b)`` must return
    ``np.add.reduce`` of floats a:b as a Python float.
    """
    if n <= max(_CHUNK, _PAIRWISE_BLOCK):
        return leaf_sum(start, start + n)
    half = n // 2 - (n // 2) % 8
    return (_pairwise_sum(leaf_sum, half, start)
            + _pairwise_sum(leaf_sum, n - half, start + half))


def _leaves(n):
    """The (start, stop) leaves of ``_pairwise_sum``'s tree over n floats, in order."""
    leaves = []
    _pairwise_sum(lambda a, b: leaves.append((a, b)) or 0.0, n)
    return leaves


def _tree_sum(leaf_sums, n):
    """``_pairwise_sum`` of n floats whose leaf sums are given in leaf order."""
    sums = iter(leaf_sums)
    return _pairwise_sum(lambda a, b: next(sums), n)


def _ball_sums(sample, n_cells, runs, block, centres=None, visit=None):
    """Per ball run (start, stop), ``np.add.reduce`` of its samples, bit for bit.

    With ``centres``, of |f - centres[i]| over ball i instead. One sweep
    samples each block once, into a window that holds the previous block
    and the current one. ``_pairwise_sum`` cuts each run into leaves of at
    most ``block`` cells, so a leaf is a view of the window in the block
    where it ends, and is reduced there; |f - centre| goes into one
    block-sized scratch. A ball's leaves end in grid order, so its leaf
    sums are appended as the sweep passes and add up along the tree at the
    end. ``visit(start, samples)`` sees each block before any leaf is read.
    """
    ends = [[] for _ in range(-(-n_cells // block))]    # per block, (ball, first, stop)
    for i, (a, b) in enumerate(runs):
        for s, e in _leaves(b - a):
            ends[(a + e - 1) // block].append((i, a + s, a + e))
    width = min(block, n_cells)
    window = np.empty(2 * width)
    scratch = None if centres is None else np.empty(width)
    sums = [[] for _ in runs]
    for k, start in enumerate(range(0, n_cells, block)):
        stop = min(start + block, n_cells)
        if k:
            window[:width] = window[width:]
        cur = window[width:width + stop - start]
        sample(start, stop, cur)
        if visit is not None:
            visit(start, cur)
        shift = width - start                    # window[c + shift] holds cell c
        for i, a, b in ends[k]:
            leaf = window[a + shift:b + shift]
            if centres is not None:
                leaf = np.abs(np.subtract(leaf, centres[i], out=scratch[:b - a]),
                              out=scratch[:b - a])
            sums[i].append(float(np.add.reduce(leaf)))
    return [_tree_sum(leaf_sums, b - a) for leaf_sums, (a, b) in zip(sums, runs)]


def default_ball_family(M, d):
    """Dyadic radii M 2^-k, k < 7, on a grid of 5^d centers inside B_M."""
    centers = tensor_points([np.linspace(-0.5 * M, 0.5 * M, 5)] * d)
    radii = [M * 2.0 ** (-k) for k in range(7)]
    return tuple((tuple(c), r) for c in centers for r in radii)


def bmo_norm(sample, M, ball_family, grid) -> BMOProfile:
    """Per-ball averages and mean oscillations; norm_star is the family max.

    ``sample(start, stop, out)`` writes the samples of cells start:stop of
    the 1-D ``CellGrid`` into ``out``; a grid of any other dimension raises
    ``ValueError``. The samples must be finite and vanish outside B_M
    (compact support hypothesis of the decay lemma).

    Each ball's cells are one exact index run of the grid
    (``CellGrid.ball_runs``), so no distance is computed per cell, and a
    ball with no cell, B_M included, raises before any sample is read. Two
    sweeps (``_ball_sums``) read the grid in blocks of ``_CHUNK`` cells,
    each block once per sweep. The first gives each ball's average, the
    mean over B_M and each block's (min, max), and checks that every sample
    is finite (naming the first bad cell in grid order) and that the
    samples vanish outside B_M; the second gives the oscillations. Every
    average and mean oscillation is ``np.mean`` of the ball's samples in
    grid order, and of |sel - avg|, bit for bit.
    """
    if not ball_family:
        raise ValueError("ball_family must be nonempty")
    M, n = float(M), grid.shape[0]
    block = max(_CHUNK, _PAIRWISE_BLOCK)
    # the closed and the open B_M: for a float y, y <= M exactly when y is
    # below the next float above M
    *runs, support, core = grid.ball_runs(
        [c for c, _ in ball_family] + [(0.0,)] * 2,
        [r for _, r in ball_family] + [np.nextafter(M, np.inf), M])
    for (center, radius), (a, b) in zip(ball_family, runs):
        if a == b:
            raise EmptyBallError(f"ball at {center} radius {radius:g} holds no cell")
    if core[0] == core[1]:
        raise EmptyBallError(f"B_M (M={M:g}) holds no cell")

    lows, highs, leaks = [], [], []

    def visit(start, cur):
        low, high = np.min(cur), np.max(cur)
        # a NaN makes the max NaN and an inf makes the max or the min infinite,
        # so no mask is built unless a sample is bad
        if not (np.isfinite(low) and np.isfinite(high)):
            i = int(np.argmin(np.isfinite(cur)))
            raise NonFiniteProfileError(f"profile sample {cur[i]} at "
                                        f"x={grid.coordinate([start + i]).tolist()} is not finite")
        lows.append(low)
        highs.append(high)
        a, b = _clip(support, start, start + cur.size)
        if np.count_nonzero(cur) != np.count_nonzero(cur[a - start:b - start]):
            leaks.append(start)

    *sums, core_sum = _ball_sums(sample, n, runs + [core], block, visit=visit)
    if leaks:
        raise ValueError("profile must vanish outside B_M")
    counts = [b - a for a, b in runs]
    averages = [s / c for s, c in zip(sums, counts)]
    oscillations = np.array([s / c for s, c in zip(
        _ball_sums(sample, n, runs, block, centres=averages), counts)])
    return BMOProfile(grid=grid, sample=sample, M=M, averages=np.array(averages),
                      oscillations=oscillations, norm_star=float(np.max(oscillations)),
                      core_run=core, core_mean=core_sum / (core[1] - core[0]), block=block,
                      block_min=np.array(lows), block_max=np.array(highs))


# ---------------------------------------------------------------------------
# John-Nirenberg decay fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JNFit:
    C_fit: float
    c_fit: float
    etas: tuple
    measures: tuple
    r_squared: float = float("nan")     # nan when no fit is made


def jn_decay_check(profile: BMOProfile, eta_grid) -> JNFit:
    """Fit measure{|f - (f)_{B_M}| > eta} to C Leb(B_M) exp(-c eta / ||f||*).

    All-empty superlevels report trivial decay (C_fit = 0, c_fit = inf);
    fewer than three nonempty levels cannot be fitted. The superlevels are
    counted by ``_hit_counts``, bounding each block by its reach: rounding
    is monotone, so no sample of a block deviates from the mean by more
    than the block's min or max does, and a block whose reach is at most
    every level is skipped unread.
    In a sampled block the B_M cells become |f - mean| in place, and the
    integer counts add up exactly.
    """
    if profile.norm_star <= 0.0:
        raise ValueError("decay fit needs a nonconstant profile")
    avg = profile.core_mean
    etas = [float(e) for e in eta_grid]
    reach = np.maximum(np.abs(profile.block_min - avg), np.abs(profile.block_max - avg))

    def deviation(start, cur):
        a, b = _clip(profile.core_run, start, start + cur.size)
        dev = cur[a - start:b - start]
        np.subtract(dev, avg, out=dev)
        return np.abs(dev, out=dev)

    counts = _hit_counts(profile, etas, reach, deviation)
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


# ---------------------------------------------------------------------------
# superlevel tail integrals (decay lemma)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuperlevelReport:
    lambdas: tuple
    tails: tuple                  # T(lambda) = integral (f - lambda norm_star)_+
    nonincreasing: bool
    convex: bool
    log_slope: float              # nan, as r_squared, when no fit is made
    r_squared: float


def _hit_counts(profile, levels, bound=None, value=None):
    """Values above each level, from one pass over the blocks that can reach any of them.

    ``bound`` holds an upper bound of each block's values, the block maxima
    by default, and a block counts only the levels below its bound.
    ``value(start, samples)`` maps a sampled block to the values it counts,
    the samples themselves by default.
    """
    bound = profile.block_max if bound is None else bound
    counts = [0] * len(levels)
    for start, cur in profile.sampled_blocks(bound > min(levels, default=np.inf)):
        top = bound[start // profile.block]
        vals = cur if value is None else value(start, cur)
        for i, level in enumerate(levels):
            if top > level:
                counts[i] += int(np.count_nonzero(vals > level))
    return counts


def _tail(profile, level, n):
    """``np.sum`` of f - level over the n samples f > level in grid order, bit for bit.

    Only the blocks whose max exceeds the level are sampled. The hit count
    n (``_hit_counts``) fixes the length of the gathered excess and so its
    pairwise tree; each block's excess passes, in grid order, through one
    leaf buffer, and each leaf is reduced as it fills.
    """
    if not n:
        return 0.0
    keep = profile.block_max > level
    leaves = iter(_leaves(n))
    s, e = next(leaves)
    leaf = np.empty(min(profile.block, n))
    sums, fill = [], 0
    for _, cur in profile.sampled_blocks(keep):
        excess = cur[cur > level]
        np.subtract(excess, level, out=excess)
        while excess.size:
            take = min(excess.size, e - s - fill)
            leaf[fill:fill + take] = excess[:take]
            excess = excess[take:]
            fill += take
            if fill == e - s:
                sums.append(float(np.add.reduce(leaf[:fill])))
                fill = 0
                s, e = next(leaves, (n, n))
    return _tree_sum(sums, n)


def lemma52_checks(profile: BMOProfile, lambda_list) -> SuperlevelReport:
    """Exponential tail decay for nonnegative profiles.

    The sign check reads the block minima. ``bmo_norm`` verified that
    every nonzero sample lies in the closed B_M, and no level is negative,
    so the samples above a level lie there too. One pass over the blocks
    above any level counts the hits of every level (``_hit_counts``); each
    tail then gathers only the blocks whose max exceeds its level
    (``_tail``). With gradual underflow, f - s > 0 exactly when
    f > s, so each tail sums the same numbers in the same order as
    ``np.sum(excess[excess > 0])`` with ``excess = f - s`` over the whole
    grid.
    """
    lambdas = [float(l) for l in lambda_list]
    if any(lam < 0.0 for lam in lambdas):
        raise ValueError("superlevel checks need nonnegative lambdas")
    if np.min(profile.block_min) < 0.0:
        raise NegativeInputError("superlevel checks need a nonnegative profile")
    sigma = profile.norm_star
    levels = [lam * sigma for lam in lambdas]
    tails = [_tail(profile, level, n) * profile.cell_volume
             for level, n in zip(levels, _hit_counts(profile, levels))]

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


# ---------------------------------------------------------------------------
# BMO-divergence Gronwall constants
# ---------------------------------------------------------------------------

def choose_tau0(sigma, c_fit, horizon):
    """tau0 with int_0^tau0 sigma dt inside [0.4, 0.5] * c_fit, or the horizon.

    The constant sigma is integrated by the 257-node trapezoid rule. Bisects
    to 1e-10 of the horizon for the window's midpoint.
    """
    def integral_to(t):
        ts = np.linspace(0.0, t, 257)
        return trapz(np.full(ts.shape, sigma), ts)

    if integral_to(horizon) <= 0.5 * c_fit:
        return horizon
    lo_t, hi_t = 0.0, horizon
    target = 0.5 * (0.4 + 0.5) * c_fit
    while hi_t - lo_t > 1e-10 * horizon:
        mid = 0.5 * (lo_t + hi_t)
        if integral_to(mid) < target:
            lo_t = mid
        else:
            hi_t = mid
    return 0.5 * (lo_t + hi_t)


_SPLIT_CELLS = 256      # cells of the profile on which the split is checked


def _check_split(profile: BMOProfile, field: VelocityFieldSpec, times):
    """Raise BadSplitError unless |div b| <= d1 + d2 on a fixed strided subset of cells.

    d1 = 0 and d2 is the ``profile``; the slack is 1e-12, absolute. The
    subset is every (cells // 256)th cell of the profile's grid from cell
    0, each sampled alone, so the check costs a few ms: sampling every cell
    would take about as long as ``bmo_norm``'s sweeps. div b is sampled
    there at ``times[0]``, or at every time when b depends on time; the
    error names the worst cell (a NaN is worst).
    """
    grid = profile.grid
    cells = np.arange(0, grid.shape[0], max(1, grid.shape[0] // _SPLIT_CELLS))
    d2 = np.empty(cells.size)
    for j, i in enumerate(cells.tolist()):
        profile.sample(i, i + 1, d2[j:j + 1])
    x = grid.coordinate(cells)[:, None]      # a profile's grid is 1-D
    ts = times[:1] if field.autonomous else times
    div = sample_nodes(field.eval_div_b, field.autonomous, ts,
                       np.broadcast_to(x, ts.shape + x.shape))
    excess = np.abs(div) - d2
    k, j = np.unravel_index(np.argmax(excess), excess.shape)
    if not excess[k, j] <= 1e-12:
        raise BadSplitError(f"|div b| = {abs(div[k, j]):.6g} exceeds d1 + d2 = {d2[j]:.6g} "
                            f"at x={x[j].tolist()}, t={ts[k]:g}")


def bmo_gronwall_family(lambdas, profile: BMOProfile, jn: JNFit, growth: VelocityFieldSpec,
                        damping: DampingFieldSpec, phi_R: TestFunctionPhiR,
                        times) -> list[GronwallBoundData]:
    """Constants of the lambda-family Gronwall bound on [0, tau0], one per lambda.

    |div b| <= d2, the compactly supported, time-independent ``profile``
    (``_check_split`` checks it for the field ``growth`` first), and the
    fitted (C, c) of ``jn`` replace the abstract decay constants.
    tau0 does not depend on lambda: it is chosen once, so that the integral
    of sigma = ||d2||_* stays below c / 2, which makes exp(A) D decay in
    lambda. The rate is lambda sigma and the decay C e^{-c lambda} sigma.
    """
    d = phi_R.d
    for lam in lambdas:
        if lam <= 2.0 ** (d + 2):
            raise LambdaTooSmallError(f"lambda={lam:g} must exceed 2^(d+2)={2.0**(d+2):g}")
    _check_split(profile, growth, times)

    tau0 = choose_tau0(profile.norm_star, jn.c_fit, float(times[-1]))
    times = times[times <= tau0 + 1e-12]
    sig = np.full(times.shape, profile.norm_star)
    return [gronwall_constants(lam * sig, damping, growth, phi_R, times,
                               jn.C_fit * math.exp(-jn.c_fit * lam) * sig, tau0)
            for lam in lambdas]
