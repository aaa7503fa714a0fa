"""Mean-oscillation norms, John-Nirenberg decay, and the BMO uniqueness bound.

The family norm is a certified lower bound for the true BMO seminorm: the
sup over all balls is replaced by a dyadic-radius family on a coarse grid
of centers, used consistently by every check. The abstract John-Nirenberg
constants are replaced per exemplar by the fitted pair from the measured
superlevel decay.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import (BadSplitError, DegenerateFitError, EmptyBallError,
                     LambdaTooSmallError, NegativeInputError,
                     NonFiniteProfileError)
from .fields import DampingFieldSpec, GrowthSplit
from .numerics import CellGrid, ball_volume, log_linear_fit, profile, tensor_points, trapz
from .renormalization import TestFunctionPhiR
from .weakform import GronwallBoundData, gronwall_constants


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

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
        """(index runs of the cells with |x| <= M, of the cells with |x| < M)."""
        # for a float y, y <= M exactly when y < the next float above M
        return tuple(self.grid.ball_runs([(0.0,) * self.d] * 2,
                                         [np.nextafter(self.M, np.inf), self.M]))

    @cached_property
    def vanishes_outside(self):
        """True when every sample outside B_M is zero; checked once."""
        return bool(np.count_nonzero(self.values) == sum(
            np.count_nonzero(self.values[a:b]) for a, b in self._support[0]))

    @property
    def support_values(self):
        """Samples with |x| <= M in grid order; a view of ``values`` in 1-D."""
        return _gather(self.values, self._support[0])

    @cached_property
    def core_values(self):
        """Samples in B_M, the ball every decay check reads; a view in 1-D."""
        core = _gather(self.values, self._support[1])
        if core.size == 0:
            raise EmptyBallError(f"B_M (M={self.M:g}) holds no cell")
        return core


def _gather(values, runs):
    """The samples of the index ``runs`` in grid order; one run is a view."""
    if len(runs) == 1:
        (a, b), = runs
        return values[a:b]
    if not runs:
        return values[:0]
    return np.concatenate([values[a:b] for a, b in runs])


# cells per leaf of a ball's oscillation sum, and per chunk of the superlevel counts
_CHUNK = 1 << 16
_PAIRWISE_BLOCK = 128    # numpy sums at most this many floats without a split


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


def default_ball_family(M, d):
    """Dyadic radii M 2^-k, k < 7, on a grid of 5^d centers inside B_M."""
    centers = tensor_points([np.linspace(-0.5 * M, 0.5 * M, 5)] * d)
    radii = [M * 2.0 ** (-k) for k in range(7)]
    return tuple((tuple(c), r) for c in centers for r in radii)


def bmo_norm(values, M, ball_family, grid) -> BMOProfile:
    """Per-ball averages and mean oscillations; norm_star is the family max.

    ``values`` holds one sample per cell of the ``CellGrid``. The samples
    must be finite and vanish outside B_M (compact support hypothesis of
    the decay lemma).

    Each ball's cells are exact index runs of the grid
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

    Each ball's samples ``sel`` are gathered once: in 1-D a ball is one run,
    so ``sel`` is a view of the values; in d >= 2 it is a copy of the
    ball's runs. The average is ``np.add.reduce(sel) / count``. The
    oscillation sum runs along ``_pairwise_sum``'s leaves of at most
    ``_CHUNK`` samples, each written as |leaf - avg| into one leaf-sized
    scratch, so no |sel - avg| array of the ball's size is built.
    """
    runs = grid.ball_runs(*zip(*ball_family))
    for (center, radius), r in zip(ball_family, runs):
        if not r:
            raise EmptyBallError(f"ball at {center} radius {radius:g} holds no cell")
    counts = [sum(b - a for a, b in r) for r in runs]
    scratch = np.empty(min(max(counts), max(_CHUNK, _PAIRWISE_BLOCK)))

    averages = np.empty(len(ball_family))
    oscillations = np.empty(len(ball_family))
    for i, (r, count) in enumerate(zip(runs, counts)):
        sel = _gather(values, r)
        avg = float(np.add.reduce(sel)) / count

        def oscillation(a, b):
            dev = np.subtract(sel[a:b], avg, out=scratch[:b - a])
            return float(np.add.reduce(np.abs(dev, out=dev)))

        averages[i] = avg
        oscillations[i] = _pairwise_sum(oscillation, count) / count
        del sel          # freed before the next ball is gathered
    return averages, oscillations


# ---------------------------------------------------------------------------
# John-Nirenberg decay fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JNFit:
    C_fit: float
    c_fit: float
    etas: tuple
    measures: tuple
    trivial: bool = False
    r_squared: Optional[float] = None


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
                     measures=tuple(measures), trivial=True)
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
    average: float
    average_bound: float          # 2^(d+1) norm_star
    average_ok: bool
    lambdas: tuple
    tails: tuple                  # T(lambda) = integral (f - lambda norm_star)_+
    nonincreasing: bool
    convex: bool
    log_slope: Optional[float]
    r_squared: Optional[float]


def lemma52_checks(profile: BMOProfile, lambda_list) -> SuperlevelReport:
    """Average bound and exponential tail decay for nonnegative profiles.

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

    average = float(np.mean(profile.core_values))
    bound = 2.0 ** (profile.d + 1) * sigma

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
    slope = r2 = None
    if len(positive) >= 2:
        slope, _, r2 = log_linear_fit([l for l, _ in positive],
                                      [t for _, t in positive])
        slope = float(slope)

    return SuperlevelReport(average=average, average_bound=bound,
                            average_ok=average <= bound + 1e-12,
                            lambdas=tuple(lambdas), tails=tuple(tails),
                            nonincreasing=noninc, convex=convex,
                            log_slope=slope, r_squared=r2)


# ---------------------------------------------------------------------------
# BMO-divergence Gronwall constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BMODivergenceSplit:
    """|div b| <= d1(t,x) + d2(t,x): bounded part plus compact BMO part."""

    d1_sup: Callable                      # t -> ||d1(t,.)||_inf
    d2_profile: Optional[BMOProfile]      # None when d2 = 0
    d2_norm_star: Callable                # t -> ||d2(t,.)||_*
    jn: Optional["JNFit"] = None          # fitted decay constants for d2


def choose_tau0(norm_star_of_t, c_fit, horizon):
    """tau0 with int_0^tau0 ||d2||_* inside [0.4, 0.5] * c_fit, or the horizon.

    Bisects to 1e-10 of the horizon for the window's midpoint.
    """
    total = _integral_to(norm_star_of_t, horizon)
    if total <= 0.5 * c_fit:
        return horizon
    lo_t, hi_t = 0.0, horizon
    target = 0.5 * (0.4 + 0.5) * c_fit
    while hi_t - lo_t > 1e-10 * horizon:
        mid = 0.5 * (lo_t + hi_t)
        if _integral_to(norm_star_of_t, mid) < target:
            lo_t = mid
        else:
            hi_t = mid
    return 0.5 * (lo_t + hi_t)


def _integral_to(fn, t):
    """Trapezoid integral of the scalar fn over [0, t] on 257 nodes."""
    ts = np.linspace(0.0, t, 257)
    return trapz(profile(fn, ts), ts)


def bmo_gronwall_constants(lam, split: BMODivergenceSplit, growth: GrowthSplit,
                           damping: DampingFieldSpec, phi_R: TestFunctionPhiR,
                           times) -> GronwallBoundData:
    """Constants of the lambda-family Gronwall bound on [0, tau0].

    The abstract decay constants are replaced by the fitted (C, c) of the
    oscillating divergence part; tau0 is chosen so the time integral of the
    oscillation norm stays below half the fitted decay rate, which is what
    makes exp(A_lambda) D_lambda decay in lambda. With d2 = 0 the constants
    reduce to those of the plain logarithmic Gronwall bound.
    """
    d = phi_R.d
    if lam <= 2.0 ** (d + 2):
        raise LambdaTooSmallError(f"lambda={lam:g} must exceed 2^(d+2)={2.0**(d+2):g}")
    if split.d2_profile is not None and not split.d2_profile.vanishes_outside:
        raise BadSplitError("d2 is not compactly supported in B_M")

    tau0, decay = float(times[-1]), 0.0
    if split.d2_profile is not None:
        if split.jn is None:
            raise ValueError("split needs the fitted decay constants (jn)")
        tau0 = choose_tau0(split.d2_norm_star, split.jn.c_fit, tau0)
        decay = split.jn.C_fit * math.exp(-split.jn.c_fit * lam)

    times = times[times <= tau0 + 1e-12]
    sig = profile(split.d2_norm_star, times)
    return gronwall_constants(profile(split.d1_sup, times) + lam * sig, damping,
                              growth, phi_R, times, decay * sig, tau0)
