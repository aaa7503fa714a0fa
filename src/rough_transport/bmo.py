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
from .numerics import (ball_volume, log_linear_fit, profile, sq_norms, tensor_points,
                       trapz)
from .renormalization import TestFunctionPhiR
from .weakform import GronwallBoundData, gronwall_constants


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BMOProfile:
    """A compactly supported sample field with its ball-family statistics."""

    points: np.ndarray        # (N, d) cell centers covering the box of B_2M
    values: np.ndarray        # (N,)
    cell_volume: float
    M: float
    averages: np.ndarray      # per ball
    oscillations: np.ndarray  # per ball
    norm_star: float

    @property
    def d(self):
        return self.points.shape[-1]

    @cached_property
    def _support(self):
        """(no nonzero sample outside B_M, samples in B_M), one slab pass.

        |x| >= |x_0|, so the norm runs on the slab |x_0| <= M alone, and
        every sample outside the slab must be zero.
        """
        keys, order = _by_first_coordinate(self.points)
        rows = _slab_rows(order, np.searchsorted(keys, -self.M, "left"),
                          np.searchsorted(keys, self.M, "right"))
        values = self.values[rows]
        radii = np.sqrt(sq_norms(self.points[rows]))
        return (np.count_nonzero(self.values) == np.count_nonzero(values)
                and not np.any(values[radii > self.M] != 0.0),
                values[radii < self.M])

    @cached_property
    def vanishes_outside(self):
        """True when every sample outside B_M is zero; checked once."""
        return self._support[0]

    @cached_property
    def core_values(self):
        """Samples in B_M, the ball every decay check reads; built once."""
        if self._support[1].size == 0:
            raise EmptyBallError(f"B_M (M={self.M:g}) holds no cell")
        return self._support[1]


def _by_first_coordinate(points):
    """(x_0 sorted, its stable argsort or None when already sorted)."""
    keys = points[:, 0]
    if np.all(keys[:-1] <= keys[1:]):
        return keys, None          # already sorted: every slab is a slice
    order = np.argsort(keys, kind="stable")
    return keys[order], order


def _slab_rows(order, lo, hi):
    """Rows lo:hi of the sorted keys, indexed in their original order."""
    return slice(lo, hi) if order is None else np.sort(order[lo:hi])


def default_ball_family(M, d):
    """Dyadic radii M 2^-k, k < 7, on a grid of 5^d centers inside B_M."""
    centers = tensor_points([np.linspace(-0.5 * M, 0.5 * M, 5)] * d)
    radii = [M * 2.0 ** (-k) for k in range(7)]
    return tuple((tuple(c), r) for c in centers for r in radii)


def bmo_norm(values, M, ball_family, points, cell_volume) -> BMOProfile:
    """Per-ball averages and mean oscillations; norm_star is the family max.

    ``values`` may be a callable on points or a sample array. The samples
    must be finite and vanish outside B_M (compact support hypothesis of
    the decay lemma).

    Each ball reads only the slab of cells whose first coordinate lies
    within its radius, found by binary search on the points sorted by
    that coordinate; the ball test then runs on the slab alone, and the
    selected samples keep their original order, so every average sums
    the same numbers in the same order as a full-grid mask would.
    """
    points = np.asarray(points, dtype=float)
    if callable(values):
        values = np.asarray(values(points), dtype=float)
    else:
        values = np.asarray(values, dtype=float)
    if not ball_family:
        raise ValueError("ball_family must be nonempty")
    bad = ~np.isfinite(values)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NonFiniteProfileError(
            f"profile sample {values[i]} at x={points[i].tolist()} is not finite")

    keys, order = _by_first_coordinate(points)
    averages = np.empty(len(ball_family))
    oscillations = np.empty(len(ball_family))
    for i, (center, radius) in enumerate(ball_family):
        c = np.asarray(center, dtype=float)
        # the margin covers the rounding of |x - c| against |x_0 - c_0|
        pad = 1e-12 * (abs(c[0]) + radius)
        lo, hi = np.searchsorted(keys, (c[0] - radius - pad, c[0] + radius + pad))
        rows = _slab_rows(order, lo, hi)
        inside = np.sqrt(sq_norms(points[rows], c)) < radius
        if not np.any(inside):
            raise EmptyBallError(f"ball at {center} radius {radius:g} holds no cell")
        sel = values[rows][inside]
        avg = float(np.mean(sel))
        averages[i] = avg
        oscillations[i] = float(np.mean(np.abs(sel - avg)))
    profile = BMOProfile(points=points, values=values, cell_volume=float(cell_volume),
                         M=float(M), averages=averages, oscillations=oscillations,
                         norm_star=float(np.max(oscillations)))
    if not profile.vanishes_outside:
        raise ValueError("profile must vanish outside B_M")
    return profile


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
    levels cannot be fitted.
    """
    if profile.norm_star <= 0.0:
        raise ValueError("decay fit needs a nonconstant profile")
    core = profile.core_values
    avg = float(np.mean(core))
    dev = np.abs(core - avg)

    etas = [float(e) for e in eta_grid]
    measures = [float(np.sum(dev > e)) * profile.cell_volume for e in etas]
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
    """Average bound and exponential tail decay for nonnegative profiles."""
    if np.any(profile.values < 0.0):
        raise NegativeInputError("superlevel checks need a nonnegative profile")
    lambdas = [float(l) for l in lambda_list]
    sigma = profile.norm_star

    average = float(np.mean(profile.core_values))
    bound = 2.0 ** (profile.d + 1) * sigma

    tails = []
    for lam in lambdas:
        excess = profile.values - lam * sigma
        tails.append(float(np.sum(excess[excess > 0.0])) * profile.cell_volume)

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
    oscillating divergence part; tau0 is chosen so the accumulated
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
