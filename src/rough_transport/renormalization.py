"""Admissible renormalization families and decaying radial test functions.

Two concrete families are shipped: the rescaled arctan saturations
beta_M(r) = M arctan(r/M), whose weighted derivatives contract
(|r1 b'(r1) - r2 b'(r2)| <= |b(r1) - b(r2)|), and the logarithmic family

    beta_delta(r) = (1/2) log(1 + arctan(r)^2 / delta),

whose derivative satisfies the sharp weighted bound |r beta'(r)| <= 1 for
every delta (the half in front of the log is what makes the bound hold with
constant one; the plain log version only satisfies the bound with constant
two). Both families vanish at zero, are bounded, and have bounded r b'(r),
so they are admissible; each factory certifies its result by check_admissible.

phi_R is the Lipschitz radial test function equal to 2^-(d+1) inside the
ball of radius R and decaying like (R + |x|)^-(d+1) outside.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import InadmissibleRenormalizerError
from .numerics import holds_below


# ---------------------------------------------------------------------------
# renormalizers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Renormalizer:
    """beta with derivative and certified sup bounds."""

    beta: Callable
    beta_prime: Callable
    sup_beta: float
    sup_rbeta_prime: float
    label: str


def make_beta_arctan(M) -> Renormalizer:
    """beta_M(r) = M arctan(r/M); saturates at M pi/2, tends to r as M grows."""
    if M <= 0.0:
        raise ValueError("M must be positive")
    M = float(M)

    def beta(r):
        return M * np.arctan(np.asarray(r, dtype=float) / M)

    def beta_prime(r):
        r = np.asarray(r, dtype=float)
        return M * M / (M * M + r * r)

    # |r beta'| = M^2 |r| / (M^2 + r^2) peaks at M/2; M is the loose bound kept
    return _certified(Renormalizer(beta=beta, beta_prime=beta_prime,
                                   sup_beta=M * math.pi / 2.0, sup_rbeta_prime=M,
                                   label=f"arctan(M={M:g})"))


def make_beta_log(delta) -> Renormalizer:
    """beta_delta(r) = 0.5 log(1 + arctan(r)^2/delta); |r beta'| <= 1."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    delta = float(delta)

    def beta(r):
        a = np.arctan(np.asarray(r, dtype=float))
        return 0.5 * np.log1p(a * a / delta)

    def beta_prime(r):
        r = np.asarray(r, dtype=float)
        a = np.arctan(r)
        return a / ((1.0 + r * r) * (delta + a * a))

    sup_beta = 0.5 * math.log1p(math.pi ** 2 / (4.0 * delta))
    return _certified(Renormalizer(beta=beta, beta_prime=beta_prime,
                                   sup_beta=sup_beta, sup_rbeta_prime=1.0,
                                   label=f"log(delta={delta:g})"))


# ---------------------------------------------------------------------------
# admissibility checks
# ---------------------------------------------------------------------------

SWEEP_POINTS = 100_000
SWEEP_DECADES = (-6.0, 6.0)


@lru_cache(maxsize=None)
def standard_sweep():
    """Fixed log-spaced sweep over both signs, |r| in [1e-6, 1e6]; built once, read-only."""
    mags = np.logspace(SWEEP_DECADES[0], SWEEP_DECADES[1], SWEEP_POINTS // 2)
    sweep = np.concatenate([-mags[::-1], mags])
    sweep.flags.writeable = False
    return sweep


def check_admissible(ren: Renormalizer) -> dict:
    """Evaluate the three admissibility conditions on the standard sweep.

    Returns the witnesses of the failed conditions, {condition: (r, value)}
    under the keys "bounded", "rbeta_prime", "zero" and "derivative"; the
    dict is empty when beta is admissible. Boundedness and the
    weighted-derivative bound are checked against the stored sup values.
    C^1 is proxied by central finite differences of beta against beta_prime
    on about 2000 sweep points with |r| <= 1e3; the step 1e-5 |r| stays
    below the sqrt(delta) scale on which beta_delta bends.
    """
    sweep = standard_sweep()
    witnesses = {}

    bvals = np.asarray(ren.beta(sweep), dtype=float)
    if not holds_below(np.abs(bvals), ren.sup_beta, 1e-12):
        i = int(np.argmax(np.abs(bvals)))
        witnesses["bounded"] = (float(sweep[i]), float(bvals[i]))

    rb = sweep * np.asarray(ren.beta_prime(sweep), dtype=float)
    if not holds_below(np.abs(rb), ren.sup_rbeta_prime, 1e-12):
        i = int(np.argmax(np.abs(rb)))
        witnesses["rbeta_prime"] = (float(sweep[i]), float(rb[i]))

    if not abs(float(ren.beta(0.0))) <= 1e-15:
        witnesses["zero"] = (0.0, float(ren.beta(0.0)))

    near = np.abs(sweep) <= 1e3
    sub = sweep[near][:: max(1, near.sum() // 2000)]
    h = 1e-5 * np.abs(sub)
    fd = (np.asarray(ren.beta(sub + h)) - np.asarray(ren.beta(sub - h))) / (2.0 * h)
    exact = np.asarray(ren.beta_prime(sub), dtype=float)
    err = np.abs(fd - exact) / (1.0 + np.abs(exact))
    if not np.max(err) <= 1e-6:
        i = int(np.argmax(err))
        witnesses["derivative"] = (float(sub[i]), float(err[i]))
    return witnesses


def _certified(ren: Renormalizer) -> Renormalizer:
    """ren once check_admissible passes; else the failed conditions and witnesses."""
    witnesses = check_admissible(ren)
    if witnesses:
        raise InadmissibleRenormalizerError(f"{ren.label} is not admissible; failed "
                                            f"condition: (r, value) {witnesses}")
    return ren


# ---------------------------------------------------------------------------
# decaying test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunctionPhiR:
    """phi_R: 2^-(d+1) inside B_R, R^(d+1)/(R+|x|)^(d+1) outside.

    Lipschitz, integrable, with |grad phi_R| <= (d+1) phi_R / (R + |x|)
    off the sphere |x| = R (the gradient at the kink takes the outer
    branch; the sphere is measure zero).
    """

    R: float
    d: int
    l1_norm: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        inner = 0.5 ** (self.d + 1)
        outer = self.R ** (self.d + 1) / (self.R + r) ** (self.d + 1)
        return np.where(r < self.R, inner, outer)

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        safe_r = np.where(r > 0.0, r, 1.0)
        mag = (self.d + 1) * self.R ** (self.d + 1) / (self.R + r) ** (self.d + 2)
        out = -mag * x / safe_r
        return np.where(r >= self.R, out, 0.0)


def make_phi_R(R, d) -> TestFunctionPhiR:
    """Build phi_R with its closed-form L1 norm; d is 1 or 2, as in every scenario."""
    if R <= 0.0:
        raise ValueError("R must be positive")
    R = float(R)
    if d == 1:
        l1 = 1.5 * R
    elif d == 2:
        l1 = 7.0 * math.pi * R * R / 8.0
    else:
        raise ValueError(f"phi_R has a closed-form L1 norm only for d = 1, 2, not {d}")
    return TestFunctionPhiR(R=R, d=d, l1_norm=l1)
