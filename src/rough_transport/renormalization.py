"""Admissible renormalization families and decaying radial test functions.

Two concrete families are shipped: the rescaled arctan saturations
beta_M(r) = M arctan(r/M), whose weighted derivatives contract
(|r1 b'(r1) - r2 b'(r2)| <= |b(r1) - b(r2)|), and the logarithmic family

    beta_delta(r) = (1/2) log(1 + arctan(r)^2 / delta),

whose derivative satisfies the sharp weighted bound |r beta'(r)| <= 1 for
every delta (the half in front of the log is what makes the bound hold with
constant one; the plain log version only satisfies the bound with constant
two). Both families vanish at zero, are bounded, and have bounded r b'(r),
so they are admissible renormalizations.

phi_R is the Lipschitz radial test function equal to 2^-(d+1) inside the
ball of radius R and decaying like (R + |x|)^-(d+1) outside.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import adaptive_quad, gl_nodes, holds_below, sphere_area


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
    return Renormalizer(beta=beta, beta_prime=beta_prime,
                        sup_beta=M * math.pi / 2.0, sup_rbeta_prime=M,
                        label=f"arctan(M={M:g})")


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
    return Renormalizer(beta=beta, beta_prime=beta_prime,
                        sup_beta=sup_beta, sup_rbeta_prime=1.0,
                        label=f"log(delta={delta:g})")


def arctan_contraction_gap(r1, r2, M):
    """|beta_M(r1) - beta_M(r2)| - |r1 beta'_M(r1) - r2 beta'_M(r2)| (>= 0)."""
    ren = make_beta_arctan(M)
    lhs = abs(float(ren.beta(r1)) - float(ren.beta(r2)))
    rhs = abs(r1 * float(ren.beta_prime(r1)) - r2 * float(ren.beta_prime(r2)))
    return lhs - rhs


# ---------------------------------------------------------------------------
# admissibility checks
# ---------------------------------------------------------------------------

SWEEP_POINTS = 100_000
SWEEP_DECADES = (-6.0, 6.0)


def standard_sweep():
    """Fixed log-spaced sweep over both signs, |r| in [1e-6, 1e6]."""
    mags = np.logspace(SWEEP_DECADES[0], SWEEP_DECADES[1], SWEEP_POINTS // 2)
    return np.concatenate([-mags[::-1], mags])


@dataclass(frozen=True)
class AdmissibilityReport:
    bounded_ok: bool
    rbeta_prime_ok: bool
    zero_ok: bool
    derivative_ok: bool
    witnesses: dict

    @property
    def passed(self):
        return self.bounded_ok and self.rbeta_prime_ok and self.zero_ok and self.derivative_ok


def check_admissible(ren: Renormalizer) -> AdmissibilityReport:
    """Evaluate the three admissibility conditions on the standard sweep.

    Boundedness and the weighted-derivative bound are checked against the
    stored sup values. C^1 is proxied by central finite differences of beta
    against beta_prime on about 2000 sweep points with |r| <= 1e3; the step
    1e-5 |r| stays below the sqrt(delta) scale on which beta_delta bends.
    """
    sweep = standard_sweep()
    witnesses = {}

    bvals = np.asarray(ren.beta(sweep), dtype=float)
    bounded_ok = holds_below(np.abs(bvals), ren.sup_beta, 1e-12)
    if not bounded_ok:
        i = int(np.argmax(np.abs(bvals)))
        witnesses["bounded"] = (float(sweep[i]), float(bvals[i]))

    rb = sweep * np.asarray(ren.beta_prime(sweep), dtype=float)
    rbeta_ok = holds_below(np.abs(rb), ren.sup_rbeta_prime, 1e-12)
    if not rbeta_ok:
        i = int(np.argmax(np.abs(rb)))
        witnesses["rbeta_prime"] = (float(sweep[i]), float(rb[i]))

    zero_ok = abs(float(ren.beta(0.0))) <= 1e-15

    near = np.abs(sweep) <= 1e3
    sub = sweep[near][:: max(1, near.sum() // 2000)]
    h = 1e-5 * np.abs(sub)
    fd = (np.asarray(ren.beta(sub + h)) - np.asarray(ren.beta(sub - h))) / (2.0 * h)
    exact = np.asarray(ren.beta_prime(sub), dtype=float)
    err = np.abs(fd - exact) / (1.0 + np.abs(exact))
    derivative_ok = bool(np.max(err) <= 1e-6)
    if not derivative_ok:
        i = int(np.argmax(err))
        witnesses["derivative"] = (float(sub[i]), float(err[i]))

    return AdmissibilityReport(bounded_ok=bounded_ok, rbeta_prime_ok=rbeta_ok,
                               zero_ok=zero_ok, derivative_ok=derivative_ok,
                               witnesses=witnesses)


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

    @property
    def support_radius(self):
        # unbounded support: weak-form truncation goes through the tail policy
        return float("inf")

    @property
    def reference_integral(self):
        return self.l1_norm

    def mass_outside(self, radius):
        return self.tail_mass(radius)

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

    def tail_mass(self, radius):
        """Integral of phi_R outside the ball of the given radius (>= R)."""
        if radius < self.R:
            raise ValueError("tail only available outside the plateau")
        if self.d == 1:
            return 2.0 * self.R ** 2 / (self.R + radius)
        val = adaptive_quad(lambda s: s ** (self.d - 1)
                            * self.R ** (self.d + 1) / (self.R + s) ** (self.d + 1),
                            radius, np.inf)
        return sphere_area(self.d) * val


def make_phi_R(R, d) -> TestFunctionPhiR:
    """Build phi_R with its L1 norm (closed form in d = 1, 2)."""
    if R <= 0.0:
        raise ValueError("R must be positive")
    R = float(R)
    if d == 1:
        l1 = 1.5 * R
    elif d == 2:
        l1 = 7.0 * math.pi * R * R / 8.0
    else:
        inner = sphere_area(d) * (0.5 ** (d + 1)) * R ** d / d
        outer = adaptive_quad(lambda s: s ** (d - 1) * R ** (d + 1) / (R + s) ** (d + 1),
                              R, np.inf)
        l1 = inner + sphere_area(d) * outer
    return TestFunctionPhiR(R=R, d=d, l1_norm=l1)


def phi_R_radial_integral(phi: TestFunctionPhiR):
    """Radial quadrature of phi_R on 100 linear panels over [0, 2R] and 100
    geometric ones up to 1000 R, plus the analytic tail; cross-checks the
    stored L1 norm."""
    R, d = phi.R, phi.d
    hi = 1e3 * R
    total = 0.0
    cuts = np.concatenate([np.linspace(0.0, 2.0 * R, 101),
                           np.geomspace(2.0 * R, hi, 101)[1:]])
    for a, b in zip(cuts[:-1], cuts[1:]):
        xs, ws = gl_nodes(a, b, 16)
        pts = np.zeros((xs.size, d))
        pts[:, 0] = xs
        vals = phi(pts) * xs ** (d - 1)
        total += float(np.dot(ws, vals))
    return sphere_area(d) * total + phi.tail_mass(hi)
