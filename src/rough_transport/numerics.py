"""Small shared numerical utilities: grids, quadrature, stable sums, fits,
bound tests and ball measures."""

import math
import os
from functools import lru_cache

import numpy as np


def cell_centers(radius, n):
    """Centres of the n equal cells of [-radius, radius], ascending."""
    return -radius + 2.0 * radius / n * (np.arange(n) + 0.5)


def tensor_points(axes):
    """Every point of the tensor grid on ``axes``, shape (N, d), "ij" order."""
    mesh = np.meshgrid(*axes, indexing="ij", copy=False)
    return np.stack([m.ravel() for m in mesh], axis=-1)


def sq_norms(x, center=None, out=None):
    """|x - center|^2 over the last axis of ``x`` (..., d), into ``out`` if given.

    The squares are summed one coordinate at a time, in coordinate order:
    one pass over all points per coordinate, where a reduction over the
    length-d axis runs numpy's inner loop over just d = 1 or 2 items per
    point, several times slower. numpy's ``add.reduce`` also sums fewer
    than 8 items left to right, so for d < 8 the result equals
    ``np.sum((x - center) ** 2, -1)`` bit for bit, and its sqrt equals
    ``np.linalg.norm(x - center, axis=-1)``.
    """
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty(x.shape[:-1])
    tmp = None
    for j in range(x.shape[-1]):
        xj = x[..., j]
        if center is not None:
            xj = xj - center[j]
        if j == 0:
            np.multiply(xj, xj, out=out)
        else:
            # a shifted coordinate is a fresh array and is squared in place
            tmp = np.multiply(xj, xj, out=xj if center is not None else tmp)
            np.add(out, tmp, out=out)
    return out


def holds_below(values, bound, slack):
    """True when every value is at most bound * (1 + slack); NaN fails."""
    return bool(np.all(values <= bound * (1.0 + slack) + 1e-300))


@lru_cache(maxsize=None)
def gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gl_nodes(a, b, n):
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = gauss_legendre(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def adaptive_quad(fn, a, b, limit=50):
    """QUADPACK integral of the scalar ``fn`` over [a, b]; ``b`` may be inf.

    scipy is imported here, on the first call, not with the package: no
    default scenario integrates adaptively, and the import costs more than
    numpy's.
    """
    from scipy.integrate import quad
    return quad(fn, a, b, limit=limit)[0]


def stable_sum(values):
    """Exactly rounded sum in a fixed (C-order) traversal.

    Used for the heterogeneous accumulations that feed pass/fail decisions;
    large homogeneous arrays go through numpy's deterministic pairwise sum.
    """
    return math.fsum(np.asarray(values, dtype=float).ravel(order="C"))


def cumtrapz(values, times):
    """Cumulative trapezoid along the last axis; first entry is zero."""
    values = np.asarray(values, dtype=float)
    times = np.asarray(times, dtype=float)
    dt = np.diff(times)
    increments = 0.5 * dt * (values[..., 1:] + values[..., :-1])
    out = np.zeros(values.shape)
    np.cumsum(increments, axis=-1, out=out[..., 1:])
    return out


def profile(fn, times, *args):
    """The scalar time profile [fn(t, *args) for t in times] as an array."""
    return np.array([float(fn(float(t), *args)) for t in times])


def trapz(values, times):
    values = np.asarray(values, dtype=float)
    times = np.asarray(times, dtype=float)
    dt = np.diff(times)
    return float(np.sum(0.5 * dt * (values[..., 1:] + values[..., :-1]), axis=-1))


def trapezoid_weights(times):
    """Weights w with sum(w * f) = trapezoid rule of f over the grid."""
    times = np.asarray(times, dtype=float)
    w = np.zeros(times.shape)
    dt = np.diff(times)
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt
    return w


def order_estimate(scales, errors):
    """Least-squares slope of log(error) against log(scale).

    Standard order-of-accuracy estimate from a refinement ladder; entries at
    the rounding floor (error 0) are dropped.
    """
    scales = np.asarray(scales, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = errors > 0.0
    if keep.sum() < 2:
        return float("nan")
    slope = np.polyfit(np.log(scales[keep]), np.log(errors[keep]), 1)[0]
    return float(slope)


def log_linear_fit(xs, ys):
    """Least-squares line log(ys) = slope * xs + intercept, with its R^2.

    Returns (slope, intercept, r_squared); a constant log(ys) has R^2 = 1.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.log(ys)
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return slope, intercept, r2


def sphere_area(d):
    """Surface measure of the unit sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def ball_volume(d, r):
    """Lebesgue measure of the ball of radius r in R^d."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * r ** d


def worker_count():
    """Worker cap, 1 to 4 by CPU count; ROUGH_TRANSPORT_THREADS overrides.

    The package itself runs no parallel map any more. This stays because
    the benchmark (``perfbench/one_pass.py``) imports it to report the
    worker count of each pass.
    """
    env = os.environ.get("ROUGH_TRANSPORT_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, min(4, os.cpu_count() or 1))
