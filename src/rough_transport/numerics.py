"""Small shared numerical utilities: grids, quadrature, stable sums, fits,
bound tests and ball measures."""

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def cell_centers(radius, n, start=0, stop=None, out=None):
    """Centres of cells start:stop of the n equal cells of [-radius, radius].

    Built in ``out`` (or the new result) itself, with no second temporary.
    The bits are those of ``-radius + 2.0 * radius / n * (i + 0.5)`` for
    the integer i: the running sum of ones and the shift by start - 0.5
    give every i + 0.5 exactly below 2^52, the factor is formed first as
    there, and IEEE addition commutes.
    """
    xs = np.empty((n if stop is None else stop) - start) if out is None else out
    xs.fill(1.0)
    np.add.accumulate(xs, out=xs)
    xs += start - 0.5
    xs *= 2.0 * radius / n
    xs += -radius
    return xs


def tensor_points(axes):
    """Every point of the tensor grid on ``axes``, shape (N, d), "ij" order."""
    mesh = np.meshgrid(*axes, indexing="ij", copy=False)
    return np.stack([m.ravel() for m in mesh], axis=-1)


def sq_norms(x, out=None):
    """|x|^2 over the last axis of ``x`` (..., d), into ``out`` if given.

    The squares are summed one coordinate at a time, in coordinate order:
    one pass over all points per coordinate, where a reduction over the
    length-d axis runs numpy's inner loop over just d = 1 or 2 items per
    point, several times slower. numpy's ``add.reduce`` also sums fewer
    than 8 items left to right, so for d < 8 the result equals
    ``np.sum(x ** 2, -1)`` bit for bit, and its sqrt equals
    ``np.linalg.norm(x, axis=-1)``.

    Coordinate 0 is squared in ``out`` itself, and every later coordinate
    in one scratch array, so a 1-D call with ``out`` allocates nothing.
    """
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty(x.shape[:-1])
    tmp = None
    for j in range(x.shape[-1]):
        xj = x[..., j]
        dst = np.multiply(xj, xj, out=out if j == 0 else tmp)
        if j > 0:
            np.add(out, dst, out=out)
            tmp = dst
    return out


@dataclass(frozen=True)
class CellGrid:
    """The equal cells of [-radius, radius]^dimension, described, not stored.

    Cells are numbered in "ij" order, the last axis fastest, as
    ``centers()`` lists them; ``shape`` is the shape of that list.
    """

    radius: float
    cells_per_axis: int
    dimension: int

    @property
    def h(self):
        return 2.0 * self.radius / self.cells_per_axis

    @property
    def cell_volume(self):
        return self.h ** self.dimension

    @property
    def shape(self):
        return (self.cells_per_axis ** self.dimension, self.dimension)

    def axis(self, start=0, stop=None, out=None):
        """Centres of cells start:stop along one axis (``cell_centers``)."""
        return cell_centers(self.radius, self.cells_per_axis, start, stop, out)

    def coordinate(self, index):
        """Centres of the integer cell ``index`` along one axis, same bits."""
        return (np.asarray(index) + 0.5) * self.h + (-self.radius)

    def centers(self):
        return tensor_points([self.axis()] * self.dimension)

    def ball_runs(self, centers, radii):
        """Per ball, the cells with ``sqrt(t * t) < radius``, t = x - center, as one index run.

        Returns, for each (center, radius) pair, the (start, stop) of its
        flat cell indices, start == stop for a ball with no cell; a grid of
        any dimension but 1 raises ``ValueError``. The rounded test is
        monotone on either side of the centre: fl(x - c), its square and
        sqrt all are. So the cells inside are one contiguous run, and
        bisection on the same expression finds its ends exactly, for every
        ball at once.
        """
        if self.dimension != 1:
            raise ValueError(f"ball runs need a 1-D grid, not a {self.dimension}-D one")
        n = self.cells_per_axis
        c = np.asarray(centers, dtype=float).reshape(-1)
        r = np.asarray(radii, dtype=float).reshape(-1)

        def inside(i):
            t = self.coordinate(i) - c
            return np.sqrt(t * t) < r

        first = np.zeros(r.shape, dtype=np.int64)
        split = _first(lambda i: self.coordinate(i) >= c, first, first + n)
        start = _first(inside, first, split)
        stop = _first(lambda i: ~inside(i), split, first + n)
        return list(zip(start.tolist(), stop.tolist()))


def _first(holds, lo, hi):
    """Per entry, the least i in [lo, hi) with holds(i), else hi.

    ``holds`` must be False and then True on [lo, hi); it is evaluated on
    every entry at once.
    """
    while (open_ := lo < hi).any():
        mid = (lo + hi) // 2
        ok = holds(mid)
        lo, hi = (np.where(open_ & ~ok, mid + 1, lo), np.where(open_ & ok, mid, hi))
    return lo


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


def adaptive_quad(fn, a, b):
    """QUADPACK integral (limit=200) of the scalar ``fn`` over [a, b]; ``b`` may be inf.

    scipy is imported here, on the first call, not with the package: no
    default scenario integrates adaptively, and the import costs more than
    numpy's.
    """
    from scipy.integrate import quad
    return quad(fn, a, b, limit=200)[0]


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
    return float(log_linear_fit(np.log(scales[keep]), errors[keep])[0])


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
