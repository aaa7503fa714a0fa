"""Closed-form velocity and damping fields, growth splits, mollification.

This module is the single source of truth for the transport data: the
velocity field b(t, x), its divergence, the damping coefficient c(t, x),
the sub-linear growth decomposition |b|/(1+|x|) <= b1(t, x) + b2(t), and
compactly supported mollifiers used to smooth nonsmooth fields before any
trajectory integration. ``sample_nodes`` and ``sample_damping`` are the
one place where b, div b and c are evaluated over space-time node sets.

Field callables are numpy-vectorized: ``eval_b(t, x)`` accepts ``x`` of
shape (..., d) and returns the same shape; ``eval_div_b`` and damping
evaluations return shape (...)``. Scalars in, scalars out for d = 1 points
passed as shape (1,) arrays.
"""

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import BadKernelError, NonFiniteDampingError, SplitViolationError
from .numerics import gauss_legendre, profile, tensor_points

KERNEL_INTEGRAL_TOL = 1e-8


# ---------------------------------------------------------------------------
# singular set descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointSingularity:
    """An isolated point where a damping field is unbounded."""

    point: tuple

    def distance(self, x):
        x = np.asarray(x, dtype=float)
        p = np.asarray(self.point, dtype=float)
        return np.linalg.norm(x - p, axis=-1)


# ---------------------------------------------------------------------------
# core specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VelocityFieldSpec:
    """A velocity field b with analytic divergence and regularity metadata.

    The RK4 drivers integrate only a ``continuous`` b; a field with a jump,
    such as the BV shear, must be mollified first. ``div_sup(t)`` bounds
    the spatial sup of |div b(t, .)|; its time integral is the constant L
    controlling the Jacobian between exp(-L) and exp(L). Fields declared
    ``autonomous`` must not depend on t.
    """

    dimension: int
    eval_b: Callable
    eval_div_b: Callable
    continuous: bool             # False for a field with a jump
    div_sup: Callable            # t -> float (may be inf for BMO-type fields)
    horizon: float
    autonomous: bool = True
    growth_b1: Optional[Callable] = None        # (t, x) -> nonnegative
    growth_b2: Optional[Callable] = None        # t -> nonnegative
    growth_b1_tail: Optional[Callable] = None   # (t, R) -> L1 norm of b1 outside B_R
    label: str = ""

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")


@dataclass(frozen=True)
class DampingFieldSpec:
    """Damping coefficient c(t, x), possibly unbounded on a singular set.

    ``sup_c`` and ``l1_spatial`` are optional analytic profiles
    t -> ||c(t,.)||_inf and t -> ||c(t,.)||_L1 used by the bounded-damping,
    L1-mass and Gronwall diagnostics. Dampings declared ``autonomous`` must
    not depend on t.
    """

    eval_c: Callable
    singular_set: tuple = ()
    sup_c: Optional[Callable] = None
    l1_spatial: Optional[Callable] = None
    autonomous: bool = True
    label: str = ""

    def singular_distance(self, x):
        """Distance from x (shape (..., d)) to the singular set; inf if empty."""
        x = np.asarray(x, dtype=float)
        if not self.singular_set:
            return np.full(x.shape[:-1], np.inf)
        dists = [s.distance(x) for s in self.singular_set]
        return np.minimum.reduce(dists)

    def l1_profile(self, times):
        """||c(t, .)||_L1 on the time nodes; zero when no profile is declared."""
        if self.l1_spatial is None:
            return np.zeros_like(times)
        return profile(self.l1_spatial, times)


@dataclass(frozen=True)
class GrowthSplit:
    """Nonnegative pair with |b(t,x)|/(1+|x|) <= b1(t,x) + b2(t).

    ``b1_tail_l1(t, R)`` returns the L1 norm of b1(t, .) outside the ball of
    radius R; it feeds the localization constant C_R of the logarithmic
    Gronwall bound and must vanish as R grows.
    """

    b1: Callable
    b2: Callable
    b1_tail_l1: Callable


ZERO_TAIL = lambda t, R: 0.0  # noqa: E731  (shared trivial tail)


# ---------------------------------------------------------------------------
# mollifiers
# ---------------------------------------------------------------------------

def _bump_kernel_1d(s):
    """Unnormalized compactly supported polynomial bump (1 - s^2)^4 on [-1, 1]."""
    s = np.asarray(s, dtype=float)
    inside = np.abs(s) < 1.0
    vals = np.zeros(s.shape)
    vals[inside] = (1.0 - s[inside] ** 2) ** 4
    return vals


@dataclass(frozen=True)
class MollifierSpec:
    """Smoothing kernel at scale eps with its convolution quadrature.

    The kernel is the polynomial bump (1 - |z|^2)^4, normalized separately
    in time (rho1, one axis) and space (rho2, radial in d dimensions). The
    stored 16-node Gauss-Legendre tensor rule integrates both kernels exactly, so
    the folded weights sum to one up to rounding. Only the tensor nodes
    inside the unit ball, where the space kernel is positive, are stored.
    """

    eps: float
    dimension: int
    time_nodes: np.ndarray       # (Q1,) on [-1, 1]
    time_weights: np.ndarray     # (Q1,), kernel folded in, sums to 1
    space_offsets: np.ndarray    # (Q, d) inside the unit ball
    space_weights: np.ndarray    # (Q,), kernel folded in, sums to 1

    def kernel_integrals(self):
        return float(np.sum(self.time_weights)), float(np.sum(self.space_weights))


def make_mollifier(eps, dimension):
    """Build the standard mollifier at scale eps for the given dimension."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    x, w = gauss_legendre(16)

    tvals = w * _bump_kernel_1d(x)
    time_weights = tvals / np.sum(tvals)

    offsets = tensor_points([x] * dimension)
    wprod = np.prod(tensor_points([w] * dimension), axis=-1)
    radii2 = np.sum(offsets**2, axis=-1)
    inside = radii2 < 1.0
    kern = np.where(inside, (1.0 - radii2) ** 4, 0.0)
    svals = wprod * kern
    space_weights = svals / np.sum(svals)

    # nodes outside the unit ball have weight exactly 0 and would cost a field
    # evaluation each in every convolution; they are dropped after the
    # normalisation, so the kept weights are bit for bit those of the full rule
    return MollifierSpec(
        eps=float(eps),
        dimension=dimension,
        time_nodes=x.copy(),
        time_weights=time_weights,
        space_offsets=offsets[inside],
        space_weights=space_weights[inside],
    )


def mollify(spec: VelocityFieldSpec, moll: MollifierSpec) -> VelocityFieldSpec:
    """Convolve a velocity field with the mollifier kernel.

    Space convolution uses the stored tensor quadrature. Time convolution
    acts on the field clamped to its time interval [0, T]; for autonomous
    fields it is the identity, one node of weight one. The mollified
    ``div_sup`` is the time-mollified sup bound, which dominates the
    divergence of the smoothed field.
    """
    if moll.dimension != spec.dimension:
        raise ValueError("mollifier dimension does not match the field")
    ti, si = moll.kernel_integrals()
    if abs(ti - 1.0) > KERNEL_INTEGRAL_TOL or abs(si - 1.0) > KERNEL_INTEGRAL_TOL:
        raise BadKernelError(
            f"kernel integrals ({ti!r}, {si!r}) deviate from 1 beyond {KERNEL_INTEGRAL_TOL}"
        )

    eps = moll.eps
    horizon = spec.horizon
    eoffset_rows = (eps * moll.space_offsets).tolist()
    sweights = moll.space_weights
    if spec.autonomous:
        # one node of weight 1.0 at lag 0: the time convolution is exact
        tnodes, tweights = np.zeros(1), np.ones(1)
    else:
        tnodes, tweights = moll.time_nodes, moll.time_weights
    base_b = spec.eval_b
    base_div = spec.eval_div_b
    base_sup = spec.div_sup

    def _space_conv(fun, t, x):
        # accumulate per kernel node: batching the nodes into (Q, N, d) or
        # (Qc, N, d) blocks was measured slower, as the intermediates are
        # memory-bound for the cheap fields here. The shifted points share
        # one buffer and the sum is taken in place, in the same left-to-right
        # order; what fun returns is only read, so a field that returns its
        # input or a cached array is safe. The shift goes one coordinate at
        # a time, with the same differences: broadcasting against a (d,)
        # offset runs numpy's inner loop over d = 1 or 2 items per point
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

    def _conv(fun, t, x):
        acc = None
        for s, w in zip(tnodes, tweights):
            contrib = w * _space_conv(fun, min(max(t - eps * s, 0.0), horizon), x)
            acc = contrib if acc is None else acc + contrib
        return acc

    def div_sup(t):
        vals = [base_sup(min(max(t - eps * s, 0.0), horizon)) for s in tnodes]
        return float(np.dot(tweights, vals))

    return replace(
        spec,
        eval_b=lambda t, x: _conv(base_b, t, x),
        eval_div_b=lambda t, x: _conv(base_div, t, x),
        continuous=True,
        div_sup=div_sup,
        growth_b1=None,
        growth_b2=None,
        growth_b1_tail=None,
        label=f"{spec.label or 'field'}~mollified(eps={eps:g})",
    )


# ---------------------------------------------------------------------------
# space-time sampling
# ---------------------------------------------------------------------------

def sample_nodes(fn, autonomous, times, nodes):
    """fn(t_k, nodes[k]) for every time node, stacked along the first axis.

    ``nodes`` has shape (K+1, ..., d), row k sitting at ``times[k]``. An
    autonomous field is evaluated once, on all nodes at t = times[0].
    """
    if autonomous:
        return np.asarray(fn(float(times[0]), nodes), dtype=float)
    return np.stack([np.asarray(fn(float(t), nodes[k]), dtype=float)
                     for k, t in enumerate(times)])


def sample_damping(damping: DampingFieldSpec, times, nodes, eta):
    """c on the space-time nodes (K+1, ..., d), zeroed within eta of the singular set.

    The cut-off is the almost-everywhere reading of the damping path
    integral. Returns (values, mask), where mask marks the zeroed nodes.
    Raises NonFiniteDampingError if c is NaN or infinite at a kept node.
    """
    if eta < 0.0:
        raise ValueError("eta must be nonnegative")
    mask = (damping.singular_distance(nodes) <= eta if damping.singular_set
            else np.zeros(nodes.shape[:-1], dtype=bool))
    if not np.any(mask):
        vals = sample_nodes(damping.eval_c, damping.autonomous, times, nodes)
    else:
        # gather the kept nodes only: c may be undefined on the singular set
        vals = np.zeros(mask.shape)
        rows = [(..., times[0])] if damping.autonomous else enumerate(times)
        for k, t in rows:
            free = ~mask[k]
            if np.any(free):
                vals[k][free] = damping.eval_c(float(t), nodes[k][free])
    bad = ~np.isfinite(vals)
    if np.any(bad):
        at = tuple(np.argwhere(bad)[0])
        raise NonFiniteDampingError(
            f"damping c = {vals[at]} at t={float(times[at[0]]):.6g}, "
            f"x={nodes[at].tolist()}, outside eta={eta:g} of the singular set"
        )
    return vals, mask


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def growth_split(spec: VelocityFieldSpec, rng=None) -> GrowthSplit:
    """Return the field's declared growth split, verified on random samples.

    The scenario author supplies b1, b2 with the field; this operation
    checks |b(t,x)|/(1+|x|) <= b1(t,x) + b2(t) + 1e-12 on 10 000 uniform
    points of [0, T] x [-10, 10]^d and raises SplitViolationError with a
    witness otherwise.
    """
    if spec.growth_b1 is None or spec.growth_b2 is None:
        raise ValueError(f"field {spec.label!r} declares no growth split")
    rng = rng or np.random.default_rng(0)
    n_samples = 10_000
    ts = rng.uniform(0.0, spec.horizon, size=n_samples)
    xs = rng.uniform(-10.0, 10.0, size=(n_samples, spec.dimension))

    nodes = xs[:, None, :]     # sample i is time node i
    bvals = sample_nodes(spec.eval_b, spec.autonomous, ts, nodes)[:, 0]
    lhs = np.linalg.norm(bvals, axis=-1) / (1.0 + np.linalg.norm(xs, axis=-1))
    rhs = (sample_nodes(spec.growth_b1, spec.autonomous, ts, nodes)[:, 0]
           + profile(spec.growth_b2, ts))

    bad = lhs > rhs + 1e-12
    if np.any(bad):
        i = int(np.argmax(lhs - rhs))
        raise SplitViolationError(
            f"growth split violated at t={ts[i]:.6g}, x={xs[i].tolist()}: "
            f"|b|/(1+|x|)={lhs[i]:.6g} > b1+b2={rhs[i]:.6g}",
            t=float(ts[i]), x=xs[i].copy(), lhs=float(lhs[i]), rhs=float(rhs[i]),
        )
    tail = spec.growth_b1_tail if spec.growth_b1_tail is not None else ZERO_TAIL
    return GrowthSplit(b1=spec.growth_b1, b2=spec.growth_b2, b1_tail_l1=tail)


def check_divergence_consistency(spec: VelocityFieldSpec, rng=None, sample_radius=2.0):
    """Max of |analytic - central FD divergence| / (1 + |analytic|) on samples.

    1000 uniform points of the cube of half-width ``sample_radius`` at
    t = T/2, central steps 1e-6 (1 + |x|). Only meaningful for smooth fields
    away from discontinuities.
    """
    rng = rng or np.random.default_rng(1)
    t = 0.5 * spec.horizon
    xs = rng.uniform(-sample_radius, sample_radius, size=(1000, spec.dimension))
    analytic = np.asarray(spec.eval_div_b(t, xs), dtype=float)
    fd = np.zeros(xs.shape[0])
    scale = 1e-6 * (1.0 + np.linalg.norm(xs, axis=-1))
    for axis in range(spec.dimension):
        e = np.zeros(spec.dimension)
        e[axis] = 1.0
        plus = np.asarray(spec.eval_b(t, xs + scale[:, None] * e), dtype=float)
        minus = np.asarray(spec.eval_b(t, xs - scale[:, None] * e), dtype=float)
        fd += (plus[..., axis] - minus[..., axis]) / (2.0 * scale)
    return float(np.max(np.abs(analytic - fd) / (1.0 + np.abs(analytic))))
