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
# core specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VelocityFieldSpec:
    """A velocity field b with analytic divergence and regularity metadata.

    The RK4 drivers integrate only a ``continuous`` b; a field with a jump,
    such as the BV shear, must be mollified first. ``div_sup(t)`` bounds
    the spatial sup of |div b(t, .)|; its time integral is the constant L
    controlling the Jacobian between exp(-L) and exp(L). Fields declared
    ``autonomous`` must not depend on t. ``reads`` lists, in increasing
    order, the coordinates of x that ``eval_b`` and ``eval_div_b`` depend
    on; None means all of them. It is the spatial counterpart of
    ``autonomous``: ``mollify`` reuses a convolution when those coordinates
    repeat.
    """

    dimension: int
    eval_b: Callable
    eval_div_b: Callable
    continuous: bool             # False for a field with a jump
    div_sup: Callable            # t -> float (may be inf for BMO-type fields)
    horizon: float
    autonomous: bool = True
    reads: Optional[tuple] = None               # coordinates of x read; None is all
    growth_b1: Optional[Callable] = None        # (t, x) -> nonnegative
    growth_b2: Optional[Callable] = None        # t -> nonnegative
    growth_b1_tail: Optional[Callable] = None   # (t, R) -> L1 norm of b1 outside B_R; None is 0
    label: str = ""

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        reads = self.reads
        if reads is not None and not (
                isinstance(reads, tuple)
                and all(type(j) is int and 0 <= j < self.dimension for j in reads)
                and list(reads) == sorted(set(reads))):
            raise ValueError(f"reads must be None or a strictly increasing tuple of "
                             f"coordinates in [0, {self.dimension}), not {reads!r}")


@dataclass(frozen=True)
class DampingFieldSpec:
    """Damping coefficient c(t, x), possibly unbounded at one singular point.

    The damping carries its own cut-off: every sample of c reads it as zero
    within ``eta`` of ``singular_point``, so a density and the residual that
    tests it read the same c. ``sup_c`` and ``l1_spatial`` are optional
    analytic profiles t -> ||c(t,.)||_inf and t -> ||c(t,.)||_L1 used by the
    bounded-damping, L1-mass and Gronwall diagnostics. Dampings declared
    ``autonomous`` must not depend on t.
    """

    eval_c: Callable
    singular_point: Optional[tuple] = None
    eta: float = 0.0
    sup_c: Optional[Callable] = None
    l1_spatial: Optional[Callable] = None
    autonomous: bool = True
    label: str = ""

    def __post_init__(self):
        if not self.eta >= 0.0:      # NaN fails too
            raise ValueError(f"eta must be nonnegative, not {self.eta!r}")

    def l1_profile(self, times):
        """||c(t, .)||_L1 on the time nodes; zero when no profile is declared."""
        if self.l1_spatial is None:
            return np.zeros_like(times)
        return profile(self.l1_spatial, times)


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
    ``mollify`` applies the space rule only.
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
    """Convolve a velocity field in space with the mollifier kernel.

    The convolution uses the stored tensor quadrature, at the time of the
    evaluation; as in the DiPerna-Lions smoothing, time is not convolved.
    The field keeps its ``div_sup``: an average of div b over a ball is
    bounded by the sup of |div b|, so it bounds the smoothed divergence.
    Both callables return C-contiguous arrays; a (d,) point gives a (d,)
    velocity and a 0-d divergence.

    A field that declares ``reads`` gives the same sum wherever those
    coordinates repeat, since each shifted point keeps the unread ones out
    of the field. Each callable then keeps its last result, keyed by t
    (None for an autonomous field), the shape of x and the bytes of
    ``x[..., reads]``, and returns that array, read-only, on a repeat: an
    RK4 sweep of the shear, whose y never moves, convolves once instead of
    once per stage. A field without ``reads`` convolves on every call.
    """
    if moll.dimension != spec.dimension:
        raise ValueError("mollifier dimension does not match the field")
    _, si = moll.kernel_integrals()
    if abs(si - 1.0) > KERNEL_INTEGRAL_TOL:
        raise BadKernelError(
            f"space kernel integral {si!r} deviates from 1 beyond {KERNEL_INTEGRAL_TOL}"
        )

    eps = moll.eps
    eoffsets = eps * moll.space_offsets
    # the tensor rule stores its nodes in "ij" order, so in 2-D the first
    # offset changes only once per row of the rule: each node lists just the
    # coordinates whose offset differs, bit for bit, from the previous
    # node's (0.0 == -0.0, yet x - 0.0 and x - (-0.0) differ at x = -0.0)
    bits = eoffsets.view(np.int64)
    changed = np.ones(bits.shape, dtype=bool)
    changed[1:] = bits[1:] != bits[:-1]
    nodes = [(w, [(j, oj) for j, oj in enumerate(row) if flags[j]])
             for w, row, flags in zip(moll.space_weights.tolist(), eoffsets.tolist(),
                                      changed.tolist())]

    def _space_conv(fun, t, x):
        # accumulate per kernel node, in the same left-to-right order: batching
        # the nodes into (Q, N, d) or 8-72-node blocks was measured slower
        # (1.8-4.6 ms against 1.6 ms per (2048, 2) velocity call on a 2-CPU
        # Xeon), as the blocks leave cache and a broadcast shift runs numpy's
        # inner loop over d items. The points are held coordinate-major, so
        # each shift is one contiguous subtract of a column, and fun reads a
        # (..., d) view of that buffer. What fun returns is only read, so a
        # field that returns its input or a cached array is safe; the sum is
        # allocated C-contiguous whatever layout fun returns
        xt = np.moveaxis(np.asarray(x, dtype=float), -1, 0).copy()
        buf = np.empty(xt.shape)
        shifted = np.moveaxis(buf, 0, -1)
        columns = [(xt[j, ...], buf[j, ...]) for j in range(xt.shape[0])]
        acc = tmp = None
        for w, shifts in nodes:
            for j, oj in shifts:
                np.subtract(columns[j][0], oj, out=columns[j][1])
            val = np.asarray(fun(t, shifted), dtype=float)
            if acc is None:
                acc = np.multiply(w, val, out=np.empty(val.shape))
                tmp = np.empty(val.shape)
            else:
                np.add(acc, np.multiply(w, val, out=tmp), out=acc)
        return acc

    def _convolved(fun):
        if spec.reads is None:
            return lambda t, x: _space_conv(fun, t, x)
        reads, memo = list(spec.reads), [None, None]

        def conv(t, x):
            x = np.asarray(x, dtype=float)
            tk = None if spec.autonomous else (np.shape(t), np.asarray(t, float).tobytes())
            key = (tk, x.shape, x[..., reads].tobytes())
            if key != memo[0]:
                val = _space_conv(fun, t, x)
                val.flags.writeable = False
                memo[:] = key, val
            return memo[1]
        return conv

    return replace(
        spec,
        eval_b=_convolved(spec.eval_b),
        eval_div_b=_convolved(spec.eval_div_b),
        continuous=True,
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


def sample_damping(damping: DampingFieldSpec, times, nodes):
    """c on the space-time nodes (K+1, ..., d), zeroed within eta of the singular point.

    The cut-off is the almost-everywhere reading of the damping path
    integral. Returns (values, mask), where mask marks the zeroed nodes.
    Raises NonFiniteDampingError if c is NaN or infinite at a kept node.
    """
    point = damping.singular_point
    mask = (np.linalg.norm(nodes - np.asarray(point, dtype=float), axis=-1) <= damping.eta
            if point is not None else np.zeros(nodes.shape[:-1], dtype=bool))
    if not np.any(mask):
        vals = sample_nodes(damping.eval_c, damping.autonomous, times, nodes)
    else:
        # gather the kept nodes only: c may be undefined at the singular point
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
            f"x={nodes[at].tolist()}, outside eta={damping.eta:g} of the singular point"
        )
    return vals, mask


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def growth_split(spec: VelocityFieldSpec, rng=None) -> VelocityFieldSpec:
    """Return the field once its declared growth split holds on random samples.

    The scenario author supplies b1, b2 with the field; this operation
    checks |b(t,x)|/(1+|x|) <= b1(t,x) + b2(t) + 1e-12 on 10 000 uniform
    points of [0, T] x [-10, 10]^d and raises SplitViolationError with a
    witness otherwise. The split is read from the field itself:
    ``growth_b1_tail(t, R)``, the L1 norm of b1(t, .) outside B_R, feeds the
    localization constant C_R of the logarithmic Gronwall bound, and a field
    that declares none has a zero tail.
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
    return spec


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
