"""Full-table Lagrangian references: every node of every path in one (N, K+1) table.

The package reads each forward quantity from one blocked sweep
(``forward_summary``) and each backward one from shared paths
(``backward_paths``, read by ``pointwise_solution``); the tests compare
both bit for bit against one ``integrate_flow`` sweep per map, kept whole
in a ``FlowMap``, and against the cumulative trapezoids over its table.
"""

from dataclasses import dataclass

import numpy as np

from rough_transport.errors import StepBlowupError
from rough_transport.fields import (DampingFieldSpec, VelocityFieldSpec, sample_damping,
                                    sample_nodes)
from rough_transport.flow import (ESCAPE_FACTOR, SeedGrid, _check_divergence,
                                  _check_truncation, _div_sup_integral, _rk4_path)
from rough_transport.numerics import cumtrapz


@dataclass(frozen=True)
class FlowMap:
    """Sampled characteristics of a velocity field on a shared time grid.

    ``trajectories[i, k]`` is the position of characteristic i at
    ``time_grid[k]``. Forward maps satisfy trajectories[:, 0] = seeds;
    backward maps are anchored at the final node instead, so
    trajectories[:, 0] samples the inverse flow at the anchor time.
    """

    seed_grid: SeedGrid
    time_grid: np.ndarray        # (K+1,), 0 = t_0 < ... < t_K
    trajectories: np.ndarray     # (N, K+1, d)
    direction: str               # "forward" | "backward"
    steps: int

    def positions_at(self, k):
        return self.trajectories[:, k, :]

    @property
    def inverse_samples(self):
        """X^{-1}(anchor, seeds) for a backward map."""
        if self.direction != "backward":
            raise ValueError("inverse samples only exist on backward maps")
        return self.trajectories[:, 0, :]


def integrate_flow(field: VelocityFieldSpec, seeds: SeedGrid, steps, direction,
                   anchor_time=None, allow_nonsmooth=False) -> FlowMap:
    """Integrate the characteristic ODE over the seed grid.

    Forward: dX/dt = b(t, X), X(0) = seed, on [0, T]. Backward: the
    characteristic through (anchor, seed) is traced back to t = 0 by
    integrating -b in reversed time; the result is stored on the physical
    time grid so the anchor sits in the last column.

    Discontinuous fields must be mollified first unless the caller explicitly
    accepts the reduced order with ``allow_nonsmooth=True``.
    """
    if not field.continuous and not allow_nonsmooth:
        raise ValueError("discontinuous field: mollify first or pass allow_nonsmooth=True")
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    if steps < 1:
        raise ValueError("steps must be a positive integer")
    anchor = field.horizon if anchor_time is None else float(anchor_time)
    if not 0.0 < anchor <= field.horizon:
        raise ValueError("anchor_time must lie in (0, horizon]")
    escape = ESCAPE_FACTOR * max(seeds.bounding_radius, 1.0)
    time_grid = np.linspace(0.0, anchor, steps + 1)

    if direction == "forward":
        rhs = lambda t, y: np.asarray(field.eval_b(t, y), dtype=float)  # noqa: E731
        path = _rk4_path(rhs, seeds.points, anchor / steps, steps, escape)
        traj = np.moveaxis(path, 0, 1)
    else:
        rhs = lambda s, y: -np.asarray(field.eval_b(anchor - s, y), dtype=float)  # noqa: E731
        try:
            path = _rk4_path(rhs, seeds.points, anchor / steps, steps, escape)
        except StepBlowupError as exc:    # the sweep's time runs back from the anchor
            raise exc.renamed(exc.seed_index, anchor - exc.t) from exc
        traj = np.moveaxis(path[::-1], 0, 1)

    return FlowMap(seed_grid=seeds, time_grid=time_grid, trajectories=traj,
                   direction=direction, steps=steps)



@dataclass(frozen=True)
class JacobianTrack:
    """exp of the divergence path integral along each characteristic."""

    flow: FlowMap
    jx: np.ndarray       # (N, K+1)
    L: float             # trapezoid of div_sup over the time grid


def jacobian(field: VelocityFieldSpec, flow: FlowMap) -> JacobianTrack:
    """JX(t) = exp of the trapezoid path integral of div b along each path.

    Works for forward maps (Jacobian at the seeds) and for backward maps
    (Jacobian composed with the inverse-flow samples, which is exactly the
    combination the representation formula needs). Enforces the two-sided
    bound exp(-L) <= JX <= exp(L) from the divergence sup profile, which
    for an autonomous field is its one value div_sup(0) on every node.
    """
    times = flow.time_grid
    dpi = cumtrapz(sample_nodes(field.eval_div_b, field.autonomous, times,
                                np.moveaxis(flow.trajectories, 1, 0)).T, times)
    L = _div_sup_integral(field, times)
    _check_divergence(dpi, L)
    return JacobianTrack(flow=flow, jx=np.exp(dpi, out=dpi), L=L)


@dataclass(frozen=True)
class DampingAccumulator:
    """D(t, x) = path integral of c along a characteristic, with truncation."""

    flow: FlowMap
    values: np.ndarray           # (N, K+1), trapezoid in time
    truncated_nodes: np.ndarray  # (N,), count of nodes the cut-off zeroes
    total_l1: float              # discrete integral of |c along X| dx dt


def damping_integral(damping: DampingFieldSpec, flow: FlowMap, eta) -> DampingAccumulator:
    """Trapezoid-in-time damping integral along every stored characteristic.

    c is set to zero whenever the trajectory is within eta of the singular
    set. Raises AllTruncatedError if some trajectory had every node
    excluded (seed effectively on the singular set).
    """
    times = flow.time_grid
    cvals, masked = sample_damping(damping, times,
                                   np.moveaxis(flow.trajectories, 1, 0), eta)
    cvals = cvals.T
    truncated = masked.sum(axis=0)
    _check_truncation(truncated == times.shape[0], eta)
    total_l1 = (float(np.sum(cumtrapz(np.abs(cvals), times)[:, -1]))
                * flow.seed_grid.cell_volume)
    return DampingAccumulator(flow=flow, values=cumtrapz(cvals, times),
                              truncated_nodes=truncated, total_l1=total_l1)
