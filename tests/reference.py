"""Full-table Lagrangian references: every node of every path in one (N, K+1) table.

The package reads each forward quantity from one blocked sweep
(``forward_summary``) and each backward one from shared paths
(``pointwise_solution``); the tests compare both bit for bit against these
cumulative trapezoids over a whole ``integrate_flow`` table.
"""

from dataclasses import dataclass

import numpy as np

from rough_transport.fields import (DampingFieldSpec, VelocityFieldSpec, sample_damping,
                                    sample_nodes)
from rough_transport.flow import (FlowMap, _check_divergence, _check_truncation,
                                  _div_sup_integral)
from rough_transport.numerics import cumtrapz


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
