"""Scenario registry: named fields, dampings, initial data, and diagnostics.

Each scenario bundles a closed-form transport problem with the diagnostics
it is meant to exercise, from plain flow accuracy up to the logarithmic
Gronwall bounds and the BMO-divergence machinery. ``run_scenario`` executes
a resolved configuration and returns a RunReport whose pass/fail values are
all mirrored into CSV artifacts.
"""

import math
import resource
import time
from dataclasses import dataclass, field as dataclass_field, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from . import __version__
from .bmo import (bmo_gronwall_family, bmo_norm, default_ball_family, jn_decay_check,
                  lemma52_checks)
from .errors import PipelineError, RoughTransportError
from .fields import (DampingFieldSpec, VelocityFieldSpec, check_divergence_consistency,
                     growth_split, make_mollifier, mollify)
from .flow import (change_of_variables_residual, compressibility_estimate,
                   flow_convergence_study, forward_backward_mismatch, forward_summary,
                   make_seed_grid, seeds_from_points)
from .numerics import CellGrid, ball_volume, order_estimate, profile, trapz
from .renormalization import make_beta_arctan, make_beta_log, make_phi_R
from .report import Artifact, DiagnosticResult, RunReport
from .representation import (DensityRepresentation, integrability_probe,
                             make_quadrature, pointwise_solution)
from .testfunctions import bump, compact_space_time, gaussian
from .weakform import (GRONWALL_SLACK, gamma_trace, gronwall_constants,
                       l2_energy_diagnostic, uniqueness_probe, weak_residual)


# ---------------------------------------------------------------------------
# velocity field catalog
# ---------------------------------------------------------------------------

def _zeros_like_scalar(x):
    return np.zeros(np.asarray(x).shape[:-1])


def _field_zero(d, T):
    return VelocityFieldSpec(
        dimension=d,
        eval_b=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        eval_div_b=lambda t, x: _zeros_like_scalar(x),
        continuous=True, div_sup=lambda t: 0.0, horizon=T,
        growth_b1=lambda t, x: _zeros_like_scalar(x),
        growth_b2=lambda t: 0.0, div_reads=(), label="zero")


def _field_linear(d, T, sign):
    return VelocityFieldSpec(
        dimension=d,
        eval_b=lambda t, x: sign * np.asarray(x, dtype=float),
        eval_div_b=lambda t, x: np.full(np.asarray(x).shape[:-1], sign * d),
        continuous=True, div_sup=lambda t: float(abs(sign) * d), horizon=T,
        growth_b1=lambda t, x: _zeros_like_scalar(x),
        growth_b2=lambda t: 1.0, div_reads=(),
        label="linear_expand" if sign > 0 else "linear_contract")


def _field_rotation(T):
    def eval_b(t, x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., 0] = -x[..., 1]
        out[..., 1] = x[..., 0]
        return out

    return VelocityFieldSpec(
        dimension=2, eval_b=eval_b,
        eval_div_b=lambda t, x: _zeros_like_scalar(x),
        continuous=True, div_sup=lambda t: 0.0, horizon=T,
        growth_b1=lambda t, x: _zeros_like_scalar(x),
        growth_b2=lambda t: 1.0, div_reads=(), label="rotation")


def _field_shear(T):
    # sign(0) = 0 by convention; the jump line y = 0 is measure zero
    def eval_b(t, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)   # zeros_like's dispatch costs more, per call
        out[..., 0] = np.sign(x[..., 1])
        return out

    return VelocityFieldSpec(
        dimension=2, eval_b=eval_b,
        eval_div_b=lambda t, x: _zeros_like_scalar(x),
        continuous=False, div_sup=lambda t: 0.0, horizon=T,
        growth_b1=lambda t, x: _zeros_like_scalar(x),
        growth_b2=lambda t: 1.0, reads=(1,), div_reads=(), label="shear")


_COMPACT_DIV_SUP = 96.0 / (25.0 * math.sqrt(5.0))   # max |6x(1-x^2)^2| on [-1, 1]


def _field_compact_bump(T):
    def eval_b(t, x):
        x = np.asarray(x, dtype=float)
        s = x[..., 0]
        out = np.zeros_like(x)
        inside = np.abs(s) < 1.0
        out[..., 0] = np.where(inside, (1.0 - s**2) ** 3, 0.0)
        return out

    def eval_div_b(t, x):
        s = np.asarray(x, dtype=float)[..., 0]
        return np.where(np.abs(s) < 1.0, -6.0 * s * (1.0 - s**2) ** 2, 0.0)

    def b1(t, x):
        s = np.asarray(x, dtype=float)[..., 0]
        return (np.abs(s) <= 1.0).astype(float)     # ||b||_inf = 1 on B_1

    def b1_tail(t, R):
        return 2.0 * max(0.0, 1.0 - R)

    return VelocityFieldSpec(
        dimension=1, eval_b=eval_b, eval_div_b=eval_div_b,
        continuous=True, div_sup=lambda t: _COMPACT_DIV_SUP, horizon=T,
        growth_b1=b1, growth_b2=lambda t: 0.0, growth_b1_tail=b1_tail,
        label="compact_support_b")


def _field_log_drift(T):
    """d = 1 drift whose divergence is the BMO exemplar log(1/|x|) on B_1.

    b(x) = x (1 - log|x|) for 0 < |x| <= 1 and sign(x) outside, so
    b' = log(1/|x|) inside and 0 outside; |b| <= 1 everywhere. The
    divergence is unbounded near 0, which is the point of the BMO regime.
    """
    def eval_b(t, x):
        x = np.asarray(x, dtype=float)
        s = x[..., 0]
        r = np.abs(s)
        out = np.zeros_like(x)
        with np.errstate(divide="ignore"):
            inner = s * (1.0 - np.log(np.where(r > 0.0, r, 1.0)))
        out[..., 0] = np.where(r > 1.0, np.sign(s), np.where(r > 0.0, inner, 0.0))
        return out

    def eval_div_b(t, x):
        s = np.asarray(x, dtype=float)[..., 0]
        r = np.abs(s)
        with np.errstate(divide="ignore"):
            vals = np.where(r > 0.0, -np.log(np.where(r > 0.0, r, 1.0)), np.inf)
        return np.where(r <= 1.0, vals, 0.0)

    return VelocityFieldSpec(
        dimension=1, eval_b=eval_b, eval_div_b=eval_div_b,
        continuous=True, div_sup=lambda t: float("inf"), horizon=T,
        growth_b1=lambda t, x: _zeros_like_scalar(x),
        growth_b2=lambda t: 1.0, label="log_drift")


FIELD_CATALOG = {
    "zero": lambda d, T: _field_zero(d, T),
    "linear_expand": lambda d, T: _field_linear(d, T, +1.0),
    "linear_contract": lambda d, T: _field_linear(d, T, -1.0),
    "rotation": lambda d, T: _field_rotation(T),
    "shear": lambda d, T: _field_shear(T),
    "compact_bump": lambda d, T: _field_compact_bump(T),
    "log_drift": lambda d, T: _field_log_drift(T),
}


# ---------------------------------------------------------------------------
# damping catalog
# ---------------------------------------------------------------------------

def _damping_zero(d):
    return DampingFieldSpec(eval_c=lambda t, x: _zeros_like_scalar(x),
                            sup_c=lambda t: 0.0, l1_spatial=lambda t: 0.0,
                            label="zero")


def _damping_box(d):
    vol = ball_volume(d, 1.0)

    def eval_c(t, x):
        r = np.linalg.norm(np.asarray(x, dtype=float), axis=-1)
        return (r <= 1.0).astype(float)

    return DampingFieldSpec(eval_c=eval_c, sup_c=lambda t: 1.0,
                            l1_spatial=lambda t: vol, label="box_indicator")


def _damping_inv_sqrt(d):
    # |x|^(-1/2) on 0 < |x| <= 1; spatial L1 mass is 4 at every t
    if d != 1:
        raise ValueError(f"inv_sqrt reads only x_1: defined for d = 1, not d = {d}")

    def eval_c(t, x):
        r = np.abs(np.asarray(x, dtype=float)[..., 0])
        out = np.zeros(r.shape)
        inside = (r > 0.0) & (r <= 1.0)
        out[inside] = 1.0 / np.sqrt(r[inside])
        return out

    return DampingFieldSpec(eval_c=eval_c,
                            singular_point=(0.0,),
                            l1_spatial=lambda t: 4.0,
                            label="inv_sqrt")


DAMPING_CATALOG = {
    "zero": _damping_zero,
    "box_indicator": _damping_box,
    "inv_sqrt": _damping_inv_sqrt,
}


# ---------------------------------------------------------------------------
# initial data catalog
# ---------------------------------------------------------------------------

def _u0_bump(d):
    profile = bump(d, radius=0.8)
    return lambda x: profile(x)


def _u0_indicator_unit(d):
    if d != 1:
        raise ValueError(f"indicator_unit reads only x_1: defined for d = 1, not d = {d}")

    def u0(x):
        s = np.asarray(x, dtype=float)[..., 0]
        return ((s > 0.0) & (s < 1.0)).astype(float)
    return u0


U0_CATALOG = {
    "bump": _u0_bump,
    "indicator_unit": _u0_indicator_unit,
}


# ---------------------------------------------------------------------------
# run context
# ---------------------------------------------------------------------------

_BMO_GRID_CELLS = 1 << 22     # resolves exp(-lambda sigma) superlevels at lambda = 16


def _log_core_samples(grid, M):
    """A block sampler of log(1/|x|) on the cells of the 1-D ``grid`` with |x| < M, 0 elsewhere.

    ``sample(start, stop, out)`` zeroes ``out`` and writes the part of the
    core run in cells start:stop (the cells with |x| < M are one run of the
    grid, ``CellGrid.ball_runs``; sqrt(x * x) is |x| in binary64 short of
    underflow, so it is the slice -M < x < M). Their centres, then |x|, 1/|x|
    and the log are written there in place, and the cells at x = 0 get
    log(1) = 0 through one bool mask of the part; each centre has the bits
    of its own index, so each sample is the same bits as
    ``where(|x| < M, log(where(|x| > 0, 1/|x|, 1)), 0)`` over the full grid
    of centres, whatever block it is sampled in.
    """
    (lo, hi), = grid.ball_runs([(0.0,)], [M])

    def sample(start, stop, out):
        out.fill(0.0)
        a, b = max(lo, start), min(hi, stop)
        if a < b:
            x = grid.axis(a, b, out=out[a - start:b - start])
            np.abs(x, out=x)
            zero = x == 0.0
            with np.errstate(divide="ignore"):
                np.divide(1.0, x, out=x)
            np.copyto(x, 1.0, where=zero)
            np.log(x, out=x)
    return sample


@dataclass
class RunContext:
    """Resolved configuration plus lazily shared pipeline objects.

    Each shared object is built on first use and memoised in ``_cache``, so
    the diagnostics of one scenario that read the same flow, density or
    profile build it once. The random generator is one of them: ``rng``
    seeds it from ``cfg.rng_seed`` on first read, so a run that never draws
    never imports ``numpy.random``.
    """

    cfg: "object"                      # config.ScenarioConfig
    field: VelocityFieldSpec
    damping: DampingFieldSpec
    u0: Callable
    forward_reads: dict                # the selected diagnostics' declared reads
    _cache: dict = None

    def __post_init__(self):
        self._cache = {}

    @property
    def d(self):
        return self.field.dimension

    def _memo(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def rng(self):
        """The run's generator, seeded from ``cfg.rng_seed`` on first read."""
        return self._memo("rng", lambda: np.random.default_rng(self.cfg.rng_seed))

    def seed_grid(self):
        return self._memo("seeds", lambda: make_seed_grid(
            self.cfg.box_radius, self.cfg.seeds_per_axis, self.d))

    def forward(self, *reads):
        """The forward flow's reductions on the seed grid; no (N, K+1) table.

        The one memoised sweep folds the optional reductions in
        ``forward_reads``; a caller names those it reads in ``reads``, and
        one that is not declared raises KeyError.
        """
        missing = [r for r in reads if r not in self.forward_reads]
        if missing:
            raise KeyError(f"forward reads {missing} are not declared in the "
                           f"forward_reads of scenario {self.cfg.scenario_id!r}")
        return self._memo("forward", lambda: forward_summary(
            self.field, self.seed_grid(), self.cfg.steps, **self.forward_reads))

    def growth(self):
        """The field, once its growth split is verified, once per run on the run's rng.

        Its samples are the first read of ``rng`` in each of the three
        Gronwall scenarios, the only runs that draw; ``_run_growth_split``'s
        divergence check draws next from the same stream.
        """
        return self._memo("growth", lambda: growth_split(self.field, rng=self.rng))

    def density(self, n_space, n_time, steps=None):
        """The pointwise representation on the nodes of its own quadrature.

        The quadrature covers the box of ``cfg.box_radius``; ``steps``
        defaults to the configured ODE step count.
        """
        steps = self.cfg.steps if steps is None else steps

        def build():
            quad = make_quadrature(self.d, self.cfg.box_radius, n_space,
                                   self.field.horizon, n_time)
            grid = seeds_from_points(quad.points, quad.cell_volume)
            return DensityRepresentation(quad, pointwise_solution(
                self.field, self.damping, self.u0, grid, quad.times, steps))
        return self._memo(("density", n_space, n_time, steps), build)

    def twin_difference(self, quad_shape):
        """Zero-datum density: the scenario at steps minus 2 steps."""
        def build():
            coarse = self.density(*quad_shape)
            fine = self.density(*quad_shape, steps=2 * self.cfg.steps)
            return DensityRepresentation(coarse.quad, coarse.values - fine.values)
        return self._memo(("twin", quad_shape), build)

    def gronwall_bound(self, quad_shape, R):
        """(phi_R, plain Gronwall constants) on the twin-difference quadrature."""
        def build():
            times = self.twin_difference(quad_shape).times
            phi_R = make_phi_R(R, self.d)
            return phi_R, gronwall_constants(profile(self.field.div_sup, times),
                                             self.damping, self.growth(), phi_R, times)
        return self._memo(("gronwall", quad_shape, R), build)

    def bmo_profile(self):
        """Sampled log(1/|x|) on B_1 over a fine grid covering B_2.

        The profile holds a sampler, not the 2^22 samples: ``bmo_norm``
        samples the grid block by block (``_log_core_samples`` takes the
        log on the cells of B_1 alone) and reads each of its 35 balls as an
        index run of the grid.
        """
        def build():
            M = 1.0
            grid = CellGrid(2.0 * M, _BMO_GRID_CELLS, 1)
            return bmo_norm(_log_core_samples(grid, M), M, default_ball_family(M, 1), grid)
        return self._memo("bmo_profile", build)

    def jn_fit(self):
        """John-Nirenberg decay fit of the BMO profile at eta = 1, 1.5, ..., 4."""
        return self._memo("jn_fit", lambda: jn_decay_check(
            self.bmo_profile(), [1.0 + 0.5 * k for k in range(7)]))


def _result(passed, values, thresholds, note="", artifacts=()):
    """A runner's verdict; run_scenario adds the name, seconds and budget."""
    return DiagnosticResult(name="", passed=bool(passed), values=values,
                            thresholds=thresholds, note=note,
                            artifacts=tuple(artifacts))


def _check(metrics, artifacts=()):
    """The verdict on {metric: (value, threshold)}, recording both.

    A metric passes when its value is at most its threshold, so NaN fails.
    A flag, whose threshold is True, passes only when it is True.
    """
    passed = all(v == t if isinstance(t, bool) else v <= t
                 for v, t in metrics.values())
    return _result(passed, {m: v for m, (v, _) in metrics.items()},
                   {m: t for m, (_, t) in metrics.items()}, artifacts=artifacts)


# ---------------------------------------------------------------------------
# shared diagnostic runners
# ---------------------------------------------------------------------------

def _run_flow_identity(ctx):
    return _check({"max_deviation": (ctx.forward("displacement").max_displacement, 1e-12)})


def _run_jacobian_unit(ctx):
    fwd = ctx.forward("residuals")
    return _check({"max_jx_deviation": (fwd.jx_deviation(1.0), 1e-13),
                   "ode_residual": (fwd.residuals.worst, 1e-12)})


def _superlevel_reads(r, R):
    """The superlevel escape of B_r at five radii from R to 2R, for ``forward_reads``."""
    return {"escape": (r, np.linspace(R, 2.0 * R, 5))}     # radii[0] == R exactly


def _run_superlevel(ctx):
    measures = ctx.forward("escape").escaped
    _, radii = ctx.forward_reads["escape"]
    esc = float(measures[0])
    ladder = [(float(rr), float(m)) for rr, m in zip(radii, measures)]
    mono = all(b[1] <= a[1] for a, b in zip(ladder, ladder[1:]))
    art = Artifact("superlevel_escape.csv", ("R", "escaped_measure"),
                   tuple(ladder))
    return _check({"escaped_measure": (esc, 0.0), "monotone_in_R": (mono, True)},
                  artifacts=(art,))


def _run_compressibility(ctx, expected):
    fwd = ctx.forward()
    ceiling = math.exp(fwd.L) * 1.1
    c_emp = compressibility_estimate(fwd)
    rel = abs(c_emp - expected) / expected
    return _result(rel <= 0.1 and c_emp <= ceiling,
                   {"C_empirical": c_emp, "relative_error": rel,
                    "admissible_ceiling": ceiling},
                   {"relative_error": 0.1, "admissible_ceiling": ceiling})


def _run_change_of_variables(ctx, phi, tol):
    res = change_of_variables_residual(ctx.forward(), phi, ctx.cfg.box_radius)
    return _check({"residual": (res, tol)})


def _weak_rows(ctx, ladder, phi_radius):
    """(h, tau, arctan weak residual) per density of a strictly refining ladder."""
    densities = [ctx.density(ns, nt) for ns, nt in ladder]
    if any(b.quad.h >= a.quad.h for a, b in zip(densities, densities[1:])):
        raise ValueError("quadrature ladder must be strictly refining")
    beta = make_beta_arctan(1.0)
    phi = compact_space_time(ctx.d, ctx.field.horizon, phi_radius)
    return tuple((u.quad.h, u.quad.tau,
                  weak_residual(u, beta, phi, ctx.field, ctx.damping, ctx.u0))
                 for u in densities)


def _run_weak_residual(ctx, n_space, n_time, tol, phi_radius):
    rows = _weak_rows(ctx, [(n_space, n_time)], phi_radius)
    art = Artifact("weak_residual.csv", ("h", "tau", "residual"), rows)
    return _check({"residual": (rows[0][2], tol)}, artifacts=(art,))


def _run_l2_energy(ctx, n_space, n_time):
    times, curve, envelope = l2_energy_diagnostic(ctx.density(n_space, n_time),
                                                  ctx.field, ctx.damping)
    worst = float(np.max(curve / np.maximum(envelope, 1e-300)))
    art = Artifact("l2_energy.csv", ("t", "energy", "envelope"),
                   tuple(zip(times, curve, envelope)))
    return _check({"worst_ratio": (worst, 1.05)}, artifacts=(art,))


# ---------------------------------------------------------------------------
# scenario-specific runners
# ---------------------------------------------------------------------------

def _run_flow_endpoint(ctx, seed, t_eval, expected):
    """|X(t_eval, seed) - expected|, from one forward sweep that ends at t_eval."""
    if not 0.0 < t_eval <= ctx.field.horizon:
        raise ValueError(f"t_eval={t_eval:g} must lie in (0, horizon]")
    end = forward_summary(replace(ctx.field, horizon=t_eval), seeds_from_points([seed]),
                          ctx.cfg.steps).endpoints[0]
    err = float(np.linalg.norm(end - np.asarray(expected)))
    return _check({"position_error": (err, 1e-8)})


def _run_jacobian_profile(ctx, rate):
    """max_t |JX(t) - exp(rate * t)| over the seed grid."""
    fwd = ctx.forward()
    dev = fwd.jx_deviation(np.exp(rate * fwd.time_grid))
    return _check({"max_deviation": (dev, 1e-10)})


def _run_jacobian_ode(ctx):
    r1 = ctx.forward("residuals").residuals.worst
    r2 = forward_summary(ctx.field, ctx.seed_grid(), 2 * ctx.cfg.steps,
                         residuals=True).residuals.worst
    halved = r2 <= max(0.55 * r1, 1e-12)
    return _result(r1 <= 1e-3 and halved,
                   {"residual": r1, "residual_refined": r2},
                   {"residual": 1e-3, "residual_refined": 0.55 * r1 + 1e-12})


def _run_forward_backward(ctx):
    dev = forward_backward_mismatch(ctx.field, ctx.forward())
    return _check({"max_mismatch": (dev, 1e-10)})


def _run_growth_split(ctx):
    ctx.growth()   # raises on violation
    fd = check_divergence_consistency(ctx.field, rng=ctx.rng,
                                      sample_radius=ctx.cfg.box_radius)
    return _check({"fd_divergence_error": (fd, 1e-5)})


def _run_mollify_checks(ctx):
    moll = make_mollifier(ctx.cfg.eps_list[0], ctx.d)
    ti, si = moll.kernel_integrals()
    ti, si = abs(ti - 1.0), abs(si - 1.0)
    smooth = mollify(ctx.field, moll)
    b0 = float(np.max(np.abs(smooth.eval_b(0.0, np.zeros((1, ctx.d))))))
    div0 = float(np.max(np.abs(smooth.eval_div_b(0.5, ctx.seed_grid().points))))
    return _check({"time_kernel_defect": (ti, 1e-10),
                   "space_kernel_defect": (si, 1e-10),
                   "field_at_interface": (b0, 1e-12),
                   "divergence_sup": (div0, 1e-12)})


def _run_flow_convergence(ctx):
    rows = flow_convergence_study(ctx.field, ctx.cfg.eps_list, ctx.seed_grid(),
                                  ctx.cfg.steps)
    flow_discs = [r[1] for r in rows]
    decreasing = all(b < a for a, b in zip(flow_discs, flow_discs[1:]))
    art = Artifact("flow_convergence.csv", ("eps", "flow_discrepancy",
                                            "jacobian_discrepancy"), tuple(rows))
    return _check({"strictly_decreasing": (decreasing, True),
                   "max_jacobian_discrepancy": (max(r[2] for r in rows), 1e-10)},
                  artifacts=(art,))


def _run_representation_exact(ctx):
    """b = 0 scenarios: pointwise representation equals u0 e^{t c} on seeds."""
    u = ctx.density(256, 64)
    cvals = np.asarray(ctx.damping.eval_c(0.0, u.points), dtype=float)
    exact = (np.asarray(ctx.u0(u.points), dtype=float)[None, :]
             * np.exp(u.times[:, None] * cvals[None, :]))
    dev = float(np.max(np.abs(u.values - exact)))
    rows = [(float(u.times[-1]),) + tuple(p) + (float(v),)
            for p, v in zip(u.points[::16], u.values[-1, ::16])]
    art = Artifact("density_final.csv",
                   ("t",) + tuple(f"x{i+1}" for i in range(ctx.d)) + ("u",),
                   tuple(rows))
    return _check({"max_deviation": (dev, 1e-12)}, artifacts=(art,))


def _run_weak_refinement(ctx, ladder, phi_radius):
    """Weak residuals over the ladder fall at order 2, less 0.1 of slack.

    The order is fitted against the spatial spacing h alone: tau may refine
    more slowly, or stay fixed where the time error is at its floor.
    """
    rows = _weak_rows(ctx, ladder, phi_radius)
    order = order_estimate([row[0] for row in rows], [row[2] for row in rows])
    art = Artifact("weak_residual_refinement.csv", ("h", "tau", "residual"), rows)
    return _result(order >= 1.9,
                   {"estimated_order": order,
                    "final_residual": rows[-1][2]},
                   {"estimated_order": 1.9,
                    "final_residual": float("inf")}, artifacts=(art,))


def _run_integrability(ctx, etas, expected_verdict, min_growth=None):
    rep = integrability_probe(ctx.u0, ctx.damping, ctx.field.horizon, etas)
    ok = rep.verdict == expected_verdict
    if min_growth is not None and rep.verdict == "divergent":
        ok = ok and all(r >= min_growth or not np.isfinite(r)
                        for r in rep.growth_ratios)
    art = Artifact("integrability_probe.csv", ("eta", "truncated_integral"),
                   tuple(zip(rep.etas, rep.integrals)))
    return _result(ok,
                   {"verdict_is_" + expected_verdict: rep.verdict == expected_verdict},
                   {"verdict_is_" + expected_verdict: True},
                   note=f"verdict: {rep.verdict}", artifacts=(art,))


def _run_damping_l1(ctx):
    c = ctx.damping
    # the L1 mass is that of |c| itself, read with no cut-off
    fwd = forward_summary(ctx.field, make_seed_grid(1.0, 1024, 1), 16,
                          damping=replace(c, eval_c=lambda t, x: np.abs(c.eval_c(t, x)), eta=0.0))
    total = float(np.sum(fwd.damping_end)) * fwd.seed_grid.cell_volume
    mass = trapz(c.l1_profile(fwd.time_grid), fwd.time_grid)
    bound = 1.0 * mass * 1.2   # C(X) = 1 for b = 0
    # a zero mass leaves nothing to compare against: the row fails and says so
    rel, note = ((abs(total - mass) / mass, "") if mass != 0.0 else
                 (float("inf"), "the damping's L1 mass is zero: no relative error to judge"))
    return _result(rel <= 0.02 and total <= bound,
                   {"discrete_l1": total, "relative_error": rel,
                    "compressibility_bound": bound},
                   {"relative_error": 0.02, "compressibility_bound": bound}, note=note)


def _skip_weak_form(ctx):
    note = ("weak-form diagnostics skipped by design: with integrable unbounded "
            "damping the pointwise product u(t,.) need not be locally integrable, "
            "so the representation is not a distributional solution and the "
            "quadrature of the weak form has no limit to verify")
    return _result(True, {}, {}, note=note)


# --- twin-difference runners -------------------------------------------------

# one certified log renormalizer per delta for the whole process, so each
# delta runs check_admissible once however many Gamma-trace runners read it
_certified_beta_log = lru_cache(maxsize=None)(make_beta_log)


def _run_gronwall_matrix(ctx, quad_shape, check_delta_independent=False):
    u = ctx.twin_difference(quad_shape)
    bounds = {R: ctx.gronwall_bound(quad_shape, R) for R in ctx.cfg.r_list}
    rows = []
    trace_rows = []
    all_ok = True
    for delta in ctx.cfg.delta_list:
        beta = _certified_beta_log(delta)
        for R in ctx.cfg.r_list:
            phi_R, data = bounds[R]
            trace = gamma_trace(u, beta, phi_R, ctx.field, ctx.damping)
            bound = data.bound(delta)
            rows.append((delta, R, float(np.max(trace.values)), bound))
            all_ok = all_ok and data.holds(trace.values, u.times, delta)
            trace_rows = trace_rows or [(float(t), float(g), float(r), bound) for t, g, r
                                        in zip(u.times, trace.values, trace.rhs)]
    worst = max(g / max(b, 1e-300) for _, _, g, b in rows)
    metrics = {"worst_gamma_over_bound": (worst, 1.0 + GRONWALL_SLACK),
               "all_bounds_hold": (all_ok, True)}
    if check_delta_independent:
        per_R = [[data.bound(delta) for delta in ctx.cfg.delta_list]
                 for _, data in bounds.values()]
        metrics["bound_delta_independent"] = (
            all(max(b) - min(b) <= 1e-9 * max(b) for b in per_R), True)
    art = Artifact("gronwall_log.csv", ("delta", "R", "gamma_max", "bound"),
                   tuple(rows))
    art_trace = Artifact("gamma_trace.csv", ("t", "gamma", "rhs", "bound"),
                         tuple(trace_rows))
    return _check(metrics, artifacts=(art, art_trace))


def _run_uniqueness_probe(ctx, quad_shape):
    """Superlevel {arctan(u)^2 > 1e-8} on B_R0, R0 = 0.9 box_radius."""
    u = ctx.twin_difference(quad_shape)
    _, data = ctx.gronwall_bound(quad_shape, max(ctx.cfg.r_list))
    deltas = [10.0 ** (-k) for k in range(2, 13, 2)]
    rep = uniqueness_probe(u, 1e-8, 0.9 * ctx.cfg.box_radius, deltas, data)
    ok = rep.verdict == "forces u=0" and all(h for _, _, h in rep.delta_table)
    art = Artifact("uniqueness_probe.csv", ("delta", "rhs_bound", "holds"),
                   rep.delta_table)
    return _result(ok,
                   {"m": rep.m, "limit_bound": rep.limit_bound,
                    "verdict_forces_zero": rep.verdict == "forces u=0"},
                   {"m": float("inf"), "limit_bound": rep.m,
                    "verdict_forces_zero": True},
                   note=f"verdict: {rep.verdict}", artifacts=(art,))


# --- BMO scenario runners ----------------------------------------------------

def _average_bound(profile):
    """2^(d+1) norm_star, the decay lemma's bound on the average over B_M."""
    return 2.0 ** (profile.d + 1) * profile.norm_star


def _run_bmo_norm(ctx):
    profile = ctx.bmo_profile()
    avg = profile.core_mean
    avg_bound = _average_bound(profile)
    avg_err = abs(avg - 1.0 / profile.d)   # the average of log(1/|x|) over B_1
    return _result(avg_err <= 0.02 and avg <= avg_bound,
                   {"average_B1": avg, "average_abs_error": avg_err,
                    "norm_star": profile.norm_star, "average_bound": avg_bound},
                   {"average_abs_error": 0.02, "average_bound": avg_bound})


def _run_jn_decay(ctx):
    fit = ctx.jn_fit()
    ok = fit.c_fit > 0.0 and fit.r_squared >= 0.95
    art = Artifact("jn_decay.csv", ("eta", "superlevel_measure"),
                   tuple(zip(fit.etas, fit.measures)))
    return _result(ok,
                   {"c_fit": fit.c_fit, "C_fit": fit.C_fit,
                    "r_squared": fit.r_squared},
                   {"c_fit": 0.0, "r_squared": 0.95}, artifacts=(art,))


def _run_superlevel_tails(ctx):
    profile = ctx.bmo_profile()
    fit = ctx.jn_fit()
    rep = lemma52_checks(profile, ctx.cfg.lambda_list)
    strict = all(b < a for a, b in zip(rep.tails, rep.tails[1:]))
    # decay-lemma bound with the fitted constants standing in for C, c
    sigma = profile.norm_star
    ball = 2.0 * profile.M
    bounds = [fit.C_fit * ball * sigma / fit.c_fit * math.exp(-0.5 * fit.c_fit * lam)
              for lam in rep.lambdas]
    tails_bounded = all(t <= b for t, b in zip(rep.tails, bounds))
    avg, avg_bound = profile.core_mean, _average_bound(profile)
    ok = (avg <= avg_bound + 1e-12 and rep.nonincreasing and strict and rep.convex
          and tails_bounded
          and rep.log_slope < 0.0 and rep.r_squared >= 0.95)
    art = Artifact("superlevel_tails.csv", ("lambda", "tail_integral", "bound"),
                   tuple(zip(rep.lambdas, rep.tails, bounds)))
    return _result(ok,
                   {"average": avg, "average_bound": avg_bound,
                    "log_slope": rep.log_slope, "r_squared": rep.r_squared},
                   {"average": avg_bound, "log_slope": 0.0,
                    "r_squared": 0.95}, artifacts=(art,))


def _run_bmo_gronwall(ctx):
    u = ctx.twin_difference((96, 32))
    phi_R = make_phi_R(ctx.cfg.r_list[0], ctx.d)
    # Gamma depends on (delta, R) alone: one trace per delta serves every lambda
    gammas = {delta: gamma_trace(u, _certified_beta_log(delta), phi_R, ctx.field,
                                 ctx.damping).values
              for delta in ctx.cfg.delta_list}
    family = bmo_gronwall_family(ctx.cfg.lambda_list, ctx.bmo_profile(), ctx.jn_fit(),
                                 ctx.growth(), ctx.damping, phi_R, u.times)
    rows = []
    all_ok = True
    expA_D = {}
    for lam, data in zip(ctx.cfg.lambda_list, family):
        expA_D[lam] = math.exp(data.A) * data.D
        for delta in ctx.cfg.delta_list:
            rows.append((lam, delta, float(np.max(data.window(gammas[delta], u.times))),
                         data.bound(delta), expA_D[lam], data.tau0))
            all_ok = all_ok and data.holds(gammas[delta], u.times, delta)
    lams = sorted(expA_D)
    decay = all(expA_D[b] < expA_D[a] for a, b in zip(lams, lams[1:]))
    art = Artifact("bmo_gronwall.csv",
                   ("lambda", "delta", "gamma_max", "bound", "expA_D", "tau0"),
                   tuple(rows))
    return _check({"all_bounds_hold": (all_ok, True),
                   "expA_D_decreasing": (decay, True)}, artifacts=(art,))


# ---------------------------------------------------------------------------
# scenario registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    description: str
    dimension: int
    T: float
    field_id: str
    damping_id: str
    u0_id: str
    defaults: dict
    runners: dict              # diagnostic name -> runner(ctx), in run order
    # diagnostic name -> the optional forward_summary reductions its runner
    # reads from ctx.forward(), as keywords; the one sweep folds no others
    forward_reads: dict = dataclass_field(default_factory=dict)

    @property
    def diagnostics(self):
        return tuple(self.runners)


REGISTRY = {s.scenario_id: s for s in (
    Scenario(
        scenario_id="identity", description="b = 0, c = 0: nothing moves",
        dimension=1, T=1.0, field_id="zero", damping_id="zero", u0_id="bump",
        defaults={"box_radius": 2.0},
        runners={
            "flow_identity": _run_flow_identity,
            "jacobian_unit": _run_jacobian_unit,
            "change_of_variables": lambda ctx: _run_change_of_variables(
                ctx, gaussian(ctx.d, 0.3), 1e-6),
            "compressibility": lambda ctx: _run_compressibility(ctx, 1.0),
            "superlevel": _run_superlevel,
            "weak_residual": lambda ctx: _run_weak_residual(
                ctx, n_space=256, n_time=256, tol=1e-6, phi_radius=1.5),
            "l2_energy": lambda ctx: _run_l2_energy(ctx, 128, 64),
        },
        forward_reads={"flow_identity": {"displacement": True},
                       "jacobian_unit": {"residuals": True},
                       "superlevel": _superlevel_reads(1.0, 1.5)}),
    Scenario(
        scenario_id="linear_expand", description="b(x) = x: exponential dilation",
        dimension=1, T=1.0, field_id="linear_expand", damping_id="zero",
        u0_id="bump",
        defaults={"box_radius": 1.0, "seeds_per_axis": 512, "steps": 1000},
        runners={
            "flow_endpoint": lambda ctx: _run_flow_endpoint(
                ctx, [1.0], 1.0, [math.e]),
            "jacobian_profile": lambda ctx: _run_jacobian_profile(ctx, 1.0),
            "jacobian_ode": _run_jacobian_ode,
            "change_of_variables": lambda ctx: _run_change_of_variables(
                ctx, bump(1, 1.0), 1e-5),
            "superlevel": _run_superlevel,
            "forward_backward": _run_forward_backward,
            "l2_energy": lambda ctx: _run_l2_energy(ctx, 128, 48),
        },
        forward_reads={"jacobian_ode": {"residuals": True},
                       "superlevel": _superlevel_reads(0.5, 0.5 * math.e + 0.01)}),
    Scenario(
        scenario_id="linear_contract", description="b(x) = -x: contraction onto 0",
        dimension=1, T=1.0, field_id="linear_contract", damping_id="zero",
        u0_id="bump",
        defaults={"box_radius": 1.0, "seeds_per_axis": 10_000, "steps": 500},
        runners={
            "compressibility": lambda ctx: _run_compressibility(ctx, math.e),
            "jacobian_profile": lambda ctx: _run_jacobian_profile(ctx, -1.0),
        }),
    Scenario(
        scenario_id="rotation", description="b = (-y, x): rigid rotation",
        dimension=2, T=math.pi / 2.0, field_id="rotation", damping_id="zero",
        u0_id="bump",
        defaults={"box_radius": 1.0, "seeds_per_axis": 100, "steps": 500},
        runners={
            "flow_endpoint": lambda ctx: _run_flow_endpoint(
                ctx, [1.0, 0.0], math.pi / 2.0, [0.0, 1.0]),
            "compressibility": lambda ctx: _run_compressibility(ctx, 1.0),
            "change_of_variables": lambda ctx: _run_change_of_variables(
                ctx, bump(2, 0.8), 1e-6),
            "superlevel": _run_superlevel,
        },
        forward_reads={"superlevel": _superlevel_reads(0.9, 1.45)}),
    Scenario(
        scenario_id="shear_bv", description="b = (sign(y), 0): BV shear layer",
        dimension=2, T=1.0, field_id="shear", damping_id="zero", u0_id="bump",
        defaults={"box_radius": 1.0, "seeds_per_axis": (2, 1024), "steps": 16,
                  "eps_list": [0.2, 0.1, 0.05, 0.025]},
        runners={
            "mollify_checks": _run_mollify_checks,
            "flow_convergence": _run_flow_convergence,
        }),
    Scenario(
        scenario_id="compact_support_b",
        description="compactly supported smooth b: C_R vanishes for R past the support",
        dimension=1, T=1.0, field_id="compact_bump", damping_id="zero",
        u0_id="bump",
        defaults={"box_radius": 2.0, "steps": 96,
                  "delta_list": [1e-2, 1e-4, 1e-6], "r_list": [8.0]},
        runners={
            "growth_split": _run_growth_split,
            "gronwall_log": lambda ctx: _run_gronwall_matrix(
                ctx, (96, 32), check_delta_independent=True),
        }),
    Scenario(
        scenario_id="damping_bounded",
        description="b = 0, c = indicator of B_1: bounded DiPerna-Lions regime",
        dimension=1, T=1.0, field_id="zero", damping_id="box_indicator",
        u0_id="bump",
        defaults={"box_radius": 2.0, "steps": 128},
        runners={
            "representation_exact": _run_representation_exact,
            "weak_residual_refinement": lambda ctx: _run_weak_refinement(
                ctx, [(64, 32), (128, 64), (256, 128)], phi_radius=1.5),
            "l2_energy": lambda ctx: _run_l2_energy(ctx, 128, 64),
            "integrability_probe": lambda ctx: _run_integrability(
                ctx, [10.0 ** (-k) for k in range(2, 11)], "convergent"),
        }),
    Scenario(
        scenario_id="counterexample_L1_damping",
        description="b = 0, c = |x|^(-1/2): integrable damping breaks local integrability",
        dimension=1, T=1.0, field_id="zero", damping_id="inv_sqrt",
        u0_id="indicator_unit",
        defaults={"box_radius": 1.0},
        runners={
            "integrability_probe": lambda ctx: _run_integrability(
                ctx, [1e-2, 1e-3, 1e-4], "divergent", min_growth=10.0),
            "damping_l1": _run_damping_l1,
            "weak_form": _skip_weak_form,
        }),
    Scenario(
        scenario_id="twin_difference_gronwall",
        description="zero-datum twin difference under b = x with box damping",
        dimension=1, T=1.0, field_id="linear_expand", damping_id="box_indicator",
        u0_id="bump",
        defaults={"box_radius": 3.0, "steps": 96,
                  "delta_list": [1e-2, 1e-4, 1e-6], "r_list": [2.0, 4.0, 8.0]},
        runners={
            "gronwall_log": lambda ctx: _run_gronwall_matrix(ctx, (96, 48)),
            "uniqueness_probe": lambda ctx: _run_uniqueness_probe(ctx, (96, 48)),
        }),
    Scenario(
        scenario_id="bmo_divergence_log",
        description="div b = log(1/|x|) on B_1: BMO divergence uniqueness bound",
        dimension=1, T=1.0, field_id="log_drift", damping_id="zero", u0_id="bump",
        defaults={"box_radius": 2.0, "steps": 64,
                  "delta_list": [1e-2, 1e-4], "lambda_list": [9.0, 12.0, 16.0],
                  "r_list": [2.0]},
        runners={
            "bmo_norm": _run_bmo_norm,
            "jn_decay": _run_jn_decay,
            "superlevel_tails": _run_superlevel_tails,
            "bmo_gronwall": _run_bmo_gronwall,
        }),
)}


def list_scenarios(filter_text=None):
    """Rows (id, dimension, description), optionally substring-filtered."""
    rows = []
    for sid in REGISTRY:
        s = REGISTRY[sid]
        if filter_text and filter_text.lower() not in sid.lower():
            continue
        rows.append((sid, s.dimension, s.description))
    return rows


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

# seconds; a diagnostic listed here fails unless its runner finishes sooner
RUNTIME_BUDGET_S = {
    "flow_endpoint": 1,
    "integrability_probe": 1,
    "flow_convergence": 30,
    "gronwall_log": 60,
    "bmo_gronwall": 60,
}


def build_context(cfg) -> RunContext:
    scenario = REGISTRY[cfg.scenario_id]
    field = FIELD_CATALOG[cfg.field_id](scenario.dimension, cfg.T)
    damping = replace(DAMPING_CATALOG[cfg.damping_id](scenario.dimension), eta=cfg.eta)
    u0 = U0_CATALOG[cfg.u0_id](scenario.dimension)
    reads = {}
    for name in cfg.diagnostics:
        reads.update(scenario.forward_reads.get(name, {}))
    return RunContext(cfg=cfg, field=field, damping=damping, u0=u0, forward_reads=reads)


def run_scenario(cfg) -> RunReport:
    """Execute the selected diagnostics of a resolved configuration.

    Each runner computes and judges; this loop names its result by the
    registry key, times the call and records the process's peak RSS
    (``ru_maxrss``, in MiB) once it returns. Runtime budgets live only in
    ``RUNTIME_BUDGET_S``: a budgeted diagnostic passes only if its runner
    passed and took strictly less than the budget, and its note names the
    budget. Module errors are re-raised as PipelineError tagged with the
    diagnostic stage. The report is returned; writing CSVs is the caller's
    move.
    """
    scenario = REGISTRY[cfg.scenario_id]
    ctx = build_context(cfg)
    report = RunReport(scenario_id=cfg.scenario_id, config=cfg.echo(),
                       version=__version__)
    for name in cfg.diagnostics:
        t0 = time.perf_counter()
        try:
            result = scenario.runners[name](ctx)
        except (RoughTransportError, ValueError) as exc:
            raise PipelineError(name, exc) from exc
        result.name = name
        result.seconds = time.perf_counter() - t0
        result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        budget = RUNTIME_BUDGET_S.get(name)
        if budget is not None:
            result.passed = result.passed and result.seconds < budget
            result.note = "; ".join(filter(None, (result.note,
                                                  f"runtime budget {budget:g} s")))
        report.results.append(result)
    return report
