"""Mean oscillation norms, John-Nirenberg decay, the BMO Gronwall bound."""

import dataclasses
import inspect
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from rough_transport import bmo
from rough_transport.bmo import (BMODivergenceSplit, bmo_gronwall_constants,
                                 bmo_norm, choose_tau0,
                                 default_ball_family, jn_decay_check,
                                 lemma52_checks)
from rough_transport.errors import (BadSplitError, DegenerateFitError,
                                    EmptyBallError, LambdaTooSmallError,
                                    NegativeInputError, NonFiniteProfileError)
from rough_transport.fields import growth_split
from rough_transport.numerics import CellGrid, cell_centers, profile
from rough_transport.renormalization import make_beta_log, make_phi_R
from rough_transport.representation import DensityRepresentation, make_quadrature
from rough_transport.scenarios import _log_core_samples
from rough_transport.weakform import gamma_trace, gronwall_constants

from conftest import damping, field, traced_bytes


def _grid_1d(M=1.0, n=1 << 18):
    """The n cells of [-2M, 2M] and their centres."""
    grid = CellGrid(2.0 * M, n, 1)
    return grid, grid.axis()


def _log_samples(points, M=1.0):
    r = np.linalg.norm(points, axis=-1)
    with np.errstate(divide="ignore"):
        return np.where(r < M, np.log(np.where(r > 0.0, 1.0 / r, 1.0)), 0.0)


def _log_profile(M=1.0, n=1 << 18):
    grid, xs = _grid_1d(M, n)
    return bmo_norm(_log_samples(xs[:, None], M), M, default_ball_family(M, 1), grid)


def test_norm_of_log_on_centred_balls_is_two_over_e():
    # on B_r centred at 0, log(1/|x|) has average 1 + log(1/r) and mean
    # oscillation 2/e for every r <= 1; on 2^20 cells of [-2, 2] the grid
    # errors stay below 2.7e-5 and 2.1e-5
    grid, xs = _grid_1d(n=1 << 20)
    radii = [2.0 ** -k for k in range(5)]
    prof = bmo_norm(_log_samples(xs[:, None]), 1.0, tuple(((0.0,), r) for r in radii),
                    grid)
    assert np.max(np.abs(prof.oscillations - 2.0 / math.e)) <= 1e-4
    assert np.max(np.abs(prof.averages - (1.0 + np.log(1.0 / np.array(radii))))) <= 1e-4


def test_norm_constant_on_support_is_handled():
    # oscillation kills constants: f and f + const have identical norm_star
    grid, xs = _grid_1d()
    inside = np.abs(xs) < 1.0
    base = np.where(inside, np.abs(xs), 0.0)
    fam = default_ball_family(1.0, 1)
    # restrict the family to balls inside B_1 so the support step is not seen
    fam = tuple((c, r) for c, r in fam if abs(c[0]) + r <= 1.0)
    p1 = bmo_norm(base, 1.0, fam, grid)
    p2 = bmo_norm(np.where(inside, base + 3.0, 0.0), 1.0, fam, grid)
    assert p2.norm_star == pytest.approx(p1.norm_star, rel=1e-12)


def test_norm_zero_for_constant_field():
    grid, xs = _grid_1d()
    fam = tuple((c, r) for c, r in default_ball_family(1.0, 1)
                if abs(c[0]) + r <= 1.0)
    prof = bmo_norm(np.where(np.abs(xs) < 1.0, 2.5, 0.0), 1.0, fam, grid)
    assert prof.norm_star == 0.0


def test_norm_indicator_half_oscillation():
    # symmetric ball at 0: average 1/2 and |f - 1/2| identically 1/2
    grid, xs = _grid_1d()
    vals = np.where((xs > 0.0) & (np.abs(xs) < 1.0), 1.0, 0.0)
    prof = bmo_norm(vals, 1.0, (((0.0,), 0.5),), grid)
    assert prof.averages[0] == pytest.approx(0.5, abs=1e-12)
    assert prof.oscillations[0] == pytest.approx(0.5, abs=1e-12)


def test_norm_requires_compact_support():
    grid, xs = _grid_1d()
    with pytest.raises(ValueError):
        bmo_norm(np.ones_like(xs), 1.0, (((0.0,), 1.0),), grid)


def test_norm_needs_one_sample_per_cell():
    grid, xs = _grid_1d(n=64)
    with pytest.raises(ValueError, match="one sample per cell"):
        bmo_norm(np.zeros(63), 1.0, (((0.0,), 1.0),), grid)


def test_bmo_norm_keeps_the_names_the_tracer_binds():
    # perfbench/tracer.py binds bmo_norm's ball_family by name and reads the
    # cell count as profile.points.shape[0]; a rename would pass every other
    # test and break only a traced benchmark pass
    assert "ball_family" in inspect.signature(bmo_norm).parameters
    prof = _log_profile(n=1 << 12)
    assert prof.points.shape[0] == prof.values.size == 1 << 12


def _raises_empty_ball(values, points, center, radius):
    # the message names the ball; no mean of an empty selection runs first
    # ("Mean of empty slice" would fail under -W error)
    message = re.escape(f"ball at {center} radius {radius:g} holds no cell")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmptyBallError, match=message):
            bmo_norm(values, 1.0, ((center, radius),), points)


def test_empty_ball_raises():
    # no cell centre lies within the radius
    grid, xs = _grid_1d(n=64)
    vals = np.where(np.abs(xs) < 1.0, 1.0, 0.0)
    _raises_empty_ball(vals, grid, (0.0,), 1e-6)


@pytest.mark.parametrize("points,center,radius", [
    # the centres +-0.5 lie at exactly the radius, which the strict test rejects
    (CellGrid(2.0, 4, 1), (0.0,), 0.5),
    # the centre lies between the cells (0, 0) and (0, 1) of its line, each
    # 0.5 away, so the line's bisection finds an empty run
    (CellGrid(1.5, 3, 2), (0.0, 0.5), 0.25),
])
def test_ball_with_nonempty_slab_and_no_cell_raises(points, center, radius):
    _raises_empty_ball(np.zeros(points.shape[0]), points, center, radius)


def _where_log_samples(xs, M):
    # the full-grid formula the core-only build replaces: three np.where passes
    r = np.abs(xs)
    with np.errstate(divide="ignore"):
        return np.where(r < M, np.log(np.where(r > 0.0, 1.0 / r, 1.0)), 0.0)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("n", [1, 3, 1025, 4097, 6, 1026, 4094, 1 << 12])
@pytest.mark.parametrize("M", [1.0, 0.3])
def test_log_core_samples_match_full_grid_formula(n, M):
    # odd n puts a centre at x = 0; n = 2 mod 4 puts centres at (or within an
    # ulp of) |x| = M, the edge of the core run
    xs = cell_centers(2.0 * M, n)
    assert _same_bits(_log_core_samples(CellGrid(2.0 * M, n, 1), M),
                      _where_log_samples(xs, M))
    if n % 2:
        assert np.any(xs == 0.0)
    if n % 4 == 2:
        assert np.min(np.abs(np.abs(xs) - M)) <= 2.0 * np.spacing(M)


@pytest.mark.parametrize("M", [1.0, 0.3])
def test_log_core_samples_edges(M):
    # grids with centres at exactly 0, at exactly +-1.0, and at -0.3 and one
    # ulp inside and outside +-0.3 (no grid below 6000 cells puts a centre at
    # 0.3 exactly, or an ulp away from 1.0)
    edges = {0.0, -M, M}
    if M == 0.3:
        edges = {0.0, -M} | {s * float(np.nextafter(M, t))
                             for s in (1.0, -1.0) for t in (0.0, 2.0)}
    hit = set()
    for n in (1, 2, 14, 74, 266):
        xs = cell_centers(2.0 * M, n)
        got = _log_core_samples(CellGrid(2.0 * M, n, 1), M)
        assert _same_bits(got, _where_log_samples(xs, M))
        assert np.count_nonzero(got) == np.count_nonzero((np.abs(xs) < M) & (xs != 0.0))
        hit |= edges.intersection(xs.tolist())
    assert hit == edges


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_norm_rejects_nonfinite_sample(bad):
    # one bad sample inside B_M would turn norm_star and every fit into NaN
    grid, xs = _grid_1d(n=1 << 12)
    vals = _log_samples(xs[:, None])
    vals[1 << 10] = bad
    with pytest.raises(NonFiniteProfileError, match=re.escape(f"x={[float(xs[1 << 10])]}")):
        bmo_norm(vals, 1.0, default_ball_family(1.0, 1), grid)


def _brute_force_statistics(values, ball_family, points):
    # reference: one full-grid mask per ball
    averages, oscillations = [], []
    for center, radius in ball_family:
        sel = values[np.linalg.norm(points - np.asarray(center), axis=-1) < radius]
        avg = float(np.mean(sel))
        averages.append(avg)
        oscillations.append(float(np.mean(np.abs(sel - avg))))
    return np.array(averages), np.array(oscillations)


def _half_cell(family, grid):
    """The family with every centre moved by half a cell along the last axis."""
    return tuple(((*c[:-1], c[-1] + 0.5 * grid.h), r) for c, r in family)


def _run_mask(runs, size):
    mask = np.zeros(size, dtype=bool)
    for a, b in runs:
        mask[a:b] = True
    return mask


# 2.0125 / 161 = 0.025 puts the centres at -2 + 0.025 i up to rounding, so
# many lie on the ball boundaries, or an ulp off them
_RUN_GRIDS = [CellGrid(2.0, 1 << 12, 1), CellGrid(2.0, 1 << 12 | 1, 1),
              CellGrid(2.0125, 161, 1), CellGrid(2.0125, 161, 2), CellGrid(2.0, 64, 2),
              CellGrid(2.0, 9, 3)]


@pytest.mark.parametrize("grid", _RUN_GRIDS,
                         ids=lambda g: f"{g.radius}-{g.cells_per_axis}-{g.dimension}")
@pytest.mark.parametrize("half_cell", [False, True])
def test_ball_runs_match_full_grid_masks(grid, half_cell):
    # every ball of the family, and the closed and open B_1 the support check
    # reads, against the full-grid mask of np.linalg.norm on the centres
    family = default_ball_family(1.0, grid.dimension)
    if half_cell:
        family = _half_cell(family, grid)
    family += (((0.0,) * grid.dimension, 1.0),
               ((0.0,) * grid.dimension, float(np.nextafter(1.0, 2.0))))
    points = grid.centers()
    assert grid.shape == points.shape
    n = grid.cells_per_axis
    close = 0
    for (center, radius), runs in zip(family, grid.ball_runs(*zip(*family))):
        dist = np.linalg.norm(points - np.asarray(center), axis=-1)
        assert np.array_equal(_run_mask(runs, points.shape[0]), dist < radius)
        # nonempty, in grid order, one at most per line of the last axis
        lines = [a // n for a, b in runs]
        assert all(a < b and (b - 1) // n == a // n for a, b in runs)
        assert lines == sorted(set(lines))
        close += int(np.count_nonzero(np.abs(dist - radius) <= 4.0 * np.spacing(radius)))
    if grid.radius == 2.0125 and not half_cell:
        assert close > 0


@pytest.mark.parametrize("n", list(range(1, 10)) + [127, 128, 129, (1 << 16) - 1, 1 << 16,
                               (1 << 16) + 1, (1 << 17) + 5, 3 * (1 << 20) + 1])
def test_leafwise_sum_is_numpys_pairwise_sum(n):
    # the leaf sums, added along the split points of numpy's pairwise tree,
    # give np.add.reduce and np.mean bit for bit; lengths around the 8-float
    # unroll, the 128-float block and the 2^16-cell leaf, and long arrays
    # with many leaves
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    total = bmo._pairwise_sum(lambda a, b: float(np.add.reduce(x[a:b])), n)
    message = ("numpy's pairwise summation order changed: the leaf-wise ball sums "
               "of bmo.py no longer reproduce np.add.reduce")
    assert np.float64(total).view(np.int64) == np.add.reduce(x).view(np.int64), message
    assert np.float64(total / n).view(np.int64) == np.mean(x).view(np.int64), message


_SLAB_CASES = [(d, half_cell, leaf) for leaf in (None, 64, 136)
               for d in (1, 2) for half_cell in (False, True)]


@pytest.mark.parametrize("d,half_cell,leaf", _SLAB_CASES,
                         ids=[f"{d}-{h}" + (f"-leaf{leaf}" if leaf else "")
                              for d, h, leaf in _SLAB_CASES])
def test_slab_statistics_match_full_grid_masks(d, half_cell, leaf, monkeypatch):
    # the ball runs give the per-ball masks bit for bit; the 2-D grid puts
    # centres on ball boundaries up to rounding. With half_cell every ball
    # centre moves by half a cell: onto cell centres in 1-D (where the
    # family's centres lie on cell faces), between cells in 2-D. A small
    # leaf splits every wide ball into many leaves, and in 2-D the lines of
    # up to 80 cells cross leaf boundaries
    if d == 1:
        grid = CellGrid(2.0, 1 << 16, 1)
    else:
        grid = CellGrid(2.0125, 161, 2)
    if leaf:
        monkeypatch.setattr(bmo, "_CHUNK", leaf)
    points = grid.centers()
    values = _log_samples(points)
    family = default_ball_family(1.0, d)
    if half_cell:
        family = _half_cell(family, grid)
    prof = bmo_norm(values, 1.0, family, grid)
    if leaf:
        widest = max(sum(b - a for a, b in r) for r in grid.ball_runs(*zip(*family)))
        assert widest > 16 * leaf
    averages, oscillations = _brute_force_statistics(values, family, points)
    assert np.array_equal(prof.averages, averages)
    assert np.array_equal(prof.oscillations, oscillations)
    # the support check reads the runs of |x| <= M alone, against full-grid masks
    radii = np.linalg.norm(points, axis=-1)
    assert prof.vanishes_outside
    assert np.array_equal(prof.core_values, values[radii < 1.0])
    assert np.array_equal(prof.support_values, values[radii <= 1.0])
    # the sample outside B_1 nearest to it
    leaky = values.copy()
    leaky[np.argmin(np.where(radii > 1.0, radii, np.inf))] = 1.0
    assert not dataclasses.replace(prof, values=leaky).vanishes_outside


@pytest.mark.parametrize("grid", [CellGrid(2.0, 1026, 1), CellGrid(2.0125, 161, 2)],
                         ids=["1d", "2d"])
def test_support_holds_the_sphere_and_the_core_does_not(grid):
    # a nonzero sample at |x| == M exactly lies in the support, so the profile
    # vanishes outside B_M, but not in the open ball the core reads
    points = grid.centers()
    radii = np.linalg.norm(points, axis=-1)
    assert np.any(radii == 1.0)
    values = np.where(radii <= 1.0, 1.0, 0.0)
    values[radii < 1.0] = 0.5
    prof = bmo_norm(values, 1.0, (((0.0,) * grid.dimension, 0.5),), grid)
    assert prof.vanishes_outside
    assert prof.core_values.size == np.count_nonzero(radii < 1.0)
    assert np.all(prof.core_values == 0.5)
    assert np.count_nonzero(prof.support_values == 1.0) == np.count_nonzero(radii == 1.0)
    assert grid.dimension > 1 or np.shares_memory(prof.core_values, prof.values)


def test_support_checked_once_per_profile(monkeypatch):
    # bmo_norm's own support check fills the flag that BadSplitError reads
    prof = _log_profile(n=1 << 12)
    assert prof.__dict__["vanishes_outside"] is True
    # the support flag and the B_M samples share one norm pass over the slab
    # |x_0| <= M; no norm runs over the full grid
    passes = []
    norm = np.linalg.norm

    def counted(x, *args, **kwargs):
        if np.shape(x)[0] == prof.points.shape[0]:
            passes.append(np.shape(x))
        return norm(x, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "norm", counted)
    fresh = dataclasses.replace(prof)
    assert fresh.vanishes_outside and fresh.core_values.size > 0
    assert passes == []
    monkeypatch.undo()
    leaky = dataclasses.replace(prof, values=prof.values + 1.0)
    assert not leaky.vanishes_outside
    spec = field("log_drift")
    split = BMODivergenceSplit(d1_sup=lambda t: 0.0, d2_profile=leaky,
                               d2_norm_star=lambda t: prof.norm_star,
                               jn=jn_decay_check(prof, [1.0 + 0.5 * k for k in range(7)]))
    quad = make_quadrature(1, 2.0, 16, 1.0, 8)
    with pytest.raises(BadSplitError):
        bmo_gronwall_constants(9.0, split, growth_split(spec), damping("zero"),
                               make_phi_R(2.0, 1), quad.times)


def test_core_values_built_once():
    # the B_M samples every decay check reads come from one cached mask
    prof = _log_profile(n=1 << 12)
    inside = np.linalg.norm(prof.grid.centers(), axis=-1) < prof.M
    assert prof.core_values is prof.core_values
    assert np.array_equal(prof.core_values, prof.values[inside])


# --- John-Nirenberg decay ----------------------------------------------------------

def test_jn_log_exemplar():
    # superlevels of log(1/|x|) - 1 beyond eta >= 1: measure 2 e^{-1-eta}
    prof = _log_profile()
    etas = [1.0 + 0.5 * k for k in range(7)]
    fit = jn_decay_check(prof, etas)
    assert fit.c_fit > 0.0
    for eta, measured in zip(fit.etas, fit.measures):
        assert measured == pytest.approx(2.0 * math.exp(-1.0 - eta), rel=1e-3)
    # slope in eta is exactly -1 in the continuum, so c_fit recovers norm_star
    # up to the superlevel discretization
    assert fit.c_fit == pytest.approx(prof.norm_star, rel=1e-3)


def test_jn_trivially_decayed():
    grid, xs = _grid_1d()
    vals = np.where(np.abs(xs) < 1.0, np.abs(xs), 0.0)
    prof = bmo_norm(vals, 1.0, default_ball_family(1.0, 1), grid)
    fit = jn_decay_check(prof, [5.0, 6.0, 7.0])
    assert fit.trivial


def test_jn_degenerate_fit():
    grid, xs = _grid_1d()
    vals = np.where((xs > 0.0) & (np.abs(xs) < 1.0), 1.0, 0.0)
    prof = bmo_norm(vals, 1.0, (((0.0,), 1.0),), grid)
    # |f - 1/2| is identically 1/2 on B_1: only levels below 1/2 are nonempty
    with pytest.raises(DegenerateFitError):
        jn_decay_check(prof, [0.2, 0.4, 0.6, 0.8])


def test_jn_scaling_invariance():
    # doubling f doubles norm_star and halves the decay per unit eta
    prof1 = _log_profile()
    grid, xs = _grid_1d()
    r = np.abs(xs)
    with np.errstate(divide="ignore"):
        vals = np.where(r < 1.0, 2.0 * np.log(np.where(r > 0.0, 1.0 / r, 1.0)), 0.0)
    prof2 = bmo_norm(vals, 1.0, default_ball_family(1.0, 1), grid)
    assert prof2.norm_star == pytest.approx(2.0 * prof1.norm_star, rel=1e-12)
    fit1 = jn_decay_check(prof1, [1.0 + 0.5 * k for k in range(7)])
    fit2 = jn_decay_check(prof2, [2.0 + 1.0 * k for k in range(7)])
    assert abs(fit2.c_fit - fit1.c_fit) <= 0.1 * fit1.c_fit


# --- superlevel tail integrals -------------------------------------------------------

def test_tails_zero_above_max():
    prof = _log_profile()
    fmax = float(np.max(prof.values))
    lam = (fmax + 1.0) / prof.norm_star
    rep = lemma52_checks(prof, [lam])
    assert rep.tails[0] == 0.0


def test_average_bound_log_exemplar():
    # analytic average of log(1/|x|) over B_1 is 1; bound is 2^(d+1) norm_star
    prof = _log_profile()
    rep = lemma52_checks(prof, [9.0, 12.0, 16.0])
    assert rep.average == pytest.approx(1.0, rel=2e-2)
    assert rep.average_ok


def test_tail_integral_closed_form():
    # analytic: integral of (log(1/|x|) - lambda sigma)_+ equals 2 e^{-lambda sigma}
    prof = _log_profile(n=1 << 21)
    lambdas = [6.0, 9.0, 12.0]
    rep = lemma52_checks(prof, lambdas)
    for lam, tail in zip(rep.lambdas, rep.tails):
        assert tail == pytest.approx(2.0 * math.exp(-lam * prof.norm_star), rel=0.05)
    assert rep.nonincreasing and rep.convex
    assert rep.log_slope < 0.0


@pytest.mark.parametrize("n", [1 << 12, 1 << 12 | 1])
def test_tails_match_full_size_excess(n):
    # the gathered tails against np.sum(excess[excess > 0]), bit for bit,
    # down to a level above every sample whose tail is empty
    grid, xs = _grid_1d(n=n)
    prof = bmo_norm(_where_log_samples(xs, 1.0), 1.0, default_ball_family(1.0, 1),
                    grid)
    top = float(np.max(prof.values)) / prof.norm_star
    lambdas = [0.0, 0.5, 3.0, 9.0, top, 2.0 * top]
    rep = lemma52_checks(prof, lambdas)
    for lam, tail in zip(lambdas, rep.tails):
        excess = prof.values - lam * prof.norm_star
        assert tail == float(np.sum(excess[excess > 0.0])) * prof.cell_volume
    assert rep.tails[-2] == rep.tails[-1] == 0.0
    assert rep.tails[0] > 0.0


def test_tails_match_full_size_excess_in_2d():
    # the 2-D support is many runs, gathered in grid order: the same numbers
    # in the same order as the full-grid excess
    grid = CellGrid(2.0125, 161, 2)
    points = grid.centers()
    values = _log_samples(points)
    prof = bmo_norm(values, 1.0, default_ball_family(1.0, 2), grid)
    lambdas = [0.0, 0.5, 3.0]
    rep = lemma52_checks(prof, lambdas)
    for lam, tail in zip(lambdas, rep.tails):
        excess = values - lam * prof.norm_star
        assert tail == float(np.sum(excess[excess > 0.0])) * prof.cell_volume
    assert rep.tails[-1] > 0.0


def test_tails_reject_negative_lambda():
    # below level 0 the zeros outside B_M would count, and the support is
    # all that is read
    with pytest.raises(ValueError, match="nonnegative lambdas"):
        lemma52_checks(_log_profile(n=1 << 12), [9.0, -1.0])


def test_tails_reject_negative_input():
    grid, xs = _grid_1d()
    vals = np.where(np.abs(xs) < 1.0, -1.0, 0.0)
    prof = bmo_norm(np.abs(vals), 1.0, default_ball_family(1.0, 1), grid)
    object.__setattr__(prof, "values", vals)
    with pytest.raises(NegativeInputError):
        lemma52_checks(prof, [9.0])


# --- BMO Gronwall bound ---------------------------------------------------------------

def _zero_density(quad):
    return DensityRepresentation(quad, np.zeros((quad.times.size, quad.points.shape[0])))


def test_bmo_gronwall_zero_solution():
    spec = field("log_drift")
    prof = _log_profile()
    fit = jn_decay_check(prof, [1.0 + 0.5 * k for k in range(7)])
    split = BMODivergenceSplit(d1_sup=lambda t: 0.0, d2_profile=prof,
                               d2_norm_star=lambda t: prof.norm_star, jn=fit)
    quad = make_quadrature(1, 2.0, 48, 1.0, 16)
    growth = growth_split(spec, rng=np.random.default_rng(0))
    phi_R = make_phi_R(2.0, 1)
    trace = gamma_trace(_zero_density(quad), make_beta_log(1e-2), phi_R, spec,
                        damping("zero"), 0.0)
    data = bmo_gronwall_constants(9.0, split, growth, damping("zero"), phi_R,
                                  quad.times)
    assert data.holds(trace, 1e-2)
    assert np.all(trace.values == 0.0)
    assert data.tau0 < 1.0     # the policy clips the window
    # assembled constants match the closed forms for this autonomous split
    # (integrated up to the last time node inside the tau0 window):
    # a_lambda = lambda sigma + 2 b2 and d_lambda = C e^{-c lambda} sigma
    sigma = prof.norm_star
    window = float(quad.times[quad.times <= data.tau0 + 1e-12][-1])
    assert window <= data.tau0
    assert data.A == pytest.approx(window * (9.0 * sigma + 2.0), rel=1e-12)
    assert data.D == pytest.approx(
        window * fit.C_fit * math.exp(-9.0 * fit.c_fit) * sigma, rel=1e-12)


def test_bmo_gronwall_lambda_too_small():
    spec = field("log_drift")
    prof = _log_profile()
    fit = jn_decay_check(prof, [1.0 + 0.5 * k for k in range(7)])
    split = BMODivergenceSplit(d1_sup=lambda t: 0.0, d2_profile=prof,
                               d2_norm_star=lambda t: prof.norm_star, jn=fit)
    quad = make_quadrature(1, 2.0, 16, 1.0, 8)
    growth = growth_split(spec, rng=np.random.default_rng(0))
    with pytest.raises(LambdaTooSmallError):
        bmo_gronwall_constants(8.0, split, growth, damping("zero"),
                               make_phi_R(2.0, 1), quad.times)


def test_bmo_gronwall_reduces_without_oscillating_part():
    # d2 = 0: the bound coincides with the plain logarithmic Gronwall bound
    spec = field("linear_expand")
    dmp = damping("zero")
    split = BMODivergenceSplit(d1_sup=spec.div_sup, d2_profile=None,
                               d2_norm_star=lambda t: 0.0, jn=None)
    quad = make_quadrature(1, 2.0, 48, 1.0, 16)
    growth = growth_split(spec, rng=np.random.default_rng(1))
    u = _zero_density(quad)
    for delta, R in ((1e-2, 2.0), (1e-4, 4.0)):
        phi_R = make_phi_R(R, 1)
        trace = gamma_trace(u, make_beta_log(delta), phi_R, spec, dmp, 0.0)
        bmo_data = bmo_gronwall_constants(9.0, split, growth, dmp, phi_R, quad.times)
        log_data = gronwall_constants(profile(spec.div_sup, quad.times), dmp, growth,
                                      phi_R, quad.times)
        assert bmo_data.tau0 == quad.times[-1]
        assert bmo_data.bound(delta) == log_data.bound(delta)
        assert bmo_data.holds(trace, delta) and log_data.holds(trace, delta)


def test_tau0_policy_window():
    # constant norm profile sigma: tau0 sigma must land in [0.4, 0.5] c_fit
    sigma = 0.7
    c_fit = 0.7
    tau0 = choose_tau0(lambda t: sigma, c_fit, 1.0)
    assert 0.4 * c_fit - 1e-8 <= tau0 * sigma <= 0.5 * c_fit + 1e-8


# --- scratch memory -------------------------------------------------------------------

def _traced(fn):
    """(result, peak traced bytes, bytes still held by the result)."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held


@pytest.mark.parametrize("M", [pytest.param(1.0, id="1.0"), pytest.param(0.5, id="0.5")])
def test_bmo_norm_scratch_is_one_float_array(M):
    # a 1-D ball is one run, read as a view of the values, and one float
    # scratch of one leaf holds |sel - avg| for every leaf: beyond the
    # inputs the peak stays within 8 bytes per cell of a leaf plus 64 KiB
    # for the runs and the per-ball tables, far below the widest ball. No
    # distance or bool array per cell is built, and the profile keeps no
    # copy: its B_M samples are a view too
    grid, xs = _grid_1d(n=1 << 20)
    values = _where_log_samples(xs, M)
    family = default_ball_family(1.0, 1)
    widest = max(sum(b - a for a, b in r) for r in grid.ball_runs(*zip(*family)))
    prof, peak, held = _traced(lambda: bmo_norm(values, M, family, grid))
    assert np.shares_memory(prof.core_values, values)
    assert 8 * widest > 4 * (8 * bmo._CHUNK + (1 << 16))
    assert peak - held <= 8 * bmo._CHUNK + (1 << 16)


def test_lemma52_scratch_is_one_mask():
    # the cells with |x| <= M alone are read: one support-sized mask serves
    # every lambda; the gathered positive excess is the only float array, the
    # level is subtracted from it in place, and it is freed before the next,
    # nearly as large, level gathers its own
    prof = _log_profile(n=1 << 20)
    support = prof.support_values.size
    assert 2 * support <= prof.values.size + 2
    lambdas = [0.0, 0.1, 1.0, 4.0, 1e6]
    largest = int(np.count_nonzero(prof.values > 0.0))
    rep, peak, held = _traced(lambda: lemma52_checks(prof, lambdas))
    assert rep.tails[0] > 0.0 and rep.tails[-1] == 0.0
    assert peak - held <= support + 8 * largest + (1 << 16)


def test_log_core_samples_scratch_is_one_core_mask():
    # beyond the result, only the bool mask of the x = 0 cells is allocated:
    # the centres, |x|, 1/|x| and the log are written into the core run in place
    n, M = 1 << 20, 1.0
    xs = cell_centers(2.0 * M, n)
    core = int(np.count_nonzero(np.abs(xs) < M))
    vals, kept, peak = traced_bytes(lambda: _log_core_samples(CellGrid(2.0 * M, n, 1), M))
    assert kept >= vals.nbytes
    assert peak <= vals.nbytes + core + core // 4


def test_jn_decay_check_reads_the_core_in_chunks():
    # a 2^21-cell core: one chunk-sized deviation scratch and mask, not a
    # core-sized |core - avg| array (16 MiB) and mask (2 MiB)
    xs = cell_centers(1.0, 1 << 21)
    prof = bmo_norm(_where_log_samples(xs, 1.0), 1.0, default_ball_family(1.0, 1),
                    CellGrid(1.0, 1 << 21, 1))
    assert prof.core_values.size == 1 << 21
    etas = [1.0 + 0.5 * k for k in range(7)]
    fit, _, peak = traced_bytes(lambda: jn_decay_check(prof, etas))
    assert peak <= 1 << 20
    dev = np.abs(prof.core_values - np.mean(prof.core_values))
    assert fit.measures == tuple(float(np.count_nonzero(dev > e)) * prof.cell_volume
                                 for e in etas)


def test_support_allocates_no_slab():
    # the support check and the B_M samples read index runs of the grid: no
    # radius table is built, and in 1-D the samples are a view of the values
    prof = _log_profile(n=1 << 20)
    fresh = dataclasses.replace(prof)
    (vanishes, core), _, peak = traced_bytes(
        lambda: (fresh.vanishes_outside, fresh.core_values))
    assert vanishes and np.shares_memory(core, fresh.values)
    assert peak <= 1 << 16
