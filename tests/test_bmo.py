"""Mean oscillation norms, John-Nirenberg decay, the BMO Gronwall bound."""

import inspect
import math
import re
import warnings

import numpy as np
import pytest

from rough_transport import bmo
from rough_transport.bmo import (bmo_gronwall_family, bmo_norm, choose_tau0,
                                 default_ball_family, jn_decay_check,
                                 lemma52_checks)
from rough_transport.errors import (DegenerateFitError, EmptyBallError,
                                    LambdaTooSmallError, NegativeInputError,
                                    NonFiniteProfileError)
from rough_transport.fields import growth_split
from rough_transport.numerics import CellGrid, cell_centers
from rough_transport.renormalization import make_beta_log, make_phi_R
from rough_transport.representation import DensityRepresentation, make_quadrature
from rough_transport.scenarios import _log_core_samples
from rough_transport.weakform import gamma_trace

import reference
from conftest import damping, field, traced_bytes


def _norm(values, M, ball_family, grid):
    """``bmo_norm`` of an array of one sample per cell, read through a block sampler."""
    return bmo_norm(reference.array_sampler(values, grid), M, ball_family, grid)


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
    return _norm(_log_samples(xs[:, None], M), M, default_ball_family(M, 1), grid)


def test_norm_of_log_on_centred_balls_is_two_over_e():
    # on B_r centred at 0, log(1/|x|) has average 1 + log(1/r) and mean
    # oscillation 2/e for every r <= 1; on 2^20 cells of [-2, 2] the grid
    # errors stay below 2.7e-5 and 2.1e-5
    grid, xs = _grid_1d(n=1 << 20)
    radii = [2.0 ** -k for k in range(5)]
    prof = _norm(_log_samples(xs[:, None]), 1.0, tuple(((0.0,), r) for r in radii), grid)
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
    p1 = _norm(base, 1.0, fam, grid)
    p2 = _norm(np.where(inside, base + 3.0, 0.0), 1.0, fam, grid)
    assert p2.norm_star == pytest.approx(p1.norm_star, rel=1e-12)


def test_norm_zero_for_constant_field():
    grid, xs = _grid_1d()
    fam = tuple((c, r) for c, r in default_ball_family(1.0, 1)
                if abs(c[0]) + r <= 1.0)
    prof = _norm(np.where(np.abs(xs) < 1.0, 2.5, 0.0), 1.0, fam, grid)
    assert prof.norm_star == 0.0


def test_norm_indicator_half_oscillation():
    # symmetric ball at 0: average 1/2 and |f - 1/2| identically 1/2
    grid, xs = _grid_1d()
    vals = np.where((xs > 0.0) & (np.abs(xs) < 1.0), 1.0, 0.0)
    prof = _norm(vals, 1.0, (((0.0,), 0.5),), grid)
    assert prof.averages[0] == pytest.approx(0.5, abs=1e-12)
    assert prof.oscillations[0] == pytest.approx(0.5, abs=1e-12)


def test_norm_requires_compact_support():
    grid, xs = _grid_1d()
    with pytest.raises(ValueError):
        _norm(np.ones_like(xs), 1.0, (((0.0,), 1.0),), grid)


def test_norm_needs_one_sample_per_cell():
    grid, xs = _grid_1d(n=64)
    with pytest.raises(ValueError, match="one sample per cell"):
        _norm(np.zeros(63), 1.0, (((0.0,), 1.0),), grid)


def test_bmo_norm_keeps_the_names_the_tracer_binds():
    # perfbench/tracer.py binds bmo_norm's ball_family by name and reads the
    # cell count as profile.points.shape[0]; a rename would pass every other
    # test and break only a traced benchmark pass
    assert "ball_family" in inspect.signature(bmo_norm).parameters
    prof = _log_profile(n=1 << 12)
    assert prof.points.shape[0] == 1 << 12


def _raises_empty_ball(values, points, center, radius):
    # the message names the ball; no mean of an empty selection runs first
    # ("Mean of empty slice" would fail under -W error)
    message = re.escape(f"ball at {center} radius {radius:g} holds no cell")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmptyBallError, match=message):
            _norm(values, 1.0, ((center, radius),), points)


def test_empty_ball_raises():
    # no cell centre lies within the radius
    grid, xs = _grid_1d(n=64)
    vals = np.where(np.abs(xs) < 1.0, 1.0, 0.0)
    _raises_empty_ball(vals, grid, (0.0,), 1e-6)


@pytest.mark.parametrize("points,center,radius", [
    # the centres +-0.5 lie at exactly the radius, which the strict test rejects
    (CellGrid(2.0, 4, 1), (0.0,), 0.5),
])
def test_ball_with_nonempty_slab_and_no_cell_raises(points, center, radius):
    _raises_empty_ball(np.zeros(points.shape[0]), points, center, radius)


def _where_log_samples(xs, M):
    # the full-grid formula the core-only build replaces: three np.where passes
    r = np.abs(xs)
    with np.errstate(divide="ignore"):
        return np.where(r < M, np.log(np.where(r > 0.0, 1.0 / r, 1.0)), 0.0)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _sampled(sample, n, step=None):
    """Every sample of a block sampler, asked for in pieces of ``step`` cells."""
    out = np.full(n, np.nan)
    step = step or max(n, 1)
    for start in range(0, n, step):
        sample(start, min(start + step, n), out[start:start + step])
    return out


@pytest.mark.parametrize("n", [1, 3, 1025, 4097, 6, 1026, 4094, 1 << 12])
@pytest.mark.parametrize("M", [1.0, 0.3])
def test_log_core_samples_match_full_grid_formula(n, M):
    # odd n puts a centre at x = 0; n = 2 mod 4 puts centres at (or within an
    # ulp of) |x| = M, the edge of the core run. Each sample has the same
    # bits whatever piece of the grid it is asked for in, and as the array
    # the sampler replaced
    xs = cell_centers(2.0 * M, n)
    grid = CellGrid(2.0 * M, n, 1)
    for step in (None, 7, 1000):
        assert _same_bits(_sampled(_log_core_samples(grid, M), n, step),
                          _where_log_samples(xs, M)), step
    assert _same_bits(_sampled(_log_core_samples(grid, M), n),
                      reference._log_core_samples(grid, M))
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
        got = _sampled(_log_core_samples(CellGrid(2.0 * M, n, 1), M), n)
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
        _norm(vals, 1.0, default_ball_family(1.0, 1), grid)


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


def _run_mask(run, size):
    mask = np.zeros(size, dtype=bool)
    mask[slice(*run)] = True
    return mask


# 2.0125 / 161 = 0.025 puts the centres at -2 + 0.025 i up to rounding, so
# many lie on the ball boundaries, or an ulp off them
_RUN_GRIDS = [CellGrid(2.0, 1 << 12, 1), CellGrid(2.0, 1 << 12 | 1, 1),
              CellGrid(2.0125, 161, 1)]


@pytest.mark.parametrize("grid", _RUN_GRIDS,
                         ids=lambda g: f"{g.radius}-{g.cells_per_axis}-{g.dimension}")
@pytest.mark.parametrize("half_cell", [False, True])
def test_ball_runs_match_full_grid_masks(grid, half_cell):
    # every ball of the family, the closed and open B_1 the support check
    # reads, and a ball no wider than an ulp, against the full-grid mask of
    # np.linalg.norm on the centres
    family = default_ball_family(1.0, 1)
    if half_cell:
        family = _half_cell(family, grid)
    family += (((0.0,), 1.0), ((0.0,), float(np.nextafter(1.0, 2.0))),
               ((0.0,), float(np.spacing(0.5))))
    points = grid.centers()
    assert grid.shape == points.shape
    close = empty = 0
    for (center, radius), (a, b) in zip(family, grid.ball_runs(*zip(*family))):
        dist = np.linalg.norm(points - np.asarray(center), axis=-1)
        # one run per ball, start == stop when the ball holds no cell
        assert 0 <= a <= b <= grid.shape[0]
        assert np.array_equal(_run_mask((a, b), points.shape[0]), dist < radius)
        empty += a == b
        close += int(np.count_nonzero(np.abs(dist - radius) <= 4.0 * np.spacing(radius)))
    if grid.radius == 2.0125 and not half_cell:
        assert close > 0
    if grid.cells_per_axis % 2 == 0:
        assert empty == 1


@pytest.mark.parametrize("d", [2, 3])
def test_bmo_norm_and_ball_runs_reject_a_grid_that_is_not_1d(d):
    # each ball is one index run only on a 1-D grid: a grid of any other
    # dimension raises before a sample is read
    grid = CellGrid(2.0, 8, d)
    family = default_ball_family(1.0, d)
    with pytest.raises(ValueError, match="1-D grid"):
        grid.ball_runs(*zip(*family))
    calls = []
    with pytest.raises(ValueError, match="1-D grid"):
        bmo_norm(lambda start, stop, out: calls.append(start), 1.0, family, grid)
    assert calls == []


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


_SLAB_CASES = [(half_cell, leaf) for leaf in (None, 64, 136) for half_cell in (False, True)]


@pytest.mark.parametrize("half_cell,leaf", _SLAB_CASES,
                         ids=[f"1-{h}" + (f"-leaf{leaf}" if leaf else "")
                              for h, leaf in _SLAB_CASES])
def test_slab_statistics_match_full_grid_masks(half_cell, leaf, monkeypatch):
    # the ball runs give the per-ball masks bit for bit (the ids keep the
    # grid's dimension, 1). With half_cell every ball centre moves by half a
    # cell, onto cell centres (where the family's centres lie on cell
    # faces). A small leaf splits every wide ball into many leaves
    grid = CellGrid(2.0, 1 << 16, 1)
    if leaf:
        monkeypatch.setattr(bmo, "_CHUNK", leaf)
    points = grid.centers()
    values = _log_samples(points)
    family = default_ball_family(1.0, 1)
    if half_cell:
        family = _half_cell(family, grid)
    prof = _norm(values, 1.0, family, grid)
    if leaf:
        widest = max(b - a for a, b in grid.ball_runs(*zip(*family)))
        assert widest > 16 * leaf
    averages, oscillations = _brute_force_statistics(values, family, points)
    assert np.array_equal(prof.averages, averages)
    assert np.array_equal(prof.oscillations, oscillations)
    # the support check and the B_M mean read the runs of |x| <= M and
    # |x| < M alone, against full-grid masks
    radii = np.linalg.norm(points, axis=-1)
    assert np.array_equal(_run_mask(prof.core_run, values.size), radii < 1.0)
    assert _same_bits(prof.core_mean, np.mean(values[radii < 1.0]))
    # the sample outside B_1 nearest to it
    leaky = values.copy()
    leaky[np.argmin(np.where(radii > 1.0, radii, np.inf))] = 1.0
    with pytest.raises(ValueError, match="vanish outside B_M"):
        _norm(leaky, 1.0, family, grid)


@pytest.mark.parametrize("grid", [CellGrid(2.0, 1026, 1)], ids=["1d"])
def test_support_holds_the_sphere_and_the_core_does_not(grid):
    # a nonzero sample at |x| == M exactly lies in the support, so the profile
    # vanishes outside B_M, but not in the open ball the core reads
    points = grid.centers()
    radii = np.linalg.norm(points, axis=-1)
    assert np.any(radii == 1.0)
    values = np.where(radii <= 1.0, 1.0, 0.0)
    values[radii < 1.0] = 0.5
    prof = _norm(values, 1.0, (((0.0,), 0.5),), grid)
    assert np.array_equal(_run_mask(prof.core_run, values.size), radii < 1.0)
    assert prof.core_mean == 0.5
    # above level 0 the tail reads every sample of the closed ball, the
    # sphere's included
    assert lemma52_checks(prof, [0.0]).tails == (
        float(np.sum(values[values > 0.0])) * prof.cell_volume,)


def test_support_checked_once_per_profile(monkeypatch):
    # bmo_norm's first sweep checks that the profile vanishes outside B_M
    # from index runs of the grid: no norm runs over the full grid, and a
    # profile that leaks is refused
    grid, xs = _grid_1d(n=1 << 12)
    values = _log_samples(xs[:, None])
    passes = []
    norm = np.linalg.norm

    def counted(x, *args, **kwargs):
        if np.shape(x)[0] == grid.shape[0]:
            passes.append(np.shape(x))
        return norm(x, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "norm", counted)
    _norm(values, 1.0, default_ball_family(1.0, 1), grid)
    assert passes == []
    monkeypatch.undo()
    with pytest.raises(ValueError, match="vanish outside B_M"):
        _norm(values + 1.0, 1.0, default_ball_family(1.0, 1), grid)


def test_core_values_built_once():
    # the B_M samples are summed once, in bmo_norm's first sweep: the mean
    # is np.mean of them bit for bit, and the decay checks read it from the
    # profile instead of sampling B_M again
    grid, xs = _grid_1d(n=1 << 12)
    values = _log_samples(xs[:, None])
    prof = _norm(values, 1.0, default_ball_family(1.0, 1), grid)
    assert _same_bits(prof.core_mean, np.mean(values[np.abs(xs) < prof.M]))


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
    prof = _norm(vals, 1.0, default_ball_family(1.0, 1), grid)
    fit = jn_decay_check(prof, [5.0, 6.0, 7.0])
    assert all(m == 0.0 for m in fit.measures)


def test_jn_degenerate_fit():
    grid, xs = _grid_1d()
    vals = np.where((xs > 0.0) & (np.abs(xs) < 1.0), 1.0, 0.0)
    prof = _norm(vals, 1.0, (((0.0,), 1.0),), grid)
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
    prof2 = _norm(vals, 1.0, default_ball_family(1.0, 1), grid)
    assert prof2.norm_star == pytest.approx(2.0 * prof1.norm_star, rel=1e-12)
    fit1 = jn_decay_check(prof1, [1.0 + 0.5 * k for k in range(7)])
    fit2 = jn_decay_check(prof2, [2.0 + 1.0 * k for k in range(7)])
    assert abs(fit2.c_fit - fit1.c_fit) <= 0.1 * fit1.c_fit


# --- superlevel tail integrals -------------------------------------------------------

def test_tails_zero_above_max():
    prof = _log_profile()
    fmax = float(np.max(prof.block_max))
    lam = (fmax + 1.0) / prof.norm_star
    rep = lemma52_checks(prof, [lam])
    assert rep.tails[0] == 0.0


def test_average_bound_log_exemplar():
    # analytic average of log(1/|x|) over B_1 is 1; bound is 2^(d+1) norm_star
    prof = _log_profile()
    assert prof.core_mean == pytest.approx(1.0, rel=2e-2)
    assert prof.core_mean <= 2.0 ** (prof.d + 1) * prof.norm_star


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
    values = _where_log_samples(xs, 1.0)
    prof = _norm(values, 1.0, default_ball_family(1.0, 1), grid)
    top = float(np.max(values)) / prof.norm_star
    lambdas = [0.0, 0.5, 3.0, 9.0, top, 2.0 * top]
    rep = lemma52_checks(prof, lambdas)
    for lam, tail in zip(lambdas, rep.tails):
        excess = values - lam * prof.norm_star
        assert tail == float(np.sum(excess[excess > 0.0])) * prof.cell_volume
    assert rep.tails[-2] == rep.tails[-1] == 0.0
    assert rep.tails[0] > 0.0


def test_tails_reject_negative_lambda():
    # below level 0 the zeros outside B_M would count, and the support is
    # all that is read
    with pytest.raises(ValueError, match="nonnegative lambdas"):
        lemma52_checks(_log_profile(n=1 << 12), [9.0, -1.0])


def test_tails_reject_negative_input():
    # bmo_norm takes a profile of either sign; the tails read its block minima
    grid, xs = _grid_1d()
    vals = np.where(np.abs(xs) < 1.0, -1.0, 0.0)
    prof = _norm(vals, 1.0, default_ball_family(1.0, 1), grid)
    with pytest.raises(NegativeInputError):
        lemma52_checks(prof, [9.0])


# --- BMO Gronwall bound ---------------------------------------------------------------

def _zero_density(quad):
    return DensityRepresentation(quad, np.zeros((quad.times.size, quad.points.shape[0])))


def test_bmo_gronwall_zero_solution():
    spec = field("log_drift")
    prof = _log_profile()
    fit = jn_decay_check(prof, [1.0 + 0.5 * k for k in range(7)])
    quad = make_quadrature(1, 2.0, 48, 1.0, 16)
    growth = growth_split(spec, rng=np.random.default_rng(0))
    phi_R = make_phi_R(2.0, 1)
    trace = gamma_trace(_zero_density(quad), make_beta_log(1e-2), phi_R, spec,
                        damping("zero"))
    data, = bmo_gronwall_family([9.0], prof, fit, growth, damping("zero"), phi_R,
                                quad.times)
    assert data.holds(trace.values, quad.times, 1e-2)
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
    quad = make_quadrature(1, 2.0, 16, 1.0, 8)
    growth = growth_split(spec, rng=np.random.default_rng(0))
    # one lambda at 2^(d+2) = 8 fails the whole family, wherever it stands
    with pytest.raises(LambdaTooSmallError):
        bmo_gronwall_family([9.0, 8.0], prof, fit, growth, damping("zero"),
                            make_phi_R(2.0, 1), quad.times)


def test_bmo_gronwall_family_chooses_tau0_once(monkeypatch):
    # tau0 does not depend on lambda: one call over three lambdas bisects
    # once, and each member matches the family of its lambda alone
    spec = field("log_drift")
    prof = _log_profile()
    fit = jn_decay_check(prof, [1.0 + 0.5 * k for k in range(7)])
    quad = make_quadrature(1, 2.0, 48, 1.0, 16)
    growth = growth_split(spec, rng=np.random.default_rng(0))
    phi_R = make_phi_R(2.0, 1)
    args = (prof, fit, growth, damping("zero"), phi_R, quad.times)
    singles = [bmo_gronwall_family([lam], *args)[0] for lam in (9.0, 12.0, 16.0)]

    calls = []
    real = bmo.choose_tau0

    def counted(*a):
        calls.append(a)
        return real(*a)
    monkeypatch.setattr(bmo, "choose_tau0", counted)
    family = bmo_gronwall_family([9.0, 12.0, 16.0], *args)
    assert calls == [(prof.norm_star, fit.c_fit, float(quad.times[-1]))]
    assert family == singles
    assert len({data.tau0 for data in family}) == 1


def test_tau0_policy_window():
    # constant norm sigma: tau0 sigma must land in [0.4, 0.5] c_fit
    sigma = 0.7
    c_fit = 0.7
    tau0 = choose_tau0(sigma, c_fit, 1.0)
    assert 0.4 * c_fit - 1e-8 <= tau0 * sigma <= 0.5 * c_fit + 1e-8
    # a small sigma integrates to at most half of c_fit: the whole horizon
    assert choose_tau0(0.2, c_fit, 1.0) == 1.0


# --- the streamed pipeline against the array one ----------------------------------------

def _outcome(call, *args):
    """call(*args), or the type and message of what it raised."""
    try:
        return call(*args)
    except Exception as exc:      # the references must raise the same errors
        return type(exc), str(exc)


def _nonempty_family(grid):
    family = default_ball_family(1.0, 1)
    return tuple(ball for ball, (a, b) in zip(family, grid.ball_runs(*zip(*family))) if a < b)


# _RUN_GRIDS, one grid smaller than one block, and one of three blocks whose
# last is partial
_STREAM_GRIDS = _RUN_GRIDS + [CellGrid(2.0, 1000, 1), CellGrid(2.0, (1 << 17) + 12345, 1)]


@pytest.mark.parametrize("grid", _STREAM_GRIDS,
                         ids=lambda g: f"{g.radius}-{g.cells_per_axis}-{g.dimension}")
@pytest.mark.parametrize("block", [None, 136])
def test_streamed_statistics_match_the_array_pipeline(grid, block, monkeypatch):
    # every statistic of the block sweeps against the array pipeline they
    # replaced, bit for bit. With 136-cell blocks every grid spans two
    # blocks or more, and many leaves start in the block before their last
    if block:
        monkeypatch.setattr(bmo, "_CHUNK", block)
    values = _log_samples(grid.centers())
    family = _nonempty_family(grid)
    prof = _norm(values, 1.0, family, grid)
    ref = reference.bmo_norm(values, 1.0, family, grid)
    assert _same_bits(prof.averages, ref.averages)
    assert _same_bits(prof.oscillations, ref.oscillations)
    assert _same_bits(prof.norm_star, ref.norm_star)
    assert _same_bits(prof.core_mean, np.mean(ref.core_values))
    assert grid.shape[0] > prof.block or not block
    etas = [0.25 * k for k in range(1, 17)]
    assert _outcome(jn_decay_check, prof, etas) == _outcome(reference.jn_decay_check, ref, etas)
    top = float(np.max(values)) / prof.norm_star
    lambdas = [0.0, 0.5, 3.0, 9.0, 12.0, 16.0, top]
    assert lemma52_checks(prof, lambdas) == reference.lemma52_checks(ref, lambdas)


def test_default_profile_matches_the_array_pipeline():
    # the scenario's 2^22-cell log profile, sampled block by block, against
    # the array it replaced
    grid, family = CellGrid(2.0, 1 << 22, 1), default_ball_family(1.0, 1)
    prof = bmo_norm(_log_core_samples(grid, 1.0), 1.0, family, grid)
    ref = reference.bmo_norm(reference._log_core_samples(grid, 1.0), 1.0, family, grid)
    assert _same_bits(prof.averages, ref.averages)
    assert _same_bits(prof.oscillations, ref.oscillations)
    assert _same_bits(prof.core_mean, np.mean(ref.core_values))
    etas = [1.0 + 0.5 * k for k in range(7)]
    assert jn_decay_check(prof, etas) == reference.jn_decay_check(ref, etas)
    lambdas = [9.0, 12.0, 16.0]
    assert lemma52_checks(prof, lambdas) == reference.lemma52_checks(ref, lambdas)


@pytest.mark.parametrize("case", ["nan", "inf", "negative", "outside", "empty_ball"])
def test_streamed_errors_match_the_array_pipeline(case, monkeypatch):
    # the same error with the same message: a bad sample reports the first
    # bad cell in grid order, in an earlier block than a second one and
    # ahead of a nonzero sample outside B_M
    monkeypatch.setattr(bmo, "_CHUNK", 1000)
    grid, xs = _grid_1d(n=1 << 12)
    values = _log_samples(xs[:, None])
    family = default_ball_family(1.0, 1)
    if case in ("nan", "inf"):
        values[[10, 1500, 3000]] = [1.0, getattr(np, case), np.nan]
    elif case == "negative":
        values = -values
    elif case == "outside":
        values[10] = 1.0
    else:
        family += (((0.0,), 1e-6),)

    def run(norm, jn, tails):
        prof = norm(values, 1.0, family, grid)
        return jn(prof, [1.0, 1.5, 2.0]), tails(prof, [9.0])

    got = _outcome(run, _norm, jn_decay_check, lemma52_checks)
    assert isinstance(got[0], type) and issubclass(got[0], Exception)
    assert got == _outcome(run, reference.bmo_norm, reference.jn_decay_check,
                           reference.lemma52_checks)


# --- scratch memory and sampling -----------------------------------------------------

def _default_profile(sample=None):
    grid = CellGrid(2.0, 1 << 22, 1)
    return bmo_norm(sample or _log_core_samples(grid, 1.0), 1.0,
                    default_ball_family(1.0, 1), grid)


def test_streamed_checks_hold_a_few_blocks():
    # over the scenario's 2^22-cell profile, the norm, the John-Nirenberg
    # counts and the tails together allocate at most 4 MB at peak: two
    # sweep windows of two 2^16-cell blocks, one leaf scratch, and per-block
    # summaries. The array pipeline held 32 MiB of samples
    def checks():
        prof = _default_profile()
        return (prof, jn_decay_check(prof, [1.0 + 0.5 * k for k in range(7)]),
                lemma52_checks(prof, [9.0, 12.0, 16.0]))
    (prof, fit, rep), _, peak = traced_bytes(checks)
    assert any(m > 0.0 for m in fit.measures) and rep.tails[0] > 0.0
    assert peak <= 4 << 20


def test_sweeps_sample_each_block_once_and_skip_unreachable_blocks():
    # bmo_norm's two sweeps sample every block once each, in grid order; the
    # superlevel passes sample only the blocks that can reach a level
    grid = CellGrid(2.0, 1 << 22, 1)
    sample, calls = _log_core_samples(grid, 1.0), []

    def counted(start, stop, out):
        calls.append(start)
        sample(start, stop, out)
    prof = _default_profile(counted)
    blocks = list(range(0, grid.shape[0], prof.block))
    assert calls == blocks + blocks

    calls.clear()
    etas = [1.0 + 0.5 * k for k in range(7)]
    jn_decay_check(prof, etas)
    reach = np.maximum(np.abs(prof.block_min - prof.core_mean),
                       np.abs(prof.block_max - prof.core_mean))
    assert calls == [b for b, r in zip(blocks, reach) if r > min(etas)]
    lo, hi = prof.core_run
    core = {b for b in blocks if lo < b + prof.block and b < hi}
    assert set(calls) < core and len(calls) <= 0.2 * len(core)

    calls.clear()
    lambdas = [9.0, 12.0, 16.0]
    lemma52_checks(prof, lambdas)
    # one count pass for every level, then a gather pass per level, each in
    # grid order over the centre blocks that reach its level only
    def reaching(lam):
        return [b for b, top in zip(blocks, prof.block_max) if top > lam * prof.norm_star]
    reached = reaching(min(lambdas))
    assert 0 < len(reached) <= 2
    assert calls == reached + [b for lam in lambdas for b in reaching(lam)]
    # a count pass per level would take len(reached) * 2 * len(lambdas)
    assert len(calls) == len(reached) * (1 + len(lambdas))


def test_support_allocates_no_slab():
    # the support check and the B_M mean read index runs of the grid: no
    # radius table or per-cell mask is built, and a sweep holds its window
    # of two blocks and one leaf scratch
    grid = CellGrid(2.0, 1 << 20, 1)
    sample = _log_core_samples(grid, 1.0)
    prof, _, peak = traced_bytes(lambda: bmo_norm(sample, 1.0, (((0.0,), 1.0),), grid))
    assert prof.core_mean > 0.0
    assert peak <= 3 * 8 * bmo._CHUNK + (1 << 17)
