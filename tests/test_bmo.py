"""Mean oscillation norms, John-Nirenberg decay, the BMO Gronwall bound."""

import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from rough_transport.bmo import (BMODivergenceSplit, bmo_gronwall_constants,
                                 bmo_norm, choose_tau0,
                                 default_ball_family, jn_decay_check,
                                 lemma52_checks)
from rough_transport.errors import (BadSplitError, DegenerateFitError,
                                    EmptyBallError, LambdaTooSmallError,
                                    NegativeInputError, NonFiniteProfileError)
from rough_transport.fields import growth_split
from rough_transport.numerics import cell_centers, profile
from rough_transport.renormalization import make_beta_log, make_phi_R
from rough_transport.representation import DensityRepresentation, make_quadrature
from rough_transport.scenarios import _log_core_samples
from rough_transport.weakform import gamma_trace, gronwall_constants

from conftest import damping, field


def _grid_1d(M=1.0, n=1 << 18):
    h = 4.0 * M / n
    xs = -2.0 * M + h * (np.arange(n) + 0.5)
    return xs, h


def _log_samples(points, M=1.0):
    r = np.linalg.norm(points, axis=-1)
    with np.errstate(divide="ignore"):
        return np.where(r < M, np.log(np.where(r > 0.0, 1.0 / r, 1.0)), 0.0)


def _log_profile(M=1.0, n=1 << 18):
    xs, h = _grid_1d(M, n)
    return bmo_norm(_log_samples(xs[:, None], M), M, default_ball_family(M, 1),
                    xs[:, None], h)


def test_norm_constant_on_support_is_handled():
    # oscillation kills constants: f and f + const have identical norm_star
    xs, h = _grid_1d()
    inside = np.abs(xs) < 1.0
    base = np.where(inside, np.abs(xs), 0.0)
    fam = default_ball_family(1.0, 1)
    # restrict the family to balls inside B_1 so the support step is not seen
    fam = tuple((c, r) for c, r in fam if abs(c[0]) + r <= 1.0)
    p1 = bmo_norm(base, 1.0, fam, xs[:, None], h)
    p2 = bmo_norm(np.where(inside, base + 3.0, 0.0), 1.0, fam, xs[:, None], h)
    assert p2.norm_star == pytest.approx(p1.norm_star, rel=1e-12)


def test_norm_zero_for_constant_field():
    xs, h = _grid_1d()
    fam = tuple((c, r) for c, r in default_ball_family(1.0, 1)
                if abs(c[0]) + r <= 1.0)
    prof = bmo_norm(np.where(np.abs(xs) < 1.0, 2.5, 0.0), 1.0, fam, xs[:, None], h)
    assert prof.norm_star == 0.0


def test_norm_indicator_half_oscillation():
    # symmetric ball at 0: average 1/2 and |f - 1/2| identically 1/2
    xs, h = _grid_1d()
    vals = np.where((xs > 0.0) & (np.abs(xs) < 1.0), 1.0, 0.0)
    prof = bmo_norm(vals, 1.0, (((0.0,), 0.5),), xs[:, None], h)
    assert prof.averages[0] == pytest.approx(0.5, abs=1e-12)
    assert prof.oscillations[0] == pytest.approx(0.5, abs=1e-12)


def test_norm_requires_compact_support():
    xs, h = _grid_1d()
    with pytest.raises(ValueError):
        bmo_norm(np.ones_like(xs), 1.0, (((0.0,), 1.0),), xs[:, None], h)




def _raises_empty_ball(values, points, center, radius):
    # the message names the ball; no mean of an empty selection runs first
    # ("Mean of empty slice" would fail under -W error)
    message = re.escape(f"ball at {center} radius {radius:g} holds no cell")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmptyBallError, match=message):
            bmo_norm(values, 1.0, ((center, radius),), points, 1.0)


def test_empty_ball_raises():
    # the slab itself is empty: no x_0 lies within the radius
    xs, h = _grid_1d(n=64)
    vals = np.where(np.abs(xs) < 1.0, 1.0, 0.0)
    _raises_empty_ball(vals, xs[:, None], (0.0,), 1e-6)


@pytest.mark.parametrize("points,center,radius", [
    # the slab holds x_0 = 0.5 at exactly the radius, which the strict test rejects
    (np.array([[-1.0], [0.5], [1.5]]), (0.0,), 0.5),
    # the slab holds x_0 = 0 twice, but both cells lie far off in x_1
    (np.array([[0.0, 1.5], [0.0, -1.5], [1.5, 0.0]]), (0.0, 0.0), 0.25),
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
    # ulp of) |x| = M, the edge of the core slice
    xs = cell_centers(2.0 * M, n)
    assert _same_bits(_log_core_samples(xs, M), _where_log_samples(xs, M))
    if n % 2:
        assert np.any(xs == 0.0)
    if n % 4 == 2:
        assert np.min(np.abs(np.abs(xs) - M)) <= 2.0 * np.spacing(M)


@pytest.mark.parametrize("M", [1.0, 0.3])
def test_log_core_samples_edges(M):
    # exact zeros and exact +-M, with their neighbours one ulp inside and out
    edge = [np.nextafter(M, 0.0), M, np.nextafter(M, 2.0)]
    xs = np.array(sorted([-x for x in edge] + [-0.5 * M, -0.0, 0.0, 0.5 * M] + edge))
    got = _log_core_samples(xs, M)
    assert _same_bits(got, _where_log_samples(xs, M))
    assert np.count_nonzero(got) == 4      # +-(M - ulp) and +-M/2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_norm_rejects_nonfinite_sample(bad):
    # one bad sample inside B_M would turn norm_star and every fit into NaN
    xs, h = _grid_1d(n=1 << 12)
    vals = _log_samples(xs[:, None])
    vals[1 << 10] = bad
    with pytest.raises(NonFiniteProfileError):
        bmo_norm(vals, 1.0, default_ball_family(1.0, 1), xs[:, None], h)


def _brute_force_statistics(values, ball_family, points):
    # reference: one full-grid mask per ball
    averages, oscillations = [], []
    for center, radius in ball_family:
        sel = values[np.linalg.norm(points - np.asarray(center), axis=-1) < radius]
        avg = float(np.mean(sel))
        averages.append(avg)
        oscillations.append(float(np.mean(np.abs(sel - avg))))
    return np.array(averages), np.array(oscillations)


@pytest.mark.parametrize("d,shuffled", [(1, False), (1, True), (2, False), (2, True)])
def test_slab_statistics_match_full_grid_masks(d, shuffled):
    # slabs of the x_0-sorted points give the per-ball masks bit for bit; the
    # 2-D grid puts cells exactly on ball boundaries and repeats every x_0
    if d == 1:
        xs, h = _grid_1d(n=1 << 16)
        points, cell = xs[:, None], h
    else:
        axis = np.linspace(-2.0, 2.0, 161)
        mesh = np.meshgrid(axis, axis, indexing="ij")
        points, cell = np.stack([m.ravel() for m in mesh], axis=-1), 0.025 ** 2
    if shuffled:
        points = points[np.random.default_rng(7).permutation(points.shape[0])]
    values = _log_samples(points)
    family = default_ball_family(1.0, d)
    prof = bmo_norm(values, 1.0, family, points, cell)
    averages, oscillations = _brute_force_statistics(values, family, points)
    assert np.array_equal(prof.averages, averages)
    assert np.array_equal(prof.oscillations, oscillations)
    # the support check reads the slab |x_0| <= M alone, against full-grid masks
    radii = np.linalg.norm(points, axis=-1)
    assert prof.vanishes_outside
    assert np.array_equal(prof.core_values, values[radii < 1.0])
    # the sample outside B_1 nearest the slab: inside it in 2-D, just past it in 1-D
    leaky = values.copy()
    leaky[np.argmin(np.where(radii > 1.0, np.abs(points[:, 0]), np.inf))] = 1.0
    assert not dataclasses.replace(prof, values=leaky).vanishes_outside


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
    inside = np.linalg.norm(prof.points, axis=-1) < prof.M
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
    xs, h = _grid_1d()
    vals = np.where(np.abs(xs) < 1.0, np.abs(xs), 0.0)
    prof = bmo_norm(vals, 1.0, default_ball_family(1.0, 1), xs[:, None], h)
    fit = jn_decay_check(prof, [5.0, 6.0, 7.0])
    assert fit.trivial


def test_jn_degenerate_fit():
    xs, h = _grid_1d()
    vals = np.where((xs > 0.0) & (np.abs(xs) < 1.0), 1.0, 0.0)
    prof = bmo_norm(vals, 1.0, (((0.0,), 1.0),), xs[:, None], h)
    # |f - 1/2| is identically 1/2 on B_1: only levels below 1/2 are nonempty
    with pytest.raises(DegenerateFitError):
        jn_decay_check(prof, [0.2, 0.4, 0.6, 0.8])


def test_jn_scaling_invariance():
    # doubling f doubles norm_star and halves the decay per unit eta
    prof1 = _log_profile()
    xs, h = _grid_1d()
    r = np.abs(xs)
    with np.errstate(divide="ignore"):
        vals = np.where(r < 1.0, 2.0 * np.log(np.where(r > 0.0, 1.0 / r, 1.0)), 0.0)
    prof2 = bmo_norm(vals, 1.0, default_ball_family(1.0, 1), xs[:, None], h)
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
    xs, h = _grid_1d(n=n)
    prof = bmo_norm(_where_log_samples(xs, 1.0), 1.0, default_ball_family(1.0, 1),
                    xs[:, None], h)
    top = float(np.max(prof.values)) / prof.norm_star
    lambdas = [0.0, 0.5, 3.0, 9.0, top, 2.0 * top]
    rep = lemma52_checks(prof, lambdas)
    for lam, tail in zip(lambdas, rep.tails):
        excess = prof.values - lam * prof.norm_star
        assert tail == float(np.sum(excess[excess > 0.0])) * prof.cell_volume
    assert rep.tails[-2] == rep.tails[-1] == 0.0
    assert rep.tails[0] > 0.0


def test_tails_reject_negative_input():
    xs, h = _grid_1d()
    vals = np.where(np.abs(xs) < 1.0, -1.0, 0.0)
    prof = bmo_norm(np.abs(vals), 1.0, default_ball_family(1.0, 1), xs[:, None], h)
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


@pytest.mark.parametrize("M", [1.0, 0.5])
def test_bmo_norm_scratch_is_one_slab_pair(M):
    # every ball shares one float and one bool slab-sized scratch: beyond the
    # inputs and what the profile keeps (its B_M samples), the peak stays
    # within 9 bytes per cell of the widest slab plus a quarter of a float
    # slab of slack. With M = 0.5 the kept samples are half that slab, so a
    # second float array per ball would exceed the bound too.
    n = 1 << 20
    xs, h = _grid_1d(n=n)
    values, points = _where_log_samples(xs, M), xs[:, None]
    family = default_ball_family(1.0, 1)
    widest = max(int(np.count_nonzero(np.abs(xs - c[0]) <= r)) for c, r in family)
    prof, peak, held = _traced(lambda: bmo_norm(values, M, family, points, h))
    assert held >= 8 * prof.core_values.size
    assert peak - held <= (8 + 1) * widest + 2 * widest


def test_lemma52_scratch_is_one_mask():
    # one full-size mask serves every lambda; the gathered positive excess is
    # the only float array, the level is subtracted from it in place, and it
    # is freed before the next, nearly as large, level gathers its own
    prof = _log_profile(n=1 << 20)
    n = prof.values.size
    lambdas = [0.0, 0.1, 1.0, 4.0, 1e6]
    largest = int(np.count_nonzero(prof.values > 0.0))
    rep, peak, held = _traced(lambda: lemma52_checks(prof, lambdas))
    assert rep.tails[0] > 0.0 and rep.tails[-1] == 0.0
    assert peak - held <= n + 8 * largest + 2 * n
