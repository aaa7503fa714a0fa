"""Field library: catalog field values, mollification, growth splits."""

import dataclasses

import numpy as np
import pytest

from rough_transport.errors import BadKernelError, SplitViolationError
from rough_transport.fields import (VelocityFieldSpec, check_divergence_consistency,
                                    growth_split, make_mollifier, mollify)
from rough_transport.flow import forward_summary, make_seed_grid
from rough_transport.numerics import gauss_legendre
from rough_transport.renormalization import make_beta_arctan
from rough_transport.representation import DensityRepresentation, make_quadrature
from rough_transport.scenarios import DAMPING_CATALOG
from rough_transport.testfunctions import compact_space_time
from rough_transport.weakform import weak_residual

from conftest import damping, field, unit_damping


def test_zero_field_values():
    x = np.array([[0.7], [-2.0]])
    assert np.all(field("zero").eval_b(0.3, x) == 0.0)
    assert np.all(field("zero").eval_div_b(0.3, x) == 0.0)
    assert np.all(damping("zero").eval_c(0.3, x) == 0.0)


@pytest.mark.parametrize("d", [1, 2])
def test_linear_field_values(d):
    # b(x) = x with its analytic divergence d
    spec = field("linear_expand", d=d)
    x = np.array([[2.0] * d, [-0.5] * d])
    assert np.array_equal(spec.eval_b(0.0, x), x)
    assert np.all(spec.eval_div_b(0.0, x) == float(d))


def test_shear_field_values():
    # b = (sign(y), 0), with sign(0) = 0 on the jump line
    spec = field("shear", d=2)
    x = np.array([[0.0, -0.5], [0.3, 0.5], [0.3, 0.0]])
    assert spec.eval_b(0.0, x).tolist() == [[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    assert np.all(spec.eval_div_b(0.0, x) == 0.0)


@pytest.mark.parametrize("field_id,d", [("linear_expand", 1), ("linear_contract", 1),
                                        ("rotation", 2), ("compact_bump", 1)])
def test_divergence_fd_consistency(field_id, d):
    spec = field(field_id, d=d)
    err = check_divergence_consistency(spec, rng=np.random.default_rng(7),
                                       sample_radius=0.9)
    assert err <= 1e-5


@pytest.mark.parametrize("field_id,d", [("zero", 1), ("linear_expand", 1),
                                        ("rotation", 2), ("compact_bump", 1)])
def test_div_sup_dominates_samples(field_id, d):
    spec = field(field_id, d=d)
    rng = np.random.default_rng(3)
    xs = rng.uniform(-3.0, 3.0, size=(2000, d))
    for t in (0.0, 0.4, 1.0):
        vals = np.abs(np.asarray(spec.eval_div_b(t, xs)))
        assert np.max(vals) <= spec.div_sup(t) + 1e-12


@pytest.mark.parametrize("damping_id", sorted(DAMPING_CATALOG))
def test_damping_finite_off_singular_set(damping_id):
    dmp = damping(damping_id)
    rng = np.random.default_rng(11)
    xs = rng.uniform(-2.0, 2.0, size=(500, 1))
    if dmp.singular_set:
        xs = xs[dmp.singular_distance(xs) > 0.0]
    vals = np.asarray(dmp.eval_c(0.5, xs), dtype=float)
    assert np.all(np.isfinite(vals))


# --- mollification -----------------------------------------------------------

def test_mollifier_kernel_integrals():
    for d in (1, 2):
        moll = make_mollifier(0.1, d)
        ti, si = moll.kernel_integrals()
        assert abs(ti - 1.0) <= 1e-10
        assert abs(si - 1.0) <= 1e-10


@pytest.mark.parametrize("eps", [0.3, 0.1, 0.025])
def test_mollify_constant_field(eps):
    # convolution of a constant is the constant, for every eps
    v = np.array([2.0, -1.0])
    spec = VelocityFieldSpec(
        dimension=2,
        eval_b=lambda t, x: np.broadcast_to(v, np.asarray(x).shape).copy(),
        eval_div_b=lambda t, x: np.zeros(np.asarray(x).shape[:-1]),
        continuous=True, div_sup=lambda t: 0.0, horizon=1.0)
    smooth = mollify(spec, make_mollifier(eps, 2))
    pts = np.random.default_rng(0).uniform(-2, 2, size=(50, 2))
    assert np.max(np.abs(smooth.eval_b(0.5, pts) - v)) <= 1e-12


def test_mollify_linear_divergence():
    # linearity is preserved; mollified divergence is identically 1
    smooth = mollify(field("linear_expand"), make_mollifier(0.2, 1))
    pts = np.linspace(-2, 2, 41)[:, None]
    for t in (0.0, 0.5, 1.0):
        assert np.max(np.abs(smooth.eval_div_b(t, pts) - 1.0)) <= 1e-12
        assert np.max(np.abs(smooth.eval_b(t, pts) - pts)) <= 1e-12


def test_mollify_shear_center_line():
    # odd jump against an even kernel cancels on the interface
    smooth = mollify(field("shear", d=2), make_mollifier(0.1, 2))
    pts = np.stack([np.linspace(-1, 1, 11), np.zeros(11)], axis=-1)
    assert np.max(np.abs(smooth.eval_b(0.0, pts))) <= 1e-12


def test_mollify_rejects_bad_kernel():
    moll = make_mollifier(0.1, 1)
    broken = dataclasses.replace(moll, space_weights=moll.space_weights * 1.01)
    with pytest.raises(BadKernelError):
        mollify(field("linear_expand"), broken)


def test_mollified_divergence_bound_time_dependent():
    # time-mollified sup profile dominates the mollified divergence
    spec = VelocityFieldSpec(
        dimension=1,
        eval_b=lambda t, x: np.sin(t) * np.asarray(x, dtype=float),
        eval_div_b=lambda t, x: np.full(np.asarray(x).shape[:-1], np.sin(t)),
        continuous=True, div_sup=lambda t: abs(np.sin(t)),
        horizon=1.0, autonomous=False)
    eps = 0.15
    smooth = mollify(spec, make_mollifier(eps, 1))
    pts = np.linspace(-2, 2, 21)[:, None]
    for t in np.linspace(0.0, 1.0, 9):
        vals = np.abs(np.asarray(smooth.eval_div_b(float(t), pts)))
        assert np.max(vals) <= smooth.div_sup(float(t)) + 1e-8


def _full_tensor_rule(d, n=16):
    # reference: the tensor Gauss-Legendre rule with every node, zero-weight
    # corners outside the unit ball included
    x, w = gauss_legendre(n)
    offsets = np.stack([g.ravel() for g in np.meshgrid(*([x] * d), indexing="ij")],
                       axis=-1)
    wprod = np.ones(offsets.shape[0])
    for g in np.meshgrid(*([w] * d), indexing="ij"):
        wprod = wprod * g.ravel()
    radii2 = np.sum(offsets**2, axis=-1)
    svals = wprod * np.where(radii2 < 1.0, (1.0 - radii2) ** 4, 0.0)
    return offsets, svals / np.sum(svals)


def _assert_full_rule_sums(spec, eps, calls, kept):
    # one evaluation calls each base field once per kept node, and gives bit
    # for bit the plain per-node sum over the full tensor rule, both on a
    # list of points (N, d) and on the node blocks (m+1, N, d) that
    # ``forward_summary`` passes through ``sample_nodes``
    d = spec.dimension
    smooth = mollify(spec, make_mollifier(eps, d))
    offsets, weights = _full_tensor_rule(d)
    assert offsets.shape[0] == 16 ** d
    rng = np.random.default_rng(3)
    for shape in ((40, d), (5, 40, d)):
        pts = rng.uniform(-1.0, 1.0, size=shape)
        calls.update(b=0, div=0)
        b, div = smooth.eval_b(0.5, pts), smooth.eval_div_b(0.5, pts)
        assert calls == {"b": kept, "div": kept}
        for fn, got in ((spec.eval_b, b), (spec.eval_div_b, div)):
            acc = weights[0] * fn(0.5, pts - eps * offsets[0])
            for q in range(1, offsets.shape[0]):
                acc = acc + weights[q] * fn(0.5, pts - eps * offsets[q])
            assert np.array_equal(got, acc)


@pytest.mark.parametrize("d,kept", [(1, 16), (2, 144)])
def test_mollifier_skips_zero_weight_nodes(d, kept):
    # dropping the nodes of weight exactly 0 leaves every sum unchanged
    calls = {"b": 0, "div": 0}
    spec = VelocityFieldSpec(
        dimension=d,
        eval_b=_counting(lambda t, x: np.sin(x) + np.cos(x[..., ::-1]), calls, "b"),
        eval_div_b=_counting(lambda t, x: np.sum(np.cos(x), axis=-1), calls, "div"),
        continuous=True, div_sup=lambda t: float(d), horizon=1.0)
    _assert_full_rule_sums(spec, 0.1, calls, kept)


def test_mollified_shear_matches_per_node_sum():
    # the catalog shear, as the shear_bv scenario mollifies it
    calls = {"b": 0, "div": 0}
    base = field("shear", d=2)
    spec = dataclasses.replace(base, eval_b=_counting(base.eval_b, calls, "b"),
                               eval_div_b=_counting(base.eval_div_b, calls, "div"))
    _assert_full_rule_sums(spec, 0.1, calls, 144)


@pytest.mark.parametrize("kind", ["returns_input", "returns_cached"])
def test_mollifier_sum_survives_aliased_field_values(kind):
    # the convolution reuses one buffer for the shifted points and sums in
    # place; a field that hands back that buffer or one array of its own
    # must still give the plain per-node sum, and its array stays untouched
    d, eps = 2, 0.1
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(40, d))
    cached = np.random.default_rng(6).normal(size=pts.shape)
    kept = cached.copy()
    base = (lambda t, x: x) if kind == "returns_input" else (lambda t, x: cached)
    spec = VelocityFieldSpec(dimension=d, eval_b=base,
                             eval_div_b=lambda t, x: np.zeros(x.shape[:-1]),
                             continuous=True, div_sup=lambda t: 0.0,
                             horizon=1.0)
    moll = make_mollifier(eps, d)
    got = mollify(spec, moll).eval_b(0.5, pts)

    offsets, weights = moll.space_offsets, moll.space_weights
    acc = weights[0] * np.array(base(0.5, pts - eps * offsets[0]))
    for q in range(1, offsets.shape[0]):
        acc = acc + weights[q] * np.array(base(0.5, pts - eps * offsets[q]))
    assert np.array_equal(got, acc)
    assert np.array_equal(cached, kept)


def test_mollified_field_is_tagged_smooth(shear_field):
    assert mollify(shear_field, make_mollifier(0.1, 2)).continuous


# --- growth splits -----------------------------------------------------------

def test_growth_split_zero_field():
    split = growth_split(field("zero"), rng=np.random.default_rng(1))
    assert split.b2(0.3) == 0.0
    assert np.all(np.asarray(split.b1(0.0, np.zeros((4, 1)))) == 0.0)


def test_growth_split_linear_field():
    # |x|/(1+|x|) <= 1, so b1 = 0 and b2 = 1 works
    split = growth_split(field("linear_expand"), rng=np.random.default_rng(2))
    assert split.b2(0.5) == 1.0


def test_growth_split_compact_field():
    split = growth_split(field("compact_bump"), rng=np.random.default_rng(3))
    x = np.array([[0.5], [1.5]])
    assert tuple(split.b1(0.0, x)) == (1.0, 0.0)
    assert split.b2(0.1) == 0.0
    assert split.b1_tail_l1(0.0, 8.0) == 0.0
    assert split.b1_tail_l1(0.0, 0.5) == pytest.approx(1.0)


def test_growth_split_violation_has_witness():
    bad = dataclasses.replace(field("linear_expand"),
                              growth_b2=lambda t: 0.4)
    with pytest.raises(SplitViolationError) as err:
        growth_split(bad, rng=np.random.default_rng(4))
    assert err.value.x is not None
    assert err.value.lhs > err.value.rhs


# --- space-time sampling ------------------------------------------------------

def _counting(fn, calls, key, points=None):
    def counted(t, x):
        calls[key] += 1
        if points is not None:
            points[key] += int(np.prod(np.shape(x)[:-1]))
        return fn(t, x)
    return counted


@pytest.mark.parametrize("autonomous", [True, False])
def test_sampler_calls_autonomous_fields_once(autonomous):
    # one call over every node of an autonomous field, one per time node
    # else; the weak form samples an autonomous field on one row of points
    calls = {"b": 0, "div": 0, "c": 0}
    points = dict(calls)
    base, dmp = field("linear_expand"), unit_damping()
    spec = dataclasses.replace(
        base, autonomous=autonomous,
        eval_b=_counting(base.eval_b, calls, "b", points),
        eval_div_b=_counting(base.eval_div_b, calls, "div", points))
    dmp = dataclasses.replace(dmp, autonomous=autonomous,
                              eval_c=_counting(dmp.eval_c, calls, "c", points))

    forward_summary(spec, make_seed_grid(1.0, 16, 1), 20)
    assert calls["div"] == (1 if autonomous else 21)

    quad = make_quadrature(1, 2.0, 32, 1.0, 12)
    u = DensityRepresentation(quad, np.zeros((13, 32)))
    phi = compact_space_time(1, 1.0)
    calls.update(b=0, div=0, c=0)
    points.update(b=0, div=0, c=0)
    weak_residual(u, make_beta_arctan(1.0), phi, spec, dmp,
                  lambda x: np.zeros(np.asarray(x).shape[:-1]))
    assert calls == dict.fromkeys(calls, 1 if autonomous else 13)
    assert points == dict.fromkeys(points, 32 if autonomous else 13 * 32)
