"""Field library: catalog field values, mollification, growth splits."""

import dataclasses

import numpy as np
import pytest

from rough_transport.errors import BadKernelError, SplitViolationError
from rough_transport.fields import (DampingFieldSpec, VelocityFieldSpec,
                                    check_divergence_consistency,
                                    growth_split, make_mollifier, mollify)
from rough_transport.flow import forward_summary, make_seed_grid
from rough_transport.numerics import gauss_legendre
from rough_transport.renormalization import make_beta_arctan
from rough_transport.representation import DensityRepresentation, make_quadrature
from rough_transport.scenarios import DAMPING_CATALOG, FIELD_CATALOG
from rough_transport.testfunctions import compact_space_time
from rough_transport.weakform import weak_residual

from conftest import damping, field, unit_damping
from reference import space_conv


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
    if dmp.singular_point is not None:
        xs = xs[np.linalg.norm(xs - np.asarray(dmp.singular_point), axis=-1) > 0.0]
    vals = np.asarray(dmp.eval_c(0.5, xs), dtype=float)
    assert np.all(np.isfinite(vals))


@pytest.mark.parametrize("eta", [-1.0, float("nan")])
def test_damping_rejects_a_negative_or_nan_cut_off(eta):
    # a NaN eta would switch the cut-off off, since |x - p| <= nan never holds
    with pytest.raises(ValueError, match="eta must be nonnegative"):
        DampingFieldSpec(eval_c=lambda t, x: np.ones(np.shape(x)[:-1]),
                         singular_point=(0.0,), eta=eta)
    with pytest.raises(ValueError, match="eta must be nonnegative"):
        dataclasses.replace(damping("inv_sqrt"), eta=eta)


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
    # the field's own sup profile dominates the divergence smoothed in space
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
    assert smooth.div_sup is spec.div_sup


def test_mollify_convolves_in_space_only():
    # a time-dependent field is smoothed in x at the time of the evaluation,
    # bit for bit the per-node space sum; the time rule is neither applied
    # nor checked, so a defective one is accepted
    spec = VelocityFieldSpec(
        dimension=1,
        eval_b=lambda t, x: t * t * np.sin(np.asarray(x, dtype=float)),
        eval_div_b=lambda t, x: t * t * np.cos(np.asarray(x, dtype=float))[..., 0],
        continuous=True, div_sup=lambda t: t * t, horizon=1.0, autonomous=False)
    moll = make_mollifier(0.15, 1)
    moll = dataclasses.replace(moll, time_weights=moll.time_weights * 1.01)
    smooth = mollify(spec, moll)
    pts = np.linspace(-2, 2, 21)[:, None]
    offsets, weights = moll.space_offsets, moll.space_weights
    for t in (0.0, 0.4, 1.0):
        for fn, got in ((spec.eval_b, smooth.eval_b(t, pts)),
                        (spec.eval_div_b, smooth.eval_div_b(t, pts))):
            acc = weights[0] * fn(t, pts - moll.eps * offsets[0])
            for q in range(1, offsets.shape[0]):
                acc = acc + weights[q] * fn(t, pts - moll.eps * offsets[q])
            assert np.array_equal(got, acc)


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


def _assert_full_rule_sums(spec, eps, calls, kept, div_kept=None):
    # one evaluation calls each base field once per kept node, and gives bit
    # for bit the plain per-node sum over the full tensor rule, both on a
    # list of points (N, d) and on the node blocks (m+1, N, d) that
    # ``forward_summary`` passes through ``sample_nodes``; ``div_kept`` gives
    # the divergence's calls per evaluation when they differ
    d = spec.dimension
    smooth = mollify(spec, make_mollifier(eps, d))
    offsets, weights = _full_tensor_rule(d)
    assert offsets.shape[0] == 16 ** d
    rng = np.random.default_rng(3)
    for shape, div_calls in zip(((40, d), (5, 40, d)), div_kept or (kept, kept)):
        pts = rng.uniform(-1.0, 1.0, size=shape)
        calls.update(b=0, div=0)
        b, div = smooth.eval_b(0.5, pts), smooth.eval_div_b(0.5, pts)
        assert calls == {"b": kept, "div": div_calls}
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
    # the catalog shear, as the shear_bv scenario mollifies it; its
    # divergence reads no coordinate, so one convolution at one point
    # serves both evaluations
    calls = {"b": 0, "div": 0}
    base = field("shear", d=2)
    spec = dataclasses.replace(base, eval_b=_counting(base.eval_b, calls, "b"),
                               eval_div_b=_counting(base.eval_div_b, calls, "div"))
    _assert_full_rule_sums(spec, 0.1, calls, 144, div_kept=(144, 0))


@pytest.mark.parametrize("kind", ["returns_input", "returns_cached"])
def test_mollifier_sum_survives_aliased_field_values(kind):
    # the convolution reuses one buffer for the shifted points and sums in
    # place; a field that hands back that buffer or one array of its own
    # must still give the plain per-node sum and the reference loop's bits,
    # and neither the caller's points nor the field's array is written to
    d, eps = 2, 0.1
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(40, d))
    cached = np.random.default_rng(6).normal(size=pts.shape)
    kept, pts_kept = cached.copy(), pts.copy()
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
    assert got.tobytes() == space_conv(base, moll, 0.5, pts).tobytes()
    assert got.flags.c_contiguous
    assert not np.shares_memory(got, pts) and not np.shares_memory(got, cached)
    assert np.array_equal(cached, kept) and np.array_equal(pts, pts_kept)


# the catalog fields a mollifier can smooth, at the dimension they build
MOLLIFIED_FIELDS = [("shear", 2), ("rotation", 2), ("linear_expand", 1),
                    ("compact_bump", 1), ("log_drift", 1)]


@pytest.mark.parametrize("lead", [(), (64,), (5, 64)], ids=["d", "N_d", "K1_N_d"])
@pytest.mark.parametrize("field_id,d", MOLLIFIED_FIELDS)
def test_space_conv_matches_the_reference_loop_bit_for_bit(field_id, d, lead):
    # the coordinate-major shifts, with the unread coordinates left in
    # place, give the per-node loop's bits for (d,), (N, d) and (K+1, N, d)
    # points, on both convolved callables, in a C-contiguous result. Points
    # on the lattice of the mollifier's offsets hit the fields' kinks and
    # jumps (y = 0 of the shear, |x| = 1, x = 0 of log_drift) exactly
    moll = make_mollifier(0.1, d)
    base = field(field_id, d=d)
    smooth = mollify(base, moll)
    rng = np.random.default_rng(11)
    x = rng.uniform(-1.5, 1.5, size=lead + (d,))
    if lead:
        x.reshape(-1, d)[:16] = 0.1 * moll.space_offsets[:16]
    for fn, conv in ((base.eval_b, smooth.eval_b), (base.eval_div_b, smooth.eval_div_b)):
        got = conv(0.5, x)
        # the reference's scalar first product breaks a 0-d value, so it
        # reads a (d,) point as a one-point batch
        want = space_conv(fn, moll, 0.5, np.atleast_2d(x))
        assert got.shape == np.shape(fn(0.5, x))
        assert got.tobytes() == want.tobytes()
        assert isinstance(got, np.ndarray) and got.flags.c_contiguous


def test_space_conv_reshifts_a_coordinate_when_its_offset_flips_the_sign_of_zero():
    # 0.0 == -0.0, yet -0.0 - 0.0 is -0.0 and -0.0 - (-0.0) is 0.0, and
    # copysign reads the sign: a field without ``reads`` has every coordinate
    # shifted afresh at every node, so each node hands it its own zero
    moll0 = make_mollifier(1.0, 2)
    moll = dataclasses.replace(
        moll0,
        space_offsets=np.array([[0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [-0.0, 0.0]]),
        space_weights=np.array([0.125, 0.25, 0.5, 0.125]))
    spec = VelocityFieldSpec(
        dimension=2, eval_b=lambda t, x: np.copysign(1.0, x),
        eval_div_b=lambda t, x: np.copysign(1.0, x[..., 0]) + 2.0 * np.copysign(1.0, x[..., 1]),
        continuous=True, div_sup=lambda t: 0.0, horizon=1.0)
    smooth = mollify(spec, moll)
    x = np.array([[-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]])
    b = smooth.eval_b(0.0, x)
    div = smooth.eval_div_b(0.0, x)
    assert b.tobytes() == space_conv(spec.eval_b, moll, 0.0, x).tobytes()
    assert div.tobytes() == space_conv(spec.eval_div_b, moll, 0.0, x).tobytes()
    # at (-0, -0) the shifted points are (-0, -0), (-0, 0), (0, 0), (0, -0)
    assert b[0].tolist() == [-0.125 - 0.25 + 0.5 + 0.125, -0.125 + 0.25 + 0.5 - 0.125]


def test_mollified_field_is_tagged_smooth(shear_field):
    assert mollify(shear_field, make_mollifier(0.1, 2)).continuous


# --- declared coordinates and the convolution memo ---------------------------

def _plane_field(eval_b, eval_div_b, **kw):
    return VelocityFieldSpec(dimension=2, eval_b=eval_b, eval_div_b=eval_div_b,
                             continuous=True, div_sup=lambda t: 0.0, horizon=1.0, **kw)


def _zero_div(t, x):
    return np.zeros(np.shape(x)[:-1])


@pytest.mark.parametrize("lead", [(), (48,)], ids=["d", "N_d"])
def test_space_conv_shifts_only_the_declared_coordinates(lead):
    # a field that declares reads=(1,) and depends on y alone receives, at
    # every kernel node of both callables, the input's x column bit for bit:
    # only y is shifted, and the sums keep the reference loop's bits
    seen = []

    def spy(value):
        def fn(t, x):
            seen.append(x[..., 0].copy())
            return value(x[..., 1])
        return fn

    def eval_b(y):
        return np.stack([np.sign(y), np.zeros(np.shape(y))], axis=-1)
    spec = _plane_field(spy(eval_b), spy(lambda y: np.cos(y)), reads=(1,))
    moll = make_mollifier(0.1, 2)
    smooth = mollify(spec, moll)
    x = np.random.default_rng(17).uniform(-1.0, 1.0, size=lead + (2,))
    got = [smooth.eval_b(0.5, x), smooth.eval_div_b(0.5, x)]
    assert len(seen) == 2 * moll.space_offsets.shape[0] == 288
    assert all(col.tobytes() == x[..., 0].tobytes() for col in seen)
    want = [space_conv(fn, moll, 0.5, np.atleast_2d(x))
            for fn in (spec.eval_b, spec.eval_div_b)]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


@pytest.mark.parametrize("reads", [(2,), (1, 0), (-1,), (1, 1), [1], (1.0,), (True,)])
def test_field_refuses_a_malformed_reads_declaration(reads):
    # div_reads is validated as reads is
    for name in ("reads", "div_reads"):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            _plane_field(lambda t, x: x, _zero_div, **{name: reads})


@pytest.mark.parametrize("reads", [None, (), (0,), (1,), (0, 1)])
def test_field_accepts_a_well_formed_reads_declaration(reads):
    for name in ("reads", "div_reads"):
        assert getattr(_plane_field(lambda t, x: x, _zero_div, **{name: reads}), name) == reads


@pytest.mark.parametrize("reads,div_reads,within", [
    ((1,), (), True), ((1,), (1,), True), ((0, 1), (0,), True), (None, (0,), True),
    ((1,), (0,), False), ((), (1,), False), ((0,), (0, 1), False)])
def test_div_reads_must_lie_within_reads(reads, div_reads, within):
    # the divergence of b reads no coordinate that b itself does not
    def build():
        return _plane_field(lambda t, x: x, _zero_div, reads=reads, div_reads=div_reads)
    if within:
        assert build().divergence_reads == div_reads
    else:
        with pytest.raises(ValueError, match="must lie within reads"):
            build()


def test_divergence_reads_falls_back_to_reads():
    assert _plane_field(lambda t, x: x, _zero_div, reads=(1,)).divergence_reads == (1,)
    assert _plane_field(lambda t, x: x, _zero_div).divergence_reads is None


# the unread coordinates are shifted by, and also set to, each of these
UNREAD_MOVES = (0.0, -0.0, 1e3, -1e3, 0.375, -2.5)


def _declaration_holds(fns, reads, points, times=(0.0, 0.5, 1.0)):
    """True when each of ``fns`` keeps its bits as the coordinates outside ``reads`` move."""
    unread = [j for j in range(points.shape[-1]) if j not in reads]
    for t in times:
        want = [np.asarray(fn(t, points), dtype=float).tobytes() for fn in fns]
        for s in UNREAD_MOVES:
            shifted, pinned = points.copy(), points.copy()
            shifted[..., unread] += s
            pinned[..., unread] = s
            for x in (shifted, pinned):
                got = [np.asarray(fn(t, x), dtype=float).tobytes() for fn in fns]
                if got != want:
                    return False
    return True


def _reads_hold(spec):
    return _declaration_holds((spec.eval_b, spec.eval_div_b), spec.reads,
                              _declaration_points(spec.dimension))


def _div_reads_hold(spec):
    return _declaration_holds((spec.eval_div_b,), spec.divergence_reads,
                              _declaration_points(spec.dimension))


def _declaration_points(d):
    # random points, then points on the axes and the shear's jump line, with
    # both signs of zero
    pts = np.random.default_rng(13).uniform(-2.0, 2.0, size=(64, d))
    edges = np.array([[0.0, 0.0], [-0.0, -0.0], [0.7, 0.0], [-0.7, -0.0],
                      [0.0, 1e-300], [1e3, -0.5]])
    return np.concatenate([pts, np.resize(edges, (edges.shape[0], d))])


def _declaring_catalog_fields(declared):
    found = {}
    for field_id, build in sorted(FIELD_CATALOG.items()):
        for d in (1, 2):
            spec = build(d, 1.0)
            if getattr(spec, declared) is not None:
                found[(field_id, spec.dimension)] = spec
    return found


DECLARING_FIELDS = _declaring_catalog_fields("reads")
DIV_DECLARING_FIELDS = _declaring_catalog_fields("divergence_reads")


def test_the_shear_declares_that_it_reads_only_y():
    assert DECLARING_FIELDS[("shear", 2)].reads == (1,)


def test_the_fields_with_a_divergence_constant_in_x_declare_it():
    # JX of these fields is the same for every seed; compact_bump's and
    # log_drift's divergences read x
    assert {key: spec.div_reads for key, spec in DIV_DECLARING_FIELDS.items()} == {
        (fid, d): () for fid in ("zero", "linear_expand", "linear_contract")
        for d in (1, 2)} | {("rotation", 2): (), ("shear", 2): ()}
    assert FIELD_CATALOG["compact_bump"](1, 1.0).div_reads is None
    assert FIELD_CATALOG["log_drift"](1, 1.0).div_reads is None


@pytest.mark.parametrize("field_id,d", sorted(DECLARING_FIELDS))
def test_every_catalog_reads_declaration_is_true(field_id, d):
    # a field that reads a coordinate it does not declare would hand the
    # mollifier's memo a stale convolution
    assert _reads_hold(DECLARING_FIELDS[(field_id, d)])


@pytest.mark.parametrize("field_id,d", sorted(DIV_DECLARING_FIELDS))
def test_every_catalog_div_reads_declaration_is_true(field_id, d):
    # a divergence that reads a coordinate it does not declare would give
    # every seed the first seed's Jacobian, and the mollifier's one-point
    # convolution a value that holds at one point only
    assert _div_reads_hold(DIV_DECLARING_FIELDS[(field_id, d)])


@pytest.mark.parametrize("liar", ["b", "div_b"])
def test_a_false_reads_declaration_fails_the_check(liar):
    # declares (1,), yet b or div b also reads x
    def eval_b(t, x):
        out = np.zeros(np.shape(x))
        out[..., 0] = np.sign(x[..., 1]) + (1e-3 * x[..., 0] if liar == "b" else 0.0)
        return out

    def eval_div_b(t, x):
        return 1e-3 * x[..., 0] if liar == "div_b" else _zero_div(t, x)
    spec = _plane_field(eval_b, eval_div_b, reads=(1,))
    assert not _reads_hold(spec)


@pytest.mark.parametrize("reads", [(0, 1), (1,)])
def test_a_false_div_reads_declaration_fails_the_check(reads):
    # declares a divergence constant in x, yet it reads x
    spec = _plane_field(lambda t, x: np.zeros(np.shape(x)),
                        lambda t, x: 1e-3 * x[..., 1], reads=reads, div_reads=())
    assert not _div_reads_hold(spec)
    assert _div_reads_hold(dataclasses.replace(spec, div_reads=None))


def _counted(spec, calls):
    return dataclasses.replace(spec, eval_b=_counting(spec.eval_b, calls, "b"),
                               eval_div_b=_counting(spec.eval_div_b, calls, "div"))


def _convolve(smooth, base, moll, calls, t, x, misses, div_misses=None):
    """Both mollified callables at (t, x): the reference loop's bits, 144 calls a miss.

    ``div_misses`` counts the divergence's misses when they differ from b's.
    """
    calls.update(b=0, div=0)
    b, div = smooth.eval_b(t, x), smooth.eval_div_b(t, x)
    assert calls == {"b": 144 * misses,
                     "div": 144 * (misses if div_misses is None else div_misses)}
    assert b.tobytes() == space_conv(base.eval_b, moll, t, x).tobytes()
    assert div.tobytes() == space_conv(base.eval_div_b, moll, t, x).tobytes()
    return b, div


def test_mollified_shear_convolves_once_per_distinct_y():
    calls = {"b": 0, "div": 0}
    base = field("shear", d=2)
    moll = make_mollifier(0.1, 2)
    smooth = mollify(_counted(base, calls), moll)
    pts = _declaration_points(2)
    b, div = _convolve(smooth, base, moll, calls, 0.5, pts, misses=1)
    x_moved = pts.copy()
    x_moved[:, 0] += 0.25
    assert _convolve(smooth, base, moll, calls, 0.5, x_moved, misses=0)[0] is b
    # the shear is autonomous: another time reads the same convolution
    _convolve(smooth, base, moll, calls, 0.9, pts, misses=0)
    # the divergence reads no coordinate: its one convolution, at one point,
    # serves every y and every shape
    y_moved = pts.copy()
    y_moved[:, 1] += 0.25
    _convolve(smooth, base, moll, calls, 0.5, y_moved, misses=1, div_misses=0)
    _convolve(smooth, base, moll, calls, 0.5, y_moved.reshape(5, 14, 2), misses=1,
              div_misses=0)
    # what a hit hands back is the stored array, so no caller may write to
    # it; the divergence is filled anew on every call, so a write to one
    # fill leaves the next one alone
    with pytest.raises(ValueError):
        b[0] = 1.0
    div[0] = 1.0
    assert np.all(smooth.eval_div_b(0.5, pts) == 0.0)


def test_memo_of_a_time_dependent_field_keys_on_t():
    calls = {"b": 0, "div": 0}

    def eval_b(t, x):
        out = np.zeros(np.shape(x))
        out[..., 0] = t * np.sign(x[..., 1])
        return out
    base = _plane_field(eval_b, _zero_div, reads=(1,), autonomous=False)
    moll = make_mollifier(0.1, 2)
    smooth = mollify(_counted(base, calls), moll)
    pts = _declaration_points(2)
    _convolve(smooth, base, moll, calls, 0.5, pts, misses=1)
    x_moved = pts.copy()
    x_moved[:, 0] += 3.0
    _convolve(smooth, base, moll, calls, 0.5, x_moved, misses=0)
    _convolve(smooth, base, moll, calls, 0.75, pts, misses=1)
    _convolve(smooth, base, moll, calls, 0.75, pts, misses=0)


def test_a_callable_that_reads_no_coordinate_convolves_once_per_time():
    # b = (t, -t) and div b = t read no coordinate: each is convolved at one
    # point per distinct t, and the value filled to x's shape keeps the bits
    # of the per-point sums at every point
    calls = {"b": 0, "div": 0}

    def eval_b(t, x):
        out = np.empty(np.shape(x))
        out[..., 0], out[..., 1] = t, -t
        return out
    base = _plane_field(eval_b, lambda t, x: np.full(np.shape(x)[:-1], t),
                        reads=(), autonomous=False)
    moll = make_mollifier(0.1, 2)
    smooth = mollify(_counted(base, calls), moll)
    pts = _declaration_points(2)
    b, div = _convolve(smooth, base, moll, calls, 0.3, pts, misses=1)
    assert b.shape == pts.shape and div.shape == pts.shape[:-1] and np.all(div != 0.0)
    _convolve(smooth, base, moll, calls, 0.3, pts[:7] + 5.0, misses=0)
    _convolve(smooth, base, moll, calls, 0.3, pts.reshape(5, 14, 2), misses=0)
    _convolve(smooth, base, moll, calls, 0.7, pts, misses=1)
    # a (d,) point gives a 0-d divergence
    point = smooth.eval_div_b(0.7, np.array([0.25, -0.5]))
    assert point.shape == ()
    assert point == space_conv(base.eval_div_b, moll, 0.7, np.zeros((1, 2)))[0]


def test_mollified_field_without_reads_convolves_on_every_call():
    calls = {"b": 0, "div": 0}
    base = dataclasses.replace(field("shear", d=2), reads=None, div_reads=None)
    moll = make_mollifier(0.1, 2)
    smooth = mollify(_counted(base, calls), moll)
    pts = _declaration_points(2)
    for _ in range(2):
        _convolve(smooth, base, moll, calls, 0.5, pts, misses=1)


# --- growth splits -----------------------------------------------------------

def test_growth_split_zero_field():
    spec = field("zero")
    split = growth_split(spec, rng=np.random.default_rng(1))
    assert split is spec            # the split is read from the field itself
    assert split.growth_b2(0.3) == 0.0
    assert np.all(np.asarray(split.growth_b1(0.0, np.zeros((4, 1)))) == 0.0)
    assert split.growth_b1_tail is None     # no tail: C_R reads 0


def test_growth_split_linear_field():
    # |x|/(1+|x|) <= 1, so b1 = 0 and b2 = 1 works
    split = growth_split(field("linear_expand"), rng=np.random.default_rng(2))
    assert split.growth_b2(0.5) == 1.0


def test_growth_split_compact_field():
    split = growth_split(field("compact_bump"), rng=np.random.default_rng(3))
    x = np.array([[0.5], [1.5]])
    assert tuple(split.growth_b1(0.0, x)) == (1.0, 0.0)
    assert split.growth_b2(0.1) == 0.0
    assert split.growth_b1_tail(0.0, 8.0) == 0.0
    assert split.growth_b1_tail(0.0, 0.5) == pytest.approx(1.0)


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
