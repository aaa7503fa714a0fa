"""Shared numerical utilities: per-coordinate squared norms."""

import numpy as np
import pytest

from rough_transport.numerics import sq_norms

# overflow (1e200**2 = inf), underflow (1e-170**2 = 0), signed zero,
# infinities and NaN, mixed with ordinary values
_SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e200, -1e200,
                     1e-170, -1e-170, 1.5, -0.3, 2.0 ** -30, 7.0])


def _samples(shape, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    pick = rng.random(shape) < 0.4
    x[pick] = rng.choice(_SPECIAL, size=int(pick.sum()))
    if len(shape) > 1:
        # one point per special value in every coordinate
        x.reshape(-1, shape[-1])[:_SPECIAL.size] = _SPECIAL[:, None]
    return x


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# the overflow and the NaN entries warn in the helper and the references alike
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("lead", [(257,), (9, 17)])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("centered", [False, True])
def test_sq_norms_bitwise_equal_to_numpy(lead, d, centered):
    x = _samples(lead + (d,), seed=d)
    c = _samples((d,), seed=10 + d) if centered else None
    diff = x - c if centered else x
    got = sq_norms(x, c)
    assert _same_bits(got, np.sum(diff ** 2, -1))
    assert _same_bits(np.sqrt(got), np.linalg.norm(diff, axis=-1))
    if not centered:   # the data reach NaN, overflow and underflow
        assert np.isnan(got).any() and np.isinf(got).any()
        assert np.any((got == 0.0) & np.any(x != 0.0, axis=-1))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("d", [1, 2, 3])
def test_sq_norms_fills_out_and_leaves_input(d):
    x = _samples((64, d), seed=20 + d)
    kept = x.copy()
    out = np.full(64, 5.0)
    assert sq_norms(x, out=out) is out
    assert _same_bits(out, np.sum(x ** 2, -1))
    assert _same_bits(x, kept)
    assert _same_bits(sq_norms(x, np.ones(d), out=out), np.sum((x - 1.0) ** 2, -1))
    assert _same_bits(x, kept)
