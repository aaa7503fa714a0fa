"""Shared numerical utilities: cell centres, the cell grid and per-coordinate
squared norms."""

import numpy as np
import pytest

from rough_transport.numerics import CellGrid, cell_centers, sq_norms, tensor_points

from conftest import traced_bytes

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
@pytest.mark.parametrize("into_out", [False, True])
def test_sq_norms_bitwise_equal_to_numpy(lead, d, into_out):
    x = _samples(lead + (d,), seed=d)
    out = np.full(lead, 5.0) if into_out else None
    got = sq_norms(x, out=out)
    assert out is None or got is out
    assert _same_bits(got, np.sum(x ** 2, -1))
    assert _same_bits(np.sqrt(got), np.linalg.norm(x, axis=-1))
    # the data reach NaN, overflow and underflow
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


# --- cell centres -------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 255, (1 << 16) + 1])
@pytest.mark.parametrize("radius", [0.5, 1.0, 2.0, 3.7])
def test_cell_centers_bitwise_equal_to_the_closed_form(n, radius):
    expected = -radius + 2.0 * radius / n * (np.arange(n) + 0.5)
    assert _same_bits(cell_centers(radius, n), expected)


def test_cell_centers_peak_is_the_result():
    # built in place: no int64 arange or float temporary beside the result
    n = 1 << 20
    xs, kept, peak = traced_bytes(lambda: cell_centers(2.0, n))
    assert kept >= xs.nbytes
    assert peak <= 1.05 * xs.nbytes


@pytest.mark.parametrize("radius,n", [(0.5, 1), (1.0, 7), (2.0, 64), (2.0125, 161),
                                      (3.7, 255)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_cell_grid_centers_bitwise_equal_to_cell_centers(radius, n, d):
    grid = CellGrid(radius, n, d)
    xs = cell_centers(radius, n)
    points = grid.centers()
    assert grid.shape == points.shape == (n ** d, d)
    assert _same_bits(points, tensor_points([xs] * d))
    assert grid.h == 2.0 * radius / n and grid.cell_volume == grid.h ** d
    # any index range, built new or in a given array, and any index array
    for start, stop in ((0, n), (n // 3, n - n // 4), (n - 1, n), (n // 2, n // 2)):
        assert _same_bits(grid.axis(start, stop), xs[start:stop])
        out = np.full(stop - start, np.nan)
        assert grid.axis(start, stop, out=out) is out
        assert _same_bits(out, xs[start:stop])
    index = np.array([0, n - 1, n // 2, n // 3])
    assert _same_bits(grid.coordinate(index), xs[index])
