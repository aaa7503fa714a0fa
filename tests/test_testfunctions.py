"""Reference integrals of the radial test functions: pinned, lazy, exact tails."""

import numpy as np
import pytest

from rough_transport import testfunctions
from rough_transport.numerics import sphere_area
from rough_transport.testfunctions import _PINNED_BUMP_INTEGRALS, bump, gaussian


def _quad(fn, a, b, **kw):
    from scipy.integrate import quad
    return quad(fn, a, b, **kw)[0]


def _scalar(phi):
    return lambda s: float(phi._profile(np.array([s]))[0])


@pytest.mark.parametrize("key", sorted(_PINNED_BUMP_INTEGRALS))
def test_pinned_bump_integrals_are_quadpack_values(key):
    d, a = key
    profile = _scalar(bump(d, a))
    direct = sphere_area(d) * _quad(lambda s: profile(s) * s ** (d - 1), 0.0, a,
                                    limit=200)
    assert _PINNED_BUMP_INTEGRALS[key] == direct
    assert testfunctions._radial_integral(profile, d, 0.0, a) == direct
    assert bump(d, a).reference_integral == direct


def test_bump_integral_is_computed_on_first_read(monkeypatch):
    calls = []
    real = testfunctions.adaptive_quad

    def counting(*args, **kw):
        calls.append(args[1:3])
        return real(*args, **kw)

    monkeypatch.setattr(testfunctions, "adaptive_quad", counting)
    phi = bump(1, 0.9)
    assert calls == []
    first = phi.reference_integral
    assert calls == [(0.0, 0.9)]
    assert phi.reference_integral == first
    assert len(calls) == 1
    profile = _scalar(phi)
    assert first == 2.0 * _quad(profile, 0.0, 0.9, limit=200)

    pinned = bump(2, 0.8)
    assert pinned.reference_integral == _PINNED_BUMP_INTEGRALS[(2, 0.8)]
    assert pinned.mass_outside(1.0) == 0.0
    assert len(calls) == 1


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_gaussian_1d_tail_matches_quadrature(r):
    phi = gaussian(1, 0.3)
    # the tail at r = 2 is about 2e-11, below quad's default absolute
    # tolerance, so the reference is asked for relative accuracy only
    ref = 2.0 * _quad(_scalar(phi), r, np.inf, limit=200, epsabs=0.0, epsrel=1e-13)
    assert phi.mass_outside(r) == pytest.approx(ref, rel=1e-12, abs=0.0)
