"""Renormalizer families, the weighted-derivative contraction, phi_R."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rough_transport import renormalization
from rough_transport.errors import InadmissibleRenormalizerError
from rough_transport.renormalization import (Renormalizer, check_admissible,
                                             make_beta_arctan, make_beta_log, make_phi_R,
                                             standard_sweep)


# --- arctan family -------------------------------------------------------------

def test_beta_arctan_vanishes_at_zero():
    for M in (0.1, 1.0, 10.0):
        assert float(make_beta_arctan(M).beta(0.0)) == 0.0


def test_beta_arctan_value():
    # direct evaluation: beta_1(1) = arctan(1) = pi/4
    assert float(make_beta_arctan(1.0).beta(1.0)) == pytest.approx(math.pi / 4.0,
                                                                   abs=1e-15)


def test_beta_arctan_large_M_limit():
    # Taylor remainder: |M arctan(r/M) - r| <= r^3 / (3 M^2)
    assert abs(float(make_beta_arctan(1e6).beta(5.0)) - 5.0) <= 1e-10


def test_beta_arctan_derivative_fd():
    ren = make_beta_arctan(2.0)
    rs = np.linspace(-50.0, 50.0, 501)
    h = 1e-5 * (1.0 + np.abs(rs))
    fd = (ren.beta(rs + h) - ren.beta(rs - h)) / (2.0 * h)
    assert np.max(np.abs(fd - ren.beta_prime(rs)) / (1.0 + np.abs(ren.beta_prime(rs)))) <= 1e-6


# --- logarithmic family ----------------------------------------------------------

def test_beta_log_vanishes_at_zero():
    for delta in (1.0, 1e-2, 1e-6):
        assert float(make_beta_log(delta).beta(0.0)) == 0.0


def test_beta_log_sup_value():
    # oracle: direct evaluation of the closed form 0.5 log(1 + pi^2/(4 delta));
    # the half in the definition is what keeps |r beta'| <= 1 exactly
    ren = make_beta_log(1.0)
    expected = 0.5 * math.log1p(math.pi ** 2 / 4.0)
    assert ren.sup_beta == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(0.6217026754443632, rel=1e-12)
    big = np.array([1e8, -1e8])
    assert np.max(np.abs(ren.beta(big))) <= ren.sup_beta


@pytest.mark.parametrize("delta", [1.0, 1e-2, 1e-4])
def test_beta_log_weighted_derivative_bound(delta):
    ren = make_beta_log(delta)
    pts = np.array([0.1, -0.1, 1.0, -1.0, 10.0, -10.0, 1e3, -1e3])
    assert np.max(np.abs(pts * ren.beta_prime(pts))) <= 1.0
    sweep = standard_sweep()
    assert np.max(np.abs(sweep * ren.beta_prime(sweep))) <= 1.0 + 1e-12


def test_beta_log_derivative_fd():
    ren = make_beta_log(1e-3)
    rs = np.linspace(-20.0, 20.0, 801)
    rs = rs[rs != 0.0]
    h = 1e-6 * (1.0 + np.abs(rs))
    fd = (ren.beta(rs + h) - ren.beta(rs - h)) / (2.0 * h)
    assert np.max(np.abs(fd - ren.beta_prime(rs)) / (1.0 + np.abs(ren.beta_prime(rs)))) <= 1e-6


def test_beta_log_pointwise_monotone_in_delta():
    rs = standard_sweep()[::97]
    b_small = make_beta_log(1e-6).beta(rs)
    b_mid = make_beta_log(1e-3).beta(rs)
    b_big = make_beta_log(1.0).beta(rs)
    assert np.all(b_small >= b_mid) and np.all(b_mid >= b_big)


# --- contraction inequality ------------------------------------------------------

@lru_cache(maxsize=None)
def _arctan(M):
    """One certified beta_M per M, shared by every example."""
    return make_beta_arctan(M)


def _contraction_gap(r1, r2, M):
    """|beta_M(r1) - beta_M(r2)| - |r1 beta'_M(r1) - r2 beta'_M(r2)| (>= 0)."""
    ren = _arctan(M)
    lhs = abs(float(ren.beta(r1)) - float(ren.beta(r2)))
    rhs = abs(r1 * float(ren.beta_prime(r1)) - r2 * float(ren.beta_prime(r2)))
    return lhs - rhs


def test_contraction_gap_equal_arguments():
    assert _contraction_gap(0.7, 0.7, 2.0) == 0.0


def test_contraction_gap_explicit_value():
    # direct evaluation: |pi/4 - 0| - |1/2 - 0| = pi/4 - 1/2
    assert _contraction_gap(1.0, 0.0, 1.0) == pytest.approx(
        math.pi / 4.0 - 0.5, abs=1e-15)


def test_contraction_gap_sweep():
    rng = np.random.default_rng(42)
    r = rng.uniform(-1e3, 1e3, size=(10_000, 2))
    worst = 0.0
    for M in (0.1, 1.0, 10.0):
        ren = make_beta_arctan(M)
        lhs = np.abs(ren.beta(r[:, 0]) - ren.beta(r[:, 1]))
        rhs = np.abs(r[:, 0] * ren.beta_prime(r[:, 0])
                     - r[:, 1] * ren.beta_prime(r[:, 1]))
        worst = min(worst, float(np.min(lhs - rhs)))
    assert worst >= -1e-12


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-1e3, max_value=1e3),
       st.floats(min_value=-1e3, max_value=1e3),
       st.sampled_from([0.1, 1.0, 10.0]))
def test_contraction_gap_property(r1, r2, M):
    assert _contraction_gap(r1, r2, M) >= -1e-12


# --- admissibility ---------------------------------------------------------------

def test_admissible_arctan():
    assert check_admissible(make_beta_arctan(1.0)) == {}


def test_admissible_log():
    # down to the delta of the uniqueness probe, where beta_delta bends on a
    # sqrt(delta) scale far below the old fixed finite-difference step
    for delta in (1.0, 1e-4, 1e-6, 1e-12):
        witnesses = check_admissible(make_beta_log(delta))
        assert witnesses == {}, (delta, witnesses)


def test_standard_sweep_is_built_once_and_read_only():
    sweep = standard_sweep()
    assert standard_sweep() is sweep and not sweep.flags.writeable
    assert sweep.size == 100_000 and np.all(np.diff(sweep) > 0.0)


def test_factories_raise_on_a_failed_certificate(monkeypatch):
    failing = check_admissible(Renormalizer(
        beta=lambda r: np.asarray(r, dtype=float) + 1e-3,
        beta_prime=lambda r: np.ones_like(np.asarray(r, dtype=float)),
        sup_beta=1e9, sup_rbeta_prime=1e9, label="shifted"))
    assert failing == {"zero": (0.0, 1e-3)}
    monkeypatch.setattr(renormalization, "check_admissible", lambda ren: failing)
    for make in (make_beta_arctan, make_beta_log):
        with pytest.raises(InadmissibleRenormalizerError, match="'zero': "):
            make(1.0)


def test_admissible_rejects_wrong_derivative():
    # beta_prime off by 1e-5 relative: the C^1 proxy must still catch it
    ren = make_beta_log(1e-6)
    wrong = Renormalizer(beta=ren.beta,
                         beta_prime=lambda r: ren.beta_prime(r) * (1.0 + 1e-5),
                         sup_beta=ren.sup_beta, sup_rbeta_prime=2.0, label="wrong")
    assert "derivative" in check_admissible(wrong)


def test_admissible_rejects_unbounded():
    raw = Renormalizer(beta=lambda r: np.asarray(r, dtype=float),
                       beta_prime=lambda r: np.ones_like(np.asarray(r, dtype=float)),
                       sup_beta=10.0, sup_rbeta_prime=10.0, label="identity")
    assert "bounded" in check_admissible(raw)


# --- phi_R ----------------------------------------------------------------------

def test_phi_R_plateau_value():
    # inside the ball the value is 2^-(d+1)
    phi = make_phi_R(1.0, 1)
    assert float(phi(np.array([0.5]))) == 0.25


def test_phi_R_continuity_at_kink():
    phi = make_phi_R(1.0, 1)
    inner = 0.5 ** 2
    outer = 1.0 ** 2 / (1.0 + 1.0) ** 2
    assert inner == outer == float(phi(np.array([1.0])))


def test_phi_R_outer_value():
    # R^(d+1)/(R+|x|)^(d+1) at d=1, R=1, |x|=3 is 1/16
    phi = make_phi_R(1.0, 1)
    assert float(phi(np.array([3.0]))) == pytest.approx(1.0 / 16.0, rel=1e-15)


def _radial_l1(phi):
    """Independent reference: QUADPACK over the plateau and the tail, split at R."""
    from scipy.integrate import quad
    sphere = 2.0 if phi.d == 1 else 2.0 * math.pi

    def integrand(s):
        pt = np.zeros((1, phi.d))
        pt[0, 0] = s
        return float(phi(pt)[0]) * s ** (phi.d - 1)

    return sphere * (quad(integrand, 0.0, phi.R)[0] + quad(integrand, phi.R, np.inf)[0])


def test_phi_R_l1_norm_d1():
    # analytic: 2 (R/4 + R/2) = 3R/2; radial quadrature agrees
    phi = make_phi_R(1.0, 1)
    assert phi.l1_norm == 1.5
    assert _radial_l1(phi) == pytest.approx(1.5, abs=1e-6)


def test_phi_R_l1_norm_d2():
    phi = make_phi_R(2.0, 2)
    assert phi.l1_norm == pytest.approx(7.0 * math.pi * 4.0 / 8.0, rel=1e-14)
    assert _radial_l1(phi) == pytest.approx(phi.l1_norm, rel=1e-6)


def test_phi_R_needs_a_closed_form_dimension():
    with pytest.raises(ValueError, match="d = 1, 2"):
        make_phi_R(1.0, 3)


def test_phi_R_gradient_zero_inside():
    phi = make_phi_R(2.0, 2)
    pts = np.array([[0.5, 0.5], [-1.0, 0.3]])
    assert np.all(phi.grad(pts) == 0.0)


def test_phi_R_gradient_bound_outside():
    # |grad phi_R| <= (d+1) phi_R / (R + |x|) off the sphere |x| = R
    for d, R in ((1, 1.0), (2, 2.0)):
        phi = make_phi_R(R, d)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-8.0, 8.0, size=(4000, d))
        r = np.linalg.norm(pts, axis=-1)
        keep = np.abs(r - R) > 1e-9
        pts, r = pts[keep], r[keep]
        gnorm = np.linalg.norm(phi.grad(pts), axis=-1)
        assert np.all(gnorm <= (d + 1) * phi(pts) / (R + r) + 1e-12)


def test_phi_R_decay_constants():
    # C = (2R)^(d+1)(d+1) certifies both decay bounds for R >= 1
    for d, R in ((1, 1.0), (1, 4.0), (2, 2.0)):
        phi = make_phi_R(R, d)
        C = (2.0 * R) ** (d + 1) * (d + 1)
        rng = np.random.default_rng(6)
        pts = rng.uniform(-20.0, 20.0, size=(4000, d))
        r = np.linalg.norm(pts, axis=-1)
        assert np.all(phi(pts) <= C / (1.0 + r) ** (d + 1) + 1e-12)
        gnorm = np.linalg.norm(phi.grad(pts), axis=-1)
        assert np.all(gnorm <= C / (1.0 + r) ** (d + 2) + 1e-12)


def test_phi_R_gradient_fd():
    phi = make_phi_R(1.5, 2)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-4.0, 4.0, size=(200, 2))
    pts = pts[np.abs(np.linalg.norm(pts, axis=-1) - 1.5) > 1e-2]
    h = 1e-6
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = h
        fd = (phi(pts + e) - phi(pts - e)) / (2.0 * h)
        assert np.max(np.abs(fd - phi.grad(pts)[:, axis])) <= 1e-6
