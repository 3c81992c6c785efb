import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import ellipj, ellipk

from wavestab.elliptic import (
    MODULUS_CAP,
    EllipticDomainError,
    complete_integrals,
    dn,
    jacobi_sn_cn_dn,
)


def test_degenerate_modulus():
    pair = complete_integrals(0.0)
    assert pair.K == pytest.approx(math.pi / 2, abs=1e-15)
    assert pair.E == pytest.approx(math.pi / 2, abs=1e-15)
    assert pair.Kp == math.inf and pair.Ep == 1.0


def test_modulus_near_one_limits():
    pair = complete_integrals(0.999999)
    # E -> 1 with the leading log-term correction 0.5 kp^2 (ln(4/kp) - 1/2)
    kp = math.sqrt((1 - 0.999999) * (1 + 0.999999))
    corrected = 1.0 + 0.5 * kp**2 * (math.log(4.0 / kp) - 0.5)
    assert abs(pair.E - 1.0) < 1e-4
    assert pair.E == pytest.approx(corrected, abs=1e-9)
    assert pair.K > 7.0


def test_k08_against_quadrature_oracle():
    # independent oracle: direct quadrature of the defining integrals
    k = 0.8
    K_quad, _ = quad(lambda t: 1.0 / math.sqrt(1 - (k * math.sin(t)) ** 2), 0, math.pi / 2,
                     epsabs=1e-14, epsrel=1e-14)
    E_quad, _ = quad(lambda t: math.sqrt(1 - (k * math.sin(t)) ** 2), 0, math.pi / 2,
                     epsabs=1e-14, epsrel=1e-14)
    pair = complete_integrals(k)
    assert pair.K == pytest.approx(K_quad, rel=1e-13)
    assert pair.E == pytest.approx(E_quad, rel=1e-13)
    assert abs(pair.legendre_residual()) < 1e-13


def test_thirty_digit_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for k in (0.2, 0.5, 0.8, 0.95):
        pair = complete_integrals(k)
        assert pair.K == pytest.approx(float(mpmath.ellipk(k * k)), rel=1e-14)
        assert pair.E == pytest.approx(float(mpmath.ellipe(k * k)), rel=1e-14)


def test_legendre_relation_grid():
    for k in np.arange(0.1, 0.95, 0.1):
        pair = complete_integrals(k)
        assert abs(pair.legendre_residual()) < 1e-12
        assert 0.0 < pair.E <= pair.K


def _agm_reference(k):
    """The scalar AGM recurrence for K and E, one Python float at a time."""
    a, b, c = 1.0, math.sqrt((1.0 - k) * (1.0 + k)), k
    csum, half_pow = 0.5 * c * c, 0.5
    for _ in range(40):
        if abs(c) <= 1e-15 * a:
            break
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        half_pow *= 2.0
        csum += half_pow * c * c
    K = math.pi / (2.0 * a)
    return K, K * (1.0 - csum)


def test_array_moduli_match_scalar_recurrence():
    # every element of one array pass stops on its own: K, E and the
    # complementary pair equal the scalar recurrence bit for bit
    grid = np.concatenate([np.linspace(0.0, MODULUS_CAP, 1001), [1e-300, 1e-8, MODULUS_CAP]])
    pair = complete_integrals(grid.reshape(-1, 4))
    assert pair.K.shape == pair.Kp.shape == (251, 4)
    for k, K, E, Kp, Ep in zip(grid, pair.K.ravel(), pair.E.ravel(),
                               pair.Kp.ravel(), pair.Ep.ravel()):
        assert (K, E) == _agm_reference(k), k
        assert (K, E) == (complete_integrals(k).K, complete_integrals(k).E), k
        kp = math.sqrt((1.0 - k) * (1.0 + k))
        assert (Kp, Ep) == ((math.inf, 1.0) if kp > MODULUS_CAP else _agm_reference(kp)), k
    with pytest.raises(EllipticDomainError):
        complete_integrals(np.array([0.5, math.nan]))


def test_domain_errors():
    for bad in (-0.1, 1.0, 1.5, 1.0 - 1e-14):
        with pytest.raises(EllipticDomainError):
            complete_integrals(bad)
        with pytest.raises(EllipticDomainError):
            dn(0.3, bad)


def test_dn_identities():
    for k in (0.1, 0.5, 0.9):
        assert dn(0.0, k) == pytest.approx(1.0, abs=1e-14)
    for u in (0.0, 0.7, 2.3, -4.0):
        assert dn(u, 0.0) == pytest.approx(1.0, abs=1e-14)
    pair = complete_integrals(0.5)
    assert dn(pair.K, 0.5) == pytest.approx(math.sqrt(1 - 0.25), abs=1e-13)


def test_dn_periodicity_and_pythagoras():
    for k in (0.2, 0.5, 0.8):
        pair = complete_integrals(k)
        u = np.linspace(-2 * pair.K, 2 * pair.K, 257)
        s, c, d = jacobi_sn_cn_dn(u, k)
        d2 = jacobi_sn_cn_dn(u + 2 * pair.K, k)[2]
        assert np.abs(d2 - d).max() < 1e-12
        assert np.abs(d * d + k * k * s * s - 1.0).max() < 1e-12


def test_against_scipy_grid():
    for k in (1e-5, 0.05, 0.3, 0.6, 0.9, 0.99):
        K = ellipk(k * k)
        u = np.linspace(-3 * K, 3 * K, 401)
        s0, c0, d0, _ = ellipj(u, k * k)
        s1, c1, d1 = jacobi_sn_cn_dn(u, k)
        assert np.abs(s1 - s0).max() < 5e-13
        assert np.abs(c1 - c0).max() < 5e-13
        assert np.abs(d1 - d0).max() < 5e-13


@settings(max_examples=60, deadline=None)
@given(
    k=st.floats(min_value=0.0, max_value=0.97),
    u=st.floats(min_value=-30.0, max_value=30.0),
)
def test_dn_range_and_evenness(k, u):
    val = dn(u, k)
    kp = math.sqrt(1 - k * k)
    assert kp - 1e-10 <= val <= 1.0 + 1e-10
    assert val == pytest.approx(dn(-u, k), abs=1e-11)


@pytest.mark.parametrize("moduli", [0.8, np.linspace(0.55, 0.95, 200)],
                         ids=["one", "array200"])
def test_complete_integrals_timing(benchmark, moduli):
    # layer timing of the AGM kernel; the time is reported, never asserted
    pair = benchmark.pedantic(complete_integrals, args=(moduli,), rounds=20,
                              iterations=5)
    assert np.array_equal(pair.K, complete_integrals(moduli).K)
