import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import ellipj, ellipk

from wavestab.elliptic import complete_integrals
from wavestab.klcurve import solve_branch
from wavestab.profile import (
    FourierProfile,
    build_dnoidal,
    dnoidal_coefficients,
    extract_A,
    _odd_content,
    pi_residual,
)
from conftest import BRANCH_MODULI, complementary, galilean_shift, plain_dnoidal_a


def _csch(x):
    """1/sinh(x) for positive x without overflow."""
    x = np.asarray(x, dtype=float)
    e = np.exp(-x)
    return 2.0 * e / (1.0 - e * e)


def csch_coefficients(params, n_max):
    """Closed-form Fourier coefficients sigma(n) = hat(psi)(n), n = 1..n_max:

    sigma(n) = (n/2) csch(n pi K'/K) (pi^2/K^2)
               * (b + d ((4-2k^2)/3 + n^2 pi^2 / (6 K^2))).
    """
    k, K, Kp = params.k, params.K, complementary(params.k).K
    b, d = params.b, params.d
    n = np.arange(1, n_max + 1, dtype=float)
    cs = _csch(n * math.pi * Kp / K)
    bracket = b + d * ((4.0 - 2.0 * k**2) / 3.0 + n**2 * math.pi**2 / (6.0 * K**2))
    gamma = (math.pi**2 / K**2) * bracket
    return 0.5 * gamma * n * cs


def test_roundtrip_reconstruction():
    rng = np.random.default_rng(7)
    c = rng.standard_normal(33) * np.exp(-0.3 * np.arange(33))
    prof = FourierProfile(11.0, c)
    for M in (2 * 32 + 1, 4 * 33, 256):
        samples = prof.values(M)
        back = FourierProfile.from_samples(11.0, samples, 32)
        assert np.abs(back.coeffs - c).max() < 1e-12
        assert _odd_content(samples) < 1e-13


def test_d_formula_exact():
    for k in (0.3, 0.8):
        for L in (10.0, 25.0):
            _, _, d = dnoidal_coefficients(k, L, 1.0)
            K = complete_integrals(k).K
            assert d * L**4 / K**4 == pytest.approx(26880.0, rel=1e-14)


def test_a_linear_in_omega():
    a1, b1, d1 = dnoidal_coefficients(0.7, 18.0, 1.0)
    a2, b2, d2 = dnoidal_coefficients(0.7, 18.0, 1.0 + 0.37)
    assert a2 - a1 == pytest.approx(0.37, rel=1e-13)
    assert b1 == b2 and d1 == d2
    a1 = plain_dnoidal_a(0.7, 18.0, 1.0)
    a2 = plain_dnoidal_a(0.7, 18.0, 1.0 + 0.37)
    assert a2 - a1 == pytest.approx(0.37, rel=1e-13)


def test_golden_values_high_precision():
    # closed forms evaluated with a 30-digit oracle at (k, L, w) = (0.8, 25, 1)
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    k, L, w = mpmath.mpf("0.8"), mpmath.mpf(25), mpmath.mpf(1)
    K = mpmath.ellipk(k * k)
    E = mpmath.ellipe(k * k)
    a_m = (1 / (507 * L**4)) * (
        (-(k**4) + k**2 + 1) * 302848 * K**4
        + 14560 * L**2 * K**2 * (k**2 - 2)
        + 43680 * L**2 * E * K
        + L**4 * (-31 + 507 * w)
    )
    b_m = (mpmath.mpf(1120) / (13 * L**4)) * ((208 * k**2 - 416) * K**2 + L**2) * K**2
    d_m = 26880 * K**4 / L**4
    _, b, d = dnoidal_coefficients(0.8, 25.0, 1.0)
    a = plain_dnoidal_a(0.8, 25.0, 1.0)
    assert a == pytest.approx(float(a_m), rel=1e-14)
    assert b == pytest.approx(float(b_m), rel=1e-14)
    assert d == pytest.approx(float(d_m), rel=1e-14)
    # frozen golden values (30-digit evaluation, rounded to double)
    assert a == pytest.approx(1.0709432692294387, rel=1e-13)
    assert b == pytest.approx(-0.44010170603379395, rel=1e-13)
    assert d == pytest.approx(1.0906978529902196, rel=1e-13)


def test_corrected_a_offset():
    for k, L in ((0.6, 17.0), (0.8, 25.80480180965147)):
        a_c, _, _ = dnoidal_coefficients(k, L, 1.0)
        a_p = plain_dnoidal_a(k, L, 1.0)
        K = complete_integrals(k).K
        assert a_p - a_c == pytest.approx((3584.0 / 3.0) * K**4 / L**4, rel=1e-13)


def test_mean_equals_a_via_quadrature_oracle():
    # oracle: the bracket constants are the quadrature means of dn^2, dn^4
    k = 0.8
    pair = complete_integrals(k)
    K, E = pair.K, pair.E
    m2_quad, _ = quad(lambda u: ellipj(u, k * k)[2] ** 2, 0, 2 * K, epsabs=1e-13)
    m4_quad, _ = quad(lambda u: ellipj(u, k * k)[2] ** 4, 0, 2 * K, epsabs=1e-13)
    assert m2_quad / (2 * K) == pytest.approx(E / K, abs=1e-12)
    assert m4_quad / (2 * K) == pytest.approx(
        (2 - k**2) * 2 * E / (3 * K) - (1 - k**2) / 3, abs=1e-12
    )
    params, psi = build_dnoidal(k, solve_branch(k)[1], 1.0)
    assert abs(psi.mean() - params.a) < 1e-10


def test_profile_even_and_periodic(wave08):
    params, psi = wave08
    M = 4 * (psi.N + 1)
    vals = psi.values(M)
    # evenness: psi(-x) = psi(x) on the sample grid
    assert np.abs(vals[1:] - vals[:0:-1]).max() < 1e-12
    # periodicity is structural; evaluating at x and x + L gives the same point
    xs = np.array([0.3, 1.7, 5.1])
    direct = sum(
        params_c * np.cos(2 * np.pi * n * xs / psi.L0)
        for n, params_c in enumerate(psi.coeffs)
    )
    shifted = sum(
        params_c * np.cos(2 * np.pi * n * (xs + psi.L0) / psi.L0)
        for n, params_c in enumerate(psi.coeffs)
    )
    assert np.abs(direct - shifted).max() < 1e-12


def test_truncation_guard():
    with pytest.raises(ValueError):
        build_dnoidal(0.8, 25.0, 1.0, N=7)
    # N = 8 is accepted as a size, but leaves a tail of 1e-5 at k = 0.8
    with pytest.raises(ValueError, match="truncation N=8"):
        build_dnoidal(0.8, 25.0, 1.0, N=8)


def test_non_finite_wave_refused():
    # a huge omega overflows a and the samples; build_dnoidal reports it
    # once, and no RuntimeWarning escapes (pytest turns one into an error)
    L = solve_branch(0.8)[1]
    with pytest.raises(FloatingPointError, match="non-finite wave at k=0.8"):
        build_dnoidal(0.8, L, 1e308)


@pytest.mark.parametrize("L0", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_period_not_finite_and_positive_refused(L0):
    # NaN fails no comparison, so `L0 <= 0` alone let it through
    with pytest.raises(ValueError, match="finite and positive"):
        FourierProfile(L0, [1.0, 0.5])


def test_build_dnoidal_A_is_extract_A_bit_for_bit(kawahara):
    # build_dnoidal reads A as h_0 - omega c_0; extract_A, the reference,
    # takes minus the mean of the whole residual; on and off the branch
    for k in (0.6, 0.7, 0.8, 0.9, 0.95):
        L_branch = solve_branch(k)[1]
        for L in (L_branch, 0.8 * L_branch, 1.25 * L_branch, 20.0):
            for omega in (-0.7, 0.3, 1.0, 2.5):
                for N in (32, 64, 128, 256):
                    params, psi = build_dnoidal(k, L, omega, N=N)
                    A, _ = extract_A(psi, omega, kawahara)
                    assert repr(params.A) == repr(A), (k, L, omega, N)


def test_extract_A_constant_profile(kawahara):
    c, w = 1.7, 0.9
    prof = FourierProfile(12.0, np.array([c]))
    A, res = extract_A(prof, w, kawahara)
    assert A == pytest.approx(c * c / 2 - w * c, rel=1e-14)
    assert res < 1e-14


def test_residual_on_branch(branch_L, kawahara):
    for k in BRANCH_MODULI:
        params, psi = build_dnoidal(k, branch_L[k], 1.0)
        _, res = extract_A(psi, 1.0, kawahara)
        assert res < 1e-8 * psi.sup_norm(), (k, res)


def test_residual_uncorrected_a_is_large(branch_L, kawahara):
    # the uncorrected variant of `a` leaves an O(1e-2) defect
    L = branch_L[0.8]
    params, psi = build_dnoidal(0.8, L, 1.0)
    psi = psi.shifted(plain_dnoidal_a(0.8, L, 1.0) - params.a)
    _, res = extract_A(psi, 1.0, kawahara)
    assert res > 1e-3


def test_detuned_negative_control(branch_L, kawahara):
    L = branch_L[0.8]
    params, psi = build_dnoidal(0.8, L, 1.0)
    pair = complete_integrals(0.8)
    K, E = pair.K, pair.E
    M = 4 * 129
    x = np.arange(M) * (L / M)
    _, _, dnv, _ = ellipj(2 * K * x / L, 0.64)
    mean2 = E / K
    mean4 = (2 - 0.64) * 2 * E / (3 * K) - (1 - 0.64) / 3
    for factor, floor in ((1.01, 1e-4), (1.10, 1e-3)):
        vals = (params.a + factor * params.b * (dnv**2 - mean2)
                + params.d * (dnv**4 - mean4))
        bad = FourierProfile.from_samples(L, vals, 128)
        _, res = extract_A(bad, 1.0, kawahara)
        assert res > floor, (factor, res)


def test_csch_even_sequence():
    # n * csch(n c) is even in n
    c = 2.3
    for n in (1, 2, 5):
        assert n / math.sinh(n * c) == pytest.approx((-n) / math.sinh(-n * c), rel=1e-15)


def _offbranch_params(k=0.5, L=20.0, omega=1.0):
    params, _ = build_dnoidal(k, L, omega)
    return params


def test_decay_ratio_fixed_variant():
    # pure n*csch sequence at k=0.5: ratio at n=20 within 1e-3 of the limit;
    # a constant prefactor would cancel in the ratio
    p = _offbranch_params()
    n = np.arange(1, 22, dtype=float)
    Kp = complementary(p.k).K
    sig = n * _csch(n * math.pi * Kp / p.K)
    limit = math.exp(-math.pi * Kp / p.K)
    assert abs(sig[20] / sig[19] - limit) < 1e-3


def test_decay_ratio_derived_variant(branch_L):
    params, _ = build_dnoidal(0.8, branch_L[0.8], 1.0)
    sig = csch_coefficients(params, 81)
    limit = math.exp(-math.pi * complementary(params.k).K / params.K)
    ratios = sig[1:] / sig[:-1]
    diffs = np.abs(ratios - limit)
    # approaches the limit from above; n^3 prefactor slows convergence
    assert diffs[79 - 1] < 5e-3
    assert diffs[79 - 1] < diffs[40 - 1] < diffs[20 - 1]


def test_log_concavity():
    for params in (_offbranch_params(), _offbranch_params(0.8, 25.80480180965147)):
        sig = csch_coefficients(params, 51)
        mid = sig[1:-1]
        assert np.all(mid * mid >= sig[:-2] * sig[2:] * (1 - 1e-12))


def test_fft_matches_derived_formula(branch_L):
    params, psi = build_dnoidal(0.8, branch_L[0.8], 1.0)
    hat = psi.psi_hat(10)
    derived = csch_coefficients(params, 10)
    for n in range(1, 11):
        assert abs(derived[n - 1] - hat[n]) < 1e-6 * abs(hat[n]), n


def test_galilean_family(branch_L):
    L = branch_L[0.7]
    alpha = 0.41
    _, psi1 = build_dnoidal(0.7, L, 1.0)
    _, psi2 = build_dnoidal(0.7, L, 1.0 + alpha)
    assert psi2.coeffs[0] - psi1.coeffs[0] == pytest.approx(alpha, rel=1e-12)
    assert np.abs(psi2.coeffs[1:] - psi1.coeffs[1:]).max() < 1e-14


def test_galilean_shift_preserves_solution(wave08, kawahara):
    params, psi = wave08
    alpha = -0.23
    psi2, w2, A2 = galilean_shift(psi, params.omega, params.A, alpha)
    A_extracted, res = extract_A(psi2, w2, kawahara)
    assert A_extracted == pytest.approx(A2, rel=1e-10)
    assert res < 1e-8


def test_tail_ratio_ignores_the_mean(wave08):
    # the scale is the largest oscillating coefficient, so a Galilean shift,
    # which moves only c_0, leaves the dropped-content measure unchanged
    _, psi = wave08
    for alpha in (0.0, 1e2, 1e4):
        shifted = psi.shifted(alpha)
        assert shifted.tail_ratio() == psi.tail_ratio()
        assert shifted.tail_ratio(8) == psi.tail_ratio(8)
    c = np.abs(psi.coeffs)
    assert psi.tail_ratio(8) == c[9:].max() / c[1:].max()
    assert psi.tail_ratio(psi.N) == 0.0
    assert FourierProfile(12.0, [1.7, 0.0, 0.0, 0.0]).tail_ratio() == 0.0
    assert FourierProfile(12.0, [0.0, 1.0]).tail_ratio() == 0.0    # N < 2


# --- coefficient conventions: one owner, FourierProfile ---------------------

def _random_profile(seed, L0, N):
    rng = np.random.default_rng(seed)
    return FourierProfile(L0, rng.standard_normal(N + 1) * np.exp(-0.2 * np.arange(N + 1)))


profiles = st.builds(
    _random_profile,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    L0=st.floats(min_value=0.5, max_value=60.0),
    N=st.integers(min_value=0, max_value=48),
)


@settings(max_examples=60, deadline=None)
@given(p=profiles)
def test_orthonormal_roundtrip(p):
    # each coordinate is scaled by sqrt(L0) or sqrt(L0/2) and back by
    # 1/sqrt(L0) or sqrt(2/L0): a few roundings, never more
    back = FourierProfile.from_orthonormal(p.L0, p.orthonormal(p.N))
    assert back.L0 == p.L0
    np.testing.assert_allclose(back.coeffs, p.coeffs, rtol=1e-15, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(p=profiles, q_seed=st.integers(min_value=0, max_value=2**32 - 1),
       q_N=st.integers(min_value=0, max_value=48))
def test_inner_is_orthonormal_dot(p, q_seed, q_N):
    q = _random_profile(q_seed, p.L0, q_N)
    n = max(p.N, q.N)
    dot = p.orthonormal(n) @ q.orthonormal(n)
    scale = math.sqrt(p.inner(p) * q.inner(q))
    assert abs(p.inner(q) - dot) <= 1e-13 * scale
    assert p.inner(q) == q.inner(p)


@settings(max_examples=60, deadline=None)
@given(p=profiles)
def test_half_square_matches_fine_samples(p):
    hs = p.half_square()
    assert hs.N == 2 * p.N
    M = 8 * 4 * (p.N + 1)
    u = p.values(M)
    half = 0.5 * u * u
    assert np.abs(hs.values(M) - half).max() <= 1e-13 * max(1.0, np.abs(half).max())


@settings(max_examples=60, deadline=None)
@given(p=profiles, N=st.integers(min_value=1, max_value=64))
def test_derivative_orthonormal_parseval(p, N):
    # |psi'|^2 over one period from coordinates and from sampled psi'
    w = p.derivative_orthonormal(N)
    assert w.shape == (N,)
    M = 4 * (p.N + 1)
    x = p.grid(M)
    n = np.arange(1, min(p.N, N) + 1)
    xi = 2.0 * math.pi * n / p.L0
    dpsi = -(p.coeffs[n] * xi) @ np.sin(np.outer(xi, x))
    quad_rule = float(dpsi @ dpsi) * p.L0 / M
    assert float(w @ w) == pytest.approx(quad_rule, rel=1e-12, abs=1e-300)


@pytest.mark.filterwarnings("ignore:profile tail")
@settings(max_examples=40, deadline=None)
@given(p=profiles, omega=st.floats(min_value=-2.0, max_value=2.0))
def test_extract_A_is_the_mean_of_pi_residual(p, omega, kawahara):
    A, res = extract_A(p, omega, kawahara)
    r = pi_residual(p, omega, A, kawahara)
    assert r.coeffs[0] == 0.0
    assert res == r.sup_norm()


def test_build_dnoidal_timing(benchmark, branch_L):
    # layer timing of the wave at N 128; the time is reported, never asserted
    args = (0.8, branch_L[0.8], 1.0)
    _, psi = benchmark.pedantic(build_dnoidal, args=args, kwargs={"N": 128},
                                rounds=20, iterations=1)
    assert np.array_equal(psi.coeffs, build_dnoidal(*args, N=128)[1].coeffs)
