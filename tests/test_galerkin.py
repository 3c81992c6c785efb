import math

import numpy as np
import pytest

from dataclasses import replace

from wavestab.galerkin import (
    DegenerateOperatorError,
    SpectrumReport,
    _secular_min,
    _variation_solve,
    assemble,
    constrained_min,
    default_tol_zero,
    spectrum,
)
from wavestab.criteria import derivatives, evaluate_wave, verdict
from wavestab.profile import FourierProfile, build_dnoidal

from conftest import galilean_shift, solve_variations


def apply_linearized(psi, omega, sym, f):
    """Exact action (M + omega - psi) f as a profile with N_psi + N_f modes.

    Used for residual checks beyond the Galerkin truncation; the product
    psi*f is computed alias-free on an oversampled grid.
    """
    N_out = psi.N + f.N
    M = 4 * (N_out + 1)
    prod = psi.values(M) * f.values(M)
    prod_prof = FourierProfile.from_samples(psi.L0, prod, N_out)
    out = prod_prof.coeffs * (-1.0)
    xi = 2.0 * math.pi * np.arange(N_out + 1) / psi.L0
    fc = np.zeros(N_out + 1)
    fc[: f.N + 1] = f.coeffs
    out += (np.asarray(sym(xi)) + omega) * fc
    return FourierProfile(psi.L0, out)


def _zero_profile(L0=20.0, N=32):
    return FourierProfile(L0, np.zeros(N + 1))


def test_zero_profile_diagonal(kawahara):
    psi = _zero_profile()
    op = assemble(psi, 1.0, kawahara)
    xi = psi.wavenumbers()
    expected = kawahara(xi) + 1.0
    assert np.abs(np.diag(op.even) - expected).max() < 1e-14
    assert np.abs(op.even - np.diag(expected)).max() == 0.0
    rep = spectrum(op)
    # eigenvalues are exactly the diagonal entries, each nonzero mode twice
    assert rep.n_neg == 0 and rep.n_zero == 0
    assert rep.eigenvalues[0] == pytest.approx(1.0, abs=1e-14)


def test_constant_profile_shift(kawahara):
    c = 0.35
    psi = FourierProfile(20.0, np.array([c] + [0.0] * 32))
    op = assemble(psi, 1.0, kawahara)
    base = assemble(_zero_profile(), 1.0, kawahara)
    assert np.abs(op.even - (base.even - c * np.eye(33))).max() < 1e-14
    assert np.abs(op.odd - (base.odd - c * np.eye(32))).max() < 1e-14


def test_assemble_refuses_an_under_resolved_truncation(wave08, kawahara):
    # 8 modes of the k = 0.8 wave leave a tail of 1e-5, above profile.TAIL_RTOL
    _, psi = wave08
    with pytest.raises(ValueError, match="operator truncation N=8"):
        assemble(psi, 1.0, kawahara, N=8)


def test_symmetry(op08):
    assert np.abs(op08.even - op08.even.T).max() < 1e-13
    assert np.abs(op08.odd - op08.odd.T).max() < 1e-13


def test_quadratic_form_quadrature_oracle(wave08, kawahara):
    # independent oracle: <Lf, f> = int (Mf + w f - psi f) f dx on a fine grid
    _, psi = wave08
    op = assemble(psi, 1.0, kawahara, N=64)
    rng = np.random.default_rng(3)
    c = np.zeros(65)
    c[:9] = rng.standard_normal(9)
    f = FourierProfile(psi.L0, c)
    Lf = apply_linearized(psi, 1.0, kawahara, f)
    M = 4 * (Lf.N + 1)
    vals = Lf.values(M) * f.values(M)
    oracle = vals.sum() * psi.L0 / M
    v = f.orthonormal(op.N)
    qf = float(v @ (op.even @ v))
    assert qf == pytest.approx(oracle, rel=1e-10)


def test_operator_on_constant(op08, wave08):
    _, psi = wave08
    ones = FourierProfile(psi.L0, np.array([1.0]))
    out = op08.even @ ones.orthonormal(op08.N)
    shifted = FourierProfile(
        psi.L0, np.concatenate([[1.0 - psi.coeffs[0]], -psi.coeffs[1:]])
    )
    assert np.abs(out - shifted.orthonormal(op08.N)).max() < 1e-12


def test_kernel_is_wave_derivative(op08):
    pp = op08.psi.derivative_orthonormal(op08.N)
    res = np.linalg.norm(op08.odd @ pp) / np.linalg.norm(pp)
    assert res < 1e-7


def test_spectral_counts_dnoidal(op08):
    rep = spectrum(op08)
    assert rep.n_neg == 1
    assert rep.n_zero == 1
    assert rep.kernel_corr > 0.999
    assert rep.holds_assumption
    assert rep.gap > 0.1


def test_counts_stable_under_refinement(wave08, kawahara):
    _, psi = wave08
    for N in (128, 256):
        rep = spectrum(assemble(psi, 1.0, kawahara, N=N))
        assert (rep.n_neg, rep.n_zero) == (1, 1)


def test_gauge_pair_identical_spectra(wave08, kawahara):
    params, psi = wave08
    alpha = 0.7
    psi2, w2, _ = galilean_shift(psi, params.omega, params.A, alpha)
    rep1 = spectrum(assemble(psi, 1.0, kawahara, N=128))
    rep2 = spectrum(assemble(psi2, w2, kawahara, N=128))
    scale = np.maximum(1.0, np.abs(rep1.eigenvalues))
    assert (np.abs(rep1.eigenvalues - rep2.eigenvalues) / scale).max() < 1e-12


def test_variation_solve_residuals(wave08, op08, variations08, kawahara):
    _, psi = wave08
    eta, beta = variations08
    res_eta = apply_linearized(psi, 1.0, kawahara, eta)
    lhs = res_eta.values(1024) + psi.values(1024)
    assert np.abs(lhs).max() < 1e-9
    res_beta = apply_linearized(psi, 1.0, kawahara, beta)
    assert np.abs(res_beta.values(1024) + 1.0).max() < 1e-9


def test_beta_for_zero_profile(kawahara):
    op = assemble(_zero_profile(), 2.0, kawahara)
    eta, beta = solve_variations(op)
    assert np.abs(beta.coeffs[0] + 1.0 / 2.0) < 1e-14
    assert np.abs(beta.coeffs[1:]).max() < 1e-14
    assert np.abs(eta.coeffs).max() < 1e-14  # psi = 0 forces eta = 0


def test_inverse_pairing_equals_minus_F_omega(wave08, op08, variations08):
    _, psi = wave08
    eta, beta = variations08
    x = np.linalg.solve(op08.even, psi.orthonormal(op08.N))
    pairing = float(x @ psi.orthonormal(op08.N))
    _, _, F_w, _ = derivatives(psi, eta, beta)
    assert pairing == pytest.approx(-F_w, rel=1e-6)


def test_eigenvalues_move_order_delta(wave08, kawahara):
    from wavestab.continuation import newton_solve

    params, psi = wave08
    delta = 1e-3
    moved = newton_solve(psi, params.omega + delta, params.A, kawahara)
    rep0 = spectrum(assemble(psi, params.omega, kawahara, N=96))
    rep1 = spectrum(assemble(moved.psi, params.omega + delta, kawahara, N=96))
    drift = np.abs(rep1.eigenvalues - rep0.eigenvalues).max()
    assert drift < 50 * delta
    assert drift > 1e-5 * delta  # the spectrum does move


def test_constrained_min_cases(op08, wave08, variations08):
    _, psi = wave08
    eta, beta = variations08
    w_free = constrained_min(op08)
    rep = spectrum(op08)
    assert w_free == pytest.approx(rep.eigenvalues[0], rel=1e-12)
    assert w_free < 0

    _, _, F_w, _ = derivatives(psi, eta, beta)
    assert F_w > 0  # hypothesis of the one-constraint minimum bound
    w1 = constrained_min(op08, even=psi.orthonormal(op08.N))
    assert w1 >= -1e-8

    w2 = constrained_min(op08, even=psi.orthonormal(op08.N),
                         odd=op08.psi.half_square().derivative_orthonormal(op08.N))
    assert w2 > 1e-8


def _dense_constrained_min(op, even=None, odd=None):
    """Reference: project the whole (2N+1)^2 matrix onto the complement of
    the stacked full-space constraints and take its lowest eigenvalue."""
    n_even = op.N + 1
    H = np.zeros((2 * op.N + 1, 2 * op.N + 1))
    H[:n_even, :n_even] = op.even
    H[n_even:, n_even:] = op.odd
    columns = []
    if even is not None:
        columns.append(np.concatenate([even, np.zeros(op.N)]))
    if odd is not None:
        columns.append(np.concatenate([np.zeros(n_even), odd]))
    C = np.column_stack(columns)
    Q, _ = np.linalg.qr(C, mode="complete")
    Q2 = Q[:, C.shape[1]:]
    return np.linalg.eigvalsh(Q2.T @ H @ Q2)[0]


@pytest.mark.parametrize("k, omega, N", [
    (0.8, 1.0, 64), (0.7, 0.5, 128), (0.6, 0.5, 256), (0.7, 0.5, 512),
    (0.8, 0.5, 512),
])
def test_constrained_min_matches_dense_oracle(branch_L, kawahara, k, omega, N):
    _, psi = build_dnoidal(k, branch_L[k], omega, N=128)
    op = assemble(psi, omega, kawahara, N=N)
    tol = 1e-9 * max(1.0, abs(spectrum(op).eigenvalues[0]))
    psi_c = psi.orthonormal(op.N)
    pair = dict(even=psi_c, odd=op.psi.half_square().derivative_orthonormal(op.N))
    for constraints in (dict(even=psi_c), dict(odd=pair["odd"]), pair):
        assert abs(constrained_min(op, **constraints)
                   - _dense_constrained_min(op, **constraints)) <= tol


def _diagonal_projected_min(lam, c):
    Q, _ = np.linalg.qr(np.asarray(c, dtype=float)[:, None], mode="complete")
    return np.linalg.eigvalsh(Q[:, 1:].T @ np.diag(lam) @ Q[:, 1:])[0]


def test_secular_min_deflation_cases():
    lam = np.array([-1.0, 0.5, 2.0, 3.0, 7.0])
    eig = (lam, np.eye(lam.size))
    # constraint along the lowest eigenvector: the next eigenvalue remains
    assert _secular_min(eig, [2.0, 0.0, 0.0, 0.0, 0.0]) == lam[1]
    # constraint orthogonal to the lowest eigenvector (z_0 = 0)
    assert _secular_min(eig, [0.0, 1.0, -2.0, 1.0, 3.0]) == lam[0]
    # a repeated lowest eigenvalue keeps one copy on the complement
    rep = np.array([1.0, 1.0, 2.0, 3.0, 5.0])
    assert _secular_min((rep, np.eye(rep.size)), [0.3, -0.8, 0.5, 1.0, 0.2]) == 1.0
    # generic constraint: the root strictly inside (lam_0, lam_1)
    c = np.array([0.6, 0.2, -0.4, 0.7, 0.1])
    w = _secular_min(eig, c)
    assert lam[0] < w < lam[1]
    assert w == pytest.approx(_diagonal_projected_min(lam, c), abs=1e-14)


def test_constrained_min_reuses_cached_eigenpairs(op08, wave08, monkeypatch):
    _, psi = wave08
    op08.eig_even, op08.eig_odd  # computed before the check

    def forbidden(*args, **kwargs):
        raise AssertionError("constrained_min must not factorize")

    for name in ("qr", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    w = constrained_min(op08, even=psi.orthonormal(op08.N),
                        odd=op08.psi.half_square().derivative_orthonormal(op08.N))
    assert w > 1e-8


def test_constrained_min_rejects_bad_constraint(op08, wave08):
    _, psi = wave08
    v = psi.orthonormal(op08.N)
    for bad in (dict(even=np.zeros_like(v)), dict(odd=np.zeros(op08.N)),
                dict(even=v[:-1]), dict(odd=v)):
        with pytest.raises(ValueError):
            constrained_min(op08, **bad)


def test_degenerate_even_block_reported(kawahara):
    # shift omega so that an even eigenvalue sits at zero
    psi = _zero_profile(N=16)
    op = assemble(psi, 0.0, kawahara)  # theta(0) + 0 = 0 on the constant mode
    with pytest.raises(DegenerateOperatorError):
        solve_variations(op)


def test_near_singular_even_block_reported(kawahara):
    # an even eigenvalue inside the zero band but not exactly zero: the LU
    # succeeds, and the band check still rejects the block
    op = assemble(_zero_profile(N=16), 1e-9, kawahara)
    with pytest.raises(DegenerateOperatorError):
        solve_variations(op)
    with pytest.raises(DegenerateOperatorError):
        evaluate_wave(_zero_profile(N=16), 1e-9, kawahara, N=16)


def test_coords_roundtrip(op08, wave08):
    _, psi = wave08
    v = psi.orthonormal(op08.N)
    back = FourierProfile.from_orthonormal(op08.L0, v)
    assert np.abs(back.coeffs - psi.truncated(op08.N).coeffs).max() < 1e-14


def _fancy_index_blocks(psi, omega, sym, N):
    """Reference assembly: the Hankel h0[i + j] and Toeplitz h0[|i - j|]
    parts gathered with (N+1)^2 index arrays."""
    theta = np.asarray(sym(2.0 * math.pi * np.arange(N + 1) / psi.L0), dtype=float)
    h = psi.psi_hat(2 * N)
    diag = theta + (omega - h[0])
    h0 = h.copy()
    h0[0] = 0.0
    n = np.arange(N + 1)
    S = h0[n[:, None] + n[None, :]] + h0[np.abs(n[:, None] - n[None, :])]
    S[0, 0] = 0.0
    S[0, 1:] = math.sqrt(2.0) * h0[1 : N + 1]
    S[1:, 0] = S[0, 1:]
    m = np.arange(1, N + 1)
    T = h0[np.abs(m[:, None] - m[None, :])] - h0[m[:, None] + m[None, :]]
    return np.diag(diag) - S, np.diag(diag[1:]) - T


@pytest.mark.parametrize("N", [17, 100, 256, 512])
def test_strided_blocks_equal_fancy_index_assembly(wave08, kawahara, N):
    params, psi = wave08
    op = assemble(psi, params.omega, kawahara, N=N)
    even, odd = _fancy_index_blocks(op.psi, params.omega, kawahara, N)
    assert np.array_equal(op.even, even)
    assert np.array_equal(op.odd, odd)


def _dense_spectrum(op):
    """Reference SpectrumReport from full eigh of both blocks, with the
    lowest even eigenvector and each block's eigenvalues."""
    tol = default_tol_zero(op)
    (vals_e, vecs_e), (vals_o, vecs_o) = (np.linalg.eigh(op.even),
                                          np.linalg.eigh(op.odd))
    vals = np.sort(np.concatenate([vals_e, vals_o]))
    in_band = np.abs(vals) <= tol
    i_o = int(np.argmin(np.abs(vals_o)))
    pp = op.psi.derivative_orthonormal(op.N)
    kernel_corr = 0.0
    if abs(vals_o[i_o]) <= np.abs(vals_e).min() and np.linalg.norm(pp) > 0:
        kernel_corr = float(abs(vecs_o[:, i_o] @ pp) / np.linalg.norm(pp))
    return SpectrumReport(
        eigenvalues=vals, n_neg=int(np.sum(vals < -tol)),
        n_zero=int(np.sum(in_band)), kernel_corr=kernel_corr,
        gap=float(np.abs(vals[~in_band]).min()), tol_zero=tol,
    ), vecs_e[:, 0], (vals_e, vals_o)


@pytest.mark.parametrize("N", [128, 256, 512])
@pytest.mark.parametrize("k, omega", [(0.8, 1.0), (0.7, 0.5), (0.9, 1.0)])
def test_eigenvalue_only_path_matches_dense_eigh(branch_L, kawahara, k, omega, N):
    # (0.8, 1.0) takes the determinant route, (0.7, 0.5) the coercivity
    # route and (0.9, 1.0), whose average is below the speed, is inconclusive
    _, psi = build_dnoidal(k, branch_L[k], omega, N=128)
    op = assemble(psi, omega, kawahara, N=N)
    rep = spectrum(op)
    oracle, chi, (ref_e, ref_o) = _dense_spectrum(op)
    eps = np.finfo(float).eps
    for vals, ref in ((op.values_even, ref_e), (op.values_odd, ref_o)):
        assert np.abs(vals - ref).max() <= 100 * eps * np.abs(ref).max()
    assert (rep.n_neg, rep.n_zero) == (oracle.n_neg, oracle.n_zero) == (1, 1)
    assert rep.kernel_corr == pytest.approx(oracle.kernel_corr, rel=1e-10)

    report = evaluate_wave(psi, omega, kawahara, N=N)
    psi_c = psi.orthonormal(op.N)
    chi_corr = abs(chi @ psi_c) / np.linalg.norm(psi_c)
    assert report.chi_psi_corr == pytest.approx(chi_corr, rel=1e-10)
    assert report.spectrum.kernel_corr == pytest.approx(oracle.kernel_corr, rel=1e-10)
    assert (report.spectrum.n_neg, report.spectrum.n_zero) == (1, 1)
    assert report.verdict == verdict(replace(report, spectrum=oracle))


def test_shifted_eigenvector_on_diagonal_block(kawahara):
    # the zero wave's blocks are diagonal: each eigenvalue is a diagonal entry
    # exactly, so the block is singular at an unshifted eigenvalue, and a
    # zero start or a unit start off the target reaches no target component
    for parity, n in (("even", 33), ("odd", 32)):
        op = assemble(_zero_profile(), 1.0, kawahara)
        block = getattr(op, parity)
        order = np.argsort(np.diag(block))
        for i in (0, 1, n // 2, n - 1):
            off_target = np.zeros(n)
            off_target[order[(i + 1) % n]] = 1.0
            for start in (np.zeros(n), off_target):
                v = op.eigenvector(parity, i, start)
                assert abs(v[order[i]]) == pytest.approx(1.0, abs=1e-14)
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
        assert f"eig_{parity}" not in op.__dict__  # no eigh behind the result


def test_shifted_eigenvector_from_orthogonal_start(op08):
    # a start orthogonal to the target still reaches it on a dense block
    op = assemble(op08.psi, op08.omega, op08.sym, N=op08.N)
    vals, vecs = np.linalg.eigh(op.odd)
    i = int(np.argmin(np.abs(vals)))
    target = vecs[:, i]
    start = op.psi.derivative_orthonormal(op.N)
    start -= (start @ target) * target
    v = op.eigenvector("odd", i, start)
    assert 1.0 - abs(v @ target) < 1e-12
    # once eigh has run, its columns are returned as they are
    op.eig_odd
    assert np.array_equal(op.eigenvector("odd", i, start), op.eig_odd.eigenvectors[:, i])


# layer timings at N_op 256 for the benchmark's wave; the times are reported,
# never asserted

def test_assemble_eigh_timing(benchmark, wave08, kawahara):
    # a fresh operator per round, so both eigendecompositions are timed
    _, psi = wave08

    def assemble_eigh():
        op = assemble(psi, 1.0, kawahara, N=256)
        return op.eig_even, op.eig_odd

    even, odd = benchmark.pedantic(assemble_eigh, rounds=5, iterations=1)
    ref = assemble(psi, 1.0, kawahara, N=256)
    assert np.array_equal(even.eigenvalues, ref.eig_even.eigenvalues)
    assert np.array_equal(odd.eigenvalues, ref.eig_odd.eigenvalues)


def test_variation_solve_timing(benchmark, op08):
    args = (op08.even, op08.psi)
    eta, beta = benchmark.pedantic(_variation_solve, args=args, rounds=20,
                                   iterations=1)
    ref_eta, ref_beta = _variation_solve(*args)
    assert np.array_equal(eta.coeffs, ref_eta.coeffs)
    assert np.array_equal(beta.coeffs, ref_beta.coeffs)


def test_constrained_min_timing(benchmark, op08, wave08):
    # on the operator's cached eigenpairs, as evaluate_wave calls it
    _, psi = wave08
    kw = dict(even=psi.orthonormal(op08.N),
              odd=op08.psi.half_square().derivative_orthonormal(op08.N))
    ref = constrained_min(op08, **kw)
    assert benchmark.pedantic(constrained_min, args=(op08,), kwargs=kw,
                              rounds=20, iterations=5) == ref
