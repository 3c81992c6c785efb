import itertools
import math

import numpy as np
import pytest

from dataclasses import replace

from wavestab import galerkin
from wavestab.galerkin import (
    RESIDUAL_MULT,
    DegenerateOperatorError,
    SpectrumReport,
    _block_min,
    _check_even_band,
    _secular_min,
    assemble,
    constrained_min,
    solve_variations,
    spectrum,
)
from wavestab.criteria import (VERDICT_COERCIVITY, VERDICT_DETERMINANT,
                               VERDICT_INCONCLUSIVE, choose_witness, derivatives,
                               evaluate_wave, verdict)
from wavestab.klcurve import solve_branch
from wavestab.multiplier import builtin_symbol
from wavestab.profile import FourierProfile, build_dnoidal

from conftest import checked_variations, galilean_shift

EPS = np.finfo(float).eps


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


def test_zero_band_width_once_per_operator(wave08, kawahara, monkeypatch):
    # spectrum and the even-band check share one sup-norm transform
    _, psi = wave08
    op = assemble(psi, 1.0, kawahara, N=128)
    expected = 1e-6 * max(1.0, abs(op.omega), op.psi.sup_norm())
    calls = []
    sup_norm = FourierProfile.sup_norm

    def counted(self):
        calls.append(1)
        return sup_norm(self)

    monkeypatch.setattr(FourierProfile, "sup_norm", counted)
    assert spectrum(op).tol_zero == expected
    _check_even_band(op)
    assert len(calls) == 1


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
    eta, beta = checked_variations(op)
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
    # the lowest (even) eigenvalue less its allowance rho, a lower bound on
    # the dense one within 2 rho of it
    rho = op08.eig_even.rho
    assert w_free == rep.eigenvalues[0] - rho
    assert 0.0 <= np.linalg.eigvalsh(op08.even)[0] - w_free <= 2.0 * rho
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


def test_odd_floor_fallback_matches_dense_oracle(branch_L, kawahara):
    # a constraint nearly orthogonal to psi' (the kernel mode) leaves the odd
    # minimum near zero, under the even one: the odd block sets the minimum,
    # and the bound meets the dense oracle
    _, psi = build_dnoidal(0.7, branch_L[0.7], 0.5, N=128)
    op = assemble(psi, 0.5, kawahara, N=64)
    psi_c = psi.orthonormal(op.N)
    pp = op.psi.derivative_orthonormal(op.N)
    unit = pp / np.linalg.norm(pp)
    r = np.random.default_rng(3).standard_normal(op.N)
    odd = r - (r @ unit) * unit + 1e-3 * unit
    w = constrained_min(op, even=psi_c, odd=odd)
    assert w < _dense_block_min(op.even, psi_c)
    tol = 1e-9 * max(1.0, abs(spectrum(op).eigenvalues[0]))
    assert abs(w - _dense_constrained_min(op, even=psi_c, odd=odd)) <= tol


def test_odd_floor_is_below_the_odd_minimum(branch_L, kawahara):
    # the odd block's bound stays below its dense constrained minimum, up to
    # the dense solve's rounding, for any constraint from along psi' to
    # orthogonal to it, and within 1e-9 of it for a constraint on the low 16
    # modes, as the report's are (one with content on every mode is charged
    # for its part outside the resolved pairs at the floor, a looser bound)
    _, psi = build_dnoidal(0.7, branch_L[0.7], 0.5, N=128)
    op = assemble(psi, 0.5, kawahara, N=64)
    pp = op.psi.derivative_orthonormal(op.N)
    unit = pp / np.linalg.norm(pp)
    rounding = op.N * EPS * _norm(op.odd)
    rng = np.random.default_rng(5)
    for modes, slack in ((16, 1e-9), (op.N, np.inf)):
        for weight in (0.0, 1e-3, 0.1, 0.5, 1.0, 3.0, 1e3, np.inf):
            r = np.zeros(op.N)
            r[:modes] = rng.standard_normal(modes)
            r -= (r @ unit) * unit
            c = unit if weight == np.inf else r / np.linalg.norm(r) + weight * unit
            w = _block_min(op.eig_odd, c, op.N)
            dense = _dense_block_min(op.odd, c)
            assert dense - slack <= w <= dense + rounding, (modes, weight)


@pytest.mark.parametrize("N", [256, 512])
@pytest.mark.parametrize("k", [0.6, 0.7, 0.8])
def test_odd_floor_clears_on_benchmark_coercivity_waves(branch_L, kawahara, k, N):
    # over the benchmark's coercivity range (k 0.60-0.80, omega 0.5) the odd
    # block's constrained minimum clears the even one, so w_psi_psip is the
    # even block's, within 1e-9 of the dense oracle
    _, psi = build_dnoidal(k, branch_L[k], 0.5, N=128)
    report = evaluate_wave(psi, 0.5, kawahara, N)
    assert report.verdict == VERDICT_COERCIVITY
    op = assemble(psi, 0.5, kawahara, N=N)
    odd = op.psi.half_square().derivative_orthonormal(N)
    w_even = _dense_block_min(op.even, psi.orthonormal(N))
    assert _dense_block_min(op.odd, odd) > w_even
    assert report.w_psi_psip == pytest.approx(w_even, abs=1e-9)


def _dense_block_min(block, c):
    """Reference: the lowest eigenvalue of the block projected onto the
    complement of c."""
    Q, _ = np.linalg.qr(np.asarray(c, dtype=float)[:, None], mode="complete")
    return np.linalg.eigvalsh(Q[:, 1:].T @ block @ Q[:, 1:])[0]


def _norm(block):
    """An upper bound on the block's 2-norm: its largest absolute row sum."""
    return np.abs(block).sum(axis=1).max()


def test_secular_min_deflation_cases():
    # constraints in the eigenvector coordinates V^T c, unnormalized
    lam = np.array([-1.0, 0.5, 2.0, 3.0, 7.0])
    # constraint along the lowest eigenvector: the next eigenvalue remains
    assert _secular_min(lam, [2.0, 0.0, 0.0, 0.0, 0.0]) == lam[1]
    # constraint orthogonal to the lowest eigenvector (z_0 = 0)
    assert _secular_min(lam, [0.0, 1.0, -2.0, 1.0, 3.0]) == lam[0]
    # a repeated lowest eigenvalue keeps one copy on the complement
    rep = np.array([1.0, 1.0, 2.0, 3.0, 5.0])
    assert _secular_min(rep, [0.3, -0.8, 0.5, 1.0, 0.2]) == 1.0
    # generic constraint: the root strictly inside (lam_0, lam_1), and the
    # same root in a rotated eigenbasis from V^T c
    c = np.array([0.6, 0.2, -0.4, 0.7, 0.1])
    w = _secular_min(lam, c)
    assert lam[0] < w < lam[1]
    assert w == pytest.approx(_dense_block_min(np.diag(lam), c), abs=1e-14)
    V, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((5, 5)))
    dense = _dense_block_min(V @ np.diag(lam) @ V.T, V @ c)
    assert _secular_min(lam, V.T @ (V @ c)) == pytest.approx(dense, abs=1e-13)
    with pytest.raises(ValueError):
        _secular_min(lam, np.zeros(5))


def _reference_secular_min(lam, z):
    """`_secular_min` with a fresh quotient at every midpoint, summed by
    np.sum: the reference whose bits the in-place loop must keep."""
    eps = np.finfo(float).eps
    z = galerkin._unit(z, lam.size)
    live = np.abs(z) > lam.size * eps
    poles, weights = lam[live], z[live] ** 2
    first = np.ones(poles.size, dtype=bool)
    first[1:] = np.diff(poles) > 8.0 * eps * np.maximum(
        np.abs(poles[:-1]), np.abs(poles[1:]))
    kept = np.concatenate([lam[~live], poles[~first]])
    weights = np.add.reduceat(weights, np.flatnonzero(first))
    poles = poles[first]
    w_kept = kept.min() if kept.size else np.inf
    if poles.size < 2:
        return w_kept
    lo, hi = poles[0], poles[1]
    while hi - lo > 4.0 * eps * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if np.sum(weights / (poles - mid)) < 0.0:
            lo = mid
        else:
            hi = mid
    return min(w_kept, 0.5 * (lo + hi))


def _seeded_secular_sets(rng, count):
    """(poles, z) sets: ascending poles with repeated and nearly repeated
    values, and z with deflated (zero or negligible) and generic entries."""
    for _ in range(count):
        size = int(rng.integers(2, 80))
        poles = np.sort(rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3))
        repeats = rng.choice(size - 1, size=min(size - 1, 2), replace=False)
        for i in repeats[: rng.integers(0, 3)]:
            poles[i + 1] = poles[i] * (1.0 + rng.choice([0.0, EPS, 1e-9]))
        poles.sort()
        z = rng.standard_normal(size)
        z[rng.random(size) < 0.2] = 0.0
        z[rng.random(size) < 0.1] *= 1e-18
        if not z.any():
            z[-1] = 1.0
        yield poles, z


def test_secular_min_keeps_the_reference_bits(kawahara):
    # the bisection's in-place f(mid) takes every midpoint to the side the
    # reference takes, so each bound has its bits: on seeded sets, and on
    # both blocks' resolved pairs of coercivity waves with the constraints a
    # report takes and seeded weights
    rng = np.random.default_rng(4201)
    sets = list(_seeded_secular_sets(rng, 600))
    captured = []

    def capture(poles, z, _fn=galerkin._secular_min):
        captured.append((poles, np.asarray(z, dtype=float)))
        return _fn(poles, z)

    for k, N_op in itertools.product(np.linspace(0.60, 0.80, 6), (256, 512)):
        _, psi = build_dnoidal(k, solve_branch(k)[1], 0.5, N=128)
        op = assemble(psi, 0.5, kawahara, N=N_op)
        captured.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(galerkin, "_secular_min", capture)
            constrained_min(op, even=psi.orthonormal(N_op),
                            odd=op.psi.half_square().derivative_orthonormal(N_op))
        assert len(captured) == 2
        for poles, z in captured:
            sets.append((poles, z))
            sets.extend((poles, rng.standard_normal(poles.size)) for _ in range(20))
    assert len(sets) >= 1000
    for poles, z in sets:
        assert _secular_min(poles, z) == _reference_secular_min(poles, z), (poles, z)


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
        checked_variations(op)


def test_near_singular_even_block_reported(kawahara):
    # an even eigenvalue inside the zero band but not exactly zero: the LU
    # succeeds, and the band check still rejects the block
    op = assemble(_zero_profile(N=16), 1e-9, kawahara)
    with pytest.raises(DegenerateOperatorError):
        checked_variations(op)
    with pytest.raises(DegenerateOperatorError):
        evaluate_wave(_zero_profile(N=16), 1e-9, kawahara, N=16)


def test_coords_roundtrip(op08, wave08):
    _, psi = wave08
    v = psi.orthonormal(op08.N)
    back = FourierProfile.from_orthonormal(op08.psi.L0, v)
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


@pytest.mark.parametrize("m", [1, 52, 128, 129, 384, pytest.param(None, id="n")])
def test_leading_rows_have_the_whole_block_bits(wave08, kawahara, m):
    # the row-count assembly builds K's leading m rows over their first
    # w = min(n, m + psi.N) columns and the diagonal past them with the whole
    # block's bits, one profile alone or in a stack; past column w the rows
    # are +0.0 (m is capped at the block's size n, None standing for n)
    params, psi = wave08
    stack = FourierProfile(psi.L0, np.stack([psi.coeffs, 1.01 * psi.coeffs]))
    omega = np.array([params.omega, params.omega + 0.1])
    for N, odd in itertools.product((128, 512), (False, True)):
        n = N + (not odd)
        rows = n if m is None else min(m, n)
        w = min(n, rows + psi.N)
        wholes = galerkin._assembly(stack, omega, kawahara, N, n, odd)[0]
        heads, tails = galerkin._assembly(stack, omega, kawahara, N, rows, odd)
        for j, K in enumerate(wholes):
            alone = galerkin._assembly(FourierProfile(psi.L0, stack.coeffs[j]), omega[j],
                                       kawahara, N, rows, odd)
            for head, tail in ((heads[j], tails[j]), alone):
                assert _bits(head) == _bits(K[:rows, :w]), (N, odd)
                assert _bits(tail) == _bits(np.diagonal(K)[rows:]), (N, odd)
            assert _bits(K[:rows, w:]) == _bits(np.zeros((rows, n - w))), (N, odd)


def _bits(a):
    """The float64 bits of a, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(a).tobytes()


def _dense_spectrum(op):
    """Reference SpectrumReport from full eigh of both blocks, with the
    lowest even eigenvector and each block's eigenvalues."""
    tol = op.tol_zero
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
    # route and (0.9, 1.0), whose average is below the speed, is inconclusive;
    # the resolved pairs are the dense eigh's lowest, to its rounding
    _, psi = build_dnoidal(k, branch_L[k], omega, N=128)
    op = assemble(psi, omega, kawahara, N=N)
    rep = spectrum(op)
    oracle, chi, (ref_e, ref_o) = _dense_spectrum(op)
    eps = np.finfo(float).eps
    for res, ref in ((op.eig_even, ref_e), (op.eig_odd, ref_o)):
        vals = res.eigenvalues
        assert np.abs(vals - ref[: vals.size]).max() <= 100 * eps * np.abs(ref).max()
        assert res.floor - res.rho > vals[-1] + res.rho
        assert ref[vals.size] >= res.floor - res.rho - 100 * eps * np.abs(ref).max()
    assert (rep.n_neg, rep.n_zero) == (oracle.n_neg, oracle.n_zero) == (1, 1)
    assert rep.kernel_corr == pytest.approx(oracle.kernel_corr, rel=1e-10)
    assert rep.kernel_corr <= oracle.kernel_corr + 8 * eps  # a lower bound

    report = evaluate_wave(psi, omega, kawahara, N=N)
    psi_c = psi.orthonormal(op.N)
    chi_corr = abs(chi @ psi_c) / np.linalg.norm(psi_c)
    assert report.chi_psi_corr == pytest.approx(chi_corr, rel=1e-10)
    assert report.spectrum.kernel_corr == pytest.approx(oracle.kernel_corr, rel=1e-10)
    assert (report.spectrum.n_neg, report.spectrum.n_zero) == (1, 1)
    assert report.verdict == verdict(replace(report, spectrum=oracle))


# the benchmark's (k, omega) ranges, at both ends: determinant k 0.62-0.80,
# omega 1.0-1.2; coercivity k 0.60-0.80, omega 0.5; inconclusive k
# 0.88-0.94, omega 1.0-1.2
BENCHMARK_WAVES = [
    (VERDICT_DETERMINANT, 0.62, 1.0), (VERDICT_DETERMINANT, 0.80, 1.2),
    (VERDICT_COERCIVITY, 0.60, 0.5), (VERDICT_COERCIVITY, 0.80, 0.5),
    (VERDICT_INCONCLUSIVE, 0.88, 1.0), (VERDICT_INCONCLUSIVE, 0.94, 1.2),
]


@pytest.mark.parametrize("N", [256, 512])
@pytest.mark.parametrize("route, k, omega", BENCHMARK_WAVES)
def test_resolved_route_matches_the_full_route(kawahara, route, k, omega, N):
    # the report against full eigh of both blocks and dense constrained
    # minima: the same verdict and counts, and values within n eps |L|, the
    # full solve's rounding
    _, psi = build_dnoidal(k, solve_branch(k)[1], omega, N=128)
    report = evaluate_wave(psi, omega, kawahara, N)
    assert report.verdict == route
    op = assemble(psi, omega, kawahara, N=N)
    oracle, _, (ref_e, ref_o) = _dense_spectrum(op)
    rounding = N * EPS * max(_norm(op.even), _norm(op.odd))
    rep = report.spectrum
    assert (rep.n_neg, rep.n_zero) == (oracle.n_neg, oracle.n_zero) == (1, 1)
    # each block's eigenvalues through its first above the zero band
    expected = np.sort(np.concatenate([
        ref[: np.searchsorted(ref, op.tol_zero, side="right") + 1] for ref in (ref_e, ref_o)]))
    assert np.abs(rep.eigenvalues - expected).max() <= rounding
    assert abs(rep.gap - oracle.gap) <= rounding
    assert rep.kernel_corr == pytest.approx(oracle.kernel_corr, rel=1e-10)
    full = replace(report, spectrum=oracle)
    if report.w_psi is not None:
        psi_c = psi.orthonormal(N)
        w_even = _dense_block_min(op.even, psi_c)
        w_odd = _dense_block_min(op.odd, op.psi.half_square().derivative_orthonormal(N))
        full = replace(full, w_psi=min(w_even, ref_o[0]), w_psi_psip=min(w_even, w_odd))
        assert abs(report.w_psi - full.w_psi) <= rounding
        assert abs(report.w_psi_psip - full.w_psi_psip) <= rounding
    assert verdict(full) == route


def test_content_to_mode_40_resolves_above_48_modes(kawahara):
    # a profile whose cosine content reaches mode 40 starts the resolved block
    # at 4 x 40 modes, and its pairs are the dense eigh's lowest
    c = np.zeros(129)
    c[0] = 1.0
    c[1:41] = 0.3 * 0.7 ** np.arange(40)
    op = assemble(FourierProfile(20.0, c), 1.0, kawahara, N=256)
    rounding = 256 * EPS * _norm(op.even)
    for res, block in ((op.eig_even, op.even), (op.eig_odd, op.odd)):
        assert res.eigenvectors.shape[0] == 160
        ref = np.linalg.eigvalsh(block)
        assert np.abs(res.eigenvalues - ref[: res.eigenvalues.size]).max() <= rounding
    oracle, _, _ = _dense_spectrum(op)
    rep = spectrum(op)
    assert (rep.n_neg, rep.n_zero, rep.gap) == pytest.approx(
        (oracle.n_neg, oracle.n_zero, oracle.gap), abs=rounding)


def test_weak_tail_floor_doubles_to_the_full_block(branch_L, monkeypatch):
    # theta = |xi|^0.1 grows too slowly for the tail's Gershgorin floor to
    # clear the resolved values: m doubles from 52, and where the double would
    # reach half the block takes the whole block, the full eigh with its bits
    sizes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    _, psi = build_dnoidal(0.8, branch_L[0.8], 1.0, N=128)
    op = assemble(psi, 1.0, builtin_symbol("fractional", alpha=0.1), N=256)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    res = op.eig_even
    assert sizes == [52, 104, 257]
    assert res.floor == np.inf
    assert res.rho == 257 * EPS * np.abs(res.eigenvalues).max()  # eigh's rounding
    assert np.array_equal(res.eigenvalues, eigh(op.even).eigenvalues)


# (symbol, alpha, k, omega): the benchmark's waves, and other symbols on the
# Kawahara branch wave, which the resolved block serves alike
RESOLVED_SOLVE_WAVES = [("kawahara", None, k, omega) for _, k, omega in BENCHMARK_WAVES] + [
    (symbol, alpha, k, 1.0) for symbol, alpha in
    (("kdv", None), ("bo", None), ("fractional", 0.3), ("fractional", 2.0))
    for k in (0.7, 0.95)]


def _operator(symbol, alpha, k, omega, N):
    """The wave at modulus k on the Kawahara branch and its operator."""
    sym = builtin_symbol(symbol, **({} if alpha is None else {"alpha": alpha}))
    _, psi = build_dnoidal(k, solve_branch(k)[1], omega, N=128)
    return psi, assemble(psi, omega, sym, N=N)


def _counting_solves(monkeypatch):
    """Patch np.linalg.solve to record the shape of each matrix it solves."""
    shapes, solve = [], np.linalg.solve

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return shapes


@pytest.mark.parametrize("N", [256, 512])
@pytest.mark.parametrize("symbol, alpha, k, omega", RESOLVED_SOLVE_WAVES)
def test_resolved_variations_match_the_full_lu(monkeypatch, symbol, alpha, k, omega, N):
    # eta and beta from the resolved block's LU lie within RESIDUAL_MULT eps
    # |x| of the whole block's LU, and so do the derivatives and the pairing
    psi, op = _operator(symbol, alpha, k, omega, N)
    m = op.eig_even.eigenvectors.shape[0]
    full = solve_variations(op._rows(N + 1), op.psi)
    shapes = _counting_solves(monkeypatch)
    resolved = solve_variations(op.even_head, op.psi, op)
    assert shapes == [(m, m)] and m < N  # the certified path was taken
    assert "even" not in op.__dict__
    for x, ref in zip(resolved, full):
        x, ref = x.orthonormal(N), ref.orthonormal(N)
        assert np.linalg.norm(x - ref) <= RESIDUAL_MULT * EPS * np.linalg.norm(ref)
    values = (*derivatives(psi, *resolved), choose_witness(op, psi, *resolved, omega)[4])
    refs = (*derivatives(psi, *full), choose_witness(op, psi, *full, omega)[4])
    assert values == pytest.approx(refs, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("force", ["residual", "lam", "whole_block"])
def test_uncertified_variations_take_the_whole_block_lu(monkeypatch, force):
    # a residual over its bound, a non-positive eigenvalue bound, and a
    # block resolved whole each give the whole block's LU, with its bits
    alpha = 0.1 if force == "whole_block" else 0.3
    _, op = _operator("fractional", alpha, 0.8, 1.0, 256)
    op.eig_even  # resolved before the patch below
    if force == "residual":
        monkeypatch.setattr(galerkin, "RESIDUAL_MULT", 0)
    elif force == "lam":
        op.eig_even = replace(op.eig_even, rho=op.eig_even.floor)
    assert (op.eig_even.eigenvectors.shape[0] == 257) == (force == "whole_block")
    full = solve_variations(op._rows(257), op.psi)
    shapes = _counting_solves(monkeypatch)
    resolved = solve_variations(op.even_head, op.psi, op)
    assert shapes[-1] == (257, 257)
    for x, ref in zip(resolved, full):
        assert np.array_equal(x.coeffs, ref.coeffs)


@pytest.mark.parametrize("symbol, alpha", [
    ("kdv", None), ("bo", None), ("fractional", 0.15), ("fractional", 0.2),
    ("fractional", 0.3), ("fractional", 1.0), ("fractional", 2.0)])
def test_resolved_sizes_of_other_symbols(symbol, alpha):
    # each block resolves on 4 x the wave's highest content mode (48, 52 and
    # 72 modes at k 0.7, 0.8 and 0.95), except fractional alpha 0.15 at k
    # 0.7, whose tail floor takes the whole block; a looser tail floor
    # would send more of these to the whole block, with no other test failing
    for k, omega, N in itertools.product((0.7, 0.8, 0.95), (0.5, 1.0), (256, 512)):
        _, op = _operator(symbol, alpha, k, omega, N)
        m = {0.7: 48, 0.8: 52, 0.95: 72}[k]
        expected = (N + 1, N) if (alpha, k) == (0.15, 0.7) else (m, m)
        sizes = tuple(r.eigenvectors.shape[0] for r in (op.eig_even, op.eig_odd))
        assert sizes == expected, (k, omega, N)


@pytest.mark.parametrize("k", [0.7, 0.8])
@pytest.mark.parametrize("symbol, alpha", [
    ("kawahara", None), ("kdv", None), ("bo", None), ("fractional", 0.3)])
def test_closed_form_tail_floor_is_below_every_tail_row(symbol, alpha, k):
    # at 2049 modes, which stand in for the infinite tail, the closed-form
    # floor lies below the Gershgorin value of every row of either block
    # past the leading m it starts from
    _, op = _operator(symbol, alpha, k, 1.0, 2048)
    for odd in (False, True):
        block = op.odd if odd else op.even
        m = galerkin._leading_size(op.psi, block.shape[0])
        H = block[m:, m:]
        rows = 2.0 * np.diagonal(H) - np.abs(H).sum(axis=1)
        assert op._tail_floor(op._rows(m, odd)[1], m) <= rows.min(), odd


@pytest.mark.parametrize("symbol, L", [("kawahara", 20.0), ("kdv", None), ("bo", None)])
def test_kernel_bound_below_oracle_off_solutions(branch_L, symbol, L):
    # k = 0.8 waves that do not solve their equation: psi' is not in the
    # kernel, and the bound stays below the eigh correlation, within twice
    # its angle
    sym = builtin_symbol(symbol)
    _, psi = build_dnoidal(0.8, branch_L[0.8] if L is None else L, 1.0, N=128)
    op = assemble(psi, 1.0, sym, N=256)
    rep = spectrum(op)
    oracle, _, _ = _dense_spectrum(op)
    assert not rep.holds_assumption
    assert 0.0 < rep.kernel_corr <= oracle.kernel_corr + 8 * np.finfo(float).eps
    sine = math.sqrt(1.0 - rep.kernel_corr ** 2)
    assert sine <= 2.0 * math.sqrt(1.0 - oracle.kernel_corr ** 2)


def test_kernel_bound_at_2048_modes(branch_L, kawahara):
    # psi's round-off tail, amplified by theta(xi) ~ xi^4 on the odd block,
    # would dominate a residual read on all 2048 modes; the resolved block
    # stops where the wave's content does
    _, psi = build_dnoidal(0.6, branch_L[0.6], 0.5, N=2048)
    op = assemble(psi, 0.5, kawahara, N=2048)
    rep = spectrum(op)
    assert (rep.n_neg, rep.n_zero) == (1, 1)
    assert rep.kernel_corr > 0.999
    assert op.eig_odd.eigenvectors.shape[0] < 128


def test_chi_on_diagonal_block(kawahara):
    # the zero wave's even block is diagonal, with its lowest entry omega at
    # mode 0: chi = +-e_0
    op = assemble(_zero_profile(), 1.0, kawahara)
    assert np.argmin(np.diag(op.even)) == 0
    assert abs(op.chi[0]) == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(op.chi) == pytest.approx(1.0, abs=1e-14)
    assert op.chi.shape == (op.N + 1,)


def test_chi_is_the_lowest_even_eigenvector(op08, kawahara):
    # the dense eigh's first column up to sign, and the first resolved even
    # vector zero-padded to N+1 modes
    ref = np.linalg.eigh(op08.even).eigenvectors[:, 0]
    op = assemble(op08.psi, op08.omega, kawahara, N=op08.N)
    chi = op.chi
    assert np.abs(np.copysign(1.0, chi @ ref) * chi - ref).max() < 1e-10
    y = op.eig_even.eigenvectors[:, 0]
    assert y.size < chi.size
    assert np.array_equal(chi[: y.size], y) and not chi[y.size :].any()


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


def test_spectrum_timing(benchmark, wave08, kawahara):
    # on an operator with cached resolved pairs: the merge, the counts and
    # the kernel bound
    _, psi = wave08
    op = assemble(psi, 1.0, kawahara, N=256)
    op.eig_even, op.eig_odd
    ref = spectrum(op)
    rep = benchmark.pedantic(spectrum, args=(op,), rounds=20, iterations=5)
    assert rep.kernel_corr == ref.kernel_corr
    assert np.array_equal(rep.eigenvalues, ref.eigenvalues)


def test_variation_solve_timing(benchmark, op08):
    # on the resolved block, as evaluate_wave calls it
    args = (op08.even_head, op08.psi, op08)
    eta, beta = benchmark.pedantic(solve_variations, args=args, rounds=20,
                                   iterations=1)
    ref_eta, ref_beta = solve_variations(*args)
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
