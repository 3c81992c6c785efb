import numpy as np
import pytest

import wavestab.continuation as cont
from wavestab.continuation import (
    NewtonDivergenceError,
    newton_solve,
    surface_patch,
)
from wavestab.criteria import derivatives, functionals
from wavestab.galerkin import GalerkinOperator
from wavestab.profile import FourierProfile, build_dnoidal, pi_residual
from conftest import galilean_shift


@pytest.fixture
def history(monkeypatch):
    """Residual norms newton_solve evaluates, one per accepted iterate when
    no damped step is rejected (the start, then each iteration)."""
    norms = []

    def recorded(*args, _fn=cont.pi_residual):
        res = _fn(*args)
        norms.append(float(np.linalg.norm(res.orthonormal(args[0].N))))
        return res

    monkeypatch.setattr(cont, "pi_residual", recorded)
    return norms


def test_exact_start_fixed_point(wave08, kawahara):
    params, psi = wave08
    pt = newton_solve(psi, params.omega, params.A, kawahara)
    assert pt.newton_iters <= 2
    assert np.abs(pt.psi.coeffs - psi.coeffs).max() < 1e-10
    assert pt.residual_norm < 1e-10 * max(1.0, psi.sup_norm())


def test_gauge_adjusted_target_matches_family(wave08, branch_L, kawahara):
    params, psi = wave08
    delta = 0.01
    # along the explicit family, psi(omega + delta) = psi(omega) + delta and
    # the constant transforms by the gauge rule
    A_target = params.A - params.omega * delta - 0.5 * delta**2
    pt = newton_solve(psi, params.omega + delta, A_target, kawahara)
    _, psi_target = build_dnoidal(0.8, branch_L[0.8], params.omega + delta)
    assert np.abs(pt.psi.coeffs - psi_target.coeffs).max() < 1e-8


def test_noise_start_diverges(wave08, kawahara):
    params, psi = wave08
    rng = np.random.default_rng(0)
    noisy = FourierProfile(psi.L0, rng.standard_normal(psi.N + 1) * 50.0)
    with pytest.raises(NewtonDivergenceError):
        newton_solve(noisy, params.omega, params.A, kawahara)


@pytest.mark.parametrize("size", [1e200, np.inf, np.nan])
def test_non_finite_start_refused(wave08, kawahara, size):
    # a NaN residual failed `rnorm > tol * scale` and passed as converged,
    # and so did any residual once max(1, |psi|) overflowed to inf
    params, psi = wave08
    start = FourierProfile(psi.L0, psi.coeffs + size)
    with pytest.raises(NewtonDivergenceError, match="non-finite start"):
        newton_solve(start, params.omega, params.A, kawahara)


def test_overflowing_patch_step_leaves_points_missing(wave08, kawahara):
    # a step of 1e300 in omega overflows the predictor: those points are
    # missing, the omega = center column is solved, and nothing warns
    params, psi = wave08
    center = newton_solve(psi, params.omega, params.A, kawahara)
    patch = surface_patch(center, 1e300, 1e-3, (1, 1), kawahara)
    assert sorted(patch) == [(0, -1), (0, 0), (0, 1)]
    assert all(np.isfinite(pt.psi.coeffs).all() and np.isfinite(pt.residual_norm)
               for pt in patch.values())


def test_quadratic_convergence(wave08, kawahara, history):
    params, psi = wave08
    bumped = FourierProfile(psi.L0, psi.coeffs * (1.0 + 2e-3))
    newton_solve(bumped, params.omega, params.A, kawahara)
    rs = [r for r in history if r > 1e-14]
    assert len(rs) >= 3
    # once inside the basin, r_{n+1} <= C r_n^2 with a moderate constant
    for r0, r1 in zip(rs[:-1], rs[1:]):
        if r0 < 1e-3:
            assert r1 <= 100.0 * r0 * r0


@pytest.mark.parametrize("bump", [0.0, 2e-3])
def test_one_pi_residual_per_residual_evaluation(wave08, kawahara, history, monkeypatch,
                                                 bump):
    # the returned sup norm is the one the accepting evaluation computed
    calls = []

    def counted(*args, _fn=cont.pi_residual):
        calls.append(args[0])
        return _fn(*args)

    monkeypatch.setattr(cont, "pi_residual", counted)
    params, psi = wave08
    start = FourierProfile(psi.L0, psi.coeffs * (1.0 + bump))
    pt = newton_solve(start, params.omega, params.A, kawahara)
    assert len(calls) == len(history) == pt.newton_iters + 1
    assert pt.residual_norm == pi_residual(pt.psi, params.omega, params.A,
                                           kawahara).sup_norm()


def test_evenness_structural(wave08, kawahara):
    params, psi = wave08
    pt = newton_solve(psi, params.omega + 0.02,
                      params.A - 0.02 * params.omega, kawahara)
    assert isinstance(pt.psi, FourierProfile)  # cosine-only storage
    assert np.all(np.isfinite(pt.psi.coeffs))


def test_single_point_patch(wave08, kawahara):
    params, psi = wave08
    center = newton_solve(psi, params.omega, params.A, kawahara)
    patch = surface_patch(center, 1e-3, 1e-3, (0, 0), kawahara)
    assert list(patch.keys()) == [(0, 0)]
    assert patch[(0, 0)] is center


def test_patch_residuals_and_smoothness(wave08, kawahara):
    params, psi = wave08
    center = newton_solve(psi, params.omega, params.A, kawahara)
    patch = surface_patch(center, 5e-3, 5e-3, (2, 2), kawahara)
    assert len(patch) == 25
    scale = max(1.0, psi.sup_norm())
    for pt in patch.values():
        assert pt.residual_norm < 1e-10 * scale
    means = np.array([[patch[(i, j)].psi.mean() for j in (-2, -1, 0, 1, 2)]
                      for i in (-2, -1, 0, 1, 2)])
    first = np.abs(np.diff(means, axis=0)).max()
    second = np.abs(np.diff(means, n=2, axis=0)).max()
    assert second < 0.2 * first  # smooth surface: curvature well below slope


def test_finite_difference_eta_beta_richardson(wave08, op08, variations08, kawahara):
    params, psi = wave08
    eta, beta = variations08
    errs_eta, errs_beta = [], []
    for delta in (1e-4, 5e-5):
        plus = newton_solve(psi, params.omega + delta, params.A, kawahara,
                            tol=1e-13)
        minus = newton_solve(psi, params.omega - delta, params.A, kawahara,
                             tol=1e-13)
        fd = (plus.psi.coeffs - minus.psi.coeffs) / (2.0 * delta)
        errs_eta.append(np.abs(fd[: eta.N + 1] - eta.coeffs[: len(fd)]).max())
        plusA = newton_solve(psi, params.omega, params.A + delta, kawahara,
                             tol=1e-13)
        minusA = newton_solve(psi, params.omega, params.A - delta, kawahara,
                              tol=1e-13)
        fdA = (plusA.psi.coeffs - minusA.psi.coeffs) / (2.0 * delta)
        errs_beta.append(np.abs(fdA[: beta.N + 1] - beta.coeffs[: len(fdA)]).max())
    # O(delta^2): halving delta divides the error by about four
    assert errs_eta[0] < 1e-3 and errs_beta[0] < 1e-3
    assert 2.5 < errs_eta[0] / errs_eta[1] < 5.5
    assert 2.5 < errs_beta[0] / errs_beta[1] < 5.5


def test_finite_difference_M_omega(wave08, kawahara, op08, variations08):
    params, psi = wave08
    eta, beta = variations08
    M_w, _, _, _ = derivatives(psi, eta, beta)

    def fd(delta):
        plus = newton_solve(psi, params.omega + delta, params.A, kawahara,
                            tol=1e-13)
        minus = newton_solve(psi, params.omega - delta, params.A, kawahara,
                             tol=1e-13)
        return (functionals(plus.psi)[0] - functionals(minus.psi)[0]) / (2 * delta)

    # Richardson-extrapolated central difference removes the O(delta^2) term
    extrapolated = (4.0 * fd(5e-5) - fd(1e-4)) / 3.0
    assert extrapolated == pytest.approx(M_w, rel=1e-8)


def test_gauge_ray(wave08, kawahara):
    params, psi = wave08
    center = newton_solve(psi, params.omega, params.A, kawahara)
    alpha = 0.05
    _, w2, A2 = galilean_shift(psi, params.omega, params.A, alpha)
    pt = newton_solve(center.psi, w2, A2, kawahara)
    diff = pt.psi.coeffs - psi.coeffs
    assert diff[0] == pytest.approx(alpha, abs=1e-9)
    assert np.abs(diff[1:]).max() < 1e-9


def test_newton_leaves_odd_block_unassembled(wave08, kawahara, monkeypatch):
    # the Newton Jacobian is the even block; the odd block is never read
    built = []

    class Recorded(GalerkinOperator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(cont, "GalerkinOperator", Recorded)
    params, psi = wave08
    newton_solve(psi, params.omega + 1e-3, params.A, kawahara)
    assert built
    assert all("odd" not in op.__dict__ for op in built)


def test_patch_newton_budget(wave08, kawahara):
    # the tangent predictor saves one Newton iteration per point (4 -> 3 at
    # the benchmark's step) and lands on the same waves as a cold start
    params, psi = wave08
    center = newton_solve(psi, params.omega, params.A, kawahara)
    patch = surface_patch(center, 5e-3, 5e-3, (1, 1), kawahara)
    assert len(patch) == 9
    for key, pt in patch.items():
        if key == (0, 0):
            continue
        assert pt.newton_iters <= 3
        cold = newton_solve(center.psi, pt.omega, pt.A, kawahara)
        scale = max(1.0, cold.psi.sup_norm())
        assert np.abs(pt.psi.coeffs - cold.psi.coeffs).max() < 1e-10 * scale
    # the README patch: 98 iterations from the neighbour unchanged
    readme = surface_patch(center, 5e-3, 5e-3, (2, 2), kawahara)
    assert len(readme) == 25
    assert sum(pt.newton_iters for pt in readme.values()) <= 74


def test_newton_solve_timing(benchmark, wave08, kawahara):
    # layer timing of one Newton solve from the dnoidal seed at N 128; the
    # time is reported, never asserted
    params, psi = wave08
    args = (psi, params.omega, params.A, kawahara)
    out = benchmark.pedantic(newton_solve, args=args, rounds=20, iterations=1)
    assert np.array_equal(out.psi.coeffs, newton_solve(*args).psi.coeffs)


def test_patch_timing(benchmark, wave08, kawahara):
    # layer timing of surface_patch at the benchmark shape; the time is
    # reported, never asserted
    params, psi = wave08
    center = newton_solve(psi, params.omega, params.A, kawahara)
    args = (center, 5e-3, 5e-3, (1, 1), kawahara)
    out = benchmark.pedantic(surface_patch, args=args, rounds=5, iterations=1)
    ref = surface_patch(*args)
    assert out.keys() == ref.keys()
    assert all(np.array_equal(out[key].psi.coeffs, ref[key].psi.coeffs) for key in ref)
