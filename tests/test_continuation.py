import numpy as np
import pytest

import wavestab.continuation as cont
from wavestab.continuation import (
    ContinuationPoint,
    NewtonDivergenceError,
    newton_solve,
    surface_patch,
)
from wavestab.criteria import derivatives, functionals
from wavestab.galerkin import (DegenerateOperatorError, GalerkinOperator, _assembly,
                               _leading_size, _leading_solve, solve_variations)
from wavestab.multiplier import builtin_symbol
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
    patch, _ = surface_patch(center, 1e300, 1e-3, (1, 1), kawahara)
    assert sorted(patch) == [(0, -1), (0, 0), (0, 1)]
    assert all(np.isfinite(pt.psi.coeffs).all() and np.isfinite(pt.residual_norm)
               for pt in patch.values())


@pytest.mark.parametrize("domega", [5e-3, 1e300], ids=["readme", "overflow"])
def test_patch_missing_offsets_are_the_grid_minus_the_patch(wave08, kawahara, domega):
    params, psi = wave08
    center = newton_solve(psi, params.omega, params.A, kawahara)
    patch, missing = surface_patch(center, domega, 5e-3, (2, 2), kawahara)
    grid = [(di, dj) for di in range(-2, 3) for dj in range(-2, 3)]
    assert missing == [o for o in grid if o not in patch]
    assert len(missing) == (0 if domega == 5e-3 else 20)


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
    patch, missing = surface_patch(center, 1e-3, 1e-3, (0, 0), kawahara)
    assert list(patch.keys()) == [(0, 0)]
    assert patch[(0, 0)] is center and missing == []


def test_patch_residuals_and_smoothness(wave08, kawahara):
    params, psi = wave08
    center = newton_solve(psi, params.omega, params.A, kawahara)
    patch, _ = surface_patch(center, 5e-3, 5e-3, (2, 2), kawahara)
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
    # the Newton Jacobian is the even block alone: the iteration and the
    # patch tangents assemble it by _assembly and build no operator
    assembled, built = [], []

    def recorded(*args, _fn=cont._assembly):
        assembled.append(args)
        return _fn(*args)

    monkeypatch.setattr(cont, "_assembly", recorded)
    monkeypatch.setattr(GalerkinOperator, "__init__", lambda *args: built.append(args))
    params, psi = wave08
    center = newton_solve(psi, params.omega + 1e-3, params.A, kawahara)
    surface_patch(center, 5e-3, 5e-3, (1, 1), kawahara)
    assert assembled
    assert not built


def test_patch_newton_budget(wave08, kawahara):
    # the tangent predictor saves one Newton iteration per point (4 -> 3 at
    # the benchmark's step) and lands on the same waves as a cold start
    params, psi = wave08
    center = newton_solve(psi, params.omega, params.A, kawahara)
    patch, _ = surface_patch(center, 5e-3, 5e-3, (1, 1), kawahara)
    assert len(patch) == 9
    for key, pt in patch.items():
        if key == (0, 0):
            continue
        assert pt.newton_iters <= 3
        cold = newton_solve(center.psi, pt.omega, pt.A, kawahara)
        scale = max(1.0, cold.psi.sup_norm())
        assert np.abs(pt.psi.coeffs - cold.psi.coeffs).max() < 1e-10 * scale
    # the README patch: 98 iterations from the neighbour unchanged
    readme, _ = surface_patch(center, 5e-3, 5e-3, (2, 2), kawahara)
    assert len(readme) == 25
    assert sum(pt.newton_iters for pt in readme.values()) <= 74


def test_newton_solve_timing(benchmark, wave08, kawahara):
    # layer timing of one Newton solve from the dnoidal seed at N 128; the
    # time is reported, never asserted
    params, psi = wave08
    args = (psi, params.omega, params.A, kawahara)
    out = benchmark.pedantic(newton_solve, args=args, rounds=20, iterations=1)
    assert np.array_equal(out.psi.coeffs, newton_solve(*args).psi.coeffs)


@pytest.mark.parametrize("extent, step", [((1, 1), 5e-3), ((2, 2), 1e-3)],
                         ids=["bench", "readme"])
def test_patch_timing(benchmark, wave08, kawahara, extent, step):
    # layer timing of surface_patch at the benchmark shape and at the
    # README's default extent and steps; the time is reported, never asserted
    params, psi = wave08
    center = newton_solve(psi, params.omega, params.A, kawahara)
    args = (center, step, step, extent, kawahara)
    out, _ = benchmark.pedantic(surface_patch, args=args, rounds=5, iterations=1)
    ref, _ = surface_patch(*args)
    assert out.keys() == ref.keys()
    assert all(np.array_equal(out[key].psi.coeffs, ref[key].psi.coeffs) for key in ref)


def _whole_step(psi, omega, sym, r, m):
    return np.linalg.solve(GalerkinOperator(psi, omega, sym, psi.N).even, -r)


def _leading_step(psi, omega, sym, r, m):
    head, tail = _assembly(psi, omega, sym, psi.N, m)
    return _leading_solve(head, tail, -r[:, None])[:, 0]


def _pointwise_newton(psi, omega, A, sym, tol=1e-12, m=None, leading=True):
    """newton_solve one point at a time, one operator, solve and residual
    per iteration, kept as the reference.  With `leading`, the library's
    step on the leading m modes (default: the start's): a stack must give
    its bits.  Without, the whole-block Newton the library took before, the
    oracle its points must match to round-off."""
    N = psi.N
    m = _leading_size(psi, N + 1) if m is None else m
    solve = _leading_step if leading else _whole_step
    scale = max(1.0, float(np.linalg.norm(psi.coeffs)))
    res = pi_residual(psi, omega, A, sym)
    r = res.orthonormal(N)
    rnorm = float(np.linalg.norm(r))
    if not (np.isfinite(rnorm) and np.isfinite(scale)):
        raise NewtonDivergenceError("non-finite start")
    iters = 0
    while not rnorm <= tol * scale:
        if iters >= cont.MAX_ITER:
            raise NewtonDivergenceError("no convergence")
        try:
            delta = solve(psi, omega, sym, r, m)
        except np.linalg.LinAlgError as exc:
            raise NewtonDivergenceError("singular Jacobian") from exc
        accepted = _damped(psi, delta, omega, A, sym, rnorm, tol * scale)
        if accepted is None:
            raise NewtonDivergenceError("damping failed")
        psi, res, r, rnorm = accepted
        scale = max(1.0, float(np.linalg.norm(psi.coeffs)))
        if not np.isfinite(scale):
            raise NewtonDivergenceError("non-finite scale")
        iters += 1
    return ContinuationPoint(omega=float(omega), A=float(A), psi=psi,
                             residual_norm=res.sup_norm(), newton_iters=iters)


def _damped(psi, delta, omega, A, sym, rnorm, stop):
    """(psi, res, r, |r|) after the first accepted halving of delta, or None."""
    step = 1.0
    for _ in range(cont.MAX_HALVINGS + 1):
        dc = FourierProfile.from_orthonormal(psi.L0, step * delta).coeffs
        cand = FourierProfile(psi.L0, psi.coeffs + dc)
        res_new = pi_residual(cand, omega, A, sym)
        r_new = res_new.orthonormal(psi.N)
        rnorm_new = float(np.linalg.norm(r_new))
        if np.isfinite(rnorm_new) and (rnorm_new < rnorm or rnorm_new <= stop):
            return cand, res_new, r_new, rnorm_new
        step *= 0.5
    return None


def _pointwise_patch(center, domega, dA, extent, sym, leading=True):
    """surface_patch before the frontier stacks, one tangent solve per
    neighbour and one Newton solve per point in grid order, kept as the
    reference: with `leading` on the center's leading m modes like the
    library, without on the whole block like the library before."""
    iw, ia = extent
    offsets = [(di, dj) for di in range(-iw, iw + 1) for dj in range(-ia, ia + 1)]
    N = center.psi.N
    m = _leading_size(center.psi, N + 1)
    patch = {(0, 0): center}
    tangents = {}
    for di, dj in sorted(offsets, key=lambda o: (abs(o[1]), abs(o[0])))[1:]:
        frm = (di, dj + (dj < 0) - (dj > 0)) if dj else (di + (di < 0) - (di > 0), 0)
        prev = patch.get(frm)
        if prev is None:
            continue
        omega, A = center.omega + di * domega, center.A + dj * dA
        try:
            if frm not in tangents:
                tangents[frm] = solve_variations(
                    _assembly(prev.psi, prev.omega, sym, N, m) if leading
                    else GalerkinOperator(prev.psi, prev.omega, sym, N)._rows(N + 1), prev.psi)
            eta, beta = tangents[frm]
            with np.errstate(over="ignore", invalid="ignore"):
                start = FourierProfile(prev.psi.L0, prev.psi.coeffs
                                       + (omega - prev.omega) * eta.coeffs
                                       + (A - prev.A) * beta.coeffs)
                patch[(di, dj)] = _pointwise_newton(start, omega, A, sym, m=m,
                                                    leading=leading)
        except (DegenerateOperatorError, NewtonDivergenceError):
            continue
    return patch, [o for o in offsets if o not in patch]


_RNG = np.random.default_rng(23)
ORACLE_CASES = (
    [(0.8, 1.0, 5e-3, extent, 0) for extent in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2)]]
    + [(0.641, 1.039, 5e-3, (2, 2), 1),    # the fold: (-2, -2) is lost
       (0.8, 1.0, 5e-2, (2, 2), 13),       # the README's 13 of 25 missing
       (0.8, 1.0, 1e-3, (2, 2), 0),        # the default steps
       (0.8, 1.0, 2e-2, (2, 2), 8)]
    + [(_RNG.uniform(0.62, 0.92), _RNG.uniform(0.9, 1.1), 5e-3, (1, 1), 0)
       for _ in range(4)])


@pytest.mark.parametrize("k, omega, step, extent, n_missing", ORACLE_CASES, ids=[
    f"k{k:.3f}-w{w:.3f}-step{step:g}-{e[0]}x{e[1]}" for k, w, step, e, _ in ORACLE_CASES])
def test_patch_matches_pointwise_reference(kawahara, k, omega, step, extent, n_missing):
    params, psi = build_dnoidal(k, None, omega, N=128)
    center = newton_solve(psi, omega, params.A, kawahara)
    _assert_same_point(center, _pointwise_newton(psi, omega, params.A, kawahara))
    patch, missing = surface_patch(center, step, step, extent, kawahara)
    ref, ref_missing = _pointwise_patch(center, step, step, extent, kawahara)
    assert list(patch) == list(ref)
    assert missing == ref_missing
    assert len(missing) == n_missing
    for key, pt in ref.items():
        _assert_same_point(patch[key], pt)


_SEEDED = np.random.default_rng(39)
WHOLE_BLOCK_CASES = (
    [("kawahara", k, w, step, extent) for k, w, step, extent, _ in ORACLE_CASES]
    + [("kawahara", _SEEDED.uniform(0.62, 0.92), _SEEDED.uniform(0.9, 1.1), 5e-3, (1, 1))
       for _ in range(20)]
    + [(name, k, 1.0, 5e-3, (2, 2)) for name in ("kdv", "bo", 0.1, 0.3, 2.0)
       for k in (0.7, 0.95)])


@pytest.mark.parametrize("symbol, k, omega, step, extent", WHOLE_BLOCK_CASES, ids=[
    f"{s}-k{k:.3f}-w{w:.3f}-step{step:g}-{e[0]}x{e[1]}"
    for s, k, w, step, e in WHOLE_BLOCK_CASES])
def test_patch_matches_whole_block_oracle(symbol, k, omega, step, extent):
    # the leading-block Newton lands on the whole-block Newton's points: the
    # same keys, missing offsets and iterations, and coefficients within
    # round-off, each with a residual below the stopping rule
    sym = (builtin_symbol("fractional", symbol) if isinstance(symbol, float)
           else builtin_symbol(symbol))
    params, psi = build_dnoidal(k, None, omega, N=128)
    center = newton_solve(psi, omega, params.A, sym)   # the seed of `continue`
    oracle_center = _pointwise_newton(psi, omega, params.A, sym, leading=False)
    assert center.newton_iters == oracle_center.newton_iters
    patch, missing = surface_patch(center, step, step, extent, sym)
    oracle, oracle_missing = _pointwise_patch(oracle_center, step, step, extent, sym,
                                              leading=False)
    assert list(patch) == list(oracle)
    assert missing == oracle_missing
    if (k, omega) == (0.641, 1.039):
        assert missing == [(-2, -2)]    # the fold
    for key, ref in oracle.items():
        pt = patch[key]
        assert pt.newton_iters == ref.newton_iters
        scale = max(1.0, ref.psi.sup_norm())
        assert np.abs(pt.psi.coeffs - ref.psi.coeffs).max() <= 1e-13 * scale
        r = pi_residual(pt.psi, pt.omega, pt.A, sym).orthonormal(pt.psi.N)
        assert np.linalg.norm(r) <= 1e-12 * max(1.0, np.linalg.norm(pt.psi.coeffs))


def test_patch_solve_and_assembly_budget(kawahara, monkeypatch):
    # the benchmark's patch and the fold's solve and assemble only the
    # leading m of 129 modes, the fold's failing corner too: every LU is a
    # stack of m x m heads, and no whole block is built
    solves, assembled = [], []

    def solve(a, b, _fn=np.linalg.solve):
        solves.append(a.shape)
        return _fn(a, b)

    def assembly(*args, _fn=cont._assembly):
        out = _fn(*args)
        assembled.append(out[0].shape)
        return out

    monkeypatch.setattr(np.linalg, "solve", solve)
    monkeypatch.setattr(cont, "_assembly", assembly)
    for k, omega, extent, m, missing in [(0.8, 1.0, (1, 1), 52, []),
                                         (0.641, 1.039, (2, 2), 48, [(-2, -2)])]:
        solves.clear()
        assembled.clear()
        params, psi = build_dnoidal(k, None, omega, N=128)
        center = newton_solve(psi, omega, params.A, kawahara)
        assert surface_patch(center, 5e-3, 5e-3, extent, kawahara)[1] == missing
        assert solves and all(s[-2:] == (m, m) for s in solves)
        assert assembled and all(s[1:] == (m, 129) for s in assembled)


def test_failed_leading_step_is_refused(wave08, kawahara, monkeypatch):
    # a leading step that no halving accepts refuses its row in that
    # iteration, with no whole-block repeat: every assembly is of the
    # leading rows
    params, psi = wave08
    starts = np.stack([psi.coeffs * (1.0 + bump) for bump in (2e-3, -1e-3)])
    r0 = pi_residual(FourierProfile(psi.L0, starts), np.full(2, params.omega),
                     np.full(2, params.A), kawahara).orthonormal(psi.N)
    monkeypatch.setattr(cont, "_leading_solve",
                        lambda head, tail, rhs: np.full(rhs.shape[:-2] + (129, 1), np.nan))
    assembled = []

    def assembly(*args, _fn=cont._assembly):
        assembled.append(args[4:])
        return _fn(*args)

    monkeypatch.setattr(cont, "_assembly", assembly)
    outcomes = cont._newton_rows(FourierProfile(psi.L0, starts),
                                 np.full(2, params.omega), np.full(2, params.A), kawahara)
    for out, r in zip(outcomes, r0):
        assert isinstance(out, NewtonDivergenceError)
        assert str(out) == f"damping failed at residual {np.linalg.norm(r):.3e}"
    assert assembled == [(52,)]   # one iteration, on the leading rows


@pytest.mark.parametrize("rows, sizes", [(None, [4, 8, 8, 4]),
                                          (3, [3, 1, 3, 3, 2, 3, 3, 2, 3, 1])])
def test_frontier_stacks(wave08, kawahara, monkeypatch, rows, sizes):
    # the (2, 2) frontiers have 4, 8, 8 and 4 points; a stack byte budget of
    # three rows' leading m x (N + 1) blocks splits them, and the patch keeps
    # its bits
    params, psi = wave08
    center = newton_solve(psi, params.omega, params.A, kawahara)
    if rows is not None:
        m = _leading_size(center.psi, psi.N + 1)
        monkeypatch.setattr(cont, "STACK_BYTES", rows * 8 * m * (psi.N + 1))
    stacks = []

    def recorded(psi, *args, _fn=cont._newton_rows, **kwargs):
        stacks.append(len(psi.coeffs))
        return _fn(psi, *args, **kwargs)

    monkeypatch.setattr(cont, "_newton_rows", recorded)
    patch, missing = surface_patch(center, 5e-3, 5e-3, (2, 2), kawahara)
    ref, ref_missing = _pointwise_patch(center, 5e-3, 5e-3, (2, 2), kawahara)
    assert stacks == sizes
    assert list(patch) == list(ref) and missing == ref_missing == []
    for key, pt in ref.items():
        _assert_same_point(patch[key], pt)


def _assert_same_point(got, ref):
    assert np.array_equal(got.psi.coeffs, ref.psi.coeffs)
    assert (got.omega, got.A, got.residual_norm, got.newton_iters) == (
        ref.omega, ref.A, ref.residual_norm, ref.newton_iters)


def _singular_start():
    # a constant 2.5 at L0 = 2 pi and omega = 0.5: theta(1) + omega - 2.5 = 0
    # for kawahara, so J[1, 1] is exactly 0, and A = 0 leaves a residual
    c = np.zeros(17)
    c[0] = 2.5
    return c, 0.5, 0.0


def _good_start():
    # near the constant solution psi = 1 of omega = 0.5, A = 0
    c = np.zeros(17)
    c[:2] = 1.1, 0.01
    return c, 0.5, 0.0


@pytest.mark.parametrize("bad", ["singular", "non-finite"])
def test_bad_row_fails_alone_in_a_newton_stack(kawahara, bad):
    L0 = 2.0 * np.pi
    bad_c, bad_w, bad_A = _singular_start()
    if bad == "non-finite":
        bad_c = bad_c + np.inf
    good_c, good_w, good_A = _good_start()
    refusal = "singular Jacobian" if bad == "singular" else "non-finite start"
    with pytest.raises(NewtonDivergenceError, match=refusal):
        newton_solve(FourierProfile(L0, bad_c), bad_w, bad_A, kawahara)
    single = newton_solve(FourierProfile(L0, good_c), good_w, good_A, kawahara)
    assert single.newton_iters > 0
    for rows in ([0, 1], [1, 0]):
        cs = np.stack([bad_c, good_c])[rows]
        ws, As = np.array([bad_w, good_w])[rows], np.array([bad_A, good_A])[rows]
        outcomes = cont._newton_rows(FourierProfile(L0, cs), ws, As, kawahara)
        failed, pt = outcomes[rows.index(0)], outcomes[rows.index(1)]
        assert isinstance(failed, NewtonDivergenceError)
        assert str(failed).startswith(refusal)
        assert isinstance(pt, ContinuationPoint)
        _assert_same_point(pt, single)


def _point(L0, c, omega, A):
    return ContinuationPoint(omega=omega, A=A, psi=FourierProfile(L0, c),
                             residual_norm=0.0, newton_iters=0)


def test_singular_block_fails_alone_in_a_tangent_stack(wave08, kawahara):
    L0 = 2.0 * np.pi
    points = [_point(L0, *start) for start in (_singular_start(), _good_start())]
    bad, good = cont._tangents(points, kawahara, 17)   # N = 16: m is the whole block
    assert bad is None
    op = GalerkinOperator(points[1].psi, points[1].omega, kawahara, 16)
    eta, beta = solve_variations(op._rows(op.N + 1), op.psi)
    assert np.array_equal(good[0], eta.coeffs) and np.array_equal(good[1], beta.coeffs)
    # m < n: the k 0.8 wave next to a constant 2 theta(xi_1) at omega =
    # theta(xi_1), whose head has an exact zero pivot, keeps the bits of its
    # stack of one
    params, psi = wave08
    m = _leading_size(psi, psi.N + 1)
    assert m == 52
    theta1 = float(kawahara(2.0 * np.pi / psi.L0))
    singular = _point(psi.L0, np.eye(psi.N + 1)[0] * 2.0 * theta1, theta1, 0.0)
    wave = _point(psi.L0, psi.coeffs, params.omega, params.A)
    (alone,) = cont._tangents([wave], kawahara, m)
    for stack in ([singular, wave], [wave, singular]):
        out = cont._tangents(stack, kawahara, m)
        assert out[stack.index(singular)] is None
        good = out[stack.index(wave)]
        assert np.array_equal(good[0], alone[0]) and np.array_equal(good[1], alone[1])
