import math
from dataclasses import replace

import numpy as np
import pytest

from wavestab import evolution as ev
from wavestab.criteria import functionals
from wavestab.profile import build_dnoidal, extract_A


GRID = 256


def translate_state(state, y):
    """u(. + y): multiply mode n by e^{i xi_n y}."""
    xi = 2.0 * math.pi * np.arange(len(state.modes)) / state.L0
    return ev.EvolutionState(
        t=state.t, modes=state.modes * np.exp(1j * xi * y), L0=state.L0,
        grid_size=state.grid_size,
    )


class LinearEvolver(ev.Evolver):
    """The stepper with the nonlinear term switched off."""

    def _nonlin(self, x, i, work):
        return 0.0


def sampled_state_oracle(psi, grid_size):
    """The sample-and-fft load of a profile, kept as the reference."""
    cut = min(psi.N, ev.dealiased_band(grid_size))
    return np.fft.fft(psi.truncated(cut).values(grid_size))[: ev.dealiased_band(grid_size) + 1]


def mass_energy_matched(psi, v, grid_size=256):
    """u0 = alpha (psi + v) + gamma with M(u0) = M(psi) and F(u0) = F(psi).

    Two-parameter correction solved in closed form (quadratic in alpha);
    used for perturbations constrained to the conserved-quantity manifold.
    """
    L0 = psi.L0
    base = ev.state_from_profile(psi, grid_size).values()
    q = base + v
    h = L0 / grid_size
    M0 = h * base.sum()
    F0 = 0.5 * h * np.sum(base * base)
    Mq = h * q.sum()
    Fq = 0.5 * h * np.sum(q * q)
    # gamma(alpha) = (M0 - alpha Mq)/L0; plug into F:
    #   alpha^2 Fq + alpha gamma Mq + gamma^2 L0/2 = F0
    best = None
    coef2 = Fq - Mq * Mq / (2.0 * L0)
    coef0 = M0 * M0 / (2.0 * L0) - F0
    disc = -coef0 / coef2
    if disc < 0:
        raise ValueError("cannot match both invariants for this perturbation")
    for alpha in (math.sqrt(disc), -math.sqrt(disc)):
        if best is None or abs(alpha - 1.0) < abs(best - 1.0):
            best = alpha
    alpha = best
    gamma = (M0 - alpha * Mq) / L0
    return alpha * q + gamma


def test_constant_is_fixed_point(kawahara):
    st = ev.state_from_values(np.full(GRID, 2.5), 20.0)
    stepper = ev.Evolver(20.0, GRID, kawahara, 0.01)
    out = stepper.run(st, 200)
    assert np.abs(out.values() - 2.5).max() < 1e-13


def test_linear_subcase_exact_phase(kawahara):
    L0 = 20.0
    stepper = LinearEvolver(L0, 64, kawahara, 0.01)
    x = np.arange(64) * (L0 / 64)
    st = ev.state_from_values(np.cos(2 * np.pi * 3 * x / L0), L0)
    out = stepper.run(st, 100)
    xi3 = 2 * np.pi * 3 / L0
    phase = np.exp(1j * xi3 * kawahara(xi3) * 1.0)
    expected = st.modes.copy()
    expected[3] *= phase
    assert np.abs(out.modes - expected).max() / 64 < 1e-12


def test_kawahara_direct_form_matches_symbol(kawahara):
    # u_xxx - u_xxxxx linearization written with literal derivative powers
    L0 = 25.0
    M = 128
    xi = 2 * np.pi * np.fft.fftfreq(M, d=L0 / M)
    direct = -((1j * xi) ** 3) + (1j * xi) ** 5
    symbol_form = 1j * xi * kawahara(xi)
    assert np.abs(direct - symbol_form).max() < 1e-12 * np.abs(symbol_form).max()


def test_dnoidal_advection_ten_periods(wave08, kawahara):
    params, psi = wave08
    st = ev.state_from_profile(psi, GRID)
    dt = ev.default_dt(st, kawahara)[0]
    stepper = ev.Evolver(psi.L0, GRID, kawahara, dt)
    nsteps = int(round(10 * psi.L0 / params.omega / dt))
    out = stepper.run(st, nsteps)
    # mode-wise comparison with the rigid translation psi(x - w t)
    xi = 2 * np.pi * np.fft.rfftfreq(GRID, d=psi.L0 / GRID)[: ev.dealiased_band(GRID) + 1]
    exact = st.modes * np.exp(-1j * xi * params.omega * out.t)
    assert np.abs(out.modes - exact).max() / GRID < 1e-6
    rho, _ = ev.orbital_distance(out, psi, kawahara)
    assert rho < 1e-6


def test_conservation_drift_1e4_steps(wave08, kawahara):
    params, psi = wave08
    st = ev.state_from_profile(psi, GRID)
    stepper = ev.Evolver(psi.L0, GRID, kawahara, 5e-3)
    before = ev.conserved(st, kawahara)
    out = stepper.run(st, 10_000)
    after = ev.conserved(out, kawahara)
    assert abs(after.E - before.E) / abs(before.E) < 1e-8
    assert abs(after.F - before.F) / abs(before.F) < 1e-8
    assert abs(after.M - before.M) / max(1.0, abs(before.M)) < 1e-8


def test_conserved_triple_constant(kawahara):
    c, L0 = 1.4, 18.0
    st = ev.state_from_values(np.full(GRID, c), L0)
    t = ev.conserved(st, kawahara)
    # cubic coefficient 1/6: the combination the flux form actually conserves
    assert t.E == pytest.approx(-(c**3) * L0 / 6, rel=1e-13)
    assert t.F == pytest.approx(c * c * L0 / 2, rel=1e-13)
    assert t.M == pytest.approx(c * L0, rel=1e-13)


def test_F_matches_criteria_quadrature(wave08, kawahara):
    _, psi = wave08
    st = ev.state_from_profile(psi, GRID)
    _, F = functionals(psi)
    assert ev.conserved(st, kawahara).F == pytest.approx(F, rel=1e-12)


def test_orbital_distance_properties(wave08, kawahara):
    _, psi = wave08
    st = ev.state_from_profile(psi, GRID)
    assert ev.orbital_distance(st, psi, kawahara)[0] < 1e-12
    for y in (0.37, 5.0, -2.2):
        shifted = translate_state(st, y)
        assert ev.orbital_distance(shifted, psi, kawahara)[0] < 1e-10


def test_orbital_distance_beyond_scan_samples(wave08, kawahara):
    # at 12288 the dealiased band (modes up to 4095) exceeds the
    # 4096-sample scan
    _, psi = wave08
    rho = {}
    for grid in (6144, 8192, 12288):
        v = ev.make_perturbation("random", psi, 1e-3, grid, seed=5)
        st = ev.state_from_values(ev.state_from_profile(psi, grid).values() + v,
                                  psi.L0)
        rho[grid], _ = ev.orbital_distance(translate_state(st, 0.37), psi,
                                           kawahara)
    assert rho[8192] == pytest.approx(rho[6144], rel=1e-10)
    assert rho[12288] == pytest.approx(rho[6144], rel=1e-10)


def test_orbital_distance_single_mode_scaling(wave08, kawahara):
    _, psi = wave08
    delta = 1e-3
    v = ev.make_perturbation("mode", psi, delta, GRID)
    st = ev.state_from_values(ev.state_from_profile(psi, GRID).values() + v,
                              psi.L0)
    rho, _ = ev.orbital_distance(st, psi, kawahara)
    xi1 = 2 * np.pi / psi.L0
    w1 = math.sqrt(psi.L0 * (1.0 + kawahara(xi1)) / 2.0)
    assert 0.5 * delta * w1 <= rho <= 1.5 * delta * w1


def test_experiment_flat_for_zero_delta(wave08, kawahara):
    params, psi = wave08
    v = ev.make_perturbation("mode", psi, 0.0, GRID)
    series = ev.stability_experiment(psi, params.omega, kawahara, v, periods=0.5,
                                     n_samples=4)
    assert max(r["rho"] for r in series) < 1e-8


def test_experiment_mode_perturbation_bounded(wave08, kawahara):
    params, psi = wave08
    v = ev.make_perturbation("mode", psi, 1e-3, GRID)
    series = ev.stability_experiment(psi, params.omega, kawahara, v, periods=5.0,
                                     n_samples=25)
    rho0 = series[0]["rho"]
    assert max(r["rho"] for r in series) <= 10.0 * rho0
    dps = [r["deltaP"] for r in series]
    assert max(dps) - min(dps) < 1e-8
    assert series[0]["deltaP"] > -1e-10  # Lyapunov difference nonnegative


def test_experiment_records_match_public_functions(wave08, kawahara):
    # each record is orbital_distance and conserved of its state, bit for bit
    params, psi = wave08
    omega = params.omega
    v = ev.make_perturbation("random", psi, 1e-3, GRID, seed=2)
    series = ev.stability_experiment(psi, omega, kawahara, v, periods=0.2, n_samples=4)
    steps = series[0]["steps"]
    stepper = ev.Evolver(psi.L0, GRID, kawahara, series[0]["dt"])
    A, _ = extract_A(psi, omega, kawahara)
    c = ev.conserved(ev.state_from_profile(psi, GRID), kawahara)
    P_psi = c.E + omega * c.F + A * c.M
    st = ev.state_from_values(ev.state_from_profile(psi, GRID).values() + v, psi.L0)
    states, stride, done = [st], max(1, steps // 4), 0
    while done < steps:
        n = min(stride, steps - done)
        states.append(stepper.run(states[-1], n))
        done += n
    assert len(states) == len(series) >= 5
    for r, st in zip(series, states):
        c = ev.conserved(st, kawahara)
        assert (r["t"], r["rho"]) == (st.t, ev.orbital_distance(st, psi, kawahara)[0])
        assert (r["E"], r["F"], r["M"]) == (c.E, c.F, c.M)
        assert r["deltaP"] == (c.E + omega * c.F + A * c.M) - P_psi


def test_lyapunov_nonnegative_on_manifold(wave08, kawahara):
    params, psi = wave08
    st_psi = ev.state_from_profile(psi, GRID)
    base = ev.conserved(st_psi, kawahara)
    for seed in range(20):
        v = ev.make_perturbation("random", psi, 1e-3, GRID, seed=seed)
        u0 = mass_energy_matched(psi, v, GRID)
        c = ev.conserved(ev.state_from_values(u0, psi.L0), kawahara)
        assert abs(c.F - base.F) < 1e-10 * max(1.0, abs(base.F))
        assert abs(c.M - base.M) < 1e-10 * max(1.0, abs(base.M))
        assert c.E - base.E >= -1e-10  # energy minimal on the manifold


def test_compatibility_condition_at_minimizer(wave08, kawahara):
    params, psi = wave08
    v = ev.make_perturbation("random", psi, 1e-3, GRID, seed=5)
    st = ev.state_from_values(ev.state_from_profile(psi, GRID).values() + v,
                              psi.L0)
    rho, y_star = ev.orbital_distance(st, psi, kawahara)
    shifted = translate_state(st, y_star)
    diff = shifted.values() - ev.state_from_profile(psi, GRID).values()
    # psi psi' on the same grid
    sq = 0.5 * ev.state_from_profile(psi, GRID).values() ** 2
    sq_modes = np.fft.fft(sq)
    xi = 2 * np.pi * np.fft.fftfreq(GRID, d=psi.L0 / GRID)
    ppp = np.fft.ifft(1j * xi * sq_modes).real
    h = psi.L0 / GRID
    pairing = abs(h * np.sum(ppp * diff))
    scale = math.sqrt(h * np.sum(diff**2)) * math.sqrt(h * np.sum(ppp**2))
    assert pairing < 1e-3 * scale


def test_blowup_detection(kawahara):
    st = ev.state_from_values(np.full(GRID, 2e6), 20.0)
    stepper = ev.Evolver(20.0, GRID, kawahara, 1e-3)
    with pytest.raises(ev.BlowUpError):
        stepper.step(st)


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
def test_dt_not_finite_positive_refused(kawahara, dt):
    # NaN and inf passed a `dt <= 0` check and ran into a false blow-up
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        ev.Evolver(20.0, GRID, kawahara, dt)


def test_overflowing_weights_refused(kawahara):
    # a finite dt whose ETDRK4 weights overflow ran into a false blow-up
    # at t = dt, after a screen of RuntimeWarnings
    with pytest.raises(ValueError, match="non-finite ETDRK4 weights"):
        ev.Evolver(20.0, GRID, kawahara, 1e300)


def test_overflowing_first_record_refused(wave08, kawahara):
    # delta = 1e300 overflowed the first record's conserved quantities and
    # orbital distance, with warnings, before any step
    _, psi = wave08
    v = ev.make_perturbation("mode", psi, 1e300, 64)
    with pytest.raises(FloatingPointError,
                       match=r"non-finite first record at perturbation size 1e\+300"):
        ev.stability_experiment(psi, 1.0, kawahara, v, periods=0.5, n_samples=2)


def test_run_rejects_incompatible_state(kawahara):
    st = ev.state_from_values(np.zeros(GRID), 20.0)
    with pytest.raises(ValueError):
        ev.Evolver(21.0, GRID, kawahara, 1e-3).run(st, 3)


@pytest.mark.parametrize("mode", [0, 22, 500])
def test_mode_outside_dealiased_band_refused(wave08, mode):
    # grid 64 keeps modes 1..21: mode 22 would be dropped by the dealiasing
    # and mode 500 would alias to another mode
    _, psi = wave08
    with pytest.raises(ValueError, match=f"mode {mode} is outside 1..21"):
        ev.make_perturbation("mode", psi, 1e-3, 64, mode=mode)


@pytest.mark.parametrize("kind, given", [
    ("random", {"mode": 2}), ("mean", {"mode": 1}),
    ("mode", {"seed": 0}), ("mean", {"seed": 3}),
])
def test_parameter_the_kind_does_not_read_refused(wave08, kind, given):
    # a mode or seed the kind does not read was ignored
    _, psi = wave08
    (name,) = given
    with pytest.raises(ValueError, match=f"^a {kind} perturbation reads no {name}$"):
        ev.make_perturbation(kind, psi, 1e-3, 64, **given)


def test_random_modes_outside_dealiased_band_refused(wave08):
    # a random perturbation has modes 1..8; grid 24 keeps modes 1..7, and
    # its refusal came later and blamed grid values the caller never gave
    _, psi = wave08
    with pytest.raises(ValueError, match="random perturbation mode 8 is outside 1..7"):
        ev.make_perturbation("random", psi, 1e-3, 24)
    v = ev.make_perturbation("random", psi, 1e-3, 25)   # grid 25 keeps 1..8
    assert ev.state_from_values(v, psi.L0).modes.shape == (9,)


def test_band_content_refused(wave08):
    # grid 64 keeps modes 0..21; dropping mode 22 or 30 evolved the bare wave
    # (rho 1.4e-14 and on_manifold True at delta 1e-3)
    _, psi = wave08
    x = np.arange(64) * (psi.L0 / 64)
    base = ev.state_from_profile(psi, 64).values()

    def cos(mode):
        return 1e-3 * np.cos(2.0 * math.pi * mode * x / psi.L0)

    st = ev.state_from_values(base + cos(21), psi.L0)
    assert abs(st.modes[21]) == pytest.approx(1e-3 * 64 / 2, rel=1e-6)
    for values in (base + cos(22), base + cos(30),
                   np.stack([base + cos(21), base + cos(22)])):
        with pytest.raises(ValueError, match=r"above the dealiased band of "
                                             r"grid 64 \(modes up to 21\)"):
            ev.state_from_values(values, psi.L0)


@pytest.mark.parametrize("grid", [7, 64, 100, 256])
def test_constant_rows_accepted(grid):
    # a constant's rfft has round-off in its oscillating modes, above and
    # below the band alike; that is not content
    st = ev.state_from_values(np.stack([np.full(grid, 2.5), np.zeros(grid)]), 20.0)
    assert st.modes.shape == (2, ev.dealiased_band(grid) + 1)


@pytest.mark.parametrize("n_samples", [0, -3])
def test_n_samples_below_one_refused(wave08, kawahara, n_samples):
    # 0 raised ZeroDivisionError; -3 recorded every step
    params, psi = wave08
    v = ev.make_perturbation("random", psi, 1e-3, 64)
    with pytest.raises(ValueError, match=f"n_samples must be at least 1, not {n_samples}"):
        ev.stability_experiment(psi, params.omega, kawahara, v, periods=0.05,
                                n_samples=n_samples)


def test_experiment_blowup_carries_partial_series(wave08, kawahara):
    params, psi = wave08
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ev.BlowUpError) as exc_info:
            ev.stability_experiment(psi, params.omega, kawahara,
                                    ev.make_perturbation("mean", psi, 5e6, GRID),
                                    periods=0.2, n_samples=4)
    assert len(exc_info.value.series) >= 1


# one grid on each side of DENSE_GRID_MAX, so both transforms are exercised
DENSE_GRID, FFT_GRID = 128, 384


def test_transform_follows_grid(kawahara):
    assert ev.DENSE_GRID_MAX < FFT_GRID
    assert ev.Evolver(20.0, DENSE_GRID, kawahara, 1e-3).transform == "dense"
    assert ev.Evolver(20.0, ev.DENSE_GRID_MAX, kawahara, 1e-3).transform == "dense"
    assert ev.Evolver(20.0, ev.DENSE_GRID_MAX + 1, kawahara, 1e-3).transform == "fft"


def test_reality_and_dealiasing_preserved(wave08, kawahara):
    params, psi = wave08
    for grid in (DENSE_GRID, FFT_GRID):
        v = ev.make_perturbation("random", psi, 1e-2, grid, seed=1)
        st = ev.state_from_values(ev.state_from_profile(psi, grid).values() + v,
                                  psi.L0)
        stepper = ev.Evolver(psi.L0, grid, kawahara, 5e-3)
        out = stepper.run(st, 500)
        # reality and dealiasing are structural: the state is the rfft band
        assert len(out.modes) == ev.dealiased_band(grid) + 1


@pytest.mark.parametrize("grid", [95, 96, 97, 128, 129, 384, 385])
def test_band_square_does_not_alias(kawahara, grid):
    # a band up to grid / 3 at a grid divisible by 3 folded the square of its
    # top mode back onto it: 0.25 at grids 96, 129 and 384 instead of 0
    stepper = ev.Evolver(20.0, grid, kawahara, 1e-3)
    top = stepper.band - 1
    assert 3 * top < grid <= 3 * (top + 1)
    x = np.zeros(stepper.band, dtype=complex)
    x[top] = grid / 2   # u = cos(2 pi top x / L0)
    # u^2 = 1/2 + cos(4 pi top x / L0) / 2; mode 2 top lies above the band
    N = stepper._nonlin(x, 0, stepper._work(x.shape)) / grid
    assert abs(N[0] - 0.5) < 1e-15 and np.abs(N[1:]).max() < 1e-15


class _ComplexStepOracle:
    """The full-spectrum complex-FFT ETDRK4 step, kept as the reference."""

    def __init__(self, L0, grid_size, sym, dt, nonlinear=True):
        self.dt, self.nonlinear = dt, nonlinear
        self.xi = 2 * np.pi * np.fft.fftfreq(grid_size, d=L0 / grid_size)
        # the 2/3 rule: modes |n| with 3|n| < grid, so no square aliases onto them
        self.mask = 3 * np.abs(np.fft.fftfreq(grid_size, d=1.0 / grid_size)) < grid_size
        lin = 1j * self.xi * np.asarray(sym(self.xi), dtype=float)
        r = np.exp(2j * np.pi * (np.arange(ev.CONTOUR_POINTS) + 0.5) / ev.CONTOUR_POINTS)
        LR = dt * lin[:, None] + r[None, :]
        eLR = np.exp(LR)
        self.E1 = np.exp(dt * lin)
        self.E2 = np.exp(0.5 * dt * lin)
        self.Q = dt * ((np.exp(LR / 2.0) - 1.0) / LR).mean(1)
        self.f1 = dt * ((-4.0 - LR + eLR * (4.0 - 3.0 * LR + LR**2)) / LR**3).mean(1)
        self.f2 = dt * ((2.0 + LR + eLR * (LR - 2.0)) / LR**3).mean(1)
        self.f3 = dt * ((-4.0 - 3.0 * LR - LR**2 + eLR * (4.0 - LR)) / LR**3).mean(1)

    def _nonlin(self, vh):
        if not self.nonlinear:
            return 0.0
        u = np.fft.ifft(vh).real
        return -0.5j * self.xi * (np.fft.fft(u * u) * self.mask)

    def run(self, modes, nsteps):
        vh = modes
        for _ in range(nsteps):
            N1 = self._nonlin(vh)
            a = self.E2 * vh + self.Q * N1
            N2 = self._nonlin(a)
            b = self.E2 * vh + self.Q * N2
            N3 = self._nonlin(b)
            c = self.E2 * a + self.Q * (2.0 * N3 - N1)
            N4 = self._nonlin(c)
            vh = (self.E1 * vh + self.f1 * N1 + 2.0 * self.f2 * (N2 + N3)
                  + self.f3 * N4)
        return vh


def _perturbed_state(psi, grid, seed=1, delta=1e-2):
    v = ev.make_perturbation("random", psi, delta, grid, seed=seed)
    return ev.state_from_values(ev.state_from_profile(psi, grid).values() + v,
                                psi.L0)


@pytest.mark.parametrize("grid, nonlinear",
                         [(128, True), (256, True), (512, True), (128, False)])
def test_half_spectrum_run_matches_complex_oracle(wave08, kawahara, grid, nonlinear):
    _, psi = wave08
    st = _perturbed_state(psi, grid)
    dt = ev.default_dt(st, kawahara)[0]
    stepper = (ev.Evolver if nonlinear else LinearEvolver)(psi.L0, grid, kawahara, dt)
    out = stepper.run(st, 1000)
    ref = _ComplexStepOracle(psi.L0, grid, kawahara, dt, nonlinear).run(
        np.fft.fft(st.values()), 1000)
    assert out.t == pytest.approx(1000 * dt, rel=1e-15)
    # the oracle keeps every mode; above the band its modes stay at round-off
    top = np.abs(ref).max()
    band = ev.dealiased_band(grid)
    assert np.abs(ref[band + 1 : grid // 2 + 1]).max() < 1e-13 * top
    assert np.abs(out.modes - ref[: band + 1]).max() < 1e-13 * top


@pytest.mark.parametrize("k, grid", [(0.6, 30), (0.6, 28), (0.8, 128), (0.8, 256)])
def test_state_from_profile_matches_sampled_load(branch_L, k, grid):
    # at k = 0.6 the modes above 9 (the band of grids 28 to 30) fall below
    # 1e-10 of the largest oscillating coefficient (above 8 they reach 1.5e-10)
    _, psi = build_dnoidal(k, branch_L[k], 1.0, N=128)
    st = ev.state_from_profile(psi, grid)
    ref = sampled_state_oracle(psi, grid)
    assert st.grid_size == grid and len(st.modes) == ev.dealiased_band(grid) + 1
    assert np.abs(st.modes - ref).max() < 1e-13 * np.abs(ref).max()


def _golden_section_oracle(state, psi, sym, samples=4096, refine_tol=1e-12):
    """The golden-section orbital_distance, kept as the reference."""
    L0 = psi.L0
    band = ev.dealiased_band(state.grid_size)
    xi_pos = 2.0 * math.pi * np.arange(band + 1) / L0
    w = 1.0 + np.asarray(sym(xi_pos), dtype=float)
    uu = state.mode_coefficients()
    ph = psi.psi_hat(band)
    dbl = np.ones(band + 1)
    dbl[1:] = 2.0
    padded = np.zeros(samples, dtype=complex)
    padded[: band + 1] = dbl * w * uu * np.conj(ph)
    j = int(np.argmax(np.fft.ifft(padded).real))

    def dist2(y):
        diff = uu * np.exp(1j * xi_pos * y) - ph
        return float(np.sum(dbl * w * (diff.real**2 + diff.imag**2)))

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = (j - 1) * L0 / samples, (j + 1) * L0 / samples
    c1, d1 = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = dist2(c1), dist2(d1)
    while (b - a) > refine_tol:
        if fc < fd:
            b, d1, fd = d1, c1, fc
            c1 = b - invphi * (b - a)
            fc = dist2(c1)
        else:
            a, c1, fc = c1, d1, fd
            d1 = a + invphi * (b - a)
            fd = dist2(d1)
    y_star = 0.5 * (a + b)
    return math.sqrt(psi.L0 * max(dist2(y_star), 0.0)), y_star


def test_newton_orbital_distance_matches_golden_section(wave08, kawahara):
    _, psi = wave08
    L0 = psi.L0
    states = [_perturbed_state(psi, grid, seed, delta)
              for grid, seed, delta in ((256, 1, 1e-2), (256, 5, 1e-3), (128, 2, 1e-3))]
    # translations that put y* just above 0 and just below L0, where the
    # scan's best sample sits at either end of the period
    _, y0 = ev.orbital_distance(states[1], psi, kawahara)
    for target in (1e-9, 2e-5, L0 - 2e-5, L0 - 1e-9):
        states.append(translate_state(states[1], y0 - target))
    for i, st in enumerate(states):
        rho, y_star = ev.orbital_distance(st, psi, kawahara)
        rho_ref, y_ref = _golden_section_oracle(st, psi, kawahara)
        assert rho == pytest.approx(rho_ref, rel=1e-12)
        assert abs(y_star - y_ref) < 1e-8
        if i >= 3:
            assert min(abs(y_star), abs(y_star - L0)) < 1e-4


class _Counting:
    """Stand-in for numpy or one of its functions: counts each call by its
    dotted name (np.add.reduce is "np.add.reduce") and then makes it."""

    def __init__(self, target, name, counts):
        self._target, self._name, self._counts = target, name, counts

    def __getattr__(self, attr):
        value = getattr(self._target, attr)
        if not callable(value):
            return value
        return _Counting(value, f"{self._name}.{attr}", self._counts)

    def __call__(self, *args, **kwargs):
        self._counts[self._name] = self._counts.get(self._name, 0) + 1
        return self._target(*args, **kwargs)


def test_step_transform_budget(wave08, kawahara, monkeypatch):
    _, psi = wave08

    def expect(rfft, irfft):
        return {"irfft": irfft, "rfft": rfft, "np.fft.fft": 0, "np.fft.ifft": 0,
                "np.fft.rfft": 0, "np.fft.irfft": 0}

    counts = expect(0, 0)

    # numpy.fft, which the step and run no longer call, and below the
    # pocketfft gufuncs each Evolver binds
    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, _Counting(getattr(np.fft, name),
                                                    f"np.fft.{name}", counts))

    # the dense matrices make no transform; the FFT path one pair per stage
    for grid, per_pair in ((DENSE_GRID, 0), (FFT_GRID, 4)):
        st = _perturbed_state(psi, grid)
        stepper = ev.Evolver(psi.L0, grid, kawahara, 1e-3)
        stepper._irfft = _Counting(stepper._irfft, "irfft", counts)
        stepper._rfft = _Counting(stepper._rfft, "rfft", counts)
        counts.update(expect(0, 0))
        work = stepper._work(st.modes.shape)
        work.vh[...] = st.modes
        stepper._step(work)
        assert counts == expect(per_pair, per_pair)
        counts.update(expect(0, 0))
        stepper.run(st, 10)
        # the steps' transforms plus one irfft for the final blow-up check
        assert counts == expect(10 * per_pair, 10 * per_pair + 1)


@pytest.mark.parametrize("shape", [(), (5,)], ids=["one", "stack5"])
def test_step_call_budget(wave08, kawahara, monkeypatch, shape):
    # the step's numpy calls, counted through a stand-in for the module's
    # numpy and the product and transforms each Evolver binds: 8 products
    # (dense) or 8 transforms (fft), 4 squares and at most 11 other calls,
    # the stacked algebra's count
    _, psi = wave08
    counts = {}
    for grid, transform in ((DENSE_GRID, "dense"), (FFT_GRID, "fft")):
        stepper = ev.Evolver(psi.L0, grid, kawahara, 1e-3)
        assert stepper.transform == transform
        stepper._irfft = _Counting(stepper._irfft, "irfft", counts)
        stepper._rfft = _Counting(stepper._rfft, "rfft", counts)
        if transform == "dense":
            stepper._dot = _Counting(stepper._dot, "dot", counts)
        modes = _perturbed_state(psi, grid).modes
        work = stepper._work((*shape, len(modes)))
        work.vh[...] = modes
        counts.clear()
        with monkeypatch.context() as m:
            m.setattr(ev, "np", _Counting(np, "np", counts))
            stepper._step(work)
        products = counts.pop("dot", 0)
        transforms = counts.pop("irfft", 0) + counts.pop("rfft", 0)
        assert (products, transforms) == ((8, 0) if transform == "dense" else (0, 8))
        assert counts.pop("np.square") == 4
        assert sum(counts.values()) <= 11, counts


@pytest.mark.parametrize("grid, size", [(24, 24), (25, 25), (240, 240), (241, 243),
                                        (251, 256), (255, 256), (256, 256),
                                        (384, 384), (1001, 1024), (6144, 6144)])
def test_fft_size(kawahara, grid, size):
    # the dense path's blow-up check runs at the grid; the FFT pair at the
    # smallest size >= grid with no prime factor above 5
    stepper = ev.Evolver(20.0, grid, kawahara, 1e-3)
    assert stepper.fft_size == size
    assert stepper._rfft_scale == grid / size


@pytest.mark.parametrize("shape", [(), (5,)], ids=["one", "stack5"])
@pytest.mark.parametrize("grid", [24, 25, 241, 255, 256, 384, 1001, 6144])
def test_bound_transforms_match_numpy_fft(kawahara, grid, shape):
    # the gufuncs are numpy's private ones: pin their bits to the public
    # np.fft.irfft(x, n) and np.fft.rfft(v) at the stepper's transform size
    # n, even and odd; at a grid of n points the step's factors are these
    stepper = ev.Evolver(20.0, grid, kawahara, 1e-3)
    n = stepper.fft_size
    rng = np.random.default_rng(grid)
    x = rng.standard_normal((*shape, stepper.band, 2)).view(complex)[..., 0]
    v = np.empty((*shape, n))
    stepper._irfft(x, 1.0 / n, out=v)
    assert np.array_equal(v, np.fft.irfft(x, n))
    full = np.empty((*shape, n // 2 + 1), dtype=complex)
    stepper._rfft(v, 1.0, out=full)
    assert np.array_equal(full, np.fft.rfft(v))
    if n == grid:
        assert (stepper._inv_grid, stepper._rfft_scale) == (1.0 / n, 1.0)


def _allocating_step(stepper, vh):
    """The step before its work buffers, one allocation per operation, kept
    as the reference: the buffered step must give the same bits.  The dense
    products are transposed matrix times vector for one state, where the step
    takes vector times matrix, and the step's calls for a stack; the FFT runs
    at the grid."""
    def nonlin(v):
        if stepper._synth is None:
            return np.fft.rfft(np.fft.irfft(v, stepper.grid_size) ** 2)[..., : stepper.band]
        if v.ndim == 1:
            sq = np.square(np.dot(stepper._synth.T, v.view(float)))
            return np.dot(stepper._anal.T, sq).view(complex)
        sq = np.square(np.dot(v.view(float), stepper._synth))
        return np.dot(sq, stepper._anal).view(complex)

    N1 = nonlin(vh)
    Ev = stepper.E2 * vh
    a = Ev + stepper.Q * N1
    N2 = nonlin(a)
    N3 = nonlin(Ev + stepper.Q * N2)
    N4 = nonlin(stepper.E2 * a + stepper.Q * (2.0 * N3 - N1))
    return (stepper.E1 * vh + stepper.f1 * N1 + stepper.f2 * (N2 + N3)
            + stepper.f3 * N4)


def _assert_buffered_matches_allocating(psi, sym, grid, transform, seeds):
    """1000 buffered steps of one state (seeds 1) or of a stack are the
    allocating steps' bits."""
    states = [_perturbed_state(psi, grid, seed) for seed in range(1, seeds + 1)]
    st = states[0] if seeds == 1 else \
        replace(states[0], modes=np.stack([s.modes for s in states]))
    stepper = ev.Evolver(psi.L0, grid, sym, ev.default_dt(states[0], sym)[0])
    assert stepper.transform == transform
    vh = st.modes
    for _ in range(1000):
        vh = _allocating_step(stepper, vh)
    assert np.array_equal(stepper.run(st, 1000).modes, vh)


@pytest.mark.parametrize("grid, transform", [(128, "dense"), (256, "fft")])
def test_buffered_step_matches_allocating_step(wave08, kawahara, grid, transform):
    _assert_buffered_matches_allocating(wave08[1], kawahara, grid, transform, 1)


@pytest.mark.parametrize("grid, transform", [(128, "dense"), (256, "fft")])
def test_buffered_stack_step_matches_allocating_step(wave08, kawahara, grid, transform):
    # a stack of 5 at grid 128 is the shape criterion 8 steps
    _assert_buffered_matches_allocating(wave08[1], kawahara, grid, transform, 5)


@pytest.mark.parametrize("grid, size", [(241, 243), (251, 256), (255, 256), (1001, 1024)])
def test_padded_fft_step_matches_numpy_fft_step(wave08, kawahara, grid, size):
    # the FFT pair at a smooth size: one step agrees with the plain np.fft
    # step at the grid to round-off
    _, psi = wave08
    st = _perturbed_state(psi, grid)
    stepper = ev.Evolver(psi.L0, grid, kawahara, ev.default_dt(st, kawahara)[0])
    assert (stepper.transform, stepper.fft_size) == ("fft", size)
    ref = _allocating_step(stepper, st.modes)
    out = stepper.run(st, 1).modes
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("grid", [DENSE_GRID, FFT_GRID])
def test_run_returns_state_it_owns(wave08, kawahara, grid):
    _, psi = wave08
    st = _perturbed_state(psi, grid)
    given = st.modes.copy()
    stepper = ev.Evolver(psi.L0, grid, kawahara, 1e-3)
    first = stepper.run(st, 20)
    kept = first.modes.copy()
    second = stepper.run(first, 20)
    assert np.array_equal(st.modes, given) and np.array_equal(first.modes, kept)
    assert not np.shares_memory(first.modes, second.modes)


# from two rows up, a stack's matrix-matrix products (dense transform) round
# differently from one state's vector-matrix ones: the series agree to
# round-off of the O(1) state, measured at about 1e-15.  A stack of one
# steps bit for bit like one state
STACK_ATOL = 1e-12


def _random(psi, delta, grid, seeds):
    """The stack of random perturbations of `seeds`."""
    return np.stack([ev.make_perturbation("random", psi, delta, grid, seed=seed)
                     for seed in seeds])


@pytest.mark.parametrize("grid", [DENSE_GRID, FFT_GRID])
def test_seed_stack_matches_single_seed_runs(wave08, kawahara, grid):
    params, psi = wave08
    kw = dict(periods=1.0, n_samples=5)
    for seeds, atol in (([0, 3, 4], STACK_ATOL), ([3], 0.0)):
        stack = _random(psi, 1e-3, grid, seeds)
        batched = ev.stability_experiment(psi, params.omega, kawahara, stack, **kw)
        assert len(batched) == len(seeds)
        for v, series in zip(stack, batched):
            single = ev.stability_experiment(psi, params.omega, kawahara, v, **kw)
            assert len(series) == len(single) >= 6
            for rec, ref in zip(series, single):
                assert rec.keys() == ref.keys()
                for key, value in ref.items():
                    if key in ("rho", "E", "F", "M", "deltaP"):
                        assert abs(rec[key] - value) <= atol * max(1.0, abs(value))
                    else:
                        assert rec[key] == value


def test_empty_stack_refused(wave08, kawahara):
    params, psi = wave08
    with pytest.raises(ValueError, match="the perturbation is empty"):
        ev.stability_experiment(psi, params.omega, kawahara, np.empty((0, 64)))


@pytest.mark.parametrize("delta", [1e-3, 20.0])
def test_one_default_dt_from_the_wave_and_the_perturbation(wave08, kawahara, delta):
    # the wave and the perturbation are each measured against their own
    # largest mode; a cut at 1e-12 of the perturbed state's largest mode gave
    # seed 0 dt 0.0085 and seed 1 dt 0.0061 at delta 20 on grid 64
    params, psi = wave08
    wave_dt = ev.default_dt(ev.state_from_profile(psi, 64), kawahara)[0]
    assert wave_dt == 0.0061407698859101325
    stack = _random(psi, delta, 64, [0, 1])
    kw = dict(periods=0.1, n_samples=1)
    stacked = ev.stability_experiment(psi, params.omega, kawahara, stack, **kw)
    for row, v in enumerate(stack):
        single = ev.stability_experiment(psi, params.omega, kawahara, v, **kw)
        assert single[0]["dt"] == stacked[row][0]["dt"] == wave_dt


def test_dt_longer_than_the_horizon_refused(wave08, kawahara, monkeypatch):
    # one step of dt 100 took the state to t = 100 for a horizon of t = 12.9
    params, psi = wave08

    def no_evolver(*args):
        raise AssertionError("an Evolver was built")

    monkeypatch.setattr(ev, "Evolver", no_evolver)
    with pytest.raises(ValueError, match="longer than the horizon t=12.90"):
        ev.stability_experiment(psi, params.omega, kawahara,
                                ev.make_perturbation("mode", psi, 1e-3, 64),
                                dt=100.0, periods=0.5)


def test_stack_blowup_names_the_row(wave08, kawahara):
    # at delta 20 and dt 0.006 on grid 64, seed 3 blows up and 0 and 1 do not
    params, psi = wave08
    stack = _random(psi, 20.0, 64, [0, 1, 3])
    kw = dict(dt=0.006, periods=0.2, n_samples=4)
    with pytest.raises(ev.BlowUpError) as single:
        ev.stability_experiment(psi, params.omega, kawahara, stack[2], **kw)
    with pytest.raises(ev.BlowUpError) as stacked:
        ev.stability_experiment(psi, params.omega, kawahara, stack, **kw)
    assert str(stacked.value) == str(single.value)
    assert single.value.rows == (0,) and stacked.value.rows == (2,)
    series = stacked.value.series
    assert len(series) == 3 and len(series[2]) == len(single.value.series)
    assert len(series[0]) == len(series[1]) == len(series[2]) >= 2
    for v, partial in zip(stack[:2], series):
        full = ev.stability_experiment(psi, params.omega, kawahara, v, **kw)
        for rec, ref in zip(partial, full):
            assert abs(rec["rho"] - ref["rho"]) <= STACK_ATOL * max(1.0, ref["rho"])


@pytest.mark.parametrize("grid, seeds", [pytest.param(128, 1, id="128"),
                                         pytest.param(256, 1, id="256"),
                                         pytest.param(128, 5, id="128x5")])
def test_run_timing(benchmark, wave08, kawahara, grid, seeds):
    # layer timing of Evolver.run, 100 steps of one state or of a stack of
    # seeds; the time is reported, never asserted
    _, psi = wave08
    states = [_perturbed_state(psi, grid, seed) for seed in range(1, seeds + 1)]
    st = states[0] if seeds == 1 else \
        replace(states[0], modes=np.stack([s.modes for s in states]))
    stepper = ev.Evolver(psi.L0, grid, kawahara, ev.default_dt(states[0], kawahara)[0])
    out = benchmark.pedantic(stepper.run, args=(st, 100), rounds=5, iterations=1)
    ref = stepper.run(st, 100)
    assert out.t == ref.t and np.array_equal(out.modes, ref.modes)


def test_records_timing(benchmark, wave08, kawahara):
    # layer timing of one record at grid 256: orbital_distance plus conserved;
    # the time is reported, never asserted
    _, psi = wave08
    st = _perturbed_state(psi, 256)

    def record():
        return ev.orbital_distance(st, psi, kawahara)[0], ev.conserved(st, kawahara)

    rho, cons = benchmark.pedantic(record, rounds=20, iterations=5)
    assert rho > 0.0 and cons == ev.conserved(st, kawahara)
