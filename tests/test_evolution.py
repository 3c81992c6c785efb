import math

import numpy as np
import pytest

from wavestab import evolution as ev
from wavestab.criteria import functionals


GRID = 256


def test_constant_is_fixed_point(kawahara):
    st = ev.state_from_values(np.full(GRID, 2.5), 20.0)
    stepper = ev.Evolver(20.0, GRID, kawahara, 0.01)
    out = stepper.run(st, 200)
    assert np.abs(out.values() - 2.5).max() < 1e-13


def test_linear_subcase_exact_phase(kawahara):
    L0 = 20.0
    stepper = ev.Evolver(L0, 64, kawahara, 0.01, nonlinear=False)
    x = np.arange(64) * (L0 / 64)
    st = ev.state_from_values(np.cos(2 * np.pi * 3 * x / L0), L0)
    out = stepper.run(st, 100)
    xi3 = 2 * np.pi * 3 / L0
    phase = np.exp(1j * xi3 * kawahara(xi3) * 1.0)
    expected = st.modes.copy()
    expected[3] *= phase
    expected[-3] *= np.conj(phase)
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
    dt = ev.default_dt(st, kawahara)
    stepper = ev.Evolver(psi.L0, GRID, kawahara, dt)
    nsteps = int(round(10 * psi.L0 / params.omega / dt))
    out = stepper.run(st, nsteps)
    # mode-wise comparison with the rigid translation psi(x - w t)
    xi = 2 * np.pi * np.fft.fftfreq(GRID, d=psi.L0 / GRID)
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
        shifted = ev.translate_state(st, y)
        assert ev.orbital_distance(shifted, psi, kawahara)[0] < 1e-10


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
    series = ev.stability_experiment(psi, params.omega, kawahara, kind="mode",
                                     delta=0.0, periods=0.5, n_samples=4)
    assert max(r["rho"] for r in series) < 1e-8


def test_experiment_mode_perturbation_bounded(wave08, kawahara):
    params, psi = wave08
    series = ev.stability_experiment(psi, params.omega, kawahara, kind="mode",
                                     delta=1e-3, periods=5.0, n_samples=25)
    rho0 = series[0]["rho"]
    assert max(r["rho"] for r in series) <= 10.0 * rho0
    dps = [r["deltaP"] for r in series]
    assert max(dps) - min(dps) < 1e-8
    assert series[0]["deltaP"] > -1e-10  # Lyapunov difference nonnegative


def test_lyapunov_nonnegative_on_manifold(wave08, kawahara):
    params, psi = wave08
    st_psi = ev.state_from_profile(psi, GRID)
    base = ev.conserved(st_psi, kawahara)
    for seed in range(20):
        v = ev.make_perturbation("random", psi, 1e-3, GRID, seed=seed)
        u0 = ev.mass_energy_matched(psi, v, GRID)
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
    shifted = ev.translate_state(st, y_star)
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


def test_run_rejects_incompatible_state(kawahara):
    st = ev.state_from_values(np.zeros(GRID), 20.0)
    with pytest.raises(ValueError):
        ev.Evolver(21.0, GRID, kawahara, 1e-3).run(st, 3)


def test_experiment_blowup_carries_partial_series(wave08, kawahara):
    params, psi = wave08
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ev.BlowUpError) as exc_info:
            ev.stability_experiment(psi, params.omega, kawahara, kind="mean",
                                    delta=5e6, periods=0.2, n_samples=4)
    assert len(exc_info.value.series) >= 1


def test_reality_and_dealiasing_preserved(wave08, kawahara):
    params, psi = wave08
    v = ev.make_perturbation("random", psi, 1e-2, GRID, seed=1)
    st = ev.state_from_values(ev.state_from_profile(psi, GRID).values() + v,
                              psi.L0)
    stepper = ev.Evolver(psi.L0, GRID, kawahara, 5e-3)
    out = stepper.run(st, 500)
    # reality: conjugate symmetry of the spectrum
    conj_err = np.abs(out.modes[1:] - np.conj(out.modes[1:][::-1])).max()
    assert conj_err < 1e-8 * max(1.0, np.abs(out.modes).max())
    # dealiasing: masked band stays empty
    n = np.abs(np.fft.fftfreq(GRID, d=1.0 / GRID))
    assert np.abs(out.modes[n > GRID // 3]).max() == 0.0
