import math

import numpy as np
import pytest

from wavestab import criteria
from wavestab.criteria import (
    VERDICT_DETERMINANT,
    VERDICT_INCONCLUSIVE,
    choose_witness,
    derivatives,
    det_D,
    det_D_reduced,
    evaluate_wave,
    functionals,
    p_form,
    verdict,
)
from wavestab.continuation import newton_solve
from wavestab.galerkin import assemble, spectrum
from wavestab.profile import FourierProfile
from conftest import evaluate_dnoidal, galilean_shift


def test_functionals_constant_and_mode():
    L0 = 14.0
    c = 1.3
    prof = FourierProfile(L0, np.array([c]))
    M, F = functionals(prof)
    assert M == pytest.approx(c * L0, rel=1e-14)
    assert F == pytest.approx(c * c * L0 / 2, rel=1e-14)
    mode = FourierProfile(L0, np.array([0.0, 1.0]))
    M, F = functionals(mode)
    assert M == 0.0
    assert F == pytest.approx(L0 / 4, rel=1e-14)


def test_mass_equals_aL(wave08):
    params, psi = wave08
    M, _ = functionals(psi)
    assert abs(M - params.a * psi.L0) < 1e-10


def test_surface_identities(wave08, variations08):
    params, psi = wave08
    eta, beta = variations08
    M, F = functionals(psi)
    M_w, M_A, F_w, F_A = derivatives(psi, eta, beta)
    w, L0 = params.omega, psi.L0
    assert abs(F_w - (w * M_w + M)) < 1e-6 * max(abs(F_w), abs(M))
    assert abs(F_A - (w * M_A + L0)) < 1e-6 * max(abs(F_A), L0)
    assert abs(L0 - (-w * M_A + M_w)) < 1e-6 * max(L0, abs(M_w))
    # F_A = M_w identically on the surface (combine the last two identities)
    assert F_A == pytest.approx(M_w, rel=1e-9)


def test_det_D_synthetic():
    assert det_D(1.0, 2.0, 3.0, 4.0) == -10.0


def test_det_D_two_forms_agree(wave08, variations08):
    params, psi = wave08
    eta, beta = variations08
    M, _ = functionals(psi)
    M_w, M_A, F_w, F_A = derivatives(psi, eta, beta)
    d1 = det_D(F_A, M_w, F_w, M_A)
    d2 = det_D_reduced(M, psi.L0, params.omega, M_w)
    assert d1 == pytest.approx(d2, rel=1e-8)
    # average above speed and M_w < 0 force a positive determinant
    assert M / psi.L0 > params.omega > 0 and M_w < 0
    assert d1 > 0


def test_p_form_and_witness(wave08, op08, variations08):
    params, psi = wave08
    eta, beta = variations08
    M, _ = functionals(psi)
    M_w, M_A, F_w, F_A = derivatives(psi, eta, beta)
    # P(1, 0) = F_w = w M_w + M
    assert p_form(1.0, 0.0, F_w, M_w, M_A, F_A) == pytest.approx(F_w, rel=1e-14)
    x0, y0, P, P_closed, I = choose_witness(op08, psi, eta, beta, params.omega)
    assert P == pytest.approx(P_closed, rel=1e-6)
    assert abs(I + P) < 1e-6 * max(abs(I), abs(P))
    assert math.copysign(1.0, P) == math.copysign(1.0, M / psi.L0 - params.omega)


def test_full_report_stable_point(wave08, kawahara):
    params, psi = wave08
    report = evaluate_wave(psi, params.omega, kawahara)
    assert report.spectrum.holds_assumption
    assert report.avg_minus_speed > 0
    assert report.M_w < 0
    assert report.I < 0
    assert report.verdict == VERDICT_DETERMINANT
    assert report.id_Fomega < 1e-6
    assert report.id_FA < 1e-6
    assert report.id_relFF < 1e-6
    assert report.min_psi > 0
    assert report.chi_psi_corr > 1e-6


def test_verdict_reads_the_recorded_detD_threshold(wave08, kawahara, monkeypatch):
    # the record states the thresholds that decide the verdict: raising
    # DETD_RTOL above this wave's |detD|/scale turns it inconclusive
    params, psi = wave08
    report = evaluate_wave(psi, params.omega, kawahara)
    record = report.as_record()
    assert record["tol_detD_rtol"] == criteria.DETD_RTOL == 1e-10
    assert record["tol_constrained_min_rtol"] == criteria.MIN_TOL
    assert report.verdict == VERDICT_DETERMINANT
    scale = max(1.0, abs(report.F_A * report.M_w), abs(report.F_w * report.M_A))
    monkeypatch.setattr(criteria, "DETD_RTOL", 2.0 * abs(report.detD) / scale)
    assert verdict(report) == VERDICT_INCONCLUSIVE


def test_coercivity_branch_fires_at_small_speed(kawahara):
    # at omega = 0.3 the mass derivative turns positive and the verdict
    # must route through the constrained-minimum conditions
    report, params, psi = evaluate_dnoidal(0.8, 0.3, kawahara)
    assert report.M_w > 0
    assert report.F_w > 0
    assert report.avg_minus_speed > 0
    assert report.w_psi is not None and report.w_psi >= -1e-8
    assert report.w_psi_psip is not None and report.w_psi_psip > 1e-8
    assert report.min_psi > 0
    assert report.verdict == "stable_by_constrained_coercivity"


def test_determinant_branch_leaves_minima_unset(wave08, kawahara):
    params, psi = wave08
    report = evaluate_wave(psi, params.omega, kawahara, N=128)
    assert report.M_w < 0
    assert report.w_psi is None and report.w_psi_psip is None


def test_margin_is_speed_independent(kawahara):
    # a - omega depends only on (k, L): the margin must not move with omega
    r1, _, _ = evaluate_dnoidal(0.7, 0.5, kawahara, N_op=128)
    r2, _, _ = evaluate_dnoidal(0.7, 2.0, kawahara, N_op=128)
    assert r1.avg_minus_speed == pytest.approx(r2.avg_minus_speed, rel=1e-10)


def test_eigensolve_budget(monkeypatch, kawahara):
    # one decomposition per parity block per report: eigvalsh where a report
    # reads two eigenvectors (they come from shifted solves), eigh where the
    # constrained minima read every eigenvector
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _fn=getattr(np.linalg, name), **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    report, params, psi = evaluate_dnoidal(0.8, 1.0, kawahara, N_op=128)
    assert report.verdict == VERDICT_DETERMINANT
    assert sorted(calls) == ["eigvalsh", "eigvalsh"]
    calls.clear()
    report, _, _ = evaluate_dnoidal(0.7, 0.5, kawahara, N_op=128)
    assert report.w_psi_psip is not None  # the coercivity route ran
    assert sorted(calls) == ["eigh", "eigh"]
    calls.clear()
    spectrum(assemble(psi, params.omega, kawahara, N=128))
    assert sorted(calls) == ["eigvalsh", "eigvalsh"]


def test_zero_wave_inconclusive(kawahara):
    psi = FourierProfile(20.0, np.zeros(33))
    report = evaluate_wave(psi, 1.0, kawahara, N=64)
    assert not report.spectrum.holds_assumption
    assert report.verdict == VERDICT_INCONCLUSIVE


def test_negative_margin_inconclusive(kawahara):
    # k = 0.9 has p < 0: average below speed, no stability claim available
    report, params, psi = evaluate_dnoidal(0.9, 1.0, kawahara)
    assert report.spectrum.holds_assumption     # spectral picture still holds
    assert report.avg_minus_speed < 0
    assert report.verdict == VERDICT_INCONCLUSIVE


def test_gauge_invariance_of_margin(wave08, kawahara):
    params, psi = wave08
    report0 = evaluate_wave(psi, params.omega, kawahara, N=128)
    alpha = 0.4
    psi2, w2, _ = galilean_shift(psi, params.omega, params.A, alpha)
    report1 = evaluate_wave(psi2, w2, kawahara, N=128)
    assert report1.avg_minus_speed == pytest.approx(
        report0.avg_minus_speed, rel=1e-12
    )
    assert report1.verdict == report0.verdict


def test_identities_hold_off_family(wave08, kawahara):
    # generic continuation point (omega, A) away from the explicit family
    params, psi = wave08
    pt = newton_solve(psi, params.omega + 0.05, params.A + 0.02, kawahara)
    report = evaluate_wave(pt.psi, pt.omega, kawahara)
    assert report.id_Fomega < 1e-6
    assert report.id_FA < 1e-6
    assert report.id_relFF < 1e-6
    assert abs(report.I + report.P_witness) < 1e-6 * max(
        abs(report.I), abs(report.P_witness)
    )


def test_report_record_fields(wave08, kawahara):
    params, psi = wave08
    report = evaluate_wave(psi, params.omega, kawahara, N=128)
    rec = report.as_record()
    for key in ("verdict", "detD", "I", "avg_minus_speed", "tol_zero_band",
                "tol_identity_rtol", "n_neg", "n_zero"):
        assert key in rec
