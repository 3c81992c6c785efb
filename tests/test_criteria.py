import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wavestab import criteria, galerkin
from wavestab.criteria import (
    VERDICT_COERCIVITY,
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
from wavestab.profile import FourierProfile, build_dnoidal
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


def test_verdict_applies_the_recorded_identity_and_witness_tolerances(wave08, kawahara):
    # a wrong sign in id_FA, or a witness P off its closed form or off -I by
    # more than WITNESS_RTOL, turns a determinant verdict inconclusive
    params, psi = wave08
    r = evaluate_wave(psi, params.omega, kawahara)
    assert r.verdict == VERDICT_DETERMINANT
    record = r.as_record()
    assert record["tol_identity_rtol"] == criteria.IDENTITY_RTOL
    assert record["tol_witness_rtol"] == criteria.WITNESS_RTOL
    wrong_sign_FA = criteria._relative(r.F_A + r.omega * r.M_A - r.L0,
                                       r.F_A, r.omega * r.M_A, r.L0)
    assert wrong_sign_FA > criteria.IDENTITY_RTOL
    off = 1.0 + 10.0 * criteria.WITNESS_RTOL
    for mutated in (dict(id_FA=wrong_sign_FA), dict(id_relFF=math.nan),
                    dict(P_closed=r.P_witness * off), dict(I=-r.P_witness * off)):
        assert verdict(dataclasses.replace(r, **mutated)) == VERDICT_INCONCLUSIVE, mutated


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


ROUTES_128 = ((0.8, 1.0, VERDICT_DETERMINANT), (0.9, 1.0, VERDICT_INCONCLUSIVE),
              (0.7, 0.5, VERDICT_COERCIVITY))


def test_eigensolve_budget(monkeypatch, kawahara):
    # one eigh per parity block per report, of the resolved leading block,
    # and no eigvalsh, on every route; spectrum alone makes the same two
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _fn=getattr(np.linalg, name), **kwargs):
            calls.append((_fn.__name__, a.shape))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    for k, omega, route in ROUTES_128:
        # each block's resolved size, from an operator outside the count
        _, params, psi = evaluate_dnoidal(k, omega, kawahara, N_op=128)
        op = assemble(psi, omega, kawahara, N=128)
        expected = [("eigh", (r.eigenvectors.shape[0],) * 2) for r in (op.eig_even, op.eig_odd)]
        assert all(shape[0] < 128 for _, shape in expected)
        calls.clear()
        report, _, _ = evaluate_dnoidal(k, omega, kawahara, N_op=128)
        assert report.verdict == route
        assert calls == expected, route
        calls.clear()
        spectrum(assemble(psi, omega, kawahara, N=128))
        assert calls == expected, route


def test_solve_budget(monkeypatch, kawahara):
    # one LU per report, for eta and beta, of the even block's resolved
    # leading modes on every route, never of the whole block; chi is a
    # resolved eigenvector and spectrum bounds the kernel direction, with no
    # solve
    calls = []
    solve = np.linalg.solve

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    for (k, omega, route), N_op in itertools.product(ROUTES_128, (128, 256)):
        # the even block's resolved size, from an operator outside the count
        _, params, psi = evaluate_dnoidal(k, omega, kawahara, N_op=N_op)
        m = assemble(psi, omega, kawahara, N=N_op).eig_even.eigenvectors.shape[0]
        assert m < N_op
        calls.clear()
        report, _, _ = evaluate_dnoidal(k, omega, kawahara, N_op=N_op)
        assert report.verdict == route
        assert calls == [(m, m)], route
        calls.clear()
        spectrum(assemble(psi, params.omega, kawahara, N=N_op))
        assert calls == []


def test_report_builds_only_leading_rows(monkeypatch, kawahara):
    # a 512- or 2048-mode report on every route assembles only leading rows,
    # over at most rows + psi.N columns (past them the rows are zero), never a
    # whole block, and its traced peak stays within 1.5 times the same
    # wave's at N_op 256: the report's memory does not grow with N_op
    calls, ops = [], []

    def assembly(psi, omega, sym, N, rows, odd=False, _fn=galerkin._assembly):
        head, tail = _fn(psi, omega, sym, N, rows, odd)
        calls.append((rows, N + (not odd), head.shape[-1] <= rows + psi.N))
        return head, tail

    def capture(*args, _fn=criteria.assemble, **kwargs):
        ops.append(_fn(*args, **kwargs))
        return ops[-1]

    def traced(k, omega, N_op):
        evaluate_dnoidal(k, omega, kawahara, N_op=N_op)  # warm caches outside the trace
        calls.clear()
        tracemalloc.start()
        try:
            report, _, _ = evaluate_dnoidal(k, omega, kawahara, N_op=N_op)
            return report, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(galerkin, "_assembly", assembly)
    monkeypatch.setattr(criteria, "assemble", capture)
    for k, omega, route in ROUTES_128:
        _, base = traced(k, omega, 256)
        for N_op in (512, 2048):
            report, peak = traced(k, omega, N_op)
            assert report.verdict == route
            assert calls and all(rows < n and narrow for rows, n, narrow in calls), \
                (route, N_op, calls)
            assert "even" not in ops[-1].__dict__ and "odd" not in ops[-1].__dict__
            assert peak < 1.5 * base, (route, N_op, peak, base)


def test_w_psi_is_held_to_the_zero_band(kawahara):
    # on the coercivity route w_psi is the odd kernel eigenvalue, which
    # spectrum accepts anywhere in the zero band: one inside the band but
    # below -MIN_TOL scale keeps the verdict, one below the band does not
    report, _, _ = evaluate_dnoidal(0.7, 0.5, kawahara, N_op=128)
    assert report.verdict == VERDICT_COERCIVITY
    tol = report.spectrum.tol_zero
    scale = max(1.0, abs(report.spectrum.eigenvalues[0]))
    inside = dataclasses.replace(report, w_psi=-0.5 * tol)
    assert inside.w_psi < -criteria.MIN_TOL * scale
    assert verdict(inside) == VERDICT_COERCIVITY
    assert verdict(dataclasses.replace(report, w_psi=-2.0 * tol)) == VERDICT_INCONCLUSIVE


@pytest.mark.parametrize("k, omega", [(0.7, 0.5), (0.8, 1.0)])
def test_criteria_body_is_blas_thread_independent(tmp_path, k, omega):
    # the report reads resolved blocks of a few dozen modes, whose eigh has
    # the same bits under one and two OpenBLAS threads
    src = Path(criteria.__file__).resolve().parents[1]
    bodies = []
    for threads in ("1", "2"):
        out = tmp_path / f"criteria{threads}.json"
        subprocess.run([sys.executable, "-m", "wavestab.cli", "criteria", "--k", str(k),
                        "--omega", str(omega), "--N-op", "512", "--out", str(out)],
                       check=True, capture_output=True,
                       env={**os.environ, "PYTHONPATH": str(src),
                            "OPENBLAS_NUM_THREADS": threads})
        bodies.append(out.read_bytes())
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("args", [
    ["--k", "0.8"], ["--k", "0.7", "--N", "256"],
    ["--k", "0.9", "--omega", "1.05", "--domega", "5e-3", "--dA", "5e-3"],
    ["--k", "0.641", "--omega", "1.039", "--domega", "5e-3", "--dA", "5e-3"],
    ["--k", "0.8", "--domega", "5e-2", "--dA", "5e-2"]],
    ids=["readme", "N256", "k0.9", "fold", "13-missing"])
def test_continue_body_is_blas_thread_independent(tmp_path, args):
    # the Newton steps and tangents factorize leading blocks of a few dozen
    # modes, whose LU has the same bits under one and two OpenBLAS threads;
    # the whole 129- or 257-mode block's did not, and no failing row (the
    # fold's corner, the 13 missing points at steps 5e-2) builds one
    src = Path(criteria.__file__).resolve().parents[1]
    bodies = []
    for threads in ("1", "2"):
        out = tmp_path / f"patch{threads}.csv"
        subprocess.run([sys.executable, "-m", "wavestab.cli", "continue", *args,
                        "--out", str(out)],
                       check=True, capture_output=True,
                       env={**os.environ, "PYTHONPATH": str(src),
                            "OPENBLAS_NUM_THREADS": threads})
        bodies.append([line for line in out.read_text().splitlines()
                       if not line.startswith("# env ")])
    assert bodies[0] == bodies[1]


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


def test_evaluate_wave_timing(benchmark, wave08, kawahara):
    # layer timing of evaluate_wave at N_op 256 on the determinant route;
    # the time is reported, never asserted
    params, psi = wave08
    report = benchmark.pedantic(evaluate_wave, args=(psi, params.omega, kawahara, 256),
                                rounds=5, iterations=1)
    assert report.verdict == VERDICT_DETERMINANT and report.w_psi is None


@pytest.mark.parametrize("N_op", [512, 2048])
def test_evaluate_wave_coercivity_timing(benchmark, branch_L, kawahara, N_op):
    # the same layer on the coercivity route, whose constrained minima add
    # three secular bisections to a report, at the benchmark's larger N_op
    # and at the cap: a report costs the same past psi.N plus the resolved
    # modes; reported, never asserted
    _, psi = build_dnoidal(0.7, branch_L[0.7], 0.5, N=128)
    report = benchmark.pedantic(evaluate_wave, args=(psi, 0.5, kawahara, N_op),
                                rounds=5, iterations=1)
    assert report.verdict == VERDICT_COERCIVITY
