"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
PASS lines with measured values.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ellipj

from wavestab.cli import main as cli_main
from wavestab.continuation import newton_solve
from wavestab.criteria import choose_witness, derivatives, det_D, det_D_reduced, functionals
from wavestab.elliptic import complete_integrals, jacobi_sn_cn_dn
from wavestab.evolution import (
    Evolver,
    conserved,
    default_dt,
    make_perturbation,
    orbital_distance,
    stability_experiment,
    state_from_profile,
    state_from_values,
)
from wavestab.galerkin import assemble, constrained_min, spectrum
from wavestab.klcurve import K_ANALYTIC, cubic_coefficients, cubic_residual, solve_branch, sweep
from wavestab.profile import FourierProfile, build_dnoidal, extract_A

from conftest import BRANCH_MODULI, galilean_shift, legendre_residual


def _report(num, label, elapsed, limit, **values):
    detail = " ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                      for k, v in values.items())
    print(f"ACCEPTANCE {num} PASS ({label}): {detail} [{elapsed:.2f}s "
          f"< {limit:.0f}s]")


def test_criterion_1_elliptic_kernel():
    t0 = time.time()
    worst_leg = worst_dn = 0.0
    for k in np.arange(0.1, 0.95, 0.1):
        pair = complete_integrals(k)
        worst_leg = max(worst_leg, abs(legendre_residual(k)))
        worst_dn = max(worst_dn, abs(jacobi_sn_cn_dn(0.0, k)[2] - 1.0))
        worst_dn = max(worst_dn,
                       abs(jacobi_sn_cn_dn(pair.K, k)[2] - math.sqrt(1 - k * k)))
        u = np.linspace(0.0, 2.0 * pair.K, 97)
        d0 = jacobi_sn_cn_dn(u, k)[2]
        d1 = jacobi_sn_cn_dn(u + 2.0 * pair.K, k)[2]
        worst_dn = max(worst_dn, float(np.abs(d1 - d0).max()))
    elapsed = time.time() - t0
    assert worst_leg < 1e-12
    assert worst_dn < 1e-12
    assert elapsed < 1.0
    _report(1, "elliptic kernel", elapsed, 1, legendre=worst_leg, dn=worst_dn)


def test_criterion_2_ansatz_verification(kawahara):
    t0 = time.time()
    worst_rel = 0.0
    for k in BRANCH_MODULI:
        params, psi = build_dnoidal(k, solve_branch(k)[1], 1.0)
        _, res = extract_A(psi, 1.0, kawahara)
        worst_rel = max(worst_rel, res / psi.sup_norm())
    # negative control: 10% detuning of the dn^2 coefficient
    L = solve_branch(0.8)[1]
    params, psi = build_dnoidal(0.8, L, 1.0)
    pair = complete_integrals(0.8)
    M = 4 * 129
    x = np.arange(M) * (L / M)
    dnv = ellipj(2 * pair.K * x / L, 0.64)[2]
    mean2 = pair.E / pair.K
    mean4 = (2 - 0.64) * 2 * pair.E / (3 * pair.K) - (1 - 0.64) / 3
    vals = params.a + 1.10 * params.b * (dnv**2 - mean2) + params.d * (dnv**4 - mean4)
    detuned = FourierProfile.from_samples(L, vals, 128)
    _, res_detuned = extract_A(detuned, 1.0, kawahara)
    elapsed = time.time() - t0
    assert worst_rel < 1e-8
    assert res_detuned > 1e-3
    assert elapsed < 5.0
    _report(2, "ansatz residual", elapsed, 5,
            worst_rel=worst_rel, detuned=res_detuned)


def test_criterion_3_kl_constraint():
    t0 = time.time()
    rows = sweep(np.linspace(0.54, 0.99, 200))
    worst = max(abs(cubic_residual(r["k"], r["L1"])) for r in rows)
    L1 = solve_branch(K_ANALYTIC)[0]
    K = complete_integrals(K_ANALYTIC).K
    closed = math.sqrt((908544.0 / 31.0) * 0.75) * K * K
    analytic_err = abs(L1 - closed) / closed
    # bisection oracle at three moduli
    worst_oracle = 0.0
    for k in (0.6, 0.8, 0.95):
        L1 = solve_branch(k)[0]
        c0, c1 = cubic_coefficients(k)
        f = lambda x: x**3 + c1 * x + c0
        oracle = brentq(f, 0.9 * L1, 1.1 * L1, rtol=1e-14)
        worst_oracle = max(worst_oracle, abs(L1 - oracle) / oracle)
    elapsed = time.time() - t0
    assert worst < 1e-10
    assert analytic_err < 1e-12
    assert worst_oracle < 1e-10
    assert elapsed < 2.0
    _report(3, "kL constraint", elapsed, 2, cubic=worst, analytic=analytic_err,
            oracle=worst_oracle)


def test_criterion_4_spectral_assumption(kawahara):
    t0 = time.time()
    checked = 0
    for k in BRANCH_MODULI:
        params, psi = build_dnoidal(k, solve_branch(k)[1], 1.0)
        rep256 = spectrum(assemble(psi, 1.0, kawahara, N=256))
        assert (rep256.n_neg, rep256.n_zero) == (1, 1), k
        assert rep256.kernel_corr > 0.999
        rep512 = spectrum(assemble(psi, 1.0, kawahara, N=512))
        assert (rep512.n_neg, rep512.n_zero) == (1, 1)
        assert rep512.kernel_corr > 0.999
        # second speed via the gauge: identical operator, identical spectrum.
        # the shift is chosen inside the mean's binade so psi + alpha rounds
        # nowhere and the assembled matrices agree bit for bit
        alpha = 0.5 if psi.coeffs[0] >= 1.0 else -0.25
        psi2, w2, _ = galilean_shift(psi, 1.0, params.A, alpha)
        op_b = assemble(psi2, w2, kawahara, N=256)
        rep_b = spectrum(op_b)
        assert (rep_b.n_neg, rep_b.n_zero) == (1, 1)
        # all 2N+1 eigenvalues of both blocks, not only the resolved ones
        full, full_b = (np.concatenate([np.linalg.eigvalsh(op.even), np.linalg.eigvalsh(op.odd)])
                        for op in (assemble(psi, 1.0, kawahara, N=256), op_b))
        scale = np.maximum(1.0, np.abs(full))
        gauge_dev = float((np.abs(full - full_b) / scale).max())
        assert gauge_dev < 1e-12
        checked += 1
    elapsed = time.time() - t0
    assert checked >= 4
    assert elapsed < 30.0
    _report(4, "spectral assumption", elapsed, 30, moduli=checked,
            gauge_dev=gauge_dev)


def test_criterion_5_identity_suite(wave08, op08, variations08, kawahara):
    t0 = time.time()
    params, psi = wave08
    eta, beta = variations08
    M, F = functionals(psi)
    M_w, M_A, F_w, F_A = derivatives(psi, eta, beta)
    w, L0 = params.omega, psi.L0
    id1 = abs(F_w - (w * M_w + M)) / max(abs(F_w), abs(M))
    id2 = abs(F_A - (w * M_A + L0)) / max(abs(F_A), L0)
    id3 = abs(L0 - (-w * M_A + M_w)) / max(L0, abs(M_w))
    assert id1 < 1e-6 and id2 < 1e-6 and id3 < 1e-6

    d1 = det_D(F_A, M_w, F_w, M_A)
    d2 = det_D_reduced(M, L0, w, M_w)
    det_dev = abs(d1 - d2) / abs(d1)
    assert det_dev < 1e-8

    x0, y0, P, P_closed, I = choose_witness(op08, psi, eta, beta, w)
    witness_dev = abs(I + P) / max(abs(I), abs(P))
    assert witness_dev < 1e-6

    inv = np.linalg.solve(op08.even, psi.orthonormal(op08.N))
    pairing = float(inv @ psi.orthonormal(op08.N))
    pairing_dev = abs(pairing + F_w) / abs(F_w)
    assert pairing_dev < 1e-6

    # finite-difference eta and beta with O(delta^2) Richardson behavior
    ratios = []
    for which in ("omega", "A"):
        errs = []
        for delta in (1e-4, 5e-5):
            if which == "omega":
                plus = newton_solve(psi, w + delta, params.A, kawahara, tol=1e-13)
                minus = newton_solve(psi, w - delta, params.A, kawahara, tol=1e-13)
                target = eta
            else:
                plus = newton_solve(psi, w, params.A + delta, kawahara, tol=1e-13)
                minus = newton_solve(psi, w, params.A - delta, kawahara, tol=1e-13)
                target = beta
            fd = (plus.psi.coeffs - minus.psi.coeffs) / (2 * delta)
            errs.append(np.abs(fd - target.coeffs[: len(fd)]).max())
        ratios.append(errs[0] / errs[1])
    assert all(2.5 < r < 5.5 for r in ratios)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(5, "identity suite", elapsed, 60, id_max=max(id1, id2, id3),
            det=det_dev, witness=witness_dev, pairing=pairing_dev,
            richardson_eta=ratios[0], richardson_beta=ratios[1])


def test_criterion_6_figure_reproduction(tmp_path):
    t0 = time.time()
    f1 = tmp_path / "L1.csv"
    f2 = tmp_path / "p.csv"
    rec = tmp_path / "record.json"
    code = cli_main(["reproduce-figure1", "--steps", "200",
                     "--out-L1", str(f1), "--out-p", str(f2),
                     "--record-out", str(rec)])
    assert code == 0
    record = json.loads(rec.read_text())
    assert record["points_with_p_positive"] > 0
    assert record["p_sign_change_k"] is not None
    body1 = [ln for ln in f1.read_text().splitlines() if not ln.startswith("#")]
    body2 = [ln for ln in f2.read_text().splitlines() if not ln.startswith("#")]
    assert body1[0] == "k,L1" and body2[0] == "k,p"
    assert len(body1) == 201 and len(body2) == 201
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(6, "figure reproduction", elapsed, 5,
            positive_points=record["points_with_p_positive"],
            sign_change_k=record["p_sign_change_k"])


def test_criterion_7_constrained_minima(wave08, op08, variations08):
    t0 = time.time()
    _, psi = wave08
    eta, beta = variations08
    _, _, F_w, _ = derivatives(psi, eta, beta)
    assert F_w > 0
    w1 = constrained_min(op08, even=psi.orthonormal(op08.N))
    assert w1 >= -1e-8
    w2 = constrained_min(op08, even=psi.orthonormal(op08.N),
                         odd=op08.psi.half_square().derivative_orthonormal(op08.N))
    rep = spectrum(op08)
    scale = max(1.0, abs(rep.eigenvalues[0]))
    assert w2 > 1e-8 * scale
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(7, "constrained minima", elapsed, 10, w_psi=w1, w_pair=w2)


@pytest.mark.slow
def test_criterion_8_evolution_gates(wave08, kawahara):
    t0 = time.time()
    params, psi = wave08
    grid = 256
    st = state_from_profile(psi, grid)
    dt = default_dt(st, kawahara)[0]
    stepper = Evolver(psi.L0, grid, kawahara, dt)

    # (a) exact advection over 10 temporal periods
    nsteps = int(round(10 * psi.L0 / params.omega / dt))
    out = stepper.run(st, nsteps)
    rho_adv, _ = orbital_distance(out, psi, kawahara)
    assert rho_adv < 1e-6

    # (b) conserved-quantity drift over 1e4 steps
    before = conserved(st, kawahara)
    out2 = stepper.run(st, 10_000)
    after = conserved(out2, kawahara)
    drift = max(abs(after.E - before.E) / abs(before.E),
                abs(after.F - before.F) / abs(before.F),
                abs(after.M - before.M) / max(1.0, abs(before.M)))
    assert drift < 1e-8

    # (c) + (d) five seeded mean-preserving perturbation experiments, stepped
    # as one stack of seeds
    worst_ratio = 0.0
    worst_dp = 0.0
    perturbations = np.stack([make_perturbation("random", psi, 1e-3, 128, seed=seed)
                              for seed in range(5)])
    # default_dt's rule at safety 0.35 rather than DT_SAFETY = 0.5, on the
    # stack stability_experiment would measure: at 0.5 the largest deltaP
    # spread of the five seeds is 1.23e-8, above the gate (dt^5 error growth)
    wave = state_from_profile(psi, 128)
    parts = np.vstack([wave.modes, state_from_values(perturbations, psi.L0).modes])
    theta_eff = default_dt(replace(wave, modes=parts), kawahara)[2]
    for series in stability_experiment(psi, params.omega, kawahara, perturbations,
                                       periods=50.0, dt=0.35 / max(theta_eff, 1.0),
                                       n_samples=60):
        rho0 = series[0]["rho"]
        worst_ratio = max(worst_ratio,
                          max(r["rho"] for r in series) / rho0)
        dps = [r["deltaP"] for r in series]
        worst_dp = max(worst_dp, max(dps) - min(dps))
    assert worst_ratio <= 10.0
    assert worst_dp < 1e-8
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(8, "evolution gates", elapsed, 300, rho_advect=rho_adv,
            drift=drift, rho_ratio=worst_ratio, deltaP_spread=worst_dp)


def test_criterion_9_determinism(tmp_path):
    t0 = time.time()
    texts = []
    for tag in ("x", "y"):
        out = tmp_path / f"det_{tag}.csv"
        assert cli_main(["sweep", "--kmin", "0.55", "--kmax", "0.95",
                         "--steps", "40", "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]

    texts = []
    for tag in ("x", "y"):
        out = tmp_path / f"dev_{tag}.csv"
        assert cli_main(["evolve", "--k", "0.8", "--omega", "1.0",
                         "--T", "0.1", "--samples", "3", "--dt", "0.01",
                         "--seed", "3", "--perturbation", "random",
                         "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    elapsed = time.time() - t0
    _report(9, "determinism", elapsed, 60, identical=True)
