"""Stability functionals, their parameter derivatives, and the final verdict.

Quantities: M = integral of psi, F = half the squared L2 norm, their
derivatives along the (omega, A) solution surface via the linear solves
L eta = -psi, L beta = -1, the 2x2 determinant F_A M_w - F_w M_A, the
quadratic form P(x, y) = x^2 F_w + xy (F_A + M_w) + y^2 M_A with witness
(x0, y0) = (-1/omega, 1), and the pairing I = <L Phi, Phi> for
Phi = x0 eta + y0 beta.

The decisive sign is that of the wave average minus the speed: with the
spectral assumption verified, avg > omega > 0 together with either
(M_w < 0 and I < 0) or (M_w >= 0, F_w > 0 and the constrained minima
nonnegative/positive) certifies orbital stability.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .galerkin import (SpectrumReport, _check_even_band, _variation_solve, assemble,
                       constrained_min, spectrum)
from .multiplier import builtin_symbol
from .profile import FourierProfile

__all__ = [
    "StabilityReport",
    "functionals",
    "derivatives",
    "det_D",
    "det_D_reduced",
    "p_form",
    "choose_witness",
    "verdict",
    "evaluate_wave",
    "VERDICT_DETERMINANT",
    "VERDICT_COERCIVITY",
    "VERDICT_INCONCLUSIVE",
]

VERDICT_DETERMINANT = "stable_by_determinant"         # M_w < 0 route
VERDICT_COERCIVITY = "stable_by_constrained_coercivity"  # M_w >= 0 route
VERDICT_INCONCLUSIVE = "inconclusive"

IDENTITY_RTOL = 1e-6
DETD_RTOL = 1e-10
WITNESS_RTOL = 1e-6
MIN_TOL = 1e-8


def functionals(psi):
    """(M, F) = (integral of psi, half the squared L2 norm) by Parseval."""
    return float(psi.L0 * psi.coeffs[0]), 0.5 * psi.inner(psi)


def derivatives(psi, eta, beta):
    """(M_w, M_A, F_w, F_A) from the linear-solve profiles eta, beta."""
    M_w = eta.L0 * eta.coeffs[0]
    M_A = beta.L0 * beta.coeffs[0]
    return float(M_w), float(M_A), psi.inner(eta), psi.inner(beta)


def det_D(F_A, M_w, F_w, M_A):
    return F_A * M_w - F_w * M_A


def det_D_reduced(M, L0, omega, M_w):
    """Equivalent form (L0/omega)(omega - M/L0) M_w + M L0/omega."""
    return (L0 / omega) * (omega - M / L0) * M_w + M * L0 / omega


def p_form(x, y, F_w, M_w, M_A, F_A):
    return x * x * F_w + x * y * (F_A + M_w) + y * y * M_A


def choose_witness(op, psi, eta, beta, omega):
    """Witness (x0, y0) = (-1/omega, 1) with P and the pairing I.

    Returns (x0, y0, P, P_closed, I) where P_closed is the reduced form
    (y0^2 L0/omega^2)(M/L0 - omega) and I = <L Phi, Phi> evaluated as a
    quadratic form of the even Galerkin block (Phi is even); I = -P up to
    discretization.
    """
    M_w, M_A, F_w, F_A = derivatives(psi, eta, beta)
    M, _ = functionals(psi)
    x0, y0 = -1.0 / omega, 1.0
    P = p_form(x0, y0, F_w, M_w, M_A, F_A)
    P_closed = (y0 * y0 * psi.L0 / omega**2) * (M / psi.L0 - omega)
    phi = FourierProfile(psi.L0, x0 * eta.coeffs + y0 * beta.coeffs)
    v = phi.orthonormal(op.N)
    I = float(v @ (op.even @ v))
    return x0, y0, P, P_closed, I


@dataclass
class StabilityReport:
    omega: float
    L0: float
    M: float
    F: float
    M_w: float
    M_A: float
    F_w: float
    F_A: float
    detD: float
    detD_reduced: float
    x0: float
    y0: float
    P_witness: float
    P_closed: float
    I: float
    avg_minus_speed: float
    min_psi: float
    chi_psi_corr: float
    id_Fomega: float            # relative residuals of the three surface identities
    id_FA: float
    id_relFF: float
    spectrum: SpectrumReport
    w_psi: float | None = None          # constrained minimum with {psi}
    w_psi_psip: float | None = None     # constrained minimum with {psi, psi psi'}
    verdict: str = VERDICT_INCONCLUSIVE
    tolerances: dict = field(default_factory=dict)

    def as_record(self):
        rec = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("spectrum", "tolerances")}
        s = self.spectrum
        rec.update(n_neg=s.n_neg, n_zero=s.n_zero, kernel_corr=s.kernel_corr,
                   spectral_gap=s.gap, assumption_holds=s.holds_assumption)
        rec.update({f"tol_{k}": v for k, v in sorted(self.tolerances.items())})
        return rec


def _relative(residual, *terms):
    scale = max([1e-300] + [abs(t) for t in terms])
    return abs(residual) / scale


def verdict(report):
    """Classify per the average-versus-speed criterion.

    stable_by_determinant: spectral assumption holds, M/L0 > omega > 0,
    M_w < 0 (so detD != 0) and I < 0.  stable_by_constrained_coercivity:
    spectral assumption holds, M/L0 > omega > 0, M_w >= 0 with F_w > 0,
    both constrained minima passing, and psi positive.  Anything else is
    inconclusive (no instability result exists on this route).
    """
    r = report
    if not r.spectrum.holds_assumption:
        return VERDICT_INCONCLUSIVE
    if not (r.avg_minus_speed > 0.0 and r.omega > 0.0):
        return VERDICT_INCONCLUSIVE
    if r.M_w < 0.0:
        detD_scale = max(1.0, abs(r.F_A * r.M_w), abs(r.F_w * r.M_A))
        if abs(r.detD) > DETD_RTOL * detD_scale and r.I < 0.0:
            return VERDICT_DETERMINANT
        return VERDICT_INCONCLUSIVE
    scale = max(1.0, abs(r.spectrum.eigenvalues[0]))
    if (
        r.F_w > 0.0
        and r.w_psi is not None
        and r.w_psi >= -MIN_TOL * scale
        and r.w_psi_psip is not None
        and r.w_psi_psip > MIN_TOL * scale
        and r.min_psi > 0.0
    ):
        return VERDICT_COERCIVITY
    return VERDICT_INCONCLUSIVE


def evaluate_wave(psi, omega, sym=None, N=None):
    """Full stability report for an even periodic wave profile.

    Assembles the linearized operator, verifies the spectral assumption,
    solves for eta and beta, evaluates every identity and the witness
    quantities, and renders the verdict.
    """
    if sym is None:
        sym = builtin_symbol("kawahara")
    if N is None:
        N = max(2 * psi.N, 256)
    op = assemble(psi, omega, sym, N=N)
    # eta and beta need no eigensolve, so M_w picks the decomposition before
    # the first one: the coercivity route (M_w >= 0) reads every eigenvector
    # in constrained_min and takes eigh; the others read two eigenvectors
    # and take eigvalsh plus one shifted solve each
    eta, beta = _variation_solve(op)
    M, F = functionals(psi)
    M_w, M_A, F_w, F_A = derivatives(psi, eta, beta)
    if M_w >= 0.0:
        op.eig_even, op.eig_odd
    rep = spectrum(op)
    _check_even_band(op)
    L0 = psi.L0
    dD = det_D(F_A, M_w, F_w, M_A)
    dD2 = det_D_reduced(M, L0, omega, M_w)
    x0, y0, P, P_closed, I = choose_witness(op, psi, eta, beta, omega)
    psi_coords = psi.orthonormal(op.N)
    chi = op.eigenvector("even", 0, psi_coords)
    denom = np.linalg.norm(chi) * np.linalg.norm(psi_coords)
    chi_corr = float(abs(chi @ psi_coords) / denom) if denom > 0 else 0.0
    min_psi = float(psi.values().min())
    report = StabilityReport(
        omega=float(omega), L0=L0, M=M, F=F,
        M_w=M_w, M_A=M_A, F_w=F_w, F_A=F_A,
        detD=dD, detD_reduced=dD2,
        x0=x0, y0=y0, P_witness=P, P_closed=P_closed, I=I,
        avg_minus_speed=M / L0 - omega,
        min_psi=min_psi, chi_psi_corr=chi_corr,
        id_Fomega=_relative(F_w - omega * M_w - M, F_w, omega * M_w, M),
        id_FA=_relative(F_A - omega * M_A - L0, F_A, omega * M_A, L0),
        id_relFF=_relative(L0 + omega * M_A - M_w, L0, omega * M_A, M_w),
        spectrum=rep,
        tolerances={
            "zero_band": rep.tol_zero,
            "identity_rtol": IDENTITY_RTOL,
            "detD_rtol": DETD_RTOL,
            "witness_rtol": WITNESS_RTOL,
            "constrained_min_rtol": MIN_TOL,
        },
    )
    if report.spectrum.holds_assumption and report.M_w >= 0.0:
        report.w_psi = constrained_min(op, even=psi_coords)
        report.w_psi_psip = constrained_min(
            op, even=psi_coords, odd=op.psi.half_square().derivative_orthonormal(op.N)
        )
    report.verdict = verdict(report)
    return report
