"""Newton continuation of even periodic traveling waves in (omega, A).

The unknown is the cosine-coefficient vector of psi at fixed period; the
map is Pi(omega, A, psi) = M psi + omega psi - psi^2/2 + A projected onto
modes 0..N, and the Jacobian is the even Galerkin block of M + omega - psi,
which is invertible precisely because the kernel direction psi' is odd.

`surface_patch` starts each Newton solve from the first-order (Keller)
predictor psi + d_omega eta + d_A beta at the neighbouring point, where
eta = dpsi/domega and beta = dpsi/dA come from the one LU of
`_variation_solve`.  It stays first order because next to a fold of the
family (smallest even eigenvalue near 0.01) the start decides whether
Newton lands: a second-order term, or one tangent for the whole patch,
changed which corners converge.
"""

import math
from dataclasses import dataclass

import numpy as np

from .galerkin import DegenerateOperatorError, GalerkinOperator, _variation_solve
from .profile import FourierProfile, pi_residual

__all__ = [
    "ContinuationPoint",
    "NewtonDivergenceError",
    "newton_solve",
    "surface_patch",
]

MAX_ITER = 25
MAX_HALVINGS = 6


class NewtonDivergenceError(RuntimeError):
    """Newton iteration failed to converge (bad guess or singular Jacobian)."""


@dataclass(frozen=True)
class ContinuationPoint:
    omega: float
    A: float
    psi: FourierProfile
    residual_norm: float     # sup norm of the unprojected residual
    newton_iters: int


@np.errstate(over="ignore", invalid="ignore")   # overflow is refused, not warned
def newton_solve(psi, omega, A, sym, tol=1e-12):
    """Damped Newton iteration for Pi(omega, A, psi) = 0 in the even subspace.

    Converges quadratically near a root; raises NewtonDivergenceError after
    MAX_ITER iterations, when the damped step cannot reduce the residual, on
    a singular Jacobian, and when the start's residual or the scale
    max(1, |psi|) is not finite.  A damped step counts only with a finite
    residual, and the iteration stops only at a finite residual at or below
    a finite tol * scale.
    """
    scale = max(1.0, float(np.linalg.norm(psi.coeffs)))
    res = pi_residual(psi, omega, A, sym)
    r = res.orthonormal(psi.N)
    rnorm = float(np.linalg.norm(r))
    if not (math.isfinite(rnorm) and math.isfinite(scale)):
        raise NewtonDivergenceError(
            f"non-finite start (residual {rnorm:.3e}, scale {scale:.3e})")
    iters = 0
    while not rnorm <= tol * scale:
        if iters >= MAX_ITER:
            raise NewtonDivergenceError(
                f"no convergence in {MAX_ITER} iterations (residual {rnorm:.3e})"
            )
        J = GalerkinOperator(psi, omega, sym, psi.N).even
        try:
            delta = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError as exc:
            raise NewtonDivergenceError(f"singular Jacobian: {exc}") from exc
        step = 1.0
        for _ in range(MAX_HALVINGS + 1):
            dc = FourierProfile.from_orthonormal(psi.L0, step * delta).coeffs
            cand = FourierProfile(psi.L0, psi.coeffs + dc)
            res_new = pi_residual(cand, omega, A, sym)
            r_new = res_new.orthonormal(psi.N)
            rnorm_new = float(np.linalg.norm(r_new))
            if math.isfinite(rnorm_new) and (rnorm_new < rnorm
                                              or rnorm_new <= tol * scale):
                break
            step *= 0.5
        else:
            raise NewtonDivergenceError(
                f"damping failed at residual {rnorm:.3e}"
            )
        psi, res, r, rnorm = cand, res_new, r_new, rnorm_new
        scale = max(1.0, float(np.linalg.norm(psi.coeffs)))
        if not math.isfinite(scale):
            raise NewtonDivergenceError(f"non-finite scale at residual {rnorm:.3e}")
        iters += 1
    return ContinuationPoint(
        omega=float(omega), A=float(A), psi=psi,
        residual_norm=res.sup_norm(), newton_iters=iters,
    )


def surface_patch(center, domega, dA, extent, sym):
    """Predictor-corrector continuation over an (omega, A) grid.

    `extent` = (iw, ia): grid offsets run over -iw..iw and -ia..ia around
    the center, at fixed period.  Each point is solved from the tangent
    predictor at its neighbour toward the center (module note), one
    `_variation_solve` per neighbour.  Returns (patch, missing): patch is
    {(di, dj): ContinuationPoint} for every converged point, and missing
    lists the other offsets in ascending order.  A Newton failure, or a
    singular even block at the neighbour, ends that ray (points farther out
    on the same ray are not attempted).
    """
    iw, ia = extent
    offsets = [(di, dj) for di in range(-iw, iw + 1) for dj in range(-ia, ia + 1)]
    patch = {(0, 0): center}
    tangents = {}
    # the omega axis outward first, then outward in A: every point comes
    # after frm, its neighbour one step toward the center
    for di, dj in sorted(offsets, key=lambda o: (abs(o[1]), abs(o[0])))[1:]:
        frm = (di, dj + (dj < 0) - (dj > 0)) if dj else (di + (di < 0) - (di > 0), 0)
        prev = patch.get(frm)
        if prev is None:
            continue
        omega, A = center.omega + di * domega, center.A + dj * dA
        try:
            if frm not in tangents:
                op = GalerkinOperator(prev.psi, prev.omega, sym, prev.psi.N)
                tangents[frm] = _variation_solve(op)
            eta, beta = tangents[frm]
            # a step that overflows the predictor gives a non-finite start,
            # which newton_solve refuses
            with np.errstate(over="ignore", invalid="ignore"):
                start = FourierProfile(prev.psi.L0, prev.psi.coeffs
                                       + (omega - prev.omega) * eta.coeffs
                                       + (A - prev.A) * beta.coeffs)
            patch[(di, dj)] = newton_solve(start, omega, A, sym)
        except (DegenerateOperatorError, NewtonDivergenceError):
            continue
    return patch, [o for o in offsets if o not in patch]
