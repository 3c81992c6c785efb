"""Newton continuation of even periodic traveling waves in (omega, A).

The unknown is the cosine-coefficient vector of psi at fixed period; the
map is Pi(omega, A, psi) = M psi + omega psi - psi^2/2 + A projected onto
modes 0..N, and the Jacobian is the even Galerkin block of M + omega - psi,
which is invertible precisely because the kernel direction psi' is odd.
"""

from dataclasses import dataclass

import numpy as np

from .galerkin import GalerkinOperator
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


def newton_solve(psi, omega, A, sym, tol=1e-12):
    """Damped Newton iteration for Pi(omega, A, psi) = 0 in the even subspace.

    Converges quadratically near a root; raises NewtonDivergenceError after
    MAX_ITER iterations, when the damped step cannot reduce the residual, or
    on a singular Jacobian.
    """
    scale = max(1.0, float(np.linalg.norm(psi.coeffs)))
    res = pi_residual(psi, omega, A, sym)
    r = res.orthonormal(psi.N)
    rnorm = float(np.linalg.norm(r))
    iters = 0
    while rnorm > tol * scale:
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
            if rnorm_new < rnorm or rnorm_new <= tol * scale:
                break
            step *= 0.5
        else:
            raise NewtonDivergenceError(
                f"damping failed at residual {rnorm:.3e}"
            )
        psi, res, r, rnorm = cand, res_new, r_new, rnorm_new
        scale = max(1.0, float(np.linalg.norm(psi.coeffs)))
        iters += 1
    return ContinuationPoint(
        omega=float(omega), A=float(A), psi=psi,
        residual_norm=res.sup_norm(), newton_iters=iters,
    )


def surface_patch(center, domega, dA, extent, sym):
    """Predictor-corrector continuation over an (omega, A) grid.

    `extent` = (iw, ia): grid offsets run over -iw..iw and -ia..ia around
    the center, at fixed period.  Returns {(di, dj): ContinuationPoint} for
    every converged point; a Newton failure ends that ray (points farther
    out on the same ray are not attempted).
    """
    iw, ia = extent
    patch = {(0, 0): center}

    def extend(frm, di, dj):
        prev = patch.get(frm)
        if prev is None:
            return None
        try:
            pt = newton_solve(
                prev.psi, center.omega + di * domega, center.A + dj * dA, sym,
            )
        except NewtonDivergenceError:
            return None
        patch[(di, dj)] = pt
        return pt

    for di in list(range(1, iw + 1)):
        if extend((di - 1, 0), di, 0) is None:
            break
    for di in list(range(-1, -iw - 1, -1)):
        if extend((di + 1, 0), di, 0) is None:
            break
    for di in range(-iw, iw + 1):
        if (di, 0) not in patch:
            continue
        for dj in range(1, ia + 1):
            if extend((di, dj - 1), di, dj) is None:
                break
        for dj in range(-1, -ia - 1, -1):
            if extend((di, dj + 1), di, dj) is None:
                break
    return patch
