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

The patch is solved frontier by frontier, frontier r being the ring
|di| + |dj| = r of grid offsets, r = 1 .. iw + ia: the neighbour toward
the center of each of its points lies on ring r - 1 (4 and 4 points at
extent (1, 1); 4, 8, 8 and 4 at (2, 2)).  A frontier's tangents come from one
stacked `_variation_solve`, and its points from one `_newton_rows` stack,
where each iteration makes one stacked even-block assembly, one stacked
solve and one stacked residual over the rows still running.  A row's
arithmetic is that of a stack of one, which is what `newton_solve` runs,
so a patch has the bits of solving its points one by one; the stack saves
the numpy call overhead of each point, not its LU.  Row norms stay one 1-D
`np.linalg.norm` per row, because a norm along an axis sums in another
order and could flip a stopping test.
"""

import math
from dataclasses import dataclass

import numpy as np

from .galerkin import DegenerateOperatorError, _even_assembly, _variation_solve
from .profile import FourierProfile, pi_residual

__all__ = [
    "ContinuationPoint",
    "NewtonDivergenceError",
    "newton_solve",
    "surface_patch",
]

MAX_ITER = 25
MAX_HALVINGS = 6
# the even blocks of one surface_patch stack, (N+1)^2 doubles each, stay
# within this many bytes, so a large frontier is solved as several stacks:
# 63 rows at N = 128, and one row from N = 1024 (a block of 8.4 MB)
STACK_BYTES = 1 << 23


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
    MAX_ITER iterations, when the damped step cannot reduce the residual, on
    a singular Jacobian, and when the start's residual or the scale
    max(1, |psi|) is not finite.  A damped step counts only with a finite
    residual, and the iteration stops only at a finite residual at or below
    a finite tol * scale.  This is `_newton_rows` on a stack of one.
    """
    (out,) = _newton_rows(FourierProfile(psi.L0, psi.coeffs[None]),
                          np.array([omega], dtype=float),
                          np.array([A], dtype=float), sym, tol)
    if isinstance(out, NewtonDivergenceError):
        raise out
    return out


def _norms(rows):
    """One 1-D norm per row (module note)."""
    return [float(np.linalg.norm(row)) for row in rows]


@np.errstate(over="ignore", invalid="ignore")   # overflow is refused, not warned
def _newton_rows(psi, omega, A, sym, tol=1e-12):
    """The Newton iteration of `newton_solve` on a stack of problems.

    psi.coeffs has one start per row, and omega and A one value per row.
    Returns one outcome per row, a ContinuationPoint or the
    NewtonDivergenceError that `newton_solve` raises for it.  Each iteration
    assembles the even blocks, solves and evaluates the damped residuals of
    the rows still running as one stack; each row keeps its own damping,
    budget, count and refusals, with the bits it has in a stack of one.  A
    singular block makes the stacked solve fail for every row, so the rows
    are then solved one by one.
    """
    L0, N, m = psi.L0, psi.N, len(psi.coeffs)
    c = psi.coeffs.copy()
    res = pi_residual(psi, omega, A, sym).coeffs
    r = FourierProfile(L0, res).orthonormal(N)
    rnorm, scale = _norms(r), [max(1.0, x) for x in _norms(c)]
    out = [None] * m
    iters = [0] * m
    for i in range(m):
        if not (math.isfinite(rnorm[i]) and math.isfinite(scale[i])):
            out[i] = NewtonDivergenceError(
                f"non-finite start (residual {rnorm[i]:.3e}, scale {scale[i]:.3e})")
    while True:
        rows = [i for i in range(m) if out[i] is None and not rnorm[i] <= tol * scale[i]]
        for i in rows:
            if iters[i] >= MAX_ITER:
                out[i] = NewtonDivergenceError(
                    f"no convergence in {MAX_ITER} iterations (residual {rnorm[i]:.3e})")
        rows = [i for i in rows if out[i] is None]
        if not rows:
            break
        J, _, _, _ = _even_assembly(FourierProfile(L0, c[rows]), omega[rows], sym, N)
        b = -r[rows]
        try:
            delta = list(np.linalg.solve(J, b[..., None])[..., 0])
        except np.linalg.LinAlgError:
            delta = []
            for i, Ji, bi in zip(rows, J, b):
                try:
                    delta.append(np.linalg.solve(Ji, bi))
                except np.linalg.LinAlgError as exc:
                    out[i] = NewtonDivergenceError(f"singular Jacobian: {exc}")
                    out[i].__cause__ = exc
                    delta.append(None)
        search = [(i, d) for i, d in zip(rows, delta) if d is not None]
        step = 1.0
        for _ in range(MAX_HALVINGS + 1):
            if not search:
                break
            idx = [i for i, _ in search]
            dc = FourierProfile.from_orthonormal(
                L0, step * np.stack([d for _, d in search])).coeffs
            cand = c[idx] + dc
            res_new = pi_residual(FourierProfile(L0, cand), omega[idx], A[idx], sym).coeffs
            r_new = FourierProfile(L0, res_new).orthonormal(N)
            left = []
            for j, rn in enumerate(_norms(r_new)):
                i = idx[j]
                if math.isfinite(rn) and (rn < rnorm[i] or rn <= tol * scale[i]):
                    c[i], res[i], r[i], rnorm[i] = cand[j], res_new[j], r_new[j], rn
                    scale[i] = max(1.0, float(np.linalg.norm(c[i])))
                    if not math.isfinite(scale[i]):
                        out[i] = NewtonDivergenceError(
                            f"non-finite scale at residual {rn:.3e}")
                    iters[i] += 1
                else:
                    left.append(search[j])
            search = left
            step *= 0.5
        for i, _ in search:
            out[i] = NewtonDivergenceError(f"damping failed at residual {rnorm[i]:.3e}")
    done = [i for i in range(m) if out[i] is None]
    if done:
        sup = np.abs(FourierProfile(L0, res[done]).values()).max(axis=-1)
        for i, s in zip(done, sup):
            out[i] = ContinuationPoint(
                omega=float(omega[i]), A=float(A[i]), psi=FourierProfile(L0, c[i]),
                residual_norm=float(s), newton_iters=iters[i])
    return out


def surface_patch(center, domega, dA, extent, sym):
    """Predictor-corrector continuation over an (omega, A) grid.

    `extent` = (iw, ia): grid offsets run over -iw..iw and -ia..ia around
    the center, at fixed period.  Each point is solved from the tangent
    predictor at its neighbour toward the center (module note).  The points
    are solved ring by ring, |di| + |dj| = 1, 2, ..., iw + ia: per ring one
    stacked `_variation_solve` gives the neighbours' tangents and one
    `_newton_rows` stack corrects the points, in stacks of at most
    STACK_BYTES of even blocks.  Returns (patch, missing): patch is
    {(di, dj): ContinuationPoint} for every converged point, the center first,
    then outward along omega and then in A, and missing lists the other
    offsets in ascending order.  A Newton failure, or a singular even block
    at the neighbour, ends that ray (points farther out on the same ray are
    not attempted).
    """
    iw, ia = extent
    offsets = [(di, dj) for di in range(-iw, iw + 1) for dj in range(-ia, ia + 1)]
    # the omega axis outward first, then outward in A: every point comes
    # after its neighbour toward the center
    order = sorted(offsets, key=lambda o: (abs(o[1]), abs(o[0])))
    # the neighbour one step toward the center: along A first, then omega
    frm = {(di, dj): (di, dj + (dj < 0) - (dj > 0)) if dj
           else (di + (di < 0) - (di > 0), 0) for di, dj in order[1:]}
    size = max(1, STACK_BYTES // (8 * (center.psi.N + 1) ** 2))
    solved = {(0, 0): center}
    for r in range(1, iw + ia + 1):
        front = [o for o in order if abs(o[0]) + abs(o[1]) == r]
        parents = [f for f in dict.fromkeys(frm[o] for o in front) if f in solved]
        tangent = {}
        for lo in range(0, len(parents), size):
            part = parents[lo : lo + size]
            tangent.update(zip(part, _tangents([solved[f] for f in part], sym)))
        live = [o for o in front if tangent.get(frm[o]) is not None]
        for lo in range(0, len(live), size):
            part = live[lo : lo + size]
            omega = np.array([center.omega + di * domega for di, _ in part])
            A = np.array([center.A + dj * dA for _, dj in part])
            starts = []
            # a step that overflows the predictor gives a non-finite start,
            # which _newton_rows refuses
            with np.errstate(over="ignore", invalid="ignore"):
                for o, w, a in zip(part, omega, A):
                    prev, (eta, beta) = solved[frm[o]], tangent[frm[o]]
                    starts.append(prev.psi.coeffs + (w - prev.omega) * eta
                                  + (a - prev.A) * beta)
            outcomes = _newton_rows(FourierProfile(center.psi.L0, starts), omega, A, sym)
            solved.update((o, pt) for o, pt in zip(part, outcomes)
                          if isinstance(pt, ContinuationPoint))
    patch = {o: solved[o] for o in order if o in solved}
    return patch, [o for o in offsets if o not in patch]


def _tangents(points, sym):
    """(eta, beta) coefficient rows at each point, from one stacked
    `_variation_solve`; None for a point whose even block is singular."""
    L0, N = points[0].psi.L0, points[0].psi.N
    psi = FourierProfile(L0, np.stack([p.psi.coeffs for p in points]))
    even, _, _, _ = _even_assembly(psi, np.array([p.omega for p in points]), sym, N)
    try:
        eta, beta = _variation_solve(even, psi)
        return list(zip(eta.coeffs, beta.coeffs))
    except DegenerateOperatorError:
        pass
    out = []
    for block, c in zip(even, psi.coeffs):   # one by one: only the singular fail
        try:
            eta, beta = _variation_solve(block, FourierProfile(L0, c))
            out.append((eta.coeffs, beta.coeffs))
        except DegenerateOperatorError:
            out.append(None)
    return out
