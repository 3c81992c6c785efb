"""Truncated Fourier-Galerkin form of the linearized operator M + omega - psi.

The operator acts on the orthonormal trigonometric basis
[1/sqrt(L0), sqrt(2/L0) cos_n, sqrt(2/L0) sin_n] and block-diagonalizes:
multiplication by the even profile psi maps cosines to cosines and sines to
sines, so the matrix splits into an even (cosine) block of size N+1 and an
odd (sine) block of size N.  Counting for the spectral assumption uses the
union of both blocks; the kernel direction psi' is odd, so the even block
is the invertible restriction used for the parameter-derivative solves.

Both blocks are the diagonal minus a Hankel part hat(psi)(i + j) and a
Toeplitz part hat(psi)(|i - j|), built as strided views of the coefficient
vector and assembled in place: the even block takes 0 minus its
Hankel-plus-Toeplitz sum, the odd block forms Hankel minus Toeplitz, and
each adds its diagonal along the strided diagonal, with no diagonal matrix
and no second full-size subtraction.  The bits are those of diag - S, since
d - s = (0 - s) + d in IEEE arithmetic; 0 - s also keeps a zero entry
+0.0, where negation would give -0.0 and LAPACK's Householder sign choices
could differ.  Both blocks are assembled with the operator, the odd one
from the pieces of the even one's `_even_assembly`; the continuation's
Newton stacks call `_even_assembly` alone, on a stack of profiles and for
the leading m rows and the tail's diagonal only, which gives each entry the
bits it has in its block alone.  The blocks must not be modified
after assembly.  Orthonormal coordinates come from `FourierProfile`.

A report reads only the bottom of each block's spectrum, and above the few
dozen modes the wave carries, a block K = [[A, B], [B^T, H]] is dominated by
its diagonal theta(xi_n).  So `eig_even`/`eig_odd` take eigh of the leading
m-mode block A = Y diag(theta) Y^T, once per block, from m =
`_leading_size`, min(n, max(M_START, 4 x the wave's highest content
mode)), doubled until the
certificate below holds, and taken whole (n) where the double would reach
n/2; at m = n (no B) it holds as it stands.  The resolved pairs are the
longest prefix L of the pairs with |B^T Y_L|_F <= RESIDUAL_MULT eps `scale`
(|B^T y_i| is the residual in K of the pair extended by zeros); rho is
that plus m eps |A|, the rounding of eigh itself (LAPACK's backward-error
bound, p(m) = m).  In the basis [Y_L, complement],
K = diag(theta_L, K2) + E with |E| <= rho (Parlett, The Symmetric
Eigenvalue Problem, ch. 4 and 11), and K2 couples the other pairs, from
theta_p up, to H by w = |B^T Y_H|_F.  Where the Gershgorin floor g of H
exceeds theta_p, the Schur complement (Haynsworth's inertia additivity)
gives K2 >= floor = theta_p - w^2 / (g - theta_p).  The certificate asks
that L reach the first theta above `tol_zero` and theta_{p-1} + 2 rho <
floor.  Then, by Weyl, the p lowest eigenvalues of K lie within rho of
theta_L and the others above floor - rho, so the counts, `gap` and
`_check_even_band` read theta_L (a value within rho of a band edge could
count on either side, as under the full solve's larger rounding n eps |K|).
`kernel_corr` is |cos| of psi' with the odd pair i0 nearest zero, less the
sine rho / delta, delta the distance from theta_i0 to the rest of L and to
floor, less rho (Davis & Kahan, SIAM J. Numer. Anal. 7, 1970): the sines of
the two angles add, so it is sqrt(1 - min(1, s + rho / delta)^2), and 0
where delta <= 0.  `chi` is the lowest even vector, zero-padded.

`constrained_min(op, even=None, odd=None)` takes at most one constraint per
block, in that block's orthonormal coordinates, and returns the smaller of
the two block minima.  With a matrix V diag(lam) V^T and z = V^T c / |c|,
the eigenvalues on the complement of c are the roots of the secular
equation sum_i z_i^2 / (lam_i - mu) = 0 (Golub's modified eigenvalue
problem, SIAM Rev. 15, 1973; LAPACK dlaed4 solves the same equation), and
the deflated eigenvalues: lam_i where |z_i| is negligible, and the other
copies of a repeated one.  The smallest root lies strictly between the
first two remaining distinct eigenvalues and is found by bisection.  A
unit x orthogonal to the unit c splits as x = Y_L a + b, with
x^T K x >= a^T diag(theta_L) a + floor |b|^2 - rho and zeta^T a + c_R^T b = 0,
where zeta = Y_L^T c and c_R is the part of c outside L, its tail beyond m
included.  The right side's minimum is the secular root on the poles
theta_L and floor with the weights zeta and |c_R|, so a block returns that
root less rho, a lower bound on its constrained minimum (theta_0 - rho
without a constraint).

`_leading_solve` is the one solve of the even block K = [[A, B], [B^T, H]]
on its leading m modes: the tail by H's diagonal, x_t = b_t / diag(H), and
the head by one m x m LU, A x_h = b_h - B x_t.  It reads only K's leading
m rows and H's diagonal, which `_even_assembly(..., rows=m)` builds alone,
and it drops B^T x_h and H's off-diagonal from the tail equations.
`solve_variations` gives eta and beta, K x = b for b = -psi and -1.  With
the even block's resolved pairs, lam = min(min |theta_L|, floor) - rho is a
lower bound on |eigenvalue| of K by the certificate above, so
|x - x*| <= |K^-1| |b - K x| <= |b - K x| / lam (Higham, Accuracy and
Stability of Numerical Algorithms, 2002, ch. 7); it keeps the leading x
at their m where |b - K x| <= RESIDUAL_MULT eps lam |x| for both columns,
the residual as evaluated in floating point: then |x - x*| <= RESIDUAL_MULT
eps |x|.  Where m is the whole block, lam <= 0, the small LU fails or the
residual misses, it takes the leading solve at m = n, with an empty tail:
one LU of the whole block, with the bits of solving it directly.  The
continuation's Newton steps and tangents take the leading solve at the
start's m with no such check and no whole-block solve: a tangent only sets
a start, and Newton stops on the full residual.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .profile import CONTENT_RTOL, FourierProfile

__all__ = [
    "GalerkinOperator",
    "SpectrumReport",
    "DegenerateOperatorError",
    "assemble",
    "spectrum",
    "constrained_min",
    "solve_variations",
]


class DegenerateOperatorError(ArithmeticError):
    """Even-restricted operator is numerically singular."""


# the resolved block starts at M_START modes, or 4 times the wave's highest
# content mode, and its pairs' residuals stay within RESIDUAL_MULT eps scale
M_START = 48
RESIDUAL_MULT = 64


@dataclass(frozen=True)
class Resolved:
    """One block's resolved eigenpairs (module note)."""

    eigenvalues: np.ndarray      # theta_L, ascending, p values
    eigenvectors: np.ndarray     # Y_L on the leading m modes, m x p
    rho: float                   # |B^T Y_L|_F + m eps |A|: each value is within rho of K's
    floor: float                 # K's other eigenvalues are above floor - rho


class GalerkinOperator:
    """Matrix form of M + omega - psi on 2N+1 trigonometric modes."""

    def __init__(self, psi, omega, sym, N):
        self.psi = psi
        self.omega = float(omega)
        self.N = int(N)
        self.even, h0, toeplitz, diag = _even_assembly(psi, self.omega, sym, self.N)
        # odd (sine) block over sin_1..sin_N
        self.odd = sliding_window_view(h0[2:], self.N) - toeplitz[1:, 1:]
        self.odd.flat[:: self.N + 1] += diag[1:]

    @cached_property
    def eig_even(self):
        """Resolved eigenpairs of the even block."""
        return self._resolve(self.even)

    @cached_property
    def eig_odd(self):
        """Resolved eigenpairs of the odd block."""
        return self._resolve(self.odd)

    def _resolve(self, block):
        """eigh of the block's leading m modes, m doubled until the
        certificate of the module note holds."""
        n = block.shape[0]
        m = _leading_size(self.psi, n)
        eps = np.finfo(float).eps
        budget = (RESIDUAL_MULT * eps * self.scale) ** 2
        while True:
            theta, Y = np.linalg.eigh(block[:m, :m])
            cum = np.cumsum(np.square(block[m:, :m] @ Y).sum(axis=0))
            p = int(np.searchsorted(cum, budget, side="right"))
            rho2 = cum[p - 1] if p else 0.0
            w2 = cum[-1] - rho2
            # the tail's Gershgorin floor, by row chunks: |H| is never whole
            tail, d = block[m:, m:], np.diagonal(block)[m:]
            g = min(((2.0 * d[i:i + 256] - np.abs(tail[i:i + 256]).sum(axis=1)).min()
                     for i in range(0, n - m, 256)), default=np.inf)
            nxt = theta[p] if p < m else np.inf
            # without coupling (w2 = 0) H's floor bounds K2 where it is lower
            floor = nxt - w2 / (g - nxt) if g > nxt else (g if w2 == 0.0 else -np.inf)
            # rho also charges eigh's own rounding, m eps |A|
            rho = math.sqrt(rho2) + m * eps * np.abs(theta[[0, -1]]).max()
            band = int(np.searchsorted(theta, self.tol_zero, side="right"))
            if m == n or (p > band and theta[p - 1] + 2.0 * rho < floor):
                return Resolved(theta[:p], Y[:, :p], rho, float(floor))
            m = 2 * m if 4 * m < n else n  # past n/2, the whole block costs little more

    @cached_property
    def scale(self):
        """Low-frequency operator scale max(1, |omega|, sup |psi|); the
        largest eigenvalue, for a fourth-order symbol at N = 256, exceeds
        the distance between the kernel and its neighbors by orders of
        magnitude."""
        return max(1.0, abs(self.omega), self.psi.sup_norm())

    @cached_property
    def tol_zero(self):
        """Zero-band width: 1e-6 times `scale`."""
        return 1e-6 * self.scale

    @cached_property
    def chi(self):
        """Unit eigenvector chi of the lowest even eigenvalue: the first
        resolved even vector, zero-padded to N+1 modes."""
        y = self.eig_even.eigenvectors[:, 0]
        return np.pad(y, (0, self.N + 1 - y.size))


def _leading_size(psi, n):
    """Starting size m of a block's leading solve: min(n, max(M_START, 4 x
    the highest mode whose |c_n| exceeds CONTENT_RTOL of the largest
    oscillating one)), the highest over a stack's rows."""
    c = np.abs(psi.coeffs[..., 1:])
    live = c > CONTENT_RTOL * c.max(axis=-1, keepdims=True, initial=0.0)
    top = np.max(live * np.arange(1, c.shape[-1] + 1), initial=0)
    return min(n, max(M_START, 4 * int(top)))


def _even_assembly(psi, omega, sym, N, rows=None):
    """Even block of M + omega - psi on modes 0..N, with the pieces the odd
    block reuses: (even, h0, toeplitz, diag).

    With `rows` = m it builds only what `_leading_solve` reads and returns
    (K[:m, :], the diagonal of K[m:, m:]), each entry with the bits it has
    in the whole block.  A stack of profiles (leading axes of psi.coeffs)
    with omega of the stack's shape gives the stack of blocks, each with
    the bits of its profile alone.
    """
    xi = 2.0 * math.pi * np.arange(N + 1) / psi.L0
    theta = np.asarray(sym(xi), dtype=float)
    # omega - mean(psi) combined first: a gauge shift (psi+a, omega+a)
    # cancels here before it can touch the theta-scaled diagonal, so the
    # assembled matrix is invariant to rounding level
    h0 = psi.psi_hat(2 * N)  # one-sided hat(psi)(0..2N)
    shift = omega - h0[..., 0]
    h0[..., 0] = 0.0
    diag = theta + np.asarray(shift)[..., None]

    # even (cosine) block, orthonormal basis {1/sqrt(L0), sqrt(2/L0) cos_n}:
    # Hankel h0[i + j] plus Toeplitz h0[|i - j|], both strided views of h0
    n1 = N + 1
    m = n1 if rows is None else rows
    reflected = np.concatenate([h0[..., n1 - 1 : 0 : -1], h0[..., :n1]],
                               axis=-1)  # h0[|k|], |k| <= N
    toeplitz = sliding_window_view(reflected, n1, axis=-1)[..., ::-1, :]
    S = sliding_window_view(h0, n1, axis=-1)[..., :m, :] + toeplitz[..., :m, :]
    S[..., 0, 0] = 0.0
    S[..., 0, 1:] = math.sqrt(2.0) * h0[..., 1:n1]
    S[..., 1:, 0] = S[..., 0, 1:m]
    np.subtract(0.0, S, out=S)   # not np.negative: a zero stays +0.0
    S.reshape(S.shape[:-2] + (-1,))[..., :: n1 + 1] += diag[..., :m]
    if rows is None:
        return S, h0, toeplitz, diag
    # the same three operations on the diagonal past row m
    return S, np.subtract(0.0, h0[..., 2 * m :: 2] + h0[..., :1]) + diag[..., m:]


def _leading_solve(head, tail, rhs):
    """x with K x = rhs on the leading block (module note): the tail by its
    diagonal, x_t = b_t / diag, and the head by one m x m LU of b_h - B x_t.

    `head` = K[..., :m, :] = [A, B] and `tail` = diag(K[m:, m:]), as
    `_even_assembly(..., rows=m)` returns them; rhs has its columns on the
    last axis.  At m = n it is the whole block's LU.  Raises LinAlgError
    where the head LU fails.
    """
    m = head.shape[-2]
    x_t = rhs[..., m:, :] / tail[..., None]
    x_h = np.linalg.solve(head[..., :m], rhs[..., :m, :] - head[..., m:] @ x_t)
    return np.concatenate([x_h, x_t], axis=-2)


def assemble(psi, omega, sym, N=None):
    """Galerkin matrix of M + omega - psi on modes |n| <= N (default psi.N).

    Raises ValueError when psi truncated to N has a tail_ratio() above
    TAIL_RTOL: the operator would be under-resolved.
    """
    if N is None:
        N = psi.N
    if psi.N > N:
        psi = psi.truncated(N)
    psi.require_resolved(f"operator truncation N={N}")
    return GalerkinOperator(psi, omega, sym, N)


@dataclass(frozen=True)
class SpectrumReport:
    """Merged eigenvalues and the spectral-assumption diagnostics."""

    eigenvalues: np.ndarray      # resolved, ascending, both parity blocks merged
    n_neg: int
    n_zero: int
    kernel_corr: float           # certified lower bound on |cos(psi', v0)|, v0 the
                                 # nearest-zero (odd) mode; in [0, 1]
    gap: float                   # distance from 0 to nearest eigenvalue outside band
    tol_zero: float

    @property
    def holds_assumption(self):
        """One simple negative eigenvalue, one simple kernel spanned by psi'."""
        return self.n_neg == 1 and self.n_zero == 1 and self.kernel_corr > 0.999


def spectrum(op):
    """Counts, gap and kernel direction from the resolved eigenpairs.

    `eigenvalues` holds each block's resolved values through its first
    above the zero band, merged; `kernel_corr` is the bound of the module
    note, and 0 where psi' = 0 or the even block holds the value nearest 0.
    """
    tol_zero = op.tol_zero
    vals = np.sort(np.concatenate([
        r.eigenvalues[: np.searchsorted(r.eigenvalues, tol_zero, side="right") + 1]
        for r in (op.eig_even, op.eig_odd)]))

    n_neg = int(np.sum(vals < -tol_zero))
    in_band = np.abs(vals) <= tol_zero
    n_zero = int(np.sum(in_band))
    gap = float(np.abs(vals[~in_band]).min(initial=np.inf))
    return SpectrumReport(
        eigenvalues=vals, n_neg=n_neg, n_zero=n_zero,
        kernel_corr=_kernel_corr(op), gap=gap, tol_zero=float(tol_zero),
    )


def _kernel_corr(op):
    """Lower bound on |cos| of the angle between psi' and the odd
    eigenvector nearest zero (module note)."""
    res, pp = op.eig_odd, op.psi.derivative_orthonormal(op.N)
    lam, norm = res.eigenvalues, np.linalg.norm(pp)
    i0 = int(np.argmin(np.abs(lam)))
    delta = min(np.abs(np.delete(lam, i0) - lam[i0]).min(initial=np.inf),
                res.floor - lam[i0]) - res.rho
    if not (abs(lam[i0]) <= np.abs(op.eig_even.eigenvalues).min() and norm > 0
            and delta > 0.0):
        return 0.0
    cos = min(1.0, abs(pp[: res.eigenvectors.shape[0]] @ res.eigenvectors[:, i0]) / norm)
    t = min(1.0, math.sqrt(1.0 - cos * cos) + res.rho / delta)
    return math.sqrt(1.0 - t * t)


def solve_variations(even, psi, resolved=None):
    """eta and beta, L eta = -psi and L beta = -1, on the even block at psi,
    with no eigensolve.

    `even` is the block (`GalerkinOperator.even`) on modes 0..N, or the
    pair (its leading m rows, the diagonal of the rest) that
    `_even_assembly(..., rows=m)` returns, which takes `_leading_solve`
    alone.  With `resolved`, the whole block's certified pairs
    (`GalerkinOperator.eig_even`), the solve is `_leading_solve` at their m
    where the residual certifies it to RESIDUAL_MULT eps |x| (module note);
    otherwise `_leading_solve` at m = n, one LU of the whole block.  A stack
    of blocks and profiles (without `resolved`) gives stacks of eta and
    beta, one LU per block; a singular block or head then refuses the whole
    stack.  An exactly singular one raises DegenerateOperatorError; a
    nearly singular one is caught only by `_check_even_band`.
    """
    # the whole block is the leading solve at m = n, with an empty tail
    head, tail = even if isinstance(even, tuple) else (even, np.empty(even.shape[:-2] + (0,)))
    N = head.shape[-1] - 1
    v = -psi.orthonormal(N)
    rhs = np.stack([v, np.broadcast_to(
        FourierProfile(psi.L0, [-1.0]).orthonormal(N), v.shape)], axis=-1)
    x = None if resolved is None else _solve_resolved(even, rhs, resolved)
    if x is None:
        try:
            x = _leading_solve(head, tail, rhs)
        except np.linalg.LinAlgError as exc:
            raise DegenerateOperatorError(f"even block is singular: {exc}") from exc
    return (FourierProfile.from_orthonormal(psi.L0, x[..., 0]),
            FourierProfile.from_orthonormal(psi.L0, x[..., 1]))


def _solve_resolved(even, rhs, res):
    """x with even x = rhs by `_leading_solve` at the resolved pairs' m, or
    None where the residual does not certify it (module note)."""
    m = res.eigenvectors.shape[0]
    lam = min(np.abs(res.eigenvalues).min(initial=np.inf), res.floor) - res.rho
    if m == even.shape[0] or not lam > 0.0:
        return None
    try:
        x = _leading_solve(even[:m], np.diagonal(even)[m:], rhs)
    except np.linalg.LinAlgError:
        return None
    bound = RESIDUAL_MULT * np.finfo(float).eps * lam * np.linalg.norm(x, axis=0)
    return x if (np.linalg.norm(rhs - even @ x, axis=0) <= bound).all() else None


def _check_even_band(op):
    """Raise DegenerateOperatorError for an even eigenvalue in the zero band."""
    tol = op.tol_zero
    ev = op.eig_even.eigenvalues
    if np.abs(ev).min() <= tol:
        raise DegenerateOperatorError(
            f"even block has eigenvalue {ev[np.abs(ev).argmin()]:.3e} within "
            f"the zero band {tol:.3e}"
        )


def constrained_min(op, even=None, odd=None):
    """Lower bound on the minimum Rayleigh quotient of L over the orthogonal
    complement of the constraints.

    `even` (length N+1) and `odd` (length N) are optional constraint
    vectors in the orthonormal coordinates of their block.  L and the
    constraints split by parity, so the minimum is the smaller of the two
    block minima; a block without a constraint gives its lowest eigenvalue.
    Each block's bound is the secular root of the module note on its cached
    resolved pairs, less rho, with no new factorization.
    """
    return float(min(_block_min(op.eig_even, even, op.N + 1),
                     _block_min(op.eig_odd, odd, op.N)))


def _block_min(res, constraint, n):
    """Lower bound on one block's minimum on the complement of `constraint`
    (length n, or None for no constraint) from its Resolved pairs `res`."""
    if constraint is None:
        return res.eigenvalues[0] - res.rho
    c = _unit(constraint, n)
    m = res.eigenvectors.shape[0]
    zeta = res.eigenvectors.T @ c[:m]
    outside = math.hypot(np.linalg.norm(c[:m] - res.eigenvectors @ zeta),
                         np.linalg.norm(c[m:]))
    # the problem is diagonal in the coordinates (a, |b|)
    poles = np.append(res.eigenvalues, res.floor)
    return _secular_min(poles, np.append(zeta, outside)) - res.rho


def _unit(constraint, n):
    """The constraint as a unit float vector of length n; ValueError for
    another shape or a zero vector."""
    c = np.asarray(constraint, dtype=float)
    if c.shape != (n,):
        raise ValueError(f"constraint has shape {c.shape}, expected {(n,)}")
    norm = np.linalg.norm(c)
    if norm == 0.0:
        raise ValueError("constraint vector is zero")
    return c / norm


def _secular_min(lam, z):
    """Lowest eigenvalue of diag(lam) on the complement of the vector z,
    the constraint's coordinates V^T c in the eigenvectors V.

    Deflation: an index with |z_i| <= n*eps keeps lam_i; eigenvalues equal
    within 8*eps relative merge into one pole of weight sum z_i^2, and the
    other copies are kept.  f(mu) = sum_i z_i^2 / (lam_i - mu) rises from
    -inf to +inf between the first two remaining poles d0 < d1, so bisection
    on (d0, d1) finds its smallest root, to a bracket of 4*eps*max(1, |mu|).
    """
    eps = np.finfo(float).eps
    z = _unit(z, lam.size)
    live = np.abs(z) > lam.size * eps
    poles, weights = lam[live], z[live] ** 2
    first = np.ones(poles.size, dtype=bool)
    first[1:] = np.diff(poles) > 8.0 * eps * np.maximum(
        np.abs(poles[:-1]), np.abs(poles[1:]))
    kept = np.concatenate([lam[~live], poles[~first]])
    weights = np.add.reduceat(weights, np.flatnonzero(first))
    poles = poles[first]
    w_kept = kept.min() if kept.size else np.inf
    if poles.size < 2:  # c is an eigenvector: only the kept values remain
        return w_kept
    lo, hi = poles[0], poles[1]
    while hi - lo > 4.0 * eps * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if np.sum(weights / (poles - mid)) < 0.0:
            lo = mid
        else:
            hi = mid
    return min(w_kept, 0.5 * (lo + hi))
