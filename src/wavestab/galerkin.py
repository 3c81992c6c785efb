"""Truncated Fourier-Galerkin form of the linearized operator M + omega - psi.

The operator acts on the orthonormal trigonometric basis
[1/sqrt(L0), sqrt(2/L0) cos_n, sqrt(2/L0) sin_n] and block-diagonalizes:
multiplication by the even profile psi maps cosines to cosines and sines to
sines, so the matrix splits into an even (cosine) block of size N+1 and an
odd (sine) block of size N.  Counting for the spectral assumption uses the
union of both blocks; the kernel direction psi' is odd, so the even block
is the invertible restriction used for the parameter-derivative solves.

Both blocks are the diagonal minus a Hankel part hat(psi)(i + j) and a
Toeplitz part hat(psi)(|i - j|), strided views of the coefficient vector.
`_assembly` builds a block's leading rows and the diagonal past them as
(0 - (Hankel + Toeplitz)) + diag (even) or (Hankel - Toeplitz) + diag (odd):
the bits of diag - S, since d - s = (0 - s) + d in IEEE arithmetic, and
0 - s keeps a zero entry +0.0 (negation gives -0.0, and LAPACK's Householder
sign choices could differ).  So each entry has its bits in the whole block
(rows = n, with an empty tail), alone or in a stack of profiles.  hat(psi)
vanishes past psi.N, so row i is +0.0 past column i + psi.N, and the rows
are built over their first w = min(n, rows + psi.N) columns only: a
report's cost and memory stop growing with N once N passes psi.N and the
resolved modes.  A product with the rows takes its vector's first w
entries, whose dropped ones would meet those zeros, and where a later sum
runs over the product, it is padded back to n so that the sum keeps the
whole block's order.  Only the `spectrum` listing and an uncertified
eta/beta read the whole `even`/`odd`.

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

g is in closed form, O(N), and assumes no monotonicity of theta.  Row
m + s of H has diagonal d_s, Toeplitz neighbours in H summing to at most
c_s on its left and |hat(psi)|_1 on its right (one-sided coefficients,
hat(psi)(0) left out, c_s = |hat(psi)(1..s)|_1), and Hankel ones to at
most sum_{k >= 2m} |hat(psi)(k)|; g is the least row's bound less
(N + 1) eps times its magnitudes, for rounding.  Row N takes
c = |hat(psi)|_1: where theta does not decrease, as for every builtin
symbol, it bounds every row past N, and the report holds for L on L^2_per.

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

`_leading_solve` solves K x = b from K's leading m rows and H's diagonal:
the tail by that diagonal, x_t = b_t / diag(H), and the head by one m x m
LU, A x_h = b_h - B x_t, with B over the rows' built columns.
`solve_variations` gives eta and beta, for b = -psi and -1.  With the even
block's resolved pairs, lam = min(min |theta_L|, floor) - rho bounds
|eigenvalue| of K from below, so |x - x*| <= |b - K x| / lam (Higham,
Accuracy and Stability of Numerical Algorithms, 2002, ch. 7); it keeps the
leading x at their m where |b - K x| <= RESIDUAL_MULT eps lam |x| in
floating point for both columns.  b vanishes past mode psi.N, and so does
x, so the rows R = max(m, psi.N + 1) of `even_head` give K x = K[:R, :]^T
x[:R] by symmetry, padded to n for its norm, and `choose_witness` its
pairing.  Where m = n, lam <= 0, the small LU fails or the residual misses,
it solves `even`, the whole block.  The continuation's solves take the
leading solve alone (its module note).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

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
        self.sym = sym
        self.N = int(N)

    def _rows(self, rows, odd=False):
        """A block's leading rows and the diagonal past them (`_assembly`)."""
        return _assembly(self.psi, self.omega, self.sym, self.N, rows, odd)

    @cached_property
    def even(self):
        """The whole even (cosine) block over cos_0..cos_N."""
        return self._rows(self.N + 1)[0]

    @cached_property
    def odd(self):
        """The whole odd (sine) block over sin_1..sin_N."""
        return self._rows(self.N, odd=True)[0]

    @cached_property
    def even_head(self):
        """The even block's leading R = max(m, psi.N + 1) rows, over their
        first min(n, R + psi.N) columns, and the diagonal past them, m the
        resolved pairs' size (module note)."""
        return self._rows(max(self.eig_even.eigenvectors.shape[0], self.psi.N + 1))

    @cached_property
    def eig_even(self):
        """Resolved eigenpairs of the even block."""
        return self._resolve(odd=False)

    @cached_property
    def eig_odd(self):
        """Resolved eigenpairs of the odd block."""
        return self._resolve(odd=True)

    def _resolve(self, odd):
        """eigh of the block's leading m modes, m doubled until the
        certificate of the module note holds."""
        n = self.N + (not odd)
        m = _leading_size(self.psi, n)
        eps = np.finfo(float).eps
        budget = (RESIDUAL_MULT * eps * self.scale) ** 2
        while True:
            head, tail = self._rows(m, odd)
            theta, Y = np.linalg.eigh(head[:, :m])
            cum = np.cumsum(np.square(head[:, m:].T @ Y).sum(axis=0))
            p = int(np.searchsorted(cum, budget, side="right"))
            rho2 = cum[p - 1] if p else 0.0
            w2 = cum[-1] - rho2
            g = self._tail_floor(tail, m) if m < n else np.inf
            nxt = theta[p] if p < m else np.inf
            # without coupling (w2 = 0) H's floor bounds K2 where it is lower
            floor = nxt - w2 / (g - nxt) if g > nxt else (g if w2 == 0.0 else -np.inf)
            # rho also charges eigh's own rounding, m eps |A|
            rho = math.sqrt(rho2) + m * eps * np.abs(theta[[0, -1]]).max()
            band = int(np.searchsorted(theta, self.tol_zero, side="right"))
            if m == n or (p > band and theta[p - 1] + 2.0 * rho < floor):
                return Resolved(theta[:p], Y[:, :p], rho, float(floor))
            m = 2 * m if 4 * m < n else n  # past n/2, the whole block costs little more

    def _tail_floor(self, tail, m):
        """Gershgorin floor, in closed form, of a block's rows past its
        leading m from their diagonal `tail` (module note)."""
        h = np.abs(self.psi.psi_hat(self.psi.N))
        h[0] = 0.0
        c = np.cumsum(h)  # c[s] = |hat(psi)(1..s)|_1
        left = c[np.minimum(np.arange(tail.size), c.size - 1)]
        left[-1] = c[-1]  # row N stands for every row past it
        slack = (self.N + 1) * np.finfo(float).eps * (np.abs(tail) + 2.0 * c[-1])
        return float(np.min(tail - left - slack) - c[-1] - h[2 * m :].sum())

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
        return np.concatenate([y, np.zeros(self.N + 1 - y.size)])


def _leading_size(psi, n):
    """Starting size m of a block's leading solve: min(n, max(M_START, 4 x
    the highest mode whose |c_n| exceeds CONTENT_RTOL of the largest
    oscillating one)), the highest over a stack's rows."""
    c = np.abs(psi.coeffs[..., 1:])
    live = c > CONTENT_RTOL * c.max(axis=-1, keepdims=True, initial=0.0)
    top = np.max(live * np.arange(1, c.shape[-1] + 1), initial=0)
    return min(n, max(M_START, 4 * int(top)))


def _assembly(psi, omega, sym, N, rows, odd=False):
    """(K[..., :rows, :w], diag K[..., rows:, rows:]) for K the even block of
    M + omega - psi on modes 0..N, or the odd one on modes 1..N (n modes),
    with the bits of the whole block (module note).  w = min(n, rows +
    psi.N): past it the rows are +0.0, since hat(psi) vanishes past psi.N.
    A stack of profiles (leading axes of psi.coeffs) takes omega of the
    stack's shape."""
    xi = 2.0 * math.pi * np.arange(N + 1) / psi.L0
    theta = np.asarray(sym(xi), dtype=float)
    # omega - mean(psi) combined first: a gauge shift (psi+a, omega+a)
    # cancels here before it can touch the theta-scaled diagonal, so the
    # assembled matrix is invariant to rounding level
    h0 = psi.psi_hat(2 * N)  # one-sided hat(psi)(0..2N)
    shift = omega - h0[..., 0]
    h0[..., 0] = 0.0
    diag = theta + np.asarray(shift)[..., None]

    # Hankel h0[i + j] and Toeplitz h0[|i - j|], both strided views of h0;
    # the Toeplitz part, reflected[N - i + j], is the same for both parities
    n1 = N + 1
    reflected = np.concatenate([h0[..., n1 - 1 : 0 : -1], h0[..., :n1]],
                               axis=-1)  # h0[|k|], |k| <= N
    w = min(N + (not odd), rows + psi.N)
    toeplitz = _windows(reflected[..., N:], rows, w, -1)
    if odd:  # sine block over sin_1..sin_N: Hankel minus Toeplitz
        S = _windows(h0[..., 2:], rows, w, 1) - toeplitz
        S.reshape(S.shape[:-2] + (-1,))[..., :: w + 1] += diag[..., 1 : rows + 1]
        return S, (h0[..., 2 * rows + 2 :: 2] - h0[..., :1]) + diag[..., rows + 1 :]
    # cosine block, basis {1/sqrt(L0), sqrt(2/L0) cos_n}: 0 minus the sum
    S = _windows(h0, rows, w, 1) + toeplitz
    S[..., 0, 0] = 0.0
    S[..., 0, 1:] = math.sqrt(2.0) * h0[..., 1:w]
    S[..., 1:, 0] = S[..., 0, 1:rows]
    np.subtract(0.0, S, out=S)   # not np.negative: a zero stays +0.0
    S.reshape(S.shape[:-2] + (-1,))[..., :: w + 1] += diag[..., :rows]
    # the same three operations on the diagonal past the rows
    return S, np.subtract(0.0, h0[..., 2 * rows :: 2] + h0[..., :1]) + diag[..., rows:]


def _windows(a, rows, w, row_step):
    """The read-only view V[..., i, j] = a[..., row_step * i + j], i < rows
    and j < w, of a's last axis."""
    s = a.strides[-1]
    return as_strided(a, a.shape[:-1] + (rows, w), a.strides[:-1] + (row_step * s, s),
                      writeable=False)


def _leading_solve(head, tail, rhs):
    """x with K x = rhs from `head` = K[..., :m, :w] and `tail` = diag(K[m:,
    m:]), as `_assembly` returns them, by one m x m LU (module note); rhs
    has its columns on the last axis.  x's tail meets the head's columns in
    its first w - m entries, the others meeting the rows' zeros.  Raises
    LinAlgError where the LU fails."""
    m, w = head.shape[-2:]
    x_t = rhs[..., m:, :] / tail[..., None]
    x_h = np.linalg.solve(head[..., :m],
                          rhs[..., :m, :] - head[..., m:] @ x_t[..., : w - m, :])
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


def solve_variations(even, psi, op=None):
    """eta and beta, L eta = -psi and L beta = -1, on the even block at psi,
    with no eigensolve.

    `even` is a pair from `_assembly(..., rows=R)`, solved by
    `_leading_solve` at m = R (the whole block at R = n).  With `op`, whose
    `even_head` it is, the solve is certified at the resolved m, or else
    made on `op.even` (module note).  A stack of pairs and profiles
    (without `op`) gives stacks of eta and beta; a singular block or head
    then refuses the whole stack.  An exactly singular one raises
    DegenerateOperatorError; a nearly singular one is caught only by
    `_check_even_band`.
    """
    head, tail = even
    N = head.shape[-2] + tail.shape[-1] - 1
    v = -psi.orthonormal(N)
    rhs = np.stack([v, np.broadcast_to(
        FourierProfile(psi.L0, [-1.0]).orthonormal(N), v.shape)], axis=-1)
    x = None if op is None else _solve_resolved(head, tail, rhs, op.eig_even)
    if x is None:
        if op is not None and tail.size:  # the whole block, where the rows are not
            head, tail = op.even, tail[:0]
        try:
            x = _leading_solve(head, tail, rhs)
        except np.linalg.LinAlgError as exc:
            raise DegenerateOperatorError(f"even block is singular: {exc}") from exc
    return (FourierProfile.from_orthonormal(psi.L0, x[..., 0]),
            FourierProfile.from_orthonormal(psi.L0, x[..., 1]))


def _solve_resolved(head, tail, rhs, res):
    """x with K x = rhs by `_leading_solve` at the resolved pairs' m, from
    the pair `head`, `tail`, or None where it is not certified (module note)."""
    m, (R, w), n = res.eigenvectors.shape[0], head.shape, rhs.shape[0]
    lam = min(np.abs(res.eigenvalues).min(initial=np.inf), res.floor) - res.rho
    if m == n or not lam > 0.0:
        return None
    try:
        x = _leading_solve(head[:m], np.concatenate([np.diagonal(head[m:, m:]), tail]), rhs)
    except np.linalg.LinAlgError:
        return None
    # x vanishes past the rows where rhs does, so K x = head^T x[:R] by
    # symmetry, padded to n so that the norm sums in the whole block's order
    Kx = np.zeros_like(rhs)
    Kx[:w] = head.T @ x[:R]
    bound = RESIDUAL_MULT * np.finfo(float).eps * lam * np.linalg.norm(x, axis=0)
    return x if (not x[R:].any() and (np.linalg.norm(rhs - Kx, axis=0)
                                      <= bound).all()) else None


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
    eps = float(np.finfo(float).eps)
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
    # Python floats take the same IEEE steps as numpy scalars at less cost,
    # and f(mid) goes to one buffer by np.sum's operations, in its order
    lo, hi = float(poles[0]), float(poles[1])
    f = np.empty_like(poles)
    while hi - lo > 4.0 * eps * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        np.subtract(poles, mid, out=f)
        np.divide(weights, f, out=f)
        if np.add.reduce(f) < 0.0:
            lo = mid
        else:
            hi = mid
    return min(w_kept, 0.5 * (lo + hi))
