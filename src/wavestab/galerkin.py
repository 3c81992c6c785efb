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
could differ.  The even block is assembled with the operator and the odd
block on first use (`odd`).  Each block is decomposed once, on first use,
and every consumer reads that decomposition, so the blocks must not be
modified after assembly.  A caller that reads every eigenvector (the
constrained minima) asks for `eig_even`/`eig_odd` (eigh) first; otherwise
`values_even`/`values_odd` take eigvalsh, which forms no eigenvectors and
costs about half as much, and `eigenvector` recovers the one or two vectors
a report reads by one shifted solve each (inverse iteration).  `spectrum`
reads the eigenvalues and the odd mode nearest zero.  The solves for eta
and beta (the criteria, and the continuation predictor) need no
decomposition (`_variation_solve`: one LU, both right-hand sides);
`_check_even_band` reads the even eigenvalues only to reject a zero-band
even eigenvalue.  Coordinates in the orthonormal basis come from
`FourierProfile` (`orthonormal`, `from_orthonormal`,
`derivative_orthonormal`).

`constrained_min(op, even=None, odd=None)` takes at most one constraint per
block, in that block's orthonormal coordinates, and returns the smaller of
the two block minima.  A rank-one constraint needs no new factorization:
with the block as V diag(lam) V^T and z = V^T c / |c|, the eigenvalues on
the complement of c are the roots of the secular equation
sum_i z_i^2 / (lam_i - mu) = 0 (Golub's modified eigenvalue problem, SIAM
Rev. 15, 1973; LAPACK dlaed4 solves the same equation), together with the
deflated eigenvalues.  Deflation: lam_i stays an eigenvalue when |z_i| is
negligible, and a repeated eigenvalue merges into one term and keeps its
other copies.  The smallest root lies strictly between the first two
remaining distinct eigenvalues and is found by bisection.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .profile import TAIL_RTOL, FourierProfile

__all__ = [
    "GalerkinOperator",
    "SpectrumReport",
    "DegenerateOperatorError",
    "assemble",
    "spectrum",
    "constrained_min",
]


class DegenerateOperatorError(RuntimeError):
    """Even-restricted operator is numerically singular."""


class GalerkinOperator:
    """Matrix form of M + omega - psi on 2N+1 trigonometric modes."""

    def __init__(self, psi, omega, sym, N):
        self.psi = psi
        self.omega = float(omega)
        self.sym = sym
        self.N = int(N)
        self.L0 = psi.L0
        xi = 2.0 * math.pi * np.arange(self.N + 1) / self.L0
        self.theta = np.asarray(sym(xi), dtype=float)
        # omega - mean(psi) combined first: a gauge shift (psi+a, omega+a)
        # cancels here before it can touch the theta-scaled diagonal, so the
        # assembled matrix is invariant to rounding level
        h = psi.psi_hat(2 * self.N)  # one-sided hat(psi)(0..2N)
        shift = self.omega - h[0]
        h0 = h.copy()
        h0[0] = 0.0
        self._h0 = h0
        self._diag = self.theta + shift

        # even (cosine) block, orthonormal basis {1/sqrt(L0), sqrt(2/L0) cos_n}:
        # Hankel h0[i + j] plus Toeplitz h0[|i - j|], both strided views of h0
        n1 = self.N + 1
        reflected = np.concatenate([h0[n1 - 1 : 0 : -1], h0[:n1]])  # h0[|m|], |m| <= N
        self._toeplitz = sliding_window_view(reflected, n1)[::-1]
        S = sliding_window_view(h0, n1) + self._toeplitz
        S[0, 0] = 0.0
        S[0, 1:] = math.sqrt(2.0) * h0[1:n1]
        S[1:, 0] = S[0, 1:]
        np.subtract(0.0, S, out=S)   # not np.negative: a zero stays +0.0
        S.flat[:: n1 + 1] += self._diag
        self.even = S

    @cached_property
    def odd(self):
        """Odd (sine) block over sin_1..sin_N, assembled on first use."""
        T = sliding_window_view(self._h0[2:], self.N) - self._toeplitz[1:, 1:]
        T.flat[:: self.N + 1] += self._diag[1:]
        return T

    @cached_property
    def eig_even(self):
        """eigh of the even block: ascending eigenvalues and eigenvectors."""
        return np.linalg.eigh(self.even)

    @cached_property
    def eig_odd(self):
        """eigh of the odd block: ascending eigenvalues and eigenvectors."""
        return np.linalg.eigh(self.odd)

    @cached_property
    def values_even(self):
        """Ascending eigenvalues of the even block: those of `eig_even` if it
        has been computed, else eigvalsh, which forms no eigenvectors."""
        if "eig_even" in self.__dict__:
            return self.eig_even.eigenvalues
        return np.linalg.eigvalsh(self.even)

    @cached_property
    def values_odd(self):
        """Ascending eigenvalues of the odd block (see `values_even`)."""
        if "eig_odd" in self.__dict__:
            return self.eig_odd.eigenvalues
        return np.linalg.eigvalsh(self.odd)

    def eigenvector(self, parity, i, start):
        """Unit eigenvector for eigenvalue i (ascending) of the "even" or
        "odd" block.

        A column of `eig_even`/`eig_odd` when that has been computed, else one
        step of inverse iteration: a solve of (block - sigma I) x = s with
        sigma just below the computed eigenvalue (Ipsen, SIAM Rev. 39, 1997).
        The start s is `start` normalized plus a constant vector, so the
        step also reaches a target that `start` misses (a zero `start`, or
        one orthogonal to the target on a diagonal block).
        """
        eig = self.__dict__.get(f"eig_{parity}")
        if eig is not None:
            return eig.eigenvectors[:, i]
        block = getattr(self, parity)
        n = block.shape[0]
        lam = getattr(self, f"values_{parity}")[i]
        sigma = lam - 4.0 * np.finfo(float).eps * max(1.0, abs(lam))
        s = np.full(n, 1.0 / math.sqrt(n))
        norm = np.linalg.norm(start)
        if norm > 0.0:
            s += start / norm
        shifted = block.copy()
        shifted.flat[:: n + 1] -= sigma
        x = np.linalg.solve(shifted, s)
        return x / np.linalg.norm(x)


def assemble(psi, omega, sym, N=None):
    """Galerkin matrix of M + omega - psi on modes |n| <= N (default psi.N).

    Raises ValueError when psi truncated to N has a tail_ratio() above
    TAIL_RTOL: the operator would be under-resolved.
    """
    if N is None:
        N = psi.N
    if psi.N > N:
        psi = psi.truncated(N)
    tail = psi.tail_ratio()
    if tail > TAIL_RTOL:
        raise ValueError(f"operator truncation N={N} leaves a profile tail {tail:.2e} "
                         f"of the largest oscillating coefficient, above {TAIL_RTOL:g}")
    return GalerkinOperator(psi, omega, sym, N)


@dataclass(frozen=True)
class SpectrumReport:
    """Merged eigenvalues and the spectral-assumption diagnostics."""

    eigenvalues: np.ndarray      # ascending, both parity blocks merged
    n_neg: int
    n_zero: int
    kernel_corr: float           # |<v0, psi'>| / (|v0||psi'|) for nearest-zero mode
    gap: float                   # distance from 0 to nearest eigenvalue outside band
    tol_zero: float

    @property
    def holds_assumption(self):
        """One simple negative eigenvalue, one simple kernel spanned by psi'."""
        return self.n_neg == 1 and self.n_zero == 1 and self.kernel_corr > 0.999


def default_tol_zero(op):
    """Zero-band width: 1e-6 times the low-frequency operator scale.

    Scaling by the largest eigenvalue would be useless here: for a
    fourth-order symbol at N = 256 it exceeds the distance between the
    kernel and its neighbors by orders of magnitude.
    """
    return 1e-6 * max(1.0, abs(op.omega), op.psi.sup_norm())


def spectrum(op):
    """Eigenvalues of both parity blocks with negative/zero counts.

    Reads `op.values_even`/`op.values_odd`: the eigenvalues of `eig_even`/
    `eig_odd` when a caller has computed them, else eigvalsh.  The one
    eigenvector read here, the odd mode nearest zero, comes from
    `op.eigenvector` with psi' as its start.
    """
    tol_zero = default_tol_zero(op)
    vals_e, vals_o = op.values_even, op.values_odd
    vals = np.sort(np.concatenate([vals_e, vals_o]))

    n_neg = int(np.sum(vals < -tol_zero))
    in_band = np.abs(vals) <= tol_zero
    n_zero = int(np.sum(in_band))

    # nearest-to-zero mode, compared against psi'
    i_o = int(np.argmin(np.abs(vals_o)))
    i_e = int(np.argmin(np.abs(vals_e)))
    pp = op.psi.derivative_orthonormal(op.N)
    norm_pp = np.linalg.norm(pp)
    if abs(vals_o[i_o]) <= abs(vals_e[i_e]) and norm_pp > 0:
        v0 = op.eigenvector("odd", i_o, pp)
        kernel_corr = float(abs(v0 @ pp) / (np.linalg.norm(v0) * norm_pp))
    else:
        kernel_corr = 0.0

    outside = np.abs(vals[~in_band]) if (~in_band).any() else np.array([np.inf])
    gap = float(outside.min())
    return SpectrumReport(
        eigenvalues=vals, n_neg=n_neg, n_zero=n_zero,
        kernel_corr=kernel_corr, gap=gap, tol_zero=float(tol_zero),
    )


def _variation_solve(op):
    """eta and beta from one LU of the even block, with no eigensolve.

    An exactly singular block raises DegenerateOperatorError; a nearly
    singular one is caught only by `_check_even_band`.
    """
    rhs = np.stack([-op.psi.orthonormal(op.N),
                    FourierProfile(op.L0, [-1.0]).orthonormal(op.N)], axis=1)
    try:
        x = np.linalg.solve(op.even, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateOperatorError(f"even block is singular: {exc}") from exc
    return (FourierProfile.from_orthonormal(op.L0, x[:, 0]),
            FourierProfile.from_orthonormal(op.L0, x[:, 1]))


def _check_even_band(op):
    """Raise DegenerateOperatorError for an even eigenvalue in the zero band."""
    tol = default_tol_zero(op)
    ev = op.values_even
    if np.abs(ev).min() <= tol:
        raise DegenerateOperatorError(
            f"even block has eigenvalue {ev[np.abs(ev).argmin()]:.3e} within "
            f"the zero band {tol:.3e}"
        )


def constrained_min(op, even=None, odd=None):
    """Minimum Rayleigh quotient of L over the orthogonal complement.

    `even` (length N+1) and `odd` (length N) are optional constraint
    vectors in the orthonormal coordinates of their block.  L and the
    constraints split by parity, so the minimum is the smaller of the two
    block minima; a block without a constraint gives its lowest eigenvalue.
    A constrained block needs no new factorization: on its cached eigenpairs
    (lam_i, v_i) and z = V^T c / |c|, its minimum is the smallest root of the
    secular equation sum_i z_i^2 / (lam_i - mu) = 0, or a deflated lam_i
    (negligible z_i, or a repeated eigenvalue) if that is lower; see
    `_secular_min` for the tolerances.
    """
    w_even = (op.eig_even.eigenvalues[0] if even is None
              else _secular_min(op.eig_even, even))
    w_odd = (op.eig_odd.eigenvalues[0] if odd is None
             else _secular_min(op.eig_odd, odd))
    return float(min(w_even, w_odd))


def _secular_min(eig, constraint):
    """Lowest eigenvalue of V diag(lam) V^T on the complement of `constraint`.

    Deflation: an index with |z_i| <= n*eps keeps lam_i; eigenvalues equal
    within 8*eps relative merge into one pole of weight sum z_i^2, and the
    other copies are kept.  f(mu) = sum_i z_i^2 / (lam_i - mu) rises from
    -inf to +inf between the first two remaining poles d0 < d1, so bisection
    on (d0, d1) finds its smallest root, to a bracket of 4*eps*max(1, |mu|).
    """
    lam, vecs = eig
    c = np.asarray(constraint, dtype=float)
    if c.shape != lam.shape:
        raise ValueError(f"constraint has shape {c.shape}, expected {lam.shape}")
    norm = np.linalg.norm(c)
    if norm == 0.0:
        raise ValueError("constraint vector is zero")
    eps = np.finfo(float).eps
    z = vecs.T @ (c / norm)
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
