"""Even periodic profiles and the explicit Kawahara dnoidal family.

A FourierProfile stores an even real L0-periodic function as a truncated
cosine series.  The dnoidal builder samples the quartic-in-dn ansatz

    psi(x) = a + b (dn^2(2Kx/L, k) - E/K)
               + d (dn^4(2Kx/L, k) - (2-k^2) 2E/(3K) + (1-k^2)/3)

whose brackets are exactly mean-zero, so <psi> = a.

Coefficient note: `a` is the plain closed form minus the constant
(3584/3) K^4/L^4 (klcurve.P_CORRECTION / 507).  With it the sampled wave
satisfies psi'''' - psi'' + omega psi - psi^2/2 + A = 0 to
machine precision mode-by-mode; the b, d and period-constraint formulas
need no such adjustment.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .elliptic import complete_integrals, jacobi_sn_cn_dn
from .klcurve import P_CORRECTION, _closed_form_terms, solve_branch

__all__ = [
    "FourierProfile",
    "DnoidalParams",
    "dnoidal_coefficients",
    "build_dnoidal",
    "extract_A",
    "pi_residual",
]

# a profile is resolved when its tail_ratio() is at most this; require_resolved
# refuses one above it, extract_A warns
TAIL_RTOL = 1e-10


class FourierProfile:
    """Even real L0-periodic function as cosine coefficients c_0..c_N.

    Represents psi(x) = c_0 + sum_{n>=1} c_n cos(2 pi n x / L0).  Evenness
    is structural: only cosine coefficients are stored.  This class is the
    one place that maps coefficients to orthonormal-basis coordinates,
    alias-free products and L2 inner products; other modules call it.

    `coeffs` may carry leading stack axes, one profile per row of the last
    axis, all of period L0.  The coefficient maps (`from_samples`, `values`,
    `psi_hat`, `orthonormal`, `from_orthonormal`, `half_square`,
    `truncated`) act row by row with the arithmetic of one profile, so a
    row's bits do not depend on its stack; the methods that return a float
    take one profile.
    """

    def __init__(self, L0, coeffs):
        if L0 <= 0:
            raise ValueError("period L0 must be positive")
        self.L0 = float(L0)
        self.coeffs = np.asarray(coeffs, dtype=float).copy()
        if self.coeffs.ndim < 1 or self.coeffs.shape[-1] < 1:
            raise ValueError("coeffs must be an array with at least c_0")

    @property
    def N(self):
        return self.coeffs.shape[-1] - 1

    @classmethod
    def from_samples(cls, L0, values, N):
        """Fit cosine coefficients 0..N from equispaced samples x_j = j L0/M.

        Requires M >= 2N+1; the sine content is dropped (see `_odd_content`).
        """
        values = np.asarray(values, dtype=float)
        M = values.shape[-1]
        if M < 2 * N + 1:
            raise ValueError(f"need at least 2N+1={2*N+1} samples, got {M}")
        F = np.fft.rfft(values) / M
        c = np.zeros(F.shape[:-1] + (N + 1,))
        c[..., 0] = F[..., 0].real
        upto = min(N, F.shape[-1] - 1)
        c[..., 1 : upto + 1] = 2.0 * F[..., 1 : upto + 1].real
        return cls(L0, c)

    def grid(self, M):
        return np.arange(M) * (self.L0 / M)

    def values(self, M=None):
        """Sample on M equispaced points x_j = j L0/M (default 4(N+1))."""
        if M is None:
            M = 4 * (self.N + 1)
        if M < 2 * self.N + 1:
            raise ValueError("sampling grid too coarse for the stored modes")
        F = np.zeros(self.coeffs.shape[:-1] + (M // 2 + 1,), dtype=complex)
        F[..., 0] = self.coeffs[..., 0] * M
        F[..., 1 : self.N + 1] = self.coeffs[..., 1:] * (M / 2.0)
        return np.fft.irfft(F, M)

    def mean(self):
        return float(self.coeffs[0])

    def sup_norm(self):
        return float(np.abs(self.values()).max())

    def tail_ratio(self, n=None):
        """Largest |c_m| above mode n over the largest oscillating |c_m|, m >= 1.

        n defaults to N - 2, the last two coefficients, and then N < 2 gives
        0.  The mean c_0 is left out of the scale, so adding a constant does
        not loosen the ratio; a constant profile gives 0.
        """
        if n is None:
            if self.N < 2:
                return 0.0
            n = self.N - 2
        c = np.abs(self.coeffs[1:])
        top = c.max(initial=0.0)
        if top == 0.0:
            return 0.0
        return float(c[n:].max(initial=0.0) / top)

    def require_resolved(self, what, n=None):
        """Raise ValueError when tail_ratio(n) is above TAIL_RTOL; `what`
        names the truncation in the message."""
        tail = self.tail_ratio(n)
        if tail > TAIL_RTOL:
            raise ValueError(f"{what} leaves a profile tail {tail:.2e} of the "
                             f"largest oscillating coefficient, above {TAIL_RTOL:g}")

    def psi_hat(self, n_max):
        """One-sided complex Fourier coefficients hat(psi)(n), n = 0..n_max."""
        h = np.zeros(self.coeffs.shape[:-1] + (n_max + 1,))
        h[..., 0] = self.coeffs[..., 0]
        upto = min(self.N, n_max)
        h[..., 1 : upto + 1] = 0.5 * self.coeffs[..., 1 : upto + 1]
        return h

    def wavenumbers(self):
        return 2.0 * math.pi * np.arange(self.N + 1) / self.L0

    def orthonormal(self, N):
        """Coordinates 0..N in the basis {1/sqrt(L0), sqrt(2/L0) cos_n}."""
        v = self.truncated(N).coeffs
        v[..., 0] *= math.sqrt(self.L0)
        v[..., 1:] *= math.sqrt(self.L0 / 2.0)
        return v

    @classmethod
    def from_orthonormal(cls, L0, v):
        """The profile with orthonormal cosine coordinates v (see `orthonormal`)."""
        v = np.asarray(v, dtype=float)
        c = v * math.sqrt(2.0 / L0)
        c[..., 0] = v[..., 0] / math.sqrt(L0)
        return cls(L0, c)

    def derivative_orthonormal(self, N):
        """Coordinates 1..N of psi' in the basis {sqrt(2/L0) sin_n}."""
        w = np.zeros(N)
        upto = min(self.N, N)
        xi = self.wavenumbers()[1 : upto + 1]
        w[:upto] = -self.coeffs[1 : upto + 1] * xi * math.sqrt(self.L0 / 2.0)
        return w

    def half_square(self):
        """psi^2 / 2 on modes 0..2N, alias-free from the 4(N+1) samples."""
        vals = self.values()
        return FourierProfile.from_samples(self.L0, 0.5 * vals * vals, 2 * self.N)

    def inner(self, other):
        """L2 inner product with another even profile over one period."""
        n = max(self.N, other.N)
        a, b = self.truncated(n).coeffs, other.truncated(n).coeffs
        return float(self.L0 * (a[0] * b[0] + 0.5 * np.sum(a[1:] * b[1:])))

    def shifted(self, alpha):
        c = self.coeffs.copy()
        c[0] += alpha
        return FourierProfile(self.L0, c)

    def truncated(self, N):
        if N >= self.N:
            c = np.zeros(self.coeffs.shape[:-1] + (N + 1,))
            c[..., : self.N + 1] = self.coeffs
            return FourierProfile(self.L0, c)
        return FourierProfile(self.L0, self.coeffs[..., : N + 1])


def _odd_content(values):
    """Largest sine over largest Fourier coefficient of equispaced samples:
    rounding level for even data, and one ratio for a stack of rows."""
    F = np.fft.rfft(values) / values.shape[-1]
    scale = max(np.abs(F).max(), 1e-300)
    return float(np.abs(F[..., 1:].imag).max() / scale)


@dataclass(frozen=True)
class DnoidalParams:
    """Everything defining one explicit Kawahara dnoidal wave."""

    k: float
    L: float
    omega: float
    A: float
    a: float
    b: float
    d: float
    K: float
    E: float


def dnoidal_coefficients(k, L, omega, pair=None):
    """Ansatz coefficients (a, b, d) for modulus k, period L, speed omega.

    `a` carries the correction of the module note, so that the sampled
    ansatz solves the traveling-wave equation to machine precision; its
    (k, L) part is the one klcurve.p_of_k uses.  An L whose L^4 underflows
    gives infinite coefficients, which build_dnoidal refuses.
    """
    pair = pair or complete_integrals(k)
    K, E = pair.K, pair.E
    if k <= 0.0 or L <= 0.0:
        raise ValueError("need 0 < k < 1 and L > 0")
    L2 = L * L
    L4 = L2 * L2
    if L4 == 0.0:   # underflow: every coefficient scales as K^4/L^4
        return math.inf, math.inf, math.inf
    a = (1.0 / (507.0 * L4)) * (
        _closed_form_terms(k, L2, K, E) + L4 * (-31.0 + 507.0 * omega)
    )
    a -= (P_CORRECTION / 507.0) * K**4 / L4
    b = (1120.0 / (13.0 * L4)) * ((208.0 * k**2 - 416.0) * K**2 + L2) * K**2
    d = 26880.0 * K**4 / L4
    return a, b, d


def build_dnoidal(k, L, omega, N=128):
    """Sample the dnoidal ansatz and return (DnoidalParams, FourierProfile).

    The integration constant A is minus the residual mean, h_0 - omega c_0
    with h = psi^2/2: theta(0) = 0 for every symbol, so A is the same for all
    of them and bit for bit the A of extract_A.  L=None takes the branch
    period solve_branch(k), and raises ValueError where the branch does not
    reach k; an L off the branch simply yields a large residual in
    extract_A.  Raises FloatingPointError when a coefficient of the wave,
    A, a, b or d is not finite, and ValueError when truncation N leaves a
    tail_ratio() above TAIL_RTOL.
    """
    if L is None:
        L = solve_branch(k)[1]
        if math.isnan(L):
            raise ValueError(f"no branch root at k={k}")
    if N < 8:
        raise ValueError("truncation N < 8 is under-resolved")
    pair = complete_integrals(k)
    K, E = pair.K, pair.E
    # an overflowing wave is reported once, by the finiteness check below
    with np.errstate(all="ignore"):
        a, b, d = dnoidal_coefficients(k, L, omega, pair)
        M = 4 * (N + 1)
        x = np.arange(M) * (L / M)
        _, _, dnv = jacobi_sn_cn_dn(2.0 * K * x / L, k)
        mean2 = E / K
        mean4 = (2.0 - k**2) * (2.0 * E) / (3.0 * K) - (1.0 - k**2) / 3.0
        vals = a + b * (dnv**2 - mean2) + d * (dnv**4 - mean4)
        psi = FourierProfile.from_samples(L, vals, N)
        odd_energy = _odd_content(vals)
        A = float(psi.half_square().coeffs[0] - omega * psi.coeffs[0])
    if not np.isfinite(np.append(psi.coeffs, (A, a, b, d))).all():
        raise FloatingPointError(f"non-finite wave at k={k}, L={L}, omega={omega}")
    if odd_energy > 1e-12:
        raise RuntimeError(f"dnoidal sampling produced odd content {odd_energy:.2e}")
    psi.require_resolved(f"truncation N={N}")
    params = DnoidalParams(
        k=float(k), L=float(L), omega=float(omega), A=A,
        a=a, b=b, d=d, K=K, E=E,
    )
    return params, psi


def pi_residual(psi, omega, A, sym):
    """Residual M psi + omega psi - psi^2/2 + A of the traveling-wave map,
    as a FourierProfile on modes 0..2N.

    A stack of profiles (leading axes of psi.coeffs) takes omega and A of
    the stack's shape and gives the stack of residuals.
    """
    rc = -psi.half_square().coeffs
    omega = np.asarray(omega)[..., None]
    rc[..., : psi.N + 1] += (sym(psi.wavenumbers()) + omega) * psi.coeffs
    rc[..., 0] += A
    return FourierProfile(psi.L0, rc)


def extract_A(psi, omega, sym):
    """Integration constant and residual of the traveling-wave equation.

    Computes r = M psi + omega psi - psi^2/2 spectrally, sets A = -mean(r),
    and returns (A, max|r + A|).  The residual is a return value, never an
    error: it is near zero exactly when psi solves the equation.
    """
    if psi.tail_ratio() > TAIL_RTOL:
        warnings.warn(
            f"profile tail {psi.tail_ratio():.2e} above {TAIL_RTOL:g}; "
            "residual may be truncation-limited",
            stacklevel=2,
        )
    r = pi_residual(psi, omega, 0.0, sym)
    A = -r.coeffs[0]
    r.coeffs[0] = 0.0
    return float(A), r.sup_norm()

