"""Complete elliptic integrals and Jacobi elliptic functions.

Self-contained kernels: the arithmetic-geometric mean for K(k) and E(k),
and the descending Landen (Gauss) transformation for sn, cn, dn.  Both
converge quadratically, so machine precision is reached in < 10 levels
for any admissible modulus.  No special-function library is used.
`complete_integrals` makes one AGM pass per modulus; the complementary
pair K(k'), E(k') costs a second pass, made only when it is read.

Convention: everything is parameterized by the modulus k, with parameter
m = k^2 used only internally.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "EllipticPair",
    "EllipticDomainError",
    "complete_integrals",
    "jacobi_sn_cn_dn",
    "dn",
]

AGM_TOL = 1e-15
AGM_MAX_ITER = 40
MODULUS_CAP = 1.0 - 1e-12  # refuse k beyond this; K(k) blows up logarithmically


class EllipticDomainError(ValueError):
    """Modulus outside the supported domain [0, 1 - 1e-12]."""


@dataclass(frozen=True)
class EllipticPair:
    """Modulus k with its complete integrals and complementary values.

    Kp = K(k') and Ep = E(k') with k' = sqrt(1 - k^2), computed by a second
    AGM pass on first read.  At k = 0 the complementary modulus is 1, where
    K diverges; Kp is +inf there.
    """

    k: float
    K: float
    E: float

    @cached_property
    def _complementary(self):
        kp = math.sqrt((1.0 - self.k) * (1.0 + self.k))
        if kp > MODULUS_CAP:
            # k == 0 (or denormal-close): complementary integral diverges
            return math.inf, 1.0
        return _integrals(kp)

    @property
    def Kp(self):
        return self._complementary[0]

    @property
    def Ep(self):
        return self._complementary[1]

    def legendre_residual(self):
        """E*Kp + Ep*K - K*Kp - pi/2; zero in exact arithmetic."""
        return self.E * self.Kp + self.Ep * self.K - self.K * self.Kp - math.pi / 2


def _check_modulus(k):
    if not (0.0 <= k <= MODULUS_CAP):
        raise EllipticDomainError(
            f"modulus k={k!r} outside [0, {MODULUS_CAP}]"
        )


def _agm_levels(k):
    """One descending AGM pass from (1, k', k); assumes 0 <= k <= MODULUS_CAP.

    Returns the levels a_i, c_i of the Landen backward recurrence and
    csum = sum_i 2^{i-1} c_i^2, with K = pi / (2 a_n) and E = K (1 - csum).
    """
    a, b, c = 1.0, math.sqrt((1.0 - k) * (1.0 + k)), k
    a_list, c_list = [a], [c]
    csum = 0.5 * c * c
    half_pow = 0.5
    for _ in range(AGM_MAX_ITER):
        if abs(c) <= AGM_TOL * a:
            break
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        half_pow *= 2.0
        csum += half_pow * c * c
        a_list.append(a)
        c_list.append(c)
    return a_list, c_list, csum


def _integrals(k):
    """(K, E) from one AGM pass; assumes 0 <= k <= MODULUS_CAP."""
    a_list, _, csum = _agm_levels(k)
    K = math.pi / (2.0 * a_list[-1])
    return K, K * (1.0 - csum)


def complete_integrals(k):
    """Complete elliptic integrals of the first and second kind.

    Returns an EllipticPair with K(k), E(k), and K(k'), E(k') on demand.
    One AGM pass, plus one more if Kp or Ep is read.  Accuracy is machine
    precision (AGM fixed point).  Raises EllipticDomainError for k < 0 or
    k > 1 - 1e-12.
    """
    k = float(k)
    _check_modulus(k)
    K, E = _integrals(k)
    return EllipticPair(k=k, K=K, E=E)


def jacobi_sn_cn_dn(u, k):
    """sn(u, k), cn(u, k), dn(u, k) for real u (scalar or array).

    Descending Landen transformation with the arcsin backward recurrence;
    dn uses the amplitude-ratio form away from its removable 0/0 point and
    sqrt(1 - k^2 sn^2) near it.  Arguments are reduced modulo the full
    period 4K before the recurrence.
    """
    k = float(k)
    _check_modulus(k)
    u_arr = np.asarray(u, dtype=float)
    scalar = u_arr.ndim == 0
    u_arr = np.atleast_1d(u_arr)

    m = k * k
    if m < 1e-9:
        # small-modulus series; truncation error O(m^2) <= 1e-18
        s, c = np.sin(u_arr), np.cos(u_arr)
        corr = 0.25 * m * (u_arr - s * c)
        sn_v = s - corr * c
        cn_v = c + corr * s
        dn_v = 1.0 - 0.5 * m * s * s
    else:
        a_list, c_list, _ = _agm_levels(k)
        K = math.pi / (2.0 * a_list[-1])
        period = 4.0 * K
        x = u_arr - period * np.round(u_arr / period)

        n = len(a_list) - 1
        phi = (2.0**n) * a_list[-1] * x
        phi_prev = phi
        for i in range(n, 0, -1):
            t = np.clip(c_list[i] / a_list[i] * np.sin(phi), -1.0, 1.0)
            phi_prev = phi
            phi = 0.5 * (np.arcsin(t) + phi)
        sn_v = np.sin(phi)
        cn_v = np.cos(phi)
        dnfac = np.cos(phi - phi_prev)
        safe = np.abs(dnfac) >= 0.1
        dn_v = np.sqrt(np.maximum(1.0 - m * sn_v * sn_v, 0.0))
        dn_v = np.where(safe, np.divide(cn_v, np.where(safe, dnfac, 1.0)), dn_v)

    if scalar:
        return float(sn_v[0]), float(cn_v[0]), float(dn_v[0])
    return sn_v, cn_v, dn_v


def dn(u, k):
    """Jacobi dnoidal function; even, 2K-periodic, range [sqrt(1-k^2), 1]."""
    return jacobi_sn_cn_dn(u, k)[2]
