"""Complete elliptic integrals and Jacobi elliptic functions.

Self-contained kernels: the arithmetic-geometric mean for K(k) and E(k),
and the descending Landen (Gauss) transformation for sn, cn, dn.  Both
converge quadratically, so machine precision is reached in < 10 levels
for any admissible modulus.  No special-function library is used.
`_agm_levels` is the one AGM loop: it runs a whole array of moduli at once,
each element stopping on its own, so a modulus gets the same K and E alone
or in a grid.  `complete_integrals` takes a modulus or an array of them;
the complementary pair K(k'), E(k') costs a second loop, made only when it
is read.  `jacobi_sn_cn_dn` reads the levels of a one-element loop.

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
    K diverges; Kp is +inf there.  For an array of moduli every field is an
    array of the same shape.
    """

    k: float
    K: float
    E: float

    @cached_property
    def _complementary(self):
        kp = np.sqrt((1.0 - self.k) * (1.0 + self.k))
        # k == 0 (or denormal-close): complementary integral diverges
        far = kp > MODULUS_CAP
        K, E = _integrals(np.where(far, 0.0, kp))
        K, E = np.where(far, math.inf, K), np.where(far, 1.0, E)
        return _like(self.k, K), _like(self.k, E)

    @property
    def Kp(self):
        return self._complementary[0]

    @property
    def Ep(self):
        return self._complementary[1]

    def legendre_residual(self):
        """E*Kp + Ep*K - K*Kp - pi/2; zero in exact arithmetic."""
        return self.E * self.Kp + self.Ep * self.K - self.K * self.Kp - math.pi / 2


def _like(k, values):
    """values as a float when the modulus k is a scalar, else as an array."""
    return float(values) if np.ndim(k) == 0 else values


def _check_modulus(k):
    k = np.asarray(k)
    bad = ~((0.0 <= k) & (k <= MODULUS_CAP))   # NaN is bad too
    if bad.any():
        raise EllipticDomainError(
            f"modulus k={float(k[bad].flat[0])!r} outside [0, {MODULUS_CAP}]"
        )


def _agm_levels(k):
    """Descending AGM passes from (1, k', k), one per element of the 1-d
    float array k; assumes 0 <= k <= MODULUS_CAP.

    Every element runs until the last one has stopped, and element j stops
    at the first level n_j with |c| <= AGM_TOL a, so its values are those of
    a pass made alone.  Returns the levels a_i, c_i of the Landen backward
    recurrence as the rows of two 2-d arrays, n, and a_n and csum_n with
    csum_n = sum_{i <= n} 2^{i-1} c_i^2 summed in level order; K = pi / (2 a_n)
    and E = K (1 - csum_n).
    """
    a, b, c = np.ones_like(k), np.sqrt((1.0 - k) * (1.0 + k)), k
    a_rows, c_rows = [a], [c]
    for _ in range(AGM_MAX_ITER):
        if (np.abs(c) <= AGM_TOL * a).all():
            break
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        a_rows.append(a)
        c_rows.append(c)
    a_levels, c_levels = np.array(a_rows), np.array(c_rows)
    done = np.abs(c_levels) <= AGM_TOL * a_levels
    n = np.where(done.any(0), done.argmax(0), len(a_rows) - 1)
    weight = np.ldexp(0.5, np.arange(len(a_rows)))[:, None]   # 2^{i-1}
    csum = np.cumsum(weight * c_levels * c_levels, axis=0)
    cols = np.arange(k.size)
    return a_levels, c_levels, n, a_levels[n, cols], csum[n, cols]


def _integrals(k):
    """(K, E) from one AGM pass per element of the float array k; assumes
    0 <= k <= MODULUS_CAP."""
    *_, a_n, csum = _agm_levels(k.ravel())
    K = math.pi / (2.0 * a_n)
    return K.reshape(k.shape), (K * (1.0 - csum)).reshape(k.shape)


def complete_integrals(k):
    """Complete elliptic integrals of the first and second kind.

    Returns an EllipticPair with K(k), E(k), and K(k'), E(k') on demand.
    k may be a scalar or an array of moduli; all of them share one AGM loop,
    plus one more if Kp or Ep is read.  Accuracy is machine precision (AGM
    fixed point).  Raises EllipticDomainError for k < 0 or k > 1 - 1e-12.
    """
    k_arr = np.asarray(k, dtype=float)
    _check_modulus(k_arr)
    K, E = _integrals(k_arr)
    return EllipticPair(k=_like(k_arr, k_arr), K=_like(k_arr, K), E=_like(k_arr, E))


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
        a_levels, c_levels, (n,), *_ = _agm_levels(np.array([k]))
        a_list, c_list = a_levels[: n + 1, 0].tolist(), c_levels[: n + 1, 0].tolist()
        K = math.pi / (2.0 * a_list[-1])
        period = 4.0 * K
        x = u_arr - period * np.round(u_arr / period)

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
