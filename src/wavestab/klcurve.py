"""The implicit (k, L) period constraint and the quantities plotted in its sweep.

In L1 = L^2 the constraint is a depressed cubic

    L1^3 + c1(k) L1 + c0(k) = 0,
    c0 = (89989120/31)(k^2-2)(k^2-1/2)(k^2+1) K^6,
    c1 = -(908544/31)(k^4-k^2+1) K^4.

At k = 1/sqrt(2) the constant term vanishes and the positive root is
L1 = sqrt((908544/31)(3/4)) K^2 in closed form.  The smooth branch through
that point (the Implicit Function Theorem family) is the larger positive
root, by Vieta's formulas: the three roots sum to zero, so at most two are
positive.  Above 1/sqrt(2), c0 < 0 and exactly one root is positive.  Below
it, c0 > 0 and there are zero or two; at 1/sqrt(2) the roots are 0 and
+-sqrt(-c1), and the branch is +sqrt(-c1).  The two positive roots can
swap order only by colliding, which is the fold near k = 0.5345, so the
branch stays the larger root on (0.5345, 1) and does not exist below.

`solve_L1` makes one AGM pass per modulus: it computes K and E once, in
Python floats, and hands the EllipticPair to the cubic, its roots and p.
Called without a pair, those functions compute their own.
"""

import math
from dataclasses import dataclass

from .elliptic import complete_integrals

__all__ = ["KLPoint", "cubic_coefficients", "cubic_residual", "positive_roots",
           "solve_L1", "p_of_k", "sweep", "K_ANALYTIC"]

K_ANALYTIC = 1.0 / math.sqrt(2.0)  # modulus where the cubic's constant term vanishes
# times K^4, off the plain closed form of p; P_CORRECTION / 507 = 3584/3 (times
# K^4/L^4) off that of the dnoidal `a`, which only then solves the wave equation
P_CORRECTION = 605696.0


@dataclass(frozen=True)
class KLPoint:
    k: float
    L1: float
    L: float
    p_value: float           # p(k, L1); sign decides the average-vs-speed test


def cubic_coefficients(k, pair=None):
    K = (pair or complete_integrals(k)).K
    c0 = (89989120.0 / 31.0) * (k**2 - 2.0) * (k**2 - 0.5) * (k**2 + 1.0) * K**6
    c1 = -(908544.0 / 31.0) * (k**4 - k**2 + 1.0) * K**4
    return c0, c1


def cubic_residual(k, L1):
    """Relative residual of the cubic at (k, L1)."""
    c0, c1 = cubic_coefficients(k)
    f = L1**3 + c1 * L1 + c0
    scale = max(abs(L1**3), abs(c1 * L1), abs(c0), 1.0)
    return f / scale


def _real_roots_depressed(p, q):
    """Real roots of x^3 + p x + q = 0 (Cardano / trigonometric form)."""
    h = 0.25 * q * q + p**3 / 27.0
    if h > 0.0:
        sq = math.sqrt(h)
        u = math.copysign(abs(-0.5 * q + sq) ** (1.0 / 3.0), -0.5 * q + sq)
        v = math.copysign(abs(-0.5 * q - sq) ** (1.0 / 3.0), -0.5 * q - sq)
        return [u + v]
    r = math.sqrt(-p / 3.0)
    arg = max(-1.0, min(1.0, -0.5 * q / r**3))
    phi = math.acos(arg)
    return [2.0 * r * math.cos((phi + 2.0 * math.pi * j) / 3.0) for j in range(3)]


def _polish(x, p, q):
    for _ in range(50):
        f = x**3 + p * x + q
        fp = 3.0 * x * x + p
        if fp == 0.0:
            break
        step = f / fp
        x -= step
        if abs(step) <= 1e-16 * abs(x):
            break
    return x


def positive_roots(k, pair=None):
    """All positive roots of the cubic at modulus k, ascending, polished."""
    c0, c1 = cubic_coefficients(k, pair)
    roots = [_polish(x, c1, c0) for x in _real_roots_depressed(c1, c0)]
    out = sorted(x for x in roots if x > 0.0)
    dedup = []
    for x in out:
        if not dedup or abs(x - dedup[-1]) > 1e-9 * max(1.0, x):
            dedup.append(x)
    return dedup


def solve_L1(k):
    """Branch point of the constraint at modulus k: the largest positive root.

    Returns (KLPoint or None, all_positive_roots).  None means the smooth
    branch through k = 1/sqrt(2) does not extend to this modulus (for this
    cubic: every k below the fold near 0.5345); the full positive-root set
    is still reported.  k is taken as a Python float, so an np.float64 grid
    point costs no numpy scalar arithmetic.
    """
    k = float(k)
    if not (0.0 < k < 1.0):
        raise ValueError("modulus must lie in (0, 1)")
    pair = complete_integrals(k)
    roots = tuple(positive_roots(k, pair))
    if not roots:
        return None, roots
    L1 = roots[-1]
    L = math.sqrt(L1)
    return KLPoint(k=k, L1=L1, L=L, p_value=p_of_k(k, L, pair)), roots


def _closed_form_terms(k, L2, K, E):
    """The (k, L) part shared by p and the dnoidal `a`, summed left to right:
    302848 (-k^4 + k^2 + 1) K^4 + 14560 L^2 K^2 (k^2 - 2) + 43680 L^2 E K."""
    return (
        302848.0 * (-(k**4) + k**2 + 1.0) * K**4
        + 14560.0 * L2 * K**2 * (k**2 - 2.0)
        + 43680.0 * L2 * E * K
    )


def p_of_k(k, L, pair=None):
    """The omega-independent combination p with  a - omega = p / (507 L^4),
    `a` the mean of the wave that profile.build_dnoidal constructs."""
    pair = pair or complete_integrals(k)
    K, E = pair.K, pair.E
    L2 = L * L
    p = _closed_form_terms(k, L2, K, E) - 31.0 * L2 * L2
    p -= P_CORRECTION * K**4
    return p


def sweep(k_grid):
    """One row per modulus: dict with k, L1, L, p, stable.

    Rows where the branch does not exist carry L1 = L = p = None and
    stable = "no_root".  The stability flag is the sign of p (positive
    means wave average exceeds any positive speed by the gauge-invariant
    margin p/(507 L^4)).
    """
    rows = []
    for k in k_grid:
        point, _ = solve_L1(k)
        if point is None:
            rows.append({"k": float(k), "L1": None, "L": None, "p": None,
                         "stable": "no_root"})
        else:
            rows.append({"k": float(k), "L1": point.L1, "L": point.L,
                         "p": point.p_value,
                         "stable": "1" if point.p_value > 0 else "0"})
    return rows
