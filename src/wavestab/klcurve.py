"""The implicit (k, L) period constraint and the quantities plotted in its sweep.

In L1 = L^2 the constraint is a depressed cubic

    L1^3 + c1(k) L1 + c0(k) = 0,
    c0 = (89989120/31)(k^2-2)(k^2-1/2)(k^2+1) K^6,
    c1 = -(908544/31)(k^4-k^2+1) K^4.

At k = 1/sqrt(2) the constant term vanishes and the positive root is
L1 = sqrt((908544/31)(3/4)) K^2 in closed form.  The smooth branch is
followed by continuation from that point, taking the nearest positive root
at each step; it exists on roughly (0.5345, 1), with two positive roots
below 1/sqrt(2) (the branch is the larger) and one above.
"""

import math
from dataclasses import dataclass, field

from .elliptic import complete_integrals

__all__ = ["KLPoint", "cubic_coefficients", "cubic_residual", "positive_roots",
           "solve_L1", "p_of_k", "sweep", "K_ANALYTIC"]

K_ANALYTIC = 1.0 / math.sqrt(2.0)  # modulus where the cubic's constant term vanishes
_WALK_STEP = 2e-3
P_CORRECTION = 605696.0  # times K^4; see profile.dnoidal_coefficients


@dataclass(frozen=True)
class KLPoint:
    k: float
    L1: float
    L: float
    residual: float          # relative cubic residual at (k, L1)
    p_value: float           # p(k, L1); sign decides the average-vs-speed test
    all_roots: tuple = field(default=())


def cubic_coefficients(k):
    K = complete_integrals(k).K
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


def positive_roots(k):
    """All positive roots of the cubic at modulus k, ascending, polished."""
    c0, c1 = cubic_coefficients(k)
    roots = [_polish(x, c1, c0) for x in _real_roots_depressed(c1, c0)]
    out = sorted(x for x in roots if x > 0.0)
    dedup = []
    for x in out:
        if not dedup or abs(x - dedup[-1]) > 1e-9 * max(1.0, x):
            dedup.append(x)
    return dedup


def _analytic_start():
    K = complete_integrals(K_ANALYTIC).K
    return math.sqrt((908544.0 / 31.0) * 0.75) * K * K


def _walk_branch(k_target):
    """Follow the smooth branch from k = 1/sqrt(2) to k_target.

    Returns the branch value of L1 at k_target, or None if the branch does
    not extend there (no positive root close to the continued value).
    """
    k0 = K_ANALYTIC
    L1 = _analytic_start()
    if abs(k_target - k0) < 1e-14:
        return L1
    nsteps = max(1, int(math.ceil(abs(k_target - k0) / _WALK_STEP)))
    for i in range(1, nsteps + 1):
        k = k0 + (k_target - k0) * (i / nsteps)
        roots = positive_roots(k)
        if not roots:
            return None
        L1_next = min(roots, key=lambda x: abs(x - L1))
        if abs(L1_next - L1) > 0.25 * max(L1, 1.0):
            return None  # jump too large: continuity lost (past the fold)
        L1 = L1_next
    return L1


def solve_L1(k, corrected=True):
    """Branch point of the constraint at modulus k.

    Returns (KLPoint or None, all_positive_roots).  None means the smooth
    branch through k = 1/sqrt(2) does not extend to this modulus (for this
    cubic: every k below the fold near 0.5345); the full positive-root set
    is still reported.
    """
    if not (0.0 < k < 1.0):
        raise ValueError("modulus must lie in (0, 1)")
    roots = tuple(positive_roots(k))
    L1 = _walk_branch(k)
    if L1 is None:
        return None, roots
    L = math.sqrt(L1)
    point = KLPoint(
        k=float(k),
        L1=L1,
        L=L,
        residual=cubic_residual(k, L1),
        p_value=p_of_k(k, L, corrected=corrected),
        all_roots=roots,
    )
    return point, roots


def p_of_k(k, L, corrected=True):
    """The omega-independent combination p with  a - omega = p / (507 L^4).

    corrected=True applies the same constant fix as the profile module's
    `a` (shift by -605696 K^4), keeping p/(507 L^4) equal to the mean of
    the actually-constructed wave minus the speed.
    """
    pair = complete_integrals(k)
    K, E = pair.K, pair.E
    L2 = L * L
    p = (
        302848.0 * (-(k**4) + k**2 + 1.0) * K**4
        + 14560.0 * L2 * K**2 * (k**2 - 2.0)
        + 43680.0 * L2 * E * K
        - 31.0 * L2 * L2
    )
    if corrected:
        p -= P_CORRECTION * K**4
    return p


def sweep(k_grid, corrected=True):
    """One row per modulus: dict with k, L1, L, p, stable.

    Rows where the branch does not exist carry L1 = L = p = None and
    stable = "no_root".  The stability flag is the sign of p (positive
    means wave average exceeds any positive speed by the gauge-invariant
    margin p/(507 L^4)).
    """
    rows = []
    for k in k_grid:
        point, _ = solve_L1(k, corrected=corrected)
        if point is None:
            rows.append({"k": float(k), "L1": None, "L": None, "p": None,
                         "stable": "no_root"})
        else:
            rows.append({"k": float(k), "L1": point.L1, "L": point.L,
                         "p": point.p_value,
                         "stable": "1" if point.p_value > 0 else "0"})
    return rows
