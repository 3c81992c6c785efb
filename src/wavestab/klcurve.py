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

`solve_branch` is the one branch kernel.  For an array of moduli it runs one
AGM loop (`complete_integrals` over the array), then the cubic's
coefficients, its Cardano roots, a Newton polish and p, each elementwise
over the whole array, and it is the only entry to the branch:
`branch_columns` makes one call per grid, and a single modulus is a grid of
one.  Every element of every step stops on its own, so a sweep row equals
`solve_branch` at its modulus bit for bit.
"""

import math

import numpy as np

from .elliptic import complete_integrals

__all__ = ["cubic_coefficients", "cubic_residual", "solve_branch", "p_of_k",
           "branch_columns", "sweep", "sign_change", "K_ANALYTIC", "CUBIC_RTOL"]

K_ANALYTIC = 1.0 / math.sqrt(2.0)  # modulus where the cubic's constant term vanishes
# times K^4, off the plain closed form of p; P_CORRECTION / 507 = 3584/3 (times
# K^4/L^4) off that of the dnoidal `a`, which only then solves the wave equation
P_CORRECTION = 605696.0
POLISH_RTOL = 4.0 * np.finfo(float).eps   # a Newton step this small is round-off
POLISH_MAX_ITER = 50
CUBIC_RTOL = 1e-10   # largest relative cubic residual (cubic_residual) of a branch root

# sign_change narrows the sign change of p in passes of solve_branch, each
# over 2**SIGN_CHANGE_HALVINGS equal parts of a window inside the bracket.
# The window reaches SIGN_CHANGE_WINDOW times the last term of an inverse
# cubic to each side of its root estimate, at least SIGN_CHANGE_MIN_ULPS
# ulps, until a pass finds the sign change outside it; from then on the
# window is the whole bracket.  No window is wider than the bracket and at
# most one pass misses, so SIGN_CHANGE_PASSES passes take a bracket in
# (0, 1) to two adjacent doubles, where the search stops.
SIGN_CHANGE_HALVINGS = 6
SIGN_CHANGE_PASSES = 10
SIGN_CHANGE_WINDOW = 8.0
SIGN_CHANGE_MIN_ULPS = 32


def cubic_coefficients(k, pair=None):
    K = (pair or complete_integrals(k)).K
    k2, K2 = k * k, K * K
    K4 = K2 * K2
    c0 = (89989120.0 / 31.0) * (k2 - 2.0) * (k2 - 0.5) * (k2 + 1.0) * (K4 * K2)
    c1 = -(908544.0 / 31.0) * (k2 * k2 - k2 + 1.0) * K4
    return c0, c1


def cubic_residual(k, L1):
    """Relative residual of the cubic at (k, L1)."""
    return _relative_residual(L1, *cubic_coefficients(k))


def _relative_residual(L1, c0, c1):
    """(L1^3 + c1 L1 + c0) / max(|L1^3|, |c1 L1|, |c0|, 1), elementwise."""
    cube, lin = L1**3, c1 * L1
    scale = np.maximum(np.maximum(np.abs(cube), np.abs(lin)), np.maximum(np.abs(c0), 1.0))
    return (cube + lin + c0) / scale


def _upper_roots(p, q):
    """The middle and top real roots of x^3 + p x + q = 0 for arrays p < 0
    and q, stacked on a new first axis.  The three roots sum to zero, so
    the lowest is never positive.  Where the cubic has one real root it is
    the top one (Cardano's form) and the middle is NaN."""
    h = 0.25 * q * q + p * p * p / 27.0
    sq = np.sqrt(np.maximum(h, 0.0))
    half_q = -0.5 * q
    cardano = np.cbrt(half_q + sq) + np.cbrt(half_q - sq)
    r = np.sqrt(-p / 3.0)
    phi = np.arccos(np.minimum(np.maximum(half_q / (r * r * r), -1.0), 1.0))
    middle = 2.0 * r * np.cos((phi + 4.0 * math.pi) / 3.0)
    top = 2.0 * r * np.cos(phi / 3.0)
    one = h > 0.0
    return np.array((np.where(one, np.nan, middle), np.where(one, cardano, top)))


def _polish(x, p, q):
    """Newton on x^3 + p x + q for every finite element of x at once.

    An element stops on its own, so its value does not depend on the rest
    of the array: once its step is at most POLISH_RTOL |x|, or no smaller
    than the step before (round-off, which is where an ill-conditioned root
    near a fold ends), or f' vanishes.
    """
    active = np.isfinite(x)
    last = np.full_like(x, np.inf)
    for _ in range(POLISH_MAX_ITER):
        xx = x * x
        fp = 3.0 * xx + p
        active &= fp != 0.0
        step = np.where(active, ((xx + p) * x + q) / np.where(active, fp, 1.0), 0.0)
        x = x - step
        size = np.abs(step)
        active &= (size > POLISH_RTOL * np.abs(x)) & (size < last)
        if not active.any():
            break
        last = size
    return x


def solve_branch(k):
    """The branch over an array of moduli in one pass: one AGM loop, the
    cubic, its roots, one Newton polish and p, all elementwise.

    Returns (L1, L, p, lower).  L1 is the largest positive root of the
    cubic, L = sqrt(L1) and p = p(k, L); all three are NaN where the branch
    does not reach k.  lower is the other positive root, NaN where there is
    none; two roots within 1e-9 relative are one (double) root.  A scalar k
    gives floats.  Raises ValueError unless 0 < k < 1, and ArithmeticError
    if a branch root misses the cubic by more than CUBIC_RTOL relative.
    """
    k_arr = np.asarray(k, dtype=float)
    if not ((0.0 < k_arr) & (k_arr < 1.0)).all():
        raise ValueError("modulus must lie in (0, 1)")
    # an array whatever the input, so a modulus runs the same loops alone or in a grid
    k1 = np.atleast_1d(k_arr)
    pair = complete_integrals(k1)
    c0, c1 = cubic_coefficients(k1, pair)
    middle, top = _polish(_upper_roots(c1, c0), c1, c0)
    # ordered, ignoring NaN: with one real root both are that root, and the
    # double-root test below drops the copy
    top, lower = np.fmax(middle, top), np.fmin(middle, top)
    L1 = np.where(top > 0.0, top, np.nan)
    lower = np.where((lower > 0.0) & (L1 - lower > 1e-9 * np.maximum(1.0, L1)),
                     lower, np.nan)
    _require_roots(k1, c0, c1, L1)
    L = np.sqrt(L1)
    p = p_of_k(k1, L, pair)
    if k_arr.ndim == 0:
        return float(L1[0]), float(L[0]), float(p[0]), float(lower[0])
    return L1, L, p, lower


def _require_roots(k, c0, c1, L1):
    """Raise ArithmeticError, naming the worst modulus, unless every branch
    root L1 (NaN where there is none) has a relative cubic residual within
    CUBIC_RTOL."""
    res = np.abs(_relative_residual(L1, c0, c1))
    # fmax skips the NaN of a missing root
    if np.fmax.reduce(res, initial=0.0) > CUBIC_RTOL:
        i = np.nanargmax(res)
        raise ArithmeticError(f"branch root with relative cubic residual "
                              f"{res[i]:.3g} > {CUBIC_RTOL:g} at k={float(k[i])!r}")


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
    `a` the mean of the wave that profile.build_dnoidal constructs.  k, L
    and the pair may be arrays of one shape."""
    pair = pair or complete_integrals(k)
    K, E = pair.K, pair.E
    L2 = L * L
    p = _closed_form_terms(k, L2, K, E) - 31.0 * L2 * L2
    p -= P_CORRECTION * K**4
    return p


def branch_columns(k_grid):
    """The branch over a grid as columns, from one solve_branch call.

    Returns (k, L1, L, p, stable): four float arrays, with L1 = L = p = NaN
    where the branch does not exist, and a list of stability flags, "no_root"
    there, else "1" where p > 0 (the wave average exceeds any positive speed
    by the gauge-invariant margin p/(507 L^4)) and "0" elsewhere.
    """
    ks = np.asarray(k_grid, dtype=float).reshape(-1)
    L1, L, p, _ = solve_branch(ks)
    stable = np.where(np.isnan(L1), "no_root", np.where(p > 0, "1", "0")).tolist()
    return ks, L1, L, p, stable


def sweep(k_grid):
    """One row per modulus: dict with k, L1, L, p, stable, from
    branch_columns; a row with no branch root carries L1 = L = p = None."""
    ks, L1, L, p, stable = branch_columns(k_grid)
    rows = []
    for k, L1_k, L_k, p_k, flag in zip(ks.tolist(), L1.tolist(), L.tolist(),
                                       p.tolist(), stable):
        if flag == "no_root":
            L1_k = L_k = p_k = None
        rows.append({"k": k, "L1": L1_k, "L": L_k, "p": p_k, "stable": flag})
    return rows


def _inverse_cubic(ks, ps):
    """The root of the polynomial k(p) through the points (ps, ks), in
    Newton's divided-difference form, and the size of its last term."""
    c = list(ks)
    for j in range(1, len(c)):
        for m in range(len(c) - 1, j - 1, -1):
            c[m] = (c[m] - c[m - 1]) / (ps[m] - ps[m - j])
    root, prod, term = c[0], 1.0, 0.0
    for m in range(1, len(c)):
        prod *= -ps[m - 1]
        term = c[m] * prod
        root += term
    return root, abs(term)


def sign_change(ks, ps):
    """Narrow the first sign change of p between the ascending branch points
    ks, where p takes the values ps, to two adjacent doubles.

    Returns (lo, hi, passes): p > 0 holds at one of lo, hi and not at the
    other, and passes counts the solve_branch calls.  (None, None, 0) if
    the sign of p never changes.
    """
    ks, ps = np.asarray(ks, dtype=float), np.asarray(ps, dtype=float)
    positive = ps > 0
    flips = np.flatnonzero(positive[1:] != positive[:-1])
    if not flips.size:
        return None, None, 0
    i = int(flips[0])
    lo_positive = positive[i]   # the sign at lo, which every bracket keeps
    passes, windowed = 0, True
    while passes < SIGN_CHANGE_PASSES:
        lo, hi = float(ks[i]), float(ks[i + 1])
        if math.nextafter(lo, hi) == hi:
            break
        a, b = lo, hi
        if windowed:
            # the bracket's ends, then their nearest neighbours of another p
            nodes = [i, i + 1]
            for m in (i - 1, i + 2):
                if 0 <= m < len(ks) and ps[m] not in ps[nodes]:
                    nodes.append(m)
            root, last = _inverse_cubic(ks[nodes].tolist(), ps[nodes].tolist())
            if math.isfinite(root) and math.isfinite(last):
                root = min(max(root, lo), hi)
                half = max(SIGN_CHANGE_WINDOW * last,
                           SIGN_CHANGE_MIN_ULPS * math.ulp(root))
                a, b = max(lo, root - half), min(hi, root + half)
        grid = np.linspace(a, b, 2**SIGN_CHANGE_HALVINGS + 1)[1:-1]
        grid = grid[(lo < grid) & (grid < hi)]
        ks = np.concatenate((ks[:i + 1], grid, ks[i + 1:]))
        ps = np.concatenate((ps[:i + 1], solve_branch(grid)[2], ps[i + 1:]))
        passes += 1
        # the first point past lo where the sign differs; hi's does
        i += int(np.argmax((ps[i + 1:i + grid.size + 2] > 0) != lo_positive))
        windowed = windowed and a <= ks[i] and ks[i + 1] <= b
    return float(ks[i]), float(ks[i + 1]), passes
