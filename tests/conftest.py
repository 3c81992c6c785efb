import math

import pytest

from wavestab.criteria import evaluate_wave
from wavestab.elliptic import complete_integrals
from wavestab.galerkin import _check_even_band, solve_variations
from wavestab.klcurve import solve_branch
from wavestab.multiplier import builtin_symbol
from wavestab.profile import build_dnoidal

# moduli with a branch root of the period constraint (fold sits near 0.5345)
BRANCH_MODULI = (0.6, 0.7, 0.8, 0.9)


@pytest.fixture(scope="session")
def kawahara():
    return builtin_symbol("kawahara")


@pytest.fixture(scope="session")
def branch_L():
    """Branch period L at each of BRANCH_MODULI."""
    Ls = {k: solve_branch(k)[1] for k in BRANCH_MODULI}
    assert not any(math.isnan(L) for L in Ls.values())
    return Ls


@pytest.fixture(scope="session")
def wave08(branch_L):
    """Reference wave: k = 0.8 on the branch, omega = 1."""
    params, psi = build_dnoidal(0.8, branch_L[0.8], 1.0, N=128)
    return params, psi


@pytest.fixture(scope="session")
def op08(wave08, kawahara):
    from wavestab.galerkin import assemble

    _, psi = wave08
    return assemble(psi, 1.0, kawahara, N=256)


@pytest.fixture(scope="session")
def variations08(op08):
    return checked_variations(op08)


def checked_variations(op):
    """Solve L eta = -psi and L beta = -1 in the even cosine subspace.

    The kernel of L is spanned by the odd function psi', so the even
    restriction is invertible at a clean wave; a singular even block, or an
    even eigenvalue in the zero band, raises DegenerateOperatorError.
    """
    eta, beta = solve_variations(op._rows(op.N + 1), op.psi)
    _check_even_band(op)
    return eta, beta


def galilean_shift(psi, omega, A, alpha):
    """Gauge map (psi, omega, A) -> (psi + alpha, omega + alpha, A - omega*alpha - alpha^2/2).

    Leaves the linearized operator (and hence its spectrum) unchanged and
    maps solutions of the traveling-wave equation to solutions.
    """
    return psi.shifted(alpha), omega + alpha, A - omega * alpha - 0.5 * alpha * alpha


def evaluate_dnoidal(k, omega, sym, N_profile=128, N_op=256):
    """Report for the explicit wave at modulus k on the period-constraint branch.

    Raises ValueError when the constraint has no branch root at k.  The
    wave's integration constant A is recomputed from the residual mean.
    """
    L = solve_branch(k)[1]
    if math.isnan(L):
        raise ValueError(f"period constraint has no branch root at k={k}")
    params, psi = build_dnoidal(k, L, omega, N=N_profile)
    report = evaluate_wave(psi, omega, sym=sym, N=N_op)
    return report, params, psi


def plain_dnoidal_a(k, L, omega):
    """The plain closed form of the dnoidal `a`, without the (3584/3) K^4/L^4
    correction that the library applies."""
    pair = complete_integrals(k)
    K, E = pair.K, pair.E
    L2 = L * L
    L4 = L2 * L2
    return (1.0 / (507.0 * L4)) * (
        (-(k**4) + k**2 + 1.0) * 302848.0 * K**4
        + 14560.0 * L2 * K**2 * (k**2 - 2.0)
        + 43680.0 * L2 * E * K
        + L4 * (-31.0 + 507.0 * omega)
    )


def plain_p(k, L):
    """The plain closed form of p = 507 L^4 (a - omega), uncorrected; its sign
    changes along the branch near k = 0.9218."""
    pair = complete_integrals(k)
    K, E = pair.K, pair.E
    L2 = L * L
    return (
        302848.0 * (-(k**4) + k**2 + 1.0) * K**4
        + 14560.0 * L2 * K**2 * (k**2 - 2.0)
        + 43680.0 * L2 * E * K
        - 31.0 * L2 * L2
    )


def complementary(k):
    """K and E at the complementary modulus k' = sqrt(1 - k^2), k > 0."""
    return complete_integrals(math.sqrt((1.0 - k) * (1.0 + k)))


def legendre_residual(k):
    """E K' + E' K - K K' - pi/2 with K' = K(k'), E' = E(k'); zero in exact
    arithmetic, and the `legendre` residual of elliptic.identity_battery."""
    pair, comp = complete_integrals(k), complementary(k)
    return pair.E * comp.K + comp.E * pair.K - pair.K * comp.K - math.pi / 2
