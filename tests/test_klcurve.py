import math

import numpy as np
import pytest
from scipy.optimize import brentq

from wavestab import cli, elliptic, klcurve
from wavestab.cli import main
from wavestab.elliptic import complete_integrals
from wavestab.klcurve import (
    K_ANALYTIC,
    cubic_coefficients,
    cubic_residual,
    p_of_k,
    solve_branch,
    sweep,
)
from wavestab.profile import build_dnoidal, dnoidal_coefficients
from conftest import plain_dnoidal_a, plain_p


def _cubic(k):
    c0, c1 = cubic_coefficients(k)
    return lambda x: x**3 + c1 * x + c0


def test_analytic_point_closed_form():
    L1 = solve_branch(K_ANALYTIC)[0]
    K = complete_integrals(K_ANALYTIC).K
    closed = math.sqrt((908544.0 / 31.0) * 0.75) * K * K
    assert L1 == pytest.approx(closed, rel=1e-12)
    assert abs(cubic_residual(K_ANALYTIC, L1)) < 1e-12


def test_bisection_oracle_agreement():
    # independent oracle: bracketing bisection around each reported root
    for k in (0.6, 0.75, 0.9):
        L1 = solve_branch(k)[0]
        f = _cubic(k)
        lo, hi = 0.9 * L1, 1.1 * L1
        assert f(lo) * f(hi) < 0
        oracle = brentq(f, lo, hi, xtol=1e-12, rtol=1e-14)
        assert L1 == pytest.approx(oracle, rel=1e-10)
    # and on a whole grid, at the accuracy of the array kernel's polish
    for row in sweep(np.linspace(0.54, 0.99, 200)):
        f = _cubic(row["k"])
        lo, hi = 0.9 * row["L1"], 1.1 * row["L1"]
        assert f(lo) * f(hi) < 0, row["k"]
        oracle = brentq(f, lo, hi, xtol=1e-13, rtol=1e-15)
        assert row["L1"] == pytest.approx(oracle, rel=1e-13), row["k"]


def test_global_scan_k09():
    # single positive root for k > 1/sqrt(2): one sign change on [1e-6, 1e6]
    f = _cubic(0.9)
    grid = np.logspace(-6, 6, 400)
    signs = np.sign([f(x) for x in grid])
    changes = np.nonzero(np.diff(signs))[0]
    assert len(changes) == 1
    oracle = brentq(f, grid[changes[0]], grid[changes[0] + 1], rtol=1e-14)
    assert solve_branch(0.9)[0] == pytest.approx(oracle, rel=1e-10)


def test_no_root_below_fold():
    # at k = 0.5 the cubic is positive on the whole positive axis
    assert all(math.isnan(x) for x in solve_branch(0.5))
    f = _cubic(0.5)
    assert min(f(x) for x in np.logspace(-6, 6, 400)) > 0


def test_two_roots_below_analytic_point():
    L1, _, _, lower = solve_branch(0.6)
    # the smooth branch through 1/sqrt(2) is the larger root here
    assert 0.0 < lower < L1


def test_sweep_residuals_and_continuity():
    grid = np.linspace(0.54, 0.99, 120)
    rows = sweep(grid)
    withroot = [r for r in rows if r["L1"] is not None]
    assert len(withroot) == len(rows)
    for r in withroot:
        assert abs(cubic_residual(r["k"], r["L1"])) < 1e-10
    L1s = np.array([r["L1"] for r in withroot])
    diffs = np.diff(L1s)
    assert np.all(diffs > 0)              # monotone on this branch
    assert np.abs(diffs / L1s[:-1]).max() < 0.15  # no branch jumping


def test_p_consistency_with_profile_coefficients():
    rng = np.random.default_rng(12)
    for _ in range(100):
        k = rng.uniform(0.05, 0.95)
        L = rng.uniform(5.0, 40.0)
        w = rng.uniform(0.1, 3.0)
        for a, p in ((dnoidal_coefficients(k, L, w)[0], p_of_k(k, L)),
                     (plain_dnoidal_a(k, L, w), plain_p(k, L))):
            lhs = a - w
            rhs = p / (507.0 * L**4)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def test_sweep_markers_and_edge_cases():
    rows = sweep([0.5])
    assert rows[0]["stable"] == "no_root" and rows[0]["L1"] is None
    rows = sweep([0.8])
    assert rows[0]["L1"] == pytest.approx(solve_branch(0.8)[0], rel=1e-14)
    assert sweep([]) == []
    # a grid row is the single-modulus answer bit for bit, on and off the branch
    for row in sweep(np.linspace(0.05, 0.99, 200)):
        L1, L, p, _ = solve_branch(row["k"])
        if math.isnan(L1):
            assert row["stable"] == "no_root", row["k"]
        else:
            assert (row["L1"], row["L"], row["p"]) == (L1, L, p), row["k"]


def test_positive_p_region_and_sign_change():
    rows = sweep(np.linspace(0.54, 0.99, 90))
    ps = [r["p"] for r in rows]
    assert any(p > 0 for p in ps)
    assert any(p < 0 for p in ps)

    def p_on_branch(k):
        return solve_branch(k)[2]

    k_star = brentq(p_on_branch, 0.8, 0.9, xtol=1e-10)
    # recorded location of the sign change for the corrected p
    assert k_star == pytest.approx(0.8489078546965656, abs=1e-6)

    def p_uncorrected(k):
        return plain_p(k, solve_branch(k)[1])

    k_star_uncorrected = brentq(p_uncorrected, 0.9, 0.95, xtol=1e-10)
    assert k_star_uncorrected == pytest.approx(0.9218, abs=1e-3)


def test_domain_validation():
    with pytest.raises(ValueError):
        solve_branch(0.0)
    with pytest.raises(ValueError):
        solve_branch(1.0)


def _walk_branch(k_target, step=2e-3):
    """Reference: continue the branch from k = 1/sqrt(2) to k_target in
    `step` increments, taking the nearest positive root at each step;
    None where no root is left or the nearest one jumps by more than 25%."""
    k0 = K_ANALYTIC
    L1 = math.sqrt((908544.0 / 31.0) * 0.75) * complete_integrals(k0).K ** 2
    if abs(k_target - k0) < 1e-14:
        return L1
    nsteps = max(1, int(math.ceil(abs(k_target - k0) / step)))
    for i in range(1, nsteps + 1):
        L1_k, _, _, lower = solve_branch(k0 + (k_target - k0) * (i / nsteps))
        roots = [x for x in (lower, L1_k) if not math.isnan(x)]
        if not roots:
            return None
        L1_next = min(roots, key=lambda x: abs(x - L1))
        if abs(L1_next - L1) > 0.25 * max(L1, 1.0):
            return None
        L1 = L1_next
    return L1


def test_larger_root_matches_continuation_oracle():
    # the fold sits near 0.5345; the walk's jump guard misfires above ~0.9987
    grid = np.concatenate([np.linspace(0.30, 0.998, 1000),
                           np.linspace(0.534, 0.535, 201)])
    missing = 0
    for k in grid:
        L1 = solve_branch(k)[0]
        walked = _walk_branch(k)
        assert math.isnan(L1) == (walked is None), k
        if walked is None:
            missing += 1
        else:
            assert L1 == walked, k
    assert 0 < missing < len(grid)


def test_branch_reaches_k_near_one(tmp_path):
    # exactly one positive root above 1/sqrt(2), also where K(k) grows fast
    rows = sweep([0.999, 0.9999, 0.999999])
    for r in rows:
        assert r["stable"] != "no_root", r["k"]
        assert abs(cubic_residual(r["k"], r["L1"])) < 1e-10
    assert main(["profile", "--k", "0.999", "--out", str(tmp_path / "p.csv")]) == 0


def test_branch_work_budget(monkeypatch, tmp_path):
    # one array pass of the branch kernel, and one AGM loop, per grid: the
    # sweep grid, plus one per 64-way split of the sign-change bracket
    calls, passes = [], []

    def counted(k, _fn=klcurve.solve_branch):
        calls.append(np.size(k))
        return _fn(k)

    def counted_agm(k, _fn=elliptic._agm_levels):
        passes.append(np.size(k))
        return _fn(k)

    monkeypatch.setattr(klcurve, "solve_branch", counted)
    monkeypatch.setattr(cli, "solve_branch", counted)
    monkeypatch.setattr(elliptic, "_agm_levels", counted_agm)
    assert main(["sweep", "--steps", "200", "--out", str(tmp_path / "s.csv")]) == 0
    assert calls == passes == [200]
    calls.clear()
    passes.clear()
    assert main(["reproduce-figure1", "--steps", "200",
                 "--out-L1", str(tmp_path / "L1.csv"),
                 "--out-p", str(tmp_path / "p.csv"),
                 "--record-out", str(tmp_path / "r.json")]) == 0
    # the search stops at adjacent doubles: p changes sign in [0.5, 1), where
    # doubles are 2**-53 apart, so a bracket there takes at most 53 halvings,
    # which is 9 splits into 64
    assert calls == passes
    assert calls[0] == 200 and set(calls[1:]) == {63}
    assert len(calls) <= 1 + 9


@pytest.mark.parametrize("case", ["sweep200", "solve_branch"])
def test_sweep_timing(benchmark, case):
    # layer timing of the branch kernel; the time is reported, never asserted
    if case == "sweep200":
        grid = np.linspace(0.55, 0.95, 200)
        rows = benchmark.pedantic(sweep, args=(grid,), rounds=20, iterations=1)
        assert len(rows) == 200 and all(r["stable"] != "no_root" for r in rows)
    else:
        out = benchmark.pedantic(solve_branch, args=(0.8,), rounds=20, iterations=5)
        assert repr(out) == repr(solve_branch(0.8))


def test_build_dnoidal_makes_two_agm_passes(monkeypatch):
    # K and E once, then the dn samples; the complementary modulus is not read
    L = solve_branch(0.8)[1]
    passes = []

    def counted_agm(k, _fn=elliptic._agm_levels):
        passes.append(k)
        return _fn(k)

    monkeypatch.setattr(elliptic, "_agm_levels", counted_agm)
    build_dnoidal(0.8, L, 1.0)
    assert passes == [0.8, 0.8]


@pytest.mark.parametrize("k", [0.3, 0.6, K_ANALYTIC, 0.8, 0.999999])
def test_solve_L1_float_and_numpy_scalar_agree(k):
    # solving for the branch root L1 (and L, p, lower) from a float or from a
    # numpy scalar gives the same four Python floats; repr equates the NaNs
    out = solve_branch(float(k))
    np_out = solve_branch(np.float64(k))
    assert repr(np_out) == repr(out)
    assert all(type(x) is float for x in out + np_out)
