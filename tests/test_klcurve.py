import json
import math
import re

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


def test_solve_branch_refuses_a_root_off_the_cubic(monkeypatch):
    # every branch root is checked against CUBIC_RTOL; a root moved by 1e-7
    # relative at the last modulus (its residual about 1e-7) is refused, by
    # name, alone or in a grid
    grid = np.linspace(0.5, 0.9, 41)   # no branch below the fold
    polish = klcurve._polish

    def off_at_last(x, p, q):
        x = polish(x, p, q)
        x[:, -1] *= 1.0 + 1e-7
        return x

    solve_branch(grid)
    monkeypatch.setattr(klcurve, "_polish", off_at_last)
    for ks in (grid, grid[-1]):
        with pytest.raises(ArithmeticError, match=re.escape(f"at k={grid[-1].item()!r}") + "$"):
            solve_branch(ks)


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


def _walk_branches(k_targets, step=2e-3):
    """_walk_branch for every target at once: step i takes the i-th point of
    every walk still running, all in one solve_branch call."""
    k0 = K_ANALYTIC
    kt = np.asarray(k_targets, dtype=float)
    L1 = np.full(kt.shape, math.sqrt((908544.0 / 31.0) * 0.75)
                 * complete_integrals(k0).K ** 2)
    nsteps = np.maximum(1, np.ceil(np.abs(kt - k0) / step)).astype(int)
    nsteps[np.abs(kt - k0) < 1e-14] = 0
    running = nsteps > 0
    for i in range(1, nsteps.max(initial=0) + 1):
        running &= i <= nsteps
        idx = np.flatnonzero(running)
        top, _, _, lower = solve_branch(k0 + (kt[idx] - k0) * (i / nsteps[idx]))
        prev = L1[idx]
        # the nearest root; on a tie the lower, which min() meets first
        take_lower = ~np.isnan(lower) & ~(np.abs(top - prev) < np.abs(lower - prev))
        nearest = np.where(take_lower, lower, top)
        ok = ~np.isnan(nearest) & ~(np.abs(nearest - prev)
                                    > 0.25 * np.maximum(prev, 1.0))
        L1[idx] = np.where(ok, nearest, np.nan)
        running[idx[~ok]] = False
    return [None if math.isnan(x) else x for x in L1.tolist()]


def test_batched_walk_matches_scalar_walk():
    targets = np.concatenate([np.linspace(0.30, 0.998, 12),
                              np.linspace(0.534, 0.535, 8), [K_ANALYTIC]])
    batched = _walk_branches(targets)
    assert sum(x is None for x in batched) not in (0, len(targets))
    for k, walked in zip(targets, batched):
        assert repr(walked) == repr(_walk_branch(k)), k


def test_larger_root_matches_continuation_oracle():
    # the fold sits near 0.5345; the walk's jump guard misfires above ~0.9987
    grid = np.concatenate([np.linspace(0.30, 0.998, 1000),
                           np.linspace(0.534, 0.535, 201)])
    missing = 0
    for k, walked in zip(grid, _walk_branches(grid)):
        L1 = solve_branch(k)[0]
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
    # sweep grid, then each pass of the sign-change search
    calls, passes, points = [], [], []

    def counted(k, _fn=klcurve.solve_branch):
        calls.append(np.size(k))
        out = _fn(k)
        points.append((np.atleast_1d(k).tolist(), np.atleast_1d(out[2]).tolist()))
        return out

    def counted_agm(k, _fn=elliptic._agm_levels):
        passes.append(np.size(k))
        return _fn(k)

    monkeypatch.setattr(klcurve, "solve_branch", counted)
    monkeypatch.setattr(elliptic, "_agm_levels", counted_agm)
    assert main(["sweep", "--steps", "200", "--out", str(tmp_path / "s.csv")]) == 0
    assert calls == passes == [200]
    calls.clear()
    passes.clear()
    points.clear()
    assert main(["reproduce-figure1", "--steps", "200",
                 "--out-L1", str(tmp_path / "L1.csv"),
                 "--out-p", str(tmp_path / "p.csv"),
                 "--record-out", str(tmp_path / "r.json")]) == 0
    record = json.loads((tmp_path / "r.json").read_text())
    assert repr(record["p_sign_change_k"]) == "0.8489078546965656"
    # the interpolated windows reach adjacent doubles in at most 3 passes
    assert calls == passes
    assert calls[0] == 200 and 1 <= len(calls) - 1 <= 3
    assert record["sign_change_passes"] == len(calls) - 1
    # each pass solves at most 63 moduli, all strictly inside the bracket
    # that the moduli solved before it leave
    known = {k: p for k, p in zip(*points[0]) if not math.isnan(p)}
    for ks, ps in points[1:]:
        K = sorted(known)
        i = next(i for i in range(len(K) - 1)
                 if (known[K[i]] > 0) != (known[K[i + 1]] > 0))
        assert 0 < len(ks) <= 63 and all(K[i] < k < K[i + 1] for k in ks)
        known.update(zip(ks, ps))


def _even_split_sign_change(ks, ps):
    """Reference: the first sign change of p narrowed by splitting the whole
    bracket into 64 equal parts per pass, until it is two adjacent doubles."""
    for i in range(len(ks) - 1):
        if (ps[i] > 0) != (ps[i + 1] > 0):
            lo, hi = ks[i], ks[i + 1]
            for _ in range(klcurve.SIGN_CHANGE_PASSES):
                if np.nextafter(lo, hi) == hi:
                    break
                grid = np.linspace(lo, hi, 2**klcurve.SIGN_CHANGE_HALVINGS + 1)
                flipped = (solve_branch(grid[1:-1])[2] > 0) != (ps[i] > 0)
                j = int(np.argmax(np.append(flipped, True)))  # hi has flipped
                lo, hi = float(grid[j]), float(grid[j + 1])
            return 0.5 * (lo + hi)
    return None


def test_sign_change_matches_even_split_oracle():
    # seeded grids; the first 20 are coarse (3 to 10 steps), where the first
    # window can miss and the search falls back to the even split
    rng = np.random.default_rng(18)
    found = []
    for t in range(130):
        steps = int(rng.integers(3, 11 if t < 20 else 1001))
        grid = np.linspace(rng.uniform(0.05, 0.8), rng.uniform(0.86, 0.99), steps)
        rows = [r for r in sweep(grid) if r["p"] is not None]
        ks, ps = [r["k"] for r in rows], [r["p"] for r in rows]
        lo, hi, n = klcurve.sign_change(ks, ps)
        k_star = None if lo is None else 0.5 * (lo + hi)
        assert repr(k_star) == repr(_even_split_sign_change(ks, ps)), grid
        assert n <= klcurve.SIGN_CHANGE_PASSES
        if lo is not None:
            assert math.nextafter(lo, hi) == hi
            assert (solve_branch(lo)[2] > 0) != (solve_branch(hi)[2] > 0)
            found.append(n)
    assert len(found) >= 100
    assert max(found) > 3   # some window missed


@pytest.mark.parametrize("p", [lambda k: (k - 0.8489) ** 3,
                               lambda k: np.where(k < 0.8489, k - 0.8489, 1e6 * (k - 0.8489)),
                               lambda k: np.where(k < 0.8489, -1.0, 1.0)],
                         ids=["triple_root", "kink", "jump"])
def test_sign_change_falls_back_to_even_split(monkeypatch, p):
    # p where the inverse cubic misses: once a window misses, the even split
    # still ends at two adjacent doubles within SIGN_CHANGE_PASSES passes
    monkeypatch.setattr(klcurve, "solve_branch", lambda k: (None, None, p(k), None))
    ks = np.linspace(0.6, 0.95, 8)
    lo, hi, n = klcurve.sign_change(ks, p(ks))
    assert math.nextafter(lo, hi) == hi and (p(lo) > 0) != (p(hi) > 0)
    assert n <= klcurve.SIGN_CHANGE_PASSES


@pytest.mark.parametrize("case", ["sweep200", "solve_branch", "figure200", "write200"])
def test_sweep_timing(benchmark, case, tmp_path):
    # layer timing of the branch kernel, of the figure and of the 200-row
    # sweep body's formatting and write; the time is reported, never asserted
    if case == "sweep200":
        grid = np.linspace(0.55, 0.95, 200)
        rows = benchmark.pedantic(sweep, args=(grid,), rounds=20, iterations=1)
        assert len(rows) == 200 and all(r["stable"] != "no_root" for r in rows)
    elif case == "write200":
        ks, L1, L, p, stable = klcurve.branch_columns(np.linspace(0.55, 0.95, 200))
        out = tmp_path / "sweep.csv"
        args = cli.build_parser().parse_args(["sweep", "--kmin", "0.55", "--kmax", "0.95"])

        def write():
            cli._write_csv(str(out), args, {}, ["k", "L1", "L", "p", "stable"],
                           [cli._cells(ks), cli._branch_cells(L1), cli._branch_cells(L),
                            cli._branch_cells(p), stable])

        benchmark.pedantic(write, rounds=20, iterations=5)
        # the provenance lines, the header, the rows
        assert len(out.read_text().splitlines()) == len(cli._provenance(args, {})) + 201
    elif case == "solve_branch":
        out = benchmark.pedantic(solve_branch, args=(0.8,), rounds=20, iterations=5)
        assert repr(out) == repr(solve_branch(0.8))
    else:
        argv = ["reproduce-figure1", "--steps", "200",
                "--out-L1", str(tmp_path / "L1.csv"),
                "--out-p", str(tmp_path / "p.csv"),
                "--record-out", str(tmp_path / "r.json")]
        assert benchmark.pedantic(main, args=(argv,), rounds=20, iterations=1) == 0


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
