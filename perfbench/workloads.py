"""Seeded operation generators and per-operation output checks.

Each workload is a fixed cycle of CLI operations.  The seed moves only the
continuous parameters (moduli, speeds, sweep endpoints, perturbation
seeds); the number of operations per cycle, the verdict-route mix, the
`--N-op` mix and the grid mix are the same for every seed.

Each workload names the operation kind whose latency it reports and the
two work rates it reports (see perfbench/README.md), and the calibration
kernel that tracks the machine's speed (see calibration.py).

A check returns the operation's work units (branch rows resolved, verdicts,
converged patch points, simulated periods) or raises `CheckFailed`.  The
reference values come from the program at the commit that introduced this
benchmark; none requires bit-identical output, so a correct speed-up that
reorders floating-point operations still passes.
"""

import csv
import json
import math
import random

# Values of the program at the commit that introduced this benchmark.
K_FOLD = 0.5344765668341781      # smallest modulus on the branch through 1/sqrt(2)
K_STAR = 0.8489078546965656      # sign change of p along the branch
CUBIC_RTOL = 1e-10               # acceptance criterion 3
IDENTITY_RTOL = 1e-6             # acceptance criterion 5
PATCH_RESIDUAL = 1e-10           # Newton stops at 1e-12 relative; sup norm seen ~1e-15
RHO_RATIO_MAX = 10.0             # acceptance criterion 8 (c)
DELTA_P_SPREAD = 1e-8            # acceptance criterion 8 (d)
DRIFT_RTOL = 1e-8                # acceptance criterion 8 (b)
BOUNDARY_MARGIN = 1e-6           # keep grid moduli off K_FOLD and K_STAR


class CheckFailed(Exception):
    pass


class Op:
    """One CLI call: its kind, argv, and the check run on its output."""

    def __init__(self, kind, argv, check):
        self.kind = kind
        self.argv = argv
        self.check = check


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _csv_rows(path):
    with open(path) as f:
        lines = [ln for ln in f if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _float_or_none(text):
    return float(text) if text != "" else None


def _grid(kmin, kmax, steps):
    # same points as numpy.linspace for the endpoint comparison below
    return [kmin + (kmax - kmin) * i / (steps - 1) for i in range(steps)]


def _jittered_range(rng, kmin, kmax, jitter, steps):
    """Endpoints moved inward by up to `jitter`, no grid point near a boundary."""
    while True:
        lo = kmin + rng.uniform(0.0, jitter)
        hi = kmax - rng.uniform(0.0, jitter)
        grid = _grid(lo, hi, steps)
        if all(abs(k - b) > BOUNDARY_MARGIN for k in grid for b in (K_FOLD, K_STAR)):
            return lo, hi


def _check_branch_rows(ks_L1, ks_p):
    """Residual of each branch row; returns (on_branch, p_positive) counts."""
    from wavestab.klcurve import cubic_residual

    on_branch = 0
    for k, L1 in ks_L1:
        if L1 is None:
            continue
        on_branch += 1
        res = abs(cubic_residual(k, L1))
        _require(res < CUBIC_RTOL, f"cubic residual {res:.2e} at k={k}")
    positive = sum(1 for _, p in ks_p if p is not None and p > 0)
    return on_branch, positive


def _expected_counts(kmin, kmax, steps):
    grid = _grid(kmin, kmax, steps)
    on_branch = sum(1 for k in grid if k > K_FOLD)
    positive = sum(1 for k in grid if K_FOLD < k < K_STAR)
    return on_branch, positive


class BranchScan:
    """reproduce-figure1 at the README size interleaved with sweeps."""

    name = "branch-scan"
    kernel = "interpreter_kernel"
    latency = ("figure", "reproduce-figure1")
    rates = (("branch_points_per_s", "sweep"),
             ("figure_points_per_s", "reproduce-figure1"))
    min_cycles = 2           # two latency samples at the least, for the p90
    trace_cycles = 3
    STEPS = 200

    def warmups(self, out):
        return [
            ["reproduce-figure1", "--kmin", "0.6", "--kmax", "0.9", "--steps", "5",
             "--out-L1", f"{out}/L1.csv", "--out-p", f"{out}/p.csv",
             "--record-out", f"{out}/figure.json"],
            ["sweep", "--kmin", "0.6", "--kmax", "0.9", "--steps", "5",
             "--out", f"{out}/sweep.csv"],
        ]

    def cycle(self, rng, out):
        fmin, fmax = _jittered_range(rng, 0.05, 0.99, 0.01, self.STEPS)
        smin, smax = _jittered_range(rng, 0.55, 0.95, 0.01, self.STEPS)
        figure = ["reproduce-figure1", "--kmin", repr(fmin), "--kmax", repr(fmax),
                  "--steps", str(self.STEPS), "--out-L1", f"{out}/L1.csv",
                  "--out-p", f"{out}/p.csv", "--record-out", f"{out}/figure.json"]
        sweep = ["sweep", "--kmin", repr(smin), "--kmax", repr(smax),
                 "--steps", str(self.STEPS), "--out", f"{out}/sweep.csv"]
        return [
            Op("reproduce-figure1", figure,
               lambda: self._check_figure(out, fmin, fmax)),
            Op("sweep", sweep, lambda: self._check_sweep(out, smin, smax)),
        ]

    def _check_figure(self, out, kmin, kmax):
        rows_L1 = _csv_rows(f"{out}/L1.csv")
        rows_p = _csv_rows(f"{out}/p.csv")
        _require(len(rows_L1) == self.STEPS and len(rows_p) == self.STEPS,
                 "figure row count")
        with open(f"{out}/figure.json") as f:
            record = json.load(f)
        on_branch, positive = _check_branch_rows(
            [(float(r["k"]), _float_or_none(r["L1"])) for r in rows_L1],
            [(float(r["k"]), _float_or_none(r["p"])) for r in rows_p])
        exp_branch, exp_positive = _expected_counts(kmin, kmax, self.STEPS)
        _require(on_branch == exp_branch == record["points_on_branch"],
                 f"points_on_branch {on_branch}/{record['points_on_branch']} "
                 f"!= {exp_branch}")
        _require(positive == exp_positive == record["points_with_p_positive"],
                 f"points_with_p_positive {record['points_with_p_positive']} "
                 f"!= {exp_positive}")
        k_star = record["p_sign_change_k"]
        _require(k_star is not None and abs(k_star - K_STAR) < 1e-9,
                 f"p_sign_change_k {k_star} != {K_STAR}")
        return on_branch

    def _check_sweep(self, out, kmin, kmax):
        rows = _csv_rows(f"{out}/sweep.csv")
        _require(len(rows) == self.STEPS, "sweep row count")
        ks = [(float(r["k"]), _float_or_none(r["L1"])) for r in rows]
        kp = [(float(r["k"]), _float_or_none(r["p"])) for r in rows]
        on_branch, positive = _check_branch_rows(ks, kp)
        for r in rows:
            _require(r["stable"] == ("1" if float(r["p"]) > 0 else "0"),
                     f"stable flag at k={r['k']}")
        exp_branch, exp_positive = _expected_counts(kmin, kmax, self.STEPS)
        _require((on_branch, positive) == (exp_branch, exp_positive),
                 f"sweep counts {(on_branch, positive)} != "
                 f"{(exp_branch, exp_positive)}")
        return on_branch


# criteria strata per cycle: (route, N_op, count).  Sorted by cost the
# cycle is 12 cheap 256-mode reports (60%), 2 coercivity reports at 256 and
# 2 non-coercivity reports at 512 (20%), and 4 coercivity reports at 512
# (20%), so the median sits inside the cheap class and the 90th percentile
# inside the 512 coercivity class.
CRITERIA_STRATA = (
    ("determinant", 256, 6),
    ("inconclusive", 256, 6),
    ("coercivity", 256, 2),
    ("determinant", 512, 1),
    ("inconclusive", 512, 1),
    ("coercivity", 512, 4),
)
CONTINUE_PER_CYCLE = 8
EXPECTED_VERDICT = {"determinant": "stable_by_determinant",
                    "coercivity": "stable_by_constrained_coercivity",
                    "inconclusive": "inconclusive"}


def _route_params(rng, route):
    """(k, omega) well inside the route's region, away from p's sign change."""
    if route == "determinant":
        return rng.uniform(0.62, 0.80), rng.uniform(1.0, 1.2)
    if route == "coercivity":
        return rng.uniform(0.60, 0.80), 0.5
    return rng.uniform(0.88, 0.94), rng.uniform(1.0, 1.2)


class OperatorScan:
    """criteria at seeded (k, omega, N_op) interleaved with continuation patches."""

    name = "operator-scan"
    kernel = "dense_kernel"
    latency = ("verdict", "criteria")
    rates = (("verdicts_per_s", "criteria"), ("patch_points_per_s", "continue"))
    min_cycles = 5           # at least 100 verdicts per run
    trace_cycles = 1

    def warmups(self, out):
        return [
            ["criteria", "--k", "0.75", "--omega", "1.0", "--out", f"{out}/w.json"],
            ["criteria", "--k", "0.75", "--omega", "0.5", "--out", f"{out}/w.json"],
            ["continue", "--k", "0.75", "--omega", "1.0", "--extent-omega", "1",
             "--extent-A", "1", "--out", f"{out}/w.csv"],
        ]

    def cycle(self, rng, out):
        criteria = []
        for route, n_op, count in CRITERIA_STRATA:
            for _ in range(count):
                k, omega = _route_params(rng, route)
                argv = ["criteria", "--k", repr(k), "--omega", repr(omega),
                        "--N-op", str(n_op), "--out", f"{out}/criteria.json"]
                criteria.append(Op(f"criteria/{route}/{n_op}", argv,
                                   self._criteria_check(out, route)))
        patches = []
        for _ in range(CONTINUE_PER_CYCLE):
            k, omega = rng.uniform(0.62, 0.92), rng.uniform(0.9, 1.1)
            argv = ["continue", "--k", repr(k), "--omega", repr(omega),
                    "--domega", "5e-3", "--dA", "5e-3", "--extent-omega", "1",
                    "--extent-A", "1", "--out", f"{out}/patch.csv"]
            patches.append(Op("continue", argv,
                              self._patch_check(out, omega)))
        # interleaved: 8 patches among 20 reports, after the 3rd and the 5th
        # report of every five
        ops = []
        for i, op in enumerate(criteria):
            ops.append(op)
            if i % 5 in (2, 4):
                ops.append(patches.pop(0))
        return ops

    def _criteria_check(self, out, route):
        def check():
            with open(f"{out}/criteria.json") as f:
                rec = json.load(f)
            _require(rec["verdict"] == EXPECTED_VERDICT[route],
                     f"verdict {rec['verdict']} on the {route} route")
            _require(rec["n_neg"] == 1 and rec["n_zero"] == 1,
                     f"n_neg={rec['n_neg']} n_zero={rec['n_zero']}")
            for key in ("id_Fomega", "id_FA", "id_relFF"):
                _require(abs(rec[key]) < IDENTITY_RTOL, f"{key}={rec[key]}")
            return 1
        return check

    def _patch_check(self, out, omega):
        def check():
            rows = _csv_rows(f"{out}/patch.csv")
            _require(len(rows) == 9, f"{len(rows)} of 9 patch points converged")
            omegas = sorted({round(float(r["omega"]) - omega, 9) for r in rows})
            _require(omegas == [-5e-3, 0.0, 5e-3], f"omega offsets {omegas}")
            A_values = sorted(float(r["A"]) for r in rows)
            A0 = A_values[4]
            offsets = sorted({round(a - A0, 9) for a in A_values})
            _require(offsets == [-5e-3, 0.0, 5e-3], f"A offsets {offsets}")
            for r in rows:
                res = float(r["residual"])
                _require(res < PATCH_RESIDUAL, f"patch residual {res:.2e}")
                _require(math.isfinite(float(r["F"])), "non-finite F")
            return len(rows)
        return check


class Evolve:
    """Seeded random-perturbation evolve at grid 128 and grid 256."""

    name = "evolve"
    kernel = "spectral_kernel"
    latency = ("evolve_g128", "evolve/128")
    rates = (("periods_per_s.g128", "evolve/128"), ("periods_per_s.g256", "evolve/256"))
    min_cycles = 2           # two latency samples at the least, for the p90
    trace_cycles = 12
    K, OMEGA, DELTA = 0.8, 1.0, 1e-3
    PERIODS = 0.25
    SAMPLES = 10
    GRIDS = (128, 256)

    def _argv(self, grid, seed, periods, samples, out):
        return ["evolve", "--k", repr(self.K), "--omega", repr(self.OMEGA),
                "--perturbation", "random", "--delta", repr(self.DELTA),
                "--grid", str(grid), "--T", repr(periods),
                "--samples", str(samples), "--seed", str(seed),
                "--out", f"{out}/evolve.csv"]

    def warmups(self, out):
        return [self._argv(g, 0, 0.02, 2, out) for g in self.GRIDS]

    def cycle(self, rng, out):
        return [Op(f"evolve/{g}",
                   self._argv(g, rng.randrange(1_000_000), self.PERIODS,
                              self.SAMPLES, out),
                   lambda: self._check(out))
                for g in self.GRIDS]

    def _check(self, out):
        rows = _csv_rows(f"{out}/evolve.csv")
        _require(len(rows) >= self.SAMPLES + 1, f"{len(rows)} samples")
        rho = [float(r["rho"]) for r in rows]
        _require(rho[0] > 0 and max(rho) / rho[0] <= RHO_RATIO_MAX,
                 f"rho ratio {max(rho) / rho[0]:.3g}")
        dP = [float(r["deltaP"]) for r in rows]
        _require(max(dP) - min(dP) < DELTA_P_SPREAD,
                 f"deltaP spread {max(dP) - min(dP):.2e}")
        first = rows[0]
        for key, floor in (("E", 0.0), ("F", 0.0), ("M", 1.0)):
            ref = float(first[key])
            drift = max(abs(float(r[key]) - ref) for r in rows) / max(floor, abs(ref))
            _require(drift < DRIFT_RTOL, f"{key} drift {drift:.2e}")
        return self.PERIODS


WORKLOADS = {w.name: w for w in (BranchScan(), OperatorScan(), Evolve())}


def cycle_rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")
