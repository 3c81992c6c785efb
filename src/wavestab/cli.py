"""Command-line interface.

Subcommands cover the elliptic self-checks, the period-constraint sweep,
profile export, operator spectra, the stability report, the continuation
patch, time evolution, and the two-panel curve reproduction.  Every run
writes a provenance header (parameters, truncations, tolerances, version);
outputs are deterministic for identical configurations, with random seeds
always explicit.

Exit codes: 0 success, 2 validation error, 3 numerical failure
(Newton/eigensolver), 4 blow-up.
"""

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .continuation import NewtonDivergenceError, newton_solve, surface_patch
from .criteria import evaluate_dnoidal, evaluate_wave
from .elliptic import complete_integrals, jacobi_sn_cn_dn
from .evolution import BlowUpError, stability_experiment
from .galerkin import DegenerateOperatorError, assemble, spectrum
from .klcurve import K_ANALYTIC, solve_L1, sweep
from .multiplier import builtin_symbol
from .profile import build_dnoidal

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_BLOWUP = 4


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


def _provenance(command, params):
    lines = [f"# wavestab {__version__}", f"# command {command}"]
    for key in sorted(params):
        lines.append(f"# {key}={_fmt(params[key])}")
    return lines


def _write_csv(path, command, params, header, rows):
    lines = _provenance(command, params)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _emit_record(record, path=None):
    text = json.dumps(record, sort_keys=True, default=_fmt, indent=2) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _validation_exit(message):
    print(message, file=sys.stderr)
    raise SystemExit(EXIT_VALIDATION)


def _load_config(path):
    cfg = {}
    with open(path) as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                _validation_exit(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            cfg[key.strip().replace("-", "_")] = val.strip()
    return cfg


def _apply_config(args, parser_defaults):
    """Merge a key=value config file under explicit flags."""
    if not getattr(args, "config", None):
        return args
    cfg = _load_config(args.config)
    for key, val in cfg.items():
        if not hasattr(args, key):
            _validation_exit(f"unknown config key {key!r}")
        if getattr(args, key) == parser_defaults.get(key):
            current = parser_defaults.get(key)
            caster = type(current) if current is not None else str
            if caster is bool:
                setattr(args, key, val.lower() in ("1", "true", "yes"))
            else:
                setattr(args, key, caster(val))
    return args


def _symbol_from_args(args):
    return builtin_symbol(args.symbol, alpha=getattr(args, "alpha", None))


def cmd_elliptic_check(args):
    rows = []
    ok = True
    for k in np.arange(0.1, 0.95, 0.1):
        pair = complete_integrals(k)
        res = abs(pair.legendre_residual())
        u = np.linspace(0.0, 2.0 * pair.K, 64)
        s, c, d = jacobi_sn_cn_dn(u, k)
        d_shift = jacobi_sn_cn_dn(u + 2.0 * pair.K, k)[2]
        checks = {
            "legendre": res,
            "dn0": abs(jacobi_sn_cn_dn(0.0, k)[2] - 1.0),
            "dnK": abs(jacobi_sn_cn_dn(pair.K, k)[2] - math.sqrt(1.0 - k * k)),
            "period": float(np.abs(d_shift - d).max()),
            "pythagoras": float(np.abs(d * d + k * k * s * s - 1.0).max()),
        }
        for name, val in checks.items():
            ok = ok and val < 1e-12
            rows.append((round(float(k), 12), name, val, "PASS" if val < 1e-12 else "FAIL"))
    _write_csv(args.out, "elliptic-check", {"tolerance": 1e-12},
               ["k", "check", "residual", "status"], rows)
    return EXIT_OK if ok else EXIT_NUMERICAL


def cmd_sweep(args):
    if not (0.0 < args.kmin < args.kmax < 1.0):
        print("sweep: need 0 < kmin < kmax < 1", file=sys.stderr)
        return EXIT_VALIDATION
    grid = np.linspace(args.kmin, args.kmax, args.steps)
    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            points = list(pool.map(lambda k: sweep([k], omega=args.omega)[0], grid))
    else:
        points = sweep(grid, omega=args.omega)
    rows = [(r["k"], r["L1"], r["L"], r["p"], r["stable"]) for r in points]
    _write_csv(args.out, "sweep",
               {"kmin": args.kmin, "kmax": args.kmax, "steps": args.steps,
                "omega": args.omega, "jobs": args.jobs},
               ["k", "L1", "L", "p", "stable"], rows)
    return EXIT_OK


def _resolve_wave(args):
    """(params, psi) for --k on the branch, or explicit --L override."""
    if args.L is not None:
        L = args.L
    else:
        point, roots = solve_L1(args.k)
        if point is None:
            print(f"no branch root at k={args.k} (roots: {list(roots)})",
                  file=sys.stderr)
            return None
        L = point.L
    return build_dnoidal(args.k, L, args.omega, N=args.N)


def cmd_profile(args):
    resolved = _resolve_wave(args)
    if resolved is None:
        return EXIT_VALIDATION
    params, psi = resolved
    meta = {"k": args.k, "omega": args.omega, "N": args.N, "L": psi.L0,
            "A": params.A, "a": params.a, "b": params.b, "d": params.d}
    if args.what == "samples":
        M = 4 * (psi.N + 1)
        xs = psi.grid(M)
        vals = psi.values(M)
        rows = list(zip(xs.tolist(), vals.tolist()))
        _write_csv(args.out, "profile", meta, ["x", "psi"], rows)
    else:
        rows = list(enumerate(psi.coeffs.tolist()))
        _write_csv(args.out, "profile", meta, ["n", "c_n"], rows)
    return EXIT_OK


def cmd_spectrum(args):
    resolved = _resolve_wave(args)
    if resolved is None:
        return EXIT_VALIDATION
    params, psi = resolved
    sym = _symbol_from_args(args)
    try:
        op = assemble(psi, args.omega, sym, N=args.N_op)
        rep = spectrum(op)
    except np.linalg.LinAlgError as exc:
        print(f"eigensolver failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    rows = list(enumerate(rep.eigenvalues.tolist()))
    meta = {"k": args.k, "omega": args.omega, "N_op": args.N_op,
            "tol_zero": rep.tol_zero}
    _write_csv(args.out, "spectrum", meta, ["index", "eigenvalue"], rows)
    _emit_record({
        "n_neg": rep.n_neg, "n_zero": rep.n_zero,
        "kernel_corr": rep.kernel_corr, "gap": rep.gap,
        "tol_zero": rep.tol_zero,
        "assumption_holds": rep.holds_assumption,
    }, args.record_out)
    return EXIT_OK


def cmd_criteria(args):
    sym = _symbol_from_args(args)
    try:
        if args.L is not None:
            params, psi = build_dnoidal(args.k, args.L, args.omega, N=args.N)
            report = evaluate_wave(psi, args.omega, sym=sym, N=args.N_op)
        else:
            report, params, psi = evaluate_dnoidal(
                args.k, args.omega, sym=sym, N_profile=args.N, N_op=args.N_op
            )
    except ValueError as exc:
        print(f"criteria: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DegenerateOperatorError, np.linalg.LinAlgError) as exc:
        print(f"criteria: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    rec = {"k": args.k, "A": params.A}
    rec.update(report.as_record())
    _emit_record(rec, args.out)
    return EXIT_OK


def cmd_continue(args):
    resolved = _resolve_wave(args)
    if resolved is None:
        return EXIT_VALIDATION
    params, psi = resolved
    sym = _symbol_from_args(args)
    try:
        center = newton_solve(psi, args.omega, params.A, sym)
        patch = surface_patch(center, args.domega, args.dA,
                              (args.extent_omega, args.extent_A), sym)
    except NewtonDivergenceError as exc:
        print(f"continuation failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    from .criteria import functionals

    rows = []
    for (di, dj), pt in sorted(patch.items()):
        M, F = functionals(pt.psi)
        rows.append((pt.omega, pt.A, pt.psi.mean(), F, pt.residual_norm))
    _write_csv(args.out, "continue",
               {"k": args.k, "omega": args.omega, "domega": args.domega,
                "dA": args.dA, "extent_omega": args.extent_omega,
                "extent_A": args.extent_A, "N": args.N},
               ["omega", "A", "mean_psi", "F", "residual"], rows)
    return EXIT_OK


def cmd_evolve(args):
    resolved = _resolve_wave(args)
    if resolved is None:
        return EXIT_VALIDATION
    params, psi = resolved
    sym = _symbol_from_args(args)
    try:
        series = stability_experiment(
            psi, args.omega, sym, kind=args.perturbation, delta=args.delta,
            periods=args.T, grid_size=args.grid, dt=args.dt, seed=args.seed,
            n_samples=args.samples, A=params.A, mode=args.mode,
        )
    except BlowUpError as exc:
        series = exc.series
        rows = [(r["t"], r["rho"], r["E"], r["F"], r["M"], r["deltaP"])
                for r in series]
        _write_csv(args.out, "evolve", {"error": "blow-up"},
                   ["t", "rho", "E", "F", "M", "deltaP"], rows)
        print(f"evolve: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    rows = [(r["t"], r["rho"], r["E"], r["F"], r["M"], r["deltaP"])
            for r in series]
    meta = {"k": args.k, "omega": args.omega, "delta": args.delta,
            "perturbation": args.perturbation, "mode": args.mode,
            "T_periods": args.T, "grid": args.grid, "seed": args.seed,
            "dt": args.dt if args.dt else "auto",
            "on_manifold": series[0].get("on_manifold")}
    _write_csv(args.out, "evolve", meta,
               ["t", "rho", "E", "F", "M", "deltaP"], rows)
    return EXIT_OK


def cmd_reproduce_figure1(args):
    grid = np.linspace(args.kmin, args.kmax, args.steps)
    rows = sweep(grid, omega=args.omega)
    left = [(r["k"], r["L1"]) for r in rows]
    right = [(r["k"], r["p"]) for r in rows]
    meta = {"kmin": args.kmin, "kmax": args.kmax, "steps": args.steps,
            "omega": args.omega}
    _write_csv(args.out_L1, "reproduce-figure1", meta, ["k", "L1"], left)
    _write_csv(args.out_p, "reproduce-figure1", meta, ["k", "p"], right)

    # locate the sign change of p along the branch by bisection
    ks = [r["k"] for r in rows if r["p"] is not None]
    ps = [r["p"] for r in rows if r["p"] is not None]
    k_star = None
    for i in range(len(ks) - 1):
        if (ps[i] > 0) != (ps[i + 1] > 0):
            lo, hi = ks[i], ks[i + 1]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                pm = solve_L1(mid)[0].p_value
                if (pm > 0) == (ps[i] > 0):
                    lo = mid
                else:
                    hi = mid
            k_star = 0.5 * (lo + hi)
            break
    n_pos = sum(1 for p in ps if p > 0)
    _emit_record({
        "points_on_branch": len(ks),
        "points_with_p_positive": n_pos,
        "p_sign_change_k": k_star,
        "analytic_point_k": K_ANALYTIC,
        "tol_cubic_residual_rel": 1e-10,
        "tol_sign_change_bisections": 60,
    }, args.record_out)
    return EXIT_OK if n_pos > 0 else EXIT_NUMERICAL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wavestab",
        description="Periodic traveling waves: construction, spectra, "
                    "stability criteria, and time evolution.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, omega=True, wave=False, symbol=True):
        p.add_argument("--config", help="key=value file; flags override it")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if omega:
            p.add_argument("--omega", type=float, default=1.0)
        if wave:
            p.add_argument("--k", type=float, required=True)
            p.add_argument("--L", type=float, default=None,
                           help="period override (default: branch root)")
            p.add_argument("--N", type=int, default=128)
        if symbol:
            p.add_argument("--symbol", default="kawahara")
            p.add_argument("--alpha", type=float, default=None)

    p = sub.add_parser("elliptic-check", help="elliptic-kernel identity battery")
    add_common(p, omega=False, symbol=False)
    p.set_defaults(func=cmd_elliptic_check)

    p = sub.add_parser("sweep", help="period-constraint sweep (k, L1, L, p, stable)")
    add_common(p, symbol=False)
    p.add_argument("--kmin", type=float, default=0.05)
    p.add_argument("--kmax", type=float, default=0.99)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("profile", help="export the wave (samples or coefficients)")
    add_common(p, wave=True, symbol=False)
    p.add_argument("--what", choices=("samples", "coeffs"), default="samples")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("spectrum", help="operator eigenvalues and the verdict record")
    add_common(p, wave=True)
    p.add_argument("--N-op", type=int, default=256, dest="N_op")
    p.add_argument("--record-out", default=None, dest="record_out")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("criteria", help="full stability report")
    add_common(p, wave=True)
    p.add_argument("--N-op", type=int, default=256, dest="N_op")
    p.set_defaults(func=cmd_criteria)

    p = sub.add_parser("continue", help="Newton continuation patch in (omega, A)")
    add_common(p, wave=True)
    p.add_argument("--domega", type=float, default=1e-3)
    p.add_argument("--dA", type=float, default=1e-3)
    p.add_argument("--extent-omega", type=int, default=2, dest="extent_omega")
    p.add_argument("--extent-A", type=int, default=2, dest="extent_A")
    p.set_defaults(func=cmd_continue)

    p = sub.add_parser("evolve", help="perturbation experiment time series")
    add_common(p, wave=True)
    p.add_argument("--delta", type=float, default=1e-3)
    p.add_argument("--perturbation", choices=("mode", "random", "mean"),
                   default="mode")
    p.add_argument("--mode", type=int, default=1)
    p.add_argument("--T", type=float, default=10.0, help="horizon in temporal periods")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("reproduce-figure1",
                       help="emit (k, L1) and (k, p) curves over the branch")
    add_common(p, symbol=False)
    p.add_argument("--kmin", type=float, default=0.05)
    p.add_argument("--kmax", type=float, default=0.99)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--out-L1", default="figure1_L1.csv", dest="out_L1")
    p.add_argument("--out-p", default="figure1_p.csv", dest="out_p")
    p.add_argument("--record-out", default=None, dest="record_out")
    p.set_defaults(func=cmd_reproduce_figure1)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    defaults = {a.dest: a.default for a in parser._actions}
    for group_action in parser._subparsers._group_actions:
        for sp in group_action.choices.values():
            defaults.update({a.dest: a.default for a in sp._actions})
    args = _apply_config(args, defaults)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
