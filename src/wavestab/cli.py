"""Command-line interface.

Subcommands cover the elliptic self-checks, the period-constraint sweep,
profile export, operator spectra, the stability report, the continuation
patch, time evolution, and the two-panel curve reproduction.  Every run
writes a provenance header (parameters, truncations, tolerances, version);
outputs are deterministic for identical configurations, with random seeds
always explicit.

Argparse alone parses, types and range-checks the input.  Each `key=value`
line of a `--config` file becomes a `--key=value` flag right after the
subcommand name, so a file may supply any flag, required ones included, and
flags on the command line win.  Out-of-domain values exit 2.

Exit codes: 0 success, 2 validation error, 3 numerical failure
(Newton/eigensolver, floating-point breakdown), 4 blow-up.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .continuation import NewtonDivergenceError, newton_solve, surface_patch
from .criteria import evaluate_dnoidal, evaluate_wave, functionals
from .elliptic import complete_integrals, jacobi_sn_cn_dn
from .evolution import BlowUpError, stability_experiment
from .galerkin import DegenerateOperatorError, assemble, spectrum
from .klcurve import K_ANALYTIC, solve_L1, sweep
from .multiplier import BUILTIN_NAMES, builtin_symbol
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


def _write(text, path):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _write_csv(path, command, params, header, rows):
    lines = _provenance(command, params)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write("\n".join(lines) + "\n", path)


def _emit_record(record, path=None):
    _write(json.dumps(record, sort_keys=True, default=_fmt, indent=2) + "\n", path)


def _validation_exit(message):
    print(message, file=sys.stderr)
    raise SystemExit(EXIT_VALIDATION)


def _config_argv(path):
    """`--key=value` tokens for the key=value lines of a config file."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        _validation_exit(f"cannot read config file {path!r}: {exc}")
    tokens = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        key = key.strip().replace("_", "-")
        if not sep or key == "config":
            _validation_exit(f"config line {line!r} is not key=value "
                             f"with a key other than config")
        tokens.append(f"--{key}={val.strip()}")
    return tokens


def _checked(convert, ok, domain):
    """argparse type: convert the text, then require ok(value)."""
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {domain}")
    return parse


_finite = _checked(float, math.isfinite, "a finite number")
_positive = _checked(float, lambda x: 0.0 < x < math.inf, "a finite number > 0")
_modulus = _checked(float, lambda x: 0.0 < x < 1.0, "a modulus in (0, 1)")


def _int_at_least(low):
    return _checked(int, lambda n: n >= low, f"an integer >= {low}")


_modes = _int_at_least(8)   # the smallest truncation build_dnoidal accepts


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


def _k_grid(args):
    """The sweep grid over [kmin, kmax], or None (after a message) if the range is bad."""
    if not (0.0 < args.kmin < args.kmax < 1.0):
        print(f"{args.command}: need 0 < kmin < kmax < 1", file=sys.stderr)
        return None
    return np.linspace(args.kmin, args.kmax, args.steps)


def cmd_sweep(args):
    grid = _k_grid(args)
    if grid is None:
        return EXIT_VALIDATION
    rows = [(r["k"], r["L1"], r["L"], r["p"], r["stable"]) for r in sweep(grid)]
    _write_csv(args.out, "sweep",
               {"kmin": args.kmin, "kmax": args.kmax, "steps": args.steps},
               ["k", "L1", "L", "p", "stable"], rows)
    return EXIT_OK


def _resolve_wave(args):
    """(params, psi) for --k on the branch, or explicit --L override."""
    if args.L is not None:
        L = args.L
    else:
        point, roots = solve_L1(args.k)
        if point is None:
            _validation_exit(f"no branch root at k={args.k} (roots: {list(roots)})")
        L = point.L
    return build_dnoidal(args.k, L, args.omega, N=args.N)


def cmd_profile(args):
    params, psi = _resolve_wave(args)
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
    params, psi = _resolve_wave(args)
    try:
        op = assemble(psi, args.omega, args.sym, N=args.N_op)
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
    try:
        if args.L is not None:
            params, psi = build_dnoidal(args.k, args.L, args.omega, N=args.N)
            report = evaluate_wave(psi, args.omega, sym=args.sym, N=args.N_op)
        else:
            report, params, psi = evaluate_dnoidal(
                args.k, args.omega, sym=args.sym, N_profile=args.N, N_op=args.N_op
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
    params, psi = _resolve_wave(args)
    try:
        center = newton_solve(psi, args.omega, params.A, args.sym)
        patch = surface_patch(center, args.domega, args.dA,
                              (args.extent_omega, args.extent_A), args.sym)
    except NewtonDivergenceError as exc:
        print(f"continuation failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
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
    params, psi = _resolve_wave(args)
    try:
        series = stability_experiment(
            psi, args.omega, args.sym, kind=args.perturbation, delta=args.delta,
            periods=args.T, grid_size=args.grid, dt=args.dt, seed=args.seed,
            n_samples=args.samples, A=params.A, mode=args.mode,
        )
    except BlowUpError as exc:
        print(f"evolve: {exc}", file=sys.stderr)
        series, code, meta = exc.series, EXIT_BLOWUP, {"error": "blow-up"}
    else:
        code = EXIT_OK
        meta = {"k": args.k, "omega": args.omega, "delta": args.delta,
                "perturbation": args.perturbation, "mode": args.mode,
                "T_periods": args.T, "grid": args.grid, "seed": args.seed,
                "dt": args.dt if args.dt else "auto",
                "on_manifold": series[0].get("on_manifold")}
    rows = [(r["t"], r["rho"], r["E"], r["F"], r["M"], r["deltaP"])
            for r in series]
    _write_csv(args.out, "evolve", meta,
               ["t", "rho", "E", "F", "M", "deltaP"], rows)
    return code


def cmd_reproduce_figure1(args):
    grid = _k_grid(args)
    if grid is None:
        return EXIT_VALIDATION
    rows = sweep(grid)
    left = [(r["k"], r["L1"]) for r in rows]
    right = [(r["k"], r["p"]) for r in rows]
    meta = {"kmin": args.kmin, "kmax": args.kmax, "steps": args.steps}
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
        prog="wavestab", allow_abbrev=False,
        description="Periodic traveling waves: construction, spectra, "
                    "stability criteria, and time evolution.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # flags spelled in full only: an abbreviated --config would escape main's
    # pre-pass, and an abbreviated config key would be taken for another flag
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False))

    def add_config(p):
        p.add_argument("--config", help="key=value file of flags; "
                                         "flags on the command line win")

    def add_common(p, omega=_finite, wave=False, symbol=True):
        add_config(p)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if omega:
            p.add_argument("--omega", type=omega, default=1.0)
        if wave:
            p.add_argument("--k", type=_modulus, required=True)
            p.add_argument("--L", type=_positive, default=None,
                           help="period override (default: branch root)")
            p.add_argument("--N", type=_modes, default=128)
        if symbol:
            p.add_argument("--symbol", choices=BUILTIN_NAMES, default="kawahara")
            p.add_argument("--alpha", type=float, default=None,
                           help="exponent of --symbol fractional")

    def add_k_range(p):
        p.add_argument("--kmin", type=_finite, default=0.05)
        p.add_argument("--kmax", type=_finite, default=0.99)
        p.add_argument("--steps", type=_int_at_least(2), default=200)

    p = sub.add_parser("elliptic-check", help="elliptic-kernel identity battery")
    add_common(p, omega=None, symbol=False)
    p.set_defaults(func=cmd_elliptic_check)

    p = sub.add_parser("sweep", help="period-constraint sweep (k, L1, L, p, stable)")
    add_common(p, omega=None, symbol=False)
    add_k_range(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("profile", help="export the wave (samples or coefficients)")
    add_common(p, wave=True, symbol=False)
    p.add_argument("--what", choices=("samples", "coeffs"), default="samples")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("spectrum", help="operator eigenvalues and the verdict record")
    add_common(p, wave=True)
    p.add_argument("--N-op", type=_modes, default=256, dest="N_op")
    p.add_argument("--record-out", default=None, dest="record_out")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("criteria", help="full stability report")
    add_common(p, wave=True)
    p.add_argument("--N-op", type=_modes, default=256, dest="N_op")
    p.set_defaults(func=cmd_criteria)

    p = sub.add_parser("continue", help="Newton continuation patch in (omega, A)")
    add_common(p, wave=True)
    p.add_argument("--domega", type=_positive, default=1e-3)
    p.add_argument("--dA", type=_positive, default=1e-3)
    p.add_argument("--extent-omega", type=_int_at_least(0), default=2,
                   dest="extent_omega")
    p.add_argument("--extent-A", type=_int_at_least(0), default=2, dest="extent_A")
    p.set_defaults(func=cmd_continue)

    p = sub.add_parser("evolve", help="perturbation experiment time series")
    # the horizon is counted in temporal periods L/omega, so omega > 0
    add_common(p, omega=_positive, wave=True)
    p.add_argument("--delta", type=_finite, default=1e-3)
    p.add_argument("--perturbation", choices=("mode", "random", "mean"),
                   default="mode")
    p.add_argument("--mode", type=int, default=1)
    p.add_argument("--T", type=_positive, default=10.0,
                   help="horizon in temporal periods")
    # grid // 3 dealiased modes must keep at least 8 of the wave's modes
    p.add_argument("--grid", type=_int_at_least(24), default=256)
    p.add_argument("--dt", type=_positive, default=None)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--samples", type=_int_at_least(1), default=100)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("reproduce-figure1",
                       help="emit (k, L1) and (k, p) curves over the branch")
    add_config(p)
    add_k_range(p)
    p.add_argument("--out-L1", default="figure1_L1.csv", dest="out_L1")
    p.add_argument("--out-p", default="figure1_p.csv", dest="out_p")
    p.add_argument("--record-out", default=None, dest="record_out")
    p.set_defaults(func=cmd_reproduce_figure1)

    return parser


def main(argv=None):
    # the --config file becomes --key=value flags right after the subcommand,
    # ahead of the command-line flags, so that the latter win
    argv = list(sys.argv[1:] if argv is None else argv)
    pre = argparse.ArgumentParser(prog="wavestab", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is not None:
        at = next((i + 1 for i, tok in enumerate(argv) if not tok.startswith("-")),
                  len(argv))
        argv[at:at] = _config_argv(path)
    args = build_parser().parse_args(argv)
    if hasattr(args, "symbol"):
        try:
            args.sym = builtin_symbol(args.symbol, alpha=args.alpha)
        except ValueError as exc:
            _validation_exit(f"{args.command}: {exc}")
    try:
        return args.func(args)
    except ArithmeticError as exc:
        print(f"{args.command}: numerical failure: {exc!r}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
