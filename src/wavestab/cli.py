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
flags on the command line win.  Out-of-domain values exit 2, and so does a
run over a work cap (MAX_MODES, MAX_GRID, MAX_SAMPLES, MAX_K_STEPS,
MAX_PATCH_POINTS, evolution.MAX_STEPS).

Exit codes: 0 success, 2 validation error, 3 numerical failure
(Newton/eigensolver, floating-point breakdown), 4 blow-up.  Commands only
raise; `main` alone maps an exception to a code and one stderr line, first
NUMERICAL_FAILURES (`<command>: numerical failure: <repr>`, exit 3), then
any other ValueError (`<command>: <message>`, exit 2).  An incomplete
`continue` patch is not a failure: it exits 0 with the rows it has and one
stderr line naming the missing grid offsets.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .continuation import NewtonDivergenceError, newton_solve, surface_patch
from .criteria import evaluate_wave, functionals
from .elliptic import IDENTITY_TOL, MODULUS_CAP, identity_battery
from .evolution import BlowUpError, make_perturbation, stability_experiment
from .galerkin import DegenerateOperatorError, assemble, spectrum
from .klcurve import (K_ANALYTIC, SIGN_CHANGE_HALVINGS, SIGN_CHANGE_PASSES,
                      branch_columns, sign_change)
from .multiplier import BUILTIN_NAMES, builtin_symbol
from .profile import build_dnoidal

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_BLOWUP = 4
NUMERICAL_FAILURES = (ArithmeticError, np.linalg.LinAlgError,
                      DegenerateOperatorError, NewtonDivergenceError)

# work caps; the README gives the memory and time behind each
MAX_MODES = 2048        # --N, --N-op: one parity block of 2049^2 doubles is 34 MB
MAX_GRID = 6144         # --grid: grid // 3 = MAX_MODES
MAX_SAMPLES = 100_000   # evolve --samples: one orbital distance per record
MAX_K_STEPS = 100_000   # sweep and reproduce-figure1 --steps: one branch root each
MAX_PATCH_POINTS = 10_000  # continue patch points: one Newton solve each

def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _provenance(command, params):
    lines = [f"# wavestab {__version__}", f"# command {command}"]
    for key in sorted(params):
        lines.append(f"# {key}={_fmt(params[key])}")
    return lines


def _write(text, path):
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write output file {path!r}: "
                         f"{exc.strerror or exc}") from exc


def _cells(values):
    """The CSV cells of a float column, repr of each element in one pass
    (what _fmt gives a float or a numpy floating scalar)."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def _branch_cells(values):
    """_cells of a branch column; a modulus with no branch root (NaN in
    klcurve.branch_columns) writes an empty cell."""
    cells = _cells(values)
    for i in np.flatnonzero(np.isnan(values)).tolist():
        cells[i] = ""
    return cells


def _write_csv(path, command, params, header, columns):
    """Provenance, the header and the body; `columns` holds each column's
    cells as text, all of one length."""
    lines = _provenance(command, params)
    lines.append(",".join(header))
    lines.extend(map(",".join, zip(*columns)))
    _write("\n".join(lines) + "\n", path)


def _emit_record(record, path=None):
    _write(json.dumps(record, sort_keys=True, default=_fmt, indent=2) + "\n", path)


def _config_argv(path):
    """`--key=value` tokens for the key=value lines of a config file."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config file {path!r}: {exc}") from exc
    tokens = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        key = key.strip().replace("_", "-")
        if not sep or key == "config":
            raise ValueError(f"config line {line!r} is not key=value "
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
_nonzero = _checked(float, lambda x: 0.0 < abs(x) < math.inf, "a finite nonzero number")
_positive = _checked(float, lambda x: 0.0 < x < math.inf, "a finite number > 0")
_modulus = _checked(float, lambda x: 0.0 < x <= MODULUS_CAP,
                    f"a modulus in (0, {MODULUS_CAP}]")


def _int_at_least(low, high=None):
    if high is None:
        return _checked(int, lambda n: n >= low, f"an integer >= {low}")
    return _checked(int, lambda n: low <= n <= high, f"an integer in {low}..{high}")


_modes = _int_at_least(8, MAX_MODES)   # 8: the smallest truncation build_dnoidal accepts


def cmd_elliptic_check(args):
    rows = [(k, check, residual, "PASS" if passed else "FAIL")
            for k, check, residual, passed in identity_battery()]
    _write_csv(args.out, "elliptic-check", {"tolerance": IDENTITY_TOL},
               ["k", "check", "residual", "status"],
               [list(map(_fmt, column)) for column in zip(*rows)])
    return EXIT_OK if all(row[3] == "PASS" for row in rows) else EXIT_NUMERICAL


def _k_grid(args):
    """The sweep grid over [kmin, kmax]; ValueError if the range is bad."""
    if not (0.0 < args.kmin < args.kmax <= MODULUS_CAP):
        raise ValueError(f"need 0 < kmin < kmax <= {MODULUS_CAP}")
    return np.linspace(args.kmin, args.kmax, args.steps)


def cmd_sweep(args):
    ks, L1, L, p, stable = branch_columns(_k_grid(args))
    _write_csv(args.out, "sweep",
               {"kmin": args.kmin, "kmax": args.kmax, "steps": args.steps},
               ["k", "L1", "L", "p", "stable"],
               [_cells(ks), _branch_cells(L1), _branch_cells(L), _branch_cells(p), stable])
    return EXIT_OK


def cmd_profile(args):
    params, psi = build_dnoidal(args.k, args.L, args.omega, N=args.N)
    meta = {"k": args.k, "omega": args.omega, "N": args.N, "L": psi.L0,
            "A": params.A, "a": params.a, "b": params.b, "d": params.d}
    if args.what == "samples":
        M = 4 * (psi.N + 1)
        _write_csv(args.out, "profile", meta, ["x", "psi"],
                   [_cells(psi.grid(M)), _cells(psi.values(M))])
    else:
        _write_csv(args.out, "profile", meta, ["n", "c_n"],
                   [list(map(str, range(psi.coeffs.size))), _cells(psi.coeffs)])
    return EXIT_OK


def cmd_spectrum(args):
    params, psi = build_dnoidal(args.k, args.L, args.omega, N=args.N)
    rep = spectrum(assemble(psi, args.omega, args.sym, N=args.N_op))
    meta = {"k": args.k, "omega": args.omega, "N_op": args.N_op,
            "tol_zero": rep.tol_zero}
    _write_csv(args.out, "spectrum", meta, ["index", "eigenvalue"],
               [list(map(str, range(rep.eigenvalues.size))), _cells(rep.eigenvalues)])
    _emit_record({
        "n_neg": rep.n_neg, "n_zero": rep.n_zero,
        "kernel_corr": rep.kernel_corr, "gap": rep.gap,
        "tol_zero": rep.tol_zero,
        "assumption_holds": rep.holds_assumption,
    }, args.record_out)
    return EXIT_OK


def cmd_criteria(args):
    params, psi = build_dnoidal(args.k, args.L, args.omega, N=args.N)
    report = evaluate_wave(psi, args.omega, sym=args.sym, N=args.N_op)
    rec = {"k": args.k, "A": params.A}
    rec.update(report.as_record())
    _emit_record(rec, args.out)
    return EXIT_OK


def cmd_continue(args):
    points = (2 * args.extent_omega + 1) * (2 * args.extent_A + 1)
    if points > MAX_PATCH_POINTS:
        raise ValueError(f"a patch of {points} points is over the cap "
                         f"of {MAX_PATCH_POINTS}")
    params, psi = build_dnoidal(args.k, args.L, args.omega, N=args.N)
    center = newton_solve(psi, args.omega, params.A, args.sym)
    iw, ia = args.extent_omega, args.extent_A
    patch, missing = surface_patch(center, args.domega, args.dA, (iw, ia), args.sym)
    solved = [pt for _, pt in sorted(patch.items())]   # the center at least
    floats = zip(*[(pt.omega, pt.A, pt.psi.mean(), functionals(pt.psi)[1],
                    pt.residual_norm) for pt in solved])
    columns = [*map(_cells, floats), [str(pt.newton_iters) for pt in solved]]
    _write_csv(args.out, "continue",
               {"k": args.k, "omega": args.omega, "domega": args.domega,
                "dA": args.dA, "extent_omega": iw, "extent_A": ia, "N": args.N},
               ["omega", "A", "mean_psi", "F", "residual", "newton_iters"], columns)
    if missing:
        print(f"continue: {len(missing)} of {points} patch points missing: "
              + ", ".join(map(str, missing)), file=sys.stderr)
    return EXIT_OK


def cmd_evolve(args):
    kind = args.perturbation
    for flag, used_by in (("mode", "mode"), ("seed", "random")):
        if getattr(args, flag) is not None and kind != used_by:
            raise ValueError(f"--{flag} applies only to --perturbation "
                             f"{used_by}, not {kind}")
    mode = 1 if args.mode is None else args.mode
    seed = 0 if args.seed is None else args.seed
    _, psi = build_dnoidal(args.k, args.L, args.omega, N=args.N)
    v = make_perturbation(kind, psi, args.delta, args.grid, mode=mode, seed=seed)
    try:
        series = stability_experiment(psi, args.omega, args.sym, v, periods=args.T,
                                      dt=args.dt, n_samples=args.samples)
    except BlowUpError as exc:
        blowup = f"evolve: {exc}"
        series, code = exc.series, EXIT_BLOWUP
        meta = {"error": "blow-up", "transform": series[0]["transform"]}
    else:
        code = EXIT_OK
        first = series[0]
        meta = {"k": args.k, "omega": args.omega, "delta": args.delta,
                "perturbation": kind, "T_periods": args.T, "grid": args.grid,
                "on_manifold": first["on_manifold"]}
        meta.update((key, first[key]) for key in
                    ("dt", "steps", "transform", "dt_safety", "xi_eff", "theta_eff")
                    if key in first)
        if kind == "mode":
            meta["mode"] = mode
        if kind == "random":
            meta["seed"] = seed
    header = ["t", "rho", "E", "F", "M", "deltaP"]
    _write_csv(args.out, "evolve", meta, header,
               [_cells([r[key] for r in series]) for key in header])
    if code == EXIT_BLOWUP:   # after the write, which may refuse its path
        print(blowup, file=sys.stderr)
    return code


def cmd_reproduce_figure1(args):
    ks, L1, _, p, _ = branch_columns(_k_grid(args))
    k_cells = _cells(ks)
    meta = {"kmin": args.kmin, "kmax": args.kmax, "steps": args.steps}
    _write_csv(args.out_L1, "reproduce-figure1", meta, ["k", "L1"],
               [k_cells, _branch_cells(L1)])
    _write_csv(args.out_p, "reproduce-figure1", meta, ["k", "p"],
               [k_cells, _branch_cells(p)])

    on_branch = ~np.isnan(L1)
    ks, ps = ks[on_branch], p[on_branch]
    lo, hi, passes = sign_change(ks, ps)
    n_pos = int(np.count_nonzero(ps > 0))
    _emit_record({
        "points_on_branch": len(ks),
        "points_with_p_positive": n_pos,
        "p_sign_change_k": None if lo is None else 0.5 * (lo + hi),
        "sign_change_passes": passes,
        "analytic_point_k": K_ANALYTIC,
        "tol_cubic_residual_rel": 1e-10,
        "tol_sign_change_bisections": SIGN_CHANGE_PASSES * SIGN_CHANGE_HALVINGS,
    }, args.record_out)
    if n_pos == 0:
        print(f"reproduce-figure1: p > 0 at none of the {len(ks)} grid points "
              f"on the branch", file=sys.stderr)
    return EXIT_OK if n_pos > 0 else EXIT_NUMERICAL


@functools.cache
def build_parser():
    """The wavestab parser, built on the first call and reused after it."""
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
        p.add_argument("--steps", type=_int_at_least(2, MAX_K_STEPS), default=200)

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
    # the witness x0 = -1/omega and det_D_reduced divide by omega
    add_common(p, omega=_nonzero, wave=True)
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
    p.add_argument("--mode", type=int, default=None,
                   help="mode of --perturbation mode (default 1)")
    p.add_argument("--T", type=_positive, default=10.0,
                   help="horizon in temporal periods")
    # grid // 3 dealiased modes must keep at least 8 of the wave's modes
    p.add_argument("--grid", type=_int_at_least(24, MAX_GRID), default=256)
    p.add_argument("--dt", type=_positive, default=None)
    p.add_argument("--seed", type=_int_at_least(0), default=None,
                   help="seed of --perturbation random (default 0)")
    p.add_argument("--samples", type=_int_at_least(1, MAX_SAMPLES), default=100)
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


@functools.cache
def _config_parser():
    """Pre-pass parser that reads only --config."""
    pre = argparse.ArgumentParser(prog="wavestab", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    return pre


def main(argv=None):
    # the --config file becomes --key=value flags right after the subcommand,
    # ahead of the command-line flags, so that the latter win
    argv = list(sys.argv[1:] if argv is None else argv)
    path = _config_parser().parse_known_args(argv)[0].config
    command = "wavestab"   # until argparse has named the subcommand
    try:
        if path is not None:
            at = next((i + 1 for i, tok in enumerate(argv) if not tok.startswith("-")),
                      len(argv))
            argv[at:at] = _config_argv(path)
        args = build_parser().parse_args(argv)
        command = args.command
        if hasattr(args, "symbol"):
            args.sym = builtin_symbol(args.symbol, alpha=args.alpha)
        return args.func(args)
    except NUMERICAL_FAILURES as exc:   # first: LinAlgError is a ValueError
        print(f"{command}: numerical failure: {exc!r}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
