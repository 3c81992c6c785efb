"""The CLI writer: its bodies against the per-cell row writer it replaced,
and its contract on files that already exist.

`row_body` is the row writer's body: the header, then each row's cells through
`cli._fmt`.  Each body test rebuilds a command's rows from the library the way
the row writer's command built them, and the command's body must equal the
oracle's byte for byte.  Bodies are compared as lists of lines, whose
mismatch pytest reports at once; a diff of two long strings takes minutes.

`cli._write` rewrites an output in place and trims it to the new body, so a
rewrite must give the bytes of a fresh write and keep the inode and mode,
and it must be the only code in the package that opens a path for writing.
"""

import ast
import errno
import json
import math
import os
import stat
from pathlib import Path

import numpy as np
import pytest

import wavestab
from wavestab import klcurve
from wavestab.cli import _fmt, main
from wavestab.continuation import newton_solve, surface_patch
from wavestab.criteria import functionals
from wavestab.elliptic import complete_integrals, jacobi_sn_cn_dn
from wavestab.evolution import BlowUpError, make_perturbation, stability_experiment
from wavestab.galerkin import assemble, spectrum
from wavestab.klcurve import solve_branch, sweep
from wavestab.multiplier import builtin_symbol
from wavestab.profile import build_dnoidal

from conftest import legendre_residual

SWEEP_HEADER = ["k", "L1", "L", "p", "stable"]
# (kmin, kmax, steps): the README grids, a grid that starts below the fold
# (no-root rows), the smallest grid and a large one
BRANCH_GRIDS = {
    "readme": None,
    "below_fold": (0.3, 0.999, 57),
    "steps2": (0.6, 0.9, 2),
    "steps1000": (0.05, 0.99, 1000),
}


def row_body(header, rows):
    """The per-cell row writer's body, as lines with their newlines."""
    return [",".join(map(_fmt, row)) + "\n" for row in [header, *rows]]


def body(path):
    """The lines of a CSV file after its provenance header."""
    with open(path) as f:
        return [ln for ln in f if not ln.startswith("#")]


def branch_rows(kmin, kmax, steps):
    """(k, L1, L, p, stable) per grid modulus by the row writer's rule: None
    and "no_root" where solve_branch finds no root, else the sign of p."""
    ks = np.linspace(kmin, kmax, steps)
    L1, L, p, _ = solve_branch(ks)
    return [(k, None, None, None, "no_root") if math.isnan(a)
            else (k, a, b, c, "1" if c > 0 else "0")
            for k, a, b, c in zip(ks.tolist(), L1.tolist(), L.tolist(), p.tolist())]


def grid_argv(grid):
    return [] if grid is None else ["--kmin", repr(grid[0]), "--kmax", repr(grid[1]),
                                    "--steps", str(grid[2])]


@pytest.mark.parametrize("name", BRANCH_GRIDS)
def test_sweep_body(tmp_path, name):
    grid = BRANCH_GRIDS[name] or (0.55, 0.95, 200)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *grid_argv(grid), "--out", str(out)]) == 0
    rows = branch_rows(*grid)
    assert body(out) == row_body(SWEEP_HEADER, rows)
    # sweep()'s rows are the columns the CLI writes
    assert sweep(np.linspace(*grid)) == [dict(zip(SWEEP_HEADER, r)) for r in rows]


@pytest.mark.parametrize("name", BRANCH_GRIDS)
def test_figure_bodies(tmp_path, name):
    grid = BRANCH_GRIDS[name] or (0.05, 0.99, 200)
    paths = {key: tmp_path / f"{key}.csv" for key in ("L1", "p")}
    rec = tmp_path / "rec.json"
    assert main(["reproduce-figure1", *grid_argv(BRANCH_GRIDS[name]),
                 "--out-L1", str(paths["L1"]), "--out-p", str(paths["p"]),
                 "--record-out", str(rec)]) == 0
    rows = branch_rows(*grid)
    assert body(paths["L1"]) == row_body(["k", "L1"], [(r[0], r[1]) for r in rows])
    assert body(paths["p"]) == row_body(["k", "p"], [(r[0], r[3]) for r in rows])
    ks = [r[0] for r in rows if r[3] is not None]
    ps = [r[3] for r in rows if r[3] is not None]
    lo, hi, passes = klcurve.sign_change(ks, ps)
    with open(rec) as f:
        record = json.load(f)
    assert (record["points_on_branch"], record["points_with_p_positive"],
            record["p_sign_change_k"], record["sign_change_passes"]) == (
        len(ks), sum(1 for p in ps if p > 0), 0.5 * (lo + hi), passes)


def wave08():
    return build_dnoidal(0.8, solve_branch(0.8)[1], 1.0, N=128)


@pytest.mark.parametrize("what", ["samples", "coeffs"])
def test_profile_body(tmp_path, what):
    out = tmp_path / "profile.csv"
    assert main(["profile", "--k", "0.8", "--what", what, "--out", str(out)]) == 0
    _, psi = wave08()
    if what == "samples":
        M = 4 * (psi.N + 1)
        expected = row_body(["x", "psi"],
                            zip(psi.grid(M).tolist(), psi.values(M).tolist()))
    else:
        expected = row_body(["n", "c_n"], enumerate(psi.coeffs.tolist()))
    assert body(out) == expected


def test_spectrum_body(tmp_path):
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--k", "0.8", "--N-op", "256", "--out", str(out),
                 "--record-out", str(tmp_path / "rec.json")]) == 0
    _, psi = wave08()
    op = assemble(psi, 1.0, builtin_symbol("kawahara"), N=256)
    vals = np.sort(np.concatenate([np.linalg.eigvalsh(op.even),
                                   np.linalg.eigvalsh(op.odd)]))
    assert body(out) == row_body(["index", "eigenvalue"], enumerate(vals.tolist()))
    # the record's counts are those of the resolved pairs
    rec = json.loads((tmp_path / "rec.json").read_text())
    rep = spectrum(op)
    assert (rec["n_neg"], rec["n_zero"], rec["gap"]) == (rep.n_neg, rep.n_zero, rep.gap)


def test_elliptic_check_body(tmp_path):
    # the battery's residuals are numpy and Python floats in one column
    out = tmp_path / "ell.csv"
    assert main(["elliptic-check", "--out", str(out)]) == 0
    rows = []
    for k in np.arange(0.1, 0.95, 0.1):
        pair = complete_integrals(k)
        u = np.linspace(0.0, 2.0 * pair.K, 64)
        s, c, d = jacobi_sn_cn_dn(u, k)
        d_shift = jacobi_sn_cn_dn(u + 2.0 * pair.K, k)[2]
        checks = {
            "legendre": abs(legendre_residual(k)),
            "dn0": abs(jacobi_sn_cn_dn(0.0, k)[2] - 1.0),
            "dnK": abs(jacobi_sn_cn_dn(pair.K, k)[2] - math.sqrt(1.0 - k * k)),
            "period": float(np.abs(d_shift - d).max()),
            "pythagoras": float(np.abs(d * d + k * k * s * s - 1.0).max()),
        }
        rows += [(round(float(k), 12), name, val, "PASS" if val < 1e-12 else "FAIL")
                 for name, val in checks.items()]
    assert body(out) == row_body(["k", "check", "residual", "status"], rows)


def test_continue_body(tmp_path):
    out = tmp_path / "patch.csv"
    assert main(["continue", "--k", "0.8", "--domega", "5e-3", "--dA", "5e-3",
                 "--out", str(out)]) == 0
    params, psi = wave08()
    sym = builtin_symbol("kawahara")
    center = newton_solve(psi, 1.0, params.A, sym)
    patch, _ = surface_patch(center, 5e-3, 5e-3, (2, 2), sym)
    rows = [(pt.omega, pt.A, pt.psi.mean(), functionals(pt.psi)[1],
             pt.residual_norm, pt.newton_iters) for _, pt in sorted(patch.items())]
    assert body(out) == row_body(
        ["omega", "A", "mean_psi", "F", "residual", "newton_iters"], rows)


@pytest.mark.parametrize("omega, flags, kind, kwargs, code", [
    (1.0, ["--T", "1", "--samples", "7"], dict(kind="mode"),
     dict(periods=1.0, n_samples=7), 0),
    (1.0, ["--T", "1", "--samples", "4", "--perturbation", "random", "--seed", "3"],
     dict(kind="random", seed=3), dict(periods=1.0, n_samples=4), 0),
    # blows up at t = 2.58: the partial body
    (100.0, ["--T", "50", "--samples", "5"], dict(kind="mode"),
     dict(periods=50.0, n_samples=5), 4),
], ids=["mode", "random", "blowup"])
def test_evolve_body(tmp_path, omega, flags, kind, kwargs, code):
    out = tmp_path / "evolve.csv"
    assert main(["evolve", "--k", "0.8", "--omega", repr(omega), "--grid", "64",
                 *flags, "--out", str(out)]) == code
    _, psi = build_dnoidal(0.8, solve_branch(0.8)[1], omega, N=128)
    v = make_perturbation(psi=psi, delta=1e-3, grid_size=64, **kind)
    try:
        series = stability_experiment(psi, omega, builtin_symbol("kawahara"), v,
                                      **kwargs)
    except BlowUpError as exc:
        series = exc.series
    header = ["t", "rho", "E", "F", "M", "deltaP"]
    assert body(out) == row_body(header, [[r[key] for key in header] for r in series])


SWEEP_ARGV = ["sweep", "--kmin", "0.6", "--kmax", "0.9", "--steps", "40"]
CRITERIA_ARGV = ["criteria", "--k", "0.8"]


def fresh_bytes(tmp_path, argv):
    path = tmp_path / "fresh"
    assert main([*argv, "--out", str(path)]) == 0
    return path.read_bytes()


@pytest.mark.parametrize("argv", [SWEEP_ARGV, CRITERIA_ARGV], ids=["sweep", "criteria"])
@pytest.mark.parametrize("old", ["longer", "shorter"])
def test_rewrite_gives_the_bytes_of_a_fresh_write(tmp_path, argv, old):
    expected = fresh_bytes(tmp_path, argv)
    out = tmp_path / "out"
    out.write_bytes(b"z" * (2 * len(expected)) if old == "longer" else b"old\n" * 10)
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == expected


def test_rewrite_keeps_inode_links_and_mode(tmp_path):
    out, link = tmp_path / "sweep.csv", tmp_path / "link.csv"
    out.write_bytes(b"old body\n" * 1000)
    out.chmod(0o640)
    os.link(out, link)
    before = out.stat()
    assert main([*SWEEP_ARGV, "--out", str(out)]) == 0
    after = out.stat()
    assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)
    assert link.read_bytes() == out.read_bytes() == fresh_bytes(tmp_path, SWEEP_ARGV)


def test_new_file_mode_follows_the_umask(tmp_path):
    out = tmp_path / "sweep.csv"
    umask = os.umask(0o027)
    try:
        assert main([*SWEEP_ARGV, "--out", str(out)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(out.stat().st_mode) == 0o640


def test_out_dev_null_exits_0(capsys):
    assert main([*SWEEP_ARGV, "--out", os.devnull]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_out_dev_full_exits_2(capsys):
    assert main([*SWEEP_ARGV, "--out", "/dev/full"]) == 2
    assert capsys.readouterr().err == (
        f"sweep: cannot write output file '/dev/full': {os.strerror(errno.ENOSPC)}\n")


def test_failed_write_leaves_no_old_bytes(tmp_path, capsys, monkeypatch):
    # the first write stores 100 bytes, the next fails: the file holds those
    # 100 bytes of the new body and nothing of the longer old one
    expected = fresh_bytes(tmp_path, SWEEP_ARGV)
    out = tmp_path / "out.csv"
    out.write_bytes(b"old\n" * len(expected))
    real_write = os.write

    def fail_after_100(fd, data):
        if os.lseek(fd, 0, os.SEEK_CUR) >= 100:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return real_write(fd, data[:100])

    with monkeypatch.context() as patch:
        patch.setattr(os, "write", fail_after_100)
        code = main([*SWEEP_ARGV, "--out", str(out)])
    assert code == 2
    assert out.read_bytes() == expected[:100]
    assert capsys.readouterr().err == (
        f"sweep: cannot write output file {str(out)!r}: {os.strerror(errno.EIO)}\n")


READ_FLAGS = {"os", "O_RDONLY", "O_CLOEXEC", "O_NOFOLLOW", "O_DIRECTORY", "O_NONBLOCK"}
PATH_WRITERS = {"write_text", "write_bytes", "tofile", "save", "savez",
                "savez_compressed", "savetxt"}


def opens_for_writing(call):
    """Whether a call opens a path for writing: open() in a mode with w, a, x
    or +, os.open() with a flag other than READ_FLAGS, or a pathlib or numpy
    file writer.  A mode or flags that are not literal count as writing."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = call.args[1] if len(call.args) > 1 else next(
            (kw.value for kw in call.keywords if kw.arg == "mode"), ast.Constant("r"))
        return not isinstance(mode, ast.Constant) or bool(set(mode.value) & set("wax+"))
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr == "open" and isinstance(func.value, ast.Name) and func.value.id == "os":
        flags = call.args[1] if len(call.args) > 1 else call.keywords[0].value
        names = {node.attr if isinstance(node, ast.Attribute) else node.id
                 for node in ast.walk(flags) if isinstance(node, (ast.Attribute, ast.Name))}
        return bool(names - READ_FLAGS)
    return func.attr in PATH_WRITERS


def writing_sites(source, module):
    """`module.function` of each call in `source` that opens a path for writing."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Call) and opens_for_writing(node):
            sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), module)
    return sites


@pytest.mark.parametrize("source, writes", [
    ("open(p)", False), ("open(p, 'rb')", False), ("open(p, mode='r')", False),
    ("os.open(p, os.O_RDONLY | os.O_CLOEXEC)", False), ("f.write(s)", False),
    ("open(p, 'w')", True), ("open(p, mode='a')", True), ("open(p, 'r+')", True),
    ("open(p, m)", True), ("os.open(p, os.O_WRONLY | os.O_CREAT, 0o666)", True),
    ("os.open(p, flags)", True), ("Path(p).write_text(s)", True),
    ("np.savetxt(p, a)", True),
])
def test_write_scan_tells_writers(source, writes):
    assert writing_sites(source, "m") == (["m"] if writes else [])


def test_cli_write_is_the_only_writer():
    # every command writes through cli._write, so none bypasses its contract
    package = Path(wavestab.__file__).parent
    sites = [site for path in sorted(package.glob("*.py"))
             for site in writing_sites(path.read_text(), path.stem)]
    assert sites == ["cli._write"]
