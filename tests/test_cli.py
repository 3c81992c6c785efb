import contextlib
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavestab
from wavestab import cli, klcurve, profile
from wavestab.cli import build_parser, main
from wavestab.continuation import NewtonDivergenceError
from wavestab.evolution import PERTURBATION_DEFAULTS, perturbation_params
from wavestab.galerkin import DegenerateOperatorError
from wavestab.klcurve import solve_branch
from wavestab.profile import build_dnoidal


def run_cli(args):
    return main(args)


def exit_code(argv):
    """main's return value, or the code of the SystemExit it raised."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def read(path):
    with open(path) as f:
        return f.read()


def body_of(text):
    """CSV content without provenance comments."""
    return "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))


def test_elliptic_check_passes(tmp_path):
    out = tmp_path / "ell.csv"
    assert run_cli(["elliptic-check", "--out", str(out)]) == 0
    lines = body_of(read(out)).splitlines()
    assert lines[0] == "k,check,residual,status"
    assert all(ln.endswith("PASS") for ln in lines[1:])


def test_sweep_header_and_markers(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--kmin", "0.5", "--kmax", "0.9", "--steps", "5",
                    "--out", str(out)]) == 0
    lines = body_of(read(out)).splitlines()
    assert lines[0] == "k,L1,L,p,stable"
    assert lines[1].startswith("0.5,,,,no_root")
    assert lines[-1].split(",")[-1] in ("0", "1")


def test_profile_coeffs_and_samples(tmp_path):
    for what in ("coeffs", "samples"):
        out = tmp_path / f"prof_{what}.csv"
        assert run_cli(["profile", "--k", "0.8", "--omega", "1.0",
                        "--what", what, "--out", str(out)]) == 0
        lines = body_of(read(out)).splitlines()
        assert len(lines) > 10


def test_spectrum_outputs(tmp_path):
    out = tmp_path / "spec.csv"
    rec = tmp_path / "spec.json"
    assert run_cli(["spectrum", "--k", "0.8", "--omega", "1.0",
                    "--N-op", "64", "--out", str(out),
                    "--record-out", str(rec)]) == 0
    lines = body_of(read(out)).splitlines()
    assert lines[0] == "index,eigenvalue"
    record = json.loads(read(rec))
    assert record["n_neg"] == 1 and record["n_zero"] == 1
    assert record["assumption_holds"] is True
    assert "tol_zero" in record


def test_criteria_record(tmp_path):
    rec = tmp_path / "crit.json"
    assert run_cli(["criteria", "--k", "0.8", "--omega", "1.0",
                    "--out", str(rec)]) == 0
    record = json.loads(read(rec))
    assert record["verdict"] == "stable_by_determinant"
    assert "tol_zero_band" in record and "tol_identity_rtol" in record


def test_criteria_record_names_its_inputs(tmp_path):
    runs = {"default": [], "bo": ["--symbol", "bo", "--N-op", "512"],
            "fractional": ["--symbol", "fractional", "--alpha", "1.5"]}
    records = {}
    for name, flags in runs.items():
        out = tmp_path / f"{name}.json"
        assert run_cli(["criteria", "--k", "0.8", *flags, "--out", str(out)]) == 0
        records[name] = json.loads(read(out))
    stated = {name: tuple(rec.get(key) for key in ("symbol", "N", "N_op", "alpha"))
              for name, rec in records.items()}
    assert stated == {"default": ("kawahara", 128, 256, None),
                      "bo": ("bo", 128, 512, None),
                      "fractional": ("fractional", 128, 256, 1.5)}
    assert "alpha" not in records["default"]


@pytest.mark.parametrize("flags", [
    ["--k", "0.8"], ["--k", "0.7", "--omega", "0.5"], ["--k", "0.95"],
    ["--k", "0.8", "--symbol", "kdv"], ["--k", "0.8", "--symbol", "bo"]])
def test_criteria_record_is_the_same_at_every_truncation(tmp_path, flags):
    # past psi.N + m modes the truncation adds nothing a report reads: the
    # records at --N-op 256, 512 and 2048 differ only in N_op
    records = []
    for n_op in (256, 512, 2048):
        out = tmp_path / f"{n_op}.json"
        assert run_cli(["criteria", *flags, "--N-op", str(n_op), "--out", str(out)]) == 0
        record = json.loads(read(out))
        assert record.pop("N_op") == n_op
        records.append(record)
    assert records[0] == records[1] == records[2]


@pytest.mark.parametrize("k, omega, n_op", [
    ("0.8", "1", "256"),     # stable_by_determinant
    ("0.7", "0.5", "512"),   # stable_by_constrained_coercivity
    ("0.75", "0.3", "256"),  # stable_by_constrained_coercivity
    ("0.95", "1", "256"),    # inconclusive: average below speed
])
def test_criteria_branch_L_matches_explicit_L(tmp_path, k, omega, n_op):
    # --L at the branch root gives the wave that --k alone resolves
    L = repr(solve_branch(float(k))[1])
    base = ["criteria", "--k", k, "--omega", omega, "--N-op", n_op]
    assert run_cli(base + ["--out", str(tmp_path / "k.json")]) == 0
    assert run_cli(base + ["--L", L, "--out", str(tmp_path / "L.json")]) == 0
    assert read(tmp_path / "k.json") == read(tmp_path / "L.json")


def test_criteria_no_branch_is_validation_error(tmp_path, capsys):
    assert exit_code(["criteria", "--k", "0.5", "--omega", "1.0",
                      "--out", str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().err == "criteria: no branch root at k=0.5\n"


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc_info:
        run_cli(["criteria"])
    assert exc_info.value.code == 2


def test_criteria_has_no_A_flag():
    # A is always recomputed from the wave, so the flag is not accepted
    with pytest.raises(SystemExit) as exc_info:
        run_cli(["criteria", "--k", "0.8", "--omega", "1.0", "--A", "0.1"])
    assert exc_info.value.code == 2


def test_floating_point_breakdown_exits_3(tmp_path, capsys):
    commands = (["profile"], ["spectrum", "--N-op", "16"], ["criteria", "--N-op", "16"],
                ["continue"], ["evolve", "--grid", "64", "--T", "0.02"])
    wave = "FloatingPointError('non-finite wave at k=0.8"
    tiny = ("1e-154", "1e-157", "-1e-160", "1e-162", "1e-300")
    # a huge but finite omega overflows the coefficients to inf and nan, and
    # L**4 underflows to zero in them; a tiny omega overflows the witness
    # quantities, which divide by it (1e-154 gave an Infinity in the record,
    # 1e-157 RuntimeWarnings and 1e-162 a ZeroDivisionError)
    cases = [*[(c + ["--omega", "1e308"], wave) for c in commands],
             (["criteria", "--L", "20", "--N-op", "16", "--omega", "1e308"], wave),
             *[(c + ["--L", "1e-300"], wave) for c in commands],
             *[(["criteria", "--N-op", "16", f"--omega={omega}"], f" at omega={omega}')")
               for omega in tiny]]
    for argv, message in cases:
        capsys.readouterr()
        assert run_cli(argv + ["--k", "0.8", "--N", "16",
                               "--out", str(tmp_path / "w.csv")]) == 3, argv
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, argv
        assert "FloatingPointError('non-finite " in err and message in err, argv
    out = tmp_path / "record.json"
    assert run_cli(["criteria", "--k", "0.8", "--omega", "1e-150", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert all(math.isfinite(v) for v in record.values() if isinstance(v, float))


def test_blowup_exit_code(tmp_path):
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli(["evolve", "--k", "0.8", "--omega", "1.0",
                        "--delta", "5e6", "--perturbation", "mean",
                        "--T", "0.2", "--samples", "4",
                        "--out", str(tmp_path / "blow.csv")])
    assert code == 4


def test_blowup_prints_one_stderr_line(tmp_path):
    # run as a program, where numpy's RuntimeWarnings would reach stderr
    src = Path(wavestab.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "wavestab.cli", "evolve", "--k", "0.8",
         "--omega", "100", "--grid", "64", "--T", "50", "--samples", "5",
         "--out", str(tmp_path / "blow.csv")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 4
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("evolve: blow-up at t="), lines


@pytest.mark.parametrize("flags, code, message", [
    # a horizon of 1e300 periods keeps this dt shorter than the horizon
    (["--dt", "1e300", "--T", "1e300"], 2,
     "evolve: dt=1e+300 gives non-finite ETDRK4 weights"),
    (["--delta", "1e300"], 3,
     "evolve: numerical failure: FloatingPointError("
     "'non-finite first record at perturbation size 1e+300')"),
], ids=["dt", "delta"])
def test_evolve_overflow_refused(tmp_path, capsys, flags, code, message):
    # both printed RuntimeWarnings; --dt 1e300 then claimed a blow-up
    out = tmp_path / "w.csv"
    assert run_cli(["evolve", "--k", "0.8", "--T", "0.5", "--grid", "64",
                    *flags, "--out", str(out)]) == code
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


def test_continue_overflowing_step_writes_finite_rows(tmp_path, capsys):
    # --domega 1e300 wrote rows with F inf, residual nan and newton_iters 0
    out = tmp_path / "patch.csv"
    assert run_cli(["continue", "--k", "0.8", "--domega", "1e300",
                    "--out", str(out)]) == 0
    rows = [r.split(",") for r in body_of(read(out)).splitlines()[1:]]
    assert len(rows) == 5 and all(np.isfinite(float(c)) for r in rows for c in r)
    err = capsys.readouterr().err
    assert err.startswith("continue: 20 of 25 patch points missing: ")
    assert len(err.splitlines()) == 1


def test_evolve_series(tmp_path):
    out = tmp_path / "evolve.csv"
    assert run_cli(["evolve", "--k", "0.8", "--omega", "1.0", "--T", "0.2",
                    "--samples", "4", "--dt", "0.01",
                    "--out", str(out)]) == 0
    lines = body_of(read(out)).splitlines()
    assert lines[0] == "t,rho,E,F,M,deltaP"
    assert len(lines) >= 4


def test_evolve_header_records_dt_and_steps(tmp_path):
    out = tmp_path / "evolve.csv"
    assert run_cli(["evolve", "--k", "0.8", "--omega", "1.0", "--T", "0.2",
                    "--samples", "4", "--grid", "64", "--N", "16",
                    "--out", str(out)]) == 0
    text = read(out)
    header = dict(ln[2:].split("=", 1) for ln in text.splitlines()
                  if ln.startswith("# ") and "=" in ln)
    dt, steps = float(header["dt"]), int(header["steps"])
    assert 0 < dt < 1 and steps > 1
    assert "mode" in header and "seed" not in header
    # the automatic dt rule and the step's transform are in the header
    safety, theta = float(header["dt_safety"]), float(header["theta_eff"])
    assert float(header["xi_eff"]) > 0
    assert dt == safety / max(theta, 1.0)
    assert header["transform"] == "dense" and "fft_size" not in header
    # an explicit --dt has no rule to record; grid 384 steps with the FFT pair
    assert run_cli(["evolve", "--k", "0.8", "--T", "0.01", "--samples", "1",
                    "--grid", "384", "--dt", "0.01", "--out", str(out)]) == 0
    header = dict(ln[2:].split("=", 1) for ln in read(out).splitlines()
                  if ln.startswith("# ") and "=" in ln)
    assert header["transform"] == "fft" and "dt_safety" not in header
    assert header["fft_size"] == "384"
    last_t = float(body_of(text).splitlines()[-1].split(",")[0])
    assert last_t == pytest.approx(steps * dt, rel=1e-12)


def header_lines(path):
    return [ln for ln in read(path).splitlines() if ln.startswith("#")]


# the parsed arguments a header does not state: bookkeeping and output paths
_UNSTATED = {"command", "func", "config", "out", "out_L1", "out_p", "record_out"}


@pytest.mark.parametrize("argv", [
    ["elliptic-check"],
    ["sweep", "--kmin", "0.5", "--kmax", "0.9", "--steps", "5"],
    ["profile", "--k", "0.8", "--N", "32", "--what", "coeffs"],
    ["spectrum", "--k", "0.8", "--symbol", "fractional", "--alpha", "1.5",
     "--N", "64", "--N-op", "64"],
    ["continue", "--k", "0.8", "--symbol", "bo", "--L", "20",
     "--extent-omega", "1", "--extent-A", "0"],
    ["evolve", "--k", "0.8", "--grid", "64", "--T", "0.2", "--samples", "3",
     "--perturbation", "random", "--seed", "2", "--dt", "0.01"],
    ["reproduce-figure1", "--steps", "20"],
], ids=lambda argv: argv[0])
def test_header_states_every_set_argument(tmp_path, monkeypatch, argv):
    for name in cli.BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    outs = ["--out", str(tmp_path / "out.csv")]
    if argv[0] == "reproduce-figure1":
        outs = ["--out-L1", str(tmp_path / "L1.csv"), "--out-p", str(tmp_path / "p.csv"),
                "--record-out", str(tmp_path / "r.json")]
    assert run_cli(argv + outs) == 0
    args = build_parser().parse_args(argv + outs)
    stated = {f"# {key}={cli._fmt(value)}" for key, value in vars(args).items()
              if value is not None and key not in _UNSTATED}
    for path in outs[1::2]:
        if path.endswith(".csv"):
            lines = header_lines(path)
            assert lines[:4] == [f"# wavestab {wavestab.__version__}",
                                 f"# numpy {np.__version__}",
                                 "# env OPENBLAS_NUM_THREADS=1", f"# command {argv[0]}"]
            assert stated <= set(lines), stated - set(lines)
    if argv[0] in ("spectrum", "continue", "evolve"):
        assert any(ln.startswith("# L=") for ln in lines)
        assert any(ln.startswith("# symbol=") for ln in lines)


def test_blowup_header_states_the_run(tmp_path):
    # the blow-up header held only error and transform
    out = tmp_path / "blow.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        assert run_cli(["evolve", "--k", "0.8", "--grid", "64", "--T", "2",
                        "--perturbation", "mean", "--delta", "5e6", "--samples", "3",
                        "--out", str(out)]) == 4
    header = dict(ln[2:].split("=", 1) for ln in header_lines(out) if "=" in ln)
    assert header["error"] == "blow-up" and header["grid"] == "64"
    assert header["k"] == "0.8" and header["T_periods"] == "2.0"
    assert float(header["dt"]) > 0 and int(header["steps"]) > 1


def test_continue_patch(tmp_path, capsys):
    out = tmp_path / "patch.csv"
    assert run_cli(["continue", "--k", "0.8", "--omega", "1.0",
                    "--domega", "2e-3", "--dA", "2e-3",
                    "--extent-omega", "1", "--extent-A", "1",
                    "--out", str(out)]) == 0
    lines = body_of(read(out)).splitlines()
    assert lines[0] == "omega,A,mean_psi,F,residual,newton_iters"
    assert len(lines) == 10  # header + 3x3 grid
    assert capsys.readouterr().err == ""   # a complete patch reports nothing


def test_continue_reports_missing_points(tmp_path, capsys):
    # at steps of 5e-2 the default 2x2 extent converges at 12 of 25 points;
    # the rows written stay, and stderr names every grid offset without one
    out = tmp_path / "patch.csv"
    assert run_cli(["continue", "--k", "0.8", "--omega", "1.0",
                    "--domega", "5e-2", "--dA", "5e-2", "--out", str(out)]) == 0
    params, _ = build_dnoidal(0.8, solve_branch(0.8)[1], 1.0)
    rows = [r.split(",") for r in body_of(read(out)).splitlines()[1:]]
    written = {(round((float(r[0]) - 1.0) / 5e-2), round((float(r[1]) - params.A) / 5e-2))
               for r in rows}
    assert len(rows) == len(written) == 12
    missing = sorted({(i, j) for i in range(-2, 3) for j in range(-2, 3)} - written)
    assert (-2, -2) in missing
    assert capsys.readouterr().err == (
        "continue: 13 of 25 patch points missing: "
        + ", ".join(map(str, missing)) + "\n")


def test_reproduce_figure1(tmp_path):
    f1 = tmp_path / "L1.csv"
    f2 = tmp_path / "p.csv"
    rec = tmp_path / "rec.json"
    assert run_cli(["reproduce-figure1", "--steps", "40",
                    "--kmin", "0.5", "--kmax", "0.99",
                    "--out-L1", str(f1), "--out-p", str(f2),
                    "--record-out", str(rec)]) == 0
    record = json.loads(read(rec))
    assert record["points_with_p_positive"] > 0
    assert repr(record["p_sign_change_k"]) == "0.8489078546965656"
    assert 1 <= record["sign_change_passes"] <= klcurve.SIGN_CHANGE_PASSES
    assert body_of(read(f1)).splitlines()[0] == "k,L1"
    assert body_of(read(f2)).splitlines()[0] == "k,p"


@pytest.mark.parametrize("kmin, kmax", [("0.1", "0.5"),     # below the fold
                                        ("0.9", "0.99")])   # past the sign change
def test_reproduce_figure1_without_positive_p_exits_3(tmp_path, capsys, kmin, kmax):
    f1, f2, rec = tmp_path / "L1.csv", tmp_path / "p.csv", tmp_path / "rec.json"
    assert run_cli(["reproduce-figure1", "--kmin", kmin, "--kmax", kmax,
                    "--steps", "20", "--out-L1", str(f1), "--out-p", str(f2),
                    "--record-out", str(rec)]) == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("reproduce-figure1: ")
    record = json.loads(read(rec))
    assert record["points_with_p_positive"] == 0
    assert record["p_sign_change_k"] is None and record["sign_change_passes"] == 0
    assert f1.exists() and f2.exists()


@pytest.mark.parametrize("argv", [
    ["reproduce-figure1", "--steps", "200", "--out-L1", "L1.csv", "--out-p", "p.csv",
     "--record-out", "rec.json"],
    ["sweep", "--kmin", "0.55", "--kmax", "0.95", "--steps", "200", "--out", "sweep.csv"],
], ids=["reproduce-figure1", "sweep"])
def test_cubic_tolerance_applied(tmp_path, capsys, monkeypatch, argv):
    # the record's tol_cubic_residual_rel was stated and checked nowhere;
    # at a tolerance of 0 a branch root's round-off residual fails the check
    argv = [str(tmp_path / a) if a.endswith((".csv", ".json")) else a for a in argv]
    monkeypatch.setattr(klcurve, "CUBIC_RTOL", 0.0)
    assert run_cli(argv) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(f"{argv[0]}: numerical failure: ArithmeticError(")
    assert "relative cubic residual" in err and "at k=0." in err
    assert list(tmp_path.iterdir()) == []


def test_odd_content_is_a_numerical_failure(capsys, monkeypatch):
    # build_dnoidal refuses a wave whose samples carry odd content; no real
    # input reaches the check, so a patched measure trips it.  It raised a
    # bare RuntimeError, which escaped main as a traceback
    monkeypatch.setattr(profile, "_odd_content", lambda values: 1.0)
    assert exit_code(["profile", "--k", "0.8"]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("profile: numerical failure: ArithmeticError(")
    assert "odd content" in err


def test_figure_record_states_the_applied_tolerance(tmp_path):
    rec = tmp_path / "rec.json"
    assert run_cli(["reproduce-figure1", "--steps", "20", "--out-L1", str(tmp_path / "a"),
                    "--out-p", str(tmp_path / "b"), "--record-out", str(rec)]) == 0
    assert json.loads(read(rec))["tol_cubic_residual_rel"] == klcurve.CUBIC_RTOL == 1e-10


@pytest.mark.parametrize("argv", [
    ["reproduce-figure1", "--steps", "20", "--out-L1", "same.csv",
     "--out-p", "same.csv", "--record-out", "same.csv"],
    ["spectrum", "--k", "0.8", "--out", "same.csv", "--record-out", "{tmp}/same.csv"],
], ids=["figure", "spectrum"])
def test_outputs_sharing_a_file_refused(tmp_path, capsys, monkeypatch, argv):
    # one output would overwrite the other; the refusal names both flags and
    # leaves the file that was there as it was
    monkeypatch.chdir(tmp_path)
    (tmp_path / "same.csv").write_text("kept\n")
    assert exit_code([a.format(tmp=tmp_path) for a in argv]) == 2
    assert read(tmp_path / "same.csv") == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["same.csv"]
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and " and --" in err and err.startswith(f"{argv[0]}: --")


def test_outputs_sharing_stdout_allowed(capsys):
    assert run_cli(["spectrum", "--k", "0.8", "--N-op", "64", "--out", "-",
                    "--record-out", "-"]) == 0
    out = capsys.readouterr().out
    assert "# command spectrum" in out and '"n_neg"' in out


def test_determinism_bit_identical(tmp_path):
    a1 = tmp_path / "a1.csv"
    a2 = tmp_path / "a2.csv"
    for out in (a1, a2):
        assert run_cli(["sweep", "--kmin", "0.55", "--kmax", "0.9",
                        "--steps", "25", "--out", str(out)]) == 0
    assert read(a1) == read(a2)

    e1 = tmp_path / "e1.csv"
    e2 = tmp_path / "e2.csv"
    for out in (e1, e2):
        assert run_cli(["evolve", "--k", "0.8", "--omega", "1.0",
                        "--T", "0.1", "--samples", "3", "--dt", "0.01",
                        "--seed", "7", "--perturbation", "random",
                        "--out", str(out)]) == 0
    assert read(e1) == read(e2)


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kmin=0.6\nkmax=0.9\nsteps=7\n")
    out1 = tmp_path / "c1.csv"
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert len(body_of(read(out1)).splitlines()) == 8  # header + 7 rows
    # explicit flag overrides the file
    out2 = tmp_path / "c2.csv"
    assert run_cli(["sweep", "--config", str(cfg), "--steps", "3",
                    "--out", str(out2)]) == 0
    assert len(body_of(read(out2)).splitlines()) == 4
    # a flag whose default is None is typed by its flag, not left a string
    cfg.write_text("dt=0.01\n")
    out3 = tmp_path / "c3.csv"
    assert run_cli(["evolve", "--k", "0.8", "--omega", "1.0", "--T", "0.2",
                    "--samples", "4", "--config", str(cfg),
                    "--out", str(out3)]) == 0
    assert "# dt=0.01\n" in read(out3)
    # the file may supply the required --k; an explicit flag wins even when
    # it equals its default
    cfg.write_text("k=0.8\nomega=2.0\n")
    out4 = tmp_path / "c4.csv"
    assert run_cli(["profile", "--config", str(cfg), "--what", "coeffs",
                    "--out", str(out4)]) == 0
    assert "# k=0.8\n" in read(out4) and "# omega=2.0\n" in read(out4)
    out5 = tmp_path / "c5.csv"
    assert run_cli(["profile", "--omega", "1.0", "--config", str(cfg),
                    "--what", "coeffs", "--out", str(out5)]) == 0
    assert "# omega=1.0\n" in read(out5)


def test_validation_bad_range():
    assert run_cli(["sweep", "--kmin", "0.9", "--kmax", "0.5"]) == 2


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key=3\n")
    with pytest.raises(SystemExit) as exc_info:
        run_cli(["sweep", "--config", str(cfg)])
    assert exc_info.value.code == 2


@pytest.mark.parametrize("argv, config", [
    (["profile", "--k", "1.5"], None),
    (["profile", "--k", "nan"], None),
    (["spectrum", "--k", "0.8", "--N-op", "0"], None),
    (["spectrum", "--k", "0.8", "--symbol", "foo"], None),
    (["spectrum", "--k", "0.8", "--symbol", "fractional"], None),
    (["spectrum", "--k", "0.8", "--symbol", "kdv", "--alpha", "1.0"], None),
    (["evolve", "--k", "0.8", "--dt", "0"], None),
    (["evolve", "--k", "0.8", "--grid", "0"], None),
    (["evolve", "--k", "0.8", "--grid", "10"], None),
    (["evolve", "--k", "0.8", "--samples", "0"], None),
    (["evolve", "--k", "0.8", "--omega", "0"], None),
    (["evolve", "--k", "0.8", "--perturbation", "random", "--seed", "-1"], None),
    (["evolve", "--k", "0.8", "--grid", "64", "--mode", "500"], None),
    (["evolve", "--k", "0.8", "--grid", "64", "--mode", "22"], None),
    (["evolve", "--k", "0.8", "--mode", "0"], None),
    (["evolve", "--k", "0.8", "--mode", "-1"], None),
    (["evolve", "--k", "0.8", "--perturbation", "random", "--mode", "2"], None),
    (["evolve", "--k", "0.8", "--perturbation", "mean", "--mode", "1"], None),
    (["evolve", "--k", "0.8", "--seed", "1"], None),
    (["evolve", "--k", "0.8", "--perturbation", "mean", "--seed", "0"], None),
    (["evolve", "--k", "0.8"], "perturbation=random\nmode=3\n"),
    (["spectrum", "--k", "0.8", "--N-op", "2049"], None),
    (["evolve", "--k", "0.8", "--grid", "6145"], None),
    # the band of grid 24, modes up to 7, drops wave coefficients above 1e-10 of
    # the largest oscillating one; the mean c_0, which grows with omega, is not
    # the scale
    (["evolve", "--k", "0.999", "--grid", "24"], None),
    (["evolve", "--k", "0.8", "--grid", "24"], None),
    (["evolve", "--k", "0.8", "--grid", "24", "--omega", "100"], None),
    (["evolve", "--k", "0.8", "--grid", "24", "--omega", "10000"], None),
    (["evolve", "--k", "0.6", "--grid", "24"], None),
    (["evolve", "--k", "0.8", "--samples", "100001"], None),
    # one step of dt 100 would overshoot the horizon t = 12.9 by 87
    (["evolve", "--k", "0.8", "--dt", "100", "--T", "0.5", "--grid", "64"], None),
    (["sweep", "--steps", "-3"], None),
    (["sweep", "--steps", "100001"], None),
    (["reproduce-figure1", "--steps", "100001"], None),
    (["continue", "--k", "0.8", "--domega", "0"], None),
    (["criteria", "--k", "0.8", "--omega", "0"], None),
    (["continue", "--k", "0.8", "--extent-omega", "100000"], None),
    (["reproduce-figure1", "--kmin", "0.9", "--kmax", "0.5"], None),
    (["sweep", "--jobs", "2"], None),
    (["sweep", "--omega", "1.0"], None),
    (["reproduce-figure1", "--out", "figure.csv"], None),
    (["sweep", "--config", "{tmp}/missing.cfg"], None),
    # an output path that cannot be opened for writing
    (["sweep", "--out", "{tmp}/missing/x.csv"], None),
    (["sweep", "--out", "{tmp}"], None),
    (["criteria", "--k", "0.8", "--out", "{tmp}"], None),
    (["reproduce-figure1", "--out-L1", "{tmp}/missing/a.csv"], None),
    # one writable output and one refused: neither is written
    (["reproduce-figure1", "--steps", "20", "--out-L1", "{tmp}/a.csv",
      "--out-p", "{tmp}/none/p.csv"], None),
    (["reproduce-figure1", "--steps", "20", "--out-L1", "{tmp}/a.csv",
      "--out-p", "{tmp}/p.csv", "--record-out", "{tmp}"], None),
    (["spectrum", "--k", "0.8", "--N-op", "64", "--out", "{tmp}/s.csv",
      "--record-out", "{tmp}/none/r.json"], None),
    # a blow-up (exit 4 with a writable --out) reports the refused path alone
    (["evolve", "--k", "0.8", "--omega", "100", "--grid", "64", "--T", "50",
      "--samples", "5", "--out", "{tmp}"], None),
    (["profile", "--k", "0.8", "--conf", "{tmp}/run.cfg"], None),
    (["profile"], "k 0.8\n"),
    (["profile"], "k=0.8\nconfig=other.cfg\n"),
    (["profile"], "k=0.8\nomg=2.0\n"),
    # above elliptic.MODULUS_CAP = 1 - 1e-12, where the AGM refuses k
    (["profile", "--k", "0.9999999999999"], None),
    (["spectrum", "--k", "0.9999999999999"], None),
    (["criteria", "--k", "0.9999999999999"], None),
    (["continue", "--k", "0.9999999999999"], None),
    (["evolve", "--k", "0.9999999999999"], None),
    (["sweep", "--kmax", "0.9999999999999"], None),
    (["reproduce-figure1", "--kmax", "0.9999999999999"], None),
    # under-resolved waves: a profile tail above profile.TAIL_RTOL in the
    # wave (--N) or after the operator truncation (--N-op)
    (["profile", "--k", "0.8", "--N", "8"], None),
    (["spectrum", "--k", "0.95", "--N", "16", "--N-op", "16"], None),
    (["criteria", "--k", "0.999", "--omega", "1.0", "--N-op", "16"], None),
], ids=lambda v: " ".join(v) if isinstance(v, list) else repr(v))
def test_invalid_input_exits_2(tmp_path, capsys, monkeypatch, argv, config):
    argv = [a.format(tmp=tmp_path) for a in argv]
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    monkeypatch.chdir(tmp_path)   # where reproduce-figure1's default outputs go
    before = sorted(tmp_path.rglob("*"))
    assert exit_code(argv) == 2
    assert sorted(tmp_path.rglob("*")) == before   # a refused run writes no file
    err = capsys.readouterr().err
    assert err.strip() and "Traceback" not in err and "Warning" not in err
    # argparse prints its usage block; every other refusal is one line from main
    if not err.startswith("usage:"):
        assert len(err.splitlines()) == 1, err


def test_reproduce_figure1_failed_search_writes_nothing(tmp_path, capsys, monkeypatch):
    # the sign-change refinement runs before the first write: a branch root
    # refused in its second solve_branch call (the first is the grid's)
    # exits 3 with none of the three outputs on disk
    calls = []

    def second_fails(k):
        calls.append(k)
        if len(calls) == 2:
            raise ArithmeticError("injected branch root failure")
        return solve_branch(k)

    monkeypatch.setattr(klcurve, "solve_branch", second_fails)
    paths = [tmp_path / name for name in ("L1.csv", "p.csv", "rec.json")]
    assert run_cli(["reproduce-figure1", "--steps", "40", "--kmin", "0.5",
                    "--kmax", "0.99", "--out-L1", str(paths[0]), "--out-p",
                    str(paths[1]), "--record-out", str(paths[2])]) == 3
    assert len(calls) == 2
    err = capsys.readouterr().err
    assert err.startswith("reproduce-figure1: numerical failure: ArithmeticError(")
    assert not any(path.exists() for path in paths)


@pytest.mark.parametrize("error", [ValueError, np.linalg.LinAlgError,
                                   DegenerateOperatorError, NewtonDivergenceError,
                                   FloatingPointError], ids=lambda e: e.__name__)
@pytest.mark.parametrize("command, target", [
    # the ids keep the names of the wave and branch entries before
    # build_dnoidal and branch_columns
    *(pytest.param(command, "build_dnoidal", id=f"{command}-_resolve_wave")
      for command in ("profile", "spectrum", "criteria", "continue", "evolve")),
    pytest.param("sweep", "branch_columns", id="sweep-sweep"),
    pytest.param("reproduce-figure1", "branch_columns", id="reproduce-figure1-sweep"),
])
def test_failure_map(tmp_path, capsys, monkeypatch, command, target, error):
    # main alone maps a failure to an exit code: 2 for ValueError, 3 for the
    # numerical failures, LinAlgError included although it is a ValueError
    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(cli, target, fail)
    monkeypatch.chdir(tmp_path)
    argv = [command] if target == "branch_columns" else [command, "--k", "0.8"]
    assert exit_code(argv) == (2 if error is ValueError else 3)
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(f"{command}: ")


def test_evolve_flags_read_the_perturbation_table():
    # --perturbation's choices, and the defaults the --mode and --seed help
    # states, are evolution.PERTURBATION_DEFAULTS, which make_perturbation reads
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    actions = {a.dest: a for a in sub.choices["evolve"]._actions}
    assert actions["perturbation"].choices == tuple(PERTURBATION_DEFAULTS)
    assert actions["perturbation"].default in PERTURBATION_DEFAULTS
    for kind, defaults in PERTURBATION_DEFAULTS.items():
        assert perturbation_params(kind) == defaults
        for name, value in defaults.items():
            assert actions[name].default is None
            assert actions[name].help.endswith(f"--perturbation {kind} (default {value})")


def test_parser_reuse_leaks_no_state(tmp_path, capsys):
    # main reuses one parser per process; a config file or a failed call
    # must not change what the next call parses
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps=3\n")
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert "# steps=3" in read(out).splitlines()
    assert main(["sweep", "--out", str(out)]) == 0
    assert "# steps=200" in read(out).splitlines()
    assert len(body_of(read(out)).splitlines()) == 201

    calls = [["profile", "--k", "0.8", "--what", "coeffs"],
             ["sweep", "--kmin", "0.5", "--kmax", "0.9", "--steps", "5"]]
    before = []
    for argv in calls:
        assert main(argv + ["--out", str(out)]) == 0
        before.append(read(out))
    for bad in (["profile", "--k", "1.5"], ["sweep", "--kmin", "0.9", "--kmax", "0.5"],
                ["sweep", "--config", str(cfg), "--steps", "1"]):
        assert exit_code(bad + ["--out", str(out)]) == 2
    capsys.readouterr()
    for argv, text in zip(calls, before):
        assert main(argv + ["--out", str(out)]) == 0
        assert read(out) == text


@pytest.mark.parametrize("argv", [
    ["profile", "--N", "100000000"],
    ["evolve", "--grid", "64", "--N", "16", "--T", "0.02", "--omega", "1e-300"],
    ["evolve", "--grid", "64", "--N", "16", "--T", "0.02", "--dt", "1e-300"],
    ["evolve", "--grid", "64", "--N", "16", "--T", "1e300"],
    ["sweep", "--steps", "1000000000000"],
    ["reproduce-figure1", "--steps", "1000000000000"],
], ids=" ".join)
def test_work_caps_exit_2_quickly(tmp_path, capsys, argv):
    out = str(tmp_path / "w.csv")
    tail = {"sweep": ["--out", out],
            "reproduce-figure1": ["--out-L1", out, "--out-p", out,
                                  "--record-out", out]}.get(
        argv[0], ["--k", "0.8", "--out", out])
    t0 = time.perf_counter()
    assert exit_code(argv + tail) == 2
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert err.strip() and "Traceback" not in err
    assert not (tmp_path / "w.csv").exists()


_VALUES = st.one_of(
    st.floats().map(repr),
    st.integers(-5, 300).map(str),
    st.sampled_from(["", "nan", "-inf", "1e-300", "1e300", "0", "x", "0.8"]),
)
_FLAGS = {
    "profile": {"k": _VALUES, "omega": _VALUES, "L": _VALUES, "N": _VALUES,
                "what": st.sampled_from(["samples", "coeffs", "both"])},
    # at most 10 steps keeps each sweep cheap
    "sweep": {"kmin": _VALUES, "kmax": _VALUES,
              "steps": st.integers(-3, 10).map(str)},
}


@st.composite
def _invocations(draw):
    """(command, flag pairs, config-file pairs); 'bogus' is an unknown key."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = _FLAGS[command]
    names = st.lists(st.sampled_from(sorted(flags) + ["bogus"]), max_size=5)

    def draw_pairs():
        return [(name, draw(flags.get(name, _VALUES))) for name in draw(names)]

    return command, draw_pairs(), draw_pairs()


@settings(max_examples=50, deadline=None)
@given(_invocations())
def test_random_flags_and_config_exit_cleanly(invocation):
    command, flags, config = invocation
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, "--out", f"{tmp}/out.csv"]
        for name, value in flags:
            argv.append(f"--{name}={value}")
        if config:
            with open(f"{tmp}/run.cfg", "w") as f:
                f.write("".join(f"{name}={value}\n" for name, value in config))
            argv += ["--config", f"{tmp}/run.cfg"]
        with contextlib.redirect_stderr(err):
            code = exit_code(argv)
    assert code in (0, 2, 3, 4), (argv, config, code)
    assert "Traceback" not in err.getvalue()


# the contract fuzz's menu of edge values; the work flags stay small.  Moduli
# of the branch commands: far below the fold, the fold, 1/sqrt(2), the sign
# change of p and the modulus cap
_K_EDGE = ["1e-9", "0.5345", repr(1 / math.sqrt(2)), "0.849", "0.999999999999"]
_EDGE = {
    "k": ["1e-9", "0.3", "0.6", "0.8", "0.95", "0.999999"],
    "omega": ["1.0", "0.5", "-1.0", "100", "1e300", "-1e300", "1e-157", "-1e-154",
              "1e-300", "-1e-300"],
    "L": ["20", "1e300", "1e-300"],
    "alpha": ["nan", "inf", "0", "-1", "1.5"],
    "domega": ["5e-3", "1e300", "1e-300"],
    "dA": ["5e-3", "1e300", "1e-300"],
    "delta": ["1e-3", "0", "-5", "20", "1e300", "1e-300"],
    "dt": ["0.01", "100", "1e300", "1e-300"],
    "N": ["16", "32"],
    "N-op": ["16", "32", "64"],
    "grid": ["24", "48", "64"],
    "T": ["0.01", "0.05"],
    "samples": ["1", "3"],
    "extent-omega": ["0", "1"],
    "extent-A": ["0", "1"],
    "perturbation": ["mode", "random", "mean"],
    "mode": ["1", "3", "30"],
    "seed": ["0", "5"],
    "kmin": _K_EDGE,
    "kmax": _K_EDGE,
    "steps": [str(n) for n in range(2, 8)],
}
_FUZZ_FLAGS = {
    "profile": ["omega", "L", "N"],
    "spectrum": ["omega", "L", "N", "N-op"],
    "criteria": ["omega", "L", "N", "N-op"],
    "continue": ["omega", "L", "N", "domega", "dA", "extent-omega", "extent-A"],
    "evolve": ["omega", "L", "N", "delta", "dt", "grid", "T", "samples"],
    "sweep": ["kmin", "kmax", "steps"],
    "reproduce-figure1": ["kmin", "kmax", "steps"],
}
_BRANCH_COMMANDS = ("reproduce-figure1", "sweep")


def _fuzz_config(rng, command, path):
    """A --config file with one of the command's flags: an empty value, a
    repeated key, a key with spaces and underscores, or a line that is not
    UTF-8."""
    flag = rng.choice(_FUZZ_FLAGS[command])
    value, other = rng.choice(_EDGE[flag]), rng.choice(_EDGE[flag])
    path.write_bytes(rng.choice([
        f"{flag}=\n".encode(),
        f"{flag}={value}\n{flag}={other}\n".encode(),
        f"  {flag.replace('-', '_')}  =  {value}  \n".encode(),
        f"{flag}={value}\n".encode() + b"\xff\xfe=1\n",
    ]))
    return path


def _fuzz_argv(rng, out):
    """One invocation: a wave command with --k and some of its flags from
    _EDGE, or a branch command with all of them; the perturbation of evolve,
    a symbol (with or without --alpha) for the commands that take one,
    sometimes a --config file, and the outputs."""
    command = rng.choice(sorted(_FUZZ_FLAGS))
    branch = command in _BRANCH_COMMANDS
    # --flag=value, so that a negative value is not taken for a flag
    argv = [command] if branch else [command, "--k=" + rng.choice(_EDGE["k"])]
    for flag in _FUZZ_FLAGS[command]:
        if branch or rng.random() < 0.4:
            argv.append(f"--{flag}={rng.choice(_EDGE[flag])}")
    if command == "evolve":
        # --mode and --seed only with the kind that reads them; the mismatch
        # is a test_invalid_input_exits_2 row
        kind = rng.choice(_EDGE["perturbation"])
        argv.append(f"--perturbation={kind}")
        flag = {"mode": "mode", "random": "seed"}.get(kind)
        if flag and rng.random() < 0.5:
            argv.append(f"--{flag}={rng.choice(_EDGE[flag])}")
    if command in ("spectrum", "criteria", "continue", "evolve") and rng.random() < 0.3:
        symbol = rng.choice(["kawahara", "kdv", "bo", "fractional"])
        argv.append(f"--symbol={symbol}")
        if rng.random() < (0.8 if symbol == "fractional" else 0.1):
            argv.append(f"--alpha={rng.choice(_EDGE['alpha'])}")
    # small defaults for the work flags no draw has set
    for flag, small in (("N", "16"), ("N-op", "32"), ("grid", "48"), ("T", "0.02"),
                        ("samples", "2"), ("extent-omega", "1"), ("extent-A", "1")):
        if flag in _FUZZ_FLAGS[command] and not any(a.startswith(f"--{flag}=")
                                                    for a in argv):
            argv.append(f"--{flag}={small}")
    if rng.random() < 0.2:
        argv.append(f"--config={_fuzz_config(rng, command, out / 'run.cfg')}")
    if command == "reproduce-figure1":
        argv += [f"--out-L1={out / 'body'}", f"--out-p={out / 'p'}"]
    else:
        argv.append(f"--out={out / 'body'}")
    if command in ("spectrum", "reproduce-figure1"):
        argv.append(f"--record-out={out / 'record'}")
    return argv


def _unwritable(rng, argv, tmp):
    """argv with one of its output flags on a path that cannot be opened for
    writing: the directory tmp itself, or a file under a missing directory."""
    outs = [i for i, a in enumerate(argv) if a.startswith(("--out", "--record-out"))]
    i = rng.choice(outs)
    flag = argv[i].partition("=")[0]
    bad = rng.choice([tmp, tmp / "missing" / "out"])
    return argv[:i] + [f"{flag}={bad}"] + argv[i + 1:]


def _fuzz_call(argv):
    """Exit code and stderr of one call, with the contract's checks on both:
    exit 0, 2, 3 or 4, no traceback or warning, and at most one stderr line
    unless argparse prints its usage block."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = exit_code(argv)
    assert code in (0, 2, 3, 4), argv
    text = err.getvalue()
    assert "Traceback" not in text and "Warning" not in text, argv
    if not text.startswith("usage:"):
        assert len(text.splitlines()) <= 1, (argv, text)
    return code, text


@pytest.mark.parametrize("seed", range(3))
def test_cli_contract_fuzz(tmp_path, seed):
    # the contract of _fuzz_call, and no nan or inf cell in an exit-0 body.
    # About one draw in ten is run again with an unwritable output path,
    # which exits 2 with one line, or 3 when the run fails before it writes,
    # and writes none of its outputs.
    # A numpy warning fails the test through filterwarnings = error.
    rng = random.Random(seed)
    bad_rng = random.Random(-1 - seed)   # leaves the draws of rng as they were
    codes, bad_draws = set(), 0
    for _ in range(300):
        argv = _fuzz_argv(rng, tmp_path)
        for name in ("body", "p", "record"):
            (tmp_path / name).unlink(missing_ok=True)
        code, _ = _fuzz_call(argv)
        codes.add(code)
        if code == 0:
            out = read(tmp_path / "body")
            if argv[0] in ("spectrum", "criteria", "reproduce-figure1"):
                cells = [v for v in json.loads(out if argv[0] == "criteria" else
                                               read(tmp_path / "record")).values()
                         if isinstance(v, float)]
                assert all(np.isfinite(cells)), argv
            bodies = [] if argv[0] == "criteria" else [out]
            if argv[0] == "reproduce-figure1":
                bodies.append(read(tmp_path / "p"))
            for text in bodies:
                cells = ",".join(body_of(text).splitlines()[1:]).split(",")
                # the sweep's stable flag of a modulus with no branch root
                assert all(np.isfinite(float(c)) for c in cells
                           if c not in ("", "no_root")), argv
        if bad_rng.random() < 0.1:
            bad_draws += 1
            bad = _unwritable(bad_rng, argv, tmp_path)
            for name in ("body", "p", "record"):
                (tmp_path / name).unlink(missing_ok=True)
            bad_code, text = _fuzz_call(bad)
            assert bad_code == 2 or code == bad_code == 3, (bad, bad_code)
            assert text.strip(), bad
            # not even the outputs whose paths were writable
            assert not any((tmp_path / name).exists()
                           for name in ("body", "p", "record")), bad
    assert {0, 2} <= codes and bad_draws >= 10


def test_readme_invocations_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [ln for ln in block.splitlines() if ln.startswith("wavestab ")]
    assert len(lines) == 8
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])
