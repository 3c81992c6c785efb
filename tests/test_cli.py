import json
import os

import pytest

from wavestab.cli import main


def run_cli(args):
    return main(args)


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


def test_criteria_no_branch_is_validation_error(tmp_path, capsys):
    assert run_cli(["criteria", "--k", "0.5", "--omega", "1.0",
                    "--out", str(tmp_path / "x.json")]) == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc_info:
        run_cli(["criteria"])
    assert exc_info.value.code == 2


def test_criteria_has_no_A_flag():
    # A is always recomputed from the wave, so the flag is not accepted
    with pytest.raises(SystemExit) as exc_info:
        run_cli(["criteria", "--k", "0.8", "--omega", "1.0", "--A", "0.1"])
    assert exc_info.value.code == 2


def test_blowup_exit_code(tmp_path):
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli(["evolve", "--k", "0.8", "--omega", "1.0",
                        "--delta", "5e6", "--perturbation", "mean",
                        "--T", "0.2", "--samples", "4",
                        "--out", str(tmp_path / "blow.csv")])
    assert code == 4


def test_evolve_series(tmp_path):
    out = tmp_path / "evolve.csv"
    assert run_cli(["evolve", "--k", "0.8", "--omega", "1.0", "--T", "0.2",
                    "--samples", "4", "--dt", "0.01",
                    "--out", str(out)]) == 0
    lines = body_of(read(out)).splitlines()
    assert lines[0] == "t,rho,E,F,M,deltaP"
    assert len(lines) >= 4


def test_continue_patch(tmp_path):
    out = tmp_path / "patch.csv"
    assert run_cli(["continue", "--k", "0.8", "--omega", "1.0",
                    "--domega", "2e-3", "--dA", "2e-3",
                    "--extent-omega", "1", "--extent-A", "1",
                    "--out", str(out)]) == 0
    lines = body_of(read(out)).splitlines()
    assert lines[0] == "omega,A,mean_psi,F,residual"
    assert len(lines) == 10  # header + 3x3 grid


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
    assert record["p_sign_change_k"] is not None
    assert body_of(read(f1)).splitlines()[0] == "k,L1"
    assert body_of(read(f2)).splitlines()[0] == "k,p"


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


def test_sweep_jobs_parallel_matches_serial(tmp_path):
    s1 = tmp_path / "s1.csv"
    s2 = tmp_path / "s2.csv"
    assert run_cli(["sweep", "--kmin", "0.6", "--kmax", "0.9", "--steps", "9",
                    "--out", str(s1)]) == 0
    assert run_cli(["sweep", "--kmin", "0.6", "--kmax", "0.9", "--steps", "9",
                    "--jobs", "4", "--out", str(s2)]) == 0
    assert body_of(read(s1)) == body_of(read(s2))


def test_validation_bad_range():
    assert run_cli(["sweep", "--kmin", "0.9", "--kmax", "0.5"]) == 2


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key=3\n")
    with pytest.raises(SystemExit) as exc_info:
        run_cli(["sweep", "--config", str(cfg)])
    assert exc_info.value.code == 2
