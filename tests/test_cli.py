import contextlib
import io
import json
import shlex
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wavestab.cli import build_parser, main


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


def test_floating_point_breakdown_exits_3(tmp_path):
    # L**4 underflows to zero in the dnoidal coefficients
    assert run_cli(["profile", "--k", "0.8", "--L", "1e-300",
                    "--out", str(tmp_path / "p.csv")]) == 3


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
    (["sweep", "--steps", "-3"], None),
    (["continue", "--k", "0.8", "--domega", "0"], None),
    (["reproduce-figure1", "--kmin", "0.9", "--kmax", "0.5"], None),
    (["sweep", "--jobs", "2"], None),
    (["sweep", "--omega", "1.0"], None),
    (["reproduce-figure1", "--out", "figure.csv"], None),
    (["sweep", "--config", "{tmp}/missing.cfg"], None),
    (["profile", "--k", "0.8", "--conf", "{tmp}/run.cfg"], None),
    (["profile"], "k 0.8\n"),
    (["profile"], "k=0.8\nconfig=other.cfg\n"),
    (["profile"], "k=0.8\nomg=2.0\n"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else repr(v))
def test_invalid_input_exits_2(tmp_path, capsys, argv, config):
    argv = [a.format(tmp=tmp_path) for a in argv]
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.strip() and "Traceback" not in err


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


def test_readme_invocations_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [ln for ln in block.splitlines() if ln.startswith("wavestab ")]
    assert len(lines) == 8
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])
