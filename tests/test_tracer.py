"""The benchmark tracer (perfbench/tracer.py) patches wavestab by name:
Evolver.__init__, run and step, GalerkinOperator.__init__, every function in
a module's __all__, numpy.linalg.eigh/eigvalsh and numpy.fft.  A rename or a
removed name breaks `perfbench/run.py --trace 1`; this test catches that."""

import importlib
from pathlib import Path

import numpy as np

import wavestab.cli as cli
from wavestab.evolution import Evolver

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_counts_and_restores(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracer")
    tracer = tracing.Tracer()
    run, eigh = Evolver.run, np.linalg.eigh
    tracer.install()
    try:
        assert Evolver.run is not run and np.linalg.eigh is not eigh
        # cli.main is read at call time: install rebinds the module attribute
        assert cli.main(["evolve", "--k", "0.8", "--grid", "64", "--T", "0.5",
                         "--samples", "7", "--out", str(tmp_path / "evolve.csv")]) == 0
        assert cli.main(["criteria", "--k", "0.8", "--omega", "1.0",
                         "--out", str(tmp_path / "criteria.json")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.counters["evolution.steps"] > 0
    # every record is one orbital_distance and one conserved call, and the
    # wave's own conserved quantities are one more
    lines = (tmp_path / "evolve.csv").read_text().splitlines()
    rows = len(lines) - lines.index("t,rho,E,F,M,deltaP") - 1
    by_name, _ = tracing.summarize(tracer.spans)
    assert rows == 9
    assert by_name["evolution.orbital_distance"]["calls"] == rows
    assert by_name["evolution.conserved"]["calls"] == rows + 1
    # the criteria report's one eta/beta solve is an exported, traced function
    assert by_name["galerkin.solve_variations"]["calls"] == 1
    assert Evolver.run is run and np.linalg.eigh is eigh
