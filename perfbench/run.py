"""wavestab benchmark runner.

    python3 perfbench/run.py --workload branch-scan --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
`src/`.  One caller runs whole cycles of CLI operations in a closed loop
(the next operation starts when the previous one returns) through
`wavestab.cli.main(argv)`, writing into a scratch directory, until
`--seconds` have passed.  Each operation's output is checked after its
timer stops.

`--trace 0` prints the end-to-end metrics named in BENCHMARK.json;
`--trace 1` runs a fixed number of cycles untraced, traced, untraced and
traced again, checks that both traced passes made identical counts, and
prints the per-layer metrics together with the tracing overhead.  Spans go
to `perfbench/out/`.  The last line of standard output is the result
object; the lines before it are a report with the environment, the
operation mix, the sorted operation times and the metrics under the names
used in perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, cycle_rng

SETUP_PROBES = 4                  # fresh interpreters timed besides this one

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import and warm up, then print the seconds taken")
    return p.parse_args(argv)


def import_program():
    """Import wavestab from this checkout's src/, never from elsewhere."""
    if not (SRC / "wavestab" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program source at {SRC}/wavestab")
    sys.path.insert(0, str(SRC))
    import wavestab.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "wavestab":
        sys.exit(f"benchmark: imported wavestab from {cli.__file__}")
    return cli


def set_up(workload, scratch):
    """Import the program and run the workload's warm-up calls; returns (cli, seconds).

    The time is not calibrated: it is mostly imports, and it does not
    follow the calibration kernels when the machine's speed changes.
    """
    t0 = time.perf_counter()
    cli = import_program()
    for argv in workload.warmups(scratch):
        cli.main(argv)
    return cli, time.perf_counter() - t0


def probe_setup(args):
    """Set-up seconds of a fresh interpreter, measured inside it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          cwd=ROOT, check=True)
    return float(done.stdout)


class Result:
    def __init__(self, kind, start, seconds, units, error):
        self.kind, self.start, self.seconds = kind, start, seconds
        self.units, self.error = units, error
        self.scaled = seconds     # seconds at the calibration's reference speed


def run_op(cli, op, tracer=None):
    """Time one CLI call, then check its output with the clock and tracer stopped."""
    t0 = time.perf_counter()
    try:
        code = cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the benchmark counts the failure and goes on
        return Result(op.kind, t0, time.perf_counter() - t0, 0, repr(exc))
    seconds = time.perf_counter() - t0
    if code != 0:
        return Result(op.kind, t0, seconds, 0, f"exit code {code}")
    if tracer is not None:
        tracer.active = False
    try:
        units = op.check()
    except Exception as exc:  # failed check, unreadable or missing output
        return Result(op.kind, t0, seconds, 0, repr(exc))
    finally:
        if tracer is not None:
            tracer.active = True
    return Result(op.kind, t0, seconds, units, None)


def run_cycle(cli, workload, seed, scratch, index, tracer=None, after_op=None):
    results = []
    for op in workload.cycle(cycle_rng(workload.name, seed, index), scratch):
        if tracer is not None:
            tracer.op_id += 1
        results.append(run_op(cli, op, tracer))
        if after_op is not None:
            after_op()
    return results


def run_timed(cli, workload, seed, scratch, seconds, calibrator):
    """Whole cycles until `seconds` have passed and the workload's minimum is met.

    Samples the calibration kernel between operations and sets each
    result's scaled time; returns (results, cycles).
    """
    results = []
    t0 = time.perf_counter()
    calibrator.sample(force=True)
    index = 0
    while index < workload.min_cycles or time.perf_counter() - t0 < seconds:
        results += run_cycle(cli, workload, seed, scratch, index,
                             after_op=calibrator.sample)
        index += 1
    calibrator.sample(force=True)
    for r in results:
        r.scaled = r.seconds * calibrator.factor_at(r.start + 0.5 * r.seconds)
    return results, index


# -- end-to-end metrics -----------------------------------------------------

def _ok(results, prefix):
    return [r for r in results if r.error is None and r.kind.startswith(prefix)]


def _p90(values):
    return statistics.quantiles(values, n=10)[-1]


def _rate(results, attr):
    return sum(r.units for r in results) / sum(getattr(r, attr) for r in results)


def end_to_end(workload, results, attr):
    """Latency quantiles and work rates of one timed run, from `attr` times.

    Keys are the names of perfbench/README.md; the values follow the order
    of the generic BENCHMARK.json slots op_p50_s, op_p90_s, work_a_per_s and
    work_b_per_s.
    """
    prefix, latency_kind = workload.latency
    latencies = [getattr(r, attr) for r in _ok(results, latency_kind)]
    (a_name, a_kind), (b_name, b_kind) = workload.rates
    return {
        f"{prefix}_p50_s": (statistics.median(latencies), "s"),
        f"{prefix}_p90_s": (_p90(latencies), "s"),
        a_name: (_rate(_ok(results, a_kind), attr), "1/s"),
        b_name: (_rate(_ok(results, b_kind), attr), "1/s"),
    }


# -- per-layer metrics ------------------------------------------------------

def per_layer(spec, by_name, layers, counters):
    """Values of the per-layer metrics named in `spec` from one traced pass.

    `<layer>.self_s` is the self time of the whole layer, `<span>.calls` and
    `<span>.self_s` those of one wrapped function; the rest are derived.
    """
    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    def self_s(name):
        return by_name.get(name, {}).get("self_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    newton_calls = calls("continuation.newton_solve")
    newton_ok = newton_calls - by_name.get("continuation.newton_solve",
                                           {}).get("errors", 0)
    newton_iters = counters.get("continuation.newton_iters", 0)
    eigh = sum(c["eigh"] for c in layers.values())
    steps = counters.get("evolution.steps", 0)
    derived = {f"{layer}.self_s": c["self_s"] for layer, c in layers.items()}
    derived.update({
        "klcurve.roots_per_point": ratio(calls("klcurve.positive_roots"),
                                         calls("klcurve.solve_L1")),
        "galerkin.operator_builds": counters.get("galerkin.operator_builds", 0),
        "galerkin.eigh_calls": eigh,
        "galerkin.eigh_per_verdict": ratio(eigh, calls("criteria.evaluate_wave")),
        "continuation.newton_iters": newton_iters,
        "continuation.newton_iters_per_point": ratio(newton_iters, newton_ok),
        "continuation.converged_ratio": ratio(newton_ok, newton_calls),
        "evolution.steps": steps,
        "evolution.step_us": ratio(self_s("evolution.run") * 1e6, steps),
        "evolution.fft_calls": layers["evolution"]["fft"],
        "evolution.fft_bytes": layers["evolution"]["fft_bytes"],
    })
    values = {}
    for m in spec:
        name = m["name"]
        if name in derived:
            values[name] = derived[name]
        elif name.endswith(".calls"):
            values[name] = calls(name[: -len(".calls")])
        elif name.endswith(".self_s"):
            values[name] = self_s(name[: -len(".self_s")])
    return values


def exact_counts(by_name, layer_counts, counters):
    """The counts that must repeat exactly between two traced passes."""
    counts = {f"{n}.calls": v["calls"] for n, v in by_name.items()}
    counts.update({f"{layer}.{k}": v for layer, c in layer_counts.items()
                   for k, v in c.items() if k != "self_s"})
    counts.update(counters)
    return counts


def run_traced(cli, workload, seed, scratch, spec, spans_path):
    """Untraced, traced, untraced, traced passes over the same cycles."""
    from tracer import Tracer, summarize

    n = workload.trace_cycles
    walls = {"untraced": 0.0, "traced": 0.0}
    results, counts, values = [], [], []
    for label in ("untraced", "traced", "untraced", "traced"):
        tracer = Tracer() if label == "traced" else None
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            for index in range(n):
                results += run_cycle(cli, workload, seed, scratch, index, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        walls[label] += time.perf_counter() - t0
        if tracer is not None:
            by_name, layers = summarize(tracer.spans)
            counts.append(exact_counts(by_name, layers, tracer.counters))
            values.append(per_layer(spec, by_name, layers, tracer.counters))
    tracer.write(spans_path)
    metrics = {}
    for m in spec:
        name = m["name"]
        if name in values[0]:
            exact = m["unit"] in ("count", "bytes")
            metrics[name] = values[0][name] if exact else 0.5 * (
                values[0][name] + values[1][name])
    metrics["trace.overhead_ratio"] = walls["traced"] / walls["untraced"] - 1.0
    report = {
        "trace_cycles": n,
        "spans_per_pass": len(tracer.spans),
        "wall_s": walls,
        "counts_repeat_exactly": counts[0] == counts[1],
        "counts": counts[0],
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return results, metrics, counts[0] == counts[1], report


# -- environment ------------------------------------------------------------

def blas_threads():
    """OpenBLAS thread count from the library numpy loaded, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = {ln.split()[-1] for ln in f if "openblas" in ln.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "wavestab").glob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_wavestab_lines": src_lines,
    }


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="ops-", dir=out_dir)
    try:
        cli, setup_s = set_up(workload, scratch)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        report = {"workload": workload.name, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "environment": environment()}
        if args.trace:
            spans_path = out_dir / f"spans-{workload.name}.csv"
            results, metrics, repeat_ok, report["trace_report"] = run_traced(
                cli, workload, args.seed, scratch, spec["per_layer"], spans_path)
            correct_extra = repeat_ok
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
            from calibration import Calibrator

            calibrator = Calibrator(workload.kernel)
            t0 = time.perf_counter()
            results, cycles = run_timed(cli, workload, args.seed, scratch,
                                        args.seconds, calibrator)
            measured_s = time.perf_counter() - t0
            raw = end_to_end(workload, results, "seconds")
            scaled = end_to_end(workload, results, "scaled")
            metrics = dict(zip(("op_p50_s", "op_p90_s", "work_a_per_s",
                                "work_b_per_s"),
                               (value for value, _ in scaled.values())))
            failed = sum(1 for r in results if r.error is not None)
            metrics["setup_s"] = statistics.median(setups)
            metrics["success_rate"] = 1.0 - failed / len(results)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            raw["error_rate"] = (failed / len(results), "failed/attempted")
            report.update({
                "measured_s": measured_s,
                "cycles": cycles,
                "setup_runs_s": setups,
                "calibration": {"kernel": workload.kernel,
                                "samples": len(calibrator.seconds),
                                "median_s": statistics.median(calibrator.seconds),
                                "reference_s": calibrator.reference_s},
                "metrics": {n: {"value": v, "unit": u}
                            for n, (v, u) in scaled.items()},
                "raw_metrics": {n: {"value": v, "unit": u}
                                for n, (v, u) in raw.items()},
            })
            correct_extra = True
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        failed = [r for r in results if r.error is not None]
        report["mix"] = {kind: sum(1 for r in results if r.kind == kind)
                         for kind in sorted({r.kind for r in results})}
        report["sorted_op_seconds"] = {
            kind: sorted(round(r.seconds, 6) for r in results if r.kind == kind)
            for kind in report["mix"]}
        report["failures"] = [f"{r.kind}: {r.error}" for r in failed[:20]]
        print(json.dumps(report, indent=1))
        missing = set(units) - set(metrics)
        if missing:
            raise RuntimeError(f"metrics not computed: {sorted(missing)}")
        print(json.dumps({
            "correct": not failed and correct_extra,
            "attempted": len(results),
            "failed": len(failed),
            "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
        }))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
