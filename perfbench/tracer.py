"""Span tracing of wavestab from outside the program.

`Tracer.install()` replaces the public functions of the traced modules with
wrappers that record a span per call: name, start, end, parent span and
operation id.  Every module attribute that refers to a wrapped function is
rebound, so names that callers bound at import (`cli.solve_L1`,
`criteria.spectrum`, ...) are traced as well.  `numpy.linalg.eigh` /
`eigvalsh` calls and `numpy.fft` transforms are counted against the
innermost open span.  `uninstall()` restores every original binding.

Spans stay in memory until `write()`; self time is a span's duration minus
the durations of its direct children (calls are strictly nested because the
benchmark runs one caller on one thread).
"""

import functools
import sys
import time
import types

import numpy as np

LAYERS = ("elliptic", "klcurve", "profile", "galerkin", "continuation",
          "criteria", "evolution", "cli")
_FFT_NAMES = ("fft", "ifft", "rfft", "irfft")
_EIGH_NAMES = ("eigh", "eigvalsh")

# span record fields
NAME, START, END, PARENT, OP, EIGH, FFT, FFT_BYTES, CHILD_S, ERROR = range(10)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}
        self.op_id = -1
        self.active = True        # False while the benchmark checks an output
        self._stack = []
        self._saved = []          # (owner, attribute, original) to restore

    # -- recording -------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id,
                           0, 0, 0, 0.0, False])
        self._stack.append(idx)
        return idx

    def _close(self, idx, failed):
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("span stack out of order")
        span = self.spans[idx]
        span[END] = end
        span[ERROR] = failed
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD_S] += end - span[START]

    def _count_on_top(self, field, amount):
        # every counted call is made inside cli.main, so a span is always open
        self.spans[self._stack[-1]][field] += amount

    def add(self, counter, amount):
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def span_wrapper(self, name, fn, on_call=None, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(tracer, args, kwargs)
            idx = tracer._open(name)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                tracer._close(idx, failed)
            if on_return is not None:
                on_return(tracer, result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, replacement):
        """Point every wavestab module attribute bound to `original` at `replacement`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "wavestab"
                                   or mod_name.startswith("wavestab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def install(self):
        import wavestab.cli as cli
        import wavestab.evolution as evolution
        import wavestab.galerkin as galerkin

        if self._saved:
            raise RuntimeError("tracer already installed")
        hooks = {
            "continuation.newton_solve": dict(on_return=_newton_iters),
        }
        for layer in LAYERS[:-1]:  # every layer but cli, whose main is wrapped below
            mod = sys.modules[f"wavestab.{layer}"]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if isinstance(fn, types.FunctionType):
                    span = f"{layer}.{name}"
                    self._rebind_everywhere(
                        fn, self.span_wrapper(span, fn, **hooks.get(span, {})))
        self._rebind_everywhere(cli.main, self.span_wrapper("cli.main", cli.main))

        ev = evolution.Evolver
        self._set(ev, "__init__",
                  self.span_wrapper("evolution.Evolver.init", ev.__init__))
        self._set(ev, "run", self.span_wrapper("evolution.run", ev.run,
                                               on_call=_run_steps))
        # not "evolution.step": that is the module-level function, which calls this
        self._set(ev, "step", self.span_wrapper("evolution.Evolver.step", ev.step,
                                                on_call=_one_step))
        init = galerkin.GalerkinOperator.__init__

        @functools.wraps(init)
        def counted_init(op_self, *args, **kwargs):
            if self.active:
                self.add("galerkin.operator_builds", 1)
            return init(op_self, *args, **kwargs)

        self._set(galerkin.GalerkinOperator, "__init__", counted_init)

        for name in _EIGH_NAMES:
            self._set(np.linalg, name, self._counting(getattr(np.linalg, name)))
        for name in _FFT_NAMES:
            self._set(np.fft, name, self._fft_counting(getattr(np.fft, name)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _counting(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                self._count_on_top(EIGH, 1)
            return fn(*args, **kwargs)
        return counted

    def _fft_counting(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            if self.active:
                self._count_on_top(FFT, 1)
                self._count_on_top(FFT_BYTES, np.asarray(a).nbytes + out.nbytes)
            return out
        return counted

    # -- output ----------------------------------------------------------

    def write(self, path):
        with open(path, "w") as f:
            f.write("index,name,start_s,end_s,parent,op,eigh,fft,fft_bytes,"
                    "self_s,error\n")
            t0 = self.spans[0][START] if self.spans else 0.0
            for i, s in enumerate(self.spans):
                f.write(f"{i},{s[NAME]},{s[START] - t0:.9f},{s[END] - t0:.9f},"
                        f"{s[PARENT]},{s[OP]},{s[EIGH]},{s[FFT]},{s[FFT_BYTES]},"
                        f"{s[END] - s[START] - s[CHILD_S]:.9f},{int(s[ERROR])}\n")


def _newton_iters(tracer, point):
    tracer.add("continuation.newton_iters", point.newton_iters)


def _run_steps(tracer, args, kwargs):
    nsteps = kwargs["nsteps"] if "nsteps" in kwargs else args[2]
    tracer.add("evolution.steps", int(nsteps))


def _one_step(tracer, args, kwargs):
    tracer.add("evolution.steps", 1)


def summarize(spans):
    """Per-name totals {name: {"calls", "self_s", "errors"}} and per-layer
    totals {layer: {"eigh", "fft", "fft_bytes", "self_s"}}."""
    by_name = {}
    layer_counts = {layer: {"eigh": 0, "fft": 0, "fft_bytes": 0, "self_s": 0.0}
                    for layer in LAYERS}
    for s in spans:
        entry = by_name.setdefault(s[NAME], {"calls": 0, "self_s": 0.0,
                                              "errors": 0})
        own = s[END] - s[START] - s[CHILD_S]
        entry["calls"] += 1
        entry["self_s"] += own
        entry["errors"] += int(s[ERROR])
        counts = layer_counts[s[NAME].split(".", 1)[0]]
        counts["self_s"] += own
        counts["eigh"] += s[EIGH]
        counts["fft"] += s[FFT]
        counts["fft_bytes"] += s[FFT_BYTES]
    return by_name, layer_counts
