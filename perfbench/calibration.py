"""Reference kernels that measure the machine's speed during a run.

On the 2-core container this benchmark was built on, speed changed by
20-40% (at times 2x) over tens of seconds as other tenants came and went,
far more than the regressions the benchmark must catch.  Between
operations, at most every CALIBRATE_EVERY_S, the benchmark times one kernel
that does the same kind of work as the workload but runs none of the
program's code.  Each operation's time is multiplied by
`REFERENCE_S / kernel time`, the kernel time being the mean of the samples
taken within WINDOW_S of the operation, so it reads as seconds on a machine
that runs the kernel in `REFERENCE_S`.  The mean, not the median: the
slowdowns come in bursts shorter than an operation, which an operation
averages over and a median of short samples would skip.  The raw times stay
in the report.  A change to the program cannot move a kernel.
"""

import bisect
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class _Point:
    k: float
    x: float
    roots: tuple


def interpreter_kernel(n=2500):
    """Float math, small tuples, sorting and frozen dataclasses, as in the branch walk."""
    out = []
    for i in range(n):
        k = 0.55 + 0.4 * i / n
        a, b = 1.0, math.sqrt(1.0 - k * k)
        for _ in range(40):
            if abs(a - b) <= 1e-15 * a:
                break
            a, b = 0.5 * (a + b), math.sqrt(a * b)
        K = math.pi / (2.0 * a)
        roots = sorted(K * math.cos((1.0 + 2.0 * math.pi * j) / 3.0) for j in range(3))
        best = min(roots, key=lambda x: abs(x - k))
        out.append(_Point(k=k, x=best, roots=tuple(roots)))
    return len(out)


_RNG = np.random.default_rng(20160708)
_SYM_513 = (lambda a: a + a.T)(_RNG.standard_normal((513, 513)))
_MODES = _RNG.standard_normal(128) + 1j * _RNG.standard_normal(128)
_PHASE = np.exp(1j * _RNG.standard_normal(128))


def dense_kernel():
    """A symmetric eigensolve at the larger operator size, plus interpreter work."""
    np.linalg.eigh(_SYM_513)
    interpreter_kernel(600)


def spectral_kernel(steps=600):
    """Short-array FFT round trips with elementwise products, as in one ETDRK4 stage."""
    v = _MODES
    for _ in range(steps):
        u = np.fft.ifft(v).real
        v = _PHASE * v + 1e-3j * np.fft.fft(u * u)
    return v


CALIBRATE_EVERY_S = 0.25
WINDOW_S = 3.0

# median kernel seconds on a 2-core x86-64 container, numpy 2.4 with OpenBLAS
REFERENCE_S = {
    "interpreter_kernel": 0.017,
    "dense_kernel": 0.035,
    "spectral_kernel": 0.017,
}


class Calibrator:
    """Samples one kernel between operations and scales times by its speed."""

    def __init__(self, kernel_name):
        self.kernel = globals()[kernel_name]
        self.reference_s = REFERENCE_S[kernel_name]
        self.at = []          # perf_counter() at the end of each sample
        self.seconds = []

    def sample(self, force=False):
        start = time.perf_counter()
        if force or start - self.at[-1] >= CALIBRATE_EVERY_S:
            self.kernel()
            end = time.perf_counter()
            self.at.append(end)
            self.seconds.append(end - start)

    def factor_at(self, t):
        """Scale for a time measured around `t`."""
        lo = bisect.bisect_left(self.at, t - WINDOW_S)
        hi = bisect.bisect_right(self.at, t + WINDOW_S)
        if lo == hi:  # an operation longer than the window: take the next sample
            lo = min(lo, len(self.at) - 1)
            hi = lo + 1
        return self.reference_s / statistics.fmean(self.seconds[lo:hi])
