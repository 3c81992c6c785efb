"""Fourier-multiplier symbols for the dispersion operator.

A symbol theta maps a real wavenumber to a nonnegative value, vanishes at
zero, is even, and is sandwiched between A1*|kappa|^m2 and A2*|kappa|^m2
on the nonzero integers.  The operator acts diagonally on Fourier modes;
callers evaluate the symbol at physical wavenumbers 2*pi*n/L0.
"""

import numpy as np

__all__ = ["MultiplierSymbol", "builtin_symbol", "verify_bounds", "BUILTIN_NAMES"]

BUILTIN_NAMES = ("kawahara", "kdv", "bo", "fractional")


class MultiplierSymbol:
    """Dispersion symbol theta with its order m2 and sandwich bounds A1, A2."""

    def __init__(self, name, func, m2, A1, A2, check=True):
        if m2 <= 0 or A1 <= 0 or A2 <= 0:
            raise ValueError("m2, A1, A2 must be positive")
        self.name = name
        self._func = func
        self.m2 = float(m2)
        self.A1 = float(A1)
        self.A2 = float(A2)
        if check:
            self._validate()

    def __call__(self, kappa):
        """theta(kappa) for scalar or array kappa."""
        kappa = np.asarray(kappa, dtype=float)
        out = self._func(kappa)
        return float(out) if out.ndim == 0 else out

    def _validate(self):
        if abs(self._func(np.float64(0.0))) > 0.0:
            raise ValueError(f"symbol {self.name!r}: theta(0) != 0")
        kk = np.linspace(0.25, 64.0, 257)
        if np.max(np.abs(self._func(kk) - self._func(-kk))) > 1e-12 * max(
            1.0, float(np.max(np.abs(self._func(kk))))
        ):
            raise ValueError(f"symbol {self.name!r}: theta is not even")

    def __repr__(self):
        return (
            f"MultiplierSymbol({self.name!r}, m2={self.m2}, "
            f"A1={self.A1}, A2={self.A2})"
        )


def builtin_symbol(name, alpha=None):
    """Construct one of the built-in symbols.

    kawahara:      theta = kappa^4 + kappa^2    (m2=4, A1=1, A2=2)
    kdv:           theta = kappa^2              (m2=2, A1=A2=1)
    bo:            theta = |kappa|              (m2=1, A1=A2=1)
    fractional:    theta = |kappa|^alpha, 0 < alpha <= 2

    alpha is required for fractional and rejected for the others.
    """
    if alpha is not None and name != "fractional":
        raise ValueError(f"symbol {name!r} takes no alpha")
    if name == "kawahara":
        return MultiplierSymbol("kawahara", lambda x: x**4 + x**2, 4.0, 1.0, 2.0)
    if name == "kdv":
        return MultiplierSymbol("kdv", lambda x: x**2, 2.0, 1.0, 1.0)
    if name == "bo":
        return MultiplierSymbol("bo", np.abs, 1.0, 1.0, 1.0)
    if name == "fractional":
        if alpha is None or not (0.0 < alpha <= 2.0):
            raise ValueError(f"fractional symbol needs 0 < alpha <= 2, got {alpha!r}")
        a = float(alpha)
        return MultiplierSymbol(
            f"fractional({a:g})", lambda x: np.abs(x) ** a, a, 1.0, 1.0
        )
    raise ValueError(f"unknown symbol {name!r}; choose from {BUILTIN_NAMES}")


def verify_bounds(sym, kappa_max):
    """Check A1*|kappa|^m2 <= theta(kappa) <= A2*|kappa|^m2 on 1 <= |kappa| <= kappa_max.

    Returns (ok, first_violating_kappa_or_None).  A relative slack of 1e-12
    absorbs rounding at exact-equality bounds.
    """
    if kappa_max < 1:
        raise ValueError("kappa_max must be >= 1")
    slack = 1e-12
    for n in range(1, int(kappa_max) + 1):
        for kappa in (float(n), float(-n)):
            th = sym(kappa)
            lo = sym.A1 * abs(kappa) ** sym.m2
            hi = sym.A2 * abs(kappa) ** sym.m2
            if th < lo * (1 - slack) or th > hi * (1 + slack):
                return False, kappa
    return True, None
