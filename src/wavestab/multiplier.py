"""Fourier-multiplier symbols for the dispersion operator.

A symbol theta maps a real wavenumber to a nonnegative value, vanishes at
zero and is even; MultiplierSymbol checks the last two, and conserved
relies on theta(0) = 0.  The paper's hypothesis also sandwiches theta between
A1*|kappa|^m2 and A2*|kappa|^m2 on the nonzero integers; no symbol carries
those bounds, and tests/test_multiplier.py checks them for each builtin.
The operator acts diagonally on Fourier modes; callers evaluate the symbol
at physical wavenumbers 2*pi*n/L0.  The Galerkin tail floor reads theta
over the truncated tail only; every builtin theta is nondecreasing in
|kappa|, so for them the same floor bounds the infinite tail as well.
"""

import numpy as np

__all__ = ["MultiplierSymbol", "builtin_symbol", "BUILTIN_NAMES"]

BUILTIN_NAMES = ("kawahara", "kdv", "bo", "fractional")


class MultiplierSymbol:
    """Named dispersion symbol theta, checked to vanish at zero and be even."""

    def __init__(self, name, func):
        self.name = name
        self._func = func
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
        return f"MultiplierSymbol({self.name!r})"


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
        return MultiplierSymbol("kawahara", lambda x: x**4 + x**2)
    if name == "kdv":
        return MultiplierSymbol("kdv", lambda x: x**2)
    if name == "bo":
        return MultiplierSymbol("bo", np.abs)
    if name == "fractional":
        if alpha is None or not (0.0 < alpha <= 2.0):
            raise ValueError(f"fractional symbol needs 0 < alpha <= 2, got {alpha!r}")
        a = float(alpha)
        return MultiplierSymbol(f"fractional({a:g})", lambda x: np.abs(x) ** a)
    raise ValueError(f"unknown symbol {name!r}; choose from {BUILTIN_NAMES}")
