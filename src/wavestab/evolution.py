"""Pseudospectral time integration of u_t + u u_x - (M u)_x = 0.

Fourth-order exponential time differencing (Kassam & Trefethen, SIAM J.
Sci. Comput. 26, 2005) with the dispersive part exp(i xi theta(xi) t)
integrated exactly; the phi-function weights are contour averages over a
full circle around each i*xi*theta*dt (a half circle plus real part is only
valid for real symbols).  The field is real and its quadratic term is
2/3-rule dealiased, so a state is the band of rfft modes 0..K with K the
largest integer below grid / 3 (dealiased_band); the modes above it are zero
and are not stored.

A stage's nonlinear term maps the band to grid values, squares them and maps
the square back to the band.  Up to DENSE_GRID_MAX points it does so with two
real matrices built once per Evolver: at those sizes an irfft/rfft pair costs
more in numpy call overhead than in arithmetic, and the two matrix products
were faster in every measured pass, with one BLAS thread as with two.  The
synthesis matrix is (2 band, grid) and the analysis matrix (grid, 2 band),
both Fortran-ordered, so one state's products, vector times matrix, are row
dot products in OpenBLAS, and a stack's are matrix-matrix by the same two
matrices.  The products call ndarray.dot, np.dot without its
__array_function__ dispatch.
Above DENSE_GRID_MAX the matrices grow as grid^2 (about 400 MB at grid 6144)
and their products lose to the FFT pair, so the step uses irfft/rfft.  Below
it the unpadded FFT pair won at about half of the grids from 153 to 240 and
lost by up to 8x where the grid has a large prime factor
(BENCH_evolution.json), so no smaller constant was faster at every grid.

The FFT pair calls the pocketfft gufuncs that np.fft.irfft and np.fft.rfft
wrap, bound once per Evolver.  The wrappers' Python checks (norm, dtype,
axis, out shape) cost about as much as the transform itself at grid 256, and
skipping them keeps the bits.  numpy.fft._pocketfft_umath is private; numpy
2.0 introduced it, and the tests pin its bits to the public functions.  The
pair runs at fft_size = smooth_size(grid) points, because pocketfft's cost
follows the size's prime factors (a 5-row pair took 176 us at 241 and 15 us
at 243): irfft with factor 1/grid gives u there, and rfft with factor
grid/fft_size the band of rfft(u^2) at the grid, exactly, since fft_size >=
grid > 3 (band - 1) keeps every square of band modes off the band.  Where
fft_size is the grid, the factors are np.fft's (1/grid and 1), and so are
the bits.

At these sizes a step's cost is numpy call dispatch, so each stage writes
into work buffers that Evolver.run allocates once: the transforms and every
line of the step's algebra take out=, in the operation order of the plain
expressions, so the bits are those of an allocating step.  The algebra is
stacked to make fewer calls: the state and three stage terms are the rows of
one (4, ...) buffer, one multiply by (E2, Q) forms two products at once, and
the update is one multiply by (E1, f1, f2, f3) and one sum over rows, which
adds them left to right as the plain expression does.  The band may carry a
leading stack axis, (S, band) for S states stepped together: the dense
products become matrix-matrix ones and the FFTs run along the last axis.
stability_experiment steps a stack of perturbations this way.

Conserved quantities: E = 1/2 int (M^{1/2}u)^2 - (1/6) int u^3, F, M.  The
cubic coefficient 1/6 is the one the flux form u_t = (Mu - u^2/2)_x
conserves, and it makes E + omega F + A M stationary at the wave.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .profile import CONTENT_RTOL, TAIL_RTOL, extract_A

__all__ = [
    "EvolutionState",
    "ConservedTriple",
    "BlowUpError",
    "Evolver",
    "conserved",
    "default_dt",
    "orbital_distance",
    "make_perturbation",
    "stability_experiment",
]

BLOWUP_SUP = 1e6
BLOWUP_CHECK_EVERY = 1000   # steps between sup-norm checks; the last step is checked too
CONTOUR_POINTS = 32
NEWTON_MAX_ITER = 20
MAX_STEPS = 10_000_000      # stability_experiment's cap: ~6 min at grid 256
DENSE_GRID_MAX = 240        # largest grid with the dense nonlinear term (BENCH_evolution.json)
DT_SAFETY = 0.5             # default_dt's step: DT_SAFETY / max(theta(xi_eff), 1)


def smooth_size(grid_size):
    """The smallest n >= grid_size whose only prime factors are 2, 3 and 5,
    a size at which pocketfft runs its fast transforms."""
    n = grid_size
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def dealiased_band(grid_size):
    """The largest mode K of the 2/3-rule band of a grid: the largest K with
    3K < grid, so that no product of two band modes aliases onto the band
    (at K = grid / 3, mode K times itself aliases onto mode -K)."""
    return (grid_size - 1) // 3


class BlowUpError(ArithmeticError):
    """Sup norm exceeded the blow-up threshold; carries the partial series.

    `rows` are the failed rows of a stepped stack ((0,) for one state).
    """

    def __init__(self, message, rows):
        super().__init__(message)
        self.rows = rows
        self.series = []


@dataclass(frozen=True)
class EvolutionState:
    """Solution snapshot: the dealiased rfft modes of a real periodic field."""

    t: float
    modes: np.ndarray        # rfft modes 0..dealiased_band(grid_size) (last axis; a
                             # stack leads with its own axis); irfft pads the rest
    L0: float
    grid_size: int           # not derivable from len(modes): three grids share a band

    def values(self):
        return np.fft.irfft(self.modes, self.grid_size)

    def mode_coefficients(self):
        """hat(u)(n) in the function convention u = sum hat(u) e^{2pi i n x/L0}."""
        return self.modes / self.grid_size


@dataclass(frozen=True)
class ConservedTriple:
    E: float
    F: float
    M: float


def state_from_profile(psi, grid_size=256):
    """Load the profile's modes in the dealiased band, 0..dealiased_band(grid).

    Raises ValueError when a dropped coefficient exceeds TAIL_RTOL of the
    largest oscillating one (FourierProfile.require_resolved).
    """
    band = dealiased_band(grid_size)
    psi.require_resolved(f"grid {grid_size} (modes up to {band})", band)
    return EvolutionState(t=0.0, modes=grid_size * psi.psi_hat(band), L0=psi.L0,
                          grid_size=grid_size)


def state_from_values(values, L0):
    """The state of grid values, or the stack of states of an (S, grid) stack.

    Raises ValueError when a row carries content above the dealiased band: a
    dropped mode above TAIL_RTOL of the row's largest oscillating mode and
    above CONTENT_RTOL of its largest mode (round-off of a constant row).
    """
    values = np.asarray(values, dtype=float)
    grid_size = values.shape[-1]
    band = dealiased_band(grid_size)
    full = np.fft.rfft(values)
    mags = np.abs(full)
    dropped = mags[..., band + 1 :].max(axis=-1, initial=0.0)
    floor = np.maximum(TAIL_RTOL * mags[..., 1 : band + 1].max(axis=-1, initial=0.0),
                       CONTENT_RTOL * mags.max(axis=-1))
    if np.any(dropped > floor):
        raise ValueError(f"grid values carry modes above the dealiased band of "
                         f"grid {grid_size} (modes up to {band})")
    return EvolutionState(t=0.0, modes=full[..., : band + 1], L0=float(L0),
                          grid_size=grid_size)


class _Work(NamedTuple):
    """Work buffers of one Evolver.run, allocated once for its state's shape,
    and the views of them that a step reads.

    They start at zero, so a stage term that _nonlin never writes is zero.
    """

    phys: np.ndarray    # grid values of a stage input, squared in place
    sink: tuple         # where stage i's transform back to the band writes
    N: tuple            # the four stage terms: band views of the sinks
    V: np.ndarray       # (4, *shape): vh, N1, N2 (then N2 + N3), N4
    vh: np.ndarray      # V[0], the state
    head: np.ndarray    # V[:2], vh and N1
    AB: np.ndarray      # (2, *shape): the stage inputs a and b (b, then c)
    a: np.ndarray
    b: np.ndarray
    P: np.ndarray       # (2, *shape): products by C2, rows Ev and QN
    Ev: np.ndarray
    QN: np.ndarray
    T: np.ndarray       # (4, *shape): the update's terms, products by W
    C2: np.ndarray      # (E2, Q), shaped to broadcast over the state's shape
    W: np.ndarray       # (E1, f1, f2, f3), likewise


class Evolver:
    """ETDRK4 stepper with precomputed weights for one (grid, dt, symbol).

    The step works on the dealiased band, modes 0..dealiased_band(grid), with
    the nonlinear factor -i xi / 2 folded into the weights: a stage's nonlinear
    term is the band of rfft(u^2).  `transform` names how it is computed:
    "dense" (grid <= DENSE_GRID_MAX) multiplies the band, viewed as
    interleaved real and imaginary parts, by a synthesis and an analysis
    matrix, one pair for one state and for a stack; "fft" uses an irfft/rfft
    pair, whose cost and memory stay bounded at large grids.  The pair is
    pocketfft's gufuncs at fft_size points, called without numpy's wrappers
    (see the module docstring); `run`'s blow-up check uses the irfft on
    either path.  `run` takes the band of one state, or a stack of S states
    as an (S, band) array, which it steps as one.
    """

    def __init__(self, L0, grid_size, sym, dt):
        self.dt = dt = float(dt)
        if not (math.isfinite(dt) and dt > 0.0):
            raise ValueError(f"dt must be finite and positive, not {dt!r}")
        self.L0 = float(L0)
        self.grid_size = G = int(grid_size)
        self.band = dealiased_band(G) + 1
        xi = 2.0 * math.pi * np.fft.rfftfreq(G, d=self.L0 / G)[: self.band]
        lin = 1j * xi * np.asarray(sym(xi), dtype=float)
        nl = -0.5j * xi
        r = np.exp(2j * np.pi * (np.arange(CONTOUR_POINTS) + 0.5) / CONTOUR_POINTS)
        # a dt so large that the weights overflow is refused below, not warned
        with np.errstate(over="ignore", invalid="ignore"):
            LR = dt * lin[:, None] + r[None, :]
            eLR = np.exp(LR)
            self.E1 = np.exp(dt * lin)
            self.E2 = np.exp(0.5 * dt * lin)
            self.Q = nl * dt * ((np.exp(LR / 2.0) - 1.0) / LR).mean(1)
            self.f1 = nl * dt * ((-4.0 - LR + eLR * (4.0 - 3.0 * LR + LR**2))
                                 / LR**3).mean(1)
            self.f2 = 2.0 * nl * dt * ((2.0 + LR + eLR * (LR - 2.0)) / LR**3).mean(1)
            self.f3 = nl * dt * ((-4.0 - 3.0 * LR - LR**2 + eLR * (4.0 - LR))
                                 / LR**3).mean(1)
        if not all(np.isfinite(w).all()
                   for w in (self.E1, self.E2, self.Q, self.f1, self.f2, self.f3)):
            raise ValueError(f"dt={dt!r} gives non-finite ETDRK4 weights")
        self.transform = "dense" if G <= DENSE_GRID_MAX else "fft"
        # the FFT pair runs at fft_size points (the module docstring says why
        # that is exact); the dense path's blow-up check at the grid
        self.fft_size = n = G if self.transform == "dense" else smooth_size(G)
        # the gufuncs np.fft.irfft(x, n) and np.fft.rfft(v) call; imported
        # here because numpy loads numpy.fft on first use only
        from numpy.fft import _pocketfft_umath as pocketfft
        self._irfft, self._inv_grid = pocketfft.irfft, 1.0 / G
        self._rfft = pocketfft.rfft_n_even if n % 2 == 0 else pocketfft.rfft_n_odd
        self._rfft_scale = G / n
        self._synth = self._anal = None
        if self.transform == "dense":
            # angles from the exact integer product, so each entry is
            # accurate to round-off; column 2m is Re v_m, 2m + 1 is Im v_m
            m = np.arange(self.band)
            angle = (2.0 * math.pi / G) * (np.outer(m, np.arange(G)) % G)
            cos, sin = np.cos(angle), np.sin(angle)
            weight = np.where(m == 0, 1.0, 2.0)[:, None] / G   # irfft's folding
            # (2 band, G) and (G, 2 band), Fortran-ordered, so that one
            # state's products are row dot products
            self._synth = np.asfortranarray(
                np.stack((weight * cos, -weight * sin), 1).reshape(-1, G))
            self._anal = np.stack((cos, -sin), 1).reshape(-1, G).T
            # np.dot's BLAS call without its __array_function__ dispatch,
            # which cost 0.2-0.4 us of a 2 us product at grid 128
            self._dot = np.ndarray.dot

    def _work(self, shape):
        """Buffers for band modes of `shape`, (band,) or a stack (S, band).

        Five rows hold vh, N1, N2 and N4 (V, rows 0 to 3) and N3 (row 4).
        The dense transform writes stage i's term into a float view of its
        band row; the FFT writes a full rfft row, whose band is the term.
        """
        lead = shape[:-1]
        width = self.band if self._synth is not None else self.fft_size // 2 + 1
        full = np.zeros((5, *lead, width), dtype=complex)
        rows = full[..., : self.band]
        N = (rows[1], rows[2], rows[4], rows[3])
        if self._synth is None:
            sink = (full[1], full[2], full[4], full[3])
        else:
            sink = tuple(n.view(float) for n in N)
        V = rows[:4]
        AB, P = np.zeros((2, 2, *shape), dtype=complex)
        ones = (1,) * len(lead)
        # the stacked weights: (E2, Q) pairs the products of a stage input
        # and a stage term, and (E1, f1, f2, f3) forms the update
        C2 = np.stack((self.E2, self.Q)).reshape(2, *ones, self.band)
        W = np.stack((self.E1, self.f1, self.f2, self.f3)).reshape(4, *ones, self.band)
        return _Work(np.zeros((*lead, self.fft_size)), sink, N, V, V[0], V[:2],
                     AB, *AB, P, *P, np.zeros((4, *shape), dtype=complex), C2, W)

    def _nonlin(self, x, i, work):
        """Band of rfft(u^2) for the band modes x of u, as the view work.N[i]."""
        phys, sink = work.phys, work.sink[i]
        if self._synth is None:
            self._irfft(x, self._inv_grid, out=phys)
            np.square(phys, out=phys)
            self._rfft(phys, self._rfft_scale, out=sink)
        else:
            self._dot(x.view(float), self._synth, out=phys)
            np.square(phys, out=phys)
            self._dot(phys, self._anal, out=sink)
        return work.N[i]

    def _step(self, work):
        """One step of the band modes work.vh, in place; four nonlinear terms.

        Each line is the out= form of
            Ev = E2 vh;  a = Ev + Q N1;  b = Ev + Q N2
            c = E2 a + Q (2 N3 - N1)
            vh <- E1 vh + f1 N1 + f2 (N2 + N3) + f3 N4
        with the same operands in the same order, so the bits are the same.
        One multiply by C2 = (E2, Q) gives E2 vh and Q N1, and another E2 a
        and Q (2 N3 - N1).  The update multiplies V = (vh, N1, N2 + N3, N4)
        by W = (E1, f1, f2, f3) and sums the rows left to right.
        """
        N1, N2, N3, _ = work.N
        a, b, Ev, QN, C2 = work.a, work.b, work.Ev, work.QN, work.C2
        self._nonlin(work.vh, 0, work)
        np.multiply(C2, work.head, out=work.P)
        np.add(Ev, QN, out=a)
        self._nonlin(a, 1, work)
        np.add(Ev, np.multiply(self.Q, N2, out=b), out=b)
        self._nonlin(b, 2, work)
        np.add(N2, N3, out=N2)
        np.subtract(np.multiply(2.0, N3, out=b), N1, out=b)
        np.multiply(C2, work.AB, out=work.P)
        self._nonlin(np.add(Ev, QN, out=b), 3, work)
        np.multiply(work.W, work.V, out=work.T)
        np.add.reduce(work.T, axis=0, out=work.vh)

    def step(self, state):
        return self.run(state, 1)

    def run(self, state, nsteps):
        """Advance nsteps; blow-up is checked every BLOWUP_CHECK_EVERY steps.

        The returned state owns its modes.  For a stack, BlowUpError.rows
        names the rows whose sup norm failed the check.
        """
        G = self.grid_size
        if state.grid_size != G or state.L0 != self.L0:
            raise ValueError("state incompatible with this evolver")
        work = self._work(np.shape(state.modes))
        vh = work.vh
        vh[...] = state.modes
        # a blowing-up state overflows before the check below sees it; the
        # BlowUpError is its one report
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(nsteps):
                self._step(work)
                if (s + 1) % BLOWUP_CHECK_EVERY == 0 or s == nsteps - 1:
                    self._irfft(vh, self._inv_grid, out=work.phys)
                    sup = np.abs(work.phys).max(axis=-1)
                    failed = ~(sup <= BLOWUP_SUP)  # also catches NaN
                    if failed.any():
                        raise BlowUpError(
                            f"blow-up at t={state.t + (s + 1) * self.dt:.6g}",
                            rows=tuple(np.flatnonzero(failed).tolist()))
        return EvolutionState(t=state.t + nsteps * self.dt, modes=vh.copy(),
                              L0=self.L0, grid_size=G)


def default_dt(state, sym):
    """(dt, xi_eff, theta(xi_eff)) with dt = DT_SAFETY / max(theta(xi_eff), 1),
    xi_eff the largest content-carrying wavenumber.

    Content is a mode magnitude above CONTENT_RTOL times the largest of its
    own state; in a stack of states, xi_eff is the largest over them.  The
    exact linear propagation keeps the scheme stable well beyond this, so
    the bound is an accuracy heuristic, gated in practice by the
    conservation drift checks.
    """
    mags = np.abs(np.atleast_2d(state.mode_coefficients()))
    content = mags > CONTENT_RTOL * mags.max(axis=1, keepdims=True)
    idx = np.nonzero(content.any(axis=0))[0]
    n_eff = max(int(idx.max()), 1) if len(idx) else 1
    xi_eff = 2.0 * math.pi * n_eff / state.L0
    th = float(sym(xi_eff))
    return DT_SAFETY / max(th, 1.0), xi_eff, th


def conserved(state, sym):
    """E (with the 1/6 cubic), F, M by spectral quadrature.

    The cubic term uses the dealiased physical-space product, exact for
    band-limited states.
    """
    L0 = state.L0
    M_grid = state.grid_size
    xi = 2.0 * math.pi * np.arange(state.modes.shape[-1]) / L0
    theta = np.asarray(sym(xi), dtype=float)
    u = state.values()
    coeffs = state.mode_coefficients()
    # modes +-n share theta and |c|, so the band's sum is doubled; that is
    # exact because theta(0) = 0 (MultiplierSymbol enforces it)
    quad = 2.0 * L0 * float(np.sum(theta * np.abs(coeffs) ** 2))
    cubic = (L0 / M_grid) * float(np.sum(u**3))
    E = 0.5 * quad - cubic / 6.0
    F = 0.5 * (L0 / M_grid) * float(np.sum(u * u))
    Mass = (L0 / M_grid) * float(np.sum(u))
    return ConservedTriple(E=E, F=F, M=Mass)


def orbital_distance(state, psi, sym):
    """Translation-minimized weighted distance to the wave's orbit.

    rho(u, psi)^2 = min_y  L0 * sum_n (1 + theta(xi_n)) |u_n e^{i xi_n y} - psi_n|^2,
    which maximizes the weighted cross-correlation g(y) = Re sum_n c_n e^{i xi_n y}.
    g is scanned at 4096 points over one period (more when the dealiased
    band exceeds that) by an inverse FFT, and the best sample is refined by
    Newton's method on the analytic g' and g''.
    Returns (rho, y_star).
    """
    if abs(state.L0 - psi.L0) > 1e-12 * psi.L0:
        raise ValueError("state and profile periods differ")
    L0 = psi.L0
    band = dealiased_band(state.grid_size)
    xi_pos = 2.0 * math.pi * np.arange(band + 1) / L0
    # 1 + theta, doubled for n >= 1: modes +-n are both counted
    dbl = np.ones(band + 1)
    dbl[1:] = 2.0
    weight = dbl * (1.0 + np.asarray(sym(xi_pos), dtype=float))
    ph = psi.psi_hat(band)
    uu = state.mode_coefficients()
    cross = weight * uu * np.conj(ph)

    # coarse scan: maximize the weighted cross-correlation via an inverse FFT
    samples = max(4096, len(ph))
    g = np.fft.ifft(cross, samples).real * samples
    h = L0 / samples
    y_star = y0 = int(np.argmax(g)) * h
    for _ in range(NEWTON_MAX_ITER):
        ce = cross * np.exp(1j * xi_pos * y_star)
        g2 = -float(np.dot(xi_pos * xi_pos, ce.real))
        if not g2 < 0.0:  # not concave here: keep the sample
            break
        step = -float(np.dot(xi_pos, ce.imag)) / g2
        y_star = min(max(y_star - step, y0 - h), y0 + h)
        if abs(step) <= 4.0 * np.finfo(float).eps * L0:
            break
    # direct per-mode evaluation; no cancellation between large sums
    diff = uu * np.exp(1j * xi_pos * y_star) - ph
    val = float(np.sum(weight * (diff.real**2 + diff.imag**2)))
    return math.sqrt(L0 * max(val, 0.0)), y_star


def perturbation_params(kind, mode=None, seed=None):
    """The parameters perturbation `kind` reads, a None one at its default;
    ValueError for an unknown kind or a parameter the kind does not read."""
    defaults = {"mode": {"mode": 1}, "random": {"seed": 0}, "mean": {}}
    if kind not in defaults:
        raise ValueError(f"unknown perturbation kind {kind!r}")
    given = {name: v for name, v in (("mode", mode), ("seed", seed)) if v is not None}
    foreign = [name for name in given if name not in defaults[kind]]
    if foreign:
        raise ValueError(f"a {kind} perturbation reads no {foreign[0]}")
    return {**defaults[kind], **given}


def make_perturbation(kind, psi, delta, grid_size=256, mode=None, seed=None):
    """Perturbation values on the grid, amplitude delta, with the mode or
    seed of perturbation_params; ValueError for a mode outside the dealiased
    band of the grid.  kind="mode": delta * cos(2 pi mode x / L0), mean
    preserving; kind="random": seeded band-limited random trigonometric
    polynomial (modes 1..8, both parities, O(1) amplitude), mean preserving;
    kind="mean": the constant delta, which moves the wave average.
    """
    params = perturbation_params(kind, mode, seed)
    if kind == "mean":
        return np.full(grid_size, delta)
    L0 = psi.L0
    x = np.arange(grid_size) * (L0 / grid_size)
    band = dealiased_band(grid_size)
    top = params.get("mode", 8)   # a random perturbation's highest mode
    if not 1 <= top <= band:
        what = "mode" if kind == "mode" else "random perturbation mode"
        raise ValueError(f"{what} {top} is outside 1..{band}, "
                         f"the dealiased band of grid {grid_size}")
    if kind == "mode":
        return delta * np.cos(2.0 * math.pi * top * x / L0)
    rng = np.random.default_rng(params["seed"])
    v = np.zeros(grid_size)
    for n in range(1, top + 1):
        amp_c, amp_s = rng.standard_normal(2)
        v += amp_c * np.cos(2.0 * math.pi * n * x / L0)
        v += amp_s * np.sin(2.0 * math.pi * n * x / L0)
    v *= 1.0 / math.sqrt(top)
    return delta * v


def stability_experiment(psi, omega, sym, perturbation, periods=50.0, dt=None,
                         n_samples=200):
    """Evolve psi + perturbation and record (t, rho, E, F, M, deltaP) time series.

    `perturbation` holds grid values (make_perturbation), and its length is
    the grid.  The horizon is `periods` temporal periods L0/omega.  deltaP is
    the conserved-combination difference P(u(t)) - P(psi) with P = E + omega
    F + A M, A from extract_A; it stays constant in t because all three
    pieces are conserved.
    The first record also gives the membership of u0 in the fixed-(F, M)
    manifold, the dt used, the step count and the Evolver's transform (and
    its fft_size on the FFT path); when
    dt is None, also dt_safety (DT_SAFETY), xi_eff and theta_eff of the
    default_dt rule that chose it, applied to the wave and the perturbations
    as one stack, each against its own largest mode.  n_samples below 1,
    perturbation content above the dealiased band (state_from_values), a dt
    longer than the horizon, or a horizon of more than MAX_STEPS steps raises
    ValueError before any step is taken; the last step may end up to one dt
    past the horizon.  A first record that is not finite (an overflowing
    perturbation) raises FloatingPointError.  On blow-up the partial series is attached to the
    exception.

    An (S, grid) stack of perturbations is stepped as one (S, band) stack and
    gives one series per row, the records of a run of that row alone: bit for
    bit for S = 1, and to round-off from S = 2, where the dense transform's
    matrix-matrix products round unlike one state's vector-matrix ones.  A
    blow-up's `rows` names the failed rows and carries every row's partial
    series.  An empty stack raises ValueError.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, not {n_samples!r}")
    vs = np.asarray(perturbation, dtype=float)
    if not vs.size:
        raise ValueError("the perturbation is empty")
    stacked = vs.ndim > 1
    grid_size = vs.shape[-1]
    A, _ = extract_A(psi, omega, sym)
    psi_state = state_from_profile(psi, grid_size)
    state = state_from_values(psi_state.values() + vs, psi.L0)
    rule = {}
    if dt is None:
        parts = np.vstack([psi_state.modes, state_from_values(vs, psi.L0).modes])
        dt, xi_eff, theta_eff = default_dt(replace(psi_state, modes=parts), sym)
        rule = {"dt_safety": DT_SAFETY, "xi_eff": xi_eff, "theta_eff": theta_eff}
    horizon = periods * psi.L0 / omega
    nsteps_float = horizon / dt
    if not nsteps_float <= MAX_STEPS:  # also catches inf and NaN
        raise ValueError(f"{nsteps_float:.3g} steps of dt={dt:.3g} exceed the "
                         f"{MAX_STEPS} step cap")
    if dt > horizon:
        raise ValueError(f"dt={dt:.6g} is longer than the horizon t={horizon:.6g}")
    nsteps_total = max(1, int(math.ceil(nsteps_float)))
    stride = max(1, nsteps_total // n_samples)
    ev = Evolver(psi.L0, grid_size, sym, dt)

    def record(st):
        rho, _ = orbital_distance(st, psi, sym)
        c = conserved(st, sym)
        dP = (c.E + omega * c.F + A * c.M) - P_psi
        return {"t": st.t, "rho": rho, "E": c.E, "F": c.F, "M": c.M,
                "deltaP": dP}

    def members(st):
        return [replace(st, modes=m) for m in st.modes] if stacked else [st]

    # an initial state that overflows is refused here, not warned; after a
    # step the blow-up check bounds the state
    with np.errstate(over="ignore", invalid="ignore"):
        cons_psi = conserved(psi_state, sym)
        P_psi = cons_psi.E + omega * cons_psi.F + A * cons_psi.M
        series = [[record(st)] for st in members(state)]
    if not all(math.isfinite(v) for (first,) in series for v in first.values()):
        raise FloatingPointError(f"non-finite first record at perturbation size "
                                 f"{float(np.abs(vs).max())!r}")
    for (first,) in series:
        first["on_manifold"] = bool(
            abs(first["F"] - cons_psi.F) <= 1e-10 * max(1.0, abs(cons_psi.F))
            and abs(first["M"] - cons_psi.M) <= 1e-10 * max(1.0, abs(cons_psi.M))
        )
        first.update(dt=dt, steps=nsteps_total, transform=ev.transform, **rule)
        if ev.transform == "fft":
            first["fft_size"] = ev.fft_size
    done = 0
    try:
        while done < nsteps_total:
            n = min(stride, nsteps_total - done)
            state = ev.run(state, n)
            done += n
            for s, st in zip(series, members(state)):
                s.append(record(st))
    except BlowUpError as exc:
        exc.series = series if stacked else series[0]
        raise
    return series if stacked else series[0]
