"""Pseudospectral time integration of u_t + u u_x - (M u)_x = 0.

Fourth-order exponential time differencing (Kassam & Trefethen, SIAM J.
Sci. Comput. 26, 2005) with the dispersive part exp(i xi theta(xi) t)
integrated exactly; the phi-function weights are contour averages over a
full circle around each i*xi*theta*dt (a half circle plus real part is only
valid for real symbols).  The field is real and its quadratic term is
2/3-rule dealiased, so a state is the band of rfft modes 0..grid // 3; the
modes above it are zero and are not stored.

A stage's nonlinear term maps the band to grid values, squares them and maps
the square back to the band.  Up to DENSE_GRID_MAX points it does so with two
real matrices built once per Evolver: at those sizes an irfft/rfft pair costs
more in numpy call overhead than in arithmetic, and the two matrix products
were faster in every measured pass, with one BLAS thread as with two.  Above
it the matrices grow as grid^2 (about 400 MB at grid 6144) and their products
lose to the FFT pair, so the step uses irfft/rfft.

At these sizes a step's cost is numpy call dispatch, so each stage writes
into work buffers that Evolver.run allocates once: the transforms and every
line of the step's algebra take out=, in the operation order of the plain
expressions, so the bits are those of an allocating step.  The band may carry
a leading stack axis, (S, band) for S states stepped together: the dense
products become matrix-matrix ones and the FFTs run along the last axis.
stability_experiment steps a sequence of seeds this way.

Conserved quantities: E = 1/2 int (M^{1/2}u)^2 - (1/6) int u^3, F, M.  The
cubic coefficient 1/6 is the one the flux form u_t = (Mu - u^2/2)_x
conserves, and it makes E + omega F + A M stationary at the wave.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .profile import extract_A

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
MAX_STEPS = 10_000_000      # stability_experiment's cap: ~17 min at grid 256
DENSE_GRID_MAX = 240        # largest grid with the dense nonlinear term (measured crossover)


class BlowUpError(RuntimeError):
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
    modes: np.ndarray        # rfft modes 0..grid_size // 3 (last axis; a stack of
                             # states leads with its own axis); irfft pads the rest
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
    """Load the profile's modes in the dealiased band, n <= grid // 3.

    Raises ValueError when a dropped coefficient exceeds TAIL_RTOL of the
    largest oscillating one (FourierProfile.require_resolved).
    """
    band = grid_size // 3
    psi.require_resolved(f"grid {grid_size} (modes up to {band})", band)
    return EvolutionState(t=0.0, modes=grid_size * psi.psi_hat(band), L0=psi.L0,
                          grid_size=grid_size)


def state_from_values(values, L0):
    values = np.asarray(values, dtype=float)
    modes = np.fft.rfft(values)[: len(values) // 3 + 1]
    return EvolutionState(t=0.0, modes=modes, L0=float(L0), grid_size=len(values))


class _Work(NamedTuple):
    """Work buffers of one Evolver.run, allocated once for its state's shape."""

    phys: np.ndarray    # grid values of a stage input, squared in place
    sink: tuple         # where stage i's transform back to the band writes
    N: tuple            # the four stage terms: band views of the sinks
    ev: np.ndarray      # E2 vh, then E2 a
    a: np.ndarray       # the second stage input, then the step's sum terms
    b: np.ndarray       # the third and fourth stage inputs


class Evolver:
    """ETDRK4 stepper with precomputed weights for one (grid, dt, symbol).

    The step works on the dealiased band, modes 0..grid // 3, with the
    nonlinear factor -i xi / 2 folded into the weights: a stage's nonlinear
    term is the band of rfft(u^2).  `transform` names how it is computed:
    "dense" (grid <= DENSE_GRID_MAX) multiplies the band, viewed as
    interleaved real and imaginary parts, by a synthesis and an analysis
    matrix; "fft" uses an irfft/rfft pair, whose cost and memory stay bounded
    at large grids.  `run` takes the band of one state, or a stack of S
    states as an (S, band) array, which it steps as one.
    """

    def __init__(self, L0, grid_size, sym, dt):
        self.dt = dt = float(dt)
        if not (math.isfinite(dt) and dt > 0.0):
            raise ValueError(f"dt must be finite and positive, not {dt!r}")
        self.L0 = float(L0)
        self.grid_size = G = int(grid_size)
        self.band = G // 3 + 1
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
        self._synth = self._anal = None
        if self.transform == "dense":
            # angles from the exact integer product, so each entry is
            # accurate to round-off; row 2n is Re v_n, row 2n + 1 is Im v_n
            n = np.arange(self.band)
            angle = (2.0 * math.pi / G) * (np.outer(n, np.arange(G)) % G)
            cos, sin = np.cos(angle), np.sin(angle)
            weight = np.where(n == 0, 1.0, 2.0)[:, None] / G   # irfft's folding
            self._synth = np.stack((weight * cos, -weight * sin), 1).reshape(-1, G)
            self._anal = np.ascontiguousarray(np.stack((cos, -sin), 1).reshape(-1, G).T)

    def _work(self, shape):
        """Buffers for band modes of `shape`, (band,) or a stack (S, band).

        The dense transform writes stage i's term into a float view of the
        band row N[i]; the FFT writes the full rfft row and N[i] is its band.
        """
        lead = shape[:-1]
        if self._synth is None:
            full = np.empty((4, *lead, self.grid_size // 2 + 1), dtype=complex)
            sink = tuple(full)
            N = tuple(full[..., : self.band])
        else:
            N = tuple(np.empty((4, *shape), dtype=complex))
            sink = tuple(n.view(float) for n in N)
        ev, a, b = np.empty((3, *shape), dtype=complex)
        return _Work(np.empty((*lead, self.grid_size)), sink, N, ev, a, b)

    def _nonlin(self, x, i, work):
        """Band of rfft(u^2) for the band modes x of u, as the view work.N[i]."""
        phys = work.phys
        if self._synth is None:
            np.fft.irfft(x, self.grid_size, out=phys)
            np.square(phys, out=phys)
            np.fft.rfft(phys, out=work.sink[i])
        else:
            np.dot(x.view(float), self._synth, out=phys)
            np.square(phys, out=phys)
            np.dot(phys, self._anal, out=work.sink[i])
        return work.N[i]

    def _step(self, vh, work):
        """One step of the band modes vh, in place; four nonlinear terms.

        Each line is the out= form of
            Ev = E2 vh;  a = Ev + Q N1;  b = Ev + Q N2
            c = E2 a + Q (2 N3 - N1)
            vh <- E1 vh + f1 N1 + f2 (N2 + N3) + f3 N4
        with the same operands in the same order, so the bits are the same.
        """
        E2, Q, ev, a, b = self.E2, self.Q, work.ev, work.a, work.b
        N1 = self._nonlin(vh, 0, work)
        np.multiply(E2, vh, out=ev)
        np.add(ev, np.multiply(Q, N1, out=a), out=a)
        N2 = self._nonlin(a, 1, work)
        np.add(ev, np.multiply(Q, N2, out=b), out=b)
        N3 = self._nonlin(b, 2, work)
        np.subtract(np.multiply(2.0, N3, out=b), N1, out=b)
        np.add(np.multiply(E2, a, out=ev), np.multiply(Q, b, out=b), out=b)
        N4 = self._nonlin(b, 3, work)
        np.multiply(self.E1, vh, out=vh)
        np.add(vh, np.multiply(self.f1, N1, out=a), out=vh)
        np.add(vh, np.multiply(self.f2, np.add(N2, N3, out=a), out=a), out=vh)
        np.add(vh, np.multiply(self.f3, N4, out=a), out=vh)

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
        vh = np.array(state.modes, dtype=complex)
        work = self._work(vh.shape)
        # a blowing-up state overflows before the check below sees it; the
        # BlowUpError is its one report
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(nsteps):
                self._step(vh, work)
                if (s + 1) % BLOWUP_CHECK_EVERY == 0 or s == nsteps - 1:
                    sup = np.abs(np.fft.irfft(vh, G)).max(axis=-1)
                    failed = ~(sup <= BLOWUP_SUP)  # also catches NaN
                    if failed.any():
                        raise BlowUpError(
                            f"blow-up at t={state.t + (s + 1) * self.dt:.6g}",
                            rows=tuple(np.flatnonzero(failed).tolist()))
        return EvolutionState(t=state.t + nsteps * self.dt, modes=vh, L0=self.L0,
                              grid_size=G)


def default_dt(state, sym, safety=0.5):
    """(dt, xi_eff, theta(xi_eff)) with dt = safety / max(theta(xi_eff), 1),
    xi_eff the largest content-carrying wavenumber.

    Content is a mode magnitude above 1e-12 times the largest of its own
    state; in a stack of states, xi_eff is the largest over them.  The
    exact linear propagation keeps the scheme stable well beyond this, so
    the bound is an accuracy heuristic, gated in practice by the
    conservation drift checks.
    """
    mags = np.abs(np.atleast_2d(state.mode_coefficients()))
    content = mags > 1e-12 * mags.max(axis=1, keepdims=True)
    idx = np.nonzero(content.any(axis=0))[0]
    n_eff = max(int(idx.max()), 1) if len(idx) else 1
    xi_eff = 2.0 * math.pi * n_eff / state.L0
    th = float(sym(xi_eff))
    return safety / max(th, 1.0), xi_eff, th


def conserved(state, sym):
    """E (with the 1/6 cubic), F, M by spectral quadrature.

    The cubic term uses the dealiased physical-space product, exact for
    band-limited states.
    """
    L0 = state.L0
    M_grid = state.grid_size
    u = state.values()
    coeffs = state.mode_coefficients()
    theta = np.asarray(sym(2.0 * math.pi * np.arange(len(coeffs)) / L0), dtype=float)
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
    band, modes up to grid // 3, exceeds that) by an inverse FFT, and
    the best sample is refined by Newton's method on the analytic g' and g''.
    Returns (rho, y_star).
    """
    if abs(state.L0 - psi.L0) > 1e-12 * psi.L0:
        raise ValueError("state and profile periods differ")
    L0 = psi.L0
    band = state.grid_size // 3
    xi_pos = 2.0 * math.pi * np.arange(band + 1) / L0
    w = 1.0 + np.asarray(sym(xi_pos), dtype=float)

    uu = state.mode_coefficients()
    ph = psi.psi_hat(band)
    # modes +-n both counted (n >= 1 doubled)
    dbl = np.ones(band + 1)
    dbl[1:] = 2.0
    cross = dbl * w * uu * np.conj(ph)

    # coarse scan: maximize the weighted cross-correlation via an inverse FFT
    samples = max(4096, band + 1)
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
    val = float(np.sum(dbl * w * (diff.real**2 + diff.imag**2)))
    return math.sqrt(L0 * max(val, 0.0)), y_star


def make_perturbation(kind, psi, delta, grid_size=256, mode=1, seed=0):
    """Perturbation values on the grid, amplitude delta.

    kind="mode": delta * cos(2 pi mode x / L0), mean preserving, for a mode
    in the dealiased band 1..grid_size // 3 (ValueError otherwise);
    kind="random": seeded band-limited random trigonometric polynomial
    (modes 1..8, both parities, O(1) amplitude), mean preserving;
    kind="mean": the constant delta, which moves the wave average.
    """
    L0 = psi.L0
    x = np.arange(grid_size) * (L0 / grid_size)
    if kind == "mode":
        if not 1 <= mode <= grid_size // 3:
            raise ValueError(f"mode {mode} is outside 1..{grid_size // 3}, "
                             f"the dealiased band of grid {grid_size}")
        return delta * np.cos(2.0 * math.pi * mode * x / L0)
    if kind == "random":
        rng = np.random.default_rng(seed)
        band = 8
        v = np.zeros(grid_size)
        for n in range(1, band + 1):
            amp_c, amp_s = rng.standard_normal(2)
            v += amp_c * np.cos(2.0 * math.pi * n * x / L0)
            v += amp_s * np.sin(2.0 * math.pi * n * x / L0)
        v *= 1.0 / math.sqrt(band)
        return delta * v
    if kind == "mean":
        return np.full(grid_size, delta)
    raise ValueError(f"unknown perturbation kind {kind!r}")


def stability_experiment(psi, omega, sym, kind="mode", delta=1e-3, periods=50.0,
                         grid_size=256, dt=None, seed=0, n_samples=200,
                         mode=1, dt_safety=0.5):
    """Evolve psi + delta*v and record (t, rho, E, F, M, deltaP) time series.

    The horizon is `periods` temporal periods L0/omega.  deltaP is the
    conserved-combination difference P(u(t)) - P(psi) with P = E + omega F
    + A M, A from extract_A; it stays constant in t because all three
    pieces are conserved.
    The first record also gives the membership of u0 in the fixed-(F, M)
    manifold, the dt used, the step count and the Evolver's transform; when
    dt is None, also dt_safety, xi_eff and theta_eff of the default_dt rule
    that chose it, applied to the wave and the perturbations as one stack,
    each against its own largest mode.  A dt longer than the horizon, or a
    horizon of more than MAX_STEPS steps, raises ValueError before any step
    is taken; the last step may end up to one dt past the horizon.  A first
    record that is not finite (an overflowing delta) raises
    FloatingPointError.  On blow-up the partial series is attached to the
    exception.

    `seed` may be a sequence of seeds: their states are stepped as one
    (S, band) stack and one series per seed is returned, each with the
    records of a single-seed run up to round-off: the dense transform's
    matrix-matrix products round differently from one seed's vector-matrix
    ones.  A blow-up names the failed seeds and carries every seed's
    partial series.
    """
    batched = np.ndim(seed) > 0
    seeds = list(seed) if batched else [seed]
    if not seeds:
        raise ValueError("seed is an empty sequence")
    vs = [make_perturbation(kind, psi, delta, grid_size=grid_size, mode=mode,
                            seed=s) for s in seeds]
    A, _ = extract_A(psi, omega, sym)
    psi_state = state_from_profile(psi, grid_size)
    states = [state_from_values(psi_state.values() + v, psi.L0) for v in vs]
    rule = {}
    if dt is None:
        parts = [psi_state.modes, *(state_from_values(v, psi.L0).modes for v in vs)]
        dt, xi_eff, theta_eff = default_dt(replace(psi_state, modes=np.stack(parts)),
                                           sym, dt_safety)
        rule = {"dt_safety": dt_safety, "xi_eff": xi_eff, "theta_eff": theta_eff}
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
        return [replace(st, modes=m) for m in st.modes] if batched else [st]

    # an initial state that overflows is refused here, not warned; after a
    # step the blow-up check bounds the state
    with np.errstate(over="ignore", invalid="ignore"):
        cons_psi = conserved(psi_state, sym)
        P_psi = cons_psi.E + omega * cons_psi.F + A * cons_psi.M
        series = [[record(st)] for st in states]
    if not all(math.isfinite(v) for (first,) in series for v in first.values()):
        raise FloatingPointError(f"non-finite first record at delta={delta!r}")
    for (first,) in series:
        first["on_manifold"] = bool(
            abs(first["F"] - cons_psi.F) <= 1e-10 * max(1.0, abs(cons_psi.F))
            and abs(first["M"] - cons_psi.M) <= 1e-10 * max(1.0, abs(cons_psi.M))
        )
        first.update(dt=dt, steps=nsteps_total, transform=ev.transform, **rule)
    stack = replace(states[0], modes=np.stack([st.modes for st in states])) \
        if batched else states[0]
    done = 0
    try:
        while done < nsteps_total:
            n = min(stride, nsteps_total - done)
            stack = ev.run(stack, n)
            done += n
            for s, st in zip(series, members(stack)):
                s.append(record(st))
    except BlowUpError as exc:
        if not batched:
            exc.series = series[0]
            raise
        failed = ", ".join(str(seeds[r]) for r in exc.rows)
        err = BlowUpError(f"seed {failed}: {exc}", exc.rows)
        err.series = series
        raise err from exc
    return series if batched else series[0]
