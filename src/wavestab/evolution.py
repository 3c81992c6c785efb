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

Conserved quantities: E = 1/2 int (M^{1/2}u)^2 - (1/6) int u^3, F, M.  The
cubic coefficient 1/6 is the one the flux form u_t = (Mu - u^2/2)_x
conserves, and it makes E + omega F + A M stationary at the wave.
"""

import math
from dataclasses import dataclass

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
MAX_STEPS = 10_000_000      # stability_experiment's cap: ~20 min at grid 256
DENSE_GRID_MAX = 240        # largest grid with the dense nonlinear term (measured crossover)


class BlowUpError(RuntimeError):
    """Sup norm exceeded the blow-up threshold; carries the partial series."""

    def __init__(self, message):
        super().__init__(message)
        self.series = []


@dataclass(frozen=True)
class EvolutionState:
    """Solution snapshot: the dealiased rfft modes of a real periodic field."""

    t: float
    modes: np.ndarray        # rfft modes 0..grid_size // 3; irfft pads the rest with zeros
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


class Evolver:
    """ETDRK4 stepper with precomputed weights for one (grid, dt, symbol).

    The step works on the dealiased band, modes 0..grid // 3, with the
    nonlinear factor -i xi / 2 folded into the weights: a stage's nonlinear
    term is the band of rfft(u^2).  `transform` names how it is computed:
    "dense" (grid <= DENSE_GRID_MAX) multiplies the band, viewed as
    interleaved real and imaginary parts, by a synthesis and an analysis
    matrix; "fft" uses an irfft/rfft pair, whose cost and memory stay bounded
    at large grids.
    """

    def __init__(self, L0, grid_size, sym, dt):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.L0 = float(L0)
        self.grid_size = G = int(grid_size)
        self.dt = dt = float(dt)
        self.band = G // 3 + 1
        xi = 2.0 * math.pi * np.fft.rfftfreq(G, d=self.L0 / G)[: self.band]
        lin = 1j * xi * np.asarray(sym(xi), dtype=float)
        nl = -0.5j * xi
        r = np.exp(2j * np.pi * (np.arange(CONTOUR_POINTS) + 0.5) / CONTOUR_POINTS)
        LR = dt * lin[:, None] + r[None, :]
        eLR = np.exp(LR)
        self.E1 = np.exp(dt * lin)
        self.E2 = np.exp(0.5 * dt * lin)
        self.Q = nl * dt * ((np.exp(LR / 2.0) - 1.0) / LR).mean(1)
        self.f1 = nl * dt * ((-4.0 - LR + eLR * (4.0 - 3.0 * LR + LR**2)) / LR**3).mean(1)
        self.f2 = 2.0 * nl * dt * ((2.0 + LR + eLR * (LR - 2.0)) / LR**3).mean(1)
        self.f3 = nl * dt * ((-4.0 - 3.0 * LR - LR**2 + eLR * (4.0 - LR)) / LR**3).mean(1)
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

    def _nonlin(self, vh):
        """Band of rfft(u^2) for the band modes vh of u."""
        if self._synth is None:
            return np.fft.rfft(np.fft.irfft(vh, self.grid_size) ** 2)[..., : self.band]
        return (np.square(vh.view(float) @ self._synth) @ self._anal).view(complex)

    def _step(self, vh):
        """One step of the band modes vh; four nonlinear terms."""
        N1 = self._nonlin(vh)
        Ev = self.E2 * vh
        a = Ev + self.Q * N1
        N2 = self._nonlin(a)
        N3 = self._nonlin(Ev + self.Q * N2)
        N4 = self._nonlin(self.E2 * a + self.Q * (2.0 * N3 - N1))
        return self.E1 * vh + self.f1 * N1 + self.f2 * (N2 + N3) + self.f3 * N4

    def step(self, state):
        return self.run(state, 1)

    def run(self, state, nsteps):
        """Advance nsteps; blow-up is checked every BLOWUP_CHECK_EVERY steps."""
        G = self.grid_size
        if state.grid_size != G or state.L0 != self.L0:
            raise ValueError("state incompatible with this evolver")
        vh = np.array(state.modes, dtype=complex)
        # a blowing-up state overflows before the check below sees it; the
        # BlowUpError is its one report
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(nsteps):
                vh = self._step(vh)
                if (s + 1) % BLOWUP_CHECK_EVERY == 0 or s == nsteps - 1:
                    sup = float(np.abs(np.fft.irfft(vh, G)).max())
                    if not (sup <= BLOWUP_SUP):  # also catches NaN
                        raise BlowUpError(
                            f"blow-up at t={state.t + (s + 1) * self.dt:.6g}")
        return EvolutionState(t=state.t + nsteps * self.dt, modes=vh, L0=self.L0,
                              grid_size=G)


def default_dt(state, sym, safety=0.5):
    """(dt, xi_eff, theta(xi_eff)) with dt = safety / max(theta(xi_eff), 1),
    xi_eff the largest content-carrying wavenumber.

    Content is a mode magnitude above 1e-12 times the largest; the exact
    linear propagation keeps the scheme stable well beyond this, so the
    bound is an accuracy heuristic, gated in practice by the conservation
    drift checks.
    """
    mags = np.abs(state.mode_coefficients())
    top = mags.max()
    idx = np.nonzero(mags > 1e-12 * top)[0]
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
    that chose it.  A horizon of more than
    MAX_STEPS steps raises ValueError before any step is taken.  On blow-up
    the partial series is attached to the exception.
    """
    v = make_perturbation(kind, psi, delta, grid_size=grid_size, mode=mode,
                          seed=seed)
    A, _ = extract_A(psi, omega, sym)
    psi_state = state_from_profile(psi, grid_size)
    state = state_from_values(psi_state.values() + v, psi.L0)
    rule = {}
    if dt is None:
        dt, xi_eff, theta_eff = default_dt(state, sym, dt_safety)
        rule = {"dt_safety": dt_safety, "xi_eff": xi_eff, "theta_eff": theta_eff}
    nsteps_float = periods * psi.L0 / omega / dt
    if not nsteps_float <= MAX_STEPS:  # also catches inf and NaN
        raise ValueError(f"{nsteps_float:.3g} steps of dt={dt:.3g} exceed the "
                         f"{MAX_STEPS} step cap")
    nsteps_total = max(1, int(math.ceil(nsteps_float)))
    stride = max(1, nsteps_total // n_samples)
    ev = Evolver(psi.L0, grid_size, sym, dt)
    cons_psi = conserved(psi_state, sym)
    P_psi = cons_psi.E + omega * cons_psi.F + A * cons_psi.M

    def record(st):
        rho, _ = orbital_distance(st, psi, sym)
        c = conserved(st, sym)
        dP = (c.E + omega * c.F + A * c.M) - P_psi
        return {"t": st.t, "rho": rho, "E": c.E, "F": c.F, "M": c.M,
                "deltaP": dP}

    series = [record(state)]
    first = series[0]
    first["on_manifold"] = bool(
        abs(first["F"] - cons_psi.F) <= 1e-10 * max(1.0, abs(cons_psi.F))
        and abs(first["M"] - cons_psi.M) <= 1e-10 * max(1.0, abs(cons_psi.M))
    )
    first.update(dt=dt, steps=nsteps_total, transform=ev.transform, **rule)
    done = 0
    try:
        while done < nsteps_total:
            n = min(stride, nsteps_total - done)
            state = ev.run(state, n)
            done += n
            series.append(record(state))
    except BlowUpError as exc:
        exc.series = series
        raise
    return series
