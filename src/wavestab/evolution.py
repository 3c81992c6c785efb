"""Pseudospectral time integration of u_t + u u_x - (M u)_x = 0.

Fourth-order exponential time differencing with the dispersive part
exp(i xi theta(xi) t) integrated exactly; the phi-function weights are
contour averages over a full circle around each i*xi*theta*dt (a half
circle plus real part is only valid for real symbols).  The quadratic term
is 2/3-rule dealiased.

Conserved quantities: E = 1/2 int (M^{1/2}u)^2 - (1/6) int u^3, F, M.  The
cubic coefficient 1/6 is the one the flux form u_t = (Mu - u^2/2)_x
conserves, and it makes E + omega F + A M stationary at the wave.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EvolutionState",
    "ConservedTriple",
    "BlowUpError",
    "Evolver",
    "conserved",
    "default_dt",
    "orbital_distance",
    "make_perturbation",
    "mass_energy_matched",
    "stability_experiment",
]

BLOWUP_SUP = 1e6
CONTOUR_POINTS = 32


class BlowUpError(RuntimeError):
    """Sup norm exceeded the blow-up threshold; carries the partial series."""

    def __init__(self, message, series=None):
        super().__init__(message)
        self.series = series or []


@dataclass(frozen=True)
class EvolutionState:
    """Solution snapshot: full-spectrum complex modes on a periodic grid."""

    t: float
    modes: np.ndarray        # numpy fft layout, length grid_size, dealiased
    L0: float

    @property
    def grid_size(self):
        return len(self.modes)

    def values(self):
        return np.fft.ifft(self.modes).real

    def mode_coefficients(self):
        """hat(u)(n) in the function convention u = sum hat(u) e^{2pi i n x/L0}."""
        return self.modes / self.grid_size


@dataclass(frozen=True)
class ConservedTriple:
    E: float
    F: float
    M: float


def _dealias_mask(grid_size):
    n = np.abs(np.fft.fftfreq(grid_size, d=1.0 / grid_size))
    return n <= grid_size // 3


def state_from_profile(psi, grid_size=256, t=0.0):
    """Band-limit the profile to the dealiased band and load it on the grid."""
    cut = min(psi.N, grid_size // 3)
    vals = psi.truncated(cut).values(grid_size)
    modes = np.fft.fft(vals) * _dealias_mask(grid_size)
    return EvolutionState(t=t, modes=modes, L0=psi.L0)


def state_from_values(values, L0, t=0.0):
    values = np.asarray(values, dtype=float)
    modes = np.fft.fft(values) * _dealias_mask(len(values))
    return EvolutionState(t=t, modes=modes, L0=float(L0))


class Evolver:
    """ETDRK4 stepper with precomputed weights for one (grid, dt, symbol)."""

    def __init__(self, L0, grid_size, sym, dt, nonlinear=True):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.L0 = float(L0)
        self.grid_size = int(grid_size)
        self.sym = sym
        self.dt = float(dt)
        self.nonlinear = nonlinear
        self.xi = 2.0 * math.pi * np.fft.fftfreq(self.grid_size, d=self.L0 / self.grid_size)
        self.theta = np.asarray(sym(self.xi), dtype=float)
        self.mask = _dealias_mask(self.grid_size)
        lin = 1j * self.xi * self.theta
        self._setup_weights(lin)

    def _setup_weights(self, lin):
        dt = self.dt
        r = np.exp(2j * np.pi * (np.arange(CONTOUR_POINTS) + 0.5) / CONTOUR_POINTS)
        LR = dt * lin[:, None] + r[None, :]
        eLR = np.exp(LR)
        self.E1 = np.exp(dt * lin)
        self.E2 = np.exp(0.5 * dt * lin)
        self.Q = dt * ((np.exp(LR / 2.0) - 1.0) / LR).mean(1)
        self.f1 = dt * ((-4.0 - LR + eLR * (4.0 - 3.0 * LR + LR**2)) / LR**3).mean(1)
        self.f2 = dt * ((2.0 + LR + eLR * (LR - 2.0)) / LR**3).mean(1)
        self.f3 = dt * ((-4.0 - 3.0 * LR - LR**2 + eLR * (4.0 - LR)) / LR**3).mean(1)

    def _nonlin(self, vh):
        if not self.nonlinear:
            return 0.0
        u = np.fft.ifft(vh).real
        return -0.5j * self.xi * (np.fft.fft(u * u) * self.mask)

    def step_modes(self, vh):
        N1 = self._nonlin(vh)
        a = self.E2 * vh + self.Q * N1
        N2 = self._nonlin(a)
        b = self.E2 * vh + self.Q * N2
        N3 = self._nonlin(b)
        c = self.E2 * a + self.Q * (2.0 * N3 - N1)
        N4 = self._nonlin(c)
        return self.E1 * vh + self.f1 * N1 + 2.0 * self.f2 * (N2 + N3) + self.f3 * N4

    def step(self, state):
        return self.run(state, 1)

    def run(self, state, nsteps, check_every=1000):
        """Advance nsteps; blow-up is checked every check_every steps."""
        if state.grid_size != self.grid_size or state.L0 != self.L0:
            raise ValueError("state incompatible with this evolver")
        vh = state.modes
        t = state.t
        for s in range(nsteps):
            vh = self.step_modes(vh)
            if (s + 1) % check_every == 0 or s == nsteps - 1:
                sup = float(np.abs(np.fft.ifft(vh).real).max())
                if not (sup <= BLOWUP_SUP):  # also catches NaN
                    raise BlowUpError(f"blow-up at t={t + (s + 1) * self.dt:.6g}")
        return EvolutionState(t=t + nsteps * self.dt, modes=vh, L0=self.L0)


def default_dt(state_or_profile, sym, safety=0.5, rel_floor=1e-12):
    """dt = safety / theta(xi_eff), xi_eff the largest content-carrying wavenumber.

    Content is measured relative to the largest mode magnitude; the exact
    linear propagation keeps the scheme stable well beyond this, so the
    bound is an accuracy heuristic, gated in practice by the conservation
    drift checks.
    """
    if isinstance(state_or_profile, EvolutionState):
        coeffs = np.abs(state_or_profile.mode_coefficients())
        L0 = state_or_profile.L0
        half = len(coeffs) // 2
        mags = coeffs[: half + 1]
    else:
        mags = np.abs(state_or_profile.coeffs)
        L0 = state_or_profile.L0
    top = mags.max()
    idx = np.nonzero(mags > rel_floor * top)[0]
    n_eff = max(int(idx.max()), 1) if len(idx) else 1
    xi_eff = 2.0 * math.pi * n_eff / L0
    th = float(sym(xi_eff))
    return safety / max(th, 1.0)


def conserved(state, sym):
    """E (with the 1/6 cubic), F, M by spectral quadrature.

    The cubic term uses the dealiased physical-space product, exact for
    band-limited states.
    """
    L0 = state.L0
    M_grid = state.grid_size
    u = state.values()
    coeffs = state.mode_coefficients()
    xi = 2.0 * math.pi * np.fft.fftfreq(M_grid, d=L0 / M_grid)
    theta = np.asarray(sym(xi), dtype=float)
    quad = L0 * float(np.sum(theta * np.abs(coeffs) ** 2))
    cubic = (L0 / M_grid) * float(np.sum(u**3))
    E = 0.5 * quad - cubic / 6.0
    F = 0.5 * (L0 / M_grid) * float(np.sum(u * u))
    Mass = (L0 / M_grid) * float(np.sum(u))
    return ConservedTriple(E=E, F=F, M=Mass)


def orbital_distance(state, psi, sym, samples=4096, refine_tol=1e-12):
    """Translation-minimized weighted distance to the wave's orbit.

    rho(u, psi)^2 = min_y  L0 * sum_n (1 + theta(xi_n)) |u_n e^{i xi_n y} - psi_n|^2,
    evaluated by a dense scan of the weighted cross-correlation over one
    period followed by golden-section refinement.  Returns (rho, y_star).
    """
    if abs(state.L0 - psi.L0) > 1e-12 * psi.L0:
        raise ValueError("state and profile periods differ")
    L0 = psi.L0
    M_grid = state.grid_size
    n_half = M_grid // 2
    xi_pos = 2.0 * math.pi * np.arange(n_half + 1) / L0
    w = 1.0 + np.asarray(sym(xi_pos), dtype=float)

    u = state.mode_coefficients()
    ph = psi.psi_hat(n_half)
    uu = u[: n_half + 1]
    # modes +-n both counted (n >= 1 doubled)
    dbl = np.ones(n_half + 1)
    dbl[1:] = 2.0
    cross = dbl * w * uu * np.conj(ph)

    # coarse scan: maximize the weighted cross-correlation via an inverse FFT
    padded = np.zeros(samples, dtype=complex)
    padded[: n_half + 1] = cross
    g = np.fft.ifft(padded).real * samples
    j = int(np.argmax(g))
    ys = np.arange(samples) * (L0 / samples)

    def dist2(y):
        # direct per-mode evaluation; no cancellation between large sums
        diff = uu * np.exp(1j * xi_pos * y) - ph
        return float(np.sum(dbl * w * (diff.real**2 + diff.imag**2)))

    lo = ys[j] - L0 / samples
    hi = ys[j] + L0 / samples
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - invphi * (b - a)
    d1 = a + invphi * (b - a)
    fc, fd = dist2(c1), dist2(d1)
    while (b - a) > refine_tol:
        if fc < fd:
            b, d1, fd = d1, c1, fc
            c1 = b - invphi * (b - a)
            fc = dist2(c1)
        else:
            a, c1, fc = c1, d1, fd
            d1 = a + invphi * (b - a)
            fd = dist2(d1)
    y_star = 0.5 * (a + b)
    val = max(dist2(y_star), 0.0)
    return math.sqrt(L0 * val), y_star


def translate_state(state, y):
    """u(. + y): multiply mode n by e^{i xi_n y}."""
    M_grid = state.grid_size
    xi = 2.0 * math.pi * np.fft.fftfreq(M_grid, d=state.L0 / M_grid)
    return EvolutionState(
        t=state.t, modes=state.modes * np.exp(1j * xi * y), L0=state.L0
    )


def make_perturbation(kind, psi, delta, grid_size=256, mode=1, band=8, seed=0):
    """Perturbation values on the grid, amplitude delta.

    kind="mode": delta * cos(2 pi mode x / L0), mean preserving;
    kind="random": seeded band-limited random trigonometric polynomial
    (modes 1..band, both parities, O(1) amplitude), mean preserving;
    kind="mean": the constant delta, which moves the wave average.
    """
    L0 = psi.L0
    x = np.arange(grid_size) * (L0 / grid_size)
    if kind == "mode":
        return delta * np.cos(2.0 * math.pi * mode * x / L0)
    if kind == "random":
        rng = np.random.default_rng(seed)
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


def mass_energy_matched(psi, v, grid_size=256):
    """u0 = alpha (psi + v) + gamma with M(u0) = M(psi) and F(u0) = F(psi).

    Two-parameter correction solved in closed form (quadratic in alpha);
    used for perturbations constrained to the conserved-quantity manifold.
    """
    L0 = psi.L0
    base = state_from_profile(psi, grid_size).values()
    q = base + v
    h = L0 / grid_size
    M0 = h * base.sum()
    F0 = 0.5 * h * np.sum(base * base)
    Mq = h * q.sum()
    Fq = 0.5 * h * np.sum(q * q)
    # gamma(alpha) = (M0 - alpha Mq)/L0; plug into F:
    #   alpha^2 Fq + alpha gamma Mq + gamma^2 L0/2 = F0
    best = None
    coef2 = Fq - Mq * Mq / (2.0 * L0)
    coef0 = M0 * M0 / (2.0 * L0) - F0
    disc = -coef0 / coef2
    if disc < 0:
        raise ValueError("cannot match both invariants for this perturbation")
    for alpha in (math.sqrt(disc), -math.sqrt(disc)):
        if best is None or abs(alpha - 1.0) < abs(best - 1.0):
            best = alpha
    alpha = best
    gamma = (M0 - alpha * Mq) / L0
    return alpha * q + gamma


def stability_experiment(psi, omega, sym, kind="mode", delta=1e-3, periods=50.0,
                         grid_size=256, dt=None, seed=0, n_samples=200,
                         A=None, mode=1, band=8, dt_safety=0.5):
    """Evolve psi + delta*v and record (t, rho, E, F, M, deltaP) time series.

    The horizon is `periods` temporal periods L0/omega.  deltaP is the
    conserved-combination difference P(u(t)) - P(psi) with P = E + omega F
    + A M; it stays constant in t because all three pieces are conserved.
    Membership of u0 in the fixed-(F, M) manifold is reported in the first
    record.  On blow-up the partial series is attached to the exception.
    """
    from .profile import extract_A

    if A is None:
        A, _ = extract_A(psi, omega, sym)
    v = make_perturbation(kind, psi, delta, grid_size=grid_size, mode=mode,
                          band=band, seed=seed)
    psi_state = state_from_profile(psi, grid_size)
    state = state_from_values(psi_state.values() + v, psi.L0)
    if dt is None:
        dt = default_dt(state, sym, safety=dt_safety)
    T = periods * psi.L0 / omega
    nsteps_total = max(1, int(math.ceil(T / dt)))
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
    c0 = conserved(state, sym)
    series[0]["on_manifold"] = bool(
        abs(c0.F - cons_psi.F) <= 1e-10 * max(1.0, abs(cons_psi.F))
        and abs(c0.M - cons_psi.M) <= 1e-10 * max(1.0, abs(cons_psi.M))
    )
    done = 0
    try:
        while done < nsteps_total:
            n = min(stride, nsteps_total - done)
            state = ev.run(state, n, check_every=max(1, n // 2))
            done += n
            series.append(record(state))
    except BlowUpError as exc:
        exc.series = series
        raise
    return series
