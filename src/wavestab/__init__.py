"""Periodic traveling waves of dispersive equations u_t + u u_x - (Mu)_x = 0.

Construction of even periodic waves (explicit quartic-dnoidal family and a
Newton continuation surface), Fourier-Galerkin verification of the spectral
assumption on the linearized operator, evaluation of the orbital-stability
criteria, and pseudospectral time evolution with the translation-minimized
orbital distance.
"""

__version__ = "0.1.0"

from .elliptic import EllipticPair, complete_integrals, dn, jacobi_sn_cn_dn
from .multiplier import MultiplierSymbol, builtin_symbol
from .profile import (
    DnoidalParams,
    FourierProfile,
    build_dnoidal,
    dnoidal_coefficients,
    extract_A,
)
from .klcurve import KLPoint, p_of_k, solve_L1, sweep
from .galerkin import (
    GalerkinOperator,
    SpectrumReport,
    assemble,
    constrained_min,
    spectrum,
)
from .continuation import ContinuationPoint, newton_solve, surface_patch
from .criteria import StabilityReport, evaluate_wave
from .evolution import (
    ConservedTriple,
    EvolutionState,
    Evolver,
    conserved,
    orbital_distance,
    stability_experiment,
)

__all__ = [
    "__version__",
    "EllipticPair", "complete_integrals", "dn", "jacobi_sn_cn_dn",
    "MultiplierSymbol", "builtin_symbol",
    "DnoidalParams", "FourierProfile", "build_dnoidal",
    "dnoidal_coefficients", "extract_A",
    "KLPoint", "p_of_k", "solve_L1", "sweep",
    "GalerkinOperator", "SpectrumReport", "assemble", "constrained_min",
    "spectrum",
    "ContinuationPoint", "newton_solve", "surface_patch",
    "StabilityReport", "evaluate_wave",
    "ConservedTriple", "EvolutionState", "Evolver", "conserved",
    "orbital_distance", "stability_experiment",
]
