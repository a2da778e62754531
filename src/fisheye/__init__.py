"""Quantum optics of a mirrored gradient-index (fish-eye) disk cavity.

The cavity images any interior point onto its antipode, which turns it into
a mediator of effectively infinite-range dipole-dipole interactions between
embedded two-level emitters.  This package provides:

  specfun      - Legendre polynomials / functions of complex degree,
                 spherical harmonics, digamma, series acceleration
  lens         - index profile, stereographic map, TE eigenmodes, spectrum
  greens       - closed-form and eigenmode-sum Green's functions
  qed          - pair coupling rates (lossless and lossy), exchange
                 trajectories, entanglement fidelities
  schrodinger  - parity-reduced single-excitation simulator used to verify
                 the rate formulas
  plasmon      - metal/dielectric dispersion solver, lens height profile,
                 loss budget, end-to-end fidelity estimate
  cli          - ``fisheye`` command-line front end (CSV figure data)

Internal units: c = lambda0 = 1 (so omega0 = 2 pi); rates in units of the
free-space emission rate Gamma0.
"""

from .errors import (
    BranchJumpError,
    CoincidentPointsError,
    DomainError,
    EigensolveError,
    FisheyeError,
    NonConvergenceError,
    PoleError,
    RangeOverflowError,
    ResonanceError,
    RootNotFoundError,
    ThinDiskWarning,
    UnphysicalRatesError,
    ZeroCouplingError,
)
from .lens import OMEGA0, DiskPoint, LensConfig, ModeIndex, order_parameter, radius_for_order
from .greens import ModeSumResult, greens_modesum, greens_zz, greens_zz_points
from .qed import (
    AtomPairConfig,
    CouplingRates,
    TwoAtomTrajectory,
    coupling_rates,
    entangling_error,
    entanglement_fidelity,
    fidelity_approx,
    fidelity_with_freespace,
    image_rates,
    scaling_rates,
    trajectory,
)
from .plasmon import EffectiveIndexSample, PlasmonStack, end_to_end_estimate, solve_effective_index
from .schrodinger import BlockModel, SimResult, build_blocks, compare_to_analytics, evolve

__version__ = "0.1.0"

__all__ = [
    "OMEGA0",
    "LensConfig",
    "DiskPoint",
    "ModeIndex",
    "order_parameter",
    "radius_for_order",
    "ModeSumResult",
    "greens_zz",
    "greens_zz_points",
    "greens_modesum",
    "AtomPairConfig",
    "CouplingRates",
    "TwoAtomTrajectory",
    "coupling_rates",
    "image_rates",
    "scaling_rates",
    "trajectory",
    "entanglement_fidelity",
    "entangling_error",
    "fidelity_approx",
    "fidelity_with_freespace",
    "BlockModel",
    "SimResult",
    "build_blocks",
    "evolve",
    "compare_to_analytics",
    "PlasmonStack",
    "EffectiveIndexSample",
    "solve_effective_index",
    "end_to_end_estimate",
    "FisheyeError",
    "DomainError",
    "PoleError",
    "ResonanceError",
    "CoincidentPointsError",
    "ZeroCouplingError",
    "RangeOverflowError",
    "UnphysicalRatesError",
    "NonConvergenceError",
    "RootNotFoundError",
    "BranchJumpError",
    "EigensolveError",
    "ThinDiskWarning",
]
