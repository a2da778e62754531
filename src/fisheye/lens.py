"""Geometry and eigenmodes of the mirrored gradient-index disk cavity.

The cavity is a thin disk of radius R0 and thickness b filled with the
rotationally symmetric index profile n(rho) = 2 n0 / (1 + rho^2)
(rho = r/R0), surrounded by mirrors on all sides.  A stereographic map
cos(theta) = (rho^2 - 1)/(rho^2 + 1) sends the disk to the lower hemisphere
of a virtual unit sphere; the lowest TE modes are then spherical harmonics
in the mapped coordinates and the spectrum is omega_l = c sqrt(l(l+1))/(R0 n0).

Internal unit system: c = 1 and the atomic vacuum wavelength lambda0 = 1,
so the atomic frequency is OMEGA0 = 2 pi.  Lengths (R0, b) are quoted in
units of lambda0 throughout the package.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError, ThinDiskWarning
from .specfun import _theta_lm

#: Atomic transition frequency in internal units (c = lambda0 = 1).
OMEGA0 = 2.0 * math.pi


@dataclass(frozen=True)
class LensConfig:
    """Geometry and loss of the disk cavity.

    radius:  R0 in units of lambda0
    n0:      base refractive index (profile runs from 2 n0 at the center to
             n0 at the mirror)
    b:       disk thickness in units of lambda0
    alpha:   loss ratio kappa/omega0 (>= 0); alpha = 1/Q
    """

    radius: float
    n0: float = 1.0
    b: float = 0.1
    alpha: float = 0.0

    def __post_init__(self):
        check_lens(self.radius, self.n0, self.b, self.alpha)

    @property
    def kappa(self) -> float:
        """Mode decay rate kappa = alpha * omega0 (internal units)."""
        return self.alpha * OMEGA0


def check_lens(
    radius: float | np.ndarray, n0: float, b: float, alpha: float | np.ndarray
) -> None:
    """The checks of LensConfig; radius and alpha may be arrays, checked element by element.

    Raises DomainError (NaN and inf included); warns ThinDiskWarning, pointing
    at the caller's caller, when b admits higher transverse bands.
    """
    if not (np.all(np.isfinite(radius)) and math.isfinite(n0) and math.isfinite(b) and np.all(np.isfinite(alpha))):
        raise DomainError("radius, n0, b and alpha must be finite")
    if np.any(radius <= 0) or b <= 0:
        raise DomainError("radius and thickness must be positive")
    if n0 < 1:
        raise DomainError("base index n0 must be >= 1")
    if np.any(alpha < 0):
        raise DomainError("loss ratio alpha must be >= 0")
    # single transverse band requires omega0 well below pi*c/b
    if OMEGA0 >= 0.5 * math.pi / b:
        warnings.warn(
            f"thickness b = {b} puts omega0 above half the transverse "
            "cutoff pi*c/b; higher TE bands are no longer negligible",
            ThinDiskWarning,
            stacklevel=3,
        )


@dataclass(frozen=True)
class DiskPoint:
    """Point inside the disk: radial fraction rho = r/R0 in [0, 1], azimuth phi."""

    rho: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise DomainError("rho must lie in [0, 1]")

    @property
    def alpha(self) -> complex:
        """Complex disk coordinate rho * e^{i phi}."""
        return self.rho * cmath.exp(1j * self.phi)

    def antipode(self) -> "DiskPoint":
        """The image location: same radius, azimuth shifted by pi."""
        return DiskPoint(self.rho, self.phi + math.pi)


@dataclass(frozen=True)
class ModeIndex:
    """TE mode labels (l, m) with m restricted to l - m odd, |m| <= l - 1."""

    l: int
    m: int

    def __post_init__(self):
        if self.l < 1:
            raise DomainError("l must be >= 1")
        if abs(self.m) > self.l - 1 or (self.l - self.m) % 2 == 0:
            raise DomainError(f"m = {self.m} not allowed for l = {self.l}")


def refractive_index(cfg: LensConfig, rho: float | np.ndarray) -> float | np.ndarray:
    """Index profile n(rho) = 2 n0 / (1 + rho^2); rho > 1 allowed for plotting, arrays elementwise."""
    if np.any(rho < 0):
        raise DomainError("rho must be >= 0")
    return 2.0 * cfg.n0 / (1.0 + rho * rho)


def radial_mean_index(cfg: LensConfig) -> float:
    """Radial average (1/R0) int_0^R0 n dr = n0 * pi / 2 (exactly 2 n0 arctan 1)."""
    return cfg.n0 * math.pi / 2.0


def stereo_theta(rho: float) -> float:
    """Polar angle of the stereographic image: arccos((rho^2-1)/(rho^2+1)).

    Maps the disk to the lower hemisphere, theta in [pi/2, pi] (center -> pole).
    """
    if not 0.0 <= rho <= 1.0:
        raise DomainError("rho must lie in [0, 1]")
    return math.acos((rho * rho - 1.0) / (rho * rho + 1.0))


def eigenfrequency(cfg: LensConfig, l: int | np.ndarray) -> float | np.ndarray:
    """Cavity eigenfrequency omega_l = sqrt(l(l+1)) / (R0 n0), c = 1; an array of l gives an array."""
    l = np.asarray(l)
    if np.any(l < 1):
        raise DomainError("l must be >= 1")
    w = np.sqrt(l * (l + 1.0)) / (cfg.radius * cfg.n0)
    return float(w) if w.ndim == 0 else w


def order_parameter(cfg: LensConfig, omega: complex) -> complex:
    """Degree nu(omega) of the Legendre function in the closed-form Green's function.

    nu = (sqrt(4 omega^2 R0^2 n0^2 / c^2 + 1) - 1) / 2, principal square root.
    Integer nu marks cavity resonances (nu(omega_l) = l); half-integer nu sits
    midway between resonances.  With omega = omega0 (1 + i alpha) this becomes
    approximately (2 pi R0 / lambda0)(1 + i alpha) for small alpha.
    """
    return complex(order_parameters(cfg.radius, complex(omega), cfg.n0))


def order_parameters(
    radius: float | np.ndarray, omega: complex | np.ndarray, n0: float = 1.0
) -> np.ndarray:
    """order_parameter over broadcast arrays of lens radii and frequencies.

    Same formula and the same DomainError (for any element).
    """
    if np.any(np.real(omega) <= 0):
        raise DomainError("Re(omega) must be positive")
    k = omega * radius * n0
    return 0.5 * (np.sqrt(4.0 * k**2 + 1.0) - 1.0)


def radius_for_order(nu_real: float | np.ndarray, n0: float = 1.0) -> float | np.ndarray:
    """Lens radius (in lambda0) that places Re nu at `nu_real` for omega = OMEGA0.

    Inverse of order_parameter at real frequency; used to pin half-integer
    working points, e.g. nu_real = 10.5 -> R0 = 1.7489.  An array of orders
    gives an array of radii, each the float call's bit for bit (the square
    is libm's pow, as Python's ** 2 is).
    """
    nu = np.asarray(nu_real, dtype=float)
    if np.any(nu <= 0):
        raise DomainError("nu_real must be positive")
    radius = np.sqrt((np.float_power(2.0 * nu + 1.0, 2.0) - 1.0) / (16.0 * math.pi**2)) / n0
    return float(radius) if radius.ndim == 0 else radius


def allowed_m(l: int) -> list[int]:
    """Angular labels M_l = {-(l-1), -(l-3), ..., l-1}; exactly l of them."""
    if l < 1:
        raise DomainError("l must be >= 1")
    return list(range(-(l - 1), l, 2))


def mode_function(cfg: LensConfig, mode: ModeIndex, p: DiskPoint) -> complex:
    """z-component amplitude of the TE eigenmode (l, m) at a disk point.

    f_{l,m} = sqrt(2 / (b R0^2 n0^2)) Y_l^m(theta(rho), phi), with
    Y_l^m = _theta_lm(cos theta) e^{i m phi} (Condon-Shortley phase; it
    cancels in all conjugate-pair observables).  The mirror boundary is
    automatic: at rho = 1 the polar angle is pi/2 and P_l^m(0) = 0 for the
    allowed (l - m odd) modes.
    """
    norm = math.sqrt(2.0 / (cfg.b * cfg.radius**2 * cfg.n0**2))
    return norm * (_theta_lm(mode.l, mode.m, math.cos(stereo_theta(p.rho))) * cmath.exp(1j * mode.m * p.phi))


@functools.lru_cache(maxsize=16)
def _gauss_rule(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped from [-1, 1] to [-1, 0], cached per node count.

    The arrays are shared between calls and read-only.
    """
    nodes, weights = np.polynomial.legendre.leggauss(npts)
    u = 0.5 * (nodes - 1.0)
    w = 0.5 * weights
    u.flags.writeable = False
    w.flags.writeable = False
    return u, w


def orthonormality_matrix(cfg: LensConfig, modes: list[ModeIndex], quadrature_n: int = 128) -> np.ndarray:
    """Weighted overlap integrals int n^2 f_a . f_b* d^3r of every pair of modes (should be the identity).

    The azimuthal integral is analytic (2 pi delta_{m m'}); the z integral
    gives b; the radial integral is done by Gauss-Legendre quadrature after
    the substitution u = cos theta(rho), under which n^2 r dr = n0^2 R0^2 du
    and the integrand is a polynomial in u (exact for quadrature_n > l + l').
    The rule for each node count is built once and cached (16 node counts
    at most), and each mode function is evaluated once per rule, at all
    nodes at once.  Returns the symmetric float matrix of overlaps.

    Raises NonConvergenceError if doubling the node count moves any overlap
    by more than 1e-9.
    """
    if quadrature_n < 64:
        raise DomainError("quadrature_n must be >= 64")
    rules = [_gauss_rule(npts) for npts in (quadrature_n, 2 * quadrature_n)]
    thetas = [[_theta_lm(mode.l, mode.m, u) for mode in modes] for u, _ in rules]
    out = np.zeros((len(modes), len(modes)))
    for i, mode_a in enumerate(modes):
        for j in range(i, len(modes)):
            if modes[j].m != mode_a.m:
                continue
            coarse, fine = (
                4.0 * math.pi * float(np.dot(w, theta[i] * theta[j])) for (_, w), theta in zip(rules, thetas)
            )
            if abs(fine - coarse) > 1e-9 * max(1.0, abs(fine)):
                raise NonConvergenceError(
                    f"orthonormality quadrature did not settle for {mode_a} and {modes[j]}: {coarse} vs {fine}"
                )
            out[i, j] = out[j, i] = fine
    return out


def orthonormality_check(cfg: LensConfig, mode_a: ModeIndex, mode_b: ModeIndex, quadrature_n: int = 128) -> complex:
    """The overlap of two modes: orthonormality_matrix of (mode_a, mode_b), off its diagonal."""
    return complex(orthonormality_matrix(cfg, [mode_a, mode_b], quadrature_n)[0, 1])
