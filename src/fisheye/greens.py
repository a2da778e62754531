"""Single-source Green's function of the mirrored disk cavity.

Closed form: with complex disk coordinates alpha_j = rho_j e^{i phi_j} and

    zeta(a1, a2) = (a1 - a2) / (a1 conj(a2) + 1),
    xi(a1, a2)   = (|zeta|^2 - 1) / (|zeta|^2 + 1),

the zz Green's function of the cavity is

    G_zz(r1, r2, omega) = -[P_nu(xi(a1, a2)) - P_nu(xi(a1, 1/conj(a2)))]
                          / (4 b sin(pi nu)),

where nu = order_parameter(omega).  xi(a1, a2) is minus the cosine of the
spherical distance between the stereographic images of the two points; the
first term carries the source (xi -> -1, log divergence) and the second the
mirror image (xi -> +1 at the antipode).  Near the source 1 + xi cancels, so
each xi comes with w = (1 + xi)/2 = |zeta|^2/(|zeta|^2 + 1), formed directly,
for legendre_nu's logarithmic seeds.  One array kernel, greens_zz_orders,
evaluates this over broadcast orders and points; greens_zz_points (one
frequency) and greens_zz (one pair, a Python complex) are that kernel at
order_parameter(omega), so every closed-form value shares its bits.  An
eigenmode sum over the cavity spectrum provides an independent
representation (greens_modesum) used as a cross-validation oracle: the two
agree to ~1e-12 away from the source.

Scale: G_zz carries 1/length through the explicit 1/(4b); all rates in the
qed module divide out the remaining dimensional prefactors via Gamma0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPointsError, DomainError, ResonanceError
from .lens import DiskPoint, LensConfig, order_parameter
from .specfun import EULER_GAMMA, accelerate, digamma, legendre_nu, legendre_poly_table

#: |sin(pi nu)| below this is treated as sitting on a cavity resonance.
RESONANCE_EPS = 1e-8

#: Mode-sum source exclusion: keep |xi + 1| above this (log divergence).
SOURCE_EXCLUSION = 0.01

#: Default and cap for the adaptive mode-sum truncation, and the relative
#: Wynn error estimate a mode sum must reach.
MODESUM_LMAX_FACTOR = 8
MODESUM_LMAX_CAP = 2**14
MODESUM_TOL = 1e-8


@dataclass(frozen=True)
class ModeSumResult:
    """Accelerated eigenmode-sum value plus its convergence report."""

    value: complex
    l_max: int
    tail_estimate: float
    converged: bool


def _xi_w(a1: complex | np.ndarray, a2: complex | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(xi, w) over broadcast complex coordinates: xi = (m - 1)/(m + 1), w = (1 + xi)/2 = m/(m + 1), m = |zeta|^2.

    w keeps full relative precision as a1 -> a2 (m -> 0), where 1 + xi
    loses it to cancellation.  Both are 1 at the zeta pole a1 conj(a2) = -1.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m2 = np.abs((a1 - a2) / (a1 * np.conj(a2) + 1.0)) ** 2
        finite = np.isfinite(m2)
        return np.where(finite, (m2 - 1.0) / (m2 + 1.0), 1.0), np.where(finite, m2 / (m2 + 1.0), 1.0)


def xi(a1: complex | np.ndarray, a2: complex | np.ndarray) -> float | np.ndarray:
    """Spherical-chord coordinate xi in [-1, 1]; -1 at a1 = a2, +1 at the image.

    The a1 conj(a2) = -1 pole of zeta is handled as the limit xi -> +1.
    """
    return _xi_w(a1, a2)[0][()]


def _source_image(rho1, phi1, rho2, phi2) -> tuple[np.ndarray, np.ndarray]:
    """(xi, w) of the source pair (a1, a2) and the image pair (a1, 1/conj(a2)), stacked on a last axis.

    The points are floats or broadcast float arrays.  The image argument
    diverges for a2 at the center; the limit is xi_img = (1 - rho1^2)/(1 + rho1^2),
    w_img = 1/(1 + rho1^2).
    """
    a1 = rho1 * np.exp(1j * phi1)
    a2 = rho2 * np.exp(1j * phi2)
    with np.errstate(divide="ignore", invalid="ignore"):
        image = 1.0 / np.conj(a2)
    xi, w = _xi_w(a1[..., None], np.stack([a2, image], axis=-1))
    center = rho2 == 0.0
    xi[..., 1] = np.where(center, (1.0 - rho1**2) / (1.0 + rho1**2), xi[..., 1])
    w[..., 1] = np.where(center, 1.0 / (1.0 + rho1**2), w[..., 1])
    return xi, w


def _check_order(nu: complex | np.ndarray) -> np.ndarray:
    """sin(pi nu); ResonanceError where it vanishes numerically (any element)."""
    s = np.sin(np.pi * np.asarray(nu))
    resonant = np.abs(s) < RESONANCE_EPS
    if np.any(resonant):
        raise ResonanceError(
            f"nu = {np.asarray(nu)[resonant].flat[0]} is within {RESONANCE_EPS} of a cavity resonance"
        )
    return s


def greens_zz(cfg: LensConfig, p1: DiskPoint, p2: DiskPoint, omega: complex) -> complex:
    """Closed-form G_zz(r1, r2, omega) of the mirrored cavity (units 1/length, via the 1/(4b)).

    For real omega between resonances the value is purely real.  Raises
    CoincidentPointsError at p1 = p2 (source-point log divergence) and
    ResonanceError when sin(pi nu) vanishes numerically.
    """
    return complex(greens_zz_points(cfg, p1.rho, p1.phi, p2.rho, p2.phi, omega))


def greens_zz_orders(
    b: float,
    nu: complex | np.ndarray,
    rho1: float | np.ndarray,
    phi1: float | np.ndarray,
    rho2: float | np.ndarray,
    phi2: float | np.ndarray,
) -> np.ndarray:
    """Closed-form G_zz(p1, p2) at the orders nu: the kernel behind every closed-form value.

    nu, the first points (rho1, phi1) and the second points (rho2, phi2)
    are broadcast together, and the complex values come back in that shape.
    A sweep over frequency or lens radius at fixed points and a sweep over
    points at one order are both one legendre_nu call, which serves the
    source and the image arguments of every element.  b is the disk
    thickness.  Raises DomainError for rho outside [0, 1],
    CoincidentPointsError at coincident points and ResonanceError where
    sin(pi nu) vanishes numerically, if any element is bad.
    """
    rho1, phi1, rho2, phi2 = (np.asarray(v, dtype=float) for v in (rho1, phi1, rho2, phi2))
    if not (np.all((rho1 >= 0.0) & (rho1 <= 1.0)) and np.all((rho2 >= 0.0) & (rho2 <= 1.0))):
        raise DomainError("rho must lie in [0, 1]")
    s = _check_order(nu)
    xi, w = _source_image(rho1, phi1, rho2, phi2)
    if np.any(xi[..., 0] <= -1.0 + 1e-14):
        raise CoincidentPointsError("greens_zz diverges at coincident points")
    p = legendre_nu(np.asarray(nu)[..., None], xi, w=w)
    return -(p[..., 0] - p[..., 1]) / (4.0 * b * s)


def greens_zz_points(
    cfg: LensConfig,
    rho1: float | np.ndarray,
    phi1: float | np.ndarray,
    rho2: float | np.ndarray,
    phi2: float | np.ndarray,
    omega: complex,
) -> np.ndarray:
    """Closed-form G_zz(p1, p2, omega) over broadcast arrays of points.

    greens_zz_orders at order_parameter(cfg, omega), with its limits and errors.
    """
    return greens_zz_orders(cfg.b, order_parameter(cfg, omega), rho1, phi1, rho2, phi2)


def modesum_terms(p1: DiskPoint, p2: DiskPoint, l_max: int) -> np.ndarray:
    """(-1)^l (2l+1)(P_l(xi_src) - P_l(xi_img)) for l = 0..l_max; the l = 0 entry vanishes.

    The spherical-harmonic addition theorem collapses the m sum of the TE
    modes at fixed l to these two Legendre polynomials; both mode sums
    (greens_modesum, qed.rates_modesum_oracle) weight them per l.  Raises
    CoincidentPointsError for |xi_src + 1| < SOURCE_EXCLUSION: near the
    source the logarithmic divergence makes the term count explode.
    """
    xi_src, xi_img = _source_image(p1.rho, p1.phi, p2.rho, p2.phi)[0].tolist()
    if xi_src + 1.0 < SOURCE_EXCLUSION:
        raise CoincidentPointsError(
            f"mode sum unreliable near the source point (|xi + 1| < {SOURCE_EXCLUSION})"
        )
    ls = np.arange(l_max + 1, dtype=float)
    p_src = legendre_poly_table(l_max, xi_src)
    p_img = legendre_poly_table(l_max, xi_img)
    return (-1.0) ** ls * (2.0 * ls + 1.0) * (p_src - p_img)


def greens_modesum(
    cfg: LensConfig,
    p1: DiskPoint,
    p2: DiskPoint,
    omega: complex,
    l_max: int | None = None,
    tol: float = MODESUM_TOL,
) -> ModeSumResult:
    """Eigenmode-sum representation of G_zz, the independent oracle.

    With the m-summed weights of modesum_terms,

        G_zz = -(1/(4 pi b)) sum_l (-1)^l (2l+1)
               [P_l(xi_src) - P_l(xi_img)] / (nu(nu+1) - l(l+1)),

    an oscillatory, conditionally convergent series (terms ~ l^{-3/2}) that
    is resummed with Wynn epsilon acceleration on its partial sums.  Starts
    at l_max = 8 ceil(Re nu) and doubles until the acceleration error
    estimate drops below `tol` relative or the cap 2^14 is hit; the achieved
    estimate is reported either way.  Raises CoincidentPointsError within
    SOURCE_EXCLUSION of the source.
    """
    nu = order_parameter(cfg, omega)
    _check_order(nu)
    if l_max is None:
        l_max = max(64, MODESUM_LMAX_FACTOR * math.ceil(nu.real))
    nn = nu * (nu + 1.0)
    scale = -1.0 / (4.0 * math.pi * cfg.b)
    while True:
        ls = np.arange(l_max + 1, dtype=float)
        terms = modesum_terms(p1, p2, l_max) / (nn - ls * (ls + 1.0))
        value, err = accelerate(np.cumsum(terms)[1:])  # l = 0 term vanishes
        value, err = scale * value, abs(scale) * err
        converged = err <= tol * max(abs(value), 1e-300)
        if converged or l_max >= MODESUM_LMAX_CAP:
            return ModeSumResult(value, l_max, err, converged)
        l_max = min(2 * l_max, MODESUM_LMAX_CAP)


def image_point_value(cfg: LensConfig, nu: complex) -> complex:
    """Image-point approximation -1/(4 b sin(pi nu)).

    Position- and radius-independent height of the Green's-function peak at
    the antipode; maximal in magnitude at half-integer Re nu.  Sign as
    printed in the source derivation; the exact image-term limit of
    greens_zz has the opposite sign, and every observable built on this
    quantity uses magnitudes (see qed).
    """
    s = _check_order(nu)
    return -1.0 / (4.0 * cfg.b * s)


def source_offset(nu: complex | np.ndarray) -> complex | np.ndarray:
    """Additive constant of the near-source log expansion.

    F(nu) = 2 gamma_E + 2 psi(nu + 1) + pi cot(pi nu), i.e. the n = 0
    coefficient psi(-nu) + psi(nu+1) + 2 gamma_E of the logarithmic
    connection series after the digamma reflection.  (A commonly printed
    variant carries a single gamma_E; the doubled value is what P_nu
    actually approaches, cf. the asymptotic-match tests.)  Its imaginary
    part at lossy (complex) nu sets the regularized on-site decay rate;
    gamma_E is real, so that part is insensitive to the variant.
    An ndarray nu returns an array of F(nu) element by element.
    """
    return 2.0 * EULER_GAMMA + 2.0 * digamma(nu + 1.0) + math.pi / np.tan(math.pi * nu)


def source_asymptote(cfg: LensConfig, nu: complex, xi_near: float) -> complex:
    """Leading near-source behavior (sin(pi nu)/pi) [log((1+xi)/2) + F(nu)].

    Valid for xi -> -1; the spec window is xi in (-1, -0.99).  Models the
    log divergence of P_nu and, through Im F(nu), the single-atom decay
    scaling in the lossy cavity.
    """
    if not -1.0 < xi_near < -0.99:
        raise DomainError("source asymptote expects xi in (-1, -0.99)")
    return np.sin(np.pi * nu) / math.pi * (math.log((1.0 + xi_near) / 2.0) + source_offset(nu))
