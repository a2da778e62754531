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
for legendre_nu's logarithmic seeds.  An eigenmode sum over the cavity
spectrum provides an independent representation (greens_modesum) used as a
cross-validation oracle: the two agree to ~1e-12 away from the source.

Scale: G_zz carries 1/length through the explicit 1/(4b); all rates in the
qed module divide out the remaining dimensional prefactors via Gamma0.
"""

from __future__ import annotations

import cmath
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
class GreensValue:
    """Green's-function value (units 1/length, carrying the 1/(4b) scale)."""

    value: complex


@dataclass(frozen=True)
class ModeSumResult:
    """Accelerated eigenmode-sum value plus its convergence report."""

    value: complex
    l_max: int
    tail_estimate: float
    converged: bool


def zeta(a1: complex, a2: complex) -> complex:
    """Moebius combination (a1 - a2)/(a1 conj(a2) + 1); infinite at the image."""
    den = a1 * np.conj(a2) + 1.0
    if den == 0:
        return complex(math.inf, 0.0)
    return (a1 - a2) / den

def _xi_w(a1: complex, a2: complex) -> tuple[float, float]:
    """(xi, w) of a pair: xi = (m - 1)/(m + 1) and w = (1 + xi)/2 = m/(m + 1), m = |zeta|^2.

    w keeps full relative precision as a1 -> a2 (m -> 0), where 1 + xi
    loses it to cancellation.  Both are 1 at the zeta pole.
    """
    z = zeta(a1, a2)
    if not np.isfinite(z):
        return 1.0, 1.0
    m2 = abs(z) ** 2
    if math.isinf(m2):
        return 1.0, 1.0
    return (m2 - 1.0) / (m2 + 1.0), m2 / (m2 + 1.0)


def xi(a1: complex, a2: complex) -> float:
    """Spherical-chord coordinate xi in [-1, 1]; -1 at a1 = a2, +1 at the image.

    The a1 conj(a2) = -1 pole of zeta is handled as the limit xi -> +1.
    """
    return _xi_w(a1, a2)[0]


def _xi_pair(p1: DiskPoint, p2: DiskPoint) -> tuple[tuple[float, float], tuple[float, float]]:
    """((xi_src, w_src), (xi_img, w_img)) for a pair of disk points, as _xi_w.

    The image argument 1/conj(a2) diverges for a point at the center; the
    limit is xi_image = (1 - rho1^2)/(1 + rho1^2), w_image = 1/(1 + rho1^2).
    """
    a1, a2 = p1.alpha, p2.alpha
    if p2.rho == 0.0:
        image = (1.0 - p1.rho**2) / (1.0 + p1.rho**2), 1.0 / (1.0 + p1.rho**2)
    else:
        image = _xi_w(a1, 1.0 / np.conj(a2))
    return _xi_w(a1, a2), image


def _check_order(nu: complex | np.ndarray) -> complex | np.ndarray:
    """sin(pi nu); ResonanceError where it vanishes numerically (any element)."""
    s = np.sin(np.pi * nu) if isinstance(nu, np.ndarray) else cmath.sin(cmath.pi * nu)
    resonant = np.abs(s) < RESONANCE_EPS
    if np.any(resonant):
        raise ResonanceError(
            f"nu = {np.asarray(nu)[resonant].flat[0]} is within {RESONANCE_EPS} of a cavity resonance"
        )
    return s


def greens_zz(cfg: LensConfig, p1: DiskPoint, p2: DiskPoint, omega: complex) -> GreensValue:
    """Closed-form G_zz(r1, r2, omega) of the mirrored cavity.

    For real omega between resonances the value is purely real.  Raises
    CoincidentPointsError at p1 = p2 (source-point log divergence) and
    ResonanceError when sin(pi nu) vanishes numerically.
    """
    return GreensValue(greens_zz_orders(cfg.b, p1, p2, order_parameter(cfg, omega)))


def greens_zz_orders(
    b: float, p1: DiskPoint, p2: DiskPoint, nu: complex | np.ndarray
) -> complex | np.ndarray:
    """Closed-form G_zz(p1, p2) at the order nu, or at an array of orders.

    The form of greens_zz for a sweep over frequency or lens radius at fixed
    points: xi_src and xi_img are two numbers and only the degree changes,
    so one legendre_nu call serves both arguments at every order.  b is the
    disk thickness.  Same errors as greens_zz, raised if any element is bad.
    """
    s = _check_order(nu)
    (xi_src, w_src), (xi_img, w_img) = _xi_pair(p1, p2)
    if xi_src <= -1.0 + 1e-14:
        raise CoincidentPointsError("greens_zz diverges at coincident points")
    pair = legendre_nu(np.asarray(nu)[..., None], np.array([xi_src, xi_img]), w=np.array([w_src, w_img]))
    p_src, p_img = np.moveaxis(pair, -1, 0)
    return -(p_src - p_img) / (4.0 * b * s)


def _xi_points(a1: complex | np.ndarray, a2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(xi, w) of (a1, a2) over broadcast arrays of points, as _xi_w; 1 at the zeta pole."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m2 = np.abs((a1 - a2) / (a1 * np.conj(a2) + 1.0)) ** 2
        finite = np.isfinite(m2)
        return np.where(finite, (m2 - 1.0) / (m2 + 1.0), 1.0), np.where(finite, m2 / (m2 + 1.0), 1.0)


def greens_zz_points(
    cfg: LensConfig,
    rho1: float | np.ndarray,
    phi1: float | np.ndarray,
    rho2: float | np.ndarray,
    phi2: float | np.ndarray,
    omega: complex,
) -> np.ndarray:
    """Closed-form G_zz(p1, p2, omega) over many pairs of points.

    Array form of greens_zz: p1 runs over the disk points (rho1, phi1) and
    p2 over (rho2, phi2), all four broadcast together, and the complex
    values come back in that shape.  One legendre_nu call serves the source
    and the image arguments of all pairs.  Same limits and errors as
    greens_zz.
    """
    rho1, phi1, rho2, phi2 = (np.asarray(v, dtype=float) for v in (rho1, phi1, rho2, phi2))
    if not (np.all((rho1 >= 0.0) & (rho1 <= 1.0)) and np.all((rho2 >= 0.0) & (rho2 <= 1.0))):
        raise DomainError("rho must lie in [0, 1]")
    nu = order_parameter(cfg, omega)
    s = _check_order(nu)
    a1 = rho1 * np.exp(1j * phi1)  # broadcast by numpy where it meets the second points
    a2 = np.broadcast_to(rho2 * np.exp(1j * phi2), np.broadcast_shapes(a1.shape, rho2.shape, phi2.shape))
    with np.errstate(divide="ignore", invalid="ignore"):
        image = 1.0 / np.conj(a2)
    xi, w = _xi_points(a1, np.stack([a2, image]))  # row 0 source, row 1 image
    if np.any(xi[0] <= -1.0 + 1e-14):
        raise CoincidentPointsError("greens_zz diverges at coincident points")
    # the image of the center is at infinity: limit as in _xi_pair
    center = rho2 == 0.0
    xi[1] = np.where(center, (1.0 - rho1**2) / (1.0 + rho1**2), xi[1])
    w[1] = np.where(center, 1.0 / (1.0 + rho1**2), w[1])
    p_src, p_img = legendre_nu(nu, xi, w=w)
    return -(p_src - p_img) / (4.0 * cfg.b * s)


def modesum_terms(p1: DiskPoint, p2: DiskPoint, l_max: int) -> np.ndarray:
    """(-1)^l (2l+1)(P_l(xi_src) - P_l(xi_img)) for l = 0..l_max; the l = 0 entry vanishes.

    The spherical-harmonic addition theorem collapses the m sum of the TE
    modes at fixed l to these two Legendre polynomials; both mode sums
    (greens_modesum, qed.rates_modesum_oracle) weight them per l.  Raises
    CoincidentPointsError for |xi_src + 1| < SOURCE_EXCLUSION: near the
    source the logarithmic divergence makes the term count explode.
    """
    (xi_src, _), (xi_img, _) = _xi_pair(p1, p2)
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
    s = _check_order(complex(nu))
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
    if isinstance(nu, np.ndarray):
        tan = np.tan
    else:
        nu, tan = complex(nu), cmath.tan
    return 2.0 * EULER_GAMMA + 2.0 * digamma(nu + 1.0) + math.pi / tan(math.pi * nu)


def source_asymptote(cfg: LensConfig, nu: complex, xi_near: float) -> complex:
    """Leading near-source behavior (sin(pi nu)/pi) [log((1+xi)/2) + F(nu)].

    Valid for xi -> -1; the spec window is xi in (-1, -0.99).  Models the
    log divergence of P_nu and, through Im F(nu), the single-atom decay
    scaling in the lossy cavity.
    """
    if not -1.0 < xi_near < -0.99:
        raise DomainError("source asymptote expects xi in (-1, -0.99)")
    nu = complex(nu)
    return (
        cmath.sin(cmath.pi * nu)
        / math.pi
        * (math.log((1.0 + xi_near) / 2.0) + source_offset(nu))
    )
