"""Atom-pair observables: coupling rates, exchange dynamics, entanglement fidelity.

All rates are reported in units of the free-space emission rate
Gamma0 = d_z^2 omega0^3 / (3 pi eps0 hbar c^3), which removes the dipole
moment and vacuum constants from every expression.  In internal units
(c = lambda0 = 1, omega0 = 2 pi) the conversions from the Green's function
G are

    delta_omega / Gamma0 = (3 pi / omega0^3) Re{(omega0 + i kappa)^2 G},
    Gamma       / Gamma0 = (6 pi / omega0^3) Im{(omega0 + i kappa)^2 G},

evaluated at the complex frequency omega0 (1 + i alpha).  The on-site decay
gamma = Gamma(r, r) is regularized through the near-source expansion: the
log divergence is a real (frequency-renormalization) piece, and the finite
imaginary part -Im F(nu)/(4 pi b) carries the decay.  The kappa << omega0
prefactor omega0^2 is used for gamma because the exact prefactor multiplies
the divergent real log.

Three closed-form levels coexist and are all exposed:

  * coupling_rate_arrays - exact evaluation of the full Green's function
                          over arrays of lens radii and losses, including
                          the oscillatory source-wave (fringe) contribution
                          P_nu(xi_src) (10-25% of the antipodal peak at
                          typical geometries); coupling_rates is its
                          one-element call, so both carry the same bits,
                          and fidelity_from_rates takes either on to F;
  * image_rates         - the image-point model (P_nu(xi_src) dropped),
                          whose half-integer magnitude is 3 lambda/(8b)
                          / cosh(2 pi^2 R0 alpha / lambda);
  * scaling_rates       - the small-alpha Lorentzian linearization of the
                          image model.

The mode-sum oracle (rates_modesum_oracle) cross-validates coupling_rates
from the cavity spectrum without touching the closed form: the same
Re/Im of (omega0 + i kappa)^2 G_zz, with G_zz the eigenmode sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NonConvergenceError, RangeOverflowError, UnphysicalRatesError, ZeroCouplingError
from .greens import MODESUM_LMAX_CAP, MODESUM_TOL, _check_order, greens_modesum_points, greens_zz_orders
from .greens import greens_zz  # noqa: F401  (the benchmark tracer wraps this binding)
from .lens import OMEGA0, DiskPoint, LensConfig, check_lens, order_parameter, order_parameters
from .specfun import source_offset

#: delta_omega / Gamma0 per unit Re{(omega0+i kappa)^2 G}
_DW_PREF = 3.0 * math.pi / OMEGA0**3
#: Gamma / Gamma0 per unit Im{(omega0+i kappa)^2 G}
_G_PREF = 6.0 * math.pi / OMEGA0**3
#: Share of gamma0 that still leaks into free space near the surface (fidelity_approx at a finite eta)
_FREESPACE_FRACTION = 0.5


@dataclass(frozen=True)
class AtomPairConfig:
    """Two z-oriented dipoles inside the disk."""

    p1: DiskPoint
    p2: DiskPoint

    @classmethod
    def antipodal(cls, rho: float, phi: float = 0.0) -> "AtomPairConfig":
        """Standard arrangement: equal radii, azimuths phi and phi + pi."""
        return cls(DiskPoint(rho, phi), DiskPoint(rho, phi + math.pi))

    @property
    def is_antipodal(self) -> bool:
        dphi = (self.p1.phi - self.p2.phi) % (2.0 * math.pi)
        return (
            abs(self.p1.rho - self.p2.rho) < 1e-12
            and abs(dphi - math.pi) < 1e-12
        )


@dataclass(frozen=True)
class CouplingRates:
    """(delta_omega, gamma, gamma_coop) triple in Gamma0 units.

    beta = delta_omega / (gamma + gamma_coop) is the coherent-vs-dissipative
    figure of merit (infinite in the lossless cavity).
    """

    delta_omega: float
    gamma: float
    gamma_coop: float
    beta: float = field(init=False)

    def __post_init__(self):
        denom = self.gamma + self.gamma_coop
        beta = self.delta_omega / denom if denom != 0.0 else math.inf
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class TwoAtomTrajectory:
    """Exchange dynamics of one excitation shared by the pair (times in 1/Gamma0)."""

    times: np.ndarray
    pop1: np.ndarray
    pop2: np.ndarray
    bell_fidelity: np.ndarray


def _onsite_gamma(b: float, nu: complex | np.ndarray, sin: np.ndarray | None = None) -> float | np.ndarray:
    """Regularized single-atom decay: -(6 pi / omega0) Im F(nu) / (4 pi b), F = specfun.source_offset(nu, sin)."""
    return -_G_PREF * OMEGA0**2 * source_offset(nu, sin).imag / (4.0 * math.pi * b)


def fidelity_from_rates(delta_omega, gamma, gamma_coop):
    """F = exp(-q |gamma|) cosh(q |gamma_coop|), q = pi / (4 |delta_omega|); scalars or arrays.

    Evaluated as (exp(-q (|gamma| - |gamma_coop|)) + exp(-q (|gamma| + |gamma_coop|))) / 2,
    which stays finite for any q when |gamma_coop| <= |gamma| (a small
    |delta_omega| near an integer Re nu makes q large there).
    RangeOverflowError where F is not finite, which needs
    q (|gamma_coop| - |gamma|) > ~710; UnphysicalRatesError where F exceeds 1
    by more than rounding, which needs |gamma_coop| > |gamma|.
    """
    if np.any(delta_omega == 0.0):
        raise ZeroCouplingError("fidelity undefined at zero dipole-dipole coupling")
    with np.errstate(over="ignore", invalid="ignore"):
        q = 0.25 * math.pi / np.abs(delta_omega)
        g, gc = np.abs(gamma), np.abs(gamma_coop)
        f = 0.5 * (np.exp(-q * (g - gc)) + np.exp(-q * (g + gc)))
    if not np.all(np.isfinite(f)):
        raise RangeOverflowError(
            "fidelity overflows the float range: pi (|gamma_coop| - |gamma|) / (4 |delta_omega|) is too large"
        )
    above = np.flatnonzero(np.ravel(f) > 1.0 + 1e-12)
    if above.size:
        f_i, dw, g, gc = (float(np.ravel(v)[above[0]]) for v in np.broadcast_arrays(f, delta_omega, gamma, gamma_coop))
        raise UnphysicalRatesError(
            f"fidelity {f_i:.6g} above 1: |gamma_coop| = {abs(gc):.6g} exceeds "
            f"|gamma| = {abs(g):.6g} (delta_omega = {dw:.6g})"
        )
    return f


def coupling_rates(cfg: LensConfig, atoms: AtomPairConfig) -> CouplingRates:
    """Exact pair rates from the closed-form Green's function.

    delta_omega and gamma_coop come from Re/Im of (omega0 + i kappa)^2
    G_zz(r1, r2, omega0 + i kappa); gamma is the regularized on-site rate
    (position independent in this regularization).  At alpha = 0 both decay
    rates vanish identically: off resonance the lossless cavity supports no
    spontaneous or cooperative emission.

    The one-element coupling_rate_arrays call at R0 n0 (the rates depend
    on nothing else of R0 and n0), so they carry the batched chain's bits;
    a 0-d radius would take numpy's scalar arithmetic, which rounds some
    complex products differently.
    """
    rates = coupling_rate_arrays(atoms, np.array([cfg.radius * cfg.n0]), cfg.alpha, b=cfg.b)
    return CouplingRates(*(float(v[0]) for v in rates))


def coupling_rate_arrays(
    atoms: AtomPairConfig,
    radius: float | np.ndarray,
    alpha: float | np.ndarray,
    *,
    b: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(delta_omega, gamma, gamma_coop) over broadcast arrays of lens radii and loss ratios.

    The array form of coupling_rates(cfg, atoms) with
    cfg = LensConfig(radius, b=b, alpha=alpha) at each element (base index
    n0 = 1, the LensConfig default).  delta_omega and gamma_coop are
    Re/Im of (omega0 + i kappa)^2 G_zz, gamma the regularized on-site
    rate.  The atoms are fixed, so only the Legendre degree changes along
    the sweep, and one legendre_nu call serves every point.  Raises
    DomainError for a bad lens or coincident atoms, ResonanceError,
    CoincidentPointsError and NonConvergenceError, if any element is bad.
    """
    radius, alpha = np.broadcast_arrays(np.asarray(radius, dtype=float), np.asarray(alpha, dtype=float))
    check_lens(radius, 1.0, b, alpha)
    if atoms.p1 == atoms.p2:
        raise DomainError("atom positions must be distinct")
    omega = OMEGA0 * (1.0 + 1j * alpha)
    nu = order_parameters(radius, omega)
    s = _check_order(nu)  # one sine for the Green's function and the on-site rate
    pref = omega * omega * greens_zz_orders(b, nu, atoms.p1.rho, atoms.p1.phi, atoms.p2.rho, atoms.p2.phi, s)
    return _DW_PREF * pref.real, _onsite_gamma(b, nu, s), _G_PREF * pref.imag


def image_rates(cfg: LensConfig) -> CouplingRates:
    """Image-point model of the antipodal rates (source fringe dropped).

    Uses the kappa << omega0 prefactor omega0^2, the chain that yields the
    published scaling laws: delta_omega from Re of the image-point value
    -1/(4 b sin(pi nu)) at the exact complex order, gamma_coop from its Im
    (identically zero at half-integer Re nu), gamma from the regularized
    on-site rule.  Valid at any detuning; position independent by
    construction.  The sign is the source derivation's, opposite to the exact
    image-term limit of greens_zz: delta_omega is opposite in sign to
    coupling_rates' (-3.749 against +3.348 at R0 = 3.34, alpha = 5e-4).
    """
    omega = OMEGA0 * (1.0 + 1j * cfg.alpha)
    nu = order_parameter(cfg, omega)
    g_img = -1.0 / (4.0 * cfg.b * _check_order(nu))
    return CouplingRates(
        delta_omega=_DW_PREF * OMEGA0**2 * g_img.real,
        gamma=_onsite_gamma(cfg.b, nu),
        gamma_coop=_G_PREF * OMEGA0**2 * g_img.imag,
    )


def rates_modesum_oracle(
    cfg: LensConfig,
    atoms: AtomPairConfig,
    l_max: int | None = None,
) -> CouplingRates:
    """Pair rates summed directly over the lossy cavity spectrum (test oracle).

    delta_omega and gamma_coop are Re/Im of (omega0 + i kappa)^2 G_zz at
    omega0 + i kappa, as in coupling_rates, with G_zz the eigenmode sum
    greens_modesum_points: per mode, Im{omega^2 / (omega^2 - omega_l^2)} =
    -(kappa/2)(L_l^+ + L_l^-), L_l^{+-} = -+ omega_l / (kappa^2 + (omega_l +- omega0)^2).
    The on-site gamma has no convergent mode representation (flat kappa
    gives a logarithmically divergent on-site sum), so the returned gamma
    is the shared closed-form regularization.

    The Wynn estimate bounds the complex sum, of which gamma_coop can be a
    small part; where it misses that part, a second sum at the tolerance
    scaled by it goes on doubling from the first one's l_max.  l_max is where
    the doubling starts.  Raises CoincidentPointsError within the mode sum's
    source exclusion, ResonanceError, and NonConvergenceError when the
    estimate exceeds MODESUM_TOL of delta_omega or of a nonzero gamma_coop.
    """
    omega = OMEGA0 * (1.0 + 1j * cfg.alpha)
    points = (atoms.p1.rho, atoms.p1.phi, atoms.p2.rho, atoms.p2.phi)
    r = greens_modesum_points(cfg, *points, omega, l_max)
    pref = omega * omega * complex(r.value[0])
    smaller = min(abs(pref.real), abs(pref.imag))  # exactly 0 at real omega, where every term is real
    if r.converged[0] and abs(omega) ** 2 * r.tail_estimate[0] > MODESUM_TOL * smaller > 0.0:
        l_next = min(2 * int(r.l_max[0]), MODESUM_LMAX_CAP)
        r = greens_modesum_points(cfg, *points, omega, l_next, MODESUM_TOL * smaller / abs(pref))
        pref = omega * omega * complex(r.value[0])
    err = abs(omega) ** 2 * float(r.tail_estimate[0])
    for name, part in (("delta_omega", pref.real), ("gamma_coop", pref.imag)):
        if part and not err <= MODESUM_TOL * abs(part):
            raise NonConvergenceError(f"{name} mode sum not converged at l_max = {r.l_max[0]} "
                                      f"(Wynn error {err:.3g}, value {abs(part):.3g})")
    gamma = float(_onsite_gamma(cfg.b, order_parameter(cfg, omega)))
    return CouplingRates(_DW_PREF * pref.real, gamma, _G_PREF * pref.imag)


def scaling_rates(cfg: LensConfig) -> CouplingRates:
    """Small-alpha scaling laws at half-integer Re nu (antipodal atoms), at R0 = cfg.radius and alpha = cfg.alpha.

        delta_omega ~ -+ (3 lambda / 8b) / (1 + (2 pi^2 R0 alpha / lambda)^2)
        gamma       ~ (3/2) pi^2 R0 alpha / b
        gamma_coop  ~ 0

    in Gamma0 units; the -+ is minus for even m (Re nu = m + 0.5), plus for
    odd, carried explicitly.  Caller is responsible for Re nu actually being
    half-integer and alpha << 1.
    """
    m = round(order_parameter(cfg, OMEGA0).real - 0.5)
    sign = -1.0 if m % 2 == 0 else 1.0
    x = 2.0 * math.pi**2 * cfg.radius * cfg.alpha
    dw = sign * (3.0 / (8.0 * cfg.b)) / (1.0 + x * x)
    gamma = 1.5 * math.pi**2 * cfg.radius * cfg.alpha / cfg.b
    return CouplingRates(delta_omega=dw, gamma=gamma, gamma_coop=0.0)


def trajectory(rates: CouplingRates, t_grid: np.ndarray) -> TwoAtomTrajectory:
    """Closed-form single-excitation exchange dynamics.

        |C_+-(t)|^2 = (e^{-gamma t}/2) [cosh(gamma_coop t) +- cos(2 delta_omega t)]

    pop1 = |C_+|^2 (initially excited atom), pop2 = |C_-|^2.  The Bell
    fidelity is the overlap with the maximally entangled state approached at
    t0 = pi/(4 |delta_omega|):

        F(t) = (e^{-gamma t}/2) [cosh(gamma_coop t) + sin(2 |delta_omega| t)],

    which is the (|e,g> - i |g,e>)/sqrt(2) overlap for delta_omega > 0 and
    the +i partner for delta_omega < 0; F(0) = 1/2 for any sign.
    pop1 + pop2 = e^{-gamma t} cosh(gamma_coop t) is formed as fidelity_from_rates
    forms F, (e^{-(gamma - |gamma_coop|) t} + e^{-(gamma + |gamma_coop|) t})/2,
    which stays finite where cosh alone overflows (|gamma_coop t| > ~710, as
    near an integer Re nu, where |delta_omega| is small and the window long).
    Raises UnphysicalRatesError where it exceeds 1 by more than rounding,
    which needs |gamma_coop| > gamma, and RangeOverflowError where it is not
    finite (a non-finite t).
    """
    if not all(np.isfinite([rates.delta_omega, rates.gamma, rates.gamma_coop])):
        raise DomainError("rates must be finite")
    t = np.asarray(t_grid, dtype=float)
    g, gc = rates.gamma, abs(rates.gamma_coop)
    with np.errstate(over="ignore", invalid="ignore"):
        envelope = np.exp(-g * t)
        total = 0.5 * (np.exp(-(g - gc) * t) + np.exp(-(g + gc) * t))
    values = f"gamma = {g:.6g}, gamma_coop = {rates.gamma_coop:.6g}, t up to {np.max(t, initial=0.0):.6g}"
    if np.any(total > 1.0 + 1e-12):
        raise UnphysicalRatesError(f"pop1 + pop2 above 1: |gamma_coop| exceeds gamma ({values})")
    if not np.all(np.isfinite(total)):
        raise RangeOverflowError(f"pop1 + pop2 = exp(-gamma t) cosh(gamma_coop t) is not finite ({values})")
    osc = envelope * np.cos(2.0 * rates.delta_omega * t)
    pop1 = 0.5 * (total + osc)
    pop2 = 0.5 * (total - osc)
    fid = 0.5 * (total + envelope * np.sin(2.0 * abs(rates.delta_omega) * t))
    return TwoAtomTrajectory(times=t, pop1=pop1, pop2=pop2, bell_fidelity=fid)


def entanglement_fidelity(rates: CouplingRates) -> float:
    """Maximal Bell fidelity F = exp(-pi|gamma/delta_omega|/4) cosh(pi|gamma_coop/delta_omega|/4).

    Evaluated at the first population-balance time t0 = pi/(4 delta_omega);
    unity in the lossless cavity.  Raises ZeroCouplingError at delta_omega = 0
    and RangeOverflowError where F overflows (only possible for
    |gamma_coop| well above |gamma|), UnphysicalRatesError where F > 1.
    """
    return float(fidelity_from_rates(rates.delta_omega, rates.gamma, rates.gamma_coop))


def fidelity_approx(R0_over_lambda: float, alpha: float, eta: float = math.inf) -> float:
    """Scaling-law fidelity F = exp(-pi^3 (1 + f/eta) R0 alpha / lambda).

    Follows from the half-integer scaling rates; caller keeps Re nu at
    m + 0.5 (antipodal atoms assumed).  A finite Purcell ratio
    eta = gamma/gamma0 adds the free-space leakage gamma -> gamma + f gamma0,
    f = _FREESPACE_FRACTION; eta = inf gives exp(-pi^3 R0 alpha / lambda)
    bit for bit.  Raises DomainError unless R0 > 0, alpha >= 0 and eta > 0.
    """
    if not (R0_over_lambda > 0 and alpha >= 0 and eta > 0):
        raise DomainError(f"need R0 > 0, alpha >= 0 and eta > 0, got {R0_over_lambda}, {alpha} and {eta}")
    return math.exp(-math.pi**3 * (1.0 + _FREESPACE_FRACTION / eta) * R0_over_lambda * alpha)
