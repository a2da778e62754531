"""Surface-plasmon realization of the gradient-index profile.

A thin dielectric layer of height d on a flat metal surface guides a bound
TM plasmon whose complex effective index ntilde(d) = n(d) + i chi(d) solves

    tanh(k_d eps_d d) = -(k_air k_d + k_d k_m) / (k_d^2 + k_air k_m),

    k_air = sqrt((ntilde k0)^2 - k0^2),
    k_d   = sqrt((ntilde k0)^2 - eps_d k0^2) / eps_d,
    k_m   = sqrt((ntilde k0)^2 - eps_m k0^2) / eps_m,

with k0 = 2 pi / lambda0.  All square roots take the Re >= 0 branch (the
transverse decay constants of a bound mode); dividing by eps_m < 0 makes
Re k_m < 0, which is what closes the d -> 0 flat-interface limit
ntilde = sqrt(eps_m/(eps_m + 1)).  The d -> infinity limit is
sqrt(eps_m eps_d/(eps_m + eps_d)).

Varying d between 0 and ~200 nm sweeps Re ntilde monotonically from ~1.02
to ~2, enough to realize the lens profile 2 n0/(1 + rho^2) as a conical
height map d(rho).  The absorption loss ratio is kappa_abs/omega0 =
chi/n averaged over the lens radius; mirror leakage adds
t^2 lambda0 / (4 pi nbar R0).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchJumpError, DomainError, RootNotFoundError
from .lens import LensConfig, radial_mean_index, refractive_index
from .qed import fidelity_with_freespace

#: Continuation step for root tracking along the height sweep (nm).
CONTINUATION_STEP_NM = 0.5

#: Adjacent-sample jump in Re ntilde that flags a branch change.
BRANCH_JUMP_TOL = 0.05

#: Loss ratio quoted in the source estimate for this stack (absorption plus
#: mirror leakage); its mirror part is ~3.6x below the printed mirror-loss
#: formula evaluated with the same inputs, so both are reported side by side.
NOMINAL_TOTAL_LOSS = 3.4e-3
NOMINAL_MIRROR_LOSS = 4e-4


@dataclass(frozen=True)
class PlasmonStack:
    """Metal / dielectric / air stack parameters at the working wavelength."""

    eps_metal: complex = -25.23 + 0.589j
    eps_dielectric: float = 3.6
    lambda0_nm: float = 737.0

    def __post_init__(self):
        if self.eps_metal.real >= -1.0:
            raise DomainError("need Re(eps_metal) < -1 for a bound surface mode")
        if self.eps_dielectric <= 1.0:
            raise DomainError("eps_dielectric must exceed 1")
        if self.lambda0_nm <= 0:
            raise DomainError("wavelength must be positive")

    @property
    def k0(self) -> float:
        """Vacuum wavenumber in 1/nm."""
        return 2.0 * math.pi / self.lambda0_nm

    @property
    def flat_interface_index(self) -> complex:
        """d -> 0 limit sqrt(eps_m / (eps_m + 1))."""
        return cmath.sqrt(self.eps_metal / (self.eps_metal + 1.0))

    @property
    def thick_film_index(self) -> complex:
        """d -> infinity limit sqrt(eps_m eps_d / (eps_m + eps_d))."""
        return cmath.sqrt(
            self.eps_metal
            * self.eps_dielectric
            / (self.eps_metal + self.eps_dielectric)
        )


@dataclass(frozen=True)
class EffectiveIndexSample:
    """Solved guided-mode index at one dielectric height."""

    height_nm: float
    n_eff: complex

    @property
    def n(self) -> float:
        return self.n_eff.real

    @property
    def chi(self) -> float:
        return self.n_eff.imag


def _decay_root(z: complex) -> complex:
    """Square root on the Re >= 0 branch (Im >= 0 tie-break on the cut)."""
    r = cmath.sqrt(z)
    if r.real < 0.0 or (r.real == 0.0 and r.imag < 0.0):
        r = -r
    return r


def transverse_wavenumbers(n_eff: complex, stack: PlasmonStack) -> tuple[complex, complex, complex]:
    """(k_air, k_d, k_m) for a trial index; decay-branch square roots."""
    k0 = stack.k0
    nk2 = (n_eff * k0) ** 2
    k_air = _decay_root(nk2 - k0**2)
    k_d = _decay_root(nk2 - stack.eps_dielectric * k0**2) / stack.eps_dielectric
    k_m = _decay_root(nk2 - stack.eps_metal * k0**2) / stack.eps_metal
    return k_air, k_d, k_m


def dispersion_residual(n_eff: complex, d_nm: float, stack: PlasmonStack) -> complex:
    """Left minus right of the implicit guided-mode equation; zero at a mode."""
    k_air, k_d, k_m = transverse_wavenumbers(n_eff, stack)
    return np.tanh(k_d * stack.eps_dielectric * d_nm) + (
        k_air * k_d + k_d * k_m
    ) / (k_d**2 + k_air * k_m)


def _residual_smooth(n_eff: complex, d_nm: float, stack: PlasmonStack) -> complex:
    """Desingularized residual used by the Newton iteration.

    The printed equation carries an overall factor k_d / (k_d^2 + k_air k_m):
    both sides vanish like k_d when the tracked mode crosses the dielectric
    light line (n_eff = sqrt(eps_d)), where k_d has a branch point and the
    physical root collides with that spurious sqrt zero.  Multiplying through
    by (k_d^2 + k_air k_m)/k_d gives

        R = tanh(k_d eps_d d)/k_d * (k_d^2 + k_air k_m) + (k_air + k_m),

    which has the same roots, is analytic in k_d^2 (tanh(z)/z is even), and
    stays well-behaved through the crossing.
    """
    k_air, k_d, k_m = transverse_wavenumbers(n_eff, stack)
    z = k_d * stack.eps_dielectric * d_nm
    if abs(z) < 1e-6:
        t_over_kd = stack.eps_dielectric * d_nm * (1.0 - z * z / 3.0)
    else:
        t_over_kd = np.tanh(z) / k_d
    return t_over_kd * (k_d * k_d + k_air * k_m) + (k_air + k_m)


def _newton(stack: PlasmonStack, d_nm: float, seed: complex, tol: float = 1e-13, max_iter: int = 80) -> complex:
    """Damped Newton iteration on the desingularized residual (numeric derivative)."""
    z = complex(seed)
    f_scale = stack.k0
    for _ in range(max_iter):
        f = _residual_smooth(z, d_nm, stack)
        if abs(f) < 1e-13 * f_scale:
            return z
        h = 1e-7 * max(1.0, abs(z))
        df = (_residual_smooth(z + h, d_nm, stack) - f) / h
        if df == 0:
            break
        step = f / df
        damping = 1.0
        while damping > 1.0 / 64.0:
            trial = z - damping * step
            if abs(_residual_smooth(trial, d_nm, stack)) < abs(f):
                break
            damping *= 0.5
        z = z - damping * step
        if abs(step) * damping < tol * max(1.0, abs(z)):
            return z
    if abs(_residual_smooth(z, d_nm, stack)) < 1e-8 * f_scale:
        return z
    raise RootNotFoundError(
        f"dispersion root did not converge at d = {d_nm} nm (last iterate {z})"
    )


def solve_effective_index(
    d_nm: float,
    stack: PlasmonStack,
    seed: complex | None = None,
) -> EffectiveIndexSample:
    """Complex effective index ntilde(d) of the bound mode at height d.

    Without a seed the root is tracked by continuation from the analytic
    d = 0 value in 0.5 nm steps (reusing each previous root), which keeps
    the iteration on the bound branch; an explicit seed skips the sweep.
    Raises BranchJumpError if Re ntilde moves by more than 0.05 between
    adjacent continuation samples.
    """
    if d_nm < 0:
        raise DomainError("height must be >= 0")
    if seed is not None:
        return EffectiveIndexSample(d_nm, _newton(stack, d_nm, seed))
    z = stack.flat_interface_index
    steps = int(math.ceil(d_nm / CONTINUATION_STEP_NM))
    for i in range(1, steps + 1):
        d_i = min(d_nm, i * CONTINUATION_STEP_NM)
        z_next = _newton(stack, d_i, z)
        if abs(z_next.real - z.real) > BRANCH_JUMP_TOL:
            raise BranchJumpError(
                f"guided branch lost near d = {d_i} nm "
                f"({z.real:.4f} -> {z_next.real:.4f})"
            )
        z = z_next
    if d_nm == 0.0:
        z = _newton(stack, 0.0, z)
    return EffectiveIndexSample(d_nm, z)


def sweep_effective_index(
    d_max_nm: float,
    stack: PlasmonStack,
    step_nm: float = CONTINUATION_STEP_NM,
) -> list[EffectiveIndexSample]:
    """Continuation sweep of ntilde(d) on a uniform height grid from 0 to d_max.

    Root tracking always advances by at most CONTINUATION_STEP_NM internally
    (so branch-jump detection stays calibrated); step_nm only sets the
    reported grid.
    """
    if d_max_nm <= 0 or step_nm <= 0:
        raise DomainError("need positive sweep range and step")
    grid = [i * step_nm for i in range(int(math.floor(d_max_nm / step_nm)) + 1)]
    if grid[-1] < d_max_nm - 1e-9:
        grid.append(d_max_nm)
    samples = []
    z = stack.flat_interface_index
    d_prev = 0.0
    for d in grid:
        span = d - d_prev
        substeps = max(1, int(math.ceil(span / CONTINUATION_STEP_NM)))
        for i in range(1, substeps + 1):
            d_i = d_prev + span * i / substeps
            z_next = _newton(stack, d_i, z)
            if abs(z_next.real - z.real) > BRANCH_JUMP_TOL:
                raise BranchJumpError(f"guided branch lost near d = {d_i} nm")
            z = z_next
        if not samples and d == 0.0:
            z = _newton(stack, 0.0, z)
        samples.append(EffectiveIndexSample(d, z))
        d_prev = d
    return samples


def height_for_index(n_target: float, stack: PlasmonStack, d_max_nm: float = 2000.0) -> float:
    """Invert Re ntilde(d) = n_target by bisection on the monotone sweep.

    Raises DomainError for targets outside [n(0), n(d_max)); the reachable
    ceiling is the thick-film limit sqrt(eps_m eps_d/(eps_m + eps_d)).
    """
    n0 = stack.flat_interface_index.real
    if n_target < n0:
        raise DomainError(
            f"target index {n_target} below the bare-interface value {n0:.4f}"
        )
    if n_target >= stack.thick_film_index.real:
        raise DomainError(
            f"target index {n_target} at or above the thick-film ceiling "
            f"{stack.thick_film_index.real:.4f}"
        )
    if n_target == n0:
        return 0.0
    # bracket by continuation, then refine with warm-started secant solves
    lo, z_lo = 0.0, stack.flat_interface_index
    hi = None
    d = CONTINUATION_STEP_NM
    z = z_lo
    while d <= d_max_nm:
        z = _newton(stack, d, z)
        if z.real >= n_target:
            hi = d
            break
        lo, z_lo = d, z
        d += max(CONTINUATION_STEP_NM, 0.02 * d)
    if hi is None:
        raise DomainError(
            f"target index {n_target} not reached below d = {d_max_nm} nm"
        )
    return _invert_height(stack, lo, hi, z_lo, n_target)[0]


def _invert_height(
    stack: PlasmonStack,
    d_lo: float,
    d_hi: float,
    z_seed: complex,
    n_target: float,
    tol: float = 1e-10,
) -> tuple[float, complex]:
    """Secant iteration for Re ntilde(d) = n_target inside a bracket.

    Returns the height and the index solved there.  Raises RootNotFoundError
    if the secant stalls or 80 iterations do not bring Re ntilde within `tol`
    of the target.
    """
    a, b = d_lo, d_hi
    za = _newton(stack, a, z_seed)
    fa = za.real - n_target
    zb = _newton(stack, b, za)
    fb = zb.real - n_target
    if fa == 0.0:
        return a, za
    for _ in range(80):
        if fb == fa:
            break
        c = b - fb * (b - a) / (fb - fa)
        c = min(max(c, min(d_lo, d_hi)), max(d_lo, d_hi))
        zc = _newton(stack, c, zb)
        fc = zc.real - n_target
        a, fa = b, fb
        b, fb, zb = c, fc, zc
        if abs(fc) < tol:
            return c, zc
    raise RootNotFoundError(
        f"no height in [{d_lo}, {d_hi}] nm gives index {n_target} "
        f"(last iterate d = {b} nm, residual {fb:.3g})"
    )


def lens_height_profile(
    cfg: LensConfig,
    stack: PlasmonStack,
    n_radial_samples: int = 1000,
) -> list[tuple[float, float]]:
    """Dielectric height map d(rho) realizing n_eff(rho) = 2 n0/(1 + rho^2).

    Returns (rho, d_nm) pairs on a uniform radial grid; d decreases
    monotonically outward (conical shape).  Targets below the bare-interface
    index (the rim for n0 = 1, where the profile asks for exactly 1 but the
    flat surface already gives ~1.02) are clamped to d = 0.
    """
    return [(rho, d) for rho, d, _ in _profile_samples(cfg, stack, n_radial_samples)]


def _profile_samples(
    cfg: LensConfig,
    stack: PlasmonStack,
    n_radial_samples: int,
) -> list[tuple[float, float, complex]]:
    """(rho, d_nm, ntilde) of lens_height_profile, with the index solved at each height."""
    if n_radial_samples < 2:
        raise DomainError("need at least two radial samples")
    n_floor = stack.flat_interface_index.real
    ceiling = stack.thick_film_index.real
    center_target = refractive_index(cfg, 0.0)
    if center_target >= ceiling:
        raise DomainError(
            f"profile needs index {center_target:.3f}, above the stack "
            f"ceiling {ceiling:.3f}"
        )
    # one continuation sweep bracketing the largest target, then local
    # secant inversion per radius (monotone table)
    table = [EffectiveIndexSample(0.0, stack.flat_interface_index)]
    z = table[0].n_eff
    d = 0.0
    while table[-1].n < center_target:
        d += CONTINUATION_STEP_NM
        if d > 10_000.0:
            raise DomainError("center index unreachable within 10 um of dielectric")
        z_next = _newton(stack, d, z)
        if abs(z_next.real - z.real) > BRANCH_JUMP_TOL:
            raise BranchJumpError(f"guided branch lost near d = {d} nm")
        z = z_next
        table.append(EffectiveIndexSample(d, z))
    heights = np.array([s.height_nm for s in table])
    n_re = np.array([s.n for s in table])
    z_floor = _newton(stack, 0.0, stack.flat_interface_index)
    out = []
    for rho in np.linspace(0.0, 1.0, n_radial_samples):
        target = refractive_index(cfg, float(rho))
        if target <= n_floor:
            out.append((float(rho), 0.0, z_floor))
            continue
        i = int(np.searchsorted(n_re, target))
        i = min(max(i, 1), len(table) - 1)
        d_rho, z_rho = _invert_height(
            stack, heights[i - 1], heights[i], table[i - 1].n_eff, target
        )
        out.append((float(rho), d_rho, z_rho))
    return out


def average_absorption(
    cfg: LensConfig,
    stack: PlasmonStack,
    n_radial_samples: int = 1000,
) -> float:
    """Radially averaged absorption ratio (1/R0) int chi(r)/n(r) dr.

    chi and n are those of the mode the height inversion solved at d(rho);
    the average is uniform in r (trapezoid over the rho grid).
    """
    samples = _profile_samples(cfg, stack, n_radial_samples)
    rhos = np.array([rho for rho, _, _ in samples])
    ratios = np.array([z.imag / z.real for _, _, z in samples])
    return float(np.trapezoid(ratios, rhos))


def mirror_loss(cfg: LensConfig, reflectivity_sq: float, n_bar: float) -> float:
    """Mirror leakage ratio kappa_mirror/omega0 = t^2 lambda0 / (4 pi nbar R0).

    t^2 = 1 - r^2 is the transmission; the photon crosses the lens every
    2 R0 nbar / c, surviving ~1/t^2 bounces.
    """
    if not 0.0 < reflectivity_sq <= 1.0:
        raise DomainError("reflectivity r^2 must lie in (0, 1]")
    if n_bar <= 0:
        raise DomainError("mean index must be positive")
    t_sq = 1.0 - reflectivity_sq
    return t_sq / (4.0 * math.pi * n_bar * cfg.radius)


@dataclass(frozen=True)
class EndToEndReport:
    """Loss budget and fidelity estimate for the plasmonic lens."""

    alpha_abs: float
    alpha_mirror_formula: float
    alpha_mirror_reference: float
    alpha_total_computed: float
    fidelity_computed: float        # using the computed loss budget
    fidelity_nominal: float         # using the quoted total alpha = 3.4e-3


def end_to_end_estimate(
    cfg: LensConfig,
    stack: PlasmonStack,
    reflectivity_sq: float = 0.95,
    eta: float = 3.0,
    n_radial_samples: int = 1000,
) -> EndToEndReport:
    """Full chain: dispersion sweep -> loss budget -> entangling fidelity.

    alpha = averaged absorption + mirror leakage feeds the free-space-
    corrected fidelity.  Two numbers are reported: one from the computed
    budget (with the printed mirror-loss formula) and one from the quoted
    total loss NOMINAL_TOTAL_LOSS = 3.4e-3, whose mirror part (~4e-4) is a
    factor ~3.6 below the same formula; the discrepancy is surfaced, not
    hidden.
    """
    a_abs = average_absorption(cfg, stack, n_radial_samples)
    a_mirror = mirror_loss(cfg, reflectivity_sq, radial_mean_index(cfg))
    a_total = a_abs + a_mirror
    return EndToEndReport(
        alpha_abs=a_abs,
        alpha_mirror_formula=a_mirror,
        alpha_mirror_reference=NOMINAL_MIRROR_LOSS,
        alpha_total_computed=a_total,
        fidelity_computed=fidelity_with_freespace(cfg.radius, a_total, eta),
        fidelity_nominal=fidelity_with_freespace(cfg.radius, NOMINAL_TOTAL_LOSS, eta),
    )
