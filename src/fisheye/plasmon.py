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
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import BranchJumpError, DomainError, RootNotFoundError
from .lens import LensConfig, radial_mean_index, refractive_index
from .qed import fidelity_with_freespace

#: Continuation step for root tracking along the height sweep (nm).
CONTINUATION_STEP_NM = 0.5

#: Adjacent-sample jump in Re ntilde that flags a branch change.
BRANCH_JUMP_TOL = 0.05

#: Height cap of the lattice walks that bracket a target index (nm).  Re
#: ntilde closes on the thick-film ceiling exponentially (within 6e-8 at
#: 1,200 nm for the default stack), so only targets within rounding of the
#: ceiling run into it.
MAX_HEIGHT_NM = 10_000.0

#: Relative step size that stops the damped Newton iteration, and its
#: iteration cap (_newton and _newton_batch alike).
NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 80

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
        if not (cmath.isfinite(self.eps_metal) and math.isfinite(self.eps_dielectric) and math.isfinite(self.lambda0_nm)):
            raise DomainError("eps_metal, eps_dielectric and lambda0_nm must be finite")
        if self.eps_metal.real >= -1.0:
            raise DomainError("need Re(eps_metal) < -1 for a bound surface mode")
        if self.eps_dielectric <= 1.0:
            raise DomainError("eps_dielectric must exceed 1")
        if self.lambda0_nm <= 0:
            raise DomainError("wavelength must be positive")
        # constants of transverse_wavenumbers, which a Newton solve calls ~10 times
        k0_sq = self.k0**2
        constants = (self.k0, k0_sq, self.eps_dielectric * k0_sq, self.eps_metal * k0_sq)
        object.__setattr__(self, "_wavenumber_constants", constants)

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


def _decay_root(z: complex | np.ndarray) -> complex | np.ndarray:
    """Square root on the Re >= 0 branch (Im >= 0 tie-break on the cut); elementwise on arrays."""
    if isinstance(z, np.ndarray):
        r = np.sqrt(z)
        return np.where((r.real < 0.0) | ((r.real == 0.0) & (r.imag < 0.0)), -r, r)
    r = cmath.sqrt(z)
    if r.real < 0.0 or (r.real == 0.0 and r.imag < 0.0):
        r = -r
    return r


def transverse_wavenumbers(n_eff: complex, stack: PlasmonStack) -> tuple[complex, complex, complex]:
    """(k_air, k_d, k_m) for a trial index (or an array of them); decay-branch square roots."""
    k0, k0_sq, eps_d_k0_sq, eps_m_k0_sq = stack._wavenumber_constants
    nk2 = (n_eff * k0) ** 2
    k_air = _decay_root(nk2 - k0_sq)
    k_d = _decay_root(nk2 - eps_d_k0_sq) / stack.eps_dielectric
    k_m = _decay_root(nk2 - eps_m_k0_sq) / stack.eps_metal
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
    stays well-behaved through the crossing.  n_eff and d_nm may be arrays
    of one shape (the batched Newton iteration).
    """
    k_air, k_d, k_m = transverse_wavenumbers(n_eff, stack)
    z = k_d * stack.eps_dielectric * d_nm
    series = stack.eps_dielectric * d_nm * (1.0 - z * z / 3.0)
    if isinstance(z, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):
            t_over_kd = np.where(np.abs(z) < 1e-6, series, np.tanh(z) / k_d)
    else:
        t_over_kd = series if abs(z) < 1e-6 else np.tanh(z) / k_d
    return t_over_kd * (k_d * k_d + k_air * k_m) + (k_air + k_m)


def _newton(stack: PlasmonStack, d_nm: float, seed: complex) -> complex:
    """Damped Newton iteration on the desingularized residual (numeric derivative).

    One height, for the continuation walk _track, where each solve is
    seeded by the last; _newton_batch runs the same iteration over many
    heights (a one-element batch costs ~15x a scalar call).
    """
    z = complex(seed)
    f_scale = stack.k0
    f = _residual_smooth(z, d_nm, stack)
    for _ in range(NEWTON_MAX_ITER):
        if abs(f) < 1e-13 * f_scale:
            return z
        h = 1e-7 * max(1.0, abs(z))
        df = (_residual_smooth(z + h, d_nm, stack) - f) / h
        if df == 0:
            break
        step = f / df
        damping = 1.0
        while damping > 1.0 / 64.0:
            f_trial = _residual_smooth(z - damping * step, d_nm, stack)
            if abs(f_trial) < abs(f):
                break
            damping *= 0.5
        else:  # the last halving was not evaluated
            f_trial = None
        z = z - damping * step
        if abs(step) * damping < NEWTON_TOL * max(1.0, abs(z)):
            return z
        # an accepted trial is the new iterate, so its residual is the next f
        f = _residual_smooth(z, d_nm, stack) if f_trial is None else f_trial
    if abs(f) < 1e-8 * f_scale:
        return z
    raise RootNotFoundError(
        f"dispersion root did not converge at d = {d_nm} nm (last iterate {z})"
    )


def _newton_batch(stack: PlasmonStack, d_nm: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """_newton over 1-D arrays of heights and seeds, all elements at once.

    Each element follows the scalar iteration: its own damping halvings, the
    same stopping rules, and acceptance at |f| < 1e-8 k0 when the iteration
    stalls or runs out; it is retired once it stops.  Raises
    RootNotFoundError naming the first height that does not converge.
    """
    z = np.array(seed, dtype=complex)
    d = np.asarray(d_nm, dtype=float)
    f_scale = stack.k0
    live = np.arange(z.size)
    stuck = np.zeros(z.size, dtype=bool)
    for _ in range(NEWTON_MAX_ITER):
        if live.size == 0:
            break
        zl, dl = z[live], d[live]
        f = _residual_smooth(zl, dl, stack)
        # negated tests, as in _newton, so that a nan element keeps iterating and fails
        moving = ~(np.abs(f) < 1e-13 * f_scale)
        live, zl, dl, f = live[moving], zl[moving], dl[moving], f[moving]
        h = 1e-7 * np.maximum(1.0, np.abs(zl))
        df = (_residual_smooth(zl + h, dl, stack) - f) / h
        flat = df == 0
        stuck[live[flat]] = True
        live, zl, dl, f, df = live[~flat], zl[~flat], dl[~flat], f[~flat], df[~flat]
        step = f / df
        damping = np.ones(live.size)
        trying = np.arange(live.size)
        while trying.size and damping[trying[0]] > 1.0 / 64.0:
            trial = zl[trying] - damping[trying] * step[trying]
            better = np.abs(_residual_smooth(trial, dl[trying], stack)) < np.abs(f[trying])
            trying = trying[~better]
            damping[trying] *= 0.5
        zl = zl - damping * step
        z[live] = zl
        live = live[~(np.abs(step) * damping < NEWTON_TOL * np.maximum(1.0, np.abs(zl)))]
    stuck[live] = True
    check = np.flatnonzero(stuck)
    failed = check[~(np.abs(_residual_smooth(z[check], d[check], stack)) < 1e-8 * f_scale)]
    if failed.size:
        i = failed[0]
        raise RootNotFoundError(
            f"dispersion root did not converge at d = {float(d[i])} nm (last iterate {complex(z[i])})"
        )
    return z


def _track(stack: PlasmonStack, heights: Iterable[float], n_stop: float = math.inf) -> list[EffectiveIndexSample]:
    """Continuation of ntilde(d) from the analytic d = 0 root through increasing heights.

    The gap to each height (the first from d = 0) is split into equal
    sub-steps of at most CONTINUATION_STEP_NM, each root seeded by the one
    before, which keeps the iteration on the bound branch.  Returns the root
    at every height, stopping after the first where Re ntilde >= n_stop.
    Raises BranchJumpError if Re ntilde moves by more than BRANCH_JUMP_TOL
    over one sub-step.
    """
    samples = []
    z, d_prev = stack.flat_interface_index, 0.0
    for d in heights:
        span = d - d_prev
        substeps = max(1, math.ceil(span / CONTINUATION_STEP_NM))
        for i in range(1, substeps + 1):
            d_i = d_prev + span * i / substeps
            z_next = _newton(stack, d_i, z)
            if abs(z_next.real - z.real) > BRANCH_JUMP_TOL:
                raise BranchJumpError(f"guided branch lost near d = {d_i} nm ({z.real:.4f} -> {z_next.real:.4f})")
            z = z_next
        samples.append(EffectiveIndexSample(d, z))
        if z.real >= n_stop:
            break
        d_prev = d
    return samples


def _lattice_walk(stack: PlasmonStack, n_stop: float) -> list[EffectiveIndexSample]:
    """_track over the CONTINUATION_STEP_NM lattice from d = 0 to the first height with Re ntilde >= n_stop."""
    steps = int(MAX_HEIGHT_NM / CONTINUATION_STEP_NM)
    table = _track(stack, (i * CONTINUATION_STEP_NM for i in range(steps + 1)), n_stop)
    if table[-1].n < n_stop:
        raise DomainError(f"index {n_stop} not reached below d = {MAX_HEIGHT_NM} nm")
    return table


def solve_effective_index(
    d_nm: float,
    stack: PlasmonStack,
    seed: complex | None = None,
) -> EffectiveIndexSample:
    """Complex effective index ntilde(d) of the bound mode at height d.

    Without a seed the root is tracked by _track from the analytic d = 0
    value; an explicit seed skips the continuation.
    """
    if d_nm < 0:
        raise DomainError("height must be >= 0")
    if seed is not None:
        return EffectiveIndexSample(d_nm, _newton(stack, d_nm, seed))
    return _track(stack, [d_nm])[0]


def sweep_effective_index(
    d_max_nm: float,
    stack: PlasmonStack,
    step_nm: float = CONTINUATION_STEP_NM,
) -> list[EffectiveIndexSample]:
    """Continuation sweep of ntilde(d) on a uniform height grid from 0 to d_max.

    step_nm only sets the reported grid: _track still advances by at most
    CONTINUATION_STEP_NM, so branch-jump detection stays calibrated.
    """
    if not (0 < d_max_nm < math.inf and 0 < step_nm < math.inf):
        raise DomainError("need positive sweep range and step")
    grid = [i * step_nm for i in range(int(math.floor(d_max_nm / step_nm)) + 1)]
    if grid[-1] < d_max_nm - 1e-9:
        grid.append(d_max_nm)
    return _track(stack, grid)


def height_for_index(n_target: float, stack: PlasmonStack) -> float:
    """Invert Re ntilde(d) = n_target: a lattice walk to the bracket, then a secant solve.

    Raises DomainError for targets outside [n(0), ceiling); the ceiling is
    the thick-film limit sqrt(eps_m eps_d/(eps_m + eps_d)).
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
    lo, hi = _lattice_walk(stack, n_target)[-2:]
    return float(_invert_height(stack, lo.height_nm, hi.height_nm, lo.n_eff, n_target)[0][0])


def _invert_height(
    stack: PlasmonStack,
    d_lo: float | np.ndarray,
    d_hi: float | np.ndarray,
    z_seed: complex | np.ndarray,
    n_target: float | np.ndarray,
    tol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray]:
    """Secant iteration for Re ntilde(d) = n_target inside a bracket, over a batch of brackets.

    The arguments broadcast to one 1-D batch, which is solved together: each
    element runs its own secant, warm-started from its last index, and is
    retired once Re ntilde is within `tol` of its target.  Returns the
    heights and the indices solved there.  Raises RootNotFoundError naming
    the first element whose secant stalls or whose 80 iterations do not
    converge.
    """
    d_lo, d_hi, n_target = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (d_lo, d_hi, n_target))
    d_lo, d_hi, n_target, z_seed = np.broadcast_arrays(d_lo, d_hi, n_target, np.asarray(z_seed, dtype=complex))
    lo, hi = np.minimum(d_lo, d_hi), np.maximum(d_lo, d_hi)
    a, b = d_lo.copy(), d_hi.copy()
    za = _newton_batch(stack, a, z_seed)
    fa = za.real - n_target
    zb = _newton_batch(stack, b, za)
    fb = zb.real - n_target
    exact = fa == 0.0
    d_out = np.where(exact, a, np.nan)
    z_out = np.where(exact, za, np.nan)
    live = np.flatnonzero(~exact)
    failed = np.zeros(a.size, dtype=bool)
    for _ in range(80):
        stalled = fb[live] == fa[live]
        failed[live[stalled]] = True
        live = live[~stalled]
        if live.size == 0:
            break
        c = b[live] - fb[live] * (b[live] - a[live]) / (fb[live] - fa[live])
        c = np.minimum(np.maximum(c, lo[live]), hi[live])
        zc = _newton_batch(stack, c, zb[live])
        fc = zc.real - n_target[live]
        a[live], fa[live] = b[live], fb[live]
        b[live], fb[live], zb[live] = c, fc, zc
        done = np.abs(fc) < tol
        d_out[live[done]], z_out[live[done]] = c[done], zc[done]
        live = live[~done]
    failed[live] = True
    if failed.any():
        i = np.flatnonzero(failed)[0]
        raise RootNotFoundError(
            f"no height in [{float(d_lo[i])}, {float(d_hi[i])}] nm gives index {float(n_target[i])} "
            f"(last iterate d = {float(b[i])} nm, residual {fb[i]:.3g})"
        )
    return d_out, z_out


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
    rhos, heights, _ = _profile_samples(cfg, stack, n_radial_samples)
    return list(zip(rhos.tolist(), heights.tolist()))


def _profile_samples(
    cfg: LensConfig,
    stack: PlasmonStack,
    n_radial_samples: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rho, d_nm, ntilde) arrays of lens_height_profile, with the index solved at each height."""
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
    # one lattice walk bracketing the largest target, then one batched
    # secant inversion over all radii (monotone table)
    table = _lattice_walk(stack, center_target)
    table_d = np.array([s.height_nm for s in table])
    table_z = np.array([s.n_eff for s in table])
    rhos = np.linspace(0.0, 1.0, n_radial_samples)
    targets = refractive_index(cfg, rhos)
    heights = np.zeros(n_radial_samples)
    indices = np.full(n_radial_samples, table[0].n_eff)
    inner = targets > n_floor
    i = np.clip(np.searchsorted(table_z.real, targets[inner]), 1, len(table) - 1)
    heights[inner], indices[inner] = _invert_height(
        stack, table_d[i - 1], table_d[i], table_z[i - 1], targets[inner]
    )
    return rhos, heights, indices


def average_absorption(
    cfg: LensConfig,
    stack: PlasmonStack,
    n_radial_samples: int = 1000,
) -> float:
    """Radially averaged absorption ratio (1/R0) int chi(r)/n(r) dr.

    chi and n are those of the mode the height inversion solved at d(rho);
    the average is uniform in r (trapezoid over the rho grid).
    """
    rhos, _, indices = _profile_samples(cfg, stack, n_radial_samples)
    return float(np.trapezoid(indices.imag / indices.real, rhos))


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
