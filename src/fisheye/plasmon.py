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
height map d(rho).  ntilde(d) is tracked from the analytic d = 0 root in
sub-steps of at most 0.5 nm, solved in batched blocks of 64 by the one
damped Newton iteration; each block is seeded by the secant predictor
through the last two roots, and every 0.5 nm sub-step is checked for a
branch jump.  Sweeps and the height map return arrays.  The absorption
loss ratio kappa_abs/omega0 = chi/n is averaged over the lens radius;
mirror leakage adds t^2 lambda0 / (4 pi nbar R0).
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import BranchJumpError, DomainError, RootNotFoundError
from .lens import LensConfig, radial_mean_index, refractive_index
from .qed import fidelity_approx

#: Continuation step for root tracking along the height sweep (nm).
CONTINUATION_STEP_NM = 0.5

#: Adjacent-sample jump in Re ntilde that flags a branch change.
BRANCH_JUMP_TOL = 0.05

#: Height cap of the lattice walk that brackets a profile's target indices,
#: and of a sweep's d_max (nm).  Re ntilde closes on the thick-film ceiling
#: exponentially (within 6e-8 at 1,200 nm for the default stack), so only
#: targets within rounding of the ceiling run into it.
MAX_HEIGHT_NM = 10_000.0

#: Most steps d_max / step_nm of a sweep grid; each step shorter than
#: CONTINUATION_STEP_NM is a solve of its own.
MAX_SWEEP_STEPS = 100_000

#: Sub-steps of the continuation walk solved per _newton_batch call, counted
#: from d = 0.  Swept to 400 nm over 75 stacks (eps_m in {-25.23+0.589i,
#: -10+1i, -5+0.3i, -50+2i, -3+0.2i}, eps_d in {1.5, 2.25, 3.6, 6, 10},
#: lambda0 in {500, 737, 1550} nm), blocks of 64 complete all 53 stacks that
#: one root per call completes, in about a third of its time; blocks of 32
#: take 1.5x as long as 64, and blocks of 128 lose 8 stacks.
CONTINUATION_BLOCK = 64

#: Relative step size that stops the damped Newton iteration, and its
#: iteration cap.
NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 80

#: |Re ntilde - target| that retires a height inversion.
INVERT_TOL = 1e-10

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
        # constants of transverse_wavenumbers, which a Newton solve calls ~5 times
        k0_sq = self.k0**2
        shifts = np.array([k0_sq, self.eps_dielectric * k0_sq, self.eps_metal * k0_sq], dtype=complex)
        object.__setattr__(self, "_wavenumber_constants", (self.k0, k0_sq, shifts))

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


def transverse_wavenumbers(n_eff: complex, stack: PlasmonStack) -> tuple[complex, complex, complex]:
    """(k_air, k_d, k_m) for a trial index (or an array of them): one np.sqrt of
    nk^2 - (k0^2, eps_d k0^2, eps_m k0^2), on the Re >= 0 branch (Im >= 0 tie-break on the cut)."""
    k0, _, shifts = stack._wavenumber_constants
    nk2 = (n_eff * k0) ** 2
    r = np.sqrt(nk2 - shifts.reshape((3,) + (1,) * np.ndim(nk2)))
    r = np.where((r.real < 0.0) | ((r.real == 0.0) & (r.imag < 0.0)), -r, r)
    return r[0], r[1] / stack.eps_dielectric, r[2] / stack.eps_metal


def dispersion_residual(n_eff: complex, d_nm: float, stack: PlasmonStack) -> complex:
    """Left minus right of the implicit guided-mode equation; zero at a mode."""
    k_air, k_d, k_m = transverse_wavenumbers(n_eff, stack)
    return np.tanh(k_d * stack.eps_dielectric * d_nm) + (
        k_air * k_d + k_d * k_m
    ) / (k_d**2 + k_air * k_m)


def _residual_smooth(n_eff: np.ndarray, d_nm: np.ndarray, stack: PlasmonStack) -> tuple[np.ndarray, np.ndarray]:
    """Desingularized residual used by the Newton iteration, and its slope in n_eff.

    The printed equation carries an overall factor k_d / (k_d^2 + k_air k_m):
    both sides vanish like k_d when the tracked mode crosses the dielectric
    light line (n_eff = sqrt(eps_d)), where k_d has a branch point and the
    physical root collides with that spurious sqrt zero.  Multiplying through
    by (k_d^2 + k_air k_m)/k_d gives, with z = k_d eps_d d,

        R = t (k_d^2 + k_air k_m) + (k_air + k_m),   t = tanh(z)/k_d = eps_d d tanh(z)/z,

    which has the same roots, is analytic in k_d^2 (tanh(z)/z is even), and
    stays well-behaved through the crossing.  Returns (R, dR/dn_eff), both
    from the same roots and tanh: dk/dn = n k0^2/(eps^2 k) for each root,
    d(k_d^2)/dn = 2 n k0^2/eps_d^2 is finite at the light line, and dt/dn =
    eps_d d^3 n k0^2 h(z), h = (z sech^2 z - tanh z)/z^3.  Where |z| < 1e-6,
    t takes its series eps_d d (1 - z^2/3), and where |z| < 1e-3 h takes
    -2/3 + 8 z^2/15 (good to ~5e-13 there; the closed form loses ~EPS/|z|^2
    to cancellation below it).
    n_eff and d_nm are arrays of one shape.
    """
    k_air, k_d, k_m = transverse_wavenumbers(n_eff, stack)
    eps_d = stack.eps_dielectric
    z = k_d * eps_d * d_nm
    zz, size = z * z, np.abs(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        th = np.tanh(z)
        t_over_kd = np.where(size < 1e-6, eps_d * d_nm * (1.0 - zz / 3.0), th / k_d)
        h = np.where(size < 1e-3, 8.0 / 15.0 * zz - 2.0 / 3.0, (z * (1.0 - th * th) - th) / (zz * z))
    nk0_sq = n_eff * stack._wavenumber_constants[1]
    dk_air, dk_m = nk0_sq / k_air, nk0_sq / (stack.eps_metal**2 * k_m)
    q = k_d * k_d + k_air * k_m
    dq = 2.0 / eps_d**2 * nk0_sq + dk_air * k_m + k_air * dk_m
    return t_over_kd * q + (k_air + k_m), eps_d * d_nm**3 * h * nk0_sq * q + t_over_kd * dq + dk_air + dk_m


def _newton_batch(stack: PlasmonStack, d_nm: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Damped Newton iteration on the desingularized residual over 1-D arrays of heights and seeds.

    All elements iterate at once, each with its own analytic slope (from
    _residual_smooth, with the residual) and damping halvings (down to
    1/64), and each is retired once its residual falls below 1e-13 k0 or its
    step below NEWTON_TOL.  An accepted damping trial's residual and slope
    are the next iterate's, so each iterate costs one evaluation.  An element
    that stalls or runs out of iterations is accepted at |f| < 1e-8 k0.
    Raises RootNotFoundError naming the first height that does not converge;
    its `roots` holds the elements before that one.
    """
    z = np.array(seed, dtype=complex)
    d = np.asarray(d_nm, dtype=float)
    f_scale = stack.k0
    f, df = _residual_smooth(z, d, stack)
    live = np.arange(z.size)
    stuck = np.zeros(z.size, dtype=bool)
    for _ in range(NEWTON_MAX_ITER):
        # negated tests, so that a nan element keeps iterating and fails
        live = live[~(np.abs(f[live]) < 1e-13 * f_scale)]
        if live.size == 0:
            break
        flat = df[live] == 0
        stuck[live[flat]] = True
        live = live[~flat]
        zl, dl, fl, dfl = z[live], d[live], f[live], df[live]
        step = fl / dfl
        damping = np.ones(live.size)
        trying = np.arange(live.size)
        while trying.size and damping[trying[0]] > 1.0 / 64.0:
            f_trial, df_trial = _residual_smooth(zl[trying] - damping[trying] * step[trying], dl[trying], stack)
            better = np.abs(f_trial) < np.abs(fl[trying])
            fl[trying[better]], dfl[trying[better]] = f_trial[better], df_trial[better]
            trying = trying[~better]
            damping[trying] *= 0.5
        zl = zl - damping * step
        # the last halving of an element that found no better trial was not evaluated
        if trying.size:
            fl[trying], dfl[trying] = _residual_smooth(zl[trying], dl[trying], stack)
        z[live], f[live], df[live] = zl, fl, dfl
        live = live[~(np.abs(step) * damping < NEWTON_TOL * np.maximum(1.0, np.abs(zl)))]
    stuck[live] = True
    failed = np.flatnonzero(stuck & ~(np.abs(f) < 1e-8 * f_scale))
    if failed.size:
        i = failed[0]
        error = RootNotFoundError(f"dispersion root did not converge at d = {float(d[i])} nm (last iterate {complex(z[i])})")
        error.roots = z[:i]
        raise error
    return z


def _substeps(heights: Iterable[float]) -> Iterator[tuple[float, float | None]]:
    """(d_i, d) along a walk from d = 0: equal sub-steps d_i of at most CONTINUATION_STEP_NM to each height d.

    The last sub-step to a height carries it as d (the solve at d_i may
    differ from d in the last bit); the others carry None.
    """
    d_prev = 0.0
    for d in heights:
        span = d - d_prev
        substeps = max(1, math.ceil(span / CONTINUATION_STEP_NM))
        for i in range(1, substeps + 1):
            yield d_prev + span * i / substeps, d if i == substeps else None
        d_prev = d


def _track(stack: PlasmonStack, heights: Iterable[float], n_stop: float = math.inf) -> tuple[np.ndarray, np.ndarray]:
    """Continuation of ntilde(d) from the analytic d = 0 root through heights increasing from 0.

    The gap to each height is split into equal sub-steps of at most
    CONTINUATION_STEP_NM (the first height, 0, is one solve).  The
    sub-steps are solved CONTINUATION_BLOCK at a time, counted from d = 0,
    by one _newton_batch call per block; each is seeded by the last root
    plus the secant predictor through the last two (the first block by the
    analytic root), which keeps the iteration on the bound branch.  Returns
    the heights and the roots there as arrays, stopping after the first
    where Re ntilde >= n_stop.  Raises BranchJumpError if Re ntilde moves by
    more than BRANCH_JUMP_TOL over one sub-step, the last of the previous
    block included, and RootNotFoundError at the first sub-step the walk
    reaches without a root.
    """
    d_out, z_out = [], []
    steps = _substeps(heights)
    z, d_last, slope = stack.flat_interface_index, 0.0, 0.0
    while block := list(itertools.islice(steps, CONTINUATION_BLOCK)):
        d_block = np.array([d_i for d_i, _ in block])
        try:
            roots, error = _newton_batch(stack, d_block, z + slope * (d_block - d_last)), None
        except RootNotFoundError as exc:
            roots, error = exc.roots, exc
        for (d_i, d), z_next in zip(block, roots.tolist()):
            if abs(z_next.real - z.real) > BRANCH_JUMP_TOL:
                raise BranchJumpError(f"guided branch lost near d = {d_i} nm ({z.real:.4f} -> {z_next.real:.4f})")
            z = z_next
            if d is not None:
                d_out.append(d)
                z_out.append(z)
                if z.real >= n_stop:
                    return np.array(d_out, dtype=float), np.array(z_out, dtype=complex)
        if error:
            raise error
        if len(block) == CONTINUATION_BLOCK:  # another block may follow
            d_last, slope = d_block[-1], (roots[-1] - roots[-2]) / (d_block[-1] - d_block[-2])
    return np.array(d_out, dtype=float), np.array(z_out, dtype=complex)


def solve_effective_index(d_nm: float, stack: PlasmonStack) -> complex:
    """Complex effective index ntilde(d) of the bound mode at height d, tracked by _track from d = 0.

    Raises DomainError unless d is finite and >= 0 (NaN fails the check).
    """
    if not 0 <= d_nm < math.inf:
        raise DomainError(f"height must be finite and >= 0, got {d_nm:g} nm")
    return complex(_track(stack, [0.0, d_nm])[1][-1])


def sweep_effective_index(
    d_max_nm: float,
    stack: PlasmonStack,
    step_nm: float = CONTINUATION_STEP_NM,
) -> tuple[np.ndarray, np.ndarray]:
    """Continuation sweep of ntilde(d) on a uniform height grid from 0 to d_max: the heights and indices.

    step_nm only sets the reported grid: _track still advances by at most
    CONTINUATION_STEP_NM, so branch-jump detection stays calibrated.  Raises
    DomainError unless d_max is in (0, MAX_HEIGHT_NM] and the grid has at
    most MAX_SWEEP_STEPS steps.
    """
    if not (0 < d_max_nm <= MAX_HEIGHT_NM and 0 < step_nm < math.inf and d_max_nm / step_nm <= MAX_SWEEP_STEPS):
        raise DomainError(f"need positive sweep range and step, d_max <= {MAX_HEIGHT_NM:,.0f} nm and at most "
                          f"{MAX_SWEEP_STEPS:,} steps; got d_max = {d_max_nm:g} nm, step = {step_nm:g} nm")
    grid = [i * step_nm for i in range(int(math.floor(d_max_nm / step_nm)) + 1)]
    if grid[-1] < d_max_nm - 1e-9:
        grid.append(d_max_nm)
    return _track(stack, grid)


def _invert_height(
    stack: PlasmonStack,
    d_lo: float | np.ndarray,
    d_hi: float | np.ndarray,
    z_lo: complex | np.ndarray,
    z_hi: complex | np.ndarray,
    n_target: float | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Secant iteration for Re ntilde(d) = n_target inside a bracket, over a batch of brackets.

    z_lo and z_hi are the indices solved at d_lo and d_hi.  The arguments
    broadcast to one 1-D batch, which is solved together: each element runs
    its own secant, each new height's index seeded by interpolating linearly
    between the last two heights' indices, and is retired once Re ntilde is
    within INVERT_TOL of its target.  Returns the heights and the indices
    solved there.  Raises RootNotFoundError naming the first element whose
    secant stalls or whose 80 iterations do not converge.
    """
    d_lo, d_hi, n_target = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (d_lo, d_hi, n_target))
    d_lo, d_hi, n_target, z_lo, z_hi = np.broadcast_arrays(d_lo, d_hi, n_target, z_lo, z_hi)
    lo, hi = np.minimum(d_lo, d_hi), np.maximum(d_lo, d_hi)
    a, b, za, zb = d_lo.copy(), d_hi.copy(), z_lo.astype(complex), z_hi.astype(complex)
    fa, fb = za.real - n_target, zb.real - n_target
    exact = fa == 0.0
    d_out = np.where(exact, a, np.nan)
    z_out = np.where(exact, za, np.nan)
    live = np.flatnonzero(~exact)
    failed = np.zeros(a.size, dtype=bool)
    for _ in range(80):
        stalled = (fb[live] == fa[live]) | (b[live] == a[live])
        failed[live[stalled]] = True
        live = live[~stalled]
        if live.size == 0:
            break
        c = b[live] - fb[live] * (b[live] - a[live]) / (fb[live] - fa[live])
        c = np.minimum(np.maximum(c, lo[live]), hi[live])
        zc = _newton_batch(stack, c, za[live] + (zb[live] - za[live]) * ((c - a[live]) / (b[live] - a[live])))
        fc = zc.real - n_target[live]
        a[live], fa[live], za[live] = b[live], fb[live], zb[live]
        b[live], fb[live], zb[live] = c, fc, zc
        done = np.abs(fc) < INVERT_TOL
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dielectric height map d(rho) realizing n_eff(rho) = 2 n0/(1 + rho^2).

    Returns (rho, d_nm, ntilde) arrays on a uniform radial grid, with the
    index solved at each height; d decreases monotonically outward (conical
    shape).  Targets below the bare-interface index (the rim for n0 = 1,
    where the profile asks for exactly 1 but the flat surface already gives
    ~1.02) are clamped to d = 0.
    """
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
    # one walk over the CONTINUATION_STEP_NM lattice to the largest target,
    # then one batched secant inversion over all radii (monotone table)
    steps = int(MAX_HEIGHT_NM / CONTINUATION_STEP_NM)
    table_d, table_z = _track(stack, (i * CONTINUATION_STEP_NM for i in range(steps + 1)), center_target)
    if table_z[-1].real < center_target:
        raise DomainError(f"index {center_target} not reached below d = {MAX_HEIGHT_NM} nm")
    rhos = np.linspace(0.0, 1.0, n_radial_samples)
    targets = refractive_index(cfg, rhos)
    heights = np.zeros(n_radial_samples)
    indices = np.full(n_radial_samples, table_z[0])
    inner = targets > n_floor
    i = np.clip(np.searchsorted(table_z.real, targets[inner]), 1, len(table_z) - 1)
    heights[inner], indices[inner] = _invert_height(
        stack, table_d[i - 1], table_d[i], table_z[i - 1], table_z[i], targets[inner]
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
    rhos, _, indices = lens_height_profile(cfg, stack, n_radial_samples)
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
        fidelity_computed=fidelity_approx(cfg.radius, a_total, eta),
        fidelity_nominal=fidelity_approx(cfg.radius, NOMINAL_TOTAL_LOSS, eta),
    )
