"""Direct single-excitation simulation against which the rate formulas are checked.

For two atoms at antipodal positions (theta = theta1 = theta2, phi1 = -phi2)
each degenerate l-manifold couples through exactly one collective mode

    A_l = sum_m a_{l,m} y_{l,m} / N_l,     N_l^2 = sum_m |y_{l,m}|^2
        = (2l+1)/(8 pi) [1 - P_l(cos(pi - 2 theta))],

and the in-phase / out-of-phase atomic combinations sigma_o, sigma_e couple
only to odd / even l.  The single-excitation Hamiltonian therefore splits
into two independent arrowhead blocks

    H_parity = sum_l [ (delta_l - i kappa) |l><l| + G_l (|atom><l| + h.c.) ],
    G_l = sqrt(2) g_l N_l,   delta_l = omega_l - omega0,

with the initial state |e,g>|vac> = (|o> + |e>)/sqrt(2).

Each block is evolved from its secular equation (Golub, SIAM Rev. 15 (1973)
318).  The n + 1 eigenvalues of the arrowhead H = [[0, G^T], [G, diag(d)]],
d_l = delta_l - i kappa, are the roots of

    f(z) = z - sum_l G_l^2 / (z - d_l),

and since H is complex symmetric,

    exp(-i H t)|atom> = sum_k exp(-i z_k t) x_k / f'(z_k),   x_k = (1, G / (z_k - d)),

so the atomic residues are 1 / f'(z_k) and sum to one.  One vectorised
Newton iteration finds all roots in offset form (the atom-like root itself,
every other root as d_l plus a small offset, with the gaps d_l - d_m formed
exactly), which keeps z - d to full relative accuracy; modes with vanishing
coupling are deflated.  Every solve checks Newton's convergence, the
relative secular residual, sum res = 1 and distinct roots; a block that
fails falls back to dense eig / eigh with its residual check, and
EigensolveError is raised if that fails too.  The time grid is uniform from
0, so the phases exp(-i z_k j dt) factor into two ~sqrt(T) x n tables and
the atomic amplitude on all T times is one GEMM; the full block state and
its weights x_k / f'(z_k) are built only when SimResult.state_norm is read.
Blocks hold their modes as arrays, and the Newton evaluations of one solve
share work arrays allocated once.

The absolute coupling scale G_l is proportional to sqrt(gamma0), the
free-space emission rate in internal units; it drops out of every reported
ratio and controls only the size of non-Markovian corrections.  The default
gamma0 = 1e-5 keeps those corrections at the percent level.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import DomainError, EigensolveError
from .lens import OMEGA0, LensConfig, order_parameter, stereo_theta
from .qed import AtomPairConfig, CouplingRates, entanglement_fidelity
from .qed import coupling_rates  # noqa: F401  (stays importable from this module)
from .specfun import legendre_poly_table

#: Default free-space rate (internal units) setting the absolute coupling scale.
DEFAULT_GAMMA0 = 1e-5

#: Residual threshold of the dense fallback, ||H v - w v|| <= RESIDUAL_TOL * ||H||.
RESIDUAL_TOL = 1e-8

#: Modes with G_l^2 <= DEFLATION_TOL * max G^2 keep their pole as a root, with zero weight.
DEFLATION_TOL = 1e-30

#: Secular Newton: iteration cap and the relative step taken as converged.
SECULAR_MAX_ITER = 40
SECULAR_STEP_TOL = 1e-12

#: Checks of every secular solve: relative residual, |sum of residues - 1|,
#: and the relative distance below which two roots count as one.
SECULAR_RESIDUAL_TOL = 1e-12
RESIDUE_SUM_TOL = 1e-10
ROOT_SEPARATION_TOL = 1e-12

#: Uniform-grid tolerance of evolve, |t_k - k dt| <= GRID_TOL * t_end.
GRID_TOL = 1e-14

#: Machine epsilon; f is known to about 4 EPS times the size of its terms, which floors a Newton step.
EPS = float(np.finfo(float).eps)

#: Roots z_k, atomic residues W[:, 0] and a builder of the weight matrix W of one block.
Spectrum = tuple[np.ndarray, np.ndarray, Callable[[], np.ndarray]]


@dataclass(frozen=True, eq=False)
class BlockModel:
    """One parity block: the atom combination plus its collective modes, one array entry per mode."""

    parity: str  # "odd" or "even"
    l: np.ndarray  # mode labels
    detuning: np.ndarray  # delta_l = omega_l - omega0
    coupling: np.ndarray  # G_l
    loss: float  # flat mode loss kappa stored at build time

    @property
    def dim(self) -> int:
        return 1 + self.l.size

    def arrowhead(self, kappa: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Mode diagonal d - i kappa and border couplings G of the arrowhead.

        kappa overrides the loss stored at build time (same flat loss on
        every mode diagonal, atoms lossless).
        """
        return self.detuning - 1j * (self.loss if kappa is None else kappa), self.coupling

    def hamiltonian(self, kappa: float | None = None) -> np.ndarray:
        """Arrowhead matrix; index 0 is the atomic combination."""
        diag, border = self.arrowhead(kappa)
        h = np.diag(np.concatenate(([0.0], diag)))
        h[0, 1:] = h[1:, 0] = border
        return h


@dataclass(frozen=True)
class SimResult:
    """Time series of the two-atom amplitudes and derived quantities."""

    times: np.ndarray
    amp_a: np.ndarray            # amplitude on |e,g>
    amp_b: np.ndarray            # amplitude on |g,e>
    bell_fidelity: np.ndarray
    bell_branch: int             # +1: (|a> - i|b>)/sqrt2 reached first; -1: +i partner
    max_fidelity: float
    extracted_delta_omega: float | None  # from first pop1 = pop2 crossing, Gamma0 units
    # full states of the odd and even block, built on demand
    _full_states: tuple[Callable[[], np.ndarray], ...] = field(repr=False, compare=False)

    @cached_property
    def state_norm(self) -> np.ndarray:
        """Full single-excitation norm (atoms + modes), built on first read."""
        psi_o, psi_e = (full() for full in self._full_states)
        return np.sqrt(
            0.5 * (np.sum(np.abs(psi_o) ** 2, axis=1) + np.sum(np.abs(psi_e) ** 2, axis=1))
        )


def build_blocks(
    cfg: LensConfig,
    theta: float,
    l_range: range | None = None,
    kappa: float = 0.0,
    gamma0: float = DEFAULT_GAMMA0,
    edge_taper: float = 0.25,
) -> tuple[BlockModel, BlockModel]:
    """Build the odd and even parity blocks for antipodal atoms at polar angle theta.

    G_l^2 = (3 pi gamma0 / (omega0^3 b R0^2 n0^2)) omega_l (2l+1)
            [1 - P_l(cos(pi - 2 theta))] / (4 pi),

    which is sqrt(2) g_l N_l squared with the dipole prefactor expressed
    through gamma0.  Atoms on the mirror (theta = pi/2) decouple from every
    mode since P_l(1) = 1.  Default l_range is 1 .. 4 ceil(Re nu), covering
    detunings to a few omega0.

    The couplings grow like l, so a hard cut at l_max leaves an oscillating
    alternating-series artifact of order l_max in the exchange splitting
    (extracted rates flip by several percent between adjacent cuts).  The
    top `edge_taper` fraction of the ladder is therefore rolled off with a
    cos^2 window, which restores convergence under l_range doubling to the
    sub-percent level; set edge_taper = 0 for the raw cut.
    """
    if not 0.0 <= theta <= math.pi:
        raise DomainError("theta must lie in [0, pi]")
    if not 0.0 <= edge_taper < 1.0:
        raise DomainError("edge_taper must lie in [0, 1)")
    if l_range is None:
        l_range = range(1, 4 * math.ceil(order_parameter(cfg, OMEGA0).real) + 1)
    l = np.array(l_range, dtype=int)
    l = l[l >= 1]
    if not l.size:
        raise DomainError("l_range selects no modes")
    l_max = int(l.max())
    l_roll = l_max * (1.0 - edge_taper)
    pl = legendre_poly_table(l_max, math.cos(math.pi - 2.0 * theta))
    c0sq = 3.0 * math.pi * gamma0 / (OMEGA0**3 * cfg.b * (cfg.radius * cfg.n0) ** 2)
    w_l = np.sqrt(l * (l + 1.0)) / (cfg.radius * cfg.n0)
    g_sq = c0sq * w_l * (2 * l + 1) * np.maximum(0.0, 1.0 - pl[l]) / (4.0 * math.pi)
    window = np.ones(l.size)
    if edge_taper > 0.0:
        top = l > l_roll
        # float_power is libm's pow, so the window is the scalar cos(x) ** 2 bit for bit
        window[top] = np.float_power(np.cos(0.5 * math.pi * (l[top] - l_roll) / (l_max - l_roll)), 2.0)
    coupling = window * np.sqrt(g_sq)
    odd = l % 2 == 1
    detuning = w_l - OMEGA0
    return (
        BlockModel("odd", l[odd], detuning[odd], coupling[odd], kappa),
        BlockModel("even", l[~odd], detuning[~odd], coupling[~odd], kappa),
    )


def _small_root(c: np.ndarray, g2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Small and large roots of u^2 + c u - g2 = 0, without cancellation."""
    r = np.sqrt(c * c + 4.0 * g2)
    big = np.where((np.conj(c) * r).real >= 0.0, c + r, c - r)
    return 2.0 * g2 / big, -0.5 * big


def _secular_guess(base: np.ndarray, gaps: np.ndarray, g2: np.ndarray, pull: np.ndarray) -> np.ndarray:
    """Starting offsets u_k: each root from the 2 x 2 problem with its nearest partner.

    Root j next to pole d_j sees the atom at the shift the other modes give
    it there, u^2 + (d_j - s_j) u - g_j^2 = 0 with s_j = sum_m!=j g_m^2 / (d_j - d_m);
    its small root is the mode-like one.  The atom-like root is the large
    root of the same problem for the most strongly mixed mode, the other
    modes taken at z = 0.  pull is a zeroed work array of the shape of gaps.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(g2, gaps, out=pull, where=gaps != 0.0)
        u_modes, _ = _small_root(base[1:] - pull[1:].sum(axis=1), g2)
        star = int(np.argmax(g2 / np.abs(base[1:]) ** 2))
    shift = pull[0].sum() - pull[0, star]
    _, w_atom = _small_root(base[1 + star] - shift, g2[star])
    return np.concatenate(([base[1 + star] + w_atom], u_modes))


def _secular_terms(base, gaps, g2, u, inv, pull, size):
    """f(z), f'(z) and the size |z| + sum |g^2 / (z - d)| of f's terms.

    Evaluated at the roots z = base + u, with z - d = gaps + u, in the work
    arrays inv (left holding 1 / (z - d)), pull and size of gaps' shape.
    """
    np.divide(1.0, np.add(gaps, u[:, None], out=inv), out=inv)
    np.multiply(g2, inv, out=pull)
    z = base + u
    f = z - pull.sum(axis=1)
    fp = 1.0 + np.multiply(pull, inv, out=pull).sum(axis=1)
    return f, fp, np.abs(z) + np.abs(inv, out=size) @ g2


def _secular_roots(base: np.ndarray, gaps: np.ndarray, g2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Offsets u of the roots z = base + u and residues 1 / f'(z), checked as _secular_spectrum says."""
    inv, pull, size = np.empty_like(gaps), np.zeros_like(gaps), np.empty(gaps.shape)
    u = _secular_guess(base, gaps, g2, pull)
    with np.errstate(all="ignore"):
        f, fp, scale = _secular_terms(base, gaps, g2, u, inv, pull, size)
        for _ in range(SECULAR_MAX_ITER):
            step = f / fp
            floor = 4.0 * EPS * scale / np.abs(fp)
            u = u - step
            f, fp, scale = _secular_terms(base, gaps, g2, u, inv, pull, size)
            if not np.all(np.isfinite(u)) or np.all(np.abs(step) <= SECULAR_STEP_TOL * np.abs(u) + floor):
                break
        else:
            raise EigensolveError(f"secular Newton did not converge in {SECULAR_MAX_ITER} iterations")
        res = 1.0 / fp
        residual = float(np.max(np.abs(f) / scale))
        sum_dev = abs(complex(res.sum()) - 1.0)
        # the separation tolerance is far above the rounding of z itself;
        # |z_k - z_j| over all k and j >= 1 covers every pair, z_j - z_j masked
        z = base + u
        sep = np.abs(np.subtract(z[:, None], z[None, 1:], out=inv), out=size)
        sep.reshape(-1)[g2.size :: g2.size + 1] = np.inf
        distinct = bool(sep.min() > ROOT_SEPARATION_TOL * np.abs(z).max())
    if not (residual <= SECULAR_RESIDUAL_TOL and sum_dev <= RESIDUE_SUM_TOL and distinct):
        raise EigensolveError(
            f"secular roots failed their checks: relative residual {residual:.2e}, "
            f"|sum res - 1| = {sum_dev:.2e}, distinct roots: {distinct}"
        )
    return u, res


def _secular_weights(size, rows, gaps, u, res, g) -> np.ndarray:
    """W[k] = res_k (1, g / (z_k - d)) on rows, zero elsewhere; 1 / (gaps + u) as in Newton, bit for bit."""
    weights = np.zeros((size, size), dtype=complex)
    weights[rows, 0] = res
    weights[np.ix_(rows, rows[1:])] = (res[:, None] * g) * (1.0 / (gaps + u[:, None]))
    return weights


def _secular_spectrum(diag: np.ndarray, g: np.ndarray) -> Spectrum:
    """Roots z, residues W[:, 0] and a builder of the weights W of H = [[0, g^T], [g, diag(diag)]].

    exp(-i H t) e_0 = sum_k exp(-i z_k t) W[k].  The roots solve
    f(z) = z - sum_j g_j^2 / (z - diag_j) = 0, and H is complex symmetric, so
    W[k] = x_k / f'(z_k) with x_k = (1, g / (z_k - diag)); W[:, 0] are the
    atomic residues.  The full W is formed only when the returned builder,
    a picklable partial, is called.  Root 0 is the atom-like root and root
    j sits next to pole j.  Newton runs on the offsets u (z_0 = u_0,
    z_j = diag_j + u_j) with the gaps diag_j - diag_m formed exactly, so
    z - diag keeps full relative accuracy.  Modes with
    g_j^2 <= DEFLATION_TOL * max g^2 keep the root diag_j with zero weight.
    Raises EigensolveError if Newton misses its cap, a relative residual
    |f(z)| / (|z| + sum |g^2 / (z - diag)|) exceeds SECULAR_RESIDUAL_TOL,
    |sum res - 1| > RESIDUE_SUM_TOL, or two roots coincide.
    """
    g2 = g * g
    live = np.flatnonzero(g2 > DEFLATION_TOL * g2.max(initial=0.0))
    rows = np.concatenate(([0], 1 + live))
    z = np.concatenate(([0.0], diag)).astype(complex)
    base = z[rows]
    gaps = base[:, None] - base[None, 1:]
    u, res = _secular_roots(base, gaps, g2[live]) if live.size else (np.zeros(1), np.ones(1))
    z[rows] = base + u
    residues = np.zeros(z.size, dtype=complex)
    residues[rows] = res
    return z, residues, partial(_secular_weights, z.size, rows, gaps, u, res, g[live])


def _dense_spectrum(h: np.ndarray, hermitian: bool) -> Spectrum:
    """Eigenvalues w, atomic residues and weights W[k] = c_k v_k of exp(-i H t) e_0 from eig / eigh.

    Raises EigensolveError if the eigensolver fails or misses its residual
    check ||H v - w v|| <= RESIDUAL_TOL * ||H||.
    """
    e0 = np.zeros(h.shape[0])
    e0[0] = 1.0
    try:
        if hermitian:
            w, v = np.linalg.eigh(h.real)
            coeff = v[0]
        else:
            w, v = np.linalg.eig(h)
            coeff = np.linalg.solve(v, e0)
    except np.linalg.LinAlgError as exc:
        raise EigensolveError(f"dense eigendecomposition failed: {exc}") from exc
    residual = np.linalg.norm(h @ v - v * w[None, :])
    if not residual <= RESIDUAL_TOL * max(np.linalg.norm(h), 1e-300):
        raise EigensolveError(
            f"eigendecomposition residual {residual:.2e} exceeds {RESIDUAL_TOL:.0e} * ||H||"
        )
    weights = coeff[:, None] * v.T
    return w.astype(complex), weights[:, 0], partial(np.asarray, weights)


def _phase_sum(z: np.ndarray, weights: np.ndarray, dt: float, n_times: int) -> np.ndarray:
    """sum_k exp(-i z_k t_j) weights[k] on t_j = j dt, j = 0 .. n_times - 1.

    With B = ceil(sqrt(n_times)), t_j = (B m + b) dt splits every phase into
    an outer and an inner table of about sqrt(n_times) x n exponentials.  A
    weight vector makes the sum one GEMM, (outer * weights) @ inner^T; a
    weight matrix (the full state) contracts the product of the two tables.
    """
    n_inner = math.isqrt(n_times - 1) + 1
    n_outer = -(-n_times // n_inner)
    inner = np.exp(-1j * dt * np.outer(np.arange(n_inner), z))
    outer = np.exp(-1j * (n_inner * dt) * np.outer(np.arange(n_outer), z))
    if weights.ndim == 1:
        out = (outer * weights) @ inner.T
    else:
        out = (outer[:, None, :] * inner[None, :, :]) @ weights
    return out.reshape(n_outer * n_inner, *weights.shape[1:])[:n_times]


def _full_state(z: np.ndarray, weights: Callable[[], np.ndarray], dt: float, n_times: int) -> np.ndarray:
    """exp(-i H t)|0> on the time grid; rows = times, cols = components."""
    return _phase_sum(z, weights(), dt, n_times)


def _propagate(
    block: BlockModel, kappa: float, dt: float, n_times: int
) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """Atomic amplitude <0|exp(-i H t)|0> on t = k dt, and a callable for the full state.

    The roots and residues come from the secular equation, or from the dense
    eigensolver if a secular check fails.  The atomic row is one GEMM; the
    full state and its weights are built only when the returned partial of
    module-level functions is called, so results pickle.
    """
    diag, border = block.arrowhead(kappa)
    try:
        z, residues, weights = _secular_spectrum(diag, border)
    except EigensolveError:
        z, residues, weights = _dense_spectrum(block.hamiltonian(kappa), hermitian=(kappa == 0.0))
    atomic = _phase_sum(z, residues, dt, n_times)
    return atomic, partial(_full_state, z, weights, dt, n_times)


def _refine_peak(t: np.ndarray, f: np.ndarray) -> float:
    """Grid maximum refined by local quadratic interpolation."""
    i = int(np.argmax(f))
    if 0 < i < len(f) - 1:
        y0, y1, y2 = f[i - 1], f[i], f[i + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom < 0:
            delta = 0.5 * (y0 - y2) / denom
            if abs(delta) <= 1.0:
                return float(y1 - 0.25 * (y0 - y2) * delta)
    return float(f[i])


def evolve(
    blocks: tuple[BlockModel, BlockModel],
    kappa: float,
    t_grid: np.ndarray,
    gamma0: float = DEFAULT_GAMMA0,
) -> SimResult:
    """Evolve |e,g>|vac> = (|o> + |e>)/sqrt 2 and extract pair observables.

    t_grid must be uniform and start at 0 (t_k = k dt, as np.linspace(0, T, n)
    gives), else DomainError.  Each block is propagated from the roots and
    residues of its secular equation; only the atomic amplitude is formed
    here, and the full state behind `state_norm` is built when that
    attribute is first read.  kappa is applied on every mode diagonal.
    Raises EigensolveError if both the secular solve and the dense
    fallback of a block fail their checks.  Reported times
    and the extracted exchange rate are converted to Gamma0 units via the
    gamma0 that scaled the couplings at build time.

    The Bell fidelity is computed against both (|a> -+ i|b>)/sqrt2 partners;
    the branch reaching the larger peak is reported (which of the two is
    approached first depends on the sign of the effective exchange rate).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2:
        raise DomainError("t_grid must be a 1-D array with at least two points")
    n_times = t_grid.size
    dt = t_grid[-1] / (n_times - 1)
    offgrid = np.abs(t_grid - dt * np.arange(n_times))
    if not (t_grid[0] == 0.0 and dt > 0.0 and np.all(offgrid <= GRID_TOL * t_grid[-1])):
        raise DomainError("t_grid must be uniform and increasing from 0, t_k = k dt")
    block_o, block_e = blocks
    atom_o, full_o = _propagate(block_o, kappa, dt, n_times)
    atom_e, full_e = _propagate(block_e, kappa, dt, n_times)
    amp_a = 0.5 * (atom_o + atom_e)
    amp_b = 0.5 * (atom_o - atom_e)
    f_minus = 0.5 * np.abs(amp_a - 1j * amp_b) ** 2
    f_plus = 0.5 * np.abs(amp_a + 1j * amp_b) ** 2
    if f_minus.max() >= f_plus.max():
        branch, fid = 1, f_minus
    else:
        branch, fid = -1, f_plus
    pop_diff = np.abs(amp_a) ** 2 - np.abs(amp_b) ** 2
    crossings = np.nonzero(pop_diff[:-1] * pop_diff[1:] <= 0.0)[0]
    crossings = crossings[crossings > 0]
    dw_extracted = None
    if crossings.size:
        i = int(crossings[0])
        t0, t1 = t_grid[i], t_grid[i + 1]
        d0, d1 = pop_diff[i], pop_diff[i + 1]
        t_cross = t0 if d1 == d0 else t0 - d0 * (t1 - t0) / (d1 - d0)
        if t_cross > 0:
            dw_extracted = 0.25 * math.pi / (t_cross * gamma0)
    return SimResult(
        times=t_grid * gamma0,
        amp_a=amp_a,
        amp_b=amp_b,
        bell_fidelity=fid,
        bell_branch=branch,
        max_fidelity=_refine_peak(t_grid, fid),
        extracted_delta_omega=dw_extracted,
        _full_states=(full_o, full_e),
    )


@dataclass(frozen=True)
class AnalyticsComparison:
    """Simulator versus closed-form rate model at one operating point."""

    F_numeric: float
    F_analytic: float
    relative_deviation: float   # on the error 1 - F
    extracted_delta_omega: float | None
    delta_omega_analytic: float
    rates: CouplingRates


def compare_to_analytics(
    cfg: LensConfig,
    atoms: AtomPairConfig,
    rates: CouplingRates,
    l_range: range | None = None,
    gamma0: float = DEFAULT_GAMMA0,
    n_times: int = 2000,
) -> AnalyticsComparison:
    """Run the block simulation at cfg and compare it with the closed-form rates there.

    rates are coupling_rates(cfg, atoms), or one element of
    qed.coupling_rate_arrays for a caller that sweeps many points.  Requires
    antipodal atoms (the parity reduction assumes them).  The time grid is
    n_times uniform points on [0, 3 pi / |delta_omega|], a few exchange
    cycles.  The relative deviation is on the entangling error
    |(1 - F_num) - (1 - F_ana)| / (1 - F_ana), F_ana = entanglement_fidelity(rates).
    """
    if not atoms.is_antipodal:
        raise DomainError("the parity-reduced simulator requires antipodal atoms")
    f_ana = entanglement_fidelity(rates)
    theta = stereo_theta(atoms.p1.rho)
    blocks = build_blocks(cfg, theta, l_range=l_range, kappa=cfg.kappa, gamma0=gamma0)
    dw_internal = abs(rates.delta_omega) * gamma0
    t_grid = np.linspace(0.0, 3.0 * math.pi / dw_internal, n_times)
    sim = evolve(blocks, cfg.kappa, t_grid, gamma0=gamma0)
    err_ana = 1.0 - f_ana
    deviation = (
        abs((1.0 - sim.max_fidelity) - err_ana) / err_ana if err_ana > 0 else math.inf
    )
    return AnalyticsComparison(
        F_numeric=sim.max_fidelity,
        F_analytic=f_ana,
        relative_deviation=deviation,
        extracted_delta_omega=sim.extracted_delta_omega,
        delta_omega_analytic=rates.delta_omega,
        rates=rates,
    )
