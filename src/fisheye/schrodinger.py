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

so the atomic residues are 1 / f'(z_k) and sum to one.  Newton finds all
roots in offset form (the atom-like root itself, every other root as d_j
plus a small offset u, with the gaps d_j - d_m formed exactly), which keeps
z - d to full relative accuracy; modes with vanishing coupling are
deflated.  Root j starts from (1 + M_1,j) u^2 + (d_j - M_0,j) u - g_j^2 = 0,
f(d_j + u) = 0 with the other modes' pull to first order in u, from the pull
moments M_k,j = sum_m!=j g_m^2 / (d_j - d_m)^(k+1).  Each root is a scalar
Newton that returns its first iterate whose step is within SECULAR_STEP_TOL
(relative, plus a rounding floor), so within one such step of the refined
root.  A mode row sums its pull as the series sum_k (-u)^k M_k,j near its
pole, in O(1); the atom row, whose gaps change with the loss, and a mode row
beyond the series radius are summed directly, in O(n).  On the fidelity
radii the guess passes on every row but the atom's and at most one mode's,
so a loss costs O(n) after an O(K n^2) set-up per block.  The checks run on
the returned iterates: Newton's cap, the relative secular residual, sum res =
1 and distinct roots; a loss that fails falls back to dense eig with its
residual check, and EigensolveError is raised if that fails too.
The time grid is uniform from 0, so the phases exp(-i z_k j dt) factor
into two ~sqrt(T) x n tables, each the powers of one exponential per root,
and the atomic amplitude on all T times is one GEMM; the full block state
and its weights x_k / f'(z_k) are built only when SimResult.state_norm is
read.
Blocks hold their modes as arrays.  A flat loss cancels from the gaps
d_l - d_m, so the deflation set and the pull moments are formed once per
block and shared by lenses that differ only in loss (compare_losses).  A
compare_losses or evolve call is one pass: the mode rows of every block,
lens and loss run in one Newton, each block and loss adding its atom row,
and every point is observed together (_observe).  The atomic rows give
pair tables (SEARCH_POINTS times in compare_losses, the caller's grid in
evolve), the blocks of one width in one batched GEMM, that bracket each
Bell peak and first population crossing, and one search refines all
brackets from their roots and residues at O(n) per time.  A point's sums
run over its own roots only, so it gets the same bits alone or batched.

The absolute coupling scale G_l is proportional to sqrt(gamma0), the
free-space emission rate in internal units; it drops out of every reported
ratio and controls only the size of non-Markovian corrections.  One value,
DEFAULT_GAMMA0 = 1e-5, scales the couplings and converts times and rates to
Gamma0 units.  There the simulated 1 - F lies above its gamma0 -> 0 limit
by 1.3% at (Re nu, alpha) = (20.5, 5e-4), 1.7% at (20.8, 5e-4) and 0.2% at
(20.5, 3e-3), and by 8.4% at (90.3, 1e-4) with a mode-cutoff counterterm
(not applied here); the shift falls in proportion to gamma0.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import DomainError, EigensolveError, NonConvergenceError
from .lens import OMEGA0, LensConfig, eigenfrequency, order_parameter, stereo_theta
from .qed import AtomPairConfig, CouplingRates, entanglement_fidelity
from .qed import coupling_rates  # noqa: F401  (stays importable from this module)
from .specfun import legendre_poly_table

#: Free-space rate (internal units): the coupling scale and the unit of reported times and rates.
DEFAULT_GAMMA0 = 1e-5

#: Top fraction of each mode ladder that build_blocks rolls off with a cos^2 window.
EDGE_TAPER = 0.25

#: Residual threshold of the dense fallback, ||H v - w v|| <= RESIDUAL_TOL * ||H||.
RESIDUAL_TOL = 1e-8

#: Modes with G_l^2 <= DEFLATION_TOL * max G^2 keep their pole as a root, with zero weight.
DEFLATION_TOL = 1e-30

#: Secular Newton: iteration cap, and the relative step at or below which the
#: iterate it was computed at is returned (so within one such step of the root).
SECULAR_MAX_ITER = 40
SECULAR_STEP_TOL = 1e-12

#: Checks of every secular solve: relative residual, |sum of residues - 1|,
#: and the relative distance below which two roots count as one.
SECULAR_RESIDUAL_TOL = 1e-12
RESIDUE_SUM_TOL = 1e-10
ROOT_SEPARATION_TOL = 1e-12

#: Uniform-grid tolerance of evolve, |t_k - k dt| <= GRID_TOL * t_end.
GRID_TOL = 1e-14

#: Peak search: points of the phase table that brackets the Bell peak and the
#: first population crossing, the step (relative to the window) taken as
#: converged, and the evaluation cap.
SEARCH_POINTS = 64
SEARCH_STEP_TOL = 1e-7
SEARCH_MAX_ITER = 100

#: Roots of one compare_losses pass (solve and observation): whole lens groups fill passes of up to this
#: many, which bounds a long sweep's work arrays (~45 MB at this size) and holds the default sweeps.
PASS_ROOTS = 1 << 15

#: Machine epsilon; f is known to about 4 EPS times the size of its terms, which floors a Newton step.
EPS = float(np.finfo(float).eps)

#: Pull series of a mode row (_SecularSolver): it serves offsets |u| <= SERIES_RADIUS times the
#: row's nearest gap (the mode roots of the fidelity radii lie within 3.5e-4), through the term
#: K = SERIES_ORDER, the least K whose remainder factor r^(K+1) / (1 - r) is below EPS there.
SERIES_RADIUS = 5e-4
SERIES_ORDER = math.ceil(math.log(EPS * (1.0 - SERIES_RADIUS)) / math.log(SERIES_RADIUS)) - 1

#: Roots z_k, atomic residues W[:, 0] and a builder of the weight matrix W of one block.
Spectrum = tuple[np.ndarray, np.ndarray, Callable[[], np.ndarray]]


@dataclass(frozen=True, eq=False)
class BlockModel:
    """One parity block: the atom combination plus its collective modes, one array entry per mode."""

    parity: str  # "odd" or "even"
    l: np.ndarray  # mode labels
    detuning: np.ndarray  # delta_l = omega_l - omega0
    coupling: np.ndarray  # G_l

    @property
    def dim(self) -> int:
        return 1 + self.l.size

    def arrowhead(self, kappa: float) -> tuple[np.ndarray, np.ndarray]:
        """Mode diagonal d - i kappa and border couplings G of the arrowhead (same flat loss on every mode, atoms lossless)."""
        return self.detuning - 1j * kappa, self.coupling

    def hamiltonian(self, kappa: float) -> np.ndarray:
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
    l_max: int | None = None,
) -> tuple[BlockModel, BlockModel]:
    """Build the odd and even parity blocks for antipodal atoms at polar angle theta.

    G_l^2 = (3 pi DEFAULT_GAMMA0 / (omega0^3 b R0^2 n0^2)) omega_l (2l+1)
            [1 - P_l(cos(pi - 2 theta))] / (4 pi),

    which is sqrt(2) g_l N_l squared with the dipole prefactor expressed
    through gamma0.  Atoms on the mirror (theta = pi/2) decouple from every
    mode since P_l(1) = 1.  The ladder is l = 1 .. l_max, by default
    l_max = 4 ceil(Re nu), covering detunings to a few omega0; l_max < 1
    raises DomainError.

    The couplings grow like l, so a hard cut at l_max leaves an oscillating
    alternating-series artifact of order l_max in the exchange splitting
    (extracted rates flip by several percent between adjacent cuts).  The
    top EDGE_TAPER fraction of the ladder is therefore rolled off with a
    cos^2 window, which restores convergence under l_max doubling to the
    sub-percent level; EDGE_TAPER = 0 is the raw cut.
    """
    return _build_blocks(cfg, theta, l_max, {})


def _build_blocks(cfg: LensConfig, theta: float, l_max: int | None, tables: dict) -> tuple[BlockModel, BlockModel]:
    """build_blocks with the tables P_l(cos(pi - 2 theta)) of one theta kept in tables by l_max, formed there once."""
    if not 0.0 <= theta <= math.pi:
        raise DomainError("theta must lie in [0, pi]")
    if l_max is None:
        l_max = 4 * math.ceil(order_parameter(cfg, OMEGA0).real)
    if l_max < 1:
        raise DomainError(f"l_max must be at least 1, got {l_max}")
    l = np.arange(1, l_max + 1)
    l_roll = l_max * (1.0 - EDGE_TAPER)
    if l_max not in tables:
        tables[l_max] = legendre_poly_table(l_max, math.cos(math.pi - 2.0 * theta))
    pl = tables[l_max]
    c0sq = 3.0 * math.pi * DEFAULT_GAMMA0 / (OMEGA0**3 * cfg.b * (cfg.radius * cfg.n0) ** 2)
    w_l = eigenfrequency(cfg, l)
    g_sq = c0sq * w_l * (2 * l + 1) * np.maximum(0.0, 1.0 - pl[l]) / (4.0 * math.pi)
    window = np.ones(l.size)
    if EDGE_TAPER > 0.0:
        top = l > l_roll
        # float_power is libm's pow, so the window is the scalar cos(x) ** 2 bit for bit
        window[top] = np.float_power(np.cos(0.5 * math.pi * (l[top] - l_roll) / (l_max - l_roll)), 2.0)
    coupling = window * np.sqrt(g_sq)
    odd = l % 2 == 1
    detuning = w_l - OMEGA0
    return (
        BlockModel("odd", l[odd], detuning[odd], coupling[odd]),
        BlockModel("even", l[~odd], detuning[~odd], coupling[~odd]),
    )


def _distinct_roots(z: np.ndarray) -> bool:
    """Whether every two roots lie more than ROOT_SEPARATION_TOL * max|z| apart (never, if one is not finite).

    Only roots whose real parts lie within that distance can be that close,
    so the roots are sorted by real part and each is compared with those
    after it whose real part is within twice the distance (a margin over
    the rounding of the sort keys): O(n log n) for well separated roots, and
    the same outcome as comparing all n^2 pairs.
    """
    limit = ROOT_SEPARATION_TOL * np.abs(z).max()
    if not np.isfinite(limit):
        return False
    z = z[np.argsort(z.real, kind="stable")]
    # the ahead[i] - 1 roots after root i have real parts within 2 limit of its own
    ahead = np.searchsorted(z.real, z.real + 2.0 * limit, side="right") - np.arange(z.size)
    for step in range(1, int(ahead.max())):
        i = np.flatnonzero(ahead > step)
        if np.any(np.abs(z[i + step] - z[i]) <= limit):
            return False
    return True


def _secular_weights(size, rows, base, u, res, g) -> np.ndarray:
    """W[k] = res_k (1, g / (z_k - d)) on rows, zero elsewhere; 1 / (gaps + u) as in Newton, bit for bit."""
    weights = np.zeros((size, size), dtype=complex)
    weights[rows, 0] = res
    gaps = base[:, None] - base[None, 1:]
    weights[np.ix_(rows, rows[1:])] = (res[:, None] * g) * (1.0 / (gaps + u[:, None]))
    return weights


class _SecularSolver:
    """Secular spectra of H = [[0, g^T], [g, diag(diag0 - i kappa)]] for any flat loss kappa.

    The loss cancels from the gaps d_j - d_m among the modes, so the deflation
    set and, per mode row j, the pull moments M_k,j = sum_m!=j g_m^2 / (d_j - d_m)^(k+1),
    k = 0 .. K + 1 (K = SERIES_ORDER), the spread A_j = sum_m!=j g_m^2 / |d_j - d_m|
    and the nearest gap gap_j are formed once, in real arithmetic (diag0's
    imaginary parts must be equal, else DomainError), at O(K n^2).  Mode row j
    at z = d_j + u then takes f(z) = z - g_j^2 / u - sum_k (-u)^k M_k,j and
    f'(z) = 1 + g_j^2 / u^2 + sum_k (k + 1) (-u)^k M_k+1,j (k = 0 .. K), and the
    size |z| + g_j^2 / |u| + A_j, in O(1).  With r = |u| / gap_j the terms
    dropped from f sum to at most A_j r^(K+1) / (1 - r), those from f' to at most
    A_j r^(K+1) (K + 2 - (K + 1) r) / (gap_j (1 - r)^2); a row takes the series
    only while r <= SERIES_RADIUS, where the first bound is below EPS A_j.  The
    atom rows, whose gaps 0 - (d_m - i kappa) change with the loss, and the mode
    rows beyond that radius are summed directly, O(n) each: no loss holds an
    n^2 array.
    """

    def __init__(self, diag0: np.ndarray, g: np.ndarray):
        if np.any(np.imag(diag0) != np.imag(diag0)[:1]):
            raise DomainError("the secular solver takes one flat loss: every imaginary part of diag0 must be equal")
        g2 = g * g
        live = np.flatnonzero(g2 > DEFLATION_TOL * g2.max(initial=0.0))
        self.diag0, self.g, self.g2 = diag0, g[live], g2[live]
        self.rows = np.concatenate(([0], 1 + live))
        self.modes = modes = np.real(diag0)[live]
        recip = modes[:, None] - modes
        # 1 / gap, a zero gap left at 0; times g^2 it is numpy's complex g^2 / (gap + 0j) bit for bit
        np.divide(1.0, recip, out=recip, where=recip != 0.0)
        self.moments = moments = np.empty((SERIES_ORDER + 2, live.size))
        moments[0] = np.multiply(self.g2, recip, out=np.empty(recip.shape, dtype=complex)).sum(axis=1).real
        power = recip.copy()
        for row in moments[1:]:
            np.matmul(np.multiply(power, recip, out=power), self.g2, out=row)
        # the spread A, then the reach SERIES_RADIUS gap from the ordered modes' nearest neighbours
        self.bound = np.empty((2, live.size))
        np.matmul(np.abs(recip, out=power), self.g2, out=self.bound[0])
        order = np.argsort(modes)
        ends = np.concatenate(([-np.inf], modes[order], [np.inf]))
        side = ends[1:] - ends[:-1]
        self.bound[1, order] = SERIES_RADIUS * np.minimum(side[:-1], side[1:])
        # Horner rows from k = K down to 0: M_k for f beside (k + 1) M_k+1 for f' (with its 1 at k = 0)
        factor = np.arange(SERIES_ORDER + 1.0, 0.0, -1.0)[:, None]
        self.coef = np.concatenate((moments[-2::-1, None], (factor * moments[:0:-1])[:, None]), axis=1).astype(complex)
        self.coef[-1, 1] += 1.0
        self.g2c = self.g2.astype(complex)

    def spectrum(self, kappa: float) -> Spectrum:
        """spectra([kappa])'s spectrum; raises its EigensolveError."""
        (out,) = self.spectra([kappa])
        if isinstance(out, EigensolveError):
            raise out
        return out

    def spectra(self, kappas: list[float]) -> list[Spectrum | EigensolveError]:
        """Per loss kappa: the roots z, residues W[:, 0] and a builder of the weights W of H, or the EigensolveError of its checks.

        exp(-i H t) e_0 = sum_k exp(-i z_k t) W[k], and H is complex symmetric,
        so W[k] = x_k / f'(z_k), x_k = (1, g / (z_k - d)), d = diag0 - i kappa;
        the builder, a picklable partial, forms W only when called.  Root 0 is
        the atom-like root, root j = d_j + u_j sits next to pole j, and a mode
        with g_j^2 <= DEFLATION_TOL * max g^2 keeps the root d_j with zero
        weight.  Each root is its row's first Newton iterate whose step is
        within SECULAR_STEP_TOL.  A loss gets an EigensolveError instead if
        Newton misses its cap on one of its rows, a relative residual
        |f(z)| / (|z| + sum |g^2 / (z - d)|) exceeds SECULAR_RESIDUAL_TOL,
        |sum res - 1| > RESIDUE_SUM_TOL, or two of its roots coincide.  Every
        loss is solved row by row, so its spectrum is bit for bit the one a
        call for that loss alone returns (_secular_spectra).
        """
        return _secular_spectra([(self, kappas)])[0]

    def _guess(self, base: np.ndarray, atom_gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Starting offsets of every loss's atom row and mode rows: each mode root from its pole's quadratic, the atom's from its most mixed mode.

        Root j = d_j + u sees the atom and the other modes' pull
        S_j(d_j + u) ~ M_0,j - u M_1,j, so f = 0 reads (1 + M_1,j) u^2
        + (d_j - M_0,j) u - g_j^2 = 0, whose small root is the mode-like one.
        The atom-like root is the large root of u^2 + (d_j - S_j(0)) u - g_j^2 = 0
        for the loss's most strongly mixed mode j; atom_gaps are the atom rows' 0 - d.
        """
        g2, losses = self.g2, np.arange(base.shape[0])
        pull = np.zeros(atom_gaps.shape, dtype=complex)
        np.divide(g2, atom_gaps, out=pull, where=atom_gaps != 0.0)
        u_modes = 2.0 * g2 / _big_root(base[:, 1:] - self.moments[0], 4.0 * (1.0 + self.moments[1]) * g2)
        star = np.argmax(g2 / np.abs(base[:, 1:]) ** 2, axis=1)
        pole = base[losses, 1 + star]
        return pole - 0.5 * _big_root(pole - (pull.sum(axis=1) - pull[losses, star]), 4.0 * g2[star]), u_modes

    def _checked(self, z: np.ndarray, base: np.ndarray, rows: list | None) -> list[Spectrum | EigensolveError]:
        """Each loss's spectrum, or the EigensolveError of its checks (spectra), from its rows' Newton results.

        z holds every loss's poles (root 0 at 0) and base its kept rows; rows
        are the atom rows' and the mode rows' u, f, f', size and still-moving
        flag at the iterates kept (_newton), or None without a live mode.
        """
        n_loss = base.shape[0]
        if rows is None:
            u, res, failed = np.zeros(base.shape), np.ones(base.shape), [None] * n_loss
        else:
            u, f, fp, size, moving = (np.concatenate((a.reshape(n_loss, -1), m.reshape(n_loss, -1)), axis=1)
                                      for a, m in zip(*rows))
            res = 1.0 / fp
            residual = np.max(np.abs(f) / size, axis=1)
            sum_dev = np.abs(res.sum(axis=1) - 1.0)
            failed = []
            for k, capped in enumerate(moving.any(axis=1).tolist()):
                if capped:
                    failed.append(EigensolveError(f"secular Newton did not converge in {SECULAR_MAX_ITER} iterations"))
                    continue
                # the separation tolerance is far above the rounding of z itself
                distinct = _distinct_roots(base[k] + u[k])
                passed = residual[k] <= SECULAR_RESIDUAL_TOL and sum_dev[k] <= RESIDUE_SUM_TOL and distinct
                failed.append(None if passed else EigensolveError(
                    f"secular roots failed their checks: relative residual {residual[k]:.2e}, "
                    f"|sum res - 1| = {sum_dev[k]:.2e}, distinct roots: {distinct}"))
        z[:, self.rows] = base + u
        residues = np.zeros(z.shape, dtype=complex)
        residues[:, self.rows] = res
        return [error or (z[k], residues[k], partial(_secular_weights, z.shape[1], self.rows, base[k], u[k], res[k], self.g))
                for k, error in enumerate(failed)]

    def _direct_terms(self, gaps: np.ndarray, z: np.ndarray, u: np.ndarray):
        """f(z), f'(z) and the size |z| + sum |g^2 / (z - d)| of f's terms on rows z - d = gaps + u, summed over every mode."""
        inv = 1.0 / (gaps + u[:, None])
        pull = self.g2c * inv
        return z - pull.sum(axis=1), 1.0 + (pull * inv).sum(axis=1), np.abs(z) + np.abs(pull).sum(axis=1)


class _ModeRows:
    """The mode rows of several secular solvers as one table: column offsets[s] + j is mode row j of solvers[s].

    Each solver's Horner rows, g^2, spread and reach are concatenated, so that
    one _mode_terms call, and one Newton, serves the mode rows of every block
    and loss of a call; a row beyond its series radius is summed directly
    over the modes of its own solver.
    """

    def __init__(self, solvers: list[_SecularSolver]):
        self.solvers = solvers
        self.offsets = np.cumsum([0] + [solver.g2.size for solver in solvers])
        self.coef, self.g2c, self.bound = (np.concatenate([getattr(solver, name) for solver in solvers], axis=-1)
                                           for name in ("coef", "g2c", "bound"))

    def _mode_terms(self, z: np.ndarray, u: np.ndarray, j: np.ndarray):
        """f(z), f'(z) and the size of f's terms on mode rows j at z = d_j + u: by the series, or summed directly beyond its radius."""
        coef = self.coef[:, :, j]
        acc = coef[0]
        for row in coef[1:]:
            acc = row - u * acc
        pole = self.g2c[j] / u
        spread, reach = self.bound[:, j]
        f, fp, size = z - pole - acc[0], pole / u + acc[1], np.abs(z) + np.abs(pole) + spread
        far = np.flatnonzero(~(np.abs(u) <= reach))
        if far.size:
            owner = np.searchsorted(self.offsets, j[far], side="right") - 1
            for s in np.unique(owner).tolist():
                rows, solver = far[owner == s], self.solvers[s]
                local = j[rows] - self.offsets[s]
                f[rows], fp[rows], size[rows] = solver._direct_terms(solver.modes[local, None] - solver.modes, z[rows], u[rows])
        return f, fp, size


def _big_root(c: np.ndarray, four_ag2: np.ndarray) -> np.ndarray:
    """c + sqrt(c^2 + 4 a g2) or c - sqrt(...), whichever is larger, of a u^2 + c u - g2 = 0: its roots are 2 g2 / big and -big / (2 a), without cancellation."""
    r = np.sqrt(c * c + four_ag2)
    np.negative(r, out=r, where=(np.conj(c) * r).real < 0.0)
    return c + r


def _newton(terms: Callable, u: np.ndarray) -> tuple[np.ndarray, ...]:
    """Run every element of u as its own Newton on terms(cells, u[cells]) = f, f' and size there, updating u in place.

    The first evaluation covers every element, later ones the elements still
    moving; an element keeps its first iterate whose step is within
    SECULAR_STEP_TOL |u| + 4 EPS size / |f'| (a NaN step never moves it).
    Returns u, then f, f' and size at the iterates kept, and whether each
    element is still moving at SECULAR_MAX_ITER.
    """
    out = f, fp, size = terms(slice(None), u)
    cells, at = np.arange(u.size), u
    for _ in range(SECULAR_MAX_ITER):
        step = f / fp
        go = np.abs(step) > SECULAR_STEP_TOL * np.abs(at) + 4.0 * EPS * size / np.abs(fp)
        cells = cells[go]
        if not cells.size:
            break
        u[cells] = at = u[cells] - step[go]
        f, fp, size = terms(cells, at)
        out[0][cells], out[1][cells], out[2][cells] = f, fp, size
    moving = np.zeros(u.size, dtype=bool)
    moving[cells] = True
    return (u, *out, moving)


def _secular_spectra(jobs: list[tuple[_SecularSolver, list[float]]]) -> list[list[Spectrum | EigensolveError]]:
    """solver.spectra(kappas) for every job (solver, kappas), with the mode rows of every job in one Newton.

    A mode row costs O(1) (_ModeRows), so the mode rows of every block and
    loss of a call run in a single _newton.  _guess, the atom rows (one
    Newton per solver: their O(n) sums have the solver's own length) and
    each loss's checks run per solver.  Every row is its own Newton, so each
    root and residue has the bits of a solve of its block and loss alone.
    """
    poles, bases, rows, guesses = [], [], [None] * len(jobs), {}
    for solver, kappas in jobs:
        z = np.zeros((len(kappas), solver.diag0.size + 1), dtype=complex)
        z[:, 1:] = solver.diag0 - 1j * np.asarray(kappas, dtype=float)[:, None]
        poles.append(z)
        bases.append(z.take(solver.rows, axis=1))
    live = [k for k, (solver, _) in enumerate(jobs) if solver.g2.size]
    with np.errstate(all="ignore"):
        for k in live:
            solver, base = jobs[k][0], bases[k]
            gaps = base[:, :1] - base[:, 1:]
            u_atom, guesses[k] = solver._guess(base, gaps)
            rows[k] = [_newton(lambda c, w, s=solver, gaps=gaps: s._direct_terms(gaps[c], w, w), u_atom)]
        if live:
            # every mode row of the call: its pole, its column of the table and its guess
            table = _ModeRows([jobs[k][0] for k in live])
            pole = np.concatenate([bases[k][:, 1:].reshape(-1) for k in live])
            cols = np.concatenate([np.arange(guesses[k].size) % guesses[k].shape[1] + table.offsets[i]
                                   for i, k in enumerate(live)])
            modes = _newton(lambda c, w: table._mode_terms(pole[c] + w, w, cols[c]), np.concatenate(
                [guesses[k].reshape(-1) for k in live]))
            ends = np.cumsum([0] + [guesses[k].size for k in live]).tolist()
            for i, k in enumerate(live):
                rows[k].append([m[ends[i]:ends[i + 1]] for m in modes])
        return [solver._checked(poles[k], bases[k], rows[k]) for k, (solver, _) in enumerate(jobs)]


def _spectra(jobs: list[tuple[BlockModel, list[float]]]) -> list[list[Spectrum]]:
    """Spectrum of every (block, kappas) job at each of its losses: one secular solve for all, and eig for each loss whose checks fail."""
    solved = _secular_spectra([(_SecularSolver(block.detuning, block.coupling), kappas) for block, kappas in jobs])
    return [[_dense_spectrum(block.hamiltonian(kappa)) if isinstance(out, EigensolveError) else out
             for kappa, out in zip(kappas, outs)] for (block, kappas), outs in zip(jobs, solved)]


def _dense_spectrum(h: np.ndarray) -> Spectrum:
    """Eigenvalues w, atomic residues and weights W[k] = c_k v_k of exp(-i H t) e_0 from eig.

    Raises EigensolveError if the eigensolver fails or misses its residual
    check ||H v - w v|| <= RESIDUAL_TOL * ||H||.
    """
    e0 = np.zeros(h.shape[0])
    e0[0] = 1.0
    try:
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
    return w, weights[:, 0], partial(np.asarray, weights)


def _powers(w: np.ndarray, count: int) -> np.ndarray:
    """Rows w^0 .. w^(count - 1) of every element of w.

    Each pass multiplies the rows so far by the next power, w^done = w^(done - 1) w,
    so row j is a product of about j factors w in log2(count) passes.
    """
    table = np.empty((count, w.size), dtype=complex)
    table[0] = 1.0
    done = 1
    while done < count:
        more = min(done, count - done)
        np.multiply(table[:more], table[done - 1] * w, out=table[done:done + more])
        done += more
    return table


def _phase_sum(z: np.ndarray, weights: np.ndarray, dt: float | np.ndarray, n_times: int,
               widths: list[int] | None = None) -> np.ndarray:
    """sum_k exp(-i z_k t_j) weights[k] on t_j = j dt, j = 0 .. n_times - 1.

    With B = ceil(sqrt(n_times)), t_j = (B m + b) dt splits every phase into
    an inner table exp(-i z b dt), b < B, and an outer table exp(-i z B m dt),
    each about sqrt(n_times) rows of powers of one exponential per root
    (_powers): 2 complex exponentials per root, and an entry within ~B EPS
    relative of the exponential it stands for.  A weight matrix (n, c), the
    full state of one root set, contracts the product of the two tables:
    (n_times, c), at the scalar dt.  A weight vector comes with z of its
    length split into consecutive segments of widths, and dt one per
    segment; it gives each segment's sum over its own roots, (segments,
    n_times): the segments of one width are one batched GEMM,
    (outer * weights) @ inner^T, so a segment's sum has the same bits
    whatever other segments the call holds.
    """
    n_inner = math.isqrt(n_times - 1) + 1
    n_outer = -(-n_times // n_inner)
    if weights.ndim == 2:
        inner, outer = _powers(np.exp(-1j * dt * z), n_inner), _powers(np.exp(-1j * (n_inner * dt) * z), n_outer)
        out = (outer[:, None, :] * inner[None, :, :]) @ weights
        return out.reshape(n_outer * n_inner, -1)[:n_times]
    widths = np.asarray(widths)
    # the segments in order of width, so that the roots of each width lie side by side
    order = np.argsort(widths, kind="stable")
    size = widths[order]
    end = size.cumsum()
    at = ((widths.cumsum() - widths)[order] - (end - size)).repeat(size) + np.arange(z.size)
    z, dt = z[at], np.asarray(dt)[order].repeat(size)
    inner, outer = _powers(np.exp(-1j * dt * z), n_inner), _powers(np.exp(-1j * (n_inner * dt) * z), n_outer)
    outer *= weights[at]
    out = np.empty((widths.size, n_outer * n_inner), dtype=complex)
    firsts = [0] + (1 + np.flatnonzero(size[1:] != size[:-1])).tolist()
    for first, last in zip(firsts, firsts[1:] + [size.size]):
        count, width = last - first, int(size[first])
        roots = slice(int(end[first]) - width, int(end[last - 1]))
        table = outer[:, roots].reshape(n_outer, count, width).transpose(1, 0, 2)
        out[order[first:last]] = (table @ inner[:, roots].reshape(n_inner, count, width).transpose(1, 2, 0)).reshape(count, -1)
    return out[:, :n_times]


def _full_state(z: np.ndarray, weights: Callable[[], np.ndarray], dt: float, n_times: int) -> np.ndarray:
    """exp(-i H t)|0> on the time grid; rows = times, cols = components."""
    return _phase_sum(z, weights(), dt, n_times)


def _bracketed_newton(fun, lo: np.ndarray, hi: np.ndarray, x: np.ndarray, tol: np.ndarray):
    """Zeros of g in the brackets [lo, hi], one per element, where g(lo) > 0 > g(hi).

    fun(x, cells) returns (g, s, aux) of the elements cells at their points x,
    s an estimate of g'; cells is the same array until an element converges.  Each element steps by -g / s, and bisects where a
    step would leave its bracket or fails to halve the step before it.  An
    element has converged when its step or its bracket is at most its tol
    (the bracket collapses onto an end where g keeps one sign), and is not
    evaluated again.  Returns the points after their last step, kept in
    their brackets, and aux at the last points evaluated; raises
    NonConvergenceError after SEARCH_MAX_ITER evaluations.
    """
    out, aux = np.empty(x.size), np.empty(x.size)
    cells, last = np.arange(x.size), hi - lo
    for _ in range(SEARCH_MAX_ITER):
        g, slope, aux[cells] = fun(x, cells)
        lo = np.where(g > 0.0, x, lo)
        hi = np.where(g < 0.0, x, hi)
        step = np.where(g == 0.0, 0.0, -g / slope)
        done = (np.abs(step) <= tol) | (hi - lo <= tol)
        if done.any():
            out[cells[done]] = np.clip(x + step, lo, hi)[done]
            if done.all():
                return out, aux
            cells, lo, hi, x, step, tol, last = (a[~done] for a in (cells, lo, hi, x, step, tol, last))
        newton = (x + step > lo) & (x + step < hi) & (np.abs(step) < 0.5 * np.abs(last))
        last = np.where(newton, step, 0.5 * (lo + hi) - x)
        x = x + last
    raise NonConvergenceError(f"peak search did not converge in {SEARCH_MAX_ITER} evaluations")


def _bell_search(roots: tuple[np.ndarray, np.ndarray, np.ndarray], t: np.ndarray, fid: np.ndarray,
                 pop_diff: np.ndarray) -> tuple:
    """Largest Bell fidelity on [0, t[k, -1]], its branch and the first pop1 = pop2 crossing time (or None) of each point k.

    roots are the roots z and residues r of every point, flat, with bounds
    s: point k's odd block is s[2k]:s[2k + 1], its even block
    s[2k + 1]:s[2k + 2].  Row k of t is that point's uniform table from 0,
    fid[0, k] and fid[1, k] its Bell fidelity on branch +1 and -1 there, and
    pop_diff[k] its pop1 - pop2 (_observe).  Each table brackets the
    interior local maxima of either branch and the first sign change of
    pop_diff after t[k, 1]; every bracket of every point is then refined in
    one search from its point's roots z and residues r, since
    o(t) = sum r exp(-i z t) and its derivative cost O(n) at any t; a
    candidate's sums run over its own point's roots (np.add.reduceat), and
    only the candidates still moving are evaluated again.  With A = ((1 - i b) o + (1 + i b) e) / 2
    on branch b, F = |A|^2 / 2 has F' = Re(conj(A) A'), and
    pop1 - pop2 = Re(o conj(e)).

    A peak between t[j - 1] and t[j + 1] rises about |c| / 8 above f[j],
    c = f[j - 1] - 2 f[j] + f[j + 1], so only maxima that may pass the best
    sample are refined, from the parabola's vertex.  F' is solved by chord
    steps of slope c / dt^2: the far-detuned modes add fast terms to F''
    that can outweigh the exchange curvature near the peak, though not to
    F'.  The crossing takes Newton steps on pop1 - pop2.  Each stops at a
    step of SEARCH_STEP_TOL t[k, -1], which leaves F within a few 1e-12 of its peak.
    A point's result is the best of F(0) = 1/2 (the initial state, exact on
    both branches), the table's samples after t = 0 and the refined peaks;
    ties go to the first of these, branch +1 first.
    """
    h, sampled = t[:, 1], fid[:, :, 1:].max(axis=2)  # t[:, 0] = 0
    peak = np.maximum(0.5, sampled[0])
    peak, branch = np.maximum(peak, sampled[1]), np.where(sampled[1] > peak, -1, 1)
    # interior local maxima of every row (branch +1 rows, then -1), as flat indices c into fid
    f, tf, n_t = fid.reshape(-1), t.reshape(-1), t.shape[1]
    c = 1 + np.flatnonzero((f[1:-1] > f[:-2]) & (f[1:-1] >= f[2:]))
    c = c[(c + 1) % n_t > 1]  # not a row's first or last sample, which the flat shifts pair across rows
    tc = c % t.size  # the same sample of t
    k = tc // n_t
    curv = f[c - 1] - 2.0 * f[c] + f[c + 1]
    keep = f[c] - 0.25 * curv >= peak[k]
    c, tc, k, curv = c[keep], tc[keep], k[keep], curv[keep]
    # each row's first sign change of pop1 - pop2 after t[1], where there is one, at flat index i
    d = pop_diff.reshape(-1)
    i = 1 + np.flatnonzero(d[1:-1] * d[2:] <= 0.0)
    i = i[(i + 1) % n_t > 1]
    i = i[i // n_t != np.concatenate(([-1], i[:-1] // n_t))]  # each row's first crossing
    kc, d0, d1 = i // n_t, d[i], d[i + 1]
    # a peak's branch, or the sign that makes pop1 - pop2 fall through the crossing
    pt, kind = np.concatenate((k, kc)), np.concatenate((1.0 - 2.0 * (c >= t.size), np.where(d0 >= 0.0, 1.0, -1.0)))
    t_cross = [None] * t.shape[0]
    if pt.size:
        lo, hi = tf[np.concatenate((tc - 1, i))], tf[np.concatenate((tc + 1, i + 1))]
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.concatenate((tf[tc] + 0.5 * h[k] * (f[c - 1] - f[c + 1]) / curv,
                                np.where(d1 == d0, tf[i], tf[i] - d0 * h[kc] / (d1 - d0))))
        slope = np.concatenate((curv / (h[k] * h[k]), np.zeros(kc.size)))
        # per candidate: its point's roots (odd, then even) and their coefficients r and -i z r
        z, r, bounds = roots
        coeff = np.array([r, -1j * z * r])
        first, n_odd, size = bounds[2 * pt], bounds[2 * pt + 1] - bounds[2 * pt], bounds[2 * pt + 2] - bounds[2 * pt]
        on_peak = np.arange(pt.size) < k.size
        p = 0.5 - 0.5j * kind
        q = np.conj(p)

        active = None

        def fun(times, cells):
            """g, its slope and F of the candidates cells: F' and the table's slope on a peak, sign (pop1 - pop2) and its derivative on the crossing."""
            nonlocal active
            if active is None or active[0] is not cells:
                # the roots of these candidates, gathered once per set of candidates
                width = size[cells]
                end = width.cumsum()
                at = (first[cells] - (end - width)).repeat(width) + np.arange(end[-1])
                # each candidate's odd sum, then its even sum, over its own roots only
                cuts = np.array([end - width, end - width + n_odd[cells]]).T.reshape(-1)
                active = cells, width, z[at], coeff[:, at], cuts, p[cells], q[cells], on_peak[cells], kind[cells], slope[cells]
            _, width, zc, cc, cuts, pc, qc, peaks, sign, sc = active
            sums = np.add.reduceat(cc * np.exp(-1j * (zc * times.repeat(width))), cuts, axis=1)
            (o0, e0), (o1, e1) = sums[0].reshape(-1, 2).T, sums[1].reshape(-1, 2).T
            a0 = pc * o0 + qc * e0
            g = np.where(peaks, (np.conj(a0) * (pc * o1 + qc * e1)).real, sign * (o0 * np.conj(e0)).real)
            s = np.where(peaks, sc, sign * (o1 * np.conj(e0) + o0 * np.conj(e1)).real)
            return g, s, 0.5 * (np.conj(a0) * a0).real

        with np.errstate(divide="ignore", invalid="ignore"):
            times, refined = _bracketed_newton(fun, lo, hi, x, SEARCH_STEP_TOL * t[pt, -1])
        # in each point's order of candidates, so that ties go to the first
        for point, value, side in zip(k.tolist(), refined[:k.size].tolist(), kind[:k.size].astype(int).tolist()):
            if value > peak[point]:
                peak[point], branch[point] = value, side
        for point, time in zip(kc.tolist(), times[k.size:].tolist()):
            t_cross[point] = time
    return peak, branch, t_cross


def _observe(spectra: list[tuple[Spectrum, Spectrum]], dt: np.ndarray, t: np.ndarray) -> tuple:
    """amp_a, amp_b and the Bell fidelity of branch +1 and -1 on t, then the peak, the branch and the extracted rate of each point.

    spectra[k] are the odd and even spectra of point k, of any block sizes,
    and row k of t its uniform table t_j = j dt[k] from 0.  The atomic
    amplitudes of every point are one _phase_sum over the roots of all
    points, one segment per block, and _bell_search refines every point's
    peak and first pop1 = pop2 crossing in one search; each point's sums
    run over its own roots only, so it gets the same bits alone or with
    others.  The exchange rate |delta_omega| in Gamma0 units is
    pi / (4 t_cross), or None without a crossing.
    """
    blocks = [block for point in spectra for block in point]
    widths = [block[0].size for block in blocks]
    z, r = (np.concatenate([block[i] for block in blocks]) for i in (0, 1))
    atom = _phase_sum(z, r, np.repeat(dt, 2), t.shape[1], widths)
    atom_o, atom_e = atom[0::2], atom[1::2]
    amp_a = 0.5 * (atom_o + atom_e)
    amp_b = 0.5 * (atom_o - atom_e)
    # Bell fidelity against (|a> -+ i|b>)/sqrt2: branch +1, then -1
    fid = 0.5 * np.abs(amp_a + np.multiply.outer([-1j, 1j], amp_b)) ** 2
    bounds = np.concatenate(([0], np.cumsum(widths)))
    peak, branch, t_cross = _bell_search((z, r, bounds), t, fid, np.abs(amp_a) ** 2 - np.abs(amp_b) ** 2)
    rate = [0.25 * math.pi / (tc * DEFAULT_GAMMA0) if tc else None for tc in t_cross]
    return amp_a, amp_b, fid, peak, branch, rate


def evolve(blocks: tuple[BlockModel, BlockModel], kappa: float, t_grid: np.ndarray) -> SimResult:
    """Evolve |e,g>|vac> = (|o> + |e>)/sqrt 2 and extract pair observables.

    t_grid must be uniform and start at 0 (t_k = k dt, as np.linspace(0, T, n)
    gives), else DomainError.  Each block is propagated from the roots and
    residues of its secular equation, both blocks in one secular pass and
    one observation (_observe); only the atomic amplitude is formed here,
    and the full state behind `state_norm` is built when that attribute is
    first read.  kappa is applied on every mode diagonal.
    Raises EigensolveError if both the secular solve and the dense
    fallback of a block fail their checks.  Reported times
    and the extracted exchange rate are converted to Gamma0 units via
    DEFAULT_GAMMA0, the rate that scaled the couplings at build time.

    The Bell fidelity is computed against both (|a> -+ i|b>)/sqrt2 partners;
    the branch reaching the larger peak is reported (which of the two is
    approached first depends on the sign of the effective exchange rate).
    The peak and the first population crossing are bracketed on t_grid and
    refined from the spectra (_bell_search).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2:
        raise DomainError("t_grid must be a 1-D array with at least two points")
    n_times = t_grid.size
    dt = t_grid[-1] / (n_times - 1)
    offgrid = np.abs(t_grid - dt * np.arange(n_times))
    if not (t_grid[0] == 0.0 and dt > 0.0 and np.all(offgrid <= GRID_TOL * t_grid[-1])):
        raise DomainError("t_grid must be uniform and increasing from 0, t_k = k dt")
    spectra = [outs[0] for outs in _spectra([(block, [kappa]) for block in blocks])]
    amp_a, amp_b, fid, peak, branch, rate = _observe([spectra], np.array([dt]), t_grid[None])
    branch = int(branch[0])
    return SimResult(
        times=t_grid * DEFAULT_GAMMA0,
        amp_a=amp_a[0],
        amp_b=amp_b[0],
        bell_fidelity=fid[(1 - branch) // 2, 0],
        bell_branch=branch,
        max_fidelity=float(peak[0]),
        extracted_delta_omega=rate[0],
        _full_states=tuple(partial(_full_state, z, weights, dt, n_times) for z, _, weights in spectra),
    )


@dataclass(frozen=True)
class AnalyticsComparison:
    """Simulator versus closed-form rate model at one operating point."""

    F_numeric: float
    F_analytic: float
    relative_deviation: float   # on the error 1 - F
    extracted_delta_omega: float | None
    rates: CouplingRates


def compare_losses(
    cfgs: list[LensConfig],
    atoms: AtomPairConfig,
    rates: list[CouplingRates],
    l_max: int | None = None,
) -> list[AnalyticsComparison]:
    """Run the block simulation on each lens of cfgs and compare it with the closed-form rates there.

    rates[k] are coupling_rates(cfgs[k], atoms), or one element each of
    qed.coupling_rate_arrays for a caller that sweeps many points.  Requires
    antipodal atoms (the parity reduction assumes them).  Lenses equal but
    for alpha share their blocks (build_blocks with l_max; one Legendre
    table per l_max and call) and each block's loss-independent secular data
    (_SecularSolver).  The lenses of the call are solved in one secular pass
    (_secular_spectra) and observed in one _observe, whatever their block
    sizes, up to PASS_ROOTS roots a pass; the results keep the order of
    cfgs.  Each point searches the window [0, 3 pi / |delta_omega|], a few
    exchange cycles, with a SEARCH_POINTS phase table refined from the
    spectra (_bell_search).  The relative deviation is on the entangling error
    |(1 - F_num) - (1 - F_ana)| / (1 - F_ana), F_ana = entanglement_fidelity(rates).
    """
    if not atoms.is_antipodal:
        raise DomainError("the parity-reduced simulator requires antipodal atoms")
    if len(rates) != len(cfgs):
        raise DomainError("compare_losses takes one CouplingRates per lens")
    lossless: dict[tuple[float, float, float], list[int]] = {}
    for k, cfg in enumerate(cfgs):
        lossless.setdefault((cfg.radius, cfg.n0, cfg.b), []).append(k)
    theta, tables, passes, roots = stereo_theta(atoms.p1.rho), {}, [[]], 0
    for ks in lossless.values():
        blocks = _build_blocks(cfgs[ks[0]], theta, l_max, tables)
        size = len(ks) * (blocks[0].dim + blocks[1].dim)
        if passes[-1] and roots + size > PASS_ROOTS:
            passes.append([])
            roots = 0
        passes[-1].append((ks, blocks))
        roots += size
    out: list[AnalyticsComparison] = [None] * len(cfgs)
    for groups in passes:
        solved = _spectra([(block, [cfgs[k].kappa for k in ks]) for ks, blocks in groups for block in blocks])
        order = [k for ks, _ in groups for k in ks]
        spectra = [point for odd, even in zip(solved[0::2], solved[1::2]) for point in zip(odd, even)]
        dt = np.array([3.0 * math.pi / (abs(rates[k].delta_omega) * DEFAULT_GAMMA0) / (SEARCH_POINTS - 1) for k in order])
        *_, peaks, _, found = _observe(spectra, dt, dt[:, None] * np.arange(SEARCH_POINTS))
        for k, peak, rate in zip(order, peaks.tolist(), found):
            point = rates[k]
            f_ana = entanglement_fidelity(point)
            err_ana = 1.0 - f_ana
            out[k] = AnalyticsComparison(
                F_numeric=peak,
                F_analytic=f_ana,
                relative_deviation=abs((1.0 - peak) - err_ana) / err_ana if err_ana > 0 else math.inf,
                extracted_delta_omega=rate,
                rates=point,
            )
    return out


def compare_to_analytics(
    cfg: LensConfig,
    atoms: AtomPairConfig,
    rates: CouplingRates,
    l_max: int | None = None,
) -> AnalyticsComparison:
    """Run the block simulation at cfg and compare it with the closed-form rates there.

    rates are coupling_rates(cfg, atoms); the one-lens call of compare_losses.
    """
    return compare_losses([cfg], atoms, [rates], l_max)[0]
