import math
import pickle

import numpy as np
import pytest

from fisheye import schrodinger
from fisheye.errors import DomainError
from fisheye.lens import OMEGA0, LensConfig, radius_for_order, stereo_theta
from fisheye.qed import AtomPairConfig, coupling_rates
from fisheye.schrodinger import (
    DEFAULT_GAMMA0,
    build_blocks,
    compare_to_analytics,
    evolve,
    _propagate,
    _propagate_rk4,
)
from fisheye.specfun import legendre_poly


def _reference_cfg(nu_re=20.5, alpha=0.0):
    return LensConfig(radius=radius_for_order(nu_re), alpha=alpha)


def _time_grid(cfg, atoms, alpha, n=2000):
    rates = coupling_rates(
        LensConfig(radius=cfg.radius, b=cfg.b, alpha=alpha), atoms
    )
    dw = abs(rates.delta_omega) * DEFAULT_GAMMA0
    return np.linspace(0.0, 3.0 * math.pi / dw, n), rates


def _eager_full_state(h, t, hermitian):
    """exp(-iHt)|0> by the full-state product that evolve once formed for every block."""
    e0 = np.zeros(len(h), dtype=complex)
    e0[0] = 1.0
    if hermitian:
        w, v = np.linalg.eigh(h.real)
        coeff = v.T @ e0
    else:
        w, v = np.linalg.eig(h)
        coeff = np.linalg.solve(v, e0)
    return (np.exp(-1j * np.outer(t, w)) * coeff[None, :]) @ v.T


def _eager_norm(blocks, kappa, t):
    psi_o, psi_e = (_eager_full_state(b.hamiltonian(kappa), t, kappa == 0.0) for b in blocks)
    return np.sqrt(
        0.5 * (np.sum(np.abs(psi_o) ** 2, axis=1) + np.sum(np.abs(psi_e) ** 2, axis=1))
    )


class TestBuildBlocks:
    def test_coupling_matches_both_printed_forms(self):
        # G_l^2 = prefactor (2l+1) sqrt(l(l+1)) [1 - P_l(cos(pi-2theta))]/(4pi)
        #       = 2 g_l^2 N_l^2 with N_l^2 = (2l+1)[1 - P_l(cos(pi-2theta))]/(8pi)
        cfg = _reference_cfg()
        theta = stereo_theta(0.27)
        g0 = DEFAULT_GAMMA0
        bo, be = build_blocks(cfg, theta, l_range=range(1, 31), gamma0=g0, edge_taper=0.0)
        c0sq = 3.0 * math.pi * g0 / (OMEGA0**3 * cfg.b * cfg.radius**2)
        for mode in bo.modes + be.modes:
            l = mode.l
            pl = legendre_poly(l, math.cos(math.pi - 2.0 * theta))
            direct = c0sq / cfg.radius * (2 * l + 1) * math.sqrt(l * (l + 1.0)) * (1.0 - pl) / (4.0 * math.pi)
            g_sq = c0sq * math.sqrt(l * (l + 1.0)) / cfg.radius
            n_sq = (2 * l + 1) * (1.0 - pl) / (8.0 * math.pi)
            assert mode.coupling**2 == pytest.approx(direct, rel=1e-12)
            assert mode.coupling**2 == pytest.approx(2.0 * g_sq * n_sq, rel=1e-12)

    def test_mirror_atoms_decouple(self):
        bo, be = build_blocks(_reference_cfg(), math.pi / 2.0, l_range=range(1, 21))
        assert all(m.coupling == 0.0 for m in bo.modes + be.modes)

    def test_parity_split(self):
        bo, be = build_blocks(_reference_cfg(), stereo_theta(0.27), l_range=range(1, 11))
        assert all(m.l % 2 == 1 for m in bo.modes)
        assert all(m.l % 2 == 0 for m in be.modes)
        assert bo.parity == "odd" and be.parity == "even"

    def test_empty_range_rejected(self):
        with pytest.raises(DomainError):
            build_blocks(_reference_cfg(), 2.0, l_range=range(0, 0))

    def test_detuning_is_mode_frequency_minus_omega0(self):
        cfg = _reference_cfg()
        bo, _ = build_blocks(cfg, 2.0, l_range=range(1, 6))
        for mode in bo.modes:
            want = math.sqrt(mode.l * (mode.l + 1.0)) / cfg.radius - OMEGA0
            assert mode.detuning == pytest.approx(want, rel=1e-14)

    def test_hamiltonian_shape(self):
        bo, _ = build_blocks(_reference_cfg(), 2.0, l_range=range(1, 9), kappa=0.01)
        h = bo.hamiltonian()
        assert h.shape == (bo.dim, bo.dim)
        assert h[1, 1] == pytest.approx(bo.modes[0].detuning - 0.01j)
        assert h[0, 1] == h[1, 0]


class TestEvolve:
    def test_initial_state_and_fidelity(self, antipodal_027):
        cfg = _reference_cfg()
        t, _ = _time_grid(cfg, antipodal_027, 0.0, n=400)
        blocks = build_blocks(cfg, stereo_theta(0.27))
        sim = evolve(blocks, 0.0, t)
        assert abs(sim.amp_a[0]) == pytest.approx(1.0, abs=1e-12)
        assert abs(sim.amp_b[0]) == pytest.approx(0.0, abs=1e-12)
        assert sim.bell_fidelity[0] == pytest.approx(0.5, abs=1e-12)

    def test_lossless_norm_conserved(self, antipodal_027):
        cfg = _reference_cfg()
        t, _ = _time_grid(cfg, antipodal_027, 0.0, n=1500)
        sim = evolve(build_blocks(cfg, stereo_theta(0.27)), 0.0, t)
        assert float(np.max(np.abs(sim.state_norm - 1.0))) < 1e-10

    def test_extracted_exchange_rate(self, antipodal_027):
        cfg = _reference_cfg()
        t, rates = _time_grid(cfg, antipodal_027, 0.0)
        sim = evolve(build_blocks(cfg, stereo_theta(0.27)), 0.0, t)
        assert sim.extracted_delta_omega == pytest.approx(
            abs(rates.delta_omega), rel=0.05
        )

    def test_lossy_norm_decays_to_ground(self, antipodal_027):
        alpha = 3e-3
        cfg = _reference_cfg(alpha=alpha)
        t, _ = _time_grid(cfg, antipodal_027, alpha)
        t = np.linspace(0.0, 6.0 * t[-1], 1500)
        blocks = build_blocks(cfg, stereo_theta(0.27), kappa=cfg.kappa)
        sim = evolve(blocks, cfg.kappa, t)
        assert np.all(np.diff(sim.state_norm) <= 1e-10)
        assert abs(sim.amp_a[-1]) ** 2 + abs(sim.amp_b[-1]) ** 2 < 5e-3

    def test_truncation_convergence_on_doubling(self, antipodal_027):
        cfg = _reference_cfg()
        t, _ = _time_grid(cfg, antipodal_027, 0.0)
        theta = stereo_theta(0.27)
        extracted = []
        for fac in (4, 8):
            l_range = range(1, fac * 21 + 1)
            sim = evolve(build_blocks(cfg, theta, l_range=l_range), 0.0, t)
            extracted.append(sim.extracted_delta_omega)
        assert abs(extracted[1] - extracted[0]) / extracted[1] < 0.01

    def test_rk4_fallback_matches_spectral_path(self):
        cfg = _reference_cfg(nu_re=5.5)
        blocks = build_blocks(cfg, stereo_theta(0.3), l_range=range(1, 13), kappa=0.01)
        h = blocks[0].hamiltonian(0.01)
        t = np.linspace(0.0, 40.0, 60)
        w, v = np.linalg.eig(h)
        coeff = np.linalg.solve(v, np.eye(len(h))[:, 0])
        spectral = (np.exp(-1j * np.outer(t, w)) * coeff[None, :]) @ v.T
        e0 = np.zeros(len(h), dtype=complex)
        e0[0] = 1.0
        rk4 = _propagate_rk4(h, t, e0)
        assert float(np.max(np.abs(rk4 - spectral))) < 1e-6


class TestAtomicRow:
    """evolve forms only the atomic amplitude of each block; the full state
    behind state_norm is built on demand."""

    @pytest.mark.parametrize("alpha", [0.0, 1e-4, 1e-3, 1e-2])
    def test_matches_column_zero_of_full_state(self, antipodal_027, alpha):
        # R0 = 14.48 gives two blocks of dim 183; at alpha = 1e-3 about 2% of
        # the decaying phases exp(-i w t) are subnormal floats
        cfg = LensConfig(radius=14.48, alpha=alpha)
        t, _ = _time_grid(cfg, antipodal_027, alpha)
        kappa = alpha * OMEGA0
        for block in build_blocks(cfg, stereo_theta(0.27), kappa=kappa):
            h = block.hamiltonian(kappa)
            atomic, _ = _propagate(h, t, hermitian=(alpha == 0.0))
            full = _eager_full_state(h, t, alpha == 0.0)
            assert float(np.max(np.abs(atomic - full[:, 0]))) <= 1e-13

    @pytest.mark.parametrize("alpha", [0.0, 3e-3])
    def test_state_norm_on_demand_matches_eager_norm(self, antipodal_027, alpha):
        cfg = _reference_cfg(alpha=alpha)
        t, _ = _time_grid(cfg, antipodal_027, alpha, n=800)
        blocks = build_blocks(cfg, stereo_theta(0.27), kappa=cfg.kappa)
        sim = evolve(blocks, cfg.kappa, t)
        unread = pickle.loads(pickle.dumps(sim))
        norm = sim.state_norm
        assert norm is sim.state_norm  # built once, then cached
        assert float(np.max(np.abs(norm - _eager_norm(blocks, cfg.kappa, t)))) <= 1e-13
        assert np.array_equal(unread.state_norm, norm)

    def test_compare_to_analytics_never_builds_full_state(self, monkeypatch, antipodal_027):
        def refuse(*args):
            raise AssertionError("full state built")

        monkeypatch.setattr(schrodinger, "_full_state", refuse)
        cmp = compare_to_analytics(_reference_cfg(), antipodal_027, 5e-4)
        assert cmp.relative_deviation < 0.15
        # the patch is on the path state_norm takes
        cfg = _reference_cfg(nu_re=5.5)
        sim = evolve(build_blocks(cfg, stereo_theta(0.3), l_range=range(1, 13)), 0.0, np.linspace(0.0, 40.0, 60))
        with pytest.raises(AssertionError, match="full state built"):
            sim.state_norm

    @pytest.mark.parametrize("failure", ["eig raises", "residual check fails"])
    def test_evolve_falls_back_to_rk4(self, monkeypatch, failure):
        kappa = 0.01
        cfg = _reference_cfg(nu_re=5.5)
        blocks = build_blocks(cfg, stereo_theta(0.3), l_range=range(1, 13), kappa=kappa)
        t = np.linspace(0.0, 40.0, 60)
        spectral = evolve(blocks, kappa, t)
        calls = []

        def rk4(*args):
            calls.append(1)
            return _propagate_rk4(*args)

        def broken_eig(h):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(schrodinger, "_propagate_rk4", rk4)
        if failure == "eig raises":
            monkeypatch.setattr(schrodinger.np.linalg, "eig", broken_eig)
        else:
            monkeypatch.setattr(schrodinger, "RESIDUAL_TOL", -1.0)
        fallback = evolve(blocks, kappa, t)
        assert len(calls) == 2  # one per parity block
        assert float(np.max(np.abs(fallback.amp_a - spectral.amp_a))) < 1e-6
        assert float(np.max(np.abs(fallback.amp_b - spectral.amp_b))) < 1e-6
        assert float(np.max(np.abs(fallback.state_norm - spectral.state_norm))) < 1e-6
        assert np.array_equal(pickle.loads(pickle.dumps(fallback)).state_norm, fallback.state_norm)


class TestFullBasisCrossCheck:
    """Validate the parity-reduced collective-mode blocks against the raw
    (l, m) single-excitation Hamiltonian built directly from the mode
    functions (no collective-mode reduction)."""

    def test_block_reduction_reproduces_full_dynamics(self, full_basis_hamiltonian):
        cfg = _reference_cfg(nu_re=5.5)
        rho = 0.3
        l_range = range(1, 23)
        g0 = DEFAULT_GAMMA0
        h, labels = full_basis_hamiltonian(cfg, rho, l_range, g0)
        t = np.linspace(0.0, 2e5, 300)
        w, v = np.linalg.eigh(h)
        psi0 = np.zeros(h.shape[0], dtype=complex)
        psi0[0] = 1.0
        coeff = v.conj().T @ psi0
        full = (np.exp(-1j * np.outer(t, w)) * coeff[None, :]) @ v.T
        blocks = build_blocks(cfg, stereo_theta(rho), l_range=l_range, gamma0=g0, edge_taper=0.0)
        sim = evolve(blocks, 0.0, t, gamma0=g0)
        assert float(np.max(np.abs(full[:, 0] - sim.amp_a))) < 1e-9
        assert float(np.max(np.abs(full[:, 1] - sim.amp_b))) < 1e-9

    def test_parity_blocks_stay_isolated(self, full_basis_hamiltonian):
        cfg = _reference_cfg(nu_re=5.5)
        rho = 0.3
        l_range = range(1, 23)
        h, labels = full_basis_hamiltonian(cfg, rho, l_range, DEFAULT_GAMMA0)
        # |o> = (|a> + |b>)/sqrt2 couples to odd l only
        psi0 = np.zeros(h.shape[0], dtype=complex)
        psi0[0] = psi0[1] = 1.0 / math.sqrt(2.0)
        w, v = np.linalg.eigh(h)
        coeff = v.conj().T @ psi0
        t = np.linspace(0.0, 2e5, 120)
        full = (np.exp(-1j * np.outer(t, w)) * coeff[None, :]) @ v.T
        even_cols = [j for j, (l, m) in enumerate(labels, start=2) if l % 2 == 0]
        cross = float(np.max(np.abs(full[:, even_cols])))
        assert cross < 1e-12


class TestCompareToAnalytics:
    def test_reference_point(self, antipodal_027):
        cmp = compare_to_analytics(_reference_cfg(), antipodal_027, 5e-4)
        assert cmp.relative_deviation < 0.15
        assert cmp.extracted_delta_omega == pytest.approx(
            abs(cmp.delta_omega_analytic), rel=0.05
        )

    def test_loss_sweep_stays_bounded(self, antipodal_027):
        cfg = _reference_cfg()
        for alpha in (1e-4, 1e-3, 3e-3, 1e-2):
            cmp = compare_to_analytics(cfg, antipodal_027, alpha)
            err_num = 1.0 - cmp.F_numeric
            err_ana = min(1.0 - cmp.F_analytic, 0.5)  # 0.5 is the physical ceiling
            assert math.isfinite(err_num)
            assert err_num <= 0.5 + 1e-3
            assert abs(err_num - err_ana) <= 0.015 + 0.35 * err_ana

    def test_detuning_u_shape(self, antipodal_027):
        errs = {}
        for dnu in (-0.45, 0.0, 0.45):
            cfg = LensConfig(radius=radius_for_order(20.5 + dnu))
            cmp = compare_to_analytics(cfg, antipodal_027, 5e-4)
            errs[dnu] = 1.0 - cmp.F_numeric
        assert errs[-0.45] > 2.0 * errs[0.0]
        assert errs[0.45] > 2.0 * errs[0.0]

    def test_requires_antipodal_atoms(self):
        from fisheye.lens import DiskPoint

        atoms = AtomPairConfig(DiskPoint(0.3, 0.0), DiskPoint(0.4, math.pi))
        with pytest.raises(DomainError):
            compare_to_analytics(_reference_cfg(), atoms, 5e-4)
