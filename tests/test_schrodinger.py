import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from fisheye import cli, schrodinger
from fisheye.errors import DomainError, EigensolveError
from fisheye.lens import OMEGA0, LensConfig, radius_for_order, stereo_theta
from fisheye.qed import AtomPairConfig, coupling_rates
from fisheye.schrodinger import (
    DEFAULT_GAMMA0,
    build_blocks,
    compare_to_analytics,
    evolve,
    _ModeRows,
    _SecularSolver,
    _full_state,
    _phase_sum,
)
from fisheye.specfun import legendre_poly_table


def _block_spectra(block, kappas):
    """Spectrum of one block at each loss kappa, as the simulator's one-call solve gives it."""
    return schrodinger._spectra([(block, kappas)])[0]


def _reference_cfg(nu_re=20.5, alpha=0.0):
    return LensConfig(radius=radius_for_order(nu_re), alpha=alpha)


def _compare(cfg, atoms, alpha):
    """compare_to_analytics at cfg with loss ratio alpha, given the closed-form rates there."""
    cfg = replace(cfg, alpha=alpha)
    return compare_to_analytics(cfg, atoms, coupling_rates(cfg, atoms))


def _time_grid(cfg, atoms, alpha, n=2000):
    rates = coupling_rates(
        LensConfig(radius=cfg.radius, b=cfg.b, alpha=alpha), atoms
    )
    dw = abs(rates.delta_omega) * DEFAULT_GAMMA0
    return np.linspace(0.0, 3.0 * math.pi / dw, n), rates


def _expm_states(h, dt, n):
    """exp(-i H k dt)|0>, k = 0 .. n-1, by stepping with one matrix exponential."""
    step = expm(-1j * h * dt)
    psi = np.zeros(len(h), dtype=complex)
    psi[0] = 1.0
    out = np.empty((n, len(h)), dtype=complex)
    for k in range(n):
        out[k] = psi
        psi = step @ psi
    return out


def _expm_norm(blocks, kappa, t):
    dt = t[-1] / (len(t) - 1)
    psi_o, psi_e = (_expm_states(b.hamiltonian(kappa), dt, len(t)) for b in blocks)
    return np.sqrt(
        0.5 * (np.sum(np.abs(psi_o) ** 2, axis=1) + np.sum(np.abs(psi_e) ** 2, axis=1))
    )


class TestBuildBlocks:
    def test_coupling_matches_both_printed_forms(self, monkeypatch):
        # G_l^2 = prefactor (2l+1) sqrt(l(l+1)) [1 - P_l(cos(pi-2theta))]/(4pi)
        #       = 2 g_l^2 N_l^2 with N_l^2 = (2l+1)[1 - P_l(cos(pi-2theta))]/(8pi)
        cfg = _reference_cfg()
        theta = stereo_theta(0.27)
        g0 = DEFAULT_GAMMA0
        monkeypatch.setattr(schrodinger, "EDGE_TAPER", 0.0)
        bo, be = build_blocks(cfg, theta, l_max=30)
        c0sq = 3.0 * math.pi * g0 / (OMEGA0**3 * cfg.b * cfg.radius**2)
        for block in (bo, be):
            for l, coupling in zip(block.l.tolist(), block.coupling.tolist()):
                pl = legendre_poly_table(l, math.cos(math.pi - 2.0 * theta))[l]
                direct = c0sq / cfg.radius * (2 * l + 1) * math.sqrt(l * (l + 1.0)) * (1.0 - pl) / (4.0 * math.pi)
                g_sq = c0sq * math.sqrt(l * (l + 1.0)) / cfg.radius
                n_sq = (2 * l + 1) * (1.0 - pl) / (8.0 * math.pi)
                assert coupling**2 == pytest.approx(direct, rel=1e-12)
                assert coupling**2 == pytest.approx(2.0 * g_sq * n_sq, rel=1e-12)

    # each tapered ladder has a window value whose libm pow(x, 2) differs from x * x
    @pytest.mark.parametrize("edge_taper, l_max", [(0.0, 365), (0.1, 273), (0.25, 75), (0.5, 251), (0.9, 66)])
    def test_arrays_equal_the_per_mode_formula(self, monkeypatch, edge_taper, l_max):
        # the array build reproduces the scalar formula of the docstring bit
        # for bit, the cos^2 window included
        cfg = LensConfig(radius=14.48)
        theta = stereo_theta(0.27)
        kappa = 2e-3
        monkeypatch.setattr(schrodinger, "EDGE_TAPER", edge_taper)
        blocks = build_blocks(cfg, theta, l_max=l_max)
        l_roll = l_max * (1.0 - edge_taper)
        pl = legendre_poly_table(l_max, math.cos(math.pi - 2.0 * theta))
        c0sq = 3.0 * math.pi * DEFAULT_GAMMA0 / (OMEGA0**3 * cfg.b * (cfg.radius * cfg.n0) ** 2)
        for block, first in zip(blocks, (1, 2)):
            assert block.l.tolist() == list(range(first, l_max + 1, 2))
            assert block.dim == 1 + block.l.size
            for l, detuning, coupling in zip(block.l.tolist(), block.detuning.tolist(), block.coupling.tolist()):
                w_l = math.sqrt(l * (l + 1.0)) / (cfg.radius * cfg.n0)
                g_sq = c0sq * w_l * (2 * l + 1) * max(0.0, 1.0 - pl[l]) / (4.0 * math.pi)
                window = 1.0
                if edge_taper > 0.0 and l > l_roll:
                    window = math.cos(0.5 * math.pi * (l - l_roll) / (l_max - l_roll)) ** 2
                assert detuning == w_l - OMEGA0
                assert coupling == window * math.sqrt(g_sq)
            diag, border = block.arrowhead(kappa)
            assert border is block.coupling
            assert np.array_equal(diag, block.detuning - 1j * kappa)

    def test_mirror_atoms_decouple(self):
        bo, be = build_blocks(_reference_cfg(), math.pi / 2.0, l_max=20)
        assert bo.coupling.size + be.coupling.size == 20
        assert np.all(bo.coupling == 0.0) and np.all(be.coupling == 0.0)

    def test_parity_split(self):
        bo, be = build_blocks(_reference_cfg(), stereo_theta(0.27), l_max=10)
        assert bo.l.tolist() == [1, 3, 5, 7, 9]
        assert be.l.tolist() == [2, 4, 6, 8, 10]
        assert bo.parity == "odd" and be.parity == "even"

    def test_empty_range_rejected(self):
        for l_max in (0, -2):
            with pytest.raises(DomainError, match=f"l_max must be at least 1, got {l_max}"):
                build_blocks(_reference_cfg(), 2.0, l_max=l_max)

    def test_detuning_is_mode_frequency_minus_omega0(self):
        cfg = _reference_cfg()
        bo, _ = build_blocks(cfg, 2.0, l_max=5)
        for l, detuning in zip(bo.l.tolist(), bo.detuning.tolist()):
            want = math.sqrt(l * (l + 1.0)) / cfg.radius - OMEGA0
            assert detuning == pytest.approx(want, rel=1e-14)

    def test_hamiltonian_shape(self):
        bo, _ = build_blocks(_reference_cfg(), 2.0, l_max=8)
        h = bo.hamiltonian(0.01)
        assert h.shape == (bo.dim, bo.dim)
        assert h[1, 1] == pytest.approx(bo.detuning[0] - 0.01j)
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
        blocks = build_blocks(cfg, stereo_theta(0.27))
        sim = evolve(blocks, cfg.kappa, t)
        assert np.all(np.diff(sim.state_norm) <= 1e-10)
        assert abs(sim.amp_a[-1]) ** 2 + abs(sim.amp_b[-1]) ** 2 < 5e-3

    def test_truncation_convergence_on_doubling(self, antipodal_027):
        cfg = _reference_cfg()
        t, _ = _time_grid(cfg, antipodal_027, 0.0)
        theta = stereo_theta(0.27)
        extracted = []
        for fac in (4, 8):
            sim = evolve(build_blocks(cfg, theta, l_max=fac * 21), 0.0, t)
            extracted.append(sim.extracted_delta_omega)
        assert abs(extracted[1] - extracted[0]) / extracted[1] < 0.01


class TestAtomicRow:
    """evolve forms only the atomic amplitude of each block; the full state
    behind state_norm is built on demand."""

    @pytest.mark.parametrize("alpha", [0.0, 1e-4, 1e-3, 1e-2])
    def test_matches_column_zero_of_full_state(self, antipodal_027, alpha):
        # R0 = 14.48 gives two blocks of dim 183; at alpha = 1e-3 about 2% of
        # the decaying phases exp(-i z t) are subnormal floats.  Both the row
        # and the full state follow expm stepping to 1e-9 (the worst of the
        # eight blocks is 4.4e-10, the phase error ~ eps ||H|| t of either side)
        cfg = LensConfig(radius=14.48, alpha=alpha)
        t, _ = _time_grid(cfg, antipodal_027, alpha)
        dt = t[-1] / (len(t) - 1)
        kappa = alpha * OMEGA0
        for block in build_blocks(cfg, stereo_theta(0.27)):
            z, res, weights = _block_spectra(block, [kappa])[0]
            atomic, full = _phase_sum(z, res, [dt], len(t), [z.size])[0], _full_state(z, weights, dt, len(t))
            assert float(np.max(np.abs(atomic - full[:, 0]))) <= 1e-13
            ref = _expm_states(block.hamiltonian(kappa), dt, len(t))
            assert float(np.max(np.abs(atomic - ref[:, 0]))) <= 1e-9
            assert float(np.max(np.abs(full - ref))) <= 1e-9

    @pytest.mark.parametrize("alpha", [0.0, 1e-3])
    @pytest.mark.parametrize("n_times", [64, 2000, 100_000])
    def test_power_tables_within_their_bound(self, antipodal_027, n_times, alpha):
        # _phase_sum's tables are powers of exp(-i z dt) and exp(-i z B dt); against tables of
        # one np.exp per entry the sums differ by at most 2.6 B EPS sum|w| (measured, lossless at
        # 64 samples).  The entries themselves differ by up to ~EPS |z| t, the rounding of the
        # exponent of either side, on the far-detuned modes, whose weights are small
        cfg = LensConfig(radius=14.48, alpha=alpha)
        t, _ = _time_grid(cfg, antipodal_027, alpha, n=n_times)
        dt, kappa = t[-1] / (n_times - 1), alpha * OMEGA0
        n_inner = math.isqrt(n_times - 1) + 1
        n_outer = -(-n_times // n_inner)
        for block in build_blocks(cfg, stereo_theta(0.27)):
            z, res, _ = _block_spectra(block, [kappa])[0]
            inner = np.exp(-1j * dt * (np.arange(n_inner)[:, None] * z))
            outer = np.exp(-1j * (n_inner * dt) * (np.arange(n_outer)[:, None] * z))
            want = ((outer * res) @ inner.T).reshape(-1)[:n_times]
            got = _phase_sum(z, res, [dt], n_times, [z.size])
            assert got.shape == (1, n_times)
            bound = 8.0 * n_inner * schrodinger.EPS * float(np.abs(res).sum())
            assert float(np.max(np.abs(got[0] - want))) <= bound
            if alpha and n_times > 64:
                # some decaying phases are subnormal floats (at 64 samples they step past that range)
                assert np.any((np.abs(outer) > 0.0) & (np.abs(outer) < np.finfo(float).tiny))

    @pytest.mark.parametrize("alpha", [0.0, 3e-3])
    def test_state_norm_on_demand_matches_eager_norm(self, antipodal_027, alpha):
        cfg = _reference_cfg(alpha=alpha)
        t, _ = _time_grid(cfg, antipodal_027, alpha, n=800)
        blocks = build_blocks(cfg, stereo_theta(0.27))
        sim = evolve(blocks, cfg.kappa, t)
        unread = pickle.loads(pickle.dumps(sim))
        norm = sim.state_norm
        assert norm is sim.state_norm  # built once, then cached
        assert float(np.max(np.abs(norm - _expm_norm(blocks, cfg.kappa, t)))) <= 1e-9
        assert np.array_equal(unread.state_norm, norm)

    def test_compare_to_analytics_never_builds_full_state(self, monkeypatch, tmp_path, antipodal_027):
        def refuse(what):
            def call(*args):
                raise AssertionError(f"{what} built")

            return call

        full_state = schrodinger._full_state
        monkeypatch.setattr(schrodinger, "_full_state", refuse("full state"))
        monkeypatch.setattr(schrodinger, "_secular_weights", refuse("weight matrix"))
        cmp = _compare(_reference_cfg(), antipodal_027, 5e-4)
        assert cmp.relative_deviation < 0.15
        out = tmp_path / "out.csv"
        assert cli.main(["dynamics", "--simulate", "--samples", "50", "--out", str(out)]) == 0
        argv = ["fidelity", "--mode", "vs-loss", "--simulate", "--samples", "2", "--radii", "3.34"]
        assert cli.main(argv + ["--out", str(out)]) == 0
        # both patches are on the path state_norm takes
        cfg = _reference_cfg(nu_re=5.5)
        blocks = build_blocks(cfg, stereo_theta(0.3), l_max=12)
        sim = evolve(blocks, 0.0, np.linspace(0.0, 40.0, 60))
        with pytest.raises(AssertionError, match="full state built"):
            sim.state_norm
        monkeypatch.setattr(schrodinger, "_full_state", full_state)
        sim = evolve(blocks, 0.0, np.linspace(0.0, 40.0, 60))
        with pytest.raises(AssertionError, match="weight matrix built"):
            sim.state_norm


class TestSecularSpectrum:
    """Roots and residues of each block from its secular equation, with the
    dense eigensolver as the one fallback."""

    @pytest.mark.parametrize("alpha", [0.0, 1e-4, 1e-3, 1e-2])
    # the fidelity radii, then each centre at dnu = -+0.49, next to resonance, where the guess is hardest
    @pytest.mark.parametrize("r0", [1.749, 3.34, 8.11, 14.48] + [radius_for_order(centre + dnu) for centre in
                                                                 (10.5, 20.5, 50.5, 90.5) for dnu in (-0.49, 0.49)])
    def test_roots_and_residues_match_eig(self, r0, alpha):
        kappa = alpha * OMEGA0
        for block in build_blocks(LensConfig(radius=r0, alpha=alpha), stereo_theta(0.27)):
            z, res, weights = _SecularSolver(*block.arrowhead(kappa)).spectrum(0.0)
            h = block.hamiltonian(kappa)
            w, v = np.linalg.eig(h)
            # eig's vectors err by ~ EPS ||H|| / gap, 7e-12 at dnu = -0.49 (gap 3.7e-3): one
            # inverse-iteration step sharpens those of close pairs to the 1e-12 asked below
            gap = np.sort(np.abs(w[:, None] - w[None, :]), axis=1)[:, 1]
            for k in np.flatnonzero(gap < 0.1).tolist():
                v[:, k] = np.linalg.solve(h - w[k] * np.eye(len(w)), v[:, k])
            residues = v[0] * np.linalg.solve(v, np.eye(len(w))[:, 0])
            match = np.argmin(np.abs(z[:, None] - w[None, :]), axis=1)
            assert sorted(match) == list(range(len(w)))  # one eigenvalue per root
            assert float(np.max(np.abs(z - w[match]))) <= 1e-12 * float(np.max(np.abs(w)))
            assert float(np.max(np.abs(res - residues[match]))) <= 1e-12
            assert abs(res.sum() - 1.0) <= 1e-12
            full = weights()
            assert np.array_equal(full[:, 0], res)
            # eigenvector k of H, scaled by its residue: W[k] = res_k x_k
            vec = v[:, match].T * (residues[match] / v[0, match])[:, None]
            assert float(np.max(np.abs(full - vec))) <= 1e-12 * float(np.max(np.abs(vec)))

    def test_deflated_top_mode_has_zero_weight(self):
        # the top mode of every even block sits under a cos^2 window of 3.7e-33
        kappa = 1e-3 * OMEGA0
        _, even = build_blocks(LensConfig(radius=3.34), stereo_theta(0.27))
        diag, border = even.arrowhead(kappa)
        assert border[-1] ** 2 <= schrodinger.DEFLATION_TOL * float(np.max(border**2))
        z, res, build = _SecularSolver(diag, border).spectrum(0.0)
        weights = build()
        assert np.all(np.isfinite(z)) and np.all(np.isfinite(weights))
        assert z[-1] == diag[-1]
        assert res[-1] == 0.0 and np.array_equal(weights[:, 0], res)
        assert np.all(weights[-1] == 0.0) and np.all(weights[:, -1] == 0.0)

    def test_coincident_roots_take_the_eig_path(self):
        # two coupled modes on one pole share a root there, so the distinct-
        # root check fails and the dense eigensolver evolves the block
        block = schrodinger.BlockModel(
            "odd", np.arange(1, 5), np.array([-0.3, 0.1, 0.1, 0.5]), np.array([0.02, 0.03, 0.01, 0.02])
        )
        with pytest.raises(EigensolveError, match="distinct roots: False"):
            _SecularSolver(*block.arrowhead(1e-3)).spectrum(0.0)
        z, res, weights = _block_spectra(block, [1e-3])[0]
        ref = _expm_states(block.hamiltonian(1e-3), 5.0, 200)
        assert float(np.max(np.abs(_phase_sum(z, res, [5.0], 200, [z.size])[0] - ref[:, 0]))) <= 1e-12
        assert float(np.max(np.abs(_full_state(z, weights, 5.0, 200) - ref))) <= 1e-12

    def test_decoupled_atoms_stay_excited(self):
        # atoms on the mirror couple to no mode: every block is deflated
        blocks = build_blocks(_reference_cfg(), math.pi / 2.0, l_max=20)
        sim = evolve(blocks, 0.0, np.linspace(0.0, 1e5, 50))
        assert np.all(sim.amp_a == 1.0) and np.all(sim.amp_b == 0.0)
        assert np.all(sim.state_norm == 1.0)

    def test_lossless_norm_at_the_largest_radius(self, antipodal_027):
        cfg = LensConfig(radius=14.48)
        t, _ = _time_grid(cfg, antipodal_027, 0.0)
        sim = evolve(build_blocks(cfg, stereo_theta(0.27)), 0.0, t)
        assert float(np.max(np.abs(sim.state_norm - 1.0))) < 1e-10

    @pytest.mark.parametrize("alpha", [0.0, 5e-4])
    def test_near_resonant_block_matches_expm(self, alpha):
        # Re nu = 30.99: the l = 31 mode sits 2e-3 from the atom, its coupling
        # 2.3e-3, so the atom-like root and that mode's root are strongly mixed.
        # Whichever path _block_spectra takes, the state must follow expm
        cfg = LensConfig(radius=radius_for_order(30.99), alpha=alpha)
        kappa = alpha * OMEGA0
        dt, n = 2e3, 300
        for block in build_blocks(cfg, stereo_theta(0.27)):
            z, res, weights = _block_spectra(block, [kappa])[0]
            ref = _expm_states(block.hamiltonian(kappa), dt, n)
            assert float(np.max(np.abs(_phase_sum(z, res, [dt], n, [z.size])[0] - ref[:, 0]))) <= 1e-9
            assert float(np.max(np.abs(_full_state(z, weights, dt, n) - ref))) <= 1e-8

    @pytest.mark.parametrize(
        "grid",
        [
            np.geomspace(1.0, 1e4, 50) - 1.0,  # starts at 0, not uniform
            np.linspace(1.0, 100.0, 50),  # uniform, not from 0
            np.linspace(0.0, -100.0, 50),  # decreasing
            np.linspace(0.0, 100.0, 50) + np.r_[0.0, 1e-9, np.zeros(48)],  # one point off
            np.zeros(10),
        ],
    )
    def test_non_uniform_grid_rejected(self, grid):
        blocks = build_blocks(_reference_cfg(nu_re=5.5), stereo_theta(0.3), l_max=12)
        with pytest.raises(DomainError, match="uniform"):
            evolve(blocks, 0.0, grid)

    def test_rescaled_linspace_grid_accepted(self):
        # dynamics passes np.linspace(0, T, n) / gamma0, uniform to a few ulps
        blocks = build_blocks(_reference_cfg(nu_re=5.5), stereo_theta(0.3), l_max=12)
        t = np.linspace(0.0, 3.0 * math.pi / 0.0123, 2000) / DEFAULT_GAMMA0
        sim = evolve(blocks, 0.0, t)
        assert np.array_equal(sim.times, t * DEFAULT_GAMMA0)

    @pytest.mark.parametrize(
        "check, value, kappa",
        [
            (check, value, kappa)
            for kappa in (0.01, 0.0)  # the lossless fallback is eig too
            for check, value in (
                ("SECULAR_MAX_ITER", 0),
                ("SECULAR_RESIDUAL_TOL", -1.0),
                ("RESIDUE_SUM_TOL", -1.0),
                ("ROOT_SEPARATION_TOL", math.inf),
            )
        ],
        ids=[
            name + suffix
            for suffix in ("", ", lossless")
            for name in ("newton cap", "secular residual", "residue sum", "root separation")
        ],
    )
    def test_failed_secular_check_takes_the_eig_path(self, monkeypatch, check, value, kappa):
        cfg = _reference_cfg(nu_re=5.5)
        blocks = build_blocks(cfg, stereo_theta(0.3), l_max=12)
        t = np.linspace(0.0, 40.0, 60)
        secular = evolve(blocks, kappa, t)
        calls = []
        dense = schrodinger._dense_spectrum

        def counting(*args, **kwargs):
            calls.append(1)
            return dense(*args, **kwargs)

        monkeypatch.setattr(schrodinger, "_dense_spectrum", counting)
        monkeypatch.setattr(schrodinger, check, value)
        fallback = evolve(blocks, kappa, t)
        assert len(calls) == 2  # one per parity block
        assert float(np.max(np.abs(fallback.amp_a - secular.amp_a))) < 1e-10
        assert float(np.max(np.abs(fallback.amp_b - secular.amp_b))) < 1e-10
        assert float(np.max(np.abs(fallback.state_norm - secular.state_norm))) < 1e-10
        assert np.array_equal(pickle.loads(pickle.dumps(fallback)).state_norm, fallback.state_norm)

    def test_one_failing_loss_alone_takes_the_eig_path(self, monkeypatch):
        # the loss group is one Newton, but each loss keeps its own checks and fallback
        block = build_blocks(LensConfig(radius=3.34), stereo_theta(0.27))[0]
        kappas = [a * OMEGA0 for a in (1e-4, 1e-3, 1e-2)]
        secular = _block_spectra(block, kappas)
        distinct, dense, checked, eig_calls = schrodinger._distinct_roots, schrodinger._dense_spectrum, [], []

        def second_loss_fails(z):
            checked.append(z)
            return distinct(z) and len(checked) != 2

        def counting(h):
            eig_calls.append(h)
            return dense(h)

        monkeypatch.setattr(schrodinger, "_distinct_roots", second_loss_fails)
        monkeypatch.setattr(schrodinger, "_dense_spectrum", counting)
        mixed = _block_spectra(block, kappas)
        assert len(checked) == 3 and len(eig_calls) == 1
        assert np.array_equal(eig_calls[0], block.hamiltonian(kappas[1]))
        eig_z, eig_res, eig_weights = dense(block.hamiltonian(kappas[1]))
        assert np.array_equal(mixed[1][0], eig_z) and np.array_equal(mixed[1][1], eig_res)
        assert np.array_equal(mixed[1][2](), eig_weights())
        for k in (0, 2):
            for got, want in zip(mixed[k][:2], secular[k][:2]):
                assert np.array_equal(_bits(got), _bits(want))
            assert np.array_equal(_bits(mixed[k][2]()), _bits(secular[k][2]()))

    @pytest.mark.parametrize("failure", ["eig raises", "residual check fails"])
    def test_failed_eig_raises_eigensolve_error(self, monkeypatch, tmp_path, capsys, failure):
        def broken_eig(h):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(schrodinger, "SECULAR_RESIDUAL_TOL", -1.0)
        if failure == "eig raises":
            monkeypatch.setattr(schrodinger.np.linalg, "eig", broken_eig)
        else:
            monkeypatch.setattr(schrodinger, "RESIDUAL_TOL", -1.0)
        kappa = 0.01
        blocks = build_blocks(_reference_cfg(nu_re=5.5), stereo_theta(0.3), l_max=12)
        with pytest.raises(EigensolveError):
            evolve(blocks, kappa, np.linspace(0.0, 40.0, 60))
        out = tmp_path / "dyn.csv"
        assert cli.main(["dynamics", "--simulate", "--samples", "50", "--out", str(out)]) == 3
        assert "non-convergence" in capsys.readouterr().err
        assert not out.exists()


def _distinct_all_pairs(z):
    """The O(n^2) reference: the least distance over all pairs against ROOT_SEPARATION_TOL * max|z|."""
    with np.errstate(all="ignore"):
        sep = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(sep, np.inf)
        return bool(sep.min() > schrodinger.ROOT_SEPARATION_TOL * np.abs(z).max())


class TestDistinctRoots:
    """The sorted window scan of the secular solve decides as the all-pairs check does."""

    @staticmethod
    def _roots(rng, n=60):
        # lossy spectrum: real parts spread over a few units, small negative imaginary parts
        return rng.uniform(-3.0, 3.0, n) - 1j * rng.uniform(0.0, 1e-2, n)

    @pytest.mark.parametrize("angle", [0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4])
    @pytest.mark.parametrize("factor", [0.5, 0.999999, 1.0, 1.000001, 1.5, 1.999999, 2.0, 2.000001, 4.0])
    def test_pair_just_inside_and_outside_the_tolerance(self, rng, angle, factor):
        z = self._roots(rng)
        z[0] = 5.0  # fixes max|z|, so the added root leaves the limit as it is
        limit = schrodinger.ROOT_SEPARATION_TOL * 5.0
        z[-1] = z[7] + factor * limit * complex(math.cos(angle), math.sin(angle))
        got = schrodinger._distinct_roots(z)
        assert got == _distinct_all_pairs(z)
        if factor < 0.9:
            assert not got
        if factor > 1.1:
            assert got

    def test_pair_exactly_at_the_tolerance_is_not_distinct(self, rng):
        # a separation of exactly the limit (formed without rounding) counts as coincident
        z = self._roots(rng)
        z[0] = 5.0
        limit = schrodinger.ROOT_SEPARATION_TOL * 5.0
        z[7] = z[7].real
        z[-1] = complex(z[7].real, limit)
        assert abs(z[-1] - z[7]) == limit
        assert not schrodinger._distinct_roots(z)
        assert not _distinct_all_pairs(z)

    @pytest.mark.parametrize("imag_gap", [1e-3, 0.0])
    def test_close_pair_with_a_third_root_between_them_in_real_order(self, rng, imag_gap):
        z = self._roots(rng)
        z[0] = 5.0
        limit = schrodinger.ROOT_SEPARATION_TOL * 5.0
        base = z[11]
        z[-1] = base + 0.6 * limit                      # close to z[11], right of it
        z[-2] = base + 0.3 * limit - 1j * imag_gap      # between them in real part
        order = np.argsort(z.real, kind="stable")
        where = {int(j): k for k, j in enumerate(order)}
        assert where[11] < where[z.size - 2] < where[z.size - 1]
        assert not schrodinger._distinct_roots(z)
        assert not _distinct_all_pairs(z)

    def test_clusters_of_equal_real_parts(self, rng):
        for _ in range(200):
            z = self._roots(rng, 30)
            limit = schrodinger.ROOT_SEPARATION_TOL * float(np.abs(z).max())
            for j in rng.integers(0, z.size, 4):
                # a stack of roots on one real part, 0.5 to 2.5 limits apart
                z[rng.integers(0, z.size, 3)] = z[j].real + 1j * (z[j].imag + limit * rng.uniform(0.5, 2.5, 3))
            assert schrodinger._distinct_roots(z) == _distinct_all_pairs(z)

    def test_secular_spectra(self):
        # the roots of the simulated radii's blocks (183 rows each at R0 = 14.48)
        for radius in (1.749, 3.34, 8.11, 14.48):
            for block in build_blocks(LensConfig(radius=radius), stereo_theta(0.27)):
                z, _, _ = _SecularSolver(*block.arrowhead(1e-3 * OMEGA0)).spectrum(0.0)
                assert schrodinger._distinct_roots(z) and _distinct_all_pairs(z)

    @pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(1.0, float("-inf"))])
    def test_a_root_that_is_not_finite_is_never_distinct(self, rng, bad):
        z = self._roots(rng)
        z[3] = bad
        assert not schrodinger._distinct_roots(z)
        assert not _distinct_all_pairs(z)


class TestFullBasisCrossCheck:
    """Validate the parity-reduced collective-mode blocks against the raw
    (l, m) single-excitation Hamiltonian built directly from the mode
    functions (no collective-mode reduction)."""

    def test_block_reduction_reproduces_full_dynamics(self, monkeypatch, full_basis_hamiltonian):
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
        monkeypatch.setattr(schrodinger, "EDGE_TAPER", 0.0)
        blocks = build_blocks(cfg, stereo_theta(rho), l_max=22)
        sim = evolve(blocks, 0.0, t)
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
        cmp = _compare(_reference_cfg(), antipodal_027, 5e-4)
        assert cmp.relative_deviation < 0.15
        assert cmp.extracted_delta_omega == pytest.approx(
            abs(cmp.rates.delta_omega), rel=0.05
        )

    def test_loss_sweep_stays_bounded(self, antipodal_027):
        cfg = _reference_cfg()
        for alpha in (1e-4, 1e-3, 3e-3, 1e-2):
            cmp = _compare(cfg, antipodal_027, alpha)
            err_num = 1.0 - cmp.F_numeric
            err_ana = min(1.0 - cmp.F_analytic, 0.5)  # 0.5 is the physical ceiling
            assert math.isfinite(err_num)
            assert err_num <= 0.5 + 1e-3
            assert abs(err_num - err_ana) <= 0.015 + 0.35 * err_ana

    def test_detuning_u_shape(self, antipodal_027):
        errs = {}
        for dnu in (-0.45, 0.0, 0.45):
            cfg = LensConfig(radius=radius_for_order(20.5 + dnu))
            cmp = _compare(cfg, antipodal_027, 5e-4)
            errs[dnu] = 1.0 - cmp.F_numeric
        assert errs[-0.45] > 2.0 * errs[0.0]
        assert errs[0.45] > 2.0 * errs[0.0]

    def test_requires_antipodal_atoms(self):
        from fisheye.lens import DiskPoint

        atoms = AtomPairConfig(DiskPoint(0.3, 0.0), DiskPoint(0.4, math.pi))
        with pytest.raises(DomainError):
            _compare(_reference_cfg(), atoms, 5e-4)


def _bits(a):
    """The raw bits of a float or complex array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


class TestSharedSecularData:
    """compare_losses forms each block's loss-independent secular data once
    (_SecularSolver); every loss must still get the spectrum its own solve gives."""

    KAPPAS = [a * OMEGA0 for a in np.logspace(-4, -2, 5).tolist()]

    @pytest.mark.parametrize("r0", [1.749, 3.34, 8.11, 14.48])
    def test_per_radius_solve_equals_per_point_solve_bit_for_bit(self, r0):
        for block in build_blocks(LensConfig(radius=r0), stereo_theta(0.27)):
            shared = _block_spectra(block, self.KAPPAS)
            # in reverse order every loss meets work arrays another loss left
            reverse = _block_spectra(block, self.KAPPAS[::-1])[::-1]
            for kappa, (z, res, _), (z_rev, res_rev, _) in zip(self.KAPPAS, shared, reverse):
                z_one, res_one, _ = _SecularSolver(*block.arrowhead(kappa)).spectrum(0.0)
                for got_z, got_res in ((z, res), (z_rev, res_rev)):
                    assert np.array_equal(_bits(got_z), _bits(z_one))
                    assert np.array_equal(_bits(got_res), _bits(res_one))

    def test_lossless_block_and_weights_bit_for_bit(self):
        for block in build_blocks(LensConfig(radius=3.34), stereo_theta(0.27)):
            shared = _block_spectra(block, [0.0, self.KAPPAS[2], 0.0])
            z_one, res_one, weights_one = _SecularSolver(*block.arrowhead(0.0)).spectrum(0.0)
            for k in (0, 2):
                z, res, weights = shared[k]
                assert np.array_equal(_bits(z), _bits(z_one))
                assert np.array_equal(_bits(res), _bits(res_one))
                assert np.array_equal(_bits(weights()), _bits(weights_one()))
            lossy = _SecularSolver(*block.arrowhead(self.KAPPAS[2])).spectrum(0.0)[2]
            assert np.array_equal(_bits(shared[1][2]()), _bits(lossy()))

    def test_compare_losses_is_the_per_point_comparison(self, antipodal_027, monkeypatch):
        # a mixed list: 3.34 (blocks of 42 modes), 1.749 (22) and 14.48 (182) at
        # two losses each, and 3.34 on a thinner disk; each lossless lens builds
        # its blocks once
        cfgs = [LensConfig(radius=3.34, alpha=1e-4), LensConfig(radius=1.749, alpha=1e-3),
                LensConfig(radius=3.34, alpha=1e-2), LensConfig(radius=14.48, alpha=1e-4),
                LensConfig(radius=14.48, alpha=1e-2), LensConfig(radius=1.749, alpha=1e-4),
                LensConfig(radius=3.34, b=0.12, alpha=1e-3)]
        rates = [coupling_rates(cfg, antipodal_027) for cfg in cfgs]
        built = []
        build = schrodinger._build_blocks

        def counted(cfg, *args, **kwargs):
            built.append((cfg.radius, cfg.n0, cfg.b))
            return build(cfg, *args, **kwargs)

        monkeypatch.setattr(schrodinger, "_build_blocks", counted)
        swept = schrodinger.compare_losses(cfgs, antipodal_027, rates)
        assert built == [(3.34, 1.0, 0.1), (1.749, 1.0, 0.1), (14.48, 1.0, 0.1), (3.34, 1.0, 0.12)]
        monkeypatch.setattr(schrodinger, "_build_blocks", build)
        assert len(swept) == len(cfgs)
        for cfg, point, got in zip(cfgs, rates, swept):
            assert got.rates is point
            alone = compare_to_analytics(cfg, antipodal_027, point)
            assert got == alone
            assert np.array_equal(_bits(got.F_numeric), _bits(alone.F_numeric))
        with pytest.raises(DomainError, match="one CouplingRates per lens"):
            schrodinger.compare_losses(cfgs, antipodal_027, rates[:2])

    def test_stacked_solve_equals_each_block_alone(self):
        # blocks of 22, 42 and 182 modes (every even block's top mode is deflated), an empty block,
        # and Re nu = 30.99, whose odd block has a mode root beyond the series radius below
        # alpha = 1e-2, each at its own losses, in one solve whose mode rows run in one Newton
        radii = (1.749, 3.34, 14.48)
        blocks = [block for r0 in radii for block in build_blocks(LensConfig(radius=r0), stereo_theta(0.27))]
        blocks.append(build_blocks(LensConfig(radius=3.34), stereo_theta(0.27), l_max=1)[1])
        blocks += build_blocks(LensConfig(radius=radius_for_order(30.99)), stereo_theta(0.27))
        assert [block.l.size for block in blocks] == [22, 22, 42, 42, 182, 182, 0, 62, 62]
        solvers = [_SecularSolver(block.detuning, block.coupling) for block in blocks]
        assert [solver.rows.size - 1 for solver in solvers] == [22, 21, 42, 41, 182, 181, 0, 62, 61]
        kappas = [self.KAPPAS[k:] + self.KAPPAS[:k] for k in range(len(blocks))]
        stacked = schrodinger._secular_spectra(list(zip(solvers, kappas)))
        for block, losses, outs in zip(blocks, kappas, stacked):
            assert len(outs) == len(losses)
            for kappa, (z, res, weights) in zip(losses, outs):
                z_one, res_one, weights_one = _SecularSolver(*block.arrowhead(kappa)).spectrum(0.0)
                assert np.array_equal(_bits(z), _bits(z_one))
                assert np.array_equal(_bits(res), _bits(res_one))
                assert np.array_equal(_bits(weights()), _bits(weights_one()))

    def test_a_capped_mode_row_fails_only_its_loss(self, monkeypatch):
        # the stacked Newton reports a mode row still moving at its cap: only that row's block and
        # loss get the error (and so the eig fallback), every other spectrum keeps its bits
        blocks = [block for r0 in (1.749, 3.34) for block in build_blocks(LensConfig(radius=r0), stereo_theta(0.27))]
        solvers = [_SecularSolver(block.detuning, block.coupling) for block in blocks]
        kappas = self.KAPPAS[:3]
        want = schrodinger._secular_spectra([(solver, kappas) for solver in solvers])
        n = [solver.g2.size for solver in solvers]
        row = 3 * (n[0] + n[1]) + n[2] + 5  # mode row 5 of the third block at its second loss
        newton = schrodinger._newton

        def capped(terms, u):
            out = newton(terms, u)
            if u.size == 3 * sum(n):
                out[-1][row] = True
            return out

        monkeypatch.setattr(schrodinger, "_newton", capped)
        got = schrodinger._secular_spectra([(solver, kappas) for solver in solvers])
        for b, (outs, wants) in enumerate(zip(got, want)):
            for k, (out, spectrum) in enumerate(zip(outs, wants)):
                if (b, k) == (2, 1):
                    assert isinstance(out, EigensolveError) and "did not converge" in str(out)
                else:
                    assert np.array_equal(_bits(out[0]), _bits(spectrum[0]))
                    assert np.array_equal(_bits(out[1]), _bits(spectrum[1]))

    def test_passes_split_between_lens_groups(self, antipodal_027, monkeypatch):
        # a call of more than PASS_ROOTS roots runs several passes, each of whole lens groups,
        # and every point keeps the bits of the one-pass call
        cfgs = [LensConfig(radius=r0, alpha=alpha) for r0 in (3.34, 1.749, 14.48) for alpha in (1e-4, 1e-2)]
        rates = [coupling_rates(cfg, antipodal_027) for cfg in cfgs]
        whole = schrodinger.compare_losses(cfgs, antipodal_027, rates)
        observed, observe = [], schrodinger._observe

        def counted(spectra, *args):
            observed.append([point[0][0].size for point in spectra])
            return observe(spectra, *args)

        monkeypatch.setattr(schrodinger, "_observe", counted)
        monkeypatch.setattr(schrodinger, "PASS_ROOTS", 2 * (43 + 43) + 2 * (23 + 23))
        split = schrodinger.compare_losses(cfgs, antipodal_027, rates)
        assert observed == [[43, 43, 23, 23], [183, 183]]
        for got, want in zip(split, whole):
            assert got == want
            assert np.array_equal(_bits(got.F_numeric), _bits(want.F_numeric))

    def test_one_observation_and_one_mode_newton_per_call(self, monkeypatch, tmp_path):
        # default vs-detuning --simulate: 100 points of their own radius (200 blocks) in one
        # compare_losses call; every mode row of the call in one Newton, every point in one observation
        calls, newtons, observed = [], [], []
        compare, newton, mode_terms, observe = (schrodinger.compare_losses, schrodinger._newton,
                                                _ModeRows._mode_terms, schrodinger._observe)

        def counted_compare(*args, **kwargs):
            calls.append(len(args[0]))
            return compare(*args, **kwargs)

        def counted_newton(terms, u):
            newtons.append("atom")
            return newton(terms, u)

        def counted_mode_terms(self, *args):
            newtons[-1] = "modes"
            return mode_terms(self, *args)

        def counted_observe(spectra, *args):
            observed.append(len(spectra))
            return observe(spectra, *args)

        monkeypatch.setattr(schrodinger, "compare_losses", counted_compare)
        monkeypatch.setattr(schrodinger, "_newton", counted_newton)
        monkeypatch.setattr(_ModeRows, "_mode_terms", counted_mode_terms)
        monkeypatch.setattr(schrodinger, "_observe", counted_observe)
        out = tmp_path / "out.csv"
        assert cli.main(["fidelity", "--mode", "vs-detuning", "--simulate", "--out", str(out)]) == 0
        assert calls == [100] and observed == [100]
        assert newtons.count("modes") == 1 and newtons.count("atom") == 200
        del newtons[:], observed[:]
        assert cli.main(["dynamics", "--simulate", "--out", str(out)]) == 0
        assert observed == [1]
        assert newtons.count("modes") == 1 and newtons.count("atom") == 2

    def test_one_legendre_table_per_ladder(self, antipodal_027, monkeypatch):
        # as in a vs-detuning sweep: a radius of its own at every point, one l_max = 4 ceil(Re nu) per centre
        cfgs = [LensConfig(radius=radius_for_order(centre + dnu), alpha=5e-4)
                for centre in (10.5, 20.5) for dnu in (-0.4, 0.0, 0.4)]
        rates = [coupling_rates(cfg, antipodal_027) for cfg in cfgs]
        tables = []
        table = schrodinger.legendre_poly_table

        def counted(l_max, x):
            tables.append(l_max)
            return table(l_max, x)

        monkeypatch.setattr(schrodinger, "legendre_poly_table", counted)
        swept = schrodinger.compare_losses(cfgs, antipodal_027, rates)
        assert tables == [44, 84]
        monkeypatch.setattr(schrodinger, "legendre_poly_table", table)
        for cfg, point, got in zip(cfgs, rates, swept):
            assert got == compare_to_analytics(cfg, antipodal_027, point)


def _per_row_iterates(solver, kappa):
    """The Newton iterates of every row, from a loop that evaluates f on all rows at every pass.

    The rows take the solver's own terms (the atom row summed directly, the
    mode rows from _ModeRows._mode_terms).  Each row steps from the guess on its own
    and stops at the first iterate whose step is within SECULAR_STEP_TOL |u|
    + 4 EPS size / |f'|; a stopped row keeps its iterate.  Returns one list of
    iterates per row, the guess first.
    """
    base = np.concatenate(([0.0], solver.diag0 - 1j * kappa)).astype(complex)[solver.rows][None]
    atom_gaps = base[:, :1] - base[:, 1:]
    u_atom, u_modes = solver._guess(base, atom_gaps)
    u, modes, table = np.concatenate((u_atom, u_modes[0])), np.arange(solver.g2.size), _ModeRows([solver])
    iterates = [[x] for x in u.tolist()]
    moving = np.ones(u.size, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(schrodinger.SECULAR_MAX_ITER):
            rows = solver._direct_terms(atom_gaps, u[:1], u[:1]), table._mode_terms(base[0, 1:] + u[1:], u[1:], modes)
            f, fp, scale = (np.concatenate(parts) for parts in zip(*rows))
            step = f / fp
            moving &= ~(np.abs(step) <= schrodinger.SECULAR_STEP_TOL * np.abs(u) + 4.0 * schrodinger.EPS * scale / np.abs(fp))
            if not moving.any():
                return iterates
            u = np.where(moving, u - step, u)
            for j in np.flatnonzero(moving).tolist():
                iterates[j].append(u[j])
    raise AssertionError("the per-row loop did not converge")


class TestSecularSolveCost:
    """A secular solve holds no n^2 array per loss: the mode rows take the pull
    series, only the atom rows and the mode rows beyond the series radius are
    summed directly (O(n) each), and after the first evaluation only the rows
    whose step still misses its test are evaluated again."""

    CENTRES = (10.5, 20.5, 50.5, 90.5)
    # the fidelity radii at their half-integer centres and at dnu = +-0.45
    GRID = [(centre, dnu, alpha) for centre in CENTRES for dnu in (-0.45, 0.0, 0.45) for alpha in (1e-4, 5e-4, 1e-2)]

    def test_one_evaluation_fewer_than_the_full_step_loop(self, monkeypatch):
        direct, series = [], []
        direct_terms, mode_terms = _SecularSolver._direct_terms, _ModeRows._mode_terms

        def counted_direct(self, gaps, *args):
            direct.append(gaps.shape)
            return direct_terms(self, gaps, *args)

        def counted_series(self, z, u, j):
            series.append(j.tolist())
            return mode_terms(self, z, u, j)

        monkeypatch.setattr(_SecularSolver, "_direct_terms", counted_direct)
        monkeypatch.setattr(_ModeRows, "_mode_terms", counted_series)
        for centre, dnu, alpha in self.GRID:
            cfg = LensConfig(radius=radius_for_order(centre + dnu), alpha=alpha)
            for block in build_blocks(cfg, stereo_theta(0.27)):
                solver = _SecularSolver(block.detuning, block.coupling)
                n = solver.g2.size
                # the loss-independent data are O(n) numbers per row: moments, Horner rows, spread and reach
                assert max(np.size(value) for value in vars(solver).values()) < n * n
                iterates = _per_row_iterates(solver, cfg.kappa)
                direct.clear()
                series.clear()
                z, _, _ = solver.spectrum(cfg.kappa)
                # the series once on every mode row, then on each mode row per step it takes
                assert series[0] == list(range(n))
                assert sorted(j for call in series[1:] for j in call) == sorted(
                    j for j in range(n) for _ in iterates[1 + j][1:])
                # summed directly: the atom row at each of its iterates, and a mode row at each iterate beyond its reach
                reach = solver.bound[1]
                beyond = sum(abs(x) > reach[j] for j in range(n) for x in iterates[1 + j])
                assert all(cols == n for _, cols in direct)
                assert sum(rows for rows, _ in direct) == len(iterates[0]) + beyond
                assert len(iterates[0]) <= 3 and len(series) <= 3
                # the same iterates: each row returns its own first iterate that passed its step test
                base = np.concatenate(([0.0], block.detuning - 1j * cfg.kappa))[solver.rows]
                last = np.array([row[-1] for row in iterates])
                assert np.array_equal(_bits(z[solver.rows]), _bits(base + last))

    def test_guess_misses_the_step_test_on_at_most_two_rows(self):
        # the atom row and at most one mode row need a step, next to resonance and without loss too
        for centre in self.CENTRES:
            for dnu in (-0.49, -0.45, 0.0, 0.45, 0.49):
                for alpha in (0.0, 1e-4, 5e-4, 1e-2):
                    cfg = LensConfig(radius=radius_for_order(centre + dnu), alpha=alpha)
                    for block in build_blocks(cfg, stereo_theta(0.27)):
                        solver = _SecularSolver(block.detuning, block.coupling)
                        iterates = _per_row_iterates(solver, cfg.kappa)
                        assert sum(len(row) > 1 for row in iterates) <= 2, (centre, dnu, alpha, block.parity)

    def test_spectra_do_not_alias_the_buffer(self, antipodal_027):
        kappa = 1e-3 * OMEGA0
        block = build_blocks(LensConfig(radius=3.34), stereo_theta(0.27))[0]
        z, res, weights = _block_spectra(block, [kappa])[0]
        kept = z.copy(), res.copy(), weights()
        # later blocks as large, smaller and larger
        for r0 in (3.34, 1.749, 14.48, 3.34):
            for later in build_blocks(LensConfig(radius=r0), stereo_theta(0.27)):
                _block_spectra(later, [kappa, 0.0])
        for before, after in zip(kept, (z, res, weights())):
            assert np.array_equal(_bits(after), _bits(before))
        # the full state behind state_norm is built only when read: here after a later call
        blocks = build_blocks(_reference_cfg(nu_re=10.5), stereo_theta(0.27))
        t = np.linspace(0.0, 40.0, 60) / DEFAULT_GAMMA0
        norm = evolve(blocks, kappa, t).state_norm
        sim = evolve(blocks, kappa, t)
        evolve(build_blocks(LensConfig(radius=14.48), stereo_theta(0.27)), kappa, t)
        assert np.array_equal(_bits(sim.state_norm), _bits(norm))

    @pytest.mark.parametrize("kappa", [0.0, 1e-3])
    def test_real_pull_sums_equal_the_complex_quotient(self, kappa):
        # coincident detunings put a zero gap off the diagonal as well; the
        # larger blocks run numpy's pairwise sums over many complex terms
        blocks = [schrodinger.BlockModel("odd", np.arange(1, 6), np.array([-0.3, 0.1, 0.1, 0.5, -0.7]),
                                         np.array([0.02, 0.03, 0.01, 0.02, 0.04]))]
        blocks += build_blocks(LensConfig(radius=14.48), stereo_theta(0.27))
        for block in blocks:
            diag, border = block.arrowhead(kappa)
            solver = _SecularSolver(diag, border)
            modes = diag.astype(complex)[solver.rows[1:] - 1]  # the modes deflation keeps
            gaps = modes[:, None] - modes[None, :]
            pull = np.zeros_like(gaps)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(solver.g2, gaps, out=pull, where=gaps != 0.0)
            total = pull.sum(axis=1)
            assert np.array_equal(_bits(solver.moments[0]), _bits(total.real)) and not total.imag.any()

    def test_unequal_mode_losses_are_rejected(self):
        with pytest.raises(DomainError, match="one flat loss"):
            _SecularSolver(np.array([0.1 - 1e-3j, 0.2 - 2e-3j]), np.array([0.01, 0.02]))


class TestPullSeries:
    """The mode rows' pull series (_SecularSolver) against the direct row sum at every root."""

    @pytest.mark.parametrize("alpha", [0.0, 1e-4, 1e-2])
    # the fidelity radii, and Re nu = 30.99 and 50.01, where a mode root sits beyond the series radius
    @pytest.mark.parametrize("nu", [10.5, 20.5, 50.5, 90.5, 30.99, 50.01])
    def test_series_within_its_remainder_bound(self, nu, alpha):
        cfg = LensConfig(radius=radius_for_order(nu), alpha=alpha)
        order, eps = schrodinger.SERIES_ORDER, schrodinger.EPS
        beyond = {}
        for block in build_blocks(cfg, stereo_theta(0.27)):
            solver = _SecularSolver(block.detuning, block.coupling)
            z = solver.spectrum(cfg.kappa)[0][solver.rows[1:]]
            modes, g2, moments = solver.modes, solver.g2, solver.moments
            u = z - (modes - 1j * cfg.kappa)
            gaps = modes[:, None] - modes
            inv = 1.0 / (gaps + u[:, None])
            f_sum, fp_sum = z - inv @ g2, 1.0 + (inv * inv) @ g2
            scale, fp_scale = np.abs(z) + np.abs(inv) @ g2, 1.0 + np.abs(inv) ** 2 @ g2
            f_series = z - g2 / u - sum(moments[k] * (-u) ** k for k in range(order + 1))
            fp_series = 1.0 + g2 / u**2 + sum((k + 1) * moments[k + 1] * (-u) ** k for k in range(order + 1))
            spread = np.abs(1.0 / np.where(gaps == 0.0, np.inf, gaps)) @ g2
            gap = np.min(np.abs(gaps) + np.diag(np.full(modes.size, np.inf)), axis=1)
            r = np.abs(u) / gap
            f_bound = spread * r ** (order + 1) / (1.0 - r)
            fp_bound = spread * r ** (order + 1) * (order + 2 - (order + 1) * r) / (gap * (1.0 - r) ** 2)
            assert np.all(r < 0.01)
            # rounding: a few EPS of f's terms; f' is dominated by g^2 / u^2, formed from u^2 or 1 / u squared
            assert np.all(np.abs(f_series - f_sum) <= f_bound + 8.0 * eps * scale)
            assert np.all(np.abs(fp_series - fp_sum) <= fp_bound + 32.0 * eps * fp_scale)
            # the rows beyond the series radius are summed directly, bit for bit as _direct_terms sums them
            far = np.flatnonzero(r > schrodinger.SERIES_RADIUS)
            got = _ModeRows([solver])._mode_terms(z, u, np.arange(modes.size))
            want = solver._direct_terms(gaps[far], z[far], u[far])
            for got_part, want_part in zip(got, want):
                assert np.array_equal(_bits(got_part[far]), _bits(want_part))
            beyond[block.parity] = far.size
        lossy = alpha >= 1e-2
        assert beyond == {"odd": int(nu == 30.99 and not lossy), "even": int(nu == 50.01 and not lossy)}


def _expm_reference(cfg, atoms, n=600, fine=2000):
    """Largest Bell fidelity and exchange rate from the first pop1 = pop2 crossing, from expm alone.

    On [0, 3 pi / |delta_omega|] a grid of n times stepped with expm(-i H dt)
    brackets every local maximum of either branch and the first sign change
    of pop1 - pop2.  Each bracket is stepped again with expm(-i H dt / fine);
    a peak is the vertex of the parabola through the best fine sample and its
    neighbours, the crossing the linear interpolation of its fine sign change.
    """
    rates = coupling_rates(cfg, atoms)
    hs = [b.hamiltonian(cfg.kappa) for b in build_blocks(cfg, stereo_theta(atoms.p1.rho))]
    t_end = 3.0 * math.pi / (abs(rates.delta_omega) * DEFAULT_GAMMA0)
    dt = t_end / (n - 1)
    states = [_expm_states(h, dt, n) for h in hs]
    steps = [expm(-1j * h * (dt / fine)) for h in hs]

    def pair(j, cells):
        """(a, b) at t_j + k dt / fine, k = 0 .. cells * fine."""
        amps = []
        for state, step in zip(states, steps):
            psi, amp = state[j], np.empty(cells * fine + 1, dtype=complex)
            for k in range(amp.size):
                amp[k] = psi[0]
                psi = step @ psi
            amps.append(amp)
        o, e = amps
        return 0.5 * (o + e), 0.5 * (o - e)

    a, b = (0.5 * (states[0][:, 0] + states[1][:, 0]), 0.5 * (states[0][:, 0] - states[1][:, 0]))
    best = 0.5
    for branch in (1, -1):
        f = 0.5 * np.abs(a - 1j * branch * b) ** 2
        best = max(best, float(f[1:].max()))
        for j in 1 + np.flatnonzero((f[1:-1] > f[:-2]) & (f[1:-1] >= f[2:])):
            fa, fb = pair(j - 1, 2)
            g = 0.5 * np.abs(fa - 1j * branch * fb) ** 2
            k = int(np.argmax(g))
            y0, y1, y2 = g[k - 1], g[k], g[k + 1]
            best = max(best, float(y1 - (y0 - y2) ** 2 / (8.0 * (y0 - 2.0 * y1 + y2))))
    pop_diff = np.abs(a) ** 2 - np.abs(b) ** 2
    i = 1 + int(np.flatnonzero(pop_diff[1:-1] * pop_diff[2:] <= 0.0)[0])
    fa, fb = pair(i, 1)
    d = np.abs(fa) ** 2 - np.abs(fb) ** 2
    k = int(np.flatnonzero(d[:-1] * d[1:] <= 0.0)[0])
    t_cross = i * dt + (k + d[k] / (d[k] - d[k + 1])) * dt / fine
    return best, 0.25 * math.pi / (t_cross * DEFAULT_GAMMA0)


class TestPeakSearch:
    """The Bell peak and the exchange crossing come from a coarse phase table
    refined from the roots and residues (_bell_search)."""

    def test_interior_peak_and_crossing_match_expm(self, antipodal_027):
        cfg = LensConfig(radius=3.34, alpha=1e-3)
        cmp = compare_to_analytics(cfg, antipodal_027, coupling_rates(cfg, antipodal_027))
        peak, dw = _expm_reference(cfg, antipodal_027)
        assert 0.5 < peak < 1.0
        # both sides within ~1e-11; the 2,000-point grid maximum was 1.2e-9 off here
        assert abs(cmp.F_numeric - peak) <= 1e-10
        assert cmp.extracted_delta_omega == pytest.approx(dw, rel=1e-10)

    def test_peak_at_t0_is_one_half_exactly(self, antipodal_027):
        # at alpha = 1e-2 the exchange never lifts the overlap above its start
        cfg = LensConfig(radius=14.48, alpha=1e-2)
        rates = coupling_rates(cfg, antipodal_027)
        cmp = compare_to_analytics(cfg, antipodal_027, rates)
        assert cmp.F_numeric == 0.5
        t_end = 3.0 * math.pi / (abs(rates.delta_omega) * DEFAULT_GAMMA0)
        n = 400
        o, e = (_expm_states(b.hamiltonian(cfg.kappa), t_end / (n - 1), n)[:, 0]
                for b in build_blocks(cfg, stereo_theta(0.27)))
        a, b = 0.5 * (o + e), 0.5 * (o - e)
        for branch in (1, -1):
            f = 0.5 * np.abs(a - 1j * branch * b) ** 2
            assert f[0] == pytest.approx(0.5, abs=1e-15)
            assert float(f[1:].max()) < 0.5 - 1e-3

    def test_evolve_refines_the_same_peak(self, antipodal_027):
        # evolve brackets on its own grid; the refined peak and crossing agree
        cfg = LensConfig(radius=8.11, alpha=3e-4)
        rates = coupling_rates(cfg, antipodal_027)
        cmp = compare_to_analytics(cfg, antipodal_027, rates)
        t_end = 3.0 * math.pi / (abs(rates.delta_omega) * DEFAULT_GAMMA0)
        sim = evolve(build_blocks(cfg, stereo_theta(0.27)), cfg.kappa, np.linspace(0.0, t_end, 2000))
        assert sim.max_fidelity >= float(sim.bell_fidelity.max())
        assert abs(sim.max_fidelity - cmp.F_numeric) <= 1e-11
        assert sim.extracted_delta_omega == pytest.approx(cmp.extracted_delta_omega, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3])
    def test_shortest_grids(self, antipodal_027, n):
        # two times bracket nothing; three bracket one interior sample, here the first crossing
        blocks = build_blocks(LensConfig(radius=3.34, alpha=1e-3), stereo_theta(0.27))
        sim = evolve(blocks, 1e-3 * OMEGA0, np.linspace(0.0, 1e5, n))
        assert sim.max_fidelity >= max(0.5, float(sim.bell_fidelity[1:].max()))
        if n == 2:
            assert sim.max_fidelity == max(0.5, float(sim.bell_fidelity[1]))
            assert sim.extracted_delta_omega is None
        else:
            assert sim.extracted_delta_omega > 0.0

    def test_flat_fidelity_has_no_search(self):
        # atoms on the mirror never exchange: F stays 1/2 and pop1 - pop2 = 1
        blocks = build_blocks(_reference_cfg(), math.pi / 2.0, l_max=20)
        sim = evolve(blocks, 1e-3, np.linspace(0.0, 1e5, 64))
        assert sim.max_fidelity == 0.5 and sim.bell_branch == 1
        assert sim.extracted_delta_omega is None
