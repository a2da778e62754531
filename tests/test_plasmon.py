import cmath
import math

import numpy as np
import pytest

from fisheye import plasmon
from fisheye.errors import BranchJumpError, DomainError, RootNotFoundError
from fisheye.lens import LensConfig, radial_mean_index
from fisheye.plasmon import (
    NOMINAL_TOTAL_LOSS,
    PlasmonStack,
    _invert_height,
    _newton_batch,
    _track,
    average_absorption,
    dispersion_residual,
    end_to_end_estimate,
    lens_height_profile,
    mirror_loss,
    solve_effective_index,
    sweep_effective_index,
    transverse_wavenumbers,
)


#: lens_height_profile(LensConfig(radius=1.749), PlasmonStack(), 11) heights
#: (nm) from the per-radius secant loop.
PINNED_HEIGHTS_1749 = [
    195.7236490370577, 175.72268854747838, 142.50452216573066, 115.95475820855131,
    96.59774154245079, 81.93902913719836, 69.88278807438323, 58.72545960731929,
    46.557895385969346, 29.485107039001132, 0.0,
]


@pytest.fixture
def stack():
    return PlasmonStack()


@pytest.fixture
def lens_cfg():
    return LensConfig(radius=1.749)


class TestStack:
    def test_validation(self):
        with pytest.raises(DomainError):
            PlasmonStack(eps_metal=2.0 + 0.1j)
        with pytest.raises(DomainError):
            PlasmonStack(eps_dielectric=0.9)

    @pytest.mark.parametrize("field", ["eps_metal", "eps_dielectric", "lambda0_nm"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(DomainError, match="must be finite"):
            PlasmonStack(**{field: value})
        if field == "eps_metal":
            with pytest.raises(DomainError, match="must be finite"):
                PlasmonStack(eps_metal=complex(-25.23, value))

    def test_limit_indices(self, stack):
        assert stack.flat_interface_index.real == pytest.approx(1.0204, abs=2e-4)
        assert stack.thick_film_index.real == pytest.approx(2.049, abs=2e-3)


class TestDispersionResidual:
    def test_flat_interface_root(self, stack):
        n0 = stack.flat_interface_index
        assert abs(dispersion_residual(n0, 0.0, stack)) < 1e-10

    def test_thick_film_root(self, stack):
        n_inf = stack.thick_film_index
        # choose d with Re(k_d eps_d) d >= 20 so tanh has saturated
        k_air, k_d, k_m = transverse_wavenumbers(n_inf, stack)
        d = 20.0 / (k_d * stack.eps_dielectric).real
        assert abs(dispersion_residual(n_inf, d, stack)) < 1e-6

    def test_decay_branches_at_limits(self, stack):
        for n in (stack.flat_interface_index, stack.thick_film_index):
            k_air, k_d, k_m = transverse_wavenumbers(n, stack)
            assert k_air.real > 0.0
            # the physical decay constants are the pre-division square roots
            assert (k_m * stack.eps_metal).real > 0.0
            assert (k_d * stack.eps_dielectric).real >= 0.0


class TestSolveEffectiveIndex:
    def test_zero_height(self, stack):
        n_eff = solve_effective_index(0.0, stack)
        assert n_eff.real == pytest.approx(1.020, abs=1e-3)
        assert n_eff.imag > 0.0

    def test_negative_height_rejected(self, stack):
        with pytest.raises(DomainError):
            solve_effective_index(-1.0, stack)

    @pytest.mark.parametrize("d_nm", [math.nan, math.inf, -1.0])
    def test_height_outside_finite_range_is_a_domain_error(self, stack, d_nm):
        # NaN and inf once passed the check and raised ValueError / OverflowError in _substeps
        with pytest.raises(DomainError, match="finite and >= 0"):
            solve_effective_index(d_nm, stack)

    def test_lattice_heights_equal_sweep_entries(self, stack):
        # both run the one continuation walk through the same 0.5 nm heights
        sweep = dict(zip(*(a.tolist() for a in sweep_effective_index(200.0, stack))))
        for d in (0.5, 40.0, 120.0):
            assert solve_effective_index(d, stack) == sweep[d]


def _decay_root(w):
    """Square root on the Re >= 0 branch (Im >= 0 tie-break on the cut)."""
    r = cmath.sqrt(w)
    return -r if r.real < 0.0 or (r.real == 0.0 and r.imag < 0.0) else r


def _newton_reference(stack, d_nm, seed):
    """The damped Newton iteration on the analytic slope, evaluating every residual afresh from k0 formed per call."""

    def residual(n_eff):
        k0 = 2.0 * math.pi / stack.lambda0_nm
        eps_d, eps_m = stack.eps_dielectric, stack.eps_metal
        nk2 = (n_eff * k0) ** 2
        k_air = _decay_root(nk2 - k0**2)
        k_d = _decay_root(nk2 - eps_d * k0**2) / eps_d
        k_m = _decay_root(nk2 - eps_m * k0**2) / eps_m
        z = k_d * eps_d * d_nm
        if abs(z) < 1e-6:
            t, h = eps_d * d_nm * (1.0 - z * z / 3.0), -2.0 / 3.0 + 8.0 * z * z / 15.0
        else:
            t, h = cmath.tanh(z) / k_d, (z / cmath.cosh(z) ** 2 - cmath.tanh(z)) / z**3
        # dk/dn = n k0^2 / (eps^2 k) for each root k; dt/dn = eps_d d^3 n k0^2 h(z)
        dk_air, dk_m = (n_eff * k0**2 / (eps**2 * k) for eps, k in ((1.0, k_air), (eps_m, k_m)))
        q = k_d**2 + k_air * k_m
        dq = 2.0 * n_eff * k0**2 / eps_d**2 + dk_air * k_m + k_air * dk_m
        return t * q + (k_air + k_m), eps_d * d_nm**3 * n_eff * k0**2 * h * q + t * dq + dk_air + dk_m

    z = complex(seed)
    for _ in range(plasmon.NEWTON_MAX_ITER):
        f, df = residual(z)
        if abs(f) < 1e-13 * stack.k0:
            return z
        step = f / df
        damping = 1.0
        while damping > 1.0 / 64.0 and not abs(residual(z - damping * step)[0]) < abs(f):
            damping *= 0.5
        z = z - damping * step
        if abs(step) * damping < plasmon.NEWTON_TOL * max(1.0, abs(z)):
            return z
    raise AssertionError("reference iteration did not converge")


def _reference_walk(stack, d_max):
    """Roots on the 0.5 nm lattice from 0 to d_max, each by _newton_reference seeded with the root before."""
    z, roots = stack.flat_interface_index, []
    for d in np.arange(0.0, d_max + 0.25, 0.5).tolist():
        z = complex(_newton_reference(stack, d, z))
        roots.append(z)
    return roots


class TestNewton:
    def test_equals_the_reference_iteration(self, stack):
        z = stack.flat_interface_index
        for d in np.arange(0.5, 300.0, 0.5).tolist():
            got = complex(_newton_batch(stack, np.array([d]), np.array([z]))[0])
            np.testing.assert_allclose(got, _newton_reference(stack, d, z), rtol=1e-13, atol=0, err_msg=str(d))
            z = got

    def test_accepted_trial_residual_is_reused(self, stack, monkeypatch):
        # 2,957 residual elements in 59 calls when each iterate paid a second
        # evaluation for a forward-difference slope (4,214 before that, when
        # every iterate's residual was formed afresh as well)
        calls = elements = 0
        residual = plasmon._residual_smooth

        def counted(n_eff, *args):
            nonlocal calls, elements
            calls += 1
            elements += n_eff.size
            return residual(n_eff, *args)

        monkeypatch.setattr(plasmon, "_residual_smooth", counted)
        sweep_effective_index(200.0, stack)
        assert calls <= 33
        assert elements <= 1698


class TestResidualSlope:
    """The analytic slope of _residual_smooth against a central difference of its residual."""

    @staticmethod
    def _assert_slope(stack, n_eff, d_nm):
        n_eff, d_nm = np.broadcast_arrays(np.asarray(n_eff, dtype=complex), np.asarray(d_nm, dtype=float))
        _, slope = plasmon._residual_smooth(n_eff, d_nm, stack)
        up, down = (plasmon._residual_smooth(n_eff + h, d_nm, stack)[0] for h in (1e-6, -1e-6))
        # the difference is good to ~4e-10 here; a sign flipped in any term of the slope misses by far more
        np.testing.assert_allclose(slope, (up - down) / 2e-6, rtol=1e-8, atol=0)

    def test_at_the_index_sweep_roots(self, stack):
        heights, roots = sweep_effective_index(200.0, stack)
        self._assert_slope(stack, roots, heights)

    def test_at_the_zero_height_root(self, stack):
        self._assert_slope(stack, stack.flat_interface_index, 0.0)

    @pytest.mark.parametrize("offset", [0.0, 1e-14, -1e-14j, 3e-15 + 1e-15j])
    def test_at_the_dielectric_light_line(self, stack, offset):
        # n_eff = sqrt(eps_d) makes k_d vanish: the |z| < 1e-6 series of t and its slope
        n_eff = np.full(3, math.sqrt(stack.eps_dielectric) + offset)
        d_nm = np.array([20.0, 100.0, 200.0])
        z = transverse_wavenumbers(n_eff, stack)[1] * stack.eps_dielectric * d_nm
        assert np.all(np.abs(z) < 1e-6)
        self._assert_slope(stack, n_eff, d_nm)

    @pytest.mark.parametrize("delta, z_abs", [(1.4e-12, 3e-6), (1.4e-10, 3e-5), (1.4e-8, 3e-4)])
    def test_near_the_dielectric_light_line(self, stack, delta, z_abs):
        # 1e-6 <= |z| < 1e-3: h takes its series, where its closed form lost
        # 2.7e-5 (|z| = 3e-6) and 1.1e-7 (3e-5) of the slope to cancellation
        n_eff = np.array([math.sqrt(stack.eps_dielectric) + delta * (1 + 0.3j)])
        d_nm = np.array([150.0])
        z = transverse_wavenumbers(n_eff, stack)[1] * stack.eps_dielectric * d_nm
        assert 0.9 * z_abs < abs(z[0]) < 1.1 * z_abs
        self._assert_slope(stack, n_eff, d_nm)

    def test_in_the_thick_film_limit(self, stack):
        n_eff = stack.thick_film_index
        self._assert_slope(stack, [n_eff, n_eff, n_eff * (1 + 1e-3j)], [1000.0, 4000.0, 10_000.0])


class TestNewtonBatch:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failure_names_first_bad_height(self, stack):
        # a nan seed never converges
        seeds = np.array([stack.flat_interface_index, complex("nan"), complex("nan")])
        with pytest.raises(RootNotFoundError, match=r"d = 20\.0 nm"):
            _newton_batch(stack, np.array([10.0, 20.0, 30.0]), seeds)


class TestBlockedWalk:
    @pytest.mark.parametrize("eps_metal, eps_dielectric, lambda0_nm", [
        (-25.23 + 0.589j, 3.6, 737.0), (-10 + 1j, 2.25, 737.0), (-25.23 + 0.589j, 6.0, 500.0), (-50 + 2j, 3.6, 1550.0),
    ])
    def test_matches_the_sequential_reference_walk(self, eps_metal, eps_dielectric, lambda0_nm):
        # blocks of 64 sub-steps seeded by the secant predictor give the roots
        # of the walk that seeds each sub-step by the root before
        stack = PlasmonStack(eps_metal, eps_dielectric, lambda0_nm)
        _, got = sweep_effective_index(200.0, stack)
        np.testing.assert_allclose(got, _reference_walk(stack, 200.0), rtol=1e-11, atol=0)

    def test_branch_jump_before_a_failing_sub_step_is_raised_first(self, stack, monkeypatch):
        # the walk checks a block's roots in order: a jump at the third sub-step
        # (d = 1 nm) is raised, not the failure at the fifth that follows it
        def failing(stack, d_nm, seed):
            roots = seed[:4].copy()
            roots[2] += 0.5
            error = RootNotFoundError(f"injected at d = {d_nm[4]} nm")
            error.roots = roots
            raise error

        monkeypatch.setattr(plasmon, "_newton_batch", failing)
        with pytest.raises(BranchJumpError, match=r"near d = 1\.0 nm"):
            sweep_effective_index(10.0, stack)


class TestSweep:
    def test_published_range(self, stack):
        _, n_eff = sweep_effective_index(200.0, stack)
        n, chi = n_eff.real, n_eff.imag
        assert n[0] == pytest.approx(1.020, abs=1e-3)
        assert 1.9 < n[-1] < 2.05
        assert np.all(np.diff(n) > -1e-6)  # monotone rise
        assert np.all(chi > 0.0)
        assert chi[-1] > chi[0]  # losses grow with confinement

    def test_residuals_below_k0_scale(self, stack):
        heights, n_eff = sweep_effective_index(120.0, stack, step_nm=2.0)
        worst = max(abs(dispersion_residual(z, d, stack)) for d, z in zip(heights.tolist(), n_eff.tolist()))
        assert worst < 1e-10 * stack.k0

    def test_grid_includes_endpoint(self, stack):
        heights, _ = sweep_effective_index(10.3, stack, step_nm=0.5)
        assert heights[-1] == pytest.approx(10.3)

    @pytest.mark.parametrize("d_max, step", [(math.nan, 0.5), (math.inf, 0.5), (200.0, math.nan), (200.0, math.inf),
                                             (0.0, 0.5), (200.0, -0.5)])
    def test_non_finite_or_non_positive_grid_rejected(self, stack, d_max, step):
        with pytest.raises(DomainError, match="positive sweep range and step"):
            sweep_effective_index(d_max, stack, step)

    def test_range_above_the_height_cap_rejected(self, stack):
        with pytest.raises(DomainError, match="d_max <= 10,000 nm .*; got d_max = 10001 nm"):
            sweep_effective_index(plasmon.MAX_HEIGHT_NM + 1.0, stack, 1.0)

    def test_grid_above_the_step_cap_rejected(self, stack):
        # d_max / step is exactly MAX_SWEEP_STEPS + 1 (a power-of-two step)
        step = 2.0**-10
        with pytest.raises(DomainError, match="at most 100,000 steps; got d_max = 97.6572 nm, step = 0.000976562 nm"):
            sweep_effective_index((plasmon.MAX_SWEEP_STEPS + 1) * step, stack, step)


def _height_at(stack, n_target):
    """Height with Re ntilde = n_target: the lattice walk to its bracket and the secant, as lens_height_profile runs them."""
    steps = int(plasmon.MAX_HEIGHT_NM / plasmon.CONTINUATION_STEP_NM)
    d, z = _track(stack, (i * plasmon.CONTINUATION_STEP_NM for i in range(steps + 1)), n_target)
    return float(_invert_height(stack, d[-2], d[-1], z[-2], z[-1], n_target)[0][0])


class TestHeightInversion:
    def test_floor_maps_to_zero(self, stack):
        # a rim target of exactly the bare-interface index takes d = 0
        floor = stack.flat_interface_index.real
        rho, d, _ = lens_height_profile(LensConfig(radius=1.749, n0=floor), stack, 11)
        assert (rho[-1], d[-1]) == (1.0, 0.0)

    def test_mid_target(self, stack):
        d = _height_at(stack, 1.5)
        assert 0.0 < d < 200.0
        assert solve_effective_index(d, stack).real == pytest.approx(1.5, abs=1e-4)

    def test_bracket_walk_checks_branch_jumps(self, stack, lens_cfg, monkeypatch):
        monkeypatch.setattr(plasmon, "BRANCH_JUMP_TOL", 1e-6)
        with pytest.raises(BranchJumpError):
            lens_height_profile(lens_cfg, stack, 11)

    def test_bracket_reached_before_a_failing_sub_step(self):
        # no root past ~20 nm on this stack: the first block (0-31.5 nm) fails
        # at 27 nm, after the walk has bracketed n = 1.3 at ~17 nm
        stack = PlasmonStack(-25.23 + 0.589j, 10.0, 500.0)
        assert _height_at(stack, 1.3) == pytest.approx(17.041325637096882, rel=1e-12)

    def test_bracket_without_target_raises(self, stack):
        # Re ntilde stays well below 1.9 on [10, 20] nm: the secant stalls
        z_10, z_20 = (solve_effective_index(d, stack) for d in (10.0, 20.0))
        with pytest.raises(RootNotFoundError):
            _invert_height(stack, 10.0, 20.0, z_10, z_20, 1.9)
        # in a batch, the reachable target does not hide the unreachable one
        d_mid = _height_at(stack, 1.5)
        z_below, z_above = (solve_effective_index(d, stack) for d in (d_mid - 0.5, d_mid + 0.5))
        with pytest.raises(RootNotFoundError, match=r"\[10\.0, 20\.0\] nm gives index 1\.9 "):
            _invert_height(
                stack, np.array([d_mid - 0.5, 10.0]), np.array([d_mid + 0.5, 20.0]),
                np.array([z_below, z_10]), np.array([z_above, z_20]), np.array([1.5, 1.9]),
            )

    def test_batch_matches_one_target_at_a_time(self, stack):
        targets = np.array([1.05, 1.3, 1.6, 1.95])
        lo = np.array([0.0, 20.0, 40.0, 120.0])
        hi = np.array([40.0, 80.0, 120.0, 250.0])
        z_lo, z_hi = (np.array([solve_effective_index(d, stack) for d in ends]) for ends in (lo, hi))
        heights, indices = _invert_height(stack, lo, hi, z_lo, z_hi, targets)
        for i, target in enumerate(targets):
            d_one, z_one = _invert_height(stack, lo[i], hi[i], z_lo[i], z_hi[i], target)
            assert heights[i] == pytest.approx(d_one[0], abs=1e-9)
            assert indices[i] == pytest.approx(z_one[0], abs=1e-12)
            assert abs(indices[i].real - target) < 1e-10


class TestLensProfile:
    def test_conical_shape(self, stack, lens_cfg):
        rhos, ds, _ = (a.tolist() for a in lens_height_profile(lens_cfg, stack, 101))
        assert rhos[0] == 0.0 and rhos[-1] == 1.0
        assert ds[-1] == 0.0  # rim target n = 1 clamps to bare interface
        assert 150.0 < ds[0] < 250.0  # center needs index 2
        assert all(b <= a + 1e-9 for a, b in zip(ds, ds[1:]))

    def test_profile_realizes_index(self, stack, lens_cfg):
        rhos, ds, _ = lens_height_profile(lens_cfg, stack, 21)
        for rho, d in zip(rhos[:-2].tolist(), ds[:-2].tolist()):
            target = 2.0 / (1.0 + rho * rho)
            if target >= stack.flat_interface_index.real:
                got = solve_effective_index(d, stack).real
                assert got == pytest.approx(target, abs=1e-6)

    def test_heights_pinned(self, stack, lens_cfg):
        # heights of the per-radius secant loop this batched inversion replaced
        rhos, ds, _ = lens_height_profile(lens_cfg, stack, 11)
        assert rhos.tolist() == pytest.approx(np.linspace(0.0, 1.0, 11).tolist(), abs=0)
        np.testing.assert_allclose(ds, PINNED_HEIGHTS_1749, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n0", [1.2, 1.25])
    def test_unreachable_center_rejected(self, stack, n0):
        # centre targets 2.4 and 2.5, above the thick-film ceiling 2.049
        with pytest.raises(DomainError, match="above the stack ceiling"):
            lens_height_profile(LensConfig(radius=1.0, n0=n0), stack, 11)


class TestAverageAbsorption:
    def test_published_level(self, stack, lens_cfg):
        avg = average_absorption(lens_cfg, stack, 400)
        assert avg == pytest.approx(3e-3, rel=0.3)

    def test_pinned_value(self, stack):
        # value of the per-radius secant loop this batched inversion replaced
        got = average_absorption(LensConfig(radius=2.5), stack, 1000)
        assert got == pytest.approx(0.003153808876033486, rel=1e-14, abs=0)

    def test_lossless_metal_gives_zero(self, lens_cfg):
        lossless = PlasmonStack(eps_metal=-25.23 + 0.0j)
        assert average_absorption(lens_cfg, lossless, 60) == pytest.approx(0.0, abs=1e-15)

    def test_matches_resolving_each_profile_height(self, stack, lens_cfg):
        # chi/n comes from the index the inversion solved; re-solving every
        # height from its outer neighbour, as before, must agree
        rhos, heights, _ = lens_height_profile(lens_cfg, stack, 400)
        ratios = np.empty_like(rhos)
        z = stack.flat_interface_index
        for i in reversed(range(rhos.size)):
            z = complex(_newton_batch(stack, heights[i:i + 1], np.array([z]))[0])
            ratios[i] = z.imag / z.real
        resolved = float(np.trapezoid(ratios, rhos))
        assert average_absorption(lens_cfg, stack, 400) == pytest.approx(resolved, rel=1e-12)

    def test_sample_count_insensitive(self, stack, lens_cfg):
        coarse = average_absorption(lens_cfg, stack, 400)
        fine = average_absorption(lens_cfg, stack, 800)
        assert abs(fine - coarse) / fine < 1e-3


class TestMirrorLoss:
    def test_perfect_mirror(self, lens_cfg):
        assert mirror_loss(lens_cfg, 1.0, math.pi / 2.0) == 0.0

    def test_published_arithmetic(self, lens_cfg):
        # t^2 lambda0/(4 pi nbar R0) with r^2 = 0.95, nbar = pi/2, R0 = 1.749
        got = mirror_loss(lens_cfg, 0.95, radial_mean_index(lens_cfg))
        assert got == pytest.approx(1.45e-3, rel=5e-3)

    def test_inverse_radius_scaling(self):
        a = mirror_loss(LensConfig(radius=2.0), 0.95, 1.57)
        b = mirror_loss(LensConfig(radius=4.0), 0.95, 1.57)
        assert a == pytest.approx(2.0 * b, rel=1e-12)

    def test_validation(self, lens_cfg):
        with pytest.raises(DomainError):
            mirror_loss(lens_cfg, 0.0, 1.57)


class TestEndToEnd:
    def test_published_estimate(self, stack, lens_cfg):
        report = end_to_end_estimate(lens_cfg, stack, n_radial_samples=400)
        assert report.fidelity_nominal == pytest.approx(0.806, abs=5e-3)
        assert 0.74 <= report.fidelity_computed <= 0.78
        assert report.alpha_mirror_formula == pytest.approx(1.45e-3, rel=5e-3)
        assert report.alpha_mirror_reference == 4e-4
        assert NOMINAL_TOTAL_LOSS == 3.4e-3

    def test_ideal_components_give_unity(self, lens_cfg):
        lossless = PlasmonStack(eps_metal=-25.23 + 0.0j)
        report = end_to_end_estimate(
            lens_cfg, lossless, reflectivity_sq=1.0, eta=1e12, n_radial_samples=60
        )
        assert report.fidelity_computed == pytest.approx(1.0, abs=1e-9)
