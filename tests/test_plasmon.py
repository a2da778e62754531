import math

import numpy as np
import pytest

from fisheye.errors import DomainError, RootNotFoundError
from fisheye.lens import LensConfig, radial_mean_index
from fisheye.plasmon import (
    NOMINAL_TOTAL_LOSS,
    PlasmonStack,
    _invert_height,
    _newton,
    _newton_batch,
    average_absorption,
    dispersion_residual,
    end_to_end_estimate,
    height_for_index,
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
        sample = solve_effective_index(0.0, stack)
        assert sample.n == pytest.approx(1.020, abs=1e-3)
        assert sample.chi > 0.0

    def test_seeded_solve_matches_continuation(self, stack):
        by_continuation = solve_effective_index(80.0, stack)
        seeded = solve_effective_index(80.0, stack, seed=by_continuation.n_eff)
        assert seeded.n_eff == pytest.approx(by_continuation.n_eff, rel=1e-10)

    def test_negative_height_rejected(self, stack):
        with pytest.raises(DomainError):
            solve_effective_index(-1.0, stack)


class TestNewtonBatch:
    def test_matches_scalar_newton(self, stack):
        heights = np.array([0.0, 0.3, 7.5, 41.0, 120.0, 190.0])
        seeds = np.array([solve_effective_index(max(d - 0.5, 0.0), stack).n_eff for d in heights])
        got = _newton_batch(stack, heights, seeds)
        want = [_newton(stack, d, z) for d, z in zip(heights, seeds)]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failure_names_first_bad_height(self, stack):
        # a nan seed never converges, as in the scalar iteration
        seeds = np.array([stack.flat_interface_index, complex("nan"), complex("nan")])
        with pytest.raises(RootNotFoundError, match=r"d = 20\.0 nm"):
            _newton_batch(stack, np.array([10.0, 20.0, 30.0]), seeds)
        with pytest.raises(RootNotFoundError, match=r"d = 20\.0 nm"):
            _newton(stack, 20.0, complex("nan"))


class TestSweep:
    def test_published_range(self, stack):
        sweep = sweep_effective_index(200.0, stack)
        n = np.array([s.n for s in sweep])
        chi = np.array([s.chi for s in sweep])
        assert n[0] == pytest.approx(1.020, abs=1e-3)
        assert 1.9 < n[-1] < 2.05
        assert np.all(np.diff(n) > -1e-6)  # monotone rise
        assert np.all(chi > 0.0)
        assert chi[-1] > chi[0]  # losses grow with confinement

    def test_residuals_below_k0_scale(self, stack):
        sweep = sweep_effective_index(120.0, stack, step_nm=2.0)
        worst = max(abs(dispersion_residual(s.n_eff, s.height_nm, stack)) for s in sweep)
        assert worst < 1e-10 * stack.k0

    def test_grid_includes_endpoint(self, stack):
        sweep = sweep_effective_index(10.3, stack, step_nm=0.5)
        assert sweep[-1].height_nm == pytest.approx(10.3)


class TestHeightForIndex:
    def test_floor_maps_to_zero(self, stack):
        assert height_for_index(stack.flat_interface_index.real, stack) == 0.0

    def test_mid_target(self, stack):
        d = height_for_index(1.5, stack)
        assert 0.0 < d < 200.0
        assert solve_effective_index(d, stack).n == pytest.approx(1.5, abs=1e-4)

    def test_out_of_range_targets(self, stack):
        with pytest.raises(DomainError):
            height_for_index(2.5, stack)
        with pytest.raises(DomainError):
            height_for_index(0.99, stack)

    def test_bracket_without_target_raises(self, stack):
        # Re ntilde stays well below 1.9 on [10, 20] nm: the secant stalls
        with pytest.raises(RootNotFoundError):
            _invert_height(stack, 10.0, 20.0, stack.flat_interface_index, 1.9)
        # in a batch, the reachable target does not hide the unreachable one
        d_mid = height_for_index(1.5, stack)
        z_mid = solve_effective_index(d_mid, stack).n_eff
        with pytest.raises(RootNotFoundError, match=r"\[10\.0, 20\.0\] nm gives index 1\.9 "):
            _invert_height(
                stack, np.array([d_mid - 0.5, 10.0]), np.array([d_mid + 0.5, 20.0]),
                np.array([z_mid, stack.flat_interface_index]), np.array([1.5, 1.9]),
            )

    def test_batch_matches_one_target_at_a_time(self, stack):
        targets = np.array([1.05, 1.3, 1.6, 1.95])
        lo = np.array([0.0, 20.0, 40.0, 120.0])
        hi = np.array([40.0, 80.0, 120.0, 250.0])
        seeds = np.array([stack.flat_interface_index] + [solve_effective_index(d, stack).n_eff for d in lo[1:]])
        heights, indices = _invert_height(stack, lo, hi, seeds, targets)
        for i, target in enumerate(targets):
            d_one, z_one = _invert_height(stack, lo[i], hi[i], seeds[i], target)
            assert heights[i] == pytest.approx(d_one[0], abs=1e-9)
            assert indices[i] == pytest.approx(z_one[0], abs=1e-12)
            assert abs(indices[i].real - target) < 1e-10


class TestLensProfile:
    def test_conical_shape(self, stack, lens_cfg):
        profile = lens_height_profile(lens_cfg, stack, 101)
        rhos = [p[0] for p in profile]
        ds = [p[1] for p in profile]
        assert rhos[0] == 0.0 and rhos[-1] == 1.0
        assert ds[-1] == 0.0  # rim target n = 1 clamps to bare interface
        assert 150.0 < ds[0] < 250.0  # center needs index 2
        assert all(b <= a + 1e-9 for a, b in zip(ds, ds[1:]))

    def test_profile_realizes_index(self, stack, lens_cfg):
        profile = lens_height_profile(lens_cfg, stack, 21)
        for rho, d in profile[:-2]:
            target = 2.0 / (1.0 + rho * rho)
            if target >= stack.flat_interface_index.real:
                got = solve_effective_index(d, stack).n
                assert got == pytest.approx(target, abs=1e-6)

    def test_heights_pinned(self, stack, lens_cfg):
        # heights of the per-radius secant loop this batched inversion replaced
        profile = lens_height_profile(lens_cfg, stack, 11)
        assert [rho for rho, _ in profile] == pytest.approx(np.linspace(0.0, 1.0, 11).tolist(), abs=0)
        np.testing.assert_allclose([d for _, d in profile], PINNED_HEIGHTS_1749, rtol=0, atol=1e-9)

    def test_unreachable_center_rejected(self, stack):
        with pytest.raises(DomainError):
            lens_height_profile(LensConfig(radius=1.0, n0=1.2), stack, 11)


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
        profile = lens_height_profile(lens_cfg, stack, 400)
        rhos = np.array([rho for rho, _ in profile])
        ratios = np.empty_like(rhos)
        z = stack.flat_interface_index
        for i in reversed(range(len(profile))):
            z = solve_effective_index(profile[i][1], stack, seed=z).n_eff
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
