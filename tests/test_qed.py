import math

import numpy as np
import pytest

from fisheye import greens, qed
from fisheye.errors import (
    CoincidentPointsError,
    DomainError,
    NonConvergenceError,
    RangeOverflowError,
    ResonanceError,
    UnphysicalRatesError,
    ZeroCouplingError,
)
from fisheye.greens import greens_zz
from fisheye.lens import OMEGA0, DiskPoint, LensConfig, radius_for_order
from fisheye.qed import (
    AtomPairConfig,
    CouplingRates,
    coupling_rate_arrays,
    coupling_rates,
    entanglement_fidelity,
    fidelity_approx,
    fidelity_from_rates,
    image_rates,
    rates_modesum_oracle,
    scaling_rates,
    trajectory,
)

FOUR_ORDERS = (10.5, 20.5, 50.5, 90.5)


def _cfg(nu_re: float, alpha: float = 0.0, b: float = 0.1) -> LensConfig:
    return LensConfig(radius=radius_for_order(nu_re), b=b, alpha=alpha)


class TestCouplingRates:
    def test_lossless_decays_vanish_exactly(self, antipodal_027):
        rates = coupling_rates(_cfg(20.5), antipodal_027)
        assert rates.gamma == 0.0
        assert rates.gamma_coop == 0.0
        assert rates.beta == math.inf

    def test_lossless_limit_matches_static_green_path(self, antipodal_027):
        # alpha = 0 rate must equal the real-frequency Green's function route
        cfg = _cfg(20.5)
        rates = coupling_rates(cfg, antipodal_027)
        g = greens_zz(cfg, antipodal_027.p1, antipodal_027.p2, OMEGA0)
        want = 3.0 * math.pi / OMEGA0 * g.real
        assert rates.delta_omega == pytest.approx(want, rel=1e-10)

    def test_antipodal_fringe_window(self, antipodal_027):
        # exact |dw| = (3 lambda/8b) |1 - P_nu(xi_src)|; the source fringe
        # keeps it within ~25% of the image-model 3.75 but not closer
        rates = coupling_rates(_cfg(20.5), antipodal_027)
        assert 3.75 * 0.75 < abs(rates.delta_omega) < 3.75 * 1.25

    def test_identical_points_rejected(self):
        p = DiskPoint(0.3, 0.1)
        with pytest.raises(DomainError):
            coupling_rates(_cfg(20.5), AtomPairConfig(p, p))

    def test_physicality(self, antipodal_027):
        for nu_re in FOUR_ORDERS:
            rates = coupling_rates(_cfg(nu_re, alpha=5e-4), antipodal_027)
            assert rates.gamma > 0.0
            assert abs(rates.gamma_coop) <= rates.gamma

    def test_onsite_gamma_position_free(self):
        cfg = _cfg(20.5, alpha=1e-3)
        r1 = coupling_rates(cfg, AtomPairConfig.antipodal(0.27))
        r2 = coupling_rates(cfg, AtomPairConfig.antipodal(0.61))
        assert r1.gamma == r2.gamma

    @pytest.mark.parametrize(
        "atoms", [AtomPairConfig.antipodal(0.27), AtomPairConfig(DiskPoint(0.3, 0.4), DiskPoint(0.55, 2.9))]
    )
    def test_one_element_of_the_batched_chain_bit_for_bit(self, atoms, rng):
        # coupling_rates is the one-element coupling_rate_arrays call, so a
        # scalar chain and a sweep print the same digits at the same point
        radii = rng.uniform(1.5, 15.0, 120)
        alphas = 10.0 ** rng.uniform(-5.0, -2.0, 120)
        alphas[:10] = 0.0
        batched = np.stack(qed.coupling_rate_arrays(atoms, radii, alphas, b=0.1), axis=1)
        for r, a, want in zip(radii.tolist(), alphas.tolist(), batched):
            got = coupling_rates(LensConfig(radius=r, alpha=a), atoms)
            assert np.array([got.delta_omega, got.gamma, got.gamma_coop]).tobytes() == want.tobytes()

    def test_rates_depend_on_radius_times_index(self, antipodal_027):
        # R0 n0 is the same product, so the rates are the same bits
        one = coupling_rates(LensConfig(radius=6.68, alpha=5e-4), antipodal_027)
        assert coupling_rates(LensConfig(radius=3.34, n0=2.0, alpha=5e-4), antipodal_027) == one


def _image_value(rates: CouplingRates) -> complex:
    """The image-point value -1/(4 b sin(pi nu)) behind image_rates: delta_omega is 1.5 Re of it, gamma_coop 3 Im."""
    return complex(rates.delta_omega / 1.5, rates.gamma_coop / 3.0)


class TestImageRates:
    def test_half_integer_lossless(self):
        assert _image_value(image_rates(_cfg(20.5))) == pytest.approx(-2.5, rel=1e-9)

    def test_lossy_magnitude_matches_lorentzian_model(self):
        # |G_img| ~ 1/(4b (1 + (2 pi^2 R0 alpha)^2)) for small alpha
        alpha = 1e-3
        cfg = _cfg(20.5, alpha=alpha)
        model = 1.0 / (4.0 * cfg.b * (1.0 + (2.0 * math.pi**2 * cfg.radius * alpha) ** 2))
        assert abs(_image_value(image_rates(cfg))) == pytest.approx(model, rel=1e-2)

    def test_lossless_limit_reduction(self):
        assert _image_value(image_rates(_cfg(20.5))).imag == pytest.approx(0.0, abs=1e-12)

    def test_radius_independence(self):
        # the image-term height depends on R0 only through |sin(pi nu(R0))|
        vals = [abs(_image_value(image_rates(LensConfig(radius=r0)))) for r0 in (3.34, 8.11)]
        assert abs(vals[0] - vals[1]) / vals[0] < 0.01

    def test_resonance_guard(self):
        with pytest.raises(ResonanceError):
            image_rates(_cfg(7.0))

    @pytest.mark.parametrize("r0", [1.749, 3.34, 8.11, 14.48])
    @pytest.mark.parametrize("alpha", [0.0, 5e-4, 1e-2])
    def test_sign_opposite_to_the_exact_rates(self, antipodal_027, r0, alpha):
        # the image model keeps the source derivation's sign, the exact image
        # term the other: -3.749 against +3.348 at R0 = 3.34, alpha = 5e-4
        cfg = LensConfig(radius=r0, alpha=alpha)
        assert image_rates(cfg).delta_omega < 0.0 < coupling_rates(cfg, antipodal_027).delta_omega

    def test_peak_height_three_lambda_over_8b(self):
        # image model at Re nu = 30.5 (R0 = 4.93): |dw|/Gamma0 = 3 lambda/(8 b)
        rates = image_rates(_cfg(30.5))
        assert abs(rates.delta_omega) == pytest.approx(3.75, rel=1e-2)

    def test_sign_alternates_with_parity(self):
        even = image_rates(_cfg(20.5))   # m = 20
        odd = image_rates(_cfg(21.5))    # m = 21
        assert even.delta_omega < 0 < odd.delta_omega

    def test_coop_vanishes_at_half_integer(self):
        # zero up to the O(alpha^2) shift of Re nu at the lossy frequency
        rates = image_rates(_cfg(20.5, alpha=1e-3))
        assert abs(rates.gamma_coop) < 1e-6 * rates.gamma


class TestModeSumOracle:
    @pytest.mark.parametrize("alpha", [1e-4, 1e-3])
    def test_reference_configuration(self, alpha, antipodal_027):
        cfg = _cfg(20.5, alpha=alpha)
        exact = coupling_rates(cfg, antipodal_027)
        oracle = rates_modesum_oracle(cfg, antipodal_027)
        assert abs(exact.delta_omega - oracle.delta_omega) <= 1e-3 * abs(exact.delta_omega)
        assert abs(exact.gamma_coop - oracle.gamma_coop) <= 1e-3 * abs(exact.gamma_coop)

    @pytest.mark.parametrize("alpha", [1e-4, 1e-3])
    def test_randomized_antipodal_configurations(self, alpha, rng):
        cfg = _cfg(20.5, alpha=alpha)
        for _ in range(10):
            atoms = AtomPairConfig.antipodal(
                float(rng.uniform(0.12, 0.88)), float(rng.uniform(0, 2 * math.pi))
            )
            exact = coupling_rates(cfg, atoms)
            oracle = rates_modesum_oracle(cfg, atoms)
            assert abs(exact.delta_omega - oracle.delta_omega) <= 1e-3 * abs(exact.delta_omega)
            assert abs(exact.gamma_coop - oracle.gamma_coop) <= 1e-3 * max(
                abs(exact.gamma_coop), 1e-8
            )

    def test_lossless_limit(self, antipodal_027):
        cfg = _cfg(20.5)
        oracle = rates_modesum_oracle(cfg, antipodal_027)
        exact = coupling_rates(cfg, antipodal_027)
        assert oracle.gamma_coop == 0.0
        assert oracle.delta_omega == pytest.approx(exact.delta_omega, rel=1e-6)

    def test_unconverged_wynn_estimate_raises(self, antipodal_027, monkeypatch):
        def loose(partial_sums):  # every pair of the Green's-function mode sum with a large error
            return partial_sums[:, -1].astype(complex), np.ones(len(partial_sums))
        monkeypatch.setattr(greens, "accelerate", loose)
        with pytest.raises(NonConvergenceError, match="not converged"):
            rates_modesum_oracle(_cfg(20.5, alpha=1e-3), antipodal_027)

    def test_short_start_doubles_until_converged(self, antipodal_027):
        # l_max = 32 is where the doubling starts, not a fixed truncation
        cfg = _cfg(20.5, alpha=1e-3)
        exact = coupling_rates(cfg, antipodal_027)
        oracle = rates_modesum_oracle(cfg, antipodal_027, l_max=32)
        assert oracle.delta_omega == pytest.approx(exact.delta_omega, rel=1e-8)
        assert oracle.gamma_coop == pytest.approx(exact.gamma_coop, rel=1e-8)

    def test_second_sum_continues_the_doubling(self, monkeypatch):
        # the tighter second sum starts at twice the first one's l_max instead
        # of repeating its last round
        sizes = []
        resum = greens.accelerate

        def counted(partial_sums):
            sizes.append(partial_sums.shape[-1])
            return resum(partial_sums)

        monkeypatch.setattr(greens, "accelerate", counted)
        oracle = rates_modesum_oracle(LensConfig(radius=1.749, alpha=1e-4), AtomPairConfig.antipodal(0.12))
        assert len(sizes) == 2 and sizes[1] == 2 * sizes[0]
        monkeypatch.setattr(greens, "accelerate", resum)
        first = greens.greens_modesum_points(LensConfig(radius=1.749, alpha=1e-4), 0.12, 0.0, 0.12, math.pi,
                                             OMEGA0 * (1.0 + 1e-4j))
        assert first.converged[0] and int(first.l_max[0]) == sizes[0]
        assert oracle.gamma_coop != 0.0

    def test_small_coop_part_meets_its_own_tolerance(self):
        # gamma_coop / delta_omega ~ -1.7e-5 here: a tolerance relative to the
        # complex sum alone leaves gamma_coop ~4e-7 off
        cfg = LensConfig(radius=1.749, alpha=1e-4)
        atoms = AtomPairConfig.antipodal(0.12)
        exact = coupling_rates(cfg, atoms)
        oracle = rates_modesum_oracle(cfg, atoms)
        assert abs(exact.gamma_coop / exact.delta_omega) < 1e-4
        assert oracle.gamma_coop == pytest.approx(exact.gamma_coop, rel=1e-8)

    @pytest.mark.parametrize("alpha", [0.0, 1e-3])
    def test_fields_are_python_floats(self, alpha, antipodal_027):
        oracle = rates_modesum_oracle(_cfg(20.5, alpha=alpha), antipodal_027)
        fields = (oracle.delta_omega, oracle.gamma, oracle.gamma_coop, oracle.beta)
        assert all(type(v) is float for v in fields)

    def test_source_exclusion_is_the_mode_sum_one(self):
        # the same check as greens_modesum: a DomainError subclass
        near = AtomPairConfig(DiskPoint(0.3, 0.5), DiskPoint(0.3, 0.52))
        with pytest.raises(CoincidentPointsError, match="near the source point"):
            rates_modesum_oracle(_cfg(20.5, alpha=1e-3), near)


class TestScalingRates:
    def test_lossless_reduction(self):
        cfg = _cfg(30.5)
        rates = scaling_rates(cfg)
        assert abs(rates.delta_omega) == pytest.approx(3.75, abs=1e-12)
        assert rates.gamma == 0.0 and rates.gamma_coop == 0.0

    def test_sign_convention(self):
        assert scaling_rates(_cfg(20.5, alpha=1e-4)).delta_omega < 0
        assert scaling_rates(_cfg(21.5, alpha=1e-4)).delta_omega > 0

    def test_gamma_linear_in_alpha(self):
        slopes = [scaling_rates(_cfg(20.5, alpha=a)).gamma / a for a in (1e-5, 1e-3)]
        assert slopes[0] == pytest.approx(slopes[1], rel=1e-2)

    def test_loss_ratio_feeds_fidelity_exponent(self, antipodal_027):
        # gamma/|dw| = 4 pi^2 R0 alpha (1 + (2 pi^2 R0 alpha)^2); its pi/4
        # multiple is the fidelity exponent, matching the exact-chain error
        # at the reference point up to the source fringe
        alpha, r0 = 5e-4, radius_for_order(20.5)
        model = scaling_rates(_cfg(20.5, alpha=alpha))
        x = 2.0 * math.pi**2 * r0 * alpha
        want = 4.0 * math.pi**2 * r0 * alpha * (1.0 + x * x)
        assert model.gamma / abs(model.delta_omega) == pytest.approx(want, rel=1e-12)
        err_model = 1.0 - math.exp(-0.25 * math.pi * want)
        rates = coupling_rates(_cfg(20.5, alpha=alpha), antipodal_027)
        err_exact = 1.0 - entanglement_fidelity(rates)
        assert err_model == pytest.approx(err_exact, rel=0.15)

    @pytest.mark.parametrize("nu_re", FOUR_ORDERS)
    @pytest.mark.parametrize("alpha", [1e-4, 1e-3])
    def test_gamma_matches_exact_within_5pc(self, nu_re, alpha, antipodal_027):
        cfg = _cfg(nu_re, alpha=alpha)
        exact = coupling_rates(cfg, antipodal_027)
        model = scaling_rates(cfg)
        assert model.gamma == pytest.approx(exact.gamma, rel=0.05)

    @pytest.mark.parametrize("nu_re", FOUR_ORDERS)
    @pytest.mark.parametrize("alpha", [1e-4, 1e-3])
    def test_delta_omega_matches_image_model_within_5pc(self, nu_re, alpha):
        # Lorentzian linearization vs the non-linearized image-point form;
        # worst corner (nu = 90.5, alpha = 1e-3) is the cosh-vs-Lorentzian
        # difference ~3.9%
        cfg = _cfg(nu_re, alpha=alpha)
        model = scaling_rates(cfg)
        image = image_rates(cfg)
        assert model.delta_omega == pytest.approx(image.delta_omega, rel=0.05)


class TestTrajectory:
    def test_initial_state(self):
        rates = CouplingRates(3.3, 0.2, -0.02)
        traj = trajectory(rates, np.array([0.0, 0.1]))
        assert traj.pop1[0] == pytest.approx(1.0)
        assert traj.pop2[0] == pytest.approx(0.0, abs=1e-15)
        assert traj.bell_fidelity[0] == pytest.approx(0.5)

    def test_population_balance_at_t0(self):
        rates = CouplingRates(-3.3, 0.2, -0.02)
        t0 = 0.25 * math.pi / abs(rates.delta_omega)
        traj = trajectory(rates, np.array([t0]))
        assert traj.pop1[0] == pytest.approx(traj.pop2[0], rel=1e-12)
        assert traj.bell_fidelity[0] == pytest.approx(
            entanglement_fidelity(rates), rel=5e-3
        )

    def test_lossless_full_transfer(self):
        rates = CouplingRates(2.0, 0.0, 0.0)
        t_swap = 0.5 * math.pi / rates.delta_omega
        traj = trajectory(rates, np.array([t_swap]))
        assert traj.pop1[0] == pytest.approx(0.0, abs=1e-12)
        assert traj.pop2[0] == pytest.approx(1.0, rel=1e-12)

    def test_envelope_bound(self):
        rates = CouplingRates(3.3, 0.3, 0.05)
        t = np.linspace(0.0, 5.0, 400)
        traj = trajectory(rates, t)
        total = traj.pop1 + traj.pop2
        bound = np.exp(-(rates.gamma - abs(rates.gamma_coop)) * t)
        assert np.all(total <= bound * (1.0 + 1e-12))

    def test_nonincreasing_total_when_lossy(self):
        rates = CouplingRates(3.3, 0.3, 0.0)
        t = np.linspace(0.0, 4.0, 300)
        traj = trajectory(rates, t)
        assert np.all(np.diff(traj.pop1 + traj.pop2) <= 1e-12)

    def test_growing_populations_rejected(self):
        # |gamma_coop| > gamma: pop1 + pop2 = e^{-gamma t} cosh(gamma_coop t) rises above 1
        with pytest.raises(UnphysicalRatesError, match="above 1"):
            trajectory(CouplingRates(3.3, 0.2, -0.3), np.linspace(0.0, 10.0, 50))
        # equal rates keep the total at 1 within rounding
        traj = trajectory(CouplingRates(3.3, 0.2, 0.2), np.linspace(0.0, 10.0, 50))
        assert np.all(traj.pop1 + traj.pop2 <= 1.0 + 1e-12)

    def test_overflowing_cosh_stays_finite(self):
        # gamma_coop t = 1,000 overflows cosh while e^{-gamma t} underflows; their
        # product, (e^{-200} + e^{-2200})/2, is representable and is what comes out
        traj = trajectory(CouplingRates(0.1, 1.2, 1.0), np.array([0.0, 1000.0]))
        assert traj.pop1[0] == 1.0 and traj.pop2[0] == 0.0 and traj.bell_fidelity[0] == 0.5
        for values in (traj.pop1, traj.pop2, traj.bell_fidelity):
            assert values[1] == pytest.approx(0.25 * math.exp(-200.0), rel=1e-14)

    def test_published_operating_point_shows_several_cycles(self, antipodal_027):
        # reference dynamics: around five visible exchange cycles before decay
        rates = coupling_rates(_cfg(20.5, alpha=5e-4), antipodal_027)
        t = np.linspace(0.0, 3.0 * math.pi / abs(rates.delta_omega), 4000)
        traj = trajectory(rates, t)
        p2 = traj.pop2
        peaks = [
            i
            for i in range(1, len(t) - 1)
            if p2[i] > p2[i - 1] and p2[i] > p2[i + 1] and p2[i] > 0.1
        ]
        assert 3 <= len(peaks) <= 8


class TestEntanglementFidelity:
    def test_lossless_unity(self):
        assert entanglement_fidelity(CouplingRates(1.7, 0.0, 0.0)) == 1.0

    def test_overflow_is_a_range_error(self):
        # q = 785: with gamma = 0, cosh(q |gamma_coop|) overflows; an
        # underflowing exp alone is F = 0
        with pytest.raises(RangeOverflowError):
            entanglement_fidelity(CouplingRates(1e-3, 0.0, 1.0))
        assert entanglement_fidelity(CouplingRates(1e-3, 1.0, 0.0)) == 0.0

    def test_large_q_with_equal_rates_is_finite(self):
        # exp(-q |gamma|) cosh(q |gamma_coop|) at q = 785: the product form
        # overflows in cosh, the exact value is 1/2 (1 + exp(-1570)) = 1/2
        assert entanglement_fidelity(CouplingRates(1e-3, 1.0, 1.0)) == 0.5
        assert entanglement_fidelity(CouplingRates(-1e-3, -1.0, 0.9)) == pytest.approx(
            0.5 * math.exp(-0.25 * math.pi * 0.1 / 1e-3), rel=1e-12
        )

    def test_zero_coupling_rejected(self):
        with pytest.raises(ZeroCouplingError):
            entanglement_fidelity(CouplingRates(0.0, 0.1, 0.0))

    def test_cooperative_rate_above_on_site_rate_rejected(self):
        # q = 7.85: F = (exp(0.785) + exp(-16.5)) / 2 = 1.096
        with pytest.raises(UnphysicalRatesError, match="above 1"):
            entanglement_fidelity(CouplingRates(0.1, 1.0, 1.1))
        # within rounding of F = 1, and F < 1 at q |gamma_coop - gamma| < ln 2
        assert entanglement_fidelity(CouplingRates(0.1, 1e-20, 1.1e-20)) == 1.0
        assert entanglement_fidelity(CouplingRates(0.1, 0.1, 0.11)) < 1.0

    def test_matches_trajectory_maximum_without_coop(self):
        # grid max equals the closed form to 1e-6 once gamma/dw is small
        # (the true max sits slightly before t0, offset O((gamma/2 dw)^2))
        rates = CouplingRates(3.3, 3.3 * 2e-4, 0.0)
        t = np.linspace(0.0, math.pi / rates.delta_omega, 400001)
        traj = trajectory(rates, t)
        assert float(traj.bell_fidelity.max()) == pytest.approx(
            entanglement_fidelity(rates), abs=1e-6
        )

    def test_fig5a_reference_point(self, antipodal_027):
        rates = coupling_rates(_cfg(20.5, alpha=5e-4), antipodal_027)
        err = 1.0 - entanglement_fidelity(rates)
        assert 0.045 < err < 0.070  # published-curve level at that loss

    def test_error_monotone_in_alpha_and_radius(self, antipodal_027):
        errors = {}
        for nu_re in FOUR_ORDERS:
            per_alpha = []
            for alpha in (1e-4, 3e-4, 1e-3, 3e-3):
                rates = coupling_rates(_cfg(nu_re, alpha=alpha), antipodal_027)
                per_alpha.append(1.0 - entanglement_fidelity(rates))
            assert all(b > a for a, b in zip(per_alpha, per_alpha[1:]))
            errors[nu_re] = per_alpha[1]
        ordered = [errors[nu] for nu in FOUR_ORDERS]
        assert all(b > a for a, b in zip(ordered, ordered[1:]))

    def test_detuning_symmetry_of_image_model(self):
        # 1 - F symmetric about the half-integer order to 5% (the residual
        # asymmetry is the nu-linear gamma)
        alpha = 5e-4
        for dnu in (0.15, 0.3, 0.45):
            errs = []
            for sign in (+1, -1):
                cfg = _cfg(20.5 + sign * dnu, alpha=alpha)
                errs.append(1.0 - entanglement_fidelity(image_rates(cfg)))
            assert abs(errs[0] - errs[1]) / max(errs) < 0.05

    def test_detuning_u_shape_of_image_model(self):
        alpha = 5e-4
        center = 1.0 - entanglement_fidelity(image_rates(_cfg(20.5, alpha=alpha)))
        edge = 1.0 - entanglement_fidelity(image_rates(_cfg(20.95, alpha=alpha)))
        assert edge > 2.0 * center


class TestFidelityApprox:
    def test_reference_value(self):
        assert fidelity_approx(3.34, 5e-4) == pytest.approx(0.9496, abs=1e-4)

    def test_lossless(self):
        assert fidelity_approx(5.0, 0.0) == 1.0

    def test_agreement_with_exact_chain_at_reference(self, antipodal_027):
        rates = coupling_rates(_cfg(20.5, alpha=5e-4), antipodal_027)
        f33 = entanglement_fidelity(rates)
        f36 = fidelity_approx(radius_for_order(20.5), 5e-4)
        assert abs(f33 - f36) / f36 < 0.02


class TestFidelityWithFreespace:
    def test_published_estimate(self):
        assert fidelity_approx(1.749, 3.4e-3, 3.0) == pytest.approx(0.806, abs=5e-3)

    def test_eta_infinity_reduces_to_approx(self):
        a, r0 = 1e-3, 3.34
        assert fidelity_approx(r0, a, 1e12) == pytest.approx(
            fidelity_approx(r0, a), rel=1e-9
        )

    def test_default_eta_is_the_scaling_law_bit_for_bit(self, rng):
        for r0, a in zip(rng.uniform(0.1, 20.0, 20_000).tolist(), rng.uniform(0.0, 1e-2, 20_000).tolist()):
            assert fidelity_approx(r0, a) == math.exp(-math.pi**3 * r0 * a)

    def test_lossless(self):
        assert fidelity_approx(1.749, 0.0, 3.0) == 1.0

    def test_domain(self):
        for eta in (-1.0, 0.0, math.nan):
            with pytest.raises(DomainError):
                fidelity_approx(1.749, 1e-3, eta)
        for r0, a in ((0.0, 1e-3), (math.nan, 1e-3), (1.749, -1e-3), (1.749, math.nan)):
            with pytest.raises(DomainError):
                fidelity_approx(r0, a)


class TestAtomPairConfig:
    def test_antipodal_helper(self):
        atoms = AtomPairConfig.antipodal(0.27, 0.4)
        assert atoms.is_antipodal
        assert atoms.p1.rho == atoms.p2.rho == 0.27

    def test_non_antipodal_detected(self):
        atoms = AtomPairConfig(DiskPoint(0.3, 0.0), DiskPoint(0.4, math.pi))
        assert not atoms.is_antipodal



def _scalar_error(r0: float, alpha: float, atoms: AtomPairConfig) -> float:
    return 1.0 - entanglement_fidelity(coupling_rates(LensConfig(radius=r0, alpha=alpha), atoms))


def _batched_error(atoms: AtomPairConfig, radius, alpha) -> np.ndarray:
    """1 - F of the batched chain as the fidelity command forms it: coupling_rate_arrays, then fidelity_from_rates."""
    return 1.0 - fidelity_from_rates(*coupling_rate_arrays(atoms, radius, alpha, b=0.1))


class TestEntanglingError:
    """The batched rate chain against the scalar one, point by point."""

    def test_loss_grid(self, antipodal_027):
        radii = np.array([1.749, 3.34, 8.11, 14.48])
        alphas = np.logspace(-4, -2, 9)
        got = _batched_error(antipodal_027, radii[:, None], alphas)
        assert got.shape == (4, 9)
        want = np.array([[_scalar_error(r, a, antipodal_027) for a in alphas] for r in radii])
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_detuning_grid(self, antipodal_027):
        radii = np.array([radius_for_order(v + d) for v in (10.5, 50.5) for d in np.linspace(-0.45, 0.45, 9)])
        got = _batched_error(antipodal_027, radii, 5e-4)
        want = np.array([_scalar_error(r, 5e-4, antipodal_027) for r in radii])
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_radius_grid(self):
        # recurrence lengths n = 10 .. 90 in one call, off-axis atom pair
        atoms = AtomPairConfig(DiskPoint(0.3, 0.4), DiskPoint(0.55, 2.9))
        radii = np.array([radius_for_order(v) for v in np.arange(10.5, 91.0, 4.0)])
        got = _batched_error(atoms, radii, 5e-4)
        want = np.array([_scalar_error(r, 5e-4, atoms) for r in radii])
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_one_resonant_element_raises_like_the_scalar_chain(self, antipodal_027):
        on_resonance = radius_for_order(12.0)
        with pytest.raises(ResonanceError):
            _scalar_error(on_resonance, 0.0, antipodal_027)
        with pytest.raises(ResonanceError):
            _batched_error(antipodal_027, np.array([1.749, on_resonance, 3.34]), 0.0)

    def test_coincident_atoms_raise_like_the_scalar_chain(self):
        same = AtomPairConfig(DiskPoint(0.3, 0.5), DiskPoint(0.3, 0.5))
        with pytest.raises(DomainError):
            _scalar_error(3.34, 5e-4, same)
        with pytest.raises(DomainError):
            _batched_error(same, np.array([1.749, 3.34]), 5e-4)
        # the same point under another azimuth label: the Green's function diverges
        wrapped = AtomPairConfig(DiskPoint(0.3, 0.5), DiskPoint(0.3, 0.5 + 2.0 * math.pi))
        with pytest.raises(CoincidentPointsError):
            _scalar_error(3.34, 5e-4, wrapped)
        with pytest.raises(CoincidentPointsError):
            _batched_error(wrapped, np.array([1.749, 3.34]), 5e-4)

    @pytest.mark.parametrize("radius, alpha", [(np.array([3.34, -1.0]), 5e-4), (3.34, np.array([1e-3, -1e-4]))])
    def test_bad_lens_element_is_a_domain_error(self, radius, alpha, antipodal_027):
        with pytest.raises(DomainError):
            _batched_error(antipodal_027, radius, alpha)

    def test_zero_coupling_element_rejected(self, monkeypatch, antipodal_027):
        real = qed.greens_zz_orders

        def one_zero(*args):
            g = real(*args)
            g[1] = 0.0
            return g

        monkeypatch.setattr(qed, "greens_zz_orders", one_zero)
        with pytest.raises(ZeroCouplingError):
            _batched_error(antipodal_027, 3.34, np.array([1e-4, 1e-3, 1e-2]))

    def test_overflowing_element_raises_like_the_scalar_chain(self, antipodal_027, monkeypatch):
        # just below the integer order 21, |delta_omega| is small enough that,
        # without the on-site decay, cosh(pi |gamma_coop| / (4 |delta_omega|))
        # overflows
        near_integer = radius_for_order(20.99999)
        monkeypatch.setattr(qed, "_onsite_gamma", lambda b, nu, sin=None: 0.0 * np.real(nu))
        with pytest.raises(RangeOverflowError):
            _scalar_error(near_integer, 5e-4, antipodal_027)
        with pytest.raises(RangeOverflowError):
            _batched_error(antipodal_027, np.array([3.34, near_integer, 1.749]), 5e-4)

    def test_rates_above_the_on_site_decay_raise_like_the_scalar_chain(self, antipodal_027):
        # just above the integer order 20, |gamma_coop| / |gamma| ~ 1.076 and
        # F ~ 1.7e32
        above_integer = radius_for_order(20.00001)
        with pytest.raises(UnphysicalRatesError):
            _scalar_error(above_integer, 5e-4, antipodal_027)
        with pytest.raises(UnphysicalRatesError):
            _batched_error(antipodal_027, np.array([3.34, above_integer, 1.749]), 5e-4)

    def test_near_integer_order_is_finite_like_the_scalar_chain(self, antipodal_027):
        # q |gamma_coop| ~ 2,500 there, but |gamma_coop| < |gamma|: F is a
        # representable ~0, not an overflow
        near_integer = radius_for_order(20.99999)
        radii = np.array([3.34, near_integer, 1.749])
        got = _batched_error(antipodal_027, radii, 5e-4)
        want = [_scalar_error(r, 5e-4, antipodal_027) for r in radii]
        assert np.all(np.isfinite(got))
        assert got[1] == 1.0
        np.testing.assert_allclose(got, want, rtol=1e-12)
