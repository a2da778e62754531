import math
import warnings

import numpy as np
import pytest

from fisheye.errors import DomainError, NonConvergenceError, ThinDiskWarning
from fisheye.lens import (
    OMEGA0,
    DiskPoint,
    LensConfig,
    ModeIndex,
    allowed_m,
    eigenfrequency,
    mode_function,
    order_parameter,
    orthonormality_check,
    radial_mean_index,
    radius_for_order,
    refractive_index,
    stereo_theta,
)
from fisheye.specfun import _theta_lm


class TestLensConfig:
    def test_invariants_enforced(self):
        with pytest.raises(DomainError):
            LensConfig(radius=-1.0)
        with pytest.raises(DomainError):
            LensConfig(radius=1.0, b=0.0)
        with pytest.raises(DomainError):
            LensConfig(radius=1.0, n0=0.5)
        with pytest.raises(DomainError):
            LensConfig(radius=1.0, alpha=-1e-4)

    def test_thin_disk_warning(self):
        with pytest.warns(ThinDiskWarning):
            LensConfig(radius=2.0, b=0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            LensConfig(radius=2.0, b=0.1)

    def test_kappa(self):
        assert LensConfig(radius=2.0, alpha=5e-4).kappa == pytest.approx(5e-4 * OMEGA0)


class TestRefractiveIndex:
    def test_center_and_rim(self):
        cfg = LensConfig(radius=2.0, n0=1.5)
        assert refractive_index(cfg, 0.0) == 3.0
        assert refractive_index(cfg, 1.0) == 1.5

    def test_array_elementwise(self):
        cfg = LensConfig(radius=2.0, n0=1.5)
        rho = np.linspace(0.0, 1.3, 27)
        np.testing.assert_array_equal(refractive_index(cfg, rho), [refractive_index(cfg, float(r)) for r in rho])
        with pytest.raises(DomainError):
            refractive_index(cfg, np.array([0.5, -0.1]))

    def test_radial_mean_is_half_pi(self):
        # quadrature vs the analytic 2 n0 arctan(1) = n0 pi/2
        cfg = LensConfig(radius=3.0)
        rho = np.linspace(0.0, 1.0, 20001)
        mean = np.trapezoid([refractive_index(cfg, r) for r in rho], rho)
        assert mean == pytest.approx(math.pi / 2.0, abs=1e-6)
        assert radial_mean_index(cfg) == pytest.approx(math.pi / 2.0, rel=1e-15)


class TestStereoTheta:
    def test_endpoints(self):
        assert stereo_theta(0.0) == pytest.approx(math.pi)
        assert stereo_theta(1.0) == pytest.approx(math.pi / 2.0)

    def test_round_trip(self):
        for rho in np.linspace(0.0, 1.0, 101):
            u = math.cos(stereo_theta(float(rho)))
            assert abs(u - (rho * rho - 1.0) / (rho * rho + 1.0)) < 1e-14


class TestEigenfrequency:
    def test_l1_unit_radius(self):
        assert eigenfrequency(LensConfig(radius=1.0), 1) == pytest.approx(math.sqrt(2.0))

    def test_asymptotic_spacing(self):
        cfg = LensConfig(radius=2.7)
        spacing = eigenfrequency(cfg, 501) - eigenfrequency(cfg, 500)
        assert spacing == pytest.approx(1.0 / cfg.radius, rel=1e-3)

    def test_half_integer_order_sits_midway(self):
        cfg = LensConfig(radius=1.749)
        gap_below = OMEGA0 - eigenfrequency(cfg, 10)
        gap_above = eigenfrequency(cfg, 11) - OMEGA0
        assert gap_below > 0 and gap_above > 0
        assert gap_below == pytest.approx(gap_above, rel=5e-3)


class TestOrderParameter:
    @pytest.mark.parametrize(
        "radius,want",
        [(1.749, 10.5), (3.34, 20.5), (8.11, 50.5), (14.48, 90.5)],
    )
    def test_published_working_points(self, radius, want):
        nu = order_parameter(LensConfig(radius=radius), OMEGA0)
        assert abs(nu.real - want) < 0.05
        assert nu.imag == 0.0

    def test_radius_4p93(self):
        nu = order_parameter(LensConfig(radius=4.93), OMEGA0)
        assert nu.real == pytest.approx(30.48, abs=0.01)

    def test_small_loss_scaling(self):
        # Im nu is first order in alpha (linear to 1e-4 between two decades);
        # the ratio Im/Re equals alpha only up to the O(1/(2 nu)) offset from
        # the "-1/2" in the definition (~0.8% at R0 = 10).
        cfg = LensConfig(radius=10.0)
        slopes = [
            order_parameter(cfg, OMEGA0 * (1 + 1j * a)).imag / a for a in (1e-4, 1e-3)
        ]
        assert slopes[0] == pytest.approx(slopes[1], rel=1e-4)
        nu = order_parameter(cfg, OMEGA0 * (1 + 1j * 1e-3))
        assert nu.imag / nu.real == pytest.approx(1e-3, rel=1e-2)

    def test_monotone_in_radius(self):
        radii = np.linspace(0.5, 20.0, 40)
        nus = [order_parameter(LensConfig(radius=float(r)), OMEGA0).real for r in radii]
        assert all(b > a for a, b in zip(nus, nus[1:]))

    def test_radius_for_order_inverts(self):
        for want in (10.5, 20.5, 50.5, 90.5):
            r0 = radius_for_order(want)
            assert order_parameter(LensConfig(radius=r0), OMEGA0).real == pytest.approx(want, abs=1e-12)


class TestAllowedM:
    def test_published_examples(self):
        assert allowed_m(1) == [0]
        assert allowed_m(2) == [-1, 1]
        assert allowed_m(4) == [-3, -1, 1, 3]

    @pytest.mark.parametrize("l", [1, 2, 17, 304, 1000])
    def test_degeneracy_count(self, l):
        ms = allowed_m(l)
        assert len(ms) == l
        assert all(abs(m) <= l - 1 and (l - m) % 2 == 1 for m in ms)

    def test_mode_index_validation(self):
        ModeIndex(4, 3)
        with pytest.raises(DomainError):
            ModeIndex(4, 2)
        with pytest.raises(DomainError):
            ModeIndex(4, 5)


class TestModeFunction:
    def test_vanishes_on_mirror(self):
        cfg = LensConfig(radius=2.0)
        p = DiskPoint(1.0, 0.83)
        for l in range(1, 41, 4):
            for m in allowed_m(l)[: 3]:
                assert abs(mode_function(cfg, ModeIndex(l, m), p)) < 1e-12

    def test_center_value_l1(self):
        cfg = LensConfig(radius=2.0, b=0.1)
        got = mode_function(cfg, ModeIndex(1, 0), DiskPoint(0.0, 0.0))
        want = -math.sqrt(2.0 / (cfg.b * cfg.radius**2)) * math.sqrt(3.0 / (4.0 * math.pi))
        assert got == pytest.approx(want, rel=1e-14)


class TestOrthonormality:
    def test_normalization(self):
        cfg = LensConfig(radius=2.0)
        val = orthonormality_check(cfg, ModeIndex(5, 2), ModeIndex(5, 2))
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_azimuthal_orthogonality_is_exact(self):
        cfg = LensConfig(radius=2.0)
        assert orthonormality_check(cfg, ModeIndex(5, 2), ModeIndex(5, 4)) == 0.0

    def test_same_m_different_l(self):
        cfg = LensConfig(radius=2.0)
        val = orthonormality_check(cfg, ModeIndex(4, 1), ModeIndex(6, 1))
        assert abs(val) < 1e-6

    def test_example_pair_l3(self):
        cfg = LensConfig(radius=2.0)
        assert abs(orthonormality_check(cfg, ModeIndex(3, 0), ModeIndex(3, 2))) < 1e-8

    def test_identity_matrix_low_l(self):
        cfg = LensConfig(radius=2.0)
        modes = [ModeIndex(l, m) for l in range(1, 9) for m in allowed_m(l)]
        worst = 0.0
        for i, ma in enumerate(modes):
            for mb in modes[i:]:
                want = 1.0 if ma == mb else 0.0
                got = orthonormality_check(cfg, ma, mb, quadrature_n=64)
                worst = max(worst, abs(got - want))
        assert worst < 1e-6

    def test_matches_per_node_quadrature(self):
        # the batched integrand on the cached rule is the old per-node sum, bit for bit
        cfg = LensConfig(radius=2.0)
        for ma, mb in [(ModeIndex(5, 2), ModeIndex(5, 2)), (ModeIndex(4, 1), ModeIndex(6, 1)),
                       (ModeIndex(12, -3), ModeIndex(8, -3))]:
            nodes, weights = np.polynomial.legendre.leggauss(256)
            u, w = 0.5 * (nodes - 1.0), 0.5 * weights
            vals = np.array([_theta_lm(ma.l, ma.m, ui) * _theta_lm(mb.l, mb.m, ui) for ui in u])
            want = 4.0 * math.pi * float(np.dot(w, vals))
            assert orthonormality_check(cfg, ma, mb) == complex(want)

    def test_unsettled_quadrature_raises(self):
        # l = 80 needs more than 64 nodes: doubling moves the result by ~3e-8
        cfg = LensConfig(radius=2.0)
        with pytest.raises(NonConvergenceError):
            orthonormality_check(cfg, ModeIndex(80, 1), ModeIndex(80, 1), quadrature_n=64)

    def test_quadrature_floor(self):
        cfg = LensConfig(radius=2.0)
        with pytest.raises(DomainError):
            orthonormality_check(cfg, ModeIndex(2, 1), ModeIndex(2, 1), quadrature_n=32)
