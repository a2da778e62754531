import cmath
import math

import numpy as np
import pytest

from fisheye import cli
from fisheye import greens as greens_module
from fisheye.errors import CoincidentPointsError, DomainError, ResonanceError
from fisheye.greens import (
    ModeSumResult,
    _check_order,
    _xi_w,
    greens_modesum,
    greens_modesum_points,
    greens_zz,
    greens_zz_orders,
    source_asymptote,
    xi,
)
from fisheye.lens import OMEGA0, DiskPoint, LensConfig, order_parameter, radius_for_order
from fisheye.specfun import EULER_GAMMA, accelerate, digamma, legendre_nu, legendre_poly_table, source_offset


def _random_pair(rng, keep_apart=0.05):
    while True:
        p1 = DiskPoint(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0, 2 * math.pi)))
        p2 = DiskPoint(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0, 2 * math.pi)))
        if xi(p1.alpha, p2.alpha) + 1.0 > keep_apart:
            return p1, p2


class TestXi:
    def test_source_point(self):
        a = 0.4 * cmath.exp(0.9j)
        assert xi(a, a) == -1.0

    def test_image_of_antipode(self):
        # second argument = inverted antipode -> denominator pole -> xi = +1
        a1 = 0.27 * cmath.exp(0.3j)
        a2 = -a1
        assert xi(a1, 1.0 / np.conj(a2)) == 1.0

    def test_symmetry(self, rng):
        for _ in range(20):
            a1 = rng.uniform(0, 0.95) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            a2 = rng.uniform(0, 0.95) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            assert xi(a1, a2) == pytest.approx(xi(a2, a1), abs=1e-14)

    def test_range(self, rng):
        for _ in range(50):
            a1 = rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            a2 = rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            assert -1.0 <= xi(a1, a2) <= 1.0

    def test_zeta_pole_handled(self):
        assert xi(0.5, -2.0) == 1.0  # a1 conj(a2) + 1 = 0 exactly
        assert _xi_w(0.5, -2.0) == (1.0, 1.0)

    def test_w_keeps_relative_precision_near_the_source(self):
        # w = (1 + xi)/2 = m/(m + 1) with m = |zeta|^2, formed without 1 + xi
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        a1 = -0.9258287292817679
        a2 = a1 + np.logspace(-9, -1, 9)
        got_xi, got_w = _xi_w(a1, a2)
        for a, x, w in zip(a2.tolist(), got_xi, got_w):
            m2 = ((mpmath.mpf(a1) - a) / (mpmath.mpf(a1) * a + 1)) ** 2
            want = m2 / (m2 + 1)
            assert abs(w - want) <= 4e-16 * want
            assert (x, w) == _xi_w(a1, a)
            assert x == xi(a1, a)


class TestGreensZZ:
    def test_real_for_real_frequency(self, lens_20p5, rng):
        p1, p2 = _random_pair(rng)
        g = greens_zz(lens_20p5, p1, p2, OMEGA0)
        assert g.imag == 0.0

    def test_reciprocity(self, lens_20p5, rng):
        for _ in range(10):
            p1, p2 = _random_pair(rng)
            a = greens_zz(lens_20p5, p1, p2, OMEGA0)
            b = greens_zz(lens_20p5, p2, p1, OMEGA0)
            assert abs(a - b) <= 1e-10 * abs(a)

    def test_coincident_points_rejected(self, lens_20p5):
        p = DiskPoint(0.3, 1.0)
        with pytest.raises(CoincidentPointsError):
            greens_zz(lens_20p5, p, p, OMEGA0)

    def test_resonance_rejected(self):
        cfg = LensConfig(radius=radius_for_order(21.0))
        p1, p2 = DiskPoint(0.2, 0.0), DiskPoint(0.5, 1.0)
        with pytest.raises(ResonanceError):
            greens_zz(cfg, p1, p2, OMEGA0)

    def test_mirror_condition(self, lens_20p5):
        p1 = DiskPoint(0.3, 0.0)
        near = abs(greens_zz(lens_20p5, p1, DiskPoint(0.999, 2.0), OMEGA0))
        far = abs(greens_zz(lens_20p5, p1, DiskPoint(0.9, 2.0), OMEGA0))
        assert near * 10.0 <= far

    def test_antipodal_image_term_dominates(self, lens_20p5):
        # at the antipode the mirror-image argument hits +1 exactly, so
        # G*4b = (1 - P_nu(xi_src))/sin(pi nu); the source wave contributes
        # the fringe P_nu(xi_src) (~0.11 at rho = 0.27, nu = 20.5)
        p1 = DiskPoint(0.27, 0.0)
        g = greens_zz(lens_20p5, p1, p1.antipode(), OMEGA0)
        nu = order_parameter(lens_20p5, OMEGA0)
        fringe = legendre_nu(nu, xi(p1.alpha, p1.antipode().alpha)).real
        want = (1.0 - fringe) / math.sin(math.pi * nu.real)
        assert g * 4.0 * lens_20p5.b == pytest.approx(want, rel=1e-12)
        assert abs(abs(g * 4.0 * lens_20p5.b) - 1.0) < 0.15  # fringe-size window

    def test_center_point_image_limit(self, lens_20p5):
        # atom 2 at the disk center: the inverted image argument diverges but
        # xi_img stays finite; value must match the mode sum
        p1, p2 = DiskPoint(0.5, 0.7), DiskPoint(0.0, 0.0)
        g = greens_zz(lens_20p5, p1, p2, OMEGA0)
        m = greens_modesum(lens_20p5, p1, p2, OMEGA0)
        assert g == pytest.approx(m.value.real, rel=1e-9)


class TestGreensZZPoints:
    @pytest.mark.parametrize("alpha", [0.0, 5e-4])
    def test_matches_scalar(self, alpha, rng):
        cfg = LensConfig(radius=radius_for_order(20.5), alpha=alpha)
        p1 = DiskPoint(0.27, 0.4)
        rho2 = np.concatenate([rng.uniform(0.0, 0.999, 40), [0.0, 0.27, 1.0]])
        phi2 = np.concatenate([rng.uniform(0.0, 2 * math.pi, 40), [0.0, 0.4 + math.pi, 2.0]])
        got = greens_zz_orders(cfg.b, order_parameter(cfg, OMEGA0), p1.rho, p1.phi, rho2, phi2)
        want = np.array(
            [greens_zz(cfg, p1, DiskPoint(r, f), OMEGA0) for r, f in zip(rho2, phi2)]
        )
        assert got.shape == rho2.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_first_point_broadcasts(self, rng):
        # one pair per element: both points run over arrays, broadcast together
        cfg = LensConfig(radius=radius_for_order(20.5), alpha=5e-4)
        rho1, phi1 = rng.uniform(0.0, 0.999, (3, 1)), rng.uniform(0.0, 2 * math.pi, (3, 1))
        rho2, phi2 = rng.uniform(0.0, 0.999, 5), np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        got = greens_zz_orders(cfg.b, order_parameter(cfg, OMEGA0), rho1, phi1, rho2, phi2)
        assert got.shape == (3, 5)
        want = np.array(
            [[greens_zz(cfg, DiskPoint(r1, f1), DiskPoint(r2, f2), OMEGA0) for r2, f2 in zip(rho2, phi2)]
             for r1, f1 in zip(rho1[:, 0], phi1[:, 0])]
        )
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        with pytest.raises(DomainError):
            greens_zz_orders(cfg.b, order_parameter(cfg, OMEGA0), np.array([0.3, 1.2]), 0.0, 0.5, 1.0)

    def test_coincident_point_rejected(self, lens_20p5):
        p1 = DiskPoint(0.3, 1.0)
        nu = order_parameter(lens_20p5, OMEGA0)
        with pytest.raises(CoincidentPointsError):
            greens_zz_orders(lens_20p5.b, nu, p1.rho, p1.phi, np.array([0.5, 0.3]), np.array([0.0, 1.0]))

    @staticmethod
    def _closed_form_mpmath(r0, rho1, rho2):
        """-(P_nu(xi_src) - P_nu(xi_img))/(4 b sin(pi nu)) at 40 digits, points on the phi = pi ray."""
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40

        def xi40(a, b):
            m2 = ((a - b) / (a * b + 1)) ** 2
            return (m2 - 1) / (m2 + 1)

        k = 2 * mpmath.pi * mpmath.mpf(r0)
        nu = (mpmath.sqrt(4 * k**2 + 1) - 1) / 2
        a1, a2 = -mpmath.mpf(rho1), -mpmath.mpf(rho2)
        p_src = mpmath.legenp(nu, 0, xi40(a1, a2), type=2)
        p_img = mpmath.legenp(nu, 0, xi40(a1, 1 / a2), type=2)
        return complex(-(p_src - p_img) / (4 * mpmath.mpf(0.1) * mpmath.sin(mpmath.pi * nu)))

    def test_ddi_sweep_point_next_to_the_source_against_mpmath(self):
        # ddi-sweep --radii 14.48 --offset 1.074: the grid point x = -13.4047
        # lies 1.3e-3 from the fixed atom, where 1 + xi = 4.6e-9; forming 1 + xi
        # from xi cost 2.3e-9 relative here
        r0, offset = 14.48, 1.074
        x1 = -(r0 - offset)
        xs = np.linspace(-r0 * 0.999, r0 * 0.999, 1201)
        x2 = xs[np.argmin(np.abs(xs - x1))]
        assert x2 == -13.4047152
        cfg, p1 = LensConfig(radius=r0, b=0.1), DiskPoint(abs(x1) / r0, math.pi)
        want = self._closed_form_mpmath(r0, abs(x1) / r0, abs(x2) / r0)
        nu = order_parameter(cfg, OMEGA0)
        got = greens_zz_orders(cfg.b, nu, p1.rho, p1.phi, np.array([abs(x2) / r0]), np.array([math.pi]))[0]
        assert abs(got - want) <= 1e-12 * abs(want)
        scalar = greens_zz(cfg, p1, DiskPoint(abs(x2) / r0, math.pi), OMEGA0)
        assert abs(scalar - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("r0", [4.93, 14.48])
    def test_near_source_envelope_against_mpmath(self, r0):
        # 1 + xi from ~1e-13 to ~1e-3; worst 2.9e-12 relative (R0 = 14.48)
        rho1 = (r0 - 1.074) / r0
        rho2 = rho1 - np.logspace(-6.5, -1.5, 11)
        cfg, p1 = LensConfig(radius=r0, b=0.1), DiskPoint(rho1, math.pi)
        got = greens_zz_orders(cfg.b, order_parameter(cfg, OMEGA0), p1.rho, p1.phi, rho2, np.full(rho2.size, math.pi))
        want = np.array([self._closed_form_mpmath(r0, rho1, r) for r in rho2.tolist()])
        assert np.all(np.abs(got - want) <= 1e-11 * np.abs(want))

    def test_radius_outside_disk_rejected(self, lens_20p5):
        with pytest.raises(DomainError):
            greens_zz_orders(lens_20p5.b, order_parameter(lens_20p5, OMEGA0), 0.3, 1.0, np.array([0.5, 1.2]), 0.0)

    @pytest.mark.parametrize("offset", [1.0, 1.074])
    @pytest.mark.parametrize("r0", [4.93, 8.11, 11.3, 14.48])
    def test_one_call_equals_separate_source_and_image_calls(self, r0, offset):
        # the ddi-sweep grid; offset 1.074 puts a point 1.3e-3 from the source
        # at R0 = 14.48.  Stacking the source and image arguments into one
        # legendre_nu call must not move a bit: every element keeps its own
        # branch, stopping rule and recurrence.
        cfg = LensConfig(radius=r0, b=0.1)
        x1 = -(r0 - offset)
        p1 = DiskPoint(abs(x1) / r0, math.pi)
        xs = np.linspace(-r0 * 0.999, r0 * 0.999, 1201)
        xs = xs[np.abs(xs - x1) >= 1e-9]
        rho2, phi2 = np.abs(xs) / r0, np.where(xs < 0, math.pi, 0.0)
        got = greens_zz_orders(cfg.b, order_parameter(cfg, OMEGA0), p1.rho, p1.phi, rho2, phi2)

        nu = order_parameter(cfg, OMEGA0)
        a2 = rho2 * np.exp(1j * phi2)
        xi_src, w_src = _xi_w(p1.alpha, a2)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi_img, w_img = _xi_w(p1.alpha, 1.0 / np.conj(a2))
        center = rho2 == 0.0
        xi_img = np.where(center, (1.0 - p1.rho**2) / (1.0 + p1.rho**2), xi_img)
        w_img = np.where(center, 1.0 / (1.0 + p1.rho**2), w_img)
        s = _check_order(nu)
        want = -(legendre_nu(nu, xi_src, w=w_src) - legendre_nu(nu, xi_img, w=w_img)) / (4.0 * cfg.b * s)
        assert got.tobytes() == want.tobytes()

    def test_ddi_sweep_makes_one_legendre_call_per_radius(self, monkeypatch, tmp_path):
        calls = []
        real = greens_module.legendre_nu

        def counting(nu, x, **kwargs):
            calls.append(np.shape(x))
            return real(nu, x, **kwargs)

        monkeypatch.setattr(greens_module, "legendre_nu", counting)
        assert cli.main(["ddi-sweep", "--radii", "4.93,8.11", "--out", str(tmp_path / "d.csv")]) == 0
        assert calls == [(1201, 2), (1201, 2)]


class TestGreensZZOrders:
    def test_matches_scalar_over_frequency_and_radius(self, rng):
        p1, p2 = _random_pair(rng)
        radii = np.array([1.749, 3.34, 8.11, 14.48])[:, None]
        omega = OMEGA0 * (1.0 + 1j * np.array([0.0, 1e-4, 3e-3, 1e-2]))
        nu = np.array([[order_parameter(LensConfig(radius=r), w) for w in omega] for r in radii[:, 0]])
        got = greens_zz_orders(0.1, nu, p1.rho, p1.phi, p2.rho, p2.phi)
        assert got.shape == nu.shape
        want = np.array([[greens_zz(LensConfig(radius=r), p1, p2, w) for w in omega] for r in radii[:, 0]])
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_orders_broadcast_against_points(self, rng):
        # (R, 1) orders x (N,) second points -> (R, N), each row the points sweep at its radius
        radii = np.array([1.749, 3.34, 8.11, 14.48])
        nu = np.array([[order_parameter(LensConfig(radius=r), OMEGA0)] for r in radii])
        p1 = DiskPoint(0.27, 0.4)
        rho2 = np.concatenate([rng.uniform(0.0, 0.999, 30), [0.0, 0.27, 1.0]])
        phi2 = np.concatenate([rng.uniform(0.0, 2 * math.pi, 30), [0.0, 0.4 + math.pi, 2.0]])
        got = greens_zz_orders(0.1, nu, p1.rho, p1.phi, rho2, phi2)
        assert got.shape == (radii.size, rho2.size)
        for row, r in zip(got, radii):
            want = greens_zz_orders(0.1, order_parameter(LensConfig(radius=r), OMEGA0), p1.rho, p1.phi, rho2, phi2)
            assert row.tobytes() == want.tobytes()

    def test_scalar_order_gives_greens_zz(self, lens_20p5, rng):
        p1, p2 = _random_pair(rng)
        nu = order_parameter(lens_20p5, OMEGA0)
        assert greens_zz_orders(lens_20p5.b, nu, p1.rho, p1.phi, p2.rho, p2.phi) == greens_zz(lens_20p5, p1, p2, OMEGA0)

    def test_one_resonant_order_rejected(self, rng):
        p1, p2 = _random_pair(rng)
        with pytest.raises(ResonanceError):
            greens_zz_orders(0.1, np.array([10.5, 12.0, 13.5 + 0.1j]), p1.rho, p1.phi, p2.rho, p2.phi)

    def test_coincident_points_rejected(self):
        with pytest.raises(CoincidentPointsError):
            greens_zz_orders(0.1, np.array([10.5, 20.5]), 0.4, 1.0, 0.4, 1.0 + 2.0 * math.pi)

    @pytest.mark.parametrize("alpha", [0.0, 5e-4])
    def test_greens_zz_is_the_matching_array_element_bit_for_bit(self, alpha, rng):
        cfg = LensConfig(radius=radius_for_order(20.5), alpha=alpha)
        omega = OMEGA0 * (1.0 + 1j * alpha)
        rho1, phi1 = rng.uniform(0.0, 0.999, 60), rng.uniform(0.0, 2 * math.pi, 60)
        rho2, phi2 = rng.uniform(0.0, 0.999, 60), rng.uniform(0.0, 2 * math.pi, 60)
        rho2[:2] = 0.0  # the center limit of the image argument
        got = greens_zz_orders(cfg.b, order_parameter(cfg, omega), rho1, phi1, rho2, phi2)
        for i in range(rho1.size):
            one = greens_zz(cfg, DiskPoint(rho1[i], phi1[i]), DiskPoint(rho2[i], phi2[i]), omega)
            assert type(one) is complex
            assert np.complex128(one).tobytes() == got[i].tobytes()


class TestModeSum:
    def test_fredholm_equivalence_random_pairs(self, rng):
        for want in (10.5, 20.5, 50.5):
            cfg = LensConfig(radius=radius_for_order(want))
            for _ in range(5):
                p1, p2 = _random_pair(rng)
                g = greens_zz(cfg, p1, p2, OMEGA0)
                res = greens_modesum(cfg, p1, p2, OMEGA0, tol=1e-9)
                assert isinstance(res, ModeSumResult)
                assert res.converged
                assert abs(g - res.value) / abs(g) < 1e-6

    def test_lossy_frequency_agreement(self, lens_20p5, rng):
        omega = OMEGA0 * (1 + 5e-4j)
        p1, p2 = _random_pair(rng)
        g = greens_zz(lens_20p5, p1, p2, omega)
        m = greens_modesum(lens_20p5, p1, p2, omega, tol=1e-9).value
        assert abs(g - m) / abs(g) < 1e-6

    def test_truncation_insensitivity_at_antipode(self, lens_20p5):
        p1 = DiskPoint(0.27, 0.0)
        nu_re = order_parameter(lens_20p5, OMEGA0).real
        vals = []
        for fac in (4, 8):
            l_max = fac * math.ceil(nu_re)
            vals.append(
                greens_modesum(lens_20p5, p1, p1.antipode(), OMEGA0, l_max=l_max).value
            )
        assert abs(vals[1] - vals[0]) / abs(vals[1]) < 1e-6

    def test_near_resonance_single_pole_dominance(self):
        # nu within 1e-3 of integer: the resonant l term carries the sum
        nu_target = 21.0 + 1e-3
        cfg = LensConfig(radius=radius_for_order(nu_target))
        p1, p2 = DiskPoint(0.31, 0.2), DiskPoint(0.62, 2.9)
        total = greens_modesum(cfg, p1, p2, OMEGA0, tol=1e-9).value
        nu = order_parameter(cfg, OMEGA0)
        l = 21
        xi_src = xi(p1.alpha, p2.alpha)
        xi_img = xi(p1.alpha, 1.0 / np.conj(p2.alpha))
        p_src, p_img = legendre_poly_table(l, np.array([xi_src, xi_img]))[l]
        pole_term = (
            -1.0
            / (4.0 * math.pi * cfg.b)
            * (-1.0) ** l
            * (2 * l + 1)
            * (p_src - p_img)
            / (nu * (nu + 1.0) - l * (l + 1.0))
        )
        assert abs(pole_term) / abs(total) > 0.9

    def test_source_exclusion_enforced(self, lens_20p5):
        p1 = DiskPoint(0.5, 0.0)
        p2 = DiskPoint(0.5001, 0.0)
        with pytest.raises(CoincidentPointsError):
            greens_modesum(lens_20p5, p1, p2, OMEGA0)


def _modesum_reference(cfg, p1, p2, omega, l_max, tol):
    """One pair's mode sum with scalar Legendre tables and a 1-D Wynn call per l_max: (value, l_max, error)."""
    nu = order_parameter(cfg, omega)
    xi_src = xi(p1.alpha, p2.alpha)
    xi_img = xi(p1.alpha, 1.0 / np.conj(p2.alpha)) if p2.rho else (1.0 - p1.rho**2) / (1.0 + p1.rho**2)
    while True:
        ls = np.arange(l_max + 1, dtype=float)
        terms = (-1.0) ** ls * (2.0 * ls + 1.0) * (legendre_poly_table(l_max, xi_src) - legendre_poly_table(l_max, xi_img))
        value, err = accelerate(np.cumsum(terms / (nu * (nu + 1.0) - ls * (ls + 1.0)))[1:])
        value, err = value * -1.0 / (4.0 * math.pi * cfg.b), err / (4.0 * math.pi * cfg.b)
        if err <= tol * abs(value):
            return value, l_max, err
        l_max *= 2


class TestModeSumPoints:
    """greens_modesum_points over a batch of pairs, each doubling l_max on its own."""

    PAIRS = [(0.3, 0.1, 0.6, 2.0), (0.5, 1.0, 0.2, 3.1), (0.7, 2.0, 0.4, 0.3), (0.2, 3.0, 0.8, 1.2),
             (0.45, 4.0, 0.55, 5.5), (0.6, 5.0, 0.3, 4.4), (0.8, 0.5, 0.25, 3.3), (0.35, 2.5, 0.0, 0.0)]

    @pytest.mark.parametrize("omega", [OMEGA0, OMEGA0 * (1 + 5e-4j)])
    def test_each_pair_equals_the_one_pair_call(self, omega):
        # from l_max = 32 the pairs stop at 32, 64 and 128
        cfg = LensConfig(radius=radius_for_order(10.5))
        rho1, phi1, rho2, phi2 = np.array(self.PAIRS).T
        got = greens_modesum_points(cfg, rho1, phi1, rho2, phi2, omega, l_max=32, tol=1e-9)
        assert len(set(got.l_max.tolist())) == 3
        for i, (r1, f1, r2, f2) in enumerate(self.PAIRS):
            one = greens_modesum(cfg, DiskPoint(r1, f1), DiskPoint(r2, f2), omega, l_max=32, tol=1e-9)
            assert type(one.value) is complex and type(one.l_max) is int and type(one.converged) is bool
            assert (one.value, one.l_max, one.tail_estimate, one.converged) == (
                complex(got.value[i]), int(got.l_max[i]), float(got.tail_estimate[i]), bool(got.converged[i])
            )
            want = _modesum_reference(cfg, DiskPoint(r1, f1), DiskPoint(r2, f2), omega, 32, 1e-9)
            assert abs(one.value - want[0]) <= 1e-13 * abs(want[0]) and one.l_max == want[1]

    def test_a_pair_near_its_source_raises_for_the_batch(self, lens_20p5):
        rho1, phi1, rho2, phi2 = np.array(self.PAIRS[:3] + [(0.5, 0.0, 0.5001, 0.0)]).T
        with pytest.raises(CoincidentPointsError, match="near the source point"):
            greens_modesum_points(lens_20p5, rho1, phi1, rho2, phi2, OMEGA0)

    def test_rho_outside_the_disk_rejected(self, lens_20p5):
        with pytest.raises(DomainError):
            greens_modesum_points(lens_20p5, 0.3, 0.0, 1.2, 1.0, OMEGA0)


class TestSourceAsymptote:
    def test_matches_legendre_near_singularity(self):
        nu = 10.5
        x = -1.0 + 1e-5
        model = source_asymptote(nu, x)
        direct = legendre_nu(nu, x)
        assert abs(model - direct) / abs(direct) < 1e-3

    def test_offset_at_half(self):
        # F(0.5) = 2 gamma + 2 psi(3/2) + pi cot(pi/2); psi(3/2) = 2 - gamma - 2 ln 2
        want = 2.0 * EULER_GAMMA + 2.0 * (2.0 - EULER_GAMMA - 2.0 * math.log(2.0))
        assert source_offset(0.5) == pytest.approx(want, rel=1e-13)
        assert complex(digamma(1.5)) == pytest.approx(2.0 - EULER_GAMMA - 2.0 * math.log(2.0), rel=1e-13)

    def test_real_degree_has_real_offset(self):
        assert source_offset(10.5).imag == 0.0
        assert source_asymptote(10.5, -0.995).imag == 0.0

    def test_domain_window(self):
        with pytest.raises(DomainError):
            source_asymptote(10.5, -0.5)

    def test_resonance_guard(self):
        # F(nu) has a pole at an integer degree, where sin(pi nu) is exactly 0
        with pytest.raises(ResonanceError):
            source_asymptote(7.0, -0.995)
