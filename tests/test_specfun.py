import math

import numpy as np
import pytest
import scipy.special as sp

from fisheye.errors import DomainError, NonConvergenceError, PoleError
from fisheye.lens import _gauss_rule, allowed_m
from fisheye.specfun import (
    EULER_GAMMA,
    _theta_lm,
    accelerate,
    assoc_legendre,
    digamma,
    legendre_nu,
    legendre_nu_expansion,
    legendre_poly,
    legendre_poly_table,
    spherical_harmonic,
)


class TestDigamma:
    def test_classical_identities(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-14)
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-14)
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-13)

    @pytest.mark.parametrize("z", [0.3, 7.9, 250.0, 999.0, 3.7 + 2.1j, -4.3 + 0.5j, 0.5 - 80.0j])
    def test_against_scipy(self, z):
        assert digamma(z) == pytest.approx(complex(sp.digamma(z)), rel=1e-12)

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0, -3.0 + 1e-13j])
    def test_pole_error(self, z):
        with pytest.raises(PoleError):
            digamma(z)

    def test_array_matches_scalar(self, rng):
        z = np.concatenate([
            rng.uniform(-95.0, 95.0, 400) + 1j * rng.uniform(-3.0, 3.0, 400),
            -rng.uniform(0.001, 1.999, 100) + 1j * rng.uniform(-1e-3, 1e-3, 100),
            [0.3, 7.9, 250.0, 999.0, 3.7 + 2.1j, -4.3 + 0.5j, 0.5 - 80.0j, 0.2 + 9.0j, 10.0, 9.5],
        ]).reshape(2, -1)
        got = digamma(z)
        assert got.shape == z.shape and got.dtype == complex
        want = np.array([digamma(v) for v in z.ravel().tolist()]).reshape(z.shape)
        assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want))

    def test_array_against_scipy(self):
        z = np.array([0.3, 7.9, 250.0, 999.0, 3.7 + 2.1j, -4.3 + 0.5j, 0.5 - 80.0j, -0.457 + 0.01j])
        want = sp.digamma(z)
        assert np.all(np.abs(digamma(z) - want) <= 1e-12 * np.abs(want))

    def test_array_against_mpmath_near_the_seed_degrees(self):
        mpmath = pytest.importorskip("mpmath")
        d = np.linspace(0.01, 0.99, 7) + 0.3j
        z = np.concatenate([-d, d + 1.0])
        want = np.array([complex(mpmath.digamma(mpmath.mpc(v.real, v.imag))) for v in z])
        assert np.all(np.abs(digamma(z) - want) <= 1e-12 * np.abs(want))

    def test_array_pole_error_on_one_element(self):
        with pytest.raises(PoleError):
            digamma(np.array([2.5 + 0.1j, -3.0, 7.0]))


class TestLegendrePoly:
    def test_low_degrees(self):
        assert legendre_poly(0, 0.7) == 1.0
        assert legendre_poly(1, -0.4) == -0.4

    def test_degree_five_against_explicit_coefficients(self):
        # P5(x) = (63 x^5 - 70 x^3 + 15 x)/8
        x = 0.3
        explicit = (63.0 * x**5 - 70.0 * x**3 + 15.0 * x) / 8.0
        assert legendre_poly(5, x) == pytest.approx(explicit, abs=1e-15)

    def test_table_matches_scalar(self, rng):
        x = float(rng.uniform(-1, 1))
        table = legendre_poly_table(30, x)
        for l in (0, 3, 17, 30):
            assert table[l] == pytest.approx(legendre_poly(l, x), abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            legendre_poly(-1, 0.0)
        with pytest.raises(DomainError):
            legendre_poly(3, 1.5)


class TestAssocLegendre:
    def test_m0_reduces_to_legendre(self):
        assert assoc_legendre(1, 0, 0.43) == pytest.approx(0.43, abs=1e-15)
        assert assoc_legendre(6, 0, -0.2) == pytest.approx(legendre_poly(6, -0.2), abs=1e-14)

    def test_condon_shortley_sign(self):
        # P_1^1(0) = -1 with the Condon-Shortley phase
        assert assoc_legendre(1, 1, 0.0) == pytest.approx(-1.0, abs=1e-15)

    @pytest.mark.parametrize("l,m", [(4, 2), (7, -3), (10, 10), (12, -1)])
    def test_against_scipy(self, l, m, rng):
        x = float(rng.uniform(-0.95, 0.95))
        assert assoc_legendre(l, m, x) == pytest.approx(float(sp.lpmv(m, l, x)), rel=1e-11)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            assoc_legendre(2, 3, 0.1)


class TestSphericalHarmonic:
    def test_y00(self):
        assert spherical_harmonic(0, 0, 1.2, 0.3) == pytest.approx(
            1.0 / math.sqrt(4.0 * math.pi), abs=1e-15
        )

    def test_y11_convention_fixture(self):
        # Y_1^1(pi/2, 0) = -sqrt(3/8pi) under Condon-Shortley
        want = -math.sqrt(3.0 / (8.0 * math.pi))
        assert spherical_harmonic(1, 1, math.pi / 2, 0.0) == pytest.approx(want, abs=1e-14)

    def test_zero_separation_sum_rule(self):
        l, theta, phi = 7, 1.1, 0.4
        total = sum(abs(spherical_harmonic(l, m, theta, phi)) ** 2 for m in range(-l, l + 1))
        assert total == pytest.approx((2 * l + 1) / (4.0 * math.pi), rel=1e-13)

    def test_parity_reflection(self):
        l, m, theta, phi = 6, 3, 0.7, 1.9
        lhs = spherical_harmonic(l, m, math.pi - theta, phi)
        rhs = (-1.0) ** (l - m) * spherical_harmonic(l, m, theta, phi)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("l", [1, 5, 13, 30])
    def test_addition_theorem_randomized(self, l, rng):
        t1, t2 = rng.uniform(0.05, math.pi - 0.05, 2)
        p1, p2 = rng.uniform(0.0, 2.0 * math.pi, 2)
        lhs = sum(
            np.conj(spherical_harmonic(l, m, t1, p1)) * spherical_harmonic(l, m, t2, p2)
            for m in range(-l, l + 1)
        )
        c12 = math.cos(t1) * math.cos(t2) + math.sin(t1) * math.sin(t2) * math.cos(p1 - p2)
        rhs = (2 * l + 1) / (4.0 * math.pi) * legendre_poly(l, c12)
        assert complex(lhs) == pytest.approx(rhs, abs=1e-10)

    @pytest.mark.parametrize("l,m", [(3, 2), (9, -7), (25, 13)])
    def test_against_scipy(self, l, m, rng):
        theta = float(rng.uniform(0.1, math.pi - 0.1))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        want = complex(sp.sph_harm_y(l, m, theta, phi))
        assert spherical_harmonic(l, m, theta, phi) == pytest.approx(want, rel=1e-11)


class TestThetaLmArray:
    """_theta_lm over an array of u, as the orthonormality quadrature calls it."""

    @pytest.mark.parametrize("npts", [64, 128])
    def test_equals_scalar_evaluation_at_gauss_nodes(self, npts):
        u, _ = _gauss_rule(npts)
        for l in range(1, 41):
            for m in allowed_m(l):
                got = _theta_lm(l, m, u)
                want = np.array([_theta_lm(l, m, float(ui)) for ui in u])
                assert got.shape == u.shape
                np.testing.assert_array_equal(got, want, err_msg=f"l={l} m={m}")

    def test_scalar_argument_returns_float(self):
        assert type(_theta_lm(3, -2, 0.4)) is float
        assert type(_theta_lm(0, 0, 0.4)) is float

    def test_against_scipy(self):
        u = np.concatenate([_gauss_rule(128)[0], np.linspace(-1.0, 1.0, 41)])
        theta = np.arccos(u)
        for l in range(61):
            for m in range(-l, l + 1):
                want = sp.sph_harm_y(l, m, theta, 0.0).real
                err = np.max(np.abs(_theta_lm(l, m, u) - want))
                assert err <= 1e-12 * max(1.0, np.max(np.abs(want))), (l, m, err)


class TestGaussRule:
    def test_cached_and_mapped_to_lower_half(self):
        u, w = _gauss_rule(64)
        assert _gauss_rule(64)[0] is u
        assert u.shape == w.shape == (64,)
        assert np.all((u > -1.0) & (u < 0.0))
        assert w.sum() == pytest.approx(1.0, abs=1e-14)

    def test_arrays_are_read_only(self):
        u, w = _gauss_rule(128)
        with pytest.raises(ValueError):
            u[0] = 0.0
        with pytest.raises(ValueError):
            w[:] = 1.0


class TestLegendreNu:
    def test_unity_at_one(self):
        assert legendre_nu(10.5, 1.0) == 1.0 + 0.0j

    def test_integer_degree_reduction_exact_case(self):
        # nu = 3 reduces to (5x^3 - 3x)/2
        x = 0.42
        want = (5.0 * x**3 - 3.0 * x) / 2.0
        assert legendre_nu(3.0, x) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("l", range(0, 9))
    def test_integer_degree_reduction_grid(self, l):
        for x in np.linspace(-0.98, 1.0, 50):
            got = legendre_nu(complex(l), float(x))
            assert abs(got - legendre_poly(l, float(x))) < 1e-10

    @pytest.mark.parametrize("nu", [0.5, 7.25, 10.5, 20.5, 50.5, 90.5, 33.17])
    def test_against_scipy_real_degree(self, nu):
        # contract accuracy at the default 1e-10 term-ratio stop is 1e-8
        for x in [-0.999, -0.9, -0.5, -0.1, 0.0, 0.3, 0.7, 0.99, 1.0]:
            want = float(sp.lpmv(0, nu, x))
            got = legendre_nu(nu, x)
            assert abs(got.imag) < 1e-12 * max(1.0, abs(got))
            assert got.real == pytest.approx(want, rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("nu", [0.5, 20.5, 90.5])
    def test_tight_tolerance_reaches_machine_accuracy(self, nu):
        mpmath = pytest.importorskip("mpmath")
        for x in (-0.77, 0.31):
            want = complex(mpmath.legenp(nu, 0, x))
            got = legendre_nu(nu, x, tol=1e-15)
            assert got.real == pytest.approx(want.real, rel=1e-12)

    @pytest.mark.parametrize("nu", [10.5 + 0.02j, 20.5 * (1 + 1e-3j), 90.5 * (1 + 1e-2j)])
    def test_against_mpmath_complex_degree(self, nu):
        mpmath = pytest.importorskip("mpmath")
        for x in [-0.999, -0.5, 0.3, 0.99]:
            want = complex(mpmath.legenp(mpmath.mpc(nu), 0, x))
            assert legendre_nu(nu, x) == pytest.approx(want, rel=1e-10)

    def test_expansion_oracle_at_minus_0p6(self):
        est, err = accelerate(legendre_nu_expansion(10.5, -0.6, 400))
        direct = legendre_nu(10.5, -0.6)
        assert err < 1e-8
        assert abs(direct - est) / abs(direct) < 1e-6

    def test_expansion_oracle_cross_validation(self):
        est, _ = accelerate(legendre_nu_expansion(20.5, 0.3, 500))
        direct = legendre_nu(20.5, 0.3)
        assert abs(direct - est) / abs(direct) < 1e-6

    def test_expansion_approaches_unity_at_one(self):
        est, _ = accelerate(legendre_nu_expansion(10.5, 1.0, 600))
        assert est == pytest.approx(1.0, rel=1e-6)

    def test_expansion_rejects_near_integer_degree(self):
        with pytest.raises(PoleError):
            legendre_nu_expansion(7.0 + 1e-9, 0.3, 100)

    @pytest.mark.parametrize("nu", [3.0, 7.25, 10.5 + 0.02j])
    @pytest.mark.parametrize("x", [-0.9, -0.5, 0.0, 0.5, 0.99])
    def test_oracle_agreement_grid(self, nu, x):
        direct = legendre_nu(nu, x)
        if abs(complex(nu) - round(complex(nu).real)) < 1e-6:
            # oracle denominators vanish at integer degree; exact polynomial instead
            reference = complex(legendre_poly(int(round(complex(nu).real)), x))
        else:
            reference, _ = accelerate(legendre_nu_expansion(nu, x, 500))
        assert abs(direct - reference) / max(abs(direct), 1e-30) < 1e-6

    def test_log_singularity_model_near_minus_one(self):
        # P_nu(x) - (sin(nu pi)/pi) log((1+x)/2) -> (sin(nu pi)/pi) F(nu).
        # The exact next-order w*ln(w) remainder is ~6e-3 at w = 5e-5, so the
        # 1e-3 tolerance is asserted at the innermost point together with the
        # approach itself.
        from fisheye.greens import source_offset

        nu = 10.5
        slope = math.sin(math.pi * nu) / math.pi
        limit = slope * source_offset(nu)
        devs = []
        for eps in (1e-4, 1e-5):
            x = -1.0 + eps
            remainder = legendre_nu(nu, x) - slope * math.log((1.0 + x) / 2.0)
            devs.append(abs(remainder - limit) / abs(limit))
        assert devs[1] < devs[0]
        assert devs[1] < 1e-3

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            legendre_nu(10.5, -1.0)
        with pytest.raises(DomainError):
            legendre_nu(10.5, 1.0001)


class TestLegendreNuArray:
    @pytest.mark.parametrize(
        "nu", [0.3, 1.7, 3.0, 7.0005, 10.5, 20.5 + 0.3j, 50.459, 90.5 * (1 + 1e-2j), 90.5 + 0.9j]
    )
    def test_matches_scalar_elementwise(self, nu):
        x = np.concatenate([np.linspace(-0.999, 1.0, 67), [0.0, -0.5, 1.0]])
        got = legendre_nu(nu, x)
        want = np.array([legendre_nu(nu, float(v)) for v in x])
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        assert np.all(got[x == 1.0] == 1.0)

    def test_shape_follows_input(self):
        x = np.linspace(-0.9, 0.9, 12).reshape(3, 4)
        got = legendre_nu(20.5, x)
        assert got.shape == (3, 4) and got.dtype == complex
        assert got[1, 2] == pytest.approx(legendre_nu(20.5, float(x[1, 2])), rel=1e-12)
        assert legendre_nu(20.5, np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("bad", [-1.0, 1.0001, float("nan")])
    def test_one_element_out_of_domain(self, bad):
        with pytest.raises(DomainError):
            legendre_nu(10.5, np.array([0.2, bad, 0.5]))

    def test_nonconvergence_with_tiny_max_terms(self):
        with pytest.raises(NonConvergenceError):
            legendre_nu(10.5, np.array([0.9, 0.1, -0.4]), max_terms=3)


def _mixed_degrees() -> np.ndarray:
    """Log-branch degrees, degrees within 1e-3 of an integer and floor(Re nu) from 0 to 90."""
    k = np.arange(91.0)
    return np.concatenate([
        k + 0.5 + 0.3j,                     # one degree for each n = 0 .. 90
        k[::9] + 0.2718,                    # real, generic fractional part
        k[1::9] + 7e-4,                     # just above an integer
        k[2::9] + 1.0 - 4e-4 + 1e-5j,       # just below an integer
        k[::15],                            # integers: the series terminate
        [0.05 + 0.9j, 1.7, -0.3 + 0.1j],    # n <= 1: no recurrence
    ])


class TestLegendreNuDegreeArray:
    """One degree per element: the sweeps over frequency and lens radius."""

    @pytest.mark.parametrize("x", [-0.95, -0.49, -0.1, 0.0, 0.35, 0.9, 1.0])
    def test_matches_scalar_elementwise(self, x):
        nu = _mixed_degrees()
        got = legendre_nu(nu, x)
        want = np.array([legendre_nu(v, x) for v in nu.tolist()])
        assert got.shape == nu.shape and got.dtype == complex
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
        if x == 1.0:
            assert np.all(got == 1.0)

    def test_degree_array_broadcasts_against_x_array(self):
        nu = _mixed_degrees()[::4]
        x = np.array([-0.9, -0.3, 0.0, 0.6, 1.0, 0.999])
        got = legendre_nu(nu[:, None], x)
        assert got.shape == (nu.size, x.size)
        want = np.array([[legendre_nu(v, u) for u in x.tolist()] for v in nu.tolist()])
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
        assert np.all(got[:, x == 1.0] == 1.0)

    def test_element_order_does_not_matter(self, rng):
        nu, x = _mixed_degrees(), rng.uniform(-0.9, 0.9, _mixed_degrees().size)
        perm = rng.permutation(nu.size)
        assert np.array_equal(legendre_nu(nu, x)[perm], legendre_nu(nu[perm], x[perm]))

    def test_one_degree_matches_the_x_sweep(self):
        # a degree array of equal values takes the same arithmetic as a scalar degree
        x = np.linspace(-0.999, 0.999, 101)
        assert np.array_equal(legendre_nu(np.full(x.size, 20.5 + 0.02j), x), legendre_nu(20.5 + 0.02j, x))

    def test_one_bad_x_raises_domain_error(self):
        with pytest.raises(DomainError):
            legendre_nu(np.array([10.5, 20.5, 30.5]), np.array([0.2, -1.0, 0.5]))

    @pytest.mark.parametrize("bad", [float("nan"), complex(float("inf"), 0.0)])
    def test_one_non_finite_degree_raises_domain_error(self, bad):
        with pytest.raises(DomainError):
            legendre_nu(np.array([10.5, bad, 30.5]), 0.2)
        with pytest.raises(DomainError):
            legendre_nu(bad, 0.2)

    def test_nonconvergence_with_tiny_max_terms(self):
        with pytest.raises(NonConvergenceError):
            legendre_nu(np.array([0.5, 10.5, 20.5 + 0.3j]), -0.4, max_terms=3)


@pytest.fixture(scope="module")
def mpmath_grid():
    """Reference P_nu(x) at 40 digits over the paper's range of degrees.

    Degrees within 1e-3 of an integer skip x = -0.99999, where the
    hypergeometric seed needs more than max_terms terms and raises.
    """
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    grid = []
    for re_nu in (0.5, 3.3, 7.0005, 10.5, 20.5, 33.17, 50.459, 70.8, 90.5):
        for im_nu in (0.0, 0.3, 0.9):
            nu = complex(re_nu, im_nu)
            xs = [-0.99999, -0.999, -0.9, -0.5, -0.2, 0.2, 0.5, 0.9, 0.99999]
            if abs(re_nu - round(re_nu)) < 1e-3:
                xs = xs[1:]
            ref = [complex(mpmath.legenp(mpmath.mpc(re_nu, im_nu), 0, x, type=2)) for x in xs]
            grid.append((nu, np.array(xs), np.array(ref)))
    return grid


class TestLegendreNuAccuracyEnvelope:
    # worst error relative to max(1, |P|) on this grid: 1.8e-10 at tol=1e-10
    # and 1.9e-13 at tol=1e-13 (nu = 7.0005, x = -0.999); bounds keep >= 3x
    @pytest.mark.parametrize("tol, bound", [(1e-10, 6e-10), (1e-13, 6e-13)])
    @pytest.mark.parametrize("path", ["scalar", "array", "pairs"])
    def test_against_mpmath(self, mpmath_grid, path, tol, bound):
        nus = [np.full(xs.size, nu) for nu, xs, _ in mpmath_grid]
        xs = [xs for _, xs, _ in mpmath_grid]
        ref = np.concatenate([ref for _, _, ref in mpmath_grid])
        if path == "scalar":
            pairs = zip(np.concatenate(nus).tolist(), np.concatenate(xs).tolist())
            got = np.array([legendre_nu(nu, x, tol=tol) for nu, x in pairs])
        elif path == "array":  # one call per degree, over its x
            got = np.concatenate([legendre_nu(complex(nu[0]), x, tol=tol) for nu, x in zip(nus, xs)])
        else:  # the whole grid in one call, a degree per element
            got = legendre_nu(np.concatenate(nus), np.concatenate(xs), tol=tol)
        assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= bound


class TestAccelerate:
    def test_alternating_log2_series(self):
        # sum (-1)^{k+1}/k = ln 2; raw partial sums converge like 1/n
        n = np.arange(1, 41)
        psums = np.cumsum((-1.0) ** (n + 1) / n)
        est, err = accelerate(psums)
        assert abs(est - math.log(2.0)) < 1e-12
        assert err < 1e-10

    def test_exact_stagnation(self):
        est, err = accelerate(np.array([2.0, 2.0, 2.0]))
        assert est == 2.0 and err == 0.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            accelerate(np.array([]))
