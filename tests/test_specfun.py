import math
import time

import numpy as np
import pytest
import scipy.special as sp

from fisheye import specfun
from fisheye.errors import DomainError, NonConvergenceError, PoleError
from fisheye.lens import OMEGA0, LensConfig, _gauss_rule, allowed_m, order_parameter
from fisheye.specfun import (
    EULER_GAMMA,
    _group_rows,
    _legendre_nu_array,
    _log_start,
    _series_array,
    _theta_lm,
    accelerate,
    digamma,
    legendre_nu,
    legendre_nu_expansion,
    legendre_poly_table,
    sin_pi,
    source_offset,
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
        # reference: scipy, which is within 7e-14 of mpmath on points like these
        z = np.concatenate([
            rng.uniform(-95.0, 95.0, 400) + 1j * rng.uniform(-3.0, 3.0, 400),
            -rng.uniform(0.001, 1.999, 100) + 1j * rng.uniform(-1e-3, 1e-3, 100),
            [0.3, 7.9, 250.0, 999.0, 3.7 + 2.1j, -4.3 + 0.5j, 0.5 - 80.0j, 0.2 + 9.0j, 10.0, 9.5],
        ]).reshape(2, -1)
        got = digamma(z)
        assert got.shape == z.shape and got.dtype == complex
        want = sp.digamma(z)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

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


#: Degrees of the constants' envelope: the half-integer fidelity radii swept
#: by +-0.49 (the vs-detuning span), lossless, at loss ratios 1e-4 and 3e-3
#: (nu = Re nu (1 + i alpha)) and at Im nu = 0.9; and degrees 1e-3, 1e-4 and
#: 1e-6 from every integer up to 90, real and complex.
_OFFSETS = np.linspace(-0.49, 0.49, 33)
_CENTERS = np.array([10.5, 20.5, 50.5, 90.5])[:, None]
_INTEGERS = np.arange(1.0, 91.0)
CONSTANT_DEGREES = {
    "lossless": np.ravel(_CENTERS + _OFFSETS),
    "alpha 1e-4": np.ravel((_CENTERS + _OFFSETS) * (1.0 + 1e-4j)),
    "alpha 3e-3": np.ravel((_CENTERS + _OFFSETS) * (1.0 + 3e-3j)),
    "Im nu 0.9": np.ravel(_CENTERS + _OFFSETS + 0.9j),
    "near an integer": np.concatenate([_INTEGERS + 1e-3, _INTEGERS - 1e-4, _INTEGERS + 1e-6]),
    "near an integer, complex": np.concatenate([_INTEGERS - 1e-3 + 1e-4j, _INTEGERS + 1e-4 + 0.9j]),
}
#: A few ulps: the worst measured on these grids is 1.9 ulps for the sine,
#: 1.4 for a_0 (of its terms' size) and 2.8 for Im a_0.
CONSTANT_ULPS = 4.0 * 2.0**-52


def _mpmath_constants(nu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sin(pi nu), a_0(nu) and the size of a_0's terms, 2|psi(nu+1)| + |pi cot(pi nu)| + 2 gamma_E, at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    sin, a0, size = [], [], []
    with mpmath.workdps(40):
        for v in nu.tolist():
            z = mpmath.mpmathify(v)
            psi2, cot = 2 * mpmath.digamma(z + 1), mpmath.pi * mpmath.cot(mpmath.pi * z)
            sin.append(complex(mpmath.sinpi(z)))
            a0.append(complex(psi2 + cot + 2 * mpmath.euler))
            size.append(float(abs(psi2) + abs(cot) + 2 * mpmath.euler))
    return np.array(sin), np.array(a0), np.array(size)


class TestDegreeConstants:
    """sin(pi nu) and a_0(nu), the one evaluation behind 1/(4b sin(pi nu)), the log seeds and gamma."""

    @pytest.mark.parametrize("grid", list(CONSTANT_DEGREES))
    def test_envelope_against_mpmath(self, grid):
        # taken at pi (nu - k), the constants keep full relative accuracy; at
        # pi nu the sine lost up to 1e-12 on these grids (1e-8 at 1e-6 from an integer)
        nu = CONSTANT_DEGREES[grid]
        sin, a0, size = _mpmath_constants(nu)
        got_sin, got_a0 = sin_pi(nu), source_offset(nu)
        assert got_sin.shape == got_a0.shape == nu.shape
        assert np.max(np.abs(got_sin - sin) / np.abs(sin)) <= CONSTANT_ULPS
        assert np.max(np.abs(got_a0 - a0) / size) <= CONSTANT_ULPS
        if np.iscomplexobj(nu):  # the part that sets the on-site decay
            assert np.max(np.abs(got_a0.imag - a0.imag) / np.abs(a0.imag)) <= CONSTANT_ULPS

    def test_real_degrees_give_the_real_parts_of_the_complex_evaluation(self):
        nu = np.concatenate([CONSTANT_DEGREES["lossless"], CONSTANT_DEGREES["near an integer"]])
        for f in (sin_pi, source_offset):
            got = f(nu)
            assert got.dtype == float
            assert _same_bits(got, f(nu.astype(complex)))

    @pytest.mark.parametrize("nu", [20.5, 20.5 + 0.01j, np.array(90.49), np.full((4, 3), 10.5 - 0.3 + 1e-3j)])
    def test_shape_of_nu(self, nu):
        assert np.shape(sin_pi(nu)) == np.shape(source_offset(nu)) == np.shape(nu)

    def test_greens_and_qed_take_them_from_here(self):
        # the chain's sine (1/(4b sin(pi nu)), the resonance test) and its
        # on-site gamma (Im a_0) meet the same envelope
        from fisheye import greens, qed

        nu = np.concatenate([CONSTANT_DEGREES["alpha 1e-4"], CONSTANT_DEGREES["near an integer, complex"]])
        sin, a0, _ = _mpmath_constants(nu)
        assert np.max(np.abs(greens._check_order(nu) - sin) / np.abs(sin)) <= CONSTANT_ULPS
        gamma = -6.0 * math.pi / OMEGA0 * a0.imag / (4.0 * math.pi * 0.1)
        assert np.max(np.abs(qed._onsite_gamma(0.1, nu) - gamma) / np.abs(gamma)) <= 2.0 * CONSTANT_ULPS


class TestLegendrePoly:
    def test_low_degrees(self):
        assert legendre_poly_table(0, 0.7)[0] == 1.0
        assert legendre_poly_table(1, -0.4)[1] == -0.4

    def test_degree_five_against_explicit_coefficients(self):
        # P5(x) = (63 x^5 - 70 x^3 + 15 x)/8
        x = 0.3
        explicit = (63.0 * x**5 - 70.0 * x**3 + 15.0 * x) / 8.0
        assert legendre_poly_table(5, x)[5] == pytest.approx(explicit, abs=1e-15)

    def test_scalar_is_the_scalar_recurrence_bit_for_bit(self, rng):
        # P_l(x) at a scalar x, row l of the table, keeps the three-term
        # recurrence on Python floats, the sign of a zero included
        def recurrence(l, x):
            p_prev, p = 1.0, x
            if l == 0:
                return 1.0
            for k in range(1, l):
                p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
            return p

        pairs = [(int(l), float(x)) for l, x in zip(rng.integers(0, 200, 400), rng.uniform(-1.0, 1.0, 400))]
        pairs += [(l, x) for l in range(60) for x in (1.0, -1.0, 0.0, -0.0)]
        for l, x in pairs:
            got = float(legendre_poly_table(l, x)[l])
            assert math.copysign(1.0, got) == math.copysign(1.0, recurrence(l, x)) and got == recurrence(l, x)

    @pytest.mark.parametrize("l_max", [0, 1, 2, 40])
    def test_table_over_an_array_is_the_numpy_recurrence_bit_for_bit(self, rng, l_max):
        x = np.concatenate([rng.uniform(-1.0, 1.0, 4), [-1.0, 0.0]]).reshape(3, 2)
        want = np.empty((l_max + 1,) + x.shape)  # the recurrence as numpy steps over all of x
        want[0] = 1.0
        if l_max >= 1:
            want[1] = x
        for k in range(1, l_max):
            want[k + 1] = ((2 * k + 1) * x * want[k] - k * want[k - 1]) / (k + 1)
        got = legendre_poly_table(l_max, x)
        assert got.shape == want.shape and got.tobytes() == np.ascontiguousarray(want).tobytes()
        for i, xi in enumerate(x.ravel().tolist()):
            assert legendre_poly_table(l_max, xi).tobytes() == want.reshape(l_max + 1, -1)[:, i].tobytes()

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            legendre_poly_table(-1, 0.0)


class TestSphericalHarmonic:
    def test_y00(self, spherical_harmonic):
        assert spherical_harmonic(0, 0, 1.2, 0.3) == pytest.approx(
            1.0 / math.sqrt(4.0 * math.pi), abs=1e-15
        )

    def test_y11_convention_fixture(self, spherical_harmonic):
        # Y_1^1(pi/2, 0) = -sqrt(3/8pi) under Condon-Shortley
        want = -math.sqrt(3.0 / (8.0 * math.pi))
        assert spherical_harmonic(1, 1, math.pi / 2, 0.0) == pytest.approx(want, abs=1e-14)

    def test_zero_separation_sum_rule(self, spherical_harmonic):
        l, theta, phi = 7, 1.1, 0.4
        total = sum(abs(spherical_harmonic(l, m, theta, phi)) ** 2 for m in range(-l, l + 1))
        assert total == pytest.approx((2 * l + 1) / (4.0 * math.pi), rel=1e-13)

    def test_parity_reflection(self, spherical_harmonic):
        l, m, theta, phi = 6, 3, 0.7, 1.9
        lhs = spherical_harmonic(l, m, math.pi - theta, phi)
        rhs = (-1.0) ** (l - m) * spherical_harmonic(l, m, theta, phi)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("l", [1, 5, 13, 30])
    def test_addition_theorem_randomized(self, spherical_harmonic, l, rng):
        t1, t2 = rng.uniform(0.05, math.pi - 0.05, 2)
        p1, p2 = rng.uniform(0.0, 2.0 * math.pi, 2)
        lhs = sum(
            np.conj(spherical_harmonic(l, m, t1, p1)) * spherical_harmonic(l, m, t2, p2)
            for m in range(-l, l + 1)
        )
        c12 = math.cos(t1) * math.cos(t2) + math.sin(t1) * math.sin(t2) * math.cos(p1 - p2)
        rhs = (2 * l + 1) / (4.0 * math.pi) * legendre_poly_table(l, c12)[l]
        assert complex(lhs) == pytest.approx(rhs, abs=1e-10)

    @pytest.mark.parametrize("l,m", [(3, 2), (9, -7), (25, 13)])
    def test_against_scipy(self, spherical_harmonic, l, m, rng):
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
        x = np.linspace(-0.98, 1.0, 50)
        want = legendre_poly_table(l, x)[l]
        assert np.all(np.abs(legendre_nu(complex(l), x) - want) < 1e-10)

    @pytest.mark.parametrize("nu", [0.5, 7.25, 10.5, 20.5, 50.5, 90.5, 33.17])
    def test_against_scipy_real_degree(self, nu):
        # contract accuracy at the default 1e-10 term-ratio stop is 1e-8
        for x in [-0.999, -0.9, -0.5, -0.1, 0.0, 0.3, 0.7, 0.99, 1.0]:
            want = float(sp.lpmv(0, nu, x))
            got = legendre_nu(nu, x)
            assert abs(got.imag) < 1e-12 * max(1.0, abs(got))
            assert got.real == pytest.approx(want, rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("nu", [0.5, 20.5, 90.5])
    def test_tight_tolerance_reaches_machine_accuracy(self, nu, monkeypatch):
        mpmath = pytest.importorskip("mpmath")
        monkeypatch.setattr(specfun, "SERIES_TOL", 1e-15)
        for x in (-0.77, 0.31):
            want = complex(mpmath.legenp(nu, 0, x))
            got = legendre_nu(nu, x)
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
            l = int(round(complex(nu).real))
            reference = complex(legendre_poly_table(l, x)[l])
        else:
            reference, _ = accelerate(legendre_nu_expansion(nu, x, 500))
        assert abs(direct - reference) / max(abs(direct), 1e-30) < 1e-6

    def test_log_singularity_model_near_minus_one(self):
        # P_nu(x) - (sin(nu pi)/pi) log((1+x)/2) -> (sin(nu pi)/pi) F(nu).
        # The exact next-order w*ln(w) remainder is ~6e-3 at w = 5e-5, so the
        # 1e-3 tolerance is asserted at the innermost point together with the
        # approach itself.
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


def _mpmath_legendre(nu, x) -> np.ndarray:
    """P_nu(x) from mpmath over broadcast nu and x, one element at a time.

    mpmath works at 15 digits here (with its own guard digits); on the
    grids below that gives the same doubles as 40 digits in half the time.
    A degree with zero imaginary part goes in as a real number: mpmath
    rejects a complex integer degree.
    """
    mpmath = pytest.importorskip("mpmath")
    nu, x = np.broadcast_arrays(np.asarray(nu, dtype=complex), np.asarray(x, dtype=float))
    degree = [mpmath.mpf(v.real) if v.imag == 0.0 else mpmath.mpc(v.real, v.imag) for v in nu.ravel().tolist()]
    with mpmath.workdps(15):
        ref = [complex(mpmath.legenp(d, 0, u, type=2)) for d, u in zip(degree, x.ravel().tolist())]
    return np.array(ref, dtype=complex).reshape(x.shape)


#: Worst error relative to max(1, |P|) at the default SERIES_TOL, from the accuracy envelope below.
ENVELOPE = 6e-10


class TestLegendreNuArray:
    @pytest.mark.parametrize(
        "nu", [0.3, 1.7, 3.0, 7.0005, 10.5, 20.5 + 0.3j, 50.459, 90.5 * (1 + 1e-2j), 90.5 + 0.9j]
    )
    def test_matches_scalar_elementwise(self, nu):
        # reference: mpmath, one element at a time
        x = np.concatenate([np.linspace(-0.999, 1.0, 67), [0.0, -0.5, 1.0]])
        got = legendre_nu(nu, x)
        want = _mpmath_legendre(nu, x)
        assert np.all(np.abs(got - want) <= ENVELOPE * np.maximum(1.0, np.abs(want)))
        assert np.all(got[x == 1.0] == 1.0)

    def test_shape_follows_input(self):
        x = np.linspace(-0.9, 0.9, 12).reshape(3, 4)
        got = legendre_nu(20.5, x)
        assert got.shape == (3, 4) and got.dtype == complex
        assert abs(got[1, 2] - _mpmath_legendre(20.5, x[1, 2])) <= ENVELOPE * max(1.0, abs(got[1, 2]))
        assert legendre_nu(20.5, np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("bad", [-1.0, 1.0001, float("nan")])
    def test_one_element_out_of_domain(self, bad):
        with pytest.raises(DomainError):
            legendre_nu(10.5, np.array([0.2, bad, 0.5]))

    def test_nonconvergence_with_tiny_max_terms(self, monkeypatch):
        monkeypatch.setattr(specfun, "MAX_TERMS", 3)
        with pytest.raises(NonConvergenceError, match="exceeded 3 terms"):
            legendre_nu(10.5, np.array([0.9, 0.1, -0.4]))


class TestScalarCalls:
    """A scalar call is the one-element array call; legendre_nu returns it as a Python complex."""

    @pytest.mark.parametrize(
        "nu, x", [(20.5, 0.3), (3, -0.4), (10.5 + 0.02j, -0.7), (20.5 + 0j, -0.999), (7.0005, -0.9), (0.3, 1.0)]
    )
    def test_legendre_nu(self, nu, x):
        got = legendre_nu(nu, x)
        assert type(got) is complex
        assert np.array([got]).tobytes() == legendre_nu(np.array([nu]), np.array([x])).tobytes()

    @pytest.mark.parametrize("nu", [20.5, 30.61 + 0.3j])
    def test_legendre_nu_with_w(self, nu):
        # w given to full relative precision, not (1 + x)/2 rounded
        w = 3.7e-11
        x = 2.0 * w - 1.0
        assert (1.0 + x) / 2.0 != w
        got = legendre_nu(nu, x, w=w)
        assert type(got) is complex
        assert np.array([got]).tobytes() == legendre_nu(np.array([nu]), x, w=np.array([w])).tobytes()
        assert got != legendre_nu(nu, x)

    @pytest.mark.parametrize("z", [1.0, 0.3, 7, 250.0, 3.7 + 2.1j, -4.3 + 0.5j, 0.5 - 80.0j])
    def test_digamma(self, z):
        got = digamma(z)
        assert np.array([got]).tobytes() == digamma(np.array([z])).tobytes()

    @pytest.mark.parametrize("z", [0, -2.0, -5.0 + 1e-13j])
    def test_digamma_pole(self, z):
        with pytest.raises(PoleError):
            digamma(z)


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
        # reference: mpmath, one element at a time
        nu = _mixed_degrees()
        got = legendre_nu(nu, x)
        want = _mpmath_legendre(nu, x)
        assert got.shape == nu.shape and got.dtype == complex
        assert np.all(np.abs(got - want) <= ENVELOPE * np.maximum(1.0, np.abs(want)))
        if x == 1.0:
            assert np.all(got == 1.0)

    def test_degree_array_broadcasts_against_x_array(self):
        nu = _mixed_degrees()[::4]
        x = np.array([-0.9, -0.3, 0.0, 0.6, 1.0, 0.999])
        got = legendre_nu(nu[:, None], x)
        assert got.shape == (nu.size, x.size)
        want = _mpmath_legendre(nu[:, None], x)
        assert np.all(np.abs(got - want) <= ENVELOPE * np.maximum(1.0, np.abs(want)))
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

    def test_nonconvergence_with_tiny_max_terms(self, monkeypatch):
        monkeypatch.setattr(specfun, "MAX_TERMS", 3)
        with pytest.raises(NonConvergenceError, match="exceeded 3 terms"):
            legendre_nu(np.array([0.5, 10.5, 20.5 + 0.3j]), -0.4)


#: The source argument of the benchmark's fidelity scans (rho = 0.27), w = (1 + x)/2 given as greens gives it.
SCAN_W = 0.25331973734913113
SCAN_X = 2.0 * SCAN_W - 1.0


def _scan_degrees(re_nu: float) -> np.ndarray:
    """The fidelity-scan shape: 801 orders at losses alpha from 1e-4 to 1e-2 around one radius's Re nu."""
    return re_nu * (1.0 + 1j * np.linspace(1e-4, 1e-2, 801))


class TestSeedSeriesKernel:
    """The seed series' start values, its work arrays across growing blocks, and its batching."""

    @pytest.mark.parametrize("im", [0.0, 0.3, 0.9, 5.0])
    def test_reflection_start_equals_two_digammas(self, im):
        # a_0 = 2 psi(d+1) + pi cot(pi d) + 2 gamma_E against psi(-d) + psi(d+1) + 2 gamma_E,
        # over the log branch's degrees (1e-3 or more from an integer), real and complex
        re = np.concatenate([np.linspace(-0.999, 1.999, 3001), np.linspace(-100.999, -99.001, 201)])
        re = re[np.abs(re - np.round(re)) >= 1e-3]
        d = re + 1j * im if im else re
        a0, _ = _log_start(d)
        want = digamma(-d) + digamma(d + 1.0) + 2.0 * EULER_GAMMA
        assert a0.dtype == d.dtype
        assert np.max(np.abs(a0 - want) / np.maximum(1.0, np.abs(want))) <= 1e-14

    def test_the_lifted_seed_starts_from_its_partner(self):
        # a_0(d+1) = a_0(d) + 2/(d+1) and sin(pi (d+1)) = -sin(pi d), against
        # mpmath at the exact d + 1 (d + 1.0 itself rounds, which moves a start
        # 1e-3 from an integer by ~1e-13)
        mpmath = pytest.importorskip("mpmath")
        d = np.concatenate([np.linspace(0.001, 0.999, 100), np.linspace(0.001, 0.999, 100) + 0.4j])
        a0, scale = _log_start(d)
        lifted, lifted_scale = a0 + 2.0 / (d + 1.0), -scale
        with mpmath.workdps(30):
            up = [mpmath.mpc(v.real, v.imag) + 1 for v in d.tolist()]
            want = np.array([complex(mpmath.digamma(-u) + mpmath.digamma(u + 1) + 2 * mpmath.euler) for u in up])
            want_scale = np.array([complex(mpmath.sinpi(u) / mpmath.pi) for u in up])
        assert np.max(np.abs(lifted - want) / np.maximum(1.0, np.abs(want))) <= 1e-14
        assert np.max(np.abs(lifted_scale - want_scale) / np.abs(want_scale)) <= 1e-14

    @pytest.mark.parametrize("re_nu", [10.5, 90.5])
    def test_fidelity_scan_shape_against_mpmath(self, re_nu):
        nu = _scan_degrees(re_nu)
        got = legendre_nu(nu, SCAN_X, w=SCAN_W)
        want = _mpmath_legendre(nu, SCAN_X)
        assert np.all(np.abs(got - want) <= ENVELOPE * np.maximum(1.0, np.abs(want)))

    def test_batching_does_not_change_the_bits(self):
        # one call over the four radii's scan degrees is the four per-radius
        # calls, and a one-element call, bit for bit: every element's arithmetic
        # is its own, whatever the size of the call
        nus = [_scan_degrees(re_nu) for re_nu in (10.5, 20.5, 50.5, 90.5)]
        every = np.concatenate(nus)
        one = legendre_nu(every, SCAN_X, w=SCAN_W)
        assert np.array_equal(one, np.concatenate([legendre_nu(nu, SCAN_X, w=SCAN_W) for nu in nus]))
        for i in (0, 1000, 2500, 3203):
            assert legendre_nu(every[i : i + 1], SCAN_X, w=SCAN_W)[0] == one[i]
        # a call of more rows than one group of the seed series, over both
        # branches, near-integer degrees and real ones, is its parts
        rows = _group_rows(16)
        rng = np.random.default_rng(18)
        nu = np.concatenate([rng.uniform(0.0, 95.0, 2 * rows) + 1j * rng.uniform(0.0, 0.9, 2 * rows),
                             np.arange(300.0) % 40.0 + 7e-4, rng.uniform(0.0, 95.0, 300)])
        x = rng.uniform(-0.99, 0.99, nu.size)
        big = legendre_nu(nu, x)
        cuts = [0, 7, rows - 1, rows + 500, nu.size - 450, nu.size]
        assert np.array_equal(big, np.concatenate([legendre_nu(nu[a:b], x[a:b]) for a, b in zip(cuts, cuts[1:])]))

    def test_work_arrays_do_not_grow_with_the_call(self):
        # the seed series sum a large call in groups of rows, so the call's peak
        # memory is its own per-element arrays and a bounded buffer; a buffer
        # for every row at once would take ~82 MB here (two seeds a degree)
        import tracemalloc

        nu = np.concatenate([_scan_degrees(re_nu)[::16] for re_nu in (10.5, 20.5, 50.5, 90.5)])
        nu = np.resize(nu, 50_000)
        tracemalloc.start()
        try:
            legendre_nu(nu, SCAN_X, w=SCAN_W)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 28 * 2**20

    def test_series_past_the_first_blocks(self, monkeypatch):
        # degrees within 1e-3 of an integer take the hypergeometric seeds at any x:
        # at x = -0.99 they need thousands of terms, in blocks that grow to 256
        # terms, while at x = 0.3 they stop in the first block and at -0.7 a few
        # blocks later; so rows leave the call while the blocks, and the work
        # arrays, grow.  MAX_TERMS = 17 ends on a block of one term.
        k = np.arange(0.0, 60.0, 3.0)
        nu = np.tile(np.concatenate([k + 7e-4, k + 1.0 - 4e-4 + 1e-5j]), 3)
        x = np.repeat([-0.99, 0.3, -0.7], nu.size // 3)
        for max_terms in (17, 1000):
            with monkeypatch.context() as patch:
                patch.setattr(specfun, "MAX_TERMS", max_terms)
                with pytest.raises(NonConvergenceError):
                    legendre_nu(nu, x)
        got = legendre_nu(nu, x)
        want = _mpmath_legendre(nu, x)
        assert np.all(np.abs(got - want) <= ENVELOPE * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("shape, bound", [("diameter-sweep", 1e-11), ("fidelity-scan", 1e-12)])
    def test_benchmark_shapes_against_mpmath(self, shape, bound):
        # the series stop at a block's end, so each seed sums the whole block the
        # stopping test ran on: 6.4e-12 and 5.5e-13 here; each bound lies below
        # what a sum stopped at the first passing term pair gives (1.34e-11, 2.3e-12)
        if shape == "diameter-sweep":  # the R0 = 4.93 degree (Re nu = 30.48) over x
            nu = complex(order_parameter(LensConfig(radius=4.93), OMEGA0)).real
            x = np.linspace(-0.999, 0.999, 241)
            got = legendre_nu(nu, x)
        else:
            nu, x = _scan_degrees(10.5)[::8], SCAN_X
            got = legendre_nu(nu, x, w=SCAN_W)
        want = _mpmath_legendre(nu, x)
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= bound


def _seed_reference(d, y: float, hyp: bool, lw: float = 0.0, a: float = 0.0):
    """One element of _series_array in Python arithmetic: the documented recurrences, term by term.

    The sum stops where _series_array stops, at the end of a block that
    passes the stopping test on its last two terms.  d, y, lw = ln w and
    a = a_0 are Python floats or complex numbers; the log branch's
    prefactor is left to the caller.
    """
    def ratio(m):  # c_{m+1} / c_m in modulus, capped as the code caps it
        return min(abs((m - d) * (m + 1.0 + d)) * (1.0 / (m + 1.0) ** 2) * y, 0.999)

    floor = 1.0 if hyp else 1e-300
    total, c, n0 = (1.0 if hyp else lw + a), 1.0, 0
    while n0 < specfun.MAX_TERMS:
        size = min(max(specfun._BLOCK_FIRST, n0), specfun._BLOCK_CAP, specfun.MAX_TERMS - n0)
        block, tail = 0.0, []
        for n in range(n0, n0 + size):
            p = (n - d) * (n + 1.0 + d)
            if not hyp:
                a = a + ((1.0 / p) * (2.0 * n + 1.0) - 2.0 / (n + 1.0))
            c = c * (p * (1.0 / (n + 1.0) ** 2) * y)
            term = c if hyp else c * (lw + a)
            block = term if n == n0 else block + term
            if n >= n0 + size - 2:
                r = ratio(n + 1)
                tail.append((abs(term) * r / (1.0 - r), block + total))
        n0 += size
        total = tail[-1][1]
        if all(bound <= max(abs(s), floor) * specfun.SERIES_TOL for bound, s in tail):
            return total
    raise NonConvergenceError("reference series exceeded MAX_TERMS")


def _one_segment(d, x: np.ndarray, hyp: bool) -> np.ndarray:
    """A _series_array pass of one segment: degree(s) d over x on one branch, w = (1 + x)/2."""
    return _series_array([(d, x, (1.0 + x) / 2.0, hyp, None)])[0]


def _series_reference(d, x: np.ndarray, hyp: bool) -> np.ndarray:
    """_one_segment(d, x, hyp) by _seed_reference, one element at a time.

    ln w, a_0 and the prefactor are taken from numpy and _log_start.
    """
    dtype = complex if np.iscomplexobj(d) else float
    w = (1.0 + x) / 2.0
    ds = np.broadcast_to(np.asarray(d, dtype=dtype), x.shape).tolist()
    if hyp:
        out = [_seed_reference(dj, yj, True) for dj, yj in zip(ds, ((1.0 - x) / 2.0).tolist())]
        return np.array(out, dtype=dtype)
    a0, scale = (np.broadcast_to(v, x.shape).tolist() for v in _log_start(d))
    lw = np.log(w).astype(dtype).tolist()
    out = [sj * _seed_reference(dj, wj, False, lj, aj) for dj, wj, lj, aj, sj in zip(ds, w.tolist(), lw, a0, scale)]
    return np.array(out, dtype=dtype)


class TestSeriesReference:
    """_series_array against a scalar loop of its recurrences that stops at the same block ends."""

    # complex products and quotients may round differently in numpy and in
    # Python (numpy's complex kernels can fuse a multiply-add); over these
    # cases the worst deviation is 1.2e-15 of max(1, |P|), whether a block's
    # products and sums are numpy's cumulative ufuncs or carried term by
    # term, and the bound keeps a factor of three over it
    COMPLEX_BOUND = 4e-15

    @staticmethod
    def _cases(hyp: bool) -> list[tuple]:
        """(d, x) pairs: one degree over x, and a degree per element, for real and complex degrees."""
        rng = np.random.default_rng(29)
        x = rng.uniform(0.0, 0.999, 40) if hyp else rng.uniform(-0.9999, -0.01, 40)
        near = np.array([7e-4, 1.0 - 4e-4, 0.9996, 1.0007])  # the hypergeometric branch at any x
        x_far = np.array([-0.99, -0.9, -0.7, -0.3])  # thousands of terms at x = -0.99
        d = rng.uniform(0.01, 1.99, x.size)
        cases = [(0.2718, x), (0.5 + 0.3j, x), (d, x), (d + 1j * rng.uniform(0.0, 0.9, x.size), x)]
        if hyp:
            cases += [(np.repeat(near, 4), np.tile(x_far, 4)), (np.repeat(near, 4) + 1e-5j, np.tile(x_far, 4))]
            # one real column from the first term, and one left alone after the first blocks: thousands of terms
            cases += [(7.0007, np.array([-0.99])), (7.0007, np.array([0.3, -0.99]))]
        return cases

    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize("hyp", [True, False])
    def test_series_equals_the_scalar_loop(self, monkeypatch, hyp, grouped):
        if grouped:  # a buffer of three complex (six real) rows at the widest block: each call takes several groups
            monkeypatch.setattr(specfun, "_WORK_BYTES", specfun._work_bytes(3, specfun._BLOCK_CAP, 16))
            assert _group_rows(16) == 3
        for d, x in self._cases(hyp):
            got = _one_segment(d, x, hyp)
            want = _series_reference(d, x, hyp)
            if np.iscomplexobj(d):
                assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= self.COMPLEX_BOUND
            else:
                assert got.dtype == float and np.array_equal(got, want)


class TestOneSeriesPass:
    """A legendre_nu call sums all its seeds in one _series_array pass, each element as it would be alone."""

    @staticmethod
    def _mixed(dtype, hyp_one: bool) -> tuple[np.ndarray, np.ndarray]:
        """Degrees and arguments over both branches, lifted and not, with one branch at one degree.

        hyp_one puts the hypergeometric branch at one degree (s = 0.25, and
        s + 1 for the lifted elements) beside logarithmic elements with a
        degree each; otherwise the logarithmic branch is at one degree
        (0.75) and the hypergeometric one mixes degrees within 1e-3 of an
        integer (taken at x < 0 too) with others.
        """
        rng = np.random.default_rng(36)
        im = 0.1 if dtype is complex else 0.0
        if hyp_one:
            one = np.tile([0.25, 5.25, 30.25], 5) + 1j * im
            x_one = rng.uniform(0.0, 0.99, one.size)
            each = rng.uniform(0.01, 40.0, 20) + 1j * im * rng.uniform(0.0, 9.0, 20)
            x_each = rng.uniform(-0.99, -0.01, each.size)
        else:
            one = np.tile([0.75, 3.75, 20.75], 5) + 1j * im
            x_one = rng.uniform(-0.99, -0.01, one.size)
            near = np.array([7.0007, 0.9996, 12.0004, 1.0007, 0.0008]) + 1j * im * 1e-4
            each = np.concatenate([near, rng.uniform(0.01, 40.0, 12) + 1j * im])
            x_each = np.concatenate([rng.uniform(-0.9, -0.3, near.size), rng.uniform(0.0, 0.99, 12)])
        order = rng.permutation(one.size + each.size)
        nu = np.concatenate([one, each])[order]
        return (nu if dtype is complex else nu.real), np.concatenate([x_one, x_each])[order]

    @staticmethod
    def _passes(monkeypatch) -> list:
        """The segments of every _series_array pass from here on."""
        passes, series = [], specfun._series_array

        def counted(segments):
            passes.append(segments)
            return series(segments)

        monkeypatch.setattr(specfun, "_series_array", counted)
        return passes

    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize("hyp_one", [True, False])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_one_pass_equals_each_element_alone(self, monkeypatch, dtype, hyp_one, grouped):
        if grouped:  # three complex (six real) rows a group: the groups cut through every segment
            monkeypatch.setattr(specfun, "_WORK_BYTES", specfun._work_bytes(3, specfun._BLOCK_CAP, 16))
        nu, x = self._mixed(dtype, hyp_one)
        passes = self._passes(monkeypatch)
        got = legendre_nu(nu, x)
        # [hypergeometric at s | at s + 1 | logarithmic at s | at s + 1], the one-degree branch in one column
        assert [(hyp, np.size(d) == 1) for d, _, _, hyp, _ in passes[0]] == [
            (True, hyp_one), (True, hyp_one), (False, not hyp_one), (False, not hyp_one)]
        assert len(passes) == 1
        alone = np.array([legendre_nu(nu_i, x_i) for nu_i, x_i in zip(nu.tolist(), x.tolist())])
        assert len(passes) == 1 + nu.size
        assert np.array_equal(got, alone)

    def test_the_ddi_sweep_layout(self, monkeypatch):
        # one real degree (R0 = 4.93, Re nu = 30.48) over x across (-1, 1): four one-column segments
        nu = complex(order_parameter(LensConfig(radius=4.93), OMEGA0)).real
        x = np.linspace(-0.999, 0.999, 241)
        passes = self._passes(monkeypatch)
        got = legendre_nu(nu, x)
        assert [(hyp, np.size(d), xs.size) for d, xs, _, hyp, _ in passes[0]] == [
            (True, 1, 121), (True, 1, 121), (False, 1, 120), (False, 1, 120)]
        assert np.array_equal(got, [legendre_nu(nu, x_i) for x_i in x.tolist()])

    def test_every_element_at_one(self, monkeypatch):
        passes = self._passes(monkeypatch)
        got = legendre_nu(np.array([0.3, 20.5 + 0.1j, 7.0]), np.ones(3))
        assert passes == [] and np.array_equal(got, np.ones(3))

    @pytest.mark.parametrize("nu, x, message", [
        ([0.5, 10.25], [-0.4, 0.3], "hypergeometric series for P_nu(nu=0.25, x=0.3) exceeded 3 terms"),
        ([0.5 + 0.1j, 10.25, 3.75], [-0.4, -0.3, 0.2],
         "hypergeometric series for P_nu(nu=(0.75+0j), x=0.2) exceeded 3 terms"),
        ([12.5, 3.5 + 0.1j], [-0.6, -0.3], "logarithmic series for P_nu(nu=(0.5+0j), x=-0.6) exceeded 3 terms"),
    ])
    def test_nonconvergence_names_the_first_failing_segment(self, monkeypatch, nu, x, message):
        # the hypergeometric segments come first, whatever the order of the elements
        monkeypatch.setattr(specfun, "MAX_TERMS", 3)
        with pytest.raises(NonConvergenceError) as err:
            legendre_nu(np.array(nu), np.array(x))
        assert str(err.value) == message


class TestNearIntegerLimitNearMinusOne:
    """The known limit that ROADMAP [legendre-edges] (Legendre accuracy near an integer degree) is to remove.

    With nu within 1e-3 of an integer, the seeds take the hypergeometric
    series at every x, which at x = -0.99979 needs more than MAX_TERMS terms.
    The call must raise NonConvergenceError, and soon, never return a value.
    Item 3's fix (the logarithmic series for these degrees) turns this test
    into a check against mpmath.
    """

    def test_raises_instead_of_returning_a_value(self):
        start = time.perf_counter()
        with pytest.raises(NonConvergenceError, match="exceeded 100000 terms"):
            legendre_nu(30.0005, -0.99979)
        assert time.perf_counter() - start < 10.0  # about 0.02 s: the term cap ends it, a block per cumprod


def _same_bits(real: np.ndarray, cplx: np.ndarray) -> bool:
    """real equals the real parts of cplx element by element, and cplx is real.

    == rather than a bit view: an exact zero may carry the other sign.
    """
    return bool(np.all(real == cplx.real) and np.all(cplx.imag == 0.0))


class TestRealDegreePath:
    """Real degrees run in float64 with the bits of the complex arithmetic."""

    X = np.concatenate([np.linspace(-0.99999, 0.99999, 401), -1.0 + np.logspace(-9, -3, 40)])

    @pytest.mark.parametrize("hyp", [True, False])
    @pytest.mark.parametrize("d", [0.2718, 0.5, 0.9, 1.5, 1.0007])
    def test_series_matches_zero_imaginary_part(self, d, hyp):
        x = self.X[self.X >= 0.0] if hyp else self.X[self.X < 0.0]
        got = _one_segment(d, x, hyp)
        assert got.dtype == float
        assert _same_bits(got, _one_segment(complex(d), x, hyp))

    @pytest.mark.parametrize("hyp", [True, False])
    def test_series_over_a_degree_array(self, rng, hyp):
        d = rng.uniform(0.01, 1.99, 300)
        x = rng.uniform(0.0, 0.999, d.size) if hyp else rng.uniform(-0.9999, -0.01, d.size)
        got = _one_segment(d, x, hyp)
        assert got.dtype == float
        assert _same_bits(got, _one_segment(d.astype(complex), x, hyp))

    @pytest.mark.parametrize("nu", [0.3, 1.7, 3.0, 10.5, 20.5, 50.459, 90.5, 59.8, 76.9993])
    def test_series_and_recurrence_over_x(self, nu):
        x = self.X if abs(nu - round(nu)) >= 1e-3 or nu == round(nu) else self.X[self.X > -0.999]
        nu = np.array(nu)
        got = _legendre_nu_array(nu, x, None)
        assert _same_bits(got.real, _legendre_nu_array(nu.astype(complex), x, None))
        assert np.all(got.imag == 0.0)

    @pytest.mark.parametrize("x", [-0.99, -0.49, 0.0, 0.35, 0.9])
    def test_series_and_recurrence_over_degrees(self, rng, x):
        nu = np.concatenate([rng.uniform(0.0, 95.0, 400), np.arange(95.0), np.arange(95.0) + 7e-4])
        got = _legendre_nu_array(nu, x, None)
        assert _same_bits(got.real, _legendre_nu_array(nu.astype(complex), x, None))

    def test_digamma_matches_zero_imaginary_part(self):
        # dense enough that numpy's float64 log would miss the complex log's
        # real part on some elements, where it is a SIMD kernel
        z = np.concatenate([np.linspace(-95.0, 95.0, 100_001) + 1e-6, np.linspace(10.0, 2000.0, 100_001)])
        got = digamma(z)
        assert got.dtype == float
        assert _same_bits(got, digamma(z.astype(complex)))

    @pytest.mark.parametrize("nu", [20.5, 20.5 + 0j, np.array(20.5), np.array(20.5 + 0j)])
    def test_legendre_nu_returns_complex_for_real_degrees(self, nu):
        x = np.linspace(-0.999, 0.999, 31)
        got = legendre_nu(nu, x)
        assert got.dtype == complex
        assert np.array_equal(got, _legendre_nu_array(np.array(20.5), x, None))
        assert legendre_nu(np.full(3, nu), 0.3).dtype == complex

    def test_complex_degrees_keep_the_complex_path(self):
        # one nonzero imaginary part sends the whole call down the complex path
        nu = np.array([20.5, 30.5 + 1e-3j])
        got = legendre_nu(nu, -0.4)
        assert got[1].imag != 0.0
        assert np.array_equal(got, _legendre_nu_array(nu, -0.4, None))


class TestLegendreNuNearMinusOne:
    """w = (1 + x)/2 given to full relative precision seeds the log series."""

    W = np.logspace(-14, -3, 12)

    @pytest.mark.parametrize("nu", [0.5, 10.5, 30.61, 50.459, 90.5, 90.5 + 0.3j])
    def test_against_mpmath(self, nu):
        # worst 4.3e-13 relative (nu = 90.5); x = 2w - 1 alone loses up to 3.6e-5
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        x = 2.0 * self.W - 1.0
        want = np.array([complex(mpmath.legenp(mpmath.mpmathify(nu), 0, 2 * mpmath.mpf(w) - 1, type=2))
                         for w in self.W.tolist()])
        assert np.all(np.abs(legendre_nu(nu, x, w=self.W) - want) <= 1.5e-12 * np.abs(want))

    def test_w_of_x_is_the_default(self):
        x = np.linspace(-0.99, 0.99, 41)
        assert np.array_equal(legendre_nu(20.5, x, w=(1.0 + x) / 2.0), legendre_nu(20.5, x))
        assert legendre_nu(20.5, -0.3, w=0.35) == legendre_nu(20.5, -0.3)

    def test_inconsistent_w_rejected(self):
        with pytest.raises(DomainError):
            legendre_nu(20.5, -0.3, w=-0.3)
        with pytest.raises(DomainError):
            legendre_nu(20.5, np.array([-0.3, -0.5]), w=np.array([0.35, 0.35]))


@pytest.fixture(scope="module")
def mpmath_grid():
    """Reference P_nu(x) at 40 digits over the paper's range of degrees.

    Degrees within 1e-3 of an integer skip x = -0.99999, where the
    hypergeometric seed needs more than MAX_TERMS terms and raises.
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
    # worst error relative to max(1, |P|) on this grid: 1.7e-10 at SERIES_TOL = 1e-10
    # and 1.7e-13 at 1e-13 (nu = 7.0005, x = -0.999); bounds keep >= 3x
    @pytest.mark.parametrize("tol, bound", [(1e-10, 6e-10), (1e-13, 6e-13)])
    @pytest.mark.parametrize("path", ["array", "pairs"])
    def test_against_mpmath(self, mpmath_grid, path, tol, bound, monkeypatch):
        monkeypatch.setattr(specfun, "SERIES_TOL", tol)
        nus = [np.full(xs.size, nu) for nu, xs, _ in mpmath_grid]
        xs = [xs for _, xs, _ in mpmath_grid]
        ref = np.concatenate([ref for _, _, ref in mpmath_grid])
        if path == "array":  # one call per degree, over its x
            got = np.concatenate([legendre_nu(complex(nu[0]), x) for nu, x in zip(nus, xs)])
        else:  # the whole grid in one call, a degree per element
            got = legendre_nu(np.concatenate(nus), np.concatenate(xs))
        assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= bound


def _wynn_reference(partial_sums):
    """Wynn epsilon acceleration of one sequence, one epsilon column per step: the reference for accelerate."""
    s = np.asarray(partial_sums, dtype=complex)
    if s.size > 1:
        keep = np.ones(s.size, dtype=bool)
        keep[1:] = s[1:] != s[:-1]
        s = s[keep]
    if s.size == 1:
        return complex(s[0]), 0.0
    best, best_err = complex(s[-1]), abs(complex(s[-1]) - complex(s[-2]))
    prev2, prev1 = np.zeros(s.size + 1, dtype=complex), s.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for col in range(1, min(s.size - 2, 120) + 1):
            diffs = prev1[1:] - prev1[:-1]
            zero = diffs == 0.0
            recip = 1.0 / np.where(zero, 1.0, diffs)
            recip[zero] = np.inf
            prev2, prev1 = prev1, prev2[1 : prev1.size] + recip
            if col % 2 == 0:
                a, b = complex(prev1[-1]), complex(prev1[-2])
                if np.isfinite(a) and np.isfinite(b) and abs(a - b) < best_err:
                    best, best_err = a, abs(a - b)
    return best, float(best_err)


def _bits(value, err):
    return np.complex128(value).tobytes(), np.float64(err).tobytes()


class TestAccelerateRows:
    """accelerate over the rows of a 2-D array, against one-row calls and the column-loop reference."""

    def test_rows_of_different_collapsed_lengths(self, rng):
        k = np.arange(1, 301)
        alternating = (-1.0) ** k / k**1.5
        rows = np.cumsum(
            [
                alternating,  # 300 distinct sums, cut to the last 122
                np.where(k % 2 == 0, alternating, 0.0),  # 150
                np.where(k <= 40, alternating, 0.0),  # 41: fewer columns than the others
                np.where(k <= 60, (-1.0) ** k / np.sqrt(k) * np.exp(1j * rng.uniform(0, 6, 300)), 0.0),
                np.where(k == 1, 2.5, 0.0),  # one distinct sum
                np.where(k <= 2, 1.0, 0.0),  # two
                np.where(k <= 3, (-0.5) ** k, 0.0),  # three
                rng.integers(-1, 2, 300).astype(float),  # runs of equal sums, zero differences
            ],
            axis=1,
        )
        values, errors = accelerate(rows)
        assert values.shape == errors.shape == (len(rows),)
        for i, row in enumerate(rows):
            one = accelerate(row)
            assert type(one[0]) is complex and type(one[1]) is float
            assert _bits(values[i], errors[i]) == _bits(*one) == _bits(*_wynn_reference(row)), i

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_rows_of_one_to_three_sums(self, rng, length):
        rows = rng.standard_normal((5, length)) + 1j * rng.standard_normal((5, length))
        rows[0] = rows[0, 0]  # all equal
        values, errors = accelerate(rows)
        for i, row in enumerate(rows):
            assert _bits(values[i], errors[i]) == _bits(*_wynn_reference(row)), i

    def test_random_sequences_match_the_reference(self, rng):
        for n in (4, 5, 10, 121, 122, 123, 200):
            for _ in range(20):
                terms = rng.standard_normal(n) * (-1.0) ** np.arange(n) / np.arange(1, n + 1)
                terms[rng.uniform(size=n) < 0.2] = 0.0
                seq = np.cumsum(terms)
                assert _bits(*accelerate(seq)) == _bits(*_wynn_reference(seq)), n

    @staticmethod
    def _real_rows(rng):
        k = np.arange(1, 201)
        terms = rng.standard_normal((40, 200)) * (-1.0) ** k / k ** rng.uniform(0.5, 2.0, (40, 1))
        terms[rng.uniform(size=terms.shape) < 0.2] = 0.0
        terms[0] = np.round(terms[0] * 3.0) / 3.0  # exact cancellations: zero differences
        terms[20:] *= 10.0 ** rng.uniform(-310, -290, (20, 1))  # differences whose reciprocals overflow
        return np.cumsum(terms, axis=1)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_real_rows(self, rng, dtype):
        # float64 rows, and complex rows whose imaginary parts are all zero, give the complex reference's bits
        rows = self._real_rows(rng).astype(dtype)
        with np.errstate(over="ignore"):
            values, errors = accelerate(rows)
            assert values.dtype == complex
            for i, row in enumerate(rows):
                assert _bits(values[i], errors[i]) == _bits(*accelerate(row)) == _bits(*_wynn_reference(row)), i

    def test_real_rows_beside_a_complex_row(self, rng):
        # a row with a nonzero imaginary part keeps the complex table for the whole call, and so does a -0.0
        rows = self._real_rows(rng) + 0j
        rows[3] += 1j * np.cumsum(rng.standard_normal(rows.shape[1]) / np.arange(1, rows.shape[1] + 1) ** 2)
        negated = -self._real_rows(rng).astype(complex)  # -(x + 0j) = -x - 0j
        for call in (rows, negated):
            with np.errstate(over="ignore"):
                values, errors = accelerate(call)
                for i, row in enumerate(call):
                    assert _bits(values[i], errors[i]) == _bits(*_wynn_reference(row)), i


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
