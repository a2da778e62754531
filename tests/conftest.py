import cmath
import math

import numpy as np
import pytest

from fisheye import lens, qed
from fisheye.lens import OMEGA0, allowed_m, stereo_theta
from fisheye.specfun import _theta_lm


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def lens_20p5():
    """Lens with Re nu = 20.5 at omega0 (R0 = 3.3413 lambda0), b = lambda0/10."""
    return lens.LensConfig(radius=lens.radius_for_order(20.5))


@pytest.fixture
def antipodal_027():
    """The standard published arrangement: antipodal atoms at rho = 0.27."""
    return qed.AtomPairConfig.antipodal(0.27)


@pytest.fixture
def spherical_harmonic():
    """Y_l^m(theta, phi) = _theta_lm(cos theta) e^{i m phi}, Condon-Shortley phase, any |m| <= l."""

    def y(l, m, theta, phi):
        return _theta_lm(l, m, math.cos(theta)) * cmath.exp(1j * m * phi)

    return y


@pytest.fixture
def full_basis_hamiltonian(spherical_harmonic):
    """Factory for the raw (l, m) single-excitation Hamiltonian.

    Builds the two-atom-plus-modes matrix directly from the mode functions,
    with no collective-mode reduction; used to cross-check the parity blocks.
    The antipodal pair is written in its (phi, -phi) frame, phi1 = pi/2 and
    phi2 = -pi/2 = phi1 + pi (any other antipodal pair is a rigid rotation).
    Returns (H, labels) with basis [atom1, atom2, (l, m)...].
    """

    def build(cfg, rho, l_range, gamma0):
        theta = stereo_theta(rho)
        phi = math.pi / 2.0
        labels = [(l, m) for l in l_range for m in allowed_m(l)]
        dim = 2 + len(labels)
        h = np.zeros((dim, dim), dtype=complex)
        c0sq = 3.0 * math.pi * gamma0 / (OMEGA0**3 * cfg.b * cfg.radius**2)
        for j, (l, m) in enumerate(labels, start=2):
            w_l = math.sqrt(l * (l + 1.0)) / cfg.radius
            h[j, j] = w_l - OMEGA0
            g_l = math.sqrt(c0sq * w_l)
            h[0, j] = g_l * spherical_harmonic(l, m, theta, phi)
            h[1, j] = g_l * spherical_harmonic(l, m, theta, -phi)
            h[j, 0] = np.conj(h[0, j])
            h[j, 1] = np.conj(h[1, j])
        return h, labels

    return build
