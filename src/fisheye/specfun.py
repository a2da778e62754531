"""Special functions for the fish-eye cavity model.

Everything downstream (mode functions, Green's functions, coupling rates)
reduces to Legendre polynomials, associated Legendre functions, spherical
harmonics, the digamma function, and Legendre functions of arbitrary complex
degree.  All evaluators here are pure functions of their arguments and are
safe to call concurrently.

Conventions: associated Legendre functions and spherical harmonics carry the
Condon-Shortley phase.  The phase drops out of every physical observable in
this package (they all involve conjugate pairs or the phase-free addition
theorem), and the choice is pinned by the test suite.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, NonConvergenceError, PoleError

EULER_GAMMA = 0.5772156649015328606065120900824024

# Bernoulli coefficients B_2n/(2n) for the digamma asymptotic series.
_DIGAMMA_ASYMP = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def digamma(z: complex | np.ndarray) -> complex | np.ndarray:
    """Digamma function psi(z) for complex z.

    Upward recurrence psi(z) = psi(z+1) - 1/z is applied until Re z >= 10,
    then the standard asymptotic series ln z - 1/(2z) - sum B_2n/(2n z^2n)
    is summed.  Accurate to ~1e-13 relative for |z| <= 1e3.

    An ndarray z returns a complex array of its shape, computed by the same
    steps (numpy rounds complex products and quotients a little differently,
    so elements can differ from the scalar result in the last bits).

    Raises PoleError within 1e-12 of a non-positive integer (any element).
    """
    if isinstance(z, np.ndarray):
        return _digamma_array(z)
    z = complex(z)
    if z.real <= 0.5 and abs(z.imag) < 1e-12:
        nearest = round(z.real)
        if nearest <= 0 and abs(z.real - nearest) < 1e-12:
            raise PoleError(f"digamma pole at z = {nearest}")
    acc = 0.0 + 0.0j
    while z.real < 10.0:
        acc -= 1.0 / z
        z += 1.0
    inv = 1.0 / z
    inv2 = inv * inv
    total = cmath.log(z) - 0.5 * inv
    power = inv2
    for coeff in _DIGAMMA_ASYMP:
        total -= coeff * power
        power *= inv2
    return acc + total


def _digamma_array(z: np.ndarray) -> np.ndarray:
    """digamma over an array: the scalar steps as numpy operations, element by element."""
    z = np.array(z, dtype=complex)
    nearest = np.round(z.real)
    pole = (nearest <= 0) & (np.abs(z.real - nearest) < 1e-12) & (np.abs(z.imag) < 1e-12)
    if pole.any():
        raise PoleError(f"digamma pole at z = {int(nearest[pole].flat[0])}")
    acc = np.zeros(z.shape, dtype=complex)
    low = z.real < 10.0
    while low.any():
        acc[low] -= 1.0 / z[low]
        z[low] += 1.0
        low = z.real < 10.0
    inv = 1.0 / z
    inv2 = inv * inv
    total = np.log(z) - 0.5 * inv
    power = inv2
    for coeff in _DIGAMMA_ASYMP:
        total -= coeff * power
        power = power * inv2
    return acc + total


def legendre_poly(l: int, x: float) -> float:
    """Legendre polynomial P_l(x) by the three-term recurrence."""
    if l < 0:
        raise DomainError("degree l must be >= 0")
    if abs(x) > 1.0:
        raise DomainError("argument x must lie in [-1, 1]")
    p_prev, p = 1.0, x
    if l == 0:
        return 1.0
    for k in range(1, l):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p


def legendre_poly_table(l_max: int, x: float) -> np.ndarray:
    """All P_l(x) for l = 0..l_max as a float array (same recurrence)."""
    if l_max < 0:
        raise DomainError("l_max must be >= 0")
    out = np.empty(l_max + 1)
    out[0] = 1.0
    if l_max >= 1:
        out[1] = x
    for k in range(1, l_max):
        out[k + 1] = ((2 * k + 1) * x * out[k] - k * out[k - 1]) / (k + 1)
    return out


def assoc_legendre(l: int, m: int, x: float) -> float:
    """Associated Legendre function P_l^m(x), Condon-Shortley phase.

    Negative m is handled by the factorial reflection
    P_l^{-m} = (-1)^m (l-m)!/(l+m)! P_l^m.  Stable for moderate degrees
    (l up to a few hundred); use spherical_harmonic for large l, which
    runs a normalized recurrence.
    """
    if abs(m) > l or l < 0:
        raise DomainError("need 0 <= |m| <= l")
    if abs(x) > 1.0:
        raise DomainError("argument x must lie in [-1, 1]")
    if m < 0:
        m = -m
        factor = (-1.0) ** m * math.factorial(l - m) / math.factorial(l + m)
        return factor * assoc_legendre(l, m, x)
    # diagonal start P_m^m, then raise the degree
    pmm = 1.0
    if m > 0:
        s = math.sqrt((1.0 - x) * (1.0 + x))
        for k in range(1, m + 1):
            pmm *= -(2 * k - 1) * s
    if l == m:
        return pmm
    pm1 = x * (2 * m + 1) * pmm
    if l == m + 1:
        return pm1
    for k in range(m + 2, l + 1):
        pmm, pm1 = pm1, ((2 * k - 1) * x * pm1 - (k + m - 1) * pmm) / (k - m)
    return pm1


def _theta_lm(l: int, m: int, u: float | np.ndarray) -> float | np.ndarray:
    """Normalized colatitude part of Y_l^m: Y = _theta_lm(cos theta) e^{im phi}.

    Normalized so that 2*pi * integral of _theta_lm^2 du = 1.  The recurrence
    runs on the normalized functions and is stable to very large l.  u may be
    an array (e.g. all quadrature nodes), which the recurrence runs over at
    once; a float u returns a float.
    """
    m_abs = abs(m)
    # seed: normalized |m||m| term, one per element of u
    t = math.sqrt(1.0 / (4.0 * math.pi))
    if isinstance(u, np.ndarray):
        s = np.sqrt(np.maximum(0.0, (1.0 - u) * (1.0 + u)))
        t = np.full_like(s, t)
    else:
        s = math.sqrt(max(0.0, (1.0 - u) * (1.0 + u)))
    for k in range(1, m_abs + 1):
        t *= -math.sqrt((2 * k + 1) / (2.0 * k)) * s
    if l > m_abs:
        t_prev = 0.0
        for k in range(m_abs, l):
            a = math.sqrt((4.0 * (k + 1) ** 2 - 1.0) / ((k + 1) ** 2 - m_abs**2))
            b = math.sqrt(((2.0 * k + 3) * (k**2 - m_abs**2)) / ((2.0 * k - 1) * ((k + 1) ** 2 - m_abs**2)))
            t_prev, t = t, a * u * t - b * t_prev
    if m < 0:
        t = t * (-1.0) ** m_abs
    return t


def spherical_harmonic(l: int, m: int, theta: float, phi: float) -> complex:
    """Spherical harmonic Y_l^m(theta, phi), Condon-Shortley phase.

    Normalization sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!) P_l^m(cos theta) e^{i m phi},
    evaluated through a normalized recurrence (no raw factorials).
    """
    if l < 0 or abs(m) > l:
        raise DomainError("need 0 <= |m| <= l")
    if not 0.0 <= theta <= math.pi:
        raise DomainError("theta must lie in [0, pi]")
    return _theta_lm(l, m, math.cos(theta)) * cmath.exp(1j * m * phi)


def _hyp_series(d: complex, x: float, tol: float, max_terms: int) -> complex:
    """Gauss hypergeometric series 2F1(-d, d+1; 1; (1-x)/2) = P_d(x).

    Geometric convergence with ratio -> (1-x)/2; terminates exactly when d is
    a non-negative integer.  Stops on the geometric tail bound
    |term| r/(1-r), which stays honest for ratios close to 1 (x near -1).
    """
    z = (1.0 - x) / 2.0
    term = 1.0 + 0.0j
    total = term
    small_runs = 0
    for k in range(max_terms):
        term = term * (k - d) * (k + d + 1.0) * z / ((k + 1.0) ** 2)
        total += term
        ratio = min(z * abs((k + 1 - d) * (k + d + 2.0)) / ((k + 2.0) ** 2), 0.999)
        if abs(term) * ratio / (1.0 - ratio) <= tol * max(1.0, abs(total)):
            # two consecutive hits: a single term can dip when k passes Re d
            small_runs += 1
            if small_runs >= 2:
                return total
        else:
            small_runs = 0
    raise NonConvergenceError(
        f"hypergeometric series for P_nu(nu={d}, x={x}) exceeded {max_terms} terms"
    )


def _log_series(d: complex, x: float, tol: float, max_terms: int) -> complex:
    """Logarithmic connection expansion of P_d(x) about x = -1.

    With w = (1+x)/2,

        P_d(x) = sin(pi d)/pi * sum_n c_n w^n [ln w + a_n],
        c_0 = 1,  c_{n+1} = c_n (n-d)(n+d+1)/(n+1)^2,
        a_0 = psi(-d) + psi(d+1) + 2 gamma_E,
        a_{n+1} = a_n + 1/(n-d) + 1/(n+d+1) - 2/(n+1).

    The n = 0 term is the familiar leading asymptote
    (sin(pi d)/pi)[ln((1+x)/2) + gamma_E + 2 psi(d+1) + pi cot(pi d)].
    Not usable for d within ~1e-3 of an integer (digamma poles; the
    hypergeometric branch is used there instead).
    """
    w = (1.0 + x) / 2.0
    lw = math.log(w)
    c = 1.0 + 0.0j
    a = digamma(-d) + digamma(d + 1.0) + 2.0 * EULER_GAMMA
    total = c * (lw + a)
    small_runs = 0
    for n in range(max_terms):
        c = c * (n - d) * (n + d + 1.0) * w / ((n + 1.0) ** 2)
        a = a + 1.0 / (n - d) + 1.0 / (n + d + 1.0) - 2.0 / (n + 1.0)
        term = c * (lw + a)
        total += term
        # geometric tail bound; two consecutive hits guard against single-term
        # dips (k passing Re d, or a sign change of the log factor)
        ratio = min(w * abs((n + 1 - d) * (n + d + 2.0)) / ((n + 2.0) ** 2), 0.999)
        if abs(term) * ratio / (1.0 - ratio) <= tol * max(abs(total), 1e-300):
            small_runs += 1
            if small_runs >= 2:
                return cmath.sin(cmath.pi * d) / math.pi * total
        else:
            small_runs = 0
    raise NonConvergenceError(
        f"logarithmic series for P_nu(nu={d}, x={x}) exceeded {max_terms} terms"
    )


#: Series terms per numpy pass in the array path: the first block has
#: _BLOCK_FIRST terms, each later one as many as were done before it, up to
#: _BLOCK_CAP.  Elements that need thousands of terms (x near -1 on the
#: hypergeometric branch) would otherwise pay numpy's per-call overhead once
#: per term; the cap bounds the memory of a block.
_BLOCK_FIRST = 16
_BLOCK_CAP = 256


def _series_array(d: complex | np.ndarray, x: np.ndarray, hyp: bool, tol: float, max_terms: int) -> np.ndarray:
    """Array form of _hyp_series (hyp=True) or _log_series over many x.

    d is one degree for all x or an array with the degree of each x.  Both
    series share the coefficient recurrence c_{n+1} = c_n (n-d)(n+d+1)
    y/(n+1)^2, with y = (1-x)/2 or (1+x)/2.  Terms are formed a block at a
    time (cumulative products and sums along a block); each element keeps
    the scalar stopping rule, two consecutive geometric-tail hits, and
    leaves the loop with the partial sum at the term where it met it.
    """
    y = (1.0 - x) / 2.0 if hyp else (1.0 + x) / 2.0
    c = np.ones(y.shape, dtype=complex)
    if hyp:
        floor = 1.0
        total = c.copy()
    else:
        lw, floor = np.log(y), 1e-300
        a = digamma(-d) + digamma(d + 1.0) + 2.0 * EULER_GAMMA
        total = lw + a
        a = np.reshape(a, (-1, 1))
        # sin(pi d)/pi with each part divided by pi, as Python's complex / float
        # does it (numpy would multiply by 1/pi)
        scale = (np.sin(np.pi * np.ravel(d)).view(float) / math.pi).view(complex)
    out = np.empty(y.shape, dtype=complex)
    live = np.arange(y.size)
    prev_hit = np.zeros(y.size, dtype=bool)
    n0 = 0
    while n0 < max_terms:
        size = min(max(_BLOCK_FIRST, n0), _BLOCK_CAP, max_terms - n0)
        n = np.arange(n0, n0 + size, dtype=float)
        n0 += size
        dc = d[:, None] if isinstance(d, np.ndarray) else d
        cs = c[:, None] * np.cumprod((n - dc) * (n + dc + 1.0) / (n + 1.0) ** 2 * y[:, None], axis=1)
        if hyp:
            terms = cs
        else:
            a_n = a + np.cumsum(1.0 / (n - dc) + 1.0 / (n + dc + 1.0) - 2.0 / (n + 1.0), axis=-1)
            terms = cs * (lw[:, None] + a_n)
            a = a_n[:, -1:]
        totals = total[:, None] + np.cumsum(terms, axis=1)
        ratio = np.minimum(y[:, None] * (np.abs((n + 1 - dc) * (n + dc + 2.0)) / (n + 2.0) ** 2), 0.999)
        hit = np.abs(terms) * ratio / (1.0 - ratio) <= tol * np.maximum(np.abs(totals), floor)
        stop = hit & np.concatenate([prev_hit[:, None], hit[:, :-1]], axis=1)
        done = stop.any(axis=1)
        rows = np.flatnonzero(done)
        out[live[rows]] = totals[rows, stop[rows].argmax(axis=1)]
        keep = ~done
        if not keep.any():
            return out if hyp else scale * out
        live, y, c, total, prev_hit = live[keep], y[keep], cs[keep, -1], totals[keep, -1], hit[keep, -1]
        if not hyp:
            lw = lw[keep]
        if isinstance(d, np.ndarray):
            d = d[keep]
            if not hyp:
                a = a[keep]
    name = "hypergeometric" if hyp else "logarithmic"
    raise NonConvergenceError(
        f"{name} series for P_nu(nu={np.ravel(d)[0]}, x={x[live[0]]}) exceeded {max_terms} terms"
    )


def _legendre_nu_array(
    nu: np.ndarray, x: np.ndarray, x_switch: float, tol: float, max_terms: int
) -> np.ndarray:
    """legendre_nu over broadcast arrays of nu and x: the scalar algorithm per element."""
    nu, x = np.broadcast_arrays(np.asarray(nu, dtype=complex), np.asarray(x, dtype=float))
    if not np.all((x > -1.0) & (x <= 1.0)):
        raise DomainError("argument x must lie in (-1, 1]")
    if not np.all(np.isfinite(nu)):
        raise DomainError("degree nu must be finite")
    out = np.ones(x.shape, dtype=complex)
    inner = x != 1.0
    nus, xs = nu[inner], x[inner]
    n = np.floor(nus.real)
    s = nus - n
    lift = n > 1

    def seed(d: np.ndarray, x: np.ndarray) -> np.ndarray:
        near_integer = np.minimum(np.abs(d - np.round(d.real)), 1.0) < 1e-3
        hyp = near_integer | (x >= x_switch)
        p = np.empty(x.shape, dtype=complex)
        for is_hyp, branch in ((True, hyp), (False, ~hyp)):
            if branch.any():
                db = d[branch]
                if np.all(db == db[0]):  # one degree for all (a sweep over x)
                    db = complex(db[0])
                p[branch] = _series_array(db, x[branch], is_hyp, tol, max_terms)
        return p

    # nu itself where no recurrence is needed, else s, and s + 1 below
    vals = seed(np.where(lift, s, nus), xs)
    if lift.any():
        # run the recurrence with the elements sorted by their step count,
        # longest first; an element is recorded, and dropped, at its count
        steps = n[lift].astype(int) - 1
        order = np.argsort(-steps, kind="stable")
        steps = steps[order]
        running = np.searchsorted(-steps, -np.arange(1, steps[0] + 1))
        p0, p1 = vals[lift][order], seed(s[lift] + 1.0, xs[lift])[order]
        xl, k = xs[lift][order].astype(complex), s[lift][order] + 1.0
        if np.all(k == k[0]):  # one fractional degree for all (a sweep over x)
            k = complex(k[0])
        lifted = np.empty(p1.shape, dtype=complex)
        for live in running:
            p0, p1 = p1, ((2.0 * k + 1.0) * xl * p1 - k * p0) / (k + 1.0)
            k = k + 1.0
            if live < p1.size:
                lifted[live : p1.size] = p1[live:]
                p0, p1, xl = p0[:live], p1[:live], xl[:live]
                if isinstance(k, np.ndarray):
                    k = k[:live]
        vals[np.flatnonzero(lift)[order]] = lifted
    out[inner] = vals
    return out


def legendre_nu(
    nu: complex | np.ndarray,
    x: float | np.ndarray,
    *,
    x_switch: float = 0.0,
    tol: float = 1e-10,
    max_terms: int = 100_000,
) -> complex | np.ndarray:
    """Legendre function P_nu(x) for arbitrary complex degree nu, x in (-1, 1].

    Strategy
    --------
    The degree is split as nu = n + s with n = floor(Re nu), so Re s in [0, 1).
    Seeds P_s(x) and P_{s+1}(x) are evaluated by series: the Gauss
    hypergeometric series for x >= x_switch and the logarithmic connection
    expansion about x = -1 for x < x_switch (both converge geometrically with
    ratio <= 1/2 at the default switch point).  The seeds are then lifted to
    degree nu with the three-term recurrence

        (k+1) P_{k+1}(x) = (2k+1) x P_k(x) - k P_{k-1}(x),   k = s+1, ...

    which is numerically stable for |x| < 1 (both fundamental solutions are
    bounded oscillations there).  Running the series directly at large degree
    would lose ~2|nu|sqrt(w)/ln 10 digits to cancellation; the seed degrees
    avoid that entirely.

    Accuracy, measured against mpmath (40 digits) over Re nu <= 90.5,
    Im nu <= 0.9 and x in [-0.99999, 0.99999], as the error relative to
    max(1, |P_nu(x)|): at the default tol = 1e-10 at most 3.1e-11, and
    1.8e-10 for nu within 1e-3 of an integer at x = -0.999; tol = 1e-13
    brings these to 9.0e-14 and 1.9e-13 for ~20% more time per call.  The
    scalar and the array path meet the same bounds.
    Relative to |P_nu(x)| alone the error grows near its zeros (3.8e-11 at
    nu = 50.459, x = 0.2, where |P| = 0.11).

    Integer nu reduces exactly: the seed series terminate and the recurrence
    reproduces the Legendre polynomial.  For nu within ~1e-3 of an integer and
    x < x_switch the connection series is ill-conditioned (digamma poles), so
    the hypergeometric branch is used for the seeds regardless of x (slower
    near x = -1 but well-conditioned).

    Known limits: with nu within ~1e-3 of an integer, x below about -0.9998
    needs more than max_terms hypergeometric terms and raises
    NonConvergenceError.  Outside the range above, large Im nu with x < 0
    loses accuracy (the log-series seeds and the forward recurrence head for
    a subdominant solution): 1.7e-9 relative at nu = 200.5+5j, x = -0.01,
    and 1e-3 at nu = 1000.5+10j, x = -0.1.

    Arrays
    ------
    If nu or x is an ndarray, the two are broadcast and a complex array of
    the broadcast shape is returned, computed by the same algorithm with
    the seed series and the recurrence run as numpy operations over all
    elements.  Each element keeps its own degree split, branch (including
    the near-integer rule) and stopping rule, and leaves the recurrence at
    its own n.  So a sweep over frequency or lens radius at fixed points
    (one x, many nu) costs one call, like a sweep over points at one
    degree.  A scalar nu with a scalar x takes the scalar code, because
    numpy's per-operation overhead would slow single-point calls
    several-fold.

    Raises
    ------
    DomainError
        If x (any element) is outside (-1, 1] (x = -1 is a logarithmic
        singularity), or a degree is not finite.
    NonConvergenceError
        If a seed series does not reach `tol` within `max_terms` terms
        (for any element).
    """
    if isinstance(nu, np.ndarray) or isinstance(x, np.ndarray):
        return _legendre_nu_array(nu, x, x_switch, tol, max_terms)
    if not -1.0 < x <= 1.0:
        raise DomainError("argument x must lie in (-1, 1]")
    nu = complex(nu)
    if not cmath.isfinite(nu):
        raise DomainError("degree nu must be finite")
    if x == 1.0:
        return 1.0 + 0.0j
    n = math.floor(nu.real)
    s = nu - n

    def seed(d: complex) -> complex:
        near_integer = min(abs(d - round(d.real)), 1.0) < 1e-3
        if x >= x_switch or near_integer:
            return _hyp_series(d, x, tol, max_terms)
        return _log_series(d, x, tol, max_terms)

    if n <= 1:
        return seed(nu)
    p0 = seed(s)
    p1 = seed(s + 1.0)
    k = s + 1.0
    for _ in range(n - 1):
        p0, p1 = p1, ((2.0 * k + 1.0) * x * p1 - k * p0) / (k + 1.0)
        k += 1.0
    return p1


def legendre_nu_expansion(nu: complex, x: float, l_max: int) -> np.ndarray:
    """Partial sums of the Legendre-polynomial expansion of P_nu(x).

    Test oracle, independent of legendre_nu:

        P_nu(x) = (sin(pi nu)/pi) sum_l (-1)^l (2l+1) / (nu(nu+1) - l(l+1)) P_l(x)

    Returns the sequence of partial sums (length l_max+1) so callers can apply
    sequence acceleration; the series converges only conditionally (terms fall
    off like l^{-3/2} with oscillating sign).

    Raises PoleError when nu is within 1e-6 of an integer (a denominator
    vanishes there).
    """
    nu = complex(nu)
    if abs(nu - round(nu.real)) < 1e-6:
        raise PoleError("expansion denominators vanish for (near-)integer nu")
    pl = legendre_poly_table(l_max, x)
    ls = np.arange(l_max + 1, dtype=float)
    terms = (-1.0) ** ls * (2.0 * ls + 1.0) / (nu * (nu + 1.0) - ls * (ls + 1.0)) * pl
    return cmath.sin(cmath.pi * nu) / math.pi * np.cumsum(terms)


def accelerate(partial_sums: np.ndarray) -> tuple[complex, float]:
    """Wynn epsilon acceleration of a sequence of partial sums.

    Returns (limit estimate, error estimate).  Handles the oscillatory,
    conditionally convergent tails of the mode sums and of
    legendre_nu_expansion; typical gain is from ~1e-2 to ~1e-12 relative.
    Exact stagnation (two equal consecutive sums) returns that value directly.
    """
    s = np.asarray(partial_sums, dtype=complex)
    if s.size == 0:
        raise DomainError("empty partial-sum sequence")
    # collapse runs of equal sums (zero terms, e.g. vanishing odd-l Legendre
    # values at x = 0) that would fill the epsilon table with zero divisors
    if s.size > 1:
        keep = np.ones(s.size, dtype=bool)
        keep[1:] = s[1:] != s[:-1]
        s = s[keep]
    if s.size == 1:
        return complex(s[0]), 0.0
    best = complex(s[-1])
    best_err = abs(s[-1] - s[-2])
    prev2 = np.zeros(s.size + 1, dtype=complex)  # epsilon_{-1} column
    prev1 = s.copy()                             # epsilon_0 column
    col = 0
    max_cols = min(s.size - 2, 120)  # deeper columns only amplify roundoff
    while prev1.size > 2 and col < max_cols:
        col += 1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            diffs = prev1[1:] - prev1[:-1]
            zero = diffs == 0.0
            recip = 1.0 / np.where(zero, 1.0, diffs)
            recip[zero] = np.inf
            nxt = prev2[1 : prev1.size] + recip
        prev2, prev1 = prev1, nxt
        if col % 2 == 0 and prev1.size >= 2:
            a, b = complex(prev1[-1]), complex(prev1[-2])
            if np.isfinite(a) and np.isfinite(b):
                err = abs(a - b)
                if err < best_err:
                    best, best_err = a, err
    return best, float(best_err)
