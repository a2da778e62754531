"""Special functions for the fish-eye cavity model.

Everything downstream (mode functions, Green's functions, coupling rates)
reduces to Legendre polynomial tables, the colatitude part of Y_l^m, the
digamma function, and Legendre functions of arbitrary complex degree, one
array evaluator each.  All evaluators here are pure functions of their
arguments and are safe to call concurrently.

Conventions: _theta_lm carries the Condon-Shortley phase, as does the Y_l^m
of lens.mode_function.  The phase drops out of every physical observable
in this package (they all involve conjugate pairs or the phase-free
addition theorem), and the choice is pinned by the test suite.
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


def digamma(z: complex | np.ndarray) -> np.ndarray:
    """Digamma function psi(z), element by element, in the shape of z; real for a real z.

    Upward recurrence psi(z) = psi(z+1) - 1/z is applied until Re z >= 10,
    then the standard asymptotic series ln z - 1/(2z) - sum B_2n/(2n z^2n)
    is summed.  Accurate to ~1e-13 relative for |z| <= 1e3.  A real z is
    worked in float64 and gives the real parts of the complex result bit
    for bit (see _quotient); its logarithm is the real part of the complex
    one, which numpy's float64 log (a SIMD kernel on some CPUs) can miss by
    an ulp.  Each call costs numpy overhead, so loops should pass an array.

    Raises PoleError within 1e-12 of a non-positive integer (any element).
    """
    z = np.array(z, dtype=complex if np.iscomplexobj(z) else float)
    nearest = np.round(z.real)
    pole = (nearest <= 0) & (np.abs(z.real - nearest) < 1e-12) & (np.abs(z.imag) < 1e-12)
    if pole.any():
        raise PoleError(f"digamma pole at z = {int(nearest[pole].flat[0])}")
    acc = np.zeros(z.shape, dtype=z.dtype)
    low = z.real < 10.0
    # unmasked: an element already at Re z >= 10 takes 0/z and + 0, which leave
    # it as it is (but for the sign of a zero imaginary part)
    while low.any():
        acc -= low / z
        z += low
        low = z.real < 10.0
    inv = 1.0 / z
    inv2 = inv * inv
    total = (np.log(z) if np.iscomplexobj(z) else np.log(z + 0j).real) - 0.5 * inv
    power = inv2
    for coeff in _DIGAMMA_ASYMP:
        total -= coeff * power
        power = power * inv2
    return acc + total


def legendre_poly_table(l_max: int, x: float | np.ndarray) -> np.ndarray:
    """All P_l(x) for l = 0..l_max as a float array (same recurrence); an ndarray x adds its shape after l.

    The recurrence runs on Python floats, one x at a time: for the few
    arguments of a mode sum, a numpy step over all of them costs more.
    """
    if l_max < 0:
        raise DomainError("l_max must be >= 0")
    xs = np.asarray(x, dtype=float)
    out = np.empty((xs.size, l_max + 1))
    for row, xj in zip(out, xs.ravel().tolist()):
        table, p_prev, p = [1.0, xj], 1.0, xj
        for k in range(1, l_max):
            p_prev, p = p, ((2 * k + 1) * xj * p - k * p_prev) / (k + 1)
            table.append(p)
        row[:] = table[: l_max + 1]
    return out.T.reshape((l_max + 1,) + xs.shape)


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


#: How far 2w - 1 may lie from x when legendre_nu is given w = (1+x)/2.
W_TOL = 1e-12

#: Terms a seed series may take before legendre_nu raises NonConvergenceError.
MAX_TERMS = 100_000

#: Tail bound, relative to the partial sum, at which a seed series of legendre_nu stops.
SERIES_TOL = 1e-10

#: Series terms per block of the array path: the first block has
#: _BLOCK_FIRST terms, each later one as many as were done before it, up to
#: _BLOCK_CAP.  A block's set-up and stopping test are paid once per block;
#: elements that need thousands of terms (x near -1 on the hypergeometric
#: branch) would otherwise pay them once per term.  The cap bounds the
#: length of a block, and so its work arrays.
_BLOCK_FIRST = 16
_BLOCK_CAP = 256

#: Bytes of block work arrays the seed series may hold at once: a call's
#: seed elements (P_s and, for a lifted degree, P_{s+1}) are summed in groups
#: of _group_rows, as many as fit at the widest block.  A buffer for every
#: element at once would take 816 bytes per element at the fidelity degrees,
#: 82 MB for 50,000 of them (100,000 seeds).
_WORK_BYTES = 1 << 25

#: Columns up to which a block's running sums (and, for a real degree, its
#: c_n products) are one cumsum (cumprod) down the array rather than one
#: numpy call per term.  The cumsum costs ~5 ns per element, a call ~0.6 us:
#: down a 16-term block, 64 columns take 7 us by cumsum and 10 us by rows,
#: 512 columns 56 and 14 us.
_NARROW = 64


def _work_bytes(rows: int, size: int, itemsize: int) -> int:
    """Bytes of a _series_array block's work arrays, size terms over rows: three of size + 1 items of itemsize bytes."""
    return 3 * itemsize * rows * (size + 1)


def _group_rows(itemsize: int) -> int:
    """The rows whose work arrays fit within _WORK_BYTES at the widest block: 2,720 complex, 5,440 real.

    A ddi-sweep call (2 x 1,201 arguments at one real degree, 4,804 seeds)
    is one group; a fidelity command's call (3,204 complex degrees, 6,408
    seeds) takes three.
    """
    return _WORK_BYTES // _work_bytes(1, _BLOCK_CAP, itemsize)


def _quotient(num: complex | np.ndarray, den: complex | np.ndarray) -> complex | np.ndarray:
    """num / den, rounded as numpy rounds a complex quotient.

    numpy divides complex numbers by Smith's algorithm, which for a divisor
    with zero imaginary part multiplies by its reciprocal.  A real den is
    divided the same way, so the float64 evaluation of a real degree gives
    the real parts of the complex evaluation bit for bit.
    """
    if isinstance(den, complex) or getattr(den, "dtype", None) == complex:
        return num / den
    return num * (1.0 / den)


def _trig_pi(f, nu: complex | np.ndarray) -> np.ndarray:
    """f(pi nu) for f = np.sin or np.cos, in the shape of nu (0-d for a scalar), real for a real nu.

    Taken as (-1)^k f(pi r), r = nu - k with k the integer nearest Re nu
    (r is exact): pi nu itself would carry an absolute rounding error of
    ~1e-16 |nu|, ~1e-16 |nu| / |sin(pi nu)| relative in the sine (1e-12 at
    Re nu = 90.5 +- 0.49, 1e-8 at 1e-6 from an integer).  A real nu takes
    the real part of the complex function, as digamma does with the
    log, so its values are the real parts of the complex evaluation.
    """
    nu = np.asarray(nu)
    k = np.round(nu.real)
    v = f(np.pi * np.asarray(nu - k, dtype=complex))
    # k is odd where k/2 is not an integer; times -1.0, not negated, to sign a zero part as a complex product does
    v = np.where(np.floor(0.5 * k) != 0.5 * k, v * -1.0, v)
    return v if np.iscomplexobj(nu) else v.real


def sin_pi(nu: complex | np.ndarray) -> np.ndarray:
    """sin(pi nu) in the shape of nu, real for a real nu, to full relative accuracy near an integer nu (_trig_pi)."""
    return _trig_pi(np.sin, nu)


def source_offset(nu: complex | np.ndarray, sin: np.ndarray | None = None) -> np.ndarray:
    """a_0(nu) = psi(-nu) + psi(nu+1) + 2 gamma_E in the shape of nu, real for a real nu.

    The constant of the logarithmic expansion about x = -1,
    P_nu(x) ~ sin(pi nu)/pi [ln((1+x)/2) + a_0(nu)]: the n = 0 coefficient
    of the log seed series (_log_start) and the near-source offset F(nu) of
    the Green's function, whose imaginary part at a lossy (complex) degree
    sets the on-site decay.  (A commonly printed variant carries a single
    gamma_E; the doubled value is what P_nu approaches.)  One digamma
    serves it, by the reflection psi(-nu) = psi(nu+1) + pi cot(pi nu), with
    cot = cos/sin at the reduced argument (_trig_pi), divided as numpy
    divides complex numbers; sin is sin_pi(nu), if the caller has it.
    """
    d = np.ravel(nu)
    cot = _quotient(_trig_pi(np.cos, d), sin_pi(d) if sin is None else np.ravel(sin))
    return (2.0 * digamma(d + 1.0) + np.pi * cot + 2.0 * EULER_GAMMA).reshape(np.shape(nu))


def _log_start(d: complex | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a_0 (source_offset) and the prefactor sin(pi d)/pi of the logarithmic seed series, one per degree (1-D).

    The prefactor divides each part of the sine by pi, as Python's complex
    / float does it (numpy would multiply by 1/pi).
    """
    d = np.ravel(d)
    sin = sin_pi(d)
    return source_offset(d, sin), (sin.view(float) / math.pi).view(sin.dtype)


def _series_array(segments: list[tuple]) -> list[np.ndarray]:
    """Seed series for P_d(x), hypergeometric or logarithmic, every segment of a call in one pass.

    With p_n = (n-d)(n+d+1), c_0 = 1 and c_{n+1} = c_n p_n y/(n+1)^2, the
    Gauss hypergeometric series is P_d(x) = sum_n c_n, y = (1-x)/2, and the
    logarithmic connection expansion about x = -1 (not usable for d within
    ~1e-3 of an integer: digamma poles) is, with y = w = (1+x)/2,

        P_d(x) = sin(pi d)/pi * sum_n c_n [ln w + a_n],
        a_0 = psi(-d) + psi(d+1) + 2 gamma_E,
        a_{n+1} = a_n + 1/(n-d) + 1/(n+d+1) - 2/(n+1) = a_n + (2n+1)/p_n - 2/(n+1).

    Each segment is (d, x, w, hyp, start), the hypergeometric ones first: d
    is one degree for all x or an array with the degree of each x, hyp picks
    the branch, and `start` is (a_0, sin(pi d)/pi) of a logarithmic segment
    as _log_start gives them, if the caller has them.  The values come back
    one array per segment.

    The segments' elements are laid end to end and summed together, so the
    numpy calls of a term (the c_n products, the partial sums) and of a block
    (the stopping test) are paid once per call, not once per segment.  Each
    segment keeps its degree layout: p_n, and a_n on the logarithmic
    segments only (1/p_n divides by zero at an integer degree), are formed
    once per degree column, one column for a sweep over x and one per element
    otherwise, and each run of elements takes its column by broadcasting.
    Terms are formed a block at a time, in work arrays cut from one buffer
    and filled in place; p_n, formed once per term, serves the coefficient,
    the increment of a_n and the tail ratio.  The work arrays are
    term-major: row j of a block holds term n0 + j of every live element (of
    every degree column, for p_n and a_n), so each row is contiguous, and
    c_{n+1} = c_n f_n, the running a_n and the block's partial sums are
    carried down the rows with one elementwise call per term.  numpy's
    cumprod and cumsum along a block cost ~5 ns per element, several times
    a product over a contiguous row (a 1,201 x 17 float cumprod 101 us, the
    rows' products 38 us), but an array of at most _NARROW columns (the a_n
    of a few degrees, or a call's last live elements) is summed by one
    cumsum down it, which there costs less than a call per term.  The
    elements are summed in groups of _group_rows, so the buffer stays within
    _WORK_BYTES however large the call.  An element is tested only at the
    end of a block, which it pays for whole: it stops there, with the
    block-end partial sum, if each of the block's last two terms has a
    geometric tail bound |term| r/(1-r), r = y |p_{n+1}|/(n+2)^2, within
    SERIES_TOL of its partial sum (of 1 at least, on the hypergeometric
    branch); a single term can dip when n passes Re d.

    Every element's arithmetic is its own, in a fixed operand order
    (numpy's complex product fuses a multiply-add, so it is not commutative
    to the last bit), so its value does not depend on the other elements
    of the call, on their segments or on their grouping.  Two roundings of
    numpy would break that, and are avoided.  np.add.reduce down the term
    axis adds row after row when a row holds many elements but sums pairwise
    when it holds one, so the partial sums are carried term by term.  A
    complex product of one element written over one of its own factors is
    rounded without the fused multiply-add, so no product is written in
    place.  The sums being sequential, a real d (a float or a float array),
    summed in float64, keeps the bits of the complex sum's real parts.
    """
    dtype = complex if any(np.iscomplexobj(seg[0]) for seg in segments) else float
    itemsize = np.dtype(dtype).itemsize
    # each segment's first element in the call, its arguments, degrees, branch and (a_0, prefactor)
    layout, size_all = [], 0
    for d, x, w, hyp, start in segments:
        d = np.ravel(np.asarray(d, dtype=dtype))
        if not hyp and start is None:
            start = _log_start(d)
        layout.append((size_all, x, w, d, hyp, start))
        size_all += x.size

    def take(slot: np.ndarray, rows: int, cols: int) -> np.ndarray:
        return slot[: rows * cols].reshape(rows, cols)

    def running_sum(rows: np.ndarray) -> None:
        """rows[j] = rows[j - 1] + rows[j] down the term axis, in order; a narrow array by one cumsum, in the same order."""
        if rows.shape[1] <= _NARROW:
            np.cumsum(rows, axis=0, out=rows)
        else:
            for prev, row in zip(rows, rows[1:]):
                np.add(prev, row, row)

    def spans(runs: list[list]) -> tuple[list, list, int, int]:
        """The element and column slices of each run, those of the logarithmic runs counted from their first, kh and dh.

        kh and dh count the hypergeometric elements and degree columns,
        which come first.
        """
        every, log, e, c = [], [], 0, 0
        kh = dh = 0
        for count, one, hyp in runs:
            width = 1 if one else count
            every.append((slice(e, e + count), slice(c, c + width)))
            if hyp:
                kh, dh = e + count, c + width
            else:
                log.append((slice(e - kh, e + count - kh), slice(c - dh, c + width - dh)))
            e, c = e + count, c + width
        return every, log, kh, dh

    group = _group_rows(itemsize)
    # the work arrays are cut from one buffer per call: a single allocation,
    # which serves every group and which the heap reuses from call to call
    # instead of mapping fresh pages for each array
    arena = np.empty(0, dtype=np.uint8)
    out = np.empty(size_all, dtype=dtype)
    for g0 in range(0, size_all, group):
        g1 = min(g0 + group, size_all)
        # the group's runs of elements, [count, one degree for all, hyp]: a
        # segment's part each, neighbouring parts with a degree per element
        # and one branch merged; their y, degree columns and a_0s in that order
        runs, ys, dcols, acols = [], [], [], []
        for s0, x, w, d, hyp, start in layout:
            lo, hi = max(s0, g0), min(s0 + x.size, g1)
            if lo >= hi:
                continue
            part = slice(lo - s0, hi - s0)
            ys.append((1.0 - x[part]) / 2.0 if hyp else w[part])
            one = d.size == 1
            if not one:
                d = d[part]
            dcols.append(d)
            if not hyp:
                acols.append(start[0] if one else start[0][part])
            if not one and runs and not runs[-1][1] and runs[-1][2] == hyp:
                runs[-1][0] += hi - lo
            else:
                runs.append([hi - lo, one, hyp])
        y, dv = (ys[0], dcols[0]) if len(ys) == 1 else (np.concatenate(ys), np.concatenate(dcols))
        a = (acols[0] if len(acols) == 1 else np.concatenate(acols)) if acols else None
        every, log, kh, dh = spans(runs)
        yc = y.astype(dtype)
        c = None  # c_n at the start of the block; None for c_0 = 1
        total = np.ones(y.size, dtype=dtype)
        if kh < y.size:
            lw = np.log(y[kh:]).astype(dtype)
            for els, cols in log:
                np.add(lw[els], a[cols], out=total[kh:][els])
        out_g = out[g0:g1]
        live = np.arange(y.size)
        n0 = 0
        while n0 < MAX_TERMS:
            size = min(max(_BLOCK_FIRST, n0), _BLOCK_CAP, MAX_TERMS - n0)
            n = np.arange(n0, n0 + size + 1, dtype=float)[:, None]
            n0 += size
            k, kd, width = live.size, dv.size, size + 1
            need = _work_bytes(k, size, itemsize)
            if arena.size < need:
                arena = np.empty(need, dtype=np.uint8)
            U, V, W = arena[:need].view(dtype).reshape(3, -1)
            # p_n for n0 <= n <= n0 + size, a column per degree
            p = np.multiply(
                np.subtract(n.astype(dtype), dv, out=take(U, width, kd)),
                np.add((n + 1.0).astype(dtype), dv, out=take(V, width, kd)),
                out=take(W, width, kd),
            )
            # the tail ratios r_n = y |p_{n+1}|/(n+2)^2 of the block's last two
            # terms (of its one term, in a block of one), before p's buffer is reused
            last = slice(max(size - 1, 1), None)
            r = np.abs(p[last])
            r *= 1.0 / (n[last] + 1.0) ** 2
            ratio = np.empty((r.shape[0], k))
            for els, cols in every:
                np.multiply(r[:, cols], y[els], out=ratio[:, els])
            np.minimum(ratio, 0.999, out=ratio)
            if dh < kd:
                # a_{n+1} = a_n + (2n+1)/p_n - 2/(n+1) on the logarithmic columns, a_n
                # folded into the first increment; 1/p_n times 2n+1 is one division,
                # rounded for a real d as the complex path's real part (see _quotient)
                a_n = np.multiply(
                    np.divide(1.0, p[:size, dh:], out=take(V, size, kd - dh)),
                    (2.0 * n[:size] + 1.0).astype(dtype),
                    out=take(U, size, kd - dh),
                )
                a_n -= (2.0 / (n[:size] + 1.0)).astype(dtype)
                a_n[0] += a
                running_sum(a_n)
                a = a_n[-1].copy()
            # c_{n+1} = c_n f_n, f_n = p_n y/(n+1)^2, c_n folded into the block's first factor
            q = np.multiply(p[:size], (1.0 / (n[:size] + 1.0) ** 2).astype(dtype), out=take(V, size, kd))
            f = take(W, size, k)
            for els, cols in every:
                np.multiply(q[:, cols], yc[els], out=f[:, els])
            cs = take(V, size, k)
            if c is None:
                cs[0] = f[0]
            else:
                np.multiply(f[0], c, out=cs[0])
            if k <= _NARROW and dtype is float:
                # real columns: cumprod rounds each product once, in the same order
                cs[1:] = f[1:]
                np.cumprod(cs, axis=0, out=cs)
            else:
                for prev, f_n, row in zip(cs, f[1:], cs[1:]):
                    np.multiply(prev, f_n, row)
            c = cs[-1].copy()  # the hypergeometric terms become the partial sums below
            if kh == k:
                terms = cs
            else:
                # the logarithmic terms c_n (ln w + a_n), beside the hypergeometric c_n;
                # ln w + a_n is formed over a_n where each element has its own column
                la = a_n if kd - dh == k - kh else take(W, size, k - kh)
                for els, cols in log:
                    np.add(lw[els], a_n[:, cols], out=la[:, els])
                terms = take(W if la is a_n else U, size, k)
                np.multiply(cs[:, kh:], la, out=terms[:, kh:])
                if kh:
                    terms[:, :kh] = cs[:, :kh]
            # the tail bound |term| r/(1-r) of the last two terms, then their partial
            # sums; the block's sum is added to the total apart, which keeps the
            # rounding of a long series to the blocks' count instead of its terms'
            bound = np.abs(terms[-2:])
            bound *= ratio
            bound /= 1.0 - ratio
            running_sum(terms)
            sums = terms[-2:] + total
            limit = np.abs(sums)
            if kh:
                np.maximum(limit[:, :kh], 1.0, out=limit[:, :kh])
            if kh < k:
                np.maximum(limit[:, kh:], 1e-300, out=limit[:, kh:])
            limit *= SERIES_TOL
            done = (bound <= limit).all(axis=0)
            rows = done.nonzero()[0]
            out_g[live[rows]] = sums[-1, rows]
            if rows.size == k:
                break
            keep = ~done
            live, y, yc = live[keep], y[keep], yc[keep]
            c, total = c[keep], sums[-1, keep]
            if kh < k:
                lw = lw[keep[kh:]]
            if rows.size:
                # a column stays while an element of it does
                kept, e = [], 0
                for run in runs:
                    stay = keep[e : e + run[0]]
                    e += run[0]
                    run[0] = int(np.count_nonzero(stay))
                    kept.append(np.any(stay, keepdims=True) if run[1] else stay)
                kept = np.concatenate(kept)
                dv = dv[kept]
                if a is not None:
                    a = a[kept[dh:]]
                runs = [run for run in runs if run[0]]
                every, log, kh, dh = spans(runs)
        else:
            # the first element left is the first of the call to fail
            i = g0 + live[0]
            s0, x, _, _, hyp, _ = next(seg for seg in layout if i < seg[0] + seg[1].size)
            name = "hypergeometric" if hyp else "logarithmic"
            raise NonConvergenceError(f"{name} series for P_nu(nu={dv[0]}, x={x[i - s0]}) exceeded {MAX_TERMS} terms")
    for s0, x, _, _, hyp, start in layout:
        if not hyp:  # times the prefactor into a new array, then back: no product in place
            out[s0 : s0 + x.size] = start[1] * out[s0 : s0 + x.size]
    return [out[s0 : s0 + x.size] for s0, x, *_ in layout]


def _legendre_nu_array(nu: np.ndarray, x: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """legendre_nu over broadcast arrays (or 0-d arrays) of nu and x, element by element.

    The work runs in the dtype of nu: float64 for a real array, complex128
    for a complex one, even where its imaginary parts are zero.  Either way
    the result is complex.
    """
    nu, x = np.asarray(nu), np.asarray(x, dtype=float)
    w = (1.0 + x) / 2.0 if w is None else np.asarray(w, dtype=float)
    nu, x, w = np.broadcast_arrays(nu.astype(complex if np.iscomplexobj(nu) else float), x, w)
    if not ((x > -1.0) & (x <= 1.0)).all():
        raise DomainError("argument x must lie in (-1, 1]")
    if not (np.abs(2.0 * w - 1.0 - x) <= W_TOL).all():
        raise DomainError(f"w must be (1 + x)/2 to within {W_TOL}")
    if not np.isfinite(nu).all():
        raise DomainError("degree nu must be finite")
    out = np.ones(x.shape, dtype=complex)
    inner = x != 1.0
    nus, xs, ws = nu[inner], x[inner], w[inner]
    n = np.floor(nus.real)
    s = nus - n
    lift = n > 1

    def seeds(d: np.ndarray, x: np.ndarray, w: np.ndarray, up: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """P_d(x) at every element, and P_{d+1}(x) at the elements where up, in their order.

        Both seeds of an element take the branch that d picks.  On the
        logarithmic branch the d + 1 series starts from the a_0 and sine of
        d: a_0(d+1) = a_0(d) + 2/(d+1) and sin(pi (d+1)) = -sin(pi d).  One
        _series_array pass sums them all, as the segments [hypergeometric
        at d | at d + 1 | logarithmic at d | at d + 1].
        """
        near_integer = np.minimum(np.abs(d - np.round(d.real)), 1.0) < 1e-3
        hyp = near_integer | (x >= 0.0)
        p, p1 = np.empty(x.shape, dtype=d.dtype), np.empty(np.count_nonzero(up), dtype=d.dtype)
        segments, places = [], []
        for is_hyp, branch in ((True, hyp), (False, ~hyp)):
            if not branch.any():
                continue
            db, xb, wb, ub = d[branch], x[branch], w[branch], up[branch]
            one = bool((db == db[0]).all())  # one degree for all (a sweep over x)
            if one:
                db = db[:1]
            start = None if is_hyp else _log_start(db)
            segments.append((db, xb, wb, is_hyp, start))
            places.append((p, branch))
            if ub.any():
                if not one:
                    db = db[ub]
                db = db + 1.0
                if start is not None:
                    a0, scale = start if one else (start[0][ub], start[1][ub])
                    start = (a0 + _quotient(2.0, db), -scale)
                segments.append((db, xb[ub], wb[ub], is_hyp, start))
                places.append((p1, branch[up]))
        if segments:
            for (seed, where), vals in zip(places, _series_array(segments)):
                seed[where] = vals
        return p, p1

    # nu itself where no recurrence is needed, else s, and s + 1 below
    vals, vals1 = seeds(np.where(lift, s, nus), xs, ws, lift)
    if lift.any():
        # run the recurrence with the elements sorted by their step count,
        # longest first; an element is recorded, and dropped, at its count
        steps = n[lift].astype(int) - 1
        order = np.argsort(-steps, kind="stable")
        steps = steps[order]
        running = np.searchsorted(-steps, -np.arange(1, steps[0] + 1))
        p0, p1 = vals[lift][order], vals1[order]
        xl, k = xs[lift][order].astype(nu.dtype), s[lift][order] + 1.0
        if (k == k[0]).all():  # one fractional degree for all (a sweep over x)
            k = k[0].item()
        lifted = np.empty(p1.shape, dtype=nu.dtype)
        for live in running:
            k1 = k + 1.0
            p0, p1 = p1, _quotient((2.0 * k + 1.0) * xl * p1 - k * p0, k1)
            k = k1
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
    w: float | np.ndarray | None = None,
) -> complex | np.ndarray:
    """Legendre function P_nu(x) for arbitrary complex degree nu, x in (-1, 1].

    Strategy
    --------
    The degree is split as nu = n + s with n = floor(Re nu), so Re s in [0, 1).
    Seeds P_s(x) and P_{s+1}(x) are evaluated by series: the Gauss
    hypergeometric series for x >= 0 and the logarithmic connection
    expansion about x = -1 for x < 0 (both converge geometrically with
    ratio <= 1/2).  The seeds are then lifted to
    degree nu with the three-term recurrence

        (k+1) P_{k+1}(x) = (2k+1) x P_k(x) - k P_{k-1}(x),   k = s+1, ...

    which is numerically stable for |x| < 1 (both fundamental solutions are
    bounded oscillations there).  Running the series directly at large degree
    would lose ~2|nu|sqrt(w)/ln 10 digits to cancellation; the seed degrees
    avoid that entirely.

    Accuracy, measured against mpmath (40 digits) over Re nu <= 90.5,
    Im nu <= 0.9 and x in [-0.99999, 0.99999], as the error relative to
    max(1, |P_nu(x)|): at SERIES_TOL = 1e-10 at most 2.1e-11, and
    1.7e-10 for nu within 1e-3 of an integer at x = -0.999; SERIES_TOL = 1e-13
    brings these to 3.9e-14 and 1.7e-13 for ~30% (801 degrees at Re nu =
    90.5) to ~70% (at 10.5) more time per array call.
    Relative to |P_nu(x)| alone the error grows near its zeros (1.2e-10 at
    nu = 90.5, x = 0.4215, where |P| = 0.039).

    Integer nu reduces exactly: the seed series terminate and the recurrence
    reproduces the Legendre polynomial.  For nu within ~1e-3 of an integer and
    x < 0 the connection series is ill-conditioned (digamma poles), so
    the hypergeometric branch is used for the seeds regardless of x (slower
    near x = -1 but well-conditioned).

    Near the source, x -> -1: the log series runs on w = (1+x)/2, and a
    float x keeps 1 + x only to absolute precision, which costs about
    1e-16/(1+x) relative (3.6e-5 at 1 + x = 2e-14).  A caller that has w
    to full relative precision passes it as `w` (greens forms it as
    |zeta|^2/(|zeta|^2 + 1)); the log seeds then see 1 + x without
    cancellation, while x stays the argument of the branch test, the
    hypergeometric seeds and the recurrence.  With w, the error over
    w in [1e-14, 1e-3] and Re nu <= 90.5 is at most 4.3e-13 relative.

    Known limits: with nu within ~1e-3 of an integer, x below about -0.9998
    needs more than MAX_TERMS hypergeometric terms and raises
    NonConvergenceError.  Outside the range above, large Im nu with x < 0
    loses accuracy (the log-series seeds and the forward recurrence head for
    a subdominant solution): 1.7e-9 relative at nu = 200.5+5j, x = -0.01,
    and 1e-3 at nu = 1000.5+10j, x = -0.1.

    Arrays
    ------
    If nu or x is an ndarray, the two are broadcast and a complex array of
    the broadcast shape is returned; otherwise the result is a Python
    complex, computed as a one-element array.  The seed series and the
    recurrence run as numpy operations over all elements, every seed of the
    call in one series pass (_series_array).  Each element
    keeps its own degree split, branch (including the near-integer rule,
    which s decides for both seeds) and stopping rule, and leaves the
    recurrence at its own n.  An element's value does not depend on the
    other elements of the call: a sweep evaluated in one call or split
    over several gives the same bits.  So a sweep over frequency or lens
    radius at fixed points (one x, many nu) costs one call, like a sweep
    over points at one degree.  Measured on a shared 2-core machine with
    one BLAS thread (a loaded machine reads up to twice these), a
    one-element call takes about 0.1 ms (a real degree below 2 at x >= 0)
    to 0.4 ms (nu = 20.5 + 0.02i at x < 0), most of it numpy's per-call
    cost (the seed series carry their terms a call per term), and 801
    complex degrees at one x take about 2.3 ms at Re nu = 10.5 and 3.0 ms at
    90.5 (the difference is the recurrence); so a loop over points or
    degrees should pass them as one array.  The seed series hold their work
    arrays for at most 2,720 complex (5,440 real) seeds at a time (a lifted
    degree has two), within 32 MiB; the rest of a call takes a few hundred
    bytes per element.  A 100,000-degree call at one x raises peak RSS by
    ~36 MB and takes about 3 us per element.  When every degree is real (the lossless
    cavity at real frequency), the seeds and the recurrence run in float64
    instead of complex128, with the bits of the complex arithmetic's real
    parts: numpy divides complex numbers by multiplying with the divisor's
    reciprocal, and the float path does the same (an exact zero may differ
    in sign).  Its logarithm (in the digamma), sine and cotangent are the
    real parts of the complex ones, so a SIMD float64 kernel cannot move a
    last bit.  The result is complex either way.

    Raises
    ------
    DomainError
        If x (any element) is outside (-1, 1] (x = -1 is a logarithmic
        singularity), a given w is not (1+x)/2 to within W_TOL, or a
        degree is not finite.
    NonConvergenceError
        If a seed series does not reach SERIES_TOL within MAX_TERMS terms (for
        any element).
    """
    scalar = not (isinstance(nu, np.ndarray) or isinstance(x, np.ndarray))
    nu = np.asarray(nu)
    if np.iscomplexobj(nu) and not nu.imag.any():
        nu = nu.real  # real degrees: the float64 path
    p = _legendre_nu_array(nu, x, w)
    return complex(p[()]) if scalar else p


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


def accelerate(partial_sums: np.ndarray) -> tuple[complex, float] | tuple[np.ndarray, np.ndarray]:
    """Wynn epsilon acceleration of a sequence of partial sums, or of each row of a 2-D array of them.

    Returns (limit estimate, error estimate).  Handles the oscillatory,
    conditionally convergent tails of the mode sums and of
    legendre_nu_expansion; typical gain is from ~1e-2 to ~1e-12 relative.
    Exact stagnation (two equal consecutive sums) returns that value directly.

    A 2-D input returns arrays (values, errors), one per row, each as the
    1-D call on that row would give it; a 1-D input is the one-row call.
    Real sums (float, or complex with every imaginary part +0.0) run the table
    in float64 with the complex table's bits: numpy divides by a zero-imaginary
    complex through its real reciprocal, and hypot(re, 0) = |re|.
    """
    s = np.asarray(partial_sums, dtype=complex if np.iscomplexobj(partial_sums) else float)
    if s.size == 0:
        raise DomainError("empty partial-sum sequence")
    if s.dtype == complex and not s.imag.view(np.uint64).any():  # every imaginary part +0.0
        s = s.real
    rows = np.atleast_2d(s)
    # collapse runs of equal sums (zero terms, e.g. vanishing odd-l Legendre
    # values at x = 0) that would fill the epsilon table with zero divisors
    keep = np.ones(rows.shape, dtype=bool)
    keep[:, 1:] = rows[:, 1:] != rows[:, :-1]
    n = keep.sum(axis=1)
    cols = np.minimum(n - 2, 120)  # deeper columns only amplify roundoff
    # column k's last two entries depend only on the last k + 2 sums, so each
    # row keeps its last cols + 2 distinct sums, right-aligned in one table;
    # the entries left of a short row are never read for it
    width = max(int(cols.max()), 0) + 2
    from_end = np.cumsum(keep[:, ::-1], axis=1)[:, ::-1] - 1
    r, c = np.nonzero(keep & (from_end < width))
    # entry-major table (entry i of every row is one contiguous line) in three rotating buffers
    prev2, prev1, spare = np.zeros((3, width + 1, len(rows)), dtype=s.dtype)
    prev1[width - 1 - from_end[r, c], r] = rows[r, c]
    ends = [prev1[width - 2 : width].copy()]  # the last two entries of epsilon_0 and each even column
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for w in range(width - 1, 1, -1):  # the w entries of column width - w
            new = spare[:w]
            np.subtract(prev1[1 : w + 1], prev1[:w], out=new)
            np.divide(1.0, new, out=new)
            # 1/0 is +inf in both tables; a real 1/d that overflows is inf + nan j, so nan, in the complex one
            inf = np.isinf(new)
            if inf.any():
                zero = (prev1[1 : w + 1] == prev1[:w])[inf]
                new[inf] = np.where(zero, np.inf, new[inf] if s.dtype == complex else np.nan)
            np.add(prev2[1 : w + 1], new, out=new)
            spare, prev2, prev1 = prev2, prev1, spare
            if (width - w) % 2 == 0:
                ends.append(prev1[w - 2 : w].copy())
        b, a = np.stack(ends, axis=-1)
        # the error is hypot(re, im), Python's complex abs (numpy's complex abs can
        # differ by an ulp); of the columns with finite entries within the row's
        # cutoff, the first with the least error is the one "err < best" keeps
        err = np.hypot((a - b).real, (a - b).imag)
        err[n == 1, 0] = 0.0
        usable = np.isfinite(a) & np.isfinite(b) & (2 * np.arange(len(ends)) <= cols[:, None])
        usable[:, 0] = True
        err[~usable] = np.inf
    pick = (np.arange(len(rows)), np.argmin(err, axis=1))
    best, best_err = a[pick].astype(complex), err[pick]
    if s.ndim == 1:
        return complex(best[0]), float(best_err[0])
    return best, best_err
