"""Command-line front end: figure-data CSVs, validation oracles, loss estimate.

    fisheye validate   [--quick]
    fisheye ddi-sweep  --radii 4.93,8.11,11.3,14.48 --b 0.1 --offset 1.0
    fisheye dynamics   --R0 3.34 --alpha 5e-4 --rho 0.27 [--simulate]
    fisheye fidelity   --mode vs-loss|vs-detuning|vs-radius [--simulate]
    fisheye plasmon    index-sweep [--d-max 200] | estimate [--R0 1.749]

Each leaf command declares only the flags it reads, with their defaults.
Output is CSV only (header line, 12 significant digits, LF endings), plus an
optional generated matplotlib script (--plot-script).  A plain-text config
file (--config; key = value, '#' comments) sets flag defaults: keys are flag
names with '-' as '_', values are checked by the flag's type, on/off flags
read 1/true/yes/on, unknown keys are ignored; explicit flags override it.
Exit codes: 0 success, 1 validation failure, 2 bad arguments,
3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import greens, lens, plasmon, qed, schrodinger, specfun
from .errors import DomainError, FisheyeError, NonConvergenceError

#: Lens radii (R0/lambda0) of the four published interaction-range curves.
RANGE_SWEEP_RADII = (4.93, 8.11, 11.3, 14.48)
#: Lens radii of the published fidelity curves (Re nu = 10.5, 20.5, 50.5, 90.5).
FIDELITY_RADII = (1.749, 3.34, 8.11, 14.48)
#: Most --samples and vs-radius orders: the largest legendre_nu call its
#: docstring measures (~32 MB); --nu-max 1e9 would ask numpy for an ~8 GB grid.
MAX_GRID_POINTS = 100_000
#: Largest --l-max.  The simulator's set-up grows as l_max^2: `dynamics
#: --simulate` peaks at ~42 MB at 1,344 (an l_max doubling from the default
#: 84 at Re nu = 20.5) and ~55 MB at 2,000, in 0.03-0.06 s.
MAX_L_MAX = 2_000


#: Cells of a _write_csv block: its largest work array, nine table words a cell, is 288 KiB.
_CSV_BLOCK_CELLS = 4096


def _csv_tables() -> tuple[np.ndarray, ...]:
    """_write_csv's tables, texts as little-endian uint64 words: by x = X + 11 the exact powers of ten
    that scale |v| to 12 digits; by 4-digit group its ASCII and trailing zeros (4 for 0000); by (z, x), z
    the trailing zeros of the 12 digits, a cell's three words of masks of the digits printed before and
    after the point, and of its fill (prefix, point, exponent suffix)."""
    X = np.arange(-11, 34)
    ten = np.array([float(10**k) for k in range(23)])
    c = np.arange(48, 58, dtype="<u8")  # "0" .. "9"
    zeros4 = np.zeros(10_000, dtype=np.intp)
    for step in (10, 100, 1000, 10_000):
        zeros4[::step] += 1
    fixed = (-4 <= X) & (X < 12)
    whole = np.where(fixed, np.maximum(X + 1, 0), 1)  # the integer digits %g prints
    point = np.where(fixed & (X < 0), 12, whole)  # the digits before the point
    keep = np.maximum(12 - np.arange(13)[:, None], whole)[..., None]  # the digits printed, by (z, x)
    cut = np.minimum(point[:, None], keep)
    j = np.arange(24) - 6  # byte 6 + j holds digit j, or digit j - 1 after the point
    text = "".join(("0." + "0" * (-x - 1) if f and x < 0 else "").rjust(6, "\0").ljust(19, "\0")
                   + ("" if f else f"e{x:+03d}").ljust(5, "\0") for x, f in zip(X.tolist(), fixed.tolist()))
    fill = np.tile(np.frombuffer(text.encode(), np.uint8).reshape(45, 24), (13, 1, 1))
    z, x = np.nonzero(keep[..., 0] > point)
    fill[z, x, 6 + point[x]] = ord(".")
    digits = np.concatenate([(0 <= j) & (j < cut), (cut <= j) & (j < keep)], axis=-1).view(np.uint8) * np.uint8(255)
    return (np.stack([ten[np.maximum(11 - X, 0)], ten[np.maximum(X - 11, 0)]]),
            (c[:, None, None, None] | c[:, None, None] << 8 | c[:, None] << 16 | c << 24).ravel(), zeros4,
            np.concatenate([digits, fill], axis=-1).view("<u8").reshape(-1, 9).T.copy())


_SCALE, _ASCII4, _ZEROS4, _MASKS = _csv_tables()


def _csv_block(v: np.ndarray, cells: list[np.ndarray], ints: np.ndarray, seps: np.ndarray) -> bytes:
    """The CSV lines of the float64 cells v (rows, columns): cells are its columns in their own dtypes,
    ints marks the integer columns, seps holds each column's separator at byte 23 of its cells."""
    a = np.abs(v)
    fall = ~(a < np.inf)  # the cells left to %
    np.copyto(a, 0.0, where=fall)
    nonzero = a > 0.0
    x = np.zeros(a.shape)
    np.log10(a, out=x, where=nonzero)
    x = np.clip(np.floor(x, out=x) + 11.0, 0, 44).astype(np.intp)
    s = a * _SCALE[0].take(x)
    s /= _SCALE[1].take(x)
    r = np.rint(s)
    # a half within 1e-3, or 12 digits not in [1e11, 1e12): a wrong exponent, or one out of range
    fall |= np.abs(s - r) > 0.499
    fall |= (np.abs(r - 549_999_999_999.5) > 449_999_999_999.5) & nonzero
    if ints.any():
        fall |= ints & (a >= 1e12)
    np.copyto(r, 0.0, where=fall)
    r = r.astype(np.int64)
    top = r // 10_000
    low, high = r - top * 10_000, top // 10_000
    mid = top - high * 10_000
    zeros = _ZEROS4.take(low)
    empty = low == 0
    if empty.any():
        zeros += empty * (_ZEROS4.take(mid) + (mid == 0) * _ZEROS4.take(high))
    k0, k1, k2, m0, m1, m2, f0, f1, f2 = _MASKS.take(zeros * 45 + x, axis=1)
    # the digits at bytes 6-17, those after the point a byte up, carried across words
    a_high, a_mid, a_low = _ASCII4.take(high), _ASCII4.take(mid), _ASCII4.take(low)
    carry = 0
    for k, m, f, d in ((k0, m0, f0, a_high << 48), (k1, m1, f1, a_high >> 16 | a_mid << 16 | a_low << 48),
                       (k2, m2, f2, a_low >> 16)):
        k &= d
        m &= d
        f |= k | m << 8 | carry
        carry = m >> 56
    f0 |= np.signbit(v) * np.uint64(ord("-"))
    f2 |= seps
    words = np.stack([f0, f1, f2], axis=-1)
    if fall.any():
        rows, cols = np.nonzero(fall)
        text = ["%d" % cells[j][i] if ints[j] else "%.12g" % v[i, j] for i, j in zip(rows.tolist(), cols.tolist())]
        words[rows, cols] = np.array(text, dtype="S24").view("<u8").reshape(-1, 3)
        words[rows, cols, 2] |= seps[cols]
    return words.tobytes().translate(None, b"\0")


def _write_csv(out: str | None, header: list[str], columns: list[np.ndarray]) -> None:
    """Header line, then one row per index of the equal-length 1-D columns: integers %d, the rest %.12g.

    numpy writes the bytes of Python's %, every cell as float64 (an integer
    below 1e12 prints the same by %.12g as by %d).  With X = floor(log10|v|),
    s = |v| 10^(11 - X) takes one multiply or divide by an exact power of ten
    (|11 - X| <= 22), so it is correctly rounded, within half an ulp
    (2^-14 < 6.2e-5 below 2^40) of the exact value: rint(s) is the correctly
    rounded 12-digit integer unless s lies within 1e-3 of a half.  Such cells
    (exact ties among them) go to %, as do those whose rint(s) is not in
    [1e11, 1e12) (X off by one next to a power of ten, a cell that rounds up
    to one, |v| below ~1e-11 or from ~1e34), nan, inf and integers from 1e12.
    A cell is 24 bytes: %g's prefix at bytes 0-5 (sign, '0.' and the zeros of
    -4 <= X < 0), from byte 6 its digits less trailing zeros with the point
    among them, the exponent suffix at bytes 19-22 and the separator at byte
    23, padded with NUL bytes that one bytes.translate call deletes.  Rows go
    in blocks of _CSV_BLOCK_CELLS cells, each written as it is made (text to
    stdout, bytes to out), so the work arrays stay within ~1 MB.
    """
    size = len(columns[0]) if columns else 0
    if any(len(c) != size for c in columns):
        raise ValueError(f"columns of unequal lengths {[len(c) for c in columns]}")
    ints = np.array([c.dtype.kind in "iu" for c in columns])
    seps = np.array([ord(",") << 56] * (len(columns) - 1) + [ord("\n") << 56], dtype="<u8")
    rows = max(1, _CSV_BLOCK_CELLS // max(1, len(columns)))

    def chunks():
        yield (",".join(header) + "\n").encode("utf-8")
        for r0 in range(0, size, rows):
            cells = [c[r0:r0 + rows] for c in columns]
            yield _csv_block(np.stack(cells, axis=1, dtype=float), cells, ints, seps)

    if out is None:
        for chunk in chunks():
            sys.stdout.write(chunk.decode("utf-8"))
    else:
        with open(out, "wb") as fh:
            fh.writelines(chunks())


def _write_plot_script(path: str, csv_out: str | None, xcol: str, ycols: list[str], title: str) -> None:
    """Companion matplotlib script as plain text; reads the emitted CSV."""
    csv_name = csv_out if csv_out is not None else "data.csv"
    lines = [
        "#!/usr/bin/env python3",
        f'"""Plot {title} from {csv_name} (generated alongside the CSV)."""',
        "import csv",
        "import matplotlib.pyplot as plt",
        "",
        f"rows = list(csv.DictReader(open({csv_name!r})))",
        f"x = [float(r[{xcol!r}]) for r in rows]",
    ]
    for col in ycols:
        lines.append(f"plt.plot(x, [float(r[{col!r}]) for r in rows], label={col!r})")
    lines += [
        f"plt.xlabel({xcol!r})",
        "plt.legend()",
        f"plt.title({title!r})",
        "plt.show()",
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _parse_config(path: str) -> dict[str, str]:
    config: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line without '=': {raw!r}")
        key, value = line.split("=", 1)
        config[key.strip().replace("-", "_")] = value.strip()
    return config



def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of floats, got {text!r}") from None


class _CommandParser(argparse.ArgumentParser):
    """A command's parser; in a command group (plasmon), whose flags belong to its actions, it names a
    flag given before the action, where argparse would report the flag's value as an invalid action."""

    def parse_known_args(self, args=None, namespace=None):
        if self._subparsers is not None and args and args[0].startswith("-") and args[0] not in ("-h", "--help"):
            flag = args[0].split("=", 1)[0]
            self.error(f"{flag} comes before the action: {self.prog} flags follow it ({self.prog} ACTION {flag} ...)")
        return super().parse_known_args(args, namespace)


def _samples(args: argparse.Namespace) -> int:
    if not 1 <= args.samples <= MAX_GRID_POINTS:
        raise DomainError(f"--samples must lie in [1, {MAX_GRID_POINTS:,}], got {args.samples}")
    return args.samples


def _check_l_max(args: argparse.Namespace) -> None:
    """--l-max within MAX_L_MAX, checked before any table or block is built (its lower bound is build_blocks')."""
    if args.l_max is not None and args.l_max > MAX_L_MAX:
        raise DomainError(f"--l-max must be at most {MAX_L_MAX:,}, got {args.l_max}")


def _sorted_blocks(blocks: list[tuple[np.ndarray, ...]]) -> list[np.ndarray]:
    """Concatenate per-radius column blocks (R0, x, ...) and order the rows by (R0, x), stably."""
    columns = [np.concatenate(parts) for parts in zip(*blocks)]
    if not columns or not columns[0].size:
        raise DomainError("empty grid: no radius given, or no order between --nu-min and --nu-max")
    order = np.lexsort((columns[1], columns[0]))
    return [c[order] for c in columns]


# ---------------------------------------------------------------- validate

def _check(name: str, ok: bool, detail: str, results: list) -> None:
    results.append((name, ok, detail))


def cmd_validate(args: argparse.Namespace) -> int:
    quick = args.quick
    results: list[tuple[str, bool, str]] = []
    rng = np.random.default_rng(20260808)

    # integer-degree reduction of the complex-degree evaluator
    xs = np.linspace(-0.98, 1.0, 17 if quick else 50)
    want = specfun.legendre_poly_table(8, xs)
    worst = float(np.max(np.abs(specfun.legendre_nu(np.arange(9.0)[:, None], xs) - want)))
    _check("legendre integer-degree reduction", worst < 1e-10, f"max dev {worst:.2e}", results)

    # expansion oracle vs direct evaluator
    val = specfun.legendre_nu(20.5, 0.3)
    est, _ = specfun.accelerate(specfun.legendre_nu_expansion(20.5, 0.3, 400))
    dev = abs(val - est) / abs(val)
    _check("degree-expansion oracle agreement", dev < 1e-6, f"rel dev {dev:.2e}", results)

    # addition-theorem sum rule: Theta_l^-m = (-1)^m Theta_l^m, the sign
    # _theta_lm gives m < 0, so each angle takes one recurrence per m >= 0
    worst = 0.0
    for l in (3, 11, 30):
        t1, p1, t2, p2 = rng.uniform(0.1, 3.0, 2)[0], rng.uniform(0, 6.28), rng.uniform(0.1, 3.0), rng.uniform(0, 6.28)
        theta = [(specfun._theta_lm(l, m, math.cos(t1)), specfun._theta_lm(l, m, math.cos(t2))) for m in range(l + 1)]
        lhs = sum(
            np.conj(theta[abs(m)][0] * (-1.0) ** max(-m, 0) * np.exp(1j * m * p1))
            * (theta[abs(m)][1] * (-1.0) ** max(-m, 0) * np.exp(1j * m * p2))
            for m in range(-l, l + 1)
        )
        c12 = math.cos(t1) * math.cos(t2) + math.sin(t1) * math.sin(t2) * math.cos(p1 - p2)
        rhs = (2 * l + 1) / (4 * math.pi) * specfun.legendre_poly_table(l, c12)[l]
        worst = max(worst, abs(lhs - rhs))
    _check("addition-theorem sum rule", worst < 1e-10, f"max dev {worst:.2e}", results)

    # mode orthonormality identity matrix
    cfg = lens.LensConfig(radius=2.0)
    l_cap = 5 if quick else 8
    modes = [lens.ModeIndex(l, m) for l in range(1, l_cap + 1) for m in lens.allowed_m(l)]
    overlaps = lens.orthonormality_matrix(cfg, modes, quadrature_n=64)
    worst = float(np.max(np.abs(overlaps - np.eye(len(modes)))))
    _check("mode orthonormality identity", worst < 1e-6, f"max dev {worst:.2e}", results)

    def random_pairs(count: int, keep_apart: float) -> np.ndarray:
        """rho1, phi1, rho2, phi2 rows of count drawn pairs, less those with |xi + 1| < keep_apart."""
        drawn = np.array(
            [(rng.uniform(0.1, 0.9), rng.uniform(0, 2 * math.pi), rng.uniform(0.1, 0.9), rng.uniform(0, 2 * math.pi))
             for _ in range(count)]
        )
        rho1, phi1, rho2, phi2 = drawn.T
        apart = np.abs(greens.xi(rho1 * np.exp(1j * phi1), rho2 * np.exp(1j * phi2)) + 1.0) >= keep_apart
        return drawn[apart].T

    # closed form vs eigenmode sum (one mode sum per radius), real frequency
    # midway between resonances, and reciprocity: G(p1, p2) and G(p2, p1) at
    # R0 = 3.34; every closed-form value of both checks comes from one call,
    # with the order of each pair
    cfgs = [lens.LensConfig(radius=r0) for r0 in ((1.749, 3.34) if quick else (1.749, 3.34, 8.11))]
    pairs = [random_pairs(4 if quick else 8, 0.05) for _ in cfgs]
    forward = random_pairs(3 if quick else 8, 0.02)
    counts = [p.shape[1] for p in pairs] + [forward.shape[1]] * 2
    orders = [lens.order_parameter(cfg, lens.OMEGA0) for cfg in cfgs + [lens.LensConfig(radius=3.34)] * 2]
    points = np.concatenate(pairs + [forward, forward[[2, 3, 0, 1]]], axis=1)
    g = np.split(greens.greens_zz_orders(cfgs[0].b, np.repeat(orders, counts), *points), np.cumsum(counts)[:-1])
    worst = 0.0
    for cfg, (rho1, phi1, rho2, phi2), gc in zip(cfgs, pairs, g):
        gm = greens.greens_modesum_points(cfg, rho1, phi1, rho2, phi2, lens.OMEGA0, tol=1e-9).value
        worst = max(worst, float(np.max(np.abs(gc - gm) / np.abs(gc), initial=0.0)))
    _check("closed form vs mode sum", worst < 1e-6, f"max rel dev {worst:.2e}", results)

    a, b = g[-2:]
    worst = float(np.max(np.abs(a - b) / np.abs(a), initial=0.0))
    _check("reciprocity", worst < 1e-10, f"max rel dev {worst:.2e}", results)

    # mirror boundary
    cfg = lens.LensConfig(radius=2.0)
    worst = 0.0
    for l in range(1, 11 if quick else 41, 3):
        for m in lens.allowed_m(l)[:2]:
            val = abs(lens.mode_function(cfg, lens.ModeIndex(l, m), lens.DiskPoint(1.0, 0.7)))
            worst = max(worst, val)
    _check("mirror boundary", worst < 1e-12, f"max |f| {worst:.2e}", results)

    # lossy closed-form rates vs spectral sum
    cfg = lens.LensConfig(radius=3.34, alpha=5e-4)
    atoms = qed.AtomPairConfig.antipodal(0.27)
    exact = qed.coupling_rates(cfg, atoms)
    oracle = qed.rates_modesum_oracle(cfg, atoms)
    dev = max(
        abs(exact.delta_omega - oracle.delta_omega) / abs(exact.delta_omega),
        abs(exact.gamma_coop - oracle.gamma_coop) / max(abs(exact.gamma_coop), 1e-12),
    )
    _check("lossy rates vs spectral sum", dev < 1e-3, f"max rel dev {dev:.2e}", results)

    # lossless unitarity of the block simulation
    cfg = lens.LensConfig(radius=3.34)
    blocks = schrodinger.build_blocks(cfg, lens.stereo_theta(0.27))
    rates = qed.coupling_rates(cfg, atoms)
    t_end = 3 * math.pi / (abs(rates.delta_omega) * schrodinger.DEFAULT_GAMMA0)
    sim = schrodinger.evolve(blocks, 0.0, np.linspace(0, t_end, 300 if quick else 1000))
    dev = float(np.max(np.abs(sim.state_norm - 1.0)))
    _check("lossless norm conservation", dev < 1e-10, f"max dev {dev:.2e}", results)

    width = max(len(name) for name, _, _ in results)
    all_ok = True
    for name, ok, detail in results:
        all_ok &= ok
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    print(f"validate: {'all checks passed' if all_ok else 'FAILURES detected'}")
    return 0 if all_ok else 1


# --------------------------------------------------------------- ddi-sweep

def cmd_ddi_sweep(args: argparse.Namespace) -> int:
    offset = args.offset
    samples = _samples(args)

    blocks = []
    for r0 in args.radii:
        if not 0 < offset < 2 * r0:
            raise DomainError(f"offset {offset} puts the fixed atom outside the disk")
        cfg = lens.LensConfig(radius=r0, b=args.b)
        x1 = -(r0 - offset)
        p1 = lens.DiskPoint(abs(x1) / r0, math.pi if x1 < 0 else 0.0)
        xs = np.linspace(-r0 * 0.999, r0 * 0.999, samples)
        xs = xs[np.abs(xs - x1) >= 1e-9]
        nu = lens.order_parameter(cfg, lens.OMEGA0)
        g = greens.greens_zz_orders(cfg.b, nu, p1.rho, p1.phi, np.abs(xs) / r0, np.where(xs < 0, math.pi, 0.0))
        blocks.append((np.full(xs.size, r0), xs, 3.0 * math.pi / lens.OMEGA0 * g.real))
    _write_csv(args.out, ["R0_over_lambda", "x_over_lambda", "ddi_over_Gamma0"], _sorted_blocks(blocks))
    if args.plot_script:
        _write_plot_script(args.plot_script, args.out, "x_over_lambda", ["ddi_over_Gamma0"], "dipole-dipole interaction sweep")
    return 0


# ---------------------------------------------------------------- dynamics

def cmd_dynamics(args: argparse.Namespace) -> int:
    r0 = args.R0 if args.nu_center is None else lens.radius_for_order(args.nu_center)
    samples = _samples(args)
    _check_l_max(args)

    cfg = lens.LensConfig(radius=r0, b=args.b, alpha=args.alpha)
    atoms = qed.AtomPairConfig.antipodal(args.rho)
    rates = qed.coupling_rates(cfg, atoms)
    t0 = 0.25 * math.pi / abs(rates.delta_omega)
    t_grid = np.linspace(0.0, 3.0 * math.pi / abs(rates.delta_omega), samples)
    traj = qed.trajectory(rates, t_grid)
    marker = (np.arange(samples) == np.argmin(np.abs(t_grid - t0))).astype(int)

    header = ["t_Gamma0", "pop1", "pop2", "bell_fidelity", "t0_marker"]
    columns = [t_grid, traj.pop1, traj.pop2, traj.bell_fidelity, marker]
    if args.simulate:
        blocks = schrodinger.build_blocks(cfg, lens.stereo_theta(args.rho), l_max=args.l_max)
        sim = schrodinger.evolve(blocks, cfg.kappa, t_grid / schrodinger.DEFAULT_GAMMA0)
        header += ["sim_pop1", "sim_pop2", "sim_bell_fidelity"]
        columns += [np.abs(sim.amp_a) ** 2, np.abs(sim.amp_b) ** 2, sim.bell_fidelity]
    _write_csv(args.out, header, columns)
    if args.plot_script:
        _write_plot_script(args.plot_script, args.out, "t_Gamma0", ["pop1", "pop2", "bell_fidelity"], "two-atom exchange dynamics")
    return 0


# ---------------------------------------------------------------- fidelity

def cmd_fidelity(args: argparse.Namespace) -> int:
    mode = args.mode
    samples = _samples(args)
    _check_l_max(args)
    atoms = qed.AtomPairConfig.antipodal(args.rho)
    r0s = np.array(args.radii, dtype=float)

    if mode == "vs-loss":
        for flag, value in (("--alpha-min", args.alpha_min), ("--alpha-max", args.alpha_max)):
            if not value > 0:
                raise DomainError(f"{flag} must be positive, got {value}")
        x = np.logspace(math.log10(args.alpha_min), math.log10(args.alpha_max), samples)
        radius, alpha = r0s[:, None], x
        header = ["R0_over_lambda", "alpha", "one_minus_F_analytic"]
    elif mode == "vs-detuning":
        x = np.linspace(-args.dnu_span, args.dnu_span, samples if samples % 2 else samples + 1)
        centers = [round(lens.order_parameter(lens.LensConfig(radius=r0), lens.OMEGA0).real * 2) / 2 for r0 in args.radii]
        radius, alpha = lens.radius_for_order(np.reshape(centers, (-1, 1)) + x), args.alpha
        header = ["R0_over_lambda", "delta_nu", "one_minus_F_analytic"]
    elif mode == "vs-radius":
        if not (math.isfinite(args.nu_min) and math.isfinite(args.nu_max)):
            raise DomainError(f"--nu-min and --nu-max must be finite, got {args.nu_min} and {args.nu_max}")
        orders = math.ceil(args.nu_max + 0.5 - args.nu_min)
        if orders > MAX_GRID_POINTS:
            raise DomainError(f"--nu-max {args.nu_max:g} asks for {orders:.3g} orders above --nu-min {args.nu_min:g}, "
                              f"more than {MAX_GRID_POINTS:,}")
        radius, alpha = lens.radius_for_order(np.arange(args.nu_min, args.nu_max + 0.5, 1.0)), args.alpha
        approx = np.array([qed.fidelity_approx(r0, alpha) for r0 in radius.tolist()])
        header = ["R0_over_lambda", "one_minus_F_analytic", "F_approx"]
    else:  # pragma: no cover - argparse restricts choices
        raise DomainError(f"unknown fidelity mode {mode}")

    # one batched rate chain (one legendre_nu call) over the whole grid gives every
    # mode's analytic column and the rates each simulated point is compared with
    rates = qed.coupling_rate_arrays(atoms, radius, alpha, b=args.b)
    error = 1.0 - qed.fidelity_from_rates(*rates).ravel()
    if mode == "vs-radius":
        # no numeric column here, so --simulate runs no simulation
        columns = (radius, error, approx)
    else:
        columns = (np.repeat(r0s, x.size), np.tile(x, r0s.size), error)
        if args.simulate:
            header.append("one_minus_F_numeric")
            columns += (_simulated_error(args, atoms, radius, alpha, rates),)
    _write_csv(args.out, header, _sorted_blocks([columns]))
    if args.plot_script:
        xcol = header[0] if mode == "vs-radius" else header[1]
        _write_plot_script(args.plot_script, args.out, xcol, ["one_minus_F_analytic"], f"entangling error {mode}")
    return 0


def _simulated_error(args: argparse.Namespace, atoms: qed.AtomPairConfig, radius: np.ndarray,
                     alpha: float | np.ndarray, rates: tuple) -> np.ndarray:
    """1 - F of the simulator at every point of the broadcast (radius, alpha) grid of a fidelity sweep.

    Each point is compared with its own element of the batched rates.
    """
    grid = zip(*(np.ravel(a).tolist() for a in np.broadcast_arrays(radius, alpha)))
    cfgs = [lens.LensConfig(radius=r, b=args.b, alpha=a) for r, a in grid]
    points = [qed.CouplingRates(*v) for v in zip(*(np.ravel(c).tolist() for c in rates))]
    return np.array([1.0 - c.F_numeric for c in schrodinger.compare_losses(cfgs, atoms, points, args.l_max)])


# ----------------------------------------------------------------- plasmon

def _stack(args: argparse.Namespace) -> plasmon.PlasmonStack:
    return plasmon.PlasmonStack(
        eps_metal=args.eps_metal, eps_dielectric=args.eps_dielectric, lambda0_nm=args.lambda0_nm
    )


def cmd_plasmon_index_sweep(args: argparse.Namespace) -> int:
    heights, n_eff = plasmon.sweep_effective_index(args.d_max, _stack(args), args.step)
    _write_csv(args.out, ["d_nm", "n_eff", "chi"], [heights, n_eff.real, n_eff.imag])
    if args.plot_script:
        _write_plot_script(args.plot_script, args.out, "d_nm", ["n_eff", "chi"], "plasmon effective index vs dielectric height")
    return 0


def cmd_plasmon_estimate(args: argparse.Namespace) -> int:
    cfg = lens.LensConfig(radius=args.R0)
    report = plasmon.end_to_end_estimate(
        cfg, _stack(args), reflectivity_sq=args.r2, eta=args.eta, n_radial_samples=_samples(args)
    )
    headline = report.fidelity_computed if args.recomputed_mirror_loss else report.fidelity_nominal
    lines = [
        f"alpha_abs                = {report.alpha_abs:.6g}",
        f"alpha_mirror (formula)   = {report.alpha_mirror_formula:.6g}",
        f"alpha_mirror (reference) = {report.alpha_mirror_reference:.6g}",
        f"alpha_total (computed)   = {report.alpha_total_computed:.6g}",
        f"alpha_total (nominal)    = {plasmon.NOMINAL_TOTAL_LOSS:.6g}",
        f"F (computed budget)      = {report.fidelity_computed:.6g}",
        f"F (nominal budget)       = {report.fidelity_nominal:.6g}",
        f"F (headline)             = {headline:.6g}",
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)
    return 0


# ------------------------------------------------------------------ parser

def _add_flags(p: argparse.ArgumentParser, path: tuple[str, ...]) -> None:
    """The flags of the leaf command at path, with their defaults: output, plasmon stack, then its own."""
    if path == ("validate",):  # writes no file
        p.add_argument("--quick", action="store_true", help="reduced grids")
        return
    p.add_argument("--out", help="output path (default: stdout)")
    if path != ("plasmon", "estimate"):  # prints text, no CSV to plot
        p.add_argument("--plot-script", help="also write a matplotlib script to this path")
    if path[0] == "plasmon":
        p.add_argument(
            "--eps-metal",
            type=complex,
            default=-25.23 + 0.589j,
            help="metal permittivity; pass as --eps-metal=-25.23+0.589j (leading minus)",
        )
        p.add_argument("--eps-dielectric", type=float, default=3.6, help="dielectric permittivity")
        p.add_argument("--lambda0-nm", type=float, default=737.0, help="free-space wavelength in nm")
    match path:
        case ("ddi-sweep",):
            p.add_argument("--radii", type=_float_list, default=list(RANGE_SWEEP_RADII), help="comma list of R0/lambda0")
            p.add_argument("--b", type=float, default=lens.LensConfig.b, help="disk thickness in lambda0")
            p.add_argument("--offset", type=float, default=1.0, help="fixed-atom distance from the mirror (lambda0)")
            p.add_argument("--samples", type=int, default=1201, help="points along the diameter per radius")
            p.add_argument("--workers", type=int, help="ignored: the sweep runs serially (kept so older command lines parse)")
        case ("dynamics",):
            p.add_argument("--R0", type=float, default=3.34, help="lens radius in lambda0")
            p.add_argument("--nu-center", type=float, help="derive R0 from this Re nu instead")
            p.add_argument("--alpha", type=float, default=5e-4, help="loss ratio kappa/omega0")
            p.add_argument("--rho", type=float, default=0.27, help="antipodal atom radius fraction")
            p.add_argument("--b", type=float, default=lens.LensConfig.b, help="disk thickness in lambda0")
            p.add_argument("--samples", type=int, default=2000, help="time points")
            p.add_argument("--simulate", action="store_true", help="add spectral-simulation columns")
            p.add_argument("--l-max", type=int,
                           help=f"simulator mode ladder 1 .. l_max, at most {MAX_L_MAX:,} (default: 4 ceil(Re nu))")
        case ("fidelity",):
            p.add_argument("--mode", required=True, choices=["vs-loss", "vs-detuning", "vs-radius"])
            p.add_argument("--radii", type=_float_list, default=list(FIDELITY_RADII), help="comma list of R0/lambda0")
            p.add_argument("--rho", type=float, default=0.27, help="antipodal atom radius fraction")
            p.add_argument("--b", type=float, default=lens.LensConfig.b, help="disk thickness in lambda0")
            p.add_argument("--samples", type=int, default=25, help="points per radius")
            p.add_argument("--alpha", type=float, default=5e-4, help="loss ratio (vs-detuning / vs-radius)")
            p.add_argument("--alpha-min", type=float, default=1e-4, help="first loss ratio (vs-loss)")
            p.add_argument("--alpha-max", type=float, default=1e-2, help="last loss ratio (vs-loss)")
            p.add_argument("--dnu-span", type=float, default=0.45, help="detuning half-range in nu (vs-detuning)")
            p.add_argument("--nu-min", type=float, default=10.5, help="first half-integer Re nu (vs-radius)")
            p.add_argument("--nu-max", type=float, default=90.5, help="last half-integer Re nu (vs-radius)")
            p.add_argument("--simulate", action="store_true", help="add spectral-simulation column")
            p.add_argument("--l-max", type=int,
                           help=f"simulator mode ladder 1 .. l_max, at most {MAX_L_MAX:,} (default: 4 ceil(Re nu))")
        case ("plasmon", "index-sweep"):
            p.add_argument("--d-max", type=float, default=200.0, help="sweep ceiling in nm")
            p.add_argument("--step", type=float, default=0.5, help="sweep step in nm")
        case ("plasmon", "estimate"):
            p.add_argument("--R0", type=float, default=1.749, help="lens radius in lambda0")
            p.add_argument("--eta", type=float, default=3.0, help="Purcell ratio gamma/gamma0")
            p.add_argument("--r2", type=float, default=0.95, help="mirror reflectivity r^2")
            p.add_argument("--samples", type=int, default=1000, help="radial samples of the absorption average")
            p.add_argument(
                "--recomputed-mirror-loss",
                action="store_true",
                help="headline fidelity from the computed loss budget instead of the nominal one",
            )


#: Every leaf command, by its path after `fisheye`: (function, summary); _add_flags declares its flags.
COMMANDS = {
    ("validate",): (cmd_validate, "run the cross-validation oracle suite"),
    ("ddi-sweep",): (cmd_ddi_sweep, "dipole-dipole interaction along the diameter"),
    ("dynamics",): (cmd_dynamics, "two-atom exchange dynamics time series"),
    ("fidelity",): (cmd_fidelity, "entangling-error sweeps"),
    ("plasmon", "index-sweep"): (cmd_plasmon_index_sweep, "effective index against dielectric height"),
    ("plasmon", "estimate"): (cmd_plasmon_estimate, "end-to-end loss and fidelity estimate"),
}


def _leaf(path: tuple[str, ...], p: argparse.ArgumentParser | None = None) -> argparse.ArgumentParser:
    """The leaf command at path on p, or on a parser of its own: --config, its flags, and the function that runs it."""
    p = _CommandParser(prog=" ".join(("fisheye",) + path)) if p is None else p
    p.add_argument("--config", help="plain-text config file (key = value, '#' comments)")
    _add_flags(p, path)
    p.set_defaults(func=COMMANDS[path][0], leaf=p)
    return p


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree: every leaf of COMMANDS under its path."""
    parser = argparse.ArgumentParser(
        prog="fisheye",
        description="Gradient-index cavity quantum optics: figure data, validation, loss estimates.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    actions = None
    for path, (_, summary) in COMMANDS.items():
        if len(path) == 2 and actions is None:
            actions = sub.add_parser("plasmon", help="surface-plasmon realization").add_subparsers(
                dest="plasmon_command", required=True
            )
        _leaf(path, (actions if len(path) == 2 else sub).add_parser(path[-1], help=summary))
    return parser


def _config_defaults(leaf: argparse.ArgumentParser, path: str) -> dict:
    """The config values that name a flag of leaf, as parser defaults.

    A value stays a string, so parsing converts and checks it with the
    flag's own type; an on/off flag is on for 1/true/yes/on.
    """
    config = _parse_config(path)
    return {
        a.dest: config[a.dest].lower() in ("1", "true", "yes", "on") if a.nargs == 0 else config[a.dest]
        for a in leaf._actions
        if a.dest in config
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a leaf command builds only its own parser; any other command line and a
    # leaf's leftover arguments go through the whole tree, which words the error
    path = tuple(argv[:2] if argv[:1] == ["plasmon"] else argv[:1])
    parser, rest = (_leaf(path), argv[len(path):]) if path in COMMANDS else (build_parser(), argv)
    args, extra = parser.parse_known_args(rest)
    if extra:
        parser, rest = build_parser(), argv
        args = parser.parse_args(rest)
    try:
        if args.config:
            args.leaf.set_defaults(**_config_defaults(args.leaf, args.config))
            args = parser.parse_args(rest)
        return args.func(args)
    except NonConvergenceError as exc:
        print(f"fisheye: numerical non-convergence: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"fisheye: bad arguments: {exc}", file=sys.stderr)
        return 2
    except FisheyeError as exc:
        print(f"fisheye: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"fisheye: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
