"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines inline.  Tolerances are pinned here, not configurable.
"""

import math
import time
from dataclasses import replace

import numpy as np

from fisheye import cli, greens, lens, plasmon, qed, schrodinger, specfun
from fisheye.lens import OMEGA0, DiskPoint, LensConfig, radius_for_order

FOUR_RADII = {10.5: 1.749, 20.5: 3.34, 50.5: 8.11, 90.5: 14.48}
FIG2_RADII = (4.93, 8.11, 11.3, 14.48)


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _compare(cfg, atoms, alpha):
    """compare_to_analytics at cfg with loss ratio alpha, given the closed-form rates there."""
    cfg = replace(cfg, alpha=alpha)
    return schrodinger.compare_to_analytics(cfg, atoms, qed.coupling_rates(cfg, atoms))


def test_criterion_1_fredholm_equivalence(rng):
    t0 = time.time()
    worst = 0.0
    pairs_checked = 0
    for r0, n_pairs in ((1.749, 9), (3.34, 8), (8.11, 8)):  # 25 pairs total
        cfg = LensConfig(radius=r0)
        done = 0
        while done < n_pairs:
            p1 = DiskPoint(float(rng.uniform(0.08, 0.92)), float(rng.uniform(0, 2 * math.pi)))
            p2 = DiskPoint(float(rng.uniform(0.08, 0.92)), float(rng.uniform(0, 2 * math.pi)))
            if greens.xi(p1.alpha, p2.alpha) + 1.0 < 0.05:
                continue
            closed = greens.greens_zz(cfg, p1, p2, OMEGA0)
            summed = greens.greens_modesum(cfg, p1, p2, OMEGA0, tol=1e-9).value
            worst = max(worst, abs(closed - summed) / abs(closed))
            done += 1
            pairs_checked += 1
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 30.0 and pairs_checked == 25
    _verdict(
        1,
        ok,
        f"closed form vs mode sum, {pairs_checked} pairs over 3 radii: "
        f"max rel dev {worst:.2e} (tol 1e-6), {elapsed:.1f}s (< 30 s)",
    )


def test_criterion_2_order_parameter_consistency():
    devs = {}
    for want, r0 in FOUR_RADII.items():
        nu = lens.order_parameter(LensConfig(radius=r0), OMEGA0).real
        devs[r0] = abs(nu - want)
    ok = all(d < 0.05 for d in devs.values())
    detail = ", ".join(f"R0={r0}: |dev|={d:.3f}" for r0, d in devs.items())
    _verdict(2, ok, f"Re nu at the four published radii within 0.05: {detail}")


def test_criterion_3_interaction_range_figure():
    t0 = time.time()
    # (a) image-model antipodal peak height = 3 lambda/(8 b) = 3.75 +- 2%
    heights = {}
    for r0 in FIG2_RADII:
        cfg = LensConfig(radius=r0, b=0.1)
        heights[r0] = abs(qed.image_rates(cfg).delta_omega)
    peak_ok = abs(heights[4.93] - 3.75) / 3.75 < 0.02
    # (b) height variation across the four radii < 2%
    spread = (max(heights.values()) - min(heights.values())) / min(heights.values())
    spread_ok = spread < 0.02
    # (c) FWHM of the exact swept peak in [0.4, 0.6] lambda; the exact peak
    # itself carries the source-wave fringe (reported, guarded at +-25%)
    fwhms, exact_peaks = {}, {}
    for r0 in FIG2_RADII:
        cfg = LensConfig(radius=r0, b=0.1)
        x1 = -(r0 - 1.0)
        xs = np.linspace(r0 - 2.2, r0 - 1e-3, 1601)
        g = greens.greens_zz_points(cfg, abs(x1) / r0, math.pi, xs / r0, 0.0, OMEGA0)
        vals = np.abs(3.0 * math.pi / OMEGA0 * g.real)
        i = int(np.argmax(vals))
        half = vals[i] / 2.0
        j = i
        while j > 0 and vals[j] > half:
            j -= 1
        left = np.interp(half, [vals[j], vals[j + 1]], [xs[j], xs[j + 1]])
        j = i
        while j < len(vals) - 1 and vals[j] > half:
            j += 1
        right = np.interp(half, [vals[j], vals[j - 1]], [xs[j], xs[j - 1]])
        fwhms[r0] = right - left
        exact_peaks[r0] = vals[i]
    fwhm_ok = all(0.4 <= w <= 0.6 for w in fwhms.values())
    fringe_ok = all(abs(p - 3.75) / 3.75 < 0.25 for p in exact_peaks.values())
    elapsed = time.time() - t0
    ok = peak_ok and spread_ok and fwhm_ok and fringe_ok and elapsed < 60.0
    _verdict(
        3,
        ok,
        f"image-model peak {heights[4.93]:.3f} (3.75 +- 2%), radius spread {spread:.2%} (< 2%), "
        f"FWHM {min(fwhms.values()):.2f}-{max(fwhms.values()):.2f} lambda (in [0.4, 0.6]); "
        f"exact swept peaks with source fringe: "
        + ", ".join(f"{v:.2f}" for v in exact_peaks.values())
        + f"; {elapsed:.1f}s (< 60 s)",
    )


def test_criterion_4_lossy_rate_oracle(antipodal_027):
    devs = []
    for alpha in (1e-4, 1e-3):
        cfg = LensConfig(radius=radius_for_order(20.5), alpha=alpha)
        exact = qed.coupling_rates(cfg, antipodal_027)
        oracle = qed.rates_modesum_oracle(cfg, antipodal_027)
        devs.append(abs(exact.delta_omega - oracle.delta_omega) / abs(exact.delta_omega))
        devs.append(abs(exact.gamma_coop - oracle.gamma_coop) / abs(exact.gamma_coop))
    ok = max(devs) < 1e-3
    _verdict(
        4,
        ok,
        f"closed-form vs spectral-sum rates at rho=0.27, R0=3.34, alpha in {{1e-4, 1e-3}}: "
        f"max rel dev {max(devs):.2e} (tol 1e-3)",
    )


def test_criterion_5_scaling_laws(antipodal_027):
    gamma_devs, dw_devs, coop_ratios, exact_fringe_devs = [], [], [], []
    for nu_re, r0_pub in FOUR_RADII.items():
        r0 = radius_for_order(nu_re)  # exact half-integer working point, R0 <= 15
        for alpha in (1e-4, 1e-3):
            cfg = LensConfig(radius=r0, alpha=alpha)
            exact = qed.coupling_rates(cfg, antipodal_027)
            image = qed.image_rates(cfg)
            model = qed.scaling_rates(cfg, r0, alpha)
            gamma_devs.append(abs(exact.gamma - model.gamma) / exact.gamma)
            dw_devs.append(abs(image.delta_omega - model.delta_omega) / abs(image.delta_omega))
            coop_ratios.append(abs(image.gamma_coop) / image.gamma)
            exact_fringe_devs.append(
                abs(abs(exact.delta_omega) - abs(model.delta_omega)) / abs(model.delta_omega)
            )
    ok = max(gamma_devs) < 0.05 and max(dw_devs) < 0.05 and max(coop_ratios) < 1e-2
    _verdict(
        5,
        ok,
        f"approximate laws vs closed forms (alpha <= 1e-3, R0 <= 15, half-integer Re nu): "
        f"gamma dev {max(gamma_devs):.2%} (< 5%), image delta_omega dev {max(dw_devs):.2%} (< 5%), "
        f"gamma_coop/gamma {max(coop_ratios):.1e} (< 1e-2); "
        f"exact antipodal delta_omega differs from the law by up to "
        f"{max(exact_fringe_devs):.0%} (source-wave fringe, reported)",
    )


def test_criterion_6_fidelity_consistency(antipodal_027):
    arithmetic = qed.fidelity_approx(3.34, 5e-4)
    arithmetic_ok = abs(arithmetic - 0.9496) < 1e-4
    worst = 0.0
    for m in range(10, 91):
        r0 = radius_for_order(m + 0.5)
        cfg = LensConfig(radius=r0, alpha=5e-4)
        f33 = qed.entanglement_fidelity(qed.coupling_rates(cfg, antipodal_027))
        f36 = qed.fidelity_approx(r0, 5e-4)
        worst = max(worst, abs(f33 - f36) / f36)
    ok = arithmetic_ok and worst < 0.02
    _verdict(
        6,
        ok,
        f"closed-form vs scaling fidelity across R0/lambda in [1.75, 14.5] at alpha=5e-4: "
        f"max rel dev {worst:.2%} (< 2%); arithmetic point {arithmetic:.5f} (0.9496 +- 1e-4)",
    )


def test_criterion_7_born_markov_validation(antipodal_027):
    t0 = time.time()
    cfg_ref = LensConfig(radius=radius_for_order(20.5))
    # (a) reference point
    ref = _compare(cfg_ref, antipodal_027, 5e-4)
    ref_ok = ref.relative_deviation < 0.15
    # (b) extracted exchange rate at kappa = 0, l_max = 4 ceil(Re nu)
    rates = qed.coupling_rates(cfg_ref, antipodal_027)
    blocks = schrodinger.build_blocks(cfg_ref, lens.stereo_theta(0.27))
    dw_int = abs(rates.delta_omega) * schrodinger.DEFAULT_GAMMA0
    sim = schrodinger.evolve(blocks, 0.0, np.linspace(0.0, 3 * math.pi / dw_int, 2000))
    dw_dev = abs(sim.extracted_delta_omega - abs(rates.delta_omega)) / abs(rates.delta_omega)
    dw_ok = dw_dev < 0.05
    # (c) bounded over the loss sweep (0.5 is the physical error ceiling)
    sweep_ok = True
    sweep_detail = []
    for alpha in (1e-4, 5e-4, 1e-3, 3e-3, 1e-2):
        cmp = _compare(cfg_ref, antipodal_027, alpha)
        err_num = 1.0 - cmp.F_numeric
        err_cap = min(1.0 - cmp.F_analytic, 0.5)
        bounded = math.isfinite(err_num) and err_num <= 0.501 and abs(err_num - err_cap) <= 0.015 + 0.35 * err_cap
        sweep_ok &= bounded
        sweep_detail.append(f"{alpha:g}:{err_num:.3f}/{err_cap:.3f}")
    # (d) bounded + U-shaped over the detuning sweep
    errs = {}
    for dnu in (-0.45, -0.225, 0.0, 0.225, 0.45):
        cfg = LensConfig(radius=radius_for_order(20.5 + dnu))
        cmp = _compare(cfg, antipodal_027, 5e-4)
        err_num = 1.0 - cmp.F_numeric
        err_cap = min(1.0 - cmp.F_analytic, 0.5)
        sweep_ok &= math.isfinite(err_num) and abs(err_num - err_cap) <= 0.015 + 0.35 * err_cap
        errs[dnu] = err_num
    ushape_ok = errs[-0.45] > 2.0 * errs[0.0] and errs[0.45] > 2.0 * errs[0.0]
    elapsed = time.time() - t0
    ok = ref_ok and dw_ok and sweep_ok and ushape_ok and elapsed < 300.0
    _verdict(
        7,
        ok,
        f"simulator vs analytics: reference dev {ref.relative_deviation:.2%} (< 15%), "
        f"exchange-rate dev {dw_dev:.2%} (< 5%), loss sweep bounded "
        f"[{' '.join(sweep_detail)}], detuning U-shape "
        f"{errs[-0.45]:.3f}/{errs[0.0]:.3f}/{errs[0.45]:.3f}; {elapsed:.1f}s (< 300 s)",
    )


def test_criterion_8_plasmonic_estimate():
    stack = plasmon.PlasmonStack()
    sweep = plasmon.sweep_effective_index(200.0, stack, step_nm=2.0)
    n = [s.n for s in sweep]
    span_ok = abs(n[0] - 1.02) < 0.01 and 1.9 <= n[-1] <= 2.05
    cfg = LensConfig(radius=1.749)
    report = plasmon.end_to_end_estimate(cfg, stack, n_radial_samples=500)
    abs_ok = abs(report.alpha_abs - 3e-3) / 3e-3 < 0.30
    fid_ok = abs(report.fidelity_nominal - 0.806) < 0.005
    # the mirror-loss arithmetic discrepancy is surfaced, not hidden
    discrepancy = report.alpha_mirror_formula / report.alpha_mirror_reference
    surfaced_ok = 3.0 < discrepancy < 4.5
    ok = span_ok and abs_ok and fid_ok and surfaced_ok
    _verdict(
        8,
        ok,
        f"index sweep spans {n[0]:.3f} -> {n[-1]:.3f} (~1.02 -> ~2); "
        f"alpha_abs {report.alpha_abs:.2e} (3e-3 +- 30%); F = {report.fidelity_nominal:.4f} "
        f"(0.806 +- 0.005); mirror-loss formula/reference = {discrepancy:.2f}x (reported)",
    )


def test_criterion_9_property_suites(tmp_path, rng, full_basis_hamiltonian):
    # specfun integer-degree reduction at 1e-10
    xs = np.linspace(-0.98, 1.0, 50)
    want = np.array([[specfun.legendre_poly(l, x) for x in xs.tolist()] for l in range(9)])
    worst_reduction = float(np.max(np.abs(specfun.legendre_nu(np.arange(9.0)[:, None] + 0j, xs) - want)))
    red_ok = worst_reduction < 1e-10
    # orthonormality identity for l <= 8 at 1e-6
    cfg = LensConfig(radius=2.0)
    modes = [lens.ModeIndex(l, m) for l in range(1, 9) for m in lens.allowed_m(l)]
    worst_orth = 0.0
    for i, ma in enumerate(modes):
        for mb in modes[i:]:
            want = 1.0 if ma == mb else 0.0
            worst_orth = max(worst_orth, abs(lens.orthonormality_check(cfg, ma, mb) - want))
    orth_ok = worst_orth < 1e-6
    # kappa = 0 norm conservation at 1e-10
    cfg_s = LensConfig(radius=radius_for_order(20.5))
    rates = qed.coupling_rates(cfg_s, qed.AtomPairConfig.antipodal(0.27))
    dw_int = abs(rates.delta_omega) * schrodinger.DEFAULT_GAMMA0
    sim = schrodinger.evolve(
        schrodinger.build_blocks(cfg_s, lens.stereo_theta(0.27)),
        0.0,
        np.linspace(0.0, 3 * math.pi / dw_int, 1500),
    )
    norm_dev = float(np.max(np.abs(sim.state_norm - 1.0)))
    norm_ok = norm_dev < 1e-10
    # parity-block isolation at 1e-12 (full (l, m) basis, even modes from |o>)
    cfg_f = LensConfig(radius=radius_for_order(5.5))
    h, labels = full_basis_hamiltonian(cfg_f, 0.3, range(1, 23), schrodinger.DEFAULT_GAMMA0)
    psi0 = np.zeros(h.shape[0], dtype=complex)
    psi0[0] = psi0[1] = 1.0 / math.sqrt(2.0)
    w, v = np.linalg.eigh(h)
    coeff = v.conj().T @ psi0
    t = np.linspace(0.0, 2e5, 100)
    full = (np.exp(-1j * np.outer(t, w)) * coeff[None, :]) @ v.T
    even_cols = [j for j, (l, m) in enumerate(labels, start=2) if l % 2 == 0]
    cross = float(np.max(np.abs(full[:, even_cols])))
    parity_ok = cross < 1e-12
    # CSV determinism: byte-identical reruns
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["ddi-sweep", "--radii", "4.93", "--samples", "31"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b), "--workers", "2"]) == 0
    csv_ok = a.read_bytes() == b.read_bytes()
    ok = red_ok and orth_ok and norm_ok and parity_ok and csv_ok
    _verdict(
        9,
        ok,
        f"integer reduction {worst_reduction:.1e} (< 1e-10), orthonormality {worst_orth:.1e} (< 1e-6), "
        f"norm conservation {norm_dev:.1e} (< 1e-10), parity isolation {cross:.1e} (< 1e-12), "
        f"CSV reruns byte-identical: {csv_ok}",
    )
