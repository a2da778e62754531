#!/usr/bin/env python3
"""A surface-plasmon realization: dielectric wedge on silver, loss budget, fidelity.

Depositing a dielectric (eps = 3.6) of varying height on single-crystal
silver tunes the plasmon's effective index between ~1.02 (bare interface)
and ~2.05 (thick film), enough to mimic the lens profile 2/(1 + rho^2) as a
conical height map.  The mode's Im part sets the absorption budget; mirror
leakage adds t^2 lambda0/(4 pi nbar R0).  With the quoted total loss
alpha = 3.4e-3, a Purcell ratio eta = 3, and R0 = 1.749 lambda0 the
entangling fidelity lands at ~80%.  Writes plasmon_sweep.csv.
"""

from pathlib import Path

from fisheye.lens import LensConfig
from fisheye.plasmon import (
    NOMINAL_TOTAL_LOSS,
    PlasmonStack,
    end_to_end_estimate,
    lens_height_profile,
    sweep_effective_index,
)

OUT = Path(__file__).with_name("plasmon_sweep.csv")


def main():
    stack = PlasmonStack()
    print(f"stack: eps_metal = {stack.eps_metal}, eps_dielectric = {stack.eps_dielectric}, "
          f"lambda0 = {stack.lambda0_nm} nm")
    print(f"bare-interface index {stack.flat_interface_index.real:.4f}, "
          f"thick-film ceiling {stack.thick_film_index.real:.4f}")

    heights, n_eff = sweep_effective_index(200.0, stack, step_nm=1.0)
    rows = ["d_nm,n_eff,chi"]
    rows += [f"{d:.12g},{z.real:.12g},{z.imag:.12g}" for d, z in zip(heights.tolist(), n_eff.tolist())]
    OUT.write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")
    print(f"swept 0-200 nm: n {n_eff[0].real:.3f} -> {n_eff[-1].real:.3f}; wrote {OUT.name}")

    cfg = LensConfig(radius=1.749)
    _, d_profile, _ = lens_height_profile(cfg, stack, 200)
    print(f"wedge profile: d(center) = {d_profile[0]:.0f} nm -> d(rim) = {d_profile[-1]:.1f} nm")

    report = end_to_end_estimate(cfg, stack, reflectivity_sq=0.95, eta=3.0,
                                 n_radial_samples=400)
    print(f"absorption alpha_abs       = {report.alpha_abs:.2e}")
    print(f"mirror loss (formula)      = {report.alpha_mirror_formula:.2e}  "
          f"(reference value {report.alpha_mirror_reference:.0e}; factor "
          f"{report.alpha_mirror_formula / report.alpha_mirror_reference:.1f} apart)")
    print(f"fidelity, computed budget  = {report.fidelity_computed:.3f}")
    print(f"fidelity, nominal alpha={NOMINAL_TOTAL_LOSS}: {report.fidelity_nominal:.3f}  (~80%)")


if __name__ == "__main__":
    main()
