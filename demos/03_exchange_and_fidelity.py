#!/usr/bin/env python3
"""Photon exchange between antipodal atoms and the entangling fidelity.

With loss ratio alpha = kappa/omega0 the pair rates (delta_omega, gamma,
gamma_coop) follow from the lossy Green's function.  Starting from |e,g> the
excitation swaps back and forth at rate 2 delta_omega while leaking out at
gamma; maximal Bell-state overlap occurs at t0 = pi/(4 delta_omega) with

    F = exp(-pi |gamma/delta_omega| / 4) cosh(pi |gamma_coop/delta_omega| / 4),

well approximated at half-integer order by F ~ exp(-pi^3 R0 alpha/lambda).
Writes exchange_dynamics.csv next to this script.
"""

import math
from pathlib import Path

import numpy as np

from fisheye.lens import LensConfig, radius_for_order
from fisheye.qed import (
    AtomPairConfig,
    coupling_rates,
    entanglement_fidelity,
    fidelity_approx,
    trajectory,
)

OUT = Path(__file__).with_name("exchange_dynamics.csv")


def main():
    cfg = LensConfig(radius=radius_for_order(20.5), alpha=5e-4)
    atoms = AtomPairConfig.antipodal(0.27)
    rates = coupling_rates(cfg, atoms)
    print(f"R0 = {cfg.radius:.4f} lambda0, alpha = {cfg.alpha}")
    print(f"rates/Gamma0: delta_omega = {rates.delta_omega:+.4f}, "
          f"gamma = {rates.gamma:.4f}, gamma_coop = {rates.gamma_coop:+.5f}, "
          f"beta = {rates.beta:.1f}")

    t0 = 0.25 * math.pi / abs(rates.delta_omega)
    t = np.linspace(0.0, 3.0 * math.pi / abs(rates.delta_omega), 2000)
    traj = trajectory(rates, t)
    n_cycles = 2.0 * abs(rates.delta_omega) / (math.pi * rates.gamma)
    print(f"exchange period pi/delta_omega = {math.pi/abs(rates.delta_omega):.3f} /Gamma0; "
          f"~{n_cycles:.1f} visible cycles before decay")

    f33 = entanglement_fidelity(rates)
    f36 = fidelity_approx(cfg.radius, cfg.alpha)
    print(f"Bell fidelity at t0 = {t0:.3f}/Gamma0: exact {f33:.4f}, scaling law {f36:.4f}")
    print(f"with free-space leakage (eta = 3): "
          f"{fidelity_approx(cfg.radius, cfg.alpha, 3.0):.4f}")

    rows = ["t_Gamma0,pop1,pop2,bell_fidelity"]
    for i in range(len(t)):
        rows.append(f"{t[i]:.12g},{traj.pop1[i]:.12g},{traj.pop2[i]:.12g},"
                    f"{traj.bell_fidelity[i]:.12g}")
    OUT.write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")
    print(f"wrote {OUT.name}")


if __name__ == "__main__":
    main()
