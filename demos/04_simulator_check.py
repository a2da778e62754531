#!/usr/bin/env python3
"""Check the rate model against a direct single-excitation simulation.

For antipodal atoms the cavity modes reduce to one collective mode per l,
split into odd/even parity blocks that couple to the symmetric and
antisymmetric atomic combinations.  Evolving |e,g>|vac> exactly in that
basis gives an independent handle on the exchange rate and the entangling
error; agreement with the closed-form rates validates the memoryless
(weak-coupling) treatment behind them.
"""

from dataclasses import replace

from fisheye.lens import LensConfig, radius_for_order
from fisheye.qed import AtomPairConfig, coupling_rates
from fisheye.schrodinger import compare_to_analytics


def compare(cfg, atoms, alpha):
    """Simulator against the closed-form rates at cfg with loss ratio alpha."""
    cfg = replace(cfg, alpha=alpha)
    return compare_to_analytics(cfg, atoms, coupling_rates(cfg, atoms))


def main():
    atoms = AtomPairConfig.antipodal(0.27)
    cfg = LensConfig(radius=radius_for_order(20.5))

    print("loss sweep at R0 = 3.34 lambda0 (errors 1 - F):")
    print(f"{'alpha':>8} {'simulated':>10} {'analytic':>10} {'rel dev':>8}")
    for alpha in (1e-4, 5e-4, 1e-3, 3e-3):
        cmp = compare(cfg, atoms, alpha)
        print(f"{alpha:8.0e} {1 - cmp.F_numeric:10.5f} {1 - cmp.F_analytic:10.5f} "
              f"{cmp.relative_deviation:8.2%}")

    cmp = compare(cfg, atoms, 5e-4)
    print(f"\nexchange rate: simulator {cmp.extracted_delta_omega:.4f} vs "
          f"analytic {abs(cmp.rates.delta_omega):.4f} /Gamma0")

    print("\ndetuning scan (alpha = 5e-4): error is smallest midway between resonances")
    for dnu in (-0.45, -0.2, 0.0, 0.2, 0.45):
        cfg_d = LensConfig(radius=radius_for_order(20.5 + dnu))
        c = compare(cfg_d, atoms, 5e-4)
        print(f"  Re nu = 20.5{dnu:+.2f}: 1 - F = {1 - c.F_numeric:.4f} (sim), "
              f"{1 - c.F_analytic:.4f} (rates)")


if __name__ == "__main__":
    main()
