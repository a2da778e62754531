#!/usr/bin/env python3
"""Infinite-range dipole-dipole coupling: sweep the second atom across the lens.

One atom sits a wavelength from the mirror; the other is swept along the
diameter.  The coupling peaks at the antipode with a width of about half a
wavelength, and the peak height barely moves when the lens radius (and with
it the interatomic distance) grows - the cavity refocuses the photon onto
the image point no matter how large it is.

The swept peak rides on a standing-wave fringe of the source field (the
P_nu(xi_source) term), which shifts it 15-20% below the image-model height
3 lambda/(8 b).  Writes interaction_range.csv next to this script.
"""

import math
from pathlib import Path

import numpy as np

from fisheye.greens import greens_zz_orders
from fisheye.lens import OMEGA0, LensConfig, order_parameter
from fisheye.qed import image_rates

OUT = Path(__file__).with_name("interaction_range.csv")
RADII = (4.93, 8.11, 11.3, 14.48)


def main():
    rows = ["R0_over_lambda,x_over_lambda,ddi_over_Gamma0"]
    print("image-model antipodal height: 3 lambda/(8 b) = 3.75 in Gamma0 units")
    for r0 in RADII:
        cfg = LensConfig(radius=r0, b=0.1)
        x1 = -(r0 - 1.0)  # one wavelength from the mirror
        xs = np.linspace(-0.999 * r0, 0.999 * r0, 1401)
        xs = xs[np.abs(xs - x1) >= 1e-9]  # the source point itself (log divergence)
        nu = order_parameter(cfg, OMEGA0)
        g = greens_zz_orders(cfg.b, nu, abs(x1) / r0, math.pi, np.abs(xs) / r0, np.where(xs >= 0, 0.0, math.pi))
        ddi = 3.0 * math.pi / OMEGA0 * g.real
        rows += [f"{r0:.12g},{x:.12g},{v:.12g}" for x, v in zip(xs.tolist(), ddi.tolist())]
        # the image region; the x < 0 side holds the source divergence
        antipodal_peak = float(np.max(np.abs(ddi[xs > r0 - 2.2]), initial=0.0))
        model = abs(image_rates(cfg).delta_omega)
        print(f"R0 = {r0:5.2f}: antipodal peak {antipodal_peak:.3f}, "
              f"image model {model:.3f}  (source fringe accounts for the gap)")
    OUT.write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")
    print(f"wrote {OUT.name}")


if __name__ == "__main__":
    main()
