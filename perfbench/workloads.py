"""The four benchmark workloads: which `fisheye` commands one pass runs.

A pass is one round of the workload's commands, run one after another in a
single process (a closed loop with one client).  `--seed` chooses the free
inputs below from fixed ranges, and a separate stream of the same seed
chooses the rows that checks.py recomputes.  Every input the seed draws is
rounded to a few digits, so each command line is short and reproducible.

The ranges are narrow on purpose.  The atom radius rho sets how fast the
Legendre seed series converge (|xi_src| shrinks as rho grows), so a wide
range would make one pass of fidelity-scan differ in work by tens of
percent between seeds, and the spread of wall_s would measure the inputs,
not the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: The four published interaction-range radii and the four fidelity radii.
RANGE_RADII = "4.93,8.11,11.3,14.48"
FIDELITY_RADII = "1.749,3.34,8.11,14.48"

#: Dense grids of the fidelity-scan workload and the sample count of the
#: simulated loss sweep (4 radii x 5 losses = 20 block simulations).
SCAN_SAMPLES = 801
SIMULATE_SAMPLES = 5


@dataclass(frozen=True)
class Command:
    """One `fisheye` invocation.

    `writes_file` adds `--out <label>.out`; otherwise the output is stdout.
    `csv` marks an output whose first line is a header.
    """

    label: str
    argv: tuple[str, ...]
    writes_file: bool = True
    csv: bool = True

    @property
    def output(self) -> str:
        return f"{self.label}.out" if self.writes_file else f"{self.label}.stdout"

    @property
    def pooled(self) -> bool:
        """Runs a thread pool, so its time is scaled by the pooled kernel (calibration.py)."""
        return "--workers" in self.argv


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    inputs: dict


def _draw(seed: int, name: str) -> random.Random:
    return random.Random(f"{name}:inputs:{seed}")


def diameter_sweep(seed: int) -> Workload:
    rng = _draw(seed, "diameter-sweep")
    offset = round(rng.uniform(0.9, 1.1), 3)
    base = ("ddi-sweep", "--radii", RANGE_RADII, "--offset", f"{offset}")
    return Workload(
        "diameter-sweep",
        (
            Command("ddi-serial", base),
            Command("ddi-workers2", base + ("--workers", "2")),
        ),
        {"offset": offset, "radii": RANGE_RADII, "samples": 1201},
    )


def fidelity_scan(seed: int) -> Workload:
    rng = _draw(seed, "fidelity-scan")
    rho = round(rng.uniform(0.26, 0.28), 4)
    common = ("--rho", f"{rho}")
    n = f"{SCAN_SAMPLES}"
    return Workload(
        "fidelity-scan",
        (
            Command("fid-loss", ("fidelity", "--mode", "vs-loss", "--samples", n) + common),
            Command("fid-detuning", ("fidelity", "--mode", "vs-detuning", "--samples", n) + common),
            Command("fid-radius", ("fidelity", "--mode", "vs-radius") + common),
        ),
        {"rho": rho, "samples": SCAN_SAMPLES, "radii": FIDELITY_RADII,
         "alpha_range": (1e-4, 1e-2), "alpha": 5e-4, "dnu_span": 0.45, "nu_range": (10.5, 90.5)},
    )


def simulate(seed: int) -> Workload:
    rng = _draw(seed, "simulate")
    rho = round(rng.uniform(0.26, 0.28), 4)
    # dynamics stays at the published reference point (the CLI defaults): its
    # check compares amplitudes at ~1e-9, where a seeded rho would move the
    # worst deviation between seeds by more than the metric's bound allows
    return Workload(
        "simulate",
        (
            Command("sim-loss", ("fidelity", "--mode", "vs-loss", "--simulate",
                                 "--samples", f"{SIMULATE_SAMPLES}", "--rho", f"{rho}")),
            Command("sim-dynamics", ("dynamics", "--simulate", "--R0", "3.34",
                                     "--rho", "0.27", "--alpha", "5e-4")),
        ),
        {"rho": rho, "samples": SIMULATE_SAMPLES, "radii": FIDELITY_RADII,
         "alpha_range": (1e-4, 1e-2), "dynamics_R0": 3.34, "dynamics_rho": 0.27,
         "dynamics_alpha": 5e-4, "dynamics_samples": 2000},
    )


def oracles_plasmon(seed: int) -> Workload:
    rng = _draw(seed, "oracles-plasmon")
    r0 = round(rng.uniform(1.5, 3.5), 3)
    eta = round(rng.uniform(2.0, 4.0), 3)
    r2 = round(rng.uniform(0.90, 0.98), 4)
    return Workload(
        "oracles-plasmon",
        (
            Command("validate", ("validate",), writes_file=False, csv=False),
            Command("plasmon-estimate", ("plasmon", "estimate", "--R0", f"{r0}",
                                         "--eta", f"{eta}", "--r2", f"{r2}"), csv=False),
            Command("plasmon-sweep", ("plasmon", "index-sweep")),
        ),
        {"R0": r0, "eta": eta, "r2": r2, "d_max_nm": 200.0, "step_nm": 0.5},
    )


WORKLOADS = {
    "diameter-sweep": diameter_sweep,
    "fidelity-scan": fidelity_scan,
    "simulate": simulate,
    "oracles-plasmon": oracles_plasmon,
}
