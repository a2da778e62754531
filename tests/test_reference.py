"""Reference outputs: fixed command lines run in process through cli.main, their values compared with tests/reference/.

A reference file holds a command's output as printed, a large table thinned
to rows 0, k, 2k, ... and its last row.  Each value must lie within
REL_TOL of its column's largest reference magnitude; a `plasmon estimate`
line `name = value` is a column of one value.  Exact bytes would differ
between CPUs and numpy builds (a fused multiply-add rounds complex products
differently), so the comparison is numeric.

Regenerate every file with

    PYTHONPATH=src python tests/test_reference.py

and say in CHANGES.md which columns moved, by how much, and why (README,
"Reference outputs").  `validate` is left out: its detail lines print
rounding-level deviations that differ between CPUs.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

from fisheye import cli

REFERENCE = Path(__file__).resolve().parent / "reference"

#: Tolerance of a value, relative to its column's largest reference magnitude.
REL_TOL = 1e-10

#: (reference file, command line, k): rows 0, k, 2k, ... and the last are kept.
CASES = (
    ("ddi-sweep.csv", "ddi-sweep", 10),
    ("ddi-sweep-3.34.csv", "ddi-sweep --radii 3.34 --samples 101 --offset 0.7 --b 0.12", 1),
    ("fidelity-vs-loss.csv", "fidelity --mode vs-loss", 1),
    ("fidelity-vs-detuning.csv", "fidelity --mode vs-detuning", 1),
    ("fidelity-vs-radius.csv", "fidelity --mode vs-radius", 1),
    ("fidelity-vs-loss-simulate.csv", "fidelity --mode vs-loss --simulate --samples 5", 1),
    ("fidelity-vs-detuning-simulate.csv", "fidelity --mode vs-detuning --simulate --samples 9", 1),
    ("dynamics.csv", "dynamics", 10),
    ("dynamics-simulate.csv", "dynamics --simulate --samples 400", 4),
    ("plasmon-index-sweep.csv", "plasmon index-sweep", 1),
    ("plasmon-index-sweep-eps.csv", "plasmon index-sweep --eps-metal=-10+1j --eps-dielectric 2.25", 1),
    ("plasmon-estimate.txt", "plasmon estimate", 1),
    ("plasmon-estimate-2.5.txt", "plasmon estimate --R0 2.5 --recomputed-mirror-loss", 1),
)


def _output(command: str, k: int) -> str:
    """The command's stdout, thinned to rows 0, k, 2k, ... and the last below a CSV header."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(command.split())
    assert code == 0, f"fisheye {command} exited {code}"
    lines = out.getvalue().splitlines()
    if k > 1:
        rows = lines[1:]
        lines = lines[:1] + rows[::k] + ([rows[-1]] if (len(rows) - 1) % k else [])
    return "\n".join(lines) + "\n"


def _parse(text: str) -> tuple[list[str], np.ndarray]:
    """Column names and values (rows, columns) of a CSV table or of `name = value` lines."""
    lines = text.splitlines()
    if " = " in lines[0]:
        names, values = zip(*(line.split(" = ") for line in lines))
        return [name.strip() for name in names], np.array([[float(v) for v in values]])
    return lines[0].split(","), np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


@pytest.mark.parametrize("name, command, k", CASES, ids=[case[1] for case in CASES])
def test_output_matches_reference(name, command, k):
    want_names, want = _parse((REFERENCE / name).read_text(encoding="utf-8"))
    got_names, got = _parse(_output(command, k))
    assert got_names == want_names
    assert got.shape == want.shape
    scale = np.max(np.abs(want), axis=0)
    worst = np.max(np.abs(got - want), axis=0)
    moved = [f"{col}: {dev:.3g} of {top:.3g}" for col, dev, top in zip(want_names, worst, scale)
             if not dev <= REL_TOL * top]
    assert not moved, f"fisheye {command} moved beyond {REL_TOL:g} of the column scale: {'; '.join(moved)}"


if __name__ == "__main__":
    REFERENCE.mkdir(exist_ok=True)
    for name, command, k in CASES:
        (REFERENCE / name).write_text(_output(command, k), encoding="utf-8", newline="\n")
