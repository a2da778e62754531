"""Run the reference command lines against two source trees and report how far each output moved.

    python tests/compare_trees.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the `fisheye` package (a
checkout's `src`).  Every command line of test_reference.CASES runs in
process through cli.main, unthinned, once per tree (one interpreter per
tree).  For each command the script prints the sha256 of both outputs and,
where they differ, the worst move of each column that moved, relative to
that column's largest magnitude in the OLD output.  It exits 0 when every
output is byte for byte the same, else 1.  pytest does not collect this file.
"""

from __future__ import annotations

import ast
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

#: Runs in a fresh interpreter with the tree's src first on sys.path: every command's stdout, as JSON.
_RUN = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from fisheye import cli
outputs = []
for command in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(command.split())
    outputs.append([code, out.getvalue()])
json.dump(outputs, sys.stdout)
"""


def _commands() -> list[str]:
    """The command lines of test_reference.CASES, read without importing the tests (which import fisheye)."""
    tree = ast.parse((Path(__file__).resolve().parent / "test_reference.py").read_text(encoding="utf-8"))
    cases = next(node.value for node in tree.body if isinstance(node, ast.Assign) and node.targets[0].id == "CASES")
    return [command for _, command, _ in ast.literal_eval(cases)]


def _outputs(src: str, commands: list[str]) -> list[tuple[int, str]]:
    done = subprocess.run([sys.executable, "-c", _RUN, str(Path(src).resolve()), json.dumps(commands)],
                          capture_output=True, text=True, check=True)
    return [tuple(pair) for pair in json.loads(done.stdout)]


def _table(text: str) -> tuple[list[str], np.ndarray]:
    """Column names and values of a CSV table or of `name = value` lines (test_reference._parse)."""
    lines = text.splitlines()
    if " = " in lines[0]:
        names, values = zip(*(line.split(" = ") for line in lines))
        return [name.strip() for name in names], np.array([[float(v) for v in values]])
    return lines[0].split(","), np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def _moves(old: str, new: str) -> str:
    """Each moved column's worst |new - old| over its largest |old|, or why the outputs do not compare."""
    (names, a), (new_names, b) = _table(old), _table(new)
    if names != new_names or a.shape != b.shape:
        return f"columns or rows differ: {a.shape} -> {b.shape}"
    scale, worst = np.max(np.abs(a), axis=0), np.max(np.abs(b - a), axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        moved = [f"{name} {dev / top:.3g}" for name, dev, top in zip(names, worst, scale) if dev > 0.0]
    return "; ".join(moved) or "values equal, bytes differ"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    commands = _commands()
    same = True
    for command, (old_code, old), (new_code, new) in zip(commands, *(_outputs(src, commands) for src in argv)):
        digests = [hashlib.sha256(text.encode()).hexdigest()[:16] for text in (old, new)]
        line = f"{command}: {digests[0]} {digests[1]}"
        if (old_code, old) != (new_code, new):
            same = False
            line += f"  exit {old_code} -> {new_code}" if old_code != new_code else f"  {_moves(old, new)}"
        print(line)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
