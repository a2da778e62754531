"""Run the benchmark twice on one commit and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b]

Each of the SETS sets runs every chosen workload RUNS times, each with a
seed of its own (set k uses seeds k*RUNS+1 .. (k+1)*RUNS), for the
`run_seconds` that BENCHMARK.json fixes.  For every end-to-end metric it
prints, per set, the median and the quartile spread (q3 - q1)/median from
statistics.quantiles(values, n=4), and how far the second set's median lies
from the first's, as a share of the first, in either direction.  A spread
is "steady" below a third of the metric's bound.  The check passes when
every spread is within its bound, the two medians differ by no more than
the bound, and the share of failed operations is the same in both sets.
The summary is also written to .perfbench_out/spread.json.  This is how
the bounds in BENCHMARK.json are set and re-checked.

`--workloads` re-checks some of the workloads only, after a change that
can move just those; the full check takes about 40 minutes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    results: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    for k in range(SETS):
        for w in workloads:
            runs = []
            for r in range(RUNS):
                seed = k * RUNS + r + 1
                runs.append(run_once(w, seed, spec["run_seconds"]))
                print(f"set {k + 1} {w} seed {seed}: "
                      + " ".join(f"{n}={v['value']:.5g}" for n, v in runs[-1]["metrics"].items()),
                      flush=True)
            results[w].append(runs)

    ok = True
    summary = {}
    print(f"\n{'workload':<16} {'metric':<16} {'bound':>6}  per set: median [spread] shift")
    for w in workloads:
        shares = {Fraction(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
                  for runs in results[w]}
        if len(shares) != 1:
            ok = False
        summary[w] = {"failed_share": [str(s) for s in sorted(shares)], "metrics": {}}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cells, rows = [], []
            first = None
            for runs in results[w]:
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                first = med if first is None else first
                shift = (med - first) / first
                if spread > bound or abs(shift) > bound:
                    ok = False
                mark = "steady" if spread < bound / 3 else ("ok" if spread <= bound else "WIDE")
                cells.append(f"{med:.5g} [{spread:.3f} {mark}] {shift:+.3f}")
                rows.append({"values": values, "median": med, "spread": spread, "shift": shift})
            summary[w]["metrics"][name] = rows
            print(f"{w:<16} {name:<16} {bound:>6}  " + "  ".join(cells))
        print(f"{w:<16} failed share per set: {', '.join(summary[w]['failed_share'])}")

    out = ROOT / ".perfbench_out" / "spread.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"\n{'PASS' if ok else 'FAIL'}: spreads and median shifts against the bounds in BENCHMARK.json")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
