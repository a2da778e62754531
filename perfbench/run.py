"""Benchmark of the `fisheye` command line: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory, so nothing needs installing.  The run

1. starts worker.py in a process of its own, which runs the workload's
   commands in passes for S seconds (trace 1: alternating with traced
   passes) and, with trace 0, spread over the same S seconds, times
   `setup_s`: SETUP_RUNS fresh interpreters that import fisheye.cli and
   build its parser (median);

   every reported time is scaled by the calibration kernel timed around it
   (calibration.py; the pooled kernel for a command that runs a thread
   pool), which takes the machine's drifting speed out of it; the raw times
   are kept in the record;
2. checks the outputs against references computed apart from the program
   (checks.py), on rows chosen by the seed, outside every timed region;
3. prints a summary, writes the full record to
   .perfbench_out/<workload>/result-seed<N>-trace<T>.json, and prints the
   result as the last line of stdout: {"correct", "attempted", "failed",
   "metrics"}.

An operation is one command of one pass together with the checks on its
output.  It fails on a non-zero exit, on output bytes that differ from the
checked pass, or on a failed check of its output.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

#: One thread per process for BLAS and OpenMP, so the only concurrency in a
#: run is the thread pool of `ddi-sweep --workers 2`.  The worker and the
#: set-up interpreters inherit them.
ENV_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
            "PYTHONHASHSEED": "0"}
os.environ.update(ENV_PINS)

from calibration import REFERENCE_POOLED_S, REFERENCE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 10


def _env() -> dict[str, str]:
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def scaled(wall: float, kernel: float) -> float:
    """A wall time in seconds of the reference machine (see calibration.py)."""
    return wall * REFERENCE_S / kernel


def scaled_pass(p: dict, commands) -> float:
    """One pass's time in seconds of the reference machine, command by command."""
    return sum(t * (REFERENCE_POOLED_S / p["pooled_kernel_s"] if c.pooled else REFERENCE_S / p["kernel_s"])
               for t, c in zip(p["command_s"], commands))


def run_worker(workload, outdir: Path, seconds: float, trace: int) -> dict:
    job = {
        "root": str(ROOT),
        "outdir": str(outdir),
        "seconds": seconds,
        "trace": trace,
        # set-up is reported with trace 0 only
        "setup_runs": 0 if trace else SETUP_RUNS,
        "commands": [dict(asdict(c), output=c.output, pooled=c.pooled) for c in workload.commands],
    }
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                          capture_output=True, text=True, cwd=ROOT, env=_env(),
                          timeout=2 * seconds + 60)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def output_rows(workload, outdir: Path) -> int:
    rows = 0
    for cmd in workload.commands:
        lines = (outdir / cmd.output).read_text(encoding="utf-8").splitlines()
        rows += len(lines) - (1 if cmd.csv else 0)
    return rows


def declared_metrics() -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "fisheye" / "cli.py").is_file():
        print(f"perfbench: no fisheye sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()

    import numpy as np

    from checks import CHECKS, Report

    workload = WORKLOADS[args.workload](args.seed)
    outdir = ROOT / ".perfbench_out" / workload.name
    report = run_worker(workload, outdir, args.seconds, args.trace)

    passes = report["passes"]
    try:
        check = CHECKS[workload.name](workload, outdir, random.Random(f"{workload.name}:rows:{args.seed}"))
    except (OSError, ValueError, KeyError, IndexError) as exc:  # missing or malformed output
        # blame the commands that exited non-zero or left no output; if
        # none did, the output of any of them may be the malformed one
        check = Report()
        broken = [c for i, c in enumerate(workload.commands)
                  if passes[-1]["codes"][i] != 0 or not (outdir / c.output).exists()]
        for cmd in broken or workload.commands:
            check.fail(cmd.label, f"output could not be checked: {exc!r}")
    final = passes[-1]["digests"]
    failed = 0
    for p in passes:
        for i, cmd in enumerate(workload.commands):
            failed += p["codes"][i] != 0 or p["digests"][i] != final[i] or cmd.label in check.failures
    attempted = len(passes) * len(workload.commands)

    timed = passes[1:]
    untraced = [scaled_pass(p, workload.commands) for p in timed if not p["traced"]]
    traced = [scaled_pass(p, workload.commands) for p in timed if p["traced"]]
    kernel_s = statistics.median(p["kernel_s"] for p in timed)
    if args.trace:
        values = dict(report["layers"])
        values["cli.rows"] = output_rows(workload, outdir)
        values["trace.wall_s"] = statistics.median(traced)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        values["calibration.kernel_s"] = kernel_s
        declared = per_layer
    else:
        values = {
            # set-up samples are single interpreter starts spread over the
            # run; the kernel timed next to one of them is noisier than the
            # sample, so they are scaled by the run's median kernel time
            "setup_s": scaled(statistics.median(report["setup_s"]), kernel_s),
            "wall_s": statistics.median(untraced),
            "peak_rss_mb": report["maxrss_mb"],
            "accuracy_digits": -math.log10(check.worst),
        }
        declared = end_to_end
    missing = {n for n, _ in declared} ^ set(values)
    if missing:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared}

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workload.inputs,
        "commands": [" ".join(c.argv) for c in workload.commands],
        "environment": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "git_sha": git_sha(),
            "machine": platform.machine(),
        },
        "attempted": attempted,
        "failed": failed,
        "check_failures": check.failures,
        "worst_deviation": check.worst,
        "setup_times_s": report["setup_s"],
        "reference_kernel_s": REFERENCE_S,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_command_s": [p["command_s"] for p in passes],
        "pass_kernel_s": [p["kernel_s"] for p in passes],
        "pass_pooled_kernel_s": [p["pooled_kernel_s"] for p in passes],
        "reference_pooled_kernel_s": REFERENCE_POOLED_S,
        "raw_wall_s": statistics.median(p["wall_s"] for p in timed if not p["traced"]),
        "pass_traced": [p["traced"] for p in passes],
        "metrics": metrics,
    }
    (outdir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    env = record["environment"]
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"cpus={env['cpu_count']} python={env['python']} numpy={env['numpy']} "
          f"git={env['git_sha'] or 'n/a (not a git checkout)'}")
    print(f"  inputs {json.dumps(workload.inputs)}")
    print(f"  passes {len(passes)} (1 warm-up), operations attempted {attempted}, failed {failed}")
    print(f"  raw pass wall median {record['raw_wall_s']:.4g} s, calibration kernel median "
          f"{kernel_s:.4g} s (reference {REFERENCE_S} s)")
    for label, messages in check.failures.items():
        for msg in messages:
            print(f"  FAILED {label}: {msg}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
