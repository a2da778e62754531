"""Runs one workload's passes in a process of its own and reports them as JSON.

Reads a JSON job from stdin: {"root", "outdir", "commands", "seconds",
"trace", "setup_runs"}.  Each command is called in-process through
`fisheye.cli.main`, with its stdout sent to a file and its CSV written with
--out.  A command that raises counts as exit code 1, so a broken change is
counted as a failed operation instead of ending the run.  The first pass
warms up.  Then passes repeat until `seconds` have elapsed and at least
MIN_PASSES were timed.  Each command is timed on its own.  The calibration
kernel is timed twice between passes, so each timed pass has a kernel time
from just before and just after it; the pooled kernel too, if a command of
the workload runs a thread pool.  With trace on, the timed passes alternate untraced and traced,
so the difference of their medians is the tracing overhead; the wrappers
are installed and removed outside the timed region.

`setup_runs` set-up samples (a fresh interpreter that imports fisheye.cli
and builds its parser) are spread evenly over the run, between passes, so
that they sample the same stretch of machine speed as the passes do.  One
more, uncounted, runs during the warm-up pass's gap: it byte-compiles the
sources and fills the file cache.

After every pass (outside the timed region) each output file is hashed, so
the caller can require every pass to reproduce the checked bytes.  The last
line of stdout is the report.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

MIN_PASSES = 3
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import fisheye.cli; fisheye.cli.build_parser()"


def time_setup(root: Path) -> float:
    """Wall time of one fresh interpreter that imports fisheye.cli and builds its parser."""
    start = time.perf_counter()
    # a blocking wait: with a timeout, Popen.wait polls in steps of up to
    # 50 ms, which would quantise the measurement
    code = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=root, env=os.environ).wait()
    wall = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"set-up interpreter exited {code}")
    return wall


def main() -> int:
    job = json.load(sys.stdin)
    root, outdir = Path(job["root"]), Path(job["outdir"])
    sys.path.insert(0, str(root / "src"))
    import fisheye.cli  # noqa: E402  (the checkout's program, not an installed one)

    if Path(fisheye.cli.__file__).resolve().parent.parent != (root / "src").resolve():
        raise SystemExit(f"imported fisheye from {fisheye.cli.__file__}, not from {root / 'src'}")
    from calibration import kernel_seconds, pooled_kernel_seconds
    from spans import Tracer, layer_metrics

    commands = job["commands"]
    outdir.mkdir(parents=True, exist_ok=True)

    def run_pass() -> tuple[float, list[float], list[int]]:
        codes, times = [], []
        for cmd in commands:  # no output of an earlier pass or run may be checked
            (outdir / cmd["output"]).unlink(missing_ok=True)
        start = time.perf_counter()
        for cmd in commands:
            cmd_start = time.perf_counter()
            argv = list(cmd["argv"])
            if cmd["writes_file"]:
                argv += ["--out", str(outdir / cmd["output"])]
            with open(outdir / f"{cmd['label']}.stdout", "w", encoding="utf-8") as fh, \
                    contextlib.redirect_stdout(fh):
                try:
                    code = fisheye.cli.main(argv)
                except SystemExit as exc:  # argparse rejects the command line
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception as exc:  # noqa: BLE001  (counted as a failed operation)
                    print(f"{cmd['label']}: {exc!r}", file=sys.stderr)
                    code = 1
            times.append(time.perf_counter() - cmd_start)
            codes.append(code)
        return time.perf_counter() - start, times, codes

    def digests() -> list[str]:
        return [hashlib.sha256((outdir / c["output"]).read_bytes()).hexdigest()
                if (outdir / c["output"]).exists() else "" for c in commands]

    passes = []

    def record(wall, times, codes, traced, kernels):
        passes.append({"wall_s": wall, "command_s": times, "kernel_s": kernels[0],
                       "pooled_kernel_s": kernels[1], "codes": codes,
                       "digests": digests(), "traced": traced})

    pooled = any(c["pooled"] for c in commands)

    def speed_point() -> tuple[float, float | None]:
        serial = (kernel_seconds() + kernel_seconds()) / 2.0
        if not pooled:
            return serial, None
        return serial, (pooled_kernel_seconds() + pooled_kernel_seconds()) / 2.0

    def mean(a, b):
        return None if a is None else (a + b) / 2.0

    record(*run_pass(), traced=False, kernels=(None, None))  # warm-up, not timed
    time_setup(root)  # warm-up, not counted
    tracer = Tracer()
    setup_times: list[float] = []
    seconds, setup_runs = job["seconds"], job["setup_runs"]
    started = time.perf_counter()
    timed = 0
    before = speed_point()
    while timed < MIN_PASSES or time.perf_counter() - started < seconds or (job["trace"] and timed % 2):
        # the i-th sample falls in the first gap after i/setup_runs of the run
        if len(setup_times) < setup_runs * min(1.0, (time.perf_counter() - started) / seconds):
            while len(setup_times) < setup_runs * min(1.0, (time.perf_counter() - started) / seconds):
                setup_times.append(time_setup(root))
            before = speed_point()
        traced = bool(job["trace"]) and timed % 2 == 1
        if traced:
            tracer.install()
        try:
            wall, times, codes = run_pass()
        finally:
            if traced:
                tracer.uninstall()
        after = speed_point()
        record(wall, times, codes, traced, tuple(map(mean, before, after)))
        before = after
        timed += 1

    while len(setup_times) < setup_runs:
        setup_times.append(time_setup(root))
    report = {
        "passes": passes,
        "setup_s": setup_times,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if job["trace"]:
        tracer.write(outdir / "spans.csv")
        report["layers"] = layer_metrics(tracer.spans, sum(p["traced"] for p in passes))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
