"""Run one benchmark workload in this process and print its figures as JSON.

``run.py`` starts this script with the BLAS thread variables removed from
the environment, so the program's own BLAS default is what is measured.

    python3 bench/child.py --setup
    python3 bench/child.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object.  ``--setup`` reports
only the set-up time: importing the package plus its lazy set-up, as CPU
time of the thread that runs them.  Wall time of set-up follows the load
of the other processes on the host; this thread's CPU time does not.
"""

import time

T_START = time.thread_time()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import beamspace  # noqa: E402
from beamspace.frontend import optimal_unit_step  # noqa: E402

import workloads  # noqa: E402

optimal_unit_step(workloads.ADC_BITS)
SETUP_S = time.thread_time() - T_START

import checks  # noqa: E402
from tracing import Tracer, block_stage_us, layer_metrics  # noqa: E402

TRACE_DIR = os.path.join(ROOT, "bench", "traces")


class Outcome:
    """One evaluation of a workload: its answer, points and host time."""

    def __init__(self, w, seed, workers, tracer=None):
        self.points = []
        self.error = None
        self.answer = None
        t0 = time.perf_counter()
        try:
            with workloads.record_points(self.points), tracer or contextlib.nullcontext():
                self.answer = w.run(seed, workers)
        except Exception as exc:  # a failed evaluation is counted, not fatal
            self.error = f"{type(exc).__name__}: {exc}"
        self.wall_s = time.perf_counter() - t0
        self.bits = sum(p["bits"] for p in self.points)


def environment() -> dict:
    """What the figures depend on besides the code: cores, versions, BLAS."""
    import ctypes
    import multiprocessing
    import subprocess

    import numpy
    import scipy
    blas = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getter = getattr(lib, sym)
                getter.argtypes, getter.restype = [], ctypes.c_int
                blas[os.path.basename(os.path.dirname(path))] = getter()
                break
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"nproc": workloads.nproc(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas_threads": blas,
            "start_method": multiprocessing.get_start_method(),
            "git_commit": commit}


def _peak_rss_mb() -> float:
    """Largest peak RSS of this process and of any worker it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def timed(w, seed, seconds) -> dict:
    """Untraced evaluations at the workload's worker count, as many whole
    ones as fit in ``seconds`` (at least one)."""
    workers = workloads.workers_for(w)
    outcomes = []
    t0 = time.perf_counter()
    while True:
        outcomes.append(Outcome(w, seed, workers))
        if time.perf_counter() - t0 + outcomes[-1].wall_s > seconds:
            break
    walls = [o.wall_s for o in outcomes]
    rates = [o.bits / o.wall_s / 1e6 for o in outcomes]
    return {"outcomes": outcomes, "metrics": {
        "wall_s": statistics.median(walls),
        "sim_mbit_per_s": statistics.median(rates),
        "peak_rss_mb": _peak_rss_mb(),
    }, "log": f"{len(walls)} evaluation(s) at workers={workers}: wall_s "
              + " ".join(f"{x:.3f}" for x in walls)}


def traced(w, seed) -> dict:
    """One untraced and one harness-traced evaluation at the workload's
    worker count, then one stage-traced evaluation at workers=1, beside an
    untraced serial one to measure the tracing overhead.  The first
    evaluation warms the process up for all that follow."""
    workers = workloads.workers_for(w)
    untraced = Outcome(w, seed, workers)
    parent = Tracer(stages=False)
    harness_traced = Outcome(w, seed, workers, parent)
    serial_untraced = Outcome(w, seed, 1)
    serial = Tracer(stages=True)
    stage_traced = Outcome(w, seed, 1, serial)
    outcomes = [untraced, harness_traced, serial_untraced, stage_traced]
    if any(o.error for o in outcomes):
        return {"outcomes": outcomes, "metrics": None, "log": "evaluation failed"}
    ratio = stage_traced.wall_s / serial_untraced.wall_s
    metrics = layer_metrics(serial, parent, harness_traced.points, workers, ratio)
    os.makedirs(TRACE_DIR, exist_ok=True)
    serial.dump(os.path.join(TRACE_DIR, f"{w.name}-{seed}-stages.json"))
    parent.dump(os.path.join(TRACE_DIR, f"{w.name}-{seed}-harness.json"))
    return {"outcomes": outcomes, "metrics": metrics,
            "log": _accounting(serial, stage_traced.wall_s, serial_untraced.wall_s)}


def _accounting(serial: Tracer, traced_wall: float, untraced_wall: float) -> str:
    """Mean microseconds per block by stage; they sum to the block span."""
    per_block = block_stage_us(serial.spans)
    names = sorted({k for b in per_block for k in b} - {"harness.block"})
    mean = {k: sum(b.get(k, 0.0) for b in per_block) / len(per_block) for k in names}
    block = sum(b["harness.block"] for b in per_block) / len(per_block)
    rows = [f"  {k:<22s}{v:10.1f} us {100 * v / block:5.1f} %" for k, v in mean.items()]
    return "\n".join([f"stage self time per block ({len(per_block)} blocks, "
                      f"workers=1, traced wall {traced_wall:.3f} s, untraced "
                      f"{untraced_wall:.3f} s, overhead "
                      f"{traced_wall - untraced_wall:+.3f} s):"] + rows
                     + [f"  {'sum = block span':<22s}{sum(mean.values()):10.1f} us "
                        f"(block span {block:.1f} us)"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--setup", action="store_true")
    ap.add_argument("--environment", action="store_true")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not os.path.abspath(beamspace.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"error: beamspace imported from {beamspace.__file__}, not {ROOT}/src",
              file=sys.stderr)
        return 2
    if args.setup:
        print(json.dumps({"setup_s": SETUP_S}))
        return 0
    if args.environment:
        print(json.dumps(environment()))
        return 0

    w = workloads.WORKLOADS[args.workload]
    run = traced(w, args.seed) if args.trace else timed(w, args.seed, args.seconds)
    attempted, failed, problems = checks.score(w, args.seed, run["outcomes"])
    print(f"environment: {json.dumps(environment())}")
    print(run["log"])
    for line in problems:
        print(f"check failed: {line}")
    print(json.dumps({"setup_s": SETUP_S, "attempted": attempted, "failed": failed,
                      "correct": failed == 0 and run["metrics"] is not None,
                      "metrics": run["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
