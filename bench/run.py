"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload snrop-cspade --seed 123 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``.  The workload runs in a child process whose environment has the
BLAS thread variables removed, so the program's own default is measured.
With ``--trace 0`` the result holds the end-to-end metrics, measured
untraced; with ``--trace 1`` the per-layer metrics of a separate traced
run.  Metric names and units come from ``BENCHMARK.json`` at the root;
``GLOSSARY.md`` defines them.  Exits nonzero, printing no result, when the
checkout holds no package or a child fails (``child.py`` rejects an
unknown workload name).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "setup_reference.py")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 6        # fresh interpreters timed for set-up, besides the workload's
REFERENCE_S = 0.72      # median of setup_reference.py on the host that defined setup_s
DEADLINE_S = 170.0      # the whole run must end within 180 s


def bench_env() -> dict:
    return {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}


def run_child(args: list[str], deadline: float, script: str = CHILD
              ) -> tuple[list[str], dict]:
    """Run a script of the benchmark; return its log lines and its final
    JSON object.

    The child gets its own process group, so that on timeout its pool
    workers are killed with it.
    """
    args = [script] + args
    proc = subprocess.Popen([sys.executable] + args, env=bench_env(), cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise RuntimeError(f"{' '.join(args)} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "beamspace", "__init__.py")):
        print(f"error: no beamspace package under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        setup, reference = [], []
        for _ in range(0 if args.trace else SETUP_PROBES):
            setup.append(run_child(["--setup"], deadline)[1]["setup_s"])
            reference.append(run_child([], deadline, REFERENCE)[1]["reference_s"])
        log, res = run_child(["--workload", args.workload, "--seed", str(args.seed),
                              "--seconds", str(args.seconds),
                              "--trace", str(args.trace)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if res["metrics"] is None:
        print("\n".join(log), file=sys.stderr)
        print("error: the workload failed", file=sys.stderr)
        return 1

    values = res["metrics"]
    if not args.trace:
        setup.append(res["setup_s"])
        values["setup_s"] = (statistics.median(setup) * REFERENCE_S
                             / statistics.median(reference))
        log.append(f"set-up samples: {' '.join(f'{x:.3f}' for x in setup)}; reference "
                   f"samples: {' '.join(f'{x:.3f}' for x in reference)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    for line in log:
        print(line)
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
