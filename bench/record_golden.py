"""Record the golden answers that ``checks.py`` compares every run against.

    python3 bench/record_golden.py

Evaluates every workload once per seed (0-15 plus each workload's default
seed) and rewrites ``golden.json``; also rewrites
``environment.json`` with the environment the benchmark's child process
sees.  Run it only at a commit whose answers are the reference: answers
are independent of the worker count, so it runs serially.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from checks import GOLDEN_PATH, invariants  # noqa: E402
from run import CHILD, bench_env  # noqa: E402


GOLDEN_SEEDS = range(16)


def main() -> int:
    golden = {}
    for w in workloads.WORKLOADS.values():
        golden[w.name] = {}
        for seed in sorted(set(GOLDEN_SEEDS) | {w.default_seed}):
            points = []
            with workloads.record_points(points):
                answer = w.run(seed, 1)
            bad = invariants(w.name, answer, points)
            if bad:
                print(f"{w.name} seed {seed}: {bad}", file=sys.stderr)
                return 1
            golden[w.name][str(seed)] = {"answer": answer, "points": points}
            print(w.name, seed, answer, flush=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")

    env = subprocess.run([sys.executable, CHILD, "--environment"], env=bench_env(),
                         capture_output=True, text=True, check=True).stdout
    with open(os.path.join(HERE, "environment.json"), "w") as fh:
        json.dump(json.loads(env), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
