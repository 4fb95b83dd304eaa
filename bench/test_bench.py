"""Self-tests of the benchmark, on tiny bit budgets.

    python3 -m pytest bench -q
"""

import copy
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import beamspace.harness as harness  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import STAGES, Tracer, block_stage_us  # noqa: E402

TINY_BITS = 8192        # two coherence blocks per round, so workers=2 uses a pool


class _Evaluation:
    def __init__(self, answer, points, error=None):
        self.answer, self.points, self.error = answer, points, error


def _counters(t: Tracer) -> dict:
    """Parent-side counters that must repeat exactly for any worker count."""
    return {"blocks": t.blocks, "rounds": t.rounds,
            "executed": t.executed_real_mults, "total": t.total_real_mults}


def _evaluate(w, workers, tracer=None, seed=5):
    points = []
    with workloads.record_points(points):
        if tracer is None:
            answer = w.run(seed, workers, TINY_BITS)
        else:
            with tracer:
                answer = w.run(seed, workers, TINY_BITS)
    return _Evaluation(answer, points)


@pytest.fixture(scope="module")
def golden():
    return checks.load_golden()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_golden_passes_its_own_checks(golden, name):
    w = workloads.WORKLOADS[name]
    g = golden[name][str(w.default_seed)]
    assert checks.invariants(name, g["answer"], g["points"]) == []
    assert checks.score(w, w.default_seed, [_Evaluation(g["answer"], g["points"])])[1] == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_golden_check_fails_on_perturbed_answer(golden, name):
    w = workloads.WORKLOADS[name]
    g = golden[name][str(w.default_seed)]
    points = copy.deepcopy(g["points"])
    points[3]["errors"] += 1
    attempted, failed, problems = checks.score(
        w, w.default_seed, [_Evaluation(g["answer"], points)])
    assert (attempted, failed) == (len(points), 1) and problems

    answer = copy.deepcopy(g["answer"])
    key = next(iter(answer))
    answer[key] = answer[key][:-1] if isinstance(answer[key], list) else answer[key] + 0.25
    assert checks.score(w, w.default_seed, [_Evaluation(answer, g["points"])])[1] == 1

    done = len(g["points"]) // 2
    failed_run = _Evaluation(None, g["points"][:done], error="DecompositionError: boom")
    assert checks.score(w, w.default_seed, [failed_run])[1] == len(g["points"]) - done


def test_eomp_alpha_must_equal_delta(golden):
    g = golden["pareto-eomp"][str(workloads.WORKLOADS["pareto-eomp"].default_seed)]
    answer = copy.deepcopy(g["answer"])
    answer["pareto"][0]["alpha"] += 1e-12
    assert any("alpha" in x for x in checks.invariants("pareto-eomp", answer, g["points"]))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_stage_tracing_leaves_answers_identical(name):
    w = workloads.WORKLOADS[name]
    bound = {n: getattr(harness, n) for n in list(STAGES) + ["_sim_block", "run_ber_point"]}
    plain = _evaluate(w, 1)
    tracer = Tracer(stages=True)
    traced = _evaluate(w, 1, tracer)
    assert traced.answer == plain.answer and traced.points == plain.points
    assert all(getattr(harness, n) is f for n, f in bound.items())
    assert checks.invariants(name, traced.answer, traced.points) == []

    per_block = block_stage_us(tracer.spans)
    assert len(per_block) == tracer.blocks > 0
    for b in per_block:
        parts = sum(v for k, v in b.items() if k != "harness.block")
        assert parts == pytest.approx(b["harness.block"], rel=1e-9)
    names = {s[0] for s in tracer.spans}
    assert {"channel.draw", "frontend.receive", "frontend.csi", "frontend.step",
            "equalize.filter", "equalize.quantize", "numerics.solve", "spade.mvm",
            "modem.map", "modem.demap"} <= names


def test_pilot_receive_counts_as_csi():
    w = workloads.WORKLOADS["ber-nlos-ls"]         # LS estimation: two receives a block
    tracer = Tracer(stages=True)
    _evaluate(w, 1, tracer)
    receives = [s for s in tracer.spans if s[0] == "frontend.receive"]
    assert len(receives) == tracer.blocks


@pytest.mark.parametrize("name", ["snrop-cspade", "pareto-eomp"])
def test_counters_identical_at_one_and_two_workers(name):
    w = workloads.WORKLOADS[name]
    serial, pooled = Tracer(stages=True), Tracer(stages=False)
    a = _evaluate(w, 1, serial)
    b = _evaluate(w, 2, pooled)
    assert a.answer == b.answer and a.points == b.points
    assert _counters(serial) == _counters(pooled)
    assert serial.pool_workers == 0 and pooled.pool_workers > 0

    again = Tracer(stages=True)
    _evaluate(w, 1, again)
    assert [s[0] for s in again.spans] == [s[0] for s in serial.spans]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ber-nlos-ls",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

