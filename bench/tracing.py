"""In-memory span tracing around the calls ``beamspace.harness`` makes.

Nothing under ``src/`` changes: a ``Tracer`` rebinds names in the harness
module (and ``solve_hermitian_pd`` in ``beamspace.equalize``, where the
filters look it up) to timing wrappers, and restores them on exit.

Two depths exist.  Harness tracing wraps only the parent-side boundary:
BER points, block rounds and process-pool constructions; it is cheap and
runs at the workload's own worker count.  Stage tracing also wraps every
stage function ``_sim_block`` calls; those spans are recorded in-process,
so stage tracing requires ``workers=1`` (outputs are byte-identical for
any worker count, so the work traced is the same).

A span is ``[name, start, end, parent]``: times from ``time.perf_counter``
and ``parent`` the index of the enclosing span, or -1.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import beamspace.equalize as equalize
import beamspace.harness as harness

# Stage functions as harness binds them -> span name ("module.stage").
STAGES = {
    "draw_scenario": "channel.draw",
    "optimal_unit_step": "frontend.step",
    "unified_step": "frontend.step",
    "dft_pilots": "frontend.csi",
    "perfect_csi": "frontend.csi",
    "dft_unitary": "frontend.csi",
    "ls_estimate": "frontend.csi",
    "receive": "frontend.receive",      # the pilot call counts as frontend.csi
    "lmmse_filter": "equalize.filter",
    "omp_filter": "equalize.filter",
    "quantize_filter": "equalize.quantize",
    "adaptive_mvm": "spade.mvm",
    "exact_mvm_fixed": "spade.mvm",
    "map_bits": "modem.map",
    "demap_hard": "modem.demap",
}
SOLVE = "numerics.solve"
BLOCK = "harness.block"
POINT = "harness.point"
ROUND = "harness.round"
# The fields of a recorded BER point that tell the workload's configs apart.
POINT_KEY = ("algorithm", "delta", "tau_w", "tau_y", "snr_db")
MODULES = ("channel", "frontend", "equalize", "spade", "modem")
# Stage self time per block: the percentiles reported for each stage.
STAGE_PERCENTILES = {
    "channel.draw": (50, 90), "frontend.receive": (50, 90), "frontend.csi": (50,),
    "frontend.step": (50,), "equalize.filter": (50, 90), "equalize.quantize": (50,),
    SOLVE: (50,), "spade.mvm": (50, 90), "modem.map": (50,), "modem.demap": (50,),
}


class Tracer:
    """Collects spans and harness counters while installed."""

    def __init__(self, stages: bool):
        self.stages = stages
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._pilots = None
        self.pool_workers = 0
        self.blocks = 0
        self.rounds = 0
        self.executed_real_mults = 0
        self.total_real_mults = 0

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
        return traced

    def _harness_wrappers(self) -> dict:
        round_ = self._wrap(ROUND, harness._map_blocks)
        tracer = self

        def _map_blocks(cfg, snr_db, indices):
            results = round_(cfg, snr_db, indices)
            tracer.rounds += 1
            tracer.blocks += len(results)
            for r in results:
                tracer.executed_real_mults += r.executed_real_mults
                tracer.total_real_mults += r.total_real_mults
            return results

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, max_workers, *args, **kwargs):
                tracer.pool_workers += max_workers
                super().__init__(max_workers, *args, **kwargs)

        return {"run_ber_point": self._wrap(POINT, harness.run_ber_point),
                "_map_blocks": _map_blocks, "ProcessPoolExecutor": CountingPool}

    def _stage_wrappers(self) -> dict:
        out = {name: self._wrap(span, getattr(harness, name))
               for name, span in STAGES.items()}
        out["_sim_block"] = self._wrap(BLOCK, harness._sim_block)
        pilots, data = out["dft_pilots"], out["receive"]
        pilot = self._wrap("frontend.csi", harness.receive)
        tracer = self

        def dft_pilots(*args, **kwargs):
            tracer._pilots = pilots(*args, **kwargs)
            return tracer._pilots

        def receive(H, s, *args, **kwargs):
            return (pilot if s is tracer._pilots else data)(H, s, *args, **kwargs)

        out["dft_pilots"] = dft_pilots
        out["receive"] = receive
        return out

    def __enter__(self):
        patches = [(harness, self._harness_wrappers())]
        if self.stages:
            patches += [(harness, self._stage_wrappers()),
                        (equalize, {"solve_hermitian_pd": self._wrap(
                            SOLVE, equalize.solve_hermitian_pd)})]
        self._saved = []
        for module, names in patches:
            for name, fn in names.items():
                self._saved.append((module, name, getattr(module, name)))
                setattr(module, name, fn)
        return self

    def __exit__(self, *exc):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        return False

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _pct(values, q: int) -> float:
    """The q-th percentile (nearest rank) of a non-empty sample."""
    v = sorted(values)
    return v[max(0, -(-q * len(v) // 100) - 1)]


def block_stage_us(spans) -> list[dict]:
    """Per block: self time in microseconds by stage, plus the block's own
    self time and total duration (keys ``harness.block_self`` and
    ``harness.block``).  The stage self times and the block's own self time
    add up to the block's duration."""
    own = self_times(spans)
    block_of = [-1] * len(spans)
    blocks: dict[int, dict] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if name == BLOCK:
            block_of[i] = i
            blocks[i] = {"harness.block": (end - start) * 1e6,
                         "harness.block_self": own[i] * 1e6}
        elif parent >= 0 and block_of[parent] >= 0:
            b = block_of[i] = block_of[parent]
            blocks[b][name] = blocks[b].get(name, 0.0) + own[i] * 1e6
    return list(blocks.values())


def layer_metrics(serial: Tracer, parent: Tracer, points: list, workers: int,
                  wall_ratio: float) -> dict:
    """Per-layer figures: stage self times from the serial stage trace,
    harness counters and point times from the trace at ``workers``, whose
    BER points (as ``workloads.record_points`` records them) are ``points``."""
    per_block = block_stage_us(serial.spans)
    calls = Counter(s[0] for s in serial.spans)
    m = {}
    for name, pcts in STAGE_PERCENTILES.items():
        vals = [b.get(name, 0.0) for b in per_block]
        m.update({f"{name}_us_p{q}": _pct(vals, q) for q in pcts})
    for mod in MODULES:
        m[f"{mod}.calls"] = sum(c for n, c in calls.items() if n.startswith(mod + "."))
    m["numerics.solve_calls"] = calls.get(SOLVE, 0)
    m["spade.executed_real_mults"] = parent.executed_real_mults
    m["spade.alpha"] = parent.executed_real_mults / parent.total_real_mults
    block_s = sum(b["harness.block"] for b in per_block) * 1e-6
    point_s = [s[2] - s[1] for s in parent.spans if s[0] == POINT]
    m.update({
        "harness.points": len(points),
        "harness.distinct_points": len({tuple(p[k] for k in POINT_KEY) for p in points}),
        "harness.blocks": parent.blocks,
        "harness.bits": sum(p["bits"] for p in points),
        "harness.rounds": parent.rounds,
        "harness.processes": 1 + parent.pool_workers,
        "harness.point_s_p50": _pct(point_s, 50),
        "harness.block_self_us_p50": _pct([b["harness.block_self"] for b in per_block], 50),
        "harness.block_us_p50": _pct([b["harness.block"] for b in per_block], 50),
        "harness.useful_frac": block_s / (workers * sum(point_s)),
        "trace.wall_ratio": wall_ratio,
    })
    return m
