"""The three benchmark workloads, each driving the public beamspace API.

A workload maps (seed, workers) to one answer: the figures a user of the
simulator asks for.  Every BER point the harness evaluates on the way is
recorded by ``record_points``, so an answer can be checked point by point
against its golden and the simulated bits can be counted.

Bit budgets are sized so that one answer still takes a few seconds once
BLAS threads are pinned to one (which cuts the run time 8-10x on 2 cores).
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Callable

import beamspace.harness as harness
from beamspace import ScenarioConfig, SimConfig

TARGET_BER = 1e-3
ADC_BITS = 6


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    parallel: bool          # workers = nproc if True, else 1
    min_bits: int           # bit budget per BER point
    fn: Callable            # (seed, workers, min_bits) -> answer dict

    def run(self, seed: int, workers: int, min_bits: int | None = None) -> dict:
        """The workload's answer; the self-tests pass a tiny ``min_bits``."""
        return self.fn(seed, workers, min_bits or self.min_bits)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _snrop_cspade(seed: int, workers: int, min_bits: int) -> dict:
    # Acceptance criterion 6 shrunk to its first candidate, with bit and
    # error budgets both cut 10x so points stop as they do in the criterion
    # (the full criterion takes minutes per run).
    base = dict(scenario=ScenarioConfig(num_antennas=64, num_ues=8, los=True),
                csi_mode="perfect", adc_bits=ADC_BITS, arithmetic="fixed",
                min_bits_per_point=min_bits, min_errors_per_point=10,
                seed=seed, snr_lo_db=-4.0, snr_hi_db=16.0, workers=workers)
    op_dense = harness.snr_operating_point(SimConfig(algorithm="almmse", **base),
                                           TARGET_BER)
    cfg = SimConfig(algorithm="cspade", tau_w=0.028, tau_y=10.0, **base)
    op = harness.snr_operating_point(cfg, TARGET_BER)
    alpha = harness.run_ber_point(cfg, op).mean_alpha
    return {"op_almmse_db": op_dense, "op_cspade_db": op, "alpha": alpha}


def _ber_nlos_ls(seed: int, workers: int, min_bits: int) -> dict:
    cfg = SimConfig(scenario=ScenarioConfig(num_antennas=64, num_ues=8, los=False),
                    algorithm="almmse", csi_mode="ls", adc_bits=ADC_BITS,
                    arithmetic="fixed", min_bits_per_point=min_bits,
                    min_errors_per_point=100, seed=seed, workers=workers)
    curve = harness.run_ber_curve(cfg, [0.0, 4.0, 8.0, 12.0])
    return {"ber": [p.ber for p in curve]}


def _pareto_eomp(seed: int, workers: int, min_bits: int) -> dict:
    # Every point runs exactly min_bits, and the 16 dB (64-step) search
    # interval always takes 6 bisection steps, so the work per answer does
    # not depend on the seed.
    cfg = SimConfig(scenario=ScenarioConfig(num_antennas=64, num_ues=8, los=True),
                    algorithm="eomp", delta=1.0, csi_mode="perfect",
                    adc_bits=ADC_BITS, arithmetic="fixed",
                    min_bits_per_point=min_bits, max_bits_per_point=min_bits,
                    seed=seed, snr_lo_db=-4.0, snr_hi_db=12.0, workers=workers)
    front = harness.pareto_sweep(cfg, [0.5, 0.25], TARGET_BER)
    return {"pareto": [{"delta": p.delta, "alpha": p.alpha, "snr_op_db": p.snr_op_db}
                       for p in front]}


WORKLOADS = {w.name: w for w in (
    Workload("snrop-cspade", 123, True, 100_000, _snrop_cspade),
    Workload("ber-nlos-ls", 1, False, 700_000, _ber_nlos_ls),
    Workload("pareto-eomp", 7, True, 60_000, _pareto_eomp),
)}


def workers_for(w: Workload) -> int:
    return nproc() if w.parallel else 1


@contextlib.contextmanager
def record_points(points: list):
    """Append every BER point the harness evaluates to ``points``.

    Rebinds ``run_ber_point`` in ``beamspace.harness``, where the sweep and
    bisection functions look it up at call time.
    """
    inner = harness.run_ber_point

    def recorded(cfg, snr_db):
        p = inner(cfg, snr_db)
        points.append({"algorithm": cfg.algorithm, "delta": cfg.delta,
                       "tau_w": cfg.tau_w, "tau_y": cfg.tau_y,
                       "snr_db": p.snr_db, "bits": p.bits, "errors": p.errors,
                       "mean_alpha": p.mean_alpha})
        return p

    harness.run_ber_point = recorded
    try:
        yield points
    finally:
        harness.run_ber_point = inner
