"""Monte-Carlo experiment engine: BER points, SNR operating points, sweeps.

Coherence blocks are independent trials; each block derives its own RNG
stream from (seed, SNR key, block index) so serial and parallel schedules
produce byte-identical results.  Results merge by associative accumulation
in canonical block order.  Each public call uses at most one process pool,
shared by all of its block rounds and shut down before the call returns,
and evaluates each (config, SNR) BER point at most once.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, is_dataclass, replace
from functools import partial

import numpy as np

from .channel import ScenarioConfig, draw_scenario
from .equalize import lmmse_filter, omp_filter, quantize_filter
from .frontend import (AdcConfig, dft_pilots, dft_unitary, ls_estimate,
                       optimal_unit_step, perfect_csi, receive, unified_step)
from .modem import BITS_PER_SYMBOL, demap_hard, map_bits
from .numerics import ANTENNA_W_FMT, BEAMSPACE_W_FMT
from .spade import ThresholdPair, adaptive_mvm, exact_mvm_fixed


class ConfigError(Exception):
    """Invalid simulation configuration."""


class UnreachableError(Exception):
    """The target BER is not bracketed by the SNR search interval."""


@dataclass(frozen=True)
class Detector:
    """One linear detector: the domain of its channel estimate, filter and
    data; its OMP support rule (None: dense LMMSE); whether it runs the
    threshold-skipping kernel, with the algorithm name as skip scheme; and
    the SimConfig fields it needs, which are what a Pareto sweep varies."""

    domain: str                         # 'antenna' | 'beamspace'
    omp: str | None = None              # 'entrywise' | 'columnwise'
    adaptive: bool = False
    params: tuple[str, ...] = ()


DETECTORS = {
    "almmse": Detector("antenna"),
    "blmmse": Detector("beamspace"),
    "eomp": Detector("beamspace", omp="entrywise", params=("delta",)),
    "comp": Detector("beamspace", omp="columnwise", params=("delta",)),
    "spade": Detector("beamspace", adaptive=True, params=("tau_w", "tau_y")),
    "cspade": Detector("beamspace", adaptive=True, params=("tau_w", "tau_y")),
}
_W_FMT = {"antenna": ANTENNA_W_FMT, "beamspace": BEAMSPACE_W_FMT}


@dataclass
class SimConfig:
    """Complete description of one Monte-Carlo experiment."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    algorithm: str = next(iter(DETECTORS))  # antenna-domain LMMSE
    delta: float | None = None          # OMP density
    tau_w: float | None = None          # skip thresholds of the adaptive kernels
    tau_y: float | None = None
    adc_bits: int | None = 6            # None disables the ADC model
    coherence_len: int = 128
    csi_mode: str = "ls"                # 'perfect' | 'ls'
    snr_lo_db: float = -10.0
    snr_hi_db: float = 30.0
    min_bits_per_point: int = 1_000_000
    min_errors_per_point: int = 100
    max_bits_per_point: int | None = None   # defaults to 4x min_bits_per_point
    Es: float = 1.0
    seed: int = 0
    arithmetic: str = "fixed"           # 'float' | 'fixed'
    workers: int = 1

    @property
    def detector(self) -> Detector:
        """The DETECTORS entry of ``algorithm``; ConfigError if it has none."""
        if self.algorithm not in DETECTORS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        return DETECTORS[self.algorithm]

    def validate(self, *snrs_db: float) -> None:
        """ConfigError unless the config is consistent and each given SNR finite."""
        for snr_db in snrs_db:
            if not math.isfinite(snr_db):
                raise ConfigError(f"SNR must be finite, got {snr_db} dB")
        params = self.detector.params
        if any(getattr(self, name) is None for name in params):
            raise ConfigError(f"{self.algorithm} requires {' and '.join(params)}")
        if "delta" in params and not 0.0 < self.delta <= 1.0:
            raise ConfigError(f"{self.algorithm} requires delta in (0, 1]")
        if "tau_w" in params and min(self.tau_w, self.tau_y) < 0:
            raise ConfigError("thresholds must be nonnegative")
        if self.arithmetic not in ("float", "fixed"):
            raise ConfigError(f"unknown arithmetic {self.arithmetic!r}")
        if self.arithmetic == "fixed" and self.adc_bits is None:
            raise ConfigError("fixed-point arithmetic requires an ADC (adc_bits)")
        if self.csi_mode not in ("perfect", "ls"):
            raise ConfigError(f"unknown csi_mode {self.csi_mode!r}")
        if self.coherence_len < 1:
            raise ConfigError("coherence_len must be >= 1")
        if self.adc_bits is not None and not 1 <= self.adc_bits <= 8:
            raise ConfigError("adc_bits must be in 1..8")


@dataclass
class BlockResult:
    bit_errors: int
    bits: int
    executed_real_mults: int
    total_real_mults: int


@dataclass
class BerPoint:
    snr_db: float
    ber: float
    bits: int
    errors: int
    mean_alpha: float


@dataclass
class ParetoPoint:
    alpha: float
    snr_op_db: float
    tau_w: float | None = None
    tau_y: float | None = None
    delta: float | None = None


def _block_rng(cfg: SimConfig, snr_db: float, block_index: int) -> np.random.Generator:
    snr_key = int(round(snr_db * 1000.0)) + 10_000_000
    return np.random.default_rng([cfg.seed, snr_key, block_index])


def _sim_block(cfg: SimConfig, snr_db: float, block_index: int) -> BlockResult:
    rng = _block_rng(cfg, snr_db, block_index)
    scen = draw_scenario(cfg.scenario, rng)
    H = scen.H
    B, U = H.shape
    Es = cfg.Es
    N0 = Es * 10.0 ** (-snr_db / 10.0)

    if cfg.adc_bits is None:
        adc = None
        step = 1.0
    else:
        unit = optimal_unit_step(cfg.adc_bits)
        adc = AdcConfig(cfg.adc_bits, unit, unified_step(H, Es, N0, cfg.adc_bits))
        step = adc.step
    rho = N0 / (Es * step ** 2)

    det = cfg.detector
    # receive returns (antenna, beamspace) vectors; the detector uses one.
    pick = ("antenna", "beamspace").index(det.domain)
    if cfg.csi_mode == "perfect":
        H_est = perfect_csi(H, step)
        if det.domain == "beamspace":
            H_est = dft_unitary(H_est)
    else:
        pilots = dft_pilots(U, Es)
        H_est = ls_estimate(receive(H, pilots, N0, adc, rng)[pick].values, pilots, Es)

    # A K-beam sparse filter executes 4KUT products, a dense one 4BUT.
    K = max(1, round(cfg.delta * B)) if det.omp else B
    if det.omp:
        eq = omp_filter(H_est, rho, K, det.omp, domain=det.domain)
    else:
        eq = lmmse_filter(H_est, rho, domain=det.domain)
    if cfg.arithmetic == "fixed":
        eq = quantize_filter(eq, _W_FMT[det.domain])

    T = cfg.coherence_len
    tx_bits = rng.integers(0, 2, size=(T, U, BITS_PER_SYMBOL))
    S = map_bits(tx_bits, Es).T  # (U, T)
    yvec = receive(H, S, N0, adc, rng)[pick]

    total_mults = 4 * U * B * T
    executed = 4 * K * U * T            # float arithmetic skips no product
    if cfg.arithmetic == "float":
        shat = eq.W @ yvec.values
    elif det.adaptive:
        thr = ThresholdPair(cfg.tau_w, cfg.tau_y)
        est, rep = adaptive_mvm(eq, yvec, thr, cfg.algorithm)
        shat, executed = est.values, rep.executed_real_mults
    else:
        shat = exact_mvm_fixed(eq, yvec).values

    rx_bits = demap_hard(shat.T, Es)  # (T, U, 4)
    errors = int(np.sum(rx_bits != tx_bits))
    return BlockResult(errors, tx_bits.size, executed, total_mults)


# Per thread: the public call in progress (``open``), its process pool
# (``pool``, None until its first parallel round) and BER points by (config,
# SNR) (``points``).  Module state, not an argument, so that run_ber_point and
# _map_blocks keep the signatures that callers rebinding them rely on.
_scope = threading.local()


@contextmanager
def _pool_scope():
    """Share one process pool and one BER-point memo within a public call.

    The outermost call opens the scope and nested calls (a sweep's
    bisections, a bisection's BER points) reuse it.  The pool is built on
    the first parallel round, sized by that round's ``workers``; pool and
    memo end when the outermost call exits, by return or by exception.
    """
    if getattr(_scope, "open", False):
        yield
        return
    _scope.open, _scope.pool, _scope.points = True, None, {}
    try:
        yield
    finally:
        pool, _scope.pool, _scope.points, _scope.open = _scope.pool, None, None, False
        if pool is not None:
            pool.shutdown(cancel_futures=True)


@_pool_scope()
def _map_blocks(cfg: SimConfig, snr_db: float, indices) -> list[BlockResult]:
    indices = list(indices)
    if cfg.workers <= 1 or len(indices) <= 1:
        return [_sim_block(cfg, snr_db, i) for i in indices]
    fn = partial(_sim_block, cfg, snr_db)
    chunk = max(1, len(indices) // (4 * cfg.workers))
    if _scope.pool is None:
        _scope.pool = ProcessPoolExecutor(max_workers=cfg.workers)
    return list(_scope.pool.map(fn, indices, chunksize=chunk))


@_pool_scope()
def run_ber_point(cfg: SimConfig, snr_db: float) -> BerPoint:
    """Accumulate blocks until the bit and error budgets are met; memoized per public call."""
    cfg.validate(snr_db)
    key = (astuple(cfg), snr_db)
    if key in _scope.points:
        return _scope.points[key]
    bits_per_block = cfg.scenario.num_ues * BITS_PER_SYMBOL * cfg.coherence_len
    blocks_per_round = max(1, math.ceil(cfg.min_bits_per_point / bits_per_block))
    max_bits = cfg.max_bits_per_point or 4 * cfg.min_bits_per_point

    errors = bits = executed = total = 0
    next_index = 0
    while True:
        indices = range(next_index, next_index + blocks_per_round)
        next_index += blocks_per_round
        for res in _map_blocks(cfg, snr_db, indices):
            errors += res.bit_errors
            bits += res.bits
            executed += res.executed_real_mults
            total += res.total_real_mults
        if bits >= cfg.min_bits_per_point and (
                errors >= cfg.min_errors_per_point or bits >= max_bits):
            break
    _scope.points[key] = BerPoint(snr_db, errors / bits, bits, errors, executed / total)
    return _scope.points[key]


@_pool_scope()
def run_ber_curve(cfg: SimConfig, snr_grid_db) -> list[BerPoint]:
    return [run_ber_point(cfg, s) for s in snr_grid_db]


@_pool_scope()
def activity_samples(cfg: SimConfig, snr_db: float, num_blocks: int) -> np.ndarray:
    """Per-block multiplier activity rates at a fixed SNR."""
    cfg.validate(snr_db)
    if num_blocks < 1:
        raise ConfigError(f"num_blocks must be >= 1, got {num_blocks}")
    res = _map_blocks(cfg, snr_db, range(num_blocks))
    return np.array([r.executed_real_mults / r.total_real_mults for r in res])


@_pool_scope()
def snr_operating_point(cfg: SimConfig, target_ber: float = 1e-3,
                        resolution_db: float = 0.25) -> float:
    """Minimum SNR (on a resolution_db grid) reaching the target BER.

    Bisection between cfg.snr_lo_db and cfg.snr_hi_db, assuming BER is
    non-increasing in SNR.  Raises ConfigError unless the extremes are finite
    and lo < hi, and UnreachableError if they do not bracket the target.
    """
    lo, hi = cfg.snr_lo_db, cfg.snr_hi_db
    cfg.validate(lo, hi)
    if lo >= hi:
        raise ConfigError(f"snr_lo_db ({lo}) must be below snr_hi_db ({hi})")
    if run_ber_point(cfg, lo).ber <= target_ber:
        raise UnreachableError(f"BER already at target at the lower extreme {lo} dB")
    if run_ber_point(cfg, hi).ber > target_ber:
        raise UnreachableError(f"BER above target at the upper extreme {hi} dB")
    while hi - lo > resolution_db + 1e-9:
        steps = round((hi - lo) / resolution_db)
        mid = lo + (steps // 2) * resolution_db
        if mid <= lo or mid >= hi:
            break
        if run_ber_point(cfg, mid).ber <= target_ber:
            hi = mid
        else:
            lo = mid
    return hi


@_pool_scope()
def pareto_sweep(cfg: SimConfig, candidates, target_ber: float = 1e-3) -> list[ParetoPoint]:
    """Evaluate (alpha, SNR operating point) per candidate; keep the Pareto set.

    A candidate gives values of the algorithm's ``params``, in their order:
    a density, a ThresholdPair, or a tuple.  ConfigError if it does not
    match them.  Candidates whose target BER is unreachable are dropped.
    """
    params = cfg.detector.params
    values = [astuple(c) if is_dataclass(c) else np.ravel(c) for c in candidates]
    if not params or any(len(v) != len(params) for v in values):
        raise ConfigError(f"{cfg.algorithm} sweeps {', '.join(params) or 'no parameter'};"
                          " each candidate must give exactly those values")
    points = []
    for v in values:
        tag = {name: float(x) for name, x in zip(params, v)}
        sub = replace(cfg, **tag)
        try:
            snr_op = snr_operating_point(sub, target_ber)
        except UnreachableError:
            continue
        alpha = run_ber_point(sub, snr_op).mean_alpha
        points.append(ParetoPoint(alpha=alpha, snr_op_db=snr_op, **tag))

    pareto = []
    for p in points:
        dominated = any(
            (q.alpha <= p.alpha and q.snr_op_db <= p.snr_op_db)
            and (q.alpha < p.alpha or q.snr_op_db < p.snr_op_db)
            for q in points)
        if not dominated:
            pareto.append(p)
    pareto.sort(key=lambda p: (p.alpha, p.snr_op_db))
    return pareto
