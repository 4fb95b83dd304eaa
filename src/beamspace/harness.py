"""Monte-Carlo experiment engine: BER points, SNR operating points, sweeps.

Coherence blocks are independent trials; each block derives its own RNG
stream from (seed, SNR key, block index) so serial and parallel schedules
produce byte-identical results.  Results merge by associative accumulation
in canonical block order.  Each public call uses at most one process pool,
shared by all of its block rounds and shut down before the call returns,
and evaluates each (config, SNR) BER point at most once.

Configs that agree on every field but the algorithm and its params (a
group) draw the same channel, bits and noise at a given SNR and block
index: the stream does not depend on the algorithm.  A round's blocks run
in contiguous chunks of at most _CHUNK_BLOCKS, drawn one chunk ahead:
before chunk c runs, chunk c + 1's paths, LS pilot noise and data bits are
drawn here, and its job (path superpositions, then data noise) is handed
on.  A chunk runs in two passes.  First it is prepared once, stacked over
the chunk: the front end (channel, ADC step, rho, LS pilots; in beamspace
only if a detector of the group reads it), the CSI, and each distinct
filter, built and quantized in one stacked call (one LMMSE filter per
domain; one OMP run per support rule to the group's largest K, whose
nested supports give each smaller K).  Then block by block the data is
received once, and each config runs its kernel and demap.  Stacked
results equal those of each block alone, byte for byte.  A pooled round
is one task per worker, each a contiguous share of the round's blocks
that the worker runs as chunks.
``workers`` counts processes.  When a round runs in this process alone
and the affinity mask holds a second core (``_spare_core``), its share
starts a helper, the standard library's one-thread executor, that runs
each chunk's job, which numpy computes outside the GIL, while this thread
runs the chunk before; otherwise the job runs here, each block's noise
drawn as the block takes it.  Each Generator draws in its order alone,
one thread at a time, so every output is byte-identical with or without
the helper.  The stage functions called by name here, which a tracer may
rebind, run on the main thread only.  The helper ends with its share, so
no thread outlives a round or exists at a fork.
``import beamspace`` loads no part of ``concurrent.futures``: the first
share with a spare core imports its thread half (with ``logging``), and
the first pool its process pool (with ``multiprocessing``), so a process
that never pools, as at the default ``workers=1``, never loads the latter.
An operating point is found by bisection on a fixed 0.25 dB grid, and
one loop (``_search``) drives every search: a Pareto sweep's candidates
advance in lockstep, so that those probing one SNR form a group; every
BER point is still the one its config gets alone.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, is_dataclass, replace

import numpy as np

from .channel import ScenarioConfig, draw_scenario
from .equalize import lmmse_filter, omp_filter, quantize_filter
from .frontend import (AdcConfig, dft_pilots, dft_unitary, ls_estimate,
                       perfect_csi, receive, unified_step, unit_noise)
from .frontend import optimal_unit_step  # noqa: F401  uncalled; bench/tracing.py binds it here
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
_DOMAINS = ("antenna", "beamspace")        # the order of receive's outputs
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
    seed: int = 0
    arithmetic: str = "fixed"           # 'float' | 'fixed'
    workers: int = 1

    @property
    def detector(self) -> Detector:
        """The DETECTORS entry of ``algorithm``; ConfigError if it has none."""
        if self.algorithm not in DETECTORS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        return DETECTORS[self.algorithm]

    def noise_power(self, snr_db: float) -> float:
        """N0 at ``snr_db``: symbols have unit energy, so 1 / N0 is the SNR."""
        return 10.0 ** (-snr_db / 10.0)

    def validate(self, *snrs_db: float) -> None:
        """ConfigError unless the config is consistent and each given SNR
        finite, with a finite and positive noise power N0."""
        for snr_db in snrs_db:
            if not math.isfinite(snr_db):
                raise ConfigError(f"SNR must be finite, got {snr_db} dB")
            try:
                N0 = self.noise_power(snr_db)
            except OverflowError:
                N0 = math.inf
            if not (math.isfinite(N0) and N0 > 0):
                raise ConfigError(f"SNR {snr_db} dB gives noise power N0 = {N0};"
                                  " it must be finite and positive")
        params = self.detector.params
        if any(getattr(self, name) is None for name in params):
            raise ConfigError(f"{self.algorithm} requires {' and '.join(params)}")
        if "delta" in params and not 0.0 < self.delta <= 1.0:
            raise ConfigError(f"{self.algorithm} requires delta in (0, 1]")
        if "tau_w" in params and not (self.tau_w >= 0 and self.tau_y >= 0):  # NaN too
            raise ConfigError("thresholds must be nonnegative, got"
                              f" tau_w = {self.tau_w}, tau_y = {self.tau_y}")
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
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.min_errors_per_point < 0:
            raise ConfigError("min_errors_per_point must be >= 0,"
                              f" got {self.min_errors_per_point}")
        lo, hi = self.min_bits_per_point, self.max_bits_per_point
        if lo < 1:
            raise ConfigError(f"min_bits_per_point must be >= 1, got {lo}")
        if hi is not None and hi < lo:
            raise ConfigError(f"max_bits_per_point ({hi}) must not be below"
                              f" min_bits_per_point ({lo})")


@dataclass
class BlockResult:
    bit_errors: int
    bits: int
    executed_real_mults: int
    total_real_mults: int

    def __add__(self, other: BlockResult) -> BlockResult:
        """The field-wise sum: associative, so totals do not depend on grouping."""
        return BlockResult(self.bit_errors + other.bit_errors, self.bits + other.bits,
                           self.executed_real_mults + other.executed_real_mults,
                           self.total_real_mults + other.total_real_mults)


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


def _filter_key(cfg: SimConfig) -> tuple:
    """(domain, OMP rule, K): configs of a group with equal keys share one
    filter.  A K-beam sparse filter executes 4KUT products, a dense one 4BUT."""
    det, B = cfg.detector, cfg.scenario.num_antennas
    return det.domain, det.omp, max(1, round(cfg.delta * B)) if det.omp else B


def _draw_chunk(cfg: SimConfig, snr_db: float, indices, helper=None) -> tuple:
    """The draws of blocks ``indices``, each from its own Generator in stream
    order: here the channel's (draw_scenario), the LS pilots' unit noise and
    the data bits, narrowed to int8 once drawn; then one job, submitted to
    ``helper`` (a one-thread executor) if given: the path superpositions,
    then each block's unit data noise.  Returns (channel, pilot noise or
    None, bits, take): ``take()`` gives an iterator of the blocks' data
    noise, waiting for the job and raising its exception; without a helper
    it superposes at the first read of H and draws each block's noise as
    the block takes it."""
    rngs = [_block_rng(cfg, snr_db, i) for i in indices]
    channel = draw_scenario(cfg.scenario, rngs)
    B, U, T = cfg.scenario.num_antennas, cfg.scenario.num_ues, cfg.coherence_len
    pilot_noise = unit_noise(rngs, (len(rngs), B, U)) if cfg.csi_mode == "ls" else None
    bits = [r.integers(0, 2, size=(T, U, BITS_PER_SYMBOL)).astype(np.int8) for r in rngs]
    noise = (unit_noise([r], (B, T)) for r in rngs)
    take = helper.submit(_chunk_job, channel, noise).result if helper else lambda: noise
    return channel, pilot_noise, bits, take


def _chunk_job(channel, noise):
    """A chunk's helper job: the path superpositions, then the data noise,
    each block's let go as the block takes it."""
    channel.superpose()
    drawn = list(noise)[::-1]
    return (drawn.pop() for _ in range(len(drawn)))


def _prepare_chunk(cfgs: tuple, snr_db: float, channel, pilot_noise) -> list[dict]:
    """A chunk drawn by ``_draw_chunk``, prepared for a group in one pass
    stacked over the chunk: the channels, steps, rho and (LS) the received
    pilots, in beamspace too if a detector of the group reads it; the CSI
    (LS: one ls_estimate call per domain read; perfect: one perfect_csi
    call, and one dft_unitary call for beamspace); one lmmse_filter call
    per domain, one omp_filter call per support rule (to the group's
    largest K) and one quantize_filter call per _filter_key.  Returns one
    dict per block: its channel, N0, ADC, beamspace flag and filters."""
    cfg = cfgs[0]
    keys = list(dict.fromkeys(map(_filter_key, cfgs)))
    domains = {key[0] for key in keys}
    beamspace = "beamspace" in domains
    H = channel.H
    N0 = cfg.noise_power(snr_db)
    adc = None if cfg.adc_bits is None else AdcConfig(
        cfg.adc_bits, unified_step(H, N0, cfg.adc_bits)[:, None, None])
    steps = [1.0] * len(H) if adc is None else adc.step.ravel().tolist()
    scales = [step ** 2 for step in steps]              # float pow
    if 0.0 in scales:
        raise ConfigError(f"the ADC step^2 underflows to 0 at N0 = {N0}")
    rho = np.array([N0 / scale for scale in scales])
    blocks = [{"H": h, "N0": N0, "beamspace": beamspace,
               "adc": adc and AdcConfig(adc.bits, step)} for h, step in zip(H, steps)]
    if cfg.csi_mode == "ls":
        pilots = dft_pilots(H.shape[-1])
        pilot_rx = receive(H, pilots, N0, adc, pilot_noise, beamspace)
        estimates = {d: ls_estimate(pilot_rx[_DOMAINS.index(d)].values, pilots)
                     for d in _DOMAINS if d in domains}
    else:
        estimates = {"antenna": perfect_csi(H, np.reshape(steps, (-1, 1, 1)))}
        if beamspace:
            estimates["beamspace"] = dft_unitary(estimates["antenna"])
    for domain, omp in dict.fromkeys(key[:2] for key in keys):
        sizes = [k for d, o, k in keys if (d, o) == (domain, omp)]
        if omp:
            eqs = omp_filter(estimates[domain], rho, sizes, omp, domain=domain)
        else:
            eqs = [lmmse_filter(estimates[domain], rho, domain=domain)]
        for K, eq in zip(sizes, eqs):
            if cfg.arithmetic == "fixed":
                eq = quantize_filter(eq, _W_FMT[domain])
            for n, block in enumerate(blocks):
                block[domain, omp, K] = eq[n]
    return blocks


def _sim_block(cfg: SimConfig, shared: dict) -> BlockResult:
    """One coherence block of one config of a group.

    ``shared`` is the block's state common to the configs of the group,
    with its filters built and its bits and unit data noise drawn
    (``_sim_chunk``): the first config receives the data, and the others
    reuse it.  U and B are the scenario's, as a quantized filter holds
    only codes.  A config alone runs a chunk of one block:
    ``_sim_chunk((cfg,), snr_db, [block_index])[0]``.
    """
    if "rx" not in shared:
        S = map_bits(shared["tx_bits"]).T  # (U, T)
        shared["rx"] = receive(shared["H"], S, shared["N0"], shared["adc"],
                               shared.pop("noise"), shared["beamspace"])
    det = cfg.detector
    eq = shared[_filter_key(cfg)]
    yvec = shared["rx"][_DOMAINS.index(det.domain)]
    tx_bits = shared["tx_bits"]
    U, B, T = cfg.scenario.num_ues, cfg.scenario.num_antennas, cfg.coherence_len
    total_mults = 4 * U * B * T
    executed = 4 * _filter_key(cfg)[2] * U * T   # float arithmetic skips no product
    if cfg.arithmetic == "float":
        shat = eq.W @ yvec.values
    elif det.adaptive:
        thr = ThresholdPair(cfg.tau_w, cfg.tau_y)
        est, rep = adaptive_mvm(eq, yvec, thr, cfg.algorithm)
        shat, executed = est.values, rep.executed_real_mults
    else:
        shat = exact_mvm_fixed(eq, yvec).values

    rx_bits = demap_hard(shat.T)  # (T, U, 4)
    errors = int(np.sum(rx_bits != tx_bits))
    return BlockResult(errors, tx_bits.size, executed, total_mults)


def _spare_core() -> bool:
    """Whether the affinity mask holds a second core, for the helper thread of
    a round run in this process alone (a CPU quota is not seen)."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return cores >= 2


def _sim_chunk(cfgs: tuple, snr_db: float, indices, drawn=None) -> list[BlockResult]:
    """Blocks ``indices`` of a group of configs, which agree on every field
    but the algorithm and its params: one BlockResult per config and block,
    block by block in the group's order.

    Two passes (module docstring) on the draws ``drawn`` of
    ``_draw_chunk``, made here if not given: ``_prepare_chunk`` once over
    the chunk, then per block each config's ``_sim_block``.  The chunk
    ``[block_index]`` gives the results of that block in any chunk.
    """
    channel, pilot_noise, bits, take = drawn or _draw_chunk(cfgs[0], snr_db, indices)
    noise = take()                      # the superpositions come first
    results = []
    for shared, tx_bits in zip(_prepare_chunk(cfgs, snr_db, channel, pilot_noise), bits):
        shared["tx_bits"], shared["noise"] = tx_bits, next(noise)
        results += [_sim_block(c, shared) for c in cfgs]
        shared.clear()                  # the block's data goes before the next is taken
    return results


# Per thread: the public call in progress (``open``), its process pool
# (``pool``, None until its first parallel round) and BER points by (config,
# SNR) (``points``).  Module state, not an argument, so that run_ber_point
# and _map_blocks keep the signatures that callers rebinding them rely on.
_scope = threading.local()


def ProcessPoolExecutor(*, max_workers: int):
    """The standard library's process pool of ``max_workers`` processes,
    imported on the first call.  A module attribute that _map_blocks calls
    by name, so that callers can rebind it to a pool class of their own."""
    import concurrent.futures
    return concurrent.futures.ProcessPoolExecutor(max_workers=max_workers)


@contextmanager
def _pool_scope():
    """Share one process pool and one BER-point memo within a public call.

    The outermost call opens the scope and nested calls (a sweep's
    bisections, a bisection's BER points) reuse it.  The pool is built on
    the first parallel round, with one process per task of that round (every
    round of a call has as many blocks); pool and memo end when the
    outermost call exits, by return or by exception.
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


# The most blocks a chunk holds.  Stacking a filter build over N blocks
# divides its per-call overhead by N: on 2 cores with one BLAS thread, an
# entrywise OMP run to K = 16 and 32 took 1550 us per block alone, 770 at
# N = 8 and 725 at N = 16, while a chunk's CSI and filters (tens of KiB
# per 64 x 8 block) grow with N.  A pool task runs its share of a round
# as chunks of at most this size, so the bound holds in every worker.
_CHUNK_BLOCKS = 8


def _split(indices: list, count: int) -> list[list]:
    """``indices`` cut into ``count`` contiguous parts of near-equal size."""
    n = len(indices)
    return [indices[n * j // count:n * (j + 1) // count] for j in range(count)]


def _sim_share(cfgs: tuple, snr_db: float, indices: list, spare_core=False) -> list[BlockResult]:
    """Blocks ``indices`` of a group, run as the fewest chunks of near-equal
    size that hold at most _CHUNK_BLOCKS blocks each (``_sim_chunk``), one
    chunk ahead: chunk c + 1 is drawn (``_draw_chunk``) before chunk c
    runs.  With ``spare_core``, a helper, the standard library's one-thread
    executor, runs each chunk's job; it is imported here, so a process
    without a spare core never loads it."""
    chunks = _split(indices, -(-len(indices) // _CHUNK_BLOCKS))
    helper = None
    if spare_core:
        from concurrent.futures import ThreadPoolExecutor
        helper = ThreadPoolExecutor(1, "beamspace-chunk-helper")
    try:
        drawn, results = [_draw_chunk(cfgs[0], snr_db, chunks[0], helper)], []
        for c, chunk in enumerate(chunks):
            if c + 1 < len(chunks):
                drawn.append(_draw_chunk(cfgs[0], snr_db, chunks[c + 1], helper))
            results += _sim_chunk(cfgs, snr_db, chunk, drawn.pop(0))
        return results
    finally:
        if helper:
            helper.shutdown(cancel_futures=True)   # a job not yet started never runs


@_pool_scope()
def _map_blocks(cfgs: tuple, snr_db: float, indices) -> list[BlockResult]:
    """Blocks ``indices`` of a group of configs: one BlockResult per config
    and block, block by block in the group's order.

    With ``workers`` above 1 and more than one block, the round is cut into
    one contiguous share of near-equal size per worker, ``min(n, workers)``
    tasks for a pool of as many processes, and each task runs its share as
    chunks of at most _CHUNK_BLOCKS blocks (``_sim_share``); otherwise the
    round is one share, run in this process, which starts a helper thread
    if ``_spare_core``; pool workers start none.  Before the first
    pool of the process forks, the pool machinery (``ProcessPoolExecutor``)
    and the numpy submodules that the block pipeline loads lazily are
    imported here, so that no worker imports them again and a process that
    never pools loads none of them.
    """
    indices = list(indices)
    tasks = min(len(indices), cfgs[0].workers)
    if tasks <= 1:
        return _sim_share(cfgs, snr_db, indices, _spare_core())
    if _scope.pool is None:
        import numpy.fft                # once per process: every fork inherits
        import numpy.random             # these and the pool's own imports
        _scope.pool = ProcessPoolExecutor(max_workers=tasks)
    futures = [_scope.pool.submit(_sim_share, cfgs, snr_db, share)
               for share in _split(indices, tasks)]
    return [res for future in futures for res in future.result()]


def _ber_points(cfgs, snr_db: float) -> list[BerPoint]:
    """BER points at one SNR of a group of configs, which agree on every
    field but the algorithm and its params; memoized per public call.

    The configs not in the memo share one round loop: every round runs the
    same block indices for each config still going, and a config leaves as
    soon as its own bit and error budgets are met.  So each point equals
    the one its config gets alone.
    """
    for cfg in cfgs:
        cfg.validate(snr_db)
    keys = [(astuple(cfg), snr_db) for cfg in cfgs]
    going = {key: cfg for key, cfg in zip(keys, cfgs) if key not in _scope.points}
    cfg = cfgs[0]                           # the budgets are the group's
    bits_per_block = cfg.scenario.num_ues * BITS_PER_SYMBOL * cfg.coherence_len
    blocks_per_round = math.ceil(cfg.min_bits_per_point / bits_per_block)
    max_bits = cfg.max_bits_per_point or 4 * cfg.min_bits_per_point
    sums = {key: BlockResult(0, 0, 0, 0) for key in going}
    next_index = 0
    while going:
        indices = range(next_index, next_index + blocks_per_round)
        next_index += blocks_per_round
        results = _map_blocks(tuple(going.values()), snr_db, indices)
        for key, res in zip(itertools.cycle(list(going)), results):
            sums[key] += res
        for key in list(going):
            errors, bits = sums[key].bit_errors, sums[key].bits
            if bits >= cfg.min_bits_per_point and (
                    errors >= cfg.min_errors_per_point or bits >= max_bits):
                alpha = sums[key].executed_real_mults / sums[key].total_real_mults
                _scope.points[key] = BerPoint(snr_db, errors / bits, bits, errors, alpha)
                del going[key]
    return [_scope.points[key] for key in keys]


@_pool_scope()
def run_ber_point(cfg: SimConfig, snr_db: float) -> BerPoint:
    """Accumulate blocks until the bit and error budgets are met; memoized per public call."""
    return _ber_points((cfg,), snr_db)[0]


@_pool_scope()
def run_ber_curve(cfg: SimConfig, snr_grid_db) -> list[BerPoint]:
    return [run_ber_point(cfg, s) for s in snr_grid_db]


@_pool_scope()
def activity_samples(cfg: SimConfig, snr_db: float, num_blocks: int) -> np.ndarray:
    """Per-block multiplier activity rates at a fixed SNR."""
    cfg.validate(snr_db)
    if num_blocks < 1:
        raise ConfigError(f"num_blocks must be >= 1, got {num_blocks}")
    res = _map_blocks((cfg,), snr_db, range(num_blocks))
    return np.array([r.executed_real_mults / r.total_real_mults for r in res])


_RESOLUTION_DB = 0.25                       # the grid of every operating-point search


def _bisection(cfg: SimConfig, target_ber: float):
    """The operating-point search as a generator: yields each SNR it probes,
    is sent that SNR's BerPoint, and returns the operating point."""
    if not 0.0 < target_ber < 1.0:     # also false for NaN
        raise ConfigError(f"target BER must be in (0, 1), got {target_ber}")
    lo, hi = cfg.snr_lo_db, cfg.snr_hi_db
    cfg.validate(lo, hi)
    if lo >= hi:
        raise ConfigError(f"snr_lo_db ({lo}) must be below snr_hi_db ({hi})")
    if (yield lo).ber <= target_ber:
        raise UnreachableError(f"BER already at target at the lower extreme {lo} dB")
    if (yield hi).ber > target_ber:
        raise UnreachableError(f"BER above target at the upper extreme {hi} dB")
    while (steps := round((hi - lo) / _RESOLUTION_DB)) >= 2:
        mid = lo + (steps // 2) * _RESOLUTION_DB
        if (yield mid).ber <= target_ber:
            hi = mid
        else:
            lo = mid
    return hi


def _search(cfgs: list, target_ber: float, points) -> list:
    """Each config's operating point, or the UnreachableError that ended its
    search; a ConfigError propagates.  The bisections advance together:
    ``points(group, snr_db)`` gives the BER points of the configs ``group``
    that probe ``snr_db`` next."""
    searches = dict(enumerate(_bisection(cfg, target_ber) for cfg in cfgs))
    results = [None] * len(cfgs)        # what each search is sent next, then its result
    while searches:
        requests = {}                       # SNR -> the searches probing it
        for i, search in list(searches.items()):
            try:
                requests.setdefault(search.send(results[i]), []).append(i)
            except StopIteration as done:
                results[i] = done.value
                del searches[i]
            except UnreachableError as exc:
                results[i] = exc
                del searches[i]
        for snr_db, group in requests.items():
            for i, point in zip(group, points([cfgs[i] for i in group], snr_db)):
                results[i] = point
    return results


@_pool_scope()
def snr_operating_point(cfg: SimConfig, target_ber: float = 1e-3) -> float:
    """Minimum SNR reaching the target BER: a point of the 0.25 dB grid that
    starts at cfg.snr_lo_db, or cfg.snr_hi_db.

    Bisection between cfg.snr_lo_db and cfg.snr_hi_db, assuming BER is
    non-increasing in SNR; each probe calls run_ber_point by its module
    name, so a rebinding sees every one.  Raises ConfigError unless the
    target is in (0, 1), the extremes are finite and lo < hi, and
    UnreachableError if they do not bracket the target.
    """
    op, = _search([cfg], target_ber, lambda group, snr_db: [run_ber_point(cfg, snr_db)])
    if isinstance(op, UnreachableError):
        raise op
    return op


@_pool_scope()
def pareto_sweep(cfg: SimConfig, candidates, target_ber: float = 1e-3) -> list[ParetoPoint]:
    """Evaluate (alpha, SNR operating point) per candidate; keep the Pareto set.

    A candidate gives values of the algorithm's ``params``, in their order:
    a density, a ThresholdPair, or a tuple.  ConfigError if it does not
    match them.  Candidates whose target BER is unreachable are dropped.

    The candidates' searches first run in lockstep (``_search``), so that
    blocks at one SNR are simulated once for all of them (``_sim_chunk``).
    Then each candidate's snr_operating_point runs, one after another,
    from the memo: the BER points and the order of the run_ber_point calls
    are those of separate searches.
    """
    params = cfg.detector.params
    values = [astuple(c) if is_dataclass(c) else np.ravel(c) for c in candidates]
    if not params or any(len(v) != len(params) for v in values):
        raise ConfigError(f"{cfg.algorithm} sweeps {', '.join(params) or 'no parameter'};"
                          " each candidate must give exactly those values")
    tags = [{name: float(x) for name, x in zip(params, v)} for v in values]
    subs = [replace(cfg, **tag) for tag in tags]
    _search(subs, target_ber, _ber_points)
    points = []
    for tag, sub in zip(tags, subs):
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
